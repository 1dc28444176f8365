//! # sachi-obs — observability substrate for the SACHI simulator
//!
//! The paper's whole evaluation (Figs. 15–19) is a story told through
//! counters: cycles, energy ledgers, prefetch leads, fault and recovery
//! outcomes. This crate gives those counters one first-class home:
//!
//! * [`MetricsRegistry`] — monotonic counters, gauges, and histograms
//!   with fixed power-of-two buckets, filled after a solve from the
//!   simulators' plain counter structs, never from the sweep loop.
//! * [`PhaseSpan`] / [`SolvePhase`] — hierarchical solve-phase spans
//!   (`upload → round → h_compute → update → writeback → prefetch`)
//!   stamped in the **cycle domain**, never wall-clock: timestamps come
//!   from the simulator's own `Cycles` bookkeeping, so traces are
//!   bit-identical across hosts and thread counts.
//! * [`json`] — a snapshot writer plus a minimal recursive-descent
//!   parser and schema validator (used by `xtask validate-metrics` and
//!   the golden tests).
//! * [`prom`] — a Prometheus text exposition (version 0.0.4) writer and
//!   line-grammar validator.
//! * [`table`] — the fixed-width text tables (and their ratio/percent
//!   formats) the CLI reports and the paper harnesses print.
//!
//! The crate is deliberately dependency-free so every runtime crate can
//! use it without cycles. Instrumentation is **harvest-based**: hot
//! kernels keep their plain integer counters (free to maintain, already
//! present), and the registry is populated once per solve from those
//! structs. No registry call ever appears inside a `compute_*` kernel —
//! the xtask hot-path lint enforces exactly that.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod json;
pub mod prom;
pub mod registry;
pub mod span;
pub mod table;

pub use registry::{Histogram, MetricsRegistry, HISTOGRAM_BUCKETS};
pub use span::{render_span_tree, PhaseSpan, SolvePhase};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::json::{validate_snapshot, write_snapshot, JsonValue};
    pub use crate::prom::{validate_exposition, write_exposition};
    pub use crate::registry::{Histogram, MetricsRegistry};
    pub use crate::span::{render_span_tree, PhaseSpan, SolvePhase};
}
