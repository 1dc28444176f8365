//! # sachi-core — the SACHI architecture
//!
//! This crate is the paper's primary contribution: a **S**tationarity-
//! **A**ware, all-digital, near-memory Ising ar**CHI**tecture (HPCA 2024)
//! that repurposes a CPU's L1 cache as an in-SRAM XNOR compute array and
//! its L2 cache as a tuple storage array.
//!
//! * [`encoding`] — the mixed encoding scheme (Sec. IV.C, Fig. 9):
//!   R-bit two's-complement ICs, 1/0 spins, eqn. 4 XNOR products and the
//!   eqn. 5 reuse-aware variant (with a documented erratum fix);
//! * [`mod@tuple`] — tuple mapping and tuple-rep (Sec. IV.B, Figs. 7–8) with
//!   the adjacency-matrix update path;
//! * [`designs`] — the four stationarity designs SACHI(n1a/n1b/n2/n3)
//!   (Sec. IV.D, Figs. 11–13): each states its per-tuple closed forms
//!   once as a [`designs::TupleSchedule`] (including the Fig. 11f
//!   pipeline timing), and the production kernel computes `H_σ`
//!   arithmetically and books the design's tile events in closed form;
//! * [`rounds`] — [`rounds::RoundPlan`], the one cost model of a sweep's
//!   compute-array rounds (partition, compute, load, overlap), and
//!   [`rounds::RoundPlan::price`], which turns one solve's event counts
//!   ([`rounds::SolveEvents`]) into energy for the machine and the
//!   closed-form model alike;
//! * [`machine`] — [`machine::SachiMachine`], a fully-accounted functional
//!   machine implementing the shared iterative-solver protocol;
//! * [`perf`] — the closed-form CPI/energy model used for million-spin
//!   sweeps (pinned against the machine by parity tests);
//! * [`config`] — machine configuration and the Sec. VII.2 cache presets;
//! * [`ensemble`] — [`ensemble::run_ensemble`], the one function that
//!   runs a replica ensemble of machines, and the fold of its
//!   per-replica [`machine::RunReport`]s;
//! * [`serve`] — the job lowering and worker pool behind `sachi solve`
//!   and `sachi serve`.
//!
//! The paper's reference models that no solve runs — the bit-level SRAM
//! tile, the scalar design oracles, the `FIST`/`XNORM` ISA (Fig. 14),
//! the host API (Sec. VII.3) and the multi-core model (Sec. IV.B.2) —
//! live in the harness crate, `sachi_bench::reference`.
//!
//! ## Example
//!
//! ```
//! use sachi_core::prelude::*;
//! use sachi_ising::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Solve a ferromagnetic King's lattice on the mixed-stationary design.
//! let graph = topology::king(5, 5, |_, _| 1)?;
//! let mut rng = StdRng::seed_from_u64(7);
//! let init = SpinVector::random(25, &mut rng);
//! let mut machine = SachiMachine::new(SachiConfig::new(DesignKind::N3));
//! let (result, report) = machine.solve_detailed(&graph, &init, &SolveOptions::for_graph(&graph, 1));
//! assert!(result.converged);
//! assert!(report.reuse > 1.0); // reuse-aware compute
//! # Ok::<(), sachi_ising::graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod designs;
pub mod encoding;
pub mod ensemble;
pub mod error;
pub mod machine;
pub mod perf;
pub mod rounds;
pub mod serve;
pub mod tuple;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::config::{DesignKind, FaultProfile, SachiConfig};
    pub use crate::designs::{
        stationarity, ComputeContext, ComputeScratch, StaticEvents, Stationarity, TupleSchedule,
    };
    pub use crate::encoding::MixedEncoding;
    pub use crate::ensemble::{
        run_ensemble, EnsembleReport, JobOutcome, ReplicaLedger, ReportingMachine,
    };
    pub use crate::error::{SachiError, ServerReason};
    pub use crate::machine::{FaultReport, RunReport, SachiMachine};
    pub use crate::perf::{IterationEstimate, PerfModel, SolveEstimate};
    pub use crate::rounds::RoundPlan;
    pub use crate::serve::{
        build_cop_problem, CopProblem, JobHandle, JobLimits, JobPlan, JobResult, JobSpec,
        SolverPool, INIT_SEED_SALT,
    };
    pub use crate::tuple::{SpinTuple, TuplePlaneView, TuplePlanes, TupleStore, TupleSums};
}
