//! The paper's reference models: what the figures and tests read, and
//! what `sachi solve`, `sachi estimate` and `sachi serve` never run —
//! the bit-level SRAM tile ([`bitcell`], Fig. 10), the scalar design
//! oracles ([`designs`], Figs. 11–13) the production kernel is proven
//! against, the `FIST`/`XNORM` ISA ([`isa`], Fig. 14), the host API
//! ([`runtime`], Sec. VII.3), the multi-core model ([`multicore`],
//! Sec. IV.B.2), the per-tuple storage layout the update path's
//! writeback is timed against ([`tuple`], Fig. 8b), and the bare
//! incremental solve the whole machine is timed against ([`bare`]).

pub mod bare;
pub mod bitcell;
pub mod designs;
pub mod isa;
pub mod multicore;
pub mod runtime;
pub mod tuple;
