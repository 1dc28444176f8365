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
//!   (Sec. IV.D, Figs. 11–13): a bit-level scalar oracle that computes
//!   through a real SRAM tile, and the production kernel that computes
//!   `H_σ` arithmetically and books the oracle's tile events in closed
//!   form;
//! * [`phases`] — the five-phase pipeline timing (Fig. 11f);
//! * [`rounds`] — [`rounds::RoundPlan`], the one cost model of a sweep's
//!   compute-array rounds (partition, compute, load, overlap) and the
//!   energy price list, which the machine bills and the closed-form model
//!   sums;
//! * [`machine`] — [`machine::SachiMachine`], a fully-accounted functional
//!   machine implementing the shared iterative-solver protocol;
//! * [`perf`] — the closed-form CPI/energy model used for million-spin
//!   sweeps (pinned against the machine by parity tests);
//! * [`isa`] — the `FIST`/`XNORM` software interface (Sec. IV.E, Fig. 14);
//! * [`config`] — machine configuration and the Sec. VII.2 cache presets;
//! * [`ensemble`] — thread-safe per-replica [`machine::RunReport`]
//!   folding for parallel replica ensembles, cross-checked against the
//!   [`multicore`] analytic model.
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
pub mod isa;
pub mod machine;
pub mod multicore;
pub mod perf;
pub mod phases;
pub mod rounds;
pub mod runtime;
pub mod serve;
pub mod tuple;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::config::{DesignKind, FaultProfile, SachiConfig};
    pub use crate::designs::{stationarity, ComputeContext, ComputeScratch, Stationarity};
    pub use crate::encoding::MixedEncoding;
    pub use crate::ensemble::{EnsembleReport, ReplicaLedger, ReportingMachine};
    pub use crate::error::{SachiError, ServerReason};
    pub use crate::isa::{FistSubop, Instruction, MicroExecutor};
    pub use crate::machine::{FaultReport, RunReport, SachiMachine};
    pub use crate::multicore::{MulticoreEstimate, MulticoreModel, Partition};
    pub use crate::perf::{IterationEstimate, PerfModel, SolveEstimate};
    pub use crate::phases::PhaseSchedule;
    pub use crate::rounds::RoundPlan;
    pub use crate::runtime::{Launch, ProblemHandle, SachiContext};
    pub use crate::serve::{
        build_cop_problem, CopProblem, JobHandle, JobLimits, JobOutcome, JobPlan, JobResult,
        JobSpec, SolverPool, INIT_SEED_SALT,
    };
    pub use crate::tuple::{SpinTuple, TuplePlaneView, TuplePlanes, TupleStore, TupleSums};
}
