//! # sachi — all-digital, near-memory Ising architecture simulator
//!
//! Umbrella crate of the SACHI reproduction (HPCA 2024: "SACHI: A
//! Stationarity-Aware, All-Digital, Near-Memory, Ising Architecture").
//! It re-exports the whole workspace under one roof:
//!
//! * [`arch`] (`sachi-core`) — the SACHI architecture: mixed encoding,
//!   tuple mapping, the four stationarity designs, the functional machine,
//!   the analytic performance model, and the job lowering behind
//!   `sachi solve` and `sachi serve`;
//! * [`ising`] (`sachi-ising`) — spins, graphs, Hamiltonians, annealing,
//!   and the golden-model CPU solver;
//! * [`mem`] (`sachi-mem`) — the 8T SRAM compute tile's counters, cache
//!   geometry, DRAM with prefetch, and energy accounting;
//! * [`workloads`] (`sachi-workloads`) — the four COPs of the paper's
//!   evaluation;
//! * [`baselines`] (`sachi-baselines`) — BRIM, Ising-CIM, GA, PSO, and
//!   the dedicated solvers;
//! * [`obs`] (`sachi-obs`) — metrics registry, cycle-domain solve-phase
//!   spans, and the JSON / Prometheus exporters.
//!
//! ## Quickstart
//!
//! ```
//! use sachi::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A molecular-dynamics COP (King's-graph ferromagnet)...
//! let workload = MolecularDynamics::new(6, 6, 42);
//! let graph = workload.graph();
//! let mut rng = StdRng::seed_from_u64(7);
//! let init = SpinVector::random(graph.num_spins(), &mut rng);
//!
//! // ...solved on the reuse-aware SACHI(n3) machine.
//! let mut machine = SachiMachine::new(SachiConfig::new(DesignKind::N3));
//! let opts = SolveOptions::for_graph(graph, 1);
//! let (result, report) = machine.solve_detailed(graph, &init, &opts);
//!
//! assert!(result.converged);
//! assert!(workload.accuracy(&result.spins) > 0.9);
//! println!("{} iterations, {}, {}", report.sweeps, report.total_cycles, report.energy.total());
//! ```
//!
//! See `examples/` for runnable walkthroughs of each COP and
//! `crates/bench` for the harnesses regenerating every figure of the
//! paper (documented in EXPERIMENTS.md), together with the paper's
//! reference models that no solve runs: the bit-level SRAM tile, the
//! scalar design oracles, the `FIST`/`XNORM` ISA, the host API and the
//! multi-core model (`sachi_bench::reference`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use sachi_baselines as baselines;
pub use sachi_core as arch;
pub use sachi_ising as ising;
pub use sachi_mem as mem;
pub use sachi_obs as obs;
pub use sachi_workloads as workloads;

/// One-stop import of the most-used types from every sub-crate.
pub mod prelude {
    pub use sachi_baselines::prelude::*;
    pub use sachi_core::prelude::*;
    pub use sachi_ising::prelude::*;
    pub use sachi_mem::prelude::*;
    pub use sachi_obs::prelude::*;
    pub use sachi_workloads::prelude::*;
}
