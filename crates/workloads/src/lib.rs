//! # sachi-workloads — the COPs of the SACHI evaluation
//!
//! Section V.2 of the SACHI paper (HPCA 2024) evaluates four combinatorial
//! optimization problems. Each is implemented here as a [`spec::Workload`]:
//! a concrete Ising graph to iterate on, plus the architectural
//! [`spec::WorkloadShape`] (spins, neighbors `N`, resolution `R`) that the
//! cycle/energy models of `sachi-core` and `sachi-baselines` consume, plus
//! a domain-level accuracy metric.
//!
//! * [`asset`] — $80M number partitioning across `m` assets;
//! * [`segmentation`] — max-cut foreground/background split of a synthetic
//!   image (Fig. 2);
//! * [`tsp`] — the paper's decision-version TSP on the complete distance
//!   graph, plus a full Lucas tour formulation for solution-quality
//!   studies;
//! * [`molecular`] — King's-graph ferromagnet with a known ground state;
//! * [`quantize`] — the shared R-bit IC quantizer (Fig. 19c/d sweeps);
//! * [`maxcut`] — cut-weight helpers and the greedy reference.
//!
//! Beyond the paper's four, the Lucas-library extension families back
//! the quality-regression corpus:
//!
//! * [`sat`] — 3-SAT/max-SAT via clause penalties (one ancilla per
//!   clause, Boros–Hammer quadratization);
//! * [`coloring`] — graph k-coloring (one-hot blocks + conflict edges);
//! * [`scheduling`] — P||Cmax makespan scheduling (one-hot blocks +
//!   squared machine loads);
//! * [`corpus`] — the seeded instance corpus behind `disc_quality`.
//!
//! ## Example
//!
//! ```
//! use sachi_workloads::prelude::*;
//! use sachi_ising::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let w = MolecularDynamics::new(6, 6, 1);
//! let mut rng = StdRng::seed_from_u64(2);
//! let init = SpinVector::random(w.graph().num_spins(), &mut rng);
//! let mut solver = CpuReferenceSolver::new();
//! let result = solver.solve(w.graph(), &init, &SolveOptions::for_graph(w.graph(), 3));
//! assert!(w.accuracy(&result.spins) > 0.9);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod asset;
pub mod coloring;
pub mod corpus;
pub mod encode;
pub mod generic;
pub mod lucas;
pub mod maxcut;
pub mod molecular;
pub mod quantize;
pub mod qubo;
pub mod sat;
pub mod scheduling;
pub mod segmentation;
pub mod spec;
pub mod tsp;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::asset::AssetAllocation;
    pub use crate::coloring::{ColoringInstance, ColoringWorkload};
    pub use crate::corpus::{corpus, smoke_corpus, CorpusCase, SplitMix64, CORPUS_MASTER_SEED};
    pub use crate::encode::{checked_coefficient, EncodeError};
    pub use crate::generic::GenericMaxCut;
    pub use crate::lucas::{self, InputGraph};
    pub use crate::maxcut::{best_cut_reference, cut_weight, flip_gain};
    pub use crate::molecular::MolecularDynamics;
    pub use crate::quantize::quantize_to_bits;
    pub use crate::qubo::{QuboBuilder, QuboProblem};
    pub use crate::sat::{parse_dimacs_cnf, Clause, Lit, SatInstance, SatWorkload};
    pub use crate::scheduling::{SchedulingInstance, SchedulingWorkload};
    pub use crate::segmentation::{Connectivity, ImageSegmentation};
    pub use crate::spec::{CopKind, Workload, WorkloadShape};
    pub use crate::tsp::{two_opt_tour, TspDecision, TspTour};
}
