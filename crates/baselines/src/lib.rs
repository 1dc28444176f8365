//! # sachi-baselines — every system SACHI is compared against
//!
//! The SACHI paper's evaluation (Secs. V–VI) compares against two Ising
//! accelerators and three classes of classical solvers. All are
//! implemented here, parameterized exactly as Sec. V.5 describes:
//!
//! * [`brim`] — BRIM, the bistable resistively-coupled Ising machine
//!   (coupled oscillators + DACs, serial updates, reuse 1, signed 4-bit,
//!   <= 1000 nodes);
//! * [`ising_cim`] — Ising-CIM, the eDRAM compute-in-memory annealer
//!   (King's graph only, unsigned 2-bit, 2-step compute/update, 1.2x
//!   XNOR power);
//! * [`ga`] — genetic algorithm (GALib stand-in, Figs. 1/16);
//! * [`pso`] — binary particle swarm optimization;
//! * [`optsolv`] — the dedicated solvers: 2-opt TSP (Concorde stand-in),
//!   Edmonds-Karp min-cut (Ford-Fulkerson), Karmarkar-Karp partitioning,
//!   and greedy lattice descent (LAMMPS stand-in).
//!
//! Every Ising machine here — BRIM, Ising-CIM and the CMOS annealer —
//! is a price, and the CMOS annealer also a sweep. BRIM and Ising-CIM
//! compute the exact local field, so their sweep *is* the golden one:
//! each model is only `check_limits` plus `price`, and a caller solves
//! once (with `sachi_ising::solver::CpuReferenceSolver`, or by reusing a
//! SACHI result, whose trajectory is the golden one) and prices that
//! result for every design it compares. The CMOS annealer's
//! group-parallel body differs, so it keeps its own body on
//! `sachi_ising::solver::run_sweeps`, booking nothing. Each machine's
//! `price` turns a solve's [`SolveCounts`] into a [`Price`]; a
//! functional solve feeds it the graph's counts and the figure harnesses
//! feed it a shape's, so both read one cost model, and `disc_drift` pins
//! the two at 0.00% on uniform-degree graphs. Comparisons therefore vary
//! only the architecture model, never the algorithm (the CMOS annealer's
//! trajectory is its own; its protocol is not). A graph outside a
//! machine's envelope is refused with one [`EnvelopeError`] naming the
//! limit it breaks.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod brim;
pub mod cmos_annealer;
pub mod ga;
pub mod ising_cim;
pub mod optsolv;
pub mod pso;

use sachi_ising::graph::IsingGraph;
use sachi_ising::solver::SolveResult;
use sachi_mem::energy::EnergyLedger;
use sachi_mem::units::Cycles;
use sachi_workloads::spec::WorkloadShape;
use std::fmt;

/// Reuse of BRIM and Ising-CIM: every IC fetched from memory feeds
/// exactly one compute (Sec. V.5).
pub const BASELINE_REUSE: f64 = 1.0;

/// A graph outside a machine's envelope; the message names the limit
/// and the value that breaks it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvelopeError(String);

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for EnvelopeError {}

/// The counts a baseline's cost depends on. Each machine's `price`
/// reads the subset its model needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveCounts {
    /// Spins in the problem.
    pub spins: u64,
    /// Largest fan-in of any spin.
    pub max_degree: u64,
    /// Couplings stored, each undirected edge once.
    pub stored_ics: u64,
    /// IC reads of one sweep: every spin reads its fan-in once.
    pub ic_reads_per_sweep: u64,
    /// Sweeps executed.
    pub sweeps: u64,
    /// Spin flips applied.
    pub flips: u64,
}

impl SolveCounts {
    /// The counts of a functional solve of `graph` that returned `result`.
    pub fn of(graph: &IsingGraph, result: &SolveResult) -> Self {
        let edges = graph.num_edges() as u64;
        SolveCounts {
            spins: graph.num_spins() as u64,
            max_degree: graph.max_degree() as u64,
            stored_ics: edges,
            ic_reads_per_sweep: 2 * edges,
            sweeps: result.sweeps,
            flips: result.flips,
        }
    }

    /// The counts of a uniform-degree `shape` solved in `sweeps` sweeps
    /// with `flips` flips.
    pub fn for_shape(shape: &WorkloadShape, sweeps: u64, flips: u64) -> Self {
        let reads = shape.spins * shape.neighbors_per_spin;
        SolveCounts {
            spins: shape.spins,
            max_degree: shape.neighbors_per_spin,
            stored_ics: reads / 2,
            ic_reads_per_sweep: reads,
            sweeps,
            flips,
        }
    }
}

/// A baseline's cost of one solve, loading included.
#[derive(Debug, Clone, PartialEq)]
pub struct Price {
    /// Total cycles.
    pub cycles: Cycles,
    /// Energy by component.
    pub energy: EnergyLedger,
}

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::brim::{BrimConfig, BrimMachine};
    pub use crate::cmos_annealer::CmosAnnealer;
    pub use crate::ga::{run_ga, run_ga_on_graph, GaOptions, GaOutcome};
    pub use crate::ising_cim::{CimConfig, CimMachine};
    pub use crate::optsolv::{
        edmonds_karp_segmentation, karmarkar_karp, lattice_descent, tsp_reference,
    };
    pub use crate::pso::{run_pso, run_pso_on_graph, PsoOptions, PsoOutcome};
    pub use crate::{EnvelopeError, Price, SolveCounts, BASELINE_REUSE};
}
