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
//! runs the *same* iterative protocol as `sachi-core`'s machine and the
//! golden CPU solver, shared by construction: each passes only its
//! per-sweep body to `sachi_ising::solver::run_sweeps`, which owns the
//! sweep cap, cancellation, counters, the running energy and its trace,
//! convergence and result; a body reports each sweep's flips and ΔH. So
//! comparisons vary only the architecture model, never the algorithm
//! (the CMOS annealer's body is group-parallel, so its trajectory is
//! its own; its protocol is not).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod brim;
pub mod cmos_annealer;
pub mod ga;
pub mod ising_cim;
pub mod optsolv;
pub mod pso;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::brim::{BrimConfig, BrimError, BrimMachine, BrimReport};
    pub use crate::cmos_annealer::{CmosAnnealer, CmosAnnealerError, CmosAnnealerReport};
    pub use crate::ga::{run_ga, run_ga_on_graph, GaOptions, GaOutcome};
    pub use crate::ising_cim::{CimConfig, CimError, CimMachine, CimReport};
    pub use crate::optsolv::{
        edmonds_karp_segmentation, karmarkar_karp, lattice_descent, tsp_reference,
    };
    pub use crate::pso::{run_pso, run_pso_on_graph, PsoOptions, PsoOutcome};
}
