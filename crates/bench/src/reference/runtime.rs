//! A CUDA-like host API for programming SACHI (Sec. VII.3).
//!
//! The paper sketches the software story as ongoing work: "a CUDA-like
//! library/API to program SACHI as part of a complete program" with mode
//! switching "achieved by programming a special-purpose register". This
//! module provides that layer:
//!
//! * [`SachiContext`] owns the repurposed L1 (the [`L1Cache`] mode
//!   register) and a configured machine;
//! * [`SachiContext::upload`] stages a problem (graph + initial spins)
//!   as a device problem handle;
//! * [`SachiContext::launch`] programs the mode register into compute
//!   mode (flushing the cache — the honest cost of repurposing), runs the
//!   solve, and returns to normal mode so conventional accesses resume;
//! * between launches the cache is an ordinary L1
//!   ([`SachiContext::l1_mut`]), which is how the `disc_conventional`
//!   harness quantifies Sec. VII.1's "impact on conventional workloads".
//!
//! ```
//! use sachi_bench::reference::runtime::SachiContext;
//! use sachi_core::prelude::*;
//! use sachi_ising::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut ctx = SachiContext::new(SachiConfig::new(DesignKind::N3));
//! let graph = topology::king(4, 4, |_, _| 1)?;
//! let mut rng = StdRng::seed_from_u64(1);
//! let init = SpinVector::random(16, &mut rng);
//!
//! let problem = ctx.upload(&graph, &init);
//! let launch = ctx.launch(&problem, &SolveOptions::for_graph(&graph, 2));
//! assert!(launch.result.converged);
//! // Back in normal mode: the L1 serves ordinary reads again.
//! assert!(ctx.l1_mut().read(0x1000).is_ok());
//! # Ok::<(), sachi_ising::graph::GraphError>(())
//! ```

use crate::reference::l1cache::{CacheMode, L1Cache};
use sachi_core::config::SachiConfig;
use sachi_core::machine::{RunReport, SachiMachine};
use sachi_ising::graph::IsingGraph;
use sachi_ising::solver::{SolveOptions, SolveResult};
use sachi_ising::spin::SpinVector;
use sachi_mem::units::Cycles;

/// A staged problem: what `cudaMalloc` + `cudaMemcpy` would have done.
#[derive(Debug, Clone)]
pub struct ProblemHandle {
    graph: IsingGraph,
    initial: SpinVector,
    id: u64,
}

impl ProblemHandle {
    /// The staged graph.
    pub fn graph(&self) -> &IsingGraph {
        &self.graph
    }

    /// The staged initial spins.
    pub fn initial(&self) -> &SpinVector {
        &self.initial
    }

    /// Handle id (diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Everything one `launch` returns.
#[derive(Debug, Clone)]
pub struct Launch {
    /// The algorithmic outcome.
    pub result: SolveResult,
    /// The architecture report.
    pub report: RunReport,
    /// L1 lines flushed when entering compute mode.
    pub lines_flushed_entering: u64,
    /// Cycles spent on the two mode switches (SPR write + flush drain,
    /// one line per cycle).
    pub mode_switch_cycles: Cycles,
}

/// The host-side SACHI programming context.
#[derive(Debug)]
pub struct SachiContext {
    config: SachiConfig,
    l1: L1Cache,
    next_id: u64,
    launches: u64,
}

impl SachiContext {
    /// Creates a context with a typical 64KB L1 front-end.
    pub fn new(config: SachiConfig) -> Self {
        SachiContext {
            config,
            l1: L1Cache::typical_l1(),
            next_id: 0,
            launches: 0,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &SachiConfig {
        &self.config
    }

    /// The L1 cache, for normal-mode traffic between launches.
    pub fn l1_mut(&mut self) -> &mut L1Cache {
        &mut self.l1
    }

    /// Read-only view of the L1.
    pub fn l1(&self) -> &L1Cache {
        &self.l1
    }

    /// Number of launches performed.
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Stages a problem for launch.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len()` does not match the graph.
    pub fn upload(&mut self, graph: &IsingGraph, initial: &SpinVector) -> ProblemHandle {
        assert_eq!(
            initial.len(),
            graph.num_spins(),
            "initial spins must match graph size"
        );
        let id = self.next_id;
        self.next_id += 1;
        ProblemHandle {
            graph: graph.clone(),
            initial: initial.clone(),
            id,
        }
    }

    /// Runs a staged problem: programs the mode register to compute mode
    /// (flushing the L1), executes the solve on the configured machine,
    /// and returns the register to normal mode.
    pub fn launch(&mut self, problem: &ProblemHandle, options: &SolveOptions) -> Launch {
        let flushed = self.l1.set_mode(CacheMode::IsingCompute);
        let mut machine = SachiMachine::new(self.config.clone());
        let (result, report) = machine.solve_detailed(&problem.graph, &problem.initial, options);
        self.l1.set_mode(CacheMode::Normal);
        self.launches += 1;
        // SPR write (1 cycle) per switch + flush drain at one line/cycle.
        let mode_switch_cycles = Cycles::new(2 + flushed);
        Launch {
            result,
            report,
            lines_flushed_entering: flushed,
            mode_switch_cycles,
        }
    }
}
