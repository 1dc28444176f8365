//! Multi-core scaling model (Sec. IV.B.2).
//!
//! "To efficiently solve large COPs, reducing inter-CPU core interactions
//! is crucial. For PIM designs, this involves minimizing interactions
//! between sub-arrays of the compute array ... and extending the same
//! philosophy to reduce inter-core interactions." Each core owns a
//! partition of the tuples (its own compute/storage arrays); the only
//! inter-core traffic is spin updates whose adjacency crosses the
//! partition — exactly the update-path messages of Fig. 8b, now over an
//! interconnect.
//!
//! [`Partition`] assigns spins to cores and computes the cross-core cut;
//! [`MulticoreModel`] combines the per-core [`PerfModel`]
//! with an interconnect-broadcast term. Locality-aware partitions
//! (contiguous blocks of a lattice) cut orders of magnitude fewer edges
//! than interleaved ones, which is the whole scaling argument.

use sachi_core::config::SachiConfig;
use sachi_core::perf::{PerfModel, ASSUMED_FLIP_FRACTION};
use sachi_ising::graph::IsingGraph;
use sachi_mem::units::Cycles;
use sachi_workloads::spec::WorkloadShape;

/// A spin-to-core assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    assignment: Vec<u32>,
    cores: usize,
}

impl Partition {
    /// Contiguous blocks: spins `[k·n/C, (k+1)·n/C)` to core `k`. For
    /// lattice-ordered graphs (King's, grid) this is the locality-aware
    /// choice.
    ///
    /// An empty graph (`n == 0`) yields an empty assignment — every core
    /// owns zero spins — rather than silently dividing by a clamped
    /// size. With `n < cores` the blocks degenerate to one spin each and
    /// the surplus cores own nothing; block sizes always differ by at
    /// most one.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn contiguous(n: usize, cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        if n == 0 {
            return Partition {
                assignment: Vec::new(),
                cores,
            };
        }
        // i < n ⇒ i·C/n ≤ (n-1)·C/n < C, so the index is already in
        // range without clamping.
        let assignment = (0..n).map(|i| ((i * cores) / n) as u32).collect();
        Partition { assignment, cores }
    }

    /// Round-robin interleaving: spin `i` to core `i % C`. Maximally
    /// locality-oblivious — the baseline the paper's philosophy argues
    /// against.
    ///
    /// The same edge-case contract as [`Partition::contiguous`]: an
    /// empty graph (`n == 0`) yields an empty assignment — every core
    /// owns zero spins; with `n < cores` the first `n` cores own one
    /// spin each and the surplus cores own nothing. `core_of` is total
    /// over `0..n` in every case (`i % cores < cores`, so the index
    /// never needs clamping).
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn interleaved(n: usize, cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        if n == 0 {
            return Partition {
                assignment: Vec::new(),
                cores,
            };
        }
        Partition {
            assignment: (0..n).map(|i| (i % cores) as u32).collect(),
            cores,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The core owning spin `i`.
    pub fn core_of(&self, i: usize) -> u32 {
        self.assignment[i]
    }

    /// Spins per core.
    pub fn core_sizes(&self) -> Vec<u64> {
        let mut sizes = vec![0u64; self.cores];
        for &c in &self.assignment {
            sizes[c as usize] += 1;
        }
        sizes
    }

    /// Number of graph edges whose endpoints live on different cores —
    /// each one is a tuple-rep copy that must be refreshed over the
    /// interconnect when its remote endpoint flips.
    ///
    /// # Panics
    ///
    /// Panics if the graph size differs from the partition.
    pub fn cut_edges(&self, graph: &IsingGraph) -> u64 {
        assert_eq!(
            graph.num_spins(),
            self.assignment.len(),
            "partition must match graph"
        );
        graph
            .edges()
            .filter(|&(u, v, _)| self.assignment[u as usize] != self.assignment[v as usize])
            .count() as u64
    }
}

/// Per-sweep estimate of a multi-core run.
#[derive(Debug, Clone)]
pub struct MulticoreEstimate {
    /// Cores used.
    pub cores: usize,
    /// Critical-path cycles of the busiest core's compute.
    pub core_cycles: Cycles,
    /// Interconnect cycles for cross-core spin-update messages.
    pub interconnect_cycles: Cycles,
    /// Effective cycles per iteration (compute and broadcast overlap up
    /// to the longer of the two).
    pub effective_cycles: Cycles,
    /// Cross-core edges of the partition.
    pub cut_edges: u64,
    /// Speedup over the same configuration on a single core.
    pub speedup_vs_single: f64,
}

/// The multi-core analytic model.
#[derive(Debug, Clone)]
pub struct MulticoreModel {
    config: SachiConfig,
    /// Spin-update messages the interconnect moves per cycle.
    pub interconnect_msgs_per_cycle: u64,
}

impl MulticoreModel {
    /// Creates a model with a 16-message/cycle interconnect; flips follow
    /// [`ASSUMED_FLIP_FRACTION`].
    pub fn new(config: SachiConfig) -> Self {
        MulticoreModel {
            config,
            interconnect_msgs_per_cycle: 16,
        }
    }

    /// Estimates one sweep of `graph` under `partition`, with per-spin
    /// neighborhood shape `(n, r)` taken from the graph itself.
    pub fn estimate(&self, graph: &IsingGraph, partition: &Partition) -> MulticoreEstimate {
        let model = PerfModel::new(self.config.clone());
        let n = graph.max_degree().max(1) as u64;
        let r = graph.bits_required();

        // Busiest core bounds the compute phase.
        let biggest = partition.core_sizes().into_iter().max().unwrap_or(0);
        let core_shape = WorkloadShape::new(biggest.max(1), n, r);
        let core_cycles = model.iteration(&core_shape).effective_cycles;

        // Cross-core update traffic: every cut edge is a remote tuple-rep
        // copy; a flipped endpoint sends one message per remote copy.
        let cut = partition.cut_edges(graph);
        let messages = (2.0 * cut as f64 * ASSUMED_FLIP_FRACTION).ceil() as u64;
        let interconnect = Cycles::new(messages.div_ceil(self.interconnect_msgs_per_cycle.max(1)));

        // Update messages overlap compute like the prefetcher overlaps
        // loads; the longer phase wins.
        let effective = core_cycles.max(interconnect);

        let single_shape = WorkloadShape::new(graph.num_spins() as u64, n, r);
        let single = model.iteration(&single_shape).effective_cycles;
        MulticoreEstimate {
            cores: partition.cores(),
            core_cycles,
            interconnect_cycles: interconnect,
            effective_cycles: effective,
            cut_edges: cut,
            speedup_vs_single: single.get() as f64 / effective.get().max(1) as f64,
        }
    }
}
