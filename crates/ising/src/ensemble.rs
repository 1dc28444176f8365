//! Deterministic parallel replica-ensemble engine.
//!
//! The paper's evaluation leans on many *independent* annealing runs —
//! the multi-start solves behind Fig. 16/19 and the multicore study of
//! Sec. IV.B.2 — and replica-level parallelism is the cheapest
//! throughput lever: replicas share the problem read-only and never
//! exchange state mid-solve. [`EnsembleRunner::map`] is the one fan-out:
//! it runs a per-replica task over `T` scoped worker threads (std-only:
//! the workspace is offline) and returns the outputs in replica order.
//! [`EnsembleRunner::run`] maps a solve over the replicas and reduces to
//! a [`BestOf`]; `sachi-core`'s `JobPlan::run` maps its per-replica
//! machine call the same way and folds with the daemon's reduction.
//!
//! ## The determinism contract
//!
//! Same master seed ⇒ identical spins, energies, and accept/reject
//! counts at every thread count. Three mechanisms enforce it:
//!
//! 1. **Per-replica seeds are a pure function of `(master_seed,
//!    replica_index)`** — a SplitMix64 fold ([`derive_replica_seed`]),
//!    never of thread identity or completion order. The fold is
//!    injective in the index (for a fixed master seed), so no two
//!    replicas ever share an annealer stream.
//! 2. **Workers share an atomic queue of replica indices** and write
//!    each finished output into the slot named by its index
//!    ([`EnsembleRunner::map`]); the reduction then scans slots in
//!    replica order, so work-stealing order is unobservable.
//! 3. **Ties in the best-energy reduction break toward the lowest
//!    replica index**, a rule independent of which replica finished
//!    first.
//!
//! `tests/ensemble_determinism.rs` property-tests the contract across
//! thread counts and replica orderings, and `tests/golden_agreement.rs`
//! pins every replica against a sequential golden run with the same
//! derived seed.

use crate::graph::IsingGraph;
use crate::solver::{CpuReferenceSolver, IterativeSolver, SolveOptions, SolveResult};
use crate::spin::SpinVector;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// SplitMix64 finalizer: a bijection on `u64` (Steele, Lea & Flood,
/// "Fast splittable pseudorandom number generators", OOPSLA 2014).
#[inline]
pub(crate) fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The SplitMix64 stream increment (odd, so multiplying by it is a
/// bijection mod 2^64).
pub(crate) const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Derives the annealer seed of replica `replica_index` from the
/// ensemble's `master_seed`.
///
/// This is the `replica_index + 1`-th state of a SplitMix64 stream
/// started at `master_seed`, collapsed algebraically
/// (`state_k = master + (k+1)·γ`) and passed through the SplitMix64
/// output mix. For a fixed master seed the map `index → seed` is
/// injective over the full `u64` index range: `(k+1)·γ` is injective
/// (γ is odd) and the finalizer is a bijection. Results of an ensemble
/// therefore depend only on `(master_seed, replica_index)` — never on
/// thread count or scheduling.
#[inline]
pub fn derive_replica_seed(master_seed: u64, replica_index: u64) -> u64 {
    splitmix64_mix(
        master_seed.wrapping_add(replica_index.wrapping_add(1).wrapping_mul(SPLITMIX64_GAMMA)),
    )
}

/// Aggregate statistics over every replica of an ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnsembleStats {
    /// Replicas run.
    pub replicas: u64,
    /// Replicas that reached convergence before their sweep cap.
    pub converged: u64,
    /// Total sweeps across all replicas.
    pub total_sweeps: u64,
    /// Total spin flips across all replicas.
    pub total_flips: u64,
    /// Total Metropolis uphill moves accepted across all replicas.
    pub uphill_accepted: u64,
    /// Total Metropolis uphill moves rejected across all replicas.
    pub uphill_rejected: u64,
    /// Replicas flagged degraded by fault recovery (exhausted re-fetch
    /// budget or fail-fast abort).
    pub degraded: u64,
    /// Replica-exchange swap decisions evaluated (0 unless the ensemble
    /// ran with parallel tempering).
    pub swap_attempts: u64,
    /// Replica-exchange swaps accepted by the Metropolis criterion.
    pub swap_accepted: u64,
    /// Stalled tempering rungs reseeded from their restart streams.
    pub tempering_restarts: u64,
}

impl EnsembleStats {
    /// The replica-exchange counters as `(name, value)` metric pairs,
    /// in a fixed order, for export through `sachi-obs` metric sinks.
    /// Only the tempering counters live here: the per-replica solver
    /// counters (`solver_*`) and the cycle-domain ensemble fold
    /// (`ensemble_*`) are exported by their own layers, and this list
    /// must not double-count them.
    pub fn export_tempering_metrics(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("tempering_swap_attempts", self.swap_attempts),
            ("tempering_swap_accepted", self.swap_accepted),
            ("tempering_restarts", self.tempering_restarts),
        ]
    }
}

/// The reduction of an ensemble: every replica's result in replica
/// order, the index of the best one, and aggregate statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BestOf {
    /// Per-replica results, indexed by replica (not completion order).
    pub replicas: Vec<SolveResult>,
    /// Index of the lowest-energy *healthy* replica (ties break to the
    /// lowest index). Degraded replicas — flagged by fault recovery —
    /// can win only when every replica is degraded, so a corrupted
    /// result is never silently preferred over a clean one.
    pub best_index: usize,
    /// Aggregate accept/reject and progress statistics.
    pub stats: EnsembleStats,
}

impl BestOf {
    /// Reduces per-replica results (in replica order) to the ensemble
    /// verdict. Public so external schedulers — the `sachi serve` job
    /// pool packs replicas from different jobs onto one worker pool —
    /// can reuse the exact reduction the in-process runner applies;
    /// byte-identical inputs therefore produce byte-identical verdicts
    /// regardless of which host ran the replicas.
    pub fn reduce(replicas: Vec<SolveResult>) -> Self {
        debug_assert!(!replicas.is_empty(), "ensembles have >= 1 replica");
        let mut best_index = 0;
        let mut best_key = None;
        let mut stats = EnsembleStats {
            replicas: replicas.len() as u64,
            ..EnsembleStats::default()
        };
        // The winner is the replica minimizing the totally ordered key
        // `(degraded, energy)` — health dominates energy — and on exact
        // key ties the LOWEST replica index wins. Strict `<` against the
        // incumbent's key makes the index rule explicit: a later replica
        // can displace an earlier one only by a strictly smaller key, so
        // the verdict is invariant under reduction order and identical
        // for any permutation of equal-key replicas.
        for (k, r) in replicas.iter().enumerate() {
            let key = (r.degraded, r.energy);
            if best_key.is_none_or(|best| key < best) {
                best_index = k;
                best_key = Some(key);
            }
            stats.converged += u64::from(r.converged);
            stats.total_sweeps += r.sweeps;
            stats.total_flips += r.flips;
            stats.uphill_accepted += r.uphill_accepted;
            stats.uphill_rejected += r.uphill_rejected;
            stats.degraded += u64::from(r.degraded);
        }
        BestOf {
            replicas,
            best_index,
            stats,
        }
    }

    /// The best (lowest-energy) replica's result.
    pub fn best(&self) -> &SolveResult {
        self.replicas
            .get(self.best_index)
            .expect("reduce picks best_index from the replica vec it stores")
    }

    /// Consumes the ensemble, returning the best replica's result.
    pub fn into_best(mut self) -> SolveResult {
        self.replicas.swap_remove(self.best_index)
    }
}

/// Runs `R` independent annealing replicas of one problem over `T`
/// worker threads and reduces to a [`BestOf`].
///
/// Replicas differ only in their annealer seed, derived by
/// [`derive_replica_seed`] from the master seed in
/// [`SolveOptions::seed`]; the initial spins are shared. Any
/// deterministic [`IterativeSolver`] can back the replicas via
/// [`EnsembleRunner::run`]'s per-replica factory.
///
/// ```
/// use sachi_ising::prelude::*;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let graph = topology::king(6, 6, |_, _| 1)?;
/// let mut rng = StdRng::seed_from_u64(1);
/// let init = SpinVector::random(36, &mut rng);
/// let opts = SolveOptions::for_graph(&graph, 7);
///
/// let runner = EnsembleRunner::new(4).with_threads(2);
/// let best_of = runner.run_reference(&graph, &init, &opts);
/// assert_eq!(best_of.replicas.len(), 4);
/// assert_eq!(best_of.best().energy, -(graph.num_edges() as i64));
/// // Identical at any thread count:
/// assert_eq!(
///     best_of,
///     EnsembleRunner::new(4).with_threads(1).run_reference(&graph, &init, &opts),
/// );
/// # Ok::<(), sachi_ising::graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EnsembleRunner {
    replicas: usize,
    threads: usize,
}

impl EnsembleRunner {
    /// Creates a runner for `replicas` replicas over the host's
    /// available parallelism.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    pub fn new(replicas: usize) -> Self {
        assert!(replicas > 0, "need at least one replica");
        EnsembleRunner {
            replicas,
            threads: Self::available_threads(),
        }
    }

    /// Overrides the worker-thread count. Thread count never changes
    /// results — only wall-clock.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Replica count.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The host's available parallelism (1 if it cannot be queried).
    pub fn available_threads() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// The [`SolveOptions`] replica `k` runs with: the base options with
    /// the seed replaced by [`derive_replica_seed`]`(base.seed, k)`.
    pub fn replica_options(base: &SolveOptions, replica: usize) -> SolveOptions {
        SolveOptions {
            seed: derive_replica_seed(base.seed, replica as u64),
            ..base.clone()
        }
    }

    /// Runs the ensemble over scoped worker threads. `factory(k)` builds
    /// the solver for replica `k`, so hardware machines can be
    /// instantiated per replica (and capture per-replica report sinks).
    /// It is called once per replica, on the worker thread that runs
    /// it. A replica-exchange run ([`SolveOptions::tempering`]) calls
    /// its rung's solver once per exchange segment and once for the
    /// quench, so a sink that sees more than one record per replica
    /// must merge them (`sachi_core::ensemble::run_ensemble` does so for
    /// SACHI machines).
    ///
    /// Plain replicas run through [`EnsembleRunner::map`] and reduce
    /// with [`BestOf::reduce`], so the output is independent of thread
    /// count and work-stealing order whenever the solver itself is
    /// deterministic per seed. Tempered rungs are pinned instead: rung
    /// `r` runs on worker `r % threads` for the whole run.
    ///
    /// # Panics
    ///
    /// Panics (poisoning aside) only if a replica's solver panics.
    pub fn run<S, F>(
        &self,
        graph: &IsingGraph,
        initial: &SpinVector,
        base: &SolveOptions,
        factory: F,
    ) -> BestOf
    where
        S: IterativeSolver,
        F: Fn(usize) -> S + Sync,
    {
        if let Some(topts) = base.tempering.as_ref() {
            return crate::tempering::run_exchange(
                self.threads,
                self.replicas,
                graph,
                initial,
                base,
                topts,
                &factory,
            );
        }
        BestOf::reduce(
            self.map(|k| factory(k).solve(graph, initial, &Self::replica_options(base, k))),
        )
    }

    /// Runs `task(k)` for every replica index `k` over scoped worker
    /// threads and returns the outputs in index order. Workers pull
    /// indices from a shared atomic queue and each output lands in the
    /// slot named by its index, so the vector is independent of thread
    /// count and work-stealing order whenever `task` is a pure function
    /// of `k`. Each index runs exactly once.
    ///
    /// # Panics
    ///
    /// Panics (poisoning aside) only if a task panics.
    pub fn map<T, F>(&self, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..self.replicas).map(|_| None).collect());
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(self.replicas);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= self.replicas {
                        break;
                    }
                    let output = task(k);
                    if let Some(slot) = slots
                        .lock()
                        .expect("ensemble slot mutex poisoned: a replica panicked")
                        .get_mut(k)
                    {
                        *slot = Some(output);
                    }
                });
            }
        });

        slots
            .into_inner()
            .expect("ensemble slot mutex poisoned: a replica panicked")
            .into_iter()
            .map(|slot| slot.expect("work queue covers every replica index"))
            .collect()
    }

    /// Runs the ensemble on the golden-model CPU solver.
    pub fn run_reference(
        &self,
        graph: &IsingGraph,
        initial: &SpinVector,
        base: &SolveOptions,
    ) -> BestOf {
        self.run(graph, initial, base, |_| CpuReferenceSolver::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::topology;
    use crate::solver::SolveOptions;
    use crate::spin::Spin;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn frustrated_graph() -> IsingGraph {
        topology::complete(12, |i, j| ((i * 5 + j * 7) % 9) as i32 - 4).unwrap()
    }

    #[test]
    fn seed_derivation_is_injective_over_small_indices() {
        let mut seeds: Vec<u64> = (0..4096).map(|k| derive_replica_seed(99, k)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4096);
    }

    #[test]
    fn seed_derivation_differs_across_masters() {
        assert_ne!(derive_replica_seed(1, 0), derive_replica_seed(2, 0));
        assert_ne!(derive_replica_seed(0, 0), derive_replica_seed(0, 1));
    }

    #[test]
    fn thread_count_is_unobservable() {
        let g = frustrated_graph();
        let mut rng = StdRng::seed_from_u64(3);
        let init = SpinVector::random(12, &mut rng);
        let opts = SolveOptions::for_graph(&g, 17).with_trace();
        let reference = EnsembleRunner::new(5)
            .with_threads(1)
            .run_reference(&g, &init, &opts);
        for threads in [2, 3, 8] {
            let got = EnsembleRunner::new(5)
                .with_threads(threads)
                .run_reference(&g, &init, &opts);
            assert_eq!(got, reference, "threads = {threads}");
        }
    }

    #[test]
    fn best_index_breaks_ties_toward_lowest_replica() {
        // An edge-free graph: every replica ends at energy 0, so the
        // reduction must pick replica 0 regardless of scheduling.
        let g = crate::graph::GraphBuilder::new(3).build().unwrap();
        let init = SpinVector::filled(3, Spin::Up);
        let opts = SolveOptions::for_graph(&g, 5).with_max_sweeps(4);
        let best_of = EnsembleRunner::new(7)
            .with_threads(4)
            .run_reference(&g, &init, &opts);
        assert_eq!(best_of.best_index, 0);
        assert!(best_of.replicas.iter().all(|r| r.energy == 0));
    }

    #[test]
    fn stats_aggregate_every_replica() {
        let g = frustrated_graph();
        let mut rng = StdRng::seed_from_u64(6);
        let init = SpinVector::random(12, &mut rng);
        let opts = SolveOptions::for_graph(&g, 31);
        let best_of = EnsembleRunner::new(4)
            .with_threads(2)
            .run_reference(&g, &init, &opts);
        let stats = best_of.stats;
        assert_eq!(stats.replicas, 4);
        assert_eq!(
            stats.total_sweeps,
            best_of.replicas.iter().map(|r| r.sweeps).sum::<u64>()
        );
        assert_eq!(
            stats.total_flips,
            best_of.replicas.iter().map(|r| r.flips).sum::<u64>()
        );
        assert_eq!(
            stats.uphill_accepted + stats.uphill_rejected,
            best_of
                .replicas
                .iter()
                .map(|r| r.uphill_accepted + r.uphill_rejected)
                .sum::<u64>()
        );
        assert_eq!(
            stats.converged as usize,
            best_of.replicas.iter().filter(|r| r.converged).count()
        );
    }

    #[test]
    fn into_best_returns_the_best_replica() {
        let g = frustrated_graph();
        let mut rng = StdRng::seed_from_u64(8);
        let init = SpinVector::random(12, &mut rng);
        let opts = SolveOptions::for_graph(&g, 41);
        let best_of = EnsembleRunner::new(5).run_reference(&g, &init, &opts);
        let best_energy = best_of.best().energy;
        assert!(best_of.replicas.iter().all(|r| r.energy >= best_energy));
        assert_eq!(best_of.into_best().energy, best_energy);
    }

    fn result_with(energy: i64, degraded: bool) -> SolveResult {
        SolveResult {
            spins: SpinVector::filled(1, Spin::Up),
            energy,
            sweeps: 1,
            flips: 0,
            converged: true,
            trace: Vec::new(),
            uphill_accepted: 0,
            uphill_rejected: 0,
            degraded,
        }
    }

    #[test]
    fn degraded_replicas_lose_to_healthy_ones() {
        // The degraded replica has the best raw energy but must not win.
        let best_of = BestOf::reduce(vec![
            result_with(-10, true),
            result_with(-4, false),
            result_with(-7, false),
        ]);
        assert_eq!(best_of.best_index, 2);
        assert_eq!(best_of.stats.degraded, 1);

        // All degraded: fall back to the overall lowest energy.
        let all_bad = BestOf::reduce(vec![result_with(-3, true), result_with(-9, true)]);
        assert_eq!(all_bad.best_index, 1);
        assert_eq!(all_bad.stats.degraded, 2);

        // Ties still break to the lowest index within a health class.
        let tied = BestOf::reduce(vec![
            result_with(-5, true),
            result_with(-5, false),
            result_with(-5, false),
        ]);
        assert_eq!(tied.best_index, 1);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let _ = EnsembleRunner::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = EnsembleRunner::new(1).with_threads(0);
    }

    #[test]
    fn map_returns_outputs_in_index_order_and_runs_each_index_once() {
        for threads in [1, 3, 8] {
            for replicas in [1, 5, 7] {
                let calls = AtomicUsize::new(0);
                let out = EnsembleRunner::new(replicas)
                    .with_threads(threads)
                    .map(|k| {
                        calls.fetch_add(1, Ordering::Relaxed);
                        k * 10
                    });
                let want: Vec<usize> = (0..replicas).map(|k| k * 10).collect();
                assert_eq!(out, want, "threads = {threads}, replicas = {replicas}");
                assert_eq!(calls.into_inner(), replicas, "threads = {threads}");
            }
        }
    }
}
