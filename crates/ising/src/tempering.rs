//! Replica-exchange parallel tempering over the replica ensemble.
//!
//! The plain [`crate::ensemble::EnsembleRunner`] runs N *independent*
//! annealers — "N lottery tickets". Parallel tempering turns them into a
//! cooperating solver: each replica becomes a *rung* held at a fixed
//! [`TemperatureLadder`] temperature, and at every sweep-boundary
//! exchange point adjacent rungs propose a Metropolis *configuration
//! swap* with probability `min(1, exp((βᵢ − βⱼ)(Eᵢ − Eⱼ)))`. Hot rungs
//! roam the landscape; cold rungs polish — and a good configuration
//! found hot can migrate down the ladder instead of being thrown away.
//!
//! ## Determinism contract
//!
//! The tempered ensemble keeps the plain ensemble's guarantee: results
//! are a pure function of `(master_seed, replica_index)` plus the
//! tempering options, never of thread count or scheduling. Three
//! mechanisms enforce it:
//!
//! 1. **Segmented moves.** A tempered solve is a sequence of *segments*
//!    — ordinary [`IterativeSolver::solve`] calls of `SWAP_INTERVAL`
//!    (4) sweeps at the rung's constant ladder temperature
//!    ([`crate::anneal::Cooling::Hold`]). Segment
//!    `t` of rung `r` runs with seed `derive_replica_seed(
//!    derive_replica_seed(master, r), t)` — a pure function of the
//!    coordinates, so segments can execute on any worker in any order.
//! 2. **Salted swap stream.** Swap randomness never touches the move
//!    RNG: the decision for `(round, pair)` is a stateless pure
//!    function of `(swap_seed, round, pair)` where `swap_seed =
//!    mix(master ^ SWAP_SEED_SALT)`. The swap phase runs after all of a
//!    round's segments complete (a barrier), single-threaded, in pair
//!    order — thread count stays provably unobservable.
//! 3. **Deterministic restarts.** A rung whose segment made zero flips
//!    for `STALL_ROUNDS` (4) consecutive rounds is re-randomized from
//!    its own salted SplitMix64 restart stream (the rung's best-ever
//!    snapshot is kept and restored before the final quench).
//!
//! Each rung keeps one solver for the whole run, so a hardware machine
//! maps the problem once and only re-seats the spins a swap or restart
//! changed. Which thread owns a rung is fixed (`r % workers`), but
//! since every segment is a pure function of its coordinates, that
//! choice is as unobservable as the thread count. The same engine
//! serves `sachi solve` and the daemon: a coupled job runs it through
//! `EnsembleRunner::run` on both front ends.

use crate::anneal::Schedule;
use crate::ensemble::{derive_replica_seed, splitmix64_mix, BestOf, SPLITMIX64_GAMMA};
use crate::graph::IsingGraph;
use crate::hamiltonian::energy;
use crate::solver::{IterativeSolver, SolveOptions, SolveResult};
use crate::spin::SpinVector;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc;

/// Salt folded into the master seed for the swap-decision stream.
/// Distinct from every per-replica move seed by construction: move
/// seeds come out of `derive_replica_seed` (an additive SplitMix64
/// walk), the swap seed out of an XOR fold — the two families never
/// share a generator state.
const SWAP_SEED_SALT: u64 = 0x5AC1_1ADD_E250_11A9;

/// Salt folded into a rung's move seed for its restart stream.
const RESTART_SEED_SALT: u64 = 0x5AC1_2E5E_ED00_0001;

/// A second odd increment for the pair coordinate of the swap stream
/// (γ′ of SplitMix64 folklore; odd ⇒ multiplication is a bijection).
const SWAP_PAIR_GAMMA: u64 = 0xD1B5_4A32_D192_ED03;

/// 2⁻⁵³: scales a 53-bit integer into `[0, 1)`.
const UNIT_53: f64 = 1.0 / 9_007_199_254_740_992.0;

/// Sweeps between exchange points (one segment), clamped to the budget.
const SWAP_INTERVAL: u64 = 4;

/// Consecutive zero-flip rounds after which a rung is re-randomized
/// from its restart stream (its best-ever snapshot is preserved).
const STALL_ROUNDS: u32 = 4;

/// How ladder rung temperatures are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderKind {
    /// Geometric spacing between fixed coefficient-range endpoints
    /// (cold `0.5`, hot `2·max|J|` — the plain schedule's start).
    Geometric,
    /// Endpoints tuned from the graph's coefficient statistics: hot at
    /// a fifth of the mean per-spin coupling weight (typical fractional
    /// uphill moves stay likely without scrambling whole spins), cold
    /// at half the smallest nonzero coefficient (the smallest uphill
    /// move is accepted with `e⁻⁴`).
    Adaptive,
}

impl LadderKind {
    /// The CLI/wire label (`geometric` | `adaptive`).
    pub fn label(&self) -> &'static str {
        match self {
            LadderKind::Geometric => "geometric",
            LadderKind::Adaptive => "adaptive",
        }
    }
}

impl std::str::FromStr for LadderKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "geometric" => Ok(LadderKind::Geometric),
            "adaptive" => Ok(LadderKind::Adaptive),
            other => Err(format!("unknown ladder '{other}' (geometric|adaptive)")),
        }
    }
}

/// A fixed set of rung temperatures, ascending (rung 0 is the coldest —
/// ties in the final reduction break toward the lowest index, i.e. the
/// most-polished rung). Inverse temperatures are precomputed so the
/// exchange engine never divides.
#[derive(Debug, Clone, PartialEq)]
pub struct TemperatureLadder {
    temperatures: Vec<f64>,
    betas: Vec<f64>,
    freeze_threshold: f64,
}

impl TemperatureLadder {
    /// Builds a ladder from explicit temperatures (ascending).
    ///
    /// # Panics
    ///
    /// Panics unless every temperature is finite, at or above
    /// `freeze_threshold > 0`, and the sequence is non-decreasing.
    pub fn from_temperatures(temperatures: Vec<f64>, freeze_threshold: f64) -> Self {
        assert!(!temperatures.is_empty(), "ladder needs at least one rung");
        assert!(freeze_threshold > 0.0, "freeze threshold must be positive");
        let mut prev = freeze_threshold;
        for &t in &temperatures {
            assert!(t.is_finite() && t >= freeze_threshold, "rungs must be live");
            assert!(t >= prev, "ladder temperatures must ascend");
            prev = t;
        }
        let betas = temperatures.iter().map(|t| t.recip()).collect();
        TemperatureLadder {
            temperatures,
            betas,
            freeze_threshold,
        }
    }

    /// A geometric ladder of `rungs` temperatures from `cold` to `hot`.
    ///
    /// # Panics
    ///
    /// Panics unless `rungs > 0` and
    /// `freeze_threshold <= cold <= hot`.
    pub fn geometric(cold: f64, hot: f64, rungs: usize, freeze_threshold: f64) -> Self {
        assert!(rungs > 0, "ladder needs at least one rung");
        assert!(cold <= hot, "cold endpoint must not exceed hot");
        let temperatures = interpolate_geometric(cold, hot, rungs);
        Self::from_temperatures(temperatures, freeze_threshold)
    }

    /// The [`LadderKind::Geometric`] ladder for a graph: fixed
    /// coefficient-range endpoints, matching the plain schedule's
    /// conventions ([`Schedule::for_coefficient_range`]).
    pub fn geometric_for_graph(graph: &IsingGraph, rungs: usize) -> Self {
        let hot = (2.0 * graph.max_abs_coefficient().max(1) as f64).max(1.0);
        let threshold = 0.05;
        let cold = 0.5f64.min(hot).max(threshold);
        Self::geometric(cold, hot, rungs, threshold)
    }

    /// The [`LadderKind::Adaptive`] ladder: endpoints tuned from the
    /// graph's coefficient statistics. Hot = one fifth of the mean
    /// per-spin total coupling weight `mean_i(Σ_j |J_ij| + |h_i|)` —
    /// hot enough that moves costing a typical coefficient's worth of
    /// energy stay likely, but cold enough that a full worst-case flip
    /// (`Δ = 2s`) is rare, so the hot rung explores without fully
    /// scrambling (the `0.2` factor is tuned on the seeded quality
    /// corpus, where the tempered ensemble must match or beat
    /// independent restarts in every cell at an equal sweep budget).
    /// Cold = half the smallest nonzero coefficient magnitude (so the
    /// smallest possible uphill move `Δ = 2q` is accepted with `e⁻⁴`).
    pub fn adaptive_for_graph(graph: &IsingGraph, rungs: usize) -> Self {
        let threshold = 0.05;
        let n = graph.num_spins();
        let mut total_weight = 0.0f64;
        let mut min_quantum = i64::MAX;
        for i in 0..n {
            let h = i64::from(graph.field(i)).abs();
            if h > 0 {
                min_quantum = min_quantum.min(h);
            }
            total_weight += h as f64;
        }
        for (_, _, j) in graph.edges() {
            let j = i64::from(j).abs();
            if j > 0 {
                min_quantum = min_quantum.min(j);
            }
            // Each coupling contributes to both endpoints' local field.
            total_weight += 2.0 * j as f64;
        }
        if min_quantum == i64::MAX {
            min_quantum = 1; // edge-free graph: any ladder is fine
        }
        let mean_weight = total_weight * (n.max(1) as f64).recip();
        let hot = (mean_weight * 0.2).max(1.0);
        let cold = (min_quantum as f64 * 0.5).clamp(threshold, hot);
        Self::geometric(cold, hot, rungs, threshold)
    }

    /// Builds the ladder of `kind` for `graph` with `rungs` rungs.
    pub fn for_graph(kind: LadderKind, graph: &IsingGraph, rungs: usize) -> Self {
        match kind {
            LadderKind::Geometric => Self::geometric_for_graph(graph, rungs),
            LadderKind::Adaptive => Self::adaptive_for_graph(graph, rungs),
        }
    }

    /// Number of rungs.
    pub fn len(&self) -> usize {
        self.temperatures.len()
    }

    /// True when the ladder has no rungs (unreachable through the
    /// constructors; provided for the `len`/`is_empty` convention).
    pub fn is_empty(&self) -> bool {
        self.temperatures.is_empty()
    }

    /// Rung `r`'s temperature.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn temperature(&self, r: usize) -> f64 {
        self.temperatures
            .get(r)
            .copied()
            .expect("rung index within ladder")
    }

    /// Rung `r`'s inverse temperature (precomputed at construction).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn beta(&self, r: usize) -> f64 {
        self.betas
            .get(r)
            .copied()
            .expect("rung index within ladder")
    }

    /// The freeze threshold shared by every rung's hold schedule.
    pub fn freeze_threshold(&self) -> f64 {
        self.freeze_threshold
    }

    /// The same ladder resampled to `rungs` rungs (geometric between
    /// the existing endpoints). Used when the replica count and the
    /// ladder length disagree.
    ///
    /// # Panics
    ///
    /// Panics if `rungs == 0`.
    pub fn resampled(&self, rungs: usize) -> Self {
        if rungs == self.len() {
            return self.clone();
        }
        assert!(rungs > 0, "ladder needs at least one rung");
        let cold = self
            .temperatures
            .first()
            .copied()
            .expect("ladders are non-empty");
        let hot = self
            .temperatures
            .last()
            .copied()
            .expect("ladders are non-empty");
        let temperatures = interpolate_geometric(cold, hot, rungs);
        Self::from_temperatures(temperatures, self.freeze_threshold)
    }
}

/// `rungs` geometrically spaced values from `cold` to `hot`
/// (log-linear; both endpoints included when `rungs > 1`). Division-
/// free so it stays callable from the exchange engine.
fn interpolate_geometric(cold: f64, hot: f64, rungs: usize) -> Vec<f64> {
    if rungs == 1 {
        // A single rung anneals nothing away: hold it at the cold end
        // where the final reduction looks first.
        return vec![cold];
    }
    let log_cold = cold.ln();
    let log_hot = hot.ln();
    let step = (log_hot - log_cold) * ((rungs - 1) as f64).recip();
    (0..rungs)
        .map(|r| (log_cold + step * r as f64).exp().clamp(cold, hot))
        .collect()
}

/// Options controlling a replica-exchange run. Carried inside
/// [`SolveOptions::tempering`]; `None` there means the plain
/// independent-replica ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct TemperingOptions {
    /// The rung temperatures (resampled to the replica count if the
    /// lengths disagree).
    pub ladder: TemperatureLadder,
}

impl TemperingOptions {
    /// Default tempering for `graph` with `rungs` replicas and the
    /// given ladder kind.
    pub fn for_graph(kind: LadderKind, graph: &IsingGraph, rungs: usize) -> Self {
        TemperingOptions {
            ladder: TemperatureLadder::for_graph(kind, graph, rungs.max(1)),
        }
    }
}

/// The deterministic swap stream's seed for a master seed: an XOR fold
/// through the SplitMix64 finalizer, disjoint by construction from the
/// additive-walk move seeds of [`derive_replica_seed`].
pub fn swap_stream_seed(master_seed: u64) -> u64 {
    splitmix64_mix(master_seed ^ SWAP_SEED_SALT)
}

/// The uniform `[0, 1)` variate deciding swap `(round, pair)`: a
/// stateless pure function, so the decision is identical no matter
/// which thread evaluates it or in what order rounds complete.
pub fn swap_unit(swap_seed: u64, round: u64, pair: u64) -> f64 {
    let z = splitmix64_mix(
        swap_seed
            .wrapping_add(round.wrapping_add(1).wrapping_mul(SPLITMIX64_GAMMA))
            .wrapping_add(pair.wrapping_add(1).wrapping_mul(SWAP_PAIR_GAMMA)),
    );
    (z >> 11) as f64 * UNIT_53
}

/// One segment of work: rung `rung` continues from `spins` under
/// `opts`. Executors must return results in job order.
struct SegmentJob {
    rung: usize,
    spins: SpinVector,
    opts: SolveOptions,
}

/// Per-rung accumulator across segments.
struct RungState {
    spins: SpinVector,
    energy: i64,
    best_energy: i64,
    best_spins: SpinVector,
    stall: u32,
    restarts: u64,
    move_seed: u64,
    sweeps: u64,
    flips: u64,
    uphill_accepted: u64,
    uphill_rejected: u64,
    degraded: bool,
    converged: bool,
    trace: Vec<i64>,
}

impl RungState {
    fn absorb(&mut self, result: SolveResult) {
        self.stall = if result.flips == 0 {
            self.stall.saturating_add(1)
        } else {
            0
        };
        self.sweeps += result.sweeps;
        self.flips += result.flips;
        self.uphill_accepted += result.uphill_accepted;
        self.uphill_rejected += result.uphill_rejected;
        self.degraded |= result.degraded;
        self.converged = result.converged;
        self.trace.extend_from_slice(&result.trace);
        self.energy = result.energy;
        self.spins = result.spins;
        if self.energy < self.best_energy {
            self.best_energy = self.energy;
            self.best_spins = self.spins.clone();
        }
    }
}

/// The constant-temperature segment options for one rung.
fn segment_options(
    base: &SolveOptions,
    temperature: f64,
    freeze_threshold: f64,
    max_sweeps: u64,
    seed: u64,
) -> SolveOptions {
    SolveOptions {
        max_sweeps,
        schedule: Schedule::constant(temperature, freeze_threshold),
        seed,
        record_trace: base.record_trace,
        step_budget: None, // already folded into the segment plan
        cancel: base.cancel.clone(),
        tempering: None, // segments are plain solves
    }
}

/// Runs the replica-exchange ensemble with one solver per rung, built
/// once per run by `factory(r)` and kept for every round and the
/// quench — so a machine keeps its rung's problem state resident, and a
/// per-replica report sink sees one record per segment and must merge.
///
/// With one worker the segments run inline on the calling thread. With
/// more, the workers live for the whole run: rung `r` belongs to worker
/// `r % workers`, which builds that rung's solver on its own thread and
/// runs its segments in the order they arrive. Byte-identical at every
/// thread count.
pub(crate) fn run_exchange<S, F>(
    threads: usize,
    replicas: usize,
    graph: &IsingGraph,
    initial: &SpinVector,
    base: &SolveOptions,
    topts: &TemperingOptions,
    factory: F,
) -> BestOf
where
    S: IterativeSolver,
    F: Fn(usize) -> S + Sync,
{
    let workers = threads.min(replicas).max(1);
    if workers == 1 {
        let mut solvers: Vec<S> = (0..replicas).map(&factory).collect();
        return drive(replicas, graph, initial, base, topts, |jobs| {
            jobs.into_iter()
                .map(|job| {
                    solvers
                        .get_mut(job.rung)
                        .expect("one solver per rung")
                        .solve(graph, &job.spins, &job.opts)
                })
                .collect()
        });
    }
    std::thread::scope(|scope| {
        // One (job, result) channel pair per worker. Results come back
        // in the order the worker received its jobs, and a worker that
        // died drops its result sender, failing the driver's receive
        // instead of blocking it.
        let lanes: Vec<_> = (0..workers)
            .map(|w| {
                let (job_tx, job_rx) = mpsc::channel::<SegmentJob>();
                let (result_tx, result_rx) = mpsc::channel::<SolveResult>();
                let factory = &factory;
                scope.spawn(move || {
                    let mut solvers: Vec<(usize, S)> = (w..replicas)
                        .step_by(workers)
                        .map(|r| (r, factory(r)))
                        .collect();
                    for job in job_rx {
                        let (_, solver) = solvers
                            .iter_mut()
                            .find(|(r, _)| *r == job.rung)
                            .expect("jobs reach the worker owning their rung");
                        if result_tx
                            .send(solver.solve(graph, &job.spins, &job.opts))
                            .is_err()
                        {
                            break;
                        }
                    }
                });
                (job_tx, result_rx)
            })
            .collect();
        let lane_of = |rung: usize| {
            rung.checked_rem(workers)
                .and_then(|w| lanes.get(w))
                .expect("every rung has a lane")
        };
        drive(replicas, graph, initial, base, topts, |jobs| {
            let rungs: Vec<usize> = jobs.iter().map(|job| job.rung).collect();
            for job in jobs {
                lane_of(job.rung)
                    .0
                    .send(job)
                    .expect("tempering worker alive: a segment panicked");
            }
            rungs
                .into_iter()
                .map(|rung| {
                    lane_of(rung)
                        .1
                        .recv()
                        .expect("tempering worker alive: a segment panicked")
                })
                .collect()
        })
    })
}

/// The shared round engine: plans segments, applies swaps and restarts
/// between rounds, restores per-rung bests, quenches, and reduces.
/// `exec` runs one round's segment jobs and returns results in job
/// order — the only part that differs between the inline and the
/// per-rung-lane executors.
fn drive<E>(
    replicas: usize,
    graph: &IsingGraph,
    initial: &SpinVector,
    base: &SolveOptions,
    topts: &TemperingOptions,
    mut exec: E,
) -> BestOf
where
    E: FnMut(Vec<SegmentJob>) -> Vec<SolveResult>,
{
    assert!(replicas > 0, "need at least one replica");
    let ladder = topts.ladder.resampled(replicas);
    let budget = base.effective_max_sweeps(graph.num_spins()).max(1);
    let interval = SWAP_INTERVAL.min(budget);
    // A final greedy quench segment (a frozen hold below the freeze
    // threshold) runs on every rung within this reserved budget.
    let quench_reserve = interval.min(budget.saturating_sub(interval));
    let rounds = budget
        .saturating_sub(quench_reserve)
        .checked_div(interval)
        .unwrap_or(1)
        .max(1);
    let swap_seed = swap_stream_seed(base.seed);
    let initial_energy = energy(graph, initial);

    let mut rungs: Vec<RungState> = (0..replicas)
        .map(|r| {
            let move_seed = derive_replica_seed(base.seed, r as u64);
            // Rung 0 refines the caller's state; higher rungs draw the
            // 0th sample of their restart stream so the ensemble has
            // the same initial diversity as independent restarts.
            let (spins, e) = if r > 0 {
                let seed = derive_replica_seed(splitmix64_mix(move_seed ^ RESTART_SEED_SALT), 0);
                let mut rng = StdRng::seed_from_u64(seed);
                let spins = SpinVector::random(graph.num_spins(), &mut rng);
                let e = energy(graph, &spins);
                (spins, e)
            } else {
                (initial.clone(), initial_energy)
            };
            RungState {
                best_energy: e,
                best_spins: spins.clone(),
                spins,
                energy: e,
                stall: 0,
                restarts: 0,
                move_seed,
                sweeps: 0,
                flips: 0,
                uphill_accepted: 0,
                uphill_rejected: 0,
                degraded: false,
                converged: false,
                trace: Vec::new(),
            }
        })
        .collect();

    let mut swap_attempts = 0u64;
    let mut swap_accepted = 0u64;
    let mut restarts_total = 0u64;

    for round in 0..rounds {
        if base.is_cancelled() {
            break;
        }
        // Segment phase: every rung advances `interval` sweeps at its
        // own constant temperature, on a fresh per-segment seed.
        let jobs: Vec<SegmentJob> = rungs
            .iter()
            .enumerate()
            .map(|(r, st)| SegmentJob {
                rung: r,
                spins: st.spins.clone(),
                opts: segment_options(
                    base,
                    ladder.temperature(r),
                    ladder.freeze_threshold(),
                    interval,
                    derive_replica_seed(st.move_seed, round),
                ),
            })
            .collect();
        let results = exec(jobs);
        for (st, result) in rungs.iter_mut().zip(results) {
            st.absorb(result);
        }

        // Swap phase: single-threaded, after the round barrier.
        // Even rounds try pairs (0,1), (2,3), …; odd rounds (1,2),
        // (3,4), … (deterministic even/odd alternation). Spins and
        // energies migrate; temperatures stay with their rungs.
        let mut i = (round & 1) as usize;
        while i + 1 < replicas {
            swap_attempts += 1;
            let delta_beta = ladder.beta(i) - ladder.beta(i + 1);
            let (left, right) = rungs.split_at_mut(i + 1);
            let a = left.last_mut().expect("pair index within rung vec");
            let b = right.first_mut().expect("pair index within rung vec");
            let delta = delta_beta * (a.energy as f64 - b.energy as f64);
            let accept = delta >= 0.0 || swap_unit(swap_seed, round, i as u64) < delta.exp();
            if accept {
                std::mem::swap(&mut a.spins, &mut b.spins);
                std::mem::swap(&mut a.energy, &mut b.energy);
                // A migrated configuration may be this rung's best yet.
                for st in [&mut *a, &mut *b] {
                    if st.energy < st.best_energy {
                        st.best_energy = st.energy;
                        st.best_spins = st.spins.clone();
                    }
                }
                swap_accepted += 1;
            }
            i += 2;
        }

        // Restart phase: reseed rungs stalled for `STALL_ROUNDS`.
        for st in rungs.iter_mut() {
            if st.stall >= STALL_ROUNDS {
                st.restarts += 1;
                restarts_total += 1;
                let seed = derive_replica_seed(
                    splitmix64_mix(st.move_seed ^ RESTART_SEED_SALT),
                    st.restarts,
                );
                let mut rng = StdRng::seed_from_u64(seed);
                st.spins = SpinVector::random(graph.num_spins(), &mut rng);
                st.energy = energy(graph, &st.spins);
                st.stall = 0;
            }
        }
    }

    // Restore each rung's best-ever snapshot, then greedy-quench it to
    // quiescence within the reserved budget (a frozen hold: downhill
    // and tie-keeping moves only).
    for st in rungs.iter_mut() {
        if st.best_energy < st.energy {
            st.energy = st.best_energy;
            st.spins = st.best_spins.clone();
        }
    }
    if quench_reserve > 0 && !base.is_cancelled() {
        let quench_temperature = ladder.freeze_threshold() * 0.5;
        let jobs: Vec<SegmentJob> = rungs
            .iter()
            .enumerate()
            .map(|(r, st)| SegmentJob {
                rung: r,
                spins: st.spins.clone(),
                opts: segment_options(
                    base,
                    quench_temperature,
                    ladder.freeze_threshold(),
                    quench_reserve,
                    derive_replica_seed(st.move_seed, rounds),
                ),
            })
            .collect();
        let results = exec(jobs);
        for (st, result) in rungs.iter_mut().zip(results) {
            st.absorb(result);
        }
    }

    let replicas_out: Vec<SolveResult> = rungs
        .into_iter()
        .map(|st| SolveResult {
            spins: st.spins,
            energy: st.energy,
            sweeps: st.sweeps,
            flips: st.flips,
            converged: st.converged,
            trace: st.trace,
            uphill_accepted: st.uphill_accepted,
            uphill_rejected: st.uphill_rejected,
            degraded: st.degraded,
        })
        .collect();
    let mut best_of = BestOf::reduce(replicas_out);
    best_of.stats.swap_attempts = swap_attempts;
    best_of.stats.swap_accepted = swap_accepted;
    best_of.stats.tempering_restarts = restarts_total;
    best_of
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::EnsembleRunner;
    use crate::graph::topology;
    use crate::solver::CpuReferenceSolver;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn frustrated_graph() -> IsingGraph {
        topology::complete(14, |i, j| ((i * 5 + j * 7) % 9) as i32 - 4).expect("valid graph")
    }

    fn tempered_opts(graph: &IsingGraph, seed: u64, kind: LadderKind) -> SolveOptions {
        let mut opts = SolveOptions::for_graph(graph, seed).with_max_sweeps(400);
        opts.tempering = Some(TemperingOptions::for_graph(kind, graph, 4));
        opts
    }

    #[test]
    fn ladder_is_ascending_with_reciprocal_betas() {
        let g = frustrated_graph();
        for kind in [LadderKind::Geometric, LadderKind::Adaptive] {
            let ladder = TemperatureLadder::for_graph(kind, &g, 5);
            assert_eq!(ladder.len(), 5);
            for r in 0..ladder.len() {
                assert!(ladder.temperature(r) >= ladder.freeze_threshold());
                assert!((ladder.beta(r) * ladder.temperature(r) - 1.0).abs() < 1e-12);
                if r > 0 {
                    assert!(ladder.temperature(r) >= ladder.temperature(r - 1));
                }
            }
        }
    }

    #[test]
    fn adaptive_ladder_tracks_coefficient_scale() {
        let small = topology::complete(8, |_, _| 1).expect("valid graph");
        let large = topology::complete(8, |_, _| 50).expect("valid graph");
        let a = TemperatureLadder::adaptive_for_graph(&small, 4);
        let b = TemperatureLadder::adaptive_for_graph(&large, 4);
        assert!(
            b.temperature(3) > a.temperature(3),
            "hot end scales with |J|"
        );
        assert!(
            b.temperature(0) > a.temperature(0),
            "cold end scales with the quantum"
        );
    }

    #[test]
    fn resampled_preserves_endpoints() {
        let ladder = TemperatureLadder::geometric(0.5, 8.0, 4, 0.05);
        let wide = ladder.resampled(7);
        assert_eq!(wide.len(), 7);
        assert!((wide.temperature(0) - 0.5).abs() < 1e-12);
        assert!((wide.temperature(6) - 8.0).abs() < 1e-12);
        assert_eq!(ladder.resampled(4), ladder);
    }

    #[test]
    fn swap_stream_is_stateless_and_salted() {
        let u = swap_unit(swap_stream_seed(9), 3, 1);
        assert_eq!(u, swap_unit(swap_stream_seed(9), 3, 1));
        assert!((0.0..1.0).contains(&u));
        assert_ne!(
            swap_unit(swap_stream_seed(9), 3, 1),
            swap_unit(swap_stream_seed(9), 4, 1)
        );
        assert_ne!(
            swap_unit(swap_stream_seed(9), 3, 1),
            swap_unit(swap_stream_seed(9), 3, 2)
        );
        // The swap seed never collides with any replica move seed.
        for k in 0..4096 {
            assert_ne!(swap_stream_seed(9), derive_replica_seed(9, k));
        }
    }

    #[test]
    fn tempered_run_is_thread_count_independent() {
        let g = frustrated_graph();
        let mut rng = StdRng::seed_from_u64(3);
        let init = SpinVector::random(14, &mut rng);
        let opts = tempered_opts(&g, 17, LadderKind::Adaptive);
        let reference = EnsembleRunner::new(4)
            .with_threads(1)
            .run_reference(&g, &init, &opts);
        for threads in [2, 3, 8] {
            let got = EnsembleRunner::new(4)
                .with_threads(threads)
                .run_reference(&g, &init, &opts);
            assert_eq!(got, reference, "threads = {threads}");
        }
        assert!(reference.stats.swap_attempts > 0);
    }

    /// The reference solver, or — when `poisoned` — a solver that
    /// panics on its first segment.
    struct MaybePoisoned {
        poisoned: bool,
    }

    impl IterativeSolver for MaybePoisoned {
        fn solve(&mut self, g: &IsingGraph, init: &SpinVector, opts: &SolveOptions) -> SolveResult {
            assert!(!self.poisoned, "poisoned rung");
            CpuReferenceSolver::new().solve(g, init, opts)
        }
    }

    #[test]
    fn a_panicking_rung_fails_the_run_instead_of_hanging_it() {
        let g = frustrated_graph();
        let init = SpinVector::filled(14, crate::spin::Spin::Up);
        let opts = tempered_opts(&g, 3, LadderKind::Geometric);
        for threads in [1, 2, 4] {
            let outcome = std::panic::catch_unwind(|| {
                EnsembleRunner::new(4)
                    .with_threads(threads)
                    .run(&g, &init, &opts, |r| MaybePoisoned { poisoned: r == 1 })
            });
            assert!(outcome.is_err(), "threads = {threads}");
        }
    }

    #[test]
    fn tempered_best_never_loses_to_its_own_rungs_and_respects_budget() {
        let g = frustrated_graph();
        let mut rng = StdRng::seed_from_u64(11);
        let init = SpinVector::random(14, &mut rng);
        let opts = tempered_opts(&g, 41, LadderKind::Adaptive);
        let best_of = EnsembleRunner::new(4).run_reference(&g, &init, &opts);
        let best = best_of.best().energy;
        for r in &best_of.replicas {
            assert!(r.energy >= best);
            assert!(
                r.sweeps <= 400,
                "rung exceeded the sweep budget: {}",
                r.sweeps
            );
        }
        assert_eq!(best_of.stats.replicas, 4);
        assert_eq!(
            best_of.stats.total_sweeps,
            best_of.replicas.iter().map(|r| r.sweeps).sum::<u64>()
        );
    }

    #[test]
    fn quench_polishes_to_a_local_minimum() {
        use crate::hamiltonian::flip_delta;
        let g = frustrated_graph();
        let mut rng = StdRng::seed_from_u64(13);
        let init = SpinVector::random(14, &mut rng);
        let opts = tempered_opts(&g, 47, LadderKind::Geometric);
        let best_of = EnsembleRunner::new(4).run_reference(&g, &init, &opts);
        let best = best_of.best();
        assert!(best.converged, "quench should reach quiescence");
        // No single flip improves the quenched state.
        for i in 0..g.num_spins() {
            let delta = flip_delta(&g, &best.spins, i);
            assert!(delta >= 0, "spin {i} has a downhill flip left");
        }
    }

    #[test]
    fn restart_policy_reseeds_stalled_rungs() {
        // A stiff complete-graph ferromagnet started in its ground
        // state: any flip costs 2·8·1000 energy, so at the cold rung
        // (T = 0.5) the Metropolis acceptance underflows to exactly 0
        // and no field is ever zero — the cold rung makes zero flips
        // every segment and the stall counter must fire.
        let g = topology::complete(9, |_, _| 1000).expect("valid graph");
        let init = SpinVector::filled(9, crate::spin::Spin::Up);
        let mut opts = SolveOptions::for_graph(&g, 3).with_max_sweeps(600);
        opts.tempering = Some(TemperingOptions::for_graph(LadderKind::Geometric, &g, 3));
        let with_restarts = EnsembleRunner::new(3).run_reference(&g, &init, &opts);
        assert!(with_restarts.stats.tempering_restarts > 0);
        // Reseeding never loses the best-ever state: the ground state
        // seen at round 0 must survive to the verdict.
        assert_eq!(
            with_restarts.best().energy,
            energy(&g, &init),
            "restart discarded the best-ever snapshot"
        );
    }
}
