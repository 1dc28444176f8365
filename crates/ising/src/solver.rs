//! The iterative solve protocol and the golden-model CPU solver.
//!
//! Every Ising machine in this workspace — the four SACHI stationarity
//! designs, BRIM, and Ising-CIM — executes the *same* algorithm: sweep the
//! spins, update each by the sign rule (eqn. 3), and let the shared
//! annealer block propose Metropolis uphill flips. The paper leans on this
//! ("the number of iterations across SACHI designs is the same, as they all
//! arrive at the same H at the end of each iteration"), and we enforce it:
//! the per-spin decision lives in [`decide_update`], and the protocol
//! around it — sweep cap, cancellation, counters, the running energy and
//! its trace, convergence and the [`SolveResult`] — lives in
//! [`run_sweeps`], which every machine calls with only its per-sweep
//! body. The protocol is shared by construction; integration tests check
//! the bodies by asserting that every machine's H trajectory equals
//! [`CpuReferenceSolver`]'s.
//!
//! Update visibility is *sequential within a sweep* (an updated spin is
//! seen by later spins of the same sweep). In SACHI hardware this is the
//! storage-array-based update of Fig. 8b: each computed spin is written to
//! the storage array and propagated to the relevant tuples via the
//! adjacency matrix, so tuples computed later in the sweep observe it.

use crate::anneal::{Annealer, Schedule};
use crate::graph::IsingGraph;
use crate::hamiltonian::{energy, flip_cost, local_field};
use crate::spin::{Spin, SpinVector};
use crate::tempering::TemperingOptions;
use rand::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared job-level cancellation flag, checked by [`run_sweeps`] (and
/// so by every solver) before every sweep.
///
/// Cancellation is a *control-plane* mechanism for long-lived hosts
/// (the `sachi serve` daemon): when the flag is raised mid-solve the
/// solver stops after the sweep it is on and returns the partial state
/// with `converged = false`. A cancelled result therefore depends on
/// *when* the flag was raised — it is advisory, and hosts that promise
/// deterministic output must discard it (the daemon responds with a
/// typed error instead). A token that is never cancelled is provably
/// inert: the solvers read it once per sweep and never write it, so
/// installing a token changes nothing about an uncancelled run.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the flag. Every solver sharing this token stops at its
    /// next sweep boundary. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Options controlling an iterative solve.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Hard cap on sweeps (Hamiltonian iterations).
    pub max_sweeps: u64,
    /// Annealing schedule.
    pub schedule: Schedule,
    /// RNG seed for the annealer block.
    pub seed: u64,
    /// Record the post-sweep energy trace (Fig. 19a).
    pub record_trace: bool,
    /// Optional hard budget on per-spin update *steps* (a timeout guard
    /// expressed in work, not wall-clock, so it stays deterministic).
    /// `None` leaves `max_sweeps` as the only cap.
    pub step_budget: Option<u64>,
    /// Optional job-level cancellation hook, shared across the replicas
    /// of one job. `None` (the default) is equivalent to a token that
    /// is never cancelled.
    pub cancel: Option<CancelToken>,
    /// Optional replica-exchange (parallel tempering) configuration.
    /// Read by [`crate::ensemble::EnsembleRunner`] only — individual
    /// solvers ignore it, and `None` (the default) is the plain
    /// independent-replica ensemble.
    pub tempering: Option<TemperingOptions>,
}

impl SolveOptions {
    /// Options matched to a graph's coefficient range.
    pub fn for_graph(graph: &IsingGraph, seed: u64) -> Self {
        SolveOptions {
            max_sweeps: 10_000,
            schedule: Schedule::for_coefficient_range(graph.max_abs_coefficient()),
            seed,
            record_trace: false,
            step_budget: None,
            cancel: None,
            tempering: None,
        }
    }

    /// Enables trace recording.
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Sets the sweep cap.
    #[must_use]
    pub fn with_max_sweeps(mut self, max_sweeps: u64) -> Self {
        self.max_sweeps = max_sweeps;
        self
    }

    /// Sets the step budget (per-spin updates across all sweeps).
    #[must_use]
    pub fn with_step_budget(mut self, steps: u64) -> Self {
        self.step_budget = Some(steps);
        self
    }

    /// Installs a job-level cancellation token (see [`CancelToken`]).
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Enables replica-exchange parallel tempering for ensemble runs
    /// (see [`TemperingOptions`]).
    #[must_use]
    pub fn with_tempering(mut self, tempering: TemperingOptions) -> Self {
        self.tempering = Some(tempering);
        self
    }

    /// True when a token is installed and has been cancelled. Solvers
    /// check this once per sweep and stop early with `converged =
    /// false`; with no token installed it is always false.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// The sweep cap after applying the step budget for a problem of
    /// `num_spins` spins: `min(max_sweeps, max(1, budget / num_spins))`.
    /// Every solver derives its loop bound from this, so a budgeted run
    /// is the same function on every machine and the conformance suites
    /// keep holding with a budget set.
    pub fn effective_max_sweeps(&self, num_spins: usize) -> u64 {
        match self.step_budget {
            None => self.max_sweeps,
            Some(budget) => {
                let spins = u64::try_from(num_spins.max(1)).unwrap_or(u64::MAX);
                self.max_sweeps.min((budget / spins).max(1))
            }
        }
    }
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            max_sweeps: 10_000,
            schedule: Schedule::default(),
            seed: 0,
            record_trace: false,
            step_budget: None,
            cancel: None,
            tempering: None,
        }
    }
}

/// Outcome of an iterative solve.
///
/// Equality is byte-for-byte over every field — the determinism and
/// conformance suites compare whole results across thread counts and
/// machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveResult {
    /// Final spin configuration.
    pub spins: SpinVector,
    /// Final Hamiltonian energy.
    pub energy: i64,
    /// Sweeps executed (the paper's "iterations").
    pub sweeps: u64,
    /// Total spin flips applied.
    pub flips: u64,
    /// True if the solve reached the converged state (no flips in a full
    /// sweep with the annealer frozen) before `max_sweeps`.
    pub converged: bool,
    /// Post-sweep energies, if requested.
    pub trace: Vec<i64>,
    /// Metropolis uphill moves the annealer block accepted.
    pub uphill_accepted: u64,
    /// Metropolis uphill moves the annealer block rejected.
    pub uphill_rejected: u64,
    /// True if the machine hit its fault-recovery budget (or a fail-fast
    /// abort) and the result may be corrupted. Degraded replicas lose
    /// `BestOf` ties to healthy ones.
    pub degraded: bool,
}

impl SolveResult {
    /// Exports the algorithmic outcome into `reg` under the `solver_`
    /// prefix. Counters only — the final energy is a signed quantity
    /// and goes out as a gauge.
    pub fn export_metrics(&self, reg: &mut sachi_obs::MetricsRegistry) {
        reg.counter_add("solver_sweeps", self.sweeps);
        reg.counter_add("solver_flips", self.flips);
        reg.counter_add("solver_uphill_accepted", self.uphill_accepted);
        reg.counter_add("solver_uphill_rejected", self.uphill_rejected);
        reg.counter_add("solver_converged_replicas", u64::from(self.converged));
        reg.counter_add("solver_degraded_replicas", u64::from(self.degraded));
        reg.observe("solver_replica_flips", self.flips);
    }
}

/// The per-spin decision shared by every machine: deterministic sign update
/// (eqn. 3) plus a Metropolis proposal when the deterministic rule keeps
/// the spin.
///
/// Zero-cost flips (`H_σ = 0` ties) are accepted with probability 1/2
/// while the annealer is live — the standard Metropolis treatment.
/// Without it, domain walls (whose motion is a ΔH = 0 move) cannot
/// diffuse and cyclic instances freeze two walls apart from the optimum.
/// Once the annealer freezes, ties keep the current value so sweeps can
/// reach quiescence and the convergence detector can fire.
///
/// The rule branches once on the flip's cost ΔH = [`flip_cost`]`(σ, H_σ)`:
/// a downhill flip (ΔH < 0) is exactly the case where the sign rule
/// disagrees with σ, so it flips; otherwise a frozen annealer keeps the
/// spin, a tie draws the coin and an uphill move compares one draw with
/// the annealer's memoised threshold. The draws, their order and the
/// uphill counters are those of the sign rule followed by the proposal.
///
/// Returns the new spin value. Machines presenting the same `h_sigma`
/// sequence to the same-seeded annealer make identical decisions.
#[inline]
pub fn decide_update(current: Spin, h_sigma: i64, annealer: &mut Annealer) -> Spin {
    let delta = flip_cost(current, h_sigma);
    let flip = if delta < 0 {
        true
    } else if annealer.is_frozen() {
        false
    } else if delta == 0 {
        // Tie: heat-bath coin flip.
        annealer.rng().gen::<bool>()
    } else {
        annealer.accept_live_uphill(delta)
    };
    if flip {
        current.flipped()
    } else {
        current
    }
}

/// What one sweep body reports to [`run_sweeps`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOutcome {
    /// The energy change of every flip the body applied to the spins,
    /// each priced by [`flip_cost`] — an aborted sweep's partial flips
    /// included, since they stay in the spins.
    pub delta: i64,
    /// The sweep's flip count, or `None` when the body aborted the solve
    /// mid-sweep.
    pub flips: Option<u64>,
}

/// Runs the iterative solve protocol around one machine's per-sweep body.
///
/// The driver owns everything that is not architecture: the spin state
/// (a copy of `initial`), the [`Annealer`] built from the options'
/// schedule and seed, the [`SolveOptions::effective_max_sweeps`] cap, a
/// cancel check before every sweep, the sweep and flip counters, the
/// running energy and its trace, the convergence rule (no flips in a
/// sweep that started with the annealer frozen) and the [`SolveResult`],
/// which it returns with `degraded: false`.
///
/// `h_start` is H of `initial`. The driver carries H from there by each
/// sweep's reported ΔH, so a solve costs its sweeps and nothing O(E) on
/// top: the trace records the running H, and the result's `energy` is
/// its final value. Debug builds check the running H against [`energy`]
/// at the start and after every sweep, an aborted one included.
///
/// `sweep(index, spins, annealer)` runs sweep `index` (counting from 0)
/// in place and returns a [`SweepOutcome`]. An outcome without a flip
/// count aborts the solve without counting the sweep: a fail-fast fault
/// abort books the partial sweep's costs, but it is not a completed
/// iteration.
///
/// # Panics
///
/// Panics if `initial` does not match the graph's size.
pub fn run_sweeps<F>(
    graph: &IsingGraph,
    initial: &SpinVector,
    h_start: i64,
    options: &SolveOptions,
    mut sweep: F,
) -> SolveResult
where
    F: FnMut(u64, &mut SpinVector, &mut Annealer) -> SweepOutcome,
{
    assert_eq!(
        initial.len(),
        graph.num_spins(),
        "initial spins must match graph size"
    );
    debug_assert_eq!(
        h_start,
        energy(graph, initial),
        "h_start is not H of initial"
    );
    let mut spins = initial.clone();
    let mut h = h_start;
    let mut annealer = Annealer::new(options.schedule, options.seed);
    let mut trace = Vec::new();
    let mut total_flips = 0u64;
    let mut sweeps = 0u64;
    let mut converged = false;

    let max_sweeps = options.effective_max_sweeps(graph.num_spins());
    while sweeps < max_sweeps && !options.is_cancelled() {
        let outcome = sweep(sweeps, &mut spins, &mut annealer);
        h += outcome.delta;
        debug_assert_eq!(h, energy(graph, &spins), "sweep {sweeps} misreported ΔH");
        let Some(flips_this_sweep) = outcome.flips else {
            break;
        };
        sweeps += 1;
        total_flips += flips_this_sweep;
        if options.record_trace {
            trace.push(h);
        }
        let frozen = annealer.is_frozen();
        annealer.cool();
        if flips_this_sweep == 0 && frozen {
            converged = true;
            break;
        }
    }

    SolveResult {
        energy: h,
        spins,
        sweeps,
        flips: total_flips,
        converged,
        trace,
        uphill_accepted: annealer.uphill_accepted(),
        uphill_rejected: annealer.uphill_rejected(),
        degraded: false,
    }
}

/// An iterative Ising machine: anything that can run the solve protocol.
pub trait IterativeSolver {
    /// Runs the solve from `initial` and returns the outcome.
    fn solve(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> SolveResult;
}

/// Golden-model software solver: the exact protocol with none of the
/// hardware modeling. Architecture simulators must match its output
/// bit-for-bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuReferenceSolver;

impl CpuReferenceSolver {
    /// Creates the solver.
    pub fn new() -> Self {
        CpuReferenceSolver
    }
}

impl IterativeSolver for CpuReferenceSolver {
    fn solve(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> SolveResult {
        let h_start = energy(graph, initial);
        run_sweeps(graph, initial, h_start, options, |_, spins, annealer| {
            let (mut flips, mut delta) = (0u64, 0i64);
            for i in 0..graph.num_spins() {
                let h_sigma = local_field(graph, spins, i);
                let current = spins.get(i);
                let new = decide_update(current, h_sigma, annealer);
                if new != current {
                    spins.set(i, new);
                    flips += 1;
                    delta += flip_cost(current, h_sigma);
                }
            }
            SweepOutcome {
                delta,
                flips: Some(flips),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{topology, GraphBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ferromagnet_reaches_ground_state() {
        // King's graph, all J = +1: ground state is all spins aligned.
        let g = topology::king(6, 6, |_, _| 1).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let init = SpinVector::random(36, &mut rng);
        let mut solver = CpuReferenceSolver::new();
        let opts = SolveOptions::for_graph(&g, 7);
        let result = solver.solve(&g, &init, &opts);
        assert!(
            result.converged,
            "did not converge in {} sweeps",
            result.sweeps
        );
        let ups = result.spins.count_up();
        assert!(ups == 0 || ups == 36, "not aligned: {ups} up");
        assert_eq!(result.energy, -(g.num_edges() as i64));
    }

    #[test]
    fn antiferromagnetic_pair_settles() {
        let g = GraphBuilder::new(2).edge(0, 1, -7).build().unwrap();
        let init = SpinVector::from_spins(&[Spin::Up, Spin::Up]);
        let mut solver = CpuReferenceSolver::new();
        let result = solver.solve(&g, &init, &SolveOptions::for_graph(&g, 3));
        assert_eq!(result.energy, -7);
        assert_ne!(result.spins.get(0), result.spins.get(1));
        assert!(result.converged);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = topology::complete(12, |i, j| ((i * 3 + j * 5) % 11) as i32 - 5).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let init = SpinVector::random(12, &mut rng);
        let mut solver = CpuReferenceSolver::new();
        let opts = SolveOptions::for_graph(&g, 99).with_trace();
        let a = solver.solve(&g, &init, &opts);
        let b = solver.solve(&g, &init, &opts);
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.spins, b.spins);
        assert_eq!(a.sweeps, b.sweeps);
    }

    #[test]
    fn trace_records_every_sweep_and_ends_low() {
        let g = topology::grid4(5, 5, |_, _| 2).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let init = SpinVector::random(25, &mut rng);
        let mut solver = CpuReferenceSolver::new();
        let result = solver.solve(&g, &init, &SolveOptions::for_graph(&g, 5).with_trace());
        assert_eq!(result.trace.len() as u64, result.sweeps);
        assert_eq!(*result.trace.last().unwrap(), result.energy);
        // The trace's final value is its minimum (greedy tail).
        assert_eq!(result.trace.iter().min(), result.trace.last());
    }

    #[test]
    fn max_sweeps_caps_work() {
        let g = topology::complete(20, |i, j| if (i + j) % 2 == 0 { 3 } else { -3 }).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let init = SpinVector::random(20, &mut rng);
        let mut solver = CpuReferenceSolver::new();
        let opts = SolveOptions {
            max_sweeps: 2,
            ..SolveOptions::for_graph(&g, 1)
        };
        let result = solver.solve(&g, &init, &opts);
        assert_eq!(result.sweeps, 2);
        assert!(!result.converged);
    }

    #[test]
    fn step_budget_caps_sweeps() {
        let g = topology::complete(20, |i, j| if (i + j) % 2 == 0 { 3 } else { -3 }).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let init = SpinVector::random(20, &mut rng);
        let mut solver = CpuReferenceSolver::new();
        // 100 steps over 20 spins => 5 sweeps.
        let opts = SolveOptions::for_graph(&g, 1).with_step_budget(100);
        assert_eq!(opts.effective_max_sweeps(20), 5);
        let result = solver.solve(&g, &init, &opts);
        assert!(result.sweeps <= 5);
        // A budget smaller than one sweep still allows a single sweep.
        assert_eq!(opts.clone().with_step_budget(3).effective_max_sweeps(20), 1);
        // max_sweeps stays the binding cap when it is tighter.
        let tight = opts.with_max_sweeps(2);
        assert_eq!(tight.effective_max_sweeps(20), 2);
        // No budget: unchanged.
        assert_eq!(
            SolveOptions::for_graph(&g, 1).effective_max_sweeps(20),
            10_000
        );
        // Degenerate zero-spin problems never divide by zero.
        assert_eq!(tight.effective_max_sweeps(0), 2);
    }

    #[test]
    fn pre_cancelled_token_stops_before_the_first_sweep() {
        let g = topology::complete(20, |i, j| if (i + j) % 2 == 0 { 3 } else { -3 }).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let init = SpinVector::random(20, &mut rng);
        let mut solver = CpuReferenceSolver::new();
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        token.cancel();
        let opts = SolveOptions::for_graph(&g, 1).with_cancel(token);
        assert!(opts.is_cancelled());
        let result = solver.solve(&g, &init, &opts);
        assert_eq!(result.sweeps, 0);
        assert!(!result.converged);
        // The partial state is still a coherent result: the energy
        // matches the untouched initial spins.
        assert_eq!(result.spins, init);
        assert_eq!(result.energy, energy(&g, &init));
    }

    #[test]
    fn uncancelled_token_is_unobservable() {
        let g = topology::complete(16, |i, j| if (i * j) % 3 == 0 { 2 } else { -1 }).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let init = SpinVector::random(16, &mut rng);
        let mut solver = CpuReferenceSolver::new();
        let bare = solver.solve(&g, &init, &SolveOptions::for_graph(&g, 7));
        let tokened = solver.solve(
            &g,
            &init,
            &SolveOptions::for_graph(&g, 7).with_cancel(CancelToken::new()),
        );
        assert_eq!(bare, tokened);
    }

    #[test]
    fn decide_update_follows_sign_rule() {
        let mut a = Annealer::new(Schedule::default(), 0);
        a.freeze();
        assert_eq!(decide_update(Spin::Up, 5, &mut a), Spin::Down);
        assert_eq!(decide_update(Spin::Down, -5, &mut a), Spin::Up);
        // Frozen annealer cannot flip an already-optimal spin.
        assert_eq!(decide_update(Spin::Up, -5, &mut a), Spin::Up);
        assert_eq!(decide_update(Spin::Down, 0, &mut a), Spin::Down);
    }

    #[test]
    fn annealing_escapes_local_minimum_more_often_than_greedy() {
        // A frustrated instance where greedy from a bad start gets stuck:
        // two triangles sharing an edge with mixed signs.
        let g = GraphBuilder::new(4)
            .edge(0, 1, 3)
            .edge(1, 2, 3)
            .edge(0, 2, -3)
            .edge(2, 3, 3)
            .edge(1, 3, -3)
            .build()
            .unwrap();
        let init = SpinVector::from_spins(&[Spin::Up, Spin::Down, Spin::Up, Spin::Down]);
        let mut solver = CpuReferenceSolver::new();
        // Exhaustive ground-state search over 16 configurations.
        let mut best = i64::MAX;
        for mask in 0..16u32 {
            let s: SpinVector = (0..4)
                .map(|b| Spin::from_bit((mask >> b) & 1 == 1))
                .collect();
            best = best.min(energy(&g, &s));
        }
        let hits = (0..20)
            .filter(|&seed| {
                let r = solver.solve(&g, &init, &SolveOptions::for_graph(&g, seed));
                r.energy == best
            })
            .count();
        assert!(
            hits >= 12,
            "annealing found ground state only {hits}/20 times"
        );
    }

    #[test]
    fn empty_graph_converges_immediately() {
        let g = GraphBuilder::new(4).build().unwrap();
        let init = SpinVector::filled(4, Spin::Up);
        let mut solver = CpuReferenceSolver::new();
        let mut opts = SolveOptions::for_graph(&g, 0);
        opts.schedule = Schedule::fast();
        let result = solver.solve(&g, &init, &opts);
        assert!(result.converged);
        assert_eq!(result.energy, 0);
        // Isolated spins sit on H_σ = 0 ties: the live annealer coin-flips
        // them, so flips may be non-zero, but quiescence follows freezing.
    }
}
