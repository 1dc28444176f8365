//! Differential check of the annealer's probability memo against the
//! formula it caches.
//!
//! `Annealer::accept` reads the acceptance probability from a
//! direct-mapped memo keyed on `(ΔH, temperature)`. The reference here
//! is the exp-per-decision Metropolis rule: one `gen::<f64>()` per live
//! uphill proposal, compared with `acceptance_probability(delta)`. The
//! reference runs on a second annealer built from the same schedule and
//! seed, touching only its RNG, its temperature and the formula, and
//! keeps its own uphill counters. Both sides must agree on every
//! decision, every counter and the next RNG draw.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sachi::prelude::*;

/// Direct-mapped slots in the memo (`delta >> 1` indexes it): ΔH values
/// `d` and `d + 2·SLOTS` share a slot.
const SLOTS: i64 = 256;

/// The exp-per-decision Metropolis rule, with its own counters.
#[derive(Clone)]
struct Reference {
    annealer: Annealer,
    accepted: u64,
    rejected: u64,
}

impl Reference {
    fn new(schedule: Schedule, seed: u64) -> Self {
        Reference {
            annealer: Annealer::new(schedule, seed),
            accepted: 0,
            rejected: 0,
        }
    }

    fn accept(&mut self, delta: i64) -> bool {
        if delta <= 0 {
            return true;
        }
        if self.annealer.is_frozen() {
            self.rejected += 1;
            return false;
        }
        let draw = self.annealer.rng().gen::<f64>();
        let accepted = draw < self.annealer.acceptance_probability(delta);
        if accepted {
            self.accepted += 1;
        } else {
            self.rejected += 1;
        }
        accepted
    }

    /// `decide_update` as written before the memo: sign rule, then a
    /// coin flip on a tie or the Metropolis rule on an uphill move while
    /// the annealer is live.
    fn decide(&mut self, current: Spin, h_sigma: i64) -> Spin {
        let desired = update_rule(h_sigma, current);
        if desired != current {
            return desired;
        }
        let delta = -2 * current.value() * h_sigma;
        if !self.annealer.is_frozen() {
            if delta == 0 {
                if self.annealer.rng().gen::<bool>() {
                    return current.flipped();
                }
            } else if self.accept(delta) {
                return current.flipped();
            }
        }
        current
    }

    fn cool(&mut self) {
        self.annealer.cool();
    }

    fn freeze(&mut self) {
        self.annealer.freeze();
    }
}

/// One ΔH drawn from a mix that stresses the memo: small even values,
/// slot collisions, odd values (reachable only through the public
/// `accept`), huge values up to `i64::MAX`, and ΔH ≤ 0.
fn delta(rng: &mut StdRng) -> i64 {
    match rng.gen_range(0..8u32) {
        0 | 1 => 2 * rng.gen_range(1..=24i64),
        2 => 2 * rng.gen_range(1..=8i64) + 2 * SLOTS * rng.gen_range(0..=3i64),
        3 => 2 * rng.gen_range(0..=12i64) + 1,
        4 => i64::MAX - rng.gen_range(0..=2 * SLOTS),
        5 => rng.gen_range(1..=1i64 << 20),
        6 => -rng.gen_range(0..=40i64),
        _ => *[0, -1, i64::MIN, i64::MIN + 1]
            .get(rng.gen_range(0..4usize))
            .expect("index in range"),
    }
}

/// The schedules the memo must serve: geometric cooling, a hold at and
/// above the freeze threshold, and a hold below it (frozen from the
/// start).
fn schedules() -> [(&'static str, Schedule); 4] {
    [
        ("geometric", Schedule::new(40.0, 0.85, 0.05)),
        ("hold at threshold", Schedule::constant(0.05, 0.05)),
        ("hold above threshold", Schedule::constant(3.0, 0.05)),
        ("hold below threshold", Schedule::constant(0.01, 0.05)),
    ]
}

fn assert_agree(label: &str, step: usize, memo: &Annealer, reference: &Reference) {
    assert_eq!(
        (memo.uphill_accepted(), memo.uphill_rejected()),
        (reference.accepted, reference.rejected),
        "{label}, step {step}: uphill counters"
    );
    assert_eq!(
        memo.temperature().to_bits(),
        reference.annealer.temperature().to_bits(),
        "{label}, step {step}: temperature"
    );
}

/// Runs `steps` proposals through `accept` on both sides, cooling every
/// `sweep` steps and freezing at `freeze_at`, and checks the memoised
/// probability bit for bit after every decision.
fn drive(
    label: &str,
    memo: &mut Annealer,
    reference: &mut Reference,
    stream: &mut StdRng,
    steps: std::ops::Range<usize>,
    sweep: usize,
    freeze_at: usize,
) {
    for step in steps {
        if step > 0 && step % sweep == 0 {
            memo.cool();
            reference.cool();
        }
        if step == freeze_at {
            memo.freeze();
            reference.freeze();
        }
        let d = delta(stream);
        assert_eq!(
            memo.accept(d),
            reference.accept(d),
            "{label}, step {step}: decision on ΔH = {d}"
        );
        assert_eq!(
            memo.probability(d).to_bits(),
            reference.annealer.acceptance_probability(d).to_bits(),
            "{label}, step {step}: probability of ΔH = {d}"
        );
        assert_agree(label, step, memo, reference);
    }
}

#[test]
fn memoised_accept_matches_the_formula_draw_for_draw() {
    const STEPS: usize = 6_000;
    for (name, schedule) in schedules() {
        for seed in [1u64, 7, 0xdead_beef] {
            let label = format!("{name}, seed {seed}");
            let mut memo = Annealer::new(schedule, seed);
            let mut reference = Reference::new(schedule, seed);
            let mut stream = StdRng::seed_from_u64(seed ^ 0x5eed);
            // Sweeps of 100 proposals; the geometric schedule freezes on
            // its own after ~41 sweeps, the holds only at the explicit
            // `freeze()` near the end.
            let (sweep, freeze_at) = (100, STEPS - 500);
            drive(
                &label,
                &mut memo,
                &mut reference,
                &mut stream,
                0..STEPS / 2,
                sweep,
                freeze_at,
            );

            // Clone both sides mid-stream: the clone carries the filled
            // memo and must continue exactly as the original does.
            let mut memo_clone = memo.clone();
            let mut reference_clone = reference.clone();
            let mut stream_clone = stream.clone();
            drive(
                &label,
                &mut memo,
                &mut reference,
                &mut stream,
                STEPS / 2..STEPS,
                sweep,
                freeze_at,
            );
            drive(
                &format!("{label} (clone)"),
                &mut memo_clone,
                &mut reference_clone,
                &mut stream_clone,
                STEPS / 2..STEPS,
                sweep,
                freeze_at,
            );
            assert_eq!(
                (memo.uphill_accepted(), memo.uphill_rejected()),
                (memo_clone.uphill_accepted(), memo_clone.uphill_rejected()),
                "{label}: clone counters"
            );

            for (side, memo, reference) in [
                ("original", &mut memo, &mut reference),
                ("clone", &mut memo_clone, &mut reference_clone),
            ] {
                assert_eq!(
                    memo.rng().gen::<u64>(),
                    reference.annealer.rng().gen::<u64>(),
                    "{label} ({side}): next RNG draw"
                );
            }
        }
    }
}

#[test]
fn decide_update_matches_the_exp_per_decision_rule() {
    for (name, schedule) in schedules() {
        let seed = 3;
        let mut memo = Annealer::new(schedule, seed);
        let mut reference = Reference::new(schedule, seed);
        let mut stream = StdRng::seed_from_u64(11);
        let mut spin = Spin::Up;
        for step in 0..8_000usize {
            if step > 0 && step % 64 == 0 {
                memo.cool();
                reference.cool();
            }
            if step == 7_500 {
                memo.freeze();
                reference.freeze();
            }
            // Local fields on a King's-lattice scale (|H| ≤ 8·4), with
            // the occasional tie and the occasional huge field.
            let h = match stream.gen_range(0..10u32) {
                0 => 0,
                1 => stream.gen_range(-(1i64 << 40)..=1i64 << 40),
                _ => stream.gen_range(-32..=32i64),
            };
            let next = decide_update(spin, h, &mut memo);
            assert_eq!(
                next,
                reference.decide(spin, h),
                "{name}, step {step}: decision on H = {h}"
            );
            assert_agree(name, step, &memo, &reference);
            spin = next;
        }
        assert_eq!(
            memo.rng().gen::<u64>(),
            reference.annealer.rng().gen::<u64>(),
            "{name}: next RNG draw"
        );
    }
}

/// The CMOS annealer injects its random bits with
/// `Annealer::probability`, the memoised path. Its trajectory, uphill
/// step included, is pinned to the one the exp-per-call formula gave.
#[test]
fn cmos_annealer_trajectory_is_pinned() {
    let w = MolecularDynamics::with_resolution(10, 10, 13, 2);
    let graph = w.graph();
    let init = SpinVector::random(graph.num_spins(), &mut StdRng::seed_from_u64(8));
    let mut opts = SolveOptions::for_graph(graph, 8);
    opts.record_trace = true;
    let (result, price) = CmosAnnealer::new(10)
        .solve_detailed(graph, &init, &opts)
        .expect("2-bit MD is in the chip's envelope");
    let mut trace = vec![-192, -246, -286, -304, -308];
    trace.extend([-316; 8]);
    trace.push(-314);
    trace.extend([-316; 23]);
    assert_eq!(result.trace, trace);
    assert_eq!((result.energy, result.sweeps, result.flips), (-316, 37, 78));
    assert_eq!(price.cycles.get(), 299);
}
