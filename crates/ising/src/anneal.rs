//! Simulated annealing: geometric cooling schedule and the Metropolis
//! acceptance criterion.
//!
//! The paper implements annealing "by probabilistically flipping based on
//! the Metropolis acceptance criterion, comparing likelihood against a
//! predefined value within the annealer block" (Sec. VI.6). The annealer is
//! a small digital block shared by every design, so the *same* schedule and
//! RNG stream must drive every machine for their H trajectories to agree.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// How the temperature descends between sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cooling {
    /// Multiply by a factor in `(0, 1)` each sweep.
    Geometric(f64),
    /// Hold the temperature constant (a parallel-tempering rung; never
    /// descends on its own).
    Hold,
}

/// Cooling schedule: geometric (the paper's) or a constant hold.
///
/// Temperature starts at `initial_temperature` and descends after every
/// sweep until it falls below `freeze_threshold`, after which the
/// annealer stops proposing uphill flips.
///
/// ```
/// use sachi_ising::anneal::Schedule;
///
/// let s = Schedule::new(8.0, 0.5, 0.1);
/// let temps: Vec<f64> = s.temperatures().take(4).collect();
/// assert_eq!(temps, vec![8.0, 4.0, 2.0, 1.0]);
/// assert_eq!(s.sweeps_until_frozen(), 7); // 8 * 0.5^7 = 0.0625 < 0.1
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    initial_temperature: f64,
    cooling: Cooling,
    freeze_threshold: f64,
}

impl Schedule {
    /// Creates a geometric schedule (the paper's Metropolis annealer).
    ///
    /// # Panics
    ///
    /// Panics unless `initial_temperature > 0`, `0 < cooling_factor < 1`,
    /// and `freeze_threshold > 0`.
    pub fn new(initial_temperature: f64, cooling_factor: f64, freeze_threshold: f64) -> Self {
        assert!(
            initial_temperature > 0.0,
            "initial temperature must be positive"
        );
        assert!(
            (0.0..1.0).contains(&cooling_factor) && cooling_factor > 0.0,
            "cooling factor must be in (0, 1)"
        );
        assert!(freeze_threshold > 0.0, "freeze threshold must be positive");
        Schedule {
            initial_temperature,
            cooling: Cooling::Geometric(cooling_factor),
            freeze_threshold,
        }
    }

    /// A schedule suited to coefficients of magnitude `max_abs` (start hot
    /// enough to flip against the strongest bond).
    pub fn for_coefficient_range(max_abs: i64) -> Self {
        let t0 = (2.0 * max_abs.max(1) as f64).max(1.0);
        Schedule::new(t0, 0.9, 0.05)
    }

    /// Creates a constant-temperature schedule (a parallel-tempering
    /// rung). A hold *at or above* `freeze_threshold` never freezes; a
    /// hold *below* it is a greedy-descent rung (frozen from sweep 0).
    ///
    /// # Panics
    ///
    /// Panics unless `temperature > 0` and `freeze_threshold > 0`.
    pub fn constant(temperature: f64, freeze_threshold: f64) -> Self {
        assert!(temperature > 0.0, "hold temperature must be positive");
        assert!(freeze_threshold > 0.0, "freeze threshold must be positive");
        Schedule {
            initial_temperature: temperature,
            cooling: Cooling::Hold,
            freeze_threshold,
        }
    }

    /// Quick schedule for unit tests (few sweeps).
    pub fn fast() -> Self {
        Schedule::new(2.0, 0.5, 0.5)
    }

    /// Starting temperature.
    pub fn initial_temperature(&self) -> f64 {
        self.initial_temperature
    }

    /// The cooling rule.
    pub fn cooling(&self) -> Cooling {
        self.cooling
    }

    /// Applies one cooling step to a temperature.
    pub fn cool_once(&self, temperature: f64) -> f64 {
        match self.cooling {
            Cooling::Geometric(f) => temperature * f,
            Cooling::Hold => temperature,
        }
    }

    /// Temperature below which the annealer stops.
    pub fn freeze_threshold(&self) -> f64 {
        self.freeze_threshold
    }

    /// Iterator over the temperature sequence (unbounded; pair with
    /// [`Schedule::sweeps_until_frozen`]).
    pub fn temperatures(&self) -> impl Iterator<Item = f64> {
        let schedule = *self;
        let mut t = self.initial_temperature;
        std::iter::from_fn(move || {
            let current = t;
            t = schedule.cool_once(t);
            Some(current)
        })
    }

    /// Number of sweeps until the temperature drops below the freeze
    /// threshold. A [`Cooling::Hold`] schedule at or above the threshold
    /// never freezes and reports `u64::MAX` (the `while t >= threshold`
    /// loop below would otherwise never terminate); a hold below it is
    /// frozen from sweep 0.
    pub fn sweeps_until_frozen(&self) -> u64 {
        if matches!(self.cooling, Cooling::Hold) {
            return if self.initial_temperature >= self.freeze_threshold {
                u64::MAX
            } else {
                0
            };
        }
        let mut t = self.initial_temperature;
        let mut sweeps = 0;
        while t >= self.freeze_threshold {
            t = self.cool_once(t);
            sweeps += 1;
        }
        sweeps
    }
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule::new(10.0, 0.95, 0.05)
    }
}

/// Slots in the annealer's probability memo. Indexed by `delta >> 1`:
/// a spin flip's ΔH = −2σH is always even, so consecutive uphill moves
/// (2, 4, …, 512) land in distinct slots.
const MEMO_SLOTS: usize = 256;

/// One memo entry: the threshold `p·2⁵³` an uphill draw's 53 bits are
/// compared against, for the acceptance probability `p` of `delta` at
/// the temperature of `epoch`. The scaling by a power of two is exact,
/// so `threshold·2⁻⁵³` gives `p` back bit for bit. `delta == 0` marks an
/// empty slot; only `delta > 0` is ever looked up. Padded to 32 bytes,
/// so a slot never straddles a cache line and the index scales by a
/// shift: unpadded 24-byte slots read about 6% slower on the sched 16
/// stream of `perf_kernels`' `decide_update` leg.
#[derive(Clone, Copy)]
#[repr(align(32))]
struct MemoSlot {
    delta: i64,
    epoch: u64,
    threshold: f64,
}

/// A direct-mapped cache of [`Annealer::acceptance_probability`] keyed
/// on `(delta, epoch)`, where the epoch counts the temperature changes:
/// the "predefined value" the paper's annealer compares against
/// (Sec. VI.6), filled on first use instead of by an `exp` per
/// proposal, and held as the threshold the draw's 53 bits are compared
/// with. Cooling or freezing invalidates every slot in O(1) by moving
/// the epoch; a held rung keeps its slots. Fixed size, allocated once
/// per annealer, never grown or cleared.
#[derive(Clone)]
struct ProbabilityMemo(Box<[MemoSlot; MEMO_SLOTS]>);

impl ProbabilityMemo {
    fn new() -> Self {
        const EMPTY: MemoSlot = MemoSlot {
            delta: 0,
            epoch: 0,
            threshold: 0.0,
        };
        ProbabilityMemo(Box::new([EMPTY; MEMO_SLOTS]))
    }
}

impl std::fmt::Debug for ProbabilityMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbabilityMemo")
            .field("slots", &MEMO_SLOTS)
            .finish()
    }
}

/// `2⁵³`: the number of values a uniform `f64` draw takes in `[0, 1)`.
const DRAW_SCALE: f64 = (1u64 << 53) as f64;

/// The threshold of probability `p ∈ [0, 1]` in draw units: `p·2⁵³`.
///
/// A `gen::<f64>()` draw is `m·2⁻⁵³` with `m = rand::draw_53(rng)`, and
/// both `m` and `p·2⁵³` are exact in `f64` (`m < 2⁵³`; the product is a
/// power-of-two scaling), so `m < p·2⁵³` holds exactly when
/// `m·2⁻⁵³ < p`, and exactly when `m < ⌈p·2⁵³⌉`. Keeping the threshold
/// as an `f64` costs a miss one multiply; an integer ceiling would cost
/// two conversions and a compare, which read slower on streams that
/// mostly miss.
#[inline]
fn draw_threshold(probability: f64) -> f64 {
    probability * DRAW_SCALE
}

/// The annealer block: current temperature, a seeded RNG and a memo of
/// the acceptance threshold per ΔH at the current temperature.
///
/// ```
/// use sachi_ising::anneal::{Annealer, Schedule};
///
/// let mut a = Annealer::new(Schedule::default(), 42);
/// assert!(a.accept(-5)); // downhill moves always accepted
/// a.freeze();
/// assert!(!a.accept(1)); // frozen: uphill moves always rejected
/// ```
#[derive(Debug, Clone)]
pub struct Annealer {
    schedule: Schedule,
    temperature: f64,
    /// Bumped whenever the temperature's bits change: the memo's key.
    epoch: u64,
    rng: StdRng,
    memo: ProbabilityMemo,
    uphill_accepted: u64,
    uphill_rejected: u64,
}

impl Annealer {
    /// Creates an annealer at the schedule's initial temperature.
    pub fn new(schedule: Schedule, seed: u64) -> Self {
        Annealer {
            schedule,
            temperature: schedule.initial_temperature(),
            epoch: 0,
            rng: StdRng::seed_from_u64(seed),
            memo: ProbabilityMemo::new(),
            uphill_accepted: 0,
            uphill_rejected: 0,
        }
    }

    /// Current temperature.
    pub fn temperature(&self) -> f64 {
        self.temperature
    }

    /// Whether the annealer has cooled past the freeze threshold.
    #[inline]
    pub fn is_frozen(&self) -> bool {
        self.temperature < self.schedule.freeze_threshold()
    }

    /// Probability of accepting a move with energy change `delta`.
    ///
    /// The `t = 0` path (after [`Annealer::freeze`]) is reached only
    /// through the frozen arm: `Schedule`
    /// constructors assert `freeze_threshold > 0`, so `temperature = 0 <
    /// threshold` always satisfies [`Annealer::is_frozen`] first and the
    /// division never sees a zero denominator. The explicit
    /// `temperature <= 0` arm pins that invariant structurally rather
    /// than by check ordering — an uphill move at non-positive
    /// temperature has probability exactly `0.0`, never `exp(Δ/0)`.
    pub fn acceptance_probability(&self, delta: i64) -> f64 {
        if delta <= 0 {
            1.0
        } else if self.is_frozen() || self.temperature <= 0.0 {
            0.0
        } else {
            (-(delta as f64) / self.temperature).exp()
        }
    }

    /// [`Annealer::acceptance_probability`] read through the annealer's
    /// memo: bit-identical (the slot's threshold scaled back by 2⁻⁵³),
    /// without an `exp` once `delta` has been seen at the current
    /// temperature.
    #[inline]
    pub fn probability(&mut self, delta: i64) -> f64 {
        if delta <= 0 {
            1.0
        } else {
            self.memo_uphill(delta).threshold * (1.0 / DRAW_SCALE)
        }
    }

    /// The memo slot of `delta > 0` at the current epoch; a miss fills
    /// it from [`Annealer::acceptance_probability`].
    #[inline]
    fn memo_uphill(&mut self, delta: i64) -> MemoSlot {
        let (index, epoch) = ((delta >> 1) as usize & (MEMO_SLOTS - 1), self.epoch);
        if let Some(slot) = self.memo.0.get(index) {
            if slot.delta == delta && slot.epoch == epoch {
                return *slot;
            }
        }
        let probability = self.acceptance_probability(delta);
        let slot = MemoSlot {
            delta,
            epoch,
            threshold: draw_threshold(probability),
        };
        if let Some(kept) = self.memo.0.get_mut(index) {
            *kept = slot;
        }
        slot
    }

    /// Metropolis decision for a move with energy change `delta`.
    /// Downhill and neutral moves are always accepted.
    #[inline]
    pub fn accept(&mut self, delta: i64) -> bool {
        if delta <= 0 {
            return true;
        }
        if self.is_frozen() {
            self.uphill_rejected += 1;
            return false;
        }
        self.accept_live_uphill(delta)
    }

    /// The Metropolis draw for an uphill move (`delta > 0`) on a live
    /// annealer: the 53 bits of one `gen::<f64>()` draw against the
    /// memoised threshold `p·2⁵³`, the same decision as `gen::<f64>() <
    /// p` (see [`draw_threshold`]) from the same RNG word.
    /// [`crate::solver::decide_update`] calls it directly, having
    /// already tested both preconditions.
    #[inline]
    pub(crate) fn accept_live_uphill(&mut self, delta: i64) -> bool {
        debug_assert!(delta > 0 && !self.is_frozen());
        let threshold = self.memo_uphill(delta).threshold;
        // The 53 bits `gen::<f64>()` scales by 2⁻⁵³: below 2⁵³, so the
        // signed conversion (one instruction on baseline x86-64) is exact.
        let accepted = (rand::draw_53(&mut self.rng) as i64 as f64) < threshold;
        self.uphill_accepted += u64::from(accepted);
        self.uphill_rejected += u64::from(!accepted);
        accepted
    }

    /// Moves to `temperature`, starting a new memo epoch if its bits
    /// differ from the current temperature's.
    fn set_temperature(&mut self, temperature: f64) {
        self.epoch += u64::from(temperature.to_bits() != self.temperature.to_bits());
        self.temperature = temperature;
    }

    /// Cools by one schedule step (call once per sweep). A held rung's
    /// step leaves the temperature, and so the memo, as it is.
    pub fn cool(&mut self) {
        self.set_temperature(self.schedule.cool_once(self.temperature));
    }

    /// Drops the temperature to zero immediately.
    pub fn freeze(&mut self) {
        self.set_temperature(0.0);
    }

    /// Uphill moves accepted so far.
    pub fn uphill_accepted(&self) -> u64 {
        self.uphill_accepted
    }

    /// Uphill moves rejected so far.
    pub fn uphill_rejected(&self) -> u64 {
        self.uphill_rejected
    }

    /// Borrow of the internal RNG for auxiliary randomness that must stay
    /// on the same deterministic stream.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn schedule_validation() {
        let s = Schedule::new(4.0, 0.5, 1.0);
        assert_eq!(s.initial_temperature(), 4.0);
        assert_eq!(s.sweeps_until_frozen(), 3); // 4, 2, 1 -> 0.5 < 1
    }

    #[test]
    #[should_panic(expected = "cooling factor")]
    fn bad_cooling_factor_rejected() {
        let _ = Schedule::new(1.0, 1.5, 0.1);
    }

    #[test]
    #[should_panic(expected = "initial temperature")]
    fn bad_temperature_rejected() {
        let _ = Schedule::new(0.0, 0.5, 0.1);
    }

    #[test]
    fn coefficient_range_schedule_scales() {
        let small = Schedule::for_coefficient_range(1);
        let large = Schedule::for_coefficient_range(1000);
        assert!(large.initial_temperature() > small.initial_temperature());
        assert!(small.initial_temperature() >= 1.0);
    }

    #[test]
    fn downhill_always_accepted() {
        let mut a = Annealer::new(Schedule::default(), 1);
        for d in [-100, -1, 0] {
            assert!(a.accept(d));
        }
        assert_eq!(a.uphill_accepted() + a.uphill_rejected(), 0);
    }

    #[test]
    fn acceptance_probability_decays_with_delta_and_cooling() {
        let mut a = Annealer::new(Schedule::new(10.0, 0.5, 0.01), 1);
        let p_small = a.acceptance_probability(1);
        let p_big = a.acceptance_probability(50);
        assert!(p_small > p_big);
        let before = a.acceptance_probability(5);
        a.cool();
        let after = a.acceptance_probability(5);
        assert!(after < before);
    }

    #[test]
    fn frozen_annealer_rejects_uphill() {
        let mut a = Annealer::new(Schedule::default(), 1);
        a.freeze();
        assert!(a.is_frozen());
        assert!(!a.accept(1));
        assert!(a.accept(-1));
        assert_eq!(a.acceptance_probability(1), 0.0);
        assert_eq!(a.uphill_rejected(), 1);
    }

    #[test]
    fn same_seed_same_decisions() {
        let deltas = [3, 1, 7, 2, 9, 4, 1, 1, 5];
        let run = |seed| {
            let mut a = Annealer::new(Schedule::default(), seed);
            deltas.iter().map(|&d| a.accept(d)).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn hot_annealer_accepts_some_uphill() {
        let mut a = Annealer::new(Schedule::new(1000.0, 0.99, 0.1), 5);
        let accepted = (0..100).filter(|_| a.accept(1)).count();
        assert!(accepted > 80, "hot annealer accepted only {accepted}/100");
    }

    /// Pins the acceptance probability at and below
    /// `freeze_threshold`, including the exact-`0.0` temperature
    /// [`Annealer::freeze`] sets — never NaN/inf, never a live
    /// `exp(Δ/0)`.
    #[test]
    fn acceptance_probability_pinned_at_and_below_freeze_threshold() {
        // At the threshold itself (t == 0.5 is *not* frozen: `<` test),
        // the probability is live, finite, and in (0, 1).
        let s = Schedule::new(1.0, 0.5, 0.5);
        let mut a = Annealer::new(s, 1);
        a.cool(); // t = 0.5
        assert!(!a.is_frozen());
        let p = a.acceptance_probability(1);
        assert!(p > 0.0 && p < 1.0, "live at the threshold: p={p}");
        a.cool(); // t = 0.25, below threshold but above zero
        assert!(a.is_frozen());
        let p = a.acceptance_probability(3);
        assert_eq!(p, 0.0, "frozen-but-warm annealer must reject uphill");
        a.freeze(); // t = 0.0 exactly
        assert_eq!(a.temperature(), 0.0);
        for delta in [1, 5, i64::MAX] {
            let p = a.acceptance_probability(delta);
            assert!(p.is_finite(), "t=0, Δ={delta}: p={p}");
            assert_eq!(p, 0.0, "t=0, Δ={delta}");
        }
        // Downhill stays certain at t = 0.
        assert_eq!(a.acceptance_probability(-1), 1.0);
        assert_eq!(a.acceptance_probability(0), 1.0);
    }

    #[test]
    fn constant_schedule_holds_temperature() {
        let s = Schedule::constant(2.5, 0.05);
        let temps: Vec<f64> = s.temperatures().take(4).collect();
        assert_eq!(temps, vec![2.5, 2.5, 2.5, 2.5]);
        assert_eq!(s.cooling(), Cooling::Hold);
        assert_eq!(s.cool_once(2.5), 2.5);
        // A hold at/above the threshold never freezes — the closed form
        // must report "never" instead of looping forever.
        assert_eq!(s.sweeps_until_frozen(), u64::MAX);
        let mut a = Annealer::new(s, 1);
        for _ in 0..100 {
            a.cool();
        }
        assert!(!a.is_frozen());
        assert_eq!(a.temperature(), 2.5);
    }

    #[test]
    fn constant_schedule_below_threshold_is_greedy_from_sweep_zero() {
        let s = Schedule::constant(0.01, 0.05);
        assert_eq!(s.sweeps_until_frozen(), 0);
        let mut a = Annealer::new(s, 1);
        assert!(a.is_frozen());
        assert!(!a.accept(1));
        assert!(a.accept(-1));
    }

    #[test]
    #[should_panic(expected = "hold temperature")]
    fn constant_schedule_validates_temperature() {
        let _ = Schedule::constant(0.0, 0.05);
    }

    /// The threshold decides exactly as the `f64` draw does: for every
    /// probability, `m < p·2⁵³` equals `m·2⁻⁵³ < p` and `m < ⌈p·2⁵³⌉` at
    /// the integer threshold, on either side of it and at both ends of
    /// the draw's range; and scaling the threshold back gives `p`.
    #[test]
    fn draw_threshold_decides_as_the_float_draw() {
        let ulp = 1.0 / DRAW_SCALE;
        let beside = |p: f64| {
            [
                f64::from_bits(p.to_bits() - 1),
                p,
                f64::from_bits(p.to_bits() + 1),
            ]
        };
        let mut probabilities = vec![0.0, 1.0, 1.0 - ulp, 1.0 - ulp / 2.0];
        for k in [1.0, 2.0, 3.0, 1e6, 0.5 * DRAW_SCALE, DRAW_SCALE - 1.0] {
            probabilities.extend(beside(k * ulp));
        }
        probabilities.extend(beside(0.5));
        probabilities.extend(beside(1.0 - ulp).into_iter().filter(|&p| p <= 1.0));
        probabilities.extend([f64::MIN_POSITIVE, f64::MIN_POSITIVE / 2.0, 5e-324]);
        // ΔH/T > 745 underflows the exp to exactly zero.
        let underflow = Annealer::new(Schedule::constant(1.0, 0.05), 1).acceptance_probability(800);
        assert_eq!(underflow, 0.0);
        probabilities.push(underflow);

        let last = (1u64 << 53) - 1;
        for p in probabilities {
            let threshold = draw_threshold(p);
            assert_eq!((threshold * ulp).to_bits(), p.to_bits(), "p = {p:e}");
            let ceiling = threshold.ceil() as u64;
            let near = [
                ceiling.checked_sub(1),
                Some(ceiling),
                ceiling.checked_add(1),
            ];
            let draws = near
                .into_iter()
                .flatten()
                .chain([0, last])
                .filter(|&m| m <= last);
            for m in draws {
                let float_draw = (m as f64) * ulp < p;
                assert_eq!((m as f64) < threshold, float_draw, "p = {p:e}, m = {m}");
                assert_eq!(m < ceiling, float_draw, "p = {p:e}, m = {m}, ⌈p·2⁵³⌉");
            }
        }
        assert_eq!(draw_threshold(0.0), 0.0, "p = 0 accepts nothing");
        assert_eq!(draw_threshold(1.0), DRAW_SCALE, "p = 1 accepts every draw");
    }

    /// The memo slot `delta` maps to.
    fn slot(a: &Annealer, delta: i64) -> MemoSlot {
        a.memo.0[(delta >> 1) as usize & (MEMO_SLOTS - 1)]
    }

    #[test]
    fn hold_keeps_its_slots_across_cool() {
        let mut a = Annealer::new(Schedule::constant(3.0, 0.05), 1);
        let p = a.probability(4);
        let filled = slot(&a, 4);
        assert_eq!((filled.delta, filled.epoch), (4, a.epoch));
        for _ in 0..10 {
            a.cool();
        }
        assert_eq!(
            slot(&a, 4).epoch,
            a.epoch,
            "a hold's cool() keeps the epoch"
        );
        assert_eq!(a.probability(4).to_bits(), p.to_bits());
    }

    #[test]
    fn cool_and_freeze_invalidate_the_slots() {
        let mut a = Annealer::new(Schedule::new(8.0, 0.5, 0.1), 1);
        let hot = a.probability(4);
        a.cool();
        assert_ne!(slot(&a, 4).epoch, a.epoch, "cooling starts a new epoch");
        let cooled = a.probability(4);
        assert!(cooled < hot);
        assert_eq!(cooled.to_bits(), a.acceptance_probability(4).to_bits());

        a.freeze();
        assert_ne!(slot(&a, 4).epoch, a.epoch, "freezing starts a new epoch");
        assert_eq!(a.probability(4), 0.0);
        assert_eq!(slot(&a, 4).threshold, 0.0);
        assert!(!a.accept(4));
        let epoch = a.epoch;
        a.freeze();
        assert_eq!(a.epoch, epoch, "re-freezing at zero keeps the epoch");
    }

    #[test]
    fn clone_continues_draw_for_draw() {
        let deltas = [2, 4, 2, 6, 0, 8, 2, 514, 4, 2, 10, 2];
        let mut a = Annealer::new(Schedule::new(6.0, 0.8, 0.05), 17);
        for (k, &d) in deltas.iter().cycle().take(200).enumerate() {
            if k % 16 == 15 {
                a.cool();
            }
            a.accept(d);
        }
        let mut b = a.clone();
        for (k, &d) in deltas.iter().cycle().take(400).enumerate() {
            if k % 16 == 15 {
                a.cool();
                b.cool();
            }
            assert_eq!(a.accept(d), b.accept(d), "step {k}, ΔH = {d}");
        }
        assert_eq!(
            (a.uphill_accepted(), a.uphill_rejected()),
            (b.uphill_accepted(), b.uphill_rejected())
        );
        assert_eq!(a.rng().next_u64(), b.rng().next_u64());
    }

    #[test]
    fn temperatures_iterator_is_geometric() {
        let s = Schedule::new(1.0, 0.1, 0.001);
        let t: Vec<f64> = s.temperatures().take(3).collect();
        assert!((t[0] - 1.0).abs() < 1e-12);
        assert!((t[1] - 0.1).abs() < 1e-12);
        assert!((t[2] - 0.01).abs() < 1e-12);
    }
}
