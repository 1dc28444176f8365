//! Strongly-typed units used throughout the simulator.
//!
//! The SACHI evaluation reasons about three quantities: clock cycles
//! (performance), picojoules (energy), and bits/bytes (capacity and data
//! movement). Mixing these up silently is the classic architecture-simulator
//! bug, so each gets a newtype with only the arithmetic that makes physical
//! sense ([C-NEWTYPE]).
//!
//! ```
//! use sachi_mem::units::{Cycles, Nanoseconds, Picojoules};
//!
//! let per_iteration = Cycles::new(63);
//! let iterations = 1_000u64;
//! let total = per_iteration * iterations;
//! let wall = total.to_time(Nanoseconds::new(5.0));
//! assert_eq!(total, Cycles::new(63_000));
//! assert!((wall.get() - 315_000.0).abs() < 1e-9);
//! let e = Picojoules::new(0.05) * 800.0;
//! assert!((e.get() - 40.0).abs() < 1e-12);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Checked crossings between the index domain (`usize`/`u32`/`u16`) and
/// the accounting domain (`u64` counts, `f64` ratios).
///
/// The workspace's `unit-safety` lint (`cargo run -p xtask -- lint`)
/// bans raw numeric `as` casts in accounting code; these helpers are the
/// blessed replacements. Each one states its loss and panic behaviour —
/// the two things a bare `as` hides.
pub mod convert {
    /// Widens an index or count into the `u64` accounting domain.
    ///
    /// Lossless for every unsigned source type on every supported
    /// target.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit `u64` (only possible for signed
    /// negatives or 128-bit sources).
    #[inline]
    pub fn count_u64<T>(n: T) -> u64
    where
        T: TryInto<u64>,
        T::Error: std::fmt::Debug,
    {
        n.try_into()
            .expect("count must be non-negative and fit u64")
    }

    /// Narrows an accounting count back into a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the platform address space (cannot happen
    /// for in-memory structures that were indexed to produce `n`).
    #[inline]
    pub fn to_index<T>(n: T) -> usize
    where
        T: TryInto<usize>,
        T::Error: std::fmt::Debug,
    {
        n.try_into()
            .expect("index must fit the platform address space")
    }

    /// A `u64` counter as `f64`, for averages and percentages.
    ///
    /// Precision loss begins above 2^53 (~9e15) — five orders of
    /// magnitude past any counter this simulator produces — and rounds
    /// to the nearest representable value rather than truncating.
    #[inline]
    pub fn approx_f64(n: u64) -> f64 {
        n as f64
    }

    /// A `u128` event count as `f64`, for pricing a solve's tally:
    /// exact below 2^53 and rounded to nearest above, like
    /// [`approx_f64`].
    #[inline]
    pub fn approx_f64_wide(n: u128) -> f64 {
        n as f64
    }

    /// Ratio of two counters (hit rates, reuse factors, CPI).
    ///
    /// Returns `f64::NAN` when both are zero and `inf` when only the
    /// denominator is, mirroring IEEE division.
    #[inline]
    pub fn ratio_u64(numerator: u64, denominator: u64) -> f64 {
        approx_f64(numerator) / approx_f64(denominator)
    }

    /// `floor(count × fraction)` — the checked form of the
    /// `(count as f64 * fraction) as u64` idiom (e.g. expected spin
    /// flips per sweep).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is negative or not finite, or if the scaled
    /// result cannot round-trip to `u64`.
    #[inline]
    pub fn scale_by_fraction(count: u64, fraction: f64) -> u64 {
        assert!(
            fraction.is_finite() && fraction >= 0.0,
            "fraction must be finite and non-negative, got {fraction}"
        );
        let scaled = (approx_f64(count) * fraction).floor();
        assert!(
            scaled <= approx_f64(u64::MAX),
            "scaled count {scaled} overflows u64 (count {count} x fraction {fraction})"
        );
        scaled as u64
    }
}

/// A count of clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    #[inline]
    pub const fn new(n: u64) -> Self {
        Cycles(n)
    }

    /// Returns the raw count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Wall-clock time for this many cycles at the given cycle time.
    #[inline]
    pub fn to_time(self, cycle_time: Nanoseconds) -> Nanoseconds {
        Nanoseconds(convert::approx_f64(self.0) * cycle_time.0)
    }

    /// A cycle count from an `f64` computation, rounded up.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is negative, not finite, or too large for an
    /// exact `u64` representation (≥ 2^53).
    #[inline]
    pub fn from_f64_ceil(cycles: f64) -> Self {
        assert!(
            cycles.is_finite() && cycles >= 0.0,
            "cycle count must be finite and non-negative, got {cycles}"
        );
        let up = cycles.ceil();
        assert!(
            up < (1u64 << 53) as f64,
            "cycle count {up} exceeds exact u64 range"
        );
        Cycles(up as u64)
    }

    /// Saturating subtraction, useful when computing overlap slack.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two counts (e.g. overlapping compute with prefetch).
    #[inline]
    pub fn max(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.max(rhs.0))
    }

    /// Ratio of two cycle counts as `f64` (speedup computations).
    #[inline]
    pub fn ratio(self, rhs: Cycles) -> f64 {
        convert::ratio_u64(self.0, rhs.0)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// Energy in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Picojoules(f64);

impl Picojoules {
    /// Zero energy.
    pub const ZERO: Picojoules = Picojoules(0.0);

    /// Creates an energy value.
    ///
    /// # Panics
    ///
    /// Panics if `pj` is negative or not finite; energy ledgers are
    /// append-only and a negative entry would corrupt every total.
    #[inline]
    pub fn new(pj: f64) -> Self {
        assert!(
            pj.is_finite() && pj >= 0.0,
            "energy must be finite and non-negative, got {pj}"
        );
        Picojoules(pj)
    }

    /// Returns the raw value in picojoules.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Ratio of two energies (improvement factors).
    #[inline]
    pub fn ratio(self, rhs: Picojoules) -> f64 {
        self.0 / rhs.0
    }
}

impl Add for Picojoules {
    type Output = Picojoules;
    #[inline]
    fn add(self, rhs: Picojoules) -> Picojoules {
        Picojoules(self.0 + rhs.0)
    }
}

impl AddAssign for Picojoules {
    #[inline]
    fn add_assign(&mut self, rhs: Picojoules) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for Picojoules {
    type Output = Picojoules;
    #[inline]
    fn mul(self, rhs: f64) -> Picojoules {
        Picojoules::new(self.0 * rhs)
    }
}

impl Mul<u64> for Picojoules {
    type Output = Picojoules;
    #[inline]
    fn mul(self, rhs: u64) -> Picojoules {
        Picojoules(self.0 * convert::approx_f64(rhs))
    }
}

/// Error for [`TryFrom<f64>`] conversions into the `f64`-backed units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitRangeError {
    /// The rejected raw value.
    pub value: f64,
    /// The unit the value was destined for.
    pub unit: &'static str,
}

impl fmt::Display for UnitRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} must be finite and non-negative, got {}",
            self.unit, self.value
        )
    }
}

impl std::error::Error for UnitRangeError {}

impl TryFrom<f64> for Picojoules {
    type Error = UnitRangeError;

    /// Non-panicking alternative to [`Picojoules::new`] for values that
    /// arrive from config files or user input.
    fn try_from(pj: f64) -> Result<Self, Self::Error> {
        if pj.is_finite() && pj >= 0.0 {
            Ok(Picojoules(pj))
        } else {
            Err(UnitRangeError {
                value: pj,
                unit: "energy (pJ)",
            })
        }
    }
}

impl TryFrom<f64> for Nanoseconds {
    type Error = UnitRangeError;

    /// Non-panicking alternative to [`Nanoseconds::new`].
    fn try_from(ns: f64) -> Result<Self, Self::Error> {
        if ns.is_finite() && ns >= 0.0 {
            Ok(Nanoseconds(ns))
        } else {
            Err(UnitRangeError {
                value: ns,
                unit: "time (ns)",
            })
        }
    }
}

impl Div<f64> for Picojoules {
    type Output = Picojoules;
    #[inline]
    fn div(self, rhs: f64) -> Picojoules {
        Picojoules::new(self.0 / rhs)
    }
}

impl Sum for Picojoules {
    fn sum<I: Iterator<Item = Picojoules>>(iter: I) -> Picojoules {
        Picojoules(iter.map(|e| e.0).sum())
    }
}

impl fmt::Display for Picojoules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.3} uJ", self.0 * 1e-6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.3} nJ", self.0 * 1e-3)
        } else {
            write!(f, "{:.3} pJ", self.0)
        }
    }
}

/// Time in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Nanoseconds(f64);

impl Nanoseconds {
    /// Creates a duration.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    #[inline]
    pub fn new(ns: f64) -> Self {
        assert!(
            ns.is_finite() && ns >= 0.0,
            "time must be finite and non-negative, got {ns}"
        );
        Nanoseconds(ns)
    }

    /// Returns the raw value in nanoseconds.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Number of whole clock cycles needed to cover this duration
    /// (rounded up).
    #[inline]
    pub fn to_cycles(self, cycle_time: Nanoseconds) -> Cycles {
        Cycles::from_f64_ceil(self.0 / cycle_time.0)
    }
}

impl Add for Nanoseconds {
    type Output = Nanoseconds;
    #[inline]
    fn add(self, rhs: Nanoseconds) -> Nanoseconds {
        Nanoseconds(self.0 + rhs.0)
    }
}

impl Mul<f64> for Nanoseconds {
    type Output = Nanoseconds;
    #[inline]
    fn mul(self, rhs: f64) -> Nanoseconds {
        Nanoseconds::new(self.0 * rhs)
    }
}

impl fmt::Display for Nanoseconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.3} ms", self.0 * 1e-6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.3} us", self.0 * 1e-3)
        } else {
            write!(f, "{:.3} ns", self.0)
        }
    }
}

/// A capacity or transfer size in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bits(u64);

impl Bits {
    /// Zero bits.
    pub const ZERO: Bits = Bits(0);

    /// Creates a bit count.
    #[inline]
    pub const fn new(bits: u64) -> Self {
        Bits(bits)
    }

    /// Creates a bit count from bytes.
    #[inline]
    pub const fn from_bytes(bytes: u64) -> Self {
        Bits(bytes * 8)
    }

    /// Creates a bit count from kibibytes.
    #[inline]
    pub const fn from_kib(kib: u64) -> Self {
        Bits(kib * 1024 * 8)
    }

    /// Returns the raw bit count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Whole bytes needed to hold this many bits (rounded up).
    #[inline]
    pub const fn to_bytes_ceil(self) -> u64 {
        self.0.div_ceil(8)
    }

    /// Whether this capacity can hold `other`.
    #[inline]
    pub const fn holds(self, other: Bits) -> bool {
        self.0 >= other.0
    }
}

impl Add for Bits {
    type Output = Bits;
    #[inline]
    fn add(self, rhs: Bits) -> Bits {
        Bits(self.0 + rhs.0)
    }
}

impl AddAssign for Bits {
    #[inline]
    fn add_assign(&mut self, rhs: Bits) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for Bits {
    type Output = Bits;
    #[inline]
    fn mul(self, rhs: u64) -> Bits {
        Bits(self.0 * rhs)
    }
}

impl Sum for Bits {
    fn sum<I: Iterator<Item = Bits>>(iter: I) -> Bits {
        Bits(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bytes = convert::approx_f64(self.0) / 8.0;
        if bytes >= 1024.0 * 1024.0 {
            write!(f, "{:.2} MiB", bytes / (1024.0 * 1024.0))
        } else if bytes >= 1024.0 {
            write!(f, "{:.2} KiB", bytes / 1024.0)
        } else {
            write!(f, "{} bits", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_arithmetic() {
        let a = Cycles::new(10);
        let b = Cycles::new(3);
        assert_eq!(a + b, Cycles::new(13));
        assert_eq!(a - b, Cycles::new(7));
        assert_eq!(a * 4, Cycles::new(40));
        assert_eq!(a.max(b), a);
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, Cycles::new(13));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn cycles_sum_and_ratio() {
        let total: Cycles = [Cycles::new(1), Cycles::new(2), Cycles::new(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Cycles::new(6));
        assert!((Cycles::new(300).ratio(Cycles::new(100)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cycles_to_wall_clock() {
        // The paper's 5 ns cycle: 200 cycles -> 1 us.
        let t = Cycles::new(200).to_time(Nanoseconds::new(5.0));
        assert!((t.get() - 1000.0).abs() < 1e-9);
        assert_eq!(format!("{}", Cycles::new(7)), "7 cycles");
    }

    #[test]
    fn picojoules_arithmetic_and_display() {
        let rwl = Picojoules::new(0.05);
        let total = rwl * 1000u64 + Picojoules::new(1.0);
        assert!((total.get() - 51.0).abs() < 1e-12);
        assert_eq!(format!("{}", Picojoules::new(0.5)), "0.500 pJ");
        assert_eq!(format!("{}", Picojoules::new(2500.0)), "2.500 nJ");
        assert_eq!(format!("{}", Picojoules::new(3.2e6)), "3.200 uJ");
        assert!((Picojoules::new(80.0).ratio(Picojoules::new(1.0)) - 80.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "energy must be finite")]
    fn negative_energy_rejected() {
        let _ = Picojoules::new(-1.0);
    }

    #[test]
    fn nanoseconds_to_cycles_rounds_up() {
        // The 100 ns storage->compute movement at 5 ns/cycle is 20 cycles.
        let cycle = Nanoseconds::new(5.0);
        assert_eq!(Nanoseconds::new(100.0).to_cycles(cycle), Cycles::new(20));
        assert_eq!(Nanoseconds::new(101.0).to_cycles(cycle), Cycles::new(21));
        assert_eq!(format!("{}", Nanoseconds::new(0.5)), "0.500 ns");
        assert_eq!(format!("{}", Nanoseconds::new(1500.0)), "1.500 us");
        assert_eq!(format!("{}", Nanoseconds::new(2.5e6)), "2.500 ms");
    }

    #[test]
    fn bits_conversions() {
        assert_eq!(Bits::from_bytes(64), Bits::new(512));
        assert_eq!(Bits::from_kib(10), Bits::new(81920));
        assert_eq!(Bits::new(9).to_bytes_ceil(), 2);
        assert!(Bits::from_kib(64).holds(Bits::from_kib(10)));
        assert!(!Bits::from_kib(10).holds(Bits::from_kib(64)));
        assert_eq!(format!("{}", Bits::new(100)), "100 bits");
        assert_eq!(format!("{}", Bits::from_kib(10)), "10.00 KiB");
        assert_eq!(format!("{}", Bits::from_kib(4096)), "4.00 MiB");
    }

    #[test]
    fn convert_helpers() {
        assert_eq!(convert::count_u64(42usize), 42u64);
        assert_eq!(convert::count_u64(7u32), 7u64);
        assert_eq!(convert::to_index(9u64), 9usize);
        assert_eq!(convert::to_index(3u32), 3usize);
        assert!((convert::approx_f64(1000) - 1000.0).abs() < 1e-12);
        assert!((convert::ratio_u64(3, 4) - 0.75).abs() < 1e-12);
        assert_eq!(convert::scale_by_fraction(1000, 0.1), 100);
        assert_eq!(convert::scale_by_fraction(3, 0.5), 1, "floor semantics");
        assert_eq!(convert::scale_by_fraction(0, 0.9), 0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn scale_by_negative_fraction_rejected() {
        let _ = convert::scale_by_fraction(10, -0.5);
    }

    #[test]
    fn cycles_from_f64_ceil() {
        assert_eq!(Cycles::from_f64_ceil(0.0), Cycles::ZERO);
        assert_eq!(Cycles::from_f64_ceil(20.0), Cycles::new(20));
        assert_eq!(Cycles::from_f64_ceil(20.2), Cycles::new(21));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn cycles_from_negative_rejected() {
        let _ = Cycles::from_f64_ceil(-1.0);
    }

    #[test]
    fn try_from_f64_units() {
        assert_eq!(Picojoules::try_from(2.5), Ok(Picojoules::new(2.5)));
        assert!(Picojoules::try_from(-1.0).is_err());
        assert!(Picojoules::try_from(f64::NAN).is_err());
        assert_eq!(Nanoseconds::try_from(5.0), Ok(Nanoseconds::new(5.0)));
        let err = Nanoseconds::try_from(f64::INFINITY).unwrap_err();
        assert!(err.to_string().contains("time (ns)"));
    }

    #[test]
    fn bits_sum() {
        let total: Bits = [Bits::new(3), Bits::new(5)].into_iter().sum();
        assert_eq!(total, Bits::new(8));
        assert_eq!(Bits::new(3) * 4, Bits::new(12));
    }

    mod properties {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn cycles_sum_matches_raw_sum(counts in proptest::collection::vec(0u64..1 << 40, 0..8)) {
                let total: Cycles = counts.iter().map(|&c| Cycles::new(c)).sum();
                prop_assert_eq!(total.get(), counts.iter().sum::<u64>());
            }

            #[test]
            fn cycles_mul_matches_raw_mul(count in 0u64..1 << 30, k in 0u64..1 << 30) {
                prop_assert_eq!((Cycles::new(count) * k).get(), count * k);
            }

            #[test]
            fn cycles_roundtrip_through_time(count in 0u64..1 << 20, period in 1u64..1000) {
                // to_time then to_cycles must land back on the same count:
                // the ceil in to_cycles can only ever round *up* from float
                // error, and an exact-multiple duration has none to round.
                let cycle_time = Nanoseconds::new(convert::approx_f64(period));
                let elapsed = Cycles::new(count).to_time(cycle_time);
                prop_assert_eq!(elapsed.to_cycles(cycle_time), Cycles::new(count));
            }

            #[test]
            fn picojoules_sum_matches_raw_sum(counts in proptest::collection::vec(0u64..1 << 30, 0..8)) {
                let total: Picojoules = counts.iter().map(|&c| Picojoules::new(convert::approx_f64(c))).sum();
                let raw = convert::approx_f64(counts.iter().sum::<u64>());
                prop_assert!((total.get() - raw).abs() < 1e-6);
            }

            #[test]
            fn picojoules_mul_matches_raw_mul(base in 0u64..1 << 20, k in 0u64..1 << 20) {
                let scaled = Picojoules::new(convert::approx_f64(base)) * k;
                prop_assert!((scaled.get() - convert::approx_f64(base * k)).abs() < 1e-6);
            }
        }
    }
}
