//! Offline stand-in for the subset of the `rand` 0.8 API this workspace
//! uses.
//!
//! The growth container has no registry access, so the workspace patches
//! `rand` to this crate (see the root `Cargo.toml`). It provides:
//!
//! * [`rngs::StdRng`] — a seedable, deterministic generator
//!   (xoshiro256** seeded through SplitMix64 — *not* the ChaCha12 stream
//!   of the real `StdRng`, so byte-for-byte streams differ from upstream,
//!   but every consumer in this workspace only relies on determinism for
//!   a fixed seed, which holds);
//! * [`SeedableRng`] with `seed_from_u64`;
//! * [`Rng`] with `gen`, `gen_bool` and `gen_range` over the integer and
//!   float ranges the workspace samples.
//!
//! Uniform integers are drawn by rejection-free modulo reduction; the
//! resulting bias is below 2⁻⁴⁰ for every span used here (≤ 2¹⁸), far
//! under what the simulator's statistical tests can observe.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// Low-level uniform bit source, mirroring `rand_core::RngCore`'s `u64`
/// half (the only part the workspace touches).
pub trait RngCore {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seedable generators, mirroring `rand::SeedableRng::seed_from_u64`.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed. Equal seeds give equal
    /// streams.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types drawable from raw uniform bits — the `Standard` distribution of
/// the real crate, folded into one trait.
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // Use the high bit: low bits of some generators are weaker.
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for u64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for i64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as i64
    }
}

/// The 53 uniform bits a `gen::<f64>()` draw scales into `[0, 1)`: the
/// draw is exactly `draw_53(rng) as f64 · 2⁻⁵³` from the same RNG word.
/// Not part of the real crate's API (its `Standard` `f64` draw takes the
/// same top 53 bits); exposed so a caller can compare the integer
/// against a threshold in draw units without restating the format.
#[inline]
pub fn draw_53<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
    rng.next_u64() >> 11
}

impl Standard for f64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        draw_53(rng) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types `gen_range` can sample, mirroring
/// `rand::distributions::uniform::SampleUniform`. The blanket
/// [`SampleRange`] impls below are generic over this trait — exactly like
/// real rand — so type inference can flow from the *result* type back into
/// untyped range literals (`rng.gen_range(0..1 << 18) & !0x7` as `u64`).
pub trait SampleUniform: Copy + PartialOrd {
    /// Draws uniformly from the half-open range `[low, high)`.
    fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    /// Draws uniformly from the closed range `[low, high]`.
    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                let span = high.wrapping_sub(low) as u64;
                low.wrapping_add((rng.next_u64() % span) as $t)
            }
            #[inline]
            fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                let span = high.wrapping_sub(low) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                low.wrapping_add((rng.next_u64() % (span + 1)) as $t)
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    #[inline]
    fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
        low + f64::sample(rng) * (high - low)
    }
    #[inline]
    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
        // Closed and half-open float ranges coincide for practical purposes.
        Self::sample_half_open(low, high, rng)
    }
}

/// Ranges a generator can sample uniformly, mirroring
/// `rand::distributions::uniform::SampleRange`.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_inclusive(lo, hi, rng)
    }
}

/// High-level sampling methods, mirroring `rand::Rng`. Blanket-implemented
/// for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value of any [`Standard`]-samplable type.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is within `[0, 1]`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "probability must be in [0, 1], got {p}"
        );
        f64::sample(self) < p
    }

    /// Draws a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }
}

impl<R: RngCore> Rng for R {}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Concrete generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256** with SplitMix64
    /// seed expansion. Deterministic for a fixed seed, `Clone`-able with
    /// independent continuation, and fast enough for million-spin sweeps.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..16).map(|_| a.gen::<u64>()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.gen::<u64>()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.gen::<u64>()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn unit_floats_in_range_and_balanced() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut below_half = 0usize;
        for _ in 0..4000 {
            let x = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&x));
            if x < 0.5 {
                below_half += 1;
            }
        }
        assert!(
            (1600..2400).contains(&below_half),
            "biased: {below_half}/4000 below 0.5"
        );
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..2000 {
            let a = rng.gen_range(3..17u64);
            assert!((3..17).contains(&a));
            let b = rng.gen_range(-5..=5i64);
            assert!((-5..=5).contains(&b));
            let c = rng.gen_range(-8.0..8.0);
            assert!((-8.0..8.0).contains(&c));
            let d = rng.gen_range(0..1usize << 18);
            assert!(d < 1 << 18);
        }
    }

    #[test]
    fn bools_are_balanced() {
        let mut rng = StdRng::seed_from_u64(3);
        let ups = (0..4000).filter(|_| rng.gen::<bool>()).count();
        assert!((1600..2400).contains(&ups), "biased: {ups}/4000 true");
    }

    #[test]
    fn gen_bool_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..4000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((800..1200).contains(&hits), "p=0.25 drew {hits}/4000");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = rng.gen_range(5..5u32);
    }
}
