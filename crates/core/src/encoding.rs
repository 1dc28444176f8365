//! The mixed encoding scheme of Sec. IV.C and Fig. 9.
//!
//! Spins `+1/-1` are encoded as bits `1/0`; interaction coefficients are
//! R-bit two's complement. The dot product `J_ij * σ_j` then reduces to a
//! bitwise XNOR that 8T SRAM computes in place (eqn. 4):
//!
//! ```text
//! J * σ = J XNOR σ        if σ = +1   (XNOR with 1 is identity)
//! J * σ = (J XNOR σ) + 1  if σ = -1   (XNOR with 0 is ~J; +1 completes
//!                                      two's-complement negation)
//! ```
//!
//! The reuse-aware variant (eqn. 5) drives the *target* spin `σ_i` on the
//! word-line instead of each neighbor `σ_j`, recovering `J * σ_j` from
//! `J XNOR σ_i` plus the equality bit `σ_i XNOR σ_j`:
//!
//! * spins equal   → use the XNOR output;
//! * spins differ  → use the XOR output (the complement);
//! * **+1 exactly when `σ_j = -1`** (i.e. cases 2 and 3 of eqn. 5).
//!
//! ### Erratum
//!
//! The paper's eqn. 5 places the "+1" on the `σ_i < 0` cases (2 and 4).
//! Two's-complement negation requires the "+1" whenever the *multiplicand*
//! `σ_j` is negative: case 2 (`σ_i < 0`, spins equal → `σ_j < 0`, +1
//! needed — agrees) and case 3 (`σ_i > 0`, spins differ → `σ_j < 0`, +1
//! needed — the paper omits it), while case 4 (`σ_i < 0`, spins differ →
//! `σ_j > +1`... `σ_j = +1`, no +1 needed — the paper adds one). The
//! property tests in this module check all four cases against plain signed
//! multiplication, which pins the corrected form.

use sachi_ising::spin::Spin;
use std::fmt;

/// Error from encoding operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodingError {
    /// Resolution outside the supported `2..=32` range.
    UnsupportedResolution {
        /// The requested resolution in bits.
        bits: u32,
    },
    /// A coefficient does not fit in the configured resolution.
    ValueOutOfRange {
        /// The offending value.
        value: i64,
        /// The configured resolution in bits.
        bits: u32,
    },
}

impl fmt::Display for EncodingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodingError::UnsupportedResolution { bits } => {
                write!(
                    f,
                    "unsupported IC resolution: {bits} bits (mixed encoding supports 2..=32)"
                )
            }
            EncodingError::ValueOutOfRange { value, bits } => {
                write!(
                    f,
                    "coefficient {value} does not fit in {bits}-bit two's complement"
                )
            }
        }
    }
}

impl std::error::Error for EncodingError {}

/// R-bit mixed encoding, reconfigurable from 2 to 32 bits ("upto signed
/// 32-bit", Fig. 3).
///
/// ```
/// use sachi_core::encoding::MixedEncoding;
/// use sachi_ising::spin::Spin;
///
/// let enc = MixedEncoding::new(9)?;
/// // Fig. 9's worked example: J = 135 (9'h087) times σ = -1 (bit 0):
/// assert_eq!(enc.xnor_product(135, Spin::Down), -135);
/// assert_eq!(enc.xnor_product(-135, Spin::Down), 135);
/// assert_eq!(enc.xnor_product(135, Spin::Up), 135);
/// # Ok::<(), sachi_core::encoding::EncodingError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MixedEncoding {
    bits: u32,
}

impl MixedEncoding {
    /// Creates an encoding of the given resolution.
    ///
    /// # Errors
    ///
    /// Returns [`EncodingError::UnsupportedResolution`] outside `2..=32`.
    pub fn new(bits: u32) -> Result<Self, EncodingError> {
        if !(2..=32).contains(&bits) {
            return Err(EncodingError::UnsupportedResolution { bits });
        }
        Ok(MixedEncoding { bits })
    }

    /// The resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Largest representable coefficient, `2^(R-1) - 1`.
    pub fn max_value(&self) -> i64 {
        (1i64 << (self.bits - 1)) - 1
    }

    /// Smallest representable coefficient, `-2^(R-1)`.
    pub fn min_value(&self) -> i64 {
        -(1i64 << (self.bits - 1))
    }

    /// Whether `value` is representable.
    pub fn in_range(&self, value: i64) -> bool {
        (self.min_value()..=self.max_value()).contains(&value)
    }

    /// Encodes `value` as two's-complement bits, LSB first — the column
    /// order the compute array stores an IC in.
    ///
    /// # Errors
    ///
    /// Returns [`EncodingError::ValueOutOfRange`] if `value` does not fit.
    pub fn encode(&self, value: i64) -> Result<Vec<bool>, EncodingError> {
        if !self.in_range(value) {
            return Err(EncodingError::ValueOutOfRange {
                value,
                bits: self.bits,
            });
        }
        let word = (value as u64) & self.mask();
        Ok((0..self.bits).map(|b| (word >> b) & 1 == 1).collect())
    }

    /// Encodes `value` as an LSB-aligned two's-complement word — the
    /// packed, allocation-free equivalent of [`MixedEncoding::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`EncodingError::ValueOutOfRange`] if `value` does not fit.
    pub fn encode_word(&self, value: i64) -> Result<u64, EncodingError> {
        if !self.in_range(value) {
            return Err(EncodingError::ValueOutOfRange {
                value,
                bits: self.bits,
            });
        }
        Ok((value as u64) & self.mask())
    }

    /// Decodes LSB-first two's-complement bits (sign-extending the MSB).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` differs from the configured resolution.
    pub fn decode(&self, bits: &[bool]) -> i64 {
        assert_eq!(
            bits.len() as u32,
            self.bits,
            "bit-slice width must equal the resolution"
        );
        let mut word = 0u64;
        for (b, &bit) in bits.iter().enumerate() {
            if bit {
                word |= 1 << b;
            }
        }
        self.decode_word(word)
    }

    /// Decodes a (masked) LSB-aligned word.
    pub fn decode_word(&self, word: u64) -> i64 {
        let word = word & self.mask();
        let sign = 1u64 << (self.bits - 1);
        if word & sign != 0 {
            (word as i64) - (1i64 << self.bits)
        } else {
            word as i64
        }
    }

    #[inline]
    fn mask(&self) -> u64 {
        if self.bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        }
    }

    /// Eqn. 4: computes `J * σ` from the XNOR of `J`'s bits with the spin
    /// bit, plus the conditional increment. Exact for every representable
    /// `J`, including `min_value` (the +1 result is carried into wider
    /// arithmetic, as the near-memory full adder does in hardware).
    pub fn xnor_product(&self, j: i64, sigma: Spin) -> i64 {
        let word = (j as u64) & self.mask();
        let broadcast = if sigma.bit() { u64::MAX } else { 0 };
        let xnor = !(word ^ broadcast) & self.mask();
        let mut value = self.decode_word(xnor);
        if sigma == Spin::Down {
            value += 1;
        }
        value
    }

    /// Eqn. 5 (corrected, see the module erratum): computes `J * σ_j` from
    /// the XNOR of `J` with the *target* spin `σ_i` plus the equality bit
    /// `σ_i XNOR σ_j`.
    pub fn reuse_aware_product(&self, j: i64, sigma_i: Spin, sigma_j: Spin) -> i64 {
        let word = (j as u64) & self.mask();
        let broadcast = if sigma_i.bit() { u64::MAX } else { 0 };
        let xnor = !(word ^ broadcast) & self.mask();
        let equal = sigma_i == sigma_j; // σ_i XNOR σ_j, computed in-array
        let selected = if equal { xnor } else { !xnor & self.mask() };
        let mut value = self.decode_word(selected);
        if sigma_j == Spin::Down {
            value += 1;
        }
        value
    }

    /// The *paper's* eqn. 5 verbatim (+1 on the `σ_i < 0` cases), retained
    /// so the erratum is checkable rather than asserted: this version is
    /// wrong exactly when the spins differ.
    pub fn reuse_aware_product_as_printed(&self, j: i64, sigma_i: Spin, sigma_j: Spin) -> i64 {
        let word = (j as u64) & self.mask();
        let broadcast = if sigma_i.bit() { u64::MAX } else { 0 };
        let xnor = !(word ^ broadcast) & self.mask();
        let equal = sigma_i == sigma_j;
        let selected = if equal { xnor } else { !xnor & self.mask() };
        let mut value = self.decode_word(selected);
        if sigma_i == Spin::Down {
            value += 1;
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn resolution_bounds() {
        assert!(MixedEncoding::new(1).is_err());
        assert!(MixedEncoding::new(33).is_err());
        for bits in 2..=32 {
            assert!(MixedEncoding::new(bits).is_ok());
        }
        let err = MixedEncoding::new(40).unwrap_err();
        assert!(format!("{err}").contains("40"));
    }

    #[test]
    fn encode_decode_roundtrip_all_4bit_values() {
        let enc = MixedEncoding::new(4).unwrap();
        assert_eq!(enc.max_value(), 7);
        assert_eq!(enc.min_value(), -8);
        for v in -8..=7i64 {
            let bits = enc.encode(v).unwrap();
            assert_eq!(bits.len(), 4);
            assert_eq!(enc.decode(&bits), v, "roundtrip of {v}");
        }
        assert!(enc.encode(8).is_err());
        assert!(enc.encode(-9).is_err());
    }

    #[test]
    fn fig9_worked_rows() {
        // Fig. 9: R=9 with J = ±135, R=3 with J = ±3, against σ = ±1.
        let enc9 = MixedEncoding::new(9).unwrap();
        // 135 = 9'h087, -135 = 9'h179.
        assert_eq!(
            enc9.encode(135)
                .unwrap()
                .iter()
                .rev()
                .fold(0u64, |a, &b| a << 1 | b as u64),
            0x087
        );
        assert_eq!(
            enc9.encode(-135)
                .unwrap()
                .iter()
                .rev()
                .fold(0u64, |a, &b| a << 1 | b as u64),
            0x179
        );
        assert_eq!(enc9.xnor_product(135, Spin::Down), -135);
        assert_eq!(enc9.xnor_product(-135, Spin::Down), 135);
        assert_eq!(enc9.xnor_product(135, Spin::Up), 135);
        assert_eq!(enc9.xnor_product(-135, Spin::Up), -135);
        let enc3 = MixedEncoding::new(3).unwrap();
        // 3 = 3'h3, -3 = 3'h5.
        assert_eq!(
            enc3.encode(-3)
                .unwrap()
                .iter()
                .rev()
                .fold(0u64, |a, &b| a << 1 | b as u64),
            0x5
        );
        assert_eq!(enc3.xnor_product(3, Spin::Down), -3);
        assert_eq!(enc3.xnor_product(-3, Spin::Down), 3);
    }

    #[test]
    fn min_value_negation_carries_out() {
        // -(-8) = +8 does not fit in 4 bits; the near-memory adder carries
        // it into wider arithmetic.
        let enc = MixedEncoding::new(4).unwrap();
        assert_eq!(enc.xnor_product(-8, Spin::Down), 8);
        assert_eq!(enc.reuse_aware_product(-8, Spin::Up, Spin::Down), 8);
    }

    #[test]
    fn reuse_aware_covers_all_four_cases() {
        let enc = MixedEncoding::new(8).unwrap();
        let j = 77;
        for (si, sj) in [
            (Spin::Up, Spin::Up),
            (Spin::Down, Spin::Down),
            (Spin::Up, Spin::Down),
            (Spin::Down, Spin::Up),
        ] {
            assert_eq!(
                enc.reuse_aware_product(j, si, sj),
                j * sj.value(),
                "case ({si}, {sj})"
            );
        }
    }

    #[test]
    fn paper_eqn5_is_wrong_exactly_when_spins_differ() {
        let enc = MixedEncoding::new(8).unwrap();
        let j = 42;
        // Equal spins: printed form agrees with the corrected form.
        for s in [Spin::Up, Spin::Down] {
            assert_eq!(
                enc.reuse_aware_product_as_printed(j, s, s),
                enc.reuse_aware_product(j, s, s)
            );
        }
        // Differing spins: printed form is off by one.
        for (si, sj) in [(Spin::Up, Spin::Down), (Spin::Down, Spin::Up)] {
            let printed = enc.reuse_aware_product_as_printed(j, si, sj);
            let correct = enc.reuse_aware_product(j, si, sj);
            assert_ne!(printed, correct);
            assert_eq!((printed - correct).abs(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "bit-slice width")]
    fn decode_rejects_wrong_width() {
        let enc = MixedEncoding::new(4).unwrap();
        let _ = enc.decode(&[true, false]);
    }

    #[test]
    fn thirty_two_bit_extremes() {
        let enc = MixedEncoding::new(32).unwrap();
        assert_eq!(enc.max_value(), i32::MAX as i64);
        assert_eq!(enc.min_value(), i32::MIN as i64);
        assert_eq!(
            enc.xnor_product(i32::MAX as i64, Spin::Down),
            -(i32::MAX as i64)
        );
        assert_eq!(
            enc.xnor_product(i32::MIN as i64, Spin::Down),
            -(i32::MIN as i64)
        );
    }

    proptest! {
        #[test]
        fn xnor_product_equals_multiplication(bits in 2u32..=32, j in any::<i64>(), sigma in any::<bool>()) {
            let enc = MixedEncoding::new(bits).unwrap();
            let j = j.rem_euclid(enc.max_value() - enc.min_value() + 1) + enc.min_value();
            let sigma = Spin::from_bit(sigma);
            prop_assert!(enc.in_range(j));
            prop_assert_eq!(enc.xnor_product(j, sigma), j * sigma.value());
        }

        #[test]
        fn reuse_aware_equals_multiplication(
            bits in 2u32..=32,
            j in any::<i64>(),
            si in any::<bool>(),
            sj in any::<bool>(),
        ) {
            let enc = MixedEncoding::new(bits).unwrap();
            let j = j.rem_euclid(enc.max_value() - enc.min_value() + 1) + enc.min_value();
            let (si, sj) = (Spin::from_bit(si), Spin::from_bit(sj));
            prop_assert_eq!(enc.reuse_aware_product(j, si, sj), j * sj.value());
        }

        #[test]
        fn encode_decode_roundtrip(bits in 2u32..=32, v in any::<i64>()) {
            let enc = MixedEncoding::new(bits).unwrap();
            let v = v.rem_euclid(enc.max_value() - enc.min_value() + 1) + enc.min_value();
            let encoded = enc.encode(v).unwrap();
            prop_assert_eq!(enc.decode(&encoded), v);
        }

        #[test]
        fn spin_bit_encoding_roundtrip(bit in any::<bool>()) {
            // The paper's ±1 -> 1/0 storage convention: +1 is bit 1, -1 is
            // bit 0, and the mapping inverts losslessly in both directions.
            let sigma = Spin::from_bit(bit);
            prop_assert_eq!(sigma.bit(), bit);
            prop_assert_eq!(Spin::from_bit(sigma.bit()), sigma);
            prop_assert_eq!(sigma.value(), if bit { 1 } else { -1 });
            prop_assert_eq!((-sigma).bit(), !bit);
        }

        #[test]
        fn encode_word_matches_bitwise_encode(bits in 2u32..=32, v in any::<i64>()) {
            let enc = MixedEncoding::new(bits).unwrap();
            let v = v.rem_euclid(enc.max_value() - enc.min_value() + 1) + enc.min_value();
            let word = enc.encode_word(v).unwrap();
            let bools = enc.encode(v).unwrap();
            for (b, &bit) in bools.iter().enumerate() {
                prop_assert_eq!((word >> b) & 1 == 1, bit);
            }
            prop_assert_eq!(enc.decode_word(word), v);
            prop_assert!(enc.encode_word(enc.max_value() + 1).is_err());
        }

        #[test]
        fn decode_word_agrees_with_bitwise_decode(bits in 2u32..=32, word in any::<u64>()) {
            let enc = MixedEncoding::new(bits).unwrap();
            let lanes: Vec<bool> = (0..bits).map(|b| (word >> b) & 1 == 1).collect();
            prop_assert_eq!(enc.decode(&lanes), enc.decode_word(word));
        }
    }
}
