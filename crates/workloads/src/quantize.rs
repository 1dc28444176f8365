//! Quantization of real-valued problem coefficients to R-bit signed ICs.
//!
//! SACHI's mixed encoding is reconfigurable to any resolution up to 32-bit
//! (Sec. IV.C); Fig. 19c/d studies what happens to convergence and
//! accuracy as `R` shrinks. This module is the single place where raw
//! domain quantities (dollars, pixel differences, distances, bond
//! strengths) become R-bit interaction coefficients, so every workload
//! degrades under exactly the same rule.

/// Quantizes `values` to signed `bits`-bit integers, preserving sign and
/// relative magnitude.
///
/// The largest magnitude maps to `2^(bits-1) - 1`; non-zero inputs are kept
/// non-zero (rounded away from zero to at least ±1) so that quantization
/// never erases a constraint entirely.
///
/// ```
/// use sachi_workloads::quantize::quantize_to_bits;
/// let q = quantize_to_bits(&[1000, -500, 10, 0], 4);
/// assert_eq!(q, vec![7, -3, 1, 0]); // max magnitude -> 7 = 2^3 - 1
/// ```
///
/// # Panics
///
/// Panics if `bits` is outside `2..=32`.
pub fn quantize_to_bits(values: &[i64], bits: u32) -> Vec<i32> {
    assert!(
        (2..=32).contains(&bits),
        "resolution must be 2..=32 bits, got {bits}"
    );
    let max_abs = values.iter().map(|v| v.abs()).max().unwrap_or(0);
    if max_abs == 0 {
        return vec![0; values.len()];
    }
    let limit = (1i64 << (bits - 1)) - 1;
    values
        .iter()
        .map(|&v| {
            if v == 0 {
                return 0;
            }
            // The quotient is the same in either width; `i64` divides
            // faster, and `i128` only takes a product that overflows it.
            let mut q = match v.checked_mul(limit) {
                Some(product) => product / max_abs,
                None => ((v as i128 * limit as i128) / max_abs as i128) as i64,
            };
            if q == 0 {
                q = v.signum();
            }
            q as i32
        })
        .collect()
}

/// Quantization error as a normalized L1 distance in `[0, 1]`:
/// `Σ |v/maxv - q/maxq| / n`. Useful for asserting that more bits means
/// less error.
pub fn quantization_error(values: &[i64], quantized: &[i32]) -> f64 {
    assert_eq!(values.len(), quantized.len(), "length mismatch");
    if values.is_empty() {
        return 0.0;
    }
    let max_v = values.iter().map(|v| v.abs()).max().unwrap_or(0).max(1) as f64;
    let max_q = quantized
        .iter()
        .map(|q| (*q as i64).abs())
        .max()
        .unwrap_or(0)
        .max(1) as f64;
    let sum: f64 = values
        .iter()
        .zip(quantized.iter())
        .map(|(&v, &q)| (v as f64 / max_v - q as f64 / max_q).abs())
        .sum();
    sum / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_magnitude_maps_to_limit() {
        let q = quantize_to_bits(&[100, -100, 50], 8);
        assert_eq!(q[0], 127);
        assert_eq!(q[1], -127);
        assert_eq!(q[2], 63);
    }

    #[test]
    fn nonzero_inputs_stay_nonzero() {
        let q = quantize_to_bits(&[1_000_000, 1, -1], 2);
        assert_eq!(q[0], 1); // 2-bit signed limit is 1
        assert_eq!(q[1], 1);
        assert_eq!(q[2], -1);
    }

    #[test]
    fn zeros_stay_zero() {
        assert_eq!(quantize_to_bits(&[0, 0], 8), vec![0, 0]);
        assert_eq!(quantize_to_bits(&[], 8), Vec::<i32>::new());
    }

    #[test]
    fn more_bits_less_error() {
        let values: Vec<i64> = (1..200).map(|i| i * 37 % 1999).collect();
        let mut last = f64::INFINITY;
        for bits in [2, 4, 8, 16] {
            let q = quantize_to_bits(&values, bits);
            let err = quantization_error(&values, &q);
            assert!(
                err <= last + 1e-12,
                "error grew at {bits} bits: {err} > {last}"
            );
            last = err;
        }
        // 16-bit on values < 2000 is lossless up to rounding.
        assert!(last < 1e-3, "16-bit error too large: {last}");
    }

    #[test]
    fn idempotent_at_sufficient_bits() {
        let values = [3i64, -7, 12, 0];
        let q = quantize_to_bits(&values, 16);
        // Relative magnitudes preserved exactly after rescaling.
        let limit = ((1i64 << 15) - 1) as f64;
        for (v, q) in values.iter().zip(q.iter()) {
            let expected = (*v as f64) * limit / 12.0;
            assert!((expected - *q as f64).abs() <= 1.0, "{v} -> {q}");
        }
    }

    #[test]
    #[should_panic(expected = "resolution must be")]
    fn rejects_33_bits() {
        let _ = quantize_to_bits(&[1], 33);
    }

    #[test]
    fn handles_i64_extremes_without_overflow() {
        let q = quantize_to_bits(&[i64::MAX, i64::MAX / 2, -(i64::MAX / 4)], 8);
        assert_eq!(q[0], 127);
        assert_eq!(q[1], 63);
        assert_eq!(q[2], -31);
    }

    /// Products that fit `i64` divide there, the rest in `i128`; either
    /// way each value quantizes to the `i128` quotient.
    #[test]
    fn both_widths_give_the_wide_quotient() {
        let values = [
            i64::MAX,
            i64::MAX / 3,
            1 << 40,
            -(1 << 33) - 7,
            123_456_789,
            -5,
            1,
        ];
        for bits in [2, 8, 17, 32] {
            let limit = i128::from((1i64 << (bits - 1)) - 1);
            let max_abs = i128::from(i64::MAX);
            let want: Vec<i32> = values
                .iter()
                .map(|&v| match (i128::from(v) * limit / max_abs) as i32 {
                    0 => v.signum() as i32,
                    q => q,
                })
                .collect();
            assert_eq!(quantize_to_bits(&values, bits), want, "{bits} bits");
        }
    }
}
