//! Chunked u64-lane kernels: the portable SIMD layer under the designs'
//! word-parallel compute kernels.
//!
//! The compute kernels in [`crate::sram`] and the bulk decode in
//! `sachi-core` all reduce to the same two word-level primitives — XNOR a
//! stored word against a drive word, and popcount a span of words. This
//! module implements both over explicit 4-lane `u64` chunks with
//! independent accumulators, which is the stable-Rust equivalent of
//! `std::simd`: the chunking removes the loop-carried dependence so the
//! compiler can keep four `popcnt`/`xor` streams in flight (and
//! autovectorize where the target allows).
//!
//! Everything here is bit-exact by construction — the chunked loops
//! compute the same words in the same two's-complement arithmetic as a
//! naive per-word loop, only the association of the *counters* changes,
//! and integer addition is associative.

/// Lanes processed per unrolled chunk.
const LANES: usize = 4;

/// Population count over a word span, accumulated in [`LANES`] independent
/// streams.
#[must_use]
pub fn popcount(words: &[u64]) -> u64 {
    let mut acc = [0u64; LANES];
    let mut chunks = words.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (a, &w) in acc.iter_mut().zip(chunk.iter()) {
            *a += u64::from(w.count_ones());
        }
    }
    let mut total: u64 = acc.iter().sum();
    for &w in chunks.remainder() {
        total += u64::from(w.count_ones());
    }
    total
}

/// Writes `!(stored[i] ^ drive[i])` into `out[i]` for the common span of
/// the three slices, returning the number of words processed. The caller
/// masks edge words itself — this kernel is the full-word inner run.
pub fn xnor_into(stored: &[u64], drive: &[u64], out: &mut [u64]) -> usize {
    let n = stored.len().min(drive.len()).min(out.len());
    let mut i = 0;
    while i + LANES <= n {
        // Four independent XNOR streams per iteration.
        out[i] = !(stored[i] ^ drive[i]);
        out[i + 1] = !(stored[i + 1] ^ drive[i + 1]);
        out[i + 2] = !(stored[i + 2] ^ drive[i + 2]);
        out[i + 3] = !(stored[i + 3] ^ drive[i + 3]);
        i += LANES;
    }
    while i < n {
        out[i] = !(stored[i] ^ drive[i]);
        i += 1;
    }
    n
}

/// Writes `!(stored[i] ^ broadcast)` into `out[i]` for the common span —
/// the single-drive-bit variant of [`xnor_into`] used by the row-pulse
/// kernels, where one word-line value fans out across the whole row.
pub fn xnor_broadcast_into(stored: &[u64], broadcast: u64, out: &mut [u64]) -> usize {
    let n = stored.len().min(out.len());
    let mut i = 0;
    while i + LANES <= n {
        out[i] = !(stored[i] ^ broadcast);
        out[i + 1] = !(stored[i + 1] ^ broadcast);
        out[i + 2] = !(stored[i + 2] ^ broadcast);
        out[i + 3] = !(stored[i + 3] ^ broadcast);
        i += LANES;
    }
    while i < n {
        out[i] = !(stored[i] ^ broadcast);
        i += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn popcount_empty_is_zero() {
        assert_eq!(popcount(&[]), 0);
    }

    #[test]
    fn xnor_into_empty_spans() {
        let mut out = [0u64; 2];
        assert_eq!(xnor_into(&[], &[1, 2], &mut out), 0);
        assert_eq!(out, [0, 0]);
    }

    proptest! {
        #[test]
        fn popcount_matches_per_word_sum(words in prop::collection::vec(any::<u64>(), 0..40)) {
            let naive: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
            prop_assert_eq!(popcount(&words), naive);
        }

        #[test]
        fn xnor_into_matches_per_word(
            stored in prop::collection::vec(any::<u64>(), 0..24),
            drive in prop::collection::vec(any::<u64>(), 0..24),
        ) {
            let n = stored.len().min(drive.len());
            let mut out = vec![0u64; n];
            prop_assert_eq!(xnor_into(&stored, &drive, &mut out), n);
            for i in 0..n {
                prop_assert_eq!(out[i], !(stored[i] ^ drive[i]));
            }
        }

        #[test]
        fn xnor_broadcast_matches_per_word(
            stored in prop::collection::vec(any::<u64>(), 0..24),
            broadcast in any::<u64>(),
        ) {
            let mut out = vec![0u64; stored.len()];
            prop_assert_eq!(xnor_broadcast_into(&stored, broadcast, &mut out), stored.len());
            for i in 0..stored.len() {
                prop_assert_eq!(out[i], !(stored[i] ^ broadcast));
            }
        }
    }
}
