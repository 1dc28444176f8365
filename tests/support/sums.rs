//! The recompute oracle for the kernel's maintained tuple sums.
//!
//! `TuplePlanes` builds each tuple's `TupleSums` once and the update path
//! keeps them current one edge at a time. [`recompute`] derives the same
//! sums from scratch out of the tuple — its couplings encoded bit by
//! bit through `MixedEncoding::encode` and its neighbour-spin copies — so
//! a drift in any one sum shows up by name rather than only through the
//! kernel's ledger. `tests/plane_equivalence.rs` includes this file on
//! its own (`#[path]`), so the suites that pull in `support` are
//! unaffected.

use sachi::arch::encoding::MixedEncoding;
use sachi::arch::tuple::{SpinTuple, TupleSums};
use sachi::ising::spin::Spin;

/// The sums of `tuple` at `enc`'s resolution, recomputed from its
/// copies.
///
/// # Panics
///
/// Panics if a coupling does not fit `enc`.
pub fn recompute(enc: &MixedEncoding, tuple: SpinTuple<'_>) -> TupleSums {
    let r = u64::from(enc.bits());
    let mut sums = TupleSums {
        h: tuple.local_field(),
        n: tuple.degree() as u64,
        ..TupleSums::default()
    };
    for (&j, s) in tuple.couplings().iter().zip(tuple.neighbor_spins()) {
        let bits = enc
            .encode(i64::from(j))
            .expect("coupling fits the resolution");
        let ones = bits.iter().filter(|&&b| b).count() as u64;
        sums.ones += ones;
        if s == Spin::Up {
            sums.up += 1;
            sums.matches += ones;
        } else {
            sums.matches += r - ones;
        }
    }
    sums
}
