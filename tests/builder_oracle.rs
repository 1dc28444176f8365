//! The production problem builders against their map-based oracle
//! (`support/builders.rs`): for random term and edge sequences, the
//! production `QuboBuilder` and `GraphBuilder::build` must return the
//! oracle's CSR, its `Err` value, and its objective at every spin
//! assignment.
//!
//! The sequences are built to hit what a single sort-merge can get
//! wrong: a pair repeated and supplied reversed as `(j, i)`, repeats
//! that cancel to zero, values at and around the `i32` and `i64`
//! bounds (where saturation order and the coefficient checks decide the
//! result), out-of-range and self-loop edges, and `i32::MIN`
//! coefficients.

#[path = "support/builders.rs"]
mod builders;

use builders::{build_graph, Csr, OracleQubo};
use proptest::prelude::*;
use sachi::ising::graph::GraphBuilder;
use sachi::ising::spin::{Spin, SpinVector};
use sachi::workloads::qubo::QuboBuilder;

/// Coefficients at and around the interesting bounds.
const EDGE_VALUES: [i64; 14] = [
    i64::MIN,
    i64::MIN + 1,
    i64::MIN / 2,
    -(1 << 32),
    -(1 << 31) - 1,
    -(1 << 31),
    -(1 << 31) + 1,
    (1 << 31) - 1,
    1 << 31,
    (1 << 31) + 1,
    1 << 32,
    i64::MAX / 2,
    i64::MAX - 1,
    i64::MAX,
];

/// A coefficient: small most of the time, a bound value otherwise.
fn coefficient(select: u8, small: i64) -> i64 {
    match select {
        0..=11 => small,
        s => EDGE_VALUES[usize::from(s - 12) % EDGE_VALUES.len()],
    }
}

/// Every assignment of `n` spins (`n` stays small here).
fn assignments(n: usize) -> impl Iterator<Item = SpinVector> {
    (0..1u32 << n).map(move |mask| (0..n).map(|b| Spin::from_bit(mask >> b & 1 == 1)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The flat-list QUBO build equals the map-based one: same couplings
    /// and fields, same error, same objective everywhere.
    #[test]
    fn qubo_builder_matches_the_map_oracle(
        n in 2usize..7,
        ops in prop::collection::vec(
            (0u8..10, 0usize..7, 0usize..7, 0u8..26, -6i64..7),
            0..40,
        ),
    ) {
        let mut production = QuboBuilder::new(n);
        let mut oracle = OracleQubo::new(n);
        let mut last = (0, 1, 0i64);
        for &(op, a, b, select, small) in &ops {
            let (i, j) = (a % n, b % n);
            let c = coefficient(select, small);
            match op {
                // A repeat of the last pair, reversed, cancelling it.
                0 => {
                    let (i, j, c) = last;
                    production.quadratic(j, i, c.saturating_neg());
                    oracle.quadratic(j, i, c.saturating_neg());
                }
                // A repeat of the last pair, reversed, with a new value.
                1 => {
                    production.quadratic(last.1, last.0, c);
                    oracle.quadratic(last.1, last.0, c);
                }
                2 | 3 => {
                    production.linear(i, c);
                    oracle.linear(i, c);
                }
                4 => {
                    production.constant(c);
                    oracle.constant(c);
                }
                _ => {
                    let j = if i == j { (i + 1) % n } else { j };
                    production.quadratic(i, j, c);
                    oracle.quadratic(i, j, c);
                    last = (i, j, c);
                }
            }
        }
        match (production.build(), oracle.build()) {
            (Ok(p), Ok(o)) => {
                prop_assert_eq!(Csr::of(p.graph()), o.csr.clone());
                for spins in assignments(n) {
                    prop_assert_eq!(p.objective(&spins), o.objective(&spins));
                }
            }
            (p, o) => prop_assert_eq!(p.err(), o.err()),
        }
    }

    /// The one-sort CSR fill equals the per-row-sorted one, and the
    /// error precedence is the oracle's.
    #[test]
    fn graph_builder_matches_the_row_sorting_oracle(
        n in 1usize..9,
        edges in prop::collection::vec((0u32..10, 0u32..10, 0u8..30, -9i32..10), 0..12),
        fields in prop::collection::vec((0u32..9, 0u8..30, -9i32..10), 0..4),
    ) {
        // Endpoints in range but one draw in ten, so duplicates and
        // self-loops are common and out-of-range faults still occur.
        let vertex = |raw: u32| if raw < 9 { raw % n as u32 } else { n as u32 + raw };
        let weight = |select: u8, small: i32| match select {
            0..=26 => small,
            27 => i32::MIN,
            28 => i32::MIN + 1,
            _ => i32::MAX,
        };
        let edges: Vec<(u32, u32, i32)> = edges
            .iter()
            .map(|&(i, j, s, w)| (vertex(i), vertex(j), weight(s, w)))
            .collect();
        let mut field_values = vec![0i32; n];
        for &(v, s, h) in &fields {
            field_values[v as usize % n] = weight(s, h);
        }
        let mut builder = GraphBuilder::new(n);
        for &(i, j, w) in &edges {
            builder.push_edge(i, j, w);
        }
        for (v, &h) in field_values.iter().enumerate() {
            builder = builder.field(v as u32, h);
        }
        let oracle = build_graph(n, &edges, &field_values);
        match builder.build() {
            Ok(g) => prop_assert_eq!(Ok(Csr::of(&g)), oracle),
            Err(e) => prop_assert_eq!(Err(e), oracle),
        }
    }
}

/// Dense, duplicate-heavy sequences on more spins than the proptests
/// enumerate: the merge must fold long runs in insertion order.
#[test]
fn long_runs_of_repeats_fold_in_insertion_order() {
    let n = 40;
    let mut production = QuboBuilder::new(n);
    let mut oracle = OracleQubo::new(n);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for k in 0..6_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let (i, j) = ((x % 40) as usize, ((x >> 8) % 40) as usize);
        if i == j {
            continue;
        }
        // Every 97th term is near i64::MAX, so some pairs saturate and
        // then come back down: the fold order decides where they end.
        let c = if k % 97 == 0 {
            i64::MAX - 3
        } else {
            (x >> 20) as i64 % 9 - 4
        };
        production.quadratic(i, j, c);
        oracle.quadratic(i, j, c);
    }
    match (production.build(), oracle.build()) {
        (Ok(p), Ok(o)) => assert_eq!(Csr::of(p.graph()), o.csr),
        (p, o) => assert_eq!(p.err(), o.err()),
    }
    // The same stream without the saturating terms builds, and agrees.
    let mut production = QuboBuilder::new(n);
    let mut oracle = OracleQubo::new(n);
    for k in 0..6_000usize {
        let (i, j) = ((k * 7) % n, (k * 13 + 1) % n);
        if i == j {
            continue;
        }
        let c = (k % 11) as i64 - 5;
        production.quadratic(i, j, c).linear(i, 1);
        oracle.quadratic(i, j, c);
        oracle.linear(i, 1);
    }
    let (p, o) = (production.build().unwrap(), oracle.build().unwrap());
    assert_eq!(Csr::of(p.graph()), o.csr);
    let mut x = 7u64;
    for _ in 0..64 {
        let spins: SpinVector = (0..n)
            .map(|b| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(b as u64);
                Spin::from_bit(x >> 63 == 1)
            })
            .collect();
        assert_eq!(p.objective(&spins), o.objective(&spins));
    }
}
