//! The Ising Hamiltonian and its local update rule (eqns. 1–3).
//!
//! * eqn. 1: `H = -Σ_ij J_ij σ_i σ_j - Σ_i h_i σ_i` (global energy);
//! * eqn. 2: `H_σ = Σ_j -J_ij σ_j - h_i` (local field of a target spin);
//! * eqn. 3: `σ_i := -1 if H_σ > 0, +1 if H_σ < 0, tie otherwise`.
//!
//! All sums run in `i64`, which cannot overflow for any graph this
//! simulator can hold (`|J| < 2^31`, degree < 2^32 is impossible within
//! addressable memory; practical instances stay far below `2^62`).

use crate::graph::IsingGraph;
use crate::spin::{Spin, SpinVector};

/// Global Hamiltonian energy of `spins` on `graph` (eqn. 1).
///
/// # Panics
///
/// Panics if `spins.len() != graph.num_spins()`.
pub fn energy(graph: &IsingGraph, spins: &SpinVector) -> i64 {
    assert_eq!(
        spins.len(),
        graph.num_spins(),
        "spin vector must match graph size"
    );
    let mut h = 0i64;
    for (i, j, w) in graph.edges() {
        h -= w as i64 * spins.get(i as usize).value() * spins.get(j as usize).value();
    }
    for i in 0..graph.num_spins() {
        h -= graph.field(i) as i64 * spins.get(i).value();
    }
    h
}

/// Local field `H_σ` of target spin `i` (eqn. 2).
///
/// # Panics
///
/// Panics if `i` is out of range or the spin vector size mismatches.
pub fn local_field(graph: &IsingGraph, spins: &SpinVector, i: usize) -> i64 {
    debug_assert_eq!(spins.len(), graph.num_spins());
    let mut h_sigma = -(graph.field(i) as i64);
    // Raw CSR slices: same canonical order as `graph.neighbors(i)`, but
    // without per-item iterator plumbing in the solver's hottest loop.
    let (neighbors, weights) = graph.neighbor_slices(i);
    for (&j, &w) in neighbors.iter().zip(weights.iter()) {
        h_sigma -= w as i64 * spins.get(j as usize).value();
    }
    h_sigma
}

/// The spin update rule (eqn. 3). `tie` is used when `H_σ == 0` (the paper
/// allows either; hardware keeps the current value, which is what callers
/// should pass).
#[inline]
pub fn update_rule(h_sigma: i64, tie: Spin) -> Spin {
    match h_sigma.cmp(&0) {
        std::cmp::Ordering::Greater => Spin::Down,
        std::cmp::Ordering::Less => Spin::Up,
        std::cmp::Ordering::Equal => tie,
    }
}

/// Energy change from flipping a spin at `sigma` whose local field is
/// `h_sigma`: `ΔH = 2 σ (Σ_j J_ij σ_j + h_i) = -2 σ H_σ`.
///
/// The one ΔH rule: the annealer's uphill cost, [`flip_delta`], and every
/// sweep body's running energy use it.
#[inline]
pub fn flip_cost(sigma: Spin, h_sigma: i64) -> i64 {
    -2 * sigma.value() * h_sigma
}

/// Energy change from flipping spin `i` in the current state
/// ([`flip_cost`] of its value and local field).
///
/// # Panics
///
/// Panics if `i` is out of range.
pub fn flip_delta(graph: &IsingGraph, spins: &SpinVector, i: usize) -> i64 {
    flip_cost(spins.get(i), local_field(graph, spins, i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{topology, GraphBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_spin(j: i32) -> IsingGraph {
        GraphBuilder::new(2).edge(0, 1, j).build().unwrap()
    }

    #[test]
    fn ferromagnetic_pair_prefers_alignment() {
        let g = two_spin(5);
        let aligned = SpinVector::from_spins(&[Spin::Up, Spin::Up]);
        let anti = SpinVector::from_spins(&[Spin::Up, Spin::Down]);
        assert_eq!(energy(&g, &aligned), -5);
        assert_eq!(energy(&g, &anti), 5);
    }

    #[test]
    fn antiferromagnetic_pair_prefers_antialignment() {
        let g = two_spin(-5);
        let aligned = SpinVector::from_spins(&[Spin::Up, Spin::Up]);
        let anti = SpinVector::from_spins(&[Spin::Up, Spin::Down]);
        assert_eq!(energy(&g, &aligned), 5);
        assert_eq!(energy(&g, &anti), -5);
    }

    #[test]
    fn field_contributes_linearly() {
        let g = GraphBuilder::new(1).field(0, 4).build().unwrap();
        assert_eq!(energy(&g, &SpinVector::from_spins(&[Spin::Up])), -4);
        assert_eq!(energy(&g, &SpinVector::from_spins(&[Spin::Down])), 4);
    }

    #[test]
    fn local_field_matches_definition() {
        // H_sigma(i) = -sum J sigma_j - h_i.
        let g = GraphBuilder::new(3)
            .edge(0, 1, 2)
            .edge(0, 2, -3)
            .field(0, 1)
            .build()
            .unwrap();
        let s = SpinVector::from_spins(&[Spin::Up, Spin::Up, Spin::Down]);
        // -2*(+1) - (-3)*(-1) - 1 = -2 - 3 - 1 = -6.
        assert_eq!(local_field(&g, &s, 0), -6);
    }

    #[test]
    fn update_rule_signs() {
        assert_eq!(update_rule(3, Spin::Up), Spin::Down);
        assert_eq!(update_rule(-3, Spin::Down), Spin::Up);
        assert_eq!(update_rule(0, Spin::Down), Spin::Down);
        assert_eq!(update_rule(0, Spin::Up), Spin::Up);
    }

    #[test]
    fn update_rule_never_increases_energy() {
        let g = topology::king(4, 4, |i, j| ((i * 7 + j * 13) % 9) as i32 - 4).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = SpinVector::random(16, &mut rng);
        for i in 0..16 {
            let before = energy(&g, &s);
            let new = update_rule(local_field(&g, &s, i), s.get(i));
            s.set(i, new);
            let after = energy(&g, &s);
            assert!(
                after <= before,
                "update on {i} raised energy {before} -> {after}"
            );
        }
    }

    #[test]
    fn flip_delta_matches_recomputation() {
        let g = topology::complete(6, |i, j| ((i + 2 * j) % 7) as i32 - 3).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut s = SpinVector::random(6, &mut rng);
        for i in 0..6 {
            let before = energy(&g, &s);
            let predicted = flip_delta(&g, &s, i);
            s.flip(i);
            let after = energy(&g, &s);
            assert_eq!(after - before, predicted, "delta mismatch at {i}");
        }
    }

    #[test]
    #[should_panic(expected = "spin vector must match")]
    fn mismatched_sizes_panic() {
        let g = two_spin(1);
        let s = SpinVector::filled(3, Spin::Up);
        let _ = energy(&g, &s);
    }
}
