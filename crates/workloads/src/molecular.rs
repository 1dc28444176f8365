//! Molecular dynamics, Sec. V.2d: atomic spin states on a King's graph.
//!
//! "Given a set of atoms in a molecule connected as King's graph, this
//! identifies the atomic spin states in the lowest energy configuration" —
//! a ferromagnetic lattice where `J_ij` is the (positive) force of
//! attraction between neighboring atoms. The ground state is fully
//! aligned, which gives this COP an *exactly known* optimum: ideal for
//! accuracy calibration of every machine in the workspace.

use crate::quantize::quantize_to_bits;
use crate::spec::{CopKind, Workload, WorkloadShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sachi_ising::graph::{topology, IsingGraph};
use sachi_ising::spin::SpinVector;

/// A molecular-dynamics (King's-graph ferromagnet) instance.
#[derive(Debug, Clone)]
pub struct MolecularDynamics {
    rows: usize,
    cols: usize,
    graph: IsingGraph,
    resolution_bits: u32,
    total_bond_weight: i64,
    seed: u64,
}

impl MolecularDynamics {
    /// Builds a `rows x cols` lattice with the Fig. 4 default resolution
    /// (4-bit).
    ///
    /// # Panics
    ///
    /// Panics if the lattice has fewer than 2 atoms.
    pub fn new(rows: usize, cols: usize, seed: u64) -> Self {
        Self::with_resolution(
            rows,
            cols,
            seed,
            CopKind::MolecularDynamics.typical_resolution_bits(),
        )
    }

    /// Builds a lattice with explicit bond resolution. Ising-CIM
    /// comparisons use `bits = 2` (its hardware maximum).
    ///
    /// # Panics
    ///
    /// Panics if the lattice has fewer than 2 atoms or `bits` is outside
    /// `2..=32`.
    pub fn with_resolution(rows: usize, cols: usize, seed: u64, bits: u32) -> Self {
        assert!(rows * cols >= 2, "lattice must have at least 2 atoms");
        let mut rng = StdRng::seed_from_u64(seed);
        // Positive attraction strengths, one per undirected edge in
        // `topology::king`'s build order (right, down-left, down,
        // down-right from each cell), then quantize to R bits.
        let (down, across) = (rows.saturating_sub(1), cols.saturating_sub(1));
        let edges = rows
            .saturating_mul(across)
            .saturating_add(down.saturating_mul(cols))
            .saturating_add(down.saturating_mul(across).saturating_mul(2));
        let raw: Vec<i64> = (0..edges).map(|_| rng.gen_range(1..=1_000)).collect();
        let quantized = quantize_to_bits(&raw, bits);
        let mut k = 0usize;
        let graph = topology::king(rows, cols, |_, _| {
            let w = quantized[k].max(1);
            k = k.saturating_add(1);
            w
        })
        .expect("king lattice construction cannot fail");
        debug_assert_eq!(k, edges, "one strength per King's-graph edge");
        let total_bond_weight = graph.edges().map(|(_, _, w)| w as i64).sum();
        MolecularDynamics {
            rows,
            cols,
            graph,
            resolution_bits: bits,
            total_bond_weight,
            seed,
        }
    }

    /// Lattice rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Lattice columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The exactly known ground-state energy: `-Σ J` (all aligned).
    pub fn ground_energy(&self) -> i64 {
        -self.total_bond_weight
    }

    /// Weight of satisfied (aligned) bonds under `spins`.
    pub fn satisfied_bond_weight(&self, spins: &SpinVector) -> i64 {
        self.graph
            .edges()
            .filter(|&(i, j, _)| spins.get(i as usize) == spins.get(j as usize))
            .map(|(_, _, w)| w as i64)
            .sum()
    }
}

impl Workload for MolecularDynamics {
    fn kind(&self) -> CopKind {
        CopKind::MolecularDynamics
    }

    fn name(&self) -> String {
        format!(
            "molecular-dynamics({}x{}, R={}, seed={})",
            self.rows, self.cols, self.resolution_bits, self.seed
        )
    }

    fn graph(&self) -> &IsingGraph {
        &self.graph
    }

    fn shape(&self) -> WorkloadShape {
        WorkloadShape::new(
            (self.rows * self.cols) as u64,
            8.min((self.rows * self.cols - 1) as u64),
            self.resolution_bits,
        )
    }

    /// Fraction of bond weight satisfied — exactly 1.0 at the ground state.
    fn accuracy(&self, spins: &SpinVector) -> f64 {
        if self.total_bond_weight == 0 {
            return 1.0;
        }
        self.satisfied_bond_weight(spins) as f64 / self.total_bond_weight as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sachi_ising::prelude::*;

    #[test]
    fn bonds_are_positive_and_quantized() {
        let w = MolecularDynamics::new(5, 5, 1);
        let limit = (1 << (4 - 1)) - 1; // 4-bit max magnitude
        for (_, _, j) in w.graph().edges() {
            assert!(j >= 1 && j <= limit, "bond {j} outside [1, {limit}]");
        }
        assert_eq!(w.rows(), 5);
        assert_eq!(w.cols(), 5);
    }

    #[test]
    fn ground_state_is_all_aligned() {
        let w = MolecularDynamics::new(4, 4, 2);
        let up = SpinVector::filled(16, Spin::Up);
        let down = SpinVector::filled(16, Spin::Down);
        assert_eq!(energy(w.graph(), &up), w.ground_energy());
        assert_eq!(energy(w.graph(), &down), w.ground_energy());
        assert!((w.accuracy(&up) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solver_reaches_ground_state() {
        let w = MolecularDynamics::new(6, 6, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let init = SpinVector::random(36, &mut rng);
        // Best of a few restarts: single SA runs land in domain-wall
        // local optima now and then.
        let r = EnsembleRunner::new(4)
            .run_reference(w.graph(), &init, &SolveOptions::for_graph(w.graph(), 5))
            .into_best();
        assert!(r.converged);
        let acc = w.accuracy(&r.spins);
        assert!(acc > 0.98, "accuracy {acc}");
    }

    #[test]
    fn shape_is_kings_graph() {
        let w = MolecularDynamics::new(10, 10, 5);
        let s = w.shape();
        assert_eq!(s.spins, 100);
        assert_eq!(s.neighbors_per_spin, 8);
        assert_eq!(s.resolution_bits, 4);
        assert_eq!(w.graph().max_degree(), 8);
        assert_eq!(w.kind(), CopKind::MolecularDynamics);
        assert!(w.name().contains("10x10"));
    }

    #[test]
    fn accuracy_decreases_with_misaligned_spins() {
        let w = MolecularDynamics::new(4, 4, 6);
        let up = SpinVector::filled(16, Spin::Up);
        let mut one_flip = up.clone();
        one_flip.flip(5);
        assert!(w.accuracy(&one_flip) < w.accuracy(&up));
        assert!(w.accuracy(&one_flip) > 0.5);
    }

    #[test]
    fn two_bit_variant_for_ising_cim() {
        let w = MolecularDynamics::with_resolution(5, 5, 7, 2);
        for (_, _, j) in w.graph().edges() {
            assert_eq!(j, 1, "2-bit signed positive bonds can only be 1");
        }
        assert_eq!(w.shape().resolution_bits, 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = MolecularDynamics::new(6, 4, 11);
        let b = MolecularDynamics::new(6, 4, 11);
        assert_eq!(a.ground_energy(), b.ground_energy());
        assert_eq!(
            a.graph().edges().collect::<Vec<_>>(),
            b.graph().edges().collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_single_atom() {
        let _ = MolecularDynamics::new(1, 1, 0);
    }
}
