//! Graph k-coloring over seeded random graphs (Lucas-library extension,
//! paper Sec. VII.3).
//!
//! One-hot encoding: spin `x_{v,c}` means "vertex `v` takes color `c`".
//! Two penalty families, both zero exactly on proper colorings:
//!
//! ```text
//! H = A·Σ_v (1 − Σ_c x_{v,c})²  +  B·Σ_{(u,v)∈E} Σ_c x_{u,c}·x_{v,c}
//! ```
//!
//! The one-hot weight `A` defaults to `B·(deg_max + 1)` so dropping a
//! vertex out of its one-hot block can never pay for the conflicts it
//! hides. Decoding is total: any spin state maps to a coloring (lowest
//! set color bit, else color 0), and the domain metric — conflicting
//! edges under that repaired coloring — is defined for every machine
//! state, not only for valid one-hot ones.

use crate::corpus::SplitMix64;
use crate::encode::EncodeError;
use crate::qubo::{QuboBuilder, QuboProblem};
use crate::spec::{CopKind, Workload, WorkloadShape};
use sachi_ising::graph::IsingGraph;
use sachi_ising::spin::SpinVector;

/// A k-coloring instance: an undirected graph plus a color budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColoringInstance {
    n: usize,
    k: usize,
    edges: Vec<(usize, usize)>,
}

impl ColoringInstance {
    /// Creates an instance; edges are normalized to `(min, max)` order
    /// and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`, an endpoint is out of range, or an edge is a
    /// self-loop.
    pub fn new(n: usize, k: usize, mut edges: Vec<(usize, usize)>) -> Self {
        assert!(k >= 2, "need at least two colors");
        for edge in &mut edges {
            let (u, v) = *edge;
            assert!(u < n && v < n, "edge endpoint out of range");
            assert!(u != v, "self-loops not allowed");
            *edge = (u.min(v), u.max(v));
        }
        edges.sort_unstable();
        edges.dedup();
        ColoringInstance { n, k, edges }
    }

    /// An Erdős–Rényi `G(n, p)` instance with `p = density_bp / 10_000`,
    /// drawn from a SplitMix64 stream (same seed, same bytes, every run
    /// and thread).
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `density_bp > 10_000`.
    pub fn gnp(n: usize, k: usize, density_bp: u32, seed: u64) -> Self {
        assert!(density_bp <= 10_000, "density is in basis points");
        let mut rng = SplitMix64::new(seed);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.below(10_000) < u64::from(density_bp) {
                    edges.push((u, v));
                }
            }
        }
        ColoringInstance::new(n, k, edges)
    }

    /// A planted (guaranteed k-colorable) instance: vertices get hidden
    /// classes first and only cross-class pairs become edges, so the
    /// hidden classes are a proper coloring. Returns the instance and
    /// the planted classes.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `density_bp > 10_000`.
    pub fn planted(n: usize, k: usize, density_bp: u32, seed: u64) -> (Self, Vec<usize>) {
        assert!(k >= 2, "need at least two colors");
        assert!(density_bp <= 10_000, "density is in basis points");
        let mut rng = SplitMix64::new(seed);
        let classes: Vec<usize> = (0..n).map(|_| rng.below(k as u64) as usize).collect();
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if classes[u] != classes[v] && rng.below(10_000) < u64::from(density_bp) {
                    edges.push((u, v));
                }
            }
        }
        (ColoringInstance::new(n, k, edges), classes)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Color budget.
    pub fn num_colors(&self) -> usize {
        self.k
    }

    /// The normalized edge list.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Maximum vertex degree.
    pub fn max_degree(&self) -> usize {
        let mut degree = vec![0usize; self.n];
        for &(u, v) in &self.edges {
            degree[u] = degree[u].saturating_add(1);
            degree[v] = degree[v].saturating_add(1);
        }
        degree.into_iter().max().unwrap_or(0)
    }

    /// Number of monochromatic edges under `colors`.
    pub fn conflicts(&self, colors: &[usize]) -> usize {
        self.edges
            .iter()
            .filter(|&&(u, v)| colors[u] == colors[v])
            .count()
    }
}

/// The one-hot k-coloring QUBO over `n` vertices and `edges`: spin
/// `v·k + c` reads "vertex v has color c". Each vertex pays
/// `one_hot_weight·(Σ_c x_{v,c} − 1)²` and each edge
/// `conflict_weight·x_{u,c}·x_{v,c}` per color, so with positive weights
/// the QUBO is zero exactly on proper colorings. [`ColoringWorkload`] and
/// [`crate::lucas::coloring`] both encode through it.
///
/// # Errors
///
/// Returns [`EncodeError::CoefficientOverflow`] when a weight pushes an
/// accumulated coupling or field out of the `i32` range.
pub(crate) fn one_hot_coloring(
    n: usize,
    k: usize,
    edges: &[(usize, usize)],
    one_hot_weight: i64,
    conflict_weight: i64,
) -> Result<QuboProblem, EncodeError> {
    let idx = |v: usize, c: usize| v.saturating_mul(k).saturating_add(c);
    let mut q = QuboBuilder::new(n.saturating_mul(k));
    for v in 0..n {
        let block: Vec<usize> = (0..k).map(|c| idx(v, c)).collect();
        q.exactly_k_penalty(&block, 1, one_hot_weight);
    }
    for &(u, v) in edges {
        for c in 0..k {
            q.quadratic(idx(u, c), idx(v, c), conflict_weight);
        }
    }
    q.build()
}

/// A k-coloring instance encoded as an Ising problem (`n·k` one-hot
/// spins, vertex-major).
#[derive(Debug, Clone)]
pub struct ColoringWorkload {
    name: String,
    instance: ColoringInstance,
    problem: QuboProblem,
    one_hot_weight: i64,
    conflict_weight: i64,
}

impl ColoringWorkload {
    /// Encodes with the default weights: conflicts at 1, one-hot at
    /// `deg_max + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::CoefficientOverflow`] when a weight pushes
    /// an accumulated coupling or field out of the `i32` range.
    pub fn new(name: impl Into<String>, instance: ColoringInstance) -> Result<Self, EncodeError> {
        let a = (instance.max_degree() as i64).saturating_add(1);
        Self::with_weights(name, instance, a, 1)
    }

    /// Encodes with explicit penalty weights (the overflow regression
    /// tests drive this with adversarial values).
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::CoefficientOverflow`] as for
    /// [`ColoringWorkload::new`].
    ///
    /// # Panics
    ///
    /// Panics if either weight is non-positive.
    pub fn with_weights(
        name: impl Into<String>,
        instance: ColoringInstance,
        one_hot_weight: i64,
        conflict_weight: i64,
    ) -> Result<Self, EncodeError> {
        assert!(
            one_hot_weight > 0 && conflict_weight > 0,
            "penalty weights must be positive"
        );
        let problem = one_hot_coloring(
            instance.num_vertices(),
            instance.num_colors(),
            instance.edges(),
            one_hot_weight,
            conflict_weight,
        )?;
        Ok(ColoringWorkload {
            name: name.into(),
            instance,
            problem,
            one_hot_weight,
            conflict_weight,
        })
    }

    /// The underlying instance.
    pub fn instance(&self) -> &ColoringInstance {
        &self.instance
    }

    /// The encoded QUBO.
    pub fn problem(&self) -> &QuboProblem {
        &self.problem
    }

    /// The one-hot penalty weight `A`.
    pub fn one_hot_weight(&self) -> i64 {
        self.one_hot_weight
    }

    /// The conflict penalty weight `B`.
    pub fn conflict_weight(&self) -> i64 {
        self.conflict_weight
    }

    /// Total decoding: every vertex maps to its lowest set color bit, or
    /// color 0 when its block is empty — defined for any machine state.
    pub fn decode_colors(&self, spins: &SpinVector) -> Vec<usize> {
        let k = self.instance.num_colors();
        (0..self.instance.num_vertices())
            .map(|v| (0..k).find(|&c| spins.get(v * k + c).bit()).unwrap_or(0))
            .collect()
    }

    /// Vertices whose one-hot block does not hold exactly one set bit.
    pub fn one_hot_violations(&self, spins: &SpinVector) -> usize {
        let k = self.instance.num_colors();
        (0..self.instance.num_vertices())
            .filter(|&v| (0..k).filter(|&c| spins.get(v * k + c).bit()).count() != 1)
            .count()
    }

    /// Monochromatic edges under the repaired decoding.
    pub fn conflicts(&self, spins: &SpinVector) -> usize {
        self.instance.conflicts(&self.decode_colors(spins))
    }

    /// Lifts an explicit coloring to its one-hot spin state.
    ///
    /// # Panics
    ///
    /// Panics if a color is out of range or the coloring is the wrong
    /// length.
    pub fn encode_colors(&self, colors: &[usize]) -> SpinVector {
        let n = self.instance.num_vertices();
        let k = self.instance.num_colors();
        assert_eq!(colors.len(), n, "coloring must cover every vertex");
        let mut spins = SpinVector::filled(n.saturating_mul(k), sachi_ising::spin::Spin::Down);
        for (v, &c) in colors.iter().enumerate() {
            assert!(c < k, "color out of range");
            spins.set(
                v.saturating_mul(k).saturating_add(c),
                sachi_ising::spin::Spin::Up,
            );
        }
        spins
    }
}

impl Workload for ColoringWorkload {
    fn kind(&self) -> CopKind {
        CopKind::GraphColoring
    }

    fn name(&self) -> String {
        format!(
            "coloring({}, n={}, k={}, |E|={})",
            self.name,
            self.instance.num_vertices(),
            self.instance.num_colors(),
            self.instance.edges().len()
        )
    }

    fn graph(&self) -> &IsingGraph {
        self.problem.graph()
    }

    fn shape(&self) -> WorkloadShape {
        let graph = self.problem.graph();
        WorkloadShape::new(
            graph.num_spins() as u64,
            (graph.max_degree() as u64).max(1),
            graph.bits_required().max(2),
        )
    }

    /// Fraction of edges properly colored under the repaired decoding
    /// (1.0 on edgeless graphs).
    fn accuracy(&self, spins: &SpinVector) -> f64 {
        let edges = self.instance.edges().len();
        if edges == 0 {
            return 1.0;
        }
        1.0 - self.conflicts(spins) as f64 / edges as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sachi_ising::prelude::*;

    #[test]
    fn objective_matches_direct_penalty_evaluation() {
        let (inst, _) = ColoringInstance::planted(6, 3, 6_000, 3);
        let w = ColoringWorkload::new("unit", inst).unwrap();
        let n = w.instance().num_vertices();
        let k = w.instance().num_colors();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let spins = SpinVector::random(n * k, &mut rng);
            // Direct evaluation of the two penalty families.
            let mut expected = 0i64;
            for v in 0..n {
                let ones = (0..k).filter(|&c| spins.get(v * k + c).bit()).count() as i64;
                expected += w.one_hot_weight() * (1 - ones) * (1 - ones);
            }
            for &(u, v) in w.instance().edges() {
                for c in 0..k {
                    if spins.get(u * k + c).bit() && spins.get(v * k + c).bit() {
                        expected += w.conflict_weight();
                    }
                }
            }
            assert_eq!(w.problem().objective(&spins), expected);
        }
    }

    #[test]
    fn planted_classes_are_a_zero_energy_coloring() {
        let (inst, classes) = ColoringInstance::planted(10, 3, 5_000, 17);
        let w = ColoringWorkload::new("planted", inst).unwrap();
        let spins = w.encode_colors(&classes);
        assert_eq!(w.problem().objective(&spins), 0);
        assert_eq!(w.conflicts(&spins), 0);
        assert_eq!(w.one_hot_violations(&spins), 0);
        assert!((w.accuracy(&spins) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decode_repairs_any_state() {
        let inst = ColoringInstance::new(3, 3, vec![(0, 1), (1, 2)]);
        let w = ColoringWorkload::new("repair", inst).unwrap();
        // All-down state: every vertex repairs to color 0 -> all edges
        // conflict.
        let down = SpinVector::filled(9, Spin::Down);
        assert_eq!(w.decode_colors(&down), vec![0, 0, 0]);
        assert_eq!(w.conflicts(&down), 2);
        assert_eq!(w.one_hot_violations(&down), 3);
        assert!(w.accuracy(&down) < 1e-12);
        // Multi-hot picks the lowest set bit.
        let mut multi = down.clone();
        multi.set(1, Spin::Up); // vertex 0, color 1
        multi.set(2, Spin::Up); // vertex 0, color 2
        assert_eq!(w.decode_colors(&multi)[0], 1);
    }

    #[test]
    fn solver_colors_a_planted_graph() {
        let (inst, _) = ColoringInstance::planted(8, 3, 6_000, 23);
        let w = ColoringWorkload::new("solve", inst).unwrap();
        let graph = w.graph();
        let mut best = usize::MAX;
        for seed in 0..24 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = SpinVector::random(graph.num_spins(), &mut rng);
            let mut solver = CpuReferenceSolver::new();
            // Slower-than-default schedule: this asserts solution
            // quality, not convergence speed.
            let opts = SolveOptions {
                schedule: Schedule::new(
                    (2 * graph.max_abs_coefficient().max(1)) as f64,
                    0.95,
                    0.05,
                ),
                ..SolveOptions::for_graph(graph, seed + 40)
            };
            let r = solver.solve(graph, &init, &opts);
            best = best.min(w.conflicts(&r.spins));
        }
        assert_eq!(best, 0, "a planted 3-coloring must be reachable");
    }

    #[test]
    fn generator_is_deterministic_and_normalized() {
        let a = ColoringInstance::gnp(12, 3, 2_500, 4);
        let b = ColoringInstance::gnp(12, 3, 2_500, 4);
        assert_eq!(a, b);
        assert_ne!(a, ColoringInstance::gnp(12, 3, 2_500, 5));
        for &(u, v) in a.edges() {
            assert!(u < v, "edges normalized to (min, max)");
        }
        // Density extremes.
        assert!(ColoringInstance::gnp(10, 2, 0, 1).edges().is_empty());
        assert_eq!(ColoringInstance::gnp(10, 2, 10_000, 1).edges().len(), 45);
    }

    #[test]
    fn oversized_weights_overflow_loudly() {
        let inst = ColoringInstance::gnp(6, 3, 8_000, 2);
        let err = ColoringWorkload::with_weights("overflow", inst, i64::MAX / 2, 1)
            .expect_err("must not clamp");
        assert!(matches!(err, EncodeError::CoefficientOverflow { .. }));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_rejected() {
        let _ = ColoringInstance::new(3, 2, vec![(1, 1)]);
    }
}
