//! A library of Ising formulations for classic NP problems, after Lucas,
//! "Ising formulations of many NP problems" (the paper’s reference \[11\]
//! and its Sec. VII.3 "extending the library to support Ising
//! formulation of COPs").
//!
//! Each formulation builds on [`crate::qubo::QuboBuilder`] and carries a
//! decoder plus a validity/quality check, so any Ising machine in the
//! workspace can solve it and be scored exactly.

use crate::coloring::one_hot_coloring;
use crate::encode::EncodeError;
use crate::qubo::{QuboBuilder, QuboProblem};
use sachi_ising::spin::SpinVector;

/// An undirected input graph for the formulations (edge list over
/// `0..n`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputGraph {
    n: usize,
    edges: Vec<(usize, usize)>,
}

impl InputGraph {
    /// Creates an input graph.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or self-loops.
    pub fn new(n: usize, edges: Vec<(usize, usize)>) -> Self {
        for &(u, v) in &edges {
            assert!(u < n && v < n, "edge endpoint out of range");
            assert!(u != v, "self-loops not allowed");
        }
        InputGraph { n, edges }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// The edge list.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// A cycle graph `C_n`.
    pub fn cycle(n: usize) -> Self {
        InputGraph::new(n, (0..n).map(|i| (i, (i + 1) % n)).collect())
    }

    /// The complete graph `K_n`.
    pub fn complete(n: usize) -> Self {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u, v));
            }
        }
        InputGraph::new(n, edges)
    }

    /// The Petersen graph (10 vertices, 3-regular, chromatic number 3,
    /// minimum vertex cover 6) — a classic test instance.
    pub fn petersen() -> Self {
        let outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
        let spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)];
        let inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)];
        InputGraph::new(10, outer.into_iter().chain(spokes).chain(inner).collect())
    }
}

/// Max-cut: one spin per vertex; the Ising ground state maximizes the
/// number of edges with differing endpoints.
///
/// QUBO: minimize `Σ_(u,v)∈E  -(x_u + x_v - 2 x_u x_v)`.
///
/// # Errors
///
/// Propagates [`EncodeError`].
pub fn max_cut(input: &InputGraph) -> Result<QuboProblem, EncodeError> {
    let mut q = QuboBuilder::new(input.num_vertices());
    for &(u, v) in input.edges() {
        q.linear(u, -1).linear(v, -1).quadratic(u, v, 2);
    }
    q.build()
}

/// Number of cut edges under an assignment.
pub fn cut_size(input: &InputGraph, spins: &SpinVector) -> usize {
    input
        .edges()
        .iter()
        .filter(|&&(u, v)| spins.get(u) != spins.get(v))
        .count()
}

/// Minimum vertex cover: select (`x = 1`) a minimum set of vertices
/// touching every edge.
///
/// QUBO: minimize `Σ_v x_v + P Σ_(u,v)∈E (1 - x_u)(1 - x_v)` with the
/// penalty `P` exceeding the largest possible saving (here `P = 2`
/// suffices since removing one vertex saves 1 and can expose at most its
/// incident edges... we use the standard `P = 2`).
///
/// # Errors
///
/// Propagates [`EncodeError`].
pub fn vertex_cover(input: &InputGraph) -> Result<QuboProblem, EncodeError> {
    const P: i64 = 2;
    let mut q = QuboBuilder::new(input.num_vertices());
    for v in 0..input.num_vertices() {
        q.linear(v, 1);
    }
    for &(u, v) in input.edges() {
        // (1 - x_u)(1 - x_v) = 1 - x_u - x_v + x_u x_v
        q.constant(P).linear(u, -P).linear(v, -P).quadratic(u, v, P);
    }
    q.build()
}

/// Whether a selection covers every edge.
pub fn is_vertex_cover(input: &InputGraph, selected: &[bool]) -> bool {
    input
        .edges()
        .iter()
        .all(|&(u, v)| selected[u] || selected[v])
}

/// Graph k-coloring: one-hot spins `x_{v,c}` ("vertex v has color c"),
/// encoded by the coloring family's one-hot encoder (the one
/// [`crate::coloring::ColoringWorkload`] uses) with both penalty weights
/// at 1. The QUBO is zero exactly on proper colorings.
///
/// # Errors
///
/// Propagates [`EncodeError`].
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn coloring(input: &InputGraph, k: usize) -> Result<QuboProblem, EncodeError> {
    assert!(k > 0, "need at least one color");
    one_hot_coloring(input.num_vertices(), k, input.edges(), 1, 1)
}

/// Decodes a coloring assignment: `Some(colors)` if it is a proper
/// one-hot k-coloring, else `None`.
pub fn decode_coloring(input: &InputGraph, k: usize, spins: &SpinVector) -> Option<Vec<usize>> {
    let n = input.num_vertices();
    let mut colors = Vec::with_capacity(n);
    for v in 0..n {
        let chosen: Vec<usize> = (0..k).filter(|&c| spins.get(v * k + c).bit()).collect();
        match chosen.as_slice() {
            [c] => colors.push(*c),
            _ => return None,
        }
    }
    if input.edges().iter().any(|&(u, v)| colors[u] == colors[v]) {
        return None;
    }
    Some(colors)
}

/// Number partitioning over arbitrary values (the generic form of the
/// asset-allocation COP): minimize `(Σ v_i σ_i)^2`, expanded through the
/// QUBO builder.
///
/// # Errors
///
/// Propagates [`EncodeError`] — values large enough that the expanded
/// quadratic coefficients (`8·v_i·v_j`) leave the `i32` range are
/// rejected, not clamped.
pub fn number_partitioning(values: &[i64]) -> Result<QuboProblem, EncodeError> {
    // (Σ v_i σ_i)^2 with σ = 2x - 1:
    //   Σ v_i σ_i = 2 Σ v_i x_i - Σ v_i =: 2S_x - T
    //   (2S_x - T)^2 = 4 S_x^2 - 4 T S_x + T^2
    // S_x^2 = Σ v_i^2 x_i + 2 Σ_{i<j} v_i v_j x_i x_j.
    // Caller-supplied magnitudes are unbounded, so every product
    // saturates; a saturated coefficient is rejected by the i32 narrowing
    // in `QuboBuilder::build`, never silently wrapped.
    let t: i64 = values.iter().fold(0i64, |acc, &v| acc.saturating_add(v));
    let mut q = QuboBuilder::new(values.len());
    q.constant(t.saturating_mul(t));
    for (i, &vi) in values.iter().enumerate() {
        let quad_self = vi.saturating_mul(vi).saturating_mul(4);
        let cross = t.saturating_mul(vi).saturating_mul(4);
        q.linear(i, quad_self.saturating_sub(cross));
        for (j, &vj) in values.iter().enumerate().skip(i + 1) {
            q.quadratic(i, j, vi.saturating_mul(vj).saturating_mul(8));
        }
    }
    q.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sachi_ising::prelude::*;

    fn solve_best(problem: &QuboProblem, restarts: u64) -> SpinVector {
        let graph = problem.graph();
        let mut best: Option<(i64, SpinVector)> = None;
        for seed in 0..restarts {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = SpinVector::random(graph.num_spins(), &mut rng);
            let mut solver = CpuReferenceSolver::new();
            let r = solver.solve(graph, &init, &SolveOptions::for_graph(graph, seed + 50));
            let obj = problem.objective(&r.spins);
            if best.as_ref().is_none_or(|(b, _)| obj < *b) {
                best = Some((obj, r.spins));
            }
        }
        best.expect("restarts > 0").1
    }

    #[test]
    fn max_cut_on_even_cycle_is_all_edges() {
        let input = InputGraph::cycle(8);
        let problem = max_cut(&input).unwrap();
        let spins = solve_best(&problem, 5);
        assert_eq!(cut_size(&input, &spins), 8, "even cycle is bipartite");
    }

    #[test]
    fn max_cut_on_odd_cycle_is_n_minus_1() {
        let input = InputGraph::cycle(7);
        let problem = max_cut(&input).unwrap();
        let spins = solve_best(&problem, 8);
        assert_eq!(cut_size(&input, &spins), 6);
    }

    #[test]
    fn max_cut_k4_is_4() {
        let input = InputGraph::complete(4);
        let problem = max_cut(&input).unwrap();
        let spins = solve_best(&problem, 5);
        assert_eq!(cut_size(&input, &spins), 4, "K4 max cut is 2+2 = 4 edges");
    }

    #[test]
    fn vertex_cover_of_petersen_is_6() {
        let input = InputGraph::petersen();
        let problem = vertex_cover(&input).unwrap();
        let spins = solve_best(&problem, 12);
        let selected = problem.decode(&spins);
        assert!(
            is_vertex_cover(&input, &selected),
            "solution must cover all edges"
        );
        let size = selected.iter().filter(|&&s| s).count();
        assert_eq!(size, 6, "Petersen's minimum vertex cover is 6, got {size}");
    }

    #[test]
    fn vertex_cover_of_cycle() {
        let input = InputGraph::cycle(6);
        let problem = vertex_cover(&input).unwrap();
        let spins = solve_best(&problem, 8);
        let selected = problem.decode(&spins);
        assert!(is_vertex_cover(&input, &selected));
        assert_eq!(selected.iter().filter(|&&s| s).count(), 3);
    }

    #[test]
    fn petersen_is_3_colorable_but_not_2() {
        let input = InputGraph::petersen();
        let three = coloring(&input, 3).unwrap();
        let spins = solve_best(&three, 20);
        assert_eq!(
            three.objective(&spins),
            0,
            "3-coloring penalty should vanish"
        );
        let colors = decode_coloring(&input, 3, &spins).expect("proper 3-coloring");
        assert_eq!(colors.len(), 10);

        let two = coloring(&input, 2).unwrap();
        let spins = solve_best(&two, 20);
        assert!(
            two.objective(&spins) > 0,
            "Petersen graph is not 2-colorable"
        );
        assert!(decode_coloring(&input, 2, &spins).is_none());
    }

    #[test]
    fn odd_cycle_needs_three_colors() {
        let input = InputGraph::cycle(5);
        let two = coloring(&input, 2).unwrap();
        let spins = solve_best(&two, 12);
        assert!(decode_coloring(&input, 2, &spins).is_none());
        let three = coloring(&input, 3).unwrap();
        let spins = solve_best(&three, 12);
        assert!(decode_coloring(&input, 3, &spins).is_some());
    }

    #[test]
    fn number_partitioning_objective_is_squared_imbalance() {
        let values = [3i64, 1, 1, 2, 2, 1];
        let problem = number_partitioning(&values).unwrap();
        for mask in 0..(1u32 << values.len()) {
            let spins: SpinVector = (0..values.len())
                .map(|b| Spin::from_bit((mask >> b) & 1 == 1))
                .collect();
            let imbalance: i64 = values
                .iter()
                .zip(spins.iter())
                .map(|(&v, s)| v * s.value())
                .sum();
            assert_eq!(problem.objective(&spins), imbalance * imbalance);
        }
    }

    #[test]
    fn number_partitioning_finds_perfect_split() {
        let values = [3i64, 1, 1, 2, 2, 1]; // total 10 -> perfect split 5|5
        let problem = number_partitioning(&values).unwrap();
        let spins = solve_best(&problem, 8);
        assert_eq!(problem.objective(&spins), 0, "perfect partition exists");
    }

    #[test]
    fn input_graph_constructors() {
        assert_eq!(InputGraph::cycle(5).edges().len(), 5);
        assert_eq!(InputGraph::complete(5).edges().len(), 10);
        let p = InputGraph::petersen();
        assert_eq!(p.num_vertices(), 10);
        assert_eq!(p.edges().len(), 15);
        let mut degree = [0usize; 10];
        for &(u, v) in p.edges() {
            degree[u] += 1;
            degree[v] += 1;
        }
        assert!(degree.iter().all(|&d| d == 3), "Petersen is 3-regular");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn input_graph_validates() {
        let _ = InputGraph::new(2, vec![(0, 5)]);
    }
}
