//! Ising problem graphs in compressed sparse row form.
//!
//! A COP maps onto the Ising model as a weighted graph: vertices are spins,
//! edge weights are the interaction coefficients `J_ij`, and each vertex
//! optionally carries an external field `h_i` (Sec. II.A). SACHI's tuple
//! mapping consumes exactly the per-vertex view this CSR layout provides:
//! "each row in the storage array is a tuple for a particular spin,
//! consisting of the neighboring spin states, the connecting ICs, and the
//! external magnetic field" (Fig. 7a).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The next [`IsingGraph::build_id`]: one per [`GraphBuilder::build`] in
/// this process.
static NEXT_BUILD_ID: AtomicU64 = AtomicU64::new(0);

/// Error constructing an [`IsingGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a vertex `>= n`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u32,
        /// The graph size.
        n: usize,
    },
    /// A self-loop `(i, i)` was supplied; the Ising Hamiltonian has no
    /// diagonal terms.
    SelfLoop {
        /// The vertex with the self-loop.
        vertex: u32,
    },
    /// The same undirected edge was supplied twice.
    DuplicateEdge {
        /// Endpoints of the duplicated edge.
        edge: (u32, u32),
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range for graph of {n} spins")
            }
            GraphError::SelfLoop { vertex } => write!(f, "self-loop on vertex {vertex}"),
            GraphError::DuplicateEdge { edge } => {
                write!(f, "duplicate edge ({}, {})", edge.0, edge.1)
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental builder for [`IsingGraph`] ([C-BUILDER]).
///
/// ```
/// use sachi_ising::graph::GraphBuilder;
///
/// let graph = GraphBuilder::new(3)
///     .edge(0, 1, 5)
///     .edge(1, 2, -3)
///     .field(0, 2)
///     .build()?;
/// assert_eq!(graph.num_spins(), 3);
/// assert_eq!(graph.degree(1), 2);
/// # Ok::<(), sachi_ising::graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32, i32)>,
    fields: Vec<i32>,
}

impl GraphBuilder {
    /// Starts a graph over `n` spins with zero fields and no edges.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            fields: vec![0; n],
        }
    }

    /// Adds an undirected edge `i -- j` with coefficient `j_ij`.
    #[must_use]
    pub fn edge(mut self, i: u32, j: u32, j_ij: i32) -> Self {
        self.edges.push((i, j, j_ij));
        self
    }

    /// Adds an undirected edge in place (for loops).
    pub fn push_edge(&mut self, i: u32, j: u32, j_ij: i32) -> &mut Self {
        self.edges.push((i, j, j_ij));
        self
    }

    /// Sets the external field of vertex `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    #[must_use]
    pub fn field(mut self, i: u32, h_i: i32) -> Self {
        self.fields[i as usize] = h_i;
        self
    }

    /// Validates and freezes into a CSR [`IsingGraph`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] on out-of-range vertices, self-loops, or
    /// duplicate undirected edges.
    pub fn build(self) -> Result<IsingGraph, GraphError> {
        let n = self.n;
        for &(i, j, _) in &self.edges {
            if i as usize >= n {
                return Err(GraphError::VertexOutOfRange { vertex: i, n });
            }
            if j as usize >= n {
                return Err(GraphError::VertexOutOfRange { vertex: j, n });
            }
            if i == j {
                return Err(GraphError::SelfLoop { vertex: i });
            }
        }
        // Duplicate detection on normalized endpoints.
        let mut normalized: Vec<(u32, u32)> = self
            .edges
            .iter()
            .map(|&(i, j, _)| (i.min(j), i.max(j)))
            .collect();
        normalized.sort_unstable();
        for pair in normalized.windows(2) {
            if pair[0] == pair[1] {
                return Err(GraphError::DuplicateEdge { edge: pair[0] });
            }
        }

        // Degree count, then CSR fill (both directions).
        let mut degree = vec![0usize; n];
        for &(i, j, _) in &self.edges {
            degree[i as usize] += 1;
            degree[j as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut running = 0usize;
        offsets.push(0usize);
        for d in &degree {
            running += d;
            offsets.push(running);
        }
        let total = running;
        let mut neighbors = vec![0u32; total];
        let mut weights = vec![0i32; total];
        let mut cursor = offsets[..n].to_vec();
        for &(i, j, w) in &self.edges {
            let (iu, ju) = (i as usize, j as usize);
            neighbors[cursor[iu]] = j;
            weights[cursor[iu]] = w;
            cursor[iu] += 1;
            neighbors[cursor[ju]] = i;
            weights[cursor[ju]] = w;
            cursor[ju] += 1;
        }
        // Canonicalize: each adjacency list sorted by neighbor id, so two
        // builds of the same graph compare equal regardless of edge
        // insertion order (text-format round-trips rely on this).
        for i in 0..n {
            let range = offsets[i]..offsets[i + 1];
            let mut pairs: Vec<(u32, i32)> = neighbors[range.clone()]
                .iter()
                .copied()
                .zip(weights[range.clone()].iter().copied())
                .collect();
            pairs.sort_unstable_by_key(|&(j, _)| j);
            for (k, (j, w)) in pairs.into_iter().enumerate() {
                neighbors[offsets[i] + k] = j;
                weights[offsets[i] + k] = w;
            }
        }
        Ok(IsingGraph {
            offsets,
            neighbors,
            weights,
            fields: self.fields,
            build_id: NEXT_BUILD_ID.fetch_add(1, Ordering::Relaxed),
        })
    }
}

/// An immutable Ising problem graph (CSR adjacency, `i32` coefficients).
///
/// Equality is content equality (neighbors, couplings, fields); the
/// [`IsingGraph::build_id`] takes no part in it.
#[derive(Debug, Clone)]
pub struct IsingGraph {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
    weights: Vec<i32>,
    fields: Vec<i32>,
    build_id: u64,
}

impl PartialEq for IsingGraph {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets
            && self.neighbors == other.neighbors
            && self.weights == other.weights
            && self.fields == other.fields
    }
}

impl Eq for IsingGraph {}

impl IsingGraph {
    /// The identity of the [`GraphBuilder::build`] call that made this
    /// graph, unique within the process and shared by its clones.
    ///
    /// A graph is immutable, so two graphs with the same id have the
    /// same content: a machine that keeps a problem mapped can recognise
    /// it in O(1). Content-equal graphs from separate builds have
    /// different ids.
    pub fn build_id(&self) -> u64 {
        self.build_id
    }

    /// Number of spins.
    pub fn num_spins(&self) -> usize {
        self.fields.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of vertex `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_spins()`.
    pub fn degree(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Maximum degree across vertices (the paper's `N`).
    pub fn max_degree(&self) -> usize {
        (0..self.num_spins())
            .map(|i| self.degree(i))
            .max()
            .unwrap_or(0)
    }

    /// Mean degree across vertices.
    pub fn mean_degree(&self) -> f64 {
        if self.num_spins() == 0 {
            return 0.0;
        }
        self.neighbors.len() as f64 / self.num_spins() as f64
    }

    /// External field of vertex `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_spins()`.
    pub fn field(&self, i: usize) -> i32 {
        self.fields[i]
    }

    /// Iterates `(neighbor, J_ij)` pairs of vertex `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_spins()`.
    pub fn neighbors(&self, i: usize) -> Neighbors<'_> {
        let range = self.offsets[i]..self.offsets[i + 1];
        Neighbors {
            neighbors: &self.neighbors[range.clone()],
            weights: &self.weights[range],
            index: 0,
        }
    }

    /// Borrows vertex `i`'s adjacency as raw CSR slices
    /// `(neighbors, weights)`, in the same canonical order
    /// [`IsingGraph::neighbors`] iterates. The zero-overhead view for hot
    /// loops that sum over a whole adjacency list at once.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_spins()`.
    pub fn neighbor_slices(&self, i: usize) -> (&[u32], &[i32]) {
        let range = self.offsets[i]..self.offsets[i + 1];
        (&self.neighbors[range.clone()], &self.weights[range])
    }

    /// The largest absolute coefficient (over `J_ij` and `h_i`).
    pub fn max_abs_coefficient(&self) -> i64 {
        let j = self
            .weights
            .iter()
            .map(|w| (*w as i64).abs())
            .max()
            .unwrap_or(0);
        let h = self
            .fields
            .iter()
            .map(|h| (*h as i64).abs())
            .max()
            .unwrap_or(0);
        j.max(h)
    }

    /// Minimum two's-complement resolution `R` (in bits) that represents
    /// every coefficient of this graph, clamped to at least 2.
    ///
    /// This is the "R" of the paper's reconfigurable mixed encoding; Fig. 4
    /// lists 4-7 bits for the four COPs at 1K spins.
    pub fn bits_required(&self) -> u32 {
        let m = self.max_abs_coefficient();
        let mut bits = 2u32;
        while !(-(1i64 << (bits - 1))..(1i64 << (bits - 1))).contains(&m)
            || !(-(1i64 << (bits - 1))..(1i64 << (bits - 1))).contains(&(-m))
        {
            bits += 1;
        }
        bits
    }

    /// Iterates every undirected edge once as `(i, j, J_ij)` with `i < j`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, i32)> + '_ {
        (0..self.num_spins()).flat_map(move |i| {
            self.neighbors(i)
                .filter(move |&(j, _)| (i as u32) < j)
                .map(move |(j, w)| (i as u32, j, w))
        })
    }
}

/// Iterator over `(neighbor, J_ij)` pairs.
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    neighbors: &'a [u32],
    weights: &'a [i32],
    index: usize,
}

impl Iterator for Neighbors<'_> {
    type Item = (u32, i32);

    fn next(&mut self) -> Option<(u32, i32)> {
        if self.index < self.neighbors.len() {
            let item = (self.neighbors[self.index], self.weights[self.index]);
            self.index += 1;
            Some(item)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.neighbors.len() - self.index;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

/// Stock topologies used throughout the paper's evaluation.
pub mod topology {
    use super::{GraphBuilder, GraphError, IsingGraph};

    /// Complete graph over `n` spins (traveling salesman, Fig. 4), with
    /// `weight(i, j)` supplying `J_ij`.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] (cannot occur for well-formed closures).
    pub fn complete(
        n: usize,
        mut weight: impl FnMut(u32, u32) -> i32,
    ) -> Result<IsingGraph, GraphError> {
        let mut b = GraphBuilder::new(n);
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                b.push_edge(i, j, weight(i, j));
            }
        }
        b.build()
    }

    /// King's graph on a `rows x cols` lattice: every cell connects to its
    /// 8 surrounding cells (molecular dynamics, Ising-CIM's native
    /// topology).
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`].
    pub fn king(
        rows: usize,
        cols: usize,
        mut weight: impl FnMut(u32, u32) -> i32,
    ) -> Result<IsingGraph, GraphError> {
        let mut b = GraphBuilder::new(rows * cols);
        let id = |r: usize, c: usize| (r * cols + c) as u32;
        for r in 0..rows {
            for c in 0..cols {
                let u = id(r, c);
                // Right, down-left, down, down-right: each undirected edge once.
                if c + 1 < cols {
                    b.push_edge(u, id(r, c + 1), weight(u, id(r, c + 1)));
                }
                if r + 1 < rows {
                    if c > 0 {
                        b.push_edge(u, id(r + 1, c - 1), weight(u, id(r + 1, c - 1)));
                    }
                    b.push_edge(u, id(r + 1, c), weight(u, id(r + 1, c)));
                    if c + 1 < cols {
                        b.push_edge(u, id(r + 1, c + 1), weight(u, id(r + 1, c + 1)));
                    }
                }
            }
        }
        b.build()
    }

    /// 4-connected grid on a `rows x cols` lattice (image segmentation's
    /// pixel graph, Fig. 2).
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`].
    pub fn grid4(
        rows: usize,
        cols: usize,
        mut weight: impl FnMut(u32, u32) -> i32,
    ) -> Result<IsingGraph, GraphError> {
        let mut b = GraphBuilder::new(rows * cols);
        let id = |r: usize, c: usize| (r * cols + c) as u32;
        for r in 0..rows {
            for c in 0..cols {
                let u = id(r, c);
                if c + 1 < cols {
                    b.push_edge(u, id(r, c + 1), weight(u, id(r, c + 1)));
                }
                if r + 1 < rows {
                    b.push_edge(u, id(r + 1, c), weight(u, id(r + 1, c)));
                }
            }
        }
        b.build()
    }

    /// Star-shaped sparse graph: vertex 0 connects to every other vertex
    /// (the paper's asset-allocation mapping is "sparingly connected";
    /// see `sachi-workloads::asset` for the exact formulation).
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`].
    pub fn star(n: usize, mut weight: impl FnMut(u32) -> i32) -> Result<IsingGraph, GraphError> {
        let mut b = GraphBuilder::new(n);
        for j in 1..n as u32 {
            b.push_edge(0, j, weight(j));
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::topology::*;
    use super::*;

    #[test]
    fn builder_produces_symmetric_adjacency() {
        let g = GraphBuilder::new(4)
            .edge(0, 1, 3)
            .edge(1, 2, -2)
            .edge(2, 3, 7)
            .build()
            .unwrap();
        assert_eq!(g.num_spins(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![(0, 3), (2, -2)]);
        assert_eq!(g.neighbors(2).collect::<Vec<_>>(), vec![(1, -2), (3, 7)]);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        assert!((g.mean_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn builder_rejects_bad_edges() {
        assert_eq!(
            GraphBuilder::new(2).edge(0, 5, 1).build().unwrap_err(),
            GraphError::VertexOutOfRange { vertex: 5, n: 2 }
        );
        assert_eq!(
            GraphBuilder::new(2).edge(1, 1, 1).build().unwrap_err(),
            GraphError::SelfLoop { vertex: 1 }
        );
        assert_eq!(
            GraphBuilder::new(3)
                .edge(0, 1, 1)
                .edge(1, 0, 2)
                .build()
                .unwrap_err(),
            GraphError::DuplicateEdge { edge: (0, 1) }
        );
        let msg = format!("{}", GraphError::SelfLoop { vertex: 3 });
        assert!(msg.contains("self-loop"));
    }

    #[test]
    fn fields_are_stored() {
        let g = GraphBuilder::new(2)
            .edge(0, 1, 1)
            .field(0, 9)
            .field(1, -4)
            .build()
            .unwrap();
        assert_eq!(g.field(0), 9);
        assert_eq!(g.field(1), -4);
    }

    #[test]
    fn complete_graph_has_all_pairs() {
        let g = complete(5, |_, _| 1).unwrap();
        assert_eq!(g.num_edges(), 10);
        assert_eq!(g.max_degree(), 4);
        for i in 0..5 {
            assert_eq!(g.degree(i), 4);
        }
    }

    #[test]
    fn king_graph_degrees() {
        let g = king(3, 3, |_, _| 1).unwrap();
        // Center cell has 8 neighbors, corners 3, edges 5.
        assert_eq!(g.degree(4), 8);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 5);
        assert_eq!(g.num_edges(), 20);
        assert_eq!(g.max_degree(), 8);
    }

    #[test]
    fn grid4_degrees() {
        let g = grid4(3, 4, |_, _| 1).unwrap();
        assert_eq!(g.num_spins(), 12);
        // Interior degree 4, corner degree 2.
        assert_eq!(g.degree(5), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.num_edges(), 17);
    }

    #[test]
    fn star_is_sparse() {
        let g = star(10, |j| j as i32).unwrap();
        assert_eq!(g.degree(0), 9);
        assert_eq!(g.degree(5), 1);
        assert_eq!(g.neighbors(5).next(), Some((0, 5)));
    }

    #[test]
    fn bits_required_covers_coefficients() {
        let g = GraphBuilder::new(2).edge(0, 1, 127).build().unwrap();
        assert_eq!(g.bits_required(), 8); // 127 fits in 8-bit two's complement
        let g = GraphBuilder::new(2).edge(0, 1, 128).build().unwrap();
        assert_eq!(g.bits_required(), 9); // +128 needs 9 bits
        let g = GraphBuilder::new(2)
            .edge(0, 1, 1)
            .field(0, 3)
            .build()
            .unwrap();
        assert_eq!(g.bits_required(), 3);
        let g = GraphBuilder::new(2).edge(0, 1, 0).build().unwrap();
        assert_eq!(g.bits_required(), 2);
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = king(2, 2, |i, j| (i + j) as i32).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.num_edges());
        for &(i, j, _) in &edges {
            assert!(i < j);
        }
    }

    #[test]
    fn clones_share_the_build_id_and_rebuilds_do_not() {
        let build = || king(3, 3, |i, j| (i + j) as i32 % 3 - 1).unwrap();
        let g = build();
        let copy = g.clone();
        let rebuilt = build();
        assert_eq!(copy.build_id(), g.build_id());
        assert_ne!(rebuilt.build_id(), g.build_id());
        // Equality is content equality either way.
        assert_eq!(copy, g);
        assert_eq!(rebuilt, g);
        assert_ne!(king(3, 3, |_, _| 1).unwrap(), g);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new(3).build().unwrap();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.mean_degree(), 0.0);
        assert_eq!(g.bits_required(), 2);
        let empty = GraphBuilder::new(0).build().unwrap();
        assert_eq!(empty.num_spins(), 0);
        assert_eq!(empty.mean_degree(), 0.0);
    }
}
