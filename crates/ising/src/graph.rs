//! Ising problem graphs in compressed sparse row form.
//!
//! A COP maps onto the Ising model as a weighted graph: vertices are spins,
//! edge weights are the interaction coefficients `J_ij`, and each vertex
//! optionally carries an external field `h_i` (Sec. II.A). SACHI's tuple
//! mapping consumes exactly the per-vertex view this CSR layout provides:
//! "each row in the storage array is a tuple for a particular spin,
//! consisting of the neighboring spin states, the connecting ICs, and the
//! external magnetic field" (Fig. 7a).
//!
//! [`GraphBuilder::build`] freezes an edge list into that layout in
//! O(E log E) with no per-row allocation: one pass normalizes the edges
//! in place, one sort orders them (and exposes duplicates as neighbours),
//! and [`IsingGraph::from_sorted_edges`], the one CSR fill, writes every
//! row in neighbour order from the sorted list. Coefficients must lie in
//! `i32::MIN + 1 ..= i32::MAX`, the range whose negations the 32-bit
//! mixed encoding can also hold.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    /// An edge of a list [`IsingGraph::from_sorted_edges`] reads was not
    /// `(i, j)` with `i < j`, or came before the edge preceding it.
    EdgeOutOfOrder {
        /// The edge as supplied.
        edge: (u32, u32),
    },
    /// A coupling or field was `i32::MIN`. The mixed encoding stores a
    /// coefficient's negation too, and `-i32::MIN` does not fit 32 bits.
    UnencodableCoefficient {
        /// `"coupling"` or `"field"`.
        what: &'static str,
        /// The coupling's endpoints as supplied, or the field's vertex
        /// twice.
        site: (u32, u32),
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
            GraphError::EdgeOutOfOrder { edge } => write!(
                f,
                "edge ({}, {}) is out of order; a sorted edge list holds each edge \
                 as (i, j) with i < j, in ascending (i, j) order",
                edge.0, edge.1
            ),
            GraphError::UnencodableCoefficient { what, site } => {
                if *what == "field" {
                    write!(f, "{what} of vertex {}", site.0)?;
                } else {
                    write!(f, "{what} of edge ({}, {})", site.0, site.1)?;
                }
                write!(
                    f,
                    " is {}; its negation does not fit the 32-bit coefficient encoding",
                    i32::MIN
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// The most spins a graph can hold: its CSR numbers vertices with `u32`
/// ids. The problem-file parsers reject a larger header count before
/// allocating anything for it.
pub const MAX_SPINS: u64 = 1 << 32;

/// Whether `n` spins exceed [`MAX_SPINS`].
pub fn exceeds_max_spins(n: usize) -> bool {
    u64::try_from(n).map_or(true, |n| n > MAX_SPINS)
}

/// A shared slice of `len` zeros, allocated once (the iterator's exact
/// length lets the slice be written in place).
fn zeroed<T: Default + Clone>(len: usize) -> Arc<[T]> {
    std::iter::repeat_n(T::default(), len).collect()
}

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

    /// Starts a graph over `n` spins with room for `edges` edges.
    pub fn with_edge_capacity(n: usize, edges: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(edges),
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
    /// One pass normalizes every edge to `(min, max)` in place, one sort
    /// orders them, and [`IsingGraph::from_sorted_edges`] writes every
    /// row from the sorted list. Two builds of the same graph therefore
    /// compare equal whatever the insertion order (text-format
    /// round-trips rely on this).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`], in this order of precedence: the first
    /// edge in insertion order with an out-of-range endpoint, a
    /// self-loop or an `i32::MIN` coupling; the lowest vertex with an
    /// `i32::MIN` field; the smallest duplicated undirected edge.
    pub fn build(mut self) -> Result<IsingGraph, GraphError> {
        let n = self.n;
        for edge in &mut self.edges {
            let (i, j, w) = *edge;
            if i as usize >= n {
                return Err(GraphError::VertexOutOfRange { vertex: i, n });
            }
            if j as usize >= n {
                return Err(GraphError::VertexOutOfRange { vertex: j, n });
            }
            if i == j {
                return Err(GraphError::SelfLoop { vertex: i });
            }
            if w == i32::MIN {
                return Err(GraphError::UnencodableCoefficient {
                    what: "coupling",
                    site: (i, j),
                });
            }
            *edge = (i.min(j), i.max(j), w);
        }
        if let Some(v) = self.fields.iter().position(|&h| h == i32::MIN) {
            let v = v as u32;
            return Err(GraphError::UnencodableCoefficient {
                what: "field",
                site: (v, v),
            });
        }
        // Sorted, a duplicate is the repeat of the edge before it, which
        // the fill reports: the smallest duplicated pair comes first.
        self.edges.sort_unstable_by_key(|&(i, j, _)| (i, j));
        IsingGraph::from_sorted_edges(self.fields, self.edges.iter().copied())
    }
}

/// An immutable Ising problem graph (CSR adjacency, `i32` coefficients).
///
/// Each CSR array is a shared slice: a clone costs O(1), reads the same
/// rows and keeps the [`IsingGraph::build_id`], while a row read costs
/// no more than from an owned `Vec` (the slice's address and length sit
/// in the graph itself). Equality is content equality (neighbors,
/// couplings, fields); the build id takes no part in it.
#[derive(Debug, Clone)]
pub struct IsingGraph {
    offsets: Arc<[usize]>,
    neighbors: Arc<[u32]>,
    weights: Arc<[i32]>,
    fields: Arc<[i32]>,
    /// The largest `|J_ij|` or `|h_i|`, taken by the fill that wrote the
    /// arrays (so a function of their content).
    max_abs: i64,
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
    /// Writes the CSR of `fields.len()` spins from `edges`, each an
    /// undirected edge `(i, j, J_ij)` with `i < j`, in strictly ascending
    /// `(i, j)` order: the one CSR fill behind [`GraphBuilder::build`]
    /// (after its sort) and the QUBO build.
    ///
    /// One pass checks the list, counts degrees and takes the largest
    /// absolute coefficient; one pass writes every row in ascending
    /// neighbour order: row `v` receives its neighbours below `v` from
    /// the edges that start before `v`, then its neighbours above `v`
    /// from the edges that start at `v`. The iterator is cloned for the
    /// first pass.
    ///
    /// The fill checks structure only: refusing `i32::MIN`, which the
    /// encoding cannot negate, is the caller's job ([`GraphBuilder::build`]
    /// and the QUBO build do; a standalone 32-bit test row may hold it).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] for the first edge in list order with an
    /// out-of-range endpoint, a self-loop, a repeat of the edge before it
    /// ([`GraphError::DuplicateEdge`]), or `i > j` or a place before the
    /// edge preceding it ([`GraphError::EdgeOutOfOrder`]).
    pub fn from_sorted_edges<I>(fields: Vec<i32>, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (u32, u32, i32)>,
        I::IntoIter: Clone,
    {
        let n = fields.len();
        let edges = edges.into_iter();
        let mut max_abs = fields
            .iter()
            .map(|&h| i64::from(h).abs())
            .max()
            .unwrap_or(0);
        // Degree count, then the CSR fill (both directions) in one pass.
        let mut cursor = vec![0usize; n];
        let mut last = None;
        for (i, j, w) in edges.clone() {
            for vertex in [i, j] {
                if vertex as usize >= n {
                    return Err(GraphError::VertexOutOfRange { vertex, n });
                }
            }
            if i == j {
                return Err(GraphError::SelfLoop { vertex: i });
            }
            let pair = Some((i, j));
            if last == pair {
                return Err(GraphError::DuplicateEdge { edge: (i, j) });
            }
            if i > j || last > pair {
                return Err(GraphError::EdgeOutOfOrder { edge: (i, j) });
            }
            last = pair;
            cursor[i as usize] += 1;
            cursor[j as usize] += 1;
            max_abs = max_abs.max(i64::from(w).abs());
        }
        // Each array is written in place in its shared allocation.
        let mut offsets = zeroed(n + 1);
        let ends = Arc::get_mut(&mut offsets).expect("a fresh slice is unshared");
        let mut running = 0usize;
        for (c, end) in cursor.iter_mut().zip(&mut ends[1..]) {
            let start = running;
            running += *c;
            *end = running;
            *c = start;
        }
        let (mut neighbors, mut weights) = (zeroed(running), zeroed(running));
        let row = Arc::get_mut(&mut neighbors).expect("a fresh slice is unshared");
        let coupling = Arc::get_mut(&mut weights).expect("a fresh slice is unshared");
        for (i, j, w) in edges {
            let (iu, ju) = (i as usize, j as usize);
            row[cursor[iu]] = j;
            coupling[cursor[iu]] = w;
            cursor[iu] += 1;
            row[cursor[ju]] = i;
            coupling[cursor[ju]] = w;
            cursor[ju] += 1;
        }
        Ok(IsingGraph {
            offsets,
            neighbors,
            weights,
            fields: fields.into(),
            max_abs,
            build_id: NEXT_BUILD_ID.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// The identity of the build that made this graph, unique within
    /// the process and shared by its clones.
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

    /// The positions of vertex `i`'s row in the CSR: one slot per
    /// neighbour, the rows end to end in vertex order, so the slots of
    /// all rows number the directed edges `0..2 * num_edges()`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_spins()`.
    #[inline]
    pub fn slots(&self, i: usize) -> Range<usize> {
        self.offsets[i]..self.offsets[i + 1]
    }

    /// Degree of vertex `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_spins()`.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        self.slots(i).len()
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
    #[inline]
    pub fn field(&self, i: usize) -> i32 {
        self.fields[i]
    }

    /// Iterates `(neighbor, J_ij)` pairs of vertex `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_spins()`.
    pub fn neighbors(&self, i: usize) -> Neighbors<'_> {
        let (neighbors, weights) = self.neighbor_slices(i);
        Neighbors {
            neighbors,
            weights,
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
    #[inline]
    pub fn neighbor_slices(&self, i: usize) -> (&[u32], &[i32]) {
        let range = self.slots(i);
        (&self.neighbors[range.clone()], &self.weights[range])
    }

    /// The largest absolute coefficient (over `J_ij` and `h_i`), taken
    /// once by the fill that built the graph: O(1).
    pub fn max_abs_coefficient(&self) -> i64 {
        self.max_abs
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
        let (across, down) = (rows * cols.saturating_sub(1), rows.saturating_sub(1) * cols);
        let diagonal = rows.saturating_sub(1) * cols.saturating_sub(1);
        let mut b = GraphBuilder::with_edge_capacity(rows * cols, across + down + 2 * diagonal);
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
        let edges = rows * cols.saturating_sub(1) + rows.saturating_sub(1) * cols;
        let mut b = GraphBuilder::with_edge_capacity(rows * cols, edges);
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

    /// Builds `edges` over `n` spins and returns the error.
    fn first_error(n: usize, edges: &[(u32, u32, i32)]) -> GraphError {
        let mut b = GraphBuilder::new(n);
        for &(i, j, w) in edges {
            b.push_edge(i, j, w);
        }
        b.build().unwrap_err()
    }

    #[test]
    fn range_and_self_loop_errors_come_first_in_insertion_order() {
        // A duplicate earlier in the list never masks a later range or
        // self-loop fault, whatever the sort would put first.
        assert_eq!(
            first_error(4, &[(0, 1, 1), (1, 0, 1), (2, 2, 1), (0, 9, 1)]),
            GraphError::SelfLoop { vertex: 2 }
        );
        assert_eq!(
            first_error(4, &[(3, 2, 1), (2, 3, 1), (7, 1, 1), (1, 1, 1)]),
            GraphError::VertexOutOfRange { vertex: 7, n: 4 }
        );
        // Within one edge, the first endpoint is checked before the
        // second, and range before self-loop.
        assert_eq!(
            first_error(2, &[(5, 6, 1)]),
            GraphError::VertexOutOfRange { vertex: 5, n: 2 }
        );
        assert_eq!(
            first_error(2, &[(5, 5, 1)]),
            GraphError::VertexOutOfRange { vertex: 5, n: 2 }
        );
    }

    #[test]
    fn the_smallest_duplicated_pair_is_reported() {
        // Duplicates of (2, 3) come first in insertion order, and one of
        // (0, 1) arrives reversed; the smallest normalized pair wins.
        assert_eq!(
            first_error(5, &[(3, 2, 1), (2, 3, 4), (4, 1, 1), (1, 0, 2), (0, 1, 2)]),
            GraphError::DuplicateEdge { edge: (0, 1) }
        );
        assert_eq!(
            first_error(5, &[(4, 3, 1), (1, 2, 1), (3, 4, 1), (2, 1, 1)]),
            GraphError::DuplicateEdge { edge: (1, 2) }
        );
    }

    #[test]
    fn min_coefficients_are_refused_after_range_checks_and_before_duplicates() {
        let coupling = GraphError::UnencodableCoefficient {
            what: "coupling",
            site: (2, 1),
        };
        assert_eq!(first_error(3, &[(0, 1, 1), (2, 1, i32::MIN)]), coupling);
        assert_eq!(
            first_error(3, &[(0, 1, 1), (0, 1, 1), (2, 1, i32::MIN), (0, 0, 1)]),
            coupling
        );
        assert_eq!(
            first_error(3, &[(0, 1, 1), (2, 9, i32::MIN)]),
            GraphError::VertexOutOfRange { vertex: 9, n: 3 }
        );
        let field = GraphBuilder::new(3)
            .edge(0, 1, 1)
            .edge(1, 0, 1)
            .field(2, i32::MIN)
            .field(1, i32::MIN)
            .build()
            .unwrap_err();
        assert_eq!(
            field,
            GraphError::UnencodableCoefficient {
                what: "field",
                site: (1, 1),
            }
        );
        assert!(field
            .to_string()
            .contains("field of vertex 1 is -2147483648"));
        assert!(coupling.to_string().contains("coupling of edge (2, 1)"));
        // One above the minimum is the widest coefficient the encoding
        // holds, and it builds.
        let g = GraphBuilder::new(2)
            .edge(0, 1, i32::MIN + 1)
            .field(1, i32::MIN + 1)
            .build()
            .unwrap();
        assert_eq!(g.bits_required(), 32);
    }

    #[test]
    fn rows_are_in_neighbour_order_whatever_the_insertion_order() {
        let forward = GraphBuilder::new(4)
            .edge(0, 1, 1)
            .edge(0, 2, 2)
            .edge(1, 3, 3)
            .edge(2, 3, 4)
            .edge(1, 2, 5)
            .build()
            .unwrap();
        let shuffled = GraphBuilder::new(4)
            .edge(3, 2, 4)
            .edge(2, 1, 5)
            .edge(3, 1, 3)
            .edge(2, 0, 2)
            .edge(1, 0, 1)
            .build()
            .unwrap();
        assert_eq!(forward, shuffled);
        assert_eq!(
            forward.neighbors(2).collect::<Vec<_>>(),
            vec![(0, 2), (1, 5), (3, 4)]
        );
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
        // A clone reads the very rows of the original; a rebuild has its own.
        for i in 0..g.num_spins() {
            let row = |graph: &IsingGraph| graph.neighbor_slices(i).0.as_ptr();
            let couplings = |graph: &IsingGraph| graph.neighbor_slices(i).1.as_ptr();
            assert!(std::ptr::eq(row(&copy), row(&g)), "row {i}");
            assert!(std::ptr::eq(couplings(&copy), couplings(&g)), "row {i}");
            assert!(!std::ptr::eq(row(&rebuilt), row(&g)), "row {i}");
        }
        // Equality is content equality either way.
        assert_eq!(copy, g);
        assert_eq!(rebuilt, g);
        assert_ne!(king(3, 3, |_, _| 1).unwrap(), g);
    }

    #[test]
    fn the_sorted_fill_checks_structure_in_list_order() {
        let fill = |n: usize, edges: &[(u32, u32, i32)]| {
            IsingGraph::from_sorted_edges(vec![0; n], edges.iter().copied())
        };
        assert_eq!(
            fill(3, &[(0, 1, 1), (0, 1, 2), (2, 1, 1)]),
            Err(GraphError::DuplicateEdge { edge: (0, 1) })
        );
        assert_eq!(
            fill(3, &[(0, 2, 1), (0, 1, 2)]),
            Err(GraphError::EdgeOutOfOrder { edge: (0, 1) })
        );
        assert_eq!(
            fill(3, &[(2, 1, 1)]),
            Err(GraphError::EdgeOutOfOrder { edge: (2, 1) })
        );
        assert_eq!(
            fill(3, &[(1, 1, 1), (0, 7, 1)]),
            Err(GraphError::SelfLoop { vertex: 1 })
        );
        assert_eq!(
            fill(3, &[(0, 3, 1)]),
            Err(GraphError::VertexOutOfRange { vertex: 3, n: 3 })
        );
        assert!(GraphError::EdgeOutOfOrder { edge: (2, 1) }
            .to_string()
            .contains("edge (2, 1) is out of order"));
        // A sorted list fills the rows the builder writes.
        let sorted = fill(4, &[(0, 1, 3), (0, 3, 1), (1, 2, -2), (2, 3, 5)]).unwrap();
        let built = GraphBuilder::new(4)
            .edge(2, 3, 5)
            .edge(1, 0, 3)
            .edge(2, 1, -2)
            .edge(3, 0, 1)
            .build()
            .unwrap();
        assert_eq!(sorted, built);
        assert_eq!(sorted.slots(2), 4..6);
        assert_eq!(sorted.max_abs_coefficient(), 5);
    }

    /// The largest absolute coefficient by a scan over every row.
    fn scanned_max_abs(g: &IsingGraph) -> i64 {
        let couplings = (0..g.num_spins()).flat_map(|i| g.neighbor_slices(i).1.iter().copied());
        let fields = (0..g.num_spins()).map(|i| g.field(i));
        couplings
            .chain(fields)
            .map(|c| i64::from(c).abs())
            .max()
            .unwrap_or(0)
    }

    /// A coefficient: small, or one of the widest the graph stores.
    fn coefficient(select: u8, small: i32) -> i32 {
        match select {
            0 => i32::MAX,
            1 => -i32::MAX,
            _ => small,
        }
    }

    proptest::proptest! {
        #[test]
        fn the_stored_coefficient_range_is_a_scan(
            n in 0usize..9,
            edges in proptest::collection::vec((0u32..9, 0u32..9, 0u8..8, -9i32..10), 0..20),
            fields in proptest::collection::vec((0u32..9, 0u8..8, -9i32..10), 0..5),
        ) {
            let mut builder = GraphBuilder::new(n);
            let mut seen = std::collections::BTreeSet::new();
            for &(i, j, select, w) in &edges {
                let (i, j) = (i % n.max(1) as u32, j % n.max(1) as u32);
                if i != j && seen.insert((i.min(j), i.max(j))) {
                    builder.push_edge(i, j, coefficient(select, w));
                }
            }
            for &(v, select, h) in &fields {
                if (v as usize) < n {
                    builder = builder.field(v, coefficient(select, h));
                }
            }
            let g = builder.build().expect("a valid edge list builds");
            proptest::prop_assert_eq!(g.max_abs_coefficient(), scanned_max_abs(&g));
            proptest::prop_assert_eq!(g.clone().max_abs_coefficient(), scanned_max_abs(&g));
        }
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
