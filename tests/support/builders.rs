//! Differential oracle for the problem builders: the map-based
//! construction the production `QuboBuilder` and `GraphBuilder::build`
//! replaced, kept here so their single sort-merge has a reference to
//! agree with.
//!
//! * [`OracleQubo`] accumulates every quadratic term in a
//!   `BTreeMap<(u32, u32), i64>` (saturating, in insertion order) and
//!   evaluates the objective as the literal QUBO sum.
//! * [`build_graph`] validates the edge list, rejects duplicates from a
//!   sorted copy of the normalized pairs, fills the CSR in insertion
//!   order, then sorts each row by neighbour id in a `Vec` of its own.
//!
//! Both also reject an `i32::MIN` coupling or field, which the 32-bit
//! mixed encoding cannot negate, with the production error.

use sachi::ising::graph::{GraphError, IsingGraph};
use sachi::ising::spin::{Spin, SpinVector};
use sachi::workloads::encode::{checked_coefficient, EncodeError};
use std::collections::BTreeMap;

/// A graph's CSR arrays, as the oracle builds them or as read back from
/// a production [`IsingGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// Row starts, `n + 1` entries.
    pub offsets: Vec<usize>,
    /// Neighbour ids, row by row.
    pub neighbors: Vec<u32>,
    /// Couplings, parallel to `neighbors`.
    pub weights: Vec<i32>,
    /// External fields.
    pub fields: Vec<i32>,
}

impl Csr {
    /// Reads a production graph's CSR through its public accessors.
    pub fn of(graph: &IsingGraph) -> Self {
        let n = graph.num_spins();
        let mut csr = Csr {
            offsets: vec![0],
            neighbors: Vec::new(),
            weights: Vec::new(),
            fields: (0..n).map(|i| graph.field(i)).collect(),
        };
        for i in 0..n {
            let (nb, w) = graph.neighbor_slices(i);
            csr.neighbors.extend_from_slice(nb);
            csr.weights.extend_from_slice(w);
            csr.offsets.push(csr.neighbors.len());
        }
        csr
    }
}

/// The reference `GraphBuilder::build` over `n` spins.
///
/// # Errors
///
/// In this order: the first edge (in insertion order) with an
/// out-of-range endpoint, a self-loop or an `i32::MIN` coupling; the
/// lowest vertex with an `i32::MIN` field; the smallest duplicated
/// normalized pair.
pub fn build_graph(n: usize, edges: &[(u32, u32, i32)], fields: &[i32]) -> Result<Csr, GraphError> {
    for &(i, j, w) in edges {
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
    }
    if let Some(v) = fields.iter().position(|&h| h == i32::MIN) {
        return Err(GraphError::UnencodableCoefficient {
            what: "field",
            site: (v as u32, v as u32),
        });
    }
    let mut normalized: Vec<(u32, u32)> = edges
        .iter()
        .map(|&(i, j, _)| (i.min(j), i.max(j)))
        .collect();
    normalized.sort_unstable();
    for pair in normalized.windows(2) {
        if pair[0] == pair[1] {
            return Err(GraphError::DuplicateEdge { edge: pair[0] });
        }
    }
    let mut degree = vec![0usize; n];
    for &(i, j, _) in edges {
        degree[i as usize] += 1;
        degree[j as usize] += 1;
    }
    let mut offsets = vec![0usize];
    for d in &degree {
        offsets.push(offsets.last().unwrap() + d);
    }
    let total = offsets[n];
    let mut neighbors = vec![0u32; total];
    let mut weights = vec![0i32; total];
    let mut cursor = offsets[..n].to_vec();
    for &(i, j, w) in edges {
        let (iu, ju) = (i as usize, j as usize);
        neighbors[cursor[iu]] = j;
        weights[cursor[iu]] = w;
        cursor[iu] += 1;
        neighbors[cursor[ju]] = i;
        weights[cursor[ju]] = w;
        cursor[ju] += 1;
    }
    for i in 0..n {
        let range = offsets[i]..offsets[i + 1];
        let mut pairs: Vec<(u32, i32)> = neighbors[range.clone()]
            .iter()
            .copied()
            .zip(weights[range].iter().copied())
            .collect();
        pairs.sort_unstable_by_key(|&(j, _)| j);
        for (k, (j, w)) in pairs.into_iter().enumerate() {
            neighbors[offsets[i] + k] = j;
            weights[offsets[i] + k] = w;
        }
    }
    Ok(Csr {
        offsets,
        neighbors,
        weights,
        fields: fields.to_vec(),
    })
}

/// The reference QUBO accumulator.
#[derive(Debug, Clone)]
pub struct OracleQubo {
    n: usize,
    linear: Vec<i64>,
    quadratic: BTreeMap<(u32, u32), i64>,
    constant: i64,
}

/// A built reference QUBO: its Ising CSR and the terms it sums.
#[derive(Debug, Clone)]
pub struct OracleProblem {
    /// The Ising image.
    pub csr: Csr,
    linear: Vec<i64>,
    quadratic: BTreeMap<(u32, u32), i64>,
    constant: i64,
}

impl OracleQubo {
    /// A QUBO over `n` binary variables.
    pub fn new(n: usize) -> Self {
        OracleQubo {
            n,
            linear: vec![0; n],
            quadratic: BTreeMap::new(),
            constant: 0,
        }
    }

    /// Adds `c · x_i`.
    pub fn linear(&mut self, i: usize, c: i64) {
        self.linear[i] = self.linear[i].saturating_add(c);
    }

    /// Adds `c · x_i x_j` (`i != j`).
    pub fn quadratic(&mut self, i: usize, j: usize, c: i64) {
        assert!(i != j && i < self.n && j < self.n);
        let slot = self
            .quadratic
            .entry((i.min(j) as u32, i.max(j) as u32))
            .or_insert(0);
        *slot = slot.saturating_add(c);
    }

    /// Adds a constant.
    pub fn constant(&mut self, c: i64) {
        self.constant = self.constant.saturating_add(c);
    }

    /// Converts to the Ising image (objective scaled by 4).
    ///
    /// # Errors
    ///
    /// The first coupling (in `(i, j)` order) or field (in vertex order)
    /// outside `i32`, then [`build_graph`]'s errors.
    pub fn build(&self) -> Result<OracleProblem, EncodeError> {
        let mut h: Vec<i64> = self.linear.iter().map(|l| l.saturating_mul(2)).collect();
        let mut edges = Vec::new();
        for (&(i, j), &c) in &self.quadratic {
            if c != 0 {
                edges.push((i, j, checked_coefficient("coupling", c.saturating_neg())?));
            }
            h[i as usize] = h[i as usize].saturating_add(c);
            h[j as usize] = h[j as usize].saturating_add(c);
        }
        let fields = h
            .iter()
            .map(|&hi| checked_coefficient("field", hi.saturating_neg()))
            .collect::<Result<Vec<i32>, _>>()?;
        let csr = build_graph(self.n, &edges, &fields)?;
        Ok(OracleProblem {
            csr,
            linear: self.linear.clone(),
            quadratic: self.quadratic.clone(),
            constant: self.constant,
        })
    }
}

impl OracleProblem {
    /// The QUBO objective at `spins` (`σ = +1` means `x = 1`), summed
    /// term by term in `i128` and saturated into `i64`.
    pub fn objective(&self, spins: &SpinVector) -> i64 {
        let x = |i: usize| i128::from(spins.get(i) == Spin::Up);
        let mut total = i128::from(self.constant);
        for (i, &l) in self.linear.iter().enumerate() {
            total += i128::from(l) * x(i);
        }
        for (&(i, j), &c) in &self.quadratic {
            total += i128::from(c) * x(i as usize) * x(j as usize);
        }
        i64::try_from(total).unwrap_or(if total < 0 { i64::MIN } else { i64::MAX })
    }
}
