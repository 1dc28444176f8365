//! The per-tuple storage layout of the Fig. 8b update path, kept as the
//! `writeback` timing reference: one heap-allocated row per spin
//! ([`AosTuple`]), a per-spin adjacency list of `(tuple, slot)` pairs,
//! and a maintained-sums mirror ([`AosPlanes`]) that recomputes each
//! edge's coupling popcount on every flip.
//!
//! It keeps a copy of each neighbour's spin in every row, as the
//! hardware's tuple-rep layout does; the production `TupleStore` keeps
//! one state per spin instead and only bills the copies. The two move
//! the same [`TupleSums`] (`AosPlanes::writeback_spin` against
//! `TuplePlanes::writeback_spin`), and the copies here always equal
//! the states the store's rows gather, so `perf_kernels` can replay one
//! flip sequence through both and assert identical sums after every
//! flip, and identical neighbour states at the end, before it times
//! them.

use sachi_core::encoding::{EncodingError, MixedEncoding};
use sachi_core::tuple::{TupleStore, TupleSums};
use sachi_ising::graph::IsingGraph;
use sachi_ising::spin::{Spin, SpinVector};
use sachi_mem::units::convert::count_u64;

/// One spin's storage-array row, owning its vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AosTuple {
    /// Neighbour spin ids.
    pub neighbors: Vec<u32>,
    /// Connecting couplings, aligned with `neighbors`.
    pub couplings: Vec<i32>,
    /// Copies of the neighbouring spin states.
    pub neighbor_spins: Vec<Spin>,
    /// External field `h_i`.
    pub field: i32,
}

impl AosTuple {
    /// The row as a one-row [`TupleStore`] (spin 0's): its `tuple(0)` is
    /// the view the kernels and oracles read, built the way the machine
    /// builds its views.
    pub fn store(&self) -> TupleStore {
        TupleStore::one_row(
            &self.neighbors,
            &self.couplings,
            &self.neighbor_spins,
            self.field,
        )
    }
}

/// Every row plus, per spin `j`, the `(tuple, slot)` pairs holding a
/// copy of `σ_j`.
#[derive(Debug, Clone)]
pub struct AosStore {
    tuples: Vec<AosTuple>,
    adjacency: Vec<Vec<(u32, u32)>>,
}

impl AosStore {
    /// Builds the rows and the adjacency lists of `graph` at `spins`.
    ///
    /// # Panics
    ///
    /// Panics if `spins.len() != graph.num_spins()`.
    pub fn new(graph: &IsingGraph, spins: &SpinVector) -> Self {
        assert_eq!(
            spins.len(),
            graph.num_spins(),
            "spin vector must match graph size"
        );
        let n = graph.num_spins();
        let mut tuples = Vec::with_capacity(n);
        let mut adjacency: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for i in 0..n {
            let mut tuple = AosTuple {
                neighbors: Vec::with_capacity(graph.degree(i)),
                couplings: Vec::with_capacity(graph.degree(i)),
                neighbor_spins: Vec::with_capacity(graph.degree(i)),
                field: graph.field(i),
            };
            for (slot, (j, w)) in graph.neighbors(i).enumerate() {
                tuple.neighbors.push(j);
                tuple.couplings.push(w);
                tuple.neighbor_spins.push(spins.get(j as usize));
                if let Some(entries) = adjacency.get_mut(j as usize) {
                    entries.push((i as u32, slot as u32));
                }
            }
            tuples.push(tuple);
        }
        AosStore { tuples, adjacency }
    }

    /// Every row, in spin order.
    pub fn tuples(&self) -> &[AosTuple] {
        &self.tuples
    }

    /// Refreshes `σ_j`'s copy in every row holding one, walking its
    /// adjacency list; returns the copies written.
    pub fn update_spin(&mut self, j: usize, new: Spin) -> u64 {
        let Some(entries) = self.adjacency.get(j) else {
            return 0;
        };
        for &(t, slot) in entries {
            if let Some(copy) = self
                .tuples
                .get_mut(t as usize)
                .and_then(|tuple| tuple.neighbor_spins.get_mut(slot as usize))
            {
                *copy = new;
            }
        }
        count_u64(entries.len())
    }
}

/// Each row's [`TupleSums`], moved one edge at a time on a flip.
#[derive(Debug, Clone)]
pub struct AosPlanes {
    bits: u32,
    sums: Vec<TupleSums>,
    /// One bit per spin id: the value its copies hold (up = 1).
    spin_bits: Vec<u64>,
}

impl AosPlanes {
    /// Builds every row's sums at `enc`'s resolution.
    ///
    /// # Errors
    ///
    /// Returns an error if a coupling does not fit `enc`.
    pub fn new(store: &AosStore, enc: &MixedEncoding) -> Result<Self, EncodingError> {
        let r = u64::from(enc.bits());
        let mut sums = Vec::with_capacity(store.tuples.len());
        let mut spin_bits = vec![0u64; store.tuples.len().div_ceil(64)];
        for tuple in &store.tuples {
            let mut s = TupleSums {
                h: -i64::from(tuple.field),
                n: count_u64(tuple.neighbors.len()),
                ..TupleSums::default()
            };
            for ((&j, &spin), &neighbor) in tuple
                .couplings
                .iter()
                .zip(&tuple.neighbor_spins)
                .zip(&tuple.neighbors)
            {
                let ones = u64::from(enc.encode_word(i64::from(j))?.count_ones());
                s.h -= i64::from(j) * spin.value();
                s.ones += ones;
                if spin.bit() {
                    s.up += 1;
                    s.matches += ones;
                    if let Some(word) = spin_bits.get_mut(neighbor as usize / 64) {
                        *word |= 1 << (neighbor % 64);
                    }
                } else {
                    s.matches += r - ones;
                }
            }
            sums.push(s);
        }
        Ok(AosPlanes {
            bits: enc.bits(),
            sums,
            spin_bits,
        })
    }

    /// Every row's sums, in spin order.
    pub fn sums(&self) -> &[TupleSums] {
        &self.sums
    }

    /// Mirrors a flip of `σ_j` to `new`: walks `σ_j`'s adjacency list
    /// alongside its own row (tuple-rep stores each edge's coupling in
    /// both endpoints) and moves each neighbour's sums by that edge's
    /// constants, recomputing the coupling's popcount every time.
    pub fn writeback_spin(&mut self, store: &AosStore, j: usize, new: Spin) {
        let bit = 1u64 << (j % 64);
        let (Some(word), Some(own), Some(entries)) = (
            self.spin_bits.get_mut(j / 64),
            store.tuples.get(j),
            store.adjacency.get(j),
        ) else {
            return;
        };
        if (*word & bit != 0) == new.bit() {
            return;
        }
        *word ^= bit;
        let r = u64::from(self.bits);
        let mask = u32::MAX >> (32 - self.bits);
        for (&(t, _), &coupling) in entries.iter().zip(&own.couplings) {
            let ones = u64::from((coupling as u32 & mask).count_ones());
            let Some(s) = self.sums.get_mut(t as usize) else {
                continue;
            };
            if new.bit() {
                s.h -= 2 * i64::from(coupling);
                s.up += 1;
                s.matches = s.matches + 2 * ones - r;
            } else {
                s.h += 2 * i64::from(coupling);
                s.up -= 1;
                s.matches = s.matches + r - 2 * ones;
            }
        }
    }
}
