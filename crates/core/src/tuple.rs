//! Tuple mapping and the tuple-rep property (Sec. IV.B, Fig. 7).
//!
//! SACHI abstracts the incoming graph into *tuples*: one row of the storage
//! array per spin, holding the neighboring spin states, the connecting ICs,
//! and the external field. Because the same IC appears in the tuple of both
//! endpoints — "tuple-rep" — every tuple's `H_σ` is computable without
//! touching any other tuple, which is what lets tiles work independently.
//!
//! The price of tuple-rep is paid on *update*: when spin `j` flips, its
//! copy inside every tuple that contains it must be refreshed. A dedicated
//! region of the storage array holds the adjacency matrix; the update path
//! reads it to find the relevant tuples (Fig. 8b). [`TupleStore`] is that
//! pair of structures, and its counters feed the machine's cycle/energy
//! accounting. [`TuplePlanes`] mirrors the store as one set of
//! [`TupleSums`] per tuple (`H`, up neighbours `P`, matching bits `U`, and
//! the static degree and coupling one-bits), built at map time and kept
//! current on the same update path. Those sums are all the designs'
//! production kernel reads.

use crate::encoding::{EncodingError, MixedEncoding};
use sachi_ising::graph::IsingGraph;
use sachi_ising::spin::{Spin, SpinVector};
use sachi_mem::units::convert::count_u64;

/// One spin's tuple: the storage-array row of Fig. 7a.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpinTuple {
    /// The spin this tuple computes `H_σ` for.
    pub target: u32,
    /// Neighbor spin ids.
    pub neighbors: Vec<u32>,
    /// Connecting interaction coefficients, aligned with `neighbors`.
    pub couplings: Vec<i32>,
    /// *Copies* of the neighboring spin states (tuple-rep makes these
    /// local; they go stale unless the update path refreshes them).
    pub neighbor_spins: Vec<Spin>,
    /// External field `h_i`.
    pub field: i32,
}

impl SpinTuple {
    /// Local field `H_σ = -Σ J_ij σ_j - h_i` computed **entirely from the
    /// tuple's own copies** — the independence that tuple-rep buys.
    pub fn local_field(&self) -> i64 {
        let mut h = -(self.field as i64);
        for (j, s) in self.couplings.iter().zip(self.neighbor_spins.iter()) {
            h -= *j as i64 * s.value();
        }
        h
    }

    /// Number of neighbors (the paper's `N` for this tuple).
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Storage bits of a tuple of `n` neighbors at resolution `r`
    /// (Fig. 7a): `n` neighbor-spin bits + `n` R-bit ICs + one R-bit
    /// field.
    pub fn storage_bits(n: u64, r: u32) -> u64 {
        n * (u64::from(r) + 1) + u64::from(r)
    }
}

/// The storage array's logical content: all tuples plus the adjacency
/// index used by the update path.
#[derive(Debug, Clone)]
pub struct TupleStore {
    tuples: Vec<SpinTuple>,
    /// For each spin `j`: the list of `(tuple_index, slot)` pairs holding a
    /// copy of `σ_j` — the adjacency-matrix region of Fig. 8b.
    adjacency: Vec<Vec<(u32, u32)>>,
    /// Whether tuple-rep is enabled. The ablation (`abl_tuple_rep`)
    /// disables it, which forces cross-tuple re-reads (counted, not
    /// simulated structurally).
    tuple_rep: bool,
    /// Per tuple, the cross-tuple re-reads one compute of it costs
    /// without tuple-rep (see [`TupleStore::count_rereads`]); empty with
    /// tuple-rep on.
    rereads: Vec<u64>,
    spin_copy_updates: u64,
    adjacency_reads: u64,
    cross_tuple_rereads: u64,
}

impl TupleStore {
    /// Builds the store from a graph and the initial spins, with tuple-rep
    /// enabled (the paper's design).
    ///
    /// # Panics
    ///
    /// Panics if `spins.len() != graph.num_spins()`.
    pub fn new(graph: &IsingGraph, spins: &SpinVector) -> Self {
        Self::with_tuple_rep(graph, spins, true)
    }

    /// Builds the store with explicit tuple-rep setting.
    ///
    /// # Panics
    ///
    /// Panics if `spins.len() != graph.num_spins()`.
    pub fn with_tuple_rep(graph: &IsingGraph, spins: &SpinVector, tuple_rep: bool) -> Self {
        assert_eq!(
            spins.len(),
            graph.num_spins(),
            "spin vector must match graph size"
        );
        let n = graph.num_spins();
        let mut tuples = Vec::with_capacity(n);
        let mut adjacency: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for i in 0..n {
            let mut neighbors = Vec::with_capacity(graph.degree(i));
            let mut couplings = Vec::with_capacity(graph.degree(i));
            let mut neighbor_spins = Vec::with_capacity(graph.degree(i));
            for (slot, (j, w)) in graph.neighbors(i).enumerate() {
                neighbors.push(j);
                couplings.push(w);
                neighbor_spins.push(spins.get(j as usize));
                adjacency[j as usize].push((i as u32, slot as u32));
            }
            tuples.push(SpinTuple {
                target: i as u32,
                neighbors,
                couplings,
                neighbor_spins,
                field: graph.field(i),
            });
        }
        // Tuple-rep invariant: every adjacency entry for spin j must name
        // a (tuple, slot) that actually stores a copy of σ_j, there is
        // exactly one copy per adjacent tuple, and the entries follow
        // tuple j's own (sorted) neighbour order.
        debug_assert!(
            adjacency.iter().enumerate().all(|(j, entries)| {
                entries.len() == graph.degree(j)
                    && entries
                        .iter()
                        .zip(&tuples[j].neighbors)
                        .all(|(&(t, slot), &k)| {
                            t == k && tuples[t as usize].neighbors[slot as usize] as usize == j
                        })
            }),
            "tuple-rep construction broke the adjacency/copy correspondence"
        );
        let rereads = if tuple_rep {
            Vec::new()
        } else {
            tuples
                .iter()
                .enumerate()
                .map(|(i, t)| count_u64(t.neighbors.iter().filter(|&&j| (j as usize) < i).count()))
                .collect()
        };
        TupleStore {
            tuples,
            adjacency,
            tuple_rep,
            rereads,
            spin_copy_updates: 0,
            adjacency_reads: 0,
            cross_tuple_rereads: 0,
        }
    }

    /// Number of tuples (== spins).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if the store holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Whether tuple-rep is enabled.
    pub fn tuple_rep(&self) -> bool {
        self.tuple_rep
    }

    /// The tuple of spin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn tuple(&self, i: usize) -> &SpinTuple {
        &self.tuples[i]
    }

    /// Iterates all tuples in spin order.
    pub fn iter(&self) -> std::slice::Iter<'_, SpinTuple> {
        self.tuples.iter()
    }

    /// Counts the cross-tuple re-reads one compute of tuple `i` needs
    /// *without* tuple-rep (one per neighbor whose shared IC would live
    /// only in the neighbor's tuple — on average half of them under the
    /// paper's single-copy alternative; we count the worst-case "J stored
    /// with the lower-indexed endpoint" convention: a re-read for every
    /// neighbor with a smaller index). The count is fixed at build time;
    /// with tuple-rep on this books nothing.
    pub fn count_rereads(&mut self, i: usize) {
        if let Some(&rereads) = self.rereads.get(i) {
            self.cross_tuple_rereads += rereads;
        }
    }

    /// Computes the local field of spin `i` from its tuple, counting the
    /// re-reads of [`TupleStore::count_rereads`].
    pub fn local_field(&mut self, i: usize) -> i64 {
        self.count_rereads(i);
        self.tuples[i].local_field()
    }

    /// The adjacency entries of spin `j`: every `(tuple_index, slot)` pair
    /// holding a copy of `σ_j`, in ascending tuple order — so entry `k`
    /// is the tuple of neighbour `k` of `σ_j`'s own tuple. This is the
    /// read the Fig. 8b update path performs; exposing it lets mirrored
    /// stores ([`TuplePlanes`]) follow the same walk without duplicating
    /// the index.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn adjacency_of(&self, j: usize) -> &[(u32, u32)] {
        &self.adjacency[j]
    }

    /// Applies a spin update through the Fig. 8b path: reads the adjacency
    /// matrix, then refreshes `σ_j`'s copy in every relevant tuple.
    /// Returns the number of tuple entries written.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn update_spin(&mut self, j: usize, new: Spin) -> u64 {
        self.adjacency_reads += 1;
        let entries = std::mem::take(&mut self.adjacency[j]);
        let count = entries.len() as u64;
        for &(t, slot) in &entries {
            debug_assert_eq!(
                self.tuples[t as usize].neighbors[slot as usize] as usize,
                j,
                "tuple-rep adjacency corrupt: entry for spin {j} points at tuple {t} slot {slot}, which holds a different neighbor"
            );
            self.tuples[t as usize].neighbor_spins[slot as usize] = new;
        }
        self.adjacency[j] = entries;
        self.spin_copy_updates += count;
        count
    }

    /// Total spin-copy writes so far (storage-array write traffic of the
    /// update path).
    pub fn spin_copy_updates(&self) -> u64 {
        self.spin_copy_updates
    }

    /// Adjacency-matrix reads so far.
    pub fn adjacency_reads(&self) -> u64 {
        self.adjacency_reads
    }

    /// Cross-tuple re-reads that the no-tuple-rep ablation would incur.
    pub fn cross_tuple_rereads(&self) -> u64 {
        self.cross_tuple_rereads
    }
}

/// One tuple's running sums: everything the designs' closed-form ledgers
/// need besides the schedule constants.
///
/// `H`, `P` and `U` are linear in the neighbour spins, so a flip of `σ_j`
/// moves each tuple holding a copy by constants of that one edge
/// (`ΔH = ∓2·J`, `ΔP = ±1`, `ΔU = ±(2·ones − R)`, upper signs for a copy
/// turning up); `n` and `C1` never change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TupleSums {
    /// `H_σ = −(h + Σ_k J_k·σ_k)`.
    pub h: i64,
    /// Degree `n`.
    pub n: u64,
    /// Up neighbours `P`.
    pub up: u64,
    /// Stored coupling one-bits `C1 = Σ_k ones_k`, where `ones_k` is the
    /// popcount of `J_k`'s R-bit two's-complement word.
    pub ones: u64,
    /// Coupling bits equal to their own neighbour's spin bit,
    /// `U = Σ_k (σ_k up ? ones_k : R − ones_k)`.
    pub matches: u64,
}

/// The kernel-side mirror of a [`TupleStore`]: each tuple's
/// [`TupleSums`], kept current under spin flips.
///
/// The mirror is built once at map time, which validates every coupling
/// against the encoding. After that, [`TuplePlanes::writeback_spin`]
/// walks the same adjacency entries as [`TupleStore::update_spin`] (the
/// Fig. 8b update path) and applies one edge's constants to each tuple
/// holding a copy of the flipped spin, so a design kernel reads its
/// tuple's sums in O(1) instead of re-reading every edge on every sweep.
/// Tuple-rep stores each edge's coupling in both endpoints' tuples, so
/// the flipped spin's own tuple supplies every constant of the walk, in
/// adjacency order. The mirror also records the spin value its copies
/// hold, so a writeback that changes no copy changes nothing.
#[derive(Debug, Clone)]
pub struct TuplePlanes {
    bits: u32,
    sums: Vec<TupleSums>,
    /// One bit per spin id: the value the mirrored copies of that spin
    /// hold (up = 1).
    spin_bits: Vec<u64>,
}

/// Borrowed view of one tuple's sums — what a design kernel receives.
#[derive(Debug, Clone, Copy)]
pub struct TuplePlaneView<'a> {
    sums: &'a TupleSums,
}

impl TuplePlaneView<'_> {
    /// The tuple's current sums.
    pub fn sums(&self) -> TupleSums {
        *self.sums
    }
}

impl TuplePlanes {
    /// Builds the mirror of `store` at the encoding's resolution.
    ///
    /// # Errors
    ///
    /// Returns an error if any coupling is out of range for `enc`.
    pub fn new(store: &TupleStore, enc: &MixedEncoding) -> Result<Self, EncodingError> {
        Self::from_tuples(store.iter(), enc)
    }

    /// Builds the mirror from an explicit tuple sequence (tests and
    /// single-tuple differential harnesses).
    ///
    /// # Errors
    ///
    /// Returns an error if any coupling is out of range for `enc`.
    pub fn from_tuples<'a, I>(tuples: I, enc: &MixedEncoding) -> Result<Self, EncodingError>
    where
        I: IntoIterator<Item = &'a SpinTuple>,
    {
        let r = u64::from(enc.bits());
        let mut sums = Vec::new();
        let mut spin_bits = Vec::new();
        for tuple in tuples {
            let mut s = TupleSums {
                h: -i64::from(tuple.field),
                n: count_u64(tuple.degree()),
                ..TupleSums::default()
            };
            for ((&j, &spin), &neighbor) in tuple
                .couplings
                .iter()
                .zip(tuple.neighbor_spins.iter())
                .zip(tuple.neighbors.iter())
            {
                let ones = u64::from(enc.encode_word(i64::from(j))?.count_ones());
                s.h -= i64::from(j) * spin.value();
                s.ones += ones;
                let (word, bit) = (neighbor as usize / 64, 1u64 << (neighbor % 64));
                if word >= spin_bits.len() {
                    spin_bits.resize(word + 1, 0);
                }
                if spin.bit() {
                    s.up += 1;
                    s.matches += ones;
                    spin_bits[word] |= bit;
                } else {
                    s.matches += r - ones;
                    spin_bits[word] &= !bit;
                }
            }
            sums.push(s);
        }
        Ok(Self {
            bits: enc.bits(),
            sums,
            spin_bits,
        })
    }

    /// Encoding resolution the mirror was built at.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of mirrored tuples.
    pub fn len(&self) -> usize {
        self.sums.len()
    }

    /// True if no tuples are mirrored.
    pub fn is_empty(&self) -> bool {
        self.sums.is_empty()
    }

    /// The view of tuple `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn view(&self, i: usize) -> TuplePlaneView<'_> {
        TuplePlaneView {
            sums: &self.sums[i],
        }
    }

    /// Mirrors a spin flip: if the copies of `σ_j` change, walks the same
    /// adjacency entries as [`TupleStore::update_spin`] and applies the
    /// edge's constants to every tuple holding a copy. Call with the
    /// *store that built this mirror* (before or after its own update —
    /// the adjacency index and couplings are immutable).
    ///
    /// # Panics
    ///
    /// Panics if `store` does not match the tuples this mirror was built
    /// from.
    pub fn writeback_spin(&mut self, store: &TupleStore, j: usize, new: Spin) {
        // A spin no tuple holds a copy of has nothing to write back.
        let Some(word) = self.spin_bits.get_mut(j / 64) else {
            return;
        };
        let bit = 1u64 << (j % 64);
        if (*word & bit != 0) == new.bit() {
            return;
        }
        *word ^= bit;
        let r = u64::from(self.bits);
        let mask = u32::MAX >> (32 - self.bits);
        // Adjacency entry k is the tuple of σ_j's neighbour k, and tuple-rep
        // stores their coupling in σ_j's own tuple too, at slot k.
        let own = store.tuple(j);
        for (&(t, _), (&neighbor, &coupling)) in store
            .adjacency_of(j)
            .iter()
            .zip(own.neighbors.iter().zip(own.couplings.iter()))
        {
            debug_assert_eq!(t, neighbor, "adjacency of spin {j} out of neighbour order");
            // `ones` of the R-bit two's-complement word, as built.
            let ones = u64::from((coupling as u32 & mask).count_ones());
            let s = &mut self.sums[t as usize];
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

#[cfg(test)]
mod tests {
    use super::*;
    use sachi_ising::graph::{topology, GraphBuilder};
    use sachi_ising::hamiltonian::local_field;

    fn sample() -> (IsingGraph, SpinVector) {
        let g = GraphBuilder::new(4)
            .edge(0, 1, 3)
            .edge(1, 2, -2)
            .edge(2, 3, 5)
            .edge(0, 3, 1)
            .field(1, 4)
            .build()
            .unwrap();
        let s = SpinVector::from_spins(&[Spin::Up, Spin::Down, Spin::Up, Spin::Down]);
        (g, s)
    }

    #[test]
    fn tuples_mirror_graph_structure() {
        let (g, s) = sample();
        let store = TupleStore::new(&g, &s);
        assert_eq!(store.len(), 4);
        assert!(!store.is_empty());
        let t1 = store.tuple(1);
        assert_eq!(t1.target, 1);
        assert_eq!(t1.degree(), 2);
        assert_eq!(t1.neighbors, vec![0, 2]);
        assert_eq!(t1.couplings, vec![3, -2]);
        assert_eq!(t1.neighbor_spins, vec![Spin::Up, Spin::Up]);
        assert_eq!(t1.field, 4);
    }

    #[test]
    fn tuple_rep_duplicates_shared_ics() {
        // J_12 must appear in both tuple 1 and tuple 2 (Fig. 7b).
        let (g, s) = sample();
        let store = TupleStore::new(&g, &s);
        assert!(store.tuple(1).couplings.contains(&-2));
        assert!(store.tuple(2).couplings.contains(&-2));
        assert!(store.tuple_rep());
    }

    #[test]
    fn tuple_local_field_matches_golden() {
        let (g, s) = sample();
        let mut store = TupleStore::new(&g, &s);
        for i in 0..4 {
            assert_eq!(store.local_field(i), local_field(&g, &s, i), "spin {i}");
        }
        assert_eq!(store.cross_tuple_rereads(), 0);
    }

    #[test]
    fn update_refreshes_all_copies() {
        let (g, s) = sample();
        let mut store = TupleStore::new(&g, &s);
        // Spin 0 appears in tuples 1 and 3.
        let written = store.update_spin(0, Spin::Down);
        assert_eq!(written, 2);
        assert_eq!(store.tuple(1).neighbor_spins[0], Spin::Down);
        // Tuple 3's adjacency is canonicalized to [0, 2]: spin 0 is slot 0.
        assert_eq!(store.tuple(3).neighbor_spins[0], Spin::Down);
        assert_eq!(store.spin_copy_updates(), 2);
        assert_eq!(store.adjacency_reads(), 1);
        // Fields match a freshly built store on the updated spins.
        let mut s2 = s.clone();
        s2.set(0, Spin::Down);
        let fresh = TupleStore::new(&g, &s2);
        for i in 0..4 {
            assert_eq!(store.tuple(i).local_field(), fresh.tuple(i).local_field());
        }
    }

    #[test]
    fn no_tuple_rep_counts_rereads() {
        let (g, s) = sample();
        let mut store = TupleStore::with_tuple_rep(&g, &s, false);
        assert!(!store.tuple_rep());
        for i in 0..4 {
            store.local_field(i);
        }
        // Each of the 4 edges triggers exactly one re-read (at its
        // higher-indexed endpoint).
        assert_eq!(store.cross_tuple_rereads(), 4);
    }

    #[test]
    fn storage_footprint_formulas() {
        let g = topology::king(3, 3, |_, _| 1).unwrap();
        let s = SpinVector::filled(9, Spin::Up);
        let store = TupleStore::new(&g, &s);
        // Center tuple: 8 neighbors, R=4 -> 8*5 + 4 = 44 bits.
        assert_eq!(
            SpinTuple::storage_bits(store.tuple(4).degree() as u64, 4),
            44
        );
        // Adjacency bits = directed edge count = 2 * edges.
        let adjacency: usize = (0..9).map(|j| store.adjacency_of(j).len()).sum();
        assert_eq!(adjacency, 2 * g.num_edges());
    }

    #[test]
    fn update_on_isolated_spin_writes_nothing() {
        let g = GraphBuilder::new(2).build().unwrap();
        let s = SpinVector::filled(2, Spin::Up);
        let mut store = TupleStore::new(&g, &s);
        assert_eq!(store.update_spin(0, Spin::Down), 0);
        assert_eq!(store.spin_copy_updates(), 0);
    }

    /// The sums of `tuple` recomputed from its AoS copies.
    fn recompute(tuple: &SpinTuple, enc: &MixedEncoding) -> TupleSums {
        let r = u64::from(enc.bits());
        let ones: Vec<u64> = tuple
            .couplings
            .iter()
            .map(|&j| u64::from(enc.encode_word(i64::from(j)).unwrap().count_ones()))
            .collect();
        let up = |k: usize| tuple.neighbor_spins[k] == Spin::Up;
        TupleSums {
            h: tuple.local_field(),
            n: tuple.degree() as u64,
            up: (0..tuple.degree()).filter(|&k| up(k)).count() as u64,
            ones: ones.iter().sum(),
            matches: (0..tuple.degree())
                .map(|k| if up(k) { ones[k] } else { r - ones[k] })
                .sum(),
        }
    }

    fn assert_planes_mirror_store(planes: &TuplePlanes, store: &TupleStore, enc: &MixedEncoding) {
        assert_eq!(planes.len(), store.len());
        for (i, tuple) in store.iter().enumerate() {
            assert_eq!(planes.view(i).sums(), recompute(tuple, enc), "tuple {i}");
        }
    }

    #[test]
    fn soa_mirror_matches_aos_store() {
        let (g, s) = sample();
        let store = TupleStore::new(&g, &s);
        let enc = MixedEncoding::new(4).unwrap();
        let planes = TuplePlanes::new(&store, &enc).unwrap();
        assert_eq!(planes.bits(), 4);
        assert!(!planes.is_empty());
        assert_planes_mirror_store(&planes, &store, &enc);
    }

    #[test]
    fn soa_writeback_tracks_spin_updates() {
        // King graph: degree 8 exercises multi-neighbor rows, and the
        // copy bits of later tuples cross word boundaries.
        let g = topology::king(4, 4, |a, b| ((a + 2 * b) % 7) as i32 - 3).unwrap();
        let mut s = SpinVector::filled(16, Spin::Up);
        let mut store = TupleStore::new(&g, &s);
        let enc = MixedEncoding::new(4).unwrap();
        let mut planes = TuplePlanes::new(&store, &enc).unwrap();
        for (j, flip) in [
            (5usize, Spin::Down),
            (0, Spin::Down),
            (5, Spin::Up),
            (10, Spin::Down),
            (10, Spin::Down),
        ] {
            s.set(j, flip);
            store.update_spin(j, flip);
            planes.writeback_spin(&store, j, flip);
            assert_planes_mirror_store(&planes, &store, &enc);
            // The incremental mirror equals a from-scratch rebuild.
            let fresh = TuplePlanes::new(&store, &enc).unwrap();
            for i in 0..store.len() {
                assert_eq!(planes.view(i).sums(), fresh.view(i).sums());
            }
        }
    }

    #[test]
    fn soa_mirror_spans_word_boundaries() {
        // A 100-neighbor tuple owns two words of copy bits; its sums must
        // count every copy on both sides of the boundary.
        let n = 100u32;
        let tuple = SpinTuple {
            target: 0,
            neighbors: (1..=n).collect(),
            couplings: (0..n as i32).map(|k| (k % 15) - 7).collect(),
            neighbor_spins: (0..n)
                .map(|k| if k % 3 == 0 { Spin::Down } else { Spin::Up })
                .collect(),
            field: 2,
        };
        let enc = MixedEncoding::new(4).unwrap();
        let planes = TuplePlanes::from_tuples([&tuple, &tuple], &enc).unwrap();
        for i in 0..2 {
            let sums = planes.view(i).sums();
            assert_eq!(sums, recompute(&tuple, &enc));
            assert_eq!(sums.n, 100);
            assert_eq!(sums.up, 66);
        }
    }

    #[test]
    fn soa_rejects_out_of_range_couplings() {
        let tuple = SpinTuple {
            target: 0,
            neighbors: vec![1],
            couplings: vec![1000],
            neighbor_spins: vec![Spin::Up],
            field: 0,
        };
        let enc = MixedEncoding::new(4).unwrap();
        assert!(TuplePlanes::from_tuples([&tuple], &enc).is_err());
    }
}
