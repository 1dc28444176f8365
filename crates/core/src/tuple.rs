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
//! reads it to find the relevant tuples (Fig. 8b). [`TupleStore`] reads
//! every tuple where the graph's CSR holds it: row `i` of the store *is*
//! row `i` of the graph, shared with every other replica that maps the
//! same build, so a job holds its couplings once. It keeps one state per
//! spin rather than the hardware's per-row copies, which always equal
//! it: [`TupleStore::update_spin`] writes that one state and returns the
//! copies the hardware would write (the flipped spin's degree) for the
//! machine to count, and [`TupleStore::tuple`] lends one row out as a
//! [`SpinTuple`]: the store and the row index, free to build, whose
//! slices are cut only when read.
//! [`TuplePlanes`] mirrors the store as one set of [`TupleSums`] per tuple
//! (`H`, up neighbours `P`, matching bits `U`, and the static degree and
//! coupling one-bits), built at map time and kept current on the same
//! update path. Those sums are all the designs' production kernel reads.

use crate::encoding::{EncodingError, MixedEncoding};
use sachi_ising::graph::IsingGraph;
use sachi_ising::spin::{Spin, SpinVector};
use sachi_mem::units::convert::count_u64;

/// One spin's tuple: the storage-array row of Fig. 7a, borrowed from the
/// [`TupleStore`] that holds it.
///
/// The view is the store and the row index, nothing more: building one
/// costs nothing, and its slices are cut only when a reader asks for
/// them. Two views compare equal when their rows hold the same content.
#[derive(Clone, Copy)]
pub struct SpinTuple<'a> {
    store: &'a TupleStore,
    row: usize,
}

impl<'a> SpinTuple<'a> {
    /// The spin this tuple computes `H_σ` for.
    pub fn target(&self) -> u32 {
        self.row as u32
    }

    /// Neighbor spin ids, ascending: the graph's own row.
    pub fn neighbors(&self) -> &'a [u32] {
        self.store.graph.neighbor_slices(self.row).0
    }

    /// Connecting interaction coefficients, aligned with
    /// [`SpinTuple::neighbors`].
    pub fn couplings(&self) -> &'a [i32] {
        self.store.graph.neighbor_slices(self.row).1
    }

    /// The neighbouring spin states, aligned with
    /// [`SpinTuple::neighbors`]: what the row's copies hold on the
    /// hardware (tuple-rep makes them local; the update path keeps them
    /// current), gathered from the store's one state per spin.
    pub fn neighbor_spins(&self) -> impl ExactSizeIterator<Item = Spin> + 'a {
        let spins = &self.store.spins;
        self.neighbors()
            .iter()
            .map(move |&j| spins.get(j as usize).copied().unwrap_or_default())
    }

    /// External field `h_i`.
    pub fn field(&self) -> i32 {
        self.store.graph.field(self.row)
    }

    /// Local field `H_σ = -Σ J_ij σ_j - h_i` computed from the tuple's
    /// own row — the independence that tuple-rep buys — and the
    /// neighbour states its copies hold.
    pub fn local_field(&self) -> i64 {
        let mut h = -i64::from(self.field());
        for (&j, s) in self.couplings().iter().zip(self.neighbor_spins()) {
            h -= i64::from(j) * s.value();
        }
        h
    }

    /// Number of neighbors (the paper's `N` for this tuple).
    #[inline]
    pub fn degree(&self) -> usize {
        self.store.graph.degree(self.row)
    }

    /// Storage bits of a tuple of `n` neighbors at resolution `r`
    /// (Fig. 7a): `n` neighbor-spin bits + `n` R-bit ICs + one R-bit
    /// field.
    pub fn storage_bits(n: u64, r: u32) -> u64 {
        n * (u64::from(r) + 1) + u64::from(r)
    }
}

impl PartialEq for SpinTuple<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.target() == other.target()
            && self.neighbors() == other.neighbors()
            && self.couplings() == other.couplings()
            && self.neighbor_spins().eq(other.neighbor_spins())
            && self.field() == other.field()
    }
}

impl Eq for SpinTuple<'_> {}

impl std::fmt::Debug for SpinTuple<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpinTuple")
            .field("target", &self.target())
            .field("neighbors", &self.neighbors())
            .field("couplings", &self.couplings())
            .field("neighbor_spins", &self.neighbor_spins().collect::<Vec<_>>())
            .field("field", &self.field())
            .finish()
    }
}

/// The storage array's logical content: all tuples, read where the
/// graph holds them, and the spin states their copies hold.
///
/// The store holds the mapped [`IsingGraph`] (an O(1) clone sharing the
/// caller's CSR) and no row arrays of its own: row `i` is the graph's
/// row `i`, read through its `neighbor_slices`, `field` and `degree`, in
/// ascending neighbour order. Row `j` is also `σ_j`'s range of the
/// adjacency region of Fig. 8b: it names the tuples holding a copy of
/// `σ_j`. Every copy of a spin holds the same state, so the store keeps
/// that state once, in `spins`, indexed by spin id.
#[derive(Debug, Clone)]
pub struct TupleStore {
    graph: IsingGraph,
    /// The rows the store lends out: the graph's first `rows` (all of
    /// them, or spin 0's alone for [`TupleStore::one_row`]).
    rows: usize,
    spins: Vec<Spin>,
    /// Whether tuple-rep is enabled. The ablation (`abl_tuple_rep`)
    /// disables it, which forces cross-tuple re-reads (counted, not
    /// simulated structurally).
    tuple_rep: bool,
    /// Per tuple, the cross-tuple re-reads one compute of it costs
    /// without tuple-rep (see [`TupleStore::rereads`]); empty with
    /// tuple-rep on.
    rereads: Vec<u64>,
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

    /// Builds the store with explicit tuple-rep setting: a clone of the
    /// graph, which shares its rows, and a copy of the spins.
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
        let rereads = if tuple_rep {
            Vec::new()
        } else {
            (0..n)
                .map(|i| {
                    let row = graph.neighbor_slices(i).0;
                    count_u64(row.iter().filter(|&&j| (j as usize) < i).count())
                })
                .collect()
        };
        TupleStore {
            graph: graph.clone(),
            rows: n,
            spins: spins.to_vec(),
            tuple_rep,
            rereads,
        }
    }

    /// A store of one standalone row, spin 0's, holding `neighbors`,
    /// `couplings`, the neighbour states `neighbor_spins` and `field`
    /// exactly as given: the input of single-tuple harnesses, read
    /// through `tuple(0)` and [`TuplePlanes::new`]. The row is built as a
    /// star on spin 0 through the graph's CSR fill, so its ids must be
    /// nonzero and strictly ascending (every caller passes `1..=n`). The
    /// coefficients are taken as given, `i32::MIN` included: a row at
    /// 32 bits may hold the encoding's whole range.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length, or if an id is zero,
    /// repeated or out of order.
    pub fn one_row(
        neighbors: &[u32],
        couplings: &[i32],
        neighbor_spins: &[Spin],
        field: i32,
    ) -> Self {
        let n = neighbors.len();
        assert!(
            couplings.len() == n && neighbor_spins.len() == n,
            "a row needs one coupling and one spin state per neighbour"
        );
        let ids = neighbors.iter().map(|&j| j as usize + 1).max().unwrap_or(1);
        let mut fields = vec![0; ids];
        fields[0] = field;
        let star = neighbors.iter().zip(couplings).map(|(&j, &w)| (0, j, w));
        let graph = IsingGraph::from_sorted_edges(fields, star)
            .expect("a row's neighbour ids must be nonzero and strictly ascending");
        let mut spins = vec![Spin::default(); ids];
        for (&j, &s) in neighbors.iter().zip(neighbor_spins) {
            spins[j as usize] = s;
        }
        TupleStore {
            graph,
            rows: 1,
            spins,
            tuple_rep: true,
            rereads: Vec::new(),
        }
    }

    /// Number of tuples (== spins, or 1 for [`TupleStore::one_row`]).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if the store holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Whether tuple-rep is enabled.
    pub fn tuple_rep(&self) -> bool {
        self.tuple_rep
    }

    /// The tuple of spin `i`: a view of the store and the row index,
    /// free to build.
    ///
    /// # Panics
    ///
    /// Reading the view panics if `i` is out of range.
    #[inline]
    pub fn tuple(&self, i: usize) -> SpinTuple<'_> {
        SpinTuple {
            store: self,
            row: i,
        }
    }

    /// Iterates all tuples in spin order.
    pub fn iter(&self) -> impl Iterator<Item = SpinTuple<'_>> + '_ {
        (0..self.len()).map(|i| self.tuple(i))
    }

    /// The cross-tuple re-reads one compute of tuple `i` needs *without*
    /// tuple-rep (one per neighbor whose shared IC would live only in
    /// the neighbor's tuple — on average half of them under the paper's
    /// single-copy alternative; we count the worst-case "J stored with
    /// the lower-indexed endpoint" convention: a re-read for every
    /// neighbor with a smaller index). Fixed at build time; 0 with
    /// tuple-rep on or for an out-of-range `i`.
    pub fn rereads(&self, i: usize) -> u64 {
        self.rereads.get(i).copied().unwrap_or(0)
    }

    /// The state `σ_j` every copy of it holds.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of the graph's range.
    pub fn spin(&self, j: usize) -> Spin {
        *self.spins.get(j).expect("spin id within the store's graph")
    }

    /// Applies a spin update: sets `σ_j`, which every copy of it reads.
    /// Returns the tuple entries the Fig. 8b path writes on the hardware,
    /// one copy in the row of each of `j`'s neighbours: its degree.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of the graph's range.
    pub fn update_spin(&mut self, j: usize, new: Spin) -> u64 {
        self.spins[j] = new;
        count_u64(self.graph.degree(j))
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
/// against the encoding and keeps each slot's `ones` in the graph's CSR
/// slot order. After that, [`TuplePlanes::writeback_spin`] walks the
/// flipped spin's own row of the graph (the Fig. 8b update path reaches
/// the same tuples) and applies one edge's constants to each neighbour's
/// tuple, so a design kernel reads its tuple's sums in O(1) instead of
/// re-reading every edge on every sweep. Tuple-rep stores each edge's
/// coupling in both endpoints' tuples, so the flipped spin's own row
/// supplies every constant of the walk. The mirror also records the spin
/// value its copies hold, so a writeback that changes no copy changes
/// nothing.
#[derive(Debug, Clone)]
pub struct TuplePlanes {
    bits: u32,
    sums: Vec<TupleSums>,
    /// Per slot, in the order the tuples were mirrored (for a store, the
    /// graph's CSR slots): the popcount of the slot coupling's R-bit word.
    ones: Vec<u8>,
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
        let slots = store.iter().map(|t| t.degree()).sum();
        Self::mirror(store.iter(), slots, enc)
    }

    /// Builds the mirror from an explicit tuple sequence (tests and
    /// single-tuple differential harnesses).
    ///
    /// # Errors
    ///
    /// Returns an error if any coupling is out of range for `enc`.
    pub fn from_tuples<'a, I>(tuples: I, enc: &MixedEncoding) -> Result<Self, EncodingError>
    where
        I: IntoIterator<Item = SpinTuple<'a>>,
    {
        Self::mirror(tuples, 0, enc)
    }

    /// Mirrors `tuples`, with room for `slots` slot popcounts reserved
    /// up front.
    fn mirror<'a, I>(tuples: I, slots: usize, enc: &MixedEncoding) -> Result<Self, EncodingError>
    where
        I: IntoIterator<Item = SpinTuple<'a>>,
    {
        let r = u64::from(enc.bits());
        let tuples = tuples.into_iter();
        let mut sums = Vec::with_capacity(tuples.size_hint().0);
        let mut ones_per_slot = Vec::with_capacity(slots);
        let mut spin_bits = Vec::new();
        for tuple in tuples {
            let mut s = TupleSums {
                h: -i64::from(tuple.field()),
                n: count_u64(tuple.degree()),
                ..TupleSums::default()
            };
            for ((&j, spin), &neighbor) in tuple
                .couplings()
                .iter()
                .zip(tuple.neighbor_spins())
                .zip(tuple.neighbors())
            {
                // At most 32 one-bits: R <= 32.
                let ones = enc.encode_word(i64::from(j))?.count_ones() as u8;
                ones_per_slot.push(ones);
                let ones = u64::from(ones);
                s.h -= i64::from(j) * spin.value();
                s.ones += ones;
                let (word, bit) = (neighbor as usize / 64, 1u64 << (neighbor % 64));
                if word >= spin_bits.len() {
                    spin_bits.resize(word + 1, 0);
                }
                // Arithmetic on the spin bit, not a branch: a random
                // initial pattern would mispredict every other slot.
                // `matches` gains `ones` when up and `R − ones` when down.
                let up = u64::from(spin.bit());
                s.up += up;
                s.matches += up * ones + (1 - up) * (r - ones);
                // Always present: the arena was just grown to cover `word`.
                if let Some(w) = spin_bits.get_mut(word) {
                    *w = (*w & !bit) | (bit & up.wrapping_neg());
                }
            }
            sums.push(s);
        }
        Ok(Self {
            bits: enc.bits(),
            sums,
            ones: ones_per_slot,
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

    /// Mirrors a spin flip: if the copies of `σ_j` change, walks `σ_j`'s
    /// own row of the store's graph and applies each edge's constants,
    /// with the slot's `ones` kept from the build, to the neighbour's
    /// tuple — the tuples whose copies [`TupleStore::update_spin`] bills.
    /// Call with the *store that built this mirror* (before or after its
    /// own update — rows and couplings are immutable).
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
        let (neighbors, couplings) = store.graph.neighbor_slices(j);
        for ((&t, &coupling), &ones) in neighbors
            .iter()
            .zip(couplings)
            .zip(&self.ones[store.graph.slots(j)])
        {
            let ones = u64::from(ones);
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
        assert_eq!(t1.target(), 1);
        assert_eq!(t1.degree(), 2);
        assert_eq!(t1.neighbors(), [0, 2]);
        assert_eq!(t1.couplings(), [3, -2]);
        assert!(t1.neighbor_spins().eq([Spin::Up, Spin::Up]));
        assert_eq!(t1.field(), 4);
    }

    #[test]
    fn every_row_is_the_graphs_own_row() {
        let g = topology::king(4, 5, |a, b| (a + b) as i32 % 5 - 2).unwrap();
        let s = SpinVector::filled(g.num_spins(), Spin::Up);
        for store in [
            TupleStore::new(&g, &s),
            TupleStore::with_tuple_rep(&g, &s, false),
        ] {
            assert_eq!(store.len(), g.num_spins());
            assert_eq!(store.graph.build_id(), g.build_id());
            for i in 0..g.num_spins() {
                let (neighbors, couplings) = g.neighbor_slices(i);
                let tuple = store.tuple(i);
                assert!(
                    std::ptr::eq(tuple.neighbors().as_ptr(), neighbors.as_ptr()),
                    "row {i}"
                );
                assert!(
                    std::ptr::eq(tuple.couplings().as_ptr(), couplings.as_ptr()),
                    "row {i}"
                );
                assert_eq!(tuple.field(), g.field(i));
                assert_eq!(tuple.degree(), g.degree(i));
            }
        }
    }

    #[test]
    fn one_row_returns_its_given_row_exactly() {
        let neighbors = [1, 2, 5, 9];
        let couplings = [i32::MIN, -3, 0, i32::MAX];
        let states = [Spin::Down, Spin::Up, Spin::Up, Spin::Down];
        let store = TupleStore::one_row(&neighbors, &couplings, &states, -7);
        assert_eq!(store.len(), 1);
        let tuple = store.tuple(0);
        assert_eq!(tuple.target(), 0);
        assert_eq!(tuple.neighbors(), neighbors);
        assert_eq!(tuple.couplings(), couplings);
        assert!(tuple.neighbor_spins().eq(states));
        assert_eq!(tuple.field(), -7);
        assert_eq!(store.iter().count(), 1);
        let empty = TupleStore::one_row(&[], &[], &[], 4);
        assert_eq!((empty.len(), empty.tuple(0).degree()), (1, 0));
        assert_eq!(empty.tuple(0).field(), 4);
    }

    #[test]
    #[should_panic(expected = "neighbour ids must be nonzero and strictly ascending")]
    fn one_row_refuses_a_repeated_id() {
        let _ = TupleStore::one_row(&[1, 2, 2], &[1, 1, 1], &[Spin::Up; 3], 0);
    }

    #[test]
    #[should_panic(expected = "neighbour ids must be nonzero and strictly ascending")]
    fn one_row_refuses_a_zero_id() {
        let _ = TupleStore::one_row(&[0, 1], &[1, 1], &[Spin::Up; 2], 0);
    }

    #[test]
    fn tuple_rep_duplicates_shared_ics() {
        // J_12 must appear in both tuple 1 and tuple 2 (Fig. 7b).
        let (g, s) = sample();
        let store = TupleStore::new(&g, &s);
        assert!(store.tuple(1).couplings().contains(&-2));
        assert!(store.tuple(2).couplings().contains(&-2));
        assert!(store.tuple_rep());
    }

    #[test]
    fn tuple_local_field_matches_golden() {
        let (g, s) = sample();
        let store = TupleStore::new(&g, &s);
        for i in 0..4 {
            assert_eq!(
                store.tuple(i).local_field(),
                local_field(&g, &s, i),
                "spin {i}"
            );
            assert_eq!(store.rereads(i), 0, "spin {i}");
        }
    }

    #[test]
    fn update_refreshes_all_copies() {
        let (g, s) = sample();
        let mut store = TupleStore::new(&g, &s);
        // Spin 0 appears in tuples 1 and 3.
        let written = store.update_spin(0, Spin::Down);
        assert_eq!(written, 2);
        assert_eq!(store.tuple(1).neighbor_spins().next(), Some(Spin::Down));
        // Tuple 3's adjacency is canonicalized to [0, 2]: spin 0 is slot 0.
        assert_eq!(store.tuple(3).neighbor_spins().next(), Some(Spin::Down));
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
        let store = TupleStore::with_tuple_rep(&g, &s, false);
        assert!(!store.tuple_rep());
        // Each of the 4 edges triggers exactly one re-read (at its
        // higher-indexed endpoint).
        assert_eq!((0..4).map(|i| store.rereads(i)).sum::<u64>(), 4);
    }

    #[test]
    fn storage_footprint_formulas() {
        let g = topology::king(3, 3, |_, _| 1).unwrap();
        let s = SpinVector::filled(9, Spin::Up);
        let mut store = TupleStore::new(&g, &s);
        // Center tuple: 8 neighbors, R=4 -> 8*5 + 4 = 44 bits.
        assert_eq!(
            SpinTuple::storage_bits(store.tuple(4).degree() as u64, 4),
            44
        );
        // Copies written by one flip of every spin = directed edge count
        // = 2 * edges.
        let copies: u64 = (0..9).map(|j| store.update_spin(j, Spin::Down)).sum();
        assert_eq!(copies, 2 * g.num_edges() as u64);
    }

    #[test]
    fn update_on_isolated_spin_writes_nothing() {
        let g = GraphBuilder::new(2).build().unwrap();
        let s = SpinVector::filled(2, Spin::Up);
        let mut store = TupleStore::new(&g, &s);
        assert_eq!(store.update_spin(0, Spin::Down), 0);
    }

    /// The sums of `tuple` recomputed from its copies.
    fn recompute(tuple: SpinTuple<'_>, enc: &MixedEncoding) -> TupleSums {
        let r = u64::from(enc.bits());
        let ones: Vec<u64> = tuple
            .couplings()
            .iter()
            .map(|&j| u64::from(enc.encode_word(i64::from(j)).unwrap().count_ones()))
            .collect();
        let up: Vec<bool> = tuple.neighbor_spins().map(|s| s == Spin::Up).collect();
        TupleSums {
            h: tuple.local_field(),
            n: tuple.degree() as u64,
            up: up.iter().filter(|&&u| u).count() as u64,
            ones: ones.iter().sum(),
            matches: (0..tuple.degree())
                .map(|k| if up[k] { ones[k] } else { r - ones[k] })
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
        let neighbors: Vec<u32> = (1..=n).collect();
        let couplings: Vec<i32> = (0..n as i32).map(|k| (k % 15) - 7).collect();
        let neighbor_spins: Vec<Spin> = (0..n)
            .map(|k| if k % 3 == 0 { Spin::Down } else { Spin::Up })
            .collect();
        let store = TupleStore::one_row(&neighbors, &couplings, &neighbor_spins, 2);
        let tuple = store.tuple(0);
        let enc = MixedEncoding::new(4).unwrap();
        let planes = TuplePlanes::from_tuples([tuple, tuple], &enc).unwrap();
        for i in 0..2 {
            let sums = planes.view(i).sums();
            assert_eq!(sums, recompute(tuple, &enc));
            assert_eq!(sums.n, 100);
            assert_eq!(sums.up, 66);
        }
    }

    #[test]
    fn soa_rejects_out_of_range_couplings() {
        let store = TupleStore::one_row(&[1], &[1000], &[Spin::Up], 0);
        let enc = MixedEncoding::new(4).unwrap();
        assert!(TuplePlanes::new(&store, &enc).is_err());
    }
}
