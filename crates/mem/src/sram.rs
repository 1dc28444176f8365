//! Bit-accurate functional model of an 8T SRAM compute tile.
//!
//! The SACHI compute array is built from unmodified 8T bitcells with
//! decoupled read and write ports (Sec. IV.C.2, Fig. 10). The cell has two
//! modes:
//!
//! * **Normal mode** — data is written via WWL/WBL and read via RWL/RBL,
//!   exactly like the L1 cache it repurposes.
//! * **Ising compute mode** — the read word-line is repurposed as a compute
//!   input. Two bitcells in the same column hold a stored bit `S` and its
//!   complement `S'`; driving their RWLs with an input `J` and its complement
//!   `J'` makes the shared read bit-line compute
//!   `(S AND J) OR (S' AND J') == S XNOR J`. The RBL *discharges* when the
//!   XNOR value is 1 and retains its precharge when it is 0.
//!
//! This module models the array at the bit level: a compute access returns
//! exactly the discharge pattern the silicon would produce, and the energy
//! counters distinguish *useful* discharges (columns whose bit-line select
//! was enabled and sensed) from *redundant* discharges (columns that
//! discharged anyway because they share the activated word-line). Redundant
//! discharge is the energy-waste mechanism of Fig. 5c that motivates
//! SACHI's reuse-aware designs.
//!
//! Because a bit-line discharges exactly when `stored XNOR driven` is 1,
//! every counter a compute schedule books follows from popcounts of the
//! stored and driven bits. The designs' production kernel uses that: it
//! books a whole `H_σ`'s events in closed form through
//! [`SramTile::book`]. The access methods here are the bit-level
//! datapath those closed forms are proven against (the scalar design
//! oracles, `fig10_bitline`, and the resident-array test oracle).

use crate::params::TechnologyParams;
use crate::units::convert::count_u64;
use crate::units::Picojoules;
use std::fmt;
use std::ops::Range;

/// Generator-style tile parameters, the way sram22 exposes its bitcell
/// arrays: rows, columns, and the bank count as first-class knobs rather
/// than hard-coded geometry.
///
/// Banks partition the write port: a `B`-bank tile accepts `B` row
/// uploads per cycle (one per bank write port), so a chunk of `rows`
/// tuple rows streams in over `ceil(rows / B)` cycles instead of `rows`.
/// The compute side is unaffected — banking widens the *upload* path the
/// sweep pipeline overlaps against the prefetcher, not the XNOR arrays.
/// `banks == 1` is, by construction, exactly the unbanked tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileParams {
    /// Number of rows.
    pub rows: usize,
    /// Bits per row.
    pub cols: usize,
    /// Write-port banks (`>= 1`).
    pub banks: usize,
}

impl TileParams {
    /// Single-bank parameters for a `rows x cols` tile.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "tile must have non-zero dimensions");
        TileParams {
            rows,
            cols,
            banks: 1,
        }
    }

    /// Sets the bank count.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    pub fn with_banks(mut self, banks: usize) -> Self {
        assert!(banks >= 1, "tile needs at least one bank");
        self.banks = banks;
        self
    }

    /// Cycles to upload `rows` tuple rows through the banked write port:
    /// `ceil(rows / banks)`. With one bank this is the identity, which is
    /// what keeps `banks == 1` cycle-identical to the unbanked machine.
    #[must_use]
    pub fn upload_cycles(&self, rows: u64) -> u64 {
        rows.div_ceil(count_u64(self.banks))
    }
}

/// Error returned by [`SramTile`] operations on out-of-bounds accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessError {
    /// Human-readable description of the violated bound.
    what: String,
}

impl AccessError {
    fn new(what: impl Into<String>) -> Self {
        AccessError { what: what.into() }
    }
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sram access out of bounds: {}", self.what)
    }
}

impl std::error::Error for AccessError {}

/// Raw event counters accumulated by a tile.
///
/// Counters are converted to energy by the consumer's price list (the
/// round plan in `sachi-core`) using a [`TechnologyParams`]; keeping raw
/// counts lets the same run be re-priced under different technology
/// assumptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileStats {
    /// Read word-line activations (each compute access pulses the stored
    /// row and its complement row: 2 activations).
    pub rwl_activations: u64,
    /// Total bit-line discharge events, useful and redundant.
    pub rbl_discharges: u64,
    /// Discharges on columns whose output was *not* sensed (redundant
    /// compute energy, Fig. 5c).
    pub redundant_discharges: u64,
    /// Bits written through the write port.
    pub bits_written: u64,
    /// Bits read in normal (non-compute) mode.
    pub bits_read: u64,
    /// Number of compute-mode accesses (one per cycle per tile).
    pub compute_accesses: u64,
}

impl TileStats {
    /// Energy attributable to redundant discharges alone.
    pub fn redundant_energy(&self, params: &TechnologyParams) -> Picojoules {
        params.rbl_energy_per_bit() * self.redundant_discharges
    }

    /// Exports the counters into `reg` under the `sram_` prefix.
    pub fn export(&self, reg: &mut sachi_obs::MetricsRegistry) {
        reg.counter_add("sram_rwl_activations", self.rwl_activations);
        reg.counter_add("sram_rbl_discharges", self.rbl_discharges);
        reg.counter_add("sram_redundant_discharges", self.redundant_discharges);
        reg.counter_add("sram_bits_written", self.bits_written);
        reg.counter_add("sram_bits_read", self.bits_read);
        reg.counter_add("sram_compute_accesses", self.compute_accesses);
    }

    /// Adds another tile's counters into this one.
    pub fn merge(&mut self, other: &TileStats) {
        self.rwl_activations += other.rwl_activations;
        self.rbl_discharges += other.rbl_discharges;
        self.redundant_discharges += other.redundant_discharges;
        self.bits_written += other.bits_written;
        self.bits_read += other.bits_read;
        self.compute_accesses += other.compute_accesses;
    }
}

/// A single SRAM tile of `rows x cols` logical bits.
///
/// The complementary bitcell of each stored bit (required for compute mode)
/// is modeled implicitly: a compute access books two word-line activations
/// and the capacity bookkeeping in [`crate::cache::CacheGeometry`] follows
/// the paper in quoting logical capacity.
///
/// ```
/// use sachi_mem::sram::SramTile;
///
/// let mut tile = SramTile::new(4, 8);
/// tile.write_row(0, &[true, false, true, false, true, false, true, false]).unwrap();
/// // Drive the row's RWL with J = 1 and sense only columns 0..2:
/// let out = tile.compute_xnor(0, true, 0..2).unwrap();
/// assert_eq!(out, vec![true, false]); // 1 XNOR 1 = 1, 0 XNOR 1 = 0
/// ```
#[derive(Debug, Clone)]
pub struct SramTile {
    rows: usize,
    cols: usize,
    banks: usize,
    words_per_row: usize,
    bits: Vec<u64>,
    stats: TileStats,
}

impl SramTile {
    /// Creates a zero-initialized single-bank tile.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self::with_params(TileParams::new(rows, cols))
    }

    /// Creates a zero-initialized tile from generator parameters. The bank
    /// count only widens the upload path's cycle accounting (see
    /// [`TileParams::upload_cycles`]); stored bits, compute kernels, and
    /// every [`TileStats`] counter are identical across bank counts.
    pub fn with_params(params: TileParams) -> Self {
        let words_per_row = params.cols.div_ceil(64);
        SramTile {
            rows: params.rows,
            cols: params.cols,
            banks: params.banks,
            words_per_row,
            bits: vec![0; params.rows * words_per_row],
            stats: TileStats::default(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (bits per row).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of write-port banks.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// The tile's generator parameters.
    pub fn params(&self) -> TileParams {
        TileParams {
            rows: self.rows,
            cols: self.cols,
            banks: self.banks,
        }
    }

    /// The accumulated event counters.
    pub fn stats(&self) -> &TileStats {
        &self.stats
    }

    /// Books a batch of events computed in closed form — the counters a
    /// sequence of accesses on this tile would have produced — without
    /// touching any bitcell. The designs' production kernel books its
    /// whole `H_σ` this way; the access methods below remain the
    /// bit-accurate datapath those closed forms are checked against.
    pub fn book(&mut self, delta: &TileStats) {
        self.stats.merge(delta);
    }

    #[inline]
    fn check(&self, row: usize, col: usize) -> Result<(), AccessError> {
        if row >= self.rows {
            return Err(AccessError::new(format!("row {row} >= {}", self.rows)));
        }
        if col >= self.cols {
            return Err(AccessError::new(format!("col {col} >= {}", self.cols)));
        }
        Ok(())
    }

    #[inline]
    fn bit_unchecked(&self, row: usize, col: usize) -> bool {
        let word = self.bits[row * self.words_per_row + col / 64];
        (word >> (col % 64)) & 1 == 1
    }

    #[inline]
    fn set_bit_unchecked(&mut self, row: usize, col: usize, value: bool) {
        let word = &mut self.bits[row * self.words_per_row + col / 64];
        if value {
            *word |= 1 << (col % 64);
        } else {
            *word &= !(1 << (col % 64));
        }
    }

    /// Writes one bit through the write port.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if `row`/`col` is out of bounds.
    pub fn write_bit(&mut self, row: usize, col: usize, value: bool) -> Result<(), AccessError> {
        self.check(row, col)?;
        self.set_bit_unchecked(row, col, value);
        self.stats.bits_written += 1;
        Ok(())
    }

    /// Writes a full row, starting at column 0.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if `row` is out of bounds or `values` is wider
    /// than the row.
    pub fn write_row(&mut self, row: usize, values: &[bool]) -> Result<(), AccessError> {
        if values.len() > self.cols {
            return Err(AccessError::new(format!(
                "row write of {} bits > {} cols",
                values.len(),
                self.cols
            )));
        }
        self.check(row, 0)?;
        for (col, &v) in values.iter().enumerate() {
            self.set_bit_unchecked(row, col, v);
        }
        self.stats.bits_written += count_u64(values.len());
        Ok(())
    }

    /// Writes `values` into a row starting at `start_col`.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] on out-of-bounds.
    pub fn write_slice(
        &mut self,
        row: usize,
        start_col: usize,
        values: &[bool],
    ) -> Result<(), AccessError> {
        if start_col + values.len() > self.cols {
            return Err(AccessError::new(format!(
                "slice write [{start_col}, {}) > {} cols",
                start_col + values.len(),
                self.cols
            )));
        }
        self.check(row, start_col.min(self.cols.saturating_sub(1)))?;
        for (i, &v) in values.iter().enumerate() {
            self.set_bit_unchecked(row, start_col + i, v);
        }
        self.stats.bits_written += count_u64(values.len());
        Ok(())
    }

    /// Reads one bit in normal mode.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if `row`/`col` is out of bounds.
    pub fn read_bit(&mut self, row: usize, col: usize) -> Result<bool, AccessError> {
        self.check(row, col)?;
        self.stats.bits_read += 1;
        Ok(self.bit_unchecked(row, col))
    }

    /// Peeks a bit without booking any access energy (testing/debug).
    pub fn peek(&self, row: usize, col: usize) -> Option<bool> {
        if row < self.rows && col < self.cols {
            Some(self.bit_unchecked(row, col))
        } else {
            None
        }
    }

    /// One Ising-compute-mode access: drives the RWL pair of `row` with
    /// `input` (and its complement), senses the columns in `sense`, and
    /// returns their XNOR values.
    ///
    /// Physics captured:
    ///
    /// * **every** column of the row discharges its RBL whenever
    ///   `stored XNOR input == 1` — whether or not it is sensed;
    /// * discharges outside `sense` are booked as redundant compute;
    /// * two word-lines pulse per access (true + complement row).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if `row` is out of bounds or `sense` exceeds
    /// the row width.
    pub fn compute_xnor(
        &mut self,
        row: usize,
        input: bool,
        sense: Range<usize>,
    ) -> Result<Vec<bool>, AccessError> {
        let cols = self.cols;
        self.compute_xnor_windowed(row, input, 0..cols, sense)
    }

    /// Compute access with an explicit *active window*: only columns inside
    /// `active` are precharged (columns that never hold live data are
    /// statically power-gated, a standard column-gating technique), so only
    /// they can discharge. `sense` selects which of the active columns are
    /// read out; active-but-unsensed columns that discharge are booked as
    /// redundant compute.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if `row` is out of bounds, `active` exceeds
    /// the row width, or `sense` is not contained in `active`.
    pub fn compute_xnor_windowed(
        &mut self,
        row: usize,
        input: bool,
        active: Range<usize>,
        sense: Range<usize>,
    ) -> Result<Vec<bool>, AccessError> {
        if active.end > self.cols {
            return Err(AccessError::new(format!(
                "active range end {} > {} cols",
                active.end, self.cols
            )));
        }
        if !sense.is_empty() && (sense.start < active.start || sense.end > active.end) {
            return Err(AccessError::new(format!(
                "sense range {sense:?} outside active window {active:?}"
            )));
        }
        self.check(row, 0)?;
        self.stats.compute_accesses += 1;
        self.stats.rwl_activations += 2;

        // Word-level evaluation: XNOR(S, input) per 64-bit word, masked to
        // the active columns of the row.
        let base = row * self.words_per_row;
        let broadcast = if input { u64::MAX } else { 0 };
        let mut discharges = 0u64;
        let mut useful = 0u64;
        let mut out = Vec::with_capacity(sense.len());
        for w in 0..self.words_per_row {
            let word_start = w * 64;
            let valid_bits = (self.cols - word_start).min(64);
            // Active columns within this word.
            let alo = active.start.max(word_start);
            let ahi = active.end.min(word_start + valid_bits);
            if alo >= ahi {
                continue;
            }
            let span = ahi - alo;
            let amask = if span == 64 {
                u64::MAX
            } else {
                ((1u64 << span) - 1) << (alo - word_start)
            };
            let xnor = !(self.bits[base + w] ^ broadcast) & amask;
            discharges += u64::from(xnor.count_ones());
            // Sensed columns within this word.
            let lo = sense.start.max(word_start);
            let hi = sense.end.min(word_start + valid_bits);
            if lo < hi {
                let sensed = (xnor >> (lo - word_start))
                    & if hi - lo == 64 {
                        u64::MAX
                    } else {
                        (1u64 << (hi - lo)) - 1
                    };
                useful += u64::from(sensed.count_ones());
                for b in 0..(hi - lo) {
                    out.push((sensed >> b) & 1 == 1);
                }
            }
        }
        self.stats.rbl_discharges += discharges;
        self.stats.redundant_discharges += discharges - useful;
        Ok(out)
    }

    /// Single-column compute access within an active window (the SACHI(n1)
    /// designs sense exactly one bit-line per cycle while the whole active
    /// row discharges). Equivalent to [`SramTile::compute_xnor_windowed`]
    /// with a one-column sense range, without the output allocation.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if bounds are violated or `col` lies outside
    /// `active`.
    pub fn compute_xnor_bit(
        &mut self,
        row: usize,
        input: bool,
        active: Range<usize>,
        col: usize,
    ) -> Result<bool, AccessError> {
        if active.end > self.cols {
            return Err(AccessError::new(format!(
                "active range end {} > {} cols",
                active.end, self.cols
            )));
        }
        if !active.contains(&col) {
            return Err(AccessError::new(format!(
                "sensed col {col} outside active window {active:?}"
            )));
        }
        self.check(row, col)?;
        self.stats.compute_accesses += 1;
        self.stats.rwl_activations += 2;
        let base = row * self.words_per_row;
        let broadcast = if input { u64::MAX } else { 0 };
        let mut discharges = 0u64;
        for w in 0..self.words_per_row {
            let word_start = w * 64;
            let valid_bits = (self.cols - word_start).min(64);
            let alo = active.start.max(word_start);
            let ahi = active.end.min(word_start + valid_bits);
            if alo >= ahi {
                continue;
            }
            let span = ahi - alo;
            let amask = if span == 64 {
                u64::MAX
            } else {
                ((1u64 << span) - 1) << (alo - word_start)
            };
            discharges += u64::from((!(self.bits[base + w] ^ broadcast) & amask).count_ones());
        }
        let result = self.bit_unchecked(row, col) == input;
        self.stats.rbl_discharges += discharges;
        self.stats.redundant_discharges += discharges - u64::from(result);
        Ok(result)
    }

    /// Compute access that senses the *entire* row (SACHI(n3): "`σ_i` is
    /// shared across a complete row with no requirement of bit-line
    /// select").
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if `row` is out of bounds.
    pub fn compute_xnor_full_row(
        &mut self,
        row: usize,
        input: bool,
    ) -> Result<Vec<bool>, AccessError> {
        self.compute_xnor(row, input, 0..self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile_with_pattern() -> SramTile {
        let mut t = SramTile::new(3, 6);
        t.write_row(0, &[true, false, true, true, false, false])
            .unwrap();
        t.write_row(1, &[false, false, false, false, false, false])
            .unwrap();
        t.write_row(2, &[true, true, true, true, true, true])
            .unwrap();
        t
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut t = tile_with_pattern();
        assert!(t.read_bit(0, 0).unwrap());
        assert!(!t.read_bit(0, 1).unwrap());
        let row: Vec<bool> = (0..6).map(|c| t.read_bit(0, c).unwrap()).collect();
        assert_eq!(row, vec![true, false, true, true, false, false]);
    }

    #[test]
    fn xnor_against_one_is_identity() {
        let mut t = tile_with_pattern();
        let out = t.compute_xnor(0, true, 0..6).unwrap();
        assert_eq!(out, vec![true, false, true, true, false, false]);
    }

    #[test]
    fn xnor_against_zero_is_complement() {
        let mut t = tile_with_pattern();
        let out = t.compute_xnor(0, false, 0..6).unwrap();
        assert_eq!(out, vec![false, true, false, false, true, true]);
    }

    #[test]
    fn discharge_counts_match_xnor_ones() {
        let mut t = tile_with_pattern();
        // Row 2 all ones, input 1 -> every column discharges.
        t.compute_xnor(2, true, 0..6).unwrap();
        assert_eq!(t.stats().rbl_discharges, 6);
        assert_eq!(t.stats().redundant_discharges, 0);
        assert_eq!(t.stats().rwl_activations, 2);
        assert_eq!(t.stats().compute_accesses, 1);
    }

    #[test]
    fn unsensed_columns_are_redundant_discharges() {
        let mut t = tile_with_pattern();
        // Row 2 all ones, input 1, but only column 0 sensed: 5 redundant.
        let out = t.compute_xnor(2, true, 0..1).unwrap();
        assert_eq!(out, vec![true]);
        assert_eq!(t.stats().rbl_discharges, 6);
        assert_eq!(t.stats().redundant_discharges, 5);
    }

    #[test]
    fn no_discharge_when_xnor_zero() {
        let mut t = tile_with_pattern();
        // Row 1 all zeros, input 1 -> XNOR 0 everywhere, RBL retains.
        t.compute_xnor(1, true, 0..6).unwrap();
        assert_eq!(t.stats().rbl_discharges, 0);
        assert_eq!(t.stats().redundant_discharges, 0);
    }

    #[test]
    fn full_row_compute_has_no_redundancy() {
        let mut t = tile_with_pattern();
        t.compute_xnor_full_row(0, false).unwrap();
        assert_eq!(t.stats().redundant_discharges, 0);
        // Row 0 has three 0 bits; XNOR with 0 -> three discharges.
        assert_eq!(t.stats().rbl_discharges, 3);
    }

    #[test]
    fn full_row_compute_counts_its_events() {
        let params = TechnologyParams::default();
        let mut t = tile_with_pattern();
        t.compute_xnor_full_row(2, true).unwrap();
        let stats = t.stats();
        assert_eq!(
            (
                stats.rwl_activations,
                stats.rbl_discharges,
                stats.bits_written
            ),
            (2, 6, 18)
        );
        assert!((stats.redundant_energy(&params).get() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut t = SramTile::new(2, 4);
        assert!(t.write_bit(2, 0, true).is_err());
        assert!(t.write_bit(0, 4, true).is_err());
        assert!(t.read_bit(0, 9).is_err());
        assert!(t.compute_xnor(0, true, 0..5).is_err());
        assert!(t.compute_xnor(5, true, 0..1).is_err());
        assert!(t.write_row(0, &[true; 5]).is_err());
        assert!(t.write_slice(0, 2, &[true; 3]).is_err());
        let err = t.write_bit(2, 0, true).unwrap_err();
        assert!(format!("{err}").contains("out of bounds"));
    }

    #[test]
    fn write_slice_places_bits() {
        let mut t = SramTile::new(1, 8);
        t.write_slice(0, 3, &[true, true]).unwrap();
        assert_eq!(t.peek(0, 2), Some(false));
        assert_eq!(t.peek(0, 3), Some(true));
        assert_eq!(t.peek(0, 4), Some(true));
        assert_eq!(t.peek(0, 5), Some(false));
        assert_eq!(t.peek(0, 8), None);
        assert_eq!(t.peek(1, 0), None);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = tile_with_pattern();
        a.compute_xnor_full_row(0, true).unwrap();
        let mut s = TileStats::default();
        s.merge(a.stats());
        s.merge(a.stats());
        assert_eq!(s.rwl_activations, 4);
    }

    #[test]
    fn compute_xnor_bit_matches_range_variant() {
        let mut a = tile_with_pattern();
        let mut b = tile_with_pattern();
        for col in 0..6 {
            let single = a.compute_xnor_bit(0, true, 0..6, col).unwrap();
            let ranged = b
                .compute_xnor_windowed(0, true, 0..6, col..col + 1)
                .unwrap();
            assert_eq!(vec![single], ranged, "col {col}");
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.compute_xnor_bit(0, true, 0..6, 6).is_err());
        assert!(a.compute_xnor_bit(0, true, 0..2, 4).is_err());
    }

    #[test]
    fn active_window_gates_discharges() {
        let mut t = tile_with_pattern();
        // Row 2 is all ones; with input 1 every *active* column discharges.
        t.compute_xnor_windowed(2, true, 0..3, 0..3).unwrap();
        assert_eq!(t.stats().rbl_discharges, 3);
        assert_eq!(t.stats().redundant_discharges, 0);
        // Active beyond sensed: the excess is redundant.
        let mut u = tile_with_pattern();
        u.compute_xnor_windowed(2, true, 0..5, 1..2).unwrap();
        assert_eq!(u.stats().rbl_discharges, 5);
        assert_eq!(u.stats().redundant_discharges, 4);
        // Sense outside active is rejected.
        assert!(u.compute_xnor_windowed(2, true, 0..3, 2..5).is_err());
        assert!(u.compute_xnor_windowed(2, true, 0..9, 0..1).is_err());
    }

    #[test]
    fn booked_events_add_to_the_counters() {
        let mut t = tile_with_pattern();
        let before = *t.stats();
        let delta = TileStats {
            rwl_activations: 4,
            rbl_discharges: 7,
            redundant_discharges: 3,
            bits_written: 5,
            bits_read: 0,
            compute_accesses: 2,
        };
        t.book(&delta);
        let mut want = before;
        want.merge(&delta);
        assert_eq!(*t.stats(), want);
        // Booking writes no bitcell.
        assert_eq!(t.peek(1, 0), Some(false));
    }

    #[test]
    fn wide_rows_cross_word_boundaries() {
        let mut t = SramTile::new(2, 130);
        t.write_bit(1, 129, true).unwrap();
        t.write_bit(1, 63, true).unwrap();
        t.write_bit(1, 64, true).unwrap();
        assert!(t.read_bit(1, 129).unwrap());
        assert!(t.read_bit(1, 63).unwrap());
        assert!(t.read_bit(1, 64).unwrap());
        assert!(!t.read_bit(1, 128).unwrap());
        let out = t.compute_xnor(1, true, 128..130).unwrap();
        assert_eq!(out, vec![false, true]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A naive reference model: a plain bit matrix with the same
    /// semantics, including discharge counting.
    struct Reference {
        bits: Vec<Vec<bool>>,
    }

    impl Reference {
        fn new(rows: usize, cols: usize) -> Self {
            Reference {
                bits: vec![vec![false; cols]; rows],
            }
        }

        fn xnor(
            &self,
            row: usize,
            input: bool,
            active: std::ops::Range<usize>,
            sense: std::ops::Range<usize>,
        ) -> (Vec<bool>, u64, u64) {
            let mut discharges = 0;
            let mut useful = 0;
            let mut out = Vec::new();
            for col in active.clone() {
                let x = self.bits[row][col] == input;
                if x {
                    discharges += 1;
                }
                if sense.contains(&col) {
                    out.push(x);
                    if x {
                        useful += 1;
                    }
                }
            }
            (out, discharges, discharges - useful)
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        WriteBit {
            row: usize,
            col: usize,
            value: bool,
        },
        WriteSlice {
            row: usize,
            start: usize,
            values: Vec<bool>,
        },
        Xnor {
            row: usize,
            input: bool,
            active_start: usize,
            active_len: usize,
            sense_off: usize,
            sense_len: usize,
        },
    }

    fn op_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..rows, 0..cols, any::<bool>()).prop_map(|(row, col, value)| Op::WriteBit {
                row,
                col,
                value
            }),
            (0..rows, 0..cols, prop::collection::vec(any::<bool>(), 1..8)).prop_map(
                move |(row, start, values)| {
                    let start = start.min(cols - 1);
                    let len = values.len().min(cols - start);
                    Op::WriteSlice {
                        row,
                        start,
                        values: values[..len].to_vec(),
                    }
                }
            ),
            (0..rows, any::<bool>(), 0..cols, 1..cols, 0..cols, 1..cols).prop_map(
                move |(row, input, a_start, a_len, s_off, s_len)| Op::Xnor {
                    row,
                    input,
                    active_start: a_start,
                    active_len: a_len,
                    sense_off: s_off,
                    sense_len: s_len,
                }
            ),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under arbitrary interleavings of writes and windowed compute
        /// accesses, the word-level tile matches the naive bit-matrix
        /// model: outputs, discharge counts, and redundancy counts.
        #[test]
        fn tile_matches_reference_model(ops in prop::collection::vec(op_strategy(6, 150), 1..40)) {
            let (rows, cols) = (6usize, 150usize);
            let mut tile = SramTile::new(rows, cols);
            let mut reference = Reference::new(rows, cols);
            for op in ops {
                match op {
                    Op::WriteBit { row, col, value } => {
                        tile.write_bit(row, col, value).unwrap();
                        reference.bits[row][col] = value;
                    }
                    Op::WriteSlice { row, start, values } => {
                        tile.write_slice(row, start, &values).unwrap();
                        for (i, &v) in values.iter().enumerate() {
                            reference.bits[row][start + i] = v;
                        }
                    }
                    Op::Xnor { row, input, active_start, active_len, sense_off, sense_len } => {
                        let a_start = active_start.min(cols - 1);
                        let a_end = (a_start + active_len).min(cols);
                        let s_start = (a_start + sense_off).min(a_end);
                        let s_end = (s_start + sense_len).min(a_end);
                        let before = *tile.stats();
                        let got = tile
                            .compute_xnor_windowed(row, input, a_start..a_end, s_start..s_end)
                            .unwrap();
                        let after = *tile.stats();
                        let (want, discharges, redundant) =
                            reference.xnor(row, input, a_start..a_end, s_start..s_end);
                        prop_assert_eq!(got, want);
                        prop_assert_eq!(after.rbl_discharges - before.rbl_discharges, discharges);
                        prop_assert_eq!(
                            after.redundant_discharges - before.redundant_discharges,
                            redundant
                        );
                        prop_assert_eq!(after.rwl_activations - before.rwl_activations, 2);
                    }
                }
            }
        }
    }
}
