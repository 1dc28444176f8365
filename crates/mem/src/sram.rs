//! The SRAM compute tile the machine books its events on (Sec. IV.C.2,
//! Fig. 10). A read bit-line of an 8T row discharges exactly when
//! `stored XNOR driven` is 1, so every counter a compute schedule books
//! follows from popcounts of the stored and driven bits: the production
//! kernel books each `H_σ`'s discharges in closed form through
//! [`SramTile::book_discharges`], the machine books the rest of a round's
//! events at once through [`SramTile::book`], and the tile stores no
//! bits. The bit-level
//! datapath those closed forms are proven against is
//! `sachi_bench::reference::bitcell`.

use crate::params::TechnologyParams;
use crate::units::convert::count_u64;
use crate::units::Picojoules;

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

/// A compute tile of `rows x cols` logical bits, as the machine sees it:
/// its geometry and the events booked on it.
#[derive(Debug, Clone)]
pub struct SramTile {
    params: TileParams,
    stats: TileStats,
}

impl SramTile {
    /// Creates a tile from generator parameters, with zeroed counters.
    /// The bank count only widens the upload path's cycle accounting (see
    /// [`TileParams::upload_cycles`]); every [`TileStats`] counter is
    /// identical across bank counts.
    pub fn with_params(params: TileParams) -> Self {
        SramTile {
            params,
            stats: TileStats::default(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.params.rows
    }

    /// Number of columns (bits per row).
    pub fn cols(&self) -> usize {
        self.params.cols
    }

    /// Number of write-port banks.
    pub fn banks(&self) -> usize {
        self.params.banks
    }

    /// The tile's generator parameters.
    pub fn params(&self) -> TileParams {
        self.params
    }

    /// The accumulated event counters.
    pub fn stats(&self) -> &TileStats {
        &self.stats
    }

    /// Books a batch of events computed in closed form — the counters a
    /// sequence of accesses on this tile would have produced. The
    /// machine books a round's spin-independent events this way.
    pub fn book(&mut self, delta: &TileStats) {
        self.stats.merge(delta);
    }

    /// Books the bit-line discharges of one compute, `all` of them of
    /// which `redundant` on columns that were not sensed: the only
    /// events of an `H_σ` that depend on the spins, which the designs'
    /// production kernel books per compute.
    #[inline]
    pub fn book_discharges(&mut self, all: u64, redundant: u64) {
        self.stats.rbl_discharges += all;
        self.stats.redundant_discharges += redundant;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn booked_events_add_to_the_counters() {
        let mut t = SramTile::with_params(TileParams::new(3, 6));
        let delta = TileStats {
            rwl_activations: 4,
            rbl_discharges: 7,
            redundant_discharges: 3,
            bits_written: 5,
            bits_read: 0,
            compute_accesses: 2,
        };
        t.book(&delta);
        t.book(&delta);
        t.book_discharges(2, 1);
        let mut want = delta;
        want.merge(&delta);
        want.rbl_discharges += 2;
        want.redundant_discharges += 1;
        assert_eq!(*t.stats(), want);
    }
}
