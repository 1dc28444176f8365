//! The bit-level tile against its own contract: writes, reads, XNOR
//! outputs, discharge and redundancy counts, and bounds checks, plus a
//! proptest against a naive bit-matrix model.

use proptest::prelude::*;
use sachi_bench::reference::bitcell::BitcellTile;
use sachi_mem::params::TechnologyParams;
use sachi_mem::sram::TileStats;

fn tile_with_pattern() -> BitcellTile {
    let mut t = BitcellTile::new(3, 6);
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
    let mut t = BitcellTile::new(2, 4);
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
    let mut t = BitcellTile::new(1, 8);
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
fn wide_rows_cross_word_boundaries() {
    let mut t = BitcellTile::new(2, 130);
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
        let mut tile = BitcellTile::new(rows, cols);
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
