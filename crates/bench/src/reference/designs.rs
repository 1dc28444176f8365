//! The scalar oracles of the four stationarity designs (Sec. IV.D,
//! Figs. 11–13): each lays a tuple into a [`BitcellTile`], pulses the
//! word-lines in its design's schedule order and assembles `H_σ` from
//! the sensed bits. The differential tests and figure harnesses hold the
//! machine's kernel, [`Stationarity::compute_tuple_soa`], to them.

use super::bitcell::BitcellTile;
use sachi_core::config::DesignKind;
use sachi_core::designs::{
    ComputeContext, IcStationary, MixedStationary, SpinStationaryBitMajor, SpinStationaryIcMajor,
    Stationarity,
};
use sachi_core::encoding::MixedEncoding;
use sachi_core::tuple::SpinTuple;
use sachi_ising::spin::Spin;
use sachi_mem::units::convert::{count_u64, to_index};

/// A stationarity design's scalar reference oracle.
pub trait ScalarOracle: Stationarity {
    /// Lays the tuple into `tile` one cell at a time, pulses the
    /// word-lines in the design's schedule order, and returns `H_σ`
    /// assembled from the sensed XNOR outputs, accumulating counters into
    /// `ctx`: the same `H_σ`, `ctx` and tile events the kernel books.
    ///
    /// # Panics
    ///
    /// Panics if the tile is smaller than
    /// [`Stationarity::tile_requirements`] demands or a coefficient does
    /// not fit in the encoding.
    fn compute_tuple(
        &self,
        tile: &mut BitcellTile,
        enc: &MixedEncoding,
        tuple: SpinTuple<'_>,
        target: Spin,
        ctx: &mut ComputeContext,
    ) -> i64;
}

/// Returns the scalar oracle of a design.
pub fn oracle(kind: DesignKind) -> &'static dyn ScalarOracle {
    match kind {
        DesignKind::N1a => &SpinStationaryBitMajor,
        DesignKind::N1b => &SpinStationaryIcMajor,
        DesignKind::N2 => &IcStationary,
        DesignKind::N3 => &MixedStationary,
    }
}

/// Raises the XNOR-queue high-water mark to `bits`.
fn note_queue(ctx: &mut ComputeContext, bits: u64) {
    ctx.queue_peak_bits = ctx.queue_peak_bits.max(bits);
}

/// Shared finale for the n1 designs: assemble products from queued XNOR
/// bits, then fold in the field and negate (phases 3–5).
fn finish_from_products(
    products: impl Iterator<Item = i64>,
    field: i32,
    r: u32,
    ctx: &mut ComputeContext,
) -> i64 {
    let mut acc = i64::from(field); // full adder initialized to h (phase 4)
    for p in products {
        acc += p;
        ctx.adder_bit_ops += u64::from(r) + 2;
        ctx.decisions += 1;
    }
    -acc // phase 5 negation: H_σ = -(Σ J σ + h)
}

fn layout_spins(tile: &mut BitcellTile, tuple: SpinTuple<'_>) {
    let bits: Vec<bool> = tuple.neighbor_spins().map(|s| s.bit()).collect();
    tile.write_row(0, &bits)
        .expect("tile sized by tile_requirements");
}

/// SACHI(n1a): spin stationary, bit-major XNOR order (Fig. 11a.1).
impl ScalarOracle for SpinStationaryBitMajor {
    fn compute_tuple(
        &self,
        tile: &mut BitcellTile,
        enc: &MixedEncoding,
        tuple: SpinTuple<'_>,
        _target: Spin,
        ctx: &mut ComputeContext,
    ) -> i64 {
        let n = tuple.degree();
        let r = enc.bits();
        if n == 0 {
            return -(i64::from(tuple.field()));
        }
        layout_spins(tile, tuple);
        // Phase 1: bit-major — XNOR the r-th bit of every IC before moving
        // to bit r+1. Each cycle drives one J bit and senses one column.
        let encoded: Vec<Vec<bool>> = tuple
            .couplings()
            .iter()
            .map(|&j| {
                enc.encode(i64::from(j))
                    .expect("coefficient fits the configured resolution")
            })
            .collect();
        let mut queue = vec![vec![false; to_index(r)]; n];
        for b in 0..to_index(r) {
            for (k, bits) in encoded.iter().enumerate() {
                let out = tile
                    .compute_xnor_bit(0, bits[b], 0..n, k)
                    .expect("in-bounds by layout");
                queue[k][b] = out;
                ctx.cycles += 1;
                ctx.rwl_bits_fetched += 1;
                ctx.xnor_ops += 1;
            }
        }
        // The queue must hold every neighbor's partial bits at once
        // (minimum size N*(R+1), Sec. IV.D.1).
        note_queue(ctx, count_u64(n) * (u64::from(r) + 1));
        // Phases 3-5.
        let products = queue.iter().zip(tuple.neighbor_spins()).map(|(bits, s)| {
            let mut v = enc.decode(bits);
            if s == Spin::Down {
                v += 1;
            }
            v
        });
        finish_from_products(products, tuple.field(), r, ctx)
    }
}

/// SACHI(n1b): spin stationary, IC-major XNOR order (Fig. 11a.2).
impl ScalarOracle for SpinStationaryIcMajor {
    fn compute_tuple(
        &self,
        tile: &mut BitcellTile,
        enc: &MixedEncoding,
        tuple: SpinTuple<'_>,
        _target: Spin,
        ctx: &mut ComputeContext,
    ) -> i64 {
        let n = tuple.degree();
        let r = enc.bits();
        if n == 0 {
            return -(i64::from(tuple.field()));
        }
        layout_spins(tile, tuple);
        // Phase 1: IC-major — all bits of one J before the next J, so the
        // queue holds a single (R+1)-bit entry and phase 3 starts after R
        // cycles.
        let mut acc = i64::from(tuple.field());
        let mut queue_entry = vec![false; to_index(r)];
        for (k, (&j, s)) in tuple
            .couplings()
            .iter()
            .zip(tuple.neighbor_spins())
            .enumerate()
        {
            let bits = enc
                .encode(i64::from(j))
                .expect("coefficient fits the configured resolution");
            for (b, &jbit) in bits.iter().enumerate() {
                queue_entry[b] = tile
                    .compute_xnor_bit(0, jbit, 0..n, k)
                    .expect("in-bounds by layout");
                ctx.cycles += 1;
                ctx.rwl_bits_fetched += 1;
                ctx.xnor_ops += 1;
                note_queue(ctx, count_u64(b) + 1);
            }
            note_queue(ctx, u64::from(r) + 1);
            let mut v = enc.decode(&queue_entry);
            if s == Spin::Down {
                v += 1;
            }
            acc += v;
            ctx.adder_bit_ops += u64::from(r) + 2;
            ctx.decisions += 1;
        }
        -acc
    }
}

/// SACHI(n2): IC stationary (Fig. 12). One row per IC; the neighbor spin
/// drives the row's RWL pair and all R columns are sensed in one cycle.
impl ScalarOracle for IcStationary {
    fn compute_tuple(
        &self,
        tile: &mut BitcellTile,
        enc: &MixedEncoding,
        tuple: SpinTuple<'_>,
        _target: Spin,
        ctx: &mut ComputeContext,
    ) -> i64 {
        let n = tuple.degree();
        let r = enc.bits();
        if n == 0 {
            return -(i64::from(tuple.field()));
        }
        // Layout: row k holds encode(J_ik).
        for (k, &j) in tuple.couplings().iter().enumerate() {
            let bits = enc
                .encode(i64::from(j))
                .expect("coefficient fits the configured resolution");
            tile.write_row(k, &bits)
                .expect("tile sized by tile_requirements");
        }
        // Phase 1: one neighbor per cycle, R columns sensed at once.
        let mut acc = i64::from(tuple.field());
        for (k, s) in tuple.neighbor_spins().enumerate() {
            let out = tile
                .compute_xnor(k, s.bit(), 0..to_index(r))
                .expect("in-bounds by layout");
            ctx.cycles += 1;
            ctx.rwl_bits_fetched += 1;
            ctx.xnor_ops += u64::from(r);
            let mut v = enc.decode(&out);
            if s == Spin::Down {
                v += 1;
            }
            acc += v;
            ctx.adder_bit_ops += u64::from(r) + 2;
            ctx.decisions += 1;
        }
        -acc
    }
}

/// SACHI(n3): mixed stationary with reuse-aware compute (Fig. 13). ICs and
/// neighbor-spin copies are resident; the *target* spin drives the whole
/// row, and eqn. 5 recovers every product in parallel.
impl ScalarOracle for MixedStationary {
    fn compute_tuple(
        &self,
        tile: &mut BitcellTile,
        enc: &MixedEncoding,
        tuple: SpinTuple<'_>,
        target: Spin,
        ctx: &mut ComputeContext,
    ) -> i64 {
        let n = tuple.degree();
        let r = enc.bits();
        if n == 0 {
            return -(i64::from(tuple.field()));
        }
        let group = to_index(r) + 1;
        let per_row = (tile.cols() / group).max(1);
        // Layout: per neighbor, an (R+1)-bit group [J bits..., σ_j bit].
        for (k, (&j, s)) in tuple
            .couplings()
            .iter()
            .zip(tuple.neighbor_spins())
            .enumerate()
        {
            let row = k / per_row;
            let col = (k % per_row) * group;
            let mut bits = enc
                .encode(i64::from(j))
                .expect("coefficient fits the configured resolution");
            bits.push(s.bit());
            tile.write_slice(row, col, &bits)
                .expect("tile sized by tile_requirements");
        }
        // Phase 1: one cycle per occupied row; σ_i on the RWL, the whole
        // used width sensed.
        let rows = n.div_ceil(per_row);
        let mut acc = i64::from(tuple.field());
        let mut k = 0usize;
        for row in 0..rows {
            let in_row = per_row.min(n - row * per_row);
            let out = tile
                .compute_xnor_windowed(row, target.bit(), 0..in_row * group, 0..in_row * group)
                .expect("in-bounds by layout");
            ctx.cycles += 1;
            ctx.rwl_bits_fetched += 1;
            ctx.xnor_ops += count_u64(in_row * group);
            for g in 0..in_row {
                let bits = &out[g * group..g * group + to_index(r)];
                // Equality bit σ_j XNOR σ_i came out of the array with the
                // same pulse.
                let equal = out[g * group + to_index(r)];
                let sigma_j = if equal { target } else { target.flipped() };
                // eqn. 5 select: XNOR output if spins equal, XOR otherwise.
                let selected: Vec<bool> = if equal {
                    bits.to_vec()
                } else {
                    bits.iter().map(|b| !b).collect()
                };
                let mut v = enc.decode(&selected);
                if sigma_j == Spin::Down {
                    v += 1;
                }
                acc += v;
                ctx.adder_bit_ops += u64::from(r) + 2;
                ctx.decisions += 1;
                k += 1;
            }
        }
        debug_assert_eq!(k, n);
        -acc
    }
}
