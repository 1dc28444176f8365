//! Differential tests for the production kernel against its scalar
//! oracle, plus machine-level goldens.
//!
//! The two-path kernel contract (DESIGN.md): for every design, the
//! production kernel `compute_tuple_soa` — `H_σ` computed arithmetically,
//! the spin-dependent discharges booked in closed form — plus the
//! schedule's `StaticEvents` (the rest of a compute's events, which the
//! machine books once per round) must be **bit-identical** to the
//! scalar oracle `compute_tuple`, which lays the tuple into a real tile
//! and senses it, in its H value, its `ComputeContext` counters (cycles,
//! RWL fetches, XNOR ops, adder ops, decisions, queue peaks), and the
//! tile's `TileStats` (activations, discharges, redundancy, reads,
//! writes) — and its cycle count equals the round plan's per-tuple price
//! (`rounds::tuple_cycles`). A round's static events equal the oracle's
//! deltas, less the discharges, summed over the tuples that ran. That holds across all four designs, random
//! tuples, every resolution R ∈ {2..32}, empty and degree-1 tuples, and
//! row widths narrow enough that n3 tuples span several rows — and on
//! whole dense and King's graphs after every flip of a random flip
//! sequence, where the kernel reads sums the update path has kept
//! current. The flat tuple store itself is held to a fresh build after
//! random flips.

#[path = "support/sums.rs"]
mod sums;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi::arch::config::{DesignKind, FaultProfile, SachiConfig};
use sachi::arch::designs::{ComputeContext, ComputeScratch, StaticEvents};
use sachi::arch::encoding::MixedEncoding;
use sachi::arch::machine::SachiMachine;
use sachi::arch::rounds::{tuple_cycles, RoundPlan};
use sachi::arch::tuple::{SpinTuple, TuplePlaneView, TuplePlanes, TupleStore};
use sachi::ising::graph::{topology, GraphBuilder, IsingGraph};
use sachi::ising::recovery::RecoveryPolicy;
use sachi::ising::solver::SolveOptions;
use sachi::ising::spin::{Spin, SpinVector};
use sachi::mem::cache::{CacheGeometry, CacheHierarchy};
use sachi::mem::fault::{FaultModel, FaultRate};
use sachi::mem::sram::{SramTile, TileParams, TileStats};
use sachi_bench::reference::bitcell::BitcellTile;
use sachi_bench::reference::designs::oracle;
use sachi_bench::reference::tuple::AosTuple;

/// Maps a raw draw into the R-bit two's-complement coefficient range.
fn coeff_in_range(raw: u64, r: u32) -> i32 {
    let span = 1u64 << r;
    let min = -(1i64 << (r - 1));
    let offset = i64::try_from(raw % span).expect("span <= 2^32 fits i64");
    i32::try_from(offset + min).expect("R <= 32 keeps coefficients in i32")
}

/// Builds a standalone tuple for spin 0 from raw generator output.
fn build_tuple(r: u32, pairs: &[(u64, bool)], field_raw: u64) -> AosTuple {
    AosTuple {
        neighbors: (1..=pairs.len()).map(|j| j as u32).collect(),
        couplings: pairs
            .iter()
            .map(|&(raw, _)| coeff_in_range(raw, r))
            .collect(),
        neighbor_spins: pairs
            .iter()
            .map(|&(_, up)| if up { Spin::Up } else { Spin::Down })
            .collect(),
        field: coeff_in_range(field_raw, r),
    }
}

/// The physical row widths the differential tests size tiles with: one
/// n3 group per row, a single 64-bit word, and the default 800-bit row.
/// The narrow widths make n3 tuples span several rows at every R.
fn row_widths(r: u32) -> [usize; 3] {
    [r as usize + 1, 64, 800]
}

/// Runs the scalar oracle and the production kernel on freshly-sized
/// twin tiles of `row_bits`-bit rows, the kernel reading `tuple` from a
/// one-row store, and asserts bit-exact equality of (H,
/// `ComputeContext`, `TileStats`).
fn assert_paths_agree(
    kind: DesignKind,
    enc: &MixedEncoding,
    tuple: &AosTuple,
    target: Spin,
    row_bits: usize,
) {
    let store = tuple.store();
    let planes = TuplePlanes::new(&store, enc).expect("coefficients fit R bits");
    assert_kernel_matches_oracle(kind, enc, store.tuple(0), planes.view(0), target, row_bits);
}

/// The static events of one compute of a `degree`-neighbour tuple under
/// `kind` at resolution `r` on `row_bits`-bit rows.
fn static_events(kind: DesignKind, degree: usize, r: u32, row_bits: usize) -> StaticEvents {
    StaticEvents::of(&oracle(kind).schedule(degree as u64, r, row_bits as u64))
}

/// [`assert_paths_agree`] with the kernel reading `view`, which must be
/// `tuple`'s view.
fn assert_kernel_matches_oracle(
    kind: DesignKind,
    enc: &MixedEncoding,
    tuple: SpinTuple<'_>,
    view: TuplePlaneView<'_>,
    target: Spin,
    row_bits: usize,
) {
    let design = oracle(kind);
    let (rows, cols) = design.tile_requirements(tuple.degree(), enc.bits(), row_bits);
    let mut tile_scalar = BitcellTile::new(rows, cols);
    let mut tile_soa = SramTile::with_params(TileParams::new(rows, cols));
    let mut ctx_scalar = ComputeContext::new();
    let mut ctx_soa = ComputeContext::new();
    let h_scalar = design.compute_tuple(&mut tile_scalar, enc, tuple, target, &mut ctx_scalar);
    let h_soa = design.compute_tuple_soa(
        &mut tile_soa,
        enc,
        tuple,
        view,
        target,
        &mut ctx_soa,
        &mut ComputeScratch::new(),
    );
    let (r, degree) = (enc.bits(), tuple.degree());
    // The kernel booked the discharges; the schedule's static events are
    // the rest of the oracle's deltas.
    static_events(kind, degree, r, row_bits).book(&mut ctx_soa, &mut tile_soa);
    assert_eq!(
        h_scalar, h_soa,
        "{kind} H diverged (R={r}, degree={degree}, row={row_bits})"
    );
    assert_eq!(
        h_scalar,
        tuple.local_field(),
        "{kind} H diverged from the tuple-local golden field"
    );
    assert_eq!(
        ctx_scalar, ctx_soa,
        "{kind} ComputeContext diverged (R={r}, degree={degree}, row={row_bits})"
    );
    assert_eq!(
        tile_scalar.stats(),
        tile_soa.stats(),
        "{kind} TileStats diverged (R={r}, degree={degree}, row={row_bits})"
    );
    // The round plan prices compute from degrees, not from the kernel's
    // counters: it must book exactly what the kernel books, degree 0
    // included.
    assert_eq!(
        ctx_soa.cycles,
        tuple_cycles(kind, degree as u64, r, row_bits as u64),
        "{kind} kernel cycles diverged from the round plan (R={r}, degree={degree}, row={row_bits})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random tuples, every design, R ∈ {2..32}, every row width: the
    /// production kernel is bit-identical to the scalar oracle in H,
    /// counters, and tile stats.
    #[test]
    fn soa_path_matches_scalar_path(
        r in 2u32..=32,
        pairs in prop::collection::vec((any::<u64>(), any::<bool>()), 0..48),
        target_up in any::<bool>(),
        field_raw in any::<u64>(),
        width in 0usize..3,
    ) {
        let enc = MixedEncoding::new(r).expect("2 <= R <= 32 is valid");
        let tuple = build_tuple(r, &pairs, field_raw);
        let target = if target_up { Spin::Up } else { Spin::Down };
        for kind in DesignKind::ALL {
            assert_paths_agree(kind, &enc, &tuple, target, row_widths(r)[width]);
        }
    }

    /// Streaming tuples of different degrees through ONE tile, context and
    /// scratch (the machine's usage pattern) stays bit-identical to the
    /// scalar oracle after every tuple: nothing leaks between tuples.
    #[test]
    fn shared_scratch_stream_matches_scalar(
        r in 2u32..=32,
        seeds in prop::collection::vec((any::<u64>(), any::<bool>()), 1..6),
        width in 0usize..3,
    ) {
        let enc = MixedEncoding::new(r).expect("valid resolution");
        let row_bits = row_widths(r)[width];
        for kind in DesignKind::ALL {
            let design = oracle(kind);
            let tuples: Vec<AosTuple> = seeds
                .iter()
                .enumerate()
                .map(|(i, &(raw, up))| {
                    let pairs: Vec<(u64, bool)> = (0..=i * 7)
                        .map(|k| (raw.wrapping_mul(k as u64 + 1), up ^ (k % 3 == 0)))
                        .collect();
                    build_tuple(r, &pairs, raw)
                })
                .collect();
            let stores: Vec<TupleStore> = tuples.iter().map(AosTuple::store).collect();
            let tuples: Vec<SpinTuple<'_>> = stores.iter().map(|row| row.tuple(0)).collect();
            let max_degree = tuples.iter().map(SpinTuple::degree).max().unwrap_or(1);
            let (rows, cols) = design.tile_requirements(max_degree, r, row_bits);
            let planes = TuplePlanes::from_tuples(tuples.iter().copied(), &enc)
                .expect("coefficients fit");
            let mut tile_scalar = BitcellTile::new(rows, cols);
            let mut tile_soa = SramTile::with_params(TileParams::new(rows, cols));
            let mut ctx_scalar = ComputeContext::new();
            let mut ctx_soa = ComputeContext::new();
            let mut scratch = ComputeScratch::new();
            for (i, &tuple) in tuples.iter().enumerate() {
                let target = if i % 2 == 0 { Spin::Up } else { Spin::Down };
                let hs = design.compute_tuple(&mut tile_scalar, &enc, tuple, target, &mut ctx_scalar);
                let ho = design.compute_tuple_soa(
                    &mut tile_soa, &enc, tuple, planes.view(i), target, &mut ctx_soa, &mut scratch,
                );
                static_events(kind, tuple.degree(), r, row_bits).book(&mut ctx_soa, &mut tile_soa);
                prop_assert_eq!(hs, ho, "{} H diverged mid-stream", kind);
                prop_assert_eq!(ctx_scalar, ctx_soa, "{} ComputeContext diverged", kind);
                prop_assert_eq!(tile_scalar.stats(), tile_soa.stats(), "{} TileStats diverged", kind);
            }
        }
    }
}

/// Deterministic coefficient in the R-bit range for edge `(i, j)` of a
/// graph drawn from `salt`.
fn edge_coeff(salt: u64, i: u32, j: u32, r: u32) -> i32 {
    let x = (salt ^ (u64::from(i) << 32) ^ u64::from(j))
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(29)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    coeff_in_range(x >> 7, r)
}

/// A complete graph (`king == false`) or a King's lattice on `side`
/// spins a side, with R-bit couplings and fields drawn from `salt`.
fn sums_graph(king: bool, side: usize, r: u32, salt: u64) -> IsingGraph {
    let n = if king { side * side } else { side };
    let mut b = GraphBuilder::new(n);
    let mut edge = |i: usize, j: usize| {
        let (i, j) = (i as u32, j as u32);
        b.push_edge(i, j, edge_coeff(salt, i, j, r));
    };
    if king {
        for row in 0..side {
            for col in 0..side {
                let i = row * side + col;
                if col + 1 < side {
                    edge(i, i + 1);
                }
                if row + 1 < side {
                    edge(i, i + side);
                    if col + 1 < side {
                        edge(i, i + side + 1);
                    }
                    if col > 0 {
                        edge(i, i + side - 1);
                    }
                }
            }
        }
    } else {
        for i in 0..n {
            for j in i + 1..n {
                edge(i, j);
            }
        }
    }
    let b = (0..n).fold(b, |b, i| {
        let i = i as u32;
        b.field(i, edge_coeff(salt, i, i, r))
    });
    b.build().expect("a valid graph")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The kernel reads sums the update path keeps current. Over a random
    /// flip sequence driven through `update_spin` + `writeback_spin`, after
    /// every flip: every tuple's maintained sums equal a recompute from
    /// its copies, every design's kernel is bit-identical to the
    /// scalar oracle on that tuple, and a second writeback of the same
    /// spin changes nothing.
    #[test]
    fn maintained_sums_track_every_flip(
        king in any::<bool>(),
        side in 2usize..=5,
        r in 2u32..=32,
        salt in any::<u64>(),
        flips in prop::collection::vec(any::<u64>(), 1..10),
        width in 0usize..3,
    ) {
        let side = if king { side } else { side * 3 };
        let graph = sums_graph(king, side, r, salt);
        let n = graph.num_spins();
        let enc = MixedEncoding::new(r).expect("2 <= R <= 32 is valid");
        let row_bits = row_widths(r)[width];
        let mut rng = StdRng::seed_from_u64(salt);
        let mut spins = SpinVector::random(n, &mut rng);
        let mut store = TupleStore::new(&graph, &spins);
        let mut planes = TuplePlanes::new(&store, &enc).expect("couplings fit R bits");
        for raw in flips {
            let j = (raw % n as u64) as usize;
            let new = spins.get(j).flipped();
            spins.set(j, new);
            store.update_spin(j, new);
            planes.writeback_spin(&store, j, new);
            let before: Vec<_> = (0..n).map(|i| planes.view(i).sums()).collect();
            planes.writeback_spin(&store, j, new);
            for (i, tuple) in store.iter().enumerate() {
                let sums = planes.view(i).sums();
                prop_assert_eq!(sums, before[i], "repeat writeback of {} moved tuple {}", j, i);
                prop_assert_eq!(sums, sums::recompute(&enc, tuple), "tuple {}", i);
                for kind in DesignKind::ALL {
                    assert_kernel_matches_oracle(
                        kind, &enc, tuple, planes.view(i), spins.get(i), row_bits,
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flat store's update path keeps it equal to a fresh build:
    /// after a random flip sequence driven through `update_spin`, each
    /// billing one copy per neighbour of the flipped spin, every row
    /// equals the row `TupleStore::new` builds on the flipped spins.
    #[test]
    fn flat_store_matches_a_fresh_build_after_flips(
        king in any::<bool>(),
        side in 2usize..=6,
        salt in any::<u64>(),
        flips in prop::collection::vec(any::<u64>(), 0..40),
    ) {
        let side = if king { side } else { side * 3 };
        let graph = sums_graph(king, side, 8, salt);
        let n = graph.num_spins();
        let mut spins = SpinVector::random(n, &mut StdRng::seed_from_u64(salt));
        let mut store = TupleStore::new(&graph, &spins);
        for raw in flips {
            let j = (raw % n as u64) as usize;
            let new = spins.get(j).flipped();
            spins.set(j, new);
            prop_assert_eq!(store.update_spin(j, new), graph.degree(j) as u64, "copies of {}", j);
        }
        let fresh = TupleStore::new(&graph, &spins);
        prop_assert_eq!(store.len(), fresh.len());
        for j in 0..n {
            prop_assert_eq!(store.tuple(j), fresh.tuple(j), "row {}", j);
        }
    }
}

#[test]
fn empty_and_degree_one_tuples_agree_at_every_resolution() {
    for r in 2u32..=32 {
        let enc = MixedEncoding::new(r).expect("valid resolution");
        let empty = build_tuple(r, &[], 12345);
        let single_pos = build_tuple(r, &[(u64::MAX, true)], 7);
        let single_neg = build_tuple(r, &[(0, false)], u64::MAX);
        for kind in DesignKind::ALL {
            for tuple in [&empty, &single_pos, &single_neg] {
                for target in [Spin::Up, Spin::Down] {
                    for row_bits in row_widths(r) {
                        assert_paths_agree(kind, &enc, tuple, target, row_bits);
                    }
                }
            }
        }
    }
}

#[test]
fn extreme_coefficients_agree() {
    // Most-negative / most-positive coefficients stress the sign bit and
    // the complement (XOR) decode of eqn. 5.
    for r in 2u32..=32 {
        let enc = MixedEncoding::new(r).expect("valid resolution");
        let span = 1u64 << r;
        // raw = 0 -> min coefficient; raw = span - 1 -> max coefficient.
        let pairs: Vec<(u64, bool)> = (0..9)
            .map(|k| (if k % 2 == 0 { 0 } else { span - 1 }, k % 3 != 0))
            .collect();
        let tuple = build_tuple(r, &pairs, span - 1);
        for kind in DesignKind::ALL {
            for target in [Spin::Up, Spin::Down] {
                for row_bits in row_widths(r) {
                    assert_paths_agree(kind, &enc, &tuple, target, row_bits);
                }
            }
        }
    }
}

/// The round plan's static events are the oracle's per-tuple deltas
/// less the discharges, summed: for every design and several
/// resolutions, on a King's lattice with isolated spins (degrees 0, 3,
/// 5 and 8) split into many rounds, each round's `events` equal that
/// sum over its tuples, and `partial_events` of a round cut after its
/// first `k` tuples equal the sum over those `k`, for every `k`.
#[test]
fn round_events_sum_the_oracle_over_the_tuples_that_ran() {
    let compute = CacheGeometry::new(1, 2, 64, 1);
    let hierarchy = CacheHierarchy {
        compute,
        storage: CacheGeometry::sachi_storage_default(),
    };
    for r in [2u32, 5, 13] {
        let lattice = sums_graph(true, 5, r, u64::from(r));
        let n = lattice.num_spins() + 3;
        let graph = lattice
            .edges()
            .fold(GraphBuilder::new(n), |b, (i, j, w)| b.edge(i, j, w))
            .build()
            .expect("the lattice's edges");
        let spins = SpinVector::random(n, &mut StdRng::seed_from_u64(u64::from(r)));
        let store = TupleStore::new(&graph, &spins);
        let enc = MixedEncoding::new(r).expect("valid resolution");
        let degrees: Vec<u64> = store.iter().map(|t| t.degree() as u64).collect();
        for kind in DesignKind::ALL {
            let design = oracle(kind);
            let config = SachiConfig::new(kind).with_hierarchy(hierarchy);
            let plan = RoundPlan::for_degrees(&config, r, degrees.clone());
            assert!(plan.iter().count() > 1, "{kind} R={r}: one round");
            let (rows, cols) = design.tile_requirements(graph.max_degree(), r, compute.row_bits());
            let per_tuple: Vec<StaticEvents> = (0..n)
                .map(|i| {
                    let mut tile = BitcellTile::new(rows, cols);
                    let mut ctx = ComputeContext::new();
                    design.compute_tuple(&mut tile, &enc, store.tuple(i), spins.get(i), &mut ctx);
                    let tile = TileStats {
                        rbl_discharges: 0,
                        redundant_discharges: 0,
                        ..*tile.stats()
                    };
                    StaticEvents { ctx, tile }
                })
                .collect();
            for (range, round) in plan.iter() {
                let sum = |k: usize| {
                    let mut sum = StaticEvents::default();
                    for events in &per_tuple[range.start..range.start + k] {
                        sum.merge(events);
                    }
                    sum
                };
                assert_eq!(round.events, sum(range.len()), "{kind} R={r} {range:?}");
                for k in 0..=range.len() {
                    assert_eq!(
                        plan.partial_events(range.clone(), k),
                        sum(k),
                        "{kind} R={r} {range:?} cut after {k}"
                    );
                }
            }
        }
    }
}

/// Hierarchy small enough that a dense 36-spin complete graph cannot be
/// compute-resident for any design — the multi-round regime where
/// banking and upload/compute overlap are observable at all.
fn tiny_hierarchy() -> CacheHierarchy {
    CacheHierarchy {
        compute: CacheGeometry::new(2, 4, 64, 1),
        storage: CacheGeometry::sachi_storage_default(),
    }
}

fn solve_workload(
    config: SachiConfig,
) -> (
    sachi::ising::solver::SolveResult,
    sachi::arch::machine::RunReport,
) {
    let graph = topology::complete(36, |i, j| ((i + 2 * j) % 9) as i32 - 4).unwrap();
    let mut rng = StdRng::seed_from_u64(23);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(&graph, 17).with_trace();
    SachiMachine::new(config).solve_detailed(&graph, &init, &opts)
}

#[test]
fn bank_count_one_is_cycle_identical_to_unbanked() {
    // `with_banks(1)` must be a no-op against the default (unbanked)
    // machine: same result, same cycle accounting, bit for bit — the
    // banked upload schedule degenerates to the serial one at B = 1.
    for design in DesignKind::ALL {
        let base = SachiConfig::new(design).with_hierarchy(tiny_hierarchy());
        let (res_u, rep_u) = solve_workload(base.clone());
        let (res_b, rep_b) = solve_workload(base.with_banks(1));
        assert_eq!(res_u.energy, res_b.energy, "{design} energy");
        assert_eq!(res_u.spins, res_b.spins, "{design} spins");
        assert_eq!(res_u.trace, res_b.trace, "{design} trajectory");
        assert_eq!(
            rep_u.compute_cycles, rep_b.compute_cycles,
            "{design} compute"
        );
        assert_eq!(rep_u.load_cycles, rep_b.load_cycles, "{design} load");
        assert_eq!(rep_u.total_cycles, rep_b.total_cycles, "{design} total");
        assert_eq!(rep_u.tile, rep_b.tile, "{design} tile stats");
    }
}

#[test]
fn banking_shrinks_load_without_touching_results_or_compute() {
    // More banks -> fewer upload cycles per round, identical physics:
    // the H trajectory, compute cycles, and tile stats are bit-identical
    // while the load-side cycle count strictly drops on a multi-round
    // sweep.
    for design in DesignKind::ALL {
        let base = SachiConfig::new(design).with_hierarchy(tiny_hierarchy());
        let (res_1, rep_1) = solve_workload(base.clone());
        let (res_8, rep_8) = solve_workload(base.with_banks(8));
        assert!(
            rep_1.rounds_per_sweep > 1,
            "{design}: need multi-round sweeps"
        );
        assert_eq!(res_1.energy, res_8.energy, "{design} energy");
        assert_eq!(res_1.trace, res_8.trace, "{design} trajectory");
        assert_eq!(
            rep_1.compute_cycles, rep_8.compute_cycles,
            "{design} compute"
        );
        assert_eq!(rep_1.tile, rep_8.tile, "{design} tile stats");
        assert!(
            rep_8.load_cycles < rep_1.load_cycles,
            "{design}: 8-bank load {} !< unbanked load {}",
            rep_8.load_cycles,
            rep_1.load_cycles
        );
        assert!(
            rep_8.total_cycles <= rep_1.total_cycles,
            "{design}: banked total exceeded unbanked"
        );
    }
}

/// [`tiny_hierarchy`] with a 128-bit storage array: every round of the
/// dense 36-spin workload streams its chunk from DRAM.
fn streaming_hierarchy() -> CacheHierarchy {
    CacheHierarchy {
        storage: CacheGeometry::new(1, 2, 64, 2),
        ..tiny_hierarchy()
    }
}

/// Solves the dense 36-spin workload under one fault cell and renders
/// every observable the goldens pin: final H, sweeps, flips, and
/// `total_cycles`; the six `TileStats` counters; the energy total (its
/// exact `f64`); and every `FaultReport` field.
fn faulted_cell(design: DesignKind, ber_ppb: u64, retry: bool, streaming: bool) -> String {
    let rate = FaultRate::from_ppb(ber_ppb);
    let policy = if retry {
        RecoveryPolicy::RefetchRetry { max_retries: 2 }
    } else {
        RecoveryPolicy::FailFast
    };
    let model = FaultModel::new(0x5AC4)
        .with_read_ber(rate)
        .with_dram_ber(rate);
    let mut config =
        SachiConfig::new(design).with_fault(FaultProfile::new(model).with_policy(policy));
    if streaming {
        config = config.with_hierarchy(streaming_hierarchy());
    }
    let (res, rep) = solve_workload(config);
    let t = rep.tile;
    let f = rep.faults;
    format!(
        "{design} ppb={ber_ppb} {} {} | H={} sweeps={} flips={} cycles={} | \
         tile={}/{}/{}/{}/{}/{} | pJ={:?} | faults={}/{}/{}/{}/{}/{}/{} degraded={}",
        if retry { "retry:2" } else { "failfast" },
        if streaming { "stream" } else { "default" },
        res.energy,
        res.sweeps,
        res.flips,
        rep.total_cycles.get(),
        t.rwl_activations,
        t.rbl_discharges,
        t.redundant_discharges,
        t.bits_written,
        t.bits_read,
        t.compute_accesses,
        rep.energy.total().get(),
        f.injected_flips,
        f.corrupted_fetches,
        f.detected,
        f.undetected,
        f.retries,
        f.refetch_cycles.get(),
        f.dram_corrupted_bits,
        f.degraded,
    )
}

/// Faulted-run goldens: 4 designs × BER {0, 1e-4, 1e-2} × {fail-fast,
/// retry:2} × {default hierarchy, DRAM-streaming multi-round hierarchy}.
/// Each line is `faulted_cell`'s rendering; faults strike only at
/// machine level (tuple-fetch parity, DRAM stream), so the kernel that
/// computes `H_σ` cannot move any of these values.
const FAULT_GOLDENS: &[&str] = &[
    "SACHI(n1a) ppb=0 failfast default | H=-488 sweeps=50 flips=28 cycles=26488 | tile=504000/4470354/4341600/63000/0/252000 | pJ=443369.94 | faults=0/0/0/0/0/0/0 degraded=false",
    "SACHI(n1a) ppb=0 failfast stream | H=-488 sweeps=50 flips=28 cycles=142394 | tile=504000/4470354/4341600/63000/0/252000 | pJ=1082397.7525 | faults=0/0/0/0/0/0/0 degraded=false",
    "SACHI(n1a) ppb=0 retry:2 default | H=-488 sweeps=50 flips=28 cycles=26488 | tile=504000/4470354/4341600/63000/0/252000 | pJ=443369.94 | faults=0/0/0/0/0/0/0 degraded=false",
    "SACHI(n1a) ppb=0 retry:2 stream | H=-488 sweeps=50 flips=28 cycles=142394 | tile=504000/4470354/4341600/63000/0/252000 | pJ=1082397.7525 | faults=0/0/0/0/0/0/0 degraded=false",
    "SACHI(n1a) ppb=100000 failfast default | H=-472 sweeps=2 flips=13 cycles=1625 | tile=22120/195413/189768/2765/0/11060 | pJ=28113.078749999997 | faults=1/1/1/0/0/0/0 degraded=true",
    "SACHI(n1a) ppb=100000 failfast stream | H=-470 sweeps=1 flips=9 cycles=4369 | tile=14560/128564/124846/1820/0/7280 | pJ=41363.90375 | faults=1/1/1/0/0/0/1 degraded=true",
    "SACHI(n1a) ppb=100000 retry:2 default | H=-488 sweeps=50 flips=28 cycles=27160 | tile=504000/4470354/4341600/63000/0/252000 | pJ=449384.33999999997 | faults=34/33/32/1/32/672/0 degraded=false",
    "SACHI(n1a) ppb=100000 retry:2 stream | H=-488 sweeps=50 flips=28 cycles=143003 | tile=504000/4470354/4341600/63000/0/252000 | pJ=1087848.3025 | faults=31/30/29/1/29/609/33 degraded=false",
    "SACHI(n1a) ppb=10000000 failfast default | H=-270 sweeps=0 flips=0 cycles=427 | tile=560/4878/4730/70/0/280 | pJ=9510.3275 | faults=3/2/1/1/0/0/0 degraded=true",
    "SACHI(n1a) ppb=10000000 failfast stream | H=-238 sweeps=0 flips=0 cycles=293 | tile=280/2446/2374/35/0/140 | pJ=11104.4225 | faults=3/1/1/0/0/0/28 degraded=true",
    "SACHI(n1a) ppb=10000000 retry:2 default | H=-516 sweeps=50 flips=73 cycles=52465 | tile=504000/4383840/4256666/63000/0/252000 | pJ=673014.975 | faults=5419/2515/1433/1082/1237/25977/0 degraded=true",
    "SACHI(n1a) ppb=10000000 retry:2 stream | H=-516 sweeps=50 flips=61 cycles=170471 | tile=504000/4382838/4255598/63000/0/252000 | pJ=1330755.0175 | faults=5580/2625/1570/1055/1337/28077/3160 degraded=true",
    "SACHI(n1b) ppb=0 failfast default | H=-488 sweeps=50 flips=28 cycles=21388 | tile=504000/4470354/4341600/63000/0/252000 | pJ=443369.94 | faults=0/0/0/0/0/0/0 degraded=false",
    "SACHI(n1b) ppb=0 failfast stream | H=-488 sweeps=50 flips=28 cycles=127094 | tile=504000/4470354/4341600/63000/0/252000 | pJ=1082397.7525 | faults=0/0/0/0/0/0/0 degraded=false",
    "SACHI(n1b) ppb=0 retry:2 default | H=-488 sweeps=50 flips=28 cycles=21388 | tile=504000/4470354/4341600/63000/0/252000 | pJ=443369.94 | faults=0/0/0/0/0/0/0 degraded=false",
    "SACHI(n1b) ppb=0 retry:2 stream | H=-488 sweeps=50 flips=28 cycles=127094 | tile=504000/4470354/4341600/63000/0/252000 | pJ=1082397.7525 | faults=0/0/0/0/0/0/0 degraded=false",
    "SACHI(n1b) ppb=100000 failfast default | H=-472 sweeps=2 flips=13 cycles=1039 | tile=22120/195413/189768/2765/0/11060 | pJ=28113.078749999997 | faults=1/1/1/0/0/0/0 degraded=true",
    "SACHI(n1b) ppb=100000 failfast stream | H=-470 sweeps=1 flips=9 cycles=3719 | tile=14560/128564/124846/1820/0/7280 | pJ=41363.90375 | faults=1/1/1/0/0/0/1 degraded=true",
    "SACHI(n1b) ppb=100000 retry:2 default | H=-488 sweeps=50 flips=28 cycles=22060 | tile=504000/4470354/4341600/63000/0/252000 | pJ=449384.33999999997 | faults=34/33/32/1/32/672/0 degraded=false",
    "SACHI(n1b) ppb=100000 retry:2 stream | H=-488 sweeps=50 flips=28 cycles=127703 | tile=504000/4470354/4341600/63000/0/252000 | pJ=1087848.3025 | faults=31/30/29/1/29/609/33 degraded=false",
    "SACHI(n1b) ppb=10000000 failfast default | H=-270 sweeps=0 flips=0 cycles=185 | tile=560/4878/4730/70/0/280 | pJ=9510.3275 | faults=3/2/1/1/0/0/0 degraded=true",
    "SACHI(n1b) ppb=10000000 failfast stream | H=-238 sweeps=0 flips=0 cycles=191 | tile=280/2446/2374/35/0/140 | pJ=11104.4225 | faults=3/1/1/0/0/0/28 degraded=true",
    "SACHI(n1b) ppb=10000000 retry:2 default | H=-516 sweeps=50 flips=73 cycles=47365 | tile=504000/4383840/4256666/63000/0/252000 | pJ=673014.975 | faults=5419/2515/1433/1082/1237/25977/0 degraded=true",
    "SACHI(n1b) ppb=10000000 retry:2 stream | H=-516 sweeps=50 flips=61 cycles=155171 | tile=504000/4382838/4255598/63000/0/252000 | pJ=1330755.0175 | faults=5580/2625/1570/1055/1337/28077/3160 degraded=true",
    "SACHI(n2) ppb=0 failfast default | H=-488 sweeps=50 flips=28 cycles=5543 | tile=126000/128754/0/252000/0/63000 | pJ=87482.94 | faults=0/0/0/0/0/0/0 degraded=false",
    "SACHI(n2) ppb=0 failfast stream | H=-488 sweeps=50 flips=28 cycles=45043 | tile=126000/128754/0/252000/0/63000 | pJ=731992.44 | faults=0/0/0/0/0/0/0 degraded=false",
    "SACHI(n2) ppb=0 retry:2 default | H=-488 sweeps=50 flips=28 cycles=5543 | tile=126000/128754/0/252000/0/63000 | pJ=87482.94 | faults=0/0/0/0/0/0/0 degraded=false",
    "SACHI(n2) ppb=0 retry:2 stream | H=-488 sweeps=50 flips=28 cycles=45043 | tile=126000/128754/0/252000/0/63000 | pJ=731992.44 | faults=0/0/0/0/0/0/0 degraded=false",
    "SACHI(n2) ppb=100000 failfast default | H=-472 sweeps=2 flips=13 cycles=303 | tile=5530/5645/0/11060/0/2765 | pJ=16315.69875 | faults=1/1/1/0/0/0/0 degraded=true",
    "SACHI(n2) ppb=100000 failfast stream | H=-472 sweeps=2 flips=13 cycles=2143 | tile=5880/5990/0/11760/0/2940 | pJ=41553.924999999996 | faults=1/1/1/0/0/0/2 degraded=true",
    "SACHI(n2) ppb=100000 retry:2 default | H=-488 sweeps=50 flips=28 cycles=6215 | tile=126000/128754/0/252000/0/63000 | pJ=93497.34 | faults=34/33/32/1/32/672/0 degraded=false",
    "SACHI(n2) ppb=100000 retry:2 stream | H=-488 sweeps=50 flips=28 cycles=45778 | tile=126000/128754/0/252000/0/63000 | pJ=738570.69 | faults=37/36/35/1/35/735/27 degraded=false",
    "SACHI(n2) ppb=10000000 failfast default | H=-270 sweeps=0 flips=0 cycles=83 | tile=140/148/0/280/0/70 | pJ=13082.7775 | faults=3/2/1/1/0/0/0 degraded=true",
    "SACHI(n2) ppb=10000000 failfast stream | H=-238 sweeps=0 flips=0 cycles=83 | tile=70/72/0/140/0/35 | pJ=8758.32875 | faults=1/1/1/0/0/0/7 degraded=true",
    "SACHI(n2) ppb=10000000 retry:2 default | H=-516 sweeps=50 flips=73 cycles=31520 | tile=126000/127174/0/252000/0/63000 | pJ=320100.665 | faults=5419/2515/1433/1082/1237/25977/0 degraded=true",
    "SACHI(n2) ppb=10000000 retry:2 stream | H=-516 sweeps=53 flips=73 cycles=76345 | tile=133560/135246/0/267120/0/66780 | pJ=1031566.6799999999 | faults=5764/2708/1594/1114/1362/28602/3425 degraded=true",
    "SACHI(n3) ppb=0 failfast default | H=-488 sweeps=50 flips=28 cycles=444 | tile=3600/161000/0/315000/0/1800 | pJ=22614.550000000003 | faults=0/0/0/0/0/0/0 degraded=false",
    "SACHI(n3) ppb=0 failfast stream | H=-488 sweeps=50 flips=28 cycles=23424 | tile=10800/161000/0/315000/0/5400 | pJ=678310.675 | faults=0/0/0/0/0/0/0 degraded=false",
    "SACHI(n3) ppb=0 retry:2 default | H=-488 sweeps=50 flips=28 cycles=444 | tile=3600/161000/0/315000/0/1800 | pJ=22614.550000000003 | faults=0/0/0/0/0/0/0 degraded=false",
    "SACHI(n3) ppb=0 retry:2 stream | H=-488 sweeps=50 flips=28 cycles=23424 | tile=10800/161000/0/315000/0/5400 | pJ=678310.675 | faults=0/0/0/0/0/0/0 degraded=false",
    "SACHI(n3) ppb=100000 failfast default | H=-472 sweeps=2 flips=13 cycles=66 | tile=158/7021/0/13825/0/79 | pJ=14732.25875 | faults=1/1/1/0/0/0/0 degraded=true",
    "SACHI(n3) ppb=100000 failfast stream | H=-466 sweeps=1 flips=9 cycles=544 | tile=234/3432/0/6825/0/117 | pJ=22631.91875 | faults=1/1/1/0/0/0/0 degraded=true",
    "SACHI(n3) ppb=100000 retry:2 default | H=-488 sweeps=50 flips=28 cycles=1116 | tile=3600/161000/0/315000/0/1800 | pJ=28628.95 | faults=34/33/32/1/32/672/0 degraded=false",
    "SACHI(n3) ppb=100000 retry:2 stream | H=-488 sweeps=50 flips=28 cycles=24054 | tile=10800/161000/0/315000/0/5400 | pJ=683949.175 | faults=30/30/30/0/30/630/34 degraded=false",
    "SACHI(n3) ppb=10000000 failfast default | H=-270 sweeps=0 flips=0 cycles=50 | tile=4/183/0/350/0/2 | pJ=14332.2025 | faults=3/2/1/1/0/0/0 degraded=true",
    "SACHI(n3) ppb=10000000 failfast stream | H=-270 sweeps=0 flips=0 cycles=50 | tile=12/183/0/350/0/6 | pJ=8453.10375 | faults=5/2/1/1/0/0/3 degraded=true",
    "SACHI(n3) ppb=10000000 retry:2 default | H=-516 sweeps=50 flips=73 cycles=26421 | tile=3600/158419/0/315000/0/1800 | pJ=255197.24 | faults=5419/2515/1433/1082/1237/25977/0 degraded=true",
    "SACHI(n3) ppb=10000000 retry:2 stream | H=-516 sweeps=54 flips=75 cycles=55956 | tile=11664/170955/0/340200/0/5832 | pJ=1006441.755 | faults=6013/2847/1715/1132/1460/30660/3488 degraded=true",
];

#[test]
fn faulted_runs_match_pinned_goldens() {
    let mut cells = Vec::new();
    for design in DesignKind::ALL {
        for ber_ppb in [0u64, 100_000, 10_000_000] {
            for retry in [false, true] {
                for streaming in [false, true] {
                    cells.push(faulted_cell(design, ber_ppb, retry, streaming));
                }
            }
        }
    }
    assert_eq!(cells.len(), FAULT_GOLDENS.len(), "golden table size");
    for (got, want) in cells.iter().zip(FAULT_GOLDENS) {
        assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The software-pipelined sweep (prefetch overlaps round k+1's upload
    /// with round k's compute) must be an accounting-only optimization:
    /// identical H trajectory, spins, and compute cycles as the serial
    /// sweep, with a total critical path no longer than serial.
    #[test]
    fn pipelined_sweep_matches_serial_sweep(
        seed in 0u64..512,
        side in 4usize..=6,
    ) {
        let span = side * 2 + 1;
        let graph = topology::complete(6 * side, move |i, j| {
            ((i as usize * 3 + 2 * (j as usize) + seed as usize) % span) as i32 - side as i32
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let opts = SolveOptions::for_graph(&graph, seed).with_trace();
        for design in DesignKind::ALL {
            let base = SachiConfig::new(design).with_hierarchy(tiny_hierarchy());
            let (res_p, rep_p) =
                SachiMachine::new(base.clone()).solve_detailed(&graph, &init, &opts);
            let (res_s, rep_s) =
                SachiMachine::new(base.without_prefetch()).solve_detailed(&graph, &init, &opts);
            prop_assert_eq!(&res_p.trace, &res_s.trace, "{} trajectory", design);
            prop_assert_eq!(&res_p.spins, &res_s.spins, "{} spins", design);
            prop_assert_eq!(res_p.energy, res_s.energy, "{} energy", design);
            prop_assert_eq!(rep_p.compute_cycles, rep_s.compute_cycles, "{} compute", design);
            prop_assert_eq!(rep_p.tile, rep_s.tile, "{} tile stats", design);
            prop_assert!(
                rep_p.total_cycles <= rep_s.total_cycles,
                "{} pipelined total {} exceeded serial {}",
                design, rep_p.total_cycles, rep_s.total_cycles
            );
        }
    }
}
