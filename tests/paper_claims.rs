//! Shape-level reproduction of the paper's quantitative claims: the
//! orderings and mechanisms of Figs. 15–19 must hold in this
//! implementation (absolute factors are recorded in EXPERIMENTS.md).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi::prelude::*;

/// Fig. 15a: reuse at 1K spins / 4-bit ICs is ~4 (asset), ~200 (image
/// segmentation), ~4000 (TSP), ~32 (molecular dynamics) for SACHI(n3),
/// against 1 for BRIM and Ising-CIM.
#[test]
fn fig15a_reuse_table() {
    let reuse = |kind: CopKind| {
        let shape = kind.standard_shape(1_000).with_resolution(4);
        PerfModel::new(SachiConfig::new(DesignKind::N3))
            .iteration(&shape)
            .reuse
    };
    assert_eq!(reuse(CopKind::AssetAllocation), 4);
    assert_eq!(reuse(CopKind::MolecularDynamics), 32);
    assert_eq!(reuse(CopKind::ImageSegmentation), 192); // paper: ~200
    assert_eq!(reuse(CopKind::TravelingSalesman), 3_996); // paper: ~4000
}

/// Fig. 15b/c: SACHI(n3) beats BRIM on both cycles and energy for every
/// COP at 1K spins / 4-bit, and the TSP speedup exceeds the asset
/// allocation speedup (parallelism across neighbors).
#[test]
fn fig15bc_sachi_beats_brim() {
    let w = MolecularDynamics::new(10, 10, 3);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(1);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 2);

    let mut sachi = SachiMachine::new(SachiConfig::new(DesignKind::N3));
    let (result, s) = sachi.solve_detailed(graph, &init, &opts);
    // BRIM's sweep is the golden one, which SACHI's result follows.
    let brim = BrimMachine::new();
    brim.check_limits(graph).expect("BRIM envelope");
    let b = brim.price(&SolveCounts::of(graph, &result));

    let speedup = b.cycles.ratio(s.total_cycles);
    let energy_gain = b.energy.total().ratio(s.energy.total());
    assert!(speedup > 10.0, "speedup only {speedup:.1}x");
    assert!(energy_gain > 5.0, "energy gain only {energy_gain:.1}x");

    // Analytic model at 1K spins: TSP speedup > asset speedup.
    let model = PerfModel::new(SachiConfig::new(DesignKind::N3));
    let cpi = |kind: CopKind| {
        let shape = kind.standard_shape(1_000).with_resolution(4);
        let sachi_cpi = model.iteration(&shape).effective_cycles.get() as f64;
        let brim_cpi = brim.cycles_per_sweep(shape.spins, shape.neighbors_per_spin) as f64;
        brim_cpi / sachi_cpi
    };
    let asset = cpi(CopKind::AssetAllocation);
    let tsp = cpi(CopKind::TravelingSalesman);
    assert!(asset > 1.0, "asset speedup {asset:.1}");
    assert!(
        tsp > asset,
        "TSP speedup {tsp:.1} should exceed asset {asset:.1}"
    );
}

/// Fig. 15d/e: SACHI(n3) beats Ising-CIM on cycles (paper: ~70-80x) and
/// energy for 2-bit molecular dynamics, with ~16x more reuse.
#[test]
fn fig15de_sachi_beats_ising_cim() {
    let w = MolecularDynamics::with_resolution(16, 16, 5, 2);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(2);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 3);

    let mut sachi = SachiMachine::new(SachiConfig::new(DesignKind::N3));
    let (result, s) = sachi.solve_detailed(graph, &init, &opts);
    // Ising-CIM's sweep is the golden one, which SACHI's result follows.
    let cim = CimMachine::new();
    cim.check_limits(graph).expect("CIM envelope");
    let c = cim.price(&SolveCounts::of(graph, &result));

    let speedup = c.cycles.ratio(s.total_cycles);
    assert!(
        speedup > 20.0 && speedup < 500.0,
        "speedup {speedup:.1}x out of plausible band"
    );
    assert!(c.energy.total() > s.energy.total());
    // Reuse: N*R = 16 for the paper; interior tuples dominate here.
    assert!(
        s.reuse / BASELINE_REUSE > 8.0,
        "reuse advantage {:.1}",
        s.reuse / BASELINE_REUSE
    );
}

/// Fig. 17: CPI ladder n3 <= n2 <= n1b <= n1a at every size, and CPI
/// grows monotonically with spin count.
#[test]
fn fig17_cpi_ladder_and_monotonicity() {
    for kind in CopKind::ALL {
        let mut last_n3 = 0u64;
        for spins in [500u64, 10_000, 200_000, 1_000_000] {
            let shape = kind.standard_shape(spins);
            let est = |k| PerfModel::new(SachiConfig::new(k)).iteration(&shape);
            let (ea, eb, ec, ed) = (
                est(DesignKind::N1a),
                est(DesignKind::N1b),
                est(DesignKind::N2),
                est(DesignKind::N3),
            );
            let (a, b, c, d) = (
                ea.effective_cycles.get(),
                eb.effective_cycles.get(),
                ec.effective_cycles.get(),
                ed.effective_cycles.get(),
            );
            // A 0.1% slack absorbs per-round pipeline-fill wobble (n2 and
            // n3 tie exactly for single-neighbor COPs modulo round count).
            let le = |x: u64, y: u64| (x as f64) <= (y as f64) * 1.001;
            // n3 is always the best design; n1b never loses to n1a.
            assert!(
                le(d, a) && le(d, b) && le(d, c),
                "{kind} at {spins}: n3 {d} not best of {a} {b} {c}"
            );
            assert!(le(b, a), "{kind} at {spins}: n1b {b} > n1a {a}");
            // n2 <= n1b holds whenever n2's larger resident footprint has
            // not yet cost it tile parallelism (it stores R x more per
            // tuple; once it overflows, capacity can beat throughput —
            // a crossover the paper's Fig. 17 curves gloss over, noted in
            // EXPERIMENTS.md).
            if ec.fits_in_compute {
                assert!(le(c, b), "{kind} at {spins}: resident n2 {c} > n1b {b}");
            }
            assert!(d >= last_n3, "{kind}: CPI shrank with size");
            last_n3 = d;
        }
    }
}

/// Fig. 17(iv): TSP has the highest CPI of all COPs for the
/// neighbor-dependent designs.
#[test]
fn fig17_tsp_has_highest_cpi() {
    for design in [DesignKind::N1a, DesignKind::N1b, DesignKind::N2] {
        let cpi = |kind: CopKind| {
            PerfModel::new(SachiConfig::new(design))
                .iteration(&kind.standard_shape(100_000))
                .effective_cycles
                .get()
        };
        let tsp = cpi(CopKind::TravelingSalesman);
        for other in [
            CopKind::AssetAllocation,
            CopKind::ImageSegmentation,
            CopKind::MolecularDynamics,
        ] {
            assert!(tsp > cpi(other), "{design}: TSP not the worst vs {other}");
        }
    }
}

/// Fig. 18: n1a/n1b CPI falls with lower IC resolution; n2/n3 stay flat
/// (within round-fill noise).
#[test]
fn fig18_resolution_sensitivity() {
    for kind in CopKind::ALL {
        let shape = |r| kind.standard_shape(1_000_000).with_resolution(r);
        for design in [DesignKind::N1a, DesignKind::N1b] {
            let m = PerfModel::new(SachiConfig::new(design));
            let lo = m.iteration(&shape(2)).compute_cycles.get();
            let hi = m.iteration(&shape(8)).compute_cycles.get();
            assert!(lo < hi, "{design} on {kind}: {lo} !< {hi}");
        }
        for design in [DesignKind::N2, DesignKind::N3] {
            let m = PerfModel::new(SachiConfig::new(design));
            let lo = m.iteration(&shape(2)).compute_cycles.get() as f64;
            let hi = m.iteration(&shape(8)).compute_cycles.get() as f64;
            if design == DesignKind::N3 && kind == CopKind::TravelingSalesman {
                // Deviation from the paper's "no change" claim, recorded
                // in EXPERIMENTS.md: a complete-graph tuple spans multiple
                // rows, and higher R means more row splits — CPI *does*
                // grow, just far slower than n1's linear R dependence.
                assert!(hi > lo, "row-split effect vanished");
                let n1_growth = {
                    let m1 = PerfModel::new(SachiConfig::new(DesignKind::N1a));
                    m1.iteration(&shape(8)).compute_cycles.get() as f64
                        / m1.iteration(&shape(2)).compute_cycles.get() as f64
                };
                assert!(hi / lo < n1_growth, "n3 should be less R-sensitive than n1");
                continue;
            }
            assert!(
                (hi - lo).abs() / lo < 0.25,
                "{design} on {kind} not ~flat: {lo} vs {hi}"
            );
        }
    }
}

/// Fig. 19b: wall-clock solution time improves monotonically from n1a to
/// n3 on a real solve.
#[test]
fn fig19b_solution_time_ladder() {
    let w = ImageSegmentation::with_options(8, 8, 11, Connectivity::Grid4, 6);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(4);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 5);
    let mut times = Vec::new();
    for design in DesignKind::ALL {
        let (_, report) =
            SachiMachine::new(SachiConfig::new(design)).solve_detailed(graph, &init, &opts);
        times.push(report.wall_time.get());
    }
    assert!(
        times[3] < times[2],
        "n3 {:?} !< n2 {:?}",
        times[3],
        times[2]
    );
    assert!(times[2] < times[1], "n2 !< n1b");
    assert!(times[1] <= times[0], "n1b !<= n1a");
}

/// Fig. 19c: lowering IC resolution increases the iterations needed to
/// *reach a given solution quality* — coarse coefficients converge fast
/// to worse answers, so under an iso-accuracy criterion they need more
/// sweeps (often never arriving; we cap and count the cap).
#[test]
fn fig19c_low_resolution_needs_more_iterations_to_iso_accuracy() {
    const TARGET: f64 = 0.995;
    const CAP: u64 = 512;
    // Deterministic solver: a run capped at k sweeps is the prefix of the
    // same run capped at 2k, so stepping the cap probes "sweeps until the
    // target accuracy is first reached".
    let sweeps_to_target = |bits: u32, seed: u64| -> u64 {
        let w = AssetAllocation::with_resolution(30, seed, bits);
        let graph = w.graph();
        let mut rng = StdRng::seed_from_u64(seed);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let mut solver = CpuReferenceSolver::new();
        let mut cap = 1u64;
        while cap <= CAP {
            let opts = SolveOptions::for_graph(graph, seed + 100).with_max_sweeps(cap);
            let r = solver.solve(graph, &init, &opts);
            if w.accuracy(&r.spins) >= TARGET {
                return r.sweeps;
            }
            if r.converged {
                break; // converged below target: will never arrive
            }
            cap *= 2;
        }
        CAP
    };
    let mut low = 0u64;
    let mut high = 0u64;
    for seed in 0..6 {
        low += sweeps_to_target(2, seed);
        high += sweeps_to_target(16, seed);
    }
    assert!(
        low > high,
        "2-bit reached iso-accuracy in {low} sweeps vs 16-bit {high}"
    );
}

/// Sec. VII.2: bigger cache presets monotonically improve 1M-spin TSP.
#[test]
fn sec7_cache_scaling() {
    let shape = CopKind::TravelingSalesman.standard_shape(1_000_000);
    let cpi = |h| {
        PerfModel::new(SachiConfig::new(DesignKind::N3).with_hierarchy(h))
            .iteration(&shape)
            .effective_cycles
            .get() as f64
    };
    let base = cpi(CacheHierarchy::hpca_default());
    let desktop = cpi(CacheHierarchy::desktop());
    let server = cpi(CacheHierarchy::server());
    assert!(
        base / desktop > 2.0,
        "desktop speedup {:.1}",
        base / desktop
    );
    assert!(
        desktop / server > 1.5,
        "server over desktop {:.1}",
        desktop / server
    );
}

/// The 2x CPI claim: Ising-CIM's read-modify-write makes each compute a
/// 2-step (3+3 cycle) operation, visible directly in its per-sweep cycles.
#[test]
fn cim_pays_double_cycle_compute_update() {
    let cim = CimMachine::new();
    let update_share = cim.config().update_cycles as f64
        / (cim.config().compute_cycles + cim.config().update_cycles) as f64;
    assert!((update_share - 0.5).abs() < 1e-12);
}

/// Ablations: tuple-rep removal surfaces cross-tuple re-reads; prefetch
/// removal lengthens the critical path; both leave results untouched.
#[test]
fn ablations_change_cost_not_results() {
    let w = MolecularDynamics::new(7, 7, 13);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(6);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 7);

    let (base_result, base) =
        SachiMachine::new(SachiConfig::new(DesignKind::N3)).solve_detailed(graph, &init, &opts);
    let (norep_result, norep) =
        SachiMachine::new(SachiConfig::new(DesignKind::N3).without_tuple_rep())
            .solve_detailed(graph, &init, &opts);
    assert_eq!(base_result.energy, norep_result.energy);
    assert_eq!(base.cross_tuple_rereads, 0);
    assert!(norep.cross_tuple_rereads > 0);

    let tiny = CacheHierarchy {
        compute: CacheGeometry::new(1, 4, 64, 1),
        storage: CacheGeometry::new(1, 2, 64, 2),
    };
    let (pf_result, pf) = SachiMachine::new(SachiConfig::new(DesignKind::N2).with_hierarchy(tiny))
        .solve_detailed(graph, &init, &opts);
    let (nopf_result, nopf) = SachiMachine::new(
        SachiConfig::new(DesignKind::N2)
            .with_hierarchy(tiny)
            .without_prefetch(),
    )
    .solve_detailed(graph, &init, &opts);
    assert_eq!(pf_result.energy, nopf_result.energy);
    assert!(nopf.total_cycles > pf.total_cycles);
}
