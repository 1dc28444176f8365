//! Fig. 17: scalability — cycles per Hamiltonian iteration (CPI) for spin
//! counts from 500 to 1M across all four COPs and all four SACHI designs,
//! including the compute-array-overflow regimes the paper annotates, plus
//! the HD/UHD-video segmentation points (2M and 8M pixels).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi_bench::{duration, section, threads_arg, timed, Table};
use sachi_core::prelude::*;
use sachi_ising::prelude::*;
use sachi_workloads::prelude::*;

const SIZES: [u64; 7] = [500, 1_000, 10_000, 100_000, 200_000, 300_000, 1_000_000];

fn main() {
    for kind in CopKind::ALL {
        section(&format!("Fig. 17 - {kind} CPI vs spins"));
        let mut table = Table::new([
            "spins",
            "n1a",
            "n1b",
            "n2",
            "n3",
            "n3 rounds",
            "n3 fits L1?",
            "streams DRAM?",
        ]);
        for spins in SIZES {
            let shape = kind.standard_shape(spins);
            let est = |d| PerfModel::new(SachiConfig::new(d)).iteration(&shape);
            let n3 = est(DesignKind::N3);
            table.row([
                spins.to_string(),
                est(DesignKind::N1a).effective_cycles.get().to_string(),
                est(DesignKind::N1b).effective_cycles.get().to_string(),
                est(DesignKind::N2).effective_cycles.get().to_string(),
                n3.effective_cycles.get().to_string(),
                n3.rounds.to_string(),
                if n3.fits_in_compute { "yes" } else { "no" }.to_string(),
                if n3.uses_dram { "yes" } else { "no" }.to_string(),
            ]);
        }
        table.print();
    }

    section("Fig. 17(v) - video-scale image segmentation (paper: ~1e9 and ~2e10 CPI)");
    let mut video = Table::new(["pixels", "label", "n3 CPI", "n3 rounds"]);
    for (pixels, label) in [
        (2_073_600u64, "HD video (1920x1080)"),
        (8_294_400, "UHD video (3840x2160)"),
    ] {
        let shape = CopKind::ImageSegmentation.standard_shape(pixels);
        let est = PerfModel::new(SachiConfig::new(DesignKind::N3)).iteration(&shape);
        video.row([
            pixels.to_string(),
            label.to_string(),
            est.effective_cycles.get().to_string(),
            est.rounds.to_string(),
        ]);
    }
    video.print();

    // Replica-level scaling, measured: the same 8-replica SACHI(n3)
    // ensemble at increasing worker-thread counts. Results are asserted
    // identical at every T (the determinism contract); speedups are
    // host wall-clock and are cross-checked against the model-side
    // `EnsembleReport::ideal_speedup` schedule bound.
    section("replica-ensemble scaling (8 SACHI(n3) replicas, molecular dynamics 24x24)");
    let md = MolecularDynamics::new(24, 24, 13);
    let graph = md.graph();
    let mut rng = StdRng::seed_from_u64(17);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 19);
    let replicas = 8usize;
    let config = SachiConfig::new(DesignKind::N3);
    let thread_counts: Vec<usize> = threads_arg().map_or_else(|| vec![1, 2, 4, 8], |t| vec![1, t]);

    let mut baseline: Option<(sachi_ising::ensemble::BestOf, f64)> = None;
    let mut ideal = None;
    let mut ts = Table::new([
        "threads",
        "wall-clock",
        "speedup",
        "model bound",
        "identical?",
    ]);
    for &t in &thread_counts {
        let (outcome, wall) = timed(|| run_ensemble(&config, graph, &init, &opts, replicas, t));
        let (best_of, report) = (outcome.best, outcome.report);
        let bound = report.ideal_speedup(t);
        if ideal.is_none() {
            ideal = Some(report);
        }
        let (identical, secs1) = match &baseline {
            None => (true, wall.as_secs_f64()),
            Some((b, s1)) => (*b == best_of, *s1),
        };
        assert!(identical, "thread count changed ensemble results");
        ts.row([
            t.to_string(),
            duration(wall),
            format!("{:.2}x", secs1 / wall.as_secs_f64().max(1e-12)),
            format!("{bound:.2}x"),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
        if baseline.is_none() {
            baseline = Some((best_of, wall.as_secs_f64()));
        }
    }
    ts.print();
    println!("(speedup is host wall-clock; the model bound is the deterministic");
    println!("longest-first schedule over the measured per-replica cycle counts)");

    // The same ensemble with replica exchange turned on. The swap RNG is
    // salted off the master seed — never off thread identity or the
    // execution schedule — so the determinism contract carries over:
    // every thread count must produce byte-identical results and swap
    // statistics.
    section("replica-exchange scaling (same 8 rungs, adaptive ladder)");
    let pt_opts = SolveOptions::for_graph(graph, 19).with_tempering(TemperingOptions::for_graph(
        LadderKind::Adaptive,
        graph,
        replicas,
    ));
    let mut pt_baseline: Option<(sachi_ising::ensemble::BestOf, f64)> = None;
    let mut pt_table = Table::new(["threads", "wall-clock", "speedup", "swaps", "identical?"]);
    for &t in &thread_counts {
        let (outcome, wall) = timed(|| run_ensemble(&config, graph, &init, &pt_opts, replicas, t));
        let best_of = outcome.best;
        let (identical, secs1) = match &pt_baseline {
            None => (true, wall.as_secs_f64()),
            Some((b, s1)) => (*b == best_of, *s1),
        };
        assert!(
            identical,
            "thread count changed replica-exchange ensemble results"
        );
        pt_table.row([
            t.to_string(),
            duration(wall),
            format!("{:.2}x", secs1 / wall.as_secs_f64().max(1e-12)),
            format!(
                "{}/{}",
                best_of.stats.swap_accepted, best_of.stats.swap_attempts
            ),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
        if pt_baseline.is_none() {
            pt_baseline = Some((best_of, wall.as_secs_f64()));
        }
    }
    pt_table.print();

    section("paper's qualitative annotations");
    println!("(i)   n3 fastest everywhere; (ii) n2 ~= n3 for single-neighbor COPs;");
    println!("(iii) n1a trails n1b via blockwise tile fill; (iv) TSP has the highest");
    println!("CPI for the N-dependent designs; (v) video-scale points stream rounds.");
    println!("Deviation: at overflow scale n2's Rx-larger footprint can cost it tile");
    println!("parallelism vs n1b (capacity/throughput crossover), see EXPERIMENTS.md.");
}
