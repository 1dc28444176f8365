//! Fig. 16: SACHI vs genetic algorithm (GA), particle swarm optimization
//! (PSO), and dedicated optimized solvers (OPTSolv) — solution accuracy
//! and execution time for all four COPs.
//!
//! Times: SACHI reports *simulated* time (cycles x 5 ns at the paper's
//! 45 nm clock); the classical solvers report host wall-clock, as the
//! paper measured GALib on an i5. Both are listed; the accuracy columns
//! are the apples-to-apples part.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi_baselines::prelude::*;
use sachi_bench::{duration, percent, section, threads_arg, timed, Table};
use sachi_core::prelude::*;
use sachi_ising::prelude::*;
use sachi_workloads::prelude::*;
use std::time::Duration;

struct Row {
    cop: &'static str,
    sachi_acc: f64,
    sachi_time: Duration,
    pt_acc: f64,
    pt_time: Duration,
    ga_acc: f64,
    ga_time: Duration,
    pso_acc: f64,
    pso_time: Duration,
    opt_acc: f64,
    opt_time: Duration,
    opt_name: &'static str,
}

/// Runs a deterministic replica ensemble of SACHI(n3) over the bench's
/// worker threads and reports the best accuracy across replicas plus
/// the summed simulated time (the serial-equivalent cost, matching the
/// paper's single-machine restart loop). With `tempered` the same
/// replicas exchange configurations on an adaptive temperature ladder
/// instead of annealing independently; the result is still a pure
/// function of (seed, replica count).
fn sachi_ensemble(workload: &dyn Workload, restarts: usize, tempered: bool) -> (f64, Duration) {
    let graph = workload.graph();
    let mut rng = StdRng::seed_from_u64(1);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let mut opts = SolveOptions::for_graph(graph, 1);
    if tempered {
        opts = opts.with_tempering(TemperingOptions::for_graph(
            LadderKind::Adaptive,
            graph,
            restarts,
        ));
    }
    let config = SachiConfig::new(DesignKind::N3);
    let threads = threads_arg().unwrap_or(0);
    let outcome = run_ensemble(&config, graph, &init, &opts, restarts, threads);
    let best_acc = outcome
        .best
        .replicas
        .iter()
        .map(|r| workload.accuracy(&r.spins))
        .fold(0.0f64, f64::max);
    let sim_ns: f64 = outcome
        .report
        .reports
        .iter()
        .map(|r| r.wall_time.get())
        .sum();
    (best_acc, Duration::from_nanos(sim_ns as u64))
}

fn main() {
    let mut rows = Vec::new();

    // --- asset allocation ---
    {
        let w = AssetAllocation::new(64, 3);
        let (sachi_acc, sachi_time) = sachi_ensemble(&w, 4, false);
        let (pt_acc, pt_time) = sachi_ensemble(&w, 4, true);
        let (ga, ga_time) = timed(|| run_ga_on_graph(w.graph(), &GaOptions::standard(2)));
        let (pso, pso_time) = timed(|| run_pso_on_graph(w.graph(), &PsoOptions::standard(3)));
        let ((kk, _), opt_time) = timed(|| karmarkar_karp(w.values()));
        rows.push(Row {
            cop: "asset allocation",
            sachi_acc,
            sachi_time,
            pt_acc,
            pt_time,
            ga_acc: w.accuracy(&ga.best_spins()),
            ga_time,
            pso_acc: w.accuracy(&pso.best_spins()),
            pso_time,
            opt_acc: w.accuracy(&kk),
            opt_time,
            opt_name: "Karmarkar-Karp",
        });
    }

    // --- image segmentation ---
    {
        let w = ImageSegmentation::with_options(12, 12, 5, Connectivity::Grid4, 6);
        let (sachi_acc, sachi_time) = sachi_ensemble(&w, 5, false);
        let (pt_acc, pt_time) = sachi_ensemble(&w, 5, true);
        let (ga, ga_time) = timed(|| run_ga_on_graph(w.graph(), &GaOptions::standard(4)));
        let (pso, pso_time) = timed(|| run_pso_on_graph(w.graph(), &PsoOptions::standard(5)));
        let ((labels, _), opt_time) = timed(|| edmonds_karp_segmentation(&w));
        rows.push(Row {
            cop: "image segmentation",
            sachi_acc,
            sachi_time,
            pt_acc,
            pt_time,
            ga_acc: w.accuracy(&ga.best_spins()),
            ga_time,
            pso_acc: w.accuracy(&pso.best_spins()),
            pso_time,
            opt_acc: w.accuracy(&labels),
            opt_time,
            opt_name: "Edmonds-Karp",
        });
    }

    // --- traveling salesman (Lucas tour formulation) ---
    {
        let w = TspTour::new(8, 7);
        let graph = w.graph();
        let (best_acc, sachi_time) = sachi_ensemble(&w, 8, false);
        let (pt_acc, pt_time) = sachi_ensemble(&w, 8, true);
        let (ga, ga_time) = timed(|| run_ga_on_graph(graph, &GaOptions::standard(6)));
        let (pso, pso_time) = timed(|| run_pso_on_graph(graph, &PsoOptions::standard(7)));
        let ((_, opt_len), opt_time) = timed(|| tsp_reference(w.distances()));
        rows.push(Row {
            cop: "traveling salesman",
            sachi_acc: best_acc,
            sachi_time,
            pt_acc,
            pt_time,
            ga_acc: w.accuracy(&ga.best_spins()),
            ga_time,
            pso_acc: w.accuracy(&pso.best_spins()),
            pso_time,
            opt_acc: (w.reference_length() as f64 / opt_len.max(1) as f64).clamp(0.0, 1.0),
            opt_time,
            opt_name: "2-opt (Concorde)",
        });
    }

    // --- molecular dynamics ---
    {
        let w = MolecularDynamics::new(12, 12, 9);
        let (sachi_acc, sachi_time) = sachi_ensemble(&w, 4, false);
        let (pt_acc, pt_time) = sachi_ensemble(&w, 4, true);
        let (ga, ga_time) = timed(|| run_ga_on_graph(w.graph(), &GaOptions::standard(8)));
        let (pso, pso_time) = timed(|| run_pso_on_graph(w.graph(), &PsoOptions::standard(9)));
        let mut rng = StdRng::seed_from_u64(10);
        let init = SpinVector::random(w.graph().num_spins(), &mut rng);
        let ((spins, _), opt_time) = timed(|| lattice_descent(&w, &init, 500));
        rows.push(Row {
            cop: "molecular dynamics",
            sachi_acc,
            sachi_time,
            pt_acc,
            pt_time,
            ga_acc: w.accuracy(&ga.best_spins()),
            ga_time,
            pso_acc: w.accuracy(&pso.best_spins()),
            pso_time,
            opt_acc: w.accuracy(&spins),
            opt_time,
            opt_name: "greedy descent (LAMMPS)",
        });
    }

    section("Fig. 16 - solution accuracy");
    let mut acc = Table::new([
        "COP",
        "SACHI(n3)",
        "SACHI(n3)+PT",
        "GA",
        "PSO",
        "OPTSolv",
        "OPTSolv used",
    ]);
    for r in &rows {
        acc.row([
            r.cop.to_string(),
            percent(r.sachi_acc),
            percent(r.pt_acc),
            percent(r.ga_acc),
            percent(r.pso_acc),
            percent(r.opt_acc),
            r.opt_name.to_string(),
        ]);
    }
    acc.print();

    section("Fig. 16 - execution time (SACHI simulated @5ns cycle; others host wall-clock)");
    let mut time = Table::new(["COP", "SACHI(n3)", "SACHI(n3)+PT", "GA", "PSO", "OPTSolv"]);
    for r in &rows {
        time.row([
            r.cop.to_string(),
            duration(r.sachi_time),
            duration(r.pt_time),
            duration(r.ga_time),
            duration(r.pso_time),
            duration(r.opt_time),
        ]);
    }
    time.print();
    println!();
    println!("paper: SACHI reaches ~100% accuracy with GA below it, PSO between,");
    println!("and outruns the dedicated solvers by 27-34x; see EXPERIMENTS.md for");
    println!("the measured factors and the simulated-vs-host caveat. +PT is the");
    println!("replica-exchange ensemble (same replica count, adaptive ladder);");
    println!("the equal-sweep-budget quality gate lives in disc_quality.");
}
