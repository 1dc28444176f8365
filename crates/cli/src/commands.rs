//! Command implementations for the `sachi` CLI.

use crate::args::{EstimateArgs, MetricsFormat, SolveArgs};
use crate::protocol;
use sachi_baselines::prelude::*;
use sachi_bench::{ratio, Table};
use sachi_core::prelude::*;
use sachi_core::serve::AccuracyFn;
use sachi_ising::prelude::*;
use sachi_mem::l1cache::{CacheMode, L1Cache};
use sachi_mem::prelude::*;
use sachi_obs::prelude::*;
use sachi_workloads::prelude::*;

/// A loaded problem file: name, graph, and its accuracy scorer when the
/// file reads as a scored workload.
type LoadedProblem = (String, IsingGraph, Option<AccuracyFn>);

fn scored<W: Workload + Send + Sync + 'static>(w: W) -> LoadedProblem {
    let (name, graph) = (w.name(), w.graph().clone());
    (name, graph, Some(Box::new(move |s| w.accuracy(s))))
}

fn load_file(path: &str, args: &SolveArgs) -> Result<LoadedProblem, SachiError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SachiError::Io(format!("cannot read {path}: {e}")))?;
    if args.cnf {
        let instance =
            parse_dimacs_cnf(&text).map_err(|e| SachiError::Parse(format!("{path}: {e}")))?;
        return SatWorkload::new(path.to_string(), instance)
            .map(scored)
            .map_err(|e| SachiError::Config(format!("{path}: {e}")));
    }
    let graph = if args.gset {
        parse_gset(&text).map_err(|e| SachiError::Parse(format!("{path}: {e}")))?
    } else {
        parse_dimacs(&text).map_err(|e| SachiError::Parse(format!("{path}: {e}")))?
    };
    // A pure antiferromagnetic instance reads as weighted max-cut,
    // which gives loaded files an accuracy metric.
    if graph.num_edges() > 0 && graph.edges().all(|(_, _, w)| w <= 0) {
        return Ok(scored(GenericMaxCut::new(path.to_string(), graph)));
    }
    Ok((path.to_string(), graph, None))
}

/// Lowers the command line through the one lowering the daemon uses
/// (`JobPlan::from_spec` for a generated COP, `JobPlan::lower` for a
/// problem file), then applies the machine settings only `solve` has.
fn plan_for(args: &SolveArgs) -> Result<JobPlan, SachiError> {
    let plan = match &args.file {
        Some(path) => {
            let (name, graph, accuracy) = load_file(path, args)?;
            JobPlan::lower(&args.job, name, graph, accuracy)?
        }
        None => JobPlan::from_spec(&args.job)?,
    }
    .with_hierarchy(args.hierarchy);
    Ok(if args.trace_phases {
        plan.with_phase_trace()
    } else {
        plan
    })
}

/// `sachi solve`.
pub fn solve(args: &SolveArgs) -> Result<(), SachiError> {
    let plan = plan_for(args)?;
    // SACHI repurposes the host's L1 data array as the compute substrate
    // (Sec. VII.1): claim it around the ensemble so the exported l1_*
    // metrics carry the real mode-switch and flush accounting of that
    // handover.
    let mut l1 = L1Cache::typical_l1();
    l1.set_mode(CacheMode::IsingCompute);
    let outcome = plan.run(args.threads);
    l1.set_mode(CacheMode::Normal);
    let report = &outcome.report.reports[outcome.best.best_index];

    match args.metrics {
        // --metrics replaces the whole human report with one
        // machine-readable snapshot, so scripts can pipe stdout straight
        // into a parser. Fold order is replica order, never completion
        // order, so the snapshot is identical at any --threads value.
        Some(format) => {
            let mut reg = outcome.metrics();
            l1.stats().export(&mut reg);
            match format {
                MetricsFormat::Json => print!("{}", write_snapshot(&reg, &report.phase_spans)),
                MetricsFormat::Prom => print!("{}", write_exposition(&reg)),
            }
        }
        // The report is the daemon's response for this job, rendered
        // as `sachi submit` renders it: both front ends print the same
        // bytes by construction.
        None => {
            let body = protocol::ok_solve_body(&protocol::job_echo(&plan), plan.spec(), &outcome);
            let doc = sachi_obs::json::parse(&body)
                .map_err(|e| SachiError::Parse(format!("solve response: {e}")))?;
            print!("{}", protocol::render_solve(&doc)?);
            if args.trace_phases && !report.phase_spans.is_empty() {
                println!("phases  : (best replica, cycle domain)");
                print!("{}", render_span_tree(&report.phase_spans));
            }
        }
    }
    // Fault outcomes surface as typed errors (exit code 4) so sweep
    // scripts can tell "solved despite faults" from "gave up".
    match outcome.fault_error(plan.spec().fault_policy) {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// `sachi compare`.
pub fn compare(args: &SolveArgs) -> Result<(), SachiError> {
    if args.job.fault_ber.is_some() {
        return Err(SachiError::Config(
            "compare cross-checks machines against the golden model and needs a perfect \
             memory hierarchy; drop --fault-ber (use solve for fault sweeps)"
                .to_string(),
        ));
    }
    let plan = plan_for(args)?;
    let (graph, init, opts) = (plan.graph(), plan.init(), plan.options());
    println!("problem: {} ({} spins)", plan.name(), graph.num_spins());

    let golden = CpuReferenceSolver::new().solve(graph, init, opts);
    let mut table = Table::new(["machine", "H", "iters", "cycles", "energy", "reuse"]);
    let mut machine_row =
        |machine: &str, result: SolveResult, cycles: Cycles, energy: Picojoules, reuse: f64| {
            table.row([
                machine.to_string(),
                result.energy.to_string(),
                result.sweeps.to_string(),
                cycles.get().to_string(),
                energy.to_string(),
                format!("{reuse:.1}"),
            ]);
        };
    for design in DesignKind::ALL {
        let config = SachiConfig {
            design,
            ..plan.config().clone()
        };
        let (result, report) = SachiMachine::new(config).solve_detailed(graph, init, opts);
        assert_eq!(
            result.energy, golden.energy,
            "machines must match the golden model"
        );
        let (cycles, energy) = (report.total_cycles, report.energy.total());
        machine_row(design.label(), result, cycles, energy, report.reuse);
    }
    match BrimMachine::new().solve_detailed(graph, init, opts) {
        Ok((result, r)) => machine_row("BRIM", result, r.total_cycles, r.energy.total(), r.reuse),
        Err(e) => println!("BRIM skipped: {e}"),
    }
    match CimMachine::new().solve_detailed(graph, init, opts) {
        Ok((result, r)) => machine_row(
            "Ising-CIM",
            result,
            r.total_cycles,
            r.energy.total(),
            r.reuse,
        ),
        Err(e) => println!("Ising-CIM skipped: {e}"),
    }
    table.row([
        "CPU golden".to_string(),
        golden.energy.to_string(),
        golden.sweeps.to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    table.print();
    Ok(())
}

/// `sachi estimate`.
pub fn estimate(args: &EstimateArgs) -> Result<(), SachiError> {
    let mut config = SachiConfig::new(args.design).with_hierarchy(args.hierarchy);
    if let Some(r) = args.resolution {
        config = config.with_resolution(r);
    }
    let mut shape = args.cop.standard_shape(args.spins);
    if let Some(r) = args.resolution {
        shape = shape.with_resolution(r);
    }
    let model = PerfModel::new(config);
    let iter = model.iteration(&shape);
    let solve = model.solve(&shape, args.iterations);
    println!(
        "shape    : {} at {} spins (N = {}, R = {})",
        args.cop, shape.spins, shape.neighbors_per_spin, shape.resolution_bits
    );
    println!("design   : {}", args.design.label());
    println!(
        "per iter : {} cycles effective ({} compute, {} load, {} rounds, reuse {})",
        iter.effective_cycles.get(),
        iter.compute_cycles.get(),
        iter.load_cycles.get(),
        iter.rounds,
        iter.reuse
    );
    println!(
        "residency: {} in compute array, DRAM streaming: {}",
        if iter.fits_in_compute {
            "fits"
        } else {
            "overflows"
        },
        if iter.uses_dram { "yes" } else { "no" }
    );
    println!(
        "solve    : {} iterations -> {} cycles, {}, {}",
        args.iterations,
        solve.total_cycles.get(),
        solve.wall_time,
        solve.energy.total()
    );
    let base = PerfModel::new(SachiConfig::new(DesignKind::N1a).with_hierarchy(args.hierarchy));
    println!(
        "vs n1a   : {} speedup per iteration",
        ratio(
            base.iteration(&shape).effective_cycles.get() as f64,
            iter.effective_cycles.get() as f64
        )
    );
    Ok(())
}

/// `sachi info`.
pub fn info() {
    let tech = TechnologyParams::freepdk45();
    println!("SACHI simulator — paper configuration (HPCA 2024, Sec. V)");
    println!();
    for (name, h) in [
        ("default (10KB/160KB)", CacheHierarchy::hpca_default()),
        ("desktop (64KB/1MB)", CacheHierarchy::desktop()),
        ("server (256KB/8MB)", CacheHierarchy::server()),
    ] {
        println!(
            "hierarchy {name}: compute {} tiles x {} rows x {} bits ({}), storage {} ({} ports)",
            h.compute.tiles(),
            h.compute.rows_per_tile(),
            h.compute.row_bits(),
            h.compute.total_bits(),
            h.storage.total_bits(),
            h.storage.read_ports()
        );
    }
    println!();
    println!(
        "technology: {} V, {} cycle, {} array latency",
        tech.vdd_volts, tech.cycle_time, tech.sram_array_latency
    );
    println!(
        "energy    : RWL {}/bit, RBL {}/bit, movement {}/bit, adder {}/bit",
        tech.rwl_energy_per_bit(),
        tech.rbl_energy_per_bit(),
        tech.movement_energy_per_bit(),
        tech.adder_energy_per_bit()
    );
    println!("designs   : n1a/n1b (spin stationary), n2 (IC stationary), n3 (mixed, reuse N*R)");
}
