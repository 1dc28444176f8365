//! Command implementations for the `sachi` CLI.

use crate::args::{EstimateArgs, MetricsFormat, SolveArgs};
use crate::protocol;
use sachi_baselines::prelude::*;
use sachi_core::prelude::*;
use sachi_ising::graph::MAX_SPINS;
use sachi_ising::prelude::*;
use sachi_mem::prelude::*;
use sachi_obs::prelude::*;
use sachi_obs::table::{ratio, Table};
use sachi_workloads::prelude::*;

/// Loads a problem file and lowers it: as a scored workload (a CNF, or
/// a graph that reads as weighted max-cut) or as a bare graph.
fn plan_file(path: &str, args: &SolveArgs) -> Result<JobPlan, SachiError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SachiError::Io(format!("cannot read {path}: {e}")))?;
    let parse_error = |e: ParseError| SachiError::Parse(format!("{path}: {e}"));
    if args.cnf {
        let instance = parse_dimacs_cnf(&text).map_err(parse_error)?;
        let workload = SatWorkload::new(path.to_string(), instance)
            .map_err(|e| SachiError::Config(format!("{path}: {e}")))?;
        return JobPlan::lower_cop(&args.job, CopProblem::from_workload(workload));
    }
    let graph = if args.gset {
        parse_gset(&text)
    } else {
        parse_dimacs(&text)
    }
    .map_err(parse_error)?;
    // A pure antiferromagnetic instance without fields reads as
    // weighted max-cut, which gives loaded files an accuracy metric. A
    // field would add energy the cut does not count.
    if graph.num_edges() > 0
        && graph.edges().all(|(_, _, w)| w <= 0)
        && (0..graph.num_spins()).all(|i| graph.field(i) == 0)
    {
        let workload = GenericMaxCut::new(path.to_string(), graph);
        return JobPlan::lower_cop(&args.job, CopProblem::from_workload(workload));
    }
    JobPlan::lower(&args.job, path.to_string(), graph)
}

/// Lowers the command line through the one lowering the daemon uses
/// (`JobPlan::from_spec` for a generated COP, `JobPlan::lower_cop` or
/// `JobPlan::lower` for a problem file), then applies the machine
/// settings only `solve` has.
fn plan_for(args: &SolveArgs) -> Result<JobPlan, SachiError> {
    let plan = match &args.file {
        Some(path) => plan_file(path, args)?,
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
    let outcome = plan.run(args.threads);
    let report = &outcome.report.reports[outcome.best.best_index];

    match args.metrics {
        // --metrics replaces the whole human report with one
        // machine-readable snapshot, so scripts can pipe stdout straight
        // into a parser. Fold order is replica order, never completion
        // order, so the snapshot is identical at any --threads value.
        // It is the registry the daemon harvests from the same job.
        Some(format) => {
            let reg = outcome.metrics();
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
        |machine: &str, result: &SolveResult, cycles: Cycles, energy: Picojoules, reuse: f64| {
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
        machine_row(design.label(), &result, cycles, energy, report.reuse);
    }
    // BRIM and Ising-CIM compute the exact local field, so their sweep
    // is the golden one: each prices the golden solve.
    let counts = SolveCounts::of(graph, &golden);
    let (brim, cim) = (BrimMachine::new(), CimMachine::new());
    for (machine, priced) in [
        (
            "BRIM",
            brim.check_limits(graph).map(|()| brim.price(&counts)),
        ),
        (
            "Ising-CIM",
            cim.check_limits(graph).map(|()| cim.price(&counts)),
        ),
    ] {
        match priced {
            Ok(Price { cycles, energy }) => {
                machine_row(machine, &golden, cycles, energy.total(), BASELINE_REUSE);
            }
            Err(e) => println!("{machine} skipped: {e}"),
        }
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
    let out_of_range = || {
        SachiError::Config(format!(
            "{} at {} spins over {} iterations is outside the model's range \
             (at most {MAX_SPINS} spins, with the storage bits and the solve cycles within \
             64 bits)",
            args.cop, args.spins, args.iterations
        ))
    };
    let model = PerfModel::new(config);
    let iter = model.try_iteration(&shape).ok_or_else(out_of_range)?;
    let solve = model
        .try_solve(&shape, args.iterations)
        .ok_or_else(out_of_range)?;
    let base = PerfModel::new(SachiConfig::new(DesignKind::N1a).with_hierarchy(args.hierarchy))
        .try_iteration(&shape)
        .ok_or_else(out_of_range)?;
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
    println!(
        "vs n1a   : {} speedup per iteration",
        ratio(
            base.effective_cycles.get() as f64,
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
