//! The traced run: the first jobs of a workload, replayed in-process
//! with every layer timed from outside through its public calls.
//!
//! Per job, in order: `build_cop_problem` (workloads), `JobPlan::from_spec`
//! (serve; its self time excludes a build timed alongside it),
//! `EnsembleRunner::run` on one thread over probe machines that record
//! each `SachiMachine::solve_detailed` call (ensemble), `BestOf::reduce`
//! and `ReplicaLedger::finish` (the `EnsembleReport::fold`),
//! `JobOutcome::metrics` and `write_snapshot` (obs), and a knockout replay
//! of every recorded machine call (machine, designs, anneal, tuple; see
//! `replay`). The same job then runs untraced through
//! `JobPlan::run_solo` and through the front end alone, which give the
//! tracing overhead and the front end's own cost. Spans go to a JSON
//! file next to the executable; the table goes to stdout.

use crate::frontend::{self, ms, ping_samples, run_child, Conn, Daemon};
use crate::jobs::{FrontEnd, Job, Workload, DAEMON_QUEUE_DEPTH, DAEMON_THREADS};
use crate::oracle;
use crate::replay::{knockout, Knockout, ROUNDS};
use crate::stats::median;
use crate::{Metric, Outcome};
use sachi_core::prelude::{
    build_cop_problem, JobOutcome, JobPlan, ReplicaLedger, ReportingMachine, RunReport,
    SachiConfig, SachiMachine, SolverPool,
};
use sachi_ising::prelude::{
    BestOf, EnsembleRunner, IsingGraph, IterativeSolver, SolveOptions, SolveResult, SpinVector,
};
use sachi_obs::json::{escape, write_snapshot};
use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Jobs traced per workload (the first ones of its list).
const TRACED_JOBS: usize = 10;

/// Ping round trips per ping metric.
const PING_SAMPLES: usize = 20;

/// A knockout residual below this share of machine time means the
/// replay does not account for the machine's work.
const MIN_ACCOUNTING_SHARE: f64 = -0.05;

/// One span: a layer call of one job.
struct Span {
    name: &'static str,
    job: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory spans, written out when the run ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn record(
        &mut self,
        name: &'static str,
        job: usize,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.spans.len() - 1
    }

    /// Opens a span whose end is set by [`Tracer::close`].
    fn open(&mut self, name: &'static str, job: usize, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, job, parent, now, now)
    }

    fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span; returns its value and duration in ns.
    fn time<T>(
        &mut self,
        name: &'static str,
        job: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        let id = self.record(name, job, parent, start, end);
        let span = &self.spans[id];
        (value, span.end_ns - span.start_ns)
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                    escape(s.name),
                    s.job,
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("{{\"spans\":[\n{}\n]}}\n", rows.join(",\n"))
    }
}

/// One `solve_detailed` call seen by a probe.
struct Call {
    initial: SpinVector,
    options: SolveOptions,
    result: SolveResult,
    report: RunReport,
    start: Instant,
    end: Instant,
}

/// A replica's machine, timing each call and keeping what the knockout
/// replay needs. Reports go to the ledger as `ReportingMachine` sends
/// them.
struct Probe<'a> {
    machine: SachiMachine,
    replica: usize,
    ledger: &'a ReplicaLedger,
    calls: &'a Mutex<Vec<Call>>,
}

impl IterativeSolver for Probe<'_> {
    fn solve(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> SolveResult {
        let start = Instant::now();
        let (result, report) = self.machine.solve_detailed(graph, initial, options);
        let end = Instant::now();
        self.ledger.record(self.replica, report.clone());
        self.calls
            .lock()
            .expect("a probe panicked while recording")
            .push(Call {
                initial: initial.clone(),
                options: options.clone(),
                result: result.clone(),
                report,
                start,
                end,
            });
        result
    }
}

/// Sums over the traced jobs (times in ns).
#[derive(Default)]
struct Totals {
    knockout: Knockout,
    uphill_accepted: u64,
    uphill_rejected: u64,
    copies: u64,
    swap_attempts: u64,
    swap_accepted: u64,
}

/// Per-job readings (ms unless named otherwise).
#[derive(Default)]
struct PerJob {
    build: Vec<f64>,
    plan_self: Vec<f64>,
    tuple_build: Vec<f64>,
    solve: Vec<f64>,
    accounting: Vec<f64>,
    run: Vec<f64>,
    reduce_us: Vec<f64>,
    export_us: Vec<f64>,
    overhead: Vec<f64>,
    trace_ratio: Vec<f64>,
}

/// Where the front end sends a job alone.
enum Front {
    OneShot,
    Daemon {
        daemon: Daemon,
        conn: Conn,
        pool: SolverPool,
    },
}

/// Traces the first [`TRACED_JOBS`] jobs of `workload`.
///
/// # Errors
///
/// Front-end set-up failures, or the spans file cannot be written.
pub fn run(workload: Workload, sachi: &Path, master: u64, smoke: bool) -> Result<Outcome, String> {
    let count = TRACED_JOBS.min(workload.job_count(smoke));
    let jobs: Vec<Job> = (0..count).map(|k| workload.job(master, k)).collect();
    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut front = match workload.front_end() {
        FrontEnd::OneShot => Front::OneShot,
        FrontEnd::Daemon => {
            let (daemon, _) = Daemon::start(sachi, DAEMON_THREADS, DAEMON_QUEUE_DEPTH)?;
            let conn = Conn::connect(daemon.port()).map_err(|e| format!("connect: {e}"))?;
            let pool = SolverPool::with_workers(DAEMON_THREADS);
            Front::Daemon { daemon, conn, pool }
        }
    };
    // The front end's no-job round trip. Every one-shot launch is a
    // fresh process, so both one-shot readings come from one sample.
    let (ping, ping_fresh) = match &front {
        Front::OneShot => {
            let mut samples = Vec::with_capacity(PING_SAMPLES);
            for _ in 0..PING_SAMPLES {
                let run = run_child(sachi, &["info".to_string()])?;
                if !run.success {
                    return Err("sachi info exited non-zero".to_string());
                }
                samples.push(ms(run.elapsed));
            }
            (samples.clone(), samples)
        }
        Front::Daemon { daemon, .. } => (
            ping_samples(daemon.port(), PING_SAMPLES, false)?,
            ping_samples(daemon.port(), PING_SAMPLES, true)?,
        ),
    };

    let mut totals = Totals::default();
    let mut per = PerJob::default();
    let mut problems = Vec::new();
    let mut failed = 0;
    for job in &jobs {
        match trace_job(job, sachi, &mut front, &mut tracer, &mut totals, &mut per) {
            Ok(()) => {}
            Err(e) => {
                failed += 1;
                problems.push(format!("job {}: {e}", job.index));
            }
        }
    }
    if let Front::Daemon { daemon, conn, pool } = front {
        drop(conn);
        pool.join();
        daemon.shutdown()?;
    }

    let ko = totals.knockout;
    let solve = ko.solve_ns as f64;
    let accounting = ko.accounting_ns();
    if solve > 0.0 && accounting / solve < MIN_ACCOUNTING_SHARE {
        failed += 1;
        problems.push(format!(
            "the knockout layers exceed machine time by {:.1}%",
            -100.0 * accounting / solve
        ));
    }
    let decisions = ko.decisions.max(1) as f64;
    let share = |ns: f64| if solve > 0.0 { ns / solve } else { 0.0 };
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let n = jobs.len();
    let compute = ko.compute_ns();
    let decide = ko.decide_ns();
    let writeback = ko.writeback_ns();
    let metrics = vec![
        Metric::new("workloads.build_ms", med(&per.build), "ms", n),
        Metric::new("serve.plan_ms", med(&per.plan_self), "ms", n),
        Metric::new("tuple.build_ms", med(&per.tuple_build), "ms", n),
        Metric::new("machine.solve_ms", med(&per.solve), "ms", n),
        Metric::new("machine.ns_per_update", solve / decisions, "ns", n),
        Metric::new(
            "designs.compute_ns_per_update",
            compute / decisions,
            "ns",
            n,
        ),
        Metric::new("anneal.decide_ns_per_update", decide / decisions, "ns", n),
        Metric::new(
            "tuple.writeback_ns_per_flip",
            writeback / ko.flips.max(1) as f64,
            "ns",
            n,
        ),
        Metric::new("machine.accounting_ms", med(&per.accounting), "ms", n),
        Metric::new("designs.compute.share", share(compute), "fraction", n),
        Metric::new("anneal.decide.share", share(decide), "fraction", n),
        Metric::new("tuple.writeback.share", share(writeback), "fraction", n),
        Metric::new("machine.accounting.share", share(accounting), "fraction", n),
        Metric::new(
            "tuple.build.share",
            share(ko.build_ns as f64),
            "fraction",
            n,
        ),
        Metric::new(
            "machine.updates_per_job",
            ko.decisions as f64 / n.max(1) as f64,
            "count",
            n,
        ),
        Metric::new(
            "anneal.flip_ratio",
            ratio(ko.flips, ko.decisions),
            "fraction",
            n,
        ),
        Metric::new(
            "anneal.uphill_accept_ratio",
            ratio(
                totals.uphill_accepted,
                totals.uphill_accepted + totals.uphill_rejected,
            ),
            "fraction",
            n,
        ),
        Metric::new(
            "tuple.copies_per_flip",
            ratio(totals.copies, ko.flips),
            "count",
            n,
        ),
        Metric::new("ensemble.reduce_us", med(&per.reduce_us), "us", n),
        Metric::new("ensemble.run_ms", med(&per.run), "ms", n),
        Metric::new(
            "tempering.swap_accept_ratio",
            ratio(totals.swap_accepted, totals.swap_attempts),
            "fraction",
            n,
        ),
        Metric::new("obs.export_us", med(&per.export_us), "us", n),
        Metric::new("cli.ping_ms", med(&ping), "ms", ping.len()),
        Metric::new(
            "cli.ping_fresh_ms",
            med(&ping_fresh),
            "ms",
            ping_fresh.len(),
        ),
        Metric::new("cli.overhead_ms", med(&per.overhead), "ms", n),
        Metric::new("trace.overhead_ratio", med(&per.trace_ratio), "ratio", n),
    ];

    let spans_path = std::env::current_exe()
        .map_err(|e| format!("cannot locate perf_e2e: {e}"))?
        .with_file_name(format!("perf_e2e-spans-{}.json", workload.name()));
    std::fs::write(&spans_path, tracer.to_json())
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    Ok(Outcome {
        metrics,
        attempted: n,
        failed,
        problems,
        notes: vec![format!("spans: {}", spans_path.display())],
    })
}

/// Traces one job into `totals` and `per`.
fn trace_job(
    job: &Job,
    sachi: &Path,
    front: &mut Front,
    tracer: &mut Tracer,
    totals: &mut Totals,
    per: &mut PerJob,
) -> Result<(), String> {
    let k = job.index;
    let spec = &job.spec;
    let root = tracer.open("job", k, None);
    let (problem, build_ns) = tracer.time("workloads.build", k, Some(root), || {
        build_cop_problem(spec.cop, spec.size, spec.seed)
    });
    let problem = problem.map_err(|e| format!("build: {e}"))?;
    let (plan, plan_ns) = tracer.time("serve.plan", k, Some(root), || JobPlan::from_spec(spec));
    let plan = plan.map_err(|e| format!("plan: {e}"))?;
    // The plan's self time subtracts a build timed under the same (warm)
    // conditions as the build inside the plan.
    let warm = Instant::now();
    black_box(
        build_cop_problem(spec.cop, spec.size, spec.seed).map_err(|e| format!("build: {e}"))?,
    );
    let warm_build_ns = warm.elapsed().as_nanos() as u64;
    let graph = plan.graph();
    let (init, options) = oracle::lower(spec, graph);
    let config = oracle::config(spec);
    let replicas = plan.replica_count();

    let ledger = ReplicaLedger::new(replicas);
    let calls = Mutex::new(Vec::new());
    let run_span = tracer.open("ensemble.run", k, Some(root));
    let run_start = Instant::now();
    let best = EnsembleRunner::new(replicas)
        .with_threads(1)
        .run(graph, &init, &options, |r| Probe {
            machine: SachiMachine::new(config.clone()),
            replica: r,
            ledger: &ledger,
            calls: &calls,
        });
    let run_ns = run_start.elapsed().as_nanos() as u64;
    tracer.close(run_span);
    let calls = calls.into_inner().expect("probes do not panic");
    for call in &calls {
        tracer.record("machine.solve", k, Some(run_span), call.start, call.end);
    }
    let replicas_copy = best.replicas.clone();
    let ((_, report), reduce_ns) = tracer.time("ensemble.reduce", k, Some(root), || {
        (black_box(BestOf::reduce(replicas_copy)), ledger.finish())
    });
    let outcome = JobOutcome {
        accuracy: (problem.accuracy)(&best.best().spins),
        best,
        report,
    };
    let (_, export_ns) = tracer.time("obs.export", k, Some(root), || {
        black_box(write_snapshot(&outcome.metrics(), &[]))
    });
    tracer.close(root);

    // The same job untraced, in-process and sequential.
    let (solo, solo_ns) = tracer.time("untraced.run_solo", k, None, || plan.run_solo());
    if solo.best != outcome.best {
        return Err("the traced ensemble disagrees with JobPlan::run_solo".to_string());
    }

    // Knockout replay of every machine call.
    let mut job_ko = Knockout::default();
    for call in &calls {
        let start = Instant::now();
        let ko = knockout(graph, &call.initial, &call.options, &config, &call.result)?;
        tracer.record("knockout", k, None, start, Instant::now());
        job_ko.add(&ko);
        totals.uphill_accepted += call.result.uphill_accepted;
        totals.uphill_rejected += call.result.uphill_rejected;
        totals.copies += call.report.spin_copy_updates;
    }
    totals.knockout.add(&job_ko);
    totals.swap_attempts += outcome.best.stats.swap_attempts;
    totals.swap_accepted += outcome.best.stats.swap_accepted;

    // The front end alone, and the same job in-process at the front
    // end's thread count, interleaved, each keeping its fastest reading.
    let front_start = Instant::now();
    let (mut frontend_ms, mut inprocess_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        let (f, i) = alone(job, sachi, front, &config)?;
        frontend_ms = frontend_ms.min(f);
        inprocess_ms = inprocess_ms.min(i);
    }
    tracer.record("frontend.alone", k, None, front_start, Instant::now());

    let ms_of = |ns: u64| ns as f64 / 1e6;
    per.build.push(ms_of(build_ns));
    per.plan_self.push(ms_of(plan_ns) - ms_of(warm_build_ns));
    per.tuple_build.push(ms_of(job_ko.build_ns));
    per.solve.push(ms_of(job_ko.solve_ns));
    per.accounting.push(job_ko.accounting_ns() / 1e6);
    per.run.push(ms_of(run_ns));
    per.reduce_us.push(reduce_ns as f64 / 1e3);
    per.export_us.push(export_ns as f64 / 1e3);
    per.overhead.push(frontend_ms - inprocess_ms);
    per.trace_ratio.push(run_ns as f64 / solo_ns.max(1) as f64);
    Ok(())
}

/// One job through the front end alone, then in-process at the front
/// end's thread count; returns both times in milliseconds.
fn alone(
    job: &Job,
    sachi: &Path,
    front: &mut Front,
    config: &SachiConfig,
) -> Result<(f64, f64), String> {
    let spec = &job.spec;
    match front {
        Front::OneShot => {
            let run = run_child(sachi, &job.solve_args())?;
            if !run.success {
                return Err("sachi solve exited non-zero".to_string());
            }
            let start = Instant::now();
            let plan = JobPlan::from_spec(spec).map_err(|e| format!("plan: {e}"))?;
            let (init, options) = oracle::lower(spec, plan.graph());
            let replicas = plan.replica_count();
            let ledger = ReplicaLedger::new(replicas);
            black_box(EnsembleRunner::new(replicas).with_threads(job.threads).run(
                plan.graph(),
                &init,
                &options,
                |r| ReportingMachine::new(SachiMachine::new(config.clone()), r, &ledger),
            ));
            black_box(ledger.finish());
            Ok((ms(run.elapsed), ms(start.elapsed())))
        }
        Front::Daemon { conn, pool, .. } => {
            let frame = frontend::encode_frame(&job.request_body());
            let start = Instant::now();
            let reply = conn
                .round_trip(&frame)
                .map_err(|e| format!("transport: {e}"))?;
            let frontend_ms = ms(start.elapsed());
            oracle::parse_reply(&reply)?;
            let start = Instant::now();
            let plan = JobPlan::from_spec(spec).map_err(|e| format!("plan: {e}"))?;
            pool.submit(plan).wait().map_err(|e| format!("pool: {e}"))?;
            Ok((frontend_ms, ms(start.elapsed())))
        }
    }
}
