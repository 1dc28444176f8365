//! `perf_e2e` — end-to-end wall-clock benchmark of `sachi solve` and
//! `sachi serve`, with an outside-in per-layer trace.
//!
//! ```text
//! perf_e2e run   [--workload W]... [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//! perf_e2e trace [--workload W]... [--seed S] [--smoke]
//! ```
//!
//! `run` measures each workload untraced and prints its end-to-end
//! metrics; `trace` (or `run --trace 1`) replays the first jobs of each
//! workload in-process and prints the per-layer metrics. Each workload
//! ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. The exit code is 0 only when every job was correct.
//! README.md next to this package describes the workloads and metrics.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod canary;
mod frontend;
mod jobs;
mod measure;
mod oracle;
mod replay;
mod stats;
mod trace;

use jobs::Workload;
use std::process::ExitCode;

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What a run or a trace produced for one workload.
pub struct Outcome {
    /// The metrics, in `BENCHMARK.json` order.
    metrics: Vec<Metric>,
    /// Jobs attempted.
    attempted: usize,
    /// Jobs that failed: error replies, non-zero exits, unreadable
    /// output, oracle or replay mismatches.
    failed: usize,
    /// One line per failure.
    problems: Vec<String>,
    /// Context printed above the table.
    notes: Vec<String>,
}

/// Parsed command line.
struct Args {
    trace: bool,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    smoke: bool,
}

const USAGE: &str =
    "usage: perf_e2e run|trace [--workload W]... [--seed S] [--seconds T] [--trace 0|1] [--smoke]
workloads: oneshot-lattice oneshot-dense serve-small serve-tempering (default: all)";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let mut args = Args {
        trace: match it.next().map(String::as_str) {
            Some("run") => false,
            Some("trace") => true,
            other => return Err(format!("unknown mode {other:?}")),
        },
        workloads: Vec::new(),
        seed: 0,
        seconds: 0.0,
        smoke: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads.push(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = Workload::ALL.to_vec();
    }
    Ok(args)
}

/// Prints the notes, the metric table and the result line of one
/// workload.
fn report(outcome: &Outcome) {
    for note in &outcome.notes {
        println!("{note}");
    }
    let mut table = sachi_bench::Table::new(["metric", "value", "unit", "samples"]);
    for m in &outcome.metrics {
        table.row([
            m.name.to_string(),
            format!("{:.6}", m.value),
            m.unit.to_string(),
            m.samples.to_string(),
        ]);
    }
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    table.row([
        "failed_ratio".to_string(),
        format!("{failed_ratio:.6}"),
        "fraction".to_string(),
        outcome.attempted.to_string(),
    ]);
    table.print();
    for p in &outcome.problems {
        eprintln!("FAILED: {p}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a metric that is not a number
            // reads null (only a failed run can produce one).
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let sachi = match frontend::locate_sachi() {
        Ok(path) => path,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut all_correct = true;
    for workload in &args.workloads {
        let w = *workload;
        let mode = if args.trace { "trace" } else { "run" };
        println!(
            "== {} {mode} (seed {}, {} jobs per pass, {} client(s), {cores} cores{}) ==",
            w.name(),
            args.seed,
            w.job_count(args.smoke),
            w.clients(),
            if args.smoke { ", smoke" } else { "" }
        );
        let result = if args.trace {
            trace::run(w, &sachi, args.seed, args.smoke)
        } else {
            measure::run(w, &sachi, args.seed, args.seconds, args.smoke)
        };
        match result {
            Ok(outcome) => {
                report(&outcome);
                all_correct &= outcome.failed == 0;
            }
            Err(e) => {
                eprintln!("error: {}: {e}", w.name());
                return ExitCode::from(2);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
