//! The untraced run of one workload: set-up time, the measured closed
//! loop, peak memory, and the correctness oracle on sampled jobs.

use crate::canary::{corrected, read_slowest, Canary};
use crate::frontend::{child_peak_rss_mb, encode_frame, ms, run_child, Conn, Daemon};
use crate::jobs::{FrontEnd, Job, Workload, DAEMON_QUEUE_DEPTH, DAEMON_THREADS};
use crate::oracle::{self, Reported};
use crate::stats::{mean, median, tail_percentile};
use crate::{Metric, Outcome};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

/// Set-up launches per run; `setup_s` is their median.
const SETUP_LAUNCHES: usize = 9;

/// Every this-many-th job of the first pass is checked by the oracle.
const ORACLE_STRIDE: usize = 10;

/// One job as its client saw it.
struct Sample {
    job: usize,
    /// Raw wall time of the job.
    latency_ms: f64,
    /// The canary reading taken right before the job.
    canary_ms: f64,
    /// The share of the job's wall time that was CPU-bound.
    cpu_share: f64,
    /// The reply or stdout, or why there is none.
    output: Result<String, String>,
}

/// Runs `workload` for at least one pass and until `seconds` have
/// passed, then checks the results.
///
/// # Errors
///
/// Set-up failures (the daemon never started, a set-up launch failed).
pub fn run(
    workload: Workload,
    sachi: &Path,
    master: u64,
    seconds: f64,
    smoke: bool,
) -> Result<Outcome, String> {
    let jobs: Vec<Job> = (0..workload.job_count(smoke))
        .map(|k| workload.job(master, k))
        .collect();
    let first = jobs.first().ok_or("empty workload")?;
    let mut canary = Canary::new();
    let mut setup = Vec::with_capacity(SETUP_LAUNCHES);
    let (samples, passes, wall_s, peak_rss_mb) = match workload.front_end() {
        FrontEnd::OneShot => {
            // Time to the first sweep: the first job's spec with a
            // one-sweep budget.
            let mut probe = first.solve_args();
            probe.extend(["--step-budget".to_string(), "1".to_string()]);
            for _ in 0..SETUP_LAUNCHES {
                let canary_ms = canary.read_ms();
                let launch = run_child(sachi, &probe)?;
                if !launch.success {
                    return Err(format!("set-up launch `sachi {}` failed", probe.join(" ")));
                }
                setup.push(corrected(ms(launch.elapsed), canary_ms, 1.0) / 1e3);
            }
            let args: Vec<Vec<String>> = jobs.iter().map(Job::solve_args).collect();
            // One canary per ensemble thread of the job.
            let mut canaries: Vec<Canary> = (0..first.threads).map(|_| Canary::new()).collect();
            let (samples, passes, wall_s) = measured(seconds, || {
                args.iter()
                    .enumerate()
                    .map(|(k, a)| {
                        let canary_ms = read_slowest(&mut canaries);
                        let (latency_ms, output) = match run_child(sachi, a) {
                            Ok(run) if run.success => (ms(run.elapsed), Ok(run.stdout)),
                            Ok(run) => (
                                ms(run.elapsed),
                                Err("sachi solve exited non-zero".to_string()),
                            ),
                            Err(e) => (f64::NAN, Err(e)),
                        };
                        // A one-shot job computes from spawn to exit.
                        Sample {
                            job: k,
                            latency_ms,
                            canary_ms,
                            cpu_share: 1.0,
                            output,
                        }
                    })
                    .collect()
            });
            let rss = child_peak_rss_mb(sachi, &first.solve_args())?;
            (samples, passes, wall_s, rss)
        }
        FrontEnd::Daemon => {
            for _ in 0..SETUP_LAUNCHES {
                let canary_ms = canary.read_ms();
                let (daemon, took) = Daemon::start(sachi, DAEMON_THREADS, DAEMON_QUEUE_DEPTH)?;
                setup.push(corrected(ms(took), canary_ms, 1.0) / 1e3);
                daemon.shutdown()?;
            }
            let (daemon, _) = Daemon::start(sachi, DAEMON_THREADS, DAEMON_QUEUE_DEPTH)?;
            let mut conns = (0..workload.clients())
                .map(|_| Conn::connect(daemon.port()).map_err(|e| format!("connect: {e}")))
                .collect::<Result<Vec<Conn>, String>>()?;
            let frames: Vec<Vec<u8>> = jobs
                .iter()
                .map(|j| encode_frame(&j.request_body()))
                .collect();
            // The CPU-bound share of a pass: the daemon's CPU time over
            // the jobs' summed wall time (delayed-ACK waits are not CPU).
            let (samples, passes, wall_s) = measured(seconds, || {
                let before = daemon.cpu_seconds();
                let mut samples = daemon_pass(&mut conns, &frames);
                let busy_ms: f64 = samples
                    .iter()
                    .map(|s| s.latency_ms)
                    .filter(|l| l.is_finite())
                    .sum();
                let share = match (before, daemon.cpu_seconds()) {
                    (Some(b), Some(a)) if busy_ms > 0.0 => (a - b) * 1e3 / busy_ms,
                    _ => 1.0,
                };
                for s in &mut samples {
                    s.cpu_share = share;
                }
                samples
            });
            drop(conns);
            let rss = daemon.peak_rss_mb()?;
            daemon.shutdown()?;
            (samples, passes, wall_s, rss)
        }
    };

    let mut problems = Vec::new();
    let mut failed_samples = BTreeSet::new();
    let mut first_pass: BTreeMap<usize, Reported> = BTreeMap::new();
    let mut latencies = Vec::new();
    let mut raw = Vec::new();
    let mut cycles = Vec::new();
    let mut accuracy = Vec::new();
    for (i, sample) in samples.iter().enumerate() {
        let parsed = sample
            .output
            .as_ref()
            .map_err(String::clone)
            .and_then(|out| match workload.front_end() {
                FrontEnd::OneShot => oracle::parse_report(out),
                FrontEnd::Daemon => oracle::parse_reply(out),
            });
        let reported = match parsed {
            Ok(r) => r,
            Err(e) => {
                problems.push(format!("job {}: {e}", sample.job));
                failed_samples.insert(i);
                continue;
            }
        };
        latencies.push(corrected(
            sample.latency_ms,
            sample.canary_ms,
            sample.cpu_share,
        ));
        raw.push(sample.latency_ms);
        cycles.push(reported.total_cycles as f64);
        accuracy.extend(reported.accuracy.value());
        // Later passes must reproduce the first pass exactly.
        match first_pass.get(&sample.job) {
            Some(earlier) if *earlier != reported => {
                problems.push(format!(
                    "job {}: a later pass reported different results",
                    sample.job
                ));
                failed_samples.insert(i);
            }
            Some(_) => {}
            None => {
                first_pass.insert(sample.job, reported);
            }
        }
    }

    // The oracle, outside the timed window. The first pass fills sample
    // indices 0..n in job order, so a job index is its sample index.
    for (k, reported) in first_pass.iter().filter(|(k, _)| *k % ORACLE_STRIDE == 0) {
        let job = &jobs[*k];
        let total_flips = match workload.front_end() {
            FrontEnd::OneShot => match snapshot_flips(sachi, job) {
                Ok(flips) => Some(flips),
                Err(e) => {
                    problems.push(format!("job {k}: {e}"));
                    failed_samples.insert(*k);
                    continue;
                }
            },
            FrontEnd::Daemon => None,
        };
        let bad = oracle::check(job, reported, total_flips);
        if !bad.is_empty() {
            failed_samples.insert(*k);
            problems.extend(bad);
        }
    }

    let attempted = samples.len();
    let failed = failed_samples.len();
    let n = latencies.len();
    let mut metrics = Vec::new();
    // Closed-loop throughput by Little's law: clients over the mean
    // (corrected) job time; the canary between a client's jobs is not
    // part of it.
    if let Some(mean_ms) = mean(&latencies) {
        metrics.push(Metric::new(
            "jobs_per_s",
            workload.clients() as f64 * 1e3 / mean_ms,
            "jobs/s",
            n,
        ));
    }
    if let Some(p50) = median(&latencies) {
        metrics.push(Metric::new("job_p50_ms", p50, "ms", n));
    }
    // Absent when fewer than ten samples lie beyond it (`--smoke`).
    if let Some(p90) = tail_percentile(&latencies, 0.9) {
        metrics.push(Metric::new("job_p90_ms", p90, "ms", n));
    }
    if let Some(s) = median(&setup) {
        metrics.push(Metric::new("setup_s", s, "s", setup.len()));
    }
    metrics.push(Metric::new("peak_rss_mb", peak_rss_mb, "MB", 1));
    if let Some(c) = mean(&cycles) {
        metrics.push(Metric::new("sim_cycles_per_job", c, "cycles", cycles.len()));
    }
    if let Some(a) = mean(&accuracy) {
        metrics.push(Metric::new("accuracy_mean", a, "fraction", accuracy.len()));
    }
    let canaries: Vec<f64> = samples.iter().map(|s| s.canary_ms).collect();
    let shares: Vec<f64> = samples.iter().map(|s| s.cpu_share.min(1.0)).collect();
    let notes = vec![
        format!("passes: {passes} in {wall_s:.1} s"),
        format!(
            "raw (uncorrected): {:.2} jobs/s completed over the wall time, job p50 {:.3} ms; \
             canary median {:.3} ms (reference {} ms), CPU-bound share {:.2}",
            (attempted - failed) as f64 / wall_s,
            median(&raw).unwrap_or(f64::NAN),
            median(&canaries).unwrap_or(f64::NAN),
            crate::canary::REFERENCE_MS,
            mean(&shares).unwrap_or(f64::NAN)
        ),
    ];
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        problems,
        notes,
    })
}

/// The `solver_flips` total of `job` run again with `--metrics json`
/// (the human report does not print flips).
fn snapshot_flips(sachi: &Path, job: &Job) -> Result<u64, String> {
    let mut args = job.solve_args();
    args.extend(["--metrics".to_string(), "json".to_string()]);
    let run = run_child(sachi, &args)?;
    if !run.success {
        return Err("sachi solve --metrics json exited non-zero".to_string());
    }
    oracle::snapshot_flips(&run.stdout)
}

/// Runs whole passes until `seconds` have passed (at least one);
/// returns the samples, the pass count and the wall time in seconds.
fn measured(seconds: f64, mut pass: impl FnMut() -> Vec<Sample>) -> (Vec<Sample>, usize, f64) {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut passes = 0;
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        samples.extend(pass());
        passes += 1;
    }
    (samples, passes, start.elapsed().as_secs_f64())
}

/// One pass over the daemon's job list: each connection is a closed-loop
/// client that takes the next job only after its previous reply. A
/// connection that fails stops; jobs no connection reached fail too.
fn daemon_pass(conns: &mut [Conn], frames: &[Vec<u8>]) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let next = &next;
    let mut samples: Vec<Sample> = thread::scope(|scope| {
        let clients: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                scope.spawn(move || {
                    let mut canary = Canary::new();
                    let mut local = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(frame) = frames.get(k) else { break };
                        let canary_ms = canary.read_ms();
                        let start = Instant::now();
                        let reply = conn.round_trip(frame);
                        let latency_ms = ms(start.elapsed());
                        let broken = reply.is_err();
                        local.push(Sample {
                            job: k,
                            latency_ms,
                            canary_ms,
                            cpu_share: 1.0,
                            output: reply.map_err(|e| format!("transport: {e}")),
                        });
                        if broken {
                            break;
                        }
                    }
                    local
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client threads do not panic"))
            .collect()
    });
    for k in next.load(Ordering::Relaxed).min(frames.len())..frames.len() {
        samples.push(Sample {
            job: k,
            latency_ms: f64::NAN,
            canary_ms: f64::NAN,
            cpu_share: 1.0,
            output: Err("not sent: every connection failed".to_string()),
        });
    }
    samples.sort_by_key(|s| s.job);
    samples
}
