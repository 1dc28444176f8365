//! Hand-rolled argument parsing for the `sachi` CLI (no external parser
//! dependency; the grammar is small and fully tested).
//!
//! The job flags (`--cop` … `--ladder`) have one parser,
//! [`job_flag`], shared by `solve`, `compare` and `submit`; every job
//! they build ends in [`JobSpec::validate`], the same check the daemon
//! runs, so a job the CLI accepts is a job the daemon accepts.

use sachi_core::config::DesignKind;
use sachi_core::error::SachiError;
use sachi_core::serve::JobSpec;
use sachi_ising::tempering::LadderKind;
use sachi_mem::cache::CacheHierarchy;
use sachi_workloads::spec::CopKind;
use std::str::FromStr;

/// Machine-readable metrics output format for `solve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Single JSON snapshot (`sachi.metrics.v1` schema) on stdout.
    Json,
    /// Prometheus text exposition format version 0.0.4.
    Prom,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `sachi solve ...` — functional solve with a full report.
    Solve(SolveArgs),
    /// `sachi compare ...` — run the solve job on every machine.
    Compare(SolveArgs),
    /// `sachi estimate ...` — analytic model at arbitrary scale.
    Estimate(EstimateArgs),
    /// `sachi serve ...` — run the multi-tenant solver daemon.
    Serve(ServeArgs),
    /// `sachi submit ...` — submit one request to a running daemon.
    Submit(SubmitArgs),
    /// `sachi info` — print the configured geometry and constants.
    Info,
    /// `sachi help` (or `-h`/`--help`).
    Help,
}

/// Arguments of `serve`. Every knob that bounds a resource rejects
/// zero at parse time: a zero-depth queue, zero-port bind, or
/// zero-millisecond timeout is always a misconfiguration that would
/// otherwise surface as a daemon that admits nothing (or binds an
/// ephemeral port nobody can find).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeArgs {
    /// TCP port to bind on 127.0.0.1.
    pub port: u16,
    /// Worker threads for the shared solver pool (0 = all cores).
    pub threads: usize,
    /// Bound on jobs admitted but not yet finished (backpressure).
    pub queue_depth: usize,
    /// Wall-clock admission deadline: a job still unstarted after this
    /// many milliseconds is revoked with the deadline-expired code.
    pub admission_timeout_ms: u64,
    /// Per-connection socket read and write timeout in milliseconds.
    pub io_timeout_ms: u64,
    /// Bound on concurrently served connections.
    pub max_conns: usize,
    /// Admission limit on a job's `step_budget`.
    pub max_step_budget: u64,
    /// Admission limit on a job's `size`.
    pub max_size: usize,
    /// Admission limit on a job's `restarts`.
    pub max_restarts: u64,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            port: 7861,
            threads: 0,
            queue_depth: 8,
            admission_timeout_ms: 10_000,
            io_timeout_ms: 10_000,
            max_conns: 64,
            max_step_budget: 100_000_000,
            max_size: 65_536,
            max_restarts: 256,
        }
    }
}

/// What a `submit` invocation asks the daemon to do. The op flags are
/// mutually exclusive with each other and with job flags.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOp {
    /// Submit a solve job (the default; built from the job flags).
    Solve(JobSpec),
    /// Liveness probe (`--ping`).
    Ping,
    /// Graceful drain (`--shutdown`).
    Shutdown,
    /// Fetch the Prometheus exposition over HTTP (`--fetch-metrics`).
    FetchMetrics,
    /// Send an arbitrary string as the frame body (`--raw`), for
    /// protocol testing: the daemon must answer with a typed error.
    Raw(String),
}

/// Arguments of `submit`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitArgs {
    /// Daemon address.
    pub addr: String,
    /// The request to send.
    pub op: SubmitOp,
}

impl Default for SubmitArgs {
    fn default() -> Self {
        SubmitArgs {
            addr: "127.0.0.1:7861".to_string(),
            op: SubmitOp::Solve(JobSpec::default()),
        }
    }
}

/// Arguments of `solve`/`compare`: the job, parsed exactly as `submit`
/// parses it, plus the settings only the one-shot CLI has, none of
/// which is a `JobSpec` or wire field.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveArgs {
    /// The job. With `file` set, `job.cop` and `job.size` are unused.
    pub job: JobSpec,
    /// DIMACS/Gset/CNF file to load instead of the generated COP.
    pub file: Option<String>,
    /// Treat `file` as Gset max-cut format.
    pub gset: bool,
    /// Treat `file` as DIMACS CNF (3-SAT clause-penalty encoding).
    pub cnf: bool,
    /// Worker threads for the replica ensemble (0 = all available
    /// cores). Thread count never changes results, only wall-clock.
    pub threads: usize,
    /// Cache hierarchy preset.
    pub hierarchy: CacheHierarchy,
    /// Machine-readable metrics output (replaces the human report).
    pub metrics: Option<MetricsFormat>,
    /// Record solve-phase spans and include them in the metrics output.
    pub trace_phases: bool,
}

impl Default for SolveArgs {
    fn default() -> Self {
        SolveArgs {
            job: JobSpec::default(),
            file: None,
            gset: false,
            cnf: false,
            threads: 0,
            hierarchy: CacheHierarchy::hpca_default(),
            metrics: None,
            trace_phases: false,
        }
    }
}

/// Arguments of `estimate`.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateArgs {
    /// COP whose Fig. 4 shape to use.
    pub cop: CopKind,
    /// Spin count.
    pub spins: u64,
    /// Stationarity design.
    pub design: DesignKind,
    /// IC resolution override.
    pub resolution: Option<u32>,
    /// Assumed iterations for whole-solve totals.
    pub iterations: u64,
    /// Cache hierarchy preset.
    pub hierarchy: CacheHierarchy,
}

impl Default for EstimateArgs {
    fn default() -> Self {
        EstimateArgs {
            cop: CopKind::MolecularDynamics,
            spins: 1_000_000,
            design: DesignKind::N3,
            resolution: None,
            iterations: 100,
            hierarchy: CacheHierarchy::hpca_default(),
        }
    }
}

fn err(msg: impl Into<String>) -> SachiError {
    SachiError::Usage(msg.into())
}

fn parse_hierarchy(s: &str) -> Result<CacheHierarchy, SachiError> {
    match s {
        "default" | "hpca" => Ok(CacheHierarchy::hpca_default()),
        "desktop" => Ok(CacheHierarchy::desktop()),
        "server" => Ok(CacheHierarchy::server()),
        other => Err(err(format!(
            "unknown hierarchy '{other}' (default|desktop|server)"
        ))),
    }
}

fn take_value<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<&'a str, SachiError> {
    it.next()
        .ok_or_else(|| err(format!("{flag} needs a value")))
}

/// The next value, parsed as `T`; `what` names the expected value in
/// the error.
fn value<'a, T: FromStr>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<T, SachiError> {
    take_value(flag, it)?
        .parse()
        .map_err(|_| err(format!("{flag} needs {what}")))
}

/// Applies one job flag to `spec`, taking its value from `it`. Returns
/// false when `flag` is not a job flag. The one parser of the job
/// flags for every subcommand.
fn job_flag<'a>(
    spec: &mut JobSpec,
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<bool, SachiError> {
    match flag {
        "--cop" => spec.cop = take_value(flag, it)?.parse().map_err(err)?,
        "--size" => spec.size = value(flag, it, "an integer")?,
        "--seed" => spec.seed = value(flag, it, "an integer")?,
        "--design" => spec.design = take_value(flag, it)?.parse().map_err(err)?,
        "--restarts" => spec.restarts = value(flag, it, "an integer")?,
        "--resolution" => spec.resolution = Some(value(flag, it, "an integer")?),
        "--step-budget" => spec.step_budget = Some(value(flag, it, "an integer")?),
        "--fault-ber" => spec.fault_ber = Some(value(flag, it, "a number in [0, 1]")?),
        "--fault-seed" => spec.fault_seed = value(flag, it, "an integer")?,
        "--fault-policy" => {
            spec.fault_policy = take_value(flag, it)?
                .parse()
                .map_err(|e: String| err(format!("--fault-policy: {e}")))?
        }
        "--tempering" => spec.tempering = true,
        "--ladder" => {
            spec.ladder = take_value(flag, it)?
                .parse()
                .map_err(|e: String| err(format!("--ladder: {e}")))?
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Finishes a job built from flags: the flag-level rule `--ladder`
/// needs `--tempering`, then the daemon's own [`JobSpec::validate`].
fn finish_job(spec: JobSpec) -> Result<JobSpec, SachiError> {
    if !spec.tempering && spec.ladder != LadderKind::Geometric {
        return Err(err("--ladder needs --tempering"));
    }
    spec.validate()?;
    Ok(spec)
}

fn parse_solve_args<'a>(mut it: impl Iterator<Item = &'a str>) -> Result<SolveArgs, SachiError> {
    let mut args = SolveArgs::default();
    let mut cop_given = false;
    while let Some(flag) = it.next() {
        if job_flag(&mut args.job, flag, &mut it)? {
            cop_given |= flag == "--cop";
            continue;
        }
        match flag {
            "--file" => args.file = Some(take_value(flag, &mut it)?.to_string()),
            "--gset" => args.gset = true,
            "--cnf" => args.cnf = true,
            "--threads" => args.threads = value(flag, &mut it, "an integer (0 = all cores)")?,
            "--hierarchy" => args.hierarchy = parse_hierarchy(take_value(flag, &mut it)?)?,
            "--metrics" => {
                args.metrics = Some(match take_value(flag, &mut it)? {
                    "json" => MetricsFormat::Json,
                    "prom" | "prometheus" => MetricsFormat::Prom,
                    other => {
                        return Err(err(format!("unknown metrics format '{other}' (json|prom)")))
                    }
                })
            }
            "--trace-phases" => args.trace_phases = true,
            other => return Err(err(format!("unknown flag '{other}' for solve/compare"))),
        }
    }
    if cop_given && args.file.is_some() {
        return Err(err("--cop and --file are mutually exclusive"));
    }
    if args.gset && args.cnf {
        return Err(err("--gset and --cnf are mutually exclusive"));
    }
    if (args.gset || args.cnf) && args.file.is_none() {
        return Err(err("--gset and --cnf need --file"));
    }
    args.job = finish_job(args.job)?;
    Ok(args)
}

/// The job flags `estimate` shares; the others have no meaning for an
/// analytic estimate.
const ESTIMATE_JOB_FLAGS: [&str; 3] = ["--cop", "--design", "--resolution"];

fn parse_estimate_args<'a>(
    mut it: impl Iterator<Item = &'a str>,
) -> Result<EstimateArgs, SachiError> {
    let mut args = EstimateArgs::default();
    let mut job = JobSpec::default();
    while let Some(flag) = it.next() {
        match flag {
            "--spins" => args.spins = nonzero(value(flag, &mut it, "an integer")?, flag)?,
            "--iterations" => args.iterations = nonzero(value(flag, &mut it, "an integer")?, flag)?,
            "--hierarchy" => args.hierarchy = parse_hierarchy(take_value(flag, &mut it)?)?,
            shared if ESTIMATE_JOB_FLAGS.contains(&shared) => {
                job_flag(&mut job, shared, &mut it)?;
            }
            other => return Err(err(format!("unknown flag '{other}' for estimate"))),
        }
    }
    job.validate()?;
    args.cop = job.cop;
    args.design = job.design;
    args.resolution = job.resolution;
    Ok(args)
}

fn nonzero<T: PartialEq + From<u8>>(value: T, flag: &str) -> Result<T, SachiError> {
    if value == T::from(0u8) {
        return Err(err(format!("{flag} must be at least 1")));
    }
    Ok(value)
}

fn parse_serve_args<'a>(mut it: impl Iterator<Item = &'a str>) -> Result<ServeArgs, SachiError> {
    let mut args = ServeArgs::default();
    while let Some(flag) = it.next() {
        let value = take_value(flag, &mut it)?;
        let bad = |what: &str| err(format!("{flag} needs {what}"));
        match flag {
            "--port" => {
                args.port = nonzero(value.parse().map_err(|_| bad("a port in 1..=65535"))?, flag)?
            }
            "--threads" => {
                args.threads = value
                    .parse()
                    .map_err(|_| bad("an integer (0 = all cores)"))?
            }
            "--queue-depth" => {
                args.queue_depth = nonzero(value.parse().map_err(|_| bad("an integer"))?, flag)?
            }
            "--admission-timeout-ms" => {
                args.admission_timeout_ms =
                    nonzero(value.parse().map_err(|_| bad("milliseconds"))?, flag)?
            }
            "--io-timeout-ms" => {
                args.io_timeout_ms = nonzero(value.parse().map_err(|_| bad("milliseconds"))?, flag)?
            }
            "--max-conns" => {
                args.max_conns = nonzero(value.parse().map_err(|_| bad("an integer"))?, flag)?
            }
            "--max-step-budget" => {
                args.max_step_budget = nonzero(value.parse().map_err(|_| bad("an integer"))?, flag)?
            }
            "--max-size" => {
                args.max_size = nonzero(value.parse().map_err(|_| bad("an integer"))?, flag)?
            }
            "--max-restarts" => {
                args.max_restarts = nonzero(value.parse().map_err(|_| bad("an integer"))?, flag)?
            }
            other => return Err(err(format!("unknown flag '{other}' for serve"))),
        }
    }
    Ok(args)
}

fn parse_submit_args<'a>(mut it: impl Iterator<Item = &'a str>) -> Result<SubmitArgs, SachiError> {
    let mut args = SubmitArgs::default();
    let mut spec = JobSpec::default();
    let mut op_flag: Option<&str> = None;
    let mut job_flag_seen: Option<&str> = None;
    fn set_op<'f>(current: &mut Option<&'f str>, flag: &'f str) -> Result<(), SachiError> {
        if let Some(prev) = current {
            return Err(err(format!("{prev} and {flag} are mutually exclusive")));
        }
        *current = Some(flag);
        Ok(())
    }
    while let Some(flag) = it.next() {
        if job_flag(&mut spec, flag, &mut it)? {
            job_flag_seen = Some(flag);
            continue;
        }
        match flag {
            "--addr" => args.addr = take_value(flag, &mut it)?.to_string(),
            "--ping" | "--shutdown" | "--fetch-metrics" => set_op(&mut op_flag, flag)?,
            "--raw" => {
                set_op(&mut op_flag, flag)?;
                args.op = SubmitOp::Raw(take_value(flag, &mut it)?.to_string());
            }
            other => return Err(err(format!("unknown flag '{other}' for submit"))),
        }
    }
    let op = match (op_flag, job_flag_seen) {
        (Some(op), Some(job)) => {
            return Err(err(format!(
                "{op} and job flag {job} are mutually exclusive"
            )))
        }
        (Some("--ping"), None) => SubmitOp::Ping,
        (Some("--shutdown"), None) => SubmitOp::Shutdown,
        (Some("--fetch-metrics"), None) => SubmitOp::FetchMetrics,
        (Some(_), None) => return Ok(args), // --raw already stored its payload
        (None, _) => SubmitOp::Solve(finish_job(spec)?),
    };
    Ok(SubmitArgs { op, ..args })
}

/// Parses a full command line (without the program name).
///
/// # Errors
///
/// [`SachiError::Usage`] with a user-facing message on any malformed
/// input; a job the daemon would refuse fails with the daemon's own
/// [`JobSpec::validate`] error.
pub fn parse<'a>(argv: impl IntoIterator<Item = &'a str>) -> Result<Command, SachiError> {
    let mut it = argv.into_iter();
    match it.next() {
        None | Some("help") | Some("-h") | Some("--help") => Ok(Command::Help),
        Some("info") => Ok(Command::Info),
        Some("solve") => Ok(Command::Solve(parse_solve_args(it)?)),
        Some("compare") => Ok(Command::Compare(parse_solve_args(it)?)),
        Some("estimate") => Ok(Command::Estimate(parse_estimate_args(it)?)),
        Some("serve") => Ok(Command::Serve(parse_serve_args(it)?)),
        Some("submit") => Ok(Command::Submit(parse_submit_args(it)?)),
        Some(other) => Err(err(format!(
            "unknown command '{other}' (solve|compare|estimate|serve|submit|info|help)"
        ))),
    }
}

/// The help text.
pub const USAGE: &str = "\
sachi — stationarity-aware, all-digital, near-memory Ising architecture simulator

USAGE:
  sachi solve    [job flags] [--file PATH [--gset|--cnf]] [--threads T]
                 [--hierarchy default|desktop|server]
                 [--metrics json|prom] [--trace-phases]
                 (--threads 0, the default, uses every core; restarts run
                  as a deterministic parallel replica ensemble — results
                  are identical at any thread count. --file loads a
                  DIMACS graph instead of the generated --cop instance
                  (--gset for Gset max-cut, --cnf for a DIMACS CNF 3-SAT
                  instance). --metrics replaces the human report with
                  one machine-readable snapshot on stdout — json is the
                  sachi.metrics.v1 schema, prom is Prometheus text
                  exposition; --trace-phases adds hierarchical
                  upload/round/h_compute/update/writeback/prefetch spans,
                  metered in solver cycles, to the snapshot.)
  sachi compare  <same flags>         run the solve job on every machine
                 (each SACHI design runs the job's replicas, coupled
                  with --tempering, on --threads workers and reports
                  its best replica; BRIM and Ising-CIM price the best
                  replica of the CPU golden model's ensemble)
  sachi estimate [--cop ...] [--spins N] [--design ...] [--resolution R]
                 [--iterations I] [--hierarchy ...]
  sachi serve    [--port P] [--threads T] [--queue-depth Q]
                 [--admission-timeout-ms MS] [--io-timeout-ms MS]
                 [--max-conns C] [--max-step-budget B] [--max-size N]
                 [--max-restarts K]
                 (multi-tenant solver daemon on 127.0.0.1:P speaking
                  length-prefixed JSON frames; replica ensembles from
                  different jobs share one deterministic worker pool, so
                  a job's result is byte-identical to the one-shot CLI
                  at any thread count and under any co-tenants. Jobs
                  over the admission limits, past the queue depth, or
                  past the admission deadline are rejected with typed
                  code-5 responses; GET /metrics on the same port serves
                  Prometheus text exposition. All bounds reject 0.)
  sachi submit   [--addr HOST:PORT] [job flags]
                 | --ping | --shutdown | --fetch-metrics | --raw BODY
                 (one request to a running daemon; a job prints the
                  report sachi solve prints for it; exits with the
                  daemon's response code — 0 ok, 2 usage/parse, 3 solve,
                  4 fault, 5 server rejection. Op flags are mutually
                  exclusive with each other and with job flags.)
  sachi info                          print geometry and technology constants
  sachi help

JOB FLAGS (one parser for solve, compare and submit; a job the CLI
accepts is a job the daemon accepts):
  --cop asset|imgseg|tsp|md|sat|coloring|sched   --size N   --seed S
  --design n1a|n1b|n2|n3   --restarts K   --resolution R (2..=32)
  --step-budget B   --fault-ber P   --fault-seed S
  --fault-policy failfast|retry|retry:N   --tempering [--ladder geometric|adaptive]
                 (sat/coloring/sched are the seeded Lucas-library
                  extension families: sat generates a critical-ratio
                  3-SAT instance over --size variables, coloring a
                  planted 3-colorable graph on --size vertices, sched a
                  --size-job schedule on 3 machines. --step-budget caps
                  total spin updates deterministically, in the work
                  domain. --fault-ber injects deterministic transient
                  bit flips at probability P per read bit;
                  parity-detected faults follow --fault-policy, retry:N
                  by default. --tempering couples the restarts as
                  replica-exchange parallel-tempering rungs on a
                  temperature ladder (--ladder picks the construction:
                  geometric spacing, or adaptive endpoints tuned from
                  the problem's coefficient statistics); swap decisions
                  come from a salted deterministic stream, so tempered
                  runs stay thread-count independent.)

EXAMPLES:
  sachi solve --cop md --size 1024 --design n3 --restarts 4
  sachi solve --cop md --size 1024 --restarts 16 --threads 8
  sachi solve --file g05.gset --gset --design n3
  sachi solve --cop sat --size 40 --restarts 8
  sachi solve --cop sat --size 40 --restarts 8 --tempering --ladder adaptive
  sachi solve --file data/example12.cnf --cnf --design n2
  sachi solve --cop md --size 1024 --fault-ber 1e-4 --fault-policy retry:5
  sachi solve --cop md --size 256 --metrics json --trace-phases
  sachi compare --cop imgseg --size 144
  sachi estimate --cop tsp --spins 1000000 --hierarchy server
  sachi serve --port 7861 --queue-depth 8 --max-step-budget 1000000
  sachi submit --cop sat --size 40 --restarts 8 --step-budget 60000
  sachi submit --ping
  sachi submit --fetch-metrics
  sachi submit --shutdown
";

#[cfg(test)]
mod tests {
    use super::*;
    use sachi_ising::recovery::RecoveryPolicy;

    /// The error message `line` fails to parse with.
    fn error_of(line: &str) -> String {
        parse(line.split_whitespace()).unwrap_err().to_string()
    }

    fn solve_args(line: &str) -> SolveArgs {
        match parse(line.split_whitespace()).unwrap() {
            Command::Solve(a) => a,
            other => panic!("wrong command {other:?}"),
        }
    }

    fn submitted_spec(line: &str) -> JobSpec {
        match parse(line.split_whitespace()).unwrap() {
            Command::Submit(SubmitArgs {
                op: SubmitOp::Solve(spec),
                ..
            }) => spec,
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_solve_with_all_flags() {
        let a = solve_args(
            "solve --cop tsp --size 64 --design n2 --resolution 8 --seed 9 --restarts 3 --threads 2 --hierarchy server",
        );
        assert_eq!(a.job.cop, CopKind::TravelingSalesman);
        assert_eq!(a.job.size, 64);
        assert_eq!(a.job.design, DesignKind::N2);
        assert_eq!(a.job.resolution, Some(8));
        assert_eq!(a.job.seed, 9);
        assert_eq!(a.job.restarts, 3);
        assert_eq!(a.threads, 2);
        assert_eq!(a.hierarchy, CacheHierarchy::server());
    }

    #[test]
    fn solve_and_submit_build_the_same_job_from_the_same_flags() {
        let flags = "--cop sat --size 40 --seed 9 --design n1b --restarts 8 --resolution 12 \
                     --step-budget 60000 --fault-ber 1e-4 --fault-seed 3 --fault-policy failfast \
                     --tempering --ladder adaptive";
        let solve = solve_args(&format!("solve {flags}")).job;
        assert_eq!(solve, submitted_spec(&format!("submit {flags}")));
        assert_eq!(
            solve,
            JobSpec {
                cop: CopKind::SatThree,
                size: 40,
                seed: 9,
                design: DesignKind::N1b,
                restarts: 8,
                resolution: Some(12),
                step_budget: Some(60_000),
                fault_ber: Some(1e-4),
                fault_seed: 3,
                fault_policy: RecoveryPolicy::FailFast,
                tempering: true,
                ladder: LadderKind::Adaptive,
            }
        );
    }

    #[test]
    fn every_job_flag_is_parsed_once_and_documented() {
        for (flag, value) in [
            ("--cop", Some("sat")),
            ("--size", Some("7")),
            ("--seed", Some("7")),
            ("--design", Some("n2")),
            ("--restarts", Some("7")),
            ("--resolution", Some("7")),
            ("--step-budget", Some("7")),
            ("--fault-ber", Some("0.5")),
            ("--fault-seed", Some("7")),
            ("--fault-policy", Some("failfast")),
            ("--tempering", None),
            ("--ladder", Some("adaptive")),
        ] {
            let mut spec = JobSpec::default();
            let mut it = value.into_iter();
            assert!(job_flag(&mut spec, flag, &mut it).unwrap(), "{flag}");
            assert_ne!(spec, JobSpec::default(), "{flag} changed nothing");
            assert!(USAGE.contains(flag), "USAGE lacks {flag}");
        }
        let mut spec = JobSpec::default();
        assert!(!job_flag(&mut spec, "--threads", &mut std::iter::empty::<&str>()).unwrap());
    }

    #[test]
    fn jobs_the_daemon_refuses_fail_at_parse_with_exit_code_2() {
        for line in [
            "solve --size 0",
            "solve --resolution 33",
            "solve --resolution 1",
            "solve --restarts 0",
            "compare --resolution 64",
            "submit --fault-ber 2.0",
            "submit --resolution 40",
            "estimate --resolution 33",
        ] {
            let e = parse(line.split_whitespace()).unwrap_err();
            assert_eq!(e.exit_code(), 2, "{line}: {e}");
        }
        assert!(error_of("solve --resolution 33").contains("2..=32"));
        assert!(parse("solve --resolution 32".split_whitespace()).is_ok());
        assert!(parse("solve --resolution 2".split_whitespace()).is_ok());
    }

    #[test]
    fn threads_defaults_to_auto_and_rejects_garbage() {
        assert_eq!(solve_args("solve").threads, 0);
        assert!(error_of("solve --threads lots").contains("--threads needs an integer"));
    }

    #[test]
    fn file_mode_keeps_the_default_cop_unused() {
        let a = solve_args("solve --file graph.txt --gset");
        assert_eq!(a.file.as_deref(), Some("graph.txt"));
        assert!(a.gset);
    }

    #[test]
    fn defaults_are_sane() {
        assert_eq!(solve_args("solve"), SolveArgs::default());
        assert_eq!(SolveArgs::default().job, JobSpec::default());
        assert_eq!(parse([] as [&str; 0]).unwrap(), Command::Help);
        assert_eq!(parse(["--help"]).unwrap(), Command::Help);
        assert_eq!(parse(["info"]).unwrap(), Command::Info);
    }

    #[test]
    fn estimate_flags() {
        match parse(
            "estimate --cop imgseg --spins 200000 --iterations 50 --resolution 8"
                .split_whitespace(),
        )
        .unwrap()
        {
            Command::Estimate(a) => {
                assert_eq!(a.cop, CopKind::ImageSegmentation);
                assert_eq!(a.spins, 200_000);
                assert_eq!(a.iterations, 50);
                assert_eq!(a.resolution, Some(8));
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(error_of("estimate --seed 3").contains("unknown flag"));
    }

    #[test]
    fn error_messages_are_actionable() {
        assert!(error_of("solve --cop sudoku").contains("unknown COP"));
        assert!(error_of("solve --design n9").contains("unknown design"));
        assert!(error_of("solve --size").contains("needs a value"));
        assert!(error_of("solve --size many").contains("integer"));
        assert!(error_of("solve --restarts 0").contains("at least 1"));
        assert!(error_of("launch").contains("unknown command"));
        assert!(error_of("solve --hierarchy mainframe").contains("unknown hierarchy"));
        assert!(error_of("estimate --wat").contains("unknown flag"));
        assert!(error_of("solve --file g.txt --cop md").contains("mutually exclusive"));
        assert!(error_of("solve --cop md --file g.txt").contains("mutually exclusive"));
    }

    #[test]
    fn fault_flags_parse_and_validate() {
        let a = solve_args("solve --fault-ber 1e-4 --fault-seed 42 --fault-policy retry:5");
        assert_eq!(a.job.fault_ber, Some(1e-4));
        assert_eq!(a.job.fault_seed, 42);
        assert_eq!(
            a.job.fault_policy,
            RecoveryPolicy::RefetchRetry { max_retries: 5 }
        );
        let a = solve_args("solve --fault-policy failfast");
        assert_eq!(a.job.fault_ber, None);
        assert_eq!(a.job.fault_policy, RecoveryPolicy::FailFast);
        assert!(error_of("solve --fault-ber 2.0").contains("[0, 1]"));
        assert!(error_of("solve --fault-ber often").contains("[0, 1]"));
        assert!(error_of("solve --fault-policy hope").contains("--fault-policy"));
    }

    #[test]
    fn metrics_flags_parse_and_validate() {
        let a = solve_args("solve --metrics json --trace-phases");
        assert_eq!(a.metrics, Some(MetricsFormat::Json));
        assert!(a.trace_phases);
        assert_eq!(
            solve_args("solve --metrics prometheus").metrics,
            Some(MetricsFormat::Prom)
        );
        let a = solve_args("solve");
        assert_eq!(a.metrics, None);
        assert!(!a.trace_phases);
        assert!(error_of("solve --metrics xml").contains("json|prom"));
        assert!(error_of("solve --metrics").contains("needs a value"));
    }

    #[test]
    fn tempering_flags_parse_and_validate() {
        let a = solve_args("solve --tempering --ladder adaptive --restarts 4");
        assert!(a.job.tempering);
        assert_eq!(a.job.ladder, LadderKind::Adaptive);
        let a = solve_args("solve --tempering");
        assert!(a.job.tempering);
        assert_eq!(a.job.ladder, LadderKind::Geometric);
        assert!(error_of("solve --ladder adaptive").contains("--ladder needs --tempering"));
        assert!(error_of("solve --tempering --ladder steep").contains("unknown ladder"));
        let spec = submitted_spec("submit --tempering --ladder adaptive --restarts 4");
        assert!(spec.tempering);
        assert_eq!(spec.ladder, LadderKind::Adaptive);
        assert!(error_of("submit --ladder adaptive").contains("--ladder needs --tempering"));
        assert!(error_of("submit --tempering --ping").contains("mutually exclusive"));
    }

    #[test]
    fn file_format_flag_rules() {
        assert!(parse("solve --cnf".split_whitespace()).is_err());
        assert!(parse("solve --gset".split_whitespace()).is_err());
        assert!(parse("solve --file x.cnf --cnf --gset".split_whitespace()).is_err());
        let a = solve_args("solve --file x.cnf --cnf");
        assert!(a.cnf);
        assert_eq!(a.file.as_deref(), Some("x.cnf"));
    }

    #[test]
    fn step_budget_parses_and_rejects_zero() {
        assert_eq!(
            solve_args("solve --step-budget 60000").job.step_budget,
            Some(60_000)
        );
        assert!(error_of("solve --step-budget 0").contains("step_budget must be at least 1"));
        assert!(error_of("submit --step-budget 0").contains("step_budget must be at least 1"));
    }

    #[test]
    fn serve_defaults_and_flags() {
        assert_eq!(
            parse(["serve"]).unwrap(),
            Command::Serve(ServeArgs::default())
        );
        match parse(
            "serve --port 9000 --threads 2 --queue-depth 3 --admission-timeout-ms 500 \
             --io-timeout-ms 700 --max-conns 5 --max-step-budget 1000 --max-size 64 \
             --max-restarts 4"
                .split_whitespace(),
        )
        .unwrap()
        {
            Command::Serve(a) => {
                assert_eq!(a.port, 9000);
                assert_eq!(a.threads, 2);
                assert_eq!(a.queue_depth, 3);
                assert_eq!(a.admission_timeout_ms, 500);
                assert_eq!(a.io_timeout_ms, 700);
                assert_eq!(a.max_conns, 5);
                assert_eq!(a.max_step_budget, 1_000);
                assert_eq!(a.max_size, 64);
                assert_eq!(a.max_restarts, 4);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(["serve", "--wat", "1"]).is_err());
    }

    #[test]
    fn serve_rejects_every_zero_bound() {
        // A zero queue depth, port, timeout, or limit is a usage error
        // at parse time, never a daemon that silently admits nothing.
        for flag in [
            "--port",
            "--queue-depth",
            "--admission-timeout-ms",
            "--io-timeout-ms",
            "--max-conns",
            "--max-step-budget",
            "--max-size",
            "--max-restarts",
        ] {
            let e = parse(["serve", flag, "0"]).unwrap_err().to_string();
            assert!(e.contains("at least 1"), "{flag}: {e}");
        }
        // --threads 0 stays legal: it means "all cores".
        assert!(parse(["serve", "--threads", "0"]).is_ok());
    }

    #[test]
    fn submit_builds_job_specs_and_ops() {
        match parse(
            "submit --addr 127.0.0.1:9000 --cop sat --size 40 --seed 9 --restarts 8 \
             --step-budget 60000 --fault-ber 1e-4 --fault-policy failfast"
                .split_whitespace(),
        )
        .unwrap()
        {
            Command::Submit(a) => {
                assert_eq!(a.addr, "127.0.0.1:9000");
                match a.op {
                    SubmitOp::Solve(spec) => {
                        assert_eq!(spec.cop, CopKind::SatThree);
                        assert_eq!(spec.size, 40);
                        assert_eq!(spec.seed, 9);
                        assert_eq!(spec.restarts, 8);
                        assert_eq!(spec.step_budget, Some(60_000));
                        assert_eq!(spec.fault_ber, Some(1e-4));
                        assert_eq!(spec.fault_policy, RecoveryPolicy::FailFast);
                    }
                    other => panic!("wrong op {other:?}"),
                }
            }
            other => panic!("wrong command {other:?}"),
        }
        assert_eq!(
            parse(["submit", "--ping"]).unwrap(),
            Command::Submit(SubmitArgs {
                op: SubmitOp::Ping,
                ..SubmitArgs::default()
            })
        );
        match parse(["submit", "--raw", "not json"]).unwrap() {
            Command::Submit(a) => assert_eq!(a.op, SubmitOp::Raw("not json".to_string())),
            other => panic!("wrong command {other:?}"),
        }
        assert_eq!(submitted_spec("submit"), JobSpec::default());
    }

    #[test]
    fn submit_op_flags_are_mutually_exclusive() {
        assert!(error_of("submit --ping --shutdown").contains("mutually exclusive"));
        assert!(error_of("submit --fetch-metrics --raw x").contains("mutually exclusive"));
        assert!(error_of("submit --ping --cop md").contains("mutually exclusive"));
        assert!(error_of("submit --size 8 --shutdown").contains("mutually exclusive"));
        assert!(error_of("submit --restarts 0").contains("at least 1"));
    }
}
