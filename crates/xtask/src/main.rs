//! Workspace automation for the SACHI reproduction.
//!
//! Subcommands:
//!
//! ```text
//! cargo run -p xtask -- lint [--root <dir>] [--fix-allowlist]
//! ```
//!
//! runs all nine repo-specific static-analysis families — the six
//! classic lints (unit-safety, panic-freedom, fault-strict,
//! bench-registration, hot-path, hygiene — see [`lints`]) plus the
//! three analyze families (determinism, panic-reachability,
//! overflow-audit — see [`analyze`]) — over the workspace and exits
//! non-zero if any unsuppressed finding remains. Exceptions live in
//! `lint.allow.toml` at the workspace root; every entry needs a
//! one-line `reason`; stale entries, an entry count other than the
//! 59-entry budget, and scope paths that do not exist are themselves
//! errors.
//! `--fix-allowlist` rewrites `lint.allow.toml` with the stale entries
//! pruned (other findings still fail the run).
//!
//! ```text
//! cargo run -p xtask -- analyze [--root <dir>] [--json] [--budget-ms <n>]
//! ```
//!
//! runs just the three analyze families on the lexer/parser/call-graph
//! stack ([`lexer`], [`parser`], [`callgraph`]). Human-readable report
//! goes to stderr; `--json` writes a `sachi.analyze.v1` document to
//! stdout. `--budget-ms` turns the wall-clock budget into a hard gate
//! (ci.sh uses 5000). Exit is non-zero on findings or budget overrun.
//!
//! ```text
//! cargo run -p xtask -- validate-metrics [<file>]
//! cargo run -p xtask -- validate-analysis [<file>]
//! cargo run -p xtask -- validate-quality [<file>]
//! cargo run -p xtask -- validate-exposition [<file>]
//! ```
//!
//! validate a `sachi solve --metrics json` snapshot
//! (`sachi.metrics.v1`), an `analyze --json` document
//! (`sachi.analyze.v1`), a `disc_quality` report
//! (`sachi.quality.v1`, including three-families × four-designs
//! coverage), or a Prometheus text exposition (as served by
//! `sachi serve`'s `/metrics` endpoint and fetched by
//! `sachi submit --fetch-metrics`) from `<file>` or stdin — the CI
//! gates behind the schema smokes in `ci.sh`.
//!
//! No external dependencies: a small hand-rolled Rust lexer, item
//! parser, and call graph plus the workspace's own dependency-free
//! `sachi-obs` validator, works in offline builds.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod allowlist;
mod analyze;
mod callgraph;
mod lexer;
mod lints;
mod parser;
mod quality;
mod scan;

use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!("usage: cargo run -p xtask -- lint [--root <dir>] [--fix-allowlist]");
    eprintln!("       cargo run -p xtask -- analyze [--root <dir>] [--json] [--budget-ms <n>]");
    eprintln!("       cargo run -p xtask -- validate-metrics [<file>]    (stdin when no file)");
    eprintln!("       cargo run -p xtask -- validate-analysis [<file>]   (stdin when no file)");
    eprintln!("       cargo run -p xtask -- validate-quality [<file>]    (stdin when no file)");
    eprintln!("       cargo run -p xtask -- validate-exposition [<file>] (stdin when no file)");
    std::process::exit(2);
}

/// Workspace root: `--root` override, else the parent of this crate's
/// manifest directory (`crates/xtask` → repo root).
fn workspace_root(explicit: Option<PathBuf>) -> PathBuf {
    if let Some(root) = explicit {
        return root;
    }
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .expect("CARGO_MANIFEST_DIR is <root>/crates/xtask and has two parents")
}

fn run_lint(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut root_override = None;
    let mut fix_allowlist = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--root" => match args.next() {
                Some(dir) => root_override = Some(PathBuf::from(dir)),
                None => usage(),
            },
            "--fix-allowlist" => fix_allowlist = true,
            _ => usage(),
        }
    }

    let root = workspace_root(root_override);
    let (mut findings, entries, stale) = match lints::run_all(&root) {
        Ok(result) => result,
        Err(message) => {
            eprintln!("xtask lint: error: {message}");
            return ExitCode::FAILURE;
        }
    };

    if fix_allowlist && !stale.is_empty() {
        let allow_path = root.join("lint.allow.toml");
        let pruned = match std::fs::read_to_string(&allow_path) {
            Ok(text) => allowlist::remove_entries(&text, &entries, &stale),
            Err(e) => {
                eprintln!("xtask lint: error: read {}: {e}", allow_path.display());
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(&allow_path, pruned) {
            eprintln!("xtask lint: error: write {}: {e}", allow_path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "xtask lint: pruned {} stale allowlist entr{} from lint.allow.toml",
            stale.len(),
            if stale.len() == 1 { "y" } else { "ies" }
        );
        // The stale findings are resolved by the prune; everything else
        // still counts.
        findings.retain(|f| f.lint != "allowlist");
    }

    if findings.is_empty() {
        println!(
            "xtask lint: clean (unit-safety, panic-freedom, fault-strict, bench-registration, \
             hot-path, hygiene, determinism, panic-reachability, overflow-audit)"
        );
        return ExitCode::SUCCESS;
    }
    for finding in &findings {
        eprintln!("{finding}");
    }
    eprintln!(
        "\nxtask lint: {} finding(s). Fix them or add an audited entry to lint.allow.toml.",
        findings.len()
    );
    ExitCode::FAILURE
}

/// Runs the three analyze families standalone: human report on stderr,
/// optional `sachi.analyze.v1` JSON on stdout, optional hard wall-clock
/// budget. The allowlist applies with staleness scoped to the analyze
/// families only, so classic-lint entries do not read as stale here.
fn run_analyze(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut root_override = None;
    let mut json = false;
    let mut budget_ms: Option<u64> = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--root" => match args.next() {
                Some(dir) => root_override = Some(PathBuf::from(dir)),
                None => usage(),
            },
            "--json" => json = true,
            "--budget-ms" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => budget_ms = Some(n),
                None => usage(),
            },
            _ => usage(),
        }
    }

    let root = workspace_root(root_override);
    // Wall-clock here meters the *tool*, not the simulation — the
    // determinism contract constrains solver results, and this binary
    // produces none.
    let started = std::time::Instant::now();
    let analysis = match analyze::run(&root) {
        Ok(analysis) => analysis,
        Err(message) => {
            eprintln!("xtask analyze: error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let entries = match allowlist::load(&root) {
        Ok(entries) => entries,
        Err(message) => {
            eprintln!("xtask analyze: error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let mut findings = analysis.findings;
    allowlist::apply(&root, &entries, analyze::FAMILIES, &mut findings);
    findings
        .sort_by(|a, b| (a.lint, a.path.as_str(), a.line).cmp(&(b.lint, b.path.as_str(), b.line)));
    let elapsed_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);

    if json {
        print!(
            "{}",
            analyze::to_json(&findings, &analysis.stats, elapsed_ms)
        );
    }
    for finding in &findings {
        eprintln!("{finding}");
    }
    eprintln!(
        "xtask analyze: {} finding(s) across {} file(s), {} fn(s), {} entry point(s) in {elapsed_ms} ms",
        findings.len(),
        analysis.stats.files_scanned,
        analysis.stats.functions,
        analysis.stats.entry_points,
    );

    let mut failed = !findings.is_empty();
    if let Some(budget) = budget_ms {
        if elapsed_ms > budget {
            eprintln!(
                "xtask analyze: budget exceeded: {elapsed_ms} ms > {budget} ms — the analyzer \
                 must stay cheap enough to run on every CI invocation"
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Validates a metrics snapshot against the full `sachi solve` schema:
/// structure plus counter coverage of every subsystem
/// ([`sachi_obs::json::REQUIRED_COUNTER_PREFIXES`]).
fn run_validate_metrics(mut args: impl Iterator<Item = String>) -> ExitCode {
    let Some(text) = read_doc(args.next(), args.next(), "validate-metrics") else {
        return ExitCode::FAILURE;
    };
    match sachi_obs::json::validate_solve_snapshot(&text) {
        Ok(()) => {
            println!(
                "xtask validate-metrics: ok (sachi.metrics.v1, counters cover {})",
                sachi_obs::json::REQUIRED_COUNTER_PREFIXES
                    .map(|p| p.trim_end_matches('_'))
                    .join("/")
            );
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("xtask validate-metrics: invalid snapshot: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Validates an `analyze --json` document against `sachi.analyze.v1`.
fn run_validate_analysis(mut args: impl Iterator<Item = String>) -> ExitCode {
    let Some(text) = read_doc(args.next(), args.next(), "validate-analysis") else {
        return ExitCode::FAILURE;
    };
    match analyze::validate_analysis(&text) {
        Ok(()) => {
            println!("xtask validate-analysis: ok (sachi.analyze.v1)");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("xtask validate-analysis: invalid document: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Validates a `disc_quality` report against `sachi.quality.v1`,
/// including the three-families × four-designs coverage gate.
fn run_validate_quality(mut args: impl Iterator<Item = String>) -> ExitCode {
    let Some(text) = read_doc(args.next(), args.next(), "validate-quality") else {
        return ExitCode::FAILURE;
    };
    match quality::validate_quality(&text) {
        Ok(()) => {
            println!(
                "xtask validate-quality: ok (sachi.quality.v1, {} families x {} designs covered)",
                quality::REQUIRED_FAMILIES.len(),
                quality::REQUIRED_DESIGNS.len()
            );
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("xtask validate-quality: invalid document: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Validates a Prometheus text exposition (the `sachi serve` `/metrics`
/// output): HELP/TYPE preambles, name/label syntax, numeric samples.
fn run_validate_exposition(mut args: impl Iterator<Item = String>) -> ExitCode {
    let Some(text) = read_doc(args.next(), args.next(), "validate-exposition") else {
        return ExitCode::FAILURE;
    };
    match sachi_obs::prom::validate_exposition(&text) {
        Ok(()) => {
            let samples = text
                .lines()
                .filter(|l| !l.trim_start().starts_with('#') && !l.trim().is_empty())
                .count();
            println!("xtask validate-exposition: ok (prometheus text format, {samples} sample(s))");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("xtask validate-exposition: invalid exposition: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Reads the document for a validate subcommand from `<file>` or stdin.
/// `extra` must be `None` (one positional argument at most).
fn read_doc(source: Option<String>, extra: Option<String>, cmd: &str) -> Option<String> {
    if extra.is_some() {
        usage();
    }
    let text = match &source {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}")),
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map(|_| buf)
                .map_err(|e| format!("read stdin: {e}"))
        }
    };
    match text {
        Ok(text) => Some(text),
        Err(message) => {
            eprintln!("xtask {cmd}: error: {message}");
            None
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(subcommand) = args.next() else {
        usage()
    };
    match subcommand.as_str() {
        "lint" => run_lint(args),
        "analyze" => run_analyze(args),
        "validate-metrics" => run_validate_metrics(args),
        "validate-analysis" => run_validate_analysis(args),
        "validate-quality" => run_validate_quality(args),
        "validate-exposition" => run_validate_exposition(args),
        other => {
            eprintln!("unknown subcommand `{other}`");
            usage();
        }
    }
}
