//! The six repo-specific lints and the driver that runs them.
//!
//! | lint | what it enforces |
//! |------|------------------|
//! | `unit-safety` | no raw numeric `as` casts in memory-model and energy/cycle accounting code — arithmetic goes through the `units.rs` newtypes |
//! | `panic-freedom` | no `.unwrap()` / `panic!` in library code of `sachi-core`, `sachi-mem`, `sachi-ising` and the reference models of `sachi-bench` (`.expect("invariant …")` is the sanctioned escape hatch) |
//! | `fault-strict` | the fault-injection and recovery modules may not even `.expect(…)` — fault handling code must never be a panic source itself |
//! | `bench-registration` | every `fig*` / `abl_*` / `disc_*` / `perf_*` bench binary has a `fn main`, is declared in `crates/bench/src/lib.rs`, and is referenced in `EXPERIMENTS.md` |
//! | `hot-path` | no heap allocation (`vec!`, `.collect(…)`, `.to_vec(…)`, `Vec::…`, `.resize(…)`) and no metrics/span instrumentation (`counter_add`, `.observe`, `MetricsRegistry`, …) inside `compute_*` / `upload_*` / `writeback_*` kernel bodies and the annealer decision (`decide_update`, `accept*`, `probability*`) — the per-sweep hot path runs on caller-provided scratch buffers and is metered by post-sweep harvest, never inline |
//! | `hygiene` | `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]` stay present in every crate root |
//!
//! Findings are suppressed by matching [`crate::allowlist`] entries; a
//! stale (unused) allowlist entry is itself reported, so the committed
//! exception list can never silently outlive the code it excuses.

use crate::allowlist::{self, AllowEntry};
use crate::scan::scan_lines;
use std::path::{Path, PathBuf};

/// The six classic lint families (used with [`crate::analyze::FAMILIES`]
/// to scope allowlist staleness to the families actually run).
pub const CLASSIC_FAMILIES: &[&str] = &[
    "unit-safety",
    "panic-freedom",
    "fault-strict",
    "bench-registration",
    "hot-path",
    "hygiene",
];

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Lint that fired (`unit-safety`, `panic-freedom`, …).
    pub lint: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Explanation shown to the developer.
    pub message: String,
    /// Original source line (empty for whole-file findings). Allowlist
    /// `contains` patterns match against this.
    pub raw: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "[{}] {}: {}", self.lint, self.path, self.message)
        } else {
            write!(
                f,
                "[{}] {}:{}: {}",
                self.lint, self.path, self.line, self.message
            )?;
            if !self.raw.trim().is_empty() {
                write!(f, "\n    {}", self.raw.trim())?;
            }
            Ok(())
        }
    }
}

/// Files whose energy/cycle arithmetic must go through the `units.rs`
/// newtypes. All of `sachi-mem`, plus the accounting paths of
/// `sachi-core` (round plan, closed-form model, functional machine,
/// per-design schedules, replica-ensemble folding), and the bit-level
/// tile and scalar design oracles those are proven against.
const UNIT_SAFETY_SCOPE: &[&str] = &[
    "crates/mem/src",
    "crates/core/src/rounds.rs",
    "crates/core/src/perf.rs",
    "crates/core/src/machine.rs",
    "crates/core/src/designs.rs",
    "crates/core/src/ensemble.rs",
    "crates/bench/src/reference/bitcell.rs",
    "crates/bench/src/reference/designs.rs",
];

/// Library crates that must not panic on library paths, plus the
/// `sachi serve` daemon modules: a panic there takes down every
/// co-tenant, so the daemon side is held to library standards. The
/// paper's reference models in the harness crate keep the standard of
/// the crates they moved out of.
const PANIC_FREEDOM_SCOPE: &[&str] = &[
    "crates/core/src",
    "crates/mem/src",
    "crates/ising/src",
    "crates/bench/src/reference",
    "crates/cli/src/serve.rs",
    "crates/cli/src/clock.rs",
];

/// Fault-handling modules held to the stricter no-`expect` standard:
/// code that models failures must not introduce its own abort paths.
/// The serve wire-protocol decoder joins them — every byte it touches
/// arrives from an untrusted client, so even an "impossible" `expect`
/// is a remotely reachable abort.
const FAULT_STRICT_SCOPE: &[&str] = &[
    "crates/mem/src/fault.rs",
    "crates/ising/src/recovery.rs",
    "crates/cli/src/protocol.rs",
];

/// Files whose `compute_*` / `upload_*` / `writeback_*` function bodies
/// are the per-sweep hot path: the designs' tuple kernels and spin-row
/// upload/writeback helpers, the SoA tuple-plane writeback, and the SRAM
/// tile — plus the per-update annealer decision (`decide_update`,
/// `accept*`, `probability*`). Allocation there is an N·R-per-sweep tax
/// the production SoA kernel must not pay. The scalar design oracles and
/// the bit-level tile they pulse stay in scope; their allocations are
/// excused by audited `lint.allow.toml` entries.
const HOT_PATH_SCOPE: &[&str] = &[
    "crates/core/src/designs.rs",
    "crates/core/src/tuple.rs",
    "crates/mem/src/sram.rs",
    "crates/bench/src/reference/bitcell.rs",
    "crates/bench/src/reference/designs.rs",
    "crates/ising/src/anneal.rs",
    "crates/ising/src/solver.rs",
];

/// Every scope list the classic lints scan, by family.
const SCOPES: &[(&str, &[&str])] = &[
    ("unit-safety", UNIT_SAFETY_SCOPE),
    ("panic-freedom", PANIC_FREEDOM_SCOPE),
    ("fault-strict", FAULT_STRICT_SCOPE),
    ("hot-path", HOT_PATH_SCOPE),
];

/// Function-name prefixes that mark a body as per-sweep hot path. A
/// design's `schedule` and `discharges` run once per tuple compute, inside
/// the kernel that calls them.
const HOT_PATH_FN_PREFIXES: &[&str] = &[
    "compute_",
    "schedule",
    "discharges",
    "upload_",
    "writeback_",
    "accept",
    "decide_update",
    "probability",
];

/// Heap-allocation spellings banned inside hot-path kernel bodies.
/// `.resize(` catches a table grown on demand inside the decision.
const HOT_PATH_PATTERNS: &[&str] = &[
    "vec!",
    ".collect(",
    ".to_vec(",
    "Vec::with_capacity(",
    "Vec::new(",
    ".resize(",
];

/// Observability spellings banned inside hot-path kernel bodies. The
/// metrics layer is harvest-based: counters are read out of the plain
/// counter structs *after* a sweep, so instrumentation expands to
/// nothing inside `compute_*` kernels. These patterns keep it that way —
/// a registry call per tuple would be an N·R-per-sweep tax and a
/// BTreeMap lookup on the innermost loop.
const INSTRUMENTATION_PATTERNS: &[&str] = &[
    "MetricsRegistry",
    "counter_add(",
    "gauge_set(",
    ".observe(",
    "PhaseSpan",
    "sachi_obs::",
];

/// Numeric primitive names that make an `as` cast a unit-safety concern.
const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Runs the six classic lints from `root`, pre-allowlist. Callers apply
/// [`crate::allowlist::apply`].
pub fn run_classic(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    unit_safety(root, &mut findings)?;
    panic_freedom(root, &mut findings)?;
    fault_strict(root, &mut findings)?;
    bench_registration(root, &mut findings)?;
    hot_path(root, &mut findings)?;
    hygiene(root, &mut findings)?;
    Ok(findings)
}

/// Surviving findings, parsed allowlist entries, and the indices of
/// stale entries (for `lint --fix-allowlist`).
pub type LintOutcome = (Vec<Finding>, Vec<AllowEntry>, Vec<usize>);

/// Runs every lint family from `root` (the workspace root) — the six
/// classic families plus the three analyze families — applying the
/// allowlist at `root/lint.allow.toml` if present. Returns a
/// [`LintOutcome`], or an error string for infrastructure problems
/// (unreadable files, malformed allowlist).
pub fn run_all(root: &Path) -> Result<LintOutcome, String> {
    let entries = allowlist::load(root)?;
    let mut findings = run_classic(root)?;
    findings.extend(crate::analyze::run(root)?.findings);
    let mut families: Vec<&str> = CLASSIC_FAMILIES.to_vec();
    families.extend_from_slice(crate::analyze::FAMILIES);
    let stale = allowlist::apply(root, &entries, &families, &mut findings);
    findings.extend(allowlist::over_budget(&entries));
    findings.extend(missing_scope_paths(root, SCOPES));
    findings.extend(missing_scope_paths(root, crate::analyze::SCOPES));
    findings.sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
    Ok((findings, entries, stale))
}

/// [`run_all`] without the allowlist bookkeeping — the surviving
/// findings only.
#[cfg(test)]
pub fn run(root: &Path) -> Result<Vec<Finding>, String> {
    run_all(root).map(|(findings, _, _)| findings)
}

/// One finding per scope path that does not exist under `root`.
/// [`rust_files`] yields nothing for a missing path, so without this a
/// stale scope entry (a moved or deleted file) would silently lint
/// nothing.
pub fn missing_scope_paths(root: &Path, scopes: &[(&str, &[&str])]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for &(family, paths) in scopes {
        for path in paths.iter().filter(|p| !root.join(p).exists()) {
            findings.push(Finding {
                lint: "lint-scope",
                path: (*path).to_string(),
                line: 0,
                message: format!(
                    "the {family} scope names `{path}`, which does not exist; drop it from the scope"
                ),
                raw: String::new(),
            });
        }
    }
    findings
}

/// Recursively collects `.rs` files under `dir` (or the file itself),
/// sorted for deterministic output. A missing path yields no files, so
/// self-test trees need not mirror the workspace; [`run_all`] reports
/// stale scope entries through [`missing_scope_paths`].
pub(crate) fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    if dir.is_file() {
        out.push(dir.to_path_buf());
        return Ok(out);
    }
    if !dir.exists() {
        return Ok(out);
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let iter = std::fs::read_dir(&d).map_err(|e| format!("read_dir {}: {e}", d.display()))?;
        for entry in iter {
            let path = entry
                .map_err(|e| format!("read_dir {}: {e}", d.display()))?
                .path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

pub(crate) fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

pub(crate) fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// Returns the target type of every raw numeric `as` cast in a scrubbed
/// code line. `use foo as bar` never matches: the token after `as` must
/// be a numeric primitive.
fn numeric_casts(code: &str) -> Vec<&'static str> {
    let mut hits = Vec::new();
    let mut i = 0;
    while let Some(pos) = code[i..].find(" as ") {
        i += pos + 4;
        let after = code[i..].trim_start();
        let ident: String = after
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if let Some(t) = NUMERIC_TYPES.iter().find(|t| **t == ident) {
            hits.push(*t);
        }
    }
    hits
}

fn unit_safety(root: &Path, findings: &mut Vec<Finding>) -> Result<(), String> {
    for scope in UNIT_SAFETY_SCOPE {
        for file in rust_files(&root.join(scope))? {
            let text = read(&file)?;
            for line in scan_lines(&text) {
                for ty in numeric_casts(&line.code) {
                    findings.push(Finding {
                        lint: "unit-safety",
                        path: rel(root, &file),
                        line: line.number,
                        message: format!(
                            "raw `as {ty}` cast in unit-accounting code; use the units.rs \
                             newtypes or a checked conversion (TryFrom / from_f64_ceil / \
                             scale_by_fraction)"
                        ),
                        raw: line.raw.clone(),
                    });
                }
            }
        }
    }
    Ok(())
}

fn panic_freedom(root: &Path, findings: &mut Vec<Finding>) -> Result<(), String> {
    for scope in PANIC_FREEDOM_SCOPE {
        for file in rust_files(&root.join(scope))? {
            let text = read(&file)?;
            for line in scan_lines(&text) {
                for pattern in [".unwrap()", "panic!(", "unimplemented!(", "todo!("] {
                    if line.code.contains(pattern) {
                        findings.push(Finding {
                            lint: "panic-freedom",
                            path: rel(root, &file),
                            line: line.number,
                            message: format!(
                                "`{pattern}…` in library code; return a Result or use \
                                 `.expect(\"<invariant>\")` with a message stating why \
                                 failure is impossible"
                            ),
                            raw: line.raw.clone(),
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

fn fault_strict(root: &Path, findings: &mut Vec<Finding>) -> Result<(), String> {
    for scope in FAULT_STRICT_SCOPE {
        for file in rust_files(&root.join(scope))? {
            let text = read(&file)?;
            for line in scan_lines(&text) {
                for pattern in [".unwrap()", ".expect("] {
                    if line.code.contains(pattern) {
                        findings.push(Finding {
                            lint: "fault-strict",
                            path: rel(root, &file),
                            line: line.number,
                            message: format!(
                                "`{pattern}…` in fault-handling code; the injection and \
                                 recovery layer must stay panic-free — return a Result or \
                                 restructure so the fallible case cannot arise"
                            ),
                            raw: line.raw.clone(),
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

fn bench_registration(root: &Path, findings: &mut Vec<Finding>) -> Result<(), String> {
    let bin_dir = root.join("crates/bench/src/bin");
    if !bin_dir.exists() {
        return Ok(());
    }
    let registry = read(&root.join("crates/bench/src/lib.rs"))?;
    let experiments = read(&root.join("EXPERIMENTS.md"))?;
    for file in rust_files(&bin_dir)? {
        let stem = file
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let is_experiment = stem.starts_with("fig")
            || stem.starts_with("abl_")
            || stem.starts_with("disc_")
            || stem.starts_with("perf_");
        if !is_experiment {
            continue;
        }
        let path = rel(root, &file);
        let text = read(&file)?;
        if !scan_lines(&text).iter().any(|l| l.code.contains("fn main")) {
            findings.push(Finding {
                lint: "bench-registration",
                path: path.clone(),
                line: 0,
                message: format!("bench binary `{stem}` has no `fn main` and cannot build"),
                raw: String::new(),
            });
        }
        if !registry.contains(&stem) {
            findings.push(Finding {
                lint: "bench-registration",
                path: path.clone(),
                line: 0,
                message: format!(
                    "bench binary `{stem}` is not declared in crates/bench/src/lib.rs"
                ),
                raw: String::new(),
            });
        }
        if !experiments.contains(&stem) {
            findings.push(Finding {
                lint: "bench-registration",
                path,
                line: 0,
                message: format!("bench binary `{stem}` is not referenced in EXPERIMENTS.md"),
                raw: String::new(),
            });
        }
    }
    Ok(())
}

fn hot_path(root: &Path, findings: &mut Vec<Finding>) -> Result<(), String> {
    for scope in HOT_PATH_SCOPE {
        for file in rust_files(&root.join(scope))? {
            let text = read(&file)?;
            let parsed = crate::parser::parse_source(&text);
            let lines = scan_lines(&text);
            let line_of = |byte: usize| -> usize {
                1 + text.as_bytes()[..byte.min(text.len())]
                    .iter()
                    .filter(|&&b| b == b'\n')
                    .count()
            };
            // One finding per (line, pattern): a compute kernel nested
            // inside another compute kernel is scanned once.
            let mut seen: std::collections::BTreeSet<(usize, &str)> =
                std::collections::BTreeSet::new();
            for f in &parsed.fns {
                if f.is_test || !HOT_PATH_FN_PREFIXES.iter().any(|p| f.name.starts_with(p)) {
                    continue;
                }
                // A bodyless trait declaration has nothing to scan.
                let Some((_, close)) = f.body else {
                    continue;
                };
                let end_line = line_of(parsed.code[close].start);
                for line in lines
                    .iter()
                    .filter(|l| l.number >= f.line as usize && l.number <= end_line)
                {
                    for pattern in HOT_PATH_PATTERNS {
                        if line.code.contains(pattern) && seen.insert((line.number, pattern)) {
                            findings.push(Finding {
                                lint: "hot-path",
                                path: rel(root, &file),
                                line: line.number,
                                message: format!(
                                    "heap allocation `{pattern}…` inside hot-path kernel \
                                     `{}`; compute from caller-provided words and \
                                     book counters in closed form — the scalar \
                                     reference path is excused via lint.allow.toml",
                                    f.name
                                ),
                                raw: line.raw.clone(),
                            });
                        }
                    }
                    for pattern in INSTRUMENTATION_PATTERNS {
                        if line.code.contains(pattern) && seen.insert((line.number, pattern)) {
                            findings.push(Finding {
                                lint: "hot-path",
                                path: rel(root, &file),
                                line: line.number,
                                message: format!(
                                    "instrumentation `{pattern}…` inside hot-path kernel \
                                     `{}`; the metrics layer is harvest-based — \
                                     accumulate into the plain counter structs and export \
                                     to the registry after the sweep",
                                    f.name
                                ),
                                raw: line.raw.clone(),
                            });
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

fn hygiene(root: &Path, findings: &mut Vec<Finding>) -> Result<(), String> {
    let mut roots: Vec<PathBuf> = Vec::new();
    for group in ["crates", "compat"] {
        let dir = root.join(group);
        if !dir.exists() {
            continue;
        }
        let iter =
            std::fs::read_dir(&dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        for entry in iter {
            let path = entry
                .map_err(|e| format!("read_dir {}: {e}", dir.display()))?
                .path();
            if path.join("Cargo.toml").exists() {
                roots.push(path);
            }
        }
    }
    if root.join("Cargo.toml").exists() && root.join("src").exists() {
        roots.push(root.to_path_buf());
    }
    roots.sort();
    for crate_dir in roots {
        let lib = crate_dir.join("src/lib.rs");
        let main = crate_dir.join("src/main.rs");
        let crate_root = if lib.exists() {
            lib
        } else if main.exists() {
            main
        } else {
            findings.push(Finding {
                lint: "hygiene",
                path: rel(root, &crate_dir),
                line: 0,
                message: "crate has neither src/lib.rs nor src/main.rs".into(),
                raw: String::new(),
            });
            continue;
        };
        let text = read(&crate_root)?;
        for header in ["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"] {
            if !text.contains(header) {
                findings.push(Finding {
                    lint: "hygiene",
                    path: rel(root, &crate_root),
                    line: 0,
                    message: format!("crate root is missing the `{header}` header"),
                    raw: String::new(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_casts_finds_real_casts_only() {
        assert_eq!(numeric_casts("let x = y as u64;"), vec!["u64"]);
        assert_eq!(numeric_casts("let z = (a * b) as f64 * 0.5;").len(), 1);
        assert!(numeric_casts("use foo as bar;").is_empty());
        assert!(numeric_casts("let x = y as MyType;").is_empty());
        assert_eq!(numeric_casts("a as u32 + b as usize").len(), 2);
    }

    /// End-to-end self-test: seed a fake repo with one violation of each
    /// lint, assert every lint fires, then allowlist one finding and
    /// assert suppression plus stale-entry reporting.
    #[test]
    fn seeded_violations_are_reported_and_allowlist_suppresses() {
        let root = std::env::temp_dir().join(format!("xtask-selftest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mk = |p: &str, content: &str| {
            let path = root.join(p);
            std::fs::create_dir_all(path.parent().expect("file paths have parents"))
                .expect("create self-test dirs");
            std::fs::write(path, content).expect("write self-test file");
        };
        // unit-safety + panic-freedom violations in mem library code.
        mk(
            "crates/mem/src/lib.rs",
            "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n//! d\npub fn f(x: u32) -> u64 { let y = x as u64; y }\npub fn g(o: Option<u8>) -> u8 { o.unwrap() }\n",
        );
        mk("crates/mem/Cargo.toml", "[package]\nname = \"m\"\n");
        // fault-strict violation: `.expect` is fine elsewhere in the
        // library but not in the fault module.
        mk(
            "crates/mem/src/fault.rs",
            "//! d\npub fn h(o: Option<u8>) -> u8 { o.expect(\"invariant\") }\n",
        );
        // hygiene violation: missing deny(missing_docs).
        mk("crates/core/src/lib.rs", "#![forbid(unsafe_code)]\n//! d\n");
        // hot-path violations: allocation AND inline instrumentation
        // inside a compute kernel body, plus allocations in the upload
        // and writeback sweep-loop helpers; the allocation in `layout`
        // must NOT fire (not a hot-path prefix), nor the bodyless trait
        // declaration's surroundings, nor the registry export outside
        // any kernel (`harvest` is the sanctioned pattern).
        mk(
            "crates/core/src/designs.rs",
            "//! d\ntrait T {\n    fn compute_tuple(&self) -> i64;\n}\npub fn layout() { let _ = vec![1]; }\npub fn harvest(reg: &mut R) { reg.counter_add(\"x\", 1); }\npub fn compute_h(reg: &mut R) -> i64 {\n    let v = vec![0u64; 4];\n    reg.counter_add(\"machine_xnor_ops\", 1);\n    i64::from(!v.is_empty())\n}\npub fn upload_row() { let _ = Vec::with_capacity(4); }\npub fn writeback_row(xs: &[u64]) { let _ = xs.to_vec(); }\n",
        );
        mk("crates/core/Cargo.toml", "[package]\nname = \"c\"\n");
        mk(
            "crates/ising/src/lib.rs",
            "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n//! d\n",
        );
        mk("crates/ising/Cargo.toml", "[package]\nname = \"i\"\n");
        // bench-registration violation: fig binary never mentioned anywhere.
        mk("crates/bench/src/lib.rs", "//! registry: fig_other\n");
        mk("crates/bench/src/bin/fig99_missing.rs", "fn main() {}\n");
        mk("crates/bench/Cargo.toml", "[package]\nname = \"b\"\n");
        mk("EXPERIMENTS.md", "# experiments\nfig_other\n");

        let findings = run(&root).expect("lint run succeeds");
        let lints: Vec<&str> = findings.iter().map(|f| f.lint).collect();
        assert!(lints.contains(&"unit-safety"), "{findings:?}");
        assert!(lints.contains(&"panic-freedom"), "{findings:?}");
        assert!(lints.contains(&"fault-strict"), "{findings:?}");
        assert!(lints.contains(&"bench-registration"), "{findings:?}");
        assert!(lints.contains(&"hot-path"), "{findings:?}");
        assert!(lints.contains(&"hygiene"), "{findings:?}");
        // hot-path scans the compute/upload/writeback kernels only: the
        // `vec!` in `layout`, the registry export in `harvest`, and the
        // bodyless trait declaration never fire — but the allocation and
        // inline `counter_add` inside `compute_h` do, as do the
        // allocations in `upload_row` and `writeback_row`.
        let hot: Vec<&Finding> = findings.iter().filter(|f| f.lint == "hot-path").collect();
        assert_eq!(hot.len(), 4, "{hot:?}");
        assert_eq!(
            hot.iter()
                .filter(|f| f.message.contains("compute_h"))
                .count(),
            2,
            "{hot:?}"
        );
        assert!(
            hot.iter().any(|f| f.message.contains("upload_row")),
            "{hot:?}"
        );
        assert!(
            hot.iter().any(|f| f.message.contains("writeback_row")),
            "{hot:?}"
        );
        assert!(
            hot.iter()
                .any(|f| f.message.contains("instrumentation `counter_add(")),
            "{hot:?}"
        );
        // The `.expect` in the fault module fires fault-strict only — it
        // is sanctioned for ordinary library code.
        assert!(
            !findings
                .iter()
                .any(|f| f.lint == "panic-freedom" && f.path.ends_with("fault.rs")),
            "{findings:?}"
        );
        let baseline = findings.len();

        // Allowlist the cast; one fewer finding, no stale entries.
        mk(
            "lint.allow.toml",
            "[[allow]]\nlint = \"unit-safety\"\npath = \"crates/mem/src/lib.rs\"\ncontains = \"x as u64\"\nreason = \"self-test exception\"\n",
        );
        let after = run(&root).expect("lint run succeeds");
        assert_eq!(after.len(), baseline - 1);
        assert!(after.iter().all(|f| f.lint != "unit-safety"), "{after:?}");

        // A non-matching entry is reported as stale.
        mk(
            "lint.allow.toml",
            "[[allow]]\nlint = \"unit-safety\"\npath = \"crates/mem/src/lib.rs\"\ncontains = \"no such line\"\nreason = \"stale\"\n",
        );
        let stale = run(&root).expect("lint run succeeds");
        assert!(stale.iter().any(|f| f.lint == "allowlist"), "{stale:?}");

        std::fs::remove_dir_all(&root).expect("clean up self-test tree");
    }

    /// Every lint and analyze scope names a path in this workspace, and a
    /// scope entry for a file that is gone is reported.
    #[test]
    fn stale_scope_paths_are_reported() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert!(missing_scope_paths(&root, SCOPES).is_empty());
        assert!(missing_scope_paths(&root, crate::analyze::SCOPES).is_empty());
        let stale = missing_scope_paths(
            &root,
            &[(
                "hot-path",
                &["crates/core/src/designs.rs", "crates/core/src/tiled.rs"],
            )],
        );
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert_eq!(stale[0].lint, "lint-scope");
        assert_eq!(stale[0].path, "crates/core/src/tiled.rs");
    }

    /// The annealer decision is hot path: a memo grown on demand inside
    /// `accept` fires, as does an allocation in `decide_update`, while
    /// the annealer's one allocation in its constructor does not.
    #[test]
    fn growing_the_decision_memo_is_a_hot_path_finding() {
        let root = std::env::temp_dir().join(format!("xtask-decide-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("crates/ising/src")).expect("create dirs");
        std::fs::write(
            root.join("crates/ising/src/anneal.rs"),
            "//! d\npub struct Annealer { memo: Vec<f64> }\nimpl Annealer {\n    pub fn new() -> Self { Annealer { memo: Vec::new() } }\n    pub fn accept(&mut self, delta: usize) -> bool {\n        if delta >= self.memo.len() {\n            self.memo.resize(delta + 1, f64::NAN);\n        }\n        self.memo.get(delta).is_some()\n    }\n}\n",
        )
        .expect("write anneal.rs");
        std::fs::write(
            root.join("crates/ising/src/solver.rs"),
            "//! d\npub fn decide_update(hs: &[i64]) -> i64 {\n    let deltas: Vec<i64> = hs.iter().map(|h| -2 * h).collect();\n    deltas.iter().sum()\n}\n",
        )
        .expect("write solver.rs");
        let mut findings = Vec::new();
        hot_path(&root, &mut findings).expect("runs");
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(
            findings
                .iter()
                .any(|f| f.path.ends_with("anneal.rs") && f.message.contains("`.resize(…`")),
            "{findings:?}"
        );
        assert!(
            findings
                .iter()
                .any(|f| f.path.ends_with("solver.rs") && f.message.contains("decide_update")),
            "{findings:?}"
        );
        std::fs::remove_dir_all(&root).expect("clean up");
    }

    #[test]
    fn cfg_test_code_is_exempt_from_panic_freedom() {
        let root = std::env::temp_dir().join(format!("xtask-cfgtest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("crates/core/src")).expect("create dirs");
        std::fs::write(
            root.join("crates/core/src/lib.rs"),
            "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n//! d\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n",
        )
        .expect("write lib.rs");
        let mut findings = Vec::new();
        panic_freedom(&root, &mut findings).expect("runs");
        assert!(findings.is_empty(), "{findings:?}");
        std::fs::remove_dir_all(&root).expect("clean up");
    }
}
