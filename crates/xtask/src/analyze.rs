//! `cargo run -p xtask -- analyze`: the three contract-level lint
//! families built on the lexer/parser/call-graph stack.
//!
//! | family | what it enforces |
//! |--------|------------------|
//! | `determinism` | the result-affecting crates (`sachi-core`, `sachi-ising`, `sachi-mem`, `sachi-obs`), the paper's reference models (`crates/bench/src/reference`) and the tests that moved out with them, plus the `sachi serve` daemon modules (`crates/cli/src/{protocol,serve}.rs`) never touch unordered containers (`HashMap`/`HashSet`/`RandomState`/`DefaultHasher`), wall-clock time (`std::time`, `Instant`, `SystemTime`), thread identity (`thread::current`), or process environment (`env::var` & friends) — test code included, since iteration-order flakiness in goldens masks real nondeterminism. `crates/cli/src/clock.rs` is the one sanctioned `std::time` doorway and stays outside the scope |
//! | `panic-reachability` | no slice indexing, non-literal `/`‍/`%`, or `.unwrap()` in any `sachi-core`/`sachi-ising`/`sachi-mem` or reference-model fn *transitively reachable* from a `solve*`/`compute_*`/`run*` entry point via the conservative call graph — not merely textually present in a scoped file (workloads are input encoders, gated by `overflow-audit` instead, mirroring the classic `panic-freedom` scope) |
//! | `overflow-audit` | no unchecked `+`/`-`/`*` integer *value* arithmetic in `crates/workloads` fns reachable from the encoding entry points (signatures mentioning `QuboProblem`/`IsingGraph`/`EncodeError`) — the standing gate behind `EncodeError::CoefficientOverflow`. Arithmetic inside an index-bracket group is address math, exempt by design: an overflowed address trips the bounds check (a loud panic), it cannot silently corrupt a coefficient |
//!
//! Reachability findings are reported **per function** (line = the
//! `fn` line, allowlist `contains` patterns match the signature text):
//! one audited `lint.allow.toml` entry vouches for one function, which
//! keeps the exception list reviewable. The message carries the op
//! breakdown with line numbers and a sample call chain from the entry
//! point.

use crate::callgraph::{self, Workspace, WsFile};
use crate::lexer::TokenKind;
use crate::lints::Finding;
use crate::parser::{is_keyword, FnItem};
use std::path::Path;

/// The lint families this module owns (used to scope allowlist
/// staleness when `analyze` runs without the six classic lints).
pub const FAMILIES: &[&str] = &["determinism", "panic-reachability", "overflow-audit"];

/// Crates whose behavior feeds solver results: bit-exact, seed-
/// reproducible output depends on them and only them. The paper's
/// reference models the goldens and figures check against join them.
const DETERMINISM_SCOPE: &[&str] = &[
    "crates/core/src",
    "crates/ising/src",
    "crates/mem/src",
    "crates/obs/src",
    "crates/bench/src/reference",
];

/// The `sachi serve` daemon modules, held to the same determinism bans:
/// the daemon's contract is that a job's result is byte-identical to
/// the one-shot CLI, so its wire decoder and server loop must not read
/// wall clocks, thread identity, or the environment either. The single
/// sanctioned `std::time` doorway is `crates/cli/src/clock.rs`, which
/// is deliberately *not* in this scope — everything else handles
/// opaque `Duration`s minted there.
const SERVER_DETERMINISM_SCOPE: &[&str] =
    &["crates/cli/src/protocol.rs", "crates/cli/src/serve.rs"];

/// The tests that moved out of `sachi-core` and `sachi-mem` with the
/// reference models, held to the determinism bans they had there.
const REFERENCE_TEST_SCOPE: &[&str] = &[
    "crates/bench/tests/bitcell.rs",
    "crates/bench/tests/isa.rs",
    "crates/bench/tests/multicore.rs",
    "crates/bench/tests/runtime.rs",
    "crates/bench/tests/scalar_oracles.rs",
];

/// The full analysis domain: determinism scope plus the workload
/// encoders (for the overflow audit and cross-crate call resolution).
const DOMAIN: &[&str] = &[
    "crates/core/src",
    "crates/ising/src",
    "crates/mem/src",
    "crates/obs/src",
    "crates/bench/src/reference",
    "crates/workloads/src",
];

/// Where panic-reachability finds its entry points and reports: the
/// result-affecting compute crates and the reference models proven
/// against them.
const PANIC_SCOPE: &[&str] = &[
    "crates/core/src",
    "crates/ising/src",
    "crates/mem/src",
    "crates/bench/src/reference",
];

fn in_panic_scope(file: &WsFile) -> bool {
    PANIC_SCOPE.iter().any(|p| file.path.starts_with(p))
}

/// Every scope list this module scans, by family (checked for stale
/// entries by [`crate::lints::missing_scope_paths`]).
pub const SCOPES: &[(&str, &[&str])] = &[
    ("determinism", DETERMINISM_SCOPE),
    ("determinism", SERVER_DETERMINISM_SCOPE),
    ("determinism", REFERENCE_TEST_SCOPE),
    ("analyze domain", DOMAIN),
    ("panic-reachability", PANIC_SCOPE),
];

/// Unordered-container identifiers banned by the determinism lint.
const UNORDERED_TYPES: &[&str] = &["HashMap", "HashSet", "RandomState", "DefaultHasher"];

/// Wall-clock identifiers banned by the determinism lint.
const CLOCK_TYPES: &[&str] = &["Instant", "SystemTime"];

/// Macros whose argument tokens are exempt from op scanning: their
/// panics are deliberate invariant checks (repo policy sanctions them
/// the way `.expect("invariant")` is sanctioned), and `matches!` arms
/// are patterns, not executed arithmetic.
const SKIP_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "matches",
    "panic",
    "unreachable",
];

/// Run statistics, surfaced in the human report and the JSON output.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Files lexed and parsed across the domain.
    pub files_scanned: usize,
    /// `fn` items recovered.
    pub functions: usize,
    /// Entry points the reachability passes started from.
    pub entry_points: usize,
}

/// Result of an analyze run (findings are pre-allowlist).
pub struct Analysis {
    /// All findings from the three families.
    pub findings: Vec<Finding>,
    /// Run statistics.
    pub stats: Stats,
}

/// Panic-capable / overflow-capable operations found in one fn body.
#[derive(Debug, Default, Clone)]
struct OpCounts {
    /// Lines with `.unwrap()` calls.
    unwrap: Vec<u32>,
    /// Lines with slice/array index expressions (`x[i]`, except `x[..]`).
    index: Vec<u32>,
    /// Lines with `/` or `%` whose divisor is not a nonzero literal.
    divmod: Vec<u32>,
    /// Lines with unchecked binary `+`/`-`/`*` on non-float operands.
    arith: Vec<u32>,
}

/// True when the token at `k-1` can end an operand expression — the
/// discriminator between binary and unary/structural uses of `[`, `-`,
/// `*`, `/`.
fn prev_is_operand(file: &WsFile, k: usize) -> bool {
    if k == 0 {
        return false;
    }
    let prev = file.parsed.code[k - 1];
    let text = prev.text(&file.src);
    match prev.kind {
        TokenKind::Ident => !is_keyword(text),
        TokenKind::NumLit => true,
        TokenKind::Punct => text == ")" || text == "]" || text == "?",
        _ => false,
    }
}

/// True when a numeric literal token text denotes zero (`0`, `0x00`,
/// `0.0`, `0_u32`).
fn literal_is_zero(text: &str) -> bool {
    let t = text
        .trim_start_matches("0x")
        .trim_start_matches("0X")
        .trim_start_matches("0b")
        .trim_start_matches("0B")
        .trim_start_matches("0o")
        .trim_start_matches("0O");
    !t.chars().any(|c| c.is_ascii_digit() && c != '0')
}

/// True when a numeric literal token is a float (`1.5`, `2e3`, `1f64`).
fn literal_is_float(text: &str) -> bool {
    text.contains('.')
        || text.ends_with("f32")
        || text.ends_with("f64")
        || (!text.starts_with("0x")
            && !text.starts_with("0X")
            && (text.contains('e') || text.contains('E')))
}

/// The right-hand operand token of the operator at `k`, skipping a
/// compound-assignment `=` and a unary `-`.
fn rhs_token(file: &WsFile, k: usize) -> Option<(usize, TokenKind, String)> {
    let code = &file.parsed.code;
    let mut j = k + 1;
    if code.get(j).is_some_and(|t| t.text(&file.src) == "=") {
        j += 1;
    }
    if code.get(j).is_some_and(|t| t.text(&file.src) == "-") {
        j += 1;
    }
    code.get(j)
        .map(|t| (j, t.kind, t.text(&file.src).to_string()))
}

/// Scans fn `idx`'s body for panic- and overflow-capable operations.
/// Nested fn items and [`SKIP_MACROS`] argument groups are excluded.
fn scan_ops(file: &WsFile, idx: usize) -> OpCounts {
    let parsed = &file.parsed;
    let mut ops = OpCounts::default();
    let Some((b0, b1)) = parsed.fns[idx].body else {
        return ops;
    };
    let nested: Vec<(usize, usize)> = parsed
        .nested_fns(idx)
        .into_iter()
        .filter_map(|i| {
            parsed.fns[i]
                .body
                .map(|(_, e)| (parsed.fns[i].sig_start, e))
        })
        .collect();
    let code = &parsed.code;
    let src = file.src.as_str();
    // Open-delimiter stack: `true` marks an index-bracket group. Value
    // arithmetic inside one is address math — an overflow there lands
    // in the bounds check, so the overflow audit exempts it.
    let mut delims: Vec<bool> = Vec::new();
    let mut k = b0 + 1;
    while k < b1 {
        if let Some(&(_, n1)) = nested.iter().find(|(n0, n1)| *n0 <= k && k <= *n1) {
            k = n1 + 1;
            continue;
        }
        let tok = code[k];
        let text = tok.text(src);
        // Sanctioned-macro groups: skip `assert!( … )` bodies wholesale.
        if tok.kind == TokenKind::Ident
            && SKIP_MACROS.contains(&text)
            && code.get(k + 1).is_some_and(|t| t.text(src) == "!")
        {
            if let Some(open) = code.get(k + 2) {
                let open_text = open.text(src);
                let close = match open_text {
                    "(" => ")",
                    "[" => "]",
                    "{" => "}",
                    _ => {
                        k += 2;
                        continue;
                    }
                };
                let mut depth = 0usize;
                let mut j = k + 2;
                while j < b1 {
                    let t = code[j].text(src);
                    if t == open_text {
                        depth += 1;
                    } else if t == close {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                k = j + 1;
                continue;
            }
        }
        if tok.kind == TokenKind::Ident
            && text == "unwrap"
            && k > 0
            && code[k - 1].text(src) == "."
            && code.get(k + 1).is_some_and(|t| t.text(src) == "(")
        {
            ops.unwrap.push(tok.line);
        }
        if tok.kind == TokenKind::Punct {
            match text {
                "[" => {
                    let indexing = prev_is_operand(file, k);
                    delims.push(indexing);
                    // `x[..]` (full-range) can never panic; anything
                    // else can.
                    let full_range = code.get(k + 1).is_some_and(|t| t.text(src) == ".")
                        && code.get(k + 2).is_some_and(|t| t.text(src) == ".")
                        && code.get(k + 3).is_some_and(|t| t.text(src) == "]");
                    if indexing && !full_range {
                        ops.index.push(tok.line);
                    }
                }
                "(" | "{" => delims.push(false),
                "]" | ")" | "}" => {
                    delims.pop();
                }
                "/" | "%" if prev_is_operand(file, k) => {
                    let literal_nonzero = matches!(
                        rhs_token(file, k),
                        Some((_, TokenKind::NumLit, ref t)) if !literal_is_zero(t)
                    );
                    if !literal_nonzero {
                        ops.divmod.push(tok.line);
                    }
                }
                "+" | "-" | "*" if prev_is_operand(file, k) => {
                    // `->` return arrows are two tokens; not arithmetic.
                    let arrow = text == "-"
                        && code
                            .get(k + 1)
                            .is_some_and(|t| t.text(src) == ">" && tok.adjacent(t));
                    let prev_float = matches!(code[k - 1].kind, TokenKind::NumLit)
                        && literal_is_float(code[k - 1].text(src));
                    let rhs_float = matches!(
                        rhs_token(file, k),
                        Some((_, TokenKind::NumLit, ref t)) if literal_is_float(t)
                    );
                    let in_index = delims.contains(&true);
                    if !arrow && !prev_float && !rhs_float && !in_index {
                        ops.arith.push(tok.line);
                    }
                }
                _ => {}
            }
        }
        k += 1;
    }
    ops
}

/// Renders "lines 12, 40, 88 (+3 more)" from a line list.
fn lines_summary(lines: &[u32]) -> String {
    let shown: Vec<String> = lines.iter().take(5).map(|l| l.to_string()).collect();
    let extra = lines.len().saturating_sub(5);
    if extra > 0 {
        format!("lines {} (+{extra} more)", shown.join(", "))
    } else if lines.len() == 1 {
        format!("line {}", shown[0])
    } else {
        format!("lines {}", shown.join(", "))
    }
}

/// Renders a call chain, eliding the middle of very deep chains.
fn chain_summary(chain: &[String]) -> String {
    if chain.len() <= 6 {
        chain.join(" → ")
    } else {
        format!(
            "{} → … → {}",
            chain[..3].join(" → "),
            chain[chain.len() - 2..].join(" → ")
        )
    }
}

/// The determinism family: token-level scan of every file in scope
/// (test code included).
fn determinism(ws: &Workspace, scopes: &[&str], findings: &mut Vec<Finding>) {
    for file in &ws.files {
        if !scopes.iter().any(|s| file.path.starts_with(s)) {
            continue;
        }
        let src = file.src.as_str();
        let lines: Vec<&str> = src.lines().collect();
        let raw_line = |n: u32| -> String {
            lines
                .get(n.saturating_sub(1) as usize)
                .map(|l| l.to_string())
                .unwrap_or_default()
        };
        let code = &file.parsed.code;
        for (k, tok) in code.iter().enumerate() {
            if tok.kind != TokenKind::Ident {
                continue;
            }
            let text = tok.text(src);
            let mut report = |what: &str, policy: &str| {
                findings.push(Finding {
                    lint: "determinism",
                    path: file.path.clone(),
                    line: tok.line as usize,
                    message: format!("{what} in a result-affecting crate; {policy}"),
                    raw: raw_line(tok.line),
                });
            };
            if UNORDERED_TYPES.contains(&text) {
                report(
                    &format!("`{text}` (unordered container)"),
                    "iteration order varies run to run — use BTreeMap/BTreeSet or a Vec keyed \
                     by index (test code included: order-dependent goldens mask real \
                     nondeterminism)",
                );
                continue;
            }
            if CLOCK_TYPES.contains(&text) {
                report(
                    &format!("`{text}` (wall clock)"),
                    "results must be a function of (input, seed) only — meter work in the \
                     cycle domain (sachi-obs spans) instead",
                );
                continue;
            }
            // Qualified-path sequences: `std::time`, `thread::current`,
            // `env::var*`.
            let path_next = |j: usize| -> Option<&str> {
                let colon1 = code.get(j + 1)?;
                let colon2 = code.get(j + 2)?;
                if colon1.text(src) == ":" && colon2.text(src) == ":" {
                    code.get(j + 3).map(|t| t.text(src))
                } else {
                    None
                }
            };
            match text {
                "std" if path_next(k) == Some("time") => report(
                    "`std::time`",
                    "results must be a function of (input, seed) only — meter work in the \
                     cycle domain (sachi-obs spans) instead",
                ),
                "thread" if path_next(k) == Some("current") => report(
                    "`thread::current`",
                    "thread identity is scheduler-dependent; the determinism contract makes \
                     thread count unobservable — derive per-replica state from the SplitMix64 \
                     replica seed instead",
                ),
                "env" => {
                    if let Some(next) = path_next(k) {
                        if matches!(
                            next,
                            "var"
                                | "vars"
                                | "var_os"
                                | "vars_os"
                                | "args"
                                | "args_os"
                                | "set_var"
                                | "remove_var"
                        ) {
                            report(
                                &format!("`env::{next}`"),
                                "process environment is host state; configuration reaches the \
                                 solver through SolveOptions/SachiConfig only",
                            );
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// Builds per-fn reachability findings for one family.
#[allow(clippy::too_many_arguments)]
fn reachability_findings(
    ws: &Workspace,
    reach: &callgraph::Reachable,
    lint: &'static str,
    in_scope: impl Fn(&WsFile) -> bool,
    categories: impl Fn(&OpCounts) -> Vec<(String, Vec<u32>)>,
    advice: &str,
    findings: &mut Vec<Finding>,
) {
    for (&(fi, gi), chain) in reach {
        let file = &ws.files[fi];
        if !in_scope(file) {
            continue;
        }
        let f = &file.parsed.fns[gi];
        let ops = scan_ops(file, gi);
        let cats = categories(&ops);
        if cats.is_empty() {
            continue;
        }
        let breakdown = cats
            .iter()
            .map(|(what, lines)| format!("{what} ({})", lines_summary(lines)))
            .collect::<Vec<_>>()
            .join(", ");
        findings.push(Finding {
            lint,
            path: file.path.clone(),
            line: f.line as usize,
            message: format!(
                "fn `{}` is reachable from entry `{}` (via {}) and contains {breakdown}; \
                 {advice}",
                f.name,
                chain.first().map(String::as_str).unwrap_or(""),
                chain_summary(chain),
            ),
            raw: f.signature.clone(),
        });
    }
}

/// Runs the three analyze families over the workspace at `root`.
/// Returned findings are pre-allowlist; callers apply
/// [`crate::allowlist::apply`].
pub fn run(root: &Path) -> Result<Analysis, String> {
    let ws = Workspace::load(root, DOMAIN)?;
    let mut findings = Vec::new();

    determinism(&ws, DETERMINISM_SCOPE, &mut findings);

    // The serve daemon and the reference models' tests live outside
    // DOMAIN (cli fn names like `run`, and test fns, would alias into the
    // name-based call graph and distort the reachability families), so
    // their determinism scan runs over a separate mini-workspace that
    // never touches the graph.
    let outside = [SERVER_DETERMINISM_SCOPE, REFERENCE_TEST_SCOPE].concat();
    let outside_ws = Workspace::load(root, &outside)?;
    determinism(&outside_ws, &outside, &mut findings);

    let cg = callgraph::build(&ws);

    // Panic-reachability: entries are the solver-contract surfaces of
    // the result-affecting compute crates.
    let panic_entry = |file: &WsFile, f: &FnItem| {
        in_panic_scope(file)
            && (f.name.starts_with("solve")
                || f.name.starts_with("compute_")
                || f.name.starts_with("run"))
    };
    let panic_reach = callgraph::reachable(&ws, &cg, panic_entry);
    let mut entry_points = panic_reach.values().filter(|c| c.len() == 1).count();
    reachability_findings(
        &ws,
        &panic_reach,
        "panic-reachability",
        // Reported in the panic-freedom crates only: workloads are
        // input encoders whose arithmetic the overflow audit owns.
        in_panic_scope,
        |ops| {
            let mut cats = Vec::new();
            if !ops.index.is_empty() {
                cats.push((
                    format!("{} slice-index op(s)", ops.index.len()),
                    ops.index.clone(),
                ));
            }
            if !ops.divmod.is_empty() {
                cats.push((
                    format!("{} non-literal `/`‍/`%` op(s)", ops.divmod.len()),
                    ops.divmod.clone(),
                ));
            }
            if !ops.unwrap.is_empty() {
                cats.push((
                    format!("{} `.unwrap()` call(s)", ops.unwrap.len()),
                    ops.unwrap.clone(),
                ));
            }
            cats
        },
        "bound the index/divisor (get/checked_div, slices via iterators) or vouch for the \
         whole fn with one audited lint.allow.toml entry matching its signature",
        &mut findings,
    );

    // Overflow-audit: entries are the workload-encoding surfaces; only
    // workloads fns are reported.
    let encode_entry = |file: &WsFile, f: &FnItem| {
        file.path.starts_with("crates/workloads/src")
            && (f.name.starts_with("encode")
                || f.signature.contains("QuboProblem")
                || f.signature.contains("IsingGraph")
                || f.signature.contains("EncodeError"))
    };
    let encode_reach = callgraph::reachable(&ws, &cg, encode_entry);
    entry_points += encode_reach.values().filter(|c| c.len() == 1).count();
    reachability_findings(
        &ws,
        &encode_reach,
        "overflow-audit",
        |file| file.path.starts_with("crates/workloads/src"),
        |ops| {
            if ops.arith.is_empty() {
                Vec::new()
            } else {
                vec![(
                    format!("{} unchecked `+`/`-`/`*` op(s)", ops.arith.len()),
                    ops.arith.clone(),
                )]
            }
        },
        "accumulate in i64 and narrow through workloads::encode::checked_coefficient \
         (or checked_*), or vouch for the fn with an audited lint.allow.toml entry",
        &mut findings,
    );

    findings
        .sort_by(|a, b| (a.lint, a.path.as_str(), a.line).cmp(&(b.lint, b.path.as_str(), b.line)));
    let stats = Stats {
        files_scanned: ws.files.len() + outside_ws.files.len(),
        functions: ws.files.iter().map(|f| f.parsed.fns.len()).sum(),
        entry_points,
    };
    Ok(Analysis { findings, stats })
}

/// Serializes findings + stats as a `sachi.analyze.v1` JSON document
/// (validated by [`validate_analysis`]; schema-smoked in ci.sh).
pub fn to_json(findings: &[Finding], stats: &Stats, elapsed_ms: u64) -> String {
    use sachi_obs::json::escape;
    let mut by_family: Vec<(String, usize)> =
        FAMILIES.iter().map(|f| (f.to_string(), 0usize)).collect();
    by_family.push(("allowlist".to_string(), 0));
    for f in findings {
        if let Some(slot) = by_family.iter_mut().find(|(name, _)| name == f.lint) {
            slot.1 += 1;
        }
    }
    let mut out = String::with_capacity(1024);
    out.push_str("{\n  \"schema\": \"sachi.analyze.v1\",\n  \"summary\": {");
    for (i, (name, n)) in by_family.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    \"{}\": {n}",
            escape(&name.replace('-', "_"))
        ));
    }
    out.push_str(&format!(",\n    \"total\": {}\n  }},\n", findings.len()));
    out.push_str(&format!(
        "  \"stats\": {{\n    \"files_scanned\": {},\n    \"functions\": {},\n    \
         \"entry_points\": {},\n    \"elapsed_ms\": {elapsed_ms}\n  }},\n",
        stats.files_scanned, stats.functions, stats.entry_points
    ));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"lint\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            escape(f.lint),
            escape(&f.path),
            f.line,
            escape(&f.message)
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Validates a `sachi.analyze.v1` document: structure, required keys,
/// and summary/total consistency. The ci.sh schema smoke pipes
/// `analyze --json` through this.
pub fn validate_analysis(text: &str) -> Result<(), String> {
    let doc = sachi_obs::json::parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(|v| v.as_str())
        .ok_or("missing `schema`")?;
    if schema != "sachi.analyze.v1" {
        return Err(format!("unexpected schema `{schema}`"));
    }
    let summary = doc
        .get("summary")
        .and_then(|v| v.as_obj())
        .ok_or("missing `summary` object")?;
    for family in FAMILIES {
        let key = family.replace('-', "_");
        if !summary.iter().any(|(k, _)| *k == key) {
            return Err(format!("summary missing `{key}`"));
        }
    }
    let total = doc
        .get("summary")
        .and_then(|v| v.get("total"))
        .and_then(|v| v.as_num())
        .ok_or("summary missing numeric `total`")?;
    let stats = doc
        .get("stats")
        .and_then(|v| v.as_obj())
        .ok_or("missing `stats` object")?;
    for key in ["files_scanned", "functions", "entry_points", "elapsed_ms"] {
        if !stats.iter().any(|(k, v)| k == key && v.as_num().is_some()) {
            return Err(format!("stats missing numeric `{key}`"));
        }
    }
    let findings = doc
        .get("findings")
        .and_then(|v| v.as_arr())
        .ok_or("missing `findings` array")?;
    if findings.len() as f64 != total {
        return Err(format!(
            "summary.total = {total} but findings array has {} entries",
            findings.len()
        ));
    }
    for (i, f) in findings.iter().enumerate() {
        for key in ["lint", "path", "message"] {
            if f.get(key).and_then(|v| v.as_str()).is_none() {
                return Err(format!("findings[{i}] missing string `{key}`"));
            }
        }
        if f.get("line").and_then(|v| v.as_num()).is_none() {
            return Err(format!("findings[{i}] missing numeric `line`"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(root: &Path, p: &str, content: &str) {
        let path = root.join(p);
        std::fs::create_dir_all(path.parent().expect("file paths have parents"))
            .expect("create fixture dirs");
        std::fs::write(path, content).expect("write fixture file");
    }

    fn fixture_root(tag: &str) -> std::path::PathBuf {
        let root = std::env::temp_dir().join(format!("xtask-analyze-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    /// The acceptance fixture from ISSUE 6: a `HashMap` iteration in
    /// `sachi-ising` and an unchecked index reachable from `solve`
    /// through a helper in another crate must both be reported.
    #[test]
    fn seeded_fixture_fires_determinism_and_reachability() {
        let root = fixture_root("seeded");
        mk(
            &root,
            "crates/ising/src/lib.rs",
            "//! d\npub fn order(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {\n    m.iter().map(|(k, _)| *k).collect()\n}\n",
        );
        mk(
            &root,
            "crates/core/src/lib.rs",
            "//! d\npub fn solve(v: &[u8]) -> u8 {\n    helper(v)\n}\nfn helper(v: &[u8]) -> u8 {\n    v[3]\n}\nfn unreachable_helper(v: &[u8]) -> u8 {\n    v[0]\n}\n",
        );
        let analysis = run(&root).expect("analyze runs");
        let lints: Vec<&str> = analysis.findings.iter().map(|f| f.lint).collect();
        assert!(lints.contains(&"determinism"), "{:?}", analysis.findings);
        assert!(
            lints.contains(&"panic-reachability"),
            "{:?}",
            analysis.findings
        );
        // The index in `helper` is reported (reachable via solve) with
        // its chain; the one in `unreachable_helper` is not.
        let pr: Vec<&Finding> = analysis
            .findings
            .iter()
            .filter(|f| f.lint == "panic-reachability")
            .collect();
        assert!(
            pr.iter()
                .any(|f| f.message.contains("`helper`") && f.message.contains("solve → helper")),
            "{pr:?}"
        );
        assert!(
            !pr.iter().any(|f| f.message.contains("unreachable_helper")),
            "{pr:?}"
        );
        std::fs::remove_dir_all(&root).expect("clean up fixture");
    }

    #[test]
    fn determinism_flags_clocks_thread_identity_and_env() {
        let root = fixture_root("det");
        mk(
            &root,
            "crates/obs/src/lib.rs",
            "//! d\npub fn now() -> std::time::Instant { std::time::Instant::now() }\npub fn who() -> String { format!(\"{:?}\", std::thread::current().id()) }\npub fn cfg() -> Option<String> { std::env::var(\"SACHI\").ok() }\n",
        );
        let analysis = run(&root).expect("analyze runs");
        let msgs: Vec<&str> = analysis
            .findings
            .iter()
            .filter(|f| f.lint == "determinism")
            .map(|f| f.message.as_str())
            .collect();
        assert!(msgs.iter().any(|m| m.contains("std::time")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("Instant")), "{msgs:?}");
        assert!(
            msgs.iter().any(|m| m.contains("thread::current")),
            "{msgs:?}"
        );
        assert!(msgs.iter().any(|m| m.contains("env::var")), "{msgs:?}");
        std::fs::remove_dir_all(&root).expect("clean up fixture");
    }

    /// ISSUE 8 acceptance: the daemon modules are in the determinism
    /// scope (a wall-clock read in the frame decoder would be flagged),
    /// while `clock.rs` — the sanctioned `std::time` shim — is not.
    #[test]
    fn determinism_covers_the_serve_modules_but_not_the_clock_shim() {
        let root = fixture_root("srv");
        mk(
            &root,
            "crates/cli/src/protocol.rs",
            "//! d\npub fn stamp() -> std::time::Instant { std::time::Instant::now() }\n",
        );
        mk(
            &root,
            "crates/cli/src/serve.rs",
            "//! d\npub fn who() -> String { format!(\"{:?}\", std::thread::current().id()) }\n",
        );
        mk(
            &root,
            "crates/cli/src/clock.rs",
            "//! d\npub fn millis(ms: u64) -> std::time::Duration { std::time::Duration::from_millis(ms) }\n",
        );
        let analysis = run(&root).expect("analyze runs");
        let det: Vec<&Finding> = analysis
            .findings
            .iter()
            .filter(|f| f.lint == "determinism")
            .collect();
        assert!(
            det.iter()
                .any(|f| f.path.ends_with("protocol.rs") && f.message.contains("std::time")),
            "{det:?}"
        );
        assert!(
            det.iter()
                .any(|f| f.path.ends_with("serve.rs") && f.message.contains("thread::current")),
            "{det:?}"
        );
        assert!(!det.iter().any(|f| f.path.ends_with("clock.rs")), "{det:?}");
        std::fs::remove_dir_all(&root).expect("clean up fixture");
    }

    /// ISSUE 10 acceptance: the tempering module lives in
    /// `crates/ising/src`, inside both lint scopes — a wall-clock read
    /// in a swap scheduler and an unchecked rung index reachable from
    /// the tempered solve entry must both be reported there. (The real
    /// module passes these lints; ci.sh's `xtask analyze` gate proves
    /// it on every run.)
    #[test]
    fn tempering_module_is_covered_by_determinism_and_reachability() {
        let root = fixture_root("pt");
        mk(
            &root,
            "crates/ising/src/tempering.rs",
            "//! d\npub fn solve_tempered(energies: &[f64]) -> f64 {\n    swap_pair(energies, 1)\n}\nfn swap_pair(energies: &[f64], i: usize) -> f64 {\n    energies[i] - energies[i + 1]\n}\npub fn swap_clock() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
        );
        let analysis = run(&root).expect("analyze runs");
        let det: Vec<&Finding> = analysis
            .findings
            .iter()
            .filter(|f| f.lint == "determinism")
            .collect();
        assert!(
            det.iter()
                .any(|f| f.path.ends_with("tempering.rs") && f.message.contains("std::time")),
            "{det:?}"
        );
        let pr: Vec<&Finding> = analysis
            .findings
            .iter()
            .filter(|f| f.lint == "panic-reachability")
            .collect();
        assert!(
            pr.iter().any(|f| f.path.ends_with("tempering.rs")
                && f.message.contains("`swap_pair`")
                && f.message.contains("solve_tempered → swap_pair")),
            "{pr:?}"
        );
        std::fs::remove_dir_all(&root).expect("clean up fixture");
    }

    #[test]
    fn determinism_ignores_comments_and_strings() {
        let root = fixture_root("detcs");
        mk(
            &root,
            "crates/mem/src/lib.rs",
            "//! HashMap in docs is fine\npub fn f() -> &'static str {\n    // HashMap in a comment\n    \"HashMap in a string\"\n}\n",
        );
        let analysis = run(&root).expect("analyze runs");
        assert!(
            analysis.findings.iter().all(|f| f.lint != "determinism"),
            "{:?}",
            analysis.findings
        );
        std::fs::remove_dir_all(&root).expect("clean up fixture");
    }

    #[test]
    fn overflow_audit_scopes_to_encoding_paths() {
        let root = fixture_root("ovf");
        mk(
            &root,
            "crates/workloads/src/lib.rs",
            "//! d\npub struct QuboProblem;\npub fn encode_thing(a: i32, b: i32) -> QuboProblem {\n    let _ = scale(a, b);\n    QuboProblem\n}\nfn scale(a: i32, b: i32) -> i32 {\n    a * b + 1\n}\npub fn unrelated_math(a: i32) -> i32 {\n    a * 3\n}\n",
        );
        let analysis = run(&root).expect("analyze runs");
        let ovf: Vec<&Finding> = analysis
            .findings
            .iter()
            .filter(|f| f.lint == "overflow-audit")
            .collect();
        assert!(ovf.iter().any(|f| f.message.contains("`scale`")), "{ovf:?}");
        assert!(
            !ovf.iter().any(|f| f.message.contains("unrelated_math")),
            "{ovf:?}"
        );
        std::fs::remove_dir_all(&root).expect("clean up fixture");
    }

    #[test]
    fn ops_respect_sanctioned_macros_and_literals() {
        let root = fixture_root("ops");
        mk(
            &root,
            "crates/core/src/lib.rs",
            "//! d\npub fn solve(v: &[u8], n: u8) -> u8 {\n    assert!(v[0] > 0);\n    debug_assert_eq!(v[1], 1);\n    let half = n / 2;\n    let all = &v[..];\n    half + all.len() as u8\n}\n",
        );
        let analysis = run(&root).expect("analyze runs");
        let pr: Vec<&Finding> = analysis
            .findings
            .iter()
            .filter(|f| f.lint == "panic-reachability")
            .collect();
        // Indexing inside assert!/debug_assert_eq! is sanctioned, `/ 2`
        // is a literal divisor, `[..]` cannot panic → no findings.
        assert!(pr.is_empty(), "{pr:?}");
        std::fs::remove_dir_all(&root).expect("clean up fixture");
    }

    #[test]
    fn json_round_trips_through_validator() {
        let findings = vec![Finding {
            lint: "determinism",
            path: "crates/ising/src/lib.rs".into(),
            line: 7,
            message: "a \"quoted\" message".into(),
            raw: "let m = HashMap::new();".into(),
        }];
        let stats = Stats {
            files_scanned: 3,
            functions: 9,
            entry_points: 2,
        };
        let doc = to_json(&findings, &stats, 42);
        validate_analysis(&doc).expect("valid document");
        // Tampered totals fail.
        let bad = doc.replace("\"total\": 1", "\"total\": 5");
        assert!(validate_analysis(&bad).is_err());
    }
}
