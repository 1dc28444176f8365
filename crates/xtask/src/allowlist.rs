//! Parser for `lint.allow.toml`, the audited-exception list.
//!
//! The file is a TOML *subset* parsed by hand (the workspace builds
//! offline, so no `toml` crate): `#` comments, blank lines, `[[allow]]`
//! section headers, and `key = "string"` pairs. Anything else is a hard
//! error — an allowlist that cannot be audited at a glance defeats its
//! purpose.
//!
//! Each entry must carry four keys:
//!
//! ```toml
//! [[allow]]
//! lint = "unit-safety"
//! path = "crates/mem/src/units.rs"
//! contains = "self.0 as f64"
//! reason = "one-line justification"
//! ```
//!
//! A finding is suppressed when an entry's `lint` and `path` match
//! exactly and the finding's source line contains `contains`.

use crate::lints::Finding;
use std::path::Path;

/// One audited exception.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Lint name the exception applies to.
    pub lint: String,
    /// Repo-relative path (forward slashes) of the file.
    pub path: String,
    /// Substring of the offending source line.
    pub contains: String,
    /// One-line human justification. Must be non-empty.
    pub reason: String,
    /// Line in `lint.allow.toml` where the entry starts (for diagnostics).
    pub line: usize,
    /// Line of the entry's last `key = "value"` pair (for pruning).
    pub end_line: usize,
}

/// Parses the allowlist. Returns entries or a description of the first
/// syntax problem.
pub fn parse(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries: Vec<AllowEntry> = Vec::new();
    // (lint, path, contains, reason, header line, last key line) for the
    // section being built.
    type PartialEntry = (
        Option<String>,
        Option<String>,
        Option<String>,
        Option<String>,
        usize,
        usize,
    );
    let mut current: Option<PartialEntry> = None;

    fn finish(current: Option<PartialEntry>, entries: &mut Vec<AllowEntry>) -> Result<(), String> {
        let Some((lint, path, contains, reason, line, end_line)) = current else {
            return Ok(());
        };
        let missing = |k: &str| format!("entry at line {line}: missing key `{k}`");
        let entry = AllowEntry {
            lint: lint.ok_or_else(|| missing("lint"))?,
            path: path.ok_or_else(|| missing("path"))?,
            contains: contains.ok_or_else(|| missing("contains"))?,
            reason: reason.ok_or_else(|| missing("reason"))?,
            line,
            end_line,
        };
        if entry.reason.trim().is_empty() {
            return Err(format!("entry at line {line}: `reason` must not be empty"));
        }
        if entry.contains.is_empty() {
            return Err(format!(
                "entry at line {line}: `contains` must not be empty"
            ));
        }
        entries.push(entry);
        Ok(())
    }

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            finish(current.take(), &mut entries)?;
            current = Some((None, None, None, None, lineno, lineno));
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "line {lineno}: expected `key = \"value\"`, got: {line}"
            ));
        };
        let key = key.trim();
        let value = value.trim();
        if !(value.starts_with('"') && value.ends_with('"') && value.len() >= 2) {
            return Err(format!(
                "line {lineno}: value for `{key}` must be a double-quoted string"
            ));
        }
        let value = value[1..value.len() - 1].to_string();
        if value.contains('"') || value.contains('\\') {
            return Err(format!(
                "line {lineno}: escapes are not supported in this TOML subset; \
                 pick a `contains` substring without quotes or backslashes"
            ));
        }
        let Some(slot) = current.as_mut() else {
            return Err(format!(
                "line {lineno}: `{key}` outside any [[allow]] section"
            ));
        };
        let field = match key {
            "lint" => &mut slot.0,
            "path" => &mut slot.1,
            "contains" => &mut slot.2,
            "reason" => &mut slot.3,
            other => return Err(format!("line {lineno}: unknown key `{other}`")),
        };
        if field.is_some() {
            return Err(format!("line {lineno}: duplicate key `{key}`"));
        }
        *field = Some(value);
        slot.5 = lineno;
    }
    finish(current, &mut entries)?;
    Ok(entries)
}

/// Loads and parses `root/lint.allow.toml`; a missing file is an empty
/// allowlist.
pub fn load(root: &Path) -> Result<Vec<AllowEntry>, String> {
    let path = root.join("lint.allow.toml");
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("lint.allow.toml: {e}"))
}

/// The most entries `lint.allow.toml` may hold.
pub const BUDGET: usize = 48;

/// A whole-file finding when `entries` exceed [`BUDGET`], so the budget
/// is enforced rather than only documented — or fall short of it, so a
/// change that pays off a voucher lowers the budget in the same change
/// and the slack cannot be spent on a new one later.
pub fn over_budget(entries: &[AllowEntry]) -> Option<Finding> {
    let message = match entries.len().cmp(&BUDGET) {
        std::cmp::Ordering::Equal => return None,
        std::cmp::Ordering::Greater => format!(
            "{} entries exceed the budget of {BUDGET}; fix the code instead of vouching for it",
            entries.len()
        ),
        std::cmp::Ordering::Less => format!(
            "{} entries fall short of the budget of {BUDGET}; lower BUDGET (and the \
             lint.allow.toml header) to match",
            entries.len()
        ),
    };
    Some(Finding {
        lint: "allowlist-budget",
        path: "lint.allow.toml".into(),
        line: 0,
        message,
        raw: String::new(),
    })
}

/// True when `entry` suppresses `finding`.
fn allows(entry: &AllowEntry, finding: &Finding) -> bool {
    entry.lint == finding.lint
        && entry.path == finding.path
        && finding.raw.contains(&entry.contains)
}

/// Applies the allowlist to `findings` in place: matched findings are
/// removed, and every *unused* entry whose `lint` belongs to one of the
/// `families` being run is reported as a stale-entry finding (with the
/// nearest surviving line, so the fix is obvious). Returns the indices
/// (into `entries`) of the stale entries — `lint --fix-allowlist`
/// prunes exactly those.
pub fn apply(
    root: &Path,
    entries: &[AllowEntry],
    families: &[&str],
    findings: &mut Vec<Finding>,
) -> Vec<usize> {
    let mut used = vec![false; entries.len()];
    findings.retain(|f| {
        let hit = entries.iter().position(|e| allows(e, f));
        if let Some(i) = hit {
            used[i] = true;
        }
        hit.is_none()
    });
    let mut stale = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        if used[i] || !families.contains(&entry.lint.as_str()) {
            continue;
        }
        stale.push(i);
        let nearest = std::fs::read_to_string(root.join(&entry.path))
            .ok()
            .and_then(|text| {
                text.lines()
                    .position(|l| l.contains(&entry.contains))
                    .map(|idx| idx + 1)
            });
        let hint = match nearest {
            Some(line) => format!(
                "the pattern still matches {}:{line}, but no `{}` finding fires there — \
                 the code may have moved out of the lint's scope, or the finding was fixed \
                 for a different reason",
                entry.path, entry.lint
            ),
            None => format!(
                "no line in `{}` contains the pattern any more — the excused code is gone",
                entry.path
            ),
        };
        findings.push(Finding {
            lint: "allowlist",
            path: "lint.allow.toml".into(),
            line: entry.line,
            message: format!(
                "stale `{}` entry (contains = \"{}\"): {hint}; delete it or fix the pattern \
                 (`cargo run -p xtask -- lint --fix-allowlist` prunes dead entries)",
                entry.lint, entry.contains
            ),
            raw: String::new(),
        });
    }
    stale
}

/// Returns `text` with the given entries (by index into the parse
/// order) removed — the `[[allow]]` header through the last key line —
/// and runs of multiple blank lines collapsed. Comments are preserved.
pub fn remove_entries(text: &str, entries: &[AllowEntry], stale: &[usize]) -> String {
    let doomed: Vec<(usize, usize)> = stale
        .iter()
        .filter_map(|&i| entries.get(i).map(|e| (e.line, e.end_line)))
        .collect();
    let mut out: Vec<&str> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        if doomed.iter().any(|&(s, e)| lineno >= s && lineno <= e) {
            continue;
        }
        out.push(raw);
    }
    let mut collapsed = String::new();
    let mut prev_blank = false;
    for line in out {
        let blank = line.trim().is_empty();
        if blank && prev_blank {
            continue;
        }
        prev_blank = blank;
        collapsed.push_str(line);
        collapsed.push('\n');
    }
    collapsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_two_entries_with_comments() {
        let text = "# header\n\n[[allow]]\nlint = \"unit-safety\"\npath = \"a/b.rs\"\ncontains = \"x as f64\"\nreason = \"ratio\"\n\n[[allow]]\nlint = \"panic-freedom\"\npath = \"c.rs\"\ncontains = \".unwrap()\"\nreason = \"infallible\"\n";
        let entries = parse(text).expect("parses");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].lint, "unit-safety");
        assert_eq!(entries[0].line, 3);
        assert_eq!(entries[1].contains, ".unwrap()");
    }

    #[test]
    fn rejects_missing_reason() {
        let text = "[[allow]]\nlint = \"x\"\npath = \"p\"\ncontains = \"c\"\n";
        let err = parse(text).unwrap_err();
        assert!(err.contains("missing key `reason`"), "{err}");
    }

    #[test]
    fn rejects_empty_reason() {
        let text = "[[allow]]\nlint = \"x\"\npath = \"p\"\ncontains = \"c\"\nreason = \" \"\n";
        assert!(parse(text).unwrap_err().contains("must not be empty"));
    }

    #[test]
    fn rejects_unquoted_values_and_stray_keys() {
        assert!(parse("[[allow]]\nlint = bare\n").is_err());
        assert!(parse("lint = \"x\"\n").unwrap_err().contains("outside any"));
        assert!(parse("[[allow]]\nwat = \"x\"\n")
            .unwrap_err()
            .contains("unknown key"));
    }

    #[test]
    fn an_over_budget_allowlist_fails() {
        let entry = "[[allow]]\nlint = \"x\"\npath = \"p\"\ncontains = \"c\"\nreason = \"r\"\n";
        let at_budget = parse(&entry.repeat(BUDGET)).expect("parses");
        assert!(over_budget(&at_budget).is_none());
        let over = parse(&entry.repeat(BUDGET + 1)).expect("parses");
        let finding = over_budget(&over).expect("over budget");
        assert_eq!(finding.lint, "allowlist-budget");
        assert!(
            finding.message.contains(&format!("{} entries", BUDGET + 1)),
            "{}",
            finding.message
        );
    }

    #[test]
    fn an_under_budget_allowlist_fails() {
        let entry = "[[allow]]\nlint = \"x\"\npath = \"p\"\ncontains = \"c\"\nreason = \"r\"\n";
        let under = parse(&entry.repeat(BUDGET - 1)).expect("parses");
        let finding = over_budget(&under).expect("under budget");
        assert_eq!(finding.lint, "allowlist-budget");
        assert!(
            finding
                .message
                .contains(&format!("{} entries fall short", BUDGET - 1)),
            "{}",
            finding.message
        );
    }

    #[test]
    fn rejects_duplicate_keys() {
        let text = "[[allow]]\nlint = \"a\"\nlint = \"b\"\n";
        assert!(parse(text).unwrap_err().contains("duplicate key"));
    }
}
