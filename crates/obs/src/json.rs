//! JSON snapshot writer, minimal parser, and schema validator.
//!
//! The snapshot document (`schema: "sachi.metrics.v1"`) is:
//!
//! ```json
//! {
//!   "schema": "sachi.metrics.v1",
//!   "counters": { "sram_rbl_discharges": 123 },
//!   "gauges": { "l1_hit_rate": 0.5 },
//!   "histograms": {
//!     "replica_total_cycles": {
//!       "count": 4, "sum": 4096,
//!       "buckets": [ { "le": "1024", "count": 4 }, { "le": "+Inf", "count": 0 } ]
//!     }
//!   },
//!   "spans": [
//!     { "phase": "upload", "sweep": 0, "round": 0, "start": 0, "end": 128, "events": 1 }
//!   ]
//! }
//! ```
//!
//! Writer guarantees: keys emit in `BTreeMap` (sorted) order, strings
//! are escaped per RFC 8259, histogram buckets list the non-empty
//! finite buckets in ascending bound order followed by the `+Inf`
//! bucket (counts are **non-cumulative**; the Prometheus writer is the
//! cumulative one). The parser is a strict recursive-descent RFC 8259
//! subset (no comments, no trailing commas) used by the golden tests
//! and `xtask validate-metrics` — it exists so validation needs no
//! external dependency. It also decodes every daemon request, so its
//! recursion is bounded: arrays and objects nested deeper than
//! [`MAX_DEPTH`] are a typed [`JsonError::TooDeep`], never a stack
//! overflow.

use crate::registry::{Histogram, MetricsRegistry, HISTOGRAM_BUCKETS};
use crate::span::PhaseSpan;

/// Escapes a string for embedding in a JSON document (quotes excluded).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an f64 the way the snapshot stores gauges: shortest
/// round-trip form, with a trailing `.0` for integral values so the
/// value reads as a float.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        return "null".to_string();
    }
    if v.is_infinite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

fn write_histogram(out: &mut String, h: &Histogram) {
    out.push_str(&format!(
        "{{\"count\":{},\"sum\":{},\"buckets\":[",
        h.count(),
        h.sum()
    ));
    let counts = h.bucket_counts();
    let mut first = true;
    for (k, &c) in counts.iter().enumerate().take(HISTOGRAM_BUCKETS) {
        if c == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"le\":\"{}\",\"count\":{}}}",
            Histogram::bucket_bound(k),
            c
        ));
    }
    if !first {
        out.push(',');
    }
    out.push_str(&format!(
        "{{\"le\":\"+Inf\",\"count\":{}}}",
        counts[HISTOGRAM_BUCKETS]
    ));
    out.push_str("]}");
}

/// Serializes a registry (and optional spans) as a `sachi.metrics.v1`
/// snapshot. Deterministic: sorted keys, stable number formatting.
pub fn write_snapshot(reg: &MetricsRegistry, spans: &[PhaseSpan]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"sachi.metrics.v1\",\n  \"counters\": {");
    let mut first = true;
    for (name, v) in reg.counters() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{}\": {}", escape(name), v));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });
    out.push_str("  \"gauges\": {");
    first = true;
    for (name, v) in reg.gauges() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{}\": {}", escape(name), fmt_f64(v)));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });
    out.push_str("  \"histograms\": {");
    first = true;
    for (name, h) in reg.histograms() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{}\": ", escape(name)));
        write_histogram(&mut out, h);
    }
    out.push_str(if first { "}" } else { "\n  }" });
    if !spans.is_empty() {
        out.push_str(",\n  \"spans\": [");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"phase\":\"{}\",\"sweep\":{},\"round\":{},\"start\":{},\"end\":{},\"events\":{}}}",
                s.phase.name(),
                s.sweep,
                s.round,
                s.start,
                s.end,
                s.events
            ));
        }
        out.push_str("\n  ]");
    }
    out.push_str("\n}\n");
    out
}

/// A parsed JSON value. Object members keep document order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written as an integer literal (no fraction, no
    /// exponent) that fits an i64, exactly.
    Int(i64),
    /// Any other JSON number, as f64.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value, if this is a number (an integer literal
    /// rounds to the nearest f64, as the f64 parse of its text does).
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The exact value, if this is an integer literal that fits an i64.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            JsonValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(m) => Some(m.as_slice()),
            _ => None,
        }
    }
}

/// How deep arrays and objects may nest. The deepest document the repo
/// writes or validates nests 5 levels (a histogram bucket in a metrics
/// snapshot); the bound keeps the recursive descent's stack use small
/// on any thread, whatever the input.
pub const MAX_DEPTH: usize = 128;

/// A JSON parse failure, at byte offset `pos` of the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The input is not well-formed JSON.
    Syntax {
        /// Byte offset of the failure.
        pos: usize,
        /// What was wrong there.
        msg: String,
    },
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the bracket that went one level too deep.
        pos: usize,
    },
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Syntax { pos, msg } => write!(f, "json parse error at byte {pos}: {msg}"),
            JsonError::TooDeep { pos } => write!(
                f,
                "json parse error at byte {pos}: nesting deeper than {MAX_DEPTH} levels"
            ),
        }
    }
}

impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::Syntax {
            pos: self.pos,
            msg: msg.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(JsonError::TooDeep { pos: self.pos });
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_lit("null", JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(self.err(&format!("unexpected byte '{}'", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let integral = !matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        if integral {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(JsonValue::Int(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(&format!("invalid number '{text}'")))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote or
            // backslash in one piece. Both delimiters are ASCII, so the
            // run starts and ends on char boundaries of the input.
            let start = self.pos;
            let rest = self.bytes.get(start..).unwrap_or_default();
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(
                self.text
                    .get(start..self.pos)
                    .ok_or_else(|| self.err("invalid utf-8 in string"))?,
            );
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                // A backslash: one escape.
                Some(_) => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates unsupported (the writer never emits them).
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("unsupported surrogate escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a JSON document (strict RFC 8259 subset, no trailing input).
///
/// # Errors
///
/// [`JsonError::Syntax`] on malformed input, [`JsonError::TooDeep`]
/// past [`MAX_DEPTH`] levels of nesting. Never panics.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

/// Counter-name prefixes a full solve snapshot must cover (one counter
/// per subsystem at minimum): SRAM tile, L1, DRAM prefetch, design/
/// machine, solver, and fault-recovery counters.
pub const REQUIRED_COUNTER_PREFIXES: [&str; 6] =
    ["sram_", "l1_", "dram_", "machine_", "solver_", "recovery_"];

fn validate_histogram(name: &str, h: &JsonValue) -> Result<(), String> {
    let count = h
        .get("count")
        .and_then(JsonValue::as_num)
        .ok_or_else(|| format!("histogram '{name}': missing numeric 'count'"))?;
    h.get("sum")
        .and_then(JsonValue::as_num)
        .ok_or_else(|| format!("histogram '{name}': missing numeric 'sum'"))?;
    let buckets = h
        .get("buckets")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("histogram '{name}': missing 'buckets' array"))?;
    if buckets.is_empty() {
        return Err(format!("histogram '{name}': empty bucket list"));
    }
    let mut prev_bound: Option<u64> = None;
    let mut total = 0.0;
    for (i, b) in buckets.iter().enumerate() {
        let le = b
            .get("le")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("histogram '{name}': bucket {i} missing 'le'"))?;
        let c = b
            .get("count")
            .and_then(JsonValue::as_num)
            .ok_or_else(|| format!("histogram '{name}': bucket {i} missing 'count'"))?;
        total += c;
        let last = i == buckets.len() - 1;
        if last {
            if le != "+Inf" {
                return Err(format!(
                    "histogram '{name}': last bucket must be '+Inf', got '{le}'"
                ));
            }
        } else {
            let bound: u64 = le
                .parse()
                .map_err(|_| format!("histogram '{name}': non-numeric bound '{le}'"))?;
            if !bound.is_power_of_two() {
                return Err(format!(
                    "histogram '{name}': bound {bound} is not a power of two"
                ));
            }
            if let Some(p) = prev_bound {
                if bound <= p {
                    return Err(format!(
                        "histogram '{name}': bounds not increasing at '{le}'"
                    ));
                }
            }
            prev_bound = Some(bound);
        }
    }
    if (total - count).abs() > 0.5 {
        return Err(format!(
            "histogram '{name}': bucket counts sum to {total}, 'count' says {count}"
        ));
    }
    Ok(())
}

fn validate_structure(root: &JsonValue) -> Result<(), String> {
    let schema = root
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing 'schema' string")?;
    if schema != "sachi.metrics.v1" {
        return Err(format!("unknown schema '{schema}'"));
    }
    let counters = root
        .get("counters")
        .and_then(JsonValue::as_obj)
        .ok_or("missing 'counters' object")?;
    for (name, v) in counters {
        let n = v
            .as_num()
            .ok_or_else(|| format!("counter '{name}' is not a number"))?;
        if n < 0.0 {
            return Err(format!("counter '{name}' is negative"));
        }
    }
    let gauges = root
        .get("gauges")
        .and_then(JsonValue::as_obj)
        .ok_or("missing 'gauges' object")?;
    for (name, v) in gauges {
        if !matches!(v, JsonValue::Int(_) | JsonValue::Num(_) | JsonValue::Null) {
            return Err(format!("gauge '{name}' is not a number"));
        }
    }
    let histograms = root
        .get("histograms")
        .and_then(JsonValue::as_obj)
        .ok_or("missing 'histograms' object")?;
    for (name, h) in histograms {
        validate_histogram(name, h)?;
    }
    if let Some(spans) = root.get("spans") {
        let spans = spans.as_arr().ok_or("'spans' is not an array")?;
        for (i, s) in spans.iter().enumerate() {
            for field in ["sweep", "round", "start", "end", "events"] {
                s.get(field)
                    .and_then(JsonValue::as_num)
                    .ok_or_else(|| format!("span {i}: missing numeric '{field}'"))?;
            }
            let phase = s
                .get("phase")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("span {i}: missing 'phase'"))?;
            let known = [
                "upload",
                "round",
                "h_compute",
                "update",
                "writeback",
                "prefetch",
            ];
            if !known.contains(&phase) {
                return Err(format!("span {i}: unknown phase '{phase}'"));
            }
        }
    }
    Ok(())
}

/// Structurally validates a `sachi.metrics.v1` snapshot document.
pub fn validate_snapshot(text: &str) -> Result<(), String> {
    let root = parse(text)?;
    validate_structure(&root)
}

/// Validates a snapshot from a full `sachi solve` run: structure,
/// counter coverage of every subsystem in
/// [`REQUIRED_COUNTER_PREFIXES`], and span order — top-level spans
/// (upload, round) never step back in start or sweep, and every round
/// child lies inside the round before it.
pub fn validate_solve_snapshot(text: &str) -> Result<(), String> {
    let root = parse(text)?;
    validate_structure(&root)?;
    let counters = root
        .get("counters")
        .and_then(JsonValue::as_obj)
        .ok_or("missing 'counters' object")?;
    for prefix in REQUIRED_COUNTER_PREFIXES {
        if !counters.iter().any(|(name, _)| name.starts_with(prefix)) {
            return Err(format!("no counter with required prefix '{prefix}'"));
        }
    }
    if let Some(spans) = root.get("spans").and_then(JsonValue::as_arr) {
        validate_span_order(spans)?;
    }
    Ok(())
}

/// The span-order half of [`validate_solve_snapshot`]; `spans` passed
/// [`validate_structure`] already.
fn validate_span_order(spans: &[JsonValue]) -> Result<(), String> {
    let num = |s: &JsonValue, field: &str| s.get(field).and_then(JsonValue::as_num).unwrap_or(0.0);
    // (start, sweep) of the last top-level span, and the last round's
    // (sweep, round, start, end).
    let mut last_top: Option<(f64, f64)> = None;
    let mut round: Option<(f64, f64, f64, f64)> = None;
    for (i, s) in spans.iter().enumerate() {
        let phase = s.get("phase").and_then(JsonValue::as_str).unwrap_or("");
        let (start, end, sweep) = (num(s, "start"), num(s, "end"), num(s, "sweep"));
        if end < start {
            return Err(format!("span {i}: ends at {end} before its start {start}"));
        }
        if phase == "upload" || phase == "round" {
            if let Some((prev_start, prev_sweep)) = last_top {
                if start < prev_start || sweep < prev_sweep {
                    return Err(format!(
                        "span {i}: {phase} at sweep {sweep}, cycle {start} steps back from \
                         sweep {prev_sweep}, cycle {prev_start}"
                    ));
                }
            }
            last_top = Some((start, sweep));
            round = (phase == "round").then_some((sweep, num(s, "round"), start, end));
            continue;
        }
        match round {
            Some((r_sweep, r_round, r_start, r_end))
                if sweep == r_sweep
                    && num(s, "round") == r_round
                    && start >= r_start
                    && end <= r_end => {}
            _ => return Err(format!("span {i}: {phase} lies outside its round")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SolvePhase;

    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("sram_rbl_discharges", 42);
        reg.counter_add("alpha", 1);
        reg.gauge_set("l1_hit_rate", 0.75);
        reg.gauge_set("whole", 2.0);
        reg.observe("replica_total_cycles", 3);
        reg.observe("replica_total_cycles", 1000);
        reg
    }

    #[test]
    fn writer_emits_sorted_keys_and_round_trips() {
        let reg = sample_registry();
        let doc = write_snapshot(&reg, &[]);
        // Sorted: "alpha" before "sram_".
        let a = doc.find("\"alpha\"").expect("alpha");
        let s = doc.find("\"sram_rbl_discharges\"").expect("sram");
        assert!(a < s);
        assert!(doc.contains("\"whole\": 2.0"));
        validate_snapshot(&doc).expect("snapshot validates");
        let root = parse(&doc).expect("parses");
        assert_eq!(
            root.get("counters")
                .and_then(|c| c.get("sram_rbl_discharges"))
                .and_then(JsonValue::as_num),
            Some(42.0)
        );
    }

    #[test]
    fn writer_escapes_strings() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("weird\"name\\with\ncontrol\u{1}", 1);
        let doc = write_snapshot(&reg, &[]);
        assert!(doc.contains("weird\\\"name\\\\with\\ncontrol\\u0001"));
        let root = parse(&doc).expect("escaped doc parses");
        let counters = root
            .get("counters")
            .and_then(JsonValue::as_obj)
            .expect("counters");
        assert_eq!(counters[0].0, "weird\"name\\with\ncontrol\u{1}");
    }

    #[test]
    fn histogram_buckets_serialize_bounds() {
        let reg = sample_registry();
        let doc = write_snapshot(&reg, &[]);
        // 3 lands in (2,4] -> le 4; 1000 in (512,1024] -> le 1024.
        assert!(doc.contains("{\"le\":\"4\",\"count\":1}"));
        assert!(doc.contains("{\"le\":\"1024\",\"count\":1}"));
        assert!(doc.contains("{\"le\":\"+Inf\",\"count\":0}"));
    }

    #[test]
    fn spans_serialize_and_validate() {
        let reg = sample_registry();
        let spans = [PhaseSpan {
            phase: SolvePhase::HCompute,
            sweep: 1,
            round: 2,
            start: 10,
            end: 20,
            events: 5,
        }];
        let doc = write_snapshot(&reg, &spans);
        assert!(doc.contains("\"phase\":\"h_compute\""));
        validate_snapshot(&doc).expect("validates with spans");
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"a\":01x}").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let v = parse(r#"{"s":"aA\n","n":-1.5e2,"b":true,"x":null}"#).expect("parses");
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("aA\n"));
        assert_eq!(v.get("n").and_then(JsonValue::as_num), Some(-150.0));
        assert_eq!(v.get("n").and_then(JsonValue::as_int), None);
        assert_eq!(v.get("b"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("x"), Some(&JsonValue::Null));
    }

    #[test]
    fn integer_literals_parse_exactly() {
        let v = parse("[9007199254740993,-0,1.0,1e2,9223372036854775808]").expect("parses");
        let items = v.as_arr().expect("an array");
        let ints: Vec<Option<i64>> = items.iter().map(JsonValue::as_int).collect();
        assert_eq!(
            ints,
            [Some(9_007_199_254_740_993), Some(0), None, None, None]
        );
        // An integer literal still reads as an f64, rounded as its text.
        assert_eq!(items[0].as_num(), Some(9_007_199_254_740_992.0));
    }

    /// A long string of every kind of content: ASCII, 2-, 3- and 4-byte
    /// UTF-8, and every character [`escape`] escapes, with escapes at
    /// the start, at the end and back to back.
    fn long_mixed_string(chars: usize) -> String {
        const ESCAPED: [char; 8] = ['"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{1f}'];
        const PLAIN: [char; 6] = ['a', 'Z', '7', 'é', '€', '𝄞'];
        let mut s: String = ESCAPED.iter().collect();
        let mut k = 0usize;
        while s.chars().count() < chars - ESCAPED.len() {
            // A run of plain chars, then one to three escapes in a row.
            for _ in 0..k % 13 {
                s.push(PLAIN[k % PLAIN.len()]);
                k += 1;
            }
            for _ in 0..1 + k % 3 {
                s.push(ESCAPED[k % ESCAPED.len()]);
                k += 1;
            }
        }
        s.extend(ESCAPED.iter().rev());
        s
    }

    #[test]
    fn long_strings_round_trip_through_escape_and_parse() {
        let s = long_mixed_string(100_000);
        assert!(s.chars().count() >= 100_000);
        let doc = format!("\"{}\"", escape(&s));
        assert_eq!(parse(&doc), Ok(JsonValue::Str(s.clone())));
        // As a key and a value of one object, next to other members.
        let doc = format!("{{\"{0}\":[\"{0}\",1],\"k\":\"{0}\"}}", escape(&s));
        let v = parse(&doc).expect("parses");
        let members = v.as_obj().expect("an object");
        assert_eq!(members[0].0, s);
        assert_eq!(
            members[0].1.as_arr().and_then(|a| a[0].as_str()),
            Some(s.as_str())
        );
        assert_eq!(v.get("k").and_then(JsonValue::as_str), Some(s.as_str()));
        // Every escape the parser reads, at the start, the end and back
        // to back, including the ones `escape` never writes.
        let escapes = r#""\/\b\fé€\"\\\n\r\t x A\t\n\/""#;
        assert_eq!(
            parse(escapes),
            Ok(JsonValue::Str("/\u{8}\u{c}é€\"\\\n\r\t x A\t\n/".into()))
        );
    }

    #[test]
    fn long_unterminated_string_fails_at_the_end_of_input() {
        let ascii = format!("\"{}", "a".repeat(100_000));
        assert_eq!(
            parse(&ascii),
            Err(JsonError::Syntax {
                pos: 100_001,
                msg: "unterminated string".into()
            })
        );
        // Multi-byte content and a trailing escape: the offset is still
        // the input's byte length.
        let wide = format!("\"{}\\n", "é€".repeat(20_000));
        assert_eq!(
            parse(&wide),
            Err(JsonError::Syntax {
                pos: wide.len(),
                msg: "unterminated string".into()
            })
        );
        // A bad escape deep in a long string is reported where it sits.
        let bad = format!("\"{}\\q\"", "b".repeat(50_000));
        assert_eq!(
            parse(&bad),
            Err(JsonError::Syntax {
                pos: 50_002,
                msg: "invalid escape".into()
            })
        );
    }

    #[test]
    fn validator_rejects_bad_snapshots() {
        assert!(validate_snapshot("{}").is_err());
        assert!(validate_snapshot(
            r#"{"schema":"sachi.metrics.v1","counters":{"a":-1},"gauges":{},"histograms":{}}"#
        )
        .is_err());
        assert!(validate_snapshot(
            r#"{"schema":"wrong","counters":{},"gauges":{},"histograms":{}}"#
        )
        .is_err());
        // Histogram without +Inf terminal bucket.
        assert!(validate_snapshot(
            r#"{"schema":"sachi.metrics.v1","counters":{},"gauges":{},
                "histograms":{"h":{"count":1,"sum":1,"buckets":[{"le":"1","count":1}]}}}"#
        )
        .is_err());
        // Non-power-of-two bound.
        assert!(validate_snapshot(
            r#"{"schema":"sachi.metrics.v1","counters":{},"gauges":{},
                "histograms":{"h":{"count":1,"sum":3,
                "buckets":[{"le":"3","count":1},{"le":"+Inf","count":0}]}}}"#
        )
        .is_err());
    }

    #[test]
    fn solve_snapshot_requires_subsystem_coverage() {
        let reg = sample_registry();
        let doc = write_snapshot(&reg, &[]);
        let err = validate_solve_snapshot(&doc).expect_err("missing prefixes");
        assert!(err.contains("l1_") || err.contains("dram_") || err.contains("machine_"));

        let mut full = MetricsRegistry::new();
        for p in REQUIRED_COUNTER_PREFIXES {
            full.counter_add(&format!("{p}x"), 1);
        }
        validate_solve_snapshot(&write_snapshot(&full, &[])).expect("full coverage passes");
    }

    fn span(phase: SolvePhase, sweep: u64, start: u64, end: u64) -> PhaseSpan {
        PhaseSpan {
            phase,
            sweep,
            round: 0,
            start,
            end,
            events: 1,
        }
    }

    #[test]
    fn solve_snapshot_rejects_disordered_spans() {
        let mut full = MetricsRegistry::new();
        for p in REQUIRED_COUNTER_PREFIXES {
            full.counter_add(&format!("{p}x"), 1);
        }
        let check = |spans: &[PhaseSpan]| validate_solve_snapshot(&write_snapshot(&full, spans));
        let ordered = [
            span(SolvePhase::Upload, 0, 0, 10),
            span(SolvePhase::Round, 0, 10, 30),
            span(SolvePhase::HCompute, 0, 10, 25),
            span(SolvePhase::Update, 0, 30, 30),
            span(SolvePhase::Upload, 1, 30, 40),
            span(SolvePhase::Round, 1, 40, 60),
        ];
        check(&ordered).expect("ordered spans pass");

        let mut restarted = ordered;
        restarted[4] = span(SolvePhase::Upload, 0, 0, 10);
        let err = check(&restarted).expect_err("upload restarting at cycle 0");
        assert!(err.contains("steps back"), "{err}");

        let mut relabelled = ordered;
        relabelled[5].sweep = 0;
        assert!(check(&relabelled).is_err(), "sweep label steps back");

        let mut overrun = ordered;
        overrun[2].end = 31;
        let err = check(&overrun).expect_err("child past its round's end");
        assert!(err.contains("outside its round"), "{err}");

        let orphan = [span(SolvePhase::HCompute, 0, 0, 5)];
        assert!(check(&orphan).is_err(), "child without a round");
    }
}
