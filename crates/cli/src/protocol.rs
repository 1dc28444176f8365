//! The `sachi serve` wire protocol: length-prefixed JSON frames.
//!
//! A frame is a 4-byte big-endian length followed by that many bytes of
//! UTF-8 JSON. Requests are `{"op": "solve", "job": {...}}`,
//! `{"op": "ping"}`, `{"op": "metrics"}`, or `{"op": "shutdown"}`;
//! responses are `sachi.serve.v1` documents whose `code` field on
//! errors equals the [`SachiError::exit_code`] the one-shot CLI would
//! have exited with (one error table for both front ends).
//!
//! This module sits on the hostile boundary: every byte here arrives
//! from an untrusted client. It is held to the fault-strict lint (no
//! `unwrap`/`expect` on any request path) and the xorshift fuzz test
//! below asserts the decoder returns a typed error — never panics — on
//! truncated frames, oversized length prefixes, invalid UTF-8, and
//! garbage JSON. Decode errors classify into *fatal* (the stream
//! position is lost: truncation, oversize, transport) and *recoverable*
//! (the frame was consumed whole and the connection can keep serving:
//! empty body, bad UTF-8, bad JSON).

use sachi_core::prelude::{DesignKind, JobOutcome, JobPlan, JobSpec, SachiError};
use sachi_ising::prelude::{LadderKind, RecoveryPolicy, Spin};
use sachi_mem::units::{Nanoseconds, Picojoules, UnitRangeError};
use sachi_obs::json::{escape, parse, JsonValue};
use sachi_obs::table::{percent, Table};
use std::fmt;
use std::io::{Read, Write};

/// Response schema identifier.
pub const SCHEMA: &str = "sachi.serve.v1";

/// Hard cap on a frame body (1 MiB). A length prefix beyond this is
/// rejected *before* any allocation — the backpressure-never-OOM rule
/// applied to single frames.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// The most a frame's length prefix reserves before its body arrives.
const BODY_RESERVE: usize = 64 * 1024;

/// A typed frame-decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended inside a frame.
    Truncated {
        /// Bytes the prefix promised.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// The length prefix exceeds the cap.
    Oversized {
        /// Declared body length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// A zero-length body.
    Empty,
    /// The body is not UTF-8.
    BadUtf8,
    /// The transport failed mid-read.
    Io(String),
}

impl FrameError {
    /// True when the stream position is unrecoverable and the
    /// connection must close after the error response. `Empty` and
    /// `BadUtf8` consumed exactly one whole frame, so the stream is
    /// still in sync and the connection can keep serving.
    pub fn is_fatal(&self) -> bool {
        !matches!(self, FrameError::Empty | FrameError::BadUtf8)
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated frame: prefix promised {expected} bytes, got {got}"
                )
            }
            FrameError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Empty => write!(f, "empty frame body"),
            FrameError::BadUtf8 => write!(f, "frame body is not valid UTF-8"),
            FrameError::Io(msg) => write!(f, "transport error: {msg}"),
        }
    }
}

impl From<&FrameError> for SachiError {
    /// Every frame defect is a parse-class protocol error (code 2),
    /// except transport failures which are I/O (also code 2).
    fn from(e: &FrameError) -> Self {
        match e {
            FrameError::Io(msg) => SachiError::Io(format!("frame transport: {msg}")),
            other => SachiError::Parse(format!("frame: {other}")),
        }
    }
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer
/// closed between frames); anything else mid-frame is typed.
///
/// # Errors
///
/// [`FrameError`] on truncation, an oversized or zero length prefix,
/// non-UTF-8 bodies, or transport failure. Never panics.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<String>, FrameError> {
    match read_prefix(r)? {
        Some(prefix) => read_frame_body(r, prefix, max).map(Some),
        None => Ok(None),
    }
}

/// Reads a frame's 4-byte length prefix. `Ok(None)` is a clean
/// end-of-stream before its first byte. The daemon reads it on its own
/// to tell frames from HTTP `GET`s.
///
/// # Errors
///
/// [`FrameError::Truncated`] when the stream ends inside the prefix,
/// [`FrameError::Io`] on transport failure. Never panics.
pub fn read_prefix(r: &mut impl Read) -> Result<Option<[u8; 4]>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0usize;
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Truncated {
                    expected: prefix.len(),
                    got: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    Ok(Some(prefix))
}

/// Reads the body of a frame whose length `prefix` was already read
/// (see [`read_prefix`]).
///
/// # Errors
///
/// See [`read_frame`].
pub fn read_frame_body(
    r: &mut impl Read,
    prefix: [u8; 4],
    max: usize,
) -> Result<String, FrameError> {
    let declared = u32::from_be_bytes(prefix);
    let len = usize::try_from(declared).unwrap_or(usize::MAX);
    if len == 0 {
        return Err(FrameError::Empty);
    }
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    // The prefix alone reserves at most BODY_RESERVE bytes; the buffer
    // grows only as body bytes arrive, so a peer that declares a large
    // frame and stalls holds no more memory than it has sent.
    let mut body = Vec::with_capacity(len.min(BODY_RESERVE));
    let got = r
        .take(u64::from(declared))
        .read_to_end(&mut body)
        .map_err(|e| FrameError::Io(e.to_string()))?;
    if got < len {
        return Err(FrameError::Truncated { expected: len, got });
    }
    String::from_utf8(body).map_err(|_| FrameError::BadUtf8)
}

/// Writes one frame (prefix + body) in a single write and flushes.
///
/// Prefix and body go to the socket as one buffer. Written separately
/// on a Nagle-enabled stream, the body would wait for the peer's
/// delayed ACK of the 4-byte prefix: ~40 ms per frame on a persistent
/// connection.
///
/// # Errors
///
/// [`SachiError::Io`] on transport failure, [`SachiError::Usage`] when
/// the body exceeds the u32 prefix range.
pub fn write_frame(w: &mut impl Write, body: &str) -> Result<(), SachiError> {
    let len = u32::try_from(body.len())
        .map_err(|_| SachiError::Usage("frame body exceeds the u32 length prefix".to_string()))?;
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(body.as_bytes());
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| SachiError::Io(format!("write frame: {e}")))
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a job and return its result.
    Solve(JobSpec),
    /// Liveness probe.
    Ping,
    /// The Prometheus exposition, as a framed response.
    Metrics,
    /// Graceful drain: finish in-flight jobs, reject new ones, exit.
    Shutdown,
}

fn usage(msg: String) -> SachiError {
    SachiError::Usage(msg)
}

/// Extracts a non-negative integer field. JSON numbers are f64, so
/// anything non-integral or from 2^53 up (where f64 loses exactness:
/// 2^53 + 1 reads as 2^53) is rejected rather than silently rounded.
/// An integer job field: only an integer literal (no fraction, no
/// exponent) in `0..2^53` is accepted, so no value is rounded on the way
/// in and every accepted one survives the JSON wire format exactly.
fn u64_field(v: &JsonValue, what: &str) -> Result<u64, SachiError> {
    if v.as_num().is_none() {
        return Err(usage(format!("{what} must be a number")));
    }
    v.as_int()
        .and_then(|n| u64::try_from(n).ok())
        .filter(|&n| n < 1 << 53)
        .ok_or_else(|| {
            usage(format!(
                "{what} must be a non-negative integer literal representable in 53 bits"
            ))
        })
}

fn usize_field(v: &JsonValue, what: &str) -> Result<usize, SachiError> {
    usize::try_from(u64_field(v, what)?)
        .map_err(|_| usage(format!("{what} does not fit this host's usize")))
}

fn str_field<'a>(v: &'a JsonValue, what: &str) -> Result<&'a str, SachiError> {
    v.as_str()
        .ok_or_else(|| usage(format!("{what} must be a string")))
}

/// Decodes a job object into a [`JobSpec`], strictly: unknown fields
/// are usage errors (a typo'd limit silently ignored would run an
/// unbounded job).
fn parse_job(members: &[(String, JsonValue)]) -> Result<JobSpec, SachiError> {
    let mut spec = JobSpec::default();
    for (key, value) in members {
        match key.as_str() {
            "cop" => {
                spec.cop = str_field(value, "job.cop")?
                    .parse()
                    .map_err(|e| usage(format!("job.cop: {e}")))?
            }
            "size" => spec.size = usize_field(value, "job.size")?,
            "seed" => spec.seed = u64_field(value, "job.seed")?,
            "design" => {
                spec.design = str_field(value, "job.design")?
                    .parse()
                    .map_err(|e| usage(format!("job.design: {e}")))?
            }
            "restarts" => spec.restarts = u64_field(value, "job.restarts")?,
            "resolution" => {
                let r = u64_field(value, "job.resolution")?;
                spec.resolution = Some(
                    u32::try_from(r)
                        .map_err(|_| usage("job.resolution exceeds 32 bits".to_string()))?,
                );
            }
            "step_budget" => spec.step_budget = Some(u64_field(value, "job.step_budget")?),
            "fault_ber" => {
                spec.fault_ber = Some(
                    value
                        .as_num()
                        .filter(|ber| ber.is_finite())
                        .ok_or_else(|| {
                            usage("job.fault_ber must be a finite number".to_string())
                        })?,
                )
            }
            "fault_seed" => spec.fault_seed = u64_field(value, "job.fault_seed")?,
            "fault_policy" => {
                spec.fault_policy = str_field(value, "job.fault_policy")?
                    .parse::<RecoveryPolicy>()
                    .map_err(|e| usage(format!("job.fault_policy: {e}")))?
            }
            "tempering" => {
                spec.tempering = value
                    .as_bool()
                    .ok_or_else(|| usage("job.tempering must be a boolean".to_string()))?
            }
            "ladder" => {
                spec.ladder = str_field(value, "job.ladder")?
                    .parse::<LadderKind>()
                    .map_err(|e| usage(format!("job.ladder: {e}")))?
            }
            other => return Err(usage(format!("unknown job field '{other}'"))),
        }
    }
    Ok(spec)
}

/// Decodes one request body.
///
/// # Errors
///
/// [`SachiError::Parse`] when the body is not JSON,
/// [`SachiError::Usage`] when it is JSON of the wrong shape. Never
/// panics — this is the fuzzed surface.
pub fn parse_request(body: &str) -> Result<Request, SachiError> {
    let doc = parse(body).map_err(|e| SachiError::Parse(format!("request: {e}")))?;
    let members = doc
        .as_obj()
        .ok_or_else(|| usage("request must be a JSON object".to_string()))?;
    let mut op = None;
    let mut job = None;
    for (key, value) in members {
        match key.as_str() {
            "op" => op = Some(str_field(value, "op")?),
            "job" => job = Some(value),
            other => return Err(usage(format!("unknown request field '{other}'"))),
        }
    }
    let op = op.ok_or_else(|| usage("request needs an 'op' field".to_string()))?;
    match op {
        "solve" => {
            let job = job.ok_or_else(|| usage("solve needs a 'job' object".to_string()))?;
            let members = job
                .as_obj()
                .ok_or_else(|| usage("'job' must be a JSON object".to_string()))?;
            Ok(Request::Solve(parse_job(members)?))
        }
        "ping" | "metrics" | "shutdown" => {
            if job.is_some() {
                return Err(usage(format!("'{op}' takes no 'job' object")));
            }
            Ok(match op {
                "ping" => Request::Ping,
                "metrics" => Request::Metrics,
                _ => Request::Shutdown,
            })
        }
        other => Err(usage(format!(
            "unknown op '{other}' (solve|ping|metrics|shutdown)"
        ))),
    }
}

/// Encodes the request body for a job submission (the `submit` client
/// side of [`parse_request`]; the pair round-trips exactly).
pub fn solve_request_body(spec: &JobSpec) -> String {
    let mut body = format!(
        "{{\"op\":\"solve\",\"job\":{{\"cop\":\"{}\",\"size\":{},\"seed\":{},\"design\":\"{}\",\"restarts\":{}",
        spec.cop.key(),
        spec.size,
        spec.seed,
        spec.design.key(),
        spec.restarts,
    );
    if let Some(r) = spec.resolution {
        body.push_str(&format!(",\"resolution\":{r}"));
    }
    if let Some(b) = spec.step_budget {
        body.push_str(&format!(",\"step_budget\":{b}"));
    }
    if let Some(ber) = spec.fault_ber {
        body.push_str(&format!(",\"fault_ber\":{ber}"));
    }
    // Every remaining field is written, even where it changes nothing
    // (a fault seed without a BER, a ladder without tempering), so the
    // spec round-trips exactly.
    body.push_str(&format!(
        ",\"fault_seed\":{},\"fault_policy\":\"{}\",\"tempering\":{},\"ladder\":\"{}\"",
        spec.fault_seed,
        spec.fault_policy,
        spec.tempering,
        spec.ladder.label()
    ));
    body.push_str("}}");
    body
}

/// The fault-injection job fields, written only when a BER is set.
fn fault_fields(spec: &JobSpec) -> String {
    match spec.fault_ber {
        Some(ber) => format!(
            ",\"fault_ber\":{ber},\"fault_seed\":{},\"fault_policy\":\"{}\"",
            spec.fault_seed, spec.fault_policy
        ),
        None => String::new(),
    }
}

/// Encodes a no-payload request (`ping`, `metrics`, `shutdown`).
pub fn simple_request_body(op: &str) -> String {
    format!("{{\"op\":\"{}\"}}", escape(op))
}

/// Encodes a typed error response. `code` is the shared error table
/// ([`SachiError::exit_code`]); server-class errors additionally carry
/// the machine-readable `reason` label.
pub fn error_body(op: &str, e: &SachiError) -> String {
    let mut body = format!(
        "{{\"schema\":\"{SCHEMA}\",\"status\":\"error\",\"op\":\"{}\",\"code\":{},\"class\":\"{}\"",
        escape(op),
        e.exit_code(),
        e.class(),
    );
    if let SachiError::Server { reason, .. } = e {
        body.push_str(&format!(",\"reason\":\"{}\"", reason.label()));
    }
    body.push_str(&format!(",\"message\":\"{}\"}}", escape(&e.to_string())));
    body
}

/// Encodes the `ping` response.
pub fn ok_ping_body() -> String {
    format!("{{\"schema\":\"{SCHEMA}\",\"status\":\"ok\",\"op\":\"ping\"}}")
}

/// Encodes the `shutdown` acknowledgement (sent before the drain).
pub fn ok_shutdown_body() -> String {
    format!("{{\"schema\":\"{SCHEMA}\",\"status\":\"ok\",\"op\":\"shutdown\"}}")
}

/// Encodes the framed `metrics` response carrying the Prometheus text
/// exposition.
pub fn ok_metrics_body(exposition: &str) -> String {
    format!(
        "{{\"schema\":\"{SCHEMA}\",\"status\":\"ok\",\"op\":\"metrics\",\"exposition\":\"{}\"}}",
        escape(exposition)
    )
}

/// The `job` object of a solve response: the echoed spec and the shape
/// of the lowered problem. Built from the plan before it runs, since
/// the daemon hands its plan to the pool.
pub fn job_echo(plan: &JobPlan) -> String {
    let (spec, graph) = (plan.spec(), plan.graph());
    let mut job = format!(
        "{{\"name\":\"{}\",\"cop\":\"{}\",\"size\":{},\"seed\":{},\"design\":\"{}\",\
         \"restarts\":{},\"spins\":{},\"edges\":{},\"max_degree\":{},\"bits_required\":{}",
        escape(plan.name()),
        spec.cop.key(),
        spec.size,
        spec.seed,
        spec.design.key(),
        spec.restarts,
        graph.num_spins(),
        graph.num_edges(),
        graph.max_degree(),
        graph.bits_required(),
    );
    job.push_str(&fault_fields(spec));
    job.push('}');
    job
}

/// Encodes a completed job: the [`job_echo`], the best replica's result
/// (with its spins as a `+`/`-` string), the ensemble statistics, and
/// the folded report with the best replica's cycles, time, energy
/// breakdown and reuse. [`render_solve`] prints it; this body is the
/// only serialization of a finished job.
pub fn ok_solve_body(job: &str, spec: &JobSpec, outcome: &JobOutcome) -> String {
    let best = outcome.best.best();
    let spins: String = best
        .spins
        .iter()
        .map(|s| if s == Spin::Up { '+' } else { '-' })
        .collect();
    let stats = &outcome.best.stats;
    let report = &outcome.report;
    let mut body =
        format!("{{\"schema\":\"{SCHEMA}\",\"status\":\"ok\",\"op\":\"solve\",\"job\":{job}");
    body.push_str(&format!(
        ",\"result\":{{\"energy\":{},\"sweeps\":{},\"converged\":{},\"flips\":{},\
         \"uphill_accepted\":{},\"uphill_rejected\":{},\"degraded\":{},\"best_replica\":{},\
         \"spins\":\"{spins}\"}}",
        best.energy,
        best.sweeps,
        best.converged,
        best.flips,
        best.uphill_accepted,
        best.uphill_rejected,
        best.degraded,
        outcome.best.best_index,
    ));
    body.push_str(&format!(
        ",\"ensemble\":{{\"replicas\":{},\"converged\":{},\"total_sweeps\":{},\"total_flips\":{},\
         \"degraded\":{}}}",
        stats.replicas, stats.converged, stats.total_sweeps, stats.total_flips, stats.degraded,
    ));
    if spec.tempering {
        body.push_str(&format!(
            ",\"tempering\":{{\"ladder\":\"{}\",\"swap_attempts\":{},\"swap_accepted\":{},\
             \"restarts\":{}}}",
            spec.ladder.label(),
            stats.swap_attempts,
            stats.swap_accepted,
            stats.tempering_restarts,
        ));
    }
    body.push_str(&format!(
        ",\"report\":{{\"serial_cycles\":{},\"max_replica_cycles\":{},\"faults_detected\":{},\
         \"faults_injected\":{},\"fault_retries\":{},\"degraded_replicas\":{}",
        report.serial_cycles.get(),
        report.max_replica_cycles.get(),
        report.faults_detected,
        report.faults_injected,
        report.fault_retries,
        report.degraded_replicas,
    ));
    if let Some(r) = report.reports.get(outcome.best.best_index) {
        let energy: Vec<String> = r
            .energy
            .iter()
            .map(|(c, e)| format!("\"{}\":{}", c.label(), e.get()))
            .collect();
        body.push_str(&format!(
            ",\"total_cycles\":{},\"compute_cycles\":{},\"load_cycles\":{},\
             \"rounds_per_sweep\":{},\"wall_time_ns\":{},\"energy_pj\":{},\"reuse\":{},\
             \"energy\":{{{}}}",
            r.total_cycles.get(),
            r.compute_cycles.get(),
            r.load_cycles.get(),
            r.rounds_per_sweep,
            r.wall_time.get(),
            r.energy.total().get(),
            r.reuse,
            energy.join(","),
        ));
    }
    // An unscored plan has no accuracy, and JSON has no NaN.
    match outcome.accuracy {
        a if a.is_finite() => body.push_str(&format!("}},\"accuracy\":{a}}}")),
        _ => body.push_str("},\"accuracy\":null}"),
    }
    body
}

/// Reads `key` of a response object through `read` (`Some`,
/// `JsonValue::as_num`, `as_str`, ...). Responses arrive off the
/// network: a missing or mistyped field is a parse error.
pub fn field<'a, T>(
    v: &'a JsonValue,
    key: &str,
    read: fn(&'a JsonValue) -> Option<T>,
) -> Result<T, SachiError> {
    v.get(key)
        .and_then(read)
        .ok_or_else(|| SachiError::Parse(format!("response field '{key}' missing or mistyped")))
}

fn count(v: &JsonValue, key: &str) -> Result<u64, SachiError> {
    let n = field(v, key, JsonValue::as_num)?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(SachiError::Parse(format!(
            "response field '{key}' is not a count"
        )));
    }
    Ok(n as u64)
}

/// Renders an [`ok_solve_body`] as the human report. `sachi solve`
/// and `sachi submit` both print exactly this, so the two front ends
/// print the same bytes for one job. A missing field or an
/// out-of-range number is a typed [`SachiError::Parse`], never a panic.
pub fn render_solve(doc: &JsonValue) -> Result<String, SachiError> {
    let (job, result, ensemble, report) = (
        field(doc, "job", Some)?,
        field(doc, "result", Some)?,
        field(doc, "ensemble", Some)?,
        field(doc, "report", Some)?,
    );
    let design: DesignKind = field(job, "design", JsonValue::as_str)?
        .parse()
        .map_err(SachiError::Parse)?;
    let replicas = count(ensemble, "replicas")?;
    let mut out = format!(
        "problem : {} ({} spins, {} edges, max degree {}, needs {}-bit ICs)\ndesign  : {}\n",
        field(job, "name", JsonValue::as_str)?,
        count(job, "spins")?,
        count(job, "edges")?,
        count(job, "max_degree")?,
        count(job, "bits_required")?,
        design.label(),
    );
    out.push_str(&format!(
        "ensemble: {replicas} replicas (best: replica {}, {} converged, {} sweeps total)\n",
        count(result, "best_replica")?,
        count(ensemble, "converged")?,
        count(ensemble, "total_sweeps")?,
    ));
    if let Some(tempering) = doc.get("tempering") {
        out.push_str(&format!(
            "temper  : {} ladder, {} swaps accepted / {} attempted, {} rung restarts\n",
            field(tempering, "ladder", JsonValue::as_str)?,
            count(tempering, "swap_accepted")?,
            count(tempering, "swap_attempts")?,
            count(tempering, "restarts")?,
        ));
    }
    out.push_str(&format!(
        "result  : H = {}  ({} iterations, converged: {})\n",
        field(result, "energy", JsonValue::as_num)? as i64,
        count(result, "sweeps")?,
        field(result, "converged", JsonValue::as_bool)?,
    ));
    if doc.get("accuracy") != Some(&JsonValue::Null) {
        let accuracy = field(doc, "accuracy", JsonValue::as_num)?;
        out.push_str(&format!("accuracy: {}\n", percent(accuracy)));
    }
    if job.get("fault_ber").is_some() {
        out.push_str(&format!(
            "faults  : {} injected, {} detected, {} retries, {}/{replicas} replicas degraded ({})\n",
            count(report, "faults_injected")?,
            count(report, "faults_detected")?,
            count(report, "fault_retries")?,
            count(report, "degraded_replicas")?,
            field(job, "fault_policy", JsonValue::as_str)?,
        ));
    }
    out.push_str(&format!(
        "cycles  : {} total ({} compute, {} loading, {} rounds/iter)\n",
        count(report, "total_cycles")?,
        count(report, "compute_cycles")?,
        count(report, "load_cycles")?,
        count(report, "rounds_per_sweep")?,
    ));
    let range = |e: UnitRangeError| SachiError::Parse(format!("response: {e}"));
    let energy = |pj: f64| Picojoules::try_from(pj).map_err(range);
    out.push_str(&format!(
        "time    : {}  energy: {}  reuse: {:.1}\n",
        Nanoseconds::try_from(field(report, "wall_time_ns", JsonValue::as_num)?).map_err(range)?,
        energy(field(report, "energy_pj", JsonValue::as_num)?)?,
        field(report, "reuse", JsonValue::as_num)?,
    ));
    let mut breakdown = Table::new(["component", "energy"]);
    for (component, pj) in field(report, "energy", JsonValue::as_obj)? {
        let pj = pj
            .as_num()
            .ok_or_else(|| SachiError::Parse(format!("energy '{component}'")))?;
        breakdown.row([component.clone(), energy(pj)?.to_string()]);
    }
    out.push_str(&breakdown.render());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sachi_core::prelude::ServerReason;
    use sachi_workloads::spec::CopKind;

    fn decode(bytes: &[u8]) -> Result<Option<String>, FrameError> {
        let mut cursor: &[u8] = bytes;
        read_frame(&mut cursor, MAX_FRAME_LEN)
    }

    fn frame(body: &str) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, body).unwrap();
        out
    }

    #[test]
    fn frames_round_trip() {
        let body = solve_request_body(&JobSpec::default());
        let bytes = frame(&body);
        assert_eq!(decode(&bytes).unwrap().unwrap(), body);
        // Two frames back to back decode in order.
        let mut two = frame("{\"op\":\"ping\"}");
        two.extend_from_slice(&frame("{\"op\":\"metrics\"}"));
        let mut cursor: &[u8] = &two;
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME_LEN).unwrap().unwrap(),
            "{\"op\":\"ping\"}"
        );
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME_LEN).unwrap().unwrap(),
            "{\"op\":\"metrics\"}"
        );
        assert_eq!(read_frame(&mut cursor, MAX_FRAME_LEN).unwrap(), None);
    }

    #[test]
    fn truncated_frames_are_typed_not_panics() {
        // Prefix promises 10 bytes, stream has 3.
        let mut bytes = vec![0, 0, 0, 10];
        bytes.extend_from_slice(b"abc");
        let err = decode(&bytes).unwrap_err();
        assert_eq!(
            err,
            FrameError::Truncated {
                expected: 10,
                got: 3
            }
        );
        assert!(err.is_fatal());
        // A prefix cut mid-way is also truncation.
        let err = decode(&[0, 0]).unwrap_err();
        assert!(matches!(
            err,
            FrameError::Truncated {
                expected: 4,
                got: 2
            }
        ));
        // Clean EOF before any prefix byte is not an error.
        assert_eq!(decode(&[]).unwrap(), None);
    }

    /// A `Read` double that serves `bytes`, then end-of-stream, and
    /// panics if it is ever handed a buffer larger than the prefix may
    /// reserve.
    struct ReserveGuard<'a> {
        bytes: &'a [u8],
    }

    impl Read for ReserveGuard<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            assert!(
                buf.len() <= BODY_RESERVE,
                "handed a {}-byte buffer before the body arrived",
                buf.len()
            );
            self.bytes.read(buf)
        }
    }

    #[test]
    fn a_declared_length_reserves_at_most_64_kib_before_the_body_arrives() {
        let mut bytes = u32::try_from(MAX_FRAME_LEN).unwrap().to_be_bytes().to_vec();
        bytes.extend_from_slice(b"abc");
        let err = read_frame(&mut ReserveGuard { bytes: &bytes }, MAX_FRAME_LEN).unwrap_err();
        assert_eq!(
            err,
            FrameError::Truncated {
                expected: 1_048_576,
                got: 3
            }
        );
    }

    #[test]
    fn oversized_and_empty_prefixes_are_rejected_before_allocation() {
        let err = decode(&[0xFF, 0xFF, 0xFF, 0xFF]).unwrap_err();
        assert!(matches!(err, FrameError::Oversized { .. }));
        assert!(err.is_fatal());
        let err = decode(&[0, 0, 0, 0]).unwrap_err();
        assert_eq!(err, FrameError::Empty);
        assert!(!err.is_fatal());
    }

    #[test]
    fn invalid_utf8_is_recoverable() {
        let mut bytes = vec![0, 0, 0, 2];
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err, FrameError::BadUtf8);
        assert!(!err.is_fatal());
        let mapped = SachiError::from(&err);
        assert_eq!(mapped.exit_code(), 2);
    }

    #[test]
    fn garbage_json_is_a_typed_parse_error() {
        for body in [
            "{{{",
            "",
            "null",
            "[1,2]",
            "{\"op\":7}",
            "{\"op\":\"levitate\"}",
        ] {
            let err = parse_request(body).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{body:?} -> {err}");
        }
    }

    #[test]
    fn request_round_trips_through_the_builders() {
        let spec = JobSpec {
            cop: CopKind::SatThree,
            size: 40,
            seed: 9,
            restarts: 8,
            resolution: Some(8),
            step_budget: Some(60_000),
            fault_ber: Some(1e-4),
            fault_seed: 3,
            fault_policy: RecoveryPolicy::FailFast,
            tempering: true,
            ladder: LadderKind::Adaptive,
            ..JobSpec::default()
        };
        match parse_request(&solve_request_body(&spec)).unwrap() {
            Request::Solve(got) => assert_eq!(got, spec),
            other => panic!("wrong request {other:?}"),
        }
        assert_eq!(
            parse_request(&simple_request_body("ping")).unwrap(),
            Request::Ping
        );
        assert_eq!(
            parse_request(&simple_request_body("metrics")).unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request(&simple_request_body("shutdown")).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn strict_shape_checks_reject_surprises() {
        assert!(parse_request("{\"op\":\"solve\"}").is_err());
        assert!(parse_request("{\"op\":\"solve\",\"job\":3}").is_err());
        assert!(parse_request("{\"op\":\"ping\",\"job\":{}}").is_err());
        assert!(parse_request("{\"op\":\"solve\",\"job\":{},\"extra\":1}").is_err());
        assert!(parse_request("{\"op\":\"solve\",\"job\":{\"warp\":9}}").is_err());
        // Non-integral and out-of-range numbers are usage errors, not
        // silent roundings. An integer field takes integer literals only:
        // a fraction or an exponent is refused even where the value is
        // whole, or where the f64 it parses to would be (`…990.5`).
        for body in [
            "{\"op\":\"solve\",\"job\":{\"seed\":1.5}}",
            "{\"op\":\"solve\",\"job\":{\"seed\":9007199254740990.5}}",
            "{\"op\":\"solve\",\"job\":{\"seed\":7.0}}",
            "{\"op\":\"solve\",\"job\":{\"size\":1.5e1}}",
            "{\"op\":\"solve\",\"job\":{\"restarts\":4E0}}",
            "{\"op\":\"solve\",\"job\":{\"size\":-4}}",
            "{\"op\":\"solve\",\"job\":{\"seed\":1e300}}",
            "{\"op\":\"solve\",\"job\":{\"seed\":9007199254740993}}",
            "{\"op\":\"solve\",\"job\":{\"fault_ber\":1e400}}",
            "{\"op\":\"solve\",\"job\":{\"restarts\":\"many\"}}",
            "{\"op\":\"solve\",\"job\":{\"tempering\":\"yes\"}}",
            "{\"op\":\"solve\",\"job\":{\"ladder\":\"steep\"}}",
            "{\"op\":\"solve\",\"job\":{\"ladder\":3}}",
        ] {
            let err = parse_request(body).unwrap_err();
            assert!(matches!(err, SachiError::Usage(_)), "{body}");
        }
    }

    #[test]
    fn error_bodies_carry_the_shared_code_table() {
        let body = error_body("solve", &SachiError::Parse("nope".to_string()));
        assert!(body.contains("\"code\":2"));
        assert!(body.contains("\"class\":\"parse\""));
        let body = error_body(
            "solve",
            &SachiError::server(ServerReason::QueueFull, "8 jobs queued"),
        );
        assert!(body.contains("\"code\":5"));
        assert!(body.contains("\"reason\":\"queue-full\""));
        // Error bodies are themselves valid JSON.
        assert!(sachi_obs::json::parse(&body).is_ok());
    }

    /// Runs `plan` on one thread and encodes its response body.
    fn body_of(plan: &JobPlan) -> String {
        ok_solve_body(&job_echo(plan), plan.spec(), &plan.run_solo())
    }

    fn small_spec() -> JobSpec {
        JobSpec {
            cop: CopKind::MolecularDynamics,
            size: 16,
            restarts: 2,
            step_budget: Some(20_000),
            ..JobSpec::default()
        }
    }

    #[test]
    fn solve_bodies_parse_and_render_only_the_lines_that_apply() {
        let plain = small_spec();
        let tempered = JobSpec {
            cop: CopKind::SatThree,
            size: 8,
            tempering: true,
            ..small_spec()
        };
        let faulty = JobSpec {
            fault_ber: Some(1e-3),
            ..small_spec()
        };
        // A ferromagnetic file has no scorer: its accuracy is NaN.
        let ferro = sachi_ising::graph::GraphBuilder::new(4)
            .edge(0, 1, 1)
            .edge(1, 2, 1)
            .edge(2, 3, 1)
            .build()
            .unwrap();
        let plans = [
            JobPlan::from_spec(&plain).unwrap(),
            JobPlan::from_spec(&tempered).unwrap(),
            JobPlan::from_spec(&faulty).unwrap(),
            JobPlan::lower(&plain, "ferro".to_string(), ferro).unwrap(),
        ];
        assert!(!plans[3].is_scored());
        for plan in &plans {
            let body = body_of(plan);
            let doc = parse(&body).unwrap_or_else(|e| panic!("{e}: {body}"));
            let text = render_solve(&doc).unwrap();
            let has = |prefix: &str| text.lines().any(|l| l.starts_with(prefix));
            assert!(has("result  : H = "), "{text}");
            assert_eq!(has("temper  :"), plan.spec().tempering, "{text}");
            assert_eq!(has("faults  :"), plan.spec().fault_ber.is_some(), "{text}");
            assert_eq!(has("accuracy:"), plan.is_scored(), "{text}");
        }
    }

    #[test]
    fn hostile_numbers_in_a_solve_response_are_parse_errors() {
        let body = body_of(&JobPlan::from_spec(&small_spec()).unwrap());
        assert!(render_solve(&parse(&body).unwrap()).is_ok());
        for (field, bad) in [
            ("\"energy_pj\":", "-1"),
            ("\"wall_time_ns\":", "1e999"),
            ("\"rwl\":", "-0.5"),
            ("\"total_cycles\":", "-3"),
            ("\"spins\":", "1.5"),
            ("\"design\":", "\"n9\""),
            ("\"adder\":", "\"lots\""),
        ] {
            let at = body.find(field).unwrap() + field.len();
            let end = at + body[at..].find([',', '}']).unwrap();
            let hostile = format!("{}{bad}{}", &body[..at], &body[end..]);
            let err = render_solve(&parse(&hostile).unwrap()).unwrap_err();
            assert!(matches!(err, SachiError::Parse(_)), "{field}{bad}: {err}");
        }
        let err = render_solve(&parse("{\"job\":{}}").unwrap()).unwrap_err();
        assert!(matches!(err, SachiError::Parse(_)), "{err}");
    }

    /// A `Write` double that accepts every buffer whole and counts the
    /// `write` calls it sees.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        let big = format!("\"{}\"", "x".repeat(MAX_FRAME_LEN - 2));
        let error = error_body("request", &SachiError::Parse("nope".to_string()));
        for body in [ok_ping_body(), error, big] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, &body).unwrap();
            assert_eq!(w.writes, 1, "{}-byte body", body.len());
            assert_eq!(decode(&w.bytes).unwrap().as_deref(), Some(body.as_str()));
        }
    }

    /// The lexer-fuzz pattern from `crates/xtask`: a deterministic
    /// xorshift64 stream drives the decoder with adversarial byte
    /// soup — raw bytes, valid-looking prefixes, UTF-8 lead bytes,
    /// JSON punctuation — and every outcome must be a typed result.
    #[test]
    fn frame_decoder_survives_xorshift_fuzz() {
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Weighted alphabet: mostly structural bytes so the decoder's
        // interesting paths (length prefixes, JSON shapes) get hit.
        const ALPHABET: &[u8] = b"{}[]\":,0123456789abcdef \0\x01\x7f\xc0\xff\xfe+-.e";
        for case in 0..600 {
            let mut bytes = Vec::new();
            if case % 3 == 0 {
                // A well-formed prefix over a random (often lying) length.
                let promised = (next() % 40) as u32;
                bytes.extend_from_slice(&promised.to_be_bytes());
            }
            let len = (next() % 48) as usize;
            for _ in 0..len {
                let b = ALPHABET[(next() as usize) % ALPHABET.len()];
                bytes.push(b);
            }
            match decode(&bytes) {
                Ok(Some(body)) => {
                    // Whatever decoded must flow through request
                    // parsing and the response renderer without a
                    // panic either.
                    let _ = parse_request(&body);
                    let _ = parse(&body).map(|doc| render_solve(&doc));
                }
                Ok(None) => {}
                Err(e) => {
                    // Typed, displayable, and mapped to code 2.
                    assert_eq!(SachiError::from(&e).exit_code(), 2, "{e}");
                }
            }
        }
    }

    /// The job-field fuzz: well-formed `{"op":"solve","job":{…}}`
    /// bodies whose keys and values a xorshift64 stream draws from a
    /// vocabulary — each key's own valid values half the time, otherwise
    /// negatives, fractions, 2^53 + 1, `1e308` and `1e400`, strings
    /// where numbers belong and numbers where strings belong, `true`,
    /// `null`, unknown COP, design, ladder and fault-policy names, and
    /// unknown and repeated keys. `parse_request` must never panic,
    /// every refusal must carry exit code 2, and every accepted spec
    /// must round-trip through `solve_request_body`.
    #[test]
    fn job_field_values_survive_xorshift_fuzz() {
        let mut state = 0x1319_8A2E_0370_7344u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        const FIELDS: &[(&str, &[&str])] = &[
            (
                "cop",
                &["\"md\"", "\"tsp\"", "\"coloring\"", "\"sat\"", "\"sched\""],
            ),
            ("size", &["1", "24", "64", "65536"]),
            ("seed", &["0", "7", "9007199254740991"]),
            ("design", &["\"n1a\"", "\"n1b\"", "\"n2\"", "\"n3\""]),
            ("restarts", &["1", "4"]),
            ("resolution", &["2", "4", "32", "33"]),
            ("step_budget", &["0", "1", "5000"]),
            ("fault_ber", &["0", "1e-3", "0.25", "1"]),
            ("fault_seed", &["0", "3"]),
            (
                "fault_policy",
                &["\"failfast\"", "\"retry\"", "\"retry:0\"", "\"retry:7\""],
            ),
            ("tempering", &["true", "false"]),
            ("ladder", &["\"geometric\"", "\"adaptive\""]),
            ("cops", &["\"md\""]),
            ("Size", &["64"]),
        ];
        const ADVERSARIAL: &[&str] = &[
            "-1",
            "-0",
            "0.5",
            "1.5e1",
            "9007199254740992",
            "9007199254740993",
            "1e308",
            "1e400",
            "-1e308",
            "4294967296",
            "\"64\"",
            "\"1e-3\"",
            "\"\"",
            "\"graphene\"",
            "\"n9\"",
            "\"N3\"",
            "\"retry:-1\"",
            "\"retry:x\"",
            "\"spiral\"",
            "3",
            "true",
            "false",
            "null",
            "[]",
            "{}",
            "[1]",
            "{\"cop\":\"md\"}",
        ];
        let (mut accepted, mut refused) = (0usize, 0usize);
        for _ in 0..3_000 {
            let members: Vec<String> = (0..next() % 5)
                .map(|_| {
                    let (key, valid) = FIELDS[(next() as usize) % FIELDS.len()];
                    let value = if next() % 2 == 0 {
                        valid[(next() as usize) % valid.len()]
                    } else {
                        ADVERSARIAL[(next() as usize) % ADVERSARIAL.len()]
                    };
                    format!("\"{key}\":{value}")
                })
                .collect();
            let body = format!("{{\"op\":\"solve\",\"job\":{{{}}}}}", members.join(","));
            match parse_request(&body) {
                Ok(Request::Solve(spec)) => {
                    accepted += 1;
                    let again = solve_request_body(&spec);
                    assert_eq!(
                        parse_request(&again).ok(),
                        Some(Request::Solve(spec)),
                        "{body} re-encoded as {again}"
                    );
                }
                Ok(other) => panic!("{body} decoded as {other:?}"),
                Err(e) => {
                    refused += 1;
                    assert_eq!(e.exit_code(), 2, "{body}: {e}");
                }
            }
        }
        assert!(
            accepted >= 300 && refused >= 300,
            "{accepted} accepted, {refused} refused"
        );
    }
}
