//! `sachi serve` — the hardened multi-tenant solver daemon — and
//! `sachi submit`, its one-request client.
//!
//! The daemon accepts length-prefixed JSON frames (see
//! [`crate::protocol`]) on a loopback TCP port, admission-controls
//! jobs against a bounded queue, and packs replica ensembles from
//! *different* jobs onto one shared deterministic worker pool
//! (`sachi_core::serve::SolverPool`). The headline invariant: a job's
//! result is byte-identical to the one-shot CLI at any thread count
//! and under any co-tenants, because every replica's seed and schedule
//! derive from the job spec alone.
//!
//! Robustness posture:
//!
//! * **Backpressure, never OOM** — at most `queue_depth` jobs are
//!   admitted-but-unfinished; the next submission gets a typed
//!   `queue-full` rejection (code 5) instead of unbounded buffering.
//! * **Deadlines** — `step_budget` bounds the *work* deterministically;
//!   the wall-clock admission timeout bounds only how long a waiter
//!   blocks. A job unstarted at its deadline is revoked with
//!   `deadline-expired`; a started job is awaited to its deterministic
//!   end, never truncated mid-solve.
//! * **Poison isolation** — each replica runs under `catch_unwind`
//!   inside the pool; a panicking job degrades only its own response
//!   (code 3) while the daemon and co-tenants keep serving.
//! * **Graceful drain** — `shutdown` stops admissions (typed
//!   `shutting-down` rejections), finishes in-flight jobs, joins the
//!   pool, and flushes the final Prometheus exposition to stdout.
//!
//! `GET /metrics` on the same port answers with Prometheus text
//! exposition version 0.0.4, so the one listener serves both the frame
//! protocol and scrapes (the first four bytes disambiguate).

use crate::args::{ServeArgs, SubmitArgs, SubmitOp};
use crate::clock;
use crate::protocol::{
    self, error_body, read_frame, read_frame_body, read_prefix, write_frame, Request, MAX_FRAME_LEN,
};
use sachi_core::prelude::{JobLimits, JobPlan, JobSpec, SachiError, ServerReason, SolverPool};
use sachi_obs::json::JsonValue;
use sachi_obs::{prom, MetricsRegistry};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};
use std::thread;

/// Upper bound on an HTTP request head (the `/metrics` path needs a
/// few dozen bytes; anything larger is junk).
const MAX_HTTP_HEAD: usize = 4096;

/// The daemon's shared state: one solver pool, one admission gate, one
/// metrics registry.
struct Server {
    pool: SolverPool,
    limits: JobLimits,
    queue_depth: usize,
    admission_timeout_ms: u64,
    /// Jobs admitted and not yet finished (the bounded queue).
    active: AtomicUsize,
    /// Live connections, bounded by the accept loop's `max_conns`.
    conns: AtomicUsize,
    shutting_down: AtomicBool,
    registry: Mutex<MetricsRegistry>,
    /// Own address, for the shutdown self-connect that wakes the
    /// accept loop out of its blocking `incoming()`.
    addr: String,
}

impl Server {
    fn new(args: &ServeArgs, addr: String) -> Server {
        Server {
            pool: SolverPool::with_workers(args.threads),
            limits: JobLimits {
                max_size: args.max_size,
                max_restarts: args.max_restarts,
                max_step_budget: args.max_step_budget,
            },
            queue_depth: args.queue_depth,
            admission_timeout_ms: args.admission_timeout_ms,
            active: AtomicUsize::new(0),
            conns: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            registry: Mutex::new(MetricsRegistry::new()),
            addr,
        }
    }

    fn bump(&self, counter: &str) {
        self.registry
            .lock()
            .expect("metrics registry lock poisoned")
            .counter_add(counter, 1);
    }

    fn exposition(&self) -> String {
        let reg = self
            .registry
            .lock()
            .expect("metrics registry lock poisoned");
        prom::write_exposition(&reg)
    }

    /// Classifies a rejected or failed job into the server counters.
    fn count_failure(&self, e: &SachiError) {
        let counter = match e {
            SachiError::Server {
                reason: ServerReason::QueueFull,
                ..
            } => "server_rejected_queue_full_total",
            SachiError::Server {
                reason: ServerReason::DeadlineExpired,
                ..
            } => "server_rejected_deadline_total",
            SachiError::Server {
                reason: ServerReason::ShuttingDown,
                ..
            } => "server_rejected_shutdown_total",
            SachiError::Server {
                reason: ServerReason::OverLimit,
                ..
            } => "server_rejected_over_limit_total",
            SachiError::Usage(_)
            | SachiError::Parse(_)
            | SachiError::Io(_)
            | SachiError::Config(_) => "server_rejected_invalid_total",
            SachiError::Solve(_)
            | SachiError::FaultDetected { .. }
            | SachiError::FaultBudgetExhausted { .. } => "server_jobs_failed_total",
        };
        self.bump(counter);
    }

    /// Runs one job end to end: admission, the shared pool, the
    /// deadline, fault policy. Returns the ok response body.
    fn solve_body_for(&self, spec: &JobSpec) -> Result<String, SachiError> {
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(SachiError::server(
                ServerReason::ShuttingDown,
                "daemon is draining; no new admissions",
            ));
        }
        spec.admit(&self.limits)?;
        // The bounded queue: claim a slot or reject. `fetch_update`
        // makes check-and-increment atomic under concurrent admits.
        let admitted = self
            .active
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.queue_depth).then_some(n + 1)
            });
        if admitted.is_err() {
            return Err(SachiError::server(
                ServerReason::QueueFull,
                format!("{} jobs already admitted", self.queue_depth),
            ));
        }
        let result = self.run_admitted(spec);
        self.active.fetch_sub(1, Ordering::AcqRel);
        result
    }

    /// The post-admission path; the caller owns the queue slot.
    fn run_admitted(&self, spec: &JobSpec) -> Result<String, SachiError> {
        let plan = JobPlan::from_spec(spec)?;
        let job = protocol::job_echo(&plan);
        self.bump("server_jobs_admitted_total");
        let handle = self.pool.submit(plan);
        // Wall-clock admission deadline: a job the pool has not
        // *started* by then is revoked (deterministically equivalent
        // to never having been submitted). A started job is awaited to
        // its deterministic end — its duration is bounded by the
        // admission-capped step budget, not by this timer.
        let outcome = match handle
            .receiver()
            .recv_timeout(clock::millis(self.admission_timeout_ms))
        {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => {
                self.pool.revoke(&handle);
                handle.wait()
            }
            Err(RecvTimeoutError::Disconnected) => {
                Err(SachiError::Solve("worker pool disconnected".to_string()))
            }
        }?;
        self.registry
            .lock()
            .expect("metrics registry lock poisoned")
            .merge(&outcome.metrics());
        if let Some(e) = outcome.fault_error(spec.fault_policy) {
            return Err(e);
        }
        Ok(protocol::ok_solve_body(&job, spec, &outcome))
    }

    /// Handles one decoded request body; returns the response body and
    /// whether the connection should keep serving.
    fn respond(self: &Arc<Self>, body: &str) -> (String, bool) {
        match protocol::parse_request(body) {
            Ok(Request::Ping) => (protocol::ok_ping_body(), true),
            Ok(Request::Metrics) => (protocol::ok_metrics_body(&self.exposition()), true),
            Ok(Request::Shutdown) => {
                self.shutting_down.store(true, Ordering::Release);
                // The accept loop blocks in `incoming()`; a throwaway
                // self-connection makes it observe the flag now.
                let _ = TcpStream::connect(&self.addr);
                (protocol::ok_shutdown_body(), false)
            }
            Ok(Request::Solve(spec)) => match self.solve_body_for(&spec) {
                Ok(ok) => {
                    self.bump("server_jobs_completed_total");
                    (ok, true)
                }
                Err(e) => {
                    self.count_failure(&e);
                    (error_body("solve", &e), true)
                }
            },
            Err(e) => {
                self.bump("server_requests_malformed_total");
                (error_body("request", &e), true)
            }
        }
    }

    /// Serves one connection: sniffs frames vs. HTTP, then loops until
    /// EOF, a fatal frame error, the I/O timeout, or shutdown.
    fn serve_conn(self: &Arc<Self>, stream: &mut TcpStream) {
        let mut sniff = match read_prefix(stream) {
            Ok(Some(bytes)) => Some(bytes),
            Ok(None) | Err(_) => return,
        };
        if sniff == Some(*b"GET ") {
            self.serve_http(stream);
            return;
        }
        loop {
            // The first iteration re-uses the sniffed bytes as the
            // already-consumed length prefix.
            let body = match sniff.take() {
                Some(prefix) => read_frame_body(stream, prefix, MAX_FRAME_LEN).map(Some),
                None => read_frame(stream, MAX_FRAME_LEN),
            };
            match body {
                Ok(None) => break,
                Ok(Some(text)) => {
                    let (response, keep_going) = self.respond(&text);
                    if write_frame(stream, &response).is_err() || !keep_going {
                        break;
                    }
                }
                Err(e) => {
                    self.bump("server_frames_malformed_total");
                    let mapped = SachiError::from(&e);
                    // Best-effort error response; the peer may be gone.
                    let _ = write_frame(stream, &error_body("frame", &mapped));
                    if e.is_fatal() {
                        break;
                    }
                }
            }
            if self.shutting_down.load(Ordering::Acquire) {
                break;
            }
        }
    }

    /// Minimal HTTP for scrapes: `GET /metrics` answers the Prometheus
    /// text exposition, anything else 404. One request per connection.
    fn serve_http(self: &Arc<Self>, stream: &mut TcpStream) {
        let mut head = Vec::new();
        let mut buf = [0u8; 256];
        while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < MAX_HTTP_HEAD {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => head.extend_from_slice(&buf[..n]),
                Err(_) => return,
            }
        }
        let head = String::from_utf8_lossy(&head);
        let target = head.split_whitespace().next().unwrap_or("");
        let response = if target == "/metrics" {
            self.bump("server_scrapes_total");
            let body = self.exposition();
            format!(
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
        } else {
            "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n".to_string()
        };
        let _ = stream.write_all(response.as_bytes());
    }
}

/// Runs the daemon until a `shutdown` request drains it.
///
/// # Errors
///
/// [`SachiError::Io`] when the listener cannot bind.
pub fn run(args: &ServeArgs) -> Result<(), SachiError> {
    let addr = format!("127.0.0.1:{}", args.port);
    let listener =
        TcpListener::bind(&addr).map_err(|e| SachiError::Io(format!("bind {addr}: {e}")))?;
    let server = Arc::new(Server::new(args, addr.clone()));
    println!(
        "sachi serve: listening on {addr} ({} worker threads, queue depth {})",
        server.pool.threads(),
        args.queue_depth
    );
    let io_timeout = clock::millis(args.io_timeout_ms);
    let mut conn_threads = Vec::new();
    for stream in listener.incoming() {
        if server.shutting_down.load(Ordering::Acquire) {
            break;
        }
        let mut stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        server.bump("server_connections_total");
        // Connection cap: the daemon sheds load with a typed response
        // rather than accepting unboundedly.
        let live = server.conns.fetch_add(1, Ordering::AcqRel);
        if live >= args.max_conns {
            server.conns.fetch_sub(1, Ordering::AcqRel);
            server.bump("server_rejected_over_limit_total");
            let e = SachiError::server(
                ServerReason::OverLimit,
                format!("{} connections already serving", args.max_conns),
            );
            let _ = write_frame(&mut stream, &error_body("connect", &e));
            continue;
        }
        let server = Arc::clone(&server);
        conn_threads.push(thread::spawn(move || {
            let _ = stream.set_read_timeout(Some(io_timeout));
            // A peer that never reads cannot block a response write
            // forever once its socket buffer fills.
            let _ = stream.set_write_timeout(Some(io_timeout));
            server.serve_conn(&mut stream);
            server.conns.fetch_sub(1, Ordering::AcqRel);
        }));
    }
    // Graceful drain: connections finish (bounded by the I/O timeout),
    // in-flight jobs run to their deterministic end, then the final
    // metrics snapshot goes to stdout.
    for t in conn_threads {
        let _ = t.join();
    }
    server.pool.join();
    println!("{}", server.exposition());
    println!("sachi serve: drained");
    Ok(())
}

/// Sends one request to a running daemon and prints its response.
/// Returns the process exit code: 0 on success, otherwise the typed
/// protocol code from the shared [`SachiError::exit_code`] table.
///
/// # Errors
///
/// [`SachiError::Io`] when the daemon is unreachable,
/// [`SachiError::Parse`] when its response is malformed.
pub fn submit(args: &SubmitArgs) -> Result<u8, SachiError> {
    if matches!(args.op, SubmitOp::FetchMetrics) {
        let body = http_get_metrics(&args.addr)?;
        print!("{body}");
        return Ok(0);
    }
    let body = match &args.op {
        SubmitOp::Solve(spec) => protocol::solve_request_body(spec),
        SubmitOp::Shutdown => protocol::simple_request_body("shutdown"),
        SubmitOp::Raw(text) => text.clone(),
        // FetchMetrics returned above; anything else is a ping.
        SubmitOp::Ping | SubmitOp::FetchMetrics => protocol::simple_request_body("ping"),
    };
    let mut stream = TcpStream::connect(&args.addr)
        .map_err(|e| SachiError::Io(format!("connect {}: {e}", args.addr)))?;
    write_frame(&mut stream, &body)?;
    let response = read_frame(&mut stream, MAX_FRAME_LEN)
        .map_err(|e| SachiError::from(&e))?
        .ok_or_else(|| SachiError::Io("daemon closed without responding".to_string()))?;
    render_response(&response)
}

/// Plain HTTP GET of `/metrics`; returns the exposition body.
fn http_get_metrics(addr: &str) -> Result<String, SachiError> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| SachiError::Io(format!("connect {addr}: {e}")))?;
    let request = format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream
        .write_all(request.as_bytes())
        .map_err(|e| SachiError::Io(format!("send scrape: {e}")))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| SachiError::Io(format!("read scrape: {e}")))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| SachiError::Parse("scrape response has no header break".to_string()))?;
    if !head.starts_with("HTTP/1.1 200") {
        let status = head.lines().next().unwrap_or("");
        return Err(SachiError::Io(format!("scrape failed: {status}")));
    }
    Ok(body.to_string())
}

/// Renders a framed response for the terminal and extracts its code.
fn render_response(response: &str) -> Result<u8, SachiError> {
    let doc = sachi_obs::json::parse(response)
        .map_err(|e| SachiError::Parse(format!("daemon response: {e}")))?;
    if protocol::field(&doc, "status", JsonValue::as_str)? == "error" {
        let code = protocol::field(&doc, "code", JsonValue::as_num)?;
        let message = doc
            .get("message")
            .and_then(JsonValue::as_str)
            .unwrap_or("(no message)");
        eprintln!("error: {message}");
        let code = if (2.0..=255.0).contains(&code) && code.fract() == 0.0 {
            code as u8
        } else {
            2
        };
        return Ok(code);
    }
    match doc.get("op").and_then(JsonValue::as_str).unwrap_or("") {
        "ping" => println!("pong"),
        "shutdown" => println!("daemon draining"),
        "metrics" => {
            print!(
                "{}",
                protocol::field(&doc, "exposition", JsonValue::as_str)?
            );
        }
        "solve" => print!("{}", protocol::render_solve(&doc)?),
        other => println!("ok ({other})"),
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(response: &str) -> Option<f64> {
        sachi_obs::json::parse(response)
            .ok()?
            .get("code")
            .and_then(sachi_obs::json::JsonValue::as_num)
    }

    #[test]
    fn a_refused_job_releases_its_admission_slot() {
        // One admission slot: a job that leaked it would make the next
        // valid job answer `queue-full`.
        let args = ServeArgs {
            threads: 1,
            queue_depth: 1,
            ..ServeArgs::default()
        };
        let server = Arc::new(Server::new(&args, "127.0.0.1:1".to_string()));
        let job = "{\"op\":\"solve\",\"job\":{\"cop\":\"md\",\"size\":9,\"restarts\":1,\
                   \"step_budget\":2000";
        for bad in [
            ",\"resolution\":40}}",
            ",\"resolution\":1}}",
            ",\"fault_ber\":2}}",
        ] {
            let (response, keep_going) = server.respond(&format!("{job}{bad}"));
            assert!(keep_going);
            assert_eq!(code_of(&response), Some(2.0), "{bad}: {response}");
        }
        for _ in 0..2 {
            let (response, _) = server.respond(&format!("{job}}}}}"));
            assert!(response.contains("\"status\":\"ok\""), "{response}");
        }
        assert_eq!(server.active.load(Ordering::Acquire), 0);
        server.pool.join();
    }

    #[test]
    fn a_deeply_nested_request_is_refused_and_serving_continues() {
        let server = Arc::new(Server::new(
            &ServeArgs::default(),
            "127.0.0.1:1".to_string(),
        ));
        let (response, keep_going) = server.respond(&"[".repeat(200_000));
        assert!(keep_going);
        assert_eq!(code_of(&response), Some(2.0), "{response}");
        let (response, keep_going) = server.respond("{\"op\":\"ping\"}");
        assert!(keep_going);
        assert!(response.contains("\"status\":\"ok\""), "{response}");
        server.pool.join();
    }

    #[test]
    fn a_persistent_connection_answers_without_a_delayed_ack_stall() {
        // Linux delays an ACK by at least 40 ms; a frame whose body waits
        // on the ACK of its own prefix shows up as a ~40 ms round trip.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = Arc::new(Server::new(&ServeArgs::default(), addr.to_string()));
        let daemon = {
            let server = Arc::clone(&server);
            thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                server.serve_conn(&mut stream);
            })
        };
        let mut client = TcpStream::connect(addr).unwrap();
        let ping = protocol::simple_request_body("ping");
        let mut round_trips: Vec<_> = (0..20)
            .map(|_| {
                let elapsed = clock::stopwatch();
                write_frame(&mut client, &ping).unwrap();
                let reply = read_frame(&mut client, MAX_FRAME_LEN).unwrap().unwrap();
                assert!(reply.contains("\"op\":\"ping\""), "{reply}");
                elapsed()
            })
            .collect();
        drop(client);
        daemon.join().unwrap();
        server.pool.join();
        round_trips.sort();
        let median = round_trips[round_trips.len() / 2];
        assert!(
            median < clock::millis(20),
            "median ping round trip {median:?}"
        );
    }
}
