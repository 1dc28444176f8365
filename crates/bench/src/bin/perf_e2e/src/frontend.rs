//! The two front ends, driven the way a user drives them: `sachi solve`
//! child processes, and a `sachi serve` daemon over loopback TCP.
//!
//! `sachi-bench` cannot depend on `sachi-cli` (the dependency runs the
//! other way), so the wire framing lives here too: a 4-byte big-endian
//! length, then that many bytes of UTF-8 JSON.

use sachi_obs::json::{parse, JsonValue};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Socket read/write timeout: a job that hangs fails instead of
/// stalling the run.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Bound on a child process's or the daemon's life during one step.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// Largest reply frame accepted (the daemon caps requests at 1 MiB;
/// replies carry the spins and stay far below this).
const MAX_FRAME: usize = 1 << 24;

/// The `sachi` binary next to this executable.
///
/// # Errors
///
/// A message telling the user to build it when it is missing.
pub fn locate_sachi() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perf_e2e: {e}"))?;
    let path = exe.with_file_name("sachi");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "`sachi` not found at {}: build `-p sachi-cli --release` first (run.sh does both builds)",
            path.display()
        ))
    }
}

/// Encodes one request frame.
pub fn encode_frame(body: &str) -> Vec<u8> {
    let len = u32::try_from(body.len()).expect("request bodies are far below 4 GiB");
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(body.as_bytes());
    frame
}

/// Reads one frame.
///
/// # Errors
///
/// Transport errors, an oversized or zero length prefix, or a body
/// that is not UTF-8.
fn read_frame(r: &mut impl Read) -> io::Result<String> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = usize::try_from(u32::from_be_bytes(prefix)).unwrap_or(usize::MAX);
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("reply frame length {len} is outside 1..={MAX_FRAME}"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 reply"))
}

/// One persistent client connection to the daemon.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    /// Connects to the daemon on `port` with [`IO_TIMEOUT`] on both
    /// directions.
    ///
    /// # Errors
    ///
    /// Connection or socket-option failures.
    pub fn connect(port: u16) -> io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn { stream })
    }

    /// Sends an encoded frame and reads the reply.
    ///
    /// # Errors
    ///
    /// Transport errors and malformed replies.
    pub fn round_trip(&mut self, frame: &[u8]) -> io::Result<String> {
        self.stream.write_all(frame)?;
        read_frame(&mut self.stream)
    }
}

/// The `status` field of a daemon reply (`ok` or `error`).
fn reply_status(reply: &str) -> Option<String> {
    parse(reply)
        .ok()?
        .get("status")
        .and_then(JsonValue::as_str)
        .map(str::to_string)
}

/// Times `n` ping round trips: on one persistent connection, or on a
/// fresh connection each (connect included). Returns milliseconds.
///
/// # Errors
///
/// Transport failures and non-`ok` replies.
pub fn ping_samples(port: u16, n: usize, fresh: bool) -> Result<Vec<f64>, String> {
    let frame = encode_frame("{\"op\":\"ping\"}");
    let mut persistent = if fresh {
        None
    } else {
        Some(Conn::connect(port).map_err(|e| format!("connect: {e}"))?)
    };
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let start = Instant::now();
        let reply = match persistent.as_mut() {
            Some(conn) => conn.round_trip(&frame),
            None => Conn::connect(port).and_then(|mut c| c.round_trip(&frame)),
        }
        .map_err(|e| format!("ping: {e}"))?;
        samples.push(ms(start.elapsed()));
        if reply_status(&reply).as_deref() != Some("ok") {
            return Err(format!("ping answered {reply}"));
        }
    }
    Ok(samples)
}

/// A running `sachi serve` child. Dropping it kills the process if
/// [`Daemon::shutdown`] did not already stop it.
pub struct Daemon {
    child: Child,
    port: u16,
    exited: bool,
}

impl Daemon {
    /// Spawns `sachi serve --threads T --queue-depth Q` on a free
    /// loopback port and waits until a `ping` is answered. Returns the
    /// daemon and its set-up time (spawn to the first `ok` ping).
    ///
    /// # Errors
    ///
    /// The daemon never answered, or exited during start-up on every
    /// one of three ports.
    pub fn start(
        sachi: &Path,
        threads: usize,
        queue_depth: usize,
    ) -> Result<(Daemon, Duration), String> {
        let mut last = String::new();
        for _ in 0..3 {
            let port = free_port()?;
            let start = Instant::now();
            let child = Command::new(sachi)
                .args(["serve", "--port", &port.to_string()])
                .args(["--threads", &threads.to_string()])
                .args(["--queue-depth", &queue_depth.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", sachi.display()))?;
            let mut daemon = Daemon {
                child,
                port,
                exited: false,
            };
            match daemon.await_ping(start) {
                Ok(()) => return Ok((daemon, start.elapsed())),
                Err(e) => last = e,
            }
        }
        Err(format!("sachi serve did not start: {last}"))
    }

    fn await_ping(&mut self, start: Instant) -> Result<(), String> {
        let frame = encode_frame("{\"op\":\"ping\"}");
        while start.elapsed() < CHILD_TIMEOUT {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                self.exited = true;
                return Err(format!("daemon exited during start-up ({status})"));
            }
            if let Ok(reply) = Conn::connect(self.port).and_then(|mut c| c.round_trip(&frame)) {
                return match reply_status(&reply).as_deref() {
                    Some("ok") => Ok(()),
                    _ => Err(format!("ping answered {reply}")),
                };
            }
            thread::sleep(Duration::from_micros(200));
        }
        Err("no ping answer within the start-up timeout".to_string())
    }

    /// The loopback port the daemon listens on.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    ///
    /// # Errors
    ///
    /// The status file is unreadable or lacks the field.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(self.child.id())?.ok_or_else(|| "daemon status has no VmHWM".to_string())
    }

    /// CPU time (user + system) the daemon has used so far, in seconds;
    /// `None` when `/proc` cannot tell.
    pub fn cpu_seconds(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).ok()?;
        // After the parenthesised command name come fields 3 onwards;
        // utime and stime are fields 14 and 15, in 1/100 s ticks.
        let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
        let ticks = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
        Some(ticks / 100.0)
    }

    /// Sends `shutdown` and waits for the daemon to drain and exit 0.
    ///
    /// # Errors
    ///
    /// The request failed, the daemon did not exit in time (it is then
    /// killed), or it exited non-zero.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = Conn::connect(self.port)
            .and_then(|mut c| c.round_trip(&encode_frame("{\"op\":\"shutdown\"}")))
            .map_err(|e| format!("shutdown request: {e}"))?;
        if reply_status(&reply).as_deref() != Some("ok") {
            return Err(format!("shutdown answered {reply}"));
        }
        let status = wait_with_timeout(&mut self.child, CHILD_TIMEOUT)?;
        self.exited = true;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn free_port() -> Result<u16, String> {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map(|a| a.port())
        .map_err(|e| format!("no free loopback port: {e}"))
}

fn wait_with_timeout(
    child: &mut Child,
    timeout: Duration,
) -> Result<std::process::ExitStatus, String> {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            return Ok(status);
        }
        if start.elapsed() > timeout {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "process {} did not exit within {timeout:?}",
                child.id()
            ));
        }
        thread::sleep(Duration::from_millis(1));
    }
}

/// `VmHWM` of process `pid` in MiB; `None` once the process is gone.
fn vm_hwm_mb(pid: u32) -> Result<Option<f64>, String> {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return Ok(None);
    };
    let Some(line) = status.lines().find(|l| l.starts_with("VmHWM:")) else {
        return Ok(None);
    };
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(Some(kib / 1024.0))
}

/// One finished `sachi` child process.
pub struct ChildRun {
    /// Spawn to exit.
    pub elapsed: Duration,
    /// True when the process exited 0.
    pub success: bool,
    /// Everything it printed on stdout.
    pub stdout: String,
}

/// Runs `sachi <args>` to completion, capturing stdout (stderr passes
/// through). A process still running after the child timeout is killed
/// and reported as failed.
///
/// # Errors
///
/// The process could not be spawned.
pub fn run_child(sachi: &Path, args: &[String]) -> Result<ChildRun, String> {
    let start = Instant::now();
    let mut child = Command::new(sachi)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", sachi.display()))?;
    let mut out = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    let reader = thread::spawn(move || {
        let mut text = String::new();
        let _ = out.read_to_string(&mut text);
        let _ = tx.send(());
        text
    });
    let finished = rx.recv_timeout(CHILD_TIMEOUT).is_ok();
    if !finished {
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    let elapsed = start.elapsed();
    let stdout = reader.join().unwrap_or_default();
    Ok(ChildRun {
        elapsed,
        success: finished && status.success(),
        stdout,
    })
}

/// Runs `sachi <args>` while sampling its `VmHWM` every millisecond and
/// returns the last reading, in MiB. The high-water mark only grows and
/// a solve allocates its problem before it sweeps, so the last reading
/// before exit is the process's peak.
///
/// # Errors
///
/// Spawn failure, no reading at all, or a non-zero exit.
pub fn child_peak_rss_mb(sachi: &Path, args: &[String]) -> Result<f64, String> {
    let mut child = Command::new(sachi)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", sachi.display()))?;
    let start = Instant::now();
    let mut peak = None;
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if let Some(mb) = vm_hwm_mb(child.id())? {
            peak = Some(mb);
        }
        if start.elapsed() > CHILD_TIMEOUT {
            let _ = child.kill();
            let _ = child.wait();
            return Err("peak-RSS probe timed out".to_string());
        }
        thread::sleep(Duration::from_millis(1));
    };
    if !status.success() {
        return Err(format!("peak-RSS probe exited with {status}"));
    }
    peak.ok_or_else(|| "the process exited before its first VmHWM reading".to_string())
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_a_loopback_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        // An echo server speaking the daemon's framing.
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            for _ in 0..2 {
                let body = read_frame(&mut stream).unwrap();
                stream.write_all(&encode_frame(&body)).unwrap();
            }
        });
        let mut conn = Conn::connect(port).unwrap();
        let body = "{\"op\":\"solve\",\"job\":{\"cop\":\"md\",\"size\":64}}";
        assert_eq!(conn.round_trip(&encode_frame(body)).unwrap(), body);
        let long = format!("{{\"pad\":\"{}\"}}", "x".repeat(100_000));
        assert_eq!(conn.round_trip(&encode_frame(&long)).unwrap(), long);
        server.join().unwrap();
    }

    #[test]
    fn malformed_frames_are_errors() {
        let mut zero: &[u8] = &[0, 0, 0, 0];
        assert!(read_frame(&mut zero).is_err());
        let mut huge: &[u8] = &[0xff, 0xff, 0xff, 0xff];
        assert!(read_frame(&mut huge).is_err());
        let mut short: &[u8] = &[0, 0, 0, 9, b'{'];
        assert!(read_frame(&mut short).is_err());
        let mut bad_utf8: &[u8] = &[0, 0, 0, 2, 0xff, 0xfe];
        assert!(read_frame(&mut bad_utf8).is_err());
    }

    #[test]
    fn reply_status_reads_the_status_field() {
        assert_eq!(
            reply_status("{\"schema\":\"x\",\"status\":\"error\",\"code\":5}").as_deref(),
            Some("error")
        );
        assert_eq!(reply_status("not json"), None);
    }
}
