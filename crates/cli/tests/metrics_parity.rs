//! The one-shot CLI and the daemon export the same series for the same
//! job: `sachi solve --metrics prom` prints the job's registry
//! (`JobOutcome::metrics`), and a real loopback `sachi serve` merges
//! that same registry into its `/metrics` after running the job. So,
//! after each job, the daemon's series other than its own `server_`
//! ones are exactly the series of the one-shot snapshots so far, the
//! compute array's `l1_` counters included.

use std::collections::BTreeSet;
use std::net::TcpListener;
use std::process::{Child, Command, Output, Stdio};
use std::thread;
use std::time::Duration;

/// A running `sachi serve`, killed if the test fails before shutdown.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start() -> Daemon {
        // An ephemeral port the kernel just handed out and took back.
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|probe| probe.local_addr())
            .expect("probe a free loopback port")
            .port();
        let child = Command::new(env!("CARGO_BIN_EXE_sachi"))
            .args(["serve", "--port", &port.to_string(), "--threads", "2"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn sachi serve");
        let daemon = Daemon {
            child,
            addr: format!("127.0.0.1:{port}"),
        };
        for _ in 0..100 {
            if daemon.submit(&["--ping"]).status.success() {
                return daemon;
            }
            thread::sleep(Duration::from_millis(50));
        }
        panic!("sachi serve on {} never answered a ping", daemon.addr);
    }

    fn submit(&self, args: &[&str]) -> Output {
        sachi(&[&["submit", "--addr", &self.addr][..], args].concat())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs `sachi <args>` and returns its output.
fn sachi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sachi"))
        .args(args)
        .output()
        .expect("run sachi")
}

/// The stdout of a `sachi` run that must succeed.
fn stdout_of(out: Output, what: &str) -> String {
    assert!(
        out.status.success(),
        "{what}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The series an exposition declares, one per `# TYPE` line.
fn series(exposition: &str) -> BTreeSet<String> {
    exposition
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

#[test]
fn the_one_shot_snapshot_lists_the_daemons_job_series() {
    let mut daemon = Daemon::start();
    let plain = "--cop sat --size 12 --seed 9 --restarts 3";
    let tempered = format!("{plain} --tempering --ladder adaptive");
    let mut one_shot = BTreeSet::new();
    for job in [plain, &tempered] {
        let job: Vec<&str> = job.split(' ').collect();
        let job = &job[..];
        let snapshot = stdout_of(
            sachi(&[&["solve"][..], job, &["--metrics", "prom"]].concat()),
            "sachi solve --metrics prom",
        );
        let names = series(&snapshot);
        for l1 in ["sachi_l1_round_loads", "sachi_l1_fill_bits"] {
            assert!(names.contains(l1), "{job:?}: no {l1} in\n{snapshot}");
        }
        one_shot.extend(names);

        stdout_of(daemon.submit(job), "sachi submit");
        let scraped = stdout_of(daemon.submit(&["--fetch-metrics"]), "--fetch-metrics");
        let from_jobs: BTreeSet<String> = series(&scraped)
            .into_iter()
            .filter(|name| !name.starts_with("sachi_server_"))
            .collect();
        assert_eq!(from_jobs, one_shot, "after {job:?}");
    }
    stdout_of(daemon.submit(&["--shutdown"]), "sachi submit --shutdown");
    let status = daemon.child.wait().expect("wait for sachi serve");
    assert!(status.success(), "sachi serve drained with {status}");
}
