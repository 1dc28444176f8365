//! The four workloads and their seeded job lists.
//!
//! A workload is a fixed list of jobs plus the front end that serves
//! them. Job `k` of a workload draws its seed from `(master seed,
//! workload, k)`; everything else about the job is a function of `k`,
//! so both sides of a comparison run identical work. The program under
//! test only ever sees the generated `sachi solve` flags or the JSON
//! request body.

use sachi_core::prelude::{DesignKind, JobSpec};
use sachi_ising::prelude::{derive_replica_seed, LadderKind};
use sachi_workloads::prelude::CopKind;

/// Which front end a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontEnd {
    /// One `sachi solve` child process per job, one client.
    OneShot,
    /// A `sachi serve` daemon, two persistent loopback connections.
    Daemon,
}

/// The benchmark's workloads. See README.md for why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sparse King's lattice, sweep-bound, thread-parallel replicas.
    OneShotLattice,
    /// Dense planted 3-coloring across all four designs, kernel-bound.
    OneShotDense,
    /// Tiny mixed jobs on the daemon: request handling dominates.
    ServeSmall,
    /// Coupled replica-exchange jobs on the daemon: decisions and
    /// writeback carry much of each sweep.
    ServeTempering,
}

/// Daemon worker threads and admission queue depth of the daemon
/// workloads.
pub const DAEMON_THREADS: usize = 2;
/// See [`DAEMON_THREADS`].
pub const DAEMON_QUEUE_DEPTH: usize = 8;

/// One job: its place in the list, the spec, and the one-shot
/// `--threads` value (the daemon uses its own pool).
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Position in the workload's job list.
    pub index: usize,
    /// Everything the solve depends on.
    pub spec: JobSpec,
    /// Ensemble worker threads of the one-shot front end.
    pub threads: usize,
}

/// The mixed COP families of `serve-small`, with their sizes.
const SMALL_MIX: [(CopKind, usize); 7] = [
    (CopKind::TravelingSalesman, 8),
    (CopKind::JobScheduling, 16),
    (CopKind::SatThree, 30),
    (CopKind::AssetAllocation, 24),
    (CopKind::GraphColoring, 24),
    (CopKind::ImageSegmentation, 64),
    (CopKind::MolecularDynamics, 64),
];

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::OneShotLattice,
        Workload::OneShotDense,
        Workload::ServeSmall,
        Workload::ServeTempering,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OneShotLattice => "oneshot-lattice",
            Workload::OneShotDense => "oneshot-dense",
            Workload::ServeSmall => "serve-small",
            Workload::ServeTempering => "serve-tempering",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The front end this workload drives.
    pub fn front_end(self) -> FrontEnd {
        match self {
            Workload::OneShotLattice | Workload::OneShotDense => FrontEnd::OneShot,
            Workload::ServeSmall | Workload::ServeTempering => FrontEnd::Daemon,
        }
    }

    /// Closed-loop clients: one for the one-shot front end, two
    /// persistent connections for the daemon.
    pub fn clients(self) -> usize {
        match self.front_end() {
            FrontEnd::OneShot => 1,
            FrontEnd::Daemon => 2,
        }
    }

    /// Jobs in one pass over the workload (a tenth with `--smoke`).
    pub fn job_count(self, smoke: bool) -> usize {
        let full = match self {
            Workload::OneShotLattice => 120,
            Workload::OneShotDense => 300,
            Workload::ServeSmall => 600,
            Workload::ServeTempering => 100,
        };
        if smoke {
            full / 10
        } else {
            full
        }
    }

    /// The seed of job `k` under master seed `master`: a SplitMix64
    /// fold of the master seed salted by the workload name, masked to
    /// 53 bits so it survives the JSON wire format exactly.
    pub fn job_seed(self, master: u64, k: usize) -> u64 {
        let salt = self.name().bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        derive_replica_seed(master ^ salt, k as u64) & ((1 << 53) - 1)
    }

    /// Job `k` of this workload under master seed `master`.
    pub fn job(self, master: u64, k: usize) -> Job {
        let seed = self.job_seed(master, k);
        let base = JobSpec {
            seed,
            ..JobSpec::default()
        };
        let (spec, threads) = match self {
            Workload::OneShotLattice => (
                JobSpec {
                    cop: CopKind::MolecularDynamics,
                    size: 8192,
                    design: DesignKind::N3,
                    restarts: 2,
                    ..base
                },
                2,
            ),
            Workload::OneShotDense => (
                JobSpec {
                    cop: CopKind::GraphColoring,
                    size: 256,
                    design: DesignKind::ALL[k % 4],
                    restarts: 1,
                    ..base
                },
                1,
            ),
            Workload::ServeSmall => {
                let (cop, size) = SMALL_MIX[k % SMALL_MIX.len()];
                (
                    JobSpec {
                        cop,
                        size,
                        design: DesignKind::ALL[k % 4],
                        restarts: 1 + (k % 4) as u64,
                        ..base
                    },
                    DAEMON_THREADS,
                )
            }
            Workload::ServeTempering => (
                JobSpec {
                    cop: CopKind::SatThree,
                    size: 40,
                    design: DesignKind::N3,
                    restarts: 4,
                    step_budget: Some(150_000),
                    tempering: true,
                    ladder: LadderKind::Adaptive,
                    ..base
                },
                DAEMON_THREADS,
            ),
        };
        Job {
            index: k,
            spec,
            threads,
        }
    }
}

/// The wire and flag label of a COP family (what `sachi` parses).
fn cop_label(cop: CopKind) -> &'static str {
    match cop {
        CopKind::AssetAllocation => "asset",
        CopKind::ImageSegmentation => "imgseg",
        CopKind::TravelingSalesman => "tsp",
        CopKind::MolecularDynamics => "md",
        CopKind::SatThree => "sat",
        CopKind::GraphColoring => "coloring",
        CopKind::JobScheduling => "sched",
    }
}

/// The wire and flag label of a design.
fn design_label(design: DesignKind) -> &'static str {
    match design {
        DesignKind::N1a => "n1a",
        DesignKind::N1b => "n1b",
        DesignKind::N2 => "n2",
        DesignKind::N3 => "n3",
    }
}

impl Job {
    /// The `sachi solve` arguments of this job.
    pub fn solve_args(&self) -> Vec<String> {
        let s = &self.spec;
        let mut args: Vec<String> = [
            "solve",
            "--cop",
            cop_label(s.cop),
            "--size",
            &s.size.to_string(),
            "--seed",
            &s.seed.to_string(),
            "--design",
            design_label(s.design),
            "--restarts",
            &s.restarts.to_string(),
            "--threads",
            &self.threads.to_string(),
        ]
        .iter()
        .map(|a| a.to_string())
        .collect();
        if let Some(budget) = s.step_budget {
            args.extend(["--step-budget".to_string(), budget.to_string()]);
        }
        if s.tempering {
            args.extend([
                "--tempering".to_string(),
                "--ladder".to_string(),
                s.ladder.label().to_string(),
            ]);
        }
        args
    }

    /// The `sachi serve` request body of this job.
    pub fn request_body(&self) -> String {
        let s = &self.spec;
        let mut body = format!(
            "{{\"op\":\"solve\",\"job\":{{\"cop\":\"{}\",\"size\":{},\"seed\":{},\"design\":\"{}\",\"restarts\":{}",
            cop_label(s.cop),
            s.size,
            s.seed,
            design_label(s.design),
            s.restarts,
        );
        if let Some(budget) = s.step_budget {
            body.push_str(&format!(",\"step_budget\":{budget}"));
        }
        if s.tempering {
            body.push_str(&format!(
                ",\"tempering\":true,\"ladder\":\"{}\"",
                s.ladder.label()
            ));
        }
        body.push_str("}}");
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn job_lists_are_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            let a: Vec<Job> = (0..20).map(|k| w.job(7, k)).collect();
            let b: Vec<Job> = (0..20).map(|k| w.job(7, k)).collect();
            assert_eq!(a, b, "{}", w.name());
            let c: Vec<Job> = (0..20).map(|k| w.job(8, k)).collect();
            assert_ne!(a, c, "{}: the master seed reaches the jobs", w.name());
        }
    }

    #[test]
    fn job_seeds_never_collide_across_workloads() {
        for master in [0, 1, 42] {
            let mut seen = BTreeSet::new();
            for w in Workload::ALL {
                for k in 0..w.job_count(false) {
                    let seed = w.job_seed(master, k);
                    assert!(seed < 1 << 53, "seed must survive JSON");
                    assert!(seen.insert(seed), "{} job {k} reuses a seed", w.name());
                }
            }
        }
    }

    #[test]
    fn workloads_keep_enough_jobs_for_a_p90() {
        for w in Workload::ALL {
            assert!(w.job_count(false) >= 100, "{}", w.name());
            assert_eq!(w.job_count(true), w.job_count(false) / 10);
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }

    #[test]
    fn front_end_encodings_carry_the_spec() {
        let job = Workload::ServeTempering.job(3, 5);
        let body = job.request_body();
        assert!(body.contains("\"tempering\":true"), "{body}");
        assert!(body.contains("\"ladder\":\"adaptive\""), "{body}");
        assert!(body.contains(&format!("\"seed\":{}", job.spec.seed)));
        assert!(sachi_obs::json::parse(&body).is_ok());
        let args = Workload::OneShotDense.job(3, 2).solve_args();
        assert_eq!(args[0], "solve");
        assert!(args.windows(2).any(|p| p[0] == "--design" && p[1] == "n2"));
    }
}
