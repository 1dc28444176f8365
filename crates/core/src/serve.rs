//! The session layer behind the `sachi serve` daemon: validated job
//! specs, admission limits, deterministic job plans, and a shared
//! multi-tenant worker pool that packs replica ensembles from
//! *different* jobs onto one set of threads.
//!
//! # Determinism contract
//!
//! A [`JobPlan`] freezes everything a solve depends on — graph, initial
//! spins, [`SolveOptions`], machine config — as a pure function of the
//! [`JobSpec`] (and, for `sachi solve --file`, the loaded problem).
//! One private lowering freezes every solve: the daemon and the one-shot
//! CLI reach it through [`JobPlan::lower_cop`] (a scored COP) or
//! [`JobPlan::lower`] (a bare graph). Replica `k` of an uncoupled
//! job is one [`JobPlan::run_replica`] call, whose result is a pure
//! function of `(spec, k)` alone: no thread identity, queue position,
//! or co-tenant job can reach it. Both front ends run that call and
//! reduce with the one fold, [`JobOutcome::reduce`]. [`JobPlan::run`]
//! is [`run_ensemble`] plus scoring, which maps the call over its
//! replicas; the pool queues it per replica and writes each result into
//! the slot named by its index. A pooled job is therefore
//! byte-identical to [`JobPlan::run`] by construction, at any thread
//! count and under any co-tenancy. A coupled (tempering) job runs
//! [`JobPlan::run_solo`] on one pool worker, the same exchange engine
//! `sachi solve` runs. `tests/ensemble_determinism.rs` proptests both
//! under mixed-workload batching.
//!
//! # Isolation
//!
//! Workers run each replica under [`std::panic::catch_unwind`]: a
//! poison job (one whose plan panics a machine) marks only itself
//! failed — its waiter receives a typed [`SachiError::Solve`] — and the
//! worker thread survives to run the next queued replica.

use crate::config::{DesignKind, FaultProfile, SachiConfig};
use crate::ensemble::{self, run_ensemble, worker_threads, JobOutcome};
use crate::error::{SachiError, ServerReason};
use crate::machine::RunReport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi_ising::prelude::{
    IsingGraph, LadderKind, RecoveryPolicy, SolveOptions, SolveResult, SpinVector, TemperingOptions,
};
use sachi_mem::cache::CacheHierarchy;
use sachi_mem::fault::{FaultModel, FaultRate};
use sachi_workloads::prelude::{
    AssetAllocation, ColoringInstance, ColoringWorkload, Connectivity, CopKind, ImageSegmentation,
    MolecularDynamics, SatInstance, SatWorkload, SchedulingInstance, SchedulingWorkload,
    TspDecision, Workload,
};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

/// Salt XORed into the master seed to derive the initial-spin stream,
/// keeping it independent of the annealer stream (which uses
/// `seed + 1`). Shared by the one-shot CLI and the daemon so the same
/// spec and seed produce the same initial state on both paths.
pub const INIT_SEED_SALT: u64 = 0x0051_ac41;

/// A domain-accuracy scorer for a final spin state (1.0 = optimal).
pub type AccuracyFn = Box<dyn Fn(&SpinVector) -> f64 + Send + Sync>;

/// A built workload, shared by the plan that solves its graph and the
/// scorer that rates the result.
type SharedWorkload = Arc<dyn Workload + Send + Sync>;

/// A COP instance with a domain scorer. The workload owns the encoded
/// graph and lends it out, so building a plan copies no graph; the
/// `accuracy` closure shares the same workload.
pub struct CopProblem {
    /// Workload display name.
    pub name: String,
    /// Domain-accuracy scorer for a final spin state.
    pub accuracy: AccuracyFn,
    workload: SharedWorkload,
}

impl CopProblem {
    /// Wraps a built workload.
    pub fn from_workload<W: Workload + Send + Sync + 'static>(workload: W) -> Self {
        let workload: SharedWorkload = Arc::new(workload);
        let scorer = Arc::clone(&workload);
        CopProblem {
            name: workload.name(),
            accuracy: Box::new(move |s| scorer.accuracy(s)),
            workload,
        }
    }

    /// The encoded Ising graph.
    pub fn graph(&self) -> &IsingGraph {
        self.workload.graph()
    }
}

/// A plan's problem: a scored workload, which owns its graph, or a bare
/// graph (a problem file without a domain scorer).
enum PlanProblem {
    Scored(SharedWorkload),
    Bare(IsingGraph),
}

impl PlanProblem {
    fn graph(&self) -> &IsingGraph {
        match self {
            PlanProblem::Scored(w) => w.graph(),
            PlanProblem::Bare(g) => g,
        }
    }
}

/// Rounds `size` to a near-square `(rows, cols)` grid for lattice COPs.
pub fn near_square(size: usize) -> (usize, usize) {
    let side = (size as f64).sqrt().round().max(1.0) as usize;
    (side, size.div_ceil(side))
}

/// Builds the generated COP family `kind` at `size` spins with `seed` —
/// the single construction shared by `sachi solve --cop` and the
/// daemon, so a job spec means the same instance on both paths.
///
/// # Errors
///
/// [`SachiError::Config`] when the instance cannot be encoded
/// (coefficient overflow in the penalty terms).
pub fn build_cop_problem(kind: CopKind, size: usize, seed: u64) -> Result<CopProblem, SachiError> {
    Ok(match kind {
        CopKind::AssetAllocation => {
            CopProblem::from_workload(AssetAllocation::new(size.max(2), seed))
        }
        CopKind::ImageSegmentation => {
            let (rows, cols) = near_square(size.max(4));
            CopProblem::from_workload(ImageSegmentation::with_options(
                cols,
                rows,
                seed,
                Connectivity::Grid4,
                6,
            ))
        }
        CopKind::TravelingSalesman => {
            CopProblem::from_workload(TspDecision::new(size.max(3), seed))
        }
        CopKind::MolecularDynamics => {
            let (rows, cols) = near_square(size.max(2));
            CopProblem::from_workload(MolecularDynamics::new(rows, cols, seed))
        }
        CopKind::SatThree => {
            // Critical clause ratio m/n ~= 4.3 (the hard regime).
            let n = size.max(5);
            let m = n.saturating_mul(43) / 10;
            let instance = SatInstance::random(n, m, seed);
            CopProblem::from_workload(
                SatWorkload::new("generated", instance)
                    .map_err(|e| SachiError::Config(e.to_string()))?,
            )
        }
        CopKind::GraphColoring => {
            let n = size.max(4);
            let (instance, _) = ColoringInstance::planted(n, 3, 3_000, seed);
            CopProblem::from_workload(
                ColoringWorkload::new("generated", instance)
                    .map_err(|e| SachiError::Config(e.to_string()))?,
            )
        }
        CopKind::JobScheduling => {
            let jobs = size.max(4);
            let instance = SchedulingInstance::random(jobs, 3, 9, seed);
            CopProblem::from_workload(
                SchedulingWorkload::new("generated", instance)
                    .map_err(|e| SachiError::Config(e.to_string()))?,
            )
        }
    })
}

/// Everything a solve depends on, as submitted over the wire. `sachi
/// solve` and `sachi submit` fill it with one shared job-flag parser,
/// and the daemon and the one-shot CLI both lower it through
/// [`JobPlan::lower`], so equality of specs implies byte-identical
/// results. The settings only `sachi solve` has — a problem file
/// (`--file`, `--gset`, `--cnf`), `--hierarchy`, `--threads`,
/// `--metrics` and `--trace-phases` — are deliberately not fields.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Generated COP family.
    pub cop: CopKind,
    /// Problem size (spins; lattice COPs round to a near-square grid).
    pub size: usize,
    /// Master RNG seed.
    pub seed: u64,
    /// Stationarity design.
    pub design: DesignKind,
    /// Replica-ensemble restarts.
    pub restarts: u64,
    /// IC resolution override.
    pub resolution: Option<u32>,
    /// Deterministic work-domain deadline (per-spin update steps).
    pub step_budget: Option<u64>,
    /// Transient read bit-error rate (None = perfect memory).
    pub fault_ber: Option<f64>,
    /// Seed of the fault stream.
    pub fault_seed: u64,
    /// Recovery policy applied when parity detects a fault.
    pub fault_policy: RecoveryPolicy,
    /// Run the replicas as coupled parallel-tempering rungs instead of
    /// independent restarts.
    pub tempering: bool,
    /// Temperature-ladder construction used when `tempering` is set.
    pub ladder: LadderKind,
}

impl Default for JobSpec {
    /// Matches the `sachi solve` flag defaults.
    fn default() -> Self {
        JobSpec {
            cop: CopKind::MolecularDynamics,
            size: 256,
            seed: 0,
            design: DesignKind::N3,
            restarts: 1,
            resolution: None,
            step_budget: None,
            fault_ber: None,
            fault_seed: 0,
            fault_policy: RecoveryPolicy::default(),
            tempering: false,
            ladder: LadderKind::Geometric,
        }
    }
}

impl JobSpec {
    /// Intrinsic validity: things that can never work regardless of the
    /// server's limits. Zero sizes/restarts and a zero step budget are
    /// rejected here (a budget of 0 would otherwise be clamped to one
    /// sweep and silently run, hiding the caller's bug), as is a
    /// resolution outside the machine's `2..=32` bits.
    ///
    /// # Errors
    ///
    /// [`SachiError::Usage`] or [`SachiError::Config`] naming the field.
    pub fn validate(&self) -> Result<(), SachiError> {
        if self.size == 0 {
            return Err(SachiError::Usage("size must be at least 1".to_string()));
        }
        if self.restarts == 0 {
            return Err(SachiError::Usage("restarts must be at least 1".to_string()));
        }
        if self.step_budget == Some(0) {
            return Err(SachiError::Usage(
                "step_budget must be at least 1 (a zero budget would run no useful work; omit \
                 the field for an unbudgeted run)"
                    .to_string(),
            ));
        }
        if let Some(r) = self.resolution {
            if !(2..=32).contains(&r) {
                return Err(SachiError::Config(format!(
                    "resolution {r} is outside the machine's 2..=32 bit range"
                )));
            }
        }
        if let Some(ber) = self.fault_ber {
            if !(0.0..=1.0).contains(&ber) {
                return Err(SachiError::Usage(format!(
                    "fault_ber {ber} is not a probability in [0, 1]"
                )));
            }
        }
        Ok(())
    }

    /// Full admission check: intrinsic validity plus the server's
    /// [`JobLimits`]. Limit breaches are the *server's* refusal, not a
    /// defect in the job, so they map to [`SachiError::Server`] with
    /// [`ServerReason::OverLimit`] (protocol code 5, distinct from the
    /// usage code 2).
    ///
    /// # Errors
    ///
    /// See [`JobSpec::validate`]; additionally [`SachiError::Server`]
    /// on limit breaches.
    pub fn admit(&self, limits: &JobLimits) -> Result<(), SachiError> {
        self.validate()?;
        if self.size > limits.max_size {
            return Err(SachiError::server(
                ServerReason::OverLimit,
                format!(
                    "size {} exceeds this server's max {}",
                    self.size, limits.max_size
                ),
            ));
        }
        if self.restarts > limits.max_restarts {
            return Err(SachiError::server(
                ServerReason::OverLimit,
                format!(
                    "restarts {} exceeds this server's max {}",
                    self.restarts, limits.max_restarts
                ),
            ));
        }
        if let Some(budget) = self.step_budget {
            if budget > limits.max_step_budget {
                return Err(SachiError::server(
                    ServerReason::OverLimit,
                    format!(
                        "step_budget {budget} exceeds this server's max {}",
                        limits.max_step_budget
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// Server-side admission caps. Jobs beyond these are rejected with
/// [`ServerReason::OverLimit`] before any memory is committed — the
/// bounded-queue half of the backpressure story.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobLimits {
    /// Largest accepted problem size.
    pub max_size: usize,
    /// Largest accepted replica count per job.
    pub max_restarts: u64,
    /// Largest accepted step budget.
    pub max_step_budget: u64,
}

impl Default for JobLimits {
    fn default() -> Self {
        JobLimits {
            max_size: 65_536,
            max_restarts: 256,
            max_step_budget: 100_000_000,
        }
    }
}

/// A frozen, validated, ready-to-run job: the pure-function lowering of
/// a [`JobSpec`]. Building the plan does all fallible work up front;
/// running it afterwards is infallible (panics are the poison case the
/// pool isolates).
///
/// Both front ends build their plans with one lowering: the daemon
/// through [`JobPlan::from_spec`], `sachi solve` through `from_spec` or,
/// for a problem file, [`JobPlan::lower_cop`] (a scored workload) or
/// [`JobPlan::lower`] (a bare graph). The settings
/// only `sachi solve` has reach the plan's machine config through
/// [`JobPlan::with_hierarchy`] and [`JobPlan::with_phase_trace`], and
/// the thread count through [`JobPlan::run`]; `--metrics` only chooses
/// how the outcome is printed.
pub struct JobPlan {
    spec: JobSpec,
    name: String,
    problem: PlanProblem,
    init: SpinVector,
    options: SolveOptions,
    config: SachiConfig,
    replicas: usize,
}

impl std::fmt::Debug for JobPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobPlan")
            .field("spec", &self.spec)
            .field("name", &self.name)
            .field("spins", &self.graph().num_spins())
            .field("replicas", &self.replicas)
            .finish_non_exhaustive()
    }
}

impl JobPlan {
    /// Builds the spec's generated COP ([`build_cop_problem`]) and
    /// lowers it with [`JobPlan::lower`].
    ///
    /// # Errors
    ///
    /// COP encoding errors, and everything [`JobPlan::lower`] rejects.
    pub fn from_spec(spec: &JobSpec) -> Result<JobPlan, SachiError> {
        Self::lower_cop(spec, build_cop_problem(spec.cop, spec.size, spec.seed)?)
    }

    /// Lowers a scored COP. The plan keeps the workload, which owns the
    /// graph and scores the result, so no graph is copied.
    ///
    /// # Errors
    ///
    /// Everything [`JobPlan::lower`] rejects.
    pub fn lower_cop(spec: &JobSpec, problem: CopProblem) -> Result<JobPlan, SachiError> {
        Self::plan(spec, problem.name, PlanProblem::Scored(problem.workload))
    }

    /// Lowers a graph without a domain scorer, such as a problem file
    /// the CLI loaded (`spec.cop`/`spec.size` are then unused). The
    /// plan's accuracy is NaN.
    ///
    /// # Errors
    ///
    /// [`SachiError::Usage`] / [`SachiError::Config`] from
    /// [`JobSpec::validate`], or a resolution that cannot represent the
    /// graph's coefficients.
    pub fn lower(spec: &JobSpec, name: String, graph: IsingGraph) -> Result<JobPlan, SachiError> {
        Self::plan(spec, name, PlanProblem::Bare(graph))
    }

    /// The one lowering of a solve: validate the spec, check the
    /// resolution against the graph's coefficient range, derive the
    /// initial spins (`seed ^ INIT_SEED_SALT`) and annealer seed
    /// (`seed + 1`), and freeze the solve options (budget, tempering)
    /// and machine config (design, resolution, faults).
    fn plan(spec: &JobSpec, name: String, problem: PlanProblem) -> Result<JobPlan, SachiError> {
        spec.validate()?;
        let graph = problem.graph();
        if let Some(r) = spec.resolution {
            let required = graph.bits_required();
            if r < required {
                return Err(SachiError::Config(format!(
                    "resolution {r} cannot represent this problem's coefficients (needs \
                     {required}-bit); drop it or pass >= {required}"
                )));
            }
        }
        let replicas = usize::try_from(spec.restarts)
            .map_err(|_| SachiError::Usage("restarts too large for this host".to_string()))?;
        let mut rng = StdRng::seed_from_u64(spec.seed ^ INIT_SEED_SALT);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let mut options = SolveOptions::for_graph(graph, spec.seed.wrapping_add(1));
        if let Some(budget) = spec.step_budget {
            options = options.with_step_budget(budget);
        }
        if spec.tempering {
            options =
                options.with_tempering(TemperingOptions::for_graph(spec.ladder, graph, replicas));
        }
        let mut config = SachiConfig::new(spec.design);
        if let Some(r) = spec.resolution {
            config = config.with_resolution(r);
        }
        if let Some(ber) = spec.fault_ber {
            let model =
                FaultModel::new(spec.fault_seed).with_read_ber(FaultRate::from_probability(ber));
            config = config.with_fault(FaultProfile::new(model).with_policy(spec.fault_policy));
        }
        Ok(JobPlan {
            spec: spec.clone(),
            name,
            problem,
            init,
            options,
            config,
            replicas,
        })
    }

    /// Runs the plan on `hierarchy`'s arrays instead of the paper's
    /// default (`sachi solve --hierarchy`).
    #[must_use]
    pub fn with_hierarchy(mut self, hierarchy: CacheHierarchy) -> Self {
        self.config = self.config.with_hierarchy(hierarchy);
        self
    }

    /// Records solve-phase spans into every replica's report (`sachi
    /// solve --trace-phases`).
    #[must_use]
    pub fn with_phase_trace(mut self) -> Self {
        self.config = self.config.with_phase_trace();
        self
    }

    /// The spec this plan was lowered from.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Workload display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The encoded graph.
    pub fn graph(&self) -> &IsingGraph {
        self.problem.graph()
    }

    /// The initial spins every replica starts from.
    pub fn init(&self) -> &SpinVector {
        &self.init
    }

    /// The base solve options (replica `k` derives its seed from them).
    pub fn options(&self) -> &SolveOptions {
        &self.options
    }

    /// The machine config every replica runs on.
    pub fn config(&self) -> &SachiConfig {
        &self.config
    }

    /// True when the problem has a domain scorer; otherwise
    /// [`JobOutcome::accuracy`] is NaN.
    pub fn is_scored(&self) -> bool {
        matches!(self.problem, PlanProblem::Scored(_))
    }

    /// Replica-ensemble width.
    pub fn replica_count(&self) -> usize {
        self.replicas
    }

    /// True when this plan runs its replicas as *coupled*
    /// parallel-tempering rungs. Coupled plans exchange state at round
    /// boundaries, so they cannot be decomposed into independent
    /// per-replica tasks — the pool runs them as one unit of work.
    pub fn is_coupled(&self) -> bool {
        self.options.tempering.is_some()
    }

    /// [`ensemble::run_replica`] `k` of an uncoupled plan: pure in
    /// `(plan, k)`.
    pub fn run_replica(&self, k: usize) -> (SolveResult, RunReport) {
        ensemble::run_replica(&self.config, self.graph(), &self.init, &self.options, k)
    }

    /// Runs the whole job in-process on `threads` workers (0 = every
    /// core), [`run_ensemble`], and scores it.
    pub fn run(&self, threads: usize) -> JobOutcome {
        self.score(run_ensemble(
            &self.config,
            self.graph(),
            &self.init,
            &self.options,
            self.replicas,
            threads,
        ))
    }

    /// [`JobPlan::run`] on one thread: the reference the pooled path
    /// must match byte-for-byte, and what a pooled coupled job runs on
    /// its one worker.
    pub fn run_solo(&self) -> JobOutcome {
        self.run(1)
    }

    /// Scores the winning spins of a reduced ensemble.
    fn score(&self, mut outcome: JobOutcome) -> JobOutcome {
        if let PlanProblem::Scored(w) = &self.problem {
            outcome.accuracy = w.accuracy(&outcome.best.best().spins);
        }
        outcome
    }
}

/// One replica's worth of queued work.
struct Task {
    job: Arc<JobState>,
    replica: usize,
}

/// Shared per-job state: the plan, the result slots (indexed by
/// replica, never completion order), and the completion channel.
struct JobState {
    plan: JobPlan,
    slots: Mutex<Vec<Option<(SolveResult, RunReport)>>>,
    remaining: AtomicUsize,
    panicked: AtomicBool,
    started: AtomicBool,
    done: Mutex<Option<mpsc::Sender<JobResult>>>,
}

/// What a job's waiter receives.
pub type JobResult = Result<JobOutcome, SachiError>;

/// A submitted job's receipt: await it, or let the server revoke it on
/// deadline expiry.
pub struct JobHandle {
    job: Arc<JobState>,
    rx: mpsc::Receiver<JobResult>,
}

impl JobHandle {
    /// Blocks until the job completes (or was revoked).
    pub fn wait(&self) -> JobResult {
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(SachiError::Solve("worker pool disconnected".to_string())))
    }

    /// The completion channel, for deadline-bounded waits
    /// (`recv_timeout`) by hosts that own a clock.
    pub fn receiver(&self) -> &mpsc::Receiver<JobResult> {
        &self.rx
    }
}

/// Queue state guarded by the pool mutex.
struct PoolQueue {
    tasks: VecDeque<Task>,
    draining: bool,
}

struct PoolShared {
    state: Mutex<PoolQueue>,
    work: Condvar,
}

/// A fixed set of worker threads running replicas from *many* jobs —
/// the multi-tenant generalization of
/// [`EnsembleRunner`](sachi_ising::ensemble::EnsembleRunner). Replicas
/// from different jobs interleave freely on the same workers; because
/// [`JobPlan::run_replica`] is pure in `(plan, k)`, the interleaving is
/// unobservable in any job's result.
pub struct SolverPool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    threads: usize,
}

impl SolverPool {
    /// Spawns `threads` workers (0 = all available cores).
    ///
    /// (Deliberately not named `new`: the conservative name-based call
    /// graph in `xtask analyze` merges every `new` into one node, and
    /// this constructor's worker spawn would drag the whole solve path
    /// into every constructor's reachability set.)
    pub fn with_workers(threads: usize) -> SolverPool {
        let threads = worker_threads(threads);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolQueue {
                tasks: VecDeque::new(),
                draining: false,
            }),
            work: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        SolverPool {
            shared,
            workers: Mutex::new(workers),
            threads,
        }
    }

    /// Worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enqueues every replica of `plan` and returns the handle its
    /// waiter blocks on. Replicas from different jobs share one FIFO,
    /// so a wide job never starves a narrow one submitted after it by
    /// more than the in-flight replicas. Submitting to a draining pool
    /// resolves immediately with [`ServerReason::ShuttingDown`].
    pub fn submit(&self, plan: JobPlan) -> JobHandle {
        // A coupled (tempering) job is one indivisible unit of work:
        // its rungs exchange state between rounds, so it enqueues as a
        // single task and the worker sends the finished outcome itself
        // (no per-replica slots to fill).
        let tasks = if plan.is_coupled() {
            1
        } else {
            plan.replica_count()
        };
        let slots = if plan.is_coupled() {
            0
        } else {
            plan.replica_count()
        };
        let (tx, rx) = mpsc::channel();
        let job = Arc::new(JobState {
            plan,
            slots: Mutex::new((0..slots).map(|_| None).collect()),
            remaining: AtomicUsize::new(tasks),
            panicked: AtomicBool::new(false),
            started: AtomicBool::new(false),
            done: Mutex::new(Some(tx)),
        });
        let mut state = self.shared.state.lock().expect("pool mutex poisoned");
        if state.draining {
            drop(state);
            send_result(
                &job,
                Err(SachiError::server(
                    ServerReason::ShuttingDown,
                    "pool is draining; no new admissions",
                )),
            );
            return JobHandle { job, rx };
        }
        for replica in 0..tasks {
            state.tasks.push_back(Task {
                job: Arc::clone(&job),
                replica,
            });
        }
        drop(state);
        self.shared.work.notify_all();
        JobHandle { job, rx }
    }

    /// Withdraws a not-yet-started job (deadline expiry). Returns true
    /// — and resolves the handle with [`ServerReason::DeadlineExpired`]
    /// — only if no worker has picked up any replica; a started job
    /// cannot be revoked (its runtime is already bounded by the
    /// deterministic step budget) and the caller should keep waiting.
    pub fn revoke(&self, handle: &JobHandle) -> bool {
        let mut state = self.shared.state.lock().expect("pool mutex poisoned");
        if handle.job.started.load(Ordering::Acquire) {
            return false;
        }
        state
            .tasks
            .retain(|task| !Arc::ptr_eq(&task.job, &handle.job));
        drop(state);
        send_result(
            &handle.job,
            Err(SachiError::server(
                ServerReason::DeadlineExpired,
                "admission deadline expired before a worker started the job",
            )),
        );
        true
    }

    /// Graceful drain: stop accepting work, let the workers finish
    /// everything already queued, and join them. Idempotent.
    pub fn join(&self) {
        {
            let mut state = self.shared.state.lock().expect("pool mutex poisoned");
            state.draining = true;
        }
        self.shared.work.notify_all();
        let workers = {
            let mut guard = self.workers.lock().expect("pool workers mutex poisoned");
            std::mem::take(&mut *guard)
        };
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl Drop for SolverPool {
    fn drop(&mut self) {
        self.join();
    }
}

/// Sends the job's result exactly once (the sender is taken).
fn send_result(job: &Arc<JobState>, result: JobResult) {
    let sender = job.done.lock().expect("job channel mutex poisoned").take();
    if let Some(tx) = sender {
        let _ = tx.send(result);
    }
}

/// Stores replica `k`'s output in its slot.
fn deposit(job: &Arc<JobState>, k: usize, pair: (SolveResult, RunReport)) {
    let mut slots = job.slots.lock().expect("job slots mutex poisoned");
    if let Some(slot) = slots.get_mut(k) {
        *slot = Some(pair);
    }
}

/// Completes a job whose last replica just finished: gather the slots
/// in replica order, reduce, send. A panicked replica poisons only this
/// job — the waiter gets a typed solve error, co-tenants are untouched.
fn complete_job(job: &Arc<JobState>) {
    // Coupled jobs send their outcome from the worker; the taken sender
    // marks them already resolved.
    if job
        .done
        .lock()
        .expect("job channel mutex poisoned")
        .is_none()
    {
        return;
    }
    if job.panicked.load(Ordering::Acquire) {
        send_result(
            job,
            Err(SachiError::Solve(
                "a replica panicked; the job was isolated and discarded (co-tenant jobs are \
                 unaffected)"
                    .to_string(),
            )),
        );
        return;
    }
    let mut pairs = Vec::with_capacity(job.plan.replica_count());
    {
        let mut slots = job.slots.lock().expect("job slots mutex poisoned");
        for slot in slots.iter_mut() {
            match slot.take() {
                Some(pair) => pairs.push(pair),
                None => {
                    drop(slots);
                    send_result(
                        job,
                        Err(SachiError::Solve(
                            "internal: a replica slot was never filled".to_string(),
                        )),
                    );
                    return;
                }
            }
        }
    }
    send_result(job, Ok(job.plan.score(JobOutcome::reduce(pairs))));
}

/// The worker thread body: pop a task (blocking on the condvar), run
/// the replica under `catch_unwind`, deposit, and complete the job if
/// this was its last replica. Exits when the pool drains and the queue
/// is empty.
fn worker_loop(shared: &Arc<PoolShared>) {
    loop {
        let task = {
            let mut state = shared.state.lock().expect("pool mutex poisoned");
            loop {
                if let Some(task) = state.tasks.pop_front() {
                    // Mark started while still holding the lock so
                    // `revoke` can never race a pickup.
                    task.job.started.store(true, Ordering::Release);
                    break Some(task);
                }
                if state.draining {
                    break None;
                }
                state = shared.work.wait(state).expect("pool mutex poisoned");
            }
        };
        let Some(task) = task else {
            return;
        };
        if task.job.plan.is_coupled() {
            match catch_unwind(AssertUnwindSafe(|| task.job.plan.run_solo())) {
                Ok(outcome) => send_result(&task.job, Ok(outcome)),
                Err(_) => task.job.panicked.store(true, Ordering::Release),
            }
        } else {
            match catch_unwind(AssertUnwindSafe(|| task.job.plan.run_replica(task.replica))) {
                Ok(pair) => deposit(&task.job, task.replica, pair),
                Err(_) => task.job.panicked.store(true, Ordering::Release),
            }
        }
        if task.job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            complete_job(&task.job);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::SachiMachine;
    use sachi_ising::prelude::EnsembleRunner;

    fn small_spec(cop: CopKind, seed: u64) -> JobSpec {
        JobSpec {
            cop,
            size: 12,
            seed,
            restarts: 2,
            step_budget: Some(30_000),
            ..JobSpec::default()
        }
    }

    #[test]
    fn validate_rejects_degenerate_fields() {
        let zero_size = JobSpec {
            size: 0,
            ..JobSpec::default()
        };
        assert!(matches!(zero_size.validate(), Err(SachiError::Usage(_))));
        let zero_restarts = JobSpec {
            restarts: 0,
            ..JobSpec::default()
        };
        assert!(matches!(
            zero_restarts.validate(),
            Err(SachiError::Usage(_))
        ));
        let zero_budget = JobSpec {
            step_budget: Some(0),
            ..JobSpec::default()
        };
        let err = zero_budget.validate().unwrap_err();
        assert!(matches!(&err, SachiError::Usage(m) if m.contains("step_budget")));
        assert_eq!(err.exit_code(), 2);
        // The machine's resolution range is 2..=32 bits; anything else
        // is a typed config error (code 2), never a panic further down.
        for bits in [0, 1, 33, 40, 64] {
            let err = JobSpec {
                resolution: Some(bits),
                ..JobSpec::default()
            }
            .validate()
            .unwrap_err();
            assert!(matches!(&err, SachiError::Config(m) if m.contains("2..=32")));
            assert_eq!(err.exit_code(), 2);
        }
        for bits in [2, 32] {
            let spec = JobSpec {
                resolution: Some(bits),
                ..JobSpec::default()
            };
            assert!(spec.validate().is_ok(), "resolution {bits}");
        }
        let bad_ber = JobSpec {
            fault_ber: Some(1.5),
            ..JobSpec::default()
        };
        assert!(matches!(bad_ber.validate(), Err(SachiError::Usage(_))));
        assert!(JobSpec::default().validate().is_ok());
    }

    #[test]
    fn admit_maps_limit_breaches_to_server_code_5() {
        let limits = JobLimits {
            max_size: 64,
            max_restarts: 4,
            max_step_budget: 1_000,
        };
        let ok = JobSpec {
            size: 64,
            restarts: 4,
            step_budget: Some(1_000),
            ..JobSpec::default()
        };
        assert!(ok.admit(&limits).is_ok());
        for spec in [
            JobSpec {
                size: 65,
                ..ok.clone()
            },
            JobSpec {
                restarts: 5,
                ..ok.clone()
            },
            JobSpec {
                step_budget: Some(1_001),
                ..ok.clone()
            },
        ] {
            let err = spec.admit(&limits).unwrap_err();
            assert_eq!(err.exit_code(), 5, "{err}");
            assert!(matches!(
                err,
                SachiError::Server {
                    reason: ServerReason::OverLimit,
                    ..
                }
            ));
        }
        // Intrinsic invalidity still wins over limit checks.
        let zero = JobSpec {
            size: 0,
            ..JobSpec::default()
        };
        assert_eq!(zero.admit(&limits).unwrap_err().exit_code(), 2);
    }

    #[test]
    fn plan_rejects_unrepresentable_resolution() {
        let spec = JobSpec {
            resolution: Some(2),
            ..small_spec(CopKind::MolecularDynamics, 3)
        };
        let err = JobPlan::from_spec(&spec).unwrap_err();
        assert!(matches!(&err, SachiError::Config(m) if m.contains("cannot represent")));
    }

    #[test]
    fn a_loaded_problem_lowers_like_the_generated_one() {
        // `sachi solve --file` hands `lower` a problem it built itself;
        // without a scorer the plan still runs, with NaN accuracy.
        let spec = small_spec(CopKind::MolecularDynamics, 4);
        let problem = build_cop_problem(spec.cop, spec.size, spec.seed).unwrap();
        let generated = JobPlan::from_spec(&spec).unwrap();
        let graph = problem.graph().clone();
        let loaded = JobPlan::lower(&spec, problem.name, graph).unwrap();
        assert!(generated.is_scored() && !loaded.is_scored());
        let (want, got) = (generated.run_solo(), loaded.run(2));
        assert_eq!(got.best, want.best);
        assert_eq!(got.report, want.report);
        assert!(got.accuracy.is_nan() && want.accuracy.is_finite());
    }

    #[test]
    fn pooled_jobs_match_solo_runs() {
        let specs = [
            small_spec(CopKind::MolecularDynamics, 11),
            small_spec(CopKind::SatThree, 12),
            small_spec(CopKind::GraphColoring, 13),
        ];
        let solo: Vec<JobOutcome> = specs
            .iter()
            .map(|s| JobPlan::from_spec(s).unwrap().run_solo())
            .collect();
        for threads in [1, 3] {
            let pool = SolverPool::with_workers(threads);
            let handles: Vec<JobHandle> = specs
                .iter()
                .map(|s| pool.submit(JobPlan::from_spec(s).unwrap()))
                .collect();
            for (handle, want) in handles.iter().zip(&solo) {
                let got = handle.wait().unwrap();
                assert_eq!(got.best, want.best);
                assert_eq!(got.report.serial_cycles, want.report.serial_cycles);
                assert!((got.accuracy - want.accuracy).abs() < 1e-12);
            }
            pool.join();
        }
    }

    #[test]
    fn tempered_pooled_jobs_match_solo_runs_and_carry_swap_stats() {
        let spec = JobSpec {
            tempering: true,
            ladder: LadderKind::Adaptive,
            restarts: 4,
            ..small_spec(CopKind::SatThree, 17)
        };
        let solo = JobPlan::from_spec(&spec).unwrap().run_solo();
        assert!(solo.best.stats.swap_attempts > 0, "exchange rounds ran");
        assert_eq!(solo.best.replicas.len(), 4);
        assert_eq!(solo.report.reports.len(), 4);
        for threads in [1, 3] {
            let pool = SolverPool::with_workers(threads);
            // A co-tenant uncoupled job shares the pool: coupling must
            // not disturb it, nor it the coupled job.
            let co = pool.submit(JobPlan::from_spec(&small_spec(CopKind::SatThree, 17)).unwrap());
            let handle = pool.submit(JobPlan::from_spec(&spec).unwrap());
            let got = handle.wait().unwrap();
            assert_eq!(got.best, solo.best, "threads = {threads}");
            assert_eq!(got.report.serial_cycles, solo.report.serial_cycles);
            assert!((got.accuracy - solo.accuracy).abs() < 1e-12);
            let co_want = JobPlan::from_spec(&small_spec(CopKind::SatThree, 17))
                .unwrap()
                .run_solo();
            assert_eq!(co.wait().unwrap().best, co_want.best);
            pool.join();
        }
        // Swaps disabled ⇒ the spec lowers to the uncoupled path and
        // matches the plain ensemble byte-for-byte.
        let plain = JobPlan::from_spec(&JobSpec {
            tempering: false,
            ..spec.clone()
        })
        .unwrap();
        assert!(!plain.is_coupled());
    }

    /// A tempered rung's report is the sum of its segments' reports
    /// (`RunReport::absorb`), the compute-array counts included. On a
    /// plan that fits the array, every segment, quench included, loads
    /// its one round once.
    #[test]
    fn a_tempered_job_counts_each_segment_round_load() {
        use sachi_ising::solver::IterativeSolver;

        /// A rung's machine that keeps each segment's report apart.
        struct Segments<'a> {
            machine: SachiMachine,
            rung: usize,
            reports: &'a Mutex<Vec<Vec<RunReport>>>,
        }
        impl IterativeSolver for Segments<'_> {
            fn solve(
                &mut self,
                graph: &IsingGraph,
                initial: &SpinVector,
                options: &SolveOptions,
            ) -> SolveResult {
                let (result, report) = self.machine.solve_detailed(graph, initial, options);
                self.reports.lock().unwrap()[self.rung].push(report);
                result
            }
        }

        let spec = JobSpec {
            tempering: true,
            restarts: 3,
            ..small_spec(CopKind::SatThree, 5)
        };
        let plan = JobPlan::from_spec(&spec).unwrap();
        let outcome = plan.run_solo();
        let reports = Mutex::new(vec![Vec::new(); plan.replica_count()]);
        let best = EnsembleRunner::new(plan.replica_count())
            .with_threads(1)
            .run(plan.graph(), plan.init(), plan.options(), |rung| Segments {
                machine: SachiMachine::new(plan.config().clone()),
                rung,
                reports: &reports,
            });
        assert_eq!(best, outcome.best);
        let reports = reports.into_inner().unwrap();
        for (rung, segments) in reports.iter().enumerate() {
            assert!(segments.len() > 1, "rung {rung} ran one segment");
            for segment in segments {
                assert_eq!(segment.rounds_per_sweep, 1);
                assert_eq!(segment.round_loads, 1);
            }
            let merged = &outcome.report.reports[rung];
            assert_eq!(merged.round_loads, segments.len() as u64);
            let fill: u64 = segments.iter().map(|r| r.fill_bits).sum();
            assert_eq!(merged.fill_bits, fill);
        }
        let segments = reports.iter().map(Vec::len).sum::<usize>() as u64;
        assert_eq!(outcome.metrics().counter("l1_round_loads"), segments);
    }

    #[test]
    fn poison_job_degrades_only_itself() {
        // A plan whose init does not match the graph panics the machine
        // (`solve_detailed` asserts the sizes agree) — the canonical
        // poison job. Build a healthy plan and corrupt the init.
        let healthy = small_spec(CopKind::MolecularDynamics, 21);
        let mut poison = JobPlan::from_spec(&healthy).unwrap();
        poison.init = SpinVector::filled(3, sachi_ising::spin::Spin::Up);
        let pool = SolverPool::with_workers(2);
        let bad = pool.submit(poison);
        let good = pool.submit(JobPlan::from_spec(&healthy).unwrap());
        let err = bad.wait().unwrap_err();
        assert_eq!(err.exit_code(), 3);
        assert!(err.to_string().contains("isolated"));
        // The co-tenant job and the pool itself are unharmed.
        let got = good.wait().unwrap();
        let want = JobPlan::from_spec(&healthy).unwrap().run_solo();
        assert_eq!(got.best, want.best);
        let again = pool.submit(JobPlan::from_spec(&healthy).unwrap());
        assert_eq!(again.wait().unwrap().best, want.best);
        pool.join();
    }

    #[test]
    fn revoke_resolves_unstarted_jobs_with_deadline_code() {
        // A single-worker pool wedged on a long job cannot start the
        // second submission, so revocation must succeed and resolve it
        // with the deadline code.
        let wide = JobSpec {
            restarts: 4,
            step_budget: Some(2_000_000),
            size: 64,
            ..JobSpec::default()
        };
        let pool = SolverPool::with_workers(1);
        let first = pool.submit(JobPlan::from_spec(&wide).unwrap());
        let second = pool.submit(JobPlan::from_spec(&small_spec(CopKind::SatThree, 5)).unwrap());
        // The second job sits behind four long replicas; revoke it.
        assert!(pool.revoke(&second));
        let err = second.wait().unwrap_err();
        assert_eq!(err.exit_code(), 5);
        assert!(matches!(
            err,
            SachiError::Server {
                reason: ServerReason::DeadlineExpired,
                ..
            }
        ));
        assert!(first.wait().is_ok());
        // Revoking a completed (started) job refuses.
        assert!(!pool.revoke(&first));
        pool.join();
    }

    #[test]
    fn draining_pool_rejects_new_submissions_with_shutdown_code() {
        let pool = SolverPool::with_workers(2);
        let before =
            pool.submit(JobPlan::from_spec(&small_spec(CopKind::MolecularDynamics, 7)).unwrap());
        pool.join();
        // In-flight work admitted before the drain still completes.
        assert!(before.wait().is_ok());
        let after =
            pool.submit(JobPlan::from_spec(&small_spec(CopKind::MolecularDynamics, 8)).unwrap());
        let err = after.wait().unwrap_err();
        assert_eq!(err.exit_code(), 5);
        assert!(matches!(
            err,
            SachiError::Server {
                reason: ServerReason::ShuttingDown,
                ..
            }
        ));
    }

    #[test]
    fn outcome_metrics_match_the_solo_fold() {
        let plan = JobPlan::from_spec(&small_spec(CopKind::MolecularDynamics, 2)).unwrap();
        let outcome = plan.run_solo();
        let reg = outcome.metrics();
        assert!(reg.counters().any(|(name, _)| name.starts_with("solver_")));
        assert!(reg.counters().any(|(name, _)| name == "ensemble_replicas"));
    }

    #[test]
    fn fault_error_mirrors_the_cli_verdicts() {
        // No faults configured: a clean outcome carries no fault error.
        let outcome = JobPlan::from_spec(&small_spec(CopKind::MolecularDynamics, 2))
            .unwrap()
            .run_solo();
        assert!(outcome.fault_error(RecoveryPolicy::default()).is_none());
        assert!(outcome.fault_error(RecoveryPolicy::FailFast).is_none());
    }

    #[test]
    fn cop_problems_match_the_cli_construction() {
        for kind in CopKind::EXTENDED {
            let p = build_cop_problem(kind, 12, 3).unwrap();
            assert!(p.graph().num_spins() > 0, "{}", p.name);
            // The scorer runs on a vector of the right length.
            let mut rng = StdRng::seed_from_u64(1);
            let spins = SpinVector::random(p.graph().num_spins(), &mut rng);
            let acc = (p.accuracy)(&spins);
            assert!(acc.is_finite());
        }
    }
}
