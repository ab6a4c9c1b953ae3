//! The QoS front door: declarative job submission over an engine.
//!
//! [`Service`] is the top of the stack for multi-tenant serving: it
//! owns one [`Engine`], one policy-driven [`Scheduler`], and a
//! per-class admission gate for whole jobs. Tenants describe work as
//! [`JobSpec`]s (kind, QoS class, soft deadline, sample budget, config
//! shaping) and get back a [`JobHandle`] they can poll, block on,
//! meter, or cancel; every job ends in exactly one terminal
//! [`JobOutcome`].
//!
//! ```no_run
//! use patternpaint_core::{Engine, JobOutcome, JobSpec, PipelineConfig, QosClass, Service};
//! use pp_pdk::SynthNode;
//!
//! # fn main() -> Result<(), patternpaint_core::PpError> {
//! let engine = Engine::builder(SynthNode::default(), PipelineConfig::quick())
//!     .pretrained_engine()?;
//! let service = Service::new(&engine, Default::default());
//!
//! let handle = service.submit(
//!     JobSpec::iterative(2)
//!         .with_class(QosClass::Interactive)
//!         .with_budget(500),
//! )?;
//! match handle.wait() {
//!     JobOutcome::Completed(report) => println!("library: {}", report.library.len()),
//!     other => eprintln!("{other}"),
//! }
//! # Ok(())
//! # }
//! ```
//!
//! Admission is two-layered and both layers reject with
//! [`PpError::Rejected`] instead of queueing without bound: the
//! service bounds *concurrent jobs* per class
//! ([`ServiceOptions::job_limits`]), and the scheduler underneath
//! bounds *sampling submissions* per class
//! ([`crate::SchedulerOptions::limits`]). A rejected submit leaves no
//! trace; retrying after an existing handle resolves is the expected
//! recovery (see `examples/engine_service.rs`).
//!
//! One process outgrown? [`crate::Fleet`] is the same front door over
//! N engine replicas: it accepts the same [`JobSpec`]s, returns the
//! same [`JobHandle`]s and resolves to the same [`JobOutcome`]s, with
//! routing, work-stealing and failover behind the submit call.

use crate::artifact::ArtifactStore;
use crate::engine::{Engine, Session};
use crate::error::PpError;
use crate::fault::Fault;
use crate::jobspec::{JobKind, JobSpec, QosClass};
use crate::library::PatternLibrary;
use crate::pipeline::IterationStats;
use crate::scheduler::{
    ClassCounts, QueueLimits, Scheduler, SchedulerHandle, SchedulerOptions, SchedulerStats,
};
use crate::stream::{CancelToken, GenerationRequest, Progress, ProgressHook, StreamOptions};
use crate::train::{TrainRun, TrainSpec, TrainSummary};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Build-time service configuration.
#[derive(Default)]
pub struct ServiceOptions {
    /// Sampling worker threads in the shared pool (`0` = the engine
    /// configuration's `threads`).
    pub threads: usize,
    /// Scheduler policy and per-class sampling-submission bounds.
    pub scheduler: SchedulerOptions,
    /// Per-class bounds on *concurrent jobs* (queued or running).
    /// Overflow rejects at [`Service::submit`].
    pub job_limits: QueueLimits,
    /// Artifact store for stateful workloads: [`JobKind::Train`] jobs
    /// checkpoint through it (and ingest saved session libraries from
    /// it). `None` rejects Train submissions with [`PpError::Config`].
    pub store: Option<Arc<dyn ArtifactStore>>,
}

impl fmt::Debug for ServiceOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceOptions")
            .field("threads", &self.threads)
            .field("scheduler", &self.scheduler)
            .field("job_limits", &self.job_limits)
            .field("store", &self.store.as_ref().map(|_| "dyn ArtifactStore"))
            .finish()
    }
}

/// Job-level admission counters (the scheduler's own dispatch counters
/// live in [`SchedulerStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs currently admitted and not yet terminal, per class.
    pub active: ClassCounts,
    /// Jobs admitted since the service started.
    pub submitted: ClassCounts,
    /// Jobs refused by admission control.
    pub rejected: ClassCounts,
    /// Jobs that reached a terminal outcome.
    pub finished: ClassCounts,
    /// Attempt re-runs across all jobs: each transient failure that a
    /// [`crate::RetryPolicy`] re-submitted adds one (a job that succeeds on
    /// attempt 3 contributed 2).
    pub retries: u64,
}

#[derive(Default)]
struct ServiceCounters {
    active: [u64; 3],
    submitted: [u64; 3],
    rejected: [u64; 3],
    finished: [u64; 3],
    retries: u64,
}

struct ServiceShared {
    counters: Mutex<ServiceCounters>,
    job_limits: QueueLimits,
    next_job: AtomicU64,
}

/// Locks the service counters, recovering from poisoning: counter
/// bookkeeping stays coherent at any interleaving point, and `stats()`
/// must keep answering after a worker or job thread panicked.
fn lock_counters(shared: &ServiceShared) -> MutexGuard<'_, ServiceCounters> {
    shared
        .counters
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The multi-tenant front door: one engine, one scheduler, declarative
/// [`JobSpec`] submission with per-class admission control.
///
/// Dropping the service cancels outstanding jobs (cooperatively — each
/// resolves to [`JobOutcome::Cancelled`] with its partial results),
/// joins their threads, and shuts the scheduler pool down. Handles
/// held by callers stay valid: a [`JobHandle::wait`] after the drop
/// returns the terminal outcome that was reached.
pub struct Service {
    engine: Engine,
    scheduler: Scheduler,
    shared: Arc<ServiceShared>,
    store: Option<Arc<dyn ArtifactStore>>,
    jobs: Mutex<Vec<(CancelToken, JoinHandle<()>)>>,
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Service")
            .field("scheduler", &self.scheduler)
            .field("job_limits", &self.shared.job_limits)
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Opens a front door over `engine`: spawns the shared sampling
    /// pool under `options.scheduler` and starts admitting jobs.
    pub fn new(engine: &Engine, options: ServiceOptions) -> Service {
        let threads = if options.threads == 0 {
            engine.config().threads
        } else {
            options.threads
        };
        let scheduler = engine.scheduler_with(threads, options.scheduler);
        Service {
            engine: engine.clone(),
            scheduler,
            shared: Arc::new(ServiceShared {
                counters: Mutex::new(ServiceCounters::default()),
                job_limits: options.job_limits,
                next_job: AtomicU64::new(1),
            }),
            store: options.store,
            jobs: Mutex::new(Vec::new()),
        }
    }

    /// The engine this service fronts.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// A snapshot of the scheduler's queue depths and dispatch
    /// counters.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.scheduler.stats()
    }

    /// A snapshot of job-level admission counters.
    pub fn stats(&self) -> ServiceStats {
        let c = lock_counters(&self.shared);
        ServiceStats {
            active: counts(&c.active),
            submitted: counts(&c.submitted),
            rejected: counts(&c.rejected),
            finished: counts(&c.finished),
            retries: c.retries,
        }
    }

    /// Submits a job described by `spec`; returns immediately with a
    /// [`JobHandle`].
    ///
    /// Admission and validation are synchronous: a handle is returned
    /// only for work that was actually accepted, so a caller can treat
    /// `Err` as "nothing happened" and retry.
    ///
    /// # Errors
    ///
    /// [`PpError::Rejected`] when the spec's class already has
    /// [`ServiceOptions::job_limits`] jobs in flight;
    /// [`PpError::Config`] when the spec's config shaping fails
    /// validation or tries to change the engine's model architecture.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, PpError> {
        if matches!(spec.kind, JobKind::Train(_)) {
            return self.submit_train(spec);
        }
        let class = spec.class;
        let seed = spec.seed.unwrap_or(self.engine.seed());
        // Validate the shaping before taking an admission slot, so a
        // bad spec never occupies capacity. The validated session is
        // discarded: every attempt (the first included) builds a fresh
        // one in the job thread so retries are bit-identical re-runs.
        if let Some(cfg) = spec.config {
            self.engine.session_seeded(seed).with_config(cfg)?;
        }
        self.admit_slot(class)?;
        let state = Arc::new(JobState::new(
            self.shared.next_job.fetch_add(1, Ordering::Relaxed),
            class,
        ));
        let hook_state = Arc::clone(&state);
        let mut proto = StreamOptions::default()
            .with_cancel(state.cancel.clone())
            .with_class(class)
            .with_progress(move |p: Progress| {
                hook_state.completed.store(p.completed, Ordering::Relaxed);
                hook_state.total.store(p.total, Ordering::Relaxed);
            });
        proto.deadline = spec.deadline;
        // The job-level deadline is one fixed point in time, shared by
        // every attempt (a retry does not reset the clock).
        // checked_add: an unrepresentable deadline degrades to none.
        let deadline_at = spec.deadline.and_then(|d| Instant::now().checked_add(d));
        let hard = spec.hard_deadline;
        let retry = spec.retry;
        // One scheduler session for all attempts: stats attribution
        // and fault-plan keying stay stable across retries.
        let sched_handle = self.scheduler.handle();

        let thread_state = Arc::clone(&state);
        let shared = Arc::clone(&self.shared);
        let engine = self.engine.clone();
        let config = spec.config;
        let kind = spec.kind;
        let budget = spec.budget;
        let worker = std::thread::spawn(move || {
            // The guard settles the job no matter how this thread
            // exits: a panic inside a round must still free the
            // admission slot and wake waiters (with a Failed outcome),
            // never leave `wait()` blocked forever.
            let mut guard = JobGuard {
                state: thread_state,
                shared: Arc::clone(&shared),
                outcome: None,
            };
            let cancel = guard.state.cancel.clone();
            let mut attempt = 1u32;
            let outcome = loop {
                // A fresh session per attempt: the library and
                // iteration cursor restart from scratch, so a retried
                // run is bit-identical to one that never faulted.
                let mut opts = proto.clone();
                if let Some(at) = deadline_at {
                    opts.deadline = Some(at.saturating_duration_since(Instant::now()));
                    opts.hard_deadline = hard;
                }
                let session = {
                    let mut s = engine.session_seeded(seed);
                    if let Some(cfg) = config {
                        s = match s.with_config(cfg) {
                            Ok(s) => s,
                            // Validated at submit; defensive.
                            Err(e) => break JobOutcome::Failed(e),
                        };
                    }
                    s.with_options(opts).attach_handle(sched_handle.clone())
                };
                let (result, mut report) = run_job(session, kind.clone(), budget);
                report.attempts = attempt;
                match result {
                    Ok(()) if cancel.is_cancelled() => break JobOutcome::Cancelled(report),
                    Ok(()) => break JobOutcome::Completed(report),
                    Err(PpError::DeadlineExceeded { .. }) => {
                        break JobOutcome::TimedOut { partial: report }
                    }
                    Err(PpError::Rejected { reason }) => {
                        break JobOutcome::Rejected {
                            reason,
                            partial: report,
                        }
                    }
                    Err(e)
                        if e.is_transient()
                            && attempt < retry.max_attempts
                            && !cancel.is_cancelled() =>
                    {
                        attempt += 1;
                        lock_counters(&shared).retries += 1;
                        // Bounded exponential backoff, slept in small
                        // slices so cancellation and a passing hard
                        // deadline interrupt the wait instead of
                        // stacking on top of it.
                        let until = Instant::now() + retry.delay_before(attempt);
                        let interrupted = loop {
                            if cancel.is_cancelled() {
                                break Some(JobOutcome::Cancelled(report.clone()));
                            }
                            if hard && deadline_at.is_some_and(|at| Instant::now() > at) {
                                break Some(JobOutcome::TimedOut {
                                    partial: report.clone(),
                                });
                            }
                            let left = until.saturating_duration_since(Instant::now());
                            if left.is_zero() {
                                break None;
                            }
                            std::thread::sleep(left.min(Duration::from_millis(5)));
                        };
                        if let Some(outcome) = interrupted {
                            break outcome;
                        }
                    }
                    Err(e) => break JobOutcome::Failed(e),
                }
            };
            guard.outcome = Some(outcome);
        });
        Ok(self.register(state, worker))
    }

    /// Takes (or refuses) a per-class admission slot.
    fn admit_slot(&self, class: QosClass) -> Result<(), PpError> {
        let mut c = lock_counters(&self.shared);
        let depth = c.active[class.index()];
        let limit = self.shared.job_limits.limit(class) as u64;
        if depth >= limit {
            c.rejected[class.index()] += 1;
            return Err(PpError::Rejected {
                reason: format!("{class} job queue is full ({depth} in flight, limit {limit})"),
            });
        }
        c.active[class.index()] += 1;
        c.submitted[class.index()] += 1;
        Ok(())
    }

    /// Tracks an admitted job's thread and hands the caller its handle.
    fn register(&self, state: Arc<JobState>, worker: JoinHandle<()>) -> JobHandle {
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        // Reap terminal jobs so a long-lived service doesn't accumulate
        // one join handle per job ever submitted (dropping a finished
        // handle just releases it; active jobs stay tracked for Drop).
        jobs.retain(|(_, worker)| !worker.is_finished());
        jobs.push((state.cancel.clone(), worker));
        drop(jobs);
        JobHandle { state }
    }

    /// Admits and runs a [`JobKind::Train`] job: a preemptible,
    /// resumable epoch loop on a dedicated thread, under the same
    /// admission gate, retry policy, deadline clock and guard
    /// settlement as generation jobs.
    ///
    /// The driver checkpoints after every epoch and *parks* between
    /// epochs while any strictly-higher QoS class has sampling
    /// submissions in flight — training is the canonical scavenger
    /// workload, so interactive and batch tenants reclaim the machine
    /// at epoch granularity. A transient failure (worker panic, I/O)
    /// retries under the spec's [`crate::RetryPolicy`], and the retry
    /// *resumes from the last checkpoint* rather than epoch 0 — the
    /// attempt re-prepares the run from the store, which is also what
    /// makes a process restart resumable.
    fn submit_train(&self, spec: JobSpec) -> Result<JobHandle, PpError> {
        let JobKind::Train(train_spec) = spec.kind else {
            // Guarded by the caller; defensive.
            return Err(PpError::Config("submit_train needs a train spec".into()));
        };
        let store = self.store.clone().ok_or_else(|| {
            PpError::Config(
                "train jobs need an artifact store: build the service with \
                 ServiceOptions::store"
                    .into(),
            )
        })?;
        train_spec.validate()?;
        if spec.config.is_some() {
            return Err(PpError::Config(
                "train jobs do not take request-shaping config overrides".into(),
            ));
        }
        let class = spec.class;
        let seed = spec.seed.unwrap_or(self.engine.seed());
        self.admit_slot(class)?;
        let state = Arc::new(JobState::new(
            self.shared.next_job.fetch_add(1, Ordering::Relaxed),
            class,
        ));
        // The same progress plumbing generation uses, fed at epoch
        // granularity: JobHandle::progress reports epochs done / total.
        let hook_state = Arc::clone(&state);
        let progress: ProgressHook = Arc::new(move |p: Progress| {
            hook_state.completed.store(p.completed, Ordering::Relaxed);
            hook_state.total.store(p.total, Ordering::Relaxed);
        });
        let deadline_at = spec.deadline.and_then(|d| Instant::now().checked_add(d));
        let hard = spec.hard_deadline;
        let retry = spec.retry;
        // One scheduler session for all attempts: fault-plan keying and
        // panic accounting stay stable across retries, as for sampling.
        let sched_handle = self.scheduler.handle();

        let thread_state = Arc::clone(&state);
        let shared = Arc::clone(&self.shared);
        let engine = self.engine.clone();
        let worker = std::thread::spawn(move || {
            let mut guard = JobGuard {
                state: thread_state,
                shared: Arc::clone(&shared),
                outcome: None,
            };
            let cancel = guard.state.cancel.clone();
            let mut attempt = 1u32;
            let outcome = loop {
                let exit = run_train_attempt(
                    &engine,
                    &*store,
                    &train_spec,
                    seed,
                    &sched_handle,
                    &cancel,
                    deadline_at,
                    hard,
                    class,
                    &progress,
                );
                match exit {
                    Ok(TrainExit::Completed(summary)) if cancel.is_cancelled() => {
                        break JobOutcome::Cancelled(train_report(summary, attempt))
                    }
                    Ok(TrainExit::Completed(summary)) => {
                        break JobOutcome::Completed(train_report(summary, attempt))
                    }
                    Ok(TrainExit::Cancelled(summary)) => {
                        break JobOutcome::Cancelled(train_report(summary, attempt))
                    }
                    // The partial report carries the summary of the
                    // last *checkpointed* epoch — exactly what a
                    // follow-up job would resume from.
                    Ok(TrainExit::TimedOut(summary)) => {
                        break JobOutcome::TimedOut {
                            partial: train_report(summary, attempt),
                        }
                    }
                    Err(e)
                        if e.is_transient()
                            && attempt < retry.max_attempts
                            && !cancel.is_cancelled() =>
                    {
                        attempt += 1;
                        lock_counters(&shared).retries += 1;
                        // Bounded exponential backoff in cancellable
                        // slices, mirroring the generation retry loop.
                        // An interruption mid-backoff still resolves
                        // typed; the empty report (train: None) says no
                        // new checkpoint came out of the failed attempt.
                        let until = Instant::now() + retry.delay_before(attempt);
                        let interrupted = loop {
                            if cancel.is_cancelled() {
                                break Some(JobOutcome::Cancelled(empty_train_report(attempt)));
                            }
                            if hard && deadline_at.is_some_and(|at| Instant::now() > at) {
                                break Some(JobOutcome::TimedOut {
                                    partial: empty_train_report(attempt),
                                });
                            }
                            let left = until.saturating_duration_since(Instant::now());
                            if left.is_zero() {
                                break None;
                            }
                            std::thread::sleep(left.min(Duration::from_millis(5)));
                        };
                        if let Some(outcome) = interrupted {
                            break outcome;
                        }
                    }
                    Err(e) => break JobOutcome::Failed(e),
                }
            };
            guard.outcome = Some(outcome);
        });
        Ok(self.register(state, worker))
    }
}

/// Settles a job on every exit path of its thread — including panics,
/// where the stored outcome is still `None` and a `Failed` terminal is
/// synthesised so the admission slot frees and `wait()` returns.
struct JobGuard {
    state: Arc<JobState>,
    shared: Arc<ServiceShared>,
    outcome: Option<JobOutcome>,
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        let outcome = self.outcome.take().unwrap_or_else(|| {
            JobOutcome::Failed(PpError::Model(
                "job thread panicked before reaching a terminal outcome".into(),
            ))
        });
        // `unwrap_or_else(into_inner)`: these locks must settle the job
        // even when a panic elsewhere poisoned them — panicking here
        // would abort the process mid-unwind.
        {
            let mut c = lock_counters(&self.shared);
            c.active[self.state.class.index()] -= 1;
            c.finished[self.state.class.index()] += 1;
        }
        self.state.settle(outcome);
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let mut jobs =
            std::mem::take(&mut *self.jobs.lock().unwrap_or_else(PoisonError::into_inner));
        for (cancel, _) in &jobs {
            cancel.cancel();
        }
        for (_, worker) in jobs.drain(..) {
            let _ = worker.join();
        }
        // The scheduler field drops after this, joining its pool.
    }
}

fn counts(raw: &[u64; 3]) -> ClassCounts {
    ClassCounts {
        interactive: raw[0],
        batch: raw[1],
        best_effort: raw[2],
    }
}

/// Truncates `request` to at most `budget` jobs (sample budgets are
/// per-job intent: the front door enforces them by shrinking the
/// request, never by guessing inside the round). Shared with the
/// fleet router, which enforces budgets identically per replica.
pub(crate) fn truncated(request: GenerationRequest, budget: Option<usize>) -> GenerationRequest {
    match budget {
        Some(b) if request.jobs().len() > b => {
            let mut jobs = request.jobs().clone();
            jobs.truncate(b);
            GenerationRequest::new(jobs, request.seed())
        }
        _ => request,
    }
}

/// Runs the job's rounds against a borrowed session, so callers that
/// need the session *after* the rounds (the fleet router persists
/// affinity sessions via PPSQ before reporting) share one definition
/// of what each [`JobKind`] does. Returns the per-round stats for
/// iterative kinds; the session's own counters and library carry the
/// results.
pub(crate) fn run_rounds(
    session: &mut Session,
    kind: JobKind,
    budget: Option<usize>,
) -> (Result<(), PpError>, Vec<IterationStats>) {
    let mut iterations = Vec::new();
    let result = (|| -> Result<(), PpError> {
        match kind {
            JobKind::Initial => {
                let request = truncated(session.initial_request(), budget);
                session.run_request(&request)?;
            }
            JobKind::Raw(request) => {
                let request = truncated(request, budget);
                session.run_request(&request)?;
            }
            JobKind::Iterative { iterations: n } => {
                let request = truncated(session.initial_request(), budget);
                session.run_request(&request)?;
                session.seed_starters();
                for _ in 0..n {
                    if session.options().cancel.is_cancelled() {
                        break;
                    }
                    if budget.is_some_and(|b| session.generated_total() >= b) {
                        break;
                    }
                    iterations.extend(session.iterate(1)?);
                }
            }
            // Train jobs never reach the round runner: the service
            // drives them through a dedicated epoch loop, and the
            // fleet rejects them at submission.
            JobKind::Train(_) => {
                return Err(PpError::Config(
                    "train jobs do not run generation rounds".into(),
                ))
            }
        }
        Ok(())
    })();
    (result, iterations)
}

/// Runs the job's rounds. The report is built from the session on
/// every path — success *and* failure — so mid-run errors (a scheduler
/// rejection after eight good rounds, say) never discard the work that
/// already landed in the library.
pub(crate) fn run_job(
    mut session: Session,
    kind: JobKind,
    budget: Option<usize>,
) -> (Result<(), PpError>, JobReport) {
    let (result, iterations) = run_rounds(&mut session, kind, budget);
    let report = JobReport {
        generated: session.generated_total(),
        legal: session.legal_total(),
        attempts: 1,
        iterations,
        library: session.into_library(),
        train: None,
    };
    (result, report)
}

/// How one training attempt ended (errors travel separately so the
/// retry loop can classify them).
enum TrainExit {
    Completed(TrainSummary),
    Cancelled(TrainSummary),
    TimedOut(TrainSummary),
}

/// The report of a training job: no generation counters, the summary
/// carries everything.
fn train_report(summary: TrainSummary, attempts: u32) -> JobReport {
    JobReport {
        generated: 0,
        legal: 0,
        attempts,
        iterations: Vec::new(),
        library: PatternLibrary::new(),
        train: Some(summary),
    }
}

/// A report for a train job interrupted before any attempt produced a
/// summary (cancel or deadline during retry backoff).
fn empty_train_report(attempts: u32) -> JobReport {
    JobReport {
        generated: 0,
        legal: 0,
        attempts,
        iterations: Vec::new(),
        library: PatternLibrary::new(),
        train: None,
    }
}

/// Whether any class strictly higher-priority than `class` has sampling
/// submissions in flight — the parking signal for preemptible training.
fn higher_class_busy(stats: &SchedulerStats, class: QosClass) -> bool {
    QosClass::ALL
        .iter()
        .take(class.index())
        .any(|&c| stats.queued.get(c) > 0)
}

/// How often a parked train job re-checks the scheduler's queues (and
/// its own cancel/deadline state).
const PREEMPT_POLL: Duration = Duration::from_millis(2);

/// One training attempt: prepare (fresh or resumed from the last
/// checkpoint), then per epoch — park while higher classes are busy,
/// consume any injected fault keyed on the epoch ordinal, run the
/// epoch under `catch_unwind` (a panic in the math is isolated to this
/// job and surfaces as transient [`PpError::WorkerPanic`]), checkpoint,
/// and report epoch-granular progress.
#[allow(clippy::too_many_arguments)]
fn run_train_attempt(
    engine: &Engine,
    store: &dyn ArtifactStore,
    spec: &TrainSpec,
    seed: u64,
    sched: &SchedulerHandle,
    cancel: &CancelToken,
    deadline_at: Option<Instant>,
    hard: bool,
    class: QosClass,
    progress: &ProgressHook,
) -> Result<TrainExit, PpError> {
    let mut run = TrainRun::prepare(engine, store, spec, seed)?;
    let report_progress = |run: &TrainRun| {
        progress(Progress {
            completed: run.epochs_done() as usize,
            total: run.epochs_total() as usize,
        });
    };
    report_progress(&run);
    while !run.is_done() {
        if cancel.is_cancelled() {
            return Ok(TrainExit::Cancelled(run.summary()));
        }
        if hard && deadline_at.is_some_and(|at| Instant::now() > at) {
            return Ok(TrainExit::TimedOut(run.summary()));
        }
        // Preemption point: park while interactive/batch tenants have
        // sampling in flight. One episode counts once, however long.
        let mut parked = false;
        while higher_class_busy(&sched.stats(), class) {
            if cancel.is_cancelled() {
                return Ok(TrainExit::Cancelled(run.summary()));
            }
            if hard && deadline_at.is_some_and(|at| Instant::now() > at) {
                return Ok(TrainExit::TimedOut(run.summary()));
            }
            if !parked {
                parked = true;
                run.note_preemption();
            }
            std::thread::sleep(PREEMPT_POLL);
        }
        // Chaos hook, keyed on (session, epoch ordinal) — the train
        // analogue of the sampling path's (session, slot ordinal).
        match sched.take_fault(u64::from(run.epochs_done())) {
            Some(Fault::PanicAt { .. }) => {
                return Err(PpError::WorkerPanic {
                    detail: format!(
                        "injected fault: worker panic (train epoch {})",
                        run.epochs_done()
                    ),
                })
            }
            Some(Fault::ErrAt { .. }) => {
                return Err(PpError::Io(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    format!(
                        "injected transient i/o fault (train epoch {})",
                        run.epochs_done()
                    ),
                )))
            }
            Some(Fault::StallFor { duration, .. }) => std::thread::sleep(duration),
            None => {}
        }
        let epoch = run.epochs_done();
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run.run_epoch())) {
            Ok(Ok(_report)) => {}
            Ok(Err(e)) => return Err(e),
            Err(_) => {
                // The run may hold mid-epoch weights now; the retry
                // re-prepares from the last checkpoint, discarding them.
                return Err(PpError::WorkerPanic {
                    detail: format!("train epoch {epoch} panicked"),
                });
            }
        }
        run.checkpoint(store)?;
        report_progress(&run);
    }
    run.finish(store)?;
    Ok(TrainExit::Completed(run.summary()))
}

/// The shared terminal-state cell behind a [`JobHandle`]: the service
/// settles it from a per-job thread, the fleet router from replica
/// runners — the waiting side is identical either way.
pub(crate) struct JobState {
    pub(crate) id: u64,
    pub(crate) class: QosClass,
    pub(crate) cancel: CancelToken,
    pub(crate) completed: AtomicUsize,
    pub(crate) total: AtomicUsize,
    pub(crate) outcome: Mutex<Option<JobOutcome>>,
    pub(crate) done: Condvar,
}

impl JobState {
    /// A fresh, unsettled job state.
    pub(crate) fn new(id: u64, class: QosClass) -> JobState {
        JobState {
            id,
            class,
            cancel: CancelToken::new(),
            completed: AtomicUsize::new(0),
            total: AtomicUsize::new(0),
            outcome: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    /// Stores the terminal outcome and wakes waiters — first writer
    /// wins, so racing settlement paths (a replica-loss sweep vs. the
    /// runner that was executing the job) can both call this safely.
    pub(crate) fn settle(&self, outcome: JobOutcome) {
        let mut slot = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(outcome);
            drop(slot);
            self.done.notify_all();
        }
    }
}

/// Where a submitted job currently stands.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted; rounds are running (or queued at the scheduler).
    Running,
    /// A terminal [`JobOutcome`] is ready ([`JobHandle::wait`] returns
    /// it without blocking).
    Done,
}

/// The caller's side of one submitted job: poll, block, meter, cancel.
///
/// The handle is detachable — dropping it neither cancels nor leaks
/// the job (the service still runs and accounts it).
pub struct JobHandle {
    state: Arc<JobState>,
}

impl fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.state.id)
            .field("class", &self.state.class)
            .field("status", &self.poll())
            .finish()
    }
}

impl JobHandle {
    /// Wraps a shared job state — the fleet router hands out the same
    /// handle type the service does, so callers poll/wait/cancel
    /// identically whichever front door admitted the job.
    pub(crate) fn from_state(state: Arc<JobState>) -> JobHandle {
        JobHandle { state }
    }

    /// The service-assigned job id.
    pub fn id(&self) -> u64 {
        self.state.id
    }

    /// The job's QoS class.
    pub fn class(&self) -> QosClass {
        self.state.class
    }

    /// Non-blocking status check.
    pub fn poll(&self) -> JobStatus {
        if self
            .state
            .outcome
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
        {
            JobStatus::Done
        } else {
            JobStatus::Running
        }
    }

    /// Sampling progress of the job's active round (multi-round jobs
    /// report the round in flight).
    pub fn progress(&self) -> Progress {
        Progress {
            completed: self.state.completed.load(Ordering::Relaxed),
            total: self.state.total.load(Ordering::Relaxed),
        }
    }

    /// Requests cooperative cancellation: the job stops at the
    /// scheduler's next slot-admission point and resolves to
    /// [`JobOutcome::Cancelled`] with whatever it finished.
    pub fn cancel(&self) {
        self.state.cancel.cancel();
    }

    /// Blocks until the job reaches its terminal outcome and returns
    /// it.
    pub fn wait(self) -> JobOutcome {
        let mut outcome = self
            .state
            .outcome
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(terminal) = outcome.take() {
                return terminal;
            }
            outcome = self
                .state
                .done
                .wait(outcome)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks for at most `timeout` for the terminal outcome. On
    /// timeout the handle comes back unchanged (`Err`), so a caller
    /// can bound every wait on a possibly-wedged job without
    /// forfeiting the ability to poll, cancel, or wait again.
    pub fn wait_timeout(self, timeout: Duration) -> Result<JobOutcome, JobHandle> {
        let deadline = Instant::now() + timeout;
        let mut outcome = self
            .state
            .outcome
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(terminal) = outcome.take() {
                return Ok(terminal);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                drop(outcome);
                return Err(self);
            }
            outcome = self
                .state
                .done
                .wait_timeout(outcome, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// What a completed (or cancelled-with-partial-results) job produced.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Samples generated across all rounds.
    pub generated: usize,
    /// Samples that passed validation (duplicates included, matching
    /// the paper's Table I accounting).
    pub legal: usize,
    /// How many attempts the job took (1 = no retry was needed; see
    /// [`crate::RetryPolicy`]). The report's results come from the last
    /// attempt alone — earlier, faulted attempts contribute nothing.
    pub attempts: u32,
    /// Per-iteration statistics for [`JobKind::Iterative`] jobs.
    pub iterations: Vec<IterationStats>,
    /// The library the job grew.
    pub library: PatternLibrary,
    /// Training summary, for [`JobKind::Train`] jobs (`None` on
    /// generation kinds): epochs done, checkpoint/state keys, parent
    /// lineage, resume/preemption counts.
    pub train: Option<TrainSummary>,
}

/// The single terminal state of a submitted job.
///
/// Exactly one of these is produced per [`JobHandle`]; `Failed` wraps
/// the typed [`PpError`], whose `source()` chain reaches the root
/// cause (down to `io::Error` for persistence failures).
#[non_exhaustive]
#[derive(Debug)]
pub enum JobOutcome {
    /// Every round ran; the report carries the full results.
    Completed(JobReport),
    /// Cancelled cooperatively; the report carries the partial
    /// results that were already admitted.
    Cancelled(JobReport),
    /// Admitted by the service but refused downstream (the scheduler's
    /// per-class sampling queue was at its bound when a round
    /// submitted). Rounds that completed before the refusal are not
    /// thrown away: `partial` carries them, so a caller resubmitting
    /// can keep the work already paid for.
    Rejected {
        /// Which bound overflowed, as reported by admission control.
        reason: String,
        /// Results of the rounds that completed before the refusal
        /// (empty when the very first round was refused).
        partial: JobReport,
    },
    /// The job's hard deadline ([`JobSpec::with_hard_deadline`]) passed
    /// before it finished: the scheduler cancelled the work at a slot
    /// admission and the rounds that completed in time survive in
    /// `partial`. Timed-out jobs never retry — the deadline is a
    /// property of the request, not a transient fault.
    TimedOut {
        /// Results of the rounds that beat the deadline (empty when
        /// the very first round timed out).
        partial: JobReport,
    },
    /// A round failed; the wrapped error's `source()` chain names the
    /// root cause.
    Failed(PpError),
}

impl fmt::Display for JobOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobOutcome::Completed(r) => write!(
                f,
                "completed: {} generated, {} legal, {} in library",
                r.generated,
                r.legal,
                r.library.len()
            ),
            JobOutcome::Cancelled(r) => write!(
                f,
                "cancelled: {} generated, {} legal before the stop",
                r.generated, r.legal
            ),
            JobOutcome::Rejected { reason, partial } => write!(
                f,
                "rejected: {reason} ({} generated, {} legal kept from earlier rounds)",
                partial.generated, partial.legal
            ),
            JobOutcome::TimedOut { partial } => write!(
                f,
                "timed out: {} generated, {} legal before the deadline",
                partial.generated, partial.legal
            ),
            JobOutcome::Failed(e) => write!(f, "failed: {e}"),
        }
    }
}

impl JobOutcome {
    /// Whether the job ran to completion.
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed(_))
    }

    /// The report, for outcomes that carry one (`Completed`,
    /// `Cancelled`, and `Rejected`/`TimedOut` partial rounds).
    pub fn report(&self) -> Option<&JobReport> {
        match self {
            JobOutcome::Completed(r)
            | JobOutcome::Cancelled(r)
            | JobOutcome::Rejected { partial: r, .. }
            | JobOutcome::TimedOut { partial: r } => Some(r),
            _ => None,
        }
    }

    /// Consumes the outcome into its report, if it carries one.
    pub fn into_report(self) -> Option<JobReport> {
        match self {
            JobOutcome::Completed(r)
            | JobOutcome::Cancelled(r)
            | JobOutcome::Rejected { partial: r, .. }
            | JobOutcome::TimedOut { partial: r } => Some(r),
            _ => None,
        }
    }

    /// The failure, for `Failed` outcomes (its `source()` chain
    /// reaches the root cause).
    pub fn error(&self) -> Option<&PpError> {
        match self {
            JobOutcome::Failed(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::jobs::JobSet;
    use pp_pdk::SynthNode;
    use std::time::Duration;

    fn tiny_service(job_limits: QueueLimits) -> Service {
        let engine = Engine::builder(SynthNode::small(), PipelineConfig::tiny())
            .seed(3)
            .untrained_engine()
            .expect("tiny config is valid");
        Service::new(
            &engine,
            ServiceOptions {
                threads: 2,
                job_limits,
                ..Default::default()
            },
        )
    }

    #[test]
    fn initial_job_matches_a_solo_session() {
        let service = tiny_service(QueueLimits::default());
        let mut solo = service.engine().session_seeded(7);
        let (generated, legal) = solo.initial_generation().expect("solo runs");
        let handle = service
            .submit(JobSpec::initial().with_seed(7))
            .expect("admitted");
        let outcome = handle.wait();
        assert!(outcome.is_completed(), "outcome was: {outcome}");
        let report = outcome.into_report().expect("completed carries a report");
        assert_eq!((report.generated, report.legal), (generated, legal));
        assert_eq!(report.library.patterns(), solo.library().patterns());
        assert!(report.iterations.is_empty());
        let stats = service.stats();
        assert_eq!(stats.finished.get(QosClass::Batch), 1);
        assert_eq!(stats.active.total(), 0);
    }

    #[test]
    fn iterative_job_matches_a_solo_session() {
        let service = tiny_service(QueueLimits::default());
        let mut solo = service.engine().session_seeded(11);
        solo.initial_generation().expect("solo runs");
        solo.seed_starters();
        let solo_stats = solo.iterate(2).expect("solo iterates");
        let handle = service
            .submit(JobSpec::iterative(2).with_seed(11))
            .expect("admitted");
        let report = handle.wait().into_report().expect("job completes");
        assert_eq!(report.iterations, solo_stats);
        assert_eq!(report.library.patterns(), solo.library().patterns());
    }

    #[test]
    fn budget_truncates_single_round_jobs() {
        let service = tiny_service(QueueLimits::default());
        let handle = service
            .submit(JobSpec::initial().with_budget(5))
            .expect("admitted");
        let report = handle.wait().into_report().expect("job completes");
        assert_eq!(report.generated, 5, "budget must truncate the request");
    }

    #[test]
    fn job_admission_rejects_and_recovers() {
        let service = tiny_service(QueueLimits {
            interactive: 1,
            batch: 8,
            best_effort: 8,
        });
        let slow = service
            .submit(JobSpec::iterative(2).with_class(QosClass::Interactive))
            .expect("first interactive job is admitted");
        // The class is at its bound: the second submit must be refused
        // without touching the first.
        let err = service
            .submit(JobSpec::initial().with_class(QosClass::Interactive))
            .unwrap_err();
        assert!(
            matches!(err, PpError::Rejected { .. }),
            "wrong error: {err}"
        );
        assert!(err.to_string().contains("interactive"), "reason: {err}");
        // Other classes still have room.
        let batch = service.submit(JobSpec::initial()).expect("batch admitted");
        assert!(batch.wait().is_completed());
        // Capacity frees once the slow job resolves; the retry lands.
        assert!(slow.wait().is_completed());
        let retry = service
            .submit(JobSpec::initial().with_class(QosClass::Interactive))
            .expect("slot freed after completion");
        assert!(retry.wait().is_completed());
        let stats = service.stats();
        assert_eq!(stats.rejected.get(QosClass::Interactive), 1);
        assert_eq!(stats.submitted.get(QosClass::Interactive), 2);
    }

    #[test]
    fn cancellation_resolves_to_cancelled_with_partial_results() {
        let service = tiny_service(QueueLimits::default());
        let handle = service.submit(JobSpec::initial()).expect("admitted");
        handle.cancel();
        match handle.wait() {
            JobOutcome::Cancelled(report) => {
                assert!(report.generated < 200, "cancel must stop the round early");
            }
            // The round may already have finished on a fast box; both
            // terminals are legitimate, anything else is not.
            JobOutcome::Completed(_) => {}
            other => panic!("unexpected outcome: {other}"),
        }
    }

    #[test]
    fn invalid_shaping_fails_fast_without_taking_a_slot() {
        let service = tiny_service(QueueLimits::default());
        let mut bad = PipelineConfig::tiny();
        bad.variations = 0;
        let err = service
            .submit(JobSpec::initial().with_config(bad))
            .unwrap_err();
        assert!(matches!(err, PpError::Config(_)), "wrong error: {err}");
        assert_eq!(service.stats().submitted.total(), 0);
    }

    /// A panic inside a round must still settle the job: the waiter
    /// gets a `Failed` outcome (never a deadlock) and the class's
    /// admission slot frees for the next tenant.
    #[test]
    fn panicking_job_settles_with_failed_and_frees_the_slot() {
        struct PanicSampler;
        impl crate::stages::Sampler for PanicSampler {
            fn sample(
                &self,
                _jobs: &JobSet,
                _seed: u64,
            ) -> Result<Vec<crate::pipeline::RawSample>, PpError> {
                panic!("sampler exploded");
            }
        }
        let engine = Engine::builder(SynthNode::small(), PipelineConfig::tiny())
            .sampler(PanicSampler)
            .untrained_engine()
            .expect("tiny config is valid");
        let service = Service::new(
            &engine,
            ServiceOptions {
                threads: 1,
                job_limits: QueueLimits::uniform(1),
                ..Default::default()
            },
        );
        let handle = service.submit(JobSpec::initial()).expect("admitted");
        match handle.wait() {
            JobOutcome::Failed(e) => {
                assert!(e.to_string().contains("panicked"), "wrong error: {e}")
            }
            other => panic!("expected Failed, got: {other}"),
        }
        assert_eq!(service.stats().active.total(), 0, "slot must free");
        // The freed slot admits the next job in the same class.
        let retry = service.submit(JobSpec::initial()).expect("slot freed");
        assert!(matches!(retry.wait(), JobOutcome::Failed(_)));
    }

    /// A deadline too far in the future to represent as an `Instant`
    /// degrades to "no deadline" instead of panicking mid-submit.
    #[test]
    fn unrepresentable_deadlines_do_not_panic() {
        let service = tiny_service(QueueLimits::default());
        let handle = service
            .submit(
                JobSpec::initial()
                    .with_budget(2)
                    .with_deadline(Duration::MAX),
            )
            .expect("admitted");
        let report = handle.wait().into_report().expect("job completes");
        assert_eq!(report.generated, 2);
    }

    #[test]
    fn raw_jobs_run_explicit_requests() {
        let service = tiny_service(QueueLimits::default());
        let starters = service.engine().starters().to_vec();
        let masks = pp_inpaint::MaskSet::Default.masks(service.engine().node().clip());
        let request = GenerationRequest::new(JobSet::cycle(&starters, &masks, 6), 13);
        let handle = service
            .submit(JobSpec::raw(request).with_class(QosClass::BestEffort))
            .expect("admitted");
        let report = handle.wait().into_report().expect("job completes");
        assert_eq!(report.generated, 6);
        let sched = service.scheduler_stats();
        assert_eq!(sched.admitted.get(QosClass::BestEffort), 1);
    }
}
