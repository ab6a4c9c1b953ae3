//! One job lifecycle, one dispatcher shape.
//!
//! [`crate::Service`] and [`crate::Fleet`] dispatch alike: each admitted
//! job gets its own thread ([`JobThreads`]), which drives it through
//! [`AdmittedJob::run_to_end`], and each attempt submits straight into
//! a scheduler, where the policy ranks it against every other job
//! there. The front doors differ only in *where* an attempt runs: the
//! service has one scheduler, the fleet picks a replica per attempt.
//! Everything else a job goes through is decided here, once:
//!
//! - **Admission.** [`Admission`] takes (or refuses) a per-class slot
//!   and keeps the job-level counters behind [`crate::ServiceStats`] and
//!   [`crate::FleetStats`]. The [`AdmittedJob`] record it hands out
//!   carries the spec, the job's one deadline instant (fixed at submit,
//!   so neither a retry nor a failover resets the clock) and the attempt
//!   number.
//! - **Attempts.** Each attempt gets fresh [`StreamOptions`] (whatever
//!   is left of the deadline) and a fresh session over the job's seed,
//!   so a retried run is bit-identical to one that never faulted. It
//!   runs under `catch_unwind`: a panic in a stage that runs on the
//!   job's thread (a custom sampler, validator or denoiser, the round
//!   tail, selection) fails the job, not the thread.
//! - **One verdict.** [`AdmittedJob::attempt`] classifies every attempt
//!   as done (with its terminal outcome), retry (a transient error with
//!   attempts left) or lost (the scheduler's worker pool is gone: the
//!   fleet fails over to a peer without consuming an attempt, and a
//!   front door with nowhere left to go fails the job).
//! - **Retries.** A retry is counted when it is booked; the job's
//!   thread sleeps out its backoff, and the attempt number advances
//!   when the next attempt starts, so [`JobReport::attempts`] counts
//!   only attempts that ran.
//! - **Interruption.** A cancel, or a passed hard deadline, before an
//!   attempt starts (during retry backoff, or while a fleet job waits
//!   its turn behind an earlier job with the same affinity key) ends
//!   the job `Cancelled`/`TimedOut` with an empty report.
//! - **Settlement.** An admitted job settles exactly once: settling
//!   consumes the record, and a record dropped unsettled (a panic
//!   unwound through its thread) settles `Failed`, so the admission
//!   slot frees and [`JobHandle::wait`] returns.

use crate::config::PipelineConfig;
use crate::engine::{Engine, Session};
use crate::error::PpError;
use crate::jobspec::{JobKind, JobSpec, QosClass, RetryPolicy};
use crate::library::PatternLibrary;
use crate::pipeline::IterationStats;
use crate::scheduler::{ClassCounts, QueueLimits, SchedulerHandle};
use crate::service::ServiceStats;
use crate::stream::{CancelToken, GenerationRequest, Progress, StreamOptions};
use crate::train::TrainSummary;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The longest a job waits between attempts (retry backoff, a fleet
/// job's turn behind its affinity key) before it re-checks its cancel
/// token and hard deadline.
pub(crate) const WAIT_SLICE: Duration = Duration::from_millis(5);

/// Per-class admission of whole jobs, and the job-level counters both
/// front doors report.
pub(crate) struct Admission {
    counters: Mutex<Counters>,
    pub(crate) limits: QueueLimits,
    /// Qualifies the in-flight count in rejection reasons
    /// (`" fleet-wide"` on a fleet).
    scope: &'static str,
    next_job: AtomicU64,
}

#[derive(Default)]
struct Counters {
    active: [u64; 3],
    submitted: [u64; 3],
    rejected: [u64; 3],
    finished: [u64; 3],
    shed: u64,
    retries: u64,
}

/// Locks the counters, recovering from poisoning: the bookkeeping stays
/// coherent at any interleaving point, and stats must keep answering
/// after a job thread panicked.
fn lock_counters(admission: &Admission) -> MutexGuard<'_, Counters> {
    admission
        .counters
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

impl Admission {
    /// An admission gate bounding in-flight jobs per class at `limits`.
    pub(crate) fn new(limits: QueueLimits, scope: &'static str) -> Arc<Admission> {
        Arc::new(Admission {
            counters: Mutex::new(Counters::default()),
            limits,
            scope,
            next_job: AtomicU64::new(1),
        })
    }

    /// Takes a slot in `spec`'s class and builds the job's record.
    ///
    /// The class bound is checked first; then a `shed` reason (the
    /// fleet's back-pressure verdict) refuses the job. Either refusal
    /// is counted and leaves no other trace.
    pub(crate) fn admit(
        self: &Arc<Self>,
        spec: JobSpec,
        seed: u64,
        shed: Option<String>,
    ) -> Result<AdmittedJob, PpError> {
        let class = spec.class;
        {
            let mut c = lock_counters(self);
            let depth = c.active[class.index()];
            let limit = self.limits.limit(class) as u64;
            if depth >= limit {
                c.rejected[class.index()] += 1;
                return Err(PpError::Rejected {
                    reason: format!(
                        "{class} job queue is full ({depth} in flight{}, limit {limit})",
                        self.scope
                    ),
                });
            }
            if let Some(reason) = shed {
                c.shed += 1;
                return Err(PpError::Rejected { reason });
            }
            c.active[class.index()] += 1;
            c.submitted[class.index()] += 1;
        }
        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        Ok(AdmittedJob {
            state: Arc::new(JobState::new(id, class)),
            admission: Arc::clone(self),
            kind: spec.kind,
            seed,
            config: spec.config,
            budget: spec.budget,
            retry: spec.retry,
            hard: spec.hard_deadline,
            // checked_add: an unrepresentable deadline degrades to none.
            deadline_at: spec.deadline.and_then(|d| Instant::now().checked_add(d)),
            attempt: 1,
            not_before: None,
            settled: false,
        })
    }

    /// A snapshot of the job counters, plus the jobs refused by a
    /// `shed` reason (a fleet-only cause, outside [`ServiceStats`]).
    pub(crate) fn stats(&self) -> (ServiceStats, u64) {
        let c = lock_counters(self);
        let stats = ServiceStats {
            active: ClassCounts::from_raw(c.active),
            submitted: ClassCounts::from_raw(c.submitted),
            rejected: ClassCounts::from_raw(c.rejected),
            finished: ClassCounts::from_raw(c.finished),
            retries: c.retries,
        };
        (stats, c.shed)
    }
}

/// Checks a spec's config shaping against `engine` and returns the
/// job's session seed. Runs before admission, so a bad spec never
/// occupies a slot; the validated session is discarded (every attempt
/// builds its own).
pub(crate) fn shaped_seed(engine: &Engine, spec: &JobSpec) -> Result<u64, PpError> {
    let seed = spec.seed.unwrap_or(engine.seed());
    if let Some(cfg) = spec.config {
        engine.session_seeded(seed).with_config(cfg)?;
    }
    Ok(seed)
}

/// What one attempt concluded. The outcome is boxed: a `JobReport`
/// (library included) dwarfs the other variants.
pub(crate) enum Verdict {
    /// Terminal: settle the job with this outcome.
    Done(Box<JobOutcome>),
    /// A transient failure with attempts left: book a retry.
    Retry,
    /// The scheduler's worker pool is gone, so re-running on it can
    /// never succeed. Carries the attempt's error.
    Lost(PpError),
}

/// An admitted job: its spec, deadline, attempt number and admission
/// slot. Dropping it unsettled (a panic unwinding through its thread)
/// settles it `Failed`: the settle guard.
pub(crate) struct AdmittedJob {
    state: Arc<JobState>,
    admission: Arc<Admission>,
    pub(crate) kind: JobKind,
    pub(crate) seed: u64,
    config: Option<PipelineConfig>,
    budget: Option<usize>,
    retry: RetryPolicy,
    hard: bool,
    deadline_at: Option<Instant>,
    /// The attempt that ran last (or runs first): advanced when a
    /// booked retry starts, never by a failover.
    attempt: u32,
    /// Set when a retry is booked: the retry may not start before it.
    not_before: Option<Instant>,
    settled: bool,
}

impl AdmittedJob {
    /// The caller's handle on this job.
    pub(crate) fn handle(&self) -> JobHandle {
        JobHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// The job id (see [`JobHandle::id`]).
    pub(crate) fn id(&self) -> u64 {
        self.state.id
    }

    /// The job's cancellation token.
    pub(crate) fn cancel_token(&self) -> CancelToken {
        self.state.cancel.clone()
    }

    /// The job's QoS class.
    pub(crate) fn class(&self) -> QosClass {
        self.state.class
    }

    /// Whether the job has been cancelled.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.state.cancel.is_cancelled()
    }

    /// `DeadlineExceeded` once a hard deadline has passed.
    pub(crate) fn check_deadline(&self) -> Result<(), PpError> {
        match self.deadline_at {
            Some(at) if self.hard && Instant::now() > at => Err(PpError::DeadlineExceeded {
                late_by: at.elapsed(),
            }),
            _ => Ok(()),
        }
    }

    /// Publishes progress to the job's handle.
    pub(crate) fn progress(&self, p: Progress) {
        self.state.record_progress(p);
    }

    /// A report with no results, for jobs that end between attempts.
    pub(crate) fn empty_report(&self) -> JobReport {
        JobReport {
            generated: 0,
            legal: 0,
            attempts: self.attempt,
            iterations: Vec::new(),
            library: PatternLibrary::new(),
            train: None,
        }
    }

    /// The interruption rule: cancelled, or past a hard deadline,
    /// before the next attempt starts.
    pub(crate) fn interruption(&self) -> Option<JobOutcome> {
        if self.is_cancelled() {
            Some(JobOutcome::Cancelled(self.empty_report()))
        } else if self.check_deadline().is_err() {
            Some(JobOutcome::TimedOut {
                partial: self.empty_report(),
            })
        } else {
            None
        }
    }

    /// Shapes one attempt's session: the job's config override, this
    /// attempt's stream options (cancel token, class, progress, and
    /// whatever is left of the deadline) and the scheduler handle.
    pub(crate) fn session(
        &self,
        base: Session,
        sched: SchedulerHandle,
    ) -> Result<Session, PpError> {
        let session = match self.config {
            Some(cfg) => base.with_config(cfg)?,
            None => base,
        };
        let state = Arc::clone(&self.state);
        let mut opts = StreamOptions::default()
            .with_cancel(self.cancel_token())
            .with_class(self.class())
            .with_progress(move |p: Progress| state.record_progress(p));
        if let Some(at) = self.deadline_at {
            opts.deadline = Some(at.saturating_duration_since(Instant::now()));
            opts.hard_deadline = self.hard;
        }
        Ok(session.with_options(opts).attach_handle(sched))
    }

    /// One generation attempt on a fresh session over the job's seed.
    pub(crate) fn run_fresh(
        &self,
        engine: &Engine,
        sched: SchedulerHandle,
    ) -> (Result<(), PpError>, JobReport) {
        match self.session(engine.session_seeded(self.seed), sched) {
            Ok(session) => self.run_session(session, |_| Ok(())),
            Err(e) => (Err(e), self.empty_report()),
        }
    }

    /// Runs the job's rounds on `session`, then `after` once they
    /// succeeded (the fleet persists affinity sessions there). The
    /// report is built from the session on every path, so a mid-run
    /// error (a scheduler rejection after eight good rounds, say) keeps
    /// the work that already landed in the library.
    pub(crate) fn run_session(
        &self,
        mut session: Session,
        after: impl FnOnce(&Session) -> Result<(), PpError>,
    ) -> (Result<(), PpError>, JobReport) {
        let (result, iterations) = run_rounds(&mut session, &self.kind, self.budget);
        let result = result.and_then(|()| after(&session));
        let report = JobReport {
            generated: session.generated_total(),
            legal: session.legal_total(),
            iterations,
            library: session.into_library(),
            ..self.empty_report()
        };
        (result, report)
    }

    /// Starts the next attempt, runs it under `catch_unwind` and
    /// classifies it. `healthy` reports whether the scheduler's worker
    /// pool still serves.
    pub(crate) fn attempt(
        &mut self,
        healthy: impl FnOnce() -> bool,
        run: impl FnOnce(&AdmittedJob) -> (Result<(), PpError>, JobReport),
    ) -> Verdict {
        if self.not_before.take().is_some() {
            self.attempt += 1;
        }
        let (result, mut report) = match catch_unwind(AssertUnwindSafe(|| run(self))) {
            Ok(ran) => ran,
            Err(_) => {
                return Verdict::Done(Box::new(JobOutcome::Failed(PpError::Model(
                    "job thread panicked before reaching a terminal outcome".into(),
                ))))
            }
        };
        report.attempts = self.attempt;
        let cancelled = self.is_cancelled();
        let outcome = match result {
            Ok(()) if cancelled => JobOutcome::Cancelled(report),
            Ok(()) => JobOutcome::Completed(report),
            Err(PpError::DeadlineExceeded { .. }) => JobOutcome::TimedOut { partial: report },
            Err(PpError::Rejected { reason }) => JobOutcome::Rejected {
                reason,
                partial: report,
            },
            // Checked before the transient branch: a dead worker pool
            // surfaces as a transient-looking error, but re-running on
            // it can never succeed.
            Err(e) if !healthy() => return Verdict::Lost(e),
            Err(e) if e.is_transient() && self.attempt < self.retry.max_attempts && !cancelled => {
                return Verdict::Retry
            }
            Err(e) => JobOutcome::Failed(e),
        };
        Verdict::Done(Box::new(outcome))
    }

    /// Books a retry: counted now, started after a bounded exponential
    /// backoff.
    pub(crate) fn book_retry(&mut self) {
        lock_counters(&self.admission).retries += 1;
        self.not_before = Some(Instant::now() + self.retry.delay_before(self.attempt + 1));
    }

    /// Drives the job to its terminal outcome on the calling thread (the
    /// job's own): sleep out any booked backoff, run the next attempt
    /// through `attempt`, book a retry or settle. `attempt` decides
    /// where the attempt runs; its `Lost` means no scheduler is left,
    /// and the job fails.
    pub(crate) fn run_to_end(mut self, mut attempt: impl FnMut(&mut AdmittedJob) -> Verdict) {
        let outcome = loop {
            if let Some(outcome) = self.wait_backoff() {
                break outcome;
            }
            match attempt(&mut self) {
                Verdict::Done(outcome) => break *outcome,
                Verdict::Retry => self.book_retry(),
                Verdict::Lost(e) => break JobOutcome::Failed(e),
            }
        };
        self.settle(outcome);
    }

    /// Sleeps out a booked retry's backoff in [`WAIT_SLICE`]s, so a
    /// cancel or a passing hard deadline interrupts the wait instead of
    /// stacking on top of it; returns the interrupted outcome.
    fn wait_backoff(&self) -> Option<JobOutcome> {
        let until = self.not_before?;
        loop {
            if let Some(outcome) = self.interruption() {
                return Some(outcome);
            }
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            std::thread::sleep(left.min(WAIT_SLICE));
        }
    }

    /// Settles the job: frees its admission slot, counts it finished
    /// and wakes its waiters.
    pub(crate) fn settle(mut self, outcome: JobOutcome) {
        self.finish(outcome);
    }

    fn finish(&mut self, outcome: JobOutcome) {
        self.settled = true;
        {
            let mut c = lock_counters(&self.admission);
            c.active[self.state.class.index()] -= 1;
            c.finished[self.state.class.index()] += 1;
        }
        self.state.settle(outcome);
    }
}

impl Drop for AdmittedJob {
    fn drop(&mut self) {
        if !self.settled {
            self.finish(JobOutcome::Failed(PpError::Model(
                "job dropped before reaching a terminal outcome".into(),
            )));
        }
    }
}

/// The job threads of one front door, one per admitted job. Starting
/// a thread reaps the finished ones, so a long-lived front door holds
/// one entry per job still running. Dropping the set cancels those jobs
/// and joins their threads: declare it as the front door's first field,
/// so it drops before the schedulers the jobs run on.
#[derive(Default)]
pub(crate) struct JobThreads {
    threads: Mutex<Vec<(CancelToken, JoinHandle<()>)>>,
}

impl JobThreads {
    /// Runs `drive` on a new thread that owns `job`.
    pub(crate) fn spawn(&self, job: AdmittedJob, drive: impl FnOnce(AdmittedJob) + Send + 'static) {
        let cancel = job.cancel_token();
        let thread = std::thread::spawn(move || drive(job));
        let mut threads = self.threads.lock().unwrap_or_else(PoisonError::into_inner);
        threads.retain(|(_, thread)| !thread.is_finished());
        threads.push((cancel, thread));
    }
}

impl Drop for JobThreads {
    fn drop(&mut self) {
        let threads = self
            .threads
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for (cancel, _) in threads.iter() {
            cancel.cancel();
        }
        for (_, thread) in threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Truncates `request` to at most `budget` jobs (sample budgets are
/// per-job intent: the front door enforces them by shrinking the
/// request, never by guessing inside the round).
fn truncated(request: GenerationRequest, budget: Option<usize>) -> GenerationRequest {
    match budget {
        Some(b) if request.jobs().len() > b => {
            let mut jobs = request.jobs().clone();
            jobs.truncate(b);
            GenerationRequest::new(jobs, request.seed())
        }
        _ => request,
    }
}

/// Runs a job's rounds on `session`, fresh or resumed: an iterative kind
/// whose session already ran its initial round (a resumed affinity
/// session) skips straight to refinement, and a budget bounds the
/// samples *this job* generates, not the session's lifetime total.
/// Returns the per-round stats for iterative kinds; the session's own
/// counters and library carry the results.
fn run_rounds(
    session: &mut Session,
    kind: &JobKind,
    budget: Option<usize>,
) -> (Result<(), PpError>, Vec<IterationStats>) {
    let start = session.generated_total();
    let mut iterations = Vec::new();
    let result = (|| -> Result<(), PpError> {
        match kind {
            JobKind::Initial => {
                session.run_request(&truncated(session.initial_request(), budget))?;
            }
            JobKind::Raw(request) => {
                session.run_request(&truncated(request.clone(), budget))?;
            }
            JobKind::Iterative { iterations: n } => {
                if session.next_iteration() == 0 {
                    session.run_request(&truncated(session.initial_request(), budget))?;
                    session.seed_starters();
                }
                for _ in 0..*n {
                    if session.options().cancel.is_cancelled() {
                        break;
                    }
                    if budget.is_some_and(|b| session.generated_total() - start >= b) {
                        break;
                    }
                    iterations.extend(session.iterate(1)?);
                }
            }
            // Train jobs run the service's epoch loop instead, and the
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

/// The shared terminal-state cell behind a [`JobHandle`].
pub(crate) struct JobState {
    id: u64,
    class: QosClass,
    cancel: CancelToken,
    completed: AtomicUsize,
    total: AtomicUsize,
    outcome: Mutex<Option<JobOutcome>>,
    done: Condvar,
}

impl JobState {
    fn new(id: u64, class: QosClass) -> JobState {
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

    fn record_progress(&self, p: Progress) {
        self.completed.store(p.completed, Ordering::Relaxed);
        self.total.store(p.total, Ordering::Relaxed);
    }

    /// Stores the terminal outcome and wakes waiters (the owning
    /// [`AdmittedJob`] settles exactly once).
    fn settle(&self, outcome: JobOutcome) {
        *lock_outcome(self) = Some(outcome);
        self.done.notify_all();
    }
}

/// Locks a job's outcome cell, recovering from poisoning: settling and
/// waiting must work even after a panic elsewhere poisoned it.
fn lock_outcome(state: &JobState) -> MutexGuard<'_, Option<JobOutcome>> {
    state.outcome.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where a submitted job currently stands.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted and not yet terminal: running (or queued at a
    /// scheduler), backing off before a retry, or waiting its turn
    /// behind an earlier fleet job with the same affinity key.
    Running,
    /// A terminal [`JobOutcome`] is ready ([`JobHandle::wait`] returns
    /// it without blocking).
    Done,
}

/// The caller's side of one submitted job: poll, block, meter, cancel.
/// [`crate::Service`] and [`crate::Fleet`] hand out the same handle.
///
/// The handle is detachable — dropping it neither cancels nor leaks
/// the job (the front door still runs and accounts it).
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
    /// The job id, unique per front door.
    pub fn id(&self) -> u64 {
        self.state.id
    }

    /// The job's QoS class.
    pub fn class(&self) -> QosClass {
        self.state.class
    }

    /// Non-blocking status check.
    pub fn poll(&self) -> JobStatus {
        if lock_outcome(&self.state).is_some() {
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
        // A timeout of `Duration::MAX` never expires.
        self.wait_timeout(Duration::MAX)
            .unwrap_or_else(JobHandle::wait)
    }

    /// Blocks for at most `timeout` for the terminal outcome. On
    /// timeout the handle comes back unchanged (`Err`), so a caller
    /// can bound every wait on a possibly-wedged job without
    /// forfeiting the ability to poll, cancel, or wait again. A timeout
    /// too long to represent as an instant waits with no deadline.
    pub fn wait_timeout(self, timeout: Duration) -> Result<JobOutcome, JobHandle> {
        let deadline = Instant::now().checked_add(timeout);
        let mut outcome = lock_outcome(&self.state);
        loop {
            if let Some(terminal) = outcome.take() {
                return Ok(terminal);
            }
            let left = deadline.map_or(Duration::MAX, |at| {
                at.saturating_duration_since(Instant::now())
            });
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
    /// How many attempts started (1 = no retry was needed; see
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
    /// Admitted by the front door but refused downstream (the scheduler's
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
