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
//! The service and [`crate::Fleet`] dispatch alike, over one job
//! lifecycle: the same admission counters, per-attempt sessions,
//! outcome classification, retry backoff and settlement, and one
//! thread per admitted job. The service runs every attempt through the
//! one scheduler session the job was given at submit; train jobs run an
//! epoch loop instead of generation rounds. The fleet picks one of N
//! engine replicas per attempt and submits into that replica's
//! scheduler.

use crate::artifact::ArtifactStore;
use crate::engine::Engine;
use crate::error::PpError;
use crate::fault::Fault;
use crate::jobspec::{JobKind, JobSpec, QosClass};
use crate::lifecycle::{shaped_seed, Admission, AdmittedJob, JobThreads};
use crate::scheduler::{
    ClassCounts, QueueLimits, Scheduler, SchedulerHandle, SchedulerOptions, SchedulerStats,
};
use crate::stream::Progress;
use crate::train::{TrainRun, TrainSpec};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

pub use crate::lifecycle::{JobHandle, JobOutcome, JobReport, JobStatus};

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

/// The multi-tenant front door: one engine, one scheduler, declarative
/// [`JobSpec`] submission with per-class admission control.
///
/// Dropping the service cancels outstanding jobs (cooperatively — each
/// resolves to [`JobOutcome::Cancelled`] with its partial results),
/// joins their threads, and shuts the scheduler pool down. Handles
/// held by callers stay valid: a [`JobHandle::wait`] after the drop
/// returns the terminal outcome that was reached.
pub struct Service {
    /// First, so it drops (cancelling and joining the jobs) before the
    /// scheduler they run on.
    jobs: JobThreads,
    engine: Engine,
    scheduler: Scheduler,
    admission: Arc<Admission>,
    store: Option<Arc<dyn ArtifactStore>>,
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Service")
            .field("scheduler", &self.scheduler)
            .field("job_limits", &self.admission.limits)
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
            jobs: JobThreads::default(),
            engine: engine.clone(),
            scheduler,
            admission: Admission::new(options.job_limits, ""),
            store: options.store,
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
        self.admission.stats().0
    }

    /// Submits a job described by `spec`; returns immediately with a
    /// [`JobHandle`].
    ///
    /// Admission and validation are synchronous: a handle is returned
    /// only for work that was actually accepted, so a caller can treat
    /// `Err` as "nothing happened" and retry.
    ///
    /// A [`JobKind::Train`] job runs a preemptible, resumable epoch
    /// loop under the same admission gate, retry policy, deadline clock
    /// and settlement as generation jobs. It checkpoints after every
    /// epoch and *parks* between epochs while any strictly-higher QoS
    /// class has sampling submissions in flight — training is the
    /// canonical scavenger workload, so interactive and batch tenants
    /// reclaim the machine at epoch granularity. A retry *resumes from
    /// the last checkpoint* rather than epoch 0: each attempt
    /// re-prepares the run from the store, which is also what makes a
    /// process restart resumable.
    ///
    /// # Errors
    ///
    /// [`PpError::Rejected`] when the spec's class already has
    /// [`ServiceOptions::job_limits`] jobs in flight;
    /// [`PpError::Config`] when the spec's config shaping fails
    /// validation or tries to change the engine's model architecture,
    /// or for a train job without [`ServiceOptions::store`], with an
    /// invalid [`TrainSpec`] or with config shaping.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, PpError> {
        if let JobKind::Train(train) = &spec.kind {
            if self.store.is_none() {
                return Err(PpError::Config(
                    "train jobs need an artifact store: build the service with \
                     ServiceOptions::store"
                        .into(),
                ));
            }
            train.validate()?;
            if spec.config.is_some() {
                return Err(PpError::Config(
                    "train jobs do not take request-shaping config overrides".into(),
                ));
            }
        }
        let seed = shaped_seed(&self.engine, &spec)?;
        let job = self.admission.admit(spec, seed, None)?;
        let handle = job.handle();
        // One scheduler session for all attempts, allocated here so
        // session ids follow submit order: stats attribution and
        // fault-plan keying stay stable across retries.
        let sched = self.scheduler.handle();
        let engine = self.engine.clone();
        let store = self.store.clone();
        self.jobs.spawn(job, move |job| {
            job.run_to_end(|job| {
                job.attempt(
                    || sched.is_healthy(),
                    |job| match (&job.kind, &store) {
                        (JobKind::Train(spec), Some(store)) => {
                            run_train(job, &engine, &**store, spec, &sched)
                        }
                        _ => job.run_fresh(&engine, sched.clone()),
                    },
                )
            })
        });
        Ok(handle)
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

/// One training attempt, returning the same `(result, report)` pair as
/// a generation attempt. The report carries the summary of the last
/// *checkpointed* epoch — exactly what a follow-up job would resume
/// from.
fn run_train(
    job: &AdmittedJob,
    engine: &Engine,
    store: &dyn ArtifactStore,
    spec: &TrainSpec,
    sched: &SchedulerHandle,
) -> (Result<(), PpError>, JobReport) {
    let mut report = job.empty_report();
    let mut run = match TrainRun::prepare(engine, store, spec, job.seed) {
        Ok(run) => run,
        Err(e) => return (Err(e), report),
    };
    let result = train_epochs(job, &mut run, store, sched);
    report.train = Some(run.summary());
    (result, report)
}

/// The epoch loop of a prepared run: per epoch, stop on a cancel
/// (`Ok`) or a passed hard deadline (`DeadlineExceeded`), park while
/// higher classes are busy, consume any injected fault keyed on the
/// epoch ordinal, run the epoch under `catch_unwind` (a panic in the
/// math is isolated to this job and surfaces as transient
/// [`PpError::WorkerPanic`]), checkpoint, and report epoch-granular
/// progress.
fn train_epochs(
    job: &AdmittedJob,
    run: &mut TrainRun,
    store: &dyn ArtifactStore,
    sched: &SchedulerHandle,
) -> Result<(), PpError> {
    let report_progress = |run: &TrainRun| {
        job.progress(Progress {
            completed: run.epochs_done() as usize,
            total: run.epochs_total() as usize,
        });
    };
    report_progress(run);
    while !run.is_done() {
        // Preemption point: park while interactive/batch tenants have
        // sampling in flight. One episode counts once, however long.
        let mut parked = false;
        loop {
            if job.is_cancelled() {
                return Ok(());
            }
            job.check_deadline()?;
            if !higher_class_busy(&sched.stats(), job.class()) {
                break;
            }
            if !parked {
                parked = true;
                run.note_preemption();
            }
            std::thread::sleep(PREEMPT_POLL);
        }
        // Chaos hook, keyed on (session, epoch ordinal) — the train
        // analogue of the sampling path's (session, slot ordinal).
        let epoch = run.epochs_done();
        match sched.take_fault(u64::from(epoch)) {
            Some(Fault::PanicAt { .. }) => {
                return Err(PpError::WorkerPanic {
                    detail: format!("injected fault: worker panic (train epoch {epoch})"),
                })
            }
            Some(Fault::ErrAt { .. }) => {
                return Err(PpError::Io(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    format!("injected transient i/o fault (train epoch {epoch})"),
                )))
            }
            Some(Fault::StallFor { duration, .. }) => std::thread::sleep(duration),
            None => {}
        }
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
        report_progress(run);
    }
    run.finish(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::jobs::JobSet;
    use crate::stream::GenerationRequest;
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

    /// A deadline or a wait timeout too far in the future to represent
    /// as an `Instant` degrades to "no deadline" instead of panicking.
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
        let report = match handle.wait_timeout(Duration::MAX) {
            Ok(outcome) => outcome.into_report().expect("job completes"),
            Err(_) => panic!("a wait with no representable deadline returned early"),
        };
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
