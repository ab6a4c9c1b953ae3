//! The QoS redesign's guarantees, asserted end to end through the
//! public API:
//!
//! * **RoundRobin regression** — the default policy reproduces the
//!   pre-policy scheduler bit for bit: scheduled sessions equal solo
//!   sessions (library contents, insertion order, counts) under
//!   deliberately unequal job counts and micro-batch sizes.
//! * **Fairness without starvation** — the same workload completes
//!   identically under `WeightedFair` and `DeadlineFirst`; policies
//!   may only change interleaving, never results, and no session
//!   starves.
//! * **Cancellation frees the share** — cancelling a high-priority
//!   job mid-round retires it (scheduler stats show the abandonment)
//!   while the other sessions run to their exact solo results.
//! * **Error surface** — `PpError::Rejected` and `JobOutcome::Failed`
//!   display usefully and `source()` chains reach the root cause.

use patternpaint::core::{
    CancelToken, ClassCounts, DeadlineFirst, Engine, Fault, FaultPlan, GenerationRequest,
    JobOutcome, JobSet, JobSpec, PipelineConfig, PpError, QosClass, QueueLimits, RetryPolicy,
    SchedPolicy, Scheduler, SchedulerOptions, Service, ServiceOptions, Session, StreamOptions,
    WeightedFair,
};
use patternpaint::pdk::SynthNode;
use pp_inpaint::MaskSet;
use std::time::Duration;

fn tiny_engine(seed: u64) -> Engine {
    Engine::builder(SynthNode::small(), PipelineConfig::tiny())
        .seed(seed)
        .untrained_engine()
        .expect("tiny config is valid")
}

/// An explicit request of `n` jobs cycling the engine's starters and
/// masks, seeded per tenant.
fn request(engine: &Engine, n: usize, seed: u64) -> GenerationRequest {
    let masks = MaskSet::Default.masks(engine.node().clip());
    GenerationRequest::new(JobSet::cycle(engine.starters(), &masks, n), seed)
}

/// One tenant's shape: job count, micro-batch size, class, seed.
struct Tenant {
    jobs: usize,
    batch: usize,
    class: QosClass,
    seed: u64,
    deadline: Option<Duration>,
}

/// Runs every tenant concurrently on one scheduler and asserts each
/// library equals its solo (unscheduled) reference — which covers
/// per-session in-order delivery, completeness (no starvation), and
/// bit-identical contents in one comparison.
fn assert_tenants_match_solo(engine: &Engine, scheduler: &Scheduler, tenants: &[Tenant]) {
    let mut solos = Vec::new();
    for t in tenants {
        let mut cfg = *engine.config();
        cfg.batch_size = t.batch;
        let mut solo = engine
            .session_seeded(t.seed)
            .with_config(cfg)
            .expect("config fits the engine");
        let counts = solo
            .run_request(&request(engine, t.jobs, t.seed))
            .expect("solo round runs");
        solos.push((counts, solo.into_library()));
    }
    let mut sessions: Vec<Session> = tenants
        .iter()
        .map(|t| {
            let mut cfg = *engine.config();
            cfg.batch_size = t.batch;
            let mut opts = StreamOptions::default().with_class(t.class);
            opts.deadline = t.deadline;
            engine
                .session_seeded(t.seed)
                .with_config(cfg)
                .expect("config fits the engine")
                .with_options(opts)
                .attach(scheduler)
        })
        .collect();
    let counts: Vec<(usize, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .zip(tenants)
            .map(|(sess, t)| {
                let req = request(engine, t.jobs, t.seed);
                s.spawn(move || sess.run_request(&req).expect("scheduled round runs"))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect()
    });
    for (i, (sess, (solo_counts, solo_lib))) in sessions.iter().zip(&solos).enumerate() {
        assert_eq!(&counts[i], solo_counts, "tenant {i} counts diverged");
        assert_eq!(
            sess.library().patterns(),
            solo_lib.patterns(),
            "tenant {i} library diverged (contents or insertion order)"
        );
    }
}

fn unequal_tenants() -> Vec<Tenant> {
    vec![
        Tenant {
            jobs: 24,
            batch: 2,
            class: QosClass::Interactive,
            seed: 41,
            deadline: None,
        },
        Tenant {
            jobs: 6,
            batch: 1,
            class: QosClass::Batch,
            seed: 42,
            deadline: None,
        },
        Tenant {
            jobs: 15,
            batch: 4,
            class: QosClass::BestEffort,
            seed: 43,
            deadline: None,
        },
    ]
}

#[test]
fn round_robin_reproduces_solo_results_under_unequal_load() {
    let engine = tiny_engine(1);
    let scheduler = engine.scheduler(3);
    assert_tenants_match_solo(&engine, &scheduler, &unequal_tenants());
    let stats = scheduler.stats();
    assert_eq!(stats.policy, "round-robin");
    assert_eq!(stats.samples, 24 + 6 + 15);
    assert_eq!(stats.completed.total(), 3, "every submission completed");
    // Per-session attribution: one row per tenant, sample counts exact.
    let mut per_session: Vec<u64> = stats.per_session.iter().map(|s| s.samples).collect();
    per_session.sort_unstable();
    assert_eq!(per_session, vec![6, 15, 24]);
}

#[test]
fn weighted_fair_preserves_results_and_starves_nobody() {
    let engine = tiny_engine(2);
    let scheduler = engine.scheduler_with(3, SchedulerOptions::new().policy(WeightedFair));
    assert_tenants_match_solo(&engine, &scheduler, &unequal_tenants());
    let stats = scheduler.stats();
    assert_eq!(stats.policy, "weighted-fair");
    assert_eq!(stats.completed.total(), 3, "no class may starve");
    assert_eq!(stats.queued, ClassCounts::default());
}

#[test]
fn deadline_first_preserves_in_order_delivery() {
    let engine = tiny_engine(3);
    let scheduler = engine.scheduler_with(2, SchedulerOptions::new().policy(DeadlineFirst));
    // Deadlines deliberately inverted against submission order, plus
    // one tenant with none (exercising the fair-share fallback).
    let mut tenants = unequal_tenants();
    tenants[0].deadline = Some(Duration::from_secs(60));
    tenants[1].deadline = Some(Duration::from_millis(10));
    assert_tenants_match_solo(&engine, &scheduler, &tenants);
    assert_eq!(scheduler.stats().completed.total(), 3);
}

/// Cancelling a high-priority session mid-round must retire its
/// submission (freeing its micro-batch share) while the surviving
/// sessions still produce their exact solo results.
#[test]
fn cancelling_a_high_priority_job_frees_its_share() {
    let engine = tiny_engine(4);
    let scheduler = engine.scheduler_with(2, SchedulerOptions::new().policy(WeightedFair));

    // Solo reference for the surviving best-effort tenant.
    let survivor_req = request(&engine, 12, 7);
    let mut solo = engine.session_seeded(7);
    let solo_counts = solo.run_request(&survivor_req).expect("solo runs");

    let cancel = CancelToken::new();
    let hook_cancel = cancel.clone();
    let mut interactive = engine
        .session_seeded(5)
        .with_options(
            StreamOptions::default()
                .with_class(QosClass::Interactive)
                .with_cancel(cancel)
                // Cancel as soon as the first micro-batch lands.
                .with_progress(move |_| hook_cancel.cancel()),
        )
        .attach(&scheduler);
    let mut survivor = engine
        .session_seeded(7)
        .with_class(QosClass::BestEffort)
        .attach(&scheduler);

    let (int_counts, surv_counts) = std::thread::scope(|s| {
        let hi = s.spawn(|| {
            interactive
                .run_request(&request(&engine, 64, 5))
                .expect("cancellation is not an error")
        });
        let sv = survivor
            .run_request(&survivor_req)
            .expect("survivor round runs");
        (hi.join().expect("interactive thread"), sv)
    });
    assert!(
        int_counts.0 >= 1 && int_counts.0 < 64,
        "cancellation failed to stop the interactive job early ({}/64)",
        int_counts.0
    );
    assert_eq!(surv_counts, solo_counts);
    assert_eq!(survivor.library().patterns(), solo.library().patterns());
    let stats = scheduler.stats();
    assert_eq!(
        stats.abandoned.get(QosClass::Interactive),
        1,
        "the cancelled submission must be retired, freeing its share"
    );
    assert_eq!(stats.completed.get(QosClass::BestEffort), 1);
}

#[test]
fn rejected_error_displays_and_has_no_source() {
    use std::error::Error as _;
    let err = PpError::Rejected {
        reason: "interactive submission queue is full (16 queued, limit 16)".into(),
    };
    let msg = err.to_string();
    assert!(msg.contains("admission rejected"), "display was: {msg}");
    assert!(msg.contains("interactive"), "display was: {msg}");
    assert!(err.source().is_none(), "Rejected is a leaf error");
}

#[test]
fn failed_outcome_displays_and_chains_to_the_root_cause() {
    use patternpaint::core::ArtifactError;
    use std::error::Error as _;
    let root = std::io::Error::new(std::io::ErrorKind::StorageFull, "disk full");
    let outcome = JobOutcome::Failed(PpError::from(ArtifactError::Io {
        path: "model.ppck".into(),
        source: root,
    }));
    let msg = outcome.to_string();
    assert!(msg.starts_with("failed:"), "display was: {msg}");
    assert!(msg.contains("model.ppck"), "display was: {msg}");
    let err = outcome.error().expect("Failed carries the error");
    let artifact = err.source().expect("PpError::Artifact has a source");
    let io = artifact.source().expect("ArtifactError::Io has a source");
    assert!(io.to_string().contains("disk full"), "root was: {io}");

    // And through the service: a degenerate raw request fails with the
    // typed error, not a panic or a silent empty outcome.
    let engine = tiny_engine(5);
    let service = Service::new(
        &engine,
        ServiceOptions {
            threads: 1,
            ..Default::default()
        },
    );
    let handle = service
        .submit(JobSpec::raw(GenerationRequest::new(JobSet::new(), 0)))
        .expect("admission is about queue depth, not job contents");
    match handle.wait() {
        JobOutcome::Failed(e) => {
            assert!(matches!(e, PpError::EmptyRequest), "wrong error: {e}")
        }
        other => panic!("expected Failed, got: {other}"),
    }
}

/// The scheduler-level admission bound surfaces through a session
/// round as `PpError::Rejected` (and through the service as
/// `JobOutcome::Rejected`).
#[test]
fn scheduler_overflow_rejects_sessions_and_service_jobs() {
    let engine = tiny_engine(6);
    let scheduler = engine.scheduler_with(
        1,
        SchedulerOptions::new().limits(QueueLimits {
            interactive: 0,
            batch: 8,
            best_effort: 8,
        }),
    );
    let mut session = engine
        .session_seeded(9)
        .with_class(QosClass::Interactive)
        .attach(&scheduler);
    let err = session
        .run_request(&request(&engine, 4, 9))
        .expect_err("zero-capacity class must reject");
    assert!(
        matches!(err, PpError::Rejected { .. }),
        "wrong error: {err}"
    );

    let service = Service::new(
        &engine,
        ServiceOptions {
            threads: 1,
            scheduler: SchedulerOptions::new().limits(QueueLimits {
                interactive: 0,
                batch: 8,
                best_effort: 8,
            }),
            ..Default::default()
        },
    );
    let handle = service
        .submit(JobSpec::raw(request(&engine, 4, 9)).with_class(QosClass::Interactive))
        .expect("job-level admission has room; the scheduler rejects downstream");
    match handle.wait() {
        JobOutcome::Rejected { reason, partial } => {
            assert!(reason.contains("interactive"), "reason was: {reason}");
            assert_eq!(
                partial.generated, 0,
                "the very first round was refused, so nothing was kept"
            );
        }
        other => panic!("expected Rejected, got: {other}"),
    }
}

/// Policies are pluggable: a custom implementation drives dispatch and
/// results stay bit-identical (the policy can only reorder).
#[test]
fn custom_policies_plug_in_without_changing_results() {
    /// Perverse on purpose: always ranks the *newest* submission first.
    struct NewestFirst;
    impl SchedPolicy for NewestFirst {
        fn name(&self) -> &str {
            "newest-first"
        }
        fn rank(&mut self, queue: &[patternpaint::core::SchedView]) -> Vec<usize> {
            (0..queue.len()).rev().collect()
        }
    }
    let engine = tiny_engine(7);
    let scheduler = engine.scheduler_with(2, SchedulerOptions::new().policy(NewestFirst));
    assert_tenants_match_solo(&engine, &scheduler, &unequal_tenants());
    assert_eq!(scheduler.stats().policy, "newest-first");
}

/// Dropping the receiver mid-retry abandons the job cleanly: when a
/// fault kills attempt 1 and the caller cancels during the retry
/// backoff, the retry loop stops — no ghost re-submission ever reaches
/// the scheduler, and the abandoned submission is accounted exactly
/// once.
#[test]
fn cancel_during_retry_backoff_abandons_without_ghost_resubmission() {
    let engine = tiny_engine(8);
    // Session 1 (the job's only scheduler session) panics on its
    // second micro-batch, mid-submission.
    let service = Service::new(
        &engine,
        ServiceOptions {
            threads: 1,
            scheduler: SchedulerOptions::new()
                .faults(FaultPlan::new().inject(1, Fault::PanicAt { batch: 1 })),
            ..Default::default()
        },
    );
    let handle = service
        .submit(
            // 12 jobs at tiny's batch_size 4 = 3 micro-batches, so the
            // panic at batch 1 leaves batch 2 queued — the abandoned
            // remainder the scheduler must purge.
            JobSpec::raw(request(&engine, 12, 40))
                // A long backoff guarantees the cancel lands inside it.
                .with_retry(RetryPolicy::new(2, Duration::from_millis(500))),
        )
        .expect("admitted");
    // Wait for attempt 1 to fail and enter backoff, and for the
    // scheduler to purge the dead submission's queued remainder.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while service.stats().retries < 1 || service.scheduler_stats().abandoned.total() < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "retry/abandon never happened: {:?}",
            service.scheduler_stats()
        );
        std::thread::yield_now();
    }
    handle.cancel();
    match handle.wait() {
        JobOutcome::Cancelled(report) => {
            assert_eq!(report.attempts, 1, "attempt 2 must never have started");
        }
        other => panic!("expected Cancelled, got: {other}"),
    }
    let sched = service.scheduler_stats();
    assert_eq!(
        sched.admitted.total(),
        1,
        "only attempt 1's submission ever reached the scheduler"
    );
    assert_eq!(sched.abandoned.total(), 1, "abandoned exactly once");
    assert_eq!(sched.worker_panics, 1);
    assert_eq!(
        service.stats().retries,
        1,
        "the retry was booked, then dropped"
    );
}

/// `wait_timeout` returns the handle unchanged while the job is still
/// running and the outcome once it resolves — a bounded wait that
/// neither cancels nor detaches the job.
#[test]
fn wait_timeout_returns_the_handle_until_the_job_resolves() {
    let engine = tiny_engine(9);
    // A 100 ms stall on the first micro-batch guarantees the job is
    // still running when the 1 ms wait expires.
    let service = Service::new(
        &engine,
        ServiceOptions {
            threads: 1,
            scheduler: SchedulerOptions::new().faults(FaultPlan::new().inject(
                1,
                Fault::StallFor {
                    batch: 0,
                    duration: Duration::from_millis(100),
                },
            )),
            ..Default::default()
        },
    );
    let handle = service
        .submit(JobSpec::raw(request(&engine, 8, 41)))
        .expect("admitted");
    let handle = handle
        .wait_timeout(Duration::from_millis(1))
        .expect_err("the job is still stalled; the handle comes back");
    // The returned handle is the same job: a generous second wait
    // resolves it normally.
    match handle.wait_timeout(Duration::from_secs(30)) {
        Ok(outcome) => assert!(outcome.is_completed(), "outcome: {outcome}"),
        Err(_) => panic!("30 s was not enough for a stalled tiny round"),
    }
}
