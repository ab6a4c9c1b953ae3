//! pp-fleet end to end, through the public API:
//!
//! * **Bit-identity** — a fleet of N replicas produces per-job results
//!   identical to a fleet of one, for the same `JobSpec` set, across
//!   replica counts and scheduling policies (the router changes *where*
//!   a job runs, never its arithmetic).
//! * **Retry failover** — a transient fault consumes a retry attempt
//!   and the re-run lands on a different replica (the failing replica
//!   is barred from taking the job back while a peer is usable).
//! * **Replica loss** — a replica whose supervised scheduler loses its
//!   whole worker pool is retired: queued jobs redistribute, the
//!   in-flight job fails over without consuming an attempt, and the
//!   fleet keeps serving on the survivors.
//! * **Session affinity** — keyed jobs pin to the replica holding
//!   their session state, resume it across jobs, and migrate the
//!   serialized state when their replica is drained.
//! * **Admission** — per-class depth limits and best-effort
//!   back-pressure shedding reject at the router, counted by cause;
//!   cancellation and hard deadlines reach queued jobs.
//!
//! The `chaos_` test joins the `./ci.sh --chaos` seed sweep.

use patternpaint::core::{
    DeadlineFirst, Engine, Fault, FaultPlan, Fleet, FleetOptions, GenerationRequest, JobOutcome,
    JobSet, JobSpec, MemStore, PipelineConfig, PpError, QosClass, QueueLimits, RetryPolicy,
    SchedPolicy, SchedView, SchedulerOptions, WeightedFair,
};
use patternpaint::geometry::Layout;
use patternpaint::pdk::SynthNode;
use pp_inpaint::MaskSet;
use std::time::Duration;

fn tiny_engine(seed: u64) -> Engine {
    Engine::builder(SynthNode::small(), PipelineConfig::tiny())
        .seed(seed)
        .untrained_engine()
        .expect("tiny config is valid")
}

/// An engine checkpoint in a fresh store — what `Fleet::open` replicates.
fn saved_store(seed: u64) -> (Engine, MemStore) {
    let engine = tiny_engine(seed);
    let store = MemStore::new();
    engine.save(&store).expect("engine saves");
    (engine, store)
}

fn request(engine: &Engine, n: usize, seed: u64) -> GenerationRequest {
    let masks = MaskSet::Default.masks(engine.node().clip());
    GenerationRequest::new(JobSet::cycle(engine.starters(), &masks, n), seed)
}

/// The library a never-faulted solo session grows for `request(n, seed)`
/// with session seed `seed` — the bit-identity reference.
fn solo_patterns(engine: &Engine, n: usize, seed: u64) -> Vec<Layout> {
    let mut solo = engine.session_seeded(seed);
    solo.run_request(&request(engine, n, seed))
        .expect("solo round runs");
    solo.into_library().patterns().to_vec()
}

/// A policy whose every ranking panics: the supervisor respawns the
/// worker loop until the respawn budget runs out, at which point the
/// replica's whole worker pool is gone — the fleet's replica-loss
/// trigger.
struct AlwaysPanic;
impl SchedPolicy for AlwaysPanic {
    fn name(&self) -> &str {
        "always-panic"
    }
    fn rank(&mut self, _queue: &[SchedView]) -> Vec<usize> {
        panic!("policy wedged on purpose");
    }
}

/// The same JobSpec set is replayed against every fleet shape; each
/// job's library must match solo runs of the same seeds exactly.
#[test]
fn fleet_matches_single_replica_bit_identically() {
    let (engine, store) = saved_store(5);
    let seeds = [201u64, 202, 203, 204];
    let jobs = [6usize, 4, 8, 5];
    let classes = [
        QosClass::Batch,
        QosClass::Interactive,
        QosClass::BestEffort,
        QosClass::Batch,
    ];
    let reference: Vec<Vec<Layout>> = seeds
        .iter()
        .zip(jobs)
        .map(|(&seed, n)| solo_patterns(&engine, n, seed))
        .collect();
    for policy in ["round-robin", "weighted-fair", "deadline-first"] {
        for replicas in [1usize, 2, 4] {
            let fleet = Fleet::open(
                &store,
                FleetOptions::new()
                    .with_replicas(replicas)
                    .scheduler_factory(move |_| match policy {
                        "weighted-fair" => SchedulerOptions::new().policy(WeightedFair),
                        "deadline-first" => SchedulerOptions::new().policy(DeadlineFirst),
                        _ => SchedulerOptions::new(),
                    }),
            )
            .expect("fleet opens from the checkpoint");
            assert_eq!(fleet.replicas(), replicas);
            let handles: Vec<_> = seeds
                .iter()
                .zip(jobs)
                .zip(classes)
                .map(|((&seed, n), class)| {
                    fleet
                        .submit(
                            JobSpec::raw(request(&engine, n, seed))
                                .with_seed(seed)
                                .with_class(class),
                        )
                        .expect("admitted")
                })
                .collect();
            for (i, handle) in handles.into_iter().enumerate() {
                let report = match handle.wait() {
                    JobOutcome::Completed(report) => report,
                    other => panic!("job {i} under {policy}/N={replicas}: {other}"),
                };
                assert_eq!(
                    report.library.patterns(),
                    &reference[i][..],
                    "job {i} diverged under {policy} with {replicas} replicas"
                );
            }
            let stats = fleet.stats();
            assert_eq!(stats.finished.total(), 4);
            assert_eq!(stats.active.total(), 0);
            assert_eq!(stats.aggregated.samples, jobs.iter().sum::<usize>() as u64);
        }
    }
}

/// Both replicas schedule a transient i/o fault at their first session's
/// slot 0, so wherever attempt 1 lands it fails; the retry is barred
/// from the failing replica, fails again on the peer's first session,
/// and attempt 3 completes back on the first replica's second session.
/// Deterministic regardless of who wins the initial steal race — and it
/// proves the retry crossed replicas.
#[test]
fn transient_retry_fails_over_to_another_replica() {
    let (engine, store) = saved_store(6);
    let solo = solo_patterns(&engine, 6, 33);
    let fleet = Fleet::open(
        &store,
        FleetOptions::new().with_replicas(2).scheduler_factory(|_| {
            SchedulerOptions::new().faults(FaultPlan::new().inject(1, Fault::ErrAt { batch: 0 }))
        }),
    )
    .expect("fleet opens");
    let handle = fleet
        .submit(
            JobSpec::raw(request(&engine, 6, 33))
                .with_seed(33)
                .with_retry(RetryPolicy::new(3, Duration::from_millis(1))),
        )
        .expect("admitted");
    let report = handle
        .wait()
        .into_report()
        .expect("retries absorb both faults");
    assert_eq!(
        report.attempts, 3,
        "one attempt per replica, then the clean re-run"
    );
    assert_eq!(report.library.patterns(), &solo[..], "retried run diverged");
    let stats = fleet.stats();
    assert_eq!(stats.retries, 2);
    assert_eq!(
        stats.failovers, 0,
        "transient retries are not replica-loss failovers"
    );
    for rep in &stats.replicas {
        assert!(
            rep.scheduler.admitted.total() >= 1,
            "replica {} never saw the job — the retry did not fail over",
            rep.index
        );
    }
}

/// Kill one replica's whole worker pool mid-fleet: queued jobs must
/// redistribute to the survivor, the in-flight job must fail over
/// without consuming a retry attempt, and every job must still match
/// its solo reference bit for bit.
#[test]
fn replica_loss_redistributes_queued_jobs() {
    let (engine, store) = saved_store(7);
    let seeds = [301u64, 302, 303, 304, 305];
    let reference: Vec<Vec<Layout>> = seeds
        .iter()
        .map(|&seed| solo_patterns(&engine, 4, seed))
        .collect();
    let fleet = Fleet::open(
        &store,
        FleetOptions::new().with_replicas(2).scheduler_factory(|i| {
            if i == 0 {
                SchedulerOptions::new().policy(AlwaysPanic)
            } else {
                SchedulerOptions::new()
            }
        }),
    )
    .expect("fleet opens");
    // Pin the first job to the doomed replica so its pool provably
    // dies executing it; the rest queue behind with the same hint.
    let handles: Vec<_> = seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let mut spec = JobSpec::raw(request(&engine, 4, seed))
                .with_seed(seed)
                .with_placement(0);
            if i == 0 {
                spec = spec.with_affinity("doomed-tenant");
            }
            fleet.submit(spec).expect("admitted")
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let report = match handle.wait() {
            JobOutcome::Completed(report) => report,
            other => panic!("job {i} did not survive the replica loss: {other}"),
        };
        assert_eq!(
            report.attempts, 1,
            "job {i}: failover must not consume a retry attempt"
        );
        assert_eq!(
            report.library.patterns(),
            &reference[i][..],
            "job {i} diverged after redistribution"
        );
    }
    let stats = fleet.stats();
    assert!(!stats.replicas[0].healthy, "the wedged replica must retire");
    assert!(stats.replicas[1].healthy);
    assert!(stats.failovers >= 1, "the in-flight job failed over");
    assert!(
        stats.steals + stats.redistributed >= 1,
        "queued jobs moved off the lost replica somehow"
    );
    // The fleet keeps serving on the survivor — a stale placement hint
    // falls back to a usable replica.
    let extra = fleet
        .submit(
            JobSpec::raw(request(&engine, 4, 306))
                .with_seed(306)
                .with_placement(0),
        )
        .expect("admitted after the loss");
    assert!(extra.wait().is_completed());
    // Draining the survivor leaves nothing usable: submission rejects.
    assert!(fleet.drain(1));
    let err = fleet
        .submit(JobSpec::raw(request(&engine, 4, 307)))
        .expect_err("no usable replicas left");
    assert!(
        matches!(err, PpError::Rejected { .. }),
        "wrong error: {err}"
    );
}

/// Affinity jobs continue one session across submissions: the second
/// job resumes on the pinned replica (hit), and after draining that
/// replica the third job migrates the serialized session and continues
/// it — the final library equals one solo session iterated three times.
#[test]
fn affinity_pins_resumes_and_migrates() {
    let (engine, store) = saved_store(8);
    let fleet = Fleet::open(&store, FleetOptions::new().with_replicas(2)).expect("fleet opens");
    let mut reports = Vec::new();
    for _ in 0..2 {
        let handle = fleet
            .submit(
                JobSpec::iterative(1)
                    .with_seed(40)
                    .with_affinity("tenant-a"),
            )
            .expect("admitted");
        reports.push(handle.wait().into_report().expect("affinity job completes"));
    }
    assert!(
        reports[1].generated > reports[0].generated,
        "the second job continued the session, it did not restart it"
    );
    let stats = fleet.stats();
    assert!(
        stats.affinity_hits >= 1,
        "the resume was a pinned-replica hit"
    );
    assert_eq!(stats.migrations, 0);
    // The session's home is the only replica that sampled anything.
    let home = stats
        .replicas
        .iter()
        .find(|r| r.scheduler.samples > 0)
        .expect("some replica ran the jobs")
        .index;
    assert!(fleet.drain(home));
    let handle = fleet
        .submit(
            JobSpec::iterative(1)
                .with_seed(40)
                .with_affinity("tenant-a"),
        )
        .expect("admitted");
    let after = handle.wait().into_report().expect("migrated job completes");
    let stats = fleet.stats();
    assert!(
        stats.migrations >= 1,
        "the session state was copied between stores"
    );
    assert!(stats.affinity_misses >= 1);
    assert!(
        !stats.replicas[home].healthy,
        "the drained replica stays retired"
    );
    // Reference: one uninterrupted session, initial round + three
    // refinement iterations.
    let mut solo = engine.session_seeded(40);
    solo.run_request(&solo.initial_request())
        .expect("solo initial");
    solo.seed_starters();
    solo.iterate(3).expect("solo iterates");
    assert_eq!(
        after.library.patterns(),
        solo.library().patterns(),
        "the migrated continuation diverged from the uninterrupted session"
    );
    assert_eq!(after.generated, solo.generated_total());
    // An invalid affinity key is rejected before admission.
    let err = fleet
        .submit(JobSpec::iterative(1).with_affinity("bad/key"))
        .expect_err("slash is outside the artifact key charset");
    assert!(matches!(err, PpError::Config(_)), "wrong error: {err}");
}

/// Admission rejects at the router, counted by cause: per-class depth
/// fleet-wide, and best-effort shedding on the merged wait p90.
#[test]
fn admission_rejects_by_depth_and_backpressure() {
    let (engine, store) = saved_store(9);
    let fleet = Fleet::open(
        &store,
        FleetOptions::new()
            .with_replicas(1)
            .with_job_limits(QueueLimits {
                batch: 1,
                ..QueueLimits::default()
            })
            .with_backpressure_shed(Duration::ZERO)
            .scheduler_factory(|_| {
                SchedulerOptions::new().faults(FaultPlan::new().stall_all(Duration::from_millis(3)))
            }),
    )
    .expect("fleet opens");
    // Depth: with a fleet-wide batch limit of 1, the second batch job
    // is refused while the first is still in flight.
    let first = fleet
        .submit(JobSpec::raw(request(&engine, 8, 50)).with_seed(50))
        .expect("admitted");
    let err = fleet
        .submit(JobSpec::raw(request(&engine, 4, 51)))
        .expect_err("the batch class is at its fleet-wide limit");
    assert!(
        matches!(err, PpError::Rejected { .. }),
        "wrong error: {err}"
    );
    assert!(first.wait().is_completed());
    // Back-pressure: the stalled forward passes left nonzero waits in
    // the recent window, so with a zero threshold the merged p90 sheds
    // best-effort work — while interactive work is still admitted.
    let stats = fleet.stats();
    assert!(
        stats.aggregated.wait_p90_micros > 0,
        "the stall must leave a visible wait p90, got stats: {stats:?}"
    );
    let err = fleet
        .submit(JobSpec::raw(request(&engine, 4, 52)).with_class(QosClass::BestEffort))
        .expect_err("best-effort work is shed under back-pressure");
    match &err {
        PpError::Rejected { reason } => assert!(
            reason.contains("shed"),
            "rejection must name the cause, got: {reason}"
        ),
        other => panic!("wrong error: {other}"),
    }
    let ok = fleet
        .submit(
            JobSpec::raw(request(&engine, 4, 53))
                .with_seed(53)
                .with_class(QosClass::Interactive),
        )
        .expect("interactive work is never shed by back-pressure");
    assert!(ok.wait().is_completed());
    let stats = fleet.stats();
    assert_eq!(stats.rejected_depth, 1);
    assert_eq!(stats.rejected_backpressure, 1);
}

/// Cancellation and hard deadlines reach jobs that are still queued at
/// the router: behind a slow job on a one-replica fleet, a cancelled
/// job settles `Cancelled` and an expired one `TimedOut`, both with
/// empty reports — they never occupied a replica.
#[test]
fn cancellation_and_deadlines_reach_queued_jobs() {
    let (engine, store) = saved_store(10);
    let fleet = Fleet::open(
        &store,
        FleetOptions::new().with_replicas(1).scheduler_factory(|_| {
            SchedulerOptions::new().faults(FaultPlan::new().stall_all(Duration::from_millis(25)))
        }),
    )
    .expect("fleet opens");
    let slow = fleet
        .submit(JobSpec::raw(request(&engine, 8, 60)).with_seed(60))
        .expect("admitted");
    let cancelled = fleet
        .submit(JobSpec::raw(request(&engine, 4, 61)))
        .expect("admitted");
    cancelled.cancel();
    let expired = fleet
        .submit(JobSpec::raw(request(&engine, 4, 62)).with_hard_deadline(Duration::from_millis(1)))
        .expect("admitted");
    match cancelled.wait() {
        JobOutcome::Cancelled(report) => {
            assert_eq!(report.generated, 0, "cancelled while queued: nothing ran");
        }
        other => panic!("expected Cancelled, got: {other}"),
    }
    match expired.wait() {
        JobOutcome::TimedOut { partial } => {
            assert_eq!(partial.generated, 0, "expired while queued: nothing ran");
        }
        other => panic!("expected TimedOut, got: {other}"),
    }
    assert!(
        slow.wait().is_completed(),
        "the slow job itself is unaffected"
    );
}

/// The `SchedulerStats::merge` surface the router's admission reads:
/// replica counters sum and the recent windows concatenate.
#[test]
fn fleet_stats_aggregate_replica_schedulers() {
    let (engine, store) = saved_store(11);
    let fleet = Fleet::open(&store, FleetOptions::new().with_replicas(2)).expect("fleet opens");
    let handles: Vec<_> = (0..4)
        .map(|i| {
            fleet
                .submit(
                    JobSpec::raw(request(&engine, 4, 70 + i))
                        .with_seed(70 + i)
                        .with_placement(i),
                )
                .expect("admitted")
        })
        .collect();
    for handle in handles {
        assert!(handle.wait().is_completed());
    }
    let stats = fleet.stats();
    assert_eq!(stats.replicas.len(), 2);
    let summed: u64 = stats.replicas.iter().map(|r| r.scheduler.samples).sum();
    assert_eq!(stats.aggregated.samples, summed);
    assert_eq!(stats.aggregated.samples, 16);
    assert_eq!(stats.submitted.total(), 4);
    assert_eq!(stats.finished.total(), 4);
}

/// Replica loss under a seeded placement pattern, for the CI chaos
/// sweep (`./ci.sh --chaos` runs this per `PP_CHAOS_SEED`): whichever
/// replica the seed dooms, every job completes bit-identically on the
/// survivor and the failover accounting holds.
#[test]
fn chaos_replica_loss_redistribution_is_seed_stable() {
    let seed: u64 = std::env::var("PP_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let victim = (seed % 2) as usize;
    let job_count = 3 + (seed % 3) as usize;
    let (engine, store) = saved_store(12);
    let seeds: Vec<u64> = (0..job_count as u64).map(|i| seed * 100 + i).collect();
    let reference: Vec<Vec<Layout>> = seeds
        .iter()
        .map(|&s| solo_patterns(&engine, 4, s))
        .collect();
    let fleet = Fleet::open(
        &store,
        FleetOptions::new()
            .with_replicas(2)
            .scheduler_factory(move |i| {
                if i == victim {
                    SchedulerOptions::new().policy(AlwaysPanic)
                } else {
                    SchedulerOptions::new()
                }
            }),
    )
    .expect("fleet opens");
    let handles: Vec<_> = seeds
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let mut spec = JobSpec::raw(request(&engine, 4, s))
                .with_seed(s)
                .with_placement(victim as u64);
            if i == 0 {
                // The pinned first job guarantees the doomed replica
                // actually executes something and dies doing it.
                spec = spec.with_affinity("chaos-tenant");
            }
            fleet.submit(spec).expect("admitted")
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let report = match handle.wait() {
            JobOutcome::Completed(report) => report,
            other => panic!("seed {seed}: job {i} lost to the dead replica: {other}"),
        };
        assert_eq!(
            report.attempts, 1,
            "seed {seed}: failover consumed an attempt"
        );
        assert_eq!(
            report.library.patterns(),
            &reference[i][..],
            "seed {seed}: job {i} diverged"
        );
    }
    let stats = fleet.stats();
    assert!(
        !stats.replicas[victim].healthy,
        "seed {seed}: victim not retired"
    );
    assert!(stats.replicas[1 - victim].healthy);
    assert!(stats.failovers >= 1, "seed {seed}: no failover recorded");
}
