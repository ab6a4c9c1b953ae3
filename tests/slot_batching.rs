//! Continuous batching, asserted end to end through the public API:
//!
//! * **Bit-identity** — merged slot tables change *which* forward pass
//!   a job rides in, never its arithmetic: scheduled sessions equal
//!   solo sessions (library contents, insertion order, counts) across
//!   thread counts and slot capacities.
//! * **Merging actually happens** — under multi-tenant load the slot
//!   counters prove forward passes mixed submissions
//!   (`batches_merged > 0`).
//! * **No starvation** — an Interactive tenant submitted into a
//!   saturating BestEffort flood still completes promptly under
//!   `WeightedFair` (the flood is provably unfinished when it does).
//! * **Straggler accounting** — every retirement path (completed,
//!   abandoned, timed-out) records a terminal timestamp, so
//!   `turnaround_micros` moves even when no submission completes.

use patternpaint::core::{
    CancelToken, Engine, GenerationRequest, JobOutcome, JobSet, JobSpec, PipelineConfig, QosClass,
    Scheduler, SchedulerOptions, Service, ServiceOptions, Session, StreamOptions, WeightedFair,
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
}

/// Deliberately unequal: different job counts *and* micro-batch
/// widths, so slot admission must align heterogeneous groups.
fn unequal_tenants() -> Vec<Tenant> {
    vec![
        Tenant {
            jobs: 24,
            batch: 2,
            class: QosClass::Interactive,
            seed: 61,
        },
        Tenant {
            jobs: 6,
            batch: 1,
            class: QosClass::Batch,
            seed: 62,
        },
        Tenant {
            jobs: 15,
            batch: 4,
            class: QosClass::BestEffort,
            seed: 63,
        },
    ]
}

/// Runs every tenant concurrently on one scheduler and asserts each
/// library equals its solo (unscheduled) reference — which covers
/// per-session in-order delivery, completeness and bit-identical
/// contents in one comparison.
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
            engine
                .session_seeded(t.seed)
                .with_config(cfg)
                .expect("config fits the engine")
                .with_options(StreamOptions::default().with_class(t.class))
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

/// The core continuous-batching guarantee: merging submissions into
/// one slot table may change scheduling, never samples. Swept across
/// worker counts and slot capacities (auto, cramped, generous) —
/// every combination must reproduce the solo libraries bit for bit.
#[test]
fn merged_batches_are_bit_identical_to_solo_across_threads_and_slot_caps() {
    for threads in [1usize, 2] {
        for slots in [0usize, 3, 8] {
            let engine = tiny_engine(10);
            let scheduler =
                engine.scheduler_with(threads, SchedulerOptions::new().slot_capacity(slots));
            assert_tenants_match_solo(&engine, &scheduler, &unequal_tenants());
            let stats = scheduler.stats();
            assert_eq!(
                stats.completed.total(),
                3,
                "threads={threads} slots={slots}: every submission completed"
            );
            assert_eq!(stats.samples, 24 + 6 + 15);
            assert!(
                stats.slots_filled > 0,
                "threads={threads} slots={slots}: slot occupancy was counted"
            );
        }
    }
}

/// Under concurrent multi-tenant load on one worker, continuous
/// batching must actually merge: some forward passes carry slots from
/// more than one submission.
#[test]
fn continuous_batching_merges_concurrent_submissions() {
    let engine = tiny_engine(12);
    // One worker forces every tenant through the same slot table; small
    // micro-batches leave free slots for co-tenants at every refill.
    let scheduler = engine.scheduler_with(1, SchedulerOptions::new());
    assert_tenants_match_solo(&engine, &scheduler, &unequal_tenants());
    let stats = scheduler.stats();
    assert_eq!(stats.completed.total(), 3);
    assert!(
        stats.batches_merged > 0,
        "no forward pass ever mixed submissions: {stats:?}"
    );
    assert!(
        stats.slots_filled > 0 && stats.slots_idle < stats.slots_filled * 10,
        "slot occupancy counters look implausible: {stats:?}"
    );
}

/// A saturating BestEffort flood must not starve an Interactive
/// tenant: under `WeightedFair` the interactive submission finishes
/// while the flood is still provably in the queue.
#[test]
fn best_effort_flood_does_not_starve_interactive() {
    let engine = tiny_engine(13);
    let scheduler = engine.scheduler_with(1, SchedulerOptions::new().policy(WeightedFair));
    let flood_jobs = 48usize;
    let mut flood: Vec<Session> = (0..3)
        .map(|i| {
            engine
                .session_seeded(70 + i)
                .with_class(QosClass::BestEffort)
                .attach(&scheduler)
        })
        .collect();
    let mut interactive = engine
        .session_seeded(80)
        .with_class(QosClass::Interactive)
        .attach(&scheduler);
    let flood_done_when_interactive_finished = std::thread::scope(|s| {
        let handles: Vec<_> = flood
            .iter_mut()
            .enumerate()
            .map(|(i, sess)| {
                let req = request(&engine, flood_jobs, 70 + i as u64);
                s.spawn(move || sess.run_request(&req).expect("flood round runs"))
            })
            .collect();
        // Give the flood a head start so the worker is saturated when
        // the interactive tenant arrives.
        while scheduler.stats().samples == 0 {
            std::thread::yield_now();
        }
        let counts = interactive
            .run_request(&request(&engine, 8, 80))
            .expect("interactive round runs");
        assert_eq!(counts.0, 8, "interactive must fully complete");
        let best_effort_done = scheduler.stats().completed.get(QosClass::BestEffort);
        for h in handles {
            h.join().expect("flood thread");
        }
        best_effort_done
    });
    assert!(
        flood_done_when_interactive_finished < 3,
        "the flood finished before the interactive tenant — 8 jobs \
         outwaited {} best-effort jobs, which is starvation",
        3 * flood_jobs
    );
    let stats = scheduler.stats();
    assert_eq!(stats.completed.total(), 4, "nobody starves: all complete");
}

/// The admission de-aligner: a *cold* continuous refill (empty slot
/// table) caps its width at half the table, so a lone tenant whose
/// batch exactly matches the capacity cannot march every slot in
/// lockstep. The staggered start shows up in the occupancy counters —
/// early steps run a part-filled table (idle slots counted) and the
/// 12 jobs spread over more micro-batches than the 3 full-width
/// refills an aligned start would dispatch.
#[test]
fn cold_refill_dealigner_staggers_slot_occupancy() {
    let engine = tiny_engine(15);
    let scheduler = engine.scheduler_with(
        1,
        // Capacity == batch width: the worst lockstep case.
        SchedulerOptions::new().slot_capacity(4),
    );
    let mut session = engine.session_seeded(95).attach(&scheduler);
    let counts = session
        .run_request(&request(&engine, 12, 95))
        .expect("round runs");
    assert_eq!(counts.0, 12);
    let stats = scheduler.stats();
    assert_eq!(stats.samples, 12);
    assert_eq!(stats.completed.total(), 1);
    assert_eq!(stats.batches_merged, 0, "single tenant: nothing to merge");
    assert!(
        stats.micro_batches >= 4,
        "the capped cold refill must split 12 jobs into more than the \
         3 aligned full-width refills: {stats:?}"
    );
    assert!(
        stats.slots_idle >= 1 && stats.slots_idle < stats.slots_filled,
        "a staggered table steps part-filled early on, without idling \
         more than it works: {stats:?}"
    );
}

/// Straggler-accounting regression: a submission abandoned mid-stream
/// (cancelled after its first delivery) must still record a terminal
/// timestamp. Before the fix only *completed* submissions fed
/// `turnaround_micros`, so abandoned stragglers silently vanished
/// from the latency ledger.
#[test]
fn abandoned_submissions_record_turnaround() {
    let engine = tiny_engine(14);
    let scheduler = engine.scheduler(1);
    let cancel = CancelToken::new();
    let hook_cancel = cancel.clone();
    let mut session = engine
        .session_seeded(90)
        .with_options(
            StreamOptions::default()
                .with_cancel(cancel)
                // Cancel as soon as the first micro-batch lands.
                .with_progress(move |_| hook_cancel.cancel()),
        )
        .attach(&scheduler);
    let counts = session
        .run_request(&request(&engine, 64, 90))
        .expect("cancellation is not an error");
    assert!(
        counts.0 >= 1 && counts.0 < 64,
        "cancellation failed to stop the round early ({}/64)",
        counts.0
    );
    // The purge runs on the worker's next refill; poll until it lands.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while scheduler.stats().abandoned.total() < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "abandonment never booked: {:?}",
            scheduler.stats()
        );
        std::thread::yield_now();
    }
    let stats = scheduler.stats();
    assert_eq!(stats.completed.total(), 0, "nothing completed");
    assert!(
        stats.turnaround_micros > 0,
        "abandoned submission left no terminal timestamp: {stats:?}"
    );
}

/// Same regression for the timed-out path: a hard deadline that
/// expires before dispatch retires the submission as `timed_out` —
/// and that retirement, too, must stamp `turnaround_micros`.
#[test]
fn timed_out_submissions_record_turnaround() {
    let engine = tiny_engine(15);
    let service = Service::new(
        &engine,
        ServiceOptions {
            threads: 1,
            ..Default::default()
        },
    );
    let handle = service
        .submit(JobSpec::raw(request(&engine, 6, 91)).with_hard_deadline(Duration::ZERO))
        .expect("admission precedes deadline enforcement");
    match handle.wait() {
        JobOutcome::TimedOut { partial } => {
            assert_eq!(partial.generated, 0, "nothing beat a zero deadline")
        }
        other => panic!("expected TimedOut, got: {other}"),
    }
    // The timed-out retirement is booked by the worker's purge; poll
    // until the counter lands before inspecting the turnaround ledger.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while service.scheduler_stats().timed_out.total() < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "timeout never booked: {:?}",
            service.scheduler_stats()
        );
        std::thread::yield_now();
    }
    let stats = service.scheduler_stats();
    assert_eq!(stats.completed.total(), 0);
    assert!(
        stats.turnaround_micros > 0,
        "timed-out submission left no terminal timestamp: {stats:?}"
    );
}
