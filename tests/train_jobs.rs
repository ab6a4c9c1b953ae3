//! Training as a job: the ISSUE-10 contract end to end.
//!
//! * **Resume** — a run split across submissions (or killed mid-epoch
//!   by an injected fault and retried) produces a final checkpoint
//!   *bit-identical* to an uninterrupted run of the same spec.
//! * **Preemption** — a best-effort Train job parks between epochs
//!   while an interactive tenant's sampling is in flight, and both
//!   finish.
//! * **EMA** — shadow-weight export diverges from live-weight export;
//!   both serve.
//! * **Lineage** — the fine-tuned checkpoint records its parent
//!   engine's checkpoint checksum; the child opens as an engine and
//!   A/Bs against its parent through the fleet.
//!
//! The `smoke_`-prefixed test is the `./ci.sh --train-smoke` gate.

use patternpaint::core::{
    ArtifactStore, Engine, Fault, FaultPlan, Fleet, FleetOptions, JobOutcome, JobSpec, MemStore,
    PipelineConfig, PpError, QosClass, RetryPolicy, SchedulerOptions, Service, ServiceOptions,
    TrainSpec, TrainSummary, ENGINE_MODEL_KEY,
};
use patternpaint::pdk::SynthNode;
use pp_diffusion::{checkpoint_checksum, load_checkpoint_with};
use std::sync::Arc;
use std::time::Duration;

fn tiny_engine(seed: u64) -> Engine {
    Engine::builder(SynthNode::small(), PipelineConfig::tiny())
        .seed(seed)
        .untrained_engine()
        .expect("tiny config is valid")
}

fn train_service(engine: &Engine, store: &Arc<MemStore>) -> Service {
    Service::new(
        engine,
        ServiceOptions {
            threads: 2,
            store: Some(Arc::clone(store) as Arc<dyn ArtifactStore>),
            ..Default::default()
        },
    )
}

fn tiny_spec(output: &str) -> TrainSpec {
    TrainSpec::new(output)
        .with_epochs(4)
        .with_steps_per_epoch(3)
        .with_batch(2)
        .with_prior(1, 0.5)
}

/// Runs `spec` to completion on a fresh service over `engine` backed by
/// `store`, returning the summary.
fn run_to_completion(engine: &Engine, store: &Arc<MemStore>, spec: TrainSpec) -> TrainSummary {
    let service = train_service(engine, store);
    let outcome = service
        .submit(JobSpec::train(spec))
        .expect("train job admitted")
        .wait();
    assert!(outcome.is_completed(), "outcome was: {outcome}");
    outcome
        .into_report()
        .expect("completed carries a report")
        .train
        .expect("train jobs report a summary")
}

/// The `./ci.sh --train-smoke` gate: a 2-epoch fine-tune through the
/// service records its parent lineage, resumes instead of restarting,
/// and the trained checkpoint opens as an engine that serves generation
/// through a fresh service unchanged.
#[test]
fn smoke_train_job_records_lineage_and_resumes() {
    let engine = tiny_engine(3);
    let store = Arc::new(MemStore::new());
    engine.save(&*store).expect("engine saves");
    let parent_sum = checkpoint_checksum(&store.get(ENGINE_MODEL_KEY).unwrap())
        .expect("engine checkpoint is addressable");

    let spec = tiny_spec("smoke").with_epochs(2);
    let summary = run_to_completion(&engine, &store, spec.clone());
    assert_eq!(summary.epochs_done, 2);
    assert_eq!(summary.resumed_from, 0, "first run starts fresh");
    assert_eq!(
        summary.parent,
        Some(parent_sum),
        "lineage must content-address the parent engine checkpoint"
    );

    // Resubmitting the same spec resumes from the stored state (here:
    // already done) rather than training from epoch 0 again.
    let again = run_to_completion(&engine, &store, spec.clone());
    assert_eq!(again.resumed_from, 2, "second run must resume, not restart");
    assert_eq!(again.epochs_done, 2);

    // The fine-tuned checkpoint serves generation through the existing
    // service stack unchanged.
    let (child, lineage) = engine
        .open_trained(&*store, &summary.checkpoint_key)
        .expect("trained checkpoint opens");
    assert!(child.is_finetuned());
    assert_eq!(lineage.parent, Some(parent_sum));
    assert_eq!(lineage.epoch, 2);
    let service = Service::new(
        &child,
        ServiceOptions {
            threads: 2,
            ..Default::default()
        },
    );
    let outcome = service
        .submit(JobSpec::initial().with_seed(7).with_budget(8))
        .expect("generation job admitted")
        .wait();
    assert!(outcome.is_completed(), "outcome was: {outcome}");
}

/// The tentpole resumability claim: 2 epochs + resume for 2 more is
/// bit-identical to 4 epochs in one run — weights, optimiser moments
/// and EMA shadow all survive the boundary.
#[test]
fn split_run_is_bit_identical_to_uninterrupted() {
    let engine = tiny_engine(5);

    let solo_store = Arc::new(MemStore::new());
    let solo = run_to_completion(&engine, &solo_store, tiny_spec("resume"));
    assert_eq!(solo.epochs_done, 4);

    let store = Arc::new(MemStore::new());
    let first = run_to_completion(&engine, &store, tiny_spec("resume").with_epochs(2));
    assert_eq!((first.epochs_done, first.resumed_from), (2, 0));
    let second = run_to_completion(&engine, &store, tiny_spec("resume"));
    assert_eq!(
        (second.epochs_done, second.resumed_from),
        (4, 2),
        "the second submission must pick up at epoch 2"
    );

    let (key, _) = (solo.checkpoint_key.clone(), ());
    assert_eq!(
        solo_store.get(&key).unwrap(),
        store.get(&key).unwrap(),
        "split run must be bit-identical to the uninterrupted run"
    );
    assert_eq!(
        solo_store.get(&solo.state_key).unwrap(),
        store.get(&second.state_key).unwrap(),
        "optimiser/EMA/RNG state must also match bit for bit"
    );
}

/// Chaos case: an injected worker panic kills attempt 1 after two
/// epochs were checkpointed. The retry resumes from epoch 2 — never
/// from epoch 0 — and the final weights match a never-faulted run.
#[test]
fn injected_panic_mid_training_resumes_from_last_checkpoint() {
    let engine = tiny_engine(9);

    let clean_store = Arc::new(MemStore::new());
    run_to_completion(&engine, &clean_store, tiny_spec("chaos"));

    let store = Arc::new(MemStore::new());
    // The train job is the service's first submission → scheduler
    // session 1; the fault fires at epoch ordinal 2.
    let service = Service::new(
        &engine,
        ServiceOptions {
            threads: 2,
            scheduler: SchedulerOptions::new()
                .faults(FaultPlan::new().inject(1, Fault::PanicAt { batch: 2 })),
            store: Some(Arc::clone(&store) as Arc<dyn ArtifactStore>),
            ..Default::default()
        },
    );
    let outcome = service
        .submit(
            JobSpec::train(tiny_spec("chaos"))
                .with_retry(RetryPolicy::new(2, Duration::from_millis(1))),
        )
        .expect("admitted")
        .wait();
    assert!(outcome.is_completed(), "outcome was: {outcome}");
    let report = outcome.into_report().unwrap();
    assert_eq!(report.attempts, 2, "the panic must have cost one attempt");
    let summary = report.train.expect("train summary");
    assert_eq!(
        summary.resumed_from, 2,
        "the retry must resume from the last checkpoint, not epoch 0"
    );
    assert_eq!(summary.epochs_done, 4);
    assert_eq!(
        service.scheduler_stats().worker_panics,
        1,
        "the injected panic is accounted like a sampling-path panic"
    );
    assert_eq!(
        clean_store.get(&summary.checkpoint_key).unwrap(),
        store.get(&summary.checkpoint_key).unwrap(),
        "the faulted-and-resumed run must match the never-faulted run bit for bit"
    );
}

/// EMA export: same training trajectory, different exported weights.
/// Both checkpoints load and open as engines.
#[test]
fn ema_export_diverges_from_live_export() {
    use patternpaint::core::ExportWeights;
    let engine = tiny_engine(11);
    let store = Arc::new(MemStore::new());
    let live = run_to_completion(&engine, &store, tiny_spec("live").with_ema(Some(0.9)));
    let ema = run_to_completion(
        &engine,
        &store,
        tiny_spec("shadow")
            .with_ema(Some(0.9))
            .with_export(ExportWeights::Ema),
    );
    let live_bytes = store.get(&live.checkpoint_key).unwrap();
    let ema_bytes = store.get(&ema.checkpoint_key).unwrap();
    assert_ne!(
        live_bytes, ema_bytes,
        "EMA export must diverge from live export"
    );
    load_checkpoint_with(live_bytes.as_slice()).expect("live loads");
    load_checkpoint_with(ema_bytes.as_slice()).expect("ema loads");
    engine
        .open_trained(&*store, &live.checkpoint_key)
        .expect("live opens as an engine");
    engine
        .open_trained(&*store, &ema.checkpoint_key)
        .expect("ema opens as an engine");
}

/// Preemption: a best-effort Train job parks between epochs while an
/// interactive tenant's sampling is in flight. Both complete, and the
/// train summary counts at least one preemption episode.
#[test]
fn train_job_parks_for_an_interactive_tenant() {
    let engine = tiny_engine(13);
    let store = Arc::new(MemStore::new());
    let service = train_service(&engine, &store);

    // Keep the pool busy with interactive work first, so the train
    // job's first epoch boundary observes a higher class in flight.
    let interactive = service
        .submit(
            JobSpec::iterative(1)
                .with_class(QosClass::Interactive)
                .with_seed(21),
        )
        .expect("interactive admitted");
    let train = service
        .submit(JobSpec::train(
            tiny_spec("coexist").with_epochs(6).with_steps_per_epoch(2),
        ))
        .expect("train admitted");

    let interactive_outcome = interactive.wait();
    assert!(
        interactive_outcome.is_completed(),
        "interactive outcome was: {interactive_outcome}"
    );
    let outcome = train.wait();
    assert!(outcome.is_completed(), "train outcome was: {outcome}");
    let summary = outcome.into_report().unwrap().train.unwrap();
    assert_eq!(summary.epochs_done, 6);
    assert!(
        summary.preemptions >= 1,
        "the train job must have parked for the interactive tenant at least once \
         (preemptions = {})",
        summary.preemptions
    );
}

/// Fork + A/B: the fine-tuned child engine carries its parent's
/// checkpoint checksum in the lineage and serves generation next to
/// the parent through the existing fleet, bit-identically admitted.
#[test]
fn finetuned_child_abs_against_parent_through_fleet() {
    let engine = tiny_engine(17);
    let store = Arc::new(MemStore::new());
    engine.save(&*store).expect("engine saves");
    let parent_sum = checkpoint_checksum(&store.get(ENGINE_MODEL_KEY).unwrap()).unwrap();

    let summary = run_to_completion(&engine, &store, tiny_spec("fork").with_epochs(2));
    let (child, lineage) = engine
        .open_trained(&*store, &summary.checkpoint_key)
        .expect("child opens");
    assert_eq!(lineage.parent, Some(parent_sum), "fork records its parent");
    assert_eq!(lineage.epoch, 2);

    let fleet = Fleet::from_engines(
        vec![engine.clone(), child],
        FleetOptions::new().with_threads(2),
    )
    .expect("fleet builds");
    // Placement hints pin one probe per replica: parent vs child.
    for replica in 0..2u64 {
        let outcome = fleet
            .submit(
                JobSpec::initial()
                    .with_seed(23)
                    .with_budget(6)
                    .with_placement(replica),
            )
            .expect("probe admitted")
            .wait();
        assert!(
            outcome.is_completed(),
            "replica {replica} outcome was: {outcome}"
        );
    }

    // Fleets refuse training outright: replicas share one checkpoint.
    let err = fleet
        .submit(JobSpec::train(tiny_spec("nope")))
        .expect_err("fleet must reject train jobs");
    assert!(matches!(err, PpError::Config(_)), "was: {err}");
}

/// A hard deadline resolves a train job to `TimedOut`, and whatever
/// epochs beat the clock are checkpointed with matching lineage.
#[test]
fn hard_deadline_times_out_with_last_checkpoint() {
    let engine = tiny_engine(19);
    let store = Arc::new(MemStore::new());
    let service = train_service(&engine, &store);
    let outcome = service
        .submit(
            JobSpec::train(tiny_spec("deadline").with_epochs(10_000))
                .with_hard_deadline(Duration::from_millis(80)),
        )
        .expect("admitted")
        .wait();
    let JobOutcome::TimedOut { partial } = outcome else {
        panic!("expected TimedOut, got: {outcome}");
    };
    let summary = partial.train.expect("timeout still reports the summary");
    assert!(summary.epochs_done < 10_000);
    if summary.epochs_done > 0 {
        let bytes = store
            .get(&summary.checkpoint_key)
            .expect("checkpoint exists");
        let (_, lineage) = load_checkpoint_with(bytes.as_slice()).expect("loads");
        assert_eq!(
            lineage.epoch, summary.epochs_done,
            "the stored checkpoint is exactly the last completed epoch"
        );
    }
}

/// Train-specific admission errors are typed and synchronous: no
/// store, bad spec, config-shaping on a train job.
#[test]
fn train_submission_errors_are_typed() {
    let engine = tiny_engine(29);
    // No store configured → Config error, nothing admitted.
    let bare = Service::new(
        &engine,
        ServiceOptions {
            threads: 2,
            ..Default::default()
        },
    );
    let err = bare
        .submit(JobSpec::train(tiny_spec("x")))
        .expect_err("no store must reject");
    assert!(err.to_string().contains("store"), "was: {err}");

    let store = Arc::new(MemStore::new());
    let service = train_service(&engine, &store);
    let err = service
        .submit(JobSpec::train(tiny_spec("x").with_epochs(0)))
        .expect_err("invalid spec must reject");
    assert!(err.to_string().contains("epochs"), "was: {err}");
    let err = service
        .submit(JobSpec::train(tiny_spec("x")).with_config(PipelineConfig::tiny()))
        .expect_err("config shaping on a train job must reject");
    assert!(matches!(err, PpError::Config(_)), "was: {err}");
    assert_eq!(
        service.stats().submitted.total(),
        0,
        "rejected specs must never occupy admission slots"
    );
}

/// `JobHandle::progress` is epoch-granular for train jobs: after
/// completion it reads epochs-done / epochs-total.
#[test]
fn progress_reports_epochs_for_train_jobs() {
    let engine = tiny_engine(31);
    let store = Arc::new(MemStore::new());
    let service = train_service(&engine, &store);
    let handle = service
        .submit(JobSpec::train(tiny_spec("progress").with_epochs(3)))
        .expect("admitted");
    let progress = handle.progress();
    assert!(progress.total == 0 || progress.total == 3);
    let outcome = handle.wait();
    assert!(outcome.is_completed(), "outcome was: {outcome}");
    // The handle was consumed by wait(); the report's summary carries
    // the same terminal numbers progress converged to.
    let summary = outcome.into_report().unwrap().train.unwrap();
    assert_eq!((summary.epochs_done, summary.epochs_total), (3, 3));
}

/// A session library saved through the service's store becomes a
/// training dataset: `with_dataset` ingests the PPSQ archive.
#[test]
fn saved_session_library_feeds_training() {
    let engine = tiny_engine(37);
    let store = Arc::new(MemStore::new());
    let mut session = engine.session_seeded(41);
    session.seed_starters();
    session.save(&*store, "harvest").expect("session saves");

    let summary = run_to_completion(
        &engine,
        &store,
        tiny_spec("ingest").with_epochs(2).with_dataset("harvest"),
    );
    assert_eq!(summary.epochs_done, 2);

    // A dataset that does not exist fails the job (typed, not silent).
    let service = train_service(&engine, &store);
    let outcome = service
        .submit(JobSpec::train(
            tiny_spec("missing").with_dataset("no-such-session"),
        ))
        .expect("admitted — the dataset is read at run time")
        .wait();
    let JobOutcome::Failed(err) = outcome else {
        panic!("expected Failed, got: {outcome}");
    };
    assert!(matches!(err, PpError::Artifact(_)), "was: {err}");
}

/// A train job cancelled while it waits out a retry backoff settles
/// `Cancelled` with an empty report that counts only the attempt that
/// ran (attempt 2 never started), like a generation job.
#[test]
fn cancel_during_train_retry_backoff_counts_only_the_attempt_that_ran() {
    let engine = tiny_engine(43);
    let store = Arc::new(MemStore::new());
    // The train job is the service's first submission → scheduler
    // session 1; the fault fires at epoch ordinal 0.
    let service = Service::new(
        &engine,
        ServiceOptions {
            threads: 1,
            scheduler: SchedulerOptions::new()
                .faults(FaultPlan::new().inject(1, Fault::PanicAt { batch: 0 })),
            store: Some(Arc::clone(&store) as Arc<dyn ArtifactStore>),
            ..Default::default()
        },
    );
    let handle = service
        .submit(
            JobSpec::train(tiny_spec("backoff"))
                .with_retry(RetryPolicy::new(2, Duration::from_millis(500))),
        )
        .expect("admitted");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while service.stats().retries < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "the retry was never booked"
        );
        std::thread::yield_now();
    }
    handle.cancel();
    match handle.wait() {
        JobOutcome::Cancelled(report) => {
            assert_eq!(report.attempts, 1, "attempt 2 must never have started");
            assert!(report.train.is_none(), "no attempt finished an epoch");
        }
        other => panic!("expected Cancelled, got: {other}"),
    }
}
