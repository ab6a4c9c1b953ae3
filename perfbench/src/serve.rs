//! The serving workloads: `serve_mixed` (a shared generation service)
//! and `retrain_serve` (the self-improving loop while serving).
//!
//! Both open the finetuned serving engine, start a `Service` under
//! `WeightedFair` and warm it with one Interactive job; set-up ends
//! there. Interactive jobs then arrive open loop on a seeded Poisson
//! schedule while background work — Batch iterative jobs or one
//! BestEffort train job — keeps the CPUs busy past the last arrival,
//! so every Interactive job meets the same mix.

use crate::loadgen::{self, JobRecord};
use crate::prep::{LIBRARY, MODEL_SEED};
use crate::report::{median, percentile, Metrics, ProcMonitor};
use crate::trace::{
    tail_metrics, TailCounts, TracedDenoiser, TracedStore, TracedValidator, Tracer,
};
use crate::{alloc_count, Ctx, Outputs, Run};
use patternpaint_core::{
    copy_artifacts, ArtifactStore, DirStore, DrcValidator, Engine, JobSpec, MemStore,
    PatternLibrary, PipelineBuilder, QosClass, QueueLimits, SchedulerOptions, SchedulerStats,
    Service, ServiceOptions, ServiceStats, TrainSpec, WeightedFair,
};
use pp_inpaint::TemplateDenoiser;
use std::error::Error;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Interactive jobs per run: enough that p95 has ten jobs beyond it.
const INTERACTIVE_JOBS: usize = 200;
/// Sample budget of one `serve_mixed` Interactive job.
const MIXED_BUDGET: usize = 4;
/// Sample budget of one `retrain_serve` Interactive job.
const RETRAIN_BUDGET: usize = 2;
/// Closed-loop Batch clients in `serve_mixed`.
const BG_CLIENTS: usize = 2;
/// Background samples per second of schedule `serve_mixed` queues: the
/// pool's spare capacity next to the Interactive load at 118 samples/s,
/// above the fastest run seen on a 2-vCPU x86-64 host (about 105), so
/// the background outlasts the schedule. At 65/s it ran out early in
/// fast runs, and the last Interactive jobs met an idle pool.
const BG_SAMPLES_PER_S: f64 = 86.0;
/// BestEffort background samples per second of schedule in
/// `retrain_serve`: it keeps the single worker's slot table full next
/// to the trainer, the same class as the train job so it never parks
/// it.
const RETRAIN_BG_SAMPLES_PER_S: f64 = 30.0;
/// Optimiser steps per epoch of the `retrain_serve` train job. The
/// trainer parks only between epochs, and each park shifts CPU
/// contention between trainer and worker; few, long epochs keep that
/// from adding run-to-run spread.
const TRAIN_STEPS_PER_EPOCH: usize = 100;
/// Train steps per second of schedule: above the trainer's rate under
/// load on a 2-vCPU x86-64 host (15–18.5), so training outlasts the
/// schedule.
const TRAIN_STEPS_PER_S: f64 = 20.0;
/// Synthetic foundation images mixed into the train job's data.
const TRAIN_SYNTH: usize = 64;

/// Distinct per-job seeds derived from the run seed.
fn job_seed(seed: u64, stream: u64, i: usize) -> u64 {
    (seed ^ stream.rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64
}

/// Everything set-up hands the measured phase.
struct Ready {
    service: Service,
    put_bytes: Option<Arc<TracedStore<MemStore>>>,
    counts: Arc<TailCounts>,
}

/// The opened engine, rebuilt around traced denoiser and validator
/// stages when tracing. Selection stays default: a selector override
/// would seed every session alike and change job outputs.
fn serving_engine(
    engine: Engine,
    tracer: Option<&Arc<Tracer>>,
    counts: &Arc<TailCounts>,
) -> Result<Engine, Box<dyn Error>> {
    let Some(t) = tracer else {
        return Ok(engine);
    };
    let cfg = *engine.config();
    Ok(PipelineBuilder::new(engine.node().clone(), cfg)
        .seed(engine.seed())
        .denoiser(TracedDenoiser {
            inner: TemplateDenoiser::new(cfg.denoise_threshold),
            tracer: Arc::clone(t),
        })
        .validator(TracedValidator {
            inner: DrcValidator::new(engine.node().rules().clone()),
            tracer: Arc::clone(t),
            counts: Arc::clone(counts),
        })
        .untrained_engine()?
        .with_model(engine.model().clone())?)
}

/// One set-up: open the serving engine (from its directory, or through
/// an in-memory store that also serves the train job), start the
/// service and run one warm-up job. Returns the service and the
/// `(open, service start, warm-up)` durations.
fn set_up(
    ctx: &Ctx,
    threads: usize,
    with_store: bool,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(Ready, [Duration; 3]), Box<dyn Error>> {
    let t0 = Instant::now();
    let dir = DirStore::open(&ctx.models.serving)?;
    let counts = Arc::new(TailCounts::default());
    let (engine, store, traced_store) = if with_store {
        let (store, traced): (Arc<dyn ArtifactStore>, _) = match tracer {
            Some(t) => {
                let s = Arc::new(TracedStore::new(MemStore::new(), Arc::clone(t)));
                (s.clone(), Some(s))
            }
            None => (Arc::new(MemStore::new()), None),
        };
        copy_artifacts(&dir, &*store, "")?;
        (Engine::open(&*store)?, Some(store), traced)
    } else {
        let engine = match tracer {
            Some(t) => Engine::open(&TracedStore::new(dir, Arc::clone(t)))?,
            None => Engine::open(&dir)?,
        };
        (engine, None, None)
    };
    let open = t0.elapsed();
    let engine = serving_engine(engine, tracer, &counts)?;
    let t1 = Instant::now();
    let service = Service::new(
        &engine,
        ServiceOptions {
            threads,
            scheduler: SchedulerOptions::new()
                .policy(WeightedFair)
                .limits(QueueLimits::uniform(1024)),
            job_limits: QueueLimits::uniform(1024),
            store,
        },
    );
    let t2 = Instant::now();
    let warm = service
        .submit(
            JobSpec::initial()
                .with_class(QosClass::Interactive)
                .with_budget(MIXED_BUDGET)
                .with_seed(MODEL_SEED),
        )?
        .wait();
    if !warm.is_completed() {
        return Err(format!("warm-up job did not complete: {warm}").into());
    }
    let t3 = Instant::now();
    Ok((
        Ready {
            service,
            put_bytes: traced_store,
            counts,
        },
        [open, t2 - t1, t3 - t2],
    ))
}

/// Runs the other `setups - 1` set-ups after the measured phase, so
/// their median samples the host at both ends of the run, and records
/// `setup_s` and the per-phase medians with `first`'s.
fn set_up_rest(
    ctx: &Ctx,
    threads: usize,
    with_store: bool,
    setups: usize,
    first: [Duration; 3],
    m: &mut Metrics,
) -> Result<(), Box<dyn Error>> {
    let mut phases = vec![first];
    for _ in 1..setups {
        let (ready, p) = set_up(ctx, threads, with_store, None)?;
        // Shut the service down outside the timed phases.
        drop(ready);
        phases.push(p);
    }
    let secs = |f: &dyn Fn(&[Duration; 3]) -> Duration| -> Vec<f64> {
        phases.iter().map(|p| f(p).as_secs_f64()).collect()
    };
    m.set("setup_s", median(&secs(&|p| p[0] + p[1] + p[2])));
    m.set("setup.open_ms", median(&secs(&|p| p[0])) * 1e3);
    m.set("setup.warmup_ms", median(&secs(&|p| p[2])) * 1e3);
    Ok(())
}

/// The Interactive arrivals of one run: `INTERACTIVE_JOBS` jobs of
/// `budget` samples over `seconds`.
fn interactive_jobs(ctx: &Ctx, budget: usize) -> Vec<(Duration, JobSpec)> {
    let due = loadgen::schedule(
        INTERACTIVE_JOBS,
        Duration::from_secs(ctx.seconds),
        job_seed(ctx.seed, 1, 0),
    );
    due.into_iter()
        .enumerate()
        .map(|(i, at)| {
            let spec = JobSpec::initial()
                .with_class(QosClass::Interactive)
                .with_budget(budget)
                .with_seed(job_seed(ctx.seed, 2, i));
            (at, spec)
        })
        .collect()
}

/// A measured window over a running service: counters before it, the
/// process monitor and, when tracing, allocation counting.
struct Window {
    start: Instant,
    since: u64,
    before: (SchedulerStats, ServiceStats),
    monitor: ProcMonitor,
}

/// What closing a window found.
struct Closed {
    /// Seconds from the window's start to the last terminal outcome.
    seconds: f64,
    outputs: Outputs,
    errors: Vec<String>,
    /// Samples generated by the completed generating jobs.
    generated: usize,
    failed: usize,
}

impl Window {
    fn open(service: &Service, tracer: Option<&Arc<Tracer>>) -> Window {
        let before = (service.scheduler_stats(), service.stats());
        let monitor = ProcMonitor::start();
        if tracer.is_some() {
            alloc_count::start();
        }
        Window {
            start: Instant::now(),
            since: tracer.map_or(0, |t| t.now()),
            before,
            monitor,
        }
    }

    /// Ends the window at the last terminal outcome in `all` and records
    /// the metrics both serving workloads share: Interactive latency,
    /// memory and threads, allocations, scheduler and service deltas,
    /// output quality over `generating`, and the round tail when
    /// tracing. `interactive` must each have generated `budget` samples.
    #[allow(clippy::too_many_arguments)]
    fn close(
        self,
        m: &mut Metrics,
        ready: &Ready,
        tracer: Option<&Arc<Tracer>>,
        interactive: &[JobRecord],
        generating: &[&JobRecord],
        all: &[&JobRecord],
        budget: usize,
        late_ms: f64,
    ) -> Closed {
        let end = all.iter().map(|r| r.done).max().unwrap_or(self.start);
        let seconds = end.duration_since(self.start).as_secs_f64();
        let (allocs, alloc_bytes) = alloc_count::stop();
        let (rss_mb, threads) = self.monitor.finish();
        let service = &ready.service;
        let after = (service.scheduler_stats(), service.stats());

        let latencies: Vec<f64> = interactive.iter().map(JobRecord::latency_ms).collect();
        m.set("latency_p50_ms", median(&latencies));
        m.set("latency_p95_ms", percentile(&latencies, 0.95));
        m.set("peak_rss_mb", rss_mb);
        m.set("service.threads_peak", threads as f64);
        m.set("loadgen.jobs", interactive.len() as f64);
        m.set("loadgen.late_ms_max", late_ms);
        let submit: Vec<f64> = all.iter().map(|r| r.submit_us).collect();
        m.set("service.submit_us.p95", percentile(&submit, 0.95));

        let completed = || generating.iter().filter_map(|r| r.completed());
        let generated: usize = completed().map(|r| r.generated).sum();
        let legal: usize = completed().map(|r| r.legal).sum();
        m.set("alloc.per_sample", allocs as f64 / generated.max(1) as f64);
        m.set(
            "alloc.bytes_per_sample",
            alloc_bytes as f64 / generated.max(1) as f64,
        );
        layer_deltas(m, service, &self.before, &after);
        let mut library = PatternLibrary::new();
        for report in completed() {
            library.extend(report.library.patterns().iter().cloned());
        }
        if let Some(t) = tracer {
            tail_metrics(
                m,
                t,
                &ready.counts,
                self.since,
                seconds,
                library.len(),
                legal,
            );
        }

        let mut errors = Vec::new();
        for (i, r) in interactive.iter().enumerate() {
            match (&r.outcome, r.completed()) {
                (_, Some(report)) if report.generated == budget => {}
                (_, Some(report)) => errors.push(format!(
                    "interactive job {i} generated {} of {budget} samples",
                    report.generated
                )),
                (Ok(outcome), None) => errors.push(format!("interactive job {i}: {outcome}")),
                (Err(e), None) => errors.push(format!("interactive job {i} refused: {e}")),
            }
        }
        Closed {
            seconds,
            outputs: Outputs {
                legal_rate: legal as f64 / generated.max(1) as f64,
                unique_patterns: library.len(),
                h2: library.stats().h2,
                train_loss: None,
            },
            errors,
            generated,
            failed: all.iter().filter(|r| r.completed().is_none()).count(),
        }
    }
}

/// Scheduler and service counter deltas over the window, plus the cost
/// of one scheduler-stats call after it.
fn layer_deltas(
    m: &mut Metrics,
    service: &Service,
    before: &(SchedulerStats, ServiceStats),
    after: &(SchedulerStats, ServiceStats),
) {
    let (s0, v0) = before;
    let (s1, v1) = after;
    let filled = (s1.slots_filled - s0.slots_filled) as f64;
    let idle = (s1.slots_idle - s0.slots_idle) as f64;
    let admitted = (s1.admitted.total() - s0.admitted.total()).max(1) as f64;
    m.set("scheduler.slot_fill", filled / (filled + idle).max(1.0));
    m.set(
        "scheduler.merged_steps",
        (s1.batches_merged - s0.batches_merged) as f64,
    );
    m.set(
        "scheduler.wait_mean_ms",
        (s1.wait_micros - s0.wait_micros) as f64 / admitted / 1e3,
    );
    m.set(
        "scheduler.wait_p99_ms.interactive",
        s1.wait_p99_micros_by_class.interactive as f64 / 1e3,
    );
    m.set(
        "service.rejected",
        (v1.rejected.total() - v0.rejected.total()) as f64,
    );
    m.set("service.retries", (v1.retries - v0.retries) as f64);
    let calls: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(service.scheduler_stats());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.set("scheduler.stats_call_us", median(&calls));
}

/// Background jobs of `clients` closed-loop clients in `class`, about
/// `samples_per_s` samples per second of schedule in all: iterative
/// jobs of one initial round (one variation per starter × mask) plus
/// one selection round of 160 samples. Every client gets the same
/// number of jobs, so the clients finish together and the pool stays
/// full until the end.
fn background(
    ctx: &Ctx,
    service: &Service,
    class: QosClass,
    clients: usize,
    samples_per_s: f64,
) -> Vec<Vec<JobSpec>> {
    let mut cfg = *service.engine().config();
    cfg.variations = 1;
    cfg.samples_per_iteration = 160;
    cfg.select_k = 20;
    let per_job = (20 * 10 + cfg.samples_per_iteration) as f64;
    let per_client = (samples_per_s * ctx.seconds as f64 / per_job / clients as f64).ceil();
    let jobs = per_client as usize * clients;
    (0..clients)
        .map(|c| {
            (c..jobs)
                .step_by(clients)
                .map(|j| {
                    JobSpec::iterative(1)
                        .with_class(class)
                        .with_seed(job_seed(ctx.seed, 3, j))
                        .with_config(cfg)
                })
                .collect()
        })
        .collect()
}

/// Warns when `work`, which ended at `end`, ended before the last
/// Interactive job did: the last arrivals then met a lighter mix than
/// the rest.
fn warn_if_outrun(work: &str, end: Instant, interactive: &[JobRecord]) {
    let last = interactive.iter().map(|r| r.done).max().unwrap_or(end);
    if end < last {
        eprintln!(
            "[mix] {work} ended {:.2} s before the last Interactive job",
            (last - end).as_secs_f64()
        );
    }
}

/// Gate errors for background jobs that did not run their round.
fn check_background(background: &[JobRecord]) -> Vec<String> {
    let mut errors = Vec::new();
    for (i, r) in background.iter().enumerate() {
        match r.completed() {
            Some(report) if report.iterations.len() == 1 && report.generated > 200 => {}
            Some(report) => errors.push(format!(
                "background job {i} ran {} iterations, {} samples",
                report.iterations.len(),
                report.generated
            )),
            None => errors.push(format!("background job {i} did not complete")),
        }
    }
    errors
}

pub fn serve_mixed(
    ctx: &Ctx,
    tracer: Option<&Arc<Tracer>>,
    setups: usize,
) -> Result<Run, Box<dyn Error>> {
    let mut m = Metrics::default();
    let (ready, first) = set_up(ctx, 2, false, tracer)?;
    let service = &ready.service;
    let bg_lists = background(ctx, service, QosClass::Batch, BG_CLIENTS, BG_SAMPLES_PER_S);
    let arrivals = interactive_jobs(ctx, MIXED_BUDGET);

    let window = Window::open(service, tracer);
    let tr = tracer.map(|t| &**t);
    let (interactive, late_ms, background) = std::thread::scope(|s| {
        let clients: Vec<_> = bg_lists
            .into_iter()
            .map(|list| s.spawn(move || loadgen::closed_loop(service, list, tr)))
            .collect();
        let (interactive, late) = loadgen::open_loop(service, arrivals, window.start, tr);
        let background: Vec<JobRecord> = clients
            .into_iter()
            .flat_map(|c| c.join().expect("background client panicked"))
            .collect();
        (interactive, late, background)
    });
    let all: Vec<&JobRecord> = interactive.iter().chain(&background).collect();
    let mut closed = window.close(
        &mut m,
        &ready,
        tracer,
        &interactive,
        &all,
        &all,
        MIXED_BUDGET,
        late_ms,
    );
    closed.errors.extend(check_background(&background));
    if let Some(end) = background.iter().map(|r| r.done).max() {
        warn_if_outrun("background work", end, &interactive);
    }
    drop(ready);
    set_up_rest(ctx, 2, false, setups, first, &mut m)?;
    Ok(Run {
        metrics: m,
        outputs: closed.outputs,
        throughput: closed.generated as f64 / closed.seconds,
        attempted: all.len(),
        failed: closed.failed,
        errors: closed.errors,
    })
}

pub fn retrain_serve(
    ctx: &Ctx,
    tracer: Option<&Arc<Tracer>>,
    setups: usize,
) -> Result<Run, Box<dyn Error>> {
    let mut m = Metrics::default();
    let (ready, first) = set_up(ctx, 1, true, tracer)?;
    let service = &ready.service;
    let steps = TRAIN_STEPS_PER_S * ctx.seconds as f64;
    let epochs = (steps / TRAIN_STEPS_PER_EPOCH as f64).ceil() as u32;
    let train = JobSpec::train(
        TrainSpec::new("retrain")
            .with_epochs(epochs)
            .with_steps_per_epoch(TRAIN_STEPS_PER_EPOCH)
            .with_dataset(LIBRARY)
            .with_synth_corpus(TRAIN_SYNTH),
    )
    .with_class(QosClass::BestEffort)
    .with_seed(job_seed(ctx.seed, 4, 0));
    let mut bg_lists = background(
        ctx,
        service,
        QosClass::BestEffort,
        1,
        RETRAIN_BG_SAMPLES_PER_S,
    );
    let bg_list = bg_lists.pop().expect("one background client");
    let arrivals = interactive_jobs(ctx, RETRAIN_BUDGET);

    if let Some(s) = &ready.put_bytes {
        s.put_bytes.store(0, Ordering::Relaxed);
    }
    let window = Window::open(service, tracer);
    let tr = tracer.map(|t| &**t);
    let (watch, background, (interactive, late_ms)) = std::thread::scope(|s| {
        let trainer = s.spawn(|| loadgen::watch_train(service, train, tr));
        let client = s.spawn(|| loadgen::closed_loop(service, bg_list, tr));
        let interactive = loadgen::open_loop(service, arrivals, window.start, tr);
        (
            trainer.join().expect("train client panicked"),
            client.join().expect("background client panicked"),
            interactive,
        )
    });
    let since = window.since;
    let generating: Vec<&JobRecord> = interactive.iter().chain(&background).collect();
    let all: Vec<&JobRecord> = generating.iter().copied().chain([&watch.record]).collect();
    let mut closed = window.close(
        &mut m,
        &ready,
        tracer,
        &interactive,
        &generating,
        &all,
        RETRAIN_BUDGET,
        late_ms,
    );
    closed.errors.extend(check_background(&background));
    if let Some(end) = background.iter().map(|r| r.done).max() {
        warn_if_outrun("background work", end, &interactive);
    }
    warn_if_outrun("the train job", watch.record.done, &interactive);

    let summary = watch.record.completed().and_then(|r| r.train.clone());
    match &summary {
        Some(s) if s.epochs_done == epochs && s.epochs_total == epochs => {
            closed.outputs.train_loss = Some(s.final_loss);
        }
        Some(s) => closed.errors.push(format!(
            "train job finished {} of {epochs} epochs",
            s.epochs_done
        )),
        None => closed.errors.push(match &watch.record.outcome {
            Ok(outcome) => format!("train job: {outcome}"),
            Err(e) => format!("train job refused: {e}"),
        }),
    }
    if let Some(s) = &summary {
        m.set("train.preemptions", f64::from(s.preemptions));
    }
    if let Some(prepared) = watch.prepared {
        let ms = |from: Instant, to: Instant| to.duration_since(from).as_secs_f64() * 1e3;
        m.set("train.prepare_ms", ms(watch.record.due, prepared));
        let starts = std::iter::once(prepared).chain(watch.epochs.iter().copied());
        let epoch_ms: Vec<f64> = starts
            .zip(&watch.epochs)
            .map(|(from, &to)| ms(from, to))
            .collect();
        m.set("train.epoch_ms.p50", median(&epoch_ms));
    }
    if let (Some(t), Some(s)) = (tracer, &ready.put_bytes) {
        let (put_n, put_ns) = t.total("artifact.put", since);
        m.set("artifact.put_ms", put_ns as f64 / 1e6 / put_n.max(1) as f64);
        m.set(
            "artifact.put_mb",
            s.put_bytes.load(Ordering::Relaxed) as f64 / (1 << 20) as f64,
        );
    }
    drop(ready);
    set_up_rest(ctx, 1, true, setups, first, &mut m)?;
    let train_wall = watch.record.done.duration_since(watch.record.due);
    let train_steps = epochs as usize * TRAIN_STEPS_PER_EPOCH;
    Ok(Run {
        metrics: m,
        outputs: closed.outputs,
        throughput: train_steps as f64 / train_wall.as_secs_f64(),
        attempted: all.len(),
        failed: closed.failed,
        errors: closed.errors,
    })
}
