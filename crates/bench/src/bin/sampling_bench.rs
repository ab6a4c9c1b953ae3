//! The sampling-throughput trajectory benchmark.
//!
//! Times the two training/inference hot paths that every scaling PR
//! must not regress:
//!
//! 1. **pretrain-tiny** — a short training run of the tiny model
//!    (exercises forward + backward + Adam through the GEMM kernels);
//! 2. **64-job inpaint batch** on the standard 32×32 model, in three
//!    modes:
//!    * `per_sample_naive` — batch size 1 through the scalar reference
//!      kernels (the pre-GEMM per-sample path this repository shipped
//!      before the batching rework);
//!    * `per_sample_gemm` — batch size 1 through the blocked kernels
//!      (isolates the GEMM win);
//!    * `batched_gemm` — micro-batched through the blocked kernels
//!      (the blocking batch path; adds the batching win);
//!    * `engine_sched` — the same jobs through an Engine scheduler,
//!      the dispatcher every streamed round (solo or shared) runs
//!      through (bit-identity with the batch path asserted);
//!    * `qos_sched` — the QoS front door: the jobs split across two
//!      tenants in different QoS classes, submitted as `JobSpec`s to a
//!      `Service` over a `WeightedFair` scheduler, timed to the last
//!      `JobOutcome` and followed by a `SchedulerStats` snapshot
//!      (queue depths, per-session micro-batch shares, wait /
//!      turnaround counters);
//!    * `faulted_clean` — the supervision-overhead guard: the full job
//!      batch as a clean tenant while a one-job tenant absorbs an
//!      injected worker panic and retries. The clean tenant is what's
//!      timed — catch_unwind isolation, poison-safe locks, and the
//!      fault hook must cost ~nothing on the happy path, so this mode
//!      stays within a few percent of `batched_gemm`;
//!    * `mixed_tenants` — the continuous-batching workload: a
//!      mixed-width flood (narrow Batch + wide BestEffort tenants,
//!      with Interactive tenants arriving mid-flight) on one worker.
//!      Reports aggregate samples/s plus per-class p50/p99
//!      submit→first-dispatch waits and slot occupancy.
//!
//! All modes run the same worker-thread count, so the reported speedup
//! is purely kernels + batching. Results go to `BENCH_sampling.json` at
//! the repository root (schema in PERF.md) and stdout.
//!
//! Run: `cargo run --release -p pp-bench --bin sampling_bench`
//! (`PP_BENCH_JOBS=n` shrinks the batch; `PP_BENCH_SMOKE=1` also skips
//! the JSON write and shortens the pretrain probe — the ci.sh
//! bench-smoke step uses both so the binary cannot silently rot.)

#![forbid(unsafe_code)]

use patternpaint_core::{
    ArtifactStore, Engine, Fault, FaultPlan, Fleet, FleetOptions, JobSet, JobSpec, MemStore,
    PipelineConfig, QosClass, RawSample, RetryPolicy, Sampler, ScheduledSampler, SchedulerOptions,
    SchedulerStats, Service, ServiceOptions, StreamOptions, TrainSpec, WeightedFair,
};
use pp_diffusion::DiffusionModel;
use pp_geometry::GrayImage;
use pp_inpaint::MaskSet;
use pp_nn::gemm;
use pp_pdk::SynthNode;
use serde_json::json;
use std::path::PathBuf;
use std::time::Instant;

const JOBS: usize = 64;

struct ModeResult {
    name: &'static str,
    seconds: f64,
    samples_per_sec: f64,
    ns_per_step: f64,
}

fn run_mode(
    name: &'static str,
    model: &DiffusionModel,
    jobs: &[(GrayImage, GrayImage)],
    threads: usize,
    batch_size: usize,
    naive: bool,
) -> ModeResult {
    gemm::set_force_naive(naive);
    // Warm up allocator pools and caches on a small prefix.
    let _ = model
        .sample_inpaint_batch_sized(&jobs[..threads.min(jobs.len())], 1, threads, batch_size)
        .expect("warmup jobs are well-formed");
    let t0 = Instant::now();
    let out = model
        .sample_inpaint_batch_sized(jobs, 42, threads, batch_size)
        .expect("jobs are well-formed");
    let seconds = t0.elapsed().as_secs_f64();
    gemm::set_force_naive(false);
    assert_eq!(out.len(), jobs.len());
    let steps = (jobs.len() * model.config().ddim_steps) as f64;
    ModeResult {
        name,
        seconds,
        samples_per_sec: jobs.len() as f64 / seconds,
        ns_per_step: seconds * 1e9 / steps,
    }
}

/// The pretrain-tiny probe, folded into the Service trainer: a
/// `JobSpec::train` over a tiny engine sized to the same total number
/// of optimiser steps the old direct `DiffusionModel::train` loop ran
/// (`total_steps`, split across 4 epochs). Returns (seconds, final
/// loss).
fn pretrain_probe(total_steps: usize) -> (f64, f32) {
    let engine = Engine::builder(SynthNode::small(), PipelineConfig::tiny())
        .seed(7)
        .untrained_engine()
        .expect("tiny config is valid");
    let store = std::sync::Arc::new(MemStore::new());
    let service = Service::new(
        &engine,
        ServiceOptions {
            threads: 2,
            store: Some(store as std::sync::Arc<dyn ArtifactStore>),
            ..Default::default()
        },
    );
    let epochs = 4u32;
    let spec = TrainSpec::new("bench-pretrain")
        .with_epochs(epochs)
        .with_steps_per_epoch(total_steps / epochs as usize)
        .with_batch(4)
        .with_lr(2e-3)
        .with_synth_corpus(32);
    let t0 = Instant::now();
    let outcome = service
        .submit(JobSpec::train(spec))
        .expect("train job admitted")
        .wait();
    let seconds = t0.elapsed().as_secs_f64();
    assert!(outcome.is_completed(), "pretrain probe outcome: {outcome}");
    let summary = outcome
        .into_report()
        .expect("completed carries a report")
        .train
        .expect("train jobs report a summary");
    (seconds, summary.final_loss)
}

/// `PP_BENCH_MODE=train_coexist`: the training-coexistence latency
/// gate. Runs the same burst of Interactive sampling jobs twice — solo,
/// and next to a long-running best-effort Train job — and compares the
/// Interactive first-dispatch wait p99 (`SchedulerStats`). The Train
/// driver parks between epochs whenever a higher class has queued
/// work, so the budget is tight: the coexist p99 must stay within
/// 1.5x of solo (after a small noise floor), else the process exits 1.
fn train_coexist(smoke: bool, jobs: usize) {
    /// Sub-floor waits are scheduler noise, not contention; measuring
    /// a ratio of two ~100µs numbers would be a coin flip.
    const FLOOR_MICROS: u64 = 500;
    const BUDGET: f64 = 1.5;
    let engine = Engine::builder(SynthNode::small(), PipelineConfig::tiny())
        .seed(3)
        .untrained_engine()
        .expect("tiny config is valid");
    let burst = |service: &Service| -> u64 {
        let handles: Vec<_> = (0..jobs)
            .map(|i| {
                service
                    .submit(
                        JobSpec::initial()
                            .with_budget(4)
                            .with_seed(60 + i as u64)
                            .with_class(QosClass::Interactive),
                    )
                    .expect("interactive job admitted")
            })
            .collect();
        for h in handles {
            let outcome = h.wait();
            assert!(outcome.is_completed(), "interactive outcome: {outcome}");
        }
        service
            .scheduler_stats()
            .wait_p99_micros_by_class
            .interactive
    };
    // Interleaved reps, min p99 per side: wall clock on a shared box
    // swings, and the gate should compare best-case against best-case.
    let reps = if smoke { 2 } else { 3 };
    let (mut solo_p99, mut coexist_p99) = (u64::MAX, u64::MAX);
    for _ in 0..reps {
        let solo = Service::new(
            &engine,
            ServiceOptions {
                threads: 2,
                ..Default::default()
            },
        );
        solo_p99 = solo_p99.min(burst(&solo));

        let store = std::sync::Arc::new(MemStore::new());
        let service = Service::new(
            &engine,
            ServiceOptions {
                threads: 2,
                store: Some(store as std::sync::Arc<dyn ArtifactStore>),
                ..Default::default()
            },
        );
        // Short epochs keep the park granularity fine; the epoch count
        // is sized to outlast the burst, then the job is cancelled.
        let train = service
            .submit(JobSpec::train(
                TrainSpec::new("coexist")
                    .with_epochs(100_000)
                    .with_steps_per_epoch(1)
                    .with_batch(2)
                    .with_synth_corpus(8),
            ))
            .expect("train job admitted");
        // Measure steady-state coexistence, not the trainer's one-time
        // dataset/prior preparation: wait for the first epoch to land
        // (progress is epoch-granular) before releasing the burst.
        while train.progress().completed == 0 {
            std::thread::yield_now();
        }
        coexist_p99 = coexist_p99.min(burst(&service));
        train.cancel();
        let _ = train.wait();
    }
    let ratio = coexist_p99.max(FLOOR_MICROS) as f64 / solo_p99.max(FLOOR_MICROS) as f64;
    println!(
        "train_coexist: interactive wait p99 solo = {:.2}ms, with train job = {:.2}ms \
         ({ratio:.2}x, budget {BUDGET:.1}x, floor {FLOOR_MICROS}us, {jobs} jobs x {reps} reps)",
        solo_p99 as f64 / 1e3,
        coexist_p99 as f64 / 1e3,
    );
    if ratio > BUDGET {
        eprintln!("train_coexist: FAILED — a co-resident train job may not cost interactive tenants more than {BUDGET:.1}x first-dispatch wait");
        std::process::exit(1);
    }
}

fn main() {
    let smoke = std::env::var("PP_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let jobs: usize = std::env::var("PP_BENCH_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(JOBS);
    if std::env::var("PP_BENCH_MODE").as_deref() == Ok("train_coexist") {
        train_coexist(smoke, jobs);
        return;
    }
    let node = SynthNode::default();
    let cfg = PipelineConfig::standard();
    let threads = cfg.threads;

    // 1. pretrain-tiny: training throughput through the GEMM kernels.
    //    Since the pp-train rework this routes through the Service
    //    trainer (JobSpec::train) instead of a bare DiffusionModel
    //    loop — same total number of optimiser steps, so the JSON
    //    series stays comparable; the timing now honestly includes
    //    the per-epoch checkpoint writes production training pays.
    let tiny_steps = if smoke { 20usize } else { 200 };
    let (pretrain_s, pretrain_loss) = pretrain_probe(tiny_steps);
    println!(
        "pretrain-tiny: {tiny_steps} steps in {pretrain_s:.3}s ({:.1} steps/s, final loss {:.4})",
        tiny_steps as f64 / pretrain_s,
        pretrain_loss
    );

    // 2. 64-job inpaint batch on the standard model (untrained weights:
    // runtime is architecture-bound, not weight-bound).
    let model = DiffusionModel::new(cfg.model, 0);
    let starters = node.starter_patterns();
    let masks = MaskSet::Default.masks(node.clip());
    let jobs: Vec<(GrayImage, GrayImage)> = (0..jobs)
        .map(|i| {
            (
                GrayImage::from_layout(&starters[i % starters.len()]),
                masks[i % masks.len()].as_image().clone(),
            )
        })
        .collect();

    // One engine snapshot (same weights: seed 0) serves both the
    // engine_sched and qos_sched modes.
    let engine = Engine::builder(node.clone(), cfg)
        .seed(0)
        .untrained_engine()
        .expect("standard config is valid");

    // Every ratio-guarded mode (batched onward) runs a few times and
    // keeps its fastest run: wall clock on a shared box swings ±15%
    // in multi-second regimes, so a single shot of numerator or
    // denominator is a phase lottery that can push an honest ≈1.0
    // overhead ratio past the 5% bar in either direction. The reps are
    // *interleaved* — each round runs every guarded mode once — so a
    // fast regime that lasts a few seconds touches all of them, not
    // just whichever mode's back-to-back reps happened to land in it.
    let reps = if smoke { 1 } else { 4 };
    let fastest = |a: ModeResult, b: ModeResult| if b.seconds < a.seconds { b } else { a };
    // The bit-identity reference for engine_sched, computed once.
    let reference = model
        .sample_inpaint_batch_sized(&jobs, 42, threads, cfg.batch_size)
        .expect("jobs are well-formed");
    let naive_mode = run_mode("per_sample_naive", &model, &jobs, threads, 1, true);
    let per_gemm_mode = run_mode("per_sample_gemm", &model, &jobs, threads, 1, false);
    let run_batched = || {
        run_mode(
            "batched_gemm",
            &model,
            &jobs,
            threads,
            cfg.batch_size,
            false,
        )
    };
    // The engine-backed path: the same jobs through an Engine
    // scheduler, the dispatcher both shared sessions and solo
    // `DiffusionSampler` rounds stream through. Same weights (seed 0),
    // same per-job RNG streams, so outputs are bit-identical —
    // asserted against the blocking batch path.
    let run_engine = || {
        let scheduler = engine.scheduler(threads);
        let sampler = ScheduledSampler::new(scheduler.handle(), cfg.batch_size);
        let jobset = JobSet::cycle(&starters, &masks, jobs.len());
        let opts = StreamOptions::default();
        // Warm up worker U-Net pools like the other modes.
        let warm = JobSet::cycle(&starters, &masks, threads.min(jobs.len()));
        let _ = sampler.sample(&warm, 1).expect("warmup jobs run");
        let t0 = Instant::now();
        let out: Vec<RawSample> = sampler
            .sample_stream(&jobset, 42, &opts)
            .expect("jobs are well-formed")
            .collect::<Result<_, _>>()
            .expect("scheduler stream yields no errors");
        let seconds = t0.elapsed().as_secs_f64();
        assert_eq!(out.len(), jobs.len());
        for (r, b) in out.iter().zip(&reference) {
            assert_eq!(
                &r.raw, b,
                "engine-scheduled output diverged from batch path"
            );
        }
        let steps = (jobs.len() * cfg.model.ddim_steps) as f64;
        ModeResult {
            name: "engine_sched",
            seconds,
            samples_per_sec: jobs.len() as f64 / seconds,
            ns_per_step: seconds * 1e9 / steps,
        }
    };

    // The QoS front door: the same job count split across two tenants
    // in different classes, submitted declaratively and interleaved by
    // the WeightedFair policy. Timed to the last terminal JobOutcome
    // (this path includes the round tail — denoise + DRC + admission —
    // which is orders of magnitude faster than sampling).
    let run_qos = || {
        let service = Service::new(
            &engine,
            ServiceOptions {
                threads,
                scheduler: SchedulerOptions::new().policy(WeightedFair),
                ..Default::default()
            },
        );
        let request = |n: usize, seed: u64| {
            patternpaint_core::GenerationRequest::new(JobSet::cycle(&starters, &masks, n), seed)
        };
        // Warm up worker U-Net pools like the other modes.
        service
            .submit(JobSpec::raw(request(threads.min(jobs.len()), 1)))
            .expect("warmup job admitted")
            .wait()
            .into_report()
            .expect("warmup job completes");
        let interactive_jobs = jobs.len() / 2;
        let batch_jobs = jobs.len() - interactive_jobs;
        let t0 = Instant::now();
        let a = service
            .submit(JobSpec::raw(request(interactive_jobs, 42)).with_class(QosClass::Interactive))
            .expect("interactive tenant admitted");
        let b = service
            .submit(JobSpec::raw(request(batch_jobs, 43)).with_class(QosClass::Batch))
            .expect("batch tenant admitted");
        let (ra, rb) = (a.wait(), b.wait());
        let seconds = t0.elapsed().as_secs_f64();
        let generated = [&ra, &rb]
            .iter()
            .map(|o| o.report().expect("tenant completes").generated)
            .sum::<usize>();
        assert_eq!(generated, jobs.len(), "every tenant sample must arrive");
        let stats = service.scheduler_stats();
        let steps = (jobs.len() * cfg.model.ddim_steps) as f64;
        (
            ModeResult {
                name: "qos_sched",
                seconds,
                samples_per_sec: jobs.len() as f64 / seconds,
                ns_per_step: seconds * 1e9 / steps,
            },
            stats,
        )
    };
    // The supervision-overhead guard: the same full job batch as a
    // clean Interactive tenant while a one-job BestEffort tenant
    // absorbs an injected worker panic and retries. Only the clean
    // tenant is timed; the faulted tenant's real work (one sample,
    // since the panic fires before any DDIM compute) is what bounds
    // the interference. Supervision — catch_unwind isolation,
    // poison-safe locks, the fault hook's single branch — must cost
    // ~nothing on this happy path.
    let run_faulted = || {
        // Sessions are allocated in submit order: warmup = 1,
        // clean = 2, faulted = 3.
        let service = Service::new(
            &engine,
            ServiceOptions {
                threads,
                scheduler: SchedulerOptions::new()
                    .policy(WeightedFair)
                    .faults(FaultPlan::new().inject(3, Fault::PanicAt { batch: 0 })),
                ..Default::default()
            },
        );
        let request = |n: usize, seed: u64| {
            patternpaint_core::GenerationRequest::new(JobSet::cycle(&starters, &masks, n), seed)
        };
        // Warm up worker U-Net pools like the other modes.
        service
            .submit(JobSpec::raw(request(threads.min(jobs.len()), 1)))
            .expect("warmup job admitted")
            .wait()
            .into_report()
            .expect("warmup job completes");
        let t0 = Instant::now();
        let clean = service
            .submit(JobSpec::raw(request(jobs.len(), 42)).with_class(QosClass::Interactive))
            .expect("clean tenant admitted");
        let faulted = service
            .submit(
                JobSpec::raw(request(1, 43))
                    .with_class(QosClass::BestEffort)
                    .with_retry(RetryPolicy::new(2, std::time::Duration::from_millis(1))),
            )
            .expect("faulted tenant admitted");
        let clean_outcome = clean.wait();
        let seconds = t0.elapsed().as_secs_f64();
        let clean_report = clean_outcome
            .into_report()
            .expect("clean tenant completes despite the neighbouring panic");
        assert_eq!(clean_report.generated, jobs.len());
        assert_eq!(clean_report.attempts, 1, "the clean tenant never retried");
        let faulted_report = faulted
            .wait()
            .into_report()
            .expect("faulted tenant retries to completion");
        assert_eq!(
            faulted_report.attempts, 2,
            "the injected panic forced exactly one retry"
        );
        let retries = service.stats().retries;
        let stats = service.scheduler_stats();
        assert_eq!(stats.worker_panics, 1, "the one injected panic was caught");
        assert_eq!(stats.workers_lost, 0, "the panic never escaped the batch");
        let steps = (jobs.len() * cfg.model.ddim_steps) as f64;
        (
            ModeResult {
                name: "faulted_clean",
                seconds,
                samples_per_sec: jobs.len() as f64 / seconds,
                ns_per_step: seconds * 1e9 / steps,
            },
            stats,
            retries,
        )
    };
    // Interleaved best-of-N: round r runs batched, engine_sched,
    // qos_sched and faulted_clean once each, and each
    // mode keeps its fastest round — so every mode's best sampled the
    // same noise regimes as the `batched` denominator it is guarded
    // against.
    let mut batched_mode = run_batched();
    let mut engine_mode = run_engine();
    let mut qos_best = run_qos();
    let mut faulted_best = run_faulted();
    // Per-round seconds for [batched, engine, qos, faulted]:
    // the overhead guards are computed as *paired* ratios within a
    // round (median across rounds), so both sides of each ratio saw
    // the same few seconds of box weather. Ratio-of-global-bests is
    // not regime-safe: one anomalously fast batched rep sinks every
    // guard at once even when each mode's own best is honest.
    let mut rounds = vec![[
        batched_mode.seconds,
        engine_mode.seconds,
        qos_best.0.seconds,
        faulted_best.0.seconds,
    ]];
    for _ in 1..reps {
        let b = run_batched();
        let e = run_engine();
        let q = run_qos();
        let f = run_faulted();
        rounds.push([b.seconds, e.seconds, q.0.seconds, f.0.seconds]);
        batched_mode = fastest(batched_mode, b);
        engine_mode = fastest(engine_mode, e);
        if q.0.seconds < qos_best.0.seconds {
            qos_best = q;
        }
        if f.0.seconds < faulted_best.0.seconds {
            faulted_best = f;
        }
    }
    let paired_ratio = |idx: usize| -> f64 {
        let mut rs: Vec<f64> = rounds.iter().map(|r| r[0] / r[idx]).collect();
        rs.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
        let n = rs.len();
        if n % 2 == 1 {
            rs[n / 2]
        } else {
            0.5 * (rs[n / 2 - 1] + rs[n / 2])
        }
    };
    let engine_ratio = paired_ratio(1);
    let qos_ratio = paired_ratio(2);
    let faulted_ratio = paired_ratio(3);
    let (qos_mode, qos_stats) = qos_best;
    let (faulted_mode, faulted_stats, faulted_retries) = faulted_best;
    let modes: Vec<ModeResult> = vec![
        naive_mode,
        per_gemm_mode,
        batched_mode,
        engine_mode,
        qos_mode,
        faulted_mode,
    ];

    // The continuous-batching workload: a mixed-width multi-tenant
    // flood with Interactive tenants arriving mid-flight, on fresh
    // services over the same engine. The flood's shape exercises both
    // things continuous admission is for:
    //
    //  * four *narrow* Batch tenants (width 1, the per-tenant-latency
    //    optimum) — continuous admission packs their samples into
    //    shared passes instead of 1-wide ones (samples/s);
    //  * two *wide* BestEffort tenants (width 8) — continuous admission
    //    drip-admits them a few slots at a time into whatever is free,
    //    keeping slot retirements frequent, and the next retirement is
    //    offered to the highest-ranked arrival (Interactive wait p99).
    //
    // One worker, deliberately: a single pool makes admission the only
    // thing shaping the passes.
    struct MixedRun {
        seconds: f64,
        samples: usize,
        stats: SchedulerStats,
    }
    let mixed_once = || -> MixedRun {
        let service = Service::new(
            &engine,
            ServiceOptions {
                threads: 1,
                scheduler: SchedulerOptions::new()
                    .policy(WeightedFair)
                    .slot_capacity(6),
                ..Default::default()
            },
        );
        let mut narrow = cfg;
        narrow.batch_size = 1;
        let mut wide = cfg;
        wide.batch_size = 8;
        let request = |n: usize, seed: u64| {
            patternpaint_core::GenerationRequest::new(JobSet::cycle(&starters, &masks, n), seed)
        };
        let tenant =
            |n: usize, seed: u64, c: PipelineConfig| JobSpec::raw(request(n, seed)).with_config(c);
        // Warm up the worker U-Net pool like the other modes.
        service
            .submit(tenant(1, 1, narrow))
            .expect("warmup job admitted")
            .wait()
            .into_report()
            .expect("warmup job completes");
        let batch_jobs = (jobs.len() / 8).max(2);
        let interactive_jobs = (jobs.len() / 16).max(2);
        // Spaced so arrivals land in the flood's steady state
        // (staggered slot completions), not in the aligned cold-start
        // cohort of a freshly filled table.
        let stagger = std::time::Duration::from_millis(if smoke { 1 } else { 150 });
        // The narrow tenants ramp in a few step-times apart. Submitted
        // back-to-back they would all be admitted at the *same* step
        // boundary of a cold table, and with uniform job lengths that
        // cohort alignment self-perpetuates: slots retire in bunches a
        // full job-duration apart and a mid-epoch arrival waits the
        // whole epoch. Ramped in, each slot keeps its own phase and
        // one frees every few steps — the steady state continuous
        // batching is meant to serve arrivals into.
        let ramp = std::time::Duration::from_millis(if smoke { 1 } else { 25 });
        let t0 = Instant::now();
        let mut handles = Vec::new();
        for i in 0..4u64 {
            handles.push(
                service
                    .submit(tenant(batch_jobs, 50 + i, narrow).with_class(QosClass::Batch))
                    .expect("steady narrow tenant admitted"),
            );
            std::thread::sleep(ramp);
        }
        for w in 0..2u64 {
            handles.push(
                service
                    .submit(tenant(batch_jobs, 55 + w, wide).with_class(QosClass::BestEffort))
                    .expect("steady wide tenant admitted"),
            );
        }
        // Interactive tenants arrive mid-flight, staggered.
        for k in 0..4u64 {
            std::thread::sleep(stagger);
            handles.push(
                service
                    .submit(
                        tenant(interactive_jobs, 60 + k, narrow).with_class(QosClass::Interactive),
                    )
                    .expect("interactive tenant admitted"),
            );
        }
        let samples = handles
            .into_iter()
            .map(|h| {
                h.wait()
                    .into_report()
                    .expect("mixed tenant completes")
                    .generated
            })
            .sum::<usize>();
        let seconds = t0.elapsed().as_secs_f64();
        MixedRun {
            seconds,
            samples,
            stats: service.scheduler_stats(),
        }
    };
    // Wall clock on a shared box swings ±15% between runs, and the
    // wait percentiles of any single run are a phase lottery (whether
    // an arrival lands just before or just after a refill). So each
    // metric gets the estimator that suits it: throughput from the
    // fastest of N runs, wait percentiles as the median of the per-run
    // percentiles.
    let summarize = |runs: Vec<MixedRun>| -> MixedRun {
        let median_wait = |f: &dyn Fn(&MixedRun) -> u64| -> u64 {
            let mut v: Vec<u64> = runs.iter().map(f).collect();
            v.sort_unstable();
            v[v.len() / 2]
        };
        let p50_int = median_wait(&|r| r.stats.wait_p50_micros_by_class.interactive);
        let p99_int = median_wait(&|r| r.stats.wait_p99_micros_by_class.interactive);
        let mut best = runs
            .into_iter()
            .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
            .expect("at least one run");
        best.stats.wait_p50_micros_by_class.interactive = p50_int;
        best.stats.wait_p99_micros_by_class.interactive = p99_int;
        best
    };
    let mixed_cont = summarize(
        (0..if smoke { 1 } else { 4 })
            .map(|_| mixed_once())
            .collect(),
    );

    // 3. pp-fleet replica scaling, N ∈ {1, 2, 4}. The host is a single
    // vCPU, so N replicas of a CPU-bound forward pass cannot scale —
    // their computes serialise on the one core. What a fleet *does*
    // overlap on any host is the off-CPU part of a job: the remote
    // accelerator round trip. This mode models that explicitly with
    // `FaultPlan::stall_all` — every slot admission sleeps a fixed
    // off-CPU interval on its replica's worker thread before the
    // (cheap, tiny-model) on-CPU compute. One replica serialises
    // stall + compute per job; N replicas sleep concurrently, so the
    // sweep measures exactly what the router adds or saves — not
    // kernel throughput. Width-1 jobs on a one-slot table keep the
    // per-job admission count fixed across N. The honest caveat,
    // recorded in PERF.md: the ≥1.7× N=2 ratio below validates the
    // *router* (distribution, stealing, per-replica queues overlap
    // independent off-CPU waits); it says nothing about scaling
    // on-CPU kernels across replicas on one core.
    let fleet_jobs = if smoke { 8usize } else { 32 };
    // ~14ms off-CPU per job vs ~1.5ms on-CPU (tiny model + round
    // tail): the off-CPU share must dominate for replica overlap to
    // show through on one core — with stall s and compute c, perfect
    // overlap yields (s+c)/(s/2+c) at N=2, so s ≈ 9c predicts ~1.8×
    // before router overhead.
    let fleet_stall = std::time::Duration::from_millis(14);
    let fleet_node = SynthNode::small();
    let fleet_cfg = PipelineConfig::tiny();
    let fleet_engine = Engine::builder(fleet_node.clone(), fleet_cfg)
        .seed(0)
        .untrained_engine()
        .expect("tiny config is valid");
    let fleet_masks = MaskSet::Default.masks(fleet_node.clip());
    struct FleetRun {
        replicas: usize,
        seconds: f64,
        samples_per_sec: f64,
        steals: u64,
    }
    let fleet_once = |n: usize| -> FleetRun {
        let fleet = Fleet::replicate(
            &fleet_engine,
            FleetOptions::new()
                .with_replicas(n)
                .scheduler_factory(move |_| {
                    SchedulerOptions::new()
                        .slot_capacity(1)
                        .faults(FaultPlan::new().stall_all(fleet_stall))
                }),
        );
        let request = |seed: u64| {
            patternpaint_core::GenerationRequest::new(
                JobSet::cycle(fleet_engine.starters(), &fleet_masks, 1),
                seed,
            )
        };
        // Warm every replica's U-Net pool before the clock starts.
        let warm: Vec<_> = (0..n)
            .map(|i| {
                fleet
                    .submit(JobSpec::raw(request(1)).with_placement(i as u64))
                    .expect("warmup job admitted")
            })
            .collect();
        for h in warm {
            h.wait().into_report().expect("warmup job completes");
        }
        let t0 = Instant::now();
        let handles: Vec<_> = (0..fleet_jobs)
            .map(|i| {
                let seed = 100 + i as u64;
                fleet
                    .submit(JobSpec::raw(request(seed)).with_seed(seed))
                    .expect("fleet job admitted")
            })
            .collect();
        let generated: usize = handles
            .into_iter()
            .map(|h| {
                h.wait()
                    .into_report()
                    .expect("fleet job completes")
                    .generated
            })
            .sum();
        let seconds = t0.elapsed().as_secs_f64();
        assert_eq!(generated, fleet_jobs, "every fleet sample must arrive");
        FleetRun {
            replicas: n,
            seconds,
            samples_per_sec: fleet_jobs as f64 / seconds,
            steals: fleet.stats().steals,
        }
    };
    // Interleaved best-of-N with a paired N=2/N=1 ratio, same
    // reasoning as the overhead guards above.
    let fleet_ns: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    let fleet_reps = if smoke { 1 } else { 3 };
    let mut fleet_best: Vec<FleetRun> = fleet_ns.iter().map(|&n| fleet_once(n)).collect();
    let mut fleet_rounds: Vec<Vec<f64>> = vec![fleet_best.iter().map(|r| r.seconds).collect()];
    for _ in 1..fleet_reps {
        let round: Vec<FleetRun> = fleet_ns.iter().map(|&n| fleet_once(n)).collect();
        fleet_rounds.push(round.iter().map(|r| r.seconds).collect());
        for (best, run) in fleet_best.iter_mut().zip(round) {
            if run.seconds < best.seconds {
                *best = run;
            }
        }
    }
    let fleet_n2_ratio = {
        // Median of per-round (N=1 seconds / N=2 seconds): the
        // aggregate-throughput scaling factor, regime-paired.
        let mut rs: Vec<f64> = fleet_rounds.iter().map(|r| r[0] / r[1]).collect();
        rs.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
        let n = rs.len();
        if n % 2 == 1 {
            rs[n / 2]
        } else {
            0.5 * (rs[n / 2 - 1] + rs[n / 2])
        }
    };

    println!();
    println!(
        "{:<18} {:>10} {:>14} {:>14}",
        "mode", "total (s)", "samples/sec", "ns/step"
    );
    for m in &modes {
        println!(
            "{:<18} {:>10.3} {:>14.2} {:>14.0}",
            m.name, m.seconds, m.samples_per_sec, m.ns_per_step
        );
    }
    let speedup = modes[2].samples_per_sec / modes[0].samples_per_sec;
    let faulted_vs_qos = faulted_ratio / qos_ratio;
    println!();
    println!("batched_gemm vs per_sample_naive (pre-rework path): {speedup:.2}x");
    println!("engine_sched vs batched_gemm (shared-scheduler overhead): {engine_ratio:.2}x");
    println!("qos_sched vs batched_gemm (front door + policy + tail overhead): {qos_ratio:.2}x");
    println!(
        "faulted_clean vs batched_gemm (supervision + neighbouring fault overhead): \
         {faulted_ratio:.2}x"
    );
    println!(
        "faulted_clean scheduler stats: worker_panics={} workers_lost={} retries={}",
        faulted_stats.worker_panics, faulted_stats.workers_lost, faulted_retries
    );
    println!();
    println!(
        "qos_sched scheduler stats: policy={} micro_batches={} wait={:.1}ms turnaround={:.1}ms",
        qos_stats.policy,
        qos_stats.micro_batches,
        qos_stats.wait_micros as f64 / 1e3,
        qos_stats.turnaround_micros as f64 / 1e3,
    );
    for s in &qos_stats.per_session {
        println!(
            "  session {} [{}]: {} micro-batches, {} samples",
            s.session, s.class, s.micro_batches, s.samples
        );
    }
    println!();
    println!(
        "mixed_tenants: {} samples in {:.3}s ({:.2} samples/s); \
         interactive wait p50/p99 = {:.1}/{:.1} ms; \
         slots filled/idle = {}/{}; merged passes = {}",
        mixed_cont.samples,
        mixed_cont.seconds,
        mixed_cont.samples as f64 / mixed_cont.seconds,
        mixed_cont.stats.wait_p50_micros_by_class.interactive as f64 / 1e3,
        mixed_cont.stats.wait_p99_micros_by_class.interactive as f64 / 1e3,
        mixed_cont.stats.slots_filled,
        mixed_cont.stats.slots_idle,
        mixed_cont.stats.batches_merged,
    );
    println!();
    for r in &fleet_best {
        println!(
            "replicas [N={}]: {} jobs in {:.3}s ({:.2} samples/s; {} steals; \
             {:.0}ms modelled off-CPU stall per job)",
            r.replicas,
            fleet_jobs,
            r.seconds,
            r.samples_per_sec,
            r.steals,
            fleet_stall.as_secs_f64() * 1e3,
        );
    }
    println!("replicas N=2 vs N=1: {fleet_n2_ratio:.2}x aggregate samples/s");

    let mode_rows: Vec<serde_json::Value> = modes
        .iter()
        .map(|m| {
            json!({
                "name": m.name,
                "seconds": m.seconds,
                "samples_per_sec": m.samples_per_sec,
                "ns_per_step": m.ns_per_step,
            })
        })
        .collect();
    let config = json!({
        "image": cfg.model.image as usize,
        "base_ch": cfg.model.base_ch,
        "ddim_steps": cfg.model.ddim_steps,
        "jobs": jobs.len(),
        "threads": threads,
        "batch_size": cfg.batch_size,
    });
    let pretrain = json!({
        "steps": tiny_steps,
        "seconds": pretrain_s,
        "steps_per_sec": tiny_steps as f64 / pretrain_s,
    });
    let qos_sessions: Vec<serde_json::Value> = qos_stats
        .per_session
        .iter()
        .map(|s| {
            json!({
                "session": s.session,
                "class": s.class.to_string(),
                "micro_batches": s.micro_batches,
                "samples": s.samples,
            })
        })
        .collect();
    let qos_stats_row = json!({
        "policy": qos_stats.policy,
        "micro_batches": qos_stats.micro_batches,
        "samples": qos_stats.samples,
        "wait_micros": qos_stats.wait_micros,
        "turnaround_micros": qos_stats.turnaround_micros,
        "per_session": qos_sessions,
    });
    let mixed_row = |r: &MixedRun| {
        let class_row = |c: &patternpaint_core::ClassCounts| {
            json!({
                "interactive": c.interactive,
                "batch": c.batch,
                "best_effort": c.best_effort,
            })
        };
        json!({
            "seconds": r.seconds,
            "samples": r.samples,
            "samples_per_sec": r.samples as f64 / r.seconds,
            "wait_p50_micros_by_class": class_row(&r.stats.wait_p50_micros_by_class),
            "wait_p99_micros_by_class": class_row(&r.stats.wait_p99_micros_by_class),
            "slots_filled": r.stats.slots_filled,
            "slots_idle": r.stats.slots_idle,
            "batches_merged": r.stats.batches_merged,
            "micro_batches": r.stats.micro_batches,
        })
    };
    let out = json!({
        "benchmark": "sampling",
        "config": config,
        "pretrain_tiny": pretrain,
        "modes": mode_rows,
        "speedup_batched_vs_per_sample_naive": speedup,
        "engine_sched_vs_batched": engine_ratio,
        "qos_sched_vs_batched": qos_ratio,
        "qos_sched_stats": qos_stats_row,
        "faulted_clean_vs_batched": faulted_ratio,
        "faulted_clean_vs_qos_sched": faulted_vs_qos,
        "faulted_stats": json!({
            "worker_panics": faulted_stats.worker_panics,
            "workers_lost": faulted_stats.workers_lost,
            "retries": faulted_retries,
        }),
        "mixed_tenants": json!({
            "continuous": mixed_row(&mixed_cont),
        }),
        "fleet_replicas": json!({
            "jobs": fleet_jobs,
            "stall_ms": fleet_stall.as_secs_f64() * 1e3,
            "sweep": fleet_best.iter().map(|r| json!({
                "replicas": r.replicas,
                "seconds": r.seconds,
                "samples_per_sec": r.samples_per_sec,
                "steals": r.steals,
            })).collect::<Vec<_>>(),
            "n2_vs_n1_samples_per_sec": fleet_n2_ratio,
        }),
    });
    if smoke {
        println!("smoke mode: skipping BENCH_sampling.json");
        return;
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sampling.json");
    match serde_json::to_string_pretty(&out) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("failed to write {}: {e}", path.display());
            } else {
                println!("wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("failed to serialise: {e}"),
    }
}
