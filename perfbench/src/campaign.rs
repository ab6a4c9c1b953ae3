//! `campaign`: one engineer bringing up a node, closed loop (the
//! paper's Figure 4 flow on the solo `DiffusionSampler` path).
//!
//! Set-up opens the foundation checkpoint and few-shot finetunes it on
//! the 20 starters. The measured phase is one session's initial
//! generation plus iterative rounds with standard-preset shaping; no
//! scheduler or service code runs.

use crate::prep::bench_config;
use crate::report::{median, percentile, Metrics, ProcMonitor};
use crate::trace::{
    tail_metrics, TailCounts, TracedDenoiser, TracedSampler, TracedSelector, TracedStore,
    TracedValidator, Tracer,
};
use crate::{alloc_count, Ctx, Outputs, Run};
use patternpaint_core::{
    ArtifactStore, DiffusionSampler, DirStore, DrcValidator, Engine, PatternPaint, PipelineBuilder,
    StreamOptions,
};
use pp_inpaint::TemplateDenoiser;
use pp_selection::PcaSelector;
use std::error::Error;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Samples per second the measured phase is sized for, so a run takes
/// about `--seconds` on a 2-vCPU x86-64 host.
const NOMINAL_SAMPLES_PER_S: f64 = 80.0;

/// Iterative rounds after the initial one, sized from `seconds`.
fn iterations(seconds: u64) -> usize {
    let cfg = bench_config();
    let initial = 20 * 10 * cfg.variations;
    let target = seconds as f64 * NOMINAL_SAMPLES_PER_S;
    ((target - initial as f64) / cfg.samples_per_iteration as f64)
        .round()
        .max(1.0) as usize
}

/// The finetuned engine rebuilt around traced stages: the same solo
/// `DiffusionSampler` the engine would build, the default denoiser and
/// validator, and the default selector with the session's seed.
fn traced_engine(
    engine: &Engine,
    tracer: &Arc<Tracer>,
    counts: &Arc<TailCounts>,
    session_seed: u64,
) -> Result<Engine, Box<dyn Error>> {
    let cfg = *engine.config();
    let model = Arc::new(engine.model().clone());
    let engine = PipelineBuilder::new(engine.node().clone(), cfg)
        .seed(engine.seed())
        .sampler(TracedSampler {
            inner: DiffusionSampler::from_arc(model, cfg.threads, cfg.batch_size),
            tracer: Arc::clone(tracer),
        })
        .denoiser(TracedDenoiser {
            inner: TemplateDenoiser::new(cfg.denoise_threshold),
            tracer: Arc::clone(tracer),
        })
        .validator(TracedValidator {
            inner: DrcValidator::new(engine.node().rules().clone()),
            tracer: Arc::clone(tracer),
            counts: Arc::clone(counts),
        })
        .selector(TracedSelector {
            // Engine sessions seed their default selector this way.
            inner: PcaSelector::try_new(cfg.pca_explained, cfg.max_density, session_seed ^ 0x5e1e)?,
            tracer: Arc::clone(tracer),
        })
        .untrained_engine()?
        .with_model(engine.model().clone())?;
    Ok(engine)
}

/// One set-up: open the foundation checkpoint and few-shot finetune it.
/// Returns the finetuned engine, the finetune's final loss, and the
/// open and finetune durations in seconds.
fn set_up(store: &dyn ArtifactStore) -> Result<(Engine, f32, [f64; 2]), Box<dyn Error>> {
    let t0 = Instant::now();
    let foundation = Engine::open(store)?;
    let t1 = Instant::now();
    let mut pp = PatternPaint::from_engine(foundation);
    let report = pp.finetune()?;
    let phases = [t1 - t0, t1.elapsed()].map(|d| d.as_secs_f64());
    Ok((pp.into_engine(), report.final_loss, phases))
}

pub fn run(ctx: &Ctx, tracer: Option<&Arc<Tracer>>, setups: usize) -> Result<Run, Box<dyn Error>> {
    let mut m = Metrics::default();
    let dir = DirStore::open(&ctx.models.foundation)?;
    let store: Box<dyn ArtifactStore> = match tracer {
        Some(t) => Box::new(TracedStore::new(dir, Arc::clone(t))),
        None => Box::new(dir),
    };
    let (engine, train_loss, first) = set_up(&*store)?;

    let counts = Arc::new(TailCounts::default());
    let engine = match tracer {
        Some(t) => traced_engine(&engine, t, &counts, ctx.seed)?,
        None => engine,
    };
    // The session's progress hook fires as each micro-batch leaves the
    // sampler stream for the round tail: `(when, samples so far)`.
    let arrivals: Arc<Mutex<Vec<(Instant, usize)>>> = Arc::default();
    let hook = Arc::clone(&arrivals);
    let opts = StreamOptions::default().with_progress(move |p| {
        hook.lock()
            .expect("arrival log poisoned")
            .push((Instant::now(), p.completed));
    });
    let mut session = engine.session_seeded(ctx.seed).with_options(opts);

    let rounds = 1 + iterations(ctx.seconds);
    let monitor = ProcMonitor::start();
    if tracer.is_some() {
        alloc_count::start();
    }
    let since = tracer.map_or(0, |t| t.now());
    let start = Instant::now();
    let mut errors = Vec::new();
    // One latency per sample: from the start of its round to its
    // micro-batch reaching the round tail. Each round's percentiles
    // come from its own 200 samples, and the run reports their median
    // over rounds: a pooled high percentile would be set by the one
    // slowest round, so by the host's slowest few seconds.
    let (mut round_p50, mut round_p95) = (Vec::new(), Vec::new());
    let mut samples_timed = 0;
    let mut completed = 0;
    for round in 0..rounds {
        let _span = tracer.map(|t| t.job_span("campaign.round", round as u64));
        let t = Instant::now();
        let before = session.generated_total();
        let ran = if round == 0 {
            session.initial_generation()?;
            true
        } else {
            session.iterate(1)?.len() == 1
        };
        let (mut latencies, mut done) = (Vec::new(), 0);
        for (at, so_far) in arrivals.lock().expect("arrival log poisoned").drain(..) {
            let ms = at.duration_since(t).as_secs_f64() * 1e3;
            latencies.resize(latencies.len() + so_far - done, ms);
            done = so_far;
        }
        round_p50.push(median(&latencies));
        round_p95.push(percentile(&latencies, 0.95));
        samples_timed += latencies.len();
        if done != session.generated_total() - before {
            errors.push(format!(
                "round {round}: the stream reported {done} of {} samples",
                session.generated_total() - before
            ));
        }
        completed += usize::from(ran);
        if round == 0 {
            // The starters join the library before the first selection,
            // as in an iterative job.
            session.seed_starters();
        }
    }
    let window = start.elapsed().as_secs_f64();
    let (allocs, alloc_bytes) = alloc_count::stop();
    let (rss_mb, threads) = monitor.finish();

    let generated = session.generated_total();
    let library = session.library();
    if completed != rounds {
        errors.push(format!("{completed} of {rounds} rounds completed"));
    }

    m.set("latency_p50_ms", median(&round_p50));
    m.set("latency_p95_ms", median(&round_p95));
    m.set("peak_rss_mb", rss_mb);
    m.set("service.threads_peak", threads as f64);
    m.set("loadgen.jobs", samples_timed as f64);

    if let Some(t) = tracer {
        let per = |name: &str| t.total(name, since);
        let samples = generated as f64;
        let (_, wait_ns) = per("diffusion.wait");
        let (select_n, select_ns) = per("selection.select");
        m.set(
            "diffusion.wait_ms_per_sample",
            wait_ns as f64 / 1e6 / samples,
        );
        m.set("alloc.per_sample", allocs as f64 / samples);
        m.set("alloc.bytes_per_sample", alloc_bytes as f64 / samples);
        m.set(
            "selection.select_ms",
            select_ns as f64 / 1e6 / select_n.max(1) as f64,
        );
        m.set("selection.share", select_ns as f64 / 1e9 / window);
        let legal = session.legal_total();
        tail_metrics(&mut m, t, &counts, since, window, library.len(), legal);
    }

    // The other set-ups run after the measured phase, so their median
    // samples the host at both ends of the run.
    let mut phases = vec![first];
    for _ in 1..setups {
        let (_, loss, p) = set_up(&*store)?;
        if loss.to_bits() != train_loss.to_bits() {
            errors.push(format!(
                "set-ups finetuned to losses {loss} and {train_loss}"
            ));
        }
        phases.push(p);
    }
    let phase = |i: usize| phases.iter().map(|p| p[i]).collect::<Vec<_>>();
    m.set(
        "setup_s",
        median(&phases.iter().map(|p| p[0] + p[1]).collect::<Vec<_>>()),
    );
    m.set("setup.open_ms", median(&phase(0)) * 1e3);
    m.set("setup.finetune_s", median(&phase(1)));

    Ok(Run {
        metrics: m,
        outputs: Outputs {
            legal_rate: session.legal_total() as f64 / generated as f64,
            unique_patterns: library.len(),
            h2: library.stats().h2,
            train_loss: Some(train_loss),
        },
        throughput: generated as f64 / window,
        attempted: rounds,
        failed: rounds - completed,
        errors,
    })
}
