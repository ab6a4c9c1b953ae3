//! The end-to-end round-tail trajectory benchmark.
//!
//! PR 1/2 made the sampler fast; a round is sample → denoise → DRC →
//! dedupe → select, and this benchmark times everything *after* the
//! sample stream plus the PCA selection fit. A cheap deterministic
//! jitter sampler stands in for the diffusion model so the tail
//! dominates wall clock (the "validator-heavy" regime: thousands of
//! clips through median-filter denoising, squish, signature and
//! sign-off DRC).
//!
//! Modes:
//!
//! * `serial_tail_naive` — the pre-rework tail as a loop in this file
//!   over the same replayed raws through the public stage calls:
//!   `denoise_sample` (denoise to raster), `is_legal` (re-squish for
//!   DRC), then `PatternLibrary::insert` (re-squish again), serial.
//!   The baseline.
//! * `serial_tail_fused` — the reworked single-squish tail (canonical
//!   squish straight from the denoiser, squish-space DRC, signature
//!   reuse, lazy rasterisation), still serial.
//! * `parallel_tail_2` / `parallel_tail_4` — the same fused tail fanned
//!   out over 2/4 tail workers with in-order admission.
//!
//! The fused modes run as an `Engine` session (sampler override = the
//! replay sampler), i.e. through the same code path a multi-tenant
//! service drives.
//!
//! Every mode must produce bit-identical libraries (asserted here).
//! The headline ratio `parallel_tail_vs_serial_tail` compares
//! `parallel_tail_4` against `serial_tail_naive` — per PERF.md, compare
//! ratios, not seconds. A `pca_fit` probe times the nested-loop
//! `Pca::fit_reference` against the GEMM `Pca::fit` on flattened 32×32
//! libraries of {200, 2000} patterns (the selection half of the
//! rework).
//!
//! Run: `cargo run --release -p pp-bench --bin round_bench`
//! (`PP_BENCH_JOBS=n` scales the round; `PP_BENCH_SMOKE=1` skips the
//! JSON write — the ci.sh bench-smoke step uses both.)

#![forbid(unsafe_code)]

use patternpaint_core::stages::{DrcValidator, PatternDenoiser, SampleStream, Sampler, Validator};
use patternpaint_core::{
    Engine, GenerationRequest, JobSet, PatternLibrary, PipelineConfig, PpError, RawSample,
    StreamOptions,
};
use pp_geometry::{GrayImage, Layout, Rect};
use pp_inpaint::{MaskSet, TemplateDenoiser};
use pp_pdk::SynthNode;
use pp_selection::Pca;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::path::PathBuf;
use std::time::Instant;

/// A deterministic stand-in for the diffusion sampler: echoes the
/// template with jittered edges, greyscale noise, and the occasional
/// fresh wire in the masked region — cheap enough that the round tail
/// dominates, noisy enough that the tail does its full job (snapping,
/// majority votes, DRC hits, duplicates and fresh patterns alike).
struct JitterSampler;

impl JitterSampler {
    fn raw_for(
        job: &(std::sync::Arc<Layout>, std::sync::Arc<pp_inpaint::Mask>),
        seed: u64,
    ) -> GrayImage {
        let (template, mask) = job;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut img = GrayImage::from_layout(template);
        // Jitter vertical edges by one pixel occasionally.
        for y in 0..template.height() {
            for x in 1..template.width() {
                if template.get(x, y) != template.get(x - 1, y) && rng.gen_bool(0.3) {
                    let v = img.get(x, y);
                    img.set(x - 1, y, v);
                }
            }
        }
        // Sometimes paint a fresh wire inside the masked region so the
        // round discovers genuinely new patterns.
        if rng.gen_bool(0.3) {
            let w = template.width();
            let x = rng.gen_range(0..w.saturating_sub(4).max(1));
            let wire = Rect::new(x, 2, 3, template.height() - 4);
            let mask_img = mask.as_image();
            for y in wire.y..wire.bottom().min(template.height()) {
                for x in wire.x..wire.right().min(w) {
                    if mask_img.get(x, y) >= 0.5 {
                        img.set(x, y, 1.0);
                    }
                }
            }
        }
        for p in img.as_pixels_mut() {
            *p += rng.gen_range(-0.3f32..0.3);
        }
        img
    }
}

impl Sampler for JitterSampler {
    fn name(&self) -> &str {
        "jitter"
    }

    fn sample(&self, jobs: &JobSet, seed: u64) -> Result<Vec<RawSample>, PpError> {
        Ok(jobs
            .jobs()
            .iter()
            .enumerate()
            .map(|(i, job)| RawSample {
                template: std::sync::Arc::clone(&job.0),
                raw: Self::raw_for(job, seed ^ i as u64),
            })
            .collect())
    }
}

/// Replays a pre-generated raw batch (a pointer-bump clone per sample),
/// so the timed loop measures the tail, not the synthetic sampler.
struct ReplaySampler {
    raws: Vec<RawSample>,
}

impl Sampler for ReplaySampler {
    fn name(&self) -> &str {
        "replay"
    }

    fn sample(&self, _jobs: &JobSet, _seed: u64) -> Result<Vec<RawSample>, PpError> {
        Ok(self.raws.clone())
    }

    fn sample_stream(
        &self,
        _jobs: &JobSet,
        _seed: u64,
        _opts: &StreamOptions,
    ) -> Result<SampleStream, PpError> {
        Ok(Box::new(self.raws.clone().into_iter().map(Ok)))
    }
}

struct ModeResult {
    name: &'static str,
    seconds: f64,
    samples_per_sec: f64,
    ns_per_sample: f64,
    library: PatternLibrary,
    counts: (usize, usize),
}

impl ModeResult {
    fn new(
        name: &'static str,
        seconds: f64,
        counts: (usize, usize),
        library: PatternLibrary,
    ) -> Self {
        let jobs = counts.0 as f64;
        ModeResult {
            name,
            seconds,
            samples_per_sec: jobs / seconds,
            ns_per_sample: seconds * 1e9 / jobs,
            library,
            counts,
        }
    }
}

/// Runs one timed round through an engine `Session` (the
/// engine-backed service path): the fused tail on `tail_threads`
/// workers.
fn run_mode(
    name: &'static str,
    engine: &Engine,
    request: &GenerationRequest,
    tail_threads: usize,
) -> ModeResult {
    let opts = StreamOptions::default().with_tail_threads(tail_threads);
    // Warm-up pass (allocator pools, page faults), then the timed run.
    let mut warm = engine.session().with_options(opts.clone());
    let _ = warm.run_request(request);
    let mut session = engine.session().with_options(opts);
    let t0 = Instant::now();
    let counts = session.run_request(request).expect("round runs");
    let seconds = t0.elapsed().as_secs_f64();
    ModeResult::new(name, seconds, counts, session.into_library())
}

/// Times the pre-rework tail over `raws` after one warm-up pass, like
/// [`run_mode`]: each sample denoised to a raster, judged by the raster
/// DRC, then inserted, so every admitted pattern is squished twice more.
fn run_naive_mode(
    raws: &[RawSample],
    denoiser: &dyn PatternDenoiser,
    validator: &dyn Validator,
) -> ModeResult {
    let tail = || {
        let mut library = PatternLibrary::new();
        let mut legal = 0;
        for sample in raws {
            let denoised = denoiser.denoise_sample(sample);
            if validator.is_legal(&denoised) {
                legal += 1;
                library.insert(denoised);
            }
        }
        ((raws.len(), legal), library)
    };
    let _ = tail();
    let t0 = Instant::now();
    let (counts, library) = tail();
    let seconds = t0.elapsed().as_secs_f64();
    ModeResult::new("serial_tail_naive", seconds, counts, library)
}

/// Synthetic wire-soup libraries for the PCA probe.
fn pca_library(n: usize, side: u32, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut l = Layout::new(side, side);
            for _ in 0..rng.gen_range(1..4) {
                let x = rng.gen_range(0..side - 3);
                let y = rng.gen_range(0..side / 2);
                let h = rng.gen_range(side / 4..side - y);
                l.fill_rect(Rect::new(x, y, 3, h));
            }
            l.iter().map(|b| if b { 1.0 } else { -1.0 }).collect()
        })
        .collect()
}

fn pca_probe(n: usize, side: u32) -> serde_json::Value {
    let data = pca_library(n, side, 0x9e37 + n as u64);
    // Match the selector's configuration: 90 % explained, 32 components.
    let t0 = Instant::now();
    let naive = Pca::fit_reference(&data, 0.9, 32, 7);
    let naive_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let fast = Pca::fit(&data, 0.9, 32, 7);
    let fast_s = t0.elapsed().as_secs_f64();
    if naive.n_components() != fast.n_components() {
        // Float reassociation near the explained-variance cut can
        // legitimately shift the kept count by one; report, don't die.
        eprintln!(
            "note: component count differs ({} reference vs {} gemm)",
            naive.n_components(),
            fast.n_components()
        );
    }
    println!(
        "pca_fit n={n:>5} d={:>5}: naive {naive_s:.3}s, gemm {fast_s:.3}s ({:.2}x)",
        (side * side),
        naive_s / fast_s
    );
    json!({
        "library": n,
        "dim": side * side,
        "components": fast.n_components(),
        "seconds_naive": naive_s,
        "seconds_gemm": fast_s,
        "speedup_gemm_vs_naive": naive_s / fast_s,
    })
}

fn main() {
    let smoke = std::env::var("PP_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let jobs_target: usize = std::env::var("PP_BENCH_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000);

    let node = SynthNode::default();
    let cfg = PipelineConfig::standard();

    // Starters × all ten masks × as many variations as it takes.
    let starters = node.starter_patterns();
    let masks: Vec<pp_inpaint::Mask> = MaskSet::ALL
        .iter()
        .flat_map(|s| s.masks(node.clip()))
        .collect();
    let variations = (jobs_target / (starters.len() * masks.len())).max(1);
    let request = GenerationRequest::fan_out(&starters, &masks, variations, 0x1217);
    let jobs = request.jobs().len();
    let raws = JitterSampler
        .sample(request.jobs(), request.seed())
        .expect("jitter sampler cannot fail");
    let denoiser = TemplateDenoiser::new(cfg.denoise_threshold);
    let validator = DrcValidator::new(node.rules().clone());
    // One shared engine snapshot serves every fused mode, with the
    // replay sampler standing in for the diffusion stage.
    let engine = Engine::builder(node.clone(), cfg)
        .sampler(ReplaySampler { raws: raws.clone() })
        .denoiser(denoiser)
        .validator(validator.clone())
        .untrained_engine()
        .expect("standard config is valid");

    #[rustfmt::skip]
    let modes = [
        run_naive_mode(&raws, &denoiser, &validator),
        run_mode("serial_tail_fused", &engine, &request, 0),
        run_mode("parallel_tail_2", &engine, &request, 2),
        run_mode("parallel_tail_4", &engine, &request, 4),
    ];

    // The whole point of the in-order admitter: every mode's library is
    // bit-identical. A benchmark that quietly diverged would be
    // measuring different work.
    for m in &modes[1..] {
        assert_eq!(m.counts, modes[0].counts, "{} counts diverged", m.name);
        assert_eq!(
            m.library.patterns(),
            modes[0].library.patterns(),
            "{} library diverged",
            m.name
        );
    }

    println!(
        "round: {jobs} jobs, {} legal, {} unique",
        modes[0].counts.1,
        modes[0].library.len()
    );
    println!();
    println!(
        "{:<20} {:>10} {:>14} {:>14}",
        "mode", "total (s)", "samples/sec", "ns/sample"
    );
    for m in &modes {
        println!(
            "{:<20} {:>10.3} {:>14.2} {:>14.0}",
            m.name, m.seconds, m.samples_per_sec, m.ns_per_sample
        );
    }
    let headline = modes[3].samples_per_sec / modes[0].samples_per_sec;
    let fused_ratio = modes[1].samples_per_sec / modes[0].samples_per_sec;
    println!();
    println!("parallel_tail_4 vs serial_tail_naive (pre-rework tail): {headline:.2}x");
    println!("serial_tail_fused vs serial_tail_naive (fused-tail win alone): {fused_ratio:.2}x");
    println!();

    let pca_sizes: &[usize] = if smoke { &[50] } else { &[200, 2000] };
    let pca_rows: Vec<serde_json::Value> = pca_sizes
        .iter()
        .map(|&n| pca_probe(n, node.clip()))
        .collect();

    if smoke {
        println!("smoke mode: skipping BENCH_round.json");
        return;
    }

    let mode_rows: Vec<serde_json::Value> = modes
        .iter()
        .map(|m| {
            json!({
                "name": m.name,
                "seconds": m.seconds,
                "samples_per_sec": m.samples_per_sec,
                "ns_per_sample": m.ns_per_sample,
            })
        })
        .collect();
    let config = json!({
        "image": node.clip(),
        "jobs": jobs,
        "variations": variations,
        "denoise_threshold": cfg.denoise_threshold,
        "tail_threads": 4,
        "sampler": "jitter (deterministic stand-in; validator-heavy regime)",
    });
    let round_counts = json!({
        "generated": modes[0].counts.0,
        "legal": modes[0].counts.1,
        "unique": modes[0].library.len(),
    });
    let out = json!({
        "benchmark": "round",
        "config": config,
        "round_counts": round_counts,
        "modes": mode_rows,
        "parallel_tail_vs_serial_tail": headline,
        "fused_serial_vs_serial_tail": fused_ratio,
        "pca_fit": pca_rows,
    });
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_round.json");
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
