//! The pipeline's pluggable stage boundary.
//!
//! PatternPaint is four stages — sample, denoise, validate, select —
//! and each is a trait here, with the paper's implementations as the
//! defaults:
//!
//! | stage | trait | default |
//! |---|---|---|
//! | raw inpainting over `(template, mask)` jobs | [`Sampler`] | [`DiffusionSampler`] |
//! | raster → Manhattan layout | [`PatternDenoiser`] | `pp_inpaint::TemplateDenoiser` |
//! | DRC + dedup into the library | [`Validator`] | [`DrcValidator`] |
//! | representative picks between rounds | [`Selector`] | `pp_selection::PcaSelector` |
//!
//! Swapping the sampler is how prior-work baselines (CUP, DiffPattern in
//! `pp-baselines`) run through the same harness as the diffusion model —
//! see [`run_round`] — mirroring how DiffPattern swaps the generation
//! backbone while keeping legalization fixed.

use crate::error::PpError;
use crate::jobs::JobSet;
use crate::library::PatternLibrary;
use crate::pipeline::{GenerationRound, RawSample};
use crate::scheduler::{ScheduledSampler, Scheduler};
use crate::stream::{GenerationRequest, Progress, StreamOptions};
use crate::tail;
use pp_diffusion::DiffusionModel;
use pp_drc::{check_layout, check_squish, RuleDeck};
use pp_geometry::{Layout, SquishPattern};
use pp_selection::PcaSelector;
use std::sync::Arc;

/// A stream of raw samples, delivered in job order (possibly cut short
/// by cancellation).
pub type SampleStream = Box<dyn Iterator<Item = Result<RawSample, PpError>> + Send>;

/// Stage 2's extension point: raw generation over `(template, mask)`
/// jobs.
///
/// Implementations must be deterministic in `(jobs, seed)` so rounds
/// are reproducible, and must deliver results in job order. The
/// default [`DiffusionSampler`] additionally answers each job `i` from
/// the RNG stream `seed ^ i`, so a single job can be replayed alone;
/// whole-pattern samplers (the baseline adapters) only promise
/// batch-level determinism.
pub trait Sampler: Send + Sync {
    /// A short name for reports.
    fn name(&self) -> &str {
        "sampler"
    }

    /// Samples every job, blocking until all are done.
    fn sample(&self, jobs: &JobSet, seed: u64) -> Result<Vec<RawSample>, PpError>;

    /// Streams samples as they finish.
    ///
    /// The default computes everything up front and then iterates — a
    /// correct but unmetered fallback for samplers without incremental
    /// delivery. [`DiffusionSampler`] overrides it to deliver each
    /// sample as it finishes.
    fn sample_stream(
        &self,
        jobs: &JobSet,
        seed: u64,
        opts: &StreamOptions,
    ) -> Result<SampleStream, PpError> {
        if opts.cancel.is_cancelled() {
            return Ok(Box::new(std::iter::empty()));
        }
        let samples = self.sample(jobs, seed)?;
        if let Some(hook) = &opts.progress {
            hook(Progress {
                completed: samples.len(),
                total: samples.len(),
            });
        }
        Ok(Box::new(samples.into_iter().map(Ok)))
    }
}

/// The default sampler: mask-conditioned DDIM inpainting through a
/// private engine scheduler.
///
/// Each request spawns a [`Scheduler`] with `threads` workers over the
/// shared model and streams through [`ScheduledSampler`], so a solo
/// round runs the same slot loop, dispatcher and delivery as a shared
/// one: it honours [`StreamOptions::class`], deadlines and hard
/// deadlines, and reports a worker panic as [`PpError::WorkerPanic`].
/// The stream owns its scheduler; dropping it drains and joins the
/// workers.
#[derive(Debug, Clone)]
pub struct DiffusionSampler {
    model: Arc<DiffusionModel>,
    threads: usize,
    batch_size: usize,
}

impl DiffusionSampler {
    /// Wraps a model with the worker count and micro-batch width the
    /// jobs will run under (`batch_size == 0` = one worker's share,
    /// `⌈jobs / threads⌉`).
    pub fn new(model: DiffusionModel, threads: usize, batch_size: usize) -> Self {
        Self::from_arc(Arc::new(model), threads, batch_size)
    }

    /// [`DiffusionSampler::new`] over an already-shared model.
    pub fn from_arc(model: Arc<DiffusionModel>, threads: usize, batch_size: usize) -> Self {
        DiffusionSampler {
            model,
            threads,
            batch_size,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &DiffusionModel {
        &self.model
    }

    /// A private scheduler for a request of `jobs` jobs, and the
    /// sampler submitting through it.
    fn private_scheduler(&self, jobs: usize) -> (Scheduler, ScheduledSampler) {
        let threads = self.threads.max(1);
        let batch_size = if self.batch_size == 0 {
            jobs.div_ceil(threads).max(1)
        } else {
            self.batch_size
        };
        let scheduler = Scheduler::new(Arc::clone(&self.model), threads);
        let sampler = ScheduledSampler::new(scheduler.handle(), batch_size);
        (scheduler, sampler)
    }
}

/// A sample stream that owns the private scheduler feeding it. Fields
/// drop in order: the stream's receiver first, so a consumer that stops
/// early retires its submission, then the scheduler, which drains and
/// joins its workers.
struct PrivateStream {
    samples: SampleStream,
    _scheduler: Scheduler,
}

impl Iterator for PrivateStream {
    type Item = Result<RawSample, PpError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.samples.next()
    }
}

impl Sampler for DiffusionSampler {
    fn name(&self) -> &str {
        "diffusion-inpaint"
    }

    fn sample(&self, jobs: &JobSet, seed: u64) -> Result<Vec<RawSample>, PpError> {
        let (_scheduler, sampler) = self.private_scheduler(jobs.len());
        sampler.sample(jobs, seed)
    }

    fn sample_stream(
        &self,
        jobs: &JobSet,
        seed: u64,
        opts: &StreamOptions,
    ) -> Result<SampleStream, PpError> {
        let (scheduler, sampler) = self.private_scheduler(jobs.len());
        let samples = sampler.sample_stream(jobs, seed, opts)?;
        Ok(Box::new(PrivateStream {
            samples,
            _scheduler: scheduler,
        }))
    }
}

/// Stage 3a's extension point: turning a raw (continuous, edge-noisy)
/// sample into a binary Manhattan layout.
///
/// Every `pp_inpaint::Denoiser` (template, NLM, threshold) implements
/// this via the blanket impl below.
pub trait PatternDenoiser: Send + Sync {
    /// Denoises one raw sample.
    fn denoise_sample(&self, sample: &RawSample) -> Layout;

    /// Denoises one raw sample straight to the canonical squish form of
    /// the layout [`PatternDenoiser::denoise_sample`] would produce.
    ///
    /// The round tail runs DRC, deduplication and the diversity metrics
    /// on the squish form, so denoisers that build one internally can
    /// override this (and the `_with_lines` variant) to skip a
    /// rasterise + rescan round trip; results must stay identical to
    /// `SquishPattern::from_layout(&self.denoise_sample(sample))`.
    fn denoise_squish_sample(&self, sample: &RawSample) -> SquishPattern {
        SquishPattern::from_layout(&self.denoise_sample(sample))
    }

    /// [`PatternDenoiser::denoise_squish_sample`] with the template's
    /// scan lines precomputed by the caller (the tail caches them per
    /// template `Arc`, since rounds fan each template out into many
    /// variations). The default ignores the hint.
    fn denoise_squish_sample_with_lines(
        &self,
        sample: &RawSample,
        _lt_x: &[u32],
        _lt_y: &[u32],
    ) -> SquishPattern {
        self.denoise_squish_sample(sample)
    }

    /// A short name for reports.
    fn denoiser_name(&self) -> &str {
        "denoiser"
    }
}

impl<D> PatternDenoiser for D
where
    D: pp_inpaint::Denoiser + Send + Sync,
{
    fn denoise_sample(&self, sample: &RawSample) -> Layout {
        self.denoise(&sample.raw, &sample.template)
    }

    fn denoise_squish_sample(&self, sample: &RawSample) -> SquishPattern {
        self.denoise_squish(&sample.raw, &sample.template)
    }

    fn denoise_squish_sample_with_lines(
        &self,
        sample: &RawSample,
        lt_x: &[u32],
        lt_y: &[u32],
    ) -> SquishPattern {
        self.denoise_squish_with_template_lines(&sample.raw, &sample.template, lt_x, lt_y)
    }

    fn denoiser_name(&self) -> &str {
        pp_inpaint::Denoiser::name(self)
    }
}

/// Stage 3b's extension point: legality plus library admission.
pub trait Validator: Send + Sync {
    /// Whether a denoised layout is legal (sign-off clean and
    /// non-empty, for the default deck-backed implementation).
    fn is_legal(&self, layout: &Layout) -> bool;

    /// Legality judged directly on the canonical squish form, when the
    /// validator can (`None` = "I need the raster; call
    /// [`Validator::is_legal`]").
    ///
    /// The round tail denoises to squish form and asks this first, so
    /// validators that measure on the squish grid (the default
    /// [`DrcValidator`] does — all its rules are scan-line exact) never
    /// force a rasterisation for samples that end up illegal or
    /// duplicate. An implementation must agree with `is_legal` on
    /// `squish.to_layout()`.
    fn is_legal_squish(&self, _squish: &SquishPattern) -> Option<bool> {
        None
    }

    /// Runs the legality check and, on success, inserts into `library`
    /// (which deduplicates by squish signature). Returns legality —
    /// duplicates still count as legal, matching the paper's Table I
    /// accounting.
    ///
    /// A convenience for external drivers only: the pipeline's round
    /// entry points never call it. They run the fused tail — `is_legal`
    /// / [`Validator::is_legal_squish`] plus
    /// [`PatternLibrary::insert_squished`] — whose admission semantics
    /// are fixed to the default body below, so overriding `admit` does
    /// not change what a round admits.
    fn admit(&self, layout: Layout, library: &mut PatternLibrary) -> bool {
        let legal = self.is_legal(&layout);
        if legal {
            library.insert(layout);
        }
        legal
    }
}

/// The default validator: the node's full sign-off [`RuleDeck`], with
/// empty layouts rejected.
#[derive(Debug, Clone)]
pub struct DrcValidator {
    deck: RuleDeck,
}

impl DrcValidator {
    /// Validates against `deck`.
    pub fn new(deck: RuleDeck) -> Self {
        DrcValidator { deck }
    }

    /// The deck in use.
    pub fn deck(&self) -> &RuleDeck {
        &self.deck
    }
}

impl Validator for DrcValidator {
    fn is_legal(&self, layout: &Layout) -> bool {
        layout.metal_area() > 0 && check_layout(layout, &self.deck).is_clean()
    }

    fn is_legal_squish(&self, squish: &SquishPattern) -> Option<bool> {
        Some(squish.metal_area() > 0 && check_squish(squish, &self.deck).is_clean())
    }
}

/// Stage 4's extension point: picking representative layouts to
/// re-inpaint between rounds.
pub trait Selector: Send + Sync {
    /// Picks up to `k` indices into `library`.
    fn select(&self, library: &[Layout], k: usize) -> Vec<usize>;
}

impl Selector for PcaSelector {
    fn select(&self, library: &[Layout], k: usize) -> Vec<usize> {
        PcaSelector::select(self, library, k)
    }
}

/// Drives any sampler through denoise → validate into a fresh library —
/// the one harness the Table I/II benches run every method through
/// (PatternPaint variants and the `pp-baselines` samplers alike).
///
/// Samples are consumed as they stream, so a `ProgressHook` meters the
/// round and a `CancelToken` aborts it with partial counts.
///
/// # Errors
///
/// [`PpError::EmptyRequest`] on an empty job set, plus anything the
/// sampler reports.
pub fn run_round(
    sampler: &dyn Sampler,
    denoiser: &dyn PatternDenoiser,
    validator: &dyn Validator,
    request: &GenerationRequest,
    opts: &StreamOptions,
) -> Result<GenerationRound, PpError> {
    let mut library = PatternLibrary::new();
    let (generated, legal) =
        run_round_into(sampler, denoiser, validator, request, opts, &mut library)?;
    Ok(GenerationRound {
        generated,
        legal,
        library,
    })
}

/// [`run_round`] into an existing library; returns `(generated, legal)`
/// counts for the round.
///
/// # Errors
///
/// [`PpError::EmptyRequest`] on an empty job set, plus anything the
/// sampler reports.
pub fn run_round_into(
    sampler: &dyn Sampler,
    denoiser: &dyn PatternDenoiser,
    validator: &dyn Validator,
    request: &GenerationRequest,
    opts: &StreamOptions,
    library: &mut PatternLibrary,
) -> Result<(usize, usize), PpError> {
    let (counts, error) =
        run_round_into_partial(sampler, denoiser, validator, request, opts, library);
    match error {
        Some(e) => Err(e),
        None => Ok(counts),
    }
}

/// [`run_round_into`] that reports partial progress alongside the
/// failure: the counts cover every sample admitted before the round
/// errored (a timed-out or aborted stream keeps what beat the cut,
/// and `library` already holds it).
pub(crate) fn run_round_into_partial(
    sampler: &dyn Sampler,
    denoiser: &dyn PatternDenoiser,
    validator: &dyn Validator,
    request: &GenerationRequest,
    opts: &StreamOptions,
    library: &mut PatternLibrary,
) -> ((usize, usize), Option<PpError>) {
    if request.jobs().is_empty() {
        return ((0, 0), Some(PpError::EmptyRequest));
    }
    let stream = match sampler.sample_stream(request.jobs(), request.seed(), opts) {
        Ok(stream) => stream,
        Err(e) => return ((0, 0), Some(e)),
    };
    tail::consume(
        stream,
        denoiser,
        validator,
        opts.tail_threads.unwrap_or(0),
        library,
    )
}

/// The per-sample tail of every round: denoise, then validate into the
/// library. One definition so `run_round_into` and
/// [`crate::PatternPaint::validate_into`] cannot drift apart.
///
/// Runs the fused single-squish tail (denoise to canonical squish form,
/// judge legality on it, reuse squish + signature for admission) unless
/// `pp_nn::gemm::force_naive` is active, in which case the pre-rework
/// rasterise / re-squish / re-squish sequence runs instead so benchmark
/// baselines keep measuring the shipped pre-optimisation path. Both
/// paths produce bit-identical libraries and counts, and neither calls
/// [`Validator::admit`] — admission semantics are the same `is_legal` +
/// dedup-insert regardless of kernel flags.
pub fn denoise_and_admit(
    denoiser: &dyn PatternDenoiser,
    validator: &dyn Validator,
    sample: &RawSample,
    library: &mut PatternLibrary,
) -> bool {
    if pp_nn::gemm::force_naive() {
        let denoised = denoiser.denoise_sample(sample);
        let legal = validator.is_legal(&denoised);
        if legal {
            library.insert(denoised);
        }
        return legal;
    }
    let verdict = tail::prepare(denoiser, validator, sample, None);
    tail::admit(verdict, library)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::stream::CancelToken;
    use pp_inpaint::MaskSet;
    use pp_pdk::SynthNode;

    /// A tiny model plus `n` jobs cycling the small node's starters and
    /// masks.
    fn tiny_jobs(n: usize) -> (Arc<DiffusionModel>, JobSet) {
        let node = SynthNode::small();
        let model = Arc::new(DiffusionModel::new(PipelineConfig::tiny().model, 3));
        let masks = MaskSet::Default.masks(node.clip());
        (model, JobSet::cycle(&node.starter_patterns(), &masks, n))
    }

    /// Dropping a solo stream after its first sample retires the
    /// submission and joins the private scheduler's workers: once the
    /// drop returns, no worker holds the model any more.
    #[test]
    fn dropping_a_stream_stops_workers() {
        let (model, jobs) = tiny_jobs(12);
        let sampler = DiffusionSampler::from_arc(Arc::clone(&model), 2, 1);
        let mut stream = sampler
            .sample_stream(&jobs, 9, &StreamOptions::default())
            .expect("jobs are well-formed");
        let first = stream.next().expect("at least one sample");
        assert!(first.is_ok(), "first sample failed: {first:?}");
        assert!(
            Arc::strong_count(&model) > 2,
            "the workers hold the model while the stream is live"
        );
        drop(stream);
        assert_eq!(
            Arc::strong_count(&model),
            2,
            "the private workers outlived their stream"
        );
    }

    /// Solo rounds run through the scheduler, so a hard deadline that
    /// has already passed ends the stream with a typed error.
    #[test]
    fn expired_hard_deadline_ends_a_solo_stream_with_a_typed_error() {
        let (model, jobs) = tiny_jobs(4);
        let opts = StreamOptions::default().with_hard_deadline(std::time::Duration::ZERO);
        let err = DiffusionSampler::from_arc(model, 1, 1)
            .sample_stream(&jobs, 5, &opts)
            .expect("jobs are well-formed")
            .find_map(Result::err)
            .expect("an expired hard deadline must surface");
        assert!(
            matches!(err, PpError::DeadlineExceeded { .. }),
            "wrong error: {err}"
        );
    }

    /// A stream whose token was cancelled before it started yields
    /// nothing.
    #[test]
    fn pre_cancelled_stream_yields_nothing() {
        let (model, jobs) = tiny_jobs(6);
        let cancel = CancelToken::new();
        cancel.cancel();
        let opts = StreamOptions::default().with_cancel(cancel);
        let stream = DiffusionSampler::from_arc(model, 2, 1)
            .sample_stream(&jobs, 3, &opts)
            .expect("jobs are well-formed");
        assert_eq!(stream.count(), 0);
    }
}
