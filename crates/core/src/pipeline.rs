//! The four-stage PatternPaint pipeline, as a facade over the engine.
//!
//! [`PatternPaint`] is the single-workload convenience surface: one
//! model, one implicit session, the entry points the paper's workflow
//! names. Since the engine redesign it is a thin wrapper around an
//! [`Engine`] snapshot — [`PatternPaint::engine`] exposes it, and
//! multi-workload callers go through [`Engine::session`] /
//! [`crate::Session`] directly. Both surfaces run the same core code,
//! so their outputs are bit-identical.

use crate::builder::PipelineBuilder;
use crate::config::PipelineConfig;
use crate::engine::{Engine, EngineCore};
use crate::error::PpError;
use crate::jobs::JobSet;
use crate::library::PatternLibrary;
use crate::stages::{PatternDenoiser, SampleStream, Sampler, Validator};
use crate::stream::{GenerationRequest, StreamOptions};
use pp_diffusion::{DiffusionModel, TrainReport};
use pp_geometry::{GrayImage, Layout};
use pp_pdk::SynthNode;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One raw (pre-denoising) generated sample with its template.
///
/// The template is shared (`Arc`) because generation rounds fan a
/// handful of starters out into thousands of variations; cloning the
/// full `Layout` per variation was measurable allocator traffic in the
/// sampling hot path.
#[derive(Debug, Clone)]
pub struct RawSample {
    /// The starter/seed layout the mask was applied to.
    pub template: Arc<Layout>,
    /// The raw diffusion output (continuous pixels).
    pub raw: GrayImage,
}

/// The outcome of one generation round.
#[derive(Debug, Clone)]
pub struct GenerationRound {
    /// Total samples generated.
    pub generated: usize,
    /// Samples that passed sign-off DRC (duplicates included).
    pub legal: usize,
    /// The unique legal patterns discovered this round.
    pub library: PatternLibrary,
}

/// Per-iteration statistics (one x-position of the paper's Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationStats {
    /// Iteration number (1 = the initial generation).
    pub iteration: usize,
    /// Samples generated in this iteration.
    pub generated: usize,
    /// Cumulative legal samples.
    pub legal_total: usize,
    /// Cumulative unique patterns (library size).
    pub unique_total: usize,
    /// Library H1 after this iteration.
    pub h1: f64,
    /// Library H2 after this iteration.
    pub h2: f64,
}

/// The PatternPaint generator: one engine snapshot, one workload.
///
/// Assembled by [`PipelineBuilder`] (or the [`PatternPaint::pretrained`]
/// / [`PatternPaint::untrained`] shortcuts); every stage is a trait
/// with the paper's implementation as the default — see the
/// [`crate::stages`] docs. Generation runs through
/// [`PatternPaint::generate_stream`]; the round-level entry points are
/// thin consumers of that stream.
///
/// Internally this is a compatibility facade over one [`Engine`]
/// snapshot. Mutating calls ([`PatternPaint::finetune`],
/// [`PatternPaint::model_mut`], [`PatternPaint::load_weights`]) use
/// copy-on-write: engines previously obtained from
/// [`PatternPaint::engine`] keep the old snapshot.
#[derive(Clone)]
pub struct PatternPaint {
    pub(crate) core: Arc<EngineCore>,
}

impl std::fmt::Debug for PatternPaint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatternPaint")
            .field("node", &self.core.node)
            .field("cfg", &self.core.cfg)
            .field("seed", &self.core.seed)
            .field("finetuned", &self.core.finetuned)
            .field("custom_sampler", &self.core.sampler_override.is_some())
            .field("custom_selector", &self.core.selector_override.is_some())
            .finish_non_exhaustive()
    }
}

impl PatternPaint {
    /// Starts assembling a pipeline; see [`PipelineBuilder`].
    pub fn builder(node: SynthNode, cfg: PipelineConfig) -> PipelineBuilder {
        PipelineBuilder::new(node, cfg)
    }

    /// Builds a default-stage pipeline around a freshly *pretrained*
    /// base model (trains on the synthetic foundation corpus — the
    /// stand-in for a public SD checkpoint; see DESIGN.md).
    ///
    /// # Errors
    ///
    /// [`PpError::Config`] when `cfg` fails validation,
    /// [`PpError::Shape`] when the model image size differs from the
    /// node clip.
    pub fn pretrained(node: SynthNode, cfg: PipelineConfig, seed: u64) -> Result<Self, PpError> {
        Self::builder(node, cfg).seed(seed).pretrained()
    }

    /// Builds a default-stage pipeline with an *untrained* model (for
    /// tests or for loading saved weights with
    /// [`PatternPaint::model_mut`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PatternPaint::pretrained`].
    pub fn untrained(node: SynthNode, cfg: PipelineConfig, seed: u64) -> Result<Self, PpError> {
        Self::builder(node, cfg).seed(seed).untrained()
    }

    /// The engine snapshot this facade currently wraps (a cheap `Arc`
    /// clone). Later mutations of the facade copy-on-write, leaving the
    /// returned engine on the old snapshot.
    pub fn engine(&self) -> Engine {
        Engine {
            core: Arc::clone(&self.core),
        }
    }

    /// Wraps an existing engine snapshot in the facade surface.
    pub fn from_engine(engine: Engine) -> Self {
        PatternPaint { core: engine.core }
    }

    /// Consumes the facade, yielding its engine snapshot.
    pub fn into_engine(self) -> Engine {
        Engine { core: self.core }
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        Arc::make_mut(&mut self.core)
    }

    /// The node this pipeline targets.
    pub fn node(&self) -> &SynthNode {
        &self.core.node
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.core.cfg
    }

    /// The base RNG seed.
    pub fn seed(&self) -> u64 {
        self.core.seed
    }

    /// The underlying diffusion model.
    pub fn model(&self) -> &DiffusionModel {
        &self.core.model
    }

    /// Mutable model access (weight loading, inspection). Clones the
    /// weights only if a sampler, stream, engine or session still
    /// shares them (copy-on-write via [`Arc::make_mut`]).
    pub fn model_mut(&mut self) -> &mut DiffusionModel {
        Arc::make_mut(&mut self.core_mut().model)
    }

    /// Serialises the model weights through the pipeline's error
    /// surface.
    ///
    /// For durable, self-describing artifacts prefer
    /// [`Engine::save`], which wraps the same payload in a versioned,
    /// checksummed checkpoint.
    ///
    /// # Errors
    ///
    /// [`PpError::Checkpoint`] on any writer failure (its source chain
    /// reaches the `io::Error`).
    pub fn save_weights<W: std::io::Write>(&mut self, writer: W) -> Result<(), PpError> {
        self.model_mut().save_weights(writer)?;
        Ok(())
    }

    /// Loads weights saved by [`PatternPaint::save_weights`]
    /// (architectures must match).
    ///
    /// # Errors
    ///
    /// [`PpError::Checkpoint`] on reader failures, bad magic, or a
    /// weight-shape mismatch; the model is untouched on error.
    pub fn load_weights<R: std::io::Read>(&mut self, reader: R) -> Result<(), PpError> {
        self.model_mut().load_weights(reader)?;
        Ok(())
    }

    /// Whether [`PatternPaint::finetune`] has run.
    pub fn is_finetuned(&self) -> bool {
        self.core.finetuned
    }

    /// The starter patterns in use.
    pub fn starters(&self) -> &[Layout] {
        &self.core.starters
    }

    /// The sampler generation runs through: the configured override, or
    /// a [`crate::DiffusionSampler`] over a snapshot of the current
    /// model weights (built per call so it always sees finetuned
    /// weights).
    pub fn sampler(&self) -> Arc<dyn Sampler> {
        self.core.sampler(&self.core.cfg, None)
    }

    /// The denoising stage.
    pub fn denoiser(&self) -> &dyn PatternDenoiser {
        self.core.denoiser.as_ref()
    }

    /// The validation stage.
    pub fn validator(&self) -> &dyn Validator {
        self.core.validator.as_ref()
    }

    /// Stage 1: DreamBooth-style few-shot finetuning on the starters
    /// with prior preservation (paper Eq. 7).
    ///
    /// # Errors
    ///
    /// [`PpError::Model`] when the model rejects the finetuning inputs.
    pub fn finetune(&mut self) -> Result<TrainReport, PpError> {
        let ft = self.core.cfg.finetune;
        let seed = self.core.seed;
        let prior = self.core.model.sample_prior(ft.prior_count, seed ^ 0x9e37);
        let starter_images: Vec<GrayImage> = self
            .core
            .starters
            .iter()
            .map(GrayImage::from_layout)
            .collect();
        let core = self.core_mut();
        let report = Arc::make_mut(&mut core.model).finetune(
            &starter_images,
            &prior,
            ft.lambda,
            ft.steps,
            ft.batch,
            ft.lr,
            seed ^ 0x51ee,
        )?;
        core.finetuned = true;
        Ok(report)
    }

    /// Generates raw (pre-denoising) samples for explicit
    /// (template, mask) jobs — the entry point Table III uses to compare
    /// denoising schemes on identical raw batches.
    ///
    /// # Errors
    ///
    /// [`PpError::EmptyRequest`] when `jobs` is empty, plus anything
    /// the sampler reports.
    pub fn generate_raw(
        &self,
        jobs: &[(Layout, pp_inpaint::Mask)],
        seed: u64,
    ) -> Result<Vec<RawSample>, PpError> {
        self.generate_jobs(&JobSet::from_pairs(jobs), seed)
    }

    /// [`PatternPaint::generate_raw`] over pre-shared jobs: callers
    /// that fan one template/mask out into many variations push `Arc`
    /// clones (pointer bumps) instead of deep copies.
    ///
    /// # Errors
    ///
    /// [`PpError::EmptyRequest`] when `jobs` is empty, plus anything
    /// the sampler reports.
    pub fn generate_jobs(&self, jobs: &JobSet, seed: u64) -> Result<Vec<RawSample>, PpError> {
        if jobs.is_empty() {
            return Err(PpError::EmptyRequest);
        }
        self.sampler().sample(jobs, seed)
    }

    /// Streams raw samples for a request as they finish, in job order.
    ///
    /// The stream is fed by a private scheduler's sampling workers;
    /// `opts` wires in a progress hook, a cancellation token (checked
    /// at every slot admission — cancelling ends the stream early with
    /// the samples already in flight), and the QoS class and deadline
    /// of the submission. The round-level entry points
    /// ([`PatternPaint::initial_generation`],
    /// [`PatternPaint::iterative_generation`]) consume exactly this
    /// stream, so their outputs match streaming consumers bit for bit.
    ///
    /// # Errors
    ///
    /// [`PpError::EmptyRequest`] when the request has no jobs, plus
    /// anything the sampler reports.
    pub fn generate_stream(
        &self,
        request: &GenerationRequest,
        opts: &StreamOptions,
    ) -> Result<SampleStream, PpError> {
        self.core
            .generate_stream(&self.core.cfg, None, request, opts)
    }

    /// Denoises, DRC-checks and deduplicates raw samples into `library`;
    /// returns `(generated, legal)` counts for the batch.
    ///
    /// Runs on `cfg.tail_threads` tail workers (serial when `0`);
    /// results are bit-identical either way.
    pub fn validate_into(
        &self,
        samples: &[RawSample],
        library: &mut PatternLibrary,
    ) -> (usize, usize) {
        crate::tail::consume_batch(
            samples,
            self.core.denoiser.as_ref(),
            self.core.validator.as_ref(),
            self.core.cfg.tail_threads,
            library,
        )
    }

    /// The initial-generation request: every starter × all ten
    /// predefined masks × `v` variations (paper §IV-C).
    pub fn initial_request(&self) -> GenerationRequest {
        self.core.initial_request(&self.core.cfg, self.core.seed)
    }

    /// Stage 2: initial generation, consuming
    /// [`PatternPaint::generate_stream`] over
    /// [`PatternPaint::initial_request`].
    ///
    /// # Errors
    ///
    /// Anything [`PatternPaint::generate_stream`] reports.
    pub fn initial_generation(&self) -> Result<GenerationRound, PpError> {
        self.run_request(&self.initial_request(), &StreamOptions::default())
    }

    /// Runs one full round (sample → denoise → validate) for an
    /// arbitrary request into a fresh library, streaming under `opts`.
    ///
    /// # Errors
    ///
    /// Anything [`PatternPaint::generate_stream`] reports.
    pub fn run_request(
        &self,
        request: &GenerationRequest,
        opts: &StreamOptions,
    ) -> Result<GenerationRound, PpError> {
        let mut library = PatternLibrary::new();
        let (generated, legal) = self.run_request_into(request, opts, &mut library)?;
        Ok(GenerationRound {
            generated,
            legal,
            library,
        })
    }

    /// [`PatternPaint::run_request`] into an existing library.
    ///
    /// The round tail runs on `opts.tail_threads` workers when set,
    /// falling back to the pipeline's `cfg.tail_threads`.
    ///
    /// # Errors
    ///
    /// Anything [`PatternPaint::generate_stream`] reports.
    pub fn run_request_into(
        &self,
        request: &GenerationRequest,
        opts: &StreamOptions,
        library: &mut PatternLibrary,
    ) -> Result<(usize, usize), PpError> {
        self.core
            .run_request_into(&self.core.cfg, None, request, opts, library)
    }

    /// Stages 3-4: iterative generation. Each round selects `select_k`
    /// representative low-density layouts by PCA + farthest point
    /// (paper Alg. 2) — or the configured [`crate::Selector`] override —
    /// re-inpaints them under their sequentially scheduled masks, and
    /// adds new clean patterns to `library`.
    ///
    /// Returns one [`IterationStats`] per round (cumulative counts start
    /// from `legal_so_far` and the current library). Every call starts
    /// the mask schedule at round 0; use a [`crate::Session`] when the
    /// iteration cursor must survive across calls or processes.
    ///
    /// # Errors
    ///
    /// [`PpError::Config`] when the selection parameters are invalid,
    /// plus anything [`PatternPaint::generate_stream`] reports.
    pub fn iterative_generation(
        &self,
        library: &mut PatternLibrary,
        iterations: usize,
        legal_so_far: usize,
    ) -> Result<Vec<IterationStats>, PpError> {
        self.iterative_generation_streamed(
            library,
            iterations,
            legal_so_far,
            &StreamOptions::default(),
        )
    }

    /// [`PatternPaint::iterative_generation`] with explicit stream
    /// options: the progress hook and cancellation token apply to every
    /// round's stream (a cancelled round keeps its partial counts, and
    /// no further round starts).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PatternPaint::iterative_generation`].
    pub fn iterative_generation_streamed(
        &self,
        library: &mut PatternLibrary,
        iterations: usize,
        legal_so_far: usize,
        opts: &StreamOptions,
    ) -> Result<Vec<IterationStats>, PpError> {
        self.core.iterate(
            &self.core.cfg,
            None,
            self.core.seed,
            library,
            iterations,
            0,
            legal_so_far,
            opts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::stream::CancelToken;
    use pp_drc::check_layout;
    use pp_inpaint::MaskSet;

    fn tiny_pipeline() -> PatternPaint {
        let node = SynthNode::small();
        PatternPaint::pretrained(node, PipelineConfig::tiny(), 1).expect("tiny config is valid")
    }

    #[test]
    fn pretrain_and_finetune_run() {
        let mut pp = tiny_pipeline();
        assert!(!pp.is_finetuned());
        let report = pp.finetune().expect("starters are well-formed");
        assert!(pp.is_finetuned());
        assert!(report.final_loss.is_finite());
    }

    #[test]
    fn initial_generation_produces_counts() {
        let pp = tiny_pipeline();
        let round = pp.initial_generation().expect("round runs");
        // 20 starters x 10 masks x 1 variation.
        assert_eq!(round.generated, 200);
        assert!(round.legal <= round.generated);
        assert!(round.library.len() <= round.legal);
    }

    #[test]
    fn validated_patterns_are_clean_and_unique() {
        let pp = tiny_pipeline();
        let round = pp.initial_generation().expect("round runs");
        for p in round.library.patterns() {
            assert!(check_layout(p, pp.node().rules()).is_clean());
        }
        let stats = round.library.stats();
        assert_eq!(stats.unique, round.library.len());
    }

    #[test]
    fn iterations_never_shrink_library() {
        let pp = tiny_pipeline();
        let round = pp.initial_generation().expect("round runs");
        let mut library = round.library;
        // Seed with starters so selection has material even if initial
        // generation found nothing on the tiny model.
        library.extend(pp.starters().iter().cloned());
        let before = library.len();
        let stats = pp
            .iterative_generation(&mut library, 2, round.legal)
            .expect("iterations run");
        assert_eq!(stats.len(), 2);
        assert!(library.len() >= before);
        assert!(stats[1].unique_total >= stats[0].unique_total);
        assert!(stats[1].legal_total >= stats[0].legal_total);
    }

    #[test]
    fn generate_raw_keeps_known_region() {
        let pp = tiny_pipeline();
        let starter = pp.starters()[0].clone();
        let mask = MaskSet::Default.masks(pp.node().clip())[0].clone();
        let raw = pp
            .generate_raw(&[(starter.clone(), mask.clone())], 3)
            .expect("well-formed job");
        assert_eq!(raw.len(), 1);
        let r = &raw[0].raw;
        for y in 0..pp.node().clip() {
            for x in 0..pp.node().clip() {
                if mask.as_image().get(x, y) < 0.5 {
                    let expected = if starter.get(x, y) { 1.0 } else { -1.0 };
                    assert_eq!(r.get(x, y), expected, "known pixel changed at {x},{y}");
                }
            }
        }
    }

    #[test]
    fn mismatched_clip_rejected() {
        let node = SynthNode::default(); // 32
        let cfg = PipelineConfig::tiny(); // 16
        let err = PatternPaint::untrained(node, cfg, 0).unwrap_err();
        assert!(
            matches!(
                err,
                PpError::Shape {
                    expected: 32,
                    actual: 16,
                    ..
                }
            ),
            "wrong error: {err}"
        );
    }

    #[test]
    fn invalid_config_rejected() {
        let node = SynthNode::small();
        let mut cfg = PipelineConfig::tiny();
        cfg.variations = 0;
        let err = PatternPaint::untrained(node, cfg, 0).unwrap_err();
        assert!(matches!(err, PpError::Config(_)), "wrong error: {err}");
    }

    #[test]
    fn empty_requests_rejected() {
        let pp = tiny_pipeline();
        assert!(matches!(
            pp.generate_raw(&[], 0).unwrap_err(),
            PpError::EmptyRequest
        ));
        let empty = GenerationRequest::new(JobSet::new(), 0);
        let err = pp
            .generate_stream(&empty, &StreamOptions::default())
            .err()
            .expect("empty request must be rejected");
        assert!(matches!(err, PpError::EmptyRequest));
        assert!(matches!(
            pp.run_request(&empty, &StreamOptions::default())
                .unwrap_err(),
            PpError::EmptyRequest
        ));
    }

    #[test]
    fn validate_into_matches_streamed_round() {
        let pp = tiny_pipeline();
        let request = pp.initial_request();
        let raw = pp
            .generate_jobs(request.jobs(), request.seed())
            .expect("jobs run");
        let mut library = PatternLibrary::new();
        let (generated, legal) = pp.validate_into(&raw, &mut library);
        let round = pp.initial_generation().expect("round runs");
        assert_eq!(generated, round.generated);
        assert_eq!(legal, round.legal);
        assert_eq!(library.patterns(), round.library.patterns());
    }

    #[test]
    fn weights_roundtrip_and_io_errors_surface() {
        let node = SynthNode::small();
        let mut a = PatternPaint::untrained(node.clone(), PipelineConfig::tiny(), 1)
            .expect("tiny config is valid");
        let mut bytes = Vec::new();
        a.save_weights(&mut bytes).expect("vec writer cannot fail");
        let mut b = PatternPaint::untrained(node, PipelineConfig::tiny(), 999)
            .expect("tiny config is valid");
        b.load_weights(bytes.as_slice()).expect("same architecture");
        // A truncated stream surfaces as the Checkpoint variant whose
        // source chain reaches the io root.
        let err = b.load_weights(&bytes[..3]).unwrap_err();
        assert!(matches!(err, PpError::Checkpoint(_)), "wrong error: {err}");
        use std::error::Error as _;
        assert!(err.source().and_then(|m| m.source()).is_some());
    }

    #[test]
    fn facade_mutations_copy_on_write_from_engines() {
        let mut pp = tiny_pipeline();
        let engine = pp.engine();
        let before = engine.is_finetuned();
        pp.finetune().expect("finetune runs");
        assert!(pp.is_finetuned());
        // The previously-taken engine snapshot is unaffected.
        assert_eq!(engine.is_finetuned(), before);
    }

    #[test]
    fn stream_matches_blocking_generation() {
        let pp = tiny_pipeline();
        let request = pp.initial_request();
        let blocking = pp
            .generate_jobs(request.jobs(), request.seed())
            .expect("jobs run");
        let streamed: Vec<RawSample> = pp
            .generate_stream(&request, &StreamOptions::default())
            .expect("stream starts")
            .collect::<Result<_, _>>()
            .expect("stream yields no errors");
        assert_eq!(streamed.len(), blocking.len());
        for (s, b) in streamed.iter().zip(&blocking) {
            assert_eq!(s.raw, b.raw);
            assert_eq!(*s.template, *b.template);
        }
    }

    #[test]
    fn progress_hook_reaches_total() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pp = tiny_pipeline();
        let request = pp.initial_request();
        let seen = Arc::new(AtomicUsize::new(0));
        let seen_in_hook = Arc::clone(&seen);
        let opts = StreamOptions::default().with_progress(move |p: crate::stream::Progress| {
            seen_in_hook.store(p.completed, Ordering::SeqCst);
            assert_eq!(p.total, 200);
        });
        let round = pp.run_request(&request, &opts).expect("round runs");
        assert_eq!(round.generated, 200);
        assert_eq!(seen.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn cancellation_stops_stream_with_partial_results() {
        let pp = tiny_pipeline();
        let request = pp.initial_request(); // 200 jobs
        let cancel = CancelToken::new();
        // The tiny batch size bounds how many admitted jobs still finish
        // after cancellation.
        let opts = StreamOptions::default().with_cancel(cancel.clone());
        let stream = pp.generate_stream(&request, &opts).expect("stream starts");
        let mut yielded = 0;
        for sample in stream {
            sample.expect("samples are well-formed");
            yielded += 1;
            cancel.cancel();
        }
        assert!(yielded >= 1, "cancellation must deliver partial results");
        assert!(
            yielded < request.jobs().len(),
            "cancellation failed to stop the stream early ({yielded}/200)"
        );
    }
}
