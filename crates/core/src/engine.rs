//! The multi-session engine: one shared model, many concurrent
//! workloads, persistent artifacts.
//!
//! A [`crate::PatternPaint`] instance privately owns its model and runs
//! exactly one workload. At service scale that inverts: the expensive
//! artifact is the trained generator, and what varies per user is the
//! cheap request shape (masks, variation counts, selection budgets).
//! This module splits the two:
//!
//! * [`Engine`] — an immutable, `Sync` snapshot of the trained
//!   model + schedule + PDK rules + default stages, shared behind
//!   `Arc`. Engines are cheap to clone and hand out
//!   [`Session`]s; [`Engine::scheduler`] spawns the shared worker pool
//!   that serves all of them fairly (see [`crate::scheduler`]).
//! * [`Session`] — one workload's mutable state: its own
//!   [`PatternLibrary`], config overrides (request-shaping knobs only —
//!   the model architecture belongs to the engine), seed,
//!   [`CancelToken`]/progress hooks, and iteration cursor. Round entry
//!   points mirror the facade's, and a session's results are
//!   bit-identical to a solo [`crate::PatternPaint`] run with the same
//!   node, config and seed — whether or not its sampling is interleaved
//!   with other sessions on a scheduler.
//! * the **artifact layer** ([`crate::artifact`]) — [`Engine::save`] /
//!   [`Engine::open`] persist the model as a versioned, checksummed
//!   checkpoint plus a manifest; [`Session::save`] /
//!   [`Session::resume`] persist a library (squish round-trip) plus the
//!   session's progress counters, so `iterative_generation` resumes
//!   mid-run with output identical to an uninterrupted run.
//!
//! ```no_run
//! use patternpaint_core::{DirStore, Engine, PipelineConfig};
//! use pp_pdk::SynthNode;
//!
//! # fn main() -> Result<(), patternpaint_core::PpError> {
//! let engine = Engine::builder(SynthNode::default(), PipelineConfig::quick())
//!     .seed(42)
//!     .pretrained_engine()?;
//! let scheduler = engine.scheduler(4);
//!
//! // Two tenants, one model, fair interleaving:
//! let mut alice = engine.session().attach(&scheduler);
//! let mut bob = engine.session_seeded(7).attach(&scheduler);
//! std::thread::scope(|s| {
//!     s.spawn(|| alice.initial_generation());
//!     s.spawn(|| bob.initial_generation());
//! });
//!
//! // Durable across processes:
//! let store = DirStore::open("run-artifacts")?;
//! engine.save(&store)?;
//! let engine2 = Engine::open(&store)?;
//! # let _ = engine2;
//! # Ok(())
//! # }
//! ```

use crate::artifact::{ArtifactError, ArtifactStore, ByteReader, ByteWriter};
use crate::config::{FinetuneConfig, PipelineConfig, PretrainConfig};
use crate::error::PpError;
use crate::jobs::JobSet;
use crate::jobspec::QosClass;
use crate::library::PatternLibrary;
use crate::pipeline::{GenerationRound, IterationStats};
use crate::scheduler::{ScheduledSampler, Scheduler, SchedulerHandle, SchedulerOptions};
use crate::stages::{
    run_round_into_partial, DiffusionSampler, PatternDenoiser, SampleStream, Sampler, Selector,
    Validator,
};
use crate::stream::{GenerationRequest, StreamOptions};
use pp_diffusion::{
    load_checkpoint, load_checkpoint_with, read_config, save_checkpoint, write_config,
    CheckpointLineage, DiffusionModel,
};
use pp_geometry::Layout;
use pp_inpaint::{Mask, MaskSchedule, MaskSet};
use pp_pdk::SynthNode;
use pp_selection::PcaSelector;
use std::sync::Arc;

pub use crate::stream::CancelToken;

/// Artifact key of the engine manifest.
pub const ENGINE_META_KEY: &str = "engine.meta";
/// Artifact key of the model checkpoint.
pub const ENGINE_MODEL_KEY: &str = "model.ppck";

/// The shared, immutable snapshot an [`Engine`] (and the
/// [`crate::PatternPaint`] facade) is built around.
#[derive(Clone)]
pub(crate) struct EngineCore {
    pub(crate) node: SynthNode,
    pub(crate) cfg: PipelineConfig,
    pub(crate) model: Arc<DiffusionModel>,
    pub(crate) sampler_override: Option<Arc<dyn Sampler>>,
    pub(crate) denoiser: Arc<dyn PatternDenoiser>,
    pub(crate) validator: Arc<dyn Validator>,
    pub(crate) selector_override: Option<Arc<dyn Selector>>,
    pub(crate) starters: Vec<Layout>,
    pub(crate) seed: u64,
    pub(crate) finetuned: bool,
}

impl EngineCore {
    pub(crate) fn assemble(
        node: SynthNode,
        cfg: PipelineConfig,
        seed: u64,
        sampler_override: Option<Arc<dyn Sampler>>,
        denoiser: Arc<dyn PatternDenoiser>,
        validator: Arc<dyn Validator>,
        selector_override: Option<Arc<dyn Selector>>,
    ) -> Self {
        let starters = node.starter_patterns();
        EngineCore {
            model: Arc::new(DiffusionModel::new(cfg.model, seed)),
            node,
            cfg,
            sampler_override,
            denoiser,
            validator,
            selector_override,
            starters,
            seed,
            finetuned: false,
        }
    }

    /// The sampler a round runs through: the configured override, the
    /// shared scheduler when one is attached, or a
    /// [`DiffusionSampler`] with a private one.
    pub(crate) fn sampler(
        &self,
        cfg: &PipelineConfig,
        sched: Option<&SchedulerHandle>,
    ) -> Arc<dyn Sampler> {
        if let Some(s) = &self.sampler_override {
            return Arc::clone(s);
        }
        match sched {
            Some(handle) => Arc::new(ScheduledSampler::new(handle.clone(), cfg.batch_size)),
            None => Arc::new(DiffusionSampler::from_arc(
                Arc::clone(&self.model),
                cfg.threads,
                cfg.batch_size,
            )),
        }
    }

    /// The initial-generation request under `cfg` and `seed`: every
    /// starter × all ten predefined masks × `variations` (paper §IV-C).
    pub(crate) fn initial_request(&self, cfg: &PipelineConfig, seed: u64) -> GenerationRequest {
        let masks: Vec<Mask> = MaskSet::ALL
            .iter()
            .flat_map(|s| s.masks(self.node.clip()))
            .collect();
        GenerationRequest::fan_out(&self.starters, &masks, cfg.variations, seed ^ 0x1217)
    }

    pub(crate) fn generate_stream(
        &self,
        cfg: &PipelineConfig,
        sched: Option<&SchedulerHandle>,
        request: &GenerationRequest,
        opts: &StreamOptions,
    ) -> Result<SampleStream, PpError> {
        if request.jobs().is_empty() {
            return Err(PpError::EmptyRequest);
        }
        self.sampler(cfg, sched)
            .sample_stream(request.jobs(), request.seed(), opts)
    }

    pub(crate) fn run_request_into(
        &self,
        cfg: &PipelineConfig,
        sched: Option<&SchedulerHandle>,
        request: &GenerationRequest,
        opts: &StreamOptions,
        library: &mut PatternLibrary,
    ) -> Result<(usize, usize), PpError> {
        let (counts, error) = self.run_request_into_partial(cfg, sched, request, opts, library);
        match error {
            Some(e) => Err(e),
            None => Ok(counts),
        }
    }

    /// [`PatternPaintCore::run_request_into`] reporting partial
    /// progress alongside the failure, so an erroring round (a hard
    /// deadline, an aborted stream) still accounts the samples it
    /// admitted before dying.
    pub(crate) fn run_request_into_partial(
        &self,
        cfg: &PipelineConfig,
        sched: Option<&SchedulerHandle>,
        request: &GenerationRequest,
        opts: &StreamOptions,
        library: &mut PatternLibrary,
    ) -> ((usize, usize), Option<PpError>) {
        let mut opts = opts.clone();
        opts.tail_threads = Some(opts.tail_threads.unwrap_or(cfg.tail_threads));
        run_round_into_partial(
            self.sampler(cfg, sched).as_ref(),
            self.denoiser.as_ref(),
            self.validator.as_ref(),
            request,
            &opts,
            library,
        )
    }

    /// The iterative-generation loop (paper Alg. 2 / §IV-E), shared by
    /// [`Session::iterate`] and the facade.
    ///
    /// `first_iteration` is the zero-based index of the first round to
    /// run: per-round seeds (`seed ^ (0xabcd + it)`) and the sequential
    /// mask schedule both key off the absolute index, which is what
    /// makes a resumed session bit-identical to an uninterrupted one.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn iterate(
        &self,
        cfg: &PipelineConfig,
        sched: Option<&SchedulerHandle>,
        seed: u64,
        library: &mut PatternLibrary,
        iterations: usize,
        first_iteration: usize,
        mut legal_so_far: usize,
        opts: &StreamOptions,
    ) -> Result<Vec<IterationStats>, PpError> {
        let side = self.node.clip();
        let schedules = [
            MaskSchedule::new(MaskSet::Default, side),
            MaskSchedule::new(MaskSet::Horizontal, side),
        ];
        let default_selector;
        let selector: &dyn Selector = match &self.selector_override {
            Some(s) => s.as_ref(),
            None => {
                default_selector =
                    PcaSelector::try_new(cfg.pca_explained, cfg.max_density, seed ^ 0x5e1e)?;
                &default_selector
            }
        };
        let mut stats = Vec::with_capacity(iterations);
        for it in first_iteration..first_iteration + iterations {
            if opts.cancel.is_cancelled() {
                break;
            }
            let k = cfg.select_k.min(library.len().max(1));
            let picks = selector.select(library.patterns(), k);
            let per_seed = (cfg.samples_per_iteration / picks.len().max(1)).max(1);
            let mut jobs = JobSet::new();
            for (pi, &idx) in picks.iter().enumerate() {
                // One deep copy per pick; the per_seed variations share it.
                let template = Arc::new(library.patterns()[idx].clone());
                // Alternate mask sets per pattern; walk the set
                // sequentially across iterations (paper §IV-E2).
                let schedule = &schedules[pi % 2];
                let mask = Arc::new(schedule.mask_for(it, pi).clone());
                jobs.push_fan_out(&template, &mask, per_seed);
            }
            let request = GenerationRequest::new(jobs, seed ^ (0xabcd + it as u64));
            let (generated, legal) = self.run_request_into(cfg, sched, &request, opts, library)?;
            legal_so_far += legal;
            let lib_stats = library.stats();
            stats.push(IterationStats {
                iteration: it + 2, // iteration 1 is the initial round
                generated,
                legal_total: legal_so_far,
                unique_total: library.len(),
                h1: lib_stats.h1,
                h2: lib_stats.h2,
            });
        }
        Ok(stats)
    }
}

/// A long-lived, shareable snapshot of a trained PatternPaint stack.
///
/// The engine owns the trained model, noise schedule, PDK rules and
/// default stages behind `Arc` as an immutable, `Sync` value; cloning
/// is a pointer bump. Workloads run through [`Session`] handles
/// ([`Engine::session`]); a shared [`Scheduler`] ([`Engine::scheduler`])
/// interleaves many sessions' sampling onto one worker pool with
/// round-robin fairness. [`Engine::save`]/[`Engine::open`] persist and
/// restore the whole snapshot through an [`ArtifactStore`].
///
/// Built by [`crate::PipelineBuilder`] (`pretrained_engine()` /
/// `untrained_engine()`), from a facade via
/// [`crate::PatternPaint::engine`], or from a store via
/// [`Engine::open`].
#[derive(Clone)]
pub struct Engine {
    pub(crate) core: Arc<EngineCore>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("node", &self.core.node)
            .field("seed", &self.core.seed)
            .field("finetuned", &self.core.finetuned)
            .field("custom_sampler", &self.core.sampler_override.is_some())
            .field("custom_selector", &self.core.selector_override.is_some())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Starts assembling an engine; identical to
    /// [`crate::PatternPaint::builder`] but finished with
    /// [`crate::PipelineBuilder::pretrained_engine`] /
    /// [`crate::PipelineBuilder::untrained_engine`].
    pub fn builder(node: SynthNode, cfg: PipelineConfig) -> crate::builder::PipelineBuilder {
        crate::builder::PipelineBuilder::new(node, cfg)
    }

    /// The node this engine targets.
    pub fn node(&self) -> &SynthNode {
        &self.core.node
    }

    /// The engine-level configuration (sessions may override the
    /// request-shaping fields).
    pub fn config(&self) -> &PipelineConfig {
        &self.core.cfg
    }

    /// The shared diffusion model.
    pub fn model(&self) -> &DiffusionModel {
        &self.core.model
    }

    /// The engine's base RNG seed (sessions default to it).
    pub fn seed(&self) -> u64 {
        self.core.seed
    }

    /// Whether the snapshot was finetuned before freezing.
    pub fn is_finetuned(&self) -> bool {
        self.core.finetuned
    }

    /// The starter patterns.
    pub fn starters(&self) -> &[Layout] {
        &self.core.starters
    }

    /// A fresh session with the engine's config and seed.
    pub fn session(&self) -> Session {
        self.session_seeded(self.core.seed)
    }

    /// A fresh session with its own seed (requests and selection derive
    /// their RNG streams from it exactly as a solo pipeline would).
    pub fn session_seeded(&self, seed: u64) -> Session {
        Session {
            core: Arc::clone(&self.core),
            cfg: self.core.cfg,
            seed,
            opts: StreamOptions::default(),
            scheduler: None,
            library: PatternLibrary::new(),
            legal_total: 0,
            generated_total: 0,
            next_iteration: 0,
        }
    }

    /// Spawns a shared sampling worker pool serving this engine's
    /// sessions with round-robin fairness (see [`crate::scheduler`]).
    /// Keep it alive while attached sessions run.
    pub fn scheduler(&self, threads: usize) -> Scheduler {
        Scheduler::new(Arc::clone(&self.core.model), threads)
    }

    /// [`Engine::scheduler`] with an explicit [`crate::SchedPolicy`]
    /// and per-class admission bounds:
    ///
    /// ```no_run
    /// # use patternpaint_core::{Engine, PipelineConfig, QueueLimits, SchedulerOptions, WeightedFair};
    /// # use pp_pdk::SynthNode;
    /// # fn main() -> Result<(), patternpaint_core::PpError> {
    /// # let engine = Engine::builder(SynthNode::default(), PipelineConfig::quick()).untrained_engine()?;
    /// let scheduler = engine.scheduler_with(
    ///     4,
    ///     SchedulerOptions::new()
    ///         .policy(WeightedFair)
    ///         .limits(QueueLimits::uniform(32)),
    /// );
    /// # let _ = scheduler;
    /// # Ok(())
    /// # }
    /// ```
    pub fn scheduler_with(&self, threads: usize, options: SchedulerOptions) -> Scheduler {
        Scheduler::new_with(Arc::clone(&self.core.model), threads, options)
    }

    /// Persists the engine snapshot: a versioned model checkpoint under
    /// [`ENGINE_MODEL_KEY`] and a manifest (node, config, seed,
    /// finetune flag) under [`ENGINE_META_KEY`].
    ///
    /// Stage overrides (custom samplers/validators/selectors) are code,
    /// not data, and are not persisted; [`Engine::open`] rebuilds the
    /// default stages.
    ///
    /// # Errors
    ///
    /// [`PpError::Checkpoint`] when the model fails to serialise,
    /// [`PpError::Artifact`] when the store rejects a write.
    pub fn save(&self, store: &dyn ArtifactStore) -> Result<(), PpError> {
        let mut meta = ByteWriter::new();
        meta.bytes(b"PPEG");
        meta.u32(1); // manifest version
        meta.u32(self.core.node.clip());
        meta.u32(self.core.node.pitch());
        meta.u64(self.core.seed);
        meta.u8(u8::from(self.core.finetuned));
        encode_config(&mut meta, &self.core.cfg);
        let mut checkpoint = Vec::new();
        // save_weights walks parameters mutably; serialise a private
        // clone so the shared snapshot stays untouched.
        let mut model = (*self.core.model).clone();
        save_checkpoint(&mut model, &mut checkpoint)?;
        store.put(ENGINE_MODEL_KEY, &checkpoint)?;
        store.put(ENGINE_META_KEY, &meta.into_vec())?;
        Ok(())
    }

    /// Restores an engine saved by [`Engine::save`]: reads the manifest
    /// and checkpoint, rebuilds the node and default stages, and
    /// validates that the checkpointed model matches the manifest's
    /// architecture.
    ///
    /// # Errors
    ///
    /// [`PpError::Artifact`] when either key is missing, unreadable or
    /// corrupt; [`PpError::Checkpoint`] when the model checkpoint fails
    /// validation; [`PpError::Config`]/[`PpError::Shape`] when the
    /// restored configuration no longer validates.
    pub fn open(store: &dyn ArtifactStore) -> Result<Engine, PpError> {
        let meta = store.get(ENGINE_META_KEY)?;
        let corrupt =
            |detail: String| PpError::Artifact(ArtifactError::corrupt(ENGINE_META_KEY, detail));
        let mut r = ByteReader::new(&meta);
        if r.bytes(4, "magic").map_err(corrupt)? != b"PPEG" {
            return Err(corrupt("missing PPEG magic".into()));
        }
        let version = r.u32("version").map_err(corrupt)?;
        if version != 1 {
            return Err(corrupt(format!("unsupported manifest version {version}")));
        }
        let clip = r.u32("clip").map_err(corrupt)?;
        let pitch = r.u32("pitch").map_err(corrupt)?;
        let seed = r.u64("seed").map_err(corrupt)?;
        let finetuned = r.u8("finetuned").map_err(corrupt)? != 0;
        let cfg = decode_config(&mut r).map_err(corrupt)?;
        r.expect_end("engine manifest").map_err(corrupt)?;
        let checkpoint = store.get(ENGINE_MODEL_KEY)?;
        let model = load_checkpoint(checkpoint.as_slice())?;
        if model.config() != cfg.model {
            return Err(PpError::Artifact(ArtifactError::corrupt(
                ENGINE_MODEL_KEY,
                "checkpoint architecture disagrees with the engine manifest",
            )));
        }
        let pp = crate::builder::PipelineBuilder::new(SynthNode::new(clip, pitch), cfg)
            .seed(seed)
            .untrained()?;
        let mut core = Arc::try_unwrap(pp.into_engine().core).unwrap_or_else(|arc| (*arc).clone());
        core.model = Arc::new(model);
        core.finetuned = finetuned;
        Ok(Engine {
            core: Arc::new(core),
        })
    }

    /// A new engine identical to this one but serving `model` — the
    /// fork point for fine-tuned weights: node, config, seed, starters
    /// and stage overrides carry over; the snapshot is marked
    /// finetuned.
    ///
    /// # Errors
    ///
    /// [`PpError::Config`] when `model`'s architecture differs from
    /// this engine's (a fine-tune never changes shapes; anything else
    /// is not a fork of this engine).
    pub fn with_model(&self, model: DiffusionModel) -> Result<Engine, PpError> {
        if model.config() != self.core.cfg.model {
            return Err(PpError::Config(
                "with_model: the model's architecture differs from the engine's".into(),
            ));
        }
        let mut core = (*self.core).clone();
        core.model = Arc::new(model);
        core.finetuned = true;
        Ok(Engine {
            core: Arc::new(core),
        })
    }

    /// Opens a fine-tuned checkpoint (one written by a
    /// [`crate::JobKind::Train`] job) as a new engine forked from this
    /// one, returning the checkpoint's lineage so the caller can verify
    /// parent/epoch provenance. The new engine serves generation
    /// through [`crate::Service`] / [`crate::Fleet`] exactly like any
    /// other — A/B it against this one via
    /// [`crate::Fleet::from_engines`].
    ///
    /// # Errors
    ///
    /// [`PpError::Artifact`] when the key is missing or unreadable,
    /// [`PpError::Checkpoint`] when the checkpoint is corrupt,
    /// [`PpError::Config`] when its architecture differs from this
    /// engine's.
    pub fn open_trained(
        &self,
        store: &dyn ArtifactStore,
        key: &str,
    ) -> Result<(Engine, CheckpointLineage), PpError> {
        let bytes = store.get(key)?;
        let (model, lineage) = load_checkpoint_with(bytes.as_slice())?;
        Ok((self.with_model(model)?, lineage))
    }
}

/// One workload's handle onto a shared [`Engine`].
///
/// A session owns everything per-workload — library, seed, config
/// overrides, stream options, iteration cursor — while sampling runs
/// against the engine's immutable model (optionally through a shared
/// [`Scheduler`]). Its entry points mirror the facade's round methods,
/// and its outputs are bit-identical to a solo [`crate::PatternPaint`]
/// with the same node, config and seed.
#[derive(Clone)]
pub struct Session {
    core: Arc<EngineCore>,
    cfg: PipelineConfig,
    seed: u64,
    opts: StreamOptions,
    scheduler: Option<SchedulerHandle>,
    library: PatternLibrary,
    legal_total: usize,
    generated_total: usize,
    next_iteration: usize,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("seed", &self.seed)
            .field("library_len", &self.library.len())
            .field("legal_total", &self.legal_total)
            .field("generated_total", &self.generated_total)
            .field("next_iteration", &self.next_iteration)
            .field("scheduled", &self.scheduler.is_some())
            .finish_non_exhaustive()
    }
}

impl Session {
    /// The engine this session runs on.
    pub fn engine(&self) -> Engine {
        Engine {
            core: Arc::clone(&self.core),
        }
    }

    /// The session's effective configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// The session seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Overrides the request-shaping configuration (variations,
    /// selection budgets, thread counts, …).
    ///
    /// # Errors
    ///
    /// [`PpError::Config`] when `cfg` fails validation or tries to
    /// change the model architecture — that belongs to the engine.
    pub fn with_config(mut self, cfg: PipelineConfig) -> Result<Session, PpError> {
        cfg.validate()?;
        if cfg.model != self.core.cfg.model {
            return Err(PpError::Config(
                "session config must keep the engine's model architecture".into(),
            ));
        }
        self.cfg = cfg;
        Ok(self)
    }

    /// Overrides the session seed.
    pub fn with_seed(mut self, seed: u64) -> Session {
        self.seed = seed;
        self
    }

    /// Replaces the stream options (progress hook, cancellation token,
    /// backpressure, tail threads, QoS class/deadline) applied to every
    /// round this session runs.
    pub fn with_options(mut self, opts: StreamOptions) -> Session {
        self.opts = opts;
        self
    }

    /// Sets the QoS class this session's scheduler submissions carry
    /// (admission queue + share weight under class-aware policies).
    /// Shorthand for adjusting [`Session::with_options`].
    pub fn with_class(mut self, class: QosClass) -> Session {
        self.opts.class = class;
        self
    }

    /// Sets the soft deadline (from each submission) this session's
    /// scheduler submissions carry, ordering them under
    /// [`crate::DeadlineFirst`].
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> Session {
        self.opts.deadline = Some(deadline);
        self
    }

    /// Routes this session's sampling through a shared scheduler
    /// instead of a private per-round one. Results are bit-identical
    /// either way.
    pub fn attach(mut self, scheduler: &Scheduler) -> Session {
        self.scheduler = Some(scheduler.handle());
        self
    }

    /// Routes sampling through an existing scheduler handle (same
    /// session id as every other user of that handle). The service's
    /// retry loop uses this so all attempts of one job share one
    /// scheduler session — stats attribution and [`crate::FaultPlan`]
    /// keying stay stable across retries.
    pub(crate) fn attach_handle(mut self, handle: crate::scheduler::SchedulerHandle) -> Session {
        self.scheduler = Some(handle);
        self
    }

    /// The session's stream options.
    pub fn options(&self) -> &StreamOptions {
        &self.opts
    }

    /// The library grown so far.
    pub fn library(&self) -> &PatternLibrary {
        &self.library
    }

    /// Consumes the session, returning its library.
    pub fn into_library(self) -> PatternLibrary {
        self.library
    }

    /// Cumulative legal samples across all rounds run by this session.
    pub fn legal_total(&self) -> usize {
        self.legal_total
    }

    /// Cumulative samples generated across all rounds.
    pub fn generated_total(&self) -> usize {
        self.generated_total
    }

    /// Zero-based index of the next iterative-generation round
    /// ([`Session::iterate`] advances it; resume restores it).
    pub fn next_iteration(&self) -> usize {
        self.next_iteration
    }

    /// Seeds the library with the engine's starter patterns, the usual
    /// prelude before [`Session::iterate`] on sparse initial rounds.
    pub fn seed_starters(&mut self) {
        let starters = self.core.starters.clone();
        self.library.extend(starters);
    }

    /// The session's initial-generation request.
    pub fn initial_request(&self) -> GenerationRequest {
        self.core.initial_request(&self.cfg, self.seed)
    }

    /// Streams raw samples for `request` under the session options
    /// without touching the library.
    ///
    /// # Errors
    ///
    /// [`PpError::EmptyRequest`] when the request has no jobs, plus
    /// anything the sampler reports.
    pub fn generate_stream(&self, request: &GenerationRequest) -> Result<SampleStream, PpError> {
        self.core
            .generate_stream(&self.cfg, self.scheduler.as_ref(), request, &self.opts)
    }

    /// Runs one full round for `request` into the session library;
    /// returns `(generated, legal)` for the round and updates the
    /// cumulative counters.
    ///
    /// On error the counters (and the library) still reflect every
    /// sample admitted before the round died — a hard-deadline abort
    /// keeps its partial results, which is what
    /// [`crate::JobOutcome::TimedOut`] reports.
    ///
    /// # Errors
    ///
    /// Anything [`Session::generate_stream`] reports.
    pub fn run_request(&mut self, request: &GenerationRequest) -> Result<(usize, usize), PpError> {
        let ((generated, legal), error) = self.core.run_request_into_partial(
            &self.cfg,
            self.scheduler.as_ref(),
            request,
            &self.opts,
            &mut self.library,
        );
        self.generated_total += generated;
        self.legal_total += legal;
        match error {
            Some(e) => Err(e),
            None => Ok((generated, legal)),
        }
    }

    /// Stage 2 for this session: the initial generation round into the
    /// session library; returns `(generated, legal)`.
    ///
    /// # Errors
    ///
    /// Anything [`Session::generate_stream`] reports.
    pub fn initial_generation(&mut self) -> Result<(usize, usize), PpError> {
        self.run_request(&self.initial_request())
    }

    /// Stages 3–4 for this session: `iterations` rounds of selection +
    /// re-inpainting, continuing from wherever the session's iteration
    /// cursor points (so a resumed session picks up exactly where it
    /// stopped).
    ///
    /// # Errors
    ///
    /// [`PpError::Config`] when the selection parameters are invalid,
    /// plus anything [`Session::generate_stream`] reports.
    pub fn iterate(&mut self, iterations: usize) -> Result<Vec<IterationStats>, PpError> {
        let stats = self.core.iterate(
            &self.cfg,
            self.scheduler.as_ref(),
            self.seed,
            &mut self.library,
            iterations,
            self.next_iteration,
            self.legal_total,
            &self.opts,
        )?;
        self.next_iteration += stats.len();
        for st in &stats {
            self.generated_total += st.generated;
        }
        self.legal_total = stats.last().map_or(self.legal_total, |st| st.legal_total);
        Ok(stats)
    }

    /// A [`GenerationRound`] view of the whole session so far.
    pub fn round_summary(&self) -> GenerationRound {
        GenerationRound {
            generated: self.generated_total,
            legal: self.legal_total,
            library: self.library.clone(),
        }
    }

    /// Persists the session (library in squish form + progress
    /// counters + config) under `session-<name>.*` keys.
    ///
    /// # Errors
    ///
    /// [`PpError::Artifact`] when the store rejects a write or the name
    /// is not a valid key fragment; [`PpError::Io`] when library
    /// serialisation fails.
    pub fn save(&self, store: &dyn ArtifactStore, name: &str) -> Result<(), PpError> {
        let (meta_key, lib_key) = session_keys(name);
        let mut meta = ByteWriter::new();
        meta.bytes(b"PPSS");
        meta.u32(1); // manifest version
        meta.u64(self.seed);
        meta.u64(self.legal_total as u64);
        meta.u64(self.generated_total as u64);
        meta.u64(self.next_iteration as u64);
        encode_config(&mut meta, &self.cfg);
        let mut lib_bytes = Vec::new();
        self.library.write_squish(&mut lib_bytes)?;
        store.put(&lib_key, &lib_bytes)?;
        store.put(&meta_key, &meta.into_vec())?;
        Ok(())
    }

    /// Restores a session saved by [`Session::save`] onto `engine`,
    /// with library contents, signatures, statistics and the iteration
    /// cursor exactly as they were — continuing [`Session::iterate`]
    /// afterwards produces output identical to a run that never
    /// stopped.
    ///
    /// The restored session starts with default stream options and no
    /// scheduler; re-attach via [`Session::with_options`] /
    /// [`Session::attach`].
    ///
    /// # Errors
    ///
    /// [`PpError::Artifact`] when the keys are missing or corrupt,
    /// [`PpError::Config`] when the stored config no longer fits the
    /// engine's model.
    pub fn resume(
        engine: &Engine,
        store: &dyn ArtifactStore,
        name: &str,
    ) -> Result<Session, PpError> {
        let (meta_key, lib_key) = session_keys(name);
        let meta = store.get(&meta_key)?;
        let corrupt = |detail: String| PpError::Artifact(ArtifactError::corrupt(&meta_key, detail));
        let mut r = ByteReader::new(&meta);
        if r.bytes(4, "magic").map_err(corrupt)? != b"PPSS" {
            return Err(corrupt("missing PPSS magic".into()));
        }
        let version = r.u32("version").map_err(corrupt)?;
        if version != 1 {
            return Err(corrupt(format!("unsupported manifest version {version}")));
        }
        let seed = r.u64("seed").map_err(corrupt)?;
        let legal_total = r.u64("legal_total").map_err(corrupt)? as usize;
        let generated_total = r.u64("generated_total").map_err(corrupt)? as usize;
        let next_iteration = r.u64("next_iteration").map_err(corrupt)? as usize;
        let cfg = decode_config(&mut r).map_err(corrupt)?;
        r.expect_end("session manifest").map_err(corrupt)?;
        let lib_bytes = store.get(&lib_key)?;
        let library = PatternLibrary::read_squish(lib_bytes.as_slice())
            .map_err(|e| PpError::Artifact(ArtifactError::corrupt(&lib_key, e.to_string())))?;
        let session = engine
            .session_seeded(seed)
            .with_config(cfg)
            .map_err(|e| PpError::Config(format!("stored session config rejected: {e}")))?;
        Ok(Session {
            library,
            legal_total,
            generated_total,
            next_iteration,
            ..session
        })
    }
}

/// The manifest + library key pair for a named session — shared with
/// the fleet router, which targets these keys when migrating a pinned
/// session between replica stores.
pub(crate) fn session_keys(name: &str) -> (String, String) {
    (
        format!("session-{name}.meta"),
        format!("session-{name}.ppsq"),
    )
}

/// Serialises a [`PipelineConfig`] into a manifest blob. The model
/// section reuses `pp_diffusion`'s one [`write_config`] codec, so a
/// new `DiffusionConfig` field or enum variant is a single edit there.
pub(crate) fn encode_config(w: &mut ByteWriter, cfg: &PipelineConfig) {
    write_config(&cfg.model, w).expect("in-memory manifest writer cannot fail");
    w.u64(cfg.pretrain.corpus as u64);
    w.u64(cfg.pretrain.steps as u64);
    w.u64(cfg.pretrain.batch as u64);
    w.f32(cfg.pretrain.lr);
    w.u64(cfg.finetune.steps as u64);
    w.u64(cfg.finetune.batch as u64);
    w.f32(cfg.finetune.lr);
    w.f32(cfg.finetune.lambda);
    w.u64(cfg.finetune.prior_count as u64);
    w.u64(cfg.variations as u64);
    w.u32(cfg.denoise_threshold);
    w.u64(cfg.select_k as u64);
    w.u64(cfg.samples_per_iteration as u64);
    w.f64(cfg.max_density);
    w.f64(cfg.pca_explained);
    w.u64(cfg.threads as u64);
    w.u64(cfg.batch_size as u64);
    w.u64(cfg.tail_threads as u64);
}

/// Deserialises what [`encode_config`] wrote.
pub(crate) fn decode_config(r: &mut ByteReader<'_>) -> Result<PipelineConfig, String> {
    let model = read_config(r).map_err(|e| e.to_string())?;
    Ok(PipelineConfig {
        model,
        pretrain: PretrainConfig {
            corpus: r.u64("pretrain.corpus")? as usize,
            steps: r.u64("pretrain.steps")? as usize,
            batch: r.u64("pretrain.batch")? as usize,
            lr: r.f32("pretrain.lr")?,
        },
        finetune: FinetuneConfig {
            steps: r.u64("finetune.steps")? as usize,
            batch: r.u64("finetune.batch")? as usize,
            lr: r.f32("finetune.lr")?,
            lambda: r.f32("finetune.lambda")?,
            prior_count: r.u64("finetune.prior_count")? as usize,
        },
        variations: r.u64("variations")? as usize,
        denoise_threshold: r.u32("denoise_threshold")?,
        select_k: r.u64("select_k")? as usize,
        samples_per_iteration: r.u64("samples_per_iteration")? as usize,
        max_density: r.f64("max_density")?,
        pca_explained: r.f64("pca_explained")?,
        threads: r.u64("threads")? as usize,
        batch_size: r.u64("batch_size")? as usize,
        tail_threads: r.u64("tail_threads")? as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::MemStore;
    use crate::pipeline::PatternPaint;

    fn tiny_engine() -> Engine {
        PatternPaint::pretrained(SynthNode::small(), PipelineConfig::tiny(), 1)
            .expect("tiny config is valid")
            .engine()
    }

    #[test]
    fn config_blob_roundtrips() {
        for cfg in [
            PipelineConfig::tiny(),
            PipelineConfig::quick(),
            PipelineConfig::standard(),
        ] {
            let mut w = ByteWriter::new();
            encode_config(&mut w, &cfg);
            let blob = w.into_vec();
            let mut r = ByteReader::new(&blob);
            let back = decode_config(&mut r).unwrap();
            r.expect_end("config").unwrap();
            assert_eq!(back, cfg);
        }
    }

    #[test]
    fn session_matches_facade_round() {
        let engine = tiny_engine();
        let pp = PatternPaint::from_engine(engine.clone());
        let round = pp.initial_generation().expect("facade round runs");
        let mut session = engine.session();
        let (generated, legal) = session.initial_generation().expect("session round runs");
        assert_eq!(generated, round.generated);
        assert_eq!(legal, round.legal);
        assert_eq!(session.library().patterns(), round.library.patterns());
    }

    #[test]
    fn session_config_override_keeps_model_fixed() {
        let engine = tiny_engine();
        let mut cfg = *engine.config();
        cfg.variations = 2;
        assert!(engine.session().with_config(cfg).is_ok());
        let mut bad = *engine.config();
        bad.model.base_ch += 1;
        let err = engine.session().with_config(bad).unwrap_err();
        assert!(matches!(err, PpError::Config(_)), "wrong error: {err}");
        let mut invalid = *engine.config();
        invalid.variations = 0;
        assert!(engine.session().with_config(invalid).is_err());
    }

    #[test]
    fn engine_save_open_roundtrip() {
        let engine = tiny_engine();
        let store = MemStore::new();
        engine.save(&store).expect("save succeeds");
        assert!(store.contains(ENGINE_META_KEY).unwrap());
        assert!(store.contains(ENGINE_MODEL_KEY).unwrap());
        let back = Engine::open(&store).expect("open succeeds");
        assert_eq!(back.node(), engine.node());
        assert_eq!(back.config(), engine.config());
        assert_eq!(back.seed(), engine.seed());
        assert_eq!(back.is_finetuned(), engine.is_finetuned());
        // The restored model samples identically.
        let mut a = engine.session();
        let mut b = back.session();
        let (ga, la) = a.initial_generation().unwrap();
        let (gb, lb) = b.initial_generation().unwrap();
        assert_eq!((ga, la), (gb, lb));
        assert_eq!(a.library().patterns(), b.library().patterns());
    }

    #[test]
    fn open_rejects_corrupt_manifest() {
        let engine = tiny_engine();
        let store = MemStore::new();
        engine.save(&store).unwrap();
        let mut meta = store.get(ENGINE_META_KEY).unwrap();
        meta[0] = b'X';
        store.put(ENGINE_META_KEY, &meta).unwrap();
        let err = Engine::open(&store).unwrap_err();
        assert!(matches!(err, PpError::Artifact(_)), "wrong error: {err}");
        // Missing checkpoint key.
        let store2 = MemStore::new();
        engine.save(&store2).unwrap();
        let meta = store2.get(ENGINE_META_KEY).unwrap();
        let fresh = MemStore::new();
        fresh.put(ENGINE_META_KEY, &meta).unwrap();
        let err = Engine::open(&fresh).unwrap_err();
        assert!(
            matches!(
                &err,
                PpError::Artifact(ArtifactError::Missing { key }) if key == ENGINE_MODEL_KEY
            ),
            "wrong error: {err}"
        );
    }

    #[test]
    fn session_save_resume_roundtrip() {
        let engine = tiny_engine();
        let store = MemStore::new();
        let mut session = engine.session_seeded(9);
        session.initial_generation().unwrap();
        session.seed_starters();
        session.iterate(1).unwrap();
        session.save(&store, "tenant-a").unwrap();
        let resumed = Session::resume(&engine, &store, "tenant-a").unwrap();
        assert_eq!(resumed.seed(), session.seed());
        assert_eq!(resumed.legal_total(), session.legal_total());
        assert_eq!(resumed.generated_total(), session.generated_total());
        assert_eq!(resumed.next_iteration(), session.next_iteration());
        assert_eq!(resumed.library().patterns(), session.library().patterns());
        let a = resumed.library().stats();
        let b = session.library().stats();
        assert_eq!((a.count, a.unique), (b.count, b.unique));
        assert_eq!(a.h1.to_bits(), b.h1.to_bits());
        assert_eq!(a.h2.to_bits(), b.h2.to_bits());
    }
}
