//! The PatternPaint pipeline (the paper's primary contribution), as a
//! service-grade generation API.
//!
//! PatternPaint turns a handful of DR-clean starter patterns into a
//! large, diverse, DR-clean pattern library using a pretrained image
//! inpainting diffusion model — no rule-based generator and no nonlinear
//! legalization solver. The pipeline (paper Figure 4):
//!
//! 1. **Few-shot finetuning** ([`PatternPaint::finetune`]) —
//!    DreamBooth-style adaptation of the pretrained model on the ~20
//!    starters, with prior-preservation samples drawn from the model
//!    itself;
//! 2. **Initial generation** ([`PatternPaint::initial_generation`]) —
//!    every starter × every predefined mask × `v` variations;
//! 3. **Template-based denoising + DRC** — each raw sample is snapped
//!    back onto the scan-line grid (`pp-inpaint`) and validated with the
//!    sign-off checker (`pp-drc`); clean, novel patterns enter the
//!    [`PatternLibrary`];
//! 4. **PCA-based selection + iterative generation**
//!    ([`PatternPaint::iterative_generation`]) — representative,
//!    low-density layouts are selected (`pp-selection`) and re-inpainted
//!    under sequentially scheduled masks, growing diversity (H2) round
//!    after round.
//!
//! # The API, in four layers
//!
//! **Jobs and errors.** Work is described as [`JobSet`]s of shared
//! `(template, mask)` pairs, and everything that can fail returns
//! [`PpError`] (config, shape-mismatch, model, io, empty-request
//! variants) instead of panicking — construction included:
//! [`PatternPaint::pretrained`] / [`PatternPaint::untrained`] are
//! fallible.
//!
//! **Stages.** Each pipeline stage is a trait ([`Sampler`],
//! [`PatternDenoiser`], [`Validator`], [`Selector`] — see
//! [`stages`]) with the paper's implementation as the default;
//! [`PipelineBuilder`] assembles them. Prior-work baselines implement
//! [`Sampler`] in `pp-baselines`, so the Table I/II benches drive every
//! method through the one [`stages::run_round`] harness.
//!
//! **Streams.** [`PatternPaint::generate_stream`] turns a
//! [`GenerationRequest`] into an iterator of raw samples, delivered in
//! job order as they finish, with a [`ProgressHook`] and a cooperative
//! [`CancelToken`] checked at every slot admission. Every stream runs
//! through a [`Scheduler`] — a private one per request unless a session
//! is attached to a shared one. The round-level entry points are
//! consumers of this stream, so blocking and streaming callers see
//! bit-identical results.
//!
//! **Engine + sessions.** [`Engine`] freezes a trained stack into an
//! immutable, `Sync` snapshot shared behind `Arc`; [`Session`] handles
//! carry per-workload state (library, seed, config overrides,
//! iteration cursor), and [`Engine::scheduler`] spawns one worker pool
//! that interleaves all sessions' sampling round-robin — N concurrent
//! sessions reproduce N solo pipelines bit for bit. The artifact layer
//! ([`artifact`]: [`ArtifactStore`], [`DirStore`], [`MemStore`])
//! persists versioned model checkpoints and squish-form libraries, so
//! [`Engine::open`] / [`Session::resume`] continue a run exactly where
//! it stopped. [`PatternPaint`] itself is a facade over one engine +
//! one implicit session.
//!
//! **QoS front door.** [`Service`] sits on top for multi-tenant
//! serving: tenants submit declarative [`JobSpec`]s (kind, QoS class,
//! soft deadline, sample budget, config shaping) and hold
//! [`JobHandle`]s (poll / wait / progress / cancel) resolving to a
//! terminal [`JobOutcome`]. Underneath, the scheduler's dispatch
//! decision is a pluggable [`SchedPolicy`] ([`RoundRobin`] default,
//! [`WeightedFair`], [`DeadlineFirst`]), per-class queues are bounded
//! ([`QueueLimits`], overflow → [`PpError::Rejected`]), and
//! [`Scheduler::stats`] snapshots queue depths and dispatch counters
//! ([`SchedulerStats`]). The runtime underneath is *supervised*: worker
//! panics are isolated to the one submission that was running
//! ([`PpError::WorkerPanic`]), and the whole story is provable through
//! deterministic fault injection ([`fault`],
//! `tests/chaos_scheduler.rs`).
//!
//! **One job lifecycle, one dispatcher shape.** Every admitted job, on
//! either front door, goes through the same lifecycle: per-class
//! admission counted once, its own thread, a fresh seeded session per
//! attempt, one classification of each attempt, [`RetryPolicy`]
//! retries of transient failures with bounded backoff, hard deadlines
//! resolving to [`JobOutcome::TimedOut`] with partial results, and
//! settlement exactly once — a panic in a stage on the job's thread
//! settles the job `Failed` instead of losing it. Every attempt submits
//! straight into a scheduler, whose policy ranks it against every other
//! job there. [`Service`] runs every attempt on its one scheduler.
//! [`Fleet`] places each attempt on one of N engine replicas opened from
//! one checkpoint: admission is back-pressure-aware on aggregated
//! [`SchedulerStats`], session-affinity keys pin iterative work to the
//! replica holding its state and run same-key jobs in submit order
//! (with explicit PPSQ migration when that replica is lost or drained),
//! an attempt on a lost replica fails over to a peer, and per-job
//! results stay bit-identical to a single replica. [`Fleet::stats`]
//! exposes per-replica and merged counters ([`FleetStats`]).
//!
//! **Training.** Fine-tuning is a job too: [`JobSpec::train`] runs a
//! [`TrainSpec`] (dataset synthesis from the PDK + saved session
//! libraries, masked-inpainting loss, Adam, optional EMA shadow
//! weights) under the same service — preemptible between epochs when
//! higher QoS classes have queued work, checkpointed every epoch with
//! parent/epoch lineage, and resumable bit-identically after any
//! interruption ([`train`], `tests/train_jobs.rs`).
//!
//! # Example
//!
//! ```no_run
//! use patternpaint_core::{PatternPaint, PipelineConfig, StreamOptions};
//! use pp_pdk::SynthNode;
//!
//! # fn main() -> Result<(), patternpaint_core::PpError> {
//! let node = SynthNode::default();
//! let mut pp = PatternPaint::builder(node, PipelineConfig::quick())
//!     .seed(0)
//!     .pretrained()?;
//! pp.finetune()?;
//!
//! // Blocking round...
//! let round = pp.initial_generation()?;
//! println!("legal {} / generated {}", round.legal, round.generated);
//!
//! // ...or the same samples, streamed with progress metering.
//! let opts = StreamOptions::default()
//!     .with_progress(|p| eprintln!("{}/{}", p.completed, p.total));
//! for sample in pp.generate_stream(&pp.initial_request(), &opts)? {
//!     let _raw = sample?;
//! }
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/quickstart.rs` for an end-to-end run and the README
//! migration table for the pre-stream API mapping.

#![forbid(unsafe_code)]

pub mod artifact;
pub mod builder;
pub mod config;
pub mod engine;
pub mod error;
pub mod fault;
pub mod fleet;
pub mod jobs;
pub mod jobspec;
pub mod library;
mod lifecycle;
pub mod pipeline;
pub mod scheduler;
pub mod service;
pub mod stages;
pub mod stream;
mod tail;
pub mod train;

pub use artifact::{copy_artifacts, ArtifactError, ArtifactStore, DirStore, MemStore};
pub use builder::PipelineBuilder;
pub use config::{FinetuneConfig, PipelineConfig, PretrainConfig};
pub use engine::{Engine, Session, ENGINE_META_KEY, ENGINE_MODEL_KEY};
pub use error::PpError;
pub use fault::{Fault, FaultPlan};
pub use fleet::{Fleet, FleetOptions, FleetStats, ReplicaStats};
pub use jobs::JobSet;
pub use jobspec::{JobKind, JobSpec, QosClass, RetryPolicy};
pub use library::PatternLibrary;
pub use lifecycle::{JobHandle, JobOutcome, JobReport, JobStatus};
pub use pipeline::{GenerationRound, IterationStats, PatternPaint, RawSample};
pub use scheduler::{
    ClassCounts, DeadlineFirst, QueueLimits, RoundRobin, SchedPolicy, SchedView, ScheduledSampler,
    Scheduler, SchedulerHandle, SchedulerOptions, SchedulerStats, SessionSched, WeightedFair,
};
pub use service::{Service, ServiceOptions, ServiceStats};
pub use stages::{
    run_round, run_round_into, DiffusionSampler, DrcValidator, PatternDenoiser, SampleStream,
    Sampler, Selector, Validator,
};
pub use stream::{CancelToken, GenerationRequest, Progress, ProgressHook, StreamOptions};
pub use train::{ExportWeights, TrainRun, TrainSpec, TrainSummary};
