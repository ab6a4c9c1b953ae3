//! Declarative job specifications: what a workload *is*, separate from
//! how the service runs it.
//!
//! A [`JobSpec`] names the workload kind (the paper's initial round,
//! the full iterative pipeline, or an explicit raw request), its
//! quality-of-service class, and the per-job intent that used to be
//! smuggled through config overrides: an optional soft deadline, an
//! optional sample budget, a seed, and request-shaping configuration.
//! Specs are plain data — build one anywhere, submit it to
//! [`crate::Service::submit`], persist it with [`JobSpec::encode`].
//!
//! The QoS class feeds two mechanisms downstream:
//!
//! * **admission control** — each class has its own bounded queue at
//!   the scheduler and the service front door
//!   ([`crate::QueueLimits`]); overflow returns
//!   [`crate::PpError::Rejected`] instead of growing without bound;
//! * **scheduling policy** — [`crate::WeightedFair`] shares sampling
//!   micro-batches by class weight ([`QosClass::weight`]), and
//!   [`crate::DeadlineFirst`] orders by the spec's soft deadline.

use crate::artifact::{ByteReader, ByteWriter, CodecError};
use crate::config::PipelineConfig;
use crate::engine::{decode_config, encode_config};
use crate::error::PpError;
use crate::stream::GenerationRequest;
use crate::train::{ExportWeights, TrainSpec};
use std::fmt;
use std::time::Duration;

/// Quality-of-service class of a workload.
///
/// The class is advisory under the default [`crate::RoundRobin`] policy
/// (every submission gets an equal micro-batch share) and load-bearing
/// under [`crate::WeightedFair`], which shares the sampling pool
/// proportionally to [`QosClass::weight`]. Admission control is always
/// per class: each class has its own bounded queue, so a flood of
/// best-effort work can never push interactive work into rejection.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QosClass {
    /// Latency-sensitive work (a designer waiting at a prompt).
    Interactive,
    /// Normal throughput work (the default).
    #[default]
    Batch,
    /// Scavenger work that only runs when nothing better is queued
    /// for its share.
    BestEffort,
}

impl fmt::Display for QosClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            QosClass::Interactive => "interactive",
            QosClass::Batch => "batch",
            QosClass::BestEffort => "best-effort",
        })
    }
}

impl QosClass {
    /// Every class, in priority order.
    pub const ALL: [QosClass; 3] = [QosClass::Interactive, QosClass::Batch, QosClass::BestEffort];

    /// The class's [`crate::WeightedFair`] share weight
    /// (interactive 4 : batch 2 : best-effort 1).
    pub fn weight(self) -> u32 {
        match self {
            QosClass::Interactive => 4,
            QosClass::Batch => 2,
            QosClass::BestEffort => 1,
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            QosClass::Interactive => 0,
            QosClass::Batch => 1,
            QosClass::BestEffort => 2,
        }
    }

    fn tag(self) -> u8 {
        self.index() as u8
    }

    fn from_tag(tag: u8) -> Result<QosClass, CodecError> {
        QosClass::ALL
            .get(tag as usize)
            .copied()
            .ok_or_else(|| CodecError::corrupt("class", format!("unknown QoS class tag {tag}")))
    }
}

/// How the service re-runs a job that failed on a *transient* fault
/// (one where [`PpError::is_transient`] is true: a worker panic or an
/// I/O failure). Non-transient failures — bad config, admission
/// rejection, an expired deadline — never retry, because re-running an
/// invalid or expired request cannot fix it.
///
/// Retries are deterministic: every attempt runs on a fresh session
/// built from the same spec (same seed, same config), so an attempt
/// that succeeds produces the library bit-identical to a run that never
/// faulted. Backoff between attempts is exponential and bounded:
/// attempt `n+1` waits `backoff × 2ⁿ⁻¹`, capped at 5 seconds, and the
/// wait itself is cancellable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, the first run included; `1` means no retry.
    /// (Zero is treated as 1 — a job always runs at least once.)
    pub max_attempts: u32,
    /// Base backoff before the second attempt; later attempts double
    /// it (capped at 5 s).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// Ceiling on a single backoff sleep, whatever the doubling says.
    pub const MAX_BACKOFF: Duration = Duration::from_secs(5);

    /// No retries: the job runs exactly once (the default).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
        }
    }

    /// Up to `max_attempts` total attempts with exponential backoff
    /// starting at `backoff`.
    pub fn new(max_attempts: u32, backoff: Duration) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            backoff,
        }
    }

    /// The backoff to sleep before `attempt` (1-based; attempt 1 is the
    /// first run and never waits): `backoff × 2^(attempt-2)`, capped at
    /// [`RetryPolicy::MAX_BACKOFF`].
    pub fn delay_before(&self, attempt: u32) -> Duration {
        if attempt <= 1 || self.backoff.is_zero() {
            return Duration::ZERO;
        }
        // Past 2^32 the cap has long since won; clamp the shift.
        let doublings = (attempt - 2).min(31);
        self.backoff
            .saturating_mul(1u32 << doublings)
            .min(RetryPolicy::MAX_BACKOFF)
    }
}

/// What kind of workload a [`JobSpec`] describes.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub enum JobKind {
    /// The paper's stage-2 initial round: every starter × every
    /// predefined mask × `variations`.
    Initial,
    /// The full pipeline: the initial round, starter seeding, then
    /// `iterations` rounds of PCA selection + re-inpainting (paper
    /// stages 2–4). The per-round seeds and mask schedule key off
    /// absolute iteration indices, exactly as [`crate::Session::iterate`]
    /// does.
    Iterative {
        /// Refinement rounds after the initial round.
        iterations: usize,
    },
    /// An explicit request: sample these `(template, mask)` jobs and
    /// run the round tail over them. Raw requests carry in-memory job
    /// sets and are the one kind [`JobSpec::encode`] cannot serialise.
    Raw(GenerationRequest),
    /// A training workload: fine-tune the engine's model per the
    /// [`TrainSpec`] (epochs × steps over starters + ingested session
    /// libraries, EMA shadow, lineage-carrying checkpoints). Runs
    /// preemptibly under the scheduler — parked between epochs whenever
    /// higher-class work is queued — and resumes bit-identically from
    /// its last checkpoint after preemption, retry, or restart.
    /// Requires the service to be built with an artifact store
    /// ([`crate::ServiceOptions::store`]).
    Train(TrainSpec),
}

/// A declarative, serializable description of one workload.
///
/// Build with the kind constructors and chain the intent:
///
/// ```
/// use patternpaint_core::{JobSpec, QosClass};
/// use std::time::Duration;
///
/// let spec = JobSpec::iterative(2)
///     .with_class(QosClass::Interactive)
///     .with_deadline(Duration::from_secs(30))
///     .with_budget(500)
///     .with_seed(7);
/// assert_eq!(spec.class, QosClass::Interactive);
/// let bytes = spec.encode().unwrap();
/// let back = JobSpec::decode(&bytes).unwrap();
/// assert_eq!(back.budget, Some(500));
/// ```
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The workload kind.
    pub kind: JobKind,
    /// QoS class for admission control and policy-weighted scheduling.
    pub class: QosClass,
    /// Deadline, measured from submission. Soft by default (purely
    /// advisory: it orders dispatch under [`crate::DeadlineFirst`] and
    /// never causes a rejection or abort on its own); see
    /// [`JobSpec::hard_deadline`] for enforcement.
    pub deadline: Option<Duration>,
    /// Makes [`JobSpec::deadline`] *hard*: past it, the job is
    /// cooperatively cancelled at a slot-admission point and resolves to
    /// [`crate::JobOutcome::TimedOut`] carrying whatever partial
    /// results the rounds that finished produced.
    pub hard_deadline: bool,
    /// Retry policy for transient faults (worker panics, I/O errors).
    /// Defaults to [`RetryPolicy::none`].
    pub retry: RetryPolicy,
    /// Sample budget: single-round kinds truncate their request to at
    /// most this many samples; [`JobKind::Iterative`] stops scheduling
    /// further rounds once the generated total reaches it. `None` is
    /// unlimited.
    pub budget: Option<usize>,
    /// Session seed; `None` uses the engine's.
    pub seed: Option<u64>,
    /// Request-shaping configuration override, validated at submission
    /// exactly like [`crate::Session::with_config`] (the model
    /// architecture must stay the engine's).
    pub config: Option<PipelineConfig>,
    /// Session-affinity key for fleet routing: jobs sharing a key pin
    /// to the replica holding that session's library state and run one
    /// after another, in submit order, and successive
    /// [`JobKind::Iterative`] jobs *continue* the named session (via
    /// PPSQ save/resume) instead of starting fresh.
    /// Ignored by a single [`crate::Service`]. Keys are bounded at
    /// [`JobSpec::MAX_AFFINITY`] bytes and restricted to
    /// `[A-Za-z0-9._-]` (they become artifact-store keys).
    pub affinity: Option<String>,
    /// Placement hint for fleet routing: each attempt of a stateless
    /// job lands on replica `hint % replicas` when that replica is
    /// healthy. Purely advisory — a retry skips the replica that just
    /// failed it, and a lost replica is never used; ignored by a single
    /// [`crate::Service`].
    pub placement: Option<u64>,
}

impl JobSpec {
    fn new(kind: JobKind) -> JobSpec {
        JobSpec {
            kind,
            class: QosClass::default(),
            deadline: None,
            hard_deadline: false,
            retry: RetryPolicy::none(),
            budget: None,
            seed: None,
            config: None,
            affinity: None,
            placement: None,
        }
    }

    /// Longest allowed [`JobSpec::affinity`] key, in bytes — the same
    /// bound [`JobSpec::decode`] enforces *before* allocating, so a
    /// corrupt length field can never balloon a read (mirroring the
    /// PPCK checkpoint bounding checks).
    pub const MAX_AFFINITY: usize = 256;

    /// An initial-generation workload.
    pub fn initial() -> JobSpec {
        JobSpec::new(JobKind::Initial)
    }

    /// The full pipeline with `iterations` refinement rounds after the
    /// initial one.
    pub fn iterative(iterations: usize) -> JobSpec {
        JobSpec::new(JobKind::Iterative { iterations })
    }

    /// An explicit raw request.
    pub fn raw(request: GenerationRequest) -> JobSpec {
        JobSpec::new(JobKind::Raw(request))
    }

    /// A training workload. Defaults to [`QosClass::BestEffort`] — the
    /// canonical scavenger class, parked whenever interactive or batch
    /// tenants need the pool — but [`JobSpec::with_class`] can raise it.
    pub fn train(spec: TrainSpec) -> JobSpec {
        JobSpec::new(JobKind::Train(spec)).with_class(QosClass::BestEffort)
    }

    /// Sets the QoS class.
    pub fn with_class(mut self, class: QosClass) -> JobSpec {
        self.class = class;
        self
    }

    /// Sets the soft deadline (from submission).
    pub fn with_deadline(mut self, deadline: Duration) -> JobSpec {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a *hard* deadline (from submission): past it the job is
    /// cancelled at a slot-admission point and resolves to
    /// [`crate::JobOutcome::TimedOut`] with partial results.
    pub fn with_hard_deadline(mut self, deadline: Duration) -> JobSpec {
        self.deadline = Some(deadline);
        self.hard_deadline = true;
        self
    }

    /// Sets the retry policy for transient faults.
    pub fn with_retry(mut self, retry: RetryPolicy) -> JobSpec {
        self.retry = retry;
        self
    }

    /// Sets the sample budget.
    pub fn with_budget(mut self, budget: usize) -> JobSpec {
        self.budget = Some(budget);
        self
    }

    /// Sets the session seed.
    pub fn with_seed(mut self, seed: u64) -> JobSpec {
        self.seed = Some(seed);
        self
    }

    /// Sets the request-shaping configuration override.
    pub fn with_config(mut self, config: PipelineConfig) -> JobSpec {
        self.config = Some(config);
        self
    }

    /// Sets the session-affinity key for fleet routing (see
    /// [`JobSpec::affinity`]).
    pub fn with_affinity(mut self, key: impl Into<String>) -> JobSpec {
        self.affinity = Some(key.into());
        self
    }

    /// Sets the advisory placement hint for fleet routing (see
    /// [`JobSpec::placement`]).
    pub fn with_placement(mut self, hint: u64) -> JobSpec {
        self.placement = Some(hint);
        self
    }

    /// Serialises the spec to a self-describing binary blob
    /// ([`JobSpec::decode`] reverses it), so specs can sit in work
    /// queues or artifact stores next to the sessions they produced.
    ///
    /// # Errors
    ///
    /// [`PpError::Config`] for [`JobKind::Raw`], whose job set is an
    /// in-memory value with no serial form.
    pub fn encode(&self) -> Result<Vec<u8>, PpError> {
        let mut w = ByteWriter::new();
        w.bytes(b"PPJS");
        // Version 4 adds the Train kind (tag 2 + its payload); version
        // 3 appended the fleet routing hints (affinity + placement)
        // after the retry fields; version 2 appended hard_deadline +
        // retry after the seed. Version-1 through -3 blobs still
        // decode, defaulting what they predate.
        w.u32(4);
        match &self.kind {
            JobKind::Initial => w.u8(0),
            JobKind::Iterative { iterations } => {
                w.u8(1);
                w.u64(*iterations as u64);
            }
            JobKind::Raw(_) => {
                return Err(PpError::Config(
                    "job spec: raw requests carry in-memory job sets and cannot be encoded".into(),
                ))
            }
            JobKind::Train(spec) => {
                w.u8(2);
                encode_train(&mut w, spec)?;
            }
        }
        w.u8(self.class.tag());
        w.opt_u64(self.deadline.map(|d| d.as_micros() as u64));
        w.opt_u64(self.budget.map(|b| b as u64));
        w.opt_u64(self.seed);
        w.flag(self.hard_deadline);
        w.u64(u64::from(self.retry.max_attempts));
        w.u64(self.retry.backoff.as_micros() as u64);
        w.flag(self.affinity.is_some());
        if let Some(key) = &self.affinity {
            if key.len() > JobSpec::MAX_AFFINITY {
                return Err(PpError::Config(format!(
                    "job spec: affinity key is {} bytes (limit {})",
                    key.len(),
                    JobSpec::MAX_AFFINITY
                )));
            }
            w.str(key);
        }
        w.opt_u64(self.placement);
        w.flag(self.config.is_some());
        if let Some(cfg) = &self.config {
            encode_config(&mut w, cfg);
        }
        Ok(w.into_vec())
    }

    /// Deserialises a blob written by [`JobSpec::encode`] (or by a
    /// build that wrote versions 1–3).
    ///
    /// # Errors
    ///
    /// [`PpError::Config`] naming the corrupt or truncated field.
    pub fn decode(bytes: &[u8]) -> Result<JobSpec, PpError> {
        decode_spec(bytes).map_err(|e| PpError::Config(format!("job spec: {e}")))
    }
}

fn decode_spec(bytes: &[u8]) -> Result<JobSpec, CodecError> {
    let mut r = ByteReader::new(bytes);
    r.magic(b"PPJS", "magic")?;
    let version = r.version(1..=4, "version")?;
    let kind = match r.u8("kind")? {
        0 => JobKind::Initial,
        1 => JobKind::Iterative {
            iterations: r.u64("iterations")? as usize,
        },
        2 if version >= 4 => JobKind::Train(decode_train(&mut r)?),
        2 => {
            return Err(CodecError::corrupt(
                "kind",
                format!("kind tag 2 needs spec version 4, got {version}"),
            ))
        }
        k => return Err(CodecError::corrupt("kind", format!("unknown kind tag {k}"))),
    };
    let class = QosClass::from_tag(r.u8("class")?)?;
    let deadline = r.opt_u64("deadline")?.map(Duration::from_micros);
    let budget = r.opt_u64("budget")?.map(|b| b as usize);
    let seed = r.opt_u64("seed")?;
    let (hard_deadline, retry) = if version >= 2 {
        let hard = r.flag("hard deadline flag")?;
        let max_attempts = r.u64("retry max attempts")?;
        // The raw count, 0 included (the field documents 0 as 1), so
        // the spec re-encodes to the bytes it came from.
        let max_attempts = u32::try_from(max_attempts).map_err(|_| {
            CodecError::corrupt(
                "retry max attempts",
                format!("{max_attempts} overflows a u32"),
            )
        })?;
        let backoff = Duration::from_micros(r.u64("retry backoff")?);
        (
            hard,
            RetryPolicy {
                max_attempts,
                backoff,
            },
        )
    } else {
        // Version-1 blobs predate enforcement and retries: their
        // deadlines stay soft and they never retry.
        (false, RetryPolicy::none())
    };
    let (affinity, placement) = if version >= 3 {
        let affinity = if r.flag("affinity flag")? {
            Some(r.str(JobSpec::MAX_AFFINITY, "affinity")?)
        } else {
            None
        };
        (affinity, r.opt_u64("placement")?)
    } else {
        // Pre-fleet blobs: no routing hints.
        (None, None)
    };
    let config = if r.flag("config flag")? {
        Some(decode_config(&mut r)?)
    } else {
        None
    };
    r.expect_end("job spec")?;
    Ok(JobSpec {
        kind,
        class,
        deadline,
        hard_deadline,
        retry,
        budget,
        seed,
        config,
        affinity,
        placement,
    })
}

/// Most session datasets a serialised [`TrainSpec`] may name.
const MAX_TRAIN_DATASETS: usize = 64;

fn encode_train(w: &mut ByteWriter, spec: &TrainSpec) -> Result<(), PpError> {
    w.u32(spec.epochs);
    w.u64(spec.steps_per_epoch as u64);
    w.u64(spec.batch as u64);
    w.f32(spec.lr);
    w.f32(spec.lambda);
    w.u64(spec.prior_count as u64);
    w.flag(spec.ema_decay.is_some());
    if let Some(decay) = spec.ema_decay {
        w.f32(decay);
    }
    w.u8(match spec.export {
        ExportWeights::Live => 0,
        ExportWeights::Ema => 1,
    });
    w.u64(spec.synth_corpus as u64);
    if spec.datasets.len() > MAX_TRAIN_DATASETS {
        return Err(PpError::Config(format!(
            "job spec: train names {} datasets (limit {MAX_TRAIN_DATASETS})",
            spec.datasets.len()
        )));
    }
    w.u32(spec.datasets.len() as u32);
    let names = spec.datasets.iter().map(|d| ("dataset name", d));
    for (what, name) in names.chain([("output name", &spec.output)]) {
        if name.len() > JobSpec::MAX_AFFINITY {
            return Err(PpError::Config(format!(
                "job spec: train {what} is {} bytes (limit {})",
                name.len(),
                JobSpec::MAX_AFFINITY
            )));
        }
        w.str(name);
    }
    Ok(())
}

fn decode_train(r: &mut ByteReader<'_>) -> Result<TrainSpec, CodecError> {
    let epochs = r.u32("train epochs")?;
    let steps_per_epoch = r.u64("train steps")? as usize;
    let batch = r.u64("train batch")? as usize;
    let lr = r.f32("train lr")?;
    let lambda = r.f32("train lambda")?;
    let prior_count = r.u64("train prior count")? as usize;
    let ema_decay = if r.flag("train ema flag")? {
        Some(r.f32("train ema decay")?)
    } else {
        None
    };
    let export = if r.flag("train export")? {
        ExportWeights::Ema
    } else {
        ExportWeights::Live
    };
    let synth_corpus = r.u64("train synth corpus")? as usize;
    let n = r.count(4, "train dataset count")?;
    if n > MAX_TRAIN_DATASETS {
        return Err(CodecError::corrupt(
            "train dataset count",
            format!("{n} exceeds limit {MAX_TRAIN_DATASETS}"),
        ));
    }
    let datasets = (0..n)
        .map(|_| r.str(JobSpec::MAX_AFFINITY, "train dataset name"))
        .collect::<Result<Vec<_>, _>>()?;
    let output = r.str(JobSpec::MAX_AFFINITY, "train output name")?;
    Ok(TrainSpec {
        epochs,
        steps_per_epoch,
        batch,
        lr,
        lambda,
        prior_count,
        ema_decay,
        export,
        datasets,
        synth_corpus,
        output,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::JobSet;

    #[test]
    fn class_weights_and_order() {
        assert!(QosClass::Interactive.weight() > QosClass::Batch.weight());
        assert!(QosClass::Batch.weight() > QosClass::BestEffort.weight());
        assert_eq!(QosClass::default(), QosClass::Batch);
        for (i, class) in QosClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i);
            assert_eq!(QosClass::from_tag(class.tag()).unwrap(), *class);
        }
        assert!(QosClass::from_tag(9).is_err());
    }

    #[test]
    fn spec_roundtrips_through_encode_decode() {
        let specs = [
            JobSpec::initial(),
            JobSpec::iterative(3)
                .with_class(QosClass::Interactive)
                .with_deadline(Duration::from_millis(250))
                .with_budget(1000)
                .with_seed(42)
                .with_config(PipelineConfig::tiny()),
            JobSpec::initial().with_class(QosClass::BestEffort),
            JobSpec::iterative(1)
                .with_hard_deadline(Duration::from_secs(2))
                .with_retry(RetryPolicy::new(3, Duration::from_millis(10))),
            JobSpec::iterative(2)
                .with_affinity("tenant-a.session_7")
                .with_placement(3),
            JobSpec::train(
                TrainSpec::new("finetune-a")
                    .with_epochs(6)
                    .with_steps_per_epoch(10)
                    .with_batch(3)
                    .with_lr(5e-4)
                    .with_prior(4, 0.25)
                    .with_ema(Some(0.995))
                    .with_export(ExportWeights::Ema)
                    .with_dataset("corpus-1")
                    .with_dataset("corpus-2")
                    .with_synth_corpus(8),
            )
            .with_retry(RetryPolicy::new(2, Duration::from_millis(5))),
            JobSpec::train(TrainSpec::new("plain").with_ema(None)),
        ];
        for spec in specs {
            let bytes = spec.encode().expect("non-raw specs encode");
            let back = JobSpec::decode(&bytes).expect("blob decodes");
            assert_eq!(back.class, spec.class);
            assert_eq!(back.deadline, spec.deadline);
            assert_eq!(back.hard_deadline, spec.hard_deadline);
            assert_eq!(back.retry, spec.retry);
            assert_eq!(back.budget, spec.budget);
            assert_eq!(back.seed, spec.seed);
            assert_eq!(back.config, spec.config);
            assert_eq!(back.affinity, spec.affinity);
            assert_eq!(back.placement, spec.placement);
            match (&back.kind, &spec.kind) {
                (JobKind::Initial, JobKind::Initial) => {}
                (JobKind::Iterative { iterations: a }, JobKind::Iterative { iterations: b }) => {
                    assert_eq!(a, b)
                }
                (JobKind::Train(a), JobKind::Train(b)) => assert_eq!(a, b),
                (a, b) => panic!("kind mismatch: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn raw_specs_refuse_to_encode_and_corrupt_blobs_are_named() {
        let raw = JobSpec::raw(GenerationRequest::new(JobSet::new(), 0));
        let err = raw.encode().unwrap_err();
        assert!(matches!(err, PpError::Config(_)), "wrong error: {err}");
        assert!(err.to_string().contains("raw"), "message was: {err}");

        let good = JobSpec::iterative(1).encode().unwrap();
        let err = JobSpec::decode(&good[..good.len() - 1]).unwrap_err();
        assert!(err.to_string().contains("job spec"), "message was: {err}");
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(JobSpec::decode(&bad_magic).is_err());
        let mut bad_class = good;
        // kind tag (1) + iterations (8) follow the 8-byte header.
        bad_class[17] = 9;
        let err = JobSpec::decode(&bad_class).unwrap_err();
        assert!(err.to_string().contains("class"), "message was: {err}");
    }

    /// Version-1 blobs (pre-retry, pre-hard-deadline) still decode,
    /// defaulting to soft deadlines and no retries.
    #[test]
    fn version_one_blobs_decode_with_defaults() {
        use crate::artifact::ByteWriter;
        let mut w = ByteWriter::new();
        w.bytes(b"PPJS");
        w.u32(1);
        w.u8(1); // iterative
        w.u64(4);
        w.u8(0); // interactive
        w.u8(1); // deadline present
        w.u64(250_000);
        w.u8(0); // no budget
        w.u8(1); // seed present
        w.u64(7);
        w.u8(0); // no config
        let back = JobSpec::decode(&w.into_vec()).expect("v1 blob decodes");
        assert!(matches!(back.kind, JobKind::Iterative { iterations: 4 }));
        assert_eq!(back.class, QosClass::Interactive);
        assert_eq!(back.deadline, Some(Duration::from_micros(250_000)));
        assert!(!back.hard_deadline, "v1 deadlines stay soft");
        assert_eq!(back.retry, RetryPolicy::none(), "v1 specs never retry");
        assert_eq!(back.seed, Some(7));
        assert_eq!(back.affinity, None, "v1 blobs predate fleet routing");
        assert_eq!(back.placement, None);
    }

    /// Version-2 blobs (retry + hard deadline, pre-fleet) still decode
    /// after the v3 bump, with no routing hints.
    #[test]
    fn version_two_blobs_decode_with_defaults() {
        use crate::artifact::ByteWriter;
        let mut w = ByteWriter::new();
        w.bytes(b"PPJS");
        w.u32(2);
        w.u8(0); // initial
        w.u8(2); // best-effort
        w.u8(1); // deadline present
        w.u64(1_000_000);
        w.u8(1); // budget present
        w.u64(200);
        w.u8(0); // no seed
        w.u8(1); // hard deadline
        w.u64(3); // retry max attempts
        w.u64(50_000); // retry backoff, µs
        w.u8(0); // no config
        let back = JobSpec::decode(&w.into_vec()).expect("v2 blob decodes");
        assert!(matches!(back.kind, JobKind::Initial));
        assert_eq!(back.class, QosClass::BestEffort);
        assert_eq!(back.deadline, Some(Duration::from_secs(1)));
        assert!(back.hard_deadline, "v2 hard flag survives");
        assert_eq!(back.retry, RetryPolicy::new(3, Duration::from_millis(50)));
        assert_eq!(back.budget, Some(200));
        assert_eq!(back.seed, None);
        assert_eq!(back.affinity, None, "v2 blobs predate fleet routing");
        assert_eq!(back.placement, None, "v2 blobs predate fleet routing");
    }

    /// A corrupt affinity length must fail the read *before* any
    /// allocation sized by it — the same discipline as the PPCK
    /// checkpoint bounding checks.
    #[test]
    fn oversized_affinity_is_rejected_on_both_paths() {
        let spec = JobSpec::initial().with_affinity("k".repeat(JobSpec::MAX_AFFINITY + 1));
        let err = spec.encode().unwrap_err();
        assert!(err.to_string().contains("affinity"), "message was: {err}");

        let good = JobSpec::initial()
            .with_affinity("fleet-key")
            .encode()
            .unwrap();
        // The affinity flag + u32 length sit right after the fixed v3
        // prefix: header 8, kind 1, class 1, deadline 1, budget 1,
        // seed 1, hard 1, retry 16 = byte 30 is the flag.
        assert_eq!(good[30], 1, "affinity flag where the layout says");
        let mut bad = good.clone();
        bad[31..35].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = JobSpec::decode(&bad).unwrap_err();
        assert!(
            err.to_string().contains("affinity length"),
            "message was: {err}"
        );
        // Truncating the key bytes themselves is caught by the bounded
        // read, not by a panic.
        let err = JobSpec::decode(&good[..good.len() - 4]).unwrap_err();
        assert!(err.to_string().contains("job spec"), "message was: {err}");
    }

    /// Train is a v4 kind: the default class is best-effort, older
    /// blobs can never claim the tag, and a corrupt dataset count must
    /// fail before it sizes an allocation.
    #[test]
    fn train_kind_is_version_gated_and_bounded() {
        let spec = JobSpec::train(TrainSpec::new("t"));
        assert_eq!(
            spec.class,
            QosClass::BestEffort,
            "training defaults to the scavenger class"
        );

        // A v3 blob claiming kind tag 2 is corrupt, not a train spec.
        let good = spec.encode().unwrap();
        let mut downgraded = good.clone();
        downgraded[4..8].copy_from_slice(&3u32.to_le_bytes());
        let err = JobSpec::decode(&downgraded).unwrap_err();
        assert!(err.to_string().contains("version 4"), "message was: {err}");

        // Encode-side bounds: too many datasets, oversized names.
        let mut many = TrainSpec::new("t");
        many.datasets = vec!["d".into(); MAX_TRAIN_DATASETS + 1];
        let err = JobSpec::train(many).encode().unwrap_err();
        assert!(err.to_string().contains("datasets"), "message was: {err}");
        let long = TrainSpec::new("o".repeat(JobSpec::MAX_AFFINITY + 1));
        let err = JobSpec::train(long).encode().unwrap_err();
        assert!(err.to_string().contains("output"), "message was: {err}");

        // Decode-side: corrupt the dataset count field (fixed train
        // payload after the kind tag: epochs 4, steps 8, batch 8, lr 4,
        // lambda 4, prior 8, ema flag+decay 5, export 1, synth 8 = count
        // at byte 9 + 50 = 59).
        let mut bad = good.clone();
        bad[59..63].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = JobSpec::decode(&bad).unwrap_err();
        assert!(
            err.to_string().contains("dataset count"),
            "message was: {err}"
        );
        // Truncation anywhere in the train payload is a named error.
        for cut in 9..63 {
            let err = JobSpec::decode(&good[..cut]).unwrap_err();
            assert!(err.to_string().contains("job spec"), "cut {cut}: {err}");
        }
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let none = RetryPolicy::none();
        assert_eq!(none.max_attempts, 1);
        assert_eq!(none.delay_before(2), Duration::ZERO);
        assert_eq!(RetryPolicy::new(0, Duration::ZERO).max_attempts, 1);

        let retry = RetryPolicy::new(5, Duration::from_millis(10));
        assert_eq!(retry.delay_before(1), Duration::ZERO, "first run: no wait");
        assert_eq!(retry.delay_before(2), Duration::from_millis(10));
        assert_eq!(retry.delay_before(3), Duration::from_millis(20));
        assert_eq!(retry.delay_before(4), Duration::from_millis(40));
        // The doubling is capped, even for absurd attempt counts.
        assert_eq!(retry.delay_before(40), RetryPolicy::MAX_BACKOFF);
        assert_eq!(retry.delay_before(u32::MAX), RetryPolicy::MAX_BACKOFF);
    }
}
