//! Training as a first-class, preemptible, resumable workload.
//!
//! The paper's pipeline treats finetuning as a blocking prologue inside
//! [`crate::PatternPaint::finetune`]. This module makes training a
//! *job*: a [`TrainSpec`] describes a fine-tune declaratively (epochs,
//! batch mix, EMA, datasets, output key) and runs through
//! [`crate::Service::submit`] as `JobKind::Train` — admitted, metered,
//! retried, deadline-bounded and preempted by the same machinery that
//! serves generation.
//!
//! The unit of progress is the **epoch**: [`TrainRun::run_epoch`] is a
//! deterministic pure function of (weights, optimiser state, EMA state,
//! seed, epoch index), and [`TrainRun::checkpoint`] persists all four
//! after every epoch — a PPCK v2 checkpoint (weights + lineage) plus a
//! PPTS state blob (optimiser moments, EMA shadow, RNG cursor). A run
//! killed or parked at any epoch boundary resumes **bit-identically**:
//! the weights after `resume + remaining epochs` equal those after an
//! uninterrupted run.
//!
//! Lineage: a fine-tune records its parent engine's checkpoint
//! checksum ([`pp_diffusion::checkpoint_checksum`]) in the PPCK v2
//! lineage section, so a trained artifact is content-addressed to the
//! exact weights it forked from and can be A/B'd against its parent
//! through [`crate::Fleet::from_engines`].
//!
//! Determinism contract for this file: no wall-clock reads and no
//! ambient randomness — preemption timing, deadlines and backoff live
//! in `crate::service`, which owns the clock.

use crate::artifact::{
    validate_key, ArtifactError, ArtifactStore, ByteReader, ByteWriter, CodecError,
};
use crate::engine::{session_keys, Engine};
use crate::error::PpError;
use crate::library::PatternLibrary;
use pp_diffusion::{
    checkpoint_checksum, load_checkpoint_with, save_checkpoint_with, CheckpointLineage,
    DiffusionModel, EmaShadow, TrainReport,
};
use pp_geometry::GrayImage;
use pp_nn::{Adam, AdamState};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Magic of the PPTS training-state blob (optimiser moments, EMA
/// shadow, RNG cursor) written next to each epoch checkpoint.
pub const TRAIN_STATE_MAGIC: [u8; 4] = *b"PPTS";

/// PPTS format version this build writes and reads.
pub const TRAIN_STATE_VERSION: u32 = 1;

/// Which weight set a finished run exports as its checkpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExportWeights {
    /// The live weights after the last optimiser step (the default).
    #[default]
    Live,
    /// The EMA shadow weights (requires [`TrainSpec::ema_decay`]).
    Ema,
}

/// A declarative description of one training job: what to train on,
/// for how long, and where the artifact goes.
///
/// Build with [`TrainSpec::new`] and chain the `with_*` setters; submit
/// as [`crate::JobKind::Train`] (typically
/// `JobSpec::train(spec)`). Training defaults to
/// [`crate::QosClass::BestEffort`] — it is the canonical scavenger
/// workload, parked whenever interactive or batch tenants need the
/// pool.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSpec {
    /// Epochs to run; each is [`TrainSpec::steps_per_epoch`] optimiser
    /// steps and ends at a checkpoint + preemption point.
    pub epochs: u32,
    /// Optimiser steps per epoch.
    pub steps_per_epoch: usize,
    /// Images per optimiser step.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Prior-preservation weight λ (paper Eq. 7), used when
    /// [`TrainSpec::prior_count`] > 0.
    pub lambda: f32,
    /// Prior-class samples drawn from the *parent* model before
    /// training starts; 0 disables prior preservation.
    pub prior_count: usize,
    /// EMA decay for shadow weights (e.g. 0.99); `None` keeps live
    /// weights only.
    pub ema_decay: Option<f32>,
    /// Which weight set the finished checkpoint carries.
    pub export: ExportWeights,
    /// Session names whose PPSQ libraries join the training set — a
    /// finished generation session's output becomes training data.
    pub datasets: Vec<String>,
    /// Synthetic foundation-corpus images
    /// ([`pp_pdk::foundation_corpus`]) mixed into the training set.
    pub synth_corpus: usize,
    /// Output artifact name: the run writes `train-<output>.ppck` and
    /// `train-<output>.state`.
    pub output: String,
}

impl TrainSpec {
    /// A spec with serviceable defaults: 4 epochs × 25 steps, batch 4,
    /// lr 1e-3, prior preservation (2 priors at λ 0.5), EMA 0.99,
    /// live-weight export, no extra datasets.
    pub fn new(output: impl Into<String>) -> TrainSpec {
        TrainSpec {
            epochs: 4,
            steps_per_epoch: 25,
            batch: 4,
            lr: 1e-3,
            lambda: 0.5,
            prior_count: 2,
            ema_decay: Some(0.99),
            export: ExportWeights::Live,
            datasets: Vec::new(),
            synth_corpus: 0,
            output: output.into(),
        }
    }

    /// Sets the epoch count.
    pub fn with_epochs(mut self, epochs: u32) -> TrainSpec {
        self.epochs = epochs;
        self
    }

    /// Sets optimiser steps per epoch.
    pub fn with_steps_per_epoch(mut self, steps: usize) -> TrainSpec {
        self.steps_per_epoch = steps;
        self
    }

    /// Sets the per-step batch size.
    pub fn with_batch(mut self, batch: usize) -> TrainSpec {
        self.batch = batch;
        self
    }

    /// Sets the learning rate.
    pub fn with_lr(mut self, lr: f32) -> TrainSpec {
        self.lr = lr;
        self
    }

    /// Sets the prior-preservation mix: `count` priors at weight
    /// `lambda`.
    pub fn with_prior(mut self, count: usize, lambda: f32) -> TrainSpec {
        self.prior_count = count;
        self.lambda = lambda;
        self
    }

    /// Sets the EMA decay (`None` disables shadow weights).
    pub fn with_ema(mut self, decay: Option<f32>) -> TrainSpec {
        self.ema_decay = decay;
        self
    }

    /// Sets which weight set the finished checkpoint exports.
    pub fn with_export(mut self, export: ExportWeights) -> TrainSpec {
        self.export = export;
        self
    }

    /// Adds a saved session whose PPSQ library joins the training set.
    pub fn with_dataset(mut self, session: impl Into<String>) -> TrainSpec {
        self.datasets.push(session.into());
        self
    }

    /// Sets how many synthetic foundation-corpus images to mix in.
    pub fn with_synth_corpus(mut self, n: usize) -> TrainSpec {
        self.synth_corpus = n;
        self
    }

    /// The artifact keys this spec writes: `(checkpoint, state)`.
    pub fn keys(&self) -> (String, String) {
        (
            format!("train-{}.ppck", self.output),
            format!("train-{}.state", self.output),
        )
    }

    /// Validates the spec before admission: positive shape parameters,
    /// finite hyperparameters, EMA decay in `(0, 1)`, exportable weight
    /// selection, and store-safe artifact keys.
    ///
    /// # Errors
    ///
    /// [`PpError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<(), PpError> {
        if self.epochs == 0 {
            return Err(PpError::Config(
                "train spec: epochs must be positive".into(),
            ));
        }
        if self.steps_per_epoch == 0 {
            return Err(PpError::Config(
                "train spec: steps_per_epoch must be positive".into(),
            ));
        }
        if self.batch == 0 {
            return Err(PpError::Config("train spec: batch must be positive".into()));
        }
        if !(self.lr.is_finite() && self.lr > 0.0) {
            return Err(PpError::Config(format!(
                "train spec: learning rate {} is not a positive finite number",
                self.lr
            )));
        }
        if !(self.lambda.is_finite() && self.lambda >= 0.0) {
            return Err(PpError::Config(format!(
                "train spec: lambda {} is not a non-negative finite number",
                self.lambda
            )));
        }
        if let Some(decay) = self.ema_decay {
            if !(decay.is_finite() && 0.0 < decay && decay < 1.0) {
                return Err(PpError::Config(format!(
                    "train spec: EMA decay {decay} is outside (0, 1)"
                )));
            }
        }
        if self.export == ExportWeights::Ema && self.ema_decay.is_none() {
            return Err(PpError::Config(
                "train spec: EMA export requires an EMA decay".into(),
            ));
        }
        let (ckpt, state) = self.keys();
        validate_key(&ckpt)?;
        validate_key(&state)?;
        for name in &self.datasets {
            let (meta, lib) = session_keys(name);
            validate_key(&meta)?;
            validate_key(&lib)?;
        }
        Ok(())
    }
}

/// What a finished (or interrupted) training job reports — carried in
/// [`crate::JobReport::train`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSummary {
    /// Epochs completed and checkpointed.
    pub epochs_done: u32,
    /// Epochs the spec asked for.
    pub epochs_total: u32,
    /// Store key of the exported PPCK v2 checkpoint.
    pub checkpoint_key: String,
    /// Store key of the PPTS resume-state blob.
    pub state_key: String,
    /// Parent checkpoint checksum recorded in the lineage.
    pub parent: Option<u64>,
    /// The epoch this attempt resumed from (0 = fresh start).
    pub resumed_from: u32,
    /// Times the run was parked for higher-class work.
    pub preemptions: u32,
    /// Loss of the last completed optimiser step.
    pub final_loss: f32,
}

/// One training run's live state: the resumable core the service's
/// Train job driver steps epoch by epoch.
///
/// [`TrainRun::prepare`] either starts fresh from the engine's model or
/// resumes from the `(PPCK, PPTS)` pair a previous attempt
/// checkpointed; [`TrainRun::run_epoch`] advances one epoch
/// deterministically; [`TrainRun::checkpoint`] persists; and
/// [`TrainRun::finish`] writes the export selection. Nothing in here
/// reads a clock — scheduling decisions stay with the caller.
pub struct TrainRun {
    spec: TrainSpec,
    model: DiffusionModel,
    opt: Adam,
    ema: Option<EmaShadow>,
    starters: Vec<GrayImage>,
    prior: Vec<GrayImage>,
    parent: Option<u64>,
    seed: u64,
    epochs_done: u32,
    resumed_from: u32,
    preemptions: u32,
    final_loss: f32,
}

impl std::fmt::Debug for TrainRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainRun")
            .field("output", &self.spec.output)
            .field("epochs_done", &self.epochs_done)
            .field("epochs_total", &self.spec.epochs)
            .field("resumed_from", &self.resumed_from)
            .field("parent", &self.parent)
            .finish_non_exhaustive()
    }
}

/// The per-epoch RNG seed: SplitMix-style mix of the job seed and the
/// epoch ordinal, so each epoch draws an independent stream and a
/// resumed run replays exactly the streams the uninterrupted run would
/// have drawn.
fn epoch_seed(seed: u64, epoch: u32) -> u64 {
    seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(epoch) + 1)
}

/// Serialises the resumable state (seed, epoch cursor, Adam moments,
/// EMA shadow) as a checksummed PPTS blob.
fn encode_state(seed: u64, epochs_done: u32, opt: &Adam, ema: Option<&EmaShadow>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.bytes(&TRAIN_STATE_MAGIC);
    w.u32(TRAIN_STATE_VERSION);
    w.u64(seed);
    w.u32(epochs_done);
    let state = opt.state();
    w.u64(state.t);
    w.u32(state.moments.len() as u32);
    for (m, v) in &state.moments {
        w.f32s(m);
        w.f32s(v);
    }
    w.flag(ema.is_some());
    if let Some(shadow) = ema {
        w.f32(shadow.decay());
        w.u32(shadow.tensors().len() as u32);
        for t in shadow.tensors() {
            w.f32s(t);
        }
    }
    w.seal()
}

/// Parsed PPTS payload: `(seed, epochs_done, adam state, ema decay +
/// tensors)`.
type DecodedState = (u64, u32, AdamState, Option<(f32, Vec<Vec<f32>>)>);

/// Parses a PPTS blob written by `encode_state`, verifying its
/// checksum right after the magic and version.
fn decode_state(bytes: &[u8], key: &str) -> Result<DecodedState, PpError> {
    let decode = || -> Result<DecodedState, CodecError> {
        let mut r = ByteReader::new(bytes);
        r.magic(&TRAIN_STATE_MAGIC, "magic")?;
        r.version(TRAIN_STATE_VERSION..=TRAIN_STATE_VERSION, "version")?;
        r.verify_trailer("checksum")?;
        let seed = r.u64("seed")?;
        let epochs_done = r.u32("epochs_done")?;
        let t = r.u64("adam step")?;
        // Each moment pair takes at least its two length fields.
        let moments = (0..r.count(8, "moment tensor count")?)
            .map(|_| Ok((r.f32s("adam m")?, r.f32s("adam v")?)))
            .collect::<Result<_, CodecError>>()?;
        let ema = if r.flag("ema flag")? {
            let decay = r.f32("ema decay")?;
            let tensors = (0..r.count(4, "ema tensor count")?)
                .map(|_| r.f32s("ema tensor"))
                .collect::<Result<_, _>>()?;
            Some((decay, tensors))
        } else {
            None
        };
        r.expect_end("train state")?;
        Ok((seed, epochs_done, AdamState { t, moments }, ema))
    };
    decode().map_err(|e| PpError::Artifact(ArtifactError::corrupt(key, e.to_string())))
}

/// Assembles the training set: engine starters, then synthetic
/// foundation images, then each named session's PPSQ library, in spec
/// order (order is part of the determinism contract — the batch
/// sampler indexes into this vector).
fn assemble_dataset(
    engine: &Engine,
    store: &dyn ArtifactStore,
    spec: &TrainSpec,
    seed: u64,
) -> Result<Vec<GrayImage>, PpError> {
    let mut images: Vec<GrayImage> = engine
        .starters()
        .iter()
        .map(GrayImage::from_layout)
        .collect();
    if spec.synth_corpus > 0 {
        let corpus = pp_pdk::foundation_corpus(
            spec.synth_corpus,
            engine.node().clip(),
            epoch_seed(seed, u32::MAX),
        );
        images.extend(corpus.iter().map(GrayImage::from_layout));
    }
    for name in &spec.datasets {
        let (_, lib_key) = session_keys(name);
        let bytes = store.get(&lib_key)?;
        let library = PatternLibrary::read_squish(&bytes, engine.node().clip())
            .map_err(|e| PpError::Artifact(ArtifactError::corrupt(&lib_key, e.to_string())))?;
        images.extend(library.patterns().iter().map(GrayImage::from_layout));
    }
    Ok(images)
}

impl TrainRun {
    /// Prepares a run: fresh from the engine's model when no state blob
    /// exists under the spec's keys, otherwise resumed bit-identically
    /// from the last checkpointed epoch.
    ///
    /// The parent lineage is the engine checkpoint's content address
    /// (its trailing checksum), computed from the engine's weights —
    /// identical to the checksum of the `model.ppck` the engine was
    /// saved as.
    ///
    /// # Errors
    ///
    /// [`PpError::Config`] for an invalid spec, [`PpError::Artifact`] /
    /// [`PpError::Checkpoint`] for unreadable or corrupt resume
    /// artifacts (a state blob whose seed or epoch disagrees with the
    /// checkpoint lineage is corrupt, not silently restarted).
    pub fn prepare(
        engine: &Engine,
        store: &dyn ArtifactStore,
        spec: &TrainSpec,
        seed: u64,
    ) -> Result<TrainRun, PpError> {
        spec.validate()?;
        let (ckpt_key, state_key) = spec.keys();
        let starters = assemble_dataset(engine, store, spec, seed)?;
        let prior = if spec.prior_count > 0 {
            engine
                .model()
                .sample_prior(spec.prior_count, epoch_seed(seed, u32::MAX - 1))
        } else {
            Vec::new()
        };
        // The parent address: what the engine's weights serialise to.
        let mut parent_blob = Vec::new();
        let mut parent_model = engine.model().clone();
        pp_diffusion::save_checkpoint(&mut parent_model, &mut parent_blob)?;
        let parent = Some(checkpoint_checksum(&parent_blob)?);

        if store.contains(&state_key)? {
            let state_bytes = store.get(&state_key)?;
            let (saved_seed, epochs_done, adam, ema_state) =
                decode_state(&state_bytes, &state_key)?;
            if saved_seed != seed {
                return Err(PpError::Artifact(ArtifactError::corrupt(
                    &state_key,
                    format!("state was written for seed {saved_seed}, job runs seed {seed}"),
                )));
            }
            let ckpt_bytes = store.get(&ckpt_key)?;
            let (mut model, lineage) = load_checkpoint_with(&ckpt_bytes)?;
            if lineage.epoch != epochs_done {
                return Err(PpError::Artifact(ArtifactError::corrupt(
                    &state_key,
                    format!(
                        "state epoch {epochs_done} disagrees with checkpoint lineage epoch {}",
                        lineage.epoch
                    ),
                )));
            }
            if model.config() != engine.model().config() {
                return Err(PpError::Artifact(ArtifactError::corrupt(
                    &ckpt_key,
                    "checkpoint architecture disagrees with the engine",
                )));
            }
            let ema = match ema_state {
                Some((decay, tensors)) => {
                    Some(EmaShadow::from_tensors(&mut model, decay, tensors)?)
                }
                None => None,
            };
            return Ok(TrainRun {
                spec: spec.clone(),
                model,
                opt: Adam::restore(spec.lr, adam),
                ema,
                starters,
                prior,
                parent: lineage.parent.or(parent),
                seed,
                epochs_done,
                resumed_from: epochs_done,
                preemptions: 0,
                final_loss: 0.0,
            });
        }

        let mut model = engine.model().clone();
        let ema = spec
            .ema_decay
            .map(|decay| EmaShadow::new(&mut model, decay));
        Ok(TrainRun {
            spec: spec.clone(),
            model,
            opt: Adam::new(spec.lr),
            ema,
            starters,
            prior,
            parent,
            seed,
            epochs_done: 0,
            resumed_from: 0,
            preemptions: 0,
            final_loss: 0.0,
        })
    }

    /// Epochs completed so far (across attempts — resumes carry it).
    pub fn epochs_done(&self) -> u32 {
        self.epochs_done
    }

    /// Epochs the spec asks for in total.
    pub fn epochs_total(&self) -> u32 {
        self.spec.epochs
    }

    /// Whether every requested epoch has run.
    pub fn is_done(&self) -> bool {
        self.epochs_done >= self.spec.epochs
    }

    /// Records one park-for-higher-class-work episode (called by the
    /// service's Train driver; this module never decides scheduling).
    pub fn note_preemption(&mut self) {
        self.preemptions += 1;
    }

    /// Runs the next epoch: `steps_per_epoch` optimiser steps over the
    /// starter/prior mix, folding the EMA shadow each step.
    /// Deterministic given the run's state — the epoch's RNG stream is
    /// derived from `(seed, epoch index)` alone.
    ///
    /// # Errors
    ///
    /// [`PpError::Model`] / [`PpError::Shape`] when the dataset is
    /// empty or mismatches the architecture (converted from
    /// [`pp_diffusion::ModelError`]).
    pub fn run_epoch(&mut self) -> Result<TrainReport, PpError> {
        let mut rng = StdRng::seed_from_u64(epoch_seed(self.seed, self.epochs_done));
        let report = self.model.train_epoch(
            &self.starters,
            &self.prior,
            self.spec.lambda,
            self.spec.steps_per_epoch,
            self.spec.batch,
            &mut self.opt,
            &mut rng,
            self.ema.as_mut(),
        )?;
        self.epochs_done += 1;
        self.final_loss = report.final_loss;
        Ok(report)
    }

    /// Persists the epoch boundary: live weights + lineage as PPCK v2
    /// under the checkpoint key, optimiser/EMA/RNG state as PPTS under
    /// the state key. Called after every epoch so a kill or preemption
    /// loses at most the epoch in flight.
    ///
    /// # Errors
    ///
    /// [`PpError::Checkpoint`] when serialisation fails,
    /// [`PpError::Artifact`] when the store rejects a write.
    pub fn checkpoint(&mut self, store: &dyn ArtifactStore) -> Result<(), PpError> {
        let (ckpt_key, state_key) = self.spec.keys();
        let lineage = CheckpointLineage {
            parent: self.parent,
            epoch: self.epochs_done,
        };
        let mut blob = Vec::new();
        save_checkpoint_with(&mut self.model, &mut blob, lineage)?;
        store.put(&ckpt_key, &blob)?;
        let state = encode_state(self.seed, self.epochs_done, &self.opt, self.ema.as_ref());
        store.put(&state_key, &state)?;
        Ok(())
    }

    /// Writes the final export: for [`ExportWeights::Ema`] the EMA
    /// shadow weights replace the live ones in the stored checkpoint
    /// (same lineage); for [`ExportWeights::Live`] the last
    /// [`TrainRun::checkpoint`] already is the export.
    ///
    /// # Errors
    ///
    /// Same as [`TrainRun::checkpoint`].
    pub fn finish(&mut self, store: &dyn ArtifactStore) -> Result<(), PpError> {
        if self.spec.export == ExportWeights::Ema {
            if let Some(ema) = &self.ema {
                let mut export = self.model.clone();
                ema.apply_to(&mut export)?;
                let (ckpt_key, _) = self.spec.keys();
                let lineage = CheckpointLineage {
                    parent: self.parent,
                    epoch: self.epochs_done,
                };
                let mut blob = Vec::new();
                save_checkpoint_with(&mut export, &mut blob, lineage)?;
                store.put(&ckpt_key, &blob)?;
            }
        }
        Ok(())
    }

    /// The run's summary for [`crate::JobReport::train`].
    pub fn summary(&self) -> TrainSummary {
        let (checkpoint_key, state_key) = self.spec.keys();
        TrainSummary {
            epochs_done: self.epochs_done,
            epochs_total: self.spec.epochs,
            checkpoint_key,
            state_key,
            parent: self.parent,
            resumed_from: self.resumed_from,
            preemptions: self.preemptions,
            final_loss: self.final_loss,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::MemStore;
    use crate::config::PipelineConfig;
    use pp_pdk::SynthNode;

    fn tiny_engine() -> Engine {
        Engine::builder(SynthNode::small(), PipelineConfig::tiny())
            .seed(3)
            .untrained_engine()
            .expect("tiny config is valid")
    }

    fn tiny_spec(output: &str) -> TrainSpec {
        TrainSpec::new(output)
            .with_epochs(2)
            .with_steps_per_epoch(2)
            .with_batch(2)
            .with_prior(1, 0.5)
    }

    #[test]
    fn spec_validation_names_the_field() {
        for (spec, needle) in [
            (tiny_spec("a").with_epochs(0), "epochs"),
            (tiny_spec("a").with_steps_per_epoch(0), "steps_per_epoch"),
            (tiny_spec("a").with_batch(0), "batch"),
            (tiny_spec("a").with_lr(0.0), "learning rate"),
            (tiny_spec("a").with_lr(f32::NAN), "learning rate"),
            (tiny_spec("a").with_prior(1, f32::INFINITY), "lambda"),
            (tiny_spec("a").with_ema(Some(1.5)), "EMA decay"),
            (
                tiny_spec("a")
                    .with_ema(None)
                    .with_export(ExportWeights::Ema),
                "EMA export",
            ),
            (tiny_spec("bad/key"), "key"),
            (tiny_spec("a").with_dataset("../escape"), "key"),
        ] {
            let err = spec.validate().expect_err("must reject");
            assert!(
                err.to_string().contains(needle),
                "expected {needle:?} in: {err}"
            );
        }
        tiny_spec("fine-1.run").validate().expect("valid spec");
    }

    #[test]
    fn state_blob_roundtrips_and_rejects_corruption() {
        let engine = tiny_engine();
        let store = MemStore::new();
        let mut run = TrainRun::prepare(&engine, &store, &tiny_spec("s"), 7).expect("prepare runs");
        run.run_epoch().expect("epoch runs");
        let blob = encode_state(7, 1, &run.opt, run.ema.as_ref());
        let (seed, epochs, adam, ema) = decode_state(&blob, "k").expect("decodes");
        assert_eq!(seed, 7);
        assert_eq!(epochs, 1);
        assert_eq!(adam, run.opt.state());
        let (decay, tensors) = ema.expect("spec has EMA");
        assert_eq!(decay, run.ema.as_ref().map(EmaShadow::decay).unwrap());
        assert_eq!(tensors, run.ema.as_ref().unwrap().tensors());

        // A flipped byte trips the checksum; truncation at every depth
        // of the header is typed, never a panic.
        let mut bad = blob.clone();
        bad[10] ^= 0x20;
        assert!(decode_state(&bad, "k").is_err());
        for cut in 0..24.min(blob.len()) {
            assert!(decode_state(&blob[..cut], "k").is_err(), "cut {cut}");
        }
        // An absurd claimed tensor count must fail before allocating.
        let mut absurd = blob.clone();
        absurd[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_state(&absurd, "k").is_err());
    }

    #[test]
    fn resume_is_bit_identical_to_uninterrupted() {
        let engine = tiny_engine();
        let spec = tiny_spec("resume");

        // Uninterrupted: 2 epochs in one run.
        let solo_store = MemStore::new();
        let mut solo = TrainRun::prepare(&engine, &solo_store, &spec, 11).expect("prepare");
        while !solo.is_done() {
            solo.run_epoch().expect("epoch");
            solo.checkpoint(&solo_store).expect("checkpoint");
        }
        solo.finish(&solo_store).expect("finish");

        // Interrupted: 1 epoch, drop the run, resume from the store.
        let store = MemStore::new();
        let mut first = TrainRun::prepare(&engine, &store, &spec, 11).expect("prepare");
        first.run_epoch().expect("epoch");
        first.checkpoint(&store).expect("checkpoint");
        drop(first);
        let mut second = TrainRun::prepare(&engine, &store, &spec, 11).expect("re-prepare");
        assert_eq!(second.resumed_from, 1, "must resume, not restart");
        while !second.is_done() {
            second.run_epoch().expect("epoch");
            second.checkpoint(&store).expect("checkpoint");
        }
        second.finish(&store).expect("finish");

        let (ckpt_key, _) = spec.keys();
        assert_eq!(
            solo_store.get(&ckpt_key).unwrap(),
            store.get(&ckpt_key).unwrap(),
            "resumed weights must be bit-identical to uninterrupted"
        );
    }

    #[test]
    fn seed_mismatch_on_resume_is_a_typed_error() {
        let engine = tiny_engine();
        let store = MemStore::new();
        let spec = tiny_spec("seeded");
        let mut run = TrainRun::prepare(&engine, &store, &spec, 5).expect("prepare");
        run.run_epoch().expect("epoch");
        run.checkpoint(&store).expect("checkpoint");
        let err = TrainRun::prepare(&engine, &store, &spec, 6).expect_err("seed changed");
        assert!(err.to_string().contains("seed"), "was: {err}");
    }

    #[test]
    fn lineage_records_the_parent_engine_checkpoint() {
        let engine = tiny_engine();
        let store = MemStore::new();
        engine.save(&store).expect("engine saves");
        let stored = store.get(crate::engine::ENGINE_MODEL_KEY).unwrap();
        let parent_sum = checkpoint_checksum(&stored).unwrap();

        let spec = tiny_spec("child");
        let mut run = TrainRun::prepare(&engine, &store, &spec, 3).expect("prepare");
        run.run_epoch().expect("epoch");
        run.checkpoint(&store).expect("checkpoint");
        let (ckpt_key, _) = spec.keys();
        let (_, lineage) =
            load_checkpoint_with(store.get(&ckpt_key).unwrap().as_slice()).expect("loads");
        assert_eq!(
            lineage.parent,
            Some(parent_sum),
            "lineage must content-address the engine's own checkpoint"
        );
        assert_eq!(lineage.epoch, 1);
    }

    #[test]
    fn ema_export_differs_from_live_and_both_load() {
        let engine = tiny_engine();
        let spec = tiny_spec("ema")
            .with_ema(Some(0.5))
            .with_export(ExportWeights::Ema);
        let store = MemStore::new();
        let mut run = TrainRun::prepare(&engine, &store, &spec, 9).expect("prepare");
        while !run.is_done() {
            run.run_epoch().expect("epoch");
            run.checkpoint(&store).expect("checkpoint");
        }
        let (ckpt_key, _) = spec.keys();
        let live = store.get(&ckpt_key).unwrap();
        run.finish(&store).expect("finish");
        let ema = store.get(&ckpt_key).unwrap();
        assert_ne!(live, ema, "EMA export must replace live weights");
        load_checkpoint_with(live.as_slice()).expect("live loads");
        load_checkpoint_with(ema.as_slice()).expect("ema loads");
    }

    #[test]
    fn dataset_ingests_saved_session_libraries() {
        let engine = tiny_engine();
        let store = MemStore::new();
        let mut session = engine.session_seeded(4);
        session.seed_starters();
        session.save(&store, "corpus").expect("session saves");
        let spec = tiny_spec("ingest").with_dataset("corpus");
        let run = TrainRun::prepare(&engine, &store, &spec, 2).expect("prepare");
        assert!(
            run.starters.len() > engine.starters().len(),
            "session library must join the training set"
        );
        // A missing dataset is a typed error, not a silent skip.
        let missing = tiny_spec("missing").with_dataset("nope");
        let err = TrainRun::prepare(&engine, &store, &missing, 2).expect_err("missing");
        assert!(matches!(err, PpError::Artifact(_)), "was: {err}");
    }
}
