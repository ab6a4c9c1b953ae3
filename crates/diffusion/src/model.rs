//! Training, finetuning and sampling.

use crate::ema::EmaShadow;
use crate::error::ModelError;
use crate::schedule::{BetaSchedule, NoiseSchedule};
use crate::unet::{UNet, UNetConfig};
use pp_geometry::codec::{ByteReader, ByteWriter};
use pp_geometry::GrayImage;
use pp_nn::{Adam, Layer, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// First four bytes of every raw weight payload.
const PPDM_MAGIC: &[u8; 4] = b"PPDM";

/// What the denoiser network predicts.
///
/// x0-prediction is the repository default, chosen for stability at the
/// few DDIM steps used on near-binary layout images. ε-prediction, the
/// classic DDPM objective, remains a model option; no bench measures the
/// difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Parameterization {
    /// Predict the clean image `x̂0`.
    #[default]
    X0,
    /// Predict the added noise `ε̂`.
    Epsilon,
}

/// Hyperparameters of a diffusion model instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiffusionConfig {
    /// Image side length (divisible by 4).
    pub image: u32,
    /// U-Net base channels.
    pub base_ch: usize,
    /// Time-embedding dimension.
    pub time_dim: usize,
    /// Diffusion horizon T.
    pub t_max: usize,
    /// β-schedule family.
    pub schedule: BetaSchedule,
    /// DDIM steps used at sampling time.
    pub ddim_steps: usize,
    /// Network prediction target.
    pub parameterization: Parameterization,
}

impl DiffusionConfig {
    /// The configuration used by the main experiments.
    pub fn standard(image: u32) -> Self {
        DiffusionConfig {
            image,
            base_ch: 16,
            time_dim: 32,
            t_max: 100,
            schedule: BetaSchedule::Cosine,
            ddim_steps: 8,
            parameterization: Parameterization::X0,
        }
    }

    /// A minimal configuration for tests.
    pub fn tiny(image: u32) -> Self {
        DiffusionConfig {
            image,
            base_ch: 2,
            time_dim: 4,
            t_max: 10,
            schedule: BetaSchedule::Linear,
            ddim_steps: 3,
            parameterization: Parameterization::X0,
        }
    }
}

/// Summary of one training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Optimiser steps executed.
    pub steps: usize,
    /// Loss of the final step.
    pub final_loss: f32,
    /// Mean loss over the last quarter of training.
    pub tail_loss: f32,
}

/// A trainable pixel-space inpainting diffusion model.
///
/// See the crate docs for the role this plays; the API mirrors the
/// paper's workflow: [`DiffusionModel::train`] (pretraining on the
/// foundation corpus), [`DiffusionModel::finetune`] (DreamBooth-style
/// few-shot adaptation with prior preservation) and
/// [`DiffusionModel::sample_inpaint`] (mask-conditioned generation).
#[derive(Debug, Clone)]
pub struct DiffusionModel {
    cfg: DiffusionConfig,
    pub(crate) unet: UNet,
    schedule: NoiseSchedule,
}

/// Standard-normal sample via Box-Muller.
pub(crate) fn randn(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(1e-7f32..1.0);
    let u2: f32 = rng.gen_range(0.0f32..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

impl DiffusionModel {
    /// Creates an untrained model.
    pub fn new(cfg: DiffusionConfig, seed: u64) -> Self {
        let unet_cfg = UNetConfig {
            image: cfg.image,
            base_ch: cfg.base_ch,
            time_dim: cfg.time_dim,
        };
        DiffusionModel {
            cfg,
            unet: UNet::new(unet_cfg, cfg.t_max, seed),
            schedule: NoiseSchedule::new(cfg.t_max, cfg.schedule),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> DiffusionConfig {
        self.cfg
    }

    /// The noise schedule.
    pub fn schedule(&self) -> &NoiseSchedule {
        &self.schedule
    }

    /// Total parameter count of the denoiser.
    pub fn param_count(&mut self) -> usize {
        self.unet.param_count()
    }

    /// Serialises the denoiser weights: `"PPDM"`, a `u32` tensor
    /// count, then each parameter tensor as a `u32` length and its
    /// little-endian `f32` values.
    ///
    /// This is the raw weight payload; [`crate::save_checkpoint`] wraps
    /// it in a versioned header (format version, shape manifest,
    /// checksum) for durable artifact stores.
    ///
    /// # Errors
    ///
    /// [`ModelError::Io`] when the writer fails; `&mut W` works
    /// wherever `W: Write` is expected.
    pub fn save_weights<W: std::io::Write>(&mut self, mut writer: W) -> Result<(), ModelError> {
        let mut w = ByteWriter::new();
        self.encode_weights(&mut w);
        writer
            .write_all(&w.into_vec())
            .map_err(ModelError::io("weights"))
    }

    /// Appends the PPDM payload [`DiffusionModel::save_weights`] writes.
    pub(crate) fn encode_weights(&mut self, w: &mut ByteWriter) {
        let mut count = 0u32;
        self.unet.visit_params(&mut |_| count += 1);
        w.bytes(PPDM_MAGIC);
        w.u32(count);
        self.unet.visit_params(&mut |p| w.f32s(&p.value));
    }

    /// Loads weights saved by [`DiffusionModel::save_weights`] into this
    /// model (architectures must match).
    ///
    /// The whole payload is read and checked against this model's
    /// parameter shapes *before* anything is applied: a truncated,
    /// mis-sized or wrong-architecture payload, or one followed by
    /// trailing bytes, leaves the current weights untouched rather
    /// than half-overwritten.
    ///
    /// # Errors
    ///
    /// [`ModelError::Io`] (naming the section, with an `UnexpectedEof`
    /// source) when the bytes end early; [`ModelError::Corrupt`] on a
    /// bad magic, a tensor count or length that disagrees with this
    /// architecture, or trailing bytes.
    pub fn load_weights(&mut self, bytes: &[u8]) -> Result<(), ModelError> {
        let mut expected: Vec<usize> = Vec::new();
        self.unet
            .visit_params(&mut |p| expected.push(p.value.len()));
        let mut r = ByteReader::new(bytes);
        r.magic(PPDM_MAGIC, "weights: magic")?;
        let count = r.u32("weights: tensor count")? as usize;
        if count != expected.len() {
            return Err(ModelError::corrupt(
                "weights: tensor count",
                format!(
                    "stream has {count} tensors, architecture has {}",
                    expected.len()
                ),
            ));
        }
        let mut bufs = Vec::with_capacity(count);
        for (i, &want) in expected.iter().enumerate() {
            let section = || format!("weights: tensor {i} of {count}");
            let values = r.f32s(&section())?;
            if values.len() != want {
                return Err(ModelError::corrupt(
                    section(),
                    format!(
                        "stream tensor holds {} values, architecture expects {want}",
                        values.len()
                    ),
                ));
            }
            bufs.push(values);
        }
        r.expect_end("weights: end")?;
        // Everything validated: applying cannot fail halfway.
        let mut i = 0;
        self.unet.visit_params(&mut |p| {
            p.value.copy_from_slice(&bufs[i]);
            i += 1;
        });
        Ok(())
    }

    /// Checks one input image against the configured model size.
    pub(crate) fn check_image(
        &self,
        what: &'static str,
        img: &GrayImage,
    ) -> Result<(), ModelError> {
        for side in [img.width(), img.height()] {
            if side != self.cfg.image {
                return Err(ModelError::Shape {
                    what,
                    expected: self.cfg.image,
                    actual: side,
                });
            }
        }
        Ok(())
    }

    /// Pretrains (or continues training) on a corpus with random masks.
    ///
    /// This is the stand-in for the web-scale pretraining behind the
    /// paper's `stablediffusion-inpaint` checkpoints: the corpus comes
    /// from `pp-pdk::foundation_corpus`. Returns a [`TrainReport`].
    ///
    /// # Errors
    ///
    /// [`ModelError::Empty`] on an empty corpus, [`ModelError::Shape`]
    /// when a corpus image does not match the configured size.
    pub fn train(
        &mut self,
        corpus: &[GrayImage],
        steps: usize,
        batch: usize,
        lr: f32,
        seed: u64,
    ) -> Result<TrainReport, ModelError> {
        if corpus.is_empty() {
            return Err(ModelError::Empty("training corpus"));
        }
        for img in corpus {
            self.check_image("training image", img)?;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut opt = Adam::new(lr);
        self.run_steps(corpus, &[], 1.0, batch, 0, steps, &mut opt, &mut rng, None)
    }

    /// DreamBooth-style few-shot finetuning with prior preservation
    /// (paper Eq. 7): each step mixes starter samples (weight 1) with
    /// prior-class samples (weight λ) generated by the model *before*
    /// finetuning.
    ///
    /// # Errors
    ///
    /// [`ModelError::Empty`] when `starters` is empty,
    /// [`ModelError::Shape`] when a starter or prior image does not
    /// match the configured size.
    #[allow(clippy::too_many_arguments)]
    pub fn finetune(
        &mut self,
        starters: &[GrayImage],
        prior: &[GrayImage],
        lambda: f32,
        steps: usize,
        batch: usize,
        lr: f32,
        seed: u64,
    ) -> Result<TrainReport, ModelError> {
        if starters.is_empty() {
            return Err(ModelError::Empty("starter set"));
        }
        for img in starters.iter().chain(prior) {
            self.check_image("finetuning image", img)?;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut opt = Adam::new(lr);
        let (n_start, n_prior) = mix_split(batch, prior.is_empty());
        self.run_steps(
            starters, prior, lambda, n_start, n_prior, steps, &mut opt, &mut rng, None,
        )
    }

    /// One epoch of `steps` optimiser steps over a prior-preserving
    /// batch mix, driving caller-owned optimiser, RNG and (optionally)
    /// EMA shadow state — the resumable unit `pp-core`'s trainer
    /// checkpoints between. With `prior` empty the mix degenerates to
    /// uniform sampling at weight 1 (pretraining); otherwise each step
    /// mixes starters (weight 1) with prior samples (weight `lambda`),
    /// exactly as [`DiffusionModel::finetune`] does — all three entry
    /// points share one loop.
    ///
    /// Determinism contract: given identical weights, optimiser state,
    /// EMA state and RNG, an epoch is a pure function — the trainer's
    /// bit-identical-resume guarantee rests on it.
    ///
    /// # Errors
    ///
    /// [`ModelError::Empty`] when `starters` is empty,
    /// [`ModelError::Shape`] when an image does not match the
    /// configured size or the EMA shadow predates a different
    /// architecture.
    #[allow(clippy::too_many_arguments)]
    pub fn train_epoch(
        &mut self,
        starters: &[GrayImage],
        prior: &[GrayImage],
        lambda: f32,
        steps: usize,
        batch: usize,
        opt: &mut Adam,
        rng: &mut StdRng,
        ema: Option<&mut EmaShadow>,
    ) -> Result<TrainReport, ModelError> {
        if starters.is_empty() {
            return Err(ModelError::Empty("training set"));
        }
        for img in starters.iter().chain(prior) {
            self.check_image("training image", img)?;
        }
        let (n_start, n_prior) = mix_split(batch, prior.is_empty());
        self.run_steps(
            starters, prior, lambda, n_start, n_prior, steps, opt, rng, ema,
        )
    }

    /// The one training loop behind [`DiffusionModel::train`],
    /// [`DiffusionModel::finetune`] and [`DiffusionModel::train_epoch`]:
    /// sample a weighted mix, take an optimiser step, fold the EMA.
    /// Inputs are pre-validated by the public entry points.
    #[allow(clippy::too_many_arguments)]
    fn run_steps(
        &mut self,
        starters: &[GrayImage],
        prior: &[GrayImage],
        lambda: f32,
        n_start: usize,
        n_prior: usize,
        steps: usize,
        opt: &mut Adam,
        rng: &mut StdRng,
        mut ema: Option<&mut EmaShadow>,
    ) -> Result<TrainReport, ModelError> {
        let mut losses = Vec::with_capacity(steps);
        for _ in 0..steps {
            let mut refs: Vec<&GrayImage> = Vec::with_capacity(n_start + n_prior);
            let mut weights = Vec::with_capacity(n_start + n_prior);
            for _ in 0..n_start {
                refs.push(&starters[rng.gen_range(0..starters.len())]);
                weights.push(1.0);
            }
            for _ in 0..n_prior {
                refs.push(&prior[rng.gen_range(0..prior.len())]);
                weights.push(lambda);
            }
            let loss = self.train_step(&refs, &weights, opt, rng);
            losses.push(loss);
            if let Some(shadow) = ema.as_deref_mut() {
                shadow.update(self)?;
            }
        }
        Ok(report_from(&losses))
    }

    /// One optimiser step on a weighted batch; returns the batch loss.
    fn train_step(
        &mut self,
        images: &[&GrayImage],
        weights: &[f32],
        opt: &mut Adam,
        rng: &mut StdRng,
    ) -> f32 {
        let side = self.cfg.image as usize;
        let hw = side * side;
        let n = images.len();
        let mut input = Tensor::zeros([n, 3, side, side]);
        let mut target = Tensor::zeros([n, 1, side, side]);
        let mut ts = Vec::with_capacity(n);
        for (b, img) in images.iter().enumerate() {
            debug_assert_eq!(
                img.width(),
                self.cfg.image,
                "validated by the public entry points"
            );
            let x0 = img.as_pixels();
            let t = rng.gen_range(0..self.cfg.t_max);
            ts.push(t);
            let noise: Vec<f32> = (0..hw).map(|_| randn(rng)).collect();
            let xt = self.schedule.q_sample(x0, t, &noise);
            let mask = random_mask(self.cfg.image, rng);
            input.plane_mut(b, 0).copy_from_slice(&xt);
            input.plane_mut(b, 1).copy_from_slice(&mask);
            let masked: Vec<f32> = x0
                .iter()
                .zip(&mask)
                .map(|(&v, &m)| if m > 0.5 { 0.0 } else { v })
                .collect();
            input.plane_mut(b, 2).copy_from_slice(&masked);
            match self.cfg.parameterization {
                Parameterization::X0 => target.plane_mut(b, 0).copy_from_slice(x0),
                Parameterization::Epsilon => target.plane_mut(b, 0).copy_from_slice(&noise),
            }
        }
        self.unet.zero_grad();
        let pred = self.unet.forward(input, &ts);
        // Weighted MSE on x̂0.
        let mut loss = 0.0f32;
        let mut grad = Tensor::zeros(pred.shape());
        for (b, &weight) in weights.iter().enumerate() {
            let w = weight / (n * hw) as f32;
            let pp = pred.plane(b, 0);
            let tp = target.plane(b, 0);
            let gp = grad.plane_mut(b, 0);
            for i in 0..hw {
                let e = pp[i] - tp[i];
                loss += w * e * e;
                gp[i] = 2.0 * w * e;
            }
        }
        let _ = self.unet.backward(grad);
        opt.step(&mut self.unet);
        loss
    }

    /// Inpaints the masked region of `image` (mask pixels of 1 are
    /// regenerated, 0 kept), returning the composited result in
    /// `[-1, 1]`.
    ///
    /// Implements the paper's Eq. 8 conditioning: at every DDIM step the
    /// model's `x̂0` is composited with the known pixels before the
    /// update, so the reverse process is steered by the surrounding
    /// design-rule context. Runs the slot loop on the calling thread
    /// with a one-job table.
    ///
    /// # Errors
    ///
    /// [`ModelError::Shape`] when the image or mask does not match the
    /// configured size.
    pub fn sample_inpaint(
        &self,
        image: &GrayImage,
        mask: &GrayImage,
        seed: u64,
    ) -> Result<GrayImage, ModelError> {
        self.check_image("inpainting image", image)?;
        self.check_image("inpainting mask", mask)?;
        let jobs = Arc::new(vec![(image.clone(), mask.clone())]);
        let mut samples = self.sample_range(&mut self.unet.clone(), &jobs, 0..1, 1, seed)?;
        Ok(samples.pop().expect("one job in, one sample out"))
    }

    /// Batch inpainting across worker threads: each worker packs its
    /// whole chunk of jobs into one `[B, 3, H, W]` tensor and runs every
    /// DDIM step over the micro-batch, amortising im2col + GEMM across
    /// jobs. Results keep job order and are bit-identical to calling
    /// [`DiffusionModel::sample_inpaint`] per job with seed
    /// `seed ^ job_index`.
    ///
    /// # Errors
    ///
    /// [`ModelError::Shape`] when any job image or mask does not match
    /// the configured size.
    pub fn sample_inpaint_batch(
        &self,
        jobs: &[(GrayImage, GrayImage)],
        seed: u64,
        threads: usize,
    ) -> Result<Vec<GrayImage>, ModelError> {
        self.sample_inpaint_batch_sized(jobs, seed, threads, 0)
    }

    /// [`DiffusionModel::sample_inpaint_batch`] with an explicit
    /// micro-batch cap: each worker splits its chunk into groups of at
    /// most `batch_size` jobs per network pass (`0` = the whole chunk),
    /// trading peak activation memory against per-pass overhead.
    ///
    /// Worker `w` of `threads` runs the slot loop over the contiguous
    /// chunk `[w·c, (w+1)·c)`, `c = ⌈jobs / threads⌉`, on a scoped
    /// thread with its own U-Net workspace, admitting the next
    /// micro-batch whenever its table drains. A worker panic reaches
    /// the caller.
    ///
    /// # Errors
    ///
    /// [`ModelError::Shape`] when any job image or mask does not match
    /// the configured size.
    pub fn sample_inpaint_batch_sized(
        &self,
        jobs: &[(GrayImage, GrayImage)],
        seed: u64,
        threads: usize,
        batch_size: usize,
    ) -> Result<Vec<GrayImage>, ModelError> {
        for (img, mask) in jobs {
            self.check_image("inpainting image", img)?;
            self.check_image("inpainting mask", mask)?;
        }
        let total = jobs.len();
        if total == 0 {
            return Ok(Vec::new());
        }
        let per_worker = total.div_ceil(threads.clamp(1, total));
        let width = if batch_size == 0 {
            per_worker
        } else {
            batch_size
        };
        let jobs = Arc::new(jobs.to_vec());
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..total)
                .step_by(per_worker)
                .map(|start| {
                    let (jobs, range) = (&jobs, start..(start + per_worker).min(total));
                    s.spawn(move || {
                        self.sample_range(&mut self.unet.clone(), jobs, range, width, seed)
                    })
                })
                .collect();
            let mut out = Vec::with_capacity(total);
            for worker in workers {
                let chunk = worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
                out.extend(chunk);
            }
            Ok(out)
        })
    }

    /// Binds a sampling worker to this shared model snapshot.
    ///
    /// An [`InpaintWorker`] owns a private U-Net clone (its own
    /// workspace buffers), so many workers can run slot tables against
    /// one model concurrently without locking — this is the primitive
    /// the engine scheduler in `pp-core` fans multiple sessions'
    /// requests onto. Job outputs depend only on `(image, mask, seed)`,
    /// never on how jobs are grouped into network passes, so any
    /// scheduling of the same jobs yields bit-identical samples.
    pub fn worker(self: &Arc<Self>) -> InpaintWorker {
        InpaintWorker {
            unet: self.unet.clone(),
            model: Arc::clone(self),
        }
    }

    /// Unconditional samples (full mask over a blank canvas) — used to
    /// build the prior-preservation set before finetuning.
    pub fn sample_prior(&self, n: usize, seed: u64) -> Vec<GrayImage> {
        let blank = GrayImage::filled(self.cfg.image, self.cfg.image, -1.0);
        let full = GrayImage::filled(self.cfg.image, self.cfg.image, 1.0);
        let jobs: Vec<(GrayImage, GrayImage)> =
            (0..n).map(|_| (blank.clone(), full.clone())).collect();
        self.sample_inpaint_batch(&jobs, seed ^ 0x9e3779b9, 2)
            .expect("prior jobs are well-formed by construction")
    }
}

/// A sampling worker bound to a shared [`DiffusionModel`] snapshot.
///
/// Holds the model behind `Arc` plus a private U-Net clone whose
/// workspace buffers warm up across calls. Obtained from
/// [`DiffusionModel::worker`]; external schedulers drive one worker per
/// thread through [`InpaintWorker::run_slots`] and admit whatever jobs
/// they choose at every step boundary — results are bit-identical to
/// any other grouping of the same `(job, seed)` pairs.
#[derive(Debug)]
pub struct InpaintWorker {
    pub(crate) model: Arc<DiffusionModel>,
    pub(crate) unet: UNet,
}

impl InpaintWorker {
    /// The model this worker samples from.
    pub fn model(&self) -> &DiffusionModel {
        &self.model
    }
}

/// Splits a batch between starter and prior draws: with a prior set,
/// half the batch (at least one) preserves the prior class (paper
/// Eq. 7); without one, everything comes from the starters.
fn mix_split(batch: usize, prior_empty: bool) -> (usize, usize) {
    let n_prior = if prior_empty { 0 } else { (batch / 2).max(1) };
    let n_start = batch.saturating_sub(n_prior).max(1);
    (n_start, n_prior)
}

/// A random training mask: mostly local rectangles (~the 25 % regions
/// used at inference), sometimes a full mask (keeps unconditional
/// generation working for the prior set).
fn random_mask(image: u32, rng: &mut StdRng) -> Vec<f32> {
    let side = image as usize;
    let mut mask = vec![0.0f32; side * side];
    if rng.gen_bool(0.15) {
        mask.fill(1.0);
        return mask;
    }
    let w = rng.gen_range(side / 4..=side / 2 + 1);
    let h = rng.gen_range(side / 4..=side / 2 + 1);
    let x0 = rng.gen_range(0..=side - w);
    let y0 = rng.gen_range(0..=side - h);
    for y in y0..y0 + h {
        for x in x0..x0 + w {
            mask[y * side + x] = 1.0;
        }
    }
    mask
}

fn report_from(losses: &[f32]) -> TrainReport {
    let tail = &losses[losses.len() - losses.len() / 4 - 1..];
    TrainReport {
        steps: losses.len(),
        final_loss: *losses.last().unwrap_or(&0.0),
        tail_loss: tail.iter().sum::<f32>() / tail.len() as f32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_corpus(image: u32) -> Vec<GrayImage> {
        // Vertical stripes at two positions.
        let mut a = GrayImage::filled(image, image, -1.0);
        let mut b = GrayImage::filled(image, image, -1.0);
        for y in 0..image {
            for x in 2..5 {
                a.set(x, y, 1.0);
            }
            for x in 9..12 {
                b.set(x, y, 1.0);
            }
        }
        vec![a, b]
    }

    #[test]
    fn training_reduces_loss() {
        let mut model = DiffusionModel::new(DiffusionConfig::tiny(16), 1);
        let corpus = tiny_corpus(16);
        let report = model.train(&corpus, 60, 2, 3e-3, 0).unwrap();
        assert_eq!(report.steps, 60);
        assert!(
            report.tail_loss < 0.5,
            "tail loss did not drop: {}",
            report.tail_loss
        );
    }

    #[test]
    fn inpainting_preserves_known_region() {
        let mut model = DiffusionModel::new(DiffusionConfig::tiny(16), 2);
        let corpus = tiny_corpus(16);
        let _ = model.train(&corpus, 30, 2, 3e-3, 1).unwrap();
        let image = corpus[0].clone();
        // Mask only the right half.
        let mut mask = GrayImage::filled(16, 16, 0.0);
        for y in 0..16 {
            for x in 8..16 {
                mask.set(x, y, 1.0);
            }
        }
        let out = model.sample_inpaint(&image, &mask, 7).unwrap();
        for y in 0..16 {
            for x in 0..8 {
                assert_eq!(out.get(x, y), image.get(x, y), "known pixel changed");
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_in_seed() {
        let model = DiffusionModel::new(DiffusionConfig::tiny(16), 3);
        let image = GrayImage::filled(16, 16, -1.0);
        let mask = GrayImage::filled(16, 16, 1.0);
        let a = model.sample_inpaint(&image, &mask, 42).unwrap();
        let b = model.sample_inpaint(&image, &mask, 42).unwrap();
        let c = model.sample_inpaint(&image, &mask, 43).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn batch_matches_sequential() {
        let model = DiffusionModel::new(DiffusionConfig::tiny(16), 4);
        let image = GrayImage::filled(16, 16, -1.0);
        let mask = GrayImage::filled(16, 16, 1.0);
        let jobs = vec![(image.clone(), mask.clone()), (image.clone(), mask.clone())];
        let batch = model.sample_inpaint_batch(&jobs, 9, 2).unwrap();
        let solo0 = model.sample_inpaint(&image, &mask, 9).unwrap();
        let solo1 = model.sample_inpaint(&image, &mask, 9 ^ 1).unwrap();
        assert_eq!(batch[0], solo0);
        assert_eq!(batch[1], solo1);
    }

    /// A job set with per-job distinct images, masks and RNG streams.
    fn mixed_jobs(n: usize) -> Vec<(GrayImage, GrayImage)> {
        (0..n)
            .map(|i| {
                let mut image = GrayImage::filled(16, 16, -1.0);
                for y in 0..16 {
                    image.set((i as u32) % 16, y, 1.0);
                }
                let mut mask = GrayImage::filled(16, 16, 0.0);
                // Different region per job; always non-empty.
                for y in 0..16 {
                    for x in (i as u32 % 8)..16 {
                        mask.set(x, y, 1.0);
                    }
                }
                (image, mask)
            })
            .collect()
    }

    /// Batched sampling must be bit-identical to the solo path for every
    /// batch width — including widths that split unevenly across
    /// workers (7 jobs over 2 threads → chunks of 4 and 3) and
    /// micro-batch caps that leave ragged tails (batch_size 3 over a
    /// 4-job chunk → passes of 3 and 1).
    #[test]
    fn batch_bit_identical_for_all_widths_and_chunkings() {
        let model = DiffusionModel::new(DiffusionConfig::tiny(16), 8);
        for &b in &[1usize, 3, 7] {
            let jobs = mixed_jobs(b);
            let solo: Vec<GrayImage> = jobs
                .iter()
                .enumerate()
                .map(|(i, (img, mask))| model.sample_inpaint(img, mask, 0x5a ^ i as u64).unwrap())
                .collect();
            for &threads in &[1usize, 2, 3] {
                for &batch_size in &[0usize, 1, 3] {
                    let batched = model
                        .sample_inpaint_batch_sized(&jobs, 0x5a, threads, batch_size)
                        .unwrap();
                    assert_eq!(
                        batched, solo,
                        "divergence at B={b} threads={threads} batch_size={batch_size}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let model = DiffusionModel::new(DiffusionConfig::tiny(16), 4);
        assert!(model.sample_inpaint_batch(&[], 1, 4).unwrap().is_empty());
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let mut model = DiffusionModel::new(DiffusionConfig::tiny(16), 1);
        let bad = GrayImage::filled(8, 8, -1.0);
        let mask = GrayImage::filled(16, 16, 1.0);
        let err = model.sample_inpaint(&bad, &mask, 0).unwrap_err();
        assert!(matches!(
            err,
            ModelError::Shape {
                what: "inpainting image",
                expected: 16,
                actual: 8
            }
        ));
        let err = model
            .sample_inpaint_batch(&[(mask.clone(), bad.clone())], 0, 1)
            .unwrap_err();
        assert!(matches!(
            err,
            ModelError::Shape {
                what: "inpainting mask",
                ..
            }
        ));
        let err = model.train(&[bad], 1, 1, 1e-3, 0).unwrap_err();
        assert!(matches!(err, ModelError::Shape { .. }));
    }

    #[test]
    fn empty_corpus_is_reported() {
        let mut model = DiffusionModel::new(DiffusionConfig::tiny(16), 1);
        assert!(matches!(
            model.train(&[], 1, 1, 1e-3, 0).unwrap_err(),
            ModelError::Empty("training corpus")
        ));
        assert!(matches!(
            model.finetune(&[], &[], 0.5, 1, 1, 1e-3, 0).unwrap_err(),
            ModelError::Empty("starter set")
        ));
    }

    #[test]
    fn prior_samples_have_right_shape() {
        let model = DiffusionModel::new(DiffusionConfig::tiny(16), 5);
        let prior = model.sample_prior(3, 0);
        assert_eq!(prior.len(), 3);
        assert!(prior.iter().all(|p| p.width() == 16));
    }

    #[test]
    fn epsilon_parameterization_trains_and_samples() {
        let mut cfg = DiffusionConfig::tiny(16);
        cfg.parameterization = Parameterization::Epsilon;
        let mut model = DiffusionModel::new(cfg, 9);
        let corpus = tiny_corpus(16);
        let report = model.train(&corpus, 40, 2, 3e-3, 4).unwrap();
        assert!(report.tail_loss.is_finite());
        // Known region is still preserved exactly under ε-prediction.
        let mut mask = GrayImage::filled(16, 16, 0.0);
        for y in 0..16 {
            for x in 8..16 {
                mask.set(x, y, 1.0);
            }
        }
        let out = model.sample_inpaint(&corpus[0], &mask, 5).unwrap();
        for y in 0..16 {
            for x in 0..8 {
                assert_eq!(out.get(x, y), corpus[0].get(x, y));
            }
        }
    }

    #[test]
    fn weights_roundtrip_through_serialization() {
        let mut a = DiffusionModel::new(DiffusionConfig::tiny(16), 10);
        let corpus = tiny_corpus(16);
        let _ = a.train(&corpus, 5, 2, 1e-3, 0).unwrap();
        let mut bytes = Vec::new();
        a.save_weights(&mut bytes).unwrap();
        let mut b = DiffusionModel::new(DiffusionConfig::tiny(16), 999);
        b.load_weights(bytes.as_slice()).unwrap();
        let img = GrayImage::filled(16, 16, -1.0);
        let mask = GrayImage::filled(16, 16, 1.0);
        assert_eq!(
            a.sample_inpaint(&img, &mask, 3).unwrap(),
            b.sample_inpaint(&img, &mask, 3).unwrap()
        );
    }

    #[test]
    fn load_rejects_mismatched_architecture() {
        let mut a = DiffusionModel::new(DiffusionConfig::tiny(16), 0);
        let mut bytes = Vec::new();
        a.save_weights(&mut bytes).unwrap();
        let mut b = DiffusionModel::new(DiffusionConfig::standard(32), 0);
        let err = b.load_weights(bytes.as_slice()).unwrap_err();
        assert!(
            matches!(err, ModelError::Corrupt { .. }),
            "wrong error: {err}"
        );
    }

    /// Corrupted streams must fail loudly *and* leave the target model's
    /// weights exactly as they were — never garbage, never half-applied.
    #[test]
    fn corrupted_streams_are_rejected_without_touching_weights() {
        let mut src = DiffusionModel::new(DiffusionConfig::tiny(16), 10);
        let _ = src.train(&tiny_corpus(16), 3, 2, 1e-3, 0).unwrap();
        let mut bytes = Vec::new();
        src.save_weights(&mut bytes).unwrap();

        let pristine = |m: &mut DiffusionModel| {
            let mut out = Vec::new();
            m.save_weights(&mut out).unwrap();
            out
        };
        let mut target = DiffusionModel::new(DiffusionConfig::tiny(16), 999);
        let before = pristine(&mut target);

        // Truncation at several depths: inside the magic, the count,
        // a tensor length, and a tensor payload.
        for cut in [2usize, 6, 10, bytes.len() - 3] {
            let err = target.load_weights(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, ModelError::Io { .. }),
                "cut at {cut}: wrong error {err}"
            );
            assert!(
                err.to_string().contains("weights:"),
                "cut at {cut}: section missing from {err}"
            );
            assert_eq!(
                before,
                pristine(&mut target),
                "cut at {cut} left partial weights"
            );
        }

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        let err = target.load_weights(bad.as_slice()).unwrap_err();
        assert!(
            matches!(err, ModelError::Corrupt { .. }),
            "wrong error: {err}"
        );
        assert_eq!(before, pristine(&mut target));

        // Lying tensor count.
        let mut bad = bytes.clone();
        bad[4] = bad[4].wrapping_add(1);
        let err = target.load_weights(bad.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("tensor count"),
            "wrong error: {err}"
        );
        assert_eq!(before, pristine(&mut target));

        // Lying first tensor length (first length field sits at byte 8).
        let mut bad = bytes.clone();
        bad[8] = bad[8].wrapping_add(1);
        let err = target.load_weights(bad.as_slice()).unwrap_err();
        assert!(
            matches!(err, ModelError::Corrupt { .. }),
            "wrong error: {err}"
        );
        assert_eq!(before, pristine(&mut target));

        // The intact stream still loads.
        target.load_weights(bytes.as_slice()).unwrap();
        assert_eq!(bytes, pristine(&mut target));
    }

    #[test]
    fn finetune_runs_with_prior() {
        let mut model = DiffusionModel::new(DiffusionConfig::tiny(16), 6);
        let corpus = tiny_corpus(16);
        let prior = model.sample_prior(2, 1);
        let report = model
            .finetune(&corpus, &prior, 0.5, 10, 2, 1e-3, 2)
            .unwrap();
        assert_eq!(report.steps, 10);
        assert!(report.final_loss.is_finite());
    }
}
