//! Pixel-space diffusion and inpainting over layout rasters.
//!
//! This crate is the stand-in for the pretrained Stable Diffusion
//! inpainting checkpoints of the PatternPaint paper (see DESIGN.md for the
//! substitution argument). It implements, from scratch on `pp-nn`:
//!
//! * [`NoiseSchedule`] — DDPM forward process `q(x_t | x_0)` with linear
//!   or cosine β schedules;
//! * [`UNet`] — a small inpainting U-Net conditioned on the noisy image,
//!   the mask and the masked image (the 3-channel analogue of SD-inpaint's
//!   9-channel input), with sinusoidal time embeddings;
//! * [`DiffusionModel`] — training (pretraining on a foundation corpus),
//!   DreamBooth-style few-shot finetuning with prior preservation
//!   (paper Eq. 7), and DDIM sampling with RePaint-style known-region
//!   conditioning (paper Eq. 8).
//!
//! The denoiser is x0-parameterised (it predicts the clean image rather
//! than the noise), which is markedly more stable at the few DDIM steps
//! used on near-binary layout images; `pp-bench --bench ablations`
//! quantifies that choice.
//!
//! # Example
//!
//! ```
//! use pp_diffusion::{DiffusionConfig, DiffusionModel};
//! use pp_geometry::GrayImage;
//!
//! let config = DiffusionConfig::tiny(16);
//! let mut model = DiffusionModel::new(config, 0);
//! let corpus = vec![GrayImage::filled(16, 16, -1.0); 4];
//! model.train(&corpus, 2, 2, 1e-3, 0).unwrap(); // 2 steps, batch 2
//! ```
//!
//! Every sample comes out of one DDIM loop, the slot table in
//! [`slots`]. The blocking entry points
//! ([`DiffusionModel::sample_inpaint`],
//! [`DiffusionModel::sample_inpaint_batch`]) drive it over fixed
//! micro-batches; schedulers drive it through
//! [`InpaintWorker::run_slots`] with their own [`SlotFeed`]. Outputs are
//! bit-identical per job either way.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod ema;
pub mod error;
pub mod model;
pub mod schedule;
pub mod slots;
pub mod unet;

pub use checkpoint::{
    checkpoint_checksum, load_checkpoint, load_checkpoint_with, read_config, save_checkpoint,
    save_checkpoint_with, write_config, CheckpointLineage, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
pub use ema::EmaShadow;
pub use error::ModelError;
pub use model::{DiffusionConfig, DiffusionModel, InpaintWorker, Parameterization, TrainReport};
pub use schedule::{BetaSchedule, NoiseSchedule};
pub use slots::{SlotFeed, SlotJob};
pub use unet::{UNet, UNetConfig};
