//! Prior-work baselines: CUP and DiffPattern.
//!
//! Both baselines are *squish-based*: they generate only topology
//! matrices and rely on the nonlinear solver (`pp-solver`) to recover
//! legal Δ geometry — the pipeline PatternPaint's pixel-space approach
//! replaces. They are trained on 1 000 DR-clean samples from the
//! rule-based generator (the paper obtained these from a commercial
//! tool), since 20 starters are far too few for either model.
//!
//! * [`CupBaseline`] — CUP (Zhang et al., ICCAD'20): a convolutional
//!   autoencoder over fixed-size topology rasters; new topologies come
//!   from decoding latent perturbations of training samples.
//! * [`DiffPatternBaseline`] — DiffPattern (Wang et al., DAC'23):
//!   diffusion over topology rasters (our port uses the same x0-predicting
//!   denoiser as the main model, trained unconditionally at topology
//!   resolution; the paper's version is categorical — see the
//!   faithfulness note on [`DiffPatternBaseline`]).
//!
//! Generated topologies are legalized with the solver under its
//! complex-discrete setting and then judged against the **full**
//! SynthNode sign-off deck. The solver only models a subset of that deck
//! (no width-dependent spacing windows), so most solved patterns still
//! fail sign-off — reproducing the near-zero legality of the paper's
//! Table I baselines.

#![forbid(unsafe_code)]

pub mod cup;
pub mod diffpattern;
pub mod sampler;
pub mod topo;

pub use cup::CupBaseline;
pub use diffpattern::DiffPatternBaseline;
pub use sampler::{CupSampler, DiffPatternSampler};
pub use topo::{layout_to_topo_image, topo_image_to_matrix, TOPO_SIDE};
