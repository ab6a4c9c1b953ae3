//! PatternPaint — few-shot VLSI layout pattern generation via
//! diffusion-based inpainting (DAC 2025), reproduced as a pure-Rust system.
//!
//! This umbrella crate re-exports the whole workspace so downstream users
//! can depend on a single crate:
//!
//! * [`geometry`] — layout rasters and the squish representation;
//! * [`drc`] — the Manhattan design-rule checker;
//! * [`pdk`] — the SynthNode-3 synthetic process design kit;
//! * [`nn`] — the from-scratch neural-network substrate;
//! * [`diffusion`] — DDPM/DDIM and RePaint-style inpainting;
//! * [`inpaint`] — masks and template-based denoising (paper Alg. 1);
//! * [`selection`] — PCA + farthest-point layout selection (paper Alg. 2);
//! * [`metrics`] — H1/H2 entropies and uniqueness;
//! * [`solver`] — the nonlinear squish legalization solver (baseline path);
//! * [`baselines`] — CUP and DiffPattern reimplementations;
//! * [`core`] — the PatternPaint pipeline itself.
//!
//! # Quickstart
//!
//! ```
//! use patternpaint::pdk::SynthNode;
//! use patternpaint::drc::check_layout;
//!
//! let node = SynthNode::default();
//! let starters = node.starter_patterns();
//! assert_eq!(starters.len(), 20);
//! // Every starter is DR-clean by construction.
//! for s in &starters {
//!     assert!(check_layout(s, node.rules()).is_clean());
//! }
//! ```
//!
//! See `examples/quickstart.rs` for an end-to-end generation run and the
//! `pp-bench` crate for the binaries that regenerate the paper's tables
//! and figures.

#![forbid(unsafe_code)]

pub use patternpaint_core as core;
pub use pp_baselines as baselines;
pub use pp_diffusion as diffusion;
pub use pp_drc as drc;
pub use pp_geometry as geometry;
pub use pp_inpaint as inpaint;
pub use pp_metrics as metrics;
pub use pp_nn as nn;
pub use pp_pdk as pdk;
pub use pp_selection as selection;
pub use pp_solver as solver;
