//! Layout rasters, scan lines and the squish pattern representation.
//!
//! This crate is the geometric substrate of the PatternPaint reproduction.
//! Everything above it (design-rule checking, diffusion, denoising, metrics)
//! speaks one of two languages defined here:
//!
//! * [`Layout`] — a single-layer binary Manhattan raster, one bit per design
//!   grid pixel. This is the "pixel-based representation" PatternPaint uses
//!   instead of solving geometry vectors with a nonlinear solver.
//! * [`SquishPattern`] — the squish representation of a layout: a binary
//!   topology matrix plus Δx/Δy interval vectors recording the distances
//!   between consecutive scan lines (Gennari & Lai, US 8832621B1).
//!
//! The two are loss-lessly inter-convertible for Manhattan geometry:
//! [`SquishPattern::from_layout`] extracts scan lines at every polygon edge,
//! and [`SquishPattern::to_layout`] rasterises back.
//!
//! # Example
//!
//! ```
//! use pp_geometry::{Layout, Rect, SquishPattern};
//!
//! let mut layout = Layout::new(16, 16);
//! layout.fill_rect(Rect::new(2, 1, 4, 12)); // a vertical wire
//! layout.fill_rect(Rect::new(9, 1, 4, 12)); // another track
//!
//! let squish = SquishPattern::from_layout(&layout);
//! assert_eq!(squish.to_layout(), layout);
//! // Complexity (Cx, Cy) counts scan lines minus one per axis.
//! let (cx, cy) = squish.complexity();
//! assert!(cx >= 3 && cy >= 1);
//! ```

#![forbid(unsafe_code)]

pub mod codec;
pub mod component;
pub mod image;
pub mod io;
pub mod layout;
pub mod rect;
pub mod render;
pub mod signature;
pub mod squish;
pub mod topology;

pub use component::{connected_components, Component};
pub use image::GrayImage;
pub use io::{read_squish_library, write_squish_library};
pub use layout::Layout;
pub use rect::Rect;
pub use signature::Signature;
pub use squish::{scan_lines_x, scan_lines_y, SquishPattern};
pub use topology::TopologyMatrix;
