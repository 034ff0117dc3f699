//! # volren — parallel software volume rendering
//!
//! The Visapult back end is "a parallelized software volume rendering engine
//! that uses a domain-decomposed partitioning" (§3).  This crate supplies
//! that engine and everything it consumes:
//!
//! * [`volume`] — dense scalar volumes with X-fastest layout, byte
//!   (de)serialization matching what is cached on the DPSS, and sub-volume
//!   extraction.
//! * [`decomp`] — the slab decomposition of Figure 4 and the one rule for
//!   which planes each back-end processing element's slab owns.
//! * [`transfer`] — transfer functions mapping scalar values to colour and
//!   opacity.
//! * [`composite`] — RGBA images and Porter–Duff `over` compositing
//!   (reference \[11\] of the paper), the recombination step of object-order
//!   parallel volume rendering.
//! * [`render`] — the axis-aligned orthographic ray-casting renderer each PE
//!   runs over its subset of the data, plus the full-volume reference
//!   renderer used as ground truth for IBRAVR artifact measurements.
//! * [`data`] — deterministic synthetic combustion and cosmology datasets
//!   standing in for the paper's NERSC-generated data.
//! * [`amr`] — adaptive mesh refinement hierarchies and their line geometry
//!   (the grids rendered alongside the volume in Figure 3).
//! * [`camera`] — view orientations and the best-axis selection the viewer
//!   transmits to the back end (§3.3).

#![forbid(unsafe_code)]

pub mod amr;
pub mod camera;
pub mod composite;
pub mod data;
pub mod decomp;
pub mod render;
pub mod transfer;
pub mod volume;

pub use amr::{AmrBox, AmrHierarchy};
pub use camera::{Axis, ViewOrientation};
pub use composite::RgbaImage;
pub use data::{combustion_jet, combustion_series_bytes, cosmology_density, CombustionSeries};
pub use decomp::{decompose, slab_planes, Region};
pub use render::{
    render_cost_samples, render_region, render_region_rgba8, render_view, render_volume_full, RenderSettings,
};
pub use transfer::TransferFunction;
pub use volume::{ByteCountMismatch, Volume};
