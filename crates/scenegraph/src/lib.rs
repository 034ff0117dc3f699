//! # scenegraph — retained-mode scene graph and IBRAVR compositor
//!
//! The Visapult viewer is "built upon a scene graph model that proves useful
//! for both asynchronous updates, as well as acting as a framework for the
//! display of divergent types of data" (§3.1) — in the original system the
//! OpenRM scene graph.  This crate reproduces the pieces the paper depends
//! on:
//!
//! * [`node`] — displayable node types: 2-D textures placed on 3-D quads
//!   (the IBRAVR slab images, held as float images or as the wire's own
//!   RGBA8 bytes), line sets (the AMR grids of Figure 3), quad meshes with
//!   per-vertex depth offsets (the IBRAVR depth extension), and text
//!   annotations.
//! * [`graph`] — the semaphore-protected retained scene graph with
//!   asynchronous updates: viewer I/O threads update textures as they arrive
//!   from the back end while the render thread takes consistent snapshots at
//!   its own rate, which is exactly how "graphics interactivity is
//!   effectively decoupled from the latency inherent in network
//!   applications".
//! * [`raster`] — a software rasterizer (orthographic projection, textured
//!   quads with bilinear sampling and alpha blending, line drawing) standing
//!   in for the OpenGL texturing hardware the paper assumes.
//! * [`ibravr`] — the image-based-rendering-assisted volume rendering
//!   compositor of §3.3: axis-aligned slab textures blended in depth order,
//!   best-axis switching, and the off-axis artifact measurement of Figure 6.

#![forbid(unsafe_code)]

pub mod graph;
pub mod ibravr;
pub mod node;
pub mod raster;

pub use graph::{NodeId, SceneGraph, SceneGraphStats};
pub use ibravr::{IbravrModel, SlabImage};
pub use node::{Quad3, Rgba8Texture, SceneNode, Texture, TextureError};
pub use raster::{RasterCounts, RasterSettings, Rasterizer};
