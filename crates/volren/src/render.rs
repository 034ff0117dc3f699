//! Software volume rendering.
//!
//! Two renderers are provided:
//!
//! * [`render_region`] — the axis-aligned orthographic ray caster each back
//!   end PE runs over its slab of data.  Rays travel along a principal axis,
//!   so sampling needs no interpolation and the result is exactly the 2-D
//!   texture the IBRAVR viewer expects for that slab.  [`render_region_rgba8`]
//!   is the same render quantised straight into the heavy payload's 8-bit
//!   wire format.
//! * [`render_view`] — a general orthographic ray caster with trilinear
//!   sampling for arbitrary view orientations.  It is far slower and is used
//!   only as the ground truth against which IBRAVR artifacts are measured
//!   (experiment E8) and as the "render remote" baseline renderer.
//!
//! Both composite front-to-back with the Porter–Duff `over` operator and
//! opacity-correct samples for step size.
//!
//! # Distinct-ray casting
//!
//! A pixel of the axis-aligned render names a voxel column `(u, v)` by
//! nearest-voxel lookup, so an image at least as large as the slab's
//! footprint names every column several times over (four times for 256² over
//! 128×128, 64 times for 512² over 64×64).  The kernel behind
//! [`render_region`] evaluates the two pixel→voxel maps once, casts each
//! *distinct* column once — at most `min(image, footprint)` rays — and
//! replicates the finished ray into every pixel that named it.
//!
//! # A row of rays at a time
//!
//! The rays of one image row advance together, one sample plane at a time, in
//! structure-of-arrays rows.  For each plane the kernel gathers the row's
//! normalized samples (a plain slice of the volume when every column is named
//! and adjacent in memory — any image at least as wide as the footprint along
//! `Axis::Z` or `Axis::Y`; a strided gather otherwise, which is how `Axis::X`
//! takes the same path), classifies the whole row through one
//! `TransferFunction::classify_row` call whose loops are branch-free and
//! vectorise, and blends it into `r/g/b/a` accumulator rows under a per-lane
//! live mask, stopping when no lane is live.  A stopped lane's sample is
//! classified and discarded rather than compacted away: early termination
//! stops 0.2 % of lane-samples on the densest ledger shape and none on the
//! others.  It is the only classify-and-blend loop outside the tests, for all
//! three axes and both output formats.
//!
//! **Bit-identity.**  A ray's result depends only on its column: the
//! classify → blend → early-terminate → finalize sequence, the `f32`
//! expressions of the pixel maps and the sample positions `0, step, 2·step …`
//! are those of a per-pixel march, applied in the same order per ray; going a
//! row at a time reorders work *between* rays, never within one.  The output
//! is therefore bit-for-bit what casting every pixel separately gives (the
//! test module keeps that per-pixel loop as its oracle) and image hashes in
//! replay fingerprints do not move.
//!
//! The classification itself lost its two libm `powf` calls per sample under
//! the same rule, by two identities that are measured, not assumed (see
//! [`crate::transfer`]): at unit spacing `1 - (1 - a).powf(1.0)` is
//! `1 - (1 - a)`, because `x.powf(1.0)` returns `x` for every float of
//! `[0, 1]`; and `v.powf(1.5)` is `v·√v` evaluated in `f64` and rounded,
//! except within ±1/64 ulp of a rounding midpoint (≈3 % of samples), below the
//! normal range, or for NaN, where libm is still asked.  Tests sweep both by
//! `to_bits` — ≈4 M values in the default profile, every float of `[0, 1]` in
//! two `#[ignore]`d release tests CI runs — and `classify_row` is checked lane
//! for lane against [`TransferFunction::evaluate_corrected`], which the oracle
//! here calls per sample.  Any spacing other than 1 keeps its `powf`.

use crate::camera::{Axis, ViewOrientation};
use crate::composite::{quantize_channel, RgbaImage};
use crate::transfer::{RgbaRows, TransferFunction};
use crate::volume::Volume;

/// Settings shared by the renderers.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderSettings {
    /// Output image width in pixels.
    pub image_width: usize,
    /// Output image height in pixels.
    pub image_height: usize,
    /// Ray-march step in voxel units (1.0 = one sample per voxel).
    pub step: f32,
    /// Early-ray-termination opacity threshold.
    pub early_termination: f32,
}

impl Default for RenderSettings {
    fn default() -> Self {
        RenderSettings {
            image_width: 256,
            image_height: 256,
            step: 1.0,
            early_termination: 0.98,
        }
    }
}

impl RenderSettings {
    /// Settings with a given image size.
    pub fn with_size(width: usize, height: usize) -> Self {
        RenderSettings {
            image_width: width.max(1),
            image_height: height.max(1),
            ..Default::default()
        }
    }
}

#[inline]
fn blend_front_to_back(acc: &mut [f32; 4], sample: [f32; 4]) {
    let trans = 1.0 - acc[3];
    let a = sample[3] * trans;
    acc[0] += sample[0] * a;
    acc[1] += sample[1] * a;
    acc[2] += sample[2] * a;
    acc[3] += a;
}

fn finalize(acc: [f32; 4]) -> [f32; 4] {
    // Accumulated colour is premultiplied; convert back to straight alpha.
    if acc[3] > 1e-6 {
        [acc[0] / acc[3], acc[1] / acc[3], acc[2] / acc[3], acc[3].min(1.0)]
    } else {
        [0.0, 0.0, 0.0, 0.0]
    }
}

/// One image direction's pixel → voxel map with the duplicates folded out.
struct PixelMap {
    /// The distinct voxel coordinates the pixels name, in pixel order.
    coords: Vec<usize>,
    /// For each pixel, the index into `coords` of the voxel it names.
    slots: Vec<usize>,
}

impl PixelMap {
    /// Map `pixels` pixel centres onto `voxels` voxels (nearest voxel).
    fn new(pixels: usize, voxels: usize) -> Self {
        let mut coords = Vec::new();
        let mut slots = Vec::with_capacity(pixels);
        for p in 0..pixels {
            let c = ((p as f32 + 0.5) / pixels as f32 * voxels as f32) as usize;
            let c = c.min(voxels - 1);
            // The map is monotone in `p`, so folding equal neighbours folds
            // every duplicate.
            if coords.last() != Some(&c) {
                coords.push(c);
            }
            slots.push(coords.len() - 1);
        }
        PixelMap { coords, slots }
    }
}

/// Blend one classified sample per lane into the accumulator rows, front to
/// back ([`blend_front_to_back`] a row at a time), on the lanes still live.  A
/// lane stops being live once its opacity reaches `early_termination`, exactly
/// where a ray marched alone would stop.  Returns the lanes left.
fn blend_row(acc: &mut RgbaRows, sample: &RgbaRows, live: &mut [bool], early_termination: f32) -> usize {
    let len = live.len();
    let (acc_r, acc_g, acc_b, acc_a) = (
        &mut acc.r[..len],
        &mut acc.g[..len],
        &mut acc.b[..len],
        &mut acc.a[..len],
    );
    let (r, g, b, a) = (&sample.r[..len], &sample.g[..len], &sample.b[..len], &sample.a[..len]);
    let mut left = 0;
    for i in 0..len {
        if live[i] {
            let trans = 1.0 - acc_a[i];
            let alpha = a[i] * trans;
            acc_r[i] += r[i] * alpha;
            acc_g[i] += g[i] * alpha;
            acc_b[i] += b[i] * alpha;
            acc_a[i] += alpha;
            let stopped = acc_a[i] >= early_termination;
            live[i] = !stopped;
            left += usize::from(!stopped);
        }
    }
    left
}

/// The ray kernel behind [`render_region`] and [`render_region_rgba8`]: cast
/// each distinct voxel column once, finalize it once, and replicate it into
/// every pixel that names it (see the module docs).
///
/// `classify(norm, spacing, out)` turns a row of normalized samples into
/// opacity-corrected RGBA rows; `write` turns a finalized straight-alpha pixel
/// into the four output channels.  `out` holds `width × height × 4` channels,
/// row-major.
fn cast_distinct_rays<T: Copy>(
    volume: &Volume,
    axis: Axis,
    value_range: (f32, f32),
    settings: &RenderSettings,
    mut classify: impl FnMut(&[f32], f32, &mut RgbaRows),
    write: impl Fn([f32; 4]) -> [T; 4],
    out: &mut [T],
) {
    let (width, height) = (settings.image_width, settings.image_height);
    assert!(width > 0 && height > 0, "image dimensions must be positive");
    assert_eq!(
        out.len(),
        width * height * 4,
        "output must hold width x height RGBA pixels"
    );
    let (nx, ny, nz) = volume.dims();
    let data = volume.data();
    // Sample `s` of the ray through column `(u, v)` is
    // `data[s * stride_s + u * stride_u + v * stride_v]`.
    let (ray_len, img_u, img_v, stride_s, stride_u, stride_v) = match axis {
        Axis::X => (nx, ny, nz, 1, nx, nx * ny),
        Axis::Y => (ny, nx, nz, nx, 1, nx * ny),
        Axis::Z => (nz, nx, ny, nx * ny, 1, nx),
    };
    let columns = PixelMap::new(width, img_u);
    let rows = PixelMap::new(height, img_v);
    let lanes = columns.coords.len();
    // When every column is named and they are adjacent in memory (any image at
    // least as wide as the footprint, along Z or Y), a row's samples are a
    // plain slice of the volume; otherwise they are gathered.
    let contiguous = stride_u == 1 && lanes == img_u;

    let span = (value_range.1 - value_range.0).max(1e-20);
    // Spacing ratio for opacity correction: a transfer function calibrated
    // for unit steps through the full volume.
    let spacing = settings.step.max(0.05);

    let mut norm = vec![0.0f32; lanes];
    let mut samples = RgbaRows::zeros(lanes);
    let mut accs = RgbaRows::zeros(lanes);
    let mut live = vec![true; lanes];
    let mut finished: Vec<[T; 4]> = Vec::with_capacity(lanes);
    let row_len = width * 4;
    for py in 0..height {
        let (above, row) = out[..(py + 1) * row_len].split_at_mut(py * row_len);
        if py > 0 && rows.slots[py] == rows.slots[py - 1] {
            row.copy_from_slice(&above[(py - 1) * row_len..]);
            continue;
        }
        let row_base = rows.coords[rows.slots[py]] * stride_v;
        accs.clear();
        live.fill(true);
        // Advance every ray of the row one sample at a time, until the rays
        // end or none is live.
        let mut t = 0.0f32;
        while (t as usize) < ray_len {
            let line = &data[row_base + (t as usize) * stride_s..];
            if contiguous {
                for (norm, &raw) in norm.iter_mut().zip(line) {
                    *norm = (raw - value_range.0) / span;
                }
            } else {
                for (norm, &u) in norm.iter_mut().zip(&columns.coords) {
                    *norm = (line[u * stride_u] - value_range.0) / span;
                }
            }
            classify(&norm, spacing, &mut samples);
            if blend_row(&mut accs, &samples, &mut live, settings.early_termination) == 0 {
                break;
            }
            t += spacing;
        }
        finished.clear();
        finished.extend((0..lanes).map(|i| write(finalize(accs.lane(i)))));
        for (pixel, &slot) in row.chunks_exact_mut(4).zip(&columns.slots) {
            pixel.copy_from_slice(&finished[slot]);
        }
    }
}

/// Render a (sub)volume along a principal axis.
///
/// The image plane is spanned by the two axes perpendicular to `axis`, with
/// the first of them (in X→Y→Z order) along the image X direction.  Samples
/// are taken at voxel centres along the ray, front (low index) to back (high
/// index), normalized against `value_range` so that slabs rendered separately
/// by different PEs use a consistent classification.
///
/// Each pixel shows the voxel column nearest its centre.  Columns are cast
/// once each however many pixels name them, and the result is bit-identical
/// to marching a ray per pixel (see the module docs).
pub fn render_region(
    volume: &Volume,
    axis: Axis,
    transfer: &TransferFunction,
    value_range: (f32, f32),
    settings: &RenderSettings,
) -> RgbaImage {
    let mut image = RgbaImage::new(settings.image_width, settings.image_height);
    cast_distinct_rays(
        volume,
        axis,
        value_range,
        settings,
        |norm, spacing, out| transfer.classify_row(norm, spacing, out),
        |pixel| pixel,
        image.data_mut(),
    );
    image
}

/// [`render_region`] quantised to 8-bit RGBA, the heavy payload's texture
/// format: byte for byte `render_region(..).to_rgba8()`, without the
/// intermediate floating-point image.
pub fn render_region_rgba8(
    volume: &Volume,
    axis: Axis,
    transfer: &TransferFunction,
    value_range: (f32, f32),
    settings: &RenderSettings,
) -> Vec<u8> {
    let mut bytes = vec![0u8; settings.image_width * settings.image_height * 4];
    cast_distinct_rays(
        volume,
        axis,
        value_range,
        settings,
        |norm, spacing, out| transfer.classify_row(norm, spacing, out),
        |pixel| pixel.map(quantize_channel),
        &mut bytes,
    );
    bytes
}

/// Trilinear sample of the volume at a (possibly fractional) position given
/// in voxel coordinates.  Positions outside the volume return `None`.
fn sample_trilinear(volume: &Volume, pos: [f32; 3]) -> Option<f32> {
    let dims = volume.dims();
    let (nx, ny, nz) = (dims.0 as f32, dims.1 as f32, dims.2 as f32);
    if pos[0] < 0.0 || pos[1] < 0.0 || pos[2] < 0.0 || pos[0] > nx - 1.0 || pos[1] > ny - 1.0 || pos[2] > nz - 1.0 {
        return None;
    }
    let x0 = pos[0].floor() as usize;
    let y0 = pos[1].floor() as usize;
    let z0 = pos[2].floor() as usize;
    let x1 = (x0 + 1).min(dims.0 - 1);
    let y1 = (y0 + 1).min(dims.1 - 1);
    let z1 = (z0 + 1).min(dims.2 - 1);
    let fx = pos[0] - x0 as f32;
    let fy = pos[1] - y0 as f32;
    let fz = pos[2] - z0 as f32;
    let lerp = |a: f32, b: f32, t: f32| a + (b - a) * t;
    let c00 = lerp(volume.get(x0, y0, z0), volume.get(x1, y0, z0), fx);
    let c10 = lerp(volume.get(x0, y1, z0), volume.get(x1, y1, z0), fx);
    let c01 = lerp(volume.get(x0, y0, z1), volume.get(x1, y0, z1), fx);
    let c11 = lerp(volume.get(x0, y1, z1), volume.get(x1, y1, z1), fx);
    let c0 = lerp(c00, c10, fy);
    let c1 = lerp(c01, c11, fy);
    Some(lerp(c0, c1, fz))
}

/// Render the full volume from an arbitrary orthographic view orientation.
///
/// Used as ground truth for IBRAVR artifact measurement and as the "render
/// remote" baseline.  Much more expensive than [`render_region`].
pub fn render_view(
    volume: &Volume,
    view: &ViewOrientation,
    transfer: &TransferFunction,
    settings: &RenderSettings,
) -> RgbaImage {
    let dims = volume.dims();
    let center = [
        (dims.0 as f32 - 1.0) / 2.0,
        (dims.1 as f32 - 1.0) / 2.0,
        (dims.2 as f32 - 1.0) / 2.0,
    ];
    let extent = (dims.0.max(dims.1).max(dims.2)) as f32;
    let dir64 = view.view_direction();
    let dir = [dir64[0] as f32, dir64[1] as f32, dir64[2] as f32];
    // Build an orthonormal basis (right, up, dir).
    let up_hint = if dir[1].abs() > 0.9 {
        [1.0, 0.0, 0.0]
    } else {
        [0.0, 1.0, 0.0]
    };
    let right = normalize(cross(up_hint, dir));
    let up = normalize(cross(dir, right));

    let (vmin, vmax) = volume.value_range();
    let span = (vmax - vmin).max(1e-20);
    let spacing = settings.step.max(0.05);
    let half = extent * 0.75;
    let ray_start_dist = extent;
    let ray_length = extent * 2.0;

    let mut image = RgbaImage::new(settings.image_width, settings.image_height);
    for py in 0..settings.image_height {
        let sy = (py as f32 + 0.5) / settings.image_height as f32 * 2.0 - 1.0;
        for px in 0..settings.image_width {
            let sx = (px as f32 + 0.5) / settings.image_width as f32 * 2.0 - 1.0;
            // Ray origin on a plane in front of the volume, moving along dir.
            let origin = [
                center[0] + right[0] * sx * half + up[0] * sy * half - dir[0] * ray_start_dist,
                center[1] + right[1] * sx * half + up[1] * sy * half - dir[1] * ray_start_dist,
                center[2] + right[2] * sx * half + up[2] * sy * half - dir[2] * ray_start_dist,
            ];
            let mut acc = [0.0f32; 4];
            let mut t = 0.0f32;
            while t < ray_length {
                let pos = [origin[0] + dir[0] * t, origin[1] + dir[1] * t, origin[2] + dir[2] * t];
                if let Some(raw) = sample_trilinear(volume, pos) {
                    let norm = (raw - vmin) / span;
                    let sample = transfer.evaluate_corrected(norm, spacing);
                    blend_front_to_back(&mut acc, sample);
                    if acc[3] >= settings.early_termination {
                        break;
                    }
                }
                t += spacing;
            }
            image.set(px, py, finalize(acc));
        }
    }
    image
}

/// Render the full volume along a principal axis: a convenience wrapper used
/// as the exact reference for compositing per-slab images (the sum of the
/// parts must equal the whole).
pub fn render_volume_full(
    volume: &Volume,
    axis: Axis,
    transfer: &TransferFunction,
    settings: &RenderSettings,
) -> RgbaImage {
    render_region(volume, axis, transfer, volume.value_range(), settings)
}

fn cross(a: [f32; 3], b: [f32; 3]) -> [f32; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn normalize(v: [f32; 3]) -> [f32; 3] {
    let n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt().max(1e-12);
    [v[0] / n, v[1] / n, v[2] / n]
}

/// Estimate of the cost of rendering a region in voxel-samples, used by the
/// virtual-time platform models to convert region sizes into render seconds.
pub fn render_cost_samples(region_cells: usize, settings: &RenderSettings) -> u64 {
    // One ray per pixel marching through the region's depth; approximating
    // depth by cells^(1/3) of the region would under-count slabs, so charge
    // cells / step directly (each cell visited about once per unit step).
    (region_cells as f64 / settings.step.max(0.05) as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::combustion_jet;
    use proptest::prelude::*;
    use std::cell::Cell;

    fn test_volume() -> Volume {
        combustion_jet((32, 24, 24), 0.5, 7)
    }

    /// The oracle: `render_region` as it was before distinct-ray casting, one
    /// ray marched per pixel, kept verbatim.  The kernel must reproduce it bit
    /// for bit.
    fn render_region_per_pixel(
        volume: &Volume,
        axis: Axis,
        transfer: &TransferFunction,
        value_range: (f32, f32),
        settings: &RenderSettings,
    ) -> RgbaImage {
        let dims = volume.dims();
        let (ray_len, img_u, img_v): (usize, usize, usize) = match axis {
            Axis::X => (dims.0, dims.1, dims.2),
            Axis::Y => (dims.1, dims.0, dims.2),
            Axis::Z => (dims.2, dims.0, dims.1),
        };
        let mut image = RgbaImage::new(settings.image_width, settings.image_height);
        let span = (value_range.1 - value_range.0).max(1e-20);
        // Spacing ratio for opacity correction: a transfer function calibrated
        // for unit steps through the full volume.
        let spacing = settings.step.max(0.05);

        for py in 0..settings.image_height {
            // Map pixel to volume coordinate in the v (image Y) direction.
            let v = ((py as f32 + 0.5) / settings.image_height as f32 * img_v as f32) as usize;
            let v = v.min(img_v - 1);
            for px in 0..settings.image_width {
                let u = ((px as f32 + 0.5) / settings.image_width as f32 * img_u as f32) as usize;
                let u = u.min(img_u - 1);
                let mut acc = [0.0f32; 4];
                let mut t = 0.0f32;
                while (t as usize) < ray_len {
                    let s = t as usize;
                    let raw = match axis {
                        Axis::X => volume.get(s, u, v),
                        Axis::Y => volume.get(u, s, v),
                        Axis::Z => volume.get(u, v, s),
                    };
                    let norm = (raw - value_range.0) / span;
                    let sample = transfer.evaluate_corrected(norm, spacing);
                    blend_front_to_back(&mut acc, sample);
                    if acc[3] >= settings.early_termination {
                        break;
                    }
                    t += spacing;
                }
                image.set(px, py, finalize(acc));
            }
        }
        image
    }

    const AXES: [Axis; 3] = [Axis::X, Axis::Y, Axis::Z];

    fn transfer_functions() -> [TransferFunction; 3] {
        [
            TransferFunction::Grayscale { opacity: 0.8 },
            TransferFunction::combustion_default(),
            TransferFunction::Peak {
                center: 0.4,
                width: 0.25,
                color: [0.2, 0.9, 0.4],
                opacity: 0.9,
            },
        ]
    }

    /// The contract, for one case: the f32 image has the oracle's bits and the
    /// RGBA8 writer has `to_rgba8()`'s bytes.
    fn assert_matches_oracle(volume: &Volume, axis: Axis, transfer: &TransferFunction, settings: &RenderSettings) {
        let range = volume.value_range();
        let oracle = render_region_per_pixel(volume, axis, transfer, range, settings);
        let image = render_region(volume, axis, transfer, range, settings);
        let case = || format!("dims {:?} {axis:?} {transfer:?} {settings:?}", volume.dims());
        assert_eq!((image.width(), image.height()), (oracle.width(), oracle.height()));
        let differing = image
            .data()
            .iter()
            .zip(oracle.data())
            .position(|(a, b)| a.to_bits() != b.to_bits());
        assert_eq!(
            differing,
            None,
            "f32 channel differs from the per-pixel oracle: {}",
            case()
        );
        let bytes = render_region_rgba8(volume, axis, transfer, range, settings);
        assert!(
            bytes == oracle.to_rgba8(),
            "RGBA8 writer differs from to_rgba8(): {}",
            case()
        );
    }

    /// Odd, thin and slab-shaped volumes; images that up-sample, down-sample
    /// and divide unevenly; steps finer and coarser than a voxel; thresholds
    /// that stop rays early, late and never.  One test per axis so the grid
    /// (2 160 cases, most of the time in the oracle) spreads over the cores.
    fn fixed_grid_matches_oracle(axis: Axis) {
        for dims in [(17, 9, 5), (8, 8, 1), (64, 64, 4), (5, 31, 12)] {
            let volume = combustion_jet(dims, 0.5, 7);
            for (width, height) in [(16, 16), (64, 48), (7, 130), (256, 256), (1, 1)] {
                for step in [0.3, 0.5, 1.0, 2.0] {
                    for early_termination in [0.5, 0.98, 2.0] {
                        let settings = RenderSettings {
                            step,
                            early_termination,
                            ..RenderSettings::with_size(width, height)
                        };
                        for transfer in &transfer_functions() {
                            assert_matches_oracle(&volume, axis, transfer, &settings);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_is_bit_identical_to_the_per_pixel_oracle_along_x() {
        fixed_grid_matches_oracle(Axis::X);
    }

    #[test]
    fn kernel_is_bit_identical_to_the_per_pixel_oracle_along_y() {
        fixed_grid_matches_oracle(Axis::Y);
    }

    #[test]
    fn kernel_is_bit_identical_to_the_per_pixel_oracle_along_z() {
        fixed_grid_matches_oracle(Axis::Z);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn kernel_is_bit_identical_to_the_per_pixel_oracle_on_sampled_cases(
            dims in (1usize..20, 1usize..20, 1usize..12),
            image in (1usize..70, 1usize..70),
            pick in (0usize..3, 0usize..3),
            step in 0.01f32..3.0,
            early_termination in 0.2f32..1.2,
            seed in 0u64..1000,
        ) {
            let volume = combustion_jet(dims, 0.5, seed);
            let settings = RenderSettings {
                step,
                early_termination,
                ..RenderSettings::with_size(image.0, image.1)
            };
            assert_matches_oracle(&volume, AXES[pick.0], &transfer_functions()[pick.1], &settings);
        }
    }

    #[test]
    fn an_upsampled_slab_classifies_each_voxel_at_most_once() {
        // wan_wire's shape: 512² pixels over a 64×64 footprint name every
        // column 64 times; the kernel must still visit each voxel once.
        let volume = combustion_jet((64, 64, 4), 0.5, 9);
        let transfer = TransferFunction::combustion_default();
        let settings = RenderSettings::with_size(512, 512);
        let calls = Cell::new(0usize);
        let mut image = RgbaImage::new(512, 512);
        cast_distinct_rays(
            &volume,
            Axis::Z,
            volume.value_range(),
            &settings,
            |norm, spacing, out| {
                calls.set(calls.get() + norm.len());
                transfer.classify_row(norm, spacing, out)
            },
            |pixel| pixel,
            image.data_mut(),
        );
        assert!(calls.get() <= 64 * 64 * 4, "{} classifications", calls.get());
        assert!(calls.get() > 0);
        assert_eq!(
            image,
            render_region(&volume, Axis::Z, &transfer, volume.value_range(), &settings)
        );
    }

    #[test]
    fn empty_volume_renders_transparent() {
        let v = Volume::zeros((8, 8, 8));
        let img = render_region(
            &v,
            Axis::Z,
            &TransferFunction::Grayscale { opacity: 1.0 },
            (0.0, 1.0),
            &RenderSettings::with_size(16, 16),
        );
        assert_eq!(img.coverage(), 0.0);
    }

    #[test]
    fn nonempty_volume_renders_something() {
        let v = test_volume();
        let img = render_region(
            &v,
            Axis::Z,
            &TransferFunction::combustion_default(),
            v.value_range(),
            &RenderSettings::with_size(64, 64),
        );
        assert!(img.coverage() > 0.05, "coverage {}", img.coverage());
    }

    #[test]
    fn slab_compositing_matches_full_render() {
        // Render the whole volume along Z, and render 4 Z-slabs separately
        // then composite them back-to-front; the results must match closely.
        // This is the core correctness property of object-order rendering.
        let v = test_volume();
        let tf = TransferFunction::combustion_default();
        let settings = RenderSettings::with_size(48, 48);
        let full = render_volume_full(&v, Axis::Z, &tf, &settings);

        let range = v.value_range();
        let slabs = 4;
        let nz = v.dims().2 / slabs;
        // Back-to-front: the farthest slab (highest Z) first.
        let (nx, ny, _) = v.dims();
        let mut composited = RgbaImage::new(48, 48);
        for s in (0..slabs).rev() {
            let slab = v.subvolume((0, 0, s * nz), (nx, ny, nz));
            composited.composite_over(&render_region(&slab, Axis::Z, &tf, range, &settings));
        }
        let err = full.mean_abs_diff(&composited);
        assert!(err < 0.02, "slab compositing diverged from full render: {err}");
    }

    #[test]
    fn axis_aligned_view_matches_axis_renderer() {
        // The general ray caster looking straight down -Z should roughly agree
        // with the fast axis-aligned path (up to sampling differences).
        let v = test_volume();
        let tf = TransferFunction::combustion_default();
        let settings = RenderSettings::with_size(32, 32);
        let fast = render_volume_full(&v, Axis::Z, &tf, &settings);
        let general = render_view(&v, &ViewOrientation::axis_aligned(), &tf, &settings);
        // Coverage should be in the same ballpark; exact pixel agreement is
        // not expected because the general caster letterboxes the volume.
        assert!(general.coverage() > 0.0);
        assert!(fast.coverage() > 0.0);
    }

    #[test]
    fn early_termination_reduces_no_correctness_for_opaque_scenes() {
        let v = test_volume();
        let tf = TransferFunction::Fire { opacity: 1.0 };
        let mut settings = RenderSettings::with_size(24, 24);
        settings.early_termination = 0.999;
        let full = render_volume_full(&v, Axis::X, &tf, &settings);
        settings.early_termination = 0.95;
        let early = render_volume_full(&v, Axis::X, &tf, &settings);
        assert!(full.mean_abs_diff(&early) < 0.05);
    }

    #[test]
    fn different_axes_give_different_images() {
        let v = test_volume();
        let tf = TransferFunction::combustion_default();
        let settings = RenderSettings::with_size(32, 32);
        let x = render_volume_full(&v, Axis::X, &tf, &settings);
        let z = render_volume_full(&v, Axis::Z, &tf, &settings);
        assert!(x.mean_abs_diff(&z) > 0.001, "jet should look different down X vs Z");
    }

    #[test]
    fn trilinear_sampling_interpolates() {
        let mut v = Volume::zeros((2, 2, 2));
        v.set(1, 0, 0, 1.0);
        assert!((sample_trilinear(&v, [0.5, 0.0, 0.0]).unwrap() - 0.5).abs() < 1e-6);
        assert!(sample_trilinear(&v, [-0.1, 0.0, 0.0]).is_none());
        assert!(sample_trilinear(&v, [0.0, 0.0, 1.5]).is_none());
    }

    #[test]
    fn render_cost_scales_with_region_size() {
        let s = RenderSettings::default();
        assert!(render_cost_samples(1_000_000, &s) > render_cost_samples(100_000, &s));
        let finer = RenderSettings {
            step: 0.5,
            ..RenderSettings::default()
        };
        assert!(render_cost_samples(100_000, &finer) > render_cost_samples(100_000, &s));
    }
}
