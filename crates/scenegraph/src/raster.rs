//! Software rasterizer for scene-graph snapshots.
//!
//! Stands in for the OpenGL texturing path the paper's viewer uses ("nearly
//! all graphics hardware supports two-dimensional texturing").  Rendering is
//! orthographic: textured quads are drawn with bilinear texture sampling and
//! Porter–Duff blending in back-to-front order, line sets are drawn with a
//! DDA, and text nodes are ignored (they have no pixels here).  The
//! projection conventions match `volren::render_view` so that IBRAVR output
//! can be compared pixel-for-pixel with ground-truth volume renderings.
//!
//! There is one quad loop.  It is generic over the texel accessor and
//! compiled once per [`Texture`] format, and the RGBA8 accessor yields the
//! floats [`RgbaImage::from_rgba8`] would have: a wire-format quad and its
//! expanded float image draw identical framebuffers, bit for bit.
//!
//! # A composite costs its visible pixels
//!
//! Under a rasterizer's fixed view and window, a quad's geometry and its
//! texture's dimensions fix everything a composite works out per pixel
//! except the texels: which pixels the quad covers, the four texels each one
//! samples and the two bilinear weights.  That is the quad's *sampling
//! plan*.  It is built once, by inverting the projection at every pixel of
//! the quad's bounding box, and every later composite of the same quad walks
//! it.  A line set's plan is the pixels its segments land on, each once: the
//! set draws by setting them to its colour.  Building it steps each distinct
//! segment once (an AMR grid repeats the edges its boxes share, and a
//! repeat lands on the same pixels).  [`Rasterizer::composite`] keeps
//! the plans its previous composite used and nothing else, and draws into
//! one framebuffer it keeps; [`Rasterizer::render`] is the one-shot path,
//! which blends each covered pixel as the inversion finds it, sets each
//! landed pixel as the DDA steps, and keeps nothing.
//!
//! A pixel is sampled only if one of its four texels has a non-zero alpha,
//! which is read from one byte (RGBA8) or one float's bits without decoding
//! the texel.  Four zero alphas interpolate to an alpha of zero, which the
//! blend would have skipped anyway.  Neither loop calls libm: a floor of a
//! coordinate already clamped to `[0, w - 1]` is a truncation, and a DDA
//! `round` of a non-negative coordinate is its integer part plus
//! `frac >= 0.5`.  The quad loop's expressions and their order are the
//! ones the per-pixel loop always used, so the framebuffer is the same to
//! the bit.
//!
//! A line's DDA steps `i = 0..=steps` at `t = i / steps`, and both screen
//! coordinates are monotone in `i`: the steps that land in the window form
//! one interval.  It is found by bisection on the same expressions, and only
//! its steps are taken, so a segment costs at most its pixels in the window
//! whatever its length.  A segment whose projected endpoints or extents are
//! not finite draws nothing.  That is the one output that differs from the
//! old loop, and only hostile geometry reaches it: that loop painted pixel
//! (0, 0) for a NaN endpoint and never finished for one at 1e30.

use crate::node::{Quad3, SceneNode, Texels, Texture};
use std::sync::Arc;
use volren::{RgbaImage, ViewOrientation};

/// Rasterization parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RasterSettings {
    /// Output width in pixels.
    pub width: usize,
    /// Output height in pixels.
    pub height: usize,
    /// Centre of the model in model coordinates (the volume centre).
    pub model_center: [f32; 3],
    /// Half-width of the screen in model units (matches
    /// `volren::render_view`, which uses 0.75 × the largest dimension).
    pub screen_half_extent: f32,
}

impl RasterSettings {
    /// Settings framing a volume of the given dimensions, matching the
    /// conventions of `volren::render_view`.
    pub fn framing_volume(dims: (usize, usize, usize), width: usize, height: usize) -> Self {
        let extent = dims.0.max(dims.1).max(dims.2) as f32;
        RasterSettings {
            width: width.max(1),
            height: height.max(1),
            model_center: [
                (dims.0 as f32 - 1.0) / 2.0,
                (dims.1 as f32 - 1.0) / 2.0,
                (dims.2 as f32 - 1.0) / 2.0,
            ],
            screen_half_extent: extent * 0.75,
        }
    }
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

fn dot(a: [f32; 3], b: [f32; 3]) -> f32 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn sub(a: [f32; 3], b: [f32; 3]) -> [f32; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

/// Work a [`Rasterizer`] has done in [`Rasterizer::composite`], summed over
/// its composites.  Counts, not times: exact on any host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RasterCounts {
    /// Composites drawn.
    pub composites: u64,
    /// Sampling plans built: a quad geometry and texture size that the
    /// previous composite did not draw.
    pub plans_built: u64,
    /// Pixels whose projection was inverted, all of them to build plans.
    pub inversions: u64,
    /// Line plans built: a line set (by allocation) that the previous
    /// composite did not draw.
    pub line_plans_built: u64,
    /// Line segments stepped, all of them to build line plans (a segment
    /// bitwise equal to one its set already stepped is not stepped again).
    pub segments: u64,
    /// The most DDA steps one segment took.
    pub max_segment_steps: u64,
}

/// The fixed view: everything that maps model space to pixels.
#[derive(Debug, Clone, Copy)]
struct View {
    settings: RasterSettings,
    /// Unit view direction (into the screen).
    dir: [f32; 3],
    /// Screen right and up unit vectors.
    right: [f32; 3],
    up: [f32; 3],
}

/// One covered pixel of a quad: where it lands and how it samples.
#[derive(Debug, Clone, Copy)]
struct Tap {
    /// Framebuffer index, `y × width + x`.
    pixel: usize,
    /// Row-major index of the texel at the sample's floor, `(x0, y0)`.
    texel: usize,
    /// Bilinear weights.
    fx: f32,
    fy: f32,
}

/// What a quad's sampling plan is stored under: its geometry, bit for bit,
/// and its texture's dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlanKey {
    geometry: [u32; 9],
    texture: (usize, usize),
}

impl PlanKey {
    fn new(quad: &Quad3, texture: &Texture) -> Self {
        let mut geometry = [0u32; 9];
        for (bits, c) in geometry
            .iter_mut()
            .zip(quad.center.iter().chain(&quad.u).chain(&quad.v))
        {
            *bits = c.to_bits();
        }
        PlanKey {
            geometry,
            texture: (texture.width(), texture.height()),
        }
    }
}

/// Every covered pixel of one quad over one texture size, with its texels
/// and weights.  Pixels are independent within a quad (each is blended
/// once), so the plan keeps them in two lists by how their neighbours step.
#[derive(Debug, Default)]
struct SamplingPlan {
    /// Taps whose four texels are `texel`, `+ 1`, `+ width` and `+ width + 1`.
    taps: Vec<Tap>,
    /// Taps on the texture's last column or row, where the right or lower
    /// neighbour is the texel itself: `(tap, right step, down step)`.
    edge: Vec<(Tap, usize, usize)>,
    /// Texture width: the interior taps' down step.
    width: usize,
}

impl SamplingPlan {
    /// The plan of `quad` over a `texture`-sized image, and the pixels whose
    /// projection was inverted to find it.
    fn build(view: &View, quad: &Quad3, texture: (usize, usize)) -> (Self, u64) {
        let mut plan = SamplingPlan {
            width: texture.0,
            ..SamplingPlan::default()
        };
        let inverted = view.for_each_tap(quad, texture, |tap, right, down| {
            if right == 1 && down == texture.0 {
                plan.taps.push(tap);
            } else {
                plan.edge.push((tap, right, down));
            }
        });
        (plan, inverted)
    }

    fn draw<T: Texels>(&self, fb: &mut [[f32; 4]], image: &T) {
        for &tap in &self.taps {
            blend_tap(fb, image, tap, 1, self.width);
        }
        for &(tap, right, down) in &self.edge {
            blend_tap(fb, image, tap, right, down);
        }
    }
}

/// The pixels one line set's segments land on, each once: drawing the set
/// in its colour is setting them, in any order.
#[derive(Debug)]
struct LinePlan {
    /// The segments stepped, held so that the same allocation is the same
    /// segments.
    segments: Arc<Vec<([f32; 3], [f32; 3])>>,
    pixels: Vec<usize>,
}

impl LinePlan {
    /// Step `segments` once, keeping each pixel the first time it is landed
    /// on, and passing over a segment bitwise equal to one already stepped
    /// (it lands on the same pixels).  `scratch` holds a clear bitmap of the
    /// window, and is left with it clear.
    fn build(
        view: &View,
        segments: &Arc<Vec<([f32; 3], [f32; 3])>>,
        scratch: &mut LineScratch,
        counts: &mut RasterCounts,
    ) -> Self {
        let LineScratch { seen, stepped } = scratch;
        // A direct-mapped table of stepped segments (index + 1; 0 is empty)
        // at a hash of their bits.  A slot holds one segment, so a collision
        // only lets a duplicate be stepped again: the lookup is O(1) however
        // the segments were chosen.
        let slots = (segments.len() * 2).next_power_of_two().max(64);
        stepped.clear();
        stepped.resize(slots, 0);
        let bits = |(a, b): &([f32; 3], [f32; 3])| {
            let mut words = [0u32; 6];
            for (w, c) in words.iter_mut().zip(a.iter().chain(b)) {
                *w = c.to_bits();
            }
            words
        };
        let mut pixels = Vec::new();
        view.step_lines(
            segments,
            counts,
            |index| {
                let key = bits(&segments[index]);
                let hash = key
                    .iter()
                    .fold(0u64, |h, &w| (h ^ u64::from(w)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let slot = (hash >> (64 - slots.trailing_zeros())) as usize;
                let held = stepped[slot];
                if held != 0 && bits(&segments[held - 1]) == key {
                    return true;
                }
                stepped[slot] = index + 1;
                false
            },
            |p| {
                let (word, bit) = (p / 64, 1u64 << (p % 64));
                if seen[word] & bit == 0 {
                    seen[word] |= bit;
                    pixels.push(p);
                }
            },
        );
        for &p in &pixels {
            seen[p / 64] = 0;
        }
        LinePlan {
            segments: Arc::clone(segments),
            pixels,
        }
    }
}

/// What building line plans reuses: a bitmap of the window's pixels, clear
/// between builds, and the table of segments stepped.
#[derive(Debug)]
struct LineScratch {
    seen: Vec<u64>,
    stepped: Vec<usize>,
}

/// The index in `current` of the plan `matches` finds: one this composite
/// already used, else one the previous composite used (moved over), else
/// one `build` makes.
fn kept_or_built<P>(
    current: &mut Vec<P>,
    previous: &mut Vec<P>,
    matches: impl Fn(&P) -> bool,
    build: impl FnOnce() -> P,
) -> usize {
    if let Some(at) = current.iter().position(&matches) {
        return at;
    }
    let plan = match previous.iter().position(&matches) {
        Some(kept) => previous.swap_remove(kept),
        None => build(),
    };
    current.push(plan);
    current.len() - 1
}

/// Bilinear-sample `image` at `tap` and blend it over its pixel.  Four zero
/// alphas leave the pixel as it is, and the texels unread.
#[inline(always)]
fn blend_tap<T: Texels>(fb: &mut [[f32; 4]], image: &T, tap: Tap, right: usize, down: usize) {
    let (t00, t01) = (tap.texel, tap.texel + down);
    let (t10, t11) = (t00 + right, t01 + right);
    if (image.alpha_bits(t00) | image.alpha_bits(t10) | image.alpha_bits(t01) | image.alpha_bits(t11)) == 0 {
        return;
    }
    let (p00, p10, p01, p11) = (image.texel(t00), image.texel(t10), image.texel(t01), image.texel(t11));
    let mut src = [0.0f32; 4];
    for c in 0..4 {
        let a = p00[c] + (p10[c] - p00[c]) * tap.fx;
        let b = p01[c] + (p11[c] - p01[c]) * tap.fx;
        src[c] = a + (b - a) * tap.fy;
    }
    if src[3] <= 1e-5 {
        return;
    }
    let dst = fb[tap.pixel];
    let fa = src[3];
    let out_a = fa + dst[3] * (1.0 - fa);
    let mut out = [0.0f32; 4];
    if out_a > 1e-9 {
        for c in 0..3 {
            out[c] = (src[c] * fa + dst[c] * dst[3] * (1.0 - fa)) / out_a;
        }
    }
    out[3] = out_a;
    fb[tap.pixel] = out;
}

/// Step indices below this are exact in `f32`: step `i` is its own
/// `i as f32`.
const EXACT_STEPS: usize = 1 << 24;

/// DDA steps whose `t` is computed together, in lanes the compiler
/// vectorises.
const STEP_BATCH: usize = 8;

/// `0.0, 1.0, …`: a batch's offsets from its first step.
const STEP_OFFSETS: [f32; STEP_BATCH] = {
    let mut offsets = [0.0f32; STEP_BATCH];
    let mut k = 0;
    while k < STEP_BATCH {
        offsets[k] = k as f32;
        k += 1;
    }
    offsets
};

/// `x.round()` for an `x` in `[0, 2²⁴)`, without libm: the integer part,
/// plus one when the (exact) fraction is at least a half.  In `i32`, so a
/// batch of them vectorises; lanes past a segment's end may hold any float,
/// hence the wrapping add.
#[inline]
fn round_nonneg(x: f32) -> i32 {
    let whole = x as i32;
    whole.wrapping_add(i32::from(x - whole as f32 >= 0.5))
}

/// `x.ceil() as usize` for a finite `x >= 0`, without libm: the integer
/// part, plus one when there is a fraction (saturating, as the cast does).
#[inline]
fn ceil_nonneg(x: f32) -> usize {
    let whole = x as usize;
    whole.saturating_add(usize::from((whole as f32) < x))
}

/// The first step of `lo..=hi` at which `pred` holds, for a `pred` that is
/// false and then true along the steps.
fn first_step(mut lo: usize, mut hi: usize, pred: impl Fn(usize) -> bool) -> Option<usize> {
    if !pred(hi) {
        return None;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// The steps `first..=last` of `0..=steps` at which a coordinate lands on
/// one of `n` pixels — `c >= 0` and `c.round() < n`, that is `c < n - 0.5`
/// — for a coordinate that rises (or falls) with the step.
fn steps_inside(steps: usize, n: usize, rising: bool, coord: impl Fn(usize) -> f32) -> Option<(usize, usize)> {
    let limit = n as f64 - 0.5;
    let below = |i: usize| coord(i) < 0.0;
    let beyond = |i: usize| f64::from(coord(i)) >= limit;
    let (first, past) = if rising {
        let first = first_step(0, steps, |i| !below(i))?;
        (first, first_step(first, steps, beyond))
    } else {
        let first = first_step(0, steps, |i| !beyond(i))?;
        (first, first_step(first, steps, below))
    };
    match past {
        None => Some((first, steps)),
        Some(past) if past > first => Some((first, past - 1)),
        Some(_) => None,
    }
}

impl View {
    fn new(view: &ViewOrientation, settings: RasterSettings) -> Self {
        let d64 = view.view_direction();
        let dir = normalize([d64[0] as f32, d64[1] as f32, d64[2] as f32]);
        let up_hint = if dir[1].abs() > 0.9 {
            [1.0, 0.0, 0.0]
        } else {
            [0.0, 1.0, 0.0]
        };
        let right = normalize(cross(up_hint, dir));
        let up = normalize(cross(dir, right));
        View {
            settings,
            dir,
            right,
            up,
        }
    }

    fn project(&self, p: [f32; 3]) -> (f32, f32, f32) {
        let rel = sub(p, self.settings.model_center);
        let sx = dot(rel, self.right) / self.settings.screen_half_extent;
        let sy = dot(rel, self.up) / self.settings.screen_half_extent;
        let depth = dot(rel, self.dir);
        let px = (sx + 1.0) / 2.0 * self.settings.width as f32 - 0.5;
        let py = (sy + 1.0) / 2.0 * self.settings.height as f32 - 0.5;
        (px, py, depth)
    }

    /// Node indices in drawing order: farthest (largest depth) first.
    fn back_to_front(&self, nodes: &[SceneNode]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by(|a, b| {
            nodes[*b]
                .depth_along(self.dir)
                .total_cmp(&nodes[*a].depth_along(self.dir))
        });
        order
    }

    /// Invert the projection at every window pixel of `quad`'s bounding box
    /// and hand each covered one to `tap`, with its texel steps to the right
    /// and down (zero on the texture's last column or row).  Returns the
    /// pixels inverted.
    fn for_each_tap(&self, quad: &Quad3, texture: (usize, usize), mut tap: impl FnMut(Tap, usize, usize)) -> u64 {
        // Projected centre and axis vectors (orthographic projection is
        // affine, so p(center + a*u + b*v) = p(center) + a*P(u) + b*P(v)).
        let (cx, cy, _) = self.project(quad.center);
        let ue = [
            quad.center[0] + quad.u[0],
            quad.center[1] + quad.u[1],
            quad.center[2] + quad.u[2],
        ];
        let ve = [
            quad.center[0] + quad.v[0],
            quad.center[1] + quad.v[1],
            quad.center[2] + quad.v[2],
        ];
        let (ux, uy, _) = self.project(ue);
        let (vx, vy, _) = self.project(ve);
        let au = (ux - cx, uy - cy);
        let av = (vx - cx, vy - cy);
        let det = au.0 * av.1 - au.1 * av.0;
        if det.abs() < 1e-6 {
            // Edge-on quad: no area to draw.
            return 0;
        }
        // Screen-space bounding box of the four corners.
        let mut min_x = f32::INFINITY;
        let mut max_x = f32::NEG_INFINITY;
        let mut min_y = f32::INFINITY;
        let mut max_y = f32::NEG_INFINITY;
        for c in quad.corners() {
            let (px, py, _) = self.project(c);
            min_x = min_x.min(px);
            max_x = max_x.max(px);
            min_y = min_y.min(py);
            max_y = max_y.max(py);
        }
        let (width, height) = (self.settings.width, self.settings.height);
        let x0 = min_x.floor().max(0.0) as usize;
        let x1 = (max_x.ceil() as isize).clamp(0, width as isize - 1) as usize;
        let y0 = min_y.floor().max(0.0) as usize;
        let y1 = (max_y.ceil() as isize).clamp(0, height as isize - 1) as usize;
        if min_x > width as f32 || min_y > height as f32 || max_x < 0.0 || max_y < 0.0 {
            return 0;
        }

        let (tw, th) = texture;
        let (last_x, last_y) = ((tw - 1) as f32, (th - 1) as f32);
        for py in y0..=y1 {
            let dy = py as f32 - cy;
            let (dy_av0, au0_dy) = (dy * av.0, au.0 * dy);
            for px in x0..=x1 {
                let dx = px as f32 - cx;
                // Solve [au av] [a b]^T = [dx dy]^T.
                let a = (dx * av.1 - dy_av0) / det;
                let b = (au0_dy - au.1 * dx) / det;
                if a.abs() <= 1.0 && b.abs() <= 1.0 {
                    let u = (a + 1.0) / 2.0;
                    let v = (b + 1.0) / 2.0;
                    // Clamped to [0, w - 1], so the floor is a truncation.
                    let x = (u.clamp(0.0, 1.0) * last_x).max(0.0);
                    let y = (v.clamp(0.0, 1.0) * last_y).max(0.0);
                    let (xt, yt) = (x as usize, y as usize);
                    tap(
                        Tap {
                            pixel: py * width + px,
                            texel: yt * tw + xt,
                            fx: x - xt as f32,
                            fy: y - yt as f32,
                        },
                        usize::from(xt + 1 < tw),
                        if yt + 1 < th { tw } else { 0 },
                    );
                }
            }
        }
        ((x1 + 1).saturating_sub(x0) * (y1 + 1).saturating_sub(y0)) as u64
    }

    /// Step `segments` only where each is in the window (module docs),
    /// handing every pixel a step lands on to `land`, and add the work to
    /// `counts`.  Segments `skip` picks by index are passed over.
    fn step_lines(
        &self,
        segments: &[([f32; 3], [f32; 3])],
        counts: &mut RasterCounts,
        mut skip: impl FnMut(usize) -> bool,
        mut land: impl FnMut(usize),
    ) {
        let (width, height) = (self.settings.width, self.settings.height);
        // Where `c >= 0` and `c.round() < n`.
        let (x_limit, y_limit) = (width as f64 - 0.5, height as f64 - 0.5);
        let on_window = |x: f32, y: f32| x >= 0.0 && y >= 0.0 && f64::from(x) < x_limit && f64::from(y) < y_limit;
        for (index, (a, b)) in segments.iter().enumerate() {
            if skip(index) {
                continue;
            }
            let (ax, ay, _) = self.project(*a);
            let (bx, by, _) = self.project(*b);
            let (dx, dy) = (bx - ax, by - ay);
            if !(ax.is_finite() && ay.is_finite() && dx.is_finite() && dy.is_finite()) {
                continue;
            }
            counts.segments += 1;
            let steps = ceil_nonneg(dx.abs().max(dy.abs())).max(1);
            let s = steps as f32;
            let t = |i: usize| i as f32 / s;
            // Step 0 is at t = 0 and the last step at t = 1, exactly.
            let window = if on_window(ax, ay) && on_window(ax + dx, ay + dy) {
                Some((0, steps))
            } else {
                steps_inside(steps, width, dx >= 0.0, |i| ax + dx * t(i)).and_then(|(x_first, x_last)| {
                    let (y_first, y_last) = steps_inside(steps, height, dy >= 0.0, |i| ay + dy * t(i))?;
                    let (first, last) = (x_first.max(y_first), x_last.min(y_last));
                    (first <= last).then_some((first, last))
                })
            };
            let Some((first, last)) = window else {
                continue;
            };
            let pixel = |x: f32, y: f32| (round_nonneg(y) as usize) * width + round_nonneg(x) as usize;
            let mut taken = 0u64;
            // Below 2^24 each step is its own float: a batch of steps at once,
            // every lane computed (those past the segment are not plotted).
            let exact_last = last.min(EXACT_STEPS - 1);
            let mut i = first;
            while i <= exact_last {
                let n = (exact_last - i + 1).min(STEP_BATCH);
                let base = i as f32;
                let (mut xs, mut ys) = ([0i32; STEP_BATCH], [0i32; STEP_BATCH]);
                for k in 0..STEP_BATCH {
                    let t = (base + STEP_OFFSETS[k]) / s;
                    xs[k] = round_nonneg(ax + dx * t);
                    ys[k] = round_nonneg(ay + dy * t);
                }
                for (&x, &y) in xs[..n].iter().zip(&ys[..n]) {
                    land(y as usize * width + x as usize);
                }
                i += n;
                taken += n as u64;
            }
            // From 2^24 up, neighbouring steps share one `i as f32`, hence one
            // `t` and one pixel: take each distinct value once.
            if last >= EXACT_STEPS {
                let mut v = first.max(EXACT_STEPS) as f32;
                let end = last as f32;
                while v <= end {
                    let t = v / s;
                    land(pixel(ax + dx * t, ay + dy * t));
                    v = v.next_up();
                    taken += 1;
                }
            }
            counts.max_segment_steps = counts.max_segment_steps.max(taken);
        }
    }
}

/// An orthographic rasterizer for one view orientation and window.
///
/// [`Rasterizer::render`] draws a snapshot into a new framebuffer and keeps
/// nothing.  [`Rasterizer::composite`] is for a caller that draws the same
/// scene again and again (the viewer's render thread): it keeps one
/// framebuffer, and the plans of the quads and line sets its previous
/// composite drew (module docs).
pub struct Rasterizer {
    view: View,
    /// The quad and line plans the previous composite used, and only those.
    plans: Vec<(PlanKey, SamplingPlan)>,
    line_plans: Vec<LinePlan>,
    /// What `composite` clears and draws into, and the scratch of line plan
    /// builds; allocated by the first composite.
    framebuffer: Option<(RgbaImage, LineScratch)>,
    counts: RasterCounts,
}

impl Rasterizer {
    /// Build a rasterizer for one view.
    pub fn new(view: &ViewOrientation, settings: RasterSettings) -> Self {
        Rasterizer {
            view: View::new(view, settings),
            plans: Vec::new(),
            line_plans: Vec::new(),
            framebuffer: None,
            counts: RasterCounts::default(),
        }
    }

    /// The unit view direction.
    pub fn view_direction(&self) -> [f32; 3] {
        self.view.dir
    }

    /// Project a model-space point to (pixel x, pixel y, depth along view).
    pub fn project(&self, p: [f32; 3]) -> (f32, f32, f32) {
        self.view.project(p)
    }

    /// Draw a snapshot of scene nodes into a new framebuffer, blending
    /// back-to-front along the view direction.
    pub fn render(&self, nodes: &[SceneNode]) -> RgbaImage {
        let view = &self.view;
        let mut framebuffer = RgbaImage::new(view.settings.width, view.settings.height);
        let fb = framebuffer.pixels_mut();
        for idx in view.back_to_front(nodes) {
            match &nodes[idx] {
                // A mesh's depth offsets displace geometry along the quad
                // normal; under orthographic projection the silhouette is
                // unchanged, so the mesh rasterizes like its base quad.
                SceneNode::TextureQuad { image, quad } | SceneNode::QuadMesh { image, quad, .. } => match image {
                    Texture::Float(texels) => draw_quad_once(view, fb, &**texels, quad),
                    Texture::Rgba8(texels) => draw_quad_once(view, fb, &texels.texels(), quad),
                },
                SceneNode::Lines { segments, color } => {
                    view.step_lines(segments, &mut RasterCounts::default(), |_| false, |p| fb[p] = *color)
                }
                SceneNode::Text { .. } => {}
            }
        }
        framebuffer
    }

    /// [`Rasterizer::render`] into the framebuffer this rasterizer keeps,
    /// cleared first, walking each quad's sampling plan and each line set's
    /// pixels.  A plan is kept if the previous composite drew the same quad
    /// geometry over the same texture size (the same line segments, by
    /// allocation), built otherwise; the previous composite's plans this one
    /// did not use are dropped.  The framebuffer is bit for bit `render`'s.
    pub fn composite(&mut self, nodes: &[SceneNode]) -> &RgbaImage {
        let Rasterizer {
            view,
            plans,
            line_plans,
            framebuffer,
            counts,
        } = self;
        let (framebuffer, scratch) = framebuffer.get_or_insert_with(|| {
            let (width, height) = (view.settings.width, view.settings.height);
            let scratch = LineScratch {
                seen: vec![0; (width * height).div_ceil(64)],
                stepped: Vec::new(),
            };
            (RgbaImage::new(width, height), scratch)
        });
        let fb = framebuffer.pixels_mut();
        fb.fill([0.0; 4]);
        let (mut previous, mut previous_lines) = (std::mem::take(plans), std::mem::take(line_plans));
        for idx in view.back_to_front(nodes) {
            match &nodes[idx] {
                SceneNode::TextureQuad { image, quad } | SceneNode::QuadMesh { image, quad, .. } => {
                    let key = PlanKey::new(quad, image);
                    let at = kept_or_built(
                        plans,
                        &mut previous,
                        |(k, _)| *k == key,
                        || {
                            let (plan, inverted) = SamplingPlan::build(view, quad, key.texture);
                            counts.plans_built += 1;
                            counts.inversions += inverted;
                            (key, plan)
                        },
                    );
                    match image {
                        Texture::Float(texels) => plans[at].1.draw(fb, &**texels),
                        Texture::Rgba8(texels) => plans[at].1.draw(fb, &texels.texels()),
                    }
                }
                SceneNode::Lines { segments, color } => {
                    let at = kept_or_built(
                        line_plans,
                        &mut previous_lines,
                        |plan| Arc::ptr_eq(&plan.segments, segments),
                        || {
                            counts.line_plans_built += 1;
                            LinePlan::build(view, segments, scratch, counts)
                        },
                    );
                    for &p in &line_plans[at].pixels {
                        fb[p] = *color;
                    }
                }
                SceneNode::Text { .. } => {}
            }
        }
        counts.composites += 1;
        framebuffer
    }

    /// The framebuffer of the last [`Rasterizer::composite`] (transparent
    /// black if there was none), handed over.
    pub fn into_framebuffer(self) -> RgbaImage {
        let settings = self.view.settings;
        self.framebuffer
            .map_or_else(|| RgbaImage::new(settings.width, settings.height), |(image, _)| image)
    }

    /// The work [`Rasterizer::composite`] has done so far.
    pub fn counts(&self) -> RasterCounts {
        self.counts
    }
}

/// The one-shot quad: each covered pixel blended as the inversion finds it.
fn draw_quad_once<T: Texels>(view: &View, fb: &mut [[f32; 4]], image: &T, quad: &Quad3) {
    view.for_each_tap(quad, (image.width(), image.height()), |tap, right, down| {
        blend_tap(fb, image, tap, right, down)
    });
}

/// The rasterizer before sampling plans, kept as the reference: a per-pixel
/// projection inversion with `floor` and a four-texel decode at every
/// covered pixel, and a DDA over every step of every segment.  Verbatim but
/// for the texel accessor, which now takes a row-major index.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// Bilinear sample of a texture at normalized coordinates in `[0, 1]²`.
    fn sample_texture<T: Texels>(img: &T, u: f32, v: f32) -> [f32; 4] {
        let x = (u.clamp(0.0, 1.0) * (img.width() - 1) as f32).max(0.0);
        let y = (v.clamp(0.0, 1.0) * (img.height() - 1) as f32).max(0.0);
        let x0 = x.floor() as usize;
        let y0 = y.floor() as usize;
        let x1 = (x0 + 1).min(img.width() - 1);
        let y1 = (y0 + 1).min(img.height() - 1);
        let fx = x - x0 as f32;
        let fy = y - y0 as f32;
        let mut out = [0.0f32; 4];
        let w = img.width();
        let p00 = img.texel(y0 * w + x0);
        let p10 = img.texel(y0 * w + x1);
        let p01 = img.texel(y1 * w + x0);
        let p11 = img.texel(y1 * w + x1);
        for c in 0..4 {
            let a = p00[c] + (p10[c] - p00[c]) * fx;
            let b = p01[c] + (p11[c] - p01[c]) * fx;
            out[c] = a + (b - a) * fy;
        }
        out
    }

    /// What `Rasterizer::render` drew before sampling plans.
    pub(crate) fn render(raster: &Rasterizer, nodes: &[SceneNode]) -> RgbaImage {
        let settings = raster.view.settings;
        let mut framebuffer = RgbaImage::new(settings.width, settings.height);
        let dir = raster.view_direction();
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by(|a, b| nodes[*b].depth_along(dir).total_cmp(&nodes[*a].depth_along(dir)));
        for idx in order {
            match &nodes[idx] {
                SceneNode::TextureQuad { image, quad } | SceneNode::QuadMesh { image, quad, .. } => match image {
                    Texture::Float(texels) => draw_quad(raster, &mut framebuffer, &**texels, quad),
                    Texture::Rgba8(texels) => draw_quad(raster, &mut framebuffer, &texels.texels(), quad),
                },
                SceneNode::Lines { segments, color } => draw_lines(raster, &mut framebuffer, segments, *color),
                SceneNode::Text { .. } => {}
            }
        }
        framebuffer
    }

    fn draw_quad<T: Texels>(raster: &Rasterizer, fb: &mut RgbaImage, image: &T, quad: &Quad3) {
        let settings = raster.view.settings;
        let (cx, cy, _) = raster.project(quad.center);
        let ue = [
            quad.center[0] + quad.u[0],
            quad.center[1] + quad.u[1],
            quad.center[2] + quad.u[2],
        ];
        let ve = [
            quad.center[0] + quad.v[0],
            quad.center[1] + quad.v[1],
            quad.center[2] + quad.v[2],
        ];
        let (ux, uy, _) = raster.project(ue);
        let (vx, vy, _) = raster.project(ve);
        let au = (ux - cx, uy - cy);
        let av = (vx - cx, vy - cy);
        let det = au.0 * av.1 - au.1 * av.0;
        if det.abs() < 1e-6 {
            return;
        }
        let corners = quad.corners();
        let mut min_x = f32::INFINITY;
        let mut max_x = f32::NEG_INFINITY;
        let mut min_y = f32::INFINITY;
        let mut max_y = f32::NEG_INFINITY;
        for c in corners {
            let (px, py, _) = raster.project(c);
            min_x = min_x.min(px);
            max_x = max_x.max(px);
            min_y = min_y.min(py);
            max_y = max_y.max(py);
        }
        let x0 = min_x.floor().max(0.0) as usize;
        let x1 = (max_x.ceil() as isize).clamp(0, settings.width as isize - 1) as usize;
        let y0 = min_y.floor().max(0.0) as usize;
        let y1 = (max_y.ceil() as isize).clamp(0, settings.height as isize - 1) as usize;
        if min_x > settings.width as f32 || min_y > settings.height as f32 || max_x < 0.0 || max_y < 0.0 {
            return;
        }
        for py in y0..=y1 {
            for px in x0..=x1 {
                let dx = px as f32 - cx;
                let dy = py as f32 - cy;
                let a = (dx * av.1 - dy * av.0) / det;
                let b = (au.0 * dy - au.1 * dx) / det;
                if a.abs() <= 1.0 && b.abs() <= 1.0 {
                    let u = (a + 1.0) / 2.0;
                    let v = (b + 1.0) / 2.0;
                    let src = sample_texture(image, u, v);
                    if src[3] <= 1e-5 {
                        continue;
                    }
                    let dst = fb.get(px, py);
                    let fa = src[3];
                    let out_a = fa + dst[3] * (1.0 - fa);
                    let mut out = [0.0f32; 4];
                    if out_a > 1e-9 {
                        for c in 0..3 {
                            out[c] = (src[c] * fa + dst[c] * dst[3] * (1.0 - fa)) / out_a;
                        }
                    }
                    out[3] = out_a;
                    fb.set(px, py, out);
                }
            }
        }
    }

    /// The DDA over every step.  Its step count is `steps + 1` per segment.
    pub(crate) fn draw_lines(
        raster: &Rasterizer,
        fb: &mut RgbaImage,
        segments: &[([f32; 3], [f32; 3])],
        color: [f32; 4],
    ) {
        for (a, b) in segments {
            let (ax, ay, _) = raster.project(*a);
            let (bx, by, _) = raster.project(*b);
            let steps = ((bx - ax).abs().max((by - ay).abs()).ceil() as usize).max(1);
            for i in 0..=steps {
                let t = i as f32 / steps as f32;
                let x = ax + (bx - ax) * t;
                let y = ay + (by - ay) * t;
                if x < 0.0 || y < 0.0 {
                    continue;
                }
                let (xi, yi) = (x.round() as usize, y.round() as usize);
                if xi < fb.width() && yi < fb.height() {
                    fb.set(xi, yi, color);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solid_texture(size: usize, rgba: [f32; 4]) -> RgbaImage {
        let mut img = RgbaImage::new(size, size);
        for y in 0..size {
            for x in 0..size {
                img.set(x, y, rgba);
            }
        }
        img
    }

    fn framing() -> RasterSettings {
        RasterSettings::framing_volume((64, 64, 64), 64, 64)
    }

    #[test]
    fn quad_facing_the_camera_covers_pixels() {
        let node = SceneNode::TextureQuad {
            image: solid_texture(8, [1.0, 0.0, 0.0, 1.0]).into(),
            quad: Quad3::axis_aligned(2, [31.5, 31.5, 31.5], 20.0, 20.0),
        };
        let r = Rasterizer::new(&ViewOrientation::axis_aligned(), framing());
        let fb = r.render(&[node]);
        assert!(fb.coverage() > 0.1, "coverage {}", fb.coverage());
        // The centre pixel is red.
        let centre = fb.get(32, 32);
        assert!(centre[0] > 0.9 && centre[3] > 0.9);
    }

    #[test]
    fn edge_on_quad_draws_nothing() {
        // A Z-aligned quad viewed along X is edge-on.
        let node = SceneNode::TextureQuad {
            image: solid_texture(8, [1.0, 1.0, 1.0, 1.0]).into(),
            quad: Quad3::axis_aligned(2, [31.5, 31.5, 31.5], 20.0, 20.0),
        };
        let r = Rasterizer::new(&ViewOrientation::new(90.0, 0.0), framing());
        let fb = r.render(std::slice::from_ref(&node));
        assert!(fb.coverage() < 0.02, "coverage {}", fb.coverage());
    }

    #[test]
    fn back_to_front_blending_puts_near_quad_on_top() {
        let far = SceneNode::TextureQuad {
            image: solid_texture(4, [0.0, 0.0, 1.0, 1.0]).into(),
            quad: Quad3::axis_aligned(2, [31.5, 31.5, 50.0], 20.0, 20.0),
        };
        let near = SceneNode::TextureQuad {
            image: solid_texture(4, [1.0, 0.0, 0.0, 1.0]).into(),
            quad: Quad3::axis_aligned(2, [31.5, 31.5, 10.0], 20.0, 20.0),
        };
        // Canonical view looks down -Z from +Z... view_direction is (0,0,-1),
        // so smaller Z is farther along the view direction; the quad at
        // z=10 ends up in front?  What matters is consistency: render with
        // both orders supplied and confirm the same result (sorting works).
        let r = Rasterizer::new(&ViewOrientation::axis_aligned(), framing());
        let ab = r.render(&[far.clone(), near.clone()]);
        let ba = r.render(&[near, far]);
        assert!(
            ab.rms_diff(&ba) < 1e-6,
            "draw order must be determined by depth sorting"
        );
        // And the centre is fully opaque, one of the two colours.
        let c = ab.get(32, 32);
        assert!(c[3] > 0.99);
        assert!(c[0] > 0.9 || c[2] > 0.9);
    }

    #[test]
    fn semi_transparent_quads_blend() {
        let back = SceneNode::TextureQuad {
            image: solid_texture(4, [0.0, 0.0, 1.0, 0.5]).into(),
            quad: Quad3::axis_aligned(2, [31.5, 31.5, 45.0], 20.0, 20.0),
        };
        let front = SceneNode::TextureQuad {
            image: solid_texture(4, [1.0, 0.0, 0.0, 0.5]).into(),
            quad: Quad3::axis_aligned(2, [31.5, 31.5, 15.0], 20.0, 20.0),
        };
        let r = Rasterizer::new(&ViewOrientation::axis_aligned(), framing());
        let fb = r.render(&[back, front]);
        let c = fb.get(32, 32);
        // Both colours contribute.
        assert!(c[0] > 0.1 && c[2] > 0.1, "got {c:?}");
        assert!(c[3] > 0.5 && c[3] <= 1.0);
    }

    #[test]
    fn lines_are_drawn() {
        let node = SceneNode::Lines {
            segments: std::sync::Arc::new(vec![([0.0, 0.0, 31.5], [63.0, 63.0, 31.5])]),
            color: [0.0, 1.0, 0.0, 1.0],
        };
        let r = Rasterizer::new(&ViewOrientation::axis_aligned(), framing());
        let fb = r.render(&[node]);
        assert!(fb.coverage() > 0.005 && fb.coverage() < 0.2);
    }

    #[test]
    fn text_nodes_are_ignored_gracefully() {
        let node = SceneNode::Text {
            position: [0.0; 3],
            content: "timestep 3".to_string(),
        };
        let r = Rasterizer::new(&ViewOrientation::axis_aligned(), framing());
        let fb = r.render(&[node]);
        assert_eq!(fb.coverage(), 0.0);
    }

    #[test]
    fn the_decode_table_is_the_from_rgba8_expression() {
        for b in 0..=255u8 {
            let table = crate::node::UNORM8[b as usize];
            assert_eq!(table.to_bits(), (b as f32 / 255.0).to_bits(), "entry {b}");
            // And `from_rgba8` itself, the reference the table stands in for.
            let reference = RgbaImage::from_rgba8(1, 1, &[b; 4]).get(0, 0)[0];
            assert_eq!(table.to_bits(), reference.to_bits(), "entry {b} vs from_rgba8");
        }
    }

    #[test]
    fn an_rgba8_quad_renders_the_floats_of_its_expanded_image() {
        // Every texture is drawn twice — as wire bytes (whole, and as prefixes
        // ending on a row, mid-row, mid-pixel and before the first texel) and
        // as `from_rgba8` of the same bytes zero-padded — over an opaque
        // backdrop so the blend's every term is live, and the framebuffers
        // must agree float for float.
        let settings = RasterSettings::framing_volume((32, 32, 32), 56, 44);
        let views = [
            ViewOrientation::new(8.0, 4.0),
            ViewOrientation::axis_aligned(),
            ViewOrientation::new(37.0, -21.0),
        ];
        let quads = [
            Quad3::axis_aligned(2, [15.5, 15.5, 10.0], 16.0, 16.0),
            Quad3::axis_aligned(2, [4.0, 22.0, 20.0], 9.5, 3.25),
            Quad3 {
                center: [15.5, 15.5, 15.5],
                u: [11.0, 4.0, 2.0],
                v: [-3.0, 12.0, 5.0],
            },
        ];
        let backdrop = SceneNode::TextureQuad {
            image: solid_texture(2, [0.2, 0.5, 0.7, 1.0]).into(),
            quad: Quad3::axis_aligned(2, [15.5, 15.5, -40.0], 40.0, 40.0),
        };
        let mut compared = 0usize;
        for (w, h) in [(1, 1), (1, 9), (7, 1), (2, 2), (3, 5), (16, 16), (64, 48)] {
            let full = w * h * 4;
            // Multiplicative hashing of the index: every byte value, no pattern
            // aligned with texels or rows.
            let bytes: Vec<u8> = (0..full)
                .map(|i: usize| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
                .collect();
            let row = w * 4;
            let mut prefixes = vec![
                full,
                0,
                1,
                full - 1,
                full - 2,
                row * (h / 2),
                row * (h / 2) + 4,
                row / 2 + 2,
            ];
            prefixes.retain(|&len| len <= full);
            prefixes.sort_unstable();
            prefixes.dedup();
            for len in prefixes {
                let mut padded = bytes[..len].to_vec();
                padded.resize(full, 0);
                let float = Texture::from(RgbaImage::from_rgba8(w, h, &padded));
                let wire = Texture::rgba8(w, h, bytes[..len].to_vec().into()).unwrap();
                for view in &views {
                    let raster = Rasterizer::new(view, settings);
                    for quad in &quads {
                        let draw = |image: &Texture| {
                            let node = SceneNode::TextureQuad {
                                image: image.clone(),
                                quad: *quad,
                            };
                            raster.render(&[backdrop.clone(), node])
                        };
                        let (a, b) = (draw(&wire), draw(&float));
                        let same = a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits());
                        assert!(same, "{w}x{h}, {len} of {full} bytes, {view:?}, {quad:?}");
                        assert_eq!(a.to_rgba8(), b.to_rgba8());
                        compared += 1;
                    }
                }
            }
        }
        assert!(compared > 300, "only {compared} renders compared");
    }

    #[test]
    fn projection_centers_the_model() {
        let r = Rasterizer::new(&ViewOrientation::axis_aligned(), framing());
        let (px, py, _) = r.project([31.5, 31.5, 31.5]);
        assert!((px - 31.5).abs() < 1.0);
        assert!((py - 31.5).abs() < 1.0);
    }

    /// Bitwise framebuffer equality (NaN payloads and signed zeros count).
    fn same_bits(a: &RgbaImage, b: &RgbaImage) -> bool {
        a.width() == b.width()
            && a.height() == b.height()
            && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// A random draw from `rng` in `[lo, hi)`.
    fn uniform(rng: &mut proptest::TestRng, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * ((rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32)
    }

    fn below(rng: &mut proptest::TestRng, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    /// A texture of one to nine texels a side: a float image (alphas zero,
    /// negative zero, tiny or plain; now and then a NaN) or RGBA8 bytes cut
    /// at any prefix, mid-texel included; a third of its texels transparent.
    fn random_texture(rng: &mut proptest::TestRng) -> Texture {
        let (w, h) = if below(rng, 6) == 0 {
            (1, 1)
        } else {
            (1 + below(rng, 9), 1 + below(rng, 9))
        };
        if below(rng, 2) == 0 {
            let mut image = RgbaImage::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    let alpha = match below(rng, 12) {
                        0..=3 => 0.0,
                        4 => -0.0,
                        5 => 4e-6,
                        6 if below(rng, 8) == 0 => f32::NAN,
                        _ => uniform(rng, 0.0, 1.0),
                    };
                    image.set(
                        x,
                        y,
                        [
                            uniform(rng, 0.0, 1.0),
                            uniform(rng, 0.0, 1.0),
                            uniform(rng, 0.0, 1.0),
                            alpha,
                        ],
                    );
                }
            }
            image.into()
        } else {
            let full = w * h * 4;
            let mut bytes: Vec<u8> = (0..full).map(|_| rng.next_u64() as u8).collect();
            for texel in bytes.chunks_exact_mut(4) {
                match below(rng, 6) {
                    0 | 1 => texel[3] = 0,
                    2 => texel[3] = 1,
                    _ => {}
                }
            }
            let len = match below(rng, 3) {
                0 => full,
                _ => below(rng, full + 1),
            };
            bytes.truncate(len);
            Texture::rgba8(w, h, bytes.into()).unwrap()
        }
    }

    fn random_point(rng: &mut proptest::TestRng, spread: f32) -> [f32; 3] {
        [0; 3].map(|_| uniform(rng, -spread, spread))
    }

    /// A quad facing anywhere, edge-on, off-screen or partly so, over a
    /// random texture.
    fn random_quad(rng: &mut proptest::TestRng, extent: f32) -> SceneNode {
        let center = match below(rng, 5) {
            0 => random_point(rng, extent * 4.0),
            _ => random_point(rng, extent),
        };
        let u = random_point(rng, extent);
        let v = match below(rng, 6) {
            // Parallel to u: edge-on from every view.
            0 => u.map(|c| c * 0.5),
            _ => random_point(rng, extent),
        };
        let quad = match below(rng, 3) {
            0 => Quad3::axis_aligned(
                below(rng, 3),
                center,
                uniform(rng, 0.0, extent),
                uniform(rng, 0.0, extent),
            ),
            _ => Quad3 { center, u, v },
        };
        SceneNode::TextureQuad {
            image: random_texture(rng),
            quad,
        }
    }

    /// Segments inside and across the window, duplicates and zero-length
    /// ones among them; on the grid case every endpoint lands on a pixel
    /// centre or halfway between two.
    fn random_lines(rng: &mut proptest::TestRng, extent: f32, grid: bool) -> SceneNode {
        let mut segments: Vec<([f32; 3], [f32; 3])> = Vec::new();
        for _ in 0..below(rng, 24) {
            let point = |rng: &mut proptest::TestRng| {
                if grid {
                    [0; 3].map(|_| 31.5 + 0.75 * (below(rng, 97) as f32 - 48.0))
                } else {
                    let spread = if below(rng, 4) == 0 {
                        extent * 30.0
                    } else {
                        extent * 1.5
                    };
                    random_point(rng, spread)
                }
            };
            let a = point(rng);
            let segment = match below(rng, 8) {
                0 if !segments.is_empty() => segments[below(rng, segments.len())],
                1 => (a, a),
                _ => (a, point(rng)),
            };
            segments.push(segment);
        }
        SceneNode::Lines {
            segments: std::sync::Arc::new(segments),
            color: [uniform(rng, 0.0, 1.0), 1.0, 0.0, uniform(rng, 0.0, 1.0)],
        }
    }

    /// One case: a random view and window over a random scene, composited
    /// three times by one kept rasterizer (with the scene edited between
    /// composites: a texture of new size or prefix under the same quad, a
    /// quad moved or dropped) and rendered one-shot, each held to the
    /// oracle bit for bit.  Returns the plans the kept rasterizer reused.
    fn oracle_case(seed: u64) -> u64 {
        let rng = &mut proptest::TestRng::for_test(&format!("raster oracle {seed}"));
        let grid = below(rng, 4) == 0;
        let (dims, (width, height), view) = if grid {
            ((64, 64, 64), (64, 64), ViewOrientation::axis_aligned())
        } else {
            let dims = (1 + below(rng, 40), 1 + below(rng, 40), 1 + below(rng, 40));
            let window = if below(rng, 10) == 0 {
                (1, 1)
            } else {
                (1 + below(rng, 48), 1 + below(rng, 48))
            };
            let view = match below(rng, 4) {
                0 => ViewOrientation::new(90.0 * below(rng, 4) as f64, 0.0),
                _ => ViewOrientation::new(
                    f64::from(uniform(rng, -180.0, 180.0)),
                    f64::from(uniform(rng, -89.0, 89.0)),
                ),
            };
            (dims, window, view)
        };
        let settings = RasterSettings::framing_volume(dims, width, height);
        let extent = dims.0.max(dims.1).max(dims.2) as f32;
        let mut nodes: Vec<SceneNode> = (0..below(rng, 5)).map(|_| random_quad(rng, extent)).collect();
        for _ in 0..below(rng, 3) {
            nodes.push(random_lines(rng, extent, grid));
        }
        let mut kept = Rasterizer::new(&view, settings);
        let mut reused = 0;
        for round in 0..3 {
            if round > 0 && !nodes.is_empty() {
                let at = below(rng, nodes.len());
                match (&mut nodes[at], below(rng, 4)) {
                    (SceneNode::TextureQuad { image, .. }, 0) => *image = random_texture(rng),
                    (SceneNode::TextureQuad { quad, .. }, 1) => quad.center[0] += 1.0,
                    // A kept line plan holds pixels, not colours.
                    (SceneNode::Lines { color, .. }, 0) => color[0] = uniform(rng, 0.0, 1.0),
                    // The same segments in a new allocation, or new ones.
                    (SceneNode::Lines { segments, .. }, 1) => {
                        *segments = match (below(rng, 2), random_lines(rng, extent, grid)) {
                            (0, _) => std::sync::Arc::new(segments.to_vec()),
                            (_, SceneNode::Lines { segments, .. }) => segments,
                            _ => unreachable!("random_lines makes a line set"),
                        }
                    }
                    (_, 2) => {
                        nodes.remove(at);
                    }
                    _ => {}
                }
            }
            let fresh = Rasterizer::new(&view, settings);
            let want = oracle::render(&fresh, &nodes);
            let one_shot = fresh.render(&nodes);
            assert!(
                same_bits(&one_shot, &want),
                "seed {seed} round {round}: render differs from the oracle"
            );
            let before = kept.counts();
            let drawn = nodes.iter().filter(|n| !matches!(n, SceneNode::Text { .. })).count() as u64;
            let composite = kept.composite(&nodes);
            assert!(
                same_bits(composite, &want),
                "seed {seed} round {round}: composite differs from the oracle"
            );
            let after = kept.counts();
            reused +=
                drawn - (after.plans_built - before.plans_built) - (after.line_plans_built - before.line_plans_built);
        }
        reused
    }

    #[test]
    fn composites_match_the_per_pixel_oracle_bit_for_bit() {
        let reused: u64 = (0..500).map(oracle_case).sum();
        assert!(
            reused > 100,
            "the cases must reuse plans, not only build them ({reused})"
        );
    }

    #[test]
    #[ignore = "10^5 cases; run in release with --ignored"]
    fn composites_match_the_per_pixel_oracle_bit_for_bit_at_scale() {
        let reused: u64 = (0..100_000).map(oracle_case).sum();
        assert!(
            reused > 20_000,
            "the cases must reuse plans, not only build them ({reused})"
        );
    }

    #[test]
    fn a_kept_plan_is_walked_without_inverting_a_pixel() {
        let settings = RasterSettings::framing_volume((32, 32, 32), 56, 44);
        let quads = [
            Quad3::axis_aligned(2, [15.5, 15.5, 10.0], 16.0, 16.0),
            Quad3::axis_aligned(2, [15.5, 15.5, 22.0], 16.0, 16.0),
        ];
        let scene = |size: usize| -> Vec<SceneNode> {
            quads
                .iter()
                .map(|&quad| SceneNode::TextureQuad {
                    image: solid_texture(size, [0.5, 0.2, 0.9, 0.6]).into(),
                    quad,
                })
                .collect()
        };
        let mut raster = Rasterizer::new(&ViewOrientation::new(8.0, 4.0), settings);
        raster.composite(&scene(8));
        let first = raster.counts();
        assert_eq!(first.plans_built, 2);
        assert!(first.inversions > 0);
        for _ in 0..3 {
            raster.composite(&scene(8));
        }
        let kept = raster.counts();
        assert_eq!(
            (kept.plans_built, kept.inversions, kept.composites),
            (2, first.inversions, 4)
        );
        // A new texture size under the same geometry is a new plan, and the
        // old two are dropped with the composite that stopped using them.
        raster.composite(&scene(4));
        raster.composite(&scene(8));
        assert_eq!(raster.counts().plans_built, 6);
    }

    #[test]
    fn a_segment_is_stepped_only_inside_the_window() {
        // 4·10⁵ pixels long, crossing a 64² window: the old DDA took every
        // step, this one those in the window.
        let raster_settings = framing();
        let segments = vec![
            ([-3e5, 20.0, 31.5], [3e5, 40.0, 31.5]),
            ([31.5, -3e5, 31.5], [31.5, 3e5, 31.5]),
        ];
        let node = SceneNode::Lines {
            segments: std::sync::Arc::new(segments.clone()),
            color: [0.0, 1.0, 0.0, 1.0],
        };
        let mut raster = Rasterizer::new(&ViewOrientation::axis_aligned(), raster_settings);
        let want = oracle::render(&raster, std::slice::from_ref(&node));
        assert!(same_bits(raster.composite(std::slice::from_ref(&node)), &want));
        let counts = raster.counts();
        assert!(want.coverage() > 0.0);
        assert!(
            counts.max_segment_steps <= 64 + 64 + 2,
            "{} steps for one segment; the old loop took 400 001",
            counts.max_segment_steps
        );
    }

    #[test]
    fn a_repeated_segment_is_stepped_once() {
        let (a, b) = (
            ([3.0, 4.0, 31.5], [50.0, 20.0, 31.5]),
            ([10.0, 60.0, 0.0], [12.0, 2.0, 63.0]),
        );
        // -0.0 is not bitwise 0.0: a segment of its own.
        let c = ([-0.0, 4.0, 31.5], [50.0, 20.0, 31.5]);
        let node = SceneNode::Lines {
            segments: std::sync::Arc::new(vec![a, b, a, a, c, b]),
            color: [0.0, 1.0, 0.0, 1.0],
        };
        let mut raster = Rasterizer::new(&ViewOrientation::new(8.0, 4.0), framing());
        let want = oracle::render(&raster, std::slice::from_ref(&node));
        assert!(same_bits(raster.composite(std::slice::from_ref(&node)), &want));
        assert_eq!(raster.counts().segments, 3, "six segments, three distinct");
    }

    #[test]
    fn segments_off_the_finite_plane_draw_nothing() {
        let mut raster = Rasterizer::new(&ViewOrientation::axis_aligned(), framing());
        for end in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let node = SceneNode::Lines {
                segments: std::sync::Arc::new(vec![([10.0, 10.0, 31.5], [end, 20.0, 31.5]), ([end; 3], [end; 3])]),
                color: [1.0; 4],
            };
            assert_eq!(raster.composite(std::slice::from_ref(&node)).coverage(), 0.0, "{end}");
            assert_eq!(raster.render(&[node]).coverage(), 0.0, "{end}");
        }
        // Finite but 1e30 away: the in-window steps are found by bisection,
        // not walked to; the one below crosses the window's middle row.
        let node = SceneNode::Lines {
            segments: std::sync::Arc::new(vec![([-1e30, 31.5, 31.5], [1e30, 31.5, 31.5])]),
            color: [1.0; 4],
        };
        raster.composite(std::slice::from_ref(&node));
        assert!(raster.counts().max_segment_steps <= 64 + 64 + 2);
    }

    #[test]
    fn the_step_count_is_f32_ceil() {
        for x in [
            0.0f32,
            1e-30,
            0.5,
            1.0,
            1.0000001,
            16.999998,
            8_388_607.5,
            3e9,
            1.8446743e19,
            1.8446744e19,
            1e30,
            f32::MAX,
        ] {
            assert_eq!(ceil_nonneg(x), x.ceil() as usize, "{x}");
        }
        for k in 0..1u32 << 13 {
            let mut x = k as f32;
            for _ in 0..64 {
                x = x.next_down().max(0.0);
            }
            for _ in 0..128 {
                assert_eq!(ceil_nonneg(x), x.ceil() as usize, "{x}");
                x = x.next_up();
            }
        }
    }

    #[test]
    fn the_rounding_is_f32_round_on_the_window() {
        for x in [
            0.0f32,
            0.49999997,
            0.5,
            1.5,
            2.5,
            62.5,
            63.49999,
            1e6 + 0.5,
            8_388_607.5,
        ] {
            assert_eq!(round_nonneg(x), x.round() as i32, "{x}");
        }
        // Every float within 64 ulps of each whole number and each half below
        // 2^12, where the two roundings could part.
        for k in 0..1u32 << 13 {
            let mut x = k as f32 / 2.0;
            for _ in 0..64 {
                x = x.next_down().max(0.0);
            }
            for _ in 0..128 {
                assert_eq!(round_nonneg(x), x.round() as i32, "{x}");
                x = x.next_up();
            }
        }
    }
}
