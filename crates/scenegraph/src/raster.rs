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

use crate::node::{Quad3, SceneNode, Texels, Texture};
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

/// Bilinear sample of a texture at normalized coordinates in `[0, 1]²`.
#[inline]
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
    let p00 = img.texel(x0, y0);
    let p10 = img.texel(x1, y0);
    let p01 = img.texel(x0, y1);
    let p11 = img.texel(x1, y1);
    for c in 0..4 {
        let a = p00[c] + (p10[c] - p00[c]) * fx;
        let b = p01[c] + (p11[c] - p01[c]) * fx;
        out[c] = a + (b - a) * fy;
    }
    out
}

/// An orthographic rasterizer for one view orientation.
pub struct Rasterizer {
    settings: RasterSettings,
    /// Unit view direction (into the screen).
    dir: [f32; 3],
    /// Screen right and up unit vectors.
    right: [f32; 3],
    up: [f32; 3],
}

impl Rasterizer {
    /// Build a rasterizer for one view.
    pub fn new(view: &ViewOrientation, settings: RasterSettings) -> Self {
        let d64 = view.view_direction();
        let dir = normalize([d64[0] as f32, d64[1] as f32, d64[2] as f32]);
        let up_hint = if dir[1].abs() > 0.9 {
            [1.0, 0.0, 0.0]
        } else {
            [0.0, 1.0, 0.0]
        };
        let right = normalize(cross(up_hint, dir));
        let up = normalize(cross(dir, right));
        Rasterizer {
            settings,
            dir,
            right,
            up,
        }
    }

    /// The unit view direction.
    pub fn view_direction(&self) -> [f32; 3] {
        self.dir
    }

    /// Project a model-space point to (pixel x, pixel y, depth along view).
    pub fn project(&self, p: [f32; 3]) -> (f32, f32, f32) {
        let rel = sub(p, self.settings.model_center);
        let sx = dot(rel, self.right) / self.settings.screen_half_extent;
        let sy = dot(rel, self.up) / self.settings.screen_half_extent;
        let depth = dot(rel, self.dir);
        let px = (sx + 1.0) / 2.0 * self.settings.width as f32 - 0.5;
        let py = (sy + 1.0) / 2.0 * self.settings.height as f32 - 0.5;
        (px, py, depth)
    }

    /// Draw a snapshot of scene nodes into a new framebuffer, blending
    /// back-to-front along the view direction.
    pub fn render(&self, nodes: &[SceneNode]) -> RgbaImage {
        let mut framebuffer = RgbaImage::new(self.settings.width, self.settings.height);
        // Back-to-front: draw the farthest (largest depth) first.
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by(|a, b| {
            nodes[*b]
                .depth_along(self.dir)
                .total_cmp(&nodes[*a].depth_along(self.dir))
        });
        for idx in order {
            match &nodes[idx] {
                // A mesh's depth offsets displace geometry along the quad
                // normal; under orthographic projection the silhouette is
                // unchanged, so the mesh rasterizes like its base quad.
                SceneNode::TextureQuad { image, quad } | SceneNode::QuadMesh { image, quad, .. } => match image {
                    Texture::Float(texels) => self.draw_quad(&mut framebuffer, &**texels, quad),
                    Texture::Rgba8(texels) => self.draw_quad(&mut framebuffer, texels, quad),
                },
                SceneNode::Lines { segments, color } => self.draw_lines(&mut framebuffer, segments, *color),
                SceneNode::Text { .. } => {}
            }
        }
        framebuffer
    }

    fn draw_quad<T: Texels>(&self, fb: &mut RgbaImage, image: &T, quad: &Quad3) {
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
            return;
        }
        // Screen-space bounding box of the four corners.
        let corners = quad.corners();
        let mut min_x = f32::INFINITY;
        let mut max_x = f32::NEG_INFINITY;
        let mut min_y = f32::INFINITY;
        let mut max_y = f32::NEG_INFINITY;
        for c in corners {
            let (px, py, _) = self.project(c);
            min_x = min_x.min(px);
            max_x = max_x.max(px);
            min_y = min_y.min(py);
            max_y = max_y.max(py);
        }
        let x0 = min_x.floor().max(0.0) as usize;
        let x1 = (max_x.ceil() as isize).clamp(0, self.settings.width as isize - 1) as usize;
        let y0 = min_y.floor().max(0.0) as usize;
        let y1 = (max_y.ceil() as isize).clamp(0, self.settings.height as isize - 1) as usize;
        if min_x > self.settings.width as f32 || min_y > self.settings.height as f32 || max_x < 0.0 || max_y < 0.0 {
            return;
        }

        for py in y0..=y1 {
            for px in x0..=x1 {
                let dx = px as f32 - cx;
                let dy = py as f32 - cy;
                // Solve [au av] [a b]^T = [dx dy]^T.
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

    fn draw_lines(&self, fb: &mut RgbaImage, segments: &[([f32; 3], [f32; 3])], color: [f32; 4]) {
        for (a, b) in segments {
            let (ax, ay, _) = self.project(*a);
            let (bx, by, _) = self.project(*b);
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
}
