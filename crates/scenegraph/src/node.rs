//! Scene node types.
//!
//! The scene graph "supports storage and rendering of surface-based
//! primitives ..., vector-based primitives (lines, line strips), image-based
//! data (volumes, textures, sprites and bitmaps), and text" (§3.1).  The
//! node set here covers what Visapult actually puts in the graph: textured
//! quads (one per back-end PE), line sets for the AMR grids, quad meshes for
//! the IBRAVR depth extension, and text annotations.
//!
//! # Two texel formats, one loop
//!
//! A quad's [`Texture`] is held in whichever format it was made in.  The
//! back end ships slab textures as RGBA8 and the paper's viewer hands them to
//! the texturing hardware as they arrive (§3.3), so the viewer's nodes keep
//! the payload's own [`Bytes`] — placing or re-showing a texture, and every
//! [`crate::SceneGraph::snapshot`] of it, is a refcount bump, never a
//! conversion or a copy.  A progressive update is the same thing with fewer
//! bytes: the buffer is the *received prefix* of the texture and every texel
//! past it is transparent black.  Imagery rendered in this process
//! ([`crate::IbravrModel`], Figure 6) is a float [`RgbaImage`] and stays one,
//! shared behind an `Arc`: quantising it to RGBA8 would drop every alpha
//! below 1/510, which is a third of the covered pixels of a small IBRAVR
//! composite.
//!
//! Which format a quad has is read off the node; nothing selects it.  The
//! rasterizer's one quad loop is generic over a texel accessor (`Texels`) and
//! reads an RGBA8 channel as `b as f32 / 255.0` — the expression
//! [`RgbaImage::from_rgba8`] uses, from a 256-entry table — so a wire-format
//! quad draws the very floats the expanded image would have, and every
//! blended and quantised value after them.  The accessor also answers
//! whether a texel's alpha is zero without decoding the texel: one byte of
//! an RGBA8 texel, the bits of a float's alpha.

use bytes::Bytes;
use std::fmt;
use std::sync::Arc;
use volren::RgbaImage;

/// Every RGBA8 channel value as the float [`RgbaImage::from_rgba8`] decodes
/// it to: `UNORM8[b] == b as f32 / 255.0`, bit for bit.  The one texel-decode
/// expression of the wire-format sampling path.
pub(crate) static UNORM8: [f32; 256] = {
    let mut table = [0.0f32; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = b as f32 / 255.0;
        b += 1;
    }
    table
};

/// One RGBA8 channel as a float: the only place a wire byte becomes one.
#[inline]
fn unorm8(b: u8) -> f32 {
    UNORM8[b as usize]
}

/// Read access to a texture's texels as straight-alpha floats — what the
/// rasterizer's quad loop is generic over, one implementation per format.
/// Texels are addressed by their row-major index `y × width + x`.
pub(crate) trait Texels {
    /// Width in texels (never zero).
    fn width(&self) -> usize;
    /// Height in texels (never zero).
    fn height(&self) -> usize;
    /// Zero exactly when texel `i`'s alpha is zero (`±0.0` for a float), read
    /// without decoding the texel.
    fn alpha_bits(&self, i: usize) -> u32;
    /// Texel `i`, `i < width × height`.
    fn texel(&self, i: usize) -> [f32; 4];
}

impl Texels for RgbaImage {
    fn width(&self) -> usize {
        RgbaImage::width(self)
    }

    fn height(&self) -> usize {
        RgbaImage::height(self)
    }

    #[inline]
    fn alpha_bits(&self, i: usize) -> u32 {
        self.data()[i * 4 + 3].to_bits() & !(1 << 31)
    }

    #[inline]
    fn texel(&self, i: usize) -> [f32; 4] {
        self.data().as_chunks::<4>().0[i]
    }
}

/// Why [`Texture::rgba8`] refused a buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TextureError {
    /// A dimension was zero, or `width × height × 4` overflows `usize`.
    BadDimensions {
        /// The width asked for.
        width: usize,
        /// The height asked for.
        height: usize,
    },
    /// The buffer holds more bytes than the texture has.
    TooManyBytes {
        /// Bytes offered.
        len: usize,
        /// `width × height × 4`.
        full: usize,
    },
}

impl fmt::Display for TextureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TextureError::BadDimensions { width, height } => {
                write!(f, "a {width}x{height} RGBA8 texture has no addressable texels")
            }
            TextureError::TooManyBytes { len, full } => {
                write!(f, "{len} texture bytes offered for a texture of {full}")
            }
        }
    }
}

impl std::error::Error for TextureError {}

/// `width × height` RGBA8 texels held as the wire payload's own buffer.
///
/// The buffer may be shorter than the texture: it is then the received
/// prefix, in row-major byte order, and every byte past it reads as zero —
/// transparent black, exactly the zero-padded image a partial frame used to
/// be expanded into.  Built only by [`Texture::rgba8`], which is what keeps
/// `width × height × 4` representable and the dimensions non-zero.
#[derive(Debug, Clone, PartialEq)]
pub struct Rgba8Texture {
    width: usize,
    height: usize,
    texels: Bytes,
}

impl Rgba8Texture {
    /// The received bytes — shared with the payload that delivered them.
    pub fn bytes(&self) -> &Bytes {
        &self.texels
    }

    /// The texels as a draw reads them: the received bytes borrowed once,
    /// not looked up through the shared buffer at every texel.
    pub(crate) fn texels(&self) -> Rgba8Texels<'_> {
        Rgba8Texels {
            width: self.width,
            height: self.height,
            received: &self.texels,
        }
    }
}

/// An [`Rgba8Texture`]'s received bytes, borrowed for one draw.
pub(crate) struct Rgba8Texels<'a> {
    width: usize,
    height: usize,
    received: &'a [u8],
}

impl Texels for Rgba8Texels<'_> {
    fn width(&self) -> usize {
        self.width
    }

    fn height(&self) -> usize {
        self.height
    }

    #[inline]
    fn alpha_bits(&self, i: usize) -> u32 {
        // Past the received prefix the alpha byte reads as zero.
        self.received.get(i * 4 + 3).map_or(0, |&a| u32::from(a))
    }

    #[inline]
    fn texel(&self, i: usize) -> [f32; 4] {
        debug_assert!(i < self.width * self.height);
        let received = self.received;
        let i = i * 4;
        match received.get(i..i + 4) {
            Some(px) => [unorm8(px[0]), unorm8(px[1]), unorm8(px[2]), unorm8(px[3])],
            // The prefix ends inside or before this texel: what is missing
            // reads as zero.
            None => {
                let channel = |c: usize| received.get(i + c).map_or(0.0, |&b| unorm8(b));
                [channel(0), channel(1), channel(2), channel(3)]
            }
        }
    }
}

/// The image on a [`SceneNode::TextureQuad`] or [`SceneNode::QuadMesh`], in
/// the format it was made in (see the module docs).  Cloning either variant
/// bumps a refcount.
#[derive(Debug, Clone, PartialEq)]
pub enum Texture {
    /// A float image rendered in this process, shared.
    Float(Arc<RgbaImage>),
    /// RGBA8 texels as they crossed the wire — possibly only a prefix.
    Rgba8(Rgba8Texture),
}

impl Texture {
    /// A `width × height` RGBA8 texture over `texels`, sharing the buffer.
    /// A buffer shorter than `width × height × 4` is a prefix (the rest is
    /// transparent black); a zero dimension, a size that overflows, or a
    /// buffer *longer* than the texture is refused.  Nothing is allocated.
    pub fn rgba8(width: usize, height: usize, texels: Bytes) -> Result<Texture, TextureError> {
        let full = width
            .checked_mul(height)
            .and_then(|texels| texels.checked_mul(4))
            .filter(|&full| full > 0)
            .ok_or(TextureError::BadDimensions { width, height })?;
        if texels.len() > full {
            return Err(TextureError::TooManyBytes {
                len: texels.len(),
                full,
            });
        }
        Ok(Texture::Rgba8(Rgba8Texture { width, height, texels }))
    }

    /// Width in texels.
    pub fn width(&self) -> usize {
        match self {
            Texture::Float(image) => image.width(),
            Texture::Rgba8(texture) => texture.width,
        }
    }

    /// Height in texels.
    pub fn height(&self) -> usize {
        match self {
            Texture::Float(image) => image.height(),
            Texture::Rgba8(texture) => texture.height,
        }
    }

    /// Size of the whole texture as 8-bit RGBA, whatever it is held as.
    pub fn byte_len(&self) -> usize {
        self.width() * self.height() * 4
    }
}

impl From<RgbaImage> for Texture {
    fn from(image: RgbaImage) -> Texture {
        Texture::Float(Arc::new(image))
    }
}

/// A quadrilateral in 3-D given by its centre and two half-extent vectors.
/// The quad's corners are `center ± u ± v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quad3 {
    /// Quad centre.
    pub center: [f32; 3],
    /// Half-extent along the texture's U direction.
    pub u: [f32; 3],
    /// Half-extent along the texture's V direction.
    pub v: [f32; 3],
}

impl Quad3 {
    /// An axis-aligned quad perpendicular to the given axis index (0=X, 1=Y,
    /// 2=Z), centred at `center`, with half extents `half_u`/`half_v` along
    /// the remaining two axes in X→Y→Z order.
    pub fn axis_aligned(axis: usize, center: [f32; 3], half_u: f32, half_v: f32) -> Self {
        let (u_axis, v_axis) = match axis {
            0 => (1, 2),
            1 => (0, 2),
            _ => (0, 1),
        };
        let mut u = [0.0; 3];
        let mut v = [0.0; 3];
        u[u_axis] = half_u;
        v[v_axis] = half_v;
        Quad3 { center, u, v }
    }

    /// The four corners (−u−v, +u−v, +u+v, −u+v).
    pub fn corners(&self) -> [[f32; 3]; 4] {
        let c = self.center;
        let add = |s_u: f32, s_v: f32| {
            [
                c[0] + s_u * self.u[0] + s_v * self.v[0],
                c[1] + s_u * self.u[1] + s_v * self.v[1],
                c[2] + s_u * self.u[2] + s_v * self.v[2],
            ]
        };
        [add(-1.0, -1.0), add(1.0, -1.0), add(1.0, 1.0), add(-1.0, 1.0)]
    }
}

/// One displayable node.
#[derive(Debug, Clone, PartialEq)]
pub enum SceneNode {
    /// A 2-D texture mapped onto a quad in 3-D — the fundamental IBRAVR
    /// primitive (one per back-end PE slab).
    TextureQuad {
        /// The texture image.
        image: Texture,
        /// Where the quad sits in model space.
        quad: Quad3,
    },
    /// A quad mesh with per-vertex offsets along the quad normal: the IBRAVR
    /// depth-extension of reference \[14\], "replace the single quadrilateral
    /// with a quadrilateral mesh using offsets from the base plane".
    QuadMesh {
        /// The texture image.
        image: Texture,
        /// The base quad.
        quad: Quad3,
        /// Offsets along the quad normal, row-major `mesh_dims.1 × mesh_dims.0`.
        offsets: Vec<f32>,
        /// Mesh resolution (columns, rows).
        mesh_dims: (usize, usize),
    },
    /// A set of line segments with one colour — the AMR grid geometry.
    Lines {
        /// Segment endpoints, shared with the payload that delivered them
        /// (updating the scene graph bumps a refcount instead of copying the
        /// geometry every frame).
        segments: Arc<Vec<([f32; 3], [f32; 3])>>,
        /// RGBA colour.
        color: [f32; 4],
    },
    /// A text annotation anchored at a 3-D position.
    Text {
        /// Anchor position.
        position: [f32; 3],
        /// The text content.
        content: String,
    },
}

impl SceneNode {
    /// Approximate GPU/wire footprint of the node in bytes — used to verify
    /// the paper's claim that viewer-side data is `O(n^2)` while the raw
    /// volume is `O(n^3)`.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            SceneNode::TextureQuad { image, .. } => image.byte_len() as u64,
            SceneNode::QuadMesh { image, offsets, .. } => image.byte_len() as u64 + (offsets.len() * 4) as u64,
            SceneNode::Lines { segments, .. } => (segments.len() * 24) as u64,
            SceneNode::Text { content, .. } => content.len() as u64,
        }
    }

    /// A depth key for back-to-front sorting: the distance of the node's
    /// reference point along the given view direction.
    pub fn depth_along(&self, dir: [f32; 3]) -> f32 {
        let p = match self {
            SceneNode::TextureQuad { quad, .. } | SceneNode::QuadMesh { quad, .. } => quad.center,
            SceneNode::Lines { segments, .. } => segments
                .first()
                .map(|(a, b)| [(a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0, (a[2] + b[2]) / 2.0])
                .unwrap_or([0.0; 3]),
            SceneNode::Text { position, .. } => *position,
        };
        p[0] * dir[0] + p[1] * dir[1] + p[2] * dir[2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_aligned_quads_lie_in_the_right_plane() {
        let q = Quad3::axis_aligned(2, [5.0, 6.0, 7.0], 2.0, 3.0);
        for c in q.corners() {
            assert_eq!(c[2], 7.0, "Z-aligned quad must be flat in Z");
        }
        let qx = Quad3::axis_aligned(0, [1.0, 2.0, 3.0], 1.0, 1.0);
        for c in qx.corners() {
            assert_eq!(c[0], 1.0);
        }
    }

    #[test]
    fn corners_span_the_extents() {
        let q = Quad3::axis_aligned(2, [0.0, 0.0, 0.0], 2.0, 3.0);
        let corners = q.corners();
        let xs: Vec<f32> = corners.iter().map(|c| c[0]).collect();
        let ys: Vec<f32> = corners.iter().map(|c| c[1]).collect();
        assert_eq!(xs.iter().cloned().fold(f32::MIN, f32::max), 2.0);
        assert_eq!(xs.iter().cloned().fold(f32::MAX, f32::min), -2.0);
        assert_eq!(ys.iter().cloned().fold(f32::MIN, f32::max), 3.0);
    }

    #[test]
    fn payload_bytes_reflect_texture_size() {
        let img = RgbaImage::new(64, 64);
        let node = SceneNode::TextureQuad {
            image: img.clone().into(),
            quad: Quad3::axis_aligned(2, [0.0; 3], 1.0, 1.0),
        };
        assert_eq!(node.payload_bytes(), 64 * 64 * 4);
        let lines = SceneNode::Lines {
            segments: std::sync::Arc::new(vec![([0.0; 3], [1.0; 3]); 10]),
            color: [1.0, 1.0, 1.0, 1.0],
        };
        assert_eq!(lines.payload_bytes(), 240);
        let text = SceneNode::Text {
            position: [0.0; 3],
            content: "frame 7".to_string(),
        };
        assert_eq!(text.payload_bytes(), 7);
    }

    #[test]
    fn rgba8_textures_refuse_what_they_cannot_address() {
        let bytes = |n: usize| Bytes::from(vec![7u8; n]);
        for (w, h) in [(0, 16), (16, 0), (0, 0)] {
            assert_eq!(
                Texture::rgba8(w, h, Bytes::new()),
                Err(TextureError::BadDimensions { width: w, height: h })
            );
        }
        assert!(matches!(
            Texture::rgba8(usize::MAX / 2, 3, Bytes::new()),
            Err(TextureError::BadDimensions { .. })
        ));
        assert_eq!(
            Texture::rgba8(2, 2, bytes(17)),
            Err(TextureError::TooManyBytes { len: 17, full: 16 })
        );
        // A huge announced size with nothing received is fine: no allocation
        // is made from it.
        let huge = Texture::rgba8(65_535, 65_535, Bytes::new()).unwrap();
        assert_eq!(huge.byte_len(), 65_535 * 65_535 * 4);
        // Whole, partial and empty buffers are all textures, and keep the
        // buffer they were given.
        let whole = bytes(16);
        match Texture::rgba8(2, 2, whole.clone()).unwrap() {
            Texture::Rgba8(texture) => assert!(texture.bytes().ptr_eq(&whole)),
            other => panic!("expected RGBA8, got {other:?}"),
        }
        assert_eq!(Texture::rgba8(2, 2, bytes(5)).unwrap().byte_len(), 16);
    }

    #[test]
    fn texels_past_the_received_prefix_are_transparent_black() {
        // 2×2, six bytes in: texel 0 whole, texel 1 cut mid-pixel, row 1 absent.
        let Texture::Rgba8(texture) = Texture::rgba8(2, 2, Bytes::from(vec![255, 0, 51, 255, 102, 255])).unwrap()
        else {
            panic!("expected RGBA8");
        };
        let texture = texture.texels();
        assert_eq!(texture.texel(0), [1.0, 0.0, 0.2, 1.0]);
        assert_eq!(texture.texel(1), [0.4, 1.0, 0.0, 0.0]);
        assert_eq!(texture.texel(2), [0.0; 4]);
        assert_eq!(texture.texel(3), [0.0; 4]);
        // Alpha is read from one byte, and is zero wherever that byte is
        // missing — even when the texel's colour channels arrived.
        assert_eq!(
            (0..4).map(|i| texture.alpha_bits(i)).collect::<Vec<_>>(),
            [255, 0, 0, 0]
        );
    }

    #[test]
    fn cloning_a_texture_shares_it() {
        let float = Texture::from(RgbaImage::new(4, 4));
        match (&float, &float.clone()) {
            (Texture::Float(a), Texture::Float(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("expected float textures"),
        }
        let wire = Texture::rgba8(4, 4, Bytes::from(vec![1u8; 64])).unwrap();
        match (&wire, &wire.clone()) {
            (Texture::Rgba8(a), Texture::Rgba8(b)) => assert!(a.bytes().ptr_eq(b.bytes())),
            _ => panic!("expected RGBA8 textures"),
        }
    }

    #[test]
    fn depth_ordering_follows_view_direction() {
        let near = SceneNode::TextureQuad {
            image: RgbaImage::new(2, 2).into(),
            quad: Quad3::axis_aligned(2, [0.0, 0.0, 1.0], 1.0, 1.0),
        };
        let far = SceneNode::TextureQuad {
            image: RgbaImage::new(2, 2).into(),
            quad: Quad3::axis_aligned(2, [0.0, 0.0, 10.0], 1.0, 1.0),
        };
        let dir = [0.0, 0.0, 1.0];
        assert!(far.depth_along(dir) > near.depth_along(dir));
    }
}
