//! RGBA images and Porter–Duff compositing.
//!
//! Object-order parallel volume rendering produces one intermediate image per
//! processor; "recombination consists of image compositing using alpha
//! blending [Porter & Duff 1984], and must occur in a prescribed order
//! (back-to-front or front-to-back)" (§3.2).  The same `over` operator is the
//! heart of the IBRAVR viewer compositor.

/// One channel of the 8-bit wire format: the single quantisation expression
/// behind [`RgbaImage::to_rgba8`] and the renderer's direct RGBA8 output.
#[inline]
pub(crate) fn quantize_channel(v: f32) -> u8 {
    (v.clamp(0.0, 1.0) * 255.0).round() as u8
}

/// A floating-point RGBA image (straight, non-premultiplied alpha).
#[derive(Debug, Clone, PartialEq)]
pub struct RgbaImage {
    width: usize,
    height: usize,
    /// Pixels in row-major order, 4 floats per pixel.
    data: Vec<f32>,
}

impl RgbaImage {
    /// A transparent-black image.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        RgbaImage {
            width,
            height,
            data: vec![0.0; width * height * 4],
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw pixel floats (RGBA interleaved).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw pixel floats, for the renderer to write finished rows into.
    pub(crate) fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The pixels, row-major, each `[r, g, b, a]` — for a compositor that
    /// keeps one framebuffer and draws into it by pixel index.
    pub fn pixels_mut(&mut self) -> &mut [[f32; 4]] {
        self.data.as_chunks_mut::<4>().0
    }

    /// Size of the image when shipped over the wire as 8-bit RGBA.
    pub fn byte_len(&self) -> usize {
        self.width * self.height * 4
    }

    #[inline]
    fn index(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.width && y < self.height);
        (y * self.width + x) * 4
    }

    /// Pixel at (x, y).
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> [f32; 4] {
        let i = self.index(x, y);
        [self.data[i], self.data[i + 1], self.data[i + 2], self.data[i + 3]]
    }

    /// Set the pixel at (x, y).
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, rgba: [f32; 4]) {
        let i = self.index(x, y);
        self.data[i..i + 4].copy_from_slice(&rgba);
    }

    /// Composite `front` over `self` (Porter–Duff `over`, straight alpha),
    /// pixel by pixel.  Images must have identical dimensions.
    pub fn composite_over(&mut self, front: &RgbaImage) {
        assert_eq!(
            (self.width, self.height),
            (front.width, front.height),
            "compositing requires equal image sizes"
        );
        for (dst, src) in self.data.chunks_exact_mut(4).zip(front.data.chunks_exact(4)) {
            let fa = src[3];
            let ba = dst[3];
            let out_a = fa + ba * (1.0 - fa);
            if out_a > 1e-9 {
                for c in 0..3 {
                    dst[c] = (src[c] * fa + dst[c] * ba * (1.0 - fa)) / out_a;
                }
            } else {
                dst[0] = 0.0;
                dst[1] = 0.0;
                dst[2] = 0.0;
            }
            dst[3] = out_a;
        }
    }

    /// Convert to 8-bit RGBA bytes (the heavy-payload wire format).
    pub fn to_rgba8(&self) -> Vec<u8> {
        self.data.iter().map(|&v| quantize_channel(v)).collect()
    }

    /// Reconstruct from 8-bit RGBA bytes.
    pub fn from_rgba8(width: usize, height: usize, bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), width * height * 4, "byte length must match dimensions");
        RgbaImage {
            width,
            height,
            data: bytes.iter().map(|b| *b as f32 / 255.0).collect(),
        }
    }

    /// Mean absolute per-channel difference with another image, the error
    /// metric used for the IBRAVR artifact experiment (E8).
    pub fn mean_abs_diff(&self, other: &RgbaImage) -> f32 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "difference requires equal image sizes"
        );
        if self.data.is_empty() {
            return 0.0;
        }
        let sum: f32 = self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).sum();
        sum / self.data.len() as f32
    }

    /// Root-mean-square difference with another image.
    pub fn rms_diff(&self, other: &RgbaImage) -> f32 {
        assert_eq!((self.width, self.height), (other.width, other.height));
        let sum: f32 = self.data.iter().zip(&other.data).map(|(a, b)| (a - b) * (a - b)).sum();
        (sum / self.data.len() as f32).sqrt()
    }

    /// Fraction of pixels with non-zero opacity (a cheap "is anything there"
    /// check used by tests).
    pub fn coverage(&self) -> f32 {
        let covered = self.data.chunks_exact(4).filter(|p| p[3] > 1e-4).count();
        covered as f32 / (self.width * self.height) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solid(width: usize, height: usize, rgba: [f32; 4]) -> RgbaImage {
        let mut img = RgbaImage::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.set(x, y, rgba);
            }
        }
        img
    }

    #[test]
    fn opaque_front_replaces_back() {
        let mut back = solid(4, 4, [0.0, 0.0, 1.0, 1.0]);
        let front = solid(4, 4, [1.0, 0.0, 0.0, 1.0]);
        back.composite_over(&front);
        assert_eq!(back.get(2, 2), [1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn transparent_front_leaves_back() {
        let mut back = solid(4, 4, [0.0, 1.0, 0.0, 0.8]);
        let front = solid(4, 4, [1.0, 0.0, 0.0, 0.0]);
        back.composite_over(&front);
        let px = back.get(1, 1);
        assert!((px[1] - 1.0).abs() < 1e-6);
        assert!((px[3] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn half_alpha_blends() {
        let mut back = solid(2, 2, [0.0, 0.0, 0.0, 1.0]);
        let front = solid(2, 2, [1.0, 1.0, 1.0, 0.5]);
        back.composite_over(&front);
        let px = back.get(0, 0);
        assert!((px[0] - 0.5).abs() < 1e-6);
        assert!((px[3] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn over_is_associative_for_back_to_front_sequences() {
        let a = solid(2, 2, [1.0, 0.0, 0.0, 0.3]);
        let b = solid(2, 2, [0.0, 1.0, 0.0, 0.5]);
        let c = solid(2, 2, [0.0, 0.0, 1.0, 0.7]);
        // (a, then b, then c in front) vs (a, then the pre-composited b-c pair).
        let mut left = a.clone();
        left.composite_over(&b);
        left.composite_over(&c);
        let mut bc = b.clone();
        bc.composite_over(&c);
        let mut right = a.clone();
        right.composite_over(&bc);
        assert!(left.rms_diff(&right) < 1e-6);
    }

    #[test]
    fn compositing_order_matters() {
        let red = solid(2, 2, [1.0, 0.0, 0.0, 0.6]);
        let blue = solid(2, 2, [0.0, 0.0, 1.0, 0.6]);
        let mut red_then_blue = red.clone();
        red_then_blue.composite_over(&blue);
        let mut blue_then_red = blue.clone();
        blue_then_red.composite_over(&red);
        assert!(red_then_blue.rms_diff(&blue_then_red) > 0.1);
    }

    #[test]
    fn rgba8_roundtrip_is_close() {
        let img = solid(3, 3, [0.25, 0.5, 0.75, 1.0]);
        let bytes = img.to_rgba8();
        assert_eq!(bytes.len(), img.byte_len());
        let back = RgbaImage::from_rgba8(3, 3, &bytes);
        assert!(img.mean_abs_diff(&back) < 1.0 / 255.0);
    }

    #[test]
    fn difference_metrics() {
        let a = solid(4, 4, [0.5, 0.5, 0.5, 1.0]);
        let b = solid(4, 4, [0.5, 0.5, 0.5, 1.0]);
        assert_eq!(a.mean_abs_diff(&b), 0.0);
        assert_eq!(a.rms_diff(&b), 0.0);
        let c = solid(4, 4, [1.0, 0.5, 0.5, 1.0]);
        assert!(a.mean_abs_diff(&c) > 0.0);
        assert!(a.coverage() > 0.99);
        assert_eq!(RgbaImage::new(4, 4).coverage(), 0.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_sizes_panic() {
        let mut a = RgbaImage::new(2, 2);
        let b = RgbaImage::new(3, 3);
        a.composite_over(&b);
    }
}
