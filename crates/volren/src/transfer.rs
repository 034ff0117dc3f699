//! Transfer functions: scalar value → colour and opacity.
//!
//! Volume rendering (reference \[9\] of the paper) classifies each sample
//! through a transfer function before compositing.  Visapult's combustion
//! visualizations use a fire-like map over the normalized scalar; a greyscale
//! ramp and an isosurface-style peak are provided for tests and other data.
//!
//! # Two `powf` calls, removed without moving a bit
//!
//! Classifying a sample used to cost two libm `powf` calls: `v.powf(1.5)` for
//! the fire map's opacity and `(1.0 - a).powf(spacing)` for the opacity
//! correction.  Both are gone from the common path, and the result has the
//! bits it always had:
//!
//! 1. **Unit spacing.**  `x.powf(1.0)` returns `x` itself for every `f32` in
//!    `[0, 1]`, so at `spacing == 1.0` — the only spacing a scenario can ask
//!    for — the correction is `1.0 - (1.0 - a)`: both subtractions stay (they
//!    round), only the call goes.  Any other spacing keeps its `powf`.
//! 2. **`v.powf(1.5)` by a guarded exact path** (Ziv's rounding test, ACM TOMS
//!    17(3), 1991).  `y = v·√v` in `f64` carries 29 more mantissa bits than
//!    the `f32` result.  Unless those bits sit within the guard band — 2²³ of
//!    their 2²⁹ steps, ±1/64 `f32` ulp — of a rounding midpoint, every value
//!    near `y` rounds to the same `f32`, so `y as f32` is what libm returns;
//!    the ≈3 % of values inside the band, results below `f32::MIN_POSITIVE`
//!    and NaN ask libm as before.
//!
//! Neither identity is a theorem about `powf` — glibc's is not correctly
//! rounded — so both are *measured* against the libm the program links: the
//! default test profile sweeps ≈4 M values of `[0, 1]` plus the neighbourhoods
//! of every ramp threshold and underflow edge by `to_bits`, and two
//! `#[ignore]`d release tests (run in CI) sweep all 1 065 353 217 floats of
//! `[0, 1]`, also reporting how far from a midpoint the worst *unguarded*
//! mismatch sits and asserting the band clears it by at least 4×.  On glibc
//! 2.36: 0 mismatches guarded; unguarded, 446 638 among the normal results,
//! the worst 873 406 / 2²⁹ ulp from a midpoint — a 9.6× margin.
//!
//! [`TransferFunction::evaluate`] and [`TransferFunction::evaluate_corrected`]
//! use the identities one sample at a time; the render kernel classifies a
//! whole row of samples per call through `classify_row`, which matches them
//! lane for lane.

/// An RGBA colour with premultiplication *not* applied (alpha is opacity).
pub type Rgba = [f32; 4];

/// A transfer function mapping normalized scalars in `[0, 1]` to RGBA.
#[derive(Debug, Clone, PartialEq)]
pub enum TransferFunction {
    /// Greyscale ramp: value → grey level, opacity proportional to value.
    Grayscale {
        /// Overall opacity scale in `[0, 1]`.
        opacity: f32,
    },
    /// A fire/combustion map: transparent blue-black → red → orange → white.
    Fire {
        /// Overall opacity scale in `[0, 1]`.
        opacity: f32,
    },
    /// Emphasize values near `center` within `width` (soft isosurface).
    Peak {
        /// Centre of the emphasized band.
        center: f32,
        /// Width of the band.
        width: f32,
        /// Colour given to in-band samples.
        color: [f32; 3],
        /// Peak opacity.
        opacity: f32,
    },
}

/// Half-width of the band around a rounding midpoint inside which
/// [`pow15_exact`] declines to answer, in units of the `f64` result's last
/// place: 2²³ of the 2²⁹ such units in one `f32` ulp, ±1/64 ulp.
const POW15_GUARD_BAND: u32 = 1 << 23;

/// The `f64` mantissa bits of a normal result that lie below `f32` precision.
const POW15_LOW_BITS: u32 = (1 << 29) - 1;

/// `v.powf(1.5)` without the call, or `None` when only libm can say: `v·√v`
/// in `f64`, accepted unless it lands within [`POW15_GUARD_BAND`] of the
/// midpoint between two `f32`s, under the normal range (where `f32` keeps
/// fewer bits and the band means nothing), or is NaN.  See the module docs.
#[inline]
fn pow15_exact(v: f32) -> Option<f32> {
    let x = f64::from(v);
    let y = x * x.sqrt();
    // The bits `as f32` rounds away; the midpoint pattern is `1 << 28`.
    let low = (y.to_bits() as u32) & POW15_LOW_BITS;
    let clear_of_midpoint = low.wrapping_sub((1 << 28) - POW15_GUARD_BAND) > 2 * POW15_GUARD_BAND;
    // The comparison is false for NaN, which therefore goes to libm too.
    (clear_of_midpoint && y >= f64::from(f32::MIN_POSITIVE)).then_some(y as f32)
}

/// `v.powf(1.5)`, bit for bit, calling libm only where [`pow15_exact`] cannot
/// vouch for the rounding.
#[inline]
fn pow15(v: f32) -> f32 {
    pow15_exact(v).unwrap_or_else(|| v.powf(1.5))
}

/// Opacity corrected for sample spacing, `1 - (1 - a)^exponent`.  At unit
/// spacing `powf` returns its argument unchanged, so only the call is dropped;
/// the two subtractions round and must stay.
#[inline]
fn correct_opacity(a: f32, exponent: f32) -> f32 {
    let through = 1.0 - a;
    if exponent == 1.0 {
        1.0 - through
    } else {
        1.0 - through.powf(exponent)
    }
}

/// A row of RGBA values as four parallel channel rows — the layout in which
/// the render kernel classifies and blends a row of rays at a time.
#[derive(Debug)]
pub(crate) struct RgbaRows {
    pub(crate) r: Vec<f32>,
    pub(crate) g: Vec<f32>,
    pub(crate) b: Vec<f32>,
    pub(crate) a: Vec<f32>,
}

impl RgbaRows {
    /// `len` lanes, all channels zero.
    pub(crate) fn zeros(len: usize) -> Self {
        RgbaRows {
            r: vec![0.0; len],
            g: vec![0.0; len],
            b: vec![0.0; len],
            a: vec![0.0; len],
        }
    }

    /// Reset every channel of every lane to zero.
    pub(crate) fn clear(&mut self) {
        for channel in [&mut self.r, &mut self.g, &mut self.b, &mut self.a] {
            channel.fill(0.0);
        }
    }

    /// Lane `i` as one RGBA value.
    pub(crate) fn lane(&self, i: usize) -> Rgba {
        [self.r[i], self.g[i], self.b[i], self.a[i]]
    }
}

impl TransferFunction {
    /// The default combustion map used by the examples.
    pub fn combustion_default() -> Self {
        TransferFunction::Fire { opacity: 0.6 }
    }

    /// Evaluate the transfer function at a normalized value.
    pub fn evaluate(&self, value: f32) -> Rgba {
        let v = value.clamp(0.0, 1.0);
        match self {
            TransferFunction::Grayscale { opacity } => [v, v, v, v * opacity.clamp(0.0, 1.0)],
            TransferFunction::Fire { opacity } => {
                // Piecewise ramp: black -> red -> orange -> yellow -> white.
                let (r, g, b) = if v < 0.25 {
                    (v * 4.0 * 0.6, 0.0, v * 0.2)
                } else if v < 0.5 {
                    (0.6 + (v - 0.25) * 1.6, (v - 0.25) * 1.2, 0.05)
                } else if v < 0.75 {
                    (1.0, 0.3 + (v - 0.5) * 2.0, 0.05 + (v - 0.5) * 0.4)
                } else {
                    (1.0, 0.8 + (v - 0.75) * 0.8, 0.15 + (v - 0.75) * 3.4)
                };
                let a = pow15(v) * opacity.clamp(0.0, 1.0);
                [r.clamp(0.0, 1.0), g.clamp(0.0, 1.0), b.clamp(0.0, 1.0), a]
            }
            TransferFunction::Peak {
                center,
                width,
                color,
                opacity,
            } => {
                let d = ((v - center) / width.max(1e-6)).abs();
                let w = (1.0 - d).max(0.0);
                [color[0], color[1], color[2], w * opacity.clamp(0.0, 1.0)]
            }
        }
    }

    /// Evaluate with opacity corrected for sample spacing: compositing `n`
    /// samples through a slab must give the same optical depth regardless of
    /// `n`.  `reference_samples / actual_samples` is the spacing ratio.
    pub fn evaluate_corrected(&self, value: f32, spacing_ratio: f32) -> Rgba {
        let [r, g, b, a] = self.evaluate(value);
        [r, g, b, correct_opacity(a, spacing_ratio.max(0.0))]
    }

    /// [`TransferFunction::evaluate_corrected`] for a whole row: lane `i` of
    /// `out` is `evaluate_corrected(norm[i], spacing_ratio)`, bit for bit.
    ///
    /// The variant and the spacing are looked at once per row, and each loop
    /// over the lanes is branch-free so it vectorises: all four fire ramps are
    /// computed and one selected by the comparisons `evaluate` branches on,
    /// with every expression in `evaluate`'s operand order.
    pub(crate) fn classify_row(&self, norm: &[f32], spacing_ratio: f32, out: &mut RgbaRows) {
        let len = norm.len();
        let (r, g, b, a) = (
            &mut out.r[..len],
            &mut out.g[..len],
            &mut out.b[..len],
            &mut out.a[..len],
        );
        match self {
            TransferFunction::Grayscale { opacity } => {
                let opacity = opacity.clamp(0.0, 1.0);
                for i in 0..len {
                    let v = norm[i].clamp(0.0, 1.0);
                    (r[i], g[i], b[i], a[i]) = (v, v, v, v * opacity);
                }
            }
            TransferFunction::Fire { opacity } => {
                let opacity = opacity.clamp(0.0, 1.0);
                // `v^1.5` first: the exact path on every lane with NaN — never
                // a result of its own — marking the few lanes it declined,
                // then libm on those.
                for i in 0..len {
                    a[i] = pow15_exact(norm[i].clamp(0.0, 1.0)).unwrap_or(f32::NAN);
                }
                for i in 0..len {
                    if a[i].is_nan() {
                        a[i] = norm[i].clamp(0.0, 1.0).powf(1.5);
                    }
                }
                for i in 0..len {
                    let v = norm[i].clamp(0.0, 1.0);
                    let black_red = (v * 4.0 * 0.6, 0.0, v * 0.2);
                    let red_orange = (0.6 + (v - 0.25) * 1.6, (v - 0.25) * 1.2, 0.05);
                    let orange_yellow = (1.0, 0.3 + (v - 0.5) * 2.0, 0.05 + (v - 0.5) * 0.4);
                    let yellow_white = (1.0, 0.8 + (v - 0.75) * 0.8, 0.15 + (v - 0.75) * 3.4);
                    let (red, green, blue) = if v < 0.25 {
                        black_red
                    } else if v < 0.5 {
                        red_orange
                    } else if v < 0.75 {
                        orange_yellow
                    } else {
                        yellow_white
                    };
                    r[i] = red.clamp(0.0, 1.0);
                    g[i] = green.clamp(0.0, 1.0);
                    b[i] = blue.clamp(0.0, 1.0);
                    a[i] *= opacity;
                }
            }
            TransferFunction::Peak {
                center,
                width,
                color,
                opacity,
            } => {
                let (width, opacity) = (width.max(1e-6), opacity.clamp(0.0, 1.0));
                r.fill(color[0]);
                g.fill(color[1]);
                b.fill(color[2]);
                for i in 0..len {
                    let d = ((norm[i].clamp(0.0, 1.0) - center) / width).abs();
                    a[i] = (1.0 - d).max(0.0) * opacity;
                }
            }
        }
        // The spacing is looked at here, not per lane: with the test inside,
        // the loop keeps a `powf` call on one arm and does not vectorise.
        let exponent = spacing_ratio.max(0.0);
        if exponent == 1.0 {
            for a in a {
                *a = 1.0 - (1.0 - *a);
            }
        } else {
            for a in a {
                *a = 1.0 - (1.0 - *a).powf(exponent);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::hint::black_box;

    /// Bit pattern of `1.0f32`: the patterns `0..=ONE` are exactly the floats
    /// of `[0, 1]`, in order.
    const ONE: u32 = 0x3F80_0000;

    /// The default-profile sample of `[0, 1]`: every 263rd float (≈4 M of
    /// them) plus every float within 64 of a fire-ramp threshold, of either
    /// end, of the smallest normal and of 2⁻⁸⁴ (where `v^1.5` crosses it).
    fn sampled_unit_interval() -> impl Iterator<Item = f32> {
        let edges = [0.0, 0.25, 0.5, 0.75, 1.0, f32::MIN_POSITIVE, 2.0f32.powi(-84)];
        let near_edges = edges.into_iter().flat_map(|edge| {
            let bits = edge.to_bits();
            bits.saturating_sub(64)..=(bits + 64).min(ONE)
        });
        (0..=ONE).step_by(263).chain(near_edges).map(f32::from_bits)
    }

    /// The exponents are `black_box`ed: LLVM folds `powf(x, 1.0)` to `x` when
    /// it can see the literal, and the identities are claims about libm.
    fn powf_of_one_returns_its_argument(x: f32) -> bool {
        x.powf(black_box(1.0)).to_bits() == x.to_bits()
    }

    fn pow15_matches_libm(v: f32) -> bool {
        pow15(v).to_bits() == v.powf(black_box(1.5)).to_bits()
    }

    #[test]
    fn unit_spacing_identity_holds_on_the_sampled_interval() {
        let broken: Vec<f32> = sampled_unit_interval()
            .filter(|&x| !powf_of_one_returns_its_argument(x))
            .take(8)
            .collect();
        assert!(broken.is_empty(), "x.powf(1.0) != x at {broken:?}");
    }

    #[test]
    fn guarded_pow15_matches_libm_on_the_sampled_interval() {
        let broken: Vec<f32> = sampled_unit_interval()
            .filter(|&v| !pow15_matches_libm(v))
            .take(8)
            .collect();
        assert!(broken.is_empty(), "pow15(v) != v.powf(1.5) at {broken:?}");
        // Outside [0, 1] and for NaN the guarded path still answers as libm does.
        for v in [1.5f32, 7.0, 1e30, f32::INFINITY, -0.0] {
            assert!(pow15_matches_libm(v), "{v}");
        }
        assert!(pow15(f32::NAN).is_nan() && pow15(-1.0).is_nan());
    }

    #[test]
    #[ignore = "all 1 065 353 217 floats of [0, 1]: ~15 s in release, run by CI"]
    fn unit_spacing_identity_holds_on_every_float_of_the_unit_interval() {
        let mismatches = (0..=ONE)
            .filter(|&bits| !powf_of_one_returns_its_argument(f32::from_bits(bits)))
            .count();
        println!("powf(x, 1.0) == x: {mismatches} mismatches over {} floats", ONE + 1);
        assert_eq!(mismatches, 0);
    }

    #[test]
    #[ignore = "all 1 065 353 217 floats of [0, 1]: ~25 s in release, run by CI"]
    fn guarded_pow15_matches_libm_on_every_float_of_the_unit_interval() {
        let (mut guarded, mut unguarded, mut normal, mut in_band, mut worst) = (0u64, 0u64, 0u64, 0u64, 0u32);
        for bits in 0..=ONE {
            let v = f32::from_bits(bits);
            let libm = v.powf(black_box(1.5));
            guarded += u64::from(pow15(v).to_bits() != libm.to_bits());
            // What the exact path would answer with no band, wherever `f32`
            // keeps all 24 bits: each disagreement with libm is a result so
            // close to a midpoint that libm's own error decided the rounding.
            let y = f64::from(v) * f64::from(v).sqrt();
            if y >= f64::from(f32::MIN_POSITIVE) {
                normal += 1;
                in_band += u64::from(pow15_exact(v).is_none());
                if (y as f32).to_bits() != libm.to_bits() {
                    unguarded += 1;
                    let low = (y.to_bits() as u32) & POW15_LOW_BITS;
                    worst = worst.max(low.abs_diff(1 << 28));
                }
            }
        }
        println!(
            "pow15 vs powf(v, 1.5) over {} floats: {guarded} mismatches guarded; of the {normal} with a normal \
             result, {in_band} ({:.2} %) fall in the band, {unguarded} mismatch unguarded, the worst \
             {worst} / 2^29 ulp from a midpoint (band {POW15_GUARD_BAND}, margin {:.1}x)",
            ONE + 1,
            in_band as f64 * 100.0 / normal as f64,
            f64::from(POW15_GUARD_BAND) / f64::from(worst.max(1)),
        );
        assert_eq!(guarded, 0);
        assert!(
            worst <= POW15_GUARD_BAND / 4,
            "the guard band must clear the worst unguarded mismatch by 4x"
        );
    }

    fn all_variants() -> [TransferFunction; 3] {
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

    #[test]
    fn classify_row_matches_evaluate_corrected_lane_for_lane() {
        // Random samples in and around [0, 1], then the values a branch-free
        // loop could get wrong: NaN, both zeros, subnormals, out-of-range
        // values and infinities, and the three ramp thresholds exactly and
        // one float to either side.
        let mut rng = StdRng::seed_from_u64(19);
        let mut norm: Vec<f32> = (0..4099).map(|_| rng.gen_range(-0.25f32..1.25)).collect();
        norm.extend((0..4099).map(|_| rng.gen_range(0.0f32..1.0).powi(8)));
        norm.extend([f32::NAN, 0.0, -0.0, 1e-40, -1e-40, f32::MIN_POSITIVE, 2.0f32.powi(-84)]);
        norm.extend([
            -1.0,
            -1e30,
            1.0,
            1.0 + f32::EPSILON,
            7.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ]);
        for threshold in [0.25f32, 0.5, 0.75] {
            let bits = threshold.to_bits();
            norm.extend([bits - 1, bits, bits + 1].map(f32::from_bits));
        }
        let mut row = RgbaRows::zeros(norm.len());
        for transfer in &all_variants() {
            for spacing in [0.3f32, 0.5, 1.0, 2.0] {
                transfer.classify_row(&norm, spacing, &mut row);
                for (i, &value) in norm.iter().enumerate() {
                    let expected = transfer.evaluate_corrected(value, spacing);
                    // A NaN's sign and payload are not specified by the
                    // language; everything else must agree to the bit.
                    let same = row
                        .lane(i)
                        .iter()
                        .zip(&expected)
                        .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()));
                    assert!(
                        same,
                        "{transfer:?} spacing {spacing} at {value:e}: row {:?}, scalar {expected:?}",
                        row.lane(i)
                    );
                }
            }
        }
    }

    #[test]
    fn outputs_stay_in_unit_range() {
        for tf in [
            TransferFunction::Grayscale { opacity: 1.0 },
            TransferFunction::Fire { opacity: 0.7 },
            TransferFunction::Peak {
                center: 0.5,
                width: 0.1,
                color: [0.2, 0.9, 0.4],
                opacity: 0.8,
            },
        ] {
            for i in 0..=100 {
                let v = i as f32 / 100.0;
                let c = tf.evaluate(v);
                for ch in c {
                    assert!((0.0..=1.0).contains(&ch), "{tf:?} at {v} gave {c:?}");
                }
            }
        }
    }

    #[test]
    fn grayscale_is_monotone_in_value() {
        let tf = TransferFunction::Grayscale { opacity: 0.5 };
        let lo = tf.evaluate(0.2);
        let hi = tf.evaluate(0.8);
        assert!(hi[0] > lo[0] && hi[3] > lo[3]);
    }

    #[test]
    fn fire_map_gets_hotter_with_value() {
        let tf = TransferFunction::Fire { opacity: 1.0 };
        let low = tf.evaluate(0.1);
        let high = tf.evaluate(0.95);
        // Hot end is brighter and more opaque.
        assert!(high[0] + high[1] + high[2] > low[0] + low[1] + low[2]);
        assert!(high[3] > low[3]);
        // Input is clamped.
        assert_eq!(tf.evaluate(2.0), tf.evaluate(1.0));
        assert_eq!(tf.evaluate(-1.0), tf.evaluate(0.0));
    }

    #[test]
    fn peak_highlights_its_band_only() {
        let tf = TransferFunction::Peak {
            center: 0.5,
            width: 0.1,
            color: [1.0, 0.0, 0.0],
            opacity: 1.0,
        };
        assert!(tf.evaluate(0.5)[3] > 0.99);
        assert_eq!(tf.evaluate(0.8)[3], 0.0);
        assert_eq!(tf.evaluate(0.2)[3], 0.0);
    }

    #[test]
    fn opacity_correction_preserves_total_opacity() {
        // Compositing 2 samples at half spacing should give roughly the same
        // opacity as 1 sample at full spacing.
        let tf = TransferFunction::Grayscale { opacity: 0.5 };
        let full = tf.evaluate_corrected(0.6, 1.0)[3];
        let half = tf.evaluate_corrected(0.6, 0.5)[3];
        let two_halves = 1.0 - (1.0 - half) * (1.0 - half);
        assert!((two_halves - full).abs() < 1e-5);
    }
}
