//! Dense scalar volumes.
//!
//! A [`Volume`] is a dense 3-D grid of `f32` samples in X-fastest (C) order —
//! the same layout the combustion simulation writes and the DPSS caches, so a
//! slab read from the cache can be reinterpreted in place.
//!
//! Both directions of that byte format go through `[u8; 4]` words
//! (`as_chunks`).  The decode with `chunks_exact` measured 6.7× slower (91
//! against 13.6 µs for a 512 KB slab on a 2-core x86-64 Xeon); the encode
//! measured the same either way and uses words to match.

use std::fmt;

/// Append `values` to `out` as little-endian IEEE-754 bytes (the DPSS wire
/// format).
pub(crate) fn extend_le_bytes(out: &mut Vec<u8>, values: &[f32]) {
    let start = out.len();
    out.resize(start + values.len() * 4, 0);
    let (words, _) = out[start..].as_chunks_mut::<4>();
    for (word, value) in words.iter_mut().zip(values) {
        *word = value.to_le_bytes();
    }
}

/// Bytes that do not decode to a volume of the dimensions asked for: there
/// are not `x·y·z·4` of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteCountMismatch {
    /// The grid dimensions the bytes were decoded at.
    pub dims: (usize, usize, usize),
    /// The number of bytes present.
    pub bytes: usize,
}

impl fmt::Display for ByteCountMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (x, y, z) = self.dims;
        write!(
            f,
            "{} bytes do not decode to a {x}×{y}×{z} volume of 4-byte floats",
            self.bytes
        )
    }
}

impl std::error::Error for ByteCountMismatch {}

/// Smallest and largest of `values`, `(INFINITY, NEG_INFINITY)` when there is
/// nothing to compare.
///
/// Eight independent accumulators, folded at the end: one `min`/`max` chain is
/// bound by the latency of each comparison, eight are not.  NaNs are skipped,
/// as `f32::min`/`f32::max` skip them (all-NaN input gives the empty result),
/// and the extremes of the remaining values do not depend on the order they
/// are visited in — with one caveat inherited from those functions: `-0.0` and
/// `0.0` compare equal, so when zero is the extreme and both signs occur,
/// which sign comes back is unspecified.
pub(crate) fn min_max(values: &[f32]) -> (f32, f32) {
    let mut lo = [f32::INFINITY; 8];
    let mut hi = [f32::NEG_INFINITY; 8];
    // The last chunk may be short; `zip` stops with it.
    for chunk in values.chunks(8) {
        for ((lo, hi), &v) in lo.iter_mut().zip(&mut hi).zip(chunk) {
            *lo = lo.min(v);
            *hi = hi.max(v);
        }
    }
    (
        lo.into_iter().fold(f32::INFINITY, f32::min),
        hi.into_iter().fold(f32::NEG_INFINITY, f32::max),
    )
}

/// A [`min_max`] result as a value range: `(0, 0)` when there was nothing to
/// compare (no values, or only NaNs).
pub(crate) fn value_range_of((min, max): (f32, f32)) -> (f32, f32) {
    if min > max {
        (0.0, 0.0)
    } else {
        (min, max)
    }
}

/// A dense scalar field on a regular grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Volume {
    dims: (usize, usize, usize),
    data: Vec<f32>,
}

impl Volume {
    /// A zero-filled volume.
    pub fn zeros(dims: (usize, usize, usize)) -> Self {
        assert!(dims.0 > 0 && dims.1 > 0 && dims.2 > 0, "dimensions must be positive");
        Volume {
            dims,
            data: vec![0.0; dims.0 * dims.1 * dims.2],
        }
    }

    /// Wrap existing samples (must match `dims`).
    pub fn from_data(dims: (usize, usize, usize), data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            dims.0 * dims.1 * dims.2,
            "data length must match dimensions"
        );
        Volume { dims, data }
    }

    /// Reconstruct from little-endian IEEE-754 bytes (the DPSS wire format).
    ///
    /// # Panics
    ///
    /// When `bytes` is not `x·y·z·4` bytes long; [`Self::from_le_parts`]
    /// returns that as an error instead.
    pub fn from_le_bytes(dims: (usize, usize, usize), bytes: &[u8]) -> Self {
        Self::from_le_parts(dims, &[bytes])
            .unwrap_or_else(|mismatch| panic!("byte length must match dimensions: {mismatch}"))
    }

    /// Reconstruct from little-endian IEEE-754 bytes that arrive in `parts`
    /// (a DPSS read's block pieces), decoding each part in place — the parts
    /// are never gathered into one buffer.  The result is bit-identical to
    /// [`Self::from_le_bytes`] on the parts concatenated, wherever the part
    /// boundaries fall, inside a float included.
    pub fn from_le_parts<P: AsRef<[u8]>>(dims: (usize, usize, usize), parts: &[P]) -> Result<Self, ByteCountMismatch> {
        let bytes = parts.iter().map(|part| part.as_ref().len()).sum();
        let samples = dims
            .0
            .checked_mul(dims.1)
            .and_then(|n| n.checked_mul(dims.2))
            .filter(|n| n.checked_mul(4) == Some(bytes))
            .ok_or(ByteCountMismatch { dims, bytes })?;
        let mut data = Vec::with_capacity(samples);
        // The head of a float a part boundary cut through, completed from
        // the front of the next part.
        let mut straddling = [0u8; 4];
        let mut held = 0;
        for part in parts {
            let mut part = part.as_ref();
            if held > 0 {
                let take = part.len().min(4 - held);
                straddling[held..held + take].copy_from_slice(&part[..take]);
                held += take;
                part = &part[take..];
                if held < 4 {
                    continue;
                }
                data.push(f32::from_le_bytes(straddling));
            }
            let (words, tail) = part.as_chunks::<4>();
            data.extend(words.iter().map(|&word| f32::from_le_bytes(word)));
            straddling[..tail.len()].copy_from_slice(tail);
            held = tail.len();
        }
        debug_assert_eq!((held, data.len()), (0, samples));
        Ok(Volume { dims, data })
    }

    /// Serialize to little-endian IEEE-754 bytes.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        extend_le_bytes(&mut out, &self.data);
        out
    }

    /// Grid dimensions (x, y, z).
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the volume has no samples (never true for a constructed volume).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw samples.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw samples.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    #[inline]
    fn index(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.dims.0 && y < self.dims.1 && z < self.dims.2);
        (z * self.dims.1 + y) * self.dims.0 + x
    }

    /// Sample at (x, y, z).
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> f32 {
        self.data[self.index(x, y, z)]
    }

    /// Set the sample at (x, y, z).
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: f32) {
        let i = self.index(x, y, z);
        self.data[i] = v;
    }

    /// Minimum and maximum sample values.
    pub fn value_range(&self) -> (f32, f32) {
        value_range_of(min_max(&self.data))
    }

    /// Extract the sub-volume covering `[x0, x0+nx) × [y0, y0+ny) × [z0, z0+nz)`.
    pub fn subvolume(&self, origin: (usize, usize, usize), dims: (usize, usize, usize)) -> Volume {
        let (x0, y0, z0) = origin;
        let (nx, ny, nz) = dims;
        assert!(
            x0 + nx <= self.dims.0 && y0 + ny <= self.dims.1 && z0 + nz <= self.dims.2,
            "subvolume out of bounds"
        );
        let mut out = Volume::zeros(dims);
        for z in 0..nz {
            for y in 0..ny {
                let src_start = self.index(x0, y0 + y, z0 + z);
                let dst_start = (z * ny + y) * nx;
                out.data[dst_start..dst_start + nx].copy_from_slice(&self.data[src_start..src_start + nx]);
            }
        }
        out
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// Normalize samples into `[0, 1]` (no-op for a constant volume).
    pub fn normalized(&self) -> Volume {
        let (min, max) = self.value_range();
        let span = max - min;
        if span <= f32::EPSILON {
            return self.clone();
        }
        Volume {
            dims: self.dims,
            data: self.data.iter().map(|v| (v - min) / span).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The decode `from_le_bytes` ran before the word kernel, verbatim.
    fn from_le_bytes_chunks_exact(dims: (usize, usize, usize), bytes: &[u8]) -> Volume {
        assert_eq!(
            bytes.len(),
            dims.0 * dims.1 * dims.2 * 4,
            "byte length must match dimensions"
        );
        let data = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Volume { dims, data }
    }

    /// The encode `extend_le_bytes` ran before the word kernel, verbatim.
    fn extend_le_bytes_chunks_exact(out: &mut Vec<u8>, values: &[f32]) {
        let start = out.len();
        out.resize(start + values.len() * 4, 0);
        for (bytes, value) in out[start..].chunks_exact_mut(4).zip(values) {
            bytes.copy_from_slice(&value.to_le_bytes());
        }
    }

    /// A float bit pattern of class `kind`, drawn from `bits`: NaN with a
    /// payload, ±0, a subnormal, ±∞, or arbitrary bits.
    fn bit_pattern(kind: u8, bits: u32) -> u32 {
        let sign = bits & 0x8000_0000;
        let mantissa = (bits & 0x007F_FFFF).max(1);
        match kind {
            0 => sign | 0x7F80_0000 | mantissa,
            1 => sign,
            2 => sign | mantissa,
            3 => sign | 0x7F80_0000,
            _ => bits,
        }
    }

    /// `bytes` cut at `cuts`, each taken modulo one past its length: cuts
    /// fall inside floats as often as between them, and repeated cuts make
    /// empty parts.
    fn split_at_cuts<'a>(bytes: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
        let mut ends: Vec<usize> = cuts.iter().map(|cut| cut % (bytes.len() + 1)).collect();
        ends.sort_unstable();
        let mut start = 0;
        let mut parts: Vec<&[u8]> = ends
            .into_iter()
            .map(|end| {
                let part = &bytes[start..end];
                start = end;
                part
            })
            .collect();
        parts.push(&bytes[start..]);
        parts
    }

    fn bits_of(volume: &Volume) -> Vec<u32> {
        volume.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Encode `words` behind `lead` bytes already in the buffer, decode them
    /// from the parts `cuts` makes, and hold both kernels to their oracles
    /// bit for bit; one byte short or over is a mismatch, not a panic.
    fn check_kernels(words: &[(u8, u32)], cuts: &[usize], lead: usize) {
        let values: Vec<f32> = words
            .iter()
            .map(|&(kind, bits)| f32::from_bits(bit_pattern(kind, bits)))
            .collect();
        let mut encoded = vec![0xA5; lead];
        let mut oracle = encoded.clone();
        extend_le_bytes(&mut encoded, &values);
        extend_le_bytes_chunks_exact(&mut oracle, &values);
        assert_eq!(encoded, oracle, "encode");

        let bytes = &encoded[lead..];
        let dims = (values.len(), 1, 1);
        let expected = bits_of(&from_le_bytes_chunks_exact(dims, bytes));
        assert_eq!(expected, values.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        assert_eq!(bits_of(&Volume::from_le_bytes(dims, bytes)), expected, "whole");
        let parts = split_at_cuts(bytes, cuts);
        let decoded = Volume::from_le_parts(dims, &parts).unwrap();
        assert_eq!(decoded.dims(), dims);
        assert_eq!(
            bits_of(&decoded),
            expected,
            "parts {:?}",
            parts.iter().map(|p| p.len()).collect::<Vec<_>>()
        );

        let over = [bytes, &[0]].concat();
        for wrong in [&bytes[..bytes.len() - 1], &over[..]] {
            let parts = split_at_cuts(wrong, cuts);
            assert_eq!(
                Volume::from_le_parts(dims, &parts),
                Err(ByteCountMismatch {
                    dims,
                    bytes: wrong.len()
                })
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        #[test]
        fn the_word_kernels_match_their_oracles_over_any_bits_and_any_split(
            words in vec((0u8..5, any::<u32>()), 1..200),
            cuts in vec(any::<usize>(), 0..12),
            lead in 0usize..4,
        ) {
            check_kernels(&words, &cuts, lead);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100_000))]

        #[test]
        #[ignore = "10^5 cases; run in release with --ignored"]
        fn the_word_kernels_match_their_oracles_over_any_bits_and_any_split_sweep(
            words in vec((0u8..5, any::<u32>()), 1..200),
            cuts in vec(any::<usize>(), 0..12),
            lead in 0usize..4,
        ) {
            check_kernels(&words, &cuts, lead);
        }
    }

    #[test]
    fn a_byte_count_that_is_not_four_per_voxel_is_an_error() {
        let bytes = [0u8; 64];
        assert!(Volume::from_le_parts((2, 2, 4), &[&bytes[..]]).is_ok());
        for (dims, parts) in [
            ((2, 2, 4), vec![&bytes[..60]]),
            ((2, 2, 4), vec![&bytes[..32], &bytes[..33]]),
            ((2, 2, 2), vec![&bytes[..]]),
            ((0, 2, 2), vec![&bytes[..]]),
            ((usize::MAX, 2, 1), vec![&bytes[..]]),
            ((1 << 62, 1, 1), vec![&bytes[..0]]),
        ] {
            let bytes = parts.iter().map(|p| p.len()).sum();
            assert_eq!(
                Volume::from_le_parts(dims, &parts),
                Err(ByteCountMismatch { dims, bytes }),
                "{dims:?}"
            );
        }
        let message = ByteCountMismatch {
            dims: (2, 2, 4),
            bytes: 60,
        }
        .to_string();
        assert!(message.contains("60 bytes") && message.contains("2×2×4"), "{message}");
    }

    #[test]
    #[should_panic(expected = "byte length must match dimensions")]
    fn from_le_bytes_still_panics_on_a_wrong_length() {
        Volume::from_le_bytes((2, 2, 2), &[0u8; 31]);
    }

    fn ramp_volume(dims: (usize, usize, usize)) -> Volume {
        let mut v = Volume::zeros(dims);
        for z in 0..dims.2 {
            for y in 0..dims.1 {
                for x in 0..dims.0 {
                    v.set(x, y, z, (x + 10 * y + 100 * z) as f32);
                }
            }
        }
        v
    }

    #[test]
    fn indexing_is_x_fastest() {
        let v = ramp_volume((4, 3, 2));
        assert_eq!(v.get(0, 0, 0), 0.0);
        assert_eq!(v.get(1, 0, 0), 1.0);
        assert_eq!(v.get(0, 1, 0), 10.0);
        assert_eq!(v.get(0, 0, 1), 100.0);
        // Raw layout: x fastest.
        assert_eq!(v.data()[1], 1.0);
        assert_eq!(v.data()[4], 10.0);
    }

    #[test]
    fn byte_roundtrip() {
        let v = ramp_volume((5, 4, 3));
        let bytes = v.to_le_bytes();
        assert_eq!(bytes.len(), 5 * 4 * 3 * 4);
        let back = Volume::from_le_bytes(v.dims(), &bytes);
        assert_eq!(back, v);
    }

    #[test]
    fn subvolume_in_the_middle() {
        let v = ramp_volume((6, 6, 6));
        let s = v.subvolume((1, 2, 3), (2, 3, 2));
        assert_eq!(s.dims(), (2, 3, 2));
        assert_eq!(s.get(0, 0, 0), v.get(1, 2, 3));
        assert_eq!(s.get(1, 2, 1), v.get(2, 4, 4));
    }

    #[test]
    fn value_range_and_normalization() {
        let v = ramp_volume((3, 3, 3));
        let (min, max) = v.value_range();
        assert_eq!(min, 0.0);
        assert_eq!(max, 2.0 + 20.0 + 200.0);
        let n = v.normalized();
        let (nmin, nmax) = n.value_range();
        assert!((nmin - 0.0).abs() < 1e-6 && (nmax - 1.0).abs() < 1e-6);
        // Constant volume normalizes to itself.
        let c = Volume::from_data((2, 2, 2), vec![3.0; 8]);
        assert_eq!(c.normalized(), c);
    }

    /// The single `min`/`max` chain `min_max` replaced.
    fn min_max_one_chain(values: &[f32]) -> (f32, f32) {
        values.iter().fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
    }

    #[test]
    fn min_max_matches_a_single_chain_at_every_length() {
        // Every length around the eight-lane chunking, the extremes planted
        // at every position in turn.
        let ramp = ramp_volume((7, 3, 2));
        for len in 0..=ramp.len() {
            let values = &ramp.data()[..len];
            assert_eq!(min_max(values), min_max_one_chain(values), "len {len}");
            for at in 0..len {
                let mut planted = values.to_vec();
                planted[at] = -5.0;
                planted[len - 1 - at] = 1e9;
                assert_eq!(min_max(&planted), min_max_one_chain(&planted), "len {len}, at {at}");
            }
        }
        assert_eq!(min_max(&[]), (f32::INFINITY, f32::NEG_INFINITY));
    }

    #[test]
    fn min_max_skips_nan_and_treats_the_zeros_as_equal() {
        // NaN is skipped wherever it sits: lane heads, tail, everywhere.
        let mut values: Vec<f32> = (0..19).map(|i| i as f32 - 4.0).collect();
        for at in [0, 7, 8, 18] {
            values[at] = f32::NAN;
        }
        assert_eq!(min_max(&values), (-3.0, 13.0));
        let (lo, hi) = min_max(&[f32::NAN; 11]);
        assert_eq!((lo, hi), (f32::INFINITY, f32::NEG_INFINITY));
        assert_eq!(
            Volume::from_data((11, 1, 1), vec![f32::NAN; 11]).value_range(),
            (0.0, 0.0)
        );
        // -0.0 == 0.0: whichever sign comes back, it is zero.
        let (lo, hi) = min_max(&[0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, -0.0, 0.0]);
        assert_eq!((lo, hi), (0.0, 0.0));
        // Infinities are values like any other.
        assert_eq!(
            min_max(&[1.0, f32::NEG_INFINITY, f32::INFINITY]),
            (f32::NEG_INFINITY, f32::INFINITY)
        );
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_subvolume_panics() {
        ramp_volume((4, 4, 4)).subvolume((2, 2, 2), (3, 3, 3));
    }

    #[test]
    #[should_panic]
    fn mismatched_data_length_panics() {
        Volume::from_data((2, 2, 2), vec![0.0; 7]);
    }
}
