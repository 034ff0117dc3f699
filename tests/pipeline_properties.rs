//! Property-based tests over the core data structures and invariants,
//! spanning crates.

use proptest::prelude::*;
use visapult::core::protocol::{decode_light, encode_light};
use visapult::core::{FramePayload, FrameSegments, HeavyPayload, LightPayload, OverlapModel};
use visapult::dpss::StripeLayout;
use visapult::volren::{decompose, Axis, Decomposition, RgbaImage};

proptest! {
    /// Every slab decomposition is an exact partition: cells sum to the total
    /// and consecutive slabs are contiguous along the axis.
    #[test]
    fn slab_decomposition_partitions(
        nx in 1usize..64,
        ny in 1usize..64,
        nz in 4usize..64,
        parts in 1usize..4,
    ) {
        let parts = parts.min(nz);
        let regions = decompose((nx, ny, nz), parts, Decomposition::Slab(Axis::Z));
        prop_assert_eq!(regions.len(), parts);
        let total: usize = regions.iter().map(|r| r.cells()).sum();
        prop_assert_eq!(total, nx * ny * nz);
        let mut expected_z = 0;
        for r in &regions {
            prop_assert_eq!(r.origin.2, expected_z);
            prop_assert_eq!((r.dims.0, r.dims.1), (nx, ny));
            expected_z += r.dims.2;
        }
        prop_assert_eq!(expected_z, nz);
    }

    /// Block decomposition also partitions exactly for awkward processor counts.
    #[test]
    fn block_decomposition_partitions(
        n in 8usize..48,
        parts in 1usize..9,
    ) {
        let regions = decompose((n, n, n), parts, Decomposition::Block);
        prop_assert_eq!(regions.len(), parts);
        let total: usize = regions.iter().map(|r| r.cells()).sum();
        prop_assert_eq!(total, n * n * n);
    }

    /// The DPSS striping layout covers any byte range exactly once and maps
    /// every block to a valid (server, disk).
    #[test]
    fn stripe_layout_splits_ranges_exactly(
        block_size in 1u64..10_000,
        servers in 1usize..8,
        disks in 1usize..6,
        offset in 0u64..1_000_000,
        len in 0u64..1_000_000,
    ) {
        let layout = StripeLayout::new(block_size, servers, disks);
        let pieces = layout.split_range(offset, len);
        let covered: u64 = pieces.iter().map(|(_, _, l)| l).sum();
        prop_assert_eq!(covered, len);
        let mut cursor = offset;
        for (block, in_block, piece_len) in pieces {
            prop_assert_eq!(block.0 * block_size + in_block, cursor);
            prop_assert!(in_block + piece_len <= block_size);
            let loc = layout.locate(block);
            prop_assert!(loc.server < servers);
            prop_assert!(loc.disk < disks);
            cursor += piece_len;
        }
    }

    /// Two distinct logical blocks never map to the same physical location.
    #[test]
    fn stripe_layout_never_collides(
        servers in 1usize..6,
        disks in 1usize..5,
        a in 0u64..5_000,
        b in 0u64..5_000,
    ) {
        prop_assume!(a != b);
        let layout = StripeLayout::new(4096, servers, disks);
        let la = layout.locate(visapult::dpss::BlockId(a));
        let lb = layout.locate(visapult::dpss::BlockId(b));
        prop_assert_ne!((la.server, la.disk, la.disk_offset), (lb.server, lb.disk, lb.disk_offset));
    }

    /// The §4.3 analytic model: overlapped never loses to serial, never beats
    /// it by more than 2x, and the bound N·max + min is respected exactly.
    #[test]
    fn overlap_model_bounds(load in 0.01f64..100.0, render in 0.01f64..100.0, n in 1usize..50) {
        let m = OverlapModel::new(load, render);
        let ts = m.serial_time(n);
        let to = m.overlapped_time(n);
        prop_assert!(to <= ts + 1e-9);
        prop_assert!(ts <= 2.0 * to + 1e-9);
        prop_assert!((to - (n as f64 * load.max(render) + load.min(render))).abs() < 1e-9);
        prop_assert!(m.speedup(n) <= OverlapModel::ideal_speedup(n) + 1e-9);
    }

    /// Light payloads survive an encode/decode round trip for arbitrary field
    /// values.
    #[test]
    fn light_payload_roundtrip(
        frame in 0u32..100_000,
        rank in 0u32..1_000,
        w in 1u32..2_048,
        h in 1u32..2_048,
        cx in -1e6f32..1e6,
        cy in -1e6f32..1e6,
        cz in -1e6f32..1e6,
        segs in 0u32..100_000,
    ) {
        let p = LightPayload {
            frame,
            rank,
            texture_width: w,
            texture_height: h,
            bytes_per_pixel: 4,
            quad_center: [cx, cy, cz],
            quad_u: [1.0, 0.0, 0.0],
            quad_v: [0.0, 1.0, 0.0],
            geometry_segments: segs,
        };
        let decoded = decode_light(&encode_light(&p)).unwrap();
        prop_assert_eq!(decoded, p);
    }

    /// Heavy payloads survive a round trip for arbitrary texture bytes and
    /// geometry.
    #[test]
    fn heavy_payload_roundtrip(
        frame in 0u32..10_000,
        rank in 0u32..64,
        texture in proptest::collection::vec(any::<u8>(), 0..4_096),
        segments in proptest::collection::vec((any::<f32>(), any::<f32>(), any::<f32>()), 0..64),
    ) {
        let geometry: Vec<([f32; 3], [f32; 3])> = segments
            .iter()
            .map(|(a, b, c)| ([*a, *b, *c], [*c, *b, *a]))
            .collect();
        let p = HeavyPayload {
            frame,
            rank,
            texture_rgba8: texture.into(),
            geometry: std::sync::Arc::new(geometry),
        };
        // The metadata the decoder cross-checks the heavy payload against.
        let light = LightPayload {
            frame,
            rank,
            texture_width: p.texture_rgba8.len() as u32,
            texture_height: 1,
            bytes_per_pixel: 1,
            quad_center: [0.0; 3],
            quad_u: [1.0, 0.0, 0.0],
            quad_v: [0.0, 1.0, 0.0],
            geometry_segments: p.geometry.len() as u32,
        };
        let decoded = FrameSegments::encode(&FramePayload { light, heavy: p.clone() })
            .decode()
            .unwrap()
            .heavy;
        // NaNs break PartialEq; compare field by field with bitwise floats.
        prop_assert_eq!(decoded.frame, p.frame);
        prop_assert_eq!(decoded.rank, p.rank);
        prop_assert_eq!(&decoded.texture_rgba8, &p.texture_rgba8);
        prop_assert_eq!(decoded.geometry.len(), p.geometry.len());
        for (d, o) in decoded.geometry.iter().zip(p.geometry.iter()) {
            for k in 0..3 {
                prop_assert_eq!(d.0[k].to_bits(), o.0[k].to_bits());
                prop_assert_eq!(d.1[k].to_bits(), o.1[k].to_bits());
            }
        }
    }

    /// Porter–Duff `over` keeps every channel inside [0, 1] and is the
    /// identity when the front image is fully transparent.
    #[test]
    fn compositing_stays_in_range(
        r in 0.0f32..1.0, g in 0.0f32..1.0, b in 0.0f32..1.0, a in 0.0f32..1.0,
        fr in 0.0f32..1.0, fg in 0.0f32..1.0, fb in 0.0f32..1.0, fa in 0.0f32..1.0,
    ) {
        let mut back = RgbaImage::new(2, 2);
        let mut front = RgbaImage::new(2, 2);
        for y in 0..2 {
            for x in 0..2 {
                back.set(x, y, [r, g, b, a]);
                front.set(x, y, [fr, fg, fb, fa]);
            }
        }
        let mut out = back.clone();
        out.composite_over(&front);
        for c in out.get(0, 0) {
            prop_assert!((0.0..=1.0 + 1e-6).contains(&c));
        }
        // Transparent front leaves the back unchanged.
        let mut transparent = RgbaImage::new(2, 2);
        for y in 0..2 {
            for x in 0..2 {
                transparent.set(x, y, [1.0, 1.0, 1.0, 0.0]);
            }
        }
        let mut unchanged = back.clone();
        unchanged.composite_over(&transparent);
        prop_assert!(unchanged.rms_diff(&back) < 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Volume byte (de)serialization round-trips for arbitrary small volumes —
    /// the property that guarantees what the back end reads from the DPSS is
    /// exactly what the simulation wrote.
    #[test]
    fn volume_byte_roundtrip(
        nx in 1usize..12,
        ny in 1usize..12,
        nz in 1usize..12,
        seed in any::<u64>(),
    ) {
        use visapult::volren::Volume;
        let count = nx * ny * nz;
        let mut state = seed;
        let data: Vec<f32> = (0..count)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as f32 / u32::MAX as f32
            })
            .collect();
        let v = Volume::from_data((nx, ny, nz), data);
        let back = Volume::from_le_bytes((nx, ny, nz), &v.to_le_bytes());
        prop_assert_eq!(back, v);
    }
}
