//! Property-based tests over the core data structures and invariants,
//! spanning crates.

use proptest::prelude::*;
use visapult::core::data_source::{slab_dims, slab_origin};
use visapult::core::protocol::{decode_light, encode_light};
use visapult::core::{FramePayload, FrameSegments, HeavyPayload, LightPayload, OverlapModel};
use visapult::dpss::DatasetDescriptor;
use visapult::dpss::StripeLayout;
use visapult::volren::{decompose, Axis, RgbaImage};

proptest! {
    /// Every slab decomposition is an exact partition: cells sum to the total
    /// and consecutive slabs are contiguous along the axis.
    #[test]
    fn slab_decomposition_partitions(
        nx in 1usize..64,
        ny in 1usize..64,
        nz in 1usize..64,
        parts in 1usize..4,
        axis in 0usize..3,
    ) {
        let axis = Axis::ALL[axis];
        let full = [nx, ny, nz];
        let parts = parts.min(full[axis.index()]);
        let regions = decompose((nx, ny, nz), parts, axis);
        prop_assert_eq!(regions.len(), parts);
        let total: usize = regions.iter().map(|r| r.dims.0 * r.dims.1 * r.dims.2).sum();
        prop_assert_eq!(total, nx * ny * nz);
        let mut next = 0;
        for r in &regions {
            let (origin, size) = ([r.origin.0, r.origin.1, r.origin.2], [r.dims.0, r.dims.1, r.dims.2]);
            for a in Axis::ALL {
                if a == axis {
                    prop_assert_eq!(origin[a.index()], next);
                    next += size[a.index()];
                } else {
                    prop_assert_eq!((origin[a.index()], size[a.index()]), (0, full[a.index()]));
                }
            }
        }
        prop_assert_eq!(next, full[axis.index()]);
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

/// One slab rule across the layers, for every z in 1..64, every n in 1..=z
/// and every slab i: the DPSS byte range the back end reads (in planes), the
/// data source's slab origin and dims, and volren's slab region agree.
#[test]
fn every_layer_gives_a_slab_the_same_planes() {
    for z in 1..64 {
        // Odd plane dimensions and 2-byte values, so no factor of the plane
        // size hides an off-by-one.
        let descriptor = DatasetDescriptor::new("slabs", (3, 5, z), 2, 2);
        let plane_bytes = 3 * 5 * 2;
        for n in 1..=z {
            let regions = decompose(descriptor.dims, n, Axis::Z);
            assert_eq!(regions.len(), n);
            for (i, region) in regions.iter().enumerate() {
                let (offset, len) = descriptor.z_slab_range(1, i, n);
                let first = offset - descriptor.timestep_offset(1);
                let dpss = (first / plane_bytes) as usize..((first + len) / plane_bytes) as usize;
                let source = (slab_origin(&descriptor, i, n), slab_dims(&descriptor, i, n));
                assert_eq!(
                    (region.origin, region.dims),
                    source,
                    "volren and data_source disagree on slab {i} of {n} over {z} planes"
                );
                assert_eq!(
                    region.origin.2..region.origin.2 + region.dims.2,
                    dpss,
                    "volren and dpss disagree on slab {i} of {n} over {z} planes"
                );
            }
        }
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
