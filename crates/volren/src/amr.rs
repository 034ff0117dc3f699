//! Adaptive mesh refinement hierarchies.
//!
//! The combustion code the paper visualizes is an AMR simulation; Figure 3
//! shows "vector geometry (line segments) representing the adaptive grid
//! created and used by the combustion simulation" rendered together with the
//! volume.  This module derives an AMR box hierarchy from a scalar volume
//! (refining where the field varies rapidly) and converts it into the line
//! segments that travel to the viewer as the geometric part of the heavy
//! payload.
//!
//! The back end builds a hierarchy for every slab of every timestep, so the
//! build is a kernel: one pass over the slab's rows gives every level-0 box
//! its `(min, max)`, eight lanes of compare-and-select per row run, and both
//! the slab's range and level-0 refinement are read off that table.  With
//! the back end's two levels each voxel is folded once (the two-pass build
//! this replaced folded each twice, through a `min`/`max` call per 16-voxel
//! run; it stays in the tests as the oracle the boxes are held to).

use crate::volume::{min_max, value_range_of, Volume};

/// One refinement box, in level-0 cell coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmrBox {
    /// Refinement level (0 = coarsest).
    pub level: usize,
    /// Box origin in level-0 cell units.
    pub origin: (f32, f32, f32),
    /// Box size in level-0 cell units.
    pub size: (f32, f32, f32),
}

impl AmrBox {
    /// The twelve edges of the box as line segments (pairs of endpoints).
    pub fn edges(&self) -> Vec<([f32; 3], [f32; 3])> {
        self.edge_array().to_vec()
    }

    /// [`AmrBox::edges`] without the allocation.
    fn edge_array(&self) -> [([f32; 3], [f32; 3]); 12] {
        let (x0, y0, z0) = self.origin;
        let (sx, sy, sz) = self.size;
        let (x1, y1, z1) = (x0 + sx, y0 + sy, z0 + sz);
        let corners = [
            [x0, y0, z0],
            [x1, y0, z0],
            [x1, y1, z0],
            [x0, y1, z0],
            [x0, y0, z1],
            [x1, y0, z1],
            [x1, y1, z1],
            [x0, y1, z1],
        ];
        const PAIRS: [(usize, usize); 12] = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 4),
            (0, 4),
            (1, 5),
            (2, 6),
            (3, 7),
        ];
        // A loop, not `PAIRS.map(..)`: with the map, `to_line_segments`
        // took seven times as long (28 µs against 4 for 2 304 segments).
        let mut edges = [([0.0; 3], [0.0; 3]); 12];
        for (edge, (a, b)) in edges.iter_mut().zip(PAIRS) {
            *edge = (corners[a], corners[b]);
        }
        edges
    }
}

/// An AMR hierarchy: boxes grouped by level.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AmrHierarchy {
    /// Boxes at each level (index = level).
    pub levels: Vec<Vec<AmrBox>>,
}

impl AmrHierarchy {
    /// Derive a hierarchy from a volume.
    ///
    /// The domain is tiled with `block` sized level-0 boxes; any box whose
    /// internal value range exceeds `refine_threshold` (relative to the
    /// volume's full range) is subdivided into eight children, recursively,
    /// up to `max_levels` levels.
    ///
    /// One pass over the volume's rows takes every level-0 box's range; the
    /// volume's range is the fold of those (the boxes tile it), and level-0
    /// refinement reads them, so at `max_levels <= 2` each voxel is read
    /// once.  Only boxes of level 1 and deeper are scanned again, when they
    /// are refined in turn.
    pub fn from_volume(volume: &Volume, block: usize, refine_threshold: f32, max_levels: usize) -> Self {
        assert!(block > 0, "block size must be positive");
        assert!(max_levels > 0, "need at least one level");
        let dims = volume.dims();
        let data = volume.data();
        let block_ranges = block_ranges(volume, block);
        let (vmin, vmax) = value_range_of(
            block_ranges
                .iter()
                .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &(l, h)| {
                    (lo.min(l), hi.max(h))
                }),
        );
        let full_span = (vmax - vmin).max(1e-20);
        let span = |(lo, hi): (f32, f32)| -> f32 {
            if lo > hi {
                0.0
            } else {
                (hi - lo) / full_span
            }
        };

        // Value range of the region of the volume covered by a box.
        let range_of = |b: &AmrBox| -> (f32, f32) {
            let (origin, size) = (b.origin, b.size);
            let x0 = origin.0.floor().max(0.0) as usize;
            let y0 = origin.1.floor().max(0.0) as usize;
            let z0 = origin.2.floor().max(0.0) as usize;
            let x1 = ((origin.0 + size.0).ceil() as usize).min(dims.0);
            let y1 = ((origin.1 + size.1).ceil() as usize).min(dims.1);
            let z1 = ((origin.2 + size.2).ceil() as usize).min(dims.2);
            let mut lo = f32::INFINITY;
            let mut hi = f32::NEG_INFINITY;
            for z in z0..z1 {
                for y in y0..y1 {
                    let row = (z * dims.1 + y) * dims.0;
                    let (row_lo, row_hi) = min_max(&data[row + x0..row + x1]);
                    #[cfg(test)]
                    count_folds(x1 - x0);
                    lo = lo.min(row_lo);
                    hi = hi.max(row_hi);
                }
            }
            (lo, hi)
        };

        let mut levels: Vec<Vec<AmrBox>> = vec![Vec::new(); max_levels];
        let mut frontier: Vec<AmrBox> = Vec::new();
        // Level 0 tiling.
        let mut z = 0;
        while z < dims.2 {
            let mut y = 0;
            while y < dims.1 {
                let mut x = 0;
                while x < dims.0 {
                    let size = (
                        block.min(dims.0 - x) as f32,
                        block.min(dims.1 - y) as f32,
                        block.min(dims.2 - z) as f32,
                    );
                    let b = AmrBox {
                        level: 0,
                        origin: (x as f32, y as f32, z as f32),
                        size,
                    };
                    levels[0].push(b);
                    frontier.push(b);
                    x += block;
                }
                y += block;
            }
            z += block;
        }

        // Refine.
        #[allow(clippy::needless_range_loop)]
        for level in 1..max_levels {
            let mut next = Vec::new();
            for (i, parent) in frontier.iter().enumerate() {
                // Level 1's parents are the level-0 boxes, in tiling order.
                let range = if level == 1 { block_ranges[i] } else { range_of(parent) };
                if span(range) > refine_threshold {
                    let half = (parent.size.0 / 2.0, parent.size.1 / 2.0, parent.size.2 / 2.0);
                    for dz in 0..2 {
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let child = AmrBox {
                                    level,
                                    origin: (
                                        parent.origin.0 + dx as f32 * half.0,
                                        parent.origin.1 + dy as f32 * half.1,
                                        parent.origin.2 + dz as f32 * half.2,
                                    ),
                                    size: half,
                                };
                                levels[level].push(child);
                                next.push(child);
                            }
                        }
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        AmrHierarchy { levels }
    }

    /// Total number of boxes across all levels.
    pub fn total_boxes(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// All boxes as line segments in volume cell coordinates — the geometry
    /// shipped to the viewer's scene graph ("typically tens of kilobytes for
    /// the AMR grid data per timestep", Appendix A).
    pub fn to_line_segments(&self) -> Vec<([f32; 3], [f32; 3])> {
        let mut segments = Vec::with_capacity(self.total_boxes() * 12);
        for b in self.levels.iter().flatten() {
            segments.extend_from_slice(&b.edge_array());
        }
        segments
    }
}

/// Lanes a run is folded across: independent `min`/`max` chains, so no
/// comparison waits on the one before it.
const LANES: usize = 8;

/// A box's smallest and largest values so far, lane by lane: none yet.
const EMPTY_LANES: ([f32; LANES], [f32; LANES]) = ([f32::INFINITY; LANES], [f32::NEG_INFINITY; LANES]);

/// Every level-0 box's `(min, max)`, in the order `from_volume` tiles them
/// (x fastest, then y, then z), from one pass over the volume's rows: each
/// row is visited once, as one run per box it crosses, folded into that box's
/// lanes.  NaNs are skipped, as [`min_max`] skips them; a box of nothing but
/// NaNs comes back `(INFINITY, NEG_INFINITY)`.
fn block_ranges(volume: &Volume, block: usize) -> Vec<(f32, f32)> {
    let (nx, ny, nz) = volume.dims();
    let data = volume.data();
    let mut ranges = Vec::with_capacity(nx.div_ceil(block) * ny.div_ceil(block) * nz.div_ceil(block));
    let mut lanes = vec![EMPTY_LANES; nx.div_ceil(block)];
    for z0 in (0..nz).step_by(block) {
        for y0 in (0..ny).step_by(block) {
            lanes.fill(EMPTY_LANES);
            for z in z0..(z0 + block).min(nz) {
                for y in y0..(y0 + block).min(ny) {
                    let row = &data[(z * ny + y) * nx..][..nx];
                    for ((lo, hi), run) in lanes.iter_mut().zip(row.chunks(block)) {
                        fold_run(lo, hi, run);
                    }
                    #[cfg(test)]
                    count_folds(nx);
                }
            }
            ranges.extend(lanes.iter().map(|(lo, hi)| {
                (
                    lo.iter().fold(f32::INFINITY, |a, &b| a.min(b)),
                    hi.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b)),
                )
            }));
        }
    }
    ranges
}

/// Fold `run` into the lanes.  `v < lo` is false when `v` is NaN, so the
/// select skips NaNs as `f32::min` does, in the single compare-and-select the
/// hardware's vector `min` is (likewise `max`).  The chunks are arrays and
/// the lanes are indexed, not zipped: with iterators the loop did not
/// vectorise and the pass took 4.6× as long.
#[inline]
fn fold_run(lo: &mut [f32; LANES], hi: &mut [f32; LANES], run: &[f32]) {
    let (chunks, rest) = run.as_chunks::<LANES>();
    for chunk in chunks {
        for i in 0..LANES {
            let v = chunk[i];
            lo[i] = if v < lo[i] { v } else { lo[i] };
            hi[i] = if v > hi[i] { v } else { hi[i] };
        }
    }
    for (i, &v) in rest.iter().enumerate() {
        lo[i] = if v < lo[i] { v } else { lo[i] };
        hi[i] = if v > hi[i] { v } else { hi[i] };
    }
}

#[cfg(test)]
thread_local! {
    /// Voxels this thread's AMR builds have folded into a min/max.
    static VOXEL_FOLDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn count_folds(voxels: usize) {
    VOXEL_FOLDS.with(|folds| folds.set(folds.get() + voxels));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::combustion_jet;

    fn levels_with_boxes(h: &AmrHierarchy) -> usize {
        h.levels.iter().filter(|l| !l.is_empty()).count()
    }

    /// [`AmrHierarchy::from_volume`] as it was before the block table: the
    /// volume's range from `value_range` (every voxel), then every box's
    /// span scanned again, level 0 included.  The oracle the one-pass build is
    /// held to, box for box; it counts its folds like the build does.
    fn from_volume_two_pass(volume: &Volume, block: usize, refine_threshold: f32, max_levels: usize) -> AmrHierarchy {
        assert!(block > 0, "block size must be positive");
        assert!(max_levels > 0, "need at least one level");
        let dims = volume.dims();
        let data = volume.data();
        let (vmin, vmax) = volume.value_range();
        count_folds(volume.len());
        let full_span = (vmax - vmin).max(1e-20);

        // Value span of the region of the volume covered by a box.
        let span_of = |origin: (f32, f32, f32), size: (f32, f32, f32)| -> f32 {
            let x0 = origin.0.floor().max(0.0) as usize;
            let y0 = origin.1.floor().max(0.0) as usize;
            let z0 = origin.2.floor().max(0.0) as usize;
            let x1 = ((origin.0 + size.0).ceil() as usize).min(dims.0);
            let y1 = ((origin.1 + size.1).ceil() as usize).min(dims.1);
            let z1 = ((origin.2 + size.2).ceil() as usize).min(dims.2);
            let mut lo = f32::INFINITY;
            let mut hi = f32::NEG_INFINITY;
            for z in z0..z1 {
                for y in y0..y1 {
                    let row = (z * dims.1 + y) * dims.0;
                    let (row_lo, row_hi) = min_max(&data[row + x0..row + x1]);
                    count_folds(x1 - x0);
                    lo = lo.min(row_lo);
                    hi = hi.max(row_hi);
                }
            }
            if lo > hi {
                0.0
            } else {
                (hi - lo) / full_span
            }
        };

        let mut levels: Vec<Vec<AmrBox>> = vec![Vec::new(); max_levels];
        let mut frontier: Vec<AmrBox> = Vec::new();
        // Level 0 tiling.
        let mut z = 0;
        while z < dims.2 {
            let mut y = 0;
            while y < dims.1 {
                let mut x = 0;
                while x < dims.0 {
                    let size = (
                        block.min(dims.0 - x) as f32,
                        block.min(dims.1 - y) as f32,
                        block.min(dims.2 - z) as f32,
                    );
                    let b = AmrBox {
                        level: 0,
                        origin: (x as f32, y as f32, z as f32),
                        size,
                    };
                    levels[0].push(b);
                    frontier.push(b);
                    x += block;
                }
                y += block;
            }
            z += block;
        }

        // Refine.
        #[allow(clippy::needless_range_loop)]
        for level in 1..max_levels {
            let mut next = Vec::new();
            for parent in &frontier {
                if span_of(parent.origin, parent.size) > refine_threshold {
                    let half = (parent.size.0 / 2.0, parent.size.1 / 2.0, parent.size.2 / 2.0);
                    for dz in 0..2 {
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let child = AmrBox {
                                    level,
                                    origin: (
                                        parent.origin.0 + dx as f32 * half.0,
                                        parent.origin.1 + dy as f32 * half.1,
                                        parent.origin.2 + dz as f32 * half.2,
                                    ),
                                    size: half,
                                };
                                levels[level].push(child);
                                next.push(child);
                            }
                        }
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        AmrHierarchy { levels }
    }

    /// Voxels `build` folds into a min/max on this thread.
    fn folds_of(build: impl FnOnce()) -> usize {
        let before = VOXEL_FOLDS.with(|folds| folds.get());
        build();
        VOXEL_FOLDS.with(|folds| folds.get()) - before
    }

    /// The values that test a range fold: NaN (skipped), both zeros (equal,
    /// either sign may come back), then both infinities (whose difference is
    /// NaN, and which make every finite span zero).
    const EDGE_VALUES: [f32; 5] = [f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(300))]

        /// The one-pass build is the two-pass build, box for box: on dims
        /// that are not multiples of the block, at every block size and depth,
        /// over fields salted with NaNs and signed zeros (`salt` 1), with
        /// infinities too (2), or with whole boxes of NaN (3).
        #[test]
        fn one_pass_build_equals_the_two_pass_oracle(
            dims in (1usize..24, 1usize..24, 1usize..12),
            block in 1usize..21,
            max_levels in 1usize..5,
            refine_threshold in -0.1f32..1.0,
            salt in (0usize..4, proptest::prelude::any::<u64>()),
        ) {
            let (salt, seed) = salt;
            let palette = &EDGE_VALUES[..[0, 3, 5, 3][salt]];
            let n = dims.0 * dims.1 * dims.2;
            let mut state = seed;
            let data: Vec<f32> = (0..n)
                .map(|i| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let roll = (state >> 33) as usize;
                    let (x, z) = (i % dims.0, i / (dims.0 * dims.1));
                    if salt == 3 && 2 * z < dims.2 {
                        f32::NAN
                    } else if roll.is_multiple_of(8) && !palette.is_empty() {
                        palette[roll / 8 % palette.len()]
                    } else {
                        // A ridge along x, so boxes refine.
                        (x as f32 * 0.37).sin() * 3.0 + (roll % 1000) as f32 * 1e-3
                    }
                })
                .collect();
            let v = Volume::from_data(dims, data);
            proptest::prop_assert_eq!(
                AmrHierarchy::from_volume(&v, block, refine_threshold, max_levels),
                from_volume_two_pass(&v, block, refine_threshold, max_levels)
            );
        }
    }

    #[test]
    fn one_pass_build_equals_the_two_pass_oracle_on_the_jet() {
        for (dims, block, threshold, max_levels) in [
            ((128, 128, 8), 16, 0.3, 2),
            ((32, 32, 32), 16, 0.25, 3),
            ((64, 32, 32), 16, 0.15, 3),
            ((37, 29, 11), 7, 0.1, 4),
        ] {
            let v = combustion_jet(dims, 0.5, 3);
            let h = AmrHierarchy::from_volume(&v, block, threshold, max_levels);
            assert!(levels_with_boxes(&h) >= 2, "{dims:?} refines");
            assert_eq!(h, from_volume_two_pass(&v, block, threshold, max_levels), "{dims:?}");
        }
    }

    #[test]
    fn the_back_end_build_folds_each_voxel_once_where_the_oracle_folds_it_twice() {
        // The back end's call, on a `playback_warm` slab.
        let v = combustion_jet((128, 128, 8), 0.5, 3);
        let one_pass = folds_of(|| drop(AmrHierarchy::from_volume(&v, 16, 0.3, 2)));
        let two_pass = folds_of(|| drop(from_volume_two_pass(&v, 16, 0.3, 2)));
        assert_eq!(one_pass, v.len());
        assert_eq!(two_pass, 2 * v.len());
    }

    #[test]
    fn uniform_volume_never_refines() {
        let v = Volume::from_data((16, 16, 16), vec![1.0; 16 * 16 * 16]);
        let h = AmrHierarchy::from_volume(&v, 8, 0.1, 3);
        assert_eq!(levels_with_boxes(&h), 1);
        assert_eq!(h.levels[0].len(), 8);
        assert_eq!(h.total_boxes(), 8);
    }

    #[test]
    fn jet_volume_refines_near_the_jet() {
        let v = combustion_jet((32, 32, 32), 0.5, 3);
        let h = AmrHierarchy::from_volume(&v, 16, 0.25, 3);
        assert!(
            levels_with_boxes(&h) >= 2,
            "expected refinement, got {:?}",
            levels_with_boxes(&h)
        );
        // Finer levels should be concentrated where the jet is (centre in Y/Z).
        let fine_boxes = &h.levels[1];
        assert!(!fine_boxes.is_empty());
    }

    #[test]
    fn box_edges_match_the_pair_map_they_replaced() {
        let b = AmrBox {
            level: 2,
            origin: (1.5, -0.25, 3.0),
            size: (0.5, 2.0, 7.75),
        };
        let (x0, y0, z0) = b.origin;
        let (x1, y1, z1) = (x0 + b.size.0, y0 + b.size.1, z0 + b.size.2);
        let corners = [
            [x0, y0, z0],
            [x1, y0, z0],
            [x1, y1, z0],
            [x0, y1, z0],
            [x0, y0, z1],
            [x1, y0, z1],
            [x1, y1, z1],
            [x0, y1, z1],
        ];
        let pairs = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 4),
            (0, 4),
            (1, 5),
            (2, 6),
            (3, 7),
        ];
        assert_eq!(b.edges(), pairs.map(|(a, b)| (corners[a], corners[b])).to_vec());
    }

    #[test]
    fn box_edges_are_twelve() {
        let b = AmrBox {
            level: 0,
            origin: (0.0, 0.0, 0.0),
            size: (1.0, 2.0, 3.0),
        };
        let edges = b.edges();
        assert_eq!(edges.len(), 12);
        // Total edge length = 4*(1+2+3).
        let total: f32 = edges
            .iter()
            .map(|(a, b)| ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt())
            .sum();
        assert!((total - 24.0).abs() < 1e-4);
    }

    #[test]
    fn geometry_size_is_tens_of_kilobytes_for_realistic_grids() {
        // The paper says AMR geometry is "typically tens of kilobytes ... per
        // timestep"; a moderately refined hierarchy should land in that range.
        let v = combustion_jet((64, 32, 32), 0.6, 4);
        let h = AmrHierarchy::from_volume(&v, 16, 0.15, 3);
        // Two 3-float endpoints per segment.
        let bytes = h.to_line_segments().len() * 2 * 3 * 4;
        assert!(bytes > 5_000 && bytes < 1_000_000, "got {bytes} bytes");
    }

    #[test]
    fn line_segments_keep_level_then_box_then_edge_order() {
        // The viewer's geometry block is fingerprinted, so the order is part
        // of the contract: levels coarse to fine, boxes in level order, each
        // box's twelve edges in `edges()` order.
        let v = combustion_jet((32, 32, 32), 0.5, 3);
        let h = AmrHierarchy::from_volume(&v, 16, 0.25, 3);
        assert!(levels_with_boxes(&h) >= 2);
        let expected: Vec<_> = h.levels.iter().flatten().flat_map(AmrBox::edges).collect();
        let segments = h.to_line_segments();
        assert_eq!(segments, expected);
        assert_eq!(segments[0], ([0.0, 0.0, 0.0], [16.0, 0.0, 0.0]));
        assert_eq!(segments[11], ([0.0, 16.0, 0.0], [0.0, 16.0, 16.0]));
        assert_eq!(segments[12].0, [16.0, 0.0, 0.0], "second level-0 box follows in X");
    }

    #[test]
    fn line_segments_count_matches_boxes() {
        let v = combustion_jet((16, 16, 16), 0.5, 5);
        let h = AmrHierarchy::from_volume(&v, 8, 0.2, 2);
        assert_eq!(h.to_line_segments().len(), h.total_boxes() * 12);
    }
}
