//! Adaptive mesh refinement hierarchies.
//!
//! The combustion code the paper visualizes is an AMR simulation; Figure 3
//! shows "vector geometry (line segments) representing the adaptive grid
//! created and used by the combustion simulation" rendered together with the
//! volume.  This module derives an AMR box hierarchy from a scalar volume
//! (refining where the field varies rapidly) and converts it into the line
//! segments that travel to the viewer as the geometric part of the heavy
//! payload.

use crate::volume::{min_max, Volume};

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
        PAIRS.map(|(a, b)| (corners[a], corners[b]))
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
    pub fn from_volume(volume: &Volume, block: usize, refine_threshold: f32, max_levels: usize) -> Self {
        assert!(block > 0, "block size must be positive");
        assert!(max_levels > 0, "need at least one level");
        let dims = volume.dims();
        let data = volume.data();
        let (vmin, vmax) = volume.value_range();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::combustion_jet;

    fn levels_with_boxes(h: &AmrHierarchy) -> usize {
        h.levels.iter().filter(|l| !l.is_empty()).count()
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
