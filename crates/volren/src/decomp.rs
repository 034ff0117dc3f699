//! Domain decomposition into slabs (paper Figure 4).
//!
//! Object-order parallel volume rendering distributes the volume across the
//! processor pool; Visapult cuts it into axis-aligned slabs, one per PE,
//! because IBRAVR needs one slab image per PE (§3.3).  [`slab_planes`] is the
//! one rule for which planes a slab owns: the back end's data sources, its
//! slab quads and [`decompose`] all follow it, and it addresses the same
//! planes as the DPSS byte range `dpss::DatasetDescriptor::z_slab_range`.

use crate::camera::Axis;
use std::ops::Range;

/// A rectangular region of a volume assigned to one processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Origin of the region (x, y, z).
    pub origin: (usize, usize, usize),
    /// Size of the region (x, y, z).
    pub dims: (usize, usize, usize),
}

/// The planes `[⌊i·extent/n⌋, ⌊(i+1)·extent/n⌋)` that slab `i` of `n` owns
/// along an axis `extent` planes long.  Consecutive slabs are contiguous and
/// together cover the axis; with more slabs than planes some are empty.
pub fn slab_planes(extent: usize, slab: usize, slabs: usize) -> Range<usize> {
    slab * extent / slabs..(slab + 1) * extent / slabs
}

/// Cut a volume of `dims` cells into `slabs` slabs perpendicular to `axis`.
///
/// Every cell belongs to exactly one slab, and the slabs are returned in PE
/// rank order — consecutive ranks hold consecutive slabs along `axis`, the
/// depth order the viewer composites in.  Each slab owns [`slab_planes`].
pub fn decompose(dims: (usize, usize, usize), slabs: usize, axis: Axis) -> Vec<Region> {
    let extent = [dims.0, dims.1, dims.2][axis.index()];
    (0..slabs)
        .map(|slab| {
            let planes = slab_planes(extent, slab, slabs);
            let (origin, dims) = match axis {
                Axis::X => ((planes.start, 0, 0), (planes.len(), dims.1, dims.2)),
                Axis::Y => ((0, planes.start, 0), (dims.0, planes.len(), dims.2)),
                Axis::Z => ((0, 0, planes.start), (dims.0, dims.1, planes.len())),
            };
            Region { origin, dims }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The slabs tile the volume along `axis` in rank order, each full-size
    /// across the other two axes.
    fn assert_partitions(dims: (usize, usize, usize), axis: Axis, regions: &[Region]) {
        let full = [dims.0, dims.1, dims.2];
        let mut next = 0;
        for r in regions {
            let (origin, size) = ([r.origin.0, r.origin.1, r.origin.2], [r.dims.0, r.dims.1, r.dims.2]);
            for a in Axis::ALL {
                if a == axis {
                    assert_eq!(origin[a.index()], next, "{r:?} does not follow its predecessor");
                    next += size[a.index()];
                } else {
                    assert_eq!((origin[a.index()], size[a.index()]), (0, full[a.index()]), "{r:?}");
                }
            }
        }
        assert_eq!(next, full[axis.index()], "the slabs do not cover the axis");
    }

    #[test]
    fn z_slabs_partition_and_are_ordered() {
        let dims = (640, 256, 256);
        let regions = decompose(dims, 8, Axis::Z);
        assert_eq!(regions.len(), 8);
        assert_partitions(dims, Axis::Z, &regions);
        assert!(regions.iter().all(|r| r.dims.2 == 32));
    }

    #[test]
    fn uneven_slab_counts_cover_everything() {
        let dims = (10, 10, 50);
        let regions = decompose(dims, 7, Axis::Z);
        assert_partitions(dims, Axis::Z, &regions);
        let sizes: Vec<usize> = regions.iter().map(|r| r.dims.2).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn slab_axis_selection_matters() {
        let dims = (64, 32, 16);
        for axis in Axis::ALL {
            assert_partitions(dims, axis, &decompose(dims, 4, axis));
        }
    }

    #[test]
    fn an_uneven_split_gives_the_last_slabs_the_extra_planes() {
        // ⌊i·z/n⌋, the DPSS byte-range rule: 10 planes over 3 slabs is 3,3,4.
        let planes: Vec<Range<usize>> = (0..3).map(|i| slab_planes(10, i, 3)).collect();
        assert_eq!(planes, [0..3, 3..6, 6..10]);
        let sizes: Vec<usize> = decompose((4, 4, 10), 3, Axis::Z).iter().map(|r| r.dims.2).collect();
        assert_eq!(sizes, [3, 3, 4]);
    }

    #[test]
    fn more_slabs_than_planes_leaves_some_empty_and_zero_slabs_none() {
        let regions = decompose((8, 8, 4), 8, Axis::Z);
        assert_partitions((8, 8, 4), Axis::Z, &regions);
        assert_eq!(regions.iter().filter(|r| r.dims.2 == 0).count(), 4);
        assert!(decompose((8, 8, 8), 0, Axis::Z).is_empty());
    }
}
