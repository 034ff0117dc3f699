//! Domain decomposition: slab, shaft and block partitioning (paper Figure 4).
//!
//! Object-order parallel volume rendering distributes the volume across the
//! processor pool with one of these strategies; Visapult uses the slab
//! decomposition because IBRAVR needs one axis-aligned slab image per PE, but
//! the other two are implemented for the decomposition ablation benchmark.

use crate::camera::Axis;

/// A rectangular region of a volume assigned to one processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Origin of the region (x, y, z).
    pub origin: (usize, usize, usize),
    /// Size of the region (x, y, z).
    pub dims: (usize, usize, usize),
}

impl Region {
    /// Number of grid cells in the region.
    pub fn cells(&self) -> usize {
        self.dims.0 * self.dims.1 * self.dims.2
    }

    /// Bytes of `f32` data in the region.
    pub fn bytes(&self) -> u64 {
        self.cells() as u64 * 4
    }

    /// True if the region contains the given cell.
    pub fn contains(&self, x: usize, y: usize, z: usize) -> bool {
        x >= self.origin.0
            && x < self.origin.0 + self.dims.0
            && y >= self.origin.1
            && y < self.origin.1 + self.dims.1
            && z >= self.origin.2
            && z < self.origin.2 + self.dims.2
    }

    /// The exclusive end corner.
    pub fn end(&self) -> (usize, usize, usize) {
        (
            self.origin.0 + self.dims.0,
            self.origin.1 + self.dims.1,
            self.origin.2 + self.dims.2,
        )
    }
}

/// Which decomposition of Figure 4 to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decomposition {
    /// 1-D partitioning into slabs perpendicular to `axis` (Visapult's choice).
    Slab(Axis),
    /// 2-D partitioning into shafts running along `axis`.
    Shaft(Axis),
    /// 3-D partitioning into roughly cubic blocks.
    Block,
}

fn split_extent(extent: usize, parts: usize) -> Vec<(usize, usize)> {
    // Distribute `extent` cells over `parts` contiguous pieces as evenly as
    // possible (the first `extent % parts` pieces get one extra cell).
    let base = extent / parts;
    let extra = extent % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push((start, len));
        start += len;
    }
    out
}

/// Near-square factorization of `n` into two factors (rows, cols).
fn factor2(n: usize) -> (usize, usize) {
    let mut best = (1, n);
    let mut i = 1;
    while i * i <= n {
        if n.is_multiple_of(i) {
            best = (i, n / i);
        }
        i += 1;
    }
    best
}

/// Near-cubic factorization of `n` into three factors.
fn factor3(n: usize) -> (usize, usize, usize) {
    let mut best = (1, 1, n);
    let mut best_score = usize::MAX;
    let mut a = 1;
    while a * a * a <= n {
        if n.is_multiple_of(a) {
            let (b, c) = factor2(n / a);
            let dims = [a, b, c];
            let score = dims.iter().max().unwrap() - dims.iter().min().unwrap();
            if score < best_score {
                best_score = score;
                best = (a, b, c);
            }
        }
        a += 1;
    }
    best
}

/// Partition a volume of `dims` cells into `parts` regions.
///
/// Every cell belongs to exactly one region, regions are returned in PE rank
/// order, and (for slabs) consecutive ranks hold consecutive slabs along the
/// decomposition axis — the depth order the viewer composites in.
pub fn decompose(dims: (usize, usize, usize), parts: usize, strategy: Decomposition) -> Vec<Region> {
    assert!(parts > 0, "cannot decompose into zero parts");
    let (nx, ny, nz) = dims;
    match strategy {
        Decomposition::Slab(axis) => {
            let extent = [nx, ny, nz][axis.index()];
            assert!(
                parts <= extent,
                "cannot cut {extent} planes into {parts} slabs along {axis:?}"
            );
            split_extent(extent, parts)
                .into_iter()
                .map(|(start, len)| {
                    let mut origin = (0, 0, 0);
                    let mut rdims = dims;
                    match axis {
                        Axis::X => {
                            origin.0 = start;
                            rdims.0 = len;
                        }
                        Axis::Y => {
                            origin.1 = start;
                            rdims.1 = len;
                        }
                        Axis::Z => {
                            origin.2 = start;
                            rdims.2 = len;
                        }
                    }
                    Region { origin, dims: rdims }
                })
                .collect()
        }
        Decomposition::Shaft(axis) => {
            // Partition the two axes perpendicular to `axis`.
            let (rows, cols) = factor2(parts);
            let (u_extent, v_extent) = match axis {
                Axis::X => (ny, nz),
                Axis::Y => (nx, nz),
                Axis::Z => (nx, ny),
            };
            assert!(rows <= u_extent && cols <= v_extent, "too many shafts for the grid");
            let u_splits = split_extent(u_extent, rows);
            let v_splits = split_extent(v_extent, cols);
            let mut out = Vec::with_capacity(parts);
            for (u0, ul) in &u_splits {
                for (v0, vl) in &v_splits {
                    let (origin, rdims) = match axis {
                        Axis::X => ((0, *u0, *v0), (nx, *ul, *vl)),
                        Axis::Y => ((*u0, 0, *v0), (*ul, ny, *vl)),
                        Axis::Z => ((*u0, *v0, 0), (*ul, *vl, nz)),
                    };
                    out.push(Region { origin, dims: rdims });
                }
            }
            out
        }
        Decomposition::Block => {
            let (px, py, pz) = factor3(parts);
            assert!(px <= nx && py <= ny && pz <= nz, "too many blocks for the grid");
            let xs = split_extent(nx, px);
            let ys = split_extent(ny, py);
            let zs = split_extent(nz, pz);
            let mut out = Vec::with_capacity(parts);
            for (z0, zl) in &zs {
                for (y0, yl) in &ys {
                    for (x0, xl) in &xs {
                        out.push(Region {
                            origin: (*x0, *y0, *z0),
                            dims: (*xl, *yl, *zl),
                        });
                    }
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_partitions(dims: (usize, usize, usize), regions: &[Region]) {
        // Every cell covered exactly once.
        let total: usize = regions.iter().map(Region::cells).sum();
        assert_eq!(total, dims.0 * dims.1 * dims.2);
        // Spot-check membership of a sample of cells.
        for (x, y, z) in [
            (0, 0, 0),
            (dims.0 - 1, dims.1 - 1, dims.2 - 1),
            (dims.0 / 2, dims.1 / 3, dims.2 / 2),
        ] {
            let owners = regions.iter().filter(|r| r.contains(x, y, z)).count();
            assert_eq!(owners, 1, "cell ({x},{y},{z}) owned by {owners} regions");
        }
    }

    #[test]
    fn z_slabs_partition_and_are_ordered() {
        let dims = (640, 256, 256);
        let regions = decompose(dims, 8, Decomposition::Slab(Axis::Z));
        assert_eq!(regions.len(), 8);
        assert_partitions(dims, &regions);
        for (i, r) in regions.iter().enumerate() {
            assert_eq!(r.dims.2, 32);
            assert_eq!(r.origin.2, i * 32);
            assert_eq!(r.dims.0, 640);
        }
    }

    #[test]
    fn uneven_slab_counts_cover_everything() {
        let dims = (10, 10, 50);
        let regions = decompose(dims, 7, Decomposition::Slab(Axis::Z));
        assert_partitions(dims, &regions);
        let sizes: Vec<usize> = regions.iter().map(|r| r.dims.2).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 50);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn slab_axis_selection_matters() {
        let dims = (64, 32, 16);
        for axis in Axis::ALL {
            let regions = decompose(dims, 4, Decomposition::Slab(axis));
            assert_partitions(dims, &regions);
            // The decomposed axis shrinks, the others stay full-size.
            for r in &regions {
                match axis {
                    Axis::X => assert_eq!((r.dims.1, r.dims.2), (32, 16)),
                    Axis::Y => assert_eq!((r.dims.0, r.dims.2), (64, 16)),
                    Axis::Z => assert_eq!((r.dims.0, r.dims.1), (64, 32)),
                }
            }
        }
    }

    #[test]
    fn shaft_decomposition_partitions() {
        let dims = (64, 64, 64);
        let regions = decompose(dims, 6, Decomposition::Shaft(Axis::Z));
        assert_eq!(regions.len(), 6);
        assert_partitions(dims, &regions);
        // Shafts run the full length of the shaft axis.
        assert!(regions.iter().all(|r| r.dims.2 == 64));
    }

    #[test]
    fn block_decomposition_partitions() {
        let dims = (64, 64, 64);
        let regions = decompose(dims, 8, Decomposition::Block);
        assert_eq!(regions.len(), 8);
        assert_partitions(dims, &regions);
        // 8 = 2x2x2, so each block is 32^3.
        assert!(regions.iter().all(|r| r.dims == (32, 32, 32)));
    }

    #[test]
    fn block_decomposition_with_awkward_count() {
        let dims = (60, 40, 20);
        let regions = decompose(dims, 12, Decomposition::Block);
        assert_eq!(regions.len(), 12);
        assert_partitions(dims, &regions);
    }

    #[test]
    fn region_helpers() {
        let r = Region {
            origin: (2, 4, 6),
            dims: (10, 10, 10),
        };
        assert_eq!(r.cells(), 1000);
        assert_eq!(r.bytes(), 4000);
        assert_eq!(r.end(), (12, 14, 16));
        assert!(r.contains(2, 4, 6));
        assert!(!r.contains(12, 4, 6));
    }

    #[test]
    #[should_panic]
    fn too_many_slabs_panics() {
        decompose((8, 8, 4), 8, Decomposition::Slab(Axis::Z));
    }

    #[test]
    #[should_panic]
    fn zero_parts_panics() {
        decompose((8, 8, 8), 0, Decomposition::Block);
    }
}
