//! Descriptors for the time-varying scientific datasets cached on the DPSS.
//!
//! The paper's reference workload is a combustion simulation on a
//! 640×256×256 grid, one IEEE float per cell, 160 MB per timestep, 265
//! timesteps (41.4 GB total), originally archived on HPSS and staged to the
//! DPSS for visualization.  A descriptor records that shape so the client and
//! the back end can address "timestep t, slab s" as byte ranges.

use netsim::DataSize;

/// A time-varying volumetric dataset stored as a sequence of timesteps, each
/// a dense X-fastest array of `bytes_per_value`-sized values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetDescriptor {
    /// Dataset name (the key used with `dpss_open`).
    pub name: String,
    /// Grid dimensions (x, y, z).
    pub dims: (usize, usize, usize),
    /// Bytes per grid value (4 for IEEE single-precision floats).
    pub bytes_per_value: usize,
    /// Number of timesteps.
    pub timesteps: usize,
}

impl DatasetDescriptor {
    /// A new descriptor.
    pub fn new(name: impl Into<String>, dims: (usize, usize, usize), bytes_per_value: usize, timesteps: usize) -> Self {
        assert!(dims.0 > 0 && dims.1 > 0 && dims.2 > 0, "dimensions must be positive");
        assert!(bytes_per_value > 0, "bytes per value must be positive");
        assert!(timesteps > 0, "a dataset needs at least one timestep");
        DatasetDescriptor {
            name: name.into(),
            dims,
            bytes_per_value,
            timesteps,
        }
    }

    /// The paper's combustion dataset: 640×256×256 single-precision floats,
    /// 265 timesteps — "a total of 160 megabytes of data per time step for
    /// each of the 265 time steps" (§4.2), 41.4 GB overall.
    pub fn paper_combustion() -> Self {
        Self::new("combustion-640x256x256", (640, 256, 256), 4, 265)
    }

    /// A laptop-scale combustion dataset with the same aspect ratio, used by
    /// the real-mode examples and integration tests.
    pub fn small_combustion(timesteps: usize) -> Self {
        Self::new("combustion-small", (80, 32, 32), 4, timesteps.max(1))
    }

    /// Number of values in one timestep.
    pub fn values_per_timestep(&self) -> usize {
        self.dims.0 * self.dims.1 * self.dims.2
    }

    /// Bytes in one timestep.
    pub fn bytes_per_timestep(&self) -> DataSize {
        DataSize::from_bytes((self.values_per_timestep() * self.bytes_per_value) as u64)
    }

    /// Total size of the dataset.
    pub fn total_size(&self) -> DataSize {
        DataSize::from_bytes(self.bytes_per_timestep().bytes() * self.timesteps as u64)
    }

    /// Byte offset of the start of a timestep within the dataset.
    pub fn timestep_offset(&self, timestep: usize) -> u64 {
        assert!(timestep < self.timesteps, "timestep {timestep} out of range");
        self.bytes_per_timestep().bytes() * timestep as u64
    }

    /// Byte range (offset, length) of a Z-axis slab of a timestep: slab `i`
    /// of `n` covers Z planes `[i*z/n, (i+1)*z/n)` — `volren::slab_planes`,
    /// the back end's rule, which this crate does not depend on
    /// (`tests/pipeline_properties.rs` pins the two equal).  Z-slabs are
    /// contiguous in the X-fastest layout, which is why the back end's
    /// decomposition axis is Z.
    pub fn z_slab_range(&self, timestep: usize, slab: usize, slabs: usize) -> (u64, u64) {
        assert!(slabs > 0 && slab < slabs, "slab {slab} of {slabs} is invalid");
        let (x, y, z) = self.dims;
        let z_start = slab * z / slabs;
        let z_end = (slab + 1) * z / slabs;
        let plane_bytes = (x * y * self.bytes_per_value) as u64;
        let offset = self.timestep_offset(timestep) + z_start as u64 * plane_bytes;
        let len = (z_end - z_start) as u64 * plane_bytes;
        (offset, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_combustion_matches_published_numbers() {
        let d = DatasetDescriptor::paper_combustion();
        // "160 megabytes of data per time step"
        assert!((d.bytes_per_timestep().megabytes() - 167.77).abs() < 0.1);
        // "a total of 41.4 gigabytes"
        assert!((d.total_size().gigabytes() - 44.5).abs() < 1.0);
        assert_eq!(d.timesteps, 265);
    }

    #[test]
    fn timestep_offsets_are_contiguous() {
        let d = DatasetDescriptor::small_combustion(5);
        let step = d.bytes_per_timestep().bytes();
        for t in 0..5 {
            assert_eq!(d.timestep_offset(t), step * t as u64);
        }
    }

    #[test]
    fn z_slabs_partition_a_timestep_exactly() {
        let d = DatasetDescriptor::small_combustion(2);
        let slabs = 8;
        let mut covered = 0u64;
        let mut expected_offset = d.timestep_offset(1);
        for s in 0..slabs {
            let (off, len) = d.z_slab_range(1, s, slabs);
            assert_eq!(off, expected_offset, "slabs must be contiguous");
            expected_offset += len;
            covered += len;
        }
        assert_eq!(covered, d.bytes_per_timestep().bytes());
    }

    #[test]
    fn uneven_slab_counts_still_partition() {
        let d = DatasetDescriptor::new("odd", (10, 10, 10), 4, 1);
        let slabs = 3;
        let total: u64 = (0..slabs).map(|s| d.z_slab_range(0, s, slabs).1).sum();
        assert_eq!(total, d.bytes_per_timestep().bytes());
    }

    #[test]
    #[should_panic]
    fn out_of_range_timestep_panics() {
        DatasetDescriptor::small_combustion(3).timestep_offset(3);
    }

    #[test]
    #[should_panic]
    fn invalid_slab_panics() {
        DatasetDescriptor::small_combustion(1).z_slab_range(0, 4, 4);
    }
}
