//! Data sources the back end loads slabs from.
//!
//! "The Visapult back end reads raw scientific data from one of a number of
//! different data sources" (§3.4): the DPSS network cache, a parallel file
//! system on the compute host, or (here, additionally) a purely synthetic
//! generator used when no cache has been set up.  The trait keeps the back
//! end agnostic; the slab addressing (timestep → Z-slab byte range) is shared.

use crate::error::VisapultError;
use dpss::{DatasetDescriptor, DpssClient};
use volren::{combustion_jet, Volume};

/// Something the back end can load slab-decomposed timesteps from.
pub trait DataSource: Send + Sync {
    /// The dataset this source serves.
    fn descriptor(&self) -> &DatasetDescriptor;

    /// Load slab `pe` of `total_pes` (Z-slab decomposition) of `timestep`.
    fn load_slab(&self, timestep: usize, pe: usize, total_pes: usize) -> Result<Volume, VisapultError>;

    /// Bytes a slab load moves (identical for every source).
    fn slab_bytes(&self, timestep: usize, pe: usize, total_pes: usize) -> u64 {
        self.descriptor().z_slab_range(timestep, pe, total_pes).1
    }
}

/// Dimensions of slab `pe` of `total_pes` of a dataset (Z decomposition).
pub fn slab_dims(descriptor: &DatasetDescriptor, pe: usize, total_pes: usize) -> (usize, usize, usize) {
    let (x, y, z) = descriptor.dims;
    let z_start = pe * z / total_pes;
    let z_end = (pe + 1) * z / total_pes;
    (x, y, z_end - z_start)
}

/// Origin (in voxel coordinates) of slab `pe` of `total_pes` (Z decomposition).
pub fn slab_origin(descriptor: &DatasetDescriptor, pe: usize, total_pes: usize) -> (usize, usize, usize) {
    let z_start = pe * descriptor.dims.2 / total_pes;
    (0, 0, z_start)
}

/// A data source backed by the DPSS client API: each slab load is a
/// block-level `read_range` of exactly the slab's byte range, which is the
/// access pattern the cache exists to serve.  The range comes back as a
/// shared `Block` — zero-copy straight out of the server arenas (or the
/// block cache) when the slab doesn't straddle block boundaries — and the
/// only transformation after that is the little-endian float decode into the
/// render volume.
pub struct DpssDataSource {
    client: DpssClient,
    descriptor: DatasetDescriptor,
}

impl DpssDataSource {
    /// Wrap a client and a dataset already registered (and populated) on the
    /// cache.
    pub fn new(client: DpssClient, descriptor: DatasetDescriptor) -> Self {
        DpssDataSource { client, descriptor }
    }

    /// The raw bytes of one slab, as the shared buffer the zero-copy plane
    /// produced (exposed for tests and tooling that want the bytes without
    /// the float decode).
    pub fn slab_bytes_shared(
        &self,
        timestep: usize,
        pe: usize,
        total_pes: usize,
    ) -> Result<dpss::Block, VisapultError> {
        let (offset, len) = self.descriptor.z_slab_range(timestep, pe, total_pes);
        Ok(self.client.read_range(&self.descriptor.name, offset, len)?)
    }
}

impl DataSource for DpssDataSource {
    fn descriptor(&self) -> &DatasetDescriptor {
        &self.descriptor
    }

    fn load_slab(&self, timestep: usize, pe: usize, total_pes: usize) -> Result<Volume, VisapultError> {
        let bytes = self.slab_bytes_shared(timestep, pe, total_pes)?;
        let dims = slab_dims(&self.descriptor, pe, total_pes);
        Ok(Volume::from_le_bytes(dims, &bytes))
    }
}

/// A purely synthetic source: generates the combustion dataset on the fly.
/// Useful for back-end-only tests and for the "render local" baseline where
/// no cache is involved.
pub struct SyntheticSource {
    descriptor: DatasetDescriptor,
    seed: u64,
}

impl SyntheticSource {
    /// A synthetic combustion source with the given descriptor and seed.
    pub fn new(descriptor: DatasetDescriptor, seed: u64) -> Self {
        SyntheticSource { descriptor, seed }
    }

    /// The full volume for a timestep (used by baselines and ground truth).
    pub fn full_volume(&self, timestep: usize) -> Volume {
        let time = if self.descriptor.timesteps <= 1 {
            0.0
        } else {
            timestep as f32 / (self.descriptor.timesteps - 1) as f32
        };
        combustion_jet(self.descriptor.dims, time, self.seed)
    }
}

impl DataSource for SyntheticSource {
    fn descriptor(&self) -> &DatasetDescriptor {
        &self.descriptor
    }

    fn load_slab(&self, timestep: usize, pe: usize, total_pes: usize) -> Result<Volume, VisapultError> {
        let full = self.full_volume(timestep);
        let origin = slab_origin(&self.descriptor, pe, total_pes);
        let dims = slab_dims(&self.descriptor, pe, total_pes);
        Ok(full.subvolume(origin, dims))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpss::{DpssCluster, StripeLayout};
    use volren::combustion_series_bytes;

    fn dpss_source() -> (DpssDataSource, SyntheticSource) {
        let descriptor = DatasetDescriptor::small_combustion(3);
        let cluster = DpssCluster::new(StripeLayout::new(8 * 1024, 4, 2));
        cluster.register_dataset(descriptor.clone());
        let loader = DpssClient::new(cluster.clone(), "stager");
        let bytes = combustion_series_bytes(descriptor.dims, descriptor.timesteps, 99);
        loader.write_at(&descriptor.name, 0, &bytes).unwrap();
        (
            DpssDataSource::new(DpssClient::new(cluster, "backend"), descriptor.clone()),
            SyntheticSource::new(descriptor, 99),
        )
    }

    #[test]
    fn slab_dims_partition_the_volume() {
        let d = DatasetDescriptor::small_combustion(1);
        let total: usize = (0..8).map(|pe| slab_dims(&d, pe, 8).2).sum();
        assert_eq!(total, d.dims.2);
        assert_eq!(slab_origin(&d, 0, 8), (0, 0, 0));
        assert_eq!(slab_origin(&d, 7, 8).2 + slab_dims(&d, 7, 8).2, d.dims.2);
    }

    #[test]
    fn dpss_source_round_trips_the_synthetic_data() {
        // What the back end reads from the cache must be bit-identical to
        // what the generator produced (staging + block reads are lossless).
        let (dpss_src, synth_src) = dpss_source();
        for pe in 0..4 {
            let from_cache = dpss_src.load_slab(1, pe, 4).unwrap();
            let from_generator = synth_src.load_slab(1, pe, 4).unwrap();
            assert_eq!(from_cache, from_generator, "slab {pe} differs");
        }
    }

    #[test]
    fn slab_bytes_match_descriptor_ranges() {
        let (dpss_src, _) = dpss_source();
        let d = dpss_src.descriptor().clone();
        for pe in 0..4 {
            assert_eq!(dpss_src.slab_bytes(0, pe, 4), d.z_slab_range(0, pe, 4).1);
        }
    }

    #[test]
    fn synthetic_source_slabs_tile_the_full_volume() {
        let (_, synth) = dpss_source();
        let full = synth.full_volume(2);
        let pes = 4;
        for pe in 0..pes {
            let slab = synth.load_slab(2, pe, pes).unwrap();
            let origin = slab_origin(synth.descriptor(), pe, pes);
            assert_eq!(slab.get(1, 2, 0), full.get(1, 2, origin.2));
        }
    }

    #[test]
    fn out_of_range_timestep_is_an_error_not_a_crash() {
        let (dpss_src, _) = dpss_source();
        // timestep 5 does not exist (descriptor has 3); z_slab_range panics on
        // invalid timesteps, so guard with catch_unwind to document behaviour.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dpss_src.load_slab(5, 0, 4)));
        assert!(result.is_err());
    }
}
