//! Data sources the back end loads slabs from.
//!
//! "The Visapult back end reads raw scientific data from one of a number of
//! different data sources" (§3.4): the DPSS network cache, a parallel file
//! system on the compute host, or (here, additionally) a purely synthetic
//! generator used when no cache has been set up.  The trait keeps the back
//! end agnostic; the slab addressing (timestep → Z-slab byte range) is shared.

use crate::error::VisapultError;
use dpss::{DatasetDescriptor, DpssClient};
use volren::{slab_planes, CombustionSeries, Volume};

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
    (x, y, slab_planes(z, pe, total_pes).len())
}

/// Origin (in voxel coordinates) of slab `pe` of `total_pes` (Z decomposition).
pub fn slab_origin(descriptor: &DatasetDescriptor, pe: usize, total_pes: usize) -> (usize, usize, usize) {
    (0, 0, slab_planes(descriptor.dims.2, pe, total_pes).start)
}

/// Refuse a slab address the dataset does not have, before it reaches the
/// descriptor's asserting byte-range arithmetic.
fn check_slab(
    descriptor: &DatasetDescriptor,
    timestep: usize,
    pe: usize,
    total_pes: usize,
) -> Result<(), VisapultError> {
    if timestep >= descriptor.timesteps {
        return Err(VisapultError::Config(format!(
            "timestep {timestep} out of range: dataset {:?} has {}",
            descriptor.name, descriptor.timesteps
        )));
    }
    if pe >= total_pes {
        return Err(VisapultError::Config(format!(
            "slab {pe} of {total_pes} does not exist"
        )));
    }
    Ok(())
}

/// A data source backed by the DPSS client API: each slab load is a
/// block-level read of exactly the slab's byte range, which is the access
/// pattern the cache exists to serve.  The range comes back as its block
/// pieces (`DpssClient::read_pieces`) — zero-copy slices of the server
/// arenas or the block cache, never gathered — and the one pass over the
/// bytes is the little-endian float decode from those pieces into the render
/// volume (`Volume::from_le_parts`).  A byte count that does not decode to
/// the slab (a dataset whose voxels are not 4-byte floats) is
/// `VisapultError::Decode`.
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

    /// The raw bytes of one slab, gathered into one shared buffer (exposed
    /// for tests and tooling that want the bytes without the float decode).
    pub fn slab_bytes_shared(
        &self,
        timestep: usize,
        pe: usize,
        total_pes: usize,
    ) -> Result<dpss::Block, VisapultError> {
        check_slab(&self.descriptor, timestep, pe, total_pes)?;
        let (offset, len) = self.descriptor.z_slab_range(timestep, pe, total_pes);
        Ok(self.client.read_range(&self.descriptor.name, offset, len)?)
    }
}

impl DataSource for DpssDataSource {
    fn descriptor(&self) -> &DatasetDescriptor {
        &self.descriptor
    }

    fn load_slab(&self, timestep: usize, pe: usize, total_pes: usize) -> Result<Volume, VisapultError> {
        check_slab(&self.descriptor, timestep, pe, total_pes)?;
        let (offset, len) = self.descriptor.z_slab_range(timestep, pe, total_pes);
        let pieces = self.client.read_pieces(&self.descriptor.name, offset, len)?;
        let dims = slab_dims(&self.descriptor, pe, total_pes);
        Ok(Volume::from_le_parts(dims, &pieces)?)
    }
}

/// A purely synthetic source: generates the combustion dataset on the fly.
/// Useful for back-end-only tests and for the "render local" baseline where
/// no cache is involved.
pub struct SyntheticSource {
    descriptor: DatasetDescriptor,
    series: CombustionSeries,
}

impl SyntheticSource {
    /// A synthetic combustion source with the given descriptor and seed.
    pub fn new(descriptor: DatasetDescriptor, seed: u64) -> Self {
        let series = CombustionSeries::new(descriptor.dims, descriptor.timesteps, seed);
        SyntheticSource { descriptor, series }
    }

    /// The full volume for a timestep (used by baselines and ground truth).
    pub fn full_volume(&self, timestep: usize) -> Volume {
        self.series.slab(timestep, 0..self.descriptor.dims.2)
    }
}

impl DataSource for SyntheticSource {
    fn descriptor(&self) -> &DatasetDescriptor {
        &self.descriptor
    }

    /// Generates only the PE's Z planes, not the volume around them.
    fn load_slab(&self, timestep: usize, pe: usize, total_pes: usize) -> Result<Volume, VisapultError> {
        check_slab(&self.descriptor, timestep, pe, total_pes)?;
        Ok(self
            .series
            .slab(timestep, slab_planes(self.descriptor.dims.2, pe, total_pes)))
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
        // 8 KB blocks: a slab of 4 spans ten of them, a slab of 3 starts and
        // ends inside one, so the decode runs across piece boundaries.
        let (dpss_src, synth_src) = dpss_source();
        for pes in [3, 4] {
            for pe in 0..pes {
                let from_cache = dpss_src.load_slab(1, pe, pes).unwrap();
                let from_generator = synth_src.load_slab(1, pe, pes).unwrap();
                assert_eq!(from_cache, from_generator, "slab {pe} of {pes} differs");
            }
        }
    }

    #[test]
    fn a_slab_that_is_not_four_bytes_a_voxel_is_an_error_not_a_panic() {
        // 2-byte voxels: every slab range is half the bytes its dims decode
        // from.  The parent's decode asserted on the length.
        let descriptor = DatasetDescriptor::new("halves", (16, 16, 8), 2, 1);
        let cluster = DpssCluster::new(StripeLayout::new(1024, 4, 1));
        cluster.register_dataset(descriptor.clone());
        let source = DpssDataSource::new(DpssClient::new(cluster, "backend"), descriptor);
        for (pe, pes) in [(0, 1), (1, 2), (3, 4)] {
            let dims = slab_dims(source.descriptor(), pe, pes);
            match source.load_slab(0, pe, pes) {
                Err(VisapultError::Decode(mismatch)) => {
                    assert_eq!(mismatch.dims, dims);
                    assert_eq!(mismatch.bytes, dims.0 * dims.1 * dims.2 * 2);
                }
                other => panic!("slab {pe} of {pes}: {other:?}"),
            }
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
        for pes in [1, 3, 4] {
            for pe in 0..pes {
                let slab = synth.load_slab(2, pe, pes).unwrap();
                let origin = slab_origin(synth.descriptor(), pe, pes);
                let dims = slab_dims(synth.descriptor(), pe, pes);
                assert_eq!(slab, full.subvolume(origin, dims), "slab {pe} of {pes}");
            }
        }
    }

    #[test]
    fn out_of_range_timestep_is_an_error_not_a_crash() {
        // The descriptor has 3 timesteps and its byte-range arithmetic
        // asserts; both sources must refuse the address before reaching it.
        let (dpss_src, synth_src) = dpss_source();
        let sources: [&dyn DataSource; 2] = [&dpss_src, &synth_src];
        for source in sources {
            for (timestep, pe, total_pes) in [(5, 0, 4), (3, 0, 4), (0, 4, 4), (0, 0, 0)] {
                assert!(
                    matches!(source.load_slab(timestep, pe, total_pes), Err(VisapultError::Config(_))),
                    "timestep {timestep}, slab {pe} of {total_pes}"
                );
            }
        }
    }
}
