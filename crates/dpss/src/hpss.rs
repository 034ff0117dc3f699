//! The HPSS archival system and HPSS→DPSS staging.
//!
//! §3.5: datasets "are often stored on archival systems such as HPSS, a high
//! performance tertiary storage system.  Clearly, it is impractical to
//! transfer data sets of this magnitude to a local disk for processing.
//! Also, archival systems such as the HPSS are not typically tuned for
//! wide-area network access, and only provide full file, not block level,
//! access to data. ... Therefore, we can migrate the files from HPSS to a
//! nearby DPSS cache."
//!
//! [`HpssArchive`] models exactly those two properties — full-file-only
//! access and tape-staging latency — and [`HpssArchive::stage_to_dpss`]
//! performs the migration the paper describes, returning a report comparing
//! the archive's access characteristics with the cache's.

use crate::client::DpssClient;
use crate::dataset::DatasetDescriptor;
use crate::error::DpssError;
use netsim::{Bandwidth, DataSize, SimDuration};
use std::collections::HashMap;

/// One file held in the archive.
#[derive(Debug, Clone, PartialEq)]
pub struct HpssFile {
    /// File (dataset) name.
    pub name: String,
    /// Dataset shape, carried so staging can register it with the DPSS master.
    pub descriptor: DatasetDescriptor,
    /// Whether the file currently resides on tape (true) or in the archive's
    /// disk cache (false).
    pub on_tape: bool,
}

/// Report produced by staging a file from the archive into the DPSS cache.
#[derive(Debug, Clone, PartialEq)]
pub struct StagingReport {
    /// File that was staged.
    pub file: String,
    /// File size.
    pub size: DataSize,
    /// Modeled time for HPSS to deliver the full file (tape mount + transfer).
    pub hpss_time: SimDuration,
    /// Modeled time for the DPSS to deliver the same bytes once cached.
    pub dpss_time: SimDuration,
    /// Modeled HPSS full-file throughput.
    pub hpss_throughput: Bandwidth,
}

/// A model of an HPSS-class tertiary storage system.
#[derive(Debug, Clone)]
pub struct HpssArchive {
    files: HashMap<String, HpssFile>,
    /// Time to mount and position a tape before any bytes flow.
    pub tape_mount: SimDuration,
    /// Sustained transfer rate of the archive's movers.
    pub transfer_rate: Bandwidth,
}

impl HpssArchive {
    /// A circa-2000 archive: ~60 s tape mount/position, ~15 MB/s movers.
    pub fn new() -> Self {
        HpssArchive {
            files: HashMap::new(),
            tape_mount: SimDuration::from_secs_f64(60.0),
            transfer_rate: Bandwidth::from_mbytes_per_sec(15.0),
        }
    }

    /// Archive a dataset (it starts on tape).
    pub fn archive(&mut self, descriptor: DatasetDescriptor) {
        self.files.insert(
            descriptor.name.clone(),
            HpssFile {
                name: descriptor.name.clone(),
                descriptor,
                on_tape: true,
            },
        );
    }

    /// Look up an archived file.
    pub fn file(&self, name: &str) -> Result<&HpssFile, DpssError> {
        self.files
            .get(name)
            .ok_or_else(|| DpssError::UnknownDataset(name.to_string()))
    }

    /// Modeled time to retrieve the *entire* file (HPSS offers no block-level
    /// access, so this is the only granularity available).
    pub fn full_file_retrieval_time(&self, name: &str) -> Result<SimDuration, DpssError> {
        let f = self.file(name)?;
        let size = f.descriptor.total_size();
        let mount = if f.on_tape { self.tape_mount } else { SimDuration::ZERO };
        Ok(mount + self.transfer_rate.time_to_send(size))
    }

    /// Stage a file into the DPSS cache: register the dataset with the DPSS
    /// master, generate/copy its contents through the client's write path
    /// (using `content` as the byte source), and mark the archive copy as
    /// disk-resident.  Returns a report contrasting archive and cache access.
    ///
    /// `dpss_delivery_rate` is the rate the cache can deliver the same bytes
    /// at (from [`crate::sim::DpssSimModel`] or a measured figure), used only
    /// for the report.
    pub fn stage_to_dpss(
        &mut self,
        name: &str,
        client: &DpssClient,
        content: &[u8],
        dpss_delivery_rate: Bandwidth,
    ) -> Result<StagingReport, DpssError> {
        let hpss_time = self.full_file_retrieval_time(name)?;
        let file = self
            .files
            .get_mut(name)
            .ok_or_else(|| DpssError::UnknownDataset(name.to_string()))?;
        let descriptor = file.descriptor.clone();
        let size = descriptor.total_size();
        assert_eq!(
            content.len() as u64,
            size.bytes(),
            "staging content must match the descriptor size"
        );
        client.cluster().register_dataset(descriptor.clone());
        client.write_at(&descriptor.name, 0, content)?;
        file.on_tape = false;
        Ok(StagingReport {
            file: name.to_string(),
            size,
            hpss_time,
            dpss_time: dpss_delivery_rate.time_to_send(size),
            hpss_throughput: size.rate_over(hpss_time),
        })
    }
}

impl Default for HpssArchive {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::StripeLayout;
    use crate::server::DpssCluster;

    #[test]
    fn full_file_retrieval_includes_tape_mount() {
        let mut a = HpssArchive::new();
        let d = DatasetDescriptor::small_combustion(4);
        a.archive(d.clone());
        let t = a.full_file_retrieval_time(&d.name).unwrap();
        // 60 s mount plus ~1.3 MB at 15 MB/s.
        assert!(t.as_secs_f64() > 60.0);
        assert!(a.full_file_retrieval_time("missing").is_err());
    }

    #[test]
    fn paper_dataset_takes_dozens_of_minutes_from_tape() {
        let mut a = HpssArchive::new();
        a.archive(DatasetDescriptor::paper_combustion());
        let t = a
            .full_file_retrieval_time("combustion-640x256x256")
            .unwrap()
            .as_secs_f64();
        // 44.5 GB at 15 MB/s ≈ 49 minutes + mount.
        assert!(t > 40.0 * 60.0, "got {t} seconds");
    }

    #[test]
    fn staging_moves_data_into_the_cache_and_reports_speedup() {
        let cluster = DpssCluster::new(StripeLayout::new(4096, 4, 2));
        let client = DpssClient::new(cluster.clone(), "stager");
        let d = DatasetDescriptor::small_combustion(2);
        let content: Vec<u8> = (0..d.total_size().bytes() as usize).map(|i| (i % 256) as u8).collect();

        let mut a = HpssArchive::new();
        a.archive(d.clone());
        let report = a
            .stage_to_dpss(&d.name, &client, &content, Bandwidth::from_mbps(980.0))
            .unwrap();
        assert_eq!(report.size, d.total_size());
        assert!(report.hpss_time > report.dpss_time);
        assert!(!a.file(&d.name).unwrap().on_tape);

        // The data is now readable block-level from the cache.
        let reader = DpssClient::new(cluster, "viz");
        let (off, len) = d.z_slab_range(1, 2, 4);
        let mut buf = vec![0u8; len as usize];
        reader.read_at(&d.name, off, &mut buf).unwrap();
        assert_eq!(buf, &content[off as usize..(off + len) as usize]);
    }
}
