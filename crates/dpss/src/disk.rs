//! Commodity disk model.
//!
//! The DPSS achieves its throughput by aggregating many inexpensive disks:
//! "A four-server DPSS with a capacity of one Terabyte ... can thus deliver
//! throughput of over 150 megabytes per second by providing parallel access
//! to 15-20 disks" (§3.5).  That implies roughly 8–10 MB/s per disk, which is
//! exactly what commodity IDE/SCSI drives sustained in 2000.  This model is
//! used both for capacity planning assertions and by the virtual-time
//! simulation.

use netsim::{Bandwidth, DataSize, SimDuration};

/// A simple disk performance model: positioning time plus sustained transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Average seek time.
    pub seek: SimDuration,
    /// Average rotational latency (half a revolution).
    pub rotational_latency: SimDuration,
    /// Sustained sequential transfer rate.
    pub transfer_rate: Bandwidth,
    /// Capacity of the disk.
    pub capacity: DataSize,
}

impl DiskModel {
    /// A typical mid-2000 commodity drive: 8 ms seek, 4 ms rotational
    /// latency (7200 rpm), ~10 MB/s sustained, ~60 GB.
    pub fn commodity_2000() -> Self {
        DiskModel {
            seek: SimDuration::from_millis(8),
            rotational_latency: SimDuration::from_millis(4),
            transfer_rate: Bandwidth::from_mbytes_per_sec(10.0),
            capacity: DataSize::from_gb(60),
        }
    }

    /// Time to service one read of `size` bytes.
    ///
    /// `sequential` reads (the common case for block-striped dataset scans)
    /// pay the positioning cost only once per access; the DPSS's large 64 KB
    /// blocks were chosen precisely to amortize positioning.
    pub fn read_time(&self, size: DataSize, sequential: bool) -> SimDuration {
        let positioning = if sequential {
            // Track-to-track reposition only.
            SimDuration::from_nanos(self.seek.as_nanos() / 8)
        } else {
            self.seek + self.rotational_latency
        };
        positioning + self.transfer_rate.time_to_send(size)
    }

    /// Effective throughput for a stream of `block_size` reads.
    pub fn effective_throughput(&self, block_size: DataSize, sequential: bool) -> Bandwidth {
        let t = self.read_time(block_size, sequential);
        block_size.rate_over(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commodity_disk_sustains_most_of_its_rate_on_large_blocks() {
        let d = DiskModel::commodity_2000();
        let eff = d
            .effective_throughput(DataSize::from_bytes(64 * 1024), true)
            .mbytes_per_sec();
        assert!(eff > 8.0 && eff <= 10.0, "got {eff}");
    }

    #[test]
    fn random_small_reads_are_much_slower() {
        let d = DiskModel::commodity_2000();
        let seq = d
            .effective_throughput(DataSize::from_bytes(4096), true)
            .mbytes_per_sec();
        let rand = d
            .effective_throughput(DataSize::from_bytes(4096), false)
            .mbytes_per_sec();
        assert!(rand < seq / 3.0, "random {rand} vs sequential {seq}");
    }

    #[test]
    fn twenty_disks_deliver_the_papers_150_mb_per_sec() {
        // §3.5: a four-server system with 15-20 disks -> over 150 MB/s aggregate.
        let d = DiskModel::commodity_2000();
        let per_disk = d
            .effective_throughput(DataSize::from_bytes(64 * 1024), true)
            .mbytes_per_sec();
        assert!(per_disk * 20.0 > 150.0, "20 disks give {}", per_disk * 20.0);
        assert!(per_disk * 15.0 > 120.0, "15 disks give {}", per_disk * 15.0);
    }

    #[test]
    fn read_time_scales_with_size() {
        let d = DiskModel::commodity_2000();
        let small = d.read_time(DataSize::from_bytes(64 * 1024), true);
        let big = d.read_time(DataSize::from_mb(1), true);
        assert!(big > small);
    }
}
