//! Logical block space and striping layout.
//!
//! The DPSS presents "an extremely large space of logical blocks" (§3.5).
//! Datasets occupy contiguous ranges of logical blocks, and logical blocks
//! are striped round-robin across servers — and, within a server, across its
//! disks — so that a large sequential read engages every disk of every server
//! in parallel.

/// A shared, immutable view of block data — the unit the zero-copy data
/// plane moves around.  Backed by the reference-counted [`bytes::Bytes`], so
/// reads hand out O(1) slices of the per-disk arenas instead of fresh
/// `Vec<u8>` allocations, and the same bytes can sit in the block cache, in a
/// caller's assembled range and on a wire buffer simultaneously without ever
/// being memcpy'd.
pub type Block = bytes::Bytes;

/// Index of a logical block within a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

/// Where a logical block physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysicalLocation {
    /// Server index within the cluster.
    pub server: usize,
    /// Disk index within the server.
    pub disk: usize,
    /// Byte offset of the block on that disk.
    pub disk_offset: u64,
}

/// Round-robin striping of logical blocks across servers and disks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeLayout {
    /// Bytes per logical block (the DPSS used 64 KB blocks).
    pub block_size: u64,
    /// Number of block servers in the cluster.
    pub servers: usize,
    /// Number of disks attached to each server.
    pub disks_per_server: usize,
}

impl StripeLayout {
    /// The canonical four-server DPSS of §3.5 (~$15K in mid-2000): four
    /// servers, five disks each (the paper's "parallel access to 15-20
    /// disks"), 64 KB blocks.
    pub fn four_server() -> Self {
        StripeLayout {
            block_size: 64 * 1024,
            servers: 4,
            disks_per_server: 5,
        }
    }

    /// A layout with explicit parameters.
    pub fn new(block_size: u64, servers: usize, disks_per_server: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        assert!(servers > 0, "a DPSS needs at least one server");
        assert!(disks_per_server > 0, "a server needs at least one disk");
        StripeLayout {
            block_size,
            servers,
            disks_per_server,
        }
    }

    /// Total number of disks in the cluster.
    pub fn total_disks(&self) -> usize {
        self.servers * self.disks_per_server
    }

    /// Which logical block contains byte `offset`.
    pub fn block_of(&self, offset: u64) -> BlockId {
        BlockId(offset / self.block_size)
    }

    /// Number of logical blocks needed to hold `bytes`.
    pub fn blocks_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.block_size)
    }

    /// Physical location of a logical block.
    ///
    /// Blocks go round-robin across servers first, then across the disks of
    /// each server, so consecutive blocks hit different servers and a run of
    /// `servers * disks_per_server` consecutive blocks touches every disk in
    /// the cluster exactly once.
    pub fn locate(&self, block: BlockId) -> PhysicalLocation {
        let server = (block.0 % self.servers as u64) as usize;
        let per_server_index = block.0 / self.servers as u64;
        let disk = (per_server_index % self.disks_per_server as u64) as usize;
        let on_disk_index = per_server_index / self.disks_per_server as u64;
        PhysicalLocation {
            server,
            disk,
            disk_offset: on_disk_index * self.block_size,
        }
    }

    /// Split a byte range into per-block pieces: `(block, offset_in_block,
    /// length)` covering `[offset, offset + len)` in order.
    pub fn split_range(&self, offset: u64, len: u64) -> Vec<(BlockId, u64, u64)> {
        let mut pieces = Vec::new();
        let mut cur = offset;
        let end = offset + len;
        while cur < end {
            let block = self.block_of(cur);
            let in_block = cur % self.block_size;
            let take = (self.block_size - in_block).min(end - cur);
            pieces.push((block, in_block, take));
            cur += take;
        }
        pieces
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_server_defaults() {
        let l = StripeLayout::four_server();
        assert_eq!(l.total_disks(), 20);
        assert_eq!(l.block_size, 65_536);
    }

    #[test]
    fn blocks_round_robin_across_servers_then_disks() {
        let l = StripeLayout::new(1024, 3, 2);
        // Blocks 0,1,2 hit servers 0,1,2 on disk 0.
        for b in 0..3u64 {
            let loc = l.locate(BlockId(b));
            assert_eq!(loc.server, b as usize);
            assert_eq!(loc.disk, 0);
            assert_eq!(loc.disk_offset, 0);
        }
        // Blocks 3,4,5 hit servers 0,1,2 on disk 1.
        for b in 3..6u64 {
            let loc = l.locate(BlockId(b));
            assert_eq!(loc.server, (b - 3) as usize);
            assert_eq!(loc.disk, 1);
            assert_eq!(loc.disk_offset, 0);
        }
        // Block 6 wraps to server 0, disk 0, next stripe.
        let loc = l.locate(BlockId(6));
        assert_eq!((loc.server, loc.disk, loc.disk_offset), (0, 0, 1024));
    }

    #[test]
    fn a_full_stripe_touches_every_disk_once() {
        let l = StripeLayout::new(4096, 4, 5);
        let mut seen = std::collections::HashSet::new();
        for b in 0..(l.total_disks() as u64) {
            let loc = l.locate(BlockId(b));
            assert!(
                seen.insert((loc.server, loc.disk)),
                "disk visited twice within a stripe"
            );
        }
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn split_range_covers_exactly_the_request() {
        let l = StripeLayout::new(100, 2, 2);
        let pieces = l.split_range(250, 300);
        let total: u64 = pieces.iter().map(|(_, _, len)| len).sum();
        assert_eq!(total, 300);
        // First piece starts mid-block.
        assert_eq!(pieces[0], (BlockId(2), 50, 50));
        // Pieces are contiguous.
        let mut cur = 250;
        for (block, in_block, len) in &pieces {
            assert_eq!(block.0 * 100 + in_block, cur);
            cur += len;
        }
    }

    #[test]
    fn split_range_empty_is_empty() {
        let l = StripeLayout::four_server();
        assert!(l.split_range(1000, 0).is_empty());
    }

    #[test]
    fn block_counting() {
        let l = StripeLayout::new(1000, 4, 1);
        assert_eq!(l.blocks_for(0), 0);
        assert_eq!(l.blocks_for(1), 1);
        assert_eq!(l.blocks_for(1000), 1);
        assert_eq!(l.blocks_for(1001), 2);
        assert_eq!(l.block_of(999), BlockId(0));
        assert_eq!(l.block_of(1000), BlockId(1));
    }

    #[test]
    fn large_reads_balance_across_servers() {
        let l = StripeLayout::four_server();
        // A 160 MB timestep read should hit all four servers almost equally.
        let mut counts = vec![0u64; l.servers];
        for (block, _, _) in l.split_range(0, 160_000_000) {
            counts[l.locate(block).server] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(max - min <= 1, "imbalanced: {counts:?}");
    }

    #[test]
    #[should_panic]
    fn zero_servers_rejected() {
        StripeLayout::new(1024, 0, 4);
    }
}
