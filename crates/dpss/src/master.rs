//! The DPSS master.
//!
//! Figure 7 of the paper: clients send *logical block requests* to the DPSS
//! master, which performs "logical to physical block lookup, access control,
//! load balancing", and the resulting *physical block requests* are serviced
//! by the block servers.  [`DpssMaster`] owns the dataset registry, the
//! access-control list and the logical block allocator, and turns byte-range
//! requests into per-server physical block requests.

use crate::block::{BlockId, StripeLayout};
use crate::dataset::DatasetDescriptor;
use crate::error::DpssError;
use std::collections::{HashMap, HashSet};

/// One physical block request produced by the master for a byte-range read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysicalBlockRequest {
    /// The logical block this request addresses.
    pub block: BlockId,
    /// Server that holds the block.
    pub server: usize,
    /// Disk within that server.
    pub disk: usize,
    /// Byte offset of the block on that disk.
    pub disk_offset: u64,
    /// Offset within the block where the requested range starts.
    pub in_block_offset: u64,
    /// Number of bytes of this block that belong to the request.
    pub len: u64,
    /// Where these bytes land in the caller's buffer.
    pub buffer_offset: u64,
}

/// Registry entry for one cached dataset.
#[derive(Debug, Clone, PartialEq)]
struct DatasetEntry {
    descriptor: DatasetDescriptor,
    /// First logical block assigned to this dataset.
    start_block: u64,
}

/// The DPSS master process.
#[derive(Debug, Clone)]
pub struct DpssMaster {
    layout: StripeLayout,
    datasets: HashMap<String, DatasetEntry>,
    /// `None` means open access; `Some` restricts to the listed client names.
    acl: Option<HashSet<String>>,
    next_block: u64,
}

impl DpssMaster {
    /// A master for a cluster with the given striping layout, with open
    /// access control.
    pub fn new(layout: StripeLayout) -> Self {
        DpssMaster {
            layout,
            datasets: HashMap::new(),
            acl: None,
            next_block: 0,
        }
    }

    /// The cluster layout this master manages.
    pub fn layout(&self) -> StripeLayout {
        self.layout
    }

    /// Restrict access to the given client names ("access to DPSS systems is
    /// typically provided on an as-needed basis", §5).
    pub fn set_access_list<I: IntoIterator<Item = S>, S: Into<String>>(&mut self, clients: I) {
        self.acl = Some(clients.into_iter().map(Into::into).collect());
    }

    /// Check whether a client may use the cache.
    pub fn check_access(&self, client: &str) -> Result<(), DpssError> {
        match &self.acl {
            None => Ok(()),
            Some(list) if list.contains(client) => Ok(()),
            Some(_) => Err(DpssError::AccessDenied(client.to_string())),
        }
    }

    /// Register a dataset, allocating its logical block range.  Returns the
    /// first logical block assigned.
    pub fn register_dataset(&mut self, descriptor: DatasetDescriptor) -> u64 {
        let blocks_needed = self.layout.blocks_for(descriptor.total_size().bytes());
        let start_block = self.next_block;
        self.next_block += blocks_needed;
        self.datasets.insert(
            descriptor.name.clone(),
            DatasetEntry {
                descriptor,
                start_block,
            },
        );
        start_block
    }

    /// Look up a registered dataset.
    pub fn dataset(&self, name: &str) -> Result<&DatasetDescriptor, DpssError> {
        self.datasets
            .get(name)
            .map(|e| &e.descriptor)
            .ok_or_else(|| DpssError::UnknownDataset(name.to_string()))
    }

    /// Resolve a byte range of a dataset into physical block requests.
    ///
    /// This is the master's core service: access control, bounds checking,
    /// then logical-to-physical lookup for every block the range touches.
    pub fn resolve(
        &self,
        client: &str,
        dataset: &str,
        offset: u64,
        len: u64,
    ) -> Result<Vec<PhysicalBlockRequest>, DpssError> {
        self.check_access(client)?;
        let entry = self
            .datasets
            .get(dataset)
            .ok_or_else(|| DpssError::UnknownDataset(dataset.to_string()))?;
        let size = entry.descriptor.total_size().bytes();
        let end = offset
            .checked_add(len)
            .ok_or(DpssError::OutOfBounds { offset: u64::MAX, size })?;
        if end > size {
            return Err(DpssError::OutOfBounds { offset: end, size });
        }
        let mut requests = Vec::new();
        let mut buffer_offset = 0u64;
        for (rel_block, in_block_offset, piece_len) in self.layout.split_range(offset, len) {
            let logical = BlockId(entry.start_block + rel_block.0);
            let loc = self.layout.locate(logical);
            requests.push(PhysicalBlockRequest {
                block: logical,
                server: loc.server,
                disk: loc.disk,
                disk_offset: loc.disk_offset,
                in_block_offset,
                len: piece_len,
                buffer_offset,
            });
            buffer_offset += piece_len;
        }
        Ok(requests)
    }

    /// First logical block assigned to a dataset (the base the client uses to
    /// convert a dataset-relative block index into a global [`BlockId`]).
    pub fn dataset_start_block(&self, dataset: &str) -> Result<u64, DpssError> {
        self.datasets
            .get(dataset)
            .map(|e| e.start_block)
            .ok_or_else(|| DpssError::UnknownDataset(dataset.to_string()))
    }

    /// Resolve one whole logical block of a dataset (by global [`BlockId`])
    /// into its physical request, with the length clipped at the dataset's
    /// end for the tail block.  This is the fetch unit of the block cache:
    /// a miss pulls the entire block so later overlapping reads hit.
    pub fn resolve_block(
        &self,
        client: &str,
        dataset: &str,
        block: BlockId,
    ) -> Result<PhysicalBlockRequest, DpssError> {
        self.check_access(client)?;
        let entry = self
            .datasets
            .get(dataset)
            .ok_or_else(|| DpssError::UnknownDataset(dataset.to_string()))?;
        let size = entry.descriptor.total_size().bytes();
        let blocks = self.layout.blocks_for(size);
        if block.0 < entry.start_block || block.0 >= entry.start_block + blocks {
            return Err(DpssError::OutOfBounds {
                offset: block.0.saturating_sub(entry.start_block) * self.layout.block_size,
                size,
            });
        }
        let rel = block.0 - entry.start_block;
        let len = (size - rel * self.layout.block_size).min(self.layout.block_size);
        let loc = self.layout.locate(block);
        Ok(PhysicalBlockRequest {
            block,
            server: loc.server,
            disk: loc.disk,
            disk_offset: loc.disk_offset,
            in_block_offset: 0,
            len,
            buffer_offset: 0,
        })
    }

    /// Group physical block requests by server — the unit of work handed to
    /// each of the client's per-server threads.
    pub fn group_by_server(&self, requests: &[PhysicalBlockRequest]) -> Vec<Vec<PhysicalBlockRequest>> {
        let mut groups = vec![Vec::new(); self.layout.servers];
        for r in requests {
            groups[r.server].push(*r);
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn master_with_dataset() -> (DpssMaster, DatasetDescriptor) {
        let mut m = DpssMaster::new(StripeLayout::new(64 * 1024, 4, 4));
        let d = DatasetDescriptor::small_combustion(4);
        m.register_dataset(d.clone());
        (m, d)
    }

    #[test]
    fn resolve_covers_the_exact_range() {
        let (m, d) = master_with_dataset();
        let len = d.bytes_per_timestep().bytes();
        let reqs = m.resolve("viz", &d.name, d.timestep_offset(1), len).unwrap();
        let total: u64 = reqs.iter().map(|r| r.len).sum();
        assert_eq!(total, len);
        // Buffer offsets are contiguous and ascending.
        let mut expect = 0;
        for r in &reqs {
            assert_eq!(r.buffer_offset, expect);
            expect += r.len;
        }
    }

    #[test]
    fn resolve_spreads_work_across_all_servers() {
        let (m, d) = master_with_dataset();
        let reqs = m.resolve("viz", &d.name, 0, d.bytes_per_timestep().bytes()).unwrap();
        let groups = m.group_by_server(&reqs);
        assert_eq!(groups.len(), 4);
        assert!(groups.iter().all(|g| !g.is_empty()), "every server should get work");
        let counts: Vec<usize> = groups.iter().map(|g| g.len()).collect();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1, "load balancing should be even: {counts:?}");
    }

    #[test]
    fn access_control_enforced() {
        let (mut m, d) = master_with_dataset();
        m.set_access_list(["visapult-backend"]);
        assert!(m.resolve("visapult-backend", &d.name, 0, 1024).is_ok());
        assert_eq!(
            m.resolve("stranger", &d.name, 0, 1024),
            Err(DpssError::AccessDenied("stranger".to_string()))
        );
    }

    #[test]
    fn unknown_dataset_and_bounds_errors() {
        let (m, d) = master_with_dataset();
        assert!(matches!(
            m.resolve("viz", "nope", 0, 10),
            Err(DpssError::UnknownDataset(_))
        ));
        let size = d.total_size().bytes();
        assert!(matches!(
            m.resolve("viz", &d.name, size - 10, 20),
            Err(DpssError::OutOfBounds { .. })
        ));
        // A range whose end overflows u64 must not wrap past the check.
        assert!(matches!(
            m.resolve("viz", &d.name, u64::MAX - 4, 100),
            Err(DpssError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn datasets_get_disjoint_block_ranges() {
        let mut m = DpssMaster::new(StripeLayout::four_server());
        let a = DatasetDescriptor::small_combustion(2);
        let b = DatasetDescriptor::new("other", (64, 64, 64), 4, 3);
        let start_a = m.register_dataset(a.clone());
        let start_b = m.register_dataset(b.clone());
        assert_eq!(start_a, 0);
        assert_eq!(start_b, m.layout().blocks_for(a.total_size().bytes()));
        // Physical locations of the two datasets' first blocks differ.
        let ra = m.resolve("c", &a.name, 0, 64).unwrap();
        let rb = m.resolve("c", &b.name, 0, 64).unwrap();
        assert_ne!(
            (ra[0].server, ra[0].disk, ra[0].disk_offset),
            (rb[0].server, rb[0].disk, rb[0].disk_offset)
        );
    }

    #[test]
    fn resolve_block_covers_whole_blocks_and_clips_the_tail() {
        let (m, d) = master_with_dataset();
        let size = d.total_size().bytes();
        let block_size = m.layout().block_size;
        let blocks = m.layout().blocks_for(size);
        let start = m.dataset_start_block(&d.name).unwrap();
        let first = m.resolve_block("viz", &d.name, BlockId(start)).unwrap();
        assert_eq!((first.in_block_offset, first.buffer_offset), (0, 0));
        assert_eq!(first.len, block_size.min(size));
        let tail = m.resolve_block("viz", &d.name, BlockId(start + blocks - 1)).unwrap();
        assert_eq!(tail.len, size - (blocks - 1) * block_size);
        assert!(m.resolve_block("viz", &d.name, BlockId(start + blocks)).is_err());
        assert!(m.resolve_block("viz", "missing", BlockId(0)).is_err());
        assert!(m.dataset_start_block("missing").is_err());
    }

    #[test]
    fn dataset_lookup() {
        let (m, d) = master_with_dataset();
        assert_eq!(m.dataset(&d.name).unwrap().dims, d.dims);
        assert!(m.dataset("missing").is_err());
    }
}
