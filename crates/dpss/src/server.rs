//! Block servers and the cluster that groups them.
//!
//! A [`BlockServer`] is one of the "low-cost workstations as DPSS block
//! servers, each with several disk controllers, and several disks on each
//! controller" (§3.5).  In real-mode runs the server holds actual bytes in
//! memory-backed disks; the virtual-time performance model lives in
//! [`crate::sim`].
//!
//! Disks are paged copy-on-write arenas: a read returns a shared
//! [`Block`] slice of the page that holds it (no allocation, no memcpy),
//! and a write only clones a page when an outstanding read still shares it.
//! Because the striping layout never lets a physical request cross a block
//! boundary, every request the master produces is served by exactly one
//! zero-copy page slice.

use crate::block::{Block, StripeLayout};
use crate::dataset::DatasetDescriptor;
use crate::error::DpssError;
use crate::master::{DpssMaster, PhysicalBlockRequest};
use bytes::Bytes;
use parking_lot::RwLock;
use std::sync::Arc;

/// One memory-backed disk: fixed-size pages, shared-on-read, cloned-on-write.
#[derive(Debug, Clone)]
struct DiskArena {
    page_size: usize,
    pages: Vec<Option<Arc<Vec<u8>>>>,
    /// Shared all-zero page handed out for sparse (never-written) regions.
    zero_page: Arc<Vec<u8>>,
    /// Logical high-water mark in bytes (sparse-file semantics).
    len: usize,
}

impl DiskArena {
    fn new(page_size: usize) -> Self {
        assert!(page_size > 0, "disk page size must be positive");
        DiskArena {
            page_size,
            pages: Vec::new(),
            zero_page: Arc::new(vec![0u8; page_size]),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Write `data` at `offset`, growing the arena as needed.  Pages still
    /// shared with outstanding readers are cloned first, so a `Block` handed
    /// out earlier never observes the mutation.
    fn write(&mut self, offset: usize, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let end = offset + data.len();
        let last_page = (end - 1) / self.page_size;
        if self.pages.len() <= last_page {
            self.pages.resize(last_page + 1, None);
        }
        let mut cursor = 0usize;
        while cursor < data.len() {
            let abs = offset + cursor;
            let page_idx = abs / self.page_size;
            let in_page = abs % self.page_size;
            let take = (self.page_size - in_page).min(data.len() - cursor);
            let slot = &mut self.pages[page_idx];
            let page = slot.get_or_insert_with(|| Arc::new(vec![0u8; self.page_size]));
            let target = match Arc::get_mut(page) {
                Some(exclusive) => exclusive,
                None => {
                    // Copy-on-write: a reader still shares this page.
                    *page = Arc::new(page.as_ref().clone());
                    Arc::get_mut(page).expect("freshly cloned page is unique")
                }
            };
            target[in_page..in_page + take].copy_from_slice(&data[cursor..cursor + take]);
            cursor += take;
        }
        self.len = self.len.max(end);
    }

    /// Read `len` bytes at `offset`.  Single-page reads (the only kind the
    /// striping layout produces) are zero-copy shared slices; reads crossing
    /// pages gather into one buffer.  Unwritten regions read as zero.
    fn read(&self, offset: usize, len: usize) -> Block {
        if len == 0 {
            return Bytes::new();
        }
        let first_page = offset / self.page_size;
        let last_page = (offset + len - 1) / self.page_size;
        if first_page == last_page {
            return self.page_slice(first_page, offset % self.page_size, len);
        }
        let mut parts = Vec::with_capacity(last_page - first_page + 1);
        let mut cursor = 0usize;
        while cursor < len {
            let abs = offset + cursor;
            let in_page = abs % self.page_size;
            let take = (self.page_size - in_page).min(len - cursor);
            parts.push(self.page_slice(abs / self.page_size, in_page, take));
            cursor += take;
        }
        Bytes::gather(&parts)
    }

    fn page_slice(&self, page_idx: usize, in_page: usize, len: usize) -> Block {
        let page = self
            .pages
            .get(page_idx)
            .and_then(|p| p.as_ref())
            .unwrap_or(&self.zero_page);
        Bytes::from_arc(Arc::clone(page)).slice(in_page..in_page + len)
    }
}

/// One DPSS block server: a set of byte-addressable disks.
#[derive(Debug)]
pub struct BlockServer {
    id: usize,
    disks: Vec<DiskArena>,
}

/// Page size used when a server is built without an explicit stripe layout
/// (matches the DPSS's 64 KB logical blocks).
pub const DEFAULT_PAGE_SIZE: usize = 64 * 1024;

impl BlockServer {
    /// A server with `disks` empty disks and the default 64 KB page size.
    pub fn new(id: usize, disks: usize) -> Self {
        Self::with_page_size(id, disks, DEFAULT_PAGE_SIZE)
    }

    /// A server whose disk arenas use `page_size`-byte pages.  The cluster
    /// passes its stripe layout's block size, so every physical block request
    /// lands inside exactly one page.
    pub fn with_page_size(id: usize, disks: usize, page_size: usize) -> Self {
        BlockServer {
            id,
            disks: vec![DiskArena::new(page_size); disks.max(1)],
        }
    }

    /// This server's index within the cluster.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Bytes currently stored across all disks (logical high-water marks).
    pub fn used_bytes(&self) -> u64 {
        self.disks.iter().map(|d| d.len() as u64).sum()
    }

    /// Write `data` at `offset` on `disk`, growing the disk as needed.
    pub fn write(&mut self, disk: usize, offset: u64, data: &[u8]) -> Result<(), DpssError> {
        let d = self.disks.get_mut(disk).ok_or(DpssError::UnknownServer(disk))?;
        d.write(offset as usize, data);
        Ok(())
    }

    /// Read `len` bytes from `offset` on `disk` as a shared zero-copy
    /// [`Block`].  Unwritten regions read as zero (sparse-file semantics).
    pub fn read(&self, disk: usize, offset: u64, len: u64) -> Result<Block, DpssError> {
        let d = self.disks.get(disk).ok_or(DpssError::UnknownServer(disk))?;
        Ok(d.read(offset as usize, len as usize))
    }
}

/// A cluster of block servers with a shared striping layout and master.
///
/// The cluster is the in-process ("LAN loopback") form of a DPSS deployment;
/// the per-server [`RwLock`]s let the client's per-server threads read in
/// parallel, which is the entire point of the architecture.
#[derive(Debug, Clone)]
pub struct DpssCluster {
    layout: StripeLayout,
    master: Arc<RwLock<DpssMaster>>,
    servers: Vec<Arc<RwLock<BlockServer>>>,
}

impl DpssCluster {
    /// Build a cluster matching `layout`.  Disk arenas are paged at the
    /// layout's block size, so every physical block request is one page slice.
    pub fn new(layout: StripeLayout) -> Self {
        let servers = (0..layout.servers)
            .map(|id| {
                Arc::new(RwLock::new(BlockServer::with_page_size(
                    id,
                    layout.disks_per_server,
                    layout.block_size as usize,
                )))
            })
            .collect();
        DpssCluster {
            layout,
            master: Arc::new(RwLock::new(DpssMaster::new(layout))),
            servers,
        }
    }

    /// The canonical four-server configuration of §3.5.
    pub fn four_server() -> Self {
        Self::new(StripeLayout::four_server())
    }

    /// The cluster's striping layout.
    pub fn layout(&self) -> StripeLayout {
        self.layout
    }

    /// Shared handle to the master.
    pub fn master(&self) -> Arc<RwLock<DpssMaster>> {
        Arc::clone(&self.master)
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Shared handle to one server.
    pub fn server(&self, id: usize) -> Result<Arc<RwLock<BlockServer>>, DpssError> {
        self.servers.get(id).cloned().ok_or(DpssError::UnknownServer(id))
    }

    /// Register a dataset with the master.
    pub fn register_dataset(&self, descriptor: DatasetDescriptor) {
        self.master.write().register_dataset(descriptor);
    }

    /// Reject requests that overrun their block's stripe slot: servicing one
    /// would read or write a neighbouring block's bytes.
    fn check_stripe(&self, req: &PhysicalBlockRequest) -> Result<(), DpssError> {
        if req.in_block_offset + req.len > self.layout.block_size {
            return Err(DpssError::StripeViolation {
                in_block_offset: req.in_block_offset,
                len: req.len,
                block_size: self.layout.block_size,
            });
        }
        Ok(())
    }

    /// Service one physical read request (used by both the in-process client
    /// and the TCP block service).  Returns a shared zero-copy [`Block`].
    pub fn service_read(&self, req: &PhysicalBlockRequest) -> Result<Block, DpssError> {
        self.check_stripe(req)?;
        let server = self.server(req.server)?;
        let guard = server.read();
        guard.read(req.disk, req.disk_offset + req.in_block_offset, req.len)
    }

    /// Service one physical write request.  The payload must cover exactly
    /// the request's range and stay inside its stripe slot; both conditions
    /// now fail with typed errors instead of panicking or truncating.
    pub fn service_write(&self, req: &PhysicalBlockRequest, data: &[u8]) -> Result<(), DpssError> {
        if data.len() as u64 != req.len {
            return Err(DpssError::WriteSizeMismatch {
                expected: req.len,
                actual: data.len() as u64,
            });
        }
        self.check_stripe(req)?;
        let server = self.server(req.server)?;
        let mut guard = server.write();
        guard.write(req.disk, req.disk_offset + req.in_block_offset, data)
    }

    /// Total bytes stored across the cluster.
    pub fn used_bytes(&self) -> u64 {
        self.servers.iter().map(|s| s.read().used_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockId;

    #[test]
    fn server_read_write_roundtrip() {
        let mut s = BlockServer::new(0, 2);
        s.write(1, 100, b"visapult").unwrap();
        assert_eq!(s.read(1, 100, 8).unwrap(), b"visapult"[..]);
        // Sparse semantics: unwritten bytes are zero.
        assert_eq!(s.read(1, 90, 4).unwrap(), vec![0; 4]);
        assert_eq!(s.read(0, 0, 4).unwrap(), vec![0; 4]);
        assert!(s.read(5, 0, 1).is_err());
        assert_eq!(s.used_bytes(), 108);
    }

    #[test]
    fn reads_are_zero_copy_page_slices() {
        let mut s = BlockServer::with_page_size(0, 1, 256);
        s.write(0, 0, &[7u8; 256]).unwrap();
        let before = bytes::deep_copy_count();
        let a = s.read(0, 16, 64).unwrap();
        let b = s.read(0, 16, 64).unwrap();
        assert!(a.ptr_eq(&b), "same page slice must share the arena allocation");
        assert_eq!(bytes::deep_copy_count(), before, "single-page reads must not copy");
        // Crossing a page boundary falls back to one gather copy.
        let crossing = s.read(0, 200, 100).unwrap();
        assert_eq!(crossing.len(), 100);
        assert_eq!(&crossing[..56], &[7u8; 56]);
        assert_eq!(&crossing[56..], &[0u8; 44]); // second page is sparse
    }

    #[test]
    fn writes_never_mutate_outstanding_reads() {
        let mut s = BlockServer::with_page_size(0, 1, 128);
        s.write(0, 0, &[1u8; 128]).unwrap();
        let snapshot = s.read(0, 0, 128).unwrap();
        s.write(0, 0, &[2u8; 128]).unwrap();
        assert_eq!(snapshot, vec![1u8; 128], "copy-on-write must preserve the old view");
        assert_eq!(s.read(0, 0, 128).unwrap(), vec![2u8; 128]);
    }

    #[test]
    fn cluster_has_one_lock_per_server() {
        let c = DpssCluster::four_server();
        assert_eq!(c.server_count(), 4);
        assert!(c.server(3).is_ok());
        assert!(c.server(4).is_err());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn cluster_services_master_resolved_requests() {
        let c = DpssCluster::new(StripeLayout::new(1024, 2, 2));
        let d = DatasetDescriptor::new("tiny", (16, 16, 16), 4, 1);
        c.register_dataset(d.clone());
        let master = c.master();
        let reqs = master.read().resolve("client", "tiny", 0, 4096).unwrap();
        // Write a recognizable pattern through the request path, then read it back.
        for r in &reqs {
            let payload: Vec<u8> = (0..r.len).map(|i| ((r.block.0 + i) % 251) as u8).collect();
            c.service_write(r, &payload).unwrap();
        }
        for r in &reqs {
            let data = c.service_read(r).unwrap();
            let expect: Vec<u8> = (0..r.len).map(|i| ((r.block.0 + i) % 251) as u8).collect();
            assert_eq!(data, expect);
        }
        assert!(c.used_bytes() > 0);
    }

    #[test]
    fn bad_writes_fail_with_typed_errors() {
        let c = DpssCluster::new(StripeLayout::new(1024, 2, 2));
        let d = DatasetDescriptor::new("tiny", (16, 16, 16), 4, 1);
        c.register_dataset(d.clone());
        let req = c.master().read().resolve("client", "tiny", 0, 512).unwrap()[0];
        // Payload shorter than the request: typed mismatch, not a panic.
        assert_eq!(
            c.service_write(&req, &[0u8; 100]),
            Err(DpssError::WriteSizeMismatch {
                expected: 512,
                actual: 100
            })
        );
        // A forged request overrunning its stripe slot is rejected before any
        // bytes move (previously this would silently spill into the bytes of
        // the next block on the same disk).
        let forged = PhysicalBlockRequest {
            block: BlockId(0),
            server: 0,
            disk: 0,
            disk_offset: 0,
            in_block_offset: 1000,
            len: 500,
            buffer_offset: 0,
        };
        assert!(matches!(
            c.service_write(&forged, &[0u8; 500]),
            Err(DpssError::StripeViolation { block_size: 1024, .. })
        ));
        assert!(matches!(
            c.service_read(&forged),
            Err(DpssError::StripeViolation { .. })
        ));
    }

    #[test]
    fn concurrent_reads_from_different_servers() {
        let c = DpssCluster::new(StripeLayout::new(512, 4, 1));
        let d = DatasetDescriptor::new("p", (32, 16, 16), 4, 1);
        c.register_dataset(d.clone());
        let reqs = c.master().read().resolve("x", "p", 0, 8192).unwrap();
        for r in &reqs {
            c.service_write(r, &vec![7u8; r.len as usize]).unwrap();
        }
        let c2 = c.clone();
        std::thread::scope(|scope| {
            for chunk in reqs.chunks(4) {
                let cref = &c2;
                scope.spawn(move || {
                    for r in chunk {
                        assert_eq!(cref.service_read(r).unwrap(), vec![7u8; r.len as usize]);
                    }
                });
            }
        });
    }
}
