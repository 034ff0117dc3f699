//! The DPSS client API library.
//!
//! §3.5: "The application interface to the DPSS cache supports a variety of
//! I/O semantics, including Unix-like I/O semantics, through an easy-to-use
//! client API library (e.g., dpssOpen(), dpssRead(), dpssWrite(),
//! dpssLSeek(), dpssClose()).  The DPSS client library is multi-threaded,
//! where the number of client threads is equal to the number of DPSS
//! servers."
//!
//! [`DpssClient`] reproduces that interface against an in-process
//! [`DpssCluster`].  Reads and writes are resolved by the master into
//! per-server physical block requests.  A read's misses are serviced by the
//! client's fetch threads: one per server, started on the client's first miss
//! and kept for its life (dropping the client joins them), so a read hands
//! each server with work its share as one job instead of starting a thread
//! (a 512 KB uncached read took 130 µs with a scoped thread per server per
//! read and takes 39 µs with the kept ones, on a 2-core Xeon).
//! A thread that is gone fails the read with [`DpssError::FetchThreadGone`].
//! An optional token-bucket shaper paces each server's share of a read (a
//! fresh bucket per server per read) so that real-mode runs see WAN-like
//! bandwidth.  A write
//! ([`DpssClient::write_at`]) services its requests in a loop on the caller's
//! thread, and should stay that way: it is a memcpy into the server arenas
//! at 2–10 GB/s (12 ms for the 50 MB `corridor_stream` series, 1–2 % of
//! staging it), so threads of its own would cost more than they hide.
//! Callers that want parallel staging run several `write_at` calls at once
//! on a shared `&DpssClient`, as `visapult-core`'s stager does.
//!
//! The primary read path is zero-copy: [`DpssClient::read_pieces`] returns a
//! range's block pieces — shared slices of the server arenas or cache
//! entries — and moves no bytes at all; [`DpssClient::read_range`] is that
//! read followed by one gather copy into a single shared [`Block`] when the
//! range spans blocks (none inside one block); [`DpssClient::read_block`]
//! hands back a whole logical block with no copy ever, fetched on the
//! caller's thread.  A [`BlockCache`] can be mounted between the client
//! and the cluster with [`DpssClient::with_cache`]; misses then pull whole
//! blocks (so overlapping reads hit), hits bypass the server locks *and* the
//! WAN shaper, and per-read hit/miss telemetry lands on the NetLogger event
//! stream.  The copying `dpss_read`/`read_at` survive as thin compatibility
//! wrappers over `read_range`.

use crate::block::{Block, BlockId};
use crate::cache::BlockCache;
use crate::dataset::DatasetDescriptor;
use crate::error::DpssError;
use crate::master::PhysicalBlockRequest;
use crate::server::DpssCluster;
use bytes::Bytes;
use netlogger::NetLogger;
use netsim::{Bandwidth, TokenBucket};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;

/// An open dataset handle with Unix-like position semantics.
#[derive(Debug, Clone)]
pub struct DpssFile {
    descriptor: DatasetDescriptor,
    position: u64,
    open: bool,
}

impl DpssFile {
    /// The dataset this handle refers to.
    pub fn descriptor(&self) -> &DatasetDescriptor {
        &self.descriptor
    }

    /// Current file position.
    pub fn position(&self) -> u64 {
        self.position
    }
}

/// Seek origin for [`DpssClient::dpss_lseek`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeekFrom {
    /// Absolute offset from the start of the dataset.
    Start(u64),
    /// Relative to the current position.
    Current(i64),
}

/// Hit/miss accounting for one read, reported on the NetLogger stream.
#[derive(Debug, Clone, Copy, Default)]
struct ReadTally {
    hits: u64,
    misses: u64,
}

/// Pieces of a read, each tagged with its index in range order.
type Pieces = Vec<(usize, Bytes)>;

/// One server's share of a read, fetched: its pieces and their accounting.
type Fetched = Result<(Pieces, ReadTally), DpssError>;

/// What fetching a piece needs: shared by the client, which fetches on the
/// caller's thread for [`DpssClient::read_block`], and its fetch threads.
#[derive(Clone)]
struct Fetcher {
    cluster: DpssCluster,
    client_name: String,
    /// Optional per-server-stream pacing (emulates a WAN between client and cache).
    stream_rate: Option<Bandwidth>,
    /// Optional sharded block cache between this client and the cluster.
    cache: Option<Arc<BlockCache>>,
}

/// One server's share of a read's misses, for that server's fetch thread.
struct FetchJob {
    dataset: Arc<str>,
    requests: Vec<(usize, PhysicalBlockRequest)>,
    /// Where the thread answers.
    reply: mpsc::Sender<Fetched>,
}

/// A client's fetch threads, one per server, each serving its job queue
/// until the client drops the queue's sender.
struct FetchThreads {
    queues: Vec<mpsc::Sender<FetchJob>>,
    threads: Vec<JoinHandle<()>>,
}

#[cfg(test)]
thread_local! {
    /// Fetch threads started from this thread (test-only work counter).
    static FETCH_THREADS_STARTED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl FetchThreads {
    /// Start one thread per server of `fetcher`'s cluster.  A thread that
    /// cannot be started leaves its queue without a receiver, so every read
    /// that needs it fails with [`DpssError::FetchThreadGone`].
    fn start(fetcher: &Arc<Fetcher>) -> Self {
        let servers = fetcher.cluster.server_count();
        let mut queues = Vec::with_capacity(servers);
        let mut threads = Vec::with_capacity(servers);
        for server in 0..servers {
            let (queue, jobs) = mpsc::channel::<FetchJob>();
            let fetcher = Arc::clone(fetcher);
            let spawned = std::thread::Builder::new()
                .name(format!("dpss-fetch-{server}"))
                .spawn(move || {
                    for job in jobs {
                        let _ = job.reply.send(fetcher.fetch_job(&job));
                    }
                });
            queues.push(queue);
            if let Ok(thread) = spawned {
                threads.push(thread);
                #[cfg(test)]
                FETCH_THREADS_STARTED.with(|started| started.set(started.get() + 1));
            }
        }
        FetchThreads { queues, threads }
    }
}

impl Drop for FetchThreads {
    fn drop(&mut self) {
        // Closing the queues ends each thread's loop.  A thread that panicked
        // has already failed the read it was serving; nothing is left to report.
        self.queues.clear();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// The multi-threaded DPSS client.
pub struct DpssClient {
    fetcher: Arc<Fetcher>,
    /// Optional instrumentation.
    logger: Option<NetLogger>,
    /// Started on the first read that misses.
    fetch_threads: OnceLock<FetchThreads>,
}

impl DpssClient {
    /// A client named `client_name` (the name checked against the master's
    /// access-control list) talking to `cluster`.
    pub fn new(cluster: DpssCluster, client_name: impl Into<String>) -> Self {
        DpssClient {
            fetcher: Arc::new(Fetcher {
                cluster,
                client_name: client_name.into(),
                stream_rate: None,
                cache: None,
            }),
            logger: None,
            fetch_threads: OnceLock::new(),
        }
    }

    /// Change what fetches see.  Fetch threads already started hold the old
    /// settings, so they are stopped first; the next miss starts fresh ones.
    fn reconfigure(mut self, edit: impl FnOnce(&mut Fetcher)) -> Self {
        self.fetch_threads = OnceLock::new();
        edit(Arc::make_mut(&mut self.fetcher));
        self
    }

    /// Builder: pace each per-server stream at `rate` (token-bucket shaping),
    /// emulating a WAN path between the client and the cache.
    pub fn with_stream_rate(self, rate: Bandwidth) -> Self {
        self.reconfigure(|fetcher| fetcher.stream_rate = Some(rate))
    }

    /// Builder: attach NetLogger instrumentation.
    pub fn with_logger(mut self, logger: NetLogger) -> Self {
        self.logger = Some(logger);
        self
    }

    /// Builder: mount a block cache between this client and the cluster.
    /// Misses fetch whole logical blocks; hits are O(1) shared slices that
    /// bypass both the server locks and the stream shaper.
    pub fn with_cache(self, cache: Arc<BlockCache>) -> Self {
        self.reconfigure(|fetcher| fetcher.cache = Some(cache))
    }

    /// The mounted block cache, if any.
    pub fn cache(&self) -> Option<&Arc<BlockCache>> {
        self.fetcher.cache.as_ref()
    }

    /// The cluster this client talks to.
    pub fn cluster(&self) -> &DpssCluster {
        &self.fetcher.cluster
    }

    /// Number of fetch threads the client keeps (= number of servers).
    pub fn threads_per_request(&self) -> usize {
        self.fetcher.cluster.server_count()
    }

    /// `dpssOpen()`: open a registered dataset.
    pub fn dpss_open(&self, dataset: &str) -> Result<DpssFile, DpssError> {
        let master = self.fetcher.cluster.master();
        let guard = master.read();
        guard.check_access(&self.fetcher.client_name)?;
        let descriptor = guard.dataset(dataset)?.clone();
        Ok(DpssFile {
            descriptor,
            position: 0,
            open: true,
        })
    }

    /// `dpssLSeek()`: move the file position.
    pub fn dpss_lseek(&self, file: &mut DpssFile, from: SeekFrom) -> Result<u64, DpssError> {
        if !file.open {
            return Err(DpssError::Closed);
        }
        let size = file.descriptor.total_size().bytes();
        let new = match from {
            SeekFrom::Start(o) => o,
            SeekFrom::Current(delta) => file
                .position
                .checked_add_signed(delta)
                .ok_or(DpssError::OutOfBounds { offset: 0, size })?,
        };
        if new > size {
            return Err(DpssError::OutOfBounds { offset: new, size });
        }
        file.position = new;
        Ok(new)
    }

    /// `dpssRead()`: read `buf.len()` bytes at the current position, advancing
    /// it.  Compatibility wrapper over the zero-copy [`Self::read_range`].
    pub fn dpss_read(&self, file: &mut DpssFile, buf: &mut [u8]) -> Result<usize, DpssError> {
        if !file.open {
            return Err(DpssError::Closed);
        }
        let len = buf.len() as u64;
        self.read_at(&file.descriptor.name.clone(), file.position, buf)?;
        file.position += len;
        Ok(buf.len())
    }

    /// `dpssWrite()`: write `data` at the current position, advancing it.
    pub fn dpss_write(&self, file: &mut DpssFile, data: &[u8]) -> Result<usize, DpssError> {
        if !file.open {
            return Err(DpssError::Closed);
        }
        self.write_at(&file.descriptor.name.clone(), file.position, data)?;
        file.position += data.len() as u64;
        Ok(data.len())
    }

    /// `dpssClose()`: close the handle.
    pub fn dpss_close(&self, file: &mut DpssFile) {
        file.open = false;
    }

    /// Positioned read into a caller buffer.  Compatibility wrapper: the data
    /// plane runs zero-copy through [`Self::read_range`] and this copies the
    /// assembled range out once at the end.
    pub fn read_at(&self, dataset: &str, offset: u64, buf: &mut [u8]) -> Result<(), DpssError> {
        let bytes = self.read_range(dataset, offset, buf.len() as u64)?;
        buf.copy_from_slice(&bytes);
        Ok(())
    }

    /// Read one whole logical block of a dataset (by dataset-relative block
    /// index), zero-copy.  "Block level access" is the DPSS's defining
    /// feature; this is its most direct form — the returned [`Block`] shares
    /// the server arena (or the cache entry) with no memcpy anywhere.
    pub fn read_block(&self, dataset: &str, block_index: u64) -> Result<Block, DpssError> {
        let request = {
            let master = self.fetcher.cluster.master();
            let guard = master.read();
            let start = guard.dataset_start_block(dataset)?;
            guard.resolve_block(&self.fetcher.client_name, dataset, BlockId(start + block_index))?
        };
        if let Some(log) = &self.logger {
            log.log_with("DPSS_READ_START", [("NL.bytes", request.len)]);
        }
        // A whole-block piece: same miss routine, shaping and accounting as
        // every piece of a `read_pieces`, on the caller's thread.
        let mut shaper = self.fetcher.stream_rate.map(TokenBucket::with_default_burst);
        let mut tally = ReadTally::default();
        let block = self
            .fetcher
            .fetch_piece(dataset, &request, shaper.as_mut(), &mut tally)?;
        self.log_read_end(request.len, &tally);
        Ok(block)
    }

    /// Read a byte range of a dataset as one shared [`Block`]:
    /// [`Self::read_pieces`] followed by one gather copy of the pieces when
    /// there are several (none when the range lies inside a single block).
    pub fn read_range(&self, dataset: &str, offset: u64, len: u64) -> Result<Block, DpssError> {
        let assembled = Bytes::gather(&self.read_pieces(dataset, offset, len)?);
        debug_assert_eq!(assembled.len() as u64, len);
        Ok(assembled)
    }

    /// Read a byte range of a dataset as its block pieces, in range order,
    /// without copying a byte.
    ///
    /// This is the primary read path.  The range is resolved into per-block
    /// physical requests, one piece each: a zero-copy arena (or cache) slice.
    /// Pieces already in the cache are served on the caller's thread; the
    /// rest go to the client's fetch thread for their server, one job per
    /// server with work, and the first error in server order fails the read
    /// once every job has answered.
    pub fn read_pieces(&self, dataset: &str, offset: u64, len: u64) -> Result<Vec<Block>, DpssError> {
        if let Some(log) = &self.logger {
            log.log_with("DPSS_READ_START", [("NL.bytes", len)]);
        }
        let requests = {
            let master = self.fetcher.cluster.master();
            let guard = master.read();
            guard.resolve(&self.fetcher.client_name, dataset, offset, len)?
        };
        let mut pieces: Pieces = Vec::with_capacity(requests.len());
        let mut total = ReadTally::default();

        // Fast path: pieces already resident in the cache are served under
        // the shard locks alone — no fetch threads, no server locks, no
        // shaper.  A fully warm range never gets past this loop.
        let mut groups: Vec<Vec<(usize, PhysicalBlockRequest)>> = vec![Vec::new(); self.threads_per_request()];
        for (i, req) in requests.iter().enumerate() {
            match self.fetcher.cache.as_ref().and_then(|cache| cache.try_get(req.block)) {
                Some(block) => {
                    let start = req.in_block_offset as usize;
                    pieces.push((i, block.slice(start..start + req.len as usize)));
                    total.hits += 1;
                }
                None => groups[req.server].push((i, *req)),
            }
        }
        if pieces.len() < requests.len() {
            for (fetched, tally) in self.fetch_misses(dataset, groups)? {
                pieces.extend(fetched);
                total.hits += tally.hits;
                total.misses += tally.misses;
            }
            pieces.sort_unstable_by_key(|&(i, _)| i);
        }
        self.log_read_end(len, &total);
        Ok(pieces.into_iter().map(|(_, piece)| piece).collect())
    }

    /// Hand each non-empty server group to that server's fetch thread and
    /// wait for every answer.  A thread that cannot take a job, or drops one
    /// unanswered (it panicked), is [`DpssError::FetchThreadGone`].
    fn fetch_misses(
        &self,
        dataset: &str,
        groups: Vec<Vec<(usize, PhysicalBlockRequest)>>,
    ) -> Result<Vec<(Pieces, ReadTally)>, DpssError> {
        let threads = self.fetch_threads.get_or_init(|| FetchThreads::start(&self.fetcher));
        let dataset: Arc<str> = dataset.into();
        let pending: Vec<_> = groups
            .into_iter()
            .enumerate()
            .filter(|(_, requests)| !requests.is_empty())
            .map(|(server, requests)| {
                let (reply, answer) = mpsc::channel();
                let job = FetchJob {
                    dataset: Arc::clone(&dataset),
                    requests,
                    reply,
                };
                (server, threads.queues[server].send(job).map(|()| answer))
            })
            .collect();
        // Every answer is awaited before the first error is returned.  A
        // thread that is gone has dropped the job, and with it the only
        // sender of its answer, so no wait here can outlive it.
        let answers: Vec<Fetched> = pending
            .into_iter()
            .map(|(server, answer)| {
                answer
                    .ok()
                    .and_then(|answer| answer.recv().ok())
                    .unwrap_or(Err(DpssError::FetchThreadGone(server)))
            })
            .collect();
        answers.into_iter().collect()
    }

    /// Emit `DPSS_READ_END`.  Cache fields are attached only when a cache is
    /// mounted — an uncached read reporting `hits=0, misses=0` would be
    /// indistinguishable from a fully warm one in downstream analysis.
    fn log_read_end(&self, len: u64, tally: &ReadTally) {
        let Some(log) = &self.logger else { return };
        if self.fetcher.cache.is_some() {
            log.log_with(
                "DPSS_READ_END",
                [
                    ("NL.bytes", len),
                    (netlogger::tags::FIELD_CACHE_HITS, tally.hits),
                    (netlogger::tags::FIELD_CACHE_MISSES, tally.misses),
                ],
            );
        } else {
            log.log_with("DPSS_READ_END", [("NL.bytes", len)]);
        }
    }

    /// Positioned write without a handle (used when staging data into the
    /// cache).  Runs on the caller's thread; concurrent calls on disjoint
    /// ranges are safe and serialize only per server.
    pub fn write_at(&self, dataset: &str, offset: u64, data: &[u8]) -> Result<(), DpssError> {
        let cluster = &self.fetcher.cluster;
        let requests = {
            let master = cluster.master();
            let guard = master.read();
            guard.resolve(&self.fetcher.client_name, dataset, offset, data.len() as u64)?
        };
        for r in &requests {
            let piece = &data[r.buffer_offset as usize..(r.buffer_offset + r.len) as usize];
            cluster.service_write(r, piece)?;
        }
        Ok(())
    }
}

impl Fetcher {
    /// Serve one server's share of a read, paced by a shaper of its own.
    fn fetch_job(&self, job: &FetchJob) -> Fetched {
        let mut shaper = self.stream_rate.map(TokenBucket::with_default_burst);
        let mut tally = ReadTally::default();
        let mut fetched = Vec::with_capacity(job.requests.len());
        for (i, req) in &job.requests {
            fetched.push((*i, self.fetch_piece(&job.dataset, req, shaper.as_mut(), &mut tally)?));
        }
        Ok((fetched, tally))
    }

    /// Fetch the bytes one piece-request covers: straight from the server
    /// arena when uncached, or via a whole-block cache fill (sliced down to
    /// the piece) when a cache is mounted.  The shaper only ever sees bytes
    /// that actually crossed the emulated WAN — cache hits are free.
    fn fetch_piece(
        &self,
        dataset: &str,
        req: &PhysicalBlockRequest,
        shaper: Option<&mut TokenBucket>,
        tally: &mut ReadTally,
    ) -> Result<Bytes, DpssError> {
        match &self.cache {
            None => {
                let piece = self.cluster.service_read(req)?;
                if let Some(tb) = shaper {
                    tb.throttle(piece.len() as u64);
                }
                Ok(piece)
            }
            Some(cache) => {
                let mut fetched = 0u64;
                let (block, hit) = cache.get_or_fetch(req.block, || {
                    let full = {
                        let master = self.cluster.master();
                        let guard = master.read();
                        guard.resolve_block(&self.client_name, dataset, req.block)?
                    };
                    let data = self.cluster.service_read(&full)?;
                    fetched = data.len() as u64;
                    Ok::<_, DpssError>(data)
                })?;
                if hit {
                    tally.hits += 1;
                } else {
                    tally.misses += 1;
                    if let Some(tb) = shaper {
                        tb.throttle(fetched);
                    }
                }
                let start = req.in_block_offset as usize;
                Ok(block.slice(start..start + req.len as usize))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::StripeLayout;
    use crate::cache::CacheConfig;

    fn small_cluster_with_data() -> (DpssCluster, DatasetDescriptor, Vec<u8>) {
        let cluster = DpssCluster::new(StripeLayout::new(4096, 4, 2));
        let desc = DatasetDescriptor::new("demo", (32, 32, 16), 4, 3);
        cluster.register_dataset(desc.clone());
        let client = DpssClient::new(cluster.clone(), "loader");
        let total = desc.total_size().bytes() as usize;
        let data: Vec<u8> = (0..total).map(|i| (i % 253) as u8).collect();
        client.write_at("demo", 0, &data).unwrap();
        (cluster, desc, data)
    }

    #[test]
    fn unix_like_open_read_seek_close() {
        let (cluster, desc, data) = small_cluster_with_data();
        let client = DpssClient::new(cluster, "viz");
        let mut file = client.dpss_open("demo").unwrap();
        assert_eq!(file.descriptor().name, "demo");

        let mut buf = vec![0u8; 1000];
        client.dpss_read(&mut file, &mut buf).unwrap();
        assert_eq!(buf, &data[..1000]);
        assert_eq!(file.position(), 1000);

        client.dpss_lseek(&mut file, SeekFrom::Current(-500)).unwrap();
        assert_eq!(file.position(), 500);
        client.dpss_read(&mut file, &mut buf).unwrap();
        assert_eq!(buf, &data[500..1500]);

        let ts1 = desc.timestep_offset(1);
        client.dpss_lseek(&mut file, SeekFrom::Start(ts1)).unwrap();
        let mut step = vec![0u8; 2048];
        client.dpss_read(&mut file, &mut step).unwrap();
        assert_eq!(step, &data[ts1 as usize..ts1 as usize + 2048]);

        client.dpss_close(&mut file);
        assert!(matches!(client.dpss_read(&mut file, &mut buf), Err(DpssError::Closed)));
    }

    #[test]
    fn block_level_access_reads_arbitrary_ranges() {
        let (cluster, desc, data) = small_cluster_with_data();
        let client = DpssClient::new(cluster, "viz");
        // Read a slab of timestep 2 without touching anything else.
        let (off, len) = desc.z_slab_range(2, 3, 8);
        let mut buf = vec![0u8; len as usize];
        client.read_at("demo", off, &mut buf).unwrap();
        assert_eq!(buf, &data[off as usize..(off + len) as usize]);
    }

    #[test]
    fn read_range_matches_legacy_read_at() {
        let (cluster, desc, data) = small_cluster_with_data();
        let client = DpssClient::new(cluster, "viz");
        for (off, len) in [(0u64, 4096u64), (100, 9000), (desc.timestep_offset(1), 2048)] {
            let range = client.read_range("demo", off, len).unwrap();
            assert_eq!(range, &data[off as usize..(off + len) as usize]);
        }
        // Bounds still enforced.
        let size = desc.total_size().bytes();
        assert!(matches!(
            client.read_range("demo", size - 10, 20),
            Err(DpssError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn single_block_read_range_is_zero_copy() {
        let (cluster, ..) = small_cluster_with_data();
        let client = DpssClient::new(cluster, "viz");
        let before = bytes::deep_copy_count();
        // 4096-byte blocks: a 1000-byte read at offset 4096 sits in block 1.
        let a = client.read_range("demo", 4096, 1000).unwrap();
        let b = client.read_range("demo", 4096, 1000).unwrap();
        assert!(a.ptr_eq(&b), "in-block reads must share the disk arena");
        assert_eq!(bytes::deep_copy_count(), before, "no bytes may move");
    }

    #[test]
    fn read_block_returns_whole_blocks_zero_copy() {
        let (cluster, desc, data) = small_cluster_with_data();
        let client = DpssClient::new(cluster.clone(), "viz");
        let block_size = cluster.layout().block_size as usize;
        let before = bytes::deep_copy_count();
        let block = client.read_block("demo", 2).unwrap();
        assert_eq!(block, &data[2 * block_size..3 * block_size]);
        assert_eq!(bytes::deep_copy_count(), before);
        // The tail block is clipped to the dataset size.
        let blocks = cluster.layout().blocks_for(desc.total_size().bytes());
        let tail = client.read_block("demo", blocks - 1).unwrap();
        assert_eq!(
            tail.len() as u64,
            desc.total_size().bytes() - (blocks - 1) * cluster.layout().block_size
        );
        assert!(client.read_block("demo", blocks).is_err());
    }

    #[test]
    fn cached_reads_hit_and_match_uncached() {
        let (cluster, desc, data) = small_cluster_with_data();
        let cache = Arc::new(BlockCache::new(CacheConfig::new(256, 4)));
        let client = DpssClient::new(cluster, "viz").with_cache(Arc::clone(&cache));
        let (off, len) = desc.z_slab_range(1, 0, 4);
        let first = client.read_range("demo", off, len).unwrap();
        assert_eq!(first, &data[off as usize..(off + len) as usize]);
        let cold = cache.stats();
        assert!(cold.misses > 0 && cold.hits == 0);
        // Re-read: every block is resident, no server fetch.
        let second = client.read_range("demo", off, len).unwrap();
        assert_eq!(second, first);
        let warm = cache.stats();
        assert_eq!(warm.misses, cold.misses, "warm read must not refetch");
        assert_eq!(warm.hits, cold.misses, "one hit per block on replay");
    }

    #[test]
    fn access_control_applies_to_clients() {
        let (cluster, ..) = small_cluster_with_data();
        cluster.master().write().set_access_list(["visapult-backend"]);
        let denied = DpssClient::new(cluster.clone(), "stranger");
        assert!(matches!(denied.dpss_open("demo"), Err(DpssError::AccessDenied(_))));
        assert!(matches!(denied.read_block("demo", 0), Err(DpssError::AccessDenied(_))));
        let allowed = DpssClient::new(cluster, "visapult-backend");
        assert!(allowed.dpss_open("demo").is_ok());
    }

    #[test]
    fn seek_and_bounds_errors() {
        let (cluster, desc, _) = small_cluster_with_data();
        let client = DpssClient::new(cluster, "viz");
        let mut file = client.dpss_open("demo").unwrap();
        let size = desc.total_size().bytes();
        assert!(client.dpss_lseek(&mut file, SeekFrom::Start(size)).is_ok());
        assert!(client.dpss_lseek(&mut file, SeekFrom::Start(size + 1)).is_err());
        assert!(client.dpss_lseek(&mut file, SeekFrom::Current(-1_000_000_000)).is_err());
        // Position `size` plus i64::MAX overflows an i64: an error, not a
        // debug-build panic or a release-build wrap.
        assert!(matches!(
            client.dpss_lseek(&mut file, SeekFrom::Current(i64::MAX)),
            Err(DpssError::OutOfBounds { .. })
        ));
        assert_eq!(file.position(), size);
        assert!(client.dpss_open("missing").is_err());
    }

    #[test]
    fn client_uses_one_thread_per_server() {
        let (cluster, desc, data) = small_cluster_with_data();
        let client = DpssClient::new(cluster, "viz");
        assert_eq!(client.threads_per_request(), 4);
        // 100 cold reads of four to five 4 KB blocks each — every server has
        // work in every read — start the four threads once, not per read.
        let started = || FETCH_THREADS_STARTED.with(std::cell::Cell::get);
        let before = started();
        let (len, span) = (4 * 4096, desc.total_size().bytes() - 4 * 4096);
        for read in 0..100 {
            let offset = read * 1000 % span;
            let range = client.read_range("demo", offset, len).unwrap();
            assert_eq!(range, &data[offset as usize..(offset + len) as usize]);
        }
        assert_eq!(started() - before, 4, "fetch threads started over 100 reads");
        // Dropping the client joins them: none still holds the fetch state.
        let fetcher = Arc::downgrade(&client.fetcher);
        drop(client);
        assert!(fetcher.upgrade().is_none(), "a fetch thread outlived its client");
    }

    #[test]
    fn a_fetch_thread_that_is_gone_is_a_typed_error_not_a_hang() {
        let (cluster, _, data) = small_cluster_with_data();
        let cache = Arc::new(BlockCache::new(CacheConfig::new(64, 4)));
        let client = DpssClient::new(cluster.clone(), "viz").with_cache(Arc::clone(&cache));
        let requests = cluster.master().read().resolve("viz", "demo", 0, 4 * 4096).unwrap();
        // An empty placeholder (what the virtual-time path's `record`
        // inserts) under one block: slicing a piece out of it panics the
        // thread serving that block's server, mid-job.
        let doomed = requests[1];
        cache.record(doomed.block);
        let mut groups = vec![Vec::new(); client.threads_per_request()];
        for (i, req) in requests.iter().enumerate() {
            groups[req.server].push((i, *req));
        }
        // On a thread of its own, so a read left waiting fails the test at
        // the deadline instead of hanging it.
        let (done, outcome) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let _ = done.send(client.fetch_misses("demo", groups).map(|_| ()));
            client
        });
        let answer = outcome
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a read waited for a fetch thread that is gone");
        assert_eq!(answer, Err(DpssError::FetchThreadGone(doomed.server)));
        let client = reader.join().unwrap();
        // Its queue has no reader left: a read that needs that server fails at
        // once; one that does not is served as before.
        assert_eq!(
            client.read_range("demo", 4 * 4096, 4 * 4096),
            Err(DpssError::FetchThreadGone(doomed.server))
        );
        let spared = requests[(doomed.server + 1) % requests.len()];
        let offset = spared.block.0 * 4096;
        let block = client.read_range("demo", offset, 4096).unwrap();
        assert_eq!(block, &data[offset as usize..offset as usize + 4096]);
        // And the client still drops (joining the panicked thread too).
        drop(client);
    }

    #[test]
    fn shaped_reads_are_slower_than_unshaped() {
        let (cluster, desc, _) = small_cluster_with_data();
        // Read the whole dataset (3 timesteps) so each of the 4 server
        // streams moves well beyond its token-bucket burst.
        let len = desc.total_size().bytes() as usize;

        let fast = DpssClient::new(cluster.clone(), "viz");
        let mut buf = vec![0u8; len];
        let t0 = std::time::Instant::now();
        fast.read_at("demo", 0, &mut buf).unwrap();
        let fast_time = t0.elapsed();

        // Pace each of the 4 server streams to ~0.5 MB/s; ~49 KB per stream
        // should take on the order of 100 ms.
        let slow = DpssClient::new(cluster, "viz").with_stream_rate(Bandwidth::from_mbytes_per_sec(0.5));
        let t1 = std::time::Instant::now();
        slow.read_at("demo", 0, &mut buf).unwrap();
        let slow_time = t1.elapsed();
        assert!(
            slow_time > fast_time * 3 && slow_time > std::time::Duration::from_millis(30),
            "shaping had no effect: fast={fast_time:?} slow={slow_time:?}"
        );
    }

    #[test]
    fn cache_hits_bypass_the_shaper() {
        let (cluster, desc, _) = small_cluster_with_data();
        let cache = Arc::new(BlockCache::new(CacheConfig::new(256, 4)));
        let client = DpssClient::new(cluster, "viz")
            .with_stream_rate(Bandwidth::from_mbytes_per_sec(0.5))
            .with_cache(Arc::clone(&cache));
        let len = desc.total_size().bytes();
        let t0 = std::time::Instant::now();
        client.read_range("demo", 0, len).unwrap();
        let cold = t0.elapsed();
        let t1 = std::time::Instant::now();
        client.read_range("demo", 0, len).unwrap();
        let warm = t1.elapsed();
        assert!(
            warm * 3 < cold,
            "warm reads should skip the WAN shaper: cold={cold:?} warm={warm:?}"
        );
    }

    #[test]
    fn logger_records_read_events_with_cache_fields() {
        let (cluster, ..) = small_cluster_with_data();
        let collector = netlogger::Collector::wall();
        let cache = Arc::new(BlockCache::new(CacheConfig::new(64, 2)));
        let client = DpssClient::new(cluster, "viz")
            .with_logger(collector.logger("client-host", "dpss-client"))
            .with_cache(cache);
        let mut buf = vec![0u8; 8192];
        client.read_at("demo", 0, &mut buf).unwrap();
        client.read_at("demo", 0, &mut buf).unwrap();
        let log = collector.finish();
        assert_eq!(log.with_tag("DPSS_READ_START").count(), 2);
        let ends: Vec<_> = log.with_tag("DPSS_READ_END").collect();
        assert_eq!(ends.len(), 2);
        let hits = |e: &netlogger::Event| {
            e.field(netlogger::tags::FIELD_CACHE_HITS)
                .and_then(|f| f.as_int())
                .unwrap()
        };
        let misses = |e: &netlogger::Event| {
            e.field(netlogger::tags::FIELD_CACHE_MISSES)
                .and_then(|f| f.as_int())
                .unwrap()
        };
        assert_eq!(hits(ends[0]), 0);
        assert!(misses(ends[0]) > 0);
        assert_eq!(hits(ends[1]), misses(ends[0]), "second read hits every block");
        assert_eq!(misses(ends[1]), 0);
    }

    #[test]
    fn uncached_read_events_omit_cache_fields() {
        let (cluster, ..) = small_cluster_with_data();
        let collector = netlogger::Collector::wall();
        let client = DpssClient::new(cluster, "viz").with_logger(collector.logger("client-host", "dpss-client"));
        client.read_range("demo", 0, 4096).unwrap();
        client.read_block("demo", 0).unwrap();
        let log = collector.finish();
        // read_block is instrumented like read_range, and neither reports
        // cache counters when no cache is mounted (an uncached read looks
        // nothing like a 100%-warm one).
        assert_eq!(log.with_tag("DPSS_READ_START").count(), 2);
        for end in log.with_tag("DPSS_READ_END") {
            assert!(end.bytes().unwrap() > 0);
            assert!(end.field(netlogger::tags::FIELD_CACHE_HITS).is_none());
            assert!(end.field(netlogger::tags::FIELD_CACHE_MISSES).is_none());
        }
    }
}
