//! The sharded DPSS block cache.
//!
//! The paper's DPSS *is* "a network data cache" (§2), yet the seed's client
//! re-fetched every block from the servers on every read.  [`BlockCache`]
//! closes that gap: an N-way sharded, LRU-evicting cache of whole logical
//! blocks sitting between [`crate::client::DpssClient`] and the cluster.
//! Entries are shared [`Block`]s, so a cache hit is an O(1) refcount bump and
//! an arena slice — no bytes move.
//!
//! Design points:
//!
//! * **Sharding** — blocks map to shards by logical block id, each shard
//!   behind its own [`parking_lot::Mutex`], so the client's per-server
//!   threads rarely contend.
//! * **Single-flight fills** — [`BlockCache::get_or_fetch`] holds the shard
//!   lock across the fill, so a block is fetched from the servers exactly
//!   once no matter how many threads race for it, and hit/miss totals are
//!   deterministic whenever the capacity holds the working set.
//! * **Telemetry** — per-shard hit/miss/eviction counters roll up into
//!   [`CacheStats`]; the campaign layer plumbs them through NetLogger tags
//!   into `CampaignReport`, and [`BlockCache::record`] lets the virtual-time
//!   path replay an access pattern against the *same* eviction logic so real
//!   and simulated runs report identical cache telemetry.

use crate::block::{Block, BlockId};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Configuration of a [`BlockCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in logical blocks (split evenly across shards).
    pub capacity_blocks: usize,
    /// Number of independently locked shards.
    pub shards: usize,
}

impl CacheConfig {
    /// A cache holding `capacity_blocks` blocks across `shards` shards.
    pub fn new(capacity_blocks: usize, shards: usize) -> Self {
        assert!(capacity_blocks > 0, "cache capacity must be positive");
        assert!(shards > 0, "cache needs at least one shard");
        CacheConfig {
            capacity_blocks,
            shards: shards.min(capacity_blocks),
        }
    }

    /// Capacity of each shard (ceiling split, so the total is never less
    /// than requested).
    pub fn per_shard_capacity(&self) -> usize {
        self.capacity_blocks.div_ceil(self.shards)
    }
}

/// Aggregated cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to fetch from the block servers.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Blocks currently resident.
    pub entries: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise difference (`self - earlier`), for per-stage deltas.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            entries: self.entries,
        }
    }
}

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Entry {
    key: u64,
    value: Block,
    prev: usize,
    next: usize,
}

/// One shard: an O(1) LRU over slot-indexed entries.
#[derive(Debug)]
struct Shard {
    capacity: usize,
    map: HashMap<u64, usize>,
    slots: Vec<Entry>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            capacity,
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => self.slots[h].prev = slot,
        }
        self.head = slot;
    }

    fn touch(&mut self, slot: usize) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    /// The hit path (count, LRU-touch, clone), shared by the counting
    /// [`Self::lookup`] and the cache's probe-only `try_get`.
    fn hit(&mut self, key: u64) -> Option<Block> {
        let slot = self.map.get(&key).copied()?;
        self.hits += 1;
        self.touch(slot);
        Some(self.slots[slot].value.clone())
    }

    fn lookup(&mut self, key: u64) -> Option<Block> {
        let found = self.hit(key);
        if found.is_none() {
            self.misses += 1;
        }
        found
    }

    fn insert(&mut self, key: u64, value: Block) {
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "a full shard always has a tail");
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.free.push(victim);
            self.evictions += 1;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Entry {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                };
                slot
            }
            None => {
                self.slots.push(Entry {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len() as u64,
        }
    }
}

/// The sharded LRU block cache.
#[derive(Debug)]
pub struct BlockCache {
    config: CacheConfig,
    shards: Vec<Mutex<Shard>>,
}

impl BlockCache {
    /// Build a cache from its configuration.
    pub fn new(config: CacheConfig) -> Self {
        let per_shard = config.per_shard_capacity();
        BlockCache {
            config,
            shards: (0..config.shards).map(|_| Mutex::new(Shard::new(per_shard))).collect(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    fn shard(&self, block: BlockId) -> &Mutex<Shard> {
        &self.shards[(block.0 % self.config.shards as u64) as usize]
    }

    /// Look up `block`, filling it via `fetch` on a miss.  Returns the block
    /// data and whether it was a hit.  The shard lock is held across the
    /// fill, so concurrent readers of the same block produce exactly one
    /// fetch (single-flight) and the counters stay deterministic.
    pub fn get_or_fetch<E>(
        &self,
        block: BlockId,
        fetch: impl FnOnce() -> Result<Block, E>,
    ) -> Result<(Block, bool), E> {
        let mut shard = self.shard(block).lock();
        if let Some(found) = shard.lookup(block.0) {
            return Ok((found, true));
        }
        let value = fetch()?;
        shard.insert(block.0, value.clone());
        Ok((value, false))
    }

    /// Probe for `block` without filling: counts a hit when present and
    /// nothing when absent.  The client's fast path uses this to serve a
    /// fully resident range under the shard locks alone (absent blocks fall
    /// through to [`Self::get_or_fetch`], which does the miss accounting).
    pub fn try_get(&self, block: BlockId) -> Option<Block> {
        self.shard(block).lock().hit(block.0)
    }

    /// Replay one access against the cache's LRU/eviction logic without real
    /// data (the virtual-time path's telemetry model).  Returns true on a
    /// hit.  Placeholder entries occupy capacity exactly like real blocks,
    /// so a replayed access sequence produces the same hit/miss/eviction
    /// counters as the real pipeline issuing the same sequence.
    pub fn record(&self, block: BlockId) -> bool {
        let mut shard = self.shard(block).lock();
        if shard.lookup(block.0).is_some() {
            true
        } else {
            shard.insert(block.0, Block::new());
            false
        }
    }

    /// Summed counters across every shard.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard.lock().stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.entries += s.entries;
        }
        total
    }

    /// Per-shard counters, in shard order.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(|s| s.lock().stats()).collect()
    }

    /// Blocks currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::sync::Arc;

    fn payload(n: u64) -> Block {
        Bytes::from(vec![n as u8; 8])
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = BlockCache::new(CacheConfig::new(8, 2));
        let (a, hit) = cache.get_or_fetch::<()>(BlockId(1), || Ok(payload(1))).unwrap();
        assert!(!hit);
        let (b, hit) = cache
            .get_or_fetch::<()>(BlockId(1), || unreachable!("must not refetch"))
            .unwrap();
        assert!(hit);
        assert!(a.ptr_eq(&b), "a hit shares the cached allocation");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (1, 1, 0, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_coldest_block_per_shard() {
        // One shard, capacity 2: access 0, 1, touch 0, insert 2 -> 1 evicted.
        let cache = BlockCache::new(CacheConfig::new(2, 1));
        cache.record(BlockId(0));
        cache.record(BlockId(1));
        assert!(cache.record(BlockId(0)), "0 should still be resident");
        cache.record(BlockId(2));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.record(BlockId(0)), "0 was MRU and must survive");
        assert!(!cache.record(BlockId(1)), "1 was LRU and must be gone");
    }

    #[test]
    fn record_matches_get_or_fetch_counters() {
        // The sim replay path and the real fill path must produce identical
        // telemetry for the same access sequence.
        let pattern: Vec<u64> = vec![0, 1, 2, 3, 0, 1, 2, 3, 4, 0, 4];
        let real = BlockCache::new(CacheConfig::new(4, 2));
        let sim = BlockCache::new(CacheConfig::new(4, 2));
        for &b in &pattern {
            let _ = real.get_or_fetch::<()>(BlockId(b), || Ok(payload(b)));
            sim.record(BlockId(b));
        }
        let (r, s) = (real.stats(), sim.stats());
        assert_eq!((r.hits, r.misses, r.evictions), (s.hits, s.misses, s.evictions));
    }

    #[test]
    fn concurrent_access_is_deadlock_free_and_counters_sum() {
        let cache = Arc::new(BlockCache::new(CacheConfig::new(32, 4)));
        let threads = 8;
        let accesses_per_thread = 500;
        let distinct_blocks = 64u64; // twice the capacity: forces evictions
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..accesses_per_thread {
                        let block = BlockId(((t * 31 + i * 7) as u64) % distinct_blocks);
                        let (data, _) = cache.get_or_fetch::<()>(block, || Ok(payload(block.0))).unwrap();
                        assert_eq!(data[0], block.0 as u8);
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, (threads * accesses_per_thread) as u64);
        assert!(s.evictions > 0, "working set exceeds capacity, evictions expected");
        assert!(cache.len() <= 32 + 3, "per-shard ceiling split bounds residency");
        assert_eq!(s.entries, cache.len() as u64);
        // Shard stats roll up to the totals.
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.iter().map(|p| p.hits).sum::<u64>(), s.hits);
        assert_eq!(per_shard.iter().map(|p| p.misses).sum::<u64>(), s.misses);
    }

    #[test]
    fn single_flight_makes_counters_deterministic_without_eviction() {
        // Many threads race for the same small block set; with capacity
        // covering the working set, misses must equal the distinct-block
        // count on every run.
        let cache = Arc::new(BlockCache::new(CacheConfig::new(64, 8)));
        let distinct = 16u64;
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for b in 0..distinct {
                        let _ = cache.get_or_fetch::<()>(BlockId(b), || Ok(payload(b)));
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.misses, distinct, "single-flight: one miss per distinct block");
        assert_eq!(s.hits, 8 * distinct - distinct);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn stats_since_computes_stage_deltas() {
        let cache = BlockCache::new(CacheConfig::new(8, 2));
        cache.record(BlockId(0));
        cache.record(BlockId(1));
        let snapshot = cache.stats();
        cache.record(BlockId(0));
        cache.record(BlockId(2));
        let delta = cache.stats().since(&snapshot);
        assert_eq!((delta.hits, delta.misses), (1, 1));
    }

    #[test]
    fn config_validates_and_splits_capacity() {
        let c = CacheConfig::new(10, 4);
        assert_eq!(c.per_shard_capacity(), 3);
        // More shards than capacity collapses to one block per shard.
        assert_eq!(CacheConfig::new(2, 8).shards, 2);
    }
}
