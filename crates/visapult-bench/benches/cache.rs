//! Criterion bench: the zero-copy data plane and the sharded block cache.
//!
//! Measures `read_range` cold (every block fetched from the servers) against
//! `read_range` warm (every block served from the sharded LRU cache) — the
//! microbenchmark behind the "cache hits are refcount bumps, not transfers"
//! claim — and `read_range` cold *through* a mounted cache, where every block
//! misses: the miss, fill, insert and evict path a thrashing cache takes on
//! every read, handed to the client's fetch threads.
//!
//! Besides the criterion output, a custom `main` writes a
//! `target/BENCH_cache.json` baseline (median seconds per op and derived
//! MB/s for each case) so successive runs can be diffed mechanically.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use dpss::{Block, BlockCache, CacheConfig, DatasetDescriptor, DpssClient, DpssCluster, StripeLayout};
use std::hint::black_box;
use std::sync::Arc;
use visapult_bench::{median_secs, report_baseline};

fn populated_cluster() -> (DpssCluster, DatasetDescriptor) {
    let cluster = DpssCluster::new(StripeLayout::four_server());
    let descriptor = DatasetDescriptor::new("bench-cache", (64, 64, 32), 4, 4);
    cluster.register_dataset(descriptor.clone());
    let loader = DpssClient::new(cluster.clone(), "loader");
    let data: Vec<u8> = (0..descriptor.total_size().bytes()).map(|i| (i % 251) as u8).collect();
    loader.write_at("bench-cache", 0, &data).unwrap();
    (cluster, descriptor)
}

fn cached_client(cluster: &DpssCluster) -> DpssClient {
    DpssClient::new(cluster.clone(), "viz").with_cache(Arc::new(BlockCache::new(CacheConfig::new(256, 8))))
}

/// Reads of `len` bytes through a cache of four blocks, timestep after
/// timestep: a block comes round again only after the other 31 of the
/// dataset's four timesteps have been filled, so every block of every read
/// misses, in whatever order the fetch threads fill them.
fn thrashing_reads(cluster: &DpssCluster, len: u64) -> (impl FnMut() -> Block, Arc<BlockCache>) {
    let cache = Arc::new(BlockCache::new(CacheConfig::new(4, 1)));
    let client = DpssClient::new(cluster.clone(), "viz").with_cache(Arc::clone(&cache));
    let mut reads = 0;
    let read = move || {
        reads += 1;
        client.read_range("bench-cache", reads % 4 * len, len).unwrap()
    };
    (read, cache)
}

fn bench_cached_vs_uncached(c: &mut Criterion) {
    let (cluster, descriptor) = populated_cluster();
    let len = descriptor.bytes_per_timestep().bytes();
    let mut group = c.benchmark_group("cache_read_range");
    group.throughput(Throughput::Bytes(len));

    let uncached = DpssClient::new(cluster.clone(), "viz");
    group.bench_with_input(BenchmarkId::from_parameter("uncached"), &len, |b, &len| {
        b.iter(|| black_box(uncached.read_range("bench-cache", 0, len).unwrap()));
    });

    let warm = cached_client(&cluster);
    warm.read_range("bench-cache", 0, len).unwrap(); // fill
    group.bench_with_input(BenchmarkId::from_parameter("cached-warm"), &len, |b, &len| {
        b.iter(|| black_box(warm.read_range("bench-cache", 0, len).unwrap()));
    });

    let (mut cold, _) = thrashing_reads(&cluster, len);
    group.bench_with_input(BenchmarkId::from_parameter("cold-through-cache"), &len, |b, _| {
        b.iter(|| black_box(cold()));
    });
    group.finish();
}

criterion_group!(benches, bench_cached_vs_uncached);

fn write_baseline() {
    let (cluster, descriptor) = populated_cluster();
    let len = descriptor.bytes_per_timestep().bytes();
    let samples = 30;

    let uncached = DpssClient::new(cluster.clone(), "viz");
    let uncached_s = median_secs(samples, || {
        black_box(uncached.read_range("bench-cache", 0, len).unwrap());
    });
    let warm = cached_client(&cluster);
    warm.read_range("bench-cache", 0, len).unwrap();
    let warm_s = median_secs(samples, || {
        black_box(warm.read_range("bench-cache", 0, len).unwrap());
    });
    let (mut cold, cache) = thrashing_reads(&cluster, len);
    cold(); // start the fetch threads
    let before = cache.stats();
    let cold_s = median_secs(samples, || {
        black_box(cold());
    });
    assert_eq!(
        cache.stats().since(&before).hits,
        0,
        "cold_through_cache must miss every block"
    );

    let mbps = |s: f64| len as f64 / s / 1e6;
    let json = format!(
        "{{\n  \"bench\": \"cache_read_range\",\n  \"bytes_per_op\": {len},\n  \"samples\": {samples},\n  \"cases\": {{\n    \"uncached\": {{ \"median_s\": {uncached_s:.9}, \"mbytes_per_s\": {:.1} }},\n    \"cached_warm\": {{ \"median_s\": {warm_s:.9}, \"mbytes_per_s\": {:.1} }},\n    \"cold_through_cache\": {{ \"median_s\": {cold_s:.9}, \"mbytes_per_s\": {:.1} }}\n  }},\n  \"warm_speedup_vs_uncached\": {:.2}\n}}\n",
        mbps(uncached_s),
        mbps(warm_s),
        mbps(cold_s),
        uncached_s / warm_s,
    );
    report_baseline("cache", &json);
}

fn main() {
    // `cargo test` runs bench targets with `--test`; do nothing there.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    benches();
    write_baseline();
}
