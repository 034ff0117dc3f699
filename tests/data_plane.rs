//! Property tests over the zero-copy data plane: the new shared-buffer
//! `read_range` path must be byte-identical to the legacy copying
//! `dpss_read`/`read_at` API on arbitrary datasets, layouts and offsets —
//! with and without the sharded block cache mounted.  And many readers on
//! one client — one set of fetch threads — must each get their bytes, with
//! the cache's counters exact, and never hang.  The large concurrent run is
//! `#[ignore]`d: `cargo test --release -q --test data_plane -- --ignored`.

use proptest::prelude::*;
use std::sync::{mpsc, Arc};
use std::time::Duration;
use visapult::dpss::{BlockCache, CacheConfig, DatasetDescriptor, DpssClient, DpssCluster, SeekFrom, StripeLayout};

/// Build a cluster with the given layout, register a dataset of `dims` ×
/// `timesteps`, and fill it with a seeded byte pattern.
fn populated(
    block_size: u64,
    servers: usize,
    disks: usize,
    dims: (usize, usize, usize),
    timesteps: usize,
    seed: u64,
) -> (DpssCluster, DatasetDescriptor, Vec<u8>) {
    let cluster = DpssCluster::new(StripeLayout::new(block_size, servers, disks));
    let descriptor = DatasetDescriptor::new("prop", dims, 4, timesteps);
    cluster.register_dataset(descriptor.clone());
    let data: Vec<u8> = (0..descriptor.total_size().bytes())
        .map(|i| (i.wrapping_mul(31).wrapping_add(seed) % 251) as u8)
        .collect();
    DpssClient::new(cluster.clone(), "stager")
        .write_at("prop", 0, &data)
        .unwrap();
    (cluster, descriptor, data)
}

proptest! {
    /// `read_range` (zero-copy) returns exactly the bytes the legacy copying
    /// `dpss_read` returns, for random layouts, dataset sizes and offsets.
    #[test]
    fn read_range_is_byte_identical_to_legacy_dpss_read(
        block_size in 64u64..9_000,
        servers in 1usize..6,
        disks in 1usize..4,
        nx in 2usize..24,
        ny in 2usize..24,
        nz in 2usize..24,
        timesteps in 1usize..4,
        offset_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
        seed in 0u64..1_000,
    ) {
        let (cluster, descriptor, data) = populated(block_size, servers, disks, (nx, ny, nz), timesteps, seed);
        let size = descriptor.total_size().bytes();
        let offset = ((size - 1) as f64 * offset_frac) as u64;
        let len = 1 + ((size - offset - 1) as f64 * len_frac) as u64;

        // Legacy path: seek + dpss_read into a caller buffer.
        let legacy = DpssClient::new(cluster.clone(), "legacy");
        let mut file = legacy.dpss_open("prop").unwrap();
        legacy.dpss_lseek(&mut file, SeekFrom::Start(offset)).unwrap();
        let mut buf = vec![0u8; len as usize];
        legacy.dpss_read(&mut file, &mut buf).unwrap();

        // Zero-copy path.
        let plane = DpssClient::new(cluster.clone(), "plane");
        let range = plane.read_range("prop", offset, len).unwrap();

        prop_assert_eq!(&range[..], &buf[..]);
        prop_assert_eq!(&buf[..], &data[offset as usize..(offset + len) as usize]);

        // And through the sharded cache, cold then warm.
        let cache = Arc::new(BlockCache::new(CacheConfig::new(64, 4)));
        let pieces = cluster.layout().split_range(offset, len).len() as u64;
        let cached = DpssClient::new(cluster, "cached").with_cache(Arc::clone(&cache));
        let cold = cached.read_range("prop", offset, len).unwrap();
        let warm = cached.read_range("prop", offset, len).unwrap();
        prop_assert_eq!(&cold[..], &buf[..]);
        prop_assert_eq!(&warm[..], &buf[..]);
        let stats = cache.stats();
        prop_assert!(stats.misses > 0);
        prop_assert_eq!(stats.hits + stats.misses, 2 * pieces, "every piece access is a hit or a miss");
    }

    /// Whole-block reads agree with the equivalent byte-range reads,
    /// including the clipped tail block.
    #[test]
    fn read_block_agrees_with_read_range(
        block_size in 64u64..4_096,
        servers in 1usize..5,
        nx in 2usize..16,
        ny in 2usize..16,
        nz in 2usize..16,
        seed in 0u64..1_000,
    ) {
        let (cluster, descriptor, data) = populated(block_size, servers, 2, (nx, ny, nz), 2, seed);
        let client = DpssClient::new(cluster.clone(), "viz");
        let size = descriptor.total_size().bytes();
        let blocks = cluster.layout().blocks_for(size);
        for index in [0, blocks / 2, blocks - 1] {
            let block = client.read_block("prop", index).unwrap();
            let start = index * block_size;
            let expect_len = (size - start).min(block_size);
            prop_assert_eq!(block.len() as u64, expect_len);
            prop_assert_eq!(&block[..], &data[start as usize..(start + expect_len) as usize]);
        }
    }
}

/// `readers` threads each make `reads` random slab reads — any timestep, 1–7
/// slabs, any slab, through `read_range` and `read_pieces` in turn — on one
/// shared client whose cache holds a quarter of the dataset, so fills race
/// evictions.  Every read must equal the staged bytes, and hits plus misses
/// must equal the pieces requested.  Runs on its own thread: a reader stuck
/// on a fetch thread fails the test at the deadline instead of hanging it.
fn concurrent_readers(readers: u64, reads: u64) {
    let (cluster, descriptor, data) = populated(4096, 4, 2, (64, 32, 16), 4, 7);
    let blocks = cluster.layout().blocks_for(descriptor.total_size().bytes()) as usize;
    let cache = Arc::new(BlockCache::new(CacheConfig::new(blocks / 4, 4)));
    let client = DpssClient::new(cluster.clone(), "readers").with_cache(Arc::clone(&cache));
    let (done, outcome) = mpsc::channel();
    let run = std::thread::spawn(move || {
        let requested: usize = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..readers)
                .map(|reader| {
                    let (client, cluster, descriptor, data) = (&client, &cluster, &descriptor, &data);
                    scope.spawn(move || {
                        let mut state = reader.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                        let mut draw = |n: u64| {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            (state % n) as usize
                        };
                        let mut requested = 0;
                        for read in 0..reads {
                            let slabs = 1 + draw(7);
                            let (timestep, slab) = (draw(descriptor.timesteps as u64), draw(slabs as u64));
                            let (offset, len) = descriptor.z_slab_range(timestep, slab, slabs);
                            let expected = &data[offset as usize..(offset + len) as usize];
                            if read % 2 == 0 {
                                assert_eq!(&client.read_range("prop", offset, len).unwrap()[..], expected);
                            } else {
                                let pieces = client.read_pieces("prop", offset, len).unwrap();
                                assert_eq!(pieces.iter().map(|p| &p[..]).collect::<Vec<_>>().concat(), expected);
                            }
                            requested += cluster.layout().split_range(offset, len).len();
                        }
                        requested
                    })
                })
                .collect();
            readers.into_iter().map(|reader| reader.join().unwrap()).sum()
        });
        let _ = done.send(requested);
    });
    let requested = outcome
        .recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{readers} readers on one client hung (or one failed)"));
    run.join().unwrap();
    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses,
        requested as u64,
        "every piece is one hit or one miss"
    );
    assert!(stats.misses > 0 && stats.evictions > 0, "{stats:?}");
}

#[test]
fn concurrent_readers_on_one_client_get_their_bytes_and_exact_counts() {
    concurrent_readers(8, 25);
}

#[test]
#[ignore = "8 readers × 20 000 reads; run in release with --ignored"]
fn concurrent_readers_on_one_client_get_their_bytes_and_exact_counts_at_length() {
    concurrent_readers(8, 20_000);
}
