//! A tour of the DPSS network data cache (§2, §3.5).
//!
//! Shows the full data-staging story the paper tells: a large time-varying
//! dataset archived on HPSS (full-file access only, tape latency) is migrated
//! onto a four-server DPSS, after which Visapult-style block-level slab reads
//! are served in parallel by every server — as zero-copy shared buffers
//! through the client's one data path, `read_pieces`, here through
//! `read_range`, which gathers the pieces — and the capacity model
//! reproduces the paper's headline 980 Mbps LAN / 570 Mbps WAN numbers.
//!
//! Run with: `cargo run --release --example dpss_cache_tour`

use std::sync::Arc;
use visapult::dpss::{
    BlockCache, CacheConfig, DatasetDescriptor, DpssClient, DpssCluster, DpssSimModel, HpssArchive, StripeLayout,
};
use visapult::netsim::{Bandwidth, DataSize, Link, LinkKind, SimDuration, TcpConfig, TcpModel};
use visapult::volren::combustion_series_bytes;

fn main() {
    println!("== DPSS network data cache tour ==\n");

    // 1. The dataset starts on HPSS.
    let descriptor = DatasetDescriptor::small_combustion(4);
    let mut archive = HpssArchive::new();
    archive.archive(descriptor.clone());
    println!(
        "HPSS holds {} ({:.1} MB); full-file retrieval from tape would take {:.1} s",
        descriptor.name,
        descriptor.total_size().megabytes(),
        archive
            .full_file_retrieval_time(&descriptor.name)
            .unwrap()
            .as_secs_f64()
    );

    // 2. Stage it onto a four-server DPSS.
    let cluster = DpssCluster::new(StripeLayout::four_server());
    let stager = DpssClient::new(cluster.clone(), "stager");
    let content = combustion_series_bytes(descriptor.dims, descriptor.timesteps, 7);
    let report = archive
        .stage_to_dpss(&descriptor.name, &stager, &content, Bandwidth::from_mbps(980.0))
        .expect("staging failed");
    println!(
        "staged onto the DPSS: HPSS delivery {:.1} s vs cache delivery {:.2} s for the same bytes\n",
        report.hpss_time.as_secs_f64(),
        report.dpss_time.as_secs_f64()
    );

    // 3. Block-level slab reads through the client API.
    let client = DpssClient::new(cluster.clone(), "visapult-backend");
    let (offset, len) = descriptor.z_slab_range(2, 3, 8);
    let mut slab = vec![0u8; len as usize];
    client.read_at(&descriptor.name, offset, &mut slab).unwrap();
    println!(
        "block-level access: slab 3/8 of timestep 2 is {} KB read with {} parallel server threads",
        len / 1000,
        client.threads_per_request()
    );

    // 4. The same slab through the zero-copy data plane (the path the back
    //    end reads by), then the sharded block cache.
    let copies_before = bytes::deep_copy_count();
    let shared = client.read_range(&descriptor.name, offset, len).unwrap();
    let again = client.read_range(&descriptor.name, offset, len).unwrap();
    assert_eq!(&shared[..], &slab[..]);
    println!(
        "zero-copy plane: two {} KB read_range calls matched read_at with {} deep byte copies{}",
        shared.len() / 1000,
        bytes::deep_copy_count() - copies_before,
        if again.ptr_eq(&shared) {
            " and share one arena allocation"
        } else {
            " (multi-block range: one gather each)"
        }
    );
    let cache = Arc::new(BlockCache::new(CacheConfig::new(256, 4)));
    let cached = DpssClient::new(cluster.clone(), "visapult-backend").with_cache(Arc::clone(&cache));
    for _playback in 0..3 {
        cached
            .read_range(&descriptor.name, 0, descriptor.bytes_per_timestep().bytes())
            .unwrap();
    }
    let stats = cache.stats();
    println!(
        "block cache: 3 playback passes -> {} hits / {} misses / {} evictions ({:.0}% hit rate)\n",
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.hit_rate() * 100.0
    );

    // 5. Capacity model: the paper's headline numbers.
    let model = DpssSimModel::four_server_2000();
    let lan = TcpModel::from_path(
        &[Link::new(
            "client gigE",
            LinkKind::Lan,
            Bandwidth::gige(),
            SimDuration::from_micros(150),
        )],
        TcpConfig::wan_tuned(),
        4,
    );
    let wan = TcpModel::from_path(
        &[Link::new(
            "NTON OC-12",
            LinkKind::DedicatedWan,
            Bandwidth::oc12(),
            SimDuration::from_millis(2),
        )],
        TcpConfig::wan_tuned(),
        4,
    );
    println!("capacity model for the 4-server / 20-disk DPSS of section 3.5:");
    println!(
        "  cache serve rate          : {:6.1} MB/s  (paper: 'over 150 MB/s')",
        model.serve_rate().mbytes_per_sec()
    );
    println!(
        "  delivered to a LAN client : {:6.1} Mbps   (paper: 980 Mbps)",
        model.delivered_throughput(&lan).mbps()
    );
    println!(
        "  delivered to a WAN client : {:6.1} Mbps   (paper: 570 Mbps)",
        model.delivered_throughput(&wan).mbps()
    );
    println!(
        "  160 MB timestep over the WAN: {:.2} s cold, {:.2} s warm",
        model.read_time(DataSize::from_mb(160), &wan).as_secs_f64(),
        model.read_time_warm(DataSize::from_mb(160), &wan).as_secs_f64()
    );
}
