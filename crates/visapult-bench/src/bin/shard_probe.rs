//! Quick diagnostic: one 10k-session campaign per shard count, reporting
//! wall time, process CPU time (utime+stime), and the per-shard lock holds.
//! Wall >> CPU means the plane is sleeping (parks / hand-off latency);
//! wall == CPU on a single-core box means the cost is real work.
//! Not part of the committed baselines — a scratch tool for perf triage.

use netlogger::MetricsHub;
use std::sync::Arc;
use std::time::Instant;
use visapult_core::protocol::{FramePayload, HeavyPayload, LightPayload};
use visapult_core::transport::{striped_link, TransportConfig};
use visapult_core::{FanoutPlane, QualityTier, ServiceConfig, ServiceRunReport, SessionSpec, ShardedBroker};

const TEX: usize = 128;
const VIEWPOINTS: u32 = 4;

fn workers() -> usize {
    std::env::var("PROBE_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

fn frames() -> u32 {
    std::env::args().nth(2).and_then(|a| a.parse().ok()).unwrap_or(8)
}

fn sample_frame(frame: u32) -> FramePayload {
    let texture: Vec<u8> = (0..TEX * TEX * 4).map(|i| (i % 251) as u8).collect();
    FramePayload {
        light: LightPayload {
            frame,
            rank: 0,
            texture_width: TEX as u32,
            texture_height: TEX as u32,
            bytes_per_pixel: 4,
            quad_center: [0.5; 3],
            quad_u: [1.0, 0.0, 0.0],
            quad_v: [0.0, 1.0, 0.0],
            geometry_segments: 64,
        },
        heavy: HeavyPayload {
            frame,
            rank: 0,
            texture_rgba8: texture.into(),
            geometry: Arc::new((0..64).map(|i| ([i as f32, 0.0, 0.0], [i as f32, 1.0, 1.0])).collect()),
        },
    }
}

fn schedule(sessions: u32) -> Vec<SessionSpec> {
    (0..sessions)
        .map(|i| {
            let mut s = SessionSpec::new(format!("s{i}"), i % VIEWPOINTS, QualityTier::Standard);
            s.queue_depth = Some(4096);
            s
        })
        .collect()
}

fn fan_out(sessions: u32, shards: usize) -> ServiceRunReport {
    let transport = TransportConfig::default().with_stripes(4).with_chunk_bytes(16 * 1024);
    let config = ServiceConfig {
        max_sessions: sessions.max(128) as usize,
        link_capacity_units: u64::from(sessions.max(128)) * 8,
        render_slots: VIEWPOINTS,
        queue_depth: 4096,
        shards: Some(shards),
        ..ServiceConfig::default()
    };
    let (tx, rx) = striped_link(&transport);
    let handle = {
        let transport = transport.clone();
        std::thread::spawn(move || {
            let broker = ShardedBroker::new(config, schedule(sessions));
            FanoutPlane::drive_with(
                broker,
                vec![rx],
                Vec::new(),
                &transport,
                Some(workers()),
                &MetricsHub::disabled(),
            )
        })
    };
    for f in 0..frames() {
        tx.send_frame(&sample_frame(f)).unwrap();
    }
    drop(tx);
    handle.join().unwrap()
}

/// Process CPU seconds (utime + stime) from /proc/self/stat.
fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit(") ").next().unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks: u64 = fields.get(11).and_then(|s| s.parse().ok()).unwrap_or(0);
    let ticks2: u64 = fields.get(12).and_then(|s| s.parse().ok()).unwrap_or(0);
    (ticks + ticks2) as f64 / 100.0
}

fn main() {
    let sessions: u32 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(10_000);
    let samples: usize = std::env::args().nth(3).and_then(|a| a.parse().ok()).unwrap_or(3);
    // Warm the allocator/page cache once so the first cell isn't penalized.
    let _ = fan_out(sessions.min(1000), 1);
    for shards in [1usize, 2, 4, 8] {
        let mut walls = Vec::new();
        let mut last = None;
        for _ in 0..samples {
            let cpu0 = cpu_secs();
            let t = Instant::now();
            let report = fan_out(sessions, shards);
            walls.push((t.elapsed().as_secs_f64(), cpu_secs() - cpu0));
            last = Some(report);
        }
        walls.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (wall, cpu) = walls[walls.len() / 2];
        let report = last.unwrap();
        let holds: u64 = report.shard_locks.iter().map(|l| l.hold_ns).sum();
        println!(
            "shards={shards} wall={wall:.3}s cpu={cpu:.2}s lock_hold={:.3}s delivered={} dropped={}",
            holds as f64 / 1e9,
            report.stats.chunks_delivered,
            report.stats.chunks_dropped,
        );
    }
}
