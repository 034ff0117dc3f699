//! Quick probe: per-session-frame cost of the fan-out plane at a given scale.
//! Usage: probe_floor [sessions] [shards] [samples] [frames]
//!
//! The plane self-reports through the metrics hub: every sampled campaign
//! runs metered, and the probe ends by printing the accumulated wave-latency
//! histogram, queue-depth high-waters, and executor introspection — the same
//! instruments the pipeline's `[telemetry]` table records.

use netlogger::MetricsHub;
use std::sync::Arc;
use std::time::Instant;
use visapult_bench::render_metrics_table;
use visapult_core::protocol::{FramePayload, HeavyPayload, LightPayload};
use visapult_core::transport::{striped_link, TransportConfig};
use visapult_core::{FanoutPlane, QualityTier, ServiceConfig, SessionSpec, ShardedBroker};

const TEX: usize = 128;
const VIEWPOINTS: u32 = 4;
const WORKERS: usize = 4;

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

fn workers() -> usize {
    std::env::var("PROBE_WORKERS")
        .ok()
        .and_then(|w| w.parse().ok())
        .unwrap_or(WORKERS)
}

fn run(sessions: u32, shards: usize, frames: u32, hub: &MetricsHub) -> f64 {
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
    let t = Instant::now();
    let handle = {
        let transport = transport.clone();
        let hub = hub.clone();
        std::thread::spawn(move || {
            let broker = ShardedBroker::new(config, schedule(sessions));
            FanoutPlane::drive_with(broker, vec![rx], Vec::new(), &transport, Some(workers()), &hub)
        })
    };
    for f in 0..frames {
        tx.send_frame(&sample_frame(f)).unwrap();
    }
    drop(tx);
    let report = handle.join().unwrap();
    let _ = report.stats.frames_completed;
    t.elapsed().as_secs_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sessions: u32 = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(10_000);
    let shards: usize = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(1);
    let samples: usize = args.get(3).and_then(|a| a.parse().ok()).unwrap_or(3);
    let frames: u32 = args.get(4).and_then(|a| a.parse().ok()).unwrap_or(8);
    let hub = MetricsHub::enabled();
    let mut times: Vec<f64> = (0..samples).map(|_| run(sessions, shards, frames, &hub)).collect();
    times.sort_by(|a, b| a.total_cmp(b));
    let median = times[times.len() / 2];
    let us = median / (f64::from(sessions) * f64::from(frames.max(1))) * 1e6;
    println!(
        "sessions={sessions} shards={shards} frames={frames} samples={samples} median_s={median:.4} us_per_session_frame={us:.3}"
    );
    print!(
        "{}",
        render_metrics_table(&hub.snapshot(&format!("probe_floor:{sessions}x{shards}")))
    );
}
