//! The disabled-telemetry cost contract: a plane campaign driven with the
//! no-op hub performs **zero** metric atomics on the chunk hot path.
//!
//! This lives in its own test binary because the proof reads the
//! process-global `live_record_ops` counter — any concurrently running test
//! with a live hub would bump it and turn the zero-delta assertion flaky.

use std::sync::Arc;
use visapult::core::transport::striped_link;
use visapult::core::{
    FanoutPlane, FramePayload, HeavyPayload, LightPayload, QualityTier, ServiceConfig, SessionBroker, SessionSpec,
    TransportConfig,
};
use visapult::netlogger::metrics::live_record_ops;
use visapult::netlogger::MetricsHub;

fn payload(frame: u32) -> FramePayload {
    let tex = 32usize;
    let texture: Vec<u8> = (0..tex * tex * 4).map(|i| (i % 249) as u8).collect();
    FramePayload {
        light: LightPayload {
            frame,
            rank: 0,
            texture_width: tex as u32,
            texture_height: tex as u32,
            bytes_per_pixel: 4,
            quad_center: [0.5; 3],
            quad_u: [1.0, 0.0, 0.0],
            quad_v: [0.0, 1.0, 0.0],
            geometry_segments: 2,
        },
        heavy: HeavyPayload {
            frame,
            rank: 0,
            texture_rgba8: texture.into(),
            geometry: Arc::new(vec![([0.0; 3], [1.0; 3]), ([2.0; 3], [3.0; 3])]),
        },
    }
}

/// One 4-frame, 4-session campaign through the plane with `hub`.
fn run_metered(hub: &MetricsHub) -> u64 {
    let transport = TransportConfig::default().with_stripes(2).with_chunk_bytes(4 * 1024);
    let config = ServiceConfig {
        max_sessions: 128,
        link_capacity_units: 1024,
        render_slots: 4,
        queue_depth: 256,
        ..ServiceConfig::default()
    };
    let schedule: Vec<SessionSpec> = (0..4)
        .map(|i| SessionSpec::new(format!("s{i}"), i % 2, QualityTier::Standard))
        .collect();
    let (tx, rx) = striped_link(&transport);
    let broker = SessionBroker::new(config, schedule);
    let handle = {
        let hub = hub.clone();
        std::thread::spawn(move || FanoutPlane::drive_with(broker, vec![rx], &hub))
    };
    for f in 0..4 {
        tx.send_frame(&payload(f)).unwrap();
    }
    drop(tx);
    handle.join().unwrap().stats.frames_completed
}

#[test]
fn disabled_telemetry_does_zero_atomics_on_the_chunk_hot_path() {
    // No-op hub: every instrument handle is the None variant, so the
    // campaign must not touch a single metric atomic.
    let before = live_record_ops();
    assert!(run_metered(&MetricsHub::disabled()) > 0);
    assert_eq!(
        live_record_ops() - before,
        0,
        "a disabled hub must not perform metric atomics on the chunk hot path"
    );

    // Sanity check on the counter itself: the same campaign with a live hub
    // does record (skipped when the telemetry feature is compiled out and
    // `enabled()` degrades to the no-op hub).
    let hub = MetricsHub::enabled();
    if hub.is_enabled() {
        let before = live_record_ops();
        assert!(run_metered(&hub) > 0);
        assert!(
            live_record_ops() > before,
            "a live hub records on the same instrumented path"
        );
    }
}
