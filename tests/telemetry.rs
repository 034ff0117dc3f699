//! Telemetry-plane integration tests: replay fingerprints are byte-identical
//! with the `[telemetry]` table on or off (on both execution paths), and the
//! fan-out plane's `fanout/*` metric key set is pinned (and its `exec/*` set
//! to nothing: the plane has no executor).

use std::collections::BTreeSet;
use std::sync::Arc;
use visapult::core::transport::striped_link;
use visapult::core::{
    run_scenario, ExecutionPath, FanoutPlane, FramePayload, HeavyPayload, LightPayload, QualityTier, ScenarioSpec,
    ServiceConfig, SessionBroker, SessionSpec, TelemetrySpec, TransportConfig,
};
use visapult::netlogger::{MetricsHub, MetricsSnapshot};

fn fingerprint(path: ExecutionPath, enable: bool) -> u64 {
    let mut spec = ScenarioSpec::bundled("exhibit_floor").expect("bundled scenario");
    spec.scenario.path = path;
    spec.telemetry = Some(TelemetrySpec {
        enable: Some(enable),
        sample_every: Some(1),
        snapshot_frames: Some(4),
    });
    run_scenario(&spec).expect("scenario runs").replay_fingerprint()
}

/// The metrics plane observes; it must never perturb the deterministic
/// lifecycle half the fingerprints hash.
#[test]
fn fingerprints_invariant_under_telemetry_toggle() {
    for path in [ExecutionPath::Real, ExecutionPath::VirtualTime] {
        let on = fingerprint(path, true);
        let off = fingerprint(path, false);
        assert_eq!(
            on, off,
            "telemetry on/off changed the replay fingerprint on the {path:?} path"
        );
    }
}

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

/// Run a small metered campaign and return the hub's final snapshot.
fn metered_snapshot() -> MetricsSnapshot {
    let transport = TransportConfig::default().with_stripes(2).with_chunk_bytes(4 * 1024);
    let config = ServiceConfig {
        max_sessions: 128,
        link_capacity_units: 1024,
        render_slots: 4,
        queue_depth: 256,
        ..ServiceConfig::default()
    };
    let schedule: Vec<SessionSpec> = (0..6)
        .map(|i| SessionSpec::new(format!("s{i}"), i % 2, QualityTier::Standard))
        .collect();
    let hub = MetricsHub::enabled();
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
    assert!(handle.join().unwrap().stats.frames_completed > 0);
    hub.snapshot("plane")
}

fn keys_with_prefix(snap: &MetricsSnapshot, prefix: &str) -> BTreeSet<String> {
    snap.histograms
        .keys()
        .chain(snap.counters.keys())
        .chain(snap.high_waters.keys())
        .filter(|k| k.starts_with(prefix))
        .cloned()
        .collect()
}

/// The plane's instrument set is a contract: dashboards and baseline
/// comparisons key on these names, so additions and removals are deliberate.
#[test]
fn the_plane_exposes_a_pinned_fanout_and_exec_metric_set() {
    let snap = metered_snapshot();
    if snap.histograms.is_empty() {
        // Telemetry feature compiled out: the hub is a no-op and there is
        // nothing to pin.
        return;
    }
    let expected = |keys: &[&str]| keys.iter().map(|k| k.to_string()).collect::<BTreeSet<_>>();
    assert_eq!(
        keys_with_prefix(&snap, "fanout/"),
        expected(&[
            "fanout/chunks",
            "fanout/endpoints",
            "fanout/queue_depth",
            "fanout/wave_us",
            "fanout/waves",
        ])
    );
    assert!(
        keys_with_prefix(&snap, "exec/").is_empty(),
        "the plane has no executor to report on"
    );
    let wave = snap.histograms.get("fanout/wave_us").expect("wave histogram");
    assert!(wave.count > 0, "wave latencies recorded");
}
