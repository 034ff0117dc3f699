//! Integration tests of the multi-session service layer: the session broker,
//! the shared-render fan-out plane, admission control under churn, and the
//! `exhibit_floor` acceptance sweep — including the property that a degraded
//! session can never corrupt a healthy session's composite.

use proptest::prelude::*;
use std::sync::Arc;
use visapult::core::transport::striped_link;
use visapult::core::{
    plan_chunks, run_scenario, ExecutionPath, FanoutPlane, FramePayload, FrameSegments, HeavyPayload, LightPayload,
    QualityTier, ScenarioSpec, ServiceConfig, ServiceRunReport, ServiceStats, SessionBroker, SessionSpec,
    TransportConfig, ViewerError,
};
use visapult::netlogger::MetricsHub;

/// The ten counters of [`ServiceStats`] that are pure functions of the
/// schedule, the capacity config and the chunk plan.
fn deterministic(s: &ServiceStats) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        s.sessions_offered,
        s.sessions_admitted,
        s.sessions_rejected,
        s.sessions_evicted,
        s.peak_live_sessions,
        s.render_requests,
        s.renders_performed,
        s.flow_limited_sessions,
        s.fanout_chunks,
        s.fanout_bytes,
    )
}

/// The arrival-mix strategy the broker properties share: per session a
/// (join, dwell, viewpoint, tier) draw, clamped into the campaign.
fn schedule_of(mix: &[(u32, u32, u32, usize)], frames: u32) -> Vec<SessionSpec> {
    let tiers = [QualityTier::Preview, QualityTier::Standard, QualityTier::Interactive];
    mix.iter()
        .enumerate()
        .map(|(i, &(join, dwell, viewpoint, tier))| {
            let mut spec = SessionSpec::new(format!("s{i}"), viewpoint, tiers[tier]);
            spec.join_frame = join.min(frames - 1);
            spec.leave_frame = Some((spec.join_frame + dwell).min(frames));
            spec
        })
        .collect()
}

fn payload(rank: u32, frame: u32, tex: usize) -> FramePayload {
    let texture: Vec<u8> = (0..tex * tex * 4).map(|i| (i % 249) as u8).collect();
    FramePayload {
        light: LightPayload {
            frame,
            rank,
            texture_width: tex as u32,
            texture_height: tex as u32,
            bytes_per_pixel: 4,
            quad_center: [1.0; 3],
            quad_u: [2.0, 0.0, 0.0],
            quad_v: [0.0, 2.0, 0.0],
            geometry_segments: 2,
        },
        heavy: HeavyPayload {
            frame,
            rank,
            texture_rgba8: texture.into(),
            geometry: Arc::new(vec![([0.0; 3], [1.0; 3]), ([2.0; 3], [3.0; 3])]),
        },
    }
}

/// Drive `frames` timesteps from `pes` PEs through the fan-out plane (on a
/// pool of `workers`), over the broker the caller built.
fn run_plane_over(
    broker: SessionBroker,
    workers: usize,
    transport: &TransportConfig,
    frames: u32,
    tex: usize,
    pes: usize,
) -> ServiceRunReport {
    let mut txs = Vec::with_capacity(pes);
    let mut rxs = Vec::with_capacity(pes);
    for _ in 0..pes {
        let (tx, rx) = striped_link(transport);
        txs.push(tx);
        rxs.push(rx);
    }
    let handle = {
        let transport = transport.clone();
        std::thread::spawn(move || {
            FanoutPlane::drive_with(
                broker,
                rxs,
                Vec::new(),
                &transport,
                Some(workers),
                &MetricsHub::disabled(),
            )
        })
    };
    let senders: Vec<_> = txs
        .into_iter()
        .enumerate()
        .map(|(pe, tx)| {
            std::thread::spawn(move || {
                for f in 0..frames {
                    tx.send_frame(&payload(pe as u32, f, tex)).unwrap();
                }
            })
        })
        .collect();
    for s in senders {
        s.join().unwrap();
    }
    handle.join().unwrap()
}

/// [`run_plane_over`] a plain [`SessionBroker`] on three workers.
fn run_plane(
    schedule: Vec<SessionSpec>,
    config: ServiceConfig,
    transport: &TransportConfig,
    frames: u32,
    tex: usize,
    pes: usize,
) -> ServiceRunReport {
    run_plane_over(SessionBroker::new(config, schedule), 3, transport, frames, tex, pes)
}

#[test]
fn exhibit_floor_serves_64_sessions_with_a_sixteenth_of_the_renders() {
    let spec = ScenarioSpec::bundled("exhibit_floor").unwrap();
    let real = run_scenario(&spec).unwrap();
    let sim = run_scenario(&spec.clone().with_path(ExecutionPath::VirtualTime)).unwrap();
    for (report, label) in [(&real, "real"), (&sim, "virtual-time")] {
        let totals = &report.service.as_ref().unwrap().totals;
        // 1 (solo) + 8 (briefing) + 64 (exhibit floor), everyone admitted.
        assert_eq!(totals.sessions_offered, 73, "{label}");
        assert_eq!(totals.sessions_admitted, 73, "{label}");
        assert_eq!(totals.sessions_rejected, 0, "{label}");
        assert_eq!(totals.peak_live_sessions, 64, "{label}");
        // The acceptance point: 64 sessions over 4 shared viewpoints means
        // the farm renders 1/16th of what a per-session farm would.
        let floor = report.stages.iter().find(|s| s.name == "exhibit-floor").unwrap();
        let svc = &floor.metrics.service;
        assert_eq!(svc.render_requests, 64 * 4, "{label}");
        assert_eq!(svc.renders_performed, 4 * 4, "{label}");
        assert!(svc.render_ratio() <= 1.0 / 16.0 + 1e-12, "{label}");
        assert!((svc.shared_render_hit_rate() - 0.9375).abs() < 1e-9, "{label}");
        // The briefing stage actually churned: staggered joins and two-frame
        // dwells mean far fewer session-frames than 8 sessions x 4 frames.
        let briefing = report.stages.iter().find(|s| s.name == "briefing").unwrap();
        assert!(
            briefing.metrics.service.render_requests < 8 * 4,
            "{label}: dwell expires ({} requests)",
            briefing.metrics.service.render_requests
        );
    }
    // The deterministic lifecycle half is identical across the paths.
    let (r, s) = (
        &real.service.as_ref().unwrap().totals,
        &sim.service.as_ref().unwrap().totals,
    );
    assert_eq!(
        (
            r.sessions_admitted,
            r.sessions_rejected,
            r.sessions_evicted,
            r.peak_live_sessions
        ),
        (
            s.sessions_admitted,
            s.sessions_rejected,
            s.sessions_evicted,
            s.peak_live_sessions
        )
    );
    assert_eq!(
        (r.render_requests, r.renders_performed),
        (s.render_requests, s.renders_performed)
    );
    // At this laptop scale nothing needed degrading on the real path: every
    // offered chunk was enqueued and every session frame assembled.
    assert_eq!(r.chunks_delivered, r.fanout_chunks);
    assert_eq!(r.chunks_dropped, 0);
    assert_eq!(r.frames_skipped, 0);
    // Replay determinism on the real path (the virtual-time path is covered
    // byte-for-byte by the scenario-engine suite).
    let again = run_scenario(&spec).unwrap();
    assert_eq!(real.replay_fingerprint(), again.replay_fingerprint());
}

#[test]
fn service_layer_leaves_the_primary_composite_untouched() {
    // The same scenario with and without the service layer (same seed, so
    // the same pixels) — fanning frames out to sessions, including a
    // flow-limited straggler behind an untuned single stripe, must not
    // change what the primary viewer composites.
    let doc = r#"
[scenario]
name = "composite-guard"
seed = 9
path = "real"

[testbed]
kind = "esnet-anl-smp"

[pipeline]
pes = 2
timesteps = 3
execution = "serial"

[transport]
stripes = 2
chunk_kb = 1

[service]
queue_depth = 4

[[service.arrivals]]
stage = "full"
sessions = 2
viewpoints = 2

[[service.arrivals]]
stage = "full"
sessions = 1
tier = "preview"
tuning = "untuned"
stripes = 1
"#;
    let with_service = ScenarioSpec::from_toml_str(doc).unwrap();
    let mut without_service = with_service.clone();
    without_service.service = None;
    let served = run_scenario(&with_service).unwrap();
    let solo = run_scenario(&without_service).unwrap();
    for (a, b) in served.stages.iter().zip(&solo.stages) {
        assert_eq!(a.metrics.frames_received, b.metrics.frames_received);
        assert_eq!(
            a.metrics.image_hash, b.metrics.image_hash,
            "fan-out changed the primary composite"
        );
    }
    let svc = &served.service.as_ref().unwrap().totals;
    assert_eq!(svc.sessions_admitted, 3);
    assert_eq!(
        svc.flow_limited_sessions, 1,
        "the untuned single stripe is flow-limited"
    );
}

#[test]
fn late_and_corrupt_chunks_surface_as_typed_errors_in_every_session() {
    use visapult::core::FrameChunk;
    let transport = TransportConfig::default().with_stripes(2).with_chunk_bytes(512);
    let (backend_tx, backend_rx) = striped_link(&transport);
    let schedule = vec![
        SessionSpec::new("s0", 0, QualityTier::Standard),
        SessionSpec::new("s1", 1, QualityTier::Standard),
    ];
    let broker = SessionBroker::new(ServiceConfig::default(), schedule);
    let handle = {
        let transport = transport.clone();
        std::thread::spawn(move || FanoutPlane::drive(broker, vec![backend_rx], Vec::new(), &transport))
    };
    backend_tx.send_frame(&payload(0, 0, 8)).unwrap();
    // A straggler for the already-complete frame 0: every session must
    // report LateStripe, none may treat it as data.
    backend_tx
        .send_raw_chunk(FrameChunk {
            frame: 0,
            rank: 0,
            seq: 0,
            total: 4,
            stripe: 1,
            stripe_seq: 99,
            segment: 0,
            payload: bytes::Bytes::from(vec![0u8; 16]),
        })
        .unwrap();
    // Two copies of chunk 0 of a never-completed frame 7: the duplicate
    // is corrupt, typed, and per-session.
    for _ in 0..2 {
        backend_tx
            .send_raw_chunk(FrameChunk {
                frame: 7,
                rank: 0,
                seq: 0,
                total: 9,
                stripe: 0,
                stripe_seq: 100,
                segment: 0,
                payload: bytes::Bytes::from(vec![1u8; 16]),
            })
            .unwrap();
    }
    drop(backend_tx);
    let report = handle.join().unwrap();
    assert_eq!(report.sessions.len(), 2);
    for s in &report.sessions {
        assert_eq!(s.frames_completed, 1, "{}", s.name);
        assert!(
            s.errors
                .iter()
                .any(|e| matches!(e, ViewerError::LateStripe { frame: 0, .. })),
            "{}: {:?}",
            s.name,
            s.errors
        );
        assert!(
            s.errors.iter().any(|e| matches!(e, ViewerError::Corrupt { .. })),
            "{}: {:?}",
            s.name,
            s.errors
        );
        assert!(
            s.errors
                .iter()
                .any(|e| matches!(e, ViewerError::MissingFrame { frame: 7, .. })),
            "{}: {:?}",
            s.name,
            s.errors
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the chunking, stripe width or frame count, a session degraded
    /// by a saturated queue behind a dial-up-grade pacer loses only its own
    /// frames: the healthy session assembles every frame with zero
    /// anomalies, nobody ever sees a Corrupt error, and the plane's chunk
    /// accounting stays exact (every owed chunk is either delivered or
    /// counted dropped).
    #[test]
    fn a_degraded_session_never_corrupts_a_healthy_session(
        chunk_bytes in 128usize..768,
        frames in 2u32..6,
        tex in 6usize..14,
    ) {
        let transport = TransportConfig::default().with_stripes(2).with_chunk_bytes(chunk_bytes);
        // Size the shared queue depth so the healthy session's 8-stripe
        // queue can hold the whole campaign (it can never overflow), while
        // the degraded session's single stripe holds only a fraction of it.
        let total_chunks = plan_chunks(
            FrameSegments::encode(&payload(0, 0, tex)).lens(),
            chunk_bytes,
            transport.stripes,
        )
        .len() as u32
            * frames;
        let mut healthy = SessionSpec::new("healthy", 0, QualityTier::Interactive);
        // Deep enough for the whole campaign on any one stripe: the healthy
        // session can never overflow, whatever the chunk distribution.
        healthy.queue_depth = Some(total_chunks as usize);
        let mut degraded = SessionSpec::new("degraded", 0, QualityTier::Preview).paced_at_mbps(0.2);
        degraded.stripes = 1;
        degraded.queue_depth = Some(3);
        let config = ServiceConfig::default();
        let report = run_plane(vec![healthy, degraded], config, &transport, frames, tex, 1);

        let healthy = report.sessions.iter().find(|s| s.name == "healthy").unwrap();
        let degraded = report.sessions.iter().find(|s| s.name == "degraded").unwrap();
        // The healthy session is untouched by its neighbour's collapse.
        prop_assert_eq!(healthy.frames_completed, u64::from(frames), "{:?}", healthy.errors);
        prop_assert_eq!(healthy.frames_skipped, 0);
        prop_assert!(healthy.errors.is_empty(), "healthy session saw {:?}", healthy.errors);
        // The degraded session lost frames — and only to typed,
        // partial-composite skips, never corruption.
        prop_assert!(degraded.frames_skipped > 0, "queue never overflowed: {degraded:?}");
        prop_assert!(
            degraded.errors.iter().all(|e| matches!(e, ViewerError::MissingFrame { .. })),
            "{:?}",
            degraded.errors
        );
        prop_assert!(degraded.frames_completed < u64::from(frames));
        // Exact accounting: owed = delivered + dropped.
        prop_assert_eq!(
            report.stats.fanout_chunks,
            report.stats.chunks_delivered + report.stats.chunks_dropped
        );
    }

    /// The plane adds scheduling, never decisions: whatever the arrival mix
    /// (random joins, dwells, tiers, viewpoints, over-subscription forcing
    /// rejections and evictions), a real fan-out run reports exactly the
    /// lifecycle events and the ten deterministic counters of a pure
    /// [`SessionBroker`] replay over the same frame counter and chunk plan —
    /// and keeps exact chunk accounting whatever the timing.
    #[test]
    fn the_plane_matches_a_pure_broker_replay_on_deterministic_stats(
        mix in proptest::collection::vec((0u32..5, 1u32..6, 0u32..4, 0usize..3), 1..12),
        frames in 4u32..7,
        pes in 1usize..3,
    ) {
        let schedule = schedule_of(&mix, frames);
        // Tight capacity so bigger mixes exercise rejection and eviction.
        let config = ServiceConfig {
            max_sessions: 6,
            link_capacity_units: 10,
            render_slots: 2,
            queue_depth: 64,
            ..ServiceConfig::default()
        };
        let transport = TransportConfig::default().with_stripes(2).with_chunk_bytes(512);
        let report = run_plane(schedule.clone(), config.clone(), &transport, frames, 8, pes);

        let mut replay = SessionBroker::new(config, schedule);
        replay.advance_to(frames - 1);
        replay.finish();
        let segments = FrameSegments::encode(&payload(0, 0, 8));
        let plan = plan_chunks(segments.lens(), transport.chunk_bytes, transport.stripes);
        let chunks = plan.len() as u64 * pes as u64;
        let bytes = plan.iter().map(|c| c.len as u64).sum::<u64>() * pes as u64;
        replay.fold_fanout_load(&vec![(chunks, bytes); frames as usize]);

        prop_assert_eq!(&report.events[..], replay.events(), "lifecycle event streams diverged");
        prop_assert_eq!(deterministic(&report.stats), deterministic(replay.stats()));
        prop_assert_eq!(
            report.stats.fanout_chunks,
            report.stats.chunks_delivered + report.stats.chunks_dropped,
            "accounting leaked"
        );
    }
}

/// The headline scale smoke: ten thousand sessions multiplexed over the
/// plane's bounded worker pool.  Ignored by default — run it in
/// release with `cargo test --release --test service -- --ignored`.
#[test]
#[ignore = "10k-session scale smoke; run in release with -- --ignored"]
fn ten_thousand_sessions_ride_the_plane_on_a_bounded_pool() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn live_threads() -> usize {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("Threads:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|n| n.parse().ok())
            })
            .unwrap_or(0)
    }

    const SESSIONS: usize = 10_000;
    const FRAMES: u32 = 2;
    let schedule: Vec<SessionSpec> = (0..SESSIONS)
        .map(|i| SessionSpec::new(format!("s{i}"), (i % 4) as u32, QualityTier::Preview))
        .collect();
    let config = ServiceConfig {
        max_sessions: SESSIONS,
        link_capacity_units: SESSIONS as u64,
        render_slots: 8,
        queue_depth: 16,
        ..ServiceConfig::default()
    };
    let transport = TransportConfig::default().with_stripes(2).with_chunk_bytes(4096);
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    let monitor = {
        let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(live_threads(), Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        })
    };
    let report = run_plane(schedule, config, &transport, FRAMES, 16, 1);
    stop.store(true, Ordering::Relaxed);
    monitor.join().unwrap();
    assert_eq!(report.stats.sessions_admitted, SESSIONS as u64);
    assert_eq!(report.stats.peak_live_sessions, SESSIONS as u64);
    assert_eq!(
        report.stats.fanout_chunks,
        report.stats.chunks_delivered + report.stats.chunks_dropped
    );
    let peak = peak.load(Ordering::Relaxed);
    // Thread-per-session would sit at ~10k threads; the pool keeps the whole
    // process within a few dozen (workers + PEs + harness).
    assert!(peak > 0, "thread monitor never sampled");
    assert!(peak < 64, "the plane leaked threads: peak {peak}");
}

/// The exhibit-floor ceiling: one hundred thousand sessions over 4
/// viewpoints, all behind the one broker.  At this scale the indexed
/// admission ledger is load-bearing — the old every-session-every-frame scan
/// would spend its whole budget in `advance_to`.  Ignored by default — run
/// it in release with `cargo test --release --test service -- --ignored`.
#[test]
#[ignore = "100k-session scale smoke; run in release with -- --ignored"]
fn one_hundred_thousand_sessions_ride_one_broker() {
    const SESSIONS: usize = 100_000;
    const VIEWPOINTS: usize = 4;
    const FRAMES: u32 = 2;
    let schedule: Vec<SessionSpec> = (0..SESSIONS)
        .map(|i| SessionSpec::new(format!("s{i}"), (i % VIEWPOINTS) as u32, QualityTier::Preview))
        .collect();
    let config = ServiceConfig {
        max_sessions: SESSIONS,
        link_capacity_units: SESSIONS as u64,
        render_slots: VIEWPOINTS as u32,
        queue_depth: 16,
        ..ServiceConfig::default()
    };
    let transport = TransportConfig::default().with_stripes(2).with_chunk_bytes(4096);
    let report = run_plane_over(SessionBroker::new(config, schedule), 4, &transport, FRAMES, 16, 1);
    assert_eq!(report.stats.sessions_admitted, SESSIONS as u64);
    assert_eq!(report.stats.peak_live_sessions, SESSIONS as u64);
    assert_eq!(
        report.stats.fanout_chunks,
        report.stats.chunks_delivered + report.stats.chunks_dropped
    );
}
