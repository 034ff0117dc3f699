//! The fan-out plane: every session for the price of memory, not threads.
//!
//! One thread — the caller's — runs the plane, for one session or a hundred
//! thousand.  It pulls the backend PE links in turn (`Pump`): every chunk
//! is accounted as offered load, forwarded to the primary viewer (a full
//! primary queue blocks the plane: that is the backpressure) and buffered,
//! per link, into a wave of one (rank, frame).  The `Fan` drives the
//! broker's churn from the frame counter, assembles each wave once and folds
//! it into every session that wants it (`fanout::multicast_wave`).
//! A session is a value the plane owns — no task, no queue, no thread — and
//! a paced session's queue drains on the plane's [`Clock`]: the room a chunk
//! took comes back once the modeled instant it drains at has passed.
//!
//! When every link is empty the plane parks on one doorbell, which every
//! link's data hook rings (a run landing on an empty stripe, or a link
//! closing).
//!
//! A panic while pulling a link ends that link only: its primary viewer sees
//! the link close and reports the frames it missed, and the offered load the
//! link had accounted stays.  A panic while publishing a wave ends the
//! publishing: the links are still pulled to the end, so the primary viewers
//! lose nothing, and every session reports each frame it was offered and
//! never sent as a `MissingFrame`.
//!
//! The deterministic half of [`super::ServiceStats`] is byte-identical to the
//! virtual-time replay because both advance the identical broker state
//! machine over the same frame counter.

use super::fanout::{fold_report, PeOutcome, PlaneTelemetry, Session, WaveBuffer, WaveMeter};
use super::{ServiceRunReport, SessionBroker, SessionEvent};
use crate::pipeline::Clock;
use crate::transport::{FrameAssembler, FrameChunk, StripeReceiver, StripeSender};
use crossbeam::channel::bounded;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Chunks the plane takes off one link before turning to the next: links
/// take turns even when one back end outruns the others.
const PULL_BUDGET: usize = 64;

/// Safety-net park interval: the doorbell rings on every arrival on an empty
/// stripe and on every close, so this bounds staleness only against a ring
/// being missed.
const PARK_SAFETY: Duration = Duration::from_millis(10);

/// One backend PE link as the plane pulls it, with the primary viewer link
/// it forwards to (if any) and the wave it is buffering.
struct Pump {
    rx: StripeReceiver,
    primary: Option<StripeSender>,
    wave: WaveBuffer,
}

impl Pump {
    /// The next chunk off the link, accounted in `offered` and forwarded to
    /// the primary viewer; `None` while the link is empty, and once it has
    /// closed.
    fn pull(&mut self, offered: &mut PeOutcome) -> Option<FrameChunk> {
        let chunk = self.rx.try_recv_chunk()?;
        offered.record_offered(&chunk);
        #[cfg(test)]
        tests::pump_panic_if_told(&chunk);
        if let Some(tx) = &self.primary {
            // A viewer that hung up got everything it expected: keep serving
            // the sessions.
            if tx.send_raw_chunk(chunk.clone()).is_err() {
                self.primary = None;
            }
            #[cfg(test)]
            {
                offered.sends += 1;
            }
        }
        Some(chunk)
    }
}

/// The plane's publishing half: the broker, the sessions it admitted, and
/// the one assembler every wave goes through.  Its outcome carries delivery
/// counters only (offered load is accounted by the pumps), so folding it
/// beside theirs never double-counts.
struct Fan {
    broker: SessionBroker,
    /// One per admitted session, in admission order.
    sessions: Vec<Session>,
    /// Position in `sessions` per schedule index (sessions are append-only):
    /// O(1) Left/Evicted closes instead of an O(live) scan.
    index_of: HashMap<usize, usize>,
    plane: FrameAssembler,
    clock: Arc<dyn Clock>,
    outcome: PeOutcome,
    telemetry: PlaneTelemetry,
    meter: WaveMeter,
    /// False once a publish panicked: the plane publishes nothing more.
    live: bool,
}

impl Fan {
    fn new(broker: SessionBroker, clock: Arc<dyn Clock>, telemetry: &PlaneTelemetry) -> Fan {
        Fan {
            broker,
            sessions: Vec::new(),
            index_of: HashMap::new(),
            plane: FrameAssembler::new(),
            clock,
            outcome: PeOutcome::default(),
            telemetry: telemetry.clone(),
            meter: telemetry.meter(),
            live: true,
        }
    }

    /// Advance the broker to `frame`, which it has not passed yet:
    /// admissions become sessions, and leaves and evictions close their
    /// windows.  Sessions join only at frame boundaries and a wave is folded
    /// only into sessions whose window holds its frame, so a wave of an
    /// earlier frame published after this is served exactly as before it.
    fn observe_frame(&mut self, frame: u32, inlet_depth: usize) {
        let before = self.broker.events().len();
        self.broker.advance_to(frame);
        let queue_depth = self.broker.config().queue_depth;
        for &(at, event) in &self.broker.events()[before..] {
            match event {
                SessionEvent::Admitted { session } => {
                    let spec = self.broker.spec(session).clone();
                    self.index_of.insert(session, self.sessions.len());
                    self.sessions.push(Session::new(session, spec, queue_depth));
                }
                SessionEvent::Left { session } | SessionEvent::Evicted { session } => {
                    if let Some(&i) = self.index_of.get(&session) {
                        self.sessions[i].close_at(at);
                    }
                }
                SessionEvent::Rejected { .. } => {}
            }
        }
        self.meter.observe_depths(self.sessions.len(), inlet_depth);
        self.telemetry.observe_frame(frame);
    }

    /// Take `chunk`, pulled off `link`, into the link's wave, publishing the
    /// wave it closes and the wave it completes.
    fn absorb(&mut self, wave: &mut WaveBuffer, chunk: FrameChunk, link: &StripeReceiver) {
        if wave.must_flush_before(&chunk) {
            self.publish(wave.take());
        }
        if chunk.frame >= self.broker.next_frame() {
            self.observe_frame(chunk.frame, link.queued_chunks());
        }
        if wave.push(chunk) {
            self.publish(wave.take());
        }
    }

    /// Fold one wave into the sessions at the clock's current instant.
    fn publish(&mut self, chunks: Vec<FrameChunk>) {
        if !self.live || chunks.is_empty() {
            return;
        }
        let now = self.clock.monotonic_now();
        let published = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            tests::fan_panic_if_told(&self.sessions, self.outcome.published);
            self.meter
                .multicast(&mut self.plane, chunks, &mut self.sessions, now, &mut self.outcome);
        }));
        self.live = published.is_ok();
    }
}

/// The fan-out plane, on an explicit clock: the one driver behind
/// [`crate::pipeline::FanoutPlane`].  Runs on the calling thread and returns
/// once every backend link has closed and drained.
pub(crate) fn drive_fanout_on(
    clock: Arc<dyn Clock>,
    broker: SessionBroker,
    inputs: Vec<StripeReceiver>,
    primary: Vec<StripeSender>,
    telemetry: &PlaneTelemetry,
) -> ServiceRunReport {
    run_plane(clock, broker, inputs, primary, telemetry).0
}

/// [`drive_fanout_on`], also handing back the outcomes it folded: one per
/// link (offered load), then the fan's (delivery).  Primary links pair with
/// inputs in order; an input without one forwards to no viewer.
fn run_plane(
    clock: Arc<dyn Clock>,
    broker: SessionBroker,
    inputs: Vec<StripeReceiver>,
    primary: Vec<StripeSender>,
    telemetry: &PlaneTelemetry,
) -> (ServiceRunReport, Vec<PeOutcome>) {
    let (ring, doorbell) = bounded::<()>(1);
    let mut pumps: Vec<Option<Pump>> = inputs
        .into_iter()
        .zip(primary.into_iter().map(Some).chain(std::iter::repeat_with(|| None)))
        .map(|(rx, primary)| {
            let ring = ring.clone();
            rx.set_data_hook(Arc::new(move || {
                let _ = ring.try_send(());
            }));
            Some(Pump {
                rx,
                primary,
                wave: WaveBuffer::new(),
            })
        })
        .collect();
    drop(ring);
    let mut outcomes: Vec<PeOutcome> = pumps.iter().map(|_| PeOutcome::default()).collect();
    let mut fan = Fan::new(broker, clock, telemetry);
    // Frame 0 joins happen before any chunk moves.
    fan.observe_frame(0, 0);
    while pumps.iter().any(Option::is_some) {
        let mut moved = false;
        for (slot, offered) in pumps.iter_mut().zip(&mut outcomes) {
            let Some(pump) = slot else { continue };
            let mut done = false;
            for _ in 0..PULL_BUDGET {
                match catch_unwind(AssertUnwindSafe(|| pump.pull(offered))) {
                    Ok(Some(chunk)) => {
                        moved = true;
                        fan.absorb(&mut pump.wave, chunk, &pump.rx);
                    }
                    Ok(None) => {
                        done = pump.rx.is_closed();
                        break;
                    }
                    // The pump died with the link: its primary viewer and its
                    // back end hear the link close as the pump drops.
                    Err(_) => {
                        done = true;
                        break;
                    }
                }
            }
            if done {
                fan.publish(pump.wave.take());
                *slot = None;
            }
        }
        if !moved && pumps.iter().any(Option::is_some) {
            // A ring, a hang-up or the safety interval: all three mean look
            // again.
            let _ = doorbell.recv_timeout(PARK_SAFETY);
        }
    }
    fan.broker.finish();
    #[cfg(test)]
    {
        fan.outcome.assemblies = fan.plane.assemblies();
    }
    outcomes.push(fan.outcome);
    (fold_report(fan.broker, &outcomes, fan.sessions), outcomes)
}

#[cfg(test)]
mod tests {
    use super::super::fanout::tests::PANICS;
    use super::super::{QualityTier, ServiceConfig, SessionDelivery, SessionSpec};
    use super::*;
    use crate::pipeline::{VirtualClock, WallClock};
    use crate::protocol::{FramePayload, FrameSegments};
    use crate::test_support::sample_frame;
    use crate::transport::{drain_frames, plan_chunks, striped_link, TransportConfig};
    use crate::viewer::{Viewer, ViewerConfig, ViewerError};
    use netlogger::metrics::MetricsHub;
    use std::cell::Cell;
    use std::collections::BTreeSet;

    fn spec(name: &str, viewpoint: u32, tier: QualityTier) -> SessionSpec {
        SessionSpec::new(name, viewpoint, tier)
    }

    /// A plane serving a session of this name panics as it is about to
    /// publish its fifth wave.
    const FAN_PANICS: &str = "fan panics mid-run";

    pub(super) fn fan_panic_if_told(sessions: &[Session], published: usize) {
        if published == 4 && sessions.iter().any(|s| s.spec.name == FAN_PANICS) {
            panic!("the fan was told to");
        }
    }

    thread_local! {
        /// The (rank, frame) whose first chunk makes a plane on this thread
        /// panic while pulling it off its link.
        static PUMP_PANICS_AT: Cell<Option<(u32, u32)>> = const { Cell::new(None) };
    }

    pub(super) fn pump_panic_if_told(chunk: &FrameChunk) {
        if PUMP_PANICS_AT.get() == Some((chunk.rank, chunk.frame)) {
            panic!("the pump of rank {} was told to", chunk.rank);
        }
    }

    fn tiny_config(queue_depth: usize) -> ServiceConfig {
        ServiceConfig {
            max_sessions: 4,
            link_capacity_units: 8,
            render_slots: 2,
            queue_depth,
            ..ServiceConfig::default()
        }
    }

    /// Drive the plane end to end over a synthetic backend of `pes` links
    /// and `frames` frames, draining the primary viewer links alongside.
    fn fan_out_on(
        clock: Arc<dyn Clock>,
        schedule: Vec<SessionSpec>,
        config: ServiceConfig,
        frames: u32,
        pes: usize,
    ) -> (ServiceRunReport, Vec<FramePayload>) {
        let transport = TransportConfig::default().with_stripes(2).with_chunk_bytes(256);
        let broker = SessionBroker::new(config, schedule);
        let mut backend_txs = Vec::new();
        let mut backend_rxs = Vec::new();
        let mut primary_txs = Vec::new();
        let mut primary_rxs = Vec::new();
        for _ in 0..pes {
            let (tx, rx) = striped_link(&transport);
            backend_txs.push(tx);
            backend_rxs.push(rx);
            let (tx, rx) = striped_link(&transport);
            primary_txs.push(tx);
            primary_rxs.push(rx);
        }
        std::thread::scope(|scope| {
            let plane = scope.spawn(move || {
                let telemetry = PlaneTelemetry::new(MetricsHub::disabled(), 0);
                drive_fanout_on(clock, broker, backend_rxs, primary_txs, &telemetry)
            });
            let drains: Vec<_> = primary_rxs
                .into_iter()
                .map(|mut rx| scope.spawn(move || drain_frames(&mut rx).unwrap()))
                .collect();
            for f in 0..frames {
                for (pe, tx) in backend_txs.iter().enumerate() {
                    tx.send_frame(&sample_frame(pe as u32, f, 16)).unwrap();
                }
            }
            drop(backend_txs);
            let report = plane.join().unwrap();
            let mut primary_frames = Vec::new();
            for d in drains {
                primary_frames.extend(d.join().unwrap());
            }
            (report, primary_frames)
        })
    }

    fn fan_out(
        schedule: Vec<SessionSpec>,
        config: ServiceConfig,
        frames: u32,
        pes: usize,
    ) -> (ServiceRunReport, Vec<FramePayload>) {
        fan_out_on(Arc::new(WallClock), schedule, config, frames, pes)
    }

    /// Every (rank, frame) a session was owed shows up exactly once: as a
    /// completed frame or a typed `MissingFrame`, and nothing else.  Returns
    /// how many were missing.
    fn assert_every_frame_accounted(s: &SessionDelivery, owed: usize) -> usize {
        let mut missing = BTreeSet::new();
        for e in &s.errors {
            match e {
                ViewerError::MissingFrame { rank, frame, .. } => assert!(missing.insert((*rank, *frame))),
                other => panic!("session {}: {other:?}", s.name),
            }
        }
        assert_eq!(
            s.frames_completed + missing.len() as u64,
            owed as u64,
            "session {} accounts for every (rank, frame): {:?}",
            s.name,
            s.errors
        );
        missing.len()
    }

    #[test]
    fn plane_multicasts_every_frame_to_every_session_and_the_primary() {
        let schedule = vec![
            spec("a", 0, QualityTier::Standard),
            spec("b", 0, QualityTier::Standard),
            spec("c", 1, QualityTier::Standard),
        ];
        let (report, primary_frames) = fan_out(schedule, tiny_config(64), 3, 2);
        // The primary viewer path got every frame untouched.
        assert_eq!(primary_frames.len(), 6);
        // Every session assembled every (rank, frame): 3 sessions x 2 PEs x 3.
        assert_eq!(report.sessions.len(), 3);
        for s in &report.sessions {
            assert_eq!(s.frames_completed, 6, "session {}: {:?}", s.name, s.errors);
            assert_eq!(s.frames_skipped, 0);
            assert!(s.errors.is_empty(), "{:?}", s.errors);
        }
        assert_eq!(report.stats.frames_completed, 18);
        // Offered fan-out load: every chunk x 3 live sessions, delivered in
        // full on these deep queues.
        assert_eq!(report.stats.fanout_chunks, report.stats.chunks_delivered);
        assert_eq!(report.stats.chunks_dropped, 0);
        // Shared renders: 3 frames x 3 sessions requested, 2 viewpoints each
        // frame actually rendered.
        assert_eq!(report.stats.render_requests, 9);
        assert_eq!(report.stats.renders_performed, 6);
    }

    #[test]
    fn slow_session_is_degraded_without_stalling_the_healthy_one() {
        // `slow` drains a single-stripe 16-chunk queue through a
        // dial-up-grade pacer; `healthy` is unpaced, so it drains as it is
        // sent and can never overflow.  The plane must skip frames for
        // `slow` (it keeps partial composites) while `healthy` and the
        // primary receive everything.
        let mut slow = spec("slow", 0, QualityTier::Standard).paced_at_mbps(0.2);
        slow.stripes = 1;
        let schedule = vec![spec("healthy", 0, QualityTier::Standard), slow];
        let (report, primary_frames) = fan_out(schedule, tiny_config(16), 6, 1);
        assert_eq!(primary_frames.len(), 6);
        let healthy = report.sessions.iter().find(|s| s.name == "healthy").unwrap();
        let slow = report.sessions.iter().find(|s| s.name == "slow").unwrap();
        assert_eq!(healthy.frames_completed, 6);
        assert!(healthy.errors.is_empty(), "{:?}", healthy.errors);
        assert!(
            slow.frames_skipped > 0,
            "the 16-chunk queue behind a 0.2 Mbps pacer must overflow: {slow:?}"
        );
        // Degraded frames surface as typed MissingFrame partials, not
        // silence.
        assert!(slow
            .errors
            .iter()
            .all(|e| matches!(e, ViewerError::MissingFrame { .. })));
        assert_eq!(
            report.stats.frames_skipped, slow.frames_skipped,
            "only the slow session was degraded"
        );
        assert!(report.stats.chunks_dropped > 0);
    }

    #[test]
    fn sessions_joining_and_leaving_mid_run_receive_only_their_window() {
        let schedule = vec![
            spec("whole", 0, QualityTier::Standard),
            spec("window", 0, QualityTier::Standard).with_window(1, Some(3)),
        ];
        let (report, _) = fan_out(schedule, tiny_config(64), 4, 1);
        let whole = report.sessions.iter().find(|s| s.name == "whole").unwrap();
        let window = report.sessions.iter().find(|s| s.name == "window").unwrap();
        assert_eq!(whole.frames_completed, 4);
        // Frames 1 and 2 only.
        assert_eq!(window.frames_completed, 2, "{window:?}");
        // Offered load reflects the window: frames 0 and 3 fan out to one
        // session, frames 1 and 2 to two.
        let plan = plan_chunks(FrameSegments::encode(&sample_frame(0, 0, 16)).lens(), 256, 2).len() as u64;
        assert_eq!(report.stats.fanout_chunks, plan * (1 + 2 + 2 + 1));
    }

    #[test]
    fn plane_matches_a_pure_broker_replay() {
        // Capacity holds the whole schedule, so all six sessions assemble
        // every (rank, frame); the lifecycle events and the deterministic
        // counters replay bit-identically against a pure broker run.
        let schedule: Vec<SessionSpec> = (0..6u32)
            .map(|vp| spec(&format!("s{vp}"), vp, QualityTier::Standard).with_window(vp % 2, None))
            .collect();
        let config = ServiceConfig {
            max_sessions: 8,
            link_capacity_units: 32,
            render_slots: 8,
            queue_depth: 64,
            ..ServiceConfig::default()
        };
        let (report, primary_frames) = fan_out(schedule.clone(), config.clone(), 3, 2);
        assert_eq!(primary_frames.len(), 6);
        assert_eq!(report.sessions.len(), 6);
        for (i, s) in report.sessions.iter().enumerate() {
            let frames = if i % 2 == 0 { 6 } else { 4 };
            assert_eq!(s.frames_completed, frames, "session {}: {:?}", s.name, s.errors);
            assert!(s.errors.is_empty(), "{:?}", s.errors);
        }
        // Deliveries come back in schedule order.
        let names: Vec<&str> = report.sessions.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["s0", "s1", "s2", "s3", "s4", "s5"]);
        let mut replay = SessionBroker::new(config, schedule);
        replay.advance_to(2);
        replay.finish();
        assert_eq!(report.events, replay.events());
        let deterministic = |s: &super::super::ServiceStats| {
            (
                s.sessions_offered,
                s.sessions_admitted,
                s.sessions_rejected,
                s.sessions_evicted,
                s.peak_live_sessions,
                s.render_requests,
                s.renders_performed,
                s.flow_limited_sessions,
            )
        };
        assert_eq!(deterministic(&report.stats), deterministic(replay.stats()));
    }

    #[test]
    fn multicast_is_zero_copy() {
        let schedule = vec![
            spec("a", 0, QualityTier::Standard),
            spec("b", 0, QualityTier::Standard),
            spec("c", 1, QualityTier::Standard),
        ];
        let _turn = crate::test_support::copy_counter_turn();
        let before = bytes::deep_copy_count();
        let (report, _) = fan_out(schedule, tiny_config(64), 2, 1);
        assert_eq!(
            bytes::deep_copy_count() - before,
            0,
            "fan-out must multicast by refcount, not memcpy"
        );
        assert_eq!(report.stats.frames_completed, 6);
    }

    #[test]
    fn a_frame_is_assembled_once_for_the_floor_and_folded_once_per_session_on_one_thread() {
        // N sessions × P PEs × F frames, nothing paced; the whole campaign
        // waits in the backend links before the plane starts.  The plane
        // runs on the caller's thread alone, for any N; every wave it
        // publishes is one fold per session; and it sends nothing to a
        // session.  The waves are counted, not assumed: a link hands its
        // stripes out in turns, so a (rank, frame) can arrive as more than
        // one run.
        for n in [16usize, 256] {
            let (p, f) = (2usize, 8u32);
            let transport = TransportConfig {
                queue_depth: 1024,
                ..TransportConfig::default().with_stripes(2).with_chunk_bytes(256)
            };
            let schedule: Vec<SessionSpec> = (0..n)
                .map(|i| spec(&format!("s{i}"), (i % 4) as u32, QualityTier::Standard))
                .collect();
            let config = ServiceConfig {
                max_sessions: n,
                link_capacity_units: 4 * n as u64,
                render_slots: 4,
                queue_depth: 4096,
                ..ServiceConfig::default()
            };
            let inputs = (0..p as u32)
                .map(|pe| {
                    let (tx, rx) = striped_link(&transport);
                    for frame in 0..f {
                        tx.send_frame(&sample_frame(pe, frame, 16)).unwrap();
                    }
                    rx
                })
                .collect();
            let telemetry = PlaneTelemetry::new(MetricsHub::enabled(), 0);
            let (report, outcomes) = run_plane(
                Arc::new(WallClock),
                SessionBroker::new(config, schedule),
                inputs,
                Vec::new(),
                &telemetry,
            );
            let fan = outcomes.last().expect("the fan's outcome comes last");
            let pf = p * f as usize;
            let npf = n * pf;
            assert_eq!(report.stats.frames_completed, npf as u64);
            assert_eq!(report.stats.frames_skipped, 0);
            assert_eq!(
                fan.assemblies, pf,
                "segment assemblies: one per (rank, frame) for any N, not one per session-frame ({npf})"
            );
            assert!(fan.published >= pf, "{} waves for {pf} (rank, frame)s", fan.published);
            assert_eq!(fan.folds, n * fan.published, "one fold per session per wave");
            assert_eq!(
                fan.threads,
                [std::thread::current().id()].into_iter().collect(),
                "N = {n}: the plane folds on the caller's thread and starts none"
            );
            let sends: usize = outcomes.iter().map(|o| o.sends).sum();
            assert_eq!(sends, 0, "no primary attached: the plane sends nothing, to any session");
            if telemetry.hub.is_enabled() {
                let waves = telemetry.hub.counter("fanout/waves").get() as usize;
                assert_eq!(waves, fan.published);
            }
        }
    }

    #[test]
    fn a_dead_fan_leaves_every_frame_accounted_in_every_session() {
        // The fan dies — as it is about to publish its fifth wave, or inside
        // one session's fold of its first.  The links are still pulled to
        // the end, so the primary viewers lose nothing, and each session
        // must account for each (rank, frame) as completed or typed missing,
        // including the frames the fan never published.
        let (p, f) = (2usize, 8u32);
        for (at, name) in [(9, FAN_PANICS), (17, PANICS)] {
            let mut schedule: Vec<SessionSpec> = (0..64u32)
                .map(|i| spec(&format!("s{i}"), i % 4, QualityTier::Standard))
                .collect();
            schedule[at].name = name.to_string();
            let config = ServiceConfig {
                max_sessions: 64,
                link_capacity_units: 256,
                render_slots: 4,
                queue_depth: 256,
                ..ServiceConfig::default()
            };
            let (done, finished) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let _ = done.send(fan_out(schedule, config, f, p));
            });
            let (report, primary_frames) = finished
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{name}: the plane finishes within 60 s of its fan panicking"));
            assert_eq!(primary_frames.len(), p * f as usize, "the primary viewers lose nothing");
            assert_eq!(report.sessions.len(), 64);
            for s in &report.sessions {
                let missing = assert_every_frame_accounted(s, p * f as usize);
                assert!(missing > 0, "session {}: the fan died before the end", s.name);
            }
        }
    }

    #[test]
    fn a_panic_while_pulling_a_link_ends_that_link_only() {
        // Rank 1's pump panics on the first chunk of its frame 3.  The plane
        // must finish; the primary viewer must see rank 1's link close and
        // report what it missed as typed errors while rank 0 arrives whole;
        // and every session must account for each (rank, frame) the plane
        // was offered: all of rank 0's, and rank 1's frames 0 to 3.
        let (p, f) = (2usize, 8u32);
        let transport = TransportConfig::default().with_stripes(2).with_chunk_bytes(256);
        let schedule: Vec<SessionSpec> = (0..16u32)
            .map(|i| spec(&format!("s{i}"), i % 4, QualityTier::Standard))
            .collect();
        let config = ServiceConfig {
            max_sessions: 16,
            link_capacity_units: 64,
            render_slots: 4,
            queue_depth: 256,
            ..ServiceConfig::default()
        };
        let broker = SessionBroker::new(config, schedule);
        let mut backend_txs = Vec::new();
        let mut backend_rxs = Vec::new();
        let mut primary_txs = Vec::new();
        let mut primary_rxs = Vec::new();
        for _ in 0..p {
            let (tx, rx) = striped_link(&transport);
            backend_txs.push(tx);
            backend_rxs.push(rx);
            let (tx, rx) = striped_link(&transport);
            primary_txs.push(tx);
            primary_rxs.push(rx);
        }
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let plane = std::thread::spawn(move || {
                PUMP_PANICS_AT.set(Some((1, 3)));
                let telemetry = PlaneTelemetry::new(MetricsHub::disabled(), 0);
                drive_fanout_on(Arc::new(WallClock), broker, backend_rxs, primary_txs, &telemetry)
            });
            let viewer = std::thread::spawn(move || {
                Viewer::new(ViewerConfig::new((32, 32, 32), f as usize)).run(primary_rxs, None)
            });
            for frame in 0..f {
                for (pe, tx) in backend_txs.iter().enumerate() {
                    // Rank 1's link closes under its sender once the pump dies.
                    let _ = tx.send_frame(&sample_frame(pe as u32, frame, 16));
                }
            }
            drop(backend_txs);
            let _ = done.send((plane.join().unwrap(), viewer.join().unwrap()));
        });
        let (report, viewer) = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("the plane and the viewer finish within 60 s of a pump panicking");
        let missed: BTreeSet<(u32, u32)> = viewer
            .errors
            .iter()
            .map(|e| match e {
                ViewerError::MissingFrame { rank: 1, frame, .. } if *frame >= 2 => (1, *frame),
                other => panic!("the primary viewer saw {other:?}"),
            })
            .collect();
        // Frame 2 may have been cut short too: a link hands its stripes out
        // in turns, so frame 3's first chunk can overtake frame 2's last.
        assert!(
            missed.is_superset(&(3..f).map(|frame| (1, frame)).collect()),
            "{missed:?}"
        );
        assert_eq!(viewer.frames_received + missed.len(), p * f as usize);
        assert_eq!(report.sessions.len(), 16);
        for s in &report.sessions {
            assert_every_frame_accounted(s, f as usize + 4);
            assert!(
                s.frames_completed >= f as u64,
                "session {}: rank 0 arrives whole",
                s.name
            );
        }
    }

    #[test]
    fn paced_sessions_on_a_virtual_clock_never_sleep() {
        // A 0.01 Mbps pacer over this campaign would take minutes of wall
        // time to drain; on the virtual clock the plane must finish at once
        // with the identical deterministic stats — pacing goes through the
        // Clock seam, and nothing sleeps.
        let mut crawl = spec("crawl", 0, QualityTier::Standard).paced_at_mbps(0.01);
        // Deep enough that nothing overflows: delivery is deterministic.
        crawl.queue_depth = Some(4096);
        let schedule = vec![spec("healthy", 0, QualityTier::Standard), crawl];
        let started = std::time::Instant::now();
        let (report, _) = fan_out_on(Arc::new(VirtualClock), schedule, tiny_config(4096), 4, 1);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "virtual-clock pacing must not sleep out the modeled delays"
        );
        for s in &report.sessions {
            assert_eq!(s.frames_completed, 4, "session {}: {:?}", s.name, s.errors);
            assert!(s.errors.is_empty(), "{:?}", s.errors);
        }
    }
}
