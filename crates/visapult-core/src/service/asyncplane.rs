//! The receive loop: every backend link pulled on one thread, each chunk
//! assembled once, for the viewer and for every session.
//!
//! One thread — the caller's — runs the loop, for any number of links and
//! sessions.  It pulls the backend PE links in turn; each chunk goes through
//! its link's one [`FrameAssembler`], and the event feeds two subscribers:
//! the viewer's display, which reads payloads, and the link's wave of
//! verdicts, one (rank, frame)'s run, which the loop's fan folds into every
//! session that wants it when the wave flushes (`fanout::multicast_wave`).
//! The fan also drives the broker's churn from the frame counter.
//! `Viewer::run` runs the loop with no sessions, a pipeline stage with a
//! `[service]` table runs it on the viewer's thread with both, and
//! [`crate::pipeline::FanoutPlane::drive_with`] with no display.  A session is
//! a value the fan owns — no task, no queue, no thread — and a paced
//! session's queue drains on the loop's [`Clock`]: the room a chunk took
//! comes back once the modeled instant it drains at has passed.
//!
//! When every link is empty the loop parks on one doorbell, which every
//! link's data hook rings (a run landing on an empty stripe, or a link
//! closing).  A link ends when it closes.
//!
//! A panic while pulling a link ends that link only: its back end hears the
//! link close, the display reports the panic and the frames the link never
//! delivered, and the offered load the link had accounted stays.  A panic
//! while publishing a wave ends the publishing: the links are still pulled to
//! the end, so the display loses nothing, and every session reports each
//! frame it was offered and never sent as a `MissingFrame`.
//!
//! The deterministic half of [`super::ServiceStats`] is byte-identical to the
//! virtual-time replay because both advance the identical broker state
//! machine over the same frame counter.

use super::fanout::{fold_report, PeOutcome, PlaneTelemetry, Session, Verdict, Wave, WaveBuffer, WaveChunk, WaveMeter};
use super::{ServiceRunReport, SessionBroker, SessionEvent};
use crate::pipeline::Clock;
use crate::transport::{FrameAssembler, StripeReceiver};
use crate::viewer::{panic_detail, Display};
use crossbeam::channel::bounded;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Chunks the loop takes off one link before turning to the next: links
/// take turns even when one back end outruns the others.
const PULL_BUDGET: usize = 64;

/// Safety-net park interval: the doorbell rings on every arrival on an empty
/// stripe and on every close, so this bounds staleness only against a ring
/// being missed.
const PARK_SAFETY: Duration = Duration::from_millis(10);

/// A stage's sessions, handed to whoever runs the receive loop over the
/// stage's links: the fan, and the one-shot channel its report goes back on.
pub(crate) type SessionFeed = (Fan, mpsc::SyncSender<ServiceRunReport>);

/// One backend PE link as the loop pulls it: its assembler, and the wave of
/// verdicts it is buffering for the sessions.
struct Link {
    rx: StripeReceiver,
    assembler: FrameAssembler,
    wave: WaveBuffer,
}

impl Link {
    /// Pull the next chunk off link `pe` and assemble it, handing the event
    /// to the display and the verdict to the link's wave; false while the
    /// link is empty, and once it has closed.
    fn step(
        &mut self,
        pe: usize,
        mut fan: Option<&mut Fan>,
        display: Option<&mut Display<'_>>,
        clock: &dyn Clock,
    ) -> bool {
        let Some(chunk) = self.rx.try_recv_chunk() else {
            return false;
        };
        let (rank, frame, seq, total) = (chunk.rank, chunk.frame, chunk.seq, chunk.total);
        let (stripe, bytes) = (chunk.stripe, chunk.payload.len());
        if let Some(fan) = fan.as_deref_mut() {
            fan.offered[pe].record_offered(&chunk);
            if self.wave.must_flush_before(rank, frame) {
                fan.publish(self.wave.take(), clock);
            }
            if frame >= fan.broker.next_frame() {
                fan.observe_frame(frame, self.rx.queued_chunks());
            }
        }
        #[cfg(test)]
        tests::pull_panic_if_told(rank, frame);
        let event = self.assembler.accept(chunk);
        if let Some(fan) = fan {
            let verdict = Verdict::of(&event, &self.assembler, rank, frame);
            if self.wave.push(rank, frame, total, WaveChunk { seq, bytes, verdict }) {
                fan.publish(self.wave.take(), clock);
            }
        }
        if let Some(display) = display {
            display.assembled(pe, frame, stripe, &mut self.assembler, event);
        }
        true
    }
}

/// The loop's publishing half: the broker, the sessions it admitted, and
/// the load each link offered.
pub(crate) struct Fan {
    broker: SessionBroker,
    /// One per admitted session, in admission order.
    sessions: Vec<Session>,
    /// Position in `sessions` per schedule index (sessions are append-only):
    /// O(1) Left/Evicted closes instead of an O(live) scan.
    index_of: HashMap<usize, usize>,
    /// Offered load, one per link.
    offered: Vec<PeOutcome>,
    /// Delivery counters, folded beside the links' offered load (which
    /// never double-counts).
    outcome: PeOutcome,
    telemetry: PlaneTelemetry,
    meter: WaveMeter,
    /// False once a publish panicked: the fan publishes nothing more.
    live: bool,
}

impl Fan {
    /// A fan over `links` backend links.
    pub(crate) fn new(broker: SessionBroker, telemetry: &PlaneTelemetry, links: usize) -> Fan {
        Fan {
            broker,
            sessions: Vec::new(),
            index_of: HashMap::new(),
            offered: (0..links).map(|_| PeOutcome::default()).collect(),
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

    /// Fold one wave into the sessions at the clock's current instant.
    fn publish(&mut self, wave: Option<Wave>, clock: &dyn Clock) {
        let Some(wave) = wave.filter(|_| self.live) else {
            return;
        };
        let now = clock.monotonic_now();
        let published = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            tests::fan_panic_if_told(&self.sessions, self.outcome.published);
            self.meter.multicast(&wave, &mut self.sessions, now, &mut self.outcome);
        }));
        self.live = published.is_ok();
    }

    /// The run is over: finish the broker and fold the offered load and the
    /// deliveries into the report.
    pub(crate) fn report(mut self) -> ServiceRunReport {
        self.broker.finish();
        self.offered.push(self.outcome);
        fold_report(self.broker, &self.offered, self.sessions)
    }
}

/// Run the receive loop over `inputs` on the calling thread until every link
/// has closed and drained: each chunk assembled once, its event handed to
/// `display` and its verdict to `fan`'s sessions.
pub(crate) fn receive(
    clock: &dyn Clock,
    inputs: Vec<StripeReceiver>,
    mut fan: Option<&mut Fan>,
    mut display: Option<&mut Display<'_>>,
) {
    let (ring, doorbell) = bounded::<()>(1);
    let mut links: Vec<Option<Link>> = inputs
        .into_iter()
        .map(|rx| {
            let ring = ring.clone();
            rx.set_data_hook(Arc::new(move || {
                let _ = ring.try_send(());
            }));
            Some(Link {
                rx,
                assembler: FrameAssembler::new(),
                wave: WaveBuffer::default(),
            })
        })
        .collect();
    drop(ring);
    if let Some(fan) = fan.as_deref_mut() {
        // Frame 0 joins happen before any chunk moves.
        fan.observe_frame(0, 0);
    }
    #[cfg(test)]
    let mut assemblies = 0;
    while links.iter().any(Option::is_some) {
        let mut moved = false;
        for (pe, slot) in links.iter_mut().enumerate() {
            let Some(link) = slot else { continue };
            let pulled = catch_unwind(AssertUnwindSafe(|| {
                let mut step = || link.step(pe, fan.as_deref_mut(), display.as_deref_mut(), clock);
                (0..PULL_BUDGET).take_while(|_| step()).count()
            }));
            let panic = match pulled {
                Ok(pulled) => {
                    moved |= pulled > 0;
                    // The link ends once a pull finds it closed and drained.
                    if pulled == PULL_BUDGET || !link.rx.is_closed() {
                        continue;
                    }
                    None
                }
                // The link dies with the pull: its back end hears it close as
                // it drops.
                Err(panic) => Some(panic_detail("link thread", panic.as_ref())),
            };
            if let Some(fan) = fan.as_deref_mut() {
                fan.publish(link.wave.take(), clock);
            }
            if let Some(display) = display.as_deref_mut() {
                display.ended(pe, &link.assembler, panic);
            }
            #[cfg(test)]
            {
                assemblies += link.assembler.assemblies();
            }
            *slot = None;
        }
        if !moved && links.iter().any(Option::is_some) {
            // A ring, a hang-up or the safety interval: all three mean look
            // again.
            let _ = doorbell.recv_timeout(PARK_SAFETY);
        }
    }
    #[cfg(test)]
    tests::record_loop(assemblies, fan.as_deref());
}

#[cfg(test)]
mod tests {
    use super::super::fanout::tests::PANICS;
    use super::super::{QualityTier, ServiceConfig, SessionDelivery, SessionSpec};
    use super::*;
    use crate::pipeline::{VirtualClock, WallClock};
    use crate::protocol::FrameSegments;
    use crate::test_support::sample_frame;
    use crate::transport::{plan_chunks, striped_link, TransportConfig};
    use crate::viewer::tests::LAST_RUN_THREADS;
    use crate::viewer::{Viewer, ViewerConfig, ViewerError, ViewerReport};
    use netlogger::metrics::MetricsHub;
    use std::cell::{Cell, RefCell};
    use std::collections::{BTreeSet, HashSet};
    use std::thread::ThreadId;

    fn spec(name: &str, viewpoint: u32, tier: QualityTier) -> SessionSpec {
        SessionSpec::new(name, viewpoint, tier)
    }

    /// A fan serving a session of this name panics as it is about to
    /// publish its fifth wave.
    const FAN_PANICS: &str = "fan panics mid-run";

    pub(super) fn fan_panic_if_told(sessions: &[Session], published: usize) {
        if published == 4 && sessions.iter().any(|s| s.spec.name == FAN_PANICS) {
            panic!("the fan was told to");
        }
    }

    thread_local! {
        /// The (rank, frame) whose first chunk makes a loop on this thread
        /// panic while pulling it off its link.
        static PULL_PANICS_AT: Cell<Option<(u32, u32)>> = const { Cell::new(None) };
        /// What the last receive loop on this thread did.
        static LAST_LOOP: RefCell<Option<LoopCounts>> = const { RefCell::new(None) };
    }

    pub(super) fn pull_panic_if_told(rank: u32, frame: u32) {
        if PULL_PANICS_AT.get() == Some((rank, frame)) {
            panic!("the pull of rank {rank} was told to");
        }
    }

    /// What one receive loop did, counted.
    #[derive(Debug)]
    struct LoopCounts {
        /// Frames assembled from their slots, over every link.
        assemblies: usize,
        /// Waves the fan published, and session folds made of them.
        published: usize,
        folds: usize,
        /// The threads that folded waves into sessions.
        fold_threads: HashSet<ThreadId>,
    }

    pub(super) fn record_loop(assemblies: usize, fan: Option<&Fan>) {
        let counts = LoopCounts {
            assemblies,
            published: fan.map_or(0, |f| f.outcome.published),
            folds: fan.map_or(0, |f| f.outcome.folds),
            fold_threads: fan.map(|f| f.outcome.threads.clone()).unwrap_or_default(),
        };
        LAST_LOOP.with(|last| last.replace(Some(counts)));
    }

    fn last_loop() -> LoopCounts {
        LAST_LOOP
            .with(|last| last.take())
            .expect("a receive loop ran on this thread")
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

    /// Serve `broker`'s sessions from a viewer's receive loop over `links`,
    /// on the calling thread: the viewer's report, and the sessions'.
    fn serve_on(
        clock: &dyn Clock,
        broker: SessionBroker,
        links: Vec<StripeReceiver>,
        frames: u32,
        telemetry: &PlaneTelemetry,
    ) -> (ServiceRunReport, ViewerReport) {
        let (report, served) = mpsc::sync_channel(1);
        let feed = (Fan::new(broker, telemetry, links.len()), report);
        let viewer =
            Viewer::new(ViewerConfig::new((32, 32, 32), frames as usize)).serve(clock, links, None, Some(feed));
        (served.try_recv().expect("the loop reports on its sessions"), viewer)
    }

    /// Drive a viewer serving `schedule` end to end over a synthetic backend
    /// of `pes` links and `frames` frames.
    fn fan_out_on(
        clock: Arc<dyn Clock>,
        schedule: Vec<SessionSpec>,
        config: ServiceConfig,
        frames: u32,
        pes: usize,
    ) -> (ServiceRunReport, ViewerReport) {
        let transport = TransportConfig::default().with_stripes(2).with_chunk_bytes(256);
        let broker = SessionBroker::new(config, schedule);
        let (backend_txs, backend_rxs): (Vec<_>, Vec<_>) = (0..pes).map(|_| striped_link(&transport)).unzip();
        std::thread::scope(|scope| {
            let viewer = scope.spawn(move || {
                let telemetry = PlaneTelemetry::new(MetricsHub::disabled(), 0);
                serve_on(clock.as_ref(), broker, backend_rxs, frames, &telemetry)
            });
            for f in 0..frames {
                for (pe, tx) in backend_txs.iter().enumerate() {
                    tx.send_frame(&sample_frame(pe as u32, f, 16)).unwrap();
                }
            }
            drop(backend_txs);
            viewer.join().unwrap()
        })
    }

    fn fan_out(
        schedule: Vec<SessionSpec>,
        config: ServiceConfig,
        frames: u32,
        pes: usize,
    ) -> (ServiceRunReport, ViewerReport) {
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
        let (report, viewer) = fan_out(schedule, tiny_config(64), 3, 2);
        // The viewer got every frame untouched.
        assert_eq!(viewer.frames_received, 6);
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
        // sent and can never overflow.  The loop must skip frames for
        // `slow` (it keeps partial composites) while `healthy` and the
        // viewer receive everything.
        let mut slow = spec("slow", 0, QualityTier::Standard).paced_at_mbps(0.2);
        slow.stripes = 1;
        let schedule = vec![spec("healthy", 0, QualityTier::Standard), slow];
        let (report, viewer) = fan_out(schedule, tiny_config(16), 6, 1);
        assert_eq!(viewer.frames_received, 6);
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
        let (report, viewer) = fan_out(schedule.clone(), config.clone(), 3, 2);
        assert_eq!(viewer.frames_received, 6);
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

    /// `pes` links holding `frames` frames each, their senders hung up.
    fn prefilled(pes: usize, frames: u32) -> Vec<StripeReceiver> {
        let transport = TransportConfig {
            queue_depth: 1024,
            ..TransportConfig::default().with_stripes(2).with_chunk_bytes(256)
        };
        (0..pes as u32)
            .map(|pe| {
                let (tx, rx) = striped_link(&transport);
                for frame in 0..frames {
                    tx.send_frame(&sample_frame(pe, frame, 16)).unwrap();
                }
                rx
            })
            .collect()
    }

    #[test]
    fn a_frame_is_assembled_once_for_the_floor_and_folded_once_per_session_on_one_thread() {
        // N sessions × P PEs × F frames, nothing paced; the whole campaign
        // waits in the backend links before the loop starts.  The loop runs
        // on the caller's thread alone, for any N, with or without the
        // viewer's display; every chunk is assembled once, for the display
        // and every session alike; and every wave it publishes is one fold
        // per session.  The waves are counted, not assumed: a link hands its
        // stripes out in turns, so a (rank, frame) can arrive as more than
        // one run.
        let me = std::thread::current().id();
        let (p, f) = (2usize, 8u32);
        let pf = p * f as usize;
        for n in [16usize, 256] {
            for display in [false, true] {
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
                let broker = SessionBroker::new(config, schedule);
                let telemetry = PlaneTelemetry::new(MetricsHub::enabled(), 0);
                let report = if display {
                    let (report, viewer) = serve_on(&WallClock, broker, prefilled(p, f), f, &telemetry);
                    assert_eq!(viewer.frames_received, pf, "{:?}", viewer.errors);
                    assert!(viewer.errors.is_empty(), "{:?}", viewer.errors);
                    report
                } else {
                    let mut fan = Fan::new(broker, &telemetry, p);
                    receive(&WallClock, prefilled(p, f), Some(&mut fan), None);
                    fan.report()
                };
                let counts = last_loop();
                let npf = n * pf;
                assert_eq!(report.stats.frames_completed, npf as u64);
                assert_eq!(report.stats.frames_skipped, 0);
                assert_eq!(
                    counts.assemblies,
                    pf,
                    "N = {n}, display {display}: segment assemblies are one per (rank, frame) for the display and \
                     every session together — not {} (a second assembly for the viewer) nor one per session-frame \
                     ({npf})",
                    2 * pf
                );
                assert!(
                    counts.published >= pf,
                    "{} waves for {pf} (rank, frame)s",
                    counts.published
                );
                assert_eq!(counts.folds, n * counts.published, "one fold per session per wave");
                assert_eq!(
                    counts.fold_threads,
                    [me].into_iter().collect(),
                    "N = {n}, display {display}: sessions fold on the receive loop's thread, the caller's"
                );
                if telemetry.hub.is_enabled() {
                    let waves = telemetry.hub.counter("fanout/waves").get() as usize;
                    assert_eq!(waves, counts.published);
                }
            }
        }
        // The viewer alone, over any number of links: the display folds on
        // the caller's thread, and the render thread is the one thread the
        // run starts.
        for p in [2usize, 8] {
            let viewer = Viewer::new(ViewerConfig::new((32, 32, 32), f as usize)).run(prefilled(p, f), None);
            assert_eq!(viewer.frames_received, p * f as usize, "{:?}", viewer.errors);
            assert_eq!(last_loop().assemblies, p * f as usize);
            let (folds, render) = LAST_RUN_THREADS
                .with(|threads| threads.take())
                .expect("the run records its threads");
            assert_eq!(
                folds,
                [me].into_iter().collect(),
                "P = {p}: one receive thread, the caller's"
            );
            assert_ne!(render, me);
            let started: HashSet<ThreadId> = folds.into_iter().chain([render]).filter(|&t| t != me).collect();
            assert_eq!(
                started.len(),
                1,
                "P = {p}: Viewer::run starts the render thread and nothing else"
            );
        }
    }

    #[test]
    fn a_dead_fan_leaves_every_frame_accounted_in_every_session() {
        // The fan dies — as it is about to publish its fifth wave, or inside
        // one session's fold of its first.  The links are still pulled to
        // the end, so the viewer loses nothing, and each session must
        // account for each (rank, frame) as completed or typed missing,
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
            let (done, finished) = mpsc::channel();
            std::thread::spawn(move || {
                let _ = done.send(fan_out(schedule, config, f, p));
            });
            let (report, viewer) = finished
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{name}: the loop finishes within 60 s of its fan panicking"));
            assert_eq!(viewer.frames_received, p * f as usize, "the viewer loses nothing");
            assert_eq!(report.sessions.len(), 64);
            for s in &report.sessions {
                let missing = assert_every_frame_accounted(s, p * f as usize);
                assert!(missing > 0, "session {}: the fan died before the end", s.name);
            }
        }
    }

    #[test]
    fn a_panic_while_pulling_a_link_ends_that_link_only() {
        // Rank 1's pull panics on the first chunk of its frame 3.  The loop
        // must finish; the viewer must report the panic once and what rank 1
        // never delivered as typed errors while rank 0 arrives whole; and
        // every session must account for each (rank, frame) the loop was
        // offered: all of rank 0's, and rank 1's frames 0 to 3.
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
        let (backend_txs, backend_rxs): (Vec<_>, Vec<_>) = (0..p).map(|_| striped_link(&transport)).unzip();
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let viewer = std::thread::spawn(move || {
                PULL_PANICS_AT.set(Some((1, 3)));
                let telemetry = PlaneTelemetry::new(MetricsHub::disabled(), 0);
                serve_on(&WallClock, broker, backend_rxs, f, &telemetry)
            });
            for frame in 0..f {
                for (pe, tx) in backend_txs.iter().enumerate() {
                    // Rank 1's link closes under its sender once its pull
                    // dies.
                    let _ = tx.send_frame(&sample_frame(pe as u32, frame, 16));
                }
            }
            drop(backend_txs);
            let _ = done.send(viewer.join().unwrap());
        });
        let (report, viewer) = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("the viewer and its sessions finish within 60 s of a pull panicking");
        let mut panics = 0;
        let mut missed = BTreeSet::new();
        for e in &viewer.errors {
            match e {
                ViewerError::Corrupt { rank: 1, detail } if detail.starts_with("link thread panicked: ") => panics += 1,
                ViewerError::MissingFrame { rank: 1, frame, .. } if *frame >= 2 => assert!(missed.insert((1, *frame))),
                other => panic!("the viewer saw {other:?}"),
            }
        }
        assert_eq!(panics, 1, "the panic is reported once: {:?}", viewer.errors);
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
        // time to drain; on the virtual clock the loop must finish at once
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
