//! The [`ServicePlane`] capability: the multi-session fan-out seam.
//!
//! With a [`ServicePlan`] configured, the real plane ([`FanoutPlane`]) hands
//! the shared-render broker to whoever runs the receive loop over the
//! stage's links — the viewer, on the real farm — so each (rank, frame) is
//! assembled once, for the display and for every session.  The replay plane
//! ([`ReplayPlane`]) advances the *identical* deterministic
//! [`SessionBroker`] over the same frame counter without moving a byte, and
//! folds the offered fan-out load in from the modeled chunk plan — so the
//! lifecycle and shared-render telemetry is byte-identical across paths.

use super::{modeled_segment_lens, FabricLinks, FarmRun, StageContext, WallClock};
use crate::campaign::real::ServicePlan;
use crate::error::VisapultError;
use crate::service::asyncplane::{receive, Fan};
use crate::service::fanout::PlaneTelemetry;
use crate::service::{log_service_stats_sampled, ServiceRunReport, SessionBroker};
use crate::transport::{plan_chunks, StripeReceiver, StripeSender, TransportConfig};
use netlogger::{Collector, MetricsHub};
use std::sync::mpsc;

/// The fan-out capability: given the fabric's links, optionally attach the
/// stage's sessions to them, for whoever drains the links to serve.
pub trait ServicePlane {
    /// Splice the plane into the stage's links (a no-op when the context
    /// carries no service plan), returning the links the farm should use and
    /// a session to finish after the farm completes.
    fn splice(
        &self,
        ctx: &StageContext<'_>,
        links: FabricLinks,
    ) -> Result<(FabricLinks, Box<dyn PlaneSession>), VisapultError>;
}

/// One stage's live plane: joined (or replayed) after the farm completes,
/// emitting the `NL.service.*` telemetry through the shared emitter.
pub trait PlaneSession {
    /// Finish the plane and report what it did (`None` when no plan was
    /// configured).
    fn finish(
        self: Box<Self>,
        ctx: &StageContext<'_>,
        run: &FarmRun,
        collector: &Collector,
    ) -> Result<Option<ServiceRunReport>, VisapultError>;
}

/// The real shared-render fan-out plane: the receive loop that pulls every
/// backend link folds each wave into every session
/// ([`crate::service::asyncplane`]), so OS thread count is independent of
/// session count — and, in a pipeline stage, the loop is the viewer's own.
#[derive(Debug, Clone, Copy, Default)]
pub struct FanoutPlane;

impl FanoutPlane {
    /// Run the fan-out plane over a set of backend links directly — the
    /// supported entry point for harnesses that drive the plane without a
    /// full pipeline (benchmarks, plane-level tests).  Each (rank, frame) is
    /// assembled once and folded into every session `broker` admits, whose
    /// queues take their shape from the sessions' own specs.  The call runs
    /// the plane on the calling thread, with no display, until every link
    /// has closed and drained.  Wave latencies, queue-depth high-waters and
    /// fan-out counters land in `hub` — how the benchmarks extract per-stage
    /// percentiles; the disabled hub costs nothing.
    pub fn drive_with(broker: SessionBroker, inputs: Vec<StripeReceiver>, hub: &MetricsHub) -> ServiceRunReport {
        let mut fan = Fan::new(broker, &PlaneTelemetry::new(hub.clone(), 0), inputs.len());
        receive(&WallClock, inputs, Some(&mut fan), None);
        fan.report()
    }
}

impl ServicePlane for FanoutPlane {
    /// Hand the stage's sessions to whoever runs the receive loop over the
    /// links: the farm's viewer serves them from its own loop and sends the
    /// report back when its links close.
    fn splice(
        &self,
        ctx: &StageContext<'_>,
        mut links: FabricLinks,
    ) -> Result<(FabricLinks, Box<dyn PlaneSession>), VisapultError> {
        let Some(plan) = &ctx.service else {
            return Ok((links, Box::new(NoSession)));
        };
        let broker = SessionBroker::new(plan.config.clone(), plan.sessions.clone());
        // The stage's metrics hub rides into the loop: wave latencies and
        // queue high-waters land in the same hub the pipeline folds into the
        // campaign's TelemetryReport.
        let telemetry = PlaneTelemetry::new(ctx.metrics.clone(), ctx.telemetry.snapshot_frames);
        let (report, served) = mpsc::sync_channel(1);
        links.sessions = Some((Fan::new(broker, &telemetry, ctx.pipeline.pes), report));
        Ok((links, Box::new(FanoutSession { served })))
    }
}

/// A stage's sessions, served by the farm's receive loop: their report
/// arrives once the farm's links have closed.
struct FanoutSession {
    served: mpsc::Receiver<ServiceRunReport>,
}

impl PlaneSession for FanoutSession {
    fn finish(
        self: Box<Self>,
        ctx: &StageContext<'_>,
        _run: &FarmRun,
        collector: &Collector,
    ) -> Result<Option<ServiceRunReport>, VisapultError> {
        let report = self.served.try_recv().map_err(|_| {
            VisapultError::Io(std::io::Error::other(
                "the stage's sessions were never served: the render farm ran no receive loop over its links",
            ))
        })?;
        let logger = collector.logger("service", "session-broker");
        // Lifeline sampling thins only the per-session lifecycle events —
        // deterministically by session id, so both paths keep (or drop)
        // exactly the same lifelines; the aggregate SERVICE_STATS summary is
        // never sampled.
        log_service_stats_sampled(&logger, None, &report.stats, &report.events, ctx.telemetry.sample_every);
        Ok(Some(report))
    }
}

/// The deterministic broker replay: the identical broker state machine the
/// real plane drives, advanced over the same frame counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayPlane;

impl ServicePlane for ReplayPlane {
    fn splice(
        &self,
        _ctx: &StageContext<'_>,
        links: FabricLinks,
    ) -> Result<(FabricLinks, Box<dyn PlaneSession>), VisapultError> {
        Ok((links, Box::new(ReplaySession)))
    }
}

struct ReplaySession;

impl PlaneSession for ReplaySession {
    fn finish(
        self: Box<Self>,
        ctx: &StageContext<'_>,
        run: &FarmRun,
        collector: &Collector,
    ) -> Result<Option<ServiceRunReport>, VisapultError> {
        let Some(plan) = &ctx.service else {
            return Ok(None);
        };
        let timesteps = ctx.pipeline.timesteps;
        // Fold in the offered fan-out load from the modeled chunk plan — the
        // same plan the modeled fabric replays.
        let plans = plan_chunks(
            modeled_segment_lens(&ctx.pipeline),
            ctx.transport.chunk_bytes,
            ctx.transport.stripes,
        );
        let chunks = plans.len() as u64 * ctx.pipeline.pes as u64;
        let bytes = plans.iter().map(|p| p.len as u64).sum::<u64>() * ctx.pipeline.pes as u64;
        let per_frame = vec![(chunks, bytes); timesteps];
        // The identical broker the real plane drives, so fingerprinted
        // telemetry matches the real path.
        let mut broker = SessionBroker::new(plan.config.clone(), plan.sessions.clone());
        if timesteps > 0 {
            broker.advance_to(timesteps as u32 - 1);
        }
        broker.finish();
        broker.fold_fanout_load(&per_frame);
        let (stats, events) = (broker.stats().clone(), broker.events().to_vec());
        let logger = collector.logger("service", "session-broker");
        // The identical deterministic sampling as the real path: the same
        // session ids keep their lifelines, so NLV overlays line up.
        log_service_stats_sampled(
            &logger,
            Some(run.total_time),
            &stats,
            &events,
            ctx.telemetry.sample_every,
        );
        Ok(Some(ServiceRunReport {
            stats,
            sessions: Vec::new(),
            events,
        }))
    }
}

/// The no-service session: nothing to splice, nothing to report.
struct NoSession;

impl PlaneSession for NoSession {
    fn finish(
        self: Box<Self>,
        _ctx: &StageContext<'_>,
        _run: &FarmRun,
        _collector: &Collector,
    ) -> Result<Option<ServiceRunReport>, VisapultError> {
        Ok(None)
    }
}

// ---------------------------------------------------------------------------
// Ledger compile surface
// ---------------------------------------------------------------------------
// `FanoutPlane::drive` (with its `primary` and `transport` parameters),
// `PlaneKind`, `AsyncPlane`, `ServicePlan::plane_kind` and the always-`None`
// `ServicePlan::workers` exist only because the frozen benchmark
// (`crates/visapult-bench/src/bin/ledger/`, which a PR may not edit) still
// names them; nothing in this crate selects on them, and all of them go in
// the next `benchmark` PR.

impl FanoutPlane {
    /// [`FanoutPlane::drive_with`], unmetered.  There is no primary viewer
    /// to forward to: the senders in `primary` are dropped at once, which
    /// closes their links, and `transport` is not read.
    pub fn drive(
        broker: SessionBroker,
        inputs: Vec<StripeReceiver>,
        primary: Vec<StripeSender>,
        _transport: &TransportConfig,
    ) -> ServiceRunReport {
        drop(primary);
        Self::drive_with(broker, inputs, &MetricsHub::disabled())
    }
}

/// Which plane a [`ServicePlan`] selects — always [`PlaneKind::Async`]: there
/// is one fan-out plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneKind {
    /// The retired thread-per-session plane (never selected).
    Threaded,
    /// The plane behind [`FanoutPlane`].
    Async,
}

impl ServicePlan {
    /// The plane this plan selects: always [`PlaneKind::Async`].
    pub fn plane_kind(&self) -> PlaneKind {
        PlaneKind::Async
    }
}

/// [`FanoutPlane`] with a retired worker-pool size attached.
#[derive(Debug, Clone, Copy)]
pub struct AsyncPlane {
    /// Ignored: the plane has no worker pool.
    pub workers: Option<usize>,
}

impl AsyncPlane {
    /// Forwards to [`FanoutPlane::drive`].
    pub fn drive(
        &self,
        broker: SessionBroker,
        inputs: Vec<StripeReceiver>,
        primary: Vec<StripeSender>,
        transport: &TransportConfig,
    ) -> ServiceRunReport {
        FanoutPlane::drive(broker, inputs, primary, transport)
    }
}

#[cfg(test)]
mod tests {
    use super::super::join_thread;
    use super::*;
    use crate::viewer::ViewerReport;

    #[test]
    fn a_panicked_plane_thread_is_an_error_carrying_its_message() {
        // A stage joins its viewer, which runs the plane's sessions too; a
        // panic on any thread a stage joins names that thread.
        let plane = std::thread::spawn(|| -> ServiceRunReport { panic!("lane {} wedged", 3) });
        let viewer = std::thread::spawn(|| -> ViewerReport { panic!("scene {} lost", 7) });
        for (err, want) in [
            (
                join_thread("service plane", plane).unwrap_err(),
                "I/O error: service plane panicked: lane 3 wedged",
            ),
            (
                join_thread("viewer", viewer).unwrap_err(),
                "I/O error: viewer panicked: scene 7 lost",
            ),
        ] {
            assert!(matches!(err, VisapultError::Io(_)), "{err:?}");
            assert_eq!(err.to_string(), want);
        }
    }
}
