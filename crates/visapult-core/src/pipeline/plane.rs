//! The [`ServicePlane`] capability: the multi-session fan-out seam.
//!
//! With a [`ServicePlan`] configured, the real plane ([`FanoutPlane`])
//! splices the shared-render broker between the backend links and the
//! primary viewer: chunks forward to the primary under backpressure while
//! zero-copy clones multicast onto per-session bounded queues.  The replay
//! plane ([`ReplayPlane`]) advances the *identical* deterministic
//! [`SessionBroker`] over the same frame counter without moving a byte, and
//! folds the offered fan-out load in from the modeled chunk plan — so the
//! lifecycle and shared-render telemetry is byte-identical across paths.

use super::{join_thread, modeled_segment_lens, FabricLinks, FarmRun, StageContext, WallClock};
use crate::campaign::real::ServicePlan;
use crate::error::VisapultError;
use crate::service::asyncplane::drive_fanout_on;
use crate::service::fanout::PlaneTelemetry;
use crate::service::{log_service_stats_sampled, ServiceRunReport, SessionBroker};
use crate::transport::{plan_chunks, striped_link, StripeReceiver, StripeSender, TransportConfig};
use netlogger::{Collector, MetricsHub};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The fan-out capability: given the fabric's links, optionally splice a
/// session-serving plane between the farm and the viewer.
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

/// The real shared-render fan-out plane: session consumers, stripe pumps and
/// pacers run as polled tasks over a bounded worker pool
/// ([`crate::service::asyncplane`]), so OS thread count is the pool size —
/// independent of session count.
#[derive(Debug, Clone, Copy, Default)]
pub struct FanoutPlane;

impl FanoutPlane {
    /// Run the fan-out plane over a set of backend links directly — the
    /// supported entry point for harnesses that drive the plane without a
    /// full pipeline (benchmarks, plane-level tests).  Chunks forward to the
    /// primary viewer links (when given); each (rank, frame) is assembled
    /// once and published to every session `broker` admits, whose lanes take
    /// their shape from the sessions' own specs (`transport` describes the
    /// backend links).  The call blocks until the campaign drains; the work
    /// runs on the default worker pool, unmetered.
    pub fn drive(
        broker: SessionBroker,
        inputs: Vec<StripeReceiver>,
        primary: Vec<StripeSender>,
        transport: &TransportConfig,
    ) -> ServiceRunReport {
        Self::drive_with(broker, inputs, primary, transport, None, &MetricsHub::disabled())
    }

    /// [`FanoutPlane::drive`] with an explicit worker-pool size (`None` =
    /// sized to the machine, clamped 2..=8) and a [`MetricsHub`]: wave
    /// latencies, queue-depth high-waters, fan-out counters and the
    /// executor's introspection counters (`exec/*`) land in `hub` — how the
    /// benchmarks extract per-stage percentiles without a full pipeline.
    /// The disabled hub costs nothing.
    pub fn drive_with(
        broker: SessionBroker,
        inputs: Vec<StripeReceiver>,
        primary: Vec<StripeSender>,
        _transport: &TransportConfig,
        workers: Option<usize>,
        hub: &MetricsHub,
    ) -> ServiceRunReport {
        drive_fanout_on(
            Arc::new(WallClock),
            broker,
            inputs,
            primary,
            workers,
            &PlaneTelemetry::new(hub.clone(), 0),
        )
    }
}

impl ServicePlane for FanoutPlane {
    /// Wire the plane between the backend links and fresh primary viewer
    /// links, then run it on its own coordinator thread (the farm must not
    /// block on the plane).
    fn splice(
        &self,
        ctx: &StageContext<'_>,
        links: FabricLinks,
    ) -> Result<(FabricLinks, Box<dyn PlaneSession>), VisapultError> {
        let Some(plan) = &ctx.service else {
            return Ok((links, Box::new(NoSession)));
        };
        // The backend links feed the plane; the viewer moves onto fresh
        // primary links.  The primary links are an unpaced copy of the
        // transport config: the backend link already applied any WAN
        // pacing, shaping twice would halve the rate.
        let FabricLinks {
            senders,
            receivers: plane_inputs,
            stats,
        } = links;
        let primary_config = TransportConfig {
            pace_rate_mbps: None,
            ..ctx.transport.clone()
        };
        let mut primary_txs = Vec::with_capacity(ctx.pipeline.pes);
        let mut primary_rxs = Vec::with_capacity(ctx.pipeline.pes);
        for _ in 0..ctx.pipeline.pes {
            let (tx, rx) = striped_link(&primary_config);
            primary_txs.push(tx);
            primary_rxs.push(rx);
        }
        let workers = plan.workers;
        // The stage's metrics hub rides into the plane thread: wave
        // latencies, queue high-waters and executor introspection all land
        // in the same hub the pipeline folds into the campaign's
        // TelemetryReport.
        let plane_telemetry = PlaneTelemetry::new(ctx.metrics.clone(), ctx.telemetry.snapshot_frames);
        let broker = SessionBroker::new(plan.config.clone(), plan.sessions.clone());
        let handle = std::thread::Builder::new()
            .name("visapult-service-plane".to_string())
            .spawn(move || {
                drive_fanout_on(
                    Arc::new(WallClock),
                    broker,
                    plane_inputs,
                    primary_txs,
                    workers,
                    &plane_telemetry,
                )
            })?;
        Ok((
            FabricLinks {
                senders,
                receivers: primary_rxs,
                stats,
            },
            Box::new(FanoutSession { handle }),
        ))
    }
}

/// A live fan-out plane thread, joined once the farm completes.
struct FanoutSession {
    handle: JoinHandle<ServiceRunReport>,
}

impl PlaneSession for FanoutSession {
    fn finish(
        self: Box<Self>,
        ctx: &StageContext<'_>,
        _run: &FarmRun,
        collector: &Collector,
    ) -> Result<Option<ServiceRunReport>, VisapultError> {
        let report = join_thread("service plane", self.handle)?;
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
// `PlaneKind`, `AsyncPlane` and `ServicePlan::plane_kind` exist only because
// the frozen benchmark (`crates/visapult-bench/src/bin/ledger/`, which a PR
// may not edit) still names them; nothing in this crate selects on them, and
// all three go in the next `benchmark` PR.

/// Which plane a [`ServicePlan`] selects — always [`PlaneKind::Async`]: there
/// is one fan-out plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneKind {
    /// The retired thread-per-session plane (never selected).
    Threaded,
    /// The executor-backed plane behind [`FanoutPlane`].
    Async,
}

impl ServicePlan {
    /// The plane this plan selects: always [`PlaneKind::Async`].
    pub fn plane_kind(&self) -> PlaneKind {
        PlaneKind::Async
    }
}

/// [`FanoutPlane`] with a worker-pool size attached.
#[derive(Debug, Clone, Copy)]
pub struct AsyncPlane {
    /// Worker-pool threads (`None` = sized to the machine, clamped 2..=8).
    pub workers: Option<usize>,
}

impl AsyncPlane {
    /// Forwards to [`FanoutPlane::drive_with`], unmetered.
    pub fn drive(
        &self,
        broker: SessionBroker,
        inputs: Vec<StripeReceiver>,
        primary: Vec<StripeSender>,
        transport: &TransportConfig,
    ) -> ServiceRunReport {
        FanoutPlane::drive_with(
            broker,
            inputs,
            primary,
            transport,
            self.workers,
            &MetricsHub::disabled(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::viewer::ViewerReport;

    #[test]
    fn a_panicked_plane_thread_is_an_error_carrying_its_message() {
        // The fan-out plane and the viewer are the two threads a stage joins.
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
