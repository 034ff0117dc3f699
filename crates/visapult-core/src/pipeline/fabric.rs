//! The [`Fabric`] capability: the striped back-end → viewer links.
//!
//! The real fabric ([`StripedFabric`]) opens one bounded, chunked,
//! sequence-numbered [`crate::transport::striped_link`] per PE — actual
//! channels with actual backpressure, optionally paced to the modeled WAN.
//! The modeled fabric ([`ModeledFabric`]) opens nothing and instead replays
//! the identical [`plan_chunks`] plan over the modeled payload sizes, so
//! both report structurally identical [`TransportStats`] through the one
//! shared NetLogger emitter.

use super::{modeled_segment_lens, FarmRun, StageContext};
use crate::error::VisapultError;
use crate::service::asyncplane::SessionFeed;
use crate::transport::{plan_chunks, striped_link, StripeReceiver, StripeSender, TransportStats};
use netlogger::{tags, Collector, FieldValue, NetLogger};
use std::sync::{Arc, Mutex};

/// The per-PE links one stage runs over, as opened by a [`Fabric`].  The
/// modeled fabric opens none — its telemetry is a replay, not a channel.
#[derive(Default)]
pub struct FabricLinks {
    /// One striped sender per PE (what the back end ships frames into).
    pub senders: Vec<StripeSender>,
    /// One striped receiver per PE (what the viewer drains).
    pub receivers: Vec<StripeReceiver>,
    /// The senders' live counter handles, harvested by [`Fabric::collect`]
    /// after the stage completes.
    pub stats: Vec<Arc<Mutex<TransportStats>>>,
    /// The stage's sessions, attached by the service plane: whoever drains
    /// `receivers` serves them from the same receive loop.
    pub(crate) sessions: Option<SessionFeed>,
}

/// The striped-link capability: how frames physically (or notionally) cross
/// from the render farm to the viewer.
pub trait Fabric {
    /// Open the stage's links (one per PE).
    fn open(&self, ctx: &StageContext<'_>) -> Result<FabricLinks, VisapultError>;

    /// Collect the stage's transport telemetry after the farm has finished,
    /// emitting the `NL.transport.*` events through the shared emitter.
    fn collect(
        &self,
        ctx: &StageContext<'_>,
        run: &FarmRun,
        sender_stats: &[Arc<Mutex<TransportStats>>],
        collector: &Collector,
    ) -> TransportStats;
}

/// Real striped channels: bounded queues, chunked zero-copy framing,
/// optional token-bucket WAN pacing.
#[derive(Debug, Clone, Copy, Default)]
pub struct StripedFabric;

impl Fabric for StripedFabric {
    fn open(&self, ctx: &StageContext<'_>) -> Result<FabricLinks, VisapultError> {
        let pes = ctx.pipeline.pes;
        let mut links = FabricLinks {
            senders: Vec::with_capacity(pes),
            receivers: Vec::with_capacity(pes),
            stats: Vec::with_capacity(pes),
            sessions: None,
        };
        for _ in 0..pes {
            let (tx, rx) = striped_link(&ctx.transport);
            links.stats.push(tx.stats_handle());
            links.senders.push(tx);
            links.receivers.push(rx);
        }
        Ok(links)
    }

    fn collect(
        &self,
        _ctx: &StageContext<'_>,
        run: &FarmRun,
        sender_stats: &[Arc<Mutex<TransportStats>>],
        collector: &Collector,
    ) -> TransportStats {
        // The deterministic sender-side striping counters summed over every
        // PE link, plus the viewer's receiver-side observations.
        let mut transport = TransportStats::default();
        for handle in sender_stats {
            transport.merge(&handle.lock().unwrap_or_else(|e| e.into_inner()));
        }
        if let Some(viewer) = &run.viewer {
            transport.out_of_order_chunks = viewer.transport.out_of_order_chunks;
            transport.partial_updates = viewer.transport.partial_updates;
            transport.reassembly_copies = viewer.transport.reassembly_copies;
        }
        log_transport_stats(&collector.logger("transport", "striped-link"), None, &transport);
        transport
    }
}

/// Modeled stripe sessions: no channels, the identical chunk plan replayed
/// over the modeled payload sizes — per-stripe telemetry structurally
/// identical to the real link's.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModeledFabric;

impl Fabric for ModeledFabric {
    fn open(&self, _ctx: &StageContext<'_>) -> Result<FabricLinks, VisapultError> {
        Ok(FabricLinks::default())
    }

    fn collect(
        &self,
        ctx: &StageContext<'_>,
        run: &FarmRun,
        _sender_stats: &[Arc<Mutex<TransportStats>>],
        collector: &Collector,
    ) -> TransportStats {
        let mut stats = TransportStats::with_stripes(ctx.transport.stripes as usize);
        let plans = plan_chunks(
            modeled_segment_lens(&ctx.pipeline),
            ctx.transport.chunk_bytes,
            ctx.transport.stripes,
        );
        for _frame in 0..ctx.pipeline.timesteps {
            for _pe in 0..ctx.pipeline.pes {
                stats.frames += 1;
                for plan in &plans {
                    stats.record_chunk(plan.stripe, plan.len);
                }
            }
        }
        log_transport_stats(
            &collector.logger("transport", "striped-link"),
            Some(run.total_time),
            &stats,
        );
        stats
    }
}

/// Emit the per-link and per-stripe NetLogger telemetry (`NL.transport.*`
/// fields) for one stage's transport.  This is the *only* place the event
/// schema lives: the real fabric logs at the collector's clock (`at =
/// None`), the modeled fabric replays the same emitter at an explicit
/// virtual timestamp — so either log reads identically by construction.
pub(crate) fn log_transport_stats(logger: &NetLogger, at: Option<f64>, stats: &TransportStats) {
    let emit = |tag: &str, fields: Vec<(String, FieldValue)>| match at {
        Some(t) => logger.log_at(t, tag, fields),
        None => logger.log_with(tag, fields),
    };
    emit(
        tags::TRANSPORT_STATS,
        vec![
            (
                tags::FIELD_TRANSPORT_STRIPES.to_string(),
                FieldValue::Int(stats.stripe_count() as i64),
            ),
            (
                tags::FIELD_TRANSPORT_FRAMES.to_string(),
                FieldValue::Int(stats.frames as i64),
            ),
            (
                tags::FIELD_TRANSPORT_CHUNKS.to_string(),
                FieldValue::Int(stats.chunks as i64),
            ),
            (
                tags::FIELD_TRANSPORT_OUT_OF_ORDER.to_string(),
                FieldValue::Int(stats.out_of_order_chunks as i64),
            ),
            (tags::FIELD_BYTES.to_string(), FieldValue::Int(stats.bytes as i64)),
        ],
    );
    for (stripe, s) in stats.per_stripe.iter().enumerate() {
        emit(
            tags::TRANSPORT_STRIPE,
            vec![
                (tags::FIELD_TRANSPORT_STRIPE.to_string(), FieldValue::Int(stripe as i64)),
                (
                    tags::FIELD_TRANSPORT_CHUNKS.to_string(),
                    FieldValue::Int(s.chunks as i64),
                ),
                (tags::FIELD_BYTES.to_string(), FieldValue::Int(s.bytes as i64)),
            ],
        );
    }
}
