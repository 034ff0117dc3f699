//! Timing decorators for the pipeline's public capability seams.
//!
//! `Pipeline::run` drives every stage through five calls — `Fabric::open`,
//! `ServicePlane::splice`, `RenderFarm::run_stage`, `PlaneSession::finish`,
//! `Fabric::collect` — all on the calling thread.  Wrapping the real
//! implementations and noting each call's entry and exit is how the ledger
//! separates staging from playback and playback from report reduction without
//! a line of instrumentation inside the library.

use netlogger::Collector;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use visapult_core::{
    Fabric, FabricLinks, FanoutPlane, FarmRun, PlaneSession, RenderFarm, ServicePlane, ServiceRunReport, StageContext,
    StripedFabric, ThreadFarm, TransportStats, VisapultError,
};

/// The five per-stage calls, in the order the stage driver makes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Open,
    Splice,
    Farm,
    Finish,
    Collect,
}

impl Call {
    pub fn span_name(self) -> &'static str {
        match self {
            Call::Open => "pipeline.open",
            Call::Splice => "pipeline.splice",
            Call::Farm => "pipeline.farm",
            Call::Finish => "pipeline.plane_finish",
            Call::Collect => "pipeline.collect",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct CallRecord {
    pub call: Call,
    pub start: Instant,
    pub end: Instant,
}

/// What the decorators saw during one repetition.
#[derive(Debug, Default)]
pub struct Recorder {
    pub calls: Vec<CallRecord>,
    /// Delivery anomalies (`ViewerError`s) the primary viewer and every
    /// session endpoint reported, summed over stages.
    pub viewer_errors: u64,
    /// Composites the viewer's free-running render thread produced.
    pub viewer_renders: u64,
}

pub type SharedRecorder = Arc<Mutex<Recorder>>;

fn lock(rec: &SharedRecorder) -> std::sync::MutexGuard<'_, Recorder> {
    rec.lock().expect("a decorator panicked while recording")
}

fn timed<T>(rec: &SharedRecorder, call: Call, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    lock(rec).calls.push(CallRecord { call, start, end });
    out
}

struct TimedFabric {
    rec: SharedRecorder,
}

impl Fabric for TimedFabric {
    fn open(&self, ctx: &StageContext<'_>) -> Result<FabricLinks, VisapultError> {
        timed(&self.rec, Call::Open, || StripedFabric.open(ctx))
    }

    fn collect(
        &self,
        ctx: &StageContext<'_>,
        run: &FarmRun,
        sender_stats: &[Arc<Mutex<TransportStats>>],
        collector: &Collector,
    ) -> TransportStats {
        timed(&self.rec, Call::Collect, || {
            StripedFabric.collect(ctx, run, sender_stats, collector)
        })
    }
}

struct TimedFarm {
    rec: SharedRecorder,
}

impl RenderFarm for TimedFarm {
    fn run_stage(
        &self,
        ctx: &StageContext<'_>,
        links: FabricLinks,
        collector: &Collector,
    ) -> Result<FarmRun, VisapultError> {
        let run = timed(&self.rec, Call::Farm, || ThreadFarm.run_stage(ctx, links, collector))?;
        if let Some(viewer) = &run.viewer {
            let mut r = lock(&self.rec);
            r.viewer_errors += viewer.errors.len() as u64;
            r.viewer_renders += viewer.renders_performed;
        }
        Ok(run)
    }
}

struct TimedPlane {
    rec: SharedRecorder,
}

impl ServicePlane for TimedPlane {
    fn splice(
        &self,
        ctx: &StageContext<'_>,
        links: FabricLinks,
    ) -> Result<(FabricLinks, Box<dyn PlaneSession>), VisapultError> {
        let (links, inner) = timed(&self.rec, Call::Splice, || FanoutPlane.splice(ctx, links))?;
        let session = TimedSession {
            inner,
            rec: Arc::clone(&self.rec),
        };
        Ok((links, Box::new(session)))
    }
}

struct TimedSession {
    inner: Box<dyn PlaneSession>,
    rec: SharedRecorder,
}

impl PlaneSession for TimedSession {
    fn finish(
        self: Box<Self>,
        ctx: &StageContext<'_>,
        run: &FarmRun,
        collector: &Collector,
    ) -> Result<Option<ServiceRunReport>, VisapultError> {
        let TimedSession { inner, rec } = *self;
        let report = timed(&rec, Call::Finish, || inner.finish(ctx, run, collector))?;
        if let Some(report) = &report {
            lock(&rec).viewer_errors += report.sessions.iter().map(|s| s.errors.len() as u64).sum::<u64>();
        }
        Ok(report)
    }
}

/// The real capability set, each seam wrapped in its timing decorator.
pub fn decorated(builder: visapult_core::PipelineBuilder, rec: &SharedRecorder) -> visapult_core::PipelineBuilder {
    builder
        .fabric(Box::new(TimedFabric { rec: Arc::clone(rec) }))
        .render_farm(Box::new(TimedFarm { rec: Arc::clone(rec) }))
        .service_plane(Box::new(TimedPlane { rec: Arc::clone(rec) }))
}
