//! The [`RenderFarm`] capability: how slabs become frames.
//!
//! The thread farm ([`ThreadFarm`]) is the real thing — a data source onto
//! the staged DPSS deployment, `run_backend`'s thread-per-PE load/render
//! loop shipping frames into the fabric, and the progressive compositor
//! viewer draining the other end.  The model farm ([`ModelFarm`])
//! drives the identical stage through the calibrated network/platform models
//! on the virtual clock, emitting the NetLogger events the real pipeline
//! would have produced.

use super::{hash_image, join_thread, FabricLinks, FarmRun, PhaseMeans, StageContext, WallClock};
use crate::backend::run_backend;
use crate::campaign::real::RealDataPath;
use crate::campaign::sim::model_stage;
use crate::data_source::{DataSource, DpssDataSource, SyntheticSource};
use crate::error::VisapultError;
use crate::viewer::{Viewer, ViewerConfig};
use netlogger::Collector;
use std::sync::Arc;

/// The load → render capability: consumes the stage's links and produces the
/// deterministic frame counters (and, on the real path, the backend/viewer
/// reports and the final composite).
pub trait RenderFarm {
    /// Run one stage to completion, logging into `collector`.
    fn run_stage(
        &self,
        ctx: &StageContext<'_>,
        links: FabricLinks,
        collector: &Collector,
    ) -> Result<FarmRun, VisapultError>;
}

/// The real farm: OS threads, genuine software volume rendering, a live
/// viewer compositing at the far end of the fabric.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadFarm;

/// Build the stage's data source: synthetic frames or the staged DPSS
/// deployment.
fn stage_source(ctx: &StageContext<'_>, collector: &Collector) -> Result<Arc<dyn DataSource>, VisapultError> {
    Ok(match ctx.data_path {
        RealDataPath::Synthetic => Arc::new(SyntheticSource::new(ctx.pipeline.dataset.clone(), ctx.seed)),
        RealDataPath::Dpss { stream_rate_mbps } => {
            let env = ctx
                .env
                .ok_or_else(|| VisapultError::Config("a DPSS data path needs a staged RealDpssEnv".to_string()))?;
            Arc::new(DpssDataSource::new(
                env.client(collector, stream_rate_mbps),
                ctx.pipeline.dataset.clone(),
            ))
        }
    })
}

impl RenderFarm for ThreadFarm {
    fn run_stage(
        &self,
        ctx: &StageContext<'_>,
        links: FabricLinks,
        collector: &Collector,
    ) -> Result<FarmRun, VisapultError> {
        let source = stage_source(ctx, collector)?;
        let backend_logger = collector.logger("backend-host", "backend-master");
        let (senders, receivers, sessions) = (links.senders, links.receivers, links.sessions);

        // The progressive compositor viewer drains the far end of the fabric
        // on its own thread while the back end runs here, serving the
        // stage's sessions (if any) from the same receive loop.
        let viewer = Viewer::new(ViewerConfig {
            volume_dims: ctx.pipeline.dataset.dims,
            image_size: ctx.viewer_image,
            view: volren::ViewOrientation::new(8.0, 4.0),
            expected_frames: ctx.pipeline.timesteps,
        });
        let viewer_logger = collector.logger("desktop", "viewer-master");
        let viewer_handle = std::thread::Builder::new()
            .name("visapult-viewer".to_string())
            .spawn(move || viewer.serve(&WallClock, receivers, Some(viewer_logger), sessions))?;
        let backend = run_backend(&ctx.pipeline, source, senders, Some(backend_logger))?;
        let viewer_report = join_thread("viewer", viewer_handle)?;
        Ok(FarmRun {
            total_time: backend.elapsed.as_secs_f64(),
            frames_rendered: backend.frames_rendered,
            frames_received: viewer_report.frames_received,
            bytes_loaded: backend.total_bytes_loaded(),
            wire_bytes: backend.total_wire_bytes(),
            image_hash: hash_image(&viewer_report.final_image.to_rgba8()),
            means: None,
            viewer: Some(viewer_report),
        })
    }
}

/// The calibrated farm: per-frame load/render/send times from the testbed,
/// platform and DPSS models, scheduled exactly as the serial or overlapped
/// (Appendix B) control flow would, on the virtual clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelFarm;

impl RenderFarm for ModelFarm {
    fn run_stage(
        &self,
        ctx: &StageContext<'_>,
        _links: FabricLinks,
        collector: &Collector,
    ) -> Result<FarmRun, VisapultError> {
        let sim = ctx
            .sim
            .as_ref()
            .ok_or_else(|| VisapultError::Config("virtual-time execution needs a stage model".to_string()))?;
        let schedule = model_stage(sim, collector)?;
        let pes = sim.pipeline.pes;
        let timesteps = sim.pipeline.timesteps;
        let frame_bytes = sim.pipeline.dataset.bytes_per_timestep().bytes();
        // The sizing the virtual-time send-time model itself uses.
        let wire_per_frame = sim.pipeline.viewer_payload_bytes_per_pe() * pes as u64;
        let means = PhaseMeans {
            load: schedule.mean_load_time,
            render: schedule.mean_render_time,
            send: schedule.mean_send_time,
            load_throughput_mbps: schedule.mean_load_throughput_mbps,
            seconds_per_timestep: schedule.seconds_per_timestep(),
        };
        Ok(FarmRun {
            total_time: schedule.total_time,
            frames_rendered: timesteps,
            frames_received: timesteps * pes,
            bytes_loaded: frame_bytes * timesteps as u64,
            wire_bytes: wire_per_frame * timesteps as u64,
            image_hash: 0,
            means: Some(means),
            viewer: None,
        })
    }
}
