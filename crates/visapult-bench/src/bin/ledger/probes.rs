//! Layer probes: each layer's public functions replayed on the workload's own
//! inputs, outside the pipeline, to stand in for the self time the decorators
//! cannot see inside `RenderFarm::run_stage`.
//!
//! Inputs come from the resolved spec (slab ranges from
//! `DatasetDescriptor::z_slab_range`, a staged four-server DPSS, frames built
//! the way the back end packages them); every probe call is a span under its
//! layer.  A probe reports the median over its calls.

use crate::spans::SpanLog;
use crate::stats;
use dpss::{BlockCache, DatasetDescriptor, DpssClient, DpssCluster, StripeLayout};
use netlogger::{Collector, ProfileAnalysis};
use scenegraph::{IbravrModel, RasterSettings, Rasterizer, SlabImage};
use std::sync::Arc;
use std::time::{Duration, Instant};
use visapult_core::campaign::scenario::ResolvedScenario;
use visapult_core::data_source::slab_dims;
use visapult_core::protocol::{FramePayload, FrameSegments, HeavyPayload, LightPayload};
use visapult_core::transport::AssemblyEvent;
use visapult_core::viewer::ViewerConfig;
use visapult_core::{
    plan_chunks, striped_link, AsyncPlane, CampaignReport, DataSource, DpssDataSource, FanoutPlane, FrameAssembler,
    PipelineConfig, PlaneKind, RealDpssEnv, SessionBroker, StripeReceiver, TransportConfig, Viewer, VisapultError,
};
use volren::{
    combustion_series_bytes, render_cost_samples, render_region, AmrHierarchy, Axis, RgbaImage, ViewOrientation, Volume,
};

/// A probe keeps calling until this much wall time is spent…
const BUDGET: Duration = Duration::from_millis(150);
/// …but at least this often (the median of three survives one outlier)…
const MIN_CALLS: usize = 3;
/// …and never more than this (every call is a span held in memory).
const MAX_CALLS: usize = 200;

/// Median seconds of `once`, which makes one timed call and returns its time.
fn repeat(mut once: impl FnMut() -> Result<f64, VisapultError>) -> Result<f64, VisapultError> {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_CALLS || (started.elapsed() < BUDGET && times.len() < MAX_CALLS) {
        times.push(once()?);
    }
    Ok(stats::median(&times))
}

fn broken(what: &str) -> VisapultError {
    VisapultError::Protocol(format!("probe: {what}"))
}

/// What the real repetitions say about how often each layer is called.
pub struct RealRun<'a> {
    pub report: &'a CampaignReport,
    pub cpu_ms_per_frame: f64,
    pub viewer_renders_per_frame: f64,
}

/// One back-end frame of rank `pe`, packaged as `backend::render_and_package`
/// does (the quad vectors only have to be finite: nothing here reads them).
fn package(pe: usize, image: &RgbaImage, geometry: &Arc<Vec<([f32; 3], [f32; 3])>>) -> FramePayload {
    FramePayload {
        light: LightPayload {
            frame: 0,
            rank: pe as u32,
            texture_width: image.width() as u32,
            texture_height: image.height() as u32,
            bytes_per_pixel: 4,
            quad_center: [0.5; 3],
            quad_u: [1.0, 0.0, 0.0],
            quad_v: [0.0, 1.0, 0.0],
            geometry_segments: geometry.len() as u32,
        },
        heavy: HeavyPayload {
            frame: 0,
            rank: pe as u32,
            texture_rgba8: image.to_rgba8().into(),
            geometry: Arc::clone(geometry),
        },
    }
}

/// `frames` copies of each PE's frame, numbered from 0, queued on links deep
/// enough to hold them all, senders hung up: a consumer handed these is timed
/// alone.  Every frame deals its chunks round-robin from stripe 0, so the first
/// stripe carries the rounded-up share of each.
fn prefilled(
    transport: &TransportConfig,
    per_pe: &[FramePayload],
    chunks_per_frame: usize,
    frames: usize,
) -> Result<Vec<StripeReceiver>, VisapultError> {
    let deep = TransportConfig {
        queue_depth: chunks_per_frame.div_ceil(transport.stripes as usize) * frames,
        pace_rate_mbps: None,
        ..transport.clone()
    };
    let mut receivers = Vec::with_capacity(per_pe.len());
    for frame in per_pe {
        let (tx, rx) = striped_link(&deep);
        for f in 0..frames as u32 {
            let mut numbered = frame.clone();
            numbered.light.frame = f;
            numbered.heavy.frame = f;
            tx.send_frame(&numbered)
                .map_err(|_| broken("a pre-filled link closed"))?;
        }
        receivers.push(rx);
    }
    Ok(receivers)
}

/// The state every layer's probe shares: the workload's resolved shape, the
/// real run to weigh costs by, the span log, and the metrics gathered so far.
struct Probes<'a> {
    log: &'a mut SpanLog,
    root: usize,
    real: &'a RealRun<'a>,
    resolved: &'a ResolvedScenario,
    /// Stage 0's pipeline and link (every stage of a workload shares them).
    pipeline: PipelineConfig,
    transport: TransportConfig,
    dataset: DatasetDescriptor,
    pes: usize,
    timesteps: usize,
    out: Vec<(&'static str, f64)>,
}

impl Probes<'_> {
    fn open(&mut self, name: &str) -> usize {
        let now = Instant::now();
        let run_id = self.log.spans()[self.root].run_id;
        self.log.push(name, now, now, Some(self.root), run_id)
    }

    fn close(&mut self, layer: usize) {
        self.log.close(layer, Instant::now());
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }

    /// `<layer>.est_share`: seconds of the layer per PE per timestep, over
    /// the real run's CPU per timestep.
    fn put_share(&mut self, name: &'static str, seconds_per_pe: f64) {
        self.put(
            name,
            self.pes as f64 * seconds_per_pe * 1e3 / self.real.cpu_ms_per_frame,
        );
    }

    /// One pass over the staged dataset the way the serial back end makes it:
    /// one thread per PE (`parcomm::World`, as `run_backend` uses), each
    /// loading its slab of a timestep and then meeting the others at a
    /// barrier — because what a miss costs depends on who else is inserting.
    /// Every call is timed on its own thread and becomes a span; returns
    /// `(seconds, result)` per call.
    fn slab_pass<T: Send>(
        &mut self,
        name: &str,
        layer: usize,
        call: impl Fn(usize, usize) -> Result<T, VisapultError> + Sync,
    ) -> Result<Vec<(f64, T)>, VisapultError> {
        let timesteps = self.dataset.timesteps;
        let per_rank = parcomm::World::run::<(), _, _>(self.pes, |rank| {
            let mut calls = Vec::with_capacity(timesteps);
            for t in 0..timesteps {
                let start = Instant::now();
                let out = call(t, rank.rank());
                calls.push((start, Instant::now(), out));
                rank.barrier();
            }
            calls
        });
        let run_id = self.log.spans()[layer].run_id;
        let mut calls = Vec::with_capacity(timesteps * self.pes);
        for (start, end, out) in per_rank.into_iter().flatten() {
            self.log.push(name, start, end, Some(layer), run_id);
            calls.push((end.duration_since(start).as_secs_f64(), out?));
        }
        Ok(calls)
    }

    /// `RealDpssEnv::stage` as the pipeline calls it, then reads: uncached,
    /// and through a cache of the workload's own shape.  The staged
    /// environment hands out clients only inside the core crate, so the reads
    /// go to a second deployment staged from the same public parts, untimed.
    /// Returns the client in the state the last pass left its cache: all hits
    /// on `playback_warm`, all misses on `playback_thrash`.
    fn dpss(&mut self, collector: &Collector) -> Result<DpssClient, VisapultError> {
        let layer = self.open("probe.dpss");
        let dataset = self.dataset.clone();
        let seed = self.resolved.seed;
        let cache = self.resolved.cache;
        let (staged, stage_s) = self
            .log
            .timed("dpss.stage", layer, || RealDpssEnv::stage(&dataset, seed, cache));
        drop(staged?);
        self.put(
            "dpss.stage_mbytes_per_s",
            dataset.total_size().bytes() as f64 / 1e6 / stage_s,
        );
        let cluster = DpssCluster::new(StripeLayout::four_server());
        cluster.register_dataset(dataset.clone());
        let bytes = combustion_series_bytes(dataset.dims, dataset.timesteps, seed);
        DpssClient::new(cluster.clone(), "stager").write_at(&dataset.name, 0, &bytes)?;
        drop(bytes);

        let client = || {
            DpssClient::new(cluster.clone(), "visapult-backend")
                .with_logger(collector.logger("dpss-client", "dpss-client"))
        };
        let pes = self.pes;
        let read_pass = |probes: &mut Self, name: &str, client: &DpssClient| -> Result<Vec<f64>, VisapultError> {
            let calls = probes.slab_pass(name, layer, |t, pe| {
                let (offset, len) = dataset.z_slab_range(t, pe, pes);
                // Dropped inside the timed call, as `load_slab` drops it after
                // the decode: a retained block would force every later read to
                // fault in fresh pages.
                Ok(client.read_range(&dataset.name, offset, len)?.len())
            })?;
            Ok(calls.into_iter().map(|(s, _)| s).collect())
        };
        let uncached = client();
        let read_range_s = stats::median(&read_pass(self, "dpss.read_range", &uncached)?);
        self.put("dpss.read_range_ms", read_range_s * 1e3);
        self.put(
            "dpss.read_range_mbytes_per_s",
            dataset.z_slab_range(0, 0, pes).1 as f64 / 1e6 / read_range_s,
        );

        // Two passes over the staged dataset either fill then hit, or miss
        // twice (evicting on the way).
        let (mut hit_s, mut miss_s) = (0.0, 0.0);
        let mut last_client = uncached;
        if let Some(config) = self.resolved.cache {
            let cache = Arc::new(BlockCache::new(config));
            let cached = client().with_cache(Arc::clone(&cache));
            let (mut hits, mut misses) = (Vec::new(), Vec::new());
            for _ in 0..2 {
                let before = cache.stats();
                let times = read_pass(self, "dpss.cached_read_range", &cached)?;
                let delta = cache.stats().since(&before);
                if delta.misses == 0 {
                    hits.extend(times);
                } else if delta.hits == 0 {
                    misses.extend(times);
                }
            }
            hit_s = if hits.is_empty() { 0.0 } else { stats::median(&hits) };
            miss_s = if misses.is_empty() { 0.0 } else { stats::median(&misses) };
            last_client = cached;
        }
        self.put("dpss.cache_hit_read_ms", hit_s * 1e3);
        self.put("dpss.cache_miss_read_ms", miss_s * 1e3);
        let real_cache = self.real.report.cache.map(|c| c.totals);
        let totals = real_cache.unwrap_or_default();
        self.put("dpss.cache_hits", totals.hits as f64);
        self.put("dpss.cache_misses", totals.misses as f64);
        self.put("dpss.cache_evictions", totals.evictions as f64);
        self.put("dpss.cache_hit_rate", totals.hit_rate());
        // The read the back end actually pays per slab, weighted by the real
        // run's exact hit rate.
        let read_s = match real_cache {
            Some(t) => t.hit_rate() * hit_s + (1.0 - t.hit_rate()) * miss_s,
            None => read_range_s,
        };
        self.put_share("dpss.est_share", read_s);
        self.close(layer);
        Ok(last_client)
    }

    /// `load_slab` through `client`, and the one transformation it adds to
    /// the read.  Returns timestep 0's volume of every PE.
    fn data_source(&mut self, client: DpssClient) -> Result<Vec<Volume>, VisapultError> {
        let layer = self.open("probe.data_source");
        let pes = self.pes;
        let source = DpssDataSource::new(client, self.dataset.clone());
        let loads = self.slab_pass("data_source.load_slab", layer, |t, pe| {
            source.load_slab(t, pe, pes).map(|volume| (t == 0).then_some(volume))
        })?;
        let load_s = stats::median(&loads.iter().map(|(s, _)| *s).collect::<Vec<_>>());
        let volumes: Vec<Volume> = loads.into_iter().filter_map(|(_, volume)| volume).collect();
        // The little-endian float decode of the slab's bytes into a volume.
        let bytes = source.slab_bytes_shared(0, 0, pes)?;
        let dims = slab_dims(&self.dataset, 0, pes);
        let decode_s = repeat(|| {
            let decode = || std::hint::black_box(Volume::from_le_bytes(dims, &bytes));
            Ok(self.log.timed("data_source.decode", layer, decode).1)
        })?;
        self.put("data_source.load_slab_ms", load_s * 1e3);
        self.put("data_source.decode_share", decode_s / load_s);
        self.put_share("data_source.est_share", decode_s);
        self.close(layer);
        Ok(volumes)
    }

    /// What `backend::render_and_package` does to a loaded slab.  Returns
    /// every PE's frame of timestep 0 and its rendered image.
    fn volren(&mut self, volumes: &[Volume]) -> Result<(Vec<FramePayload>, Vec<RgbaImage>), VisapultError> {
        let layer = self.open("probe.volren");
        let p = &self.pipeline;
        let render = |v: &Volume| render_region(v, Axis::Z, &p.transfer, p.value_range, &p.render);
        let segments = |v: &Volume| AmrHierarchy::from_volume(v, 16, 0.3, 2).to_line_segments();
        let volume = &volumes[0];
        let render_s = repeat(|| {
            Ok(self
                .log
                .timed("volren.render_region", layer, || std::hint::black_box(render(volume)))
                .1)
        })?;
        let amr_s = repeat(|| {
            Ok(self
                .log
                .timed("volren.amr", layer, || std::hint::black_box(segments(volume)))
                .1)
        })?;
        let images: Vec<RgbaImage> = volumes.iter().map(render).collect();
        let to_rgba8_s = repeat(|| {
            Ok(self
                .log
                .timed("volren.to_rgba8", layer, || std::hint::black_box(images[0].to_rgba8()))
                .1)
        })?;
        let geometry = Arc::new(segments(volume));
        let frames = images
            .iter()
            .enumerate()
            .map(|(pe, image)| package(pe, image, &geometry))
            .collect();
        let samples = render_cost_samples(volume.len(), &p.render) as f64;
        self.put("volren.render_region_ms", render_s * 1e3);
        self.put("volren.samples_per_slab", samples);
        self.put("volren.ns_per_sample", render_s * 1e9 / samples);
        self.put("volren.amr_ms", amr_s * 1e3);
        self.put("volren.to_rgba8_ms", to_rgba8_s * 1e3);
        self.put_share("volren.est_share", render_s + amr_s + to_rgba8_s);
        self.close(layer);
        Ok((frames, images))
    }

    /// Returns `(encode, decode)` seconds, which the transport probe takes
    /// back out of its own calls.
    fn protocol(&mut self, frame: &FramePayload) -> Result<(f64, f64), VisapultError> {
        let layer = self.open("probe.protocol");
        let (mut encode, mut decode) = (Vec::new(), Vec::new());
        repeat(|| {
            let (segments, e) = self
                .log
                .timed("protocol.encode", layer, || FrameSegments::encode(frame));
            let (decoded, d) = self.log.timed("protocol.decode", layer, || segments.decode());
            decoded?;
            encode.push(e);
            decode.push(d);
            Ok(e + d)
        })?;
        let (encode_s, decode_s) = (stats::median(&encode), stats::median(&decode));
        self.put("protocol.encode_us", encode_s * 1e6);
        self.put("protocol.decode_us", decode_s * 1e6);
        self.put(
            "protocol.wire_bytes_per_frame",
            (frame.framed_wire_bytes() * self.pes as u64) as f64,
        );
        self.put_share("protocol.est_share", encode_s + decode_s);
        self.close(layer);
        Ok((encode_s, decode_s))
    }

    /// One frame into an empty deep link, then reassembled from the chunks.
    /// Returns the chunks one frame is cut into.
    fn transport(&mut self, frame: &FramePayload, encode_s: f64, decode_s: f64) -> Result<usize, VisapultError> {
        let layer = self.open("probe.transport");
        let chunks_per_frame = plan_chunks(
            FrameSegments::encode(frame).lens(),
            self.transport.chunk_bytes,
            self.transport.stripes,
        )
        .len();
        let one_frame = TransportConfig {
            queue_depth: chunks_per_frame,
            pace_rate_mbps: None,
            ..self.transport.clone()
        };
        let (mut send, mut reassemble) = (Vec::new(), Vec::new());
        repeat(|| {
            let (tx, mut rx) = striped_link(&one_frame);
            let (sent, s) = self.log.timed("transport.send_frame", layer, || tx.send_frame(frame));
            sent?;
            drop(tx);
            let chunks: Vec<_> = std::iter::from_fn(|| rx.try_recv_chunk()).collect();
            let (complete, r) = self.log.timed("transport.reassemble", layer, || {
                let mut assembler = FrameAssembler::new();
                let mut complete = false;
                for chunk in chunks {
                    complete |= matches!(assembler.accept(chunk), Ok(AssemblyEvent::Complete { .. }));
                }
                complete
            });
            if !complete {
                return Err(broken("a frame did not reassemble from its own chunks"));
            }
            send.push(s);
            reassemble.push(r);
            Ok(s + r)
        })?;
        let (send_s, reassemble_s) = (stats::median(&send), stats::median(&reassemble));
        let totals = &self.real.report.transport.totals;
        let (copies, out_of_order) = (totals.reassembly_copies, totals.out_of_order_chunks);
        self.put("transport.send_frame_us", send_s * 1e6);
        self.put("transport.reassemble_us", reassemble_s * 1e6);
        self.put("transport.chunks_per_frame", chunks_per_frame as f64);
        self.put(
            "transport.roundtrip_mbytes_per_s",
            frame.framed_wire_bytes() as f64 / 1e6 / (send_s + reassemble_s),
        );
        self.put("transport.reassembly_copies", copies as f64);
        self.put("transport.out_of_order_chunks", out_of_order as f64);
        // `send_frame` encodes and `accept` decodes on completion; those parts
        // are already the protocol layer's.
        self.put_share(
            "transport.est_share",
            (send_s - encode_s).max(0.0) + (reassemble_s - decode_s).max(0.0),
        );
        self.close(layer);
        Ok(chunks_per_frame)
    }

    /// `Viewer::run` over pre-filled links, and the scene graph it drives.
    fn viewer(
        &mut self,
        frames: &[FramePayload],
        images: &[RgbaImage],
        chunks_per_frame: usize,
    ) -> Result<(), VisapultError> {
        const FRAMES: usize = 8;
        let layer = self.open("probe.viewer");
        let dims = self.dataset.dims;
        let size = self.resolved.real.viewer_image.unwrap_or((192, 192));
        let view = ViewOrientation::new(8.0, 4.0);
        // The viewer is threads of its own (one per link plus the render
        // thread), so its cost is process CPU around `run`, summed over the
        // calls: 10 ms ticks, unbiased over a few hundred milliseconds.
        let (mut cpu_s, mut renders, mut calls) = (0.0, 0u64, 0usize);
        let composite_s = repeat(|| {
            let receivers = prefilled(&self.transport, frames, chunks_per_frame, FRAMES)?;
            let viewer = Viewer::new(ViewerConfig {
                volume_dims: dims,
                image_size: size,
                view,
                expected_frames: FRAMES,
            });
            let cpu0 = stats::process_cpu_seconds();
            let (report, s) = self.log.timed("viewer.run", layer, || viewer.run(receivers, None));
            cpu_s += stats::process_cpu_seconds() - cpu0;
            renders += report.renders_performed;
            calls += 1;
            if report.frames_received != FRAMES * frames.len() {
                return Err(broken("the viewer lost pre-filled frames"));
            }
            Ok(s)
        })?;

        let mut model = IbravrModel::new(Axis::Z, dims);
        for (pe, image) in images.iter().enumerate() {
            let z0 = pe * dims.2 / self.pes;
            let z1 = (pe + 1) * dims.2 / self.pes;
            model.slabs.push(SlabImage {
                slab_index: pe,
                image: image.clone(),
                center_along_axis: z0 as f32 + (z1 - z0) as f32 / 2.0 - 0.5,
                depth_offsets: None,
            });
        }
        let nodes = model.to_scene_nodes();
        let rasterizer = Rasterizer::new(&view, RasterSettings::framing_volume(dims, size.0, size.1));
        let raster_s = repeat(|| {
            Ok(self
                .log
                .timed("scenegraph.raster", layer, || {
                    std::hint::black_box(rasterizer.render(&nodes))
                })
                .1)
        })?;
        let ibravr_s = repeat(|| {
            let composite = || std::hint::black_box(model.composite(&view, size.0, size.1));
            Ok(self.log.timed("scenegraph.ibravr_composite", layer, composite).1)
        })?;
        let partial_updates = self.real.report.transport.totals.partial_updates;
        self.put("viewer.composite_ms_per_frame", composite_s / FRAMES as f64 * 1e3);
        self.put("viewer.partial_updates", partial_updates as f64);
        self.put("scenegraph.raster_ms", raster_s * 1e3);
        self.put("scenegraph.ibravr_composite_ms", ibravr_s * 1e3);
        // Two parts.  The link threads' progressive compositing: the probe's
        // CPU less its own composites, per timestep.  The render thread
        // free-runs while frames arrive, so its part is the *real* run's
        // composite count times one raster.
        let links_s = (cpu_s - renders as f64 * raster_s).max(0.0) / (calls * FRAMES) as f64;
        let per_timestep_s = links_s + self.real.viewer_renders_per_frame * raster_s;
        self.put("viewer.est_share", per_timestep_s * 1e3 / self.real.cpu_ms_per_frame);
        self.close(layer);
        Ok(())
    }

    /// Admission alone, then the workload's own plane over pre-filled links.
    fn service(&mut self, frames: &[FramePayload], chunks_per_frame: usize) -> Result<(), VisapultError> {
        let layer = self.open("probe.service");
        let real = self.real.report.service.as_ref();
        let totals = real.map(|s| s.totals.clone()).unwrap_or_default();
        let (mut admission_us, mut plane_us) = (0.0, 0.0);
        if let Some(plan) = self.resolved.stage_service_plan(0) {
            let stage_timesteps = self.pipeline.timesteps;
            let mut events = 1;
            let admission_s = repeat(|| {
                let mut broker = SessionBroker::new(plan.config.clone(), plan.sessions.clone());
                let ((), s) = self.log.timed("service.admission", layer, || {
                    broker.advance_to(stage_timesteps as u32 - 1);
                    broker.finish();
                });
                events = broker.events().len().max(1);
                Ok(s)
            })?;
            admission_us = admission_s * 1e6 / events as f64;

            // Enough frames that a handful of sessions still adds up to a few
            // thousand session-frames per drive.
            let sessions = plan.sessions.len().max(1);
            let per_drive = (4096 / sessions).clamp(8, 64).min(stage_timesteps);
            let owed = (sessions * per_drive * frames.len()) as u64;
            let drive_s = repeat(|| {
                let inputs = prefilled(&self.transport, frames, chunks_per_frame, per_drive)?;
                let broker = SessionBroker::new(plan.config.clone(), plan.sessions.clone());
                let transport = &self.transport;
                let (report, s) = self
                    .log
                    .timed("service.plane_drive", layer, || match plan.plane_kind() {
                        PlaneKind::Async => {
                            AsyncPlane { workers: plan.workers }.drive(broker, inputs, Vec::new(), transport)
                        }
                        PlaneKind::Threaded => FanoutPlane::drive(broker, inputs, Vec::new(), transport),
                    });
                if report.stats.frames_completed != owed {
                    return Err(broken("the plane did not complete every pre-filled session-frame"));
                }
                Ok(s)
            })?;
            plane_us = drive_s * 1e6 / owed as f64;
        }
        self.put("service.admission_us_per_event", admission_us);
        self.put("service.plane_us_per_session_frame", plane_us);
        self.put("service.shared_render_hit_rate", totals.shared_render_hit_rate());
        self.put("service.frames_completed", totals.frames_completed as f64);
        self.put("service.frames_skipped", totals.frames_skipped as f64);
        self.put("service.chunks_dropped", totals.chunks_dropped as f64);
        // One session-frame per live session per timestep per PE.
        let session_frames_per_pe = totals.render_requests as f64 / self.timesteps as f64;
        self.put_share("service.est_share", plane_us / 1e6 * session_frames_per_pe);
        self.close(layer);
        Ok(())
    }

    fn parcomm(&mut self) -> Result<(), VisapultError> {
        const BARRIERS: usize = 1000;
        let layer = self.open("probe.parcomm");
        let pes = self.pes;
        let barrier_s = repeat(|| {
            let barriers = || {
                parcomm::World::run::<(), _, _>(pes, |rank| {
                    for _ in 0..BARRIERS {
                        rank.barrier();
                    }
                })
            };
            Ok(self.log.timed("parcomm.barriers", layer, barriers).1)
        })?;
        self.put("parcomm.barrier_us", barrier_s * 1e6 / BARRIERS as f64);
        self.close(layer);
        Ok(())
    }

    fn netlogger(&mut self) {
        let layer = self.open("probe.netlogger");
        let events = &self.real.report.log;
        let analysis = || std::hint::black_box(ProfileAnalysis::from_log(events));
        let (_, analysis_s) = self.log.timed("netlogger.analysis", layer, analysis);
        self.put(
            "netlogger.events_per_frame",
            events.len() as f64 / self.timesteps as f64,
        );
        self.put("netlogger.analysis_ms", analysis_s * 1e3);
        self.close(layer);
    }
}

/// Run every probe for one workload.  Returns `(metric name, value)` pairs;
/// metrics of layers the workload does not run are reported as 0.  The probes'
/// spans take the run id after the last repetition's.
pub fn run(
    resolved: &ResolvedScenario,
    real: &RealRun<'_>,
    log: &mut SpanLog,
) -> Result<Vec<(&'static str, f64)>, VisapultError> {
    let now = Instant::now();
    let run_id = log.spans().last().map_or(0, |s| s.run_id + 1);
    let root = log.push("probes", now, now, None, run_id);
    let stage = &resolved.stages[0];
    let mut probes = Probes {
        log,
        root,
        real,
        resolved,
        pipeline: resolved.stage_pipeline(stage),
        transport: resolved.stage_transport_config(stage),
        dataset: resolved.staged_dataset(),
        pes: resolved.pes,
        timesteps: resolved.stages.iter().map(|s| s.timesteps).sum(),
        out: Vec::new(),
    };
    // The back end's client logs its reads; so does the probes'.
    let collector = Collector::wall();
    let client = probes.dpss(&collector)?;
    let volumes = probes.data_source(client)?;
    let (frames, images) = probes.volren(&volumes)?;
    let (encode_s, decode_s) = probes.protocol(&frames[0])?;
    let chunks_per_frame = probes.transport(&frames[0], encode_s, decode_s)?;
    probes.viewer(&frames, &images, chunks_per_frame)?;
    probes.service(&frames, chunks_per_frame)?;
    probes.parcomm()?;
    probes.netlogger();
    let Probes { log, out, .. } = probes;
    log.close(root, Instant::now());
    Ok(out)
}
