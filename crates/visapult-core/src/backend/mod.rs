//! The Visapult back end: the parallel, optionally overlapped, render farm.
//!
//! "The Visapult back end reads raw scientific data from one of a number of
//! different data sources, and each back end process performs volume
//! rendering on some subset of the data, regardless of the viewpoint.  The
//! resulting images are transmitted to the Visapult viewer for final assembly
//! into a model (scene graph), then rendered to the user." (§3.4)
//!
//! [`run_backend`] executes that loop for real: one [`parcomm`] rank per
//! processing element, each loading its Z-slab from a [`DataSource`],
//! software-rendering it with [`volren`], and shipping light + heavy payloads
//! to the viewer.  In [`ExecutionMode::Overlapped`] each rank runs the
//! Appendix B process group: a detached reader thread loads timestep N+1 into
//! the other half of a double buffer while the rank renders timestep N.
//! All ranks are one parallel job, paced by one per-frame barrier.

use crate::config::{ExecutionMode, PipelineConfig};
use crate::data_source::{slab_origin, DataSource};
use crate::error::{panicked, VisapultError};
use crate::protocol::{FramePayload, HeavyPayload, LightPayload};
use crate::transport::StripeSender;
use netlogger::{tags, NetLogger};
use parcomm::{ProcessGroup, Rank, World};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use volren::{render_region_rgba8, slab_planes, AmrHierarchy, Axis, Volume};

/// Per-PE execution summary.
#[derive(Debug, Clone, PartialEq)]
pub struct PeReport {
    /// PE rank.
    pub rank: usize,
    /// Frames processed.
    pub frames: usize,
    /// Raw bytes loaded from the data source.
    pub bytes_loaded: u64,
    /// Bytes shipped to the viewer (light + heavy payloads).
    pub wire_bytes: u64,
}

/// Whole-back-end execution summary.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendReport {
    /// Frames processed (same for every PE).
    pub frames_rendered: usize,
    /// Per-PE summaries, in rank order.
    pub per_pe: Vec<PeReport>,
    /// Wall-clock time for the whole run.
    pub elapsed: Duration,
}

impl BackendReport {
    /// Total raw bytes loaded across all PEs.
    pub fn total_bytes_loaded(&self) -> u64 {
        self.per_pe.iter().map(|p| p.bytes_loaded).sum()
    }

    /// Total bytes shipped to the viewer across all PEs.
    pub fn total_wire_bytes(&self) -> u64 {
        self.per_pe.iter().map(|p| p.wire_bytes).sum()
    }
}

/// The quad (centre + half extents) slab `pe` of `total` maps onto, matching
/// `scenegraph::IbravrModel::slab_quad` for a Z decomposition.
fn slab_quad_vectors(dims: (usize, usize, usize), pe: usize, total: usize) -> ([f32; 3], [f32; 3], [f32; 3]) {
    let (nx, ny) = (dims.0 as f32, dims.1 as f32);
    let planes = slab_planes(dims.2, pe, total);
    let center = [
        (nx - 1.0) / 2.0,
        (ny - 1.0) / 2.0,
        planes.start as f32 + planes.len() as f32 / 2.0 - 0.5,
    ];
    let u = [nx / 2.0, 0.0, 0.0];
    let v = [0.0, ny / 2.0, 0.0];
    (center, u, v)
}

/// Render one loaded slab and package the light + heavy payloads.
fn render_and_package(config: &PipelineConfig, rank: usize, frame: usize, volume: &Volume) -> FramePayload {
    let texture = render_region_rgba8(volume, Axis::Z, &config.transfer, config.value_range, &config.render);
    // AMR grid geometry for this slab, shifted into whole-volume coordinates.
    let origin = slab_origin(&config.dataset, rank, config.pes);
    let amr = AmrHierarchy::from_volume(volume, 16, 0.3, 2);
    let geometry: Vec<([f32; 3], [f32; 3])> = amr
        .to_line_segments()
        .into_iter()
        .map(|(a, b)| {
            (
                [a[0], a[1], a[2] + origin.2 as f32],
                [b[0], b[1], b[2] + origin.2 as f32],
            )
        })
        .collect();
    let (center, u, v) = slab_quad_vectors(config.dataset.dims, rank, config.pes);
    let light = LightPayload {
        frame: frame as u32,
        rank: rank as u32,
        texture_width: config.render.image_width as u32,
        texture_height: config.render.image_height as u32,
        bytes_per_pixel: 4,
        quad_center: center,
        quad_u: u,
        quad_v: v,
        geometry_segments: geometry.len() as u32,
    };
    let heavy = HeavyPayload {
        frame: frame as u32,
        rank: rank as u32,
        // The renderer emits the wire format directly; its output is wrapped
        // into a shared buffer here and never copied again on its way to the
        // viewer's scene graph.
        texture_rgba8: texture.into(),
        geometry: Arc::new(geometry),
    };
    FramePayload { light, heavy }
}

fn send_frame(
    link: &StripeSender,
    payload: FramePayload,
    log: Option<&NetLogger>,
    frame: usize,
) -> Result<u64, VisapultError> {
    if let Some(l) = log {
        l.log_with(tags::BE_LIGHT_SEND, [(tags::FIELD_FRAME, frame as u64)]);
        l.log_with(tags::BE_LIGHT_END, [(tags::FIELD_FRAME, frame as u64)]);
        l.log_with(
            tags::BE_HEAVY_SEND,
            [
                (tags::FIELD_FRAME, frame as u64),
                // Framed bytes, so summing NL.bytes over these events equals
                // BackendReport::total_wire_bytes and the TRANSPORT_STATS
                // counters.
                (tags::FIELD_BYTES, payload.framed_wire_bytes()),
            ],
        );
    }
    // Chunked onto the striped link: backpressure (a full stripe queue) and
    // WAN pacing are both felt right here, in the send phase — exactly where
    // the paper's lifelines show them.
    let wire = link
        .send_frame(&payload)
        .map_err(|_| VisapultError::Protocol("viewer link closed".to_string()))?;
    debug_assert_eq!(wire, payload.framed_wire_bytes());
    if let Some(l) = log {
        l.log_with(tags::BE_HEAVY_END, [(tags::FIELD_FRAME, frame as u64)]);
    }
    Ok(wire)
}

/// One rank's running totals, and the rule by which all ranks leave together
/// when any of them fails.
///
/// Every rank reaches every frame's barrier whatever happened to its own
/// frame: a rank that returned early would park the others in
/// `Barrier::wait` for good.  A failing rank instead publishes the frame it
/// failed in, and after the barrier every rank reads the same answer — some
/// rank failed in this frame, or none did — so all stop at the same frame.
struct PeProgress<'a> {
    rank: &'a Rank,
    /// The earliest frame any rank failed in; `usize::MAX` while none has.  A
    /// frame number, not a flag: a rank already past this barrier may fail in
    /// the *next* frame before a slower rank reads the answer for this one.
    first_failed_frame: &'a AtomicUsize,
    report: PeReport,
    failure: Option<VisapultError>,
}

impl<'a> PeProgress<'a> {
    fn new(rank: &'a Rank, first_failed_frame: &'a AtomicUsize) -> Self {
        PeProgress {
            rank,
            first_failed_frame,
            report: PeReport {
                rank: rank.rank(),
                frames: 0,
                bytes_loaded: 0,
                wire_bytes: 0,
            },
            failure: None,
        }
    }

    /// Close `frame`: book the `(loaded, wire)` bytes it moved or publish its
    /// failure, then meet the other ranks at the frame barrier.  True if the
    /// run goes on, false — on every rank alike — if any rank failed.
    fn end_frame(&mut self, frame: usize, outcome: Result<(u64, u64), VisapultError>) -> bool {
        match outcome {
            Ok((loaded, wire)) => {
                self.report.frames += 1;
                self.report.bytes_loaded += loaded;
                self.report.wire_bytes += wire;
            }
            Err(error) => {
                self.failure = Some(error);
                self.first_failed_frame.fetch_min(frame, Ordering::SeqCst);
            }
        }
        self.rank.barrier();
        self.first_failed_frame.load(Ordering::SeqCst) > frame
    }

    /// This rank's own error if it had one, else its (possibly cut short)
    /// report.
    fn finish(self) -> Result<PeReport, VisapultError> {
        match self.failure {
            Some(error) => Err(error),
            None => Ok(self.report),
        }
    }
}

/// Run `body`, one frame's work on PE `who` (or its reader thread); a panic
/// in it becomes that PE's error, "`who` panicked: message".  The rank then
/// still reaches the frame barrier and every rank leaves together — a rank
/// that unwound past the barrier would strand the others in it for good.
fn contain<T>(
    who: std::fmt::Arguments<'_>,
    body: impl FnOnce() -> Result<T, VisapultError>,
) -> Result<T, VisapultError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body))
        .unwrap_or_else(|panic| Err(panicked(&who.to_string(), panic.as_ref())))
}

/// One serial frame on one PE: load, then render, then send.  Returns the
/// `(loaded, wire)` bytes moved.
fn serial_frame(
    config: &PipelineConfig,
    source: &dyn DataSource,
    r: usize,
    link: &StripeSender,
    log: Option<&NetLogger>,
    frame: usize,
) -> Result<(u64, u64), VisapultError> {
    if let Some(l) = log {
        l.log_with(
            tags::BE_FRAME_START,
            [(tags::FIELD_FRAME, frame as u64), (tags::FIELD_RANK, r as u64)],
        );
        l.log_with(tags::BE_LOAD_START, [(tags::FIELD_FRAME, frame as u64)]);
    }
    let volume = source.load_slab(frame, r, config.pes)?;
    let loaded = source.slab_bytes(frame, r, config.pes);
    if let Some(l) = log {
        l.log_with(
            tags::BE_LOAD_END,
            [(tags::FIELD_FRAME, frame as u64), (tags::FIELD_BYTES, loaded)],
        );
        l.log_with(tags::BE_RENDER_START, [(tags::FIELD_FRAME, frame as u64)]);
    }
    let payload = render_and_package(config, r, frame, &volume);
    if let Some(l) = log {
        l.log_with(tags::BE_RENDER_END, [(tags::FIELD_FRAME, frame as u64)]);
    }
    let wire = send_frame(link, payload, log, frame)?;
    if let Some(l) = log {
        l.log_with(tags::BE_FRAME_END, [(tags::FIELD_FRAME, frame as u64)]);
    }
    Ok((loaded, wire))
}

/// Run one PE in serial (load, then render, then send, per frame).
fn run_pe_serial(
    config: &PipelineConfig,
    source: &Arc<dyn DataSource>,
    mut progress: PeProgress<'_>,
    link: &StripeSender,
    log: Option<&NetLogger>,
) -> Result<PeReport, VisapultError> {
    let r = progress.report.rank;
    for frame in 0..config.timesteps {
        let outcome = contain(format_args!("PE {r}"), || {
            serial_frame(config, source.as_ref(), r, link, log, frame)
        });
        if !progress.end_frame(frame, outcome) {
            break;
        }
    }
    progress.finish()
}

/// The double buffer an overlapped PE's reader thread fills: the slab, or why
/// its load failed.
type SlabSlot = Option<Result<Volume, VisapultError>>;

/// One overlapped frame on one PE, its slab already resident: render, then
/// send.  Returns the `(loaded, wire)` bytes moved.
fn overlapped_frame(
    config: &PipelineConfig,
    source: &dyn DataSource,
    group: &ProcessGroup<SlabSlot>,
    r: usize,
    link: &StripeSender,
    log: Option<&NetLogger>,
    frame: usize,
) -> Result<(u64, u64), VisapultError> {
    // Taking the slab out releases the slot for timestep N+2; a load that
    // failed on the reader thread surfaces here, as `?` does in serial mode.
    let volume = group
        .buffer(frame)
        .take()
        .ok_or_else(|| VisapultError::Protocol(format!("PE {r}: slab for timestep {frame} is not resident")))??;
    if let Some(l) = log {
        l.log_with(tags::BE_RENDER_START, [(tags::FIELD_FRAME, frame as u64)]);
    }
    let payload = render_and_package(config, r, frame, &volume);
    if let Some(l) = log {
        l.log_with(tags::BE_RENDER_END, [(tags::FIELD_FRAME, frame as u64)]);
    }
    let loaded = source.slab_bytes(frame, r, config.pes);
    let wire = send_frame(link, payload, log, frame)?;
    if let Some(l) = log {
        l.log_with(tags::BE_FRAME_END, [(tags::FIELD_FRAME, frame as u64)]);
    }
    Ok((loaded, wire))
}

/// Run one PE with overlapped loading and rendering (Appendix B).
fn run_pe_overlapped(
    config: &PipelineConfig,
    source: &Arc<dyn DataSource>,
    mut progress: PeProgress<'_>,
    link: &StripeSender,
    log: Option<&NetLogger>,
) -> Result<PeReport, VisapultError> {
    let r = progress.report.rank;
    let pes = config.pes;
    let reader_source = Arc::clone(source);
    let reader_log = log.cloned();
    // The double-buffered reader thread: loads the requested timestep's slab
    // into its half of the buffer and emits the load-phase NetLogger events.
    // A failed or panicking load is stored, not raised: the reader must
    // return so that semaphore B is posted, or the renderer would wait for it
    // forever.
    let mut group: ProcessGroup<SlabSlot> = ProcessGroup::spawn(
        || None,
        move |timestep, slot| {
            if let Some(l) = &reader_log {
                l.log_with(tags::BE_LOAD_START, [(tags::FIELD_FRAME, timestep as u64)]);
            }
            let loaded = contain(format_args!("PE {r} reader"), || {
                reader_source.load_slab(timestep, r, pes)
            });
            if let (Some(l), Ok(_)) = (&reader_log, &loaded) {
                let bytes = reader_source.slab_bytes(timestep, r, pes);
                l.log_with(
                    tags::BE_LOAD_END,
                    [(tags::FIELD_FRAME, timestep as u64), (tags::FIELD_BYTES, bytes)],
                );
            }
            *slot = Some(loaded);
        },
    );

    if config.timesteps > 0 {
        group.request(0);
        group.wait_ready();
    }
    for frame in 0..config.timesteps {
        if let Some(l) = log {
            l.log_with(
                tags::BE_FRAME_START,
                [(tags::FIELD_FRAME, frame as u64), (tags::FIELD_RANK, r as u64)],
            );
        }
        // Request the next timestep before rendering this one ("while the
        // data for frame N is being rendered, data for frame N+1 is being
        // loaded").
        if frame + 1 < config.timesteps {
            group.request(frame + 1);
        }
        let outcome = contain(format_args!("PE {r}"), || {
            overlapped_frame(config, source.as_ref(), &group, r, link, log, frame)
        });
        if frame + 1 < config.timesteps {
            group.wait_ready();
        }
        if !progress.end_frame(frame, outcome) {
            break;
        }
    }
    // Joins the reader thread, on the way out of a failed run as well.
    group.terminate();
    progress.finish()
}

/// Run the full back end: one rank per PE, each shipping its payloads down
/// its own viewer link, all paced by one per-frame barrier.
///
/// A slab load, render or send that fails or panics on any rank ends the run
/// for all of them at that frame's barrier; the error returned is the failing
/// rank's own (the lowest such rank's, if several failed in the same frame),
/// and a panic is `VisapultError::Io` reading "PE r panicked: message" ("PE r
/// reader panicked: …" for an overlapped PE's reader thread).
///
/// `viewer_links` must contain exactly `config.pes` striped senders (one per
/// PE).  `logger`, when provided, is specialized per PE into
/// `backend-worker-<rank>` program names on `pe-<rank>` hosts.
pub fn run_backend(
    config: &PipelineConfig,
    source: Arc<dyn DataSource>,
    viewer_links: Vec<StripeSender>,
    logger: Option<NetLogger>,
) -> Result<BackendReport, VisapultError> {
    config.validate().map_err(VisapultError::Config)?;
    if viewer_links.len() != config.pes {
        return Err(VisapultError::Config(format!(
            "expected {} viewer links, got {}",
            config.pes,
            viewer_links.len()
        )));
    }
    let start = Instant::now();
    let first_failed_frame = AtomicUsize::new(usize::MAX);
    let per_pe = World::run::<(), _, _>(config.pes, |rank| {
        let r = rank.rank();
        let pe_log = logger
            .as_ref()
            .map(|l| l.for_program(format!("backend-worker-{r}")).for_host(format!("pe-{r}")));
        let link = &viewer_links[r];
        let progress = PeProgress::new(&rank, &first_failed_frame);
        match config.mode {
            ExecutionMode::Serial => run_pe_serial(config, &source, progress, link, pe_log.as_ref()),
            ExecutionMode::Overlapped => run_pe_overlapped(config, &source, progress, link, pe_log.as_ref()),
        }
    })
    .into_iter()
    .collect::<Result<Vec<PeReport>, VisapultError>>()?;
    Ok(BackendReport {
        frames_rendered: config.timesteps,
        per_pe,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_source::SyntheticSource;
    use crate::test_support::{join_drains, links, spawn_drains};
    use crate::transport::{striped_link, TransportConfig};
    use dpss::DatasetDescriptor;

    fn setup(pes: usize, timesteps: usize, mode: ExecutionMode) -> (PipelineConfig, Arc<dyn DataSource>) {
        let config = PipelineConfig::small(pes, timesteps, mode);
        let source: Arc<dyn DataSource> =
            Arc::new(SyntheticSource::new(DatasetDescriptor::small_combustion(timesteps), 7));
        (config, source)
    }

    fn run(pes: usize, timesteps: usize, mode: ExecutionMode) -> (BackendReport, Vec<FramePayload>) {
        let (config, source) = setup(pes, timesteps, mode);
        let (senders, receivers) = links(pes, &TransportConfig::default());
        // Drain each link concurrently: the stripe queues are bounded, so the
        // back end would block on a full queue with no reader (that is the
        // backpressure working as designed).
        let drains = spawn_drains(receivers);
        let report = run_backend(&config, source, senders, None).unwrap();
        (report, join_drains(drains))
    }

    #[test]
    fn serial_backend_ships_one_payload_per_pe_per_frame() {
        let (report, payloads) = run(4, 3, ExecutionMode::Serial);
        assert_eq!(report.frames_rendered, 3);
        assert_eq!(report.per_pe.len(), 4);
        assert_eq!(payloads.len(), 12);
        assert!(report.total_bytes_loaded() > 0);
        assert_eq!(
            report.total_bytes_loaded(),
            DatasetDescriptor::small_combustion(3).total_size().bytes()
        );
    }

    #[test]
    fn overlapped_backend_produces_identical_payload_structure() {
        let (serial_report, mut serial_payloads) = run(2, 4, ExecutionMode::Serial);
        let (overlap_report, mut overlap_payloads) = run(2, 4, ExecutionMode::Overlapped);
        assert_eq!(serial_report.frames_rendered, overlap_report.frames_rendered);
        assert_eq!(serial_payloads.len(), overlap_payloads.len());
        // Same (rank, frame) set and identical texture content: overlap is a
        // performance optimization, not a semantic change.
        let key = |p: &FramePayload| (p.light.rank, p.light.frame);
        serial_payloads.sort_by_key(key);
        overlap_payloads.sort_by_key(key);
        for (s, o) in serial_payloads.iter().zip(&overlap_payloads) {
            assert_eq!(key(s), key(o));
            assert_eq!(s.heavy.texture_rgba8, o.heavy.texture_rgba8);
        }
    }

    #[test]
    fn payload_metadata_is_consistent() {
        let (_, payloads) = run(4, 2, ExecutionMode::Serial);
        for p in &payloads {
            assert_eq!(p.light.bytes_per_pixel, 4);
            assert_eq!(
                p.heavy.texture_rgba8.len(),
                (p.light.texture_width * p.light.texture_height * 4) as usize
            );
            assert_eq!(p.light.geometry_segments as usize, p.heavy.geometry.len());
            // Quads are Z-aligned and stacked along Z in rank order.
            assert_eq!(p.light.quad_u[2], 0.0);
            assert_eq!(p.light.quad_v[2], 0.0);
        }
        let mut by_rank: Vec<&FramePayload> = payloads.iter().filter(|p| p.light.frame == 0).collect();
        by_rank.sort_by_key(|p| p.light.rank);
        for w in by_rank.windows(2) {
            assert!(w[1].light.quad_center[2] > w[0].light.quad_center[2]);
        }
    }

    #[test]
    fn backend_rejects_bad_configs() {
        let (config, source) = setup(2, 2, ExecutionMode::Serial);
        // Wrong number of viewer links.
        let (tx, _rx) = striped_link(&TransportConfig::default());
        let err = run_backend(&config, source, vec![tx], None);
        assert!(matches!(err, Err(VisapultError::Config(_))));
    }

    #[test]
    fn netlogger_instrumentation_covers_every_phase() {
        let (config, source) = setup(2, 2, ExecutionMode::Overlapped);
        let collector = netlogger::Collector::wall();
        let (senders, receivers) = links(2, &TransportConfig::default());
        let drains = spawn_drains(receivers);
        run_backend(
            &config,
            source,
            senders,
            Some(collector.logger("backend", "backend-master")),
        )
        .unwrap();
        join_drains(drains);
        let log = collector.finish();
        // 2 PEs x 2 frames = 4 of each back-end event.
        for tag in [
            tags::BE_LOAD_START,
            tags::BE_LOAD_END,
            tags::BE_RENDER_START,
            tags::BE_RENDER_END,
            tags::BE_HEAVY_SEND,
            tags::BE_HEAVY_END,
            tags::BE_FRAME_START,
            tags::BE_FRAME_END,
        ] {
            assert_eq!(log.with_tag(tag).count(), 4, "tag {tag}");
        }
        let analysis = netlogger::ProfileAnalysis::from_log(&log);
        assert_eq!(analysis.frames.len(), 2);
        assert!(analysis.frames.iter().all(|f| f.bytes_loaded > 0));
    }

    /// A source whose load of one timestep fails, as a DPSS server going away
    /// mid-run does — on every PE, or on `fail_pe` alone — with an error, or
    /// with a panic when `panics` is set.
    struct FailingSource {
        inner: SyntheticSource,
        fail_at: usize,
        fail_pe: Option<usize>,
        panics: bool,
    }

    impl DataSource for FailingSource {
        fn descriptor(&self) -> &DatasetDescriptor {
            self.inner.descriptor()
        }

        fn load_slab(&self, timestep: usize, pe: usize, total_pes: usize) -> Result<Volume, VisapultError> {
            if timestep == self.fail_at && self.fail_pe.is_none_or(|failing| failing == pe) {
                assert!(!self.panics, "DPSS server for slab {pe} vanished");
                return Err(VisapultError::Dpss(dpss::DpssError::Closed));
            }
            self.inner.load_slab(timestep, pe, total_pes)
        }
    }

    #[test]
    fn a_failed_slab_load_is_an_error_not_a_hang_in_both_modes() {
        // Timestep 2 fails on both PEs, or on PE 1 alone — the case that used
        // to park PE 0 in the frame barrier for good.  Either way timesteps 0
        // and 1 were shipped by both PEs before it; when only PE 1 fails, PE 0
        // ships its timestep 2 as well and both leave at that frame's barrier.
        // A load that panics (on the PE's own thread in serial mode, on its
        // reader thread when overlapped) is that PE's error in the same way:
        // it used to strand the other PE in the barrier, or its own renderer
        // waiting for a reader that never posted.
        for (fail_pe, shipped) in [(None, 4), (Some(1), 5)] {
            for (mode, panics) in [
                (ExecutionMode::Serial, false),
                (ExecutionMode::Overlapped, false),
                (ExecutionMode::Serial, true),
                (ExecutionMode::Overlapped, true),
            ] {
                let case = format!("{mode:?}, failing PE {fail_pe:?}, panics {panics}");
                let config = PipelineConfig::small(2, 4, mode);
                let source: Arc<dyn DataSource> = Arc::new(FailingSource {
                    inner: SyntheticSource::new(DatasetDescriptor::small_combustion(4), 7),
                    fail_at: 2,
                    fail_pe,
                    panics,
                });
                let (senders, receivers) = links(2, &TransportConfig::default());
                let drains = spawn_drains(receivers);
                // Run on a thread so a PE stuck waiting for its reader or for
                // the other PE fails the test instead of hanging it.
                let (done, outcome) = std::sync::mpsc::channel();
                let backend_source = Arc::clone(&source);
                let backend = std::thread::spawn(move || {
                    let _ = done.send(run_backend(&config, backend_source, senders, None));
                });
                let result = outcome
                    .recv_timeout(Duration::from_secs(60))
                    .unwrap_or_else(|_| panic!("back end hung on a failed slab load ({case})"));
                let failing = fail_pe.unwrap_or(0);
                let who = match mode {
                    ExecutionMode::Serial => format!("PE {failing}"),
                    ExecutionMode::Overlapped => format!("PE {failing} reader"),
                };
                match &result {
                    Err(VisapultError::Io(e)) if panics => assert_eq!(
                        e.to_string(),
                        format!("{who} panicked: DPSS server for slab {failing} vanished"),
                        "{case}"
                    ),
                    Err(VisapultError::Dpss(_)) if !panics => {}
                    other => panic!("{case}: {other:?}"),
                }
                backend.join().unwrap();
                assert_eq!(join_drains(drains).len(), shipped, "{case}");
                // Each reader thread owned a clone of the source; all are joined.
                assert_eq!(Arc::strong_count(&source), 1, "{case}: leaked a reader thread");
            }
        }
    }

    #[test]
    fn single_pe_single_frame_works() {
        let (report, payloads) = run(1, 1, ExecutionMode::Overlapped);
        assert_eq!(report.frames_rendered, 1);
        assert_eq!(payloads.len(), 1);
    }
}
