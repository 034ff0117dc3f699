//! The Visapult viewer: a progressive stripe compositor.
//!
//! "the viewer itself is a multi-threaded application, with one thread
//! dedicated to interactive rendering, and other threads dedicated to
//! receiving data from the Visapult back end visualization processes over
//! multiple simultaneous network connections" (§3.4).
//!
//! [`Viewer::run`] spawns one I/O thread per back-end PE link.  Each thread
//! services every stripe of its [`StripeReceiver`], reassembling
//! sequence-numbered chunks as they arrive — and it does not wait for whole
//! frames: as soon as a frame's light payload lands the quad is placed in the
//! scene graph, and every contiguous texture prefix that arrives updates it
//! in place, so the render thread composites *partial* frames while the rest
//! of the stripes are still in flight (the paper's key UX property: the
//! display is never blocked on the WAN).  Out-of-order completions, late
//! stripes after a frame's final composite, and frames lost to a dying link
//! are surfaced as typed [`ViewerError`]s, never silently dropped.
//!
//! # What a chunk costs a link thread
//!
//! A kilobyte chunk costs a kilobyte's worth of work.  Each chunk is one
//! [`FrameAssembler::accept`] and one poll of the assembler's incremental
//! prefix (both O(1) amortised — see [`crate::transport`]); nothing per chunk
//! is proportional to the frame.  A texture is never expanded, padded or
//! copied on its way to the pixel: the quad's [`Texture`] *is* the received
//! prefix (and on completion the payload's own buffer), handed over by
//! refcount, sampled as RGBA8 by the rasterizer, and snapshotted by the
//! render thread by refcount again.  Nothing is allocated from a size the
//! wire announced.
//!
//! The progressive rule: the quad is placed when the light lands; the
//! texture is re-shown when the contiguous prefix has grown by at least a
//! quarter of the texture; a frame older than the newest one shown never
//! rolls the scene back.
//!
//! # Hostile headers
//!
//! The light payload's texture header comes straight off the wire, so it is
//! checked where it is first seen and again on the completed frame: four
//! bytes per pixel, no zero dimension, a size that fits, no more texture
//! bytes than it announces.  A frame that fails is reported as
//! [`ViewerError::Corrupt`] once and counted as received but never shown; a
//! link thread that panics anyway is reported the same way instead of
//! vanishing with its statistics.

use crate::pipeline::{Clock, WallClock};
use crate::protocol::LightPayload;
use crate::transport::{AssemblyEvent, FrameAssembler, StripeReceiver, TransportStats};
use bytes::Bytes;
use netlogger::{tags, NetLogger};
use scenegraph::{NodeId, Quad3, RasterSettings, Rasterizer, SceneGraph, SceneGraphStats, SceneNode, Texture};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use volren::{RgbaImage, ViewOrientation};

/// Viewer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewerConfig {
    /// Dimensions of the source volume (for framing the composite).
    pub volume_dims: (usize, usize, usize),
    /// Output framebuffer size.
    pub image_size: (usize, usize),
    /// The (fixed) view orientation used while the pipeline runs.
    pub view: ViewOrientation,
    /// Number of timesteps each PE link is expected to deliver.
    pub expected_frames: usize,
}

impl ViewerConfig {
    /// A viewer framing the given volume at a default window size.
    pub fn new(volume_dims: (usize, usize, usize), expected_frames: usize) -> Self {
        ViewerConfig {
            volume_dims,
            image_size: (256, 256),
            view: ViewOrientation::new(8.0, 4.0),
            expected_frames,
        }
    }
}

/// A delivery anomaly the viewer observed and handled.  These are reported,
/// not panicked on: a WAN viewer must keep compositing through them.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewerError {
    /// A stripe delivered a chunk for a frame whose final composite was
    /// already integrated.
    LateStripe {
        /// Sending PE rank.
        rank: u32,
        /// The completed frame the chunk belonged to.
        frame: u32,
        /// Stripe the straggler arrived on.
        stripe: u32,
    },
    /// A frame completed after a newer frame from the same PE had already
    /// been composited; its texture was not allowed to roll the scene back.
    StaleFrame {
        /// Sending PE rank.
        rank: u32,
        /// The out-of-order frame.
        frame: u32,
        /// The newest frame already shown for this PE.
        newest: u32,
    },
    /// The link closed before this frame fully arrived.
    MissingFrame {
        /// Sending PE rank.
        rank: u32,
        /// The frame that never completed.
        frame: u32,
        /// Chunks that did arrive (0 when the frame was never seen at all).
        received_chunks: u32,
        /// Total chunks the frame announced (0 when never seen).
        total_chunks: u32,
    },
    /// A chunk or reassembled frame failed validation.
    Corrupt {
        /// Sending PE rank.
        rank: u32,
        /// What failed.
        detail: String,
    },
    /// The receiver serving every PE of this session died (a panic); what
    /// it had received is lost with it.
    ReceiverFailed {
        /// How it died.
        detail: String,
    },
}

/// What the viewer observed during a run.
#[derive(Debug, Clone)]
pub struct ViewerReport {
    /// Complete frame payloads received across all PE links.
    pub frames_received: usize,
    /// Number of composites the render thread produced while the pipeline ran.
    pub renders_performed: u64,
    /// Framed bytes received over all PE links.
    pub received_wire_bytes: u64,
    /// Scene-graph updates made from *incomplete* frames — placed quads and
    /// partial textures integrated while stripes were still in flight.
    pub partial_updates: u64,
    /// Receiver-side transport telemetry summed over every PE link.
    pub transport: TransportStats,
    /// Every delivery anomaly observed, in arrival order per link.
    pub errors: Vec<ViewerError>,
    /// Scene-graph activity counters.
    pub scene_stats: SceneGraphStats,
    /// The final composited image.
    pub final_image: RgbaImage,
}

/// The texture a light payload announces, holding `texels` — the received
/// prefix, or all of it — by refcount.  This is the check on the wire's
/// texture header: anything but four bytes per pixel, a zero dimension, a
/// size that does not fit, or more bytes than the header announces is refused
/// with the reason.  Nothing is allocated either way.
fn announced_texture(light: &LightPayload, texels: Bytes) -> Result<Texture, String> {
    if light.bytes_per_pixel != 4 {
        return Err(format!(
            "texture header announces {} bytes per pixel; the viewer shows RGBA8",
            light.bytes_per_pixel
        ));
    }
    let (Ok(width), Ok(height)) = (
        usize::try_from(light.texture_width),
        usize::try_from(light.texture_height),
    ) else {
        return Err("texture dimensions do not fit this platform".to_string());
    };
    Texture::rgba8(width, height, texels).map_err(|e| format!("texture header: {e}"))
}

fn texture_quad(light: &LightPayload, image: Texture) -> SceneNode {
    SceneNode::TextureQuad {
        image,
        quad: Quad3 {
            center: light.quad_center,
            u: light.quad_u,
            v: light.quad_v,
        },
    }
}

/// What a link thread has done with a frame that is still arriving.
enum Shown {
    /// The quad is up, textured with this many bytes of contiguous prefix.
    Prefix(usize),
    /// Its texture header was refused — reported once, never shown.
    Refused,
}

/// What a panicked `thread` was carrying, as text for a report or error.
pub(crate) fn panic_detail(thread: &str, payload: &(dyn std::any::Any + Send)) -> String {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(no message)");
    format!("{thread} panicked: {message}")
}

/// The viewer application.
pub struct Viewer {
    config: ViewerConfig,
    scene: SceneGraph,
}

impl Viewer {
    /// A viewer with an empty scene graph.
    pub fn new(config: ViewerConfig) -> Self {
        Viewer {
            config,
            scene: SceneGraph::new(),
        }
    }

    /// The shared scene graph (for inspection in tests).
    pub fn scene(&self) -> &SceneGraph {
        &self.scene
    }

    /// Service one back-end PE link chunk-by-chunk until it delivers
    /// `expected_frames` frames or closes, integrating partial and complete
    /// frames into the scene graph.  Returns the link's receiver-side
    /// transport stats and every anomaly observed.
    #[allow(clippy::too_many_arguments)]
    fn io_thread(
        scene: &SceneGraph,
        mut rx: StripeReceiver,
        pe: usize,
        texture_node: NodeId,
        grid_node: NodeId,
        expected_frames: usize,
        log: Option<&NetLogger>,
        frames_received: &AtomicU64,
        bytes_received: &AtomicU64,
        partial_updates: &AtomicU64,
    ) -> (TransportStats, Vec<ViewerError>) {
        let rank = pe as u32;
        let mut assembler = FrameAssembler::new();
        let mut errors = Vec::new();
        let mut completed = 0usize;
        let mut newest_shown: Option<u32> = None;
        let mut started: HashSet<u32> = HashSet::new();
        let mut light_logged: HashSet<u32> = HashSet::new();
        let mut shown: HashMap<u32, Shown> = HashMap::new();
        let mut partials = 0u64;

        while completed < expected_frames {
            let chunk = match rx.recv_chunk() {
                Ok(c) => c,
                Err(_) => break, // back end went away
            };
            let frame = chunk.frame;
            if let Some(l) = log {
                if started.insert(frame) {
                    l.log_with(tags::V_FRAME_START, [(tags::FIELD_FRAME, u64::from(frame))]);
                    l.log_with(tags::V_LIGHTPAYLOAD_START, [(tags::FIELD_FRAME, u64::from(frame))]);
                }
            }
            match assembler.accept(chunk) {
                Err(e) => errors.push(ViewerError::Corrupt {
                    rank,
                    detail: e.to_string(),
                }),
                Ok(AssemblyEvent::Late { rank, frame, stripe }) => {
                    errors.push(ViewerError::LateStripe { rank, frame, stripe });
                }
                Ok(AssemblyEvent::Progress { rank, frame, .. }) => {
                    let Some(light) = assembler.partial_light(rank, frame) else {
                        continue;
                    };
                    let shown_len = match shown.get(&frame) {
                        Some(Shown::Refused) => continue,
                        Some(Shown::Prefix(len)) => Some(*len),
                        None => None,
                    };
                    let prefix = assembler.partial_texture(rank, frame).unwrap_or_default();
                    let prefix_len = prefix.len();
                    let image = match announced_texture(&light, prefix) {
                        Ok(image) => image,
                        Err(detail) => {
                            errors.push(ViewerError::Corrupt { rank, detail });
                            shown.insert(frame, Shown::Refused);
                            continue;
                        }
                    };
                    let full = image.byte_len();
                    if let Some(l) = log {
                        if light_logged.insert(frame) {
                            let promised = full as u64 + u64::from(light.geometry_segments) * 24;
                            l.log_with(tags::V_LIGHTPAYLOAD_END, [(tags::FIELD_FRAME, u64::from(frame))]);
                            l.log_with(
                                tags::V_HEAVYPAYLOAD_START,
                                [(tags::FIELD_FRAME, u64::from(frame)), (tags::FIELD_BYTES, promised)],
                            );
                        }
                    }
                    // Progressive integration: never roll back past a newer
                    // frame.  Show the partial texture when the quad first
                    // appears (light landed) and thereafter only when the
                    // contiguous prefix grew by at least a quarter of the
                    // texture — bounding scene updates per frame regardless
                    // of how finely the link chunked it.
                    if newest_shown.map(|n| frame >= n).unwrap_or(true) {
                        let grown = prefix_len.saturating_sub(shown_len.unwrap_or(0));
                        if shown_len.is_none() || grown.saturating_mul(4) >= full {
                            scene.update(texture_node, texture_quad(&light, image));
                            shown.insert(frame, Shown::Prefix(prefix_len));
                            partials += 1;
                        }
                    }
                }
                Ok(AssemblyEvent::Complete { payload, wire_bytes }) => {
                    completed += 1;
                    let frame = payload.light.frame;
                    bytes_received.fetch_add(wire_bytes, Ordering::Relaxed);
                    frames_received.fetch_add(1, Ordering::Relaxed);
                    if let Some(l) = log {
                        if light_logged.insert(frame) {
                            l.log_with(tags::V_LIGHTPAYLOAD_END, [(tags::FIELD_FRAME, u64::from(frame))]);
                            l.log_with(
                                tags::V_HEAVYPAYLOAD_START,
                                [
                                    (tags::FIELD_FRAME, u64::from(frame)),
                                    (tags::FIELD_BYTES, payload.heavy.payload_bytes()),
                                ],
                            );
                        }
                    }
                    let already_refused = matches!(shown.remove(&frame), Some(Shown::Refused));
                    // The whole texture, still the payload's own buffer.
                    let texels = payload.heavy.texture_rgba8.clone();
                    let image = announced_texture(&payload.light, texels).and_then(|image| {
                        let have = payload.heavy.texture_rgba8.len();
                        if image.byte_len() == have {
                            Ok(image)
                        } else {
                            Err(format!(
                                "texture is {have} bytes but its header announces {}",
                                image.byte_len()
                            ))
                        }
                    });
                    match (image, newest_shown) {
                        (Err(detail), _) => {
                            if !already_refused {
                                errors.push(ViewerError::Corrupt { rank, detail });
                            }
                        }
                        (Ok(_), Some(newest)) if frame < newest => {
                            errors.push(ViewerError::StaleFrame { rank, frame, newest });
                        }
                        (Ok(image), _) => {
                            scene.update(texture_node, texture_quad(&payload.light, image));
                            scene.update(
                                grid_node,
                                SceneNode::Lines {
                                    // Refcount bump, not a copy: the scene graph
                                    // shares the payload's segment list.
                                    segments: Arc::clone(&payload.heavy.geometry),
                                    color: [0.4, 0.9, 0.4, 0.8],
                                },
                            );
                            newest_shown = Some(frame);
                        }
                    }
                    if let Some(l) = log {
                        l.log_with(tags::V_HEAVYPAYLOAD_END, [(tags::FIELD_FRAME, u64::from(frame))]);
                        l.log_with(tags::V_FRAME_END, [(tags::FIELD_FRAME, u64::from(frame))]);
                    }
                }
            }
        }

        // Every expected frame is in (or the link died): drain stragglers so
        // late stripes are observed rather than abandoned in the queues.
        while let Some(chunk) = rx.try_recv_chunk() {
            let stripe = chunk.stripe;
            match assembler.accept(chunk) {
                Ok(AssemblyEvent::Late { rank, frame, stripe }) => {
                    errors.push(ViewerError::LateStripe { rank, frame, stripe })
                }
                Ok(_) => {}
                Err(e) => errors.push(ViewerError::Corrupt {
                    rank,
                    detail: format!("straggler on stripe {stripe}: {e}"),
                }),
            }
        }

        // Surface what never finished: partially-assembled frames first, then
        // frames this link never saw at all.
        for (rank, frame, received, total) in assembler.pending_frames() {
            errors.push(ViewerError::MissingFrame {
                rank,
                frame,
                received_chunks: received,
                total_chunks: total,
            });
        }
        if completed < expected_frames {
            let pending: HashSet<u32> = assembler.pending_frames().iter().map(|&(_, f, _, _)| f).collect();
            for frame in 0..expected_frames as u32 {
                if !assembler.is_complete(rank, frame) && !pending.contains(&frame) {
                    errors.push(ViewerError::MissingFrame {
                        rank,
                        frame,
                        received_chunks: 0,
                        total_chunks: 0,
                    });
                }
            }
        }
        partial_updates.fetch_add(partials, Ordering::Relaxed);
        let mut stats = assembler.stats.clone();
        stats.partial_updates = partials;
        (stats, errors)
    }

    /// Run the viewer against one striped receiver per back-end PE.  Blocks
    /// until every link has delivered its expected frames (or closed), then
    /// returns the report with the final composite.  Render-thread pacing
    /// rides the wall clock — the real path's natural time base.
    pub fn run(self, links: Vec<StripeReceiver>, logger: Option<NetLogger>) -> ViewerReport {
        self.run_on(&WallClock, links, logger)
    }

    /// [`Viewer::run`] with an explicit [`Clock`]: the render thread's poll
    /// interval waits through [`Clock::pace_until_woken`], not a raw sleep,
    /// so a virtual-clock viewer never blocks on wall time.
    pub fn run_on(self, clock: &dyn Clock, links: Vec<StripeReceiver>, logger: Option<NetLogger>) -> ViewerReport {
        let frames_received = AtomicU64::new(0);
        let bytes_received = AtomicU64::new(0);
        let partial_updates = AtomicU64::new(0);
        let raster_settings = RasterSettings::framing_volume(
            self.config.volume_dims,
            self.config.image_size.0,
            self.config.image_size.1,
        );
        let view = self.config.view;

        // Pre-create the per-PE nodes so I/O threads only ever update.
        let node_ids: Vec<(NodeId, NodeId)> = (0..links.len())
            .map(|_| {
                (
                    self.scene.insert(SceneNode::Text {
                        position: [0.0; 3],
                        content: "awaiting texture".to_string(),
                    }),
                    self.scene.insert(SceneNode::Text {
                        position: [0.0; 3],
                        content: "awaiting grid".to_string(),
                    }),
                )
            })
            .collect();

        let mut transport = TransportStats::default();
        let mut errors = Vec::new();
        // The link threads are done when this sender hangs up.
        let (links_done, links_running) = mpsc::channel::<()>();
        let (raster, renders) = std::thread::scope(|scope| {
            // I/O service threads, one per back-end PE link.
            let io_handles: Vec<_> = links
                .into_iter()
                .enumerate()
                .map(|(pe, rx)| {
                    let scene = &self.scene;
                    let (texture_node, grid_node) = node_ids[pe];
                    let log = logger.as_ref().map(|l| l.for_program(format!("viewer-worker-{pe}")));
                    let frames_received = &frames_received;
                    let bytes_received = &bytes_received;
                    let partial_updates = &partial_updates;
                    let expected = self.config.expected_frames;
                    scope.spawn(move || {
                        Self::io_thread(
                            scene,
                            rx,
                            pe,
                            texture_node,
                            grid_node,
                            expected,
                            log.as_ref(),
                            frames_received,
                            bytes_received,
                            partial_updates,
                        )
                    })
                })
                .collect();
            // The render thread: composites snapshots at its own rate, into
            // one framebuffer and over kept sampling plans, until the I/O
            // threads are done — and then once more if the scene moved, so
            // its framebuffer is the final composite.
            let scene = &self.scene;
            let render = scope.spawn(move || {
                let mut raster = Rasterizer::new(&view, raster_settings);
                let mut renders = 0u64;
                let mut last_generation = None;
                loop {
                    let finished = matches!(links_running.try_recv(), Err(mpsc::TryRecvError::Disconnected));
                    let generation = scene.generation();
                    if last_generation != Some(generation) {
                        let snapshot_nodes: Vec<SceneNode> = scene.snapshot().into_iter().map(|(_, n)| n).collect();
                        raster.composite(&snapshot_nodes);
                        renders += u64::from(!finished);
                        last_generation = Some(generation);
                    }
                    if finished {
                        return (raster, renders);
                    }
                    // Poll cadence through the Clock seam: the wall clock
                    // waits out the interval unless the links finish first, a
                    // virtual clock never blocks.
                    clock.pace_until_woken(clock.monotonic_now() + Duration::from_millis(2), &links_running);
                }
            });
            // Join the I/O threads (they exit once every expected frame has
            // arrived or their sender hangs up), then stop the render thread.
            for (pe, handle) in io_handles.into_iter().enumerate() {
                match handle.join() {
                    Ok((stats, errs)) => {
                        transport.merge(&stats);
                        errors.extend(errs);
                    }
                    // Its frames are lost with it, but not silently.
                    Err(panic) => errors.push(ViewerError::Corrupt {
                        rank: pe as u32,
                        detail: panic_detail("link thread", panic.as_ref()),
                    }),
                }
            }
            drop(links_done);
            render.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        #[cfg(test)]
        LAST_RUN_COUNTS.with(|counts| counts.set(Some(raster.counts())));

        ViewerReport {
            frames_received: frames_received.load(Ordering::Relaxed) as usize,
            renders_performed: renders,
            received_wire_bytes: bytes_received.load(Ordering::Relaxed),
            partial_updates: partial_updates.load(Ordering::Relaxed),
            transport,
            errors,
            scene_stats: self.scene.stats(),
            // The final composite of whatever arrived.
            final_image: raster.into_framebuffer(),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// The render thread's rasterizer counts from this thread's last
    /// `Viewer::run` (test-only work counter).
    static LAST_RUN_COUNTS: std::cell::Cell<Option<scenegraph::RasterCounts>> = const { std::cell::Cell::new(None) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{chunk_frame, flat_frame as payload, links as support_links};
    use crate::transport::{striped_link, FrameChunk, StripeSender, TransportConfig};
    use bytes::Bytes;

    fn links(pes: usize) -> (Vec<StripeSender>, Vec<StripeReceiver>) {
        support_links(pes, &TransportConfig::default().with_chunk_bytes(512))
    }

    #[test]
    fn viewer_receives_frames_and_composites() {
        let pes = 3;
        let frames = 4;
        let (senders, receivers) = links(pes);
        let viewer = Viewer::new(ViewerConfig::new((32, 32, 32), frames));
        let producer = std::thread::spawn(move || {
            for f in 0..frames {
                for (r, tx) in senders.iter().enumerate() {
                    tx.send_frame(&payload(r as u32, f as u32, 16)).unwrap();
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        });
        let report = viewer.run(receivers, None);
        producer.join().unwrap();
        assert_eq!(report.frames_received, pes * frames);
        assert!(report.renders_performed >= 1);
        assert!(report.received_wire_bytes > 0);
        assert!(report.errors.is_empty(), "clean run: {:?}", report.errors);
        assert_eq!(report.transport.frames, (pes * frames) as u64);
        assert!(
            report.final_image.coverage() > 0.05,
            "final image should show the slabs"
        );
        // Scene graph saw one texture + one grid update per payload plus the
        // initial placeholder inserts (and any progressive partials on top).
        assert!(report.scene_stats.updates >= (pes * frames * 2) as u64);
    }

    #[test]
    fn viewer_integrates_partial_frames_before_completion() {
        // 16×16×4 = 1 KB textures over 128-byte chunks: each frame arrives as
        // many chunks, so the quad must be placed and partially textured
        // before the frame completes.
        let config = TransportConfig::default().with_stripes(4).with_chunk_bytes(128);
        let (tx, rx) = striped_link(&config);
        let viewer = Viewer::new(ViewerConfig::new((32, 32, 32), 2));
        let producer = std::thread::spawn(move || {
            for f in 0..2 {
                tx.send_frame(&payload(0, f, 16)).unwrap();
            }
        });
        let report = viewer.run(vec![rx], None);
        producer.join().unwrap();
        assert_eq!(report.frames_received, 2);
        assert!(
            report.partial_updates >= 1,
            "progressive compositor must integrate stripes before the frame completes"
        );
        assert_eq!(report.transport.partial_updates, report.partial_updates);
        assert!(report.errors.is_empty());
    }

    #[test]
    fn viewer_handles_early_disconnect_with_typed_missing_frames() {
        let (senders, mut receivers) = links(1);
        let viewer = Viewer::new(ViewerConfig::new((32, 32, 32), 10));
        let tx = senders.into_iter().next().unwrap();
        tx.send_frame(&payload(0, 0, 8)).unwrap();
        drop(tx); // back end dies after one frame
        let report = viewer.run(vec![receivers.remove(0)], None);
        assert_eq!(report.frames_received, 1);
        // Frames 1..10 never arrived: nine typed MissingFrame errors.
        let missing: Vec<_> = report
            .errors
            .iter()
            .filter(|e| matches!(e, ViewerError::MissingFrame { .. }))
            .collect();
        assert_eq!(missing.len(), 9, "{:?}", report.errors);
        assert!(matches!(
            missing[0],
            ViewerError::MissingFrame {
                rank: 0,
                frame: 1,
                received_chunks: 0,
                total_chunks: 0
            }
        ));
    }

    #[test]
    fn a_back_end_that_dies_mid_frame_leaves_a_typed_missing_frame() {
        // Two-chunk stripe queues, so the receiver holds runs while the back
        // end is still sending; it dies half-way through frame 1.  The link
        // thread hands out what it holds, hears the close, and reports the
        // frame — within a minute, not never.
        let config = TransportConfig {
            queue_depth: 2,
            ..TransportConfig::default().with_stripes(2).with_chunk_bytes(64)
        };
        let (tx, rx) = striped_link(&config);
        let partial = chunk_frame(&payload(0, 1, 16), 64, 2);
        let (half, total) = (partial.len() / 2, partial.len() as u32);
        let producer = std::thread::spawn(move || {
            tx.send_frame(&payload(0, 0, 16)).unwrap();
            for chunk in partial.into_iter().take(half) {
                tx.send_raw_chunk(chunk).unwrap();
            }
        });
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(Viewer::new(ViewerConfig::new((32, 32, 32), 2)).run(vec![rx], None));
        });
        let report = finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the viewer finishes within 60 s of the back end dying");
        producer.join().unwrap();
        assert_eq!(report.frames_received, 1);
        assert_eq!(
            report.errors,
            vec![ViewerError::MissingFrame {
                rank: 0,
                frame: 1,
                received_chunks: half as u32,
                total_chunks: total,
            }]
        );
    }

    #[test]
    fn late_stripes_after_the_final_composite_are_reported() {
        let config = TransportConfig::default().with_stripes(2).with_chunk_bytes(512);
        let (tx, rx) = striped_link(&config);
        tx.send_frame(&payload(0, 0, 8)).unwrap();
        tx.send_frame(&payload(0, 1, 8)).unwrap();
        // A stripe delivers one more chunk of frame 1 *after* its final
        // composite went out.
        tx.send_raw_chunk(FrameChunk {
            frame: 1,
            rank: 0,
            seq: 0,
            total: 4,
            stripe: 1,
            stripe_seq: 999,
            segment: 0,
            payload: Bytes::from(vec![0u8; 32]),
        })
        .unwrap();
        drop(tx);
        let viewer = Viewer::new(ViewerConfig::new((32, 32, 32), 2));
        let report = viewer.run(vec![rx], None);
        assert_eq!(report.frames_received, 2);
        assert_eq!(
            report.errors,
            vec![ViewerError::LateStripe {
                rank: 0,
                frame: 1,
                stripe: 1
            }],
            "the straggler must be surfaced, not silently dropped"
        );
    }

    #[test]
    fn out_of_order_frame_completion_does_not_roll_the_scene_back() {
        // Frame 1 completes before frame 0 (the sender emits it first); the
        // viewer must keep frame 1 on screen and report frame 0 as stale.
        let (senders, mut receivers) = links(1);
        let tx = senders.into_iter().next().unwrap();
        tx.send_frame(&payload(0, 1, 8)).unwrap();
        tx.send_frame(&payload(0, 0, 8)).unwrap();
        drop(tx);
        let viewer = Viewer::new(ViewerConfig::new((32, 32, 32), 2));
        let report = viewer.run(vec![receivers.remove(0)], None);
        assert_eq!(report.frames_received, 2, "stale frames still count as received");
        assert_eq!(
            report.errors,
            vec![ViewerError::StaleFrame {
                rank: 0,
                frame: 0,
                newest: 1
            }]
        );
    }

    /// Run a two-link viewer expecting one frame per link: link 0 carries
    /// whatever `hostile` puts on it, link 1 one healthy frame.
    fn run_beside_a_healthy_link(hostile: impl FnOnce(&StripeSender)) -> ViewerReport {
        let (mut senders, receivers) = links(2);
        let healthy = senders.pop().unwrap();
        let bad = senders.pop().unwrap();
        hostile(&bad);
        healthy.send_frame(&payload(1, 0, 16)).unwrap();
        drop((bad, healthy));
        Viewer::new(ViewerConfig::new((32, 32, 32), 1)).run(receivers, None)
    }

    /// The hostile link produced exactly one typed error and no picture; the
    /// healthy link's frame arrived and is on screen.
    fn assert_refused_once(report: &ViewerReport, needle: &str) {
        match report.errors.as_slice() {
            [ViewerError::Corrupt { rank: 0, detail }] => assert!(detail.contains(needle), "{detail}"),
            other => panic!("expected one Corrupt on rank 0, got {other:?}"),
        }
        assert!(
            report.final_image.coverage() > 0.05,
            "the healthy link still composites"
        );
        assert_eq!(report.transport.reassembly_copies, 0);
    }

    #[test]
    fn a_light_header_announcing_three_bytes_per_pixel_is_refused_not_panicked_on() {
        // Consistent with its own 16×16×3 texture, so the frame decodes — and
        // used to reach `from_rgba8`'s length assertion on the link thread.
        let report = run_beside_a_healthy_link(|tx| {
            let mut frame = payload(0, 0, 16);
            frame.light.bytes_per_pixel = 3;
            frame.heavy.texture_rgba8 = vec![200u8; 16 * 16 * 3].into();
            tx.send_frame(&frame).unwrap();
        });
        assert_refused_once(&report, "3 bytes per pixel");
        assert_eq!(report.frames_received, 2, "a refused frame is counted, not shown");
    }

    #[test]
    fn a_light_header_announcing_a_zero_dimension_is_refused() {
        // 0×16 with an empty texture decodes too — and used to put a texture
        // with no texels in front of the sampler's `width() - 1`.
        let report = run_beside_a_healthy_link(|tx| {
            let mut frame = payload(0, 0, 16);
            frame.light.texture_width = 0;
            frame.heavy.texture_rgba8 = Bytes::new();
            tx.send_frame(&frame).unwrap();
        });
        assert_refused_once(&report, "0x16");
        assert_eq!(report.frames_received, 2);
    }

    #[test]
    fn a_light_header_announcing_sixteen_gigabytes_reserves_nothing() {
        // Two chunks: the light message, then a heavy header that admits to an
        // empty texture.  Between them the viewer used to reserve — and zero —
        // 65 535 × 65 535 × 4 bytes on the header's word alone; now the quad
        // goes up over the bytes received (none) and the frame fails its
        // decode as any inconsistent frame does.
        let report = run_beside_a_healthy_link(|tx| {
            let mut frame = payload(0, 0, 16);
            (frame.light.texture_width, frame.light.texture_height) = (65_535, 65_535);
            frame.heavy.texture_rgba8 = Bytes::new();
            let segments = crate::protocol::FrameSegments::encode(&frame);
            for (seq, (segment, bytes)) in [(0u8, segments.light), (1, segments.heavy_header)]
                .into_iter()
                .enumerate()
            {
                tx.send_raw_chunk(FrameChunk {
                    frame: 0,
                    rank: 0,
                    seq: seq as u32,
                    total: 2,
                    stripe: 0,
                    stripe_seq: seq as u64,
                    segment,
                    payload: bytes,
                })
                .unwrap();
            }
        });
        assert_refused_once(&report, "corrupt transport chunk");
        assert_eq!(
            report.frames_received, 1,
            "a frame that fails its decode never completes"
        );
        assert!(report.partial_updates >= 1, "the quad was placed on the light alone");
    }

    #[test]
    fn a_prefix_longer_than_the_announced_texture_is_refused() {
        // The light says 2×2; the texture segment keeps coming.
        let report = run_beside_a_healthy_link(|tx| {
            let mut frame = payload(0, 0, 16);
            (frame.light.texture_width, frame.light.texture_height) = (2, 2);
            tx.send_frame(&frame).unwrap();
        });
        match report.errors.as_slice() {
            // Refused when the prefix outgrew the header, and the completed
            // frame then fails its decode on the same disagreement.
            [ViewerError::Corrupt { rank: 0, detail }, ViewerError::Corrupt { rank: 0, .. }] => {
                assert!(detail.contains("texture bytes offered"), "{detail}")
            }
            other => panic!("{other:?}"),
        }
        assert!(report.final_image.coverage() > 0.05);
    }

    #[test]
    fn a_panicked_link_thread_is_reported_with_its_message() {
        for (panic, want) in [
            (
                std::thread::spawn(|| panic!("plain")).join(),
                "link thread panicked: plain",
            ),
            (
                std::thread::spawn(|| panic!("formatted {}", 7)).join(),
                "link thread panicked: formatted 7",
            ),
            (
                std::thread::spawn(|| std::panic::panic_any(7u8)).join(),
                "link thread panicked: (no message)",
            ),
        ] {
            assert_eq!(panic_detail("link thread", panic.unwrap_err().as_ref()), want);
        }
    }

    #[test]
    fn viewer_logs_receipt_events() {
        let (senders, mut receivers) = links(1);
        let collector = netlogger::Collector::wall();
        let logger = collector.logger("desktop", "viewer-master");
        let viewer = Viewer::new(ViewerConfig::new((32, 32, 32), 2));
        let tx = senders.into_iter().next().unwrap();
        tx.send_frame(&payload(0, 0, 8)).unwrap();
        tx.send_frame(&payload(0, 1, 8)).unwrap();
        drop(tx);
        let report = viewer.run(vec![receivers.remove(0)], Some(logger));
        assert_eq!(report.frames_received, 2);
        let log = collector.finish();
        assert_eq!(log.with_tag(tags::V_FRAME_START).count(), 2);
        assert_eq!(log.with_tag(tags::V_LIGHTPAYLOAD_END).count(), 2);
        assert_eq!(log.with_tag(tags::V_HEAVYPAYLOAD_END).count(), 2);
    }

    #[test]
    fn render_rate_is_independent_of_slow_payload_arrival() {
        // Send payloads slowly; the render thread should still have run at
        // least once per scene change without waiting on the network.
        let (senders, mut receivers) = links(1);
        let viewer = Viewer::new(ViewerConfig::new((32, 32, 32), 3));
        let tx = senders.into_iter().next().unwrap();
        let producer = std::thread::spawn(move || {
            for f in 0..3 {
                std::thread::sleep(std::time::Duration::from_millis(20));
                tx.send_frame(&payload(0, f, 8)).unwrap();
            }
        });
        let report = viewer.run(vec![receivers.remove(0)], None);
        producer.join().unwrap();
        assert_eq!(report.frames_received, 3);
        assert!(report.scene_stats.snapshots >= 3);
    }

    #[test]
    fn virtual_clock_viewer_never_sleeps_the_render_poll() {
        // The render thread's poll interval goes through Clock::pace_until;
        // under VirtualClock every deadline is already due, so a run whose
        // frames are all pre-delivered must finish without blocking on wall
        // time (the 2 ms x N polls would otherwise dominate).
        use crate::pipeline::VirtualClock;
        let frames = 3;
        let (senders, receivers) = links(1);
        let viewer = Viewer::new(ViewerConfig::new((32, 32, 32), frames));
        let tx = senders.into_iter().next().unwrap();
        for f in 0..frames {
            tx.send_frame(&payload(0, f as u32, 8)).unwrap();
        }
        drop(tx);
        let started = std::time::Instant::now();
        let report = viewer.run_on(&VirtualClock, receivers, None);
        assert_eq!(report.frames_received, frames);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "virtual-clock viewer must not pace on wall time"
        );
    }

    #[test]
    fn a_two_pe_run_builds_two_plans_and_steps_only_the_window() {
        // Each frame carries a 2·10⁵-unit segment across the window beside
        // the usual one: about 10⁶ DDA steps at every composite for the old
        // loop, which also inverted every quad's projection at every one.
        let (pes, frames) = (2, 6);
        let (senders, receivers) = links(pes);
        let viewer = Viewer::new(ViewerConfig::new((32, 32, 32), frames));
        let scene = viewer.scene().clone();
        let producer = std::thread::spawn(move || {
            for f in 0..frames {
                for (r, tx) in senders.iter().enumerate() {
                    let mut frame = payload(r as u32, f as u32, 16);
                    frame.heavy.geometry = Arc::new(vec![
                        ([0.0; 3], [31.0, 31.0, 31.0]),
                        ([-1e5, 12.0, 16.0], [1e5, 20.0, 16.0]),
                    ]);
                    frame.light.geometry_segments = 2;
                    tx.send_frame(&frame).unwrap();
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        });
        let report = viewer.run(receivers, None);
        producer.join().unwrap();
        assert_eq!(report.frames_received, pes * frames);
        let counts = LAST_RUN_COUNTS
            .with(|counts| counts.get())
            .expect("a run records its counts");
        let composites = counts.composites;
        assert!(composites >= 2, "{counts:?}");
        assert_eq!(
            counts.plans_built, 2,
            "one plan per PE quad for the whole run; the per-pixel rasterizer inverted both quads at every one of {composites} composites"
        );
        // One composite of the final scene, from scratch: what building the
        // two plans inverted.
        let nodes: Vec<SceneNode> = scene.snapshot().into_iter().map(|(_, n)| n).collect();
        let mut fresh = Rasterizer::new(
            &ViewerConfig::new((32, 32, 32), frames).view,
            RasterSettings::framing_volume((32, 32, 32), 256, 256),
        );
        assert!(same_bits(fresh.composite(&nodes), &report.final_image));
        let per_composite = fresh.counts().inversions;
        assert!(per_composite > 0);
        assert_eq!(
            counts.inversions,
            per_composite,
            "no inversion after a quad's first composite; the per-pixel rasterizer made {per_composite} at each of {composites} (= {})",
            per_composite * composites
        );
        let (width, height) = (256, 256);
        assert!(
            counts.max_segment_steps <= width + height + 2,
            "{} DDA steps for one segment; the every-step DDA took ~1.07·10⁶ for the long one ({width}×{height} window)",
            counts.max_segment_steps
        );
    }

    fn same_bits(a: &RgbaImage, b: &RgbaImage) -> bool {
        a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
    }
}
