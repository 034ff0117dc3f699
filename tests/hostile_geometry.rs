//! Hostile geometry through the viewer.  A frame's AMR segment coordinates
//! come off the wire unchecked, and the viewer's DDA takes its step count
//! from them: once a segment could cost a composite time linear in its
//! length, a 1e30 endpoint saturated the count at `usize::MAX` (the render
//! thread never finished, so neither did `Viewer::run`), and a NaN endpoint
//! painted pixel (0, 0).  Now a segment is stepped only where it is in the
//! window, and one whose projected endpoints are not finite draws nothing.
//!
//! * A complete frame carrying 1e30 segments must let `Viewer::run` return
//!   inside a 60 s deadline.
//! * ±inf and NaN segments leave the final image as it is without them.
//! * Segments of 10⁶ units and more must draw exactly the pixels of the DDA that steps
//!   every `t = i / steps` — the loop the rasterizer used to run — written
//!   out here over the public `Rasterizer::project`.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;
use visapult::core::transport::{striped_link, TransportConfig};
use visapult::core::viewer::{Viewer, ViewerConfig, ViewerReport};
use visapult::core::{FramePayload, HeavyPayload, LightPayload};
use visapult::scenegraph::{RasterSettings, Rasterizer, SceneNode};
use visapult::volren::{RgbaImage, ViewOrientation};

type Segment = ([f32; 3], [f32; 3]);

/// Frame `frame` of rank 0: a 16×16 opaque texture on a quad framing a 32³
/// volume, and `geometry` as its AMR grid.
fn frame(frame: u32, geometry: Vec<Segment>) -> FramePayload {
    FramePayload {
        light: LightPayload {
            frame,
            rank: 0,
            texture_width: 16,
            texture_height: 16,
            bytes_per_pixel: 4,
            quad_center: [15.5, 15.5, 8.0],
            quad_u: [16.0, 0.0, 0.0],
            quad_v: [0.0, 16.0, 0.0],
            geometry_segments: geometry.len() as u32,
        },
        heavy: HeavyPayload {
            frame,
            rank: 0,
            texture_rgba8: vec![200u8; 16 * 16 * 4].into(),
            geometry: Arc::new(geometry),
        },
    }
}

/// `Viewer::run` over one link that has already delivered `frames`, on its
/// own thread, waited on for at most 60 s.
fn run_within_a_minute(frames: Vec<FramePayload>) -> ViewerReport {
    let (tx, rx) = striped_link(&TransportConfig::default().with_chunk_bytes(512));
    let expected = frames.len();
    for payload in &frames {
        tx.send_frame(payload).unwrap();
    }
    drop(tx);
    let (report_tx, report_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let report = Viewer::new(ViewerConfig::new((32, 32, 32), expected)).run(vec![rx], None);
        let _ = report_tx.send(report);
    });
    report_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("Viewer::run did not return within 60 s")
}

fn bits(image: &RgbaImage) -> Vec<u32> {
    image.data().iter().map(|v| v.to_bits()).collect()
}

const HEALTHY: Segment = ([0.0; 3], [31.0, 31.0, 31.0]);

#[test]
fn segments_at_1e30_cannot_stall_the_viewer() {
    let far = 1e30f32;
    let hostile = vec![
        ([-far, 10.0, 10.0], [far, 20.0, 20.0]),
        ([0.0, 0.0, 0.0], [far, far, far]),
        ([far, -far, 3.0], [-far, far, 30.0]),
        HEALTHY,
    ];
    let report = run_within_a_minute(vec![frame(0, hostile.clone()), frame(1, hostile)]);
    assert_eq!(report.frames_received, 2);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(report.final_image.coverage() > 0.05);
}

#[test]
fn segments_with_infinite_or_nan_ends_draw_nothing() {
    let non_finite = [
        ([0.0, 0.0, 0.0], [f32::INFINITY, 3.0, 4.0]),
        ([f32::NEG_INFINITY, 0.0, 0.0], [5.0, 6.0, 7.0]),
        ([1.0, 2.0, 3.0], [4.0, f32::NAN, 6.0]),
        ([f32::NAN, 0.0, 0.0], [5.0, 6.0, 7.0]),
        ([f32::NAN; 3], [f32::NAN; 3]),
    ];
    let with = run_within_a_minute(vec![frame(0, [&non_finite[..], &[HEALTHY]].concat())]);
    let without = run_within_a_minute(vec![frame(0, vec![HEALTHY])]);
    assert_eq!(with.frames_received, 1);
    assert!(with.errors.is_empty(), "{:?}", with.errors);
    // A NaN endpoint used to paint pixel (0, 0), which nothing else covers.
    assert_eq!(without.final_image.get(0, 0), [0.0; 4]);
    assert!(bits(&with.final_image) == bits(&without.final_image));
}

/// The DDA as the rasterizer used to run it: every step `i` of `0..=steps`,
/// each landing pixel set to `color`.
fn every_step(raster: &Rasterizer, fb: &mut RgbaImage, segments: &[Segment], color: [f32; 4]) {
    for (a, b) in segments {
        let (ax, ay, _) = raster.project(*a);
        let (bx, by, _) = raster.project(*b);
        let steps = ((bx - ax).abs().max((by - ay).abs()).ceil() as usize).max(1);
        for i in 0..=steps {
            let t = i as f32 / steps as f32;
            let x = ax + (bx - ax) * t;
            let y = ay + (by - ay) * t;
            if x < 0.0 || y < 0.0 {
                continue;
            }
            let (xi, yi) = (x.round() as usize, y.round() as usize);
            if xi < fb.width() && yi < fb.height() {
                fb.set(xi, yi, color);
            }
        }
    }
}

#[test]
fn million_unit_segments_draw_the_every_step_pixels() {
    let segments: Vec<Segment> = vec![
        ([-5e5, 12.0, 16.0], [5e5, 20.0, 16.0]),
        ([16.0, 5e5, 3.0], [18.0, -5e5, 30.0]),
        ([-4e5, -4e5, -4e5], [6e5, 6e5, 6e5]),
        ([-1e6, 31.0, 0.0], [3.0, 2.0, 1.0]),
        // Over 2^24 steps: neighbouring steps share one `i as f32`.
        ([-2e6, 20.0, 16.0], [2e6, 12.0, 16.0]),
    ];
    let color = [0.4, 0.9, 0.4, 0.8];
    let node = SceneNode::Lines {
        segments: Arc::new(segments.clone()),
        color,
    };
    for (view, window) in [
        (ViewOrientation::new(8.0, 4.0), (256, 256)),
        (ViewOrientation::axis_aligned(), (97, 61)),
        (ViewOrientation::new(-33.0, 71.0), (40, 130)),
    ] {
        let settings = RasterSettings::framing_volume((32, 32, 32), window.0, window.1);
        let mut raster = Rasterizer::new(&view, settings);
        let mut want = RgbaImage::new(window.0, window.1);
        every_step(&raster, &mut want, &segments, color);
        assert!(want.coverage() > 0.0, "{view:?}: the segments cross the window");
        assert_eq!(
            bits(&raster.render(std::slice::from_ref(&node))),
            bits(&want),
            "{view:?}"
        );
        assert_eq!(
            bits(raster.composite(std::slice::from_ref(&node))),
            bits(&want),
            "{view:?}"
        );
        let steps = raster.counts().max_segment_steps;
        assert!(
            steps <= (window.0 + window.1 + 2) as u64,
            "{view:?}: {steps} steps for one segment in a {window:?} window"
        );
    }
}
