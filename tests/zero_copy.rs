//! End-to-end proof of the zero-copy data plane (this file stays a separate
//! integration-test binary on purpose: the deep-copy counter is process-wide,
//! and here nothing else runs in the process to touch it).
//!
//! The acceptance bar: a heavy frame payload performs **zero** byte-buffer
//! copies between the `DataSource` load and the viewer receiving it.  With
//! block-aligned slabs the whole real pipeline — DPSS arena read, cache
//! fill, render packaging, channel transport, viewer receipt — clears an
//! even higher bar: zero deep copies end to end, asserted via the `bytes`
//! shim's process-wide copy counter.

use std::sync::Arc;
use visapult::core::campaign::scenario::DatasetSpec;
use visapult::core::viewer::ViewerConfig;
use visapult::core::{
    run_scenario, striped_link, CacheSpec, FramePayload, HeavyPayload, LightPayload, ScenarioSpec, TransportConfig,
    TransportSpec, Viewer,
};
use visapult::scenegraph::{SceneGraph, SceneNode, Texture};

fn assert_zero_copy_run(spec: &ScenarioSpec, label: &str) {
    let before = bytes::deep_copy_count();
    let report = run_scenario(spec).unwrap();
    let after = bytes::deep_copy_count();
    assert_eq!(
        after - before,
        0,
        "{label}: the pipeline deep-copied a byte buffer somewhere between load and viewer receive"
    );
    // The run actually moved data (this is not a trivially empty pipeline).
    assert!(report.frames_received() > 0);
    assert!(report.bytes_loaded() > 0);
    assert!(report.wire_bytes() > 0);
}

/// The bundled quickstart: synthetic combustion staged onto an in-process
/// DPSS, 4 overlapped PEs, the real viewer.  32³ floats across 4 PEs makes
/// every slab a sub-range of a single 64 KB block, so even the loads are
/// pure arena slices.
#[test]
fn real_pipeline_is_copy_free_from_load_to_viewer() {
    let spec = ScenarioSpec::bundled("quickstart_lan").unwrap();
    assert_zero_copy_run(&spec, "uncached quickstart");
}

/// The striped transport under stress: 8 stripes and 1 KB chunks force every
/// frame through multi-chunk fan-out and out-of-order reassembly.  Chunks
/// are O(1) slices of the frame's segment buffers and reassembly rejoins
/// them in place (`Bytes::try_join`), so even heavily striped frames cross
/// the link — and feed the progressive compositor — with zero deep copies.
#[test]
fn striped_transport_path_is_copy_free() {
    let mut spec = ScenarioSpec::bundled("quickstart_lan").unwrap();
    spec.transport = Some(TransportSpec {
        stripes: Some(8),
        chunk_kb: Some(1),
        queue_depth: None,
        tcp: None,
        emulate_wan: Some(false),
    });
    let before = bytes::deep_copy_count();
    let report = run_scenario(&spec).unwrap();
    assert_eq!(
        bytes::deep_copy_count() - before,
        0,
        "striping/reassembly must not copy frame bytes"
    );
    // Every stripe actually carried chunks, and reassembly never fell back
    // to a gather copy.
    assert_eq!(report.transport.totals.stripe_count(), 8);
    assert!(report.transport.totals.per_stripe.iter().all(|s| s.chunks > 0));
    assert_eq!(report.transport.totals.reassembly_copies, 0);
}

/// Same pipeline with the sharded block cache mounted: misses fill whole
/// blocks (still arena slices), hits slice cache entries — no copies either
/// way, and the replayed second stage is served from cache.
#[test]
fn cached_pipeline_is_copy_free_and_hits_on_replay() {
    let mut spec = ScenarioSpec::bundled("quickstart_lan").unwrap();
    spec.cache = Some(CacheSpec {
        capacity_blocks: Some(64),
        shards: Some(4),
    });
    let before = bytes::deep_copy_count();
    let report = run_scenario(&spec).unwrap();
    assert_eq!(bytes::deep_copy_count() - before, 0, "cached run must not copy");
    let cache = report.cache.expect("cache telemetry present");
    assert!(cache.totals.misses > 0);
}

/// Slabs that span blocks: 128×128×16 floats over 2 PEs is 512 KB a slab,
/// eight 64 KB blocks.  Each load reads the slab as its block pieces and
/// decodes the floats straight out of them (a gather per load would be one
/// deep copy each), so the multi-block pipeline is copy-free end to end too.
#[test]
fn multi_block_slabs_load_without_a_gather_copy() {
    let mut spec = ScenarioSpec::bundled("quickstart_lan").unwrap();
    spec.pipeline.pes = 2;
    spec.dataset = Some(DatasetSpec {
        dims: Some((128, 128, 16)),
        name: None,
    });
    spec.cache = Some(CacheSpec {
        capacity_blocks: Some(64),
        shards: Some(4),
    });
    assert_zero_copy_run(&spec, "multi-block cached slabs");
}

/// The one RGBA8 texture buffer on screen in `scene`.
fn shown_texture(scene: &SceneGraph) -> bytes::Bytes {
    let mut shown = scene.snapshot().into_iter().filter_map(|(_, node)| match node {
        SceneNode::TextureQuad {
            image: Texture::Rgba8(texture),
            ..
        } => Some(texture.bytes().clone()),
        _ => None,
    });
    let texture = shown.next().expect("a wire-format texture quad is in the scene");
    assert!(shown.next().is_none());
    texture
}

/// The last hop: link → scene graph → render thread.  The texture quad the
/// viewer leaves in the scene holds the *sender's* buffer — not an expanded
/// float image, not a padded copy — and a snapshot of the scene (what the
/// render thread takes per composite) shares it again.
#[test]
fn the_viewer_shows_and_snapshots_the_payloads_own_texture_buffer() {
    let size = 64u32;
    let texture: bytes::Bytes = (0..size * size * 4)
        .map(|i| (i % 253) as u8)
        .collect::<Vec<u8>>()
        .into();
    let frame = FramePayload {
        light: LightPayload {
            frame: 0,
            rank: 0,
            texture_width: size,
            texture_height: size,
            bytes_per_pixel: 4,
            quad_center: [15.5, 15.5, 8.0],
            quad_u: [16.0, 0.0, 0.0],
            quad_v: [0.0, 16.0, 0.0],
            geometry_segments: 1,
        },
        heavy: HeavyPayload {
            frame: 0,
            rank: 0,
            texture_rgba8: texture.clone(),
            geometry: Arc::new(vec![([0.0; 3], [31.0; 3])]),
        },
    };
    // 16 KB in 1 KB chunks over 8 stripes: the progressive path runs too.
    let (tx, rx) = striped_link(&TransportConfig::default().with_stripes(8).with_chunk_bytes(1024));
    tx.send_frame(&frame).unwrap();
    drop(tx);

    let viewer = Viewer::new(ViewerConfig::new((32, 32, 32), 1));
    let scene = viewer.scene().clone();
    let before = bytes::deep_copy_count();
    let report = viewer.run(vec![rx], None);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(report.partial_updates >= 1, "prefixes were shown on the way");
    assert!(report.final_image.coverage() > 0.05);

    let on_screen = shown_texture(&scene);
    assert!(
        on_screen.ptr_eq(&texture),
        "the scene graph must hold the payload's own buffer"
    );
    assert!(
        shown_texture(&scene).ptr_eq(&on_screen),
        "a snapshot shares the texture"
    );
    assert_eq!(
        bytes::deep_copy_count() - before,
        0,
        "link to scene graph to snapshot copied bytes"
    );
}
