//! Criterion bench: the software volume renderer itself.
//!
//! Per-PE render cost as a function of slab size and image resolution; these
//! are the numbers that calibrate the `ComputePlatform` sample rates used by
//! the virtual-time campaigns.
//!
//! Besides the criterion output, a custom `main` writes a
//! `BENCH_volren.json` baseline: median seconds per `render_region` call for
//! the three slab-to-image shapes the ledger's workloads run the kernel in —
//! image larger than the slab's footprint, a small multiple of it, and smaller
//! — plus the middle one at half a voxel per step, so the row kernel's cost is
//! committed and gated in each regime and on both sides of the unit-spacing
//! identity.
//!
//! It also commits the viewer's composite on the scene four workloads put in
//! front of it — two PEs' RGBA8 slab textures and AMR grids, rendered and
//! placed as the back end does — in the window each one uses: cold (a fresh
//! rasterizer, so every sampling plan is built and the framebuffer
//! allocated) and warm (a kept rasterizer, as the viewer's render thread
//! composites), plus `IbravrModel`'s one-shot float composite.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use scenegraph::{IbravrModel, Quad3, RasterSettings, Rasterizer, SceneNode, Texture};
use std::hint::black_box;
use std::sync::Arc;
use visapult_bench::{median_secs, report_baseline};
use volren::{
    combustion_jet, render_cost_samples, render_region, render_region_rgba8, slab_planes, AmrHierarchy, Axis,
    RenderSettings, TransferFunction, ViewOrientation,
};

fn bench_slab_sizes(c: &mut Criterion) {
    let tf = TransferFunction::combustion_default();
    let settings = RenderSettings::with_size(64, 64);
    let mut group = c.benchmark_group("render_region_slab");
    group.sample_size(20);
    for &depth in &[8usize, 16, 32] {
        let slab = combustion_jet((64, 64, depth), 0.5, 9);
        group.throughput(Throughput::Elements(slab.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("64x64x{depth}")),
            &slab,
            |b, slab| {
                b.iter(|| black_box(render_region(slab, Axis::Z, &tf, slab.value_range(), &settings)));
            },
        );
    }
    group.finish();
}

fn bench_image_sizes(c: &mut Criterion) {
    let tf = TransferFunction::combustion_default();
    let slab = combustion_jet((48, 48, 16), 0.5, 9);
    let range = slab.value_range();
    let mut group = c.benchmark_group("render_region_image");
    group.sample_size(20);
    for &px in &[64usize, 128, 256] {
        let settings = RenderSettings::with_size(px, px);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{px}px")),
            &settings,
            |b, settings| {
                b.iter(|| black_box(render_region(&slab, Axis::Z, &tf, range, settings)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_slab_sizes, bench_image_sizes);

/// (name, slab dims, image edge, step).
type Shape = (&'static str, (usize, usize, usize), usize, f32);

/// The kernel's regimes.  The first three are each the per-PE slab and image
/// of a ledger workload, at the unit step every scenario uses — where the
/// opacity correction needs no `powf`.
const SHAPES: [Shape; 4] = [
    // wan_wire: every voxel column is named by 64 pixels.
    ("upsampled", (64, 64, 4), 512, 1.0),
    // corridor_stream: every column is named by 4 pixels.
    ("matched", (128, 128, 32), 256, 1.0),
    // The playbacks: one column in 16 is named at all.
    ("downsampled", (128, 128, 16), 32, 1.0),
    // `matched` at two samples per voxel: no workload's shape, but the only
    // committed number for a spacing other than 1, which keeps one libm
    // `powf` per sample.
    ("fine_step", (128, 128, 32), 256, 0.5),
];

/// (name, volume dims, per-PE texture edge, viewer window edge).
type SceneShape = (&'static str, (usize, usize, usize), usize, usize);

/// The viewer's scene on four ledger workloads (2 PEs each).
const SCENES: [SceneShape; 4] = [
    ("wan_wire", (64, 64, 4), 512, 384),
    ("corridor_stream", (128, 128, 64), 256, 192),
    ("playback", (128, 128, 16), 32, 96),
    ("exhibit_floor", (32, 32, 16), 64, 192),
];

/// What the viewer's scene graph holds once both PEs' frames are in: per PE,
/// the slab's RGBA8 texture on its quad and its AMR grid, built the way the
/// back end builds them.
fn viewer_scene(dims: (usize, usize, usize), edge: usize) -> Vec<SceneNode> {
    let (pes, tf) = (2, TransferFunction::combustion_default());
    let volume = combustion_jet(dims, 0.5, 11);
    let mut nodes = Vec::new();
    for pe in 0..pes {
        let planes = slab_planes(dims.2, pe, pes);
        let slab = volume.subvolume((0, 0, planes.start), (dims.0, dims.1, planes.len()));
        let texels = render_region_rgba8(&slab, Axis::Z, &tf, (0.0, 1.5), &RenderSettings::with_size(edge, edge));
        let (nx, ny) = (dims.0 as f32, dims.1 as f32);
        let quad = Quad3 {
            center: [
                (nx - 1.0) / 2.0,
                (ny - 1.0) / 2.0,
                planes.start as f32 + planes.len() as f32 / 2.0 - 0.5,
            ],
            u: [nx / 2.0, 0.0, 0.0],
            v: [0.0, ny / 2.0, 0.0],
        };
        let z0 = planes.start as f32;
        let segments = AmrHierarchy::from_volume(&slab, 16, 0.3, 2)
            .to_line_segments()
            .into_iter()
            .map(|(a, b)| ([a[0], a[1], a[2] + z0], [b[0], b[1], b[2] + z0]))
            .collect();
        nodes.push(SceneNode::TextureQuad {
            image: Texture::rgba8(edge, edge, texels.into()).expect("a whole texture"),
            quad,
        });
        nodes.push(SceneNode::Lines {
            segments: Arc::new(segments),
            color: [0.4, 0.9, 0.4, 0.8],
        });
    }
    nodes
}

/// The composite cases of the baseline, one line each.
fn composite_cases(samples: usize) -> Vec<String> {
    let view = ViewOrientation::new(8.0, 4.0);
    let mut cases: Vec<String> = SCENES
        .iter()
        .map(|&(name, dims, edge, window)| {
            let nodes = viewer_scene(dims, edge);
            let settings = RasterSettings::framing_volume(dims, window, window);
            let segments: usize = nodes
                .iter()
                .map(|n| match n {
                    SceneNode::Lines { segments, .. } => segments.len(),
                    _ => 0,
                })
                .sum();
            let cold_s = median_secs(samples, || {
                let mut raster = Rasterizer::new(&view, settings);
                black_box(raster.composite(black_box(&nodes)));
            });
            let mut raster = Rasterizer::new(&view, settings);
            raster.composite(&nodes);
            let warm_s = median_secs(samples, || {
                black_box(raster.composite(black_box(&nodes)));
            });
            format!(
                "    \"composite_{name}\": {{ \"median_s\": {warm_s:.9}, \"cold_s\": {cold_s:.9}, \"window\": {window}, \"textures\": \"2x{edge}x{edge}\", \"segments\": {segments} }}"
            )
        })
        .collect();
    // IBRAVR's one-shot float composite (Figure 6): a fresh rasterizer per
    // call, so nothing is kept.
    let tf = TransferFunction::combustion_default();
    let model = IbravrModel::from_volume(
        &combustion_jet((128, 128, 64), 0.5, 11),
        Axis::Z,
        2,
        &tf,
        &RenderSettings::with_size(256, 256),
    );
    let one_shot_s = median_secs(samples, || {
        black_box(model.composite(&view, 192, 192));
    });
    cases.push(format!(
        "    \"composite_ibravr_one_shot\": {{ \"median_s\": {one_shot_s:.9}, \"window\": 192, \"textures\": \"2x256x256 float\" }}"
    ));
    cases
}

fn write_baseline() {
    let tf = TransferFunction::combustion_default();
    let samples = 30;
    let cases: Vec<String> = SHAPES
        .iter()
        .map(|&(name, dims, edge, step)| {
            let slab = combustion_jet(dims, 0.5, 9);
            let range = slab.value_range();
            let settings = RenderSettings {
                step,
                ..RenderSettings::with_size(edge, edge)
            };
            render_region(&slab, Axis::Z, &tf, range, &settings); // warm
            let median_s = median_secs(samples, || {
                black_box(render_region(black_box(&slab), Axis::Z, &tf, range, &settings));
            });
            let rgba8_s = median_secs(samples, || {
                black_box(render_region_rgba8(black_box(&slab), Axis::Z, &tf, range, &settings));
            });
            // One ray per distinct column, `1 / step` samples per voxel along
            // it, before early termination.
            let cast_samples = render_cost_samples(dims.0.min(edge) * dims.1.min(edge) * dims.2, &settings);
            format!(
                "    \"{name}\": {{ \"median_s\": {median_s:.9}, \"rgba8_s\": {rgba8_s:.9}, \"slab\": \"{}x{}x{}\", \"image\": {edge}, \"step\": {step}, \"cast_samples\": {cast_samples}, \"ns_per_cast_sample\": {:.2} }}",
                dims.0,
                dims.1,
                dims.2,
                median_s * 1e9 / cast_samples as f64,
            )
        })
        .collect();
    let cases = [cases, composite_cases(samples)].concat();
    let json = format!(
        "{{\n  \"bench\": \"volren_render_region\",\n  \"samples\": {samples},\n  \"cases\": {{\n{}\n  }}\n}}\n",
        cases.join(",\n")
    );
    report_baseline("volren", &json);
}

fn main() {
    // `cargo test` runs bench targets with `--test`; do nothing there.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    // Baseline first, on a cold process; VISAPULT_BASELINE_ONLY=1 regenerates
    // the committed JSON without the criterion groups (as in `service`).
    write_baseline();
    if std::env::var_os("VISAPULT_BASELINE_ONLY").is_none() {
        benches();
    }
}
