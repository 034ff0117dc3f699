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

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use visapult_bench::{median_secs, report_baseline};
use volren::{
    combustion_jet, render_cost_samples, render_region, render_region_rgba8, Axis, RenderSettings, TransferFunction,
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
