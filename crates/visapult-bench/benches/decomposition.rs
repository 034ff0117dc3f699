//! Criterion bench: slab vs shaft vs block decomposition (design ablation).
//!
//! Object-order rendering cost per PE for the three Figure 4 decompositions
//! of the same volume; slabs are what IBRAVR needs, and this bench shows the
//! raw render cost is comparable, so choosing slabs costs nothing.
//!
//! CI compiles this bench and never runs it, and nothing gates its numbers.
//! It stays because no test, figure bin or ledger probe renders a shaft or a
//! block: this is the only place the paper's Fig. 4 alternatives are costed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use volren::{combustion_jet, decompose, render_region, Axis, Decomposition, RenderSettings, TransferFunction};

fn bench_decompositions(c: &mut Criterion) {
    let volume = combustion_jet((64, 48, 48), 0.5, 21);
    let tf = TransferFunction::combustion_default();
    let settings = RenderSettings::with_size(64, 64);
    let range = volume.value_range();
    let mut group = c.benchmark_group("decomposition_render");
    group.sample_size(20);
    for (name, strategy) in [
        ("slab_z", Decomposition::Slab(Axis::Z)),
        ("shaft_z", Decomposition::Shaft(Axis::Z)),
        ("block", Decomposition::Block),
    ] {
        let regions = decompose(volume.dims(), 8, strategy);
        group.bench_with_input(BenchmarkId::from_parameter(name), &regions, |b, regions| {
            b.iter(|| {
                for region in regions {
                    let sub = volume.subvolume(region.origin, region.dims);
                    black_box(render_region(&sub, Axis::Z, &tf, range, &settings));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decompositions);
criterion_main!(benches);
