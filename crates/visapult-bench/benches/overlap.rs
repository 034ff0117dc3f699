//! Criterion bench: serial vs overlapped back end (E3/E7 ablation).
//!
//! Runs the real pipeline (synthetic source, in-process viewer links) in both
//! execution modes on a laptop-scale dataset; the overlapped mode should show
//! the §4.3 pipelining win whenever load and render costs are comparable.

use criterion::{criterion_group, criterion_main, Criterion};
use dpss::DatasetDescriptor;
use std::hint::black_box;
use std::sync::Arc;
use visapult_core::backend::run_backend;
use visapult_core::transport::{drain_frames, striped_link, TransportConfig};
use visapult_core::{DataSource, ExecutionMode, PipelineConfig, SyntheticSource};

fn run_mode(mode: ExecutionMode) -> u64 {
    let config = PipelineConfig::small(2, 3, mode);
    let source: Arc<dyn DataSource> = Arc::new(SyntheticSource::new(DatasetDescriptor::small_combustion(3), 3));
    let mut senders = Vec::new();
    let mut drains = Vec::new();
    for _ in 0..config.pes {
        let (tx, mut rx) = striped_link(&TransportConfig::default());
        senders.push(tx);
        // Drain concurrently: the stripe queues are bounded, so an unread
        // link would backpressure the back end.
        drains.push(std::thread::spawn(move || drain_frames(&mut rx).unwrap()));
    }
    let report = run_backend(&config, source, senders, None).unwrap();
    for d in drains {
        d.join().unwrap();
    }
    report.total_wire_bytes()
}

fn bench_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_mode");
    group.sample_size(10);
    group.bench_function("serial", |b| b.iter(|| black_box(run_mode(ExecutionMode::Serial))));
    group.bench_function("overlapped", |b| {
        b.iter(|| black_box(run_mode(ExecutionMode::Overlapped)))
    });
    group.finish();
}

criterion_group!(benches, bench_modes);
criterion_main!(benches);
