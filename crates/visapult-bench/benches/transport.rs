//! Criterion bench: the striped zero-copy transport.
//!
//! Measures one frame's trip across the striped link — zero-copy segment
//! encode, chunking, stripe fan-out, out-of-order reassembly, decode — at
//! stripe counts 1/4/8 (unshaped, so the numbers are the transport's own
//! overhead, not the pacing), and `progressive_1k`: what a viewer link thread
//! asks of one `FrameAssembler` per frame on the `wan_wire` shape (a 512²
//! texture in 1 KB chunks over 8 stripes, the light and the texture prefix
//! polled after every chunk).  `threaded_wan_1k` is the `wan_wire` link
//! itself: a 1 MB frame in 1 KB chunks over 8 stripes at queue depth 16, the
//! sender on its own thread and the bench thread receiving and reassembling
//! as a viewer link thread does, so backpressure and wake-ups are in the
//! number.  `codec_geometry` is the codec alone on the
//! `playback_warm` shape, where the AMR grid, not the texture, is the
//! payload: encode plus decode of a frame with a 32² texture and 2 880 grid
//! segments (69 KB of geometry against 4 KB of pixels).
//!
//! Besides the criterion output, a custom `main` writes a
//! `target/BENCH_transport.json` baseline (median seconds per frame and
//! derived MB/s for each case, same schema as `BENCH_cache.json`) so
//! successive runs can be diffed mechanically.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use visapult_bench::{median_secs, report_baseline};
use visapult_core::protocol::{FramePayload, FrameSegments, HeavyPayload, LightPayload};
use visapult_core::transport::{
    striped_link, AssemblyEvent, FrameAssembler, FrameChunk, StripeReceiver, TransportConfig,
};

const TEX: usize = 256; // 256x256 RGBA8 = 256 KB per frame

/// Grid segments in a `codec_geometry` frame: 240 boxes of twelve edges.
const CODEC_SEGMENTS: usize = 2880;

fn frame_of(tex: usize, segments: usize) -> FramePayload {
    let texture: Vec<u8> = (0..tex * tex * 4).map(|i| (i % 251) as u8).collect();
    let geometry: Vec<([f32; 3], [f32; 3])> = (0..segments)
        .map(|i| ([i as f32, 0.0, 0.0], [i as f32, 1.0, 1.0]))
        .collect();
    FramePayload {
        light: LightPayload {
            frame: 0,
            rank: 0,
            texture_width: tex as u32,
            texture_height: tex as u32,
            bytes_per_pixel: 4,
            quad_center: [0.5; 3],
            quad_u: [1.0, 0.0, 0.0],
            quad_v: [0.0, 1.0, 0.0],
            geometry_segments: segments as u32,
        },
        heavy: HeavyPayload {
            frame: 0,
            rank: 0,
            texture_rgba8: texture.into(),
            geometry: Arc::new(geometry),
        },
    }
}

fn link_config(stripes: u32) -> TransportConfig {
    let mut c = TransportConfig::default()
        .with_stripes(stripes)
        .with_chunk_bytes(16 * 1024);
    c.queue_depth = 256; // deep enough that a round trip never backpressures
    c
}

/// One frame across the link and back out of the reassembler.
fn roundtrip(frame: &FramePayload, stripes: u32) -> usize {
    let (tx, mut rx) = striped_link(&link_config(stripes));
    tx.send_frame(frame).unwrap();
    drop(tx);
    let got = visapult_core::transport::drain_frames(&mut rx).unwrap();
    got.len()
}

fn bench_striped_roundtrip(c: &mut Criterion) {
    let frame = frame_of(TEX, 256);
    let bytes = frame.wire_bytes();
    let mut group = c.benchmark_group("transport_frame_roundtrip");
    group.throughput(Throughput::Bytes(bytes));
    for stripes in [1u32, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(stripes), &stripes, |b, &s| {
            b.iter(|| black_box(roundtrip(&frame, s)));
        });
    }
    group.finish();
}

/// A 512² frame as one link delivers it: 1 KB chunks dealt over 8 stripes,
/// in the order the receiver drains them.
fn progressive_chunks() -> Vec<FrameChunk> {
    let mut config = TransportConfig::default().with_stripes(8).with_chunk_bytes(1024);
    config.queue_depth = 2048;
    let (tx, mut rx) = striped_link(&config);
    tx.send_frame(&frame_of(512, 256)).unwrap();
    drop(tx);
    std::iter::from_fn(|| rx.try_recv_chunk()).collect()
}

/// The viewer's per-chunk calls on one assembler: `accept`, then the partial
/// light and the texture prefix.  Returns the prefix bytes seen, summed.
fn progressive(chunks: &[FrameChunk]) -> usize {
    let mut assembler = FrameAssembler::new();
    let mut seen = 0;
    for chunk in chunks {
        if let Ok(AssemblyEvent::Progress { rank, frame, .. }) = assembler.accept(chunk.clone()) {
            if assembler.partial_light(rank, frame).is_some() {
                seen += assembler.partial_texture(rank, frame).map_or(0, |prefix| prefix.len());
            }
        }
    }
    seen
}

fn bench_progressive(c: &mut Criterion) {
    let chunks = progressive_chunks();
    c.bench_function("transport_progressive_1k", |b| {
        b.iter(|| black_box(progressive(&chunks)));
    });
}

/// The `wan_wire` link kept open across frames: a sender thread that sends
/// one numbered frame per order, and the receiving end on the caller's
/// thread.
struct ThreadedLink {
    orders: Option<mpsc::Sender<()>>,
    sender: Option<JoinHandle<()>>,
    rx: StripeReceiver,
    assembler: FrameAssembler,
}

impl ThreadedLink {
    fn new(frame: FramePayload) -> Self {
        let config = TransportConfig {
            queue_depth: 16,
            ..TransportConfig::default().with_stripes(8).with_chunk_bytes(1024)
        };
        let (tx, rx) = striped_link(&config);
        let (orders, to_send) = mpsc::channel::<()>();
        let sender = std::thread::spawn(move || {
            let mut frame = frame;
            while to_send.recv().is_ok() {
                tx.send_frame(&frame).unwrap();
                frame.light.frame += 1;
                frame.heavy.frame += 1;
            }
        });
        ThreadedLink {
            orders: Some(orders),
            sender: Some(sender),
            rx,
            assembler: FrameAssembler::new(),
        }
    }

    /// One frame across: order it sent, then receive and reassemble it.
    /// Returns its wire bytes.
    fn one_frame(&mut self) -> u64 {
        if let Some(orders) = &self.orders {
            orders.send(()).unwrap();
        }
        loop {
            let chunk = self.rx.recv_chunk().unwrap();
            if let AssemblyEvent::Complete { wire_bytes, .. } = self.assembler.accept(chunk).unwrap() {
                return wire_bytes;
            }
        }
    }
}

impl Drop for ThreadedLink {
    fn drop(&mut self) {
        self.orders = None;
        if let Some(sender) = self.sender.take() {
            sender.join().unwrap();
        }
    }
}

fn bench_threaded(c: &mut Criterion) {
    let frame = frame_of(512, 256);
    let mut group = c.benchmark_group("transport_threaded_wan_1k");
    group.throughput(Throughput::Bytes(frame.wire_bytes()));
    let mut link = ThreadedLink::new(frame);
    group.bench_function("8_stripes_depth_16", |b| {
        b.iter(|| black_box(link.one_frame()));
    });
    group.finish();
}

/// What the back end's `send_frame` and a viewer link's `accept` spend on
/// the codec for one frame: encode, then decode the segments.
fn codec(frame: &FramePayload) -> usize {
    let decoded = FrameSegments::encode(frame).decode().unwrap();
    decoded.heavy.geometry.len()
}

fn bench_codec(c: &mut Criterion) {
    let frame = frame_of(32, CODEC_SEGMENTS);
    c.bench_function("transport_codec_geometry", |b| {
        b.iter(|| black_box(codec(&frame)));
    });
}

criterion_group!(
    benches,
    bench_striped_roundtrip,
    bench_progressive,
    bench_threaded,
    bench_codec
);

fn write_baseline() {
    let frame = frame_of(TEX, 256);
    let bytes = frame.wire_bytes();
    let samples = 30;

    let stripe_s: Vec<f64> = [1u32, 4, 8]
        .iter()
        .map(|&s| {
            median_secs(samples, || {
                black_box(roundtrip(&frame, s));
            })
        })
        .collect();

    let chunks = progressive_chunks();
    let progressive_s = median_secs(samples, || {
        black_box(progressive(&chunks));
    });

    let wan_frame = frame_of(512, 256);
    let wan_bytes = wan_frame.wire_bytes();
    let mut link = ThreadedLink::new(wan_frame);
    let threaded_s = median_secs(samples, || {
        black_box(link.one_frame());
    });
    drop(link);

    let codec_frame = frame_of(32, CODEC_SEGMENTS);
    let codec_s = median_secs(samples, || {
        black_box(codec(&codec_frame));
    });

    let mbps = |s: f64| bytes as f64 / s / 1e6;
    let json = format!(
        "{{\n  \"bench\": \"transport_frame_roundtrip\",\n  \"bytes_per_op\": {bytes},\n  \"samples\": {samples},\n  \"cases\": {{\n    \"stripes_1\": {{ \"median_s\": {:.9}, \"mbytes_per_s\": {:.1} }},\n    \"stripes_4\": {{ \"median_s\": {:.9}, \"mbytes_per_s\": {:.1} }},\n    \"stripes_8\": {{ \"median_s\": {:.9}, \"mbytes_per_s\": {:.1} }},\n    \"progressive_1k\": {{ \"median_s\": {progressive_s:.9}, \"chunks\": {} }},\n    \"threaded_wan_1k\": {{ \"median_s\": {threaded_s:.9}, \"mbytes_per_s\": {:.1} }},\n    \"codec_geometry\": {{ \"median_s\": {codec_s:.9}, \"segments\": {CODEC_SEGMENTS}, \"wire_bytes\": {} }}\n  }}\n}}\n",
        stripe_s[0],
        mbps(stripe_s[0]),
        stripe_s[1],
        mbps(stripe_s[1]),
        stripe_s[2],
        mbps(stripe_s[2]),
        chunks.len(),
        wan_bytes as f64 / threaded_s / 1e6,
        codec_frame.framed_wire_bytes(),
    );
    report_baseline("transport", &json);
}

fn main() {
    // `cargo test` runs bench targets with `--test`; do nothing there.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    benches();
    write_baseline();
}
