//! Shared `#[cfg(test)]` fixtures for the in-crate unit tests.
//!
//! The transport, viewer, backend and service tests all need the same few
//! things — a deterministic `FramePayload` and its chunks, a bundle of
//! striped links, and a way to drain receivers concurrently so bounded queues
//! do not deadlock the sender under test.  They used to each carry their own copy; this module is
//! the single home.

use crate::protocol::{FramePayload, FrameSegments, HeavyPayload, LightPayload};
use crate::transport::{
    drain_frames, plan_chunks, striped_link, FrameChunk, StripeReceiver, StripeSender, TransportConfig,
    MAX_FRAME_CHUNKS,
};
use bytes::Bytes;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use volren::RgbaImage;

/// `bytes::deep_copy_count` is process-global and tests run on parallel
/// threads: the tests that diff it, and the ones that make counted copies,
/// take turns through this.
pub(crate) fn copy_counter_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A frame with a byte-pattern texture (`tex_size`² RGBA8) and a small fixed
/// geometry block — exact enough for round-trip equality assertions.
pub(crate) fn sample_frame(rank: u32, frame: u32, tex_size: usize) -> FramePayload {
    let texture: Bytes = (0..tex_size * tex_size * 4)
        .map(|i| (i % 251) as u8)
        .collect::<Vec<u8>>()
        .into();
    FramePayload {
        light: LightPayload {
            frame,
            rank,
            texture_width: tex_size as u32,
            texture_height: tex_size as u32,
            bytes_per_pixel: 4,
            quad_center: [1.0, 2.0, 3.0],
            quad_u: [4.0, 0.0, 0.0],
            quad_v: [0.0, 5.0, 0.0],
            geometry_segments: 3,
        },
        heavy: HeavyPayload {
            frame,
            rank,
            texture_rgba8: texture,
            geometry: Arc::new(vec![([0.0; 3], [1.0; 3]), ([2.0; 3], [3.0; 3]), ([4.0; 3], [5.0; 3])]),
        },
    }
}

/// `frame` cut into the chunks a sender would put on the wire, in sequence
/// order (every `stripe_seq` 0: nothing has carried them yet).
pub(crate) fn chunk_frame(frame: &FramePayload, chunk_bytes: usize, stripes: u32) -> Vec<FrameChunk> {
    let segments = FrameSegments::encode(frame);
    let bufs = [
        segments.light.clone(),
        segments.heavy_header.clone(),
        segments.texture.clone(),
        segments.geometry.clone(),
    ];
    let plans = plan_chunks(segments.lens(), chunk_bytes, stripes);
    let total = plans.len() as u32;
    plans
        .iter()
        .map(|p| FrameChunk {
            frame: frame.light.frame,
            rank: frame.light.rank,
            seq: p.seq,
            total,
            stripe: p.stripe,
            stripe_seq: 0,
            segment: p.segment,
            payload: bufs[p.segment as usize].slice(p.start..p.start + p.len),
        })
        .collect()
}

/// A deterministic Fisher–Yates shuffle, one arrival order per `seed`.
pub(crate) fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = proptest::TestRng::for_test(&format!("arrival order {seed}"));
    for i in (1..items.len()).rev() {
        items.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
}

/// `frame`'s chunks cut from fresh copies of its segments: the same bytes
/// and windows as `chunk_frame`'s, in buffers nobody else holds.
fn foreign_chunks(frame: &FramePayload, chunk_bytes: usize, stripes: u32) -> Vec<FrameChunk> {
    let mut chunks = chunk_frame(frame, chunk_bytes, stripes);
    let segments = FrameSegments::encode(frame);
    let copies = [
        Bytes::from(segments.light.as_slice().to_vec()),
        Bytes::from(segments.heavy_header.as_slice().to_vec()),
        Bytes::from(segments.texture.as_slice().to_vec()),
        Bytes::from(segments.geometry.as_slice().to_vec()),
    ];
    let mut at = [0usize; 4];
    for chunk in &mut chunks {
        let segment = chunk.segment as usize;
        let len = chunk.payload.len();
        chunk.payload = copies[segment].slice(at[segment]..at[segment] + len);
        at[segment] += len;
    }
    chunks
}

/// One hostile chunk sequence per `seed`: 2 ranks × 3 frames, each arriving
/// whole, as a copy in buffers of its own, with one such chunk, in part, not
/// at all, or whole but lying about its geometry (so it cannot decode), all
/// shuffled together; then up to 11 more chunks slipped in anywhere —
/// duplicates and late chunks, seq ≥ total, disagreeing totals, totals past
/// [`MAX_FRAME_CHUNKS`] or zero, unknown segments, foreign windows, and
/// chunks of other (rank, frame)s interleaved.
pub(crate) fn hostile_chunks(seed: u64) -> Vec<FrameChunk> {
    let mut rng = proptest::TestRng::for_test(&format!("hostile chunks {seed}"));
    let mut below = |n: u64| rng.next_u64() % n.max(1);
    let (tex, chunk_bytes, stripes) = (1 + below(10) as usize, 16 + below(240) as usize, 1 + below(4) as u32);
    let mut sequence = Vec::new();
    for rank in 0..2 {
        for frame in 0..3 {
            let mut payload = sample_frame(rank, frame, tex);
            let mode = below(6);
            if mode == 5 {
                payload.light.geometry_segments += 1;
            }
            let mut chunks = match mode {
                1 => foreign_chunks(&payload, chunk_bytes, stripes),
                4 => Vec::new(),
                _ => chunk_frame(&payload, chunk_bytes, stripes),
            };
            if mode == 2 {
                let i = below(chunks.len() as u64) as usize;
                chunks[i].payload = Bytes::from(chunks[i].payload.as_slice().to_vec());
            }
            if mode == 3 {
                let keep = below(chunks.len() as u64) as usize;
                chunks.truncate(keep);
            }
            sequence.extend(chunks);
        }
    }
    shuffle(&mut sequence, seed);
    for _ in 0..below(12) {
        let at = below(sequence.len() as u64 + 1) as usize;
        let mut chunk = match sequence.get(below(sequence.len() as u64) as usize) {
            Some(chunk) => chunk.clone(),
            None => FrameChunk {
                frame: 0,
                rank: 0,
                seq: 0,
                total: 1,
                stripe: 0,
                stripe_seq: 0,
                segment: 0,
                payload: Bytes::from(vec![0u8; 4]),
            },
        };
        match below(9) {
            0 => {}                                                       // a duplicate, or a late chunk
            1 => chunk.seq = chunk.total.saturating_add(below(3) as u32), // seq ≥ total
            2 => chunk.total = chunk.total.wrapping_add(1),               // totals disagree
            3 => chunk.total = chunk.total.wrapping_sub(1),
            4 => chunk.total = [MAX_FRAME_CHUNKS, MAX_FRAME_CHUNKS + 1, u32::MAX][below(3) as usize],
            5 => chunk.total = 0,
            6 => chunk.segment = 4 + below(252) as u8,
            7 => chunk.payload = Bytes::from(chunk.payload.as_slice().to_vec()), // a foreign window
            _ => {
                // Another (rank, frame) altogether, interleaved.
                chunk.rank = below(4) as u32;
                chunk.frame = 3 + below(3) as u32;
                chunk.total = 1 + below(3) as u32;
                chunk.seq = below(chunk.total as u64) as u32;
            }
        }
        sequence.insert(at, chunk);
    }
    sequence
}

/// A frame whose solid-color texture maps onto a quad stacked along Z by
/// rank — what the viewer/compositor tests render and assert coverage on.
pub(crate) fn flat_frame(rank: u32, frame: u32, size: usize) -> FramePayload {
    let mut img = RgbaImage::new(size, size);
    for y in 0..size {
        for x in 0..size {
            img.set(x, y, [1.0, 0.3, 0.1, 0.9]);
        }
    }
    FramePayload {
        light: LightPayload {
            frame,
            rank,
            texture_width: size as u32,
            texture_height: size as u32,
            bytes_per_pixel: 4,
            quad_center: [15.5, 15.5, 4.0 + rank as f32 * 8.0],
            quad_u: [16.0, 0.0, 0.0],
            quad_v: [0.0, 16.0, 0.0],
            geometry_segments: 1,
        },
        heavy: HeavyPayload {
            frame,
            rank,
            texture_rgba8: img.to_rgba8().into(),
            geometry: Arc::new(vec![([0.0; 3], [31.0, 31.0, 31.0])]),
        },
    }
}

/// One striped link per PE.
pub(crate) fn links(pes: usize, config: &TransportConfig) -> (Vec<StripeSender>, Vec<StripeReceiver>) {
    let mut senders = Vec::with_capacity(pes);
    let mut receivers = Vec::with_capacity(pes);
    for _ in 0..pes {
        let (tx, rx) = striped_link(config);
        senders.push(tx);
        receivers.push(rx);
    }
    (senders, receivers)
}

/// Drain each receiver on its own thread — the stripe queues are bounded, so
/// a sender under test would block on a full queue with no concurrent reader
/// (that is the backpressure working as designed).
pub(crate) fn spawn_drains(receivers: Vec<StripeReceiver>) -> Vec<JoinHandle<Vec<FramePayload>>> {
    receivers
        .into_iter()
        .map(|mut rx| std::thread::spawn(move || drain_frames(&mut rx).unwrap()))
        .collect()
}

/// Join the drain threads and collect every frame they saw.
pub(crate) fn join_drains(drains: Vec<JoinHandle<Vec<FramePayload>>>) -> Vec<FramePayload> {
    let mut payloads = Vec::new();
    for d in drains {
        payloads.extend(d.join().unwrap());
    }
    payloads
}
