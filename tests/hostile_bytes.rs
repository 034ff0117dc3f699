//! Hostile bytes through the frame codec: a valid frame's `FrameSegments`
//! with one segment truncated, bit-flipped or overwritten with random bytes,
//! fed to `FrameSegments::decode` — and its light message to
//! `protocol::decode_light`.  Neither may panic, and neither may size an
//! allocation by a count it has not checked against the bytes present: a flip
//! of a count's top bit announces gigabytes, and a decode that believed it
//! would abort the test binary.  What each mutation must give:
//!
//! * a truncation, at any length: `Err`;
//! * a flipped bit in a field the decoder checks — a message header, the
//!   frame's identity, the texture's shape, the segment count: `Err`;
//! * a flipped bit anywhere else — the quad vectors, a texel, a coordinate:
//!   `Ok`, and the frame re-encodes to exactly the flipped bytes;
//! * random bytes: `Err`, or `Ok` re-encoding to exactly those bytes.
//!
//! Every truncation and every single-bit flip of a small frame is checked
//! exhaustively.  Random frames under random mutations run 500 cases in
//! tier-1; the `#[ignore]`d sweep runs 10⁵ (a few seconds in release):
//! `cargo test --release -q --test hostile_bytes -- --ignored`.

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use visapult::core::protocol::{decode_light, encode_light, FrameSegments};
use visapult::core::{FramePayload, HeavyPayload, LightPayload};

const SEGMENT_NAMES: [&str; 4] = ["light", "heavy header", "texture", "geometry"];

/// A frame with a `w`×`h` RGBA8 texture (both at least 1, so any change to
/// the announced shape changes its byte count) and `coords.len() / 6` grid
/// segments whose coordinates — and the quad's — are `coords`.
fn frame(w: u32, h: u32, coords: &[f32], identity: (u32, u32)) -> FramePayload {
    let at = |i: usize| {
        if coords.is_empty() {
            0.0
        } else {
            coords[i % coords.len()]
        }
    };
    let vec3 = |i: usize| [at(i), at(i + 1), at(i + 2)];
    let geometry: Vec<_> = (0..coords.len() / 6).map(|s| (vec3(6 * s), vec3(6 * s + 3))).collect();
    let (frame, rank) = identity;
    FramePayload {
        light: LightPayload {
            frame,
            rank,
            texture_width: w,
            texture_height: h,
            bytes_per_pixel: 4,
            quad_center: vec3(1),
            quad_u: vec3(2),
            quad_v: vec3(3),
            geometry_segments: geometry.len() as u32,
        },
        heavy: HeavyPayload {
            frame,
            rank,
            texture_rgba8: (0..w * h * 4).map(|i| (i * 37) as u8).collect::<Vec<u8>>().into(),
            geometry: Arc::new(geometry),
        },
    }
}

fn wire(s: &FrameSegments) -> [Vec<u8>; 4] {
    [&s.light, &s.heavy_header, &s.texture, &s.geometry].map(|b| b[..].to_vec())
}

fn with_segment(s: &FrameSegments, segment: usize, bytes: Vec<u8>) -> FrameSegments {
    let mut s = s.clone();
    let slot = match segment {
        0 => &mut s.light,
        1 => &mut s.heavy_header,
        2 => &mut s.texture,
        _ => &mut s.geometry,
    };
    *slot = Bytes::from(bytes);
    s
}

/// Whether a flipped bit in byte `at` of `segment` must fail
/// `FrameSegments::decode`: everything but the light message's three quad
/// vectors (bytes 29..65), the texels and the coordinates after the
/// geometry's count word is checked.
fn checked_by_decode(segment: usize, at: usize) -> bool {
    match segment {
        0 => !(29..65).contains(&at),
        1 => true,
        2 => false,
        _ => at < 4,
    }
}

/// Decode `s` and its light message; return whether each was `Ok`, after
/// checking an `Ok` re-encodes to exactly the bytes it was decoded from.
/// Panics, naming `what`, if either decoder does.
fn decode_both(s: &FrameSegments, what: &str) -> (bool, bool) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let light = decode_light(&s.light).map(|l| encode_light(&l));
        let frame = s.clone().decode().map(|f| wire(&FrameSegments::encode(&f)));
        (light, frame)
    }));
    let Ok((light, frame)) = outcome else {
        panic!("a decoder panicked on {what}");
    };
    if let Ok(light) = &light {
        assert_eq!(
            light[..],
            s.light[..],
            "decode_light accepted {what} but re-encodes differently"
        );
    }
    if let Ok(frame) = &frame {
        assert_eq!(*frame, wire(s), "decode accepted {what} but re-encodes differently");
    }
    (frame.is_ok(), light.is_ok())
}

#[test]
fn the_unmutated_frame_decodes() {
    let s = FrameSegments::encode(&frame(3, 2, &[1.0, -2.5, 0.0, 7.0, 8.0, 9.5, 4.0], (7, 1)));
    assert_eq!(decode_both(&s, "the unmutated frame"), (true, true));
}

#[test]
fn every_truncation_of_every_segment_is_refused() {
    let s = FrameSegments::encode(&frame(3, 2, &[1.0, -2.5, 0.0, 7.0, 8.0, 9.5, 4.0, 3.0], (7, 1)));
    for (segment, bytes) in wire(&s).into_iter().enumerate() {
        for len in 0..bytes.len() {
            let what = format!("the {} cut to {len} of {} bytes", SEGMENT_NAMES[segment], bytes.len());
            let (frame_ok, light_ok) = decode_both(&with_segment(&s, segment, bytes[..len].to_vec()), &what);
            assert!(!frame_ok, "decode accepted {what}");
            assert!(segment != 0 || !light_ok, "decode_light accepted {what}");
        }
    }
}

#[test]
fn every_single_bit_flip_is_refused_or_decoded_to_exactly_the_flipped_bytes() {
    let s = FrameSegments::encode(&frame(3, 2, &[1.0, -2.5, 0.0, 7.0, 8.0, 9.5, 4.0, 3.0], (7, 1)));
    for (segment, bytes) in wire(&s).into_iter().enumerate() {
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                let what = format!("bit {bit} of byte {at} of the {} flipped", SEGMENT_NAMES[segment]);
                let (frame_ok, light_ok) = decode_both(&with_segment(&s, segment, flipped), &what);
                assert_eq!(frame_ok, !checked_by_decode(segment, at), "decode on {what}");
                // Alone, a light message checks only its 9-byte header.
                if segment == 0 {
                    assert_eq!(light_ok, at >= 9, "decode_light on {what}");
                }
            }
        }
    }
}

/// One random frame under one random mutation of one segment: 0 truncates,
/// 1 flips a bit, 2 overwrites with `noise`.
fn check(shape: (u32, u32, u32, u32), coords: &[f32], edit: (usize, u8, u64, u8), noise: Vec<u8>) {
    let (w, h, frame_no, rank) = shape;
    let (segment, kind, at, bit) = edit;
    let s = FrameSegments::encode(&frame(w, h, coords, (frame_no, rank)));
    let mut bytes = wire(&s)[segment].clone();
    let len = bytes.len() as u64;
    let what = match kind {
        0 => {
            let keep = (at % len) as usize;
            bytes.truncate(keep);
            format!("the {} cut to {keep} of {len} bytes", SEGMENT_NAMES[segment])
        }
        1 => {
            let at = (at % len) as usize;
            bytes[at] ^= 1 << bit;
            format!("bit {bit} of byte {at} of the {} flipped", SEGMENT_NAMES[segment])
        }
        _ => {
            bytes = noise;
            format!(
                "the {} replaced by {} random bytes",
                SEGMENT_NAMES[segment],
                bytes.len()
            )
        }
    };
    let flipped_at = (kind == 1).then_some((at % len) as usize);
    let (frame_ok, light_ok) = decode_both(&with_segment(&s, segment, bytes), &what);
    match (kind, flipped_at) {
        (0, _) => assert!(!frame_ok && (segment != 0 || !light_ok), "accepted {what}"),
        (_, Some(at)) => assert_eq!(frame_ok, !checked_by_decode(segment, at), "decode on {what}"),
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn hostile_segments_never_panic_a_decoder(
        shape in (1u32..40, 1u32..40, any::<u32>(), any::<u32>()),
        coords in vec(any::<f32>(), 0..400),
        edit in (0usize..4, 0u8..3, any::<u64>(), 0u8..8),
        noise in vec(any::<u8>(), 0..200),
    ) {
        check(shape, &coords, edit, noise);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100_000))]

    #[test]
    #[ignore = "10^5 cases; run in release with --ignored"]
    fn hostile_segments_never_panic_a_decoder_sweep(
        shape in (1u32..40, 1u32..40, any::<u32>(), any::<u32>()),
        coords in vec(any::<f32>(), 0..400),
        edit in (0usize..4, 0u8..3, any::<u64>(), 0u8..8),
        noise in vec(any::<u8>(), 0..200),
    ) {
        check(shape, &coords, edit, noise);
    }
}
