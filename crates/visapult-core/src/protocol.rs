//! The Visapult wire protocol: light and heavy payloads over striped sockets.
//!
//! Appendix A: per timestep each back-end PE sends the viewer a *light
//! payload* — "visualization metadata \[that\] consists of texture size, bytes
//! per pixel, and geometric information used to place the texture in a 3D
//! scene ... on the order of 256 bytes" — followed by a *heavy payload* of
//! "raw pixel data, as well as any geometric data", typically 0.25–1 MB of
//! texture plus tens of kilobytes of AMR grid lines.
//!
//! Messages are length-prefixed and carry a magic word and type byte.  A
//! frame crosses the wire one way: [`FrameSegments::encode`] splits it into
//! shared segments, `transport::striped_link` chunks them onto stripes, and
//! the receiving `FrameAssembler` rejoins them and calls
//! [`FrameSegments::decode`].

use crate::error::VisapultError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::sync::Arc;

/// Protocol magic word ("VSPL").
pub const MAGIC: u32 = 0x5653_504c;
/// Message type byte for a light payload.
pub const TYPE_LIGHT: u8 = 1;
/// Message type byte for a heavy payload.
pub const TYPE_HEAVY: u8 = 2;

/// Visualization metadata for one (PE, timestep): everything the viewer needs
/// to place the incoming texture in its scene graph.
#[derive(Debug, Clone, PartialEq)]
pub struct LightPayload {
    /// Timestep number.
    pub frame: u32,
    /// Sending PE rank.
    pub rank: u32,
    /// Texture width in pixels.
    pub texture_width: u32,
    /// Texture height in pixels.
    pub texture_height: u32,
    /// Bytes per pixel of the heavy payload's texture (4 for RGBA8).
    pub bytes_per_pixel: u32,
    /// Centre of the quad the texture maps onto, in model coordinates.
    pub quad_center: [f32; 3],
    /// Half-extent vector along the texture's U direction.
    pub quad_u: [f32; 3],
    /// Half-extent vector along the texture's V direction.
    pub quad_v: [f32; 3],
    /// Number of line segments in the heavy payload's geometry block.
    pub geometry_segments: u32,
}

impl LightPayload {
    /// Encoded size in bytes (fixed): six `u32` fields plus three 3-vectors
    /// of `f32`.
    pub const ENCODED_LEN: usize = 6 * 4 + 9 * 4;
}

/// The visualization data itself: the rendered slab texture and any geometry.
///
/// Both members are shared: the texture is a refcounted [`Bytes`] buffer and
/// the geometry an `Arc`'d segment list, so a frame payload moves from the
/// back-end render loop through the per-PE channel into the viewer's scene
/// graph without its bytes ever being memcpy'd.
#[derive(Debug, Clone, PartialEq)]
pub struct HeavyPayload {
    /// Timestep number.
    pub frame: u32,
    /// Sending PE rank.
    pub rank: u32,
    /// RGBA8 texture bytes (`texture_width × texture_height × 4`), shared.
    pub texture_rgba8: Bytes,
    /// AMR grid line segments in model coordinates, shared.
    pub geometry: Arc<Vec<([f32; 3], [f32; 3])>>,
}

impl HeavyPayload {
    /// Total payload size in bytes (texture plus geometry).
    pub fn payload_bytes(&self) -> u64 {
        self.texture_rgba8.len() as u64 + (self.geometry.len() * 24) as u64
    }
}

/// One timestep's complete transmission from one PE.
#[derive(Debug, Clone, PartialEq)]
pub struct FramePayload {
    /// The metadata (sent first).
    pub light: LightPayload,
    /// The data (sent second).
    pub heavy: HeavyPayload,
}

impl FramePayload {
    /// Total bytes this frame contributes to the back-end → viewer link.
    pub fn wire_bytes(&self) -> u64 {
        LightPayload::ENCODED_LEN as u64 + self.heavy.payload_bytes()
    }

    /// Total *framed* bytes (message headers included) this frame occupies
    /// on the striped transport — always equal to what
    /// `StripeSender::send_frame` returns, so telemetry that logs before the
    /// send and counters summed after it agree.
    pub fn framed_wire_bytes(&self) -> u64 {
        // + the light message header (9), the heavy header segment, and the
        // geometry count word (4); the payload bytes are already counted.
        self.wire_bytes() + 9 + HEAVY_HEADER_LEN as u64 + 4
    }
}

fn put_vec3(buf: &mut BytesMut, v: [f32; 3]) {
    for c in v {
        buf.put_f32(c);
    }
}

fn get_vec3(buf: &mut impl Buf) -> [f32; 3] {
    [buf.get_f32(), buf.get_f32(), buf.get_f32()]
}

/// Encode a light payload (including the message header).
pub fn encode_light(p: &LightPayload) -> Vec<u8> {
    let mut body = BytesMut::with_capacity(LightPayload::ENCODED_LEN);
    body.put_u32(p.frame);
    body.put_u32(p.rank);
    body.put_u32(p.texture_width);
    body.put_u32(p.texture_height);
    body.put_u32(p.bytes_per_pixel);
    put_vec3(&mut body, p.quad_center);
    put_vec3(&mut body, p.quad_u);
    put_vec3(&mut body, p.quad_v);
    body.put_u32(p.geometry_segments);
    frame_message(TYPE_LIGHT, &body)
}

fn frame_message(msg_type: u8, body: &[u8]) -> Vec<u8> {
    let mut out = BytesMut::with_capacity(9 + body.len());
    out.put_u32(MAGIC);
    out.put_u8(msg_type);
    out.put_u32(body.len() as u32);
    out.put_slice(body);
    out.to_vec()
}

/// Decode a light payload from a full message (header included).
pub fn decode_light(msg: &[u8]) -> Result<LightPayload, VisapultError> {
    let (msg_type, mut body) = split_message(msg)?;
    if msg_type != TYPE_LIGHT {
        return Err(VisapultError::Protocol(format!(
            "expected light payload, got type {msg_type}"
        )));
    }
    if body.remaining() < LightPayload::ENCODED_LEN {
        return Err(VisapultError::Protocol("light payload truncated".to_string()));
    }
    Ok(LightPayload {
        frame: body.get_u32(),
        rank: body.get_u32(),
        texture_width: body.get_u32(),
        texture_height: body.get_u32(),
        bytes_per_pixel: body.get_u32(),
        quad_center: get_vec3(&mut body),
        quad_u: get_vec3(&mut body),
        quad_v: get_vec3(&mut body),
        geometry_segments: body.get_u32(),
    })
}

/// Parse a 9-byte message header into `(type, body length)`, checking the
/// magic word.
fn parse_header(mut header: &[u8]) -> Result<(u8, usize), VisapultError> {
    if header.remaining() < 9 {
        return Err(VisapultError::Protocol("message shorter than header".to_string()));
    }
    let magic = header.get_u32();
    if magic != MAGIC {
        return Err(VisapultError::Protocol(format!("bad magic {magic:#x}")));
    }
    Ok((header.get_u8(), header.get_u32() as usize))
}

fn split_message(msg: &[u8]) -> Result<(u8, &[u8]), VisapultError> {
    let (msg_type, len) = parse_header(msg)?;
    if msg.len() < 9 + len {
        return Err(VisapultError::Protocol(format!(
            "message body truncated: expected {len} bytes, have {}",
            msg.len() - 9
        )));
    }
    Ok((msg_type, &msg[9..9 + len]))
}

/// One frame split into its wire segments, each a shared [`Bytes`] buffer —
/// the zero-copy encoding the striped transport ships.
///
/// Concatenated in order the four segments are the wire format — the light
/// message followed by the heavy message — but the texture segment is an O(1)
/// refcount bump of the payload's own buffer rather than a copy, so a frame
/// is chunked onto stripes and reassembled on the far side without its pixel
/// data ever being memcpy'd.  This is the only frame codec.
#[derive(Debug, Clone)]
pub struct FrameSegments {
    /// The complete light-payload message (header + body).
    pub light: Bytes,
    /// The heavy message's header + fixed body prefix (magic, type, length,
    /// frame, rank, texture length): [`HEAVY_HEADER_LEN`] bytes.
    pub heavy_header: Bytes,
    /// The raw texture, shared with the payload (no copy).
    pub texture: Bytes,
    /// The geometry block: segment count + packed endpoints.
    pub geometry: Bytes,
}

/// Encoded size of [`FrameSegments::heavy_header`]: the 9-byte message header
/// plus frame, rank and texture length.
pub const HEAVY_HEADER_LEN: usize = 9 + 12;

impl FrameSegments {
    /// Encode a frame into its wire segments without copying the texture.
    pub fn encode(frame: &FramePayload) -> FrameSegments {
        let light = Bytes::from(encode_light(&frame.light));
        let heavy = &frame.heavy;
        let body_len = 12 + heavy.texture_rgba8.len() + 4 + heavy.geometry.len() * 24;
        let mut header = BytesMut::with_capacity(HEAVY_HEADER_LEN);
        header.put_u32(MAGIC);
        header.put_u8(TYPE_HEAVY);
        header.put_u32(body_len as u32);
        header.put_u32(heavy.frame);
        header.put_u32(heavy.rank);
        header.put_u32(heavy.texture_rgba8.len() as u32);
        let mut geometry = BytesMut::with_capacity(4 + heavy.geometry.len() * 24);
        geometry.put_u32(heavy.geometry.len() as u32);
        for (a, b) in heavy.geometry.iter() {
            put_vec3(&mut geometry, *a);
            put_vec3(&mut geometry, *b);
        }
        FrameSegments {
            light,
            heavy_header: header.freeze(),
            texture: heavy.texture_rgba8.clone(),
            geometry: geometry.freeze(),
        }
    }

    /// True when `other` views the exact same four buffer windows — the
    /// identity test a shared decode memo uses to prove two reassemblies are
    /// byte-for-byte the same frame without comparing the bytes.  Same
    /// allocation at the same window means same content (the buffers are
    /// immutable), so a hit is exact, never probabilistic.
    pub fn same_regions(&self, other: &FrameSegments) -> bool {
        self.light.ptr_eq(&other.light)
            && self.heavy_header.ptr_eq(&other.heavy_header)
            && self.texture.ptr_eq(&other.texture)
            && self.geometry.ptr_eq(&other.geometry)
    }

    /// Segment lengths in wire order.
    pub fn lens(&self) -> [usize; 4] {
        [
            self.light.len(),
            self.heavy_header.len(),
            self.texture.len(),
            self.geometry.len(),
        ]
    }

    /// Total framed bytes this frame puts on the wire.
    pub fn wire_bytes(&self) -> u64 {
        self.lens().iter().map(|l| *l as u64).sum()
    }

    /// Decode reassembled segments back into a frame, validating every length
    /// and the light/heavy identity fields against each other.  The texture
    /// passes through as-is — when the segments are rejoined slices of the
    /// sender's buffers this is a fully zero-copy decode.
    pub fn decode(self) -> Result<FramePayload, VisapultError> {
        let light = decode_light(&self.light)?;
        let mut h: &[u8] = &self.heavy_header;
        if h.remaining() < HEAVY_HEADER_LEN {
            return Err(VisapultError::Protocol("heavy header truncated".to_string()));
        }
        let (msg_type, body_len) = parse_header(h)?;
        if msg_type != TYPE_HEAVY {
            return Err(VisapultError::Protocol(format!(
                "expected heavy payload, got type {msg_type}"
            )));
        }
        h = &h[9..];
        let frame = h.get_u32();
        let rank = h.get_u32();
        let tex_len = h.get_u32() as usize;
        if tex_len != self.texture.len() {
            return Err(VisapultError::Protocol(format!(
                "texture segment is {} bytes but the header says {tex_len}",
                self.texture.len()
            )));
        }
        if body_len != 12 + tex_len + self.geometry.len() {
            return Err(VisapultError::Protocol("heavy body length mismatch".to_string()));
        }
        if frame != light.frame || rank != light.rank {
            return Err(VisapultError::Protocol(format!(
                "light ({}, {}) and heavy ({frame}, {rank}) payloads disagree on identity",
                light.frame, light.rank
            )));
        }
        let promised = (light.texture_width as usize)
            .checked_mul(light.texture_height as usize)
            .and_then(|texels| texels.checked_mul(light.bytes_per_pixel as usize));
        if promised != Some(tex_len) {
            return Err(VisapultError::Protocol(format!(
                "texture is {tex_len} bytes but the metadata promises {}x{}x{}",
                light.texture_width, light.texture_height, light.bytes_per_pixel
            )));
        }
        let mut g: &[u8] = &self.geometry;
        if g.remaining() < 4 {
            return Err(VisapultError::Protocol(
                "heavy payload geometry count missing".to_string(),
            ));
        }
        let seg_count = g.get_u32() as usize;
        if g.remaining() != seg_count * 24 {
            return Err(VisapultError::Protocol("heavy payload geometry truncated".to_string()));
        }
        if seg_count != light.geometry_segments as usize {
            return Err(VisapultError::Protocol(format!(
                "geometry has {seg_count} segments but the metadata promises {}",
                light.geometry_segments
            )));
        }
        let mut geometry = Vec::with_capacity(seg_count);
        for _ in 0..seg_count {
            geometry.push((get_vec3(&mut g), get_vec3(&mut g)));
        }
        Ok(FramePayload {
            heavy: HeavyPayload {
                frame,
                rank,
                texture_rgba8: self.texture,
                geometry: Arc::new(geometry),
            },
            light,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The heavy message written as one copied buffer, the way the codec
    /// [`FrameSegments`] replaced wrote it.  Kept as the byte-identity oracle
    /// that pins the wire format.
    fn encode_heavy(p: &HeavyPayload) -> Vec<u8> {
        let mut body = BytesMut::with_capacity(16 + p.texture_rgba8.len() + p.geometry.len() * 24);
        body.put_u32(p.frame);
        body.put_u32(p.rank);
        body.put_u32(p.texture_rgba8.len() as u32);
        body.put_slice(&p.texture_rgba8);
        body.put_u32(p.geometry.len() as u32);
        for (a, b) in p.geometry.iter() {
            put_vec3(&mut body, *a);
            put_vec3(&mut body, *b);
        }
        frame_message(TYPE_HEAVY, &body)
    }

    fn sample_frame() -> FramePayload {
        FramePayload {
            light: LightPayload {
                frame: 7,
                rank: 3,
                texture_width: 8,
                texture_height: 8,
                bytes_per_pixel: 4,
                quad_center: [1.0, 2.0, 3.0],
                quad_u: [4.0, 0.0, 0.0],
                quad_v: [0.0, 5.0, 0.0],
                geometry_segments: 2,
            },
            heavy: HeavyPayload {
                frame: 7,
                rank: 3,
                texture_rgba8: (0..8 * 8 * 4).map(|i| (i % 255) as u8).collect::<Vec<u8>>().into(),
                geometry: Arc::new(vec![([0.0; 3], [1.0, 1.0, 1.0]), ([2.0, 2.0, 2.0], [3.0, 3.0, 3.0])]),
            },
        }
    }

    #[test]
    fn light_payload_roundtrip_and_size() {
        let f = sample_frame();
        let enc = encode_light(&f.light);
        // The paper: metadata "is on the order of 256 bytes".
        assert!(enc.len() < 256, "light payload is {} bytes", enc.len());
        let dec = decode_light(&enc).unwrap();
        assert_eq!(dec, f.light);
    }

    #[test]
    fn segment_encode_matches_the_stream_oracle_byte_for_byte() {
        let f = sample_frame();
        let segments = FrameSegments::encode(&f);
        let mut oracle = encode_light(&f.light);
        oracle.extend_from_slice(&encode_heavy(&f.heavy));
        let mut concat = Vec::new();
        for seg in [
            &segments.light,
            &segments.heavy_header,
            &segments.texture,
            &segments.geometry,
        ] {
            concat.extend_from_slice(seg);
        }
        assert_eq!(concat, oracle, "segments concatenate to the wire encoding");
        assert_eq!(segments.wire_bytes(), oracle.len() as u64);
        assert_eq!(segments.heavy_header.len(), HEAVY_HEADER_LEN);
        // The payload-side accessor agrees with the encoded reality, so
        // telemetry logged before a send matches the counters summed after.
        assert_eq!(f.framed_wire_bytes(), segments.wire_bytes());
    }

    #[test]
    fn segment_encode_shares_the_texture_and_decode_round_trips() {
        let f = sample_frame();
        let before = bytes::deep_copy_count();
        let segments = FrameSegments::encode(&f);
        assert!(
            segments.texture.ptr_eq(&f.heavy.texture_rgba8),
            "the texture segment must be the payload's own buffer"
        );
        let texture = segments.texture.clone();
        let back = segments.decode().unwrap();
        assert_eq!(back, f);
        assert!(back.heavy.texture_rgba8.ptr_eq(&texture), "decode passes it through");
        assert_eq!(
            bytes::deep_copy_count(),
            before,
            "segment encode/decode must never deep-copy"
        );
    }

    #[test]
    fn segment_decode_rejects_inconsistent_frames() {
        let f = sample_frame();
        // Texture shorter than the header promises.
        let mut s = FrameSegments::encode(&f);
        s.texture = s.texture.slice(..s.texture.len() - 4);
        assert!(s.decode().is_err());
        // A heavy header cut short.
        let mut s = FrameSegments::encode(&f);
        s.heavy_header = s.heavy_header.slice(..HEAVY_HEADER_LEN - 1);
        assert!(s.decode().is_err());
        // Light and heavy disagreeing on identity, by frame or by rank.
        for (frame, rank) in [(f.light.frame + 1, f.light.rank), (f.light.frame, f.light.rank + 1)] {
            let mut wrong = f.clone();
            (wrong.heavy.frame, wrong.heavy.rank) = (frame, rank);
            let err = FrameSegments::encode(&wrong).decode().unwrap_err();
            assert!(
                matches!(&err, VisapultError::Protocol(m) if m.contains("identity")),
                "{err:?}"
            );
        }
        // Geometry truncated.
        let mut s = FrameSegments::encode(&f);
        s.geometry = s.geometry.slice(..s.geometry.len() - 1);
        assert!(s.decode().is_err());
        // Metadata promising a different texture size.
        let mut wrong = f.clone();
        wrong.light.texture_width += 1;
        assert!(FrameSegments::encode(&wrong).decode().is_err());
        // Metadata whose product does not fit: an error, not an overflow.
        let mut wrong = f.clone();
        (wrong.light.texture_width, wrong.light.texture_height) = (u32::MAX, u32::MAX);
        wrong.light.bytes_per_pixel = u32::MAX;
        assert!(FrameSegments::encode(&wrong).decode().is_err());
    }

    #[test]
    fn type_confusion_is_rejected() {
        let f = sample_frame();
        let (light, heavy) = (encode_light(&f.light), encode_heavy(&f.heavy));
        assert!(decode_light(&heavy).is_err());
        // A light message where the heavy header belongs.
        let mut s = FrameSegments::encode(&f);
        s.heavy_header = Bytes::from(light).slice(..HEAVY_HEADER_LEN);
        let err = s.decode().unwrap_err();
        assert!(
            matches!(&err, VisapultError::Protocol(m) if m.contains("expected heavy")),
            "{err:?}"
        );
    }

    #[test]
    fn corrupt_messages_are_rejected() {
        let f = sample_frame();
        let mut enc = encode_light(&f.light);
        enc[0] ^= 0xff; // break the magic
        assert!(decode_light(&enc).is_err());
        assert!(decode_light(&[1, 2, 3]).is_err());
        // The heavy header's magic is checked too.
        let mut s = FrameSegments::encode(&f);
        let mut header = s.heavy_header.to_vec();
        header[0] ^= 0xff;
        s.heavy_header = Bytes::from(header);
        let err = s.decode().unwrap_err();
        assert!(
            matches!(&err, VisapultError::Protocol(m) if m.contains("magic")),
            "{err:?}"
        );
    }

    #[test]
    fn wire_bytes_counts_light_and_heavy() {
        let f = sample_frame();
        assert_eq!(f.heavy.payload_bytes(), (8 * 8 * 4 + 2 * 24) as u64);
        assert_eq!(
            f.wire_bytes(),
            LightPayload::ENCODED_LEN as u64 + f.heavy.payload_bytes()
        );
    }
}
