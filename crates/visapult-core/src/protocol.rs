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
//!
//! Every field is big-endian.  The codec reads them in place, off the
//! received bytes, with a reader whose every read is bounds-checked: a field
//! cut short is a [`VisapultError::Protocol`], never a panic, and no count
//! off the wire sizes an allocation before it has been checked against the
//! bytes actually present.  The AMR grid — 24 bytes a segment and, on small
//! textures, most of the frame — is written into one buffer sized up front
//! and read back 24 bytes at a time.

use crate::error::VisapultError;
use bytes::Bytes;
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

/// Start a message: its 9-byte header (magic, type, body length) in a buffer
/// with room for `capacity` bytes in all.
fn message_header(msg_type: u8, body_len: usize, capacity: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(capacity);
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.push(msg_type);
    out.extend_from_slice(&(body_len as u32).to_be_bytes());
    out
}

/// Append big-endian words.
fn put_u32s(out: &mut Vec<u8>, words: impl IntoIterator<Item = u32>) {
    for word in words {
        out.extend_from_slice(&word.to_be_bytes());
    }
}

/// Encode a light payload (including the message header).
pub fn encode_light(p: &LightPayload) -> Vec<u8> {
    let mut out = message_header(TYPE_LIGHT, LightPayload::ENCODED_LEN, 9 + LightPayload::ENCODED_LEN);
    put_u32s(
        &mut out,
        [p.frame, p.rank, p.texture_width, p.texture_height, p.bytes_per_pixel],
    );
    put_u32s(
        &mut out,
        [p.quad_center, p.quad_u, p.quad_v]
            .into_iter()
            .flatten()
            .map(f32::to_bits),
    );
    put_u32s(&mut out, [p.geometry_segments]);
    out
}

/// Wire bytes of one geometry segment: two 3-vectors of big-endian `f32`.
const SEGMENT_LEN: usize = 24;

/// The geometry block — segment count, then every segment's six
/// coordinates — written into one buffer sized up front.
fn encode_geometry(geometry: &[([f32; 3], [f32; 3])]) -> Vec<u8> {
    let mut out = vec![0u8; 4 + geometry.len() * SEGMENT_LEN];
    let (count, points) = out.split_at_mut(4);
    count.copy_from_slice(&(geometry.len() as u32).to_be_bytes());
    for (bytes, (a, b)) in points.chunks_exact_mut(SEGMENT_LEN).zip(geometry) {
        let coords = [a[0], a[1], a[2], b[0], b[1], b[2]];
        for (word, c) in bytes.chunks_exact_mut(4).zip(coords) {
            word.copy_from_slice(&c.to_be_bytes());
        }
    }
    out
}

/// One geometry segment back off its wire bytes.
fn decode_segment(bytes: &[u8; SEGMENT_LEN]) -> ([f32; 3], [f32; 3]) {
    let c = |i: usize| f32::from_be_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
    ([c(0), c(4), c(8)], [c(12), c(16), c(20)])
}

/// Big-endian fields read in place off the front of a byte slice.  A field
/// the slice is too short for is a [`VisapultError::Protocol`] carrying the
/// reader's `truncated` message — never a panic, and never a copy.
struct Reader<'a> {
    rest: &'a [u8],
    truncated: &'static str,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8], truncated: &'static str) -> Self {
        Reader { rest: bytes, truncated }
    }

    fn short(&self) -> VisapultError {
        VisapultError::Protocol(self.truncated.to_string())
    }

    fn u8(&mut self) -> Result<u8, VisapultError> {
        let (&byte, rest) = self.rest.split_first().ok_or_else(|| self.short())?;
        self.rest = rest;
        Ok(byte)
    }

    fn u32(&mut self) -> Result<u32, VisapultError> {
        let (word, rest) = self.rest.split_first_chunk::<4>().ok_or_else(|| self.short())?;
        self.rest = rest;
        Ok(u32::from_be_bytes(*word))
    }

    fn vec3(&mut self) -> Result<[f32; 3], VisapultError> {
        Ok([
            f32::from_bits(self.u32()?),
            f32::from_bits(self.u32()?),
            f32::from_bits(self.u32()?),
        ])
    }

    /// A message header: `(magic, type, body length)`.
    fn header(&mut self) -> Result<(u32, u8, usize), VisapultError> {
        Ok((self.u32()?, self.u8()?, self.u32()? as usize))
    }
}

fn check_magic(magic: u32) -> Result<(), VisapultError> {
    if magic != MAGIC {
        return Err(VisapultError::Protocol(format!("bad magic {magic:#x}")));
    }
    Ok(())
}

/// Decode a light payload from a full message (header included).
pub fn decode_light(msg: &[u8]) -> Result<LightPayload, VisapultError> {
    let (msg_type, body) = split_message(msg)?;
    if msg_type != TYPE_LIGHT {
        return Err(VisapultError::Protocol(format!(
            "expected light payload, got type {msg_type}"
        )));
    }
    let mut body = Reader::new(body, "light payload truncated");
    Ok(LightPayload {
        frame: body.u32()?,
        rank: body.u32()?,
        texture_width: body.u32()?,
        texture_height: body.u32()?,
        bytes_per_pixel: body.u32()?,
        quad_center: body.vec3()?,
        quad_u: body.vec3()?,
        quad_v: body.vec3()?,
        geometry_segments: body.u32()?,
    })
}

/// Split a message into its type and its body, checking the magic word and
/// that the body the header announces is all there.
fn split_message(msg: &[u8]) -> Result<(u8, &[u8]), VisapultError> {
    let mut r = Reader::new(msg, "message shorter than header");
    let (magic, msg_type, len) = r.header()?;
    check_magic(magic)?;
    let body = r.rest.get(..len).ok_or_else(|| {
        VisapultError::Protocol(format!(
            "message body truncated: expected {len} bytes, have {}",
            r.rest.len()
        ))
    })?;
    Ok((msg_type, body))
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
        let heavy = &frame.heavy;
        let body_len = 12 + heavy.texture_rgba8.len() + 4 + heavy.geometry.len() * SEGMENT_LEN;
        let mut header = message_header(TYPE_HEAVY, body_len, HEAVY_HEADER_LEN);
        put_u32s(&mut header, [heavy.frame, heavy.rank, heavy.texture_rgba8.len() as u32]);
        FrameSegments {
            light: Bytes::from(encode_light(&frame.light)),
            heavy_header: Bytes::from(header),
            texture: heavy.texture_rgba8.clone(),
            geometry: Bytes::from(encode_geometry(&heavy.geometry)),
        }
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
        let mut h = Reader::new(&self.heavy_header, "heavy header truncated");
        let (magic, msg_type, body_len) = h.header()?;
        let (frame, rank, tex_len) = (h.u32()?, h.u32()?, h.u32()? as usize);
        check_magic(magic)?;
        if msg_type != TYPE_HEAVY {
            return Err(VisapultError::Protocol(format!(
                "expected heavy payload, got type {msg_type}"
            )));
        }
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
        let mut g = Reader::new(&self.geometry, "heavy payload geometry count missing");
        let seg_count = g.u32()? as usize;
        if seg_count.checked_mul(SEGMENT_LEN) != Some(g.rest.len()) {
            return Err(VisapultError::Protocol("heavy payload geometry truncated".to_string()));
        }
        if seg_count != light.geometry_segments as usize {
            return Err(VisapultError::Protocol(format!(
                "geometry has {seg_count} segments but the metadata promises {}",
                light.geometry_segments
            )));
        }
        // Sized by the bytes present, which the count was just checked
        // against.  `chunks_exact` in array form: with slice chunks the
        // length was not known at the reads and decode took 7x as long.
        let (segments, _) = g.rest.as_chunks::<SEGMENT_LEN>();
        let geometry: Vec<_> = segments.iter().map(decode_segment).collect();
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
    use proptest::prelude::*;

    fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_be_bytes());
    }

    fn put_vec3(buf: &mut Vec<u8>, v: [f32; 3]) {
        for c in v {
            put_u32(buf, c.to_bits());
        }
    }

    fn frame_message(msg_type: u8, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(9 + body.len());
        put_u32(&mut out, MAGIC);
        out.push(msg_type);
        put_u32(&mut out, body.len() as u32);
        out.extend_from_slice(body);
        out
    }

    /// The light message written field by field into a body that is then
    /// copied behind its header, the way the codec wrote it before
    /// [`encode_light`] wrote in place.  Byte-identity oracle.
    fn encode_light_per_field(p: &LightPayload) -> Vec<u8> {
        let mut body = Vec::with_capacity(LightPayload::ENCODED_LEN);
        put_u32(&mut body, p.frame);
        put_u32(&mut body, p.rank);
        put_u32(&mut body, p.texture_width);
        put_u32(&mut body, p.texture_height);
        put_u32(&mut body, p.bytes_per_pixel);
        put_vec3(&mut body, p.quad_center);
        put_vec3(&mut body, p.quad_u);
        put_vec3(&mut body, p.quad_v);
        put_u32(&mut body, p.geometry_segments);
        frame_message(TYPE_LIGHT, &body)
    }

    /// The heavy message written as one copied buffer, the way the codec
    /// [`FrameSegments`] replaced wrote it.  Kept as the byte-identity oracle
    /// that pins the wire format.
    fn encode_heavy(p: &HeavyPayload) -> Vec<u8> {
        let mut body = Vec::with_capacity(16 + p.texture_rgba8.len() + p.geometry.len() * 24);
        put_u32(&mut body, p.frame);
        put_u32(&mut body, p.rank);
        put_u32(&mut body, p.texture_rgba8.len() as u32);
        body.extend_from_slice(&p.texture_rgba8);
        put_u32(&mut body, p.geometry.len() as u32);
        for (a, b) in p.geometry.iter() {
            put_vec3(&mut body, *a);
            put_vec3(&mut body, *b);
        }
        frame_message(TYPE_HEAVY, &body)
    }

    /// The byte-source trait the codec read through before [`Reader`]: every
    /// field through an owned copy of its bytes, the caller checking lengths
    /// up front.  Here only for the per-field decode below.
    trait Buf {
        fn remaining(&self) -> usize;

        fn copy_to_bytes(&mut self, n: usize) -> Vec<u8>;

        fn get_u8(&mut self) -> u8 {
            self.copy_to_bytes(1)[0]
        }

        fn get_u32(&mut self) -> u32 {
            let b = self.copy_to_bytes(4);
            u32::from_be_bytes([b[0], b[1], b[2], b[3]])
        }

        fn get_f32(&mut self) -> f32 {
            f32::from_bits(self.get_u32())
        }
    }

    impl Buf for &[u8] {
        fn remaining(&self) -> usize {
            self.len()
        }

        fn copy_to_bytes(&mut self, n: usize) -> Vec<u8> {
            let (head, tail) = self.split_at(n);
            *self = tail;
            head.to_vec()
        }
    }

    fn get_vec3(buf: &mut impl Buf) -> [f32; 3] {
        [buf.get_f32(), buf.get_f32(), buf.get_f32()]
    }

    fn parse_header_per_field(mut header: &[u8]) -> Result<(u8, usize), VisapultError> {
        if header.remaining() < 9 {
            return Err(VisapultError::Protocol("message shorter than header".to_string()));
        }
        let magic = header.get_u32();
        if magic != MAGIC {
            return Err(VisapultError::Protocol(format!("bad magic {magic:#x}")));
        }
        Ok((header.get_u8(), header.get_u32() as usize))
    }

    fn split_message_per_field(msg: &[u8]) -> Result<(u8, &[u8]), VisapultError> {
        let (msg_type, len) = parse_header_per_field(msg)?;
        if msg.len() < 9 + len {
            return Err(VisapultError::Protocol(format!(
                "message body truncated: expected {len} bytes, have {}",
                msg.len() - 9
            )));
        }
        Ok((msg_type, &msg[9..9 + len]))
    }

    /// [`decode_light`] as it read before [`Reader`]: the oracle.
    fn decode_light_per_field(msg: &[u8]) -> Result<LightPayload, VisapultError> {
        let (msg_type, mut body) = split_message_per_field(msg)?;
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

    /// [`FrameSegments::decode`] as it read before [`Reader`] — one allocation
    /// per field, one `push` per segment: the oracle.
    fn decode_per_field(s: FrameSegments) -> Result<FramePayload, VisapultError> {
        let light = decode_light_per_field(&s.light)?;
        let mut h: &[u8] = &s.heavy_header;
        if h.remaining() < HEAVY_HEADER_LEN {
            return Err(VisapultError::Protocol("heavy header truncated".to_string()));
        }
        let (msg_type, body_len) = parse_header_per_field(h)?;
        if msg_type != TYPE_HEAVY {
            return Err(VisapultError::Protocol(format!(
                "expected heavy payload, got type {msg_type}"
            )));
        }
        h = &h[9..];
        let frame = h.get_u32();
        let rank = h.get_u32();
        let tex_len = h.get_u32() as usize;
        if tex_len != s.texture.len() {
            return Err(VisapultError::Protocol(format!(
                "texture segment is {} bytes but the header says {tex_len}",
                s.texture.len()
            )));
        }
        if body_len != 12 + tex_len + s.geometry.len() {
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
        let mut g: &[u8] = &s.geometry;
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
                texture_rgba8: s.texture,
                geometry: Arc::new(geometry),
            },
            light,
        })
    }

    /// A decode outcome in a form two decoders can be compared by: the
    /// payload as its oracle-encoded wire bytes (so NaN coordinates compare by
    /// their bits), or the error text.
    fn outcome(result: Result<FramePayload, VisapultError>) -> Result<Vec<u8>, String> {
        result
            .map(|f| [encode_light_per_field(&f.light), encode_heavy(&f.heavy)].concat())
            .map_err(|e| e.to_string())
    }

    /// A frame whose coordinates are arbitrary bit patterns — NaNs,
    /// infinities and signed zeros included.
    fn arbitrary_frame(tex: (u32, u32), coords: &[f32], light_frame: u32) -> FramePayload {
        let (w, h) = tex;
        let at = |i: usize| coords[i % coords.len()];
        let vec3 = |i: usize| [at(i), at(i + 1), at(i + 2)];
        let geometry: Vec<_> = (0..coords.len() / 6).map(|s| (vec3(6 * s), vec3(6 * s + 3))).collect();
        FramePayload {
            light: LightPayload {
                frame: light_frame,
                rank: 1,
                texture_width: w,
                texture_height: h,
                bytes_per_pixel: 4,
                quad_center: vec3(0),
                quad_u: vec3(1),
                quad_v: vec3(2),
                geometry_segments: geometry.len() as u32,
            },
            heavy: HeavyPayload {
                frame: 9,
                rank: 1,
                texture_rgba8: (0..w * h * 4).map(|i| (i * 7) as u8).collect::<Vec<u8>>().into(),
                geometry: Arc::new(geometry),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        /// The in-place decode is the per-field decode: the same payload bit
        /// for bit, or the same error text, on valid frames and on frames
        /// truncated, bit-flipped or overwritten in any one segment.
        #[test]
        fn decode_matches_the_per_field_oracle(
            tex in (0u32..6, 0u32..6),
            coords in proptest::collection::vec(any::<f32>(), 1..60),
            identity_agrees in any::<bool>(),
            edit in (0usize..4, 0u8..4, any::<u64>(), 0u8..8),
            noise in proptest::collection::vec(any::<u8>(), 0..80),
        ) {
            let (segment, mutation, at, bit) = edit;
            let frame = arbitrary_frame(tex, &coords, if identity_agrees { 9 } else { 8 });
            let mut s = FrameSegments::encode(&frame);
            let seg = match segment {
                0 => &mut s.light,
                1 => &mut s.heavy_header,
                2 => &mut s.texture,
                _ => &mut s.geometry,
            };
            let len = seg.len() as u64;
            match mutation {
                0 => {}
                1 => *seg = seg.slice(..(at % (len + 1)) as usize),
                2 if len > 0 => {
                    let mut bytes = seg[..].to_vec();
                    bytes[(at % len) as usize] ^= 1 << bit;
                    *seg = Bytes::from(bytes);
                }
                _ => *seg = Bytes::from(noise),
            }
            let light = |decoded: Result<LightPayload, VisapultError>| {
                decoded.map(|l| encode_light_per_field(&l)).map_err(|e| e.to_string())
            };
            prop_assert_eq!(light(decode_light(&s.light)), light(decode_light_per_field(&s.light)));
            prop_assert_eq!(outcome(s.clone().decode()), outcome(decode_per_field(s)));
        }
    }

    #[test]
    fn hostile_counts_are_refused_before_anything_is_sized_by_them() {
        let mut s = FrameSegments::encode(&sample_frame());
        let mut geometry = s.geometry[..].to_vec();
        geometry[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        s.geometry = Bytes::from(geometry);
        let err = s.decode().unwrap_err();
        assert!(
            matches!(&err, VisapultError::Protocol(m) if m.contains("geometry truncated")),
            "{err:?}"
        );
        // A light header announcing a 4 GB body: refused, not read past.
        let mut light = encode_light(&sample_frame().light);
        light[5..9].copy_from_slice(&u32::MAX.to_be_bytes());
        let err = decode_light(&light).unwrap_err();
        assert!(
            matches!(&err, VisapultError::Protocol(m) if m.contains("message body truncated")),
            "{err:?}"
        );
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
        let _turn = crate::test_support::copy_counter_turn();
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
