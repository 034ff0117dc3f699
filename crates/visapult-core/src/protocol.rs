//! The Visapult wire protocol: light and heavy payloads over striped sockets.
//!
//! Appendix A: per timestep each back-end PE sends the viewer a *light
//! payload* — "visualization metadata \[that\] consists of texture size, bytes
//! per pixel, and geometric information used to place the texture in a 3D
//! scene ... on the order of 256 bytes" — followed by a *heavy payload* of
//! "raw pixel data, as well as any geometric data", typically 0.25–1 MB of
//! texture plus tens of kilobytes of AMR grid lines.
//!
//! Messages are length-prefixed and carry a magic word and type byte so the
//! same encoding works over in-process channels (as `FramePayload` structs)
//! and over real TCP sockets (via [`write_frame`]/[`read_frame`]).

use crate::error::VisapultError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{Read, Write};
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
/// message followed by the heavy message, which is what [`write_frame`] puts
/// on a byte stream — but the texture segment is an O(1) refcount bump of the
/// payload's own buffer rather than a copy, so a frame can be chunked onto
/// stripes and reassembled on the far side without its pixel data ever being
/// memcpy'd.  This is the only heavy-payload codec: [`read_frame`] slices the
/// received message back into segments and decodes through
/// [`FrameSegments::decode`].
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

    /// Slice a received light message and heavy message back into wire
    /// segments (O(1) windows into `heavy`, no copy).  Only the split points
    /// are checked here; [`FrameSegments::decode`] validates the content.
    fn from_messages(light: Bytes, heavy: &Bytes) -> Result<FrameSegments, VisapultError> {
        if heavy.len() < HEAVY_HEADER_LEN {
            return Err(VisapultError::Protocol("heavy header truncated".to_string()));
        }
        let mut tex_len_word = &heavy[HEAVY_HEADER_LEN - 4..HEAVY_HEADER_LEN];
        let texture_end = HEAVY_HEADER_LEN + tex_len_word.get_u32() as usize;
        if heavy.len() < texture_end {
            return Err(VisapultError::Protocol("heavy payload texture truncated".to_string()));
        }
        Ok(FrameSegments {
            light,
            heavy_header: heavy.slice(..HEAVY_HEADER_LEN),
            texture: heavy.slice(HEAVY_HEADER_LEN..texture_end),
            geometry: heavy.slice(texture_end..),
        })
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

/// Write one frame (light then heavy, the order the paper prescribes) to a
/// byte stream — used when the back-end → viewer link is a real TCP socket.
pub fn write_frame<W: Write>(w: &mut W, frame: &FramePayload) -> Result<(), VisapultError> {
    let segments = FrameSegments::encode(frame);
    for segment in [
        &segments.light,
        &segments.heavy_header,
        &segments.texture,
        &segments.geometry,
    ] {
        w.write_all(segment)?;
    }
    w.flush()?;
    Ok(())
}

/// The largest message body [`read_frame`] accepts.  The paper's heavy
/// payloads are 0.25–1 MB of texture plus tens of kilobytes of grid lines;
/// this leaves two orders of magnitude of headroom while keeping what a
/// hostile length word can make the reader allocate small.
const MAX_MESSAGE_LEN: usize = 64 << 20;

/// Read one complete message (header + body) of type `expected` from a byte
/// stream into a shared buffer, so decoders can slice it zero-copy.  The
/// header is validated before the body is allocated.
fn read_message<R: Read>(r: &mut R, expected: u8) -> Result<Bytes, VisapultError> {
    let mut header = [0u8; 9];
    r.read_exact(&mut header)?;
    let (msg_type, len) = parse_header(&header)?;
    if msg_type != expected {
        return Err(VisapultError::Protocol(format!(
            "expected message type {expected}, got type {msg_type}"
        )));
    }
    if len > MAX_MESSAGE_LEN {
        return Err(VisapultError::Protocol(format!(
            "message body of {len} bytes exceeds the {MAX_MESSAGE_LEN}-byte limit"
        )));
    }
    let mut msg = Vec::with_capacity(9 + len);
    msg.extend_from_slice(&header);
    msg.resize(9 + len, 0);
    r.read_exact(&mut msg[9..])?;
    Ok(Bytes::from(msg))
}

/// Read one frame (light then heavy) from a byte stream.  The heavy texture
/// is decoded as a zero-copy slice of the received message buffer.
pub fn read_frame<R: Read>(r: &mut R) -> Result<FramePayload, VisapultError> {
    let light = read_message(r, TYPE_LIGHT)?;
    let heavy = read_message(r, TYPE_HEAVY)?;
    FrameSegments::from_messages(light, &heavy)?.decode()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream encoding of a heavy payload, written the way the stream
    /// codec [`FrameSegments`] replaced wrote it: one copied buffer.  Kept as
    /// the byte-identity oracle that pins the wire format.
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

    fn stream_of(frame: &FramePayload) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame).unwrap();
        buf
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
    fn received_messages_split_into_zero_copy_segments() {
        let f = sample_frame();
        let light = Bytes::from(encode_light(&f.light));
        let heavy = Bytes::from(encode_heavy(&f.heavy));
        let segments = FrameSegments::from_messages(light, &heavy).unwrap();
        // The texture segment literally is a window into the message buffer,
        // and decode passes it through.
        let window = heavy.slice(HEAVY_HEADER_LEN..HEAVY_HEADER_LEN + f.heavy.texture_rgba8.len());
        assert!(segments.texture.ptr_eq(&window));
        let back = segments.decode().unwrap();
        assert_eq!(back, f);
        assert!(back.heavy.texture_rgba8.ptr_eq(&window));
        // A heavy message cut short of its header, or of its texture, has no
        // split points.
        let light = Bytes::from(encode_light(&f.light));
        assert!(FrameSegments::from_messages(light.clone(), &heavy.slice(..HEAVY_HEADER_LEN - 1)).is_err());
        assert!(FrameSegments::from_messages(light, &heavy.slice(..HEAVY_HEADER_LEN + 10)).is_err());
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
        assert_eq!(concat, oracle, "segments concatenate to the stream encoding");
        assert_eq!(stream_of(&f), concat, "write_frame writes exactly the segments");
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
        // Light and heavy disagreeing on identity.
        let mut wrong = f.clone();
        wrong.light.frame += 1;
        assert!(FrameSegments::encode(&wrong).decode().is_err());
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
        // A stream carrying the two messages in the wrong order.
        let swapped = [heavy, light].concat();
        assert!(read_frame(&mut swapped.as_slice()).is_err());
    }

    #[test]
    fn corrupt_messages_are_rejected() {
        let f = sample_frame();
        let mut enc = encode_light(&f.light);
        enc[0] ^= 0xff; // break the magic
        assert!(decode_light(&enc).is_err());
        assert!(decode_light(&[1, 2, 3]).is_err());
    }

    #[test]
    fn a_hostile_length_word_is_refused_before_anything_is_allocated() {
        let mut stream = MAGIC.to_be_bytes().to_vec();
        stream.push(TYPE_LIGHT);
        stream.extend_from_slice(&[0xff; 4]);
        let err = read_frame(&mut stream.as_slice()).unwrap_err();
        // Refused on the length itself: had the 4 GiB body been allocated and
        // read, the error would be the stream running dry instead.
        assert!(
            matches!(&err, VisapultError::Protocol(m) if m.contains("exceeds")),
            "{err:?}"
        );
    }

    #[test]
    fn a_stream_with_bad_magic_is_refused() {
        let mut stream = stream_of(&sample_frame());
        stream[0] ^= 0xff;
        let err = read_frame(&mut stream.as_slice()).unwrap_err();
        assert!(
            matches!(&err, VisapultError::Protocol(m) if m.contains("magic")),
            "{err:?}"
        );
    }

    #[test]
    fn a_stream_truncated_mid_body_is_an_error() {
        let stream = stream_of(&sample_frame());
        // Cut inside the heavy body, inside the light body, and inside a header.
        for keep in [stream.len() - 10, 30, 4] {
            assert!(read_frame(&mut &stream[..keep]).is_err(), "kept {keep} bytes");
        }
    }

    #[test]
    fn a_light_heavy_pair_that_disagree_on_identity_is_refused() {
        let f = sample_frame();
        for (frame, rank) in [(f.light.frame + 1, f.light.rank), (f.light.frame, f.light.rank + 1)] {
            let mut other = f.heavy.clone();
            other.frame = frame;
            other.rank = rank;
            let stream = [encode_light(&f.light), encode_heavy(&other)].concat();
            let err = read_frame(&mut stream.as_slice()).unwrap_err();
            assert!(
                matches!(&err, VisapultError::Protocol(m) if m.contains("identity")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn stream_roundtrip_over_a_cursor() {
        let f = sample_frame();
        let mut cursor = std::io::Cursor::new(stream_of(&f));
        let back = read_frame(&mut cursor).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn stream_roundtrip_over_real_tcp() {
        let f = sample_frame();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn({
            let f = f.clone();
            move || {
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                for _ in 0..3 {
                    write_frame(&mut stream, &f).unwrap();
                }
            }
        });
        let (mut conn, _) = listener.accept().unwrap();
        for _ in 0..3 {
            let got = read_frame(&mut conn).unwrap();
            assert_eq!(got, f);
        }
        sender.join().unwrap();
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
