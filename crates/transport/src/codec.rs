//! The versioned wire codec: length-prefixed frames carrying the gossip
//! messages as real bytes.
//!
//! In the simulator the protocol messages ([`NylonMsg`], [`BaselineMsg`])
//! travel as in-memory enums and only their *modeled* size touches the
//! bandwidth accounting. On a real socket they must be bytes. A frame is:
//!
//! ```text
//! [u32 body length][u8 version][src endpoint 6B][dst endpoint 6B][message]
//! ```
//!
//! all little-endian, one frame per UDP datagram. The `src`/`dst` fields
//! carry the protocol's *virtual* endpoints (the same synthetic address
//! plan the simulated fabric assigns), which is what lets the user-space
//! NAT emulator rewrite the source endpoint exactly like a NAT device
//! rewrites an IP header — without raw sockets. The emulator only ever
//! parses and rewrites the fixed-size header ([`peek_header`],
//! [`rewrite_src`]); protocol bytes stay opaque to it.
//!
//! Decoding is total: truncated, oversized, version-mismatched or
//! otherwise malformed input yields a [`CodecError`], never a panic.

use std::fmt;

use nylon::message::{NylonMsg, WireEntry};
use nylon_gossip::{BaselineMsg, NodeDescriptor};
use nylon_net::{Endpoint, Ip, NatClass, NatType, PeerId, Port};
use nylon_sim::SimDuration;

/// Current wire-format version; bumped on any layout change.
pub const WIRE_VERSION: u8 = 1;

/// Hard cap on descriptors per message, bounding allocations on malformed
/// or hostile input (honest views hold a few dozen entries).
pub const MAX_ENTRIES: usize = 4096;

/// Hard cap on the declared frame body length (a full view exchange is a
/// few hundred bytes).
pub const MAX_FRAME_BODY: usize = 1 << 20;

/// Bytes of the frame header after the length field (version + src + dst).
const HEADER_BYTES: usize = 1 + ENDPOINT_BYTES * 2;
/// Bytes of an encoded endpoint (ip + port).
const ENDPOINT_BYTES: usize = 6;
/// Offset of the `src` endpoint within a frame.
const SRC_OFFSET: usize = 4 + 1;
/// Bytes of an encoded descriptor (id, endpoint, class, age).
const DESCRIPTOR_BYTES: usize = 4 + ENDPOINT_BYTES + 1 + 2;
/// Bytes of an encoded routing entry (descriptor, TTL, hops).
const ENTRY_BYTES: usize = DESCRIPTOR_BYTES + 4 + 1;
/// Bytes of an entry count.
const COUNT_BYTES: usize = 2;

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the declared or structural end of the frame.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes that were left.
        available: usize,
    },
    /// The declared body length disagrees with the datagram length.
    LengthMismatch {
        /// Length declared in the prefix.
        declared: usize,
        /// Bytes actually present after the prefix.
        actual: usize,
    },
    /// The declared body length exceeds [`MAX_FRAME_BODY`].
    Oversized(usize),
    /// The frame was written by an incompatible codec version.
    VersionMismatch {
        /// Version found on the wire.
        got: u8,
    },
    /// Unknown message discriminant.
    UnknownKind(u8),
    /// Unknown NAT class discriminant.
    UnknownClass(u8),
    /// An entry count above [`MAX_ENTRIES`].
    TooManyEntries(usize),
    /// Bytes left over after the message body was fully decoded.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, available } => {
                write!(f, "truncated frame: needed {needed} more bytes, had {available}")
            }
            CodecError::LengthMismatch { declared, actual } => {
                write!(f, "length prefix declares {declared} body bytes but {actual} are present")
            }
            CodecError::Oversized(n) => write!(f, "declared body of {n} bytes exceeds the cap"),
            CodecError::VersionMismatch { got } => {
                write!(f, "wire version {got} is not the supported version {WIRE_VERSION}")
            }
            CodecError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            CodecError::UnknownClass(c) => write!(f, "unknown NAT class discriminant {c}"),
            CodecError::TooManyEntries(n) => {
                write!(f, "entry count {n} exceeds the cap of {MAX_ENTRIES}")
            }
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the message body"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A sequential little-endian reader over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reads from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { needed: n, available: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("take(2) yields 2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("take(4) yields 4 bytes")))
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn encode_endpoint(out: &mut Vec<u8>, ep: Endpoint) {
    put_u32(out, ep.ip.0);
    put_u16(out, ep.port.0);
}

fn decode_endpoint(r: &mut Reader<'_>) -> Result<Endpoint, CodecError> {
    let ip = Ip(r.u32()?);
    let port = Port(r.u16()?);
    Ok(Endpoint::new(ip, port))
}

fn encode_class(out: &mut Vec<u8>, class: NatClass) {
    let b = match class {
        NatClass::Public => 0u8,
        NatClass::Natted(NatType::FullCone) => 1,
        NatClass::Natted(NatType::RestrictedCone) => 2,
        NatClass::Natted(NatType::PortRestrictedCone) => 3,
        NatClass::Natted(NatType::Symmetric) => 4,
    };
    out.push(b);
}

fn decode_class(r: &mut Reader<'_>) -> Result<NatClass, CodecError> {
    match r.u8()? {
        0 => Ok(NatClass::Public),
        1 => Ok(NatClass::Natted(NatType::FullCone)),
        2 => Ok(NatClass::Natted(NatType::RestrictedCone)),
        3 => Ok(NatClass::Natted(NatType::PortRestrictedCone)),
        4 => Ok(NatClass::Natted(NatType::Symmetric)),
        other => Err(CodecError::UnknownClass(other)),
    }
}

fn encode_descriptor(out: &mut Vec<u8>, d: &NodeDescriptor) {
    put_u32(out, d.id.0);
    encode_endpoint(out, d.addr);
    encode_class(out, d.class);
    put_u16(out, d.age);
}

fn decode_descriptor(r: &mut Reader<'_>) -> Result<NodeDescriptor, CodecError> {
    let id = PeerId(r.u32()?);
    let addr = decode_endpoint(r)?;
    let class = decode_class(r)?;
    let age = r.u16()?;
    let mut d = NodeDescriptor::new(id, addr, class);
    d.age = age;
    Ok(d)
}

/// Routing TTLs ride as u32 milliseconds (the modeled 2-byte TTL of
/// [`nylon::message::ENTRY_BYTES`] would truncate the paper's 90 s hole
/// timeout; the real encoding spends 2 more bytes to stay lossless).
fn encode_entry(out: &mut Vec<u8>, e: &WireEntry) {
    encode_descriptor(out, &e.descriptor);
    put_u32(out, u32::try_from(e.ttl.as_millis()).unwrap_or(u32::MAX));
    out.push(e.hops);
}

fn decode_entry(r: &mut Reader<'_>) -> Result<WireEntry, CodecError> {
    let descriptor = decode_descriptor(r)?;
    let ttl = SimDuration::from_millis(r.u32()? as u64);
    let hops = r.u8()?;
    Ok(WireEntry::new(descriptor, ttl, hops))
}

fn encode_entries(out: &mut Vec<u8>, entries: &[WireEntry]) {
    put_u16(out, u16::try_from(entries.len()).expect("views never exceed u16::MAX entries"));
    for e in entries {
        encode_entry(out, e);
    }
}

fn decode_entries(r: &mut Reader<'_>) -> Result<Vec<WireEntry>, CodecError> {
    let count = r.u16()? as usize;
    if count > MAX_ENTRIES {
        return Err(CodecError::TooManyEntries(count));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(decode_entry(r)?);
    }
    Ok(out)
}

/// A protocol message the codec can put on (and take off) the wire.
///
/// Implementations write their own discriminant byte first, so one frame
/// layout carries any message set.
pub trait WireMessage: Sized {
    /// Appends the message (discriminant + body) to `out`.
    fn encode_body(&self, out: &mut Vec<u8>);

    /// The number of bytes [`WireMessage::encode_body`] appends, computed
    /// without encoding.
    fn encoded_len(&self) -> usize;

    /// Decodes a message written by [`WireMessage::encode_body`].
    fn decode_body(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

const KIND_NYLON_REQUEST: u8 = 1;
const KIND_NYLON_RESPONSE: u8 = 2;
const KIND_NYLON_OPEN_HOLE: u8 = 3;
const KIND_NYLON_PING: u8 = 4;
const KIND_NYLON_PONG: u8 = 5;
const KIND_BASELINE_REQUEST: u8 = 16;
const KIND_BASELINE_RESPONSE: u8 = 17;

impl WireMessage for NylonMsg {
    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            NylonMsg::Request { src, dest, via, hops, entries } => {
                out.push(KIND_NYLON_REQUEST);
                encode_descriptor(out, src);
                put_u32(out, dest.0);
                put_u32(out, via.0);
                out.push(*hops);
                encode_entries(out, entries);
            }
            NylonMsg::Response { from, dest, via, hops, entries } => {
                out.push(KIND_NYLON_RESPONSE);
                put_u32(out, from.0);
                put_u32(out, dest.0);
                put_u32(out, via.0);
                out.push(*hops);
                encode_entries(out, entries);
            }
            NylonMsg::OpenHole { src, dest, via, hops } => {
                out.push(KIND_NYLON_OPEN_HOLE);
                encode_descriptor(out, src);
                put_u32(out, dest.0);
                put_u32(out, via.0);
                out.push(*hops);
            }
            NylonMsg::Ping { from } => {
                out.push(KIND_NYLON_PING);
                put_u32(out, from.0);
            }
            NylonMsg::Pong { from } => {
                out.push(KIND_NYLON_PONG);
                put_u32(out, from.0);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            NylonMsg::Request { entries, .. } => {
                DESCRIPTOR_BYTES + 4 + 4 + 1 + COUNT_BYTES + ENTRY_BYTES * entries.len()
            }
            NylonMsg::Response { entries, .. } => {
                4 + 4 + 4 + 1 + COUNT_BYTES + ENTRY_BYTES * entries.len()
            }
            NylonMsg::OpenHole { .. } => DESCRIPTOR_BYTES + 4 + 4 + 1,
            NylonMsg::Ping { .. } | NylonMsg::Pong { .. } => 4,
        }
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            KIND_NYLON_REQUEST => Ok(NylonMsg::Request {
                src: decode_descriptor(r)?,
                dest: PeerId(r.u32()?),
                via: PeerId(r.u32()?),
                hops: r.u8()?,
                entries: decode_entries(r)?,
            }),
            KIND_NYLON_RESPONSE => Ok(NylonMsg::Response {
                from: PeerId(r.u32()?),
                dest: PeerId(r.u32()?),
                via: PeerId(r.u32()?),
                hops: r.u8()?,
                entries: decode_entries(r)?,
            }),
            KIND_NYLON_OPEN_HOLE => Ok(NylonMsg::OpenHole {
                src: decode_descriptor(r)?,
                dest: PeerId(r.u32()?),
                via: PeerId(r.u32()?),
                hops: r.u8()?,
            }),
            KIND_NYLON_PING => Ok(NylonMsg::Ping { from: PeerId(r.u32()?) }),
            KIND_NYLON_PONG => Ok(NylonMsg::Pong { from: PeerId(r.u32()?) }),
            other => Err(CodecError::UnknownKind(other)),
        }
    }
}

impl WireMessage for BaselineMsg {
    fn encode_body(&self, out: &mut Vec<u8>) {
        let (kind, from, entries) = match self {
            BaselineMsg::Request { from, entries } => (KIND_BASELINE_REQUEST, from, entries),
            BaselineMsg::Response { from, entries } => (KIND_BASELINE_RESPONSE, from, entries),
        };
        out.push(kind);
        put_u32(out, from.0);
        put_u16(out, u16::try_from(entries.len()).expect("views never exceed u16::MAX entries"));
        for d in entries {
            encode_descriptor(out, d);
        }
    }

    fn encoded_len(&self) -> usize {
        let (BaselineMsg::Request { entries, .. } | BaselineMsg::Response { entries, .. }) = self;
        1 + 4 + COUNT_BYTES + DESCRIPTOR_BYTES * entries.len()
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let kind = r.u8()?;
        if kind != KIND_BASELINE_REQUEST && kind != KIND_BASELINE_RESPONSE {
            return Err(CodecError::UnknownKind(kind));
        }
        let from = PeerId(r.u32()?);
        let count = r.u16()? as usize;
        if count > MAX_ENTRIES {
            return Err(CodecError::TooManyEntries(count));
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(decode_descriptor(r)?);
        }
        if kind == KIND_BASELINE_REQUEST {
            Ok(BaselineMsg::Request { from, entries })
        } else {
            Ok(BaselineMsg::Response { from, entries })
        }
    }
}

/// A decoded frame: addressing header plus protocol payload.
#[derive(Debug, Clone)]
pub struct Frame<P> {
    /// Source (virtual) endpoint — post-NAT once the emulator forwarded it.
    pub src: Endpoint,
    /// Destination (virtual) endpoint the sender addressed.
    pub dst: Endpoint,
    /// The protocol message.
    pub payload: P,
}

/// The addressing header of a frame, parsed without touching the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Source (virtual) endpoint.
    pub src: Endpoint,
    /// Destination (virtual) endpoint.
    pub dst: Endpoint,
}

/// Encodes one frame (one UDP datagram) into a fresh buffer of exactly
/// its length: one allocation.
pub fn encode_frame<P: WireMessage>(src: Endpoint, dst: Endpoint, payload: &P) -> Vec<u8> {
    let mut out = Vec::with_capacity(frame_len(payload));
    encode_frame_into(&mut out, src, dst, payload);
    out
}

/// The length of `payload`'s frame: length prefix, header and message.
fn frame_len<P: WireMessage>(payload: &P) -> usize {
    4 + HEADER_BYTES + payload.encoded_len()
}

/// Encodes one frame into `out`, replacing its contents: a sender that
/// reuses one buffer allocates nothing per frame once it has grown.
pub fn encode_frame_into<P: WireMessage>(
    out: &mut Vec<u8>,
    src: Endpoint,
    dst: Endpoint,
    payload: &P,
) {
    out.clear();
    put_u32(out, 0); // length back-patched below
    out.push(WIRE_VERSION);
    encode_endpoint(out, src);
    encode_endpoint(out, dst);
    payload.encode_body(out);
    debug_assert_eq!(out.len(), frame_len(payload), "encoded_len disagrees with encode_body");
    let body = u32::try_from(out.len() - 4).expect("frame bodies are far below 4 GiB");
    out[..4].copy_from_slice(&body.to_le_bytes());
}

/// Validates the length prefix and version, returning a reader positioned
/// at the `src` endpoint and the declared body length.
fn open_frame<'a>(buf: &'a [u8]) -> Result<Reader<'a>, CodecError> {
    let mut r = Reader::new(buf);
    let declared = r.u32()? as usize;
    if declared > MAX_FRAME_BODY {
        return Err(CodecError::Oversized(declared));
    }
    if declared != buf.len() - 4 {
        return Err(CodecError::LengthMismatch { declared, actual: buf.len() - 4 });
    }
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(CodecError::VersionMismatch { got: version });
    }
    Ok(r)
}

/// Decodes one full frame. The whole buffer must be exactly one frame;
/// trailing bytes are rejected.
pub fn decode_frame<P: WireMessage>(buf: &[u8]) -> Result<Frame<P>, CodecError> {
    let mut r = open_frame(buf)?;
    let src = decode_endpoint(&mut r)?;
    let dst = decode_endpoint(&mut r)?;
    let payload = P::decode_body(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes(r.remaining()));
    }
    Ok(Frame { src, dst, payload })
}

/// Parses only the addressing header (the NAT emulator's view of a frame:
/// it routes and rewrites without ever decoding protocol bytes).
pub fn peek_header(buf: &[u8]) -> Result<FrameHeader, CodecError> {
    let mut r = open_frame(buf)?;
    let src = decode_endpoint(&mut r)?;
    let dst = decode_endpoint(&mut r)?;
    Ok(FrameHeader { src, dst })
}

/// Rewrites the `src` endpoint of an encoded frame in place — the
/// user-space equivalent of a NAT device rewriting the IP/UDP header.
pub fn rewrite_src(buf: &mut [u8], src: Endpoint) -> Result<(), CodecError> {
    if buf.len() < 4 + HEADER_BYTES {
        return Err(CodecError::Truncated { needed: 4 + HEADER_BYTES, available: buf.len() });
    }
    buf[SRC_OFFSET..SRC_OFFSET + 4].copy_from_slice(&src.ip.0.to_le_bytes());
    buf[SRC_OFFSET + 4..SRC_OFFSET + 6].copy_from_slice(&src.port.0.to_le_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(id: u32, class: NatClass, age: u16) -> NodeDescriptor {
        let mut d =
            NodeDescriptor::new(PeerId(id), Endpoint::new(Ip(0x0100_0000 + id), Port(9000)), class);
        d.age = age;
        d
    }

    fn sample_request() -> NylonMsg {
        NylonMsg::Request {
            src: desc(1, NatClass::Natted(NatType::PortRestrictedCone), 3),
            dest: PeerId(2),
            via: PeerId(1),
            hops: 0,
            entries: vec![
                WireEntry::new(desc(3, NatClass::Public, 0), SimDuration::ZERO, 0),
                WireEntry::new(
                    desc(4, NatClass::Natted(NatType::Symmetric), 9),
                    SimDuration::from_secs(90),
                    2,
                ),
            ],
        }
    }

    fn eps() -> (Endpoint, Endpoint) {
        (Endpoint::new(Ip(0x0A00_0001), Port(5000)), Endpoint::new(Ip(0x0100_0002), Port(9000)))
    }

    #[test]
    fn nylon_request_round_trips() {
        let (src, dst) = eps();
        let msg = sample_request();
        let buf = encode_frame(src, dst, &msg);
        let frame: Frame<NylonMsg> = decode_frame(&buf).expect("round trip");
        assert_eq!(frame.src, src);
        assert_eq!(frame.dst, dst);
        match (frame.payload, msg) {
            (
                NylonMsg::Request { src: a, dest: b, via: c, hops: d, entries: e },
                NylonMsg::Request { src: a2, dest: b2, via: c2, hops: d2, entries: e2 },
            ) => {
                assert_eq!((a, b, c, d), (a2, b2, c2, d2));
                assert_eq!(e, e2);
            }
            _ => panic!("kind changed in flight"),
        }
    }

    /// `encode_frame` reserves each frame's exact length up front, so a
    /// frame costs one allocation whatever its kind and size.
    #[test]
    fn a_fresh_frame_is_allocated_once_at_its_exact_length() {
        fn exact<P: WireMessage>(msg: &P) {
            let (src, dst) = eps();
            let buf = encode_frame(src, dst, msg);
            assert_eq!(buf.capacity(), buf.len());
        }
        let entry = |i: u32| WireEntry::new(desc(i, NatClass::Public, 1), SimDuration::ZERO, 0);
        let src = desc(1, NatClass::Natted(NatType::Symmetric), 2);
        let (dest, via, hops) = (PeerId(2), PeerId(3), 1);
        exact(&NylonMsg::OpenHole { src, dest, via, hops });
        exact(&NylonMsg::Ping { from: PeerId(1) });
        exact(&NylonMsg::Pong { from: PeerId(1) });
        for n in [0u32, 1, 16, 27] {
            exact(&NylonMsg::Request {
                src,
                dest,
                via,
                hops,
                entries: (0..n).map(entry).collect(),
            });
            exact(&NylonMsg::Response {
                from: PeerId(1),
                dest,
                via,
                hops,
                entries: (0..n).map(entry).collect(),
            });
            let view = || (0..n).map(|i| desc(i, NatClass::Public, 0)).collect();
            exact(&BaselineMsg::Request { from: PeerId(1), entries: view() });
            exact(&BaselineMsg::Response { from: PeerId(1), entries: view() });
        }
    }

    #[test]
    fn encoding_into_a_used_buffer_replaces_its_bytes() {
        let (src, dst) = eps();
        let mut buf = encode_frame(src, dst, &sample_request());
        let ping = NylonMsg::Ping { from: PeerId(4) };
        encode_frame_into(&mut buf, src, dst, &ping);
        assert_eq!(buf, encode_frame(src, dst, &ping));
    }

    #[test]
    fn baseline_round_trips() {
        let (src, dst) = eps();
        let msg = BaselineMsg::Response {
            from: PeerId(9),
            entries: vec![
                desc(1, NatClass::Public, 0),
                desc(2, NatClass::Natted(NatType::FullCone), 7),
            ],
        };
        let buf = encode_frame(src, dst, &msg);
        let frame: Frame<BaselineMsg> = decode_frame(&buf).expect("round trip");
        match frame.payload {
            BaselineMsg::Response { from, entries } => {
                assert_eq!(from, PeerId(9));
                assert_eq!(entries.len(), 2);
                assert_eq!(entries[1].age, 7);
            }
            _ => panic!("kind changed in flight"),
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let (src, dst) = eps();
        let mut buf = encode_frame(src, dst, &NylonMsg::Ping { from: PeerId(1) });
        buf[4] = WIRE_VERSION + 1;
        let err = decode_frame::<NylonMsg>(&buf).expect_err("future version must not decode");
        assert_eq!(err, CodecError::VersionMismatch { got: WIRE_VERSION + 1 });
    }

    #[test]
    fn every_truncation_errors_without_panic() {
        let (src, dst) = eps();
        let buf = encode_frame(src, dst, &sample_request());
        for cut in 0..buf.len() {
            assert!(decode_frame::<NylonMsg>(&buf[..cut]).is_err(), "prefix of {cut} decoded");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (src, dst) = eps();
        let mut buf = encode_frame(src, dst, &NylonMsg::Pong { from: PeerId(3) });
        // Growing the datagram without fixing the prefix: length mismatch.
        buf.push(0);
        assert!(matches!(decode_frame::<NylonMsg>(&buf), Err(CodecError::LengthMismatch { .. })));
        // Fixing the prefix but leaving junk after the body: trailing bytes.
        let body = (buf.len() - 4) as u32;
        buf[..4].copy_from_slice(&body.to_le_bytes());
        assert!(matches!(decode_frame::<NylonMsg>(&buf), Err(CodecError::TrailingBytes(1))));
    }

    #[test]
    fn entry_count_is_capped() {
        let (src, dst) = eps();
        let mut buf = encode_frame(
            src,
            dst,
            &NylonMsg::Response {
                from: PeerId(1),
                dest: PeerId(2),
                via: PeerId(1),
                hops: 0,
                entries: Vec::new(),
            },
        );
        // Patch the entry count to a hostile value and re-declare length.
        let n = buf.len();
        buf[n - 2..].copy_from_slice(&u16::MAX.to_le_bytes());
        let err = decode_frame::<NylonMsg>(&buf).expect_err("hostile count must be rejected");
        assert_eq!(err, CodecError::TooManyEntries(u16::MAX as usize));
    }

    #[test]
    fn rewrite_src_changes_only_the_source() {
        let (src, dst) = eps();
        let msg = NylonMsg::Ping { from: PeerId(7) };
        let mut buf = encode_frame(src, dst, &msg);
        let public = Endpoint::new(Ip(0x4000_0001), Port(1033));
        rewrite_src(&mut buf, public).expect("frame is long enough");
        let frame: Frame<NylonMsg> = decode_frame(&buf).expect("still decodes");
        assert_eq!(frame.src, public);
        assert_eq!(frame.dst, dst);
        assert!(matches!(frame.payload, NylonMsg::Ping { from: PeerId(7) }));
        let header = peek_header(&buf).expect("header parses");
        assert_eq!(header, FrameHeader { src: public, dst });
    }

    #[test]
    fn ttl_saturates_instead_of_wrapping() {
        let entry = WireEntry::new(
            desc(1, NatClass::Natted(NatType::RestrictedCone), 0),
            SimDuration::from_millis(u64::MAX),
            1,
        );
        let mut out = Vec::new();
        encode_entry(&mut out, &entry);
        let back = decode_entry(&mut Reader::new(&out)).expect("decodes");
        assert_eq!(back.ttl, SimDuration::from_millis(u32::MAX as u64));
    }
}
