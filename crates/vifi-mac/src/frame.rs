//! Frames, 802.11b airtime, and the packed wire representation.
//!
//! All ViFi traffic is MAC-level broadcast (§4.8); logical addressing lives
//! in the payload, so [`Frame`] is generic over the protocol payload type.
//! The one thing the MAC must know about a frame is how long it occupies
//! the air, which at a fixed rate is a pure function of its size.
//!
//! The hot path additionally gets a zero-copy representation:
//! [`WireFrame`] packs the MAC header (src label, wire size, payload kind)
//! and the payload — encoded once at construction via [`WirePayload`] —
//! into a single [`Bytes`] buffer, so the engine's barrier collect/merge
//! phases pass reference-counted handles around instead of deep-cloning
//! owned payload structs. The typed repr is split reader/writer style:
//! [`FrameWriter`] appends little-endian fields into a growable buffer,
//! [`FrameReader`] reads them back without copying the underlying bytes,
//! and answers `None` for a field that runs past the end of the buffer.

use bytes::{BufMut, Bytes, BytesMut};
use vifi_phy::NodeId;
use vifi_sim::SimDuration;

/// MAC/PHY timing parameters. Defaults model 802.11b long-preamble DSSS at
/// the paper's fixed 1 Mbps rate (§5.1).
#[derive(Clone, Copy, Debug)]
pub struct MacParams {
    /// Data rate, bits per second.
    pub bitrate_bps: u64,
    /// PHY preamble + PLCP header duration (192 µs for 802.11b long
    /// preamble).
    pub phy_overhead: SimDuration,
    /// DIFS: idle time required before a transmission may start.
    pub difs: SimDuration,
    /// Backoff slot duration.
    pub slot: SimDuration,
    /// Contention window: backoff is a uniform number of slots in
    /// `[0, cw_slots)`. Broadcast frames use a fixed window (no exponential
    /// growth — §4.8 disables backoff escalation deliberately).
    pub cw_slots: u64,
    /// Slow-scale link quality above which a node senses another's carrier
    /// and above which an overlapping foreign transmission interferes at a
    /// receiver.
    pub sense_threshold: f64,
}

impl Default for MacParams {
    fn default() -> Self {
        MacParams {
            bitrate_bps: 1_000_000,
            phy_overhead: SimDuration::from_micros(192),
            difs: SimDuration::from_micros(50),
            slot: SimDuration::from_micros(20),
            cw_slots: 32,
            sense_threshold: 0.05,
        }
    }
}

impl MacParams {
    /// Check the invariants the medium relies on: a non-negative
    /// `sense_threshold`. Carrier-sense probes are planned only between
    /// contact candidates, whose skipped pairs have quality `0.0`; a
    /// negative (or NaN) threshold would make those pairs audible and
    /// change the model silently, so it is rejected.
    pub fn validate(&self) {
        assert!(
            self.sense_threshold >= 0.0,
            "MacParams::sense_threshold must be a non-negative number, got {}",
            self.sense_threshold
        );
    }

    /// Time on air for a frame of `size_bytes` (PHY overhead + serialization).
    pub fn airtime(&self, size_bytes: u32) -> SimDuration {
        let bits = size_bytes as u64 * 8;
        // Microseconds = bits / (bps / 1e6); computed in integer µs.
        let serialize_us = bits * 1_000_000 / self.bitrate_bps;
        self.phy_overhead + SimDuration::from_micros(serialize_us)
    }
}

/// A MAC frame: broadcast on the air, logically addressed inside `P`.
#[derive(Clone, Debug)]
pub struct Frame<P> {
    /// Transmitting node.
    pub src: NodeId,
    /// Size on the wire, bytes (drives airtime and backplane load).
    pub size_bytes: u32,
    /// Protocol payload (ViFi data/ack/beacon content).
    pub payload: P,
}

impl<P> Frame<P> {
    /// Construct a frame.
    pub fn new(src: NodeId, size_bytes: u32, payload: P) -> Self {
        Frame {
            src,
            size_bytes,
            payload,
        }
    }
}

/// Byte length of the packed [`WireFrame`] header:
/// `[src label u64][size_bytes u32][kind u8]`, all little-endian.
pub const WIRE_HEADER_LEN: usize = 13;

/// A protocol payload that knows how to pack itself into (and parse itself
/// back out of) a flat byte buffer.
///
/// The contract is lossless round-tripping: `decode(kind(), encoded) ==
/// Some(self)` field-for-field, with floats preserved bit-exactly.
pub trait WirePayload: Sized {
    /// Discriminant stored in the frame header's kind byte.
    fn kind(&self) -> u8;
    /// Append the packed payload body to `buf` (little-endian fields).
    fn encode_into(&self, buf: &mut BytesMut);
    /// Parse a payload of `kind` from `body`; `None` on malformed input.
    fn decode(kind: u8, body: &[u8]) -> Option<Self>;
    /// Parse a payload that may keep (zero-copy slices of) the shared
    /// `body` buffer instead of copying byte ranges out of it. Payloads
    /// with no owned byte fields can rely on this default.
    fn decode_owned(kind: u8, body: Bytes) -> Option<Self> {
        Self::decode(kind, &body)
    }
}

/// A MAC frame in packed wire form: one contiguous [`Bytes`] buffer,
/// header first ([`WIRE_HEADER_LEN`] bytes), payload after.
///
/// Cloning is an `Arc` bump — O(1) and allocation-free — which is what the
/// coupled engine's barrier paths rely on when the same frame fans out to
/// every in-range receiver.
#[derive(Clone, Debug)]
pub struct WireFrame {
    bytes: Bytes,
}

impl WireFrame {
    /// Encode `payload` once into a packed frame.
    ///
    /// `size_bytes` is the *modeled* size on the air (it drives airtime and
    /// backplane accounting), which is independent of the packed buffer's
    /// in-memory length.
    pub fn encode<P: WirePayload>(src: NodeId, size_bytes: u32, payload: &P) -> Self {
        let mut w = FrameWriter::with_capacity(WIRE_HEADER_LEN + 64);
        w.put_u64(src.label());
        w.put_u32(size_bytes);
        w.put_u8(payload.kind());
        payload.encode_into(&mut w.buf);
        WireFrame { bytes: w.freeze() }
    }

    /// Adopt an already-packed buffer; `None` if it is too short to hold
    /// the header.
    pub fn from_bytes(bytes: Bytes) -> Option<Self> {
        if bytes.len() < WIRE_HEADER_LEN {
            return None;
        }
        Some(WireFrame { bytes })
    }

    /// Reader over the header, which every `WireFrame` holds whole
    /// (`encode` writes it, `from_bytes` checks its length).
    fn header(&self) -> FrameReader<'_> {
        FrameReader::new(&self.bytes[..WIRE_HEADER_LEN])
    }

    /// Transmitting node, decoded from the header's src label.
    pub fn src(&self) -> NodeId {
        NodeId(self.header().get_u64(0).expect("whole header") as u32)
    }

    /// Modeled size on the wire, bytes.
    pub fn size_bytes(&self) -> u32 {
        self.header().get_u32(8).expect("whole header")
    }

    /// Payload kind tag.
    pub fn kind(&self) -> u8 {
        self.bytes[12]
    }

    /// The packed payload body (everything after the header), borrowed.
    pub fn payload_bytes(&self) -> &[u8] {
        &self.bytes[WIRE_HEADER_LEN..]
    }

    /// The whole packed buffer (header + payload), by reference-counted
    /// handle — this is what crosses shard boundaries.
    pub fn bytes(&self) -> Bytes {
        self.bytes.clone()
    }

    /// Time on air under `mac`, computed from the header's length field
    /// without decoding the payload.
    pub fn airtime(&self, mac: &MacParams) -> SimDuration {
        mac.airtime(self.size_bytes())
    }

    /// Decode the payload back into its typed form. Byte-carrying fields
    /// (a data frame's application body) come back as zero-copy slices of
    /// this frame's shared buffer, not fresh allocations.
    pub fn decode<P: WirePayload>(&self) -> Option<P> {
        P::decode_owned(self.kind(), self.bytes.slice(WIRE_HEADER_LEN..))
    }
}

/// Writer half of the repr split: appends little-endian fields into a
/// growable buffer, frozen into the immutable [`Bytes`] a [`WireFrame`]
/// carries.
pub struct FrameWriter {
    buf: BytesMut,
}

impl FrameWriter {
    /// New writer with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> Self {
        FrameWriter {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Append a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Append a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Append raw bytes.
    pub fn put_slice(&mut self, s: &[u8]) {
        self.buf.put_slice(s);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Freeze into the immutable buffer.
    pub fn freeze(self) -> Bytes {
        self.buf.freeze()
    }
}

impl std::ops::Deref for FrameWriter {
    type Target = BytesMut;
    fn deref(&self) -> &BytesMut {
        &self.buf
    }
}

impl std::ops::DerefMut for FrameWriter {
    fn deref_mut(&mut self) -> &mut BytesMut {
        &mut self.buf
    }
}

/// Reader half of the repr split: typed little-endian accessors over a
/// packed buffer. Purely positional — no state, no copies. Every getter
/// returns `None` when its field would run past the end of the buffer,
/// so a reader over any slice, however short, never panics.
#[derive(Clone, Copy)]
pub struct FrameReader<'a> {
    bytes: &'a [u8],
}

impl<'a> FrameReader<'a> {
    /// Reader over a packed buffer.
    pub fn new(bytes: &'a [u8]) -> Self {
        FrameReader { bytes }
    }

    /// The `N` bytes at `off`, if the buffer holds them.
    fn array<const N: usize>(&self, off: usize) -> Option<[u8; N]> {
        let field = self.bytes.get(off..off.checked_add(N)?)?;
        field.try_into().ok()
    }

    /// One byte at `off`.
    pub fn get_u8(&self, off: usize) -> Option<u8> {
        self.bytes.get(off).copied()
    }

    /// Little-endian u32 at `off`.
    pub fn get_u32(&self, off: usize) -> Option<u32> {
        self.array(off).map(u32::from_le_bytes)
    }

    /// Little-endian u64 at `off`.
    pub fn get_u64(&self, off: usize) -> Option<u64> {
        self.array(off).map(u64::from_le_bytes)
    }

    /// f64 from its bit pattern at `off`.
    pub fn get_f64(&self, off: usize) -> Option<f64> {
        self.get_u64(off).map(f64::from_bits)
    }

    /// Total buffer length.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airtime_500b_at_1mbps() {
        let p = MacParams::default();
        // 500 B = 4000 bits = 4000 µs + 192 µs preamble.
        assert_eq!(p.airtime(500), SimDuration::from_micros(4192));
    }

    #[test]
    fn airtime_scales_linearly() {
        let p = MacParams::default();
        let a1 = p.airtime(100);
        let a2 = p.airtime(200);
        let overhead = p.phy_overhead;
        assert_eq!((a2 - overhead).as_micros(), 2 * (a1 - overhead).as_micros());
    }

    #[test]
    fn airtime_at_higher_rate() {
        let p = MacParams {
            bitrate_bps: 11_000_000,
            ..MacParams::default()
        };
        // 500 B at 11 Mbps = 363 µs (integer division) + 192.
        assert_eq!(p.airtime(500), SimDuration::from_micros(363 + 192));
    }

    #[test]
    fn zero_byte_frame_still_costs_preamble() {
        let p = MacParams::default();
        assert_eq!(p.airtime(0), p.phy_overhead);
    }

    #[derive(Debug, PartialEq)]
    struct Probe {
        a: u64,
        b: f64,
    }

    impl WirePayload for Probe {
        fn kind(&self) -> u8 {
            42
        }
        fn encode_into(&self, buf: &mut BytesMut) {
            buf.put_u64_le(self.a);
            buf.put_u64_le(self.b.to_bits());
        }
        fn decode(kind: u8, body: &[u8]) -> Option<Self> {
            if kind != 42 || body.len() != 16 {
                return None;
            }
            let r = FrameReader::new(body);
            Some(Probe {
                a: r.get_u64(0)?,
                b: r.get_f64(8)?,
            })
        }
    }

    #[test]
    fn wire_frame_header_roundtrip() {
        let p = Probe { a: 77, b: -0.25 };
        let f = WireFrame::encode(NodeId(9), 512, &p);
        assert_eq!(f.src(), NodeId(9));
        assert_eq!(f.size_bytes(), 512);
        assert_eq!(f.kind(), 42);
        assert_eq!(f.decode::<Probe>(), Some(Probe { a: 77, b: -0.25 }));
    }

    #[test]
    fn wire_airtime_reads_length_field() {
        let p = Probe { a: 0, b: 0.0 };
        let mac = MacParams::default();
        let f = WireFrame::encode(NodeId(3), 500, &p);
        // Same figure as the typed path, derived from the packed header.
        assert_eq!(f.airtime(&mac), mac.airtime(500));
        assert_eq!(f.airtime(&mac), SimDuration::from_micros(4192));
    }

    #[test]
    fn wire_clone_shares_buffer() {
        let p = Probe { a: 1, b: 2.0 };
        let f = WireFrame::encode(NodeId(1), 100, &p);
        let g = f.clone();
        // Same underlying allocation: the handles view identical bytes at
        // the same address (Bytes clones are refcount bumps).
        assert_eq!(f.bytes().as_ptr(), g.bytes().as_ptr());
    }

    #[test]
    fn from_bytes_rejects_short_buffers() {
        assert!(WireFrame::from_bytes(Bytes::copy_from_slice(&[0u8; 5])).is_none());
        let p = Probe { a: 5, b: 1.5 };
        let f = WireFrame::encode(NodeId(2), 64, &p);
        let re = WireFrame::from_bytes(f.bytes()).unwrap();
        assert_eq!(re.decode::<Probe>(), Some(Probe { a: 5, b: 1.5 }));
    }

    #[test]
    fn reader_getters_reject_fields_past_the_end() {
        let r = FrameReader::new(&[1, 0, 0, 0, 2, 0, 0]);
        assert_eq!(r.get_u8(6), Some(0));
        assert_eq!(r.get_u8(7), None);
        assert_eq!(r.get_u32(0), Some(1));
        assert_eq!(r.get_u32(3), Some(2 << 8));
        assert_eq!(r.get_u32(4), None, "one byte short");
        assert_eq!(r.get_u64(0), None);
        assert_eq!(r.get_f64(usize::MAX - 3), None, "offset overflow");
        assert_eq!(FrameReader::new(&[]).get_u8(0), None);
    }

    #[test]
    fn nan_payload_survives_bit_exactly() {
        let p = Probe {
            a: 0,
            b: f64::from_bits(0x7ff8_0000_dead_beef),
        };
        let f = WireFrame::encode(NodeId(0), 10, &p);
        let q = f.decode::<Probe>().unwrap();
        assert_eq!(q.b.to_bits(), 0x7ff8_0000_dead_beef);
    }
}
