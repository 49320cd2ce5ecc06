//! Packed wire codec for [`VifiPayload`] and zero-copy field views.
//!
//! This module makes the protocol payloads first-class citizens of the
//! MAC's packed frame layer ([`vifi_mac::WireFrame`]): every payload kind
//! gets a flat little-endian layout, encoded once when the frame is built
//! and thereafter carried as a shared byte buffer. The engine's hot
//! per-receiver paths never decode the full payload — [`DataView`] and
//! [`AckView`] read the handful of header fields those paths need
//! (packet identity, flow endpoints, relay provenance) straight out of
//! the buffer at fixed offsets.
//!
//! Layouts (offsets relative to the payload body, after the frame
//! header; all integers little-endian, probabilities as IEEE-754 bit
//! patterns so round-trips are bit-exact):
//!
//! * **Data** (`kind` [`KIND_DATA`]): `origin u64 | seq u64 | flow_src
//!   u64 | flow_dst u64 | relayed_flag u8 | relayed_by u64 | bm_flag u8 |
//!   bm_high u64 | bm_mask u8 | app_len u32 | app bytes`.
//! * **Ack** (`kind` [`KIND_ACK`]): `from u64 | origin u64 | seq u64 |
//!   bm_flag u8 | bm_high u64 | bm_mask u8`.
//! * **Beacon** (`kind` [`KIND_BEACON`]): `node u64 | n_in u32 |
//!   n_in × (label u64, prob u64) | n_out u32 | n_out × (label u64, prob
//!   u64) | veh_flag u8 | [anchor_flag u8, anchor u64, prev_flag u8,
//!   prev u64, epoch u64, n_aux u32, n_aux × u64]`.
//!
//! Absent options are encoded as flag 0 with a zeroed value slot, so
//! every field of a given kind sits at a fixed offset — the price is a
//! few bytes of in-memory slack (the *modeled* wire size that drives
//! airtime is carried separately in the frame header and is unchanged).

use bytes::{BufMut, Bytes, BytesMut};
use vifi_mac::{FrameReader, WireFrame, WirePayload};
use vifi_phy::NodeId;

use crate::beacon::{BeaconPayload, VehicleInfo};
use crate::bitmap::WireBitmap;
use crate::endpoint::{AckFrame, DataFrame, VifiPayload};
use crate::ids::PacketId;

/// Kind byte for beacon payloads.
pub const KIND_BEACON: u8 = 0;
/// Kind byte for data payloads.
pub const KIND_DATA: u8 = 1;
/// Kind byte for ack payloads.
pub const KIND_ACK: u8 = 2;

// ---- Data body offsets --------------------------------------------------
const D_ORIGIN: usize = 0;
const D_SEQ: usize = 8;
const D_FLOW_SRC: usize = 16;
const D_FLOW_DST: usize = 24;
const D_RELAYED_FLAG: usize = 32; // opt-node block: flag u8 | label u64
const D_BM: usize = 41;
const D_APP_LEN: usize = 51;
const D_APP: usize = 55;

// ---- Ack body offsets ---------------------------------------------------
const A_FROM: usize = 0;
const A_ORIGIN: usize = 8;
const A_SEQ: usize = 16;
const A_BM: usize = 24;
const A_LEN: usize = 34;

// Bitmap block layout: `flag u8 | high u64 | mask u8` (10 bytes); the
// mask byte sits at `off + BM_MASK_OFF`.
const BM_MASK_OFF: usize = 9;

fn node(label: u64) -> NodeId {
    NodeId(label as u32)
}

fn put_opt_node(buf: &mut BytesMut, n: Option<NodeId>) {
    match n {
        Some(id) => {
            buf.put_u8(1);
            buf.put_u64_le(id.label());
        }
        None => {
            buf.put_u8(0);
            buf.put_u64_le(0);
        }
    }
}

/// An optional node at `off`; the outer `None` means the buffer ends
/// inside the block.
fn get_opt_node(r: FrameReader<'_>, off: usize) -> Option<Option<NodeId>> {
    Some(match r.get_u8(off)? {
        1 => Some(node(r.get_u64(off + 1)?)),
        _ => None,
    })
}

fn put_bitmap(buf: &mut BytesMut, bm: WireBitmap) {
    match bm {
        Some((high, mask)) => {
            buf.put_u8(1);
            buf.put_u64_le(high);
            buf.put_u8(mask);
        }
        None => {
            buf.put_u8(0);
            buf.put_u64_le(0);
            buf.put_u8(0);
        }
    }
}

/// A bitmap block at `off`; the outer `None` means the buffer ends inside
/// the block.
fn get_bitmap(r: FrameReader<'_>, off: usize) -> Option<WireBitmap> {
    Some(match r.get_u8(off)? {
        1 => Some((r.get_u64(off + 1)?, r.get_u8(off + BM_MASK_OFF)?)),
        _ => None,
    })
}

fn put_prob_list(buf: &mut BytesMut, list: &[(NodeId, f64)]) {
    buf.put_u32_le(list.len() as u32);
    for &(id, p) in list {
        buf.put_u64_le(id.label());
        buf.put_u64_le(p.to_bits());
    }
}

impl WirePayload for VifiPayload {
    fn kind(&self) -> u8 {
        match self {
            VifiPayload::Beacon(_) => KIND_BEACON,
            VifiPayload::Data(_) => KIND_DATA,
            VifiPayload::Ack(_) => KIND_ACK,
        }
    }

    fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            VifiPayload::Data(d) => {
                buf.put_u64_le(d.id.origin.label());
                buf.put_u64_le(d.id.seq);
                buf.put_u64_le(d.flow_src.label());
                buf.put_u64_le(d.flow_dst.label());
                put_opt_node(buf, d.relayed_by);
                put_bitmap(buf, d.bitmap);
                buf.put_u32_le(d.app.len() as u32);
                buf.put_slice(&d.app);
            }
            VifiPayload::Ack(a) => {
                buf.put_u64_le(a.from.label());
                buf.put_u64_le(a.id.origin.label());
                buf.put_u64_le(a.id.seq);
                put_bitmap(buf, a.bitmap);
            }
            VifiPayload::Beacon(b) => {
                buf.put_u64_le(b.node.label());
                put_prob_list(buf, &b.incoming);
                put_prob_list(buf, &b.outgoing);
                match &b.vehicle {
                    None => buf.put_u8(0),
                    Some(v) => {
                        buf.put_u8(1);
                        put_opt_node(buf, v.anchor);
                        put_opt_node(buf, v.prev_anchor);
                        buf.put_u64_le(v.epoch);
                        buf.put_u32_le(v.aux.len() as u32);
                        for id in &v.aux {
                            buf.put_u64_le(id.label());
                        }
                    }
                }
            }
        }
    }

    fn decode(kind: u8, body: &[u8]) -> Option<Self> {
        let r = FrameReader::new(body);
        match kind {
            KIND_DATA => decode_data(body, |start, len| {
                Bytes::copy_from_slice(&body[start..start + len])
            }),
            KIND_ACK => {
                if body.len() < A_LEN {
                    return None;
                }
                Some(VifiPayload::Ack(AckFrame {
                    from: node(r.get_u64(A_FROM)?),
                    id: PacketId {
                        origin: node(r.get_u64(A_ORIGIN)?),
                        seq: r.get_u64(A_SEQ)?,
                    },
                    bitmap: get_bitmap(r, A_BM)?,
                }))
            }
            KIND_BEACON => {
                let mut off = 0usize;
                let need = |off: usize, n: usize| off + n <= body.len();
                if !need(off, 8 + 4) {
                    return None;
                }
                let nd = node(r.get_u64(off)?);
                off += 8;
                let mut lists: [Vec<(NodeId, f64)>; 2] = [Vec::new(), Vec::new()];
                for list in lists.iter_mut() {
                    if !need(off, 4) {
                        return None;
                    }
                    let n = r.get_u32(off)? as usize;
                    off += 4;
                    if !need(off, n * 16) {
                        return None;
                    }
                    list.reserve(n);
                    for _ in 0..n {
                        list.push((node(r.get_u64(off)?), r.get_f64(off + 8)?));
                        off += 16;
                    }
                }
                let [incoming, outgoing] = lists;
                if !need(off, 1) {
                    return None;
                }
                let veh_flag = r.get_u8(off)?;
                off += 1;
                let vehicle = if veh_flag == 1 {
                    if !need(off, 9 + 9 + 8 + 4) {
                        return None;
                    }
                    let anchor = get_opt_node(r, off)?;
                    off += 9;
                    let prev_anchor = get_opt_node(r, off)?;
                    off += 9;
                    let epoch = r.get_u64(off)?;
                    off += 8;
                    let n_aux = r.get_u32(off)? as usize;
                    off += 4;
                    if !need(off, n_aux * 8) {
                        return None;
                    }
                    let mut aux = Vec::with_capacity(n_aux);
                    for _ in 0..n_aux {
                        aux.push(node(r.get_u64(off)?));
                        off += 8;
                    }
                    Some(VehicleInfo {
                        anchor,
                        prev_anchor,
                        epoch,
                        aux,
                    })
                } else {
                    None
                };
                Some(VifiPayload::Beacon(BeaconPayload {
                    node: nd,
                    incoming,
                    outgoing,
                    vehicle,
                }))
            }
            _ => None,
        }
    }

    fn decode_owned(kind: u8, body: Bytes) -> Option<Self> {
        if kind == KIND_DATA {
            // The application body is the bulk of a data frame; slicing the
            // shared buffer keeps the receive path allocation-free where
            // `decode` would memcpy it out.
            decode_data(&body, |start, len| body.slice(start..start + len))
        } else {
            Self::decode(kind, &body)
        }
    }
}

/// Decode a data payload body, delegating ownership of the application
/// bytes to `app` (given their start offset and length within `body`) so
/// callers choose between copying out and slicing a shared buffer.
fn decode_data(body: &[u8], app: impl FnOnce(usize, usize) -> Bytes) -> Option<VifiPayload> {
    if body.len() < D_APP {
        return None;
    }
    let r = FrameReader::new(body);
    let app_len = r.get_u32(D_APP_LEN)? as usize;
    if body.len() < D_APP + app_len {
        return None;
    }
    Some(VifiPayload::Data(DataFrame {
        id: PacketId {
            origin: node(r.get_u64(D_ORIGIN)?),
            seq: r.get_u64(D_SEQ)?,
        },
        flow_src: node(r.get_u64(D_FLOW_SRC)?),
        flow_dst: node(r.get_u64(D_FLOW_DST)?),
        relayed_by: get_opt_node(r, D_RELAYED_FLAG)?,
        app: app(D_APP, app_len),
        bitmap: get_bitmap(r, D_BM)?,
    }))
}

const CHECKED_BY_OF: &str = "the view's constructor checked the length";

/// A u64 field of a view, which its constructor checked is in range.
fn view_u64(r: FrameReader<'_>, off: usize) -> u64 {
    r.get_u64(off).expect(CHECKED_BY_OF)
}

/// Zero-copy view over a packed data payload: the fields the engine's
/// barrier metas and statistics emission need, read at fixed offsets.
/// [`DataView::of`] checks that the fixed fields are all there, so the
/// accessors cannot run past the buffer.
#[derive(Clone, Copy)]
pub struct DataView<'a> {
    r: FrameReader<'a>,
}

impl<'a> DataView<'a> {
    /// View over `frame`'s payload if it carries data.
    pub fn of(frame: &'a WireFrame) -> Option<Self> {
        if frame.kind() == KIND_DATA && frame.payload_bytes().len() >= D_APP {
            Some(DataView {
                r: FrameReader::new(frame.payload_bytes()),
            })
        } else {
            None
        }
    }

    /// Packet identity.
    pub fn id(&self) -> PacketId {
        PacketId {
            origin: node(view_u64(self.r, D_ORIGIN)),
            seq: view_u64(self.r, D_SEQ),
        }
    }

    /// Logical transfer source.
    pub fn flow_src(&self) -> NodeId {
        node(view_u64(self.r, D_FLOW_SRC))
    }

    /// Logical transfer destination.
    pub fn flow_dst(&self) -> NodeId {
        node(view_u64(self.r, D_FLOW_DST))
    }

    /// Which auxiliary relayed this copy, if any.
    pub fn relayed_by(&self) -> Option<NodeId> {
        get_opt_node(self.r, D_RELAYED_FLAG).expect(CHECKED_BY_OF)
    }
}

/// Zero-copy view over a packed ack payload; like [`DataView`], its
/// constructor checks the length its accessors read.
#[derive(Clone, Copy)]
pub struct AckView<'a> {
    r: FrameReader<'a>,
}

impl<'a> AckView<'a> {
    /// View over `frame`'s payload if it carries an ack.
    pub fn of(frame: &'a WireFrame) -> Option<Self> {
        if frame.kind() == KIND_ACK && frame.payload_bytes().len() >= A_LEN {
            Some(AckView {
                r: FrameReader::new(frame.payload_bytes()),
            })
        } else {
            None
        }
    }

    /// The acknowledging node.
    pub fn from(&self) -> NodeId {
        node(view_u64(self.r, A_FROM))
    }

    /// The packet being acknowledged.
    pub fn id(&self) -> PacketId {
        PacketId {
            origin: node(view_u64(self.r, A_ORIGIN)),
            seq: view_u64(self.r, A_SEQ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;
    use vifi_mac::WIRE_HEADER_LEN;
    use vifi_sim::Rng;

    fn frame(p: &VifiPayload) -> WireFrame {
        WireFrame::encode(NodeId(7), 300, p)
    }

    fn roundtrip(p: VifiPayload) {
        let f = frame(&p);
        assert_eq!(f.decode::<VifiPayload>(), Some(p));
    }

    #[test]
    fn data_roundtrip_all_fields() {
        roundtrip(VifiPayload::Data(DataFrame {
            id: PacketId {
                origin: NodeId(3),
                seq: 41,
            },
            flow_src: NodeId(3),
            flow_dst: NodeId(1),
            relayed_by: Some(NodeId(5)),
            app: Bytes::from_static(b"payload bytes"),
            bitmap: Some((99, 0b1010_0110)),
        }));
    }

    #[test]
    fn data_roundtrip_absent_options() {
        roundtrip(VifiPayload::Data(DataFrame {
            id: PacketId {
                origin: NodeId(0),
                seq: 0,
            },
            flow_src: NodeId(0),
            flow_dst: NodeId(2),
            relayed_by: None,
            app: Bytes::new(),
            bitmap: None,
        }));
    }

    #[test]
    fn ack_roundtrip() {
        roundtrip(VifiPayload::Ack(AckFrame {
            from: NodeId(2),
            id: PacketId {
                origin: NodeId(9),
                seq: 1234,
            },
            bitmap: Some((7, 0xFF)),
        }));
    }

    #[test]
    fn beacon_roundtrip_vehicle_block() {
        roundtrip(VifiPayload::Beacon(BeaconPayload {
            node: NodeId(4),
            incoming: vec![(NodeId(1), 0.25), (NodeId(2), 0.75)],
            outgoing: vec![(NodeId(3), 0.5)],
            vehicle: Some(VehicleInfo {
                anchor: Some(NodeId(1)),
                prev_anchor: None,
                epoch: 17,
                aux: vec![NodeId(2), NodeId(3)],
            }),
        }));
    }

    #[test]
    fn beacon_roundtrip_bs_plain() {
        roundtrip(VifiPayload::Beacon(BeaconPayload {
            node: NodeId(8),
            incoming: vec![],
            outgoing: vec![],
            vehicle: None,
        }));
    }

    #[test]
    fn views_read_fixed_offsets() {
        let d = DataFrame {
            id: PacketId {
                origin: NodeId(6),
                seq: 99,
            },
            flow_src: NodeId(6),
            flow_dst: NodeId(0),
            relayed_by: Some(NodeId(4)),
            app: Bytes::from_static(b"x"),
            bitmap: None,
        };
        let f = frame(&VifiPayload::Data(d.clone()));
        let v = DataView::of(&f).unwrap();
        assert_eq!(v.id(), d.id);
        assert_eq!(v.flow_src(), d.flow_src);
        assert_eq!(v.flow_dst(), d.flow_dst);
        assert_eq!(v.relayed_by(), d.relayed_by);
        assert!(AckView::of(&f).is_none());

        let a = AckFrame {
            from: NodeId(0),
            id: d.id,
            bitmap: Some((99, 3)),
        };
        let f = frame(&VifiPayload::Ack(a.clone()));
        let v = AckView::of(&f).unwrap();
        assert_eq!(v.from(), a.from);
        assert_eq!(v.id(), a.id);
        assert!(DataView::of(&f).is_none());
    }

    #[test]
    fn decode_app_bytes_are_zero_copy_slices() {
        let f = frame(&VifiPayload::Data(DataFrame {
            id: PacketId {
                origin: NodeId(3),
                seq: 11,
            },
            flow_src: NodeId(3),
            flow_dst: NodeId(9),
            relayed_by: None,
            app: Bytes::from_static(b"application body"),
            bitmap: None,
        }));
        let Some(VifiPayload::Data(d)) = f.decode::<VifiPayload>() else {
            panic!("data frame must decode as data");
        };
        // The decoded app field views the frame's own buffer (same address
        // as the app range inside the payload body), not a fresh copy.
        assert_eq!(d.app.as_ref(), b"application body");
        assert_eq!(d.app.as_ptr(), f.payload_bytes()[D_APP..].as_ptr());
    }

    #[test]
    fn decode_rejects_truncation_and_bad_kind() {
        let f = frame(&VifiPayload::Ack(AckFrame {
            from: NodeId(1),
            id: PacketId {
                origin: NodeId(2),
                seq: 3,
            },
            bitmap: None,
        }));
        let body = f.payload_bytes();
        assert!(VifiPayload::decode(KIND_ACK, &body[..body.len() - 1]).is_none());
        assert!(VifiPayload::decode(99, body).is_none());
    }

    // The vendored proptest has no `option::of`; options are drawn as a
    // value in `0..=64` with 64 standing for `None`.
    fn opt(v: u32) -> Option<NodeId> {
        if v == 64 {
            None
        } else {
            Some(NodeId(v))
        }
    }

    /// One payload of each kind (`kind` 0–2 as the wire kind bytes), its
    /// fields and list lengths drawn from `seed`.
    fn sample_payload(kind: u8, seed: u64) -> VifiPayload {
        let mut rng = Rng::new(seed);
        let mut id = || NodeId(rng.below(64) as u32);
        let (a, b, c) = (id(), id(), id());
        let mut rng = Rng::new(seed ^ 0x5a5a);
        let bitmap = (rng.below(2) == 1).then(|| (rng.below(1 << 20), rng.below(256) as u8));
        match kind {
            KIND_DATA => VifiPayload::Data(DataFrame {
                id: PacketId {
                    origin: a,
                    seq: rng.below(1 << 20),
                },
                flow_src: a,
                flow_dst: b,
                relayed_by: (rng.below(2) == 1).then_some(c),
                app: Bytes::from(vec![0xa5; rng.below(48) as usize]),
                bitmap,
            }),
            KIND_ACK => VifiPayload::Ack(AckFrame {
                from: b,
                id: PacketId {
                    origin: a,
                    seq: rng.below(1 << 20),
                },
                bitmap,
            }),
            _ => {
                let mut list = |n: u64| -> Vec<(NodeId, f64)> {
                    (0..rng.below(n))
                        .map(|i| (NodeId(i as u32), rng.next_f64()))
                        .collect()
                };
                let (incoming, outgoing) = (list(8), list(8));
                VifiPayload::Beacon(BeaconPayload {
                    node: a,
                    incoming,
                    outgoing,
                    vehicle: (seed % 2 == 1).then(|| VehicleInfo {
                        anchor: Some(b),
                        prev_anchor: (seed % 3 == 0).then_some(c),
                        epoch: seed >> 8,
                        aux: (0..seed % 6).map(|i| NodeId(i as u32)).collect(),
                    }),
                })
            }
        }
    }

    /// Feed received bytes through every reader of the receive path. None
    /// may panic, and the views must agree with a successful decode.
    fn read_hostile(bytes: &[u8]) -> Option<VifiPayload> {
        let Some(f) = WireFrame::from_bytes(Bytes::copy_from_slice(bytes)) else {
            assert!(bytes.len() < WIRE_HEADER_LEN);
            return None;
        };
        let _ = (f.src(), f.size_bytes());
        let decoded = f.decode::<VifiPayload>();
        // Debug strings, so a NaN flipped into a probability compares equal.
        let copied = VifiPayload::decode(f.kind(), f.payload_bytes());
        assert_eq!(format!("{copied:?}"), format!("{decoded:?}"));
        if let Some(v) = DataView::of(&f) {
            let fields = (v.id(), v.flow_src(), v.flow_dst(), v.relayed_by());
            if let Some(VifiPayload::Data(d)) = &decoded {
                assert_eq!(fields, (d.id, d.flow_src, d.flow_dst, d.relayed_by));
            }
        }
        if let Some(v) = AckView::of(&f) {
            let fields = (v.from(), v.id());
            if let Some(VifiPayload::Ack(a)) = &decoded {
                assert_eq!(fields, (a.from, a.id));
            }
        }
        decoded
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn prop_truncated_and_flipped_frames_never_panic(
            kind in 0u8..3,
            seed in any::<u64>(),
            cut in any::<u64>(),
            flips in proptest::collection::vec((any::<u64>(), 0u8..8), 0..4usize),
        ) {
            let p = sample_payload(kind, seed);
            let mut bytes = frame(&p).bytes().to_vec();
            let full = bytes.len();
            // Half the cases keep every byte and only flip bits.
            let keep = if cut % 2 == 0 { full } else { (cut / 2) as usize % (full + 1) };
            bytes.truncate(keep);
            for &(pos, bit) in &flips {
                if !bytes.is_empty() {
                    let i = pos as usize % bytes.len();
                    bytes[i] ^= 1 << bit;
                }
            }
            let decoded = read_hostile(&bytes);
            if flips.is_empty() {
                let expect = (keep == full).then_some(p);
                prop_assert_eq!(decoded, expect, "a strict prefix never decodes");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_data_roundtrip(
            origin in 0u32..64,
            seq in any::<u64>(),
            relayed in 0u32..65,
            app in proptest::collection::vec(any::<u8>(), 0..64usize),
            bm_present in any::<bool>(),
            bm_high in any::<u64>(),
            bm_mask in any::<u8>(),
        ) {
            roundtrip(VifiPayload::Data(DataFrame {
                id: PacketId { origin: NodeId(origin), seq },
                flow_src: NodeId(origin),
                flow_dst: NodeId(origin / 2),
                relayed_by: opt(relayed),
                app: Bytes::from(app),
                bitmap: bm_present.then_some((bm_high, bm_mask)),
            }));
        }

        #[test]
        fn prop_beacon_roundtrip(
            nd in 0u32..64,
            inc in proptest::collection::vec((0u32..64, 0.0f64..1.0), 0..8usize),
            out in proptest::collection::vec((0u32..64, 0.0f64..1.0), 0..8usize),
            veh_present in any::<bool>(),
            anchor in 0u32..65,
            prev in 0u32..65,
            epoch in any::<u64>(),
            aux in proptest::collection::vec(0u32..64, 0..6usize),
        ) {
            roundtrip(VifiPayload::Beacon(BeaconPayload {
                node: NodeId(nd),
                incoming: inc.into_iter().map(|(i, p)| (NodeId(i), p)).collect(),
                outgoing: out.into_iter().map(|(i, p)| (NodeId(i), p)).collect(),
                vehicle: veh_present.then(|| VehicleInfo {
                    anchor: opt(anchor),
                    prev_anchor: opt(prev),
                    epoch,
                    aux: aux.into_iter().map(NodeId).collect(),
                }),
            }));
        }
    }
}
