//! Binary run traces: the packet log's wire form.
//!
//! The in-memory [`RunLog`] materializes one record per source
//! transmission — perfect for post-processing, fatal for days-long runs.
//! A binary trace carries the same [`LogEvent`] stream in constant
//! memory:
//!
//! * [`BinaryRunLog`] — a [`LogSink`] that appends each event as a
//!   length-prefixed little-endian record to any `io::Write`, O(1)
//!   memory no matter the run length;
//! * [`read_stream`] — replays a trace into any [`LogSink`]: back into a
//!   `RunLog`, reconstructing it bit-for-bit, or into a
//!   [`StreamFold`](crate::StreamFold) for the paper's statistics in
//!   memory bounded by packets in flight;
//! * [`read_record`] and [`read_record_body`] — the framing reader behind
//!   it, for tools that need each record's raw bytes too.
//!
//! Decoding never allocates more than the input holds: a record body is
//! read only as far as the bytes that back it, and a node count larger
//! than its record can carry is `InvalidData`.
//!
//! ## Record framing
//!
//! Every record is `len: u32 | kind: u8 | at_micros: u64 | body`, all
//! little-endian; `len` counts the bytes after the length field. Bodies:
//!
//! | kind | event | body |
//! |------|-------|------|
//! | 0 | source tx | origin u64, seq u64, dir u8, dst_heard u8, n₁ u32, n₁×u64, n₂ u32, n₂×u64 |
//! | 1 | ack attach | origin, seq, n u32, n×u64 |
//! | 2 | decision | origin, seq, aux u64, prob-bits u64, relayed u8 |
//! | 3 | relay | origin, seq, by u64, via_backplane u8, reached u8 |
//! | 4 | deliver mark | origin, seq |
//! | 5 | aux sample | sec u64, size u64 |
//! | 6–10 | retired (unit ledger increments; now folded into kind 12) | — |
//! | 11 | retire | origin, seq |
//! | 12 | ledger totals | 4×u64 up, 4×u64 down, drops u64 |
//!
//! Ledgers are `wireless_tx, backplane_tx, ack_tx, delivered`. The
//! retired kinds are rejected as unknown; every other kind keeps its
//! number.

use std::io::{self, Read, Write};

use vifi_core::{Direction, PacketId};
use vifi_metrics::EfficiencyLedger;
use vifi_phy::NodeId;
use vifi_sim::SimTime;

use crate::logging::{LedgerTotals, LogEvent, LogSink, RunLog};

const K_SOURCE_TX: u8 = 0;
const K_ACK_ATTACH: u8 = 1;
const K_DECISION: u8 = 2;
const K_RELAY: u8 = 3;
const K_DELIVER_MARK: u8 = 4;
const K_AUX_SAMPLE: u8 = 5;
const K_RETIRE: u8 = 11;
const K_LEDGER_TOTALS: u8 = 12;

fn dir_byte(dir: Direction) -> u8 {
    match dir {
        Direction::Upstream => 0,
        Direction::Downstream => 1,
    }
}

fn byte_dir(b: u8) -> io::Result<Direction> {
    match b {
        0 => Ok(Direction::Upstream),
        1 => Ok(Direction::Downstream),
        _ => Err(invalid(format!("bad direction byte {b}"))),
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn truncated() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "truncated record")
}

/// A [`LogSink`] that serializes every event as a length-prefixed binary
/// record to `w`. Memory use is one scratch buffer regardless of run
/// length; I/O errors are latched and surfaced by
/// [`BinaryRunLog::finish`].
pub struct BinaryRunLog<W: Write> {
    w: W,
    buf: Vec<u8>,
    records: u64,
    err: Option<io::Error>,
}

impl<W: Write> BinaryRunLog<W> {
    /// Stream records to `w`.
    pub fn new(w: W) -> Self {
        BinaryRunLog {
            w,
            buf: Vec::with_capacity(128),
            records: 0,
            err: None,
        }
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Flush and hand back the writer, surfacing any latched I/O error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.w.flush()?;
        Ok(self.w)
    }
}

fn push_id(buf: &mut Vec<u8>, id: PacketId) {
    buf.extend_from_slice(&id.origin.label().to_le_bytes());
    buf.extend_from_slice(&id.seq.to_le_bytes());
}

fn push_nodes(buf: &mut Vec<u8>, nodes: &[NodeId]) {
    buf.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
    for n in nodes {
        buf.extend_from_slice(&n.label().to_le_bytes());
    }
}

/// Append the record of `ev` at `at` — `kind | at_micros | body`, without
/// the length prefix — to `b`.
fn encode(at: SimTime, ev: &LogEvent, b: &mut Vec<u8>) {
    let kind = match ev {
        LogEvent::SourceTx { .. } => K_SOURCE_TX,
        LogEvent::AckAttach { .. } => K_ACK_ATTACH,
        LogEvent::Decision { .. } => K_DECISION,
        LogEvent::Relay { .. } => K_RELAY,
        LogEvent::DeliverMark { .. } => K_DELIVER_MARK,
        LogEvent::AuxSample { .. } => K_AUX_SAMPLE,
        LogEvent::Retire { .. } => K_RETIRE,
        LogEvent::LedgerTotals(_) => K_LEDGER_TOTALS,
    };
    b.push(kind);
    b.extend_from_slice(&at.as_micros().to_le_bytes());
    match ev {
        LogEvent::SourceTx {
            id,
            dir,
            aux_set,
            aux_heard,
            dst_heard,
        } => {
            push_id(b, *id);
            b.push(dir_byte(*dir));
            b.push(*dst_heard as u8);
            push_nodes(b, aux_set);
            push_nodes(b, aux_heard);
        }
        LogEvent::AckAttach { id, heard_by } => {
            push_id(b, *id);
            push_nodes(b, heard_by);
        }
        LogEvent::Decision {
            id,
            aux,
            prob,
            relayed,
        } => {
            push_id(b, *id);
            b.extend_from_slice(&aux.label().to_le_bytes());
            b.extend_from_slice(&prob.to_bits().to_le_bytes());
            b.push(*relayed as u8);
        }
        LogEvent::Relay {
            id,
            by,
            via_backplane,
            reached,
        } => {
            push_id(b, *id);
            b.extend_from_slice(&by.label().to_le_bytes());
            b.push(*via_backplane as u8);
            b.push(*reached as u8);
        }
        LogEvent::DeliverMark { id } | LogEvent::Retire { id } => push_id(b, *id),
        LogEvent::AuxSample { sec, size } => {
            b.extend_from_slice(&sec.to_le_bytes());
            b.extend_from_slice(&(*size as u64).to_le_bytes());
        }
        LogEvent::LedgerTotals(t) => {
            for l in [&t.up, &t.down] {
                for v in [l.wireless_tx, l.backplane_tx, l.ack_tx, l.delivered] {
                    b.extend_from_slice(&v.to_le_bytes());
                }
            }
            b.extend_from_slice(&t.backplane_drops.to_le_bytes());
        }
    }
}

impl<W: Write> LogSink for BinaryRunLog<W> {
    fn apply(&mut self, at: SimTime, ev: LogEvent) {
        if self.err.is_some() {
            return;
        }
        self.buf.clear();
        encode(at, &ev, &mut self.buf);
        let len = self.buf.len() as u32;
        let res = self
            .w
            .write_all(&len.to_le_bytes())
            .and_then(|()| self.w.write_all(&self.buf));
        match res {
            Ok(()) => self.records += 1,
            Err(e) => self.err = Some(e),
        }
    }
}

/// Cursor over the bytes of one record.
struct Body<'a> {
    b: &'a [u8],
}

impl<'a> Body<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.b.len() < n {
            return Err(truncated());
        }
        let (head, rest) = self.b.split_at(n);
        self.b = rest;
        Ok(head)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn flag(&mut self) -> io::Result<bool> {
        Ok(self.u8()? != 0)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn node(&mut self) -> io::Result<NodeId> {
        Ok(NodeId(self.u64()? as u32))
    }

    fn id(&mut self) -> io::Result<PacketId> {
        Ok(PacketId {
            origin: self.node()?,
            seq: self.u64()?,
        })
    }

    fn nodes(&mut self) -> io::Result<Vec<NodeId>> {
        let n = self.u32()? as usize;
        let room = self.b.len() / 8;
        if n > room {
            return Err(invalid(format!(
                "record claims {n} nodes but holds at most {room}"
            )));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.node()?);
        }
        Ok(out)
    }

    fn ledger(&mut self) -> io::Result<EfficiencyLedger> {
        Ok(EfficiencyLedger {
            wireless_tx: self.u64()?,
            backplane_tx: self.u64()?,
            ack_tx: self.u64()?,
            delivered: self.u64()?,
        })
    }
}

/// Decode one record — `kind | at_micros | body`, the bytes after its
/// length prefix.
// Inlined with the two readers below into each reading loop, so a decoded
// event moves straight into its sink: the `runlog_stream_10k` bench folds
// its trace ~15% faster than through a call boundary.
#[inline(always)]
fn decode(rec: &[u8]) -> io::Result<(SimTime, LogEvent)> {
    if rec.len() < 9 {
        return Err(invalid(format!("record too short: {} bytes", rec.len())));
    }
    let mut body = Body { b: rec };
    let kind = body.u8()?;
    let at = SimTime::from_micros(body.u64()?);
    let ev = match kind {
        K_SOURCE_TX => LogEvent::SourceTx {
            id: body.id()?,
            dir: byte_dir(body.u8()?)?,
            dst_heard: body.flag()?,
            aux_set: body.nodes()?,
            aux_heard: body.nodes()?,
        },
        K_ACK_ATTACH => LogEvent::AckAttach {
            id: body.id()?,
            heard_by: body.nodes()?,
        },
        K_DECISION => LogEvent::Decision {
            id: body.id()?,
            aux: body.node()?,
            prob: f64::from_bits(body.u64()?),
            relayed: body.flag()?,
        },
        K_RELAY => LogEvent::Relay {
            id: body.id()?,
            by: body.node()?,
            via_backplane: body.flag()?,
            reached: body.flag()?,
        },
        K_DELIVER_MARK => LogEvent::DeliverMark { id: body.id()? },
        K_AUX_SAMPLE => LogEvent::AuxSample {
            sec: body.u64()?,
            size: body.u64()? as usize,
        },
        K_RETIRE => LogEvent::Retire { id: body.id()? },
        K_LEDGER_TOTALS => LogEvent::LedgerTotals(Box::new(LedgerTotals {
            up: body.ledger()?,
            down: body.ledger()?,
            backplane_drops: body.u64()?,
        })),
        k => return Err(invalid(format!("unknown record kind {k}"))),
    };
    Ok((at, ev))
}

/// Read and decode a record whose length, `len`, was framed elsewhere
/// (the length prefix of a trace, or the header of a capture wrapping
/// one). The record's raw bytes are left in `buf`, which grows only as
/// far as the input actually backs the claimed length.
#[inline(always)]
pub fn read_record_body<R: Read>(
    r: &mut R,
    len: u32,
    buf: &mut Vec<u8>,
) -> io::Result<(SimTime, LogEvent)> {
    let len = len as usize;
    buf.clear();
    if len <= buf.capacity() {
        // Room the buffer already holds: no allocation rides on the claim.
        buf.resize(len, 0);
        r.read_exact(buf)?;
    } else if r.take(len as u64).read_to_end(buf)? < len {
        return Err(truncated());
    }
    decode(buf)
}

/// Read the next length-prefixed record of a trace, leaving its raw
/// bytes (without the prefix) in `buf`. `None` at a clean end of input;
/// input that ends inside a record is an `UnexpectedEof` error.
#[inline(always)]
pub fn read_record<R: Read>(
    r: &mut R,
    buf: &mut Vec<u8>,
) -> io::Result<Option<(SimTime, LogEvent)>> {
    let mut len = [0u8; 4];
    loop {
        match r.read(&mut len[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    r.read_exact(&mut len[1..])?;
    read_record_body(r, u32::from_le_bytes(len), buf).map(Some)
}

/// Replay a binary trace into any [`LogSink`], returning the number of
/// records consumed. Feeding a trace written by [`BinaryRunLog`] into a
/// fresh [`RunLog`] reconstructs the original log bit-for-bit (same
/// fingerprint); feeding it into a [`StreamFold`](crate::StreamFold)
/// computes the paper's statistics in constant memory.
pub fn read_stream<R: Read, S: LogSink>(mut r: R, sink: &mut S) -> io::Result<u64> {
    let mut buf = Vec::with_capacity(128);
    let mut count = 0u64;
    while let Some((at, ev)) = read_record(&mut r, &mut buf)? {
        sink.apply(at, ev);
        count += 1;
    }
    Ok(count)
}

impl RunLog {
    /// Serialize this log as a binary trace (see the module docs for the
    /// record framing) and hand back the writer.
    pub fn write_binary<W: Write>(&self, w: W) -> io::Result<W> {
        let mut sink = BinaryRunLog::new(w);
        self.replay_into(&mut sink);
        sink.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fingerprintable, PerfectRelayOutcome, StreamFold, Table1};

    fn id(origin: u32, seq: u64) -> PacketId {
        PacketId {
            origin: NodeId(origin),
            seq,
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn tx(
        id: PacketId,
        dir: Direction,
        aux: Vec<NodeId>,
        heard: Vec<NodeId>,
        dst: bool,
    ) -> LogEvent {
        LogEvent::SourceTx {
            id,
            dir,
            aux_set: aux,
            aux_heard: heard,
            dst_heard: dst,
        }
    }

    /// Build a small but featureful log: retransmissions, acks,
    /// decisions, relays (both planes), deliveries, aux samples, ledger
    /// traffic.
    fn sample_log() -> RunLog {
        let mut log = RunLog::new();
        let aux = |n: u32| (10..10 + n).map(NodeId).collect::<Vec<_>>();
        log.apply(t(0), LogEvent::AuxSample { sec: 0, size: 3 });
        log.apply(t(1000), LogEvent::AuxSample { sec: 1, size: 2 });
        let up = Direction::Upstream;
        for seq in 0..4u64 {
            let heard = vec![NodeId(10)];
            log.apply(t(seq * 10), tx(id(0, seq), up, aux(3), heard, seq % 2 == 0));
            log.ledger_up.on_wireless_tx();
        }
        // Retransmission chain for seq 1.
        let heard = vec![NodeId(10), NodeId(11)];
        log.apply(t(100), tx(id(0, 1), up, aux(3), heard, false));
        let heard_by = vec![NodeId(10), NodeId(99)];
        log.apply(
            t(100),
            LogEvent::AckAttach {
                id: id(0, 1),
                heard_by,
            },
        );
        let decision = LogEvent::Decision {
            id: id(0, 1),
            aux: NodeId(11),
            prob: 0.7,
            relayed: true,
        };
        log.apply(t(100), decision);
        let relay = LogEvent::Relay {
            id: id(0, 1),
            by: NodeId(11),
            via_backplane: true,
            reached: true,
        };
        log.apply(t(100), relay);
        log.apply(t(100), LogEvent::DeliverMark { id: id(0, 1) });
        log.ledger_up.on_backplane_tx();
        log.ledger_up.on_delivered();
        // A downstream packet.
        let down = Direction::Downstream;
        log.apply(t(200), tx(id(5, 9), down, aux(2), vec![NodeId(10)], false));
        let decision = LogEvent::Decision {
            id: id(5, 9),
            aux: NodeId(10),
            prob: 0.5,
            relayed: true,
        };
        log.apply(t(200), decision);
        let relay = LogEvent::Relay {
            id: id(5, 9),
            by: NodeId(10),
            via_backplane: false,
            reached: true,
        };
        log.apply(t(200), relay);
        log.apply(t(200), LogEvent::DeliverMark { id: id(5, 9) });
        log.ledger_down.on_wireless_tx();
        log.ledger_down.on_delivered();
        log.backplane_drops = 2;
        log
    }

    #[test]
    fn replay_into_runlog_reproduces_fingerprint() {
        let log = sample_log();
        let mut rebuilt = RunLog::new();
        log.replay_into(&mut rebuilt);
        assert_eq!(log.fingerprint(), rebuilt.fingerprint());
        assert_eq!(log.records.len(), rebuilt.records.len());
    }

    #[test]
    fn binary_roundtrip_reproduces_fingerprint() {
        let log = sample_log();
        let bytes = log.write_binary(Vec::new()).unwrap();
        let mut rebuilt = RunLog::new();
        read_stream(&bytes[..], &mut rebuilt).unwrap();
        assert_eq!(log.fingerprint(), rebuilt.fingerprint());
    }

    #[test]
    fn stream_fold_matches_in_memory_stats() {
        let log = sample_log();
        let bytes = log.write_binary(Vec::new()).unwrap();
        let mut fold = StreamFold::new();
        read_stream(&bytes[..], &mut fold).unwrap();
        let s = fold.finish();
        assert_eq!(s.fingerprint, log.fingerprint(), "fingerprint");
        assert_eq!(s.records, log.records.len() as u64);
        let t1 = Table1::from_log(&log);
        assert_eq!(
            s.table1.up.b1_src_reach.to_bits(),
            t1.up.b1_src_reach.to_bits()
        );
        assert_eq!(
            s.table1.down.b2_false_positive.to_bits(),
            t1.down.b2_false_positive.to_bits()
        );
        assert_eq!(
            s.table1.up.a3_aux_hear_tx_not_ack.to_bits(),
            t1.up.a3_aux_hear_tx_not_ack.to_bits()
        );
        let pr = PerfectRelayOutcome::from_log(&log);
        assert_eq!(
            s.perfect_relay.efficiency_up.to_bits(),
            pr.efficiency_up.to_bits()
        );
        assert_eq!(
            s.perfect_relay.efficiency_down.to_bits(),
            pr.efficiency_down.to_bits()
        );
        assert_eq!(s.backplane_drops, log.backplane_drops);
        assert_eq!(s.ledger_up.backplane_tx, log.ledger_up.backplane_tx);
    }

    #[test]
    fn retire_bounds_pending_state() {
        // Many sequential ids, each retired before the next: the peak
        // pending working set stays at 1 no matter how many records.
        let mut sink = StreamFold::new();
        for seq in 0..1000u64 {
            let heard = vec![NodeId(10)];
            let ev = tx(id(0, seq), Direction::Upstream, heard.clone(), heard, true);
            sink.apply(t(seq), ev);
            sink.apply(t(seq), LogEvent::DeliverMark { id: id(0, seq) });
            sink.apply(t(seq), LogEvent::Retire { id: id(0, seq) });
        }
        sink.apply(t(0), LogEvent::LedgerTotals(Box::default()));
        let s = sink.finish();
        assert_eq!(s.records, 1000);
        assert_eq!(s.peak_pending, 1, "working set bounded by in-flight ids");
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let log = sample_log();
        let bytes = log.write_binary(Vec::new()).unwrap();
        let mut fold = StreamFold::new();
        assert!(read_stream(&bytes[..bytes.len() - 3], &mut fold).is_err());
    }

    #[test]
    fn out_of_order_finalization_is_fingerprint_invariant() {
        // Interleaved ids with late deliveries: records finalize in a
        // different order than they were created, and the commutative
        // digest still matches the in-memory log.
        let mut log = RunLog::new();
        for seq in 0..6u64 {
            let aux = vec![NodeId(10), NodeId(11)];
            let ev = tx(
                id(0, seq % 3),
                Direction::Upstream,
                aux,
                vec![NodeId(10)],
                false,
            );
            log.apply(t(seq * 5), ev);
        }
        log.apply(t(30), LogEvent::DeliverMark { id: id(0, 1) });
        let bytes = log.write_binary(Vec::new()).unwrap();
        let mut fold = StreamFold::new();
        read_stream(&bytes[..], &mut fold).unwrap();
        assert_eq!(fold.finish().fingerprint, log.fingerprint());
    }

    fn read_err(bytes: &[u8]) -> io::ErrorKind {
        let mut log = RunLog::new();
        read_stream(bytes, &mut log)
            .expect_err("hostile trace")
            .kind()
    }

    #[test]
    fn huge_claimed_length_ends_at_the_input() {
        // A length prefix claiming 4 GiB with nothing behind it: an EOF
        // error, with no buffer sized by the claim.
        assert_eq!(read_err(&[0xff; 4]), io::ErrorKind::UnexpectedEof);
        // A length prefix cut short is truncation, not a clean end.
        assert_eq!(read_err(&[0x09, 0x00]), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn node_count_beyond_the_record_is_invalid() {
        // A 35-byte source-tx record whose aux set claims u32::MAX nodes.
        let mut b = Vec::new();
        b.extend_from_slice(&31u32.to_le_bytes());
        b.push(K_SOURCE_TX);
        b.extend_from_slice(&0u64.to_le_bytes()); // at
        b.extend_from_slice(&1u64.to_le_bytes()); // origin
        b.extend_from_slice(&7u64.to_le_bytes()); // seq
        b.extend_from_slice(&[0, 1]); // dir, dst_heard
        b.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(b.len(), 35);
        assert_eq!(read_err(&b), io::ErrorKind::InvalidData);
    }

    #[test]
    fn retired_ledger_kinds_are_rejected() {
        // Kind 6, the retired per-transmission wireless tick.
        let mut b = Vec::new();
        b.extend_from_slice(&10u32.to_le_bytes());
        b.push(6);
        b.extend_from_slice(&0u64.to_le_bytes());
        b.push(0);
        assert_eq!(read_err(&b), io::ErrorKind::InvalidData);
    }
}
