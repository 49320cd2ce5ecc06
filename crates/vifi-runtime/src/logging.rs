//! Packet-level run logs and the paper's derived statistics.
//!
//! The runtime describes the instrumented vehicle's packets as a stream
//! of [`LogEvent`]s handed to a [`LogSink`]. A *source transmission* (a
//! data frame with `relayed_by == None`) opens one [`TxRecord`]; later
//! events attach to the latest record of the same packet id — which
//! auxiliaries heard an ACK, every auxiliary's relay decision, each
//! relay's fate — and a delivery mark flags every record of the id. The
//! efficiency accounting arrives once, as [`LedgerTotals`].
//!
//! Two sinks derive everything the paper reads off its packet logs:
//!
//! * [`RunLog`] keeps every record in memory;
//! * [`StreamFold`] finalizes each record as soon as no later event can
//!   change it and keeps only packets in flight, so its working set is
//!   bounded by those, not by run length
//!   ([`StreamSummary::peak_pending`]).
//!
//! Both open and attach records through the rules on [`TxRecord`] and
//! fold finalized records through one accumulator, so they agree by
//! construction on:
//!
//! * **Table 1** (rows A1–C4) — [`Table1::from_log`],
//!   [`StreamSummary::table1`];
//! * **Table 2** (false positives/negatives per coordination scheme) —
//!   [`Table2Row::from_log`];
//! * **Fig. 12** (medium-use efficiency incl. the PerfectRelay oracle) —
//!   [`RunLog::efficiency`] and [`PerfectRelayOutcome::from_log`];
//! * the run-log fingerprint — [`Fingerprintable`] and
//!   [`StreamSummary::fingerprint`]. It combines per-record digests by
//!   wrapping addition, so records may be finalized in any order.

use std::collections::HashMap;

use vifi_core::{Direction, PacketId};
use vifi_metrics::EfficiencyLedger;
use vifi_phy::NodeId;
use vifi_sim::SimTime;

use crate::fingerprint::{Fingerprint, Fingerprintable};

/// One packet-log event. Each variant is one record kind of the binary
/// trace (see [`crate::binlog`]).
#[derive(Clone, Debug)]
pub enum LogEvent {
    /// A source transmission of `id`: opens a new record.
    SourceTx {
        /// Packet identity.
        id: PacketId,
        /// Direction.
        dir: Direction,
        /// The auxiliary set announced by the vehicle at transmission time.
        aux_set: Vec<NodeId>,
        /// Auxiliaries (members of `aux_set`) that received it.
        aux_heard: Vec<NodeId>,
        /// Whether the flow destination received it.
        dst_heard: bool,
    },
    /// Nodes that heard an ACK for `id`.
    AckAttach {
        /// Packet identity.
        id: PacketId,
        /// Every node that heard the ACK.
        heard_by: Vec<NodeId>,
    },
    /// An auxiliary's relay decision for `id`.
    Decision {
        /// Packet identity.
        id: PacketId,
        /// The deciding auxiliary.
        aux: NodeId,
        /// Its relay probability.
        prob: f64,
        /// Whether it relayed.
        relayed: bool,
    },
    /// The fate of a performed relay of `id`.
    Relay {
        /// Packet identity.
        id: PacketId,
        /// The relaying auxiliary.
        by: NodeId,
        /// Whether the relay rode the backplane.
        via_backplane: bool,
        /// Whether the relayed copy reached the flow destination.
        reached: bool,
    },
    /// Application-level delivery of `id`: marks every record of the id.
    DeliverMark {
        /// Packet identity.
        id: PacketId,
    },
    /// The vehicle's aux-set size at second `sec` (Table 1 row A1).
    AuxSample {
        /// The sampled second.
        sec: u64,
        /// Aux-set size.
        size: usize,
    },
    /// No further event references `id` (advisory: lets a streaming sink
    /// finalize and drop the id's records).
    Retire {
        /// Packet identity.
        id: PacketId,
    },
    /// The run's efficiency accounting, added at once.
    LedgerTotals(Box<LedgerTotals>),
}

/// A consumer of packet-log events.
///
/// The engine buffers the events of a run and applies them in canonical
/// `(time, lane, seq)` order at its end, followed by one
/// [`LogEvent::LedgerTotals`]. [`RunLog`] keeps the records,
/// [`StreamFold`] folds them into the statistics, and
/// [`BinaryRunLog`](crate::binlog::BinaryRunLog) serializes them.
pub trait LogSink {
    /// Consume one event stamped `at`.
    fn apply(&mut self, at: SimTime, ev: LogEvent);
}

/// A run's efficiency accounting: one ledger per direction plus the
/// backplane messages dropped.
#[derive(Clone, Copy, Debug, Default)]
pub struct LedgerTotals {
    /// Upstream ledger.
    pub up: EfficiencyLedger,
    /// Downstream ledger.
    pub down: EfficiencyLedger,
    /// Backplane messages dropped for good (capacity or faults).
    pub backplane_drops: u64,
}

impl LedgerTotals {
    /// The ledger of `dir`.
    pub(crate) fn ledger_mut(&mut self, dir: Direction) -> &mut EfficiencyLedger {
        match dir {
            Direction::Upstream => &mut self.up,
            Direction::Downstream => &mut self.down,
        }
    }

    /// Add `other` into these totals.
    pub(crate) fn absorb(&mut self, other: &LedgerTotals) {
        self.up.merge(&other.up);
        self.down.merge(&other.down);
        self.backplane_drops += other.backplane_drops;
    }
}

/// The fate of one relay of one packet.
#[derive(Clone, Debug)]
pub struct RelayFate {
    /// The relaying auxiliary.
    pub by: NodeId,
    /// Upstream relays ride the backplane; downstream relays the air.
    pub via_backplane: bool,
    /// Whether the relayed copy reached the flow destination.
    pub reached_dst: bool,
}

/// Everything observed about one source transmission.
#[derive(Clone, Debug)]
pub struct TxRecord {
    /// Packet identity.
    pub id: PacketId,
    /// Which attempt this is (0 = first transmission).
    pub attempt: u32,
    /// Direction.
    pub dir: Direction,
    /// Time the frame left the source.
    pub at: SimTime,
    /// The auxiliary set announced by the vehicle at transmission time.
    pub aux_set: Vec<NodeId>,
    /// Auxiliaries (members of `aux_set`) that received this transmission.
    pub aux_heard: Vec<NodeId>,
    /// Whether the flow destination received this transmission.
    pub dst_heard: bool,
    /// Auxiliaries that later heard an ACK for this packet.
    pub ack_heard_by: Vec<NodeId>,
    /// Relay decisions made for this packet after this transmission:
    /// `(aux, probability, relayed)`.
    pub decisions: Vec<(NodeId, f64, bool)>,
    /// Fates of performed relays.
    pub relays: Vec<RelayFate>,
    /// Whether the packet (by id) was ultimately delivered to the
    /// destination by any path.
    pub delivered: bool,
}

impl TxRecord {
    /// Open the record of a [`LogEvent::SourceTx`]. `earlier` counts the
    /// id's earlier source transmissions: it is the attempt number.
    fn open(at: SimTime, earlier: u32, ev: LogEvent) -> TxRecord {
        let LogEvent::SourceTx {
            id,
            dir,
            aux_set,
            aux_heard,
            dst_heard,
        } = ev
        else {
            unreachable!("only a source transmission opens a record");
        };
        TxRecord {
            id,
            attempt: earlier,
            dir,
            at,
            aux_set,
            aux_heard,
            dst_heard,
            ack_heard_by: Vec::new(),
            decisions: Vec::new(),
            relays: Vec::new(),
            delivered: false,
        }
    }

    /// Attach an ACK, decision or relay event to this record, the latest
    /// of its id. ACK hearers join in `heard_by` order, each once, and
    /// only if they are in the aux set.
    fn attach(&mut self, ev: LogEvent) {
        match ev {
            LogEvent::AckAttach { heard_by, .. } => {
                for n in heard_by {
                    if self.aux_set.contains(&n) && !self.ack_heard_by.contains(&n) {
                        self.ack_heard_by.push(n);
                    }
                }
            }
            LogEvent::Decision {
                aux, prob, relayed, ..
            } => self.decisions.push((aux, prob, relayed)),
            LogEvent::Relay {
                by,
                via_backplane,
                reached,
                ..
            } => self.relays.push(RelayFate {
                by,
                via_backplane,
                reached_dst: reached,
            }),
            _ => unreachable!("only ACK, decision and relay events attach"),
        }
    }
}

/// The full log of a run.
#[derive(Default)]
pub struct RunLog {
    /// Source-transmission records, in transmission order.
    pub records: Vec<TxRecord>,
    /// Record indices per packet id, in creation order (ACKs, decisions
    /// and relays attach to the last one; delivery marks all of them).
    by_id: HashMap<PacketId, Vec<usize>>,
    /// Per-second size of the vehicle's auxiliary set (Table 1 row A1).
    pub aux_sizes: Vec<(u64, usize)>,
    /// Wireless data transmissions per direction (sources + wireless
    /// relays + retransmissions) — the Fig. 12 denominator.
    pub ledger_up: EfficiencyLedger,
    /// Downstream ledger.
    pub ledger_down: EfficiencyLedger,
    /// Backplane messages dropped by the capacity model.
    pub backplane_drops: u64,
}

impl RunLog {
    /// Fresh log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The efficiency ledger for a direction.
    pub fn efficiency(&self, dir: Direction) -> &EfficiencyLedger {
        match dir {
            Direction::Upstream => &self.ledger_up,
            Direction::Downstream => &self.ledger_down,
        }
    }

    /// Replay this (finished) log as a stream of [`LogEvent`]s, in
    /// record-creation order.
    ///
    /// Feeding the events back into a fresh `RunLog` reproduces this log
    /// bit-for-bit; feeding them into a
    /// [`BinaryRunLog`](crate::binlog::BinaryRunLog) serializes the run as
    /// a compact binary trace. Attachments are emitted right after their
    /// record (stamped with the record's transmission time); the delivery
    /// mark for an id is emitted after the last record of the id the live
    /// run marked — delivered flags are prefix-true per id, so one mark
    /// lands on exactly the same records. [`LogEvent::Retire`] follows the
    /// final record of each id so streaming consumers can drop per-id
    /// state, and the ledgers arrive once, at the end, stamped at time
    /// zero.
    pub fn replay_into<S: LogSink>(&self, sink: &mut S) {
        for (i, r) in self.records.iter().enumerate() {
            let (at, id) = (r.at, r.id);
            sink.apply(
                at,
                LogEvent::SourceTx {
                    id,
                    dir: r.dir,
                    aux_set: r.aux_set.clone(),
                    aux_heard: r.aux_heard.clone(),
                    dst_heard: r.dst_heard,
                },
            );
            if !r.ack_heard_by.is_empty() {
                let heard_by = r.ack_heard_by.clone();
                sink.apply(at, LogEvent::AckAttach { id, heard_by });
            }
            for &(aux, prob, relayed) in &r.decisions {
                sink.apply(
                    at,
                    LogEvent::Decision {
                        id,
                        aux,
                        prob,
                        relayed,
                    },
                );
            }
            for f in &r.relays {
                sink.apply(
                    at,
                    LogEvent::Relay {
                        id,
                        by: f.by,
                        via_backplane: f.via_backplane,
                        reached: f.reached_dst,
                    },
                );
            }
            let indices = &self.by_id[&id];
            let pos = indices
                .binary_search(&i)
                .expect("per-id index list covers every record");
            let last_of_id = pos + 1 == indices.len();
            let next_delivered = !last_of_id && self.records[indices[pos + 1]].delivered;
            if r.delivered && !next_delivered {
                sink.apply(at, LogEvent::DeliverMark { id });
            }
            if last_of_id {
                sink.apply(at, LogEvent::Retire { id });
            }
        }
        for &(sec, size) in &self.aux_sizes {
            sink.apply(
                SimTime::from_millis(sec * 1000),
                LogEvent::AuxSample { sec, size },
            );
        }
        let totals = LedgerTotals {
            up: self.ledger_up,
            down: self.ledger_down,
            backplane_drops: self.backplane_drops,
        };
        sink.apply(SimTime::ZERO, LogEvent::LedgerTotals(Box::new(totals)));
    }

    /// The streaming summary of this log, derived by the same
    /// accumulator [`StreamFold`] uses. `peak_pending` is the record
    /// count: an in-memory log holds every record at once.
    pub fn stream_summary(&self) -> StreamSummary {
        self.summary(&self.fold(), self.records.len())
    }

    /// Fold every record, in creation order.
    fn fold(&self) -> RecordFold {
        let mut fold = RecordFold::default();
        let mut oracle_hits: HashMap<PacketId, bool> = HashMap::new();
        for (i, r) in self.records.iter().enumerate() {
            fold.add(i as u64, r, oracle_hits.entry(r.id).or_default());
        }
        fold
    }

    /// The summary of finalized records `fold` under this log's aux
    /// samples, ledgers and drops.
    fn summary(&self, fold: &RecordFold, peak_pending: usize) -> StreamSummary {
        let table1 = fold.table1(&self.aux_sizes);
        let mut fp = Fingerprint::new();
        self.fingerprint_with(fold, &mut fp);
        StreamSummary {
            records: fold.records,
            fingerprint: fp.finish(),
            table2_false_positives: table1.down.b2_false_positive,
            table2_false_negatives: table1.down.c3_false_negative,
            table1,
            perfect_relay: fold.oracle.into_outcome(),
            ledger_up: self.ledger_up,
            ledger_down: self.ledger_down,
            backplane_drops: self.backplane_drops,
            peak_pending,
        }
    }

    /// The run-log fingerprint of finalized records `fold`: record
    /// count, digest sum, then this log's aux samples in order, ledgers
    /// and drops.
    fn fingerprint_with(&self, fold: &RecordFold, fp: &mut Fingerprint) {
        fp.push_len(fold.records as usize);
        fp.push_u64(fold.digest_sum);
        fp.push_len(self.aux_sizes.len());
        for &(sec, size) in &self.aux_sizes {
            fp.push_u64(sec);
            fp.push_len(size);
        }
        for ledger in [&self.ledger_up, &self.ledger_down] {
            fp.push_u64(ledger.wireless_tx);
            fp.push_u64(ledger.backplane_tx);
            fp.push_u64(ledger.ack_tx);
            fp.push_u64(ledger.delivered);
        }
        fp.push_u64(self.backplane_drops);
    }
}

impl LogSink for RunLog {
    fn apply(&mut self, at: SimTime, ev: LogEvent) {
        match ev {
            LogEvent::SourceTx { id, .. } => {
                let indices = self.by_id.entry(id).or_default();
                let rec = TxRecord::open(at, indices.len() as u32, ev);
                indices.push(self.records.len());
                self.records.push(rec);
            }
            ev @ (LogEvent::AckAttach { id, .. }
            | LogEvent::Decision { id, .. }
            | LogEvent::Relay { id, .. }) => {
                if let Some(&i) = self.by_id.get(&id).and_then(|ix| ix.last()) {
                    self.records[i].attach(ev);
                }
            }
            LogEvent::DeliverMark { id } => {
                // O(attempts of the id) via the per-id index list.
                for &i in self.by_id.get(&id).into_iter().flatten() {
                    self.records[i].delivered = true;
                }
            }
            LogEvent::AuxSample { sec, size } => {
                if self.aux_sizes.last().map(|&(s, _)| s) != Some(sec) {
                    self.aux_sizes.push((sec, size));
                }
            }
            LogEvent::Retire { .. } => {}
            LogEvent::LedgerTotals(t) => {
                self.ledger_up.merge(&t.up);
                self.ledger_down.merge(&t.down);
                self.backplane_drops += t.backplane_drops;
            }
        }
    }
}

impl Fingerprintable for RunLog {
    fn fingerprint_into(&self, fp: &mut Fingerprint) {
        self.fingerprint_with(&self.fold(), fp);
    }
}

/// Per-id working state of a [`StreamFold`].
#[derive(Default)]
struct IdState {
    /// Records the id opened so far.
    opened: u32,
    /// Unfinalized records of this id, creation order, with their global
    /// creation index.
    pending: Vec<(u64, TxRecord)>,
    /// The PerfectRelay oracle already delivered this id.
    oracle_hit: bool,
}

/// A [`LogSink`] that folds the event stream straight into the derived
/// statistics without materializing the record vector: a record is
/// finalized at its id's [`LogEvent::Retire`], or earlier once a newer
/// transmission of the id supersedes an already-delivered one.
#[derive(Default)]
pub struct StreamFold {
    ids: HashMap<PacketId, IdState>,
    /// Creation index of the next record.
    next_index: u64,
    /// The finalized records.
    fold: RecordFold,
    /// Aux samples, ledgers and drops, kept exactly as a [`RunLog`] keeps
    /// them; its records stay empty.
    run: RunLog,
    pending_now: usize,
    peak_pending: usize,
}

impl StreamFold {
    /// Fresh fold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finalize everything still pending (ids the stream never retired)
    /// and produce the summary.
    pub fn finish(mut self) -> StreamSummary {
        for (_, state) in std::mem::take(&mut self.ids) {
            self.retire(state);
        }
        self.run.summary(&self.fold, self.peak_pending)
    }

    fn retire(&mut self, mut state: IdState) {
        self.pending_now -= state.pending.len();
        for (index, rec) in &state.pending {
            self.fold.add(*index, rec, &mut state.oracle_hit);
        }
    }
}

impl LogSink for StreamFold {
    fn apply(&mut self, at: SimTime, ev: LogEvent) {
        match ev {
            LogEvent::SourceTx { id, .. } => {
                let state = self.ids.entry(id).or_default();
                // Delivered records never change again (the flag only
                // goes false → true and attachments target the latest
                // record), and a mark flags every pending record of the
                // id, so they lead the pending list: finalize them now so
                // long-lived ids do not pile up working state.
                let done = state
                    .pending
                    .iter()
                    .take_while(|(_, r)| r.delivered)
                    .count();
                for (index, rec) in state.pending.drain(..done) {
                    self.fold.add(index, &rec, &mut state.oracle_hit);
                }
                let rec = TxRecord::open(at, state.opened, ev);
                state.opened += 1;
                state.pending.push((self.next_index, rec));
                self.next_index += 1;
                self.pending_now = self.pending_now + 1 - done;
                self.peak_pending = self.peak_pending.max(self.pending_now);
            }
            ev @ (LogEvent::AckAttach { id, .. }
            | LogEvent::Decision { id, .. }
            | LogEvent::Relay { id, .. }) => {
                if let Some((_, r)) = self.ids.get_mut(&id).and_then(|s| s.pending.last_mut()) {
                    r.attach(ev);
                }
            }
            LogEvent::DeliverMark { id } => {
                if let Some(state) = self.ids.get_mut(&id) {
                    for (_, r) in &mut state.pending {
                        r.delivered = true;
                    }
                }
            }
            LogEvent::Retire { id } => {
                if let Some(state) = self.ids.remove(&id) {
                    self.retire(state);
                }
            }
            ev @ (LogEvent::AuxSample { .. } | LogEvent::LedgerTotals(_)) => self.run.apply(at, ev),
        }
    }
}

/// Everything the streaming fold derives from a trace.
#[derive(Clone, Debug)]
pub struct StreamSummary {
    /// Source-transmission records seen.
    pub records: u64,
    /// The run-log fingerprint — bit-identical to
    /// [`RunLog::fingerprint`](crate::Fingerprintable::fingerprint) of
    /// the equivalent in-memory log.
    pub fingerprint: u64,
    /// Table 1, both directions.
    pub table1: Table1,
    /// Table 2 downstream false-positive rate (B2).
    pub table2_false_positives: f64,
    /// Table 2 downstream false-negative rate (C3).
    pub table2_false_negatives: f64,
    /// The §5.4 PerfectRelay oracle estimate.
    pub perfect_relay: PerfectRelayOutcome,
    /// Upstream efficiency ledger.
    pub ledger_up: EfficiencyLedger,
    /// Downstream efficiency ledger.
    pub ledger_down: EfficiencyLedger,
    /// Backplane drops.
    pub backplane_drops: u64,
    /// High-water mark of simultaneously pending (unfinalized) records —
    /// the fold's working set, bounded by packets in flight rather than
    /// run length. [`RunLog::stream_summary`] reports its record count.
    pub peak_pending: usize,
}

/// Digest of one finalized [`TxRecord`] at creation index `index`.
///
/// The run-log fingerprint is the *wrapping sum* of these per-record
/// digests (order information rides inside each digest via `index`), so
/// a streaming consumer may finalize records in whatever order their
/// last mutation arrives and still reproduce the in-memory fingerprint
/// bit-for-bit.
fn record_digest(index: u64, r: &TxRecord) -> u64 {
    let mut fp = Fingerprint::new();
    fp.push_u64(index);
    fp.push_u64(r.id.origin.label());
    fp.push_u64(r.id.seq);
    fp.push_u64(r.attempt as u64);
    fp.push_u64(match r.dir {
        Direction::Upstream => 0,
        Direction::Downstream => 1,
    });
    fp.push_u64(r.at.as_micros());
    for ids in [&r.aux_set, &r.aux_heard, &r.ack_heard_by] {
        fp.push_len(ids.len());
        for n in ids {
            fp.push_u64(n.label());
        }
    }
    fp.push_bool(r.dst_heard);
    fp.push_len(r.decisions.len());
    for &(n, p, relayed) in &r.decisions {
        fp.push_u64(n.label());
        fp.push_f64(p);
        fp.push_bool(relayed);
    }
    fp.push_len(r.relays.len());
    for fate in &r.relays {
        fp.push_u64(fate.by.label());
        fp.push_bool(fate.via_backplane);
        fp.push_bool(fate.reached_dst);
    }
    fp.push_bool(r.delivered);
    fp.finish()
}

/// The one derivation of the paper's statistics from finalized records:
/// the fingerprint's digest sum, the Table 1 counts of each direction and
/// the PerfectRelay counts. Every ratio divides these integers once, so
/// whichever sink fed the records, the results agree bit-for-bit.
#[derive(Clone, Copy, Debug, Default)]
struct RecordFold {
    records: u64,
    digest_sum: u64,
    up: ColumnCounts,
    down: ColumnCounts,
    oracle: PerfectRelayCounts,
}

impl RecordFold {
    /// Fold record `r`, created `index`-th, once no later event can change
    /// it. The records of one id arrive in creation order with that id's
    /// `oracle_hit` flag.
    fn add(&mut self, index: u64, r: &TxRecord, oracle_hit: &mut bool) {
        self.records += 1;
        self.digest_sum = self.digest_sum.wrapping_add(record_digest(index, r));
        match r.dir {
            Direction::Upstream => self.up.add_record(r),
            Direction::Downstream => self.down.add_record(r),
        }
        self.oracle.add_record(r, oracle_hit);
    }

    /// Table 1 under the per-second aux samples `aux_sizes`.
    fn table1(&self, aux_sizes: &[(u64, usize)]) -> Table1 {
        // A1: the median aux-set size; the set belongs to the vehicle, so
        // both directions share it.
        let sizes: Vec<f64> = aux_sizes.iter().map(|&(_, s)| s as f64).collect();
        let a1 = vifi_metrics::median(&sizes);
        Table1 {
            up: self.up.into_column(a1),
            down: self.down.into_column(a1),
        }
    }
}

/// One direction's column of Table 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct Table1Column {
    /// A1: median number of auxiliary BSes.
    pub a1_median_aux: f64,
    /// A2: average number of auxiliaries that hear a source transmission.
    pub a2_aux_hear_tx: f64,
    /// A3: average number of auxiliaries that hear the source transmission
    /// but not the acknowledgment.
    pub a3_aux_hear_tx_not_ack: f64,
    /// B1: fraction of source transmissions that reach the destination.
    pub b1_src_reach: f64,
    /// B2: relayed transmissions corresponding to successful source
    /// transmissions (false positives), per successful source tx.
    pub b2_false_positive: f64,
    /// B3: average number of relayers when a false positive occurs.
    pub b3_relayers_on_fp: f64,
    /// C1: fraction of source transmissions that do not reach the
    /// destination.
    pub c1_src_fail: f64,
    /// C2: fraction of failed source transmissions overheard by ≥1 aux.
    pub c2_overheard: f64,
    /// C3: fraction of failed source transmissions that no auxiliary
    /// relays (false negatives).
    pub c3_false_negative: f64,
    /// C4: fraction of relayed packets that reach the destination.
    pub c4_relay_reach: f64,
}

/// Table 1: the behavioural statistics of ViFi, both directions.
#[derive(Clone, Copy, Debug, Default)]
pub struct Table1 {
    /// Upstream column.
    pub up: Table1Column,
    /// Downstream column.
    pub down: Table1Column,
}

/// Integer accumulators behind one [`Table1Column`]: every cell except A1
/// is a ratio of these counts.
#[derive(Clone, Copy, Debug, Default)]
struct ColumnCounts {
    /// Source transmissions.
    n: u64,
    /// Σ auxiliaries hearing each transmission (A2 numerator).
    aux_heard_sum: u64,
    /// Σ auxiliaries hearing the transmission but not the ACK (A3).
    aux_not_ack_sum: u64,
    /// Transmissions that reached the destination (B1).
    successes: u64,
    /// Relays attached to successful transmissions (B2 numerator).
    fp_relays: u64,
    /// Successful transmissions with ≥ 1 relay (B3 denominator).
    fp_events: u64,
    /// Transmissions that missed the destination (C1).
    failures: u64,
    /// Failures overheard by ≥ 1 auxiliary (C2 numerator).
    overheard: u64,
    /// Overheard failures nobody relayed (C3 numerator).
    unrelayed_overheard: u64,
    /// All relays (C4 denominator).
    relays_total: u64,
    /// Relays that reached the destination (C4 numerator).
    relays_reached: u64,
}

impl ColumnCounts {
    /// Fold one finalized record into the counts.
    fn add_record(&mut self, r: &TxRecord) {
        self.n += 1;
        self.aux_heard_sum += r.aux_heard.len() as u64;
        self.aux_not_ack_sum += r
            .aux_heard
            .iter()
            .filter(|a| !r.ack_heard_by.contains(a))
            .count() as u64;
        if r.dst_heard {
            self.successes += 1;
            self.fp_relays += r.relays.len() as u64;
            if !r.relays.is_empty() {
                self.fp_events += 1;
            }
        } else {
            self.failures += 1;
            if !r.aux_heard.is_empty() {
                self.overheard += 1;
                if r.relays.is_empty() {
                    self.unrelayed_overheard += 1;
                }
            }
        }
        self.relays_total += r.relays.len() as u64;
        self.relays_reached += r.relays.iter().filter(|f| f.reached_dst).count() as u64;
    }

    /// Convert to the published column; `a1_median_aux` is the median
    /// aux-set size.
    fn into_column(self, a1_median_aux: f64) -> Table1Column {
        let mut col = Table1Column::default();
        if self.n == 0 {
            return col;
        }
        col.a1_median_aux = a1_median_aux;
        let n = self.n as f64;
        col.a2_aux_hear_tx = self.aux_heard_sum as f64 / n;
        col.a3_aux_hear_tx_not_ack = self.aux_not_ack_sum as f64 / n;
        col.b1_src_reach = self.successes as f64 / n;
        col.c1_src_fail = self.failures as f64 / n;
        if self.successes > 0 {
            col.b2_false_positive = self.fp_relays as f64 / self.successes as f64;
            if self.fp_events > 0 {
                col.b3_relayers_on_fp = self.fp_relays as f64 / self.fp_events as f64;
            }
        }
        if self.failures > 0 {
            // C3's denominator is the *overheard* failures: the paper's own
            // consistency check ("roughly 65% of the lost source
            // transmissions are relayed" = C2 x (1 - C3)) only works out
            // that way for both directions.
            col.c2_overheard = self.overheard as f64 / self.failures as f64;
            if self.overheard > 0 {
                col.c3_false_negative = self.unrelayed_overheard as f64 / self.overheard as f64;
            }
        }
        if self.relays_total > 0 {
            col.c4_relay_reach = self.relays_reached as f64 / self.relays_total as f64;
        }
        col
    }
}

impl Table1 {
    /// Derive Table 1 from a run log.
    pub fn from_log(log: &RunLog) -> Table1 {
        log.fold().table1(&log.aux_sizes)
    }
}

/// One row of Table 2: downstream false positives/negatives for one
/// coordination scheme.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Scheme name ("ViFi", "¬G1", …).
    pub scheme: String,
    /// Relays of already-delivered packets per successful source tx.
    pub false_positives: f64,
    /// Failed source transmissions nobody relayed, per failed source tx.
    pub false_negatives: f64,
}

impl Table2Row {
    /// Compute the downstream false-positive/negative rates from a log.
    pub fn from_log(scheme: &str, log: &RunLog) -> Table2Row {
        let down = Table1::from_log(log).down;
        Table2Row {
            scheme: scheme.to_string(),
            false_positives: down.b2_false_positive,
            false_negatives: down.c3_false_negative,
        }
    }
}

/// The PerfectRelay oracle of §5.4, estimated from a ViFi log exactly as
/// the paper estimates it: upstream delivery = "some BS heard it";
/// downstream delivery = ViFi's relay outcome when ViFi relayed, success
/// when it did not; exactly one relay happens, and only when the
/// destination missed the source transmission.
#[derive(Clone, Copy, Debug, Default)]
pub struct PerfectRelayOutcome {
    /// Packets delivered per wireless transmission, upstream.
    pub efficiency_up: f64,
    /// Packets delivered per wireless transmission, downstream.
    pub efficiency_down: f64,
}

impl PerfectRelayOutcome {
    /// Estimate from a ViFi run log.
    pub fn from_log(log: &RunLog) -> PerfectRelayOutcome {
        log.fold().oracle.into_outcome()
    }
}

/// Integer accumulators behind [`PerfectRelayOutcome`].
#[derive(Clone, Copy, Debug, Default)]
struct PerfectRelayCounts {
    /// Upstream wireless transmissions (one per source tx; upstream
    /// relays ride the backplane for free).
    up_tx: u64,
    /// Distinct upstream packet ids delivered under the oracle.
    up_delivered: u64,
    /// Downstream wireless transmissions (source tx + the single perfect
    /// relay when the destination missed it and some aux could relay).
    down_tx: u64,
    /// Distinct downstream packet ids delivered under the oracle.
    down_delivered: u64,
}

impl PerfectRelayCounts {
    /// Fold one finalized record's transmission costs. A packet counts
    /// as delivered once, in the direction of its first transmission that
    /// the oracle delivers; `hit` is its id's flag.
    fn add_record(&mut self, r: &TxRecord, hit: &mut bool) {
        let delivered = match r.dir {
            // Upstream: delivered iff dst or any aux heard it.
            Direction::Upstream => {
                self.up_tx += 1;
                r.dst_heard || !r.aux_heard.is_empty()
            }
            // Downstream: delivery per the paper's two-case estimate.
            Direction::Downstream => {
                self.down_tx += 1;
                if r.dst_heard {
                    true
                } else if !r.aux_heard.is_empty() {
                    self.down_tx += 1; // the single perfect relay
                    if r.relays.iter().any(|f| !f.via_backplane) {
                        // ViFi relayed: reuse its outcome.
                        r.relays.iter().any(|f| f.reached_dst)
                    } else {
                        // ViFi did not relay: assume success (§5.4 rule ii).
                        true
                    }
                } else {
                    false
                }
            }
        };
        if delivered && !std::mem::replace(hit, true) {
            match r.dir {
                Direction::Upstream => self.up_delivered += 1,
                Direction::Downstream => self.down_delivered += 1,
            }
        }
    }

    /// The published per-direction efficiencies.
    fn into_outcome(self) -> PerfectRelayOutcome {
        let mut out = PerfectRelayOutcome::default();
        if self.up_tx > 0 {
            out.efficiency_up = self.up_delivered as f64 / self.up_tx as f64;
        }
        if self.down_tx > 0 {
            out.efficiency_down = self.down_delivered as f64 / self.down_tx as f64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(seq: u64) -> PacketId {
        PacketId {
            origin: NodeId(0),
            seq,
        }
    }

    fn aux(n: u32) -> Vec<NodeId> {
        (10..10 + n).map(NodeId).collect()
    }

    fn ms(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn tx(
        id: PacketId,
        dir: Direction,
        aux_set: Vec<NodeId>,
        aux_heard: Vec<NodeId>,
        dst_heard: bool,
    ) -> LogEvent {
        LogEvent::SourceTx {
            id,
            dir,
            aux_set,
            aux_heard,
            dst_heard,
        }
    }

    fn relay(id: PacketId, by: NodeId, via_backplane: bool, reached: bool) -> LogEvent {
        LogEvent::Relay {
            id,
            by,
            via_backplane,
            reached,
        }
    }

    fn decision(id: PacketId, aux: NodeId, prob: f64) -> LogEvent {
        LogEvent::Decision {
            id,
            aux,
            prob,
            relayed: true,
        }
    }

    #[test]
    fn attempts_count_per_id() {
        let mut log = RunLog::new();
        let up = Direction::Upstream;
        log.apply(ms(0), tx(id(1), up, aux(3), vec![], false));
        log.apply(ms(30), tx(id(1), up, aux(3), vec![], true));
        log.apply(ms(60), tx(id(2), up, aux(3), vec![], true));
        assert_eq!(log.records[0].attempt, 0);
        assert_eq!(log.records[1].attempt, 1);
        assert_eq!(log.records[2].attempt, 0);
    }

    #[test]
    fn table1_basic_rates() {
        let mut log = RunLog::new();
        for (sec, size) in [(0, 5), (1, 3), (2, 5)] {
            log.apply(ms(sec * 1000), LogEvent::AuxSample { sec, size });
        }
        // 4 upstream transmissions: 3 reach dst, 1 fails.
        for (i, dst) in [(0u64, true), (1, true), (2, true), (3, false)] {
            let heard = if dst {
                vec![NodeId(10)]
            } else {
                vec![NodeId(10), NodeId(11)]
            };
            log.apply(
                ms(i * 10),
                tx(id(i), Direction::Upstream, aux(5), heard, dst),
            );
            if dst {
                log.apply(ms(i * 10), LogEvent::DeliverMark { id: id(i) });
            }
        }
        // The failed one gets relayed by one aux over the backplane and
        // reaches the destination.
        log.apply(ms(40), decision(id(3), NodeId(10), 0.9));
        log.apply(ms(40), relay(id(3), NodeId(10), true, true));
        log.apply(ms(40), LogEvent::DeliverMark { id: id(3) });
        // One successful one also gets a (false-positive) relay.
        log.apply(ms(40), decision(id(0), NodeId(10), 0.3));
        log.apply(ms(40), relay(id(0), NodeId(10), true, true));

        let t = Table1::from_log(&log);
        assert_eq!(t.up.a1_median_aux, 5.0);
        assert!((t.up.b1_src_reach - 0.75).abs() < 1e-12);
        assert!((t.up.c1_src_fail - 0.25).abs() < 1e-12);
        // 1 relay on 3 successful tx.
        assert!((t.up.b2_false_positive - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.up.b3_relayers_on_fp, 1.0);
        // The only failure was overheard and relayed: no false negatives.
        assert_eq!(t.up.c2_overheard, 1.0);
        assert_eq!(t.up.c3_false_negative, 0.0);
        assert_eq!(t.up.c4_relay_reach, 1.0);
        // A2: (1+1+1+2)/4.
        assert!((t.up.a2_aux_hear_tx - 1.25).abs() < 1e-12);
    }

    #[test]
    fn ack_hearing_reduces_a3() {
        let mut log = RunLog::new();
        let heard = vec![NodeId(10), NodeId(11)];
        log.apply(ms(0), tx(id(1), Direction::Downstream, aux(3), heard, true));
        let heard_by = vec![NodeId(10), NodeId(99)];
        log.apply(
            ms(0),
            LogEvent::AckAttach {
                id: id(1),
                heard_by,
            },
        );
        let t = Table1::from_log(&log);
        assert_eq!(t.down.a2_aux_hear_tx, 2.0);
        assert_eq!(t.down.a3_aux_hear_tx_not_ack, 1.0, "one aux missed the ACK");
    }

    #[test]
    fn table2_row_uses_downstream() {
        let mut log = RunLog::new();
        // Downstream: 2 successes with 3 relays total → fp = 1.5;
        // 2 failures, one unrelayed → fn = 0.5.
        for (i, dst) in [(0u64, true), (1, true), (2, false), (3, false)] {
            let heard = vec![NodeId(10)];
            log.apply(
                ms(i * 10),
                tx(id(i), Direction::Downstream, aux(4), heard, dst),
            );
        }
        log.apply(ms(40), relay(id(0), NodeId(10), false, true));
        log.apply(ms(40), relay(id(0), NodeId(11), false, false));
        log.apply(ms(40), relay(id(1), NodeId(12), false, true));
        log.apply(ms(40), relay(id(2), NodeId(10), false, true));
        let row = Table2Row::from_log("ViFi", &log);
        assert!((row.false_positives - 1.5).abs() < 1e-12);
        assert!((row.false_negatives - 0.5).abs() < 1e-12);
    }

    #[test]
    fn perfect_relay_upstream_counts_any_bs() {
        let mut log = RunLog::new();
        let up = Direction::Upstream;
        // tx0: dst heard. tx1: only aux heard. tx2: nobody heard.
        log.apply(ms(0), tx(id(0), up, aux(2), vec![], true));
        log.apply(ms(0), tx(id(1), up, aux(2), vec![NodeId(10)], false));
        log.apply(ms(0), tx(id(2), up, aux(2), vec![], false));
        let p = PerfectRelayOutcome::from_log(&log);
        assert!((p.efficiency_up - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_relay_downstream_spends_one_relay() {
        let mut log = RunLog::new();
        let down = Direction::Downstream;
        // tx0: dst heard (1 tx, delivered).
        log.apply(ms(0), tx(id(0), down, aux(2), vec![], true));
        // tx1: dst missed, aux heard, ViFi did not relay → assumed success,
        // 2 tx.
        log.apply(ms(0), tx(id(1), down, aux(2), vec![NodeId(10)], false));
        // tx2: dst missed, aux heard, ViFi relayed and failed → failure,
        // 2 tx.
        log.apply(ms(0), tx(id(2), down, aux(2), vec![NodeId(10)], false));
        log.apply(ms(0), relay(id(2), NodeId(10), false, false));
        let p = PerfectRelayOutcome::from_log(&log);
        // Delivered: id0, id1 → 2; tx: 1 + 2 + 2 = 5.
        assert!((p.efficiency_down - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn aux_samples_dedup_by_second() {
        let mut log = RunLog::new();
        for (sec, size) in [(0, 4), (0, 9), (1, 5)] {
            log.apply(ms(sec * 1000), LogEvent::AuxSample { sec, size });
        }
        assert_eq!(log.aux_sizes, vec![(0, 4), (1, 5)]);
    }

    #[test]
    fn empty_log_yields_zeroed_tables() {
        let log = RunLog::new();
        let t = Table1::from_log(&log);
        assert_eq!(t.up.b1_src_reach, 0.0);
        let p = PerfectRelayOutcome::from_log(&log);
        assert_eq!(p.efficiency_up, 0.0);
    }
}
