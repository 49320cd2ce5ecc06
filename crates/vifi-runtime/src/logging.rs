//! Packet-level run logs and the paper's derived statistics.
//!
//! The runtime records one [`TxRecord`] per *source transmission* (a data
//! frame with `relayed_by == None`), then attaches to it: which
//! auxiliaries heard it, whether the destination heard it, who heard the
//! destination's ACK, every auxiliary's relay decision, and each relay's
//! fate. Everything the paper derives from its packet logs comes from
//! these records:
//!
//! * **Table 1** (rows A1–C4) — [`Table1::from_log`];
//! * **Table 2** (false positives/negatives per coordination scheme) —
//!   [`Table2Row::from_log`];
//! * **Fig. 12** (medium-use efficiency incl. the PerfectRelay oracle) —
//!   [`RunLog::efficiency`] and [`PerfectRelayOutcome::from_log`].

use std::collections::HashMap;

use vifi_core::{Direction, PacketId};
use vifi_metrics::EfficiencyLedger;
use vifi_phy::NodeId;
use vifi_sim::SimTime;

use crate::fingerprint::{Fingerprint, Fingerprintable};

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

    /// Record a source transmission.
    pub fn on_source_tx(
        &mut self,
        id: PacketId,
        dir: Direction,
        at: SimTime,
        aux_set: Vec<NodeId>,
        aux_heard: Vec<NodeId>,
        dst_heard: bool,
    ) {
        let indices = self.by_id.entry(id).or_default();
        let attempt = indices
            .last()
            .map(|&i| self.records[i].attempt + 1)
            .unwrap_or(0);
        let rec = TxRecord {
            id,
            attempt,
            dir,
            at,
            aux_set,
            aux_heard,
            dst_heard,
            ack_heard_by: Vec::new(),
            decisions: Vec::new(),
            relays: Vec::new(),
            delivered: false,
        };
        indices.push(self.records.len());
        self.records.push(rec);
    }

    fn latest_mut(&mut self, id: PacketId) -> Option<&mut TxRecord> {
        let &i = self.by_id.get(&id)?.last()?;
        self.records.get_mut(i)
    }

    /// Record which auxiliaries heard an ACK for `id`.
    pub fn on_ack_heard(&mut self, id: PacketId, heard_by: &[NodeId]) {
        if let Some(r) = self.latest_mut(id) {
            // Small batches keep the branch-free linear scan; large ones
            // would go quadratic in `contains` checks, so membership is
            // resolved through a sorted copy of the (immutable) aux set
            // plus a hash set of already-attached auxiliaries. Both paths
            // push in `heard_by` order, so output is bit-identical.
            if r.aux_set.len() * heard_by.len() <= 64 {
                for n in heard_by {
                    if r.aux_set.contains(n) && !r.ack_heard_by.contains(n) {
                        r.ack_heard_by.push(*n);
                    }
                }
            } else {
                let mut aux_sorted = r.aux_set.clone();
                aux_sorted.sort_unstable();
                let mut attached: std::collections::HashSet<NodeId> =
                    r.ack_heard_by.iter().copied().collect();
                for n in heard_by {
                    if aux_sorted.binary_search(n).is_ok() && attached.insert(*n) {
                        r.ack_heard_by.push(*n);
                    }
                }
            }
        }
    }

    /// Record an auxiliary's relay decision.
    pub fn on_decision(&mut self, id: PacketId, aux: NodeId, prob: f64, relayed: bool) {
        if let Some(r) = self.latest_mut(id) {
            r.decisions.push((aux, prob, relayed));
        }
    }

    /// Record the fate of a performed relay.
    pub fn on_relay(&mut self, id: PacketId, by: NodeId, via_backplane: bool, reached: bool) {
        if let Some(r) = self.latest_mut(id) {
            r.relays.push(RelayFate {
                by,
                via_backplane,
                reached_dst: reached,
            });
        }
    }

    /// Record an application-level delivery of `id` at the destination.
    pub fn on_delivered(&mut self, id: PacketId) {
        // Mark every transmission of this id (delivery is per packet) —
        // O(attempts of the id) via the per-id index list, not a scan of
        // the whole log.
        if let Some(indices) = self.by_id.get(&id) {
            for &i in indices {
                self.records[i].delivered = true;
            }
        }
    }

    /// Record the vehicle's aux-set size at a 1-second sample point.
    pub fn on_aux_sample(&mut self, sec: u64, size: usize) {
        if self.aux_sizes.last().map(|&(s, _)| s) != Some(sec) {
            self.aux_sizes.push((sec, size));
        }
    }

    /// The efficiency ledger for a direction.
    pub fn efficiency(&self, dir: Direction) -> &EfficiencyLedger {
        match dir {
            Direction::Upstream => &self.ledger_up,
            Direction::Downstream => &self.ledger_down,
        }
    }

    fn dir_records(&self, dir: Direction) -> impl Iterator<Item = &TxRecord> {
        self.records.iter().filter(move |r| r.dir == dir)
    }

    fn ledger_mut(&mut self, dir: Direction) -> &mut EfficiencyLedger {
        match dir {
            Direction::Upstream => &mut self.ledger_up,
            Direction::Downstream => &mut self.ledger_down,
        }
    }

    /// Replay this (finished) log as a stream of [`LogSink`] events, in
    /// record-creation order.
    ///
    /// Feeding the events back into a fresh `RunLog` reproduces this log
    /// bit-for-bit; feeding them into a
    /// [`BinaryRunLog`](crate::binlog::BinaryRunLog) serializes the run as
    /// a compact binary trace. Attachments are emitted right after their
    /// record (stamped with the record's transmission time); the delivery
    /// mark for an id is emitted after the last record of the id the live
    /// run marked — delivered flags are prefix-true per id, so one mark
    /// lands on exactly the same records. [`LogSink::retire`] follows the
    /// final record of each id so streaming consumers can drop per-id
    /// state, and ledgers arrive once, additively, at the end.
    pub fn replay_into<S: LogSink>(&self, sink: &mut S) {
        for (i, r) in self.records.iter().enumerate() {
            sink.source_tx(
                r.at,
                r.id,
                r.dir,
                r.aux_set.clone(),
                r.aux_heard.clone(),
                r.dst_heard,
            );
            if !r.ack_heard_by.is_empty() {
                sink.ack_attach(r.at, r.id, &r.ack_heard_by);
            }
            for &(aux, prob, relayed) in &r.decisions {
                sink.decision(r.at, r.id, aux, prob, relayed);
            }
            for f in &r.relays {
                sink.relay(r.at, r.id, f.by, f.via_backplane, f.reached_dst);
            }
            let indices = &self.by_id[&r.id];
            let pos = indices
                .binary_search(&i)
                .expect("per-id index list covers every record");
            let last_of_id = pos + 1 == indices.len();
            let next_delivered = !last_of_id && self.records[indices[pos + 1]].delivered;
            if r.delivered && !next_delivered {
                sink.deliver_mark(r.at, r.id);
            }
            if last_of_id {
                sink.retire(r.at, r.id);
            }
        }
        for &(sec, size) in &self.aux_sizes {
            sink.aux_sample(SimTime::from_millis(sec * 1000), sec, size);
        }
        sink.ledger_totals(
            [
                self.ledger_up.wireless_tx,
                self.ledger_up.backplane_tx,
                self.ledger_up.ack_tx,
                self.ledger_up.delivered,
            ],
            [
                self.ledger_down.wireless_tx,
                self.ledger_down.backplane_tx,
                self.ledger_down.ack_tx,
                self.ledger_down.delivered,
            ],
            self.backplane_drops,
        );
    }
}

/// A consumer of the runtime's logging events.
///
/// The coupled engine buffers per-shard log operations and applies them in
/// canonical `(time, lane, seq)` order at run end; this trait is the
/// surface it applies them *to*. [`RunLog`] implements it by mutating its
/// in-memory records, [`BinaryRunLog`](crate::binlog::BinaryRunLog) by
/// appending length-prefixed binary records to a byte stream — same event
/// sequence, constant memory.
///
/// Record events (`source_tx` … `deliver_mark`) carry packet semantics;
/// ledger events (`wireless_tx` … `backplane_drop_count`) are unit
/// increments of the efficiency accounting; `ledger_totals` adds whole
/// ledgers at once (used by trace replay instead of re-emitting every
/// increment).
pub trait LogSink {
    /// A source transmission of `id` at `at`.
    fn source_tx(
        &mut self,
        at: SimTime,
        id: PacketId,
        dir: Direction,
        aux_set: Vec<NodeId>,
        aux_heard: Vec<NodeId>,
        dst_heard: bool,
    );
    /// Auxiliaries that heard an ACK for `id` (attaches to its latest
    /// record, filtered to aux-set members).
    fn ack_attach(&mut self, at: SimTime, id: PacketId, heard_by: &[NodeId]);
    /// An auxiliary's relay decision for `id`.
    fn decision(&mut self, at: SimTime, id: PacketId, aux: NodeId, prob: f64, relayed: bool);
    /// The fate of a performed relay of `id`.
    fn relay(&mut self, at: SimTime, id: PacketId, by: NodeId, via_backplane: bool, reached: bool);
    /// Application-level delivery of `id` (marks every record of the id).
    fn deliver_mark(&mut self, at: SimTime, id: PacketId);
    /// Aux-set size sample at second `sec`.
    fn aux_sample(&mut self, at: SimTime, sec: u64, size: usize);
    /// One wireless data transmission in `dir`.
    fn wireless_tx(&mut self, at: SimTime, dir: Direction);
    /// One protocol ACK transmission in `dir`.
    fn ack_tx(&mut self, at: SimTime, dir: Direction);
    /// One backplane message (upstream relays ride the backplane).
    fn backplane_tx(&mut self, at: SimTime);
    /// One delivered packet counted in `dir`'s ledger.
    fn ledger_delivered(&mut self, at: SimTime, dir: Direction);
    /// One backplane message dropped by the capacity model.
    fn backplane_drop_count(&mut self, at: SimTime);
    /// No further events will reference `id` (advisory; lets streaming
    /// consumers finalize and drop per-id state).
    fn retire(&mut self, at: SimTime, id: PacketId) {
        let _ = (at, id);
    }
    /// Add whole ledgers (`[wireless_tx, backplane_tx, ack_tx,
    /// delivered]` per direction) and a backplane-drop total at once.
    fn ledger_totals(&mut self, up: [u64; 4], down: [u64; 4], backplane_drops: u64);
}

impl LogSink for RunLog {
    fn source_tx(
        &mut self,
        at: SimTime,
        id: PacketId,
        dir: Direction,
        aux_set: Vec<NodeId>,
        aux_heard: Vec<NodeId>,
        dst_heard: bool,
    ) {
        self.on_source_tx(id, dir, at, aux_set, aux_heard, dst_heard);
    }

    fn ack_attach(&mut self, _at: SimTime, id: PacketId, heard_by: &[NodeId]) {
        self.on_ack_heard(id, heard_by);
    }

    fn decision(&mut self, _at: SimTime, id: PacketId, aux: NodeId, prob: f64, relayed: bool) {
        self.on_decision(id, aux, prob, relayed);
    }

    fn relay(
        &mut self,
        _at: SimTime,
        id: PacketId,
        by: NodeId,
        via_backplane: bool,
        reached: bool,
    ) {
        self.on_relay(id, by, via_backplane, reached);
    }

    fn deliver_mark(&mut self, _at: SimTime, id: PacketId) {
        self.on_delivered(id);
    }

    fn aux_sample(&mut self, _at: SimTime, sec: u64, size: usize) {
        self.on_aux_sample(sec, size);
    }

    fn wireless_tx(&mut self, _at: SimTime, dir: Direction) {
        self.ledger_mut(dir).on_wireless_tx();
    }

    fn ack_tx(&mut self, _at: SimTime, dir: Direction) {
        self.ledger_mut(dir).on_ack_tx();
    }

    fn backplane_tx(&mut self, _at: SimTime) {
        self.ledger_up.on_backplane_tx();
    }

    fn ledger_delivered(&mut self, _at: SimTime, dir: Direction) {
        self.ledger_mut(dir).on_delivered();
    }

    fn backplane_drop_count(&mut self, _at: SimTime) {
        self.backplane_drops += 1;
    }

    fn ledger_totals(&mut self, up: [u64; 4], down: [u64; 4], backplane_drops: u64) {
        for (ledger, t) in [(&mut self.ledger_up, up), (&mut self.ledger_down, down)] {
            ledger.wireless_tx += t[0];
            ledger.backplane_tx += t[1];
            ledger.ack_tx += t[2];
            ledger.delivered += t[3];
        }
        self.backplane_drops += backplane_drops;
    }
}

/// Digest of one finalized [`TxRecord`] at creation index `index`.
///
/// The run-log fingerprint is the *wrapping sum* of these per-record
/// digests (order information rides inside each digest via `index`), so
/// a streaming consumer may finalize records in whatever order their
/// last mutation arrives and still reproduce the in-memory fingerprint
/// bit-for-bit.
pub fn record_digest(index: u64, r: &TxRecord) -> u64 {
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

impl Fingerprintable for RunLog {
    fn fingerprint_into(&self, fp: &mut Fingerprint) {
        fp.push_len(self.records.len());
        let sum = self.records.iter().enumerate().fold(0u64, |acc, (i, r)| {
            acc.wrapping_add(record_digest(i as u64, r))
        });
        fp.push_u64(sum);
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

/// Integer accumulators behind one [`Table1Column`].
///
/// Every Table 1 cell except A1 is a ratio of counts; keeping the counts
/// explicit lets the in-memory path ([`Table1::from_log`]) and the
/// streaming binary-trace fold (`binlog`) share the exact same arithmetic
/// — the divisions happen once, in [`ColumnCounts::into_column`], so the
/// two paths agree bit-for-bit.
#[derive(Clone, Copy, Debug, Default)]
pub struct ColumnCounts {
    /// Source transmissions.
    pub n: u64,
    /// Σ auxiliaries hearing each transmission (A2 numerator).
    pub aux_heard_sum: u64,
    /// Σ auxiliaries hearing the transmission but not the ACK (A3).
    pub aux_not_ack_sum: u64,
    /// Transmissions that reached the destination (B1).
    pub successes: u64,
    /// Relays attached to successful transmissions (B2 numerator).
    pub fp_relays: u64,
    /// Successful transmissions with ≥ 1 relay (B3 denominator).
    pub fp_events: u64,
    /// Transmissions that missed the destination (C1).
    pub failures: u64,
    /// Failures overheard by ≥ 1 auxiliary (C2 numerator).
    pub overheard: u64,
    /// Overheard failures nobody relayed (C3 numerator).
    pub unrelayed_overheard: u64,
    /// All relays (C4 denominator).
    pub relays_total: u64,
    /// Relays that reached the destination (C4 numerator).
    pub relays_reached: u64,
}

impl ColumnCounts {
    /// Fold one finalized record into the counts.
    pub fn add_record(&mut self, r: &TxRecord) {
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
    /// aux-set size (computed by the caller from the aux samples).
    pub fn into_column(self, a1_median_aux: f64) -> Table1Column {
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

/// Median aux-set size over the per-second samples (Table 1 row A1; the
/// set belongs to the vehicle, so both directions share it).
pub fn median_aux_size(aux_sizes: &[(u64, usize)]) -> f64 {
    let sizes: Vec<f64> = aux_sizes.iter().map(|&(_, s)| s as f64).collect();
    vifi_metrics::median(&sizes)
}

impl Table1 {
    /// Derive Table 1 from a run log.
    pub fn from_log(log: &RunLog) -> Table1 {
        Table1 {
            up: Self::column(log, Direction::Upstream),
            down: Self::column(log, Direction::Downstream),
        }
    }

    fn column(log: &RunLog, dir: Direction) -> Table1Column {
        let mut counts = ColumnCounts::default();
        for r in log.dir_records(dir) {
            counts.add_record(r);
        }
        counts.into_column(median_aux_size(&log.aux_sizes))
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
        let col = Table1::column(log, Direction::Downstream);
        Table2Row {
            scheme: scheme.to_string(),
            false_positives: col.b2_false_positive,
            false_negatives: col.c3_false_negative,
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

/// Integer accumulators behind [`PerfectRelayOutcome`], shared by the
/// in-memory estimate and the streaming binary-trace fold so their
/// divisions agree bit-for-bit.
#[derive(Clone, Copy, Debug, Default)]
pub struct PerfectRelayCounts {
    /// Upstream wireless transmissions (one per source tx; upstream
    /// relays ride the backplane for free).
    pub up_tx: u64,
    /// Distinct upstream packet ids delivered under the oracle.
    pub up_delivered: u64,
    /// Downstream wireless transmissions (source tx + the single perfect
    /// relay when the destination missed it and some aux could relay).
    pub down_tx: u64,
    /// Distinct downstream packet ids delivered under the oracle.
    pub down_delivered: u64,
}

impl PerfectRelayCounts {
    /// Fold one finalized record's transmission costs, returning whether
    /// this record qualifies its packet id as delivered under the oracle.
    /// The caller deduplicates per id (a packet counts once no matter how
    /// many of its transmissions qualify) and then bumps
    /// [`PerfectRelayCounts::up_delivered`] /
    /// [`PerfectRelayCounts::down_delivered`].
    pub fn add_record(&mut self, r: &TxRecord) -> bool {
        match r.dir {
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
        }
    }

    /// The published per-direction efficiencies.
    pub fn into_outcome(self) -> PerfectRelayOutcome {
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

impl PerfectRelayOutcome {
    /// Estimate from a ViFi run log.
    pub fn from_log(log: &RunLog) -> PerfectRelayOutcome {
        let mut counts = PerfectRelayCounts::default();
        let mut seen: std::collections::HashSet<PacketId> = Default::default();
        for r in &log.records {
            if counts.add_record(r) && seen.insert(r.id) {
                match r.dir {
                    Direction::Upstream => counts.up_delivered += 1,
                    Direction::Downstream => counts.down_delivered += 1,
                }
            }
        }
        counts.into_outcome()
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

    #[test]
    fn attempts_count_per_id() {
        let mut log = RunLog::new();
        log.on_source_tx(
            id(1),
            Direction::Upstream,
            SimTime::ZERO,
            aux(3),
            vec![],
            false,
        );
        log.on_source_tx(
            id(1),
            Direction::Upstream,
            SimTime::from_millis(30),
            aux(3),
            vec![],
            true,
        );
        log.on_source_tx(
            id(2),
            Direction::Upstream,
            SimTime::from_millis(60),
            aux(3),
            vec![],
            true,
        );
        assert_eq!(log.records[0].attempt, 0);
        assert_eq!(log.records[1].attempt, 1);
        assert_eq!(log.records[2].attempt, 0);
    }

    #[test]
    fn table1_basic_rates() {
        let mut log = RunLog::new();
        log.on_aux_sample(0, 5);
        log.on_aux_sample(1, 3);
        log.on_aux_sample(2, 5);
        // 4 upstream transmissions: 3 reach dst, 1 fails.
        for (i, dst) in [(0u64, true), (1, true), (2, true), (3, false)] {
            log.on_source_tx(
                id(i),
                Direction::Upstream,
                SimTime::from_millis(i * 10),
                aux(5),
                if dst {
                    vec![NodeId(10)]
                } else {
                    vec![NodeId(10), NodeId(11)]
                },
                dst,
            );
            if dst {
                log.on_delivered(id(i));
            }
        }
        // The failed one gets relayed by one aux over the backplane and
        // reaches the destination.
        log.on_decision(id(3), NodeId(10), 0.9, true);
        log.on_relay(id(3), NodeId(10), true, true);
        log.on_delivered(id(3));
        // One successful one also gets a (false-positive) relay.
        log.on_decision(id(0), NodeId(10), 0.3, true);
        log.on_relay(id(0), NodeId(10), true, true);

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
        log.on_source_tx(
            id(1),
            Direction::Downstream,
            SimTime::ZERO,
            aux(3),
            vec![NodeId(10), NodeId(11)],
            true,
        );
        log.on_ack_heard(id(1), &[NodeId(10), NodeId(99)]);
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
            log.on_source_tx(
                id(i),
                Direction::Downstream,
                SimTime::from_millis(i * 10),
                aux(4),
                vec![NodeId(10)],
                dst,
            );
        }
        log.on_relay(id(0), NodeId(10), false, true);
        log.on_relay(id(0), NodeId(11), false, false);
        log.on_relay(id(1), NodeId(12), false, true);
        log.on_relay(id(2), NodeId(10), false, true);
        let row = Table2Row::from_log("ViFi", &log);
        assert!((row.false_positives - 1.5).abs() < 1e-12);
        assert!((row.false_negatives - 0.5).abs() < 1e-12);
    }

    #[test]
    fn perfect_relay_upstream_counts_any_bs() {
        let mut log = RunLog::new();
        // tx0: dst heard. tx1: only aux heard. tx2: nobody heard.
        log.on_source_tx(
            id(0),
            Direction::Upstream,
            SimTime::ZERO,
            aux(2),
            vec![],
            true,
        );
        log.on_source_tx(
            id(1),
            Direction::Upstream,
            SimTime::ZERO,
            aux(2),
            vec![NodeId(10)],
            false,
        );
        log.on_source_tx(
            id(2),
            Direction::Upstream,
            SimTime::ZERO,
            aux(2),
            vec![],
            false,
        );
        let p = PerfectRelayOutcome::from_log(&log);
        assert!((p.efficiency_up - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_relay_downstream_spends_one_relay() {
        let mut log = RunLog::new();
        // tx0: dst heard (1 tx, delivered).
        log.on_source_tx(
            id(0),
            Direction::Downstream,
            SimTime::ZERO,
            aux(2),
            vec![],
            true,
        );
        // tx1: dst missed, aux heard, ViFi did not relay → assumed success,
        // 2 tx.
        log.on_source_tx(
            id(1),
            Direction::Downstream,
            SimTime::ZERO,
            aux(2),
            vec![NodeId(10)],
            false,
        );
        // tx2: dst missed, aux heard, ViFi relayed and failed → failure,
        // 2 tx.
        log.on_source_tx(
            id(2),
            Direction::Downstream,
            SimTime::ZERO,
            aux(2),
            vec![NodeId(10)],
            false,
        );
        log.on_relay(id(2), NodeId(10), false, false);
        let p = PerfectRelayOutcome::from_log(&log);
        // Delivered: id0, id1 → 2; tx: 1 + 2 + 2 = 5.
        assert!((p.efficiency_down - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn aux_samples_dedup_by_second() {
        let mut log = RunLog::new();
        log.on_aux_sample(0, 4);
        log.on_aux_sample(0, 9);
        log.on_aux_sample(1, 5);
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
