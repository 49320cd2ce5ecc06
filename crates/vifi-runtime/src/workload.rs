//! Application workload drivers: the traffic of §3.1/§5.2 (CBR probes),
//! §5.3.1 (short TCP transfers) and §5.3.2 (VoIP).
//!
//! Drivers are deliberately decoupled from the simulator through a tiny
//! command queue (`HostApi`): a driver reacts to deliveries and ticks by
//! queueing sends and future ticks; the simulation executes them. That
//! keeps the drivers unit-testable and the borrow graph trivial.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use vifi_apps::tcp::{TcpConfig, TcpReceiver, TcpSegment, TcpSender};
use vifi_apps::voip::{VoipParams, VoipReport, VoipScorer, VoipSource};
use vifi_sim::{Rng, SimDuration, SimTime};

use crate::fingerprint::{Fingerprint, Fingerprintable};

/// What traffic to run over the link layer.
#[derive(Clone, Debug)]
pub enum WorkloadSpec {
    /// No application traffic (beacons only).
    Idle,
    /// CBR probes in both directions (default: 500 B / 100 ms, §3.1).
    Cbr {
        /// Packet interval.
        interval: SimDuration,
        /// Application payload size.
        size_bytes: u32,
    },
    /// Repeated file transfers (§5.3.1): a fetch loop in each direction,
    /// 10 s no-progress abort.
    Tcp {
        /// Transfer size (10 KB in the paper).
        file_size: u64,
        /// Run the downstream fetch loop.
        down: bool,
        /// Run the upstream fetch loop.
        up: bool,
    },
    /// Bidirectional G.729 VoIP (§5.3.2).
    Voip,
}

impl WorkloadSpec {
    /// The paper's probe workload.
    pub fn paper_cbr() -> Self {
        WorkloadSpec::Cbr {
            interval: SimDuration::from_millis(100),
            size_bytes: 500,
        }
    }

    /// The paper's TCP workload (both directions).
    pub fn paper_tcp() -> Self {
        WorkloadSpec::Tcp {
            file_size: 10 * 1024,
            down: true,
            up: true,
        }
    }
}

/// Commands a driver queues for the simulation to execute.
pub(crate) enum HostCmd {
    /// Send application bytes from the vehicle toward the Internet.
    SendUpstream(Bytes),
    /// Send application bytes from the Internet toward the vehicle
    /// (enters the radio at the current anchor after the wired delay).
    SendDownstream(Bytes),
    /// Wake the driver at `at` on channel `chan`.
    ScheduleTick {
        /// Driver-defined channel.
        chan: u8,
        /// Absolute wake time.
        at: SimTime,
    },
}

/// The driver's view of the host simulation.
pub(crate) struct HostApi<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// Workload RNG stream.
    #[allow(dead_code)]
    pub rng: &'a mut Rng,
    /// Deferred commands.
    pub cmds: Vec<HostCmd>,
}

impl HostApi<'_> {
    fn up(&mut self, b: Bytes) {
        self.cmds.push(HostCmd::SendUpstream(b));
    }
    fn down(&mut self, b: Bytes) {
        self.cmds.push(HostCmd::SendDownstream(b));
    }
    fn tick(&mut self, chan: u8, at: SimTime) {
        self.cmds.push(HostCmd::ScheduleTick { chan, at });
    }
}

/// A workload driver.
pub(crate) trait Driver: Send {
    /// Called once at simulation start.
    fn start(&mut self, api: &mut HostApi);
    /// A scheduled tick fired.
    fn on_tick(&mut self, chan: u8, api: &mut HostApi);
    /// Application bytes were delivered at the vehicle (downstream).
    fn on_vehicle_rx(&mut self, app: &Bytes, api: &mut HostApi);
    /// Application bytes were delivered at the Internet host (upstream);
    /// `radio_exit` is when the anchor received them (before the wired
    /// hop).
    fn on_internet_rx(&mut self, app: &Bytes, radio_exit: SimTime, api: &mut HostApi);
    /// Final report.
    fn report(&mut self, end: SimTime) -> WorkloadReport;
}

/// Per-workload results.
#[derive(Clone, Debug)]
pub enum WorkloadReport {
    /// No traffic.
    Idle,
    /// CBR probe outcomes.
    Cbr(CbrStats),
    /// TCP transfer outcomes.
    Tcp(TcpStats),
    /// VoIP outcomes.
    Voip(VoipStats),
}

impl WorkloadReport {
    /// The CBR stats, if this is a CBR report (fleet aggregation helper).
    pub fn as_cbr(&self) -> Option<&CbrStats> {
        match self {
            WorkloadReport::Cbr(c) => Some(c),
            _ => None,
        }
    }
}

/// Merge per-vehicle CBR reports into one fleet-level [`CbrStats`]: probe
/// outcomes and delays concatenate, so ratios, sessions and delay
/// percentiles over the result describe the fleet as a whole. Non-CBR
/// reports are ignored.
///
/// Pass reports in a stable order (vehicle-id order, as
/// [`crate::RunOutcome::vehicles`] is laid out — the order sharded runs
/// merge into) and the aggregate is as deterministic as the runs.
pub fn aggregate_cbr<'a>(reports: impl IntoIterator<Item = &'a WorkloadReport>) -> CbrStats {
    let mut agg = CbrStats::default();
    for r in reports {
        if let Some(c) = r.as_cbr() {
            agg.merge_from(c);
        }
    }
    agg
}

impl Fingerprintable for WorkloadReport {
    fn fingerprint_into(&self, fp: &mut Fingerprint) {
        match self {
            WorkloadReport::Idle => fp.push_u64(0),
            WorkloadReport::Cbr(c) => {
                fp.push_u64(1);
                c.fingerprint_into(fp);
            }
            WorkloadReport::Tcp(t) => {
                fp.push_u64(2);
                t.fingerprint_into(fp);
            }
            WorkloadReport::Voip(v) => {
                fp.push_u64(3);
                v.fingerprint_into(fp);
            }
        }
    }
}

impl Fingerprintable for CbrStats {
    fn fingerprint_into(&self, fp: &mut Fingerprint) {
        for probes in [&self.up, &self.down] {
            fp.push_len(probes.len());
            for &(at, ok) in probes {
                fp.push_u64(at.as_micros());
                fp.push_bool(ok);
            }
        }
        for delays in [&self.up_delays, &self.down_delays] {
            fp.push_len(delays.len());
            for &d in delays {
                fp.push_f64(d);
            }
        }
    }
}

impl Fingerprintable for TcpStats {
    fn fingerprint_into(&self, fp: &mut Fingerprint) {
        for dir in [&self.down, &self.up] {
            fp.push_len(dir.transfer_times.len());
            for &t in &dir.transfer_times {
                fp.push_f64(t);
            }
            fp.push_len(dir.transfers_per_session.len());
            for &n in &dir.transfers_per_session {
                fp.push_u64(n as u64);
            }
            fp.push_u64(dir.aborts as u64);
        }
    }
}

impl Fingerprintable for VoipStats {
    fn fingerprint_into(&self, fp: &mut Fingerprint) {
        for leg in [&self.down, &self.up] {
            fp.push_len(leg.scores.len());
            for w in &leg.scores {
                fp.push_u64(w.window);
                fp.push_f64(w.loss);
                fp.push_f64(w.delay_ms);
                fp.push_f64(w.mos);
            }
            fp.push_len(leg.sessions.len());
            for s in &leg.sessions {
                fp.push_u64(s.as_micros());
            }
            fp.push_f64(leg.mean_mos);
        }
    }
}

// ---------------------------------------------------------------------
// CBR
// ---------------------------------------------------------------------

/// Outcomes of the CBR probe workload.
#[derive(Clone, Debug, Default)]
pub struct CbrStats {
    /// (sent_at, delivered) per upstream probe.
    pub up: Vec<(SimTime, bool)>,
    /// (sent_at, delivered) per downstream probe.
    pub down: Vec<(SimTime, bool)>,
    /// One-way delays of delivered probes (seconds).
    pub up_delays: Vec<f64>,
    /// Downstream delays.
    pub down_delays: Vec<f64>,
}

impl CbrStats {
    /// Per-interval combined (up+down) reception ratios for session
    /// analysis, at the given aggregation interval.
    pub fn combined_ratios(&self, interval: SimDuration, duration: SimDuration) -> Vec<f64> {
        let n = (duration.as_micros() / interval.as_micros()) as usize;
        let mut delivered = vec![0u32; n];
        let mut expected = vec![0u32; n];
        for &(at, ok) in self.up.iter().chain(self.down.iter()) {
            let idx = at.bin(interval) as usize;
            if idx < n {
                expected[idx] += 1;
                delivered[idx] += ok as u32;
            }
        }
        (0..n)
            .map(|i| {
                if expected[i] == 0 {
                    0.0
                } else {
                    delivered[i] as f64 / expected[i] as f64
                }
            })
            .collect()
    }

    /// Total probes delivered (both directions).
    pub fn total_delivered(&self) -> u64 {
        self.up
            .iter()
            .chain(self.down.iter())
            .filter(|&&(_, ok)| ok)
            .count() as u64
    }

    /// Total probes sent (both directions).
    pub fn total_sent(&self) -> u64 {
        (self.up.len() + self.down.len()) as u64
    }

    /// Append another vehicle's probe outcomes and delays to this one —
    /// the concatenation step of [`aggregate_cbr`], usable directly when
    /// the stats are already in hand rather than behind reports.
    pub fn merge_from(&mut self, other: &CbrStats) {
        self.up.extend_from_slice(&other.up);
        self.down.extend_from_slice(&other.down);
        self.up_delays.extend_from_slice(&other.up_delays);
        self.down_delays.extend_from_slice(&other.down_delays);
    }

    /// Fraction of sent probes delivered (0 when nothing was sent).
    pub fn delivery_ratio(&self) -> f64 {
        let sent = self.total_sent();
        if sent == 0 {
            0.0
        } else {
            self.total_delivered() as f64 / sent as f64
        }
    }
}

pub(crate) struct CbrDriver {
    interval: SimDuration,
    size_bytes: u32,
    next_seq_up: u64,
    next_seq_down: u64,
    /// seq → index into stats vectors.
    stats: CbrStats,
}

const CBR_CHAN_UP: u8 = 0;
const CBR_CHAN_DOWN: u8 = 1;

impl CbrDriver {
    pub fn new(interval: SimDuration, size_bytes: u32) -> Self {
        assert!(size_bytes >= 16, "CBR payload carries seq + timestamp");
        CbrDriver {
            interval,
            size_bytes,
            next_seq_up: 0,
            next_seq_down: 0,
            stats: CbrStats::default(),
        }
    }

    fn encode(&self, seq: u64, at: SimTime) -> Bytes {
        let mut b = BytesMut::with_capacity(self.size_bytes as usize);
        b.put_u64_le(seq);
        b.put_u64_le(at.as_micros());
        b.resize(self.size_bytes as usize, 0);
        b.freeze()
    }

    fn decode(app: &Bytes) -> Option<(u64, SimTime)> {
        if app.len() < 16 {
            return None;
        }
        let mut s = &app[..];
        let seq = s.get_u64_le();
        let at = SimTime::from_micros(s.get_u64_le());
        Some((seq, at))
    }
}

impl Driver for CbrDriver {
    fn start(&mut self, api: &mut HostApi) {
        api.tick(CBR_CHAN_UP, api.now);
        api.tick(CBR_CHAN_DOWN, api.now);
    }

    fn on_tick(&mut self, chan: u8, api: &mut HostApi) {
        match chan {
            CBR_CHAN_UP => {
                let seq = self.next_seq_up;
                self.next_seq_up += 1;
                let payload = self.encode(seq, api.now);
                self.stats.up.push((api.now, false));
                api.up(payload);
                api.tick(CBR_CHAN_UP, api.now + self.interval);
            }
            CBR_CHAN_DOWN => {
                let seq = self.next_seq_down;
                self.next_seq_down += 1;
                let payload = self.encode(seq, api.now);
                self.stats.down.push((api.now, false));
                api.down(payload);
                api.tick(CBR_CHAN_DOWN, api.now + self.interval);
            }
            _ => unreachable!("unknown CBR channel"),
        }
    }

    fn on_vehicle_rx(&mut self, app: &Bytes, api: &mut HostApi) {
        if let Some((seq, sent)) = Self::decode(app) {
            if let Some(e) = self.stats.down.get_mut(seq as usize) {
                if !e.1 {
                    e.1 = true;
                    self.stats
                        .down_delays
                        .push(api.now.saturating_since(sent).as_secs_f64());
                }
            }
        }
    }

    fn on_internet_rx(&mut self, app: &Bytes, radio_exit: SimTime, _api: &mut HostApi) {
        if let Some((seq, sent)) = Self::decode(app) {
            if let Some(e) = self.stats.up.get_mut(seq as usize) {
                if !e.1 {
                    e.1 = true;
                    self.stats
                        .up_delays
                        .push(radio_exit.saturating_since(sent).as_secs_f64());
                }
            }
        }
    }

    fn report(&mut self, _end: SimTime) -> WorkloadReport {
        WorkloadReport::Cbr(self.stats.clone())
    }
}

// ---------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------

/// Outcomes of the repeated-transfer workload (per direction).
#[derive(Clone, Debug, Default)]
pub struct TcpDirStats {
    /// Completed transfer durations, seconds.
    pub transfer_times: Vec<f64>,
    /// Completed transfers per session (sessions end at an abort or at
    /// run end).
    pub transfers_per_session: Vec<u32>,
    /// Aborted (no progress for 10 s) transfer attempts.
    pub aborts: u32,
}

impl TcpDirStats {
    /// Median completed-transfer time, seconds.
    pub fn median_time(&self) -> f64 {
        vifi_metrics::median(&self.transfer_times)
    }

    /// Mean completed transfers per session, over sessions with at least
    /// one completed transfer. Repeated aborts while the vehicle is out
    /// of radio coverage produce empty back-to-back "sessions" that the
    /// paper's deployment (which measures during drive-bys) never sees;
    /// counting them would just measure the dead-air fraction of the lap.
    pub fn mean_per_session(&self) -> f64 {
        let nonempty: Vec<f64> = self
            .transfers_per_session
            .iter()
            .filter(|&&x| x > 0)
            .map(|&x| x as f64)
            .collect();
        vifi_metrics::mean(&nonempty)
    }
}

/// Both directions.
#[derive(Clone, Debug, Default)]
pub struct TcpStats {
    /// Vehicle-fetches-from-server loop.
    pub down: TcpDirStats,
    /// Server-fetches-from-vehicle loop.
    pub up: TcpDirStats,
}

/// The 10-second no-progress abort rule of §5.3.1.
const TCP_ABORT: SimDuration = SimDuration::from_secs(10);
const TCP_CHAN: u8 = 0;

/// Tag bytes multiplexing the two transfer loops over one link.
const TAG_DOWN: u8 = 0;
const TAG_UP: u8 = 1;

struct TransferLoop {
    /// TAG_DOWN: sender at the Internet; TAG_UP: sender at the vehicle.
    tag: u8,
    file_size: u64,
    sender: TcpSender,
    receiver: TcpReceiver,
    started: SimTime,
    stats: TcpDirStats,
    session_count: u32,
}

impl TransferLoop {
    fn new(tag: u8, file_size: u64, now: SimTime) -> Self {
        TransferLoop {
            tag,
            file_size,
            sender: TcpSender::new(TcpConfig::default(), file_size, now),
            receiver: TcpReceiver::new(),
            started: now,
            stats: TcpDirStats::default(),
            session_count: 0,
        }
    }

    fn restart(&mut self, now: SimTime) {
        self.sender = TcpSender::new(TcpConfig::default(), self.file_size, now);
        self.receiver = TcpReceiver::new();
        self.started = now;
    }

    fn send_segment(&self, seg: TcpSegment, api: &mut HostApi, from_sender: bool) {
        let mut b = BytesMut::with_capacity(20);
        b.put_u8(self.tag);
        b.extend_from_slice(&seg.encode());
        // Pad segments to their true wire size so the MAC airtime and the
        // channel see realistic frames.
        let wire = seg.wire_bytes() as usize;
        if b.len() < wire {
            b.resize(wire, 0);
        }
        let payload = b.freeze();
        // The sender's segments flow sender→receiver; replies the other
        // way. Down-loop sender is at the Internet.
        let downstream = (self.tag == TAG_DOWN) == from_sender;
        if downstream {
            api.down(payload);
        } else {
            api.up(payload);
        }
    }

    fn pump_sender(&mut self, api: &mut HostApi) {
        for seg in self.sender.poll_tx(api.now) {
            self.send_segment(seg, api, true);
        }
    }

    /// Handle a segment arriving at the sender side.
    fn sender_rx(&mut self, seg: TcpSegment, api: &mut HostApi) {
        self.sender.on_segment(seg, api.now);
        if self.sender.is_complete() {
            let d = self.sender.duration().unwrap().as_secs_f64();
            self.stats.transfer_times.push(d);
            self.session_count += 1;
            self.restart(api.now);
        }
        self.pump_sender(api);
    }

    /// Handle a segment arriving at the receiver side.
    fn receiver_rx(&mut self, seg: TcpSegment, api: &mut HostApi) {
        for reply in self.receiver.on_segment(seg, api.now) {
            self.send_segment(reply, api, false);
        }
    }

    fn check_abort(&mut self, now: SimTime) {
        let last = self.sender.last_progress().max(self.started);
        if !self.sender.is_complete() && now.saturating_since(last) >= TCP_ABORT {
            // §5.3.1: terminate and start afresh; the abort ends a session.
            self.stats.aborts += 1;
            self.stats.transfers_per_session.push(self.session_count);
            self.session_count = 0;
            self.restart(now);
        }
    }

    fn on_timer(&mut self, api: &mut HostApi) {
        self.sender.on_timer(api.now);
        self.check_abort(api.now);
        self.pump_sender(api);
    }

    fn next_deadline(&self, now: SimTime) -> SimTime {
        let abort_at = self.sender.last_progress().max(self.started) + TCP_ABORT;
        match self.sender.next_timer() {
            Some(t) => t.min(abort_at),
            None => abort_at,
        }
        .max(now + SimDuration::from_millis(1))
    }

    fn finish(&mut self, _end: SimTime) -> TcpDirStats {
        self.stats.transfers_per_session.push(self.session_count);
        self.stats.clone()
    }
}

pub(crate) struct TcpDriver {
    down: Option<TransferLoop>,
    up: Option<TransferLoop>,
    /// Instants with a tick already scheduled and not yet fired. A tick
    /// runs every timer due at its instant and re-arms for the next
    /// deadline, so one tick per instant is enough: without this set,
    /// every driver call would start its own self-re-arming chain.
    pending: Vec<SimTime>,
}

impl TcpDriver {
    pub fn new(file_size: u64, down: bool, up: bool, now: SimTime) -> Self {
        TcpDriver {
            down: down.then(|| TransferLoop::new(TAG_DOWN, file_size, now)),
            up: up.then(|| TransferLoop::new(TAG_UP, file_size, now)),
            pending: Vec::new(),
        }
    }

    fn reschedule(&mut self, api: &mut HostApi) {
        let mut next = SimTime::MAX;
        for l in [&self.down, &self.up].into_iter().flatten() {
            next = next.min(l.next_deadline(api.now));
        }
        if next != SimTime::MAX && !self.pending.contains(&next) {
            self.pending.push(next);
            api.tick(TCP_CHAN, next);
        }
    }
}

impl Driver for TcpDriver {
    fn start(&mut self, api: &mut HostApi) {
        if let Some(l) = &mut self.down {
            l.pump_sender(api);
        }
        if let Some(l) = &mut self.up {
            l.pump_sender(api);
        }
        self.reschedule(api);
    }

    fn on_tick(&mut self, _chan: u8, api: &mut HostApi) {
        self.pending.retain(|&t| t != api.now);
        if let Some(l) = &mut self.down {
            l.on_timer(api);
        }
        if let Some(l) = &mut self.up {
            l.on_timer(api);
        }
        self.reschedule(api);
    }

    fn on_vehicle_rx(&mut self, app: &Bytes, api: &mut HostApi) {
        if app.is_empty() {
            return;
        }
        let tag = app[0];
        let Some(seg) = TcpSegment::decode(&app[1..]) else {
            return;
        };
        match tag {
            // Down-loop traffic arriving at the vehicle = data for the
            // receiver.
            TAG_DOWN => {
                if let Some(l) = &mut self.down {
                    l.receiver_rx(seg, api);
                }
            }
            // Up-loop traffic arriving at the vehicle = ACKs for the
            // sender.
            TAG_UP => {
                if let Some(l) = &mut self.up {
                    l.sender_rx(seg, api);
                }
            }
            _ => {}
        }
        self.reschedule(api);
    }

    fn on_internet_rx(&mut self, app: &Bytes, _radio_exit: SimTime, api: &mut HostApi) {
        if app.is_empty() {
            return;
        }
        let tag = app[0];
        let Some(seg) = TcpSegment::decode(&app[1..]) else {
            return;
        };
        match tag {
            TAG_DOWN => {
                if let Some(l) = &mut self.down {
                    l.sender_rx(seg, api);
                }
            }
            TAG_UP => {
                if let Some(l) = &mut self.up {
                    l.receiver_rx(seg, api);
                }
            }
            _ => {}
        }
        self.reschedule(api);
    }

    fn report(&mut self, end: SimTime) -> WorkloadReport {
        WorkloadReport::Tcp(TcpStats {
            down: self
                .down
                .as_mut()
                .map(|l| l.finish(end))
                .unwrap_or_default(),
            up: self.up.as_mut().map(|l| l.finish(end)).unwrap_or_default(),
        })
    }
}

// ---------------------------------------------------------------------
// VoIP
// ---------------------------------------------------------------------

/// Outcomes of the VoIP workload.
#[derive(Clone, Debug)]
pub struct VoipStats {
    /// Downstream (Internet → vehicle) call leg.
    pub down: VoipReport,
    /// Upstream (vehicle → Internet) call leg.
    pub up: VoipReport,
}

impl VoipStats {
    /// Median uninterrupted session length across both legs, seconds —
    /// the Fig. 11 metric (a conversation needs both directions; we score
    /// the stricter leg).
    pub fn median_session_secs(&self) -> f64 {
        self.down
            .median_session()
            .min(self.up.median_session())
            .as_secs_f64()
    }

    /// Mean of 3-second MoS scores across both legs.
    pub fn mean_mos(&self) -> f64 {
        (self.down.mean_mos + self.up.mean_mos) / 2.0
    }
}

const VOIP_CHAN_UP: u8 = 0;
const VOIP_CHAN_DOWN: u8 = 1;

pub(crate) struct VoipDriver {
    params: VoipParams,
    src_up: VoipSource,
    src_down: VoipSource,
    score_up: VoipScorer,
    score_down: VoipScorer,
    /// Dedup of application-level deliveries: salvaging legitimately
    /// re-sends a payload under a fresh link-layer id, so the same codec
    /// packet can arrive twice.
    seen_up: std::collections::HashSet<u64>,
    seen_down: std::collections::HashSet<u64>,
}

impl VoipDriver {
    pub fn new(params: VoipParams, start: SimTime) -> Self {
        VoipDriver {
            params,
            src_up: VoipSource::new(params, start),
            src_down: VoipSource::new(params, start),
            score_up: VoipScorer::new(params),
            score_down: VoipScorer::new(params),
            seen_up: Default::default(),
            seen_down: Default::default(),
        }
    }

    fn encode(seq: u64, at: SimTime, size: u32) -> Bytes {
        let mut b = BytesMut::with_capacity(size as usize);
        b.put_u64_le(seq);
        b.put_u64_le(at.as_micros());
        b.resize(size as usize, 0);
        b.freeze()
    }

    fn decode(app: &Bytes) -> Option<(u64, SimTime)> {
        if app.len() < 16 {
            return None;
        }
        let mut s = &app[..16];
        let seq = s.get_u64_le();
        let at = SimTime::from_micros(s.get_u64_le());
        Some((seq, at))
    }
}

impl Driver for VoipDriver {
    fn start(&mut self, api: &mut HostApi) {
        api.tick(VOIP_CHAN_UP, api.now);
        api.tick(VOIP_CHAN_DOWN, api.now);
    }

    fn on_tick(&mut self, chan: u8, api: &mut HostApi) {
        let size = self.params.payload_bytes.max(16);
        match chan {
            VOIP_CHAN_UP => {
                for (seq, at) in self.src_up.poll(api.now) {
                    self.score_up.on_sent(at);
                    api.up(Self::encode(seq, at, size));
                }
                api.tick(VOIP_CHAN_UP, self.src_up.next_at());
            }
            VOIP_CHAN_DOWN => {
                for (seq, at) in self.src_down.poll(api.now) {
                    self.score_down.on_sent(at);
                    api.down(Self::encode(seq, at, size));
                }
                api.tick(VOIP_CHAN_DOWN, self.src_down.next_at());
            }
            _ => unreachable!("unknown VoIP channel"),
        }
    }

    fn on_vehicle_rx(&mut self, app: &Bytes, api: &mut HostApi) {
        if let Some((seq, sent)) = Self::decode(app) {
            if self.seen_down.insert(seq) {
                self.score_down.on_delivered(sent, api.now);
            }
        }
    }

    fn on_internet_rx(&mut self, app: &Bytes, radio_exit: SimTime, _api: &mut HostApi) {
        if let Some((seq, sent)) = Self::decode(app) {
            if self.seen_up.insert(seq) {
                self.score_up.on_delivered(sent, radio_exit);
            }
        }
    }

    fn report(&mut self, _end: SimTime) -> WorkloadReport {
        WorkloadReport::Voip(VoipStats {
            down: self.score_down.report(),
            up: self.score_up.report(),
        })
    }
}

/// Idle driver.
pub(crate) struct IdleDriver;

impl Driver for IdleDriver {
    fn start(&mut self, _api: &mut HostApi) {}
    fn on_tick(&mut self, _chan: u8, _api: &mut HostApi) {}
    fn on_vehicle_rx(&mut self, _app: &Bytes, _api: &mut HostApi) {}
    fn on_internet_rx(&mut self, _app: &Bytes, _radio_exit: SimTime, _api: &mut HostApi) {}
    fn report(&mut self, _end: SimTime) -> WorkloadReport {
        WorkloadReport::Idle
    }
}

/// Build the driver for a spec.
pub(crate) fn build_driver(spec: &WorkloadSpec, start: SimTime) -> Box<dyn Driver> {
    match spec {
        WorkloadSpec::Idle => Box::new(IdleDriver),
        WorkloadSpec::Cbr {
            interval,
            size_bytes,
        } => Box::new(CbrDriver::new(*interval, *size_bytes)),
        WorkloadSpec::Tcp {
            file_size,
            down,
            up,
        } => Box::new(TcpDriver::new(*file_size, *down, *up, start)),
        WorkloadSpec::Voip => Box::new(VoipDriver::new(VoipParams::default(), start)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn api(now_ms: u64, rng: &mut Rng) -> HostApi<'_> {
        HostApi {
            now: SimTime::from_millis(now_ms),
            rng,
            cmds: Vec::new(),
        }
    }

    #[test]
    fn cbr_emits_on_schedule() {
        let mut rng = Rng::new(1);
        let mut d = CbrDriver::new(SimDuration::from_millis(100), 500);
        let mut a = api(0, &mut rng);
        d.start(&mut a);
        assert_eq!(a.cmds.len(), 2, "two initial ticks");
        let mut a = api(0, &mut rng);
        d.on_tick(CBR_CHAN_UP, &mut a);
        let sends = a
            .cmds
            .iter()
            .filter(|c| matches!(c, HostCmd::SendUpstream(_)))
            .count();
        assert_eq!(sends, 1);
        // Next tick scheduled at +100 ms.
        assert!(a.cmds.iter().any(|c| matches!(
            c,
            HostCmd::ScheduleTick { chan: CBR_CHAN_UP, at } if *at == SimTime::from_millis(100)
        )));
    }

    #[test]
    fn cbr_accounts_delivery_once() {
        let mut rng = Rng::new(1);
        let mut d = CbrDriver::new(SimDuration::from_millis(100), 500);
        let mut a = api(0, &mut rng);
        d.on_tick(CBR_CHAN_UP, &mut a);
        let payload = a
            .cmds
            .iter()
            .find_map(|c| match c {
                HostCmd::SendUpstream(b) => Some(b.clone()),
                _ => None,
            })
            .unwrap();
        let mut a = api(50, &mut rng);
        d.on_internet_rx(&payload, SimTime::from_millis(40), &mut a);
        d.on_internet_rx(&payload, SimTime::from_millis(45), &mut a); // dup
        let r = match d.report(SimTime::from_secs(1)) {
            WorkloadReport::Cbr(c) => c,
            _ => unreachable!(),
        };
        assert_eq!(r.total_delivered(), 1);
        assert_eq!(r.up_delays.len(), 1);
        assert!((r.up_delays[0] - 0.040).abs() < 1e-9);
    }

    #[test]
    fn cbr_ratio_series() {
        let mut stats = CbrStats::default();
        // Second 0: 10 up sent, all delivered; second 1: 10 sent, none.
        for i in 0..10 {
            stats.up.push((SimTime::from_millis(i * 100), true));
        }
        for i in 10..20 {
            stats.up.push((SimTime::from_millis(i * 100), false));
        }
        let r = stats.combined_ratios(SimDuration::from_secs(1), SimDuration::from_secs(2));
        assert_eq!(r, vec![1.0, 0.0]);
    }

    #[test]
    fn tcp_driver_round_trip_over_perfect_pipe() {
        // Shuttle commands between driver-side endpoints by hand; the
        // "network" is instantaneous and lossless.
        let mut rng = Rng::new(2);
        let mut d = TcpDriver::new(10_240, true, false, SimTime::ZERO);
        let mut now = 0u64;
        let mut a = api(now, &mut rng);
        d.start(&mut a);
        let mut cmds = a.cmds;
        let mut completed_at = None;
        for _ in 0..10_000 {
            now += 1;
            let mut next_cmds = Vec::new();
            let mut rng2 = Rng::new(3);
            for cmd in cmds {
                let mut a = api(now, &mut rng2);
                match cmd {
                    HostCmd::SendDownstream(b) => d.on_vehicle_rx(&b, &mut a),
                    HostCmd::SendUpstream(b) => d.on_internet_rx(&b, a.now, &mut a),
                    HostCmd::ScheduleTick { .. } => {
                        // Fire ticks immediately in this toy harness.
                        d.on_tick(TCP_CHAN, &mut a);
                    }
                }
                next_cmds.extend(a.cmds);
            }
            let r = match d.report(SimTime::from_millis(now)) {
                WorkloadReport::Tcp(t) => t,
                _ => unreachable!(),
            };
            // report() pushes a session entry; rebuild driver state by
            // checking transfer counts only.
            if !r.down.transfer_times.is_empty() {
                completed_at = Some(now);
                break;
            }
            // undo report()'s session push (test-only introspection)
            if let Some(l) = &mut d.down {
                l.stats.transfers_per_session.pop();
            }
            if let Some(l) = &mut d.up {
                l.stats.transfers_per_session.pop();
            }
            cmds = next_cmds;
            if cmds.is_empty() {
                break;
            }
        }
        assert!(completed_at.is_some(), "transfer should complete");
    }

    #[test]
    fn tcp_driver_keeps_one_tick_per_instant() {
        let ticks = |cmds: &[HostCmd]| -> Vec<SimTime> {
            cmds.iter()
                .filter_map(|c| match c {
                    HostCmd::ScheduleTick { at, .. } => Some(*at),
                    _ => None,
                })
                .collect()
        };
        let mut rng = Rng::new(5);
        let mut d = TcpDriver::new(10_240, true, false, SimTime::ZERO);
        let mut a = api(0, &mut rng);
        d.start(&mut a);
        let deadline = ticks(&a.cmds);
        assert_eq!(deadline.len(), 1, "start arms one tick");
        let segments: Vec<Bytes> = a
            .cmds
            .iter()
            .filter_map(|c| match c {
                HostCmd::SendDownstream(b) => Some(b.clone()),
                _ => None,
            })
            .collect();
        assert!(!segments.is_empty());
        // Many segment arrivals at one instant: every call reschedules,
        // the deadline does not move, and no second tick is armed for it.
        let mut armed = Vec::new();
        for _ in 0..10 {
            for seg in &segments {
                let mut a = api(1, &mut rng);
                d.on_vehicle_rx(seg, &mut a);
                armed.extend(ticks(&a.cmds));
            }
        }
        assert!(armed.is_empty(), "deadline already armed: {armed:?}");
        // The tick fires and re-arms exactly once for the next deadline,
        // however many calls follow at that instant.
        let mut a = HostApi {
            now: deadline[0],
            rng: &mut rng,
            cmds: Vec::new(),
        };
        d.on_tick(TCP_CHAN, &mut a);
        let mut armed = ticks(&a.cmds);
        for seg in &segments {
            let mut a = HostApi {
                now: deadline[0],
                rng: &mut rng,
                cmds: Vec::new(),
            };
            d.on_vehicle_rx(seg, &mut a);
            armed.extend(ticks(&a.cmds));
        }
        assert_eq!(armed.len(), 1, "one tick for the next deadline: {armed:?}");
        assert!(armed[0] > deadline[0]);
    }

    #[test]
    fn voip_driver_scores_both_legs() {
        let mut rng = Rng::new(4);
        let mut d = VoipDriver::new(VoipParams::default(), SimTime::ZERO);
        // Generate 3 s of packets, deliver everything promptly.
        for ms in (0..3000).step_by(20) {
            let mut a = api(ms, &mut rng);
            d.on_tick(VOIP_CHAN_UP, &mut a);
            d.on_tick(VOIP_CHAN_DOWN, &mut a);
            for cmd in a.cmds {
                let mut a2 = api(ms + 10, &mut rng);
                match cmd {
                    HostCmd::SendUpstream(b) => {
                        d.on_internet_rx(&b, SimTime::from_millis(ms + 10), &mut a2)
                    }
                    HostCmd::SendDownstream(b) => d.on_vehicle_rx(&b, &mut a2),
                    HostCmd::ScheduleTick { .. } => {}
                }
            }
        }
        let r = match d.report(SimTime::from_secs(3)) {
            WorkloadReport::Voip(v) => v,
            _ => unreachable!(),
        };
        assert_eq!(r.down.sessions.len(), 1);
        assert_eq!(r.up.sessions.len(), 1);
        assert!(r.mean_mos() > 3.5, "clean call MoS {}", r.mean_mos());
        assert!(r.median_session_secs() >= 3.0);
    }
}
