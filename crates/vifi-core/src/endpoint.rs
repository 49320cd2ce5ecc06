//! The ViFi endpoint: one state machine playing all the protocol roles.
//!
//! A single [`Endpoint`] type implements the vehicle, the anchor, and the
//! auxiliary behaviours of §4.3 — which role it plays for a given packet
//! is decided by addressing and by the vehicle's beacon announcements, not
//! by construction. The same type also runs the paper's BRR hard-handoff
//! baseline (diversity off) and the "Only Diversity" ablation (salvaging
//! off), via [`VifiConfig`] switches, which is exactly how the paper's
//! prototype frames its comparisons (§5.1).
//!
//! The endpoint is a pure poll-style state machine: the host (the
//! `vifi-runtime` simulator, a test, or in principle a real driver shim)
//! feeds it frames, backplane messages, timer wake-ups and application
//! payloads, always with an explicit `now`, and collects [`Action`]s and
//! outgoing frames. It never blocks, never sleeps, and never looks at a
//! wall clock.

use std::collections::{BTreeSet, VecDeque};

use bytes::Bytes;
use vifi_phy::NodeId;
use vifi_sim::{FxHashMap, Rng, SimDuration, SimTime};

use crate::beacon::{BeaconPayload, ProbView, VehicleInfo};
use crate::bitmap::{RxBitmap, WireBitmap};
use crate::blacklist::Blacklist;
use crate::config::VifiConfig;
use crate::ids::{Direction, PacketId};
use crate::prob::{PreparedRelayOwned, RelayInputs};
use crate::retx::RetxTimer;

/// Whether this endpoint is a vehicle or a basestation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// A mobile client.
    Vehicle,
    /// A fixed basestation (anchor and/or auxiliary, per packet).
    Bs,
}

/// A data frame (broadcast at the MAC; logically addressed here).
#[derive(Clone, Debug, PartialEq)]
pub struct DataFrame {
    /// Unique packet identity (origin + sequence), §4.7.
    pub id: PacketId,
    /// Logical transfer source (vehicle upstream, anchor downstream).
    pub flow_src: NodeId,
    /// Logical transfer destination.
    pub flow_dst: NodeId,
    /// Set when this copy is a relay by an auxiliary (§4.3 step 3);
    /// relayed copies are never relayed again.
    pub relayed_by: Option<NodeId>,
    /// Application payload.
    pub app: Bytes,
    /// Piggybacked feedback about the reverse stream (§4.8).
    pub bitmap: WireBitmap,
}

/// A protocol-level acknowledgment (§4.8: broadcast frames are not MAC-
/// acked, so ViFi sends its own).
#[derive(Clone, Debug, PartialEq)]
pub struct AckFrame {
    /// The acknowledging node (the flow destination).
    pub from: NodeId,
    /// The packet being acknowledged.
    pub id: PacketId,
    /// Reverse-stream feedback.
    pub bitmap: WireBitmap,
}

/// Everything that can ride on the wireless medium.
#[derive(Clone, Debug, PartialEq)]
pub enum VifiPayload {
    /// Periodic beacon.
    Beacon(BeaconPayload),
    /// Data (source transmission, retransmission, or downstream relay).
    Data(DataFrame),
    /// Acknowledgment.
    Ack(AckFrame),
}

/// Messages on the wired inter-BS backplane.
#[derive(Clone, Debug)]
pub enum BackplaneMsg {
    /// An auxiliary relaying an upstream packet to the anchor (§4.3:
    /// "Upstream packets are relayed on the inter-BS backplane").
    RelayData(DataFrame),
    /// A new anchor asking the previous anchor for stranded packets
    /// (§4.5; pull-based, unlike DSR's push).
    SalvageRequest {
        /// The requesting (new) anchor.
        new_anchor: NodeId,
        /// The vehicle whose packets are sought.
        vehicle: NodeId,
    },
    /// The previous anchor's reply: recent unacknowledged Internet
    /// packets for the vehicle.
    SalvageData {
        /// The vehicle these belong to.
        vehicle: NodeId,
        /// Packet payloads (ids are reassigned by the new anchor, which
        /// "treats these packets as if they arrived directly from the
        /// Internet").
        packets: Vec<Bytes>,
    },
}

impl BackplaneMsg {
    /// Approximate wire size for backplane-load accounting.
    pub fn wire_bytes(&self) -> u32 {
        match self {
            BackplaneMsg::RelayData(d) => 24 + d.app.len() as u32,
            BackplaneMsg::SalvageRequest { .. } => 16,
            BackplaneMsg::SalvageData { packets, .. } => {
                16 + packets.iter().map(|p| 8 + p.len() as u32).sum::<u32>()
            }
        }
    }
}

/// Instrumentation events, consumed by the runtime's statistics layer
/// (Tables 1 and 2 are built from these plus the runtime's own reception
/// logs).
#[derive(Clone, Debug)]
pub enum StatEvent {
    /// An auxiliary finished deciding about an overheard packet.
    RelayDecision {
        /// The packet.
        id: PacketId,
        /// Traffic direction.
        dir: Direction,
        /// Computed relay probability.
        prob: f64,
        /// The coin came up relay.
        relayed: bool,
    },
    /// An auxiliary's buffered packet was suppressed by an overheard ACK.
    RelaySuppressed {
        /// The packet.
        id: PacketId,
    },
    /// The source dropped a packet after exhausting retransmissions.
    SourceDrop {
        /// The packet.
        id: PacketId,
        /// How many transmissions it got.
        transmissions: u32,
    },
    /// The vehicle switched anchors.
    AnchorSwitch {
        /// Old anchor.
        from: Option<NodeId>,
        /// New anchor.
        to: Option<NodeId>,
    },
    /// A salvage transfer completed at the new anchor.
    Salvaged {
        /// Number of packets recovered.
        count: usize,
    },
}

/// Externally visible effects of feeding the endpoint an event.
#[derive(Clone, Debug)]
pub enum Action {
    /// Application-level delivery at this node: downstream data at the
    /// vehicle, upstream data at the anchor (to be forwarded to the
    /// Internet).
    Deliver {
        /// The packet.
        id: PacketId,
        /// Payload.
        app: Bytes,
        /// Which direction it traveled.
        dir: Direction,
    },
    /// Send a message on the wired backplane.
    Backplane {
        /// Destination BS.
        to: NodeId,
        /// The message.
        msg: BackplaneMsg,
    },
    /// Instrumentation.
    Stat(StatEvent),
}

/// A packet awaiting acknowledgment at its source. It has a frame in
/// `tx_queue` exactly while `deadline` is `None`: queued for its first
/// transmission or for a retransmission.
struct Pending {
    app: Bytes,
    dst_vehicle: Option<NodeId>, // downstream: the vehicle it is for
    tx_count: u32,
    last_tx: Option<SimTime>,
    deadline: Option<SimTime>,
}

/// An overheard, not-yet-acked packet buffered at an auxiliary.
struct Contender {
    frame: DataFrame,
    vehicle: NodeId,
    dir: Direction,
    heard_at: SimTime,
}

/// A downstream packet recently accepted from the Internet (salvage
/// buffer, §4.5).
struct InternetPacket {
    id: PacketId,
    vehicle: NodeId,
    app: Bytes,
    arrived: SimTime,
    acked: bool,
}

/// What the endpoint knows about one vehicle it serves (BS side).
struct VehicleView {
    info: VehicleInfo,
    heard_at: SimTime,
}

/// Outgoing wireless frames queued at the interface.
enum OutFrame {
    Ack(AckFrame),
    Data { seq: u64 },
    Relay(DataFrame),
}

/// The ViFi protocol endpoint.
pub struct Endpoint {
    me: NodeId,
    role: Role,
    cfg: VifiConfig,
    rng: Rng,
    view: ProbView,
    /// `bs_mask[id.index()]`: whether node `id` is a basestation (static
    /// deployment knowledge, the equivalent of recognizing infrastructure
    /// BSSIDs). Ids past the end are not.
    bs_mask: Vec<bool>,

    // ---- flow-source state (vehicle: upstream; anchor: downstream) ----
    next_seq: u64,
    /// Every change goes through `send_app`, `prepare_data`, `on_wakeup`
    /// or `remove_pending`, which keep the two indexes below in step.
    pending: FxHashMap<u64, Pending>,
    /// Pending packets never transmitted (`tx_count == 0`): the waiting
    /// frames that `max_data_queue` bounds.
    untransmitted: usize,
    /// `(deadline, seq)` of every pending packet with an armed
    /// retransmission deadline, earliest first.
    deadlines: BTreeSet<(SimTime, u64)>,
    retx: RetxTimer,

    // ---- flow-destination state ----
    rx_bitmaps: FxHashMap<NodeId, RxBitmap>,
    delivered: FxHashMap<NodeId, BTreeSet<u64>>,
    acked_once: FxHashMap<NodeId, BTreeSet<u64>>,

    // ---- vehicle state ----
    anchor: Option<NodeId>,
    prev_anchor: Option<NodeId>,
    anchor_epoch: u64,
    /// Unresponsive-BS blacklist (inert unless `cfg.blacklist.enabled`).
    blacklist: Blacklist,

    // ---- BS state ----
    vehicles: FxHashMap<NodeId, VehicleView>,
    contenders: Vec<Contender>,
    /// This BS's own downstream sends, ascending by `seq`.
    internet_buf: VecDeque<InternetPacket>,
    /// (vehicle, epoch) pairs already salvaged.
    salvaged_epochs: FxHashMap<NodeId, u64>,
    relay_phase: SimDuration,

    /// Reusable relay-math buffer pool: one set of allocations per
    /// concurrently prepared flow (usually one) for the lifetime of the
    /// endpoint, instead of three `Vec`s per relay decision.
    relay_scratch: Vec<RelayInputs>,

    // ---- interface ----
    tx_queue: VecDeque<OutFrame>,

    // ---- public counters (cheap, always on) ----
    /// Data frames this endpoint originated (incl. retransmissions).
    pub data_tx: u64,
    /// Relays performed (wireless or backplane).
    pub relays_tx: u64,
    /// ACK frames sent.
    pub acks_tx: u64,
    /// Distinct packets delivered to the application layer here.
    pub delivered_count: u64,
    /// Packets salvaged *from* this node (as old anchor).
    pub salvage_served: u64,
}

impl Endpoint {
    /// Create an endpoint. `bs_ids` lists the basestations of the
    /// deployment (used to tell BS beacons from vehicle beacons).
    pub fn new(me: NodeId, role: Role, cfg: VifiConfig, bs_ids: Vec<NodeId>, rng: Rng) -> Self {
        cfg.validate();
        let mut rng = rng;
        let relay_phase =
            SimDuration::from_micros(rng.below(cfg.relay_check_period.as_micros().max(1)));
        let view = ProbView::new(
            me,
            cfg.estimate_window,
            cfg.beacons_per_window(),
            cfg.alpha,
            cfg.neighbor_timeout,
        );
        let retx = RetxTimer::from_config(&cfg);
        let blacklist = Blacklist::new(cfg.blacklist);
        let mut bs_mask = vec![false; bs_ids.iter().map(|b| b.index() + 1).max().unwrap_or(0)];
        for b in bs_ids {
            bs_mask[b.index()] = true;
        }
        Endpoint {
            me,
            role,
            cfg,
            rng,
            view,
            bs_mask,
            next_seq: 0,
            pending: FxHashMap::default(),
            untransmitted: 0,
            deadlines: BTreeSet::new(),
            retx,
            rx_bitmaps: FxHashMap::default(),
            delivered: FxHashMap::default(),
            acked_once: FxHashMap::default(),
            anchor: None,
            prev_anchor: None,
            anchor_epoch: 0,
            blacklist,
            vehicles: FxHashMap::default(),
            contenders: Vec::new(),
            internet_buf: VecDeque::new(),
            salvaged_epochs: FxHashMap::default(),
            relay_phase,
            relay_scratch: Vec::new(),
            tx_queue: VecDeque::new(),
            data_tx: 0,
            relays_tx: 0,
            acks_tx: 0,
            delivered_count: 0,
            salvage_served: 0,
        }
    }

    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// Role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The vehicle's current anchor (vehicle role only).
    pub fn anchor(&self) -> Option<NodeId> {
        self.anchor
    }

    /// Number of packets awaiting acknowledgment at this source.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Number of buffered relay candidates (BS role).
    pub fn contender_count(&self) -> usize {
        self.contenders.len()
    }

    /// Anchors evicted by the unresponsiveness blacklist (0 unless
    /// `cfg.blacklist.enabled`).
    pub fn blacklist_evictions(&self) -> u64 {
        self.blacklist.evictions
    }

    fn is_bs(&self, n: NodeId) -> bool {
        self.bs_mask.get(n.index()).copied().unwrap_or(false)
    }

    // ------------------------------------------------------------------
    // Application input
    // ------------------------------------------------------------------

    /// Accept an application payload for transmission. On a vehicle this
    /// is an upstream packet toward the anchor; on a BS it is a downstream
    /// packet from the Internet toward `dst_vehicle` (required for BSes).
    pub fn send_app(&mut self, app: Bytes, dst_vehicle: Option<NodeId>, now: SimTime) -> PacketId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = PacketId {
            origin: self.me,
            seq,
        };
        if self.role == Role::Bs {
            let vehicle = dst_vehicle.expect("BS downstream send needs a vehicle");
            if self.cfg.salvaging {
                self.internet_buf.push_back(InternetPacket {
                    id,
                    vehicle,
                    app: app.clone(),
                    arrived: now,
                    acked: false,
                });
                // Bound the buffer: drop entries far past the salvage window.
                let horizon = self.cfg.salvage_threshold * 4;
                while let Some(front) = self.internet_buf.front() {
                    if now.saturating_since(front.arrived) > horizon {
                        self.internet_buf.pop_front();
                    } else {
                        break;
                    }
                }
            }
        }
        self.pending.insert(
            seq,
            Pending {
                app,
                dst_vehicle,
                tx_count: 0,
                last_tx: None,
                deadline: None,
            },
        );
        self.untransmitted += 1;
        self.tx_queue.push_back(OutFrame::Data { seq });
        self.enforce_queue_bound();
        id
    }

    /// Bounded driver queue: when more than `max_data_queue` *untransmitted*
    /// data packets are waiting, the oldest waiting one is dropped. Frames
    /// already transmitted (awaiting ACK) are unaffected.
    fn enforce_queue_bound(&mut self) {
        if self.untransmitted <= self.cfg.max_data_queue {
            return;
        }
        // Drop the oldest never-transmitted data frame.
        let pending = &self.pending;
        let pos = self.tx_queue.iter().position(|f| {
            matches!(f, OutFrame::Data { seq } if pending.get(seq).is_some_and(|p| p.tx_count == 0))
        });
        if let Some(OutFrame::Data { seq }) = pos.and_then(|pos| self.tx_queue.remove(pos)) {
            self.remove_pending(seq);
        }
    }

    /// Forget pending packet `seq`, keeping the untransmitted count and
    /// the deadline set in step. Every removal from `pending` goes
    /// through here: ACK, bitmap ACK, salvage hand-over, queue-bound drop
    /// and retry-limit drop.
    fn remove_pending(&mut self, seq: u64) {
        let Some(p) = self.pending.remove(&seq) else {
            return;
        };
        if p.tx_count == 0 {
            self.untransmitted -= 1;
        }
        if let Some(deadline) = p.deadline {
            self.deadlines.remove(&(deadline, seq));
        }
    }

    // ------------------------------------------------------------------
    // Interface: pulling frames onto the air
    // ------------------------------------------------------------------

    /// True if a frame is ready for the interface.
    pub fn has_tx(&self) -> bool {
        !self.tx_queue.is_empty()
    }

    /// Pull the next frame for transmission, with its wire size. Returns
    /// `None` when the queue is empty or every queued data frame lacks a
    /// destination (vehicle with no anchor).
    pub fn pull_frame(&mut self, now: SimTime) -> Option<(VifiPayload, u32)> {
        if self.role == Role::Vehicle && self.anchor.is_none() {
            // No data frame can go out without an anchor; ACKs can. The
            // data frames keep their places in the queue.
            let pos = self
                .tx_queue
                .iter()
                .position(|f| !matches!(f, OutFrame::Data { .. }))?;
            let of = self.tx_queue.remove(pos)?;
            return self.emit(of, now);
        }
        while let Some(of) = self.tx_queue.pop_front() {
            if let Some(out) = self.emit(of, now) {
                return Some(out);
            }
        }
        None
    }

    /// Put one dequeued frame on the air. `None` for the frame of a
    /// packet acknowledged while it was queued: it is obsolete and goes.
    fn emit(&mut self, of: OutFrame, now: SimTime) -> Option<(VifiPayload, u32)> {
        match of {
            OutFrame::Ack(a) => {
                self.acks_tx += 1;
                Some((VifiPayload::Ack(a), self.cfg.ack_bytes))
            }
            OutFrame::Relay(d) => {
                self.relays_tx += 1;
                let bytes = self.cfg.data_header_bytes + d.app.len() as u32;
                Some((VifiPayload::Data(d), bytes))
            }
            OutFrame::Data { seq } => self.prepare_data(seq, now),
        }
    }

    fn prepare_data(&mut self, seq: u64, now: SimTime) -> Option<(VifiPayload, u32)> {
        let p = self.pending.get_mut(&seq)?;
        // Resolve the flow destination at transmission time (§4.3: the
        // anchor in force right now carries the connection).
        let flow_dst = match self.role {
            Role::Vehicle => self.anchor?,
            Role::Bs => p.dst_vehicle?,
        };
        if p.tx_count == 0 {
            self.untransmitted -= 1;
        }
        p.tx_count += 1;
        p.last_tx = Some(now);
        // Arm the retransmission deadline now that it is actually in the
        // air.
        let deadline = now + self.retx.timeout();
        debug_assert!(p.deadline.is_none(), "a queued packet has no deadline");
        p.deadline = Some(deadline);
        self.deadlines.insert((deadline, seq));
        self.data_tx += 1;
        let bitmap = self.rx_bitmaps.get(&flow_dst).and_then(|b| b.wire());
        let app = p.app.clone();
        let frame = DataFrame {
            id: PacketId {
                origin: self.me,
                seq,
            },
            flow_src: self.me,
            flow_dst,
            relayed_by: None,
            app,
            bitmap,
        };
        let bytes = self.cfg.data_header_bytes + frame.app.len() as u32;
        Some((VifiPayload::Data(frame), bytes))
    }

    // ------------------------------------------------------------------
    // Beaconing
    // ------------------------------------------------------------------

    /// Produce this node's beacon (the runtime calls this on the beacon
    /// schedule). Vehicles refresh their anchor decision here — anchor
    /// changes propagate "at the beaconing frequency" (§4.3).
    ///
    /// The live neighbours are read once and serve anchor selection, the
    /// aux set and the payload: estimates are idempotent at a fixed `now`,
    /// and `expire` drops exactly the neighbours the live list skips.
    pub fn make_beacon(&mut self, now: SimTime) -> (VifiPayload, u32, Vec<Action>) {
        let neighbors = self.view.live_neighbors(now);
        let mut actions = Vec::new();
        let vehicle_info = if self.role == Role::Vehicle {
            actions.extend(self.refresh_anchor(&neighbors, now));
            Some(VehicleInfo {
                anchor: self.anchor,
                prev_anchor: self.prev_anchor,
                epoch: self.anchor_epoch,
                aux: self.aux_set(&neighbors),
            })
        } else {
            None
        };
        self.view.expire(now);
        let payload = self.view.make_payload(neighbors, vehicle_info, now);
        let bytes = payload.wire_bytes(self.cfg.beacon_base_bytes);
        (VifiPayload::Beacon(payload), bytes, actions)
    }

    /// The current auxiliary set as the vehicle would announce it right
    /// now (instrumentation hook for the runtime's per-transmission logs).
    pub fn current_aux(&mut self, now: SimTime) -> Vec<NodeId> {
        let neighbors = self.view.live_neighbors(now);
        self.aux_set(&neighbors)
    }

    /// The auxiliary set among the live `neighbors`: every BS except the
    /// anchor (§4.3: "We currently pick all BSes that the vehicle hears as
    /// auxiliaries").
    fn aux_set(&self, neighbors: &[(NodeId, f64)]) -> Vec<NodeId> {
        neighbors
            .iter()
            .map(|&(id, _)| id)
            .filter(|&id| self.is_bs(id) && Some(id) != self.anchor)
            .collect()
    }

    /// Re-evaluate the anchor by BRR over beacon reception (§4.3: "Our
    /// implementation uses BRR"). With the blacklist enabled, a silent
    /// current anchor is first evicted (timeout + exponential backoff)
    /// and blacklisted candidates are skipped — unless *every* live BS is
    /// blacklisted, in which case the best of them is used anyway rather
    /// than going dark.
    fn refresh_anchor(&mut self, neighbors: &[(NodeId, f64)], now: SimTime) -> Vec<Action> {
        if let Some(cur) = self.anchor {
            self.blacklist.check_anchor(cur, now);
        }
        let mut best: Option<(NodeId, f64)> = None;
        let mut best_any: Option<(NodeId, f64)> = None;
        for &(id, p) in neighbors {
            if !self.is_bs(id) {
                continue;
            }
            if best_any.map(|(_, bp)| p > bp).unwrap_or(true) {
                best_any = Some((id, p));
            }
            if self.blacklist.is_blacklisted(id, now) {
                continue;
            }
            if best.map(|(_, bp)| p > bp).unwrap_or(true) {
                best = Some((id, p));
            }
        }
        let cur_blacklisted = self
            .anchor
            .map(|cur| self.blacklist.is_blacklisted(cur, now))
            .unwrap_or(false);
        let best = best.or(best_any);
        let new_anchor = match (best, self.anchor) {
            (None, _) => None,
            (Some((b, _)), None) => Some(b),
            (Some((b, bp)), Some(cur)) => {
                if b == cur {
                    Some(cur)
                } else if cur_blacklisted {
                    // The estimator still favours the silent anchor; the
                    // blacklist overrules it and fails over immediately.
                    Some(b)
                } else {
                    let cur_p = self.view.incoming_prob(cur, now);
                    if bp > cur_p {
                        Some(b)
                    } else {
                        Some(cur)
                    }
                }
            }
        };
        if new_anchor != self.anchor {
            let old = self.anchor;
            if old.is_some() {
                self.prev_anchor = old;
            }
            self.anchor = new_anchor;
            self.anchor_epoch += 1;
            vec![Action::Stat(StatEvent::AnchorSwitch {
                from: old,
                to: new_anchor,
            })]
        } else {
            Vec::new()
        }
    }

    // ------------------------------------------------------------------
    // Frame reception
    // ------------------------------------------------------------------

    /// Feed a received wireless frame.
    pub fn on_frame(&mut self, payload: &VifiPayload, now: SimTime) -> Vec<Action> {
        match payload {
            VifiPayload::Beacon(b) => self.on_beacon(b, now),
            VifiPayload::Data(d) => self.on_data(d, false, now),
            VifiPayload::Ack(a) => self.on_ack(a, now),
        }
    }

    fn on_beacon(&mut self, b: &BeaconPayload, now: SimTime) -> Vec<Action> {
        self.view.on_beacon(b, now);
        if self.is_bs(b.node) {
            self.blacklist.on_beacon(b.node, now);
        }
        let mut actions = Vec::new();
        if self.role == Role::Bs {
            if let Some(info) = &b.vehicle {
                let vehicle = b.node;
                self.vehicles.insert(
                    vehicle,
                    VehicleView {
                        info: info.clone(),
                        heard_at: now,
                    },
                );
                // Salvage trigger (§4.5): I just became this vehicle's
                // anchor and there is a previous anchor to pull from.
                if let Some(prev_anchor) = info.prev_anchor {
                    if self.cfg.salvaging
                        && info.anchor == Some(self.me)
                        && prev_anchor != self.me
                        && self.salvaged_epochs.get(&vehicle) != Some(&info.epoch)
                    {
                        self.salvaged_epochs.insert(vehicle, info.epoch);
                        actions.push(Action::Backplane {
                            to: prev_anchor,
                            msg: BackplaneMsg::SalvageRequest {
                                new_anchor: self.me,
                                vehicle,
                            },
                        });
                    }
                }
            }
        }
        actions
    }

    fn on_data(&mut self, d: &DataFrame, via_backplane: bool, now: SimTime) -> Vec<Action> {
        let mut actions = Vec::new();
        if d.flow_dst == self.me {
            // I am the destination.
            actions.extend(self.accept_data(d, now));
        } else if !via_backplane
            && self.role == Role::Bs
            && self.cfg.diversity
            && d.relayed_by.is_none()
        {
            // Overheard a source transmission addressed elsewhere: am I an
            // auxiliary for this flow?
            let vehicle = if self.is_bs(d.flow_src) {
                d.flow_dst
            } else {
                d.flow_src
            };
            let is_aux = self
                .vehicles
                .get(&vehicle)
                .map(|v| {
                    now.saturating_since(v.heard_at) <= self.cfg.neighbor_timeout
                        && v.info.aux.contains(&self.me)
                })
                .unwrap_or(false);
            if is_aux && !self.already_buffered(d.id) {
                let dir = if self.is_bs(d.flow_src) {
                    Direction::Downstream
                } else {
                    Direction::Upstream
                };
                self.contenders.push(Contender {
                    frame: d.clone(),
                    vehicle,
                    dir,
                    heard_at: now,
                });
            }
        }
        // Piggybacked reverse-stream feedback applies regardless of who
        // the frame was for, but only the flow destination's copy is
        // meaningful for us: the bitmap describes packets *we* sent to the
        // frame's sender.
        if d.flow_dst == self.me {
            actions.extend(self.apply_bitmap(d.bitmap, now));
        }
        actions
    }

    fn already_buffered(&self, id: PacketId) -> bool {
        self.contenders.iter().any(|c| c.frame.id == id)
    }

    /// Destination-side processing: dedup, deliver, acknowledge.
    fn accept_data(&mut self, d: &DataFrame, _now: SimTime) -> Vec<Action> {
        let mut actions = Vec::new();
        let origin = d.id.origin;
        // Track for the reverse-direction piggyback bitmap.
        self.rx_bitmaps.entry(origin).or_default().record(d.id.seq);
        let fresh = {
            let set = self.delivered.entry(origin).or_default();
            let fresh = set.insert(d.id.seq);
            // Prune: keep a bounded window of remembered seqs.
            while set.len() > 4096 {
                let min = *set.iter().next().unwrap();
                set.remove(&min);
            }
            fresh
        };
        if fresh {
            self.delivered_count += 1;
            let dir = if self.role == Role::Vehicle {
                Direction::Downstream
            } else {
                Direction::Upstream
            };
            actions.push(Action::Deliver {
                id: d.id,
                app: d.app.clone(),
                dir,
            });
        }
        // ACK policy (§4.3): always ACK direct receptions (the source may
        // have missed the previous ACK); ACK relayed copies only if we
        // have not ACKed this id before.
        let acked_before = self
            .acked_once
            .get(&origin)
            .map(|s| s.contains(&d.id.seq))
            .unwrap_or(false);
        let should_ack = d.relayed_by.is_none() || !acked_before;
        if should_ack {
            let set = self.acked_once.entry(origin).or_default();
            set.insert(d.id.seq);
            while set.len() > 4096 {
                let min = *set.iter().next().unwrap();
                set.remove(&min);
            }
            let bitmap = self.rx_bitmaps.get(&origin).and_then(|b| b.wire());
            // ACKs jump the queue: suppression and retransmission timing
            // both depend on them being prompt.
            self.tx_queue.push_front(OutFrame::Ack(AckFrame {
                from: self.me,
                id: d.id,
                bitmap,
            }));
        }
        actions
    }

    fn on_ack(&mut self, a: &AckFrame, now: SimTime) -> Vec<Action> {
        let mut actions = Vec::new();
        if a.id.origin == self.me {
            // An ACK for a packet I originated.
            if let Some(p) = self.pending.get(&a.id.seq) {
                if let Some(last_tx) = p.last_tx {
                    self.retx.record(now.saturating_since(last_tx));
                }
                self.mark_acked(a.id.seq);
            }
        }
        // Auxiliary suppression (§4.3 step 3): an overheard ACK — whether
        // for the source transmission or some other relay — cancels our
        // buffered copy.
        let before = self.contenders.len();
        self.contenders.retain(|c| c.frame.id != a.id);
        if self.contenders.len() < before {
            actions.push(Action::Stat(StatEvent::RelaySuppressed { id: a.id }));
        }
        actions.extend(self.apply_bitmap(a.bitmap, now));
        actions
    }

    /// Treat every sequence named by a piggybacked bitmap as acknowledged
    /// (§4.8: saves retransmissions whose explicit ACKs were lost).
    fn apply_bitmap(&mut self, bitmap: WireBitmap, _now: SimTime) -> Vec<Action> {
        for seq in RxBitmap::acked_seqs(bitmap) {
            if self.pending.contains_key(&seq) {
                self.mark_acked(seq);
            }
        }
        Vec::new()
    }

    fn mark_acked(&mut self, seq: u64) {
        self.remove_pending(seq);
        // Mark the salvage buffer copy as acknowledged.
        if let Ok(i) = self
            .internet_buf
            .binary_search_by_key(&seq, |pkt| pkt.id.seq)
        {
            self.internet_buf[i].acked = true;
        }
    }

    // ------------------------------------------------------------------
    // Backplane reception
    // ------------------------------------------------------------------

    /// Feed a received backplane message.
    pub fn on_backplane(&mut self, from: NodeId, msg: &BackplaneMsg, now: SimTime) -> Vec<Action> {
        match msg {
            BackplaneMsg::RelayData(d) => self.on_data(d, true, now),
            BackplaneMsg::SalvageRequest {
                new_anchor,
                vehicle,
            } => {
                let mut packets = Vec::new();
                for i in 0..self.internet_buf.len() {
                    let pkt = &mut self.internet_buf[i];
                    if pkt.vehicle == *vehicle
                        && !pkt.acked
                        && now.saturating_since(pkt.arrived) <= self.cfg.salvage_threshold
                    {
                        packets.push(pkt.app.clone());
                        pkt.acked = true; // handed over; stop retransmitting
                        let seq = pkt.id.seq;
                        self.remove_pending(seq);
                        self.salvage_served += 1;
                    }
                }
                let _ = from;
                if packets.is_empty() {
                    Vec::new()
                } else {
                    vec![Action::Backplane {
                        to: *new_anchor,
                        msg: BackplaneMsg::SalvageData {
                            vehicle: *vehicle,
                            packets,
                        },
                    }]
                }
            }
            BackplaneMsg::SalvageData { vehicle, packets } => {
                let count = packets.len();
                for app in packets {
                    self.send_app(app.clone(), Some(*vehicle), now);
                }
                vec![Action::Stat(StatEvent::Salvaged { count })]
            }
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// The next instant this endpoint needs a wake-up, if any.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        let retx = self.deadlines.first().map(|&(deadline, _)| deadline);
        let relay = self.next_relay_check();
        match (retx, relay) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The next phase-aligned relay-check tick that can service the oldest
    /// contender (§4.4: periodic, asynchronous across BSes).
    fn next_relay_check(&self) -> Option<SimTime> {
        let oldest = self.contenders.iter().map(|c| c.heard_at).min()?;
        let earliest = oldest + self.cfg.ack_wait;
        let period = self.cfg.relay_check_period.as_micros();
        let phase = self.relay_phase.as_micros();
        let e = earliest.as_micros();
        // Smallest k·period + phase ≥ e.
        let k = e.saturating_sub(phase).div_ceil(period);
        Some(SimTime::from_micros(k * period + phase))
    }

    /// Handle a timer wake-up: fire due retransmissions and due relay
    /// decisions.
    pub fn on_wakeup(&mut self, now: SimTime) -> Vec<Action> {
        let mut actions = Vec::new();

        // Retransmissions, in `(deadline, seq)` order.
        while let Some(&(deadline, seq)) = self.deadlines.first() {
            if deadline > now {
                break;
            }
            self.deadlines.pop_first();
            let p = self
                .pending
                .get_mut(&seq)
                .expect("the deadline set holds only pending packets");
            p.deadline = None;
            if p.tx_count > self.cfg.max_retx {
                let transmissions = p.tx_count;
                self.remove_pending(seq);
                actions.push(Action::Stat(StatEvent::SourceDrop {
                    id: PacketId {
                        origin: self.me,
                        seq,
                    },
                    transmissions,
                }));
            } else {
                self.tx_queue.push_back(OutFrame::Data { seq });
            }
        }

        // Relay decisions for contenders past the ACK window.
        if let Some(check) = self.next_relay_check() {
            if check <= now {
                actions.extend(self.run_relay_checks(now));
            }
        }
        actions
    }

    /// Evaluate every contender whose ACK window has elapsed: compute the
    /// relay probability, flip the coin, relay or drop. Each packet is
    /// considered exactly once (§4.3).
    ///
    /// Packets of the same `(vehicle, source, destination)` flow share one
    /// probability context within a wake-up (the beacon view cannot change
    /// mid-call), so the Eq. 1 denominator is prepared once per flow
    /// ([`PreparedRelayOwned`]) and queried in O(1) per packet. With one
    /// vehicle that is one context per wake-up and the scratch buffers
    /// recycle allocation-free; a fleet of co-located vehicles fans out to
    /// one context per flow.
    fn run_relay_checks(&mut self, now: SimTime) -> Vec<Action> {
        let mut actions = Vec::new();
        let ack_wait = self.cfg.ack_wait;
        let due: Vec<usize> = self
            .contenders
            .iter()
            .enumerate()
            .filter(|(_, c)| now.saturating_since(c.heard_at) >= ack_wait)
            .map(|(i, _)| i)
            .collect();
        type FlowKey = (NodeId, NodeId, NodeId);
        let mut prepared: Vec<(FlowKey, PreparedRelayOwned, usize)> = Vec::new();
        // Remove back-to-front to keep indices valid.
        for &i in due.iter().rev() {
            let c = self.contenders.swap_remove(i);
            let (s, d) = (c.frame.flow_src, c.frame.flow_dst);
            let key: FlowKey = (c.vehicle, s, d);
            let pos = match prepared.iter().position(|(k, _, _)| *k == key) {
                Some(pos) => pos,
                None => {
                    let Some(vv) = self.vehicles.get(&c.vehicle) else {
                        continue;
                    };
                    let aux = vv.info.aux.clone();
                    let Some(me_idx) = aux.iter().position(|&a| a == self.me) else {
                        continue;
                    };
                    // Take a set of scratch buffers out of the pool so
                    // filling them can borrow `self` for the beacon-view
                    // lookups; they move into the prepared entry and every
                    // entry's buffers return to the pool at call end.
                    let mut scratch = self.relay_scratch.pop().unwrap_or_default();
                    self.fill_relay_inputs(&mut scratch, &aux, s, d, now);
                    prepared.push((
                        key,
                        PreparedRelayOwned::new(scratch, self.cfg.coordination),
                        me_idx,
                    ));
                    prepared.len() - 1
                }
            };
            let (_, flow, me_idx) = &prepared[pos];
            let prob = flow.probability(*me_idx);
            let relayed = self.rng.chance(prob);
            actions.push(Action::Stat(StatEvent::RelayDecision {
                id: c.frame.id,
                dir: c.dir,
                prob,
                relayed,
            }));
            if relayed {
                let mut frame = c.frame;
                frame.relayed_by = Some(self.me);
                match c.dir {
                    Direction::Upstream => {
                        // Over the backplane to the anchor.
                        self.relays_tx += 1;
                        actions.push(Action::Backplane {
                            to: d,
                            msg: BackplaneMsg::RelayData(frame),
                        });
                    }
                    Direction::Downstream => {
                        // Over the air to the vehicle.
                        self.tx_queue.push_back(OutFrame::Relay(frame));
                    }
                }
            }
        }
        // Recycle every flow's input buffers into the pool: steady state
        // is allocation-free even when a wake-up batch spans many flows.
        for (_, flow, _) in prepared {
            self.relay_scratch.push(flow.into_inputs());
        }
        actions
    }

    /// Assemble the Eq. 1–3 inputs from the beacon-learned view into the
    /// caller-provided buffers (no allocation in steady state). Unknown
    /// probabilities are 0 — a neighbor we have no estimate for cannot be
    /// counted on (and a zero own-exit keeps us from relaying blind).
    fn fill_relay_inputs(
        &mut self,
        inputs: &mut RelayInputs,
        aux: &[NodeId],
        s: NodeId,
        d: NodeId,
        now: SimTime,
    ) {
        inputs.clear();
        inputs.p_s_b.reserve(aux.len());
        inputs.p_d_b.reserve(aux.len());
        inputs.p_b_d.reserve(aux.len());
        for &b in aux {
            let p_s_b = self.link_prob_local(s, b, now);
            let p_d_b = self.link_prob_local(d, b, now);
            let p_b_d = self.link_prob_local(b, d, now);
            inputs.p_s_b.push(p_s_b);
            inputs.p_d_b.push(p_d_b);
            inputs.p_b_d.push(p_b_d);
        }
        inputs.p_s_d = self.link_prob_local(s, d, now);
    }

    /// p(a → b) as known here: own measurement when `b == me`, gossip
    /// otherwise.
    fn link_prob_local(&mut self, a: NodeId, b: NodeId, now: SimTime) -> f64 {
        if b == self.me {
            self.view.incoming_prob(a, now)
        } else {
            self.view.link_prob(a, b, now)
        }
    }
}

#[cfg(test)]
mod bookkeeping_props;

#[cfg(test)]
mod tests {
    use super::*;

    const VEH: NodeId = NodeId(0);
    const BS_A: NodeId = NodeId(1);
    const BS_B: NodeId = NodeId(2);

    fn bs_ids() -> Vec<NodeId> {
        vec![BS_A, BS_B]
    }

    fn vehicle(cfg: VifiConfig) -> Endpoint {
        Endpoint::new(VEH, Role::Vehicle, cfg, bs_ids(), Rng::new(1))
    }

    fn bs(id: NodeId, cfg: VifiConfig) -> Endpoint {
        Endpoint::new(id, Role::Bs, cfg, bs_ids(), Rng::new(id.0 as u64 + 10))
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Exchange beacons among endpoints for `secs` seconds at 10 Hz with
    /// perfect delivery, so probability views converge. Ordering within a
    /// tick: everyone builds a beacon, then everyone hears everyone.
    fn converge(nodes: &mut [&mut Endpoint], secs: u64) {
        for tick in 0..(secs * 10) {
            let now = SimTime::from_millis(tick * 100);
            let beacons: Vec<VifiPayload> =
                nodes.iter_mut().map(|n| n.make_beacon(now).0).collect();
            for (i, b) in beacons.iter().enumerate() {
                for (j, n) in nodes.iter_mut().enumerate() {
                    if i != j {
                        n.on_frame(b, now);
                    }
                }
            }
        }
    }

    #[test]
    fn vehicle_adopts_anchor_from_beacons() {
        let mut veh = vehicle(VifiConfig::default());
        let mut a = bs(BS_A, VifiConfig::default());
        converge(&mut [&mut veh, &mut a], 2);
        assert_eq!(veh.anchor(), Some(BS_A));
        let (payload, _, _) = veh.make_beacon(t(2100));
        match payload {
            VifiPayload::Beacon(b) => {
                let info = b.vehicle.expect("vehicle beacons carry info");
                assert_eq!(info.anchor, Some(BS_A));
                assert!(!info.aux.contains(&BS_A), "anchor is not an auxiliary");
            }
            _ => panic!("expected beacon"),
        }
    }

    #[test]
    fn no_anchor_means_data_waits() {
        let mut veh = vehicle(VifiConfig::default());
        for _ in 0..3 {
            veh.send_app(Bytes::from_static(b"d"), None, t(0));
        }
        // A downstream frame from BS_A queues an ACK ahead of the data.
        let down = DataFrame {
            id: PacketId {
                origin: BS_A,
                seq: 9,
            },
            flow_src: BS_A,
            flow_dst: VEH,
            relayed_by: None,
            app: Bytes::from_static(b"down"),
            bitmap: None,
        };
        veh.on_frame(&VifiPayload::Data(down), t(1));
        let (ack, _) = veh.pull_frame(t(2)).expect("ACKs need no anchor");
        assert!(matches!(ack, VifiPayload::Ack(a) if a.id.seq == 9));
        assert!(veh.pull_frame(t(3)).is_none(), "no anchor: data waits");
        assert!(veh.has_tx());
        assert_eq!(veh.pending_count(), 3, "packets still pending");
        // ACKed while queued: the frame is obsolete and skipped once an
        // anchor appears; the others leave in order.
        veh.on_frame(
            &VifiPayload::Ack(AckFrame {
                from: BS_A,
                id: PacketId {
                    origin: VEH,
                    seq: 1,
                },
                bitmap: None,
            }),
            t(4),
        );
        veh.anchor = Some(BS_A);
        let mut seqs = Vec::new();
        while let Some((VifiPayload::Data(d), _)) = veh.pull_frame(t(5)) {
            seqs.push(d.id.seq);
        }
        assert_eq!(seqs, vec![0, 2]);
        assert!(!veh.has_tx());
    }

    #[test]
    fn data_flows_to_anchor_and_gets_acked() {
        let mut veh = vehicle(VifiConfig::default());
        let mut a = bs(BS_A, VifiConfig::default());
        converge(&mut [&mut veh, &mut a], 2);
        let now = t(2100);
        let id = veh.send_app(Bytes::from_static(b"payload"), None, now);
        let (frame, bytes) = veh.pull_frame(now).expect("sendable");
        assert!(bytes > 7);
        let d = match &frame {
            VifiPayload::Data(d) => d.clone(),
            _ => panic!("expected data"),
        };
        assert_eq!(d.flow_dst, BS_A);
        assert_eq!(d.id, id);
        assert!(d.relayed_by.is_none());
        // Anchor receives: delivers upstream and queues an ACK.
        let actions = a.on_frame(&frame, now + SimDuration::from_millis(4));
        assert!(actions.iter().any(|ac| matches!(
            ac,
            Action::Deliver { id: did, dir: Direction::Upstream, .. } if *did == id
        )));
        let (ack, _) = a
            .pull_frame(now + SimDuration::from_millis(5))
            .expect("ack queued");
        assert!(matches!(&ack, VifiPayload::Ack(f) if f.id == id && f.from == BS_A));
        // Vehicle hears the ACK: pending cleared, no retransmission later.
        veh.on_frame(&ack, now + SimDuration::from_millis(8));
        assert_eq!(veh.pending_count(), 0);
        assert_eq!(veh.next_wakeup(), None);
    }

    #[test]
    fn duplicate_data_is_delivered_once_but_reacked() {
        let mut veh = vehicle(VifiConfig::default());
        let mut a = bs(BS_A, VifiConfig::default());
        converge(&mut [&mut veh, &mut a], 2);
        let now = t(2100);
        veh.send_app(Bytes::from_static(b"x"), None, now);
        let (frame, _) = veh.pull_frame(now).unwrap();
        let acts1 = a.on_frame(&frame, now);
        let acts2 = a.on_frame(&frame, now + SimDuration::from_millis(50));
        let delivers = |acts: &[Action]| {
            acts.iter()
                .filter(|ac| matches!(ac, Action::Deliver { .. }))
                .count()
        };
        assert_eq!(delivers(&acts1), 1);
        assert_eq!(delivers(&acts2), 0, "duplicate suppressed");
        // Both receptions produce an ACK (direct receptions always do).
        let mut acks = 0;
        while let Some((f, _)) = a.pull_frame(t(3000)) {
            if matches!(f, VifiPayload::Ack(_)) {
                acks += 1;
            }
        }
        assert_eq!(acks, 2);
    }

    #[test]
    fn unacked_packet_retransmits_then_drops() {
        let cfg = VifiConfig {
            max_retx: 2,
            ..VifiConfig::default()
        };
        let mut veh = vehicle(cfg);
        let mut a = bs(BS_A, VifiConfig::default());
        converge(&mut [&mut veh, &mut a], 2);
        let mut now = t(2100);
        veh.send_app(Bytes::from_static(b"y"), None, now);
        let mut transmissions = 0;
        let mut dropped = false;
        for _ in 0..200 {
            if veh.pull_frame(now).is_some() {
                transmissions += 1;
            }
            if let Some(w) = veh.next_wakeup() {
                now = w.max(now);
                let acts = veh.on_wakeup(now);
                if acts
                    .iter()
                    .any(|ac| matches!(ac, Action::Stat(StatEvent::SourceDrop { .. })))
                {
                    dropped = true;
                    break;
                }
            } else {
                break;
            }
        }
        assert_eq!(transmissions, 3, "original + 2 retransmissions");
        assert!(dropped, "gives up after max_retx");
        assert_eq!(veh.pending_count(), 0);
    }

    #[test]
    fn due_retransmissions_requeue_in_deadline_order() {
        // Six packets go out at staggered instants, so their deadlines run
        // out of seq order and two pairs tie; one wake-up finds all six
        // due. Sixteen endpoints built and driven alike must re-queue them
        // in one order: ascending by deadline, ties by seq.
        let sent_at_ms = [30u64, 10, 30, 0, 20, 10];
        let requeue_order = || {
            let mut veh = vehicle(VifiConfig::default());
            veh.anchor = Some(BS_A);
            let t0 = t(1000);
            for _ in &sent_at_ms {
                veh.send_app(Bytes::from_static(b"r"), None, t0);
            }
            for ms in sent_at_ms {
                veh.pull_frame(t0 + SimDuration::from_millis(ms))
                    .expect("anchored vehicle sends");
            }
            let wake = t0 + SimDuration::from_secs(30);
            assert!(veh.next_wakeup().is_some_and(|w| w <= wake));
            let acts = veh.on_wakeup(wake);
            assert!(acts.is_empty(), "nothing reached the retry limit");
            let mut seqs = Vec::new();
            while let Some((VifiPayload::Data(d), _)) = veh.pull_frame(wake) {
                seqs.push(d.id.seq);
            }
            seqs
        };
        for _ in 0..16 {
            assert_eq!(requeue_order(), vec![3, 1, 5, 4, 0, 2]);
        }
    }

    #[test]
    fn aux_buffers_overheard_packet_and_ack_suppresses() {
        let mut veh = vehicle(VifiConfig::default());
        let mut a = bs(BS_A, VifiConfig::default());
        let mut b = bs(BS_B, VifiConfig::default());
        converge(&mut [&mut veh, &mut a, &mut b], 2);
        let now = t(2100);
        veh.send_app(Bytes::from_static(b"z"), None, now);
        let (frame, _) = veh.pull_frame(now).unwrap();
        let d = match &frame {
            VifiPayload::Data(d) => d.clone(),
            _ => unreachable!(),
        };
        // B overhears a packet addressed to the anchor A: buffers it.
        b.on_frame(&frame, now);
        assert_eq!(b.contender_count(), 1);
        // B overhears A's ACK: contender dropped.
        let ack = VifiPayload::Ack(AckFrame {
            from: BS_A,
            id: d.id,
            bitmap: None,
        });
        let acts = b.on_frame(&ack, now + SimDuration::from_millis(2));
        assert_eq!(b.contender_count(), 0);
        assert!(acts
            .iter()
            .any(|ac| matches!(ac, Action::Stat(StatEvent::RelaySuppressed { .. }))));
    }

    #[test]
    fn aux_relays_upstream_over_backplane() {
        let mut veh = vehicle(VifiConfig::default());
        let mut a = bs(BS_A, VifiConfig::default());
        let mut b = bs(BS_B, VifiConfig::default());
        converge(&mut [&mut veh, &mut a, &mut b], 3);
        let now = t(3100);
        let id = veh.send_app(Bytes::from_static(b"up"), None, now);
        let (frame, _) = veh.pull_frame(now).unwrap();
        // Only the auxiliary hears it (anchor missed it).
        b.on_frame(&frame, now);
        assert_eq!(b.contender_count(), 1);
        // No ACK appears; B's relay timer fires.
        let wake = b.next_wakeup().expect("relay check scheduled");
        assert!(wake >= now + VifiConfig::default().ack_wait);
        let acts = b.on_wakeup(wake);
        let decided = acts.iter().any(|ac| {
            matches!(ac, Action::Stat(StatEvent::RelayDecision { id: did, prob, .. })
                if *did == id && *prob > 0.0)
        });
        assert!(
            decided,
            "relay decision with positive probability: {acts:?}"
        );
        // With one aux and converged (≈1.0) probabilities, the ViFi rule
        // gives r = min(p/(c·p), 1) = 1 for the lone contender.
        let relayed = acts.iter().find_map(|ac| match ac {
            Action::Backplane {
                to,
                msg: BackplaneMsg::RelayData(d),
            } => Some((*to, d.clone())),
            _ => None,
        });
        let (to, relayed) = relayed.expect("upstream relay goes over the backplane");
        assert_eq!(to, BS_A);
        assert_eq!(relayed.id, id);
        assert_eq!(relayed.relayed_by, Some(BS_B));
        // Anchor accepts the relayed copy and delivers + ACKs.
        let acts = a.on_backplane(BS_B, &BackplaneMsg::RelayData(relayed), wake);
        assert!(acts.iter().any(|ac| matches!(ac, Action::Deliver { .. })));
        let (f, _) = a.pull_frame(wake).expect("ack for relayed copy");
        assert!(matches!(f, VifiPayload::Ack(af) if af.id == id));
    }

    #[test]
    fn aux_relays_downstream_over_the_air() {
        let mut veh = vehicle(VifiConfig::default());
        let mut a = bs(BS_A, VifiConfig::default());
        let mut b = bs(BS_B, VifiConfig::default());
        converge(&mut [&mut veh, &mut a, &mut b], 3);
        let now = t(3100);
        // Internet hands A a downstream packet for the vehicle.
        let id = a.send_app(Bytes::from_static(b"down"), Some(VEH), now);
        let (frame, _) = a.pull_frame(now).unwrap();
        // The vehicle misses it; B overhears.
        b.on_frame(&frame, now);
        let wake = b.next_wakeup().unwrap();
        let _ = b.on_wakeup(wake);
        // The relay is queued for wireless transmission at B.
        let (f, _) = b.pull_frame(wake).expect("queued wireless relay");
        let d = match f {
            VifiPayload::Data(d) => d,
            other => panic!("expected relayed data, got {other:?}"),
        };
        assert_eq!(d.relayed_by, Some(BS_B));
        assert_eq!(d.flow_dst, VEH);
        // Vehicle receives the relayed copy: delivers and ACKs once.
        let acts = veh.on_frame(&VifiPayload::Data(d), wake + SimDuration::from_millis(5));
        assert!(acts.iter().any(
            |ac| matches!(ac, Action::Deliver { id: did, dir: Direction::Downstream, .. } if *did == id)
        ));
    }

    #[test]
    fn relayed_copies_are_never_rebuffered() {
        let mut veh = vehicle(VifiConfig::default());
        let mut a = bs(BS_A, VifiConfig::default());
        let mut b = bs(BS_B, VifiConfig::default());
        converge(&mut [&mut veh, &mut a, &mut b], 2);
        let now = t(2100);
        veh.send_app(Bytes::from_static(b"q"), None, now);
        let (frame, _) = veh.pull_frame(now).unwrap();
        let mut d = match frame {
            VifiPayload::Data(d) => d,
            _ => unreachable!(),
        };
        d.relayed_by = Some(BS_A);
        b.on_frame(&VifiPayload::Data(d), now);
        assert_eq!(b.contender_count(), 0, "relayed copies are final");
    }

    #[test]
    fn brr_baseline_never_buffers() {
        let mut veh = vehicle(VifiConfig::default());
        let mut a = bs(BS_A, VifiConfig::brr_baseline());
        let mut b = bs(BS_B, VifiConfig::brr_baseline());
        converge(&mut [&mut veh, &mut a, &mut b], 2);
        let now = t(2100);
        veh.send_app(Bytes::from_static(b"n"), None, now);
        let (frame, _) = veh.pull_frame(now).unwrap();
        b.on_frame(&frame, now);
        assert_eq!(b.contender_count(), 0, "diversity off");
        assert_eq!(b.next_wakeup(), None);
    }

    #[test]
    fn salvage_round_trip() {
        let cfg = VifiConfig::default();
        let mut veh = vehicle(cfg.clone());
        let mut a = bs(BS_A, cfg.clone());
        let mut b = bs(BS_B, cfg.clone());
        converge(&mut [&mut veh, &mut a, &mut b], 2);
        assert_eq!(veh.anchor(), Some(BS_A));
        let now = t(2050);
        // Internet delivers two packets to anchor A; neither is ACKed.
        a.send_app(Bytes::from_static(b"p1"), Some(VEH), now);
        a.send_app(Bytes::from_static(b"p2"), Some(VEH), now);
        // The vehicle switches anchors to B (A's beacons stop, B's go on).
        // B hears the vehicle's beacons throughout, so the salvage request
        // fires on the first beacon announcing anchor = B, prev = A.
        let mut tick = 2100;
        let mut req = None;
        while tick < 8000 {
            let nowt = t(tick);
            let (vb, _, _) = veh.make_beacon(nowt);
            let (bb, _, _) = b.make_beacon(nowt);
            veh.on_frame(&bb, nowt);
            let acts = b.on_frame(&vb, nowt);
            if req.is_none() {
                req = acts.iter().find_map(|ac| match ac {
                    Action::Backplane {
                        to,
                        msg: m @ BackplaneMsg::SalvageRequest { .. },
                    } => Some((*to, m.clone())),
                    _ => None,
                });
            }
            if req.is_some() {
                break;
            }
            tick += 100;
        }
        assert_eq!(veh.anchor(), Some(BS_B), "anchor must migrate");
        let req = req.expect("salvage request to previous anchor");
        assert_eq!(req.0, BS_A);
        let nowt = t(tick);
        // A answers with the stranded packets (if still within the 1 s
        // window — drive the switch fast enough by checking the window).
        let acts = a.on_backplane(BS_B, &req.1, nowt);
        // The anchor switch took seconds of beaconing, so the packets aged
        // out of the salvage window — that is also correct behaviour. To
        // test the positive path, refill the buffer and re-request.
        let _ = acts;
        a.send_app(Bytes::from_static(b"p3"), Some(VEH), nowt);
        let acts = a.on_backplane(BS_B, &req.1, nowt + SimDuration::from_millis(10));
        let data = acts
            .iter()
            .find_map(|ac| match ac {
                Action::Backplane {
                    to,
                    msg: m @ BackplaneMsg::SalvageData { .. },
                } => Some((*to, m.clone())),
                _ => None,
            })
            .expect("salvage data reply");
        assert_eq!(data.0, BS_B);
        // B ingests them as fresh downstream sends.
        let before = b.pending_count();
        let acts = b.on_backplane(BS_A, &data.1, nowt + SimDuration::from_millis(20));
        assert!(acts
            .iter()
            .any(|ac| matches!(ac, Action::Stat(StatEvent::Salvaged { count }) if *count >= 1)));
        assert!(b.pending_count() > before);
        assert!(a.salvage_served >= 1);
    }

    #[test]
    fn salvage_disabled_in_only_diversity_mode() {
        let cfg = VifiConfig::only_diversity();
        let mut a = bs(BS_A, cfg);
        a.send_app(Bytes::from_static(b"p"), Some(VEH), t(0));
        // With salvaging off nothing is buffered for handover.
        let acts = a.on_backplane(
            BS_B,
            &BackplaneMsg::SalvageRequest {
                new_anchor: BS_B,
                vehicle: VEH,
            },
            t(100),
        );
        assert!(acts.is_empty(), "no salvage data when disabled");
    }

    #[test]
    fn bitmap_piggyback_clears_pending_without_explicit_ack() {
        let mut veh = vehicle(VifiConfig::default());
        let mut a = bs(BS_A, VifiConfig::default());
        converge(&mut [&mut veh, &mut a], 2);
        let now = t(2100);
        // Vehicle sends a packet; the anchor receives it but its explicit
        // ACK is lost.
        veh.send_app(Bytes::from_static(b"m"), None, now);
        let (frame, _) = veh.pull_frame(now).unwrap();
        a.on_frame(&frame, now);
        while a.pull_frame(now).is_some() {} // ACK evaporates in the ether
        assert_eq!(veh.pending_count(), 1);
        // Later the anchor sends downstream data; its piggybacked bitmap
        // covers the vehicle's seq 0.
        a.send_app(
            Bytes::from_static(b"reply"),
            Some(VEH),
            now + SimDuration::from_millis(30),
        );
        let (down, _) = a.pull_frame(now + SimDuration::from_millis(30)).unwrap();
        match &down {
            VifiPayload::Data(d) => assert!(d.bitmap.is_some(), "bitmap rides on data"),
            _ => panic!(),
        }
        veh.on_frame(&down, now + SimDuration::from_millis(35));
        assert_eq!(veh.pending_count(), 0, "bitmap acked the stranded packet");
    }

    #[test]
    fn anchor_switch_emits_stat_and_bumps_epoch() {
        let mut veh = vehicle(VifiConfig::default());
        let mut a = bs(BS_A, VifiConfig::default());
        converge(&mut [&mut veh, &mut a], 2);
        assert_eq!(veh.anchor(), Some(BS_A));
        // A goes silent; B appears.
        let mut b = bs(BS_B, VifiConfig::default());
        let mut saw_switch = false;
        for tick in 21..80 {
            let nowt = t(tick * 100);
            let (bb, _, _) = b.make_beacon(nowt);
            veh.on_frame(&bb, nowt);
            let (_, _, acts) = veh.make_beacon(nowt);
            if acts.iter().any(|ac| {
                matches!(ac, Action::Stat(StatEvent::AnchorSwitch { to: Some(to), .. }) if *to == BS_B)
            }) {
                saw_switch = true;
                break;
            }
        }
        assert!(saw_switch);
        assert_eq!(veh.anchor(), Some(BS_B));
    }

    /// Drive a vehicle past an anchor death: converge with two BSes, kill
    /// the current anchor, keep the survivor beaconing, and report how
    /// many milliseconds of silence pass before the vehicle switches.
    fn failover_latency_ms(cfg: VifiConfig) -> Option<u64> {
        let mut veh = vehicle(cfg);
        let mut a = bs(BS_A, VifiConfig::default());
        let mut b = bs(BS_B, VifiConfig::default());
        converge(&mut [&mut veh, &mut a, &mut b], 3);
        let dead = veh.anchor().expect("converged to an anchor");
        let (mut survivor, survivor_id) = if dead == BS_A { (b, BS_B) } else { (a, BS_A) };
        let death_ms = 3000u64;
        for tick in 0..40 {
            let now = t(death_ms + tick * 100);
            let (bb, _, _) = survivor.make_beacon(now);
            veh.on_frame(&bb, now);
            let _ = veh.make_beacon(now);
            if veh.anchor() == Some(survivor_id) {
                return Some(tick * 100);
            }
        }
        None
    }

    #[test]
    fn blacklist_fails_over_within_the_timeout() {
        let cfg = VifiConfig::default().with_blacklist();
        let timeout_ms = cfg.blacklist.silence_timeout.as_micros() / 1000;
        let with_bl = failover_latency_ms(cfg).expect("blacklist must fail over");
        // Re-association happens within the blacklist timeout plus two
        // beacon periods of slack (the check runs on the beacon cadence).
        assert!(
            with_bl <= timeout_ms + 200,
            "failover took {with_bl} ms, timeout is {timeout_ms} ms"
        );
        // Non-vacuity: the plain estimator is strictly slower to abandon
        // the dead anchor (the lag the blacklist exists to fix).
        let without = failover_latency_ms(VifiConfig::default())
            .expect("estimator eventually fails over too");
        assert!(
            without > with_bl,
            "blacklist ({with_bl} ms) must beat the estimator ({without} ms)"
        );
    }

    #[test]
    fn blacklist_eviction_counter_tracks() {
        let cfg = VifiConfig::default().with_blacklist();
        let mut veh = vehicle(cfg);
        let mut a = bs(BS_A, VifiConfig::default());
        converge(&mut [&mut veh, &mut a], 2);
        assert_eq!(veh.blacklist_evictions(), 0);
        // A dies; silence accumulates past the timeout.
        for tick in 20..40 {
            let _ = veh.make_beacon(t(tick * 100));
        }
        assert!(veh.blacklist_evictions() >= 1);
    }

    #[test]
    fn counters_track_traffic() {
        let mut veh = vehicle(VifiConfig::default());
        let mut a = bs(BS_A, VifiConfig::default());
        converge(&mut [&mut veh, &mut a], 2);
        let now = t(2100);
        for i in 0..5 {
            veh.send_app(
                Bytes::from_static(b"c"),
                None,
                now + SimDuration::from_millis(i),
            );
        }
        let mut sent = 0;
        while let Some((f, _)) = veh.pull_frame(now + SimDuration::from_millis(10)) {
            a.on_frame(&f, now + SimDuration::from_millis(11));
            sent += 1;
        }
        assert_eq!(sent, 5);
        assert_eq!(veh.data_tx, 5);
        assert_eq!(a.delivered_count, 5);
    }
}
