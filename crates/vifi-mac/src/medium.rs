//! The shared broadcast medium, split into a pure per-node decision
//! kernel and a batching [`SharedMediumService`].
//!
//! ## Why two layers
//!
//! PR 4's vehicle-sharding dropped cross-vehicle contention because the
//! old `Medium` resolved every frame inline against one mutable global
//! state — impossible to share across shards without serializing them.
//! The medium is therefore split:
//!
//! * [`kernel`] — pure decision functions over immutable transmission
//!   windows: half-duplex veto, hidden-terminal collision veto,
//!   per-receiver reception sampling. Nothing here owns state; a shard
//!   can evaluate its own nodes' receptions with no lock.
//! * [`SharedMediumService`] — owns the *global* transmission state (the
//!   live window set, per-node backoff streams, the tx counter) and
//!   processes transmission requests in **time-windowed batches**: one
//!   canonically-sorted [`SharedMediumService::place`] per epoch instead
//!   of per-frame locking. Placement applies carrier sense, DIFS and
//!   slotted backoff against the full global window set, so contention
//!   between co-located vehicles (deferral, collisions, hidden terminals)
//!   is preserved no matter how many shards feed the service.
//!
//! ## One placement pass
//!
//! A barrier places its batch in three steps:
//!
//! 1. [`SharedMediumService::plan_probes`] lists every carrier-sense
//!    question placement can ask as a directed `(tx, rx)` pair: both
//!    directions between two senders, and each still-live window's
//!    source toward each sender — restricted to contact candidates.
//! 2. The caller answers each probe with [`AudibilityProbes::eval`], one
//!    pure `quality_hint` read at the barrier instant; a worker pool can
//!    answer disjoint ranges concurrently.
//! 3. [`SharedMediumService::place`] walks the batch in canonical
//!    `(t_req, src)` order and reads each verdict from the answers.
//!
//! Placement is therefore window arithmetic and needs no link model. It
//! is exact: every pair the carrier-sense scan can ask about is planned
//! unless it is not a contact candidate, and such a pair's quality is
//! `0.0`, which a non-negative `sense_threshold` (checked by
//! [`MacParams::validate`]) never counts as audible.
//!
//! ## Epoch-batched semantics
//!
//! A frame *requested* during epoch `k` (sender marks its interface busy
//! at request time) *airs* in epoch `k+1`: the barrier at the epoch edge
//! places the whole batch in `(request_time, sender)` order, floors every
//! start at the barrier instant, and packs senders that can hear each
//! other behind one another exactly like a busy DCF queue. Receptions of
//! a frame are resolved at the last barrier before its airtime ends, when
//! the global window set around it is complete — later barriers can only
//! place windows that start after it ended. Relative to the old
//! per-event model this adds a bounded access latency (at most one sync
//! quantum plus queueing, ~1 ms at the default quantum) and is the trade
//! that makes contention-preserving parallel runs possible at all; the
//! contention physics itself is unchanged.
//!
//! Carrier-sense approximation, inherited from the per-event model: a
//! sender defers past everything it can hear *at placement time* but does
//! not re-sense at the deferred instant, so a window placed later in the
//! same batch (a sender it cannot hear, or one that arrived later) may
//! overlap its deferred start. At the paper's offered loads the medium is
//! idle ≫ 95% of the time, so the gap almost never opens.

use vifi_phy::{ContactSecond, LinkModel, NodeId};
use vifi_sim::{Rng, SimTime};

use crate::frame::{Frame, MacParams};

/// Handle to a placed transmission.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TxHandle(u64);

impl TxHandle {
    /// The raw handle value. Handles are issued sequentially from the
    /// service's base (see
    /// [`SharedMediumService::with_handle_base`]), so the raw value
    /// identifies both the issuing service instance and the issue order
    /// — useful for cross-instance bookkeeping in hierarchical runs.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One receiver's successful reception of a frame.
#[derive(Clone, Debug)]
pub struct Reception {
    /// The receiving node.
    pub rx: NodeId,
    /// Reported RSSI, dBm.
    pub rssi_dbm: f64,
}

/// A transmission request: `frame.src` wants the frame on the air and
/// queued it at `t_req`. Requests are collected during an epoch and
/// placed in one sorted batch at the epoch edge.
#[derive(Clone, Debug)]
pub struct TxRequest<P> {
    /// The frame to transmit.
    pub frame: Frame<P>,
    /// When the sender queued it (its interface went busy here).
    pub t_req: SimTime,
}

/// Airtime window assigned to a request by [`SharedMediumService::place`].
#[derive(Clone, Copy, Debug)]
pub struct Placement {
    /// Handle of the placed transmission.
    pub handle: TxHandle,
    /// Airtime start (after carrier sense, DIFS and backoff).
    pub start: SimTime,
    /// Airtime end; receptions resolve and the interface frees here.
    pub end: SimTime,
}

/// A placed transmission whose airtime is about to end, packaged with an
/// immutable snapshot of every window overlapping it — self-contained
/// input for the pure reception kernel, so shards can resolve their own
/// receivers in parallel without touching the service.
#[derive(Clone, Debug)]
pub struct ResolvableTx<P> {
    /// Handle of the transmission.
    pub handle: TxHandle,
    /// The transmitted frame.
    pub frame: Frame<P>,
    /// Airtime window.
    pub start: SimTime,
    /// End of the airtime window (receptions sample here).
    pub end: SimTime,
    /// All foreign windows overlapping `[start, end)`: `(src, start, end)`.
    pub overlapping: Vec<(NodeId, SimTime, SimTime)>,
}

/// The pure per-node decision kernel: every reception verdict as a
/// function of immutable window snapshots. See the module docs for how
/// the service batches around these.
pub mod kernel {
    use super::*;

    /// Half-duplex veto: a node that was itself transmitting during the
    /// frame's window hears nothing.
    pub fn half_duplex_veto(overlapping: &[(NodeId, SimTime, SimTime)], rx: NodeId) -> bool {
        overlapping.iter().any(|&(n, _, _)| n == rx)
    }

    /// Hidden-terminal collision veto: an overlapping foreign transmission
    /// the receiver can sense destroys the frame.
    pub fn collision_veto(
        overlapping: &[(NodeId, SimTime, SimTime)],
        rx: NodeId,
        at: SimTime,
        link: &dyn LinkModel,
        sense_threshold: f64,
    ) -> bool {
        overlapping
            .iter()
            .any(|&(n, _, _)| link.quality_hint(n, rx, at) > sense_threshold)
    }

    /// Decide and sample one receiver's outcome for one transmission:
    /// candidate filter, half-duplex veto, collision veto, then one
    /// Bernoulli delivery trial (and an RSSI read on success) against the
    /// receiver link's own sampling stream. Pure per `(link state, rx)` —
    /// different receivers of the same frame may be sampled by different
    /// shards in any order with identical results.
    pub fn sample_reception<P>(
        link: &mut dyn LinkModel,
        tx: &ResolvableTx<P>,
        rx: NodeId,
        sense_threshold: f64,
    ) -> Option<Reception> {
        let src = tx.frame.src;
        if rx == src || link.quality_hint(src, rx, tx.end) <= 0.0 {
            return None;
        }
        if half_duplex_veto(&tx.overlapping, rx) {
            return None;
        }
        if collision_veto(&tx.overlapping, rx, tx.end, link, sense_threshold) {
            return None;
        }
        if link.sample_delivery(src, rx, tx.end) {
            let rssi_dbm = link.rssi_dbm(src, rx, tx.end).unwrap_or(
                // Delivered but no RSSI (trace mode edge): report a floor
                // value rather than dropping the reception.
                -95.0,
            );
            Some(Reception { rx, rssi_dbm })
        } else {
            None
        }
    }
}

struct Transmission<P> {
    handle: TxHandle,
    frame: Frame<P>,
    start: SimTime,
    end: SimTime,
    resolved: bool,
}

/// The carrier-sense questions one batch's placement can ask, planned by
/// [`SharedMediumService::plan_probes`]. Each probe is a directed
/// `(tx, rx)` pair answered by one pure `LinkModel::quality_hint`
/// evaluation at the barrier instant; probes are independent of each
/// other and of all simulation state, so a worker pool can evaluate
/// disjoint ranges concurrently (with any link-model instance built from
/// the run's configuration) and hand the answers to
/// [`SharedMediumService::place`].
pub struct AudibilityProbes {
    /// `(tx, rx)`: is `tx` audible to `rx` at the barrier instant?
    pairs: Vec<(NodeId, NodeId)>,
}

impl AudibilityProbes {
    /// Number of probes to evaluate.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no pair needs a probe (one sender and no live window in
    /// contact with it, or no two nodes in contact).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Evaluate probe `k`: is its transmitter audible to its receiver at
    /// `at` under `sense_threshold`? Pure; any instance of the run's link
    /// model gives the same answer.
    pub fn eval(&self, k: usize, at: SimTime, link: &dyn LinkModel, sense_threshold: f64) -> bool {
        let (tx, rx) = self.pairs[k];
        link.quality_hint(tx, rx, at) > sense_threshold
    }
}

/// The broadcast wireless medium: global transmission state plus the
/// epoch-batched placement/resolution machinery (see the module docs).
pub struct SharedMediumService<P> {
    params: MacParams,
    next_handle: u64,
    /// Placed transmissions that may still matter: unresolved, or
    /// overlapping a not-yet-resolved window. Pruned at every resolution
    /// drain.
    live: Vec<Transmission<P>>,
    /// Root of the per-node backoff streams.
    backoff_root: Rng,
    /// Per-node slotted-backoff streams, indexed by [`NodeId::index`] and
    /// forked lazily from the root by node id — a node's draws depend only
    /// on how many frames *it* sent, which is what makes placement
    /// independent of shard interleaving. A sender's stream is `None`
    /// before its first frame.
    backoff: Vec<Option<Rng>>,
    /// Count of frames put on the air (for efficiency accounting).
    pub tx_count: u64,
}

impl<P: Clone> SharedMediumService<P> {
    /// New service with the given MAC parameters; backoff streams fork
    /// from `rng`. Panics on invalid parameters (see
    /// [`MacParams::validate`]).
    pub fn new(params: MacParams, rng: &Rng) -> Self {
        params.validate();
        SharedMediumService {
            params,
            next_handle: 0,
            live: Vec::new(),
            backoff_root: rng.fork_named("mac-backoff"),
            backoff: Vec::new(),
            tx_count: 0,
        }
    }

    /// Start issuing handles at `base` instead of 0. Hierarchical runs
    /// give each cluster's medium instance a disjoint handle range (e.g.
    /// `cluster << 48`) so handles stay globally unique even when
    /// several instances feed one bookkeeping map. Placement itself is
    /// unaffected: only the opaque ids change.
    pub fn with_handle_base(mut self, base: u64) -> Self {
        self.next_handle = base;
        self
    }

    /// MAC parameters in use.
    pub fn params(&self) -> &MacParams {
        &self.params
    }

    /// One slotted-backoff draw from `node`'s stream, forked from the
    /// root on the node's first frame.
    fn backoff_draw(&mut self, node: NodeId) -> u64 {
        if self.backoff.len() <= node.index() {
            self.backoff.resize_with(node.index() + 1, || None);
        }
        let root = &self.backoff_root;
        self.backoff[node.index()]
            .get_or_insert_with(|| root.fork(node.label()))
            .below(self.params.cw_slots)
    }

    /// Plan the audibility probes one epoch's batch needs at barrier
    /// instant `at`: every carrier-sense question [`Self::place`] can ask.
    /// Between two senders either direction matters (one defers behind
    /// the other's new window); a still-live window matters only in the
    /// window→sender direction (live sources place nothing). Windows
    /// ending at or before `at` are already over and probe nothing. Every
    /// placement floors at `at`, so audibility evaluated at `at` is
    /// exactly the audibility placement sees.
    ///
    /// Only pairs that are candidates of each other in `contacts` (the
    /// link model's lists for `at`'s second) are planned. Any other
    /// pair's `quality_hint` is `0.0`, and with a non-negative
    /// `sense_threshold` (checked in [`Self::new`]) a skipped probe would
    /// have answered "not audible".
    pub fn plan_probes(
        &self,
        requests: &[TxRequest<P>],
        at: SimTime,
        contacts: &ContactSecond,
    ) -> AudibilityProbes {
        debug_assert_eq!(
            contacts.second(),
            at.second_bin(),
            "contacts of another second"
        );
        let mut senders: Vec<NodeId> = requests.iter().map(|r| r.frame.src).collect();
        senders.sort_unstable();
        senders.dedup();
        let mut lives: Vec<NodeId> = self
            .live
            .iter()
            .filter(|t| t.end > at)
            .map(|t| t.frame.src)
            .collect();
        lives.sort_unstable();
        lives.dedup();
        lives.retain(|l| senders.binary_search(l).is_err());
        let mut pairs = Vec::new();
        for (i, &a) in senders.iter().enumerate() {
            for &b in &senders[i + 1..] {
                if contacts.contains(a, b) {
                    pairs.push((a, b));
                    pairs.push((b, a));
                }
            }
        }
        for &l in &lives {
            for &s in &senders {
                if contacts.contains(l, s) {
                    pairs.push((l, s));
                }
            }
        }
        AudibilityProbes { pairs }
    }

    /// Place one epoch's transmission requests at barrier instant `at`,
    /// given `probes` from [`Self::plan_probes`] for the same batch and
    /// instant and `audible[k]`, the answer to probe `k`.
    ///
    /// `requests` must be sorted by `(t_req, src)` — the canonical arrival
    /// order; senders earlier in the batch win contention, and later ones
    /// that can hear them defer behind their windows. Every start is
    /// floored at `at` (a request never airs before the epoch edge) and
    /// gets DIFS plus a slotted backoff from the sender's own stream.
    pub fn place(
        &mut self,
        requests: Vec<TxRequest<P>>,
        at: SimTime,
        probes: &AudibilityProbes,
        audible: &[bool],
    ) -> Vec<Placement> {
        debug_assert!(
            requests
                .windows(2)
                .all(|w| (w[0].t_req, w[0].frame.src) <= (w[1].t_req, w[1].frame.src)),
            "requests must arrive in canonical (t_req, src) order"
        );
        assert_eq!(audible.len(), probes.len(), "one answer per probe");
        let mut heard: Vec<(NodeId, NodeId)> = probes
            .pairs
            .iter()
            .zip(audible)
            .filter_map(|(&pair, &yes)| yes.then_some(pair))
            .collect();
        heard.sort_unstable();
        let mut placements = Vec::with_capacity(requests.len());
        for req in requests {
            let src = req.frame.src;
            // Carrier sense: defer past every other window `src` hears,
            // this batch's earlier placements included. A window over by
            // `at` defers no one.
            let free = self
                .live
                .iter()
                .filter(|t| t.end > at && t.frame.src != src)
                .filter(|t| heard.binary_search(&(t.frame.src, src)).is_ok())
                .map(|t| t.end)
                .fold(at, SimTime::max);
            let start = free + self.params.difs + self.params.slot * self.backoff_draw(src);
            let end = start + self.params.airtime(req.frame.size_bytes);
            let handle = TxHandle(self.next_handle);
            self.next_handle += 1;
            self.tx_count += 1;
            self.live.push(Transmission {
                handle,
                frame: req.frame,
                start,
                end,
                resolved: false,
            });
            placements.push(Placement { handle, start, end });
        }
        placements
    }

    /// Drain every placed transmission whose airtime ends before
    /// `next_boundary`, packaged with its overlap snapshot for the
    /// reception kernel, in `(end, src)` order — the canonical resolution
    /// order. Call after [`Self::place`] at the same barrier: any window
    /// placed at a later barrier starts at or after `next_boundary`, so
    /// the returned snapshots are complete.
    pub fn drain_resolvable(&mut self, next_boundary: SimTime) -> Vec<ResolvableTx<P>> {
        let mut out = Vec::new();
        for i in 0..self.live.len() {
            if self.live[i].resolved || self.live[i].end >= next_boundary {
                continue;
            }
            self.live[i].resolved = true;
            let (start, end) = (self.live[i].start, self.live[i].end);
            let overlapping: Vec<(NodeId, SimTime, SimTime)> = self
                .live
                .iter()
                .filter(|t| t.handle != self.live[i].handle && t.start < end && t.end > start)
                .map(|t| (t.frame.src, t.start, t.end))
                .collect();
            out.push(ResolvableTx {
                handle: self.live[i].handle,
                frame: self.live[i].frame.clone(),
                start,
                end,
                overlapping,
            });
        }
        out.sort_by_key(|t| (t.end, t.frame.src.label()));
        // Prune: a resolved window is dead once no unresolved window can
        // still overlap it.
        let min_unresolved_start = self
            .live
            .iter()
            .filter(|t| !t.resolved)
            .map(|t| t.start)
            .min()
            .unwrap_or(SimTime::MAX);
        self.live
            .retain(|t| !t.resolved || t.end > min_unresolved_start);
        out
    }

    /// Number of transmissions currently tracked (unresolved or awaiting
    /// prune).
    pub fn live_count(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vifi_phy::link::{LossSeries, TraceLinkModel};
    use vifi_phy::NodeKind;
    use vifi_sim::SimDuration;

    /// A trace model where every registered pair delivers with probability 1
    /// — lets tests isolate MAC behaviour from channel randomness.
    fn perfect_link(n: u32, secs: usize) -> TraceLinkModel {
        let rng = Rng::new(1);
        let mut m = TraceLinkModel::new(&rng).with_ge_params(vifi_phy::gilbert::GeParams {
            fade_depth_db: 0.0,
            ..Default::default()
        });
        for i in 0..n {
            m.add_node(
                NodeId(i),
                if i == 0 {
                    NodeKind::Vehicle
                } else {
                    NodeKind::Basestation
                },
            );
        }
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    m.set_series(NodeId(a), NodeId(b), LossSeries::new(vec![1.0; secs]));
                }
            }
        }
        m
    }

    fn svc(params: MacParams) -> SharedMediumService<u32> {
        SharedMediumService::new(params, &Rng::new(7))
    }

    fn req(src: u32, bytes: u32, payload: u32, t: SimTime) -> TxRequest<u32> {
        TxRequest {
            frame: Frame::new(NodeId(src), bytes, payload),
            t_req: t,
        }
    }

    /// Place one batch at `at` the way a barrier does: plan the probes
    /// against the link's contact lists, answer them, place.
    fn place(
        med: &mut SharedMediumService<u32>,
        link: &dyn LinkModel,
        requests: Vec<TxRequest<u32>>,
        at: SimTime,
    ) -> Vec<Placement> {
        let sense = med.params().sense_threshold;
        let probes = med.plan_probes(&requests, at, &link.contacts(at.second_bin()));
        let audible: Vec<bool> = (0..probes.len())
            .map(|k| probes.eval(k, at, link, sense))
            .collect();
        med.place(requests, at, &probes, &audible)
    }

    /// Every receiver of `tx` the kernel lets hear it, in the model's
    /// node order.
    fn receptions(link: &mut TraceLinkModel, tx: &ResolvableTx<u32>, sense: f64) -> Vec<Reception> {
        let nodes: Vec<NodeId> = link.nodes().iter().map(|&(id, _)| id).collect();
        nodes
            .into_iter()
            .filter_map(|rx| kernel::sample_reception(link, tx, rx, sense))
            .collect()
    }

    /// Place one request at `at` and resolve it immediately (far-future
    /// drain boundary) — the single-frame convenience used by the simple
    /// tests.
    fn place_and_resolve(
        med: &mut SharedMediumService<u32>,
        link: &mut TraceLinkModel,
        r: TxRequest<u32>,
        at: SimTime,
    ) -> (Placement, Vec<Reception>) {
        let sense = med.params().sense_threshold;
        let p = place(med, link, vec![r], at)[0];
        let resolvable = med.drain_resolvable(SimTime::MAX);
        let tx = resolvable
            .into_iter()
            .find(|t| t.handle == p.handle)
            .expect("placed frame drains");
        let rx = receptions(link, &tx, sense);
        (p, rx)
    }

    #[test]
    fn handle_bases_namespace_instances_without_changing_placement() {
        // Two instances built from the same rng but different handle
        // bases place identical batches: same windows, disjoint ids.
        let link = perfect_link(4, 10);
        let reqs =
            |t: SimTime| -> Vec<TxRequest<u32>> { (0..3).map(|s| req(s, 500, s, t)).collect() };
        let mut plain = svc(MacParams::default());
        let mut based = svc(MacParams::default()).with_handle_base(7u64 << 48);
        let a = place(&mut plain, &link, reqs(SimTime::ZERO), SimTime::ZERO);
        let b = place(&mut based, &link, reqs(SimTime::ZERO), SimTime::ZERO);
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!((pa.start, pa.end), (pb.start, pb.end));
            assert_eq!(pb.handle.raw(), pa.handle.raw() + (7u64 << 48));
        }
    }

    #[test]
    #[should_panic(expected = "MacParams::sense_threshold")]
    fn negative_sense_threshold_is_rejected() {
        svc(MacParams {
            sense_threshold: -0.01,
            ..MacParams::default()
        });
    }

    #[test]
    #[should_panic(expected = "MacParams::sense_threshold")]
    fn nan_sense_threshold_is_rejected() {
        svc(MacParams {
            sense_threshold: f64::NAN,
            ..MacParams::default()
        });
    }

    #[test]
    fn lone_transmission_reaches_everyone() {
        let mut link = perfect_link(4, 10);
        let mut med = svc(MacParams::default());
        let (p, rx) = place_and_resolve(
            &mut med,
            &mut link,
            req(0, 500, 1, SimTime::ZERO),
            SimTime::ZERO,
        );
        assert!(p.start >= SimTime::ZERO + MacParams::default().difs);
        assert_eq!(p.end - p.start, MacParams::default().airtime(500));
        let mut ids: Vec<u32> = rx.iter().map(|r| r.rx.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(med.tx_count, 1);
    }

    #[test]
    fn carrier_sense_defers_second_sender() {
        let link = perfect_link(3, 10);
        let mut med = svc(MacParams::default());
        // Both requests land in the same batch; node 1 hears node 0
        // (perfect link), so its window must not overlap node 0's.
        let ps = place(
            &mut med,
            &link,
            vec![req(0, 500, 1, SimTime::ZERO), req(1, 500, 2, SimTime::ZERO)],
            SimTime::ZERO,
        );
        assert!(
            ps[1].start >= ps[0].end,
            "second tx {:?} must defer past first end {:?}",
            ps[1].start,
            ps[0].end
        );
    }

    #[test]
    fn hidden_terminal_collides_at_receiver() {
        // Topology: 0 and 2 cannot hear each other; both can reach 1.
        let rng = Rng::new(1);
        let mut link = TraceLinkModel::new(&rng).with_ge_params(vifi_phy::gilbert::GeParams {
            fade_depth_db: 0.0,
            ..Default::default()
        });
        for i in 0..3 {
            link.add_node(NodeId(i), NodeKind::Basestation);
        }
        link.set_symmetric(NodeId(0), NodeId(1), LossSeries::new(vec![1.0; 10]));
        link.set_symmetric(NodeId(1), NodeId(2), LossSeries::new(vec![1.0; 10]));
        // 0↔2: no series = deaf to each other → same-batch placement
        // cannot defer them apart and their windows overlap at node 1.
        let mut med = svc(MacParams {
            cw_slots: 1, // deterministic zero backoff → both start together
            ..MacParams::default()
        });
        let sense = med.params().sense_threshold;
        let ps = place(
            &mut med,
            &link,
            vec![req(0, 500, 1, SimTime::ZERO), req(2, 500, 2, SimTime::ZERO)],
            SimTime::ZERO,
        );
        assert!(
            ps[0].start < ps[1].end && ps[1].start < ps[0].end,
            "overlap"
        );
        let resolvable = med.drain_resolvable(SimTime::MAX);
        assert_eq!(resolvable.len(), 2);
        for tx in &resolvable {
            let rx = receptions(&mut link, tx, sense);
            assert!(
                rx.iter().all(|r| r.rx != NodeId(1)),
                "node 1 must lose frame from {:?} to the collision",
                tx.frame.src
            );
        }
    }

    #[test]
    fn half_duplex_receiver_misses_frame() {
        // Asymmetric audibility: only the 0→1 direction exists. Node 1
        // airs a long frame; node 0, deaf to it, airs a short overlapping
        // one. Node 1, being mid-transmission, must not receive it.
        let rng = Rng::new(1);
        let mut link = TraceLinkModel::new(&rng).with_ge_params(vifi_phy::gilbert::GeParams {
            fade_depth_db: 0.0,
            ..Default::default()
        });
        link.add_node(NodeId(0), NodeKind::Basestation);
        link.add_node(NodeId(1), NodeKind::Vehicle);
        link.set_series(NodeId(0), NodeId(1), LossSeries::new(vec![1.0; 10]));
        let mut med = svc(MacParams {
            cw_slots: 1, // deterministic zero backoff
            ..MacParams::default()
        });
        let sense = med.params().sense_threshold;
        // Node 1 queued first (earlier t_req) and is deaf to everyone, so
        // it airs its long frame from the epoch edge; node 0, deaf to node
        // 1 (no 1→0 series), is placed second and starts inside it.
        let ps = place(
            &mut med,
            &link,
            vec![
                req(1, 1400, 1, SimTime::ZERO),
                req(0, 100, 2, SimTime::from_micros(1)),
            ],
            SimTime::ZERO,
        );
        assert!(
            ps[1].start < ps[0].end && ps[1].end > ps[0].start,
            "windows must overlap for this test"
        );
        let resolvable = med.drain_resolvable(SimTime::MAX);
        let short = resolvable
            .iter()
            .find(|t| t.frame.src == NodeId(0))
            .unwrap();
        let rx = receptions(&mut link, short, sense);
        assert!(
            rx.iter().all(|r| r.rx != NodeId(1)),
            "node 1 was transmitting and must miss the frame"
        );
    }

    #[test]
    fn prune_keeps_memory_bounded() {
        let mut link = perfect_link(3, 2000);
        let mut med = svc(MacParams::default());
        let mut now = SimTime::ZERO;
        for i in 0..500 {
            let (p, _) = place_and_resolve(&mut med, &mut link, req(i % 3, 100, i, now), now);
            now = p.end + SimDuration::from_millis(10);
        }
        assert!(
            med.live_count() <= 2,
            "live list should stay tiny, got {}",
            med.live_count()
        );
        assert_eq!(med.tx_count, 500);
    }

    #[test]
    fn drain_is_exactly_once_and_windowed() {
        let link = perfect_link(2, 10);
        let mut med = svc(MacParams::default());
        let ps = place(
            &mut med,
            &link,
            vec![req(0, 100, 0, SimTime::ZERO)],
            SimTime::ZERO,
        );
        // A boundary before the frame's end drains nothing.
        assert!(med.drain_resolvable(ps[0].end).is_empty());
        // One past it drains the frame exactly once.
        let drained = med.drain_resolvable(ps[0].end + SimDuration::from_micros(1));
        assert_eq!(drained.len(), 1);
        assert!(
            med.drain_resolvable(SimTime::MAX).is_empty(),
            "second drain finds nothing"
        );
    }

    #[test]
    fn lossy_channel_delivers_proportionally() {
        let rng = Rng::new(1);
        let mut link = TraceLinkModel::new(&rng).with_ge_params(vifi_phy::gilbert::GeParams {
            fade_depth_db: 0.0,
            ..Default::default()
        });
        link.add_node(NodeId(0), NodeKind::Basestation);
        link.add_node(NodeId(1), NodeKind::Vehicle);
        link.set_series(NodeId(0), NodeId(1), LossSeries::new(vec![0.6; 4000]));
        let mut med = svc(MacParams::default());
        let mut now = SimTime::ZERO;
        let mut got = 0u32;
        let n = 20_000;
        for i in 0..n {
            let (p, rx) = place_and_resolve(&mut med, &mut link, req(0, 100, i, now), now);
            got += !rx.is_empty() as u32;
            now = p.end + SimDuration::from_micros(100);
        }
        let rate = got as f64 / n as f64;
        assert!((rate - 0.6).abs() < 0.02, "delivery rate {rate}");
    }

    #[test]
    fn placement_is_independent_of_foreign_traffic() {
        // Per-node backoff streams: node 0's windows must be identical
        // whether or not an inaudible node 1 also transmits — the
        // partition-invariance the coupled runtime is built on.
        let rng = Rng::new(1);
        let mut link = TraceLinkModel::new(&rng);
        link.add_node(NodeId(0), NodeKind::Basestation);
        link.add_node(NodeId(1), NodeKind::Basestation);
        // No series at all: mutually deaf.
        let run = |with_foreign: bool| {
            let mut med = svc(MacParams::default());
            let mut outs = Vec::new();
            let mut at = SimTime::ZERO;
            for i in 0..50 {
                let mut batch = vec![req(0, 200, i, at)];
                if with_foreign {
                    batch.push(req(1, 900, 1000 + i, at));
                }
                let ps = place(&mut med, &link, batch, at);
                outs.push((ps[0].start, ps[0].end));
                let _ = med.drain_resolvable(SimTime::MAX);
                // Advance by node 0's own window only — the comparison
                // must drive both runs through identical barrier instants.
                at = ps[0].end + SimDuration::from_millis(1);
            }
            outs
        };
        assert_eq!(run(false), run(true));
    }
}
