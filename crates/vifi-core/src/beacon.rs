//! Beacon-based dissemination of reception probabilities (§4.6).
//!
//! Every node estimates the delivery probability *toward itself* from each
//! neighbor by counting that neighbor's beacons: per-second reception
//! ratio, folded into an exponential average (α = 0.5). Beacons then
//! carry two vectors:
//!
//! * **incoming** — the sender's measured `p(Y → me)` for every neighbor Y
//!   heard recently;
//! * **outgoing** — the sender's learned `p(me → Z)`, which it picked up
//!   from Z's beacons (Z measured it as *its* incoming probability).
//!
//! One hop of gossip therefore suffices for an auxiliary to assemble the
//! full [`crate::prob::RelayContext`]: it hears the vehicle's and the
//! anchor's beacons directly, and those beacons carry the third-party
//! numbers it needs.
//!
//! Vehicle beacons additionally announce the current anchor, the previous
//! anchor (for salvaging) and the auxiliary set (§4.3).

use vifi_phy::NodeId;
use vifi_sim::{FxHashMap, SimDuration, SimTime};

/// Per-neighbor incoming-probability estimator: per-window beacon counts,
/// exponentially averaged.
#[derive(Clone, Debug)]
pub struct ProbEstimator {
    window: SimDuration,
    expected_per_window: u32,
    alpha: f64,
    /// Index of the window currently being filled.
    cur_window: u64,
    /// Beacons heard in the current window.
    cur_count: u32,
    /// The exponential average (None until the first window closes).
    avg: Option<f64>,
    /// Last time a beacon was heard (for neighbor expiry).
    last_heard: SimTime,
}

impl ProbEstimator {
    /// New estimator for one neighbor.
    pub fn new(window: SimDuration, expected_per_window: u32, alpha: f64, now: SimTime) -> Self {
        assert!(expected_per_window > 0);
        ProbEstimator {
            window,
            expected_per_window,
            alpha,
            cur_window: now.bin(window),
            cur_count: 0,
            avg: None,
            last_heard: now,
        }
    }

    /// Close any windows that have elapsed up to `now`, folding their
    /// ratios (including empty windows as 0) into the average.
    fn roll_to(&mut self, now: SimTime) {
        let w = now.bin(self.window);
        while self.cur_window < w {
            let ratio = self.cur_count as f64 / self.expected_per_window as f64;
            let ratio = ratio.min(1.0);
            self.avg = Some(match self.avg {
                None => ratio,
                Some(old) => self.alpha * ratio + (1.0 - self.alpha) * old,
            });
            self.cur_count = 0;
            self.cur_window += 1;
        }
    }

    /// Record one received beacon at `now`.
    pub fn on_beacon(&mut self, now: SimTime) {
        self.roll_to(now);
        self.cur_count += 1;
        self.last_heard = now;
    }

    /// Current probability estimate at `now` (rolls windows forward).
    /// Before the first window closes, falls back to the partial count.
    pub fn estimate(&mut self, now: SimTime) -> f64 {
        self.roll_to(now);
        match self.avg {
            Some(a) => a,
            None => (self.cur_count as f64 / self.expected_per_window as f64).min(1.0),
        }
    }

    /// When this neighbor was last heard.
    pub fn last_heard(&self) -> SimTime {
        self.last_heard
    }
}

/// The announcements a vehicle rides on its beacons (§4.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VehicleInfo {
    /// Current anchor, if any BS is in range.
    pub anchor: Option<NodeId>,
    /// The previous anchor, kept for salvaging.
    pub prev_anchor: Option<NodeId>,
    /// Monotone counter bumped at every anchor change, so a new anchor
    /// salvages exactly once per switch even though the announcement rides
    /// on every beacon.
    pub epoch: u64,
    /// Current auxiliary set.
    pub aux: Vec<NodeId>,
}

/// What rides on the air in a beacon frame.
#[derive(Clone, Debug, PartialEq)]
pub struct BeaconPayload {
    /// Beaconing node.
    pub node: NodeId,
    /// Measured incoming probabilities: `(Y, p(Y → node))`.
    pub incoming: Vec<(NodeId, f64)>,
    /// Learned outgoing probabilities: `(Z, p(node → Z))`.
    pub outgoing: Vec<(NodeId, f64)>,
    /// Present only on vehicle beacons.
    pub vehicle: Option<VehicleInfo>,
}

impl BeaconPayload {
    /// Wire size of this beacon: base + 5 bytes per probability entry
    /// (id + quantized probability) + the vehicle block.
    pub fn wire_bytes(&self, base: u32) -> u32 {
        let entries = (self.incoming.len() + self.outgoing.len()) as u32;
        let vehicle = self
            .vehicle
            .as_ref()
            .map(|v| 8 + 4 * v.aux.len() as u32)
            .unwrap_or(0);
        base + 5 * entries + vehicle
    }
}

/// A node's probabilistic view of the network: measured incoming
/// probabilities plus gossip-learned third-party link probabilities.
#[derive(Clone, Debug)]
pub struct ProbView {
    me: NodeId,
    window: SimDuration,
    expected_per_window: u32,
    alpha: f64,
    timeout: SimDuration,
    /// Measured: neighbor → estimator for p(neighbor → me).
    incoming: FxHashMap<NodeId, ProbEstimator>,
    /// Learned from gossip: (from, to) → (prob, heard_at), for links not
    /// from me.
    learned: FxHashMap<(NodeId, NodeId), (f64, SimTime)>,
    /// Learned from gossip: Z → (p(me → Z), heard_at), the entries my
    /// beacons echo as outgoing.
    outgoing: FxHashMap<NodeId, (f64, SimTime)>,
}

impl ProbView {
    /// New view, held by node `me`.
    pub fn new(
        me: NodeId,
        window: SimDuration,
        expected_per_window: u32,
        alpha: f64,
        timeout: SimDuration,
    ) -> Self {
        ProbView {
            me,
            window,
            expected_per_window,
            alpha,
            timeout,
            incoming: FxHashMap::default(),
            learned: FxHashMap::default(),
            outgoing: FxHashMap::default(),
        }
    }

    /// Ingest a beacon heard from `payload.node` at `now`.
    pub fn on_beacon(&mut self, payload: &BeaconPayload, now: SimTime) {
        let from = payload.node;
        let est = self.incoming.entry(from).or_insert_with(|| {
            ProbEstimator::new(self.window, self.expected_per_window, self.alpha, now)
        });
        est.on_beacon(now);
        // Gossip: the sender's measured incoming p(Y → sender) teaches us
        // the link Y → sender — including Y = me, which is how a node
        // learns its *own outgoing* probability (§4.6: "they embed the
        // packet reception probability from them to other nodes, which
        // they learn from the beacons of those other nodes"). The
        // sender's outgoing list teaches sender → Z, except Z = me:
        // p(sender → me) is our own measurement, never gossip.
        for &(y, p) in &payload.incoming {
            self.learn(y, from, p, now);
        }
        for &(z, p) in &payload.outgoing {
            if z != self.me {
                self.learn(from, z, p, now);
            }
        }
    }

    fn learn(&mut self, a: NodeId, b: NodeId, p: f64, now: SimTime) {
        if a == self.me {
            self.outgoing.insert(b, (p, now));
        } else {
            self.learned.insert((a, b), (p, now));
        }
    }

    /// p(from → me): own measurement, 0 if never/no-longer heard.
    pub fn incoming_prob(&mut self, from: NodeId, now: SimTime) -> f64 {
        match self.incoming.get_mut(&from) {
            Some(est) if now.saturating_since(est.last_heard()) <= self.timeout => {
                est.estimate(now)
            }
            _ => 0.0,
        }
    }

    /// p(a → b) as learned from gossip, 0 when unknown or stale. Links
    /// into me are measured, not gossiped: ask [`Self::incoming_prob`].
    pub fn link_prob(&self, a: NodeId, b: NodeId, now: SimTime) -> f64 {
        let entry = if a == self.me {
            self.outgoing.get(&b)
        } else {
            self.learned.get(&(a, b))
        };
        match entry {
            Some(&(p, at)) if now.saturating_since(at) <= self.timeout => p,
            _ => 0.0,
        }
    }

    /// Neighbors heard within the timeout, with their incoming estimates,
    /// ascending by id.
    pub fn live_neighbors(&mut self, now: SimTime) -> Vec<(NodeId, f64)> {
        let timeout = self.timeout;
        let mut out: Vec<(NodeId, f64)> = self
            .incoming
            .iter_mut()
            .filter(|(_, est)| now.saturating_since(est.last_heard()) <= timeout)
            .map(|(&id, est)| (id, est.estimate(now)))
            .collect();
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// Drop neighbors and gossip entries that have gone stale (bounds
    /// memory on long runs). The neighbors dropped are exactly those
    /// [`Self::live_neighbors`] skips.
    pub fn expire(&mut self, now: SimTime) {
        let timeout = self.timeout;
        let fresh = |at: SimTime| now.saturating_since(at) <= timeout;
        self.incoming.retain(|_, est| fresh(est.last_heard()));
        self.learned.retain(|_, &mut (_, at)| fresh(at));
        self.outgoing.retain(|_, &mut (_, at)| fresh(at));
    }

    /// Build this node's beacon payload: `incoming` is this node's
    /// [`Self::live_neighbors`] at `now`; the outgoing list is the learned
    /// entries about links *from me* (they came from my neighbors'
    /// beacons naming me).
    pub fn make_payload(
        &self,
        incoming: Vec<(NodeId, f64)>,
        vehicle: Option<VehicleInfo>,
        now: SimTime,
    ) -> BeaconPayload {
        let mut outgoing: Vec<(NodeId, f64)> = self
            .outgoing
            .iter()
            .filter(|(_, &(_, at))| now.saturating_since(at) <= self.timeout)
            .map(|(&z, &(p, _))| (z, p))
            .collect();
        outgoing.sort_unstable_by_key(|&(id, _)| id);
        BeaconPayload {
            node: self.me,
            incoming,
            outgoing,
            vehicle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    fn t(ms_: u64) -> SimTime {
        SimTime::from_millis(ms_)
    }

    #[test]
    fn estimator_measures_full_rate() {
        let mut e = ProbEstimator::new(ms(1000), 10, 0.5, t(0));
        // 10 beacons in second 0, read in second 1.
        for i in 0..10 {
            e.on_beacon(t(i * 100));
        }
        let p = e.estimate(t(1000));
        assert!((p - 1.0).abs() < 1e-12, "p = {p}");
    }

    #[test]
    fn estimator_measures_half_rate() {
        let mut e = ProbEstimator::new(ms(1000), 10, 0.5, t(0));
        for i in 0..5 {
            e.on_beacon(t(i * 200));
        }
        let p = e.estimate(t(1000));
        assert!((p - 0.5).abs() < 1e-12, "p = {p}");
    }

    #[test]
    fn exponential_averaging_over_windows() {
        let mut e = ProbEstimator::new(ms(1000), 10, 0.5, t(0));
        // Second 0: 10/10. Second 1: 0/10.
        for i in 0..10 {
            e.on_beacon(t(i * 100));
        }
        let p = e.estimate(t(2000));
        // avg after sec0 = 1.0; after empty sec1 = 0.5·0 + 0.5·1 = 0.5.
        assert!((p - 0.5).abs() < 1e-12, "p = {p}");
    }

    #[test]
    fn silent_windows_decay_estimate() {
        let mut e = ProbEstimator::new(ms(1000), 10, 0.5, t(0));
        for i in 0..10 {
            e.on_beacon(t(i * 100));
        }
        let p5 = e.estimate(t(5000)); // 4 empty windows
        assert!(p5 < 0.1, "p = {p5}");
    }

    #[test]
    fn partial_first_window_estimates_early() {
        let mut e = ProbEstimator::new(ms(1000), 10, 0.5, t(0));
        e.on_beacon(t(50));
        e.on_beacon(t(150));
        let p = e.estimate(t(300));
        assert!((p - 0.2).abs() < 1e-12, "partial estimate {p}");
    }

    const ME: NodeId = NodeId(0);

    fn view() -> ProbView {
        ProbView::new(ME, ms(1000), 10, 0.5, ms(2500))
    }

    #[test]
    fn view_measures_incoming() {
        let peer = NodeId(1);
        let mut v = view();
        for i in 0..10 {
            v.on_beacon(
                &BeaconPayload {
                    node: peer,
                    incoming: vec![],
                    outgoing: vec![],
                    vehicle: None,
                },
                t(i * 100),
            );
        }
        let p = v.incoming_prob(peer, t(1000));
        assert!((p - 1.0).abs() < 1e-12);
        assert_eq!(v.incoming_prob(NodeId(9), t(1000)), 0.0);
    }

    #[test]
    fn view_learns_gossip_both_ways() {
        let peer = NodeId(1);
        let third = NodeId(2);
        let mut v = view();
        v.on_beacon(
            &BeaconPayload {
                node: peer,
                incoming: vec![(third, 0.7)], // p(third → peer)
                outgoing: vec![(third, 0.4)], // p(peer → third)
                vehicle: None,
            },
            t(0),
        );
        assert_eq!(v.link_prob(third, peer, t(100)), 0.7);
        assert_eq!(v.link_prob(peer, third, t(100)), 0.4);
        assert_eq!(v.link_prob(third, NodeId(5), t(100)), 0.0);
    }

    #[test]
    fn gossip_expires() {
        let mut v = view();
        v.on_beacon(
            &BeaconPayload {
                node: NodeId(1),
                incoming: vec![(NodeId(2), 0.9)],
                outgoing: vec![],
                vehicle: None,
            },
            t(0),
        );
        assert_eq!(v.link_prob(NodeId(2), NodeId(1), t(2000)), 0.9);
        assert_eq!(v.link_prob(NodeId(2), NodeId(1), t(4000)), 0.0, "stale");
        assert_eq!(v.incoming_prob(NodeId(1), t(4000)), 0.0, "neighbor gone");
    }

    #[test]
    fn payload_echoes_links_about_me() {
        // Peer's beacon says p(me → peer) = 0.8 (its incoming list names
        // me): my own payload must then carry (peer, 0.8) as outgoing.
        let me = ME;
        let peer = NodeId(1);
        let mut v = view();
        v.on_beacon(
            &BeaconPayload {
                node: peer,
                incoming: vec![(me, 0.8)],
                outgoing: vec![],
                vehicle: None,
            },
            t(0),
        );
        let incoming = v.live_neighbors(t(500));
        let payload = v.make_payload(incoming, None, t(500));
        assert_eq!(payload.node, me);
        assert!(payload.outgoing.contains(&(peer, 0.8)));
        assert_eq!(payload.incoming.len(), 1, "peer is a live neighbor");
        // The relay math reads the same entry as p(me → peer).
        assert_eq!(v.link_prob(me, peer, t(500)), 0.8);
        v.expire(t(3000));
        let payload = v.make_payload(Vec::new(), None, t(3000));
        assert!(payload.outgoing.is_empty(), "echoed entries expire too");
    }

    #[test]
    fn gossip_does_not_override_own_measurement_channel() {
        // Entries about links *into me* are ignored (I measure those).
        let me = ME;
        let mut v = view();
        v.on_beacon(
            &BeaconPayload {
                node: NodeId(1),
                incoming: vec![],
                outgoing: vec![(me, 0.123)], // p(peer → me) — my own job
                vehicle: None,
            },
            t(0),
        );
        assert_eq!(v.link_prob(NodeId(1), me, t(100)), 0.0);
    }

    #[test]
    fn wire_bytes_grow_with_content() {
        let small = BeaconPayload {
            node: NodeId(0),
            incoming: vec![],
            outgoing: vec![],
            vehicle: None,
        };
        let big = BeaconPayload {
            node: NodeId(0),
            incoming: vec![(NodeId(1), 0.5); 4],
            outgoing: vec![(NodeId(2), 0.5); 4],
            vehicle: Some(VehicleInfo {
                anchor: Some(NodeId(1)),
                prev_anchor: None,
                epoch: 0,
                aux: vec![NodeId(2), NodeId(3)],
            }),
        };
        assert!(big.wire_bytes(60) > small.wire_bytes(60));
        assert_eq!(small.wire_bytes(60), 60);
        assert_eq!(big.wire_bytes(60), 60 + 5 * 8 + 8 + 8);
    }

    #[test]
    fn expire_bounds_memory() {
        let mut v = view();
        for i in 0..100u32 {
            v.on_beacon(
                &BeaconPayload {
                    node: NodeId(1 + i),
                    incoming: vec![(NodeId(200), 0.5)],
                    outgoing: vec![],
                    vehicle: None,
                },
                t(i as u64),
            );
        }
        v.expire(t(10_000));
        assert!(v.live_neighbors(t(10_000)).is_empty());
        assert_eq!(v.link_prob(NodeId(200), NodeId(5), t(10_000)), 0.0);
    }
}
