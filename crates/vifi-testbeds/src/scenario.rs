//! Scenario description: the nodes, their motion, and the radio
//! environment of one testbed.

use std::collections::BTreeMap;

use vifi_phy::link::MobilitySource;
use vifi_phy::{NodeId, NodeKind, PhysicalLinkModel, Point, RadioParams};
use vifi_sim::{Rng, SimDuration, SimTime};

/// One node in a scenario.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// Identifier, unique within the scenario; ids are dense from 0.
    pub id: NodeId,
    /// Vehicle, basestation, or wired host.
    pub kind: NodeKind,
    /// How it moves.
    pub mobility: MobilitySource,
    /// Human-readable name for logs and figures ("BS-3", "van-1").
    pub name: String,
}

/// A complete testbed description.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Testbed name ("VanLAN", "DieselNet-Ch1", …).
    pub name: String,
    /// All nodes. Ids must be dense `0..nodes.len()`.
    pub nodes: Vec<NodeSpec>,
    /// Radio-chain parameters.
    pub radio: RadioParams,
    /// Time one "visit cycle" takes (one shuttle lap for VanLAN, one bus
    /// loop for DieselNet) — experiments size their runs in laps so that
    /// per-day numbers can be extrapolated honestly (see DESIGN.md on time
    /// compression).
    pub lap: SimDuration,
    /// How many visit cycles the real testbed saw per day (VanLAN §2.1:
    /// "each vehicle visits the region of the BSes about ten times a day").
    pub visits_per_day: u32,
}

impl Scenario {
    /// Validate invariants (dense ids, at least one vehicle and one BS).
    pub fn validate(&self) {
        for (i, n) in self.nodes.iter().enumerate() {
            assert_eq!(n.id.index(), i, "node ids must be dense and ordered");
        }
        assert!(
            self.nodes.iter().any(|n| n.kind == NodeKind::Vehicle),
            "scenario needs a vehicle"
        );
        assert!(
            self.nodes.iter().any(|n| n.kind == NodeKind::Basestation),
            "scenario needs a basestation"
        );
    }

    /// Ids of all basestations, in id order.
    pub fn bs_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Basestation)
            .map(|n| n.id)
            .collect()
    }

    /// Ids of all vehicles, in id order.
    pub fn vehicle_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Vehicle)
            .map(|n| n.id)
            .collect()
    }

    /// The spec for a node id.
    pub fn node(&self, id: NodeId) -> &NodeSpec {
        &self.nodes[id.index()]
    }

    /// Construct the physical link model for this scenario.
    pub fn build_link_model(&self, rng: &Rng) -> PhysicalLinkModel {
        self.validate();
        let mut m = PhysicalLinkModel::new(self.radio.clone(), rng);
        for n in &self.nodes {
            m.add_node(n.id, n.kind, n.mobility.clone());
        }
        m
    }

    /// A copy of this scenario restricted to the given basestations (all
    /// vehicles and wired nodes kept). Node ids are re-densified; the
    /// mapping `old → new` is returned alongside. Used by the Fig. 2
    /// BS-density sweep.
    pub fn with_bs_subset(&self, keep: &[NodeId]) -> (Scenario, Vec<(NodeId, NodeId)>) {
        let mut nodes = Vec::new();
        let mut mapping = Vec::new();
        for n in &self.nodes {
            let kept = match n.kind {
                NodeKind::Basestation => keep.contains(&n.id),
                _ => true,
            };
            if kept {
                let new_id = NodeId(nodes.len() as u32);
                mapping.push((n.id, new_id));
                nodes.push(NodeSpec {
                    id: new_id,
                    kind: n.kind,
                    mobility: n.mobility.clone(),
                    name: n.name.clone(),
                });
            }
        }
        (
            Scenario {
                name: format!("{}[{} BSes]", self.name, keep.len()),
                nodes,
                radio: self.radio.clone(),
                lap: self.lap,
                visits_per_day: self.visits_per_day,
            },
            mapping,
        )
    }

    /// Partition this scenario's vehicles into `shards` disjoint groups,
    /// balanced by expected load: every vehicle appears in exactly one
    /// group (trailing groups may be empty when `shards` exceeds the fleet
    /// size), weighted by its covered seconds per lap (total
    /// [`Scenario::contact_windows`] length against `link` at `min_prob`,
    /// plus one so fully-out-of-range vehicles still count), and vehicles
    /// are placed heaviest-first onto the lightest shard (longest
    /// processing time). Useful when contact schedules are lopsided —
    /// e.g. DieselNet fleets where some buses barely touch the town core —
    /// so no worker ends up owning all the busy vehicles. Ties break by
    /// vehicle id, keeping the plan deterministic.
    pub fn shard_partition_by_contact(
        &self,
        shards: usize,
        link: &PhysicalLinkModel,
        min_prob: f64,
    ) -> Vec<Vec<NodeId>> {
        assert!(shards >= 1, "need at least one shard");
        let mut weighted: Vec<(u64, NodeId)> = self
            .vehicle_ids()
            .into_iter()
            .map(|v| {
                let covered: u64 = self
                    .contact_windows(v, link, min_prob)
                    .iter()
                    .map(|(a, b)| b - a)
                    .sum();
                (covered + 1, v)
            })
            .collect();
        // Heaviest first; ties by id so the plan is reproducible.
        weighted.sort_by_key(|&(w, v)| (std::cmp::Reverse(w), v));
        let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); shards];
        let mut loads = vec![0u64; shards];
        for (w, v) in weighted {
            let lightest = (0..shards)
                .min_by_key(|&s| (loads[s], s))
                .expect(">=1 shard");
            loads[lightest] += w;
            groups[lightest].push(v);
        }
        groups
    }

    /// Position of a node at a given time (convenience for map rendering).
    pub fn position(&self, id: NodeId, t: SimTime) -> Point {
        self.node(id).mobility.position_at(t)
    }

    /// The contact windows of one vehicle over a single lap: maximal
    /// `[start, end)` second intervals during which the vehicle can hear
    /// at least one basestation with slow-fading delivery probability
    /// above `min_prob`. Windows are returned sorted and disjoint —
    /// fleet schedulers and the fleet property tests lean on both
    /// invariants. Sampled at 1 Hz against `link` (build it with
    /// [`Scenario::build_link_model`]), the same granularity as the
    /// testbeds' GPS and beacon logs.
    pub fn contact_windows(
        &self,
        vehicle: NodeId,
        link: &PhysicalLinkModel,
        min_prob: f64,
    ) -> Vec<(u64, u64)> {
        assert_eq!(
            self.node(vehicle).kind,
            NodeKind::Vehicle,
            "contact windows are defined for vehicles"
        );
        let bs = self.bs_ids();
        let lap_s = self.lap.as_secs();
        let mut windows = Vec::new();
        let mut open: Option<u64> = None;
        for sec in 0..lap_s {
            let t = SimTime::from_secs(sec);
            let covered = bs.iter().any(|&b| link.slow_prob(b, vehicle, t) > min_prob);
            match (covered, open) {
                (true, None) => open = Some(sec),
                (false, Some(start)) => {
                    windows.push((start, sec));
                    open = None;
                }
                _ => {}
            }
        }
        if let Some(start) = open {
            windows.push((start, lap_s));
        }
        windows
    }

    /// Contact-overlap analysis for the coupled-run planner: per
    /// basestation, the total seconds over one lap during which *any*
    /// vehicle can hear it above `min_prob` (plus one, so never-visited
    /// BSes still carry weight). A BS's protocol work — receptions, relay
    /// decisions, acks — scales with how long vehicles sit in its cell,
    /// so these weights drive the load-balanced BS→shard assignment.
    /// Deterministic: a pure function of geometry. Returned in id order.
    pub fn bs_contact_seconds(
        &self,
        link: &PhysicalLinkModel,
        min_prob: f64,
    ) -> Vec<(NodeId, u64)> {
        let vehicles = self.vehicle_ids();
        let lap_s = self.lap.as_secs();
        self.bs_ids()
            .into_iter()
            .map(|bs| {
                let mut covered = 0u64;
                for sec in 0..lap_s {
                    let t = SimTime::from_secs(sec);
                    if vehicles
                        .iter()
                        .any(|&v| link.slow_prob(bs, v, t) > min_prob)
                    {
                        covered += 1;
                    }
                }
                (bs, covered + 1)
            })
            .collect()
    }

    /// The seconds of `[0, horizon_s)` during which cross-shard radio
    /// interaction is possible: some vehicle is within radio range of a
    /// basestation or of another vehicle. Each active second is dilated
    /// by ±`margin_s` (callers pass at least the beacon period plus one
    /// second, covering intra-second motion and beacon-staleness — the
    /// lookahead a conservative scheme needs), and the result is merged
    /// into sorted, disjoint `[start, end)` ranges. Outside these ranges
    /// the whole fleet is silent air: coupled runs stretch their epochs
    /// there and shards run free.
    pub fn active_seconds(
        &self,
        link: &PhysicalLinkModel,
        horizon_s: u64,
        margin_s: u64,
    ) -> Vec<(u64, u64)> {
        self.active_seconds_for(
            link,
            horizon_s,
            margin_s,
            &self.vehicle_ids(),
            &self.bs_ids(),
        )
    }

    /// [`Scenario::active_seconds`] restricted to one cluster: only
    /// contact among `members` (its vehicles against its basestations or
    /// each other) makes a second active. Because contact clusters are
    /// radio-disjoint by construction ([`Scenario::contact_clusters`]),
    /// the union of every cluster's ranges equals the fleet-level
    /// [`Scenario::active_seconds`] — per-cluster schedules never lose an
    /// active second, they only stop charging one cluster for another's.
    pub fn cluster_active_seconds(
        &self,
        link: &PhysicalLinkModel,
        horizon_s: u64,
        margin_s: u64,
        members: &[NodeId],
    ) -> Vec<(u64, u64)> {
        let vehicles: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|&n| self.node(n).kind == NodeKind::Vehicle)
            .collect();
        let bs: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|&n| self.node(n).kind == NodeKind::Basestation)
            .collect();
        self.active_seconds_for(link, horizon_s, margin_s, &vehicles, &bs)
    }

    fn active_seconds_for(
        &self,
        link: &PhysicalLinkModel,
        horizon_s: u64,
        margin_s: u64,
        vehicles: &[NodeId],
        bs: &[NodeId],
    ) -> Vec<(u64, u64)> {
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for sec in 0..horizon_s {
            let t = SimTime::from_secs(sec);
            let active = vehicles.iter().enumerate().any(|(i, &v)| {
                bs.iter().any(|&b| link.slow_prob(b, v, t) > 0.0)
                    || vehicles[i + 1..]
                        .iter()
                        .any(|&w| link.slow_prob(v, w, t) > 0.0)
            });
            if !active {
                continue;
            }
            let lo = sec.saturating_sub(margin_s);
            let hi = (sec + margin_s + 1).min(horizon_s.max(1));
            match ranges.last_mut() {
                Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                _ => ranges.push((lo, hi)),
            }
        }
        ranges
    }

    /// Decompose the fleet into **contact clusters**: the connected
    /// components of the audibility graph, whose edges are every node
    /// pair that is ever within radio range (`slow_prob > 0` in either
    /// direction). Vehicle–BS and vehicle–vehicle pairs are sampled at
    /// 1 Hz over one full lap — the same granularity as
    /// [`Scenario::contact_windows`], and lap-long so the decomposition
    /// is independent of any particular run's horizon — while BS–BS pairs
    /// are sampled once at `t = 0` (fixed infrastructure does not move).
    ///
    /// Nodes in different clusters can *never* interact over the air, so
    /// a coupled run may synchronize each cluster on its own fine-epoch
    /// schedule and rendezvous fleet-wide only on the coarse grid where
    /// backplane coupling resolves (see `HierarchicalSchedule` in
    /// `vifi-sim`). Merging clusters is always sound (it merely
    /// over-synchronizes); splitting a real component would lose physics,
    /// which is why edges use the conservative `> 0` test rather
    /// than a delivery threshold.
    ///
    /// Every node appears in exactly one cluster (singletons included).
    /// Within a cluster nodes are sorted by id; clusters are ordered by
    /// their smallest node id. A pure function of the scenario and link
    /// geometry — never of shard or worker count.
    pub fn contact_clusters(&self, link: &PhysicalLinkModel) -> Vec<Vec<NodeId>> {
        let n = self.nodes.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]]; // path halving
                x = parent[x];
            }
            x
        }
        let union = |parent: &mut [usize], a: usize, b: usize| {
            let (ra, rb) = (find(parent, a), find(parent, b));
            if ra != rb {
                // Root at the smaller index: deterministic structure.
                let (lo, hi) = (ra.min(rb), ra.max(rb));
                parent[hi] = lo;
            }
        };
        let vehicles = self.vehicle_ids();
        let bs = self.bs_ids();
        for i in 0..bs.len() {
            for j in i + 1..bs.len() {
                if find(&mut parent, bs[i].index()) == find(&mut parent, bs[j].index()) {
                    continue;
                }
                let t = SimTime::ZERO;
                if link.slow_prob(bs[i], bs[j], t) > 0.0 || link.slow_prob(bs[j], bs[i], t) > 0.0 {
                    union(&mut parent, bs[i].index(), bs[j].index());
                }
            }
        }
        for sec in 0..self.lap.as_secs().max(1) {
            let t = SimTime::from_secs(sec);
            for (i, &v) in vehicles.iter().enumerate() {
                for &b in &bs {
                    if find(&mut parent, v.index()) == find(&mut parent, b.index()) {
                        continue;
                    }
                    if link.slow_prob(b, v, t) > 0.0 || link.slow_prob(v, b, t) > 0.0 {
                        union(&mut parent, v.index(), b.index());
                    }
                }
                for &w in &vehicles[i + 1..] {
                    if find(&mut parent, v.index()) == find(&mut parent, w.index()) {
                        continue;
                    }
                    if link.slow_prob(v, w, t) > 0.0 || link.slow_prob(w, v, t) > 0.0 {
                        union(&mut parent, v.index(), w.index());
                    }
                }
            }
        }
        let mut by_root: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
        for node in &self.nodes {
            by_root
                .entry(find(&mut parent, node.id.index()))
                .or_default()
                .push(node.id);
        }
        // BTreeMap iteration gives roots in ascending order, and the root
        // is each component's smallest index, so clusters come out ordered
        // by smallest member with members already in id order.
        by_root.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vifi_phy::{LinkModel, Route};

    fn tiny() -> Scenario {
        Scenario {
            name: "tiny".into(),
            nodes: vec![
                NodeSpec {
                    id: NodeId(0),
                    kind: NodeKind::Basestation,
                    mobility: MobilitySource::Fixed(Point::new(0.0, 0.0)),
                    name: "BS-0".into(),
                },
                NodeSpec {
                    id: NodeId(1),
                    kind: NodeKind::Basestation,
                    mobility: MobilitySource::Fixed(Point::new(100.0, 0.0)),
                    name: "BS-1".into(),
                },
                NodeSpec {
                    id: NodeId(2),
                    kind: NodeKind::Vehicle,
                    mobility: MobilitySource::Mobile(Route::new(
                        vec![Point::new(0.0, 50.0), Point::new(100.0, 50.0)],
                        10.0,
                        true,
                    )),
                    name: "van-0".into(),
                },
            ],
            radio: RadioParams::default(),
            lap: SimDuration::from_secs(20),
            visits_per_day: 10,
        }
    }

    #[test]
    fn id_queries() {
        let s = tiny();
        s.validate();
        assert_eq!(s.bs_ids(), vec![NodeId(0), NodeId(1)]);
        assert_eq!(s.vehicle_ids(), vec![NodeId(2)]);
        assert_eq!(s.node(NodeId(0)).name, "BS-0");
    }

    #[test]
    fn builds_link_model() {
        let s = tiny();
        let m = s.build_link_model(&Rng::new(1));
        assert_eq!(m.nodes().len(), 3);
        assert_eq!(m.kind(NodeId(2)), NodeKind::Vehicle);
    }

    #[test]
    fn bs_subset_redensifies_ids() {
        let s = tiny();
        let (sub, mapping) = s.with_bs_subset(&[NodeId(1)]);
        sub.validate();
        assert_eq!(sub.nodes.len(), 2);
        assert_eq!(sub.bs_ids(), vec![NodeId(0)]);
        assert_eq!(sub.node(NodeId(0)).name, "BS-1");
        assert_eq!(sub.vehicle_ids(), vec![NodeId(1)]);
        assert!(mapping.contains(&(NodeId(1), NodeId(0))));
        assert!(mapping.contains(&(NodeId(2), NodeId(1))));
    }

    #[test]
    #[should_panic(expected = "needs a basestation")]
    fn subset_with_no_bs_is_invalid() {
        let s = tiny();
        let (sub, _) = s.with_bs_subset(&[]);
        sub.validate();
    }

    #[test]
    fn shard_partition_is_disjoint_and_covering() {
        let s = crate::vanlan(8);
        let link = s.build_link_model(&Rng::new(9));
        for shards in [1usize, 2, 3, 4, 8, 11] {
            let groups = s.shard_partition_by_contact(shards, &link, 0.1);
            assert_eq!(groups.len(), shards);
            let mut all: Vec<NodeId> = groups.iter().flatten().copied().collect();
            all.sort_by_key(|n| n.index());
            all.dedup();
            assert_eq!(all, s.vehicle_ids(), "shards={shards}");
            assert_eq!(
                groups.iter().map(Vec::len).sum::<usize>(),
                8,
                "shards={shards}: no vehicle in two groups"
            );
        }
    }

    #[test]
    fn contact_balanced_partition_covers_and_balances() {
        let s = crate::dieselnet_fleet(6, 42);
        let link = s.build_link_model(&Rng::new(9));
        let groups = s.shard_partition_by_contact(3, &link, 0.1);
        let mut all: Vec<NodeId> = groups.iter().flatten().copied().collect();
        all.sort_by_key(|n| n.index());
        assert_eq!(all, s.vehicle_ids());
        // LPT with 6 roughly-equal buses over 3 shards: 2 each.
        for g in &groups {
            assert!(!g.is_empty(), "no shard starves under LPT");
        }
        // Deterministic plan.
        assert_eq!(groups, s.shard_partition_by_contact(3, &link, 0.1));
    }

    #[test]
    fn bs_contact_seconds_reflect_coverage() {
        let s = crate::vanlan(2);
        let link = s.build_link_model(&Rng::new(4));
        let weights = s.bs_contact_seconds(&link, 0.1);
        assert_eq!(weights.len(), s.bs_ids().len());
        // Weights are at least the +1 floor and at most lap+1.
        for &(_, w) in &weights {
            assert!(w >= 1 && w <= s.lap.as_secs() + 1);
        }
        // Some BS must actually see traffic on a campus loop.
        assert!(weights.iter().any(|&(_, w)| w > 30), "{weights:?}");
        // Deterministic.
        assert_eq!(weights, s.bs_contact_seconds(&link, 0.1));
    }

    #[test]
    fn active_seconds_cover_contact_windows() {
        let s = crate::vanlan(1);
        let link = s.build_link_model(&Rng::new(5));
        let horizon = s.lap.as_secs();
        let active = s.active_seconds(&link, horizon, 2);
        // Sorted, disjoint.
        assert!(active.windows(2).all(|w| w[0].1 < w[1].0));
        // Every contact second falls inside an active range (activity is
        // a superset of vehicle-BS contact).
        let veh = s.vehicle_ids()[0];
        for (a, b) in s.contact_windows(veh, &link, 0.1) {
            for sec in a..b.min(horizon) {
                assert!(
                    active.iter().any(|&(lo, hi)| lo <= sec && sec < hi),
                    "contact second {sec} outside active ranges {active:?}"
                );
            }
        }
        // The out-of-range leg of the loop must leave quiet air.
        let covered: u64 = active.iter().map(|(a, b)| b - a).sum();
        assert!(covered < horizon, "some of the lap must be quiet");
    }

    #[test]
    fn vehicle_moves() {
        let s = tiny();
        let p0 = s.position(NodeId(2), SimTime::ZERO);
        let p1 = s.position(NodeId(2), SimTime::from_secs(5));
        assert!(p0.distance(p1) > 1.0);
    }
}
