//! Scenario description: the nodes, their motion, and the radio
//! environment of one testbed.

use std::collections::BTreeMap;

use vifi_phy::link::MobilitySource;
use vifi_phy::{LinkModel, NodeId, NodeKind, PhysicalLinkModel, Point, RadioParams};
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
        self.sweep(link, Some(min_prob), 0, 0)
            .shard_partition(shards)
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
    /// testbeds' GPS and beacon logs; each second evaluates only the
    /// basestations in the vehicle's row of the contact atlas
    /// ([`PhysicalLinkModel::reachable`]).
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
            let covered = link
                .reachable(vehicle, sec, &bs)
                .any(|b| link.slow_prob(b, vehicle, t) > min_prob);
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
        self.sweep(link, Some(min_prob), 0, 0).bs_contact_seconds
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
        let all: Vec<NodeId> = self.nodes.iter().map(|n| n.id).collect();
        self.active_ranges(link, horizon_s, margin_s, &all)
    }

    /// [`Scenario::active_seconds`] restricted to one cluster: only
    /// contact among `members` (its vehicles against its basestations or
    /// each other) makes a second active. Because contact clusters are
    /// radio-disjoint by construction ([`Scenario::contact_clusters`]),
    /// the union of every cluster's ranges equals the fleet-level
    /// [`Scenario::active_seconds`] over the lap the decomposition
    /// sampled — per-cluster schedules never lose an active second there,
    /// they only stop charging one cluster for another's.
    pub fn cluster_active_seconds(
        &self,
        link: &PhysicalLinkModel,
        horizon_s: u64,
        margin_s: u64,
        members: &[NodeId],
    ) -> Vec<(u64, u64)> {
        self.active_ranges(link, horizon_s, margin_s, members)
    }

    /// Active ranges over `[0, horizon_s)` counting only pairs inside
    /// `members`: each second walks the members' vehicles' atlas rows
    /// until one pair is active.
    fn active_ranges(
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
        let mut seconds = Vec::new();
        for sec in 0..horizon_s {
            let t = SimTime::from_secs(sec);
            let active = vehicles.iter().any(|&v| {
                link.reachable(v, sec, members).any(|x| {
                    self.activity_link(v.min(x), v.max(x))
                        .is_some_and(|(tx, rx)| link.slow_prob(tx, rx, t) > 0.0)
                })
            });
            if active {
                mark(&mut seconds, sec);
            }
        }
        dilate(seconds, margin_s, horizon_s)
    }

    /// The directed link whose `slow_prob > 0` makes a candidate pair
    /// `a < b` active: basestation → vehicle, or earlier → later vehicle.
    /// `None` for basestation pairs and wired ends, which never make a
    /// second active.
    fn activity_link(&self, a: NodeId, b: NodeId) -> Option<(NodeId, NodeId)> {
        match (self.node(a).kind, self.node(b).kind) {
            (NodeKind::Basestation, NodeKind::Vehicle) => Some((a, b)),
            (NodeKind::Vehicle, NodeKind::Basestation) => Some((b, a)),
            (NodeKind::Vehicle, NodeKind::Vehicle) => Some((a, b)),
            _ => None,
        }
    }

    /// Decompose the fleet into **contact clusters**: the connected
    /// components of the audibility graph, whose edges are every node
    /// pair that is ever within radio range (`slow_prob > 0` in either
    /// direction). Vehicle–BS and vehicle–vehicle pairs are sampled at
    /// 1 Hz over one full lap — the same granularity as
    /// [`Scenario::contact_windows`], and lap-long so the decomposition
    /// is independent of any particular run's horizon — while BS–BS pairs
    /// are sampled once at `t = 0` (fixed infrastructure does not move).
    /// Each second evaluates `slow_prob` only on the contact atlas's
    /// candidate pairs not yet joined.
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
        self.sweep(link, None, 0, 0).clusters
    }

    /// Everything one run's set-up needs from the contact structure, in
    /// **one streaming pass** over the contact atlas: the contact
    /// clusters, the planner's load weights at `min_prob`, and each
    /// cluster's active ranges over `[0, horizon_s)` dilated by
    /// `margin_s`. Each field equals the matching single-purpose method
    /// ([`Scenario::contact_clusters`], [`Scenario::bs_contact_seconds`],
    /// [`Scenario::contact_windows`] lengths,
    /// [`Scenario::cluster_active_seconds`] per cluster). One second's
    /// candidate lists are built, used and dropped before the next, so
    /// memory does not grow with the lap or the horizon beyond the
    /// returned ranges.
    pub fn contact_analysis(
        &self,
        link: &PhysicalLinkModel,
        min_prob: f64,
        horizon_s: u64,
        margin_s: u64,
    ) -> ContactAnalysis {
        self.sweep(link, Some(min_prob), horizon_s, margin_s)
    }

    /// The streaming pass behind [`Scenario::contact_analysis`]; `loads`
    /// is the load threshold, `None` to skip the load weights.
    fn sweep(
        &self,
        link: &PhysicalLinkModel,
        loads: Option<f64>,
        horizon_s: u64,
        margin_s: u64,
    ) -> ContactAnalysis {
        let n = self.nodes.len();
        let lap_s = self.lap.as_secs();
        let cluster_s = lap_s.max(1);
        let (vehicles, bs) = (self.vehicle_ids(), self.bs_ids());
        let is = |node: NodeId, kind: NodeKind| self.node(node).kind == kind;
        let mut comps = Components::new(n);
        // Per node: seconds covered above the load threshold, the last
        // second counted, and (vehicles) run-length active seconds.
        let mut covered = vec![0u64; n];
        let mut counted = vec![u64::MAX; n];
        let mut active: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
        for sec in 0..cluster_s.max(horizon_s) {
            let t = SimTime::from_secs(sec);
            let contacts = link.contacts(sec);
            // Clusters: a candidate pair not yet joined joins when either
            // direction is above zero. Fixed infrastructure does not move,
            // so basestation pairs are sampled at t = 0 only.
            if sec < cluster_s && comps.parts > 1 {
                for (a, b) in contacts.pairs() {
                    let sampled = sec == 0 || self.activity_link(a, b).is_some();
                    if sampled
                        && !comps.same(a, b)
                        && (link.slow_prob(a, b, t) > 0.0 || link.slow_prob(b, a, t) > 0.0)
                    {
                        comps.union(a, b);
                    }
                }
            }
            // Loads: a vehicle and the first basestation covering it both
            // count the second; basestations still uncounted look for a
            // covering vehicle of their own.
            if let Some(min_prob) = loads.filter(|_| sec < lap_s) {
                let covers = |b: NodeId, v: NodeId| link.slow_prob(b, v, t) > min_prob;
                for &v in &vehicles {
                    let first = contacts
                        .candidates(v)
                        .iter()
                        .find(|&&b| is(b, NodeKind::Basestation) && covers(b, v));
                    for node in first.into_iter().flat_map(|&b| [v, b]) {
                        if counted[node.index()] != sec {
                            counted[node.index()] = sec;
                            covered[node.index()] += 1;
                        }
                    }
                }
                for &b in &bs {
                    if counted[b.index()] != sec
                        && contacts
                            .candidates(b)
                            .iter()
                            .any(|&v| is(v, NodeKind::Vehicle) && covers(b, v))
                    {
                        counted[b.index()] = sec;
                        covered[b.index()] += 1;
                    }
                }
            }
            // Activity, attributed to the pair's vehicle receiver. Within
            // the sampled lap an active pair was just joined, so it lies
            // inside one cluster; past it, only pairs inside one cluster
            // count. A cluster already marked this second needs no more
            // evidence.
            if sec < horizon_s {
                for (a, b) in contacts.pairs() {
                    let Some((tx, rx)) = self.activity_link(a, b) else {
                        continue;
                    };
                    if marked(&active[a.index()], sec)
                        || marked(&active[b.index()], sec)
                        || (sec >= cluster_s && !comps.same(a, b))
                    {
                        continue;
                    }
                    if link.slow_prob(tx, rx, t) > 0.0 {
                        mark(&mut active[rx.index()], sec);
                    }
                }
            }
        }
        let mut by_root: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
        for node in &self.nodes {
            by_root
                .entry(comps.find(node.id))
                .or_default()
                .push(node.id);
        }
        // BTreeMap iteration gives roots in ascending order, and the root
        // is each component's smallest index, so clusters come out ordered
        // by smallest member with members already in id order.
        let clusters: Vec<Vec<NodeId>> = by_root.into_values().collect();
        let cluster_active = clusters
            .iter()
            .map(|members| {
                let mut seconds: Vec<(u64, u64)> = members
                    .iter()
                    .flat_map(|m| active[m.index()].iter().copied())
                    .collect();
                seconds.sort_unstable();
                dilate(seconds, margin_s, horizon_s)
            })
            .collect();
        ContactAnalysis {
            clusters,
            bs_contact_seconds: self
                .bs_ids()
                .into_iter()
                .map(|b| (b, covered[b.index()] + 1))
                .collect(),
            vehicle_contact_seconds: self
                .vehicle_ids()
                .into_iter()
                .map(|v| (v, covered[v.index()]))
                .collect(),
            cluster_active,
        }
    }
}

/// What one run's set-up needs from the contact structure, computed in
/// one streaming pass by [`Scenario::contact_analysis`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContactAnalysis {
    /// The contact clusters ([`Scenario::contact_clusters`]).
    pub clusters: Vec<Vec<NodeId>>,
    /// Per basestation in id order, its lap contact seconds plus one
    /// ([`Scenario::bs_contact_seconds`]).
    pub bs_contact_seconds: Vec<(NodeId, u64)>,
    /// Per vehicle in id order, its covered seconds per lap: the total
    /// length of its [`Scenario::contact_windows`].
    pub vehicle_contact_seconds: Vec<(NodeId, u64)>,
    /// Per cluster in `clusters` order, its active ranges
    /// ([`Scenario::cluster_active_seconds`] of its members).
    pub cluster_active: Vec<Vec<(u64, u64)>>,
}

impl ContactAnalysis {
    /// [`Scenario::shard_partition_by_contact`] from these vehicle
    /// weights: each vehicle weighs its covered seconds plus one, and
    /// vehicles go heaviest-first (ties by id) onto the lightest shard.
    pub fn shard_partition(&self, shards: usize) -> Vec<Vec<NodeId>> {
        assert!(shards >= 1, "need at least one shard");
        let mut weighted: Vec<(u64, NodeId)> = self
            .vehicle_contact_seconds
            .iter()
            .map(|&(v, covered)| (covered + 1, v))
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
}

/// Union-find over node indices; every root is its component's smallest
/// index, so the structure does not depend on the order of unions.
struct Components {
    parent: Vec<usize>,
    /// Number of components.
    parts: usize,
}

impl Components {
    fn new(n: usize) -> Self {
        Components {
            parent: (0..n).collect(),
            parts: n,
        }
    }

    fn find(&mut self, n: NodeId) -> usize {
        let parent = &mut self.parent;
        let mut x = n.index();
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // path halving
            x = parent[x];
        }
        x
    }

    fn same(&mut self, a: NodeId, b: NodeId) -> bool {
        self.find(a) == self.find(b)
    }

    fn union(&mut self, a: NodeId, b: NodeId) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
            self.parts -= 1;
        }
    }
}

/// Add second `sec` to run-length `[start, end)` ranges built in
/// ascending order (a second already present is a no-op).
fn mark(ranges: &mut Vec<(u64, u64)>, sec: u64) {
    match ranges.last_mut() {
        Some(last) if last.1 >= sec => last.1 = last.1.max(sec + 1),
        _ => ranges.push((sec, sec + 1)),
    }
}

/// Whether the last of `ranges` (built by [`mark`]) ends with `sec`.
fn marked(ranges: &[(u64, u64)], sec: u64) -> bool {
    ranges.last().is_some_and(|r| r.1 == sec + 1)
}

/// Dilate active-second ranges (sorted by start) by ±`margin_s`, capped
/// at the horizon, and merge them into sorted, disjoint ranges.
fn dilate(seconds: Vec<(u64, u64)>, margin_s: u64, horizon_s: u64) -> Vec<(u64, u64)> {
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for (start, end) in seconds {
        let lo = start.saturating_sub(margin_s);
        let hi = (end + margin_s).min(horizon_s.max(1));
        match ranges.last_mut() {
            Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
            _ => ranges.push((lo, hi)),
        }
    }
    ranges
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
