//! Exactness of the contact atlas: on random small scenarios — fixed
//! basestations, vehicles on open and closed routes at random speeds, and
//! node pairs placed a micrometre inside and outside `max_range_m` — the
//! atlas-backed contact sweeps equal all-pairs references kept here, and
//! every pair whose quality can be nonzero at an instant is a candidate
//! of that instant's second, in physical and in trace mode.

use proptest::prelude::*;
use vifi_phy::link::MobilitySource;
use vifi_phy::{LinkModel, NodeId, NodeKind, PhysicalLinkModel, Point, RadioParams, Route};
use vifi_sim::{Rng, SimDuration, SimTime};
use vifi_testbeds::{dieselnet_ch1, generate_beacon_trace, NodeSpec, Scenario, TraceSimSetup};

/// A random scenario: 1–4 fixed BSes and 1–4 vehicles in a 2 km box,
/// plus one BS pair and one BS–vehicle pair at `max_range_m ± 1e-6` m.
fn random_scenario(seed: u64) -> Scenario {
    let mut rng = Rng::new(seed);
    let range = RadioParams::default().max_range_m;
    let mut nodes = Vec::new();
    let push = |nodes: &mut Vec<NodeSpec>, kind: NodeKind, mobility: MobilitySource| {
        let id = NodeId(nodes.len() as u32);
        nodes.push(NodeSpec {
            id,
            kind,
            mobility,
            name: format!("{kind:?}-{}", id.0),
        });
    };
    let point = |rng: &mut Rng| Point::new(rng.range_f64(0.0, 2000.0), rng.range_f64(0.0, 2000.0));
    let edge = |rng: &mut Rng| range + if rng.chance(0.5) { 1e-6 } else { -1e-6 };
    let anchor = point(&mut rng);
    push(
        &mut nodes,
        NodeKind::Basestation,
        MobilitySource::Fixed(anchor),
    );
    let twin = Point::new(anchor.x, anchor.y + edge(&mut rng));
    push(
        &mut nodes,
        NodeKind::Basestation,
        MobilitySource::Fixed(twin),
    );
    for _ in 0..rng.below(3) {
        let p = point(&mut rng);
        push(&mut nodes, NodeKind::Basestation, MobilitySource::Fixed(p));
    }
    // The first vehicle starts exactly at the edge of the anchor's range.
    let start = Point::new(anchor.x + edge(&mut rng), anchor.y);
    for v in 0..1 + rng.below(4) {
        let mut waypoints = vec![if v == 0 { start } else { point(&mut rng) }];
        for _ in 0..1 + rng.below(3) {
            waypoints.push(point(&mut rng));
        }
        let speed = rng.range_f64(1.0, 30.0);
        let closed = rng.chance(0.5);
        let mut route = Route::new(waypoints, speed, closed);
        if v > 0 {
            route = route.with_start_offset(rng.range_f64(0.0, 3000.0));
        }
        push(&mut nodes, NodeKind::Vehicle, MobilitySource::Mobile(route));
    }
    Scenario {
        name: format!("random-{seed}"),
        nodes,
        radio: RadioParams::default(),
        lap: SimDuration::from_secs(20 + rng.below(60)),
        visits_per_day: 10,
    }
}

// ---- all-pairs references: every pair, every second, no atlas ----

fn ref_contact_windows(
    s: &Scenario,
    v: NodeId,
    link: &PhysicalLinkModel,
    min_prob: f64,
) -> Vec<(u64, u64)> {
    let lap_s = s.lap.as_secs();
    let mut windows = Vec::new();
    let mut open: Option<u64> = None;
    for sec in 0..lap_s {
        let t = SimTime::from_secs(sec);
        let covered = s
            .bs_ids()
            .iter()
            .any(|&b| link.slow_prob(b, v, t) > min_prob);
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

fn ref_bs_contact_seconds(
    s: &Scenario,
    link: &PhysicalLinkModel,
    min_prob: f64,
) -> Vec<(NodeId, u64)> {
    s.bs_ids()
        .into_iter()
        .map(|b| {
            let covered = (0..s.lap.as_secs())
                .filter(|&sec| {
                    let t = SimTime::from_secs(sec);
                    s.vehicle_ids()
                        .iter()
                        .any(|&v| link.slow_prob(b, v, t) > min_prob)
                })
                .count() as u64;
            (b, covered + 1)
        })
        .collect()
}

fn ref_active(
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

fn ref_clusters(s: &Scenario, link: &PhysicalLinkModel) -> Vec<Vec<NodeId>> {
    let n = s.nodes.len();
    // Plain labels: merge by relabelling, no union-find to get wrong.
    let mut label: Vec<usize> = (0..n).collect();
    let join = |label: &mut Vec<usize>, a: NodeId, b: NodeId| {
        let (la, lb) = (label[a.index()], label[b.index()]);
        let (keep, drop) = (la.min(lb), la.max(lb));
        for l in label.iter_mut() {
            if *l == drop {
                *l = keep;
            }
        }
    };
    let hears = |a: NodeId, b: NodeId, t: SimTime| {
        link.slow_prob(a, b, t) > 0.0 || link.slow_prob(b, a, t) > 0.0
    };
    let (bs, vehicles) = (s.bs_ids(), s.vehicle_ids());
    for &a in &bs {
        for &b in &bs {
            if a < b && hears(a, b, SimTime::ZERO) {
                join(&mut label, a, b);
            }
        }
    }
    for sec in 0..s.lap.as_secs().max(1) {
        let t = SimTime::from_secs(sec);
        for &v in &vehicles {
            for &x in bs.iter().chain(&vehicles) {
                if x != v && hears(v, x, t) {
                    join(&mut label, v, x);
                }
            }
        }
    }
    let mut clusters: Vec<Vec<NodeId>> = Vec::new();
    for l in 0..n {
        let members: Vec<NodeId> = (0..n)
            .filter(|&i| label[i] == l)
            .map(|i| NodeId(i as u32))
            .collect();
        if !members.is_empty() {
            clusters.push(members);
        }
    }
    clusters
}

/// Every pair with nonzero quality at `t` is a candidate of `t`'s second.
fn assert_superset(link: &dyn LinkModel, t: SimTime) {
    let contacts = link.contacts(t.second_bin());
    let ids: Vec<NodeId> = link.nodes().iter().map(|&(id, _)| id).collect();
    for &a in &ids {
        for &b in &ids {
            if a != b && link.quality_hint(a, b, t) > 0.0 {
                assert!(
                    contacts.contains(a, b),
                    "{a:?}→{b:?} audible at {t:?} but not a candidate"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn atlas_sweeps_equal_the_all_pairs_references(seed in 0u64..1_000_000) {
        let s = random_scenario(seed);
        let link = s.build_link_model(&Rng::new(seed ^ 0xA71A5));
        let mut rng = Rng::new(seed);
        let lap_s = s.lap.as_secs();
        // Horizons past the lap reach the seconds the decomposition never
        // sampled, where open routes have parked somewhere new.
        let horizon_s = 1 + rng.below(2 * lap_s);
        let margin_s = rng.below(4);
        let (vehicles, bs) = (s.vehicle_ids(), s.bs_ids());

        let clusters = s.contact_clusters(&link);
        prop_assert_eq!(&clusters, &ref_clusters(&s, &link));
        prop_assert_eq!(
            s.bs_contact_seconds(&link, 0.1),
            ref_bs_contact_seconds(&s, &link, 0.1)
        );
        for &v in &vehicles {
            prop_assert_eq!(
                s.contact_windows(v, &link, 0.1),
                ref_contact_windows(&s, v, &link, 0.1)
            );
        }
        prop_assert_eq!(
            s.active_seconds(&link, horizon_s, margin_s),
            ref_active(&link, horizon_s, margin_s, &vehicles, &bs)
        );
        for c in &clusters {
            let kind = |k: NodeKind| -> Vec<NodeId> {
                c.iter().copied().filter(|&n| s.node(n).kind == k).collect()
            };
            prop_assert_eq!(
                s.cluster_active_seconds(&link, horizon_s, margin_s, c),
                ref_active(
                    &link,
                    horizon_s,
                    margin_s,
                    &kind(NodeKind::Vehicle),
                    &kind(NodeKind::Basestation)
                )
            );
        }

        // The one streaming pass agrees with every single-purpose view.
        let analysis = s.contact_analysis(&link, 0.1, horizon_s, margin_s);
        prop_assert_eq!(&analysis.clusters, &clusters);
        prop_assert_eq!(&analysis.bs_contact_seconds, &s.bs_contact_seconds(&link, 0.1));
        for &(v, covered) in &analysis.vehicle_contact_seconds {
            let windows = s.contact_windows(v, &link, 0.1);
            prop_assert_eq!(covered, windows.iter().map(|(a, b)| b - a).sum::<u64>());
        }
        for (c, active) in clusters.iter().zip(&analysis.cluster_active) {
            prop_assert_eq!(active, &s.cluster_active_seconds(&link, horizon_s, margin_s, c));
        }
        prop_assert_eq!(
            analysis.shard_partition(3),
            s.shard_partition_by_contact(3, &link, 0.1)
        );
    }

    #[test]
    fn every_audible_pair_is_a_candidate_of_its_second(seed in 0u64..1_000_000) {
        let s = random_scenario(seed);
        let link = s.build_link_model(&Rng::new(seed));
        let mut rng = Rng::new(seed ^ 0x5EC);
        let ids: Vec<NodeId> = s.nodes.iter().map(|n| n.id).collect();
        for _ in 0..12 {
            let t = SimTime::from_micros(rng.below(2 * s.lap.as_micros()));
            assert_superset(&link, t);
            // A single row from the pair test is the grid's row.
            let sec = t.second_bin();
            let contacts = link.contacts(sec);
            for &n in &ids {
                prop_assert_eq!(
                    link.reachable(n, sec, &ids).collect::<Vec<_>>(),
                    contacts.candidates(n).to_vec()
                );
            }
        }
        // Instants pinned to the edges of a second.
        for sec in [0, 1, s.lap.as_secs()] {
            for us in [0, 1, 999_999] {
                assert_superset(&link, SimTime::from_micros(sec * 1_000_000 + us));
            }
        }
    }

    #[test]
    fn trace_candidates_cover_every_audible_pair(seed in 0u64..1_000_000) {
        let scenario = dieselnet_ch1();
        let vehicle = scenario.vehicle_ids()[0];
        let trace = generate_beacon_trace(
            &scenario,
            vehicle,
            SimDuration::from_secs(120),
            10,
            &Rng::new(seed),
        );
        let link = TraceSimSetup::from_trace(&trace, &Rng::new(seed ^ 1)).link;
        let mut rng = Rng::new(seed ^ 2);
        for _ in 0..16 {
            assert_superset(&link, SimTime::from_micros(rng.below(130_000_000)));
        }
    }
}
