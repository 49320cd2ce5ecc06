//! Property tests of the medium's MAC invariants, across randomized
//! topologies, audibility matrices and transmission batches:
//!
//! * **half-duplex veto** — a node with an airtime window overlapping a
//!   frame's window never appears among that frame's receivers;
//! * **collision symmetry** — when two overlapping transmissions are both
//!   audible at a bystander receiver, the receiver loses *both* frames
//!   (the veto cannot prefer one side of a collision);
//! * **window isolation** — delivery sampling never observes a
//!   transmission outside its `(start, end)` window: adding traffic whose
//!   airtime is disjoint from a frame's window changes nothing about that
//!   frame's receptions, bit for bit.

use proptest::prelude::*;
use vifi_mac::medium::kernel;
use vifi_mac::{Frame, MacParams, SharedMediumService, TxRequest};
use vifi_phy::link::{LinkModel, LossSeries, TraceLinkModel};
use vifi_phy::{ContactSecond, NodeId, NodeKind};
use vifi_sim::{Rng, SimTime};

/// A randomized topology: `n` nodes and a directed audibility matrix of
/// per-link delivery probabilities (0.0 = no link).
#[derive(Clone, Debug)]
struct Topology {
    n: u32,
    /// Row-major `n × n` directed link probabilities.
    probs: Vec<f64>,
}

fn topology_strategy() -> impl Strategy<Value = Topology> {
    (3u32..=7)
        .prop_flat_map(|n| {
            let cells = (n * n) as usize;
            (
                Just(n),
                // Mixed matrix: half the links absent, a quarter perfect,
                // a quarter lossy (vendored proptest has no prop_oneof, so
                // select via an index draw).
                proptest::collection::vec((0u32..4, 0.3f64..1.0), cells..=cells),
            )
        })
        .prop_map(|(n, cells)| Topology {
            n,
            probs: cells
                .into_iter()
                .map(|(sel, p)| match sel {
                    0 | 1 => 0.0,
                    2 => 1.0,
                    _ => p,
                })
                .collect(),
        })
}

fn build_link(t: &Topology, seed: u64) -> TraceLinkModel {
    let rng = Rng::new(seed);
    // Fade layer off: the properties under test are MAC-level; the
    // channel should be exactly the configured Bernoulli matrix.
    let mut m = TraceLinkModel::new(&rng).with_ge_params(vifi_phy::gilbert::GeParams {
        fade_depth_db: 0.0,
        ..Default::default()
    });
    for i in 0..t.n {
        m.add_node(
            NodeId(i),
            if i == 0 {
                NodeKind::Vehicle
            } else {
                NodeKind::Basestation
            },
        );
    }
    for a in 0..t.n {
        for b in 0..t.n {
            let p = t.probs[(a * t.n + b) as usize];
            if a != b && p > 0.0 {
                m.set_series(NodeId(a), NodeId(b), LossSeries::new(vec![p; 120]));
            }
        }
    }
    m
}

/// Place one batch (every node transmits once, staggered arrivals) and
/// resolve all frames, returning `(per-frame window, per-frame rx set,
/// per-frame overlap set)` keyed by source node.
#[allow(clippy::type_complexity)]
fn run_batch(
    topo: &Topology,
    sizes: &[u32],
    seed: u64,
) -> Vec<(
    NodeId,
    SimTime,
    SimTime,
    Vec<NodeId>,
    Vec<(NodeId, SimTime, SimTime)>,
)> {
    let mut link = build_link(topo, seed);
    let mut med: SharedMediumService<u32> =
        SharedMediumService::new(MacParams::default(), &Rng::new(seed));
    let sense = med.params().sense_threshold;
    let requests: Vec<TxRequest<u32>> = (0..topo.n)
        .map(|i| TxRequest {
            frame: Frame::new(NodeId(i), sizes[i as usize], i),
            t_req: SimTime::from_micros(i as u64),
        })
        .collect();
    let _ = med.place_batch(requests, SimTime::ZERO, &link);
    let resolvable = med.drain_resolvable(SimTime::MAX);
    resolvable
        .iter()
        .map(|tx| {
            let rx = kernel::resolve_receptions(&mut link, tx, sense);
            (
                tx.frame.src,
                tx.start,
                tx.end,
                rx.into_iter().map(|r| r.rx).collect(),
                tx.overlapping.clone(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Half-duplex: a receiver whose own window overlaps a frame's window
    /// never receives that frame.
    #[test]
    fn half_duplex_veto_holds(topo in topology_strategy(), seed in 1u64..10_000) {
        let sizes: Vec<u32> = (0..topo.n).map(|i| 100 + 150 * i).collect();
        let frames = run_batch(&topo, &sizes, seed);
        for (src, start, end, rx_set, _) in &frames {
            for (other_src, o_start, o_end, _, _) in &frames {
                let overlaps = o_start < end && o_end > start;
                if other_src != src && overlaps {
                    prop_assert!(
                        !rx_set.contains(other_src),
                        "{other_src:?} was on the air during {src:?}'s frame and still received it"
                    );
                }
            }
        }
    }

    /// Collision symmetry: a bystander that can sense both sides of an
    /// overlap receives neither frame.
    #[test]
    fn collision_veto_is_symmetric(topo in topology_strategy(), seed in 1u64..10_000) {
        let sizes: Vec<u32> = (0..topo.n).map(|i| 200 + 100 * i).collect();
        let frames = run_batch(&topo, &sizes, seed);
        let link = build_link(&topo, seed);
        let sense = MacParams::default().sense_threshold;
        for i in 0..frames.len() {
            for j in (i + 1)..frames.len() {
                let (a_src, a_start, a_end, ref a_rx, _) = frames[i];
                let (b_src, b_start, b_end, ref b_rx, _) = frames[j];
                if !(a_start < b_end && b_start < a_end) {
                    continue;
                }
                for rx in 0..topo.n {
                    let rx = NodeId(rx);
                    if rx == a_src || rx == b_src {
                        continue;
                    }
                    let hears_a = link.quality_hint(a_src, rx, a_end) > sense;
                    let hears_b = link.quality_hint(b_src, rx, b_end) > sense;
                    if hears_a && hears_b {
                        prop_assert!(
                            !a_rx.contains(&rx) && !b_rx.contains(&rx),
                            "bystander {rx:?} sensed both sides of an overlap yet received one"
                        );
                    }
                }
            }
        }
    }

    /// Window isolation: traffic entirely outside a frame's airtime window
    /// never appears in its overlap snapshot and never changes its
    /// receptions — the "sampling cannot observe a transmission outside
    /// its (start, end)" guarantee, asserted bit-for-bit thanks to
    /// per-link sampling streams.
    #[test]
    fn sampling_never_observes_disjoint_windows(
        topo in topology_strategy(),
        seed in 1u64..10_000,
        gap_ms in 20u64..200,
    ) {
        let size = 300u32;
        let probe = NodeId(0);
        let run = |with_late_traffic: bool| {
            let mut link = build_link(&topo, seed);
            let mut med: SharedMediumService<u32> =
                SharedMediumService::new(MacParams::default(), &Rng::new(seed));
            let sense = med.params().sense_threshold;
            // Batch 1: only the probe frame.
            let _ = med.place_batch(
                vec![TxRequest { frame: Frame::new(probe, size, 0), t_req: SimTime::ZERO }],
                SimTime::ZERO,
                &link,
            );
            // Batch 2, far in the future: everyone else transmits.
            if with_late_traffic {
                let at = SimTime::from_millis(gap_ms);
                let reqs: Vec<TxRequest<u32>> = (1..topo.n)
                    .map(|i| TxRequest {
                        frame: Frame::new(NodeId(i), size, i),
                        t_req: at,
                    })
                    .collect();
                let _ = med.place_batch(reqs, at, &link);
            }
            let resolvable = med.drain_resolvable(SimTime::MAX);
            let tx = resolvable
                .iter()
                .find(|t| t.frame.src == probe)
                .expect("probe frame resolves")
                .clone();
            let rx = kernel::resolve_receptions(&mut link, &tx, sense);
            (tx.overlapping.clone(), rx.iter().map(|r| (r.rx, r.rssi_dbm.to_bits())).collect::<Vec<_>>())
        };
        let (quiet_overlap, quiet_rx) = run(false);
        let (busy_overlap, busy_rx) = run(true);
        // Later disjoint windows are invisible to the probe frame: the
        // default gap (20 ms) starts past the probe's end (≈3 ms).
        prop_assert_eq!(quiet_overlap.len(), 0);
        prop_assert_eq!(busy_overlap.len(), 0, "disjoint windows leaked into the overlap set");
        prop_assert_eq!(quiet_rx, busy_rx, "disjoint traffic changed reception sampling");
    }
}

/// A two-batch setup for the audibility partitioner: batch 1 (every node,
/// large frames) leaves live windows on the medium; batch 2 (even-labelled
/// nodes) is the one being partitioned at `at`, while the odd nodes'
/// still-running windows act as live sources.
#[allow(clippy::type_complexity)]
fn two_batch_setup(
    topo: &Topology,
    seed: u64,
    gap_us: u64,
) -> (
    TraceLinkModel,
    SharedMediumService<u32>,
    Vec<(NodeId, SimTime, SimTime)>,
    Vec<TxRequest<u32>>,
    SimTime,
) {
    let link = build_link(topo, seed);
    let mut med: SharedMediumService<u32> =
        SharedMediumService::new(MacParams::default(), &Rng::new(seed));
    let first: Vec<TxRequest<u32>> = (0..topo.n)
        .map(|i| TxRequest {
            frame: Frame::new(NodeId(i), 1500, i),
            t_req: SimTime::from_micros(i as u64),
        })
        .collect();
    let srcs: Vec<NodeId> = first.iter().map(|r| r.frame.src).collect();
    let placed = med.place_batch(first, SimTime::ZERO, &link);
    let live: Vec<(NodeId, SimTime, SimTime)> = srcs
        .iter()
        .zip(&placed)
        .map(|(&s, p)| (s, p.start, p.end))
        .collect();
    let at = SimTime::from_micros(gap_us);
    let second: Vec<TxRequest<u32>> = (0..topo.n)
        .step_by(2)
        .map(|i| TxRequest {
            frame: Frame::new(NodeId(i), 400 + 30 * i, i),
            t_req: at + vifi_sim::SimDuration::from_micros(i as u64),
        })
        .collect();
    (link, med, live, second, at)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The audibility partitioner is an exact cover: every request index
    /// appears in exactly one group, indices ascend within each group, and
    /// groups are ordered by their first (canonically smallest) index.
    #[test]
    fn partition_covers_batch_exactly_once(
        topo in topology_strategy(),
        seed in 1u64..10_000,
        gap_us in 500u64..3000,
    ) {
        let (link, med, _, second, at) = two_batch_setup(&topo, seed, gap_us);
        let total = second.len();
        let groups = med.partition_batch(&second, at, &link);
        let mut seen: Vec<usize> = groups.iter().flatten().copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..total).collect::<Vec<_>>(), "cover is not exact");
        for g in &groups {
            prop_assert!(!g.is_empty(), "empty group emitted");
            prop_assert!(g.windows(2).all(|w| w[0] < w[1]), "indices must ascend within a group");
        }
        let firsts: Vec<usize> = groups.iter().map(|g| g[0]).collect();
        prop_assert!(
            firsts.windows(2).all(|w| w[0] < w[1]),
            "groups must be ordered by first canonical index"
        );
    }

    /// Cross-group independence: two senders placed in different groups are
    /// outside each other's interference horizon at the partition instant
    /// (inaudible in both directions), and no still-live window's source is
    /// audible to senders in two different groups — the condition that
    /// makes per-group placement order-free.
    #[test]
    fn cross_group_nodes_are_mutually_inaudible(
        topo in topology_strategy(),
        seed in 1u64..10_000,
        gap_us in 500u64..3000,
    ) {
        let (link, med, live, second, at) = two_batch_setup(&topo, seed, gap_us);
        let sense = MacParams::default().sense_threshold;
        let groups = med.partition_batch(&second, at, &link);
        let senders: Vec<Vec<NodeId>> = groups
            .iter()
            .map(|g| g.iter().map(|&i| second[i].frame.src).collect())
            .collect();
        for gi in 0..senders.len() {
            for gj in (gi + 1)..senders.len() {
                for &a in &senders[gi] {
                    for &b in &senders[gj] {
                        prop_assert!(
                            link.quality_hint(a, b, at) <= sense
                                && link.quality_hint(b, a, at) <= sense,
                            "{a:?} and {b:?} are in different groups yet within \
                             each other's interference horizon at {at:?}"
                        );
                    }
                }
            }
        }
        let batch_srcs: Vec<NodeId> = second.iter().map(|r| r.frame.src).collect();
        for &(l, _, end) in &live {
            if end <= at || batch_srcs.contains(&l) {
                continue;
            }
            let heard_in: Vec<usize> = (0..senders.len())
                .filter(|&g| senders[g].iter().any(|&s| link.quality_hint(l, s, at) > sense))
                .collect();
            prop_assert!(
                heard_in.len() <= 1,
                "live source {l:?} is audible to senders of groups {heard_in:?}; \
                 those groups must have merged"
            );
        }
    }

    /// Planning probes only between contact candidates splits and places
    /// a batch exactly like the complete plan: every skipped probe would
    /// have answered "not audible".
    #[test]
    fn candidate_probes_place_like_the_complete_plan(
        topo in topology_strategy(),
        seed in 1u64..10_000,
        gap_us in 500u64..3000,
    ) {
        let (link, mut med_a, _, second, at) = two_batch_setup(&topo, seed, gap_us);
        let (_, mut med_b, _, _, _) = two_batch_setup(&topo, seed, gap_us);
        let sense = MacParams::default().sense_threshold;
        let ids: Vec<NodeId> = link.nodes().iter().map(|&(id, _)| id).collect();
        let place = |med: &mut SharedMediumService<u32>, contacts: &ContactSecond| {
            let probes = med.partition_probes(&second, at, contacts);
            let audible: Vec<bool> =
                (0..probes.len()).map(|k| probes.eval(k, at, &link, sense)).collect();
            let groups = med.split_batch_resolved(second.clone(), at, &probes, &audible);
            let sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
            let placed = groups.into_iter().map(|g| g.place(at)).collect();
            let windows: Vec<_> = med
                .merge_placed(placed)
                .iter()
                .map(|p| (p.handle, p.start, p.end))
                .collect();
            (probes.len(), sizes, windows)
        };
        let (pruned, groups_a, windows_a) = place(&mut med_a, &link.contacts(at.second_bin()));
        let (full, groups_b, windows_b) =
            place(&mut med_b, &ContactSecond::complete(at.second_bin(), &ids));
        prop_assert!(pruned <= full);
        prop_assert_eq!(groups_a, groups_b, "groups diverged");
        prop_assert_eq!(windows_a, windows_b, "placements diverged");
    }

    /// Group-parallel placement is bit-identical to the whole-batch path:
    /// splitting a batch into audibility groups, placing each group
    /// independently (in reverse group order, to prove order freedom) and
    /// merging back produces the same placements, the same live windows and
    /// overlap snapshots, and the same sampled receptions as a single
    /// `place_batch` call on an identically-seeded service.
    #[test]
    fn group_parallel_placement_matches_place_batch(
        topo in topology_strategy(),
        seed in 1u64..10_000,
        gap_us in 500u64..3000,
    ) {
        let (mut link_a, mut med_a, _, second, at) = two_batch_setup(&topo, seed, gap_us);
        let (mut link_b, mut med_b, _, _, _) = two_batch_setup(&topo, seed, gap_us);
        let sense = MacParams::default().sense_threshold;

        let whole = med_a.place_batch(second.clone(), at, &link_a);
        let groups = med_b.split_batch(second, at, &link_b);
        let mut placed: Vec<_> = groups.into_iter().map(|g| g.place(at)).collect();
        placed.reverse();
        let merged = med_b.merge_placed(placed);

        let fp = |p: &vifi_mac::Placement| (p.handle, p.start, p.end);
        prop_assert_eq!(
            whole.iter().map(fp).collect::<Vec<_>>(),
            merged.iter().map(fp).collect::<Vec<_>>(),
            "placements diverged between whole-batch and group-parallel paths"
        );

        let ra = med_a.drain_resolvable(SimTime::MAX);
        let rb = med_b.drain_resolvable(SimTime::MAX);
        prop_assert_eq!(ra.len(), rb.len());
        for (ta, tb) in ra.iter().zip(&rb) {
            prop_assert_eq!(ta.handle, tb.handle);
            prop_assert_eq!(ta.frame.src, tb.frame.src);
            prop_assert_eq!((ta.start, ta.end), (tb.start, tb.end));
            prop_assert_eq!(&ta.overlapping, &tb.overlapping, "overlap snapshots diverged");
            let rx_a: Vec<_> = kernel::resolve_receptions(&mut link_a, ta, sense)
                .into_iter()
                .map(|r| (r.rx, r.rssi_dbm.to_bits()))
                .collect();
            let rx_b: Vec<_> = kernel::resolve_receptions(&mut link_b, tb, sense)
                .into_iter()
                .map(|r| (r.rx, r.rssi_dbm.to_bits()))
                .collect();
            prop_assert_eq!(rx_a, rx_b, "reception sampling diverged");
        }
    }
}
