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
//!   frame's receptions, bit for bit;
//! * **exact placement** — placing a batch from its probe answers
//!   reproduces a carrier-sense scan that asks `quality_hint` directly,
//!   and probing only contact candidates places exactly like probing
//!   every pair.

use proptest::prelude::*;
use vifi_mac::medium::kernel;
use vifi_mac::{
    Frame, MacParams, Placement, Reception, ResolvableTx, SharedMediumService, TxRequest,
};
use vifi_phy::link::{LinkModel, LossSeries, TraceLinkModel};
use vifi_phy::{ContactSecond, NodeId, NodeKind};
use vifi_sim::{Rng, SimDuration, SimTime};

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

/// Place one batch the way a barrier does: plan the probes against
/// `contacts` (the link's own lists for `at`'s second when `None`), answer
/// them at `at`, place.
fn place(
    med: &mut SharedMediumService<u32>,
    link: &TraceLinkModel,
    requests: Vec<TxRequest<u32>>,
    at: SimTime,
    contacts: Option<&ContactSecond>,
) -> Vec<Placement> {
    let sense = med.params().sense_threshold;
    let own = link.contacts(at.second_bin());
    let probes = med.plan_probes(&requests, at, contacts.unwrap_or(&own));
    let audible: Vec<bool> = (0..probes.len())
        .map(|k| probes.eval(k, at, link, sense))
        .collect();
    med.place(requests, at, &probes, &audible)
}

/// Every receiver of `tx` the kernel lets hear it, in the model's node
/// order.
fn receptions(link: &mut TraceLinkModel, tx: &ResolvableTx<u32>, sense: f64) -> Vec<Reception> {
    let nodes: Vec<NodeId> = link.nodes().iter().map(|&(id, _)| id).collect();
    nodes
        .into_iter()
        .filter_map(|rx| kernel::sample_reception(link, tx, rx, sense))
        .collect()
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
    let _ = place(&mut med, &link, requests, SimTime::ZERO, None);
    let resolvable = med.drain_resolvable(SimTime::MAX);
    resolvable
        .iter()
        .map(|tx| {
            let rx = receptions(&mut link, tx, sense);
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
            let _ = place(
                &mut med,
                &link,
                vec![TxRequest { frame: Frame::new(probe, size, 0), t_req: SimTime::ZERO }],
                SimTime::ZERO,
                None,
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
                let _ = place(&mut med, &link, reqs, at, None);
            }
            let resolvable = med.drain_resolvable(SimTime::MAX);
            let tx = resolvable
                .iter()
                .find(|t| t.frame.src == probe)
                .expect("probe frame resolves")
                .clone();
            let rx = receptions(&mut link, &tx, sense);
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

/// The two batches of the placement properties: batch 1 (every node,
/// staggered arrivals, 1500-byte frames that stay on the air for about
/// 12 ms each) placed at time zero, then batch 2 (the nodes picked by
/// `pick`) at `at`, when some of batch 1's windows may still be live.
fn two_batches(n: u32, pick: &[bool], at: SimTime) -> (Vec<TxRequest<u32>>, Vec<TxRequest<u32>>) {
    let first = (0..n)
        .map(|i| TxRequest {
            frame: Frame::new(NodeId(i), 1500, i),
            t_req: SimTime::from_micros(i as u64),
        })
        .collect();
    let second = (0..n)
        .filter(|&i| pick[i as usize])
        .map(|i| TxRequest {
            frame: Frame::new(NodeId(i), 400 + 30 * i, 100 + i),
            t_req: at + SimDuration::from_micros(i as u64),
        })
        .collect();
    (first, second)
}

/// The reference [`SharedMediumService::place`] must reproduce: a
/// carrier-sense scan that asks `quality_hint` at the barrier instant
/// about every other window still on the air and defers past the latest
/// audible one. Valid for `cw_slots: 1`, where every backoff draw is
/// zero. `windows` holds `(src, end)` of everything placed so far and
/// grows with the batch.
fn reference_place(
    windows: &mut Vec<(NodeId, SimTime)>,
    requests: &[TxRequest<u32>],
    at: SimTime,
    link: &dyn LinkModel,
    params: &MacParams,
) -> Vec<(SimTime, SimTime)> {
    assert_eq!(params.cw_slots, 1, "the reference draws no backoff");
    requests
        .iter()
        .map(|r| {
            let src = r.frame.src;
            let mut free = at;
            for &(w, end) in windows.iter() {
                if end > at
                    && w != src
                    && end > free
                    && link.quality_hint(w, src, at) > params.sense_threshold
                {
                    free = end;
                }
            }
            let start = free + params.difs;
            let end = start + params.airtime(r.frame.size_bytes);
            windows.push((src, end));
            (start, end)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With zero backoff, placing from the probe answers equals the
    /// reference `quality_hint` scan, window for window, for a first batch
    /// on an idle medium and for a second batch that has to sense the
    /// first one's still-live windows (after the drain at the second
    /// barrier, as in a run). Handles are issued in batch order.
    #[test]
    fn placement_matches_the_quality_hint_scan(
        topo in topology_strategy(),
        seed in 1u64..10_000,
        gap_us in 500u64..40_000,
        pick in proptest::collection::vec(any::<bool>(), 7..=7),
    ) {
        let link = build_link(&topo, seed);
        let params = MacParams { cw_slots: 1, ..MacParams::default() };
        let mut med: SharedMediumService<u32> = SharedMediumService::new(params, &Rng::new(seed));
        let at = SimTime::from_micros(gap_us);
        let (first, second) = two_batches(topo.n, &pick, at);
        let mut windows = Vec::new();
        let mut issued = 0u64;
        for (batch, at) in [(first, SimTime::ZERO), (second, at)] {
            let _ = med.drain_resolvable(at);
            let want = reference_place(&mut windows, &batch, at, &link, &params);
            let got = place(&mut med, &link, batch, at, None);
            prop_assert_eq!(
                got.iter().map(|p| (p.start, p.end)).collect::<Vec<_>>(),
                want,
                "placement diverged from the quality_hint scan at {:?}",
                at
            );
            for p in &got {
                prop_assert_eq!(p.handle.raw(), issued);
                issued += 1;
            }
        }
        prop_assert_eq!(med.tx_count, issued);
    }

    /// Planning probes only between contact candidates places a batch
    /// exactly like the complete plan at default parameters (real
    /// backoff draws): every skipped probe would have answered "not
    /// audible". Placements, overlap snapshots and sampled receptions
    /// agree bit for bit.
    #[test]
    fn candidate_probes_place_like_the_complete_plan(
        topo in topology_strategy(),
        seed in 1u64..10_000,
        gap_us in 500u64..40_000,
        pick in proptest::collection::vec(any::<bool>(), 7..=7),
    ) {
        let at = SimTime::from_micros(gap_us);
        let (first, second) = two_batches(topo.n, &pick, at);
        let sense = MacParams::default().sense_threshold;
        let run = |complete: bool| {
            let mut link = build_link(&topo, seed);
            let mut med: SharedMediumService<u32> =
                SharedMediumService::new(MacParams::default(), &Rng::new(seed));
            let _ = place(&mut med, &link, first.clone(), SimTime::ZERO, None);
            let _ = med.drain_resolvable(at);
            let ids: Vec<NodeId> = link.nodes().iter().map(|&(id, _)| id).collect();
            let contacts = if complete {
                ContactSecond::complete(at.second_bin(), &ids)
            } else {
                link.contacts(at.second_bin())
            };
            let probes = med.plan_probes(&second, at, &contacts).len();
            let placed: Vec<_> = place(&mut med, &link, second.clone(), at, Some(&contacts))
                .iter()
                .map(|p| (p.handle, p.start, p.end))
                .collect();
            let resolved: Vec<_> = med
                .drain_resolvable(SimTime::MAX)
                .iter()
                .map(|tx| {
                    let rx: Vec<_> = receptions(&mut link, tx, sense)
                        .into_iter()
                        .map(|r| (r.rx, r.rssi_dbm.to_bits()))
                        .collect();
                    (tx.handle, tx.overlapping.clone(), rx)
                })
                .collect();
            (probes, placed, resolved)
        };
        let (pruned, placed_a, resolved_a) = run(false);
        let (full, placed_b, resolved_b) = run(true);
        prop_assert!(pruned <= full);
        prop_assert_eq!(placed_a, placed_b, "placements diverged");
        prop_assert_eq!(resolved_a, resolved_b, "resolution diverged");
    }
}
