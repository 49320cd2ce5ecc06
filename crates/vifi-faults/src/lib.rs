//! Seeded, deterministic fault injection for ViFi fleet runs.
//!
//! A [`FaultPlan`] is a pre-computed schedule of infrastructure failures —
//! basestation crash/restart windows, backplane partitions, backplane
//! latency/loss spikes, beacon suppression, and wired-path outages —
//! synthesized from a single fault-intensity knob the same way the
//! DieselNet testbed synthesizes bus mobility from a seed: every draw
//! comes from a forked [`Rng`] stream keyed by `(seed, fault kind,
//! target)`, so the plan is a pure function of its inputs and identical
//! across shard counts and worker threads.
//!
//! The plan is *data*, not behaviour: the runtime consumes it through
//! pure queries of `(node, time)` — [`FaultPlan::bs_down`],
//! [`FaultPlan::partitioned`], [`FaultPlan::spike_at`], … — which is what
//! makes faulted runs bit-identical across execution strategies. The only
//! stateful machinery a faulted run needs is the restart event at the end
//! of each crash window (the runtime schedules those up front from
//! [`FaultPlan::crash_windows`]).

use std::collections::{BTreeMap, BTreeSet};

use vifi_phy::gilbert::GeParams;
use vifi_phy::gray::GrayParams;
use vifi_phy::NodeId;
use vifi_sim::{Rng, SimDuration, SimTime};

/// A half-open fault window `[start, end)` in simulation time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Window {
    /// First faulted instant.
    pub start: SimTime,
    /// First healthy instant again.
    pub end: SimTime,
}

impl Window {
    /// Does this window cover `t`?
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    /// Window length.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// A backplane partition: for the duration of `window`, every backplane
/// message to or from a severed basestation is lost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// When the partition holds.
    pub window: Window,
    /// The basestations cut off from the rest of the backplane.
    pub severed: BTreeSet<NodeId>,
}

/// A backplane degradation episode: extra latency and a loss probability
/// applied to every backplane message sent inside `window`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spike {
    /// When the spike holds.
    pub window: Window,
    /// Added one-way latency.
    pub extra_latency: SimDuration,
    /// Per-message loss probability in `[0, 1]`.
    pub loss: f64,
}

/// Scenario-level channel-process overrides, carried alongside the fault
/// plan in `RunConfig`: replace the default gray-period and fading
/// parameters of the link model for this run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChannelOverrides {
    /// Override the gray-period process ([`GrayParams`]).
    pub gray: Option<GrayParams>,
    /// Override the Gilbert–Elliott fading process ([`GeParams`]).
    pub ge: Option<GeParams>,
}

impl ChannelOverrides {
    /// True when no override is set (the scenario's defaults apply).
    pub fn is_empty(&self) -> bool {
        self.gray.is_none() && self.ge.is_none()
    }
}

/// A deterministic, per-seed schedule of infrastructure faults.
///
/// All per-target window lists are sorted by start and non-overlapping
/// (enforced by construction in [`FaultPlan::synthesize`] and asserted by
/// the property suite).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Basestation crash windows: the BS is fully down (no beaconing, no
    /// reception, no backplane) and restarts with fresh protocol state at
    /// the end of each window.
    pub bs_crashes: BTreeMap<NodeId, Vec<Window>>,
    /// Beacon-suppression windows: the node stays up but its beacons are
    /// not transmitted (a failing radio / management-plane fault).
    pub beacon_suppressions: BTreeMap<NodeId, Vec<Window>>,
    /// Wired-path outages: the vehicle's wired application path (the
    /// Internet side of its connection) is severed.
    pub wired_outages: BTreeMap<NodeId, Vec<Window>>,
    /// Backplane partitions, sorted by window start.
    pub bp_partitions: Vec<Partition>,
    /// Backplane latency/loss spikes, sorted by window start.
    pub bp_spikes: Vec<Spike>,
}

/// Per-kind synthesis pacing: mean seconds of horizon per fault event at
/// full intensity. Smaller = more frequent.
const CRASH_PACE_SECS: f64 = 90.0;
const SUPPRESS_PACE_SECS: f64 = 120.0;
const WIRED_PACE_SECS: f64 = 150.0;
const PARTITION_PACE_SECS: f64 = 100.0;
const SPIKE_PACE_SECS: f64 = 80.0;

impl FaultPlan {
    /// Synthesize a plan from a fault-intensity knob in `[0, 1]`, the way
    /// `bus_schedules` synthesizes mobility: a fresh forked RNG stream per
    /// fault kind and target, with draws in a fixed order. Intensity `0`
    /// produces the empty plan; higher intensities produce more and
    /// longer fault windows. The plan is a pure function of
    /// `(intensity, seed, bs_ids, vehicle_ids, horizon)`.
    pub fn synthesize(
        intensity: f64,
        seed: u64,
        bs_ids: &[NodeId],
        vehicle_ids: &[NodeId],
        horizon: SimDuration,
    ) -> FaultPlan {
        let intensity = intensity.clamp(0.0, 1.0);
        if intensity <= 0.0 || horizon.as_micros() == 0 {
            return FaultPlan::default();
        }
        let root = Rng::new(seed).fork_named("fault-plan");
        let mut plan = FaultPlan::default();

        for &bs in bs_ids {
            let mut rng = root.fork_named("bs-crash").fork(bs.label());
            let windows = windows_for(&mut rng, intensity, horizon, CRASH_PACE_SECS, 10.0, 25.0);
            if !windows.is_empty() {
                plan.bs_crashes.insert(bs, windows);
            }
        }
        for &bs in bs_ids {
            let mut rng = root.fork_named("beacon-suppress").fork(bs.label());
            let windows = windows_for(&mut rng, intensity, horizon, SUPPRESS_PACE_SECS, 2.0, 8.0);
            if !windows.is_empty() {
                plan.beacon_suppressions.insert(bs, windows);
            }
        }
        for &v in vehicle_ids {
            let mut rng = root.fork_named("wired-outage").fork(v.label());
            let windows = windows_for(&mut rng, intensity, horizon, WIRED_PACE_SECS, 3.0, 12.0);
            if !windows.is_empty() {
                plan.wired_outages.insert(v, windows);
            }
        }
        if !bs_ids.is_empty() {
            let mut rng = root.fork_named("bp-partition");
            let windows = windows_for(&mut rng, intensity, horizon, PARTITION_PACE_SECS, 4.0, 15.0);
            for window in windows {
                // Sever a non-empty strict-minority subset of the BSes
                // (severing everything would just be a global outage).
                let cut = 1 + rng.below(bs_ids.len().div_ceil(2).max(1) as u64) as usize;
                let mut severed = BTreeSet::new();
                let mut pool: Vec<NodeId> = bs_ids.to_vec();
                for _ in 0..cut.min(pool.len()) {
                    let i = rng.below(pool.len() as u64) as usize;
                    severed.insert(pool.swap_remove(i));
                }
                plan.bp_partitions.push(Partition { window, severed });
            }
        }
        {
            let mut rng = root.fork_named("bp-spike");
            let windows = windows_for(&mut rng, intensity, horizon, SPIKE_PACE_SECS, 2.0, 10.0);
            for window in windows {
                let extra_latency = SimDuration::from_micros(rng.below(60_000) + 20_000);
                let loss = 0.2 + 0.5 * intensity * rng.next_f64();
                plan.bp_spikes.push(Spike {
                    window,
                    extra_latency,
                    loss,
                });
            }
        }
        plan
    }

    /// A churn-only plan: crash/restart windows for the basestations,
    /// nothing else. Used by the BS-outage robustness sweeps, where the
    /// question is purely "what does losing infrastructure cost?".
    pub fn synthesize_bs_churn(
        intensity: f64,
        seed: u64,
        bs_ids: &[NodeId],
        horizon: SimDuration,
    ) -> FaultPlan {
        let full = FaultPlan::synthesize(intensity, seed, bs_ids, &[], horizon);
        FaultPlan {
            bs_crashes: full.bs_crashes,
            ..FaultPlan::default()
        }
    }

    /// A hand-built plan taking down a single basestation for one window
    /// (failover regression tests).
    pub fn bs_outage(bs: NodeId, window: Window) -> FaultPlan {
        let mut plan = FaultPlan::default();
        plan.bs_crashes.insert(bs, vec![window]);
        plan
    }

    /// True when the plan schedules nothing (the unfaulted fast path).
    pub fn is_empty(&self) -> bool {
        self.bs_crashes.is_empty()
            && self.beacon_suppressions.is_empty()
            && self.wired_outages.is_empty()
            && self.bp_partitions.is_empty()
            && self.bp_spikes.is_empty()
    }

    /// Is basestation `n` crashed at `t`?
    pub fn bs_down(&self, n: NodeId, t: SimTime) -> bool {
        in_windows(self.bs_crashes.get(&n), t)
    }

    /// Is `n`'s beaconing suppressed at `t`? (Crashed implies suppressed.)
    pub fn beacon_suppressed(&self, n: NodeId, t: SimTime) -> bool {
        in_windows(self.beacon_suppressions.get(&n), t) || self.bs_down(n, t)
    }

    /// Is vehicle `v`'s wired application path out at `t`?
    pub fn wired_out(&self, v: NodeId, t: SimTime) -> bool {
        in_windows(self.wired_outages.get(&v), t)
    }

    /// Is the backplane path `from → to` severed by a partition at `t`?
    pub fn partitioned(&self, from: NodeId, to: NodeId, t: SimTime) -> bool {
        self.bp_partitions
            .iter()
            .any(|p| p.window.contains(t) && (p.severed.contains(&from) != p.severed.contains(&to)))
    }

    /// The backplane spike in force at `t`, if any. When several overlap
    /// the earliest-starting one wins (a fixed, order-independent rule).
    pub fn spike_at(&self, t: SimTime) -> Option<Spike> {
        self.bp_spikes
            .iter()
            .find(|s| s.window.contains(t))
            .copied()
    }

    /// Crash windows for `n`, sorted by start (restart scheduling).
    pub fn crash_windows(&self, n: NodeId) -> &[Window] {
        self.bs_crashes.get(&n).map(Vec::as_slice).unwrap_or(&[])
    }
}

fn in_windows(windows: Option<&Vec<Window>>, t: SimTime) -> bool {
    windows
        .map(|ws| ws.iter().any(|w| w.contains(t)))
        .unwrap_or(false)
}

/// Draw a sorted, non-overlapping window list: the horizon is divided
/// into `count` equal slots (one window per slot, jittered within it),
/// where `count = ceil(intensity · horizon / pace)`. Confining each
/// window to its slot guarantees ordering and disjointness by
/// construction, and `count` is monotone in intensity.
fn windows_for(
    rng: &mut Rng,
    intensity: f64,
    horizon: SimDuration,
    pace_secs: f64,
    min_dur_secs: f64,
    max_dur_secs: f64,
) -> Vec<Window> {
    let horizon_s = horizon.as_secs_f64();
    let count = (intensity * horizon_s / pace_secs).ceil() as usize;
    if count == 0 {
        return Vec::new();
    }
    let slot = horizon_s / count as f64;
    let mut windows = Vec::with_capacity(count);
    for i in 0..count {
        let slot_start = i as f64 * slot;
        let start = slot_start + rng.next_f64() * 0.5 * slot;
        let dur = rng
            .range_f64(min_dur_secs, max_dur_secs)
            .min(0.4 * slot)
            .max(0.05 * slot);
        windows.push(Window {
            start: SimTime::from_secs_f64(start),
            end: SimTime::from_secs_f64(start + dur),
        });
    }
    windows
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(range: std::ops::Range<u32>) -> Vec<NodeId> {
        range.map(NodeId).collect()
    }

    fn label_all(plan: &FaultPlan) -> Vec<(u32, Window)> {
        let mut out = Vec::new();
        for (n, ws) in &plan.bs_crashes {
            out.extend(ws.iter().map(|w| (n.0, *w)));
        }
        out
    }

    #[test]
    fn intensity_zero_is_the_empty_plan() {
        let plan =
            FaultPlan::synthesize(0.0, 7, &ids(0..4), &ids(4..8), SimDuration::from_secs(300));
        assert!(plan.is_empty());
        assert_eq!(plan, FaultPlan::default());
    }

    #[test]
    fn positive_intensity_schedules_faults_even_on_short_horizons() {
        // ceil() pacing: a 15 s equivalence-suite run still gets at least
        // one crash window per BS at moderate intensity.
        let plan =
            FaultPlan::synthesize(0.6, 11, &ids(0..4), &ids(4..8), SimDuration::from_secs(15));
        assert!(!plan.is_empty());
        for bs in ids(0..4) {
            assert!(
                !plan.crash_windows(bs).is_empty(),
                "BS {bs:?} should get a crash window"
            );
        }
    }

    #[test]
    fn queries_match_windows() {
        let w = Window {
            start: SimTime::from_secs(10),
            end: SimTime::from_secs(20),
        };
        let plan = FaultPlan::bs_outage(NodeId(2), w);
        assert!(!plan.bs_down(NodeId(2), SimTime::from_secs(9)));
        assert!(plan.bs_down(NodeId(2), SimTime::from_secs(10)));
        assert!(plan.bs_down(NodeId(2), SimTime::from_secs(19)));
        assert!(
            !plan.bs_down(NodeId(2), SimTime::from_secs(20)),
            "half-open"
        );
        assert!(!plan.bs_down(NodeId(1), SimTime::from_secs(15)));
        // A crashed BS is also beacon-suppressed.
        assert!(plan.beacon_suppressed(NodeId(2), SimTime::from_secs(15)));
    }

    #[test]
    fn partitions_cut_only_cross_boundary_paths() {
        let mut plan = FaultPlan::default();
        plan.bp_partitions.push(Partition {
            window: Window {
                start: SimTime::from_secs(5),
                end: SimTime::from_secs(10),
            },
            severed: [NodeId(0)].into_iter().collect(),
        });
        let t = SimTime::from_secs(7);
        assert!(plan.partitioned(NodeId(0), NodeId(1), t));
        assert!(plan.partitioned(NodeId(1), NodeId(0), t));
        assert!(!plan.partitioned(NodeId(1), NodeId(2), t), "same side");
        assert!(!plan.partitioned(NodeId(0), NodeId(0), t), "same node");
        assert!(!plan.partitioned(NodeId(0), NodeId(1), SimTime::from_secs(11)));
    }

    proptest! {
        /// Per-seed determinism: the same inputs always synthesize the
        /// same plan.
        #[test]
        fn synthesis_is_a_pure_function_of_its_inputs(
            seed in 0u64..1_000_000,
            intensity in 0.0f64..1.0,
            horizon_s in 1u64..2000,
        ) {
            let bs = ids(0..5);
            let veh = ids(5..9);
            let h = SimDuration::from_secs(horizon_s);
            let a = FaultPlan::synthesize(intensity, seed, &bs, &veh, h);
            let b = FaultPlan::synthesize(intensity, seed, &bs, &veh, h);
            prop_assert_eq!(&a, &b);
            // And a different seed at real intensity differs (the stream
            // is actually keyed by the seed).
            if intensity > 0.2 {
                let c = FaultPlan::synthesize(intensity, seed ^ 0xDEAD_BEEF, &bs, &veh, h);
                prop_assert_ne!(&a, &c);
            }
        }

        /// Every per-target window list is sorted by start and
        /// non-overlapping, and all windows fit the horizon's slot grid.
        #[test]
        fn windows_are_sorted_and_disjoint_per_target(
            seed in 0u64..1_000_000,
            intensity in 0.0f64..1.0,
            horizon_s in 1u64..2000,
        ) {
            let h = SimDuration::from_secs(horizon_s);
            let plan = FaultPlan::synthesize(intensity, seed, &ids(0..5), &ids(5..9), h);
            let lists: Vec<&Vec<Window>> = plan
                .bs_crashes
                .values()
                .chain(plan.beacon_suppressions.values())
                .chain(plan.wired_outages.values())
                .collect();
            let partition_windows: Vec<Window> =
                plan.bp_partitions.iter().map(|p| p.window).collect();
            let spike_windows: Vec<Window> =
                plan.bp_spikes.iter().map(|s| s.window).collect();
            for ws in lists
                .into_iter()
                .chain([&partition_windows, &spike_windows])
            {
                for w in ws {
                    prop_assert!(w.start < w.end, "non-empty window");
                }
                for pair in ws.windows(2) {
                    prop_assert!(pair[0].end <= pair[1].start,
                        "sorted, non-overlapping: {:?}", pair);
                }
            }
        }

        /// Intensity 0 is the empty plan for any seed and population.
        #[test]
        fn zero_intensity_is_always_empty(
            seed in 0u64..1_000_000,
            horizon_s in 1u64..2000,
        ) {
            let plan = FaultPlan::synthesize(
                0.0, seed, &ids(0..5), &ids(5..9),
                SimDuration::from_secs(horizon_s),
            );
            prop_assert!(plan.is_empty());
        }

        /// More intensity never means fewer scheduled crash windows.
        #[test]
        fn crash_count_is_monotone_in_intensity(
            seed in 0u64..1_000_000,
            horizon_s in 10u64..2000,
        ) {
            let bs = ids(0..4);
            let h = SimDuration::from_secs(horizon_s);
            let mut prev = 0usize;
            for step in 0..=4 {
                let intensity = step as f64 / 4.0;
                let plan = FaultPlan::synthesize(intensity, seed, &bs, &[], h);
                let count = label_all(&plan).len();
                prop_assert!(count >= prev,
                    "intensity {} gave {} < {}", intensity, count, prev);
                prev = count;
            }
        }
    }
}
