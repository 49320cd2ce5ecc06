//! Conservative synchronization for sharded coupled runs.
//!
//! `vifi-runtime`'s sharded runs execute one simulation as a set of shards
//! that advance in lock-step **epochs**: every shard runs its own event
//! queue up to the next epoch boundary, then all shards meet at a barrier
//! where the shared services (medium, backplane, wired hand-offs) resolve
//! the epoch's cross-shard interactions in one canonically-sorted batch.
//! Two pieces live here because they are protocol-agnostic:
//!
//! * [`EpochSchedule`] — the deterministic sequence of epoch boundaries.
//!   The lower bound on how soon one shard's actions can affect another is
//!   the *sync quantum*; the schedule stretches it during windows in which
//!   the whole fleet is out of contact (derived by the runtime from
//!   `Scenario::contact_windows` plus beacon periodicity — vehicles out of
//!   mutual radio range cannot interact, so shards run free there).
//! * [`EpochBarrier`] — a reusable rendezvous for the worker threads of a
//!   parallel coupled run. Between waits, worker 0 acts as the
//!   coordinator and performs the serial barrier work; the barrier itself
//!   never touches simulation state, so it cannot perturb determinism.
//!
//! Determinism contract: the schedule is a pure function of its inputs
//! (never of the shard partition or worker count), and the barrier is
//! pure synchronization — which is what lets the runtime promise that a
//! coupled run's outcome is bit-identical at every worker count.

use std::sync::{Condvar, Mutex};

use crate::time::{SimDuration, SimTime, MICROS_PER_SEC};

/// Deterministic epoch-boundary schedule of a coupled sharded run.
///
/// Boundaries advance by `fine` (the sync quantum) inside *active*
/// second-ranges and by `coarse` outside them. Boundaries are aligned so
/// the schedule is a pure function of `(fine, coarse, active)` — two runs
/// that share those inputs cross identical boundaries regardless of how
/// many shards or workers execute them.
#[derive(Clone, Debug)]
pub struct EpochSchedule {
    fine: SimDuration,
    coarse: SimDuration,
    /// Sorted, disjoint `[start, end)` second ranges during which any
    /// cross-shard interaction is possible (fleet in or near contact).
    active: Vec<(u64, u64)>,
}

impl EpochSchedule {
    /// Schedule with the given quanta and active second-ranges. Ranges
    /// must be sorted and disjoint (the runtime derives them from contact
    /// windows, which guarantee both). `fine` and `coarse` must be
    /// positive; `coarse` is clamped up to at least `fine`. Zero-length
    /// ranges (`start == end`) describe no active second at all and are
    /// dropped — keeping them would let the quiet-mode clamp manufacture
    /// boundaries at seconds nothing is active in, and a degenerate range
    /// at the far end of a run must not perturb the grid before it.
    pub fn new(fine: SimDuration, coarse: SimDuration, active: Vec<(u64, u64)>) -> Self {
        assert!(!fine.is_zero(), "sync quantum must be positive");
        debug_assert!(
            active.windows(2).all(|w| w[0].1 <= w[1].0),
            "active ranges must be sorted and disjoint"
        );
        let active: Vec<(u64, u64)> = active.into_iter().filter(|&(a, b)| a < b).collect();
        let coarse = if coarse < fine { fine } else { coarse };
        EpochSchedule {
            fine,
            coarse,
            active,
        }
    }

    /// A schedule that treats the whole run as active: every boundary is
    /// one sync quantum apart. The conservative fallback for callers
    /// without any activity analysis — always sound, never stretched.
    pub fn uniform(fine: SimDuration) -> Self {
        Self::new(fine, fine, vec![(0, u64::MAX)])
    }

    /// The sync quantum (fine epoch length).
    pub fn quantum(&self) -> SimDuration {
        self.fine
    }

    /// True if the second containing `t` falls in an active range.
    fn is_active(&self, t: SimTime) -> bool {
        let sec = t.second_bin();
        // Ranges are few (contact windows per lap); linear scan is fine
        // and keeps the structure trivially auditable.
        self.active.iter().any(|&(a, b)| a <= sec && sec < b)
    }

    /// The first boundary strictly after `t` — or [`SimTime::MAX`] if the
    /// next grid point does not fit in the clock (the schedule saturates
    /// rather than wrapping; `MAX` is the far-deadline sentinel).
    ///
    /// Inside active seconds boundaries sit on the `fine` grid; outside
    /// they sit on the `coarse` grid, but never skip over the start of an
    /// upcoming active second (a shard must not free-run into a window
    /// where another shard's vehicles could reach it).
    pub fn boundary_after(&self, t: SimTime) -> SimTime {
        let step = if self.is_active(t) {
            self.fine
        } else {
            self.coarse
        };
        let us = t.as_micros();
        let step_us = step.as_micros();
        let mut next = (us / step_us)
            .checked_add(1)
            .and_then(|n| n.checked_mul(step_us))
            .map(SimTime::from_micros)
            .unwrap_or(SimTime::MAX);
        if !self.is_active(t) {
            // Clamp to the next active-range start so lookahead never
            // crosses into a window that needs fine synchronization. A
            // range starting past the clock's ceiling can never be
            // reached, so it never clamps.
            let sec = t.second_bin();
            if let Some(&(start, _)) = self.active.iter().find(|&&(a, _)| a > sec) {
                if let Some(start_us) = start.checked_mul(MICROS_PER_SEC) {
                    let active_start = SimTime::from_micros(start_us);
                    if active_start > t && active_start < next {
                        next = active_start;
                    }
                }
            }
        }
        next
    }

    /// Every boundary in `(0, horizon]`, in order — the runtime's barrier
    /// sequence. The final boundary is always `>= horizon` so the last
    /// epoch is complete. Strictly increasing by construction: if the
    /// grid saturates at [`SimTime::MAX`] before reaching `horizon`, the
    /// sequence ends there instead of looping on a boundary that cannot
    /// advance.
    pub fn boundaries(&self, horizon: SimTime) -> Vec<SimTime> {
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        while t < horizon {
            let next = self.boundary_after(t);
            if next <= t {
                break; // saturated at the end of representable time
            }
            t = next;
            out.push(t);
        }
        out
    }
}

/// A two-level epoch schedule for fleets that decompose into spatially
/// disjoint **clusters** (vehicles that never leave their own town or
/// campus). Every cluster runs its own [`EpochSchedule`] — fine quanta
/// while *it* is active, coarse quanta while it is quiet — and the whole
/// fleet meets only on the shared **coarse grid**. A cluster therefore
/// stops paying another cluster's barrier frequency: its shards cross
/// fine boundaries only for their own activity, yet no cross-cluster
/// interaction can be missed because anything that crosses clusters
/// (wired backplane traffic, scenario hand-offs) is deferred to the next
/// coarse boundary, where everyone synchronizes.
///
/// Nesting is structural, not checked at runtime: `fine` must divide
/// `coarse` and `coarse` must divide one second (active ranges are whole
/// seconds), so every coarse-grid instant is a boundary of every
/// cluster's schedule — fine epochs nest exactly inside coarse ones.
#[derive(Clone, Debug)]
pub struct HierarchicalSchedule {
    fine: SimDuration,
    coarse: SimDuration,
    clusters: Vec<EpochSchedule>,
}

impl HierarchicalSchedule {
    /// Build from per-cluster active second-ranges (same semantics as
    /// [`EpochSchedule::new`]). Panics unless `fine | coarse | 1 s` — the
    /// divisibility that makes every coarse instant a boundary of every
    /// cluster.
    pub fn new(
        fine: SimDuration,
        coarse: SimDuration,
        cluster_active: Vec<Vec<(u64, u64)>>,
    ) -> Self {
        assert!(!fine.is_zero(), "sync quantum must be positive");
        assert!(
            coarse.as_micros() % fine.as_micros() == 0,
            "fine quantum must divide the coarse quantum"
        );
        assert!(
            1_000_000 % coarse.as_micros() == 0,
            "coarse quantum must divide one second (active ranges are whole seconds)"
        );
        assert!(!cluster_active.is_empty(), "need at least one cluster");
        let clusters = cluster_active
            .into_iter()
            .map(|active| EpochSchedule::new(fine, coarse, active))
            .collect();
        HierarchicalSchedule {
            fine,
            coarse,
            clusters,
        }
    }

    /// Number of clusters.
    pub fn clusters(&self) -> usize {
        self.clusters.len()
    }

    /// The sync quantum shared by every cluster.
    pub fn quantum(&self) -> SimDuration {
        self.fine
    }

    /// Cluster `c`'s own boundary sequence over `(0, horizon]` — the
    /// barriers *its* shards cross.
    pub fn cluster_boundaries(&self, c: usize, horizon: SimTime) -> Vec<SimTime> {
        self.clusters[c].boundaries(horizon)
    }

    /// The fleet-level coarse grid over `(0, horizon]`: the instants at
    /// which every cluster synchronizes (each is a boundary of every
    /// cluster's schedule, by the divisibility contract).
    pub fn coarse_boundaries(&self, horizon: SimTime) -> Vec<SimTime> {
        let step = SimDuration::from_micros(self.coarse.as_micros());
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        while t < horizon {
            let next = t.saturating_add(step);
            if next <= t {
                break; // saturated at the end of representable time
            }
            t = next;
            out.push(t);
        }
        out
    }

    /// The union boundary sequence over `(0, horizon]` with, per
    /// boundary, the bitmask of clusters that stop there (bit `c` for
    /// cluster `c`; at most 64 clusters) and whether the boundary is on
    /// the fleet-level coarse grid.
    pub fn boundaries(&self, horizon: SimTime) -> Vec<(SimTime, u64, bool)> {
        assert!(self.clusters.len() <= 64, "cluster mask is 64 bits wide");
        use std::collections::BTreeMap;
        let mut union: BTreeMap<SimTime, u64> = BTreeMap::new();
        for (c, sched) in self.clusters.iter().enumerate() {
            for b in sched.boundaries(horizon) {
                *union.entry(b).or_insert(0) |= 1 << c;
            }
        }
        let coarse = self.coarse.as_micros();
        union
            .into_iter()
            .map(|(t, mask)| (t, mask, t.as_micros() % coarse == 0))
            .collect()
    }

    /// The flat single-level schedule the hierarchy replaces: fine quanta
    /// over the *union* of every cluster's active ranges, so all shards
    /// pay every cluster's barrier frequency. Comparison / fallback API.
    pub fn flat(&self) -> EpochSchedule {
        let mut edges: Vec<(u64, i64)> = Vec::new();
        for sched in &self.clusters {
            for &(a, b) in &sched.active {
                edges.push((a, 1));
                edges.push((b, -1));
            }
        }
        edges.sort_unstable();
        let mut active = Vec::new();
        let mut depth = 0i64;
        let mut start = 0u64;
        for (sec, delta) in edges {
            if depth == 0 && delta > 0 {
                start = sec;
            }
            depth += delta;
            if depth == 0 && delta < 0 {
                match active.last_mut() {
                    // Merge ranges that touch: [a,b) + [b,c) = [a,c).
                    Some(&mut (_, ref mut end)) if *end == start => *end = sec,
                    _ => active.push((start, sec)),
                }
            }
        }
        EpochSchedule::new(self.fine, self.coarse, active)
    }

    /// Total barrier *crossings* over `(0, horizon]`: each cluster pays
    /// one crossing per boundary of its own schedule. The flat equivalent
    /// pays `clusters() * flat().boundaries(horizon).len()` — the
    /// quantity the hierarchy strictly reduces whenever clusters have
    /// disjoint activity.
    pub fn total_crossings(&self, horizon: SimTime) -> usize {
        (0..self.clusters.len())
            .map(|c| self.cluster_boundaries(c, horizon).len())
            .sum()
    }
}

/// State shared by the participants of an [`EpochBarrier`].
struct BarrierState {
    /// Participants that have arrived in the current generation.
    arrived: usize,
    /// Generation counter; bumped when the last participant arrives.
    generation: u64,
}

/// A reusable N-participant rendezvous for coupled-run worker threads.
///
/// Pure synchronization: the last thread to arrive releases the rest and
/// learns it was last (its cue to run the serial coordinator section in
/// designs that want one). No simulation data flows through the barrier,
/// so it cannot introduce nondeterminism — only waiting.
pub struct EpochBarrier {
    participants: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

impl EpochBarrier {
    /// Barrier for `participants` threads (at least one).
    pub fn new(participants: usize) -> Self {
        assert!(participants >= 1, "barrier needs a participant");
        EpochBarrier {
            participants,
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Number of participating threads.
    pub fn participants(&self) -> usize {
        self.participants
    }

    /// Block until all participants have called `wait` for this
    /// generation. Returns `true` on exactly one participant per
    /// generation (the last to arrive).
    pub fn wait(&self) -> bool {
        let mut st = self.state.lock().expect("barrier poisoned");
        st.arrived += 1;
        if st.arrived == self.participants {
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cv.notify_all();
            true
        } else {
            let gen = st.generation;
            while st.generation == gen {
                st = self.cv.wait(st).expect("barrier poisoned");
            }
            false
        }
    }
}

/// The rendezvous counterpart of a [`HierarchicalSchedule`]: one global
/// barrier spanning every worker plus one sub-barrier per cluster.
/// Workers cross [`Self::wait_cluster`] at their cluster's fine-only
/// boundaries — only that cluster's workers meet, the rest of the fleet
/// keeps running — and [`Self::wait_global`] at coarse boundaries, where
/// the whole fleet synchronizes and cross-cluster effects may flow. Like
/// [`EpochBarrier`], pure synchronization: no simulation data passes
/// through it.
pub struct NestedEpochBarrier {
    global: EpochBarrier,
    clusters: Vec<EpochBarrier>,
}

impl NestedEpochBarrier {
    /// Barrier tree for clusters of the given sizes (each at least one
    /// participant; the global barrier spans their sum).
    pub fn new(cluster_sizes: &[usize]) -> Self {
        assert!(!cluster_sizes.is_empty(), "need at least one cluster");
        let total = cluster_sizes.iter().sum();
        NestedEpochBarrier {
            global: EpochBarrier::new(total),
            clusters: cluster_sizes
                .iter()
                .map(|&n| EpochBarrier::new(n))
                .collect(),
        }
    }

    /// Total participants across all clusters.
    pub fn participants(&self) -> usize {
        self.global.participants()
    }

    /// Participants in cluster `c`.
    pub fn cluster_participants(&self, c: usize) -> usize {
        self.clusters[c].participants()
    }

    /// Number of clusters.
    pub fn clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Rendezvous of cluster `c` only — a fine boundary that concerns no
    /// other cluster. Returns `true` on exactly one of the cluster's
    /// participants (its local leader for the serial cluster work).
    pub fn wait_cluster(&self, c: usize) -> bool {
        self.clusters[c].wait()
    }

    /// Fleet-wide rendezvous — a coarse boundary. Returns `true` on
    /// exactly one participant overall (the global leader).
    pub fn wait_global(&self) -> bool {
        self.global.wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn uniform_schedule_steps_by_quantum() {
        let s = EpochSchedule::uniform(SimDuration::from_millis(2));
        assert_eq!(s.boundary_after(SimTime::ZERO), ms(2));
        assert_eq!(s.boundary_after(ms(2)), ms(4));
        assert_eq!(s.boundary_after(SimTime::from_micros(2001)), ms(4));
        let bs = s.boundaries(ms(10));
        assert_eq!(bs, vec![ms(2), ms(4), ms(6), ms(8), ms(10)]);
    }

    #[test]
    fn quiet_ranges_stretch_epochs() {
        // Active in seconds [0,1) and [5,7): everything between free-runs
        // at the coarse quantum.
        let s = EpochSchedule::new(
            SimDuration::from_millis(1),
            SimDuration::from_millis(250),
            vec![(0, 1), (5, 7)],
        );
        assert_eq!(s.boundary_after(SimTime::ZERO), ms(1));
        // From inside the quiet gap: coarse steps…
        assert_eq!(s.boundary_after(SimTime::from_secs(2)), ms(2250));
        // …but never across the next active-range start.
        assert_eq!(s.boundary_after(ms(4900)), SimTime::from_secs(5));
        // Back inside an active second: fine again.
        assert_eq!(s.boundary_after(SimTime::from_secs(5)), ms(5001));
    }

    #[test]
    fn boundaries_cover_the_horizon() {
        let s = EpochSchedule::new(
            SimDuration::from_millis(1),
            SimDuration::from_millis(100),
            vec![(0, 2)],
        );
        let bs = s.boundaries(SimTime::from_secs(3));
        assert!(*bs.last().unwrap() >= SimTime::from_secs(3));
        // Strictly increasing, no duplicates.
        assert!(bs.windows(2).all(|w| w[0] < w[1]));
        // Fine inside the active seconds, coarse after.
        assert_eq!(bs[0], ms(1));
        assert!(bs.iter().filter(|&&b| b <= SimTime::from_secs(2)).count() >= 2000);
        assert!(bs.iter().filter(|&&b| b > SimTime::from_secs(2)).count() <= 11);
    }

    #[test]
    fn schedule_is_partition_free() {
        // The schedule depends only on its inputs — two instances agree
        // everywhere (the property coupled runs lean on).
        let a = EpochSchedule::new(
            SimDuration::from_millis(1),
            SimDuration::from_millis(50),
            vec![(3, 9)],
        );
        let b = EpochSchedule::new(
            SimDuration::from_millis(1),
            SimDuration::from_millis(50),
            vec![(3, 9)],
        );
        assert_eq!(
            a.boundaries(SimTime::from_secs(12)),
            b.boundaries(SimTime::from_secs(12))
        );
    }

    #[test]
    fn degenerate_inputs_keep_boundaries_monotone() {
        // Zero-length active ranges describe nothing; they must neither
        // make seconds active nor clamp quiet-mode lookahead to them.
        let s = EpochSchedule::new(
            SimDuration::from_millis(1),
            SimDuration::from_millis(250),
            vec![(0, 1), (3, 3), (5, 6)],
        );
        assert!(!s.is_active(SimTime::from_secs(3)));
        // From t=2 s the quiet clamp targets second 5 (the next real
        // range), not the empty (3,3).
        assert_eq!(s.boundary_after(SimTime::from_secs(2)), ms(2250));
        assert_eq!(s.boundary_after(ms(4990)), SimTime::from_secs(5));
        // coarse < fine clamps up to fine rather than producing a grid
        // finer than the sync quantum.
        let c = EpochSchedule::new(
            SimDuration::from_millis(10),
            SimDuration::from_millis(2),
            vec![],
        );
        assert_eq!(c.boundary_after(SimTime::ZERO), ms(10));
        // An active range spanning past the end of representable time is
        // fine: boundaries stay on the fine grid throughout.
        let e = EpochSchedule::new(
            SimDuration::from_millis(1),
            SimDuration::from_millis(50),
            vec![(0, u64::MAX)],
        );
        assert_eq!(e.boundary_after(SimTime::ZERO), ms(1));
    }

    #[test]
    fn schedule_saturates_at_the_end_of_time() {
        // Near SimTime::MAX the next grid point no longer fits in the
        // clock; boundary_after must saturate to MAX, not wrap to a
        // boundary in the past (which would hang `boundaries` forever).
        let s = EpochSchedule::uniform(SimDuration::from_micros(1));
        let near = SimTime::from_micros(u64::MAX - 1);
        assert_eq!(s.boundary_after(near), SimTime::MAX);
        assert_eq!(s.boundary_after(SimTime::MAX), SimTime::MAX);
        // A quiet schedule whose coarse step overshoots the clock ceiling
        // saturates the same way.
        let q = EpochSchedule::new(
            SimDuration::from_micros(1),
            SimDuration::from_secs(1_000_000),
            vec![],
        );
        assert_eq!(
            q.boundary_after(SimTime::from_micros(u64::MAX - 7)),
            SimTime::MAX
        );
        // And the boundary *sequence* over a horizon at the ceiling
        // terminates with MAX instead of looping on a stuck boundary
        // (quantum chosen so the sequence is short enough to enumerate).
        let big = EpochSchedule::uniform(SimDuration::from_micros(u64::MAX / 4));
        let bs = big.boundaries(SimTime::MAX);
        assert_eq!(bs.last(), Some(&SimTime::MAX));
        assert!(bs.windows(2).all(|w| w[0] < w[1]));
        let tail = EpochSchedule::uniform(SimDuration::MAX);
        let bs = tail.boundaries(SimTime::MAX);
        assert_eq!(bs, vec![SimTime::MAX]);
        // Hierarchical coarse grids hit the same ceiling safely.
        let h = HierarchicalSchedule::new(
            SimDuration::from_micros(1),
            SimDuration::from_micros(1),
            vec![vec![]],
        );
        let coarse = h.coarse_boundaries(SimTime::from_micros(3));
        assert_eq!(coarse.len(), 3);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// For arbitrary (possibly degenerate) quanta and active ranges —
        /// zero-length ranges, coarse < fine, ranges spanning the end of
        /// the clock — the schedule stays sound: `boundary_after` is
        /// strictly increasing below MAX, never exceeds one coarse step
        /// past its input, and the boundary sequence is strictly
        /// increasing, covers the horizon, and terminates.
        #[test]
        fn degenerate_schedules_stay_monotone(
            fine_us in 1u64..5_000,
            coarse_us in 0u64..1_000_000,
            ranges in proptest::collection::vec((0u64..30, 0u64..8), 0..6),
            far in proptest::prelude::any::<bool>(),
            probe_us in 0u64..40_000_000,
        ) {
            let mut active: Vec<(u64, u64)> = ranges
                .iter()
                .map(|&(a, len)| (a, a.saturating_add(len)))
                .collect();
            active.sort_unstable();
            active.dedup_by(|next, prev| {
                if next.0 <= prev.1 {
                    prev.1 = prev.1.max(next.1);
                    true
                } else {
                    false
                }
            });
            if far {
                let lo = active.last().map(|r| r.1.max(40)).unwrap_or(40);
                active.push((lo, u64::MAX)); // spans the end of the run
            }
            let s = EpochSchedule::new(
                SimDuration::from_micros(fine_us),
                SimDuration::from_micros(coarse_us),
                active,
            );
            let step_cap = SimDuration::from_micros(fine_us.max(coarse_us));

            let t = SimTime::from_micros(probe_us);
            let next = s.boundary_after(t);
            proptest::prop_assert!(next > t, "stuck at {t:?}");
            proptest::prop_assert!(next <= t.saturating_add(step_cap));
            // Saturation, not wrapping, at the clock's ceiling.
            let near = SimTime::from_micros(u64::MAX - 1);
            proptest::prop_assert!(s.boundary_after(near) > near);

            let horizon = SimTime::from_micros(probe_us / 4 + 1);
            let bs = s.boundaries(horizon);
            proptest::prop_assert!(!bs.is_empty());
            proptest::prop_assert!(*bs.last().unwrap() >= horizon);
            proptest::prop_assert!(bs[0] > SimTime::ZERO);
            proptest::prop_assert!(bs.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn barrier_releases_all_and_elects_one_leader() {
        let barrier = Arc::new(EpochBarrier::new(4));
        let leaders = Arc::new(AtomicUsize::new(0));
        let rounds = 50;
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let leaders = Arc::clone(&leaders);
                std::thread::spawn(move || {
                    for _ in 0..rounds {
                        if barrier.wait() {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("barrier participant panicked");
        }
        assert_eq!(leaders.load(Ordering::SeqCst), rounds);
    }

    #[test]
    fn single_participant_barrier_is_trivial() {
        let b = EpochBarrier::new(1);
        assert!(b.wait());
        assert!(b.wait());
        assert_eq!(b.participants(), 1);
    }

    /// A two-cluster hierarchy with disjoint activity: cluster 0 is busy
    /// in seconds [0,2), cluster 1 in [4,6).
    fn two_cluster() -> HierarchicalSchedule {
        HierarchicalSchedule::new(
            SimDuration::from_millis(10),
            SimDuration::from_millis(500),
            vec![vec![(0, 2)], vec![(4, 6)]],
        )
    }

    #[test]
    fn hierarchical_fine_epochs_nest_inside_coarse() {
        let h = two_cluster();
        let horizon = SimTime::from_secs(6);
        let coarse = h.coarse_boundaries(horizon);
        assert_eq!(*coarse.first().unwrap(), ms(500));
        assert!(*coarse.last().unwrap() >= horizon);
        // Every coarse instant is a boundary of every cluster — fine
        // epochs nest exactly inside coarse ones, with no straddling.
        for c in 0..h.clusters() {
            let cluster: std::collections::HashSet<SimTime> =
                h.cluster_boundaries(c, horizon).into_iter().collect();
            for &b in &coarse {
                assert!(
                    cluster.contains(&b),
                    "cluster {c} misses coarse boundary {b:?}"
                );
            }
        }
        // The union view agrees: a coarse-grid entry carries every
        // cluster in its mask; fine-only entries belong to one cluster.
        for (t, mask, is_coarse) in h.boundaries(horizon) {
            if is_coarse {
                assert_eq!(mask, 0b11, "all clusters stop at {t:?}");
            } else {
                assert_eq!(mask.count_ones(), 1, "fine boundary {t:?} is private");
            }
        }
    }

    #[test]
    fn hierarchy_strictly_cuts_barrier_crossings_for_disjoint_clusters() {
        let h = two_cluster();
        let horizon = SimTime::from_secs(6);
        let flat = h.flat();
        let flat_crossings = h.clusters() * flat.boundaries(horizon).len();
        let nested_crossings = h.total_crossings(horizon);
        assert!(
            nested_crossings < flat_crossings,
            "hierarchy must beat the flat schedule: {nested_crossings} vs {flat_crossings}"
        );
        // The flat schedule pays both clusters' fine windows everywhere;
        // each cluster alone pays only its own (plus the coarse grid).
        let fine_per_active_window = 200; // 2 s of 10 ms quanta
        assert!(flat.boundaries(horizon).len() >= 2 * fine_per_active_window);
        for c in 0..h.clusters() {
            assert!(h.cluster_boundaries(c, horizon).len() < 2 * fine_per_active_window);
        }
    }

    /// Stress the nested barrier the way a hierarchical engine would use
    /// it: each cluster's workers cross their own fine boundaries alone
    /// and meet the rest of the fleet only on the coarse grid. The global
    /// leader asserts, at every coarse rendezvous, that each cluster has
    /// crossed exactly its scheduled number of fine-only boundaries — a
    /// deterministic value, which proves no cross-cluster observation
    /// ever happened at a fine-only boundary (it would race and the exact
    /// count could not hold across 100 runs of the loop, let alone one).
    #[test]
    fn nested_barrier_confines_fine_sync_to_one_cluster() {
        let h = Arc::new(two_cluster());
        let horizon = SimTime::from_secs(6);
        let coarse_us = 500_000u64;
        let workers_per_cluster = 2;
        let barrier = Arc::new(NestedEpochBarrier::new(&[workers_per_cluster; 2]));
        assert_eq!(barrier.participants(), 4);
        assert_eq!(barrier.clusters(), 2);
        // fine_count[c]: fine-only boundaries cluster c has fully crossed.
        let fine_count: Arc<Vec<AtomicUsize>> =
            Arc::new((0..2).map(|_| AtomicUsize::new(0)).collect());
        // Expected fine-only crossings per cluster strictly before t.
        fn expected(h: &HierarchicalSchedule, horizon: SimTime, c: usize, t: SimTime) -> usize {
            h.cluster_boundaries(c, horizon)
                .iter()
                .filter(|b| **b < t && b.as_micros() % 500_000 != 0)
                .count()
        }
        let handles: Vec<_> = (0..2)
            .flat_map(|c| (0..workers_per_cluster).map(move |_| c))
            .map(|c| {
                let h = Arc::clone(&h);
                let barrier = Arc::clone(&barrier);
                let fine_count = Arc::clone(&fine_count);
                std::thread::spawn(move || {
                    for b in h.cluster_boundaries(c, horizon) {
                        if b.as_micros() % coarse_us == 0 {
                            if barrier.wait_global() {
                                for other in 0..2 {
                                    assert_eq!(
                                        fine_count[other].load(Ordering::SeqCst),
                                        expected(&h, horizon, other, b),
                                        "cluster {other} out of step at coarse boundary {b:?}"
                                    );
                                }
                            }
                            barrier.wait_global(); // release after the check
                        } else {
                            if barrier.wait_cluster(c) {
                                fine_count[c].fetch_add(1, Ordering::SeqCst);
                            }
                            barrier.wait_cluster(c); // cluster-local release
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("nested barrier worker panicked");
        }
        // Both clusters really did cross fine-only boundaries (the test
        // exercised private synchronization, not just the coarse grid).
        for c in 0..2 {
            assert!(fine_count[c].load(Ordering::SeqCst) > 100);
        }
    }
}
