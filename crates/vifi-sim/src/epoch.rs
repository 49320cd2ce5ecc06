//! Conservative synchronization for sharded coupled runs.
//!
//! `vifi-runtime`'s sharded runs execute one simulation as a set of shards
//! that advance in lock-step **epochs**: every shard runs its own event
//! queue up to the next epoch boundary, then all shards meet at a barrier
//! where the shared services (medium, backplane, wired hand-offs) resolve
//! the epoch's cross-shard interactions in one canonically-sorted batch.
//! These pieces live here because they are protocol-agnostic:
//!
//! * [`EpochSchedule`] — the deterministic sequence of epoch boundaries.
//!   The lower bound on how soon one shard's actions can affect another is
//!   the *sync quantum*; the schedule stretches it during windows in which
//!   a contact cluster is out of contact (derived by the runtime from the
//!   scenario's contact analysis plus beacon periodicity — vehicles out of
//!   mutual radio range cannot interact, so shards run free there).
//! * [`HierarchicalSchedule`] — one such schedule per radio-disjoint
//!   cluster on a shared coarse grid, walked lazily by [`BoundaryWalk`].
//! * [`EpochBarrier`] and [`NestedEpochBarrier`] — reusable rendezvous
//!   for the worker threads of a parallel coupled run. The last worker to
//!   arrive performs the serial barrier work; the barrier itself never
//!   touches simulation state, so it cannot perturb determinism. A worker
//!   that panics aborts the barrier through its [`AbortOnUnwind`] guard,
//!   so the others panic out of their waits instead of parking forever.
//!
//! Determinism contract: the schedule is a pure function of its inputs
//! (never of the shard partition or worker count), and the barrier is
//! pure synchronization — which is what lets the runtime promise that a
//! coupled run's outcome is bit-identical at every worker count.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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
        HierarchicalSchedule { coarse, clusters }
    }

    /// Number of clusters.
    pub fn clusters(&self) -> usize {
        self.clusters.len()
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

    /// Walk the union of every cluster's boundary sequence over
    /// `(0, horizon]` lazily, one stop at a time — the engine's barrier
    /// sequence. Nothing is materialized, so the walk costs the same for
    /// any cluster count and any horizon.
    pub fn walk(&self, horizon: SimTime) -> BoundaryWalk<'_> {
        let first = |s: &EpochSchedule| {
            let b = s.boundary_after(SimTime::ZERO);
            (horizon > SimTime::ZERO && b > SimTime::ZERO).then_some(b)
        };
        BoundaryWalk {
            schedule: self,
            horizon,
            next: self.clusters.iter().map(first).collect(),
            due: Vec::new(),
            rendezvous: false,
        }
    }
}

/// A lazy walk over a [`HierarchicalSchedule`]: each stop is the
/// earliest next boundary of any cluster, and the clusters *due* there
/// are those whose own sequence stops at that instant. Cluster `c`'s
/// stops are exactly [`HierarchicalSchedule::cluster_boundaries`]`(c,
/// horizon)`; the walk ends once every cluster has passed the horizon.
///
/// A stop is a **rendezvous** — the whole fleet synchronizes and
/// cross-cluster (backplane) effects may flow — on the coarse grid, at
/// the final stop, and at every stop of a one-cluster schedule (the
/// whole fleet stops at each of its boundaries). The cadence is therefore
/// a function of the decomposition, never a knob.
#[derive(Clone, Debug)]
pub struct BoundaryWalk<'a> {
    schedule: &'a HierarchicalSchedule,
    horizon: SimTime,
    /// Each cluster's next boundary; `None` once its sequence has ended.
    next: Vec<Option<SimTime>>,
    /// Clusters due at the current stop, ascending.
    due: Vec<usize>,
    rendezvous: bool,
}

impl BoundaryWalk<'_> {
    /// Step to the next stop and return its instant, or `None` when every
    /// cluster's sequence is over. Costs `O(clusters)` per stop.
    pub fn advance(&mut self) -> Option<SimTime> {
        let at = self.next.iter().flatten().copied().min()?;
        self.due.clear();
        for (c, next) in self.next.iter_mut().enumerate() {
            if *next == Some(at) {
                self.due.push(c);
                // Same termination as `EpochSchedule::boundaries`: stop
                // after the first boundary at or past the horizon, or
                // where the grid saturates at the end of time.
                let after = self.schedule.clusters[c].boundary_after(at);
                *next = (at < self.horizon && after > at).then_some(after);
            }
        }
        let last = self.next.iter().all(Option::is_none);
        self.rendezvous = last
            || self.schedule.clusters.len() == 1
            || at.as_micros() % self.schedule.coarse.as_micros() == 0;
        Some(at)
    }

    /// The clusters due at the current stop, ascending.
    pub fn due(&self) -> &[usize] {
        &self.due
    }

    /// Whether the current stop is a fleet-wide rendezvous.
    pub fn rendezvous(&self) -> bool {
        self.rendezvous
    }

    /// Cluster `c`'s next boundary after the current stop, or `None` when
    /// its sequence is over.
    pub fn next_boundary(&self, c: usize) -> Option<SimTime> {
        self.next[c]
    }
}

/// State shared by the participants of an [`EpochBarrier`].
struct BarrierState {
    /// Participants that have arrived in the current generation.
    arrived: usize,
    /// Generation counter; bumped when the last participant arrives.
    generation: u64,
    /// Set once by [`EpochBarrier::abort`]: the generation can never
    /// complete, so every wait fails.
    aborted: bool,
}

/// A reusable N-participant rendezvous for coupled-run worker threads.
///
/// Pure synchronization: the last thread to arrive releases the rest and
/// learns it was last (its cue to run the serial coordinator section in
/// designs that want one). No simulation data flows through the barrier,
/// so it cannot introduce nondeterminism — only waiting.
///
/// A participant that dies cannot arrive, so its peers would wait
/// forever; [`Self::abort`] wakes them instead, and every wait on an
/// aborted barrier panics.
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
                aborted: false,
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
    ///
    /// Panics if the barrier is or becomes aborted.
    pub fn wait(&self) -> bool {
        self.arrive()
            .unwrap_or_else(|| panic!("epoch barrier aborted: a participant panicked"))
    }

    /// [`Self::wait`], but `None` instead of a panic when aborted.
    fn arrive(&self) -> Option<bool> {
        let mut st = self.lock();
        if st.aborted {
            return None;
        }
        st.arrived += 1;
        if st.arrived == self.participants {
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cv.notify_all();
            return Some(true);
        }
        let gen = st.generation;
        while st.generation == gen && !st.aborted {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        (!st.aborted).then_some(false)
    }

    /// Abort the barrier for good: every current and future wait panics.
    /// Called when a participant dies, so its peers stop waiting for it.
    pub fn abort(&self) {
        self.lock().aborted = true;
        self.cv.notify_all();
    }

    /// The state lock. The barrier never panics while holding it, so a
    /// poisoned lock still holds consistent state; aborting must work
    /// from a panicking thread.
    fn lock(&self) -> MutexGuard<'_, BarrierState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
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

    /// Number of clusters.
    pub fn clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Rendezvous of cluster `c` only — a fine boundary that concerns no
    /// other cluster. Returns `true` on exactly one of the cluster's
    /// participants (its local leader for the serial cluster work).
    /// Panics once the barrier is aborted.
    pub fn wait_cluster(&self, c: usize) -> bool {
        self.clusters[c]
            .arrive()
            .unwrap_or_else(|| panic!("cluster {c} epoch barrier aborted: a participant panicked"))
    }

    /// Fleet-wide rendezvous — a coarse boundary. Returns `true` on
    /// exactly one participant overall (the global leader). Panics once
    /// the barrier is aborted.
    pub fn wait_global(&self) -> bool {
        self.global
            .arrive()
            .unwrap_or_else(|| panic!("global epoch barrier aborted: a participant panicked"))
    }

    /// Abort the global barrier and every cluster barrier: every current
    /// and future wait panics.
    pub fn abort(&self) {
        self.global.abort();
        for c in &self.clusters {
            c.abort();
        }
    }

    /// A guard for one participant: if the participant unwinds while
    /// holding it, the barrier is aborted, so the other participants
    /// panic out of their waits instead of parking forever (a scoped
    /// thread pool would otherwise never finish joining them).
    pub fn abort_on_unwind(&self) -> AbortOnUnwind<'_> {
        AbortOnUnwind { barrier: self }
    }
}

/// Aborts a [`NestedEpochBarrier`] when dropped during a panic; see
/// [`NestedEpochBarrier::abort_on_unwind`].
pub struct AbortOnUnwind<'a> {
    barrier: &'a NestedEpochBarrier,
}

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.barrier.abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
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

    /// The message of a panic payload (`panic!` with or without format
    /// arguments).
    fn panic_message(payload: &(dyn std::any::Any + Send)) -> Option<String> {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|m| m.to_string()))
    }

    #[test]
    fn a_panicking_participant_releases_the_other() {
        // Two participants; one dies before its wait. Without the abort
        // its peer would park on the condvar forever.
        let barrier = Arc::new(NestedEpochBarrier::new(&[2]));
        let (tx, rx) = std::sync::mpsc::channel();
        let survivor = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let waited = catch_unwind(AssertUnwindSafe(|| barrier.wait_cluster(0)));
                let msg = waited.err().and_then(|p| panic_message(&*p));
                tx.send(msg).expect("receiver alive");
            })
        };
        let dying = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let _abort = barrier.abort_on_unwind();
                panic!("injected worker failure");
            })
        };
        assert!(dying.join().is_err(), "the injected panic propagates");
        let msg = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the survivor returns from its wait");
        assert_eq!(
            msg.as_deref(),
            Some("cluster 0 epoch barrier aborted: a participant panicked")
        );
        survivor.join().expect("survivor thread ends");
        // The abort is sticky and covers the whole tree.
        assert!(catch_unwind(AssertUnwindSafe(|| barrier.wait_global())).is_err());
    }

    #[test]
    fn aborted_epoch_barrier_fails_every_wait() {
        let b = EpochBarrier::new(1);
        assert!(b.wait());
        b.abort();
        let err = catch_unwind(AssertUnwindSafe(|| b.wait())).expect_err("aborted");
        assert_eq!(
            panic_message(&*err).as_deref(),
            Some("epoch barrier aborted: a participant panicked")
        );
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
        // The walk agrees: a coarse-grid stop has every cluster due;
        // fine-only stops belong to one cluster.
        let mut walk = h.walk(horizon);
        while let Some(t) = walk.advance() {
            if t.as_micros() % 500_000 == 0 {
                assert_eq!(walk.due(), &[0, 1], "all clusters stop at {t:?}");
                assert!(walk.rendezvous(), "coarse stop {t:?} is a rendezvous");
            } else {
                assert_eq!(walk.due().len(), 1, "fine boundary {t:?} is private");
            }
        }
    }

    /// Collect a walk's stops: `(instant, due clusters, rendezvous)`.
    fn walk_stops(h: &HierarchicalSchedule, horizon: SimTime) -> Vec<(SimTime, Vec<usize>, bool)> {
        let mut walk = h.walk(horizon);
        let mut stops = Vec::new();
        while let Some(t) = walk.advance() {
            stops.push((t, walk.due().to_vec(), walk.rendezvous()));
        }
        stops
    }

    #[test]
    fn walk_has_no_cluster_cap() {
        // Seventy clusters, each fine-active in its own second of a
        // seven-second cycle: the walk reproduces every cluster's own
        // boundary sequence, however many clusters there are.
        let active = (0..70u64).map(|c| vec![(c % 7, c % 7 + 1)]).collect();
        let h = HierarchicalSchedule::new(
            SimDuration::from_millis(10),
            SimDuration::from_millis(500),
            active,
        );
        let horizon = SimTime::from_secs(7);
        let stops = walk_stops(&h, horizon);
        assert!(
            stops.windows(2).all(|w| w[0].0 < w[1].0),
            "strictly increasing"
        );
        for c in 0..h.clusters() {
            let mine: Vec<SimTime> = stops
                .iter()
                .filter(|(_, due, _)| due.contains(&c))
                .map(|(t, _, _)| *t)
                .collect();
            assert_eq!(mine, h.cluster_boundaries(c, horizon), "cluster {c}");
        }
        for (t, due, rendezvous) in &stops {
            let coarse = t.as_micros() % 500_000 == 0;
            assert_eq!(
                *rendezvous, coarse,
                "rendezvous only on the coarse grid at {t:?}"
            );
            if coarse {
                assert_eq!(due.len(), 70, "every cluster stops at {t:?}");
            } else {
                assert_eq!(due.len(), 10, "one cycle second's clusters at {t:?}");
            }
        }
        assert_eq!(stops.last().map(|s| s.0), Some(horizon));
    }

    #[test]
    fn walk_rendezvous_cadence_follows_the_decomposition() {
        // One cluster: the whole fleet stops at every boundary, so every
        // stop is a rendezvous, and the walk is the cluster's schedule.
        let one = HierarchicalSchedule::new(
            SimDuration::from_millis(10),
            SimDuration::from_millis(500),
            vec![vec![(0, 1)]],
        );
        let horizon = SimTime::from_secs(2);
        let stops = walk_stops(&one, horizon);
        assert!(stops.iter().all(|(_, due, r)| due == &[0] && *r));
        let times: Vec<SimTime> = stops.iter().map(|s| s.0).collect();
        assert_eq!(times, one.cluster_boundaries(0, horizon));
        // Several clusters whose last boundaries differ: the final stop
        // is a rendezvous even off the coarse grid, and each cluster
        // still ends on its own first boundary at or past the horizon.
        let h = two_cluster();
        let horizon = ms(1_985);
        let stops = walk_stops(&h, horizon);
        let (t, due, rendezvous) = stops.last().expect("stops");
        assert_eq!(*t, SimTime::from_secs(2));
        assert_eq!(due, &[1], "cluster 0 ended at its own fine boundary");
        assert!(*rendezvous);
        assert!(stops
            .iter()
            .any(|(t, due, r)| *t == ms(1_990) && due == &[0] && !r));
        // A zero horizon has no stops at all.
        assert!(walk_stops(&h, SimTime::ZERO).is_empty());
    }

    #[test]
    fn hierarchy_strictly_cuts_barrier_crossings_for_disjoint_clusters() {
        let h = two_cluster();
        let horizon = SimTime::from_secs(6);
        // The same activity as one fleet-wide cluster: every cluster pays
        // the union of both fine windows.
        let flat = HierarchicalSchedule::new(
            SimDuration::from_millis(10),
            SimDuration::from_millis(500),
            vec![vec![(0, 2), (4, 6)]],
        );
        let crossings = |h: &HierarchicalSchedule| -> usize {
            walk_stops(h, horizon)
                .iter()
                .map(|(_, due, _)| due.len())
                .sum()
        };
        let flat_crossings = h.clusters() * crossings(&flat);
        let nested_crossings = crossings(&h);
        assert!(
            nested_crossings < flat_crossings,
            "hierarchy must beat the flat schedule: {nested_crossings} vs {flat_crossings}"
        );
        // The flat schedule pays both clusters' fine windows everywhere;
        // each cluster alone pays only its own (plus the coarse grid).
        let fine_per_active_window = 200; // 2 s of 10 ms quanta
        assert!(flat.cluster_boundaries(0, horizon).len() >= 2 * fine_per_active_window);
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
