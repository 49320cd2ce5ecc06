//! Timestamped event queue with deterministic ordering and cancellation.
//!
//! The queue is a binary min-heap keyed by `(time, sequence)`. The sequence
//! number is a monotonically increasing insertion counter, which gives FIFO
//! semantics among events scheduled for the same instant — this is the
//! tie-break rule that makes whole-simulation runs bit-for-bit reproducible.
//!
//! Cancellation is **generation-stamped**: every pending event owns a slot
//! in a small side table, and its [`TimerToken`] carries `(slot,
//! generation)`. Cancelling (or firing) bumps the slot's generation, which
//! invalidates the token — and any stale heap entry — with one array write.
//! Liveness checks on the pop/peek path are a single indexed compare, not a
//! `HashSet` probe; there is no cancelled-set to grow, and slots are
//! recycled through a free list, so memory is bounded by the *peak* number
//! of concurrently pending events. Protocol code (retransmission timers,
//! relay timers) cancels far more often than it lets timers fire, which is
//! exactly the pattern this layout makes cheap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Handle to a scheduled event, used to cancel it before it fires.
///
/// A token is `(slot, generation)`: a slot in the issuing queue's side
/// table and the generation at which it was issued. Once the event fires
/// or is cancelled the slot's generation moves on and the token goes stale
/// forever (up to u32 generation wrap-around — four billion reuses of one
/// slot — which no simulated workload approaches). A token is only
/// meaningful to the queue that issued it; sharded runs keep each node's
/// tokens with the node, and a node never changes shard.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerToken {
    slot: u32,
    generation: u32,
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    slot: u32,
    generation: u32,
    event: E,
}

// Order entries by (time, seq). Only `at` and `seq` participate; the event
// payload is irrelevant to ordering.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic, cancellable priority queue of future events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// FIFO tie-break counter (never reused; u64 cannot wrap in practice).
    next_seq: u64,
    /// Current generation per slot. An entry (or token) is live iff its
    /// stamped generation equals its slot's current generation.
    generations: Vec<u32>,
    /// Slots whose previous event fired or was cancelled, ready for reuse.
    free_slots: Vec<u32>,
    /// Number of live (scheduled, not yet fired or cancelled) events.
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            generations: Vec::new(),
            free_slots: Vec::new(),
            live: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at`. Returns a token that
    /// can later be passed to [`cancel`](Self::cancel).
    pub fn schedule(&mut self, at: SimTime, event: E) -> TimerToken {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.generations.len())
                    .expect("more than u32::MAX concurrently pending events");
                self.generations.push(0);
                s
            }
        };
        let generation = self.generations[slot as usize];
        self.heap.push(Reverse(Entry {
            at,
            seq,
            slot,
            generation,
            event,
        }));
        self.live += 1;
        TimerToken { slot, generation }
    }

    /// Cancel a previously scheduled event. Returns true if the event was
    /// still pending; cancelling a fired or already-cancelled token is a
    /// harmless no-op returning false.
    pub fn cancel(&mut self, token: TimerToken) -> bool {
        match self.generations.get_mut(token.slot as usize) {
            Some(generation) if *generation == token.generation => {
                // Invalidate the token and its heap entry in one bump; the
                // dead entry is discarded when it surfaces.
                *generation = generation.wrapping_add(1);
                self.free_slots.push(token.slot);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// True if this heap entry's stamp still matches its slot.
    #[inline]
    fn entry_live(&self, e: &Entry<E>) -> bool {
        self.generations[e.slot as usize] == e.generation
    }

    /// Time of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skim();
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Remove and return the next live event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.skim();
        self.heap.pop().map(|Reverse(e)| {
            // skim() left a live entry on top: retire its slot.
            self.generations[e.slot as usize] = e.generation.wrapping_add(1);
            self.free_slots.push(e.slot);
            self.live -= 1;
            (e.at, e.event)
        })
    }

    /// Discard cancelled entries at the top of the heap.
    fn skim(&mut self) {
        while let Some(Reverse(top)) = self.heap.peek() {
            if self.entry_live(top) {
                break;
            }
            self.heap.pop();
        }
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of slots ever allocated in the side table — bounded by the
    /// peak number of concurrently pending events, *not* by cancellation
    /// traffic. Exposed for capacity diagnostics and the stress tests.
    pub fn slots_allocated(&self) -> usize {
        self.generations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_tie_break_at_same_time() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(t(5), i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let tok = q.schedule(t(10), "dead");
        q.schedule(t(20), "alive");
        assert!(q.cancel(tok));
        assert!(!q.cancel(tok), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(20), "alive")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let tok = q.schedule(t(1), "fired");
        assert_eq!(q.pop(), Some((t(1), "fired")));
        assert!(!q.cancel(tok));
        assert_eq!(q.len(), 0);
        // A later event is unaffected.
        q.schedule(t(2), "next");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "next")));
    }

    #[test]
    fn cancel_bogus_token_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(TimerToken {
            slot: 999,
            generation: 0
        }));
    }

    #[test]
    fn stale_token_cannot_cancel_slot_reuser() {
        // The ABA guard: a fired event's slot is recycled by a new event;
        // the old token must not cancel the newcomer.
        let mut q = EventQueue::new();
        let old = q.schedule(t(1), "first");
        assert_eq!(q.pop(), Some((t(1), "first")));
        let _new = q.schedule(t(2), "second"); // reuses the slot
        assert!(!q.cancel(old), "stale token must be inert");
        assert_eq!(q.pop(), Some((t(2), "second")));
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let tok = q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        q.cancel(tok);
        assert_eq!(q.peek_time(), Some(t(20)));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), 1);
        let _b = q.schedule(t(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), "x");
        assert_eq!(q.pop(), Some((t(10), "x")));
        q.schedule(t(5), "y");
        q.schedule(t(15), "z");
        assert_eq!(q.pop(), Some((t(5), "y")));
        assert_eq!(q.pop(), Some((t(15), "z")));
    }

    #[test]
    fn heavy_mixed_workload_stays_sorted() {
        let mut q = EventQueue::new();
        let mut rng = crate::rng::Rng::new(77);
        let mut tokens = Vec::new();
        for i in 0..5000u64 {
            let at = SimTime::from_micros(rng.below(100_000));
            tokens.push((q.schedule(at, i), at));
        }
        // Cancel a third of them.
        for (i, (tok, _)) in tokens.iter().enumerate() {
            if i % 3 == 0 {
                q.cancel(*tok);
            }
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last, "out of order");
            last = at;
            n += 1;
        }
        assert_eq!(n, 5000 - (5000 + 2) / 3);
    }

    #[test]
    fn same_schedule_same_pop_order_replay() {
        // Determinism: two identically used queues yield identical
        // sequences, including tie-breaks.
        let build = || {
            let mut q = EventQueue::new();
            let mut rng = crate::rng::Rng::new(123);
            for i in 0..1000u64 {
                q.schedule(SimTime::from_micros(rng.below(50)), i);
            }
            let mut order = Vec::new();
            while let Some((at, e)) = q.pop() {
                order.push((at, e));
            }
            order
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn duration_helper_compiles() {
        // Spot-check SimDuration interop with scheduling patterns.
        let mut q = EventQueue::new();
        let now = t(100);
        q.schedule(now + SimDuration::from_millis(5), ());
        assert_eq!(q.peek_time(), Some(t(105)));
    }

    #[test]
    fn slot_table_bounded_by_peak_concurrency() {
        // A retransmission-timer loop: schedule/cancel forever with at
        // most 4 events pending. The side table must stay at the peak,
        // no matter how many cancellations pass through.
        let mut q = EventQueue::new();
        let mut pending = std::collections::VecDeque::new();
        for round in 0..10_000u64 {
            pending.push_back(q.schedule(SimTime::from_micros(round), round));
            if pending.len() > 4 {
                let tok = pending.pop_front().unwrap();
                q.cancel(tok);
            }
        }
        assert!(
            q.slots_allocated() <= 8,
            "slot table grew to {} for 5 concurrent events",
            q.slots_allocated()
        );
    }
}
