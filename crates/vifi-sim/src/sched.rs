//! The scheduler: an event queue bound to a monotonic virtual clock.
//!
//! [`Scheduler`] is the loop driver used by `vifi-runtime`: pop the next
//! event, advance the clock to its timestamp, dispatch. It enforces the one
//! invariant a discrete-event simulation lives or dies by — **time never
//! moves backwards** — by panicking if an event is scheduled in the past.

use crate::event::{EventQueue, TimerToken};
use crate::time::{SimDuration, SimTime};

/// An event queue plus the current virtual time.
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    now: SimTime,
    dispatched: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Create a scheduler at time zero with an empty queue.
    pub fn new() -> Self {
        Scheduler {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            dispatched: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events dispatched so far (for progress reporting and
    /// the event-throughput benchmark).
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Schedule an event at an absolute instant. Panics if `at` is in the
    /// past — a protocol bug this substrate refuses to paper over.
    pub fn at(&mut self, at: SimTime, event: E) -> TimerToken {
        assert!(
            at >= self.now,
            "scheduled event in the past: at={at:?} now={:?}",
            self.now
        );
        self.queue.schedule(at, event)
    }

    /// Schedule an event `delay` after the current instant. Routes through
    /// [`Scheduler::at`] so the time-never-moves-backwards assertion also
    /// guards `delay` arithmetic that wrapped or went "negative" upstream.
    ///
    /// A delay that would push the deadline past [`SimTime::MAX`] saturates
    /// to `MAX` instead of panicking: `MAX` is the far-deadline sentinel, so
    /// "later than representable time" and "at the end of representable
    /// time" are indistinguishable to any bounded-horizon run, and the
    /// saturation is deterministic (same inputs, same clamped deadline).
    pub fn after(&mut self, delay: SimDuration, event: E) -> TimerToken {
        self.at(self.now.saturating_add(delay), event)
    }

    /// Cancel a pending event. Returns true if it was still pending.
    pub fn cancel(&mut self, token: TimerToken) -> bool {
        self.queue.cancel(token)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn step(&mut self) -> Option<(SimTime, E)> {
        let (at, ev) = self.queue.pop()?;
        debug_assert!(at >= self.now, "clock went backwards");
        self.now = at;
        self.dispatched += 1;
        Some((at, ev))
    }

    /// Timestamp of the next pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// True if no events remain.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Run the scheduler until the queue drains or the clock passes `until`,
    /// dispatching each event to `handler`. The handler receives the
    /// scheduler itself so it can schedule follow-up events.
    ///
    /// Events stamped after `until` remain queued; the clock is left at the
    /// last dispatched event (or unchanged if none fired).
    pub fn run_until<F>(&mut self, until: SimTime, mut handler: F)
    where
        F: FnMut(&mut Self, SimTime, E),
    {
        loop {
            match self.peek_time() {
                Some(at) if at <= until => {
                    let (at, ev) = self.step().expect("peeked event vanished");
                    handler(self, at, ev);
                }
                _ => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_events() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.at(SimTime::from_millis(10), "a");
        s.after(SimDuration::from_millis(5), "b");
        assert_eq!(s.step(), Some((SimTime::from_millis(5), "b")));
        assert_eq!(s.now(), SimTime::from_millis(5));
        assert_eq!(s.step(), Some((SimTime::from_millis(10), "a")));
        assert_eq!(s.now(), SimTime::from_millis(10));
        assert_eq!(s.step(), None);
        assert_eq!(s.dispatched(), 2);
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.at(SimTime::from_millis(10), ());
        s.step();
        s.at(SimTime::from_millis(5), ());
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 1..=10 {
            s.at(SimTime::from_secs(i), i as u32);
        }
        let mut seen = Vec::new();
        s.run_until(SimTime::from_secs(4), |_, _, e| seen.push(e));
        assert_eq!(seen, vec![1, 2, 3, 4]);
        assert_eq!(s.pending(), 6);
        assert_eq!(s.now(), SimTime::from_secs(4));
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.at(SimTime::from_secs(1), 0);
        let mut count = 0;
        s.run_until(SimTime::from_secs(10), |sched, _, gen| {
            count += 1;
            if gen < 3 {
                sched.after(SimDuration::from_secs(1), gen + 1);
            }
        });
        // 0 at t=1 spawns 1 at t=2 spawns 2 at t=3 spawns 3 at t=4.
        assert_eq!(count, 4);
        assert!(s.is_idle());
    }

    #[test]
    fn cancel_through_scheduler() {
        let mut s: Scheduler<&str> = Scheduler::new();
        let tok = s.at(SimTime::from_secs(1), "dead");
        s.at(SimTime::from_secs(2), "alive");
        assert!(s.cancel(tok));
        let mut seen = Vec::new();
        s.run_until(SimTime::from_secs(5), |_, _, e| seen.push(e));
        assert_eq!(seen, vec!["alive"]);
    }
}
