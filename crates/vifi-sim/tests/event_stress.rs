//! EventQueue stress: random schedule/cancel/pop interleavings (including
//! cancel-after-fire) checked against a naive reference model, plus the
//! bounded-bookkeeping guarantee of the generation-stamped design.

use std::collections::VecDeque;

use proptest::prelude::*;
use vifi_sim::{EventQueue, Rng, SimTime, TimerToken};

/// Naive reference: a vector of live `(at, seq, payload)` entries, popped
/// by scanning for the (time, seq) minimum.
#[derive(Default)]
struct ModelQueue {
    live: Vec<(u64, u64, u64)>,
}

impl ModelQueue {
    fn schedule(&mut self, at: u64, seq: u64) {
        self.live.push((at, seq, seq));
    }
    fn cancel(&mut self, seq: u64) -> bool {
        match self.live.iter().position(|&(_, s, _)| s == seq) {
            Some(i) => {
                self.live.remove(i);
                true
            }
            None => false,
        }
    }
    fn pop(&mut self) -> Option<(u64, u64)> {
        let i = self
            .live
            .iter()
            .enumerate()
            .min_by_key(|(_, &(at, seq, _))| (at, seq))
            .map(|(i, _)| i)?;
        let (at, _, payload) = self.live.remove(i);
        Some((at, payload))
    }
}

/// One scripted interleaving step.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Schedule at `now + horizon_offset`.
    Schedule(u64),
    /// Cancel the k-th oldest outstanding token (live or already fired —
    /// exercising cancel-after-fire).
    Cancel(usize),
    /// Pop one event.
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u64..3, 0u64..50_000, 0usize..64).prop_map(|(kind, at, k)| match kind {
        0 => Op::Schedule(at),
        1 => Op::Cancel(k),
        _ => Op::Pop,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The real queue agrees with the reference model on every pop and
    /// every cancel return value, across arbitrary interleavings. Popped
    /// times never decrease below the last pop (monotone dispatch order is
    /// checked against the model's choice, which is globally minimal).
    #[test]
    fn interleavings_match_reference_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut q = EventQueue::new();
        let mut model = ModelQueue::default();
        // All tokens ever issued (fired ones stay — cancel-after-fire).
        let mut tokens: Vec<(TimerToken, u64)> = Vec::new();
        let mut next = 0u64;
        for op in ops {
            match op {
                Op::Schedule(at) => {
                    let tok = q.schedule(SimTime::from_micros(at), next);
                    model.schedule(at, next);
                    tokens.push((tok, next));
                    next += 1;
                }
                Op::Cancel(k) => {
                    if !tokens.is_empty() {
                        let (tok, seq) = tokens[k % tokens.len()];
                        let real = q.cancel(tok);
                        let expected = model.cancel(seq);
                        prop_assert_eq!(real, expected, "cancel seq {}", seq);
                    }
                }
                Op::Pop => {
                    let real = q.pop().map(|(at, e)| (at.as_micros(), e));
                    let expected = model.pop();
                    prop_assert_eq!(real, expected);
                }
            }
            prop_assert_eq!(q.len(), model.live.len());
            prop_assert_eq!(q.is_empty(), model.live.is_empty());
        }
        // Drain both to the end.
        loop {
            let real = q.pop().map(|(at, e)| (at.as_micros(), e));
            let expected = model.pop();
            prop_assert_eq!(real, expected);
            if expected.is_none() {
                break;
            }
        }
    }
}

#[test]
fn cancelled_bookkeeping_never_grows_unbounded() {
    // A protocol-shaped workload: every packet schedules a retransmission
    // timer that is almost always cancelled (ACKed) before firing, forever.
    // The old HashSet design kept cancelled seqs until they surfaced; the
    // generation table must stay at peak-concurrency size through a
    // million-cancel run.
    let mut q = EventQueue::new();
    let mut rng = Rng::new(42);
    let mut outstanding = VecDeque::new();
    let mut now = 0u64;
    let mut fired = 0u64;
    let mut cancelled = 0u64;
    for _ in 0..1_000_000u64 {
        now += rng.below(20);
        outstanding.push_back(q.schedule(SimTime::from_micros(now + 100_000), now));
        if outstanding.len() >= 32 {
            // 31 of 32 timers are "ACKed"; the unlucky one fires.
            let tok = outstanding.pop_front().unwrap();
            if rng.below(32) == 0 {
                while q.len() > 48 {
                    q.pop();
                    fired += 1;
                }
            } else if q.cancel(tok) {
                cancelled += 1;
            }
        }
    }
    assert!(
        cancelled > 500_000,
        "cancel-heavy by construction: {cancelled}"
    );
    assert!(fired > 0, "some timers fire");
    assert!(
        q.slots_allocated() < 256,
        "slot table must track peak concurrency, got {}",
        q.slots_allocated()
    );
}

#[test]
fn concurrent_shard_queues_under_churn_never_collide() {
    // The sharded-run layout: one queue per shard, each owned by its own
    // worker thread, all churning (schedule/cancel/pop) at once. Asserts
    // per-shard determinism, the property the sharded runtime leans on: a
    // queue's pop order and token stream are a pure function of its own
    // operations, however the OS interleaves the workers.
    const SHARDS: u32 = 8;

    // Reference pop order per shard, computed single-threaded.
    let churn = |shard: u32| {
        let mut q: EventQueue<u64> = EventQueue::new();
        // Per-shard stream, like the runtime derives per-vehicle streams.
        let mut rng = Rng::new(99).fork(shard as u64);
        let mut tokens: Vec<TimerToken> = Vec::new();
        let mut issued: Vec<TimerToken> = Vec::new();
        for i in 0..2_000u64 {
            let tok = q.schedule(SimTime::from_micros(rng.below(50_000)), shard as u64 + i);
            tokens.push(tok);
            issued.push(tok);
            if i % 5 == 0 {
                let k = rng.below(tokens.len() as u64) as usize;
                q.cancel(tokens.swap_remove(k));
            }
            if i % 7 == 0 {
                q.pop();
            }
        }
        let mut order = Vec::new();
        while let Some(e) = q.pop() {
            order.push(e);
        }
        (order, issued)
    };

    let expected: Vec<_> = (0..SHARDS).map(churn).collect();
    let concurrent: Vec<(Vec<(SimTime, u64)>, Vec<TimerToken>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SHARDS).map(|s| scope.spawn(move || churn(s))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });

    for (s, ((order, issued), (exp_order, exp_issued))) in
        concurrent.iter().zip(expected.iter()).enumerate()
    {
        assert_eq!(
            order, exp_order,
            "shard {s}: pop order must not depend on threading"
        );
        assert_eq!(issued, exp_issued, "shard {s}: token stream must replay");
    }
}

#[test]
fn scheduler_after_saturates_near_the_end_of_time() {
    // A clock sitting near SimTime::MAX plus a huge relative delay must not
    // wrap (which would trip the scheduled-in-the-past assertion) or panic
    // on overflow: the deadline saturates to the MAX sentinel and fires
    // there, deterministically.
    use vifi_sim::{Scheduler, SimDuration};

    let mut s: Scheduler<&str> = Scheduler::new();
    let near_end = SimTime::from_micros(u64::MAX - 10);
    s.at(near_end, "advance");
    assert_eq!(s.step(), Some((near_end, "advance")));
    assert_eq!(s.now(), near_end);

    // 10 µs of headroom left; a 1-hour retry timer saturates to MAX.
    let tok = s.after(SimDuration::from_secs(3600), "saturated");
    assert_eq!(s.peek_time(), Some(SimTime::MAX));
    assert!(s.cancel(tok), "saturated deadline is a live, normal event");

    // Same saturation twice is the same instant: FIFO order at MAX holds.
    s.after(SimDuration::MAX, "first");
    s.after(SimDuration::from_secs(7), "second");
    assert_eq!(s.step(), Some((SimTime::MAX, "first")));
    assert_eq!(s.step(), Some((SimTime::MAX, "second")));
    assert_eq!(s.now(), SimTime::MAX);
    // Even at the clock's ceiling, relative scheduling keeps working.
    s.after(SimDuration::from_micros(1), "still-max");
    assert_eq!(s.step(), Some((SimTime::MAX, "still-max")));
    assert!(s.is_idle());
}

#[test]
fn cancel_after_fire_with_heavy_reuse_is_inert() {
    // Fire → recycle → stale cancel, thousands of times, while live timers
    // ride along: no stale token may ever kill a live event.
    let mut q = EventQueue::new();
    let mut rng = Rng::new(7);
    let mut stale: Vec<TimerToken> = Vec::new();
    let mut live_tokens: std::collections::HashMap<u64, TimerToken> =
        std::collections::HashMap::new();
    for round in 0..20_000u64 {
        let tok = q.schedule(SimTime::from_micros(round), round);
        live_tokens.insert(round, tok);
        if rng.below(2) == 0 {
            // Fires the *oldest* live event; its token goes stale.
            let (at, payload) = q.pop().expect("just scheduled");
            assert!(at <= SimTime::from_micros(round));
            let fired = live_tokens.remove(&payload).expect("fired event was live");
            stale.push(fired);
        }
        // Stale cancels must all be no-ops.
        if stale.len() >= 64 {
            for tok in stale.drain(..) {
                assert!(!q.cancel(tok), "stale token cancelled something");
            }
        }
    }
    let mut drained = 0usize;
    let mut last = SimTime::ZERO;
    while let Some((at, _)) = q.pop() {
        assert!(at >= last, "deterministic time order");
        last = at;
        drained += 1;
    }
    assert_eq!(
        drained,
        live_tokens.len(),
        "every live event survives stale cancels"
    );
}
