//! Basestation blacklisting: graceful degradation under infrastructure
//! failure.
//!
//! The paper's BRR anchor selection is an exponential average of beacon
//! reception ratios, which makes it *slow to notice death*: a basestation
//! that crashes outright keeps a high estimate for seconds while the
//! average decays, and the vehicle keeps addressing traffic to a corpse
//! (`vifi-handoff`'s `brr_estimator_lags_reality` test documents the
//! lag). The [`Blacklist`] closes that gap with plain liveness tracking:
//! when the *current anchor* has been silent past a timeout, it is
//! blacklisted with exponential backoff and the vehicle re-selects among
//! the remaining candidates immediately, re-probing the failed BS only
//! after the backoff expires.
//!
//! The type is deliberately self-contained and deterministic — pure
//! state driven by `(beacon, now)` observations — so it slots into the
//! epoch engine without new cross-shard effects, and `vifi-handoff` can
//! reuse it to harden the §3 replay policies.

use vifi_phy::NodeId;
use vifi_sim::{FxHashMap, SimTime};

use crate::config::BlacklistParams;

/// Per-BS liveness record.
#[derive(Clone, Copy, Debug)]
struct Entry {
    /// Last beacon heard from this BS.
    last_heard: Option<SimTime>,
    /// Consecutive blacklist strikes (decides the backoff exponent).
    strikes: u32,
    /// Blacklisted until this instant, if currently blacklisted.
    until: Option<SimTime>,
}

impl Entry {
    const NEW: Entry = Entry {
        last_heard: None,
        strikes: 0,
        until: None,
    };
}

/// Deterministic unresponsive-basestation blacklist with timeout and
/// exponential backoff (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct Blacklist {
    params: BlacklistParams,
    entries: FxHashMap<NodeId, Entry>,
    /// Anchors evicted for silence (observability counter).
    pub evictions: u64,
}

impl Blacklist {
    /// Build from config. A disabled config yields an inert blacklist:
    /// every query says "not blacklisted" and nothing is tracked.
    pub fn new(params: BlacklistParams) -> Self {
        Blacklist {
            params,
            entries: FxHashMap::default(),
            evictions: 0,
        }
    }

    /// Whether blacklisting is active at all.
    pub fn enabled(&self) -> bool {
        self.params.enabled
    }

    /// Record a beacon heard from `bs` at `now`. Hearing a BS proves it
    /// is alive again: an expired blacklist entry is cleared and its
    /// strike count reset (a *current* blacklist period is not cut short
    /// — the backoff exists to stop flapping).
    pub fn on_beacon(&mut self, bs: NodeId, now: SimTime) {
        if !self.params.enabled {
            return;
        }
        let e = self.entries.entry(bs).or_insert(Entry::NEW);
        e.last_heard = Some(now);
        if let Some(until) = e.until {
            if now >= until {
                e.until = None;
                e.strikes = 0;
            }
        }
    }

    /// Is `bs` blacklisted at `now`?
    pub fn is_blacklisted(&self, bs: NodeId, now: SimTime) -> bool {
        self.params.enabled
            && self
                .entries
                .get(&bs)
                .and_then(|e| e.until)
                .map(|until| now < until)
                .unwrap_or(false)
    }

    /// Check the current anchor for silence: if no beacon has been heard
    /// from it for longer than the silence timeout, blacklist it (with
    /// exponential backoff per consecutive strike) and report `true` so
    /// the caller re-selects. Must be called with the anchor the vehicle
    /// is *currently* using.
    pub fn check_anchor(&mut self, anchor: NodeId, now: SimTime) -> bool {
        if !self.params.enabled {
            return false;
        }
        let timeout = self.params.silence_timeout;
        let e = self.entries.entry(anchor).or_insert(Entry::NEW);
        if e.until.map(|u| now < u).unwrap_or(false) {
            // Already blacklisted; nothing new to report.
            return false;
        }
        let silent = match e.last_heard {
            Some(heard) => now.saturating_since(heard) > timeout,
            // Never heard: only evict once we have waited a full timeout
            // from time zero (gives a fresh run time to hear anything).
            None => now.saturating_since(SimTime::ZERO) > timeout,
        };
        if !silent {
            return false;
        }
        let exp = e.strikes.min(16);
        let backoff = std::cmp::min(
            self.params.backoff_base * (1u64 << exp),
            self.params.backoff_max,
        );
        e.until = Some(now + backoff);
        e.strikes = e.strikes.saturating_add(1);
        self.evictions += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vifi_sim::SimDuration;

    fn params() -> BlacklistParams {
        BlacklistParams {
            enabled: true,
            ..BlacklistParams::default()
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    const BS: NodeId = NodeId(1);

    #[test]
    fn disabled_blacklist_is_inert() {
        let mut bl = Blacklist::new(BlacklistParams::default());
        assert!(!bl.enabled());
        assert!(!bl.check_anchor(BS, t(60_000)));
        assert!(!bl.is_blacklisted(BS, t(60_000)));
        assert_eq!(bl.evictions, 0);
    }

    #[test]
    fn silent_anchor_is_evicted_after_timeout() {
        let mut bl = Blacklist::new(params());
        bl.on_beacon(BS, t(1000));
        assert!(!bl.check_anchor(BS, t(1300)), "within timeout");
        assert!(bl.check_anchor(BS, t(1500)), "past 400 ms of silence");
        assert!(bl.is_blacklisted(BS, t(1600)));
        assert!(!bl.is_blacklisted(BS, t(2600)), "1 s backoff expired");
        assert_eq!(bl.evictions, 1);
    }

    #[test]
    fn backoff_doubles_per_strike_and_caps() {
        let p = params();
        let mut bl = Blacklist::new(p);
        let mut now = t(1000);
        bl.on_beacon(BS, now);
        let mut expected = p.backoff_base;
        for _ in 0..8 {
            now = now + p.silence_timeout + SimDuration::from_millis(1);
            assert!(bl.check_anchor(BS, now));
            let until = now + expected;
            assert!(bl.is_blacklisted(BS, until - SimDuration::from_millis(1)));
            assert!(!bl.is_blacklisted(BS, until));
            now = until;
            expected = std::cmp::min(expected * 2, p.backoff_max);
        }
        assert_eq!(expected, p.backoff_max, "backoff reached its cap");
    }

    #[test]
    fn beacon_after_expiry_clears_strikes() {
        let p = params();
        let mut bl = Blacklist::new(p);
        bl.on_beacon(BS, t(0));
        assert!(bl.check_anchor(BS, t(500)));
        // Still blacklisted: a beacon inside the period does not clear it.
        bl.on_beacon(BS, t(700));
        assert!(bl.is_blacklisted(BS, t(800)));
        // After expiry a beacon resets the strike count: the next eviction
        // starts over at the base backoff.
        bl.on_beacon(BS, t(1600));
        assert!(!bl.is_blacklisted(BS, t(1600)));
        assert!(bl.check_anchor(BS, t(2100)));
        assert!(bl.is_blacklisted(BS, t(3050)), "base backoff again");
        assert!(!bl.is_blacklisted(BS, t(3200)));
    }

    #[test]
    fn never_heard_anchor_times_out_from_zero() {
        let mut bl = Blacklist::new(params());
        assert!(!bl.check_anchor(BS, t(300)));
        assert!(bl.check_anchor(BS, t(500)));
    }
}
