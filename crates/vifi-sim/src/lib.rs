//! # vifi-sim — deterministic discrete-event simulation substrate
//!
//! This crate provides the foundation that every other crate in the ViFi
//! reproduction builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — a microsecond-granularity virtual clock.
//!   Nothing in the workspace ever consults the wall clock; all protocol state
//!   machines take an explicit `now` parameter (smoltcp style), which makes
//!   them unit-testable without a simulator at all.
//! * [`Rng`] — a small, fast, deterministic PRNG (SplitMix64-seeded
//!   xoshiro256**) with *forkable substreams*. Each subsystem forks its own
//!   stream, so adding instrumentation or reordering draws in one subsystem
//!   never perturbs another. A whole simulation run is a pure function of
//!   `(config, seed)`.
//! * [`FxHashMap`] — a `HashMap` under a seedless multiply-rotate hash
//!   ([`FxHasher`]), for tables keyed by node ids and sequence numbers.
//! * [`EventQueue`] — a stable binary heap of timestamped events with
//!   deterministic FIFO tie-breaking and O(log n) cancellation via
//!   [`TimerToken`]s.
//! * [`Scheduler`] — clock + queue glued together; the main loop of
//!   `vifi-runtime` drives one of these.
//!
//! The per-queue engine is intentionally synchronous: determinism and
//! replayability matter far more than raw speed. Parallelism is layered on
//! top, never baked in — seed-level parallelism (independent trials) lives
//! in `vifi-bench`, and single-run parallelism uses the conservative
//! [`epoch`] layer ([`EpochSchedule`] boundaries + [`EpochBarrier`]
//! rendezvous), which `vifi-runtime`'s sharded runs drive with one event
//! queue per shard.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epoch;
pub mod event;
pub mod hash;
pub mod rng;
pub mod sched;
pub mod time;

pub use epoch::{
    AbortOnUnwind, BoundaryWalk, EpochBarrier, EpochSchedule, HierarchicalSchedule,
    NestedEpochBarrier,
};
pub use event::{EventQueue, TimerToken};
pub use hash::{FxHashMap, FxHasher};
pub use rng::Rng;
pub use sched::Scheduler;
pub use time::{SimDuration, SimTime};
