//! # vifi-runtime — the deployment in a box
//!
//! This crate assembles everything below it into the two experimental
//! apparatuses of §5.1:
//!
//! * **Deployment mode** — a [`vifi_testbeds::Scenario`] drives a
//!   [`vifi_phy::PhysicalLinkModel`]; every node runs a
//!   [`vifi_core::Endpoint`] over the CSMA medium
//!   ([`vifi_mac::SharedMediumService`]) and the
//!   bandwidth-limited [`vifi_mac::Backplane`]; an application workload
//!   ([`workload`]) rides on top. This is the stand-in for the live
//!   VanLAN prototype.
//! * **Trace-driven mode** — a [`vifi_testbeds::trace::TraceSimSetup`]
//!   supplies the link model instead (per-second beacon loss ratios, the
//!   §5.1 rules); everything above the channel is identical. This is the
//!   stand-in for the authors' QualNet setup, and the pair lets us run
//!   the paper's validation (same measurements, both modes).
//!
//! [`logging::RunLog`] records every transmission, reception, relay
//! decision and delivery; Tables 1 and 2, the Fig. 12 efficiency bars and
//! the PerfectRelay oracle (§5.4) are all *post-processed* from that log,
//! exactly as the paper derives them from its packet logs.
//!
//! ## Fleet runs
//!
//! The paper instruments one vehicle; this runtime can instrument a whole
//! fleet. Setting [`RunConfig::fleet_workloads`] gives every vehicle in
//! the scenario its own workload driver and wired path (vehicle *i* takes
//! entry `i % len`), and [`RunOutcome::vehicles`] carries one
//! [`sim::VehicleOutcome`] per vehicle. The packet-level [`RunLog`] keeps
//! following the first vehicle only.
//!
//! Fleet quickstart (the multi-vehicle mirror of `examples/quickstart.rs`):
//!
//! ```
//! use vifi_runtime::{RunConfig, Simulation, WorkloadSpec};
//! use vifi_sim::SimDuration;
//! use vifi_testbeds::vanlan;
//!
//! // Two vans on per-vehicle routes, each carrying the paper's CBR
//! // probe workload and contending for the same eleven basestations.
//! let scenario = vanlan(2);
//! let cfg = RunConfig {
//!     fleet_workloads: vec![WorkloadSpec::paper_cbr()],
//!     duration: SimDuration::from_secs(30),
//!     seed: 7,
//!     ..RunConfig::default()
//! };
//! let outcome = Simulation::deployment(&scenario, cfg).run();
//! assert_eq!(outcome.vehicles.len(), 2, "one outcome per van");
//! let fleet = vifi_runtime::workload::aggregate_cbr(
//!     outcome.vehicles.iter().map(|v| &v.report),
//! );
//! assert!(fleet.total_sent() > 0);
//! ```
//!
//! ## Sharded runs
//!
//! Large fleet runs shard across cores with [`RunConfig::shards`] and
//! [`Simulation::run_sharded`]: the epoch-synchronized engine splits the
//! *one* coupled run across shards, preserving the shared medium, and the
//! result is bit-identical to the sequential [`Simulation::run`] at every
//! shard and worker count. `shards` is an execution knob, never a model
//! switch. [`RunOutcome::fingerprint`] is the equality the equivalence
//! suite asserts; see [`sim`]'s module docs for how shards are planned.
//!
//! ```
//! use vifi_runtime::{RunConfig, Simulation, WorkloadSpec};
//! use vifi_sim::SimDuration;
//! use vifi_testbeds::vanlan;
//!
//! let scenario = vanlan(4);
//! let cfg = RunConfig {
//!     fleet_workloads: vec![WorkloadSpec::paper_cbr()],
//!     duration: SimDuration::from_secs(10),
//!     seed: 7,
//!     ..RunConfig::default()
//! };
//! let sequential = Simulation::deployment(&scenario, cfg.clone()).run();
//! for shards in [2, 4] {
//!     let sharded = Simulation::run_sharded(&scenario, RunConfig { shards, ..cfg.clone() });
//!     assert_eq!(sharded.fingerprint(), sequential.fingerprint(), "shards = {shards}");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binlog;
mod engine;
pub mod fingerprint;
pub mod logging;
pub mod sim;
pub mod workload;

pub use binlog::{read_stream, BinaryRunLog, StreamFold, StreamSummary};
pub use engine::CoupledTiming;
pub use fingerprint::{Fingerprint, Fingerprintable};
pub use logging::{LogSink, PerfectRelayOutcome, RunLog, Table1, Table2Row};
pub use sim::{
    plan_shards, FaultStats, RunConfig, RunOutcome, ShardAssignment, ShardMode, ShardPlan,
    Simulation, VehicleOutcome,
};
pub use workload::{aggregate_cbr, CbrStats, TcpStats, VoipStats, WorkloadReport, WorkloadSpec};
