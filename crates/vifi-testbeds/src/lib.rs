//! # vifi-testbeds — synthetic VanLAN and DieselNet
//!
//! The paper's evidence comes from two deployments we cannot access:
//! VanLAN (11 BSes + shuttles on the Microsoft Redmond campus) and
//! DieselNet (buses in Amherst logging beacons from town/shop APs). This
//! crate builds their synthetic stand-ins:
//!
//! * [`scenario`] — the common description: nodes, mobility, radio
//!   parameters, and construction of the physical link model;
//! * [`vanlan()`](vanlan::vanlan) — 11 BSes on five buildings inside the 828 m × 559 m box of
//!   Fig. 1, plus a shuttle loop that enters and leaves coverage (the
//!   "about ten visits a day" pattern, time-compressed; see DESIGN.md);
//! * [`dieselnet`] — the sparser college-town layouts for Channel 1
//!   (10 BSes) and Channel 6 (14 BSes);
//! * [`metro()`](metro::metro) — a whole city of radio-disjoint VanLAN
//!   districts on a 10 km grid sharing one backplane, the multi-cluster
//!   scenario behind the hierarchically-synchronized coupled engine
//!   (see [`Scenario::contact_clusters`]);
//! * [`trace`] — the beacon-log schema the buses recorded, generation of
//!   synthetic logs from a scenario, (de)serialization, and the §5.1
//!   trace-to-simulation pipeline (per-second beacon loss ratios → link
//!   loss rates; never-co-visible BS pairs unreachable; other inter-BS
//!   loss uniform at random).
//!
//! Calibration: the `fig5` bench measures these models with the paper's own
//! estimator (CDF of BSes heard per second) — the knob-turning lives here,
//! the verification lives there.
//!
//! ## Fleets
//!
//! Both testbeds scale past the paper's instrumentation: `vanlan(n)`
//! builds an `n`-van fleet on per-vehicle routes (odd vans drive the loop
//! in reverse, everyone phase-offset), and
//! [`dieselnet_fleet`] synthesizes a whole bus
//! fleet with per-seed schedules ([`dieselnet::bus_schedules`]). Every
//! generator is deterministic: the same arguments (and seed, where one is
//! taken) reproduce the same scenario bit for bit.
//!
//! Fleet quickstart — build a four-van VanLAN fleet and inspect each
//! van's contact windows:
//!
//! ```
//! use vifi_sim::Rng;
//! use vifi_testbeds::{dieselnet_fleet, vanlan};
//!
//! let fleet = vanlan(4);
//! assert_eq!(fleet.vehicle_ids().len(), 4);
//!
//! // Each van alternates in and out of BS coverage on its own schedule.
//! let link = fleet.build_link_model(&Rng::new(1));
//! for &van in &fleet.vehicle_ids() {
//!     let windows = fleet.contact_windows(van, &link, 0.1);
//!     assert!(!windows.is_empty(), "every van visits the campus");
//!     // Windows are sorted and disjoint.
//!     for pair in windows.windows(2) {
//!         assert!(pair[0].1 <= pair[1].0);
//!     }
//! }
//!
//! // DieselNet fleets synthesize per-bus schedules from a seed.
//! let buses = dieselnet_fleet(8, 42);
//! assert_eq!(buses.vehicle_ids().len(), 8);
//! assert_eq!(buses.bs_ids().len(), 14);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dieselnet;
pub mod metro;
pub mod scenario;
pub mod trace;
pub mod vanlan;

pub use dieselnet::{bus_schedules, dieselnet_ch1, dieselnet_ch6, dieselnet_fleet, BusSchedule};
pub use metro::metro;
pub use scenario::{ContactAnalysis, NodeSpec, Scenario};
pub use trace::{
    generate_beacon_trace, generate_fleet_beacon_traces, BeaconRecord, BeaconTrace, TraceSimSetup,
};
pub use vanlan::vanlan;
