//! # vifi-mac — the 802.11-like substrate ViFi runs over
//!
//! The paper's prototype (§4.8) deliberately uses **broadcast** 802.11
//! transmissions: broadcast disables the NIC's automatic retransmissions
//! and exponential backoff (both counterproductive when losses come from
//! fades, not collisions), relies on carrier sense to avoid collisions, and
//! keeps at most one frame pending at the interface. Acknowledgments are
//! protocol-level frames, not MAC ACKs. This crate reproduces that
//! substrate:
//!
//! * [`frame`] — frame sizing and 802.11b airtime at the fixed 1 Mbps rate
//!   the paper uses (§5.1);
//! * [`medium`] — a packet-level broadcast medium with carrier sense,
//!   slotted random backoff, half-duplex receivers, and hidden-terminal
//!   collisions, driven by a [`vifi_phy::LinkModel`]. Split into a pure
//!   per-node decision kernel ([`medium::kernel`]) and the
//!   [`SharedMediumService`], which owns global transmission state and
//!   places each epoch's requests in one canonically-sorted batch — the
//!   piece that lets sharded coupled runs keep cross-vehicle contention;
//! * [`backplane`] — the bandwidth-limited inter-BS plane (§4.1 calls it
//!   out as a design constraint: "relatively thin broadband links or a
//!   multi-hop wireless mesh");
//! * [`beacon`] — per-node staggered beacon schedules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backplane;
pub mod beacon;
pub mod frame;
pub mod medium;

pub use backplane::{Backplane, BackplaneParams};
pub use beacon::BeaconSchedule;
pub use frame::{
    Frame, FrameReader, FrameWriter, MacParams, WireFrame, WirePayload, WIRE_HEADER_LEN,
};
pub use medium::{
    AudibilityProbes, Placement, Reception, ResolvableTx, SharedMediumService, TxHandle, TxRequest,
};
