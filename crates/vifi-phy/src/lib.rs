//! # vifi-phy — radio propagation and channel models
//!
//! The paper's measurement study (§3.3–3.4) identifies exactly three channel
//! properties that drive every result in the evaluation:
//!
//! 1. **Gray periods** — sharp, unpredictable drops in connection quality
//!    that occur even close to basestations and last seconds
//!    ([`gray::GrayProcess`]).
//! 2. **Bursty packet loss** — the probability of losing packet *i+1* given
//!    packet *i* was lost is far higher than the unconditional loss rate
//!    (Fig. 6a; [`gilbert::GilbertElliott`]).
//! 3. **Independence across basestations** — the processes above are
//!    independent per directed link, so when one BS is in a burst-loss or
//!    gray phase another can deliver (Fig. 6b).
//!
//! [`link::PhysicalLinkModel`] composes a conventional log-distance path
//! loss + spatially-correlated shadowing mean ([`pathloss`]) with those two
//! per-link processes. [`link::TraceLinkModel`] implements the paper's
//! trace-driven mode (§5.1): per-second loss ratios drive Bernoulli packet
//! loss directly. Both answer [`LinkModel::contacts`]: per second, the
//! node pairs that may hear each other at all ([`contact`]), so callers
//! skip provably silent pairs.
//!
//! Everything here is deterministic given a seed, and — per the substitution
//! rules in DESIGN.md — the Fig. 5/Fig. 6 bench binaries *measure* these
//! models with the paper's own estimators to verify the shapes match.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contact;
pub mod geom;
pub mod gilbert;
pub mod gray;
pub mod link;
pub mod node;
pub mod pathloss;

pub use contact::ContactSecond;
pub use geom::{kmh_to_ms, Fixed, Mobility, Point, Route};
pub use gilbert::GilbertElliott;
pub use gray::GrayProcess;
pub use link::{LinkModel, PhysicalLinkModel, TraceLinkModel};
pub use node::{NodeId, NodeKind};
pub use pathloss::RadioParams;
