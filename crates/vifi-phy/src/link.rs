//! The link model: who receives what, with what probability, when.
//!
//! [`LinkModel`] is the boundary between the radio substrate and everything
//! above it (MAC, protocols, replay evaluation). Two implementations:
//!
//! * [`PhysicalLinkModel`] — the synthetic VanLAN-style channel: log-
//!   distance path loss + spatially-correlated shadowing (slow scale),
//!   per-link gray periods (second scale), per-link Gilbert–Elliott fades
//!   (sub-second scale). All per-link processes are mutually independent,
//!   which is the measured property (§3.4.2) that makes diversity work.
//! * [`TraceLinkModel`] — the paper's trace-driven mode (§5.1): a table of
//!   per-second delivery probabilities per directed link, applied as
//!   Bernoulli loss. Used for the DieselNet experiments and for validating
//!   the simulation against the deployment.
//!
//! Determinism: every stochastic object forks its RNG stream from the model
//! seed and the *link identity*, so results do not depend on the order in
//! which links are first touched. Since PR 5 this extends to the sampling
//! draws themselves: delivery Bernoulli trials and RSSI measurement noise
//! come from a **per-directed-link stream** (not a model-wide one), so
//! sampling one link never perturbs another. That is the property the
//! epoch-synchronized coupled runtime leans on — two shards resolving
//! receptions on disjoint links draw identical values no matter which
//! resolves first, and several model instances built from the same seed
//! agree link-for-link.
//!
//! Lookups are dense: node ids are small dense integers (see
//! [`NodeId::index`]), so node kinds, mobility and every lazily created
//! per-link object live in tables indexed by id — one vector index per
//! node lookup, two per link — instead of scans or hashed `(tx, rx)` keys.
//! This is the cost every `quality_hint`, every reception sample and every
//! set-up contact sweep pays per call.

use vifi_sim::{Rng, SimTime};

use crate::contact::{grid_contacts, within_reach, Body, ContactSecond};
use crate::geom::{Point, Route};
use crate::gilbert::{GeParams, GilbertElliott};
use crate::gray::{GrayParams, GrayProcess};
use crate::node::{link_label, NodeId, NodeKind};
use crate::pathloss::{RadioParams, ShadowField, ShadowSampler};

/// How a node moves.
#[derive(Clone, Debug)]
pub enum MobilitySource {
    /// Parked forever at one point (basestations).
    Fixed(Point),
    /// Following a route (vehicles).
    Mobile(Route),
}

impl MobilitySource {
    /// Position at time `t`.
    pub fn position_at(&self, t: SimTime) -> Point {
        match self {
            MobilitySource::Fixed(p) => *p,
            MobilitySource::Mobile(r) => r.position_at(t),
        }
    }

    /// Top speed, m/s: how far the node can move in one second.
    pub(crate) fn speed_ms(&self) -> f64 {
        match self {
            MobilitySource::Fixed(_) => 0.0,
            MobilitySource::Mobile(r) => r.speed_ms(),
        }
    }
}

/// The radio-visibility oracle used by the MAC and the evaluation layers.
pub trait LinkModel {
    /// Instantaneous delivery probability for one frame on the directed
    /// link `tx → rx` at `now`. Advances per-link fade processes; call with
    /// non-decreasing `now`.
    fn delivery_prob(&mut self, tx: NodeId, rx: NodeId, now: SimTime) -> f64;

    /// Sample one frame delivery (Bernoulli at [`Self::delivery_prob`]).
    fn sample_delivery(&mut self, tx: NodeId, rx: NodeId, now: SimTime) -> bool {
        let p = self.delivery_prob(tx, rx, now);
        self.rng().chance(p)
    }

    /// Slow-scale link quality in `[0, 1]` **without** advancing any fade
    /// state: path loss + shadowing only. Used for carrier-sense decisions
    /// and candidate-receiver filtering, where peeking must not perturb the
    /// channel.
    fn quality_hint(&self, tx: NodeId, rx: NodeId, now: SimTime) -> f64;

    /// RSSI a receiver would report for a frame on this link, dBm.
    /// `None` when the link is out of range or RSSI is meaningless
    /// (trace mode synthesizes one from the delivery probability).
    fn rssi_dbm(&mut self, tx: NodeId, rx: NodeId, now: SimTime) -> Option<f64>;

    /// All nodes known to the model, with their kinds, in registration
    /// order.
    fn nodes(&self) -> &[(NodeId, NodeKind)];

    /// Second `sec`'s contact lists: per node, every node it may hear or
    /// be heard by at some instant of `[sec, sec + 1)` — a superset of
    /// the pairs whose [`Self::quality_hint`] can be nonzero in that
    /// second (see [`crate::contact`]). This default lists every node as
    /// a candidate of every other.
    fn contacts(&self, sec: u64) -> ContactSecond {
        let ids: Vec<NodeId> = self.nodes().iter().map(|&(id, _)| id).collect();
        ContactSecond::complete(sec, &ids)
    }

    /// The model's sampling RNG (separate stream from the fade processes).
    fn rng(&mut self) -> &mut Rng;
}

/// Per-directed-link objects indexed by `(tx, rx)` ids: one row of slots
/// per transmitter into a dense `Vec<T>`, both grown the first time a link
/// is touched. Creation stays lazy and per link, so which links exist —
/// and when each was created — is exactly what a hashed map would hold.
struct LinkTable<T> {
    /// `rows[tx][rx]`: the link's index into `items`, or [`NO_SLOT`].
    rows: Vec<Vec<u32>>,
    items: Vec<T>,
}

/// Row entry of a link that has no object yet.
const NO_SLOT: u32 = u32::MAX;

impl<T> LinkTable<T> {
    fn new() -> Self {
        LinkTable {
            rows: Vec::new(),
            items: Vec::new(),
        }
    }

    fn slot(&self, tx: NodeId, rx: NodeId) -> Option<usize> {
        let slot = *self.rows.get(tx.index())?.get(rx.index())?;
        (slot != NO_SLOT).then_some(slot as usize)
    }

    /// The link's object, if it was ever created.
    fn get(&self, tx: NodeId, rx: NodeId) -> Option<&T> {
        self.slot(tx, rx).map(|s| &self.items[s])
    }

    /// The link's object, created by `make` on first use.
    fn get_or_insert_with(&mut self, tx: NodeId, rx: NodeId, make: impl FnOnce() -> T) -> &mut T {
        let slot = match self.slot(tx, rx) {
            Some(s) => s,
            None => {
                if self.rows.len() <= tx.index() {
                    self.rows.resize_with(tx.index() + 1, Vec::new);
                }
                let row = &mut self.rows[tx.index()];
                if row.len() <= rx.index() {
                    row.resize(rx.index() + 1, NO_SLOT);
                }
                row[rx.index()] = u32::try_from(self.items.len()).expect("link table overflow");
                self.items.push(make());
                self.items.len() - 1
            }
        };
        &mut self.items[slot]
    }
}

/// Per-directed-link dynamic state for the physical model.
struct LinkState {
    gray: GrayProcess,
    ge: GilbertElliott,
    /// Cached-lattice view of the pair's shadowing field: the per-frame
    /// sampling path hits the memo instead of rehashing the 4 corner
    /// cells of a vehicle that moved a meter since the last frame.
    shadow: ShadowSampler,
    /// Per-link sampling stream: delivery Bernoulli trials and RSSI
    /// measurement noise. Keyed by the link identity so sampling is
    /// independent across links and across model instances.
    sampler: Rng,
}

/// Physics-based channel: path loss + shadowing + gray periods + GE fades.
pub struct PhysicalLinkModel {
    params: RadioParams,
    gray_params: GrayParams,
    ge_params: GeParams,
    /// Registered nodes in registration order (what
    /// [`LinkModel::nodes`] returns).
    nodes: Vec<(NodeId, NodeKind)>,
    /// Kind and mobility of each registered node, indexed by
    /// [`NodeId::index`]; `None` for ids never registered.
    table: Vec<Option<(NodeKind, MobilitySource)>>,
    links: LinkTable<LinkState>,
    master: Rng,
    sampler: Rng,
    /// Run-constant stream id for the shadowing fields.
    shadow_stream: u64,
}

impl PhysicalLinkModel {
    /// Create an empty model. `seed`-deterministic.
    pub fn new(params: RadioParams, rng: &Rng) -> Self {
        let master = rng.fork_named("phy-links");
        let sampler = rng.fork_named("phy-sampler");
        let mut id_src = rng.fork_named("phy-shadow");
        PhysicalLinkModel {
            params,
            gray_params: GrayParams::default(),
            ge_params: GeParams::default(),
            nodes: Vec::new(),
            table: Vec::new(),
            links: LinkTable::new(),
            master,
            sampler,
            shadow_stream: id_src.next_u64(),
        }
    }

    /// Override the gray-period parameters (fault-injection knob).
    pub fn with_gray_params(mut self, p: GrayParams) -> Self {
        self.gray_params = p;
        self
    }

    /// Override the Gilbert–Elliott parameters (fault-injection knob).
    pub fn with_ge_params(mut self, p: GeParams) -> Self {
        self.ge_params = p;
        self
    }

    /// Register a node. Panics on duplicate ids.
    pub fn add_node(&mut self, id: NodeId, kind: NodeKind, mobility: MobilitySource) {
        if self.table.len() <= id.index() {
            self.table.resize_with(id.index() + 1, || None);
        }
        let entry = &mut self.table[id.index()];
        assert!(entry.is_none(), "duplicate node {id:?}");
        *entry = Some((kind, mobility));
        self.nodes.push((id, kind));
    }

    /// Kind and mobility of a registered node. Panics on unknown node.
    fn node(&self, id: NodeId) -> &(NodeKind, MobilitySource) {
        self.table
            .get(id.index())
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("unknown node {id:?}"))
    }

    /// Position of a node at `t`. Panics on unknown node.
    pub fn position(&self, id: NodeId, t: SimTime) -> Point {
        self.node(id).1.position_at(t)
    }

    /// Kind of a node. Panics on unknown node.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.node(id).0
    }

    fn tx_power_dbm(&self, kind: NodeKind) -> f64 {
        match kind {
            NodeKind::Vehicle => self.params.vehicle_tx_power_dbm,
            NodeKind::Basestation => self.params.bs_tx_power_dbm,
            NodeKind::Wired => f64::NEG_INFINITY,
        }
    }

    /// Shadowing field for an *unordered* node pair: both directions see
    /// the same spatial obstruction pattern.
    fn shadow_field(&self, a: NodeId, b: NodeId) -> ShadowField {
        let (lo, hi) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        ShadowField::new(
            self.shadow_stream ^ link_label(lo, hi).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            self.params.shadow_sigma_db,
            self.params.shadow_corr_m,
        )
    }

    /// Received power before shadowing and dynamic fades, dBm, plus the
    /// link midpoint to sample the shadow field at: `None` when the link
    /// is wired or beyond the radio horizon.
    fn link_geometry(&self, tx: NodeId, rx: NodeId, now: SimTime) -> Option<(f64, Point)> {
        let (tx_kind, tx_mobility) = self.node(tx);
        if matches!(tx_kind, NodeKind::Wired) {
            return None;
        }
        let (rx_kind, rx_mobility) = self.node(rx);
        if matches!(rx_kind, NodeKind::Wired) {
            return None;
        }
        let pt = tx_mobility.position_at(now);
        let pr = rx_mobility.position_at(now);
        let d = pt.distance(pr);
        if d > self.params.max_range_m {
            return None;
        }
        Some((
            self.tx_power_dbm(*tx_kind) - self.params.path_loss_db(d),
            pt.lerp(pr, 0.5),
        ))
    }

    /// Received power before dynamic fades, dBm: path loss at the current
    /// distance plus shadowing sampled at the link midpoint (so it evolves
    /// as the vehicle moves). Pure peek — used by the `&self` quality
    /// paths; the `&mut` sampling paths go through the per-link
    /// [`ShadowSampler`] instead.
    fn static_rx_power_dbm(&self, tx: NodeId, rx: NodeId, now: SimTime) -> Option<f64> {
        let (rxp, mid) = self.link_geometry(tx, rx, now)?;
        Some(rxp + self.shadow_field(tx, rx).sample_db(mid))
    }

    fn link_state(&mut self, tx: NodeId, rx: NodeId) -> &mut LinkState {
        let master = &self.master;
        let gray_params = self.gray_params;
        let ge_params = self.ge_params;
        let shadow = self.shadow_field(tx, rx);
        self.links.get_or_insert_with(tx, rx, || {
            let stream = master.fork(link_label(tx, rx));
            LinkState {
                gray: GrayProcess::new(gray_params, stream.fork_named("gray")),
                ge: GilbertElliott::new(ge_params, stream.fork_named("ge")),
                shadow: ShadowSampler::new(shadow),
                sampler: stream.fork_named("sampler"),
            }
        })
    }

    /// Slow-scale delivery probability (path loss + shadow only), a pure
    /// function of geometry; does not advance fades.
    pub fn slow_prob(&self, tx: NodeId, rx: NodeId, now: SimTime) -> f64 {
        match self.static_rx_power_dbm(tx, rx, now) {
            None => 0.0,
            Some(rxp) => {
                let snr = rxp - self.params.noise_floor_dbm;
                self.params.delivery_prob_from_snr(snr)
            }
        }
    }

    /// A radio node (not wired) as the contact grid sees it during
    /// second `sec`.
    fn body(&self, id: NodeId, sec: u64) -> Option<Body> {
        let (kind, mobility) = self.node(id);
        (*kind != NodeKind::Wired).then(|| Body {
            id,
            at: mobility.position_at(SimTime::from_secs(sec)),
            speed_ms: mobility.speed_ms(),
        })
    }

    /// The members of `among` that are candidates of `node` in second
    /// `sec`, lazily and in `among`'s order: one row of
    /// [`LinkModel::contacts`] restricted to `among`, by the same pair
    /// test, for callers that need a single node's row and not the whole
    /// second.
    pub fn reachable<'a>(
        &'a self,
        node: NodeId,
        sec: u64,
        among: &'a [NodeId],
    ) -> impl Iterator<Item = NodeId> + 'a {
        let me = self.body(node, sec);
        among.iter().copied().filter(move |&other| {
            other != node
                && me.is_some_and(|me| {
                    self.body(other, sec)
                        .is_some_and(|b| within_reach(&me, &b, self.params.max_range_m))
                })
        })
    }

    /// Check that `c` lists every radio pair within `max_range_m` at the
    /// first, middle and last microsecond of its second — the pairs
    /// whose `slow_prob` can be nonzero there.
    fn assert_covers(&self, c: &ContactSecond) {
        let radio: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|&&(_, kind)| kind != NodeKind::Wired)
            .map(|&(id, _)| id)
            .collect();
        let base = c.second() * 1_000_000;
        for t in [base, base + 500_000, base + 999_999] {
            let t = SimTime::from_micros(t);
            let at: Vec<Point> = radio.iter().map(|&id| self.position(id, t)).collect();
            for i in 0..radio.len() {
                for j in i + 1..radio.len() {
                    assert!(
                        at[i].distance(at[j]) > self.params.max_range_m
                            || c.contains(radio[i], radio[j]),
                        "{:?}–{:?} in range at {t:?} but not a candidate of second {}",
                        radio[i],
                        radio[j],
                        c.second()
                    );
                }
            }
        }
    }
}

impl LinkModel for PhysicalLinkModel {
    fn delivery_prob(&mut self, tx: NodeId, rx: NodeId, now: SimTime) -> f64 {
        let Some((rxp, mid)) = self.link_geometry(tx, rx, now) else {
            return 0.0;
        };
        let noise = self.params.noise_floor_dbm;
        let state = self.link_state(tx, rx);
        let shadow = state.shadow.sample_db(mid);
        let atten = state.gray.attenuation_db_at(now) + state.ge.attenuation_db_at(now);
        let snr = rxp + shadow - atten - noise;
        self.params.delivery_prob_from_snr(snr)
    }

    fn sample_delivery(&mut self, tx: NodeId, rx: NodeId, now: SimTime) -> bool {
        let p = self.delivery_prob(tx, rx, now);
        // Per-link Bernoulli stream: the draw is a pure function of the
        // link identity and how often *this* link has been sampled, never
        // of what other links did in between.
        self.link_state(tx, rx).sampler.chance(p)
    }

    fn quality_hint(&self, tx: NodeId, rx: NodeId, now: SimTime) -> f64 {
        self.slow_prob(tx, rx, now)
    }

    /// The grid lists over every radio node's position at the start of
    /// `sec` (see [`crate::contact`] for why they are exact).
    fn contacts(&self, sec: u64) -> ContactSecond {
        let bodies: Vec<Body> = self
            .nodes
            .iter()
            .filter_map(|&(id, _)| self.body(id, sec))
            .collect();
        let c = grid_contacts(sec, self.table.len(), &bodies, self.params.max_range_m);
        if cfg!(debug_assertions) {
            self.assert_covers(&c);
        }
        c
    }

    fn rssi_dbm(&mut self, tx: NodeId, rx: NodeId, now: SimTime) -> Option<f64> {
        let (rxp, mid) = self.link_geometry(tx, rx, now)?;
        let state = self.link_state(tx, rx);
        let shadow = state.shadow.sample_db(mid);
        let atten = state.gray.attenuation_db_at(now) + state.ge.attenuation_db_at(now);
        // ±1.5 dB measurement noise, quantized to 1 dB like real NIC
        // reports; drawn from the link's own stream.
        let noisy = rxp + shadow - atten + state.sampler.range_f64(-1.5, 1.5);
        Some(noisy.round())
    }

    fn nodes(&self) -> &[(NodeId, NodeKind)] {
        &self.nodes
    }

    fn rng(&mut self) -> &mut Rng {
        &mut self.sampler
    }
}

/// A series of per-second delivery probabilities for one directed link.
#[derive(Clone, Debug, Default)]
pub struct LossSeries {
    /// probs[i] is the delivery probability during second `i`.
    probs: Vec<f64>,
}

impl LossSeries {
    /// Build from per-second delivery probabilities.
    pub fn new(probs: Vec<f64>) -> Self {
        assert!(
            probs.iter().all(|p| (0.0..=1.0).contains(p)),
            "probabilities must be in [0,1]"
        );
        LossSeries { probs }
    }

    /// Delivery probability during the second containing `now` (0 outside
    /// the recorded window — no data means no connectivity, per §5.1).
    pub fn prob_at(&self, now: SimTime) -> f64 {
        self.probs
            .get(now.second_bin() as usize)
            .copied()
            .unwrap_or(0.0)
    }
}

/// Trace-driven channel (§5.1): per-second delivery probabilities per
/// directed link, plus the packet-scale fading the paper's QualNet layer
/// re-introduced on top of the mapped loss rates ("includes losses due to
/// mobility and multipath fading"). Each directed link carries an
/// independent Gilbert–Elliott chain; during a fade the per-second
/// delivery probability is attenuated in the same dB domain the physical
/// model uses, so the trace mean is respected while sub-second bursts
/// exist for diversity to exploit.
pub struct TraceLinkModel {
    nodes: Vec<(NodeId, NodeKind)>,
    /// Everything kept per directed link, in one slot.
    links: LinkTable<TraceLink>,
    ge_params: GeParams,
    master: Rng,
    sampler: Rng,
    /// Inverse-logistic RSSI synthesis parameters (for RSSI-based policies
    /// running over traces).
    radio: RadioParams,
}

/// One directed link of the trace model. Each part is created the first
/// time it is needed: the series when installed, the fade chain on the
/// first faded query, the sampling stream on the first sample.
#[derive(Default)]
struct TraceLink {
    series: Option<LossSeries>,
    fade: Option<GilbertElliott>,
    /// Per-link delivery-sampling stream, forked from the link identity
    /// (see the module docs on sampling independence).
    sampler: Option<Rng>,
}

impl TraceLinkModel {
    /// Create an empty trace model.
    pub fn new(rng: &Rng) -> Self {
        TraceLinkModel {
            nodes: Vec::new(),
            links: LinkTable::new(),
            ge_params: GeParams::default(),
            master: rng.fork_named("trace-fades"),
            sampler: rng.fork_named("trace-sampler"),
            radio: RadioParams::default(),
        }
    }

    /// Disable or retune the packet-scale fading layer.
    pub fn with_ge_params(mut self, p: GeParams) -> Self {
        self.ge_params = p;
        self
    }

    /// Apply the current fade state of a link to a per-second probability:
    /// probability → SNR (inverse logistic) → minus fade dB → probability.
    fn faded(&mut self, tx: NodeId, rx: NodeId, p: f64, now: SimTime) -> f64 {
        if p <= 0.0 || p >= 1.0 {
            // Dead links stay dead; perfect links have margin to spare.
            return p;
        }
        let master = &self.master;
        let params = self.ge_params;
        let ge = self
            .links
            .get_or_insert_with(tx, rx, TraceLink::default)
            .fade
            .get_or_insert_with(|| GilbertElliott::new(params, master.fork(link_label(tx, rx))));
        let atten = ge.attenuation_db_at(now);
        if atten == 0.0 {
            return p;
        }
        let pc = p.clamp(0.001, 0.999);
        let snr = self.radio.snr_p50_db + self.radio.snr_width_db * (pc / (1.0 - pc)).ln();
        self.radio.delivery_prob_from_snr(snr - atten)
    }

    /// Register a node.
    pub fn add_node(&mut self, id: NodeId, kind: NodeKind) {
        assert!(
            !self.nodes.iter().any(|(n, _)| *n == id),
            "duplicate node {id:?}"
        );
        self.nodes.push((id, kind));
    }

    /// Install the per-second delivery series for a directed link.
    pub fn set_series(&mut self, tx: NodeId, rx: NodeId, series: LossSeries) {
        self.links
            .get_or_insert_with(tx, rx, TraceLink::default)
            .series = Some(series);
    }

    /// Install the same series in both directions (the paper assumes
    /// symmetric vehicle↔BS loss in trace mode, §5.1).
    pub fn set_symmetric(&mut self, a: NodeId, b: NodeId, series: LossSeries) {
        self.set_series(a, b, series.clone());
        self.set_series(b, a, series);
    }

    /// The recorded series for a directed link, if any.
    pub fn series(&self, tx: NodeId, rx: NodeId) -> Option<&LossSeries> {
        self.links.get(tx, rx)?.series.as_ref()
    }
}

impl LinkModel for TraceLinkModel {
    fn delivery_prob(&mut self, tx: NodeId, rx: NodeId, now: SimTime) -> f64 {
        let base = self.quality_hint(tx, rx, now);
        self.faded(tx, rx, base, now)
    }

    fn sample_delivery(&mut self, tx: NodeId, rx: NodeId, now: SimTime) -> bool {
        let p = self.delivery_prob(tx, rx, now);
        let sampler_root = &self.sampler;
        self.links
            .get_or_insert_with(tx, rx, TraceLink::default)
            .sampler
            .get_or_insert_with(|| sampler_root.fork(link_label(tx, rx)))
            .chance(p)
    }

    fn quality_hint(&self, tx: NodeId, rx: NodeId, now: SimTime) -> f64 {
        self.series(tx, rx).map_or(0.0, |s| s.prob_at(now))
    }

    /// The pairs whose series give either direction a nonzero
    /// probability in second `sec` — exactly where `quality_hint` is
    /// nonzero, since a series holds one probability per second.
    fn contacts(&self, sec: u64) -> ContactSecond {
        let now = SimTime::from_secs(sec);
        let mut pairs = Vec::new();
        for (tx, row) in self.links.rows.iter().enumerate() {
            for (rx, &slot) in row.iter().enumerate() {
                let live = slot != NO_SLOT
                    && self.links.items[slot as usize]
                        .series
                        .as_ref()
                        .is_some_and(|s| s.prob_at(now) > 0.0);
                if live {
                    pairs.push((NodeId(tx as u32), NodeId(rx as u32)));
                }
            }
        }
        // Every id a node or a link end uses.
        let n = self
            .nodes
            .iter()
            .map(|&(id, _)| id.index() + 1)
            .chain(self.links.rows.iter().map(Vec::len))
            .chain([self.links.rows.len()])
            .max()
            .unwrap_or(0);
        ContactSecond::from_pairs(sec, n, pairs)
    }

    fn rssi_dbm(&mut self, tx: NodeId, rx: NodeId, now: SimTime) -> Option<f64> {
        let p = self.quality_hint(tx, rx, now);
        if p <= 0.0 {
            return None;
        }
        // Invert the logistic: snr = p50 + width · ln(p / (1-p)).
        let p = p.clamp(0.001, 0.999);
        let snr = self.radio.snr_p50_db + self.radio.snr_width_db * (p / (1.0 - p)).ln();
        Some((self.radio.noise_floor_dbm + snr).round())
    }

    fn nodes(&self) -> &[(NodeId, NodeKind)] {
        &self.nodes
    }

    fn rng(&mut self) -> &mut Rng {
        &mut self.sampler
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vifi_sim::SimDuration;

    fn two_node_model(d: f64) -> (PhysicalLinkModel, NodeId, NodeId) {
        let rng = Rng::new(42);
        let mut m = PhysicalLinkModel::new(RadioParams::default(), &rng);
        let bs = NodeId(0);
        let veh = NodeId(1);
        m.add_node(
            bs,
            NodeKind::Basestation,
            MobilitySource::Fixed(Point::new(0.0, 0.0)),
        );
        m.add_node(
            veh,
            NodeKind::Vehicle,
            MobilitySource::Fixed(Point::new(d, 0.0)),
        );
        (m, bs, veh)
    }

    #[test]
    fn close_link_delivers_often() {
        let (mut m, bs, veh) = two_node_model(30.0);
        let mut ok = 0;
        let n = 20_000;
        let mut t = SimTime::ZERO;
        for _ in 0..n {
            ok += m.sample_delivery(bs, veh, t) as u32;
            t += SimDuration::from_millis(10);
        }
        let rate = ok as f64 / n as f64;
        assert!(rate > 0.80, "close-range delivery {rate}");
    }

    #[test]
    fn physical_contacts_admit_near_pairs_only() {
        let (m, bs, veh) = two_node_model(30.0);
        assert!(m.contacts(0).contains(bs, veh));
        assert!(m.reachable(bs, 0, &[bs, veh]).eq([veh]));
        let (far, bs, veh) = two_node_model(RadioParams::default().max_range_m + 10.0);
        assert!(!far.contacts(0).contains(bs, veh));
        assert_eq!(far.reachable(bs, 0, &[veh]).count(), 0);
    }

    #[test]
    fn trace_contacts_follow_nonzero_seconds() {
        let mut m = TraceLinkModel::new(&Rng::new(1));
        m.add_node(NodeId(0), NodeKind::Vehicle);
        m.add_node(NodeId(1), NodeKind::Basestation);
        m.add_node(NodeId(2), NodeKind::Basestation);
        m.set_series(NodeId(1), NodeId(0), LossSeries::new(vec![0.0, 0.4, 0.0]));
        assert!(m.contacts(0).candidates(NodeId(0)).is_empty());
        // One direction with a nonzero probability admits the pair both ways.
        assert_eq!(m.contacts(1).candidates(NodeId(0)), &[NodeId(1)]);
        assert_eq!(m.contacts(1).candidates(NodeId(1)), &[NodeId(0)]);
        assert!(m.contacts(1).candidates(NodeId(2)).is_empty());
        assert!(
            m.contacts(7).candidates(NodeId(1)).is_empty(),
            "past the series"
        );
    }

    #[test]
    fn far_link_is_dead() {
        let (mut m, bs, veh) = two_node_model(RadioParams::default().max_range_m + 10.0);
        assert_eq!(m.delivery_prob(bs, veh, SimTime::ZERO), 0.0);
        assert_eq!(m.rssi_dbm(bs, veh, SimTime::ZERO), None);
        assert_eq!(m.quality_hint(bs, veh, SimTime::ZERO), 0.0);
    }

    /// Six nodes with an id gap (3 and 4 unused), registered in `order`.
    fn gapped_model(order: &[usize]) -> PhysicalLinkModel {
        let drive = |y: f64, offset_m: f64| {
            let route = Route::new(vec![Point::new(0.0, y), Point::new(900.0, y)], 12.0, false);
            MobilitySource::Mobile(route.with_start_offset(offset_m))
        };
        let at = |x: f64, y: f64| MobilitySource::Fixed(Point::new(x, y));
        let nodes = [
            (0, NodeKind::Basestation, at(0.0, 0.0)),
            (1, NodeKind::Vehicle, drive(20.0, 0.0)),
            (2, NodeKind::Basestation, at(300.0, 40.0)),
            (5, NodeKind::Vehicle, drive(-30.0, 150.0)),
            (6, NodeKind::Wired, at(0.0, 0.0)),
            (7, NodeKind::Basestation, at(650.0, 0.0)),
        ];
        let mut m = PhysicalLinkModel::new(RadioParams::default(), &Rng::new(11));
        for &i in order {
            let (id, kind, mobility) = nodes[i].clone();
            m.add_node(NodeId(id), kind, mobility);
        }
        m
    }

    #[test]
    fn dense_tables_ignore_registration_order_and_id_gaps() {
        let mut in_order = gapped_model(&[0, 1, 2, 3, 4, 5]);
        let mut shuffled = gapped_model(&[4, 1, 5, 0, 3, 2]);
        let ids: Vec<NodeId> = in_order.nodes().iter().map(|&(id, _)| id).collect();
        for k in 0..6 {
            let t = SimTime::from_secs(k * 9);
            for &a in &ids {
                assert_eq!(in_order.kind(a), shuffled.kind(a));
                assert_eq!(in_order.position(a, t), shuffled.position(a, t));
                for &b in &ids {
                    let (p, q) = (in_order.slow_prob(a, b, t), shuffled.slow_prob(a, b, t));
                    assert_eq!(p.to_bits(), q.to_bits(), "slow_prob {a:?}->{b:?} at {t:?}");
                }
            }
        }
        // Per-link sampling sequences agree draw for draw, although the
        // two models create and visit their links in opposite orders.
        let pairs: Vec<(NodeId, NodeId)> = ids
            .iter()
            .flat_map(|&a| ids.iter().filter(move |&&b| b != a).map(move |&b| (a, b)))
            .collect();
        let mut seq_in = vec![Vec::new(); pairs.len()];
        let mut seq_sh = vec![Vec::new(); pairs.len()];
        let mut t = SimTime::ZERO;
        for _ in 0..300 {
            for (i, &(a, b)) in pairs.iter().enumerate() {
                seq_in[i].push(in_order.sample_delivery(a, b, t));
            }
            for (i, &(a, b)) in pairs.iter().enumerate().rev() {
                seq_sh[i].push(shuffled.sample_delivery(a, b, t));
            }
            t += SimDuration::from_millis(30);
        }
        assert_eq!(seq_in, seq_sh);
        assert!(
            seq_in.iter().flatten().any(|&d| d),
            "some link in range delivers"
        );
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn kind_past_the_table_panics() {
        let m = gapped_model(&[0, 1, 2, 3, 4, 5]);
        let _ = m.kind(NodeId(40));
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn position_in_an_id_gap_panics() {
        let m = gapped_model(&[0, 1, 2, 3, 4, 5]);
        let _ = m.position(NodeId(3), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn position_past_the_table_panics() {
        let m = gapped_model(&[0, 1, 2, 3, 4, 5]);
        let _ = m.position(NodeId(40), SimTime::ZERO);
    }

    #[test]
    fn wired_nodes_have_no_radio() {
        let rng = Rng::new(1);
        let mut m = PhysicalLinkModel::new(RadioParams::default(), &rng);
        m.add_node(
            NodeId(0),
            NodeKind::Wired,
            MobilitySource::Fixed(Point::new(0.0, 0.0)),
        );
        m.add_node(
            NodeId(1),
            NodeKind::Vehicle,
            MobilitySource::Fixed(Point::new(1.0, 0.0)),
        );
        assert_eq!(m.delivery_prob(NodeId(0), NodeId(1), SimTime::ZERO), 0.0);
        assert_eq!(m.delivery_prob(NodeId(1), NodeId(0), SimTime::ZERO), 0.0);
    }

    #[test]
    fn burstiness_visible_at_midrange() {
        // At mid-range, consecutive losses should be strongly correlated —
        // the Fig. 6(a) property, measured through the full link stack.
        // Scan for a distance where the slow-scale link is good-but-not-
        // perfect (delivery ≈ 0.85), i.e. where fades dominate the losses;
        // the shadowing draw shifts where that point is per geometry.
        let params = RadioParams::default();
        let p50 = params.p50_distance_m(params.bs_tx_power_dbm);
        let mut chosen = None;
        for frac in [0.4, 0.5, 0.6, 0.7, 0.8, 0.9] {
            let (m, bs, veh) = two_node_model(p50 * frac);
            let sp = m.slow_prob(bs, veh, SimTime::ZERO);
            if (0.75..=0.97).contains(&sp) {
                chosen = Some(p50 * frac);
                break;
            }
        }
        let d = chosen.expect("some scanned distance has slow prob in 0.75..0.97");
        let (mut m, bs, veh) = two_node_model(d);
        let mut outcomes = Vec::new();
        let mut t = SimTime::ZERO;
        for _ in 0..200_000 {
            outcomes.push(!m.sample_delivery(bs, veh, t));
            t += SimDuration::from_millis(10);
        }
        let overall = outcomes.iter().filter(|&&l| l).count() as f64 / outcomes.len() as f64;
        let mut after_loss = 0u64;
        let mut losses = 0u64;
        for w in outcomes.windows(2) {
            if w[0] {
                losses += 1;
                after_loss += w[1] as u64;
            }
        }
        let cond = after_loss as f64 / losses.max(1) as f64;
        assert!(overall > 0.02 && overall < 0.9, "overall loss {overall}");
        assert!(
            cond > overall * 1.8,
            "conditional loss {cond} should exceed unconditional {overall}"
        );
    }

    #[test]
    fn loss_independent_across_two_bs() {
        // Fig. 6(b): loss from BS A says nothing about loss from BS B.
        let rng = Rng::new(7);
        let params = RadioParams::default();
        let d = params.p50_distance_m(params.bs_tx_power_dbm) * 0.7;
        let mut m = PhysicalLinkModel::new(params, &rng);
        let a = NodeId(0);
        let b = NodeId(1);
        let v = NodeId(2);
        m.add_node(
            a,
            NodeKind::Basestation,
            MobilitySource::Fixed(Point::new(-d, 0.0)),
        );
        m.add_node(
            b,
            NodeKind::Basestation,
            MobilitySource::Fixed(Point::new(d, 0.0)),
        );
        m.add_node(
            v,
            NodeKind::Vehicle,
            MobilitySource::Fixed(Point::new(0.0, 0.0)),
        );
        let mut t = SimTime::ZERO;
        let n = 100_000u64;
        let (mut la, mut lb, mut lab) = (0u64, 0u64, 0u64);
        for _ in 0..n {
            let fa = !m.sample_delivery(a, v, t);
            let fb = !m.sample_delivery(b, v, t);
            la += fa as u64;
            lb += fb as u64;
            lab += (fa && fb) as u64;
            t += SimDuration::from_millis(20);
        }
        let (pa, pb, pab) = (
            la as f64 / n as f64,
            lb as f64 / n as f64,
            lab as f64 / n as f64,
        );
        // Not exactly independent (shared geometry), but joint loss must be
        // close to the product — far from perfectly correlated.
        assert!(
            pab < 1.6 * pa * pb + 0.01,
            "joint loss {pab} vs product {}",
            pa * pb
        );
    }

    #[test]
    fn rssi_tracks_distance() {
        let (mut m_near, bs, veh) = two_node_model(20.0);
        let (mut m_far, bs2, veh2) = two_node_model(200.0);
        let near = m_near.rssi_dbm(bs, veh, SimTime::ZERO).unwrap();
        let far = m_far.rssi_dbm(bs2, veh2, SimTime::ZERO).unwrap();
        assert!(near > far, "RSSI near {near} vs far {far}");
    }

    #[test]
    fn sampling_is_per_link_and_instance_independent() {
        // The coupled sharded runtime builds one model instance per shard
        // from the same seed and lets each sample a disjoint set of links.
        // That only works if (a) sampling one link never perturbs another
        // and (b) two instances agree draw-for-draw per link.
        let build = || {
            let rng = Rng::new(77);
            let mut m = PhysicalLinkModel::new(RadioParams::default(), &rng);
            m.add_node(
                NodeId(0),
                NodeKind::Basestation,
                MobilitySource::Fixed(Point::new(0.0, 0.0)),
            );
            m.add_node(
                NodeId(1),
                NodeKind::Basestation,
                MobilitySource::Fixed(Point::new(150.0, 0.0)),
            );
            m.add_node(
                NodeId(2),
                NodeKind::Vehicle,
                MobilitySource::Fixed(Point::new(80.0, 40.0)),
            );
            m
        };
        // Instance A samples links (0→2) and (1→2) interleaved; instance
        // B samples only (0→2). The (0→2) sequences must coincide.
        let (mut a, mut b) = (build(), build());
        let mut t = SimTime::ZERO;
        let mut seq_a = Vec::new();
        let mut seq_b = Vec::new();
        for _ in 0..500 {
            seq_a.push(a.sample_delivery(NodeId(0), NodeId(2), t));
            let _ = a.sample_delivery(NodeId(1), NodeId(2), t); // extra traffic
            let _ = a.rssi_dbm(NodeId(1), NodeId(2), t);
            seq_b.push(b.sample_delivery(NodeId(0), NodeId(2), t));
            t += SimDuration::from_millis(10);
        }
        assert_eq!(seq_a, seq_b, "foreign-link traffic must not shift draws");
        // Same property for the trace model.
        let build_t = || {
            let rng = Rng::new(9);
            let mut m = TraceLinkModel::new(&rng);
            m.add_node(NodeId(0), NodeKind::Basestation);
            m.add_node(NodeId(1), NodeKind::Basestation);
            m.add_node(NodeId(2), NodeKind::Vehicle);
            m.set_series(NodeId(0), NodeId(2), LossSeries::new(vec![0.6; 10]));
            m.set_series(NodeId(1), NodeId(2), LossSeries::new(vec![0.6; 10]));
            m
        };
        let (mut a, mut b) = (build_t(), build_t());
        let mut t = SimTime::ZERO;
        for i in 0..500 {
            let da = a.sample_delivery(NodeId(0), NodeId(2), t);
            let _ = a.sample_delivery(NodeId(1), NodeId(2), t);
            let db = b.sample_delivery(NodeId(0), NodeId(2), t);
            assert_eq!(da, db, "trace draw {i} diverged");
            t += SimDuration::from_millis(10);
        }
    }

    #[test]
    fn physical_model_is_deterministic() {
        let run = || {
            let (mut m, bs, veh) = two_node_model(120.0);
            let mut out = Vec::new();
            let mut t = SimTime::ZERO;
            for _ in 0..1000 {
                out.push(m.sample_delivery(bs, veh, t));
                t += SimDuration::from_millis(10);
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trace_model_follows_series() {
        let rng = Rng::new(3);
        // Exactness test: fading layer off.
        let mut m = TraceLinkModel::new(&rng).with_ge_params(GeParams {
            fade_depth_db: 0.0,
            ..GeParams::default()
        });
        let a = NodeId(0);
        let b = NodeId(1);
        m.add_node(a, NodeKind::Basestation);
        m.add_node(b, NodeKind::Vehicle);
        m.set_symmetric(a, b, LossSeries::new(vec![1.0, 0.0, 0.5]));
        assert_eq!(m.delivery_prob(a, b, SimTime::from_millis(500)), 1.0);
        assert_eq!(m.delivery_prob(b, a, SimTime::from_millis(500)), 1.0);
        assert_eq!(m.delivery_prob(a, b, SimTime::from_millis(1500)), 0.0);
        assert_eq!(m.delivery_prob(a, b, SimTime::from_millis(2500)), 0.5);
        // Outside the window: dead.
        assert_eq!(m.delivery_prob(a, b, SimTime::from_secs(10)), 0.0);
        // Unknown link: dead.
        assert_eq!(m.delivery_prob(b, NodeId(9), SimTime::ZERO), 0.0);
    }

    #[test]
    fn trace_queries_past_every_row_are_dead() {
        let rng = Rng::new(3);
        let mut m = TraceLinkModel::new(&rng);
        let (a, b) = (NodeId(0), NodeId(1));
        m.add_node(a, NodeKind::Basestation);
        m.add_node(b, NodeKind::Vehicle);
        m.set_symmetric(a, b, LossSeries::new(vec![0.9; 5]));
        let t = SimTime::from_millis(500);
        // Past every row (transmitter), and past the end of a row
        // (receiver): no series, no quality, no delivery.
        for (tx, rx) in [(NodeId(7), a), (a, NodeId(7)), (NodeId(7), NodeId(8))] {
            assert!(m.series(tx, rx).is_none());
            assert_eq!(m.quality_hint(tx, rx, t), 0.0);
            assert_eq!(m.delivery_prob(tx, rx, t), 0.0);
        }
        assert!(m.series(a, b).is_some() && m.series(b, a).is_some());
    }

    #[test]
    fn trace_sampling_matches_rate() {
        let rng = Rng::new(5);
        let mut m = TraceLinkModel::new(&rng).with_ge_params(GeParams {
            fade_depth_db: 0.0,
            ..GeParams::default()
        });
        let a = NodeId(0);
        let b = NodeId(1);
        m.add_node(a, NodeKind::Basestation);
        m.add_node(b, NodeKind::Vehicle);
        m.set_series(a, b, LossSeries::new(vec![0.7; 100]));
        let mut ok = 0u64;
        let n = 50_000u64;
        let mut t = SimTime::ZERO;
        for _ in 0..n {
            ok += m.sample_delivery(a, b, t) as u64;
            t += SimDuration::from_millis(2);
        }
        let rate = ok as f64 / n as f64;
        assert!((rate - 0.7).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn trace_rssi_synthesized_monotone_in_prob() {
        let rng = Rng::new(5);
        let mut m = TraceLinkModel::new(&rng).with_ge_params(GeParams {
            fade_depth_db: 0.0,
            ..GeParams::default()
        });
        let a = NodeId(0);
        let b = NodeId(1);
        m.add_node(a, NodeKind::Basestation);
        m.add_node(b, NodeKind::Vehicle);
        m.set_series(a, b, LossSeries::new(vec![0.9, 0.3]));
        let hi = m.rssi_dbm(a, b, SimTime::from_millis(100)).unwrap();
        let lo = m.rssi_dbm(a, b, SimTime::from_millis(1100)).unwrap();
        assert!(hi > lo, "rssi {hi} vs {lo}");
        assert_eq!(m.rssi_dbm(b, a, SimTime::ZERO), None, "no series, no rssi");
    }

    #[test]
    fn trace_fading_layer_creates_bursts() {
        // With the QualNet-parity fading layer on, a steady 0.8 link shows
        // correlated sub-second losses and a mean below the trace value.
        let rng = Rng::new(6);
        let mut m = TraceLinkModel::new(&rng);
        let a = NodeId(0);
        let b = NodeId(1);
        m.add_node(a, NodeKind::Basestation);
        m.add_node(b, NodeKind::Vehicle);
        m.set_series(a, b, LossSeries::new(vec![0.8; 600]));
        let mut outcomes = Vec::new();
        let mut t = SimTime::ZERO;
        for _ in 0..50_000 {
            outcomes.push(!m.sample_delivery(a, b, t));
            t += SimDuration::from_millis(10);
        }
        let overall = outcomes.iter().filter(|&&l| l).count() as f64 / outcomes.len() as f64;
        assert!(
            overall > 0.2 && overall < 0.5,
            "mean loss with fades {overall}"
        );
        let mut after = 0u64;
        let mut losses = 0u64;
        for w in outcomes.windows(2) {
            if w[0] {
                losses += 1;
                after += w[1] as u64;
            }
        }
        let cond = after as f64 / losses.max(1) as f64;
        assert!(cond > overall * 1.5, "bursty: {cond} vs {overall}");
    }

    #[test]
    #[should_panic(expected = "duplicate node")]
    fn duplicate_node_panics() {
        let rng = Rng::new(1);
        let mut m = PhysicalLinkModel::new(RadioParams::default(), &rng);
        m.add_node(
            NodeId(0),
            NodeKind::Vehicle,
            MobilitySource::Fixed(Point::new(0.0, 0.0)),
        );
        m.add_node(
            NodeId(0),
            NodeKind::Vehicle,
            MobilitySource::Fixed(Point::new(0.0, 0.0)),
        );
    }

    #[test]
    #[should_panic(expected = "probabilities must be in")]
    fn loss_series_validates() {
        let _ = LossSeries::new(vec![0.5, 1.5]);
    }

    #[test]
    fn moving_vehicle_prob_changes_over_time() {
        let rng = Rng::new(9);
        let mut m = PhysicalLinkModel::new(RadioParams::default(), &rng);
        let bs = NodeId(0);
        let veh = NodeId(1);
        m.add_node(
            bs,
            NodeKind::Basestation,
            MobilitySource::Fixed(Point::new(0.0, 0.0)),
        );
        let route = Route::new(
            vec![Point::new(0.0, 10.0), Point::new(2000.0, 10.0)],
            10.0,
            false,
        );
        m.add_node(veh, NodeKind::Vehicle, MobilitySource::Mobile(route));
        let near = m.slow_prob(bs, veh, SimTime::ZERO);
        let far = m.slow_prob(bs, veh, SimTime::from_secs(35)); // 350 m away
        assert!(near > far, "prob must drop as the vehicle drives away");
        assert_eq!(m.slow_prob(bs, veh, SimTime::from_secs(100)), 0.0); // 1 km
    }
}
