//! The full-stack discrete-event simulation.
//!
//! One [`Simulation`] = one experiment run: a link model (physical or
//! trace-driven), the CSMA medium, the backplane, a ViFi/BRR endpoint per
//! radio node, one or more vehicles carrying application workloads, and an
//! Internet host behind a wired hop. Determinism: everything derives from
//! `(RunConfig, seed)`.
//!
//! Since PR 5 every coupled run executes on the **epoch-synchronized
//! engine** (`crate::engine`): nodes are grouped into shards, each shard
//! dispatches its own nodes' events, and all inter-node effects — frame
//! placement and reception, backplane messages, wired hops, packet-log
//! writes — cross at epoch barriers in canonically sorted batches. The
//! engine is the *same machine at every shard count*: `shards = 1` (the
//! default, and [`Simulation::run`]) is one shard on the calling thread,
//! and `shards >= 2` splits the same run across worker threads with
//! bit-identical results. Epoch boundaries come from an
//! [`vifi_sim::EpochSchedule`] whose lookahead is derived from
//! [`Scenario::contact_windows`]-style activity analysis plus the beacon
//! period: while the whole fleet is out of radio contact, shards run free
//! on a stretched quantum.
//!
//! ## Fleet runs
//!
//! By default only the first vehicle carries [`RunConfig::workload`] (the
//! paper's single instrumented vehicle); any further vehicles in the
//! scenario run the protocol as background channel occupants. Setting
//! [`RunConfig::fleet_workloads`] gives *every* vehicle its own workload
//! driver (vehicle *i* takes entry `i % len`), each with its own RNG
//! stream and its own wired path to the Internet host. The detailed
//! packet-level [`RunLog`] still follows the first vehicle's flows only —
//! it feeds the paper's per-packet tables — while per-vehicle outcomes
//! come back in [`RunOutcome::vehicles`].
//!
//! ## Sharded runs
//!
//! A single large fleet run can be sharded across cores with
//! [`RunConfig::shards`] and [`Simulation::run_sharded`]. The epoch engine
//! splits the *one* coupled run across shards — vehicles partitioned by
//! contact load ([`Scenario::shard_partition_by_contact`]), basestations
//! by contact-seconds ([`Scenario::bs_contact_seconds`]) — and the merged
//! [`RunOutcome`] is **bit-identical to the sequential `shards = 1` run**
//! at every shard and worker count (`tests/shard_equivalence.rs` enforces
//! it). `shards` is a pure execution knob: it changes how a run is
//! executed, never what it computes.

use std::collections::HashMap;

use vifi_core::VifiConfig;
use vifi_faults::{ChannelOverrides, FaultPlan};
use vifi_mac::{BackplaneParams, MacParams};
use vifi_phy::{NodeId, NodeKind, PhysicalLinkModel};
use vifi_sim::{EpochSchedule, HierarchicalSchedule, Rng, SimDuration};
use vifi_testbeds::trace::TraceSimSetup;
use vifi_testbeds::{BeaconTrace, Scenario};

use crate::engine::{self, CoupledTiming, EnginePartition, EngineSetup};
use crate::fingerprint::{Fingerprint, Fingerprintable};
use crate::logging::RunLog;
use crate::workload::{WorkloadReport, WorkloadSpec};

/// How [`Simulation::run_sharded`] decomposes a run. There is one
/// decomposition: the coupled run split across shards of the
/// epoch-synchronized engine, bit-identical to `shards = 1`. The type
/// remains so configs that name it keep compiling; it selects nothing.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ShardMode {
    /// One coupled run on the epoch-synchronized engine; preserves the
    /// shared medium and is bit-identical to `shards = 1`.
    #[default]
    Coupled,
}

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Protocol configuration (ViFi / BRR / ablations).
    pub vifi: VifiConfig,
    /// Application workload of the instrumented (first) vehicle.
    pub workload: WorkloadSpec,
    /// Fleet mode: when non-empty, every vehicle in the scenario gets its
    /// own workload driver — vehicle `i` (scenario order) takes entry
    /// `i % fleet_workloads.len()`, and `workload` is ignored. Empty
    /// (default) preserves the paper's setup: one instrumented vehicle,
    /// any others idle.
    pub fleet_workloads: Vec<WorkloadSpec>,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Run seed.
    pub seed: u64,
    /// MAC parameters.
    pub mac: MacParams,
    /// Backplane parameters.
    pub backplane: BackplaneParams,
    /// One-way wired delay between the anchor and the Internet host.
    /// Note: VoIP runs should keep this 0 — the VoIP scorer adds the
    /// paper's fixed 40 ms wired budget itself (§5.3.2).
    pub wired_delay: SimDuration,
    /// Execution sharding for [`Simulation::run_sharded`]: a pure
    /// execution knob. `1` (the default) is the sequential coupled run —
    /// `run_sharded` and [`Simulation::run`] are then the same path.
    /// `>= 2` splits the same run across engine shards (`0` = one shard
    /// per available core, floored at two so the code path never depends
    /// on the host); the outcome is bit-identical at every count. Ignored
    /// by plain [`Simulation::run`].
    pub shards: usize,
    /// No-op: [`ShardMode`] has a single variant. Kept so configs that
    /// set it keep compiling.
    pub shard_mode: ShardMode,
    /// Seeded fault schedule (basestation crashes, beacon suppression,
    /// backplane partitions/spikes, wired outages). Empty (the default)
    /// means an unfaulted run — bit-identical to a config predating the
    /// field. Fault events are applied at canonical points of the epoch
    /// engine, so a faulted outcome is invariant to shard count and
    /// worker count exactly like an unfaulted one.
    pub faults: FaultPlan,
    /// Scenario-level channel-process overrides (gray-period and
    /// Gilbert–Elliott parameters). `None`s (the default) keep the radio
    /// profile's own parameters.
    pub channel: ChannelOverrides,
    /// Force the flat (single-level) epoch schedule even when the
    /// scenario's contact graph decomposes into multiple clusters
    /// ([`Scenario::contact_clusters`]). By default (`false`) a coupled
    /// run on a multi-cluster scenario synchronizes hierarchically:
    /// fine barriers stay within each cluster, the whole fleet
    /// rendezvouses only at coarse boundaries where backplane coupling
    /// resolves. Each mode is deterministic and bit-identical across
    /// shard and worker counts, but the two are distinct models: nested
    /// runs delay backplane and wired coupling to the next coarse
    /// boundary (up to one coarse quantum), flat runs route it every
    /// fine epoch. This knob exists for A/B measurement (`fleet_sweep`)
    /// and as an escape hatch.
    pub flat_epochs: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            vifi: VifiConfig::default(),
            workload: WorkloadSpec::Idle,
            fleet_workloads: Vec::new(),
            duration: SimDuration::from_secs(60),
            seed: 1,
            mac: MacParams::default(),
            backplane: BackplaneParams::default(),
            wired_delay: SimDuration::from_millis(10),
            shards: 1,
            shard_mode: ShardMode::Coupled,
            faults: FaultPlan::default(),
            channel: ChannelOverrides::default(),
            flat_epochs: false,
        }
    }
}

/// Per-vehicle results of a (fleet) run — one entry per workload-carrying
/// vehicle, in scenario order.
#[derive(Clone, Debug)]
pub struct VehicleOutcome {
    /// The vehicle's node id.
    pub vehicle: NodeId,
    /// Its workload-level report.
    pub report: WorkloadReport,
    /// Anchor switches this vehicle performed.
    pub anchor_switches: u64,
    /// Downstream packets for this vehicle dropped for lack of an anchor.
    pub unroutable_down: u64,
}

/// Results of one run.
pub struct RunOutcome {
    /// Workload-level report of the instrumented (first) vehicle.
    pub report: WorkloadReport,
    /// Per-vehicle outcomes: one entry per workload-carrying vehicle (just
    /// the instrumented vehicle by default; all of them in fleet mode).
    pub vehicles: Vec<VehicleOutcome>,
    /// Packet-level log of the instrumented vehicle's flows (Tables 1/2,
    /// Fig. 12, PerfectRelay).
    pub log: RunLog,
    /// Anchor switches observed at the instrumented vehicle.
    pub anchor_switches: u64,
    /// Packets recovered through salvage at new anchors (all vehicles).
    pub salvaged: u64,
    /// Downstream app packets dropped because their vehicle had no anchor.
    pub unroutable_down: u64,
    /// Total events dispatched (performance accounting).
    pub events: u64,
    /// Total wireless frames transmitted.
    pub frames_tx: u64,
    /// Degradation observability: what the fault schedule actually did to
    /// this run (all-zero for unfaulted runs).
    pub faults: FaultStats,
}

/// Observability counters for fault injection and graceful degradation —
/// how often the [`RunConfig::faults`] schedule bit, and how the stack
/// absorbed it. Part of the outcome fingerprint, so the equivalence suite
/// pins fault behaviour across shard/worker counts too.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Basestations restarted at the end of a crash window.
    pub bs_restarts: u64,
    /// Beacons skipped because the sender was down or suppressed.
    pub beacons_suppressed: u64,
    /// Wireless receptions voided because the receiver was down.
    pub rx_dropped_down: u64,
    /// Backplane deliveries voided because an endpoint was down.
    pub backplane_dropped_down: u64,
    /// Backplane messages dropped after exhausting retries in a partition.
    pub bp_partition_drops: u64,
    /// Backplane messages lost to a latency/loss spike.
    pub bp_spike_drops: u64,
    /// Backplane retransmissions scheduled by the bounded-retry machinery.
    pub bp_retries: u64,
    /// Wired-path packets dropped during a wired outage.
    pub wired_drops: u64,
    /// Anchors evicted by the vehicle-side blacklist.
    pub blacklist_evictions: u64,
}

impl FaultStats {
    /// Accumulate another shard's (or run's) counters into this one.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.bs_restarts += other.bs_restarts;
        self.beacons_suppressed += other.beacons_suppressed;
        self.rx_dropped_down += other.rx_dropped_down;
        self.backplane_dropped_down += other.backplane_dropped_down;
        self.bp_partition_drops += other.bp_partition_drops;
        self.bp_spike_drops += other.bp_spike_drops;
        self.bp_retries += other.bp_retries;
        self.wired_drops += other.wired_drops;
        self.blacklist_evictions += other.blacklist_evictions;
    }

    /// Total backplane messages lost to injected faults.
    pub fn bp_drops(&self) -> u64 {
        self.bp_partition_drops + self.bp_spike_drops
    }
}

impl Fingerprintable for FaultStats {
    fn fingerprint_into(&self, fp: &mut Fingerprint) {
        fp.push_u64(self.bs_restarts);
        fp.push_u64(self.beacons_suppressed);
        fp.push_u64(self.rx_dropped_down);
        fp.push_u64(self.backplane_dropped_down);
        fp.push_u64(self.bp_partition_drops);
        fp.push_u64(self.bp_spike_drops);
        fp.push_u64(self.bp_retries);
        fp.push_u64(self.wired_drops);
        fp.push_u64(self.blacklist_evictions);
    }
}

/// The engine's sync quantum while any vehicle is (or may soon be) in
/// radio contact: the bound on how much later than requested a frame can
/// start airing.
const SYNC_QUANTUM: SimDuration = SimDuration::from_millis(1);

/// The stretched quantum while the whole fleet is out of contact (shards
/// "run free": nothing they queue can reach another node sooner anyway).
const QUIET_QUANTUM: SimDuration = SimDuration::from_millis(50);

/// What a `Simulation` simulates.
enum SimKind {
    /// Deployment mode: a scenario drives the physical channel.
    Deployment { scenario: Scenario },
    /// Trace-driven mode (§5.1): a beacon trace supplies the channel.
    Trace { trace: BeaconTrace },
}

/// The assembled simulation: configuration plus the channel source. The
/// actual state machine lives in `crate::engine`; `run` instantiates it
/// with a single shard.
pub struct Simulation {
    cfg: RunConfig,
    kind: SimKind,
}

impl Simulation {
    /// Deployment mode: build from a scenario (physical channel). The
    /// first vehicle is instrumented; any further vehicles run the
    /// protocol (beacons, anchoring) as background occupants of the
    /// channel.
    pub fn deployment(scenario: &Scenario, cfg: RunConfig) -> Self {
        scenario.validate();
        Simulation {
            cfg,
            kind: SimKind::Deployment {
                scenario: scenario.clone(),
            },
        }
    }

    /// Trace-driven mode (§5.1): build from a beacon trace.
    pub fn trace_driven(trace: &BeaconTrace, cfg: RunConfig) -> Self {
        Simulation {
            cfg,
            kind: SimKind::Trace {
                trace: trace.clone(),
            },
        }
    }

    /// Margin (seconds) the activity analysis dilates contact by: one
    /// second of intra-second motion plus at least one beacon period of
    /// staleness.
    fn activity_margin_s(cfg: &RunConfig) -> u64 {
        1 + cfg.vifi.beacon_period.as_secs().max(1)
    }

    /// Build the engine inputs for this simulation under `partition`.
    fn engine_setup(&self, partition: EnginePartition, workers: usize) -> EngineSetup {
        let cfg = self.cfg.clone();
        let horizon_s = cfg.duration.as_secs() + 1;
        let margin = Self::activity_margin_s(&cfg);
        let channel = cfg.channel;
        match &self.kind {
            SimKind::Deployment { scenario } => {
                let probe = scenario.build_link_model(&Rng::new(cfg.seed));
                let active = scenario.active_seconds(&probe, horizon_s, margin);
                let schedule = EpochSchedule::new(SYNC_QUANTUM, QUIET_QUANTUM, active);
                // Multi-cluster scenarios synchronize hierarchically: a
                // per-cluster fine schedule derived from the cluster's
                // own contact activity, coarse rendezvous fleet-wide.
                // The decomposition is a pure function of the scenario,
                // so the sequential run takes the same nested path as
                // every sharded run — bit-identity is by construction,
                // not by accident.
                let decomposition = scenario.contact_clusters(&probe);
                let nested =
                    !cfg.flat_epochs && decomposition.len() >= 2 && decomposition.len() <= 64;
                let (hierarchy, clusters) = if nested {
                    let actives = decomposition
                        .iter()
                        .map(|c| scenario.cluster_active_seconds(&probe, horizon_s, margin, c))
                        .collect();
                    (
                        Some(HierarchicalSchedule::new(
                            SYNC_QUANTUM,
                            QUIET_QUANTUM,
                            actives,
                        )),
                        decomposition,
                    )
                } else {
                    (None, Vec::new())
                };
                let scenario = scenario.clone();
                let seed = cfg.seed;
                EngineSetup {
                    vehicles: scenario.vehicle_ids(),
                    bs_ids: scenario.bs_ids(),
                    link_factory: Box::new(move || {
                        let mut link = scenario.build_link_model(&Rng::new(seed));
                        if let Some(g) = channel.gray {
                            link = link.with_gray_params(g);
                        }
                        if let Some(ge) = channel.ge {
                            link = link.with_ge_params(ge);
                        }
                        Box::new(link)
                    }),
                    schedule,
                    hierarchy,
                    clusters,
                    partition,
                    workers,
                    cfg,
                }
            }
            SimKind::Trace { trace } => {
                // Activity from the trace itself: seconds where at least
                // one BS was audible, dilated by the margin.
                let mut active: Vec<(u64, u64)> = Vec::new();
                for (sec, n) in trace.visible_per_second(0.0).iter().enumerate() {
                    if *n == 0 {
                        continue;
                    }
                    let lo = (sec as u64).saturating_sub(margin);
                    let hi = sec as u64 + margin + 1;
                    match active.last_mut() {
                        Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                        _ => active.push((lo, hi)),
                    }
                }
                let schedule = EpochSchedule::new(SYNC_QUANTUM, QUIET_QUANTUM, active);
                let probe = TraceSimSetup::from_trace(trace, &Rng::new(cfg.seed));
                let trace = trace.clone();
                let seed = cfg.seed;
                EngineSetup {
                    vehicles: vec![probe.vehicle],
                    bs_ids: probe.bs_ids.clone(),
                    link_factory: Box::new(move || {
                        let mut link = TraceSimSetup::from_trace(&trace, &Rng::new(seed)).link;
                        if let Some(ge) = channel.ge {
                            link = link.with_ge_params(ge);
                        }
                        Box::new(link)
                    }),
                    schedule,
                    hierarchy: None,
                    clusters: Vec::new(),
                    partition,
                    workers,
                    cfg,
                }
            }
        }
    }

    /// All radio nodes of this simulation (vehicles + basestations).
    fn all_nodes(&self) -> Vec<NodeId> {
        match &self.kind {
            SimKind::Deployment { scenario } => {
                let mut v = scenario.vehicle_ids();
                v.extend(scenario.bs_ids());
                v
            }
            SimKind::Trace { trace } => {
                let probe = TraceSimSetup::from_trace(trace, &Rng::new(self.cfg.seed));
                let mut v = vec![probe.vehicle];
                v.extend(probe.bs_ids);
                v
            }
        }
    }

    /// Run to completion and produce the outcome: the epoch engine with a
    /// single shard on the calling thread — the sequential coupled run
    /// every sharded run is measured against.
    pub fn run(self) -> RunOutcome {
        let partition = EnginePartition::single(self.all_nodes());
        let setup = self.engine_setup(partition, 1);
        engine::run(setup).0
    }
}

// ---------------------------------------------------------------------
// Sharded execution
// ---------------------------------------------------------------------

/// One shard of a sharded run: the disjoint node set it owns — its
/// vehicles *and* an exclusive slice of the basestations.
#[derive(Clone, Debug)]
pub struct ShardAssignment {
    /// Vehicles owned by this shard.
    pub vehicles: Vec<NodeId>,
    /// Basestations owned by this shard: every BS is owned by exactly one
    /// shard, balanced by contact-seconds.
    pub basestations: Vec<NodeId>,
}

/// The deterministic execution plan of a sharded run.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// One assignment per shard, in shard order (trailing shards may be
    /// empty when the shard count exceeds the node count).
    pub assignments: Vec<ShardAssignment>,
}

/// Resolve the configured shard count: `0` means one shard per available
/// core, floored at two so `0` always selects the sharded execution —
/// were a single-core host to resolve to `1`, the same config would take
/// a different code path on different machines.
fn resolve_shards(shards: usize) -> usize {
    if shards == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .max(2)
    } else {
        shards
    }
}

/// Build the deterministic shard plan for `(scenario, cfg)`: *all*
/// vehicles (background occupants too — the engine simulates the whole
/// scenario) partitioned by contact load
/// ([`Scenario::shard_partition_by_contact`]), plus every basestation
/// assigned to exactly one shard, heaviest-first by
/// [`Scenario::bs_contact_seconds`] onto the lightest shard. A pure
/// function of its inputs; and since the engine's outcome is invariant to
/// the partition, the assignment is purely a load-balancing choice.
///
/// On a multi-cluster scenario ([`Scenario::contact_clusters`], unless
/// [`RunConfig::flat_epochs`]) placement is cluster-first so the nested
/// barrier hierarchy pays off: whole clusters are placed onto shards
/// before load is LPT-balanced within them. With at least one shard per
/// cluster each cluster gets a contiguous, exclusive shard range (shard
/// counts proportional to cluster contact load, everyone at least one)
/// and its vehicles/basestations are balanced across that range alone;
/// with fewer shards than clusters, whole clusters go LPT onto shards so
/// no cluster straddles a shard boundary needlessly.
pub fn plan_shards(scenario: &Scenario, cfg: &RunConfig) -> ShardPlan {
    let shards = resolve_shards(cfg.shards).max(1);
    let link = scenario.build_link_model(&Rng::new(cfg.seed));
    let clusters = if cfg.flat_epochs {
        Vec::new()
    } else {
        scenario.contact_clusters(&link)
    };
    if clusters.len() >= 2 {
        return plan_coupled_clustered(scenario, &link, &clusters, shards);
    }
    let vgroups = scenario.shard_partition_by_contact(shards, &link, 0.1);
    // Basestations: longest-processing-time by contact seconds.
    let mut weights = scenario.bs_contact_seconds(&link, 0.1);
    weights.sort_by_key(|&(bs, w)| (std::cmp::Reverse(w), bs));
    let mut bs_groups: Vec<Vec<NodeId>> = vec![Vec::new(); shards];
    let mut loads = vec![0u64; shards];
    for (bs, w) in weights {
        let lightest = (0..shards)
            .min_by_key(|&s| (loads[s], s))
            .expect(">=1 shard");
        loads[lightest] += w;
        bs_groups[lightest].push(bs);
    }
    ShardPlan {
        assignments: vgroups
            .into_iter()
            .zip(bs_groups)
            .map(|(vehicles, basestations)| ShardAssignment {
                vehicles,
                basestations,
            })
            .collect(),
    }
}

/// Cluster-first coupled placement for multi-cluster scenarios: decide
/// which shards host each cluster, then LPT-balance each cluster's load
/// across its own shards. Keeping every cluster on an exclusive shard
/// range (when shards allow) is what lets the nested barrier hierarchy
/// run clusters without stalling each other; the plan stays a pure
/// function of `(scenario, link, clusters, shards)` and — like every
/// coupled plan — only a load-balancing choice, never a semantic one.
fn plan_coupled_clustered(
    scenario: &Scenario,
    link: &PhysicalLinkModel,
    clusters: &[Vec<NodeId>],
    shards: usize,
) -> ShardPlan {
    // Per-node contact weights — the same load proxies the flat planner
    // uses (vehicle contact seconds, BS contact seconds).
    let bs_w: HashMap<NodeId, u64> = scenario.bs_contact_seconds(link, 0.1).into_iter().collect();
    let nc = clusters.len();
    let mut members: Vec<(Vec<(u64, NodeId)>, Vec<(u64, NodeId)>)> = Vec::with_capacity(nc);
    let mut cluster_w: Vec<u64> = Vec::with_capacity(nc);
    for c in clusters {
        let mut vs = Vec::new();
        let mut bs = Vec::new();
        let mut w = 0u64;
        for &n in c {
            if let Some(&bw) = bs_w.get(&n) {
                bs.push((bw, n));
                w += bw;
            } else {
                let vw: u64 = scenario
                    .contact_windows(n, link, 0.1)
                    .iter()
                    .map(|&(a, b)| b - a)
                    .sum();
                vs.push((vw, n));
                w += vw;
            }
        }
        members.push((vs, bs));
        cluster_w.push(w);
    }
    // Which shards host each cluster.
    let mut host: Vec<Vec<usize>> = vec![Vec::new(); nc];
    if shards < nc {
        // Fewer shards than clusters: whole clusters LPT onto shards,
        // heaviest first — a cluster never straddles a shard boundary.
        let mut order: Vec<usize> = (0..nc).collect();
        order.sort_by_key(|&c| (std::cmp::Reverse(cluster_w[c]), c));
        let mut loads = vec![0u64; shards];
        for c in order {
            let lightest = (0..shards)
                .min_by_key(|&s| (loads[s], s))
                .expect(">=1 shard");
            loads[lightest] += cluster_w[c];
            host[c] = vec![lightest];
        }
    } else {
        // At least one shard per cluster: shard counts proportional to
        // cluster weight by largest remainder (everyone keeps their
        // guaranteed one), contiguous shard-id ranges in cluster order.
        let total: u128 = cluster_w.iter().map(|&w| w as u128).sum::<u128>().max(1);
        let extra = shards - nc;
        let mut counts = vec![1usize; nc];
        let mut given = 0usize;
        let mut rem: Vec<(u128, usize)> = Vec::with_capacity(nc);
        for c in 0..nc {
            let exact = extra as u128 * cluster_w[c] as u128;
            let q = (exact / total) as usize;
            counts[c] += q;
            given += q;
            rem.push((exact % total, c));
        }
        rem.sort_by_key(|&(r, c)| (std::cmp::Reverse(r), c));
        for &(_, c) in rem.iter().take(extra - given) {
            counts[c] += 1;
        }
        let mut start = 0usize;
        for c in 0..nc {
            host[c] = (start..start + counts[c]).collect();
            start += counts[c];
        }
        debug_assert_eq!(start, shards);
    }
    // Within each cluster: vehicles LPT across the cluster's shards, BSes
    // LPT independently (mirroring the flat planner's separate ledgers).
    let mut vehicles_of: Vec<Vec<NodeId>> = vec![Vec::new(); shards];
    let mut bs_of: Vec<Vec<NodeId>> = vec![Vec::new(); shards];
    for (c, (mut vs, mut bs)) in members.into_iter().enumerate() {
        let hosts = &host[c];
        vs.sort_by_key(|&(w, v)| (std::cmp::Reverse(w), v));
        let mut loads = vec![0u64; hosts.len()];
        for (w, v) in vs {
            let k = (0..hosts.len())
                .min_by_key(|&k| (loads[k], k))
                .expect("cluster hosts at least one shard");
            loads[k] += w;
            vehicles_of[hosts[k]].push(v);
        }
        bs.sort_by_key(|&(w, b)| (std::cmp::Reverse(w), b));
        let mut loads = vec![0u64; hosts.len()];
        for (w, b) in bs {
            let k = (0..hosts.len())
                .min_by_key(|&k| (loads[k], k))
                .expect("cluster hosts at least one shard");
            loads[k] += w;
            bs_of[hosts[k]].push(b);
        }
    }
    ShardPlan {
        assignments: vehicles_of
            .into_iter()
            .zip(bs_of)
            .map(|(vehicles, basestations)| ShardAssignment {
                vehicles,
                basestations,
            })
            .collect(),
    }
}

impl Simulation {
    /// Run `(scenario, cfg)` sharded across up to [`RunConfig::shards`]
    /// worker threads and return the merged outcome — bit-identical to
    /// the sequential [`Simulation::run`] at every shard count, which is
    /// also what `shards <= 1` takes directly.
    pub fn run_sharded(scenario: &Scenario, cfg: RunConfig) -> RunOutcome {
        if resolve_shards(cfg.shards) <= 1 {
            return Simulation::deployment(scenario, cfg).run();
        }
        Self::run_coupled_timed(scenario, cfg, None).0
    }

    /// Run one sharded experiment, returning the outcome plus the
    /// engine's wall-clock breakdown (per-shard epoch work and the serial
    /// coordinator share). `workers` overrides the worker-thread count —
    /// `Some(1)` executes every shard on the calling thread, which is how
    /// the fleet sweep measures honest per-shard walls on small hosts;
    /// `None` uses one thread per shard up to the host's parallelism
    /// (floored at two, so the threaded path is really exercised). The
    /// outcome is bit-identical for every worker count.
    pub fn run_coupled_timed(
        scenario: &Scenario,
        cfg: RunConfig,
        workers: Option<usize>,
    ) -> (RunOutcome, CoupledTiming) {
        let plan = plan_shards(scenario, &cfg);
        let partition = EnginePartition {
            lanes: plan
                .assignments
                .iter()
                .map(|a| {
                    let mut lane = a.vehicles.clone();
                    lane.extend(a.basestations.iter().copied());
                    lane
                })
                .collect(),
        };
        let workers = workers.unwrap_or_else(|| {
            partition.lanes.len().min(
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
                    .max(2),
            )
        });
        let sim = Simulation::deployment(scenario, cfg);
        let setup = sim.engine_setup(partition, workers);
        engine::run(setup)
    }
}

impl Fingerprintable for VehicleOutcome {
    fn fingerprint_into(&self, fp: &mut Fingerprint) {
        fp.push_u64(self.vehicle.label());
        self.report.fingerprint_into(fp);
        fp.push_u64(self.anchor_switches);
        fp.push_u64(self.unroutable_down);
    }
}

impl Fingerprintable for RunOutcome {
    fn fingerprint_into(&self, fp: &mut Fingerprint) {
        self.report.fingerprint_into(fp);
        fp.push_len(self.vehicles.len());
        for v in &self.vehicles {
            v.fingerprint_into(fp);
        }
        self.log.fingerprint_into(fp);
        fp.push_u64(self.anchor_switches);
        fp.push_u64(self.salvaged);
        fp.push_u64(self.unroutable_down);
        fp.push_u64(self.events);
        fp.push_u64(self.frames_tx);
        self.faults.fingerprint_into(fp);
    }
}

impl RunOutcome {
    /// Canonical digest of every observable field of this outcome (probe
    /// outcomes, delays, log records, counters; floats by bit pattern).
    /// Two outcomes with equal fingerprints are bit-identical for every
    /// purpose the evaluation reads — this is the equality the
    /// shard-equivalence suite asserts.
    pub fn fingerprint(&self) -> u64 {
        Fingerprintable::fingerprint(self)
    }
}

/// Kind of a node in this simulation (diagnostic helper).
pub fn node_kind_name(kind: NodeKind) -> &'static str {
    match kind {
        NodeKind::Vehicle => "vehicle",
        NodeKind::Basestation => "basestation",
        NodeKind::Wired => "wired",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vifi_sim::SimDuration;
    use vifi_testbeds::{dieselnet_ch1, generate_beacon_trace, vanlan};

    fn quick_cfg(workload: WorkloadSpec, secs: u64, seed: u64) -> RunConfig {
        RunConfig {
            workload,
            duration: SimDuration::from_secs(secs),
            seed,
            ..RunConfig::default()
        }
    }

    #[test]
    fn idle_run_beacons_flow() {
        let s = vanlan(1);
        let sim = Simulation::deployment(&s, quick_cfg(WorkloadSpec::Idle, 20, 1));
        let out = sim.run();
        assert!(out.events > 100, "events {}", out.events);
        assert!(out.frames_tx > 100, "beacons on the air: {}", out.frames_tx);
        assert!(matches!(out.report, WorkloadReport::Idle));
    }

    #[test]
    fn cbr_run_delivers_probes() {
        let s = vanlan(1);
        let sim = Simulation::deployment(&s, quick_cfg(WorkloadSpec::paper_cbr(), 120, 2));
        let out = sim.run();
        let stats = match out.report {
            WorkloadReport::Cbr(c) => c,
            other => panic!("wrong report {other:?}"),
        };
        // 120 s at 10 Hz each way (the tick at exactly t = 120 s also
        // fires, hence the +1).
        assert!(
            (1200..=1201).contains(&stats.up.len()),
            "{}",
            stats.up.len()
        );
        assert!(
            (1200..=1201).contains(&stats.down.len()),
            "{}",
            stats.down.len()
        );
        // The van drives through campus in the first two minutes: a good
        // chunk of probes must get through.
        let delivered = stats.total_delivered();
        assert!(delivered > 200, "delivered {delivered}");
        assert!(delivered < 2400, "not everything is reachable");
    }

    #[test]
    fn deterministic_replay() {
        let s = vanlan(1);
        let run = |seed| {
            let sim = Simulation::deployment(&s, quick_cfg(WorkloadSpec::paper_cbr(), 60, seed));
            let out = sim.run();
            match out.report {
                WorkloadReport::Cbr(c) => (c.total_delivered(), out.events, out.frames_tx),
                _ => unreachable!(),
            }
        };
        assert_eq!(run(7), run(7), "same seed, same run");
        assert_ne!(run(7), run(8), "different seed, different run");
    }

    #[test]
    fn vifi_beats_brr_on_cbr_delivery() {
        let s = vanlan(1);
        let run = |vifi: VifiConfig| {
            let cfg = RunConfig {
                vifi,
                ..quick_cfg(WorkloadSpec::paper_cbr(), 180, 3)
            };
            let out = Simulation::deployment(&s, cfg).run();
            match out.report {
                WorkloadReport::Cbr(c) => c.total_delivered(),
                _ => unreachable!(),
            }
        };
        let vifi = run(VifiConfig::default().without_retx());
        let brr = run(VifiConfig::brr_baseline().without_retx());
        assert!(
            vifi > brr,
            "diversity must deliver more: ViFi {vifi} vs BRR {brr}"
        );
    }

    #[test]
    fn relaying_happens_and_is_logged() {
        let s = vanlan(1);
        let out = Simulation::deployment(&s, quick_cfg(WorkloadSpec::paper_cbr(), 180, 4)).run();
        let relays: usize = out.log.records.iter().map(|r| r.relays.len()).sum();
        assert!(relays > 0, "some packets must be relayed");
        let decisions: usize = out.log.records.iter().map(|r| r.decisions.len()).sum();
        assert!(decisions >= relays);
        // Upstream relays ride the backplane, downstream ones the air.
        let up_air = out
            .log
            .records
            .iter()
            .filter(|r| r.dir == vifi_core::Direction::Upstream)
            .flat_map(|r| r.relays.iter())
            .filter(|f| !f.via_backplane)
            .count();
        assert_eq!(up_air, 0, "upstream relays never use the air");
    }

    #[test]
    fn anchor_switches_under_mobility() {
        let s = vanlan(1);
        let out = Simulation::deployment(&s, quick_cfg(WorkloadSpec::Idle, 200, 5)).run();
        assert!(
            out.anchor_switches >= 1,
            "driving across campus must switch anchors"
        );
    }

    #[test]
    fn trace_driven_mode_runs() {
        let s = dieselnet_ch1();
        let veh = s.vehicle_ids()[0];
        let trace = generate_beacon_trace(&s, veh, SimDuration::from_secs(150), 10, &Rng::new(6));
        let out =
            Simulation::trace_driven(&trace, quick_cfg(WorkloadSpec::paper_cbr(), 150, 6)).run();
        let stats = match out.report {
            WorkloadReport::Cbr(c) => c,
            _ => unreachable!(),
        };
        assert!(stats.total_delivered() > 50, "{}", stats.total_delivered());
    }

    #[test]
    fn tcp_workload_completes_transfers() {
        let s = vanlan(1);
        let out = Simulation::deployment(&s, quick_cfg(WorkloadSpec::paper_tcp(), 180, 7)).run();
        let stats = match out.report {
            WorkloadReport::Tcp(t) => t,
            _ => unreachable!(),
        };
        let total = stats.down.transfer_times.len() + stats.up.transfer_times.len();
        assert!(total > 3, "completed transfers {total}");
    }

    #[test]
    fn voip_workload_scores() {
        let s = vanlan(1);
        let cfg = RunConfig {
            wired_delay: SimDuration::ZERO, // the scorer adds the fixed 40 ms
            ..quick_cfg(WorkloadSpec::Voip, 120, 8)
        };
        let out = Simulation::deployment(&s, cfg).run();
        let stats = match out.report {
            WorkloadReport::Voip(v) => v,
            _ => unreachable!(),
        };
        assert!(!stats.down.scores.is_empty());
        // While on campus some windows must be decent.
        assert!(
            stats.down.scores.iter().any(|w| w.mos > 3.0),
            "some good windows expected"
        );
    }

    #[test]
    fn efficiency_ledgers_populate() {
        let s = vanlan(1);
        let out = Simulation::deployment(&s, quick_cfg(WorkloadSpec::paper_cbr(), 120, 9)).run();
        assert!(out.log.ledger_up.wireless_tx > 0);
        assert!(out.log.ledger_down.wireless_tx > 0);
        let eff_up = out.log.ledger_up.efficiency();
        let eff_down = out.log.ledger_down.efficiency();
        assert!(eff_up > 0.0 && eff_up <= 1.0, "up {eff_up}");
        assert!(eff_down > 0.0 && eff_down <= 1.0, "down {eff_down}");
    }

    #[test]
    fn fleet_runs_give_every_vehicle_a_workload() {
        let s = vanlan(3);
        let cfg = RunConfig {
            fleet_workloads: vec![WorkloadSpec::paper_cbr()],
            ..quick_cfg(WorkloadSpec::Idle, 60, 11)
        };
        let out = Simulation::deployment(&s, cfg).run();
        assert_eq!(out.vehicles.len(), 3);
        let mut carrying = 0;
        for v in &out.vehicles {
            let c = match &v.report {
                WorkloadReport::Cbr(c) => c,
                other => panic!("every van runs CBR, got {other:?}"),
            };
            assert!(c.total_sent() > 500, "sent {}", c.total_sent());
            if c.total_delivered() > 0 {
                carrying += 1;
            }
        }
        // The vans are phase-spread: not all are in coverage during the
        // first minute, but at least one must deliver.
        assert!(carrying >= 1);
        // The primary report mirrors vehicles[0].
        assert_eq!(
            out.report.as_cbr().unwrap().total_delivered(),
            out.vehicles[0].report.as_cbr().unwrap().total_delivered()
        );
    }

    #[test]
    fn fleet_workloads_cycle_across_vehicles() {
        let s = vanlan(2);
        let cfg = RunConfig {
            fleet_workloads: vec![WorkloadSpec::paper_cbr(), WorkloadSpec::Idle],
            ..quick_cfg(WorkloadSpec::Idle, 30, 12)
        };
        let out = Simulation::deployment(&s, cfg).run();
        assert!(matches!(out.vehicles[0].report, WorkloadReport::Cbr(_)));
        assert!(matches!(out.vehicles[1].report, WorkloadReport::Idle));
    }

    #[test]
    fn fleet_mode_is_deterministic() {
        let s = vanlan(2);
        let run = |seed| {
            let cfg = RunConfig {
                fleet_workloads: vec![WorkloadSpec::paper_cbr()],
                ..quick_cfg(WorkloadSpec::Idle, 60, seed)
            };
            let out = Simulation::deployment(&s, cfg).run();
            let per: Vec<u64> = out
                .vehicles
                .iter()
                .map(|v| v.report.as_cbr().unwrap().total_delivered())
                .collect();
            (per, out.events, out.frames_tx)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn default_mode_instruments_only_first_vehicle() {
        // Without fleet_workloads a multi-vehicle scenario behaves as
        // before: one workload host, background vans only beacon.
        let s = vanlan(2);
        let out = Simulation::deployment(&s, quick_cfg(WorkloadSpec::paper_cbr(), 30, 13)).run();
        assert_eq!(out.vehicles.len(), 1);
        assert_eq!(out.vehicles[0].vehicle, s.vehicle_ids()[0]);
        assert!(matches!(out.report, WorkloadReport::Cbr(_)));
    }

    #[test]
    fn fleet_aggregate_cbr_sums_vehicles() {
        let s = vanlan(2);
        let cfg = RunConfig {
            fleet_workloads: vec![WorkloadSpec::paper_cbr()],
            ..quick_cfg(WorkloadSpec::Idle, 40, 14)
        };
        let out = Simulation::deployment(&s, cfg).run();
        let agg = crate::workload::aggregate_cbr(out.vehicles.iter().map(|v| &v.report));
        let sum_sent: u64 = out
            .vehicles
            .iter()
            .map(|v| v.report.as_cbr().unwrap().total_sent())
            .sum();
        assert_eq!(agg.total_sent(), sum_sent);
    }

    #[test]
    fn coupled_plan_covers_every_node_exactly_once() {
        let s = vanlan(4);
        let cfg = RunConfig {
            fleet_workloads: vec![WorkloadSpec::paper_cbr()],
            shards: 3,
            ..quick_cfg(WorkloadSpec::Idle, 10, 1)
        };
        let plan = plan_shards(&s, &cfg);
        assert_eq!(plan.assignments.len(), 3);
        let mut vehicles: Vec<NodeId> = plan
            .assignments
            .iter()
            .flat_map(|a| a.vehicles.iter().copied())
            .collect();
        vehicles.sort_by_key(|n| n.index());
        assert_eq!(vehicles, s.vehicle_ids(), "all vehicles, background too");
        let mut bs: Vec<NodeId> = plan
            .assignments
            .iter()
            .flat_map(|a| a.basestations.iter().copied())
            .collect();
        bs.sort_by_key(|n| n.index());
        assert_eq!(bs, s.bs_ids(), "every BS owned by exactly one shard");
        // Deterministic plan.
        let again = plan_shards(&s, &cfg);
        for (a, b) in plan.assignments.iter().zip(&again.assignments) {
            assert_eq!(a.vehicles, b.vehicles);
            assert_eq!(a.basestations, b.basestations);
        }
    }

    #[test]
    fn coupled_mode_is_bit_identical_to_sequential() {
        // The headline property, in miniature (the full grid lives in
        // tests/shard_equivalence.rs): sharded runs reproduce the
        // sequential coupled run bit for bit, at any worker count.
        let s = vanlan(2);
        let cfg = RunConfig {
            fleet_workloads: vec![WorkloadSpec::paper_cbr()],
            ..quick_cfg(WorkloadSpec::Idle, 12, 21)
        };
        let sequential = Simulation::deployment(&s, cfg.clone()).run().fingerprint();
        for shards in [2usize, 3] {
            let coupled = Simulation::run_sharded(
                &s,
                RunConfig {
                    shards,
                    ..cfg.clone()
                },
            )
            .fingerprint();
            assert_eq!(coupled, sequential, "shards={shards}");
        }
        // Worker count is also irrelevant (serial vs threaded executor).
        let (serial, _) = Simulation::run_coupled_timed(
            &s,
            RunConfig {
                shards: 2,
                ..cfg.clone()
            },
            Some(1),
        );
        assert_eq!(serial.fingerprint(), sequential);
    }

    #[test]
    fn single_vehicle_sharded_is_bit_identical_to_sequential() {
        // The paper's setup (one instrumented vehicle) under any shard
        // count replays the sequential run exactly, including shard
        // counts that leave some shards without a vehicle.
        let s = vanlan(1);
        let cfg = quick_cfg(WorkloadSpec::paper_cbr(), 40, 9);
        let sequential = Simulation::deployment(&s, cfg.clone()).run();
        for shards in [2usize, 3] {
            let sharded = Simulation::run_sharded(
                &s,
                RunConfig {
                    shards,
                    ..cfg.clone()
                },
            );
            assert_eq!(
                sharded.fingerprint(),
                sequential.fingerprint(),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn sharded_fleet_merges_in_vehicle_order() {
        let s = vanlan(3);
        let cfg = RunConfig {
            fleet_workloads: vec![WorkloadSpec::paper_cbr()],
            shards: 2,
            ..quick_cfg(WorkloadSpec::Idle, 30, 4)
        };
        let out = Simulation::run_sharded(&s, cfg);
        assert_eq!(out.vehicles.len(), 3);
        let ids: Vec<NodeId> = out.vehicles.iter().map(|v| v.vehicle).collect();
        assert_eq!(ids, s.vehicle_ids(), "merged outcomes in vehicle order");
        // The primary report and switch counter mirror vehicle 0, counters
        // sum across vehicles.
        assert_eq!(
            out.report.as_cbr().unwrap().total_delivered(),
            out.vehicles[0].report.as_cbr().unwrap().total_delivered()
        );
        assert_eq!(out.anchor_switches, out.vehicles[0].anchor_switches);
        assert_eq!(
            out.unroutable_down,
            out.vehicles.iter().map(|v| v.unroutable_down).sum::<u64>()
        );
    }

    #[test]
    fn sharded_runs_are_invariant_to_shard_count() {
        // Default-mode configs: `shards` is an execution knob, so every
        // count reproduces the sequential `Simulation::run` of the same
        // config.
        let s = vanlan(4);
        let cfg = RunConfig {
            fleet_workloads: vec![WorkloadSpec::paper_cbr()],
            ..quick_cfg(WorkloadSpec::Idle, 30, 6)
        };
        let run = |shards| {
            Simulation::run_sharded(
                &s,
                RunConfig {
                    shards,
                    ..cfg.clone()
                },
            )
            .fingerprint()
        };
        let sequential = Simulation::deployment(&s, cfg.clone()).run().fingerprint();
        assert_eq!(run(2), sequential, "parallel == sequential run");
        assert_eq!(run(3), sequential);
        assert_eq!(run(8), sequential, "more shards than vehicles");
    }

    #[test]
    fn salvaging_counts_with_tcp() {
        let s = vanlan(1);
        // Long enough to cross anchor changes mid-transfer.
        let out = Simulation::deployment(&s, quick_cfg(WorkloadSpec::paper_tcp(), 400, 10)).run();
        // Salvage may legitimately be zero on some seeds, but switches
        // must happen; assert the machinery at least ran.
        assert!(out.anchor_switches > 0);
        let _ = out.salvaged; // smoke: field exists and is consistent
    }
}
