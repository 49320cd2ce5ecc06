//! The epoch-synchronized simulation engine behind every coupled run.
//!
//! One engine executes one experiment as a set of **shards**, each owning
//! a disjoint subset of the nodes (its *lanes*): the shard holds those
//! nodes' endpoints, workload hosts and pending events in its own
//! [`Scheduler`], plus its own lazily-populated link-model instance.
//!
//! Time is divided into epochs by a [`HierarchicalSchedule`]. The fleet
//! decomposes into radio-disjoint **contact clusters** (one cluster when
//! the whole fleet is one contact cluster); each cluster keeps its radio
//! state — medium and aux snapshots — in its own `ClusterRt` and
//! crosses the fine boundaries of its own activity, and the engine
//! walks the union of those boundaries lazily ([`BoundaryWalk`]). Within
//! an epoch every shard dispatches only its own lanes' events, and **all
//! inter-node effects cross at barriers** in canonically sorted batches.
//! At each boundary one phase sequence runs over the clusters due there:
//! *collect* each batch in `(request time, sender)` order with its
//! audibility probes; *probe* in parallel; *place* the batch on the
//! cluster's own medium in canonical order, reading every carrier-sense
//! verdict from the probe answers, and drain the frames ending before the
//! cluster's next boundary; *resolve* — each shard samples its own
//! receivers through the pure MAC kernel and per-link streams; emit
//! *frame ops*; and, at rendezvous stops only, *route* backplane sends
//! (one [`Backplane::send_batch`] per instant in sender order), wired
//! hops and anchor hand-offs, never earlier than the stop.
//! Rendezvous are every boundary of a one-cluster fleet and the coarse
//! grid otherwise, so clusters never stall each other at fine boundaries;
//! the cadence follows from the decomposition, never from a knob.
//! Packet-log events are buffered with their timestamps and applied in
//! one canonical order at the end of the run; the efficiency ledgers are
//! plain counters, summed across shards and applied once as totals.
//!
//! Because every cross-lane channel is mediated this way **even when both
//! lanes share a shard**, the outcome is a pure function of
//! `(config, seed, schedule)` — never of the partition or of how many
//! worker threads execute it. `shards = 1` is literally the same machine
//! with one shard; that is the bit-identity `tests/shard_equivalence.rs`
//! pins at every shard and worker count.
//!
//! Relative to the pre-PR-5 per-event loop this changes the observable
//! semantics in bounded ways: a frame requested during an epoch airs from
//! the next epoch edge (at most one sync quantum of extra access latency
//! — 1 ms at the default — plus normal contention queueing), and wired
//! and backplane deliveries never land before the rendezvous that routes
//! them (up to one coarse quantum later in a multi-cluster fleet).
//! Contention physics — deferral, half duplex, hidden-terminal
//! collisions, the shared serializer — is exactly the global model, which
//! is the point: sharded coupled runs keep it.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use vifi_core::endpoint::BackplaneMsg;
use vifi_core::{
    AckView, Action, DataView, Direction, Endpoint, PacketId, Role, StatEvent, VifiPayload,
};
use vifi_mac::medium::kernel;
use vifi_mac::{
    AudibilityProbes, Backplane, BeaconSchedule, Frame, ResolvableTx, SharedMediumService,
    TxHandle, TxRequest, WireFrame,
};
use vifi_phy::{ContactSecond, LinkModel, NodeId};
use vifi_sim::{
    BoundaryWalk, HierarchicalSchedule, NestedEpochBarrier, Rng, Scheduler, SimTime, TimerToken,
};

use crate::logging::{LedgerTotals, LogEvent, LogSink, RunLog};
use crate::sim::{FaultStats, RunConfig, RunOutcome, VehicleOutcome};
use crate::workload::{build_driver, Driver, HostApi, HostCmd};

/// A link model the engine can hand to worker threads.
pub(crate) type EngineLink = Box<dyn LinkModel + Send>;

/// Per-lane events. The lane (owning node) travels alongside in the
/// scheduler payload.
enum Ev {
    /// The lane's beacon is due.
    Beacon,
    /// The lane's transmission finished airing; its interface is free.
    TxDone,
    /// A frame reached this lane (resolved by the reception kernel),
    /// still in packed wire form; decoded at dispatch.
    Rx(WireFrame),
    /// The lane's protocol timer fired.
    Wakeup,
    /// A backplane message arrived at this lane.
    BackplaneArrive { from: NodeId, msg: BackplaneMsg },
    /// A downstream app payload reached this vehicle's wired side.
    WiredDownArrive { payload: Bytes },
    /// A vehicle's downstream payload handed to this lane (its anchor).
    AnchorDown { vehicle: NodeId, payload: Bytes },
    /// An upstream payload reached this vehicle's Internet peer.
    WiredUpArrive { payload: Bytes, radio_exit: SimTime },
    /// Workload tick for this vehicle's driver.
    AppTick { chan: u8 },
    /// End of a fault-plan crash window: this lane's node restarts with a
    /// fresh endpoint (crashed state is lost, like a real reboot).
    FaultUp,
}

/// One vehicle's workload host: its driver, RNG stream, and counters.
struct VehicleHost {
    /// Taken out while the driver runs (so the host API can borrow `rng`).
    driver: Option<Box<dyn Driver>>,
    rng: Rng,
    anchor_switches: u64,
    unroutable_down: u64,
}

/// Everything one lane owns.
struct NodeCell {
    endpoint: Endpoint,
    iface_busy: bool,
    pending_beacon: Option<(VifiPayload, u32)>,
    wakeup_token: Option<TimerToken>,
    host: Option<VehicleHost>,
    /// Per-lane sequence for buffered cross-barrier emissions (canonical
    /// tie-break: a lane's emissions replay in emission order).
    emit_seq: u64,
    /// How many times this node restarted after a crash window (also the
    /// fork label of the next restart's RNG stream).
    restarts: u64,
    /// Blacklist evictions accumulated by endpoints this cell already
    /// discarded on restart.
    carried_evictions: u64,
}

/// A buffered packet-log event, applied in `(at, lane, seq)` order at the
/// end of the run — the canonical order every partition produces.
struct LogOp {
    at: SimTime,
    lane: u64,
    seq: u64,
    ev: LogEvent,
}

// A long run buffers tens of thousands of these; keep them small.
const _: () = assert!(std::mem::size_of::<LogOp>() <= 96);

/// Sequence-number namespaces for coordinator-emitted ops, so they order
/// deterministically against (and after) same-instant lane ops.
const SEQ_RESOLUTION: u64 = 1 << 32;
const SEQ_BARRIER: u64 = 1 << 33;

/// A backplane send buffered during an epoch.
struct BpSend {
    t: SimTime,
    from: NodeId,
    to: NodeId,
    bytes: u32,
    msg: BackplaneMsg,
    lane_seq: u64,
    /// Which delivery attempt this is (0 = the original send; bumped by
    /// the bounded-retry machinery when a partition or spike eats it).
    attempt: u32,
}

/// A cross-lane message buffered during an epoch.
enum XMsg {
    AnchorDown {
        anchor: NodeId,
        vehicle: NodeId,
        payload: Bytes,
        lane_seq: u64,
    },
    WiredUp {
        vehicle: NodeId,
        from: NodeId,
        payload: Bytes,
        radio_exit: SimTime,
        at: SimTime,
        lane_seq: u64,
    },
}

impl XMsg {
    /// Canonical routing order: by target lane, then time, then source
    /// lane and its emission sequence.
    fn key(&self) -> (u64, SimTime, u64, u64) {
        match self {
            XMsg::AnchorDown {
                vehicle, lane_seq, ..
            } => (vehicle.label(), SimTime::ZERO, vehicle.label(), *lane_seq),
            XMsg::WiredUp {
                vehicle,
                from,
                at,
                lane_seq,
                ..
            } => (vehicle.label(), *at, from.label(), *lane_seq),
        }
    }
}

/// One shard: a disjoint set of lanes plus their scheduler, link-model
/// instance, and epoch outboxes.
struct Shard {
    /// Lanes owned by this shard, in node-id order, each with its
    /// contact cluster.
    nodes: Vec<(NodeId, usize)>,
    sched: Scheduler<(NodeId, Ev)>,
    /// The lanes' cells, index-aligned with `nodes` (a lane's index is
    /// its [`NodeSlot::cell`]).
    cells: Vec<NodeCell>,
    link: EngineLink,
    /// The contact-atlas seconds in use on this shard's link.
    contacts: ContactCache,
    /// Lanes that have crash windows — the only ones a fault plan can
    /// take down — each with its contact cluster.
    crashable: Vec<(NodeId, usize)>,
    // ---- epoch outboxes, drained at the barriers of their clusters ----
    tx_requests: Vec<TxRequest<WireFrame>>,
    bp_sends: Vec<BpSend>,
    x_msgs: Vec<XMsg>,
    log_ops: Vec<LogOp>,
    /// The instrumented vehicle's ledger increments on this shard's
    /// lanes (summed across shards at the end, like `faults`).
    ledger: LedgerTotals,
    salvaged: u64,
    /// Fault-degradation counters for events on this shard's own lanes
    /// (summed across shards at the end; each event belongs to exactly
    /// one lane, so the sum is partition-invariant).
    faults: FaultStats,
    /// Wall-clock charged to this shard (see [`CoupledTiming`]).
    wall: Duration,
}

/// The contact-atlas seconds a shard is using: barrier instants and
/// frame ends only move forward, so at most the current and the next
/// second are ever in use, and older ones are dropped — memory does not
/// grow with the horizon.
#[derive(Default)]
struct ContactCache([Option<ContactSecond>; 2]);

impl ContactCache {
    /// Second `sec`'s contact lists from `link`, built on first use.
    fn get(&mut self, link: &dyn LinkModel, sec: u64) -> &ContactSecond {
        let held = |c: &Option<ContactSecond>| c.as_ref().map(ContactSecond::second);
        let i = match self.0.iter().position(|c| held(c) == Some(sec)) {
            Some(i) => i,
            None => {
                // Refill the empty slot, else the older second's.
                let i = (0..2)
                    .min_by_key(|&i| held(&self.0[i]).map_or(0, |s| s + 1))
                    .expect("two slots");
                self.0[i] = Some(link.contacts(sec));
                i
            }
        };
        self.0[i].as_ref().expect("slot filled above")
    }
}

/// One due cluster's batch as it moves through a boundary's phases.
struct ClusterBatch {
    cluster: usize,
    /// The cluster's next boundary, clamped to the horizon: frames ending
    /// before it resolve at this one.
    next: SimTime,
    /// The sorted transmission batch, until the place phase.
    requests: Vec<TxRequest<WireFrame>>,
    /// Aux snapshots in batch order, until the place phase.
    auxes: Vec<Option<Vec<NodeId>>>,
    /// Audibility probe plan (collect → probe) and the workers' answers
    /// (probe → place); no plan for an empty batch.
    probes: Option<AudibilityProbes>,
    audible: Vec<AtomicBool>,
    /// Work-claim cursor of the threaded probe phase.
    cursor: AtomicUsize,
    /// `(sender, end)` of every window placed at this barrier, in batch
    /// order — each shard schedules `TxDone` for its own senders.
    placements: Vec<(NodeId, SimTime)>,
    /// Frames ending before `next`, canonical `(end, src)` order, with
    /// complete overlap snapshots.
    resolvable: Vec<ResolvableTx<WireFrame>>,
    /// Receptions the shards sampled in the resolve phase:
    /// `(frame handle, receiver)`.
    heard: Mutex<Vec<(TxHandle, NodeId)>>,
}

impl ClusterBatch {
    /// Evaluate one range of this batch's audibility probes at `at`
    /// against `link` (any instance — `quality_hint` is pure and
    /// instance-independent) and record the audible ones.
    fn eval_probes(&self, at: SimTime, range: Range<usize>, link: &dyn LinkModel, sense: f64) {
        let probes = self.probes.as_ref().expect("probe plan published");
        for k in range {
            if probes.eval(k, at, link, sense) {
                self.audible[k].store(true, Ordering::SeqCst);
            }
        }
    }
}

/// Staging area a supergroup's barrier phases hand work through. The
/// leader fills it in the collect and place phases (behind the write
/// lock); workers read it concurrently to evaluate probes and resolve
/// receptions.
#[derive(Default)]
struct BarrierScratch {
    /// The barrier instant.
    at: SimTime,
    /// One batch per due cluster of the supergroup, ascending by cluster.
    batches: Vec<ClusterBatch>,
}

/// Clusters that share shards, the shards hosting them, and the slice of
/// the worker pool that executes them. A supergroup crosses its own
/// clusters' fine boundaries with its own barrier scratch, so it never
/// stalls the others; with one worker the whole fleet is one supergroup.
struct Supergroup {
    /// Shards executed by this supergroup, ascending.
    shards: Vec<usize>,
    /// Worker threads (at least one, at most one per shard).
    workers: usize,
    scratch: RwLock<BarrierScratch>,
}

/// Wall-clock accounting of one coupled run. Each measured span is
/// charged once: epoch execution and reception resolution to the shard
/// that runs them; probe slices to a hosting shard of their cluster
/// (rotated by stop in the serial executor, the claiming worker's first
/// shard in the threaded one); a cluster's leader phases (collect, place
/// and drain, frame ops) to its hosting shard when it has exactly one,
/// else to `serial`; backplane routing to `serial`. Within
/// a stop, one thread's spans meet end to start, so only time parked at
/// a barrier goes uncharged. The critical path of the plan is
/// `serial + max(per_shard)` — what the run costs once every shard has
/// its own core.
#[derive(Clone, Debug)]
pub struct CoupledTiming {
    /// Per-shard wall-clock, in shard order: the work a dedicated core
    /// would bear.
    pub per_shard: Vec<Duration>,
    /// Serial wall-clock: routing, plus the leader phases of clusters
    /// spread over several shards.
    pub serial: Duration,
}

impl CoupledTiming {
    /// The plan's critical path: serial work plus the slowest shard.
    pub fn critical_path(&self) -> Duration {
        self.serial
            + self
                .per_shard
                .iter()
                .copied()
                .max()
                .unwrap_or(Duration::ZERO)
    }
}

/// Inputs of an engine run, assembled by `Simulation`.
pub(crate) struct EngineSetup {
    pub cfg: RunConfig,
    pub vehicles: Vec<NodeId>,
    pub bs_ids: Vec<NodeId>,
    /// Builds one link-model instance; called once per shard. Instances
    /// built from the same config agree link-for-link (per-link forked
    /// streams), which is what makes the partition irrelevant.
    pub link_factory: Box<dyn Fn() -> EngineLink>,
    /// The epoch schedule: one fine schedule per contact cluster.
    pub hierarchy: HierarchicalSchedule,
    /// The contact-cluster decomposition behind `hierarchy`, in its
    /// cluster order: every node in exactly one cluster, clusters
    /// radio-disjoint.
    pub clusters: Vec<Vec<NodeId>>,
    /// The node partition: per shard, the nodes (vehicles and
    /// basestations) it owns as lanes, each node in exactly one shard.
    pub lanes: Vec<Vec<NodeId>>,
    /// Worker threads to execute the shards on (clamped to shard count).
    pub workers: usize,
}

/// Run the engine to completion.
pub(crate) fn run(setup: EngineSetup) -> (RunOutcome, CoupledTiming) {
    Engine::build(setup).run()
}

/// One cluster's radio runtime: its own shared-medium service and aux
/// snapshots. Clusters are radio-disjoint, so a cluster's barrier phases
/// only ever touch its own `ClusterRt` — that is what lets clusters
/// synchronize without stalling each other. Every
/// cluster's medium forks its backoff streams from the same `"mac"` root
/// (per-node streams are keyed by node label, so the split changes
/// nothing), and handles are namespaced per cluster via
/// [`SharedMediumService::with_handle_base`] so they stay globally
/// unique.
struct ClusterRt {
    medium: SharedMediumService<WireFrame>,
    /// Aux-set snapshots of the instrumented vehicle's source data
    /// frames, from placement to resolution.
    aux: HashMap<TxHandle, Vec<NodeId>>,
}

/// Globally shared state: the backplane and the run's log.
struct Coordinator {
    backplane: Backplane,
    /// Buffered log ops, applied in canonical order at the end of the
    /// run.
    log_ops: Vec<LogOp>,
    /// Ledger increments counted at barriers: wireless data and ACK
    /// frames, backplane drops.
    ledger: LedgerTotals,
    serial_wall: Duration,
    /// Monotone namespace counter for coordinator-emitted drop ops.
    drop_seq: u64,
    /// Loss draws for backplane spike windows. Only consumed while a
    /// spike is active, in canonical batch order, in the single-threaded
    /// routing phase — so the stream is identical for every partition
    /// and untouched by unfaulted runs.
    fault_rng: Rng,
    /// Backplane messages awaiting their retry instant.
    retries: Vec<BpSend>,
    /// Coordinator-side fault counters (backplane drops and retries).
    tally: FaultStats,
}

/// Where one node lives in the engine. Node ids are dense (the scenario
/// and trace set-ups allocate them in declaration order), so the engine
/// keeps one of these per id and every per-event, per-frame and routing
/// lookup is a vector index.
#[derive(Clone, Copy)]
struct NodeSlot {
    /// The shard owning the node as a lane.
    shard: usize,
    /// The lane's index in that shard's `nodes` and `cells`.
    cell: usize,
    /// The node's contact cluster.
    cluster: usize,
    /// Whether the node is a basestation.
    bs: bool,
}

/// A [`NodeSlot`] field not (yet) assigned.
const UNASSIGNED: usize = usize::MAX;

struct Engine {
    cfg: RunConfig,
    vehicles: Vec<NodeId>,
    bs_ids: Vec<NodeId>,
    beacons: BeaconSchedule,
    hierarchy: HierarchicalSchedule,
    shards: Vec<Mutex<Shard>>,
    /// Shard, cell, cluster and role of each node, indexed by
    /// [`NodeId::index`].
    slots: Vec<NodeSlot>,
    coord: Mutex<Coordinator>,
    /// Per-cluster radio runtimes.
    clusters: Vec<Mutex<ClusterRt>>,
    /// Shards hosting each cluster, ascending.
    cluster_shards: Vec<Vec<usize>>,
    supergroups: Vec<Supergroup>,
    /// The supergroup of each cluster.
    sg_of: Vec<usize>,
    workers: usize,
    /// The instrumented vehicle (first vehicle; owns the packet log).
    v0: NodeId,
    /// Fast path: true when the fault plan schedules anything at all.
    faulted: bool,
    /// The run's root RNG (restart streams fork from it on demand).
    rng: Rng,
}

impl Engine {
    fn build(setup: EngineSetup) -> Engine {
        let EngineSetup {
            cfg,
            vehicles,
            bs_ids,
            link_factory,
            hierarchy,
            clusters,
            lanes,
            workers,
        } = setup;
        assert!(!vehicles.is_empty() && !bs_ids.is_empty());
        assert_eq!(
            hierarchy.clusters(),
            clusters.len(),
            "hierarchy and decomposition must agree"
        );
        let rng = Rng::new(cfg.seed);
        let beacons = BeaconSchedule::new(cfg.vifi.beacon_period, &rng);
        let v0 = vehicles[0];

        // Workload hosts: the instrumented vehicle alone by default,
        // every vehicle in fleet mode. The first vehicle keeps the
        // historical "driver" stream; fleet members fork per-vehicle
        // streams (same derivation as the pre-engine loop).
        let driver_rng = rng.fork_named("driver");
        let mut hosts: HashMap<NodeId, VehicleHost> = HashMap::new();
        if cfg.fleet_workloads.is_empty() {
            hosts.insert(
                v0,
                VehicleHost {
                    driver: Some(build_driver(&cfg.workload, SimTime::ZERO)),
                    rng: driver_rng,
                    anchor_switches: 0,
                    unroutable_down: 0,
                },
            );
        } else {
            for (i, &v) in vehicles.iter().enumerate() {
                let spec = &cfg.fleet_workloads[i % cfg.fleet_workloads.len()];
                hosts.insert(
                    v,
                    VehicleHost {
                        driver: Some(build_driver(spec, SimTime::ZERO)),
                        rng: if i == 0 {
                            driver_rng.fork(0)
                        } else {
                            driver_rng.fork(v.label())
                        },
                        anchor_switches: 0,
                        unroutable_down: 0,
                    },
                );
            }
        }

        // The decomposition and schedule are pure functions of the
        // scenario, so the sequential run and every sharded run build
        // identical cluster runtimes — the medium split is invisible to
        // placement because clusters are radio-disjoint and per-node
        // backoff streams fork by label from one root.
        let n_ids = clusters
            .iter()
            .flatten()
            .map(|n| n.index() + 1)
            .max()
            .unwrap_or(0);
        let unassigned = NodeSlot {
            shard: UNASSIGNED,
            cell: UNASSIGNED,
            cluster: UNASSIGNED,
            bs: false,
        };
        let mut slots = vec![unassigned; n_ids];
        for &b in &bs_ids {
            slots[b.index()].bs = true;
        }
        for (c, members) in clusters.iter().enumerate() {
            for &n in members {
                let slot = &mut slots[n.index()];
                assert_eq!(slot.cluster, UNASSIGNED, "node {n:?} in two clusters");
                slot.cluster = c;
            }
        }
        let cluster_rts = (0..clusters.len())
            .map(|c| {
                Mutex::new(ClusterRt {
                    medium: SharedMediumService::new(cfg.mac, &rng.fork_named("mac"))
                        .with_handle_base((c as u64) << 48),
                    aux: HashMap::new(),
                })
            })
            .collect();

        let mut cluster_shards = vec![Vec::new(); clusters.len()];
        let mut shards = Vec::with_capacity(lanes.len());
        for (s, lane_nodes) in lanes.iter().enumerate() {
            let mut ids = lane_nodes.clone();
            ids.sort_by_key(|n| n.index());
            let mut nodes = Vec::with_capacity(ids.len());
            let mut cells = Vec::with_capacity(ids.len());
            let mut crashable = Vec::new();
            for n in ids {
                let slot = &mut slots[n.index()];
                assert_ne!(slot.cluster, UNASSIGNED, "every node has a cluster");
                assert_eq!(slot.shard, UNASSIGNED, "node {n:?} assigned to two shards");
                slot.shard = s;
                slot.cell = cells.len();
                let c = slot.cluster;
                let hosting: &mut Vec<usize> = &mut cluster_shards[c];
                if hosting.last() != Some(&s) {
                    hosting.push(s);
                }
                let role = if slot.bs { Role::Bs } else { Role::Vehicle };
                // Same per-endpoint stream derivation as the historical
                // assemble(): position-independent forks keyed by label.
                let ep_rng = rng.fork(
                    if role == Role::Vehicle {
                        0x5EED_0000
                    } else {
                        0x5EED_1000
                    } + n.label(),
                );
                nodes.push((n, c));
                if !cfg.faults.crash_windows(n).is_empty() {
                    crashable.push((n, c));
                }
                cells.push(NodeCell {
                    endpoint: Endpoint::new(n, role, cfg.vifi.clone(), bs_ids.clone(), ep_rng),
                    iface_busy: false,
                    pending_beacon: None,
                    wakeup_token: None,
                    host: hosts.remove(&n),
                    emit_seq: 0,
                    restarts: 0,
                    carried_evictions: 0,
                });
            }
            shards.push(Mutex::new(Shard {
                nodes,
                sched: Scheduler::new(),
                cells,
                link: link_factory(),
                contacts: ContactCache::default(),
                crashable,
                tx_requests: Vec::new(),
                bp_sends: Vec::new(),
                x_msgs: Vec::new(),
                log_ops: Vec::new(),
                ledger: LedgerTotals::default(),
                salvaged: 0,
                faults: FaultStats::default(),
                wall: Duration::ZERO,
            }));
        }
        assert!(
            hosts.is_empty(),
            "every workload vehicle must be assigned to a shard"
        );

        let coord = Coordinator {
            backplane: Backplane::new(cfg.backplane),
            log_ops: Vec::new(),
            ledger: LedgerTotals::default(),
            serial_wall: Duration::ZERO,
            drop_seq: 0,
            fault_rng: rng.fork_named("fault-bp"),
            retries: Vec::new(),
            tally: FaultStats::default(),
        };
        let workers = workers.clamp(1, lanes.len());
        let sizes: Vec<usize> = clusters.iter().map(Vec::len).collect();
        let (supergroups, sg_of) = pack_supergroups(&cluster_shards, &sizes, lanes.len(), workers);
        let faulted = !cfg.faults.is_empty();
        Engine {
            cfg,
            vehicles,
            bs_ids,
            beacons,
            hierarchy,
            shards,
            slots,
            coord: Mutex::new(coord),
            clusters: cluster_rts,
            cluster_shards,
            supergroups,
            sg_of,
            workers,
            v0,
            faulted,
            rng,
        }
    }

    fn run(self) -> (RunOutcome, CoupledTiming) {
        let horizon = SimTime::ZERO + self.cfg.duration;
        self.seed_shards(horizon);
        if self.workers <= 1 {
            self.run_serial(horizon);
        } else {
            self.run_threaded(horizon);
        }
        let clock = &mut Instant::now();
        for si in 0..self.shards.len() {
            self.on_shard(si, clock, |sh| self.exec_epoch(sh, horizon, true));
        }
        self.assemble_outcome(horizon)
    }

    /// Seed every shard: beacons for every lane, then fault-plan
    /// restarts, then drivers — all in lane order. A restart fires at
    /// the end of each crash window: while the window is open the pure
    /// fault predicates keep the node inert, and the `FaultUp` event
    /// is the single stateful step (a fresh endpoint).
    fn seed_shards(&self, horizon: SimTime) {
        for shard in &self.shards {
            let mut sh = shard.lock().expect("shard");
            let nodes: Vec<NodeId> = sh.nodes.iter().map(|&(n, _)| n).collect();
            for &n in &nodes {
                let at = self.beacons.next_after(n, SimTime::ZERO);
                sh.sched.at(at, (n, Ev::Beacon));
            }
            for &n in nodes.iter().filter(|_| self.faulted) {
                for w in self.cfg.faults.crash_windows(n) {
                    if w.end < horizon {
                        sh.sched.at(w.end, (n, Ev::FaultUp));
                    }
                }
            }
            for (i, &n) in nodes.iter().enumerate() {
                if sh.cells[i].host.is_some() {
                    self.with_driver(&mut sh, n, SimTime::ZERO, |d, api| d.start(api));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Executors
    // ------------------------------------------------------------------

    /// Serial executor: every phase on the calling thread, in the
    /// threaded executor's order. The per-shard walls measured here are
    /// what each shard would cost on a core of its own, so the parallel
    /// probe phase is timed in slices rotated over each cluster's hosting
    /// shards by stop index — the work each core would absorb in a
    /// threaded run with balanced claims.
    fn run_serial(&self, horizon: SimTime) {
        // One thread runs every phase, so it holds every scratch for the
        // whole run.
        let mut scratches: Vec<_> = self
            .supergroups
            .iter()
            .map(|sg| sg.scratch.write().expect("scratch"))
            .collect();
        let mut walk = self.hierarchy.walk(horizon);
        let mut stop = 0usize;
        while let Some(at) = walk.advance() {
            let clock = &mut Instant::now();
            for si in 0..self.shards.len() {
                self.on_shard(si, clock, |sh| self.exec_epoch(sh, at.min(horizon), false));
            }
            for (g, sg) in self.supergroups.iter().enumerate() {
                let scratch = &mut *scratches[g];
                self.collect(g, scratch, &walk, at, horizon, clock);
                self.probe_slices(scratch, stop, clock);
                self.place(scratch, clock);
                for &si in &sg.shards {
                    self.resolve(scratch, si, clock);
                }
                self.frame_ops(scratch, clock);
            }
            if walk.rendezvous() {
                self.route(at, clock);
            }
            stop += 1;
        }
    }

    /// Threaded executor: each supergroup's workers own interleaved
    /// slices of its shards and cross its clusters' boundaries on their
    /// own barrier of a [`NestedEpochBarrier`], so one supergroup's fine
    /// boundaries never stall another; every worker meets at rendezvous
    /// stops. The last worker to arrive at a wait runs the following
    /// leader phase while the rest stay parked.
    fn run_threaded(&self, horizon: SimTime) {
        let sizes: Vec<usize> = self.supergroups.iter().map(|sg| sg.workers).collect();
        let barrier = &NestedEpochBarrier::new(&sizes);
        std::thread::scope(|scope| {
            for (g, sg) in self.supergroups.iter().enumerate() {
                for k in 0..sg.workers {
                    scope.spawn(move || self.worker(g, k, barrier, horizon));
                }
            }
        });
    }

    /// Worker `k` of supergroup `g`: walks every stop, takes part in those
    /// its clusters are due at and in every rendezvous.
    fn worker(&self, g: usize, k: usize, barrier: &NestedEpochBarrier, horizon: SimTime) {
        // A panic here must not leave the other workers parked at a wait
        // they can never complete: the scope only re-raises it once every
        // worker has returned.
        let _abort = barrier.abort_on_unwind();
        let sg = &self.supergroups[g];
        let mine: Vec<usize> = sg.shards[k..].iter().step_by(sg.workers).copied().collect();
        // Each phase starts its own clock: time parked at a barrier is
        // charged to nobody.
        let now = Instant::now;
        let read = || sg.scratch.read().expect("scratch");
        let write = || sg.scratch.write().expect("scratch");
        let lead = |phase: &dyn Fn()| {
            if barrier.wait_cluster(g) {
                phase();
            }
            barrier.wait_cluster(g);
        };
        let mut walk = self.hierarchy.walk(horizon);
        while let Some(at) = walk.advance() {
            let rendezvous = walk.rendezvous();
            if !rendezvous && !walk.due().iter().any(|&c| self.sg_of[c] == g) {
                // None of this supergroup's clusters stops here: free-run
                // (execution is chunk-invariant).
                continue;
            }
            let clock = &mut now();
            for &si in &mine {
                self.on_shard(si, clock, |sh| self.exec_epoch(sh, at.min(horizon), false));
            }
            lead(&|| self.collect(g, &mut write(), &walk, at, horizon, &mut now()));
            self.claim_probes(&read(), mine[0], &mut now());
            lead(&|| self.place(&mut write(), &mut now()));
            let clock = &mut now();
            for &si in &mine {
                self.resolve(&read(), si, clock);
            }
            if rendezvous {
                // One global leader emits every supergroup's frame ops,
                // then routes.
                if barrier.wait_global() {
                    let clock = &mut now();
                    for sg in &self.supergroups {
                        self.frame_ops(&mut sg.scratch.write().expect("scratch"), clock);
                    }
                    self.route(at, clock);
                }
                barrier.wait_global();
            } else {
                lead(&|| self.frame_ops(&mut write(), &mut now()));
            }
        }
    }

    /// Run `f` on shard `si` and charge the span since `clock` to that
    /// shard (see [`lap`]).
    fn on_shard<R>(&self, si: usize, clock: &mut Instant, f: impl FnOnce(&mut Shard) -> R) -> R {
        let mut sh = self.shards[si].lock().expect("shard");
        let out = f(&mut sh);
        lap(&mut sh.wall, clock);
        out
    }

    /// Charge the leader-phase span since `clock` to cluster `c`: its
    /// hosting shard when it has exactly one, else the serial wall.
    fn charge(&self, c: usize, clock: &mut Instant) {
        match self.cluster_shards[c].as_slice() {
            [si] => lap(&mut self.shards[*si].lock().expect("shard").wall, clock),
            _ => lap(
                &mut self.coord.lock().expect("coordinator").serial_wall,
                clock,
            ),
        }
    }

    // ------------------------------------------------------------------
    // Barrier phases
    // ------------------------------------------------------------------

    /// Leader phase 1: gather each due cluster's transmission requests
    /// from its hosting shards, sort the batch into canonical order,
    /// snapshot aux sets, and plan the audibility probes its placement
    /// reads. Publishes the batches — legal because every other worker
    /// of the supergroup is parked at the following wait.
    fn collect(
        &self,
        g: usize,
        scratch: &mut BarrierScratch,
        walk: &BoundaryWalk,
        at: SimTime,
        horizon: SimTime,
        clock: &mut Instant,
    ) {
        // Past a cluster's last boundary, frames ending exactly at the
        // horizon still resolve; one still in the air leaves no record.
        let final_next = SimTime::from_micros(horizon.as_micros() + 1);
        scratch.at = at;
        scratch.batches.clear();
        for &c in walk.due().iter().filter(|&&c| self.sg_of[c] == g) {
            let mut requests: Vec<TxRequest<WireFrame>> = Vec::new();
            for &si in &self.cluster_shards[c] {
                let mut sh = self.shards[si].lock().expect("shard");
                let mut i = 0;
                while i < sh.tx_requests.len() {
                    if self.slot(sh.tx_requests[i].frame.src).cluster == c {
                        requests.push(sh.tx_requests.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
            }
            requests.sort_by_key(|r| (r.t_req, r.frame.src.label()));
            let auxes = requests.iter().map(|r| self.aux_snapshot(r, at)).collect();
            let probes = (!requests.is_empty()).then(|| {
                let rt = self.clusters[c].lock().expect("cluster rt");
                let mut host = self.shards[self.cluster_shards[c][0]]
                    .lock()
                    .expect("shard");
                let Shard { link, contacts, .. } = &mut *host;
                let contacts = contacts.get(link.as_ref(), at.second_bin());
                rt.medium.plan_probes(&requests, at, contacts)
            });
            let audible = probes
                .as_ref()
                .map(|p| (0..p.len()).map(|_| AtomicBool::new(false)).collect())
                .unwrap_or_default();
            scratch.batches.push(ClusterBatch {
                cluster: c,
                next: walk.next_boundary(c).map_or(final_next, |n| n.min(horizon)),
                requests,
                auxes,
                probes,
                audible,
                cursor: AtomicUsize::new(0),
                placements: Vec::new(),
                resolvable: Vec::new(),
                heard: Mutex::new(Vec::new()),
            });
            self.charge(c, clock);
        }
    }

    /// The aux-set snapshot of an instrumented vehicle's source data frame
    /// (a cross-lane read — legal at a barrier, where every shard of the
    /// vehicle's cluster is parked); `None` for every other frame. Such
    /// frames are transmitted by v0 itself or by a BS in radio contact
    /// with it, so they only ever appear in v0's own cluster.
    fn aux_snapshot(&self, r: &TxRequest<WireFrame>, at: SimTime) -> Option<Vec<NodeId>> {
        match DataView::of(&r.frame.payload) {
            Some(d)
                if d.relayed_by().is_none()
                    && self.flow_vehicle(d.flow_src(), d.flow_dst()) == self.v0 =>
            {
                let v0 = self.slot(self.v0);
                let mut sh = self.shards[v0.shard].lock().expect("shard");
                Some(sh.cells[v0.cell].endpoint.current_aux(at))
            }
            _ => None,
        }
    }

    /// Phase 2, serial form: each batch's probes in one contiguous slice
    /// per hosting shard of its cluster, rotated by stop index, each
    /// slice evaluated with and timed on its shard.
    fn probe_slices(&self, scratch: &BarrierScratch, stop: usize, clock: &mut Instant) {
        let sense = self.cfg.mac.sense_threshold;
        for b in &scratch.batches {
            let hosts = &self.cluster_shards[b.cluster];
            let (total, n) = (b.audible.len(), hosts.len());
            for j in 0..n {
                let (lo, hi) = (j * total / n, (j + 1) * total / n);
                if lo < hi {
                    self.on_shard(hosts[(j + stop) % n], clock, |sh| {
                        b.eval_probes(scratch.at, lo..hi, sh.link.as_ref(), sense)
                    });
                }
            }
        }
    }

    /// Phase 2, threaded form: claim chunks of each batch's probes
    /// through its cursor until none remain, timed on the worker's shard
    /// `si` and probing with that shard's link.
    fn claim_probes(&self, scratch: &BarrierScratch, si: usize, clock: &mut Instant) {
        const CHUNK: usize = 8;
        let sense = self.cfg.mac.sense_threshold;
        self.on_shard(si, clock, |sh| {
            for b in &scratch.batches {
                let total = b.audible.len();
                loop {
                    let lo = b.cursor.fetch_add(CHUNK, Ordering::SeqCst);
                    if lo >= total {
                        break;
                    }
                    let range = lo..(lo + CHUNK).min(total);
                    b.eval_probes(scratch.at, range, sh.link.as_ref(), sense);
                }
            }
        });
    }

    /// Leader phase 3: place each batch on its cluster's medium from its
    /// probe answers, record aux snapshots, and drain the frames ending
    /// before the cluster's next boundary.
    fn place(&self, scratch: &mut BarrierScratch, clock: &mut Instant) {
        let at = scratch.at;
        for b in &mut scratch.batches {
            let mut rt = self.clusters[b.cluster].lock().expect("cluster rt");
            let ClusterRt { medium, aux } = &mut *rt;
            if let Some(probes) = b.probes.take() {
                let audible: Vec<bool> =
                    b.audible.iter().map(|a| a.load(Ordering::SeqCst)).collect();
                let senders: Vec<NodeId> = b.requests.iter().map(|r| r.frame.src).collect();
                let placements =
                    medium.place(std::mem::take(&mut b.requests), at, &probes, &audible);
                b.placements = senders
                    .into_iter()
                    .zip(&placements)
                    .map(|(src, p)| (src, p.end))
                    .collect();
                for (p, a) in placements.iter().zip(std::mem::take(&mut b.auxes)) {
                    if let Some(a) = a {
                        aux.insert(p.handle, a);
                    }
                }
            }
            b.resolvable = medium.drain_resolvable(b.next);
            drop(rt);
            self.charge(b.cluster, clock);
        }
    }

    /// Phase 4 on shard `si`, charged to that shard: schedule `TxDone`
    /// for its own senders and sample its own receivers of every drained
    /// frame through the pure MAC kernel and its own link-model instance
    /// — only the source's contact candidates in the second the frame
    /// ends, and of those only the members of the frame's cluster, the
    /// only nodes that can hear it. Every other receiver's
    /// `quality_hint` is `0.0`, so the kernel would reject it before
    /// drawing from any stream: skipping it changes nothing.
    fn resolve(&self, scratch: &BarrierScratch, si: usize, clock: &mut Instant) {
        let sense = self.cfg.mac.sense_threshold;
        self.on_shard(si, clock, |sh| {
            let hosted = scratch
                .batches
                .iter()
                .filter(|b| self.cluster_shards[b.cluster].contains(&si));
            for b in hosted {
                let mut heard = Vec::new();
                for &(src, end) in &b.placements {
                    if self.slot(src).shard == si {
                        sh.sched.at(end, (src, Ev::TxDone));
                    }
                }
                for tx in &b.resolvable {
                    let down = |n: NodeId| self.faulted && self.cfg.faults.bs_down(n, tx.end);
                    // A crashed node's radio hears nothing. Every down
                    // member of the frame's cluster on this shard counts
                    // as a dropped reception, audible or not; skipping
                    // the sample is a pure decision of `(rx, end)`, so
                    // every partition consumes its per-link streams
                    // identically.
                    sh.faults.rx_dropped_down += sh
                        .crashable
                        .iter()
                        .filter(|&&(n, c)| c == b.cluster && down(n))
                        .count() as u64;
                    let Shard {
                        link,
                        contacts,
                        sched,
                        ..
                    } = &mut *sh;
                    let contacts = contacts.get(link.as_ref(), tx.end.second_bin());
                    for &rx in contacts.candidates(tx.frame.src) {
                        let slot = self.slot(rx);
                        if slot.shard != si || slot.cluster != b.cluster || down(rx) {
                            continue;
                        }
                        if kernel::sample_reception(link.as_mut(), tx, rx, sense).is_some() {
                            sched.at(tx.end, (rx, Ev::Rx(tx.frame.payload.clone())));
                            heard.push((tx.handle, rx));
                        }
                    }
                }
                if !heard.is_empty() {
                    b.heard.lock().expect("heard").append(&mut heard);
                }
            }
        });
    }

    /// Leader phase 5: merge each batch's receptions and emit the
    /// instrumentation ops of its resolved frames, together with the log
    /// ops the cluster's hosting shards buffered during the epoch.
    fn frame_ops(&self, scratch: &mut BarrierScratch, clock: &mut Instant) {
        for b in scratch.batches.drain(..) {
            let mut heard: HashMap<TxHandle, Vec<NodeId>> = HashMap::new();
            for (h, rx) in b.heard.lock().expect("heard").drain(..) {
                heard.entry(h).or_default().push(rx);
            }
            let mut rt = self.clusters[b.cluster].lock().expect("cluster rt");
            let mut coord = self.coord.lock().expect("coordinator");
            for &si in &self.cluster_shards[b.cluster] {
                let mut sh = self.shards[si].lock().expect("shard");
                coord.log_ops.append(&mut sh.log_ops);
            }
            for (i, tx) in b.resolvable.iter().enumerate() {
                let mut rx_ids = heard.remove(&tx.handle).unwrap_or_default();
                rx_ids.sort_by_key(|n| n.index());
                let aux_set = rt.aux.remove(&tx.handle);
                self.emit_frame_ops(&mut coord, tx, &rx_ids, aux_set, SEQ_RESOLUTION + i as u64);
            }
            drop((rt, coord));
            let c = b.cluster;
            drop(b);
            self.charge(c, clock);
        }
    }

    /// The per-frame instrumentation the per-event loop did in
    /// `on_tx_done`: the instrumented vehicle's wireless data and ACK
    /// frames bump the coordinator's ledger and log a canonical event at
    /// `(end, tx lane)`.
    fn emit_frame_ops(
        &self,
        coord: &mut Coordinator,
        tx: &ResolvableTx<WireFrame>,
        rx_ids: &[NodeId],
        aux_set: Option<Vec<NodeId>>,
        seq: u64,
    ) {
        // The frame stays packed: the fixed-offset views read the handful
        // of header fields instrumentation needs without decoding the
        // payload (beacons and other vehicles' data fall through).
        let ev = if let Some(d) = DataView::of(&tx.frame.payload) {
            if self.flow_vehicle(d.flow_src(), d.flow_dst()) != self.v0 {
                return;
            }
            let dir = self.dir_of_src(d.flow_src());
            coord.ledger.ledger_mut(dir).on_wireless_tx();
            if let Some(relayer) = d.relayed_by() {
                LogEvent::Relay {
                    id: d.id(),
                    by: relayer,
                    via_backplane: false,
                    reached: rx_ids.contains(&d.flow_dst()),
                }
            } else {
                let aux_set = aux_set.unwrap_or_default();
                let aux_heard: Vec<NodeId> = rx_ids
                    .iter()
                    .copied()
                    .filter(|n| aux_set.contains(n))
                    .collect();
                LogEvent::SourceTx {
                    id: d.id(),
                    dir,
                    dst_heard: rx_ids.contains(&d.flow_dst()),
                    aux_set,
                    aux_heard,
                }
            }
        } else if let Some(a) = AckView::of(&tx.frame.payload) {
            let id = a.id();
            let veh = if self.is_bs(id.origin) {
                a.from()
            } else {
                id.origin
            };
            if veh != self.v0 {
                return;
            }
            coord
                .ledger
                .ledger_mut(self.dir_of_src(id.origin))
                .on_ack_tx();
            LogEvent::AckAttach {
                id,
                heard_by: rx_ids.to_vec(),
            }
        } else {
            return;
        };
        coord.log_ops.push(LogOp {
            at: tx.end,
            lane: tx.frame.src.label(),
            seq,
            ev,
        });
    }

    /// Phase 6, rendezvous stops only: drain every shard's backplane
    /// sends and cross-lane messages (shard order), resolve the backplane
    /// batch in canonical sender order with fault filtering, and route
    /// cross-lane messages — the only phase where clusters exchange
    /// effects, over the wired backplane, never over the air.
    fn route(&self, b: SimTime, clock: &mut Instant) {
        let mut guard = self.coord.lock().expect("coordinator");
        let coord = &mut *guard;
        let mut bp: Vec<BpSend> = Vec::new();
        let mut xs: Vec<XMsg> = Vec::new();
        for shard in &self.shards {
            let mut sh = shard.lock().expect("shard");
            bp.append(&mut sh.bp_sends);
            xs.append(&mut sh.x_msgs);
        }
        // ---- backplane batch, canonical sender order per instant ----
        // Fault retries that came due during this epoch rejoin the batch
        // (their retry instant is the sort key, so ordering stays
        // canonical across partitions).
        if !coord.retries.is_empty() {
            let (due, later): (Vec<BpSend>, Vec<BpSend>) = std::mem::take(&mut coord.retries)
                .into_iter()
                .partition(|s| s.t <= b);
            coord.retries = later;
            bp.extend(due);
        }
        bp.sort_by_key(|s| (s.t, s.from.label(), s.lane_seq));
        let mut rest = bp;
        while !rest.is_empty() {
            let t = rest[0].t;
            let split = rest.iter().position(|s| s.t != t).unwrap_or(rest.len());
            let tail = rest.split_off(split);
            let batch = rest;
            rest = tail;
            // Fault filtering before capacity: a partition severs the
            // path outright; a latency/loss spike eats each message with
            // probability `loss` and delays the survivors. Losers go to
            // the bounded-retry machinery.
            let mut sends: Vec<(BpSend, Option<vifi_sim::SimDuration>)> =
                Vec::with_capacity(batch.len());
            if self.faulted {
                let spike = self.cfg.faults.spike_at(t);
                for send in batch {
                    if self.cfg.faults.partitioned(send.from, send.to, t) {
                        self.bp_fault_failure(coord, send, t, true);
                    } else if let Some(sp) = spike {
                        if coord.fault_rng.chance(sp.loss) {
                            self.bp_fault_failure(coord, send, t, false);
                        } else {
                            sends.push((send, Some(sp.extra_latency)));
                        }
                    } else {
                        sends.push((send, None));
                    }
                }
            } else {
                sends.extend(batch.into_iter().map(|s| (s, None)));
            }
            let sizes: Vec<(NodeId, NodeId, u32)> =
                sends.iter().map(|(s, _)| (s.from, s.to, s.bytes)).collect();
            let slots = coord.backplane.send_batch(&sizes, t);
            for ((send, extra), slot) in sends.into_iter().zip(slots) {
                match slot {
                    Some(arrival) => {
                        let arrival = match extra {
                            Some(d) => arrival + d,
                            None => arrival,
                        };
                        // Never earlier than the barrier that routes it
                        // (only reachable when the backplane latency is
                        // shorter than the epoch that buffered the send).
                        let at = arrival.max(b);
                        let mut sh = self.shards[self.slot(send.to).shard].lock().expect("shard");
                        sh.sched.at(
                            at,
                            (
                                send.to,
                                Ev::BackplaneArrive {
                                    from: send.from,
                                    msg: send.msg,
                                },
                            ),
                        );
                    }
                    None => self.log_bp_drop(coord, &send),
                }
            }
        }

        // ---- cross-lane messages, canonical order ----
        xs.sort_by_key(|x| x.key());
        for x in xs {
            match x {
                XMsg::AnchorDown {
                    anchor,
                    vehicle,
                    payload,
                    ..
                } => {
                    let mut sh = self.shards[self.slot(anchor).shard].lock().expect("shard");
                    sh.sched
                        .at(b, (anchor, Ev::AnchorDown { vehicle, payload }));
                }
                XMsg::WiredUp {
                    vehicle,
                    payload,
                    radio_exit,
                    at,
                    ..
                } => {
                    if self.faulted && self.cfg.faults.wired_out(vehicle, at) {
                        // Upstream wired outage: the anchor delivered the
                        // packet off the air, but the wired path toward
                        // this vehicle's Internet peer is out.
                        coord.tally.wired_drops += 1;
                        continue;
                    }
                    let deliver = (at + self.cfg.wired_delay).max(b);
                    let mut sh = self.shards[self.slot(vehicle).shard].lock().expect("shard");
                    sh.sched.at(
                        deliver,
                        (
                            vehicle,
                            Ev::WiredUpArrive {
                                payload,
                                radio_exit,
                            },
                        ),
                    );
                }
            }
        }
        lap(&mut coord.serial_wall, clock);
    }

    /// Dispatch one shard's events up to `limit` — exclusive between
    /// epochs, inclusive on the final pass (matching the historical
    /// `<= horizon` loop).
    fn exec_epoch(&self, sh: &mut Shard, limit: SimTime, inclusive: bool) {
        while let Some(t) = sh.sched.peek_time() {
            if (inclusive && t > limit) || (!inclusive && t >= limit) {
                break;
            }
            let (now, (lane, ev)) = sh.sched.step().expect("peeked event vanished");
            self.dispatch(sh, lane, ev, now);
        }
    }

    // ------------------------------------------------------------------
    // Dispatch (the per-event loop's logic; emissions go via outboxes)
    // ------------------------------------------------------------------

    fn dispatch(&self, sh: &mut Shard, lane: NodeId, ev: Ev, now: SimTime) {
        // Crashed nodes are inert: a pure predicate of `(lane, now)`, so
        // every partition gates identically without shared state.
        let down = self.faulted && self.cfg.faults.bs_down(lane, now);
        match ev {
            Ev::Beacon => self.on_beacon_due(sh, lane, now),
            Ev::TxDone => {
                let cell = self.cell(sh, lane);
                cell.iface_busy = false;
                if down {
                    // A frame already in the air when the node crashed
                    // finishes airing, but nothing new starts.
                    cell.pending_beacon = None;
                    return;
                }
                if let Some((payload, bytes)) = cell.pending_beacon.take() {
                    self.start_tx(sh, lane, payload, bytes, now);
                }
                self.pump(sh, lane, now);
            }
            Ev::Rx(frame) => {
                // Decode at the receiver — the one place the typed payload
                // is needed; everything between tx and rx moved `Bytes`.
                let payload: VifiPayload = frame
                    .decode()
                    .expect("wire codec round-trips engine frames");
                let acts = self.cell(sh, lane).endpoint.on_frame(&payload, now);
                self.handle_actions(sh, lane, acts, now);
                self.pump(sh, lane, now);
            }
            Ev::Wakeup => {
                let cell = self.cell(sh, lane);
                cell.wakeup_token = None;
                if down {
                    return;
                }
                let acts = cell.endpoint.on_wakeup(now);
                self.handle_actions(sh, lane, acts, now);
                self.pump(sh, lane, now);
            }
            Ev::FaultUp => {
                // The crash window just closed: the node reboots with a
                // fresh endpoint (volatile protocol state is gone) on a
                // restart-specific RNG stream.
                let role = if self.is_bs(lane) {
                    Role::Bs
                } else {
                    Role::Vehicle
                };
                let cell = self.cell(sh, lane);
                cell.carried_evictions += cell.endpoint.blacklist_evictions();
                cell.restarts += 1;
                let ep_rng = self
                    .rng
                    .fork(0x5EED_2000 + lane.label())
                    .fork(cell.restarts);
                cell.endpoint = Endpoint::new(
                    lane,
                    role,
                    self.cfg.vifi.clone(),
                    self.bs_ids.clone(),
                    ep_rng,
                );
                cell.iface_busy = false;
                cell.pending_beacon = None;
                if let Some(tok) = cell.wakeup_token.take() {
                    sh.sched.cancel(tok);
                }
                sh.faults.bs_restarts += 1;
                self.pump(sh, lane, now);
            }
            Ev::BackplaneArrive { from, msg } => {
                if down {
                    sh.faults.backplane_dropped_down += 1;
                    return;
                }
                if let BackplaneMsg::RelayData(d) = &msg {
                    // An upstream relay reaching the anchor's process
                    // counts as having reached the destination.
                    if self.flow_vehicle(d.flow_src, d.flow_dst) == self.v0 {
                        self.log_op(
                            sh,
                            lane,
                            now,
                            LogEvent::Relay {
                                id: d.id,
                                by: from,
                                via_backplane: true,
                                reached: true,
                            },
                        );
                    }
                }
                if let BackplaneMsg::SalvageData { packets, .. } = &msg {
                    sh.salvaged += packets.len() as u64;
                }
                let acts = self.cell(sh, lane).endpoint.on_backplane(from, &msg, now);
                self.handle_actions(sh, lane, acts, now);
                self.pump(sh, lane, now);
            }
            Ev::WiredDownArrive { payload } => {
                // Lane is the vehicle; its current anchor gets the payload
                // via the barrier (even when the anchor shares this shard —
                // the rule must not depend on the partition).
                let lane_seq = self.next_emit_seq(sh, lane);
                let cell = self.cell(sh, lane);
                match cell.endpoint.anchor() {
                    Some(a) => sh.x_msgs.push(XMsg::AnchorDown {
                        anchor: a,
                        vehicle: lane,
                        payload,
                        lane_seq,
                    }),
                    None => {
                        if let Some(host) = cell.host.as_mut() {
                            host.unroutable_down += 1;
                        }
                    }
                }
            }
            Ev::AnchorDown { vehicle, payload } => {
                if down {
                    // Downstream payload handed to an anchor that crashed:
                    // lost, like a packet inside a dead basestation.
                    sh.faults.wired_drops += 1;
                    return;
                }
                self.cell(sh, lane)
                    .endpoint
                    .send_app(payload, Some(vehicle), now);
                self.pump(sh, lane, now);
            }
            Ev::WiredUpArrive {
                payload,
                radio_exit,
            } => {
                self.with_driver(sh, lane, now, |d, api| {
                    d.on_internet_rx(&payload, radio_exit, api)
                });
            }
            Ev::AppTick { chan } => {
                self.with_driver(sh, lane, now, |d, api| d.on_tick(chan, api));
            }
        }
    }

    fn on_beacon_due(&self, sh: &mut Shard, lane: NodeId, now: SimTime) {
        if self.faulted && self.cfg.faults.beacon_suppressed(lane, now) {
            // Crashed or suppressed: no beacon airs and the endpoint's
            // beacon-side state is untouched, but the beacon clock keeps
            // ticking so the node resumes on schedule.
            sh.faults.beacons_suppressed += 1;
            let next = self.beacons.next_after(lane, now);
            sh.sched.at(next, (lane, Ev::Beacon));
            return;
        }
        let (payload, bytes, acts) = self.cell(sh, lane).endpoint.make_beacon(now);
        self.handle_actions(sh, lane, acts, now);
        if lane == self.v0 {
            if let VifiPayload::Beacon(bc) = &payload {
                if let Some(v) = &bc.vehicle {
                    // A1 counts auxiliaries while connected.
                    if v.anchor.is_some() {
                        let size = v.aux.len();
                        self.log_op(
                            sh,
                            lane,
                            now,
                            LogEvent::AuxSample {
                                sec: now.second_bin(),
                                size,
                            },
                        );
                    }
                }
            }
        }
        let cell = self.cell(sh, lane);
        if cell.iface_busy {
            // Replace any stale pending beacon with the fresh one.
            cell.pending_beacon = Some((payload, bytes));
        } else {
            self.start_tx(sh, lane, payload, bytes, now);
        }
        let next = self.beacons.next_after(lane, now);
        sh.sched.at(next, (lane, Ev::Beacon));
        self.pump(sh, lane, now);
    }

    /// Queue a transmission request: the interface goes busy now; the
    /// frame airs from the next epoch edge (see the module docs).
    fn start_tx(
        &self,
        sh: &mut Shard,
        lane: NodeId,
        payload: VifiPayload,
        bytes: u32,
        now: SimTime,
    ) {
        self.cell(sh, lane).iface_busy = true;
        // Encode once at the transmitter; every hop after this — barrier
        // collect, placement, fan-out to receivers — clones an `Arc`ed
        // byte buffer instead of the owned payload.
        sh.tx_requests.push(TxRequest {
            frame: Frame::new(lane, bytes, WireFrame::encode(lane, bytes, &payload)),
            t_req: now,
        });
    }

    fn pump(&self, sh: &mut Shard, lane: NodeId, now: SimTime) {
        // Wakeup timer maintenance.
        let cell = self.cell(sh, lane);
        let next = cell.endpoint.next_wakeup();
        if let Some(tok) = cell.wakeup_token.take() {
            sh.sched.cancel(tok);
        }
        if let Some(at) = next {
            let at = at.max(now);
            let tok = sh.sched.at(at, (lane, Ev::Wakeup));
            self.cell(sh, lane).wakeup_token = Some(tok);
        }
        // Interface.
        let cell = self.cell(sh, lane);
        if !cell.iface_busy {
            let pulled = if cell.endpoint.has_tx() {
                cell.endpoint.pull_frame(now)
            } else {
                None
            };
            if let Some((payload, bytes)) = pulled {
                self.start_tx(sh, lane, payload, bytes, now);
            }
        }
    }

    fn handle_actions(&self, sh: &mut Shard, lane: NodeId, acts: Vec<Action>, now: SimTime) {
        for act in acts {
            match act {
                Action::Deliver { id, app, dir } => self.on_deliver(sh, lane, id, app, dir, now),
                Action::Backplane { to, msg } => {
                    let bytes = msg.wire_bytes();
                    if let BackplaneMsg::RelayData(d) = &msg {
                        if self.flow_vehicle(d.flow_src, d.flow_dst) == self.v0 {
                            sh.ledger.up.on_backplane_tx();
                        }
                    }
                    let lane_seq = self.next_emit_seq(sh, lane);
                    sh.bp_sends.push(BpSend {
                        t: now,
                        from: lane,
                        to,
                        bytes,
                        msg,
                        lane_seq,
                        attempt: 0,
                    });
                }
                Action::Stat(ev) => self.on_stat(sh, lane, ev, now),
            }
        }
    }

    fn on_deliver(
        &self,
        sh: &mut Shard,
        lane: NodeId,
        id: PacketId,
        app: Bytes,
        dir: Direction,
        now: SimTime,
    ) {
        match dir {
            Direction::Downstream => {
                if lane == self.v0 {
                    self.log_delivery(sh, lane, id, dir, now);
                }
                self.with_driver(sh, lane, now, |d, api| d.on_vehicle_rx(&app, api));
            }
            Direction::Upstream => {
                // At the anchor: forward over the wired hop toward the
                // originating vehicle's Internet peer.
                if id.origin == self.v0 {
                    self.log_delivery(sh, lane, id, dir, now);
                }
                let lane_seq = self.next_emit_seq(sh, lane);
                sh.x_msgs.push(XMsg::WiredUp {
                    vehicle: id.origin,
                    from: lane,
                    payload: app,
                    radio_exit: now,
                    at: now,
                    lane_seq,
                });
            }
        }
    }

    fn on_stat(&self, sh: &mut Shard, lane: NodeId, ev: StatEvent, now: SimTime) {
        match ev {
            StatEvent::RelayDecision {
                id,
                dir: _,
                prob,
                relayed,
            } => {
                // Attaches only to packets already in the log, i.e. the
                // instrumented vehicle's flows.
                self.log_op(
                    sh,
                    lane,
                    now,
                    LogEvent::Decision {
                        id,
                        aux: lane,
                        prob,
                        relayed,
                    },
                );
            }
            StatEvent::AnchorSwitch { .. } => {
                if let Some(host) = self.cell(sh, lane).host.as_mut() {
                    host.anchor_switches += 1;
                }
            }
            StatEvent::Salvaged { .. } => {
                // Counted at BackplaneArrive (covers the transfer itself).
            }
            StatEvent::RelaySuppressed { .. } | StatEvent::SourceDrop { .. } => {}
        }
    }

    fn with_driver<F>(&self, sh: &mut Shard, lane: NodeId, now: SimTime, f: F)
    where
        F: FnOnce(&mut dyn Driver, &mut HostApi),
    {
        // Vehicles without a workload driver (background fleet members in
        // non-fleet runs) simply have no host.
        let Some(host) = self.cell(sh, lane).host.as_mut() else {
            return;
        };
        let mut driver = host.driver.take().expect("driver present");
        let mut api = HostApi {
            now,
            rng: &mut host.rng,
            cmds: Vec::new(),
        };
        f(driver.as_mut(), &mut api);
        let cmds = api.cmds;
        host.driver = Some(driver);
        for cmd in cmds {
            match cmd {
                HostCmd::SendUpstream(bytes) => {
                    self.cell(sh, lane).endpoint.send_app(bytes, None, now);
                    self.pump(sh, lane, now);
                }
                HostCmd::SendDownstream(bytes) => {
                    if self.faulted && self.cfg.faults.wired_out(lane, now) {
                        // Wired outage toward this vehicle: the Internet
                        // side's packet never reaches the wired edge.
                        sh.faults.wired_drops += 1;
                        continue;
                    }
                    // Lane-local wired hop: the payload reaches this
                    // vehicle's wired side after the configured delay.
                    sh.sched.at(
                        now + self.cfg.wired_delay,
                        (lane, Ev::WiredDownArrive { payload: bytes }),
                    );
                }
                HostCmd::ScheduleTick { chan, at } => {
                    sh.sched.at(at.max(now), (lane, Ev::AppTick { chan }));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    /// A backplane message lost to a partition or spike: schedule a retry
    /// if the bounded-retry budget allows, else drop it for good.
    fn bp_fault_failure(&self, coord: &mut Coordinator, send: BpSend, t: SimTime, partition: bool) {
        if let Some(delay) = self.cfg.backplane.retry_delay(send.attempt + 1) {
            coord.tally.bp_retries += 1;
            coord.retries.push(BpSend {
                t: t + delay,
                attempt: send.attempt + 1,
                ..send
            });
            return;
        }
        if partition {
            coord.tally.bp_partition_drops += 1;
        } else {
            coord.tally.bp_spike_drops += 1;
        }
        self.log_bp_drop(coord, &send);
    }

    /// Account a finally-dropped backplane message — scoped to the
    /// instrumented vehicle's traffic, like the per-event loop's capacity
    /// accounting. A dropped relay also logs its failed fate.
    fn log_bp_drop(&self, coord: &mut Coordinator, send: &BpSend) {
        let veh = match &send.msg {
            BackplaneMsg::RelayData(d) => self.flow_vehicle(d.flow_src, d.flow_dst),
            BackplaneMsg::SalvageRequest { vehicle, .. }
            | BackplaneMsg::SalvageData { vehicle, .. } => *vehicle,
        };
        if veh != self.v0 {
            return;
        }
        coord.ledger.backplane_drops += 1;
        if let BackplaneMsg::RelayData(d) = &send.msg {
            coord.drop_seq += 1;
            coord.log_ops.push(LogOp {
                at: send.t,
                lane: send.from.label(),
                seq: SEQ_BARRIER + coord.drop_seq,
                ev: LogEvent::Relay {
                    id: d.id,
                    by: send.from,
                    via_backplane: true,
                    reached: false,
                },
            });
        }
    }

    fn next_emit_seq(&self, sh: &mut Shard, lane: NodeId) -> u64 {
        let cell = self.cell(sh, lane);
        cell.emit_seq += 1;
        cell.emit_seq
    }

    fn log_op(&self, sh: &mut Shard, lane: NodeId, at: SimTime, ev: LogEvent) {
        let seq = self.next_emit_seq(sh, lane);
        sh.log_ops.push(LogOp {
            at,
            lane: lane.label(),
            seq,
            ev,
        });
    }

    /// An application-level delivery of the instrumented vehicle's
    /// packet `id`: marks its records and counts in `dir`'s ledger.
    fn log_delivery(
        &self,
        sh: &mut Shard,
        lane: NodeId,
        id: PacketId,
        dir: Direction,
        at: SimTime,
    ) {
        self.log_op(sh, lane, at, LogEvent::DeliverMark { id });
        sh.ledger.ledger_mut(dir).on_delivered();
    }

    /// Where node `n` lives.
    fn slot(&self, n: NodeId) -> NodeSlot {
        self.slots[n.index()]
    }

    /// The cell of lane `lane`, which `sh` must own.
    fn cell<'s>(&self, sh: &'s mut Shard, lane: NodeId) -> &'s mut NodeCell {
        let i = self.slot(lane).cell;
        debug_assert_eq!(sh.nodes[i].0, lane, "lane {lane:?} not on this shard");
        &mut sh.cells[i]
    }

    fn is_bs(&self, n: NodeId) -> bool {
        self.slots.get(n.index()).is_some_and(|s| s.bs)
    }

    /// Traffic direction of a data frame by its logical source.
    fn dir_of_src(&self, flow_src: NodeId) -> Direction {
        if self.is_bs(flow_src) {
            Direction::Downstream
        } else {
            Direction::Upstream
        }
    }

    /// The vehicle a data flow belongs to: the mobile end of the transfer.
    fn flow_vehicle(&self, flow_src: NodeId, flow_dst: NodeId) -> NodeId {
        if self.is_bs(flow_src) {
            flow_dst
        } else {
            flow_src
        }
    }

    // ------------------------------------------------------------------
    // Outcome assembly
    // ------------------------------------------------------------------

    fn assemble_outcome(self, horizon: SimTime) -> (RunOutcome, CoupledTiming) {
        let mut coord = self.coord.into_inner().expect("coordinator");
        let mut shards: Vec<Shard> = self
            .shards
            .into_iter()
            .map(|m| m.into_inner().expect("shard"))
            .collect();

        // Per-vehicle outcomes in fleet order.
        let mut vehicles_out: Vec<VehicleOutcome> = Vec::new();
        for &v in &self.vehicles {
            let slot = self.slots[v.index()];
            if let Some(host) = shards[slot.shard].cells[slot.cell].host.as_mut() {
                vehicles_out.push(VehicleOutcome {
                    vehicle: v,
                    report: host
                        .driver
                        .as_mut()
                        .expect("driver present at run end")
                        .report(horizon),
                    anchor_switches: host.anchor_switches,
                    unroutable_down: host.unroutable_down,
                });
            }
        }
        assert!(!vehicles_out.is_empty(), "at least one workload vehicle");

        // Apply the buffered log events in canonical order: the partition-
        // blind `(at, lane, seq)` key interleaves every source, so the
        // order ops were gathered in never matters. Lane ops logged after
        // their cluster's last barrier are still in the shards. The ledger
        // totals follow, summed over shards like the fault counters.
        let mut ledger = coord.ledger;
        for sh in &mut shards {
            coord.log_ops.append(&mut sh.log_ops);
            ledger.absorb(&sh.ledger);
        }
        coord.log_ops.sort_by_key(|o| (o.at, o.lane, o.seq));
        let mut log = RunLog::new();
        for op in coord.log_ops {
            log.apply(op.at, op.ev);
        }
        log.apply(SimTime::ZERO, LogEvent::LedgerTotals(Box::new(ledger)));

        let events: u64 = shards.iter().map(|s| s.sched.dispatched()).sum();
        let salvaged: u64 = shards.iter().map(|s| s.salvaged).sum();
        let frames_tx: u64 = self
            .clusters
            .into_iter()
            .map(|m| m.into_inner().expect("cluster rt").medium.tx_count)
            .sum();
        let mut faults = coord.tally;
        for sh in &shards {
            faults.absorb(&sh.faults);
            for cell in &sh.cells {
                faults.blacklist_evictions +=
                    cell.endpoint.blacklist_evictions() + cell.carried_evictions;
            }
        }
        let timing = CoupledTiming {
            per_shard: shards.iter().map(|s| s.wall).collect(),
            serial: coord.serial_wall,
        };
        let outcome = RunOutcome {
            report: vehicles_out[0].report.clone(),
            anchor_switches: vehicles_out[0].anchor_switches,
            unroutable_down: vehicles_out.iter().map(|v| v.unroutable_down).sum(),
            vehicles: vehicles_out,
            salvaged,
            events,
            frames_tx,
            faults,
            log,
        };
        (outcome, timing)
    }
}

/// Add the wall-clock since `clock` to `wall` and restart the clock: one
/// thread's consecutive spans meet end to start, so every span is charged
/// exactly once and nothing between them goes uncharged.
fn lap(wall: &mut Duration, clock: &mut Instant) {
    let now = Instant::now();
    *wall += now - *clock;
    *clock = now;
}

/// Pack clusters into supergroups for `workers` threads. Clusters that
/// share a shard land in one supergroup (a shard's events run on exactly
/// one worker); those groups go LPT by node count onto
/// `min(workers, groups)` supergroups, with deterministic tie-breaks, and
/// shards hosting no cluster are dealt round-robin. Each supergroup gets
/// one worker, and spare workers go to the highest load per worker,
/// never more workers than shards. Returns the supergroups and each
/// cluster's supergroup.
fn pack_supergroups(
    cluster_shards: &[Vec<usize>],
    cluster_sizes: &[usize],
    n_shards: usize,
    workers: usize,
) -> (Vec<Supergroup>, Vec<usize>) {
    let nc = cluster_shards.len();
    let mut parent: Vec<usize> = (0..nc).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut first_on_shard: Vec<Option<usize>> = vec![None; n_shards];
    for (c, hosts) in cluster_shards.iter().enumerate() {
        for &s in hosts {
            match first_on_shard[s] {
                Some(d) => {
                    let (a, b) = (find(&mut parent, c), find(&mut parent, d));
                    if a != b {
                        parent[a.max(b)] = a.min(b);
                    }
                }
                None => first_on_shard[s] = Some(c),
            }
        }
    }
    // Each group is named by its root, its smallest cluster.
    let root: Vec<usize> = (0..nc).map(|c| find(&mut parent, c)).collect();
    let mut group_w = vec![0usize; nc];
    for c in 0..nc {
        group_w[root[c]] += cluster_sizes[c];
    }
    let mut order: Vec<usize> = (0..nc).filter(|&c| root[c] == c).collect();
    let nsg = workers.min(order.len());
    order.sort_by_key(|&r| (std::cmp::Reverse(group_w[r]), r));
    let mut sg_of_root = vec![0usize; nc];
    let mut load = vec![0usize; nsg];
    for r in order {
        let k = (0..nsg)
            .min_by_key(|&k| (load[k], k))
            .expect(">=1 supergroup");
        load[k] += group_w[r];
        sg_of_root[r] = k;
    }
    let sg_of: Vec<usize> = root.iter().map(|&r| sg_of_root[r]).collect();
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); nsg];
    let mut spare = 0usize;
    for (s, first) in first_on_shard.iter().enumerate() {
        match first {
            Some(c) => shards[sg_of[*c]].push(s),
            None => {
                shards[spare % nsg].push(s);
                spare += 1;
            }
        }
    }
    // Spare workers one at a time to the most loaded supergroup per
    // worker that still has a shard without one.
    let mut counts = vec![1usize; nsg];
    for _ in nsg..workers {
        let open = (0..nsg).filter(|&k| counts[k] < shards[k].len());
        let Some(k) = open.max_by(|&a, &b| {
            (load[a] * counts[b])
                .cmp(&(load[b] * counts[a]))
                .then(b.cmp(&a))
        }) else {
            break;
        };
        counts[k] += 1;
    }
    let supergroups = shards
        .into_iter()
        .zip(counts)
        .map(|(shards, workers)| Supergroup {
            shards,
            workers,
            scratch: RwLock::new(BarrierScratch::default()),
        })
        .collect();
    (supergroups, sg_of)
}
