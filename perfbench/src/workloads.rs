//! The three workloads: the inputs each derives from the seed, the calls
//! it makes into the program, and the checks on every run's output.
//!
//! Every workload runs one simulation at a time on the calling thread
//! (coupled runs with `workers = Some(1)`); see README.md for why.

use std::hint::black_box;
use std::time::Duration;

use vifi_core::{Coordination, VifiConfig};
use vifi_faults::FaultPlan;
use vifi_runtime::{
    plan_shards, read_stream, CoupledTiming, Fingerprintable, PerfectRelayOutcome, RunConfig,
    RunOutcome, ShardMode, Simulation, StreamFold, Table1, Table2Row, WorkloadReport, WorkloadSpec,
};
use vifi_sim::{Rng, SimDuration};
use vifi_testbeds::{dieselnet_ch1, generate_beacon_trace, metro, vanlan, BeaconTrace, Scenario};

use crate::spans::Tracer;

/// Shards of the two coupled fleet runs; every shard executes on the
/// calling thread.
const FLEET_SHARDS: usize = 2;
const WORKERS: Option<usize> = Some(1);
const CITY_VANS: u32 = 64;
const CITY_HORIZON: SimDuration = SimDuration::from_secs(30);
const METRO_DISTRICTS: u32 = 4;
const METRO_VANS_PER_DISTRICT: u32 = 16;
const METRO_HORIZON: SimDuration = SimDuration::from_secs(30);
const METRO_FAULT_INTENSITY: f64 = 0.5;
/// Run seed of Table 1's deployment run: the `table1` bin's own. Across
/// run seeds this TCP run dispatches 5.9M to 7.9M events (seeds 1-6),
/// which alone spread `paper_tables`' throughput by a quarter of its
/// median; with the seed fixed the workload seed still drives the trace
/// and the four Table 2 runs.
const TABLE1_SEED: u64 = 71;
/// Beacon rate of the generated DieselNet trace (the `table2` bin's).
const TRACE_BEACONS_PER_S: u32 = 10;
/// Table 2's coordination schemes, in the paper's row order.
const SCHEMES: [(&str, Coordination); 4] = [
    ("ViFi", Coordination::Vifi),
    ("¬G1", Coordination::NotG1),
    ("¬G2", Coordination::NotG2),
    ("¬G3", Coordination::NotG3),
];

/// A named workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The runs behind Tables 1 and 2.
    PaperTables,
    /// `vanlan(64)`: one contact cluster, the flat barrier pipeline.
    CityFlat,
    /// Faulted `metro(4, 16)`: four clusters, the nested pipeline.
    MetroFaulted,
}

impl Workload {
    /// Every workload, in BENCHMARK.json order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperTables,
        Workload::CityFlat,
        Workload::MetroFaulted,
    ];

    /// The name the command line and BENCHMARK.json use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTables => "paper_tables",
            Workload::CityFlat => "city_flat",
            Workload::MetroFaulted => "metro_faulted",
        }
    }

    /// Simulation runs one iteration makes.
    pub fn runs_per_iteration(self) -> usize {
        match self {
            Workload::PaperTables => 1 + SCHEMES.len(),
            Workload::CityFlat | Workload::MetroFaulted => 1,
        }
    }
}

/// The seeds one benchmark seed expands into.
pub struct Seeds {
    /// `metro`'s district layout.
    pub scenario: u64,
    /// `FaultPlan::synthesize`.
    pub faults: u64,
    /// The DieselNet beacon trace.
    pub trace: u64,
    /// The fleets' deployment runs.
    pub run: u64,
    /// Table 2's trace-driven runs (one seed for all four schemes).
    pub trace_run: u64,
}

impl Seeds {
    /// Expand `seed` with SplitMix64, so the inputs depend on the seed
    /// and on nothing in the program under test.
    pub fn derive(seed: u64) -> Seeds {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Seeds {
            scenario: next(),
            faults: next(),
            trace: next(),
            run: next(),
            trace_run: next(),
        }
    }
}

/// What an invocation generates once, before anything is timed.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Its seeds.
    pub seeds: Seeds,
    /// DieselNet Ch1 beacon trace as CSV bytes (`paper_tables` only);
    /// every iteration decodes it again with `BeaconTrace::read_csv`.
    pub trace_csv: Vec<u8>,
}

impl Inputs {
    /// Derive the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let seeds = Seeds::derive(seed);
        let mut trace_csv = Vec::new();
        if workload == Workload::PaperTables {
            let ch1 = dieselnet_ch1();
            let bus = ch1.vehicle_ids()[0];
            generate_beacon_trace(
                &ch1,
                bus,
                ch1.lap,
                TRACE_BEACONS_PER_S,
                &Rng::new(seeds.trace),
            )
            .write_csv(&mut trace_csv)
            .expect("writing to a Vec cannot fail");
        }
        Inputs {
            workload,
            seeds,
            trace_csv,
        }
    }
}

/// The engine's wall-clock split of one coupled run.
pub struct EngineSplit {
    /// Σ per-shard epoch work.
    pub shards: Duration,
    /// Serial barrier-coordinator work.
    pub serial: Duration,
    /// Modelled critical path: one core per shard, barrier wait left out.
    pub critical_path: Duration,
    /// Slowest shard over the mean shard.
    pub imbalance: f64,
}

impl EngineSplit {
    /// Wall time inside the engine's epoch loop.
    pub fn in_loop(&self) -> Duration {
        self.shards + self.serial
    }
}

/// The one place the benchmark reads the engine's own timing.
pub fn engine_split(timing: &CoupledTiming) -> EngineSplit {
    let shards: Duration = timing.per_shard.iter().sum();
    let slowest = timing.per_shard.iter().max().copied().unwrap_or_default();
    let mean = shards.as_secs_f64() / timing.per_shard.len().max(1) as f64;
    EngineSplit {
        shards,
        serial: timing.serial,
        critical_path: timing.critical_path(),
        imbalance: if mean > 0.0 {
            slowest.as_secs_f64() / mean
        } else {
            1.0
        },
    }
}

/// Simulated outcomes of a run: identical for a seed on any change that
/// only moves time.
#[derive(Default)]
pub struct Counts {
    /// Events dispatched.
    pub events: u64,
    /// Wireless frames transmitted.
    pub frames_tx: u64,
    /// Basestations restarted after a crash window.
    pub bs_restarts: u64,
    /// Backplane messages lost to partitions and spikes.
    pub bp_drops: u64,
    /// Backplane retransmissions.
    pub bp_retries: u64,
    /// Receptions voided because the receiver was down.
    pub rx_dropped_down: u64,
    /// Wired-path packets dropped during outages.
    pub wired_drops: u64,
    /// Packets salvaged at new anchors.
    pub salvaged: u64,
    /// Anchor switches, all vehicles.
    pub anchor_switches: u64,
    /// CBR probes sent, all vehicles.
    pub cbr_sent: u64,
    /// CBR probes delivered, all vehicles.
    pub cbr_delivered: u64,
    /// Application packets delivered: CBR probes, or for TCP the
    /// instrumented vehicle's ledger count.
    pub delivered: u64,
}

impl Counts {
    /// Add another run's counts.
    pub fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.frames_tx += o.frames_tx;
        self.bs_restarts += o.bs_restarts;
        self.bp_drops += o.bp_drops;
        self.bp_retries += o.bp_retries;
        self.rx_dropped_down += o.rx_dropped_down;
        self.wired_drops += o.wired_drops;
        self.salvaged += o.salvaged;
        self.anchor_switches += o.anchor_switches;
        self.cbr_sent += o.cbr_sent;
        self.cbr_delivered += o.cbr_delivered;
        self.delivered += o.delivered;
    }
}

/// One simulation run, reduced to what the benchmark reports and checks.
pub struct RunReport {
    /// `table1`, `table2` or `fleet`.
    pub label: &'static str,
    /// Table 2 scheme, if any.
    pub scheme: Option<&'static str>,
    /// `RunOutcome::fingerprint()`.
    pub fingerprint: u64,
    /// Simulated seconds.
    pub sim_s: f64,
    /// Wall time of the run call.
    pub call: Duration,
    /// The engine's split; `None` for trace-driven runs, which return
    /// no timing.
    pub engine: Option<EngineSplit>,
    /// Simulated outcomes.
    pub counts: Counts,
    /// Source-transmission records in the run log.
    pub log_records: u64,
    /// Size of the log's binary trace.
    pub trace_bytes: u64,
    /// The stream fold's pending-record high-water mark.
    pub peak_pending: u64,
    /// Table 1 of the run log (reported for `table1`).
    pub table1: Table1,
    /// Table 2 row of the run log (reported for `table2`).
    pub table2: Table2Row,
    /// Failed output checks; empty when the run is correct.
    pub failures: Vec<String>,
}

/// One closed-loop iteration.
pub struct IterReport {
    /// Iteration number (0 is the warm-up).
    pub index: usize,
    /// Whether spans were kept.
    pub traced: bool,
    /// Mean host-speed probe time around the iteration (see `probe.rs`).
    pub probe: Duration,
    /// Wall time of the program calls that build the inputs (scenario,
    /// fault plan, trace decoding).
    pub inputs: Duration,
    /// Traced iterations: the run calls' set-up time that the
    /// one-by-one set-up calls account for (see [`setup_calls`]).
    pub accounted: Option<Duration>,
    /// The runs, in a fixed order.
    pub runs: Vec<RunReport>,
}

impl IterReport {
    /// Wall time outside the engine's epoch loop: input building plus
    /// every timed run call minus its in-loop time. Trace-driven runs
    /// count as all loop.
    pub fn setup(&self) -> Duration {
        self.inputs
            + self
                .runs
                .iter()
                .filter_map(|r| {
                    r.engine
                        .as_ref()
                        .map(|e| r.call.saturating_sub(e.in_loop()))
                })
                .sum::<Duration>()
    }

    /// Σ wall time of the run calls.
    pub fn calls(&self) -> Duration {
        self.runs.iter().map(|r| r.call).sum()
    }
}

/// Run one iteration of `inp.workload`. `reference` holds the
/// fingerprints of an earlier iteration, which every run must repeat.
pub fn iterate(inp: &Inputs, tr: &mut Tracer, reference: Option<&[u64]>) -> IterReport {
    let traced = tr.on();
    let (mut it, _) = tr.time("iteration", |tr| match inp.workload {
        Workload::PaperTables => paper_tables(inp, tr),
        Workload::CityFlat => city_flat(inp, tr),
        Workload::MetroFaulted => metro_faulted(inp, tr),
    });
    it.traced = traced;
    if let Some(reference) = reference {
        for (run, &want) in it.runs.iter_mut().zip(reference) {
            if run.fingerprint != want {
                run.failures.push(format!(
                    "fingerprint {:016x} differs from the first iteration's {want:016x}",
                    run.fingerprint
                ));
            }
        }
    }
    it
}

fn paper_tables(inp: &Inputs, tr: &mut Tracer) -> IterReport {
    let ((scenario, trace), inputs) = tr.time("inputs", |tr| {
        let (scenario, _) = tr.time("testbeds.scenario", |_| vanlan(1));
        let (trace, _) = tr.time("testbeds.trace_decode", |_| {
            BeaconTrace::read_csv(&inp.trace_csv[..])
        });
        (scenario, trace)
    });
    let trace = trace.unwrap_or_else(|e| panic!("generated beacon trace does not decode: {e}"));
    let cfg = RunConfig {
        workload: WorkloadSpec::paper_tcp(),
        duration: scenario.lap * 2,
        seed: TABLE1_SEED,
        ..RunConfig::default()
    };
    let accounted = tr.on().then(|| setup_calls(tr, &scenario, &cfg));
    let mut runs = vec![coupled_run(tr, "table1", &scenario, cfg, 1)];
    for (scheme, coordination) in SCHEMES {
        let cfg = RunConfig {
            vifi: VifiConfig {
                coordination,
                ..VifiConfig::default()
            },
            workload: WorkloadSpec::paper_cbr(),
            duration: SimDuration::from_secs(trace.seconds),
            seed: inp.seeds.trace_run,
            ..RunConfig::default()
        };
        let sim_s = cfg.duration.as_secs_f64();
        let (run, _) = tr.time("run.table2", |tr| {
            let (out, call) = tr.time("engine.run", |_| {
                Simulation::trace_driven(&trace, cfg).run()
            });
            analyse(tr, "table2", out, sim_s, call, None, 1)
        });
        runs.push(RunReport {
            scheme: Some(scheme),
            ..run
        });
    }
    IterReport {
        index: 0,
        traced: false,
        probe: Duration::ZERO,
        inputs,
        accounted,
        runs,
    }
}

fn city_flat(inp: &Inputs, tr: &mut Tracer) -> IterReport {
    let (scenario, inputs) = tr.time("inputs", |tr| {
        tr.time("testbeds.scenario", |_| vanlan(CITY_VANS)).0
    });
    let cfg = RunConfig {
        fleet_workloads: vec![WorkloadSpec::paper_cbr()],
        duration: CITY_HORIZON,
        seed: inp.seeds.run,
        shards: FLEET_SHARDS,
        shard_mode: ShardMode::Coupled,
        ..RunConfig::default()
    };
    fleet(tr, &scenario, cfg, inputs)
}

fn metro_faulted(inp: &Inputs, tr: &mut Tracer) -> IterReport {
    let ((scenario, faults), inputs) = tr.time("inputs", |tr| {
        let (scenario, _) = tr.time("testbeds.scenario", |_| {
            metro(METRO_DISTRICTS, METRO_VANS_PER_DISTRICT, inp.seeds.scenario)
        });
        let (faults, _) = tr.time("faults.synthesize", |_| {
            FaultPlan::synthesize(
                METRO_FAULT_INTENSITY,
                inp.seeds.faults,
                &scenario.bs_ids(),
                &scenario.vehicle_ids(),
                METRO_HORIZON,
            )
        });
        (scenario, faults)
    });
    let cfg = RunConfig {
        fleet_workloads: vec![WorkloadSpec::paper_cbr()],
        duration: METRO_HORIZON,
        seed: inp.seeds.run,
        shards: FLEET_SHARDS,
        shard_mode: ShardMode::Coupled,
        faults,
        ..RunConfig::default()
    };
    fleet(tr, &scenario, cfg, inputs)
}

fn fleet(tr: &mut Tracer, scenario: &Scenario, cfg: RunConfig, inputs: Duration) -> IterReport {
    let accounted = tr.on().then(|| setup_calls(tr, scenario, &cfg));
    let vehicles = scenario.vehicle_ids().len();
    IterReport {
        index: 0,
        traced: false,
        probe: Duration::ZERO,
        inputs,
        accounted,
        runs: vec![coupled_run(tr, "fleet", scenario, cfg, vehicles)],
    }
}

fn coupled_run(
    tr: &mut Tracer,
    label: &'static str,
    scenario: &Scenario,
    cfg: RunConfig,
    vehicles: usize,
) -> RunReport {
    let sim_s = cfg.duration.as_secs_f64();
    let span = if label == "table1" {
        "run.table1"
    } else {
        "run.fleet"
    };
    tr.time(span, |tr| {
        let ((out, timing), call) = tr.time("engine.run", |_| {
            Simulation::run_coupled_timed(scenario, cfg, WORKERS)
        });
        analyse(
            tr,
            label,
            out,
            sim_s,
            call,
            Some(engine_split(&timing)),
            vehicles,
        )
    })
    .0
}

/// The set-up calls `Simulation::run_coupled_timed` makes before its
/// epoch loop, made again one by one so each gets a span: the shard
/// planner, then what the engine's set-up repeats (a link-model build,
/// the fleet activity sweep, the cluster decomposition and, for two or
/// more clusters, one activity sweep per cluster). The planner's contact
/// load sweeps are timed once more on their own. Returns the set-up time
/// these calls account for: planner + engine set-up + the engine's other
/// link-model builds (one per shard, one for the coordinator, one per
/// cluster in nested mode).
fn setup_calls(tr: &mut Tracer, scenario: &Scenario, cfg: &RunConfig) -> Duration {
    let cfg = RunConfig {
        shard_mode: ShardMode::Coupled,
        ..cfg.clone()
    };
    let (plan, planner) = tr.time("runtime.plan_shards", |_| plan_shards(scenario, &cfg));
    let (link, link_build) = tr.time("phy.link_build", |_| {
        scenario.build_link_model(&Rng::new(cfg.seed))
    });
    let horizon_s = cfg.duration.as_secs() + 1;
    let margin_s = 1 + cfg.vifi.beacon_period.as_secs().max(1);
    let (_, mut activity) = tr.time("testbeds.active_seconds", |_| {
        black_box(scenario.active_seconds(&link, horizon_s, margin_s))
    });
    let (clusters, decomposition) = tr.time("testbeds.contact_clusters", |_| {
        scenario.contact_clusters(&link)
    });
    let nested = (2..=64).contains(&clusters.len());
    if nested {
        for members in &clusters {
            activity += tr
                .time("testbeds.active_seconds", |_| {
                    black_box(scenario.cluster_active_seconds(&link, horizon_s, margin_s, members))
                })
                .1;
        }
    }
    tr.time("testbeds.contact_load", |_| {
        black_box(scenario.bs_contact_seconds(&link, 0.1));
        for v in scenario.vehicle_ids() {
            black_box(scenario.contact_windows(v, &link, 0.1));
        }
    });
    let engine_links = plan.assignments.len() + 1 + if nested { clusters.len() } else { 0 };
    planner + link_build * (1 + engine_links as u32) + activity + decomposition
}

/// Post-run analysis and output checks of one outcome.
fn analyse(
    tr: &mut Tracer,
    label: &'static str,
    out: RunOutcome,
    sim_s: f64,
    call: Duration,
    engine: Option<EngineSplit>,
    vehicles: usize,
) -> RunReport {
    let ((table1, table2), _) = tr.time("log.tables", |_| {
        black_box(PerfectRelayOutcome::from_log(&out.log));
        (
            Table1::from_log(&out.log),
            Table2Row::from_log(label, &out.log),
        )
    });
    let (bytes, _) = tr.time("log.write_binary", |_| out.log.write_binary(Vec::new()));
    let mut failures = Vec::new();
    let bytes = bytes.unwrap_or_else(|e| {
        failures.push(format!("write_binary failed: {e}"));
        Vec::new()
    });
    let (summary, _) = tr.time("log.fold", |_| {
        let mut fold = StreamFold::new();
        read_stream(&bytes[..], &mut fold).map(|_| fold.finish())
    });
    let ((fingerprint, log_digest), _) = tr.time("log.fingerprint", |_| {
        (out.fingerprint(), Fingerprintable::fingerprint(&out.log))
    });

    let mut counts = Counts {
        events: out.events,
        frames_tx: out.frames_tx,
        bs_restarts: out.faults.bs_restarts,
        bp_drops: out.faults.bp_drops(),
        bp_retries: out.faults.bp_retries,
        rx_dropped_down: out.faults.rx_dropped_down,
        wired_drops: out.faults.wired_drops,
        salvaged: out.salvaged,
        ..Counts::default()
    };
    let mut any_cbr = false;
    for v in &out.vehicles {
        counts.anchor_switches += v.anchor_switches;
        if let WorkloadReport::Cbr(c) = &v.report {
            any_cbr = true;
            let (sent, delivered) = (c.total_sent(), c.total_delivered());
            if delivered > sent {
                failures.push(format!(
                    "{:?} delivered {delivered} > sent {sent}",
                    v.vehicle
                ));
            }
            counts.cbr_sent += sent;
            counts.cbr_delivered += delivered;
        }
    }
    for (dir, ledger) in [("up", &out.log.ledger_up), ("down", &out.log.ledger_down)] {
        if ledger.delivered > ledger.wireless_tx {
            failures.push(format!(
                "{dir}stream ledger: {} delivered > {} wireless transmissions",
                ledger.delivered, ledger.wireless_tx
            ));
        }
    }
    counts.delivered = if any_cbr {
        counts.cbr_delivered
    } else {
        out.log.ledger_up.delivered + out.log.ledger_down.delivered
    };
    if out.events == 0 {
        failures.push("no events dispatched".into());
    }
    if out.vehicles.len() != vehicles {
        failures.push(format!(
            "{} vehicle outcomes for {vehicles} vehicles",
            out.vehicles.len()
        ));
    }
    let log_records = out.log.records.len() as u64;
    let mut peak_pending = 0;
    match summary {
        Ok(s) => {
            peak_pending = s.peak_pending as u64;
            if s.fingerprint != log_digest {
                failures.push(format!(
                    "log digest {log_digest:016x} != stream-fold fingerprint {:016x} of its binary trace",
                    s.fingerprint
                ));
            }
            if s.records != log_records {
                failures.push(format!(
                    "binary trace folds to {} records, log has {log_records}",
                    s.records
                ));
            }
        }
        Err(e) => failures.push(format!("binary trace does not decode: {e}")),
    }
    RunReport {
        label,
        scheme: None,
        fingerprint,
        sim_s,
        call,
        engine,
        counts,
        log_records,
        trace_bytes: bytes.len() as u64,
        peak_pending,
        table1,
        table2,
        failures,
    }
}
