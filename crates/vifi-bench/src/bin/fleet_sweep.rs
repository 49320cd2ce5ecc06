//! Fleet-scale sweep: per-vehicle and aggregate session/interactivity
//! metrics across fleet sizes {2, 4, 8, 16} on both testbeds.
//!
//! The paper's VanLAN ran two vans and its DieselNet analysis covered a
//! whole bus fleet; this bin measures what the single-vehicle figures
//! cannot — how shared-basestation contention and fleet contact schedules
//! move delivery and session length as the fleet grows. Every vehicle
//! carries the paper's CBR probe workload ([`WorkloadSpec::paper_cbr`]).
//!
//! ```text
//! cargo run --release -p vifi-bench --bin fleet_sweep            # default scale
//! cargo run --release -p vifi-bench --bin fleet_sweep -- --full  # more seeds/time
//! ```
//!
//! Writes `results/fleet_sweep.json`: one entry per (testbed, fleet size)
//! with a per-vehicle breakdown (first seed) and seed-averaged aggregates,
//! plus execution-scaling axes. Sharding never changes the physics — a
//! sharded run is bit-identical to the sequential one — so every axis
//! measures pure core scaling:
//!
//! * `coupled_scaling` — the largest fleets split across shards by the
//!   epoch engine; `speedup_vs_sequential` is the sequential critical
//!   path over each shard count's;
//! * `city_coupled_scaling` — city-scale fleets (vanlan(64),
//!   dieselnet_fleet(128)) at up to 16 shards, the regime the parallel
//!   audibility-partitioned barrier targets;
//! * `metro_coupled_scaling` — the nested epoch hierarchy A/B'd against
//!   the flat schedule on the multi-cluster `metro(4, 16, 42)` scenario
//!   at the same shard counts.

use vifi_bench::{
    banner, interruptions, median_session_secs, parallel_map_seeds, print_table,
    run_coupled_fleet_deployment, run_faulted_fleet_deployment, run_fleet_deployment, save_json,
    CoupledScalingRow, Scale, VifiConfig,
};
use vifi_faults::FaultPlan;
use vifi_runtime::workload::aggregate_cbr;
use vifi_runtime::{RunConfig, RunOutcome, Simulation, WorkloadSpec};
use vifi_sim::{Rng, SimDuration};
use vifi_testbeds::{dieselnet_fleet, metro, vanlan, Scenario};

/// Fleet sizes of the sweep (the acceptance grid).
const FLEET_SIZES: [u32; 4] = [2, 4, 8, 16];

/// Shard counts profiled on the largest fleet (1 = the sequential
/// coupled run the speedups are measured against).
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Shard counts for the city-scale coupled axis (PR 7's parallel
/// audibility-partitioned barrier is sized for these fleets).
const CITY_SHARD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Fault-intensity grid for the robustness axis (0 = healthy baseline).
const FAULT_INTENSITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// One vehicle's row of the report.
struct VehicleRow {
    name: String,
    sent: u64,
    delivered: u64,
    ratio: f64,
    median_session_s: f64,
    anchor_switches: u64,
    contact_frac: f64,
}

/// Seed-level aggregate over the whole fleet.
struct FleetAggregate {
    sent: u64,
    delivered: u64,
    ratio: f64,
    median_session_s: f64,
    anchor_switches: u64,
    frames_tx: u64,
    events: u64,
}

fn aggregate(out: &RunOutcome, duration: SimDuration) -> FleetAggregate {
    let agg = aggregate_cbr(out.vehicles.iter().map(|v| &v.report));
    let ratios = agg.combined_ratios(SimDuration::from_secs(1), duration);
    FleetAggregate {
        sent: agg.total_sent(),
        delivered: agg.total_delivered(),
        ratio: agg.delivery_ratio(),
        median_session_s: median_session_secs(&ratios, SimDuration::from_secs(1), 0.5),
        anchor_switches: out.vehicles.iter().map(|v| v.anchor_switches).sum(),
        frames_tx: out.frames_tx,
        events: out.events,
    }
}

fn sweep_testbed(
    label: &str,
    build: impl Fn(u32) -> Scenario,
    duration: SimDuration,
    seeds: u64,
) -> serde_json::Value {
    let mut fleets = Vec::new();
    for &n in &FLEET_SIZES {
        let scenario = build(n);
        let outs: Vec<RunOutcome> = parallel_map_seeds(seeds, |seed| {
            run_fleet_deployment(
                &scenario,
                VifiConfig::default(),
                vec![WorkloadSpec::paper_cbr()],
                duration,
                1000 + seed,
            )
        });

        // Per-vehicle breakdown from the first seed; contact fractions
        // from the scenario itself (sampled over one lap).
        let link = scenario.build_link_model(&Rng::new(1000));
        let lap_s = scenario.lap.as_secs().max(1) as f64;
        let per_vehicle: Vec<VehicleRow> = outs[0]
            .vehicles
            .iter()
            .map(|v| {
                let c = v.report.as_cbr().expect("CBR fleet");
                let ratios = c.combined_ratios(SimDuration::from_secs(1), duration);
                let windows = scenario.contact_windows(v.vehicle, &link, 0.1);
                let covered: u64 = windows.iter().map(|(a, b)| b - a).sum();
                VehicleRow {
                    name: scenario.node(v.vehicle).name.clone(),
                    sent: c.total_sent(),
                    delivered: c.total_delivered(),
                    ratio: c.delivery_ratio(),
                    median_session_s: median_session_secs(&ratios, SimDuration::from_secs(1), 0.5),
                    anchor_switches: v.anchor_switches,
                    contact_frac: covered as f64 / lap_s,
                }
            })
            .collect();

        let aggs: Vec<FleetAggregate> = outs.iter().map(|o| aggregate(o, duration)).collect();
        let mean = |f: &dyn Fn(&FleetAggregate) -> f64| {
            aggs.iter().map(f).sum::<f64>() / aggs.len() as f64
        };

        print_table(
            &format!("{label} fleet of {n} — per vehicle (seed 1000)"),
            &[
                "vehicle",
                "sent",
                "delivered",
                "ratio",
                "med sess s",
                "switches",
                "contact",
            ],
            &per_vehicle
                .iter()
                .map(|r| {
                    vec![
                        r.name.clone(),
                        r.sent.to_string(),
                        r.delivered.to_string(),
                        format!("{:.3}", r.ratio),
                        format!("{:.1}", r.median_session_s),
                        r.anchor_switches.to_string(),
                        format!("{:.2}", r.contact_frac),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        println!(
            "aggregate over {seeds} seed(s): ratio {:.3}, median session {:.1} s, \
             {:.0} anchor switches, {:.0} frames",
            mean(&|a| a.ratio),
            mean(&|a| a.median_session_s),
            mean(&|a| a.anchor_switches as f64),
            mean(&|a| a.frames_tx as f64),
        );

        fleets.push(serde_json::json!({
            "vehicles": n,
            "duration_s": duration.as_secs(),
            "per_vehicle": per_vehicle.iter().map(|r| serde_json::json!({
                "vehicle": r.name,
                "sent": r.sent,
                "delivered": r.delivered,
                "delivery_ratio": r.ratio,
                "median_session_s": r.median_session_s,
                "anchor_switches": r.anchor_switches,
                "contact_fraction": r.contact_frac,
            })).collect::<Vec<_>>(),
            "aggregate": {
                "seeds": seeds,
                "sent_mean": mean(&|a| a.sent as f64),
                "delivered_mean": mean(&|a| a.delivered as f64),
                "delivery_ratio_mean": mean(&|a| a.ratio),
                "median_session_s_mean": mean(&|a| a.median_session_s),
                "anchor_switches_mean": mean(&|a| a.anchor_switches as f64),
                "frames_tx_mean": mean(&|a| a.frames_tx as f64),
                "events_mean": mean(&|a| a.events as f64),
            },
        }));
    }
    serde_json::json!({ "testbed": label, "fleets": fleets })
}

/// Profile the sharded engine on one fleet: shard counts in `counts`,
/// every shard executed on the calling thread (`workers = Some(1)`) so
/// per-shard walls are honest even when the host has fewer cores than
/// shards. `speedup_vs_sequential` divides the sequential (`shards = 1`)
/// critical path by each row's `serial + max(per-shard)` critical path —
/// what the bit-identical experiment costs once every shard has a core
/// of its own.
fn coupled_scaling(
    label: &str,
    scenario: &Scenario,
    duration: SimDuration,
    counts: &[usize],
) -> serde_json::Value {
    const PASSES: usize = 2;
    let mut seq_critical_ms = 0.0;
    let mut rows: Vec<CoupledScalingRow> = Vec::new();
    for &shards in counts {
        // Each shard count is measured twice and the pass with the
        // smaller critical path kept — the same min-merging the bench
        // harness uses: contention bursts on a shared host only inflate
        // timings, so the minimum tracks the code, not the neighbours.
        let mut best: Option<vifi_runtime::CoupledTiming> = None;
        for _ in 0..PASSES {
            let (out, timing) = run_coupled_fleet_deployment(
                scenario,
                VifiConfig::default(),
                vec![WorkloadSpec::paper_cbr()],
                duration,
                1000,
                shards,
                Some(1),
            );
            assert_eq!(out.vehicles.len(), scenario.vehicle_ids().len());
            let critical = timing.critical_path();
            let better = best
                .as_ref()
                .map(|b| critical < b.critical_path())
                .unwrap_or(true);
            if better {
                best = Some(timing);
            }
        }
        let timing = best.expect("at least one pass");
        if shards == 1 {
            seq_critical_ms = timing.critical_path().as_secs_f64() * 1e3;
        }
        rows.push(CoupledScalingRow::from_timing(
            shards,
            &timing,
            seq_critical_ms,
        ));
    }
    print_table(
        &format!(
            "{label} — shard scaling ({} vehicles)",
            scenario.vehicle_ids().len()
        ),
        &["shards", "critical path ms", "serial ms", "speedup"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.shards.to_string(),
                    format!("{:.0}", r.critical_path_ms),
                    format!("{:.0}", r.serial_ms),
                    format!("{:.2}x", r.speedup_vs_sequential),
                ]
            })
            .collect::<Vec<_>>(),
    );
    serde_json::json!({
        "testbed": label,
        "vehicles": scenario.vehicle_ids().len(),
        "duration_s": duration.as_secs(),
        "rows": rows.iter().map(|r| r.to_json()).collect::<Vec<_>>(),
    })
}

/// Metro axis: the nested epoch hierarchy against the flat single-level
/// schedule on a multi-cluster scenario, per shard count. Both modes are
/// measured with every shard on the calling thread (`workers = Some(1)`),
/// so critical paths are honest regardless of host cores. The payoff the
/// axis demonstrates: nested runs confine fine barriers to each cluster's
/// own pipeline and only serialize fleet-wide at coarse boundaries, so
/// their serial wall — and with it the critical path at high shard
/// counts — shrinks relative to flat runs, which serialize the whole
/// fleet every fine epoch. (The two modes are distinct coupling models;
/// each is individually bit-identical across shard counts, which the
/// `metro` equivalence legs prove.)
fn metro_coupled_scaling(
    scenario: &Scenario,
    duration: SimDuration,
    counts: &[usize],
) -> serde_json::Value {
    const PASSES: usize = 2;
    let measure = |shards: usize, flat: bool| -> vifi_runtime::CoupledTiming {
        let mut best: Option<vifi_runtime::CoupledTiming> = None;
        for _ in 0..PASSES {
            let cfg = RunConfig {
                fleet_workloads: vec![WorkloadSpec::paper_cbr()],
                duration,
                seed: 1000,
                shards,
                flat_epochs: flat,
                ..RunConfig::default()
            };
            let (out, timing) = Simulation::run_coupled_timed(scenario, cfg, Some(1));
            assert_eq!(out.vehicles.len(), scenario.vehicle_ids().len());
            let better = best
                .as_ref()
                .map(|b| timing.critical_path() < b.critical_path())
                .unwrap_or(true);
            if better {
                best = Some(timing);
            }
        }
        best.expect("at least one pass")
    };
    let ms = |t: &vifi_runtime::CoupledTiming| t.critical_path().as_secs_f64() * 1e3;
    let (mut seq_nested_ms, mut seq_flat_ms) = (0.0f64, 0.0f64);
    let mut rows = Vec::new();
    for &shards in counts {
        let nested = measure(shards, false);
        let flat = measure(shards, true);
        let (nested_ms, flat_ms) = (ms(&nested), ms(&flat));
        if shards == 1 {
            seq_nested_ms = nested_ms;
            seq_flat_ms = flat_ms;
        }
        rows.push(serde_json::json!({
            "shards": shards,
            "nested_critical_path_ms": nested_ms,
            "nested_serial_ms": nested.serial.as_secs_f64() * 1e3,
            "nested_speedup_vs_sequential": seq_nested_ms / nested_ms.max(1e-9),
            "flat_critical_path_ms": flat_ms,
            "flat_serial_ms": flat.serial.as_secs_f64() * 1e3,
            "flat_speedup_vs_sequential": seq_flat_ms / flat_ms.max(1e-9),
            "nested_vs_flat": flat_ms / nested_ms.max(1e-9),
        }));
    }
    print_table(
        &format!(
            "Metro — nested vs flat coupled scaling ({} vehicles, {} clusters)",
            scenario.vehicle_ids().len(),
            scenario
                .contact_clusters(&scenario.build_link_model(&Rng::new(1000)))
                .len(),
        ),
        &[
            "shards",
            "nested ms",
            "nested speedup",
            "flat ms",
            "flat speedup",
            "nested/flat",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r["shards"].as_u64().expect("row shards").to_string(),
                    format!("{:.0}", r["nested_critical_path_ms"].as_f64().unwrap()),
                    format!(
                        "{:.2}x",
                        r["nested_speedup_vs_sequential"].as_f64().unwrap()
                    ),
                    format!("{:.0}", r["flat_critical_path_ms"].as_f64().unwrap()),
                    format!("{:.2}x", r["flat_speedup_vs_sequential"].as_f64().unwrap()),
                    format!("{:.2}x", r["nested_vs_flat"].as_f64().unwrap()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    serde_json::json!({
        "testbed": "Metro",
        "vehicles": scenario.vehicle_ids().len(),
        "duration_s": duration.as_secs(),
        "rows": rows,
    })
}

/// One (intensity, protocol) cell of the robustness axis, seed-averaged.
struct FaultRow {
    intensity: f64,
    protocol: &'static str,
    ratio: f64,
    disrupted_s: f64,
    interruptions: f64,
    bs_restarts: f64,
    evictions: f64,
}

/// The fleet-wide 1 s combined delivery ratio below which a second counts
/// as disrupted. Fleets spend much of a lap out of coverage, so the
/// healthy fleet-wide ratio hovers around 0.15–0.25; 0.1 is comfortably
/// below the healthy floor (a handful of seconds per 300 s run) while
/// fault-driven outages push whole windows under it.
const DISRUPTION_RATIO: f64 = 0.1;

/// Sweep basestation-churn fault intensity on one fleet, ViFi against the
/// hard-handoff BRR baseline (both liveness-blacklisted so the comparison
/// isolates diversity, not the failover heuristic). Reports seed-averaged
/// delivery ratio, disruption (seconds of fleet-wide 1 s delivery below
/// [`DISRUPTION_RATIO`], and distinct interruptions), and fault-machinery
/// counters.
fn fault_sweep(
    label: &str,
    scenario: &Scenario,
    duration: SimDuration,
    seeds: u64,
) -> serde_json::Value {
    let protocols: [(&'static str, VifiConfig); 2] = [
        ("ViFi", VifiConfig::default().with_blacklist()),
        ("BRR", VifiConfig::brr_baseline().with_blacklist()),
    ];
    let mut rows: Vec<FaultRow> = Vec::new();
    for &intensity in &FAULT_INTENSITIES {
        for (name, vifi) in &protocols {
            let outs: Vec<RunOutcome> = parallel_map_seeds(seeds, |seed| {
                let run_seed = 1000 + seed;
                let plan = FaultPlan::synthesize_bs_churn(
                    intensity,
                    run_seed,
                    &scenario.bs_ids(),
                    duration,
                );
                run_faulted_fleet_deployment(
                    scenario,
                    vifi.clone(),
                    vec![WorkloadSpec::paper_cbr()],
                    duration,
                    run_seed,
                    plan,
                )
            });
            let mean = |f: &dyn Fn(&RunOutcome) -> f64| {
                outs.iter().map(f).sum::<f64>() / outs.len() as f64
            };
            let disruption = |o: &RunOutcome| {
                let agg = aggregate_cbr(o.vehicles.iter().map(|v| &v.report));
                agg.combined_ratios(SimDuration::from_secs(1), duration)
            };
            rows.push(FaultRow {
                intensity,
                protocol: name,
                ratio: mean(&|o| {
                    aggregate_cbr(o.vehicles.iter().map(|v| &v.report)).delivery_ratio()
                }),
                disrupted_s: mean(&|o| {
                    disruption(o)
                        .iter()
                        .filter(|&&r| r < DISRUPTION_RATIO)
                        .count() as f64
                }),
                interruptions: mean(&|o| interruptions(&disruption(o), DISRUPTION_RATIO) as f64),
                bs_restarts: mean(&|o| o.faults.bs_restarts as f64),
                evictions: mean(&|o| o.faults.blacklist_evictions as f64),
            });
        }
    }
    print_table(
        &format!(
            "{label} — fault sweep ({} vehicles, BS churn, {seeds} seed(s))",
            scenario.vehicle_ids().len()
        ),
        &[
            "intensity",
            "protocol",
            "ratio",
            "disrupted s",
            "interrupts",
            "restarts",
            "evictions",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.2}", r.intensity),
                    r.protocol.to_string(),
                    format!("{:.3}", r.ratio),
                    format!("{:.1}", r.disrupted_s),
                    format!("{:.1}", r.interruptions),
                    format!("{:.1}", r.bs_restarts),
                    format!("{:.1}", r.evictions),
                ]
            })
            .collect::<Vec<_>>(),
    );
    serde_json::json!({
        "testbed": label,
        "vehicles": scenario.vehicle_ids().len(),
        "duration_s": duration.as_secs(),
        "intensities": FAULT_INTENSITIES.to_vec(),
        "rows": rows.iter().map(|r| serde_json::json!({
            "intensity": r.intensity,
            "protocol": r.protocol,
            "delivery_ratio_mean": r.ratio,
            "disrupted_s_mean": r.disrupted_s,
            "interruptions_mean": r.interruptions,
            "bs_restarts_mean": r.bs_restarts,
            "blacklist_evictions_mean": r.evictions,
        })).collect::<Vec<_>>(),
    })
}

fn main() {
    let scale = Scale::from_args();
    banner("fleet_sweep", &scale);
    // Long enough that every phase-spread vehicle crosses coverage at
    // least once; scaled up by --laps / --full like the other bins.
    let duration = SimDuration::from_secs(300 * scale.laps.max(1) as u64);
    let seeds = scale.seeds.max(1);
    let vanlan_json = sweep_testbed("VanLAN", vanlan, duration, seeds);
    let diesel_json = sweep_testbed(
        "DieselNet-Fleet",
        |n| dieselnet_fleet(n, 42),
        duration,
        seeds,
    );
    let max_fleet = *FLEET_SIZES.last().expect("non-empty grid");
    let vanlan_big = vanlan(max_fleet);
    let diesel_big = dieselnet_fleet(max_fleet, 42);
    let coupled_scaling_json = vec![
        coupled_scaling("VanLAN", &vanlan_big, duration, &SHARD_COUNTS),
        coupled_scaling("DieselNet-Fleet", &diesel_big, duration, &SHARD_COUNTS),
    ];
    // City-scale axis: 64/128-vehicle fleets at up to 16 shards — what the
    // parallel audibility-partitioned barrier buys. The fleets are heavy,
    // hence the shorter horizon.
    let city_duration = SimDuration::from_secs(60 * scale.laps.max(1) as u64);
    let city_scaling_json = vec![
        coupled_scaling(
            "VanLAN-city",
            &vanlan(64),
            city_duration,
            &CITY_SHARD_COUNTS,
        ),
        coupled_scaling(
            "DieselNet-city",
            &dieselnet_fleet(128, 42),
            city_duration,
            &CITY_SHARD_COUNTS,
        ),
    ];
    // Metro axis: nested hierarchy vs flat schedule on the four-district
    // multi-cluster scenario — the regime the nested barriers are for.
    let metro_scaling_json =
        metro_coupled_scaling(&metro(4, 16, 42), city_duration, &CITY_SHARD_COUNTS);
    // Robustness axis: delivery and disruption against fault intensity on
    // the issue's two fleets (vanlan(8), dieselnet_fleet(16)).
    let fault_sweep_json = vec![
        fault_sweep("VanLAN", &vanlan(8), duration, seeds),
        fault_sweep("DieselNet-Fleet", &diesel_big, duration, seeds),
    ];
    save_json(
        "fleet_sweep",
        &serde_json::json!({
            "workload": "paper_cbr",
            "fleet_sizes": FLEET_SIZES.to_vec(),
            "shard_counts": SHARD_COUNTS.to_vec(),
            "city_shard_counts": CITY_SHARD_COUNTS.to_vec(),
            "fault_intensities": FAULT_INTENSITIES.to_vec(),
            "testbeds": [vanlan_json, diesel_json],
            "coupled_scaling": coupled_scaling_json,
            "city_coupled_scaling": city_scaling_json,
            "metro_coupled_scaling": metro_scaling_json,
            "fault_sweep": fault_sweep_json,
        }),
    );
}
