//! Hot-path micro-benchmark snapshot: measures every path named by the
//! ROADMAP (relay probability, Gilbert–Elliott fades, shadow-field
//! sampling, link-quality lookups, event-queue churn, session
//! aggregation, endpoint bookkeeping, set-up contact analysis, TCP
//! driver ticks) with the statistics-bearing harness and writes a
//! `BENCH_<name>.json` snapshot (`{bench → ns/iter}`).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p vifi-bench --bin bench_json            # BENCH_current.json
//! cargo run --release -p vifi-bench --bin bench_json -- --name baseline --runs 5
//! cargo run --release -p vifi-bench --bin bench_json -- --short --runs 3  # CI fidelity
//! ```
//!
//! `--runs N` measures the whole suite N times and keeps each bench's
//! minimum — repeats are separated by the rest of the suite, so a
//! contention burst on a shared host (CI runners included) has to recur
//! in every pass to pollute a number. An unknown flag, a flag without
//! its value, or a `--runs` value that is not a positive integer prints
//! the usage lines and exits 2.
//!
//! Compare two snapshots with the `bench_compare` bin; CI gates every PR
//! on `bench_compare BENCH_baseline.json BENCH_current.json`.

use std::process::ExitCode;

use bytes::Bytes;
use vifi_bench::harness::{BenchConfig, Harness};
use vifi_core::config::Coordination;
use vifi_core::endpoint::DataFrame;
use vifi_core::prob::{expected_relays, relay_probability, PreparedRelay, RelayInputs};
use vifi_core::{BeaconPayload, Direction, Endpoint, PacketId, Role, VifiConfig, VifiPayload};
use vifi_faults::FaultPlan;
use vifi_mac::WireFrame;
use vifi_metrics::{sessions_from_ratios, SessionDef, SlotSeries};
use vifi_phy::gilbert::GeParams;
use vifi_phy::pathloss::{ShadowField, ShadowSampler};
use vifi_phy::{GilbertElliott, LinkModel, NodeId, Point};
use vifi_runtime::{
    plan_shards, read_stream, LogEvent, LogSink, RunConfig, RunLog, Simulation, StreamFold,
    WorkloadSpec,
};
use vifi_sim::{EventQueue, Rng, SimDuration, SimTime};
use vifi_testbeds::{dieselnet_fleet, metro, vanlan};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (name, runs) = match parse_flags(&args[1..]) {
        Ok(flags) => flags,
        Err(msg) => {
            eprintln!("bench_json: {msg}");
            eprintln!("usage: bench_json [--name NAME] [--runs N] [--short]");
            eprintln!("  --name  snapshot file BENCH_<NAME>.json (default: current)");
            eprintln!("  --runs  passes over the suite, N >= 1, merged by minimum (default: 1)");
            eprintln!("  --short CI fidelity (also VIFI_BENCH_SHORT=1)");
            return ExitCode::from(2);
        }
    };
    let cfg = BenchConfig::from_env(&args);

    println!(
        "vifi-bench snapshot ({} mode, {runs} run{})",
        if cfg.is_short() { "short" } else { "full" },
        if runs == 1 { "" } else { "s" }
    );
    let mut h = Harness::new(cfg);
    for pass in 0..runs {
        if runs > 1 {
            println!("-- pass {}/{runs} --", pass + 1);
        }
        h.bench_calibration();
        register(&mut h);
    }

    let path = format!("BENCH_{name}.json");
    let json = serde_json::to_string_pretty(&h.to_json()).expect("serialize snapshot");
    std::fs::write(&path, json + "\n").expect("write snapshot");
    println!("[saved {path}]");
    ExitCode::SUCCESS
}

/// Parse the arguments after the program name into the snapshot name
/// and the number of passes: `--name NAME`, `--runs N` with `N >= 1`,
/// and `--short` (read again by [`BenchConfig::from_env`]). An unknown
/// flag, a flag without its value or a run count that is not a positive
/// integer is an error.
fn parse_flags(args: &[String]) -> Result<(String, u32), String> {
    let (mut name, mut runs) = ("current".to_string(), 1);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--short" => {}
            "--name" => name = value()?.clone(),
            "--runs" => {
                let v = value()?;
                runs = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad value for --runs: {v:?}"))?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok((name, runs))
}

/// The hot-path suite. Names are the compare keys — keep them stable.
fn register(h: &mut Harness) {
    bench_relay(h);
    bench_gilbert(h);
    bench_shadow(h);
    bench_link_lookup(h);
    bench_event_queue(h);
    bench_sessions(h);
    bench_wire_frame(h);
    bench_endpoint(h);
    bench_runlog_stream(h);
    bench_fleet_sharded(h);
    bench_setup_and_tcp(h);
}

fn bench_setup_and_tcp(h: &mut Harness) {
    // One run's set-up contact analysis on a 108-node metro, through the
    // public planner entry point: the streaming pass over the contact
    // atlas (clusters, load weights, per-cluster activity) plus the plan.
    let scenario = metro(4, 16, 1);
    let cfg = RunConfig {
        fleet_workloads: vec![WorkloadSpec::paper_cbr()],
        duration: SimDuration::from_secs(30),
        seed: 1,
        shards: 2,
        ..RunConfig::default()
    };
    h.bench("contact_analysis_metro", || {
        plan_shards(&scenario, std::hint::black_box(&cfg))
            .assignments
            .len()
    });
    // Table 1's workload at a tenth of its length: one instrumented van
    // running the paper's repeated TCP transfers, one shard — where the
    // driver's timer ticks land in the event count.
    let vanlan1 = vanlan(1);
    let tcp_cfg = RunConfig {
        workload: WorkloadSpec::paper_tcp(),
        duration: SimDuration::from_secs(120),
        seed: 71,
        ..RunConfig::default()
    };
    h.bench("tcp_run_vanlan1_120s", || {
        Simulation::deployment(&vanlan1, std::hint::black_box(tcp_cfg.clone()))
            .run()
            .events
    });
}

fn bench_wire_frame(h: &mut Harness) {
    // The zero-copy frame layer's encode-once/decode-at-receiver loop on
    // a representative data frame (1000-byte app payload, relayed copy,
    // piggybacked bitmap) — what every transmission now costs at the
    // source plus at each receiver, replacing per-hop deep clones.
    let payload = VifiPayload::Data(DataFrame {
        id: PacketId {
            origin: NodeId(3),
            seq: 4242,
        },
        flow_src: NodeId(3),
        flow_dst: NodeId(17),
        relayed_by: Some(NodeId(12)),
        app: Bytes::from(vec![0xa5u8; 1000]),
        bitmap: Some((4241, 0b1011_0110)),
    });
    h.bench("frame_encode_decode", || {
        let wire = WireFrame::encode(NodeId(3), 1034, std::hint::black_box(&payload));
        wire.decode::<VifiPayload>().expect("codec round-trip")
    });
}

fn bench_endpoint(h: &mut Harness) {
    let cfg = VifiConfig::default();
    let bs_ids: Vec<NodeId> = (1..=30).map(NodeId).collect();
    // A CBR vehicle out of range of every BS: its backlog sits at
    // `max_data_queue` and none of it can go out. One iteration is the
    // engine's work per packet there — accept it (the queue bound drops
    // the oldest waiting frame), try the interface, re-arm the wake-up.
    let mut veh = Endpoint::new(
        NodeId(0),
        Role::Vehicle,
        cfg.clone(),
        bs_ids.clone(),
        Rng::new(1),
    );
    let app = Bytes::from(vec![0u8; 500]);
    let mut now = SimTime::ZERO;
    for _ in 0..cfg.max_data_queue {
        veh.send_app(app.clone(), None, now);
    }
    h.bench("endpoint_unanchored_cbr", || {
        now += SimDuration::from_millis(100);
        veh.send_app(app.clone(), None, now);
        let pulled = veh.pull_frame(now).is_some();
        (pulled, veh.next_wakeup())
    });
    // Beacon work at a vehicle among 30 basestations that hear each other
    // and it: build its beacon (anchor choice, aux set, payload) and hear
    // one BS beacon listing all 30 neighbours both ways, the 30 BSes
    // taking turns at the beacon rate.
    let beacons: Vec<VifiPayload> = bs_ids
        .iter()
        .map(|&b| {
            let others: Vec<NodeId> = (0..=30).map(NodeId).filter(|&n| n != b).collect();
            VifiPayload::Beacon(BeaconPayload {
                node: b,
                incoming: others.iter().map(|&n| (n, 0.8)).collect(),
                outgoing: others.iter().map(|&n| (n, 0.7)).collect(),
                vehicle: None,
            })
        })
        .collect();
    let mut veh = Endpoint::new(NodeId(0), Role::Vehicle, cfg.clone(), bs_ids, Rng::new(2));
    let step = cfg.beacon_period / beacons.len() as u64;
    let mut now = SimTime::ZERO;
    for b in &beacons {
        now += step;
        veh.on_frame(b, now);
    }
    let mut next = 0;
    h.bench("endpoint_beacon_30nbr", || {
        now += step;
        let (_, bytes, _) = veh.make_beacon(now);
        veh.on_frame(&beacons[next], now);
        next = (next + 1) % beacons.len();
        bytes
    });
}

fn bench_runlog_stream(h: &mut Harness) {
    // The streaming trace pipeline end to end: serialize a 10k-record
    // run log to its binary form and fold the bytes back into the
    // derived statistics with the constant-memory reader — the
    // replacement for materializing a second in-memory log.
    let mut log = RunLog::new();
    let aux: Vec<NodeId> = (10..15).map(NodeId).collect();
    for i in 0..10_000u64 {
        let id = PacketId {
            origin: NodeId(0),
            seq: i / 2, // every id transmits twice
        };
        let at = SimTime::from_millis(i);
        let dir = if i % 3 == 0 {
            Direction::Downstream
        } else {
            Direction::Upstream
        };
        let tx = LogEvent::SourceTx {
            id,
            dir,
            aux_set: aux.clone(),
            aux_heard: aux[..(i % 5) as usize].to_vec(),
            dst_heard: i % 4 == 0,
        };
        log.apply(at, tx);
        if i % 2 == 1 {
            let heard_by = aux[..2].to_vec();
            log.apply(at, LogEvent::AckAttach { id, heard_by });
            let relayed = i % 8 == 1;
            let decision = LogEvent::Decision {
                id,
                aux: aux[0],
                prob: 0.4,
                relayed,
            };
            log.apply(at, decision);
            if relayed {
                let relay = LogEvent::Relay {
                    id,
                    by: aux[0],
                    via_backplane: false,
                    reached: i % 16 == 1,
                };
                log.apply(at, relay);
            }
            log.apply(at, LogEvent::DeliverMark { id });
        }
        if i % 100 == 0 {
            let (sec, size) = (i / 100, aux.len());
            log.apply(at, LogEvent::AuxSample { sec, size });
        }
    }
    h.bench("runlog_stream_10k", || {
        let bytes = log.write_binary(Vec::new()).expect("serialize");
        let mut fold = StreamFold::new();
        read_stream(&bytes[..], &mut fold).expect("fold");
        fold.finish().records
    });
}

fn bench_fleet_sharded(h: &mut Harness) {
    // The sharded executor on a 16-bus DieselNet fleet: one
    // epoch-synchronized run split across 2 shards, every shard executed
    // on the calling thread (worker threads would only add scheduler
    // noise to a microbenchmark) — measures planning, epoch execution,
    // barrier placement/resolution, canonical routing and the log
    // replay. A short simulated horizon keeps one iteration in the tens
    // of milliseconds.
    let scenario = dieselnet_fleet(16, 42);
    let coupled_cfg = RunConfig {
        fleet_workloads: vec![WorkloadSpec::paper_cbr()],
        duration: SimDuration::from_secs(2),
        seed: 7,
        shards: 2,
        ..RunConfig::default()
    };
    h.bench("fleet_run_16bus_coupled", || {
        Simulation::run_coupled_timed(
            &scenario,
            std::hint::black_box(coupled_cfg.clone()),
            Some(1),
        )
        .0
        .events
    });
    // The same coupled run under a full synthesized fault plan (BS churn,
    // beacon suppression, partitions, spikes, wired outages at 0.6
    // intensity) — tracks what the fault-gating predicates and the
    // barrier-side partition/spike/retry filtering cost per event. The
    // unfaulted benches above stay on the `faults.is_empty()` fast path,
    // so a regression here is isolated to the fault machinery.
    let faulted_cfg = RunConfig {
        faults: FaultPlan::synthesize(
            0.6,
            7,
            &scenario.bs_ids(),
            &scenario.vehicle_ids(),
            SimDuration::from_secs(2),
        ),
        ..coupled_cfg
    };
    h.bench("fleet_run_16bus_faulted", || {
        Simulation::run_coupled_timed(
            &scenario,
            std::hint::black_box(faulted_cfg.clone()),
            Some(1),
        )
        .0
        .events
    });
    // A city-scale coupled run: 64 vans through the barrier pipeline
    // (collect → probe → place → resolve each epoch). Tracks the probe
    // and placement cost per event at the batch sizes a dense fleet
    // actually produces — where a regression in the barrier machinery
    // would land.
    let city = vanlan(64);
    let city_cfg = RunConfig {
        fleet_workloads: vec![WorkloadSpec::paper_cbr()],
        duration: SimDuration::from_secs(2),
        seed: 7,
        shards: 2,
        ..RunConfig::default()
    };
    h.bench("fleet_run_64van_coupled", || {
        Simulation::run_coupled_timed(&city, std::hint::black_box(city_cfg.clone()), Some(1))
            .0
            .events
    });
    // A multi-cluster metro run: four radio-disjoint districts, each
    // crossing the fine boundaries of its own schedule through the one
    // barrier pipeline and routing over the backplane only at coarse
    // rendezvous. Tracks the cluster decomposition, per-cluster medium
    // placement and the boundary walk — where a regression in
    // multi-cluster synchronization would land.
    let metro_scenario = metro(4, 4, 7);
    let metro_cfg = RunConfig {
        fleet_workloads: vec![WorkloadSpec::paper_cbr()],
        duration: SimDuration::from_secs(2),
        seed: 7,
        shards: 2,
        ..RunConfig::default()
    };
    h.bench("fleet_run_metro_coupled", || {
        Simulation::run_coupled_timed(
            &metro_scenario,
            std::hint::black_box(metro_cfg.clone()),
            Some(1),
        )
        .0
        .events
    });
}

fn bench_relay(h: &mut Harness) {
    let inputs = RelayInputs {
        p_s_b: vec![0.7, 0.5, 0.9, 0.3, 0.6],
        p_s_d: 0.65,
        p_d_b: vec![0.5, 0.6, 0.4, 0.7, 0.5],
        p_b_d: vec![0.8, 0.4, 0.6, 0.5, 0.7],
    };
    {
        let ctx = inputs.ctx();
        h.bench("relay_probability_vifi_5aux", || {
            relay_probability(std::hint::black_box(&ctx), 2, Coordination::Vifi)
        });
        h.bench("relay_probability_notg3_5aux", || {
            relay_probability(std::hint::black_box(&ctx), 2, Coordination::NotG3)
        });
    }
    // The Table 2 / ablation access pattern: every auxiliary of a dense
    // cell queried against one shared context.
    let mut rng = Rng::new(9);
    let wide = RelayInputs {
        p_s_b: (0..16).map(|_| rng.next_f64()).collect(),
        p_s_d: 0.4,
        p_d_b: (0..16).map(|_| rng.next_f64()).collect(),
        p_b_d: (0..16).map(|_| rng.next_f64()).collect(),
    };
    let ctx = wide.ctx();
    h.bench("relay_expected_relays_16aux", || {
        expected_relays(std::hint::black_box(&ctx), Coordination::Vifi)
    });
    // Fleet fan-out: one auxiliary wake-up batch spanning 16 co-located
    // flows (one per vehicle), each flow's Eq. 1 denominator prepared once
    // and swept across its 8 auxiliaries — the endpoint's per-flow
    // PreparedRelay path at fleet scale.
    let mut rng = Rng::new(10);
    let flows: Vec<RelayInputs> = (0..16)
        .map(|_| RelayInputs {
            p_s_b: (0..8).map(|_| rng.next_f64()).collect(),
            p_s_d: rng.next_f64(),
            p_d_b: (0..8).map(|_| rng.next_f64()).collect(),
            p_b_d: (0..8).map(|_| rng.next_f64()).collect(),
        })
        .collect();
    h.bench("relay_fleet_sweep_16flows_8aux", || {
        let mut acc = 0.0;
        for f in std::hint::black_box(&flows) {
            let prepared = PreparedRelay::new(f.ctx(), Coordination::Vifi);
            for me in 0..8 {
                acc += prepared.probability(me);
            }
        }
        acc
    });
}

fn bench_gilbert(h: &mut Harness) {
    // Dense queries: every 10 ms, the per-frame pattern of a busy link.
    let mut ge = GilbertElliott::new(GeParams::default(), Rng::new(7));
    let mut t = SimTime::ZERO;
    h.bench("ge_advance_dense_10ms", || {
        t += SimDuration::from_millis(10);
        ge.attenuation_db_at(t)
    });
    // Sparse queries: a link revisited every 10 s (vehicle re-entering a
    // cell) — the jump-ahead case, ~25 sojourns per query for the
    // per-step reference walk.
    let mut ge = GilbertElliott::new(GeParams::default(), Rng::new(8));
    let mut t = SimTime::ZERO;
    h.bench("ge_advance_sparse_10s", || {
        t += SimDuration::from_secs(10);
        ge.attenuation_db_at(t)
    });
}

fn bench_shadow(h: &mut Harness) {
    // A vehicle driving through the field: 1.7 m steps, VanLAN-box wrap.
    // The path is precomputed so the bench isolates sampling cost.
    let path: Vec<Point> = (1..=4096u64)
        .map(|i| {
            let x = i as f64 * 1.7;
            Point::new(x % 800.0, (x * 0.37) % 550.0)
        })
        .collect();
    let field = ShadowField::new(42, 5.0, 45.0);
    let mut i = 0usize;
    h.bench("shadow_sample_path_uncached", || {
        i = (i + 1) & 4095;
        field.sample_db(path[i])
    });
    let mut sampler = ShadowSampler::new(ShadowField::new(42, 5.0, 45.0));
    let mut i = 0usize;
    h.bench("shadow_sample_path", || {
        i = (i + 1) & 4095;
        sampler.sample_db(path[i])
    });
}

fn bench_link_lookup(h: &mut Harness) {
    // The channel question behind every barrier probe, every receiver of
    // a frame and every pair-second of the set-up contact sweeps: can
    // `rx` hear `tx` now? One `quality_hint` per iteration, walking every
    // ordered pair of a 108-node metro at 30 one-second instants.
    let scenario = metro(4, 16, 1);
    let link = scenario.build_link_model(&Rng::new(1));
    let ids: Vec<NodeId> = link.nodes().iter().map(|&(id, _)| id).collect();
    let pairs: Vec<(NodeId, NodeId)> = ids
        .iter()
        .flat_map(|&a| ids.iter().filter(move |&&b| b != a).map(move |&b| (a, b)))
        .collect();
    let calls = pairs.len() * 30;
    let mut i = 0usize;
    h.bench("link_quality_hint_metro", || {
        i = (i + 1) % calls;
        let (tx, rx) = pairs[i % pairs.len()];
        link.quality_hint(tx, rx, SimTime::from_secs((i / pairs.len()) as u64))
    });
}

fn bench_event_queue(h: &mut Harness) {
    // The protocol churn pattern: schedule a burst of timers, cancel a
    // third of them (ACKed retransmissions), drain the rest.
    h.bench("event_queue_churn_1k", || {
        let mut rng = Rng::new(3);
        let mut q = EventQueue::new();
        let mut tokens = Vec::with_capacity(1000);
        for i in 0..1000u32 {
            tokens.push(q.schedule(SimTime::from_micros(rng.below(1_000_000)), i));
        }
        for (i, tok) in tokens.iter().enumerate() {
            if i % 3 == 0 {
                q.cancel(*tok);
            }
        }
        let mut n = 0u32;
        while let Some(e) = q.pop() {
            std::hint::black_box(e);
            n += 1;
        }
        n
    });
}

fn bench_sessions(h: &mut Harness) {
    let mut rng = Rng::new(11);
    let ratios: Vec<f64> = (0..10_000).map(|_| rng.next_f64()).collect();
    let def = SessionDef::paper_default();
    h.bench("sessions_from_10k_ratios", || {
        sessions_from_ratios(std::hint::black_box(&ratios), def)
    });
    // The full streaming path: slot-level counts → interval ratios →
    // sessions, as the figure bins consume it. 60 000 slots ≈ 100 min of
    // 100 ms probes.
    let mut ss = SlotSeries::new(SimDuration::from_millis(100));
    let mut rng = Rng::new(12);
    for i in 0..60_000u64 {
        ss.record(SimTime::from_millis(i * 100), rng.below(3) as u32, 2);
    }
    h.bench("slot_series_sessions_60k", || {
        ss.sessions(std::hint::black_box(def))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_parse_and_reject_bad_values() {
        let flags = |line: &str| parse_flags(&args(line));
        assert_eq!(flags(""), Ok(("current".into(), 1)));
        assert_eq!(flags("--short --runs 5"), Ok(("current".into(), 5)));
        assert_eq!(
            flags("--name baseline --runs 3"),
            Ok(("baseline".into(), 3))
        );
        for bad in [
            "--runs abc",
            "--runs 0",
            "--runs -2",
            "--runs",
            "--name",
            "--name --runs 2",
            "--fast",
            "baseline",
        ] {
            assert!(flags(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
