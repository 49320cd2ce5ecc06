//! Hot-path micro-benchmark snapshot: measures every path named by the
//! ROADMAP (relay probability, Gilbert–Elliott fades, shadow-field
//! sampling, event-queue churn, session aggregation) with the
//! statistics-bearing harness and writes a `BENCH_<name>.json` snapshot
//! (`{bench → ns/iter}`).
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
//! in every pass to pollute a number.
//!
//! Compare two snapshots with the `bench_compare` bin; CI gates every PR
//! on `bench_compare BENCH_baseline.json BENCH_current.json`.

use bytes::Bytes;
use vifi_bench::harness::{BenchConfig, Harness};
use vifi_core::config::Coordination;
use vifi_core::endpoint::DataFrame;
use vifi_core::prob::{expected_relays, relay_probability, PreparedRelay, RelayInputs};
use vifi_core::{Direction, PacketId, VifiPayload};
use vifi_faults::FaultPlan;
use vifi_mac::WireFrame;
use vifi_metrics::{sessions_from_ratios, SessionDef, SlotSeries};
use vifi_phy::gilbert::GeParams;
use vifi_phy::pathloss::{ShadowField, ShadowSampler};
use vifi_phy::{GilbertElliott, NodeId, Point};
use vifi_runtime::{read_stream, RunConfig, RunLog, Simulation, StreamFold, WorkloadSpec};
use vifi_sim::{EventQueue, Rng, SimDuration, SimTime};
use vifi_testbeds::{dieselnet_fleet, metro, vanlan};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cfg = BenchConfig::from_env(&args);
    let name = args
        .iter()
        .position(|a| a == "--name")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "current".to_string());
    let runs: u32 = args
        .iter()
        .position(|a| a == "--runs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1);

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
}

/// The hot-path suite. Names are the compare keys — keep them stable.
fn register(h: &mut Harness) {
    bench_relay(h);
    bench_gilbert(h);
    bench_shadow(h);
    bench_event_queue(h);
    bench_sessions(h);
    bench_wire_frame(h);
    bench_runlog_stream(h);
    bench_fleet_sharded(h);
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
        log.on_source_tx(
            id,
            if i % 3 == 0 {
                Direction::Downstream
            } else {
                Direction::Upstream
            },
            SimTime::from_millis(i),
            aux.clone(),
            aux[..(i % 5) as usize].to_vec(),
            i % 4 == 0,
        );
        if i % 2 == 1 {
            log.on_ack_heard(id, &aux[..2]);
            log.on_decision(id, aux[0], 0.4, i % 8 == 1);
            if i % 8 == 1 {
                log.on_relay(id, aux[0], false, i % 16 == 1);
            }
            log.on_delivered(id);
        }
        if i % 100 == 0 {
            log.on_aux_sample(i / 100, aux.len());
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
    // A city-scale coupled run: 64 vans through the parallel
    // audibility-partitioned barrier (collect → probe → split → place →
    // merge each epoch). Tracks the partitioner and group-placement cost
    // per event at the batch sizes a dense fleet actually produces —
    // where a regression in the PR 7 barrier machinery would land.
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
    // A multi-cluster metro run through the nested epoch hierarchy: four
    // radio-disjoint districts, each walking its own fine schedule and
    // cluster pipeline, rendezvousing at coarse boundaries for backplane
    // routing. Tracks the cluster decomposition, per-cluster medium
    // placement and the two-level barrier loop — where a regression in
    // the hierarchical engine would land.
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
