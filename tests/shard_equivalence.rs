//! Shard-equivalence suite: the determinism guarantees of sharded fleet
//! runs, asserted as bit-identity over [`RunOutcome::fingerprint`] (every
//! probe outcome, delay, log record and counter; floats by bit pattern).
//!
//! What is enforced, per scenario and across seeds:
//!
//! 1. `shards = 1` (the sequential coupled run, `Simulation::run`) matches
//!    **recorded golden fingerprints** — the epoch engine's physics is
//!    pinned against silent drift.
//! 2. **Sharded runs** at `shards ∈ {2, 4, 8}` (default configs: `shards`
//!    is an execution knob, not a model switch) are **bit-identical to
//!    the sequential `shards = 1` run** — the epoch-synchronized engine
//!    preserves the full shared-medium contention while splitting the run
//!    across shards and worker threads; neither the partition nor the
//!    worker count may leak into the outcome.
//! 3. For single-vehicle scenarios (the paper's setup) sharded runs of
//!    *any* count are bit-identical to the sequential run.
//!
//! Run with `--test-threads=1` in CI (the `test-shards` matrix) so the
//! sharded executors own the machine while they are measured.

use proptest::prelude::*;
use vifi::faults::FaultPlan;
use vifi::runtime::{RunConfig, Simulation, WorkloadSpec};
use vifi::sim::SimDuration;
use vifi::testbeds::{dieselnet_fleet, vanlan, Scenario};

/// The fleet configurations the issue pins: vanlan(8) and a 16-bus
/// DieselNet fleet, every vehicle carrying the paper's CBR workload.
fn fleet_scenarios() -> Vec<(&'static str, Scenario)> {
    vec![
        ("vanlan(8)", vanlan(8)),
        ("dieselnet_fleet(16, 42)", dieselnet_fleet(16, 42)),
    ]
}

fn fleet_cfg(seed: u64, shards: usize, secs: u64) -> RunConfig {
    RunConfig {
        fleet_workloads: vec![WorkloadSpec::paper_cbr()],
        duration: SimDuration::from_secs(secs),
        seed,
        shards,
        ..RunConfig::default()
    }
}

/// ≥ 5 seeds, per the issue.
const SEEDS: [u64; 5] = [11, 12, 13, 14, 15];

/// A fleet config carrying a full synthesized fault plan (BS churn,
/// beacon suppression, wired outages, backplane partitions and spikes) at
/// substantial intensity. The plan is a pure function of the seed and the
/// scenario's node sets, so every executor under test derives the same
/// schedule.
fn faulted_fleet_cfg(scenario: &Scenario, seed: u64, shards: usize, secs: u64) -> RunConfig {
    let duration = SimDuration::from_secs(secs);
    RunConfig {
        faults: FaultPlan::synthesize(
            0.6,
            seed,
            &scenario.bs_ids(),
            &scenario.vehicle_ids(),
            duration,
        ),
        ..fleet_cfg(seed, shards, secs)
    }
}

#[test]
fn sequential_run_matches_golden_fingerprints() {
    // These pin the coupled physics (the epoch engine at one shard)
    // against silent drift. If a deliberate physics change lands,
    // regenerate them (the failure message prints the new values, or run
    // `cargo run --release --example regen_goldens`) and explain the
    // change in the commit. Last regenerated for the streaming-trace PR:
    // the run-log fingerprint now combines per-record digests by wrapping
    // addition (order-free, so the streaming binary-trace fold can
    // finalize records out of creation order and still match
    // bit-for-bit) — same records, new hash composition. The physics is
    // unchanged, which the equivalence tests above continue to prove.
    let golden: [(u64, [u64; 5]); 2] = [
        (
            0, // vanlan(8)
            [
                0xc1c21970db8a7456,
                0xa58a0f4ba7a0c85f,
                0x53a1e8ed8a5b7e94,
                0xdf12a92d15c6457d,
                0xaec2e8f953bd6026,
            ],
        ),
        (
            1, // dieselnet_fleet(16, 42)
            [
                0x77e3d51c190d6857,
                0xfad669ddb33ea05a,
                0x40bfe11e1d3b1a54,
                0x21b525dff3f65600,
                0x2f84f56c3ec79ffb,
            ],
        ),
    ];
    for ((name, scenario), (_, expected)) in fleet_scenarios().into_iter().zip(golden) {
        for (seed, want) in SEEDS.into_iter().zip(expected) {
            let cfg = fleet_cfg(seed, 1, 15);
            let sequential = Simulation::deployment(&scenario, cfg).run().fingerprint();
            assert_eq!(
                sequential, want,
                "{name} seed {seed}: coupled-path fingerprint drifted from \
                 the recorded golden (got {sequential:#018x})"
            );
        }
    }
}

#[test]
fn coupled_shards_2_4_8_are_bit_identical_to_sequential() {
    // The tentpole guarantee: sharding preserves the shared medium
    // exactly — at {2, 4, 8} shards (and whatever worker threads
    // the host grants), the merged outcome equals the sequential
    // `shards = 1` run bit for bit, on both 16-vehicle-class fleets,
    // across ≥ 5 seeds.
    for (name, scenario) in fleet_scenarios() {
        for seed in SEEDS {
            let sequential = Simulation::deployment(&scenario, fleet_cfg(seed, 1, 15))
                .run()
                .fingerprint();
            for shards in [2usize, 4, 8] {
                let cfg = fleet_cfg(seed, shards, 15);
                let fp = Simulation::run_sharded(&scenario, cfg).fingerprint();
                assert_eq!(fp, sequential, "{name} seed {seed} coupled shards {shards}");
            }
        }
    }
}

#[test]
fn coupled_outcome_is_invariant_to_worker_count() {
    // Same partition, different executors: every shard on the calling
    // thread vs. real worker threads behind the epoch barrier.
    let scenario = vanlan(8);
    let cfg = fleet_cfg(29, 4, 15);
    let (serial, timing) = Simulation::run_coupled_timed(&scenario, cfg.clone(), Some(1));
    assert_eq!(timing.per_shard.len(), 4);
    let (threaded, _) = Simulation::run_coupled_timed(&scenario, cfg, None);
    assert_eq!(serial.fingerprint(), threaded.fingerprint());
}

#[test]
fn auto_shards_match_explicit_counts() {
    // `shards = 0` (auto) resolves to the host's core count floored at
    // two; like any explicit count it reproduces the sequential run.
    let scenario = vanlan(8);
    let sequential = Simulation::deployment(&scenario, fleet_cfg(21, 1, 15))
        .run()
        .fingerprint();
    let auto = Simulation::run_sharded(&scenario, fleet_cfg(21, 0, 15)).fingerprint();
    assert_eq!(auto, sequential, "auto == sequential");
    let explicit = Simulation::run_sharded(&scenario, fleet_cfg(21, 4, 15)).fingerprint();
    assert_eq!(explicit, sequential, "explicit == sequential");
}

#[test]
fn single_vehicle_scenarios_shard_to_the_sequential_run() {
    // The paper's one-instrumented-vehicle setup: sharding can only move
    // the run to other cores, so any shard count replays the sequential
    // run bit-for-bit — including counts that leave shards vehicle-free.
    let scenario = vanlan(1);
    for seed in [5u64, 6, 7] {
        let cfg = RunConfig {
            workload: WorkloadSpec::paper_cbr(),
            duration: SimDuration::from_secs(30),
            seed,
            ..RunConfig::default()
        };
        let sequential = Simulation::deployment(&scenario, cfg.clone())
            .run()
            .fingerprint();
        for shards in [1usize, 2, 4, 8] {
            let fp = Simulation::run_sharded(
                &scenario,
                RunConfig {
                    shards,
                    ..cfg.clone()
                },
            )
            .fingerprint();
            assert_eq!(fp, sequential, "seed {seed} shards {shards}");
        }
    }
}

#[test]
fn faulted_coupled_shards_2_4_8_are_bit_identical_to_sequential() {
    // The robustness tentpole: every fault event — crash/restart windows,
    // suppressed beacons, partition and spike losses, retry re-sends —
    // crosses the epoch barrier in canonical order, so a faulted coupled
    // run is bit-identical to the faulted sequential run at any shard
    // count, on both fleets, across ≥ 5 seeds.
    for (name, scenario) in fleet_scenarios() {
        for seed in SEEDS {
            let cfg = faulted_fleet_cfg(&scenario, seed, 1, 15);
            let sequential = Simulation::deployment(&scenario, cfg).run();
            assert!(
                sequential.faults.bs_restarts > 0,
                "{name} seed {seed}: fault machinery must actually engage"
            );
            let sequential = sequential.fingerprint();
            for shards in [2usize, 4, 8] {
                let cfg = faulted_fleet_cfg(&scenario, seed, shards, 15);
                let fp = Simulation::run_sharded(&scenario, cfg).fingerprint();
                assert_eq!(
                    fp, sequential,
                    "{name} seed {seed} faulted coupled shards {shards}"
                );
            }
        }
    }
}

#[test]
fn faulted_coupled_outcome_is_invariant_to_worker_count() {
    // Fault handling must not depend on which thread runs a shard: the
    // serial executor and real worker threads agree bit for bit.
    for (name, scenario) in fleet_scenarios() {
        let cfg = faulted_fleet_cfg(&scenario, 37, 4, 15);
        let (serial, _) = Simulation::run_coupled_timed(&scenario, cfg.clone(), Some(1));
        let (threaded, _) = Simulation::run_coupled_timed(&scenario, cfg, None);
        assert_eq!(
            serial.fingerprint(),
            threaded.fingerprint(),
            "{name}: faulted worker invariance"
        );
    }
}

#[test]
fn faulted_runs_differ_from_unfaulted_runs() {
    // Non-vacuity for the whole faulted suite: the synthesized plan must
    // actually perturb the physics.
    let scenario = vanlan(8);
    let clean = Simulation::deployment(&scenario, fleet_cfg(11, 1, 15))
        .run()
        .fingerprint();
    let faulted = Simulation::deployment(&scenario, faulted_fleet_cfg(&scenario, 11, 1, 15))
        .run()
        .fingerprint();
    assert_ne!(clean, faulted, "faults must perturb the coupled run");
}

/// City-scale fleets: the scenarios with the largest barrier batches.
/// Names contain `city` so the CI `test-shards` matrix can route these
/// legs (`--test-threads=1`, filter `city`).
fn city_scenarios() -> Vec<(&'static str, Scenario)> {
    vec![
        ("vanlan(64)", vanlan(64)),
        ("dieselnet_fleet(128, 42)", dieselnet_fleet(128, 42)),
    ]
}

/// ≥ 3 seeds for the city legs, per the issue.
const CITY_SEEDS: [u64; 3] = [51, 52, 53];

/// Short horizon: a city run costs ~16× a vanlan(8) run per simulated
/// second, and each scenario/seed pair below runs five executors.
const CITY_SECS: u64 = 8;

#[test]
fn city_coupled_shards_2_4_8_16_are_bit_identical_to_sequential() {
    // The tentpole guarantee at city scale: the parallel barrier
    // (probes on the worker pool, one placement pass on the leader)
    // must not leak the shard count or the worker count into the
    // outcome — at 2/4/8/16 shards the merged run equals the sequential
    // one bit for bit on 64- and 128-vehicle fleets, across ≥ 3 seeds.
    for (name, scenario) in city_scenarios() {
        for seed in CITY_SEEDS {
            let sequential = Simulation::deployment(&scenario, fleet_cfg(seed, 1, CITY_SECS))
                .run()
                .fingerprint();
            for shards in [2usize, 4, 8, 16] {
                let cfg = fleet_cfg(seed, shards, CITY_SECS);
                let fp = Simulation::run_sharded(&scenario, cfg).fingerprint();
                assert_eq!(
                    fp, sequential,
                    "{name} seed {seed} city coupled shards {shards}"
                );
            }
        }
    }
}

#[test]
fn city_faulted_coupled_runs_are_bit_identical_to_sequential() {
    // Faults at intensity 0.5 on the city fleets: every crash window,
    // suppressed beacon and backplane loss still crosses the parallel
    // barrier in canonical order.
    for (name, scenario) in city_scenarios() {
        for seed in CITY_SEEDS {
            let faulted = |shards: usize| RunConfig {
                faults: FaultPlan::synthesize(
                    0.5,
                    seed,
                    &scenario.bs_ids(),
                    &scenario.vehicle_ids(),
                    SimDuration::from_secs(CITY_SECS),
                ),
                ..fleet_cfg(seed, shards, CITY_SECS)
            };
            let sequential = Simulation::deployment(&scenario, faulted(1)).run();
            assert!(
                sequential.faults.bs_restarts > 0,
                "{name} seed {seed}: city fault machinery must actually engage"
            );
            let sequential = sequential.fingerprint();
            for shards in [4usize, 16] {
                let cfg = faulted(shards);
                let fp = Simulation::run_sharded(&scenario, cfg).fingerprint();
                assert_eq!(
                    fp, sequential,
                    "{name} seed {seed} city faulted coupled shards {shards}"
                );
            }
        }
    }
}

#[test]
fn city_coupled_outcome_is_invariant_to_worker_count() {
    // The serial executor (analytic timing) and real worker threads run
    // the same 8-wait barrier schedule; at city scale they must still
    // agree bit for bit.
    let scenario = vanlan(64);
    let cfg = fleet_cfg(57, 8, CITY_SECS);
    let (serial, timing) = Simulation::run_coupled_timed(&scenario, cfg.clone(), Some(1));
    assert_eq!(timing.per_shard.len(), 8);
    let (threaded, _) = Simulation::run_coupled_timed(&scenario, cfg, None);
    assert_eq!(serial.fingerprint(), threaded.fingerprint());
}

// ---------------------------------------------------------------------
// Metro scale: multi-cluster scenarios on the nested epoch hierarchy.
// Names contain `metro` (and not `city`) so the CI `test-shards` matrix
// can route these legs (`--test-threads=1`, filter `metro`).
// ---------------------------------------------------------------------

use vifi::testbeds::metro;

/// ≥ 3 seeds for the metro legs, per the issue.
const METRO_SEEDS: [u64; 3] = [71, 72, 73];

/// Short horizon: metro(4, 16) is a 108-node fleet and every seed below
/// runs several executors.
const METRO_SECS: u64 = 8;

#[test]
fn metro_coupled_shards_2_4_8_16_are_bit_identical_to_sequential() {
    // The tentpole guarantee: the cluster pipeline (per-cluster fine
    // schedules, coarse fleet-wide rendezvous) must not leak the shard
    // count, the cluster-to-shard placement, the supergroup structure, or
    // the worker count into the outcome. The hierarchy is a pure function
    // of the scenario, so the sequential `shards = 1` run walks the same
    // one — bit-identity is across executors of one model.
    for seed in METRO_SEEDS {
        let scenario = metro(4, 16, seed);
        let sequential = Simulation::deployment(&scenario, fleet_cfg(seed, 1, METRO_SECS)).run();
        assert!(
            sequential.frames_tx > 0,
            "seed {seed}: the metro fleet must actually transmit"
        );
        let sequential = sequential.fingerprint();
        for shards in [2usize, 4, 8, 16] {
            let cfg = fleet_cfg(seed, shards, METRO_SECS);
            let fp = Simulation::run_sharded(&scenario, cfg).fingerprint();
            assert_eq!(fp, sequential, "seed {seed} metro coupled shards {shards}");
        }
    }
}

#[test]
fn metro_faulted_coupled_runs_are_bit_identical_to_sequential() {
    // Faults at intensity 0.5 on the metro fleet: crash windows and
    // beacon suppression stay lane-local inside the cluster pipelines,
    // while partition and spike losses resolve in canonical order at the
    // coarse rendezvous — every executor derives the same schedule.
    for seed in METRO_SEEDS {
        let scenario = metro(4, 16, seed);
        let faulted = |shards: usize| RunConfig {
            faults: FaultPlan::synthesize(
                0.5,
                seed,
                &scenario.bs_ids(),
                &scenario.vehicle_ids(),
                SimDuration::from_secs(METRO_SECS),
            ),
            ..fleet_cfg(seed, shards, METRO_SECS)
        };
        let sequential = Simulation::deployment(&scenario, faulted(1)).run();
        assert!(
            sequential.faults.bs_restarts > 0,
            "seed {seed}: metro fault machinery must actually engage"
        );
        let sequential = sequential.fingerprint();
        for shards in [4usize, 16] {
            let cfg = faulted(shards);
            let fp = Simulation::run_sharded(&scenario, cfg).fingerprint();
            assert_eq!(
                fp, sequential,
                "seed {seed} metro faulted coupled shards {shards}"
            );
        }
    }
}

#[test]
fn metro_coupled_outcome_is_invariant_to_worker_count() {
    // The serial executor and real worker threads behind the
    // NestedEpochBarrier (supergroups with their own worker slices) must
    // agree bit for bit — including when workers < clusters and when
    // workers > shards.
    let scenario = metro(4, 16, 71);
    for shards in [4usize, 8] {
        let cfg = fleet_cfg(71, shards, METRO_SECS);
        let (serial, timing) = Simulation::run_coupled_timed(&scenario, cfg.clone(), Some(1));
        assert_eq!(timing.per_shard.len(), shards);
        let (threaded, _) = Simulation::run_coupled_timed(&scenario, cfg, None);
        assert_eq!(
            serial.fingerprint(),
            threaded.fingerprint(),
            "metro worker invariance at {shards} shards"
        );
    }
}

/// The sequential run and `run_sharded` at 1, 2 and 4 shards agree bit
/// for bit.
fn assert_identical_at_shards_1_2_4(name: &str, scenario: &Scenario, cfg: RunConfig) {
    let sequential = Simulation::deployment(scenario, cfg.clone())
        .run()
        .fingerprint();
    for shards in [1usize, 2, 4] {
        let fp = Simulation::run_sharded(
            scenario,
            RunConfig {
                shards,
                ..cfg.clone()
            },
        )
        .fingerprint();
        assert_eq!(fp, sequential, "{name} shards {shards}");
    }
}

#[test]
fn one_bs_scenario_is_bit_identical_at_shards_1_2_4() {
    // A fleet served by a single basestation (the busiest of the lap):
    // every contact list holds at most one BS.
    let full = vanlan(8);
    let link = full.build_link_model(&vifi::sim::Rng::new(1));
    let (busiest, _) = full
        .bs_contact_seconds(&link, 0.1)
        .into_iter()
        .max_by_key(|&(b, w)| (w, std::cmp::Reverse(b)))
        .expect("vanlan has basestations");
    let (scenario, _) = full.with_bs_subset(&[busiest]);
    for seed in [31u64, 32] {
        let cfg = fleet_cfg(seed, 1, 20);
        let out = Simulation::deployment(&scenario, cfg.clone()).run();
        assert!(out.frames_tx > 0, "the lone BS must see traffic");
        assert_identical_at_shards_1_2_4("one BS", &scenario, cfg);
    }
}

#[test]
fn idle_fleet_is_bit_identical_at_shards_1_2_4() {
    // No vehicle carries traffic: only beacons cross the barriers.
    let scenario = vanlan(8);
    for seed in [33u64, 34] {
        let cfg = RunConfig {
            fleet_workloads: vec![WorkloadSpec::Idle],
            ..fleet_cfg(seed, 1, 20)
        };
        assert_identical_at_shards_1_2_4("idle fleet", &scenario, cfg);
    }
}

#[test]
fn mid_second_horizon_is_bit_identical_at_shards_1_2_4() {
    // The run ends halfway through a second of the contact atlas.
    for (name, scenario) in fleet_scenarios() {
        let cfg = RunConfig {
            duration: SimDuration::from_millis(7_500),
            ..fleet_cfg(35, 1, 8)
        };
        assert_identical_at_shards_1_2_4(name, &scenario, cfg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Property over arbitrary seeds: default-mode parallel executions at
    /// co-prime shard counts, and a replay, all equal the sequential run
    /// on a mid-sized fleet.
    #[test]
    fn sharded_outcome_is_a_pure_function_of_seed(seed in 1u64..1_000_000) {
        let scenario = vanlan(4);
        let sequential = Simulation::deployment(&scenario, fleet_cfg(seed, 1, 10))
            .run()
            .fingerprint();
        for shards in [2usize, 3] {
            let fp =
                Simulation::run_sharded(&scenario, fleet_cfg(seed, shards, 10)).fingerprint();
            prop_assert_eq!(fp, sequential, "seed {} shards {}", seed, shards);
        }
        // And replaying the same seed reproduces the same bits.
        let replay =
            Simulation::run_sharded(&scenario, fleet_cfg(seed, 2, 10)).fingerprint();
        prop_assert_eq!(replay, sequential);
    }
}
