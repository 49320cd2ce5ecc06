//! Streaming-trace equivalence suite: the binary run-trace path must be
//! an exact substitute for the in-memory [`RunLog`].
//!
//! What is enforced, on both fleet scenarios (vanlan(8) and a 16-bus
//! DieselNet fleet), clean and under a synthesized fault plan, across
//! coupled shard counts:
//!
//! 1. Serializing a run's log as a binary trace and replaying it into a
//!    fresh `RunLog` reproduces the original **fingerprint bit-for-bit**.
//! 2. Folding the same trace with the constant-memory [`StreamFold`]
//!    yields the **same fingerprint** and bit-identical Table 1 / Table 2
//!    / PerfectRelay statistics — without materializing the record
//!    vector.
//! 3. The fold's working set is bounded by packets in flight, not run
//!    length: quadrupling the horizon grows records ~linearly but leaves
//!    the pending high-water mark flat.
//! 4. Scripted logs of arbitrary shape and node labels (property test)
//!    reconstruct exactly from their binary trace, replayed and folded.

use proptest::prelude::*;
use vifi::core::{Direction, PacketId};
use vifi::faults::FaultPlan;
use vifi::phy::NodeId;
use vifi::runtime::{
    read_stream, Fingerprintable, PerfectRelayOutcome, RunConfig, RunLog, Simulation, StreamFold,
    Table1, WorkloadSpec,
};
use vifi::sim::{SimDuration, SimTime};
use vifi::testbeds::{dieselnet_fleet, vanlan, Scenario};

fn fleet_scenarios() -> Vec<(&'static str, Scenario)> {
    vec![
        ("vanlan(8)", vanlan(8)),
        ("dieselnet_fleet(16, 42)", dieselnet_fleet(16, 42)),
    ]
}

fn fleet_cfg(scenario: &Scenario, seed: u64, shards: usize, secs: u64, faulted: bool) -> RunConfig {
    let duration = SimDuration::from_secs(secs);
    RunConfig {
        fleet_workloads: vec![WorkloadSpec::paper_cbr()],
        duration,
        seed,
        shards,
        faults: if faulted {
            FaultPlan::synthesize(
                0.6,
                seed,
                &scenario.bs_ids(),
                &scenario.vehicle_ids(),
                duration,
            )
        } else {
            FaultPlan::default()
        },
        ..RunConfig::default()
    }
}

/// Assert the full streaming contract for one log: binary round-trip
/// reconstruction and constant-memory fold, both bit-identical.
fn assert_stream_equivalence(label: &str, log: &RunLog) {
    assert!(
        !log.records.is_empty(),
        "{label}: run produced no records — the equivalence would be vacuous"
    );
    let want = log.fingerprint();

    // (1) trace → fresh RunLog reconstruction.
    let bytes = log.write_binary(Vec::new()).expect("serialize trace");
    let mut rebuilt = RunLog::new();
    read_stream(&bytes[..], &mut rebuilt).expect("replay trace");
    assert_eq!(
        rebuilt.fingerprint(),
        want,
        "{label}: reconstructed log fingerprint drifted"
    );

    // (2) trace → constant-memory fold, same fingerprint + statistics.
    let mut fold = StreamFold::new();
    read_stream(&bytes[..], &mut fold).expect("fold trace");
    let s = fold.finish();
    assert_eq!(s.fingerprint, want, "{label}: streamed fingerprint drifted");
    assert_eq!(s.records, log.records.len() as u64, "{label}: record count");

    let t1 = Table1::from_log(log);
    for (name, streamed, in_memory) in [
        ("up.a2", s.table1.up.a2_aux_hear_tx, t1.up.a2_aux_hear_tx),
        (
            "up.a3",
            s.table1.up.a3_aux_hear_tx_not_ack,
            t1.up.a3_aux_hear_tx_not_ack,
        ),
        ("up.b1", s.table1.up.b1_src_reach, t1.up.b1_src_reach),
        (
            "up.c3",
            s.table1.up.c3_false_negative,
            t1.up.c3_false_negative,
        ),
        (
            "down.b2",
            s.table1.down.b2_false_positive,
            t1.down.b2_false_positive,
        ),
        (
            "down.c3",
            s.table1.down.c3_false_negative,
            t1.down.c3_false_negative,
        ),
        (
            "down.c4",
            s.table1.down.c4_relay_reach,
            t1.down.c4_relay_reach,
        ),
    ] {
        assert_eq!(
            streamed.to_bits(),
            in_memory.to_bits(),
            "{label}: Table 1 cell {name} diverged"
        );
    }
    let pr = PerfectRelayOutcome::from_log(log);
    assert_eq!(
        s.perfect_relay.efficiency_up.to_bits(),
        pr.efficiency_up.to_bits(),
        "{label}: PerfectRelay upstream"
    );
    assert_eq!(
        s.perfect_relay.efficiency_down.to_bits(),
        pr.efficiency_down.to_bits(),
        "{label}: PerfectRelay downstream"
    );
    assert_eq!(
        s.ledger_up.wireless_tx, log.ledger_up.wireless_tx,
        "{label}"
    );
    assert_eq!(s.backplane_drops, log.backplane_drops, "{label}");
}

#[test]
fn binary_trace_matches_in_memory_across_fleets_and_shards() {
    for (name, scenario) in fleet_scenarios() {
        for faulted in [false, true] {
            for shards in [1usize, 2, 4] {
                let cfg = fleet_cfg(&scenario, 42, shards, 10, faulted);
                let outcome = Simulation::run_sharded(&scenario, cfg);
                let label = format!("{name} faulted={faulted} shards={shards}");
                assert_stream_equivalence(&label, &outcome.log);
            }
        }
    }
}

#[test]
fn fold_working_set_stays_flat_as_horizon_grows() {
    // Same scenario, 4× the horizon: the record stream grows with the
    // run, the fold's pending high-water mark tracks packets in flight
    // (a property of the workload and channel, not the run length).
    let scenario = vanlan(2);
    let peak = |secs: u64| {
        let cfg = fleet_cfg(&scenario, 7, 1, secs, false);
        let outcome = Simulation::deployment(&scenario, cfg).run();
        let s = outcome.log.stream_summary();
        (s.records, s.peak_pending)
    };
    let (short_records, short_peak) = peak(15);
    let (long_records, long_peak) = peak(60);
    assert!(
        long_records >= short_records * 2,
        "longer horizon must produce substantially more records \
         ({short_records} → {long_records})"
    );
    assert!(
        long_peak <= short_peak.max(1) * 2,
        "pending high-water mark grew with run length: {short_peak} → \
         {long_peak} while records grew {short_records} → {long_records}"
    );
}

// ---------------------------------------------------------------------
// Scripted logs: binary-stream equivalence over arbitrary record shapes
// ---------------------------------------------------------------------

/// Build a log from a compact op script so proptest can explore record
/// shapes without driving a whole simulation. Node labels start at
/// `base`.
fn build_log(ops: &[(u8, u32, u64, bool)], base: u32) -> RunLog {
    let mut log = RunLog::new();
    for &(kind, node, seq, flag) in ops {
        let node = base + node % 8;
        let id = PacketId {
            origin: NodeId(node),
            seq: seq % 16,
        };
        let dir = if flag {
            Direction::Upstream
        } else {
            Direction::Downstream
        };
        match kind % 5 {
            0 => log.on_source_tx(
                id,
                dir,
                SimTime::from_millis(seq),
                vec![NodeId(node), NodeId(node + 1)],
                vec![NodeId(node)],
                flag,
            ),
            1 => log.on_ack_heard(id, &[NodeId(node), NodeId(node + 1)]),
            2 => log.on_decision(id, NodeId(node), 0.25, flag),
            3 => log.on_relay(id, NodeId(node), flag, !flag),
            _ => log.on_delivered(id),
        }
    }
    log.on_aux_sample(0, 3);
    log.ledger_up.on_wireless_tx();
    log
}

proptest! {
    #[test]
    fn scripted_log_streams_bit_identically(
        ops in proptest::collection::vec(
            (any::<u8>(), 0u32..16, 0u64..64, any::<bool>()),
            1..40,
        ),
        base in 0u32..1000,
    ) {
        let log = build_log(&ops, base);
        let bytes = log.write_binary(Vec::new()).expect("serialize");
        let mut rebuilt = RunLog::new();
        read_stream(&bytes[..], &mut rebuilt).expect("replay");
        prop_assert_eq!(rebuilt.fingerprint(), log.fingerprint());
        let mut fold = StreamFold::new();
        read_stream(&bytes[..], &mut fold).expect("fold");
        prop_assert_eq!(fold.finish().fingerprint, log.fingerprint());
    }
}
