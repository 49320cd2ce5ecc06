//! Beacon traces: the DieselNet measurement artifact and the §5.1
//! trace-driven simulation pipeline.
//!
//! The buses logged, for every second and every BS, how many beacons they
//! heard (the profiling channel was pinned so beacons were never missed to
//! scanning). The paper turns those logs into a simulation environment:
//!
//! > *"The beacon loss ratio from a BS to the vehicle in each one-second
//! > interval is used as the packet loss rate from that BS to the vehicle
//! > and from the vehicle to the BS. … For inter-BS loss rates, we assume
//! > that BS pairs that are never simultaneously within the range of a bus
//! > cannot reach one another. For other pairs, we assign loss ratios
//! > between 0 and 1 uniformly at random."* (§5.1)
//!
//! [`BeaconTrace`] is the log; [`generate_beacon_trace`] produces one from
//! a synthetic scenario (our substitute for the unavailable
//! traces.cs.umass.edu archive); [`TraceSimSetup`] applies the quoted rules
//! to produce a [`TraceLinkModel`]. Traces serialize to JSON (for reuse
//! across runs) and to CSV (for external plotting).

use std::io::{BufRead, Write};

use serde::{Deserialize, Serialize};
use vifi_phy::link::{LossSeries, TraceLinkModel};
use vifi_phy::{LinkModel, NodeId, NodeKind};
use vifi_sim::{Rng, SimDuration, SimTime};

use crate::scenario::Scenario;

/// One (second, BS) cell of a beacon log.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BeaconRecord {
    /// Second index since trace start.
    pub sec: u64,
    /// BS index within the trace's `bs_count`.
    pub bs: u32,
    /// Beacons heard in this second.
    pub heard: u32,
    /// Beacons that must have been sent in this second.
    pub expected: u32,
    /// Mean RSSI of heard beacons, dBm (0.0 when none heard).
    pub mean_rssi_dbm: f64,
}

/// A beacon log for one vehicle over one channel.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BeaconTrace {
    /// Trace label ("DieselNet-Ch1", "VanLAN-validation", …).
    pub name: String,
    /// Number of BSes profiled.
    pub bs_count: u32,
    /// Trace duration in whole seconds.
    pub seconds: u64,
    /// Beacons each BS sends per second.
    pub beacons_per_sec: u32,
    /// Sparse records: seconds in which a BS was heard at least once.
    /// (Silent seconds are implicit — like the real logs, nothing is
    /// recorded when nothing is heard.)
    pub records: Vec<BeaconRecord>,
}

impl BeaconTrace {
    /// Per-second delivery-ratio series for one BS, dense over the whole
    /// trace (unheard seconds are 0).
    pub fn delivery_series(&self, bs: u32) -> Vec<f64> {
        let mut out = vec![0.0; self.seconds as usize];
        for r in self.records.iter().filter(|r| r.bs == bs) {
            if (r.sec as usize) < out.len() && r.expected > 0 {
                out[r.sec as usize] = r.heard as f64 / r.expected as f64;
            }
        }
        out
    }

    /// For each second, how many BSes had delivery ratio ≥ `min_ratio`
    /// (with `min_ratio == 0.0` meaning "at least one beacon heard").
    /// This is the Fig. 5 estimator.
    pub fn visible_per_second(&self, min_ratio: f64) -> Vec<u32> {
        let mut out = vec![0u32; self.seconds as usize];
        for r in &self.records {
            if (r.sec as usize) >= out.len() || r.expected == 0 {
                continue;
            }
            let ratio = r.heard as f64 / r.expected as f64;
            let visible = if min_ratio <= 0.0 {
                r.heard >= 1
            } else {
                ratio >= min_ratio
            };
            if visible {
                out[r.sec as usize] += 1;
            }
        }
        out
    }

    /// True if BSes `a` and `b` were ever heard in the same second — the
    /// §5.1 reachability rule for inter-BS links.
    pub fn co_visible(&self, a: u32, b: u32) -> bool {
        let mut secs_a: Vec<u64> = self
            .records
            .iter()
            .filter(|r| r.bs == a && r.heard > 0)
            .map(|r| r.sec)
            .collect();
        secs_a.sort_unstable();
        self.records
            .iter()
            .any(|r| r.bs == b && r.heard > 0 && secs_a.binary_search(&r.sec).is_ok())
    }

    /// Total beacons heard across the trace.
    pub fn total_heard(&self) -> u64 {
        self.records.iter().map(|r| r.heard as u64).sum()
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace serialization cannot fail")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Write as CSV (`sec,bs,heard,expected,mean_rssi_dbm`).
    pub fn write_csv<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(
            w,
            "# name={} bs_count={} seconds={} beacons_per_sec={}",
            self.name, self.bs_count, self.seconds, self.beacons_per_sec
        )?;
        writeln!(w, "sec,bs,heard,expected,mean_rssi_dbm")?;
        for r in &self.records {
            writeln!(
                w,
                "{},{},{},{},{:.1}",
                r.sec, r.bs, r.heard, r.expected, r.mean_rssi_dbm
            )?;
        }
        Ok(())
    }

    /// Parse the CSV form produced by [`write_csv`](Self::write_csv).
    pub fn read_csv<R: BufRead>(r: R) -> Result<Self, String> {
        let mut name = String::from("csv-trace");
        let mut bs_count = 0u32;
        let mut seconds = 0u64;
        let mut beacons_per_sec = 0u32;
        let mut records = Vec::new();
        for (lineno, line) in r.lines().enumerate() {
            let line = line.map_err(|e| e.to_string())?;
            let line = line.trim();
            if line.is_empty() || line == "sec,bs,heard,expected,mean_rssi_dbm" {
                continue;
            }
            if let Some(meta) = line.strip_prefix('#') {
                for kv in meta.split_whitespace() {
                    let Some((k, v)) = kv.split_once('=') else {
                        continue;
                    };
                    match k {
                        "name" => name = v.to_string(),
                        "bs_count" => bs_count = v.parse().map_err(|e| format!("{e}"))?,
                        "seconds" => seconds = v.parse().map_err(|e| format!("{e}"))?,
                        "beacons_per_sec" => {
                            beacons_per_sec = v.parse().map_err(|e| format!("{e}"))?
                        }
                        _ => {}
                    }
                }
                continue;
            }
            let mut it = line.split(',');
            let mut next = |what: &str| {
                it.next()
                    .ok_or_else(|| format!("line {}: missing {what}", lineno + 1))
            };
            records.push(BeaconRecord {
                sec: next("sec")?.parse().map_err(|e| format!("{e}"))?,
                bs: next("bs")?.parse().map_err(|e| format!("{e}"))?,
                heard: next("heard")?.parse().map_err(|e| format!("{e}"))?,
                expected: next("expected")?.parse().map_err(|e| format!("{e}"))?,
                mean_rssi_dbm: next("rssi")?.parse().map_err(|e| format!("{e}"))?,
            });
        }
        Ok(BeaconTrace {
            name,
            bs_count,
            seconds,
            beacons_per_sec,
            records,
        })
    }
}

/// Generate a synthetic beacon trace by sampling a scenario's physical
/// channel: each BS beacons `beacons_per_sec` times a second; the chosen
/// vehicle logs per-second hear-counts and mean RSSI, exactly the
/// DieselNet methodology (§2.2).
pub fn generate_beacon_trace(
    scenario: &Scenario,
    vehicle: NodeId,
    duration: SimDuration,
    beacons_per_sec: u32,
    rng: &Rng,
) -> BeaconTrace {
    assert!(beacons_per_sec > 0);
    let mut link = scenario.build_link_model(rng);
    let bs_ids = scenario.bs_ids();
    let seconds = duration.as_secs();
    BeaconTrace {
        name: scenario.name.clone(),
        bs_count: bs_ids.len() as u32,
        seconds,
        beacons_per_sec,
        records: sample_vehicle_records(&mut link, &bs_ids, vehicle, seconds, beacons_per_sec),
    }
}

/// The §2.2 logging loop shared by the single-vehicle and fleet trace
/// generators: per second and per BS, count beacons the vehicle heard and
/// average their RSSI; silent seconds produce no record.
fn sample_vehicle_records(
    link: &mut vifi_phy::PhysicalLinkModel,
    bs_ids: &[NodeId],
    vehicle: NodeId,
    seconds: u64,
    beacons_per_sec: u32,
) -> Vec<BeaconRecord> {
    let gap = SimDuration::from_micros(1_000_000 / beacons_per_sec as u64);
    let mut records = Vec::new();
    for sec in 0..seconds {
        for (bi, &bs) in bs_ids.iter().enumerate() {
            let mut heard = 0u32;
            let mut rssi_sum = 0.0;
            for k in 0..beacons_per_sec {
                let t = SimTime::from_secs(sec) + gap * k as u64;
                if link.sample_delivery(bs, vehicle, t) {
                    heard += 1;
                    rssi_sum += link.rssi_dbm(bs, vehicle, t).unwrap_or(-95.0);
                }
            }
            if heard > 0 {
                records.push(BeaconRecord {
                    sec,
                    bs: bi as u32,
                    heard,
                    expected: beacons_per_sec,
                    mean_rssi_dbm: rssi_sum / heard as f64,
                });
            }
        }
    }
    records
}

/// Generate one beacon trace per vehicle of a (fleet) scenario, all
/// sampled against a single shared channel build — so the per-bus logs are
/// mutually consistent the way a real fleet's logs are (the same shadowing
/// field, the same AP placements, one RNG lineage). The traces come back
/// in [`Scenario::vehicle_ids`] order, named `<scenario>/<vehicle>`.
///
/// This is the fleet face of the §5.1 pipeline: the paper had one
/// instrumented bus, so [`TraceSimSetup`] deliberately models one vehicle
/// per trace; a fleet study replays each returned trace through its own
/// `TraceSimSetup` (or drives the scenario directly in deployment mode).
pub fn generate_fleet_beacon_traces(
    scenario: &Scenario,
    duration: SimDuration,
    beacons_per_sec: u32,
    rng: &Rng,
) -> Vec<BeaconTrace> {
    assert!(beacons_per_sec > 0);
    let mut link = scenario.build_link_model(rng);
    let bs_ids = scenario.bs_ids();
    let seconds = duration.as_secs();
    scenario
        .vehicle_ids()
        .iter()
        .map(|&vehicle| BeaconTrace {
            name: format!("{}/{}", scenario.name, scenario.node(vehicle).name),
            bs_count: bs_ids.len() as u32,
            seconds,
            beacons_per_sec,
            records: sample_vehicle_records(&mut link, &bs_ids, vehicle, seconds, beacons_per_sec),
        })
        .collect()
}

/// The §5.1 trace-driven simulation environment built from a beacon trace.
pub struct TraceSimSetup {
    /// The assembled link model: vehicle ↔ BS series from the trace
    /// (symmetric), BS ↔ BS constant series per the co-visibility rule.
    pub link: TraceLinkModel,
    /// The vehicle's node id (0).
    pub vehicle: NodeId,
    /// BS node ids (1..=bs_count), index-aligned with the trace's `bs`.
    pub bs_ids: Vec<NodeId>,
}

impl TraceSimSetup {
    /// Apply the paper's rules to a trace. `rng` drives the uniform
    /// inter-BS loss draw.
    pub fn from_trace(trace: &BeaconTrace, rng: &Rng) -> Self {
        let mut link = TraceLinkModel::new(rng);
        let vehicle = NodeId(0);
        link.add_node(vehicle, NodeKind::Vehicle);
        let bs_ids: Vec<NodeId> = (0..trace.bs_count)
            .map(|i| {
                let id = NodeId(1 + i);
                link.add_node(id, NodeKind::Basestation);
                id
            })
            .collect();
        // Vehicle↔BS: per-second beacon delivery ratio, both directions.
        for (bi, &bs) in bs_ids.iter().enumerate() {
            let series = LossSeries::new(trace.delivery_series(bi as u32));
            link.set_symmetric(vehicle, bs, series);
        }
        // BS↔BS: unreachable unless ever co-visible; else constant loss
        // drawn uniformly (delivery = 1 − loss).
        let mut draw = rng.fork_named("inter-bs-loss");
        let secs = trace.seconds as usize;
        for i in 0..bs_ids.len() {
            for j in i + 1..bs_ids.len() {
                if trace.co_visible(i as u32, j as u32) {
                    let delivery = 1.0 - draw.next_f64();
                    let series = LossSeries::new(vec![delivery; secs]);
                    link.set_symmetric(bs_ids[i], bs_ids[j], series);
                }
            }
        }
        TraceSimSetup {
            link,
            vehicle,
            bs_ids,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dieselnet::dieselnet_ch1;
    use crate::vanlan::vanlan;

    fn small_trace() -> BeaconTrace {
        let s = vanlan(1);
        let veh = s.vehicle_ids()[0];
        generate_beacon_trace(&s, veh, SimDuration::from_secs(120), 10, &Rng::new(11))
    }

    #[test]
    fn generated_trace_has_sane_shape() {
        let t = small_trace();
        assert_eq!(t.bs_count, 11);
        assert_eq!(t.seconds, 120);
        assert!(t.total_heard() > 100, "heard {}", t.total_heard());
        for r in &t.records {
            assert!(r.heard >= 1 && r.heard <= r.expected);
            assert!(r.sec < 120);
            assert!(r.bs < 11);
            assert!(r.mean_rssi_dbm < -20.0, "rssi {}", r.mean_rssi_dbm);
        }
    }

    #[test]
    fn delivery_series_dense_and_bounded() {
        let t = small_trace();
        for bs in 0..t.bs_count {
            let s = t.delivery_series(bs);
            assert_eq!(s.len(), 120);
            assert!(s.iter().all(|p| (0.0..=1.0).contains(p)));
        }
    }

    #[test]
    fn visibility_counts_consistent() {
        let t = small_trace();
        let any = t.visible_per_second(0.0);
        let half = t.visible_per_second(0.5);
        assert_eq!(any.len(), 120);
        for (a, h) in any.iter().zip(half.iter()) {
            assert!(h <= a, "50% visibility cannot exceed any-beacon visibility");
            assert!(*a <= t.bs_count);
        }
        // The van drives through campus within the first two minutes, so
        // someone must be visible at some point.
        assert!(any.iter().any(|&c| c >= 1));
    }

    #[test]
    fn json_roundtrip() {
        let t = small_trace();
        let j = t.to_json();
        let back = BeaconTrace::from_json(&j).unwrap();
        assert_eq!(back.records, t.records);
        assert_eq!(back.name, t.name);
        assert_eq!(back.seconds, t.seconds);
    }

    #[test]
    fn csv_roundtrip() {
        let t = small_trace();
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let back = BeaconTrace::read_csv(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(back.bs_count, t.bs_count);
        assert_eq!(back.seconds, t.seconds);
        assert_eq!(back.beacons_per_sec, t.beacons_per_sec);
        assert_eq!(back.records.len(), t.records.len());
        for (a, b) in back.records.iter().zip(t.records.iter()) {
            assert_eq!(a.sec, b.sec);
            assert_eq!(a.bs, b.bs);
            assert_eq!(a.heard, b.heard);
            assert!((a.mean_rssi_dbm - b.mean_rssi_dbm).abs() < 0.1);
        }
    }

    #[test]
    fn trace_sim_setup_applies_section_5_1_rules() {
        let s = dieselnet_ch1();
        let veh = s.vehicle_ids()[0];
        let trace = generate_beacon_trace(&s, veh, SimDuration::from_secs(200), 10, &Rng::new(21));
        let setup = TraceSimSetup::from_trace(&trace, &Rng::new(22));
        assert_eq!(setup.bs_ids.len(), 10);
        // Vehicle↔BS series must mirror the trace (spot-check one BS).
        let mut link = setup.link;
        let bs3 = setup.bs_ids[3];
        let series = trace.delivery_series(3);
        for (sec, &p) in series.iter().enumerate().take(50) {
            let t = SimTime::from_secs(sec as u64) + SimDuration::from_millis(500);
            // The fading layer may attenuate below the trace ratio, but
            // never above it, and dead seconds stay dead.
            let up = link.delivery_prob(setup.vehicle, bs3, t);
            let down = link.delivery_prob(bs3, setup.vehicle, t);
            assert!(up <= p + 1e-12, "upstream {up} vs trace {p}");
            assert!(down <= p + 1e-12, "downstream {down} vs trace {p}");
            if p == 0.0 {
                assert_eq!(up, 0.0);
                assert_eq!(down, 0.0);
            }
        }
    }

    #[test]
    fn never_covisible_pairs_unreachable() {
        // Hand-build a trace where BS 0 and BS 1 are never co-visible.
        let trace = BeaconTrace {
            name: "hand".into(),
            bs_count: 2,
            seconds: 10,
            beacons_per_sec: 10,
            records: vec![
                BeaconRecord {
                    sec: 1,
                    bs: 0,
                    heard: 5,
                    expected: 10,
                    mean_rssi_dbm: -70.0,
                },
                BeaconRecord {
                    sec: 5,
                    bs: 1,
                    heard: 5,
                    expected: 10,
                    mean_rssi_dbm: -70.0,
                },
            ],
        };
        assert!(!trace.co_visible(0, 1));
        let setup = TraceSimSetup::from_trace(&trace, &Rng::new(1));
        let mut link = setup.link;
        let t = SimTime::from_secs(1);
        assert_eq!(
            link.delivery_prob(setup.bs_ids[0], setup.bs_ids[1], t),
            0.0,
            "never-co-visible BSes cannot reach one another"
        );
    }

    #[test]
    fn covisible_pairs_get_constant_series() {
        let trace = BeaconTrace {
            name: "hand".into(),
            bs_count: 2,
            seconds: 10,
            beacons_per_sec: 10,
            records: vec![
                BeaconRecord {
                    sec: 2,
                    bs: 0,
                    heard: 5,
                    expected: 10,
                    mean_rssi_dbm: -70.0,
                },
                BeaconRecord {
                    sec: 2,
                    bs: 1,
                    heard: 3,
                    expected: 10,
                    mean_rssi_dbm: -75.0,
                },
            ],
        };
        assert!(trace.co_visible(0, 1));
        let setup = TraceSimSetup::from_trace(&trace, &Rng::new(3));
        let mut link = setup.link;
        let p1 = link.delivery_prob(setup.bs_ids[0], setup.bs_ids[1], SimTime::from_secs(0));
        assert!(p1 > 0.0 && p1 <= 1.0);
        // The underlying series is constant and symmetric (fades modulate
        // per call, so compare the quality hints, which bypass fading).
        let q1 = link.quality_hint(setup.bs_ids[0], setup.bs_ids[1], SimTime::from_secs(0));
        let q2 = link.quality_hint(setup.bs_ids[0], setup.bs_ids[1], SimTime::from_secs(9));
        let q3 = link.quality_hint(setup.bs_ids[1], setup.bs_ids[0], SimTime::from_secs(0));
        assert_eq!(q1, q2, "inter-BS series is constant over the trace");
        assert_eq!(q1, q3, "inter-BS series is symmetric");
    }

    #[test]
    fn fleet_traces_one_per_bus_and_deterministic() {
        let s = crate::dieselnet::dieselnet_fleet(3, 5);
        let traces =
            generate_fleet_beacon_traces(&s, SimDuration::from_secs(90), 10, &Rng::new(13));
        assert_eq!(traces.len(), 3);
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(t.bs_count, 14);
            assert_eq!(t.seconds, 90);
            assert!(t.name.ends_with(&format!("bus-{i}")), "{}", t.name);
        }
        // Distinct schedules ⇒ distinct logs; same inputs ⇒ same logs.
        assert_ne!(traces[0].records, traces[1].records);
        let again = generate_fleet_beacon_traces(&s, SimDuration::from_secs(90), 10, &Rng::new(13));
        for (a, b) in traces.iter().zip(again.iter()) {
            assert_eq!(a.records, b.records);
        }
        // Each per-bus trace feeds the single-vehicle §5.1 pipeline as-is.
        let setup = TraceSimSetup::from_trace(&traces[0], &Rng::new(14));
        assert_eq!(setup.bs_ids.len(), 14);
    }

    #[test]
    fn trace_determinism() {
        let s = vanlan(1);
        let veh = s.vehicle_ids()[0];
        let a = generate_beacon_trace(&s, veh, SimDuration::from_secs(60), 10, &Rng::new(5));
        let b = generate_beacon_trace(&s, veh, SimDuration::from_secs(60), 10, &Rng::new(5));
        assert_eq!(a.records, b.records);
    }
}
