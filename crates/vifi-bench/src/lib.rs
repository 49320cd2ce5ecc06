//! # vifi-bench — the paper's evaluation, regenerated
//!
//! One binary per table/figure (`cargo run --release -p vifi-bench --bin
//! fig2` etc.), each printing the same rows/series the paper reports and
//! appending machine-readable results to `results/`. Binaries accept
//! `--full` for publication-scale runs (more laps, more seeds); the
//! default scale finishes in seconds-to-a-couple-of-minutes per figure in
//! release mode.
//!
//! The shared pieces here: run scaling, deployment/trace run helpers with
//! parallel seed sweeps (a bounded scoped-thread worker pool, at most one
//! worker per core, each building and running its own `Simulation`),
//! session analysis plumbing, ASCII table and connectivity-strip
//! rendering, JSON result persistence, and the [`harness`] micro-benchmark
//! machinery behind `bench_json`/`bench_compare` and the CI perf gate.

#![forbid(unsafe_code)]

pub mod harness;

use std::io::Write as _;
use std::path::PathBuf;

use vifi_metrics::{mean_ci95, sessions_from_ratios, SessionDef};
use vifi_runtime::{CoupledTiming, RunConfig, RunOutcome, Simulation, WorkloadSpec};
use vifi_sim::{SimDuration, SimTime};
use vifi_testbeds::{BeaconTrace, Scenario};

pub use vifi_core::VifiConfig;

/// Run scaling, derived from CLI args.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Laps of the testbed route to simulate per run.
    pub laps: u32,
    /// Independent seeds per configuration.
    pub seeds: u64,
    /// Full (publication-scale) mode.
    pub full: bool,
}

impl Scale {
    /// Parse from `std::env::args` (see [`Scale::parse`]), exiting with a
    /// usage message when a scaling flag has a missing or bad value.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Scale::parse(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: [--full] [--laps N] [--seeds N]");
            std::process::exit(2)
        })
    }

    /// Parse the scaling flags: `--full` triples laps and seeds;
    /// `--laps N` / `--seeds N` override. Other arguments are ignored —
    /// `ablations` reads its own flags and `all` forwards everything — but
    /// `--laps` / `--seeds` without a positive integer after them is an
    /// error, never a silent fallback to the default.
    pub fn parse(args: &[String]) -> Result<Scale, String> {
        fn count<T: std::str::FromStr + PartialOrd + Default>(
            flag: &str,
            value: Option<&String>,
        ) -> Result<T, String> {
            let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
            match value.parse::<T>() {
                Ok(n) if n > T::default() => Ok(n),
                _ => Err(format!("{flag} {value:?}: not a whole number >= 1")),
            }
        }
        let full = args.iter().any(|a| a == "--full");
        let mut scale = Scale {
            laps: if full { 3 } else { 1 },
            seeds: if full { 5 } else { 2 },
            full,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--laps" => scale.laps = count(a, it.next())?,
                "--seeds" => scale.seeds = count(a, it.next())?,
                _ => {}
            }
        }
        Ok(scale)
    }

    /// Simulated duration for a scenario at this scale.
    pub fn duration(&self, scenario: &Scenario) -> SimDuration {
        scenario.lap * self.laps as u64
    }
}

/// The standard one-way wired delay for a workload: VoIP runs use zero
/// (the VoIP scorer adds the paper's fixed 40 ms wired budget itself,
/// §5.3.2), everything else the default 10 ms.
fn wired_delay_for(workload: &WorkloadSpec) -> SimDuration {
    match workload {
        WorkloadSpec::Voip => SimDuration::ZERO,
        _ => SimDuration::from_millis(10),
    }
}

/// Run one deployment-mode simulation.
pub fn run_deployment(
    scenario: &Scenario,
    vifi: VifiConfig,
    workload: WorkloadSpec,
    duration: SimDuration,
    seed: u64,
) -> RunOutcome {
    let wired_delay = wired_delay_for(&workload);
    let cfg = RunConfig {
        vifi,
        workload,
        duration,
        seed,
        wired_delay,
        ..RunConfig::default()
    };
    Simulation::deployment(scenario, cfg).run()
}

/// Run one fleet deployment: every vehicle in the scenario carries a
/// workload (vehicle `i` takes `workloads[i % len]`; see
/// [`vifi_runtime::RunConfig::fleet_workloads`]).
///
/// `wired_delay` is a single per-run knob, and VoIP runs need it zero
/// (the scorer adds the paper's fixed 40 ms wired budget itself), so
/// fleets must be all-VoIP or VoIP-free; mixing panics rather than
/// silently skewing the VoIP vehicles' delay budget.
pub fn run_fleet_deployment(
    scenario: &Scenario,
    vifi: VifiConfig,
    workloads: Vec<WorkloadSpec>,
    duration: SimDuration,
    seed: u64,
) -> RunOutcome {
    assert!(
        !workloads.is_empty(),
        "fleet runs need at least one workload"
    );
    let wired_delay = wired_delay_for(&workloads[0]);
    assert!(
        workloads.iter().all(|w| wired_delay_for(w) == wired_delay),
        "wired_delay is one per-run knob: a fleet must be all-VoIP \
         (wired_delay 0, the scorer adds the 40 ms budget) or VoIP-free"
    );
    let cfg = RunConfig {
        vifi,
        fleet_workloads: workloads,
        duration,
        seed,
        wired_delay,
        ..RunConfig::default()
    };
    Simulation::deployment(scenario, cfg).run()
}

/// Run one fleet deployment under a deterministic fault plan (see
/// [`vifi_faults::FaultPlan`]): same knobs as [`run_fleet_deployment`]
/// plus the schedule of basestation crashes, beacon suppressions,
/// backplane partitions/spikes and wired outages to inject.
pub fn run_faulted_fleet_deployment(
    scenario: &Scenario,
    vifi: VifiConfig,
    workloads: Vec<WorkloadSpec>,
    duration: SimDuration,
    seed: u64,
    faults: vifi_faults::FaultPlan,
) -> RunOutcome {
    assert!(
        !workloads.is_empty(),
        "fleet runs need at least one workload"
    );
    let wired_delay = wired_delay_for(&workloads[0]);
    assert!(
        workloads.iter().all(|w| wired_delay_for(w) == wired_delay),
        "wired_delay is one per-run knob: a fleet must be all-VoIP \
         (wired_delay 0, the scorer adds the 40 ms budget) or VoIP-free"
    );
    let cfg = RunConfig {
        vifi,
        fleet_workloads: workloads,
        duration,
        seed,
        wired_delay,
        faults,
        ..RunConfig::default()
    };
    Simulation::deployment(scenario, cfg).run()
}

/// Run one fleet deployment sharded across `shards` engine shards,
/// returning the outcome plus the engine's wall-clock breakdown.
/// `workers = Some(1)` executes every shard on the calling thread — the
/// honest way to measure per-shard walls on a host with fewer cores than
/// shards. Same workload rules as [`run_fleet_deployment`].
pub fn run_coupled_fleet_deployment(
    scenario: &Scenario,
    vifi: VifiConfig,
    workloads: Vec<WorkloadSpec>,
    duration: SimDuration,
    seed: u64,
    shards: usize,
    workers: Option<usize>,
) -> (RunOutcome, CoupledTiming) {
    assert!(
        !workloads.is_empty(),
        "fleet runs need at least one workload"
    );
    let wired_delay = wired_delay_for(&workloads[0]);
    assert!(
        workloads.iter().all(|w| wired_delay_for(w) == wired_delay),
        "wired_delay is one per-run knob: a fleet must be all-VoIP \
         (wired_delay 0, the scorer adds the 40 ms budget) or VoIP-free"
    );
    let cfg = RunConfig {
        vifi,
        fleet_workloads: workloads,
        duration,
        seed,
        wired_delay,
        shards,
        ..RunConfig::default()
    };
    Simulation::run_coupled_timed(scenario, cfg, workers)
}

// ---------------------------------------------------------------------
// Shard-scaling rows (the fleet_sweep scaling axes)
// ---------------------------------------------------------------------

/// One row of `results/fleet_sweep.json`'s `coupled_scaling` axis: the
/// wall-clock profile of one sharded run.
#[derive(Clone, Debug, PartialEq)]
pub struct CoupledScalingRow {
    /// Configured shard count (`1` = the sequential coupled run).
    pub shards: usize,
    /// Per-shard wall-clock, ms, in shard order (epoch execution plus
    /// reception resolution — the work a dedicated core would bear).
    pub per_shard_wall_ms: Vec<f64>,
    /// Serial coordinator wall-clock, ms (placement, backplane batches,
    /// message routing) — on every critical path regardless of cores.
    pub serial_ms: f64,
    /// `serial_ms + max(per_shard_wall_ms)`: the run's wall-clock once
    /// every shard has its own core.
    pub critical_path_ms: f64,
    /// Sequential wall (`shards = 1` critical path) divided by this
    /// row's critical path: the end-to-end speedup of the experiment at
    /// this shard count, **with identical physics and bit-identical
    /// results** — pure core scaling.
    pub speedup_vs_sequential: f64,
}

impl CoupledScalingRow {
    /// Build a row from an engine timing and the sequential reference
    /// critical path (ms).
    pub fn from_timing(shards: usize, timing: &CoupledTiming, seq_critical_ms: f64) -> Self {
        let per_shard: Vec<f64> = timing
            .per_shard
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        let serial_ms = timing.serial.as_secs_f64() * 1e3;
        let critical = serial_ms + per_shard.iter().copied().fold(0.0f64, f64::max);
        CoupledScalingRow {
            shards,
            per_shard_wall_ms: per_shard,
            serial_ms,
            critical_path_ms: critical,
            speedup_vs_sequential: if critical > 0.0 {
                seq_critical_ms / critical
            } else {
                0.0
            },
        }
    }

    /// The row's JSON shape (the schema the round-trip test pins).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "shards": self.shards,
            "per_shard_wall_ms": self.per_shard_wall_ms.clone(),
            "serial_ms": self.serial_ms,
            "critical_path_ms": self.critical_path_ms,
            "speedup_vs_sequential": self.speedup_vs_sequential,
        })
    }

    /// Parse a row back from its JSON shape (schema check; returns None
    /// if any field is missing or mistyped).
    pub fn from_json(v: &serde_json::Value) -> Option<Self> {
        Some(CoupledScalingRow {
            shards: v.get("shards")?.as_u64()? as usize,
            per_shard_wall_ms: match v.get("per_shard_wall_ms")? {
                serde_json::Value::Array(xs) => xs
                    .iter()
                    .map(|x| x.as_f64())
                    .collect::<Option<Vec<f64>>>()?,
                _ => return None,
            },
            serial_ms: v.get("serial_ms")?.as_f64()?,
            critical_path_ms: v.get("critical_path_ms")?.as_f64()?,
            speedup_vs_sequential: v.get("speedup_vs_sequential")?.as_f64()?,
        })
    }
}

/// Run one trace-driven simulation.
pub fn run_trace(
    trace: &BeaconTrace,
    vifi: VifiConfig,
    workload: WorkloadSpec,
    duration: SimDuration,
    seed: u64,
) -> RunOutcome {
    let wired_delay = wired_delay_for(&workload);
    let cfg = RunConfig {
        vifi,
        workload,
        duration,
        seed,
        wired_delay,
        ..RunConfig::default()
    };
    Simulation::trace_driven(trace, cfg).run()
}

/// Run `f(seed)` for every seed in `0..seeds` across a bounded worker
/// pool and return the results in seed order.
///
/// Workers are capped at `available_parallelism`, with seeds assigned
/// round-robin (seed *i* goes to worker `i % workers`), so a 200-seed
/// sweep spins up at most one thread per core instead of 200 — the old
/// thread-per-seed layout oversubscribed the host and made wall-clock
/// scale with scheduler thrash rather than work. Striding (rather than
/// contiguous blocks) keeps the load balanced when later seeds are
/// systematically heavier.
pub fn parallel_map_seeds<F, T>(seeds: u64, f: F) -> Vec<T>
where
    F: Fn(u64) -> T + Sync,
    T: Send,
{
    let n = usize::try_from(seeds).expect("seed count fits usize");
    if n <= 1 {
        return (0..seeds).map(f).collect();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(n, || None);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                s.spawn(move || {
                    let mut local = Vec::new();
                    let mut seed = w as u64;
                    while seed < seeds {
                        local.push((seed, f(seed)));
                        seed += workers as u64;
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (seed, t) in h.join().expect("sweep worker panicked") {
                out[seed as usize] = Some(t);
            }
        }
    });
    out.into_iter()
        .map(|t| t.expect("every seed assigned to exactly one worker"))
        .collect()
}

/// Run `seeds` deployment simulations across the worker pool (one core
/// each, seeds chunked round-robin — see [`parallel_map_seeds`]).
pub fn sweep_deployment<F, T>(
    scenario: &Scenario,
    vifi: VifiConfig,
    workload: WorkloadSpec,
    duration: SimDuration,
    seeds: u64,
    extract: F,
) -> Vec<T>
where
    F: Fn(RunOutcome) -> T + Sync,
    T: Send,
{
    parallel_map_seeds(seeds, |seed| {
        let o = run_deployment(
            scenario,
            vifi.clone(),
            workload.clone(),
            duration,
            1000 + seed,
        );
        extract(o)
    })
}

/// Run `seeds` trace-driven simulations across the worker pool.
pub fn sweep_trace<F, T>(
    trace: &BeaconTrace,
    vifi: VifiConfig,
    workload: WorkloadSpec,
    duration: SimDuration,
    seeds: u64,
    extract: F,
) -> Vec<T>
where
    F: Fn(RunOutcome) -> T + Sync,
    T: Send,
{
    parallel_map_seeds(seeds, |seed| {
        let o = run_trace(trace, vifi.clone(), workload.clone(), duration, 2000 + seed);
        extract(o)
    })
}

/// Median session length (time-weighted, seconds) of a per-second
/// combined-ratio series under a session definition.
pub fn median_session_secs(ratios_1s: &[f64], interval: SimDuration, min_ratio: f64) -> f64 {
    // Re-aggregate 1 s ratios to the requested interval.
    let k = (interval / SimDuration::from_secs(1)).max(1) as usize;
    let agg: Vec<f64> = if k == 1 {
        ratios_1s.to_vec()
    } else {
        ratios_1s
            .chunks(k)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect()
    };
    let def = SessionDef {
        interval,
        min_ratio,
    };
    sessions_from_ratios(&agg, def)
        .median_time_weighted()
        .as_secs_f64()
}

/// Sub-second session analysis straight from slot ratios.
pub fn median_session_secs_subsecond(
    ratios_at: &[f64],
    interval: SimDuration,
    min_ratio: f64,
) -> f64 {
    let def = SessionDef {
        interval,
        min_ratio,
    };
    sessions_from_ratios(ratios_at, def)
        .median_time_weighted()
        .as_secs_f64()
}

// ---------------------------------------------------------------------
// Output helpers
// ---------------------------------------------------------------------

/// Print a titled ASCII table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// `mean ± ci` formatting.
pub fn fmt_ci(samples: &[f64], unit: &str) -> String {
    let (m, hw) = mean_ci95(samples);
    format!("{m:.2} ±{hw:.2}{unit}")
}

/// Render a connectivity strip (Figs. 3 and 8): one character per
/// second — `█` adequate, `·` inadequate-but-present, space for dead air;
/// interruptions inside coverage are marked `o`.
pub fn strip(ratios_1s: &[f64], min_ratio: f64) -> String {
    let mut s = String::with_capacity(ratios_1s.len());
    let mut in_coverage = false;
    for &r in ratios_1s {
        if r >= min_ratio {
            s.push('█');
            in_coverage = true;
        } else if r > 0.0 {
            s.push('o');
            in_coverage = true;
        } else {
            s.push(if in_coverage { 'o' } else { ' ' });
            in_coverage = false;
        }
    }
    s
}

/// Count interruptions: maximal runs of inadequate seconds strictly
/// between adequate seconds.
pub fn interruptions(ratios_1s: &[f64], min_ratio: f64) -> usize {
    let mut n = 0;
    let mut seen_good = false;
    let mut in_gap = false;
    for &r in ratios_1s {
        if r >= min_ratio {
            if in_gap && seen_good {
                n += 1;
            }
            in_gap = false;
            seen_good = true;
        } else if seen_good {
            in_gap = true;
        }
    }
    n
}

/// Directory for machine-readable results.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("VIFI_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Persist a JSON result blob under `results/<name>.json`.
pub fn save_json(name: &str, value: &serde_json::Value) {
    let path = results_dir().join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path).expect("create results file");
    let pretty = serde_json::to_string_pretty(value).expect("serialize results");
    f.write_all(pretty.as_bytes()).expect("write results");
    println!("[saved {}]", path.display());
}

/// The standard 1-second combined ratio series from a CBR run outcome.
pub fn cbr_ratios_1s(outcome: &RunOutcome, duration: SimDuration) -> Vec<f64> {
    match &outcome.report {
        vifi_runtime::WorkloadReport::Cbr(c) => {
            c.combined_ratios(SimDuration::from_secs(1), duration)
        }
        other => panic!("expected CBR report, got {other:?}"),
    }
}

/// Convenience: current time helper for bin banners.
pub fn banner(name: &str, scale: &Scale) {
    println!(
        "ViFi reproduction — {name} (laps={}, seeds={}{})",
        scale.laps,
        scale.seeds,
        if scale.full { ", FULL" } else { "" }
    );
}

/// Format a SimTime axis label.
pub fn fmt_t(t: SimTime) -> String {
    format!("{:.0}s", t.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_rendering() {
        let s = strip(&[0.9, 0.2, 0.0, 0.9, 0.0, 0.0], 0.5);
        // After one dead second the renderer treats the client as out of
        // coverage and stops drawing interruption marks.
        assert_eq!(s, "█oo█o ");
        let s = strip(&[0.0, 0.0, 0.9], 0.5);
        assert_eq!(s, "  █");
    }

    #[test]
    fn interruption_counting() {
        assert_eq!(interruptions(&[0.9, 0.1, 0.9], 0.5), 1);
        assert_eq!(
            interruptions(&[0.1, 0.9, 0.9], 0.5),
            0,
            "leading gap isn't one"
        );
        assert_eq!(
            interruptions(&[0.9, 0.1, 0.1, 0.9, 0.1], 0.5),
            1,
            "trailing gap isn't one"
        );
        assert_eq!(interruptions(&[], 0.5), 0);
    }

    #[test]
    fn median_session_helper() {
        // 4 s good, 1 bad, 2 good.
        let r = [1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0];
        let m = median_session_secs(&r, SimDuration::from_secs(1), 0.5);
        assert_eq!(m, 4.0);
        // With a 2 s interval the bad second hides (avg 0.5 ≥ 0.5).
        let m2 = median_session_secs(&r, SimDuration::from_secs(2), 0.5);
        assert!(m2 >= 6.0, "{m2}");
    }

    #[test]
    fn parallel_map_covers_all_seeds_in_order() {
        let got = parallel_map_seeds(200, |seed| seed * 3);
        assert_eq!(got.len(), 200);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, i as u64 * 3);
        }
        // Degenerate sizes run inline.
        assert_eq!(parallel_map_seeds(0, |s| s), Vec::<u64>::new());
        assert_eq!(parallel_map_seeds(1, |s| s + 9), vec![9]);
    }

    #[test]
    fn coupled_scaling_row_roundtrips_and_computes() {
        use std::time::Duration;
        let timing = CoupledTiming {
            per_shard: vec![
                Duration::from_millis(40),
                Duration::from_millis(55),
                Duration::from_millis(35),
            ],
            serial: Duration::from_millis(10),
        };
        let row = CoupledScalingRow::from_timing(3, &timing, 130.0);
        assert_eq!(row.per_shard_wall_ms, vec![40.0, 55.0, 35.0]);
        assert_eq!(row.serial_ms, 10.0);
        assert_eq!(row.critical_path_ms, 65.0);
        assert!((row.speedup_vs_sequential - 2.0).abs() < 1e-12);
        // JSON round-trip through the vendored serde_json: every field,
        // every number, bit-equal. (Value-tree equality would be too
        // strict — the vendored renderer canonicalizes integral floats
        // like 65.0 to `65`.)
        let text = serde_json::to_string(&row.to_json()).expect("serialize");
        let parsed: serde_json::Value = serde_json::from_str(&text).expect("parse");
        assert_eq!(CoupledScalingRow::from_json(&parsed).expect("schema"), row);
        // The canonical text form is a fixed point: parse → render
        // reproduces the same bytes, so diffs of results/ stay stable.
        let text2 = serde_json::to_string(&parsed).expect("re-serialize");
        assert_eq!(text2, text);
        // A mistyped document is rejected, not misread.
        let broken: serde_json::Value = serde_json::from_str("{\"shards\": [2]}").expect("parse");
        assert!(CoupledScalingRow::from_json(&broken).is_none());
    }

    #[test]
    fn scale_duration() {
        let s = Scale {
            laps: 2,
            seeds: 1,
            full: false,
        };
        let v = vifi_testbeds::vanlan(1);
        assert_eq!(s.duration(&v), v.lap * 2);
    }

    #[test]
    fn scale_parses_flags_and_rejects_bad_values() {
        let args = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let s = Scale::parse(&args(&[])).unwrap();
        assert_eq!((s.laps, s.seeds, s.full), (1, 2, false));
        let s = Scale::parse(&args(&["--full"])).unwrap();
        assert_eq!((s.laps, s.seeds, s.full), (3, 5, true));
        // Overrides win over --full, in any order; unknown flags pass
        // through for the bins that read their own.
        let s = Scale::parse(&args(&[
            "--laps", "4", "--full", "--limits", "--seeds", "7",
        ]))
        .unwrap();
        assert_eq!((s.laps, s.seeds, s.full), (4, 7, true));
        for bad in [
            &["--laps"][..],
            &["--seeds"],
            &["--laps", "two"],
            &["--seeds", "-1"],
            &["--laps", "0"],
            &["--seeds", "--full"],
        ] {
            let err = Scale::parse(&args(bad)).unwrap_err();
            assert!(err.starts_with(bad[0]), "{bad:?}: {err}");
        }
    }
}
