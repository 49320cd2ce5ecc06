//! End-to-end benchmark of the ViFi simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload as a closed loop (one simulation in flight, one
//! thread) for `s` seconds after one warm-up iteration, checks every
//! run's output, and prints as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. End-to-end
//! timings are scaled to the reference host speed by a probe timed around
//! every iteration (`probe.rs`). The traced run alternates traced and
//! untraced iterations, so it can report its own overhead, and writes its
//! spans to `.bench_trace/<workload>-<seed>.json`. README.md documents
//! the workloads and every metric.

mod probe;
mod report;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use probe::Probe;
use spans::Tracer;
use workloads::{iterate, Counts, EngineSplit, Inputs, IterReport, RunReport, Workload};

const USAGE: &str = "usage: perfbench --workload <paper_tables|city_flat|metro_faulted> \
                     --seed <u64> --seconds <whole seconds, at least 1> --trace <0|1>";

/// Where the traced run writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_trace";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if s >= 1 => seconds = Some(s),
                _ => return Err(format!("--seconds {value:?}: not a whole number >= 1")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The closed loop's bookkeeping.
struct Bench {
    attempted: u64,
    failed: u64,
    reference: Option<Vec<u64>>,
}

impl Bench {
    /// Run iteration `i`; a panic fails every run of the iteration but
    /// not the invocation.
    fn step(
        &mut self,
        inp: &Inputs,
        tr: &mut Tracer,
        i: usize,
        traced: bool,
    ) -> Option<IterReport> {
        tr.set_iteration(i);
        tr.set_on(traced);
        let runs = inp.workload.runs_per_iteration() as u64;
        self.attempted += runs;
        let reference = self.reference.clone();
        match catch_unwind(AssertUnwindSafe(|| iterate(inp, tr, reference.as_deref()))) {
            Ok(mut it) => {
                it.index = i;
                for r in &it.runs {
                    if !r.failures.is_empty() {
                        self.failed += 1;
                    }
                    for f in &r.failures {
                        eprintln!("check failed: iteration {i}, run {}: {f}", r.label);
                    }
                }
                self.reference
                    .get_or_insert_with(|| it.runs.iter().map(|r| r.fingerprint).collect());
                Some(it)
            }
            Err(_) => {
                tr.close_all();
                self.failed += runs;
                eprintln!("check failed: iteration {i} panicked");
                None
            }
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Per-iteration samples behind a median (empty for single values).
    samples: Vec<f64>,
}

impl Metric {
    fn median(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name,
            unit,
            value: median(&samples),
            samples,
        }
    }

    fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: Vec::new(),
        }
    }
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Σ `f` over the iteration's runs that report engine timing.
fn timed_sum(it: &IterReport, f: impl Fn(&RunReport, &EngineSplit) -> f64) -> f64 {
    it.runs
        .iter()
        .filter_map(|r| r.engine.as_ref().map(|e| f(r, e)))
        .sum()
}

/// How much slower than [`probe::REFERENCE`] the host ran the probe
/// around an iteration; the end-to-end timings are divided by it.
fn slowdown(it: &IterReport) -> f64 {
    ratio(secs(it.probe), secs(probe::REFERENCE))
}

fn end_to_end(iters: &[&IterReport], bench: &Bench, rss_mb: f64) -> Vec<Metric> {
    let per = |f: &dyn Fn(&IterReport) -> f64| iters.iter().map(|it| f(it)).collect::<Vec<_>>();
    vec![
        Metric::median(
            "sim_s_per_wall_s",
            "s/s",
            per(&|it| {
                let sim_s: f64 = it.runs.iter().map(|r| r.sim_s).sum();
                ratio(sim_s, secs(it.inputs + it.calls()) / slowdown(it))
            }),
        ),
        Metric::median(
            "sim_s_per_cp_s",
            "s/s",
            per(&|it| {
                let cp = timed_sum(it, |_, e| secs(e.critical_path));
                ratio(timed_sum(it, |r, _| r.sim_s), cp / slowdown(it))
            }),
        ),
        Metric::median(
            "setup_s",
            "s",
            per(&|it| ratio(secs(it.setup()), slowdown(it))),
        ),
        Metric::single("peak_rss_mb", "MB", rss_mb),
        Metric::single(
            "pass_ratio",
            "ratio",
            ratio(
                (bench.attempted - bench.failed) as f64,
                bench.attempted as f64,
            ),
        ),
    ]
}

fn per_layer(
    traced: &[&IterReport],
    untraced: &[&IterReport],
    tr: &Tracer,
    inp: &Inputs,
) -> Vec<Metric> {
    let per = |f: &dyn Fn(&IterReport) -> f64| traced.iter().map(|it| f(it)).collect::<Vec<_>>();
    let span = |name: &'static str| per(&|it| secs(tr.wall_of(it.index, name)));
    let engine = |f: &dyn Fn(&RunReport, &EngineSplit) -> f64| per(&|it| timed_sum(it, f));
    // Time inside the engine's loop: the split for coupled runs, the
    // whole call for trace-driven ones.
    let in_loop = |it: &IterReport| -> f64 {
        it.runs
            .iter()
            .map(|r| secs(r.engine.as_ref().map_or(r.call, |e| e.in_loop())))
            .sum()
    };
    // Simulated counts repeat exactly; take the last traced iteration's.
    let last: &[RunReport] = traced.last().map_or(&[], |it| &it.runs);
    let mut c = Counts::default();
    for r in last {
        c.add(&r.counts);
    }
    let log_sum = |f: &dyn Fn(&RunReport) -> u64| last.iter().map(f).sum::<u64>() as f64;
    // Run-call walls scaled like the end-to-end timings, so the overhead
    // is not the host's drift between traced and untraced iterations.
    let calls = |its: &[&IterReport]| {
        median(
            &its.iter()
                .map(|it| secs(it.calls()) / slowdown(it))
                .collect::<Vec<_>>(),
        )
    };
    vec![
        Metric::median("host.probe_s", "s", per(&|it| secs(it.probe))),
        Metric::median("runtime.plan_shards_s", "s", span("runtime.plan_shards")),
        Metric::median(
            "testbeds.contact_clusters_s",
            "s",
            span("testbeds.contact_clusters"),
        ),
        Metric::median(
            "testbeds.active_seconds_s",
            "s",
            span("testbeds.active_seconds"),
        ),
        Metric::median(
            "testbeds.contact_load_s",
            "s",
            span("testbeds.contact_load"),
        ),
        Metric::median("phy.link_build_s", "s", span("phy.link_build")),
        Metric::median("setup.inputs_s", "s", per(&|it| secs(it.inputs))),
        Metric::median(
            "setup.accounted_share",
            "ratio",
            per(&|it| {
                ratio(
                    it.accounted.map_or(0.0, secs) + secs(it.inputs),
                    secs(it.setup()),
                )
            }),
        ),
        Metric::single("testbeds.trace_bytes", "bytes", inp.trace_csv.len() as f64),
        Metric::median("engine.run_s", "s", per(&|it| secs(it.calls()))),
        Metric::median("engine.shard_s", "s", engine(&|_, e| secs(e.shards))),
        Metric::median("engine.serial_s", "s", engine(&|_, e| secs(e.serial))),
        Metric::median(
            "engine.serial_share",
            "ratio",
            per(&|it| {
                ratio(
                    timed_sum(it, |_, e| secs(e.serial)),
                    timed_sum(it, |r, _| secs(r.call)),
                )
            }),
        ),
        Metric::median(
            "engine.outside_loop_s",
            "s",
            engine(&|r, e| secs(r.call.saturating_sub(e.in_loop()))),
        ),
        Metric::median(
            "engine.critical_path_s",
            "s",
            engine(&|_, e| secs(e.critical_path)),
        ),
        Metric::median(
            "engine.shard_imbalance",
            "ratio",
            per(&|it| {
                it.runs
                    .iter()
                    .filter_map(|r| r.engine.as_ref().map(|e| e.imbalance))
                    .fold(0.0, f64::max)
            }),
        ),
        Metric::median(
            "engine.ns_per_event",
            "ns",
            per(&|it| {
                let events: u64 = it.runs.iter().map(|r| r.counts.events).sum();
                ratio(in_loop(it) * 1e9, events as f64)
            }),
        ),
        Metric::single("log.records", "count", log_sum(&|r| r.log_records)),
        Metric::median("log.tables_s", "s", span("log.tables")),
        Metric::median("log.write_binary_s", "s", span("log.write_binary")),
        Metric::single("log.trace_bytes", "bytes", log_sum(&|r| r.trace_bytes)),
        Metric::median("log.fold_s", "s", span("log.fold")),
        Metric::single(
            "log.peak_pending",
            "count",
            last.iter().map(|r| r.peak_pending).max().unwrap_or(0) as f64,
        ),
        Metric::median("log.fingerprint_s", "s", span("log.fingerprint")),
        Metric::single("engine.events", "count", c.events as f64),
        Metric::single("engine.frames_tx", "count", c.frames_tx as f64),
        Metric::single("faults.bs_restarts", "count", c.bs_restarts as f64),
        Metric::single("faults.bp_drops", "count", c.bp_drops as f64),
        Metric::single("faults.bp_retries", "count", c.bp_retries as f64),
        Metric::single("faults.rx_dropped_down", "count", c.rx_dropped_down as f64),
        Metric::single("faults.wired_drops", "count", c.wired_drops as f64),
        Metric::single(
            "apps.delivery_ratio",
            "ratio",
            ratio(c.cbr_delivered as f64, c.cbr_sent as f64),
        ),
        Metric::single(
            "mac.frames_per_delivery",
            "ratio",
            ratio(c.frames_tx as f64, c.delivered as f64),
        ),
        Metric::single("core.salvaged", "count", c.salvaged as f64),
        Metric::single("core.anchor_switches", "count", c.anchor_switches as f64),
        Metric::single("trace.overhead_s", "s", calls(traced) - calls(untraced)),
    ]
}

/// Iteration numbers of `its`, as the tracer tagged them.
fn iteration_ids(its: &[&IterReport]) -> Vec<usize> {
    its.iter().map(|it| it.index).collect()
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push('}');
    out
}

fn print_metrics(metrics: &[Metric]) {
    println!(
        "  {:<28} {:>14} {:<6} {:>3} {:>14} {:>14}",
        "metric", "value", "unit", "n", "min", "max"
    );
    for m in metrics {
        let (lo, hi) = m
            .samples
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        if m.samples.is_empty() {
            println!("  {:<28} {:>14.6} {:<6}", m.name, m.value, m.unit);
        } else {
            println!(
                "  {:<28} {:>14.6} {:<6} {:>3} {:>14.6} {:>14.6}",
                m.name,
                m.value,
                m.unit,
                m.samples.len(),
                lo,
                hi
            );
        }
    }
}

fn write_trace(
    args: &Args,
    tr: &Tracer,
    traced: &[&IterReport],
    untraced: &[&IterReport],
    metrics: &[Metric],
) -> std::io::Result<String> {
    let ids = iteration_ids(traced);
    let mut self_times = String::from("{");
    for (i, (name, t)) in tr.totals(&ids).iter().enumerate() {
        if i > 0 {
            self_times.push(',');
        }
        let _ = write!(
            self_times,
            "\n    \"{name}\": {{\"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
            t.count,
            secs(t.total),
            secs(t.self_time)
        );
    }
    self_times.push_str("\n  }");
    let json = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"traced_iterations\": {:?},\n  \"untraced_iterations\": {:?},\n  \"span_totals_over_traced_iterations\": {self_times},\n  \"metrics\": {},\n  \"spans\": {}\n}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        ids,
        iteration_ids(untraced),
        metrics_json(metrics),
        tr.spans_json(),
    );
    std::fs::create_dir_all(TRACE_DIR)?;
    let path = format!("{TRACE_DIR}/{}-{}.json", args.workload.name(), args.seed);
    std::fs::write(&path, json)?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::generate(args.workload, args.seed);
    let mut tr = Tracer::new();
    let mut bench = Bench {
        attempted: 0,
        failed: 0,
        reference: None,
    };
    // One warm-up iteration, checked but not timed: caches fill, lazy
    // set-up finishes, and its fingerprints become the reference every
    // later iteration must repeat.
    let warm_up = bench.step(&inputs, &mut tr, 0, false);
    // Read after one iteration, so the figure does not depend on how
    // many iterations the host's speed allows in the time budget.
    let rss_mb = peak_rss_mb();
    // The metrics have their samples once an untraced iteration and, in
    // the traced run, a traced one have completed.
    let complete = |iters: &[IterReport]| {
        let any = |traced: bool| iters.iter().any(|it| it.traced == traced);
        any(false) && (!args.trace || any(true))
    };
    // Allocated after the RSS reading, so its table does not count.
    let mut probe = Probe::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut iters: Vec<IterReport> = Vec::new();
    let mut i = 1;
    loop {
        // The traced run alternates traced and untraced iterations.
        let traced = args.trace && i % 2 == 1;
        let before = probe.time();
        let it = bench.step(&inputs, &mut tr, i, traced);
        let after = probe.time();
        if let Some(mut it) = it {
            it.probe = (before + after) / 2;
            iters.push(it);
        }
        i += 1;
        // If iterations keep panicking, give up at twice the budget.
        let elapsed = start.elapsed();
        let give_up = bench.failed > 0 && elapsed >= 2 * budget;
        if elapsed >= budget && (complete(&iters) || give_up) {
            break;
        }
    }
    let traced: Vec<&IterReport> = iters.iter().filter(|it| it.traced).collect();
    let untraced: Vec<&IterReport> = iters.iter().filter(|it| !it.traced).collect();

    println!(
        "perfbench {} seed {}: {} timed iterations in {:.1} s after 1 warm-up, {} runs attempted, {} failed",
        args.workload.name(),
        args.seed,
        iters.len(),
        secs(start.elapsed()),
        bench.attempted,
        bench.failed
    );
    println!(
        "host probe: median {:.1} ms against the reference {:.1} ms; end-to-end timings are scaled by the ratio",
        median(&iters.iter().map(|it| secs(it.probe) * 1e3).collect::<Vec<_>>()),
        secs(probe::REFERENCE) * 1e3
    );
    if let Some(it) = iters.last().or(warm_up.as_ref()) {
        report::exact_guards(args.workload.name(), args.seed, &it.runs);
        if args.workload == Workload::PaperTables {
            report::paper_tables(&it.runs);
        }
    }
    let metrics = if args.trace {
        let metrics = per_layer(&traced, &untraced, &tr, &inputs);
        match write_trace(&args, &tr, &traced, &untraced, &metrics) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => {
                eprintln!("perfbench: cannot write the trace file: {e}");
                return ExitCode::FAILURE;
            }
        }
        metrics
    } else {
        end_to_end(&untraced, &bench, rss_mb)
    };
    print_metrics(&metrics);
    if !complete(&iters) {
        eprintln!("perfbench: too few timed iterations completed; missing samples read 0");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        bench.failed == 0,
        bench.attempted,
        bench.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
