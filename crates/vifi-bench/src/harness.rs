//! A statistics-bearing micro-benchmark harness — the one harness behind
//! `bench_json`, `bench_compare` and the CI regression gate:
//!
//! * **calibration** — the iteration count per sample is auto-scaled so one
//!   sample takes roughly [`BenchConfig::sample_target`], keeping timer
//!   quantization noise (≈20 ns per `Instant::now` pair) well under 1%;
//! * **warmup** — the routine runs untimed until [`BenchConfig::warmup`]
//!   elapses, so caches, branch predictors, and frequency governors settle;
//! * **min-of-medians** — samples are grouped into K batches; each batch is
//!   summarized by its median after IQR outlier rejection, and the reported
//!   figure is the *minimum* batch median. Medians absorb in-batch jitter
//!   (preemption, interrupts); the min across batches tracks the true cost
//!   of the code rather than the noise floor of the machine;
//! * **machine-readable output** — results serialize to a flat
//!   `{bench → ns/iter}` JSON map consumed by the `bench_compare` bin and
//!   the CI regression gate.
//!
//! Every run also times a fixed integer-arithmetic spin loop under the name
//! [`CALIBRATION_BENCH`]. Because that workload is identical everywhere, the
//! ratio of its timing between two snapshots estimates the relative speed of
//! the machines that produced them, letting `bench_compare` normalize a CI
//! runner's numbers against a baseline recorded on different hardware.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Name of the synthetic machine-speed canary included in every snapshot.
pub const CALIBRATION_BENCH: &str = "_calibration_spin";

/// Schema tag written into snapshots so future format changes fail loudly.
pub const SNAPSHOT_SCHEMA: &str = "vifi-bench/1";

/// Tunables for one harness run.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Untimed warmup per benchmark.
    pub warmup: Duration,
    /// Target wall time of one timed sample (the iteration count is
    /// calibrated to hit this).
    pub sample_target: Duration,
    /// Number of batches (K in min-of-medians).
    pub batches: usize,
    /// Timed samples per batch.
    pub samples_per_batch: usize,
}

impl BenchConfig {
    /// Full-fidelity configuration: what `BENCH_baseline.json` is built
    /// with. A 10-bench suite finishes in a few seconds.
    pub fn full() -> Self {
        BenchConfig {
            warmup: Duration::from_millis(60),
            sample_target: Duration::from_micros(250),
            batches: 7,
            samples_per_batch: 15,
        }
    }

    /// Reduced configuration for CI smoke comparisons: ~2.5× cheaper via
    /// fewer batches and samples, but the *same* per-sample duration as
    /// full mode — shrinking samples (rather than sample counts) turned
    /// out to be the dominant noise source for the µs-scale benches.
    pub fn short() -> Self {
        BenchConfig {
            warmup: Duration::from_millis(30),
            sample_target: Duration::from_micros(250),
            batches: 4,
            samples_per_batch: 9,
        }
    }

    /// Pick full or short from the environment: `--short` in `args` or
    /// `VIFI_BENCH_SHORT=1` selects [`BenchConfig::short`].
    pub fn from_env(args: &[String]) -> Self {
        let short = args.iter().any(|a| a == "--short")
            || std::env::var("VIFI_BENCH_SHORT")
                .map(|v| v == "1")
                .unwrap_or(false);
        if short {
            BenchConfig::short()
        } else {
            BenchConfig::full()
        }
    }

    /// True if this is the reduced CI configuration.
    pub fn is_short(&self) -> bool {
        self.batches <= BenchConfig::short().batches
    }
}

/// One measured benchmark.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name (stable across snapshots; the compare key).
    pub name: String,
    /// Min-of-medians nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations per timed sample after calibration.
    pub iters_per_sample: u64,
    /// Batch medians the minimum was taken over (diagnostics).
    pub batch_medians_ns: Vec<f64>,
    /// Samples rejected as outliers across all batches.
    pub outliers_rejected: usize,
}

/// Collects [`BenchResult`]s and renders them.
pub struct Harness {
    cfg: BenchConfig,
    results: Vec<BenchResult>,
}

impl Harness {
    /// New harness with the given configuration.
    pub fn new(cfg: BenchConfig) -> Self {
        Harness {
            cfg,
            results: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &BenchConfig {
        &self.cfg
    }

    /// Measured results so far, in registration order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Measure `routine` under `name` and record the result. The routine's
    /// return value is passed through `black_box` so its computation cannot
    /// be optimized away.
    ///
    /// Benching the same name again *merges by minimum*: the slower
    /// measurement is discarded. Suites exploit this by registering
    /// every benchmark several widely-separated times (`bench_json
    /// --runs N`), which rides out multi-millisecond contention bursts
    /// on shared hosts that would pollute every batch of a single run.
    pub fn bench<O, F: FnMut() -> O>(&mut self, name: &str, mut routine: F) -> &BenchResult {
        let iters = calibrate(self.cfg.sample_target, &mut routine);
        // Warmup: run untimed until the budget elapses.
        let warm_start = Instant::now();
        while warm_start.elapsed() < self.cfg.warmup {
            for _ in 0..iters {
                black_box(routine());
            }
        }
        let mut batch_medians = Vec::with_capacity(self.cfg.batches);
        let mut outliers = 0usize;
        for _ in 0..self.cfg.batches {
            let mut samples = Vec::with_capacity(self.cfg.samples_per_batch);
            for _ in 0..self.cfg.samples_per_batch {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(routine());
                }
                samples.push(start.elapsed().as_secs_f64() * 1e9 / iters as f64);
            }
            let (median, rejected) = robust_median(&mut samples);
            outliers += rejected;
            batch_medians.push(median);
        }
        let ns = batch_medians.iter().copied().fold(f64::INFINITY, f64::min);
        let result = BenchResult {
            name: name.to_string(),
            ns_per_iter: ns,
            iters_per_sample: iters,
            batch_medians_ns: batch_medians,
            outliers_rejected: outliers,
        };
        println!("{name:<36} {:>12}/iter", fmt_ns(ns));
        let idx = match self.results.iter().position(|r| r.name == name) {
            Some(i) => {
                if result.ns_per_iter < self.results[i].ns_per_iter {
                    self.results[i] = result;
                }
                i
            }
            None => {
                self.results.push(result);
                self.results.len() - 1
            }
        };
        &self.results[idx]
    }

    /// Run the machine-speed canary ([`CALIBRATION_BENCH`]): a fixed
    /// 4096-round splitmix-style integer spin whose cost is a pure function
    /// of the hardware.
    pub fn bench_calibration(&mut self) {
        self.bench(CALIBRATION_BENCH, || {
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            for i in 0..4096u64 {
                x = x.wrapping_add(i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 31;
            }
            x
        });
    }

    /// Serialize the run to the snapshot JSON format consumed by
    /// `bench_compare`.
    pub fn to_json(&self) -> serde_json::Value {
        let entries: Vec<(String, serde_json::Value)> = self
            .results
            .iter()
            .map(|r| (r.name.clone(), serde_json::json!(r.ns_per_iter)))
            .collect();
        serde_json::json!({
            "schema": SNAPSHOT_SCHEMA,
            "mode": if self.cfg.is_short() { "short" } else { "full" },
            "results": serde_json::Value::Object(entries),
        })
    }
}

/// Pick an iteration count whose per-sample wall time is roughly `target`.
fn calibrate<O, F: FnMut() -> O>(target: Duration, routine: &mut F) -> u64 {
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        let elapsed = start.elapsed();
        if elapsed >= target || iters >= 1 << 30 {
            // Scale to the target from the measured rate (at least 1).
            let per_iter = elapsed.as_secs_f64() / iters as f64;
            let want = (target.as_secs_f64() / per_iter.max(1e-12)).ceil() as u64;
            return want.clamp(1, 1 << 30);
        }
        iters *= 4;
    }
}

/// Median after IQR outlier rejection. Returns `(median, rejected_count)`.
/// Samples outside `[q1 − 1.5·IQR, q3 + 1.5·IQR]` are dropped before the
/// median is taken (the classic Tukey fence).
fn robust_median(samples: &mut [f64]) -> (f64, usize) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let q1 = quantile_sorted(samples, 0.25);
    let q3 = quantile_sorted(samples, 0.75);
    let iqr = q3 - q1;
    let (lo, hi) = (q1 - 1.5 * iqr, q3 + 1.5 * iqr);
    let kept: Vec<f64> = samples
        .iter()
        .copied()
        .filter(|&s| s >= lo && s <= hi)
        .collect();
    let rejected = samples.len() - kept.len();
    (quantile_sorted(&kept, 0.5), rejected)
}

/// Linear-interpolated quantile of a sorted, non-empty slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Human formatting for a ns/iter figure.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchConfig {
        BenchConfig {
            warmup: Duration::from_micros(200),
            sample_target: Duration::from_micros(20),
            batches: 3,
            samples_per_batch: 5,
        }
    }

    #[test]
    fn bench_produces_positive_timing() {
        let mut h = Harness::new(tiny());
        let r = h.bench("spin", || {
            let mut x = 0u64;
            for i in 0..100u64 {
                x = x.wrapping_add(i * i);
            }
            x
        });
        assert!(r.ns_per_iter > 0.0);
        assert_eq!(r.batch_medians_ns.len(), 3);
        assert!(r.iters_per_sample >= 1);
    }

    #[test]
    fn min_of_medians_is_min() {
        let mut h = Harness::new(tiny());
        let r = h.bench("noop", || 1u64);
        let min = r
            .batch_medians_ns
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert_eq!(r.ns_per_iter, min);
    }

    #[test]
    fn rebench_merges_by_minimum() {
        let mut h = Harness::new(tiny());
        let first = h.bench("same", || 1u64).ns_per_iter;
        let second = h.bench("same", || 1u64).ns_per_iter;
        assert_eq!(h.results().len(), 1, "same name merges, not duplicates");
        assert!(second <= first, "merged result keeps the minimum");
        assert_eq!(h.results()[0].ns_per_iter, second);
    }

    #[test]
    fn json_snapshot_shape() {
        let mut h = Harness::new(tiny());
        h.bench("a", || 1u64);
        h.bench_calibration();
        let v = h.to_json();
        assert_eq!(v["schema"].as_str(), Some(SNAPSHOT_SCHEMA));
        assert_eq!(v["mode"].as_str(), Some("short"));
        assert!(v["results"]["a"].as_f64().unwrap() > 0.0);
        assert!(v["results"][CALIBRATION_BENCH].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn robust_median_rejects_spikes() {
        let mut samples = vec![10.0, 11.0, 10.5, 10.2, 9.9, 500.0];
        let (m, rejected) = robust_median(&mut samples);
        assert_eq!(rejected, 1, "the 500 ns spike is fenced out");
        assert!((9.9..=11.0).contains(&m), "median {m}");
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
    }

    #[test]
    fn config_selection_from_args() {
        let cfg = BenchConfig::from_env(&["--short".to_string()]);
        assert!(cfg.is_short());
        let cfg = BenchConfig::from_env(&[]);
        // Environment may force short mode; only assert consistency.
        assert_eq!(
            cfg.is_short(),
            std::env::var("VIFI_BENCH_SHORT")
                .map(|v| v == "1")
                .unwrap_or(false)
        );
    }
}
