//! Human-readable output: the exact-guard report and the paper tables.

use crate::workloads::{Counts, RunReport};

/// Print, per run, the fingerprint and the simulated counts: the exact
/// guards, identical for a seed on any change that only moves time.
pub fn exact_guards(workload: &str, seed: u64, runs: &[RunReport]) {
    println!("exact guards ({workload}, seed {seed}): identical for a seed on any change that only moves time");
    println!(
        "  {:<12} {:<16} {:>10} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>8} {:>8}",
        "run",
        "fingerprint",
        "events",
        "frames",
        "restarts",
        "bp_drop",
        "bp_retry",
        "rx_down",
        "wired",
        "delivered",
        "salvaged",
        "anchors"
    );
    for r in runs {
        let c: &Counts = &r.counts;
        let name = match r.scheme {
            Some(s) => format!("{}:{s}", r.label),
            None => r.label.to_string(),
        };
        println!(
            "  {:<12} {:016x} {:>10} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>8} {:>8}",
            name,
            r.fingerprint,
            c.events,
            c.frames_tx,
            c.bs_restarts,
            c.bp_drops,
            c.bp_retries,
            c.rx_dropped_down,
            c.wired_drops,
            c.delivered,
            c.salvaged,
            c.anchor_switches
        );
    }
}

/// Table 1 as the paper prints it (VanLAN, upstream / downstream), in
/// the row order below; the values the `table1` bin quotes.
const PAPER_TABLE1: [(&str, f64, f64, bool); 10] = [
    ("A1 median auxiliary BSes", 5.0, 5.0, false),
    ("A2 aux hearing a source tx", 1.7, 3.6, false),
    ("A3 aux hearing tx, not ACK", 0.6, 2.5, false),
    ("B1 source tx reaching dst", 0.67, 0.74, true),
    ("B2 false positives", 0.25, 0.33, true),
    ("B3 relayers per false pos.", 1.5, 1.5, false),
    ("C1 source tx missing dst", 0.33, 0.26, true),
    ("C2 failures overheard", 0.66, 0.98, true),
    ("C3 false negatives", 0.10, 0.34, true),
    ("C4 relays reaching dst", 1.0, 0.50, true),
];

/// Table 2 as the paper prints it (DieselNet Ch1 downstream false
/// positives / negatives); the values the `table2` bin quotes.
const PAPER_TABLE2: [(&str, f64, f64); 4] = [
    ("ViFi", 0.19, 0.14),
    ("¬G1", 0.50, 0.14),
    ("¬G2", 0.40, 0.12),
    ("¬G3", 1.57, 0.10),
];

/// Print the model's Tables 1 and 2 beside the paper's.
pub fn paper_tables(runs: &[RunReport]) {
    println!("These two tables are the model's only reference results: nothing else in this benchmark validates the model.");
    let fmt = |x: f64, pct: bool| {
        if pct {
            format!("{:.0}%", x * 100.0)
        } else {
            format!("{x:.1}")
        }
    };
    if let Some(t1) = runs.iter().find(|r| r.label == "table1").map(|r| r.table1) {
        println!("Table 1 (VanLAN, TCP)            model up/down    paper up/down");
        let cols = [t1.up, t1.down].map(|c| {
            [
                c.a1_median_aux,
                c.a2_aux_hear_tx,
                c.a3_aux_hear_tx_not_ack,
                c.b1_src_reach,
                c.b2_false_positive,
                c.b3_relayers_on_fp,
                c.c1_src_fail,
                c.c2_overheard,
                c.c3_false_negative,
                c.c4_relay_reach,
            ]
        });
        for (i, (row, up, down, pct)) in PAPER_TABLE1.iter().enumerate() {
            println!(
                "  {row:<30} {:>6} / {:<6}  {:>6} / {:<6}",
                fmt(cols[0][i], *pct),
                fmt(cols[1][i], *pct),
                fmt(*up, *pct),
                fmt(*down, *pct)
            );
        }
    }
    println!("Table 2 (DieselNet Ch1, CBR)     model FP/FN      paper FP/FN");
    for (scheme, fp, fn_) in PAPER_TABLE2 {
        if let Some(r) = runs.iter().find(|r| r.scheme == Some(scheme)) {
            println!(
                "  {scheme:<30} {:>6} / {:<6}  {:>6} / {:<6}",
                fmt(r.table2.false_positives, true),
                fmt(r.table2.false_negatives, true),
                fmt(fp, true),
                fmt(fn_, true)
            );
        }
    }
}
