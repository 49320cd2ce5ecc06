//! Host-speed probe.
//!
//! On a shared virtual machine the same binary and seed can run a third
//! faster or slower a minute later. The probe is fixed work in the
//! benchmark's own code — integer hashing, random access over an 8 MB
//! table and dependent f64 math, the kinds of work the simulator does —
//! timed right before and right after every timed iteration. The
//! end-to-end timings are scaled by [`REFERENCE`] over the iteration's
//! probe time: to what they would read on a host running the probe in
//! [`REFERENCE`]. No change to the program under test can move the probe.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probe time the end-to-end timings are scaled to: about the probe's
/// median on the reference host (2-vCPU KVM guest, Intel Xeon, 2.1 GHz).
pub const REFERENCE: Duration = Duration::from_millis(35);

const TABLE_WORDS: usize = 1 << 20;

/// The probe and its table.
pub struct Probe {
    table: Vec<u64>,
}

impl Probe {
    /// Allocate the table.
    pub fn new() -> Probe {
        Probe {
            table: vec![0; TABLE_WORDS],
        }
    }

    /// Run the probe once and return its wall time.
    pub fn time(&mut self) -> Duration {
        let start = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in 0..6_000_000u64 {
            x = x.wrapping_add(i).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^= x >> 29;
        }
        let mut y = x;
        for i in 0..1_500_000u64 {
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            let k = (y % TABLE_WORDS as u64) as usize;
            self.table[k] = self.table[k].wrapping_add(i);
        }
        let (mut acc, mut z) = (0.0f64, 1.0001f64);
        for _ in 0..1_000_000 {
            z = z * 1.000_000_1 + 1e-9;
            acc += (z.ln() + 3.0).sqrt();
        }
        black_box((x, &self.table, acc));
        start.elapsed()
    }
}
