//! The History policy's location-indexed performance database.
//!
//! §3.1: *"History, where the client associates to the BS that has
//! historically provided the best average performance at that location.
//! Performance is measured as the sum of reception ratios in the two
//! directions, and the average is computed across traversals of the
//! location in the previous day."* (The idea is from MobiSteer.)
//!
//! We quantize locations to a square grid (default 25 m — roughly the
//! distance a 40 km/h vehicle covers in two seconds) and train on one
//! day's probe log, exactly as the paper trains on the previous day.

use std::collections::HashMap;

use vifi_phy::Point;

use crate::replay::ProbeLog;

/// Location-indexed mean performance per BS.
#[derive(Clone, Debug)]
pub struct HistoryDb {
    cell_m: f64,
    /// cell → per-BS (sum of performance, visit count).
    cells: HashMap<(i64, i64), Vec<(f64, u32)>>,
    bs_count: usize,
}

impl HistoryDb {
    /// Empty database with the given grid cell size.
    pub fn new(bs_count: usize, cell_m: f64) -> Self {
        assert!(cell_m > 0.0);
        HistoryDb {
            cell_m,
            cells: HashMap::new(),
            bs_count,
        }
    }

    fn cell(&self, p: Point) -> (i64, i64) {
        (
            (p.x / self.cell_m).floor() as i64,
            (p.y / self.cell_m).floor() as i64,
        )
    }

    /// Train on a full probe log (the "previous day"): for every second,
    /// credit each BS's (down + up) reception ratio to the vehicle's cell.
    pub fn train(&mut self, log: &ProbeLog) {
        for sec in 0..log.seconds() {
            let pos = log.pos[sec * log.slots_per_sec];
            let cell = self.cell(pos);
            let entry = self
                .cells
                .entry(cell)
                .or_insert_with(|| vec![(0.0, 0); self.bs_count]);
            for (b, slot) in entry.iter_mut().enumerate() {
                let perf = log.down_ratio(b, sec) + log.up_ratio(b, sec);
                slot.0 += perf;
                slot.1 += 1;
            }
        }
    }

    /// The historically best BS at a position, if the cell was ever
    /// visited and some BS had non-zero performance there.
    pub fn best_at(&self, p: Point) -> Option<usize> {
        let entry = self.cells.get(&self.cell(p))?;
        let mut best = None;
        let mut best_v = 0.0;
        for (b, &(sum, n)) in entry.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let avg = sum / n as f64;
            if avg > best_v {
                best_v = avg;
                best = Some(b);
            }
        }
        best
    }

    /// Number of trained cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Build and train in one step.
    pub fn trained_on(log: &ProbeLog, cell_m: f64) -> Self {
        let mut db = Self::new(log.bs_count(), cell_m);
        db.train(log);
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vifi_sim::{Rng, SimDuration};
    use vifi_testbeds::vanlan;

    #[test]
    fn grid_quantization() {
        let db = HistoryDb::new(2, 25.0);
        assert_eq!(db.cell(Point::new(0.0, 0.0)), (0, 0));
        assert_eq!(db.cell(Point::new(24.9, 24.9)), (0, 0));
        assert_eq!(db.cell(Point::new(25.0, 0.0)), (1, 0));
        assert_eq!(db.cell(Point::new(-0.1, 0.0)), (-1, 0));
    }

    #[test]
    fn untrained_returns_none() {
        let db = HistoryDb::new(3, 25.0);
        assert_eq!(db.best_at(Point::new(10.0, 10.0)), None);
        assert_eq!(db.cell_count(), 0);
    }

    #[test]
    fn trains_on_real_log_and_predicts() {
        let s = vanlan(1);
        let veh = s.vehicle_ids()[0];
        let log =
            crate::replay::generate_probe_log(&s, veh, SimDuration::from_secs(200), &Rng::new(17));
        let db = HistoryDb::trained_on(&log, 25.0);
        assert!(db.cell_count() > 20, "cells {}", db.cell_count());
        // At a second where some BS was heard well, the DB should point to
        // a BS that actually performed there.
        let mut checked = 0;
        for sec in 0..log.seconds() {
            let pos = log.pos[sec * log.slots_per_sec];
            if let Some(b) = db.best_at(pos) {
                assert!(b < log.bs_count());
                checked += 1;
            }
        }
        assert!(checked > 50, "predictions {checked}");
    }

    #[test]
    fn best_at_prefers_strong_bs() {
        // Hand-train: at cell (0,0), BS1 performed twice as well.
        let mut db = HistoryDb::new(2, 25.0);
        let log = ProbeLog {
            slot: SimDuration::from_millis(100),
            slots_per_sec: 10,
            // BS0 heard 3/10 down, BS1 heard 8/10 down; no upstream.
            down: vec![
                [vec![true; 3], vec![false; 7]].concat(),
                [vec![true; 8], vec![false; 2]].concat(),
            ],
            up: vec![vec![false; 10]; 2],
            rssi: vec![vec![f32::NAN; 10]; 2],
            pos: vec![Point::new(5.0, 5.0); 10],
        };
        db.train(&log);
        assert_eq!(db.best_at(Point::new(7.0, 3.0)), Some(1));
    }
}
