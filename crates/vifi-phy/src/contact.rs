//! The contact atlas: per second, which node pairs may hear each other.
//!
//! ViFi's interactions are local — a frame reaches only nodes within
//! radio range, and a vehicle's auxiliary set is the handful of
//! basestations it hears right now (§4.3). A [`ContactSecond`] records
//! that locality for one 1 Hz second: per node, the **candidates** that
//! may hear it (or be heard by it) at *some* instant of the second, as a
//! compressed-sparse-row table indexed by [`NodeId::index`]. Every
//! `quality_hint` / `slow_prob` that can be nonzero during the second is
//! between a node and one of its candidates; every other pair is provably
//! silent, so contact sweeps, reception sampling and carrier-sense probes
//! skip it without changing any answer.
//!
//! [`LinkModel::contacts`](crate::LinkModel::contacts) is the one source
//! of these lists: the physical model derives them from geometry with a
//! uniform grid (`grid_contacts`), the trace model from the links its
//! trace gives a nonzero probability in that second, and any other model
//! falls back to "every node hears every node".
//!
//! **Why the physical lists are exact.** `link_geometry` returns `None`
//! beyond `RadioParams::max_range_m` and on wired ends, so `slow_prob`
//! is exactly `0.0` there. Within one second a node moves at most its
//! route speed × 1 s, so a pair within range at some instant of second
//! `s` is at most `max_range_m + vₐ + v_b` apart at `s` itself — the
//! `within_reach` test (plus a rounding slack). Candidates only *admit*
//! a pair; the caller's own predicate (`> 0`, `> min_prob`,
//! `> sense_threshold`) still decides it.

use std::ops::Range;

use crate::geom::Point;
use crate::node::NodeId;

/// Extra metres granted to every reach test, far above any rounding in
/// position interpolation, so float noise can never drop a pair.
pub(crate) const REACH_SLACK_M: f64 = 1.0;

/// One node as the grid sees it during one second: where it is at the
/// second's start and how fast it can move.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Body {
    /// The node.
    pub(crate) id: NodeId,
    /// Position at the start of the second.
    pub(crate) at: Point,
    /// Top speed, m/s (0 for fixed nodes).
    pub(crate) speed_ms: f64,
}

/// The pair test behind every physical candidate list: may `a` and `b` be
/// within `range_m` of each other at some instant of the second that
/// starts with them at `a.at` and `b.at`?
pub(crate) fn within_reach(a: &Body, b: &Body, range_m: f64) -> bool {
    let reach = range_m + a.speed_ms + b.speed_ms + REACH_SLACK_M;
    let (dx, dy) = (a.at.x - b.at.x, a.at.y - b.at.y);
    dx * dx + dy * dy <= reach * reach
}

/// The candidate lists of one second, in CSR form: node `i`'s candidates
/// are `ids[offsets[i]..offsets[i + 1]]`, ascending by id. The relation is
/// symmetric and never lists a node as its own candidate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContactSecond {
    sec: u64,
    offsets: Vec<u32>,
    ids: Vec<NodeId>,
}

impl ContactSecond {
    /// Build second `sec`'s lists over node indices `0..n` from unordered
    /// pairs (any order and orientation; duplicates and self-pairs are
    /// dropped).
    pub(crate) fn from_pairs(sec: u64, n: usize, mut pairs: Vec<(NodeId, NodeId)>) -> Self {
        for p in &mut pairs {
            if p.0 > p.1 {
                *p = (p.1, p.0);
            }
        }
        pairs.retain(|&(a, b)| a != b);
        // Two stable counting passes (by `hi`, then by `lo`) sort the
        // pairs by `(lo, hi)` in time linear in pairs plus nodes.
        let mut pairs = counting_sort(&counting_sort(&pairs, n, |p| p.1), n, |p| p.0);
        pairs.dedup();
        let mut offsets = vec![0u32; n + 1];
        for &(a, b) in &pairs {
            offsets[a.index() + 1] += 1;
            offsets[b.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut fill: Vec<u32> = offsets[..n].to_vec();
        let mut ids = vec![NodeId(0); pairs.len() * 2];
        // Pairs sorted by (lo, hi) reach node x first as the `hi` end of
        // every lower partner, in ascending order, then as the `lo` end
        // of every higher one, ascending too: each row comes out sorted.
        for &(a, b) in &pairs {
            ids[fill[a.index()] as usize] = b;
            fill[a.index()] += 1;
            ids[fill[b.index()] as usize] = a;
            fill[b.index()] += 1;
        }
        ContactSecond { sec, offsets, ids }
    }

    /// Every node in `nodes` a candidate of every other: the conservative
    /// lists of a model that knows nothing about range.
    pub fn complete(sec: u64, nodes: &[NodeId]) -> Self {
        let n = nodes.iter().map(|id| id.index() + 1).max().unwrap_or(0);
        let mut pairs = Vec::new();
        for (i, &a) in nodes.iter().enumerate() {
            pairs.extend(nodes[i + 1..].iter().map(|&b| (a, b)));
        }
        ContactSecond::from_pairs(sec, n, pairs)
    }

    /// The second these lists cover.
    pub fn second(&self) -> u64 {
        self.sec
    }

    /// `n`'s candidates, ascending by id (empty past the table).
    pub fn candidates(&self, n: NodeId) -> &[NodeId] {
        match (self.offsets.get(n.index()), self.offsets.get(n.index() + 1)) {
            (Some(&lo), Some(&hi)) => &self.ids[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Whether `a` and `b` are candidates of each other.
    pub fn contains(&self, a: NodeId, b: NodeId) -> bool {
        self.candidates(a).binary_search(&b).is_ok()
    }

    /// Every candidate pair once, as `(lo, hi)` with `lo < hi`, ascending.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.offsets.len().saturating_sub(1)).flat_map(move |i| {
            let a = NodeId(i as u32);
            self.candidates(a)
                .iter()
                .filter(move |&&b| b > a)
                .map(move |&b| (a, b))
        })
    }
}

/// `pairs` stably sorted by the node index `key` picks (below `n`).
fn counting_sort(
    pairs: &[(NodeId, NodeId)],
    n: usize,
    key: impl Fn(&(NodeId, NodeId)) -> NodeId,
) -> Vec<(NodeId, NodeId)> {
    let mut next = vec![0usize; n + 1];
    for p in pairs {
        next[key(p).index() + 1] += 1;
    }
    for i in 0..n {
        next[i + 1] += next[i];
    }
    let mut sorted = vec![(NodeId(0), NodeId(0)); pairs.len()];
    for p in pairs {
        let slot = &mut next[key(p).index()];
        sorted[*slot] = *p;
        *slot += 1;
    }
    sorted
}

/// Second `sec`'s candidate lists over node indices `0..n` from a uniform
/// grid: every pair of `bodies` passing [`within_reach`]. Cells are at
/// least `range_m + 2 × top speed` wide (plus twice the slack), so a pair
/// that can pass lies in the same or an adjacent cell and the grid only
/// ever skips pairs the test would reject — the lists are exactly the
/// passing pairs.
pub(crate) fn grid_contacts(sec: u64, n: usize, bodies: &[Body], range_m: f64) -> ContactSecond {
    let top = bodies.iter().map(|b| b.speed_ms).fold(0.0, f64::max);
    let cell_m = range_m + 2.0 * top + 2.0 * REACH_SLACK_M;
    let cell = |p: Point| ((p.x / cell_m).floor() as i64, (p.y / cell_m).floor() as i64);
    let mut keyed: Vec<((i64, i64), Body)> = bodies.iter().map(|b| (cell(b.at), *b)).collect();
    keyed.sort_unstable_by_key(|&(key, _)| key);
    // Occupied cells as `(key, members)`: runs of `keyed`, by key.
    let mut cells: Vec<((i64, i64), Range<usize>)> = Vec::new();
    for (i, &(key, _)) in keyed.iter().enumerate() {
        match cells.last_mut() {
            Some((k, members)) if *k == key => members.end = i + 1,
            _ => cells.push((key, i..i + 1)),
        }
    }
    let members = |key: (i64, i64)| {
        cells
            .binary_search_by_key(&key, |(k, _)| *k)
            .map_or(0..0, |c| cells[c].1.clone())
    };
    let mut pairs = Vec::new();
    let mut test = |i: usize, j: usize| {
        let (a, b) = (&keyed[i].1, &keyed[j].1);
        if within_reach(a, b, range_m) {
            pairs.push((a.id, b.id));
        }
    };
    for ((cx, cy), here) in &cells {
        for i in here.clone() {
            for j in i + 1..here.end {
                test(i, j);
            }
        }
        // Half of the eight neighbours, so each adjacent pair of cells
        // is visited once.
        for (dx, dy) in [(0, 1), (1, -1), (1, 0), (1, 1)] {
            let there = members((cx + dx, cy + dy));
            for i in here.clone() {
                for j in there.clone() {
                    test(i, j);
                }
            }
        }
    }
    ContactSecond::from_pairs(sec, n, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(id: u32, x: f64, y: f64, speed_ms: f64) -> Body {
        Body {
            id: NodeId(id),
            at: Point::new(x, y),
            speed_ms,
        }
    }

    #[test]
    fn csr_rows_are_sorted_symmetric_and_self_free() {
        let pairs = vec![
            (NodeId(3), NodeId(1)),
            (NodeId(1), NodeId(3)),
            (NodeId(0), NodeId(3)),
            (NodeId(2), NodeId(2)),
            (NodeId(4), NodeId(1)),
        ];
        let c = ContactSecond::from_pairs(7, 6, pairs);
        assert_eq!(c.second(), 7);
        assert_eq!(c.candidates(NodeId(1)), &[NodeId(3), NodeId(4)]);
        assert_eq!(c.candidates(NodeId(3)), &[NodeId(0), NodeId(1)]);
        assert!(c.candidates(NodeId(2)).is_empty());
        assert!(c.candidates(NodeId(5)).is_empty());
        assert!(c.candidates(NodeId(99)).is_empty());
        assert!(c.contains(NodeId(4), NodeId(1)) && c.contains(NodeId(1), NodeId(4)));
        assert!(!c.contains(NodeId(0), NodeId(1)));
        let all: Vec<_> = c.pairs().collect();
        assert_eq!(
            all,
            vec![
                (NodeId(0), NodeId(3)),
                (NodeId(1), NodeId(3)),
                (NodeId(1), NodeId(4))
            ]
        );
    }

    #[test]
    fn complete_lists_every_other_node() {
        let c = ContactSecond::complete(0, &[NodeId(0), NodeId(2), NodeId(3)]);
        assert_eq!(c.candidates(NodeId(2)), &[NodeId(0), NodeId(3)]);
        assert!(c.candidates(NodeId(1)).is_empty());
    }

    #[test]
    fn grid_admits_exactly_the_pairs_within_reach() {
        // A scatter over several cells, negative coordinates included,
        // with pairs straddling cell edges and the reach threshold.
        let range = 500.0;
        let mut bodies = Vec::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for id in 0..60 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let px = (x % 4000) as f64 - 2000.0;
            let py = ((x >> 20) % 3000) as f64 - 1500.0;
            let speed = if id % 3 == 0 { 0.0 } else { (x % 30) as f64 };
            bodies.push(body(id, px, py, speed));
        }
        bodies.push(body(60, 0.0, 0.0, 0.0));
        bodies.push(body(61, range + REACH_SLACK_M, 0.0, 0.0));
        bodies.push(body(62, 0.0, range + REACH_SLACK_M + 1e-6, 0.0));
        let c = grid_contacts(3, 63, &bodies, range);
        for a in &bodies {
            for b in &bodies {
                if a.id != b.id {
                    assert_eq!(
                        c.contains(a.id, b.id),
                        within_reach(a, b, range),
                        "{:?} {:?}",
                        a.id,
                        b.id
                    );
                }
            }
        }
        assert!(c.contains(NodeId(60), NodeId(61)));
        assert!(!c.contains(NodeId(60), NodeId(62)));
    }
}
