//! Property test of the source-side bookkeeping: after every operation
//! of a random sequence, the untransmitted count, the deadline set and
//! `next_wakeup` agree with scans of `pending`. The scans here are the
//! reference; they are how the endpoint answered before it kept the
//! indexes.

use std::collections::BTreeSet;

use proptest::prelude::*;

use super::*;

const VEH: NodeId = NodeId(0);
const BS_A: NodeId = NodeId(1);
const BS_B: NodeId = NodeId(2);

/// A short queue bound and retry limit, so sequences reach both drops.
fn cfg() -> VifiConfig {
    VifiConfig {
        max_data_queue: 4,
        max_retx: 2,
        ..VifiConfig::default()
    }
}

fn check(ep: &Endpoint) -> Result<(), TestCaseError> {
    let untransmitted = ep.pending.values().filter(|p| p.tx_count == 0).count();
    prop_assert_eq!(ep.untransmitted, untransmitted);
    // The queue bound's former count: queued data frames never sent.
    let waiting = ep
        .tx_queue
        .iter()
        .filter(|f| {
            matches!(f, OutFrame::Data { seq }
                if ep.pending.get(seq).is_some_and(|p| p.tx_count == 0))
        })
        .count();
    prop_assert_eq!(ep.untransmitted, waiting);

    let deadlines: BTreeSet<(SimTime, u64)> = ep
        .pending
        .iter()
        .filter_map(|(&seq, p)| p.deadline.map(|d| (d, seq)))
        .collect();
    prop_assert_eq!(&ep.deadlines, &deadlines);

    // A pending packet has a queued frame exactly while it has no deadline.
    let queued: BTreeSet<u64> = ep
        .tx_queue
        .iter()
        .filter_map(|f| match f {
            OutFrame::Data { seq } if ep.pending.contains_key(seq) => Some(*seq),
            _ => None,
        })
        .collect();
    let undated: BTreeSet<u64> = ep
        .pending
        .iter()
        .filter(|(_, p)| p.deadline.is_none())
        .map(|(&seq, _)| seq)
        .collect();
    prop_assert_eq!(queued, undated);

    // `next_wakeup` as the min-scan over `pending` computed it.
    let retx = ep.pending.values().filter_map(|p| p.deadline).min();
    let scanned = match (retx, ep.next_relay_check()) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    prop_assert_eq!(ep.next_wakeup(), scanned);
    Ok(())
}

/// An ACK from `from` for `origin`'s packet `seq`, optionally carrying a
/// piggybacked bitmap.
fn ack(from: NodeId, origin: NodeId, seq: u64, bitmap: WireBitmap) -> VifiPayload {
    VifiPayload::Ack(AckFrame {
        from,
        id: PacketId { origin, seq },
        bitmap,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn indexes_match_scans_of_pending(
        ops in proptest::collection::vec((0u8..12, any::<u64>()), 1..240usize),
    ) {
        let mut veh = Endpoint::new(VEH, Role::Vehicle, cfg(), vec![BS_A, BS_B], Rng::new(1));
        let mut bs = Endpoint::new(BS_A, Role::Bs, cfg(), vec![BS_A, BS_B], Rng::new(2));
        let mut now = SimTime::ZERO;
        for (op, x) in ops {
            // Time runs forward by 0–63 ms per step, now and then by
            // seconds, so deadlines fall due at arbitrary wake-ups.
            now += if x % 17 == 0 {
                SimDuration::from_secs(1 + x % 3)
            } else {
                SimDuration::from_millis((x >> 8) % 64)
            };
            let app = Bytes::from_static(b"p");
            let bitmap = Some((x % 64, (x >> 6) as u8));
            match op {
                // Bursts of sends overrun `max_data_queue` on both sides.
                0 => {
                    for _ in 0..=x % 3 {
                        veh.send_app(app.clone(), None, now);
                    }
                }
                1 => {
                    for _ in 0..=x % 3 {
                        bs.send_app(app.clone(), Some(VEH), now);
                    }
                }
                2 | 3 => {
                    veh.anchor = (op == 2).then_some(BS_A);
                    let _ = veh.pull_frame(now);
                }
                4 => {
                    let _ = bs.pull_frame(now);
                }
                5 => {
                    let seq = x % veh.next_seq.max(1);
                    veh.on_frame(&ack(BS_A, VEH, seq, None), now);
                }
                6 => {
                    let seq = x % bs.next_seq.max(1);
                    bs.on_frame(&ack(VEH, BS_A, seq, None), now);
                }
                // Bitmap ACKs ride on frames about someone else's packet.
                7 => {
                    veh.on_frame(&ack(BS_B, BS_B, 0, bitmap), now);
                }
                8 => {
                    bs.on_frame(&ack(VEH, BS_B, 0, bitmap), now);
                }
                9 => {
                    let _ = veh.on_wakeup(now);
                }
                10 => {
                    let _ = bs.on_wakeup(now);
                }
                _ => {
                    let req = BackplaneMsg::SalvageRequest {
                        new_anchor: BS_B,
                        vehicle: VEH,
                    };
                    let _ = bs.on_backplane(BS_B, &req, now);
                }
            }
            check(&veh)?;
            check(&bs)?;
        }
    }
}
