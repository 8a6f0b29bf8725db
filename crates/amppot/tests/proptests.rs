//! Property-based tests for the honeypot fleet: request conservation, the
//! scan filter, the 24-hour event-duration invariant, and the day-row
//! path against the per-batch one.

use dosscope_amppot::{AmpPotFleet, HoneypotDay, HoneypotId, RequestBatch, ShardedFleet};
use dosscope_types::{CaptureDay, ReflectionProtocol, Routed, SimTime};
use dosscope_wire::builder;
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// (victim octet, protocol index, start, duration secs, rate, pots)
fn arb_attack() -> impl Strategy<Value = (u8, usize, u64, u64, u32, u8)> {
    (1u8..30, 0usize..8, 0u64..100_000, 10u64..3_000, 1u32..6, 1u8..8)
}

fn render(attacks: &[(u8, usize, u64, u64, u32, u8)], fleet: &AmpPotFleet) -> Vec<RequestBatch> {
    let mut batches = Vec::new();
    for &(v, pi, start, dur, rate, pots) in attacks {
        let victim = Ipv4Addr::new(198, 51, 100, v);
        let protocol = ReflectionProtocol::ALL[pi];
        for s in (0..dur).step_by(10) {
            for p in 0..pots {
                let addr = fleet.honeypots()[p as usize].addr;
                let pkt = builder::reflection_request(victim, 40_000, addr, protocol);
                batches.push(RequestBatch::repeated(
                    HoneypotId(p),
                    SimTime(start + s),
                    rate,
                    pkt,
                ));
            }
        }
    }
    batches.sort_by_key(|b| (b.ts, b.honeypot));
    batches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation and filter invariants: every request is either part of
    /// an event or was scan-filtered; events always exceed 100 requests;
    /// no event lasts more than 24 h.
    #[test]
    fn conservation_and_thresholds(attacks in proptest::collection::vec(arb_attack(), 1..5)) {
        let mut fleet = AmpPotFleet::standard();
        let batches = render(&attacks, &fleet);
        let total: u64 = batches.iter().map(|b| b.count as u64).sum();
        for b in &batches {
            fleet.ingest(b);
        }
        let (events, stats) = fleet.finish();
        prop_assert_eq!(stats.requests, total);
        prop_assert_eq!(stats.malformed, 0);
        prop_assert_eq!(stats.unrecognised, 0);
        let event_requests: u64 = events.iter().map(|e| e.packets).sum();
        prop_assert!(event_requests <= total);
        for e in &events {
            prop_assert!(e.packets > 100, "scan filter violated: {}", e.packets);
            prop_assert!(e.duration_secs() <= 86_400, "24h cap violated");
            prop_assert!(e.intensity_pps > 0.0);
            prop_assert!(e.reflection_protocol().is_some());
        }
    }

    /// Per (victim, protocol) grouping: the fleet never reports more
    /// events for a pair than the number of generated attack episodes for
    /// it (merging may reduce, never inflate beyond splits from the cap).
    #[test]
    fn no_spurious_events(attacks in proptest::collection::vec(arb_attack(), 1..5)) {
        let mut fleet = AmpPotFleet::standard();
        let batches = render(&attacks, &fleet);
        for b in &batches {
            fleet.ingest(b);
        }
        let (events, _) = fleet.finish();
        for e in &events {
            // Every event's (victim, protocol) pair must come from some
            // generated attack.
            let matched = attacks.iter().any(|&(v, pi, ..)| {
                e.target == Ipv4Addr::new(198, 51, 100, v)
                    && e.reflection_protocol() == Some(ReflectionProtocol::ALL[pi])
            });
            prop_assert!(matched, "event for unknown (victim, protocol)");
        }
    }
}

/// Noise interleaved with a rendered script, at arbitrary times and
/// honeypots: `kind` 0 is raw bytes (mostly malformed), 1 a request
/// truncated to `cut` bytes, 2 a TCP packet and 3 a scanner's request
/// (both unrecognised or under the scan filter).
fn arb_noise() -> impl Strategy<Value = (usize, u64, u8, usize, Vec<u8>)> {
    (
        0usize..4,
        0u64..103_000,
        0u8..24,
        0usize..80,
        proptest::collection::vec(0u8..=255u8, 0..24),
    )
}

fn with_noise(
    mut batches: Vec<RequestBatch>,
    noise: &[(usize, u64, u8, usize, Vec<u8>)],
    fleet: &AmpPotFleet,
) -> Vec<RequestBatch> {
    let source = Ipv4Addr::new(198, 51, 100, 250);
    for (kind, ts, pot, cut, raw) in noise {
        let addr = fleet.honeypots()[*pot as usize].addr;
        let bytes = match kind {
            0 => raw.clone(),
            1 => {
                let mut pkt = builder::reflection_request(source, 1, addr, ReflectionProtocol::Ntp);
                pkt.truncate(*cut % pkt.len());
                pkt
            }
            2 => builder::tcp_syn_ack(source, 80, addr, 1, 1),
            _ => builder::reflection_request(source, 2, addr, ReflectionProtocol::ALL[*cut % 8]),
        };
        batches.push(RequestBatch::repeated(HoneypotId(*pot), SimTime(*ts), 1 + *cut as u32 % 3, bytes));
    }
    // Stable: the script's own order survives among equal timestamps.
    batches.sort_by_key(|b| b.ts);
    batches
}

/// The batches cut into consecutive days at `cuts`, each day holding
/// every distinct packet once (batches with equal bytes share one
/// representative).
fn shared_days(batches: &[RequestBatch], cuts: &[usize]) -> Vec<HoneypotDay> {
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (batches.len() + 1)).collect();
    bounds.extend([0, batches.len()]);
    bounds.sort_unstable();
    bounds
        .windows(2)
        .map(|w| {
            let mut day = CaptureDay::default();
            let mut ids = std::collections::HashMap::new();
            for b in &batches[w[0]..w[1]] {
                let id = *ids
                    .entry(b.bytes.as_slice().to_vec())
                    .or_insert_with(|| day.append(|buf| buf.extend_from_slice(&b.bytes)));
                day.push(b.ts, b.count, b.honeypot, id);
            }
            day
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The row path equals the per-batch path: a stream of requests,
    /// malformed, truncated and unrecognised batches, cut into days whose
    /// rows share representatives, yields the same events and statistics
    /// on 1, 2 and 8 shards as the batches fed one at a time.
    #[test]
    fn row_path_matches_per_batch(
        attacks in proptest::collection::vec(arb_attack(), 1..5),
        noise in proptest::collection::vec(arb_noise(), 0..24),
        cuts in proptest::collection::vec(0usize..100_000, 0..6),
    ) {
        let mut serial = AmpPotFleet::standard();
        let batches = with_noise(render(&attacks, &serial), &noise, &serial);
        for b in &batches {
            serial.ingest(b);
        }
        let want = serial.finish();
        for shards in [1, 2, 8] {
            let mut engine = ShardedFleet::standard(shards);
            for day in shared_days(&batches, &cuts) {
                engine.ingest_routed(Routed::by_source(day, shards));
            }
            let (events, stats, _) = engine.finish();
            prop_assert_eq!(&(events, stats), &want, "{} shards", shards);
        }
    }
}
