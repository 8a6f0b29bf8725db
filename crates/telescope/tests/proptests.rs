//! Property-based tests for the detection pipeline: conservation laws of
//! the flow table, filter monotonicity, sweep-cadence independence of
//! the detector, and the day-row path against the per-batch one.

use dosscope_telescope::{
    classify, classify_batch, run_rsdos, BatchClass, DetectorConfig, PacketBatch, RsdosDetector,
    ShardedRsdos, Telescope, TelescopeDay,
};
use dosscope_wire::Ipv4Packet;
use dosscope_types::{CaptureDay, Routed, SimTime};
use dosscope_wire::builder;
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// An arbitrary attack script: (victim octet, start, duration, pps, port).
fn arb_attack() -> impl Strategy<Value = (u8, u64, u64, u32, u16)> {
    (1u8..40, 0u64..50_000, 30u64..2_000, 1u32..20, 1u16..1024)
}

fn render(attacks: &[(u8, u64, u64, u32, u16)]) -> Vec<PacketBatch> {
    let mut batches = Vec::new();
    for &(v, start, dur, pps, port) in attacks {
        let victim = Ipv4Addr::new(203, 0, 113, v);
        for s in 0..dur {
            let spoofed = Ipv4Addr::new(44, (s % 250) as u8, ((s / 250) % 250) as u8, 1);
            let pkt = builder::tcp_syn_ack(victim, port, spoofed, 40_000, s as u32);
            batches.push(PacketBatch::repeated(SimTime(start + s), pps, pkt));
        }
    }
    batches.sort_by_key(|b| b.ts);
    batches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: every backscatter packet is attributed to exactly one
    /// flow; events plus filtered flows equals finalized flows; event
    /// packet totals never exceed ingested backscatter.
    #[test]
    fn conservation_laws(attacks in proptest::collection::vec(arb_attack(), 1..6)) {
        let batches = render(&attacks);
        let total_packets: u64 = batches.iter().map(|b| b.count as u64).sum();
        let mut d = RsdosDetector::with_defaults(Telescope::default_slash8());
        for b in &batches {
            d.ingest(b);
        }
        let (events, stats) = d.finish();
        prop_assert_eq!(stats.backscatter_packets, total_packets);
        prop_assert_eq!(stats.events as usize, events.len());
        prop_assert_eq!(stats.events + stats.flows_filtered, stats.flows_finalized);
        let event_packets: u64 = events.iter().map(|e| e.packets).sum();
        prop_assert!(event_packets <= total_packets);
        // Every event satisfies the published thresholds.
        for e in &events {
            prop_assert!(e.packets >= 25);
            prop_assert!(e.duration_secs() >= 60);
            prop_assert!(e.intensity_pps >= 0.5);
        }
    }

    /// Filter monotonicity: loosening every threshold can only produce at
    /// least as many events, and the published-threshold events are a
    /// subset of the loose ones (by victim and start).
    #[test]
    fn filters_are_monotone(attacks in proptest::collection::vec(arb_attack(), 1..5)) {
        let batches = render(&attacks);
        let run = |config: DetectorConfig| {
            let mut d = RsdosDetector::new(Telescope::default_slash8(), config);
            for b in &batches {
                d.ingest(b);
            }
            d.finish().0
        };
        let published = run(DetectorConfig::default());
        let loose = run(DetectorConfig {
            min_packets: 0,
            min_duration_secs: 0,
            min_max_pps: 0.0,
            ..DetectorConfig::default()
        });
        prop_assert!(loose.len() >= published.len());
        for e in &published {
            prop_assert!(
                loose.iter().any(|l| l.target == e.target && l.when == e.when),
                "published event missing from loose run"
            );
        }
    }

    /// Sweep-cadence independence: a detector advanced on an arbitrary
    /// schedule, always at some `now` no later than the next batch, ends
    /// with the same events and stats as one that only expires flows on
    /// its own once-a-minute clock. A flow expires by its own idle gap,
    /// not by when sweeps run.
    #[test]
    fn advance_schedule_does_not_change_events(
        attacks in proptest::collection::vec(arb_attack(), 1..6),
        timeout in 1u64..400,
        schedule in proptest::collection::vec((1usize..24, 0u64..=100), 1..32),
        tail in 0u64..3_000,
    ) {
        let batches = render(&attacks);
        let config = DetectorConfig {
            flow_timeout_secs: timeout,
            ..DetectorConfig::default()
        };
        let mut advanced = RsdosDetector::new(Telescope::default_slash8(), config);
        let mut self_clocked = RsdosDetector::new(Telescope::default_slash8(), config);
        // Each step: advance after `gap` more batches, `frac` percent of
        // the way from this batch's time to the next one's.
        let mut steps = schedule.iter().cycle();
        let (mut gap, mut frac) = *steps.next().expect("non-empty schedule");
        for (i, b) in batches.iter().enumerate() {
            advanced.ingest(b);
            self_clocked.ingest(b);
            gap -= 1;
            if gap == 0 {
                let now = b.ts.secs();
                let next = batches.get(i + 1).map_or(now + tail, |n| n.ts.secs());
                advanced.advance(SimTime(now + (next - now) * frac / 100));
                (gap, frac) = *steps.next().expect("cycled");
            }
        }
        let last = batches.last().expect("non-empty script").ts.secs();
        advanced.advance(SimTime(last + tail));
        prop_assert_eq!(advanced.finish(), self_clocked.finish());
    }

    /// Flow splitting: the same script with a shorter flow timeout never
    /// yields fewer finalized flows.
    #[test]
    fn shorter_timeout_never_merges(attacks in proptest::collection::vec(arb_attack(), 1..5)) {
        let batches = render(&attacks);
        let finalized = |timeout: u64| {
            let mut d = RsdosDetector::new(
                Telescope::default_slash8(),
                DetectorConfig {
                    flow_timeout_secs: timeout,
                    min_packets: 0,
                    min_duration_secs: 0,
                    min_max_pps: 0.0,
                },
            );
            for b in &batches {
                d.ingest(b);
            }
            d.finish().1.flows_finalized
        };
        prop_assert!(finalized(30) >= finalized(300));
        prop_assert!(finalized(300) >= finalized(100_000));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The fused one-pass `classify_batch` agrees with the layered
    /// reference (checked IPv4 parse + `classify`) on valid, corrupted
    /// and truncated packets alike.
    #[test]
    fn fused_classify_matches_layered(
        kind in 0usize..5,
        a in 1u8..255,
        b in 0u8..255,
        port in 0u16..u16::MAX,
        code in 0u8..16,
        flips in proptest::collection::vec((0usize..4096, 0u8..=255u8), 0..8),
        cut in 0usize..4096,
        raw in proptest::collection::vec(0u8..=255u8, 0..64),
    ) {
        use dosscope_wire::IpProtocol;
        let victim = Ipv4Addr::new(203, 0, 113, a);
        let dark = Ipv4Addr::new(44, b, 1, 2);
        let mut bytes = match kind {
            0 => builder::tcp_syn_ack(victim, port, dark, 40_000, 7),
            1 => builder::tcp_rst(victim, port, dark, 40_000, 7),
            2 => builder::icmp_echo_reply(victim, dark, 7, 9),
            3 => builder::icmp_dest_unreachable(
                victim,
                dark,
                match code % 4 {
                    0 => IpProtocol::Udp,
                    1 => IpProtocol::Tcp,
                    2 => IpProtocol::Icmp,
                    _ => IpProtocol::Igmp,
                },
                port,
                port ^ 0x5555,
                code % 6,
            ),
            _ => raw.clone(),
        };
        for (i, v) in flips {
            if !bytes.is_empty() {
                let n = bytes.len();
                bytes[i % n] = v;
            }
        }
        if !bytes.is_empty() {
            let n = bytes.len();
            bytes.truncate(1 + cut % n);
        }
        let fused = classify_batch(&bytes);
        let layered = match Ipv4Packet::new_checked(bytes.as_slice()) {
            Err(_) => BatchClass::Malformed,
            Ok(ip) => match classify(&ip) {
                None => BatchClass::Other,
                Some(facts) => BatchClass::Backscatter { dst: ip.dst(), facts },
            },
        };
        prop_assert_eq!(fused, layered);
    }
}

/// Noise interleaved with a rendered script, at arbitrary times: `kind`
/// 0 is raw bytes (mostly malformed), 1 a backscatter packet truncated to
/// `cut` bytes, 2 a UDP request (not backscatter), 3 backscatter aimed
/// outside the darknet.
fn arb_noise() -> impl Strategy<Value = (usize, u64, usize, Vec<u8>)> {
    (0usize..4, 0u64..52_000, 0usize..60, proptest::collection::vec(0u8..=255u8, 0..24))
}

fn with_noise(mut batches: Vec<PacketBatch>, noise: &[(usize, u64, usize, Vec<u8>)]) -> Vec<PacketBatch> {
    let victim = Ipv4Addr::new(203, 0, 113, 250);
    for (kind, ts, cut, raw) in noise {
        let bytes = match kind {
            0 => raw.clone(),
            1 => {
                let mut pkt = builder::tcp_syn_ack(victim, 80, Ipv4Addr::new(44, 1, 1, 1), 1, 1);
                pkt.truncate(*cut % pkt.len());
                pkt
            }
            2 => builder::reflection_request(
                victim,
                5_000,
                Ipv4Addr::new(44, 2, 2, 2),
                dosscope_types::ReflectionProtocol::Dns,
            ),
            _ => builder::tcp_syn_ack(victim, 80, Ipv4Addr::new(9, 9, 9, 9), 1, 1),
        };
        batches.push(PacketBatch::repeated(SimTime(*ts), 1 + *cut as u32 % 3, bytes));
    }
    // Stable: the script's own order survives among equal timestamps.
    batches.sort_by_key(|b| b.ts);
    batches
}

/// The batches cut into consecutive days at `cuts`, each day holding
/// every distinct packet once (batches with equal bytes share one).
fn shared_days(batches: &[PacketBatch], cuts: &[usize]) -> Vec<TelescopeDay> {
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
                day.push(b.ts, b.count, (), id);
            }
            day
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The row path equals the per-batch path: a stream of backscatter,
    /// malformed, truncated and non-backscatter batches, cut into days
    /// whose rows share packets, detects the same events with the same
    /// statistics on 1, 2 and 8 shards as the batches fed one at a time.
    #[test]
    fn row_path_matches_per_batch(
        attacks in proptest::collection::vec(arb_attack(), 1..5),
        noise in proptest::collection::vec(arb_noise(), 0..24),
        cuts in proptest::collection::vec(0usize..100_000, 0..6),
    ) {
        let batches = with_noise(render(&attacks), &noise);
        let telescope = Telescope::default_slash8();
        let want = run_rsdos(RsdosDetector::with_defaults(telescope), batches.clone());
        for shards in [1, 2, 8] {
            let mut engine = ShardedRsdos::with_defaults(telescope, shards);
            for day in shared_days(&batches, &cuts) {
                engine.ingest_routed(Routed::by_source(day, shards));
            }
            let (events, stats, _) = engine.finish();
            prop_assert_eq!(&(events, stats), &want, "{} shards", shards);
        }
    }
}
