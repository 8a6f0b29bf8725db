//! Step 3 of the Moore et al. pipeline: attack classification and
//! filtering, producing [`AttackEvent`]s from finished flows.
//!
//! The filter thresholds are exactly the paper's (Section 3.1.1): discard
//! flows with (i) fewer than 25 packets, (ii) a duration shorter than 60
//! seconds, or (iii) a maximum packet rate below 0.5 packets per second
//! (in any given minute). The event intensity is the maximum per-minute
//! packet rate, which estimates a victim-side rate when multiplied by the
//! telescope scaling factor (×256 for a /8).

use crate::classify::{classify_batch, BatchClass};
use crate::flow::{Flow, FlowTable};
use crate::packet::PacketBatch;
use crate::Telescope;
use dosscope_types::{
    AttackEvent, AttackVector, PortSignature, SimTime, TimeRange, TransportProto,
};

/// Detector thresholds and parameters; defaults are the published values.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Flow inactivity timeout in seconds (300).
    pub flow_timeout_secs: u64,
    /// Minimum backscatter packets per event (25).
    pub min_packets: u64,
    /// Minimum event duration in seconds (60).
    pub min_duration_secs: u64,
    /// Minimum maximum-packet-rate in pps (0.5, i.e. an estimated 128 pps
    /// at the victim through a /8 telescope).
    pub min_max_pps: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            flow_timeout_secs: 300,
            min_packets: 25,
            min_duration_secs: 60,
            min_max_pps: 0.5,
        }
    }
}

/// Counters describing what the detector saw and dropped. The sharded
/// engine sums them over shards and publishes them as the `telescope.*`
/// telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorStats {
    /// Batches whose bytes failed IPv4 parsing.
    pub malformed: u64,
    /// Batches parsed but not classified as backscatter.
    pub non_backscatter: u64,
    /// Backscatter batches accepted into flows.
    pub backscatter_batches: u64,
    /// Backscatter packets accepted into flows.
    pub backscatter_packets: u64,
    /// Flows finalized in total.
    pub flows_finalized: u64,
    /// Flows dropped by the packet/duration/rate filters: the sum of the
    /// three `filtered_*` counts.
    pub flows_filtered: u64,
    /// Flows dropped for too few packets (the first filter).
    pub filtered_packets: u64,
    /// Flows with enough packets dropped for too short a duration.
    pub filtered_duration: u64,
    /// Flows passing both earlier filters dropped for too low a peak
    /// per-minute rate.
    pub filtered_rate: u64,
    /// Attack events emitted.
    pub events: u64,
}

impl std::ops::AddAssign for DetectorStats {
    fn add_assign(&mut self, other: DetectorStats) {
        self.malformed += other.malformed;
        self.non_backscatter += other.non_backscatter;
        self.backscatter_batches += other.backscatter_batches;
        self.backscatter_packets += other.backscatter_packets;
        self.flows_finalized += other.flows_finalized;
        self.flows_filtered += other.flows_filtered;
        self.filtered_packets += other.filtered_packets;
        self.filtered_duration += other.filtered_duration;
        self.filtered_rate += other.filtered_rate;
        self.events += other.events;
    }
}

/// The randomly-spoofed-DoS detector: classifier + flow table + filter.
#[derive(Debug)]
pub struct RsdosDetector {
    config: DetectorConfig,
    telescope: Telescope,
    flows: FlowTable,
    events: Vec<AttackEvent>,
    stats: DetectorStats,
}

impl RsdosDetector {
    /// A detector for the given darknet with the given thresholds.
    pub fn new(telescope: Telescope, config: DetectorConfig) -> RsdosDetector {
        RsdosDetector {
            config,
            telescope,
            flows: FlowTable::new(config.flow_timeout_secs),
            events: Vec::new(),
            stats: DetectorStats::default(),
        }
    }

    /// A detector with the published default thresholds.
    pub fn with_defaults(telescope: Telescope) -> RsdosDetector {
        RsdosDetector::new(telescope, DetectorConfig::default())
    }

    /// The telescope this detector observes.
    pub fn telescope(&self) -> &Telescope {
        &self.telescope
    }

    /// Processing statistics so far.
    pub fn stats(&self) -> DetectorStats {
        self.stats
    }

    /// Number of currently live (unexpired) flows — the flow table's
    /// working-set size, sampled for the `telescope.peak_live_flows` gauge.
    pub fn live_flows(&self) -> usize {
        self.flows.len()
    }

    /// Ingest one captured batch (batches must arrive in time order).
    pub fn ingest(&mut self, batch: &PacketBatch) {
        self.ingest_packet(batch.ts, batch.count, &batch.bytes);
    }

    /// Ingest `count` identical captured packets `bytes` at `ts` (calls
    /// must arrive in time order): the entry point for a day's rows,
    /// which hold no per-batch value.
    pub fn ingest_packet(&mut self, ts: SimTime, count: u32, bytes: &[u8]) {
        // Every row moves the expiry clock, backscatter or not.
        for flow in self.flows.expire(ts) {
            self.finalize(flow);
        }
        // One fused pass over the bytes (validation + classification);
        // equivalent to checked parse + `classify`, see `classify_batch`.
        let (dst, bs) = match classify_batch(bytes) {
            BatchClass::Malformed => {
                self.stats.malformed += 1;
                return;
            }
            BatchClass::Other => {
                self.stats.non_backscatter += 1;
                return;
            }
            BatchClass::Backscatter { dst, facts } => (dst, facts),
        };
        // Ignore stray packets not destined to the darknet; the capture in
        // front of a real telescope guarantees this, the simulator may not.
        if !self.telescope.observes(dst) {
            self.stats.non_backscatter += 1;
            return;
        }
        self.stats.backscatter_batches += 1;
        self.stats.backscatter_packets += count as u64;
        let total_bytes = count as u64 * bytes.len() as u64;
        if let Some(expired) = self.flows.offer(&bs, ts, count, total_bytes) {
            self.finalize(expired);
        }
    }

    /// Expire idle flows at `now`. Ingestion already expires them once
    /// per minute of capture time; an extra sweep changes no event.
    pub fn advance(&mut self, now: SimTime) {
        for flow in self.flows.sweep(now) {
            self.finalize(flow);
        }
    }

    /// End of trace: finalize everything and return all events, sorted by
    /// start time.
    pub fn finish(mut self) -> (Vec<AttackEvent>, DetectorStats) {
        for flow in self.flows.drain() {
            self.finalize(flow);
        }
        self.events.sort_by_key(|e| (e.when.start, e.target));
        (self.events, self.stats)
    }

    /// Events emitted so far (finalized flows only).
    pub fn events(&self) -> &[AttackEvent] {
        &self.events
    }

    fn finalize(&mut self, flow: Flow) {
        // Flow expiry is decided per flow by its own idle gap, never by
        // the sweep cadence, so this count is thread-count invariant.
        self.stats.flows_finalized += 1;
        // A dropped flow is counted once, under the first threshold it
        // fails, in the paper's order.
        let max_pps = flow.max_pps();
        let failed = if flow.packets < self.config.min_packets {
            Some(&mut self.stats.filtered_packets)
        } else if flow.duration_secs() < self.config.min_duration_secs {
            Some(&mut self.stats.filtered_duration)
        } else if max_pps < self.config.min_max_pps {
            Some(&mut self.stats.filtered_rate)
        } else {
            None
        };
        if let Some(count) = failed {
            *count += 1;
            self.stats.flows_filtered += 1;
            return;
        }
        let proto = flow.dominant_proto();
        let ports = match (proto, flow.distinct_ports()) {
            // ICMP/Other floods carry no port information.
            (TransportProto::Icmp | TransportProto::Other, _) | (_, 0) => PortSignature::None,
            (_, 1) => PortSignature::Single(flow.single_port().expect("exactly one port")),
            (_, n) => PortSignature::Multi(n),
        };
        self.events.push(AttackEvent {
            target: flow.victim,
            when: TimeRange::new(flow.first, flow.last),
            vector: AttackVector::RandomlySpoofed { proto, ports },
            packets: flow.packets,
            bytes: flow.bytes,
            intensity_pps: max_pps,
            distinct_sources: flow.distinct_sources(),
        });
        self.stats.events += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosscope_types::SECS_PER_MINUTE;
    use dosscope_wire::builder;
    use std::net::Ipv4Addr;

    fn victim() -> Ipv4Addr {
        "203.0.113.77".parse().unwrap()
    }

    fn dark(i: u8) -> Ipv4Addr {
        Ipv4Addr::new(44, 1, 2, i)
    }

    fn detector() -> RsdosDetector {
        RsdosDetector::with_defaults(Telescope::default_slash8())
    }

    /// Feed a SYN-flood backscatter pattern: `pps` packets per second for
    /// `secs` seconds.
    fn feed_syn_flood(d: &mut RsdosDetector, start: u64, secs: u64, pps: u32, port: u16) {
        for s in 0..secs {
            let pkt = builder::tcp_syn_ack(victim(), port, dark((s % 200) as u8), 40000, s as u32);
            d.ingest(&PacketBatch::repeated(SimTime(start + s), pps, pkt));
        }
    }

    #[test]
    fn detects_simple_syn_flood() {
        let mut d = detector();
        feed_syn_flood(&mut d, 100, 120, 2, 80);
        let (events, stats) = d.finish();
        assert_eq!(events.len(), 1, "one attack event");
        let e = &events[0];
        assert_eq!(e.target, victim());
        assert_eq!(e.transport_proto(), Some(TransportProto::Tcp));
        assert_eq!(e.port_signature(), Some(PortSignature::Single(80)));
        assert_eq!(e.packets, 240);
        assert!((e.intensity_pps - 2.0).abs() < 1e-9);
        assert_eq!(e.duration_secs(), 119);
        assert_eq!(stats.events, 1);
        assert_eq!(stats.flows_filtered, 0);
        assert_eq!(stats.backscatter_batches, 120);
    }

    #[test]
    fn filters_short_flow() {
        let mut d = detector();
        // 30 packets over 30 seconds: fails the 60 s minimum duration.
        feed_syn_flood(&mut d, 0, 30, 1, 80);
        let (events, stats) = d.finish();
        assert!(events.is_empty());
        assert_eq!(stats.flows_filtered, 1);
    }

    #[test]
    fn filters_few_packets() {
        let mut d = detector();
        // 1 packet every 6 seconds for 120 s: 20 packets < 25 minimum.
        for s in (0..120).step_by(6) {
            let pkt = builder::tcp_syn_ack(victim(), 80, dark(1), 40000, s as u32);
            d.ingest(&PacketBatch::single(SimTime(s), pkt));
        }
        let (events, _) = d.finish();
        assert!(events.is_empty());
    }

    #[test]
    fn filters_low_rate() {
        let mut d = detector();
        // 25 packets spread over 5 minutes: max ~5-6/minute < 30 (0.5 pps).
        for i in 0..25u64 {
            let pkt = builder::tcp_syn_ack(victim(), 80, dark(1), 40000, i as u32);
            d.ingest(&PacketBatch::single(SimTime(i * 12), pkt));
        }
        let (events, stats) = d.finish();
        assert!(events.is_empty());
        assert_eq!(stats.flows_filtered, 1);
    }

    /// A dropped flow counts once, under the first threshold it fails:
    /// packets, then duration, then rate. The rate floor is halved to
    /// 15 packets a minute so that a flow can fail the packet count
    /// alone (at 0.5 pps, any flow under 25 packets also fails the rate).
    #[test]
    fn filtered_flows_split_by_first_failed_threshold() {
        let config = DetectorConfig {
            min_max_pps: 0.25,
            ..DetectorConfig::default()
        };
        let mut d = RsdosDetector::new(Telescope::default_slash8(), config);
        // (first burst, second burst's offset and size) per victim; each
        // first burst sits 10 s before a minute boundary, so the bursts
        // fall in separate minutes.
        let flows = [
            (20, 70, 1),  // 21 packets: packets only
            (30, 30, 1),  // 30 s: duration only
            (14, 70, 14), // peak 14 a minute: rate only
            (20, 30, 1),  // 21 packets over 30 s: packets and duration
            (14, 20, 14), // 20 s at 14 a minute: duration and rate
        ];
        for (i, (first, offset, second)) in flows.into_iter().enumerate() {
            let victim = Ipv4Addr::new(203, 0, 113, i as u8);
            let start = 1_200 * i as u64;
            let pkt = builder::tcp_syn_ack(victim, 80, dark(1), 40000, 0);
            d.ingest(&PacketBatch::repeated(SimTime(start + 50), first, pkt.clone()));
            d.ingest(&PacketBatch::repeated(SimTime(start + 50 + offset), second, pkt));
        }
        let (events, stats) = d.finish();
        assert!(events.is_empty());
        assert_eq!(
            (stats.filtered_packets, stats.filtered_duration, stats.filtered_rate),
            (2, 2, 1)
        );
        assert_eq!(stats.flows_filtered, 5);
    }

    #[test]
    fn rate_threshold_is_per_minute_max() {
        let mut d = detector();
        // One hot minute (60 packets = 1 pps) then a quiet minute; total
        // duration 100 s, 70 packets: passes all thresholds.
        feed_syn_flood(&mut d, 0, 60, 1, 80);
        for s in 60..100 {
            if s % 4 == 0 {
                let pkt = builder::tcp_syn_ack(victim(), 80, dark(1), 40000, s as u32);
                d.ingest(&PacketBatch::single(SimTime(s), pkt));
            }
        }
        let (events, _) = d.finish();
        assert_eq!(events.len(), 1);
        assert!((events[0].intensity_pps - 1.0).abs() < 1e-9);
    }

    #[test]
    fn separate_attacks_after_timeout() {
        let mut d = detector();
        feed_syn_flood(&mut d, 0, 90, 1, 80);
        // > 300 s gap.
        feed_syn_flood(&mut d, 90 + 400, 90, 1, 80);
        let (events, _) = d.finish();
        assert_eq!(events.len(), 2, "timeout splits into two events");
    }

    #[test]
    fn advance_flushes_idle_flows() {
        let mut d = detector();
        feed_syn_flood(&mut d, 0, 90, 1, 80);
        assert!(d.events().is_empty());
        d.advance(SimTime(90 + 301));
        assert_eq!(d.events().len(), 1, "advance() finalizes idle flows");
    }

    /// Rows drive expiry on their own: a flow idle since t=89 is
    /// finalized by the first row of a later minute once it is idle
    /// (t=420), not by a row in the minute already swept (t=400), and a
    /// malformed row moves the clock like any other.
    #[test]
    fn rows_expire_idle_flows_at_the_next_minute() {
        let mut d = detector();
        feed_syn_flood(&mut d, 0, 90, 1, 80);
        for (ts, events) in [(389, 0), (400, 0), (420, 1)] {
            d.ingest(&PacketBatch::single(SimTime(ts), vec![0xFF; 10]));
            assert_eq!(d.events().len(), events, "after a row at t={ts}");
        }
        assert_eq!(d.live_flows(), 0);
    }

    #[test]
    fn udp_flood_via_unreachables() {
        let mut d = detector();
        for s in 0..90u64 {
            let pkt = builder::icmp_dest_unreachable(
                victim(),
                dark((s % 100) as u8),
                dosscope_wire::IpProtocol::Udp,
                5555,
                27015,
                3,
            );
            d.ingest(&PacketBatch::repeated(SimTime(s), 2, pkt));
        }
        let (events, _) = d.finish();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].transport_proto(), Some(TransportProto::Udp));
        assert_eq!(
            events[0].port_signature(),
            Some(PortSignature::Single(27015))
        );
    }

    #[test]
    fn icmp_flood_has_no_ports() {
        let mut d = detector();
        for s in 0..90u64 {
            let pkt = builder::icmp_echo_reply(victim(), dark((s % 100) as u8), 1, s as u16);
            d.ingest(&PacketBatch::repeated(SimTime(s), 2, pkt));
        }
        let (events, _) = d.finish();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].transport_proto(), Some(TransportProto::Icmp));
        assert_eq!(events[0].port_signature(), Some(PortSignature::None));
        assert!(events[0].port_signature().unwrap().is_single());
    }

    #[test]
    fn multi_port_attack() {
        let mut d = detector();
        for s in 0..90u64 {
            let port = 1000 + (s % 5) as u16;
            let pkt = builder::tcp_syn_ack(victim(), port, dark(1), 40000, s as u32);
            d.ingest(&PacketBatch::repeated(SimTime(s), 1, pkt));
        }
        let (events, _) = d.finish();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].port_signature(), Some(PortSignature::Multi(5)));
    }

    #[test]
    fn ignores_scans_and_malformed() {
        let mut d = detector();
        // A UDP scan packet to the darknet.
        let scan = builder::reflection_request(
            victim(),
            1234,
            dark(9),
            dosscope_types::ReflectionProtocol::Dns,
        );
        d.ingest(&PacketBatch::single(SimTime(0), scan));
        // Garbage bytes.
        d.ingest(&PacketBatch::single(SimTime(1), vec![0xFF; 10]));
        // A packet not destined to the darknet at all.
        let stray = builder::tcp_syn_ack(victim(), 80, "9.9.9.9".parse().unwrap(), 1, 1);
        d.ingest(&PacketBatch::single(SimTime(2), stray));
        let (events, stats) = d.finish();
        assert!(events.is_empty());
        assert_eq!(stats.malformed, 1);
        assert_eq!(stats.non_backscatter, 2);
        assert_eq!(stats.backscatter_batches, 0);
        assert_eq!(stats.backscatter_packets, 0);
    }

    #[test]
    fn distinct_sources_counted() {
        let mut d = detector();
        for s in 0..90u64 {
            let pkt = builder::tcp_syn_ack(victim(), 80, dark((s % 50) as u8), 40000, s as u32);
            d.ingest(&PacketBatch::single(SimTime(s), pkt));
        }
        let (events, _) = d.finish();
        assert_eq!(events[0].distinct_sources, 50);
    }

    #[test]
    fn estimated_victim_rate_scales_by_256() {
        let d = detector();
        let scale = d.telescope().scaling_factor();
        assert_eq!(scale, 256.0);
        // 0.5 pps at the telescope ≈ 128 pps at the victim (footnote 1).
        assert!((0.5 * scale - 128.0).abs() < 1e-9);
    }

    #[test]
    fn interleaved_victims_tracked_independently() {
        let mut d = detector();
        let v2: Ipv4Addr = "198.51.100.9".parse().unwrap();
        for s in 0..90u64 {
            let a = builder::tcp_syn_ack(victim(), 80, dark(1), 40000, s as u32);
            let b = builder::tcp_syn_ack(v2, 443, dark(2), 40001, s as u32);
            d.ingest(&PacketBatch::repeated(SimTime(s), 1, a));
            d.ingest(&PacketBatch::repeated(SimTime(s), 1, b));
        }
        let (events, _) = d.finish();
        assert_eq!(events.len(), 2);
        let targets: Vec<_> = events.iter().map(|e| e.target).collect();
        assert!(targets.contains(&victim()) && targets.contains(&v2));
    }

    #[test]
    fn exactly_at_thresholds_passes() {
        let mut d = detector();
        // 30 packets in one minute (0.5 pps), duration exactly 60 s.
        for s in 0..=60u64 {
            if s % 2 == 0 {
                let pkt = builder::tcp_syn_ack(victim(), 80, dark(1), 40000, s as u32);
                d.ingest(&PacketBatch::single(SimTime(s), pkt));
            }
        }
        let (events, _) = d.finish();
        assert_eq!(events.len(), 1, "boundary values are inclusive");
        assert!(events[0].intensity_pps >= 0.5);
        assert!(events[0].duration_secs() >= SECS_PER_MINUTE);
        assert!(events[0].packets >= 25);
    }

    /// Feed `n` packets at one per second from t=0, then finish.
    fn events_for_n_packets(config: DetectorConfig, n: u64) -> Vec<AttackEvent> {
        let mut d = RsdosDetector::new(Telescope::default_slash8(), config);
        for s in 0..n {
            let pkt = builder::tcp_syn_ack(victim(), 80, dark(1), 40000, s as u32);
            d.ingest(&PacketBatch::single(SimTime(s), pkt));
        }
        d.finish().0
    }

    #[test]
    fn packet_threshold_edge() {
        // With the default thresholds 25 packets can never reach the
        // 0.5 pps minimum (25/60 < 0.5), so isolate the packet filter by
        // relaxing the rate. 25 one-per-second packets last 24 s, so relax
        // the duration too: exactly 25 passes, 24 is filtered.
        let config = DetectorConfig {
            min_duration_secs: 0,
            min_max_pps: 0.0,
            ..DetectorConfig::default()
        };
        assert_eq!(events_for_n_packets(config, 25).len(), 1, "25 >= 25");
        assert!(events_for_n_packets(config, 24).is_empty(), "24 < 25");
    }

    #[test]
    fn duration_threshold_edge() {
        // 30 packets at t=0 satisfy count and rate; the final single
        // packet sets the duration to exactly 60 s (pass) or 59 s (fail).
        for (last, expect) in [(60u64, 1usize), (59, 0)] {
            let mut d = detector();
            let pkt = builder::tcp_syn_ack(victim(), 80, dark(1), 40000, 0);
            d.ingest(&PacketBatch::repeated(SimTime(0), 30, pkt.clone()));
            d.ingest(&PacketBatch::single(SimTime(last), pkt));
            let (events, stats) = d.finish();
            assert_eq!(events.len(), expect, "duration {last} s");
            assert_eq!(stats.flows_filtered, 1 - expect as u64);
            if let [e] = events.as_slice() {
                assert_eq!(e.duration_secs(), SECS_PER_MINUTE);
            }
        }
    }

    #[test]
    fn max_pps_threshold_edge() {
        // Two minutes of traffic, duration 90 s. A 30-packet peak minute
        // is exactly 0.5 pps (pass); a 29-packet peak is just under
        // (fail), even though the flow totals 58 packets over 90 s.
        for (peak, expect) in [(30u32, 1usize), (29, 0)] {
            let mut d = detector();
            let pkt = builder::tcp_syn_ack(victim(), 80, dark(1), 40000, 0);
            d.ingest(&PacketBatch::repeated(SimTime(0), peak, pkt.clone()));
            d.ingest(&PacketBatch::repeated(SimTime(90), peak - 1, pkt));
            let (events, stats) = d.finish();
            assert_eq!(events.len(), expect, "peak minute {peak} packets");
            assert_eq!(stats.flows_filtered, 1 - expect as u64);
            if let [e] = events.as_slice() {
                assert!((e.intensity_pps - 0.5).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn flow_timeout_boundary() {
        // The timeout splits a flow only when the gap *exceeds*
        // `flow_timeout_secs`: a second burst exactly 300 s after the last
        // packet continues the flow, 301 s starts a new one.
        for (gap, expect) in [(300u64, 1usize), (301, 2)] {
            let mut d = detector();
            feed_syn_flood(&mut d, 0, 90, 1, 80); // last packet at t=89
            feed_syn_flood(&mut d, 89 + gap, 90, 1, 80);
            let (events, stats) = d.finish();
            assert_eq!(events.len(), expect, "gap of {gap} s");
            assert_eq!(stats.flows_finalized, expect as u64);
            assert_eq!(stats.flows_filtered, 0);
        }
    }
}
