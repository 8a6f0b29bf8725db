//! Step 2 of the Moore et al. pipeline: aggregate backscatter packets into
//! attack flows keyed by the victim IP, expiring flows after 300 seconds of
//! inactivity (the paper's conservative timeout).

use crate::classify::Backscatter;
use dosscope_types::{FastSet, IdleMap, LastActive, SimTime, TransportProto, SECS_PER_MINUTE};
use std::net::Ipv4Addr;

/// Cap on the exact distinct-port set; beyond this the count saturates
/// (an attack on 256+ ports is deep into "multi-port" territory anyway).
const MAX_TRACKED_PORTS: usize = 256;

/// Cap on the exact distinct-source set, after which the count saturates.
const MAX_TRACKED_SOURCES: usize = 65_536;

/// Initial capacity of a flow's distinct-source set. Every backscatter
/// packet carries a fresh spoofed source, so the set grows with the flow;
/// starting at a realistic size skips the worst of the realloc/rehash
/// chain on the per-packet path (the dominant cost of `Flow::add` for
/// short flows) at ~1 KiB per live flow.
const SOURCES_INITIAL_CAPACITY: usize = 128;

/// An in-progress attack flow against one victim.
#[derive(Debug, Clone)]
pub struct Flow {
    /// The victim IP (flow key).
    pub victim: Ipv4Addr,
    /// Timestamp of the first packet.
    pub first: SimTime,
    /// Timestamp of the most recent packet.
    pub last: SimTime,
    /// Total backscatter packets.
    pub packets: u64,
    /// Total backscatter bytes.
    pub bytes: u64,
    /// Packets per attributed attack protocol, indexed by
    /// [`TransportProto::ALL`] order.
    pub proto_packets: [u64; 4],
    /// Distinct victim-side ports observed (exact up to the cap), kept
    /// sorted. A flow rarely sees more than a handful of ports, so a
    /// sorted vec beats a tree node walk on the per-packet path.
    ports: Vec<u16>,
    ports_saturated: bool,
    /// Distinct telescope-side addresses (the attack's spoofed sources
    /// that happened to fall in the darknet), exact up to the cap.
    sources: FastSet<u32>,
    sources_overflow: u32,
    /// Packet count in the current minute bucket.
    cur_minute: u64,
    cur_minute_count: u64,
    /// Highest per-minute packet count seen.
    max_minute_count: u64,
}

impl Flow {
    fn new(victim: Ipv4Addr, ts: SimTime) -> Flow {
        Flow {
            victim,
            first: ts,
            last: ts,
            packets: 0,
            bytes: 0,
            proto_packets: [0; 4],
            ports: Vec::new(),
            ports_saturated: false,
            sources: FastSet::with_capacity_and_hasher(
                SOURCES_INITIAL_CAPACITY,
                Default::default(),
            ),
            sources_overflow: 0,
            cur_minute: ts.minute(),
            cur_minute_count: 0,
            max_minute_count: 0,
        }
    }

    fn add(&mut self, b: &Backscatter, ts: SimTime, count: u32, bytes: u64) {
        debug_assert!(ts >= self.last, "flows must be fed in time order");
        self.last = self.last.max(ts);
        self.packets += count as u64;
        self.bytes += bytes;
        self.proto_packets[b.attack_proto.index()] += count as u64;
        if let Some(port) = b.victim_port {
            if let Err(at) = self.ports.binary_search(&port) {
                if self.ports.len() < MAX_TRACKED_PORTS {
                    self.ports.insert(at, port);
                } else {
                    self.ports_saturated = true;
                }
            }
        }
        let src = u32::from(b.spoofed_source);
        if self.sources.len() < MAX_TRACKED_SOURCES {
            self.sources.insert(src);
        } else if !self.sources.contains(&src) {
            self.sources_overflow = self.sources_overflow.saturating_add(1);
        }
        // Per-minute rate tracking.
        let minute = ts.minute();
        if minute != self.cur_minute {
            self.max_minute_count = self.max_minute_count.max(self.cur_minute_count);
            self.cur_minute = minute;
            self.cur_minute_count = 0;
        }
        self.cur_minute_count += count as u64;
    }

    /// Flow duration in seconds (last - first).
    pub fn duration_secs(&self) -> u64 {
        self.last.secs() - self.first.secs()
    }

    /// The maximum packets-per-second rate in any minute: the statistic
    /// the paper uses as attack intensity (and as the 0.5 pps filter).
    pub fn max_pps(&self) -> f64 {
        self.max_minute_count.max(self.cur_minute_count) as f64 / SECS_PER_MINUTE as f64
    }

    /// Number of distinct victim ports observed (saturating).
    pub fn distinct_ports(&self) -> u32 {
        self.ports.len() as u32 + u32::from(self.ports_saturated)
    }

    /// The single observed port, if exactly one.
    pub fn single_port(&self) -> Option<u16> {
        if self.distinct_ports() == 1 {
            self.ports.first().copied()
        } else {
            None
        }
    }

    /// Estimated number of distinct spoofed sources (saturating above the
    /// tracking cap).
    pub fn distinct_sources(&self) -> u32 {
        self.sources.len() as u32 + self.sources_overflow
    }

    /// The dominant attributed attack protocol by packet count.
    pub fn dominant_proto(&self) -> TransportProto {
        let (idx, _) = self
            .proto_packets
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .expect("array non-empty");
        TransportProto::ALL[idx]
    }
}

impl LastActive for Flow {
    fn last_active(&self) -> SimTime {
        self.last
    }
}

/// The victim-keyed flow table with inactivity expiry: an [`IdleMap`]
/// with wheel buckets of at most a minute, so an interval boundary costs
/// O(expired + revisited) flows, never O(live flows).
#[derive(Debug)]
pub struct FlowTable {
    flows: IdleMap<Ipv4Addr, Flow>,
}

impl FlowTable {
    /// A table with the given inactivity timeout (the paper uses 300 s).
    pub fn new(timeout_secs: u64) -> FlowTable {
        FlowTable {
            flows: IdleMap::new(timeout_secs, SECS_PER_MINUTE),
        }
    }

    /// Number of live flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no flows are live.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Feed one classified backscatter batch. If the victim's previous
    /// flow had already expired relative to `ts`, it is finalized and
    /// returned while a fresh flow starts.
    pub fn offer(
        &mut self,
        b: &Backscatter,
        ts: SimTime,
        count: u32,
        bytes: u64,
    ) -> Option<Flow> {
        let mut expired = None;
        let timeout = self.flows.timeout_secs();
        let flow = self
            .flows
            .get_or_insert_with(b.victim, || Flow::new(b.victim, ts));
        if ts.secs() > flow.last.secs() + timeout {
            expired = Some(std::mem::replace(flow, Flow::new(b.victim, ts)));
        }
        flow.add(b, ts, count, bytes);
        expired
    }

    /// Expire and return every flow idle at `now` (last activity more than
    /// the timeout ago), sorted by victim.
    pub fn sweep(&mut self, now: SimTime) -> Vec<Flow> {
        let mut out = self.flows.sweep(now);
        out.sort_by_key(|f| f.victim);
        out
    }

    /// [`FlowTable::sweep`] when `now` opens a later minute than the last
    /// sweep did ([`IdleMap::expire`]), nothing otherwise: Corsaro's
    /// interval end, driven by the capture's own timestamps.
    pub fn expire(&mut self, now: SimTime) -> Vec<Flow> {
        let mut out = self.flows.expire(now);
        out.sort_by_key(|f| f.victim);
        out
    }

    /// The full-table sweep, kept as the tests' reference implementation:
    /// checks every live flow. `sweep` returns exactly the same flow set,
    /// in the same victim order.
    #[cfg(test)]
    fn sweep_scan(&mut self, now: SimTime) -> Vec<Flow> {
        let timeout = self.flows.timeout_secs();
        let (mut out, live): (Vec<Flow>, Vec<Flow>) = self
            .flows
            .drain()
            .partition(|f| now.secs() > f.last.secs() + timeout);
        for f in live {
            self.flows.get_or_insert_with(f.victim, || f);
        }
        out.sort_by_key(|f| f.victim);
        out
    }

    /// Finalize and return all remaining flows (end of trace), sorted by
    /// victim.
    pub fn drain(&mut self) -> Vec<Flow> {
        let mut out: Vec<Flow> = self.flows.drain().collect();
        out.sort_by_key(|f| f.victim);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bs(victim: &str, port: Option<u16>, spoofed: &str) -> Backscatter {
        Backscatter {
            victim: victim.parse().unwrap(),
            spoofed_source: spoofed.parse().unwrap(),
            attack_proto: TransportProto::Tcp,
            victim_port: port,
        }
    }

    #[test]
    fn flow_accumulates() {
        let mut t = FlowTable::new(300);
        let b = bs("203.0.113.1", Some(80), "44.0.0.1");
        assert!(t.offer(&b, SimTime(10), 5, 200).is_none());
        assert!(t.offer(&b, SimTime(40), 5, 200).is_none());
        assert_eq!(t.len(), 1);
        let flows = t.drain();
        assert_eq!(flows[0].packets, 10);
        assert_eq!(flows[0].bytes, 400);
        assert_eq!(flows[0].duration_secs(), 30);
        assert_eq!(flows[0].distinct_ports(), 1);
        assert_eq!(flows[0].single_port(), Some(80));
    }

    #[test]
    fn timeout_splits_flows() {
        let mut t = FlowTable::new(300);
        let b = bs("203.0.113.1", Some(80), "44.0.0.1");
        assert!(t.offer(&b, SimTime(0), 1, 40).is_none());
        // 301 seconds of silence: the next packet starts a new flow.
        let old = t.offer(&b, SimTime(302), 1, 40).expect("old flow expires");
        assert_eq!(old.packets, 1);
        assert_eq!(t.len(), 1);
        let new = t.drain().pop().unwrap();
        assert_eq!(new.first, SimTime(302));
    }

    #[test]
    fn boundary_exactly_timeout_keeps_flow() {
        let mut t = FlowTable::new(300);
        let b = bs("203.0.113.1", Some(80), "44.0.0.1");
        t.offer(&b, SimTime(0), 1, 40);
        // Exactly 300 s later is still within the flow (> is required).
        assert!(t.offer(&b, SimTime(300), 1, 40).is_none());
        assert_eq!(t.drain()[0].packets, 2);
    }

    #[test]
    fn sweep_expires_idle_flows() {
        let mut t = FlowTable::new(300);
        t.offer(&bs("203.0.113.1", Some(80), "44.0.0.1"), SimTime(0), 1, 40);
        t.offer(&bs("203.0.113.2", Some(80), "44.0.0.2"), SimTime(290), 1, 40);
        let expired = t.sweep(SimTime(301));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].victim, "203.0.113.1".parse::<Ipv4Addr>().unwrap());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn max_pps_per_minute() {
        let mut t = FlowTable::new(300);
        let b = bs("203.0.113.1", Some(80), "44.0.0.1");
        // Minute 0: 120 packets => 2 pps; minute 1: 60 packets => 1 pps.
        t.offer(&b, SimTime(10), 120, 4800);
        t.offer(&b, SimTime(70), 60, 2400);
        let f = t.drain().pop().unwrap();
        assert!((f.max_pps() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn max_pps_single_bucket_in_progress() {
        let mut t = FlowTable::new(300);
        let b = bs("203.0.113.1", Some(80), "44.0.0.1");
        t.offer(&b, SimTime(10), 30, 1200);
        let f = t.drain().pop().unwrap();
        assert!((f.max_pps() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn distinct_ports_and_sources() {
        let mut t = FlowTable::new(300);
        for (i, port) in [80u16, 443, 80, 8080].iter().enumerate() {
            let b = bs("203.0.113.1", Some(*port), &format!("44.0.0.{}", i + 1));
            t.offer(&b, SimTime(i as u64), 1, 40);
        }
        let f = t.drain().pop().unwrap();
        assert_eq!(f.distinct_ports(), 3);
        assert_eq!(f.single_port(), None);
        assert_eq!(f.distinct_sources(), 4);
    }

    #[test]
    fn dominant_proto() {
        let mut t = FlowTable::new(300);
        let mut b = bs("203.0.113.1", Some(80), "44.0.0.1");
        t.offer(&b, SimTime(0), 10, 400);
        b.attack_proto = TransportProto::Udp;
        t.offer(&b, SimTime(1), 3, 120);
        let f = t.drain().pop().unwrap();
        assert_eq!(f.dominant_proto(), TransportProto::Tcp);
    }

    /// Satellite: drain/sweep output order is canonical (sorted by
    /// victim), never hash-map iteration order, regardless of hasher.
    #[test]
    fn drain_and_sweep_order_is_sorted_by_victim() {
        let mut t = FlowTable::new(300);
        // Insert in a scrambled order.
        for last_octet in [9u8, 1, 200, 73, 42, 128, 3] {
            let v = format!("203.0.113.{last_octet}");
            t.offer(&bs(&v, Some(80), "44.0.0.1"), SimTime(0), 1, 40);
        }
        let drained = t.drain();
        let victims: Vec<Ipv4Addr> = drained.iter().map(|f| f.victim).collect();
        let mut sorted = victims.clone();
        sorted.sort();
        assert_eq!(victims, sorted, "drain output must be victim-sorted");

        let mut t = FlowTable::new(300);
        for last_octet in [9u8, 1, 200, 73, 42, 128, 3] {
            let v = format!("203.0.113.{last_octet}");
            t.offer(&bs(&v, Some(80), "44.0.0.1"), SimTime(0), 1, 40);
        }
        let swept = t.sweep(SimTime(1000));
        assert_eq!(swept.len(), 7);
        let victims: Vec<Ipv4Addr> = swept.iter().map(|f| f.victim).collect();
        let mut sorted = victims.clone();
        sorted.sort();
        assert_eq!(victims, sorted, "sweep output must be victim-sorted");
    }

    /// The bucketed sweep matches the reference full-scan sweep exactly,
    /// including flows whose activity moved past their wheel bucket.
    #[test]
    fn bucketed_sweep_matches_scan_sweep() {
        let mut a = FlowTable::new(300);
        let mut b = FlowTable::new(300);
        let feed = |t: &mut FlowTable| {
            t.offer(&bs("203.0.113.1", Some(80), "44.0.0.1"), SimTime(0), 1, 40);
            t.offer(&bs("203.0.113.2", Some(80), "44.0.0.2"), SimTime(30), 1, 40);
            // Victim 1 stays active (moves wheel buckets), victim 2 idles.
            t.offer(&bs("203.0.113.1", Some(80), "44.0.0.1"), SimTime(250), 1, 40);
        };
        feed(&mut a);
        feed(&mut b);
        for now in [100u64, 331, 400, 551, 552, 900] {
            let x: Vec<Ipv4Addr> = a.sweep(SimTime(now)).iter().map(|f| f.victim).collect();
            let y: Vec<Ipv4Addr> = b.sweep_scan(SimTime(now)).iter().map(|f| f.victim).collect();
            assert_eq!(x, y, "sweep at t={now}");
        }
        assert_eq!(a.len(), b.len());
    }

    /// A flow found live when its bucket is visited is re-filed under its
    /// exact activity bucket, so it still expires when the scan expires it.
    /// Timeout 100 (so 60 s buckets), packets at 0 and 58: live at 157
    /// (157 <= 58 + 100) and re-filed, expired at 159.
    #[test]
    fn refiled_flow_expires_with_the_scan() {
        let mut wheel = FlowTable::new(100);
        let mut scan = FlowTable::new(100);
        let b = bs("203.0.113.1", Some(80), "44.0.0.1");
        for t in [0u64, 58] {
            wheel.offer(&b, SimTime(t), 1, 40);
            scan.offer(&b, SimTime(t), 1, 40);
        }
        for (now, expired) in [(157u64, 0usize), (159, 1)] {
            let w = summaries(&wheel.sweep(SimTime(now)));
            let s = summaries(&scan.sweep_scan(SimTime(now)));
            assert_eq!(w, s, "sweep at t={now} diverged");
            assert_eq!(w.len(), expired, "sweep at t={now}");
            assert_eq!(wheel.len(), scan.len(), "live flows after t={now}");
        }
    }

    #[test]
    fn sweep_after_flow_replacement_ignores_stale_entries() {
        let mut t = FlowTable::new(300);
        let b = bs("203.0.113.1", Some(80), "44.0.0.1");
        t.offer(&b, SimTime(0), 1, 40);
        // Replacement in offer keeps the victim filed under the old flow's
        // wheel bucket.
        let old = t.offer(&b, SimTime(400), 1, 40);
        assert!(old.is_some());
        // Sweeping past the old bucket must not expire the fresh flow.
        assert!(t.sweep(SimTime(420)).is_empty());
        assert_eq!(t.len(), 1);
        // And the fresh flow still expires on schedule.
        assert_eq!(t.sweep(SimTime(701)).len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn flows_keyed_by_victim() {
        let mut t = FlowTable::new(300);
        t.offer(&bs("203.0.113.1", Some(80), "44.0.0.1"), SimTime(0), 1, 40);
        t.offer(&bs("203.0.113.2", Some(80), "44.0.0.1"), SimTime(0), 1, 40);
        assert_eq!(t.len(), 2);
    }

    /// Everything a swept flow exposes, through its public fields and
    /// accessors.
    fn summary(f: &Flow) -> impl PartialEq + std::fmt::Debug {
        (
            (f.victim, f.first, f.last),
            (f.packets, f.bytes, f.proto_packets),
            (f.duration_secs(), f.max_pps()),
            (f.distinct_ports(), f.single_port(), f.distinct_sources()),
            f.dominant_proto(),
        )
    }

    fn summaries(flows: &[Flow]) -> Vec<impl PartialEq + std::fmt::Debug> {
        flows.iter().map(summary).collect()
    }

    /// An arbitrary attack script: (victim octet, start, duration, pps, port).
    fn arb_attack() -> impl Strategy<Value = (u8, u64, u64, u32, u16)> {
        (1u8..40, 0u64..50_000, 30u64..2_000, 1u32..20, 1u16..1024)
    }

    /// The scripts as time-ordered one-second SYN/ACK backscatter batches
    /// of 40-byte packets: (time, facts, packet count, bytes).
    fn render(attacks: &[(u8, u64, u64, u32, u16)]) -> Vec<(SimTime, Backscatter, u32, u64)> {
        let mut batches = Vec::new();
        for &(v, start, dur, pps, port) in attacks {
            for s in 0..dur {
                let b = Backscatter {
                    victim: Ipv4Addr::new(203, 0, 113, v),
                    spoofed_source: Ipv4Addr::new(44, (s % 250) as u8, ((s / 250) % 250) as u8, 1),
                    attack_proto: TransportProto::Tcp,
                    victim_port: Some(port),
                };
                batches.push((SimTime(start + s), b, pps, 40 * pps as u64));
            }
        }
        batches.sort_by_key(|b| b.0);
        batches
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bucketed time-wheel sweep finalizes exactly the flows the
        /// full-table scan does, field for field, for arbitrary batch
        /// timelines, timeouts and mid-stream sweep schedules. Each case
        /// also runs with the jitter cut below the timeout, where sweeps
        /// find live flows in visited buckets and re-file them.
        #[test]
        fn bucketed_sweep_matches_full_scan(
            attacks in proptest::collection::vec(arb_attack(), 1..6),
            timeout in 1u64..400,
            sweep_every in 1usize..24,
            jitter in 0u64..3_000,
        ) {
            let batches = render(&attacks);
            for jitter in [jitter, jitter % timeout] {
                let mut wheel = FlowTable::new(timeout);
                let mut scan = FlowTable::new(timeout);
                for (i, (ts, b, count, bytes)) in batches.iter().enumerate() {
                    let w = wheel.offer(b, *ts, *count, *bytes);
                    let s = scan.offer(b, *ts, *count, *bytes);
                    prop_assert_eq!(w.as_ref().map(summary), s.as_ref().map(summary));
                    if i % sweep_every == sweep_every - 1 {
                        let now = SimTime(ts.secs() + jitter);
                        prop_assert_eq!(
                            summaries(&wheel.sweep(now)),
                            summaries(&scan.sweep_scan(now)),
                            "sweep at t={}", now.secs()
                        );
                        prop_assert_eq!(wheel.len(), scan.len());
                    }
                }
                prop_assert_eq!(wheel.len(), scan.len());
                prop_assert_eq!(summaries(&wheel.drain()), summaries(&scan.drain()));
                prop_assert!(wheel.is_empty() && scan.is_empty());
            }
        }
    }
}
