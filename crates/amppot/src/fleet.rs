//! The honeypot fleet: request ingestion, per-honeypot event inference and
//! the fleet-level merge that produces one attack event per victim,
//! protocol and time window.

use crate::event::{HoneypotDay, PotEvent, RequestBatch};
use crate::honeypot::{standard_fleet, Honeypot, HoneypotId};
use dosscope_types::{
    AttackEvent, AttackVector, CaptureRow, FastMap, IdleMap, ReflectionProtocol, SimTime,
    TimeRange, SECS_PER_HOUR,
};
use dosscope_wire::{reflect, IpProtocol, Ipv4Packet, UdpDatagram};
use std::net::Ipv4Addr;

/// Key of an open per-honeypot event.
type OpenKey = (Ipv4Addr, ReflectionProtocol, HoneypotId);

/// The outcome of parsing and classifying one representative packet.
/// Identical bytes always produce the identical outcome, so a day's rows
/// that name one representative share one classification.
#[derive(Debug, Clone, Copy)]
enum Classified {
    /// Failed IPv4/UDP parsing.
    Malformed,
    /// Parsed but not a recognisable abuse request.
    Unrecognised,
    /// An abuse request: spoofed victim source and emulated protocol.
    Request(Ipv4Addr, ReflectionProtocol),
}

/// Parse and classify one representative packet.
fn classify_bytes(bytes: &[u8]) -> Classified {
    let Ok(ip) = Ipv4Packet::new_checked(bytes) else {
        return Classified::Malformed;
    };
    if ip.protocol() != IpProtocol::Udp {
        return Classified::Unrecognised;
    }
    let Ok(udp) = UdpDatagram::new_checked(ip.payload()) else {
        return Classified::Malformed;
    };
    let Some(protocol) = reflect::classify_request(udp.dst_port(), udp.payload()) else {
        return Classified::Unrecognised;
    };
    Classified::Request(ip.src(), protocol)
}

/// Fleet parameters; defaults follow the paper and the AmpPot design.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Idle gap that closes a per-honeypot event (one hour).
    pub idle_timeout_secs: u64,
    /// Hard cap on a single event's duration (24 h; the paper notes only
    /// ~0.02 % of events hit it).
    pub max_event_secs: u64,
    /// Minimum requests for an event to count as an attack rather than a
    /// scan (the paper: "we only consider events exceeding 100 requests").
    pub min_requests: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            idle_timeout_secs: 3_600,
            max_event_secs: 86_400,
            min_requests: 100,
        }
    }
}

/// Ingestion statistics. The sharded engine sums them over shards and
/// publishes them as the `fleet.*` telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Batches that failed packet parsing.
    pub malformed: u64,
    /// Batches that were valid packets but not recognisable abuse requests.
    pub unrecognised: u64,
    /// Total requests accepted (batch counts expanded).
    pub requests: u64,
    /// Replies the fleet would have sent, one per answered request
    /// (rate-limited; see [`Honeypot::replies`]).
    pub replies_sent: u64,
    /// Per-honeypot events closed.
    pub pot_events: u64,
    /// Per-honeypot events closed by the 24 h duration cap rather than
    /// by an idle gap.
    pub capped: u64,
    /// Per-honeypot events absorbed into an earlier one by the fleet
    /// merge; every other per-honeypot event starts a merged event.
    pub pot_merged: u64,
    /// Merged events dropped by the scan filter (≤ min_requests).
    pub scan_filtered: u64,
    /// Fleet-level attack events emitted. `pot_events = events +
    /// scan_filtered + pot_merged`.
    pub events: u64,
}

impl std::ops::AddAssign for FleetStats {
    fn add_assign(&mut self, other: FleetStats) {
        self.malformed += other.malformed;
        self.unrecognised += other.unrecognised;
        self.requests += other.requests;
        self.replies_sent += other.replies_sent;
        self.pot_events += other.pot_events;
        self.capped += other.capped;
        self.pot_merged += other.pot_merged;
        self.scan_filtered += other.scan_filtered;
        self.events += other.events;
    }
}

/// The fleet: 24 honeypots plus event-inference state.
pub struct AmpPotFleet {
    config: FleetConfig,
    honeypots: Vec<Honeypot>,
    /// Open per-(victim, protocol, honeypot) events, with wheel buckets of
    /// at most an hour: idle events close once an hour.
    open: IdleMap<OpenKey, PotEvent>,
    /// The current day's classification per representative, filled on
    /// first use. One buffer for the fleet's life: a fresh one per day
    /// cost peak RSS at two shards (worker-thread allocator churn).
    day_classes: Vec<Option<Classified>>,
    closed: Vec<PotEvent>,
    stats: FleetStats,
}

impl AmpPotFleet {
    /// The standard 24-instance fleet with default parameters.
    pub fn standard() -> AmpPotFleet {
        AmpPotFleet::new(standard_fleet(), FleetConfig::default())
    }

    /// A fleet from explicit instances and parameters.
    pub fn new(honeypots: Vec<Honeypot>, config: FleetConfig) -> AmpPotFleet {
        AmpPotFleet {
            config,
            honeypots,
            open: IdleMap::new(config.idle_timeout_secs, SECS_PER_HOUR),
            day_classes: Vec::new(),
            closed: Vec::new(),
            stats: FleetStats::default(),
        }
    }

    /// The fleet's instances.
    pub fn honeypots(&self) -> &[Honeypot] {
        &self.honeypots
    }

    /// Ingestion statistics so far.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// Ingest one request batch (time-ordered), parsing and classifying
    /// its bytes.
    pub fn ingest(&mut self, batch: &RequestBatch) {
        let classified = classify_bytes(&batch.bytes);
        self.ingest_classified(batch.honeypot, batch.ts, batch.count, batch.bytes.len(), classified);
    }

    /// Ingest the rows of a day (time-ordered), classifying each
    /// representative once, on the first row that names it.
    pub fn ingest_day<'a>(
        &mut self,
        day: &'a HoneypotDay,
        rows: impl IntoIterator<Item = &'a CaptureRow<HoneypotId>>,
    ) {
        let mut classes = std::mem::take(&mut self.day_classes);
        classes.clear();
        classes.resize(day.packets(), None);
        for row in rows {
            let packet = day.packet(row.packet);
            let classified =
                *classes[row.packet as usize].get_or_insert_with(|| classify_bytes(packet));
            self.ingest_classified(row.tag, row.ts, row.count, packet.len(), classified);
        }
        self.day_classes = classes;
    }

    /// Ingest `count` requests of `len` bytes each, classified as
    /// `classified`, received by `honeypot` at `ts`.
    fn ingest_classified(
        &mut self,
        honeypot: HoneypotId,
        ts: SimTime,
        count: u32,
        len: usize,
        classified: Classified,
    ) {
        // Every row moves the expiry clock, recognised or not.
        let idle = self.open.expire(ts);
        self.stats.pot_events += idle.len() as u64;
        self.closed.extend(idle);
        let (victim, protocol) = match classified {
            Classified::Malformed => {
                self.stats.malformed += 1;
                return;
            }
            Classified::Unrecognised => {
                self.stats.unrecognised += 1;
                return;
            }
            // The spoofed source IS the victim.
            Classified::Request(victim, protocol) => (victim, protocol),
        };
        self.stats.requests += count as u64;

        // Reply rate limiting: at most the first few requests per source
        // and minute would be answered; everything is logged either way.
        if let Some(pot) = self.honeypots.get_mut(honeypot.0 as usize) {
            self.stats.replies_sent += pot.replies(victim, ts.minute(), count as u64);
        }

        let key = (victim, protocol, honeypot);
        let config = self.config;
        let entry = self
            .open
            .get_or_insert_with(key, || PotEvent::new(victim, protocol, honeypot, ts));
        // Close on idle gap or on the 24 h duration cap.
        let idle = ts.secs() > entry.last.secs() + config.idle_timeout_secs;
        let capped = ts.secs() - entry.first.secs() >= config.max_event_secs;
        if idle || capped {
            let finished =
                std::mem::replace(entry, PotEvent::new(victim, protocol, honeypot, ts));
            self.stats.pot_events += 1;
            // A gap closes an event whatever its length; only a live
            // event is cut by the cap.
            self.stats.capped += u64::from(!idle);
            self.closed.push(finished);
        }
        entry.last = entry.last.max(ts);
        entry.requests += count as u64;
        entry.bytes += count as u64 * len as u64;
    }

    /// Number of currently open per-honeypot events (bench telemetry).
    pub fn open_events(&self) -> usize {
        self.open.len()
    }

    /// End of trace: close all open events, merge per-honeypot views into
    /// fleet events, filter scans and return attack events sorted by start
    /// time.
    pub fn finish(mut self) -> (Vec<AttackEvent>, FleetStats) {
        self.stats.pot_events += self.open.len() as u64;
        self.closed.extend(self.open.drain());

        // Group per (victim, protocol).
        let mut groups: FastMap<(Ipv4Addr, ReflectionProtocol), Vec<PotEvent>> =
            FastMap::default();
        for e in self.closed.drain(..) {
            groups.entry((e.victim, e.protocol)).or_default().push(e);
        }

        let mut events = Vec::new();
        for ((victim, protocol), mut pots) in groups {
            // (first, honeypot) is a total order within a group — one
            // honeypot's events for a key never share a start second — so
            // the merge below is independent of close order (ingest's
            // inline close, the hourly idle sweep, or the final drain).
            pots.sort_by_key(|e| (e.first, e.honeypot));
            // Merge per-honeypot intervals whose gaps are within the idle
            // timeout: they are views of the same attack from different
            // reflectors.
            let mut iter = pots.into_iter();
            let first = iter.next().expect("group non-empty");
            let mut cur = MergedEvent::from(first);
            for e in iter {
                let within_gap =
                    e.first.secs() <= cur.last.secs() + self.config.idle_timeout_secs;
                // Absorbing must not stretch the merged event past the
                // 24 h cap, otherwise the per-honeypot cap would be undone
                // here.
                let within_cap =
                    e.last.secs().max(cur.last.secs()) - cur.first.secs()
                        < self.config.max_event_secs;
                if within_gap && within_cap {
                    cur.absorb(e);
                    self.stats.pot_merged += 1;
                } else {
                    self.emit(&mut events, victim, protocol, cur);
                    cur = MergedEvent::from(e);
                }
            }
            self.emit(&mut events, victim, protocol, cur);
        }
        // Include the protocol in the key: two same-victim events can
        // share a start second, and the groups were drained from a
        // HashMap whose order is not deterministic.
        events.sort_by_key(|e| (e.when.start, e.target, e.reflection_protocol()));
        (events, self.stats)
    }

    fn emit(
        &mut self,
        out: &mut Vec<AttackEvent>,
        victim: Ipv4Addr,
        protocol: ReflectionProtocol,
        merged: MergedEvent,
    ) {
        if merged.requests <= self.config.min_requests {
            self.stats.scan_filtered += 1;
            return;
        }
        let duration = (merged.last.secs() - merged.first.secs()).max(1);
        out.push(AttackEvent {
            target: victim,
            when: TimeRange::new(merged.first, merged.last),
            vector: AttackVector::Reflection { protocol },
            packets: merged.requests,
            bytes: merged.bytes,
            // The paper's honeypot intensity metric: average requests per
            // second over the event.
            intensity_pps: merged.requests as f64 / duration as f64,
            distinct_sources: merged.honeypots,
        });
        self.stats.events += 1;
    }
}

/// Accumulator for the fleet-level merge.
struct MergedEvent {
    first: SimTime,
    last: SimTime,
    requests: u64,
    bytes: u64,
    honeypots: u32,
}

impl From<PotEvent> for MergedEvent {
    fn from(e: PotEvent) -> MergedEvent {
        MergedEvent {
            first: e.first,
            last: e.last,
            requests: e.requests,
            bytes: e.bytes,
            honeypots: 1,
        }
    }
}

impl MergedEvent {
    fn absorb(&mut self, e: PotEvent) {
        self.first = self.first.min(e.first);
        self.last = self.last.max(e.last);
        self.requests += e.requests;
        self.bytes += e.bytes;
        self.honeypots += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosscope_types::SharedBytes;
    use dosscope_wire::builder;

    fn victim() -> Ipv4Addr {
        "203.0.113.9".parse().unwrap()
    }

    fn fleet() -> AmpPotFleet {
        AmpPotFleet::standard()
    }

    /// Send `rate` requests/second for `secs` seconds to `n_pots` honeypots.
    fn feed(
        f: &mut AmpPotFleet,
        victim: Ipv4Addr,
        protocol: ReflectionProtocol,
        start: u64,
        secs: u64,
        rate: u32,
        n_pots: u8,
    ) {
        for s in 0..secs {
            for p in 0..n_pots {
                let pot_addr = f.honeypots()[p as usize].addr;
                let pkt = builder::reflection_request(victim, 40000 + p as u16, pot_addr, protocol);
                f.ingest(&RequestBatch::repeated(
                    HoneypotId(p),
                    SimTime(start + s),
                    rate,
                    pkt,
                ));
            }
        }
    }

    #[test]
    fn detects_ntp_attack() {
        let mut f = fleet();
        feed(&mut f, victim(), ReflectionProtocol::Ntp, 100, 300, 2, 6);
        let (events, stats) = f.finish();
        assert_eq!(events.len(), 1, "six per-pot views merge into one event");
        let e = &events[0];
        assert_eq!(e.target, victim());
        assert_eq!(e.reflection_protocol(), Some(ReflectionProtocol::Ntp));
        assert_eq!(e.packets, 300 * 2 * 6);
        assert_eq!(e.duration_secs(), 299);
        assert_eq!(e.distinct_sources, 6, "honeypots involved");
        assert!((e.intensity_pps - 3600.0 / 299.0).abs() < 1e-9);
        assert_eq!(stats.events, 1);
    }

    #[test]
    fn scan_filtered_out() {
        let mut f = fleet();
        // A scanner probing each honeypot a few times: well under 100
        // requests per (victim, protocol).
        let scanner: Ipv4Addr = "198.51.100.77".parse().unwrap();
        for p in 0..24u8 {
            let pot_addr = f.honeypots()[p as usize].addr;
            let pkt =
                builder::reflection_request(scanner, 9999, pot_addr, ReflectionProtocol::Dns);
            f.ingest(&RequestBatch::repeated(HoneypotId(p), SimTime(p as u64), 2, pkt));
        }
        let (events, stats) = f.finish();
        assert!(events.is_empty());
        assert!(stats.scan_filtered >= 1);
    }

    #[test]
    fn exactly_100_requests_is_still_a_scan() {
        let mut f = fleet();
        feed(&mut f, victim(), ReflectionProtocol::Dns, 0, 100, 1, 1);
        let (events, _) = f.finish();
        assert!(events.is_empty(), "paper requires events *exceeding* 100");
    }

    #[test]
    fn just_over_100_requests_is_an_attack() {
        let mut f = fleet();
        feed(&mut f, victim(), ReflectionProtocol::Dns, 0, 101, 1, 1);
        let (events, _) = f.finish();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn idle_gap_splits_events() {
        let mut f = fleet();
        feed(&mut f, victim(), ReflectionProtocol::CharGen, 0, 200, 1, 2);
        // Resume 2 h later: a separate attack.
        feed(&mut f, victim(), ReflectionProtocol::CharGen, 200 + 7200, 200, 1, 2);
        let (events, _) = f.finish();
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn duration_cap_splits_events() {
        let mut f = fleet();
        let cfg = FleetConfig {
            min_requests: 10,
            ..FleetConfig::default()
        };
        let mut f2 = AmpPotFleet::new(std::mem::take(&mut f.honeypots), cfg);
        // One request every 30 minutes for 30 hours: never idle-gapped,
        // but the 24 h cap must split it.
        let mut ts = 0u64;
        while ts < 30 * 3600 {
            let pot_addr = f2.honeypots()[0].addr;
            let pkt =
                builder::reflection_request(victim(), 40000, pot_addr, ReflectionProtocol::Ssdp);
            f2.ingest(&RequestBatch::repeated(HoneypotId(0), SimTime(ts), 1, pkt));
            ts += 1800;
        }
        let (events, _) = f2.finish();
        assert_eq!(events.len(), 2, "24 h cap splits the marathon event");
        assert!(events.iter().all(|e| e.duration_secs() <= 86_400));
    }

    /// Every per-honeypot event is merged into another, scan-filtered or
    /// emitted; the cap count names the event the 24 h cap cut.
    #[test]
    fn funnel_counts_one_merge_and_one_cap() {
        let mut f = fleet();
        // Two honeypots see one NTP flood: two views, one merge.
        feed(&mut f, victim(), ReflectionProtocol::Ntp, 0, 150, 1, 2);
        // A scanner's two requests: one view, scan-filtered.
        let scanner: Ipv4Addr = "198.51.100.77".parse().unwrap();
        feed(&mut f, scanner, ReflectionProtocol::Dns, 200, 1, 2, 1);
        // Ten requests every 30 minutes for 30 hours on one honeypot:
        // never idle, so the cap cuts it once; the merge must not rejoin
        // the two halves.
        let marathon: Ipv4Addr = "198.51.100.200".parse().unwrap();
        let pot_addr = f.honeypots()[0].addr;
        let pkt = builder::reflection_request(marathon, 40000, pot_addr, ReflectionProtocol::Ssdp);
        for k in 0..60u64 {
            f.ingest(&RequestBatch::repeated(
                HoneypotId(0),
                SimTime(300 + k * 1800),
                10,
                pkt.clone(),
            ));
        }
        let (events, stats) = f.finish();
        assert_eq!(events.len(), 3);
        assert_eq!(
            (stats.pot_events, stats.capped, stats.pot_merged, stats.scan_filtered),
            (5, 1, 1, 1)
        );
        assert_eq!(stats.pot_events, stats.events + stats.scan_filtered + stats.pot_merged);
    }

    #[test]
    fn protocols_tracked_separately() {
        let mut f = fleet();
        feed(&mut f, victim(), ReflectionProtocol::Ntp, 0, 150, 1, 2);
        feed(&mut f, victim(), ReflectionProtocol::Dns, 0, 150, 1, 2);
        let (events, _) = f.finish();
        assert_eq!(events.len(), 2, "joint NTP+DNS yields two protocol events");
        let protos: Vec<_> = events
            .iter()
            .filter_map(|e| e.reflection_protocol())
            .collect();
        assert!(protos.contains(&ReflectionProtocol::Ntp));
        assert!(protos.contains(&ReflectionProtocol::Dns));
    }

    #[test]
    fn victims_tracked_separately() {
        let mut f = fleet();
        let v2: Ipv4Addr = "198.51.100.200".parse().unwrap();
        feed(&mut f, victim(), ReflectionProtocol::Ntp, 0, 150, 1, 2);
        feed(&mut f, v2, ReflectionProtocol::Ntp, 0, 150, 1, 2);
        let (events, _) = f.finish();
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn malformed_and_unrecognised_counted() {
        let mut f = fleet();
        f.ingest(&RequestBatch::repeated(
            HoneypotId(0),
            SimTime(0),
            1,
            vec![0xAB; 6],
        ));
        // A TCP packet is not a reflection request.
        let tcp = builder::tcp_syn_ack(victim(), 80, f.honeypots()[0].addr, 1, 1);
        f.ingest(&RequestBatch::repeated(HoneypotId(0), SimTime(1), 1, tcp));
        // A UDP packet to a non-emulated port.
        let odd = {
            let mut pkt =
                builder::reflection_request(victim(), 1, f.honeypots()[0].addr, ReflectionProtocol::Dns);
            // Rewrite destination port to something unemulated and fix
            // checksums so only the classification fails.
            let mut ip = Ipv4Packet::new_unchecked(&mut pkt[..]);
            let (src, dst) = (ip.src(), ip.dst());
            let mut udp = UdpDatagram::new_unchecked(ip.payload_mut());
            udp.set_dst_port(4444);
            udp.fill_checksum(src, dst);
            ip.fill_checksum();
            pkt
        };
        f.ingest(&RequestBatch::repeated(HoneypotId(0), SimTime(2), 1, odd));
        let stats = f.stats();
        assert_eq!(stats.malformed, 1);
        assert_eq!(stats.unrecognised, 2);
        assert_eq!(stats.requests, 0);
    }

    #[test]
    fn reply_rate_limit_counted() {
        let mut f = fleet();
        feed(&mut f, victim(), ReflectionProtocol::Ntp, 0, 120, 5, 1);
        let stats = f.stats();
        // 120 five-request batches in 2 minutes to one pot from one
        // source: the first 2 requests of each minute are answered.
        assert_eq!(stats.replies_sent, 4);
        assert_eq!(stats.requests, 600);
    }

    /// Classification is by contents: batches sharing one allocation and
    /// batches with freshly-allocated identical bytes produce the same
    /// events and statistics.
    #[test]
    fn shared_representative_parsed_once_same_results() {
        let mut shared = fleet();
        let mut fresh = fleet();
        let pot_addr = shared.honeypots()[0].addr;
        let pkt =
            builder::reflection_request(victim(), 40_000, pot_addr, ReflectionProtocol::Ntp);
        let rep = SharedBytes::from(pkt.clone());
        for s in 0..200u64 {
            shared.ingest(&RequestBatch::repeated(HoneypotId(0), SimTime(s), 2, rep.clone()));
            fresh.ingest(&RequestBatch::repeated(HoneypotId(0), SimTime(s), 2, pkt.clone()));
        }
        // Malformed bytes too.
        let junk = SharedBytes::from(vec![0xAB_u8; 6]);
        for s in 200..203u64 {
            shared.ingest(&RequestBatch::repeated(HoneypotId(0), SimTime(s), 1, junk.clone()));
            fresh.ingest(&RequestBatch::repeated(HoneypotId(0), SimTime(s), 1, vec![0xAB_u8; 6]));
        }
        let ss = shared.stats();
        let sf = fresh.stats();
        assert_eq!(ss.requests, sf.requests);
        assert_eq!(ss.replies_sent, sf.replies_sent);
        assert_eq!(ss.malformed, sf.malformed);
        let (es, _) = shared.finish();
        let (ef, _) = fresh.finish();
        assert_eq!(es, ef);
    }

    /// Two views of one buffer with the same start and different lengths
    /// hold different bytes, and each is classified on its own.
    #[test]
    fn views_sharing_a_start_are_classified_separately() {
        let mut f = fleet();
        let pot_addr = f.honeypots()[0].addr;
        let pkt =
            builder::reflection_request(victim(), 40_000, pot_addr, ReflectionProtocol::Ntp);
        let whole = SharedBytes::from(pkt);
        let truncated = whole.slice(0..10);
        assert_eq!(whole.as_slice().as_ptr(), truncated.as_slice().as_ptr());
        f.ingest(&RequestBatch::repeated(HoneypotId(0), SimTime(0), 3, whole.clone()));
        f.ingest(&RequestBatch::repeated(HoneypotId(0), SimTime(1), 1, truncated.clone()));
        f.ingest(&RequestBatch::repeated(HoneypotId(0), SimTime(2), 3, whole));
        f.ingest(&RequestBatch::repeated(HoneypotId(0), SimTime(3), 1, truncated));
        let stats = f.stats();
        assert_eq!(stats.requests, 6, "only the whole packet is a request");
        assert_eq!(stats.malformed, 2, "the truncated view is malformed both times");
    }

    /// A day whose rows share representatives (and hold a malformed and
    /// an unrecognised one) ingests like the same rows one batch at a
    /// time.
    #[test]
    fn day_rows_match_per_batch_ingestion() {
        let mut day = HoneypotDay::default();
        let pots: Vec<_> = fleet().honeypots().iter().map(|h| h.addr).collect();
        let ntp = day.append(|buf| {
            builder::reflection_request_into(buf, victim(), 40_000, pots[0], ReflectionProtocol::Ntp)
        });
        let dns = day.append(|buf| {
            builder::reflection_request_into(buf, victim(), 40_001, pots[1], ReflectionProtocol::Dns)
        });
        let junk = day.append(|buf| buf.extend_from_slice(&[0xAB; 6]));
        let tcp = day.append(|buf| buf.extend_from_slice(&builder::tcp_syn_ack(victim(), 80, pots[0], 1, 1)));
        for s in 0..400u64 {
            day.push(SimTime(s * 7), 1 + (s % 3) as u32, HoneypotId(0), ntp);
            day.push(SimTime(s * 7 + 1), 2, HoneypotId(1), dns);
            if s % 50 == 0 {
                day.push(SimTime(s * 7 + 2), 1, HoneypotId(2), junk);
                day.push(SimTime(s * 7 + 3), 1, HoneypotId(0), tcp);
            }
        }
        let mut by_rows = fleet();
        by_rows.ingest_day(&day, day.rows());
        let mut by_batch = fleet();
        for b in RequestBatch::from_day(day) {
            by_batch.ingest(&b);
        }
        assert_eq!(by_rows.stats(), by_batch.stats());
        assert_eq!(by_rows.stats().malformed, 8);
        assert_eq!(by_rows.finish(), by_batch.finish());
    }

    #[test]
    fn hourly_sweep_bounds_open_events() {
        let mut f = fleet();
        // 40 victims attack in hour 0, then go quiet.
        for v in 0..40u8 {
            let victim = Ipv4Addr::new(203, 0, 113, v);
            feed(&mut f, victim, ReflectionProtocol::Ntp, v as u64, 120, 2, 1);
        }
        assert_eq!(f.open_events(), 40);
        // One fresh victim two hours later: crossing the hour boundary
        // sweeps every idle event out of the open map.
        feed(&mut f, victim(), ReflectionProtocol::Dns, 3 * 3600, 150, 2, 1);
        assert_eq!(f.open_events(), 1, "idle events were swept, fresh one kept");
        let (events, _) = f.finish();
        assert_eq!(events.len(), 41, "sweeping changes nothing observable");
    }

    #[test]
    fn sweep_keeps_recently_active_events() {
        let mut f = fleet();
        let busy: Ipv4Addr = "203.0.113.50".parse().unwrap();
        // `busy` stays active across the boundary; a second victim goes
        // idle early in hour 0.
        feed(&mut f, victim(), ReflectionProtocol::Ntp, 0, 120, 2, 1);
        feed(&mut f, busy, ReflectionProtocol::Ntp, 3500, 400, 2, 1);
        // Hour-2 traffic triggers a sweep: only the idle event may close.
        feed(&mut f, busy, ReflectionProtocol::Ntp, 2 * 3600 + 100, 120, 2, 1);
        assert_eq!(f.open_events(), 1, "active event survives the sweep");
        let (events, _) = f.finish();
        // `busy`'s two bursts sit within the idle gap of each other, so
        // they merge into one event; `victim()`'s burst is separate.
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn intensity_is_average_rate() {
        let mut f = fleet();
        feed(&mut f, victim(), ReflectionProtocol::RipV1, 0, 201, 3, 1);
        let (events, _) = f.finish();
        let e = &events[0];
        assert!((e.intensity_pps - (201.0 * 3.0) / 200.0).abs() < 1e-9);
    }
}
