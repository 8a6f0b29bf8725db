//! The honeypot fleet: request ingestion, per-honeypot event inference and
//! the fleet-level merge that produces one attack event per victim,
//! protocol and time window.

use crate::event::{PotEvent, RequestBatch};
use crate::honeypot::{standard_fleet, Honeypot, HoneypotId};
use dosscope_types::{
    AttackEvent, AttackVector, FastMap, IdleMap, ReflectionProtocol, SharedBytes, SimTime,
    TimeRange, SECS_PER_HOUR,
};
use dosscope_wire::{reflect, IpProtocol, Ipv4Packet, UdpDatagram};
use std::net::Ipv4Addr;

/// Key of an open per-honeypot event.
type OpenKey = (Ipv4Addr, ReflectionProtocol, HoneypotId);

/// Upper bound on the parse-memo size; reached only when more distinct
/// representative packets than this are in flight at once, in which case
/// the memo is simply rebuilt (correctness never depends on a hit).
const PARSE_MEMO_CAP: usize = 4_096;

/// The outcome of parsing and classifying one representative packet.
/// Identical bytes always produce the identical outcome, which is what
/// makes memoizing by allocation sound.
#[derive(Debug, Clone, Copy)]
enum Classified {
    /// Failed IPv4/UDP parsing.
    Malformed,
    /// Parsed but not a recognisable abuse request.
    Unrecognised,
    /// An abuse request: spoofed victim source and emulated protocol.
    Request(Ipv4Addr, ReflectionProtocol),
}

/// Parse and classify one representative packet (the uncached path).
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
    /// Replies the fleet would have sent (rate-limited; see
    /// [`Honeypot::would_reply`]).
    pub replies_sent: u64,
    /// Per-honeypot events closed.
    pub pot_events: u64,
    /// Events dropped by the scan filter (≤ min_requests).
    pub scan_filtered: u64,
    /// Fleet-level attack events emitted.
    pub events: u64,
}

impl std::ops::AddAssign for FleetStats {
    fn add_assign(&mut self, other: FleetStats) {
        self.malformed += other.malformed;
        self.unrecognised += other.unrecognised;
        self.requests += other.requests;
        self.replies_sent += other.replies_sent;
        self.pot_events += other.pot_events;
        self.scan_filtered += other.scan_filtered;
        self.events += other.events;
    }
}

/// The fleet: 24 honeypots plus event-inference state.
pub struct AmpPotFleet {
    config: FleetConfig,
    honeypots: Vec<Honeypot>,
    /// Open per-(victim, protocol, honeypot) events, with wheel buckets of
    /// at most an hour.
    open: IdleMap<OpenKey, PotEvent>,
    /// Hour of the last idle sweep; ingestion is time-ordered, so crossing
    /// an hour boundary is the trigger to expire idle open events.
    swept_hour: u64,
    /// Parse memo keyed by the representative's (start address, length).
    /// The renderer appends one representative packet per (attack-day,
    /// honeypot) to the day's honeypot arena and hands every batch a view
    /// of it, so each representative is parsed and classified once instead
    /// of once per batch. The length is part of the key because two views
    /// of one buffer can start at the same address and end at different
    /// places. The stored clone pins the buffer it views (for rendered
    /// batches, that day's whole honeypot arena), so an address can never
    /// be reused by different bytes while its entry lives.
    parse_memo: FastMap<(usize, usize), (SharedBytes, Classified)>,
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
            swept_hour: 0,
            parse_memo: FastMap::default(),
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

    /// Ingest one request batch (time-ordered).
    pub fn ingest(&mut self, batch: &RequestBatch) {
        // Expire idle open events once per simulated hour. Because the
        // stream is time-ordered, anything idle *now* stays idle for every
        // later batch, so sweeping early closes exactly the events the
        // per-key idle check below would close anyway — but bounds the
        // open map by the set of victims active in the last hour instead
        // of the whole trace.
        let hour = batch.ts.secs() / SECS_PER_HOUR;
        if hour > self.swept_hour {
            self.swept_hour = hour;
            let idle = self.open.sweep(batch.ts);
            self.stats.pot_events += idle.len() as u64;
            self.closed.extend(idle);
        }
        let key = (batch.bytes.as_slice().as_ptr() as usize, batch.bytes.len());
        let classified = match self.parse_memo.get(&key) {
            Some((_pinned, c)) => *c,
            None => {
                let c = classify_bytes(batch.bytes.as_slice());
                if self.parse_memo.len() >= PARSE_MEMO_CAP {
                    self.parse_memo.clear();
                }
                self.parse_memo.insert(key, (batch.bytes.clone(), c));
                c
            }
        };
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
        self.stats.requests += batch.count as u64;

        // Reply rate limiting: at most the first few requests per source
        // and minute would be answered; everything is logged either way.
        if let Some(pot) = self.honeypots.get_mut(batch.honeypot.0 as usize) {
            if pot.would_reply(victim, batch.ts.minute()) {
                self.stats.replies_sent += 1;
            }
        }

        let key = (victim, protocol, batch.honeypot);
        let config = self.config;
        let entry = self
            .open
            .get_or_insert_with(key, || PotEvent::new(victim, protocol, batch.honeypot, batch.ts));
        // Close on idle gap or on the 24 h duration cap.
        let idle = batch.ts.secs() > entry.last.secs() + config.idle_timeout_secs;
        let capped = batch.ts.secs() - entry.first.secs() >= config.max_event_secs;
        if idle || capped {
            let finished = std::mem::replace(
                entry,
                PotEvent::new(victim, protocol, batch.honeypot, batch.ts),
            );
            self.stats.pot_events += 1;
            self.closed.push(finished);
        }
        entry.last = entry.last.max(batch.ts);
        entry.requests += batch.count as u64;
        entry.bytes += batch.total_bytes();
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
        // 120 ingest calls in 2 minutes to one pot from one source: at
        // most 2 replies per minute may be sent.
        assert!(stats.replies_sent <= 4, "rate limiter caps replies, got {}", stats.replies_sent);
        assert_eq!(stats.requests, 600);
    }

    /// The parse memo must be invisible: batches sharing one allocation
    /// and batches with freshly-allocated identical bytes produce the
    /// same events and statistics.
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
        // Malformed bytes are memoized with their outcome too.
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
    /// hold different bytes; the memo must classify each on its own.
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
