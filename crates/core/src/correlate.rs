//! Joint-attack correlation: targets hit by randomly spoofed attacks and
//! reflection attacks, and the characteristics of attacks used jointly
//! (end of Section 4).
//!
//! Two events form a *joint attack* when they come from different
//! measurement sources, hit the same target IP and overlap in time (e.g. a
//! SYN flood combined with an NTP reflection attack).

use crate::enrich::Enricher;
use crate::store::{EventStore, KIND_REFLECTION};
use dosscope_types::{
    Asn, CountryCode, EventSource, FastMap, FastSet, Interner, ReflectionProtocol, TransportProto,
};

/// The correlation results.
#[derive(Debug, Clone, PartialEq)]
pub struct JointStats {
    /// Targets appearing in both data sets, regardless of timing (282 k in
    /// the paper).
    pub common_targets: u64,
    /// Targets with at least one overlapping pair (137 k in the paper).
    pub joint_targets: u64,
    /// Number of overlapping event pairs.
    pub joint_pairs: u64,
    /// Share of single-port attacks among joint telescope events (77.1 %).
    pub single_port_share: f64,
    /// Share of HTTP among single-port TCP joint telescope events
    /// (50.23 %).
    pub tcp_http_share: f64,
    /// Share of 27015 among single-port UDP joint telescope events (53 %).
    pub udp_27015_share: f64,
    /// Reflection-protocol shares among joint honeypot events (NTP rises
    /// to 47 %, CharGen halves to 11.5 %).
    pub reflection_shares: Vec<(ReflectionProtocol, f64)>,
    /// Joint-target share per origin AS, descending (OVH 12.3 %, ...).
    pub top_asns: Vec<(Asn, f64)>,
    /// Joint-target share per country, descending (US 24.4 %, CN
    /// 20.4 %, ...).
    pub top_countries: Vec<(CountryCode, f64)>,
}

/// The correlation pass.
pub struct JointAnalysis;

impl JointAnalysis {
    /// Run the correlation over an event store.
    ///
    /// The whole pass is columnar: honeypot rows are bucketed by
    /// interned victim id (a `u32` key — the shared interner makes
    /// telescope and honeypot ids directly comparable), the telescope
    /// sweep walks the raw start/end columns, and the joint event sets
    /// are row-id sets — no event struct is ever materialized.
    pub fn run(store: &EventStore, enricher: &Enricher<'_>) -> JointStats {
        let tele = store.block(EventSource::Telescope);
        let hp = store.block(EventSource::Honeypot);

        // Honeypot postings per interned victim id.
        let mut hp_rows: FastMap<u32, Vec<u32>> = FastMap::default();
        for (row, &vid) in hp.victim.iter().enumerate() {
            hp_rows.entry(vid).or_default().push(row as u32);
        }

        let mut joint_targets: FastSet<u32> = FastSet::default();
        let mut joint_pairs = 0u64;
        // Joint events, deduplicated by row id (one event can overlap
        // several events of the other source).
        let mut joint_tele_rows: Vec<u32> = Vec::new();
        let mut joint_hp_rows: Vec<u32> = Vec::new();
        let mut joint_hp_seen: FastSet<u32> = FastSet::default();

        for ti in 0..tele.len() {
            let vid = tele.victim[ti];
            let Some(rows) = hp_rows.get(&vid) else {
                continue;
            };
            let (ts, te) = (tele.start[ti], tele.end[ti]);
            let mut tele_is_joint = false;
            for &hi in rows {
                let hi = hi as usize;
                // Half-open interval overlap on the raw time columns.
                if ts < hp.end[hi] && hp.start[hi] < te {
                    joint_pairs += 1;
                    joint_targets.insert(vid);
                    tele_is_joint = true;
                    if joint_hp_seen.insert(hi as u32) {
                        joint_hp_rows.push(hi as u32);
                    }
                }
            }
            if tele_is_joint {
                joint_tele_rows.push(ti as u32);
            }
        }

        // Port-structure shifts among joint telescope events, read off
        // the flattened (kind, aux) columns: kind / 3 is the transport,
        // kind % 3 the signature class (0 single, 1 multi, 2 none).
        let mut single = 0u64;
        let mut tcp_single = 0u64;
        let mut tcp_http = 0u64;
        let mut udp_single = 0u64;
        let mut udp_steam = 0u64;
        let with_ports = joint_tele_rows.len() as u64;
        for &ti in &joint_tele_rows {
            let ti = ti as usize;
            let (kind, class) = (tele.kind[ti] / 3, tele.kind[ti] % 3);
            if class != 1 {
                single += 1;
            }
            if class == 0 {
                let port = tele.aux[ti];
                if kind as usize == TransportProto::Tcp.index() {
                    tcp_single += 1;
                    if port == 80 {
                        tcp_http += 1;
                    }
                } else if kind as usize == TransportProto::Udp.index() {
                    udp_single += 1;
                    if port == 27015 {
                        udp_steam += 1;
                    }
                }
            }
        }
        let share = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };

        // Reflection-protocol shift among joint honeypot events: the
        // kind code *is* the protocol, so a fixed-size count array does.
        let mut proto_counts = [0u64; ReflectionProtocol::ALL.len()];
        for &hi in &joint_hp_rows {
            proto_counts[(hp.kind[hi as usize] - KIND_REFLECTION) as usize] += 1;
        }
        let hp_total: u64 = proto_counts.iter().sum();
        let mut reflection_shares: Vec<(ReflectionProtocol, f64)> = ReflectionProtocol::ALL
            .iter()
            .map(|&p| (p, share(proto_counts[p as usize], hp_total)))
            .collect();
        reflection_shares
            .sort_by(|a, b| b.1.partial_cmp(&a.1).expect("shares are finite"));

        // Joint-target metadata shares: countries and ASNs are interned
        // to dense ids so the tally is a pair of count vectors.
        let mut asns: Interner<Asn> = Interner::new();
        let mut asn_counts: Vec<u64> = Vec::new();
        let mut countries: Interner<CountryCode> = Interner::new();
        let mut country_counts: Vec<u64> = Vec::new();
        for &vid in &joint_targets {
            let (country, asn) = enricher.lookup(store.victim_ids().resolve(vid));
            let cid = countries.intern(country) as usize;
            if cid == country_counts.len() {
                country_counts.push(0);
            }
            country_counts[cid] += 1;
            if let Some(a) = asn {
                let aid = asns.intern(a) as usize;
                if aid == asn_counts.len() {
                    asn_counts.push(0);
                }
                asn_counts[aid] += 1;
            }
        }
        let n_joint = joint_targets.len() as u64;
        let mut top_asns: Vec<(Asn, f64)> = asn_counts
            .iter()
            .enumerate()
            .map(|(id, &c)| (asns.resolve(id as u32), share(c, n_joint)))
            .collect();
        top_asns.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        let mut top_countries: Vec<(CountryCode, f64)> = country_counts
            .iter()
            .enumerate()
            .map(|(id, &c)| (countries.resolve(id as u32), share(c, n_joint)))
            .collect();
        top_countries.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));

        JointStats {
            common_targets: store.common_targets(),
            joint_targets: n_joint,
            joint_pairs,
            single_port_share: share(single, with_ports),
            tcp_http_share: share(tcp_http, tcp_single),
            udp_27015_share: share(udp_steam, udp_single),
            reflection_shares,
            top_asns,
            top_countries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosscope_geo::{AsDb, GeoDb};
    use dosscope_types::{AttackEvent, AttackVector, PortSignature, SimTime, TimeRange};

    fn tele(ip: &str, start: u64, end: u64, port: u16) -> AttackEvent {
        AttackEvent {
            target: ip.parse().unwrap(),
            when: TimeRange::new(SimTime(start), SimTime(end)),
            vector: AttackVector::RandomlySpoofed {
                proto: TransportProto::Tcp,
                ports: PortSignature::Single(port),
            },
            packets: 100,
            bytes: 4000,
            intensity_pps: 1.0,
            distinct_sources: 10,
        }
    }

    fn hp(ip: &str, start: u64, end: u64, protocol: ReflectionProtocol) -> AttackEvent {
        AttackEvent {
            target: ip.parse().unwrap(),
            when: TimeRange::new(SimTime(start), SimTime(end)),
            vector: AttackVector::Reflection { protocol },
            packets: 500,
            bytes: 20_000,
            intensity_pps: 10.0,
            distinct_sources: 4,
        }
    }

    fn run(tele_events: Vec<AttackEvent>, hp_events: Vec<AttackEvent>) -> JointStats {
        let mut store = EventStore::new();
        store.ingest_telescope(tele_events);
        store.ingest_honeypot(hp_events);
        let geo = GeoDb::new();
        let asdb = AsDb::new();
        let enricher = Enricher::new(&geo, &asdb);
        JointAnalysis::run(&store, &enricher)
    }

    #[test]
    fn detects_joint_attack() {
        let s = run(
            vec![tele("10.0.0.1", 100, 500, 80)],
            vec![hp("10.0.0.1", 300, 700, ReflectionProtocol::Ntp)],
        );
        assert_eq!(s.common_targets, 1);
        assert_eq!(s.joint_targets, 1);
        assert_eq!(s.joint_pairs, 1);
        assert_eq!(s.single_port_share, 1.0);
        assert_eq!(s.tcp_http_share, 1.0);
        assert_eq!(s.reflection_shares[0], (ReflectionProtocol::Ntp, 1.0));
    }

    #[test]
    fn common_but_not_simultaneous() {
        let s = run(
            vec![tele("10.0.0.1", 100, 200, 80)],
            vec![hp("10.0.0.1", 5_000, 6_000, ReflectionProtocol::Dns)],
        );
        assert_eq!(s.common_targets, 1);
        assert_eq!(s.joint_targets, 0);
        assert_eq!(s.joint_pairs, 0);
    }

    #[test]
    fn disjoint_targets_not_common() {
        let s = run(
            vec![tele("10.0.0.1", 100, 200, 80)],
            vec![hp("10.0.0.2", 100, 200, ReflectionProtocol::Dns)],
        );
        assert_eq!(s.common_targets, 0);
    }

    #[test]
    fn multiple_overlaps_count_target_once() {
        let s = run(
            vec![
                tele("10.0.0.1", 100, 1000, 80),
                tele("10.0.0.1", 2000, 3000, 443),
            ],
            vec![
                hp("10.0.0.1", 500, 2500, ReflectionProtocol::Ntp),
                hp("10.0.0.1", 900, 950, ReflectionProtocol::CharGen),
            ],
        );
        assert_eq!(s.joint_targets, 1);
        // tele1↔ntp, tele1↔chargen, tele2↔ntp.
        assert_eq!(s.joint_pairs, 3);
    }

    #[test]
    fn boundary_touch_is_not_joint() {
        let s = run(
            vec![tele("10.0.0.1", 100, 200, 80)],
            vec![hp("10.0.0.1", 200, 300, ReflectionProtocol::Ntp)],
        );
        assert_eq!(s.joint_targets, 0, "half-open intervals: touching ≠ overlap");
    }
}
