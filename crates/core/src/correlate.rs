//! Joint-attack correlation: targets hit by randomly spoofed attacks and
//! reflection attacks, and the characteristics of attacks used jointly
//! (end of Section 4).
//!
//! Two events form a *joint attack* when they come from different
//! measurement sources, hit the same target IP and overlap in time (e.g. a
//! SYN flood combined with an NTP reflection attack).

use crate::enrich::Enricher;
use crate::store::EventStore;
use dosscope_types::{
    tally, Asn, AttackEvent, AttackVector, CountryCode, FastMap, FastSet, PortSignature,
    ReflectionProtocol, TransportProto,
};
use std::net::Ipv4Addr;

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
    /// Honeypot rows are bucketed by target address, then each telescope
    /// row probes its target's bucket for overlapping intervals.
    pub fn run(store: &EventStore, enricher: &Enricher<'_>) -> JointStats {
        let hp = store.honeypot();
        let mut hp_rows: FastMap<Ipv4Addr, Vec<u32>> = FastMap::default();
        for (row, e) in hp.iter().enumerate() {
            hp_rows.entry(e.target).or_default().push(row as u32);
        }

        let mut joint_targets: FastSet<Ipv4Addr> = FastSet::default();
        let mut joint_pairs = 0u64;
        // Joint events, deduplicated by row (one event can overlap
        // several events of the other source).
        let mut joint_tele: Vec<&AttackEvent> = Vec::new();
        let mut joint_hp: Vec<&AttackEvent> = Vec::new();
        let mut joint_hp_seen: FastSet<u32> = FastSet::default();

        for t in store.telescope() {
            let Some(rows) = hp_rows.get(&t.target) else {
                continue;
            };
            let mut tele_is_joint = false;
            for &hi in rows {
                let h = &hp[hi as usize];
                if t.when.overlaps(&h.when) {
                    joint_pairs += 1;
                    joint_targets.insert(t.target);
                    tele_is_joint = true;
                    if joint_hp_seen.insert(hi) {
                        joint_hp.push(h);
                    }
                }
            }
            if tele_is_joint {
                joint_tele.push(t);
            }
        }

        // Port-structure shifts among joint telescope events.
        let mut single = 0u64;
        let mut tcp_single = 0u64;
        let mut tcp_http = 0u64;
        let mut udp_single = 0u64;
        let mut udp_steam = 0u64;
        let with_ports = joint_tele.len() as u64;
        for t in &joint_tele {
            let AttackVector::RandomlySpoofed { proto, ports } = t.vector else {
                continue;
            };
            if ports.is_single() {
                single += 1;
            }
            if let PortSignature::Single(port) = ports {
                match proto {
                    TransportProto::Tcp => {
                        tcp_single += 1;
                        tcp_http += u64::from(port == 80);
                    }
                    TransportProto::Udp => {
                        udp_single += 1;
                        udp_steam += u64::from(port == 27015);
                    }
                    TransportProto::Icmp | TransportProto::Other => {}
                }
            }
        }
        let share = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };

        // Reflection-protocol shift among joint honeypot events.
        let mut proto_counts = [0u64; ReflectionProtocol::ALL.len()];
        for p in joint_hp.iter().filter_map(|h| h.reflection_protocol()) {
            proto_counts[p as usize] += 1;
        }
        let hp_total: u64 = proto_counts.iter().sum();
        let mut reflection_shares: Vec<(ReflectionProtocol, f64)> = ReflectionProtocol::ALL
            .iter()
            .map(|&p| (p, share(proto_counts[p as usize], hp_total)))
            .collect();
        reflection_shares
            .sort_by(|a, b| b.1.partial_cmp(&a.1).expect("shares are finite"));

        // Joint-target metadata shares: one lookup per joint target, one
        // ranked tally per key kind.
        let n_joint = joint_targets.len() as u64;
        let meta: Vec<(CountryCode, Option<Asn>)> =
            joint_targets.iter().map(|&target| enricher.lookup(target)).collect();
        let top_asns = tally(meta.iter().filter_map(|&(_, asn)| asn))
            .into_iter()
            .map(|(asn, c)| (asn, share(c, n_joint)))
            .collect();
        let top_countries = tally(meta.iter().map(|&(country, _)| country))
            .into_iter()
            .map(|(country, c)| (country, share(c, n_joint)))
            .collect();

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
