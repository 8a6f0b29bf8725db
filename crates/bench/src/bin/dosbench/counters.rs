//! Work counters for the two DNS joins, derived outside the analyses from
//! their public inputs and results, so they are identical on any machine
//! and need no instrumentation inside the library.
//!
//! * Web join (`WebImpact::analyze`): every in-window event looks up its
//!   target IP and scans every placement ever recorded there, keeping
//!   those live on the attack day. Scanned = Σ placements on each event's
//!   IP; hits = Σ `site_records[*].count`.
//! * Mail/NS join (`InfrastructureImpact::analyze`): an in-window event
//!   on an organisation's MX (NS) address scans every placement that
//!   organisation operates. Scanned = Σ placements of the MX/NS org;
//!   hits = Σ `daily_domains` of both halves.
//!
//! hits / scanned is the join's useful share of the work it does.

use dosscope_core::mailimpact::InfrastructureImpact;
use dosscope_core::webimpact::WebImpact;
use dosscope_core::EventStore;
use dosscope_dns::{OrgId, ZoneStore};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Work one join did over a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinWork {
    /// In-window events the join visited.
    pub events: u64,
    pub placements_scanned: u64,
    pub hits: u64,
}

impl JoinWork {
    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / self.placements_scanned.max(1) as f64
    }
}

/// Events the joins visit: those starting inside the window.
fn in_window(
    store: &EventStore,
    days: u32,
) -> impl Iterator<Item = dosscope_types::AttackEvent> + '_ {
    store.all().filter(move |e| e.when.start.day().0 < days)
}

pub fn web_join(zone: &ZoneStore, store: &EventStore, days: u32, web: &WebImpact) -> JoinWork {
    let mut per_ip: HashMap<Ipv4Addr, u64> = HashMap::new();
    for d in zone.domain_ids() {
        for p in zone.placements_of(d) {
            *per_ip.entry(p.ip).or_default() += 1;
        }
    }
    let (mut events, mut scanned) = (0, 0);
    for e in in_window(store, days) {
        events += 1;
        scanned += per_ip.get(&e.target).copied().unwrap_or(0);
    }
    JoinWork {
        events,
        placements_scanned: scanned,
        hits: web.site_records.values().map(|r| u64::from(r.count)).sum(),
    }
}

pub fn mail_join(
    zone: &ZoneStore,
    store: &EventStore,
    days: u32,
    infra: &InfrastructureImpact,
) -> JoinWork {
    let mut per_org: HashMap<OrgId, u64> = HashMap::new();
    for d in zone.domain_ids() {
        for p in zone.placements_of(d) {
            *per_org.entry(p.ns).or_default() += 1;
        }
    }
    let (mut events, mut scanned) = (0, 0);
    for e in in_window(store, days) {
        events += 1;
        for org in [zone.mail_org_at(e.target), zone.ns_org_at(e.target)]
            .into_iter()
            .flatten()
        {
            scanned += per_org.get(&org).copied().unwrap_or(0);
        }
    }
    // Daily domain counts are whole numbers stored as f64.
    let hits = infra.mail.daily_domains.total() + infra.dns.daily_domains.total();
    JoinWork {
        events,
        placements_scanned: scanned,
        hits: hits as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosscope_core::Framework;
    use dosscope_dns::{DayRange, DomainId, OrgCatalog, OrgInfra, OrgRole, Placement, Tld};
    use dosscope_geo::{AsDb, GeoDb};
    use dosscope_types::{
        AttackEvent, AttackVector, DayIndex, PortSignature, ReflectionProtocol, SimTime, TimeRange,
        TransportProto, SECS_PER_DAY,
    };

    const DAYS: u32 = 30;

    fn at(ip: &str, day: u64, vector: AttackVector) -> AttackEvent {
        AttackEvent {
            target: ip.parse().unwrap(),
            when: TimeRange::new(
                SimTime(day * SECS_PER_DAY + 100),
                SimTime(day * SECS_PER_DAY + 400),
            ),
            vector,
            packets: 100,
            bytes: 4000,
            intensity_pps: 1.0,
            distinct_sources: 10,
        }
    }

    fn tele(ip: &str, day: u64) -> AttackEvent {
        let vector = AttackVector::RandomlySpoofed {
            proto: TransportProto::Tcp,
            ports: PortSignature::Single(80),
        };
        at(ip, day, vector)
    }

    fn hp(ip: &str, day: u64) -> AttackEvent {
        let vector = AttackVector::Reflection {
            protocol: ReflectionProtocol::Ntp,
        };
        at(ip, day, vector)
    }

    fn days(a: u32, b: u32) -> DayRange {
        DayRange::new(DayIndex(a), DayIndex(b))
    }

    /// Three sites of org A co-hosted on .1; one org-B site that moves
    /// from .1 to .2 on day 10; one org-B site on .2. A has an MX and an
    /// NS address, B an MX address.
    fn zone() -> (ZoneStore, OrgCatalog) {
        let mut catalog = OrgCatalog::new();
        let a = catalog.add("HostA", None, OrgRole::Hoster, false);
        let b = catalog.add("HostB", None, OrgRole::Hoster, false);
        let mut zone = ZoneStore::new();
        fn place(zone: &mut ZoneStore, domain: DomainId, ip: &str, days: DayRange, ns: OrgId) {
            let ip = ip.parse().unwrap();
            zone.place(Placement {
                domain,
                ip,
                days,
                ns,
                cname: None,
            })
        }
        for _ in 0..3 {
            let d = zone.add_domain(Tld::Com, days(0, DAYS));
            place(&mut zone, d, "10.0.0.1", days(0, DAYS), a);
        }
        let mover = zone.add_domain(Tld::Net, days(0, DAYS));
        place(&mut zone, mover, "10.0.0.1", days(0, 10), b);
        place(&mut zone, mover, "10.0.0.2", days(10, DAYS), b);
        let d = zone.add_domain(Tld::Org, days(0, DAYS));
        place(&mut zone, d, "10.0.0.2", days(0, DAYS), b);
        zone.register_infra(OrgInfra {
            org: a,
            mx_ips: vec!["10.9.9.9".parse().unwrap()],
            ns_ips: vec!["10.9.9.10".parse().unwrap()],
        });
        zone.register_infra(OrgInfra {
            org: b,
            mx_ips: vec!["10.9.9.11".parse().unwrap()],
            ns_ips: vec![],
        });
        (zone, catalog)
    }

    /// (web scanned, web hits, mail scanned, mail hits) by testing every
    /// placement against every event.
    fn brute_force(zone: &ZoneStore, store: &EventStore) -> (u64, u64, u64, u64) {
        let placements: Vec<&Placement> = zone
            .domain_ids()
            .flat_map(|d| zone.placements_of(d))
            .collect();
        let (mut ws, mut wh, mut ms, mut mh) = (0, 0, 0, 0);
        for e in store.all() {
            let day = e.when.start.day();
            if day.0 >= DAYS {
                continue;
            }
            for p in placements.iter().filter(|p| p.ip == e.target) {
                ws += 1;
                wh += u64::from(p.days.contains(day));
            }
            for org in [zone.mail_org_at(e.target), zone.ns_org_at(e.target)]
                .into_iter()
                .flatten()
            {
                for p in placements.iter().filter(|p| p.ns == org) {
                    ms += 1;
                    mh += u64::from(p.days.contains(day));
                }
            }
        }
        (ws, wh, ms, mh)
    }

    #[test]
    fn join_counters_equal_a_brute_force_count() {
        let (zone, catalog) = zone();
        let (geo, asdb) = (GeoDb::new(), AsDb::new());
        let mut store = EventStore::new();
        store.ingest_telescope(vec![
            tele("10.0.0.1", 3),
            tele("10.0.0.1", 15),
            tele("10.0.0.2", 5),
            tele("10.0.0.3", 4),
            tele("10.9.9.9", 3),
            tele("10.9.9.10", 7),
            // Outside the window: neither join visits it.
            tele("10.0.0.1", 40),
        ]);
        store.ingest_honeypot(vec![hp("10.9.9.11", 20), hp("10.0.0.2", 12)]);
        let fw = Framework::new(&store, &geo, &asdb, DAYS).with_dns(&zone, &catalog);
        let web = WebImpact::analyze(&fw).expect("zone attached");
        let infra = InfrastructureImpact::analyze(&fw).expect("zone attached");

        let w = web_join(&zone, &store, DAYS, &web);
        let m = mail_join(&zone, &store, DAYS, &infra);
        let (ws, wh, ms, mh) = brute_force(&zone, &store);
        assert_eq!((w.placements_scanned, w.hits), (ws, wh));
        assert_eq!((m.placements_scanned, m.hits), (ms, mh));
        // By hand: .1 holds 4 placements, .2 holds 2; the day-15 event
        // on .1 misses the mover, the day-5 event on .2 misses it too.
        assert_eq!((ws, wh), (4 + 4 + 2 + 2, 4 + 3 + 1 + 2));
        // A operates 3 placements, B 3 (the mover twice); the day-20
        // event on B's MX finds the mover's second placement and .2's site.
        assert_eq!((ms, mh), (3 + 3 + 3, 3 + 3 + 2));
        assert_eq!((w.events, m.events), (8, 8));
        assert!((w.hit_ratio() - 10.0 / 12.0).abs() < 1e-12);
    }
}
