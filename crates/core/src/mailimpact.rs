//! Attacks on shared DNS and mail infrastructure — the paper's Section 8
//! future work, implemented: map targeted IP addresses to the mail
//! exchangers (`MX` targets) and authoritative name servers of hosting
//! organisations, and measure how many domains' mail/DNS service was
//! potentially affected.
//!
//! The paper's motivation: "we find that GoDaddy's e-mail servers, which
//! are used by tens of millions of domain names, are frequently targeted
//! by DoS attacks", and "we could map targeted IP addresses to
//! authoritative name servers, and study the potential effect of attacks
//! on the DNS itself".

use crate::Framework;
use dosscope_dns::{OrgCatalog, OrgId, ZoneStore};
use dosscope_types::{BitSet, DayIndex, FastSet, TimeSeries};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Impact on one class of shared infrastructure (mail or DNS).
pub struct InfraImpact {
    /// Attack events whose target was an infrastructure address.
    pub events: u64,
    /// Distinct infrastructure addresses attacked.
    pub targeted_ips: u64,
    /// Distinct domains whose service was potentially affected at least
    /// once.
    pub affected_domains: u64,
    /// Domains potentially affected per day.
    pub daily_domains: TimeSeries,
    /// Affected domains per operating organisation, descending.
    pub top_orgs: Vec<(String, u64)>,
}

/// The combined mail + name-server analysis.
pub struct InfrastructureImpact {
    /// Mail-exchanger impact.
    pub mail: InfraImpact,
    /// Authoritative-name-server impact.
    pub dns: InfraImpact,
}

impl InfrastructureImpact {
    /// Run the infrastructure join. Returns `None` when the framework has
    /// no DNS data attached.
    ///
    /// Every event on one organisation's MX (NS) addresses on one day
    /// affects the same domains, so each (organisation, day) pair is
    /// expanded once and its domain count weighted by the pair's events.
    pub fn analyze(fw: &Framework<'_>) -> Option<InfrastructureImpact> {
        let zone = fw.zone?;
        let catalog = fw.catalog?;
        let days = fw.days;

        let mut mail = Accum::default();
        let mut dns = Accum::default();
        for e in fw.store.all() {
            let day = e.when.start.day();
            if day.0 >= days {
                continue;
            }
            if let Some(org) = zone.mail_org_at(e.target) {
                mail.record(e.target, org, day);
            }
            if let Some(org) = zone.ns_org_at(e.target) {
                dns.record(e.target, org, day);
            }
        }

        Some(InfrastructureImpact {
            mail: mail.finish(zone, catalog, days),
            dns: dns.finish(zone, catalog, days),
        })
    }

    /// Render a short text report.
    pub fn render(&self) -> String {
        let mut s = String::from("Infrastructure impact (Section 8 extension)\n");
        for (label, i) in [("mail (MX)", &self.mail), ("DNS (NS)", &self.dns)] {
            s.push_str(&format!(
                "  {label}: {} events on {} addresses; {} domains affected at least once (mean {:.0}/day)\n",
                i.events,
                i.targeted_ips,
                i.affected_domains,
                i.daily_domains.daily_mean(),
            ));
            for (org, n) in i.top_orgs.iter().take(3) {
                s.push_str(&format!("    {org:<28} {n} domains\n"));
            }
        }
        s
    }
}

/// One infrastructure class's events, grouped by (organisation, day)
/// when finished.
#[derive(Default)]
struct Accum {
    ips: FastSet<Ipv4Addr>,
    org_days: Vec<(OrgId, DayIndex)>,
}

impl Accum {
    fn record(&mut self, target: Ipv4Addr, org: OrgId, day: DayIndex) {
        self.ips.insert(target);
        self.org_days.push((org, day));
    }

    fn finish(mut self, zone: &ZoneStore, catalog: &OrgCatalog, days: u32) -> InfraImpact {
        self.org_days.sort_unstable();
        let mut daily = TimeSeries::zeros(days);
        let mut affected = BitSet::new();
        // Tallied per organisation name: organisations sharing a name
        // share a tally.
        let mut per_org: BTreeMap<&str, BitSet> = BTreeMap::new();
        for group in self.org_days.chunk_by(|a, b| a == b) {
            let (org, day) = group[0];
            let domains = zone.domains_of_org(org, day);
            // Domain counts are summed per event, not per distinct domain.
            daily.add(day, (group.len() * domains.len()) as f64);
            let org_set = per_org.entry(&catalog.get(org).name).or_default();
            for d in domains {
                affected.insert(d.0);
                org_set.insert(d.0);
            }
        }
        let mut top_orgs: Vec<(String, u64)> = per_org
            .into_iter()
            .map(|(name, set)| (name.to_string(), set.len() as u64))
            .collect();
        top_orgs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        InfraImpact {
            events: self.org_days.len() as u64,
            targeted_ips: self.ips.len() as u64,
            affected_domains: affected.len() as u64,
            daily_domains: daily,
            top_orgs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventStore;
    use dosscope_dns::{DayRange, OrgInfra, OrgRole, Placement, Tld};
    use dosscope_geo::{AsDb, GeoDb};
    use dosscope_types::{
        AttackEvent, AttackVector, PortSignature, SimTime, TimeRange, TransportProto, SECS_PER_DAY,
    };

    fn tele(ip: &str, day: u64) -> AttackEvent {
        AttackEvent {
            target: ip.parse().unwrap(),
            when: TimeRange::new(
                SimTime(day * SECS_PER_DAY + 100),
                SimTime(day * SECS_PER_DAY + 400),
            ),
            vector: AttackVector::RandomlySpoofed {
                proto: TransportProto::Tcp,
                ports: PortSignature::Single(25),
            },
            packets: 100,
            bytes: 4000,
            intensity_pps: 1.0,
            distinct_sources: 10,
        }
    }

    struct World {
        zone: ZoneStore,
        catalog: OrgCatalog,
        geo: GeoDb,
        asdb: AsDb,
    }

    fn world() -> World {
        let mut catalog = OrgCatalog::new();
        let hoster = catalog.add("MailHost", None, OrgRole::Hoster, false);
        let other = catalog.add("Other", None, OrgRole::Hoster, false);
        let mut zone = ZoneStore::new();
        for i in 0..5 {
            let d = zone.add_domain(Tld::Com, DayRange::new(DayIndex(0), DayIndex(30)));
            zone.place(Placement {
                domain: d,
                ip: format!("10.0.0.{}", i + 1).parse().unwrap(),
                days: DayRange::new(DayIndex(0), DayIndex(30)),
                ns: hoster,
                cname: None,
            });
        }
        // One domain at another org, to check isolation.
        let d = zone.add_domain(Tld::Net, DayRange::new(DayIndex(0), DayIndex(30)));
        zone.place(Placement {
            domain: d,
            ip: "10.0.1.1".parse().unwrap(),
            days: DayRange::new(DayIndex(0), DayIndex(30)),
            ns: other,
            cname: None,
        });
        zone.register_infra(OrgInfra {
            org: hoster,
            mx_ips: vec!["10.9.9.9".parse().unwrap()],
            ns_ips: vec!["10.9.9.10".parse().unwrap()],
        });
        World {
            zone,
            catalog,
            geo: GeoDb::new(),
            asdb: AsDb::new(),
        }
    }

    #[test]
    fn mail_attack_affects_all_org_domains() {
        let w = world();
        let mut store = EventStore::new();
        store.ingest_telescope(vec![tele("10.9.9.9", 3)]);
        let fw = Framework::new(&store, &w.geo, &w.asdb, 30).with_dns(&w.zone, &w.catalog);
        let impact = InfrastructureImpact::analyze(&fw).expect("dns attached");
        assert_eq!(impact.mail.events, 1);
        assert_eq!(impact.mail.targeted_ips, 1);
        assert_eq!(impact.mail.affected_domains, 5, "all MailHost domains");
        assert_eq!(impact.mail.daily_domains.get(DayIndex(3)), 5.0);
        assert_eq!(impact.mail.top_orgs[0], ("MailHost".to_string(), 5));
        // No NS addresses were attacked.
        assert_eq!(impact.dns.events, 0);
        assert_eq!(impact.dns.affected_domains, 0);
    }

    #[test]
    fn ns_attack_tracked_separately() {
        let w = world();
        let mut store = EventStore::new();
        store.ingest_telescope(vec![tele("10.9.9.10", 7)]);
        let fw = Framework::new(&store, &w.geo, &w.asdb, 30).with_dns(&w.zone, &w.catalog);
        let impact = InfrastructureImpact::analyze(&fw).unwrap();
        assert_eq!(impact.dns.events, 1);
        assert_eq!(impact.dns.affected_domains, 5);
        assert_eq!(impact.mail.events, 0);
    }

    #[test]
    fn ordinary_attacks_do_not_count() {
        let w = world();
        let mut store = EventStore::new();
        store.ingest_telescope(vec![tele("10.0.0.1", 3)]); // a hosting IP
        let fw = Framework::new(&store, &w.geo, &w.asdb, 30).with_dns(&w.zone, &w.catalog);
        let impact = InfrastructureImpact::analyze(&fw).unwrap();
        assert_eq!(impact.mail.events + impact.dns.events, 0);
    }

    #[test]
    fn render_mentions_orgs() {
        let w = world();
        let mut store = EventStore::new();
        store.ingest_telescope(vec![tele("10.9.9.9", 3)]);
        let fw = Framework::new(&store, &w.geo, &w.asdb, 30).with_dns(&w.zone, &w.catalog);
        let impact = InfrastructureImpact::analyze(&fw).unwrap();
        let text = impact.render();
        assert!(text.contains("MailHost"));
        assert!(text.contains("5 domains"));
    }

    #[test]
    fn repeated_events_weight_daily_domains_per_event() {
        let w = world();
        let mut store = EventStore::new();
        store.ingest_telescope(vec![
            tele("10.9.9.9", 3),
            tele("10.9.9.9", 3),
            tele("10.9.9.9", 4),
        ]);
        let fw = Framework::new(&store, &w.geo, &w.asdb, 30).with_dns(&w.zone, &w.catalog);
        let impact = InfrastructureImpact::analyze(&fw).unwrap();
        assert_eq!(impact.mail.events, 3);
        assert_eq!(impact.mail.targeted_ips, 1);
        assert_eq!(
            impact.mail.daily_domains.get(DayIndex(3)),
            10.0,
            "two events x five domains"
        );
        assert_eq!(impact.mail.daily_domains.get(DayIndex(4)), 5.0);
        assert_eq!(impact.mail.affected_domains, 5);
        assert_eq!(impact.mail.top_orgs, vec![("MailHost".to_string(), 5)]);
    }

    #[test]
    fn orgs_sharing_a_name_share_a_tally() {
        let mut w = world();
        let twin = w.catalog.add("MailHost", None, OrgRole::Hoster, false);
        let d = w
            .zone
            .add_domain(Tld::Org, DayRange::new(DayIndex(0), DayIndex(30)));
        w.zone.place(Placement {
            domain: d,
            ip: "10.0.2.1".parse().unwrap(),
            days: DayRange::new(DayIndex(0), DayIndex(30)),
            ns: twin,
            cname: None,
        });
        w.zone.register_infra(OrgInfra {
            org: twin,
            mx_ips: vec!["10.9.9.11".parse().unwrap()],
            ns_ips: Vec::new(),
        });
        let mut store = EventStore::new();
        store.ingest_telescope(vec![tele("10.9.9.9", 3), tele("10.9.9.11", 3)]);
        let fw = Framework::new(&store, &w.geo, &w.asdb, 30).with_dns(&w.zone, &w.catalog);
        let impact = InfrastructureImpact::analyze(&fw).unwrap();
        assert_eq!(impact.mail.affected_domains, 6);
        assert_eq!(impact.mail.top_orgs, vec![("MailHost".to_string(), 6)]);
    }

    #[test]
    fn requires_dns_data() {
        let w = world();
        let store = EventStore::new();
        let fw = Framework::new(&store, &w.geo, &w.asdb, 30);
        assert!(InfrastructureImpact::analyze(&fw).is_none());
    }
}
