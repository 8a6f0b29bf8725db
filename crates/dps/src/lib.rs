//! # dosscope-dps
//!
//! The DDoS-Protection-Service data set (Section 3.3 of the paper): which
//! Web sites outsource protection to which of ten providers, and since
//! when, inferred from DNS and BGP indicators using the methodology of
//! Jonker et al. ("Measuring the Adoption of DDoS Protection Services",
//! IMC 2016).
//!
//! A site uses a DPS on a given day when its `www` placement shows one of
//! the provider's fingerprints:
//!
//! * **DNS diversion** — the `www` label expands through the provider's
//!   CNAME (reverse-proxy fronting), or the provider operates the
//!   authoritative name servers;
//! * **BGP diversion** — the A record's address is originated by the
//!   provider's AS (customer prefix announced by the DPS).
//!
//! The inference runs over the measured zone only; it never reads the
//! generator's ground truth.
//!
//! The data set is a hash-free table in compressed-sparse-row layout:
//! [`DpsDataset::infer`] walks the zone once in `DomainId` order and
//! appends each domain's protection intervals to one flat array, with an
//! offset per domain marking where its slice starts. A domain lookup is
//! two array reads; the aggregates (customer counts, diversion split,
//! adoption series) are single passes over the flat array.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dosscope_dns::{DomainId, OrgCatalog, OrgId, OrgRole, ZoneStore};
use dosscope_geo::AsDb;
use dosscope_types::{Asn, DayIndex};

/// Index of a provider within the DPS catalog (0..10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProviderId(pub u8);

/// How traffic is diverted to the provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Diversion {
    /// DNS-based diversion (CNAME fronting / provider name servers).
    Dns,
    /// BGP-based diversion (provider announces the customer prefix).
    Bgp,
}

/// One provider of the ten the paper considers.
#[derive(Debug, Clone)]
pub struct Provider {
    /// Catalog index.
    pub id: ProviderId,
    /// Display name (matches Table 3).
    pub name: String,
    /// The provider's organisation entry in the DNS catalog.
    pub org: OrgId,
}

/// One observed protection interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UseInterval {
    /// Protecting provider.
    pub provider: ProviderId,
    /// First day protection is visible.
    pub from: DayIndex,
    /// One past the last protected day.
    pub until: DayIndex,
    /// Diversion mechanism observed.
    pub diversion: Diversion,
}

/// The measured adoption data set.
#[derive(Debug, Default)]
pub struct DpsDataset {
    providers: Vec<Provider>,
    /// `offsets[d]..offsets[d + 1]` is domain `d`'s slice of `intervals`;
    /// one entry per zone domain plus a final end marker.
    offsets: Vec<u32>,
    /// Every protection interval, grouped by domain in `DomainId` order
    /// and sorted by start day within a domain.
    intervals: Vec<UseInterval>,
}

impl DpsDataset {
    /// Infer the data set from a zone, a catalog and the routing table.
    ///
    /// Every placement of every domain is checked against all provider
    /// fingerprints, exactly like the daily OpenINTEL scan of \[5\] — the
    /// interval encoding just avoids re-deriving identical days.
    pub fn infer(zone: &ZoneStore, catalog: &OrgCatalog, asdb: &AsDb) -> DpsDataset {
        let providers: Vec<Provider> = catalog
            .by_role(OrgRole::Dps)
            .enumerate()
            .map(|(i, o)| Provider {
                id: ProviderId(i as u8),
                name: o.name.clone(),
                org: o.id,
            })
            .collect();
        let mut by_org: Vec<Option<ProviderId>> = vec![None; catalog.orgs().len()];
        for p in &providers {
            by_org[p.org.0 as usize] = Some(p.id);
        }
        let provider_of_org = |org: OrgId| by_org.get(org.0 as usize).copied().flatten();
        let by_asn: Vec<(Asn, ProviderId)> = providers
            .iter()
            .filter_map(|p| catalog.get(p.org).asn.map(|a| (a, p.id)))
            .collect();
        // At most ten providers, so a scan beats hashing. Should two
        // announce one AS, the later one in catalog order wins.
        let provider_of_asn = |asn: Asn| {
            by_asn
                .iter()
                .rev()
                .find(|(a, _)| *a == asn)
                .map(|&(_, p)| p)
        };

        let mut offsets = Vec::with_capacity(zone.domain_count() + 1);
        offsets.push(0);
        let mut intervals = Vec::new();
        for domain in zone.domain_ids() {
            let start = intervals.len();
            for placement in zone.placements_of(domain) {
                if placement.days.is_empty() {
                    continue;
                }
                // DNS indicators first: CNAME fronting, then provider NS.
                let dns_hit = placement
                    .cname
                    .and_then(provider_of_org)
                    .or_else(|| provider_of_org(placement.ns));
                let (provider, diversion) = match dns_hit {
                    Some(p) => (Some(p), Diversion::Dns),
                    // BGP indicator: the A record routes to the
                    // provider's AS.
                    None => (
                        asdb.asn_of(placement.ip).and_then(provider_of_asn),
                        Diversion::Bgp,
                    ),
                };
                if let Some(provider) = provider {
                    intervals.push(UseInterval {
                        provider,
                        from: placement.days.start,
                        until: placement.days.end,
                        diversion,
                    });
                }
            }
            intervals[start..].sort_by_key(|u| u.from);
            offsets.push(u32::try_from(intervals.len()).expect("fewer than 2^32 intervals"));
        }
        DpsDataset {
            providers,
            offsets,
            intervals,
        }
    }

    /// The providers, in catalog order.
    pub fn providers(&self) -> &[Provider] {
        &self.providers
    }

    /// Provider by name.
    pub fn provider_by_name(&self, name: &str) -> Option<&Provider> {
        self.providers.iter().find(|p| p.name == name)
    }

    /// All protection intervals of a domain (sorted by start day); empty
    /// for an unprotected domain or one the zone never had.
    pub fn intervals_of(&self, domain: DomainId) -> &[UseInterval] {
        let d = domain.0 as usize;
        match self.offsets.get(d..d + 2) {
            Some(&[start, end]) => &self.intervals[start as usize..end as usize],
            _ => &[],
        }
    }

    /// Every domain's interval slice, in `DomainId` order.
    fn per_domain(&self) -> impl Iterator<Item = &[UseInterval]> {
        self.offsets
            .windows(2)
            .map(|w| &self.intervals[w[0] as usize..w[1] as usize])
    }

    /// First day the domain is seen using any DPS, with the provider.
    pub fn first_use(&self, domain: DomainId) -> Option<(DayIndex, ProviderId)> {
        self.intervals_of(domain).first().map(|u| (u.from, u.provider))
    }

    /// The provider protecting the domain on `day`, if any.
    pub fn provider_on(&self, domain: DomainId, day: DayIndex) -> Option<ProviderId> {
        self.intervals_of(domain)
            .iter()
            .find(|u| day >= u.from && day < u.until)
            .map(|u| u.provider)
    }

    /// Whether the domain already used a DPS when it first appeared in the
    /// DNS — the paper's "preexisting customer" class.
    pub fn is_preexisting(&self, domain: DomainId, zone: &ZoneStore) -> bool {
        self.first_use(domain)
            .is_some_and(|(day, _)| day <= zone.first_seen(domain))
    }

    /// The day the domain *migrated* to a DPS (first use strictly after
    /// first appearance), if any.
    pub fn migration_day(&self, domain: DomainId, zone: &ZoneStore) -> Option<DayIndex> {
        self.first_use(domain)
            .filter(|(day, _)| *day > zone.first_seen(domain))
            .map(|(day, _)| day)
    }

    /// Number of domains ever protected by `provider` (Table 3's
    /// "#Web sites" per provider).
    pub fn customer_count(&self, provider: ProviderId) -> u64 {
        self.customer_counts()
            .get(provider.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    /// [`customer_count`](Self::customer_count) of every provider, in
    /// catalog order, from one pass over the table.
    pub fn customer_counts(&self) -> Vec<u64> {
        let mut counts = vec![0; self.providers.len()];
        for intervals in self.per_domain() {
            for (i, u) in intervals.iter().enumerate() {
                // A domain counts once per provider, at its first interval.
                if !intervals[..i].iter().any(|v| v.provider == u.provider) {
                    counts[u.provider.0 as usize] += 1;
                }
            }
        }
        counts
    }

    /// Number of domains with any DPS use.
    pub fn protected_count(&self) -> u64 {
        self.per_domain().filter(|s| !s.is_empty()).count() as u64
    }

    /// Number of protection intervals over all domains.
    pub fn interval_count(&self) -> u64 {
        self.intervals.len() as u64
    }

    /// Protected domains per day — the adoption trend of Jonker et al.
    /// (IMC 2016), which found DPS use growing steadily. Each day counts
    /// the domains with an active protection interval: every interval
    /// adds one on its first day and removes it after its last, and a
    /// running sum turns those steps into daily counts.
    pub fn adoption_series(&self, days: u32) -> dosscope_types::TimeSeries {
        let mut steps = vec![0i64; days as usize + 1];
        for u in &self.intervals {
            let until = u.until.0.min(days);
            if u.from.0 < until {
                steps[u.from.0 as usize] += 1;
                steps[until as usize] -= 1;
            }
        }
        let mut ts = dosscope_types::TimeSeries::zeros(days);
        let mut active = 0;
        for (d, step) in (0..days).zip(steps) {
            active += step;
            ts.set(DayIndex(d), active as f64);
        }
        ts
    }

    /// Share of protection intervals using each diversion mechanism —
    /// the DNS-vs-BGP split of Section 2.2 (single sites divert via DNS,
    /// hosters with whole infrastructures via BGP).
    pub fn diversion_split(&self) -> (u64, u64) {
        let dns = self
            .intervals
            .iter()
            .filter(|u| u.diversion == Diversion::Dns)
            .count() as u64;
        (dns, self.interval_count() - dns)
    }

    /// Adoption trend per provider: `(provider, first-day count, last-day
    /// count)` — growth at a glance.
    pub fn adoption_growth(&self, days: u32) -> Vec<(ProviderId, u64, u64)> {
        let last = DayIndex(days.saturating_sub(1));
        let mut counts = vec![(0u64, 0u64); self.providers.len()];
        for u in &self.intervals {
            let (first_day, last_day) = &mut counts[u.provider.0 as usize];
            if u.from.0 == 0 {
                *first_day += 1;
            }
            if u.from <= last && last < u.until {
                *last_day += 1;
            }
        }
        self.providers
            .iter()
            .zip(counts)
            .map(|(p, (first_day, last_day))| (p.id, first_day, last_day))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosscope_dns::{DayRange, Placement, Tld};
    use std::net::Ipv4Addr;

    /// A minimal world: one hoster, two DPS providers (one CNAME-fronting,
    /// one BGP-diverting).
    struct World {
        zone: ZoneStore,
        catalog: OrgCatalog,
        asdb: AsDb,
        hoster: OrgId,
        cloudflare: OrgId,
        level3: OrgId,
    }

    fn world() -> World {
        let mut catalog = OrgCatalog::new();
        let hoster = catalog.add("SomeHost", Some(Asn(64500)), OrgRole::Hoster, false);
        let cloudflare = catalog.add("CloudFlare", Some(Asn(13335)), OrgRole::Dps, true);
        let level3 = catalog.add("Level 3", Some(Asn(3356)), OrgRole::Dps, false);
        let mut asdb = AsDb::new();
        asdb.insert("203.0.113.0/24".parse().unwrap(), Asn(64500));
        asdb.insert("104.16.0.0/16".parse().unwrap(), Asn(13335));
        asdb.insert("4.0.0.0/16".parse().unwrap(), Asn(3356));
        World {
            zone: ZoneStore::new(),
            catalog,
            asdb,
            hoster,
            cloudflare,
            level3,
        }
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn detects_cname_fronted_migration() {
        let mut w = world();
        let d = w.zone.add_domain(Tld::Com, DayRange::new(DayIndex(0), DayIndex(200)));
        w.zone.place(Placement {
            domain: d,
            ip: ip("203.0.113.5"),
            days: DayRange::new(DayIndex(0), DayIndex(100)),
            ns: w.hoster,
            cname: None,
        });
        // Migrates to CloudFlare (CNAME + their address space) on day 100.
        w.zone.place(Placement {
            domain: d,
            ip: ip("104.16.1.1"),
            days: DayRange::new(DayIndex(100), DayIndex(200)),
            ns: w.hoster,
            cname: Some(w.cloudflare),
        });
        let ds = DpsDataset::infer(&w.zone, &w.catalog, &w.asdb);
        let (day, provider) = ds.first_use(d).expect("use detected");
        assert_eq!(day, DayIndex(100));
        assert_eq!(ds.providers()[provider.0 as usize].name, "CloudFlare");
        assert!(!ds.is_preexisting(d, &w.zone));
        assert_eq!(ds.migration_day(d, &w.zone), Some(DayIndex(100)));
        assert_eq!(ds.provider_on(d, DayIndex(50)), None);
        assert_eq!(ds.provider_on(d, DayIndex(150)), Some(provider));
        let iv = ds.intervals_of(d)[0];
        assert_eq!(iv.diversion, Diversion::Dns);
    }

    #[test]
    fn detects_bgp_diversion_without_dns_indicators() {
        let mut w = world();
        let d = w.zone.add_domain(Tld::Net, DayRange::new(DayIndex(0), DayIndex(100)));
        // The site's own hoster runs DNS, but the prefix routes to Level 3
        // (scrubbing-centre announcement).
        w.zone.place(Placement {
            domain: d,
            ip: ip("4.0.7.7"),
            days: DayRange::new(DayIndex(20), DayIndex(100)),
            ns: w.hoster,
            cname: None,
        });
        let ds = DpsDataset::infer(&w.zone, &w.catalog, &w.asdb);
        let iv = ds.intervals_of(d)[0];
        assert_eq!(iv.diversion, Diversion::Bgp);
        assert_eq!(ds.providers()[iv.provider.0 as usize].name, "Level 3");
        let _ = w.level3;
    }

    #[test]
    fn preexisting_customer_classified() {
        let mut w = world();
        let d = w
            .zone
            .add_domain(Tld::Org, DayRange::new(DayIndex(30), DayIndex(100)));
        w.zone.place(Placement {
            domain: d,
            ip: ip("104.16.2.2"),
            days: DayRange::new(DayIndex(30), DayIndex(100)),
            ns: w.hoster,
            cname: Some(w.cloudflare),
        });
        let ds = DpsDataset::infer(&w.zone, &w.catalog, &w.asdb);
        assert!(ds.is_preexisting(d, &w.zone));
        assert_eq!(ds.migration_day(d, &w.zone), None);
    }

    #[test]
    fn unprotected_domain_has_no_entries() {
        let mut w = world();
        let d = w.zone.add_domain(Tld::Com, DayRange::new(DayIndex(0), DayIndex(50)));
        w.zone.place(Placement {
            domain: d,
            ip: ip("203.0.113.9"),
            days: DayRange::new(DayIndex(0), DayIndex(50)),
            ns: w.hoster,
            cname: None,
        });
        let ds = DpsDataset::infer(&w.zone, &w.catalog, &w.asdb);
        assert!(ds.first_use(d).is_none());
        assert!(!ds.is_preexisting(d, &w.zone));
        assert_eq!(ds.protected_count(), 0);
    }

    #[test]
    fn customer_counts_per_provider() {
        let mut w = world();
        for i in 0..5u32 {
            let d = w.zone.add_domain(Tld::Com, DayRange::new(DayIndex(0), DayIndex(50)));
            w.zone.place(Placement {
                domain: d,
                ip: ip(&format!("104.16.3.{i}")),
                days: DayRange::new(DayIndex(0), DayIndex(50)),
                ns: w.hoster,
                cname: Some(w.cloudflare),
            });
        }
        let ds = DpsDataset::infer(&w.zone, &w.catalog, &w.asdb);
        let cf = ds.provider_by_name("CloudFlare").unwrap().id;
        let l3 = ds.provider_by_name("Level 3").unwrap().id;
        assert_eq!(ds.customer_count(cf), 5);
        assert_eq!(ds.customer_count(l3), 0);
        assert_eq!(ds.protected_count(), 5);
    }

    #[test]
    fn diversion_split_counts_both_mechanisms() {
        let mut w = world();
        let d0 = w.zone.add_domain(Tld::Com, DayRange::new(DayIndex(0), DayIndex(10)));
        w.zone.place(Placement {
            domain: d0,
            ip: ip("104.16.0.1"),
            days: DayRange::new(DayIndex(0), DayIndex(10)),
            ns: w.hoster,
            cname: Some(w.cloudflare), // DNS diversion
        });
        let d1 = w.zone.add_domain(Tld::Com, DayRange::new(DayIndex(0), DayIndex(10)));
        w.zone.place(Placement {
            domain: d1,
            ip: ip("4.0.1.1"), // Level 3 space, no DNS indicator: BGP
            days: DayRange::new(DayIndex(0), DayIndex(10)),
            ns: w.hoster,
            cname: None,
        });
        let ds = DpsDataset::infer(&w.zone, &w.catalog, &w.asdb);
        assert_eq!(ds.diversion_split(), (1, 1));
    }

    #[test]
    fn adoption_series_counts_active_protection() {
        let mut w = world();
        // One preexisting customer, one migrating on day 50.
        let d0 = w.zone.add_domain(Tld::Com, DayRange::new(DayIndex(0), DayIndex(100)));
        w.zone.place(Placement {
            domain: d0,
            ip: ip("104.16.0.1"),
            days: DayRange::new(DayIndex(0), DayIndex(100)),
            ns: w.hoster,
            cname: Some(w.cloudflare),
        });
        let d1 = w.zone.add_domain(Tld::Com, DayRange::new(DayIndex(0), DayIndex(100)));
        w.zone.place(Placement {
            domain: d1,
            ip: ip("203.0.113.4"),
            days: DayRange::new(DayIndex(0), DayIndex(50)),
            ns: w.hoster,
            cname: None,
        });
        w.zone.place(Placement {
            domain: d1,
            ip: ip("104.16.0.2"),
            days: DayRange::new(DayIndex(50), DayIndex(100)),
            ns: w.hoster,
            cname: Some(w.cloudflare),
        });
        let ds = DpsDataset::infer(&w.zone, &w.catalog, &w.asdb);
        let ts = ds.adoption_series(100);
        assert_eq!(ts.get(DayIndex(0)), 1.0);
        assert_eq!(ts.get(DayIndex(49)), 1.0);
        assert_eq!(ts.get(DayIndex(50)), 2.0, "adoption grows after migration");
        assert_eq!(ts.get(DayIndex(99)), 2.0);
        let growth = ds.adoption_growth(100);
        let cf = ds.provider_by_name("CloudFlare").unwrap().id;
        let row = growth.iter().find(|(p, _, _)| *p == cf).unwrap();
        assert_eq!((row.1, row.2), (1, 2));
    }

    #[test]
    fn empty_placement_intervals_ignored() {
        let mut w = world();
        let d = w.zone.add_domain(Tld::Com, DayRange::new(DayIndex(0), DayIndex(50)));
        w.zone.place(Placement {
            domain: d,
            ip: ip("203.0.113.1"),
            days: DayRange::new(DayIndex(0), DayIndex(50)),
            ns: w.hoster,
            cname: None,
        });
        // Truncating at day 0 leaves an empty interval behind.
        w.zone.truncate_at(d, DayIndex(0));
        w.zone.place(Placement {
            domain: d,
            ip: ip("104.16.9.9"),
            days: DayRange::new(DayIndex(0), DayIndex(50)),
            ns: w.hoster,
            cname: Some(w.cloudflare),
        });
        let ds = DpsDataset::infer(&w.zone, &w.catalog, &w.asdb);
        assert!(ds.is_preexisting(d, &w.zone));
        assert_eq!(ds.intervals_of(d).len(), 1);
    }
}
