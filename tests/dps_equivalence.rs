//! Differential test: `DpsDataset`, a compressed-sparse-row table built
//! in one pass over the zone in `DomainId` order, must equal the plain
//! data set kept here as the oracle — one hash-map entry and one heap
//! vector per protected domain, and every aggregate recomputed from the
//! map. Compared per domain (`intervals_of`, `first_use`,
//! `is_preexisting`, `migration_day`, `provider_on` on sampled days) and
//! in aggregate (`customer_count`, `protected_count`, `diversion_split`,
//! `adoption_growth`, and `adoption_series` bit for bit).

use dosscope_attackgen::config::Calibration;
use dosscope_attackgen::{GenConfig, Generator, MigrationModel};
use dosscope_dns::synth::{synthesize, SynthConfig};
use dosscope_dns::{DayRange, DomainId, OrgCatalog, OrgId, OrgRole, Placement, Tld, ZoneStore};
use dosscope_dps::{Diversion, DpsDataset, ProviderId, UseInterval};
use dosscope_geo::{AsDb, AsRegistry, RegistryConfig};
use dosscope_harness::ScenarioConfig;
use dosscope_types::{Asn, DayIndex, TimeSeries};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The oracle: a hash map from protected domain to its intervals.
struct Oracle {
    providers: Vec<ProviderId>,
    per_domain: HashMap<DomainId, Vec<UseInterval>>,
}

impl Oracle {
    fn infer(zone: &ZoneStore, catalog: &OrgCatalog, asdb: &AsDb) -> Oracle {
        let dps: Vec<(ProviderId, OrgId)> = catalog
            .by_role(OrgRole::Dps)
            .enumerate()
            .map(|(i, o)| (ProviderId(i as u8), o.id))
            .collect();
        let by_org: HashMap<OrgId, ProviderId> = dps.iter().map(|&(p, o)| (o, p)).collect();
        let by_asn: HashMap<Asn, ProviderId> = dps
            .iter()
            .filter_map(|&(p, o)| catalog.get(o).asn.map(|a| (a, p)))
            .collect();
        let mut per_domain: HashMap<DomainId, Vec<UseInterval>> = HashMap::new();
        for domain in zone.domain_ids() {
            for placement in zone.placements_of(domain) {
                if placement.days.is_empty() {
                    continue;
                }
                let dns_hit = placement
                    .cname
                    .and_then(|c| by_org.get(&c))
                    .or_else(|| by_org.get(&placement.ns));
                let (provider, diversion) = match dns_hit {
                    Some(&p) => (Some(p), Diversion::Dns),
                    None => (
                        asdb.asn_of(placement.ip).and_then(|a| by_asn.get(&a).copied()),
                        Diversion::Bgp,
                    ),
                };
                if let Some(provider) = provider {
                    per_domain.entry(domain).or_default().push(UseInterval {
                        provider,
                        from: placement.days.start,
                        until: placement.days.end,
                        diversion,
                    });
                }
            }
        }
        for intervals in per_domain.values_mut() {
            intervals.sort_by_key(|u| u.from);
        }
        Oracle {
            providers: dps.into_iter().map(|(p, _)| p).collect(),
            per_domain,
        }
    }

    fn intervals_of(&self, domain: DomainId) -> &[UseInterval] {
        self.per_domain.get(&domain).map(|v| v.as_slice()).unwrap_or(&[])
    }

    fn first_use(&self, domain: DomainId) -> Option<(DayIndex, ProviderId)> {
        self.intervals_of(domain).first().map(|u| (u.from, u.provider))
    }

    fn provider_on(&self, domain: DomainId, day: DayIndex) -> Option<ProviderId> {
        self.intervals_of(domain)
            .iter()
            .find(|u| u.from <= day && day < u.until)
            .map(|u| u.provider)
    }

    fn customer_count(&self, provider: ProviderId) -> u64 {
        self.per_domain
            .values()
            .filter(|v| v.iter().any(|u| u.provider == provider))
            .count() as u64
    }

    fn adoption_series(&self, days: u32) -> TimeSeries {
        let mut ts = TimeSeries::zeros(days);
        for u in self.per_domain.values().flatten() {
            for d in u.from.0..u.until.0.min(days) {
                ts.add(DayIndex(d), 1.0);
            }
        }
        ts
    }

    fn diversion_split(&self) -> (u64, u64) {
        let all = self.per_domain.values().flatten();
        let dns = all.clone().filter(|u| u.diversion == Diversion::Dns).count();
        (dns as u64, (all.count() - dns) as u64)
    }

    fn adoption_growth(&self, days: u32) -> Vec<(ProviderId, u64, u64)> {
        let last = DayIndex(days.saturating_sub(1));
        self.providers
            .iter()
            .map(|&p| {
                let mine = self.per_domain.values().flatten().filter(|u| u.provider == p);
                let first_day = mine.clone().filter(|u| u.from.0 == 0).count() as u64;
                let last_day = mine.filter(|u| u.from <= last && last < u.until).count() as u64;
                (p, first_day, last_day)
            })
            .collect()
    }
}

/// Infer both data sets from one zone and compare everything; returns
/// the table for case-specific checks.
fn assert_matches_oracle(
    what: &str,
    zone: &ZoneStore,
    catalog: &OrgCatalog,
    asdb: &AsDb,
    days: u32,
) -> DpsDataset {
    let got = DpsDataset::infer(zone, catalog, asdb);
    let want = Oracle::infer(zone, catalog, asdb);

    let ids: Vec<ProviderId> = got.providers().iter().map(|p| p.id).collect();
    assert_eq!(ids, want.providers, "{what}: providers");
    // Three ids past the zone too: they must read as unprotected.
    for id in 0..zone.domain_count() as u32 + 3 {
        let d = DomainId(id);
        assert_eq!(got.intervals_of(d), want.intervals_of(d), "{what}: intervals of {d:?}");
        assert_eq!(got.first_use(d), want.first_use(d), "{what}: first use of {d:?}");
        let mut sample_days: Vec<u32> = (0..days + 2).step_by(97).collect();
        for u in want.intervals_of(d) {
            let (from, until) = (u.from.0, u.until.0);
            sample_days.extend([from.saturating_sub(1), from, until - 1, until]);
        }
        for day in sample_days.into_iter().map(DayIndex) {
            assert_eq!(
                got.provider_on(d, day),
                want.provider_on(d, day),
                "{what}: provider of {d:?} on {day:?}"
            );
        }
        if (id as usize) < zone.domain_count() {
            let first_seen = zone.first_seen(d);
            let preexisting = want.first_use(d).is_some_and(|(day, _)| day <= first_seen);
            let migration = want.first_use(d).map(|(day, _)| day).filter(|&day| day > first_seen);
            assert_eq!(got.is_preexisting(d, zone), preexisting, "{what}: {d:?} preexisting");
            assert_eq!(got.migration_day(d, zone), migration, "{what}: {d:?} migration day");
        }
    }

    let counts: Vec<u64> = ids.iter().map(|&p| want.customer_count(p)).collect();
    assert_eq!(got.customer_counts(), counts, "{what}: customer counts");
    for (&p, &n) in ids.iter().zip(&counts) {
        assert_eq!(got.customer_count(p), n, "{what}: customers of {p:?}");
    }
    assert_eq!(got.protected_count(), want.per_domain.len() as u64, "{what}: protected");
    let intervals = want.per_domain.values().map(Vec::len).sum::<usize>() as u64;
    assert_eq!(got.interval_count(), intervals, "{what}: intervals");
    assert_eq!(got.diversion_split(), want.diversion_split(), "{what}: diversion split");
    // The study window, a shorter horizon that clips intervals, and none.
    for horizon in [days, days / 3, 1, 0] {
        assert_eq!(
            got.adoption_growth(horizon),
            want.adoption_growth(horizon),
            "{what}: adoption growth over {horizon} days"
        );
        let bits = |ts: TimeSeries| ts.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(got.adoption_series(horizon)),
            bits(want.adoption_series(horizon)),
            "{what}: adoption series over {horizon} days"
        );
    }
    got
}

/// The zone `Scenario::run` infers from — generated, then mutated by the
/// migration model — with its catalog and routing table.
fn assert_generated_world_matches(config: &ScenarioConfig) {
    let registry = AsRegistry::build(&RegistryConfig {
        seed: config.seed ^ 0x9E0,
        ..RegistryConfig::default()
    });
    let asdb = registry.build_asdb();
    let mut synth = synthesize(
        &SynthConfig {
            seed: config.seed ^ 0xD45,
            total_sites: config.total_sites(),
            days: config.days,
            ..SynthConfig::default()
        },
        &registry,
    );
    let gen_config = GenConfig {
        seed: config.seed ^ 0xA77,
        days: config.days,
        scale: config.scale,
        ..GenConfig::default()
    };
    let cal = Calibration::default();
    let truth =
        Generator::new(gen_config.clone(), Calibration::default(), &registry, &synth).generate();
    let outcome = MigrationModel::apply(&gen_config, &cal, &truth, &mut synth);
    assert!(!outcome.migrations.is_empty(), "the world has migrations");
    let what = format!("{config:?}");
    let dps = assert_matches_oracle(&what, &synth.zone, &synth.catalog, &asdb, config.days);
    assert!(dps.protected_count() > 0, "{what}: the world has DPS customers");
}

#[test]
fn generated_world_matches_the_oracle() {
    assert_generated_world_matches(&ScenarioConfig::test_small());
}

#[test]
#[ignore = "scale 600 is slow in a debug build; ci.sh runs it in release"]
fn scale_600_matches_the_oracle() {
    assert_generated_world_matches(&ScenarioConfig {
        scale: 600.0,
        ..ScenarioConfig::test_small()
    });
}

/// The scale-600 world in 120 days, whose migrations the co-host index
/// planned from compressed day ranges.
#[test]
#[ignore = "scale 600 is slow in a debug build; ci.sh runs it in release"]
fn scale_600_days_120_matches_the_oracle() {
    assert_generated_world_matches(&ScenarioConfig {
        scale: 600.0,
        days: 120,
        ..ScenarioConfig::test_small()
    });
}

#[test]
fn hand_built_zone_matches_the_oracle() {
    let mut catalog = OrgCatalog::new();
    let hoster = catalog.add("SomeHost", Some(Asn(64500)), OrgRole::Hoster, false);
    let fronting = catalog.add("CloudFlare", Some(Asn(13335)), OrgRole::Dps, true);
    let scrubbing = catalog.add("Level 3", Some(Asn(3356)), OrgRole::Dps, false);
    let dns_only = catalog.add("VirtualRoad", None, OrgRole::Dps, false);
    let mut asdb = AsDb::new();
    asdb.insert("203.0.113.0/24".parse().unwrap(), Asn(64500));
    asdb.insert("104.16.0.0/16".parse().unwrap(), Asn(13335));
    asdb.insert("4.0.0.0/16".parse().unwrap(), Asn(3356));

    let mut zone = ZoneStore::new();
    let range = |a: u32, b: u32| DayRange::new(DayIndex(a), DayIndex(b));
    let ip = |s: &str| -> Ipv4Addr { s.parse().unwrap() };
    let place = |zone: &mut ZoneStore, domain, addr, days, ns, cname| {
        zone.place(Placement {
            domain,
            ip: ip(addr),
            days,
            ns,
            cname,
        });
    };

    // No placements at all.
    let bare = zone.add_domain(Tld::Com, range(0, 100));
    // Hosted, never protected.
    let plain = zone.add_domain(Tld::Net, range(0, 100));
    place(&mut zone, plain, "203.0.113.1", range(0, 100), hoster, None);
    // Migrates on day 40 into a placement truncated to empty, then is
    // re-placed behind the CNAME-fronting provider from the same day.
    let truncated = zone.add_domain(Tld::Com, range(0, 100));
    place(&mut zone, truncated, "203.0.113.2", range(0, 40), hoster, None);
    place(&mut zone, truncated, "203.0.113.3", range(40, 100), hoster, None);
    zone.truncate_at(truncated, DayIndex(40));
    place(&mut zone, truncated, "104.16.0.3", range(40, 100), hoster, Some(fronting));
    // Three providers, placed out of day order: BGP diversion first in
    // time, then DNS-only provider NS, then CNAME fronting.
    let hopper = zone.add_domain(Tld::Org, range(10, 100));
    place(&mut zone, hopper, "104.16.0.4", range(70, 100), hoster, Some(fronting));
    place(&mut zone, hopper, "203.0.113.4", range(40, 70), dns_only, None);
    place(&mut zone, hopper, "4.0.0.4", range(10, 40), hoster, None);
    // Returns to the same provider: counts once as its customer.
    let returning = zone.add_domain(Tld::Com, range(0, 100));
    place(&mut zone, returning, "4.0.0.5", range(0, 20), hoster, None);
    place(&mut zone, returning, "203.0.113.5", range(20, 60), hoster, None);
    place(&mut zone, returning, "4.0.0.6", range(60, 100), hoster, None);
    // A CNAME through a non-DPS organisation falls back to the NS check.
    let via_ns = zone.add_domain(Tld::Net, range(5, 100));
    place(&mut zone, via_ns, "203.0.113.7", range(5, 100), scrubbing, Some(hoster));
    // Protected only after a 30-day horizon, and up to the last day.
    let late = zone.add_domain(Tld::Com, range(0, 100));
    place(&mut zone, late, "104.16.0.8", range(50, 100), hoster, Some(fronting));

    let dps = assert_matches_oracle("hand-built zone", &zone, &catalog, &asdb, 100);
    assert_eq!(dps.intervals_of(bare), &[]);
    assert_eq!(dps.intervals_of(plain), &[]);
    assert_eq!(dps.intervals_of(DomainId(zone.domain_count() as u32)), &[]);
    assert_eq!(dps.intervals_of(DomainId(u32::MAX)), &[]);
    assert_eq!(dps.intervals_of(truncated).len(), 1);
    let froms: Vec<u32> = dps.intervals_of(hopper).iter().map(|u| u.from.0).collect();
    assert_eq!(froms, [10, 40, 70], "intervals sorted by start day");
    assert_eq!(dps.protected_count(), 5);
    assert_eq!(dps.customer_counts(), [3, 3, 1]);
    assert_eq!(dps.diversion_split(), (5, 3));
    assert_eq!(dps.customer_count(ProviderId(9)), 0, "no such provider");
}
