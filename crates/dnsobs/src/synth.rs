//! Population synthesis: a scaled `.com`/`.net`/`.org` namespace with a
//! realistic hosting structure.
//!
//! What the paper *measured* — and what the synthesis therefore must
//! produce structurally — is:
//!
//! * a namespace split roughly 83/10/7 across the three gTLDs (Table 2);
//! * a heavily skewed co-hosting distribution: most hosting IPs carry one
//!   site, a long tail of hoster IPs carry thousands to millions
//!   (Figure 6), with named mega-parties (GoDaddy, Wix-in-AWS, WordPress,
//!   Squarespace, OVH, reseller parking in AWS, ...);
//! * a minority of sites pre-protected by one of ten DPS providers with a
//!   market-share profile like Table 3;
//! * churn: sites appear and disappear during the window (the last day
//!   sees ~73 % of the two-year population).
//!
//! The synthesis is deterministic for a given config and never looks at
//! attack data; targeting decisions live in `dosscope-attackgen`.

use crate::catalog::{OrgCatalog, OrgId, OrgRole};
use crate::store::{DayRange, Placement, Tld, ZoneStore};
use dosscope_geo::{AsRegistry, OrgKind};
use dosscope_types::DayIndex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

/// Configuration for the synthetic namespace.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// RNG seed.
    pub seed: u64,
    /// Total Web sites over the whole window (the paper's 210 M, scaled).
    pub total_sites: u32,
    /// Window length in days (731).
    pub days: u32,
    /// Fraction of sites protected by a DPS from their first appearance
    /// ("preexisting customers"). The paper implies ≈12 % overall.
    pub preexisting_dps_fraction: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            seed: 0xD05,
            total_sites: 105_000, // 210 M / 2000
            days: 731,
            preexisting_dps_fraction: 0.12,
        }
    }
}

/// A hosting IP with its organisation and planned capacity; the attack
/// generator uses this inventory for target selection.
#[derive(Debug, Clone)]
pub struct HostingSlot {
    /// The shared hosting address.
    pub ip: Ipv4Addr,
    /// Operating organisation.
    pub org: OrgId,
    /// Number of sites planned onto this IP.
    pub capacity: u32,
}

/// The synthesized population.
pub struct SynthOutput {
    /// The zone store with all placements.
    pub zone: ZoneStore,
    /// The organisation catalog (hosters, platforms, clouds, DPS).
    pub catalog: OrgCatalog,
    /// Hosting-slot inventory (including DPS slots), largest first.
    pub slots: Vec<HostingSlot>,
}

/// Mega-parties and the share of all Web sites they host. Shares echo the
/// paper's Section 5 findings (GoDaddy/Google/Wix the most frequently hit
/// large parties; a reseller parking in AWS; Wix fronted by CNAME inside
/// AWS).
const MEGA_HOSTERS: &[(&str, f64, u32, bool)] = &[
    // (name, share of sites, number of IPs, cname-fronted)
    ("GoDaddy", 0.120, 20, false),
    ("Google Cloud", 0.060, 12, false),
    ("Wix", 0.0015, 2, true),
    ("Automattic (WordPress)", 0.025, 2, true),
    ("Squarespace", 0.020, 3, true),
    ("AWS Reseller Parking", 0.020, 2, true),
    ("Endurance (EIG)", 0.020, 8, false),
    ("eNom", 0.0012, 1, false),
    ("Network Solutions", 0.010, 4, false),
    ("OVH", 0.030, 15, false),
    ("Gandi", 0.010, 4, false),
];

/// The ten DPS providers with Table-3-like customer-share weights.
const DPS_PROVIDERS: &[(&str, f64)] = &[
    ("Neustar", 0.262),
    ("DOSarrest", 0.171),
    ("Akamai", 0.142),
    ("Verisign", 0.105),
    ("CloudFlare", 0.104),
    ("Incapsula", 0.092),
    ("F5 Networks", 0.087),
    ("CenturyLink", 0.021),
    ("Level 3", 0.011),
    ("VirtualRoad", 0.000_005),
];

/// Build the organisation catalog for a registry: mega-hosters, DPS
/// providers, plus every generic hoster AS in the plan.
pub fn build_catalog(registry: &AsRegistry) -> OrgCatalog {
    let mut cat = OrgCatalog::new();
    for &(name, _, _, fronted) in MEGA_HOSTERS {
        let (asn, role) = match name {
            // Wix and the reseller live inside AWS: no own AS.
            "Wix" => (None, OrgRole::Platform),
            "AWS Reseller Parking" => (None, OrgRole::Reseller),
            "Google Cloud" => (
                registry.by_name("Google Cloud").map(|a| a.asn),
                OrgRole::Cloud,
            ),
            _ => (registry.by_name(name).map(|a| a.asn), OrgRole::Hoster),
        };
        cat.add(name, asn, role, fronted);
    }
    for &(name, _) in DPS_PROVIDERS {
        let asn = registry.by_name(name).map(|a| a.asn);
        // All considered DPS providers divert via DNS (CNAME fronting)
        // and/or BGP; fingerprints carry both.
        cat.add(name, asn, OrgRole::Dps, true);
    }
    // Generic hosters from the plan.
    for a in registry.ases_of_kind(OrgKind::Hoster) {
        if cat.by_name(&a.name).is_none() {
            cat.add(&a.name, Some(a.asn), OrgRole::Hoster, false);
        }
    }
    cat
}

/// The ten DPS provider names in Table 3 order.
pub fn dps_provider_names() -> Vec<&'static str> {
    DPS_PROVIDERS.iter().map(|&(n, _)| n).collect()
}

/// Synthesize the population.
pub fn synthesize(config: &SynthConfig, registry: &AsRegistry) -> SynthOutput {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let catalog = build_catalog(registry);

    // ---- Plan hosting slots -------------------------------------------
    let mut slots: Vec<HostingSlot> = Vec::new();
    let total = config.total_sites as f64;

    let org_ip = |name: &str, rng: &mut SmallRng| -> Ipv4Addr {
        // An organisation's slots live in its own AS, or in AWS when it
        // has none (Wix, the reseller).
        let info = registry
            .by_name(name)
            .or_else(|| registry.by_name("Amazon AWS"))
            .expect("AWS exists in every plan");
        info.sample_addr(rng)
    };

    let mut planned: u64 = 0;
    for &(name, share, ips, _) in MEGA_HOSTERS {
        let org = catalog.by_name(name).expect("mega hosters in catalog").id;
        let per_ip = ((total * share) / ips as f64).ceil().max(1.0) as u32;
        for _ in 0..ips {
            slots.push(HostingSlot {
                ip: org_ip(name, &mut rng),
                org,
                capacity: per_ip,
            });
            planned += per_ip as u64;
        }
    }

    // DPS slots for preexisting customers.
    let dps_total = total * config.preexisting_dps_fraction;
    let dps_share_sum: f64 = DPS_PROVIDERS.iter().map(|&(_, s)| s).sum();
    for &(name, share) in DPS_PROVIDERS {
        let org = catalog.by_name(name).expect("DPS in catalog").id;
        let sites = (dps_total * share / dps_share_sum).round() as u32;
        // DOSarrest concentrates customers on very few addresses (its IP
        // tops the paper's co-hosting bins); other providers spread
        // customers over many scrubbing IPs, so an attack on one touches
        // only a slice of their customers. Everyone gets at least one.
        let n_ips = if name == "DOSarrest" {
            1
        } else {
            (sites / 120).max(1)
        };
        let per_ip = (sites / n_ips).max(1);
        for _ in 0..n_ips {
            slots.push(HostingSlot {
                ip: org_ip(name, &mut rng),
                org,
                capacity: per_ip,
            });
            planned += per_ip as u64;
        }
    }

    // Mid-size hosters: log-uniform capacities 10..2000 on hoster ASes.
    let hoster_orgs: Vec<OrgId> = catalog
        .by_role(OrgRole::Hoster)
        .map(|o| o.id)
        .collect();
    let mid_budget = (total * 0.27) as u64;
    let mut used = 0u64;
    // Mid-size capacities scale with the namespace so the co-hosting
    // ranking keeps DOSarrest's concentrated slot at the top (paper
    // footnote 13) at every scale.
    let mid_cap = (total * 0.018).max(20.0) as u32;
    while used < mid_budget {
        let org = hoster_orgs[rng.gen_range(0..hoster_orgs.len())];
        let capacity = (10.0_f64.powf(rng.gen_range(1.0..3.3)) as u32).min(mid_cap);
        slots.push(HostingSlot {
            ip: org_ip(&catalog.get(org).name, &mut rng),
            org,
            capacity,
        });
        used += capacity as u64;
        planned += capacity as u64;
    }

    // Small/self-hosted: capacity 1-5 slots on arbitrary (ISP/enterprise)
    // space fill the remainder.
    let small_org = {
        // A catch-all "self-hosted" org: NS at the registrar, no CNAME.
        let mut cat2 = catalog; // move to mutate once more
        let id = cat2.add("Self-hosted", None, OrgRole::Hoster, false);
        slots_fill_small(&mut rng, registry, &mut slots, id, config.total_sites as u64, &mut planned);
        (cat2, id)
    };
    let (catalog, _small_org_id) = small_org;

    // Largest slots first: attackgen aims "big hoster" peaks at the head.
    slots.sort_by_key(|s| std::cmp::Reverse(s.capacity));

    // ---- Create sites and deal them onto slots ------------------------
    // One placement per site, on at most one address per slot.
    let mut zone = ZoneStore::with_capacity(config.total_sites as usize, slots.len());
    let window = DayRange::new(DayIndex(0), DayIndex(config.days));
    // Expand slot capacities into a deal order: site k lands on deal[k].
    let mut deal: Vec<u32> = Vec::with_capacity(config.total_sites as usize);
    for (i, s) in slots.iter().enumerate() {
        for _ in 0..s.capacity {
            deal.push(i as u32);
        }
    }
    // Truncate/extend to the exact population size (extend onto small
    // slots by repeating the tail).
    while deal.len() < config.total_sites as usize {
        let tail = deal[deal.len() - 1];
        deal.push(tail);
    }
    deal.truncate(config.total_sites as usize);

    for (n, &slot_idx) in deal.iter().enumerate() {
        let slot = &slots[slot_idx as usize];
        let tld = match rng.gen_range(0..1000) {
            0..=826 => Tld::Com,
            827..=929 => Tld::Net,
            _ => Tld::Org,
        };
        // Lifetimes: ~60 % full window, ~25 % appear later, ~15 %
        // disappear. DPS-protected sites are overwhelmingly established
        // businesses: almost all full-window.
        // Both bounds are floored at 1 so that a window under 10 days
        // still draws from a non-empty range and every lifetime keeps at
        // least its first day; from 10 days up the ranges are unchanged.
        let is_dps = catalog.get(slot.org).role == OrgRole::Dps;
        let last_start = (config.days * 9 / 10).max(1);
        let first_end = (config.days / 10).max(1);
        let active = match rng.gen_range(0..100) {
            _ if is_dps && rng.gen_range(0..100) < 85 => window,
            0..=59 => window,
            60..=84 => DayRange::new(DayIndex(rng.gen_range(0..last_start)), window.end),
            _ => DayRange::new(
                window.start,
                DayIndex(rng.gen_range(first_end..config.days.max(first_end + 1))),
            ),
        };
        let d = zone.add_domain(tld, active);
        debug_assert_eq!(d.0 as usize, n);
        let org = catalog.get(slot.org);
        zone.place(Placement {
            domain: d,
            ip: slot.ip,
            days: active,
            ns: slot.org,
            cname: org.cname_suffix.is_some().then_some(slot.org),
        });
    }

    // Shared infrastructure: each organisation with hosting customers
    // gets mail exchangers and authoritative name servers in its own
    // address space (AWS for the orgs hosted there). An attack on one of
    // these addresses affects the mail/DNS of every customer domain.
    {
        use crate::store::OrgInfra;
        let mut orgs_with_customers: Vec<OrgId> = slots.iter().map(|s| s.org).collect();
        orgs_with_customers.sort_unstable();
        orgs_with_customers.dedup();
        for org in orgs_with_customers {
            let name = &catalog.get(org).name;
            let n_mx = if name == "GoDaddy" { 3 } else { 1 };
            let mx_ips = (0..n_mx).map(|_| org_ip(name, &mut rng)).collect();
            let ns_ips = (0..2).map(|_| org_ip(name, &mut rng)).collect();
            zone.register_infra(OrgInfra { org, mx_ips, ns_ips });
        }
    }

    SynthOutput {
        zone,
        catalog,
        slots,
    }
}

fn slots_fill_small(
    rng: &mut SmallRng,
    registry: &AsRegistry,
    slots: &mut Vec<HostingSlot>,
    self_hosted: OrgId,
    total_sites: u64,
    planned: &mut u64,
) {
    let ases: Vec<&dosscope_geo::AsInfo> = registry
        .ases()
        .iter()
        .filter(|a| matches!(a.kind, OrgKind::Isp | OrgKind::Enterprise))
        .collect();
    assert!(!ases.is_empty(), "registry without generic space");
    while *planned < total_sites {
        let a = ases[rng.gen_range(0..ases.len())];
        // Mostly single-site IPs with a thin tail up to a few tens,
        // filling the 1..100 co-hosting decades of Figure 6.
        let capacity = if rng.gen_bool(0.55) {
            1
        } else {
            10.0_f64.powf(rng.gen_range(0.1..1.6)) as u32
        };
        slots.push(HostingSlot {
            ip: a.sample_addr(rng),
            org: self_hosted,
            capacity,
        });
        *planned += capacity as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosscope_geo::RegistryConfig;
    use dosscope_types::LogHistogram;

    fn small_synth() -> SynthOutput {
        let registry = AsRegistry::build(&RegistryConfig::default());
        let config = SynthConfig {
            total_sites: 20_000,
            ..SynthConfig::default()
        };
        synthesize(&config, &registry)
    }

    #[test]
    fn population_size_and_tld_split() {
        let out = small_synth();
        assert_eq!(out.zone.domain_count(), 20_000);
        let sites = out.zone.tld_totals();
        let com = sites[Tld::Com as usize].0 as f64 / 20_000.0;
        let net = sites[Tld::Net as usize].0 as f64 / 20_000.0;
        let org = sites[Tld::Org as usize].0 as f64 / 20_000.0;
        assert!((com - 0.827).abs() < 0.02, "com share {com}");
        assert!((net - 0.103).abs() < 0.02, "net share {net}");
        assert!((org - 0.070).abs() < 0.02, "org share {org}");
    }

    #[test]
    fn cohosting_distribution_is_heavy_tailed() {
        let out = small_synth();
        let mut hist = LogHistogram::new(7);
        // Count sites per hosting IP mid-window.
        let mut seen = std::collections::HashSet::new();
        for s in &out.slots {
            if seen.insert(s.ip) {
                let n = out.zone.domains_on_ip(s.ip, DayIndex(365)).len() as u64;
                hist.push(n);
            }
        }
        let bins = hist.bins();
        // Single-site IPs dominate in count; some IPs host >100 sites.
        assert!(bins[0] + bins[1] > bins[2], "small slots dominate: {bins:?}");
        assert!(
            bins[3] + bins[4] + bins[5] > 0,
            "large co-hosting groups exist: {bins:?}"
        );
    }

    #[test]
    fn mega_hosters_have_big_slots() {
        let out = small_synth();
        let godaddy = out.catalog.by_name("GoDaddy").unwrap().id;
        let biggest_godaddy = out
            .slots
            .iter()
            .filter(|s| s.org == godaddy)
            .map(|s| out.zone.domains_on_ip(s.ip, DayIndex(0)).len())
            .max()
            .unwrap();
        assert!(
            biggest_godaddy > 50,
            "GoDaddy IPs must be heavily co-hosted, got {biggest_godaddy}"
        );
    }

    #[test]
    fn preexisting_dps_customers_exist_with_market_shares() {
        let out = small_synth();
        let mut counts: Vec<(String, usize)> = Vec::new();
        for &(name, _) in DPS_PROVIDERS {
            let org = out.catalog.by_name(name).unwrap().id;
            let n: usize = out
                .slots
                .iter()
                .filter(|s| s.org == org)
                .map(|s| out.zone.domains_on_ip(s.ip, DayIndex(0)).len())
                .sum();
            counts.push((name.to_string(), n));
        }
        let total: usize = counts.iter().map(|(_, n)| n).sum();
        let frac = total as f64 / 20_000.0;
        assert!(
            (0.06..0.20).contains(&frac),
            "preexisting DPS fraction ≈12 %, got {frac}"
        );
        // Neustar is the largest provider; VirtualRoad is tiny.
        let neustar = counts.iter().find(|(n, _)| n == "Neustar").unwrap().1;
        let vroad = counts.iter().find(|(n, _)| n == "VirtualRoad").unwrap().1;
        assert!(neustar > vroad * 10);
    }

    #[test]
    fn wix_lives_in_aws_space() {
        let registry = AsRegistry::build(&RegistryConfig::default());
        let out = synthesize(
            &SynthConfig {
                total_sites: 20_000,
                ..SynthConfig::default()
            },
            &registry,
        );
        let asdb = registry.build_asdb();
        let aws = registry.by_name("Amazon AWS").unwrap().asn;
        let wix = out.catalog.by_name("Wix").unwrap().id;
        for s in out.slots.iter().filter(|s| s.org == wix) {
            assert_eq!(asdb.asn_of(s.ip), Some(aws), "Wix slot {} not in AWS", s.ip);
        }
    }

    #[test]
    fn deterministic() {
        let registry = AsRegistry::build(&RegistryConfig::default());
        let cfg = SynthConfig {
            total_sites: 5_000,
            ..SynthConfig::default()
        };
        let a = synthesize(&cfg, &registry);
        let b = synthesize(&cfg, &registry);
        assert_eq!(a.zone.domain_count(), b.zone.domain_count());
        for d in a.zone.domain_ids().take(200) {
            assert_eq!(a.zone.ip_of(d, DayIndex(100)), b.zone.ip_of(d, DayIndex(100)));
        }
    }

    #[test]
    fn churn_leaves_most_sites_active_at_end() {
        let out = small_synth();
        let last = out.zone.active_on_day(DayIndex(730));
        let frac = last as f64 / 20_000.0;
        assert!(
            (0.6..0.95).contains(&frac),
            "~73 % of sites active on the last day, got {frac}"
        );
    }

    #[test]
    fn catalog_has_all_parties() {
        let out = small_synth();
        for name in dps_provider_names() {
            assert!(out.catalog.by_name(name).is_some(), "{name} missing");
        }
        assert!(out.catalog.by_name("GoDaddy").is_some());
        assert!(out.catalog.by_name("Self-hosted").is_some());
    }
}
