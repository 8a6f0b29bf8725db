//! Synthetic Internet address plan: countries, autonomous systems and the
//! prefixes they originate.
//!
//! The plan is deterministic for a given [`RegistryConfig`] and provides
//! the content for both metadata databases ([`crate::GeoDb`],
//! [`crate::AsDb`]). The country weights approximate published IPv4
//! address-space usage estimates ("Lost in Space", JSAC 2016) — e.g. the
//! United States holds by far the most space and Japan ranks third — so
//! that the paper's observation "by-country target ranking follows Internet
//! space usage patterns, with notable exceptions (Japan low, Russia/France
//! high)" is reproducible: the *usage* plan here ranks Japan high while the
//! attack generator's target weights rank it low.
//!
//! Notable real-world organisations (large hosters, clouds, DPS operators)
//! get dedicated ASes with their well-known AS numbers, because Section 5
//! of the paper identifies attack peaks by exactly these names.

use crate::{AsDb, GeoDb};
use dosscope_types::{Asn, CountryCode, Ipv4Cidr};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// What kind of organisation an AS is; drives hosting placement in
/// `dosscope-dns` and the narrative labels of Section 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrgKind {
    /// Access/transit ISP.
    Isp,
    /// Web hosting company (GoDaddy, OVH, ...).
    Hoster,
    /// Public cloud (AWS, Google Cloud).
    Cloud,
    /// DDoS protection service operator.
    Dps,
    /// Anything else (enterprises, universities, ...).
    Enterprise,
}

/// An autonomous system in the synthetic plan.
#[derive(Debug, Clone)]
pub struct AsInfo {
    /// AS number.
    pub asn: Asn,
    /// Organisation name ("GoDaddy", "AS-NN-xx", ...).
    pub name: String,
    /// Registration country.
    pub country: CountryCode,
    /// Organisation kind.
    pub kind: OrgKind,
    /// Prefixes originated by this AS.
    pub prefixes: Vec<Ipv4Cidr>,
}

impl AsInfo {
    /// Total number of addresses across all originated prefixes.
    pub fn address_count(&self) -> u64 {
        self.prefixes.iter().map(|p| p.size()).sum()
    }

    /// Sample a uniformly random address within this AS.
    pub fn sample_addr<R: Rng + ?Sized>(&self, rng: &mut R) -> Ipv4Addr {
        let total = self.address_count();
        debug_assert!(total > 0, "AS without prefixes");
        let mut i = rng.gen_range(0..total);
        for p in &self.prefixes {
            if i < p.size() {
                return p.addr_at(i);
            }
            i -= p.size();
        }
        unreachable!("index within total address count")
    }
}

/// Configuration for the synthetic address plan.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// RNG seed: the whole plan is a pure function of the config.
    pub seed: u64,
    /// The telescope's darknet; never allocated to any AS.
    pub darknet: Ipv4Cidr,
    /// Total number of "generic" prefixes to allocate across countries
    /// (notable organisations get theirs on top). More prefixes mean more
    /// /16 and ASN diversity in the reports.
    pub generic_prefixes: u32,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            seed: 0x005C09E,
            darknet: Ipv4Cidr::new(Ipv4Addr::new(44, 0, 0, 0), 8),
            generic_prefixes: 900,
        }
    }
}

/// Country share of used IPv4 address space, in arbitrary weight units.
/// Approximates published usage estimates; only the ranking and rough
/// proportions matter for the reproduction.
const COUNTRY_USAGE: &[(&str, u32)] = &[
    ("US", 350),
    ("CN", 120),
    ("JP", 63), // ranks third in usage estimates, as the paper notes
    ("DE", 45),
    ("GB", 43),
    ("KR", 40),
    ("FR", 38),
    ("BR", 33),
    ("CA", 30),
    ("IT", 25),
    ("RU", 24),
    ("AU", 22),
    ("NL", 20),
    ("IN", 19),
    ("ES", 17),
    ("MX", 15),
    ("SE", 13),
    ("TW", 12),
    ("PL", 11),
    ("TR", 10),
    ("ZA", 9),
    ("AR", 8),
    ("CH", 8),
    ("VN", 7),
    ("ID", 7),
    ("TH", 6),
    ("UA", 6),
    ("EG", 5),
    ("SA", 5),
    ("NG", 4),
];

/// Notable organisations with dedicated ASes: `(asn, name, country, kind,
/// number of /16-equivalent prefixes)`. AS numbers are the organisations'
/// well-known ones; AS12276 is labelled OVH following the paper's text.
const NOTABLE_ORGS: &[(u32, &str, &str, OrgKind, u32)] = &[
    (26496, "GoDaddy", "US", OrgKind::Hoster, 4),
    (16509, "Amazon AWS", "US", OrgKind::Cloud, 6),
    (15169, "Google Cloud", "US", OrgKind::Cloud, 5),
    (2635, "Automattic (WordPress)", "US", OrgKind::Hoster, 1),
    (53831, "Squarespace", "US", OrgKind::Hoster, 1),
    (12276, "OVH", "FR", OrgKind::Hoster, 4),
    (29169, "Gandi", "FR", OrgKind::Hoster, 1),
    (22612, "eNom", "US", OrgKind::Hoster, 1),
    (19871, "Network Solutions", "US", OrgKind::Hoster, 1),
    (46606, "Endurance (EIG)", "US", OrgKind::Hoster, 2),
    (4134, "China Telecom", "CN", OrgKind::Isp, 6),
    (4837, "China Unicom", "CN", OrgKind::Isp, 5),
    // DPS operators (scrubbing-centre space; BGP-diverted customers land
    // here). Names match the ten providers of Table 3.
    (20940, "Akamai", "US", OrgKind::Dps, 2),
    (209, "CenturyLink", "US", OrgKind::Dps, 2),
    (13335, "CloudFlare", "US", OrgKind::Dps, 2),
    (19324, "DOSarrest", "CA", OrgKind::Dps, 1),
    (55002, "F5 Networks", "US", OrgKind::Dps, 1),
    (19551, "Incapsula", "US", OrgKind::Dps, 1),
    (3356, "Level 3", "US", OrgKind::Dps, 2),
    (19905, "Neustar", "US", OrgKind::Dps, 1),
    (26415, "Verisign", "US", OrgKind::Dps, 1),
    (57363, "VirtualRoad", "DK", OrgKind::Dps, 1),
];

/// The full synthetic address plan plus the two metadata databases built
/// from it.
#[derive(Debug)]
pub struct AsRegistry {
    ases: Vec<AsInfo>,
    by_asn: HashMap<Asn, usize>,
    by_country: HashMap<CountryCode, Vec<usize>>,
    darknet: Ipv4Cidr,
}

/// Sequential prefix allocator over public unicast space that skips
/// reserved ranges and the darknet.
struct Allocator {
    next: u32,
    darknet: Ipv4Cidr,
}

impl Allocator {
    fn new(darknet: Ipv4Cidr) -> Allocator {
        Allocator {
            next: u32::from(Ipv4Addr::new(1, 0, 0, 0)),
            darknet,
        }
    }

    fn reserved(addr: u32) -> Option<Ipv4Cidr> {
        const RESERVED: &[(&str, u8)] = &[
            ("0.0.0.0", 8),
            ("10.0.0.0", 8),
            ("127.0.0.0", 8),
            ("169.254.0.0", 16),
            ("172.16.0.0", 12),
            ("192.168.0.0", 16),
            ("224.0.0.0", 3),
        ];
        let a = Ipv4Addr::from(addr);
        RESERVED
            .iter()
            .map(|(s, l)| Ipv4Cidr::new(s.parse().expect("static addr"), *l))
            .find(|c| c.contains(a))
    }

    /// Allocate the next aligned prefix of length `len`, skipping reserved
    /// space and the darknet.
    fn alloc(&mut self, len: u8) -> Ipv4Cidr {
        let size = 1u64 << (32 - len as u32);
        loop {
            // Align up.
            let aligned = (self.next as u64).div_ceil(size) * size;
            assert!(aligned + size <= u32::MAX as u64 + 1, "address space exhausted");
            let candidate = Ipv4Cidr::new(Ipv4Addr::from(aligned as u32), len);
            if let Some(r) = Self::reserved(aligned as u32) {
                self.next = u32::from(r.last()).saturating_add(1);
                continue;
            }
            if self.darknet.covers(&candidate)
                || candidate.covers(&self.darknet)
                || self.darknet.contains(candidate.first())
            {
                self.next = u32::from(self.darknet.last()).saturating_add(1);
                continue;
            }
            self.next = (aligned + size) as u32;
            return candidate;
        }
    }
}

impl AsRegistry {
    /// Build the plan from a config. Deterministic: equal configs yield an
    /// identical registry.
    pub fn build(config: &RegistryConfig) -> AsRegistry {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut alloc = Allocator::new(config.darknet);
        let mut ases: Vec<AsInfo> = Vec::new();

        // Notable organisations first: fixed ASNs, /16 blocks.
        for &(asn, name, cc, kind, blocks) in NOTABLE_ORGS {
            let prefixes = (0..blocks).map(|_| alloc.alloc(16)).collect();
            ases.push(AsInfo {
                asn: Asn(asn),
                name: name.to_string(),
                country: CountryCode::new(cc),
                kind,
                prefixes,
            });
        }

        // Generic country space: prefixes proportional to usage share,
        // grouped into per-country ASes of ~3 prefixes each.
        let total_weight: u32 = COUNTRY_USAGE.iter().map(|(_, w)| w).sum();
        let mut next_generic_asn = 64500u32;
        for &(cc, weight) in COUNTRY_USAGE {
            let country = CountryCode::new(cc);
            let n_prefixes =
                ((config.generic_prefixes as u64 * weight as u64) / total_weight as u64).max(1);
            let mut remaining = n_prefixes;
            while remaining > 0 {
                let batch = remaining.min(rng.gen_range(2..=4));
                remaining -= batch;
                let prefixes = (0..batch)
                    .map(|_| {
                        // Mix of sizes; /16 dominates, some /15 and /17-/19.
                        let len = *[15u8, 16, 16, 16, 17, 18, 19]
                            .get(rng.gen_range(0..7usize))
                            .expect("static table");
                        alloc.alloc(len)
                    })
                    .collect();
                ases.push(AsInfo {
                    asn: Asn(next_generic_asn),
                    name: format!("AS-{cc}-{next_generic_asn}"),
                    country,
                    kind: if rng.gen_bool(0.12) {
                        OrgKind::Hoster
                    } else if rng.gen_bool(0.5) {
                        OrgKind::Isp
                    } else {
                        OrgKind::Enterprise
                    },
                    prefixes,
                });
                next_generic_asn += 1;
            }
        }

        let by_asn = ases
            .iter()
            .enumerate()
            .map(|(i, a)| (a.asn, i))
            .collect::<HashMap<_, _>>();
        let mut by_country: HashMap<CountryCode, Vec<usize>> = HashMap::new();
        for (i, a) in ases.iter().enumerate() {
            by_country.entry(a.country).or_default().push(i);
        }

        AsRegistry {
            ases,
            by_asn,
            by_country,
            darknet: config.darknet,
        }
    }

    /// All ASes in the plan.
    pub fn ases(&self) -> &[AsInfo] {
        &self.ases
    }

    /// Look up an AS by number.
    pub fn by_asn(&self, asn: Asn) -> Option<&AsInfo> {
        self.by_asn.get(&asn).map(|&i| &self.ases[i])
    }

    /// Look up a notable organisation's AS by name.
    pub fn by_name(&self, name: &str) -> Option<&AsInfo> {
        self.ases.iter().find(|a| a.name == name)
    }

    /// ASes of a given organisation kind.
    pub fn ases_of_kind(&self, kind: OrgKind) -> impl Iterator<Item = &AsInfo> {
        self.ases.iter().filter(move |a| a.kind == kind)
    }

    /// The darknet prefix (the telescope's address space).
    pub fn darknet(&self) -> Ipv4Cidr {
        self.darknet
    }

    /// Sample a random address in a random AS of `country`, if the country
    /// exists in the plan.
    pub fn sample_addr_in_country<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        country: CountryCode,
    ) -> Option<Ipv4Addr> {
        let list = self.by_country.get(&country)?;
        let idx = list[rng.gen_range(0..list.len())];
        Some(self.ases[idx].sample_addr(rng))
    }

    /// Build the geolocation database for this plan.
    pub fn build_geodb(&self) -> GeoDb {
        let mut db = GeoDb::new();
        for a in &self.ases {
            for p in &a.prefixes {
                db.insert(*p, a.country);
            }
        }
        db
    }

    /// Build the prefix-to-AS database for this plan.
    pub fn build_asdb(&self) -> AsDb {
        let mut db = AsDb::new();
        for a in &self.ases {
            for p in &a.prefixes {
                db.insert(*p, a.asn);
            }
        }
        db
    }

    /// All countries present in the plan.
    pub fn countries(&self) -> impl Iterator<Item = CountryCode> + '_ {
        self.by_country.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> AsRegistry {
        AsRegistry::build(&RegistryConfig::default())
    }

    #[test]
    fn deterministic() {
        let a = registry();
        let b = registry();
        assert_eq!(a.ases().len(), b.ases().len());
        for (x, y) in a.ases().iter().zip(b.ases()) {
            assert_eq!(x.asn, y.asn);
            assert_eq!(x.prefixes, y.prefixes);
        }
    }

    #[test]
    fn no_prefix_overlaps() {
        let r = registry();
        let mut all: Vec<Ipv4Cidr> = r
            .ases()
            .iter()
            .flat_map(|a| a.prefixes.iter().copied())
            .collect();
        all.sort_by_key(|p| (u32::from(p.network()), p.len()));
        for w in all.windows(2) {
            assert!(
                !w[0].covers(&w[1]) && !w[1].covers(&w[0]),
                "{} overlaps {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn darknet_never_allocated() {
        let r = registry();
        let darknet = r.darknet();
        for a in r.ases() {
            for p in &a.prefixes {
                assert!(
                    !darknet.covers(p) && !p.covers(&darknet),
                    "{} ({}) intersects the darknet",
                    p,
                    a.name
                );
            }
        }
    }

    #[test]
    fn reserved_space_never_allocated() {
        let r = registry();
        for a in r.ases() {
            for p in &a.prefixes {
                for probe in [p.first(), p.last()] {
                    let o = probe.octets();
                    assert!(o[0] != 0 && o[0] != 10 && o[0] != 127 && o[0] < 224, "{p}");
                }
            }
        }
    }

    #[test]
    fn notable_orgs_present() {
        let r = registry();
        for name in ["GoDaddy", "OVH", "Amazon AWS", "Google Cloud", "CloudFlare"] {
            let a = r.by_name(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(!a.prefixes.is_empty());
        }
        assert_eq!(r.by_name("OVH").unwrap().asn, Asn(12276));
        assert_eq!(r.by_name("OVH").unwrap().country, CountryCode::new("FR"));
    }

    #[test]
    fn lookup_by_asn() {
        let r = registry();
        let a = r.by_asn(Asn(26496)).expect("GoDaddy by ASN");
        assert_eq!(a.name, "GoDaddy");
    }

    #[test]
    fn dps_kind_count() {
        let r = registry();
        assert_eq!(r.ases_of_kind(OrgKind::Dps).count(), 10, "ten DPS providers");
    }

    #[test]
    fn geodb_and_asdb_agree_with_plan() {
        let r = registry();
        let geo = r.build_geodb();
        let asdb = r.build_asdb();
        let mut rng = SmallRng::seed_from_u64(7);
        for a in r.ases().iter().take(50) {
            let addr = a.sample_addr(&mut rng);
            assert_eq!(geo.country_of(addr), Some(a.country), "{addr} in {}", a.name);
            assert_eq!(asdb.asn_of(addr), Some(a.asn));
        }
    }

    #[test]
    fn country_sampling() {
        let r = registry();
        let mut rng = SmallRng::seed_from_u64(9);
        let us = CountryCode::new("US");
        let geo = r.build_geodb();
        for _ in 0..20 {
            let addr = r.sample_addr_in_country(&mut rng, us).unwrap();
            assert_eq!(geo.country_of(addr), Some(us));
        }
        assert!(r
            .sample_addr_in_country(&mut rng, CountryCode::new("ZZ"))
            .is_none());
    }

    #[test]
    fn usage_ranking_has_japan_third() {
        // The plan must rank JP high in *usage* so the paper's "notable
        // exception" (JP low in attacks) is meaningful.
        let r = registry();
        let mut per_country: HashMap<CountryCode, u64> = HashMap::new();
        for a in r.ases() {
            *per_country.entry(a.country).or_default() += a.address_count();
        }
        let mut ranked: Vec<_> = per_country.into_iter().collect();
        ranked.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
        let top: Vec<&str> = ranked.iter().take(3).map(|(c, _)| c.as_str()).collect();
        assert_eq!(top[0], "US");
        assert!(top.contains(&"JP") || ranked[3].0.as_str() == "JP",
            "JP must rank in the top 4 of usage, got {ranked:?}");
    }

    #[test]
    fn allocator_skips_reserved() {
        let mut alloc = Allocator::new(Ipv4Cidr::new(Ipv4Addr::new(44, 0, 0, 0), 8));
        // Burn allocations until we are past 44/8 and check none landed in
        // reserved or darknet space.
        for _ in 0..600 {
            let p = alloc.alloc(16);
            let o = p.first().octets();
            assert!(o[0] != 10 && o[0] != 44 && o[0] != 127 && o[0] != 0);
        }
    }
}
