//! The interval-encoded zone store: two years of daily DNS snapshots,
//! queryable by domain and (reverse) by IP address.
//!
//! OpenINTEL stores a data *point* per record per day; materialising that
//! for even a scaled namespace would be wasteful, so the store keeps
//! [`Placement`] intervals — "domain d's `www` A record resolved to IP x
//! from day a to day b, with NS/CNAME context" — and derives daily views
//! on demand. Totals equivalent to the paper's Table 2 (sites, data
//! points, size) are computed from the intervals.

use crate::catalog::OrgId;
use dosscope_types::{DayIndex, FastMap};
use std::net::Ipv4Addr;

/// Top-level domain of a Web site; the three gTLDs the paper measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tld {
    /// `.com`
    Com,
    /// `.net`
    Net,
    /// `.org`
    Org,
}

impl Tld {
    /// All measured TLDs in presentation order, which is also declaration
    /// order: `tld as usize` indexes this array.
    pub const ALL: [Tld; 3] = [Tld::Com, Tld::Net, Tld::Org];
}

impl std::fmt::Display for Tld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tld::Com => f.write_str(".com"),
            Tld::Net => f.write_str(".net"),
            Tld::Org => f.write_str(".org"),
        }
    }
}

/// A Web-site (domain with a `www` label) identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub u32);

/// A half-open range of days `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DayRange {
    /// First day (inclusive).
    pub start: DayIndex,
    /// One past the last day (exclusive).
    pub end: DayIndex,
}

impl DayRange {
    /// Create a range; `end` is clamped to at least `start`.
    pub fn new(start: DayIndex, end: DayIndex) -> DayRange {
        DayRange {
            start,
            end: DayIndex(end.0.max(start.0)),
        }
    }

    /// Whether `day` falls inside the range.
    #[inline]
    pub fn contains(&self, day: DayIndex) -> bool {
        day >= self.start && day < self.end
    }

    /// Number of days covered.
    #[inline]
    pub fn len(&self) -> u32 {
        self.end.0 - self.start.0
    }

    /// True for an empty range.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One hosting interval of a Web site: where its `www` A record pointed
/// and through which DNS context, over a range of days.
#[derive(Debug, Clone)]
pub struct Placement {
    /// The Web site.
    pub domain: DomainId,
    /// The A-record target.
    pub ip: Ipv4Addr,
    /// Days this placement was observed.
    pub days: DayRange,
    /// Operator of the authoritative name servers (NS record context).
    pub ns: OrgId,
    /// Organisation whose CNAME the `www` label expands through, if any
    /// (platforms like Wix, or a DPS reverse proxy).
    pub cname: Option<OrgId>,
}

#[derive(Debug, Clone)]
struct DomainMeta {
    tld: Tld,
    active: DayRange,
}

/// Shared DNS/mail infrastructure of a hosting organisation: the addresses
/// its authoritative name servers and mail exchangers answer from.
///
/// The paper's future work (Section 8) proposes mapping attacked IPs to
/// `MX` targets and authoritative name servers; domains inherit their
/// operator's infrastructure, so an attack on one mail exchanger address
/// touches every domain the organisation serves (the paper observed
/// GoDaddy's e-mail servers — used by tens of millions of domains — under
/// frequent attack).
#[derive(Debug, Clone)]
pub struct OrgInfra {
    /// The operating organisation.
    pub org: OrgId,
    /// Mail exchanger addresses (targets of the domains' `MX` records).
    pub mx_ips: Vec<Ipv4Addr>,
    /// Authoritative name-server addresses (`NS` glue).
    pub ns_ips: Vec<Ipv4Addr>,
}

/// The end of a domain's placement chain.
const NONE: u32 = u32::MAX;

/// The zone store: all Web sites of the measured TLDs with their hosting
/// history.
#[derive(Debug, Default)]
pub struct ZoneStore {
    /// Per-domain metadata, indexed by [`DomainId`].
    domains: Vec<DomainMeta>,
    /// Every placement, in insertion order.
    placements: Vec<Placement>,
    /// Each domain's first placement (an index into `placements`), or
    /// [`NONE`]; indexed by [`DomainId`].
    head: Vec<u32>,
    /// Parallel to `placements`: the same domain's next placement, or
    /// [`NONE`]. Following `head` then `next` lists a domain's placements
    /// in insertion order, at 4 bytes per domain and per placement.
    next: Vec<u32>,
    /// Placements per A-record target address.
    by_ip: FastMap<u32, Vec<u32>>,
    /// Placements per operating organisation (for infrastructure joins).
    by_org: FastMap<OrgId, Vec<u32>>,
    /// Registered org infrastructure.
    infra: Vec<OrgInfra>,
    /// Mail-exchanger address → infra index.
    mx_index: FastMap<u32, usize>,
    /// Name-server address → infra index.
    ns_index: FastMap<u32, usize>,
}

impl ZoneStore {
    /// Empty store.
    pub fn new() -> ZoneStore {
        ZoneStore::default()
    }

    /// Register a Web site active over `active` days.
    pub fn add_domain(&mut self, tld: Tld, active: DayRange) -> DomainId {
        let id = DomainId(self.domains.len() as u32);
        self.domains.push(DomainMeta { tld, active });
        self.head.push(NONE);
        id
    }

    /// Number of Web sites (total over the whole window).
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// The TLD of a site.
    pub fn tld_of(&self, domain: DomainId) -> Tld {
        self.domains[domain.0 as usize].tld
    }

    /// The day a site first appears in the DNS.
    pub fn first_seen(&self, domain: DomainId) -> DayIndex {
        self.domains[domain.0 as usize].active.start
    }

    /// The active range of a site.
    pub fn active_range(&self, domain: DomainId) -> DayRange {
        self.domains[domain.0 as usize].active
    }

    /// Record a hosting interval. Panics if it overlaps an existing
    /// placement of the same domain (the builder must keep intervals
    /// disjoint) or leaves the domain's active range.
    pub fn place(&mut self, p: Placement) {
        assert!(!p.days.is_empty(), "empty placement for {:?}", p.domain);
        let meta = &self.domains[p.domain.0 as usize];
        assert!(
            p.days.start >= meta.active.start && p.days.end <= meta.active.end,
            "placement outside domain activity: {:?}",
            p.domain
        );
        let mut last = NONE;
        for i in self.chain(p.domain) {
            let other = &self.placements[i as usize].days;
            assert!(
                p.days.end <= other.start || other.end <= p.days.start,
                "overlapping placements for {:?}",
                p.domain
            );
            last = i;
        }
        let idx = self.placements.len() as u32;
        match last {
            NONE => self.head[p.domain.0 as usize] = idx,
            last => self.next[last as usize] = idx,
        }
        self.next.push(NONE);
        self.by_ip.entry(u32::from(p.ip)).or_default().push(idx);
        self.by_org.entry(p.ns).or_default().push(idx);
        self.placements.push(p);
    }

    /// Register an organisation's shared mail/name-server infrastructure.
    pub fn register_infra(&mut self, infra: OrgInfra) {
        let idx = self.infra.len();
        for ip in &infra.mx_ips {
            self.mx_index.insert(u32::from(*ip), idx);
        }
        for ip in &infra.ns_ips {
            self.ns_index.insert(u32::from(*ip), idx);
        }
        self.infra.push(infra);
    }

    /// All registered infrastructure records.
    pub fn infra(&self) -> &[OrgInfra] {
        &self.infra
    }

    /// The organisation whose mail exchanger answers at `ip`, if any.
    pub fn mail_org_at(&self, ip: Ipv4Addr) -> Option<OrgId> {
        self.mx_index.get(&u32::from(ip)).map(|&i| self.infra[i].org)
    }

    /// The organisation whose name server answers at `ip`, if any.
    pub fn ns_org_at(&self, ip: Ipv4Addr) -> Option<OrgId> {
        self.ns_index.get(&u32::from(ip)).map(|&i| self.infra[i].org)
    }

    /// Domains operated by `org` on `day` (their placements carry the
    /// organisation in the NS context).
    pub fn domains_of_org(&self, org: OrgId, day: DayIndex) -> Vec<DomainId> {
        self.by_org
            .get(&org)
            .into_iter()
            .flatten()
            .map(|&i| &self.placements[i as usize])
            .filter(|p| p.days.contains(day))
            .map(|p| p.domain)
            .collect()
    }

    /// Truncate the placement of `domain` covering `day` so it ends just
    /// before `day`; returns the truncated placement's data for the caller
    /// to re-place elsewhere. Used to express migrations. If the placement
    /// started on `day`, it is removed entirely from `day` onward by
    /// truncating to empty — callers should re-place from `day`.
    pub fn truncate_at(&mut self, domain: DomainId, day: DayIndex) -> Option<Placement> {
        let idx = self
            .chain(domain)
            .find(|&i| self.placements[i as usize].days.contains(day))?;
        let p = &mut self.placements[idx as usize];
        let original = p.clone();
        p.days = DayRange::new(p.days.start, day);
        Some(original)
    }

    /// The placement of a site on a given day.
    pub fn placement_of(&self, domain: DomainId, day: DayIndex) -> Option<&Placement> {
        self.placements_of(domain).find(|p| p.days.contains(day))
    }

    /// The `www` A record of a site on a given day.
    pub fn ip_of(&self, domain: DomainId, day: DayIndex) -> Option<Ipv4Addr> {
        self.placement_of(domain, day).map(|p| p.ip)
    }

    /// All placements pointing at `ip` on `day`.
    pub fn placements_on_ip(
        &self,
        ip: Ipv4Addr,
        day: DayIndex,
    ) -> impl Iterator<Item = &Placement> {
        self.by_ip
            .get(&u32::from(ip))
            .into_iter()
            .flatten()
            .map(|&i| &self.placements[i as usize])
            .filter(move |p| p.days.contains(day))
    }

    /// How many Web sites resolve to `ip` on `day`, counted no further
    /// than `cap + 1`: equal to `min(domains_on_ip(ip, day).len(), cap + 1)`,
    /// but the walk stops at the first match past the cap, so a caller
    /// asking "more than `cap`?" of a mega co-host pays for `cap + 1`
    /// matches rather than the whole group.
    pub fn count_on_ip(&self, ip: Ipv4Addr, day: DayIndex, cap: usize) -> usize {
        self.placements_on_ip(ip, day).take(cap.saturating_add(1)).count()
    }

    /// The Web sites resolving to `ip` on `day` — the paper's core join
    /// ("A records on `www` labels that, at the time of an attack,
    /// resolved to the attacked IP addresses").
    pub fn domains_on_ip(&self, ip: Ipv4Addr, day: DayIndex) -> Vec<DomainId> {
        self.placements_on_ip(ip, day).map(|p| p.domain).collect()
    }

    /// Whether any placement ever points at `ip` (cheap pre-filter for
    /// the Web-association join).
    pub fn ip_ever_hosts(&self, ip: Ipv4Addr) -> bool {
        self.by_ip.contains_key(&u32::from(ip))
    }

    /// Every placement, in insertion order (truncated ones included, with
    /// their shortened ranges).
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// All placements of a domain, in insertion order.
    pub fn placements_of(&self, domain: DomainId) -> impl Iterator<Item = &Placement> {
        self.chain(domain).map(|i| &self.placements[i as usize])
    }

    /// The indices of a domain's placements, in insertion order.
    fn chain(&self, domain: DomainId) -> impl Iterator<Item = u32> + '_ {
        let first = self.head[domain.0 as usize];
        std::iter::successors((first != NONE).then_some(first), |&i| {
            let n = self.next[i as usize];
            (n != NONE).then_some(n)
        })
    }

    /// Number of sites active on a given day.
    pub fn active_on_day(&self, day: DayIndex) -> usize {
        self.domains
            .iter()
            .filter(|d| d.active.contains(day))
            .count()
    }

    /// Total collected data points: one per record per active day, with
    /// three records per placement-day (`www` A, NS, and CNAME when
    /// present) — the store's equivalent of Table 2's "#data points".
    pub fn data_points(&self) -> u64 {
        self.placements.iter().map(Self::data_points_of).sum()
    }

    /// Sites and data points per TLD, indexed like [`Tld::ALL`]: Table 2's
    /// rows from one pass over the domains and one over the placements.
    pub fn tld_totals(&self) -> [(u64, u64); 3] {
        let mut totals = [(0, 0); 3];
        for d in &self.domains {
            totals[d.tld as usize].0 += 1;
        }
        for p in &self.placements {
            totals[self.tld_of(p.domain) as usize].1 += Self::data_points_of(p);
        }
        totals
    }

    fn data_points_of(p: &Placement) -> u64 {
        p.days.len() as u64 * (2 + u64::from(p.cname.is_some()))
    }

    /// Iterate all domain ids.
    pub fn domain_ids(&self) -> impl Iterator<Item = DomainId> {
        (0..self.domains.len() as u32).map(DomainId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day(d: u32) -> DayIndex {
        DayIndex(d)
    }

    fn range(a: u32, b: u32) -> DayRange {
        DayRange::new(day(a), day(b))
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn add_and_query_domain() {
        let mut z = ZoneStore::new();
        let d = z.add_domain(Tld::Com, range(0, 731));
        z.place(Placement {
            domain: d,
            ip: ip("203.0.113.1"),
            days: range(0, 731),
            ns: OrgId(0),
            cname: None,
        });
        assert_eq!(z.ip_of(d, day(100)), Some(ip("203.0.113.1")));
        assert_eq!(z.ip_of(d, day(731)), None, "range is half-open");
        assert_eq!(z.domains_on_ip(ip("203.0.113.1"), day(5)), vec![d]);
        assert!(z.domains_on_ip(ip("203.0.113.2"), day(5)).is_empty());
        assert!(z.ip_ever_hosts(ip("203.0.113.1")));
        assert!(!z.ip_ever_hosts(ip("203.0.113.9")));
    }

    #[test]
    fn cohosted_domains() {
        let mut z = ZoneStore::new();
        let shared = ip("198.51.100.10");
        for _ in 0..5 {
            let d = z.add_domain(Tld::Net, range(0, 100));
            z.place(Placement {
                domain: d,
                ip: shared,
                days: range(0, 100),
                ns: OrgId(1),
                cname: None,
            });
        }
        assert_eq!(z.domains_on_ip(shared, day(50)).len(), 5);
        assert_eq!(z.tld_totals()[Tld::Net as usize].0, 5);
    }

    #[test]
    fn count_on_ip_stops_past_the_cap() {
        let mut z = ZoneStore::new();
        let shared = ip("198.51.100.10");
        for i in 0..6 {
            let d = z.add_domain(Tld::Com, range(0, 100));
            // The sixth site only arrives on day 50.
            let start = if i == 5 { 50 } else { 0 };
            z.place(Placement {
                domain: d,
                ip: shared,
                days: range(start, 100),
                ns: OrgId(1),
                cname: None,
            });
        }
        assert_eq!(z.count_on_ip(shared, day(10), 100), 5);
        assert_eq!(z.count_on_ip(shared, day(60), 100), 6);
        assert_eq!(z.count_on_ip(shared, day(60), 5), 6, "exactly cap + 1");
        assert_eq!(z.count_on_ip(shared, day(60), 2), 3, "stops at cap + 1");
        assert_eq!(z.count_on_ip(shared, day(60), 0), 1);
        assert_eq!(z.count_on_ip(shared, day(100), 10), 0, "range is half-open");
        assert_eq!(z.count_on_ip(ip("198.51.100.11"), day(10), 10), 0);
        assert_eq!(z.count_on_ip(shared, day(10), usize::MAX), 5, "no overflow");
    }

    #[test]
    fn placements_slice_follows_insertion_and_truncation() {
        let mut z = ZoneStore::new();
        let a = z.add_domain(Tld::Com, range(0, 100));
        let b = z.add_domain(Tld::Net, range(0, 100));
        for (d, host) in [(b, "203.0.113.2"), (a, "203.0.113.1")] {
            z.place(Placement {
                domain: d,
                ip: ip(host),
                days: range(0, 100),
                ns: OrgId(0),
                cname: None,
            });
        }
        z.truncate_at(b, day(40)).expect("placement exists");
        z.place(Placement {
            domain: b,
            ip: ip("198.51.100.2"),
            days: range(40, 100),
            ns: OrgId(0),
            cname: Some(OrgId(2)),
        });
        let seen: Vec<(DomainId, DayRange)> =
            z.placements().iter().map(|p| (p.domain, p.days)).collect();
        assert_eq!(seen, vec![(b, range(0, 40)), (a, range(0, 100)), (b, range(40, 100))]);
    }

    #[test]
    fn moving_a_domain_between_hosts() {
        let mut z = ZoneStore::new();
        let d = z.add_domain(Tld::Org, range(0, 200));
        z.place(Placement {
            domain: d,
            ip: ip("203.0.113.1"),
            days: range(0, 200),
            ns: OrgId(0),
            cname: None,
        });
        // Migrate on day 120.
        let old = z.truncate_at(d, day(120)).expect("placement exists");
        assert_eq!(old.days, range(0, 200));
        z.place(Placement {
            domain: d,
            ip: ip("198.51.100.2"),
            days: range(120, 200),
            ns: OrgId(2),
            cname: Some(OrgId(2)),
        });
        assert_eq!(z.ip_of(d, day(119)), Some(ip("203.0.113.1")));
        assert_eq!(z.ip_of(d, day(120)), Some(ip("198.51.100.2")));
        // Reverse index respects the truncation.
        assert!(z.domains_on_ip(ip("203.0.113.1"), day(150)).is_empty());
        assert_eq!(z.domains_on_ip(ip("198.51.100.2"), day(150)), vec![d]);
    }

    #[test]
    #[should_panic(expected = "overlapping placements")]
    fn overlapping_placements_rejected() {
        let mut z = ZoneStore::new();
        let d = z.add_domain(Tld::Com, range(0, 100));
        let p = Placement {
            domain: d,
            ip: ip("203.0.113.1"),
            days: range(0, 60),
            ns: OrgId(0),
            cname: None,
        };
        z.place(p.clone());
        z.place(Placement {
            days: range(59, 100),
            ..p
        });
    }

    #[test]
    #[should_panic(expected = "outside domain activity")]
    fn placement_outside_activity_rejected() {
        let mut z = ZoneStore::new();
        let d = z.add_domain(Tld::Com, range(10, 100));
        z.place(Placement {
            domain: d,
            ip: ip("203.0.113.1"),
            days: range(0, 60),
            ns: OrgId(0),
            cname: None,
        });
    }

    #[test]
    fn data_points_and_size() {
        let mut z = ZoneStore::new();
        let d = z.add_domain(Tld::Com, range(0, 10));
        z.place(Placement {
            domain: d,
            ip: ip("203.0.113.1"),
            days: range(0, 10),
            ns: OrgId(0),
            cname: Some(OrgId(1)),
        });
        // 10 days x (A + NS + CNAME) = 30 points.
        assert_eq!(z.data_points(), 30);
        assert_eq!(z.tld_totals(), [(1, 30), (0, 0), (0, 0)]);
    }

    #[test]
    fn active_on_day_counts() {
        let mut z = ZoneStore::new();
        z.add_domain(Tld::Com, range(0, 50));
        z.add_domain(Tld::Com, range(40, 100));
        assert_eq!(z.active_on_day(day(45)), 2);
        assert_eq!(z.active_on_day(day(10)), 1);
        assert_eq!(z.active_on_day(day(99)), 1);
        assert_eq!(z.active_on_day(day(100)), 0);
    }

    #[test]
    fn day_range_semantics() {
        let r = range(5, 8);
        assert!(r.contains(day(5)) && r.contains(day(7)));
        assert!(!r.contains(day(8)) && !r.contains(day(4)));
        assert_eq!(r.len(), 3);
        assert!(range(5, 5).is_empty());
        // end < start clamps to empty rather than panicking.
        assert!(DayRange::new(day(9), day(3)).is_empty());
    }
}
