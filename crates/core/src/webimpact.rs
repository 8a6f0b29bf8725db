//! The effect of attacks on the Web (Section 5): joining attack events
//! with the active DNS measurement.
//!
//! A Web site is *involved* in an attack when its `www` A record resolved
//! to the attacked IP address on the day the attack started. The analysis
//! produces Figure 6 (co-hosting groups of attacked IPs), Figure 7 (Web
//! sites on attacked IPs per day), the "isolating Web targets" protocol
//! shifts, and the per-site attack records that Section 6's migration
//! analyses consume.
//!
//! Two results depend on event order, and both use the order of
//! [`EventStore::all`](crate::EventStore::all) (every telescope event,
//! then every honeypot event, each source sorted by start):
//!
//! * Figure 6 and [`WebImpact::biggest_cohost`] take each attacked IP's
//!   site count on the day of its *first event in `all()` order*. That is
//!   not always the IP's earliest attack day: an IP attacked by a
//!   honeypot event on day 2 and a telescope event on day 8 is counted
//!   with its day-8 sites.
//! * [`SiteAttackRecord::best_intensity_day`] is the day of the first
//!   event in `all()` order that reaches the site's maximum normalized
//!   intensity.

use crate::Framework;
use dosscope_dns::{DomainId, Tld};
use dosscope_types::{
    AttackEvent, DayIndex, EventSource, FastMap, FastSet, LogHistogram, PortSignature,
    ReflectionProtocol, TimeSeries, TransportProto,
};

use std::net::Ipv4Addr;

/// Per-site attack history, the input to the migration analyses.
#[derive(Debug, Clone, Copy)]
pub struct SiteAttackRecord {
    /// Number of attacks associated with the site.
    pub count: u32,
    /// Day of the first associated attack.
    pub first_attack_day: DayIndex,
    /// Highest normalized intensity over associated attacks (see
    /// [`IntensityNormalizer`]).
    pub best_norm_intensity: f64,
    /// Day of that most intense attack: the first associated event in
    /// [`EventStore::all`](crate::EventStore::all) order that reaches
    /// `best_norm_intensity`. Normalization is per source and clamps to
    /// 1.0, so a telescope and a honeypot attack can tie at 1.0 on
    /// different days; the telescope attack then wins even when the
    /// honeypot attack came first in time.
    pub best_intensity_day: DayIndex,
    /// Day of an associated honeypot attack lasting ≥ 4 h, if any
    /// (Figure 11's duration class; telescope durations are excluded
    /// because successful attacks suppress backscatter). The first such
    /// attack in `all()` order.
    pub long4h_day: Option<DayIndex>,
}

/// Per-source min-max normalization of log intensity.
///
/// The paper normalizes attack intensity per data set before comparing
/// across sets (Table 9); we normalize the logarithm, since both published
/// intensity distributions are log-scaled and span 5-6 decades.
#[derive(Debug, Clone, Copy)]
pub struct IntensityNormalizer {
    tele_min_ln: f64,
    tele_span_ln: f64,
    hp_min_ln: f64,
    hp_span_ln: f64,
}

impl IntensityNormalizer {
    /// Fit over the ingested events.
    pub fn fit(store: &crate::EventStore) -> IntensityNormalizer {
        // Fit straight off each source's intensity column.
        let fit_one = |intensities: &[f64]| -> (f64, f64) {
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            for &pps in intensities {
                let l = pps.max(1e-9).ln();
                min = min.min(l);
                max = max.max(l);
            }
            if !min.is_finite() || max <= min {
                (0.0, 1.0)
            } else {
                (min, max - min)
            }
        };
        let (tmin, tspan) = fit_one(&store.block(EventSource::Telescope).intensity);
        let (hmin, hspan) = fit_one(&store.block(EventSource::Honeypot).intensity);
        IntensityNormalizer {
            tele_min_ln: tmin,
            tele_span_ln: tspan,
            hp_min_ln: hmin,
            hp_span_ln: hspan,
        }
    }

    /// The normalized intensity of an event in [0, 1].
    pub fn normalize(&self, e: &AttackEvent) -> f64 {
        let l = e.intensity_pps.max(1e-9).ln();
        let v = match e.source() {
            EventSource::Telescope => (l - self.tele_min_ln) / self.tele_span_ln,
            EventSource::Honeypot => (l - self.hp_min_ln) / self.hp_span_ln,
        };
        v.clamp(0.0, 1.0)
    }
}

/// The Section 5 results.
pub struct WebImpact {
    /// Distinct Web sites ever on an attacked IP (the paper: 134 M, 64 %).
    pub affected_total: u64,
    /// Total sites in the namespace (210 M scaled).
    pub total_sites: u64,
    /// Sites on attacked IPs per day — Figure 7 top.
    pub daily_sites: TimeSeries,
    /// Same, for medium+ intensity attacks — Figure 7 bottom.
    pub daily_sites_medium: TimeSeries,
    /// Unique target IPs hosting at least one site (572 k, ≥ 9 %).
    pub web_ip_count: u64,
    /// All unique target IPs.
    pub target_ip_count: u64,
    /// Co-hosting histogram over attacked IPs — Figure 6.
    pub cohosting: LogHistogram,
    /// The same histogram split per TLD — the paper verifies the three
    /// individual distributions share Figure 6's shape.
    pub cohosting_by_tld: [(dosscope_dns::Tld, LogHistogram); 3],
    /// The attacked IP with the largest co-hosting group and that group's
    /// size (the paper traces its maximum to an IP routed by DOSarrest).
    pub biggest_cohost: Option<(Ipv4Addr, u64)>,
    /// Per-site attack records for the migration analyses.
    pub site_records: SiteRecords,
    /// TCP share among telescope events on Web-hosting IPs (93.4 %).
    pub web_tcp_share: f64,
    /// Web-port share among single-port TCP telescope events on
    /// Web-hosting IPs (87.6 %).
    pub web_port_share: f64,
    /// NTP share among honeypot events on Web-hosting IPs (54.69 %).
    pub web_ntp_share: f64,
    /// The fitted intensity normalizer (reused by Section 6).
    pub normalizer: IntensityNormalizer,
}

impl WebImpact {
    /// Run the Web-association join. Returns `None` when the framework has
    /// no DNS data attached.
    ///
    /// Every event on one IP on one day hits the same sites, so the join
    /// walks the IP's placements once per distinct (IP, day) and applies
    /// that group's events to each site together. Per-site state lives in
    /// arrays indexed by [`DomainId`]; events keep their position in
    /// `all()` so the order-dependent results (see the module docs) come
    /// out as if the events were applied one by one in that order.
    pub fn analyze(fw: &Framework<'_>) -> Option<WebImpact> {
        let zone = fw.zone?;
        let days = fw.days;
        assert!(
            days < u32::from(u16::MAX),
            "the Web join stamps days as u16; a {days}-day window is too long"
        );
        let normalizer = IntensityNormalizer::fit(fw.store);
        let tele_cutoff = crate::timeseries::mean_intensity(fw.store.telescope().iter());
        let hp_cutoff = crate::timeseries::mean_intensity(fw.store.honeypot().iter());

        // The in-window events as small records. IPs are interned in
        // first-seen order, so the record that interns an IP is its first
        // event in `all()` order.
        let mut ip_index: FastMap<Ipv4Addr, u32> = FastMap::default();
        let mut ips: Vec<Ipv4Addr> = Vec::new();
        let mut hits: Vec<Hit> = Vec::new();
        for (pos, e) in fw.store.all().enumerate() {
            let day = e.when.start.day();
            if day.0 >= days {
                continue;
            }
            let mut flags = Hit::flags(&e, tele_cutoff, hp_cutoff);
            let ip = *ip_index.entry(e.target).or_insert_with(|| {
                flags |= Hit::FIRST;
                ips.push(e.target);
                ips.len() as u32 - 1
            });
            hits.push(Hit {
                norm: normalizer.normalize(&e),
                day: day.0,
                ip,
                pos: u32::try_from(pos).expect("fewer than 2^32 events"),
                flags,
            });
        }
        hits.sort_unstable_by_key(|h| (h.day, h.ip, h.pos));

        // Per-domain state: the last day (+1, so 0 is "never") each site
        // was counted in the daily and medium series, and the slot of its
        // record in `accs` (touched sites only).
        let n_domains = zone.domain_count();
        let mut counted_day = vec![0u16; n_domains];
        let mut counted_medium_day = vec![0u16; n_domains];
        let mut slot = vec![NONE; n_domains];
        let mut accs: Vec<SiteAcc> = Vec::new();

        let mut daily_sites = TimeSeries::zeros(days);
        let mut daily_sites_medium = TimeSeries::zeros(days);
        let mut is_web_ip = vec![false; ips.len()];
        let mut web_ip_count = 0u64;
        let mut cohosting = LogHistogram::new(7);
        let mut cohosting_by_tld = Tld::ALL.map(|tld| (tld, LogHistogram::new(7)));
        let mut biggest_cohost: Option<(Ipv4Addr, u64)> = None;
        let mut biggest_ip = u32::MAX;

        // Protocol-shift counters over events on Web-hosting IPs.
        let mut tele_web_events = 0u64;
        let mut tele_web_tcp = 0u64;
        let mut tele_web_tcp_single = 0u64;
        let mut tele_web_tcp_single_webport = 0u64;
        let mut hp_web_events = 0u64;
        let mut hp_web_ntp = 0u64;

        for group in hits.chunk_by(|a, b| a.day == b.day && a.ip == b.ip) {
            let (day, ip) = (group[0].day, group[0].ip);
            // Sorted by position, so an IP's first event leads its group.
            let first = group[0].flags & Hit::FIRST != 0;
            let medium = group.iter().any(|h| h.flags & Hit::MEDIUM != 0);
            // Strict `>` keeps the first event reaching the maximum.
            let best = group
                .iter()
                .fold(&group[0], |b, h| if h.norm > b.norm { h } else { b });
            let long4h_pos = group
                .iter()
                .find(|h| h.flags & Hit::LONG4H != 0)
                .map_or(NONE, |h| h.pos);
            // What the group adds to each of its sites' records.
            let add = SiteAcc {
                domain: 0,
                count: group.len() as u32,
                first_day: day,
                best_norm: best.norm,
                best_day: day,
                best_pos: best.pos,
                long4h_day: day,
                long4h_pos,
            };
            let stamp = day as u16 + 1;

            let mut n_sites = 0u64;
            let mut n_new_daily = 0u32;
            let mut n_new_medium = 0u32;
            let mut by_tld = [0u64; 3];
            for p in zone.placements_on_ip(ips[ip as usize], DayIndex(day)) {
                let d = p.domain.0 as usize;
                n_sites += 1;
                if first {
                    // `Tld` discriminants follow `Tld::ALL`.
                    by_tld[zone.tld_of(p.domain) as usize] += 1;
                }
                if counted_day[d] != stamp {
                    counted_day[d] = stamp;
                    n_new_daily += 1;
                }
                if medium && counted_medium_day[d] != stamp {
                    counted_medium_day[d] = stamp;
                    n_new_medium += 1;
                }
                match slot[d] {
                    NONE => {
                        slot[d] = accs.len() as u32;
                        accs.push(SiteAcc {
                            domain: p.domain.0,
                            ..add
                        });
                    }
                    s => accs[s as usize].absorb(&add),
                }
            }
            daily_sites.add(DayIndex(day), f64::from(n_new_daily));
            daily_sites_medium.add(DayIndex(day), f64::from(n_new_medium));

            // Figure 6: each target IP contributes once, with its site
            // count on the day of its first event; ties for the biggest
            // group go to the IP seen first.
            if first {
                cohosting.push(n_sites);
                for ((_, hist), n) in cohosting_by_tld.iter_mut().zip(by_tld) {
                    hist.push(n);
                }
                let biggest = biggest_cohost.map_or(0, |(_, n)| n);
                if n_sites > biggest || (n_sites > 0 && n_sites == biggest && ip < biggest_ip) {
                    biggest_cohost = Some((ips[ip as usize], n_sites));
                    biggest_ip = ip;
                }
            }
            if n_sites == 0 {
                continue;
            }
            if !is_web_ip[ip as usize] {
                is_web_ip[ip as usize] = true;
                web_ip_count += 1;
            }

            // Protocol shifts for Web targets.
            let count = |flag: u8| group.iter().filter(|h| h.flags & flag != 0).count() as u64;
            let honeypot = count(Hit::HONEYPOT);
            tele_web_events += group.len() as u64 - honeypot;
            tele_web_tcp += count(Hit::TCP);
            tele_web_tcp_single += count(Hit::TCP_SINGLE);
            tele_web_tcp_single_webport += count(Hit::WEB_PORT);
            hp_web_events += honeypot;
            hp_web_ntp += count(Hit::NTP);
        }
        // `slot` stays on as the table's index. `SiteAcc` and a record
        // entry have the same size and alignment, so `collect` rewrites
        // `accs` in place rather than building a second copy.
        let affected_total = accs.len() as u64;
        let site_records = SiteRecords {
            slot,
            records: accs
                .into_iter()
                .map(|a| (DomainId(a.domain), a.record()))
                .collect(),
        };
        let share = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };

        Some(WebImpact {
            affected_total,
            total_sites: zone.domain_count() as u64,
            daily_sites,
            daily_sites_medium,
            web_ip_count,
            target_ip_count: ips.len() as u64,
            cohosting,
            cohosting_by_tld,
            biggest_cohost,
            site_records,
            web_tcp_share: share(tele_web_tcp, tele_web_events),
            web_port_share: share(tele_web_tcp_single_webport, tele_web_tcp_single),
            web_ntp_share: share(hp_web_ntp, hp_web_events),
            normalizer,
        })
    }

    /// Fraction of the namespace ever involved with attacks (64 % in the
    /// paper).
    pub fn affected_fraction(&self) -> f64 {
        if self.total_sites == 0 {
            0.0
        } else {
            self.affected_total as f64 / self.total_sites as f64
        }
    }

    /// Mean number of sites involved per day, and as a fraction of the
    /// namespace (≈ 4 M, ≈ 3 % in the paper).
    pub fn mean_daily_sites(&self) -> (f64, f64) {
        let mean = self.daily_sites.daily_mean();
        let frac = if self.total_sites == 0 {
            0.0
        } else {
            mean / self.total_sites as f64
        };
        (mean, frac)
    }

    /// The biggest daily peak as a fraction of the namespace (11.82 % in
    /// the paper).
    pub fn peak_fraction(&self) -> (DayIndex, f64) {
        match self.daily_sites.peak() {
            Some((day, v)) if self.total_sites > 0 => (day, v / self.total_sites as f64),
            _ => (DayIndex(0), 0.0),
        }
    }
}

/// The per-site attack records of a Web join: only the touched sites
/// have one, and a lookup by [`DomainId`] is two array reads.
#[derive(Debug, Default)]
pub struct SiteRecords {
    /// Per domain: the index of its record in `records`, or [`NONE`].
    /// Ids past its end have no record.
    slot: Vec<u32>,
    /// The records, in the order the join first touched their sites.
    records: Vec<(DomainId, SiteAttackRecord)>,
}

impl SiteRecords {
    /// The record of `domain`, if any attack touched it.
    #[inline]
    pub fn get(&self, domain: &DomainId) -> Option<&SiteAttackRecord> {
        match self.slot.get(domain.0 as usize).copied() {
            None | Some(NONE) => None,
            Some(s) => Some(&self.records[s as usize].1),
        }
    }

    /// Number of sites with a record.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no site was touched.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Every record, in first-touched order.
    pub fn values(&self) -> impl Iterator<Item = &SiteAttackRecord> {
        self.records.iter().map(|(_, r)| r)
    }
}

impl std::ops::Index<&DomainId> for SiteRecords {
    type Output = SiteAttackRecord;

    fn index(&self, domain: &DomainId) -> &SiteAttackRecord {
        self.get(domain)
            .unwrap_or_else(|| panic!("no site record for {domain:?}"))
    }
}

/// Every (site, record) pair, in first-touched order.
impl<'a> IntoIterator for &'a SiteRecords {
    type Item = (&'a DomainId, &'a SiteAttackRecord);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (DomainId, SiteAttackRecord)>,
        fn(&'a (DomainId, SiteAttackRecord)) -> (&'a DomainId, &'a SiteAttackRecord),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter().map(|(d, r)| (d, r))
    }
}

/// Builds a table from (site, record) pairs in any order; a site may
/// appear once.
impl FromIterator<(DomainId, SiteAttackRecord)> for SiteRecords {
    fn from_iter<I: IntoIterator<Item = (DomainId, SiteAttackRecord)>>(iter: I) -> SiteRecords {
        let records: Vec<(DomainId, SiteAttackRecord)> = iter.into_iter().collect();
        let n = records
            .iter()
            .map(|(d, _)| d.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut slot = vec![NONE; n];
        for (i, (d, _)) in records.iter().enumerate() {
            assert_eq!(slot[d.0 as usize], NONE, "two records for {d:?}");
            slot[d.0 as usize] = i as u32;
        }
        SiteRecords { slot, records }
    }
}

/// An absent record slot or `all()` position.
const NONE: u32 = u32::MAX;

/// One in-window event, reduced to what the Web join reads.
struct Hit {
    norm: f64,
    day: u32,
    /// Interned target IP.
    ip: u32,
    /// Position in `EventStore::all()`.
    pos: u32,
    flags: u8,
}

impl Hit {
    /// The IP's first event in `all()` order.
    const FIRST: u8 = 1;
    /// At or above its source's mean intensity (Figure 7 bottom).
    const MEDIUM: u8 = 1 << 1;
    /// A honeypot event lasting ≥ 4 h.
    const LONG4H: u8 = 1 << 2;
    const HONEYPOT: u8 = 1 << 3;
    /// A TCP telescope event.
    const TCP: u8 = 1 << 4;
    /// ... on a single port.
    const TCP_SINGLE: u8 = 1 << 5;
    /// ... that is a Web port.
    const WEB_PORT: u8 = 1 << 6;
    /// An NTP honeypot event.
    const NTP: u8 = 1 << 7;

    fn flags(e: &AttackEvent, tele_cutoff: f64, hp_cutoff: f64) -> u8 {
        let mut flags = 0;
        match e.source() {
            EventSource::Telescope => {
                if e.intensity_pps >= tele_cutoff {
                    flags |= Hit::MEDIUM;
                }
                if e.transport_proto() == Some(TransportProto::Tcp) {
                    flags |= Hit::TCP;
                    if let Some(PortSignature::Single(p)) = e.port_signature() {
                        flags |= Hit::TCP_SINGLE;
                        if dosscope_types::service::is_web_port(p) {
                            flags |= Hit::WEB_PORT;
                        }
                    }
                }
            }
            EventSource::Honeypot => {
                flags |= Hit::HONEYPOT;
                if e.intensity_pps >= hp_cutoff {
                    flags |= Hit::MEDIUM;
                }
                if e.duration_secs() >= 4 * dosscope_types::SECS_PER_HOUR {
                    flags |= Hit::LONG4H;
                }
                if e.reflection_protocol() == Some(ReflectionProtocol::Ntp) {
                    flags |= Hit::NTP;
                }
            }
        }
        flags
    }
}

/// A touched site's record while the join runs. The `*_pos` fields are
/// `all()` positions, which break ties as event-by-event application in
/// that order would.
#[derive(Clone, Copy)]
struct SiteAcc {
    domain: u32,
    count: u32,
    first_day: u32,
    best_norm: f64,
    best_day: u32,
    best_pos: u32,
    long4h_day: u32,
    /// [`NONE`] when no ≥ 4 h attack was seen.
    long4h_pos: u32,
}

// `analyze` turns its `Vec<SiteAcc>` into the records `Vec` in place,
// which needs the two element types to have one layout.
const _: () = assert!(
    std::mem::size_of::<SiteAcc>() == std::mem::size_of::<(DomainId, SiteAttackRecord)>()
        && std::mem::align_of::<SiteAcc>() == std::mem::align_of::<(DomainId, SiteAttackRecord)>()
);

impl SiteAcc {
    /// Fold in a later (day, IP) group's contribution. Groups arrive in
    /// day order, so `first_day` stands.
    fn absorb(&mut self, g: &SiteAcc) {
        self.count += g.count;
        if g.best_norm > self.best_norm
            || (g.best_norm == self.best_norm && g.best_pos < self.best_pos)
        {
            self.best_norm = g.best_norm;
            self.best_day = g.best_day;
            self.best_pos = g.best_pos;
        }
        if g.long4h_pos < self.long4h_pos {
            self.long4h_day = g.long4h_day;
            self.long4h_pos = g.long4h_pos;
        }
    }

    fn record(&self) -> SiteAttackRecord {
        SiteAttackRecord {
            count: self.count,
            first_attack_day: DayIndex(self.first_day),
            best_norm_intensity: self.best_norm,
            best_intensity_day: DayIndex(self.best_day),
            long4h_day: (self.long4h_pos != NONE).then_some(DayIndex(self.long4h_day)),
        }
    }
}

/// Identify the parties behind the Web sites affected on one day: counts
/// of affected sites per hosting organisation (by CNAME, then NS), the way
/// Section 5 names GoDaddy/WordPress/Wix behind the peaks.
pub fn parties_on_day(fw: &Framework<'_>, day: DayIndex) -> Vec<(String, u64)> {
    let (Some(zone), Some(catalog)) = (fw.zone, fw.catalog) else {
        return Vec::new();
    };
    let mut counts: FastMap<String, u64> = FastMap::default();
    let mut seen_ip: FastSet<Ipv4Addr> = FastSet::default();
    for e in fw.store.all() {
        if e.when.start.day() != day || !seen_ip.insert(e.target) {
            continue;
        }
        for p in zone.placements_on_ip(e.target, day) {
            let org = p.cname.unwrap_or(p.ns);
            *counts.entry(catalog.get(org).name.clone()).or_default() += 1;
        }
    }
    let mut out: Vec<(String, u64)> = counts.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventStore;
    use dosscope_dns::{DayRange, OrgCatalog, OrgId, OrgRole, Placement, Tld, ZoneStore};
    use dosscope_geo::{AsDb, GeoDb};
    use dosscope_types::{AttackVector, SimTime, TimeRange, SECS_PER_DAY};

    fn tele(ip: &str, day: u64, intensity: f64, port: u16) -> AttackEvent {
        AttackEvent {
            target: ip.parse().unwrap(),
            when: TimeRange::new(
                SimTime(day * SECS_PER_DAY + 100),
                SimTime(day * SECS_PER_DAY + 400),
            ),
            vector: AttackVector::RandomlySpoofed {
                proto: TransportProto::Tcp,
                ports: PortSignature::Single(port),
            },
            packets: 100,
            bytes: 4000,
            intensity_pps: intensity,
            distinct_sources: 10,
        }
    }

    fn hp(ip: &str, day: u64, dur: u64, protocol: ReflectionProtocol) -> AttackEvent {
        AttackEvent {
            target: ip.parse().unwrap(),
            when: TimeRange::new(
                SimTime(day * SECS_PER_DAY + 100),
                SimTime(day * SECS_PER_DAY + 100 + dur),
            ),
            vector: AttackVector::Reflection { protocol },
            packets: 500,
            bytes: 20_000,
            intensity_pps: 10.0,
            distinct_sources: 4,
        }
    }

    struct World {
        zone: ZoneStore,
        catalog: OrgCatalog,
        geo: GeoDb,
        asdb: AsDb,
    }

    fn world() -> (World, OrgId) {
        let mut catalog = OrgCatalog::new();
        let hoster = catalog.add("BigHost", None, OrgRole::Hoster, false);
        let mut zone = ZoneStore::new();
        // Three sites co-hosted on one IP, one site alone on another.
        for _ in 0..3 {
            let d = zone.add_domain(Tld::Com, DayRange::new(DayIndex(0), DayIndex(30)));
            zone.place(Placement {
                domain: d,
                ip: "10.0.0.1".parse().unwrap(),
                days: DayRange::new(DayIndex(0), DayIndex(30)),
                ns: hoster,
                cname: None,
            });
        }
        let d = zone.add_domain(Tld::Org, DayRange::new(DayIndex(0), DayIndex(30)));
        zone.place(Placement {
            domain: d,
            ip: "10.0.0.2".parse().unwrap(),
            days: DayRange::new(DayIndex(0), DayIndex(30)),
            ns: hoster,
            cname: None,
        });
        (
            World {
                zone,
                catalog,
                geo: GeoDb::new(),
                asdb: AsDb::new(),
            },
            hoster,
        )
    }

    fn framework<'a>(w: &'a World, store: &'a EventStore) -> Framework<'a> {
        Framework::new(store, &w.geo, &w.asdb, 30).with_dns(&w.zone, &w.catalog)
    }

    #[test]
    fn web_association_join() {
        let (w, _) = world();
        let mut store = EventStore::new();
        store.ingest_telescope(vec![
            tele("10.0.0.1", 3, 5.0, 80), // hits 3 sites
            tele("10.0.0.9", 4, 1.0, 80), // hits nothing
        ]);
        store.ingest_honeypot(vec![hp("10.0.0.2", 5, 5 * 3600, ReflectionProtocol::Ntp)]);
        let fw = framework(&w, &store);
        let wi = WebImpact::analyze(&fw).expect("zone attached");
        assert_eq!(wi.affected_total, 4);
        assert_eq!(wi.total_sites, 4);
        assert!((wi.affected_fraction() - 1.0).abs() < 1e-9);
        assert_eq!(wi.daily_sites.get(DayIndex(3)), 3.0);
        assert_eq!(wi.daily_sites.get(DayIndex(5)), 1.0);
        assert_eq!(wi.web_ip_count, 2);
        assert_eq!(wi.target_ip_count, 3);
        // Figure 6: one IP with 3 sites (bin 1), one with 1 (bin 0);
        // 10.0.0.9 hosts nothing and is excluded.
        assert_eq!(wi.cohosting.bins()[0], 1);
        assert_eq!(wi.cohosting.bins()[1], 1);
        assert_eq!(wi.cohosting.total(), 2);
    }

    #[test]
    fn site_records_track_history() {
        let (w, _) = world();
        let mut store = EventStore::new();
        store.ingest_telescope(vec![
            tele("10.0.0.1", 3, 2.0, 80),
            tele("10.0.0.1", 7, 50.0, 80),
        ]);
        store.ingest_honeypot(vec![hp("10.0.0.1", 9, 5 * 3600, ReflectionProtocol::Ntp)]);
        let fw = framework(&w, &store);
        let wi = WebImpact::analyze(&fw).unwrap();
        let rec = wi.site_records.values().next().unwrap();
        assert_eq!(rec.count, 3);
        assert_eq!(rec.first_attack_day, DayIndex(3));
        assert_eq!(rec.long4h_day, Some(DayIndex(9)));
        // The day-7 attack is the most intense telescope event.
        assert!(rec.best_intensity_day == DayIndex(7) || rec.best_norm_intensity >= 0.99);
    }

    #[test]
    fn site_records_table_lookups() {
        let rec = |count| SiteAttackRecord {
            count,
            first_attack_day: DayIndex(1),
            best_norm_intensity: 0.5,
            best_intensity_day: DayIndex(1),
            long4h_day: None,
        };
        let table: SiteRecords = [(DomainId(4), rec(7)), (DomainId(1), rec(2))]
            .into_iter()
            .collect();
        assert_eq!(table.len(), 2);
        assert_eq!(table[&DomainId(4)].count, 7);
        assert_eq!(table.get(&DomainId(1)).map(|r| r.count), Some(2));
        assert!(table.get(&DomainId(0)).is_none(), "untouched site");
        assert!(table.get(&DomainId(9)).is_none(), "id past the table");
        let order: Vec<u32> = (&table).into_iter().map(|(d, _)| d.0).collect();
        assert_eq!(order, [4, 1], "insertion order");
        assert!(SiteRecords::default().is_empty());
    }

    #[test]
    fn web_protocol_shares() {
        let (w, _) = world();
        let mut store = EventStore::new();
        store.ingest_telescope(vec![
            tele("10.0.0.1", 1, 1.0, 80),
            tele("10.0.0.1", 2, 1.0, 443),
            tele("10.0.0.1", 3, 1.0, 3306),
        ]);
        store.ingest_honeypot(vec![
            hp("10.0.0.2", 1, 600, ReflectionProtocol::Ntp),
            hp("10.0.0.2", 2, 600, ReflectionProtocol::Dns),
        ]);
        let fw = framework(&w, &store);
        let wi = WebImpact::analyze(&fw).unwrap();
        assert_eq!(wi.web_tcp_share, 1.0);
        assert!((wi.web_port_share - 2.0 / 3.0).abs() < 1e-9);
        assert!((wi.web_ntp_share - 0.5).abs() < 1e-9);
    }

    #[test]
    fn parties_identified() {
        let (w, _) = world();
        let mut store = EventStore::new();
        store.ingest_telescope(vec![tele("10.0.0.1", 3, 5.0, 80)]);
        let fw = framework(&w, &store);
        let parties = parties_on_day(&fw, DayIndex(3));
        assert_eq!(parties.len(), 1);
        assert_eq!(parties[0].0, "BigHost");
        assert_eq!(parties[0].1, 3);
        assert!(parties_on_day(&fw, DayIndex(9)).is_empty());
    }

    #[test]
    fn no_zone_returns_none() {
        let (w, _) = world();
        let store = EventStore::new();
        let fw = Framework::new(&store, &w.geo, &w.asdb, 30);
        assert!(WebImpact::analyze(&fw).is_none());
    }

    #[test]
    fn normalizer_bounds() {
        let mut store = EventStore::new();
        store.ingest_telescope(vec![
            tele("10.0.0.1", 1, 0.5, 80),
            tele("10.0.0.2", 1, 5000.0, 80),
        ]);
        let n = IntensityNormalizer::fit(&store);
        let lo = n.normalize(&tele("10.0.0.1", 1, 0.5, 80));
        let hi = n.normalize(&tele("10.0.0.1", 1, 5000.0, 80));
        assert!((lo - 0.0).abs() < 1e-9);
        assert!((hi - 1.0).abs() < 1e-9);
        let mid = n.normalize(&tele("10.0.0.1", 1, 50.0, 80));
        assert!(mid > 0.0 && mid < 1.0);
    }
}
