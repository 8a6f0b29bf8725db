//! Differential test: `WebImpact::analyze`, which expands each distinct
//! (IP, day) once into domain-indexed accumulators, must equal the plain
//! per-event, per-site hash-set join kept here as the oracle — every
//! field, f64 values bit for bit — on generated worlds and on hand-built
//! stores aimed at its order-dependent rules.

use dosscope_core::webimpact::{IntensityNormalizer, SiteAttackRecord, SiteRecords, WebImpact};
use dosscope_core::{EventStore, Framework};
use dosscope_dns::{DayRange, DomainId, OrgCatalog, OrgRole, Placement, Tld, ZoneStore};
use dosscope_geo::{AsDb, GeoDb};
use dosscope_harness::{Scenario, ScenarioConfig};
use dosscope_types::{
    AttackEvent, AttackVector, DayIndex, EventSource, FastMap, FastSet, LogHistogram,
    PortSignature, ReflectionProtocol, SimTime, TimeRange, TimeSeries, TransportProto,
    SECS_PER_DAY, SECS_PER_HOUR,
};
use std::net::Ipv4Addr;

/// The Web join applied event by event in `all()` order, with one zone
/// lookup per event and hash-set updates per site.
fn oracle(fw: &Framework<'_>) -> Option<WebImpact> {
    let zone = fw.zone?;
    let days = fw.days;
    let normalizer = IntensityNormalizer::fit(fw.store);
    let tele_cutoff = dosscope_core::timeseries::mean_intensity(fw.store.telescope().iter());
    let hp_cutoff = dosscope_core::timeseries::mean_intensity(fw.store.honeypot().iter());

    let mut daily: Vec<FastSet<u32>> = vec![FastSet::default(); days as usize];
    let mut daily_medium: Vec<FastSet<u32>> = vec![FastSet::default(); days as usize];
    let mut affected: FastSet<u32> = FastSet::default();
    let mut records = FastMap::default();
    let mut target_ips: FastSet<Ipv4Addr> = FastSet::default();
    let mut web_ips: FastSet<Ipv4Addr> = FastSet::default();
    let mut first_seen_ip: FastSet<Ipv4Addr> = FastSet::default();
    let mut cohosting = LogHistogram::new(7);
    let mut cohosting_by_tld = Tld::ALL.map(|tld| (tld, LogHistogram::new(7)));
    let mut biggest_cohost: Option<(Ipv4Addr, u64)> = None;
    let (mut tele_events, mut tele_tcp, mut tele_single, mut tele_webport) =
        (0u64, 0u64, 0u64, 0u64);
    let (mut hp_events, mut hp_ntp) = (0u64, 0u64);

    for e in fw.store.all() {
        let day = e.when.start.day();
        if day.0 >= days {
            continue;
        }
        target_ips.insert(e.target);
        let sites = zone.domains_on_ip(e.target, day);
        if first_seen_ip.insert(e.target) {
            cohosting.push(sites.len() as u64);
            for (tld, hist) in cohosting_by_tld.iter_mut() {
                hist.push(sites.iter().filter(|d| zone.tld_of(**d) == *tld).count() as u64);
            }
            if sites.len() as u64 > biggest_cohost.map_or(0, |(_, n)| n) {
                biggest_cohost = Some((e.target, sites.len() as u64));
            }
        }
        if sites.is_empty() {
            continue;
        }
        web_ips.insert(e.target);
        match e.source() {
            EventSource::Telescope => {
                tele_events += 1;
                if e.transport_proto() == Some(TransportProto::Tcp) {
                    tele_tcp += 1;
                    if let Some(PortSignature::Single(p)) = e.port_signature() {
                        tele_single += 1;
                        tele_webport += u64::from(dosscope_types::service::is_web_port(p));
                    }
                }
            }
            EventSource::Honeypot => {
                hp_events += 1;
                hp_ntp += u64::from(e.reflection_protocol() == Some(ReflectionProtocol::Ntp));
            }
        }
        let medium = match e.source() {
            EventSource::Telescope => e.intensity_pps >= tele_cutoff,
            EventSource::Honeypot => e.intensity_pps >= hp_cutoff,
        };
        let norm = normalizer.normalize(&e);
        let long4h = e.source() == EventSource::Honeypot && e.duration_secs() >= 4 * SECS_PER_HOUR;
        for site in sites {
            daily[day.0 as usize].insert(site.0);
            if medium {
                daily_medium[day.0 as usize].insert(site.0);
            }
            affected.insert(site.0);
            let rec = records.entry(site).or_insert(SiteAttackRecord {
                count: 0,
                first_attack_day: day,
                best_norm_intensity: -1.0,
                best_intensity_day: day,
                long4h_day: None,
            });
            rec.count += 1;
            rec.first_attack_day = rec.first_attack_day.min(day);
            if norm > rec.best_norm_intensity {
                rec.best_norm_intensity = norm;
                rec.best_intensity_day = day;
            }
            if long4h && rec.long4h_day.is_none() {
                rec.long4h_day = Some(day);
            }
        }
    }

    let to_series = |sets: Vec<FastSet<u32>>| {
        let mut ts = TimeSeries::zeros(days);
        for (i, s) in sets.into_iter().enumerate() {
            ts.set(DayIndex(i as u32), s.len() as f64);
        }
        ts
    };
    let share = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    Some(WebImpact {
        affected_total: affected.len() as u64,
        total_sites: zone.domain_count() as u64,
        daily_sites: to_series(daily),
        daily_sites_medium: to_series(daily_medium),
        web_ip_count: web_ips.len() as u64,
        target_ip_count: target_ips.len() as u64,
        cohosting,
        cohosting_by_tld,
        biggest_cohost,
        site_records: records.into_iter().collect(),
        web_tcp_share: share(tele_tcp, tele_events),
        web_port_share: share(tele_webport, tele_single),
        web_ntp_share: share(hp_ntp, hp_events),
        normalizer,
    })
}

type RecordBits = (u32, DayIndex, u64, DayIndex, Option<DayIndex>);

fn record_bits(r: &SiteAttackRecord) -> RecordBits {
    (
        r.count,
        r.first_attack_day,
        r.best_norm_intensity.to_bits(),
        r.best_intensity_day,
        r.long4h_day,
    )
}

fn series_bits(ts: &TimeSeries) -> Vec<u64> {
    ts.values().iter().map(|v| v.to_bits()).collect()
}

/// Run both joins on `fw` and assert every field equal.
fn assert_matches_oracle(fw: &Framework<'_>, what: &str) -> WebImpact {
    let got = WebImpact::analyze(fw).expect("zone attached");
    let want = oracle(fw).expect("zone attached");
    assert_eq!(
        got.affected_total, want.affected_total,
        "{what}: affected_total"
    );
    assert_eq!(got.total_sites, want.total_sites, "{what}: total_sites");
    assert_eq!(
        series_bits(&got.daily_sites),
        series_bits(&want.daily_sites),
        "{what}: daily_sites"
    );
    assert_eq!(
        series_bits(&got.daily_sites_medium),
        series_bits(&want.daily_sites_medium),
        "{what}: daily_sites_medium"
    );
    assert_eq!(got.web_ip_count, want.web_ip_count, "{what}: web_ip_count");
    assert_eq!(
        got.target_ip_count, want.target_ip_count,
        "{what}: target_ip_count"
    );
    assert_eq!(
        got.cohosting.bins(),
        want.cohosting.bins(),
        "{what}: cohosting"
    );
    for ((gt, gh), (wt, wh)) in got.cohosting_by_tld.iter().zip(&want.cohosting_by_tld) {
        assert_eq!(gt, wt, "{what}: cohosting_by_tld order");
        assert_eq!(gh.bins(), wh.bins(), "{what}: cohosting {wt}");
    }
    assert_eq!(
        got.biggest_cohost, want.biggest_cohost,
        "{what}: biggest_cohost"
    );
    let bits = |m: &SiteRecords| -> FastMap<DomainId, RecordBits> {
        m.into_iter().map(|(d, r)| (*d, record_bits(r))).collect()
    };
    assert_eq!(
        bits(&got.site_records),
        bits(&want.site_records),
        "{what}: site_records"
    );
    for (name, g, w) in [
        ("web_tcp_share", got.web_tcp_share, want.web_tcp_share),
        ("web_port_share", got.web_port_share, want.web_port_share),
        ("web_ntp_share", got.web_ntp_share, want.web_ntp_share),
    ] {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: {name}");
    }
    assert_eq!(
        format!("{:?}", got.normalizer),
        format!("{:?}", want.normalizer),
        "{what}: normalizer"
    );
    got
}

#[test]
fn generated_worlds_match_the_oracle() {
    let small = ScenarioConfig::test_small();
    let mut configs: Vec<ScenarioConfig> = [small.seed, 7, 12_345]
        .into_iter()
        .map(|seed| ScenarioConfig {
            seed,
            ..small.clone()
        })
        .collect();
    configs.push(ScenarioConfig { days: 120, ..small });
    for config in &configs {
        let world = Scenario::run(config);
        let web = assert_matches_oracle(
            &world.framework(),
            &format!("seed {} days {}", config.seed, config.days),
        );
        assert!(web.affected_total > 0, "the world attacks some sites");
    }
}

#[test]
#[ignore = "scale 600 is slow in a debug build; ci.sh runs it in release"]
fn scale_600_matches_the_oracle() {
    let config = ScenarioConfig {
        scale: 600.0,
        ..ScenarioConfig::test_small()
    };
    let world = Scenario::run(&config);
    let web = assert_matches_oracle(&world.framework(), "scale 600");
    assert!(web.affected_total > 0, "the world attacks some sites");
}

fn ip(s: &str) -> Ipv4Addr {
    s.parse().unwrap()
}

fn at(day: u64, offset: u64) -> SimTime {
    SimTime(day * SECS_PER_DAY + offset)
}

fn tele(target: &str, day: u64, offset: u64, intensity: f64, port: u16) -> AttackEvent {
    AttackEvent {
        target: ip(target),
        when: TimeRange::new(at(day, offset), at(day, offset + 300)),
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

fn hp(target: &str, day: u64, offset: u64, dur: u64, intensity: f64) -> AttackEvent {
    AttackEvent {
        target: ip(target),
        when: TimeRange::new(at(day, offset), at(day, offset + dur)),
        vector: AttackVector::Reflection {
            protocol: ReflectionProtocol::Ntp,
        },
        packets: 500,
        bytes: 20_000,
        intensity_pps: intensity,
        distinct_sources: 4,
    }
}

const WINDOW: u32 = 30;

/// A site's placements as (IP, first day, end day).
type Placements = &'static [(&'static str, u32, u32)];

/// A hand-built world over a `WINDOW`-day window.
struct Hand {
    zone: ZoneStore,
    catalog: OrgCatalog,
    geo: GeoDb,
    asdb: AsDb,
}

impl Hand {
    /// One site per entry, active over the whole window.
    fn new(sites: &[(Tld, Placements)]) -> Hand {
        let mut catalog = OrgCatalog::new();
        let hoster = catalog.add("Host", None, OrgRole::Hoster, false);
        let mut zone = ZoneStore::new();
        for (tld, placements) in sites {
            let domain = zone.add_domain(*tld, DayRange::new(DayIndex(0), DayIndex(WINDOW)));
            for &(addr, from, to) in *placements {
                zone.place(Placement {
                    domain,
                    ip: ip(addr),
                    days: DayRange::new(DayIndex(from), DayIndex(to)),
                    ns: hoster,
                    cname: None,
                });
            }
        }
        Hand {
            zone,
            catalog,
            geo: GeoDb::new(),
            asdb: AsDb::new(),
        }
    }

    fn framework<'a>(&'a self, store: &'a EventStore) -> Framework<'a> {
        Framework::new(store, &self.geo, &self.asdb, WINDOW).with_dns(&self.zone, &self.catalog)
    }
}

const A: &str = "10.0.0.1";
const B: &str = "10.0.0.2";
const C: &str = "10.0.0.3";
const E: &str = "10.0.0.5";
const F: &str = "10.0.0.6";
const G: &str = "10.0.0.9";

#[test]
fn hand_built_order_rules_match_the_oracle() {
    let whole: Placements = &[(A, 0, WINDOW)];
    let on_e: Placements = &[(E, 0, WINDOW)];
    let on_f: Placements = &[(F, 0, WINDOW)];
    let mut sites: Vec<(Tld, Placements)> = vec![
        (Tld::Com, whole),
        (Tld::Com, whole),
        (Tld::Net, whole),
        // Moves from A to B on day 12.
        (Tld::Org, &[(A, 0, 12), (B, 12, WINDOW)]),
        // C hosts two sites on day 2 and three on day 8.
        (Tld::Com, &[(C, 0, 5)]),
        (Tld::Net, &[(C, 0, WINDOW)]),
        (Tld::Org, &[(C, 5, WINDOW)]),
        (Tld::Com, &[(C, 5, WINDOW)]),
    ];
    sites.extend([(Tld::Com, on_e); 5]);
    sites.extend([(Tld::Com, on_f); 5]);
    let hand = Hand::new(&sites);

    let mut store = EventStore::new();
    store.ingest_telescope(vec![
        // Many events on (A, day 6), the telescope minimum among them.
        tele(A, 6, 10, 5.0, 443),
        tele(A, 6, 20, 50.0, 80),
        tele(A, 6, 30, 50.0, 3306),
        tele(A, 6, 40, 2.0, 80),
        tele(A, 6, 50, 1.0, 22),
        // The telescope maximum: normalized 1.0, on day 9.
        tele(A, 9, 100, 1000.0, 80),
        // C's first event in `all()` order, after its day-2 honeypot attack.
        tele(C, 8, 100, 20.0, 80),
        // B hosts nothing until the move on day 12.
        tele(B, 10, 100, 7.0, 80),
        tele(B, 15, 100, 7.0, 443),
        tele(A, 15, 200, 7.0, 443),
        // E ties F for the biggest group and comes first in `all()`.
        tele(E, 20, 100, 3.0, 22),
        tele(G, 4, 100, 9.0, 80),
        // Out of the window.
        tele(A, 40, 100, 9.0, 80),
    ]);
    store.ingest_honeypot(vec![
        // The honeypot maximum: also normalized 1.0, six days earlier.
        hp(A, 3, 100, 600, 500.0),
        hp(C, 2, 100, 5 * 3600, 40.0),
        hp(F, 4, 100, 600, 10.0),
        hp(A, 6, 60, 5 * 3600, 100.0),
        hp(A, 6, 70, 600, 30.0),
        hp(A, 11, 100, 5 * 3600, 200.0),
        hp(A, 29, 100, 600, 30.0),
        hp(B, 31, 100, 600, 30.0),
    ]);

    let fw = hand.framework(&store);
    let web = assert_matches_oracle(&fw, "hand-built");

    let s0 = &web.site_records[&DomainId(0)];
    assert_eq!(s0.first_attack_day, DayIndex(3));
    assert_eq!(s0.best_norm_intensity, 1.0);
    assert_eq!(
        s0.best_intensity_day,
        DayIndex(9),
        "the telescope tie at 1.0 wins"
    );
    assert_eq!(s0.long4h_day, Some(DayIndex(6)));
    // 7 on day 6, one each on days 3, 9, 11, 15, 29.
    assert_eq!(s0.count, 12);
    let moved = &web.site_records[&DomainId(3)];
    assert_eq!(moved.count, 11, "day-15 attack on B, not on A");
    assert_eq!(web.daily_sites.get(DayIndex(6)), 4.0);
    // A's three remaining sites plus the moved one on B.
    assert_eq!(web.daily_sites.get(DayIndex(15)), 4.0);

    assert_eq!(web.target_ip_count, 6);
    assert_eq!(web.web_ip_count, 5);
    assert_eq!(web.biggest_cohost, Some((ip(E), 5)));
    // C enters Figure 6 with its day-8 sites, one of them in .org.
    let (tld, org) = &web.cohosting_by_tld[2];
    assert_eq!(*tld, Tld::Org);
    assert_eq!(org.bins()[0], 2, "A's and C's .org sites");
}
