//! Typed report artifacts: one structure per table and figure of the
//! paper, each with a plain-text renderer. `repro` prints these rows;
//! EXPERIMENTS.md records them against the published values.

use crate::enrich::Enricher;
use crate::timeseries::{mean_intensity, DailySeries};
use crate::webimpact::WebImpact;
use crate::Framework;
use dosscope_dns::Tld;
use dosscope_types::{
    tally, CountryCode, Ecdf, EventSource, FrozenEcdf, ReflectionProtocol, TransportProto,
};
use std::fmt::Write as _;

/// Format a count with thousands separators.
pub fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Row label ("Network Telescope", ...).
    pub source: String,
    /// Events, targets, /24s, /16s.
    pub summary: crate::store::SourceSummary,
    /// Unique origin ASNs over targets.
    pub asns: u64,
}

/// Table 1: the DoS attack events data set summary.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Telescope, honeypot and combined rows.
    pub rows: [Table1Row; 3],
}

impl Table1 {
    /// Build from a framework.
    pub fn build(fw: &Framework<'_>) -> Table1 {
        let enricher = Enricher::new(fw.geo, fw.asdb);
        // The summaries are O(1) reads of the store's ingest-time
        // aggregates, and the ASN counts walk each *distinct* victim
        // once (the store's victim bitset) instead of every event row —
        // the distinct-ASN set over distinct targets is the same set.
        let asn_count = |targets: &mut dyn Iterator<Item = std::net::Ipv4Addr>| {
            tally(targets.filter_map(|target| enricher.lookup(target).1)).len() as u64
        };
        let t = Table1Row {
            source: "Network Telescope".into(),
            summary: fw.store.summary(EventSource::Telescope),
            asns: asn_count(&mut fw.store.distinct_targets(EventSource::Telescope)),
        };
        let h = Table1Row {
            source: "Amplification Honeypot".into(),
            summary: fw.store.summary(EventSource::Honeypot),
            asns: asn_count(&mut fw.store.distinct_targets(EventSource::Honeypot)),
        };
        let c = Table1Row {
            source: "Combined".into(),
            summary: fw.store.summary_combined(),
            asns: asn_count(&mut fw.store.distinct_targets_combined()),
        };
        Table1 { rows: [t, h, c] }
    }

    /// Render as text.
    pub fn render(&self) -> String {
        let mut s = String::from(
            "Table 1: DoS attack events data\nsource                   #events   #targets   #/24s   #/16s   #ASNs\n",
        );
        for r in &self.rows {
            let _ = writeln!(
                s,
                "{:<24} {:>8} {:>10} {:>7} {:>7} {:>7}",
                r.source,
                fmt_count(r.summary.events),
                fmt_count(r.summary.targets),
                fmt_count(r.summary.blocks24),
                fmt_count(r.summary.blocks16),
                fmt_count(r.asns),
            );
        }
        s
    }
}

/// Table 2: the active DNS data set summary.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Per-TLD rows: `(tld, sites, data points, est. bytes)`.
    pub rows: Vec<(Tld, u64, u64, u64)>,
}

impl Table2 {
    /// Build from the zone attached to the framework.
    pub fn build(fw: &Framework<'_>) -> Option<Table2> {
        let totals = fw.zone?.tld_totals();
        let rows = Tld::ALL
            .into_iter()
            .zip(totals)
            .map(|(tld, (sites, points))| (tld, sites, points, points * 24))
            .collect();
        Some(Table2 { rows })
    }

    /// Render as text.
    pub fn render(&self) -> String {
        let mut s = String::from(
            "Table 2: Active DNS data set\nsource   #Web sites   #data points   size (bytes)\n",
        );
        let mut tot = (0u64, 0u64, 0u64);
        for (tld, sites, points, bytes) in &self.rows {
            let _ = writeln!(
                s,
                "{:<8} {:>10} {:>14} {:>14}",
                tld.to_string(),
                fmt_count(*sites),
                fmt_count(*points),
                fmt_count(*bytes)
            );
            tot = (tot.0 + sites, tot.1 + points, tot.2 + bytes);
        }
        let _ = writeln!(
            s,
            "{:<8} {:>10} {:>14} {:>14}",
            "Combined",
            fmt_count(tot.0),
            fmt_count(tot.1),
            fmt_count(tot.2)
        );
        s
    }
}

/// Table 3: Web sites per DPS provider.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// `(provider name, #web sites)` in catalog order.
    pub rows: Vec<(String, u64)>,
}

impl Table3 {
    /// Build from the DPS data set.
    pub fn build(fw: &Framework<'_>) -> Option<Table3> {
        let dps = fw.dps?;
        let rows = dps
            .providers()
            .iter()
            .zip(dps.customer_counts())
            .map(|(p, n)| (p.name.clone(), n))
            .collect();
        Some(Table3 { rows })
    }

    /// Render as text.
    pub fn render(&self) -> String {
        let mut s = String::from("Table 3: DDoS Protection Service use\nprovider       #Web sites\n");
        for (name, n) in &self.rows {
            let _ = writeln!(s, "{:<14} {:>10}", name, fmt_count(*n));
        }
        s
    }
}

/// Table 4: per-country target ranking, one panel per source.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// Telescope panel: `(country, #unique targets, share %)`, descending;
    /// includes an aggregated "Other" row at the end.
    pub telescope: Vec<(String, u64, f64)>,
    /// Honeypot panel.
    pub honeypot: Vec<(String, u64, f64)>,
    /// Full ranking (no Other aggregation) for rank queries, telescope.
    pub telescope_full: Vec<(CountryCode, u64)>,
    /// Same for the honeypot panel.
    pub honeypot_full: Vec<(CountryCode, u64)>,
}

/// One rendered country panel: (name, targets, share) rows plus the raw
/// per-country counts.
type PanelRows = (Vec<(String, u64, f64)>, Vec<(CountryCode, u64)>);

impl Table4 {
    /// Build from a framework (top-5 + Other, like the paper).
    pub fn build(fw: &Framework<'_>) -> Table4 {
        let enricher = Enricher::new(fw.geo, fw.asdb);
        // Countries are counted over the store's distinct-victim bitset:
        // one enrichment lookup per unique target, no per-event dedup.
        let panel = |targets: &mut dyn Iterator<Item = std::net::Ipv4Addr>| -> PanelRows {
            let full = tally(targets.map(|target| enricher.lookup(target).0));
            (top_and_other(&full, CountryCode::to_string), full)
        };
        let (telescope, telescope_full) =
            panel(&mut fw.store.distinct_targets(EventSource::Telescope));
        let (honeypot, honeypot_full) =
            panel(&mut fw.store.distinct_targets(EventSource::Honeypot));
        Table4 {
            telescope,
            honeypot,
            telescope_full,
            honeypot_full,
        }
    }

    /// 1-based rank of a country in a panel's full ranking.
    pub fn rank(full: &[(CountryCode, u64)], cc: CountryCode) -> Option<usize> {
        full.iter().position(|&(c, _)| c == cc).map(|i| i + 1)
    }

    /// Render both panels.
    pub fn render(&self) -> String {
        let mut s = String::from("Table 4: targeted IPs per country\n");
        for (label, rows) in [("(a) Telescope", &self.telescope), ("(b) Honeypot", &self.honeypot)]
        {
            let _ = writeln!(s, "{label}\ncountry   #targets      %");
            for (cc, n, pct) in rows {
                let _ = writeln!(s, "{:<9} {:>8} {:>6.2}%", cc, fmt_count(*n), pct);
            }
        }
        s
    }
}

/// Table 5: IP protocol distribution of randomly spoofed attacks.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// Shares per protocol in [`TransportProto::ALL`] order (%).
    pub shares: [f64; 4],
    /// Raw counts.
    pub counts: [u64; 4],
}

impl Table5 {
    /// Build over telescope events.
    pub fn build(fw: &Framework<'_>) -> Table5 {
        let mut counts = [0u64; 4];
        for e in fw.store.telescope() {
            if let Some(proto) = e.transport_proto() {
                counts[proto.index()] += 1;
            }
        }
        let total: u64 = counts.iter().sum();
        let shares =
            core::array::from_fn(|i| 100.0 * counts[i] as f64 / total.max(1) as f64);
        Table5 { shares, counts }
    }

    /// Render as text.
    pub fn render(&self) -> String {
        let mut s = String::from("Table 5: IP protocol distribution (telescope)\n");
        for (i, p) in TransportProto::ALL.iter().enumerate() {
            let _ = writeln!(s, "{:<6} {:>6.1}%", p.to_string(), self.shares[i]);
        }
        s
    }
}

/// Table 6: reflection protocol distribution.
#[derive(Debug, Clone)]
pub struct Table6 {
    /// `(protocol, events, share %)` descending, top-5 + Other.
    pub rows: Vec<(String, u64, f64)>,
    /// Full per-protocol counts, ranked like the rows (protocols with no
    /// event are absent).
    pub counts: Vec<(ReflectionProtocol, u64)>,
}

impl Table6 {
    /// Build over honeypot events.
    pub fn build(fw: &Framework<'_>) -> Table6 {
        let counts = tally(fw.store.honeypot().iter().filter_map(|e| e.reflection_protocol()));
        let rows = top_and_other(&counts, ReflectionProtocol::to_string);
        Table6 { rows, counts }
    }

    /// Render as text.
    pub fn render(&self) -> String {
        let mut s = String::from("Table 6: reflection protocol distribution (honeypots)\ntype     #events      %\n");
        for (p, n, pct) in &self.rows {
            let _ = writeln!(s, "{:<8} {:>8} {:>6.2}%", p, fmt_count(*n), pct);
        }
        s
    }
}

/// Table 7: single- vs multi-port randomly spoofed attacks.
#[derive(Debug, Clone, Copy)]
pub struct Table7 {
    /// Events that targeted one port (or carry no port info).
    pub single: u64,
    /// Events that targeted multiple ports.
    pub multi: u64,
}

impl Table7 {
    /// Build over telescope events (no-port events count as single, like
    /// [`dosscope_types::PortSignature::is_single`]).
    pub fn build(fw: &Framework<'_>) -> Table7 {
        let tele = fw.store.telescope();
        let single = tele
            .iter()
            .filter(|e| e.port_signature().is_some_and(|p| p.is_single()))
            .count() as u64;
        Table7 {
            single,
            multi: tele.len() as u64 - single,
        }
    }

    /// Single-port share (60.6 % in the paper).
    pub fn single_share(&self) -> f64 {
        let total = self.single + self.multi;
        if total == 0 {
            0.0
        } else {
            self.single as f64 / total as f64
        }
    }

    /// Render as text.
    pub fn render(&self) -> String {
        format!(
            "Table 7: target port cardinality (telescope)\nsingle-port {:>8} {:>5.1}%\nmulti-port  {:>8} {:>5.1}%\n",
            fmt_count(self.single),
            100.0 * self.single_share(),
            fmt_count(self.multi),
            100.0 * (1.0 - self.single_share()),
        )
    }
}

/// Table 8: top targeted services for single-port attacks, per transport.
#[derive(Debug, Clone)]
pub struct Table8 {
    /// TCP panel: `(service, events, share %)` top-5 + Other.
    pub tcp: Vec<(String, u64, f64)>,
    /// UDP panel.
    pub udp: Vec<(String, u64, f64)>,
}

impl Table8 {
    /// Build over single-port telescope events.
    pub fn build(fw: &Framework<'_>) -> Table8 {
        let tele = fw.store.telescope();
        let panel = |proto: TransportProto| -> Vec<(String, u64, f64)> {
            let ports = tally(
                tele.iter()
                    .filter(|e| e.transport_proto() == Some(proto))
                    .filter_map(|e| e.port_signature()?.single_port()),
            );
            top_and_other(&ports, |&port| {
                dosscope_types::service::Service::classify(proto, port).to_string()
            })
        };
        Table8 {
            tcp: panel(TransportProto::Tcp),
            udp: panel(TransportProto::Udp),
        }
    }

    /// Share of Web services (HTTP+HTTPS) in the TCP panel (69.36 % in the
    /// paper over all single-port TCP attacks).
    pub fn tcp_web_share(&self) -> f64 {
        self.tcp
            .iter()
            .filter(|(name, _, _)| name == "HTTP" || name == "HTTPS")
            .map(|(_, _, pct)| pct / 100.0)
            .sum()
    }

    /// Render both panels.
    pub fn render(&self) -> String {
        let mut s = String::from("Table 8: top targeted services, single-port attacks (telescope)\n");
        for (label, rows) in [("(a) TCP", &self.tcp), ("(b) UDP", &self.udp)] {
            let _ = writeln!(s, "{label}\ntype       #events      %");
            for (name, n, pct) in rows {
                let _ = writeln!(s, "{:<10} {:>8} {:>6.2}%", name, fmt_count(*n), pct);
            }
        }
        s
    }
}

/// The Tables 4, 6 and 8 panel layout over a ranked tally: the first five
/// keys (named by `name`), then one "Other" row for the rest, each with its
/// share (%) of the tally's total.
fn top_and_other<K>(ranked: &[(K, u64)], name: impl Fn(&K) -> String) -> Vec<(String, u64, f64)> {
    let total: u64 = ranked.iter().map(|&(_, n)| n).sum();
    let row = |label: String, n: u64| (label, n, 100.0 * n as f64 / total.max(1) as f64);
    let mut rows: Vec<(String, u64, f64)> =
        ranked.iter().take(5).map(|(key, n)| row(name(key), *n)).collect();
    rows.push(row("Other".into(), ranked.iter().skip(5).map(|&(_, n)| n).sum()));
    rows
}

/// Figure 2/3/4 data: empirical distribution of durations or intensities.
#[derive(Debug)]
pub struct DistributionFigure {
    /// Figure label.
    pub label: String,
    /// The distribution.
    pub ecdf: FrozenEcdf,
}

impl DistributionFigure {
    /// Duration distribution of one source (Figure 2 panel).
    pub fn durations(fw: &Framework<'_>, source: EventSource) -> DistributionFigure {
        let events = fw.store.of(source);
        let ecdf: Ecdf = events.iter().map(|e| e.duration_secs() as f64).collect();
        DistributionFigure {
            label: format!("Figure 2 ({source}) attack duration CDF"),
            ecdf: ecdf.freeze(),
        }
    }

    /// Intensity distribution of one source (Figures 3 and 4-overall).
    pub fn intensities(fw: &Framework<'_>, source: EventSource) -> DistributionFigure {
        let events = fw.store.of(source);
        let ecdf: Ecdf = events.iter().map(|e| e.intensity_pps).collect();
        DistributionFigure {
            label: format!("intensity CDF ({source})"),
            ecdf: ecdf.freeze(),
        }
    }

    /// Per-protocol honeypot intensity distributions (Figure 4 curves).
    pub fn intensities_per_protocol(
        fw: &Framework<'_>,
    ) -> Vec<(ReflectionProtocol, FrozenEcdf)> {
        ReflectionProtocol::TOP5
            .iter()
            .map(|&p| {
                let ecdf: Ecdf = fw
                    .store
                    .honeypot()
                    .iter()
                    .filter(|e| e.reflection_protocol() == Some(p))
                    .map(|e| e.intensity_pps)
                    .collect();
                (p, ecdf.freeze())
            })
            .collect()
    }

    /// Render the CDF at the given thresholds.
    pub fn render(&self, thresholds: &[f64]) -> String {
        let mut s = format!("{} (n={})\n", self.label, self.ecdf.len());
        for (x, f) in self.ecdf.curve(thresholds) {
            let _ = writeln!(s, "  <= {:>10.1}: {:>5.1}%", x, 100.0 * f);
        }
        let _ = writeln!(
            s,
            "  mean {:.1}  median {:.1}",
            self.ecdf.mean().unwrap_or(0.0),
            self.ecdf.median().unwrap_or(0.0)
        );
        s
    }
}

/// Figure 1: the three daily-activity panels.
pub struct Figure1 {
    /// Telescope panel.
    pub telescope: DailySeries,
    /// Honeypot panel.
    pub honeypot: DailySeries,
    /// Combined panel.
    pub combined: DailySeries,
}

impl Figure1 {
    /// Build all three panels.
    pub fn build(fw: &Framework<'_>) -> Figure1 {
        let enricher = Enricher::new(fw.geo, fw.asdb);
        Figure1 {
            telescope: DailySeries::build(
                fw.store.telescope().iter(),
                &enricher,
                fw.days,
                |_| true,
            ),
            honeypot: DailySeries::build(fw.store.honeypot().iter(), &enricher, fw.days, |_| true),
            combined: DailySeries::build(fw.store.all(), &enricher, fw.days, |_| true),
        }
    }

    /// Render the headline daily means.
    pub fn render(&self) -> String {
        format!(
            "Figure 1: daily attacks (mean/day) — telescope {:.1}, honeypot {:.1}, combined {:.1}\n",
            self.telescope.mean_daily_attacks(),
            self.honeypot.mean_daily_attacks(),
            self.combined.mean_daily_attacks(),
        )
    }
}

/// Figure 5: medium-or-higher-intensity attacks per day (combined).
pub struct Figure5 {
    /// The filtered combined series.
    pub series: DailySeries,
}

impl Figure5 {
    /// Build using the per-source mean-intensity cutoffs.
    pub fn build(fw: &Framework<'_>) -> Figure5 {
        let enricher = Enricher::new(fw.geo, fw.asdb);
        let tele_cutoff = mean_intensity(fw.store.telescope().iter());
        let hp_cutoff = mean_intensity(fw.store.honeypot().iter());
        let series = DailySeries::build(fw.store.all(), &enricher, fw.days, |e| {
            match e.source() {
                EventSource::Telescope => e.intensity_pps >= tele_cutoff,
                EventSource::Honeypot => e.intensity_pps >= hp_cutoff,
            }
        });
        Figure5 { series }
    }

    /// Render the headline mean.
    pub fn render(&self) -> String {
        format!(
            "Figure 5: medium+ intensity attacks, mean {:.1}/day\n",
            self.series.mean_daily_attacks()
        )
    }
}

/// Figure 6/7 rendering helpers live on [`WebImpact`]; this renders them.
pub fn render_web_impact(web: &WebImpact) -> String {
    let mut s = String::from("Figure 6: co-hosting groups of attacked IPs\n");
    for (label, count) in web.cohosting.labels().iter().zip(web.cohosting.bins()) {
        let _ = writeln!(s, "  {:<14} {:>8}", label, fmt_count(*count));
    }
    let (mean, frac) = web.mean_daily_sites();
    let (peak_day, peak_frac) = web.peak_fraction();
    let _ = writeln!(
        s,
        "Figure 7: web sites on attacked IPs — {:.1}% of namespace over window; mean {:.0}/day ({:.2}%/day); peak {:.2}% on {}",
        100.0 * web.affected_fraction(),
        mean,
        100.0 * frac,
        100.0 * peak_frac,
        peak_day,
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventStore;
    use dosscope_geo::{AsDb, GeoDb};
    use dosscope_types::{Asn, AttackEvent, AttackVector, PortSignature, SimTime, TimeRange};

    fn tele(ip: &str, proto: TransportProto, ports: PortSignature, pps: f64) -> AttackEvent {
        AttackEvent {
            target: ip.parse().unwrap(),
            when: TimeRange::new(SimTime(100), SimTime(400)),
            vector: AttackVector::RandomlySpoofed { proto, ports },
            packets: 100,
            bytes: 4000,
            intensity_pps: pps,
            distinct_sources: 10,
        }
    }

    fn hp(ip: &str, protocol: ReflectionProtocol) -> AttackEvent {
        AttackEvent {
            target: ip.parse().unwrap(),
            when: TimeRange::new(SimTime(100), SimTime(400)),
            vector: AttackVector::Reflection { protocol },
            packets: 500,
            bytes: 20_000,
            intensity_pps: 10.0,
            distinct_sources: 4,
        }
    }

    fn dbs() -> (GeoDb, AsDb) {
        let mut geo = GeoDb::new();
        let mut asdb = AsDb::new();
        geo.insert("10.0.0.0/8".parse().unwrap(), CountryCode::new("US"));
        geo.insert("20.0.0.0/8".parse().unwrap(), CountryCode::new("CN"));
        asdb.insert("10.0.0.0/8".parse().unwrap(), Asn(1));
        asdb.insert("20.0.0.0/8".parse().unwrap(), Asn(2));
        (geo, asdb)
    }

    fn store() -> EventStore {
        let mut s = EventStore::new();
        s.ingest_telescope(vec![
            tele("10.0.0.1", TransportProto::Tcp, PortSignature::Single(80), 1.0),
            tele("10.0.0.2", TransportProto::Tcp, PortSignature::Single(443), 2.0),
            tele("10.0.0.3", TransportProto::Udp, PortSignature::Single(27015), 3.0),
            tele("20.0.0.1", TransportProto::Tcp, PortSignature::Multi(4), 4.0),
            tele("20.0.0.2", TransportProto::Icmp, PortSignature::None, 100.0),
        ]);
        s.ingest_honeypot(vec![
            hp("10.0.0.1", ReflectionProtocol::Ntp),
            hp("10.0.0.9", ReflectionProtocol::Ntp),
            hp("20.0.0.9", ReflectionProtocol::Dns),
        ]);
        s
    }

    #[test]
    fn table1_counts() {
        let (geo, asdb) = dbs();
        let store = store();
        let fw = Framework::new(&store, &geo, &asdb, 10);
        let t1 = Table1::build(&fw);
        assert_eq!(t1.rows[0].summary.events, 5);
        assert_eq!(t1.rows[1].summary.events, 3);
        assert_eq!(t1.rows[2].summary.events, 8);
        assert_eq!(t1.rows[2].summary.targets, 7, "10.0.0.1 shared");
        assert_eq!(t1.rows[0].asns, 2);
        assert!(t1.render().contains("Combined"));
    }

    #[test]
    fn table4_ranking() {
        let (geo, asdb) = dbs();
        let store = store();
        let fw = Framework::new(&store, &geo, &asdb, 10);
        let t4 = Table4::build(&fw);
        assert_eq!(t4.telescope[0].0, "US");
        assert_eq!(t4.telescope[0].1, 3);
        assert_eq!(
            Table4::rank(&t4.telescope_full, CountryCode::new("CN")),
            Some(2)
        );
        assert!(t4.render().contains("US"));
    }

    #[test]
    fn table5_shares() {
        let (geo, asdb) = dbs();
        let store = store();
        let fw = Framework::new(&store, &geo, &asdb, 10);
        let t5 = Table5::build(&fw);
        assert_eq!(t5.counts, [3, 1, 1, 0]);
        assert!((t5.shares[0] - 60.0).abs() < 1e-9);
    }

    #[test]
    fn table6_top5() {
        let (geo, asdb) = dbs();
        let store = store();
        let fw = Framework::new(&store, &geo, &asdb, 10);
        let t6 = Table6::build(&fw);
        assert_eq!(t6.rows[0].0, "NTP");
        assert_eq!(t6.rows[0].1, 2);
        assert!((t6.rows[0].2 - 66.66).abs() < 0.1);
    }

    #[test]
    fn table7_port_cardinality() {
        let (geo, asdb) = dbs();
        let store = store();
        let fw = Framework::new(&store, &geo, &asdb, 10);
        let t7 = Table7::build(&fw);
        // 3 single + 1 none (counted single) vs 1 multi.
        assert_eq!(t7.single, 4);
        assert_eq!(t7.multi, 1);
        assert!((t7.single_share() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn table8_services() {
        let (geo, asdb) = dbs();
        let store = store();
        let fw = Framework::new(&store, &geo, &asdb, 10);
        let t8 = Table8::build(&fw);
        let names: Vec<&str> = t8.tcp.iter().map(|(n, _, _)| n.as_str()).collect();
        assert!(names.contains(&"HTTP"));
        assert!(names.contains(&"HTTPS"));
        assert!((t8.tcp_web_share() - 1.0).abs() < 1e-9, "both TCP singles are web");
        assert_eq!(t8.udp[0].0, "27015");
    }

    #[test]
    fn figures_build() {
        let (geo, asdb) = dbs();
        let store = store();
        let fw = Framework::new(&store, &geo, &asdb, 10);
        let f1 = Figure1::build(&fw);
        assert_eq!(f1.combined.attacks.get(dosscope_types::DayIndex(0)), 8.0);
        let f2 = DistributionFigure::durations(&fw, EventSource::Telescope);
        assert_eq!(f2.ecdf.len(), 5);
        let f3 = DistributionFigure::intensities(&fw, EventSource::Telescope);
        assert_eq!(f3.ecdf.median(), Some(3.0));
        let f4 = DistributionFigure::intensities_per_protocol(&fw);
        assert_eq!(f4.len(), 5);
        assert_eq!(f4[0].1.len(), 2, "two NTP events");
        // Figure 5: only events at/above the per-source mean count.
        let f5 = Figure5::build(&fw);
        assert!(f5.series.attacks.total() >= 1.0);
        assert!(!f1.render().is_empty());
        assert!(!f5.render().is_empty());
    }

    #[test]
    fn top_and_other_with_fewer_than_five_keys() {
        let rows = top_and_other(&[('b', 3), ('a', 1)], char::to_string);
        assert_eq!(
            rows,
            [
                ("b".to_string(), 3, 75.0),
                ("a".to_string(), 1, 25.0),
                ("Other".to_string(), 0, 0.0),
            ]
        );
    }

    #[test]
    fn top_and_other_folds_the_tail_into_other() {
        let ranked: Vec<(u8, u64)> = (0..8).map(|k| (k, 8 - u64::from(k))).collect();
        let rows = top_and_other(&ranked, u8::to_string);
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[4], ("4".to_string(), 4, 100.0 * 4.0 / 36.0));
        assert_eq!(rows[5], ("Other".to_string(), 6, 100.0 * 6.0 / 36.0));
    }

    #[test]
    fn top_and_other_with_no_keys() {
        let rows = top_and_other(&[] as &[(u8, u64)], u8::to_string);
        assert_eq!(rows, [("Other".to_string(), 0, 0.0)]);
    }

    #[test]
    fn fmt_count_separators() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_000), "1,000");
        assert_eq!(fmt_count(12_470_000), "12,470,000");
    }
}
