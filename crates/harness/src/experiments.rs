//! Regeneration of every table and figure, and comparison against the
//! paper's published values.
//!
//! [`Experiments::render_report`] produces the full text report;
//! [`Experiments::compare`] produces the paper-vs-measured rows recorded
//! in EXPERIMENTS.md. Each row is defined once, in `compare`: its id,
//! metric, published value, measurement and tolerance. Checks compare
//! shares, shapes and rankings — absolute counts are scale-dependent and
//! reported scale-normalized.

use crate::scenario::World;
use dosscope_attackgen::config::paper::{COMMON_TARGETS, JOINT_TARGETS};
use dosscope_core::migration::{MigrationAnalysis, Taxonomy};
use dosscope_core::report::{
    render_web_impact, DistributionFigure, Figure1, Figure5, Table1, Table2, Table3, Table4,
    Table5, Table6, Table7, Table8,
};
use dosscope_core::webimpact::{parties_on_day, WebImpact};
use dosscope_core::{EventStore, Framework, JointAnalysis};
use dosscope_types::{CountryCode, EventSource};
use std::fmt::Write as _;

/// One paper-vs-measured comparison row.
#[derive(Debug, Clone)]
pub struct CheckRow {
    /// Experiment id ("Table 5", "Figure 3", ...).
    pub id: String,
    /// Metric description.
    pub metric: String,
    /// Published value.
    pub paper: f64,
    /// Measured value.
    pub measured: f64,
    /// Acceptance tolerance (absolute).
    pub tolerance: f64,
}

impl CheckRow {
    /// Whether the measured value lands within tolerance.
    pub fn ok(&self) -> bool {
        (self.measured - self.paper).abs() <= self.tolerance
    }
}

fn row(id: &str, metric: &str, paper: f64, measured: f64, tolerance: f64) -> CheckRow {
    CheckRow {
        id: id.into(),
        metric: metric.into(),
        paper,
        measured,
        tolerance,
    }
}

/// Share (%) of the entry named `key` in a ranked count list, such as a
/// Table 4 country panel or the Table 6 protocol counts; 0 when absent.
fn share_pct<K: ToString>(counts: &[(K, u64)], key: &str) -> f64 {
    let total: u64 = counts.iter().map(|&(_, n)| n).sum();
    counts
        .iter()
        .find(|(k, _)| k.to_string() == key)
        .map_or(0.0, |&(_, n)| 100.0 * n as f64 / total.max(1) as f64)
}

/// The share (%) a Table 8 panel gives service `name`; 0 when absent.
fn service_pct(panel: &[(String, u64, f64)], name: &str) -> f64 {
    panel.iter().find(|(n, _, _)| n == name).map_or(0.0, |&(_, _, pct)| pct)
}

/// All analyses materialized for a world.
pub struct Experiments<'a> {
    /// The underlying framework.
    pub fw: Framework<'a>,
    /// Section 5 results.
    pub web: WebImpact,
    /// Section 6 results.
    pub migration: MigrationAnalysis,
    /// Section 4 correlation.
    pub joint: dosscope_core::JointStats,
    /// The scale denominator of the scenario.
    pub scale: f64,
    /// Botnet events from the third data source.
    pub botnet_events: &'a [dosscope_botmon::BotnetEvent],
    /// The address registry, for resolving AS names in narratives.
    pub registry: &'a dosscope_geo::AsRegistry,
}

impl<'a> Experiments<'a> {
    /// Run every analysis once.
    pub fn run(world: &'a World, scale: f64) -> Experiments<'a> {
        let _span = dosscope_obs::span!("report.assemble");
        let fw = world.framework();
        let web = {
            let _span = dosscope_obs::span!("webimpact.analyze");
            WebImpact::analyze(&fw).expect("scenario attaches DNS")
        };
        dosscope_obs::counter!("web.site_records").add(web.site_records.len() as u64);
        let migration = {
            let _span = dosscope_obs::span!("migration.analyze");
            MigrationAnalysis::analyze(&fw, &web).expect("scenario attaches DPS")
        };
        let joint = {
            let _span = dosscope_obs::span!("correlate.joint");
            let enricher = dosscope_core::Enricher::new(fw.geo, fw.asdb);
            JointAnalysis::run(fw.store, &enricher)
        };
        Experiments {
            fw,
            web,
            migration,
            joint,
            scale,
            botnet_events: &world.botnet_events,
            registry: &world.registry,
        }
    }

    /// The full text report: every table and figure.
    pub fn render_report(&self) -> String {
        let _span = dosscope_obs::span!("report.render");
        let mut s = String::new();
        let _ = writeln!(s, "=== dosscope reproduction report (scale 1/{}) ===\n", self.scale);
        let _ = writeln!(s, "{}", Table1::build(&self.fw).render());
        if let Some(t2) = Table2::build(&self.fw) {
            let _ = writeln!(s, "{}", t2.render());
        }
        if let Some(t3) = Table3::build(&self.fw) {
            let _ = writeln!(s, "{}", t3.render());
        }
        let _ = writeln!(s, "{}", Table4::build(&self.fw).render());
        let _ = writeln!(s, "{}", Table5::build(&self.fw).render());
        let _ = writeln!(s, "{}", Table6::build(&self.fw).render());
        let _ = writeln!(s, "{}", Table7::build(&self.fw).render());
        let _ = writeln!(s, "{}", Table8::build(&self.fw).render());

        let f1 = Figure1::build(&self.fw);
        let _ = writeln!(s, "{}", f1.render());
        let _ = writeln!(s, "Figure 1 (combined attacks/day):");
        let _ = writeln!(s, "{}", dosscope_core::ascii::series(&f1.combined.attacks, 73, 6));
        let dur_thresholds = [60.0, 300.0, 900.0, 3_600.0, 5_400.0, 86_400.0];
        let _ = writeln!(
            s,
            "{}",
            DistributionFigure::durations(&self.fw, EventSource::Telescope)
                .render(&dur_thresholds)
        );
        let _ = writeln!(
            s,
            "{}",
            DistributionFigure::durations(&self.fw, EventSource::Honeypot)
                .render(&dur_thresholds)
        );
        let int_thresholds = [1.0, 2.0, 10.0, 100.0, 1_000.0, 10_000.0];
        let f3 = DistributionFigure::intensities(&self.fw, EventSource::Telescope);
        let _ = writeln!(s, "Figure 3: {}", f3.render(&int_thresholds));
        let _ = writeln!(s, "{}", dosscope_core::ascii::cdf(&f3.ecdf, 0.5, 100_000.0, 10, 50));
        let _ = writeln!(
            s,
            "Figure 4 (overall): {}",
            DistributionFigure::intensities(&self.fw, EventSource::Honeypot)
                .render(&int_thresholds)
        );
        for (p, ecdf) in DistributionFigure::intensities_per_protocol(&self.fw) {
            let _ = writeln!(
                s,
                "  Figure 4 [{p}]: n={} median={:.1}",
                ecdf.len(),
                ecdf.median().unwrap_or(0.0)
            );
        }
        let _ = writeln!(s, "{}", Figure5::build(&self.fw).render());
        let _ = writeln!(s, "{}", render_web_impact(&self.web));
        let _ = writeln!(s, "Figure 6 (bars):");
        let _ = writeln!(s, "{}", dosscope_core::ascii::histogram(&self.web.cohosting, 50));
        let _ = writeln!(s, "Figure 7 (web sites on attacked IPs / day):");
        let _ = writeln!(s, "{}", dosscope_core::ascii::series(&self.web.daily_sites, 73, 6));

        // Section 4 joint stats, with AS names resolved through the
        // registry (the paper: AS12276 (OVH) 12.3 %, China Telecom 5.4 %,
        // China Unicom 3.1 %).
        let _ = writeln!(
            s,
            "Joint attacks: common targets {}, joint targets {}, pairs {}; single-port {:.1}%, HTTP {:.1}%, 27015 {:.1}%",
            self.joint.common_targets,
            self.joint.joint_targets,
            self.joint.joint_pairs,
            100.0 * self.joint.single_port_share,
            100.0 * self.joint.tcp_http_share,
            100.0 * self.joint.udp_27015_share,
        );
        let named: Vec<String> = self
            .joint
            .top_asns
            .iter()
            .take(3)
            .map(|&(asn, share)| {
                let name = self
                    .registry
                    .by_asn(asn)
                    .map(|a| a.name.clone())
                    .unwrap_or_else(|| "?".into());
                format!("{asn} ({name}) {:.1}%", 100.0 * share)
            })
            .collect();
        let _ = writeln!(s, "Joint targets by AS: {}", named.join(", "));

        // DPS adoption trend (Jonker et al., IMC 2016: steady growth).
        if let Some(dps) = self.fw.dps {
            let ts = dps.adoption_series(self.fw.days);
            let first = ts.get(dosscope_types::DayIndex(0));
            let last = ts.get(dosscope_types::DayIndex(self.fw.days - 1));
            let _ = writeln!(
                s,
                "DPS adoption trend: {first:.0} protected sites on day 0 -> {last:.0} on the last day ({:+.1}%)",
                100.0 * (last - first) / first.max(1.0),
            );
            let _ = writeln!(s, "{}", dosscope_core::ascii::series(&ts, 73, 5));
            let (dns, bgp) = dps.diversion_split();
            let _ = writeln!(
                s,
                "Diversion mechanisms: DNS {dns} intervals, BGP {bgp} (single sites divert via DNS; hosters announce prefixes)",
            );
        }

        // Section 6.
        let t = &self.migration.taxonomy;
        let (pre_a, pre_u) = t.preexisting_shares();
        let (mig_a, mig_u) = t.migrating_shares();
        let _ = writeln!(
            s,
            "Figure 8: total {} | attacked {} ({:.1}%) [preexisting {:.1}%, migrating {:.2}%] | unattacked {} [preexisting {:.2}%, migrating {:.2}%]",
            t.total,
            t.attacked,
            100.0 * t.attacked_share(),
            100.0 * pre_a,
            100.0 * mig_a,
            t.unattacked,
            100.0 * pre_u,
            100.0 * mig_u,
        );
        let _ = writeln!(
            s,
            "Figure 9: attacked <=5 times — all {:.2}%, migrating {:.2}%",
            100.0 * self.migration.freq_all.cdf(5.0),
            100.0 * self.migration.freq_migrating.cdf(5.0),
        );
        let _ = writeln!(
            s,
            "Table 9: site share at normalized intensity {:?}",
            self.migration.table9_row()
        );
        let _ = writeln!(
            s,
            "Figure 10: within 6 days — all {:.1}%, top5 {:.1}%, top1 {:.1}%, top0.1 {:.1}%; within 1 day — all {:.1}%, top0.1 {:.1}%",
            100.0 * self.migration.delay_all.cdf(6.0),
            100.0 * self.migration.delay_top5.cdf(6.0),
            100.0 * self.migration.delay_top1.cdf(6.0),
            100.0 * self.migration.delay_top01.cdf(6.0),
            100.0 * self.migration.delay_all.cdf(1.0),
            100.0 * self.migration.delay_top01.cdf(1.0),
        );
        let _ = writeln!(
            s,
            "Figure 11: >=4h attacks — within 1 day {:.1}%, within 5 days {:.1}% (n={})",
            100.0 * self.migration.delay_long4h.cdf(1.0),
            100.0 * self.migration.delay_long4h.cdf(5.0),
            self.migration.delay_long4h.len(),
        );

        // Section 8 extension: third data source coverage.
        let _ = writeln!(
            s,
            "{}",
            dosscope_core::coverage::CoverageStats::analyze(self.fw.store, self.botnet_events)
                .render()
        );

        // Section 8 extension: shared mail/DNS infrastructure.
        if let Some(infra) = dosscope_core::mailimpact::InfrastructureImpact::analyze(&self.fw) {
            let _ = writeln!(s, "{}", infra.render());
        }

        // Section 5 narrative: parties behind the biggest peak.
        let (peak_day, _) = self.web.peak_fraction();
        let parties = parties_on_day(&self.fw, peak_day);
        let names: Vec<String> = parties
            .iter()
            .take(5)
            .map(|(n, c)| format!("{n} ({c})"))
            .collect();
        let _ = writeln!(s, "Peak day {} parties: {}", peak_day, names.join(", "));
        s
    }

    /// The paper-vs-measured comparison rows. Each row states the
    /// published value, the measurement and the tolerance together.
    /// Absolute counts are scale-dependent (the scenario runs a
    /// scaled-down two years), so the rows check shares, shapes and
    /// rankings, plus scale-normalized totals where meaningful.
    pub fn compare(&self) -> Vec<CheckRow> {
        let _span = dosscope_obs::span!("report.compare");
        let (fw, scale) = (&self.fw, self.scale);
        let t1 = Table1::build(fw);
        let tele = &t1.rows[0].summary;
        let hp = &t1.rows[1].summary;
        let comb = &t1.rows[2].summary;
        let mut rows = vec![
            row(
                "Table 1",
                "telescope share of events",
                12.47 / 20.90,
                tele.events as f64 / comb.events.max(1) as f64,
                0.05,
            ),
            row(
                "Table 1",
                "telescope events per target",
                12.47 / 2.45,
                tele.events as f64 / tele.targets.max(1) as f64,
                2.0,
            ),
            row(
                "Table 1",
                "honeypot events per target",
                8.43 / 4.18,
                hp.events as f64 / hp.targets.max(1) as f64,
                0.8,
            ),
            row(
                "Table 1",
                "combined events (scale-normalized, M)",
                20.90,
                comb.events as f64 * scale / 1e6,
                2.5,
            ),
        ];

        // Figure 1 daily means, scale-normalized.
        let f1 = Figure1::build(fw);
        for (label, series, paper) in [
            ("telescope", &f1.telescope, 17_100.0),
            ("honeypot", &f1.honeypot, 11_600.0),
            ("combined", &f1.combined, 28_700.0),
        ] {
            let metric = format!("{label} attacks/day (scaled)");
            let measured = series.mean_daily_attacks() * scale;
            rows.push(row("Figure 1", &metric, paper, measured, paper * 0.15));
        }

        // Table 4: top-5 countries and shares; Japan's depressed rank.
        let t4 = Table4::build(fw);
        let t4a = [("US", 25.56), ("CN", 10.47), ("RU", 5.72), ("FR", 5.14), ("DE", 4.20)];
        for (i, (cc, paper)) in t4a.into_iter().enumerate() {
            let metric = format!("{cc} share (paper rank {})", i + 1);
            rows.push(row("Table 4a", &metric, paper, share_pct(&t4.telescope_full, cc), 3.0));
        }
        let t4b = [("US", 29.50), ("CN", 9.96), ("FR", 7.73), ("GB", 6.37), ("DE", 5.18)];
        for (cc, paper) in t4b {
            let metric = format!("{cc} share");
            rows.push(row("Table 4b", &metric, paper, share_pct(&t4.honeypot_full, cc), 3.0));
        }
        let jp_rank = Table4::rank(&t4.telescope_full, CountryCode::new("JP")).unwrap_or(99);
        rows.push(row(
            "Table 4",
            "Japan telescope rank (>= 10 = depressed)",
            25.0,
            jp_rank as f64,
            16.0,
        ));

        // Table 5, in `TransportProto::ALL` order.
        let t5 = Table5::build(fw);
        let t5_paper = [("TCP", 79.4), ("UDP", 15.9), ("ICMP", 4.5), ("Other", 0.2)];
        for ((label, paper), measured) in t5_paper.into_iter().zip(t5.shares) {
            rows.push(row("Table 5", &format!("{label} share %"), paper, measured, 2.5));
        }

        // Table 6.
        let t6 = Table6::build(fw);
        let t6_paper =
            [("NTP", 40.08), ("DNS", 26.17), ("CharGen", 22.37), ("SSDP", 8.38), ("RIPv1", 2.27)];
        for (name, paper) in t6_paper {
            let metric = format!("{name} share %");
            rows.push(row("Table 6", &metric, paper, share_pct(&t6.counts, name), 3.0));
        }

        // Tables 7 and 8.
        let t7 = Table7::build(fw);
        rows.push(row("Table 7", "single-port share %", 60.6, 100.0 * t7.single_share(), 4.0));
        let t8 = Table8::build(fw);
        for (name, paper) in [("HTTP", 48.68), ("HTTPS", 20.68)] {
            let metric = format!("{name} share %");
            rows.push(row("Table 8a", &metric, paper, service_pct(&t8.tcp, name), 5.0));
        }

        // Figures 2-5.
        let f2t = DistributionFigure::durations(fw, EventSource::Telescope).ecdf;
        let f2h = DistributionFigure::durations(fw, EventSource::Honeypot).ecdf;
        let f3 = DistributionFigure::intensities(fw, EventSource::Telescope).ecdf;
        let f4 = DistributionFigure::intensities(fw, EventSource::Honeypot).ecdf;
        let f5 = Figure5::build(fw);

        // Sections 5 and 6.
        let (_, daily_share) = self.web.mean_daily_sites();
        let (_, peak) = self.web.peak_fraction();
        let m = &self.migration;
        let t = &m.taxonomy;
        let (pre_a, pre_u) = t.preexisting_shares();
        let (mig_a, mig_u) = t.migrating_shares();
        rows.extend([
            row(
                "Table 8a",
                "web share of single-port TCP %",
                69.36,
                100.0 * t8.tcp_web_share(),
                6.0,
            ),
            row("Table 8b", "27015 share %", 18.54, service_pct(&t8.udp, "27015"), 4.0),
            row(
                "Figure 2",
                "telescope median duration (s)",
                454.0,
                f2t.median().unwrap_or(0.0),
                200.0,
            ),
            row("Figure 2", "telescope share <= 5 min", 0.40, f2t.cdf(300.0), 0.10),
            row(
                "Figure 2",
                "telescope mean duration (s)",
                2_880.0,
                f2t.mean().unwrap_or(0.0),
                1_500.0,
            ),
            row(
                "Figure 2",
                "honeypot median duration (s)",
                255.0,
                f2h.median().unwrap_or(0.0),
                150.0,
            ),
            row(
                "Figure 2",
                "honeypot mean duration (s)",
                1_080.0,
                f2h.mean().unwrap_or(0.0),
                700.0,
            ),
            row("Figure 3", "share <= 2 pps", 0.70, f3.cdf(2.0), 0.07),
            row("Figure 3", "share > 10 pps", 0.17, 1.0 - f3.cdf(10.0), 0.06),
            row("Figure 3", "mean (pps)", 107.0, f3.mean().unwrap_or(0.0), 70.0),
            row("Figure 3", "median (pps)", 1.0, f3.median().unwrap_or(0.0), 0.5),
            row("Figure 4", "median (req/s)", 77.0, f4.median().unwrap_or(0.0), 40.0),
            row("Figure 4", "mean (req/s)", 413.0, f4.mean().unwrap_or(0.0), 250.0),
            row(
                "Figure 5",
                "medium+ attacks/day (scaled)",
                1_400.0,
                f5.series.mean_daily_attacks() * scale,
                1_400.0 * 0.8,
            ),
            // Section 4 joint, scale-normalized.
            row(
                "Joint",
                "common targets (scaled, k)",
                COMMON_TARGETS / 1e3,
                self.joint.common_targets as f64 * scale / 1e3,
                COMMON_TARGETS / 1e3 * 0.6,
            ),
            row(
                "Joint",
                "joint targets (scaled, k)",
                JOINT_TARGETS / 1e3,
                self.joint.joint_targets as f64 * scale / 1e3,
                JOINT_TARGETS / 1e3 * 0.6,
            ),
            row(
                "Joint",
                "single-port share of joint attacks",
                0.771,
                self.joint.single_port_share,
                0.10,
            ),
            // Section 5.
            row(
                "Figure 7",
                "namespace share ever attacked",
                0.64,
                self.web.affected_fraction(),
                0.12,
            ),
            row("Figure 7", "mean daily namespace share", 0.03, daily_share, 0.02),
            row("Figure 7", "largest daily peak share", 0.1182, peak, 0.06),
            row("Section 5", "TCP share on web-hosting IPs", 0.934, self.web.web_tcp_share, 0.05),
            row(
                "Section 5",
                "web-port share on web-hosting IPs",
                0.876,
                self.web.web_port_share,
                0.08,
            ),
            row("Section 5", "NTP share on web-hosting IPs", 0.5469, self.web.web_ntp_share, 0.08),
            // Figure 8.
            row("Figure 8", "attacked share of namespace", 0.64, t.attacked_share(), 0.12),
            row("Figure 8", "preexisting among attacked", 0.186, pre_a, 0.08),
            row("Figure 8", "preexisting among unattacked", 0.0089, pre_u, 0.03),
            row("Figure 8", "migrating among attacked", 0.0431, mig_a, 0.025),
            row("Figure 8", "migrating among unattacked", 0.0332, mig_u, 0.02),
            // Figure 9: share of sites attacked <= 5 times.
            row("Figure 9", "all sites attacked <= 5 times", 0.9235, m.freq_all.cdf(5.0), 0.12),
            row(
                "Figure 9",
                "migrating sites attacked <= 5 times",
                0.9783,
                m.freq_migrating.cdf(5.0),
                0.08,
            ),
            row(
                "Figure 9",
                "migrating - all gap (pp, must be > 0)",
                0.9783 - 0.9235,
                m.freq_migrating.cdf(5.0) - m.freq_all.cdf(5.0),
                0.15,
            ),
        ]);

        // Figure 10: migration delay per intensity class.
        for (label, delays, paper) in [
            ("all", &m.delay_all, 0.299),
            ("top 5%", &m.delay_top5, 0.671),
            ("top 1%", &m.delay_top1, 0.771),
            ("top 0.1%", &m.delay_top01, 0.986),
        ] {
            let metric = format!("{label} migrate within 6 days");
            rows.push(row("Figure 10", &metric, paper, delays.cdf(6.0), 0.15));
        }
        rows.extend([
            row("Figure 10", "all migrate within 1 day", 0.232, m.delay_all.cdf(1.0), 0.10),
            row("Figure 10", "top 0.1% migrate within 1 day", 0.807, m.delay_top01.cdf(1.0), 0.20),
            // Figure 11: attacks of >= 4 h.
            row("Figure 11", ">=4h: migrate within 1 day", 0.676, m.delay_long4h.cdf(1.0), 0.20),
            row("Figure 11", ">=4h: migrate within 5 days", 0.76, m.delay_long4h.cdf(5.0), 0.20),
        ]);
        rows
    }

    /// The paper's boundary-sensitivity check (Section 6): shorten the
    /// attack observation window by `trim_days` on either end, re-run the
    /// Web/migration classification, and return the trimmed taxonomy, to
    /// set beside the full one in `self.migration.taxonomy`. The paper
    /// verified the class distribution barely moves; the integration
    /// tests assert the same here.
    pub fn boundary_sensitivity(&self, trim_days: u32) -> Taxonomy {
        let fw = &self.fw;
        // Trim the attack data only (the DNS/DPS window stays, exactly as
        // in the paper's check).
        let lo = trim_days as u64 * 86_400;
        let hi = (fw.days.saturating_sub(trim_days)) as u64 * 86_400;
        let keep = |events: &[dosscope_types::AttackEvent]| {
            events
                .iter()
                .filter(|e| (lo..hi).contains(&e.when.start.secs()))
                .cloned()
                .collect()
        };
        let mut store = EventStore::new();
        store.ingest_telescope(keep(fw.store.telescope()));
        store.ingest_honeypot(keep(fw.store.honeypot()));
        let trimmed = Framework { store: &store, ..*fw };
        let web = WebImpact::analyze(&trimmed).expect("dns attached");
        MigrationAnalysis::analyze(&trimmed, &web).expect("dps attached").taxonomy
    }

    /// Render the comparison as a markdown table.
    pub fn render_comparison(rows: &[CheckRow]) -> String {
        let mut s = String::from(
            "| Experiment | Metric | Paper | Measured | Tolerance | Status |\n|---|---|---|---|---|---|\n",
        );
        for r in rows {
            let _ = writeln!(
                s,
                "| {} | {} | {:.4} | {:.4} | ±{:.3} | {} |",
                r.id,
                r.metric,
                r.paper,
                r.measured,
                r.tolerance,
                if r.ok() { "ok" } else { "DEVIATES" }
            );
        }
        let passed = rows.iter().filter(|r| r.ok()).count();
        let _ = writeln!(s, "\n{passed}/{} checks within tolerance", rows.len());
        s
    }
}
