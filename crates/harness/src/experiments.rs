//! Regeneration of every table and figure, and comparison against the
//! paper's published values.
//!
//! [`run_all`] produces the full text report; [`compare`] produces the
//! paper-vs-measured rows recorded in EXPERIMENTS.md. Checks compare
//! shares, shapes and rankings — absolute counts are scale-dependent and
//! reported scale-normalized.

use crate::paper;
use crate::scenario::World;
use dosscope_core::migration::MigrationAnalysis;
use dosscope_core::report::{
    render_web_impact, DistributionFigure, Figure1, Figure5, Table1, Table2, Table3, Table4,
    Table5, Table6, Table7, Table8,
};
use dosscope_core::webimpact::{parties_on_day, WebImpact};
use dosscope_core::{Framework, JointAnalysis};
use dosscope_types::{CountryCode, EventSource};
use std::fmt::Write as _;

/// Shape metrics that must not depend on the scale denominator.
#[derive(Debug, Clone, Copy)]
pub struct KeyShares {
    /// Table 5 TCP share.
    pub tcp_share: f64,
    /// Table 7 single-port share.
    pub single_port_share: f64,
    /// Figure 2: telescope attacks ≤ 5 min.
    pub tele_le_5min: f64,
    /// Figure 3: telescope intensity ≤ 2 pps.
    pub tele_le_2pps: f64,
    /// Section 5: TCP share on Web-hosting IPs.
    pub web_tcp_share: f64,
    /// Figure 7/8: namespace share ever attacked.
    pub attacked_namespace_share: f64,
}

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
        let web = WebImpact::analyze(&fw).expect("scenario attaches DNS");
        dosscope_obs::counter!("web.site_records").add(web.site_records.len() as u64);
        let migration = MigrationAnalysis::analyze(&fw, &web).expect("scenario attaches DPS");
        let enricher = dosscope_core::Enricher::new(fw.geo, fw.asdb);
        let joint = JointAnalysis::run(fw.store, &enricher);
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

    /// The paper-vs-measured comparison rows.
    pub fn compare(&self) -> Vec<CheckRow> {
        let mut rows = Vec::new();
        let t1 = Table1::build(&self.fw);
        let tele = &t1.rows[0].summary;
        let hp = &t1.rows[1].summary;
        let comb = &t1.rows[2].summary;
        rows.push(row(
            "Table 1",
            "telescope share of events",
            paper::TELESCOPE_EVENT_SHARE,
            tele.events as f64 / comb.events.max(1) as f64,
            0.05,
        ));
        rows.push(row(
            "Table 1",
            "telescope events per target",
            paper::TELESCOPE_EVENTS_PER_TARGET,
            tele.events as f64 / tele.targets.max(1) as f64,
            2.0,
        ));
        rows.push(row(
            "Table 1",
            "honeypot events per target",
            paper::HONEYPOT_EVENTS_PER_TARGET,
            hp.events as f64 / hp.targets.max(1) as f64,
            0.8,
        ));
        rows.push(row(
            "Table 1",
            "combined events (scale-normalized, M)",
            20.90,
            comb.events as f64 * self.scale / 1e6,
            2.5,
        ));

        // Figure 1 daily means, scale-normalized.
        let f1 = Figure1::build(&self.fw);
        rows.push(row(
            "Figure 1",
            "telescope attacks/day (scaled)",
            paper::DAILY_TELESCOPE,
            f1.telescope.mean_daily_attacks() * self.scale,
            paper::DAILY_TELESCOPE * 0.15,
        ));
        rows.push(row(
            "Figure 1",
            "honeypot attacks/day (scaled)",
            paper::DAILY_HONEYPOT,
            f1.honeypot.mean_daily_attacks() * self.scale,
            paper::DAILY_HONEYPOT * 0.15,
        ));
        rows.push(row(
            "Figure 1",
            "combined attacks/day (scaled)",
            paper::DAILY_COMBINED,
            f1.combined.mean_daily_attacks() * self.scale,
            paper::DAILY_COMBINED * 0.15,
        ));

        // Table 4: top-5 countries and shares; Japan's depressed rank.
        let t4 = Table4::build(&self.fw);
        for (i, &(cc, share)) in paper::T4A.iter().enumerate() {
            let measured = t4
                .telescope_full
                .iter()
                .find(|(c, _)| c.as_str() == cc)
                .map(|&(_, n)| {
                    100.0 * n as f64
                        / t4.telescope_full.iter().map(|&(_, n)| n).sum::<u64>() as f64
                })
                .unwrap_or(0.0);
            rows.push(row(
                "Table 4a",
                &format!("{cc} share (paper rank {})", i + 1),
                share,
                measured,
                3.0,
            ));
        }
        for &(cc, share) in paper::T4B.iter() {
            let measured = t4
                .honeypot_full
                .iter()
                .find(|(c, _)| c.as_str() == cc)
                .map(|&(_, n)| {
                    100.0 * n as f64
                        / t4.honeypot_full.iter().map(|&(_, n)| n).sum::<u64>() as f64
                })
                .unwrap_or(0.0);
            rows.push(row("Table 4b", &format!("{cc} share"), share, measured, 3.0));
        }
        let jp_rank = Table4::rank(&t4.telescope_full, CountryCode::new("JP")).unwrap_or(99);
        rows.push(row(
            "Table 4",
            "Japan telescope rank (>= 10 = depressed)",
            25.0,
            jp_rank as f64,
            16.0,
        ));

        // Table 5.
        let t5 = Table5::build(&self.fw);
        for (i, label) in ["TCP", "UDP", "ICMP", "Other"].iter().enumerate() {
            rows.push(row(
                "Table 5",
                &format!("{label} share %"),
                paper::T5[i],
                t5.shares[i],
                2.5,
            ));
        }

        // Table 6.
        let t6 = Table6::build(&self.fw);
        let total6: u64 = t6.counts.values().sum();
        for &(name, share) in paper::T6_TOP5.iter() {
            let measured = t6
                .counts
                .iter()
                .find(|(p, _)| p.to_string() == name)
                .map(|(_, &n)| 100.0 * n as f64 / total6.max(1) as f64)
                .unwrap_or(0.0);
            rows.push(row("Table 6", &format!("{name} share %"), share, measured, 3.0));
        }

        // Table 7.
        let t7 = Table7::build(&self.fw);
        rows.push(row(
            "Table 7",
            "single-port share %",
            paper::T7_SINGLE,
            100.0 * t7.single_share(),
            4.0,
        ));

        // Table 8.
        let t8 = Table8::build(&self.fw);
        for &(name, share) in paper::T8A.iter().take(2) {
            let measured = t8
                .tcp
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|&(_, _, pct)| pct)
                .unwrap_or(0.0);
            rows.push(row("Table 8a", &format!("{name} share %"), share, measured, 5.0));
        }
        rows.push(row(
            "Table 8a",
            "web share of single-port TCP %",
            paper::T8A_WEB,
            100.0 * t8.tcp_web_share(),
            6.0,
        ));
        let steam = t8
            .udp
            .iter()
            .find(|(n, _, _)| n == "27015")
            .map(|&(_, _, pct)| pct)
            .unwrap_or(0.0);
        rows.push(row("Table 8b", "27015 share %", paper::T8B_STEAM, steam, 4.0));

        // Figure 2.
        let f2t = DistributionFigure::durations(&self.fw, EventSource::Telescope);
        rows.push(row(
            "Figure 2",
            "telescope median duration (s)",
            paper::F2_TELE_MEDIAN,
            f2t.ecdf.median().unwrap_or(0.0),
            200.0,
        ));
        rows.push(row(
            "Figure 2",
            "telescope share <= 5 min",
            paper::F2_TELE_LE_5MIN,
            f2t.ecdf.cdf(300.0),
            0.10,
        ));
        rows.push(row(
            "Figure 2",
            "telescope mean duration (s)",
            paper::F2_TELE_MEAN,
            f2t.ecdf.mean().unwrap_or(0.0),
            1_500.0,
        ));
        let f2h = DistributionFigure::durations(&self.fw, EventSource::Honeypot);
        rows.push(row(
            "Figure 2",
            "honeypot median duration (s)",
            paper::F2_HP_MEDIAN,
            f2h.ecdf.median().unwrap_or(0.0),
            150.0,
        ));
        rows.push(row(
            "Figure 2",
            "honeypot mean duration (s)",
            paper::F2_HP_MEAN,
            f2h.ecdf.mean().unwrap_or(0.0),
            700.0,
        ));

        // Figure 3.
        let f3 = DistributionFigure::intensities(&self.fw, EventSource::Telescope);
        rows.push(row("Figure 3", "share <= 2 pps", paper::F3_LE2, f3.ecdf.cdf(2.0), 0.07));
        rows.push(row(
            "Figure 3",
            "share > 10 pps",
            paper::F3_GT10,
            1.0 - f3.ecdf.cdf(10.0),
            0.06,
        ));
        rows.push(row(
            "Figure 3",
            "mean (pps)",
            paper::F3_MEAN,
            f3.ecdf.mean().unwrap_or(0.0),
            70.0,
        ));
        rows.push(row(
            "Figure 3",
            "median (pps)",
            paper::F3_MEDIAN,
            f3.ecdf.median().unwrap_or(0.0),
            0.5,
        ));

        // Figure 4.
        let f4 = DistributionFigure::intensities(&self.fw, EventSource::Honeypot);
        rows.push(row(
            "Figure 4",
            "median (req/s)",
            paper::F4_MEDIAN,
            f4.ecdf.median().unwrap_or(0.0),
            40.0,
        ));
        rows.push(row(
            "Figure 4",
            "mean (req/s)",
            paper::F4_MEAN,
            f4.ecdf.mean().unwrap_or(0.0),
            250.0,
        ));

        // Figure 5.
        let f5 = Figure5::build(&self.fw);
        rows.push(row(
            "Figure 5",
            "medium+ attacks/day (scaled)",
            paper::F5_DAILY,
            f5.series.mean_daily_attacks() * self.scale,
            paper::F5_DAILY * 0.8,
        ));

        // Section 4 joint.
        rows.push(row(
            "Joint",
            "common targets (scaled, k)",
            paper::COMMON_TARGETS / 1e3,
            self.joint.common_targets as f64 * self.scale / 1e3,
            paper::COMMON_TARGETS / 1e3 * 0.6,
        ));
        rows.push(row(
            "Joint",
            "joint targets (scaled, k)",
            paper::JOINT_TARGETS / 1e3,
            self.joint.joint_targets as f64 * self.scale / 1e3,
            paper::JOINT_TARGETS / 1e3 * 0.6,
        ));
        rows.push(row(
            "Joint",
            "single-port share of joint attacks",
            paper::JOINT_SINGLE,
            self.joint.single_port_share,
            0.10,
        ));

        // Section 5.
        rows.push(row(
            "Figure 7",
            "namespace share ever attacked",
            paper::WEB_AFFECTED,
            self.web.affected_fraction(),
            0.12,
        ));
        let (_, daily_share) = self.web.mean_daily_sites();
        rows.push(row(
            "Figure 7",
            "mean daily namespace share",
            paper::WEB_DAILY_SHARE,
            daily_share,
            0.02,
        ));
        let (_, peak) = self.web.peak_fraction();
        rows.push(row(
            "Figure 7",
            "largest daily peak share",
            paper::WEB_PEAK_SHARE,
            peak,
            0.06,
        ));
        rows.push(row(
            "Section 5",
            "TCP share on web-hosting IPs",
            paper::WEB_TCP,
            self.web.web_tcp_share,
            0.05,
        ));
        rows.push(row(
            "Section 5",
            "web-port share on web-hosting IPs",
            paper::WEB_PORTS,
            self.web.web_port_share,
            0.08,
        ));
        rows.push(row(
            "Section 5",
            "NTP share on web-hosting IPs",
            paper::WEB_NTP,
            self.web.web_ntp_share,
            0.08,
        ));

        // Figure 8.
        let t = &self.migration.taxonomy;
        let (pre_a, pre_u) = t.preexisting_shares();
        let (mig_a, mig_u) = t.migrating_shares();
        rows.push(row(
            "Figure 8",
            "attacked share of namespace",
            paper::F8_ATTACKED,
            t.attacked_share(),
            0.12,
        ));
        rows.push(row(
            "Figure 8",
            "preexisting among attacked",
            paper::F8_PRE_ATTACKED,
            pre_a,
            0.08,
        ));
        rows.push(row(
            "Figure 8",
            "preexisting among unattacked",
            paper::F8_PRE_UNATTACKED,
            pre_u,
            0.03,
        ));
        rows.push(row(
            "Figure 8",
            "migrating among attacked",
            paper::F8_MIG_ATTACKED,
            mig_a,
            0.025,
        ));
        rows.push(row(
            "Figure 8",
            "migrating among unattacked",
            paper::F8_MIG_UNATTACKED,
            mig_u,
            0.02,
        ));

        // Figure 9.
        rows.push(row(
            "Figure 9",
            "all sites attacked <= 5 times",
            paper::F9_ALL_LE5,
            self.migration.freq_all.cdf(5.0),
            0.12,
        ));
        rows.push(row(
            "Figure 9",
            "migrating sites attacked <= 5 times",
            paper::F9_MIG_LE5,
            self.migration.freq_migrating.cdf(5.0),
            0.08,
        ));
        rows.push(row(
            "Figure 9",
            "migrating - all gap (pp, must be > 0)",
            paper::F9_MIG_LE5 - paper::F9_ALL_LE5,
            self.migration.freq_migrating.cdf(5.0) - self.migration.freq_all.cdf(5.0),
            0.15,
        ));

        // Figure 10.
        let d = &self.migration;
        let six = [
            d.delay_all.cdf(6.0),
            d.delay_top5.cdf(6.0),
            d.delay_top1.cdf(6.0),
            d.delay_top01.cdf(6.0),
        ];
        for (i, label) in ["all", "top 5%", "top 1%", "top 0.1%"].iter().enumerate() {
            rows.push(row(
                "Figure 10",
                &format!("{label} migrate within 6 days"),
                paper::F10_6D[i],
                six[i],
                0.15,
            ));
        }
        rows.push(row(
            "Figure 10",
            "all migrate within 1 day",
            paper::F10_1D_ALL,
            d.delay_all.cdf(1.0),
            0.10,
        ));
        rows.push(row(
            "Figure 10",
            "top 0.1% migrate within 1 day",
            paper::F10_1D_TOP01,
            d.delay_top01.cdf(1.0),
            0.20,
        ));

        // Figure 11.
        rows.push(row(
            "Figure 11",
            ">=4h: migrate within 1 day",
            paper::F11_1D,
            d.delay_long4h.cdf(1.0),
            0.20,
        ));
        rows.push(row(
            "Figure 11",
            ">=4h: migrate within 5 days",
            paper::F11_5D,
            d.delay_long4h.cdf(5.0),
            0.20,
        ));

        rows
    }

    /// The paper's boundary-sensitivity check (Section 6): shorten the
    /// attack observation window by `trim_days` on either end, re-run the
    /// Web/migration classification, and return (full, trimmed) taxonomies.
    /// The paper verified the class distribution barely moves; the
    /// integration tests assert the same here.
    pub fn boundary_sensitivity(
        world: &World,
        trim_days: u32,
    ) -> (
        dosscope_core::migration::Taxonomy,
        dosscope_core::migration::Taxonomy,
    ) {
        use dosscope_core::EventStore;

        let full_fw = world.framework();
        let full_web = WebImpact::analyze(&full_fw).expect("dns attached");
        let full = MigrationAnalysis::analyze(&full_fw, &full_web)
            .expect("dps attached")
            .taxonomy;

        // Trim the attack data only (the DNS/DPS window stays, exactly as
        // in the paper's check).
        let lo = trim_days as u64 * 86_400;
        let hi = (world.days.saturating_sub(trim_days)) as u64 * 86_400;
        let keep = |e: &dosscope_types::AttackEvent| {
            let t = e.when.start.secs();
            t >= lo && t < hi
        };
        let mut trimmed_store = EventStore::new();
        trimmed_store.ingest_telescope(
            world
                .store
                .telescope()
                .iter()
                .filter(keep)
                .collect(),
        );
        trimmed_store.ingest_honeypot(
            world
                .store
                .honeypot()
                .iter()
                .filter(keep)
                .collect(),
        );
        let trimmed_fw = Framework::new(&trimmed_store, &world.geo, &world.asdb, world.days)
            .with_dns(&world.synth.zone, &world.synth.catalog)
            .with_dps(&world.dps);
        let trimmed_web = WebImpact::analyze(&trimmed_fw).expect("dns attached");
        let trimmed = MigrationAnalysis::analyze(&trimmed_fw, &trimmed_web)
            .expect("dps attached")
            .taxonomy;
        (full, trimmed)
    }

    /// Scale invariance: the reproduction's shape metrics at one scale.
    /// The substitution argument (DESIGN.md §2) rests on shares and shapes
    /// being scale-invariant; [`key_shares`] extracts the metrics and the
    /// integration suite verifies their stability across scales.
    pub fn key_shares(world: &World) -> KeyShares {
        let fw = world.framework();
        let t5 = Table5::build(&fw);
        let t7 = Table7::build(&fw);
        let web = WebImpact::analyze(&fw).expect("dns attached");
        let f2 = DistributionFigure::durations(&fw, EventSource::Telescope);
        let f3 = DistributionFigure::intensities(&fw, EventSource::Telescope);
        KeyShares {
            tcp_share: t5.shares[0] / 100.0,
            single_port_share: t7.single_share(),
            tele_le_5min: f2.ecdf.cdf(300.0),
            tele_le_2pps: f3.ecdf.cdf(2.0),
            web_tcp_share: web.web_tcp_share,
            attacked_namespace_share: web.affected_fraction(),
        }
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
