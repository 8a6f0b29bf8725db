//! Integration test: the Section 5/6 analyses — Web association and DPS
//! migration — recover the behavioural ground truth from measurement data
//! alone.

use dosscope_attackgen::migrate::MigrationTrigger;
use dosscope_core::migration::MigrationAnalysis;
use dosscope_core::webimpact::WebImpact;
use dosscope_harness::{Scenario, ScenarioConfig};

fn world() -> dosscope_harness::World {
    Scenario::run(&ScenarioConfig::test_small())
}

#[test]
fn web_impact_consistency() {
    let world = world();
    let fw = world.framework();
    let web = WebImpact::analyze(&fw).expect("zone attached");

    assert_eq!(web.total_sites, world.synth.zone.domain_count() as u64);
    assert!(web.affected_total <= web.total_sites);
    assert!(web.affected_total as usize == web.site_records.len());
    assert!(web.web_ip_count <= web.target_ip_count);

    // Daily series bounded by totals; the medium+ series is a subset.
    for d in 0..world.days {
        let day = dosscope_types::DayIndex(d);
        assert!(web.daily_sites.get(day) <= web.total_sites as f64);
        assert!(web.daily_sites_medium.get(day) <= web.daily_sites.get(day));
    }

    // Co-hosting histogram counts unique web-hosting target IPs.
    assert_eq!(web.cohosting.total(), web.web_ip_count);

    // Shares are probabilities.
    for share in [web.web_tcp_share, web.web_port_share, web.web_ntp_share] {
        assert!((0.0..=1.0).contains(&share));
    }
}

#[test]
fn biggest_cohost_is_dosarrest_and_tld_shapes_match() {
    // Paper footnote 13: the maximum co-hosting group sits on an IP routed
    // by DOSarrest; and the per-TLD co-hosting distributions share the
    // combined shape.
    let world = world();
    let fw = world.framework();
    let web = WebImpact::analyze(&fw).unwrap();
    let (ip, n) = web.biggest_cohost.expect("some attacked IP hosts sites");
    assert!(n > 100, "biggest group is big: {n}");
    let dosarrest = world.synth.catalog.by_name("DOSarrest").unwrap().id;
    let ops: Vec<_> = world
        .synth
        .zone
        .placements_on_ip(ip, dosscope_types::DayIndex(365))
        .map(|p| p.cname.unwrap_or(p.ns))
        .collect();
    assert!(
        ops.iter().all(|&o| o == dosarrest),
        "biggest co-host operated by DOSarrest"
    );
    // The full Figure 6 shape (small bins dominating the unique-IP count)
    // needs the default scale's tail-pick volume and is validated by the
    // repro harness; at this reduced scale we check structure only: both
    // ends of the spectrum are populated, and the per-TLD histograms are
    // consistent slices of the combined one.
    let bins = web.cohosting.bins();
    assert!(bins[0] > 0, "single-site IPs attacked");
    assert!(bins[2] + bins[3] + bins[4] > 0, "heavily co-hosted IPs attacked");
    for (_tld, hist) in &web.cohosting_by_tld {
        assert!(hist.total() <= web.cohosting.total());
    }
}

#[test]
fn taxonomy_partitions_namespace() {
    let world = world();
    let fw = world.framework();
    let web = WebImpact::analyze(&fw).unwrap();
    let m = MigrationAnalysis::analyze(&fw, &web).expect("dps attached");
    let t = &m.taxonomy;

    assert_eq!(t.attacked + t.unattacked, t.total);
    assert_eq!(
        t.attacked_preexisting + t.attacked_migrating + t.attacked_non_migrating,
        t.attacked
    );
    assert_eq!(
        t.unattacked_preexisting + t.unattacked_migrating + t.unattacked_non_migrating,
        t.unattacked
    );
    // The paper's core qualitative findings hold at any scale:
    let (pre_a, pre_u) = t.preexisting_shares();
    assert!(
        pre_a > pre_u,
        "preexisting customers are far more common among attacked sites"
    );
    let (prot_a, prot_u) = t.protected_shares();
    assert!(prot_a > prot_u, "attacked sites end up protected more often");
}

#[test]
fn measured_migrations_match_ground_truth() {
    let world = world();
    let fw = world.framework();

    // Every applied ground-truth migration must be observable in the DPS
    // data set with the same first-use day.
    let mut checked = 0;
    for gt in world.migrations.migrations.iter().take(500) {
        let measured = world.dps.migration_day(gt.domain, &world.synth.zone);
        // Preexisting-classified domains can't appear (the model skips
        // them), so a measured day must exist and match.
        assert_eq!(
            measured,
            Some(gt.day),
            "domain {:?} ({:?})",
            gt.domain,
            gt.trigger
        );
        checked += 1;
    }
    assert!(checked > 50, "enough migrations to check: {checked}");
    let _ = fw;
}

#[test]
fn migration_delay_analyses_are_sound() {
    let world = world();
    let fw = world.framework();
    let web = WebImpact::analyze(&fw).unwrap();
    let m = MigrationAnalysis::analyze(&fw, &web).unwrap();

    // Delays are positive and CDFs are monotone.
    for ecdf in [&m.delay_all, &m.delay_top5, &m.delay_top1, &m.delay_top01, &m.delay_long4h] {
        assert!(ecdf.samples().iter().all(|&d| d >= 0.0));
        let mut prev = 0.0;
        for t in [1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 512.0] {
            let c = ecdf.cdf(t);
            assert!(c >= prev);
            prev = c;
        }
    }
    // Intensity correlates with urgency (the paper's core Section 6
    // finding): the top class migrates faster than the overall population.
    if m.delay_top01.len() >= 10 {
        assert!(
            m.delay_top01.cdf(6.0) > m.delay_all.cdf(6.0),
            "top 0.1% are faster"
        );
    }
    // Table 9 rows are a CDF.
    let rows = m.table9_row();
    assert!(rows.windows(2).all(|w| w[0].1 <= w[1].1));
    assert!((rows.last().unwrap().1 - 100.0).abs() < 1e-9);
}

#[test]
fn boundary_misclassification_is_negligible() {
    // The paper's own robustness check: shortening the attack observation
    // window by a month on either end must leave the Web-site class
    // distribution essentially unchanged.
    let world = world();
    let experiments = dosscope_harness::experiments::Experiments::run(&world, 20_000.0);
    let full = experiments.migration.taxonomy;
    let trimmed = experiments.boundary_sensitivity(30);
    let share = |t: &dosscope_core::migration::Taxonomy| {
        (
            t.attacked_share(),
            t.preexisting_shares().0,
            t.migrating_shares().0,
        )
    };
    let (a1, p1, m1) = share(&full);
    let (a2, p2, m2) = share(&trimmed);
    // Fewer observed attacks naturally shrink the attacked set at a
    // 1/20000 scale (coverage is far from saturated); what must stay
    // stable is the *class distribution within* the attacked/unattacked
    // branches — the misclassification the paper worried about.
    assert!((a1 - a2).abs() < 0.15, "attacked share moved: {a1} vs {a2}");
    assert!((p1 - p2).abs() < 0.08, "preexisting share moved: {p1} vs {p2}");
    assert!((m1 - m2).abs() < 0.02, "migrating share moved: {m1} vs {m2}");
}

#[test]
fn infrastructure_impact_runs_in_scenario() {
    let world = world();
    let fw = world.framework();
    let impact = dosscope_core::mailimpact::InfrastructureImpact::analyze(&fw)
        .expect("dns attached");
    // Infrastructure exists and the generator aims some attacks at it.
    assert!(!world.synth.zone.infra().is_empty());
    assert!(impact.mail.events + impact.dns.events > 0, "infra attacked");
    // Affected domains are bounded by the namespace.
    assert!(impact.mail.affected_domains <= world.synth.zone.domain_count() as u64);
    assert!(impact.dns.affected_domains <= world.synth.zone.domain_count() as u64);
}

#[test]
fn platform_moves_visible_in_dns() {
    let world = world();
    // The Wix platform move: migrations with the PlatformMove trigger
    // exist and land on Incapsula or Verisign.
    let platform: Vec<_> = world
        .migrations
        .migrations
        .iter()
        .filter(|m| m.trigger == MigrationTrigger::PlatformMove)
        .collect();
    assert!(!platform.is_empty(), "platform moves happen");
    let incapsula = world.synth.catalog.by_name("Incapsula").unwrap().id;
    let verisign = world.synth.catalog.by_name("Verisign").unwrap().id;
    for m in &platform {
        assert!(
            m.provider == incapsula || m.provider == verisign,
            "unexpected platform destination"
        );
    }
    // And the day after the Wix attack is the modal Wix destination day.
    let wix_day = world.truth.episodes.wix_attack_day;
    assert!(platform
        .iter()
        .any(|m| m.provider == incapsula && m.day.0 == wix_day.0 + 1));
}
