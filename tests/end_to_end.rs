//! Workspace integration test: the full pipeline — world synthesis,
//! ground-truth generation, packet rendering, detection, fusion and every
//! report — at a reduced scale.

use dosscope_amppot::{HoneypotId, RequestBatch};
use dosscope_core::report::{Table1, Table2, Table3, Table4, Table5, Table6, Table7, Table8};
use dosscope_core::{Enricher, EventStore, EventsView, Framework, JointAnalysis};
use dosscope_harness::experiments::Experiments;
use dosscope_harness::{scenario, Scenario, ScenarioConfig, World};
use dosscope_telescope::PacketBatch;
use dosscope_types::{AttackEvent, DayIndex, EventSource, SimTime, SECS_PER_DAY};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn world() -> World {
    Scenario::run(&ScenarioConfig::test_small())
}

/// Every table, figure and paper check of a world, as `repro` prints them.
fn report(world: &World, scale: f64) -> String {
    let experiments = Experiments::run(world, scale);
    experiments.render_report() + &Experiments::render_comparison(&experiments.compare())
}

/// One source's events grouped into per-day batches by start day.
fn by_day(events: EventsView<'_>) -> BTreeMap<u32, Vec<AttackEvent>> {
    let mut days: BTreeMap<u32, Vec<AttackEvent>> = BTreeMap::new();
    for e in events {
        days.entry(e.when.start.day().0).or_default().push(e);
    }
    days
}

#[test]
fn pipeline_produces_events_and_reports() {
    let world = world();

    // Both pipelines produced a sensible number of events for the scale
    // (paper totals / 20 000 ≈ 623 telescope, 421 honeypot).
    let tele = world.store.telescope().len();
    let hp = world.store.honeypot().len();
    assert!((400..1400).contains(&tele), "telescope events: {tele}");
    assert!((250..1000).contains(&hp), "honeypot events: {hp}");

    // Nothing malformed reached the detectors, and the scan filter did
    // real work.
    assert_eq!(world.telescope_stats.malformed, 0);
    assert_eq!(world.fleet_stats.malformed, 0);
    assert!(world.telescope_stats.backscatter_packets > 0);

    // Every event lies within the window and satisfies the published
    // thresholds.
    let horizon = world.days as u64 * SECS_PER_DAY;
    for e in world.store.telescope() {
        assert!(e.when.start.secs() < horizon);
        assert!(e.duration_secs() >= 60, "min duration threshold");
        assert!(e.packets >= 25, "min packet threshold");
        assert!(e.intensity_pps >= 0.5, "min rate threshold");
    }
    for e in world.store.honeypot() {
        assert!(e.packets > 100, "scan filter");
        assert!(e.duration_secs() <= 86_400, "24h cap");
    }

    // All reports build and are internally consistent.
    let fw = world.framework();
    let t1 = Table1::build(&fw);
    let tele_sum = &t1.rows[0].summary;
    let hp_sum = &t1.rows[1].summary;
    let comb = &t1.rows[2].summary;
    assert_eq!(comb.events, tele_sum.events + hp_sum.events);
    assert!(comb.targets <= tele_sum.targets + hp_sum.targets);
    assert!(comb.targets >= tele_sum.targets.max(hp_sum.targets));
    assert!(tele_sum.blocks16 <= tele_sum.blocks24);
    assert!(tele_sum.blocks24 <= tele_sum.targets);

    let t2 = Table2::build(&fw).expect("zone attached");
    let total_sites: u64 = t2.rows.iter().map(|(_, s, _, _)| s).sum();
    assert_eq!(total_sites, ScenarioConfig::test_small().total_sites() as u64);

    let t3 = Table3::build(&fw).expect("dps attached");
    assert_eq!(t3.rows.len(), 10, "ten DPS providers");

    let t4 = Table4::build(&fw);
    assert_eq!(t4.telescope.len(), 6, "top-5 + Other");

    let t5 = Table5::build(&fw);
    assert!((t5.shares.iter().sum::<f64>() - 100.0).abs() < 1e-6);

    let t6 = Table6::build(&fw);
    let sum6: f64 = t6.rows.iter().map(|(_, _, p)| p).sum();
    assert!((sum6 - 100.0).abs() < 1e-6);

    let t7 = Table7::build(&fw);
    assert_eq!(t7.single + t7.multi, tele_sum.events);

    let t8 = Table8::build(&fw);
    assert!(!t8.tcp.is_empty() && !t8.udp.is_empty());
}

#[test]
fn joint_correlation_consistency() {
    let world = world();
    let fw = world.framework();
    let enricher = Enricher::new(fw.geo, fw.asdb);
    let joint = JointAnalysis::run(fw.store, &enricher);
    // Joint targets are a subset of common targets, which are a subset of
    // the smaller data set's target population.
    assert!(joint.joint_targets <= joint.common_targets);
    assert!(joint.joint_pairs >= joint.joint_targets);
    let tele_targets = fw.store.summary(EventSource::Telescope).targets;
    let hp_targets = fw.store.summary(EventSource::Honeypot).targets;
    assert!(joint.common_targets <= tele_targets.min(hp_targets));
    // The scripted joint incidents guarantee a non-trivial population.
    assert!(joint.joint_targets > 0);
    // Shares are probabilities.
    assert!((0.0..=1.0).contains(&joint.single_port_share));
    for (_, share) in &joint.reflection_shares {
        assert!((0.0..=1.0).contains(share));
    }
}

#[test]
fn third_source_coverage() {
    let world = world();
    // The C&C monitor inferred events, and the blind spot is real: a
    // substantial share of botnet targets never appear in the two primary
    // data sets (unspoofed direct attacks are invisible to them).
    assert!(!world.botnet_events.is_empty());
    assert_eq!(world.botmon_stats.orphan_stops, 0);
    let coverage = dosscope_core::coverage::CoverageStats::analyze(
        world.framework().store,
        &world.botnet_events,
    );
    assert_eq!(coverage.botnet_events, world.botnet_events.len() as u64);
    assert!(
        coverage.invisible_share() > 0.3,
        "blind spot: {:.2}",
        coverage.invisible_share()
    );
    assert!(
        coverage.shared_with_telescope + coverage.shared_with_honeypots > 0,
        "some multi-vector overlap exists"
    );
    // Families are plausible: with the small sample at this scale, one of
    // the two heavyweight families leads (DirtJumper dominates at larger
    // scales, per the Wang et al. mix).
    let top = coverage.per_family.first().map(|&(f, _)| f).unwrap();
    assert!(
        matches!(
            top,
            dosscope_botmon::BotFamily::DirtJumper | dosscope_botmon::BotFamily::Yoddos
        ),
        "unexpected leading family {top:?}"
    );
}

#[test]
fn shape_metrics_are_scale_invariant() {
    // The substitution argument: shares/shapes must not depend on the
    // scale denominator. Run two additional scales and compare the key
    // metrics.
    use dosscope_harness::experiments::Experiments;
    // Scales are chosen so every run has ≥ 1000 telescope events: the
    // scripted episodes (marquee days, Wix, eNom, the long-attack
    // sprinkle) are fixed-count by design, so at very small event
    // populations (scale ≳ 40k ⇒ < 400 events) they plus binomial noise
    // dominate the spread and the invariance check loses its power.
    let shares: Vec<_> = [20_000.0, 10_000.0, 5_000.0]
        .into_iter()
        .map(|scale| {
            let w = Scenario::run(&ScenarioConfig {
                scale,
                ..ScenarioConfig::default()
            });
            Experiments::key_shares(&w)
        })
        .collect();
    let spread = |f: fn(&dosscope_harness::experiments::KeyShares) -> f64| {
        let vals: Vec<f64> = shares.iter().map(f).collect();
        vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - vals.iter().cloned().fold(f64::INFINITY, f64::min)
    };
    assert!(spread(|k| k.tcp_share) < 0.05, "TCP share varies with scale");
    assert!(spread(|k| k.single_port_share) < 0.06, "single-port share varies");
    assert!(spread(|k| k.tele_le_5min) < 0.08, "duration shape varies");
    assert!(spread(|k| k.tele_le_2pps) < 0.08, "intensity shape varies");
    assert!(spread(|k| k.web_tcp_share) < 0.08, "web TCP share varies");
    // Attacked-namespace coverage is density-coupled (it saturates with
    // event volume relative to the hosting inventory), so it only gets a
    // coarse monotone-ish bound here; the default scale is the calibrated
    // one (EXPERIMENTS.md).
    assert!(
        spread(|k| k.attacked_namespace_share) < 0.30,
        "attacked share varies wildly"
    );
}

#[test]
fn incremental_store_matches_batch() {
    // Near-realtime fusion is incremental store ingest: the world's events
    // fed as per-day batches — in start order, then with the batch order
    // reversed — must land on exactly the batch store's views, Table 1
    // and joint correlation.
    let world = world();
    let tele = by_day(world.store.telescope());
    let hp = by_day(world.store.honeypot());
    let mut days: Vec<u32> = tele.keys().chain(hp.keys()).copied().collect();
    days.sort_unstable();
    days.dedup();

    let enricher = Enricher::new(&world.geo, &world.asdb);
    let want_t1 = Table1::build(&world.framework());
    let want_joint = JointAnalysis::run(&world.store, &enricher);
    for reversed in [false, true] {
        let mut store = EventStore::new();
        let order: Vec<u32> = match reversed {
            false => days.clone(),
            true => days.iter().rev().copied().collect(),
        };
        for d in order {
            store.ingest_telescope(tele.get(&d).cloned().unwrap_or_default());
            store.ingest_honeypot(hp.get(&d).cloned().unwrap_or_default());
        }
        assert!(store.telescope() == world.store.telescope(), "telescope, reversed={reversed}");
        assert!(store.honeypot() == world.store.honeypot(), "honeypot, reversed={reversed}");
        for source in [EventSource::Telescope, EventSource::Honeypot] {
            assert_eq!(store.summary(source), world.store.summary(source), "{source:?}");
        }
        assert_eq!(store.summary_combined(), world.store.summary_combined());
        assert_eq!(store.common_targets(), world.store.common_targets());
        let fw = Framework::new(&store, &world.geo, &world.asdb, world.days);
        assert_eq!(Table1::build(&fw).rows, want_t1.rows, "Table 1, reversed={reversed}");
        assert_eq!(JointAnalysis::run(&store, &enricher), want_joint, "reversed={reversed}");
    }
}

/// Whole-report metamorphic check: the world's events re-fed as per-day
/// batches in shuffled day order, each batch reversed and split in two,
/// honeypot before telescope, must render every table, figure and paper
/// check byte-identical to the batch store.
fn assert_report_independent_of_batch_order(config: &ScenarioConfig) {
    let mut world = Scenario::run(config);
    let render = |world: &World| report(world, config.scale);
    let want = render(&world);
    let tele = by_day(world.store.telescope());
    let hp = by_day(world.store.honeypot());
    let mut days: Vec<u32> = tele.keys().chain(hp.keys()).copied().collect();
    days.sort_unstable();
    days.dedup();

    for seed in 0..3u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut order = days.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut store = EventStore::new();
        for d in order {
            for (source, batches) in [(EventSource::Honeypot, &hp), (EventSource::Telescope, &tele)]
            {
                let mut batch = batches.get(&d).cloned().unwrap_or_default();
                batch.reverse();
                let second = batch.split_off(batch.len() / 2);
                for part in [batch, second] {
                    match source {
                        EventSource::Telescope => store.ingest_telescope(part),
                        EventSource::Honeypot => store.ingest_honeypot(part),
                    }
                }
            }
        }
        world.store = store;
        assert!(render(&world) == want, "report differs for day-order seed {seed}");
    }
}

#[test]
fn report_is_independent_of_batch_order() {
    assert_report_independent_of_batch_order(&ScenarioConfig::test_small());
}

#[test]
#[ignore = "scale 600 is slow in a debug build; ci.sh runs it in release"]
fn report_is_independent_of_batch_order_at_scale_600() {
    assert_report_independent_of_batch_order(&ScenarioConfig {
        scale: 600.0,
        ..ScenarioConfig::test_small()
    });
}

/// Noise the detectors reject must not reach the report: the rendered
/// days, each with one malformed batch appended at its last second on
/// both streams and driven through two shards, count exactly one more
/// malformed batch per day in each detector and leave every table,
/// figure and paper check byte-identical.
#[test]
fn malformed_noise_leaves_the_report_unchanged() {
    let config = ScenarioConfig::test_small();
    let mut world = Scenario::run(&config);
    let want = report(&world, config.scale);
    let renderer = scenario::renderer(&config, &world.truth);
    let days = (0..config.days).map(|d| {
        let last_second = SimTime((d as u64 + 1) * SECS_PER_DAY - 1);
        let mut tele = renderer.telescope_day(DayIndex(d));
        let mut hp = renderer.honeypot_day(DayIndex(d));
        tele.push(PacketBatch::repeated(last_second, 1, vec![0xAB; 6]));
        hp.push(RequestBatch::repeated(
            HoneypotId(0),
            last_second,
            1,
            vec![0xAB; 6],
        ));
        (tele, hp)
    });
    let (store, telescope_stats, fleet_stats) =
        scenario::drive_pipelines(days, renderer.telescope(), 2);
    let days = config.days as u64;
    assert_eq!(
        telescope_stats.malformed,
        world.telescope_stats.malformed + days
    );
    assert_eq!(fleet_stats.malformed, world.fleet_stats.malformed + days);
    world.store = store;
    assert!(
        report(&world, config.scale) == want,
        "noise changed the report"
    );
}

#[test]
fn detected_events_match_ground_truth_scale() {
    let world = world();
    // Detection recovers nearly all generated attacks: compare counts.
    let gt_tele = world.truth.telescope_attacks().count();
    let detected = world.store.telescope().len();
    let recall = detected as f64 / gt_tele as f64;
    assert!(
        (0.85..=1.10).contains(&recall),
        "telescope recall {recall} ({detected}/{gt_tele})"
    );
    let gt_hp = world.truth.honeypot_attacks().count();
    let detected_hp = world.store.honeypot().len();
    let recall_hp = detected_hp as f64 / gt_hp as f64;
    assert!(
        (0.80..=1.10).contains(&recall_hp),
        "honeypot recall {recall_hp} ({detected_hp}/{gt_hp})"
    );
}
