//! The end-to-end scenario: world building, ground-truth generation,
//! day-by-day rendering, and measurement.
//!
//! The calling thread renders, routes and dispatches one day at a time;
//! the detector shards run on the pool workers of the two sharded
//! engines, behind bounded queues. So the pipeline thread renders day
//! `d+1` while the workers detect on day `d` — the same overlap a real
//! capture/processing deployment has.

use dosscope_amppot::honeypot::standard_fleet;
use dosscope_amppot::{HoneypotDay, ShardedFleet};
use dosscope_attackgen::config::Calibration;
use dosscope_attackgen::{GenConfig, Generator, GroundTruth, MigrationModel, Renderer};
use dosscope_core::{EventStore, Framework};
use dosscope_dns::synth::{synthesize, SynthConfig, SynthOutput};
use dosscope_dps::DpsDataset;
use dosscope_geo::{AsDb, AsRegistry, GeoDb, RegistryConfig};
use dosscope_telescope::{ShardedRsdos, Telescope, TelescopeDay};
use dosscope_types::{DayIndex, Routed};

/// Scenario parameters. `scale` divides every paper-scale quantity; the
/// default (2000) runs the full 731-day window in seconds of CPU time.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Master seed (world, ground truth and rendering all derive from it).
    pub seed: u64,
    /// Scale denominator (events = paper totals / scale; namespace size
    /// likewise).
    pub scale: f64,
    /// Window length in days (731).
    pub days: u32,
    /// Measurement shards: the detectors are sharded by the full victim
    /// address, one pool worker per shard and engine (1 runs one worker
    /// each). The output is byte-identical for any value (see DESIGN.md,
    /// "Concurrency model").
    pub threads: usize,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 0xD05C09E,
            scale: 2_000.0,
            days: 731,
            threads: 1,
        }
    }
}

impl ScenarioConfig {
    /// A reduced configuration for tests: coarser scale, full window.
    pub fn test_small() -> ScenarioConfig {
        ScenarioConfig {
            scale: 20_000.0,
            ..ScenarioConfig::default()
        }
    }

    /// Scaled number of Web sites.
    pub fn total_sites(&self) -> u32 {
        ((dosscope_attackgen::config::paper::WEB_SITES / self.scale).round() as u32).max(500)
    }
}

/// Everything the scenario produced. Analyses borrow from this.
pub struct World {
    /// The synthetic address plan.
    pub registry: AsRegistry,
    /// Geolocation database (built from the plan).
    pub geo: GeoDb,
    /// Prefix-to-AS database (built from the plan).
    pub asdb: AsDb,
    /// The DNS namespace (post-migration zone) and organisation catalog.
    pub synth: SynthOutput,
    /// The measured DPS adoption data set.
    pub dps: DpsDataset,
    /// Detected attack events from both pipelines.
    pub store: EventStore,
    /// Telescope detector statistics.
    pub telescope_stats: dosscope_telescope::detector::DetectorStats,
    /// Honeypot fleet statistics.
    pub fleet_stats: dosscope_amppot::FleetStats,
    /// Botnet attack events from the C&C monitor (the third data source;
    /// Section 8 extension).
    pub botnet_events: Vec<dosscope_botmon::BotnetEvent>,
    /// C&C monitor statistics.
    pub botmon_stats: dosscope_botmon::MonitorStats,
    /// The ground truth (kept for validation; the analyses never read it).
    pub truth: GroundTruth,
    /// The applied migrations (ground truth).
    pub migrations: dosscope_attackgen::MigrationOutcome,
    /// Window length.
    pub days: u32,
}

impl World {
    /// Assemble the analysis framework over this world. The framework
    /// borrows the world's event store directly — no per-call copy of the
    /// event lists.
    pub fn framework(&self) -> Framework<'_> {
        Framework::new(&self.store, &self.geo, &self.asdb, self.days)
            .with_dns(&self.synth.zone, &self.synth.catalog)
            .with_dps(&self.dps)
    }
}

/// The scenario driver.
pub struct Scenario;

impl Scenario {
    /// Run the full loop for a configuration.
    pub fn run(config: &ScenarioConfig) -> World {
        // 1. World: address plan, metadata databases, DNS namespace.
        let world_span = dosscope_obs::span!("stage.world");
        let registry = AsRegistry::build(&RegistryConfig {
            seed: config.seed ^ 0x9E0,
            ..RegistryConfig::default()
        });
        let geo = registry.build_geodb();
        let asdb = registry.build_asdb();
        let mut synth = synthesize(
            &SynthConfig {
                seed: config.seed ^ 0xD45,
                total_sites: config.total_sites(),
                days: config.days,
                ..SynthConfig::default()
            },
            &registry,
        );
        drop(world_span);

        // 2. Ground truth + behavioural migrations (mutates the zone).
        let truth_span = dosscope_obs::span!("stage.truth");
        let gen_config = GenConfig {
            seed: config.seed ^ 0xA77,
            days: config.days,
            scale: config.scale,
            ..GenConfig::default()
        };
        let cal = Calibration::default();
        let truth = Generator::new(gen_config.clone(), Calibration::default(), &registry, &synth)
            .generate();
        let migrate_span = dosscope_obs::span!("stage.migrate");
        let migrations = MigrationModel::apply(&gen_config, &cal, &truth, &mut synth);
        dosscope_obs::counter!("migrate.cohost_counts").add(migrations.cohost_counts);
        dosscope_obs::counter!("migrate.placements_walked").add(migrations.placements_walked);
        drop(migrate_span);
        // The zone is final from here on: these two counts size its
        // per-domain and per-placement tables.
        dosscope_obs::counter!("zone.domains").add(synth.zone.domain_count() as u64);
        dosscope_obs::counter!("zone.placements").add(synth.zone.placements().len() as u64);

        // 3. Measure DPS adoption from the (mutated) zone — the inference
        // side of Section 3.3.
        let dps_span = dosscope_obs::span!("stage.dps");
        let dps = DpsDataset::infer(&synth.zone, &synth.catalog, &asdb);
        dosscope_obs::counter!("dps.protected_domains").add(dps.protected_count());
        dosscope_obs::counter!("dps.intervals").add(dps.interval_count());
        drop(dps_span);
        drop(truth_span);

        // 4. Render observations and drive both measurement pipelines.
        let renderer = renderer(config, &truth);
        let days = (0..config.days).map(|d| {
            let _render = dosscope_obs::span!("stage.render");
            (
                renderer.telescope_capture(DayIndex(d)),
                renderer.honeypot_capture(DayIndex(d)),
            )
        });
        let (store, telescope_stats, fleet_stats) =
            drive_pipelines(days, renderer.telescope(), config.threads);

        // The third data source: botnet C&C monitoring (Section 8
        // extension). Commands are generated from the same ground truth
        // and inferred back by the monitor.
        let _botmon_span = dosscope_obs::span!("stage.botmon");
        let commands = dosscope_attackgen::botnets::generate_commands(
            &gen_config,
            &registry,
            &truth,
            config.seed ^ 0xB07,
        );
        let mut monitor = dosscope_botmon::CncMonitor::new();
        for c in &commands {
            monitor.ingest(c);
        }
        let (botnet_events, botmon_stats) =
            monitor.finish(dosscope_types::SimTime(config.days as u64 * 86_400));
        dosscope_obs::counter!("botmon.commands").add(botmon_stats.commands);
        dosscope_obs::counter!("botmon.events").add(botnet_events.len() as u64);
        dosscope_obs::counter!("botmon.stopped").add(botmon_stats.stopped);
        dosscope_obs::counter!("botmon.capped").add(botmon_stats.capped);
        dosscope_obs::counter!("botmon.orphan_stops").add(botmon_stats.orphan_stops);
        dosscope_obs::counter!("botmon.restarted").add(botmon_stats.restarted);
        dosscope_obs::counter!("botmon.unterminated").add(botmon_stats.unterminated);

        World {
            registry,
            geo,
            asdb,
            synth,
            dps,
            store,
            telescope_stats,
            fleet_stats,
            botnet_events,
            botmon_stats,
            truth,
            migrations,
            days: config.days,
        }
    }
}

/// The renderer [`Scenario::run`] feeds its detectors from: the standard
/// /8 darknet and honeypot fleet, seeded from `config`.
pub fn renderer<'a>(config: &ScenarioConfig, truth: &'a GroundTruth) -> Renderer<'a> {
    let pot_addrs = standard_fleet().iter().map(|h| h.addr).collect();
    Renderer::new(
        truth,
        Telescope::default_slash8(),
        pot_addrs,
        config.seed ^ 0x8E4,
        config.days,
    )
}

/// Take each rendered day of both streams from `days` (for
/// [`Scenario::run`], the renderer), route and dispatch it on the calling
/// thread while the sharded engines' pool workers detect, and fuse both
/// engines' events into one store. A day is one value per stream (a
/// packet arena plus time-ordered rows), moved whole into one `Arc` per
/// pool: handing a day over, and freeing it on a worker, costs the same
/// few allocations however many rows it holds. With more than one shard,
/// each day is routed by victim address into per-shard row index lists;
/// no row or packet is copied. Victim-keyed detector state makes the
/// single merge at `finish` byte-identical for any shard count
/// (DESIGN.md, "Concurrency model").
///
/// Publishes the `render.*` counters and `render.day_bytes_peak`, the
/// most bytes one rendered day reserved over both streams (arenas,
/// packet ends and rows).
pub fn drive_pipelines(
    days: impl IntoIterator<Item = (TelescopeDay, HoneypotDay)>,
    telescope: Telescope,
    threads: usize,
) -> (
    EventStore,
    dosscope_telescope::detector::DetectorStats,
    dosscope_amppot::FleetStats,
) {
    let mut rsdos = ShardedRsdos::with_defaults(telescope, threads);
    let mut fleet = ShardedFleet::standard(threads);
    let (mut tele_batches, mut hp_batches, mut tele_bytes) = (0u64, 0u64, 0u64);
    let mut day_bytes_peak = 0;
    for (tele, hp) in days {
        tele_batches += tele.len() as u64;
        hp_batches += hp.len() as u64;
        tele_bytes += tele
            .rows()
            .iter()
            .map(|r| tele.packet(r.packet).len() as u64)
            .sum::<u64>();
        day_bytes_peak = day_bytes_peak.max(tele.reserved_bytes() + hp.reserved_bytes());
        let (tele_routed, hp_routed) = {
            let _route = dosscope_obs::span!("stage.route");
            (
                Routed::by_source(tele, threads),
                Routed::by_source(hp, threads),
            )
        };
        // Blocking on a full worker queue (back-pressure) is its own
        // span, so `stage.route` measures routing alone.
        let _handoff = dosscope_obs::span!("stage.handoff");
        rsdos.ingest_routed(tele_routed);
        fleet.ingest_routed(hp_routed);
    }
    dosscope_obs::counter!("render.telescope_batches").add(tele_batches);
    dosscope_obs::counter!("render.honeypot_batches").add(hp_batches);
    dosscope_obs::counter!("render.telescope_bytes").add(tele_bytes);
    dosscope_obs::gauge!("render.day_bytes_peak").raise(day_bytes_peak as u64);

    let _fuse = dosscope_obs::span!("stage.fuse");
    let (tele_events, tele_stats, _peak) = rsdos.finish();
    let (hp_events, fleet_stats, _peak) = fleet.finish();

    let mut store = EventStore::new();
    store.ingest_telescope(tele_events);
    store.ingest_honeypot(hp_events);
    (store, tele_stats, fleet_stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A very small smoke scenario (heavier validation lives in the
    /// workspace integration tests).
    #[test]
    fn tiny_scenario_end_to_end() {
        let config = ScenarioConfig {
            scale: 100_000.0,
            ..ScenarioConfig::default()
        };
        let world = Scenario::run(&config);
        assert!(world.store.telescope().len() > 50, "telescope events detected");
        assert!(world.store.honeypot().len() > 30, "honeypot events detected");
        assert_eq!(world.telescope_stats.malformed, 0);
        assert_eq!(world.fleet_stats.malformed, 0);
        // The framework assembles and basic reports build.
        let fw = world.framework();
        let t1 = dosscope_core::report::Table1::build(&fw);
        assert!(t1.rows[2].summary.events >= t1.rows[0].summary.events);
    }

    /// Windows shorter than the ten days the synthesizer's lifetime
    /// draws divide by must still run end to end, through the report and
    /// the paper comparison.
    #[test]
    fn every_short_window_runs_end_to_end() {
        for days in 1..=12 {
            let config = ScenarioConfig {
                scale: 100_000.0,
                days,
                ..ScenarioConfig::default()
            };
            let world = Scenario::run(&config);
            let experiments = crate::experiments::Experiments::run(&world, config.scale);
            assert!(!experiments.render_report().is_empty(), "{days} days");
            assert!(!experiments.compare().is_empty(), "{days} days");
        }
    }

    #[test]
    fn threads_do_not_change_results() {
        let base = ScenarioConfig {
            scale: 100_000.0,
            ..ScenarioConfig::default()
        };
        let serial = Scenario::run(&base);
        let parallel = Scenario::run(&ScenarioConfig { threads: 4, ..base });
        assert_eq!(serial.store.telescope(), parallel.store.telescope());
        assert_eq!(serial.store.honeypot(), parallel.store.honeypot());
        assert_eq!(
            serial.telescope_stats.backscatter_packets,
            parallel.telescope_stats.backscatter_packets
        );
        assert_eq!(serial.telescope_stats.events, parallel.telescope_stats.events);
        assert_eq!(serial.fleet_stats.requests, parallel.fleet_stats.requests);
        assert_eq!(serial.fleet_stats.replies_sent, parallel.fleet_stats.replies_sent);
    }

    #[test]
    fn scenario_deterministic() {
        let config = ScenarioConfig {
            scale: 200_000.0,
            ..ScenarioConfig::default()
        };
        let a = Scenario::run(&config);
        let b = Scenario::run(&config);
        assert_eq!(a.store.telescope().len(), b.store.telescope().len());
        assert_eq!(a.store.honeypot().len(), b.store.honeypot().len());
        for (x, y) in a.store.telescope().iter().zip(b.store.telescope()) {
            assert_eq!(x.target, y.target);
            assert_eq!(x.when, y.when);
            assert_eq!(x.packets, y.packets);
        }
    }
}
