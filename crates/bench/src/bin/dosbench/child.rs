//! The two child processes behind every rep. A child receives nothing but
//! a `ScenarioConfig` on its command line and reports on stdout, one
//! `key value...` record per line.
//!
//! * `e2e` runs exactly `repro`'s main sequence with obs telemetry off,
//!   prints `report_done` the moment the report and the comparison exist
//!   (the parent stops its wall clock on that line), then reports CPU
//!   time and peak RSS read at that moment, the report digest, and a
//!   re-timing of the synthetic-world set-up. The re-built set-up must
//!   match the `World` that `Scenario::run` returned, or the child
//!   fails, so the bench's copy of the set-up cannot drift from it.
//! * `trace` replays the same path as separate public calls in the same
//!   order, with a bench-side span around each call, rebuilds the
//!   `World` from its own outputs and runs the analyses on it. Rendering
//!   and detection run serially per day, so each layer reports busy
//!   time. Spans stay in memory and are written at exit with their self
//!   time; work counters are computed after the replay, outside every
//!   span.

use crate::counters;
use crate::stats::percentile;
use dosscope_amppot::{route_requests, AmpPotFleet, FleetStats, RequestBatch, ShardedFleet};
use dosscope_attackgen::config::Calibration;
use dosscope_attackgen::{
    GenConfig, Generator, GroundTruth, MigrationModel, MigrationOutcome, Renderer,
};
use dosscope_core::coverage::CoverageStats;
use dosscope_core::mailimpact::InfrastructureImpact;
use dosscope_core::migration::MigrationAnalysis;
use dosscope_core::report::{
    DistributionFigure, Figure1, Figure5, Table1, Table2, Table3, Table4, Table5, Table6, Table7,
    Table8,
};
use dosscope_core::webimpact::WebImpact;
use dosscope_core::{Enricher, EventStore, JointAnalysis};
use dosscope_dns::synth::{synthesize, SynthConfig, SynthOutput};
use dosscope_dps::DpsDataset;
use dosscope_geo::{AsDb, AsRegistry, GeoDb, RegistryConfig};
use dosscope_harness::experiments::Experiments;
use dosscope_harness::{Scenario, ScenarioConfig, World};
use dosscope_telescope::detector::DetectorStats;
use dosscope_telescope::{
    route_batches, PacketBatch, RsdosDetector, RsdosPlugin, ShardedRsdos, Telescope,
    TelescopePlugin,
};
use dosscope_types::{DayIndex, EventSource, SimTime};
use std::hint::black_box;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Run the child `kind` ("e2e" or "trace") for `config`.
pub fn run(kind: &str, config: &ScenarioConfig) {
    dosscope_obs::log::set_level(dosscope_obs::log::level_from_flags(true, false));
    dosscope_obs::set_enabled(false);
    match kind {
        "e2e" => end_to_end(config),
        "trace" => traced(config),
        other => panic!("unknown child kind {other}"),
    }
}

/// FNV-1a over the report and the comparison table: equal digests mean
/// byte-identical output.
fn digest(report: &str, comparison: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in report.bytes().chain([0]).chain(comparison.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn end_to_end(config: &ScenarioConfig) {
    let world = Scenario::run(config);
    let experiments = Experiments::run(&world, config.scale);
    let report = experiments.render_report();
    let rows = experiments.compare();
    let comparison = Experiments::render_comparison(&rows);
    let cpu_s = cpu_seconds();
    let peak_rss_mib = peak_rss_mib();
    let mut out = std::io::stdout().lock();
    writeln!(out, "report_done").expect("stdout is the parent's pipe");
    out.flush().expect("stdout is the parent's pipe");

    let passed = rows.iter().filter(|r| r.ok()).count();
    let digest = digest(&report, &comparison);
    let built = SetupFingerprint::of(&world.synth, &world.truth, &world.migrations, &world.dps);
    drop(experiments);
    drop(world);
    let t0 = Instant::now();
    let world_again = setup(config, &mut Tracer::default());
    let setup_s = t0.elapsed().as_secs_f64();
    let rebuilt = SetupFingerprint::of(
        &world_again.synth,
        &world_again.truth,
        &world_again.migrations,
        &world_again.dps,
    );
    assert_eq!(
        rebuilt, built,
        "the re-timed set-up built another world than Scenario::run"
    );
    drop(world_again);

    writeln!(
        out,
        "digest {digest}\nchecks_passed {passed}\ncpu_s {cpu_s}\npeak_rss_mib {peak_rss_mib}\nsetup_s {setup_s}"
    )
    .expect("stdout is the parent's pipe");
}

/// User + system time of this process so far, from `/proc/self/stat`
/// (clock ticks of 1/100 s, the Linux `USER_HZ`).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("Linux /proc");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f[11].parse::<u64>().expect("utime") + f[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// Peak resident set (`VmHWM`) of this process so far, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kib / 1024.0
}

/// Bench-side spans: name, parent, start and end, in memory until exit.
#[derive(Default)]
struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
    /// Probes time a call `repro` makes inside a larger replayed call;
    /// they run after the replay and are left out of its sum.
    probe: bool,
}

impl Tracer {
    fn now(&mut self) -> f64 {
        self.origin
            .get_or_insert_with(Instant::now)
            .elapsed()
            .as_secs_f64()
    }

    fn open(&mut self, name: &'static str, probe: bool) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
            probe,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `id` (the innermost open one); returns its duration.
    fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        end - span.start
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, false);
        let r = f();
        self.close(id);
        r
    }

    fn probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, true);
        let r = f();
        self.close(id);
        r
    }

    /// Σ of the top-level replay spans: the replay's measured time.
    fn replay_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && !s.probe)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Spans folded by name, in first-seen order: (name, parent name,
    /// count, total seconds, self seconds, probe). Self time is a span's
    /// duration minus its direct children's.
    fn folded(&self) -> Vec<(&'static str, &'static str, u64, f64, f64, bool)> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.end - s.start;
            }
        }
        let mut out: Vec<(&'static str, &'static str, u64, f64, f64, bool)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-", |p| self.spans[p].name);
            let dur = s.end - s.start;
            match out.iter_mut().find(|o| o.0 == s.name) {
                Some(o) => {
                    o.2 += 1;
                    o.3 += dur;
                    o.4 += dur - child_s[i];
                }
                None => out.push((s.name, parent, 1, dur, dur - child_s[i], s.probe)),
            }
        }
        out
    }
}

/// Everything `Scenario::run` builds before rendering.
struct Setup {
    registry: AsRegistry,
    geo: GeoDb,
    asdb: AsDb,
    synth: SynthOutput,
    gen_config: GenConfig,
    truth: GroundTruth,
    migrations: MigrationOutcome,
    dps: DpsDataset,
}

/// Sizes of what the set-up builds, enough to tell two set-ups apart.
#[derive(Debug, PartialEq)]
struct SetupFingerprint {
    domains: usize,
    zone_data_points: u64,
    truth_attacks: usize,
    migrations: usize,
    dps_protected: u64,
    dps_diversions: (u64, u64),
}

impl SetupFingerprint {
    fn of(
        synth: &SynthOutput,
        truth: &GroundTruth,
        migrations: &MigrationOutcome,
        dps: &DpsDataset,
    ) -> SetupFingerprint {
        SetupFingerprint {
            domains: synth.zone.domain_count(),
            zone_data_points: synth.zone.data_points(),
            truth_attacks: truth.attacks.len(),
            migrations: migrations.migrations.len(),
            dps_protected: dps.protected_count(),
            dps_diversions: dps.diversion_split(),
        }
    }
}

/// The synthetic-world set-up, in `Scenario::run`'s order and with its
/// seed derivations.
fn setup(config: &ScenarioConfig, tr: &mut Tracer) -> Setup {
    let (registry, geo, asdb) = tr.time("geo.build", || {
        let registry = AsRegistry::build(&RegistryConfig {
            seed: config.seed ^ 0x9E0,
            ..RegistryConfig::default()
        });
        let geo = registry.build_geodb();
        let asdb = registry.build_asdb();
        (registry, geo, asdb)
    });
    let mut synth = tr.time("dnsobs.synth", || {
        let synth_config = SynthConfig {
            seed: config.seed ^ 0xD45,
            total_sites: config.total_sites(),
            days: config.days,
            ..SynthConfig::default()
        };
        synthesize(&synth_config, &registry)
    });
    let gen_config = GenConfig {
        seed: config.seed ^ 0xA77,
        days: config.days,
        scale: config.scale,
        ..GenConfig::default()
    };
    let cal = Calibration::default();
    let truth = tr.time("attackgen.truth", || {
        Generator::new(
            gen_config.clone(),
            Calibration::default(),
            &registry,
            &synth,
        )
        .generate()
    });
    let migrations = tr.time("attackgen.migrate", || {
        MigrationModel::apply(&gen_config, &cal, &truth, &mut synth)
    });
    let dps = tr.time("dps.infer", || {
        DpsDataset::infer(&synth.zone, &synth.catalog, &asdb)
    });
    Setup {
        registry,
        geo,
        asdb,
        synth,
        gen_config,
        truth,
        migrations,
        dps,
    }
}

/// What the measurement replay hands on, plus its work counts.
#[derive(Default)]
struct Measured {
    store: EventStore,
    telescope_stats: DetectorStats,
    fleet_stats: FleetStats,
    render_day_s: Vec<f64>,
    batches: u64,
    packets: u64,
    peak_live_flows: u64,
    peak_open_events: u64,
}

impl Measured {
    /// Render one day under a span and count what it produced.
    fn render(
        &mut self,
        tr: &mut Tracer,
        renderer: &Renderer<'_>,
        day: DayIndex,
    ) -> (Vec<PacketBatch>, Vec<RequestBatch>) {
        let id = tr.open("attackgen.render", false);
        let rendered = (renderer.telescope_day(day), renderer.honeypot_day(day));
        self.render_day_s.push(tr.close(id));
        self.batches += (rendered.0.len() + rendered.1.len()) as u64;
        self.packets += rendered.0.iter().map(|b| u64::from(b.count)).sum::<u64>();
        rendered
    }

    fn ingest(
        &mut self,
        tr: &mut Tracer,
        telescope: (Vec<dosscope_types::AttackEvent>, DetectorStats),
        fleet: (Vec<dosscope_types::AttackEvent>, FleetStats),
    ) {
        self.store = tr.time("store.ingest", || {
            let mut store = EventStore::new();
            store.ingest_telescope(telescope.0);
            store.ingest_honeypot(fleet.0);
            store
        });
        self.telescope_stats = telescope.1;
        self.fleet_stats = fleet.1;
    }
}

/// `drive_pipelines` with threads 1, render and detect serialised.
fn detect_serial(
    tr: &mut Tracer,
    renderer: &Renderer<'_>,
    telescope: Telescope,
    mut fleet: AmpPotFleet,
    days: u32,
) -> Measured {
    let mut m = Measured::default();
    let mut plugin = tr.time("telescope.detect", || {
        RsdosPlugin::new(RsdosDetector::with_defaults(telescope))
    });
    let mut interval: Option<u64> = None;
    // `repro`'s consumer frees each day's batches once it has detected
    // on them, so the frees belong to the detect spans.
    for d in 0..days {
        let (tele, hp) = m.render(tr, renderer, DayIndex(d));
        tr.time("telescope.detect", || {
            for b in &tele {
                let iv = b.ts.secs() / 60;
                match interval {
                    None => interval = Some(iv),
                    Some(cur) if iv > cur => {
                        plugin.interval_end(SimTime(iv * 60));
                        interval = Some(iv);
                    }
                    _ => {}
                }
                plugin.process_batch(b);
            }
            drop(tele);
        });
        tr.time("amppot.detect", || {
            for b in &hp {
                fleet.ingest(b);
            }
            drop(hp);
        });
        m.peak_live_flows = m.peak_live_flows.max(plugin.live_flows() as u64);
        m.peak_open_events = m.peak_open_events.max(fleet.open_events() as u64);
    }
    let telescope = tr.time("telescope.detect", || {
        plugin.finish();
        plugin.into_results()
    });
    let fleet = tr.time("amppot.detect", || fleet.finish());
    m.ingest(tr, telescope, fleet);
    m
}

/// `drive_pipelines_sharded`, render/route and dispatch serialised. The
/// pool workers still run beside the main thread, so the detect spans
/// hold dispatch and the final drain in `finish`, not worker busy time.
fn detect_sharded(
    tr: &mut Tracer,
    renderer: &Renderer<'_>,
    telescope: Telescope,
    days: u32,
    threads: usize,
) -> Measured {
    let mut m = Measured::default();
    let mut rsdos = tr.time("telescope.detect", || {
        ShardedRsdos::with_defaults(telescope, threads)
    });
    let mut fleet = tr.time("amppot.detect", || ShardedFleet::standard(threads));
    for d in 0..days {
        let (tele, hp) = m.render(tr, renderer, DayIndex(d));
        let tele = tr.time("telescope.route", || route_batches(Arc::new(tele), threads));
        let hp = tr.time("amppot.route", || route_requests(Arc::new(hp), threads));
        tr.time("telescope.detect", || rsdos.ingest_routed(tele));
        tr.time("amppot.detect", || fleet.ingest_routed(hp));
    }
    let (events, stats, peak) = tr.time("telescope.detect", || rsdos.finish());
    m.peak_live_flows = peak;
    let telescope = (events, stats);
    let (events, stats, peak) = tr.time("amppot.detect", || fleet.finish());
    m.peak_open_events = peak;
    m.ingest(tr, telescope, (events, stats));
    m
}

fn traced(config: &ScenarioConfig) {
    let mut tr = Tracer::default();
    let Setup {
        registry,
        geo,
        asdb,
        synth,
        gen_config,
        truth,
        migrations,
        dps,
    } = setup(config, &mut tr);

    let telescope = Telescope::default_slash8();
    let fleet = tr.time("amppot.detect", AmpPotFleet::standard);
    let pot_addrs: Vec<std::net::Ipv4Addr> = fleet.honeypots().iter().map(|h| h.addr).collect();
    let renderer = tr.time("attackgen.renderer", || {
        Renderer::new(
            &truth,
            telescope,
            pot_addrs,
            config.seed ^ 0x8E4,
            config.days,
        )
    });
    let m = if config.threads > 1 {
        detect_sharded(&mut tr, &renderer, telescope, config.days, config.threads)
    } else {
        detect_serial(&mut tr, &renderer, telescope, fleet, config.days)
    };
    tr.time("attackgen.renderer", || drop(renderer));

    let (botnet_events, botmon_stats) = tr.time("botmon.monitor", || {
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
        monitor.finish(SimTime(config.days as u64 * 86_400))
    });
    let world = World {
        registry,
        geo,
        asdb,
        synth,
        dps,
        store: m.store,
        telescope_stats: m.telescope_stats,
        fleet_stats: m.fleet_stats,
        botnet_events,
        botmon_stats,
        truth,
        migrations,
        days: config.days,
    };

    // Experiments::run, one call per analysis.
    let run_id = tr.open("harness.experiments_run", false);
    let fw = world.framework();
    let web = tr.time("webimpact.analyze", || {
        WebImpact::analyze(&fw).expect("scenario attaches DNS")
    });
    let migration = tr.time("migration.analyze", || {
        MigrationAnalysis::analyze(&fw, &web).expect("scenario attaches DPS")
    });
    let joint = tr.time("correlate.joint", || {
        let enricher = Enricher::new(fw.geo, fw.asdb);
        JointAnalysis::run(fw.store, &enricher)
    });
    let experiments = Experiments {
        fw,
        web,
        migration,
        joint,
        scale: config.scale,
        botnet_events: &world.botnet_events,
        registry: &world.registry,
    };
    tr.close(run_id);
    let report = tr.time("harness.render_report", || experiments.render_report());
    let (rows, comparison) = tr.time("harness.compare", || {
        let rows = experiments.compare();
        let comparison = Experiments::render_comparison(&rows);
        (rows, comparison)
    });
    let replay_s = tr.replay_s();

    // Probes: calls render_report makes internally, timed on their own.
    let fw = &experiments.fw;
    let infra = tr.probe("mailimpact.analyze", || {
        InfrastructureImpact::analyze(fw).expect("scenario attaches DNS")
    });
    tr.probe("coverage.analyze", || {
        black_box(CoverageStats::analyze(fw.store, &world.botnet_events).render())
    });
    tr.probe("report.tables", || {
        black_box(Table1::build(fw).render());
        black_box(Table2::build(fw).map(|t| t.render()));
        black_box(Table3::build(fw).map(|t| t.render()));
        black_box(Table4::build(fw).render());
        black_box(Table5::build(fw).render());
        black_box(Table6::build(fw).render());
        black_box(Table7::build(fw).render());
        black_box(Table8::build(fw).render());
    });
    tr.probe("report.figures", || {
        black_box(Figure1::build(fw).render());
        let thresholds = [60.0, 300.0, 900.0, 3_600.0, 5_400.0, 86_400.0];
        for source in [EventSource::Telescope, EventSource::Honeypot] {
            black_box(DistributionFigure::durations(fw, source).render(&thresholds));
            black_box(DistributionFigure::intensities(fw, source).render(&thresholds));
        }
        black_box(DistributionFigure::intensities_per_protocol(fw));
        black_box(Figure5::build(fw).render());
    });

    // Work counters, outside every span.
    let zone = &world.synth.zone;
    let web = counters::web_join(zone, &world.store, config.days, &experiments.web);
    let mail = counters::mail_join(zone, &world.store, config.days, &infra);
    let ts = &world.telescope_stats;
    let fs = &world.fleet_stats;
    let ratio = |n: u64, d: u64| n as f64 / d.max(1) as f64;
    let mut metrics: Vec<(String, f64)> = vec![
        ("dnsobs.sites".into(), zone.domain_count() as f64),
        (
            "attackgen.render_day_p50_ms".into(),
            1e3 * percentile(&m.render_day_s, 50.0),
        ),
        (
            "attackgen.render_day_p98_ms".into(),
            1e3 * percentile(&m.render_day_s, 98.0),
        ),
        ("attackgen.batches".into(), m.batches as f64),
        ("telescope.packets".into(), m.packets as f64),
        (
            "telescope.event_yield".into(),
            ratio(ts.events, ts.flows_finalized),
        ),
        ("telescope.peak_live_flows".into(), m.peak_live_flows as f64),
        ("amppot.requests".into(), fs.requests as f64),
        ("amppot.event_yield".into(), ratio(fs.events, fs.pot_events)),
        ("amppot.peak_open_events".into(), m.peak_open_events as f64),
        ("store.rows".into(), world.store.len() as f64),
        (
            "store.memory_mib".into(),
            world.store.memory_bytes() as f64 / (1024.0 * 1024.0),
        ),
        (
            "webimpact.placements_scanned".into(),
            web.placements_scanned as f64,
        ),
        ("webimpact.site_hits".into(), web.hits as f64),
        ("webimpact.hit_ratio".into(), web.hit_ratio()),
        (
            "webimpact.scanned_per_event".into(),
            ratio(web.placements_scanned, web.events),
        ),
        (
            "mailimpact.placements_scanned".into(),
            mail.placements_scanned as f64,
        ),
        ("mailimpact.domain_hits".into(), mail.hits as f64),
        ("mailimpact.hit_ratio".into(), mail.hit_ratio()),
        (
            "correlate.joint_pairs".into(),
            experiments.joint.joint_pairs as f64,
        ),
    ];
    let folded = tr.folded();
    for &(name, _, _, total, _, _) in &folded {
        metrics.push((format!("{name}_s"), total));
    }
    // One thread never routes: the pool layer costs nothing there.
    if config.threads == 1 {
        metrics.push(("telescope.route_s".into(), 0.0));
        metrics.push(("amppot.route_s".into(), 0.0));
    }

    let mut out = std::io::stdout().lock();
    let passed = rows.iter().filter(|r| r.ok()).count();
    let digest = digest(&report, &comparison);
    let mut text = format!("digest {digest}\nchecks_passed {passed}\nreplay_s {replay_s}\n");
    for (name, value) in &metrics {
        text.push_str(&format!("metric {name} {value}\n"));
    }
    for (name, parent, count, total, self_s, probe) in folded {
        text.push_str(&format!(
            "span {name} {parent} {count} {total} {self_s} {}\n",
            u8::from(probe)
        ));
    }
    out.write_all(text.as_bytes())
        .expect("stdout is the parent's pipe");
}
