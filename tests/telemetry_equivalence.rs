//! Telemetry counters are part of the serial-equivalence guarantee: the
//! engine counters (`telescope.*`, `fleet.*`) count domain facts —
//! batches ingested, flows expired, events emitted — and are published
//! once from the shard-merged `DetectorStats`/`FleetStats`; the pipeline
//! driver publishes the `render.*` counters once after its last day, the
//! set-up publishes the `dps.*` and `zone.*` counters once, and the
//! botnet monitor its `botmon.*` funnel once. So for a fixed seed the
//! whole counter map must be identical for any thread count.
//!
//! This lives in its own test binary on purpose: the counter registry is
//! process-global, so the comparison needs a process where no concurrent
//! test is pushing events while collection is enabled. (Pool gauges and
//! span timings are topology- and wall-clock-dependent by design and are
//! excluded — only `counters` carries the determinism contract.)

use dosscope_harness::{scenario, Scenario, ScenarioConfig, World};
use dosscope_types::DayIndex;

#[test]
fn telemetry_counters_are_identical_across_thread_counts() {
    let _telemetry = dosscope_obs::testing::scoped_enable();
    let config = ScenarioConfig {
        scale: 50_000.0,
        ..ScenarioConfig::default()
    };

    let run_counters = |threads: usize| -> (Vec<(String, u64)>, World) {
        dosscope_obs::reset();
        let world = Scenario::run(&ScenarioConfig {
            threads,
            ..config.clone()
        });
        (dosscope_obs::registry::counters_snapshot(), world)
    };

    let (serial, world) = run_counters(1);
    for required in [
        "telescope.events",
        "telescope.flows_expired",
        "fleet.events",
        "fleet.pot_events",
        "render.telescope_batches",
        "render.honeypot_batches",
        "render.telescope_bytes",
        "dps.protected_domains",
        "dps.intervals",
        "botmon.commands",
        "botmon.events",
    ] {
        assert!(
            serial.iter().any(|(n, v)| n == required && *v > 0),
            "serial run recorded {required}: {serial:?}"
        );
    }
    // Every rendered backscatter batch reaches the telescope detector.
    let get = |name: &str| serial.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    assert_eq!(get("render.telescope_batches"), get("telescope.batches"));
    // The DPS counters report the data set the run inferred.
    assert_eq!(get("dps.protected_domains"), Some(world.dps.protected_count()));
    assert_eq!(get("dps.intervals"), Some(world.dps.interval_count()));
    // The zone counters size the final zone.
    let zone = &world.synth.zone;
    assert_eq!(get("zone.domains"), Some(zone.domain_count() as u64));
    assert_eq!(get("zone.placements"), Some(zone.placements().len() as u64));
    // Every expired flow became an event or was filtered.
    assert_eq!(
        get("telescope.flows_filtered"),
        Some(world.telescope_stats.flows_filtered)
    );
    assert_eq!(
        get("telescope.flows_expired"),
        Some(get("telescope.events").unwrap() + world.telescope_stats.flows_filtered)
    );
    // The fleet funnel counters report the merged statistics; a run may
    // scan-filter nothing, but the counter is in the map either way.
    assert_eq!(get("fleet.pot_events"), Some(world.fleet_stats.pot_events));
    assert_eq!(
        get("fleet.scan_filtered"),
        Some(world.fleet_stats.scan_filtered)
    );
    assert_eq!(get("fleet.pot_merged"), Some(world.fleet_stats.pot_merged));
    assert_eq!(get("fleet.capped"), Some(world.fleet_stats.capped));
    // The filtered flows split by the first threshold each failed.
    let ts = &world.telescope_stats;
    for (name, value) in [
        ("telescope.filtered_packets", ts.filtered_packets),
        ("telescope.filtered_duration", ts.filtered_duration),
        ("telescope.filtered_rate", ts.filtered_rate),
    ] {
        assert_eq!(get(name), Some(value), "{name}");
    }
    assert_eq!(
        ts.filtered_packets + ts.filtered_duration + ts.filtered_rate,
        ts.flows_filtered
    );
    // The botnet monitor's funnel reports its statistics and events.
    let botmon = &world.botmon_stats;
    assert_eq!(get("botmon.commands"), Some(botmon.commands));
    assert_eq!(get("botmon.events"), Some(world.botnet_events.len() as u64));
    assert_eq!(get("botmon.stopped"), Some(botmon.stopped));
    assert_eq!(get("botmon.capped"), Some(botmon.capped));
    assert_eq!(get("botmon.orphan_stops"), Some(botmon.orphan_stops));
    for threads in [2, 8] {
        let (threaded, _) = run_counters(threads);
        assert_eq!(
            threaded, serial,
            "{threads} threads: counter map differs from serial"
        );
    }
}

/// `threads = 1` drives the same sharded engines as any other thread
/// count (one pool worker each), so its telemetry carries the peak
/// working-set gauges and both pools' profiles too.
#[test]
fn single_thread_run_registers_peak_and_pool_gauges() {
    let _telemetry = dosscope_obs::testing::scoped_enable();
    let _world = Scenario::run(&ScenarioConfig {
        scale: 50_000.0,
        threads: 1,
        ..ScenarioConfig::default()
    });
    let gauges = dosscope_obs::registry::gauges_snapshot();
    let get = |name: &str| gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
    for name in ["telescope.peak_live_flows", "fleet.peak_open_events"] {
        assert!(get(name) > Some(0), "{name} registered: {gauges:?}");
    }
    for pool in ["telescope", "fleet"] {
        assert_eq!(get(&format!("pool.{pool}.workers")), Some(1));
        for field in ["dispatches", "w0.batches", "w0.busy_us", "w0.queue_hwm"] {
            let name = format!("pool.{pool}.{field}");
            assert!(get(&name) > Some(0), "{name} registered: {gauges:?}");
        }
    }
}

/// `render.day_bytes_peak` is the most bytes one rendered day reserved
/// over both streams (arenas, packet ends and rows): a memory number that
/// is the same on every run. Pinned at `test_small`, with the rows of
/// that day, so a change to the day value's layout or its reservations
/// shows as bytes per batch.
#[test]
fn day_bytes_peak_is_pinned_at_test_small() {
    let _telemetry = dosscope_obs::testing::scoped_enable();
    let config = ScenarioConfig::test_small();
    let world = Scenario::run(&config);
    let gauges = dosscope_obs::registry::gauges_snapshot();
    let peak = gauges
        .iter()
        .find(|(k, _)| k == "render.day_bytes_peak")
        .map(|(_, v)| *v);
    // The same days, rendered again: the peak is the largest of them.
    let renderer = scenario::renderer(&config, &world.truth);
    let (bytes, rows) = (0..config.days)
        .map(|d| {
            let tele = renderer.telescope_capture(DayIndex(d));
            let hp = renderer.honeypot_capture(DayIndex(d));
            (tele.reserved_bytes() + hp.reserved_bytes(), tele.len() + hp.len())
        })
        .max_by_key(|&(bytes, rows)| (bytes, std::cmp::Reverse(rows)))
        .expect("the window has days");
    assert_eq!(peak, Some(bytes as u64));
    assert_eq!(
        (bytes, rows, bytes / rows),
        (420_264, 3_994, 105),
        "peak day: bytes, rows, bytes per batch"
    );
}
