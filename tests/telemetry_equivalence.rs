//! Telemetry counters are part of the serial-equivalence guarantee: the
//! engine counters (`telescope.*`, `fleet.*`) count domain facts —
//! batches ingested, flows expired, events emitted — and are published
//! once from the shard-merged `DetectorStats`/`FleetStats`, and the
//! producer publishes the `render.*` counters once after its last day,
//! so for a fixed seed the whole counter map must be identical for any
//! thread count.
//!
//! This lives in its own test binary on purpose: the counter registry is
//! process-global, so the comparison needs a process where no concurrent
//! test is pushing events while collection is enabled. (Pool gauges and
//! span timings are topology- and wall-clock-dependent by design and are
//! excluded — only `counters` carries the determinism contract.)

use dosscope_harness::{Scenario, ScenarioConfig};

#[test]
fn telemetry_counters_are_identical_across_thread_counts() {
    let _telemetry = dosscope_obs::testing::scoped_enable();
    let config = ScenarioConfig {
        scale: 50_000.0,
        ..ScenarioConfig::default()
    };

    let run_counters = |threads: usize| -> Vec<(String, u64)> {
        dosscope_obs::reset();
        let _world = Scenario::run(&ScenarioConfig {
            threads,
            ..config.clone()
        });
        dosscope_obs::registry::counters_snapshot()
    };

    let serial = run_counters(1);
    for required in [
        "telescope.events",
        "telescope.flows_expired",
        "fleet.events",
        "render.telescope_batches",
        "render.honeypot_batches",
        "render.telescope_bytes",
    ] {
        assert!(
            serial.iter().any(|(n, v)| n == required && *v > 0),
            "serial run recorded {required}: {serial:?}"
        );
    }
    // Every rendered backscatter batch reaches the telescope detector.
    let get = |name: &str| serial.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    assert_eq!(get("render.telescope_batches"), get("telescope.batches"));
    for threads in [2, 8] {
        let threaded = run_counters(threads);
        assert_eq!(
            threaded, serial,
            "{threads} threads: counter map differs from serial"
        );
    }
}

/// `threads = 1` drives the same sharded engines as any other thread
/// count (one inline shard each), so its telemetry carries the peak
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
        assert_eq!(get(&format!("pool.{pool}.shards")), Some(1));
        for field in ["dispatches", "w0.batches", "w0.busy_us", "w0.queue_hwm"] {
            let name = format!("pool.{pool}.{field}");
            assert!(get(&name) > Some(0), "{name} registered: {gauges:?}");
        }
    }
}
