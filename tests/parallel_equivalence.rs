//! Serial-equivalence harness for the sharded parallel pipeline: the
//! headline guarantee is that for any seed and any thread count the
//! pipeline produces *byte-identical* results. Full scenario runs for
//! three seeds and threads ∈ {1, 2, 8} compare the complete rendered
//! reproduction report byte for byte.

use dosscope_harness::experiments::Experiments;
use dosscope_harness::{Scenario, ScenarioConfig};

/// The acceptance check: full scenario runs for three seeds, rendered to
/// the complete reproduction report, must be byte-identical for
/// threads ∈ {1, 2, 8}. (The telemetry half of the guarantee — the
/// engine counter map is identical across thread counts — lives in
/// `telemetry_equivalence.rs`, its own test binary: counters are a
/// process-global registry, so the comparison needs a process to itself.)
#[test]
fn reports_are_byte_identical_across_thread_counts() {
    for seed in [0xD05C09Eu64, 0x5EED_0001, 0xBEEF_CAFE] {
        let base = ScenarioConfig {
            seed,
            scale: 50_000.0,
            ..ScenarioConfig::default()
        };
        let serial_world = Scenario::run(&base);
        let serial_report = Experiments::run(&serial_world, base.scale).render_report();
        for threads in [2, 8] {
            let world = Scenario::run(&ScenarioConfig {
                threads,
                ..base.clone()
            });
            let report = Experiments::run(&world, base.scale).render_report();
            assert!(
                report == serial_report,
                "seed {seed:#x}, {threads} threads: report differs from serial"
            );
        }
    }
}
