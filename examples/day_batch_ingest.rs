//! Day-batch ingest equals the batch store. The paper's concluding
//! challenge is "enabling near-realtime data fusion, extraction,
//! correlation and visualization": feed each day's detector events into
//! a fresh [`EventStore`] as they arrive, print a monthly
//! situational-awareness row as the two-year window unfolds, and assert
//! that the final row equals the batch store's. Table 1 and the common
//! targets are ingest-time aggregates; the joint count is the exact
//! [`JointAnalysis`] over everything ingested so far.
//!
//! ```sh
//! cargo run --release --example day_batch_ingest
//! ```

use dosscope_core::report::Table1;
use dosscope_core::{Enricher, EventStore, Framework, JointAnalysis};
use dosscope_harness::{Scenario, ScenarioConfig};
use dosscope_types::AttackEvent;

/// One row: Table 1's combined events, targets, /24s and ASNs, then the
/// common and joint targets.
fn row(label: &str, store: &EventStore, world: &dosscope_harness::World) -> String {
    let fw = Framework::new(store, &world.geo, &world.asdb, world.days);
    let combined = &Table1::build(&fw).rows[2];
    let joint = JointAnalysis::run(store, &Enricher::new(&world.geo, &world.asdb));
    format!(
        "{label:>5} | {:>6} {:>8} {:>5} {:>5} {:>7} {:>6}",
        combined.summary.events,
        combined.summary.targets,
        combined.summary.blocks24,
        combined.asns,
        store.common_targets(),
        joint.joint_targets,
    )
}

fn main() {
    let config = ScenarioConfig {
        scale: 10_000.0,
        ..ScenarioConfig::default()
    };
    let world = Scenario::run(&config);

    // Replay the detectors' output day by day, as live detectors would
    // deliver it.
    let mut tele: Vec<Vec<AttackEvent>> = vec![Vec::new(); world.days as usize];
    let mut hp: Vec<Vec<AttackEvent>> = vec![Vec::new(); world.days as usize];
    for e in world.store.telescope() {
        tele[e.when.start.day().0 as usize].push(e.clone());
    }
    for e in world.store.honeypot() {
        hp[e.when.start.day().0 as usize].push(e.clone());
    }

    let mut live = EventStore::new();
    println!("  day | events  targets  /24s  ASNs  common  joint");
    for (day, (t, h)) in tele.into_iter().zip(hp).enumerate() {
        live.ingest_telescope(t);
        live.ingest_honeypot(h);
        if (day + 1) % 30 == 0 {
            println!("{}", row(&(day + 1).to_string(), &live, &world));
        }
    }
    let last = row("final", &live, &world);
    let batch = row("batch", &world.store, &world);
    println!("{last}\n{batch}");
    assert_eq!(last[5..], batch[5..], "incremental ingest matches the batch store");
}
