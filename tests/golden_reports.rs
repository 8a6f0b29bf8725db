//! Golden-file regression tests: the Table 1 and Table 2 aggregates and
//! the complete ASCII reproduction report for the standard test
//! configuration are pinned to checked-in snapshots under `tests/golden/`.
//!
//! Any intentional change to the pipeline or the renderers regenerates
//! them with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test -p dosscope-harness --test golden_reports
//! ```

use dosscope_core::report::{Table1, Table2};
use dosscope_harness::experiments::Experiments;
use dosscope_harness::{Scenario, ScenarioConfig};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Compare `actual` to the checked-in snapshot, or rewrite the snapshot
/// when `GOLDEN_UPDATE` is set and this is the regenerating pass.
fn check_at(name: &str, actual: &str, allow_update: bool) {
    let path = golden_dir().join(name);
    if allow_update && std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with GOLDEN_UPDATE=1",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(
            want,
            got,
            "{name}: first difference at line {} (regenerate with GOLDEN_UPDATE=1 if intended)",
            i + 1
        );
    }
    panic!(
        "{name}: line counts differ — golden {} vs actual {} (regenerate with GOLDEN_UPDATE=1 if intended)",
        expected.lines().count(),
        actual.lines().count()
    );
}

#[test]
fn golden_tables_and_report() {
    // The same goldens must hold at every thread count: the sharded
    // pipeline promises byte-identical output, so the serial run and an
    // 8-way run check against the very same files. Regeneration happens
    // on the serial pass only; the 8-way pass reads the fresh files back,
    // so an update still proves thread-count invariance.
    for threads in [1, 8] {
        let config = ScenarioConfig {
            threads,
            ..ScenarioConfig::test_small()
        };
        let world = Scenario::run(&config);
        let fw = world.framework();
        let allow_update = threads == 1;
        check_at("table1.txt", &Table1::build(&fw).render(), allow_update);
        check_at(
            "table2.txt",
            &Table2::build(&fw).expect("scenario attaches the zone").render(),
            allow_update,
        );
        check_at(
            "report.txt",
            &Experiments::run(&world, config.scale).render_report(),
            allow_update,
        );
    }
}
