//! EXPERIMENTS.md quotes the paper comparison of the default `repro` run.
//! This test reads files and computes nothing: the comparison table and
//! its "N/M checks within tolerance" count in EXPERIMENTS.md must equal
//! the default-scale golden (`tests/golden/repro/scale2000.txt`), which
//! `ci.sh` `cmp`s against release `repro` stdout.

const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");
const GOLDEN: &str = include_str!("golden/repro/scale2000.txt");

/// The `| … |` rows under EXPERIMENTS.md's `## Comparison (N/M checks
/// within tolerance)` heading, and its `N/M`.
fn documented() -> (Vec<&'static str>, &'static str) {
    let mut lines = EXPERIMENTS.lines();
    let count = lines
        .by_ref()
        .find_map(|l| {
            l.strip_prefix("## Comparison (")?
                .strip_suffix(" checks within tolerance)")
        })
        .expect("EXPERIMENTS.md has a `## Comparison (N/M checks within tolerance)` heading");
    let rows = lines
        .take_while(|l| !l.starts_with("## "))
        .filter(|l| l.starts_with('|'))
        .collect();
    (rows, count)
}

/// The golden's comparison table (from its `| Experiment | Metric |`
/// header to the first non-table line) and the `N/M` of its
/// `N/M checks within tolerance` line.
fn golden() -> (Vec<&'static str>, &'static str) {
    let rows = GOLDEN
        .lines()
        .skip_while(|l| !l.starts_with("| Experiment | Metric |"))
        .take_while(|l| l.starts_with('|'))
        .collect();
    let count = GOLDEN
        .lines()
        .find_map(|l| l.strip_suffix(" checks within tolerance"))
        .expect("golden has an `N/M checks within tolerance` line");
    (rows, count)
}

#[test]
fn comparison_table_matches_the_default_golden() {
    let (doc_rows, doc_count) = documented();
    let (gold_rows, gold_count) = golden();
    assert!(gold_rows.len() > 2, "golden comparison table not found");
    assert_eq!(doc_count, gold_count, "EXPERIMENTS.md check count");
    assert_eq!(doc_rows.len(), gold_rows.len(), "EXPERIMENTS.md row count");
    for (doc, gold) in doc_rows.iter().zip(&gold_rows) {
        assert_eq!(doc, gold, "EXPERIMENTS.md comparison row");
    }
}
