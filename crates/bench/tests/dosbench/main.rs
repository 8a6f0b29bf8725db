//! `dosbench --smoke` end to end: all four workloads at the smoke scale,
//! one end-to-end rep and one traced replay each. Every metric
//! `BENCHMARK.json` lists must be printed with its unit for every
//! workload, the report digests must agree, and no rep may fail.

#[allow(dead_code)]
#[path = "../../src/bin/dosbench/json.rs"]
mod json;

use json::Json;
use std::process::Command;

#[test]
fn smoke_run_prints_every_metric_and_agrees_on_outputs() {
    let spec = Json::parse(include_str!("../../../../BENCHMARK.json")).expect("BENCHMARK.json");
    let out = Command::new(env!("CARGO_BIN_EXE_dosbench"))
        .arg("--smoke")
        .output()
        .expect("dosbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "dosbench --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<Vec<&str>> = stdout
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();

    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let headers: Vec<&Vec<&str>> = lines.iter().filter(|l| l.first() == Some(&"==")).collect();
    assert_eq!(
        headers.len(),
        workloads.len(),
        "one section per workload:\n{stdout}"
    );
    for (h, name) in headers.iter().zip(&workloads) {
        assert_eq!(h[1], *name);
        let share = h
            .iter()
            .position(|t| *t == "failed_share")
            .expect("failed_share");
        assert_eq!(h[share + 1], "0", "{name} has failed reps");
    }

    for section in ["end_to_end", "per_layer"] {
        for m in spec.get(section).and_then(Json::as_array).expect(section) {
            let name = m.get("name").and_then(Json::as_str).expect("metric name");
            let unit = m.get("unit").and_then(Json::as_str).expect("metric unit");
            let printed = lines
                .iter()
                .filter(|l| l.len() >= 3 && l[0] == name && l[2] == unit)
                .count();
            assert_eq!(
                printed,
                workloads.len(),
                "{name} [{unit}] not printed once per workload:\n{stdout}"
            );
        }
    }

    let digests: Vec<&Vec<&str>> = lines
        .iter()
        .filter(|l| l.first() == Some(&"digest"))
        .collect();
    assert_eq!(digests.len(), workloads.len());
    for d in &digests {
        assert!(d.contains(&"reps_agree=true"), "{d:?}");
        assert!(d.contains(&"replay_agrees=true"), "{d:?}");
    }
    let digest_of = |w: &str| digests[workloads.iter().position(|n| *n == w).expect(w)][1];
    assert_eq!(digest_of("default"), digest_of("default-t2"));
}
