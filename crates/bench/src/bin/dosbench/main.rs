//! # dosbench: the benchmark of the path `repro` runs
//!
//! `repro` turns telescope and honeypot detections, joined with the DNS
//! and DPS data, into every table and figure of the paper. dosbench
//! times exactly that path, end to end and layer by layer, and checks
//! the report it produces while doing so.
//!
//! ```text
//! dosbench [--seed N] [--out PATH] [--smoke]     full run: every workload, reps interleaved
//! dosbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                                                time-boxed run of one workload
//! dosbench --compare A.json B.json               verdicts between two full runs
//! ```
//!
//! Every rep is a fresh child process of dosbench itself, so peak RSS and
//! allocator state never leak from one rep into the next. A child
//! receives only the `ScenarioConfig` that the seed and the workload
//! produce; see the `child` module for what the two kinds of child do.
//!
//! ## End-to-end metrics
//!
//! | name | unit | better | what |
//! |---|---|---|---|
//! | `total_s` | s | lower | child wall time from spawn until the report and the comparison exist: `Scenario::run` → `Experiments::run` → `render_report` → `compare` + `render_comparison`, obs telemetry off |
//! | `cpu_s` | s | lower | user + system time from `/proc/self/stat`, read right after the report |
//! | `setup_s` | s | lower | the synthetic-world set-up (`AsRegistry::build` + `build_geodb` + `build_asdb`, `synthesize`, `Generator::generate`, `MigrationModel::apply`, `DpsDataset::infer`), timed again in the same child after the report; the re-built world must match the one `Scenario::run` built |
//! | `peak_rss_mib` | MiB | lower | `VmHWM`, read before the set-up re-time |
//! | `paper_checks_passed` | count | higher | `compare()` rows within tolerance (of 69), deterministic per world |
//!
//! Each is the median over reps, reported with its quartiles and n. The
//! bounds, the share of the parent's median by which a metric may get
//! worse, are in `BENCHMARK.json`. A rep fails when its child exits non-zero or its
//! report digest (FNV-1a over the report and the comparison table)
//! differs from the reference report.
//!
//! ## Workloads
//!
//! A workload is one `ScenarioConfig` minus the seed. Threads stay at or
//! below 2, the cores of the host these were sized on.
//!
//! | name | scale | days | threads | why |
//! |---|---|---|---|---|
//! | `default` | 2000 | 731 | 1 | repro's own config (scale 2000, 731 days, 1 thread); of the traced replay, rendering takes 35%, detection 27%, set-up 14% and the analyses 24% (Web join 12%) |
//! | `default-t2` | 2000 | 731 | 2 | the same input at 2 threads runs the ShardPool routing and sharded detectors that default bypasses; its report must equal default's |
//! | `web-s600` | 600 | 731 | 1 | scale 600: 3.3x default's events and sites; the Web join scans 3.1x the placements per event and is the largest layer, 32-33% of the traced replay (53% at scale 200) |
//! | `dense-s600-d120` | 600 | 120 | 1 | web-s600's events packed into 120 days: 6x the events per day, 6x the peak open honeypot events, 2x the live telescope flows; a change that trades sparse for dense traffic shows here |
//!
//! The shares are from traced replays of seed 0xD05C09E on a 2-vCPU
//! x86-64 VM. Scale 200, where the Web join is half the replay, costs
//! about 10 s a world, too much for a time-boxed run to average over
//! several worlds; scale 600 keeps the join the largest layer at a
//! sixth of the cost.
//!
//! ## Per-layer metrics
//!
//! A traced child replays `repro`'s path as separate public calls with a
//! bench-side span around each, rendering and then detecting each day
//! serially so every layer reports busy time; work counters come from
//! public return values, computed outside the spans, so they repeat
//! exactly on any machine. These metrics are diagnostic and carry no
//! bound. Each row names the end-to-end metric it should move and the
//! workload where it weighs most (heavy) and least (light).
//!
//! | layer (module) | metrics | should move | heavy / light |
//! |---|---|---|---|
//! | `geo`, `dnsobs`, `attackgen` truth, `dps` | `geo.build_s`, `dnsobs.synth_s`, `dnsobs.sites`, `attackgen.truth_s`, `attackgen.migrate_s`, `dps.infer_s` | `setup_s`, `total_s` | `dense-s600-d120` / `default` |
//! | `attackgen` render | `attackgen.render_s`, `attackgen.render_day_p50_ms`, `attackgen.render_day_p98_ms`, `attackgen.batches` | `total_s` (render is the critical path of the two-stage pipeline), `cpu_s` | `default` / `web-s600` |
//! | `telescope`, `amppot` | `telescope.detect_s`, `telescope.packets`, `telescope.event_yield` (events / flows finalized), `telescope.peak_live_flows`, `amppot.detect_s`, `amppot.requests`, `amppot.event_yield` (events / pot events), `amppot.peak_open_events` | `cpu_s`; `total_s` only once detection outruns rendering; `peak_rss_mib` | `dense-s600-d120` / `web-s600` |
//! | `types::pool` (sharded path) | `telescope.route_s`, `amppot.route_s` | `total_s`, `cpu_s` | `default-t2` / bypassed (threads-1 workloads never route and report 0) |
//! | `core::store` | `store.ingest_s`, `store.rows`, `store.memory_mib` | `peak_rss_mib`, `total_s` | small everywhere |
//! | `core::webimpact` | `webimpact.analyze_s`, `webimpact.placements_scanned`, `webimpact.site_hits`, `webimpact.hit_ratio`, `webimpact.scanned_per_event` | `total_s` | `web-s600` / `default` |
//! | `core::mailimpact` | `mailimpact.analyze_s`, `mailimpact.placements_scanned`, `mailimpact.domain_hits`, `mailimpact.hit_ratio` | `total_s` | `web-s600` / `default` |
//! | `core::{migration,correlate,coverage,report}` | `migration.analyze_s`, `correlate.joint_s`, `correlate.joint_pairs`, `coverage.analyze_s`, `report.tables_s`, `report.figures_s` | `total_s` | small; regression guards |
//! | `harness` | `harness.experiments_run_s`, `harness.render_report_s`, `harness.compare_s`, `trace.ratio` (Σ top-level replay spans / end-to-end `total_s`) | `total_s` | all |
//!
//! The mail/NS join, the coverage pass and the table and figure builders
//! run inside `render_report`; the replay times `render_report` as one
//! call and times those four again as probes after it. Probes are left
//! out of the replay's span sum.
//!
//! ## Two ways to run
//!
//! **Full run** (no `--workload`). Every workload runs on one world,
//! `--seed` (default: `repro`'s 0xD05C09E): 15 reps of each `default`
//! lane and 9 of each heavy one, interleaved round-robin across the
//! workloads. Interleaving matters on a shared host: two back-to-back
//! sets of `repro` runs, one workload after another, drifted by up to
//! 23% between sets, while interleaved sets agreed within 4%. Three
//! traced replays per workload run spread among its reps; the per-layer
//! numbers are their medians, since a single replay varies as much as a
//! single rep. Checks: reps agree on the report,
//! `default-t2` reproduces `default` byte for byte, and each replay
//! reproduces its workload. A workload with more threads than the host
//! has cores records its time metrics as `not_measured` (its digest is
//! still checked). `--out` writes the result file with a provenance
//! block (nproc, seed, smoke flag, kernel release, git HEAD).
//! `--smoke` runs all four at scale 20000, one rep and one replay each.
//!
//! **Time-boxed run** (`--workload NAME --seconds S --trace 0|1`), the
//! command `BENCHMARK.json` names. Rep j runs world j: world 0 is the
//! seed itself, later ones are splitmix64 draws from it, so the spread
//! between runs with different seeds measures the workload rather than
//! one world. Reps repeat until S seconds have passed (at least 3).
//! With `--trace 0` the run then reruns world 0, and for a multi-thread
//! workload runs it at 1 thread too; both must reproduce the first
//! report. `paper_checks_passed` comes from one more run, on the world
//! `repro` builds by default (seed 0xD05C09E) for the workload: a fixed
//! input, so the count is the same for every `--seed` and its bound can
//! be 0. The run prints the end-to-end medians. With `--trace 1` every
//! world gets an end-to-end reference and a traced replay that must
//! agree, and the run prints the per-layer medians. The last line of either is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ## Comparing two sets
//!
//! ```text
//! dosbench --out a.json && dosbench --out b.json && dosbench --compare a.json b.json
//! ```
//!
//! prints one row per (workload, end-to-end metric) with both medians
//! and quartiles and a verdict. The allowance is the metric's bound
//! times A's median, at least 0.02 s for `s` metrics. If either set's
//! inter-quartile distance exceeds the allowance the row is
//! `unresolved`, unless every B run beats every A run (`better`).
//! Otherwise a median that moved the wrong way by more than the
//! allowance is `worse`, the right way `better`, and anything between
//! `unchanged`. `--compare` exits non-zero when a row is worse.
//!
//! The `pipeline` binary and `BENCH_pipeline.json` are not this
//! benchmark: they time a replica of the pipeline (its fusion lane runs
//! `StreamingFusion`, which `repro` never runs, and its report lane
//! covers Tables 1–3 only).

mod child;
mod counters;
mod json;
mod stats;

use dosscope_harness::ScenarioConfig;
use json::{quote, Json};
use stats::{verdict, Summary, Verdict};
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The benchmark's contract: workloads, metrics, units and bounds.
const SPEC_TEXT: &str = include_str!("../../../../../BENCHMARK.json");

/// `repro`'s default seed.
const DEFAULT_SEED: u64 = 0xD05C09E;

/// Scale every workload runs at under `--smoke`.
const SMOKE_SCALE: f64 = 20_000.0;

/// Absolute allowance for `s`-unit metrics in `--compare`, below which
/// a move is never a regression (walls of a few milliseconds are
/// scheduler noise).
const TIME_FLOOR_S: f64 = 0.02;

/// Fewest worlds a time-boxed (`--workload`) run measures.
const MIN_WORLDS: usize = 3;

/// One benchmark workload: the `ScenarioConfig` a rep runs, minus the seed.
struct Workload {
    name: &'static str,
    scale: f64,
    days: u32,
    threads: usize,
    /// End-to-end reps in a full run.
    reps: usize,
    /// A workload whose report this one must reproduce byte for byte.
    same_output_as: Option<&'static str>,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "default",
        scale: 2_000.0,
        days: 731,
        threads: 1,
        reps: 15,
        same_output_as: None,
    },
    Workload {
        name: "default-t2",
        scale: 2_000.0,
        days: 731,
        threads: 2,
        reps: 15,
        same_output_as: Some("default"),
    },
    Workload {
        name: "web-s600",
        scale: 600.0,
        days: 731,
        threads: 1,
        reps: 9,
        same_output_as: None,
    },
    Workload {
        name: "dense-s600-d120",
        scale: 600.0,
        days: 120,
        threads: 1,
        reps: 9,
        same_output_as: None,
    },
];

impl Workload {
    fn config(&self, seed: u64, smoke: bool) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            scale: if smoke { SMOKE_SCALE } else { self.scale },
            days: self.days,
            threads: self.threads,
        }
    }

    fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }
}

/// Seed of the `j`-th world a time-boxed run measures: world 0 is the
/// run's own seed, later worlds are splitmix64 draws from it.
fn world_seed(seed: u64, j: usize) -> u64 {
    if j == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct MetricSpec {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

struct Spec {
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parse the compiled-in `BENCHMARK.json` and check that it names
    /// exactly the workloads this binary defines.
    fn load() -> Spec {
        let doc = Json::parse(SPEC_TEXT).expect("BENCHMARK.json is valid JSON");
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("BENCHMARK.json lists workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names, ours,
            "BENCHMARK.json and dosbench disagree on workloads"
        );
        let metrics = |key: &str| -> Vec<MetricSpec> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
                .iter()
                .map(|m| MetricSpec {
                    name: m
                        .get("name")
                        .and_then(Json::as_str)
                        .expect("metric name")
                        .into(),
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .expect("metric unit")
                        .into(),
                    lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                    bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                })
                .collect()
        };
        Spec {
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

// ---------------------------------------------------------------------
// Children
// ---------------------------------------------------------------------

/// What a child printed: `key value` records, plus when (seconds after
/// spawn) it printed `report_done`.
struct ChildOut {
    done_at: Option<f64>,
    records: Vec<(String, String)>,
}

impl ChildOut {
    fn get(&self, key: &str) -> Result<&str, String> {
        self.records
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("child printed no {key}"))
    }

    fn num(&self, key: &str) -> Result<f64, String> {
        let v = self.get(key)?;
        v.parse()
            .map_err(|_| format!("child printed a non-number {key}: {v}"))
    }
}

/// Spawn a fresh child of this binary for `config`, read its records and
/// wait for it to exit.
fn spawn(kind: &str, config: &ScenarioConfig) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find dosbench: {e}"))?;
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args([
            "--child",
            kind,
            "--seed",
            &config.seed.to_string(),
            "--scale",
            &config.scale.to_string(),
            "--days",
            &config.days.to_string(),
            "--threads",
            &config.threads.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn a {kind} child: {e}"))?;
    let mut out = ChildOut {
        done_at: None,
        records: Vec::new(),
    };
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut read_error = None;
    for line in BufReader::new(stdout).lines() {
        match line {
            Ok(line) if line == "report_done" => out.done_at = Some(t0.elapsed().as_secs_f64()),
            Ok(line) => {
                let (k, v) = line.split_once(' ').unwrap_or((line.as_str(), ""));
                out.records.push((k.to_string(), v.to_string()));
            }
            Err(e) => {
                read_error = Some(e);
                break;
            }
        }
    }
    if read_error.is_some() {
        let _ = child.kill();
    }
    let status = child
        .wait()
        .map_err(|e| format!("cannot wait for a {kind} child: {e}"))?;
    if let Some(e) = read_error {
        return Err(format!("reading a {kind} child failed: {e}"));
    }
    if !status.success() {
        return Err(format!("{kind} child for {config:?} exited with {status}"));
    }
    Ok(out)
}

/// One end-to-end rep.
struct E2e {
    total_s: f64,
    cpu_s: f64,
    setup_s: f64,
    peak_rss_mib: f64,
    checks_passed: f64,
    digest: String,
}

impl E2e {
    fn run(config: &ScenarioConfig) -> Result<E2e, String> {
        let out = spawn("e2e", config)?;
        Ok(E2e {
            total_s: out.done_at.ok_or("e2e child never printed report_done")?,
            cpu_s: out.num("cpu_s")?,
            setup_s: out.num("setup_s")?,
            peak_rss_mib: out.num("peak_rss_mib")?,
            checks_passed: out.num("checks_passed")?,
            digest: out.get("digest")?.to_string(),
        })
    }

    fn metric(&self, name: &str) -> f64 {
        match name {
            "total_s" => self.total_s,
            "cpu_s" => self.cpu_s,
            "setup_s" => self.setup_s,
            "peak_rss_mib" => self.peak_rss_mib,
            "paper_checks_passed" => self.checks_passed,
            other => panic!(
                "BENCHMARK.json names end-to-end metric {other}, which dosbench does not measure"
            ),
        }
    }
}

/// One traced replay.
struct Traced {
    digest: String,
    replay_s: f64,
    metrics: Vec<(String, f64)>,
    /// `name parent count total_s self_s probe` per folded span.
    spans: Vec<String>,
}

impl Traced {
    fn run(config: &ScenarioConfig) -> Result<Traced, String> {
        let out = spawn("trace", config)?;
        let mut metrics = Vec::new();
        let mut spans = Vec::new();
        for (k, v) in &out.records {
            match k.as_str() {
                "metric" => {
                    let (name, value) = v.split_once(' ').ok_or("bad metric record")?;
                    let value = value.parse().map_err(|_| format!("bad value for {name}"))?;
                    metrics.push((name.to_string(), value));
                }
                "span" => spans.push(v.clone()),
                _ => {}
            }
        }
        Ok(Traced {
            digest: out.get("digest")?.to_string(),
            replay_s: out.num("replay_s")?,
            metrics,
            spans,
        })
    }

    /// The per-layer metrics `BENCHMARK.json` lists, with `trace.ratio`
    /// taken against `total_s`.
    fn per_layer(&self, spec: &Spec, total_s: f64) -> Result<Vec<f64>, String> {
        spec.per_layer
            .iter()
            .map(|m| {
                if m.name == "trace.ratio" {
                    return Ok(self.replay_s / total_s);
                }
                self.metrics
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map(|&(_, v)| v)
                    .ok_or_else(|| format!("traced child did not report {}", m.name))
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Time-boxed run of one workload
// ---------------------------------------------------------------------

/// `--workload`: measure one workload for `seconds`, each rep on a fresh
/// world drawn from `seed`, and print the contract's one-line result.
fn run_workload(spec: &Spec, w: &Workload, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let start = Instant::now();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut fail = |what: String| {
        eprintln!("dosbench: {what}");
        failed += 1;
    };
    let (specs, values): (&[MetricSpec], Vec<Vec<f64>>) = if trace {
        // Per world: an end-to-end reference, then the traced replay,
        // whose report must be the same.
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut j = 0;
        while j < MIN_WORLDS || start.elapsed().as_secs_f64() < seconds {
            let config = w.config(world_seed(seed, j), false);
            j += 1;
            attempted += 2;
            let (e2e, traced) = match (E2e::run(&config), Traced::run(&config)) {
                (Ok(e), Ok(t)) => (e, t),
                (e, t) => {
                    e.err().into_iter().chain(t.err()).for_each(&mut fail);
                    continue;
                }
            };
            if traced.digest != e2e.digest {
                fail(format!(
                    "{}: traced replay report differs for {config:?}",
                    w.name
                ));
                continue;
            }
            match traced.per_layer(spec, e2e.total_s) {
                Ok(row) => rows.push(row),
                Err(e) => fail(e),
            }
        }
        let columns = (0..spec.per_layer.len())
            .map(|i| rows.iter().map(|r| r[i]).collect())
            .collect();
        (&spec.per_layer, columns)
    } else {
        let mut reps: Vec<E2e> = Vec::new();
        let mut world0_digest = None;
        let mut j = 0;
        while j < MIN_WORLDS || start.elapsed().as_secs_f64() < seconds {
            let config = w.config(world_seed(seed, j), false);
            attempted += 1;
            match E2e::run(&config) {
                Ok(rep) => {
                    if j == 0 {
                        world0_digest = Some(rep.digest.clone());
                    }
                    reps.push(rep);
                }
                Err(e) => fail(e),
            }
            j += 1;
        }
        // Output checks on world 0, outside the medians: a second run
        // must reproduce its report, and so must one thread when the
        // workload runs several.
        let first = w.config(seed, false);
        let mut references = vec![first.clone()];
        if first.threads > 1 {
            references.push(ScenarioConfig {
                threads: 1,
                ..first
            });
        }
        for config in references {
            attempted += 1;
            match E2e::run(&config) {
                Ok(again) if Some(&again.digest) == world0_digest.as_ref() => {}
                Ok(_) => fail(format!(
                    "{}: report differs from world 0's first run for {config:?}",
                    w.name
                )),
                Err(e) => fail(e),
            }
        }
        // Paper checks on the world `repro` builds by default for this
        // workload: a fixed input, so the count repeats on every run and
        // seed, and a single lost check shows against a bound of 0.
        attempted += 1;
        let checks = match E2e::run(&w.config(DEFAULT_SEED, false)) {
            Ok(rep) => vec![rep.checks_passed],
            Err(e) => {
                fail(e);
                Vec::new()
            }
        };
        let columns = spec
            .end_to_end
            .iter()
            .map(|m| match m.name.as_str() {
                "paper_checks_passed" => checks.clone(),
                name => reps.iter().map(|r| r.metric(name)).collect(),
            })
            .collect();
        (&spec.end_to_end, columns)
    };

    // Without a single good rep there is nothing to report; the run is
    // then incorrect through the missing metrics.
    let mut metrics = Vec::new();
    for (m, samples) in specs.iter().zip(&values) {
        let Some(s) = Summary::of(samples) else {
            continue;
        };
        println!(
            "{:<34} {:>12.6} {:<6} [q1 {:.6}, q3 {:.6}] n={}",
            m.name, s.median, m.unit, s.q1, s.q3, s.n
        );
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(&m.name),
            num(s.median),
            quote(&m.unit)
        ));
    }
    let correct = failed == 0 && metrics.len() == specs.len();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A finite number as JSON, anything else as `null`.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

// ---------------------------------------------------------------------
// Full run: every workload, reps interleaved
// ---------------------------------------------------------------------

struct Lane {
    w: &'static Workload,
    config: ScenarioConfig,
    reps: Vec<E2e>,
    attempted: usize,
    failed: usize,
    digest: Option<String>,
    traced: Vec<Traced>,
    traces_failed: usize,
    replay_agrees: bool,
}

/// Traced replays per workload in a full run. One replay varies as much
/// as one rep does, so `trace.ratio` and the per-layer numbers are the
/// median of three.
const TRACES: usize = 3;

/// The default run: every workload on one world (`seed`), reps
/// round-robin across workloads, with the traced replays spread evenly
/// among each workload's reps. Prints every metric and, with `out`,
/// writes the result file `--compare` reads. Fails when any output
/// check fails.
fn run_full(spec: &Spec, seed: u64, smoke: bool, out: Option<&str>) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut lanes: Vec<Lane> = WORKLOADS
        .iter()
        .map(|w| Lane {
            w,
            config: w.config(seed, smoke),
            reps: Vec::new(),
            attempted: 0,
            failed: 0,
            digest: None,
            traced: Vec::new(),
            traces_failed: 0,
            replay_agrees: false,
        })
        .collect();
    let reps_of = |w: &Workload| if smoke { 1 } else { w.reps };
    let traces = if smoke { 1 } else { TRACES };
    let rounds = WORKLOADS.iter().map(reps_of).max().unwrap_or(0);
    for round in 0..rounds {
        for lane in lanes.iter_mut().filter(|l| round < reps_of(l.w)) {
            let n = reps_of(lane.w);
            eprintln!("dosbench: {} rep {}/{n}", lane.w.name, round + 1);
            lane.attempted += 1;
            match E2e::run(&lane.config) {
                Ok(rep) => lane.reps.push(rep),
                Err(e) => {
                    eprintln!("dosbench: {e}");
                    lane.failed += 1;
                }
            }
            // Replay k follows rep (2k+1)n/(2·traces): the middles of
            // `traces` equal slices of the reps.
            if (0..traces).any(|k| round == (2 * k + 1) * n / (2 * traces)) {
                eprintln!("dosbench: {} traced replay", lane.w.name);
                match Traced::run(&lane.config) {
                    Ok(t) => lane.traced.push(t),
                    Err(e) => {
                        eprintln!("dosbench: {e}");
                        lane.traces_failed += 1;
                    }
                }
            }
        }
    }

    // Output checks: every rep reproduces the reference report (its own
    // first rep, or the workload it must match), and so does the replay.
    let first_digest: Vec<Option<String>> = lanes
        .iter()
        .map(|l| l.reps.first().map(|r| r.digest.clone()))
        .collect();
    for lane in &mut lanes {
        let reference = match lane.w.same_output_as {
            Some(other) => {
                let i = WORKLOADS
                    .iter()
                    .position(|w| w.name == other)
                    .expect("known workload");
                first_digest[i].clone()
            }
            None => lane.reps.first().map(|r| r.digest.clone()),
        };
        let disagreeing = lane
            .reps
            .iter()
            .filter(|r| Some(&r.digest) != reference.as_ref())
            .count();
        lane.failed += disagreeing;
        lane.replay_agrees = lane.traces_failed == 0
            && !lane.traced.is_empty()
            && lane
                .traced
                .iter()
                .all(|t| Some(&t.digest) == reference.as_ref());
        lane.digest = reference;
    }

    let mut ok = true;
    let mut doc_lanes = Vec::new();
    println!(
        "dosbench: nproc {nproc}, seed {seed:#x}, smoke {smoke}, kernel {}, git {}",
        kernel_release().as_deref().unwrap_or("unknown"),
        git_head().as_deref().unwrap_or("unknown")
    );
    for lane in &lanes {
        let w = lane.w;
        let c = &lane.config;
        let failed_share = lane.failed as f64 / lane.attempted.max(1) as f64;
        ok &= failed_share == 0.0 && lane.replay_agrees;
        println!(
            "\n== {} (scale {}, {} days, {} thread{}): {} reps, failed_share {failed_share}",
            w.name,
            c.scale,
            c.days,
            c.threads,
            if c.threads == 1 { "" } else { "s" },
            lane.reps.len()
        );
        println!(
            "  digest {} reps_agree={} replay_agrees={}{}",
            lane.digest.as_deref().unwrap_or("none"),
            lane.failed == 0,
            lane.replay_agrees,
            w.same_output_as
                .map_or(String::new(), |o| format!(" (must equal {o})"))
        );
        // Walls of a workload with more threads than cores measure the
        // scheduler, not the code.
        let timed = nproc >= c.threads;
        let mut e2e_json = Vec::new();
        for m in &spec.end_to_end {
            let samples: Vec<f64> = lane.reps.iter().map(|r| r.metric(&m.name)).collect();
            let is_time = m.unit == "s";
            match Summary::of(&samples) {
                Some(s) if timed || !is_time => {
                    println!(
                        "  {:<34} {:>12.6} {:<6} [q1 {:.6}, q3 {:.6}] n={}",
                        m.name, s.median, m.unit, s.q1, s.q3, s.n
                    );
                    let list: Vec<String> = samples.iter().map(|&x| num(x)).collect();
                    e2e_json.push(format!(
                        "{}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"samples\": [{}]}}",
                        quote(&m.name),
                        quote(&m.unit),
                        num(s.median),
                        num(s.q1),
                        num(s.q3),
                        s.n,
                        list.join(", ")
                    ));
                }
                _ => {
                    println!("  {:<34} {:>12} {:<6}", m.name, "not_measured", m.unit);
                    e2e_json.push(format!(
                        "{}: {{\"unit\": {}, \"not_measured\": true}}",
                        quote(&m.name),
                        quote(&m.unit)
                    ));
                }
            }
        }
        let total = Summary::of(&lane.reps.iter().map(|r| r.total_s).collect::<Vec<_>>())
            .map_or(f64::NAN, |s| s.median);
        let mut layer_json = Vec::new();
        let mut span_json = Vec::new();
        let rows: Result<Vec<Vec<f64>>, String> = lane
            .traced
            .iter()
            .map(|t| t.per_layer(spec, total))
            .collect();
        match (lane.traced.first(), rows) {
            (Some(t), Ok(rows)) => {
                println!(
                    "  per layer (median of {} traced replays; spans of the first):",
                    rows.len()
                );
                for (i, m) in spec.per_layer.iter().enumerate() {
                    let column: Vec<f64> = rows.iter().map(|r| r[i]).collect();
                    let v = Summary::of(&column).map_or(f64::NAN, |s| s.median);
                    println!("  {:<34} {v:>12.6} {}", m.name, m.unit);
                    layer_json.push(format!(
                        "{}: {{\"unit\": {}, \"value\": {}}}",
                        quote(&m.name),
                        quote(&m.unit),
                        num(v)
                    ));
                }
                for s in &t.spans {
                    let f: Vec<&str> = s.split(' ').collect();
                    if let [name, parent, count, total, self_s, probe] = f[..] {
                        span_json.push(format!(
                            "{{\"name\": {}, \"parent\": {}, \"count\": {count}, \"total_s\": {total}, \"self_s\": {self_s}, \"probe\": {}}}",
                            quote(name),
                            quote(parent),
                            probe == "1"
                        ));
                    }
                }
            }
            (_, Err(e)) => {
                eprintln!("dosbench: {e}");
                ok = false;
            }
            (None, _) => ok = false,
        }
        doc_lanes.push(format!(
            "    {{\"name\": {}, \"scale\": {}, \"days\": {}, \"threads\": {}, \"reps\": {}, \"failed_share\": {}, \"digest\": {}, \"replay_agrees\": {},\n     \"end_to_end\": {{{}}},\n     \"per_layer\": {{{}}},\n     \"spans\": [{}]}}",
            quote(w.name),
            num(c.scale),
            c.days,
            c.threads,
            lane.reps.len(),
            num(failed_share),
            lane.digest.as_deref().map_or("null".to_string(), quote),
            lane.replay_agrees,
            e2e_json.join(", "),
            layer_json.join(", "),
            span_json.join(", ")
        ));
    }
    if let Some(path) = out {
        let doc = format!(
            "{{\n  \"schema\": \"dosbench-v1\",\n  \"provenance\": {{\"nproc\": {nproc}, \"seed\": {seed}, \"smoke\": {smoke}, \"kernel\": {}, \"git_head\": {}}},\n  \"workloads\": [\n{}\n  ]\n}}\n",
            kernel_release().as_deref().map_or("null".to_string(), quote),
            git_head().as_deref().map_or("null".to_string(), quote),
            doc_lanes.join(",\n")
        );
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("dosbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nwrote {path}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("dosbench: an output check failed");
        ExitCode::FAILURE
    }
}

fn kernel_release() -> Option<String> {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .ok()
        .map(|s| s.trim().to_string())
}

/// The commit checked out in the working directory, if it is a git
/// checkout.
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
}

// ---------------------------------------------------------------------
// --compare
// ---------------------------------------------------------------------

/// `--compare A B`: one row per (workload, end-to-end metric) with both
/// sets' medians and quartiles and a verdict under `BENCHMARK.json`'s
/// bounds. Fails when any pair is worse.
fn compare(spec: &Spec, a_path: &str, b_path: &str) -> ExitCode {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("dosbench: {e}");
            return ExitCode::from(2);
        }
    };
    let lanes = |doc: &Json| -> Vec<Json> {
        doc.get("workloads")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let samples = |m: &Json| -> Option<Vec<f64>> {
        m.get("samples")?
            .as_array()?
            .iter()
            .map(Json::as_f64)
            .collect()
    };
    let mut worse = 0;
    println!("workload         metric               A median [q1, q3] n            B median [q1, q3] n            verdict");
    for la in lanes(&a) {
        let name = la.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(lb) = lanes(&b)
            .into_iter()
            .find(|l| l.get("name").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<16} missing from {b_path}");
            continue;
        };
        for m in &spec.end_to_end {
            let pick = |lane: &Json| {
                lane.get("end_to_end")
                    .and_then(|e| e.get(&m.name))
                    .and_then(samples)
            };
            let (Some(sa), Some(sb)) = (pick(&la), pick(&lb)) else {
                println!("{name:<16} {:<20} not_measured", m.name);
                continue;
            };
            let floor = if m.unit == "s" { TIME_FLOOR_S } else { 0.0 };
            let v = verdict(&sa, &sb, m.lower_is_better, m.bound, floor);
            worse += usize::from(v == Verdict::Worse);
            let show = |s: &[f64]| {
                Summary::of(s).map_or("-".to_string(), |s| {
                    format!("{:.4} [{:.4}, {:.4}] {}", s.median, s.q1, s.q3, s.n)
                })
            };
            println!(
                "{name:<16} {:<20} {:<30} {:<30} {}",
                m.name,
                show(&sa),
                show(&sb),
                v.label()
            );
        }
    }
    if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

const USAGE: &str = "usage:
  dosbench [--seed N] [--out PATH] [--smoke]       full run, all workloads interleaved
  dosbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                                                   time-boxed run of one workload
  dosbench --compare A.json B.json                 verdicts between two full runs";

enum Mode {
    Full {
        seed: u64,
        smoke: bool,
        out: Option<String>,
    },
    Workload {
        name: String,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    Compare(String, String),
    Child {
        kind: String,
        config: ScenarioConfig,
    },
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Mode, String> {
    let mut seed = DEFAULT_SEED;
    let mut smoke = false;
    let mut out = None;
    let mut workload = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut compare = None;
    let mut child = None;
    let mut scale = None;
    let mut days = None;
    let mut threads = None;
    fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = value("--seed", args.next())?,
            "--smoke" => smoke = true,
            "--out" => out = Some(value::<String>("--out", args.next())?),
            "--workload" => workload = Some(value::<String>("--workload", args.next())?),
            "--seconds" => seconds = value("--seconds", args.next())?,
            "--trace" => {
                trace = match value::<u8>("--trace", args.next())? {
                    0 => false,
                    1 => true,
                    t => return Err(format!("--trace takes 0 or 1, not {t}")),
                }
            }
            "--compare" => {
                let a = value::<String>("--compare", args.next())?;
                let b = value::<String>("--compare", args.next())?;
                compare = Some((a, b));
            }
            "--child" => child = Some(value::<String>("--child", args.next())?),
            "--scale" => scale = Some(value("--scale", args.next())?),
            "--days" => days = Some(value("--days", args.next())?),
            "--threads" => threads = Some(value("--threads", args.next())?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(kind) = child {
        let (Some(scale), Some(days), Some(threads)) = (scale, days, threads) else {
            return Err("--child needs --scale, --days and --threads".into());
        };
        let config = ScenarioConfig {
            seed,
            scale,
            days,
            threads,
        };
        return Ok(Mode::Child { kind, config });
    }
    if let Some((a, b)) = compare {
        return Ok(Mode::Compare(a, b));
    }
    if let Some(name) = workload {
        return Ok(Mode::Workload {
            name,
            seed,
            seconds,
            trace,
        });
    }
    Ok(Mode::Full { seed, smoke, out })
}

fn main() -> ExitCode {
    let mode = match parse(std::env::args().skip(1)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("dosbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::Child { kind, config } => {
            child::run(&kind, &config);
            ExitCode::SUCCESS
        }
        Mode::Full { seed, smoke, out } => run_full(&Spec::load(), seed, smoke, out.as_deref()),
        Mode::Workload {
            name,
            seed,
            seconds,
            trace,
        } => match Workload::by_name(&name) {
            Some(w) => run_workload(&Spec::load(), w, seed, seconds, trace),
            None => {
                eprintln!("dosbench: unknown workload {name:?}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Mode::Compare(a, b) => compare(&Spec::load(), &a, &b),
    }
}
