//! Validation of emitted `TELEMETRY.json` artifacts against the
//! harness's expectations: the versioned schema marker, every pipeline
//! stage span, the detection and fuse funnels, the detectors'
//! high-water gauges, and per-worker pool utilization and conservation.
//! The CI gate runs `repro --smoke --telemetry` and `repro --scale 600
//! --telemetry`, each at `--threads 1` and `--threads 8`, then
//! `repro --validate-telemetry TELEMETRY.json` on each output.

/// Counters a full scenario run must have incremented.
const REQUIRED_COUNTERS: &[&str] = &[
    "telescope.batches",
    "telescope.backscatter_packets",
    "telescope.flows_expired",
    "telescope.flows_filtered",
    "telescope.events",
    "fleet.requests",
    "fleet.replies",
    "fleet.pot_events",
    "fleet.pot_merged",
    "fleet.events",
    "store.rows",
    "migrate.cohost_counts",
    "migrate.placements_walked",
    "dps.protected_domains",
    "dps.intervals",
    "render.telescope_batches",
    "render.honeypot_batches",
    "render.telescope_bytes",
    "zone.domains",
    "zone.placements",
    "web.site_records",
    "botmon.commands",
    "botmon.events",
    "botmon.stopped",
    "botmon.capped",
];

/// Instruments that must be *present* (registered) but may legitimately
/// read zero: `store.consolidations` counts batches that arrived before
/// the last stored key and were merged at ingest, and
/// `store.consolidation_rows` the rows those merges rewrote;
/// `fleet.scan_filtered` counts merged honeypot events at or under the
/// scan filter's request threshold, and `fleet.capped` per-honeypot
/// events cut by the 24 h cap; `telescope.filtered_*` split the dropped
/// flows by the first threshold each failed; `botmon.orphan_stops`
/// counts C&C stop commands with no open attack, `botmon.restarted` the
/// attacks a re-issued start closed and `botmon.unterminated` those still
/// open at the end of the trace. A smoke run whose
/// batches all arrive in time order merges nothing, its renderer tops
/// marginal events up past the filter, and its command stream stops only
/// attacks it started, yet the instruments must export so dashboards can
/// tell "none" from "not instrumented".
const REQUIRED_MAYBE_ZERO: &[&str] = &[
    "store.consolidations",
    "store.consolidation_rows",
    "fleet.scan_filtered",
    "fleet.capped",
    "telescope.filtered_packets",
    "telescope.filtered_duration",
    "telescope.filtered_rate",
    "botmon.orphan_stops",
    "botmon.restarted",
    "botmon.unterminated",
];

/// Gauges a scenario run must have set nonzero: the store's victim
/// interner size, the bytes of the largest rendered day, and the
/// high-water marks of the live telescope flows and the open honeypot
/// events.
const REQUIRED_GAUGES: &[&str] = &[
    "store.victims",
    "render.day_bytes_peak",
    "telescope.peak_live_flows",
    "fleet.peak_open_events",
];

/// Stage spans a scenario run must have recorded.
const REQUIRED_SPANS: &[&str] = &[
    "stage.world",
    "stage.truth",
    "stage.migrate",
    "stage.dps",
    "stage.render",
    "stage.botmon",
    "stage.route",
    "stage.handoff",
    "stage.detect",
    "stage.fuse",
    "report.assemble",
    "webimpact.analyze",
    "migration.analyze",
    "correlate.joint",
    "report.render",
    "report.compare",
];

/// Pools every scenario run spins up (one worker each at `--threads 1`).
const REQUIRED_POOLS: &[&str] = &["telescope", "fleet"];

/// Conservation laws: the terms on the left sum to the terms on the
/// right (a term may repeat). A row with a term missing is skipped; the
/// presence checks report the term.
const BALANCES: &[(&[&str], &[&str])] = &[
    // Every expired flow either became an event or was dropped by a
    // detection threshold, and every dropped flow is counted under
    // exactly one threshold.
    (
        &["telescope.flows_expired"],
        &["telescope.events", "telescope.flows_filtered"],
    ),
    (
        &["telescope.filtered_packets", "telescope.filtered_duration", "telescope.filtered_rate"],
        &["telescope.flows_filtered"],
    ),
    // Every per-honeypot event was absorbed by the fleet merge or
    // started a merged event, which was emitted or scan-filtered.
    (
        &["fleet.pot_events"],
        &["fleet.events", "fleet.scan_filtered", "fleet.pot_merged"],
    ),
    // Every stored row is an event one of the two detectors emitted.
    (&["store.rows"], &["telescope.events", "fleet.events"]),
    // Every botnet event was closed by a stop or by the duration cap.
    // Every start opened one event, and every stop closed one or was an
    // orphan; events closed by a restart or left open at the end of the
    // trace had no stop.
    (&["botmon.events"], &["botmon.stopped", "botmon.capped"]),
    (
        &["botmon.commands", "botmon.restarted", "botmon.unterminated"],
        &["botmon.events", "botmon.events", "botmon.orphan_stops"],
    ),
    // Both engines take one dispatch per rendered day.
    (&["pool.telescope.dispatches"], &["pool.fleet.dispatches"]),
];

/// The sum of `terms` in `text` and the terms with their values, as
/// `a 1 + b 2`; `None` if a term is missing.
fn sum(text: &str, terms: &[&str]) -> Option<(u64, String)> {
    let mut total = 0;
    let mut shown = Vec::with_capacity(terms.len());
    for term in terms {
        let value = extract_num(text, term)?;
        total += value;
        shown.push(format!("{term} {value}"));
    }
    Some((total, shown.join(" + ")))
}

/// Extract the integer following `"name": ` anywhere in the text.
/// The emission format is line-oriented with unique metric names, so a
/// plain substring scan is exact.
fn extract_num(text: &str, name: &str) -> Option<u64> {
    let needle = format!("\"{name}\": ");
    let at = text.find(&needle)? + needle.len();
    let digits: String = text[at..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Validate an emitted `TELEMETRY.json` from a scenario run at any
/// `--threads`. Returns a human-readable summary on success and the full
/// list of violations on failure.
pub fn validate(text: &str) -> Result<String, String> {
    let mut problems: Vec<String> = Vec::new();

    if !text.contains(&format!("\"schema\": \"{}\"", dosscope_obs::telemetry::SCHEMA)) {
        problems.push(format!(
            "missing schema marker {:?}",
            dosscope_obs::telemetry::SCHEMA
        ));
    }

    for name in REQUIRED_COUNTERS {
        match extract_num(text, name) {
            Some(v) if v > 0 => {}
            Some(_) => problems.push(format!("counter {name} is zero")),
            None => problems.push(format!("counter {name} missing")),
        }
    }

    for (left, right) in BALANCES {
        if let (Some((l, l_terms)), Some((r, r_terms))) = (sum(text, left), sum(text, right)) {
            if l != r {
                problems.push(format!("{l_terms} != {r_terms}"));
            }
        }
    }

    for name in REQUIRED_MAYBE_ZERO {
        if extract_num(text, name).is_none() {
            problems.push(format!("instrument {name} missing"));
        }
    }
    for name in REQUIRED_GAUGES {
        match extract_num(text, name) {
            Some(v) if v > 0 => {}
            Some(_) => problems.push(format!("gauge {name} is zero")),
            None => problems.push(format!("gauge {name} missing")),
        }
    }

    for name in REQUIRED_SPANS {
        if !text.contains(&format!("\"name\": \"{name}\"")) {
            problems.push(format!("span {name} missing"));
        }
    }
    for prefix in ["stage", "report"] {
        if !text.contains(&format!("\"prefix\": \"{prefix}\"")) {
            problems.push(format!("rollup prefix {prefix} missing"));
        }
    }

    // Every worker receives every routed chunk: one per dispatch.
    let mut workers_seen = 0u64;
    for pool in REQUIRED_POOLS {
        let workers = extract_num(text, &format!("pool.{pool}.workers")).unwrap_or(0);
        if workers == 0 {
            problems.push(format!("pool.{pool}.workers missing or zero"));
            continue;
        }
        workers_seen += workers;
        let dispatches = extract_num(text, &format!("pool.{pool}.dispatches"));
        if dispatches.is_none() {
            problems.push(format!("pool.{pool}.dispatches missing"));
        }
        for w in 0..workers {
            match (
                extract_num(text, &format!("pool.{pool}.w{w}.batches")),
                dispatches,
            ) {
                (Some(b), Some(d)) if b != d => problems.push(format!(
                    "pool.{pool}.w{w}.batches {b} != pool.{pool}.dispatches {d}"
                )),
                (None, _) => problems.push(format!("pool.{pool}.w{w}.batches missing")),
                _ => {}
            }
            match extract_num(text, &format!("pool.{pool}.w{w}.busy_us")) {
                Some(v) if v > 0 => {}
                _ => problems.push(format!("pool.{pool}.w{w}.busy_us missing or zero")),
            }
            match extract_num(text, &format!("pool.{pool}.w{w}.queue_hwm")) {
                Some(v) if v > 0 => {}
                _ => problems.push(format!("pool.{pool}.w{w}.queue_hwm missing or zero")),
            }
        }
    }

    if problems.is_empty() {
        Ok(format!(
            "telemetry valid: {} counters, {} gauges, {} spans, {} pools, {} workers utilized",
            REQUIRED_COUNTERS.len(),
            REQUIRED_GAUGES.len(),
            REQUIRED_SPANS.len(),
            REQUIRED_POOLS.len(),
            workers_seen
        ))
    } else {
        Err(problems.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal document passing every check, shaped like the real
    /// emission.
    fn valid_doc() -> String {
        let mut s = String::from("{\n  \"schema\": \"dosscope-telemetry-v1\",\n");
        for c in REQUIRED_COUNTERS {
            // Expired flows = events + filtered flows; per-honeypot
            // events = events + merged ones; stored rows = telescope +
            // fleet events; botnet events = stopped + capped; commands =
            // 2 x events - restarted - unterminated + orphan stops.
            let v = match *c {
                "telescope.flows_expired" | "fleet.pot_events" | "store.rows" | "botmon.events" => {
                    20
                }
                "botmon.commands" => 30,
                _ => 10,
            };
            s.push_str(&format!("    \"{c}\": {v},\n"));
        }
        for c in REQUIRED_MAYBE_ZERO {
            // The filtered flows split 4 + 3 + 3; 10 botnet events ended
            // without a stop of their own.
            let v = match *c {
                "telescope.filtered_packets" => 4,
                "telescope.filtered_duration" | "telescope.filtered_rate" => 3,
                "botmon.restarted" => 6,
                "botmon.unterminated" => 4,
                _ => 0,
            };
            s.push_str(&format!("    \"{c}\": {v},\n"));
        }
        for g in REQUIRED_GAUGES {
            s.push_str(&format!("    \"{g}\": 42,\n"));
        }
        for pool in REQUIRED_POOLS {
            s.push_str(&format!("    \"pool.{pool}.workers\": 2,\n"));
            s.push_str(&format!("    \"pool.{pool}.dispatches\": 7,\n"));
            for w in 0..2 {
                s.push_str(&format!("    \"pool.{pool}.w{w}.batches\": 7,\n"));
                s.push_str(&format!("    \"pool.{pool}.w{w}.busy_us\": 5,\n"));
                s.push_str(&format!("    \"pool.{pool}.w{w}.queue_hwm\": 1,\n"));
            }
        }
        for sp in REQUIRED_SPANS {
            s.push_str(&format!("    {{\"name\": \"{sp}\", \"count\": 1}},\n"));
        }
        s.push_str("    {\"prefix\": \"stage\", \"count\": 5},\n");
        s.push_str("    {\"prefix\": \"report\", \"count\": 2}\n}\n");
        s
    }

    #[test]
    fn accepts_a_complete_document() {
        let summary = validate(&valid_doc()).expect("valid");
        assert!(summary.contains("telemetry valid"));
    }

    #[test]
    fn rejects_missing_schema() {
        let doc = valid_doc().replace("dosscope-telemetry-v1", "nope");
        assert!(validate(&doc).unwrap_err().contains("schema"));
    }

    #[test]
    fn rejects_zero_counters_and_missing_spans() {
        let doc = valid_doc()
            .replace("\"telescope.events\": 10", "\"telescope.events\": 0")
            .replace("{\"name\": \"stage.route\", \"count\": 1},\n", "");
        let err = validate(&doc).unwrap_err();
        assert!(err.contains("telescope.events is zero"), "{err}");
        assert!(err.contains("span stage.route missing"), "{err}");
    }

    #[test]
    fn rejects_a_flow_funnel_that_does_not_add_up() {
        let doc = valid_doc().replace(
            "\"telescope.flows_filtered\": 10",
            "\"telescope.flows_filtered\": 9",
        );
        let err = validate(&doc).unwrap_err();
        assert!(
            err.contains("telescope.flows_expired 20 != telescope.events 10"),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_telescope_filter_split_that_does_not_add_up() {
        let doc = valid_doc().replace(
            "\"telescope.filtered_rate\": 3",
            "\"telescope.filtered_rate\": 2",
        );
        let err = validate(&doc).unwrap_err();
        assert!(
            err.contains(
                "telescope.filtered_packets 4 + telescope.filtered_duration 3 \
                 + telescope.filtered_rate 2 != telescope.flows_filtered 10"
            ),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_fleet_funnel_that_adds_events() {
        let doc = valid_doc().replace("\"fleet.pot_events\": 20", "\"fleet.pot_events\": 19");
        let err = validate(&doc).unwrap_err();
        assert!(
            err.contains(
                "fleet.pot_events 19 != fleet.events 10 + fleet.scan_filtered 0 \
                 + fleet.pot_merged 10"
            ),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_botnet_event_neither_stopped_nor_capped() {
        let doc = valid_doc().replace("\"botmon.capped\": 10", "\"botmon.capped\": 9");
        let err = validate(&doc).unwrap_err();
        assert!(
            err.contains("botmon.events 20 != botmon.stopped 10 + botmon.capped 9"),
            "{err}"
        );
    }

    #[test]
    fn rejects_more_botnet_outcomes_than_commands() {
        let doc = valid_doc().replace("\"botmon.orphan_stops\": 0", "\"botmon.orphan_stops\": 11");
        let err = validate(&doc).unwrap_err();
        assert!(
            err.contains(
                "botmon.commands 30 + botmon.restarted 6 + botmon.unterminated 4 \
                 != botmon.events 20 + botmon.events 20 + botmon.orphan_stops 11"
            ),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_restart_the_commands_do_not_explain() {
        let doc = valid_doc().replace("\"botmon.restarted\": 6", "\"botmon.restarted\": 5");
        let err = validate(&doc).unwrap_err();
        assert!(
            err.contains("botmon.commands 30 + botmon.restarted 5 + botmon.unterminated 4 !="),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_store_that_lost_rows() {
        let doc = valid_doc().replace("\"store.rows\": 20", "\"store.rows\": 19");
        let err = validate(&doc).unwrap_err();
        assert!(
            err.contains("store.rows 19 != telescope.events 10 + fleet.events 10"),
            "{err}"
        );
    }

    /// Every term of every balance, raised by one in turn, breaks its
    /// row, and the problem line shows each of the row's terms with its
    /// value.
    #[test]
    fn every_balance_term_is_checked() {
        let valid = valid_doc();
        for (left, right) in BALANCES {
            let terms: Vec<&str> = left.iter().chain(right.iter()).copied().collect();
            for &term in &terms {
                let value = extract_num(&valid, term).expect("valid_doc has every term");
                let doc = valid.replace(
                    &format!("\"{term}\": {value},"),
                    &format!("\"{term}\": {},", value + 1),
                );
                assert_ne!(doc, valid, "{term} raised");
                let err = validate(&doc).expect_err(term);
                let shows_row = |line: &&str| {
                    line.contains(" != ")
                        && terms.iter().all(|t| {
                            let v = extract_num(&doc, t).expect("present");
                            line.contains(&format!("{t} {v}"))
                        })
                };
                assert!(err.lines().any(|l| shows_row(&l)), "{term} +1: {err}");
            }
        }
    }

    #[test]
    fn rejects_a_missing_botmon_stage() {
        let doc = valid_doc().replace("{\"name\": \"stage.botmon\", \"count\": 1},\n", "");
        let err = validate(&doc).unwrap_err();
        assert!(err.contains("span stage.botmon missing"), "{err}");
    }

    #[test]
    fn rejects_zero_fleet_replies() {
        let doc = valid_doc().replace("\"fleet.replies\": 10", "\"fleet.replies\": 0");
        let err = validate(&doc).unwrap_err();
        assert!(err.contains("counter fleet.replies is zero"), "{err}");
    }

    #[test]
    fn rejects_a_zero_live_flow_peak() {
        let doc = valid_doc().replace(
            "\"telescope.peak_live_flows\": 42",
            "\"telescope.peak_live_flows\": 0",
        );
        let err = validate(&doc).unwrap_err();
        assert!(err.contains("gauge telescope.peak_live_flows is zero"), "{err}");
    }

    #[test]
    fn rejects_a_missing_open_event_peak() {
        let doc = valid_doc().replace("    \"fleet.peak_open_events\": 42,\n", "");
        let err = validate(&doc).unwrap_err();
        assert!(err.contains("gauge fleet.peak_open_events missing"), "{err}");
    }

    #[test]
    fn rejects_a_worker_that_missed_a_chunk() {
        let doc = valid_doc().replace(
            "\"pool.fleet.w1.batches\": 7",
            "\"pool.fleet.w1.batches\": 6",
        );
        let err = validate(&doc).unwrap_err();
        assert!(
            err.contains("pool.fleet.w1.batches 6 != pool.fleet.dispatches 7"),
            "{err}"
        );
    }

    #[test]
    fn rejects_engines_with_different_dispatch_counts() {
        let doc = valid_doc().replace(
            "\"pool.telescope.dispatches\": 7",
            "\"pool.telescope.dispatches\": 8",
        );
        let err = validate(&doc).unwrap_err();
        assert!(
            err.contains("pool.telescope.dispatches 8 != pool.fleet.dispatches 7"),
            "{err}"
        );
    }

    #[test]
    fn rejects_missing_store_instruments() {
        let doc = valid_doc()
            .replace("    \"store.consolidations\": 0,\n", "")
            .replace("\"store.victims\": 42", "\"store.victims\": 0");
        let err = validate(&doc).unwrap_err();
        assert!(err.contains("store.consolidations missing"), "{err}");
        assert!(err.contains("store.victims is zero"), "{err}");
    }

    #[test]
    fn rejects_idle_workers() {
        let doc = valid_doc().replace(
            "\"pool.telescope.w1.busy_us\": 5",
            "\"pool.telescope.w1.busy_us\": 0",
        );
        let err = validate(&doc).unwrap_err();
        assert!(err.contains("pool.telescope.w1.busy_us"), "{err}");
    }
}
