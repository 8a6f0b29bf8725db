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

    // Every expired flow either became an event or was dropped by a
    // detection threshold, and every dropped flow is counted under
    // exactly one threshold.
    if let (Some(expired), Some(events), Some(filtered)) = (
        extract_num(text, "telescope.flows_expired"),
        extract_num(text, "telescope.events"),
        extract_num(text, "telescope.flows_filtered"),
    ) {
        if expired != events + filtered {
            problems.push(format!(
                "telescope.flows_expired {expired} != telescope.events {events} \
                 + telescope.flows_filtered {filtered}"
            ));
        }
    }
    if let (Some(filtered), Some(packets), Some(duration), Some(rate)) = (
        extract_num(text, "telescope.flows_filtered"),
        extract_num(text, "telescope.filtered_packets"),
        extract_num(text, "telescope.filtered_duration"),
        extract_num(text, "telescope.filtered_rate"),
    ) {
        if packets + duration + rate != filtered {
            problems.push(format!(
                "telescope.filtered_packets {packets} + telescope.filtered_duration {duration} \
                 + telescope.filtered_rate {rate} != telescope.flows_filtered {filtered}"
            ));
        }
    }

    // Every per-honeypot event was absorbed by the fleet merge or
    // started a merged event, which was emitted or scan-filtered.
    if let (Some(pot_events), Some(events), Some(filtered), Some(merged)) = (
        extract_num(text, "fleet.pot_events"),
        extract_num(text, "fleet.events"),
        extract_num(text, "fleet.scan_filtered"),
        extract_num(text, "fleet.pot_merged"),
    ) {
        if events + filtered + merged != pot_events {
            problems.push(format!(
                "fleet.pot_events {pot_events} != fleet.events {events} + \
                 fleet.scan_filtered {filtered} + fleet.pot_merged {merged}"
            ));
        }
    }

    // Every stored row is an event one of the two detectors emitted.
    if let (Some(rows), Some(tele), Some(fleet)) = (
        extract_num(text, "store.rows"),
        extract_num(text, "telescope.events"),
        extract_num(text, "fleet.events"),
    ) {
        if rows != tele + fleet {
            problems.push(format!(
                "store.rows {rows} != telescope.events {tele} + fleet.events {fleet}"
            ));
        }
    }

    // Every botnet event was closed by a stop or by the duration cap.
    // Every start opened one event, and every stop closed one or was an
    // orphan; events closed by a restart or left open at the end of the
    // trace had no stop.
    if let (Some(commands), Some(events), Some(stopped), Some(capped)) = (
        extract_num(text, "botmon.commands"),
        extract_num(text, "botmon.events"),
        extract_num(text, "botmon.stopped"),
        extract_num(text, "botmon.capped"),
    ) {
        if events != stopped + capped {
            problems.push(format!(
                "botmon.events {events} != botmon.stopped {stopped} + botmon.capped {capped}"
            ));
        }
        if let (Some(restarted), Some(unterminated), Some(orphans)) = (
            extract_num(text, "botmon.restarted"),
            extract_num(text, "botmon.unterminated"),
            extract_num(text, "botmon.orphan_stops"),
        ) {
            if commands + restarted + unterminated != 2 * events + orphans {
                problems.push(format!(
                    "botmon.commands {commands} != 2 x botmon.events {events} \
                     - botmon.restarted {restarted} - botmon.unterminated {unterminated} \
                     + botmon.orphan_stops {orphans}"
                ));
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

    // Both engines take one dispatch per rendered day.
    if let (Some(tele), Some(fleet)) = (
        extract_num(text, "pool.telescope.dispatches"),
        extract_num(text, "pool.fleet.dispatches"),
    ) {
        if tele != fleet {
            problems.push(format!(
                "pool.telescope.dispatches {tele} != pool.fleet.dispatches {fleet}"
            ));
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
                "botmon.commands 30 != 2 x botmon.events 20 - botmon.restarted 6 \
                 - botmon.unterminated 4 + botmon.orphan_stops 11"
            ),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_restart_the_commands_do_not_explain() {
        let doc = valid_doc().replace("\"botmon.restarted\": 6", "\"botmon.restarted\": 5");
        let err = validate(&doc).unwrap_err();
        assert!(
            err.contains("botmon.commands 30 != 2 x botmon.events 20 - botmon.restarted 5"),
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
