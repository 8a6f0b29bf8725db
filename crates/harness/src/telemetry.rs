//! Validation of emitted `TELEMETRY.json` artifacts against the
//! harness's expectations: the versioned schema marker, every pipeline
//! stage span, and per-worker pool utilization. The CI gate runs
//! `repro --smoke --telemetry` at `--threads 1` and `--threads 8` and
//! then `repro --validate-telemetry TELEMETRY.json` on each output.

/// Counters a full scenario run must have incremented.
const REQUIRED_COUNTERS: &[&str] = &[
    "telescope.batches",
    "telescope.backscatter_packets",
    "telescope.flows_expired",
    "telescope.events",
    "fleet.requests",
    "fleet.events",
    "store.rows",
    "migrate.cohost_counts",
    "migrate.placements_walked",
    "render.telescope_batches",
    "render.honeypot_batches",
    "render.telescope_bytes",
];

/// Store late-batch instruments that must be *present* (registered) but
/// may legitimately read zero: `store.consolidations` counts batches that
/// arrived before the last stored key and were merged at ingest, and
/// `store.consolidation_rows` the rows those merges rewrote. A smoke run
/// whose batches all arrive in time order merges nothing, yet the
/// instruments must export so dashboards can tell "no late batch" from
/// "not instrumented". `store.victims` is the interner-size gauge and
/// must be nonzero on any run that ingested events.
const REQUIRED_STORE_INSTRUMENTS: &[&str] = &["store.consolidations", "store.consolidation_rows"];

/// Stage spans a scenario run must have recorded.
const REQUIRED_SPANS: &[&str] = &[
    "stage.world",
    "stage.truth",
    "stage.migrate",
    "stage.render",
    "stage.route",
    "stage.handoff",
    "stage.detect",
    "stage.fuse",
    "report.assemble",
    "report.render",
];

/// Pools every scenario run spins up (one inline worker at `--threads 1`).
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

    for name in REQUIRED_STORE_INSTRUMENTS {
        if extract_num(text, name).is_none() {
            problems.push(format!("store instrument {name} missing"));
        }
    }
    match extract_num(text, "store.victims") {
        Some(v) if v > 0 => {}
        Some(_) => problems.push("gauge store.victims is zero".into()),
        None => problems.push("gauge store.victims missing".into()),
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

    let mut workers_seen = 0u64;
    for pool in REQUIRED_POOLS {
        let workers = extract_num(text, &format!("pool.{pool}.workers")).unwrap_or(0);
        if workers == 0 {
            problems.push(format!("pool.{pool}.workers missing or zero"));
            continue;
        }
        workers_seen += workers;
        for w in 0..workers {
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
            "telemetry valid: {} counters, {} spans, {} pools, {} workers utilized",
            REQUIRED_COUNTERS.len(),
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
            s.push_str(&format!("    \"{c}\": 10,\n"));
        }
        for c in REQUIRED_STORE_INSTRUMENTS {
            s.push_str(&format!("    \"{c}\": 0,\n"));
        }
        s.push_str("    \"store.victims\": 42,\n");
        for pool in REQUIRED_POOLS {
            s.push_str(&format!("    \"pool.{pool}.workers\": 2,\n"));
            for w in 0..2 {
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
