//! The [`Telemetry`] snapshot: a deterministic, sorted capture of every
//! registered metric and span, rendered either as versioned JSON (the
//! `TELEMETRY.json` artifact) or as an ASCII dashboard appended to the
//! harness report.

use crate::registry;
use crate::span::{self, RollupSnapshot, SpanSnapshot};

/// Version marker written into every JSON emission. Consumers (the CI
/// validator, future tooling) key on this string.
pub const SCHEMA: &str = "dosscope-telemetry-v1";

/// A point-in-time capture of the whole telemetry state.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Sorted `(name, value)` counters: every registered one, zero
    /// readings included.
    pub counters: Vec<(String, u64)>,
    /// Sorted `(name, value)` gauges: every registered one, zero
    /// readings included.
    pub gauges: Vec<(String, u64)>,
    /// Merged per-span statistics, sorted by name.
    pub spans: Vec<SpanSnapshot>,
    /// Hierarchical rollup of span self time by dot-prefix.
    pub rollups: Vec<RollupSnapshot>,
}

impl Telemetry {
    /// Capture the current global telemetry state.
    pub fn capture() -> Telemetry {
        let spans = span::snapshot();
        let rollups = span::rollup(&spans);
        Telemetry {
            counters: registry::counters_snapshot(),
            gauges: registry::gauges_snapshot(),
            spans,
            rollups,
        }
    }

    /// Render as versioned JSON (`TELEMETRY.json`). One entry per line
    /// so line-oriented consumers can grep it; key order is
    /// deterministic (sorted names, fixed sections).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json_str(SCHEMA)));

        out.push_str("  \"counters\": {\n");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = trail(i, self.counters.len());
            out.push_str(&format!("    {}: {v}{sep}\n", json_str(name)));
        }
        out.push_str("  },\n");

        out.push_str("  \"gauges\": {\n");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = trail(i, self.gauges.len());
            out.push_str(&format!("    {}: {v}{sep}\n", json_str(name)));
        }
        out.push_str("  },\n");

        out.push_str("  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = trail(i, self.spans.len());
            out.push_str(&format!(
                "    {{\"name\": {}, \"count\": {}, \"total_us\": {}, \"self_us\": {}, \"max_depth\": {}}}{sep}\n",
                json_str(&s.name),
                s.count,
                s.total_ns / 1_000,
                s.self_ns / 1_000,
                s.max_depth
            ));
        }
        out.push_str("  ],\n");

        out.push_str("  \"rollups\": [\n");
        for (i, r) in self.rollups.iter().enumerate() {
            let sep = trail(i, self.rollups.len());
            out.push_str(&format!(
                "    {{\"prefix\": {}, \"count\": {}, \"self_us\": {}, \"spans\": {}}}{sep}\n",
                json_str(&r.prefix),
                r.count,
                r.self_ns / 1_000,
                r.spans
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Render the ASCII dashboard appended to harness reports.
    pub fn render_ascii(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("== telemetry ");
        out.push_str(&"=".repeat(59));
        out.push('\n');

        if !self.spans.is_empty() {
            out.push_str(&format!(
                "\n{:<40} {:>8} {:>10} {:>10} {:>5}\n",
                "span", "count", "total", "self", "depth"
            ));
            for s in &self.spans {
                out.push_str(&format!(
                    "  {:<38} {:>8} {:>10} {:>10} {:>5}\n",
                    s.name,
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(s.self_ns),
                    s.max_depth
                ));
            }
            out.push_str(&format!("{:<40} {:>8} {:>10}\n", "rollup", "count", "self"));
            for r in &self.rollups {
                out.push_str(&format!(
                    "  {:<38} {:>8} {:>10}  ({} spans)\n",
                    r.prefix,
                    r.count,
                    fmt_ns(r.self_ns),
                    r.spans
                ));
            }
        }

        if !self.counters.is_empty() {
            out.push_str("\ncounters\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {:<46} {:>14}\n", name, v));
            }
        }

        let pools = self.pool_rows();
        if !pools.is_empty() {
            out.push_str("\npools\n");
            for row in pools {
                out.push_str(&row);
                out.push('\n');
            }
        }

        out.push_str(&"=".repeat(72));
        out.push('\n');
        out
    }

    /// Group `pool.<name>.…` gauges into per-pool, per-worker dashboard
    /// lines.
    fn pool_rows(&self) -> Vec<String> {
        use std::collections::BTreeMap;
        // pool name -> (pool-level fields, worker -> fields)
        type Fields = BTreeMap<String, u64>;
        let mut pools: BTreeMap<String, (Fields, BTreeMap<u32, Fields>)> = BTreeMap::new();
        for (name, v) in &self.gauges {
            let Some(rest) = name.strip_prefix("pool.") else {
                continue;
            };
            let Some((pool, field)) = rest.split_once('.') else {
                continue;
            };
            let entry = pools.entry(pool.to_string()).or_default();
            if let Some((w, wfield)) = field.split_once('.') {
                if let Some(idx) = w.strip_prefix('w').and_then(|s| s.parse::<u32>().ok()) {
                    entry.1.entry(idx).or_default().insert(wfield.to_string(), *v);
                    continue;
                }
            }
            entry.0.insert(field.to_string(), *v);
        }
        let mut rows = Vec::new();
        for (pool, (top, workers)) in pools {
            let get = |f: &Fields, k: &str| f.get(k).copied().unwrap_or(0);
            rows.push(format!(
                "  {} ({} workers)  dispatches {}",
                pool,
                get(&top, "workers"),
                get(&top, "dispatches"),
            ));
            for (idx, f) in workers {
                rows.push(format!(
                    "    w{idx}  busy {:>9}  idle {:>9}  batches {:>6}  queue-hwm {}",
                    fmt_ns(get(&f, "busy_us") * 1_000),
                    fmt_ns(get(&f, "idle_us") * 1_000),
                    get(&f, "batches"),
                    get(&f, "queue_hwm"),
                ));
            }
        }
        rows
    }
}

fn trail(i: usize, len: usize) -> &'static str {
    if i + 1 == len {
        ""
    } else {
        ","
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_contains_schema_and_sections() {
        let _t = crate::testing::scoped_enable();
        crate::registry::counter("test.tel.counter").add(5);
        crate::registry::gauge("test.tel.gauge").set(9);
        {
            let _s = crate::span!("test.tel.span");
        }
        let t = Telemetry::capture();
        let json = t.to_json();
        assert!(json.contains("\"schema\": \"dosscope-telemetry-v1\""));
        assert!(json.contains("\"test.tel.counter\": 5"));
        assert!(json.contains("\"test.tel.gauge\": 9"));
        assert!(json.contains("\"name\": \"test.tel.span\""));
        assert!(json.contains("\"prefix\": \"test\""));
    }

    #[test]
    fn ascii_dashboard_groups_pool_gauges() {
        let _t = crate::testing::scoped_enable();
        crate::registry::gauge("pool.demo.workers").set(2);
        crate::registry::gauge("pool.demo.dispatches").set(10);
        crate::registry::gauge("pool.demo.w0.busy_us").set(1_500);
        crate::registry::gauge("pool.demo.w1.batches").set(7);
        let t = Telemetry::capture();
        let dash = t.render_ascii();
        assert!(dash.contains("demo (2 workers)  dispatches 10"));
        assert!(dash.contains("w0"));
        assert!(dash.contains("w1"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
