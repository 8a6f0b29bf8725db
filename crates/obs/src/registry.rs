//! The metrics registry: named counters and gauges with cheap
//! concurrent updates and deterministic sorted snapshots.
//!
//! Handles ([`Counter`], [`Gauge`]) are shared `Arc`s: registration
//! takes a lock once per name, after which updates touch only one
//! atomic. The [`crate::counter!`] / [`crate::gauge!`] macros cache a
//! handle in a per-call-site `OnceLock` so call sites never re-enter the
//! registry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A monotonically increasing counter.
///
/// Increments are dropped while telemetry is disabled, so a counter's
/// value reflects exactly the instrumented work performed while
/// collection was on.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter (no-op while telemetry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one (no-op while telemetry is disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.value())
    }
}

/// A last-value / high-water-mark gauge.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge to `v` (no-op while telemetry is disabled).
    #[inline]
    pub fn set(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if it is below it (no-op while disabled).
    #[inline]
    pub fn raise(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.value())
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Get or register the counter named `name`.
pub fn counter(name: &str) -> Counter {
    lock(&registry().counters)
        .entry(name.to_string())
        .or_default()
        .clone()
}

/// Get or register the gauge named `name`.
pub fn gauge(name: &str) -> Gauge {
    lock(&registry().gauges)
        .entry(name.to_string())
        .or_default()
        .clone()
}

/// Zero every registered metric, keeping all handles valid.
pub(crate) fn reset() {
    for c in lock(&registry().counters).values() {
        c.reset();
    }
    for g in lock(&registry().gauges).values() {
        g.reset();
    }
}

/// Sorted `(name, value)` snapshot of every registered counter.
/// Registration is authoritative: a zero reading is exported too, so a
/// consumer can tell "instrumented, nothing happened" (a counter that
/// reads 0) from "not instrumented at all" (the name is absent).
pub fn counters_snapshot() -> Vec<(String, u64)> {
    lock(&registry().counters)
        .iter()
        .map(|(k, v)| (k.clone(), v.value()))
        .collect()
}

/// Sorted `(name, value)` snapshot of every registered gauge (zero
/// readings included, same contract as [`counters_snapshot`]).
pub fn gauges_snapshot() -> Vec<(String, u64)> {
    lock(&registry().gauges)
        .iter()
        .map(|(k, v)| (k.clone(), v.value()))
        .collect()
}

/// A static [`Counter`] handle: registers on first use, then the cached
/// handle is a single `OnceLock` load per call.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::registry::Counter> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry::counter($name))
    }};
}

/// A static [`Gauge`] handle (see [`crate::counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::registry::Gauge> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry::gauge($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gated_on_enabled_and_striped() {
        let _t = crate::testing::scoped_enable();
        let c = counter("test.registry.counter");
        c.add(3);
        c.inc();
        assert_eq!(c.value(), 4);
        crate::set_enabled(false);
        c.add(100);
        assert_eq!(c.value(), 4, "disabled increments are dropped");
        crate::set_enabled(true);

        // Concurrent increments always sum exactly.
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.value(), 4 + 4000);
    }

    #[test]
    fn gauge_set_and_raise() {
        let _t = crate::testing::scoped_enable();
        let g = gauge("test.registry.gauge");
        g.set(7);
        g.raise(3);
        assert_eq!(g.value(), 7);
        g.raise(12);
        assert_eq!(g.value(), 12);
    }

    #[test]
    fn snapshots_are_sorted_and_keep_registered_zeros() {
        let _t = crate::testing::scoped_enable();
        counter("test.snap.b").inc();
        counter("test.snap.a").inc();
        counter("test.snap.zero");
        let snap = counters_snapshot();
        let entries: Vec<(&str, u64)> = snap
            .iter()
            .filter(|(k, _)| k.starts_with("test.snap."))
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        assert_eq!(
            entries,
            vec![("test.snap.a", 1), ("test.snap.b", 1), ("test.snap.zero", 0)]
        );
    }
}
