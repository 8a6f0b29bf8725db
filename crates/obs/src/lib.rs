//! # dosscope-obs
//!
//! A zero-dependency (std-only) telemetry layer for the `dosscope`
//! workspace: a metrics registry (counters and gauges), a scoped-span
//! tracing layer with hierarchical rollup, a tiny leveled logger, and a [`Telemetry`] snapshot rendered either as
//! versioned JSON (`TELEMETRY.json`) or as an ASCII dashboard.
//!
//! ## Design constraints
//!
//! * **Cheap when off.** Telemetry is disabled by default; every
//!   instrumentation point is gated on a single relaxed atomic load
//!   ([`enabled`]) and performs no allocation and no clock read while
//!   disabled. The hot-path perf wins of earlier PRs are preserved.
//! * **Deterministic snapshots.** Counter values depend only on the
//!   instrumented work performed, never on thread interleaving, so for a
//!   fixed seed they are byte-identical across thread counts. Snapshots
//!   are emitted in sorted name order.
//! * **No dependencies.** This crate sits *below* `dosscope-types` so
//!   every other crate can be instrumented without pulling anything in.
//!
//! ## Metric naming scheme
//!
//! Dot-separated, lowercase, coarse-to-fine: `<subsystem>.<noun>` for
//! engine counters (`telescope.events`, `fleet.requests`,
//! `store.rows`), `pool.<name>.{workers,dispatches}` and
//! `pool.<name>.w<k>.{busy_us,idle_us,batches,queue_hwm}` for the
//! worker-pool gauges, and `stage.<stage>` / `report.<step>` /
//! `<analysis>.<step>` for spans. Span names form a hierarchy on `.`
//! boundaries used by the snapshot rollup.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod log;
pub mod registry;
pub mod span;
pub mod telemetry;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

pub use registry::{counter, gauge, Counter, Gauge};
pub use telemetry::Telemetry;

/// Global on/off switch. All instrumentation points check this first.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is telemetry collection currently enabled?
///
/// This is the only cost instrumentation pays when telemetry is off: a
/// single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn telemetry collection on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Zero every metric value and drop all recorded span statistics.
///
/// Registered metric handles stay valid (they are shared `Arc`s); only
/// their values reset. Intended for tests and for multi-run binaries
/// (e.g. the bench) that want per-run snapshots.
pub fn reset() {
    registry::reset();
    span::reset();
}

/// Test support: serialized, scoped enablement of the global telemetry
/// state so concurrently running tests cannot pollute each other.
pub mod testing {
    use super::*;

    static TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Guard returned by [`scoped_enable`]; restores the previous
    /// enabled state and clears all metrics on drop.
    pub struct ScopedTelemetry {
        _lock: MutexGuard<'static, ()>,
        prior: bool,
    }

    impl Drop for ScopedTelemetry {
        fn drop(&mut self) {
            set_enabled(self.prior);
            reset();
        }
    }

    /// Take the global telemetry test lock, enable collection and reset
    /// all metrics. Every test that enables telemetry (or asserts on
    /// global metric values) must go through this so such tests are
    /// serialized within a test binary.
    pub fn scoped_enable() -> ScopedTelemetry {
        scoped(true)
    }

    /// [`scoped_enable`]'s counterpart for tests that rely on collection
    /// being off: it holds the same lock, so no enabling test can switch
    /// collection on while the caller runs.
    pub fn scoped_disable() -> ScopedTelemetry {
        scoped(false)
    }

    fn scoped(on: bool) -> ScopedTelemetry {
        let lock = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let prior = enabled();
        set_enabled(on);
        reset();
        ScopedTelemetry { _lock: lock, prior }
    }
}
