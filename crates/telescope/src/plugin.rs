//! A Corsaro-like processing architecture: time-ordered capture batches are
//! fed to a plugin, with interval-end callbacks at fixed boundaries
//! (Corsaro's interval model), which is where the RSDoS plugin expires idle
//! flows.
//!
//! The paper implements its detector as a plugin of CAIDA's Corsaro darknet
//! processing framework; this module mirrors that structure so the detector
//! code stays a faithful "plugin" rather than a bespoke loop.

use crate::detector::{DetectorStats, RsdosDetector};
use crate::packet::PacketBatch;
use dosscope_types::{AttackEvent, SimTime};

/// The interval length every driver uses: Corsaro's customary 60 s.
pub const INTERVAL_SECS: u64 = 60;

/// A processing plugin, fed time-ordered batches by an [`IntervalClock`].
pub trait TelescopePlugin {
    /// Human-readable plugin name (for reports/diagnostics).
    fn name(&self) -> &'static str;

    /// Process one capture batch. Batches arrive in non-decreasing time
    /// order.
    fn process_batch(&mut self, batch: &PacketBatch);

    /// Called when an interval boundary passes; `now` is the start of the
    /// new interval.
    fn interval_end(&mut self, now: SimTime);

    /// Called once at end of trace.
    fn finish(&mut self);
}

/// Corsaro's interval model: feeds batches to a plugin and fires
/// `interval_end` whenever a batch opens a later [`INTERVAL_SECS`]
/// interval than the one before it.
#[derive(Debug, Default)]
pub struct IntervalClock {
    current: Option<u64>,
}

impl IntervalClock {
    /// Feed one batch (batches must arrive in non-decreasing time order).
    pub fn feed<P: TelescopePlugin>(&mut self, plugin: &mut P, batch: &PacketBatch) {
        let interval = batch.ts.secs() / INTERVAL_SECS;
        match self.current {
            Some(cur) if interval > cur => {
                plugin.interval_end(SimTime(interval * INTERVAL_SECS));
                self.current = Some(interval);
            }
            None => self.current = Some(interval),
            _ => {}
        }
        plugin.process_batch(batch);
    }
}

/// The RSDoS detector wrapped as a plugin (the shape the paper describes:
/// "we implemented the detection and classification methodology described
/// by Moore et al. as a Corsaro plugin").
pub struct RsdosPlugin {
    detector: Option<RsdosDetector>,
    results: Option<(Vec<AttackEvent>, DetectorStats)>,
}

impl RsdosPlugin {
    /// Wrap a detector.
    pub fn new(detector: RsdosDetector) -> RsdosPlugin {
        RsdosPlugin {
            detector: Some(detector),
            results: None,
        }
    }

    /// Extract the detection results after the driver has finished.
    pub fn into_results(self) -> (Vec<AttackEvent>, DetectorStats) {
        self.results
            .expect("into_results called before the driver finished")
    }

    /// Number of currently live flows in the wrapped detector (0 after
    /// `finish`); the working-set sample the sharded pipeline and the
    /// bench record.
    pub fn live_flows(&self) -> usize {
        self.detector.as_ref().map_or(0, RsdosDetector::live_flows)
    }
}

impl TelescopePlugin for RsdosPlugin {
    fn name(&self) -> &'static str {
        "rsdos"
    }

    fn process_batch(&mut self, batch: &PacketBatch) {
        if let Some(d) = self.detector.as_mut() {
            d.ingest(batch);
        }
    }

    fn interval_end(&mut self, now: SimTime) {
        if let Some(d) = self.detector.as_mut() {
            d.advance(now);
        }
    }

    fn finish(&mut self) {
        if let Some(d) = self.detector.take() {
            self.results = Some(d.finish());
        }
    }
}

/// Convenience: run a full batch stream through an RSDoS plugin on one
/// [`IntervalClock`] and return the detected events plus stats.
pub fn run_rsdos(
    detector: RsdosDetector,
    batches: impl IntoIterator<Item = PacketBatch>,
) -> (Vec<AttackEvent>, DetectorStats) {
    let mut plugin = RsdosPlugin::new(detector);
    let mut clock = IntervalClock::default();
    for batch in batches {
        clock.feed(&mut plugin, &batch);
    }
    plugin.finish();
    plugin.into_results()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telescope;
    use dosscope_wire::builder;
    use std::net::Ipv4Addr;

    fn victim() -> Ipv4Addr {
        "203.0.113.1".parse().unwrap()
    }

    fn flood_batches(start: u64, secs: u64, pps: u32) -> Vec<PacketBatch> {
        (0..secs)
            .map(|s| {
                let pkt = builder::tcp_syn_ack(
                    victim(),
                    80,
                    Ipv4Addr::new(44, 0, 0, (s % 200) as u8),
                    40000,
                    s as u32,
                );
                PacketBatch::repeated(SimTime(start + s), pps, pkt)
            })
            .collect()
    }

    /// Records every interval boundary and batch it is fed.
    #[derive(Default)]
    struct Recorder {
        boundaries: Vec<u64>,
        batches: usize,
    }

    impl TelescopePlugin for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }

        fn process_batch(&mut self, _batch: &PacketBatch) {
            self.batches += 1;
        }

        fn interval_end(&mut self, now: SimTime) {
            self.boundaries.push(now.secs());
        }

        fn finish(&mut self) {}
    }

    #[test]
    fn driver_fires_interval_ends() {
        let mut clock = IntervalClock::default();
        let mut plugin = Recorder::default();
        // Three minutes from t=30, then a jump over four idle intervals.
        let mut batches = flood_batches(30, 180, 1);
        batches.extend(flood_batches(600, 1, 1));
        for b in &batches {
            clock.feed(&mut plugin, b);
        }
        assert_eq!(plugin.batches, 181);
        // The first batch opens an interval without ending one; a gap
        // fires one boundary, at the start of the interval it lands in.
        assert_eq!(plugin.boundaries, vec![60, 120, 180, 600]);
    }

    #[test]
    fn rsdos_plugin_end_to_end() {
        let detector = RsdosDetector::with_defaults(Telescope::default_slash8());
        let mut plugin = RsdosPlugin::new(detector);
        let mut driver_time = SimTime(0);
        for b in flood_batches(0, 120, 2) {
            plugin.process_batch(&b);
            driver_time = b.ts;
        }
        plugin.interval_end(SimTime(driver_time.secs() + 600));
        plugin.finish();
        let (events, stats) = plugin.into_results();
        assert_eq!(events.len(), 1);
        assert_eq!(stats.events, 1);
    }

    #[test]
    #[should_panic(expected = "before the driver finished")]
    fn into_results_requires_finish() {
        let detector = RsdosDetector::with_defaults(Telescope::default_slash8());
        let plugin = RsdosPlugin::new(detector);
        let _ = plugin.into_results();
    }
}
