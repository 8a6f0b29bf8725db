//! The detector as the paper describes it: "we implemented the
//! detection and classification methodology described by Moore et al. as
//! a Corsaro plugin". Corsaro feeds a plugin time-ordered capture batches
//! and calls it at the end of every 60 s interval, where the plugin
//! expires idle flows. [`RsdosDetector`] keeps that interval model
//! itself: each row it ingests moves its flow table's expiry clock
//! ([`FlowTable::expire`](crate::flow::FlowTable::expire)), so any
//! time-ordered stream drives it with no separate clock.
//!
//! [`TelescopePlugin`] and the [`RsdosPlugin`] shim remain only for the
//! benchmark's frozen replay (ROADMAP, the benchmark item).

use crate::detector::{DetectorStats, RsdosDetector};
use crate::packet::PacketBatch;
use dosscope_types::{AttackEvent, SimTime};

/// A Corsaro-style processing plugin, fed time-ordered batches.
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

/// The RSDoS detector behind the [`TelescopePlugin`] calls.
pub struct RsdosPlugin(RsdosDetector);

impl RsdosPlugin {
    /// Wrap a detector.
    pub fn new(detector: RsdosDetector) -> RsdosPlugin {
        RsdosPlugin(detector)
    }

    /// Finalize every flow and return the detected events plus stats.
    pub fn into_results(self) -> (Vec<AttackEvent>, DetectorStats) {
        self.0.finish()
    }

    /// Number of currently live flows in the wrapped detector.
    pub fn live_flows(&self) -> usize {
        self.0.live_flows()
    }
}

impl TelescopePlugin for RsdosPlugin {
    fn name(&self) -> &'static str {
        "rsdos"
    }

    fn process_batch(&mut self, batch: &PacketBatch) {
        self.0.ingest(batch);
    }

    fn interval_end(&mut self, now: SimTime) {
        self.0.advance(now);
    }

    /// Nothing to do: [`RsdosPlugin::into_results`] finalizes.
    fn finish(&mut self) {}
}

/// Run a full time-ordered batch stream through a detector and return the
/// detected events plus stats.
pub fn run_rsdos(
    mut detector: RsdosDetector,
    batches: impl IntoIterator<Item = PacketBatch>,
) -> (Vec<AttackEvent>, DetectorStats) {
    for batch in batches {
        detector.ingest(&batch);
    }
    detector.finish()
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
        assert_eq!(plugin.live_flows(), 0, "interval_end expired the flow");
        plugin.finish();
        let (events, stats) = plugin.into_results();
        assert_eq!(events.len(), 1);
        assert_eq!(stats.events, 1);
    }
}
