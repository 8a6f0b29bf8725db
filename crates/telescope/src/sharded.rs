//! The RSDoS engine every scenario run drives: detector shards on the
//! persistent worker pool, one worker per shard at every shard count.
//!
//! Batches are routed by the *victim's* address (backscatter is sent by
//! the victim, so the victim is the packet source) and each shard's
//! [`RsdosPlugin`] lives on a long-lived [`ShardPool`] worker for the
//! whole run — no thread spawn per chunk, no per-chunk re-partitioning.
//! A chunk is shared with every worker as one [`Routed`] view (`Arc`'d
//! batch vector plus per-shard index lists); workers read their batches
//! in place. The flow table, the classifier and the filter are all
//! victim-local state, so a shard sees every packet of every flow it
//! owns, in the original order — the single merge at [`ShardedRsdos::
//! finish`] is byte-identical to a serial run:
//!
//! * flow splits happen on per-flow idle gaps (in `offer`) regardless of
//!   when `interval_end` fires, so per-shard interval cadence cannot
//!   change event content;
//! * the final ordering is the canonical `(start, target)` sort the serial
//!   detector already produces;
//! * every [`DetectorStats`] counter is a per-batch or per-flow sum, so
//!   the merged statistics — and the `telescope.*` telemetry counters
//!   published from them — do not depend on the shard count.

use crate::detector::{DetectorConfig, DetectorStats, RsdosDetector};
use crate::packet::PacketBatch;
use crate::plugin::{IntervalClock, RsdosPlugin, TelescopePlugin};
use crate::Telescope;
use dosscope_types::{shard_of_source, AttackEvent, Routed, Shard, ShardPool};
use std::sync::Arc;

/// Route a time-ordered chunk of the stream by victim (= packet source)
/// shard, without copying any batch. Relative order within each shard is
/// preserved, which is all the per-victim flow logic needs. Detector
/// state is keyed by the complete victim address and the merge only sums
/// counters, so the full-address key spreads a hot hosting /16 across all
/// shards instead of serialising it on one.
pub fn route_batches(batches: Arc<Vec<PacketBatch>>, shards: usize) -> Routed<PacketBatch> {
    let shards = shards.max(1);
    Routed::build(batches, shards, |b| shard_of_source(&b.bytes, shards))
}

/// One shard: a detector plugin on its own interval clock (interval
/// boundaries come from the shard's own batch stream) and a peak
/// working-set sample.
struct ShardLane {
    plugin: RsdosPlugin,
    clock: IntervalClock,
    peak_live_flows: usize,
}

impl Shard<PacketBatch> for ShardLane {
    /// Events, statistics, and the shard's peak live-flow count (sampled
    /// once per ingested chunk).
    type Output = (Vec<AttackEvent>, DetectorStats, u64);

    fn process<'a>(&mut self, batches: impl Iterator<Item = &'a PacketBatch>) {
        let _detect = dosscope_obs::span!("stage.detect");
        for b in batches {
            self.clock.feed(&mut self.plugin, b);
        }
        self.peak_live_flows = self.peak_live_flows.max(self.plugin.live_flows());
    }

    fn finish(mut self) -> Self::Output {
        self.plugin.finish();
        let (events, stats) = self.plugin.into_results();
        (events, stats, self.peak_live_flows as u64)
    }
}

/// The RSDoS engine: N independent detectors over victim shards on one
/// [`ShardPool`].
pub struct ShardedRsdos {
    pool: ShardPool<PacketBatch, ShardLane>,
}

impl ShardedRsdos {
    /// An engine with `shards` detector shards (0 is treated as 1), all
    /// observing the same darknet with the same thresholds, one pool
    /// worker per shard.
    pub fn new(telescope: Telescope, config: DetectorConfig, shards: usize) -> ShardedRsdos {
        let pool = ShardPool::new("telescope", shards, || ShardLane {
            plugin: RsdosPlugin::new(RsdosDetector::new(telescope, config)),
            clock: IntervalClock::default(),
            peak_live_flows: 0,
        });
        ShardedRsdos { pool }
    }

    /// An engine with the published default thresholds.
    pub fn with_defaults(telescope: Telescope, shards: usize) -> ShardedRsdos {
        ShardedRsdos::new(telescope, DetectorConfig::default(), shards)
    }

    /// Ingest one pre-routed chunk of the stream (as produced by
    /// [`route_batches`] for this engine's shard count). Chunks must
    /// arrive in time order, like the serial stream.
    pub fn ingest_routed(&mut self, routed: Routed<PacketBatch>) {
        self.pool.dispatch(routed);
    }

    /// Route and ingest one time-ordered chunk of the stream.
    pub fn ingest(&mut self, batches: Vec<PacketBatch>) {
        self.ingest_routed(route_batches(Arc::new(batches), self.pool.shards()));
    }

    /// End of trace: drain and finish every shard, then merge once —
    /// events into the canonical `(start, target)` order, statistics
    /// summed, and the peak live-flow working set summed over shards (the
    /// shards run concurrently, so the sum bounds the process-wide peak).
    /// The merged statistics and the peak are published here, once, as
    /// the `telescope.*` telemetry counters and gauge.
    pub fn finish(mut self) -> (Vec<AttackEvent>, DetectorStats, u64) {
        let results = self.pool.shutdown();
        let mut events = Vec::new();
        let mut stats = DetectorStats::default();
        let mut peak = 0u64;
        for (ev, st, pk) in results {
            events.extend(ev);
            stats += st;
            peak += pk;
        }
        events.sort_by_key(|e| (e.when.start, e.target));
        dosscope_obs::counter!("telescope.batches").add(stats.backscatter_batches);
        dosscope_obs::counter!("telescope.backscatter_packets").add(stats.backscatter_packets);
        dosscope_obs::counter!("telescope.flows_expired").add(stats.flows_finalized);
        dosscope_obs::counter!("telescope.flows_filtered").add(stats.flows_filtered);
        dosscope_obs::counter!("telescope.events").add(stats.events);
        dosscope_obs::gauge!("telescope.peak_live_flows").raise(peak);
        (events, stats, peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::run_rsdos;
    use dosscope_types::SimTime;
    use dosscope_wire::builder;
    use std::net::Ipv4Addr;

    /// Interleaved backscatter from victims spread across many /16s, plus
    /// sub-threshold noise and a malformed batch.
    fn mixed_stream() -> Vec<PacketBatch> {
        let victims: Vec<Ipv4Addr> = (0..12u32)
            .map(|i| Ipv4Addr::from(0xCB00_0000 | (i << 16) | 0x50))
            .collect();
        let mut batches = Vec::new();
        for s in 0..600u64 {
            for (vi, v) in victims.iter().enumerate() {
                if (s + vi as u64).is_multiple_of(3) {
                    let spoofed = Ipv4Addr::new(44, (s % 250) as u8, vi as u8, 7);
                    let pkt = builder::tcp_syn_ack(*v, 80, spoofed, 40_000, s as u32);
                    batches.push(PacketBatch::repeated(SimTime(s), 2, pkt));
                }
            }
        }
        // A victim that never clears the packet threshold.
        let weak: Ipv4Addr = "198.51.100.9".parse().unwrap();
        for s in 0..5u64 {
            let pkt = builder::tcp_syn_ack(weak, 443, Ipv4Addr::new(44, 9, 9, 9), 1, s as u32);
            batches.push(PacketBatch::single(SimTime(s * 120), pkt));
        }
        batches.push(PacketBatch::repeated(SimTime(10), 1, vec![0xEE; 7]));
        batches.sort_by_key(|b| b.ts);
        batches
    }

    #[test]
    fn sharded_matches_serial() {
        let telescope = Telescope::default_slash8();
        let (serial_events, serial_stats) =
            run_rsdos(RsdosDetector::with_defaults(telescope), mixed_stream());
        assert!(!serial_events.is_empty());
        for shards in [1, 2, 3, 8] {
            let mut engine = ShardedRsdos::with_defaults(telescope, shards);
            engine.ingest(mixed_stream());
            let (events, stats, peak) = engine.finish();
            assert_eq!(events, serial_events, "{shards} shards: events differ");
            assert_eq!(stats, serial_stats, "{shards} shards: stats differ");
            assert!(peak > 0, "{shards} shards: peak working set sampled");
        }
    }

    #[test]
    fn chunked_ingestion_matches_single_shot() {
        let telescope = Telescope::default_slash8();
        let stream = mixed_stream();
        let mut whole = ShardedRsdos::with_defaults(telescope, 4);
        whole.ingest(stream.clone());
        let (a, _, _) = whole.finish();

        // The same persistent workers (and their flow state) must carry
        // over across consecutive chunks.
        let mut chunked = ShardedRsdos::with_defaults(telescope, 4);
        for chunk in stream.chunks(97) {
            chunked.ingest(chunk.to_vec());
        }
        let (b, _, _) = chunked.finish();
        assert_eq!(a, b);
    }

    #[test]
    fn malformed_batches_route_to_shard_zero() {
        let routed = route_batches(
            Arc::new(vec![PacketBatch::repeated(SimTime(0), 1, vec![0xAB; 3])]),
            8,
        );
        assert_eq!(routed.owned_len(0), 1);
        assert_eq!(
            (0..8).map(|s| routed.owned_len(s)).sum::<usize>(),
            1,
            "routed exactly once"
        );
    }

    #[test]
    fn routing_is_zero_copy() {
        let stream = Arc::new(mixed_stream());
        let routed = route_batches(stream.clone(), 8);
        assert_eq!(
            routed.items().as_ptr(),
            stream.as_ptr(),
            "routing shares the chunk, no re-partition copies"
        );
        assert_eq!(
            (0..8).map(|s| routed.owned_len(s)).sum::<usize>(),
            stream.len()
        );
    }
}
