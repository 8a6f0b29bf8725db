//! The honeypot-fleet engine every scenario run drives: fleet shards on
//! the persistent worker pool, one worker per shard at every shard count.
//!
//! Request batches are routed by the *victim's* address (the spoofed
//! source of an abuse request IS the victim) and each shard's
//! [`AmpPotFleet`] lives on a long-lived [`ShardPool`] worker for the
//! whole run — no thread spawn per chunk, no per-chunk re-partitioning.
//! A chunk is shared with every worker as one [`Routed`] view. Every
//! piece of fleet state is victim-local — open events are keyed by
//! (victim, protocol, honeypot), the reply rate limiter counts per
//! (victim, minute), and the fleet merge groups per (victim, protocol) —
//! so a shard sees every request of every event it owns, in order, and
//! the single merge at [`ShardedFleet::finish`] is byte-identical to a
//! serial run. The final ordering is the serial fleet's own canonical
//! `(start, target, protocol)` sort, and every [`FleetStats`] counter is
//! a per-batch or per-event sum.

use crate::event::RequestBatch;
use crate::fleet::{AmpPotFleet, FleetStats};
use dosscope_types::{shard_of_source, AttackEvent, Routed, Shard, ShardPool};
use std::sync::Arc;

/// Route a time-ordered chunk of the request stream by victim (= spoofed
/// packet source) shard, without copying any batch. Relative order
/// within each shard is preserved. Fleet state is keyed by the complete
/// victim address and the merge only sums counters, so the full-address
/// key spreads a hot hosting /16 across all shards.
pub fn route_requests(batches: Arc<Vec<RequestBatch>>, shards: usize) -> Routed<RequestBatch> {
    let shards = shards.max(1);
    Routed::build(batches, shards, |b| shard_of_source(&b.bytes, shards))
}

/// One shard: its own fleet replica plus a peak open-event sample. Each
/// shard holding its own copy of the honeypot instances is faithful
/// because the only per-honeypot state, the reply rate limiter, counts
/// per (victim, minute) and a victim's requests all live in one shard.
struct FleetLane {
    fleet: AmpPotFleet,
    peak_open_events: usize,
}

impl Shard<RequestBatch> for FleetLane {
    /// Events, statistics, peak open events.
    type Output = (Vec<AttackEvent>, FleetStats, u64);

    fn process<'a>(&mut self, batches: impl Iterator<Item = &'a RequestBatch>) {
        let _detect = dosscope_obs::span!("stage.detect");
        for b in batches {
            self.fleet.ingest(b);
        }
        self.peak_open_events = self.peak_open_events.max(self.fleet.open_events());
    }

    fn finish(self) -> Self::Output {
        let (events, stats) = self.fleet.finish();
        (events, stats, self.peak_open_events as u64)
    }
}

/// The fleet engine: N independent fleets over victim shards on one
/// [`ShardPool`].
pub struct ShardedFleet {
    pool: ShardPool<RequestBatch, FleetLane>,
}

impl ShardedFleet {
    /// `shards` standard 24-instance fleets (0 is treated as 1), one pool
    /// worker per shard.
    pub fn standard(shards: usize) -> ShardedFleet {
        let pool = ShardPool::new("fleet", shards, || FleetLane {
            fleet: AmpPotFleet::standard(),
            peak_open_events: 0,
        });
        ShardedFleet { pool }
    }

    /// Ingest one pre-routed chunk of the stream (as produced by
    /// [`route_requests`] for this engine's shard count). Chunks must
    /// arrive in time order, like the serial stream.
    pub fn ingest_routed(&mut self, routed: Routed<RequestBatch>) {
        self.pool.dispatch(routed);
    }

    /// Route and ingest one time-ordered chunk of the stream.
    pub fn ingest(&mut self, batches: Vec<RequestBatch>) {
        self.ingest_routed(route_requests(Arc::new(batches), self.pool.shards()));
    }

    /// End of trace: drain and finish every shard, then merge once —
    /// events into the canonical `(start, target, protocol)` order,
    /// statistics summed, and the peak open-event working set summed over
    /// shards (the shards run concurrently, so the sum bounds the
    /// process-wide peak). The merged statistics and the peak are
    /// published here, once, as the `fleet.*` telemetry counters and
    /// gauge.
    pub fn finish(mut self) -> (Vec<AttackEvent>, FleetStats, u64) {
        let results = self.pool.shutdown();
        let mut events = Vec::new();
        let mut stats = FleetStats::default();
        let mut peak = 0u64;
        for (ev, st, pk) in results {
            events.extend(ev);
            stats += st;
            peak += pk;
        }
        events.sort_by_key(|e| (e.when.start, e.target, e.reflection_protocol()));
        dosscope_obs::counter!("fleet.requests").add(stats.requests);
        dosscope_obs::counter!("fleet.replies").add(stats.replies_sent);
        dosscope_obs::counter!("fleet.events").add(stats.events);
        dosscope_obs::counter!("fleet.pot_events").add(stats.pot_events);
        dosscope_obs::counter!("fleet.scan_filtered").add(stats.scan_filtered);
        dosscope_obs::gauge!("fleet.peak_open_events").raise(peak);
        (events, stats, peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::honeypot::HoneypotId;
    use dosscope_types::{ReflectionProtocol, SimTime};
    use dosscope_wire::builder;
    use std::net::Ipv4Addr;

    /// Interleaved reflection floods from victims across many /16s, a
    /// scanner, and a malformed batch.
    fn mixed_stream() -> Vec<RequestBatch> {
        let pots = crate::honeypot::standard_fleet();
        let victims: Vec<Ipv4Addr> = (0..10u32)
            .map(|i| Ipv4Addr::from(0xC0A8_0000u32.wrapping_add(i << 16) | 0x21))
            .collect();
        let protos = [
            ReflectionProtocol::Ntp,
            ReflectionProtocol::Dns,
            ReflectionProtocol::CharGen,
        ];
        let mut batches = Vec::new();
        for s in 0..900u64 {
            for (vi, v) in victims.iter().enumerate() {
                if (s + vi as u64).is_multiple_of(4) {
                    let p = (vi + s as usize) % 3;
                    let pot = (vi + s as usize) % pots.len();
                    let pkt = builder::reflection_request(
                        *v,
                        40_000 + vi as u16,
                        pots[pot].addr,
                        protos[p],
                    );
                    batches.push(RequestBatch::repeated(
                        HoneypotId(pot as u8),
                        SimTime(s),
                        2,
                        pkt,
                    ));
                }
            }
        }
        // A scanner probing each pot twice: stays under the scan filter.
        let scanner: Ipv4Addr = "198.51.100.200".parse().unwrap();
        for (i, pot) in pots.iter().enumerate() {
            let pkt = builder::reflection_request(scanner, 3333, pot.addr, ReflectionProtocol::Ssdp);
            batches.push(RequestBatch::repeated(
                HoneypotId(i as u8),
                SimTime(i as u64),
                2,
                pkt,
            ));
        }
        batches.push(RequestBatch::repeated(HoneypotId(0), SimTime(5), 1, vec![0xC2; 9]));
        batches.sort_by_key(|b| b.ts);
        batches
    }

    #[test]
    fn sharded_matches_serial() {
        let mut serial = AmpPotFleet::standard();
        for b in &mixed_stream() {
            serial.ingest(b);
        }
        let (serial_events, serial_stats) = serial.finish();
        assert!(!serial_events.is_empty());
        for shards in [1, 2, 5, 8] {
            let mut engine = ShardedFleet::standard(shards);
            engine.ingest(mixed_stream());
            let (events, stats, peak) = engine.finish();
            assert_eq!(events, serial_events, "{shards} shards: events differ");
            assert_eq!(stats, serial_stats, "{shards} shards: stats differ");
            assert!(peak > 0, "{shards} shards: peak working set sampled");
        }
    }

    #[test]
    fn chunked_ingestion_matches_single_shot() {
        let stream = mixed_stream();
        let mut whole = ShardedFleet::standard(4);
        whole.ingest(stream.clone());
        let (a, _, _) = whole.finish();

        let mut chunked = ShardedFleet::standard(4);
        for chunk in stream.chunks(131) {
            chunked.ingest(chunk.to_vec());
        }
        let (b, _, _) = chunked.finish();
        assert_eq!(a, b);
    }

    #[test]
    fn malformed_requests_route_to_shard_zero() {
        let routed = route_requests(
            Arc::new(vec![RequestBatch::repeated(HoneypotId(0), SimTime(0), 1, vec![0x01; 4])]),
            6,
        );
        assert_eq!(routed.owned_len(0), 1);
        assert_eq!((0..6).map(|s| routed.owned_len(s)).sum::<usize>(), 1);
    }
}
