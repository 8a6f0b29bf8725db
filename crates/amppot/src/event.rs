//! The capture record the honeypots consume and the per-honeypot event
//! state.

use crate::honeypot::HoneypotId;
use dosscope_types::{CaptureDay, LastActive, ReflectionProtocol, SharedBytes, SimTime};
use std::net::Ipv4Addr;

/// One day of honeypot capture: rows of (timestamp, count, receiving
/// honeypot, representative id) over one arena. The renderer writes one
/// representative request per (attack-day, honeypot), so many rows name
/// one packet, and the fleet classifies each representative once a day.
pub type HoneypotDay = CaptureDay<HoneypotId>;

/// A batch of `count` identical spoofed requests received by one honeypot
/// at `ts` (same compression scheme as the telescope's
/// `PacketBatch`; see DESIGN.md): the per-batch view of a
/// [`HoneypotDay`] row. The representative bytes are [`SharedBytes`], so
/// cloning a batch never copies the packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestBatch {
    /// Receiving honeypot.
    pub honeypot: HoneypotId,
    /// Arrival timestamp (second granularity).
    pub ts: SimTime,
    /// Number of identical requests this batch stands for (≥ 1).
    pub count: u32,
    /// One representative request packet, starting at the IPv4 header.
    pub bytes: SharedBytes,
}

impl RequestBatch {
    /// A batch of `count` identical requests.
    pub fn repeated(
        honeypot: HoneypotId,
        ts: SimTime,
        count: u32,
        bytes: impl Into<SharedBytes>,
    ) -> RequestBatch {
        RequestBatch {
            honeypot,
            ts,
            count: count.max(1),
            bytes: bytes.into(),
        }
    }

    /// Total wire bytes this batch stands for.
    pub fn total_bytes(&self) -> u64 {
        self.count as u64 * self.bytes.len() as u64
    }

    /// The batches of a day, in row order, viewing one shared copy of its
    /// arena (rows that share a representative share its view).
    pub fn from_day(day: HoneypotDay) -> Vec<RequestBatch> {
        day.into_views()
            .map(|(row, bytes)| RequestBatch::repeated(row.tag, row.ts, row.count, bytes))
            .collect()
    }

    /// The batches as one day: each batch's packet copied once into the
    /// arena, rows in batch order.
    pub fn to_day(batches: &[RequestBatch]) -> HoneypotDay {
        CaptureDay::from_packets(
            batches
                .iter()
                .map(|b| (b.ts, b.count, b.honeypot, b.bytes.as_slice())),
        )
    }
}

/// An event under construction at a single honeypot: requests from one
/// victim over one protocol.
#[derive(Debug, Clone)]
pub(crate) struct PotEvent {
    pub victim: Ipv4Addr,
    pub protocol: ReflectionProtocol,
    pub honeypot: HoneypotId,
    pub first: SimTime,
    pub last: SimTime,
    pub requests: u64,
    pub bytes: u64,
}

impl PotEvent {
    pub(crate) fn new(
        victim: Ipv4Addr,
        protocol: ReflectionProtocol,
        honeypot: HoneypotId,
        ts: SimTime,
    ) -> PotEvent {
        PotEvent {
            victim,
            protocol,
            honeypot,
            first: ts,
            last: ts,
            requests: 0,
            bytes: 0,
        }
    }
}

impl LastActive for PotEvent {
    fn last_active(&self) -> SimTime {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_round_trip_keeps_every_batch() {
        let batches = vec![
            RequestBatch::repeated(HoneypotId(3), SimTime(10), 50, vec![1u8; 60]),
            RequestBatch::repeated(HoneypotId(0), SimTime(10), 1, vec![2u8; 9]),
            RequestBatch::repeated(HoneypotId(3), SimTime(11), 4, vec![1u8; 60]),
        ];
        let day = RequestBatch::to_day(&batches);
        assert_eq!((day.len(), day.packets()), (3, 3));
        assert_eq!(RequestBatch::from_day(day), batches);
    }

    #[test]
    fn batch_totals() {
        let b = RequestBatch::repeated(HoneypotId(3), SimTime(10), 50, vec![0u8; 60]);
        assert_eq!(b.total_bytes(), 3000);
        let one = RequestBatch::repeated(HoneypotId(3), SimTime(10), 0, vec![0u8; 60]);
        assert_eq!(one.count, 1, "count is clamped to at least 1");
    }
}
