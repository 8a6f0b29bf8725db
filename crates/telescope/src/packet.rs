//! The capture record the telescope pipeline consumes.
//!
//! Real darknet processing reads pcap; simulating every packet of a
//! 100 kpps flood is infeasible, so the renderers emit [`PacketBatch`]es —
//! one representative wire-format packet plus a repeat count within a
//! one-second bucket, the same compression a pcap aggregator would apply.
//! Every batch's bytes are parsed through `dosscope-wire`'s checked
//! parsers, so the byte-level decode path is exercised on every batch.
//!
//! The pipeline hands the detectors a whole day at once, as one
//! [`TelescopeDay`]: every packet of the day in one arena, and one row per
//! batch. [`PacketBatch`] is the per-batch view of the same data, for
//! callers that feed batches one at a time; its representative bytes are
//! [`SharedBytes`], a view into a shared buffer, so cloning a batch bumps
//! a reference count instead of copying the packet. The views of one day
//! ([`PacketBatch::from_day`]) share one copy of its arena, so a cloned
//! batch keeps that whole copy alive until the clone is dropped.

use dosscope_types::{CaptureDay, SharedBytes, SimTime};

/// One day of telescope capture: rows of (timestamp, count, packet) over
/// one packet arena. Rows carry no tag; every rendered row has its own
/// packet.
pub type TelescopeDay = CaptureDay<()>;

/// A batch of `count` identical packets captured at `ts`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketBatch {
    /// Capture timestamp (second granularity; all packets of the batch
    /// fall within this second).
    pub ts: SimTime,
    /// How many identical packets the batch stands for (≥ 1).
    pub count: u32,
    /// One representative packet, starting at the IPv4 header (a view
    /// that may share its buffer with the other batches of its day).
    pub bytes: SharedBytes,
}

impl PacketBatch {
    /// A batch of one packet.
    pub fn single(ts: SimTime, bytes: impl Into<SharedBytes>) -> PacketBatch {
        PacketBatch {
            ts,
            count: 1,
            bytes: bytes.into(),
        }
    }

    /// A batch of `count` identical packets.
    pub fn repeated(ts: SimTime, count: u32, bytes: impl Into<SharedBytes>) -> PacketBatch {
        debug_assert!(count >= 1, "batch must stand for at least one packet");
        PacketBatch {
            ts,
            count: count.max(1),
            bytes: bytes.into(),
        }
    }

    /// Total bytes on the wire this batch stands for.
    pub fn total_bytes(&self) -> u64 {
        self.count as u64 * self.bytes.len() as u64
    }

    /// The batches of a day, in row order, viewing one shared copy of its
    /// arena.
    pub fn from_day(day: TelescopeDay) -> Vec<PacketBatch> {
        day.into_views()
            .map(|(row, bytes)| PacketBatch::repeated(row.ts, row.count, bytes))
            .collect()
    }

    /// The batches as one day: each packet copied once into the arena,
    /// rows in batch order.
    pub fn to_day(batches: &[PacketBatch]) -> TelescopeDay {
        CaptureDay::from_packets(batches.iter().map(|b| (b.ts, b.count, (), b.bytes.as_slice())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let b = PacketBatch::repeated(SimTime(5), 10, vec![0u8; 40]);
        assert_eq!(b.total_bytes(), 400);
        let s = PacketBatch::single(SimTime(5), vec![0u8; 40]);
        assert_eq!(s.count, 1);
        assert_eq!(s.total_bytes(), 40);
    }

    #[test]
    fn day_round_trip_keeps_every_batch() {
        let batches = vec![
            PacketBatch::repeated(SimTime(3), 2, vec![1u8, 2, 3]),
            PacketBatch::single(SimTime(3), vec![9u8; 7]),
            PacketBatch::repeated(SimTime(8), 5, Vec::new()),
        ];
        let day = PacketBatch::to_day(&batches);
        assert_eq!(day.len(), 3);
        assert_eq!(PacketBatch::from_day(day), batches);
    }

    #[test]
    fn clone_shares_representative_bytes() {
        let b = PacketBatch::repeated(SimTime(5), 10, vec![0u8; 40]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(b.bytes.as_slice().as_ptr(), c.bytes.as_slice().as_ptr());
    }
}
