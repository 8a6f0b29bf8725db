//! The capture record the telescope pipeline consumes.
//!
//! Real darknet processing reads pcap; simulating every packet of a
//! 100 kpps flood is infeasible, so the renderers emit [`PacketBatch`]es —
//! one representative wire-format packet plus a repeat count within a
//! one-second bucket, the same compression a pcap aggregator would apply.
//! Every batch's bytes are parsed through `dosscope-wire`'s checked
//! parsers, so the byte-level decode path is exercised on every batch.
//!
//! The representative bytes are [`SharedBytes`], a view into a shared
//! buffer: cloning a batch (stream partitioning, replayed test streams,
//! bench workloads) bumps a reference count instead of copying the
//! packet. The renderer packs a whole day's packets into one buffer and
//! every batch of that day views it, so a cloned batch keeps its entire
//! day arena alive until the clone is dropped.

use dosscope_types::{SharedBytes, SimTime};

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
    fn clone_shares_representative_bytes() {
        let b = PacketBatch::repeated(SimTime(5), 10, vec![0u8; 40]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(b.bytes.as_slice().as_ptr(), c.bytes.as_slice().as_ptr());
    }
}
