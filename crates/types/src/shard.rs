//! The victim-address shard key shared by the sharded detectors.
//!
//! Work is partitioned by the complete victim address. Every detector
//! keeps its state per victim (flow table entries, open events, reply
//! rate limits) and its merge only sums counters, so the finest-grained
//! spread is safe: the victims inside one hot /16 (a busy hosting prefix)
//! spread across every shard instead of serialising on one.
//!
//! The address is scrambled with a fixed odd multiplier before the
//! modulo: address space is allocated in runs, so a plain `% shards`
//! would stripe adjacent victims onto the same few shards and the busiest
//! shard would bound the whole pipeline. The multiply mixes every address
//! bit into the high word and is stable across runs and platforms.

use std::net::Ipv4Addr;

/// Fibonacci-hashing constant (2^32 / φ, forced odd): a full-period
/// multiplicative scramble, not a quality-sensitive hash.
const MIX: u32 = 0x9E37_79B1;

/// The shard an address belongs to, out of `shards` (`shards = 0` is
/// treated as 1). Deterministic pure arithmetic on all 32 address bits.
fn shard_of_addr(addr: Ipv4Addr, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (u32::from(addr).wrapping_mul(MIX) >> 16) as usize % shards
}

/// The shard owning a raw IPv4 packet, by its source address — the
/// victim for both vantage points (backscatter is sent by the victim; an
/// abuse request spoofs the victim as its source). Routing sits on the
/// pipeline thread's critical path, so this reads the source straight from the
/// fixed header offset instead of validating the packet: routing only
/// needs a deterministic, victim-local assignment, and the shard's
/// detector re-validates and counts malformed batches. Bytes too short to
/// carry an IPv4 source go to shard 0.
pub fn shard_of_source(bytes: &[u8], shards: usize) -> usize {
    match bytes.get(12..16) {
        Some(src) if bytes[0] >> 4 == 4 => {
            shard_of_addr(Ipv4Addr::new(src[0], src[1], src[2], src[3]), shards)
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_cover_range() {
        // The victims of a single /16 already reach every shard.
        let shards = 8;
        let mut seen = vec![false; shards];
        for host in 0..=255u32 {
            for low in [1u32, 77] {
                let addr = Ipv4Addr::from(0x0A01_0000 | (host << 8) | low);
                let s = shard_of_addr(addr, shards);
                assert!(s < shards);
                seen[s] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "all shards receive work");
    }

    #[test]
    fn source_shard_reads_the_ipv4_source() {
        let mut pkt = [0u8; 20];
        pkt[0] = 0x45;
        pkt[12..16].copy_from_slice(&[10, 1, 2, 3]);
        let addr: Ipv4Addr = "10.1.2.3".parse().unwrap();
        assert_eq!(shard_of_source(&pkt, 8), shard_of_addr(addr, 8));
        // Too short, or not IPv4: shard 0.
        assert_eq!(shard_of_source(&[0xAB; 3], 8), 0);
        pkt[0] = 0x65;
        assert_eq!(shard_of_source(&pkt, 8), 0);
    }

    #[test]
    fn degenerate_counts() {
        let addr: Ipv4Addr = "10.1.2.3".parse().unwrap();
        assert_eq!(shard_of_addr(addr, 0), 0);
        assert_eq!(shard_of_addr(addr, 1), 0);
    }
}
