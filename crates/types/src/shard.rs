//! The target-IP shard key shared by the parallel detector stages.
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
pub fn shard_of_addr(addr: Ipv4Addr, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (u32::from(addr).wrapping_mul(MIX) >> 16) as usize % shards
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
    fn degenerate_counts() {
        let addr: Ipv4Addr = "10.1.2.3".parse().unwrap();
        assert_eq!(shard_of_addr(addr, 0), 0);
        assert_eq!(shard_of_addr(addr, 1), 0);
    }
}
