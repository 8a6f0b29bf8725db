//! A single honeypot instance: identity, placement and the per-source
//! reply rate limiter.

use dosscope_types::FastMap;
use std::net::Ipv4Addr;

/// Index of a honeypot within the fleet (0..24 for the standard fleet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HoneypotId(pub u8);

/// Coarse geographic placement, matching the paper's fleet layout
/// (11 America, 8 Europe, 4 Asia, 1 Australia).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// The Americas.
    America,
    /// Europe.
    Europe,
    /// Asia.
    Asia,
    /// Australia/Oceania.
    Australia,
}

/// How a honeypot is hosted — the paper distributes instances across cloud
/// providers and volunteer-operated machines to avoid skew.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hosting {
    /// Rented at a cloud provider.
    Cloud,
    /// Operated by a volunteer.
    Volunteer,
}

/// One honeypot instance.
#[derive(Debug, Clone)]
pub struct Honeypot {
    /// Fleet index.
    pub id: HoneypotId,
    /// Public address attackers discovered it under.
    pub addr: Ipv4Addr,
    /// Geographic placement.
    pub region: Region,
    /// Hosting flavour.
    pub hosting: Hosting,
    /// Per-source reply rate limiter state.
    limiter: RateLimiter,
}

impl Honeypot {
    /// Create an instance.
    pub fn new(id: HoneypotId, addr: Ipv4Addr, region: Region, hosting: Hosting) -> Honeypot {
        Honeypot {
            id,
            addr,
            region,
            hosting,
            limiter: RateLimiter::new(3),
        }
    }

    /// Record `requests` requests from `source` during `minute`; returns
    /// how many of them the honeypot would answer (AmpPot replies only to
    /// sources sending fewer than three packets per minute, so scanners
    /// get answers but victims are never flooded).
    pub fn replies(&mut self, source: Ipv4Addr, minute: u64, requests: u64) -> u64 {
        self.limiter.allow(source, minute, requests)
    }
}

/// Sliding per-minute counter per source address. State for old minutes is
/// discarded lazily on access, keeping the map bounded by the number of
/// sources active in the current minute.
#[derive(Debug, Clone)]
struct RateLimiter {
    max_per_minute: u64,
    current_minute: u64,
    counts: FastMap<u32, u64>,
}

impl RateLimiter {
    fn new(max_per_minute: u64) -> RateLimiter {
        RateLimiter {
            max_per_minute,
            current_minute: 0,
            counts: FastMap::default(),
        }
    }

    /// Count `requests` more from `source` in `minute`; returns how many
    /// of them stay under the per-minute limit.
    fn allow(&mut self, source: Ipv4Addr, minute: u64, requests: u64) -> u64 {
        if minute != self.current_minute {
            self.counts.clear();
            self.current_minute = minute;
        }
        let c = self.counts.entry(u32::from(source)).or_insert(0);
        let before = *c;
        *c = before.saturating_add(requests);
        (self.max_per_minute - 1).saturating_sub(before).min(requests)
    }
}

/// Build the standard 24-instance fleet of the paper: 11 honeypots in
/// America, 8 in Europe, 4 in Asia and 1 in Australia, alternating cloud
/// and volunteer hosting, each on its own /24.
pub fn standard_fleet() -> Vec<Honeypot> {
    let mut pots = Vec::with_capacity(24);
    let regions: Vec<Region> = std::iter::repeat_n(Region::America, 11)
        .chain(std::iter::repeat_n(Region::Europe, 8))
        .chain(std::iter::repeat_n(Region::Asia, 4))
        .chain(std::iter::once(Region::Australia))
        .collect();
    for (i, region) in regions.into_iter().enumerate() {
        // Spread the pots across distinct documentation-ish /24s well away
        // from the registry's allocations (198.18.0.0/15 is RFC 2544 bench
        // space, unused by the synthetic plan).
        let addr = Ipv4Addr::new(198, 18, i as u8, 53);
        let hosting = if i % 3 == 0 {
            Hosting::Volunteer
        } else {
            Hosting::Cloud
        };
        pots.push(Honeypot::new(HoneypotId(i as u8), addr, region, hosting));
    }
    pots
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_fleet_layout() {
        let fleet = standard_fleet();
        assert_eq!(fleet.len(), 24);
        let count = |r: Region| fleet.iter().filter(|p| p.region == r).count();
        assert_eq!(count(Region::America), 11);
        assert_eq!(count(Region::Europe), 8);
        assert_eq!(count(Region::Asia), 4);
        assert_eq!(count(Region::Australia), 1);
        // Distinct addresses.
        let mut addrs: Vec<_> = fleet.iter().map(|p| p.addr).collect();
        addrs.sort();
        addrs.dedup();
        assert_eq!(addrs.len(), 24);
    }

    #[test]
    fn rate_limiter_allows_scanners() {
        let mut pot = standard_fleet().remove(0);
        let scanner: Ipv4Addr = "192.0.2.1".parse().unwrap();
        // First two requests in a minute get replies, the third does not.
        assert_eq!(pot.replies(scanner, 0, 1), 1);
        assert_eq!(pot.replies(scanner, 0, 1), 1);
        assert_eq!(pot.replies(scanner, 0, 1), 0);
        assert_eq!(pot.replies(scanner, 0, 1), 0);
        // A new minute resets the budget.
        assert_eq!(pot.replies(scanner, 1, 1), 1);
    }

    #[test]
    fn rate_limiter_is_per_source() {
        let mut pot = standard_fleet().remove(0);
        let a: Ipv4Addr = "192.0.2.1".parse().unwrap();
        let b: Ipv4Addr = "192.0.2.2".parse().unwrap();
        assert_eq!(pot.replies(a, 0, 1), 1);
        assert_eq!(pot.replies(a, 0, 1), 1);
        assert_eq!(pot.replies(a, 0, 1), 0);
        assert_eq!(pot.replies(b, 0, 1), 1, "other sources unaffected");
    }

    #[test]
    fn rate_limiter_counts_every_request_of_a_batch() {
        let mut pot = standard_fleet().remove(0);
        let victim: Ipv4Addr = "192.0.2.1".parse().unwrap();
        // One 50-request batch: only the first two requests are answered.
        assert_eq!(pot.replies(victim, 0, 50), 2);
        assert_eq!(pot.replies(victim, 0, 50), 0);
        // A batch that crosses the limit is answered in part.
        assert_eq!(pot.replies(victim, 1, 1), 1);
        assert_eq!(pot.replies(victim, 1, 5), 1);
        // A new minute resets the count.
        assert_eq!(pot.replies(victim, 2, 50), 2);
    }
}
