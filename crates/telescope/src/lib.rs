//! # dosscope-telescope
//!
//! The network-telescope side of the reproduction: a darknet model
//! ([`Telescope`]), the backscatter classifier, a victim-keyed flow table
//! with the conservative 300-second timeout, and the Moore et al.
//! randomly-spoofed-DoS detector with its published thresholds — packaged
//! in a Corsaro-plugin-like processing architecture ([`plugin`]).
//!
//! The paper (Section 3.1.1) implements the detection and classification
//! methodology of Moore et al. as a Corsaro plugin in three steps:
//!
//! 1. **identify and extract backscatter packets** — [`classify`]: TCP
//!    SYN/ACK and RST, plus the nine ICMP response types;
//! 2. **combine related packets into attack flows on the victim IP** —
//!    [`flow`]: the victim is the *source* of backscatter; flows expire
//!    after 300 s of inactivity;
//! 3. **attack classification and filtering** — [`detector`]: compute
//!    unique spoofed sources, distinct ports, packet/byte totals, duration
//!    and the maximum packet rate per second in any minute, then discard
//!    flows with fewer than 25 packets, shorter than 60 s, or with a
//!    maximum rate under 0.5 pps.
//!
//! ```
//! use dosscope_telescope::{run_rsdos, PacketBatch, RsdosDetector, Telescope};
//! use dosscope_types::SimTime;
//! use dosscope_wire::builder;
//!
//! // 90 seconds of SYN-flood backscatter at 2 pps observed.
//! let victim: std::net::Ipv4Addr = "203.0.113.80".parse().unwrap();
//! let batches = (0..90u64).map(|s| {
//!     let spoofed = std::net::Ipv4Addr::new(44, 0, (s % 200) as u8, 1);
//!     let pkt = builder::tcp_syn_ack(victim, 80, spoofed, 40_000, s as u32);
//!     PacketBatch::repeated(SimTime(s), 2, pkt)
//! });
//! let detector = RsdosDetector::with_defaults(Telescope::default_slash8());
//! let (events, _) = run_rsdos(detector, batches);
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].target, victim);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod detector;
pub mod flow;
pub mod packet;
pub mod plugin;
pub mod sharded;

pub use classify::{classify, classify_batch, Backscatter, BatchClass};
pub use detector::{DetectorConfig, RsdosDetector};
pub use packet::PacketBatch;
pub use plugin::{run_rsdos, RsdosPlugin, TelescopePlugin};
pub use sharded::{route_batches, ShardedRsdos};

use dosscope_types::Ipv4Cidr;
use std::net::Ipv4Addr;

/// The darknet itself: an unused address block that passively collects
/// unsolicited traffic.
///
/// The UCSD telescope is a /8 — roughly 1/256 of the IPv4 address space —
/// so a victim's backscatter rate observed here must be multiplied by
/// [`Telescope::scaling_factor`] to estimate the rate at the victim.
#[derive(Debug, Clone, Copy)]
pub struct Telescope {
    prefix: Ipv4Cidr,
}

impl Telescope {
    /// A telescope observing `prefix`.
    pub fn new(prefix: Ipv4Cidr) -> Telescope {
        Telescope { prefix }
    }

    /// The default UCSD-like /8 darknet used across the workspace.
    pub fn default_slash8() -> Telescope {
        Telescope::new(Ipv4Cidr::new(Ipv4Addr::new(44, 0, 0, 0), 8))
    }

    /// The observed prefix.
    pub fn prefix(&self) -> Ipv4Cidr {
        self.prefix
    }

    /// Whether a destination address falls inside the darknet (i.e. the
    /// packet would be captured).
    pub fn observes(&self, dst: Ipv4Addr) -> bool {
        self.prefix.contains(dst)
    }

    /// The fraction of uniformly spoofed addresses that land in the
    /// darknet, as `1/f` — 256 for a /8. Estimated victim-side packet
    /// rates are observed rates times this factor.
    pub fn scaling_factor(&self) -> f64 {
        (1u64 << self.prefix.len()) as f64
    }

    /// The probability that a uniformly random IPv4 address falls inside
    /// the darknet.
    pub fn coverage(&self) -> f64 {
        1.0 / self.scaling_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slash8_scaling() {
        let t = Telescope::default_slash8();
        assert_eq!(t.scaling_factor(), 256.0);
        assert!((t.coverage() - 1.0 / 256.0).abs() < 1e-12);
    }

    #[test]
    fn observes_only_darknet() {
        let t = Telescope::default_slash8();
        assert!(t.observes("44.1.2.3".parse().unwrap()));
        assert!(!t.observes("45.1.2.3".parse().unwrap()));
    }

    #[test]
    fn custom_prefix() {
        let t = Telescope::new("198.18.0.0/15".parse().unwrap());
        assert_eq!(t.scaling_factor(), 32768.0);
        assert!(t.observes("198.19.255.255".parse().unwrap()));
    }
}
