//! # dosscope-amppot
//!
//! The AmpPot side of the reproduction (Krämer et al., RAID 2015; Section
//! 3.1.2 of the paper): a fleet of amplification honeypots that mimic
//! reflectors for eight UDP protocols, log the spoofed requests attackers
//! send "in the name of the victim", and infer reflection/amplification
//! attack events from them.
//!
//! Faithfully modelled behaviours:
//!
//! * **protocol emulation** — requests are parsed from real packet bytes
//!   and classified per protocol ([`dosscope_wire::reflect`]);
//! * **harmlessness rate limit** — a honeypot only *replies* to sources
//!   sending fewer than three packets per minute, so it is discoverable by
//!   scanners but useless as an actual amplifier;
//! * **event inference** — per-victim aggregation with an idle timeout,
//!   a 24-hour cap on event durations (the paper notes ~0.02 % of events
//!   hit the cap), and a 100-request minimum that separates attacks from
//!   scans;
//! * **fleet merge** — per-honeypot views of the same attack are merged
//!   into one event per (victim, protocol, time window), since one attack
//!   abuses many reflectors at once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fleet;
pub mod honeypot;
pub mod sharded;

pub use event::{HoneypotDay, RequestBatch};
pub use fleet::{AmpPotFleet, FleetConfig, FleetStats};
pub use honeypot::{Honeypot, HoneypotId, Region};
pub use sharded::{route_requests, ShardedFleet};
