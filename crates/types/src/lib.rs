//! # dosscope-types
//!
//! Shared domain types for the `dosscope` workspace: simulation time and
//! calendar handling, IPv4 prefix arithmetic, the unified attack-event model
//! produced by the measurement pipelines, and a small statistics toolkit
//! (empirical CDFs, percentiles, log-binned histograms, daily time series)
//! used by the analysis and reporting layers.
//!
//! The crate is std-only: its single dependency is the workspace's own
//! `dosscope-obs` telemetry layer (itself std-only), so every other
//! crate in the workspace can build on it without pulling in anything
//! external.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytes;
pub mod event;
pub mod fasthash;
pub mod idle;
pub mod index;
pub mod intern;
pub mod net;
pub mod pool;
pub mod service;
pub mod shard;
pub mod stats;
pub mod time;

pub use bytes::{CaptureDay, CaptureRow, SharedBytes};
pub use event::{
    AttackEvent, AttackVector, EventSource, PortSignature, ReflectionProtocol, TransportProto,
};
pub use fasthash::{FastBuildHasher, FastMap, FastSet, FxHasher};
pub use idle::{IdleMap, LastActive};
pub use index::BitSet;
pub use intern::Interner;
pub use net::{Asn, CountryCode, Ipv4Cidr, Prefix16, Prefix24};
pub use pool::{merge_shards, Routed, Shard, ShardPool};
pub use shard::shard_of_source;
pub use stats::{rank, tally, Ecdf, FrozenEcdf, LogHistogram, TimeSeries};
pub use time::{
    CalendarDate, DayIndex, SimTime, TimeRange, SECS_PER_DAY, SECS_PER_HOUR, SECS_PER_MINUTE,
};
