//! # dosscope-core
//!
//! The paper's primary contribution: a framework that fuses heterogeneous
//! DoS measurement data sets — telescope backscatter events, honeypot
//! reflection events, active DNS snapshots, DPS adoption data and
//! geo/routing metadata — into a macroscopic characterization of the DoS
//! ecosystem.
//!
//! The module layout follows the paper's analysis sections:
//!
//! * [`store`] — event ingestion and the Table 1 aggregates. It is also
//!   the near-realtime fusion mode the paper's conclusion calls for:
//!   batches arrive in any order, Table 1 summaries and common targets
//!   stay current in O(1), and [`JointAnalysis::run`] gives the exact
//!   joint count at any point;
//! * [`enrich`] — geolocation and prefix-to-AS enrichment of targets;
//! * [`timeseries`] — the daily activity series of Figures 1 and 5;
//! * [`correlate`] — joint-attack correlation between the two event data
//!   sets (Section 4's 282 k common / 137 k joint targets);
//! * [`webimpact`] — the Web-association join of Section 5 (Figures 6, 7);
//! * [`migration`] — the DPS-migration analyses of Section 6 (Figures
//!   8-11, Table 9);
//! * [`mailimpact`] — the Section 8 extension: attacks on shared mail and
//!   authoritative-DNS infrastructure;
//! * [`coverage`] — the Section 8 extension: fusing a third attack data
//!   source (botnet C&C monitoring) and measuring the blind spot of the
//!   two primary infrastructures;
//! * [`report`] — typed table/figure structures with text rendering, one
//!   per published table and figure.
//!
//! The analysis consumes detector outputs and measurement data sets only;
//! it has no access to the generator's ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ascii;
pub mod correlate;
pub mod coverage;
pub mod enrich;
pub mod mailimpact;
pub mod migration;
pub mod report;
pub mod store;
pub mod timeseries;
pub mod webimpact;

pub use correlate::{JointAnalysis, JointStats};
pub use enrich::Enricher;
pub use store::{EventStore, SourceSummary};

use dosscope_dns::{OrgCatalog, ZoneStore};
use dosscope_dps::DpsDataset;
use dosscope_geo::{AsDb, GeoDb};
use dosscope_types::DayIndex;

/// The assembled framework: events plus every side data set the analyses
/// join against.
pub struct Framework<'a> {
    /// Ingested events (both sources), borrowed: assembling a framework
    /// never copies the event lists, so it is free to build one per
    /// analysis over the same store.
    pub store: &'a EventStore,
    /// Geolocation database.
    pub geo: &'a GeoDb,
    /// Prefix-to-AS database.
    pub asdb: &'a AsDb,
    /// Active DNS measurement (None disables Web/migration analyses).
    pub zone: Option<&'a ZoneStore>,
    /// Organisation catalog for hoster identification.
    pub catalog: Option<&'a OrgCatalog>,
    /// DPS adoption data set.
    pub dps: Option<&'a DpsDataset>,
    /// Window length in days.
    pub days: u32,
}

impl<'a> Framework<'a> {
    /// Assemble a framework over ingested events and metadata.
    pub fn new(store: &'a EventStore, geo: &'a GeoDb, asdb: &'a AsDb, days: u32) -> Framework<'a> {
        Framework {
            store,
            geo,
            asdb,
            zone: None,
            catalog: None,
            dps: None,
            days,
        }
    }

    /// Attach the active DNS measurement and organisation catalog
    /// (enables the Section 5 analyses).
    pub fn with_dns(mut self, zone: &'a ZoneStore, catalog: &'a OrgCatalog) -> Self {
        self.zone = Some(zone);
        self.catalog = Some(catalog);
        self
    }

    /// Attach the DPS adoption data set (enables the Section 6 analyses).
    pub fn with_dps(mut self, dps: &'a DpsDataset) -> Self {
        self.dps = Some(dps);
        self
    }

    /// The last day of the window.
    pub fn last_day(&self) -> DayIndex {
        DayIndex(self.days.saturating_sub(1))
    }
}
