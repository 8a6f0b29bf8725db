//! # dosscope-dns
//!
//! An OpenINTEL-style active DNS measurement data set (Section 3.2 of the
//! paper): daily snapshots of the `www` A records (plus CNAME and NS) for
//! every Web site in the `.com`, `.net` and `.org` zones, stored
//! interval-encoded so two years of daily snapshots stay queryable in
//! memory.
//!
//! The store answers the two joins the paper's analyses need:
//!
//! * **Web-site association** — which Web sites resolved to an attacked IP
//!   address on the day of an attack ([`ZoneStore::domains_on_ip`]);
//! * **hoster/DPS identification** — the CNAME and NS context of a
//!   placement, through which large hosters behind shared IPs (e.g. a
//!   reseller CNAMEd into AWS) and DPS usage are identified.
//!
//! Population synthesis (a scaled namespace with a realistic co-hosting
//! distribution) lives in [`synth`]; the measurement/query side never looks
//! at ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod cohost;
pub mod store;
pub mod synth;

pub use catalog::{OrgCatalog, OrgId, OrgRecord, OrgRole};
pub use cohost::CohostIndex;
pub use store::{DayRange, DomainId, OrgInfra, Placement, Tld, ZoneStore};
