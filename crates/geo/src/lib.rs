//! # dosscope-geo
//!
//! Address metadata for the dosscope analyses: a longest-prefix-match
//! [`PrefixMap`] (the structure behind both databases), an IP-geolocation
//! database ([`GeoDb`], standing in for NetAcuity Edge), a prefix-to-AS
//! database ([`AsDb`], standing in for CAIDA's Routeviews pfx2as), and a
//! synthetic-but-realistic [`registry`] that plans the simulated IPv4
//! address space (countries, autonomous systems, hosters, the darknet).
//!
//! The lookup code paths are the real thing — the paper enriches every
//! attack target with geolocation and origin AS exactly like
//! [`GeoDb::country_of`]/[`AsDb::asn_of`] do; only the database contents
//! are synthetic (see DESIGN.md for the substitution argument).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod registry;
pub mod trie;

pub use registry::{AsInfo, AsRegistry, OrgKind, RegistryConfig};
pub use trie::PrefixMap;

use dosscope_types::{Asn, CountryCode, Ipv4Cidr};
use std::net::Ipv4Addr;

/// IP-geolocation database: longest-prefix match from address to country.
///
/// Stands in for the NetAcuity Edge Premium data the paper uses to add
/// country metadata to attack targets.
#[derive(Debug, Default, Clone)]
pub struct GeoDb {
    map: PrefixMap<CountryCode>,
}

impl GeoDb {
    /// Empty database.
    pub fn new() -> GeoDb {
        GeoDb::default()
    }

    /// Register a prefix as geolocating to `country`.
    pub fn insert(&mut self, prefix: Ipv4Cidr, country: CountryCode) {
        self.map.insert(prefix, country);
    }

    /// The country an address geolocates to, if covered.
    pub fn country_of(&self, addr: Ipv4Addr) -> Option<CountryCode> {
        self.map.lookup(addr).map(|(_, c)| *c)
    }

    /// Number of prefixes in the database.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no prefixes are registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Prefix-to-AS database: longest-prefix match from address to origin ASN.
///
/// Stands in for the Routeviews pfx2as mapping the paper uses for BGP
/// routing metadata.
#[derive(Debug, Default, Clone)]
pub struct AsDb {
    map: PrefixMap<Asn>,
}

impl AsDb {
    /// Empty database.
    pub fn new() -> AsDb {
        AsDb::default()
    }

    /// Register a prefix as originated by `asn`.
    pub fn insert(&mut self, prefix: Ipv4Cidr, asn: Asn) {
        self.map.insert(prefix, asn);
    }

    /// The origin AS of an address, if covered.
    pub fn asn_of(&self, addr: Ipv4Addr) -> Option<Asn> {
        self.map.lookup(addr).map(|(_, a)| *a)
    }

    /// Number of prefixes in the database.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no prefixes are registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geodb_lpm_prefers_longer_prefix() {
        let mut db = GeoDb::new();
        db.insert("10.0.0.0/8".parse().unwrap(), CountryCode::new("US"));
        db.insert("10.1.0.0/16".parse().unwrap(), CountryCode::new("DE"));
        assert_eq!(
            db.country_of("10.1.2.3".parse().unwrap()),
            Some(CountryCode::new("DE"))
        );
        assert_eq!(
            db.country_of("10.2.2.3".parse().unwrap()),
            Some(CountryCode::new("US"))
        );
        assert_eq!(db.country_of("11.0.0.1".parse().unwrap()), None);
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn asdb_route_lookup() {
        let mut db = AsDb::new();
        let p: Ipv4Cidr = "192.0.2.0/24".parse().unwrap();
        db.insert(p, Asn(64500));
        assert_eq!(db.asn_of("192.0.2.200".parse().unwrap()), Some(Asn(64500)));
        assert_eq!(db.asn_of("192.0.3.1".parse().unwrap()), None);
    }
}
