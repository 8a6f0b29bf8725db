//! Target enrichment: geolocation and BGP origin metadata, the joins the
//! paper applies to every attack target (Section 3.1.3).
//!
//! A lookup is two longest-prefix matches and nothing is memoised: Table 1,
//! Table 4 and the joint correlation walk each distinct target once, so a
//! memo there is filled but never hit, and the daily series, which look
//! up every event, run no slower without one.

use dosscope_geo::{AsDb, GeoDb};
use dosscope_types::{Asn, CountryCode};
use std::net::Ipv4Addr;

/// Enrichment service over the geolocation and prefix-to-AS databases.
pub struct Enricher<'a> {
    geo: &'a GeoDb,
    asdb: &'a AsDb,
}

impl<'a> Enricher<'a> {
    /// New enricher over the two metadata databases.
    pub fn new(geo: &'a GeoDb, asdb: &'a AsDb) -> Enricher<'a> {
        Enricher { geo, asdb }
    }

    /// Metadata for one address: its country (`??` when unmapped) and
    /// BGP origin AS, if routed.
    pub fn lookup(&self, addr: Ipv4Addr) -> (CountryCode, Option<Asn>) {
        let country = self.geo.country_of(addr).unwrap_or(CountryCode::UNKNOWN);
        (country, self.asdb.asn_of(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dbs() -> (GeoDb, AsDb) {
        let mut geo = GeoDb::new();
        let mut asdb = AsDb::new();
        geo.insert("203.0.113.0/24".parse().unwrap(), CountryCode::new("NL"));
        asdb.insert("203.0.113.0/24".parse().unwrap(), Asn(64496));
        (geo, asdb)
    }

    #[test]
    fn enrich_known_target() {
        let (geo, asdb) = dbs();
        let enricher = Enricher::new(&geo, &asdb);
        let (country, asn) = enricher.lookup("203.0.113.9".parse().unwrap());
        assert_eq!(country, CountryCode::new("NL"));
        assert_eq!(asn, Some(Asn(64496)));
    }

    #[test]
    fn enrich_unknown_target() {
        let (geo, asdb) = dbs();
        let enricher = Enricher::new(&geo, &asdb);
        let (country, asn) = enricher.lookup("8.8.8.8".parse().unwrap());
        assert_eq!(country, CountryCode::UNKNOWN);
        assert_eq!(asn, None);
    }
}
