//! Target enrichment: geolocation and BGP origin metadata, the joins the
//! paper applies to every attack target (Section 3.1.3).

use dosscope_geo::{AsDb, GeoDb};
use dosscope_types::{Asn, AttackEvent, CountryCode, FastMap, Prefix16, Prefix24};
use std::net::Ipv4Addr;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// An event with its target metadata attached.
#[derive(Debug, Clone)]
pub struct EnrichedEvent<'a> {
    /// The underlying event.
    pub event: &'a AttackEvent,
    /// Geolocated country of the target (`??` when unmapped).
    pub country: CountryCode,
    /// BGP origin AS of the target, if routed.
    pub asn: Option<Asn>,
    /// The target's /24 block.
    pub block24: Prefix24,
    /// The target's /16 block.
    pub block16: Prefix16,
}

/// Enrichment service with a per-address memo (targets repeat heavily, so
/// the two LPM lookups per address are paid once).
pub struct Enricher<'a> {
    geo: &'a GeoDb,
    asdb: &'a AsDb,
    cache: Mutex<FastMap<Ipv4Addr, (CountryCode, Option<Asn>)>>,
}

impl<'a> Enricher<'a> {
    /// New enricher over the two metadata databases.
    pub fn new(geo: &'a GeoDb, asdb: &'a AsDb) -> Enricher<'a> {
        Enricher {
            geo,
            asdb,
            cache: Mutex::new(FastMap::default()),
        }
    }

    /// Metadata for one address.
    pub fn lookup(&self, addr: Ipv4Addr) -> (CountryCode, Option<Asn>) {
        if let Some(hit) = self.cache().get(&addr) {
            return *hit;
        }
        let country = self.geo.country_of(addr).unwrap_or(CountryCode::UNKNOWN);
        let asn = self.asdb.asn_of(addr);
        self.cache().insert(addr, (country, asn));
        (country, asn)
    }

    /// The memo, recovered from poisoning: entries are inserted whole, so
    /// a panic elsewhere never leaves a half-written one behind.
    fn cache(&self) -> MutexGuard<'_, FastMap<Ipv4Addr, (CountryCode, Option<Asn>)>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enrich one event.
    pub fn enrich<'e>(&self, event: &'e AttackEvent) -> EnrichedEvent<'e> {
        let (country, asn) = self.lookup(event.target);
        EnrichedEvent {
            event,
            country,
            asn,
            block24: Prefix24::of(event.target),
            block16: Prefix16::of(event.target),
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use dosscope_types::{AttackVector, PortSignature, SimTime, TimeRange, TransportProto};

    fn event(ip: &str) -> AttackEvent {
        AttackEvent {
            target: ip.parse().unwrap(),
            when: TimeRange::new(SimTime(0), SimTime(100)),
            vector: AttackVector::RandomlySpoofed {
                proto: TransportProto::Tcp,
                ports: PortSignature::Single(80),
            },
            packets: 100,
            bytes: 4000,
            intensity_pps: 1.0,
            distinct_sources: 10,
        }
    }

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
        let e = event("203.0.113.9");
        let en = enricher.enrich(&e);
        assert_eq!(en.country, CountryCode::new("NL"));
        assert_eq!(en.asn, Some(Asn(64496)));
        assert_eq!(en.block24.network().to_string(), "203.0.113.0");
        assert_eq!(en.block16.network().to_string(), "203.0.0.0");
    }

    #[test]
    fn enrich_unknown_target() {
        let (geo, asdb) = dbs();
        let enricher = Enricher::new(&geo, &asdb);
        let e = event("8.8.8.8");
        let en = enricher.enrich(&e);
        assert_eq!(en.country, CountryCode::UNKNOWN);
        assert_eq!(en.asn, None);
    }

    #[test]
    fn cache_consistency() {
        let (geo, asdb) = dbs();
        let enricher = Enricher::new(&geo, &asdb);
        let a = enricher.lookup("203.0.113.9".parse().unwrap());
        let b = enricher.lookup("203.0.113.9".parse().unwrap());
        assert_eq!(a, b);
    }
}
