//! IPv4 prefix arithmetic and lightweight network identifiers.
//!
//! The paper aggregates attack targets by /24 and /16 network blocks, origin
//! AS and geolocated country. These types make those aggregations cheap and
//! type-safe: a [`Prefix24`] cannot be confused with a [`Prefix16`], and a
//! generic [`Ipv4Cidr`] supports the longest-prefix-match structures in
//! `dosscope-geo`.

use std::net::Ipv4Addr;

/// A /24 IPv4 network block, stored as the 24 high bits of the address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix24(u32);

impl Prefix24 {
    /// The /24 containing `addr`.
    #[inline]
    pub fn of(addr: Ipv4Addr) -> Prefix24 {
        Prefix24(u32::from(addr) >> 8)
    }

    /// Network address of the block (host bits zero).
    #[inline]
    pub fn network(self) -> Ipv4Addr {
        Ipv4Addr::from(self.0 << 8)
    }

    /// The raw 24-bit value (useful as a dense map key).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for Prefix24 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/24", self.network())
    }
}

/// A /16 IPv4 network block, stored as the 16 high bits of the address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix16(u32);

impl Prefix16 {
    /// The /16 containing `addr`.
    #[inline]
    pub fn of(addr: Ipv4Addr) -> Prefix16 {
        Prefix16(u32::from(addr) >> 16)
    }

    /// Network address of the block (host bits zero).
    #[inline]
    pub fn network(self) -> Ipv4Addr {
        Ipv4Addr::from(self.0 << 16)
    }

    /// The raw 16-bit value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for Prefix16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/16", self.network())
    }
}

/// An arbitrary-length IPv4 CIDR prefix.
///
/// Invariant: host bits below the prefix length are zero (enforced by
/// [`Ipv4Cidr::new`], which masks them off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Cidr {
    network: u32,
    len: u8,
}

impl Ipv4Cidr {
    /// Build a prefix, masking off any host bits. `len` is clamped to 32.
    pub fn new(addr: Ipv4Addr, len: u8) -> Ipv4Cidr {
        let len = len.min(32);
        let network = u32::from(addr) & Self::mask(len);
        Ipv4Cidr { network, len }
    }

    /// The netmask for a prefix length.
    #[inline]
    pub fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len as u32)
        }
    }

    /// Network address.
    #[inline]
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.network)
    }

    /// Prefix length in bits (not a container size — there is no
    /// corresponding `is_empty`).
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Whether `addr` falls inside this prefix.
    #[inline]
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        (u32::from(addr) & Self::mask(self.len)) == self.network
    }

    /// Whether `other` is fully contained in `self` (i.e. `self` is a
    /// supernet of — or equal to — `other`).
    pub fn covers(&self, other: &Ipv4Cidr) -> bool {
        self.len <= other.len && (other.network & Self::mask(self.len)) == self.network
    }

    /// Number of addresses in the prefix (2^(32-len)), saturating for /0.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len as u32)
    }

    /// The `i`-th address inside the prefix (wraps modulo prefix size).
    pub fn addr_at(&self, i: u64) -> Ipv4Addr {
        // The size is a power of two, so the mask is the modulo.
        let offset = (i & (self.size() - 1)) as u32;
        Ipv4Addr::from(self.network | offset)
    }

    /// First address of the prefix.
    pub fn first(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.network)
    }

    /// Last address of the prefix.
    pub fn last(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.network | !Self::mask(self.len))
    }
}

impl std::fmt::Display for Ipv4Cidr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl std::str::FromStr for Ipv4Cidr {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| format!("missing '/' in CIDR {s:?}"))?;
        let addr: Ipv4Addr = addr.parse().map_err(|e| format!("bad address: {e}"))?;
        let len: u8 = len.parse().map_err(|e| format!("bad prefix length: {e}"))?;
        if len > 32 {
            return Err(format!("prefix length {len} > 32"));
        }
        Ok(Ipv4Cidr::new(addr, len))
    }
}

/// An autonomous system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Asn(pub u32);

impl std::fmt::Display for Asn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// A two-letter ISO-3166-ish country code, stored inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CountryCode([u8; 2]);

impl CountryCode {
    /// Build from a two-ASCII-letter code; letters are uppercased.
    pub fn new(code: &str) -> CountryCode {
        let bytes = code.as_bytes();
        assert!(bytes.len() == 2, "country code must be two letters: {code:?}");
        CountryCode([
            bytes[0].to_ascii_uppercase(),
            bytes[1].to_ascii_uppercase(),
        ])
    }

    /// The code as a string slice.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("country codes are ASCII by construction")
    }

    /// Sentinel for "unknown / unmapped" addresses.
    pub const UNKNOWN: CountryCode = CountryCode(*b"??");
}

impl std::fmt::Display for CountryCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix24_roundtrip() {
        let a: Ipv4Addr = "203.0.113.77".parse().unwrap();
        let p = Prefix24::of(a);
        assert_eq!(p.network(), "203.0.113.0".parse::<Ipv4Addr>().unwrap());
        assert_eq!(p.to_string(), "203.0.113.0/24");
    }

    #[test]
    fn prefix16_of() {
        let a: Ipv4Addr = "198.51.100.1".parse().unwrap();
        assert_eq!(
            Prefix16::of(a).network(),
            "198.51.0.0".parse::<Ipv4Addr>().unwrap()
        );
    }

    #[test]
    fn cidr_contains_and_masking() {
        let c: Ipv4Cidr = "10.20.0.0/16".parse().unwrap();
        assert!(c.contains("10.20.255.255".parse().unwrap()));
        assert!(!c.contains("10.21.0.0".parse().unwrap()));
        // Host bits are masked off at construction.
        let c2 = Ipv4Cidr::new("10.20.30.40".parse().unwrap(), 16);
        assert_eq!(c2, c);
    }

    #[test]
    fn cidr_covers() {
        let wide: Ipv4Cidr = "10.0.0.0/8".parse().unwrap();
        let narrow: Ipv4Cidr = "10.20.0.0/16".parse().unwrap();
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        assert!(wide.covers(&wide));
    }

    #[test]
    fn cidr_size_and_indexing() {
        let c: Ipv4Cidr = "192.0.2.0/24".parse().unwrap();
        assert_eq!(c.size(), 256);
        assert_eq!(c.addr_at(0), "192.0.2.0".parse::<Ipv4Addr>().unwrap());
        assert_eq!(c.addr_at(255), "192.0.2.255".parse::<Ipv4Addr>().unwrap());
        assert_eq!(c.addr_at(256), "192.0.2.0".parse::<Ipv4Addr>().unwrap());
        assert_eq!(c.first(), "192.0.2.0".parse::<Ipv4Addr>().unwrap());
        assert_eq!(c.last(), "192.0.2.255".parse::<Ipv4Addr>().unwrap());
    }

    #[test]
    fn cidr_default_route() {
        let c = Ipv4Cidr::new(Ipv4Addr::UNSPECIFIED, 0);
        assert_eq!(c.len(), 0);
        assert!(c.contains("255.255.255.255".parse().unwrap()));
        assert_eq!(Ipv4Cidr::mask(0), 0);
    }

    #[test]
    fn cidr_parse_errors() {
        assert!("10.0.0.0".parse::<Ipv4Cidr>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Cidr>().is_err());
        assert!("banana/8".parse::<Ipv4Cidr>().is_err());
    }

    #[test]
    fn country_code() {
        let us = CountryCode::new("us");
        assert_eq!(us.as_str(), "US");
        assert_eq!(us, CountryCode::new("US"));
        assert_eq!(CountryCode::UNKNOWN.as_str(), "??");
    }
}
