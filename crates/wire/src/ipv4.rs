//! Zero-copy IPv4 header view and field accessors.
//!
//! [`Ipv4Packet`] wraps any `AsRef<[u8]>` buffer and exposes typed getters;
//! with `AsMut<[u8]>` it also exposes setters and checksum filling, so the
//! same type serves parsing (telescope ingest) and building (attack
//! rendering).

use crate::{checksum, Result, WireError};
use std::net::Ipv4Addr;

/// IP protocol numbers the simulators care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp,
    /// IGMP (2) — appears in the paper's "Other" protocol class.
    Igmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Any other protocol number.
    Unknown(u8),
}

impl From<u8> for IpProtocol {
    fn from(v: u8) -> IpProtocol {
        match v {
            1 => IpProtocol::Icmp,
            2 => IpProtocol::Igmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Unknown(other),
        }
    }
}

impl From<IpProtocol> for u8 {
    fn from(p: IpProtocol) -> u8 {
        match p {
            IpProtocol::Icmp => 1,
            IpProtocol::Igmp => 2,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Unknown(v) => v,
        }
    }
}

impl std::fmt::Display for IpProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IpProtocol::Icmp => f.write_str("ICMP"),
            IpProtocol::Igmp => f.write_str("IGMP"),
            IpProtocol::Tcp => f.write_str("TCP"),
            IpProtocol::Udp => f.write_str("UDP"),
            IpProtocol::Unknown(v) => write!(f, "proto-{v}"),
        }
    }
}

mod field {
    pub const VER_IHL: usize = 0;
    pub const DSCP_ECN: usize = 1;
    pub const TOTAL_LEN: core::ops::Range<usize> = 2..4;
    pub const IDENT: core::ops::Range<usize> = 4..6;
    pub const FLAGS_FRAG: core::ops::Range<usize> = 6..8;
    pub const TTL: usize = 8;
    pub const PROTOCOL: usize = 9;
    pub const CHECKSUM: core::ops::Range<usize> = 10..12;
    pub const SRC: core::ops::Range<usize> = 12..16;
    pub const DST: core::ops::Range<usize> = 16..20;
}

/// Minimum IPv4 header length in bytes (no options).
pub const HEADER_LEN: usize = 20;

/// A typed view over an IPv4 packet buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wrap a buffer without validation (setters need this before the
    /// header fields exist). Accessors may panic on truncated buffers;
    /// prefer [`Ipv4Packet::new_checked`] for untrusted input.
    pub fn new_unchecked(buffer: T) -> Ipv4Packet<T> {
        Ipv4Packet { buffer }
    }

    /// Wrap and validate: version, header length and total length must be
    /// consistent with the buffer.
    pub fn new_checked(buffer: T) -> Result<Ipv4Packet<T>> {
        let p = Ipv4Packet { buffer };
        p.check_len()?;
        if p.version() != 4 {
            return Err(WireError::BadVersion);
        }
        Ok(p)
    }

    fn check_len(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let hl = ((data[field::VER_IHL] & 0x0F) as usize) * 4;
        if hl < HEADER_LEN || hl > data.len() {
            return Err(WireError::BadLength);
        }
        let total = u16::from_be_bytes([data[2], data[3]]) as usize;
        if total < hl || total > data.len() {
            return Err(WireError::BadLength);
        }
        Ok(())
    }

    /// Consume the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// IP version field.
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[field::VER_IHL] >> 4
    }

    /// Header length in bytes.
    pub fn header_len(&self) -> usize {
        ((self.buffer.as_ref()[field::VER_IHL] & 0x0F) as usize) * 4
    }

    /// Total packet length in bytes (header + payload).
    pub fn total_len(&self) -> usize {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[field::TOTAL_LEN.start], d[field::TOTAL_LEN.start + 1]]) as usize
    }

    /// Identification field.
    pub fn ident(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[field::IDENT.start], d[field::IDENT.start + 1]])
    }

    /// Time-to-live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[field::TTL]
    }

    /// Upper-layer protocol.
    pub fn protocol(&self) -> IpProtocol {
        IpProtocol::from(self.buffer.as_ref()[field::PROTOCOL])
    }

    /// Source address.
    pub fn src(&self) -> Ipv4Addr {
        let d = self.buffer.as_ref();
        Ipv4Addr::new(d[12], d[13], d[14], d[15])
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv4Addr {
        let d = self.buffer.as_ref();
        Ipv4Addr::new(d[16], d[17], d[18], d[19])
    }

    /// The payload bytes (between header and total length).
    pub fn payload(&self) -> &[u8] {
        let d = self.buffer.as_ref();
        &d[self.header_len()..self.total_len()]
    }

    /// Verify the header checksum.
    pub fn verify_checksum(&self) -> bool {
        let d = self.buffer.as_ref();
        checksum::verify(&d[..self.header_len()])
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    /// Initialize a default header: version 4, IHL 5, TTL 64.
    pub fn init(&mut self) {
        let d = self.buffer.as_mut();
        d[field::VER_IHL] = 0x45;
        d[field::DSCP_ECN] = 0;
        d[field::FLAGS_FRAG.start] = 0x40; // don't fragment
        d[field::FLAGS_FRAG.start + 1] = 0;
        d[field::TTL] = 64;
    }

    /// Set the total length field.
    pub fn set_total_len(&mut self, len: u16) {
        self.buffer.as_mut()[field::TOTAL_LEN].copy_from_slice(&len.to_be_bytes());
    }

    /// Set the identification field.
    pub fn set_ident(&mut self, id: u16) {
        self.buffer.as_mut()[field::IDENT].copy_from_slice(&id.to_be_bytes());
    }

    /// Set the protocol field.
    pub fn set_protocol(&mut self, p: IpProtocol) {
        self.buffer.as_mut()[field::PROTOCOL] = p.into();
    }

    /// Set the source address.
    pub fn set_src(&mut self, a: Ipv4Addr) {
        self.buffer.as_mut()[field::SRC].copy_from_slice(&a.octets());
    }

    /// Set the destination address.
    pub fn set_dst(&mut self, a: Ipv4Addr) {
        self.buffer.as_mut()[field::DST].copy_from_slice(&a.octets());
    }

    /// Mutable access to the payload region.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let hl = self.header_len();
        let total = self.total_len();
        &mut self.buffer.as_mut()[hl..total]
    }

    /// Compute and store the header checksum.
    pub fn fill_checksum(&mut self) {
        let hl = self.header_len();
        let d = self.buffer.as_mut();
        d[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let ck = checksum::checksum(&d[..hl]);
        d[field::CHECKSUM].copy_from_slice(&ck.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_simple(payload_len: usize) -> Vec<u8> {
        let total = HEADER_LEN + payload_len;
        let mut buf = vec![0u8; total];
        let mut p = Ipv4Packet::new_unchecked(&mut buf[..]);
        p.init();
        p.set_total_len(total as u16);
        p.set_protocol(IpProtocol::Tcp);
        p.set_src("192.0.2.1".parse().unwrap());
        p.set_dst("198.51.100.7".parse().unwrap());
        p.set_ident(0xBEEF);
        p.fill_checksum();
        buf
    }

    #[test]
    fn roundtrip_fields() {
        let buf = build_simple(8);
        let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.version(), 4);
        assert_eq!(p.header_len(), 20);
        assert_eq!(p.total_len(), 28);
        assert_eq!(p.protocol(), IpProtocol::Tcp);
        assert_eq!(p.src(), "192.0.2.1".parse::<Ipv4Addr>().unwrap());
        assert_eq!(p.dst(), "198.51.100.7".parse::<Ipv4Addr>().unwrap());
        assert_eq!(p.ident(), 0xBEEF);
        assert_eq!(p.ttl(), 64);
        assert!(p.verify_checksum());
        assert_eq!(p.payload().len(), 8);
    }

    #[test]
    fn corrupt_checksum_detected() {
        let mut buf = build_simple(0);
        buf[8] ^= 0xFF; // flip TTL
        let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(!p.verify_checksum());
    }

    #[test]
    fn rejects_truncated() {
        assert_eq!(
            Ipv4Packet::new_checked(&[0u8; 10][..]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = build_simple(0);
        buf[0] = 0x65; // version 6
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            WireError::BadVersion
        );
    }

    #[test]
    fn rejects_total_len_beyond_buffer() {
        let mut buf = build_simple(0);
        buf[2..4].copy_from_slice(&100u16.to_be_bytes());
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            WireError::BadLength
        );
    }

    #[test]
    fn rejects_short_ihl() {
        let mut buf = build_simple(0);
        buf[0] = 0x43; // IHL = 3 words < 20 bytes
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            WireError::BadLength
        );
    }

    #[test]
    fn protocol_number_roundtrip() {
        for v in [1u8, 2, 6, 17, 89, 255] {
            assert_eq!(u8::from(IpProtocol::from(v)), v);
        }
    }

    #[test]
    fn payload_mut_respects_bounds() {
        let total = HEADER_LEN + 4;
        let mut buf = vec![0u8; total + 6]; // slack after total_len
        let mut p = Ipv4Packet::new_unchecked(&mut buf[..]);
        p.init();
        p.set_total_len(total as u16);
        p.payload_mut().copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(&buf[20..24], &[1, 2, 3, 4]);
        assert_eq!(&buf[24..], &[0; 6]);
    }
}
