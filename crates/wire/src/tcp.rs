//! Zero-copy TCP segment view.
//!
//! The telescope classifier only needs header fields (ports, flags), but the
//! view is complete enough to build valid SYN/ACK and RST backscatter
//! segments with correct checksums.

use crate::{checksum, Result, WireError};
use std::net::Ipv4Addr;

/// TCP header flags (lower 6 bits of byte 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag bit.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN flag bit.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST flag bit.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH flag bit.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK flag bit.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG flag bit.
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// Whether all bits of `other` are set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two flag sets.
    pub fn union(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }

    /// The SYN/ACK combination: the signature of backscatter from a SYN
    /// flood against an open port.
    pub fn is_syn_ack(self) -> bool {
        self.contains(TcpFlags::SYN.union(TcpFlags::ACK)) && !self.contains(TcpFlags::RST)
    }

    /// Whether RST is set: backscatter from a flood against a closed port
    /// or a stateless responder.
    pub fn is_rst(self) -> bool {
        self.contains(TcpFlags::RST)
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        self.union(rhs)
    }
}

/// Minimum TCP header length (no options).
pub const HEADER_LEN: usize = 20;

mod field {
    pub const SRC_PORT: core::ops::Range<usize> = 0..2;
    pub const DST_PORT: core::ops::Range<usize> = 2..4;
    pub const SEQ: core::ops::Range<usize> = 4..8;
    pub const ACK: core::ops::Range<usize> = 8..12;
    pub const DATA_OFF: usize = 12;
    pub const FLAGS: usize = 13;
    pub const WINDOW: core::ops::Range<usize> = 14..16;
    pub const CHECKSUM: core::ops::Range<usize> = 16..18;
}

/// A typed view over a TCP segment buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpSegment<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> TcpSegment<T> {
    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> TcpSegment<T> {
        TcpSegment { buffer }
    }

    /// Wrap, requiring at least a full fixed header and a consistent data
    /// offset.
    pub fn new_checked(buffer: T) -> Result<TcpSegment<T>> {
        let s = TcpSegment { buffer };
        let data = s.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let off = ((data[field::DATA_OFF] >> 4) as usize) * 4;
        if off < HEADER_LEN || off > data.len() {
            return Err(WireError::BadLength);
        }
        Ok(s)
    }

    /// Consume the view, returning the buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[0], d[1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[2], d[3]])
    }

    /// Sequence number.
    pub fn seq(&self) -> u32 {
        let d = self.buffer.as_ref();
        u32::from_be_bytes([d[4], d[5], d[6], d[7]])
    }

    /// Acknowledgment number.
    pub fn ack(&self) -> u32 {
        let d = self.buffer.as_ref();
        u32::from_be_bytes([d[8], d[9], d[10], d[11]])
    }

    /// Header flags.
    pub fn flags(&self) -> TcpFlags {
        TcpFlags(self.buffer.as_ref()[field::FLAGS] & 0x3F)
    }

    /// Data offset (header length) in bytes.
    pub fn header_len(&self) -> usize {
        ((self.buffer.as_ref()[field::DATA_OFF] >> 4) as usize) * 4
    }

    /// Advertised receive window.
    pub fn window(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[14], d[15]])
    }

    /// Verify the checksum against the pseudo-header for `src`/`dst`.
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        checksum::verify_transport(src, dst, 6, self.buffer.as_ref())
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> TcpSegment<T> {
    /// Initialize a minimal header: data offset 5 words, everything else 0.
    pub fn init(&mut self) {
        let d = self.buffer.as_mut();
        d[..HEADER_LEN].fill(0);
        d[field::DATA_OFF] = 0x50;
    }

    /// Set the source port.
    pub fn set_src_port(&mut self, p: u16) {
        self.buffer.as_mut()[field::SRC_PORT].copy_from_slice(&p.to_be_bytes());
    }

    /// Set the destination port.
    pub fn set_dst_port(&mut self, p: u16) {
        self.buffer.as_mut()[field::DST_PORT].copy_from_slice(&p.to_be_bytes());
    }

    /// Set the sequence number.
    pub fn set_seq(&mut self, v: u32) {
        self.buffer.as_mut()[field::SEQ].copy_from_slice(&v.to_be_bytes());
    }

    /// Set the acknowledgment number.
    pub fn set_ack(&mut self, v: u32) {
        self.buffer.as_mut()[field::ACK].copy_from_slice(&v.to_be_bytes());
    }

    /// Set the flag bits.
    pub fn set_flags(&mut self, f: TcpFlags) {
        self.buffer.as_mut()[field::FLAGS] = f.0 & 0x3F;
    }

    /// Set the advertised window.
    pub fn set_window(&mut self, w: u16) {
        self.buffer.as_mut()[field::WINDOW].copy_from_slice(&w.to_be_bytes());
    }

    /// Compute and store the checksum for the given pseudo-header.
    pub fn fill_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        let d = self.buffer.as_mut();
        d[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let ck = checksum::transport_checksum(src, dst, 6, d);
        d[field::CHECKSUM].copy_from_slice(&ck.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "203.0.113.5";
    const DST: &str = "192.0.2.99";

    fn addrs() -> (Ipv4Addr, Ipv4Addr) {
        (SRC.parse().unwrap(), DST.parse().unwrap())
    }

    #[test]
    fn synack_roundtrip() {
        let (src, dst) = addrs();
        let mut buf = [0u8; HEADER_LEN];
        let mut s = TcpSegment::new_unchecked(&mut buf[..]);
        s.init();
        s.set_src_port(80);
        s.set_dst_port(51111);
        s.set_seq(0x11223344);
        s.set_ack(0x55667788);
        s.set_flags(TcpFlags::SYN | TcpFlags::ACK);
        s.set_window(65535);
        s.fill_checksum(src, dst);

        let v = TcpSegment::new_checked(&buf[..]).unwrap();
        assert_eq!(v.src_port(), 80);
        assert_eq!(v.dst_port(), 51111);
        assert_eq!(v.seq(), 0x11223344);
        assert_eq!(v.ack(), 0x55667788);
        assert!(v.flags().is_syn_ack());
        assert!(!v.flags().is_rst());
        assert_eq!(v.window(), 65535);
        assert!(v.verify_checksum(src, dst));
        let other: Ipv4Addr = "192.0.2.1".parse().unwrap();
        assert!(!v.verify_checksum(other, dst));
    }

    #[test]
    fn rst_flag() {
        let mut buf = [0u8; HEADER_LEN];
        let mut s = TcpSegment::new_unchecked(&mut buf[..]);
        s.init();
        s.set_flags(TcpFlags::RST | TcpFlags::ACK);
        let v = TcpSegment::new_checked(&buf[..]).unwrap();
        assert!(v.flags().is_rst());
        assert!(!v.flags().is_syn_ack());
    }

    #[test]
    fn flags_algebra() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::FIN));
        // RST+SYN+ACK is not counted as a SYN/ACK.
        assert!(!(f | TcpFlags::RST).is_syn_ack());
    }

    #[test]
    fn rejects_truncated() {
        assert_eq!(
            TcpSegment::new_checked(&[0u8; 19][..]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn rejects_bad_data_offset() {
        let mut buf = [0u8; HEADER_LEN];
        buf[field::DATA_OFF] = 0xF0; // 60-byte header > 20-byte buffer
        assert_eq!(
            TcpSegment::new_checked(&buf[..]).unwrap_err(),
            WireError::BadLength
        );
    }
}
