//! Zero-copy ICMPv4 packet view, covering every message type in the
//! telescope's backscatter taxonomy, with access to the quoted inner packet
//! of error messages.

use crate::{checksum, ipv4::Ipv4Packet, Result, WireError};

/// ICMP header length (type, code, checksum, rest-of-header).
pub const HEADER_LEN: usize = 8;

/// ICMPv4 message types relevant to DoS backscatter analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Icmpv4Message {
    /// Type 0 — reply to a ping; backscatter of ICMP echo floods.
    EchoReply,
    /// Type 3 — destination unreachable; quotes the offending packet.
    DestUnreachable,
    /// Type 4 — source quench (deprecated but in the taxonomy).
    SourceQuench,
    /// Type 5 — redirect.
    Redirect,
    /// Type 8 — echo request (not a response; never backscatter).
    EchoRequest,
    /// Type 11 — time exceeded; quotes the offending packet.
    TimeExceeded,
    /// Type 12 — parameter problem; quotes the offending packet.
    ParameterProblem,
    /// Type 13 — timestamp request.
    TimestampRequest,
    /// Type 14 — timestamp reply.
    TimestampReply,
    /// Type 15 — information request (historic).
    InformationRequest,
    /// Type 16 — information reply (historic).
    InformationReply,
    /// Type 17 — address mask request.
    AddressMaskRequest,
    /// Type 18 — address mask reply.
    AddressMaskReply,
    /// Any other type value.
    Unknown(u8),
}

impl From<u8> for Icmpv4Message {
    fn from(v: u8) -> Icmpv4Message {
        match v {
            0 => Icmpv4Message::EchoReply,
            3 => Icmpv4Message::DestUnreachable,
            4 => Icmpv4Message::SourceQuench,
            5 => Icmpv4Message::Redirect,
            8 => Icmpv4Message::EchoRequest,
            11 => Icmpv4Message::TimeExceeded,
            12 => Icmpv4Message::ParameterProblem,
            13 => Icmpv4Message::TimestampRequest,
            14 => Icmpv4Message::TimestampReply,
            15 => Icmpv4Message::InformationRequest,
            16 => Icmpv4Message::InformationReply,
            17 => Icmpv4Message::AddressMaskRequest,
            18 => Icmpv4Message::AddressMaskReply,
            other => Icmpv4Message::Unknown(other),
        }
    }
}

impl From<Icmpv4Message> for u8 {
    fn from(m: Icmpv4Message) -> u8 {
        match m {
            Icmpv4Message::EchoReply => 0,
            Icmpv4Message::DestUnreachable => 3,
            Icmpv4Message::SourceQuench => 4,
            Icmpv4Message::Redirect => 5,
            Icmpv4Message::EchoRequest => 8,
            Icmpv4Message::TimeExceeded => 11,
            Icmpv4Message::ParameterProblem => 12,
            Icmpv4Message::TimestampRequest => 13,
            Icmpv4Message::TimestampReply => 14,
            Icmpv4Message::InformationRequest => 15,
            Icmpv4Message::InformationReply => 16,
            Icmpv4Message::AddressMaskRequest => 17,
            Icmpv4Message::AddressMaskReply => 18,
            Icmpv4Message::Unknown(v) => v,
        }
    }
}

impl Icmpv4Message {
    /// Whether this message is a *response* generated by (or on behalf of)
    /// a host — the ICMP portion of the Moore et al. backscatter taxonomy:
    /// echo reply, destination unreachable, source quench, redirect, time
    /// exceeded, parameter problem, timestamp reply, information reply and
    /// address mask reply.
    pub fn is_response(self) -> bool {
        matches!(
            self,
            Icmpv4Message::EchoReply
                | Icmpv4Message::DestUnreachable
                | Icmpv4Message::SourceQuench
                | Icmpv4Message::Redirect
                | Icmpv4Message::TimeExceeded
                | Icmpv4Message::ParameterProblem
                | Icmpv4Message::TimestampReply
                | Icmpv4Message::InformationReply
                | Icmpv4Message::AddressMaskReply
        )
    }

    /// Whether this is an error message that quotes the offending packet
    /// after its 8-byte header.
    pub fn quotes_packet(self) -> bool {
        matches!(
            self,
            Icmpv4Message::DestUnreachable
                | Icmpv4Message::SourceQuench
                | Icmpv4Message::Redirect
                | Icmpv4Message::TimeExceeded
                | Icmpv4Message::ParameterProblem
        )
    }
}

/// A typed view over an ICMPv4 packet buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Icmpv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Icmpv4Packet<T> {
    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Icmpv4Packet<T> {
        Icmpv4Packet { buffer }
    }

    /// Wrap, requiring the 8-byte fixed header.
    pub fn new_checked(buffer: T) -> Result<Icmpv4Packet<T>> {
        let p = Icmpv4Packet { buffer };
        if p.buffer.as_ref().len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        Ok(p)
    }

    /// Consume the view, returning the buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Message type.
    pub fn message(&self) -> Icmpv4Message {
        Icmpv4Message::from(self.buffer.as_ref()[0])
    }

    /// Code field.
    pub fn code(&self) -> u8 {
        self.buffer.as_ref()[1]
    }

    /// Identifier field of echo/timestamp/info messages.
    pub fn ident(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[4], d[5]])
    }

    /// Sequence-number field of echo/timestamp/info messages.
    pub fn seq_no(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[6], d[7]])
    }

    /// Bytes after the fixed header: echo payload, or the quoted packet of
    /// an error message.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..]
    }

    /// For error messages, the quoted (inner) IPv4 packet. RFC 792 requires
    /// the inner header plus at least 8 payload bytes; we accept whatever
    /// prefix is present as long as the inner IPv4 header validates
    /// (telescope attribution only needs protocol and ports).
    pub fn quoted_packet(&self) -> Option<Ipv4Packet<&[u8]>> {
        if !self.message().quotes_packet() {
            return None;
        }
        Ipv4Packet::new_checked(self.payload()).ok()
    }

    /// Verify the ICMP checksum (computed over the entire ICMP packet).
    pub fn verify_checksum(&self) -> bool {
        checksum::verify(self.buffer.as_ref())
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Icmpv4Packet<T> {
    /// Set the message type.
    pub fn set_message(&mut self, m: Icmpv4Message) {
        self.buffer.as_mut()[0] = m.into();
    }

    /// Set the code field.
    pub fn set_code(&mut self, c: u8) {
        self.buffer.as_mut()[1] = c;
    }

    /// Set the identifier field.
    pub fn set_ident(&mut self, v: u16) {
        self.buffer.as_mut()[4..6].copy_from_slice(&v.to_be_bytes());
    }

    /// Set the sequence-number field.
    pub fn set_seq_no(&mut self, v: u16) {
        self.buffer.as_mut()[6..8].copy_from_slice(&v.to_be_bytes());
    }

    /// Mutable access to the region after the fixed header.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[HEADER_LEN..]
    }

    /// Compute and store the checksum.
    pub fn fill_checksum(&mut self) {
        let d = self.buffer.as_mut();
        d[2..4].copy_from_slice(&[0, 0]);
        let ck = checksum::checksum(d);
        d[2..4].copy_from_slice(&ck.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::{self, IpProtocol};

    #[test]
    fn echo_reply_roundtrip() {
        let mut buf = [0u8; HEADER_LEN + 4];
        let mut p = Icmpv4Packet::new_unchecked(&mut buf[..]);
        p.set_message(Icmpv4Message::EchoReply);
        p.set_code(0);
        p.set_ident(0x1234);
        p.set_seq_no(7);
        p.payload_mut().copy_from_slice(b"abcd");
        p.fill_checksum();

        let v = Icmpv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(v.message(), Icmpv4Message::EchoReply);
        assert_eq!(v.ident(), 0x1234);
        assert_eq!(v.seq_no(), 7);
        assert_eq!(v.payload(), b"abcd");
        assert!(v.verify_checksum());
        assert!(v.message().is_response());
        assert!(v.quoted_packet().is_none());
    }

    #[test]
    fn corrupt_checksum_detected() {
        let mut buf = [0u8; HEADER_LEN];
        let mut p = Icmpv4Packet::new_unchecked(&mut buf[..]);
        p.set_message(Icmpv4Message::EchoReply);
        p.fill_checksum();
        buf[7] ^= 1;
        assert!(!Icmpv4Packet::new_checked(&buf[..]).unwrap().verify_checksum());
    }

    #[test]
    fn dest_unreachable_quotes_inner_udp() {
        // Build an inner IPv4+UDP header (the packet that "could not be
        // delivered"), then wrap it in a destination-unreachable.
        let inner_len = ipv4::HEADER_LEN + 8;
        let mut inner = vec![0u8; inner_len];
        {
            let mut ip = Ipv4Packet::new_unchecked(&mut inner[..]);
            ip.init();
            ip.set_total_len(inner_len as u16);
            ip.set_protocol(IpProtocol::Udp);
            ip.set_src("10.0.0.1".parse().unwrap());
            ip.set_dst("203.0.113.9".parse().unwrap());
            ip.fill_checksum();
        }
        let mut buf = vec![0u8; HEADER_LEN + inner_len];
        let mut p = Icmpv4Packet::new_unchecked(&mut buf[..]);
        p.set_message(Icmpv4Message::DestUnreachable);
        p.set_code(3); // port unreachable
        p.payload_mut().copy_from_slice(&inner);
        p.fill_checksum();

        let v = Icmpv4Packet::new_checked(&buf[..]).unwrap();
        assert!(v.message().is_response());
        assert!(v.message().quotes_packet());
        let quoted = v.quoted_packet().expect("quoted packet parses");
        assert_eq!(quoted.protocol(), IpProtocol::Udp);
        assert_eq!(quoted.src(), "10.0.0.1".parse::<std::net::Ipv4Addr>().unwrap());
    }

    #[test]
    fn echo_request_is_not_response() {
        assert!(!Icmpv4Message::EchoRequest.is_response());
        assert!(!Icmpv4Message::TimestampRequest.is_response());
        assert!(!Icmpv4Message::Unknown(99).is_response());
    }

    #[test]
    fn taxonomy_matches_moore_et_al() {
        // The nine response types listed in Section 3.1.1 of the paper
        // (TCP SYN/ACK and RST are handled by the TCP layer).
        let responses = [
            Icmpv4Message::EchoReply,
            Icmpv4Message::DestUnreachable,
            Icmpv4Message::SourceQuench,
            Icmpv4Message::Redirect,
            Icmpv4Message::TimeExceeded,
            Icmpv4Message::ParameterProblem,
            Icmpv4Message::TimestampReply,
            Icmpv4Message::InformationReply,
            Icmpv4Message::AddressMaskReply,
        ];
        for m in responses {
            assert!(m.is_response(), "{m:?} must be in the taxonomy");
        }
    }

    #[test]
    fn type_byte_roundtrip() {
        for v in 0u8..=30 {
            assert_eq!(u8::from(Icmpv4Message::from(v)), v);
        }
    }

    #[test]
    fn rejects_truncated() {
        assert_eq!(
            Icmpv4Packet::new_checked(&[0u8; 7][..]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn quoted_packet_requires_valid_inner() {
        let mut buf = [0u8; HEADER_LEN + 6]; // too short for an inner header
        let mut p = Icmpv4Packet::new_unchecked(&mut buf[..]);
        p.set_message(Icmpv4Message::TimeExceeded);
        p.fill_checksum();
        let v = Icmpv4Packet::new_checked(&buf[..]).unwrap();
        assert!(v.quoted_packet().is_none());
    }
}
