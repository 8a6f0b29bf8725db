//! High-level constructors for the complete IPv4 packets the simulators
//! exchange: backscatter responses emitted by flood victims (SYN/ACK, RST,
//! ICMP echo replies and error messages quoting the offending packet), and
//! the spoofed reflection requests honeypots receive.
//!
//! Each builder returns an owned, fully checksummed packet, and its
//! `_into` form appends the same bytes to a caller's buffer (the renderer
//! writes a whole day's backscatter into one arena that way; the
//! fixed-size packets are built on the stack first). Every builder has a
//! round-trip test through the checked parser, and `dosscope-telescope`
//! and `dosscope-amppot` consume these bytes through the same parsers, so
//! the simulated data path exercises real encode/decode on both ends.
//!
//! ```
//! use dosscope_wire::{builder, Ipv4Packet, TcpSegment};
//!
//! // A victim's SYN/ACK to one of the flood's spoofed sources.
//! let pkt = builder::tcp_syn_ack(
//!     "203.0.113.80".parse().unwrap(), 80,
//!     "44.1.2.3".parse().unwrap(), 40_000, 1,
//! );
//! let ip = Ipv4Packet::new_checked(pkt.as_slice()).unwrap();
//! assert!(ip.verify_checksum());
//! let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
//! assert!(tcp.flags().is_syn_ack());
//! ```

use crate::icmp::{self, Icmpv4Message, Icmpv4Packet};
use crate::ipv4::{self, IpProtocol, Ipv4Packet};
use crate::reflect;
use crate::tcp::{self, TcpFlags, TcpSegment};
use crate::udp::{self, UdpDatagram};
use dosscope_types::ReflectionProtocol;
use std::net::Ipv4Addr;

/// Backscatter packet sizes: each is built in a stack array of exactly
/// this many bytes, then appended to the caller's buffer.
const TCP_LEN: usize = ipv4::HEADER_LEN + tcp::HEADER_LEN;
const ECHO_LEN: usize = ipv4::HEADER_LEN + icmp::HEADER_LEN + 8;
/// A quoted packet: IPv4 header + 8 bytes of transport header (RFC 792).
const QUOTE_LEN: usize = ipv4::HEADER_LEN + 8;
const UNREACHABLE_LEN: usize = ipv4::HEADER_LEN + icmp::HEADER_LEN + QUOTE_LEN;

/// Write the IPv4 header of the zeroed packet `pkt`, whose total length
/// is `pkt.len()`. The header checksum is left to [`finish_ip`].
fn ipv4_header(pkt: &mut [u8], src: Ipv4Addr, dst: Ipv4Addr, proto: IpProtocol, ident: u16) {
    let total = pkt.len() as u16;
    let mut ip = Ipv4Packet::new_unchecked(pkt);
    ip.init();
    ip.set_total_len(total);
    ip.set_protocol(proto);
    ip.set_src(src);
    ip.set_dst(dst);
    ip.set_ident(ident);
}

fn finish_ip(pkt: &mut [u8]) {
    let mut ip = Ipv4Packet::new_unchecked(pkt);
    ip.fill_checksum();
}

/// A TCP SYN/ACK from `victim:victim_port` to a spoofed source — the
/// backscatter of a SYN flood against an open port.
pub fn tcp_syn_ack(
    victim: Ipv4Addr,
    victim_port: u16,
    spoofed: Ipv4Addr,
    spoofed_port: u16,
    seq: u32,
) -> Vec<u8> {
    let mut buf = Vec::new();
    tcp_syn_ack_into(&mut buf, victim, victim_port, spoofed, spoofed_port, seq);
    buf
}

/// [`tcp_syn_ack`], appended to `buf`.
pub fn tcp_syn_ack_into(
    buf: &mut Vec<u8>,
    victim: Ipv4Addr,
    victim_port: u16,
    spoofed: Ipv4Addr,
    spoofed_port: u16,
    seq: u32,
) {
    tcp_response(
        buf,
        victim,
        victim_port,
        spoofed,
        spoofed_port,
        seq,
        TcpFlags::SYN | TcpFlags::ACK,
    )
}

/// A TCP RST from `victim:victim_port` — the backscatter of a flood against
/// a closed port (or a stateless RST responder).
pub fn tcp_rst(
    victim: Ipv4Addr,
    victim_port: u16,
    spoofed: Ipv4Addr,
    spoofed_port: u16,
    seq: u32,
) -> Vec<u8> {
    let mut buf = Vec::new();
    tcp_rst_into(&mut buf, victim, victim_port, spoofed, spoofed_port, seq);
    buf
}

/// [`tcp_rst`], appended to `buf`.
pub fn tcp_rst_into(
    buf: &mut Vec<u8>,
    victim: Ipv4Addr,
    victim_port: u16,
    spoofed: Ipv4Addr,
    spoofed_port: u16,
    seq: u32,
) {
    tcp_response(
        buf,
        victim,
        victim_port,
        spoofed,
        spoofed_port,
        seq,
        TcpFlags::RST | TcpFlags::ACK,
    )
}

#[allow(clippy::too_many_arguments)]
fn tcp_response(
    buf: &mut Vec<u8>,
    victim: Ipv4Addr,
    victim_port: u16,
    spoofed: Ipv4Addr,
    spoofed_port: u16,
    seq: u32,
    flags: TcpFlags,
) {
    let mut pkt = [0u8; TCP_LEN];
    ipv4_header(&mut pkt, victim, spoofed, IpProtocol::Tcp, seq as u16);
    let mut seg = TcpSegment::new_unchecked(&mut pkt[ipv4::HEADER_LEN..]);
    seg.init();
    seg.set_src_port(victim_port);
    seg.set_dst_port(spoofed_port);
    seg.set_seq(seq);
    seg.set_ack(seq.wrapping_add(1));
    seg.set_flags(flags);
    seg.set_window(16_384);
    seg.fill_checksum(victim, spoofed);
    finish_ip(&mut pkt);
    buf.extend_from_slice(&pkt);
}

/// An ICMP echo reply from the victim of a ping flood to a spoofed source.
pub fn icmp_echo_reply(victim: Ipv4Addr, spoofed: Ipv4Addr, ident: u16, seq: u16) -> Vec<u8> {
    let mut buf = Vec::new();
    icmp_echo_reply_into(&mut buf, victim, spoofed, ident, seq);
    buf
}

/// [`icmp_echo_reply`], appended to `buf`.
pub fn icmp_echo_reply_into(
    buf: &mut Vec<u8>,
    victim: Ipv4Addr,
    spoofed: Ipv4Addr,
    ident: u16,
    seq: u16,
) {
    let mut pkt = [0u8; ECHO_LEN];
    ipv4_header(&mut pkt, victim, spoofed, IpProtocol::Icmp, seq);
    let mut ic = Icmpv4Packet::new_unchecked(&mut pkt[ipv4::HEADER_LEN..]);
    ic.set_message(Icmpv4Message::EchoReply);
    ic.set_code(0);
    ic.set_ident(ident);
    ic.set_seq_no(seq);
    ic.fill_checksum();
    finish_ip(&mut pkt);
    buf.extend_from_slice(&pkt);
}

/// An ICMP destination-unreachable from the victim of a UDP (or other
/// connectionless) flood, quoting the offending packet: inner source is the
/// spoofed address the flood claimed, inner destination is the victim.
///
/// `inner_proto`/`inner_dst_port` describe the flood packet being quoted —
/// the telescope's attribution of UDP attacks reads exactly these fields
/// back out of the quotation.
pub fn icmp_dest_unreachable(
    victim: Ipv4Addr,
    spoofed: Ipv4Addr,
    inner_proto: IpProtocol,
    inner_src_port: u16,
    inner_dst_port: u16,
    code: u8,
) -> Vec<u8> {
    let mut buf = Vec::new();
    icmp_dest_unreachable_into(
        &mut buf,
        victim,
        spoofed,
        inner_proto,
        inner_src_port,
        inner_dst_port,
        code,
    );
    buf
}

/// [`icmp_dest_unreachable`], appended to `buf`.
#[allow(clippy::too_many_arguments)]
pub fn icmp_dest_unreachable_into(
    buf: &mut Vec<u8>,
    victim: Ipv4Addr,
    spoofed: Ipv4Addr,
    inner_proto: IpProtocol,
    inner_src_port: u16,
    inner_dst_port: u16,
    code: u8,
) {
    let mut pkt = [0u8; UNREACHABLE_LEN];
    ipv4_header(&mut pkt, victim, spoofed, IpProtocol::Icmp, 0);
    {
        // The quoted flood packet, built in place behind the ICMP header.
        let quote = &mut pkt[ipv4::HEADER_LEN + icmp::HEADER_LEN..];
        ipv4_header(quote, spoofed, victim, inner_proto, 0);
        finish_ip(quote);
        let transport = &mut quote[ipv4::HEADER_LEN..];
        transport[0..2].copy_from_slice(&inner_src_port.to_be_bytes());
        transport[2..4].copy_from_slice(&inner_dst_port.to_be_bytes());
        if inner_proto == IpProtocol::Udp {
            transport[4..6].copy_from_slice(&(8u16).to_be_bytes());
        }
    }
    let mut ic = Icmpv4Packet::new_unchecked(&mut pkt[ipv4::HEADER_LEN..]);
    ic.set_message(Icmpv4Message::DestUnreachable);
    ic.set_code(code);
    ic.fill_checksum();
    finish_ip(&mut pkt);
    buf.extend_from_slice(&pkt);
}

/// A spoofed reflection request: UDP datagram carrying the protocol's abuse
/// payload, with the *victim* as source (that's the point of reflection)
/// and a honeypot as destination.
pub fn reflection_request(
    victim: Ipv4Addr,
    victim_port: u16,
    honeypot: Ipv4Addr,
    protocol: ReflectionProtocol,
) -> Vec<u8> {
    let mut buf = Vec::new();
    reflection_request_into(&mut buf, victim, victim_port, honeypot, protocol);
    buf
}

/// [`reflection_request`], appended to `buf`. The payload's length
/// varies by protocol, so the packet is built in place at the end of
/// `buf` rather than on the stack.
pub fn reflection_request_into(
    buf: &mut Vec<u8>,
    victim: Ipv4Addr,
    victim_port: u16,
    honeypot: Ipv4Addr,
    protocol: ReflectionProtocol,
) {
    let payload = reflect::request_payload(protocol);
    let udp_len = udp::HEADER_LEN + payload.len();
    let start = buf.len();
    buf.resize(start + ipv4::HEADER_LEN + udp_len, 0);
    let pkt = &mut buf[start..];
    ipv4_header(pkt, victim, honeypot, IpProtocol::Udp, 0);
    let mut u = UdpDatagram::new_unchecked(&mut pkt[ipv4::HEADER_LEN..]);
    u.set_src_port(victim_port);
    u.set_dst_port(protocol.port());
    u.set_len(udp_len as u16);
    u.payload_mut().copy_from_slice(payload);
    u.fill_checksum(victim, honeypot);
    finish_ip(pkt);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v() -> Ipv4Addr {
        "203.0.113.10".parse().unwrap()
    }
    fn s() -> Ipv4Addr {
        "45.12.99.3".parse().unwrap()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Known answers: the exact bytes each backscatter builder emits for
    /// fixed inputs, checksums and IP ident included. The detectors read
    /// neither the IP checksum nor the ident, so only these pins catch a
    /// builder that gets them wrong.
    #[test]
    fn backscatter_builders_emit_known_bytes() {
        let cases = [
            (
                "SYN/ACK",
                tcp_syn_ack(v(), 80, s(), 41000, 0xDEAD_BEEF),
                "45000028beef40004006afc6cb00710a2d0c6303\
                 0050a028deadbeefdeadbef050124000c8030000",
            ),
            (
                "RST",
                tcp_rst(v(), 443, s(), 50000, 7),
                "450000280007400040066eafcb00710a2d0c6303\
                 01bbc350000000070000000850144000de9b0000",
            ),
            (
                "echo reply",
                icmp_echo_reply(v(), s(), 9, 11),
                "45000024000b400040016eb4cb00710a2d0c6303\
                 0000ffeb0009000b0000000000000000",
            ),
            (
                "unreachable quoting UDP",
                icmp_dest_unreachable(v(), s(), IpProtocol::Udp, 53111, 27015, 3),
                "450000380000400040016eabcb00710a2d0c6303\
                 0303c3f500000000\
                 4500001c0000400040116eb72d0c6303cb00710acf77698700080000",
            ),
            (
                "unreachable quoting IGMP",
                icmp_dest_unreachable(v(), s(), IpProtocol::Igmp, 0, 0, 2),
                "450000380000400040016eabcb00710a2d0c6303\
                 0302fcfd00000000\
                 4500001c0000400040026ec62d0c6303cb00710a0000000000000000",
            ),
        ];
        for (what, pkt, want) in cases {
            assert_eq!(hex(&pkt), want, "{what}");
        }
    }

    /// Every `_into` form appends: each packet lands right after the
    /// ones already in the buffer, which stay untouched.
    #[test]
    fn into_builders_append_to_the_buffer() {
        let mut buf = Vec::new();
        tcp_syn_ack_into(&mut buf, v(), 80, s(), 41000, 1);
        tcp_rst_into(&mut buf, v(), 443, s(), 50000, 7);
        icmp_echo_reply_into(&mut buf, v(), s(), 9, 11);
        icmp_dest_unreachable_into(&mut buf, v(), s(), IpProtocol::Udp, 53111, 27015, 3);
        reflection_request_into(&mut buf, v(), 4444, s(), ReflectionProtocol::Ntp);
        let owned = [
            tcp_syn_ack(v(), 80, s(), 41000, 1),
            tcp_rst(v(), 443, s(), 50000, 7),
            icmp_echo_reply(v(), s(), 9, 11),
            icmp_dest_unreachable(v(), s(), IpProtocol::Udp, 53111, 27015, 3),
            reflection_request(v(), 4444, s(), ReflectionProtocol::Ntp),
        ];
        assert_eq!(buf, owned.concat());
    }

    #[test]
    fn syn_ack_parses_and_verifies() {
        let pkt = tcp_syn_ack(v(), 80, s(), 41000, 0xDEADBEEF);
        let ip = Ipv4Packet::new_checked(&pkt[..]).unwrap();
        assert!(ip.verify_checksum());
        assert_eq!(ip.protocol(), IpProtocol::Tcp);
        assert_eq!(ip.src(), v());
        assert_eq!(ip.dst(), s());
        let seg = TcpSegment::new_checked(ip.payload()).unwrap();
        assert!(seg.flags().is_syn_ack());
        assert_eq!(seg.src_port(), 80);
        assert_eq!(seg.dst_port(), 41000);
        assert!(seg.verify_checksum(ip.src(), ip.dst()));
    }

    #[test]
    fn rst_parses() {
        let pkt = tcp_rst(v(), 443, s(), 50000, 7);
        let ip = Ipv4Packet::new_checked(&pkt[..]).unwrap();
        let seg = TcpSegment::new_checked(ip.payload()).unwrap();
        assert!(seg.flags().is_rst());
        assert!(seg.verify_checksum(ip.src(), ip.dst()));
    }

    #[test]
    fn echo_reply_parses() {
        let pkt = icmp_echo_reply(v(), s(), 9, 11);
        let ip = Ipv4Packet::new_checked(&pkt[..]).unwrap();
        assert_eq!(ip.protocol(), IpProtocol::Icmp);
        let ic = Icmpv4Packet::new_checked(ip.payload()).unwrap();
        assert_eq!(ic.message(), Icmpv4Message::EchoReply);
        assert!(ic.verify_checksum());
        assert_eq!(ic.ident(), 9);
        assert_eq!(ic.seq_no(), 11);
    }

    #[test]
    fn dest_unreachable_quotes_flood_packet() {
        let pkt = icmp_dest_unreachable(v(), s(), IpProtocol::Udp, 53111, 27015, 3);
        let ip = Ipv4Packet::new_checked(&pkt[..]).unwrap();
        assert_eq!(ip.src(), v(), "outer source is the victim");
        let ic = Icmpv4Packet::new_checked(ip.payload()).unwrap();
        assert!(ic.verify_checksum());
        let quoted = ic.quoted_packet().expect("inner packet parses");
        assert_eq!(quoted.protocol(), IpProtocol::Udp);
        assert_eq!(quoted.src(), s(), "inner source is the spoofed address");
        assert_eq!(quoted.dst(), v(), "inner destination is the victim");
        let inner_udp = UdpDatagram::new_checked(quoted.payload()).unwrap();
        assert_eq!(inner_udp.dst_port(), 27015, "attacked port is recoverable");
    }

    #[test]
    fn dest_unreachable_igmp_quotation() {
        let pkt = icmp_dest_unreachable(v(), s(), IpProtocol::Igmp, 0, 0, 2);
        let ip = Ipv4Packet::new_checked(&pkt[..]).unwrap();
        let ic = Icmpv4Packet::new_checked(ip.payload()).unwrap();
        let quoted = ic.quoted_packet().unwrap();
        assert_eq!(quoted.protocol(), IpProtocol::Igmp);
    }

    #[test]
    fn reflection_requests_classify_for_all_protocols() {
        for proto in ReflectionProtocol::ALL {
            let pkt = reflection_request(v(), 4444, s(), proto);
            let ip = Ipv4Packet::new_checked(&pkt[..]).unwrap();
            assert!(ip.verify_checksum());
            assert_eq!(ip.src(), v(), "spoofed source must be the victim");
            let u = UdpDatagram::new_checked(ip.payload()).unwrap();
            assert!(u.verify_checksum(ip.src(), ip.dst()));
            assert_eq!(u.dst_port(), proto.port());
            assert_eq!(
                reflect::classify_request(u.dst_port(), u.payload()),
                Some(proto)
            );
        }
    }
}
