//! The unified attack-event model.
//!
//! Both measurement pipelines (the telescope RSDoS detector and the AmpPot
//! fleet) emit [`AttackEvent`]s. The fusion framework in `dosscope-core`
//! works exclusively on this representation; source-specific detail is kept
//! in [`AttackVector`].

use crate::time::TimeRange;
use std::net::Ipv4Addr;

/// Which measurement infrastructure observed an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventSource {
    /// Backscatter to the network telescope (randomly spoofed attacks).
    Telescope,
    /// Requests to the amplification honeypots (reflection attacks).
    Honeypot,
}

impl std::fmt::Display for EventSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventSource::Telescope => f.write_str("Network Telescope"),
            EventSource::Honeypot => f.write_str("Amplification Honeypot"),
        }
    }
}

/// IP protocol used by a randomly spoofed attack, as inferred from
/// backscatter (Table 5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TransportProto {
    /// TCP floods (SYN floods and friends; backscatter is SYN/ACK or RST).
    Tcp,
    /// UDP floods (backscatter is ICMP destination unreachable quoting UDP).
    Udp,
    /// ICMP floods (e.g. ping floods; backscatter is echo replies).
    Icmp,
    /// Anything else (e.g. IGMP).
    Other,
}

impl TransportProto {
    /// All variants, in the paper's presentation order.
    pub const ALL: [TransportProto; 4] = [
        TransportProto::Tcp,
        TransportProto::Udp,
        TransportProto::Icmp,
        TransportProto::Other,
    ];

    /// This variant's position in [`TransportProto::ALL`], as a branchless
    /// lookup for per-packet counters indexed in `ALL` order.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for TransportProto {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportProto::Tcp => f.write_str("TCP"),
            TransportProto::Udp => f.write_str("UDP"),
            TransportProto::Icmp => f.write_str("ICMP"),
            TransportProto::Other => f.write_str("Other"),
        }
    }
}

/// Reflector protocol abused by a reflection/amplification attack
/// (the eight protocols AmpPot emulates; Table 6 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum ReflectionProtocol {
    Ntp,
    Dns,
    CharGen,
    Ssdp,
    RipV1,
    MsSql,
    Tftp,
    Qotd,
}

impl ReflectionProtocol {
    /// All emulated protocols.
    pub const ALL: [ReflectionProtocol; 8] = [
        ReflectionProtocol::Ntp,
        ReflectionProtocol::Dns,
        ReflectionProtocol::CharGen,
        ReflectionProtocol::Ssdp,
        ReflectionProtocol::RipV1,
        ReflectionProtocol::MsSql,
        ReflectionProtocol::Tftp,
        ReflectionProtocol::Qotd,
    ];

    /// The top-five protocols as reported in Table 6 / Figure 4.
    pub const TOP5: [ReflectionProtocol; 5] = [
        ReflectionProtocol::Ntp,
        ReflectionProtocol::Dns,
        ReflectionProtocol::CharGen,
        ReflectionProtocol::Ssdp,
        ReflectionProtocol::RipV1,
    ];

    /// The UDP port the reflector protocol listens on.
    pub fn port(self) -> u16 {
        match self {
            ReflectionProtocol::Ntp => 123,
            ReflectionProtocol::Dns => 53,
            ReflectionProtocol::CharGen => 19,
            ReflectionProtocol::Ssdp => 1900,
            ReflectionProtocol::RipV1 => 520,
            ReflectionProtocol::MsSql => 1434,
            ReflectionProtocol::Tftp => 69,
            ReflectionProtocol::Qotd => 17,
        }
    }

    /// The protocol listening on a UDP port, if it is one AmpPot emulates.
    pub fn from_port(port: u16) -> Option<ReflectionProtocol> {
        Self::ALL.into_iter().find(|p| p.port() == port)
    }
}

impl std::fmt::Display for ReflectionProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReflectionProtocol::Ntp => f.write_str("NTP"),
            ReflectionProtocol::Dns => f.write_str("DNS"),
            ReflectionProtocol::CharGen => f.write_str("CharGen"),
            ReflectionProtocol::Ssdp => f.write_str("SSDP"),
            ReflectionProtocol::RipV1 => f.write_str("RIPv1"),
            ReflectionProtocol::MsSql => f.write_str("MSSQL"),
            ReflectionProtocol::Tftp => f.write_str("TFTP"),
            ReflectionProtocol::Qotd => f.write_str("QOTD"),
        }
    }
}

/// Target-port structure of a randomly spoofed attack (Table 7/8).
///
/// The telescope detector records how many distinct destination ports the
/// backscatter implies; attacks on exactly one port keep that port for the
/// service mapping of Table 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortSignature {
    /// Strictly one port was targeted.
    Single(u16),
    /// Multiple ports were targeted; the count of distinct ports observed.
    Multi(u32),
    /// No port information is recoverable (ICMP and "Other" floods whose
    /// backscatter carries no transport ports). Counted with single-port
    /// attacks in Table 7 but excluded from the service mapping of Table 8.
    None,
}

impl PortSignature {
    /// True if the attack did not target multiple ports (single-port and
    /// no-port events; the grouping used by Table 7).
    pub fn is_single(&self) -> bool {
        !matches!(self, PortSignature::Multi(_))
    }

    /// The single targeted port, if known.
    pub fn single_port(&self) -> Option<u16> {
        match self {
            PortSignature::Single(p) => Some(*p),
            PortSignature::Multi(_) | PortSignature::None => None,
        }
    }

    /// Number of distinct ports observed.
    pub fn distinct_ports(&self) -> u32 {
        match self {
            PortSignature::Single(_) => 1,
            PortSignature::Multi(n) => *n,
            PortSignature::None => 0,
        }
    }
}

/// Source-specific attack characterization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackVector {
    /// A randomly-and-uniformly spoofed direct attack, seen via backscatter.
    RandomlySpoofed {
        /// IP protocol of the flood.
        proto: TransportProto,
        /// Target-port structure.
        ports: PortSignature,
    },
    /// A reflection/amplification attack, seen at the honeypots.
    Reflection {
        /// Reflector protocol abused.
        protocol: ReflectionProtocol,
    },
}

impl AttackVector {
    /// The measurement source that can observe this vector.
    pub fn source(&self) -> EventSource {
        match self {
            AttackVector::RandomlySpoofed { .. } => EventSource::Telescope,
            AttackVector::Reflection { .. } => EventSource::Honeypot,
        }
    }
}

/// A single inferred DoS attack event, the unit of all analyses.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackEvent {
    /// The victim IP address (for backscatter: the source of response
    /// packets; for honeypots: the spoofed request source).
    pub target: Ipv4Addr,
    /// Active interval of the event.
    pub when: TimeRange,
    /// Vector-specific detail; also determines [`AttackEvent::source`].
    pub vector: AttackVector,
    /// Total packets attributed to the event *as seen by the observer*
    /// (backscatter packets at the telescope / requests at the honeypots).
    pub packets: u64,
    /// Total bytes attributed to the event as seen by the observer.
    pub bytes: u64,
    /// Intensity in the source's native unit: the telescope reports the
    /// *maximum packets/second in any minute*; the honeypots report the
    /// *average requests/second*. Never compare raw intensities across
    /// sources — use the normalized intensity from `dosscope-core`.
    pub intensity_pps: f64,
    /// Number of distinct (spoofed) source addresses observed, an auxiliary
    /// statistic of the Moore et al. classifier.
    pub distinct_sources: u32,
}

impl AttackEvent {
    /// The measurement source of this event.
    pub fn source(&self) -> EventSource {
        self.vector.source()
    }

    /// Duration in seconds.
    pub fn duration_secs(&self) -> u64 {
        self.when.duration_secs()
    }

    /// The reflection protocol if this is a honeypot event.
    pub fn reflection_protocol(&self) -> Option<ReflectionProtocol> {
        match self.vector {
            AttackVector::Reflection { protocol } => Some(protocol),
            AttackVector::RandomlySpoofed { .. } => None,
        }
    }

    /// The flood transport protocol if this is a telescope event.
    pub fn transport_proto(&self) -> Option<TransportProto> {
        match self.vector {
            AttackVector::RandomlySpoofed { proto, .. } => Some(proto),
            AttackVector::Reflection { .. } => None,
        }
    }

    /// The port signature if this is a telescope event.
    pub fn port_signature(&self) -> Option<PortSignature> {
        match self.vector {
            AttackVector::RandomlySpoofed { ports, .. } => Some(ports),
            AttackVector::Reflection { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn transport_proto_index_matches_all_order() {
        for (i, p) in TransportProto::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "{p:?}");
        }
    }

    fn sample_event(vector: AttackVector) -> AttackEvent {
        AttackEvent {
            target: "203.0.113.9".parse().unwrap(),
            when: TimeRange::new(SimTime(100), SimTime(400)),
            vector,
            packets: 1000,
            bytes: 40_000,
            intensity_pps: 12.0,
            distinct_sources: 800,
        }
    }

    #[test]
    fn vector_source_mapping() {
        let t = sample_event(AttackVector::RandomlySpoofed {
            proto: TransportProto::Tcp,
            ports: PortSignature::Single(80),
        });
        assert_eq!(t.source(), EventSource::Telescope);
        assert_eq!(t.transport_proto(), Some(TransportProto::Tcp));
        assert_eq!(t.port_signature().unwrap().single_port(), Some(80));
        assert_eq!(t.reflection_protocol(), None);

        let h = sample_event(AttackVector::Reflection {
            protocol: ReflectionProtocol::Ntp,
        });
        assert_eq!(h.source(), EventSource::Honeypot);
        assert_eq!(h.reflection_protocol(), Some(ReflectionProtocol::Ntp));
        assert_eq!(h.transport_proto(), None);
    }

    #[test]
    fn reflection_ports_roundtrip() {
        for p in ReflectionProtocol::ALL {
            assert_eq!(ReflectionProtocol::from_port(p.port()), Some(p));
        }
        assert_eq!(ReflectionProtocol::from_port(80), None);
    }

    #[test]
    fn port_signature() {
        assert!(PortSignature::Single(443).is_single());
        assert_eq!(PortSignature::Single(443).distinct_ports(), 1);
        assert_eq!(PortSignature::Multi(7).distinct_ports(), 7);
        assert_eq!(PortSignature::Multi(7).single_port(), None);
    }

    #[test]
    fn duration() {
        let e = sample_event(AttackVector::Reflection {
            protocol: ReflectionProtocol::Dns,
        });
        assert_eq!(e.duration_secs(), 300);
    }
}
