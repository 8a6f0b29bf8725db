//! Cross-source coverage: how much of the DoS ecosystem does each
//! observation infrastructure see?
//!
//! The paper is explicit that its two data sets complement each other but
//! jointly miss *unspoofed* direct attacks (footnote 4), and Section 8
//! calls for integrating further sources. Given a third data set — botnet
//! attack events inferred from C&C monitoring (`dosscope-botmon`) — this
//! module quantifies the blind spot: the share of botnet-driven attacks
//! whose targets never appear in the telescope or honeypot data, target
//! overlaps between all three sources, and the per-family breakdown.

use crate::store::EventStore;
use dosscope_botmon::{BotFamily, BotnetEvent};
use dosscope_types::{tally, BitSet, EventSource, FastMap};
use std::net::Ipv4Addr;

/// Coverage statistics over the three sources.
#[derive(Debug, Clone)]
pub struct CoverageStats {
    /// Botnet (unspoofed direct) attack events.
    pub botnet_events: u64,
    /// Distinct botnet attack targets.
    pub botnet_targets: u64,
    /// Botnet targets also seen by the telescope (the victim was *also*
    /// hit by a randomly spoofed attack at some point).
    pub shared_with_telescope: u64,
    /// Botnet targets also seen by the honeypots.
    pub shared_with_honeypots: u64,
    /// Botnet targets invisible to both (the paper's blind spot).
    pub invisible_targets: u64,
    /// Botnet events whose window overlaps a spoofed/reflection event on
    /// the same target — multi-vector incidents across all three sources.
    pub multivector_events: u64,
    /// Events per family, descending.
    pub per_family: Vec<(BotFamily, u64)>,
}

impl CoverageStats {
    /// Analyze coverage of the botnet event set against the two primary
    /// sources.
    pub fn analyze(store: &EventStore, botnet: &[BotnetEvent]) -> CoverageStats {
        // Botnet events indexed by target; one walk over the store's rows
        // then marks every botnet event that some primary event overlaps.
        let mut by_target: FastMap<Ipv4Addr, Vec<u32>> = FastMap::default();
        for (i, e) in botnet.iter().enumerate() {
            by_target.entry(e.target).or_default().push(i as u32);
        }
        let mut multivector = BitSet::new();
        for p in store.telescope().iter().chain(store.honeypot()) {
            for &i in by_target.get(&p.target).into_iter().flatten() {
                if p.when.overlaps(&botnet[i as usize].when) {
                    multivector.insert(i);
                }
            }
        }
        let seen_by = |source: EventSource| {
            by_target
                .keys()
                .filter(|&&t| store.is_target(source, t))
                .count() as u64
        };
        let invisible = by_target
            .keys()
            .filter(|&&t| {
                !store.is_target(EventSource::Telescope, t)
                    && !store.is_target(EventSource::Honeypot, t)
            })
            .count() as u64;

        CoverageStats {
            botnet_events: botnet.len() as u64,
            botnet_targets: by_target.len() as u64,
            shared_with_telescope: seen_by(EventSource::Telescope),
            shared_with_honeypots: seen_by(EventSource::Honeypot),
            invisible_targets: invisible,
            multivector_events: multivector.len() as u64,
            per_family: tally(botnet.iter().map(|e| e.family)),
        }
    }

    /// Share of botnet targets invisible to the paper's two data sets.
    pub fn invisible_share(&self) -> f64 {
        if self.botnet_targets == 0 {
            0.0
        } else {
            self.invisible_targets as f64 / self.botnet_targets as f64
        }
    }

    /// Render a short text report.
    pub fn render(&self) -> String {
        let mut s = format!(
            "Coverage (3rd source, C&C monitor): {} botnet events on {} targets; {} shared w/ telescope, {} w/ honeypots; {} ({:.0}%) invisible to both; {} multi-vector events\n",
            self.botnet_events,
            self.botnet_targets,
            self.shared_with_telescope,
            self.shared_with_honeypots,
            self.invisible_targets,
            100.0 * self.invisible_share(),
            self.multivector_events,
        );
        for (family, n) in &self.per_family {
            s.push_str(&format!("  {family:<12} {n} events\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosscope_botmon::{AttackMethod, BotnetId};
    use dosscope_types::{
        AttackEvent, AttackVector, PortSignature, ReflectionProtocol, SimTime, TimeRange,
        TransportProto,
    };

    fn tele(ip: &str, start: u64, end: u64) -> AttackEvent {
        AttackEvent {
            target: ip.parse().unwrap(),
            when: TimeRange::new(SimTime(start), SimTime(end)),
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

    fn hp(ip: &str, start: u64, end: u64) -> AttackEvent {
        AttackEvent {
            target: ip.parse().unwrap(),
            when: TimeRange::new(SimTime(start), SimTime(end)),
            vector: AttackVector::Reflection {
                protocol: ReflectionProtocol::Ntp,
            },
            packets: 500,
            bytes: 20_000,
            intensity_pps: 10.0,
            distinct_sources: 4,
        }
    }

    fn bot(ip: &str, start: u64, end: u64, family: BotFamily) -> BotnetEvent {
        BotnetEvent {
            target: ip.parse().unwrap(),
            when: TimeRange::new(SimTime(start), SimTime(end)),
            botnet: BotnetId(1),
            family,
            method: AttackMethod::HttpFlood,
            port: 80,
            explicit_stop: true,
        }
    }

    #[test]
    fn blind_spot_measured() {
        let mut store = EventStore::new();
        store.ingest_telescope(vec![tele("10.0.0.1", 100, 500)]);
        store.ingest_honeypot(vec![hp("10.0.0.2", 100, 500)]);
        let botnet = vec![
            // Same target AND overlapping: multi-vector.
            bot("10.0.0.1", 200, 400, BotFamily::DirtJumper),
            // Same target as the honeypot set, later in time.
            bot("10.0.0.2", 9_000, 9_500, BotFamily::Mirai),
            // Invisible to both.
            bot("10.0.0.3", 100, 500, BotFamily::Mirai),
        ];
        let c = CoverageStats::analyze(&store, &botnet);
        assert_eq!(c.botnet_events, 3);
        assert_eq!(c.botnet_targets, 3);
        assert_eq!(c.shared_with_telescope, 1);
        assert_eq!(c.shared_with_honeypots, 1);
        assert_eq!(c.invisible_targets, 1);
        assert!((c.invisible_share() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(c.multivector_events, 1);
        assert_eq!(c.per_family[0], (BotFamily::Mirai, 2));
        assert!(c.render().contains("Mirai"));
    }

    #[test]
    fn empty_botnet_set() {
        let store = EventStore::new();
        let c = CoverageStats::analyze(&store, &[]);
        assert_eq!(c.invisible_share(), 0.0);
        assert_eq!(c.botnet_events, 0);
    }
}
