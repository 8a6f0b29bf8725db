//! Event ingestion and the per-source aggregates of Table 1.
//!
//! # Layout
//!
//! Each source keeps the rows it is given: one `Vec<AttackEvent>`,
//! stably sorted by `(start, target)`. Victims are interned to dense
//! `u32` ids in a table *shared by both sources* (ids are assigned in
//! per-batch sorted order at ingest), and the Table 1 aggregates are
//! [`BitSet`]s over those ids and over the raw /24 and /16 prefix
//! spaces, maintained at ingest:
//!
//! ```text
//!                    shared Interner<Ipv4Addr> (victim ⇄ u32 id)
//!                                   ▲        ▲
//!            telescope source       │        │        honeypot source
//!            events: Vec<AttackEvent>        events: Vec<AttackEvent>
//!            victims/blocks24/blocks16       victims/blocks24/blocks16
//!            : BitSet                        : BitSet
//! ```
//!
//! # Ingest
//!
//! One path: the batch is stably sorted by `(start, target)` and
//! appended; when it starts before the last stored key (a *late* batch)
//! the whole source is stably re-sorted, so stored rows stay first on
//! equal keys. Every observable order is therefore exactly
//! `extend + stable sort_by_key(start, target)`, and every read sees a
//! sorted source. The `store.consolidations` and
//! `store.consolidation_rows` counters count late batches and the rows
//! their re-sorts rewrote.

use dosscope_types::{AttackEvent, BitSet, EventSource, Interner};
use std::net::Ipv4Addr;

/// Per-source incremental aggregates, maintained at ingest so every
/// Table 1 query is O(1) and never re-scans the rows.
#[derive(Debug, Default)]
struct SourceStats {
    /// Distinct victims as bits over shared interned ids.
    victims: BitSet,
    /// Distinct /24 blocks as bits over the raw 24-bit prefix space.
    blocks24: BitSet,
    /// Distinct /16 blocks as bits over the raw 16-bit prefix space.
    blocks16: BitSet,
}

impl SourceStats {
    fn admit(&mut self, addr: u32, victim_id: u32) {
        self.victims.insert(victim_id);
        self.blocks24.insert(addr >> 8);
        self.blocks16.insert(addr >> 16);
    }

    fn memory_bytes(&self) -> usize {
        self.victims.memory_bytes() + self.blocks24.memory_bytes() + self.blocks16.memory_bytes()
    }
}

/// Aggregate counts for one source (a row of Table 1). ASN counting needs
/// the enrichment metadata and lives in [`crate::report`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceSummary {
    /// Attack events.
    pub events: u64,
    /// Unique target IP addresses.
    pub targets: u64,
    /// Unique /24 blocks with at least one target.
    pub blocks24: u64,
    /// Unique /16 blocks with at least one target.
    pub blocks16: u64,
}

/// One source's state: the sorted rows and the Table 1 aggregates.
#[derive(Debug, Default)]
struct Source {
    events: Vec<AttackEvent>,
    stats: SourceStats,
}

/// The ingested event sets, one sorted row vector per source (see the
/// module docs for the layout and the ingest path).
#[derive(Debug)]
pub struct EventStore {
    victims: Interner<Ipv4Addr>,
    tele: Source,
    hp: Source,
}

impl Default for EventStore {
    fn default() -> EventStore {
        EventStore::new()
    }
}

impl EventStore {
    /// Empty store.
    pub fn new() -> EventStore {
        // Register the store's instruments up front so a run whose
        // batches all arrive in order still exports them (as zeros).
        dosscope_obs::counter!("store.rows");
        dosscope_obs::counter!("store.consolidations");
        dosscope_obs::counter!("store.consolidation_rows");
        EventStore {
            victims: Interner::new(),
            tele: Source::default(),
            hp: Source::default(),
        }
    }

    /// Ingest the telescope detector's events (any order).
    pub fn ingest_telescope(&mut self, events: Vec<AttackEvent>) {
        debug_assert!(events.iter().all(|e| e.source() == EventSource::Telescope));
        self.ingest_batch(EventSource::Telescope, events);
    }

    /// Ingest the honeypot fleet's events (any order).
    pub fn ingest_honeypot(&mut self, events: Vec<AttackEvent>) {
        debug_assert!(events.iter().all(|e| e.source() == EventSource::Honeypot));
        self.ingest_batch(EventSource::Honeypot, events);
    }

    fn ingest_batch(&mut self, source: EventSource, mut events: Vec<AttackEvent>) {
        if events.is_empty() {
            return;
        }
        let n = events.len();
        dosscope_obs::counter!("store.rows").add(n as u64);

        let key = |e: &AttackEvent| (e.when.start, e.target);
        events.sort_by_key(key);
        let src = match source {
            EventSource::Telescope => &mut self.tele,
            EventSource::Honeypot => &mut self.hp,
        };
        for e in &events {
            let id = self.victims.intern(e.target);
            src.stats.admit(u32::from(e.target), id);
        }
        let stored = src.events.len();
        let late = src
            .events
            .last()
            .is_some_and(|last| key(&events[0]) < key(last));
        if src.events.is_empty() {
            // Take the batch's allocation rather than copying it into a
            // fresh one, so the batch and its copy are never both live;
            // shrinking returns its spare capacity in place.
            src.events = events;
            src.events.shrink_to_fit();
        } else {
            src.events.append(&mut events);
        }
        if late {
            src.events.sort_by_key(key);
            dosscope_obs::counter!("store.consolidations").inc();
            dosscope_obs::counter!("store.consolidation_rows").add((stored + n) as u64);
        }

        dosscope_obs::gauge!("store.victims").set(self.victims.len() as u64);
    }

    fn source(&self, source: EventSource) -> &Source {
        match source {
            EventSource::Telescope => &self.tele,
            EventSource::Honeypot => &self.hp,
        }
    }

    /// Telescope events, sorted by `(start, target)`.
    pub fn telescope(&self) -> &[AttackEvent] {
        &self.tele.events
    }

    /// Honeypot events, sorted by `(start, target)`.
    pub fn honeypot(&self) -> &[AttackEvent] {
        &self.hp.events
    }

    /// Both sources chained (telescope first; not globally sorted).
    pub fn all(&self) -> impl Iterator<Item = AttackEvent> + '_ {
        self.tele.events.iter().chain(&self.hp.events).cloned()
    }

    /// Events of one source, sorted by `(start, target)`.
    pub fn of(&self, source: EventSource) -> &[AttackEvent] {
        &self.source(source).events
    }

    /// Total event count.
    pub fn len(&self) -> usize {
        self.tele.events.len() + self.hp.events.len()
    }

    /// True when nothing was ingested.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The Table 1 aggregate for one source — O(1), maintained at ingest.
    pub fn summary(&self, source: EventSource) -> SourceSummary {
        let src = self.source(source);
        SourceSummary {
            events: src.events.len() as u64,
            targets: src.stats.victims.len() as u64,
            blocks24: src.stats.blocks24.len() as u64,
            blocks16: src.stats.blocks16.len() as u64,
        }
    }

    /// The Table 1 aggregate for the combined data: union popcounts over
    /// the per-source bitsets — no re-scan of either source's rows.
    pub fn summary_combined(&self) -> SourceSummary {
        let (t, h) = (&self.tele.stats, &self.hp.stats);
        SourceSummary {
            events: self.len() as u64,
            targets: t.victims.union_count(&h.victims) as u64,
            blocks24: t.blocks24.union_count(&h.blocks24) as u64,
            blocks16: t.blocks16.union_count(&h.blocks16) as u64,
        }
    }

    /// Unique targets common to both sources (the paper's 282 k): an
    /// AND-popcount over the shared-interner victim bitsets.
    pub fn common_targets(&self) -> u64 {
        self.tele
            .stats
            .victims
            .intersection_count(&self.hp.stats.victims) as u64
    }

    /// Whether one source has an event on `target`: an interner probe
    /// and a bit test, no scan.
    pub fn is_target(&self, source: EventSource, target: Ipv4Addr) -> bool {
        self.victims
            .get(target)
            .is_some_and(|id| self.source(source).stats.victims.contains(id))
    }

    /// Every distinct victim of one source, in interning (first-seen)
    /// order — the feed for per-target enrichment counts.
    pub fn distinct_targets(&self, source: EventSource) -> impl Iterator<Item = Ipv4Addr> + '_ {
        let stats = &self.source(source).stats;
        stats.victims.iter().map(|id| self.victims.resolve(id))
    }

    /// Every distinct victim across both sources.
    pub fn distinct_targets_combined(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        let mut union = self.tele.stats.victims.clone();
        union.union_with(&self.hp.stats.victims);
        union
            .iter()
            .map(|id| self.victims.resolve(id))
            .collect::<Vec<_>>()
            .into_iter()
    }

    /// Approximate heap footprint of the store in bytes: rows, interner
    /// and aggregate bitsets (dosbench's `store.memory_mib`).
    pub fn memory_bytes(&self) -> usize {
        let source = |s: &Source| {
            s.events.capacity() * std::mem::size_of::<AttackEvent>() + s.stats.memory_bytes()
        };
        source(&self.tele) + source(&self.hp) + self.victims.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosscope_types::{
        AttackVector, PortSignature, ReflectionProtocol, SimTime, TimeRange, TransportProto,
    };

    fn tele(ip: &str, start: u64) -> AttackEvent {
        AttackEvent {
            target: ip.parse().unwrap(),
            when: TimeRange::new(SimTime(start), SimTime(start + 100)),
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

    fn hp(ip: &str, start: u64) -> AttackEvent {
        AttackEvent {
            target: ip.parse().unwrap(),
            when: TimeRange::new(SimTime(start), SimTime(start + 100)),
            vector: AttackVector::Reflection {
                protocol: ReflectionProtocol::Ntp,
            },
            packets: 200,
            bytes: 8000,
            intensity_pps: 5.0,
            distinct_sources: 4,
        }
    }

    fn starts(events: &[AttackEvent]) -> Vec<u64> {
        events.iter().map(|e| e.when.start.0).collect()
    }

    #[test]
    fn summaries() {
        let mut s = EventStore::new();
        s.ingest_telescope(vec![
            tele("10.0.0.1", 50),
            tele("10.0.0.2", 10),
            tele("10.0.0.1", 500),
        ]);
        s.ingest_honeypot(vec![hp("10.0.1.1", 30), hp("10.0.0.1", 90)]);

        let t = s.summary(EventSource::Telescope);
        assert_eq!(t.events, 3);
        assert_eq!(t.targets, 2);
        assert_eq!(t.blocks24, 1);
        assert_eq!(t.blocks16, 1);

        let h = s.summary(EventSource::Honeypot);
        assert_eq!(h.events, 2);
        assert_eq!(h.targets, 2);
        assert_eq!(h.blocks24, 2);

        let c = s.summary_combined();
        assert_eq!(c.events, 5);
        assert_eq!(c.targets, 3, "overlapping target counted once");
        assert_eq!(s.common_targets(), 1);

        let addr = |ip: &str| ip.parse::<Ipv4Addr>().unwrap();
        assert!(s.is_target(EventSource::Telescope, addr("10.0.0.2")));
        assert!(!s.is_target(EventSource::Honeypot, addr("10.0.0.2")));
        assert!(s.is_target(EventSource::Honeypot, addr("10.0.1.1")));
        assert!(!s.is_target(EventSource::Telescope, addr("192.0.2.1")));
    }

    #[test]
    fn ingest_sorts_by_start() {
        let mut s = EventStore::new();
        let batch = vec![
            tele("10.0.0.2", 500),
            tele("10.0.0.9", 10),
            tele("10.0.0.1", 500),
        ];
        s.ingest_telescope(batch.clone());
        let mut expect = batch;
        expect.sort_by_key(|e| (e.when.start, e.target));
        assert_eq!(s.telescope(), expect, "rows sorted by (start, target)");
        assert_eq!(s.of(EventSource::Telescope), s.telescope());
        assert_eq!(s.all().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn out_of_order_ingest_matches_row_semantics() {
        // Second batch starts before the first ends: ingest must
        // reproduce extend-and-stable-sort byte-for-byte.
        let mut s = EventStore::new();
        let b1 = vec![tele("10.0.0.9", 300), tele("10.0.0.1", 700)];
        let b2 = vec![
            tele("10.0.0.3", 100),
            tele("10.0.0.1", 300),
            tele("10.0.0.9", 300),
        ];
        s.ingest_telescope(b1.clone());
        s.ingest_telescope(b2.clone());
        let mut rows: Vec<AttackEvent> = b1;
        rows.extend(b2);
        rows.sort_by_key(|e| (e.when.start, e.target));
        assert_eq!(s.telescope(), rows);
    }

    #[test]
    fn late_batches_leave_both_sources_sorted() {
        let mut s = EventStore::new();
        s.ingest_telescope(vec![tele("10.0.0.1", 1000), tele("10.0.0.2", 1500)]);
        s.ingest_honeypot(vec![hp("10.0.0.5", 900)]);
        s.ingest_telescope(vec![tele("10.0.0.3", 1200), tele("10.0.0.1", 500)]);
        s.ingest_honeypot(vec![hp("10.0.0.4", 100)]);
        // Straight after the late batches, before any other read.
        assert_eq!(starts(s.telescope()), vec![500, 1000, 1200, 1500]);
        assert_eq!(starts(s.honeypot()), vec![100, 900]);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn in_order_batches_never_open_runs() {
        let b1 = vec![tele("10.0.0.1", 10), tele("10.0.0.2", 20)];
        let b2 = vec![tele("10.0.0.3", 20), tele("10.0.0.4", 30)];
        let b3 = vec![tele("10.0.0.9", 30)];
        let mut s = EventStore::new();
        for b in [&b1, &b2, &b3] {
            s.ingest_telescope(b.clone());
        }
        // In-order batches append: the store holds them in arrival order.
        let rows: Vec<AttackEvent> = [b1, b2, b3].concat();
        assert_eq!(s.telescope(), rows);
    }

    #[test]
    fn out_of_order_batches_stack_runs_until_read() {
        let mut s = EventStore::new();
        s.ingest_telescope(vec![tele("10.0.0.1", 1000)]);
        s.ingest_telescope(vec![tele("10.0.0.1", 500)]);
        // The late batch is sorted in at ingest: the rows are sorted
        // before any read, and summaries see both rows.
        assert_eq!(s.summary(EventSource::Telescope).events, 2);
        assert_eq!(starts(s.telescope()), vec![500, 1000]);
    }

    #[test]
    fn empty_store() {
        let s = EventStore::new();
        assert!(s.is_empty());
        assert_eq!(s.summary_combined(), SourceSummary::default());
        assert_eq!(s.common_targets(), 0);
        assert_eq!(s.telescope().len(), 0);
        assert!(s.all().next().is_none());
    }

    #[test]
    fn memory_accounting_is_nonzero() {
        let mut s = EventStore::new();
        s.ingest_telescope(vec![tele("10.0.0.1", 50)]);
        assert!(s.memory_bytes() > 0);
    }
}
