//! Event ingestion and the per-source aggregates of Table 1, on a
//! columnar struct-of-arrays store that is kept sorted at ingest.
//!
//! # Layout
//!
//! Events are *stored* as parallel column vectors. Each source owns one
//! block sorted by `(start, target)` and a kind index over it:
//!
//! ```text
//!                    shared Interner<Ipv4Addr> (victim ⇄ u32 id)
//!                                   ▲        ▲
//!            telescope source       │        │        honeypot source
//!   block ─▶ victim  : Vec<u32> ────┘        └──── block: (same columns)
//!            start   : Vec<u64>                    + RunIndex
//!            end     : Vec<u64>
//!            kind    : Vec<u8>
//!            aux     : Vec<u32>
//!            packets : Vec<u64>
//!            bytes   : Vec<u64>
//!            intensity:Vec<f64>
//!            sources : Vec<u32>
//!            + RunIndex (kind → ascending row ids)
//! ```
//!
//! # Ingest
//!
//! A batch is key-sorted on compact 16-byte `(start, target, seq)` keys
//! (`seq` makes the unstable sort order-identical to a stable sort, and
//! wide rows never move during the sort). Then:
//!
//! * a batch whose first key is at or after the last stored key — the
//!   detectors' output, the common case — appends in place and extends
//!   the kind index row by row;
//! * a *late* batch — one that starts before the last stored key — is
//!   encoded in key order and merged into the block with one two-pointer
//!   pass, stored rows winning ties. The kind index is then rebuilt.
//!
//! Either way every observable order is exactly the row store's
//! `extend + stable sort_by_key(start, target)`, and every read sees a
//! sorted block with no pending work. The `store.consolidations` and
//! `store.consolidation_rows` counters count late batches and the rows
//! their merges rewrote.
//!
//! The [`AttackVector`] sum type is flattened into a `(kind, aux)` pair
//! (see `encode_vector`): a one-byte predicate key that the per-source
//! [`RunIndex`] turns into posting lists. Victims are interned to dense
//! `u32` ids in a table *shared by both sources* — ids are assigned in
//! per-batch sorted order at ingest — and the Table 1 aggregates are
//! [`BitSet`]s over those ids, maintained at ingest.
//!
//! # Boundaries
//!
//! The public API still speaks [`AttackEvent`]: ingest takes the same
//! event vectors, and queries hand back [`EventsView`]s that decode rows
//! on the fly. Ingest takes `&mut self`, so the rows a view borrows can
//! never shift under it.

use dosscope_types::{
    AttackEvent, AttackVector, BitSet, EventSource, Interner, PortSignature, ReflectionProtocol,
    RunIndex, SimTime, TimeRange, TransportProto,
};
use std::net::Ipv4Addr;

/// Number of distinct `(vector kind)` codes: 4 transports × 3 port-signature
/// classes for telescope floods, plus 8 reflection protocols.
pub(crate) const KINDS: usize = 12 + ReflectionProtocol::ALL.len();

/// First kind code used by reflection vectors.
pub(crate) const KIND_REFLECTION: u8 = 12;

/// Flatten an [`AttackVector`] into its `(kind, aux)` column encoding.
///
/// Telescope floods: `kind = proto * 3 + class` with class 0 = single
/// port (`aux` = the port), 1 = multi port (`aux` = distinct-port
/// count), 2 = no signature (`aux` = 0). Reflection events:
/// `kind = 12 + protocol`, `aux = 0`.
pub(crate) fn encode_vector(vector: AttackVector) -> (u8, u32) {
    match vector {
        AttackVector::RandomlySpoofed { proto, ports } => {
            let (class, aux) = match ports {
                PortSignature::Single(port) => (0, port as u32),
                PortSignature::Multi(n) => (1, n),
                PortSignature::None => (2, 0),
            };
            ((proto.index() * 3) as u8 + class, aux)
        }
        AttackVector::Reflection { protocol } => (KIND_REFLECTION + protocol as u8, 0),
    }
}

/// Invert [`encode_vector`].
pub(crate) fn decode_vector(kind: u8, aux: u32) -> AttackVector {
    if kind >= KIND_REFLECTION {
        AttackVector::Reflection {
            protocol: ReflectionProtocol::ALL[(kind - KIND_REFLECTION) as usize],
        }
    } else {
        AttackVector::RandomlySpoofed {
            proto: TransportProto::ALL[(kind / 3) as usize],
            ports: match kind % 3 {
                0 => PortSignature::Single(aux as u16),
                1 => PortSignature::Multi(aux),
                _ => PortSignature::None,
            },
        }
    }
}

/// Parallel column vectors holding rows sorted by `(start, victim)`.
#[derive(Debug, Default)]
pub(crate) struct ColumnBlock {
    /// Interned victim id per row (resolve via the store's interner).
    pub(crate) victim: Vec<u32>,
    /// Event start, raw [`SimTime`] seconds.
    pub(crate) start: Vec<u64>,
    /// Event end, raw [`SimTime`] seconds.
    pub(crate) end: Vec<u64>,
    /// Flattened vector tag (see [`encode_vector`]).
    pub(crate) kind: Vec<u8>,
    /// Vector payload: single port or distinct-port count.
    pub(crate) aux: Vec<u32>,
    /// Observed packet total.
    pub(crate) packets: Vec<u64>,
    /// Observed byte total.
    pub(crate) bytes: Vec<u64>,
    /// Source-native intensity.
    pub(crate) intensity: Vec<f64>,
    /// Distinct (spoofed) source count.
    pub(crate) sources: Vec<u32>,
}

impl ColumnBlock {
    pub(crate) fn len(&self) -> usize {
        self.victim.len()
    }

    /// Decode row `i` back into the boundary [`AttackEvent`] type.
    pub(crate) fn event(&self, i: usize, victims: &Interner<Ipv4Addr>) -> AttackEvent {
        AttackEvent {
            target: victims.resolve(self.victim[i]),
            when: TimeRange::new(SimTime(self.start[i]), SimTime(self.end[i])),
            vector: decode_vector(self.kind[i], self.aux[i]),
            packets: self.packets[i],
            bytes: self.bytes[i],
            intensity_pps: self.intensity[i],
            distinct_sources: self.sources[i],
        }
    }

    /// Encode `e` onto the end of the block.
    fn push_event(&mut self, e: &AttackEvent, victim_id: u32) {
        let (kind, aux) = encode_vector(e.vector);
        self.victim.push(victim_id);
        self.start.push(e.when.start.0);
        self.end.push(e.when.end.0);
        self.kind.push(kind);
        self.aux.push(aux);
        self.packets.push(e.packets);
        self.bytes.push(e.bytes);
        self.intensity.push(e.intensity_pps);
        self.sources.push(e.distinct_sources);
    }

    /// Copy row `i` of `other` onto the end of `self`.
    fn push_from(&mut self, other: &ColumnBlock, i: usize) {
        self.victim.push(other.victim[i]);
        self.start.push(other.start[i]);
        self.end.push(other.end[i]);
        self.kind.push(other.kind[i]);
        self.aux.push(other.aux[i]);
        self.packets.push(other.packets[i]);
        self.bytes.push(other.bytes[i]);
        self.intensity.push(other.intensity[i]);
        self.sources.push(other.sources[i]);
    }

    fn reserve(&mut self, additional: usize) {
        self.victim.reserve(additional);
        self.start.reserve(additional);
        self.end.reserve(additional);
        self.kind.reserve(additional);
        self.aux.reserve(additional);
        self.packets.reserve(additional);
        self.bytes.reserve(additional);
        self.intensity.reserve(additional);
        self.sources.reserve(additional);
    }

    fn memory_bytes(&self) -> usize {
        self.victim.capacity() * 4
            + self.start.capacity() * 8
            + self.end.capacity() * 8
            + self.kind.capacity()
            + self.aux.capacity() * 4
            + self.packets.capacity() * 8
            + self.bytes.capacity() * 8
            + self.intensity.capacity() * 8
            + self.sources.capacity() * 4
    }
}

/// Per-source incremental aggregates, maintained at ingest so every
/// Table 1 query is O(1) and never re-scans the columns.
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

/// One source's state: the sorted block, the kind index over it, and the
/// Table 1 aggregates.
#[derive(Debug)]
struct Source {
    block: ColumnBlock,
    index: RunIndex,
    stats: SourceStats,
}

impl Source {
    fn new() -> Source {
        Source {
            block: ColumnBlock::default(),
            index: RunIndex::new(KINDS),
            stats: SourceStats::default(),
        }
    }

    fn memory_bytes(&self) -> usize {
        self.block.memory_bytes() + self.index.memory_bytes() + self.stats.memory_bytes()
    }
}

/// The ingested event sets as a columnar, time-sorted store (see the
/// module docs for the layout and the ingest paths).
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
            tele: Source::new(),
            hp: Source::new(),
        }
    }

    /// Ingest the telescope detector's events (any order).
    pub fn ingest_telescope(&mut self, events: Vec<AttackEvent>) {
        debug_assert!(events.iter().all(|e| e.source() == EventSource::Telescope));
        self.ingest_batch(EventSource::Telescope, &events);
    }

    /// Ingest the honeypot fleet's events (any order).
    pub fn ingest_honeypot(&mut self, events: Vec<AttackEvent>) {
        debug_assert!(events.iter().all(|e| e.source() == EventSource::Honeypot));
        self.ingest_batch(EventSource::Honeypot, &events);
    }

    fn ingest_batch(&mut self, source: EventSource, events: &[AttackEvent]) {
        if events.is_empty() {
            return;
        }
        let n = events.len();
        dosscope_obs::counter!("store.rows").add(n as u64);

        // Sort compact 16-byte (start, target, seq) keys instead of wide
        // rows: seq makes the unstable sort order-identical to a stable
        // sort on (start, target).
        let mut keys: Vec<(u64, u32, u32)> = events
            .iter()
            .enumerate()
            .map(|(i, e)| (e.when.start.0, u32::from(e.target), i as u32))
            .collect();
        if !keys.is_sorted() {
            keys.sort_unstable();
        }
        let first = (keys[0].0, keys[0].1);

        let victims = &mut self.victims;
        let src = match source {
            EventSource::Telescope => &mut self.tele,
            EventSource::Honeypot => &mut self.hp,
        };
        let key = |block: &ColumnBlock, victims: &Interner<Ipv4Addr>, i: usize| {
            (block.start[i], u32::from(victims.resolve(block.victim[i])))
        };
        let rows = src.block.len();

        // `<=` keeps the stable tie order: stored rows sort first on
        // equal keys.
        if rows == 0 || key(&src.block, victims, rows - 1) <= first {
            src.block.reserve(n);
            for &(_, addr, i) in &keys {
                let id = victims.intern(Ipv4Addr::from(addr));
                src.stats.admit(addr, id);
                let row = src.block.len() as u32;
                src.block.push_event(&events[i as usize], id);
                src.index.push(src.block.kind[row as usize], row);
            }
        } else {
            let mut late = ColumnBlock::default();
            late.reserve(n);
            for &(_, addr, i) in &keys {
                let id = victims.intern(Ipv4Addr::from(addr));
                src.stats.admit(addr, id);
                late.push_event(&events[i as usize], id);
            }
            // One two-pointer merge, stored rows first on equal keys.
            let stored = std::mem::take(&mut src.block);
            src.block.reserve(rows + n);
            let (mut i, mut j) = (0, 0);
            while i < rows || j < n {
                if j == n || (i < rows && key(&stored, victims, i) <= (keys[j].0, keys[j].1)) {
                    src.block.push_from(&stored, i);
                    i += 1;
                } else {
                    src.block.push_from(&late, j);
                    j += 1;
                }
            }
            dosscope_obs::counter!("store.consolidations").inc();
            dosscope_obs::counter!("store.consolidation_rows").add((rows + n) as u64);
            src.index.clear();
            for (row, &kind) in src.block.kind.iter().enumerate() {
                src.index.push(kind, row as u32);
            }
        }

        dosscope_obs::gauge!("store.victims").set(victims.len() as u64);
    }

    fn source(&self, source: EventSource) -> &Source {
        match source {
            EventSource::Telescope => &self.tele,
            EventSource::Honeypot => &self.hp,
        }
    }

    /// Telescope events, sorted by start.
    pub fn telescope(&self) -> EventsView<'_> {
        self.of(EventSource::Telescope)
    }

    /// Honeypot events, sorted by start.
    pub fn honeypot(&self) -> EventsView<'_> {
        self.of(EventSource::Honeypot)
    }

    /// Both sources chained (telescope first; not globally sorted).
    pub fn all(&self) -> impl Iterator<Item = AttackEvent> + '_ {
        self.telescope().into_iter().chain(self.honeypot())
    }

    /// Events of one source.
    pub fn of(&self, source: EventSource) -> EventsView<'_> {
        EventsView {
            block: self.block(source),
            victims: &self.victims,
        }
    }

    /// Total event count.
    pub fn len(&self) -> usize {
        self.tele.block.len() + self.hp.block.len()
    }

    /// True when nothing was ingested.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The Table 1 aggregate for one source — O(1), maintained at ingest.
    pub fn summary(&self, source: EventSource) -> SourceSummary {
        let src = self.source(source);
        SourceSummary {
            events: src.block.len() as u64,
            targets: src.stats.victims.len() as u64,
            blocks24: src.stats.blocks24.len() as u64,
            blocks16: src.stats.blocks16.len() as u64,
        }
    }

    /// The Table 1 aggregate for the combined data: union popcounts over
    /// the per-source bitsets — no re-scan of either column block.
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

    /// Every distinct victim of one source, in interning (first-seen)
    /// order — the columnar feed for per-target enrichment counts.
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

    /// The full attack history of one victim, both sources merged by
    /// start time (telescope first on ties), decoded to events.
    pub fn history(&self, target: Ipv4Addr) -> Vec<AttackEvent> {
        let Some(id) = self.victims.get(target) else {
            return Vec::new();
        };
        let tele = &self.tele.block;
        let hp = &self.hp.block;
        let collect = |block: &ColumnBlock| -> Vec<usize> {
            (0..block.len())
                .filter(|&i| block.victim[i] == id)
                .collect()
        };
        let t_rows = collect(tele);
        let h_rows = collect(hp);
        let mut out = Vec::with_capacity(t_rows.len() + h_rows.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < t_rows.len() || j < h_rows.len() {
            let take_tele = j >= h_rows.len()
                || (i < t_rows.len() && tele.start[t_rows[i]] <= hp.start[h_rows[j]]);
            if take_tele {
                out.push(tele.event(t_rows[i], &self.victims));
                i += 1;
            } else {
                out.push(hp.event(h_rows[j], &self.victims));
                j += 1;
            }
        }
        out
    }

    /// Approximate heap footprint of the store in bytes: column vectors,
    /// interner, indexes and aggregate bitsets. This is the "peak working
    /// set" the scale sweep records.
    pub fn memory_bytes(&self) -> usize {
        self.tele.memory_bytes() + self.hp.memory_bytes() + self.victims.memory_bytes()
    }

    /// The sorted column block of one source (crate-internal scan surface).
    pub(crate) fn block(&self, source: EventSource) -> &ColumnBlock {
        &self.source(source).block
    }

    /// The kind-predicate index of one source.
    pub(crate) fn kind_index(&self, source: EventSource) -> &RunIndex {
        &self.source(source).index
    }

    /// The shared victim interner.
    pub(crate) fn victim_ids(&self) -> &Interner<Ipv4Addr> {
        &self.victims
    }
}

/// A borrowed, zero-copy view of one source's events in store order.
///
/// The view decodes rows into owned [`AttackEvent`]s on access: `get`
/// and iteration hand back values, not references, so call sites that
/// previously iterated `&[AttackEvent]` keep working with at most a
/// dropped `&`/`.cloned()`. Equality against other views and against
/// event slices compares decoded rows, which keeps the store-equivalence
/// assertions byte-for-byte meaningful.
#[derive(Clone, Copy)]
pub struct EventsView<'a> {
    block: &'a ColumnBlock,
    victims: &'a Interner<Ipv4Addr>,
}

impl<'a> EventsView<'a> {
    /// Number of events in the view.
    pub fn len(&self) -> usize {
        self.block.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decode the event at row `i` (panics when out of bounds).
    pub fn get(&self, i: usize) -> AttackEvent {
        self.block.event(i, self.victims)
    }

    /// Iterate the events in store order, decoding each row.
    pub fn iter(&self) -> EventsIter<'a> {
        EventsIter {
            back: self.len(),
            view: *self,
            next: 0,
        }
    }

    /// Materialize the view into an owned vector.
    pub fn to_vec(&self) -> Vec<AttackEvent> {
        self.iter().collect()
    }
}

/// Owning-item iterator over an [`EventsView`].
#[derive(Clone)]
pub struct EventsIter<'a> {
    view: EventsView<'a>,
    next: usize,
    back: usize,
}

impl Iterator for EventsIter<'_> {
    type Item = AttackEvent;

    fn next(&mut self) -> Option<AttackEvent> {
        if self.next >= self.back {
            return None;
        }
        let e = self.view.get(self.next);
        self.next += 1;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for EventsIter<'_> {}

impl DoubleEndedIterator for EventsIter<'_> {
    fn next_back(&mut self) -> Option<AttackEvent> {
        if self.next >= self.back {
            return None;
        }
        self.back -= 1;
        Some(self.view.get(self.back))
    }
}

impl<'a> IntoIterator for EventsView<'a> {
    type Item = AttackEvent;
    type IntoIter = EventsIter<'a>;

    fn into_iter(self) -> EventsIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &EventsView<'a> {
    type Item = AttackEvent;
    type IntoIter = EventsIter<'a>;

    fn into_iter(self) -> EventsIter<'a> {
        self.iter()
    }
}

impl PartialEq for EventsView<'_> {
    fn eq(&self, other: &EventsView<'_>) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl PartialEq<[AttackEvent]> for EventsView<'_> {
    fn eq(&self, other: &[AttackEvent]) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == *b)
    }
}

impl PartialEq<Vec<AttackEvent>> for EventsView<'_> {
    fn eq(&self, other: &Vec<AttackEvent>) -> bool {
        *self == other[..]
    }
}

impl PartialEq<&[AttackEvent]> for EventsView<'_> {
    fn eq(&self, other: &&[AttackEvent]) -> bool {
        *self == **other
    }
}

impl std::fmt::Debug for EventsView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
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
    }

    #[test]
    fn ingest_sorts_by_start() {
        let mut s = EventStore::new();
        s.ingest_telescope(vec![tele("10.0.0.1", 500), tele("10.0.0.2", 10)]);
        let events = s.telescope().to_vec();
        assert!(events.windows(2).all(|w| w[0].when.start <= w[1].when.start));
    }

    #[test]
    fn vector_encoding_roundtrips() {
        let mut vectors = vec![];
        for proto in TransportProto::ALL {
            vectors.push(AttackVector::RandomlySpoofed {
                proto,
                ports: PortSignature::Single(443),
            });
            vectors.push(AttackVector::RandomlySpoofed {
                proto,
                ports: PortSignature::Multi(17),
            });
            vectors.push(AttackVector::RandomlySpoofed {
                proto,
                ports: PortSignature::None,
            });
        }
        for protocol in ReflectionProtocol::ALL {
            vectors.push(AttackVector::Reflection { protocol });
        }
        let mut seen = std::collections::HashSet::new();
        for v in vectors {
            let (kind, aux) = encode_vector(v);
            assert!((kind as usize) < KINDS, "kind codes stay in range");
            assert!(seen.insert((kind, aux)), "codes are distinct");
            assert_eq!(decode_vector(kind, aux), v, "decode inverts encode");
        }
    }

    #[test]
    fn views_decode_rows_exactly() {
        let mut s = EventStore::new();
        let batch = vec![tele("10.0.0.1", 500), tele("10.0.0.2", 10)];
        s.ingest_telescope(batch.clone());
        let mut expect = batch;
        expect.sort_by_key(|e| (e.when.start, e.target));
        assert_eq!(s.telescope(), expect, "view equals the sorted rows");
        assert_eq!(s.telescope().get(0), expect[0]);
        assert_eq!(s.telescope().to_vec(), expect);
        assert_eq!(s.telescope().iter().len(), 2);
        let rev: Vec<AttackEvent> = s.telescope().iter().rev().collect();
        assert_eq!(rev[1], expect[0], "double-ended iteration");
    }

    #[test]
    fn out_of_order_ingest_matches_row_semantics() {
        // Second batch starts before the first ends: the merge at ingest
        // must reproduce extend-and-stable-sort byte-for-byte.
        let mut s = EventStore::new();
        let b1 = vec![tele("10.0.0.9", 300), tele("10.0.0.1", 700)];
        let b2 = vec![tele("10.0.0.3", 100), tele("10.0.0.1", 300), tele("10.0.0.9", 300)];
        s.ingest_telescope(b1.clone());
        s.ingest_telescope(b2.clone());
        let mut rows: Vec<AttackEvent> = b1;
        rows.extend(b2);
        rows.sort_by_key(|e| (e.when.start, e.target));
        assert_eq!(s.telescope(), rows);
    }

    #[test]
    fn late_batch_leaves_block_and_index_complete() {
        let mut s = EventStore::new();
        s.ingest_telescope(vec![tele("10.0.0.1", 1000), tele("10.0.0.2", 1500)]);
        s.ingest_honeypot(vec![hp("10.0.0.5", 900)]);
        s.ingest_telescope(vec![tele("10.0.0.3", 1200), tele("10.0.0.1", 500)]);
        s.ingest_honeypot(vec![hp("10.0.0.4", 100)]);
        // Straight after the late batches, before any other read.
        let mut postings = 0;
        for source in [EventSource::Telescope, EventSource::Honeypot] {
            let block = s.block(source);
            let keys: Vec<(u64, Ipv4Addr)> = (0..block.len())
                .map(|i| (block.start[i], s.victims.resolve(block.victim[i])))
                .collect();
            assert!(keys.is_sorted(), "{source:?} block sorted at ingest");
            postings += s.kind_index(source).postings();
        }
        assert_eq!(postings, s.len(), "the kind index covers every row");
        let starts: Vec<u64> = s.telescope().iter().map(|e| e.when.start.0).collect();
        assert_eq!(starts, vec![500, 1000, 1200, 1500]);
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
        assert_eq!(s.kind_index(EventSource::Telescope).postings(), 5);
    }

    #[test]
    fn out_of_order_batches_stack_runs_until_read() {
        let mut s = EventStore::new();
        s.ingest_telescope(vec![tele("10.0.0.1", 1000)]);
        s.ingest_telescope(vec![tele("10.0.0.1", 500)]);
        // The late batch is merged at ingest: the block is sorted before
        // any view is taken, and summaries see both rows.
        assert_eq!(s.block(EventSource::Telescope).start, vec![500, 1000]);
        assert_eq!(s.summary(EventSource::Telescope).events, 2);
        let starts: Vec<u64> = s.telescope().iter().map(|e| e.when.start.0).collect();
        assert_eq!(starts, vec![500, 1000]);
    }

    #[test]
    fn history_merges_sources_by_start() {
        let mut s = EventStore::new();
        s.ingest_telescope(vec![tele("10.0.0.1", 50), tele("10.0.0.2", 60), tele("10.0.0.1", 500)]);
        s.ingest_honeypot(vec![hp("10.0.0.1", 90), hp("10.0.0.1", 50)]);
        let h = s.history("10.0.0.1".parse().unwrap());
        assert_eq!(h.len(), 4);
        let starts: Vec<u64> = h.iter().map(|e| e.when.start.0).collect();
        assert_eq!(starts, vec![50, 50, 90, 500]);
        assert_eq!(h[0].source(), EventSource::Telescope, "telescope wins ties");
        assert!(s.history("192.168.0.1".parse().unwrap()).is_empty());
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
