//! Differential suite: the [`EventStore`] must be observationally
//! identical to the most naive store that is obviously correct.
//!
//! [`RowStore`] below is that reference — two `Vec<AttackEvent>`s,
//! extended and stably re-sorted by `(start, target)` on every ingest —
//! and every analysis the repo runs over the store is recomputed here
//! from the raw rows with the most naive algorithm that is obviously
//! correct. The store shares the row layout but not the code: it sorts
//! each batch, re-sorts only after a late batch, and answers Table 1,
//! common targets and membership from ingest-time bitsets. Property tests then drive both stores with
//! arbitrary event sets (random seeds × batch splits × batch orders) and
//! assert that fusion outputs, Table aggregates and per-victim histories
//! agree exactly; deterministic edge cases (empty store, single event,
//! one-victim pileups, duplicate timestamps) and adversarial ingest
//! orderings pin the boundaries.

use dosscope_core::report::{Table1, Table5, Table6, Table7};
use dosscope_core::{Enricher, EventStore, Framework, JointAnalysis, SourceSummary};
use dosscope_geo::{AsDb, GeoDb};
use dosscope_types::{
    AttackEvent, AttackVector, EventSource, FastSet, PortSignature, Prefix16, Prefix24,
    ReflectionProtocol, SimTime, TimeRange, TransportProto,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

// ---------------------------------------------------------------------------
// The reference: a naive row store.
// ---------------------------------------------------------------------------

/// Plain event vectors, stably re-sorted by `(start, target)` on every
/// ingest.
#[derive(Debug, Default)]
struct RowStore {
    telescope: Vec<AttackEvent>,
    honeypot: Vec<AttackEvent>,
}

impl RowStore {
    fn ingest_telescope(&mut self, events: Vec<AttackEvent>) {
        self.telescope.extend(events);
        self.telescope.sort_by_key(|e| (e.when.start, e.target));
    }

    fn ingest_honeypot(&mut self, events: Vec<AttackEvent>) {
        self.honeypot.extend(events);
        self.honeypot.sort_by_key(|e| (e.when.start, e.target));
    }

    fn of(&self, source: EventSource) -> &[AttackEvent] {
        match source {
            EventSource::Telescope => &self.telescope,
            EventSource::Honeypot => &self.honeypot,
        }
    }

    fn summarize<'a>(events: impl Iterator<Item = &'a AttackEvent>) -> SourceSummary {
        let mut targets: FastSet<Ipv4Addr> = FastSet::default();
        let mut blocks24: FastSet<Prefix24> = FastSet::default();
        let mut blocks16: FastSet<Prefix16> = FastSet::default();
        let mut n = 0u64;
        for e in events {
            n += 1;
            targets.insert(e.target);
            blocks24.insert(Prefix24::of(e.target));
            blocks16.insert(Prefix16::of(e.target));
        }
        SourceSummary {
            events: n,
            targets: targets.len() as u64,
            blocks24: blocks24.len() as u64,
            blocks16: blocks16.len() as u64,
        }
    }

    fn summary(&self, source: EventSource) -> SourceSummary {
        Self::summarize(self.of(source).iter())
    }

    fn summary_combined(&self) -> SourceSummary {
        Self::summarize(self.telescope.iter().chain(self.honeypot.iter()))
    }

    fn common_targets(&self) -> u64 {
        let t: FastSet<Ipv4Addr> = self.telescope.iter().map(|e| e.target).collect();
        self.honeypot
            .iter()
            .map(|e| e.target)
            .collect::<FastSet<_>>()
            .intersection(&t)
            .count() as u64
    }

    fn distinct_targets(&self, source: EventSource) -> Vec<Ipv4Addr> {
        let mut t: Vec<Ipv4Addr> = self
            .of(source)
            .iter()
            .map(|e| e.target)
            .collect::<FastSet<_>>()
            .into_iter()
            .collect();
        t.sort();
        t
    }
}

/// Row-level reference for the joint correlation's scalar outputs: a
/// quadratic scan.
struct RowJoint {
    common_targets: u64,
    joint_targets: u64,
    joint_pairs: u64,
    single_port_share: f64,
    tcp_http_share: f64,
    udp_27015_share: f64,
    reflection_shares: Vec<(ReflectionProtocol, f64)>,
}

impl RowJoint {
    fn run(rows: &RowStore) -> RowJoint {
        let mut common: FastSet<Ipv4Addr> = FastSet::default();
        let mut joint_targets: FastSet<Ipv4Addr> = FastSet::default();
        let mut joint_pairs = 0u64;
        let mut joint_tele: Vec<&AttackEvent> = Vec::new();
        let mut joint_hp_idx: Vec<usize> = Vec::new();
        let hp_targets: FastSet<Ipv4Addr> = rows.honeypot.iter().map(|e| e.target).collect();
        for t in &rows.telescope {
            if !hp_targets.contains(&t.target) {
                continue;
            }
            common.insert(t.target);
            let mut is_joint = false;
            for (hi, h) in rows.honeypot.iter().enumerate() {
                if h.target == t.target && t.when.overlaps(&h.when) {
                    joint_pairs += 1;
                    joint_targets.insert(t.target);
                    is_joint = true;
                    if !joint_hp_idx.contains(&hi) {
                        joint_hp_idx.push(hi);
                    }
                }
            }
            if is_joint {
                joint_tele.push(t);
            }
        }

        let mut single = 0u64;
        let mut tcp_single = 0u64;
        let mut tcp_http = 0u64;
        let mut udp_single = 0u64;
        let mut udp_steam = 0u64;
        for e in &joint_tele {
            if e.port_signature().is_some_and(|p| p.is_single()) || e.port_signature().is_none() {
                single += 1;
            }
            if let (Some(proto), Some(PortSignature::Single(port))) =
                (e.transport_proto(), e.port_signature())
            {
                if proto == TransportProto::Tcp {
                    tcp_single += 1;
                    tcp_http += u64::from(port == 80);
                } else if proto == TransportProto::Udp {
                    udp_single += 1;
                    udp_steam += u64::from(port == 27015);
                }
            }
        }
        let share = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };

        let mut proto_counts = [0u64; ReflectionProtocol::ALL.len()];
        for &hi in &joint_hp_idx {
            let p = rows.honeypot[hi].reflection_protocol().expect("hp event");
            proto_counts[p as usize] += 1;
        }
        let hp_total: u64 = proto_counts.iter().sum();
        let mut reflection_shares: Vec<(ReflectionProtocol, f64)> = ReflectionProtocol::ALL
            .iter()
            .map(|&p| (p, share(proto_counts[p as usize], hp_total)))
            .collect();
        reflection_shares.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));

        RowJoint {
            common_targets: common.len() as u64,
            joint_targets: joint_targets.len() as u64,
            joint_pairs,
            single_port_share: share(single, joint_tele.len() as u64),
            tcp_http_share: share(tcp_http, tcp_single),
            udp_27015_share: share(udp_steam, udp_single),
            reflection_shares,
        }
    }
}

// ---------------------------------------------------------------------------
// Event generation: arbitrary mixed-source streams over a few /16s.
// ---------------------------------------------------------------------------

/// Build one event from raw draws. `a` picks the /16 (the shard key), `b`
/// the host — repeated targets are needed for joint/common populations —
/// and the remaining draws cover every attack-vector shape.
fn build_event((a, b, start, dur, kind): (u8, u8, u64, u64, u8)) -> AttackEvent {
    let target = Ipv4Addr::new(10, a % 19, b % 13, 1 + (a % 3));
    let when = TimeRange::new(SimTime(start), SimTime(start + dur));
    match kind % 5 {
        0 => AttackEvent {
            target,
            when,
            vector: AttackVector::RandomlySpoofed {
                proto: TransportProto::ALL[(a % 4) as usize],
                ports: PortSignature::Single(if b % 2 == 0 { 80 } else { 27015 }),
            },
            packets: 25 + b as u64,
            bytes: 1000 + a as u64,
            intensity_pps: 0.5 + a as f64,
            distinct_sources: 1 + b as u32,
        },
        1 => AttackEvent {
            target,
            when,
            vector: AttackVector::RandomlySpoofed {
                proto: TransportProto::ALL[(b % 4) as usize],
                ports: PortSignature::Multi(2 + (b % 5) as u32),
            },
            packets: 30 + a as u64,
            bytes: 900 + b as u64,
            intensity_pps: 1.5 + b as f64,
            distinct_sources: 2 + a as u32,
        },
        2 => AttackEvent {
            target,
            when,
            vector: AttackVector::RandomlySpoofed {
                proto: TransportProto::ALL[((a ^ b) % 4) as usize],
                ports: PortSignature::None,
            },
            packets: 40,
            bytes: 1600,
            intensity_pps: 2.0,
            distinct_sources: 3,
        },
        _ => AttackEvent {
            target,
            when,
            vector: AttackVector::Reflection {
                protocol: ReflectionProtocol::ALL[(a % 8) as usize],
            },
            packets: 101 + b as u64,
            bytes: 5000 + a as u64,
            intensity_pps: 1.0 + b as f64,
            distinct_sources: 1 + (a % 24) as u32,
        },
    }
}

fn raw_stream() -> impl Strategy<Value = Vec<(u8, u8, u64, u64, u8)>> {
    proptest::collection::vec(
        (
            any::<u8>(),
            any::<u8>(),
            0u64..700 * 86_400,
            60u64..90_000,
            any::<u8>(),
        ),
        0..180,
    )
}

fn split(events: Vec<AttackEvent>) -> (Vec<AttackEvent>, Vec<AttackEvent>) {
    events
        .into_iter()
        .partition(|e| e.source() == EventSource::Telescope)
}

/// Drive both stores with the same batches and check every observable.
fn assert_equivalent(rows: &RowStore, store: &EventStore) {
    // The stored rows are exactly the reference's.
    assert!(store.telescope() == rows.telescope.as_slice(), "telescope rows");
    assert!(store.honeypot() == rows.honeypot.as_slice(), "honeypot rows");
    assert_eq!(store.len(), rows.telescope.len() + rows.honeypot.len());

    // Table 1 aggregates (ingest-time bitset counts in the store;
    // recomputed from scratch in the reference).
    for source in [EventSource::Telescope, EventSource::Honeypot] {
        assert_eq!(store.summary(source), rows.summary(source), "{source:?}");
    }
    assert_eq!(store.summary_combined(), rows.summary_combined());
    assert_eq!(store.common_targets(), rows.common_targets());
    for source in [EventSource::Telescope, EventSource::Honeypot] {
        let mut got: Vec<Ipv4Addr> = store.distinct_targets(source).collect();
        got.sort();
        assert_eq!(got, rows.distinct_targets(source), "{source:?} targets");
    }

    // The joint correlation against the quadratic row reference.
    let geo = GeoDb::new();
    let asdb = AsDb::new();
    let enricher = Enricher::new(&geo, &asdb);
    let joint = JointAnalysis::run(store, &enricher);
    let expect = RowJoint::run(rows);
    assert_eq!(joint.common_targets, expect.common_targets);
    assert_eq!(joint.joint_targets, expect.joint_targets);
    assert_eq!(joint.joint_pairs, expect.joint_pairs);
    assert_eq!(joint.single_port_share, expect.single_port_share);
    assert_eq!(joint.tcp_http_share, expect.tcp_http_share);
    assert_eq!(joint.udp_27015_share, expect.udp_27015_share);
    assert_eq!(joint.reflection_shares, expect.reflection_shares);

    // Table aggregates against row scans.
    let fw = Framework::new(store, &geo, &asdb, 731);
    let t1 = Table1::build(&fw);
    assert_eq!(t1.rows[0].summary, rows.summary(EventSource::Telescope));
    assert_eq!(t1.rows[1].summary, rows.summary(EventSource::Honeypot));
    assert_eq!(t1.rows[2].summary, rows.summary_combined());

    let t5 = Table5::build(&fw);
    for (i, &proto) in TransportProto::ALL.iter().enumerate() {
        let want = rows
            .telescope
            .iter()
            .filter(|e| e.transport_proto() == Some(proto))
            .count() as u64;
        assert_eq!(t5.counts[i], want, "{proto:?} count");
    }

    let t6 = Table6::build(&fw);
    for p in ReflectionProtocol::ALL {
        let want = rows
            .honeypot
            .iter()
            .filter(|e| e.reflection_protocol() == Some(p))
            .count() as u64;
        let got = t6.counts.iter().find(|&&(q, _)| q == p).map_or(0, |&(_, n)| n);
        assert_eq!(got, want, "{p:?} count");
    }

    let t7 = Table7::build(&fw);
    let single = rows
        .telescope
        .iter()
        .filter(|e| e.port_signature().is_some_and(|p| p.is_single()))
        .count() as u64;
    assert_eq!(t7.single, single);
    assert_eq!(t7.multi, rows.telescope.len() as u64 - single);
}

fn build_both(
    tele: Vec<AttackEvent>,
    hp: Vec<AttackEvent>,
    batches: usize,
) -> (RowStore, EventStore) {
    build_rotated(tele, hp, batches, 0)
}

/// [`build_both`] with the batch sequence rotated left by `rotate`, so any
/// batch can arrive first.
fn build_rotated(
    tele: Vec<AttackEvent>,
    hp: Vec<AttackEvent>,
    batches: usize,
    rotate: usize,
) -> (RowStore, EventStore) {
    let mut rows = RowStore::default();
    let mut store = EventStore::new();
    // Split each source into `batches` interleaved chunks so in-order
    // appends and late-batch re-sorts are exercised, not just the single
    // sorted bulk load.
    let chunk = |v: &[AttackEvent], k: usize| -> Vec<AttackEvent> {
        v.iter().skip(k).step_by(batches).cloned().collect()
    };
    for k in (0..batches).map(|k| (k + rotate) % batches) {
        rows.ingest_telescope(chunk(&tele, k));
        store.ingest_telescope(chunk(&tele, k));
        rows.ingest_honeypot(chunk(&hp, k));
        store.ingest_honeypot(chunk(&hp, k));
    }
    (rows, store)
}

// ---------------------------------------------------------------------------
// Property tests: arbitrary event sets × batch splits × batch orders.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn columnar_store_matches_row_store(
        raw in raw_stream(),
        batches in 1usize..9,
        rotate in 0usize..8,
    ) {
        let (tele, hp) = split(raw.into_iter().map(build_event).collect());
        let (rows, store) = build_rotated(tele, hp, batches, rotate);
        assert_equivalent(&rows, &store);
    }
}

// ---------------------------------------------------------------------------
// Deterministic edge cases.
// ---------------------------------------------------------------------------

fn tele_at(ip: &str, start: u64, end: u64) -> AttackEvent {
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

fn hp_at(ip: &str, start: u64, end: u64) -> AttackEvent {
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

#[test]
fn empty_store_is_equivalent() {
    let (rows, store) = build_both(Vec::new(), Vec::new(), 1);
    assert_equivalent(&rows, &store);
    assert!(store.is_empty());
    assert_eq!(store.summary_combined(), SourceSummary::default());
}

#[test]
fn single_event_is_equivalent() {
    let (rows, store) = build_both(vec![tele_at("10.0.0.1", 100, 400)], Vec::new(), 1);
    assert_equivalent(&rows, &store);
    let (rows, store) = build_both(Vec::new(), vec![hp_at("10.0.0.1", 100, 400)], 1);
    assert_equivalent(&rows, &store);
}

#[test]
fn all_events_on_one_victim_is_equivalent() {
    // Every event hits the same address: one interner entry, histories
    // spanning both sources' full row sets.
    let tele: Vec<AttackEvent> = (0..40)
        .map(|i| tele_at("10.1.2.3", i * 50, i * 50 + 600))
        .collect();
    let hp: Vec<AttackEvent> = (0..40)
        .map(|i| hp_at("10.1.2.3", i * 70 + 25, i * 70 + 500))
        .collect();
    for batches in [1, 3] {
        let (rows, store) = build_both(tele.clone(), hp.clone(), batches);
        assert_equivalent(&rows, &store);
        assert_eq!(store.summary_combined().targets, 1);
    }
}

#[test]
fn duplicate_timestamps_are_equivalent() {
    // Equal (start, target) keys across events and batches: the tie order
    // (stored rows before new rows) must reproduce the stable sort of the
    // row store.
    let mut tele = Vec::new();
    let mut hp = Vec::new();
    for i in 0..30u64 {
        let ip = format!("10.0.{}.1", i % 3);
        tele.push(tele_at(&ip, 1000, 2000 + i)); // same start, same target set
        tele.push(tele_at(&ip, 1000, 5000 - i));
        hp.push(hp_at(&ip, 1000, 3000 + i));
    }
    for batches in [1, 2, 3] {
        let (rows, store) = build_both(tele.clone(), hp.clone(), batches);
        assert_equivalent(&rows, &store);
    }
}

// ---------------------------------------------------------------------------
// Adversarial ingest orderings: batch sequences chosen so every batch is
// late and goes through the re-sort.
// ---------------------------------------------------------------------------

#[test]
fn reverse_time_batches_are_equivalent() {
    // Batches arrive newest-first: every batch after the first lands
    // entirely before the rows already in the store, so every batch is
    // late and re-sorts at ingest.
    let batch = |b: u64| -> (Vec<AttackEvent>, Vec<AttackEvent>) {
        let tele = (0..20u64)
            .map(|i| {
                let ip = format!("10.0.{}.1", i % 5);
                tele_at(&ip, b * 100_000 + i * 37, b * 100_000 + i * 37 + 600)
            })
            .collect();
        let hp = (0..10u64)
            .map(|i| {
                let ip = format!("10.0.{}.1", i % 5);
                hp_at(&ip, b * 100_000 + i * 53 + 7, b * 100_000 + i * 53 + 500)
            })
            .collect();
        (tele, hp)
    };

    let mut rows = RowStore::default();
    let mut store = EventStore::new();
    for b in (0..6u64).rev() {
        let (tele, hp) = batch(b);
        rows.ingest_telescope(tele.clone());
        store.ingest_telescope(tele);
        rows.ingest_honeypot(hp.clone());
        store.ingest_honeypot(hp);
    }
    assert_equivalent(&rows, &store);
}

/// Read both sources between ingests.
fn read_both(store: &EventStore) {
    let _ = (store.telescope().len(), store.honeypot().len());
}

#[test]
fn interleaved_duplicate_timestamp_batches_are_equivalent() {
    // Duplicate (start, target) keys split across interleaved batches: the
    // tie order (stored rows first) must reproduce the row store's
    // stable sort whether or not the store is read between ingests.
    let mut tele = Vec::new();
    let mut hp = Vec::new();
    for i in 0..24u64 {
        let ip = format!("10.0.{}.1", i % 2);
        tele.push(tele_at(&ip, 1000, 2000 + i));
        hp.push(hp_at(&ip, 1000, 3000 + i));
    }
    for read_every_batch in [true, false] {
        let mut rows = RowStore::default();
        let mut store = EventStore::new();
        for k in 0..3 {
            let tc: Vec<AttackEvent> = tele.iter().skip(k).step_by(3).cloned().collect();
            let hc: Vec<AttackEvent> = hp.iter().skip(k).step_by(3).cloned().collect();
            rows.ingest_telescope(tc.clone());
            store.ingest_telescope(tc);
            rows.ingest_honeypot(hc.clone());
            store.ingest_honeypot(hc);
            if read_every_batch {
                read_both(&store);
            }
        }
        assert_equivalent(&rows, &store);
    }
}

#[test]
fn single_event_batches_are_equivalent() {
    // One event per ingest call, in descending time order: every batch
    // is a 1-row late batch sorted onto the front of the rows.
    let events: Vec<AttackEvent> = (0..60u64)
        .map(|i| {
            let ip = format!("10.{}.{}.1", i % 4, i % 7);
            let start = (60 - i) * 997;
            if i % 3 == 0 {
                hp_at(&ip, start, start + 400)
            } else {
                tele_at(&ip, start, start + 700)
            }
        })
        .collect();
    let mut rows = RowStore::default();
    let mut store = EventStore::new();
    for e in &events {
        match e.source() {
            EventSource::Telescope => {
                rows.ingest_telescope(vec![e.clone()]);
                store.ingest_telescope(vec![e.clone()]);
            }
            EventSource::Honeypot => {
                rows.ingest_honeypot(vec![e.clone()]);
                store.ingest_honeypot(vec![e.clone()]);
            }
        }
    }
    assert_equivalent(&rows, &store);
}

#[test]
fn read_cadence_matrix_is_equivalent() {
    // Every read cadence — a read after every batch, every 2nd, every
    // 5th, or none until the final comparison — must be observationally
    // identical.
    let (tele, hp) = split(
        (0..150u64)
            .map(|i| {
                build_event((
                    (i as u8) ^ 0x5b,
                    (i * 7) as u8,
                    (9_999 - i * 61) * 60,
                    600 + i,
                    i as u8,
                ))
            })
            .collect(),
    );
    const BATCHES: usize = 10;
    for read_every in [Some(1usize), Some(2), Some(5), None] {
        let mut rows = RowStore::default();
        let mut store = EventStore::new();
        for k in 0..BATCHES {
            let tc: Vec<AttackEvent> = tele.iter().skip(k).step_by(BATCHES).cloned().collect();
            let hc: Vec<AttackEvent> = hp.iter().skip(k).step_by(BATCHES).cloned().collect();
            rows.ingest_telescope(tc.clone());
            store.ingest_telescope(tc);
            rows.ingest_honeypot(hc.clone());
            store.ingest_honeypot(hc);
            if read_every.is_some_and(|n| (k + 1) % n == 0) {
                read_both(&store);
            }
        }
        assert_equivalent(&rows, &store);
    }
}
