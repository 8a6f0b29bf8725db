//! The store's lateness counters, in their own test binary: telemetry is
//! process-global, so no other test may ingest while this one reads.

use dosscope_core::EventStore;
use dosscope_obs::registry::counter;
use dosscope_types::{
    AttackEvent, AttackVector, PortSignature, ReflectionProtocol, SimTime, TimeRange,
    TransportProto,
};

fn event(ip: &str, start: u64, vector: AttackVector) -> AttackEvent {
    AttackEvent {
        target: ip.parse().unwrap(),
        when: TimeRange::new(SimTime(start), SimTime(start + 100)),
        vector,
        packets: 100,
        bytes: 4000,
        intensity_pps: 1.0,
        distinct_sources: 10,
    }
}

fn tele(ip: &str, start: u64) -> AttackEvent {
    let ports = PortSignature::Single(80);
    event(
        ip,
        start,
        AttackVector::RandomlySpoofed {
            proto: TransportProto::Tcp,
            ports,
        },
    )
}

fn hp(ip: &str, start: u64) -> AttackEvent {
    event(
        ip,
        start,
        AttackVector::Reflection {
            protocol: ReflectionProtocol::Ntp,
        },
    )
}

#[test]
fn lateness_counters_count_only_late_batches() {
    let _telemetry = dosscope_obs::testing::scoped_enable();
    let value = |name: &str| counter(name).value();
    let mut s = EventStore::new();
    s.ingest_telescope(vec![tele("10.0.0.1", 100), tele("10.0.0.2", 200)]);
    // In order: its first key equals the last stored key.
    s.ingest_telescope(vec![tele("10.0.0.2", 200), tele("10.0.0.3", 300)]);
    s.ingest_honeypot(vec![hp("10.0.0.1", 50)]);
    assert_eq!(value("store.rows"), 5);
    assert_eq!(value("store.consolidations"), 0);
    assert_eq!(value("store.consolidation_rows"), 0);

    // Late: it starts before the last stored telescope key, so one
    // consolidation rewrites the 4 stored rows and the 3 new ones.
    s.ingest_telescope(vec![
        tele("10.0.0.4", 400),
        tele("10.0.0.5", 150),
        tele("10.0.0.6", 50),
    ]);
    assert_eq!(value("store.rows"), 8);
    assert_eq!(value("store.consolidations"), 1);
    assert_eq!(value("store.consolidation_rows"), 4 + 3);
    let starts: Vec<u64> = s.telescope().iter().map(|e| e.when.start.0).collect();
    assert_eq!(starts, vec![50, 100, 150, 200, 200, 300, 400]);
}
