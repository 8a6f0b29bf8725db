//! Joint attacks at the packet level: build a SYN flood's backscatter and
//! an NTP reflection attack against the same victim from raw bytes, run
//! them through the real detection pipelines, and correlate — the
//! low-level API the scenario harness automates.
//!
//! ```sh
//! cargo run --release --example joint_attacks
//! ```

use dosscope_amppot::{AmpPotFleet, HoneypotId, RequestBatch};
use dosscope_core::{Enricher, EventStore, JointAnalysis};
use dosscope_geo::{AsDb, GeoDb};
use dosscope_telescope::{run_rsdos, PacketBatch, RsdosDetector, Telescope};
use dosscope_types::{CountryCode, ReflectionProtocol, SimTime};
use dosscope_wire::builder;
use std::net::Ipv4Addr;

fn main() {
    let victim: Ipv4Addr = "203.0.113.80".parse().unwrap();
    let telescope = Telescope::default_slash8();

    // --- The SYN flood, seen as backscatter -------------------------------
    // The victim answers spoofed SYNs with SYN/ACKs; 1/256 of the spoofed
    // sources fall into the darknet. Render 10 minutes at ~2 pps observed.
    let mut backscatter = Vec::new();
    for s in 0..600u64 {
        let spoofed = Ipv4Addr::new(44, 10, (s % 250) as u8, (s % 200) as u8);
        let pkt = builder::tcp_syn_ack(victim, 80, spoofed, 40_000 + s as u16, s as u32);
        backscatter.push(PacketBatch::repeated(SimTime(1_000 + s), 2, pkt));
    }
    let detector = RsdosDetector::with_defaults(telescope);
    let (tele_events, stats) = run_rsdos(detector, backscatter);
    println!(
        "telescope: {} backscatter packets -> {} attack event(s)",
        stats.backscatter_packets,
        tele_events.len()
    );
    for e in &tele_events {
        println!(
            "  {} {:?} port(s) {:?}, {:.1} pps observed (≈{:.0} pps at the victim), {}s",
            e.target,
            e.transport_proto().unwrap(),
            e.port_signature().unwrap(),
            e.intensity_pps,
            e.intensity_pps * telescope.scaling_factor(),
            e.duration_secs()
        );
    }

    // --- The simultaneous NTP reflection attack ---------------------------
    // The attacker spoofs monlist requests "from" the victim at four of
    // the fleet's honeypots, overlapping the SYN flood in time.
    let mut fleet = AmpPotFleet::standard();
    let pots: Vec<_> = fleet.honeypots().iter().map(|h| (h.id, h.addr)).collect();
    for s in 0..400u64 {
        for &(id, addr) in pots.iter().take(4) {
            let pkt = builder::reflection_request(victim, 51_000, addr, ReflectionProtocol::Ntp);
            fleet.ingest(&RequestBatch::repeated(id, SimTime(1_200 + s), 3, pkt));
        }
    }
    let (hp_events, fstats) = fleet.finish();
    println!(
        "honeypots: {} requests -> {} attack event(s)",
        fstats.requests,
        hp_events.len()
    );
    for e in &hp_events {
        println!(
            "  {} {:?} at {:.0} req/s over {} honeypots, {}s",
            e.target,
            e.reflection_protocol().unwrap(),
            e.intensity_pps,
            e.distinct_sources,
            e.duration_secs()
        );
    }

    // --- Correlation -------------------------------------------------------
    let mut store = EventStore::new();
    store.ingest_telescope(tele_events);
    store.ingest_honeypot(hp_events);
    let mut geo = GeoDb::new();
    geo.insert("203.0.113.0/24".parse().unwrap(), CountryCode::new("NL"));
    let asdb = AsDb::new();
    let enricher = Enricher::new(&geo, &asdb);
    let joint = JointAnalysis::run(&store, &enricher);
    let _ = HoneypotId(0);

    println!(
        "\ncorrelation: {} common target(s), {} joint target(s), {} overlapping pair(s)",
        joint.common_targets, joint.joint_targets, joint.joint_pairs
    );
    assert_eq!(joint.joint_targets, 1, "the SYN flood and NTP attack overlap");
    println!("=> {victim} was hit by a joint attack (SYN flood + NTP reflection)");
}
