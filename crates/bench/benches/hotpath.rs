//! Hot-path microbenchmarks for the overhaul's data-structure choices:
//! bucketed time-wheel expiry vs the pre-overhaul full-table scan, the
//! FxHash victim map vs the std SipHash default, and the fused
//! single-pass classifier vs the layered reference path. The end-to-end
//! numbers come from `dosbench` (see `BENCHMARK.json`); these isolate the
//! individual mechanisms.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dosscope_telescope::flow::FlowTable;
use dosscope_telescope::{classify, classify_batch, Backscatter};
use dosscope_types::{FastMap, SimTime, TransportProto};
use dosscope_wire::{builder, IpProtocol, Ipv4Packet};
use std::collections::HashMap;
use std::net::Ipv4Addr;

const FLOWS: u32 = 4096;

/// A table with `n` single-packet flows whose last activity is staggered
/// over the first four wheel buckets.
fn table_with_flows(n: u32, timeout: u64) -> FlowTable {
    let mut t = FlowTable::new(timeout);
    for i in 0..n {
        let b = Backscatter {
            victim: Ipv4Addr::from(0xCB00_0000u32 + i),
            spoofed_source: Ipv4Addr::from(0x2C00_0000u32 + i),
            attack_proto: TransportProto::Tcp,
            victim_port: Some(80),
        };
        t.offer(&b, SimTime(u64::from(i % 240)), 1, 40);
    }
    t
}

fn bench_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow_expiry");
    g.throughput(Throughput::Elements(u64::from(FLOWS)));

    // Nothing expired: the wheel's point is that an interval boundary
    // with no expirable bucket costs O(1), while the pre-overhaul scan
    // still walks every live flow.
    let mut wheel = table_with_flows(FLOWS, 300);
    g.bench_function("sweep_idle_wheel", |b| {
        b.iter(|| black_box(wheel.sweep(SimTime(300))))
    });
    let mut scan = table_with_flows(FLOWS, 300);
    g.bench_function("sweep_idle_scan", |b| {
        b.iter(|| black_box(scan.sweep_scan(SimTime(300))))
    });

    // Everything expired: both sides finalize every flow; the wheel adds
    // bucket bookkeeping, the scan the full-table walk plus key copies.
    // Each iteration rebuilds the table (the vendored criterion stub has
    // no untimed setup), so the build cost is a shared constant in both.
    g.bench_function("build_and_sweep_all_wheel", |b| {
        b.iter(|| {
            let mut t = table_with_flows(FLOWS, 300);
            black_box(t.sweep(SimTime(10_000)))
        })
    });
    g.bench_function("build_and_sweep_all_scan", |b| {
        b.iter(|| {
            let mut t = table_with_flows(FLOWS, 300);
            black_box(t.sweep_scan(SimTime(10_000)))
        })
    });
    g.finish();
}

fn bench_hashers(c: &mut Criterion) {
    let keys: Vec<Ipv4Addr> = (0..FLOWS)
        .map(|i| Ipv4Addr::from(i.wrapping_mul(2_654_435_761)))
        .collect();
    let mut g = c.benchmark_group("victim_map");
    g.throughput(Throughput::Elements(keys.len() as u64));
    g.bench_function("fxhash_insert_get", |b| {
        b.iter(|| {
            let mut m: FastMap<Ipv4Addr, u64> = FastMap::default();
            for k in &keys {
                *m.entry(*k).or_insert(0) += 1;
            }
            let mut hits = 0u64;
            for k in &keys {
                hits += m[k];
            }
            black_box(hits)
        })
    });
    g.bench_function("siphash_insert_get", |b| {
        b.iter(|| {
            let mut m: HashMap<Ipv4Addr, u64> = HashMap::new();
            for k in &keys {
                *m.entry(*k).or_insert(0) += 1;
            }
            let mut hits = 0u64;
            for k in &keys {
                hits += m[k];
            }
            black_box(hits)
        })
    });
    g.finish();
}

fn bench_classify(c: &mut Criterion) {
    let victim: Ipv4Addr = "203.0.113.7".parse().unwrap();
    let dark: Ipv4Addr = "44.1.2.3".parse().unwrap();
    let syn_ack = builder::tcp_syn_ack(victim, 80, dark, 40_000, 7);
    let unreach = builder::icmp_dest_unreachable(victim, dark, IpProtocol::Udp, 5555, 27015, 3);
    let mut g = c.benchmark_group("classify");
    g.throughput(Throughput::Elements(1));
    g.bench_function("fused_tcp_syn_ack", |b| {
        b.iter(|| classify_batch(black_box(syn_ack.as_slice())))
    });
    g.bench_function("layered_tcp_syn_ack", |b| {
        b.iter(|| {
            let ip = Ipv4Packet::new_checked(black_box(syn_ack.as_slice())).unwrap();
            classify(&ip)
        })
    });
    g.bench_function("fused_icmp_unreachable_udp", |b| {
        b.iter(|| classify_batch(black_box(unreach.as_slice())))
    });
    g.bench_function("layered_icmp_unreachable_udp", |b| {
        b.iter(|| {
            let ip = Ipv4Packet::new_checked(black_box(unreach.as_slice())).unwrap();
            classify(&ip)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_sweep, bench_hashers, bench_classify);
criterion_main!(benches);
