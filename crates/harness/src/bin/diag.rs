//! Internal diagnostic: slot-tier hit coverage (not part of the public
//! reproduction surface; used to calibrate the generator).
//!
//! Usage: `diag [--threads N]` (plus the shared harness flags,
//! including `--telemetry`) — worker count for the measurement
//! pipelines; the diagnostic output is identical for any value.

use dosscope_dns::OrgRole;
use dosscope_harness::cli;
use dosscope_harness::Scenario;
use dosscope_obs::obs_debug;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = match cli::start(
        "diag",
        std::env::args().skip(1),
        &mut io::stdout(),
        &mut io::stderr(),
    ) {
        Ok(opts) => opts,
        Err(status) => return status,
    };

    let config = &opts.config;
    obs_debug!("running diagnostic scenario: {config:?}");
    let world = Scenario::run(config);
    let mut hits: HashMap<std::net::Ipv4Addr, u32> = HashMap::new();
    for e in world.store.telescope().iter().chain(world.store.honeypot()) {
        *hits.entry(e.target).or_default() += 1;
    }
    // Tiers print in sorted order, so the output is the same on every run.
    let mut tier_stats: BTreeMap<&str, (u32, u32, u64)> = BTreeMap::new(); // slots, hit slots, hits
    for slot in &world.synth.slots {
        let org = world.synth.catalog.get(slot.org);
        let tier = match org.role {
            OrgRole::Dps | OrgRole::Reseller if slot.capacity >= 900 => "perma",
            OrgRole::Dps => "lite",
            _ if slot.capacity >= 150 => "mega",
            _ => "tail",
        };
        let h = hits.get(&slot.ip).copied().unwrap_or(0);
        let e = tier_stats.entry(tier).or_default();
        e.0 += 1;
        e.1 += u32::from(h > 0);
        e.2 += h as u64;
    }
    for (tier, (slots, hit, total)) in &tier_stats {
        println!(
            "{tier:>6}: {slots} slots, {hit} hit (>0), {total} events, {:.2} events/slot",
            *total as f64 / *slots as f64
        );
    }
    // Ground truth side: how many GT attacks targeted lite slots?
    let lite_ips: std::collections::HashSet<_> = world
        .synth
        .slots
        .iter()
        .filter(|s| {
            world.synth.catalog.get(s.org).role == OrgRole::Dps && s.capacity < 900
        })
        .map(|s| s.ip)
        .collect();
    let gt_lite = world
        .truth
        .attacks
        .iter()
        .filter(|a| lite_ips.contains(&a.target))
        .count();
    println!("GT attacks on lite slots: {gt_lite}; lite slots: {}", lite_ips.len());

    // Per-site attack counts by tier.
    use dosscope_core::webimpact::WebImpact;
    let fw = world.framework();
    let web = WebImpact::analyze(&fw).unwrap();
    let mut tier_of_ip: HashMap<std::net::Ipv4Addr, &str> = HashMap::new();
    for slot in &world.synth.slots {
        let org = world.synth.catalog.get(slot.org);
        let tier = match org.role {
            OrgRole::Dps | OrgRole::Reseller if slot.capacity >= 900 => "perma",
            OrgRole::Dps => "lite",
            _ if slot.capacity >= 150 => "mega",
            _ => "tail",
        };
        tier_of_ip.insert(slot.ip, tier);
    }
    let mut by_tier: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new(); // sites, >5, total count
    for (domain, rec) in &web.site_records {
        let day = rec.first_attack_day;
        let ip = world.synth.zone.ip_of(*domain, day).unwrap_or([0,0,0,0].into());
        let tier = tier_of_ip.get(&ip).copied().unwrap_or("off-slot");
        let e = by_tier.entry(tier).or_default();
        e.0 += 1;
        e.1 += u64::from(rec.count > 5);
        e.2 += rec.count as u64;
    }
    for (tier, (sites, gt5, total)) in &by_tier {
        println!(
            "{tier:>9}: {sites} attacked sites, {gt5} (> 5 attacks, {:.1}%), mean count {:.1}",
            100.0 * *gt5 as f64 / *sites as f64,
            *total as f64 / *sites as f64
        );
    }

    cli::finish(&opts, &mut io::stdout())
}
