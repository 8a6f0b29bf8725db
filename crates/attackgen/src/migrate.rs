//! The migration behavioural model: how Web sites (and whole hosting
//! platforms) move to DDoS protection services in response to attacks.
//!
//! This is the ground-truth *behaviour* the paper's Section 6 measures
//! back out of the data. The model encodes:
//!
//! * a spontaneous baseline — sites migrate without any (observed) attack
//!   (the paper's 3.32 % of never-attacked sites);
//! * attack-triggered migrations whose probability rises mildly with
//!   intensity and whose *delay* shrinks drastically with intensity
//!   (Figure 10: 80.7 % of top-0.1 %-intensity victims migrate within a
//!   day vs 23.2 % overall);
//! * platform-level moves: the Wix platform migrates to Incapsula the day
//!   after its long high-intensity attack; eNom migrates its parked sites
//!   to Verisign 101 days after its attack (both named in Section 6);
//! * provider choice following the Table 3 market-share profile.
//!
//! The model mutates the DNS zone (new placements with the provider's
//! CNAME and address space), which is the *only* way the measurement side
//! ever learns about a migration.
//!
//! Planning and applying are separate: planning only reads the zone, so
//! it asks its co-host questions of a [`CohostIndex`] that borrows the
//! zone unchanged, and resolves every platform move in one pass over the
//! placements; the apply step then truncates and re-places the planned
//! sites in day order.

use crate::config::{Calibration, GenConfig};
use crate::dist::AnchorDist;
use crate::model::{Episode, GroundTruth, GtKind};
use dosscope_dns::synth::SynthOutput;
use dosscope_dns::{CohostIndex, DayRange, DomainId, OrgId, OrgRole, Placement};
use dosscope_types::{DayIndex, SECS_PER_HOUR};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Why a ground-truth migration happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationTrigger {
    /// Following an attack on the site's hosting IP.
    Attack,
    /// Spontaneous (no attack involved).
    Spontaneous,
    /// The site's whole platform moved (Wix, eNom).
    PlatformMove,
}

/// One ground-truth migration.
#[derive(Debug, Clone)]
pub struct GtMigration {
    /// The migrating site.
    pub domain: DomainId,
    /// The day the new DNS configuration appears.
    pub day: DayIndex,
    /// The chosen provider's catalog entry.
    pub provider: OrgId,
    /// Why.
    pub trigger: MigrationTrigger,
}

/// The applied outcome.
pub struct MigrationOutcome {
    /// All migrations actually applied to the zone, sorted by day.
    pub migrations: Vec<GtMigration>,
    /// Distinct hosting addresses the planning's [`CohostIndex`]
    /// classified against the co-host cap.
    pub cohost_counts: u64,
    /// Placements the planning read from the zone: each above-cap
    /// address's placements once, every placement filed on an attacked
    /// address each time its day's site list was expanded, and the whole
    /// placement slice once if any platform moved.
    pub placements_walked: u64,
}

/// Market-share weights for provider choice at migration time (Table 3
/// profile).
const PROVIDER_WEIGHTS: &[(&str, f64)] = &[
    ("Neustar", 0.262),
    ("DOSarrest", 0.171),
    ("Akamai", 0.142),
    ("Verisign", 0.105),
    ("CloudFlare", 0.104),
    ("Incapsula", 0.092),
    ("F5 Networks", 0.087),
    ("CenturyLink", 0.021),
    ("Level 3", 0.011),
    ("VirtualRoad", 0.005),
];

/// Migration-delay distributions (in days) per intensity class, anchored
/// on Figure 10, plus the ≥ 4 h duration class of Figure 11.
struct DelayModel {
    top01: AnchorDist,
    rest: AnchorDist,
    long4h: AnchorDist,
}

impl DelayModel {
    fn new() -> DelayModel {
        DelayModel {
            // The sampled value is floored and added to "attack day + 1",
            // so a measured k-day delay needs the sample below k; anchors
            // put the published CDF mass just below the integer marks.
            // 80.7 % ≤ 1 day, 98.6 % ≤ 6 days.
            top01: AnchorDist::new(&[(0.4, 0.0), (1.0, 0.807), (6.0, 0.986), (30.0, 1.0)]),
            // 23.2 % ≤ 1 day, 29.9 % ≤ 6 days.
            rest: AnchorDist::new(&[
                (0.4, 0.0),
                (1.0, 0.205),
                (6.0, 0.299),
                (16.0, 0.50),
                (120.0, 1.0),
            ]),
            // Figure 11: 67.6 % ≤ 1 day, 76 % ≤ 5 days, ~18 % ≥ 2 weeks.
            long4h: AnchorDist::new(&[
                (0.4, 0.0),
                (1.0, 0.676),
                (5.0, 0.76),
                (14.0, 0.82),
                (120.0, 1.0),
            ]),
        }
    }

    fn sample_days<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        percentile: f64,
        long_attack: bool,
    ) -> u32 {
        if long_attack {
            return self.long4h.sample(rng).floor() as u32;
        }
        // Urgency blends continuously with intensity: the probability of
        // following the fast profile rises piecewise-linearly through the
        // top event-intensity percentiles, calibrated so the analysis
        // side's site-weighted classes recover Figure 10's gradient
        // (within 6 days: all 29.9 %, top5 67.1 %, top1 77.1 %,
        // top0.1 98.6 %).
        let w = piecewise(
            percentile,
            &[
                (0.95, 0.0),
                (0.97, 0.28),
                (0.99, 0.45),
                (0.999, 0.50),
                (0.9999, 0.74),
                (1.0, 1.0),
            ],
        );
        let dist = if rng.gen_bool(w) { &self.top01 } else { &self.rest };
        dist.sample(rng).floor() as u32
    }
}

/// Apply the migration model: mutate the zone and return the ground-truth
/// migration log.
///
/// Planning reads the zone through a [`CohostIndex`]: an address with at
/// most `cap` placements filed is never over the cap and an attack on it
/// walks its day's site list, while an address with more answers "over
/// the cap?" from its daily site counts, built once. All platform moves
/// are resolved in one pass over the placement slice. Per-domain state is
/// dense (indexed by [`DomainId`]).
fn apply_migrations(
    config: &GenConfig,
    cal: &Calibration,
    truth: &GroundTruth,
    synth: &mut SynthOutput,
) -> MigrationOutcome {
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x4D16_1A7E);
    let delays = DelayModel::new();

    // Provider org ids and their hosting addresses.
    let providers: Vec<(OrgId, f64)> = PROVIDER_WEIGHTS
        .iter()
        .filter_map(|&(name, w)| synth.catalog.by_name(name).map(|o| (o.id, w)))
        .collect();
    assert!(!providers.is_empty(), "catalog lacks DPS providers");
    // Migrating customers land on *on-demand* provider addresses, not on
    // the always-on scrubbing slots: providers segment their
    // infrastructure, so a new customer's IP is not the one under
    // permanent attack. The address is deterministic per provider.
    let provider_ip: HashMap<OrgId, Ipv4Addr> = providers
        .iter()
        .map(|&(org, _)| {
            let slot_ip = synth
                .slots
                .iter()
                .find(|s| s.org == org)
                .map(|s| s.ip)
                .expect("every provider has at least one slot");
            // A sibling address in the same /24 (same AS) but a different
            // host: distinct from every planned slot.
            let base = u32::from(slot_ip) & 0xFFFF_FF00;
            let mut candidate = base | 0xFE;
            if candidate == u32::from(slot_ip) {
                candidate = base | 0xFD;
            }
            (org, Ipv4Addr::from(candidate))
        })
        .collect();

    let zone = &synth.zone;

    // Sites already protected from day one: initial placement carries a
    // DPS organisation.
    let protected: Vec<bool> = zone
        .domain_ids()
        .map(|d| {
            zone.placement_of(d, zone.first_seen(d)).is_some_and(|p| {
                synth.catalog.get(p.cname.unwrap_or(p.ns)).role == OrgRole::Dps
            })
        })
        .collect();

    // Planned migrations per domain: earliest day wins.
    let mut planned: Vec<Option<(DayIndex, MigrationTrigger)>> = vec![None; zone.domain_count()];
    let mut cohosts = CohostIndex::new(zone, config.individual_migration_max_cohost);

    // 1. Spontaneous baseline. Sites parked in huge co-hosting groups
    // (resellers, platforms) don't individually buy protection — their
    // operators decide for them.
    for d in zone.domain_ids() {
        if protected[d.0 as usize] {
            continue;
        }
        if rng.gen_bool(config.spontaneous_migration_prob) {
            let active = zone.active_range(d);
            if active.len() <= 2 {
                continue;
            }
            let first = active.start;
            if zone
                .ip_of(d, first)
                .is_some_and(|ip| cohosts.over_cap(ip, first))
            {
                continue;
            }
            let day = DayIndex(rng.gen_range(active.start.0 + 1..active.end.0));
            planned[d.0 as usize] = Some((day, MigrationTrigger::Spontaneous));
        }
    }

    // 2. Attack-triggered migrations and platform moves.
    let mut platform_moves: Vec<(OrgId, DayIndex)> = Vec::new(); // (from org, day)
    let incapsula = synth.catalog.by_name("Incapsula").map(|o| o.id);
    let verisign = synth.catalog.by_name("Verisign").map(|o| o.id);
    let wix = synth.catalog.by_name("Wix").map(|o| o.id);
    let enom = synth.catalog.by_name("eNom").map(|o| o.id);

    for attack in &truth.attacks {
        let day = attack.window.start.day();
        match attack.episode {
            Episode::WixTakedown => {
                if let (Some(w), Some(_)) = (wix, incapsula) {
                    platform_moves.push((w, DayIndex(day.0 + 1)));
                }
                continue;
            }
            Episode::EnomSlowBurn => {
                if let (Some(e), Some(_)) = (enom, verisign) {
                    platform_moves.push((e, DayIndex(day.0 + 101)));
                }
                continue;
            }
            _ => {}
        }
        let (percentile, long_attack) = match &attack.kind {
            GtKind::RandomSpoofed { peak_pps, .. } => {
                (cal.telescope.intensity.cdf(*peak_pps), false)
            }
            GtKind::Reflection { fleet_rate, .. } => (
                cal.honeypot.intensity.cdf(*fleet_rate),
                attack.window.duration_secs() >= 4 * SECS_PER_HOUR,
            ),
        };
        // Large co-hosting groups don't make individual decisions: the
        // hoster owns mitigation (platform moves above); only small
        // groups' owners migrate on their own. An empty group draws
        // nothing.
        let Some(sites) = cohosts.within_cap(attack.target, day) else {
            continue;
        };
        // Long (≥ 4 h) reflection attacks create the strongest urgency —
        // they drive both the probability and the fast delay profile of
        // Figure 11.
        let urgency = if long_attack { 2.6 } else { 1.0 };
        let prob = config.migration_base_prob * (0.5 + 2.5 * percentile.powi(4)) * urgency;
        for site in sites.map(|p| p.domain) {
            if protected[site.0 as usize] {
                continue;
            }
            if !rng.gen_bool(prob.clamp(0.0, 1.0)) {
                continue;
            }
            let delay = delays.sample_days(&mut rng, percentile, long_attack);
            let mig_day = DayIndex(day.0 + 1 + delay);
            let entry = &mut planned[site.0 as usize];
            if entry.is_none_or(|(planned_day, _)| mig_day < planned_day) {
                *entry = Some((mig_day, MigrationTrigger::Attack));
            }
        }
    }

    // 3. Resolve platform moves into per-site migrations (they override
    // individual plans: the hoster decides for everyone on the platform).
    // A placement belongs to a move when it carries the platform as CNAME
    // or NS (Wix fronts by CNAME) and covers the move's probe day. Where a
    // domain's placements belong to several moves, the latest move wins,
    // so one pass over all placements settles every member.
    platform_moves.sort_by_key(|&(_, day)| day);
    let last_day = DayIndex(config.days - 1);
    let mut placements_walked = cohosts.placements_read();
    if !platform_moves.is_empty() {
        let mut moving = vec![false; synth.catalog.orgs().len()];
        for &(org, _) in &platform_moves {
            moving[org.0 as usize] = true;
        }
        let moving = |org: OrgId| moving[org.0 as usize];
        placements_walked += zone.placements().len() as u64;
        for p in zone.placements() {
            if !(moving(p.ns) || p.cname.is_some_and(moving)) || protected[p.domain.0 as usize] {
                continue;
            }
            let Some(&(_, day)) = platform_moves.iter().rev().find(|&&(org, day)| {
                (p.cname == Some(org) || p.ns == org) && p.days.contains(day.min(last_day))
            }) else {
                continue;
            };
            let entry = &mut planned[p.domain.0 as usize];
            if !matches!(*entry, Some((moved, MigrationTrigger::PlatformMove)) if moved >= day) {
                *entry = Some((day, MigrationTrigger::PlatformMove));
            }
        }
    }
    let cohost_counts = cohosts.ips_classified();

    // 4. Apply in day order.
    let mut migrations: Vec<GtMigration> = Vec::new();
    let mut ordered: Vec<(DomainId, DayIndex, MigrationTrigger)> = planned
        .into_iter()
        .enumerate()
        .filter_map(|(d, plan)| plan.map(|(day, t)| (DomainId(d as u32), day, t)))
        .collect();
    ordered.sort_by_key(|&(d, day, _)| (day, d));
    let provider_weights: Vec<f64> = providers.iter().map(|&(_, w)| w).collect();
    for (domain, day, trigger) in ordered {
        let active = synth.zone.active_range(domain);
        if day.0 + 1 >= active.end.0 || day < active.start {
            // Migration would land outside the site's lifetime: the move
            // happens after our observation window (the bounding problem
            // the paper discusses) — invisible, skip.
            continue;
        }
        let provider = match trigger {
            MigrationTrigger::PlatformMove => {
                // Destination fixed by the platform: Wix moves to
                // Incapsula, eNom to Verisign.
                let p = synth.zone.placement_of(domain, day).map(|p| p.cname.unwrap_or(p.ns));
                match p {
                    Some(org) if Some(org) == wix => incapsula.expect("in catalog"),
                    _ => verisign.expect("in catalog"),
                }
            }
            _ => {
                let i = crate::dist::weighted_index(&mut rng, &provider_weights);
                providers[i].0
            }
        };
        let Some(old) = synth.zone.truncate_at(domain, day) else {
            continue;
        };
        if old.days.end <= day {
            continue;
        }
        let ip = provider_ip[&provider];
        synth.zone.place(Placement {
            domain,
            ip,
            days: DayRange::new(day, old.days.end),
            ns: old.ns,
            cname: Some(provider),
        });
        migrations.push(GtMigration {
            domain,
            day,
            provider,
            trigger,
        });
    }

    MigrationOutcome {
        migrations,
        cohost_counts,
        placements_walked,
    }
}

/// Piecewise-linear interpolation through `(x, y)` anchor points
/// (clamped outside the range).
fn piecewise(x: f64, anchors: &[(f64, f64)]) -> f64 {
    if x <= anchors[0].0 {
        return anchors[0].1;
    }
    for w in anchors.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if x <= x1 {
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0);
        }
    }
    anchors.last().expect("non-empty").1
}

/// Marker type so the public API reads `MigrationModel::apply(...)`.
pub struct MigrationModel;

impl MigrationModel {
    /// Apply the migration model: mutate the zone and return the
    /// ground-truth migration log.
    pub fn apply(
        config: &GenConfig,
        cal: &Calibration,
        truth: &GroundTruth,
        synth: &mut SynthOutput,
    ) -> MigrationOutcome {
        apply_migrations(config, cal, truth, synth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{EpisodeLog, GtAttack};
    use dosscope_dns::synth::HostingSlot;
    use dosscope_dns::{OrgCatalog, Tld, ZoneStore};
    use dosscope_types::{ReflectionProtocol, SimTime, TimeRange};

    fn range(a: u32, b: u32) -> DayRange {
        DayRange::new(DayIndex(a), DayIndex(b))
    }

    fn episode_attack(episode: Episode, day: u32) -> GtAttack {
        GtAttack {
            target: Ipv4Addr::new(203, 0, 113, 1),
            window: TimeRange::with_duration(SimTime::from_day_offset(DayIndex(day), 0), 3_600),
            kind: GtKind::Reflection {
                protocol: ReflectionProtocol::Ntp,
                fleet_rate: 1_000.0,
                pots: vec![0],
            },
            joint_id: None,
            episode,
        }
    }

    /// Platform moves on a hand-built zone: the Wix move lands on day 101
    /// and the eNom move on day 151.
    #[test]
    fn platform_moves_take_the_later_move_and_match_by_cname() {
        let mut catalog = OrgCatalog::new();
        let host = catalog.add("SomeHost", None, OrgRole::Hoster, false);
        let wix = catalog.add("Wix", None, OrgRole::Platform, true);
        let enom = catalog.add("eNom", None, OrgRole::Hoster, false);
        let incapsula = catalog.add("Incapsula", None, OrgRole::Dps, true);
        let verisign = catalog.add("Verisign", None, OrgRole::Dps, true);
        let slot = |org: OrgId, last: u8| HostingSlot {
            ip: Ipv4Addr::new(198, 51, 100, last),
            org,
            capacity: 1,
        };
        let slots = vec![slot(incapsula, 1), slot(verisign, 2)];

        let mut zone = ZoneStore::new();
        let site = |zone: &mut ZoneStore, spans: &[(u32, u32, OrgId, Option<OrgId>)]| {
            let d = zone.add_domain(Tld::Com, range(0, 400));
            for (i, &(a, b, ns, cname)) in spans.iter().enumerate() {
                zone.place(Placement {
                    domain: d,
                    ip: Ipv4Addr::new(192, 0, 2, d.0 as u8 * 4 + i as u8),
                    days: range(a, b),
                    ns,
                    cname,
                });
            }
            d
        };
        // Two placements, one per move: the later (eNom) move wins,
        // whichever placement is filed first.
        let later_filed_first = site(&mut zone, &[(120, 400, enom, None), (0, 120, wix, None)]);
        let earlier_filed_first = site(&mut zone, &[(0, 120, wix, None), (120, 400, enom, None)]);
        // On Wix by CNAME only: its name servers are another hoster's.
        let cname_only = site(&mut zone, &[(0, 400, host, Some(wix))]);
        // Protected from its first day, then on Wix: never moves.
        let protected = site(
            &mut zone,
            &[(0, 50, host, Some(incapsula)), (50, 400, wix, None)],
        );
        // On neither platform.
        let bystander = site(&mut zone, &[(0, 400, host, None)]);
        let mut synth = SynthOutput {
            zone,
            catalog,
            slots,
        };

        let config = GenConfig {
            days: 400,
            spontaneous_migration_prob: 0.0,
            ..GenConfig::default()
        };
        let truth = GroundTruth {
            attacks: vec![
                episode_attack(Episode::EnomSlowBurn, 50),
                episode_attack(Episode::WixTakedown, 100),
            ],
            episodes: EpisodeLog {
                wix_attack_day: DayIndex(100),
                enom_attack_day: DayIndex(50),
                marquee_days: [DayIndex(0); 4],
            },
        };
        let outcome = MigrationModel::apply(&config, &Calibration::default(), &truth, &mut synth);

        let log: Vec<(DomainId, DayIndex, OrgId, MigrationTrigger)> = outcome
            .migrations
            .iter()
            .map(|m| (m.domain, m.day, m.provider, m.trigger))
            .collect();
        // Neither the protected site nor the bystander moves.
        let moved = MigrationTrigger::PlatformMove;
        assert_eq!(
            log,
            vec![
                (cname_only, DayIndex(101), incapsula, moved),
                (later_filed_first, DayIndex(151), verisign, moved),
                (earlier_filed_first, DayIndex(151), verisign, moved),
            ]
        );
        assert_eq!(synth.zone.placements_of(protected).count(), 2);
        assert_eq!(synth.zone.placements_of(bystander).count(), 1);
        assert_eq!(
            synth
                .zone
                .placement_of(cname_only, DayIndex(101))
                .map(|p| (p.ns, p.cname)),
            Some((host, Some(incapsula))),
            "the moved placement keeps its name servers"
        );
    }
}
