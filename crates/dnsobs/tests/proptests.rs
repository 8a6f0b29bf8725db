//! Property-based tests for the zone store: the interval-encoded snapshot
//! store must agree with a brute-force daily-materialisation oracle.

use dosscope_dns::{CohostIndex, DayRange, DomainId, OrgId, Placement, Tld, ZoneStore};
use dosscope_types::DayIndex;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

const WINDOW: u32 = 60;

/// A domain's hosting history as disjoint (start, len, ip) segments.
fn arb_history() -> impl Strategy<Value = Vec<(u32, u32, u8)>> {
    // Up to 3 segments, each 1..20 days, with 0..5 day gaps, on one of 8
    // IPs.
    proptest::collection::vec((1u32..20, 0u32..5, 0u8..8), 1..4)
}

proptest! {
    /// For arbitrary placement histories, `domains_on_ip` and `ip_of`
    /// agree with a brute-force scan of the placement list.
    #[test]
    fn queries_agree_with_oracle(histories in proptest::collection::vec(arb_history(), 1..12)) {
        let mut zone = ZoneStore::new();
        let mut oracle: Vec<(u32, Ipv4Addr, DayRange)> = Vec::new(); // (domain, ip, days)
        for (di, history) in histories.iter().enumerate() {
            let domain = zone.add_domain(Tld::Com, DayRange::new(DayIndex(0), DayIndex(WINDOW)));
            let mut cursor = 0u32;
            for &(len, gap, ip_idx) in history {
                let start = cursor;
                let end = (start + len).min(WINDOW);
                if start >= end {
                    break;
                }
                let ip = Ipv4Addr::new(10, 0, 0, ip_idx + 1);
                zone.place(Placement {
                    domain,
                    ip,
                    days: DayRange::new(DayIndex(start), DayIndex(end)),
                    ns: OrgId(0),
                    cname: None,
                });
                oracle.push((di as u32, ip, DayRange::new(DayIndex(start), DayIndex(end))));
                cursor = end + gap;
                if cursor >= WINDOW {
                    break;
                }
            }
        }

        // Probe a grid of (ip, day) pairs.
        for ip_idx in 0u8..8 {
            let ip = Ipv4Addr::new(10, 0, 0, ip_idx + 1);
            for day in (0..WINDOW).step_by(7) {
                let day = DayIndex(day);
                let got: HashSet<u32> =
                    zone.domains_on_ip(ip, day).into_iter().map(|d| d.0).collect();
                let expected: HashSet<u32> = oracle
                    .iter()
                    .filter(|(_, oip, days)| *oip == ip && days.contains(day))
                    .map(|(d, _, _)| *d)
                    .collect();
                prop_assert_eq!(&got, &expected, "ip {} day {}", ip, day.0);
            }
        }
        // ip_of agrees with the oracle for every domain and probed day.
        for (di, _) in histories.iter().enumerate() {
            for day in (0..WINDOW).step_by(5) {
                let day = DayIndex(day);
                let got = zone.ip_of(dosscope_dns::DomainId(di as u32), day);
                let expected = oracle
                    .iter()
                    .find(|(d, _, days)| *d == di as u32 && days.contains(day))
                    .map(|(_, ip, _)| *ip);
                prop_assert_eq!(got, expected);
            }
        }
    }

    /// The chained reverse indexes and the co-host index on random zones
    /// with truncations and re-placements (the migration pattern, which
    /// leaves shortened placements in the chains): `placements_on_ip` and
    /// `domains_of_org` visit exactly the placements a `Vec`-per-key
    /// reference files, in insertion order, and the co-host index answers
    /// `== 0` and `> cap` as the full `domains_on_ip` list does.
    #[test]
    fn chained_indexes_and_cohost_index_agree_with_a_reference(
        histories in proptest::collection::vec(arb_history(), 1..12),
        moves in proptest::collection::vec((0usize..12, 0u32..WINDOW, 0u8..8), 0..8),
        cap in 0usize..6,
    ) {
        let mut zone = ZoneStore::new();
        // Per key, the placement indices in filing order.
        let mut by_ip: HashMap<Ipv4Addr, Vec<usize>> = HashMap::new();
        let mut by_org: HashMap<OrgId, Vec<usize>> = HashMap::new();
        let mut file = |zone: &mut ZoneStore, p: Placement| {
            let idx = zone.placements().len();
            by_ip.entry(p.ip).or_default().push(idx);
            by_org.entry(p.ns).or_default().push(idx);
            zone.place(p);
        };
        for history in &histories {
            let domain = zone.add_domain(Tld::Com, DayRange::new(DayIndex(0), DayIndex(WINDOW)));
            let mut cursor = 0u32;
            for &(len, gap, ip_idx) in history {
                let start = cursor;
                let end = (start + len).min(WINDOW);
                if start >= end {
                    break;
                }
                file(&mut zone, Placement {
                    domain,
                    ip: Ipv4Addr::new(10, 0, 0, ip_idx + 1),
                    days: DayRange::new(DayIndex(start), DayIndex(end)),
                    ns: OrgId(u16::from(ip_idx % 3)),
                    cname: None,
                });
                cursor = end + gap;
                if cursor >= WINDOW {
                    break;
                }
            }
        }
        for &(d, day, ip_idx) in &moves {
            if d >= histories.len() {
                continue;
            }
            let Some(old) = zone.truncate_at(DomainId(d as u32), DayIndex(day)) else {
                continue;
            };
            if old.days.end > DayIndex(day) {
                file(&mut zone, Placement {
                    ip: Ipv4Addr::new(10, 0, 0, ip_idx + 1),
                    days: DayRange::new(DayIndex(day), old.days.end),
                    ns: OrgId(u16::from(ip_idx % 3)),
                    ..old
                });
            }
        }

        let placements = zone.placements();
        let mut index = CohostIndex::new(&zone, cap);
        for day in (0..WINDOW).step_by(3).map(DayIndex) {
            for ip_idx in 0u8..9 {
                let ip = Ipv4Addr::new(10, 0, 0, ip_idx + 1);
                let want: Vec<DomainId> = by_ip
                    .get(&ip)
                    .into_iter()
                    .flatten()
                    .map(|&i| &placements[i])
                    .filter(|p| p.days.contains(day))
                    .map(|p| p.domain)
                    .collect();
                let chained: Vec<DomainId> =
                    zone.placements_on_ip(ip, day).map(|p| p.domain).collect();
                prop_assert_eq!(&chained, &want, "placements_on_ip {} day {}", ip, day.0);
                let listed = zone.domains_on_ip(ip, day);
                prop_assert_eq!(&listed, &want);
                prop_assert_eq!(
                    index.over_cap(ip, day),
                    listed.len() > cap,
                    "over_cap {} day {} cap {}", ip, day.0, cap
                );
                let within: Option<Vec<DomainId>> =
                    index.within_cap(ip, day).map(|sites| sites.map(|p| p.domain).collect());
                prop_assert_eq!(
                    within.as_ref().map(Vec::is_empty),
                    (listed.len() <= cap).then_some(listed.is_empty()),
                    "within_cap {} day {} cap {}", ip, day.0, cap
                );
                if let Some(within) = within {
                    prop_assert_eq!(&within, &listed);
                }
            }
            for org in (0u16..4).map(OrgId) {
                let want: Vec<DomainId> = by_org
                    .get(&org)
                    .into_iter()
                    .flatten()
                    .map(|&i| &placements[i])
                    .filter(|p| p.days.contains(day))
                    .map(|p| p.domain)
                    .collect();
                prop_assert_eq!(zone.domains_of_org(org, day), want, "org {:?} day {}", org, day.0);
            }
        }
    }

    /// Truncation behaves like ending the placement: after truncate_at(d),
    /// the domain resolves before d and not from d on; re-placing from d
    /// restores resolution with the new target.
    #[test]
    fn truncate_then_replace(cut in 1u32..30, probe in 0u32..40) {
        let mut zone = ZoneStore::new();
        let d = zone.add_domain(Tld::Net, DayRange::new(DayIndex(0), DayIndex(40)));
        let old_ip: Ipv4Addr = "10.0.0.1".parse().unwrap();
        let new_ip: Ipv4Addr = "10.0.0.2".parse().unwrap();
        zone.place(Placement {
            domain: d,
            ip: old_ip,
            days: DayRange::new(DayIndex(0), DayIndex(40)),
            ns: OrgId(0),
            cname: None,
        });
        zone.truncate_at(d, DayIndex(cut)).unwrap();
        zone.place(Placement {
            domain: d,
            ip: new_ip,
            days: DayRange::new(DayIndex(cut), DayIndex(40)),
            ns: OrgId(1),
            cname: None,
        });
        let day = DayIndex(probe);
        let expected = if probe < cut { old_ip } else { new_ip };
        prop_assert_eq!(zone.ip_of(d, day), Some(expected));
        // Reverse index consistent with the forward query.
        let on_expected = zone.domains_on_ip(expected, day);
        prop_assert!(on_expected.contains(&d));
        let other = if probe < cut { new_ip } else { old_ip };
        prop_assert!(!zone.domains_on_ip(other, day).contains(&d));
    }

    /// Data points equal the day-weighted record count regardless of how
    /// the history is segmented.
    #[test]
    fn data_points_additive(histories in proptest::collection::vec(arb_history(), 1..8)) {
        let mut zone = ZoneStore::new();
        let mut expected = 0u64;
        for history in &histories {
            let domain = zone.add_domain(Tld::Org, DayRange::new(DayIndex(0), DayIndex(WINDOW)));
            let mut cursor = 0u32;
            for &(len, gap, ip_idx) in history {
                let start = cursor;
                let end = (start + len).min(WINDOW);
                if start >= end {
                    break;
                }
                zone.place(Placement {
                    domain,
                    ip: Ipv4Addr::new(10, 0, 0, ip_idx + 1),
                    days: DayRange::new(DayIndex(start), DayIndex(end)),
                    ns: OrgId(0),
                    cname: None,
                });
                expected += (end - start) as u64 * 2; // A + NS per day
                cursor = end + gap;
                if cursor >= WINDOW {
                    break;
                }
            }
        }
        prop_assert_eq!(zone.data_points(), expected);
    }
}

/// What a `place` call should do, by the model's rules.
fn placement_fault(
    model: &[(u32, Ipv4Addr, DayRange)],
    active: DayRange,
    p: &Placement,
) -> Option<&'static str> {
    if p.days.start < active.start || p.days.end > active.end {
        return Some("outside domain activity");
    }
    model
        .iter()
        .filter(|(d, _, _)| *d == p.domain.0)
        .any(|(_, _, other)| !(p.days.end <= other.start || other.end <= p.days.start))
        .then_some("overlapping placements")
}

proptest! {
    /// The per-domain placement index under the migration pattern:
    /// random interleaved `add_domain`, `place` and `truncate_at` +
    /// re-place. `placements_of`, `placement_of` and `ip_of` agree with a
    /// brute-force scan of `placements()`, each domain's placements come
    /// back in insertion order, and an overlapping or out-of-activity
    /// `place` panics without changing the store.
    #[test]
    fn placement_index_agrees_with_a_scan(
        ops in proptest::collection::vec((0u8..4, 0u32..16, 0u32..WINDOW, 1u32..30, 0u8..6), 1..40),
    ) {
        let mut zone = ZoneStore::new();
        let mut active: Vec<DayRange> = Vec::new();
        // Every placement as (domain, ip, days), in insertion order.
        let mut model: Vec<(u32, Ipv4Addr, DayRange)> = Vec::new();
        for &(kind, d, day, len, ip_idx) in &ops {
            if kind == 0 || active.is_empty() {
                let range = DayRange::new(DayIndex(day % 10), DayIndex(WINDOW - len % 10));
                let id = zone.add_domain(Tld::Com, range);
                prop_assert_eq!(id.0 as usize, active.len());
                active.push(range);
                continue;
            }
            let domain = DomainId(d % active.len() as u32);
            let ip = Ipv4Addr::new(10, 0, 0, ip_idx + 1);
            let placement = if kind == 3 {
                // A migration: end the placement covering `day`, then
                // re-place the rest of it on another address.
                let Some(old) = zone.truncate_at(domain, DayIndex(day)) else {
                    prop_assert!(!model
                        .iter()
                        .any(|(m, _, days)| *m == domain.0 && days.contains(DayIndex(day))));
                    continue;
                };
                let entry = model
                    .iter_mut()
                    .find(|(m, _, days)| *m == domain.0 && days.contains(DayIndex(day)))
                    .expect("the model holds the truncated placement");
                prop_assert_eq!((entry.1, entry.2), (old.ip, old.days));
                entry.2 = DayRange::new(old.days.start, DayIndex(day));
                Placement { ip, days: DayRange::new(DayIndex(day), old.days.end), ..old }
            } else {
                Placement {
                    domain,
                    ip,
                    days: DayRange::new(DayIndex(day), DayIndex((day + len).min(WINDOW))),
                    ns: OrgId(0),
                    cname: None,
                }
            };
            match placement_fault(&model, active[domain.0 as usize], &placement) {
                None => {
                    model.push((domain.0, placement.ip, placement.days));
                    zone.place(placement);
                }
                Some(fault) => {
                    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        zone.place(placement.clone())
                    }))
                    .expect_err("an invalid placement panics");
                    let msg = err
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default();
                    prop_assert!(msg.contains(fault), "{:?} panicked with {:?}", placement, msg);
                }
            }
        }

        let stored: Vec<(u32, Ipv4Addr, DayRange)> =
            zone.placements().iter().map(|p| (p.domain.0, p.ip, p.days)).collect();
        prop_assert_eq!(&stored, &model);
        for d in zone.domain_ids() {
            let chained: Vec<(u32, Ipv4Addr, DayRange)> =
                zone.placements_of(d).map(|p| (p.domain.0, p.ip, p.days)).collect();
            let scanned: Vec<(u32, Ipv4Addr, DayRange)> =
                stored.iter().copied().filter(|(m, _, _)| *m == d.0).collect();
            prop_assert_eq!(&chained, &scanned, "placements_of {:?}", d);
            for day in (0..WINDOW).map(DayIndex) {
                let want = zone
                    .placements()
                    .iter()
                    .find(|p| p.domain == d && p.days.contains(day));
                prop_assert_eq!(
                    zone.placement_of(d, day).map(|p| (p.ip, p.days)),
                    want.map(|p| (p.ip, p.days)),
                    "placement_of {:?} day {}", d, day.0
                );
                prop_assert_eq!(zone.ip_of(d, day), want.map(|p| p.ip));
            }
        }
    }
}
