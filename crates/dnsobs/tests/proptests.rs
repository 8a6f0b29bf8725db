//! Property-based tests for the zone store: the interval-encoded snapshot
//! store must agree with a brute-force daily-materialisation oracle.

use dosscope_dns::{DayRange, OrgId, Placement, Tld, ZoneStore};
use dosscope_types::DayIndex;
use proptest::prelude::*;
use std::collections::HashSet;
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

    /// The capped co-host count equals the full co-host list's length
    /// clamped to `cap + 1`, for arbitrary histories and after arbitrary
    /// truncations (which leave shortened placements in the reverse index).
    #[test]
    fn count_on_ip_is_the_capped_list_length(
        histories in proptest::collection::vec(arb_history(), 1..12),
        cuts in proptest::collection::vec((0usize..12, 0u32..WINDOW), 0..6),
        cap in 0usize..6,
    ) {
        let mut zone = ZoneStore::new();
        for history in &histories {
            let domain = zone.add_domain(Tld::Com, DayRange::new(DayIndex(0), DayIndex(WINDOW)));
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
                cursor = end + gap;
                if cursor >= WINDOW {
                    break;
                }
            }
        }
        for &(d, day) in &cuts {
            if d < histories.len() {
                zone.truncate_at(dosscope_dns::DomainId(d as u32), DayIndex(day));
            }
        }
        for ip_idx in 0u8..8 {
            let ip = Ipv4Addr::new(10, 0, 0, ip_idx + 1);
            for day in (0..WINDOW).step_by(3) {
                let day = DayIndex(day);
                let full = zone.domains_on_ip(ip, day).len();
                prop_assert_eq!(
                    zone.count_on_ip(ip, day, cap),
                    full.min(cap + 1),
                    "ip {} day {} cap {}", ip, day.0, cap
                );
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
