//! Property-based tests for the shared types: interval algebra, calendar
//! arithmetic, ECDF/quantile laws and histogram totals.

use dosscope_types::{tally, CalendarDate, DayIndex, Ecdf, LogHistogram, SimTime, TimeRange};
use std::collections::HashMap;
use proptest::prelude::*;

fn arb_range() -> impl Strategy<Value = TimeRange> {
    (0u64..10_000_000, 0u64..500_000)
        .prop_map(|(s, d)| TimeRange::new(SimTime(s), SimTime(s + d)))
}

proptest! {
    /// Overlap is symmetric, irreflexive on disjoint ranges, and agrees
    /// with the intersection's non-emptiness.
    #[test]
    fn overlap_laws(a in arb_range(), b in arb_range()) {
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        prop_assert_eq!(a.overlaps(&b), a.intersect(&b).is_some());
        if let Some(i) = a.intersect(&b) {
            prop_assert!(i.duration_secs() <= a.duration_secs());
            prop_assert!(i.duration_secs() <= b.duration_secs());
            prop_assert!(a.contains(i.start) || i.start == a.start);
            prop_assert!(b.contains(i.start) || i.start == b.start);
        }
    }

    /// A non-empty range overlaps itself; contains() agrees with bounds.
    #[test]
    fn overlap_reflexive(a in arb_range(), probe in 0u64..11_000_000) {
        if a.duration_secs() > 0 {
            prop_assert!(a.overlaps(&a));
        }
        let t = SimTime(probe);
        prop_assert_eq!(a.contains(t), t >= a.start && t < a.end);
    }

    /// The days() iterator covers exactly the days the range touches.
    #[test]
    fn days_iterator_is_exact(a in arb_range()) {
        let days: Vec<DayIndex> = a.days().collect();
        prop_assert!(!days.is_empty());
        // Consecutive and sorted.
        prop_assert!(days.windows(2).all(|w| w[1].0 == w[0].0 + 1));
        // First/last agree with the boundary arithmetic.
        prop_assert_eq!(days[0], a.start.day());
        let last_instant = SimTime(a.end.secs().max(a.start.secs() + 1) - 1);
        prop_assert_eq!(*days.last().unwrap(), last_instant.day());
    }

    /// Calendar conversion is monotone and steps one day at a time.
    #[test]
    fn calendar_monotone(day in 0u32..1500) {
        let a = CalendarDate::from_day_index(DayIndex(day));
        let b = CalendarDate::from_day_index(DayIndex(day + 1));
        prop_assert!(b > a, "{a} !< {b}");
        // A date differs from its successor in exactly one rollover-valid way.
        if a.month == b.month {
            prop_assert_eq!(b.day, a.day + 1);
        } else {
            prop_assert_eq!(b.day, 1);
        }
    }

    /// ECDF: cdf is monotone, quantile is a right-inverse within sample
    /// resolution, and cdf(max) == 1.
    #[test]
    fn ecdf_laws(mut xs in proptest::collection::vec(0.0f64..1e6, 1..200)) {
        let f: dosscope_types::FrozenEcdf = xs.iter().copied().collect::<Ecdf>().freeze();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(f.cdf(*xs.last().unwrap()), 1.0);
        prop_assert_eq!(f.cdf(xs[0] - 1.0), 0.0);
        // Monotone over a probe grid.
        let mut prev = -1.0;
        for i in 0..20 {
            let x = i as f64 * 5e4;
            let c = f.cdf(x);
            prop_assert!(c >= prev);
            prev = c;
        }
        // quantile(q) is an element, and cdf(quantile(q)) >= q.
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let v = f.quantile(q).unwrap();
            prop_assert!(xs.contains(&v));
            prop_assert!(f.cdf(v) + 1e-12 >= q);
        }
    }

    /// LogHistogram never loses a positive value and bins by decade.
    #[test]
    fn log_histogram_total(values in proptest::collection::vec(0u64..20_000_000, 0..200)) {
        let mut h = LogHistogram::new(7);
        for &v in &values {
            h.push(v);
        }
        let positive = values.iter().filter(|&&v| v > 0).count() as u64;
        prop_assert_eq!(h.total(), positive);
    }

    /// `tally` equals a hash-map count sorted by count descending, then
    /// key ascending. Few distinct keys make ties common.
    #[test]
    fn tally_matches_a_hash_map_count(keys in proptest::collection::vec(0u16..12, 0..300)) {
        let mut counts: HashMap<u16, u64> = HashMap::new();
        for &k in &keys {
            *counts.entry(k).or_default() += 1;
        }
        let mut want: Vec<(u16, u64)> = counts.into_iter().collect();
        want.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        prop_assert_eq!(tally(keys), want);
    }
}
