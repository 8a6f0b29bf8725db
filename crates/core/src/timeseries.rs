//! Daily activity series: the data behind Figures 1 and 5.
//!
//! Per day and source the framework reports the number of attacks, unique
//! target IPs, targeted /16 blocks and targeted ASNs (multi-day attacks
//! count toward their start day, footnote 15 of the paper). Figure 5 is
//! the same series restricted to events of medium or higher intensity —
//! intensity at least the *mean* of its data set, per the paper's
//! definition.

use crate::enrich::Enricher;
use dosscope_types::{AttackEvent, DayIndex, TimeSeries};
use std::borrow::Borrow;

/// The four per-day series of one Figure 1 panel.
#[derive(Debug, Clone)]
pub struct DailySeries {
    /// Attacks per day.
    pub attacks: TimeSeries,
    /// Unique target IPs per day.
    pub targets: TimeSeries,
    /// Unique targeted /16 blocks per day.
    pub blocks16: TimeSeries,
    /// Unique targeted ASNs per day.
    pub asns: TimeSeries,
}

impl DailySeries {
    /// Build the series over an event set.
    ///
    /// `filter` selects which events count (identity for Figure 1, the
    /// medium+ intensity predicate for Figure 5).
    pub fn build<E, F>(
        events: impl Iterator<Item = E>,
        enricher: &Enricher<'_>,
        days: u32,
        mut filter: F,
    ) -> DailySeries
    where
        E: Borrow<AttackEvent>,
        F: FnMut(&AttackEvent) -> bool,
    {
        let mut attacks = TimeSeries::zeros(days);
        // One `day << 32 | key` per counted event and key kind; sorted and
        // deduplicated, each run of one day holds its distinct keys.
        let mut targets: Vec<u64> = Vec::new();
        let mut blocks: Vec<u64> = Vec::new();
        let mut asns: Vec<u64> = Vec::new();
        for e in events {
            let e = e.borrow();
            if !filter(e) {
                continue;
            }
            let day = e.when.start.day();
            if day.0 >= days {
                continue;
            }
            attacks.add(day, 1.0);
            let day_key = u64::from(day.0) << 32;
            targets.push(day_key | u64::from(u32::from(e.target)));
            let en = enricher.enrich(e);
            blocks.push(day_key | u64::from(en.block16.raw()));
            if let Some(asn) = en.asn {
                asns.push(day_key | u64::from(asn.0));
            }
        }
        let distinct_per_day = |mut keys: Vec<u64>| {
            keys.sort_unstable();
            keys.dedup();
            let mut ts = TimeSeries::zeros(days);
            for key in keys {
                ts.add(DayIndex((key >> 32) as u32), 1.0);
            }
            ts
        };
        DailySeries {
            attacks,
            targets: distinct_per_day(targets),
            blocks16: distinct_per_day(blocks),
            asns: distinct_per_day(asns),
        }
    }

    /// Mean attacks per day (the paper quotes 17.1 k / 11.6 k / 28.7 k).
    pub fn mean_daily_attacks(&self) -> f64 {
        self.attacks.daily_mean()
    }
}

/// The mean intensity of an event set — the "medium intensity" cutoff.
pub fn mean_intensity<E: Borrow<AttackEvent>>(events: impl Iterator<Item = E>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for e in events {
        sum += e.borrow().intensity_pps;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosscope_geo::{AsDb, GeoDb};
    use dosscope_types::{
        Asn, AttackVector, CountryCode, PortSignature, SimTime, TimeRange, TransportProto,
        SECS_PER_DAY,
    };

    fn event(ip: &str, day: u64, intensity: f64) -> AttackEvent {
        AttackEvent {
            target: ip.parse().unwrap(),
            when: TimeRange::new(
                SimTime(day * SECS_PER_DAY + 100),
                SimTime(day * SECS_PER_DAY + 400),
            ),
            vector: AttackVector::RandomlySpoofed {
                proto: TransportProto::Tcp,
                ports: PortSignature::Single(80),
            },
            packets: 100,
            bytes: 4000,
            intensity_pps: intensity,
            distinct_sources: 10,
        }
    }

    fn dbs() -> (GeoDb, AsDb) {
        let mut geo = GeoDb::new();
        let mut asdb = AsDb::new();
        geo.insert("10.0.0.0/8".parse().unwrap(), CountryCode::new("US"));
        asdb.insert("10.1.0.0/16".parse().unwrap(), Asn(1));
        asdb.insert("10.2.0.0/16".parse().unwrap(), Asn(2));
        (geo, asdb)
    }

    #[test]
    fn daily_aggregates() {
        let (geo, asdb) = dbs();
        let enricher = Enricher::new(&geo, &asdb);
        let events = [
            event("10.1.0.1", 0, 1.0),
            event("10.1.0.1", 0, 2.0), // same target, same day
            event("10.2.0.2", 0, 3.0),
            event("10.1.0.3", 1, 4.0),
        ];
        let s = DailySeries::build(events.iter(), &enricher, 3, |_| true);
        assert_eq!(s.attacks.values(), &[3.0, 1.0, 0.0]);
        assert_eq!(s.targets.values(), &[2.0, 1.0, 0.0]);
        assert_eq!(s.blocks16.values(), &[2.0, 1.0, 0.0]);
        assert_eq!(s.asns.values(), &[2.0, 1.0, 0.0]);
        assert!((s.mean_daily_attacks() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn medium_intensity_filter() {
        let (geo, asdb) = dbs();
        let enricher = Enricher::new(&geo, &asdb);
        let events = [
            event("10.1.0.1", 0, 1.0),
            event("10.1.0.2", 0, 2.0),
            event("10.1.0.3", 0, 9.0),
        ];
        let cutoff = mean_intensity(events.iter());
        assert!((cutoff - 4.0).abs() < 1e-12);
        let s = DailySeries::build(events.iter(), &enricher, 1, |e| {
            e.intensity_pps >= cutoff
        });
        assert_eq!(s.attacks.values(), &[1.0]);
    }

    #[test]
    fn mean_intensity_empty() {
        let none: [AttackEvent; 0] = [];
        assert_eq!(mean_intensity(none.iter()), 0.0);
    }

    /// The per-day distinct counts with one hash set per day and kind.
    fn hash_set_oracle(
        events: &[AttackEvent],
        enricher: &Enricher<'_>,
        days: u32,
    ) -> [Vec<f64>; 3] {
        use std::collections::HashSet;
        let mut sets = vec![[HashSet::new(), HashSet::new(), HashSet::new()]; days as usize];
        for e in events {
            let Some(day) = sets.get_mut(e.when.start.day().0 as usize) else {
                continue;
            };
            let en = enricher.enrich(e);
            day[0].insert(u32::from(e.target));
            day[1].insert(en.block16.raw());
            if let Some(asn) = en.asn {
                day[2].insert(asn.0);
            }
        }
        [0, 1, 2].map(|k| sets.iter().map(|day| day[k].len() as f64).collect())
    }

    #[test]
    fn distinct_counts_match_a_hash_set_oracle() {
        let (geo, asdb) = dbs();
        let enricher = Enricher::new(&geo, &asdb);
        // Repeated targets within and across days, blocks with and without
        // an ASN, and days past the window, in no particular order.
        let mut state = 7u64;
        let events: Vec<AttackEvent> = (0..2_000)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let r = state >> 24;
                let ip = format!("10.{}.{}.{}", r % 4, (r >> 8) % 3, (r >> 16) % 20);
                event(&ip, (r >> 32) % 45, 1.0)
            })
            .collect();
        let days = 40;
        let s = DailySeries::build(events.iter(), &enricher, days, |_| true);
        let [targets, blocks, asns] = hash_set_oracle(&events, &enricher, days);
        assert_eq!(s.targets.values(), targets);
        assert_eq!(s.blocks16.values(), blocks);
        assert_eq!(s.asns.values(), asns);
        assert!(asns.contains(&2.0), "two ASNs on some day: {asns:?}");
    }

    #[test]
    fn out_of_window_events_ignored() {
        let (geo, asdb) = dbs();
        let enricher = Enricher::new(&geo, &asdb);
        let events = [event("10.1.0.1", 10, 1.0)];
        let s = DailySeries::build(events.iter(), &enricher, 3, |_| true);
        assert_eq!(s.attacks.total(), 0.0);
    }
}
