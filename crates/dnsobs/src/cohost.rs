//! Co-host group sizes against a cap, for a zone that stays unchanged
//! while they are asked.
//!
//! The migration model asks of many (IP, day) pairs whether more than a
//! cap of Web sites resolve to the IP that day (such groups' hosters
//! decide for them), and expands the groups within the cap site by site.
//! An address with at most `cap` placements ever filed can never exceed
//! the cap, so it needs no count: its group is its day's placement list.
//! An address with more gets its group size for every day counted once,
//! in one walk over its placements (each adds one from its first day and
//! removes it from its end day; a running sum turns those steps into
//! daily sizes), and each question is then one array read.

use crate::store::{Placement, ZoneStore};
use dosscope_types::{DayIndex, FastMap};
use std::net::Ipv4Addr;

/// What the index knows about one address.
#[derive(Debug, Clone, Copy)]
struct Filed {
    /// Placements ever filed on the address.
    count: u32,
    /// For an address with more than `cap` placements, its daily group
    /// sizes in [`CohostIndex::sizes`]: the range `at..at + days` holds
    /// days `0..days`, and every later day has none.
    sizes: Option<(u32, u32)>,
}

/// Co-host group sizes of one zone against one cap. Holding the zone's
/// borrow keeps it unchanged for as long as the index answers.
#[derive(Debug)]
pub struct CohostIndex<'z> {
    zone: &'z ZoneStore,
    cap: usize,
    /// Every address asked about so far.
    ips: FastMap<u32, Filed>,
    /// The daily group sizes of each address above the cap, one run per
    /// address.
    sizes: Vec<i32>,
    placements_read: u64,
}

impl<'z> CohostIndex<'z> {
    /// An empty index over `zone`: each address is classified on its first
    /// question.
    pub fn new(zone: &'z ZoneStore, cap: usize) -> CohostIndex<'z> {
        CohostIndex {
            zone,
            cap,
            ips: FastMap::default(),
            sizes: Vec::new(),
            placements_read: 0,
        }
    }

    /// Whether more than `cap` Web sites resolve to `ip` on `day`: the
    /// same answer as `zone.domains_on_ip(ip, day).len() > cap`.
    pub fn over_cap(&mut self, ip: Ipv4Addr, day: DayIndex) -> bool {
        let filed = self.classify(ip);
        self.exceeds(filed, day)
    }

    /// The placements on `ip` on `day`, in insertion order, unless more
    /// than `cap` of them exist; possibly none.
    pub fn within_cap(
        &mut self,
        ip: Ipv4Addr,
        day: DayIndex,
    ) -> Option<impl Iterator<Item = &'z Placement>> {
        let filed = self.classify(ip);
        if self.exceeds(filed, day) {
            return None;
        }
        self.placements_read += u64::from(filed.count);
        Some(self.zone.placements_on_ip(ip, day))
    }

    /// Distinct addresses classified so far.
    pub fn ips_classified(&self) -> u64 {
        self.ips.len() as u64
    }

    /// Placements read from the zone so far: each above-cap address's
    /// placements once, when its daily sizes were counted, and every
    /// placement filed on an address each time
    /// [`within_cap`](Self::within_cap) walked its list.
    pub fn placements_read(&self) -> u64 {
        self.placements_read
    }

    /// Whether the classified address has more than `cap` sites on `day`.
    fn exceeds(&self, filed: Filed, day: DayIndex) -> bool {
        let Some((at, days)) = filed.sizes else {
            return false;
        };
        day.0 < days && self.sizes[(at + day.0) as usize] as usize > self.cap
    }

    /// The address's entry, made on its first question.
    fn classify(&mut self, ip: Ipv4Addr) -> Filed {
        let Self {
            zone,
            cap,
            ips,
            sizes,
            placements_read,
        } = self;
        *ips.entry(u32::from(ip)).or_insert_with(|| {
            let count = zone.filed_count_on_ip(ip);
            if count <= *cap {
                return Filed {
                    count: count as u32,
                    sizes: None,
                };
            }
            *placements_read += count as u64;
            // Steps: +1 on each placement's first day, -1 on its end day.
            let at = sizes.len();
            for p in zone.filed_on_ip(ip) {
                let (start, end) = (at + p.days.start.0 as usize, at + p.days.end.0 as usize);
                if sizes.len() <= end {
                    sizes.resize(end + 1, 0);
                }
                sizes[start] += 1;
                sizes[end] -= 1;
            }
            let mut size = 0;
            for s in &mut sizes[at..] {
                size += *s;
                *s = size;
            }
            Filed {
                count: count as u32,
                sizes: Some((at as u32, (sizes.len() - at) as u32)),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::OrgId;
    use crate::store::{DayRange, Tld};

    fn range(a: u32, b: u32) -> DayRange {
        DayRange::new(DayIndex(a), DayIndex(b))
    }

    #[test]
    fn counts_on_both_sides_of_the_cap() {
        let mut zone = ZoneStore::new();
        let shared: Ipv4Addr = "198.51.100.10".parse().unwrap();
        let lone: Ipv4Addr = "198.51.100.11".parse().unwrap();
        for i in 0..6 {
            let d = zone.add_domain(Tld::Com, range(0, 100));
            // The sixth site arrives on day 50; the first leaves on day 70.
            let days = match i {
                0 => range(0, 70),
                5 => range(50, 100),
                _ => range(0, 100),
            };
            zone.place(Placement {
                domain: d,
                ip: shared,
                days,
                ns: OrgId(1),
                cname: None,
            });
        }
        let d = zone.add_domain(Tld::Net, range(0, 100));
        zone.place(Placement {
            domain: d,
            ip: lone,
            days: range(10, 20),
            ns: OrgId(1),
            cname: None,
        });

        let mut index = CohostIndex::new(&zone, 5);
        assert!(
            !index.over_cap(shared, DayIndex(10)),
            "5 sites before day 50"
        );
        assert!(
            index.over_cap(shared, DayIndex(60)),
            "6 sites on days 50..70"
        );
        assert!(!index.over_cap(shared, DayIndex(70)), "5 again from day 70");
        assert!(!index.over_cap(shared, DayIndex(100)), "range is half-open");
        assert!(index.within_cap(shared, DayIndex(60)).is_none());
        let listed: Vec<_> = index
            .within_cap(shared, DayIndex(80))
            .expect("5 sites")
            .map(|p| p.domain)
            .collect();
        assert_eq!(listed, zone.domains_on_ip(shared, DayIndex(80)));
        assert_eq!(
            index.within_cap(lone, DayIndex(30)).expect("small").count(),
            0
        );
        assert_eq!(
            index.within_cap(lone, DayIndex(15)).expect("small").count(),
            1
        );
        let unknown = "203.0.113.1".parse().unwrap();
        assert_eq!(
            index
                .within_cap(unknown, DayIndex(15))
                .expect("empty")
                .count(),
            0
        );
        assert_eq!(index.ips_classified(), 3);
        // Six placements counted once, six walked for day 80, one per
        // lone walk.
        assert_eq!(index.placements_read(), 6 + 6 + 1 + 1);
    }
}
