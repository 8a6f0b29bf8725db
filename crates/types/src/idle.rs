//! A keyed map whose entries end after an idle gap: the shared state of
//! both detectors. The telescope's flow table ends a flow after 300 s
//! without backscatter (Moore et al.); the honeypot fleet ends a
//! per-honeypot event after an hour without requests (AmpPot).
//!
//! Expiry uses a coarse, lazily filed last-activity wheel. A key is filed
//! once, under the bucket of its value's last activity when it is
//! inserted, and nothing on the per-update path touches the wheel.
//! [`IdleMap::sweep`] visits only buckets old enough to hold idle
//! entries; an entry found live there has moved on since it was filed
//! and is re-filed under its true bucket. Every key thus has exactly one
//! wheel entry, at a bucket no later than its last activity's, so the
//! wheel needs no stale-entry check and the values carry no wheel state.
//! A sweep costs O(idle + re-filed) and touches an entry at most once per
//! timeout window, never O(live entries).

use crate::fasthash::FastMap;
use crate::time::SimTime;
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::hash::Hash;

/// A value whose last activity decides when it goes idle.
pub trait LastActive {
    /// Time of the value's most recent activity. It must never move
    /// backwards while the value is in an [`IdleMap`], replacement
    /// values included.
    fn last_active(&self) -> SimTime;
}

/// A [`FastMap`] plus a lazily filed last-activity wheel: `sweep(now)`
/// removes exactly the values idle for more than the timeout at `now`,
/// the same set a scan of every value would remove.
#[derive(Debug)]
pub struct IdleMap<K, V> {
    values: FastMap<K, V>,
    timeout_secs: u64,
    /// Wheel bucket width in seconds.
    granularity: u64,
    /// Bucket index → keys filed there. A key is filed under
    /// `last / granularity` for some `last` at or before its value's
    /// current last activity; a `BTreeMap` keeps the oldest bucket first.
    wheel: BTreeMap<u64, Vec<K>>,
}

impl<K: Copy + Eq + Hash, V: LastActive> IdleMap<K, V> {
    /// An empty map whose values go idle after `timeout_secs` without
    /// activity, with wheel buckets of the timeout or `max_bucket_secs`,
    /// whichever is shorter.
    pub fn new(timeout_secs: u64, max_bucket_secs: u64) -> IdleMap<K, V> {
        IdleMap {
            values: FastMap::default(),
            timeout_secs,
            granularity: timeout_secs.clamp(1, max_bucket_secs),
            wheel: BTreeMap::new(),
        }
    }

    /// The idle gap after which a value expires.
    pub fn timeout_secs(&self) -> u64 {
        self.timeout_secs
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no values are live.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value under `key`, inserting and filing `make()` if there is
    /// none. The caller may update or replace the value in place, as long
    /// as its last activity never moves backwards.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        match self.values.entry(key) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(slot) => {
                let value = slot.insert(make());
                let bucket = value.last_active().secs() / self.granularity;
                self.wheel.entry(bucket).or_default().push(key);
                value
            }
        }
    }

    /// Remove and return every value idle at `now` (last activity more
    /// than the timeout before it), in no set order.
    pub fn sweep(&mut self, now: SimTime) -> Vec<V> {
        let mut idle = Vec::new();
        // A live entry is re-filed under its *true* bucket, possibly at or
        // below the visit frontier; filing it later would delay its expiry
        // past the scan's, since the visit condition assumes last activity
        // at or after the bucket start. The inserts wait until the loop
        // ends, so no bucket is popped twice in one sweep.
        let mut refile = Vec::new();
        while let Some(bucket) = self.wheel.first_entry() {
            // The earliest last activity filed here is the bucket start; if
            // even that is within the timeout, nothing here or later is idle.
            if now.secs() <= bucket.key().saturating_mul(self.granularity) + self.timeout_secs {
                break;
            }
            for key in bucket.remove() {
                let Entry::Occupied(slot) = self.values.entry(key) else {
                    unreachable!("every filed key has a value");
                };
                let last = slot.get().last_active().secs();
                if now.secs() > last + self.timeout_secs {
                    idle.push(slot.remove());
                } else {
                    refile.push((last / self.granularity, key));
                }
            }
        }
        for (bucket, key) in refile {
            self.wheel.entry(bucket).or_default().push(key);
        }
        idle
    }

    /// Remove and return every value, in no set order.
    pub fn drain(&mut self) -> impl Iterator<Item = V> + '_ {
        self.wheel.clear();
        self.values.drain().map(|(_, value)| value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A test value: its key, when it was (re)started and its last
    /// activity.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Session {
        key: u8,
        first: u64,
        last: u64,
    }

    impl LastActive for Session {
        fn last_active(&self) -> SimTime {
            SimTime(self.last)
        }
    }

    /// The reference: scan every value.
    fn scan(map: &mut FastMap<u8, Session>, timeout: u64, now: u64) -> Vec<Session> {
        let idle: Vec<u8> = map
            .values()
            .filter(|s| now > s.last + timeout)
            .map(|s| s.key)
            .collect();
        idle.into_iter()
            .map(|k| map.remove(&k).expect("collected above"))
            .collect()
    }

    fn sorted(mut sessions: Vec<Session>) -> Vec<Session> {
        sessions.sort();
        sessions
    }

    /// One step of a schedule: after `gap` seconds, touch a key (insert
    /// it, extend it, or replace it in place with a fresh value), or sweep
    /// `jitter` seconds ahead of the current time.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Touch { key: u8, gap: u64, replace: bool },
        Sweep { gap: u64, jitter: u64 },
    }

    /// One sweep per five steps, on average.
    fn arb_op() -> impl Strategy<Value = Op> {
        (0u8..5, 0u8..24, 0u64..900, any::<bool>(), 0u64..8_000).prop_map(
            |(kind, key, gap, replace, jitter)| match kind {
                0 => Op::Sweep { gap, jitter },
                _ => Op::Touch { key, gap, replace },
            },
        )
    }

    /// Run `ops` against an `IdleMap` and the scan, asserting that every
    /// sweep and the final drain agree. `jitter(j)` maps each drawn sweep
    /// jitter to the one used.
    fn check(
        ops: &[Op],
        timeout: u64,
        bucket_cap: u64,
        jitter: impl Fn(u64) -> u64,
    ) -> Result<(), TestCaseError> {
        let mut wheel: IdleMap<u8, Session> = IdleMap::new(timeout, bucket_cap);
        let mut reference: FastMap<u8, Session> = FastMap::default();
        let mut now = 0u64;
        for op in ops {
            match *op {
                Op::Touch { key, gap, replace } => {
                    now += gap;
                    let fresh = Session {
                        key,
                        first: now,
                        last: now,
                    };
                    for session in [
                        wheel.get_or_insert_with(key, || fresh),
                        reference.entry(key).or_insert(fresh),
                    ] {
                        if replace {
                            *session = fresh;
                        } else {
                            session.last = now;
                        }
                    }
                }
                Op::Sweep { gap, jitter: j } => {
                    now += gap;
                    let at = now + jitter(j);
                    prop_assert_eq!(
                        sorted(wheel.sweep(SimTime(at))),
                        sorted(scan(&mut reference, timeout, at)),
                        "sweep at t={}",
                        at
                    );
                }
            }
            prop_assert_eq!(wheel.len(), reference.len());
            let filed: usize = wheel.wheel.values().map(Vec::len).sum();
            prop_assert_eq!(filed, wheel.len(), "one wheel entry per key");
        }
        prop_assert_eq!(
            sorted(wheel.drain().collect()),
            sorted(reference.drain().map(|(_, s)| s).collect())
        );
        prop_assert!(wheel.is_empty() && wheel.wheel.is_empty());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The wheel sweep removes exactly the values the full scan does,
        /// for random insert, in-place replace and sweep schedules, any
        /// timeout from 1 s to 4000 s and both bucket caps the detectors
        /// use (60 s and 3600 s). Each schedule runs three times: with
        /// sweeps at a jitter below the timeout, where visited buckets
        /// hold live entries that moved on; at a jitter of at least the
        /// timeout, where a live entry is re-filed at or below the visit
        /// frontier; and at the jitter as drawn.
        #[test]
        fn sweep_matches_full_scan(
            ops in proptest::collection::vec(arb_op(), 1..200),
            timeout in 1u64..=4_000,
            wide_buckets in any::<bool>(),
        ) {
            let cap = if wide_buckets { 3_600 } else { 60 };
            check(&ops, timeout, cap, |j| j % timeout)?;
            check(&ops, timeout, cap, |j| timeout + j % timeout.min(120))?;
            check(&ops, timeout, cap, |j| j)?;
        }
    }

    /// An entry that was active when its bucket comes up is re-filed and
    /// still expires exactly when the scan expires it. Timeout 100 s
    /// (60 s buckets), activity at 0 and 58: live at 157 (157 <= 158),
    /// idle at 159.
    #[test]
    fn refiled_entry_expires_on_time() {
        let mut map: IdleMap<u8, Session> = IdleMap::new(100, 60);
        let first = Session {
            key: 1,
            first: 0,
            last: 0,
        };
        map.get_or_insert_with(1, || first).last = 58;
        assert!(map.sweep(SimTime(157)).is_empty());
        assert_eq!(map.wheel.keys().copied().collect::<Vec<_>>(), vec![0]);
        assert_eq!(map.sweep(SimTime(159)), vec![Session { last: 58, ..first }]);
        assert!(map.is_empty() && map.wheel.is_empty());
    }
}
