//! Row-id indexes for the columnar event store: sorted-run postings per
//! predicate key, and dense bitsets over interned ids.
//!
//! The store keeps its rows time-sorted, so the row ids matching any
//! fixed predicate (a transport protocol, a reflection vector, a port
//! signature class) form an *ascending run*. [`RunIndex`] materializes
//! one such run per key: a predicate scan becomes a sequential walk of a
//! small posting list instead of a filter over every wide row, and a
//! time-windowed predicate query is two binary searches on the run.
//!
//! [`BitSet`] is the set half: distinct-victim and distinct-prefix
//! aggregates are bits over dense interned ids, so set size is a
//! popcount and set intersection (the telescope ∩ honeypot common-target
//! count) is a word-wise AND-popcount with no hashing.

/// Posting lists of ascending row ids, one run per `u8` predicate key.
///
/// Rows must be pushed in ascending row-id order (the store appends
/// time-sorted rows, so this is the natural order); a merge that
/// reorders rows rebuilds the index from scratch.
#[derive(Debug, Clone, Default)]
pub struct RunIndex {
    runs: Vec<Vec<u32>>,
}

impl RunIndex {
    /// An index over `keys` predicate keys (key values `0..keys`).
    pub fn new(keys: usize) -> Self {
        RunIndex {
            runs: vec![Vec::new(); keys],
        }
    }

    /// Append `row` to the run for `key`. Row ids must arrive ascending
    /// per key; debug builds assert it.
    pub fn push(&mut self, key: u8, row: u32) {
        let run = &mut self.runs[key as usize];
        debug_assert!(
            run.last().is_none_or(|&last| last < row),
            "row ids must be pushed in ascending order"
        );
        run.push(row);
    }

    /// The ascending row ids whose rows match `key`.
    pub fn rows(&self, key: u8) -> &[u32] {
        self.runs.get(key as usize).map_or(&[], |r| &r[..])
    }

    /// Number of rows matching `key`.
    pub fn count(&self, key: u8) -> u64 {
        self.rows(key).len() as u64
    }

    /// The row ids matching `key` inside the half-open row-id bucket
    /// `[lo, hi)` — two binary searches on the sorted run.
    pub fn rows_between(&self, key: u8, lo: u32, hi: u32) -> &[u32] {
        let run = self.rows(key);
        let a = run.partition_point(|&r| r < lo);
        let b = run.partition_point(|&r| r < hi);
        &run[a..b]
    }

    /// Number of predicate keys this index covers.
    pub fn keys(&self) -> usize {
        self.runs.len()
    }

    /// Total postings across all keys.
    pub fn postings(&self) -> usize {
        self.runs.iter().map(Vec::len).sum()
    }

    /// Drop all postings but keep the key space (used before a rebuild).
    pub fn clear(&mut self) {
        for run in &mut self.runs {
            run.clear();
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.runs
            .iter()
            .map(|r| r.capacity() * std::mem::size_of::<u32>())
            .sum()
    }
}

/// A growable bitset over dense `u32` ids with popcount-based set
/// algebra.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    ones: usize,
}

impl BitSet {
    /// An empty set.
    pub fn new() -> Self {
        BitSet::default()
    }

    /// Insert `bit`; returns `true` when it was not already present.
    pub fn insert(&mut self, bit: u32) -> bool {
        let word = (bit >> 6) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << (bit & 63);
        let fresh = self.words[word] & mask == 0;
        if fresh {
            self.words[word] |= mask;
            self.ones += 1;
        }
        fresh
    }

    /// Whether `bit` is present.
    pub fn contains(&self, bit: u32) -> bool {
        let word = (bit >> 6) as usize;
        self.words.get(word).is_some_and(|w| w & (1 << (bit & 63)) != 0)
    }

    /// Number of set bits (maintained incrementally — O(1)).
    pub fn len(&self) -> usize {
        self.ones
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.ones == 0
    }

    /// `|self ∩ other|` via word-wise AND-popcount.
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `|self ∪ other|` via word-wise OR-popcount.
    pub fn union_count(&self, other: &BitSet) -> usize {
        let (long, short) = if self.words.len() >= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        let mut n = 0usize;
        for (i, w) in long.iter().enumerate() {
            let o = short.get(i).copied().unwrap_or(0);
            n += (w | o).count_ones() as usize;
        }
        n
    }

    /// Merge every bit of `other` into `self`.
    pub fn union_with(&mut self, other: &BitSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut ones = 0usize;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
        for w in &self.words {
            ones += w.count_ones() as usize;
        }
        self.ones = ones;
    }

    /// Set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let base = (i as u32) << 6;
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some(base + bit)
            })
        })
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_index_predicate_queries_at_bucket_boundaries() {
        let mut idx = RunIndex::new(3);
        // Key 1 matches every even row of 0..200, key 2 every multiple of 64.
        for row in 0..200u32 {
            if row % 2 == 0 {
                idx.push(1, row);
            }
            if row % 64 == 0 {
                idx.push(2, row);
            }
        }
        assert_eq!(idx.count(0), 0);
        assert_eq!(idx.count(1), 100);
        assert_eq!(idx.count(2), 4);

        // Bucket boundaries: half-open [lo, hi) must include lo, exclude hi.
        assert_eq!(idx.rows_between(1, 0, 10), &[0, 2, 4, 6, 8]);
        assert_eq!(idx.rows_between(1, 10, 10), &[] as &[u32]);
        assert_eq!(idx.rows_between(1, 9, 13), &[10, 12]);
        assert_eq!(idx.rows_between(2, 64, 129), &[64, 128]);
        assert_eq!(idx.rows_between(2, 65, 128), &[] as &[u32]);
        // A bucket past the last row is empty, not a panic.
        assert_eq!(idx.rows_between(1, 200, 400), &[] as &[u32]);
        // Full-range query returns the whole run.
        assert_eq!(idx.rows_between(1, 0, u32::MAX), idx.rows(1));
    }

    #[test]
    fn run_index_unknown_key_is_empty() {
        let idx = RunIndex::new(2);
        assert_eq!(idx.rows(7), &[] as &[u32]);
        assert_eq!(idx.count(7), 0);
    }

    #[test]
    fn bitset_insert_contains_len() {
        let mut s = BitSet::new();
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(1000));
        assert!(!s.insert(63), "duplicate insert reports not-fresh");
        assert_eq!(s.len(), 4);
        assert!(s.contains(64));
        assert!(!s.contains(65));
        assert!(!s.contains(1_000_000), "past the last word is absent");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 1000]);
    }

    #[test]
    fn bitset_intersection_and_union_counts() {
        let mut a = BitSet::new();
        let mut b = BitSet::new();
        for bit in [1u32, 2, 3, 100, 200] {
            a.insert(bit);
        }
        for bit in [2u32, 3, 4, 200, 4000] {
            b.insert(bit);
        }
        assert_eq!(a.intersection_count(&b), 3);
        assert_eq!(b.intersection_count(&a), 3, "symmetric despite length skew");
        assert_eq!(a.union_count(&b), 7);
        assert_eq!(b.union_count(&a), 7);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 7);
        assert_eq!(
            u.iter().collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 100, 200, 4000]
        );
    }

    /// Merging per-shard sets into a snapshot must not depend on the
    /// order the shards are visited.
    #[test]
    fn snapshot_merge_deterministic_across_shard_orders() {
        let shard_bits: [&[u32]; 4] = [
            &[1, 5, 900, 77],
            &[5, 6, 7],
            &[],
            &[900, 901, 64, 65, 1],
        ];
        let shards: Vec<BitSet> = shard_bits
            .iter()
            .map(|bits| {
                let mut s = BitSet::new();
                for &b in *bits {
                    s.insert(b);
                }
                s
            })
            .collect();
        let merge = |order: &[usize]| {
            let mut m = BitSet::new();
            for &i in order {
                m.union_with(&shards[i]);
            }
            m
        };
        let canonical = merge(&[0, 1, 2, 3]);
        for order in [[3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]] {
            let merged = merge(&order);
            assert_eq!(merged, canonical, "order {order:?}");
            assert_eq!(
                merged.iter().collect::<Vec<_>>(),
                canonical.iter().collect::<Vec<_>>()
            );
        }
        assert_eq!(canonical.len(), 9);
    }
}
