//! Compact `u32` interning for repeated values.
//!
//! The event store and the joint-target tallies see far fewer *distinct*
//! victims, ASNs and countries than events. Interning maps each distinct
//! value to a dense `u32` id, so set membership becomes a bitset over ids
//! and a tally becomes a count vector indexed by id.
//!
//! Ids are handed out in first-seen order, which makes them
//! deterministic for any fixed insertion sequence: two stores built from
//! the same time-sorted event stream agree on every id. Re-interning an
//! already-known value returns the original id — the table never grows
//! on duplicates.

use crate::fasthash::FastMap;
use std::hash::Hash;

/// A bidirectional value ⇄ dense-`u32` map with first-seen id order.
///
/// `T` is required to be `Copy` because the interner is used for small
/// plain keys (`Ipv4Addr`, [`crate::Asn`], [`crate::CountryCode`]); the
/// value is stored twice (hash map and reverse table) and handed back by
/// value from [`Interner::resolve`].
#[derive(Debug, Clone)]
pub struct Interner<T> {
    ids: FastMap<T, u32>,
    values: Vec<T>,
}

impl<T> Default for Interner<T> {
    fn default() -> Self {
        Interner {
            ids: FastMap::default(),
            values: Vec::new(),
        }
    }
}

impl<T: Copy + Eq + Hash> Interner<T> {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id for `value`, allocating the next dense id on first sight.
    pub fn intern(&mut self, value: T) -> u32 {
        if let Some(&id) = self.ids.get(&value) {
            return id;
        }
        let id = self.values.len() as u32;
        self.ids.insert(value, id);
        self.values.push(value);
        id
    }

    /// The id already assigned to `value`, if any — never allocates.
    pub fn get(&self, value: T) -> Option<u32> {
        self.ids.get(&value).copied()
    }

    /// The value behind `id`.
    ///
    /// # Panics
    /// If `id` was never handed out by this interner.
    pub fn resolve(&self, id: u32) -> T {
        self.values[id as usize]
    }

    /// Number of distinct values interned so far.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All interned values in id order (`values()[id] == resolve(id)`).
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Approximate heap footprint in bytes (reverse table + hash map).
    pub fn memory_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<T>()
            + self.ids.capacity() * (std::mem::size_of::<T>() + std::mem::size_of::<u32>() + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn intern_resolve_roundtrip() {
        let mut it = Interner::new();
        let addrs: Vec<Ipv4Addr> = (0..100u32)
            .map(|i| Ipv4Addr::from(0x0A00_0000 | (i * 7919)))
            .collect();
        let ids: Vec<u32> = addrs.iter().map(|&a| it.intern(a)).collect();
        assert_eq!(it.len(), addrs.len());
        for (addr, id) in addrs.iter().zip(&ids) {
            assert_eq!(it.resolve(*id), *addr, "resolve inverts intern");
            assert_eq!(it.get(*addr), Some(*id), "get finds the same id");
        }
        assert_eq!(it.values(), &addrs[..], "values are in first-seen order");
    }

    #[test]
    fn ids_are_dense_and_first_seen_ordered() {
        let mut it = Interner::new();
        assert_eq!(it.intern("b"), 0);
        assert_eq!(it.intern("a"), 1);
        assert_eq!(it.intern("c"), 2);
        assert_eq!(it.len(), 3);
    }

    #[test]
    fn id_stable_under_reinsertion() {
        let mut it = Interner::new();
        let a = it.intern(0x7F00_0001u32);
        let b = it.intern(0x7F00_0002u32);
        for _ in 0..10 {
            assert_eq!(it.intern(0x7F00_0001u32), a);
            assert_eq!(it.intern(0x7F00_0002u32), b);
        }
        assert_eq!(it.len(), 2, "duplicates never grow the table");
        assert_eq!(it.get(0x7F00_0003u32), None, "get never allocates");
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn empty_interner() {
        let it: Interner<u32> = Interner::new();
        assert!(it.is_empty());
        assert_eq!(it.len(), 0);
        assert_eq!(it.get(5), None);
    }
}
