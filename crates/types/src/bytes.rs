//! Cheaply-cloneable immutable byte views for batch representatives.
//!
//! A rendered packet batch carries one representative wire packet; the
//! batch itself is cloned freely (partitioning, replayed test streams,
//! bench workloads), and deep-copying the packet bytes on every clone is
//! pure churn. [`SharedBytes`] is a view — a `u32` start and end — into a
//! shared `Arc<[u8]>` buffer: a clone is a reference-count bump, and
//! [`SharedBytes::slice`] carves a sub-view out of the same buffer without
//! copying. The telescope renderer freezes one day's packets into a single
//! buffer and hands every batch of that day a view of it, so a day costs
//! one allocation however many batches it holds.
//!
//! A view keeps its whole buffer alive: a cloned batch of a rendered day
//! pins that day's entire arena until the clone is dropped.

use std::ops::{Deref, Range};
use std::sync::Arc;

/// An immutable view into a reference-counted byte buffer.
#[derive(Clone, Default)]
pub struct SharedBytes {
    buf: Arc<[u8]>,
    start: u32,
    end: u32,
}

impl SharedBytes {
    /// Copy the bytes once into a shared header+data allocation and view
    /// all of it.
    ///
    /// # Panics
    /// If the buffer is 4 GiB or longer (views index it with `u32`).
    pub fn new(bytes: Vec<u8>) -> SharedBytes {
        SharedBytes::whole(bytes.into())
    }

    fn whole(buf: Arc<[u8]>) -> SharedBytes {
        let end = u32::try_from(buf.len()).expect("SharedBytes buffer exceeds u32::MAX bytes");
        SharedBytes { buf, start: 0, end }
    }

    /// A view of `range` (relative to this view) into the same buffer;
    /// no bytes are copied.
    ///
    /// # Panics
    /// If the range is decreasing or reaches past the end of this view.
    pub fn slice(&self, range: Range<usize>) -> SharedBytes {
        let len = self.len();
        assert!(
            range.start <= range.end && range.end <= len,
            "slice {range:?} out of range for a view of {len} bytes"
        );
        SharedBytes {
            buf: Arc::clone(&self.buf),
            start: self.start + range.start as u32,
            end: self.start + range.end as u32,
        }
    }

    /// The contents as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start as usize..self.end as usize]
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(bytes: Vec<u8>) -> SharedBytes {
        SharedBytes::new(bytes)
    }
}

impl From<&[u8]> for SharedBytes {
    fn from(bytes: &[u8]) -> SharedBytes {
        SharedBytes::whole(Arc::from(bytes))
    }
}

impl Deref for SharedBytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for SharedBytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Equality is by contents, like `Vec<u8>`; two independently built
/// buffers with the same bytes compare equal, and so do two views of
/// different ranges that hold the same bytes.
impl PartialEq for SharedBytes {
    fn eq(&self, other: &SharedBytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SharedBytes {}

impl std::fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_allocation() {
        let a = SharedBytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
    }

    #[test]
    fn equality_is_by_contents() {
        let a = SharedBytes::from(vec![9u8; 40]);
        let b = SharedBytes::from(vec![9u8; 40]);
        assert_eq!(a, b);
        assert_ne!(a, SharedBytes::from(vec![8u8; 40]));
    }

    #[test]
    fn derefs_like_a_slice() {
        let a = SharedBytes::from(vec![1u8, 2, 3]);
        assert_eq!(a.len(), 3);
        assert_eq!(a[1], 2);
        assert_eq!(&a[..2], &[1, 2]);
        assert!(!a.is_empty());
        fn takes_slice(s: &[u8]) -> usize {
            s.len()
        }
        assert_eq!(takes_slice(&a), 3);
    }

    #[test]
    fn nested_slices_view_the_same_buffer() {
        let a = SharedBytes::from((0u8..10).collect::<Vec<_>>());
        let mid = a.slice(2..8);
        assert_eq!(mid.as_slice(), &[2, 3, 4, 5, 6, 7]);
        let inner = mid.slice(1..4);
        assert_eq!(inner.as_slice(), &[3, 4, 5]);
        assert_eq!(inner.as_slice().as_ptr(), a.as_slice()[3..].as_ptr());
        assert_eq!(mid.slice(0..6).as_slice(), mid.as_slice());
        assert_eq!(mid.slice(4..6).as_slice(), &[6, 7]);
        assert!(mid.slice(6..6).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_past_the_view_panics() {
        // In range for the buffer, but not for the view it is cut from.
        let a = SharedBytes::from(vec![0u8; 10]);
        let _ = a.slice(2..6).slice(0..5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn decreasing_slice_panics() {
        let a = SharedBytes::from(vec![0u8; 10]);
        #[allow(clippy::reversed_empty_ranges)]
        let _ = a.slice(5..3);
    }

    #[test]
    fn views_of_different_buffers_compare_by_contents() {
        let a = SharedBytes::from(vec![7u8, 1, 2, 3, 7]);
        let b = SharedBytes::from(vec![1u8, 2, 3]);
        assert_eq!(a.slice(1..4), b);
        assert_ne!(a.slice(0..3), b);
        assert_ne!(a.slice(1..3), b, "a prefix is not equal");
    }

    #[test]
    fn default_is_empty() {
        let d = SharedBytes::default();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d, SharedBytes::from(Vec::new()));
        assert!(d.slice(0..0).is_empty());
    }
}
