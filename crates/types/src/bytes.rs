//! Byte storage for captured packets.
//!
//! * [`CaptureDay`] — one rendered day of one vantage point as a single
//!   value: every packet of the day in one byte arena, plus one
//!   [`CaptureRow`] per batch (timestamp, repeat count, packet id, tag) in
//!   the order the detectors read them. Several rows may name one packet
//!   (a honeypot representative). The renderer builds the arena in place
//!   and hands it over without a copy; the pipeline shares the whole day
//!   with a pool as one `Arc`, so a day costs a handful of allocations
//!   and one reference count however many rows it holds.
//! * [`SharedBytes`] — a view (a `u32` start and end) into a shared
//!   `Arc<[u8]>` buffer, for the per-batch API (`PacketBatch`,
//!   `RequestBatch`): a clone is a reference-count bump, and
//!   [`SharedBytes::slice`] carves a sub-view out of the same buffer
//!   without copying. [`CaptureDay::into_views`] turns a day into such
//!   views over one shared copy of its arena.
//!
//! A view keeps its whole buffer alive: a cloned batch of a rendered day
//! pins that day's entire arena until the clone is dropped.

use crate::time::SimTime;
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

/// One row of a [`CaptureDay`]: `count` identical copies of packet
/// `packet`, captured at `ts`, with a per-vantage-point `tag` (the
/// receiving honeypot; nothing for the telescope).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureRow<Tag> {
    /// Capture timestamp (second granularity).
    pub ts: SimTime,
    /// How many identical packets the row stands for (≥ 1).
    pub count: u32,
    /// The row's packet: an id into its day's arena.
    pub packet: u32,
    /// What else the vantage point records with the row.
    pub tag: Tag,
}

/// One day of one vantage point's capture: a byte arena holding every
/// packet once, the end offset of each packet, and the rows. Packet ids
/// count from 0 in append order; packet `i` spans from the end of packet
/// `i - 1` (or 0) to its own end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureDay<Tag> {
    bytes: Vec<u8>,
    ends: Vec<u32>,
    rows: Vec<CaptureRow<Tag>>,
}

impl<Tag> Default for CaptureDay<Tag> {
    fn default() -> Self {
        CaptureDay {
            bytes: Vec::new(),
            ends: Vec::new(),
            rows: Vec::new(),
        }
    }
}

impl<Tag: Copy> CaptureDay<Tag> {
    /// An empty day with room for `rows` rows (and as many packets) and
    /// `bytes` arena bytes.
    pub fn with_capacity(rows: usize, bytes: usize) -> CaptureDay<Tag> {
        CaptureDay {
            bytes: Vec::with_capacity(bytes),
            ends: Vec::with_capacity(rows),
            rows: Vec::with_capacity(rows),
        }
    }

    /// A day with one packet per row, copied from each row's bytes, rows
    /// in the order given.
    pub fn from_packets<'a>(
        rows: impl IntoIterator<Item = (SimTime, u32, Tag, &'a [u8])>,
    ) -> CaptureDay<Tag> {
        let mut day = CaptureDay::default();
        for (ts, count, tag, bytes) in rows {
            let packet = day.append(|buf| buf.extend_from_slice(bytes));
            day.push(ts, count, tag, packet);
        }
        day
    }

    /// Append one packet, written by `build` at the end of the arena;
    /// returns its id.
    ///
    /// # Panics
    /// If the arena reaches 4 GiB (offsets are `u32`).
    pub fn append(&mut self, build: impl FnOnce(&mut Vec<u8>)) -> u32 {
        build(&mut self.bytes);
        let end = u32::try_from(self.bytes.len()).expect("day arena exceeds u32::MAX bytes");
        self.ends.push(end);
        (self.ends.len() - 1) as u32
    }

    /// Add a row of `count` copies of packet `packet` at `ts`.
    pub fn push(&mut self, ts: SimTime, count: u32, tag: Tag, packet: u32) {
        debug_assert!(count >= 1, "a row stands for at least one packet");
        self.rows.push(CaptureRow {
            ts,
            count,
            packet,
            tag,
        });
    }

    /// The rows, in order.
    #[inline]
    pub fn rows(&self) -> &[CaptureRow<Tag>] {
        &self.rows
    }

    /// The rows, for the builder to adjust counts in place.
    pub fn rows_mut(&mut self) -> &mut [CaptureRow<Tag>] {
        &mut self.rows
    }

    /// Replace the rows with `reorder(rows)`, e.g. to put them in time
    /// order once the day is rendered.
    pub fn reorder_rows(
        &mut self,
        reorder: impl FnOnce(Vec<CaptureRow<Tag>>) -> Vec<CaptureRow<Tag>>,
    ) {
        self.rows = reorder(std::mem::take(&mut self.rows));
    }

    /// The bytes of packet `id`.
    ///
    /// # Panics
    /// If the day holds no packet `id`.
    #[inline]
    pub fn packet(&self, id: u32) -> &[u8] {
        &self.bytes[packet_range(&self.ends, id)]
    }

    /// Number of packets in the arena.
    pub fn packets(&self) -> usize {
        self.ends.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the day holds no row.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Bytes the value has reserved: the arena, the packet ends and the
    /// rows, by capacity.
    pub fn reserved_bytes(&self) -> usize {
        self.bytes.capacity()
            + self.ends.capacity() * std::mem::size_of::<u32>()
            + self.rows.capacity() * std::mem::size_of::<CaptureRow<Tag>>()
    }

    /// Every row with a view of its packet, all views into one shared
    /// copy of the arena (the per-batch API's representation).
    pub fn into_views(self) -> impl Iterator<Item = (CaptureRow<Tag>, SharedBytes)> {
        let arena = SharedBytes::new(self.bytes);
        let ends = self.ends;
        self.rows
            .into_iter()
            .map(move |row| (row, arena.slice(packet_range(&ends, row.packet))))
    }
}

/// The arena range of packet `id`, from the end of the packet before it.
#[inline]
fn packet_range(ends: &[u32], id: u32) -> Range<usize> {
    let id = id as usize;
    let start = id.checked_sub(1).map_or(0, |prev| ends[prev] as usize);
    start..ends[id] as usize
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

    fn tied_day() -> CaptureDay<u8> {
        let mut day = CaptureDay::with_capacity(4, 16);
        let a = day.append(|buf| buf.extend_from_slice(&[1, 2, 3]));
        let b = day.append(|buf| buf.extend_from_slice(&[4, 5]));
        let empty = day.append(|_| {});
        day.push(SimTime(7), 2, 0, b);
        day.push(SimTime(7), 1, 1, a);
        day.push(SimTime(9), 5, 2, b);
        day.push(SimTime(9), 1, 3, empty);
        day
    }

    #[test]
    fn capture_day_packets_tile_the_arena() {
        let day = tied_day();
        assert_eq!((day.len(), day.packets()), (4, 3));
        assert_eq!(day.packet(0), &[1, 2, 3]);
        assert_eq!(day.packet(1), &[4, 5]);
        assert!(day.packet(2).is_empty());
        let counts: Vec<u32> = day.rows().iter().map(|r| r.count).collect();
        assert_eq!(counts, [2, 1, 5, 1]);
        assert!(day.reserved_bytes() >= 16 + 4 * 4 + 4 * std::mem::size_of::<CaptureRow<u8>>());
    }

    #[test]
    fn capture_day_views_share_one_buffer() {
        let day = tied_day();
        let views: Vec<(CaptureRow<u8>, SharedBytes)> = day.clone().into_views().collect();
        assert_eq!(views.len(), 4);
        for (row, view) in &views {
            assert_eq!(view.as_slice(), day.packet(row.packet));
        }
        // Rows naming one packet view the same bytes of the same buffer.
        assert_eq!(views[0].1.as_slice().as_ptr(), views[2].1.as_slice().as_ptr());
        // Copying the views back packs one packet per row.
        let copied =
            CaptureDay::from_packets(views.iter().map(|(r, v)| (r.ts, r.count, r.tag, v.as_slice())));
        assert_eq!(copied.packets(), 4);
        assert_eq!(
            copied.rows().iter().map(|r| copied.packet(r.packet)).collect::<Vec<_>>(),
            day.rows().iter().map(|r| day.packet(r.packet)).collect::<Vec<_>>()
        );
    }
}
