//! The workspace's append-only byte store: bytes in fixed-capacity
//! segments, never one growing buffer.
//!
//! Two logs grow for a whole run: the platform journal's durable bytes
//! and a recorder's event and span log ([`crate::Recorder`]). Both keep
//! their bytes here. Appending fills the tail segment and opens a new
//! [`SEGMENT_BYTES`] one when it is full, so nothing stored is ever
//! reallocated or copied again and a store built by appending alone has
//! at most one segment of slack. Records straddle segment boundaries
//! freely; readers walk [`Segments::chunks`] in order.

/// Capacity of one segment.
///
/// Chosen by paired `serve_steady` runs of the repository benchmark.
/// Segments above glibc's 128 KiB `mmap` threshold get fresh pages,
/// faulted in again on every run. Below it, each segment opened costs
/// its flush a microsecond or more inside the allocator; 96 and 120 KiB
/// still measured slower than 64 KiB at the 99th-percentile tick.
pub const SEGMENT_BYTES: usize = 64 * 1024;

/// Bytes in segments of at most [`SEGMENT_BYTES`] each, in order.
///
/// [`extend`](Segments::extend) alone keeps every segment but the last
/// full. [`append`](Segments::append) hands whole segments over, so after
/// one a segment in the middle may be partly filled; the concatenation of
/// [`chunks`](Segments::chunks) is always the bytes in order.
#[derive(Debug, Clone, Default)]
pub struct Segments {
    segments: Vec<Vec<u8>>,
    len: usize,
}

impl Segments {
    /// An empty store; allocates nothing until the first byte.
    pub const fn new() -> Self {
        Segments {
            segments: Vec::new(),
            len: 0,
        }
    }

    /// Total bytes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes as consecutive slices, in order.
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.segments.iter().map(Vec::as_slice)
    }

    /// Appends `bytes`, filling the tail segment and opening new ones.
    pub fn extend(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len();
        while !bytes.is_empty() {
            let tail = match self.segments.last_mut() {
                Some(tail) if tail.len() < room(tail) => tail,
                _ => {
                    self.segments.push(Vec::with_capacity(SEGMENT_BYTES));
                    self.segments.last_mut().expect("just pushed")
                }
            };
            let (head, rest) = bytes.split_at(bytes.len().min(room(tail) - tail.len()));
            tail.extend_from_slice(head);
            bytes = rest;
        }
    }

    /// Appends a copy of every byte of `other`.
    pub fn extend_from(&mut self, other: &Segments) {
        for chunk in other.chunks() {
            self.extend(chunk);
        }
    }

    /// Moves every byte of `other` to the end of this store and leaves
    /// `other` empty. Full segments change hands without a copy. A partly
    /// filled last segment of `other` is copied into this store's tail
    /// and stays with `other`, cleared, to take its next bytes.
    pub fn append(&mut self, other: &mut Segments) {
        let partial = match other.segments.last() {
            Some(tail) if tail.len() < SEGMENT_BYTES => other.segments.pop(),
            _ => None,
        };
        self.len += other.len - partial.as_ref().map_or(0, Vec::len);
        self.segments.append(&mut other.segments);
        other.len = 0;
        if let Some(mut tail) = partial {
            self.extend(&tail);
            tail.clear();
            other.segments.push(tail);
        }
    }

    /// Releases the unused capacity of the tail segment: a store that is
    /// kept but no longer written holds only its bytes.
    pub fn shrink_to_fit(&mut self) {
        if let Some(tail) = self.segments.last_mut() {
            if tail.is_empty() {
                self.segments.pop();
            } else {
                tail.shrink_to_fit();
            }
        }
    }
}

/// How far `segment` may fill: its capacity, up to [`SEGMENT_BYTES`]. A
/// shrunk segment is full at its length.
fn room(segment: &Vec<u8>) -> usize {
    segment.capacity().min(SEGMENT_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(n: usize, seed: u8) -> Vec<u8> {
        (0..n).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect()
    }

    fn flat(store: &Segments) -> Vec<u8> {
        store.chunks().flatten().copied().collect()
    }

    #[test]
    fn extend_fills_every_segment_but_the_last() {
        let mut store = Segments::new();
        let data = bytes(3 * SEGMENT_BYTES + 17, 1);
        for piece in data.chunks(1000) {
            store.extend(piece);
        }
        assert_eq!(store.len(), data.len());
        assert_eq!(flat(&store), data);
        let lens: Vec<usize> = store.chunks().map(<[u8]>::len).collect();
        assert_eq!(lens, [SEGMENT_BYTES, SEGMENT_BYTES, SEGMENT_BYTES, 17]);
    }

    #[test]
    fn append_moves_full_segments_and_keeps_a_cleared_tail() {
        let (a, b) = (bytes(100, 2), bytes(2 * SEGMENT_BYTES + 5, 3));
        let mut store = Segments::new();
        store.extend(&a);
        let mut other = Segments::new();
        other.extend(&b);
        let moved = other.segments[0].as_ptr();
        store.append(&mut other);
        assert_eq!(flat(&store), [a, b].concat());
        assert_eq!(store.len(), 100 + 2 * SEGMENT_BYTES + 5);
        assert!(store.chunks().any(|c| c.as_ptr() == moved), "not copied");
        assert!(other.is_empty());
        assert_eq!(other.segments.len(), 1, "the partial tail stays for reuse");
        other.extend(b"next");
        assert_eq!(flat(&other), b"next");
    }

    #[test]
    fn a_shrunk_tail_is_full_at_its_length() {
        let mut store = Segments::new();
        store.extend(&bytes(10, 4));
        store.shrink_to_fit();
        store.extend(&bytes(5, 5));
        assert_eq!(store.segments.len(), 2);
        assert_eq!(flat(&store), [bytes(10, 4), bytes(5, 5)].concat());
        let mut empty = Segments::new();
        let mut drained = Segments::new();
        drained.extend(b"x");
        empty.append(&mut drained);
        drained.shrink_to_fit();
        assert_eq!(drained.segments.len(), 0);
    }
}
