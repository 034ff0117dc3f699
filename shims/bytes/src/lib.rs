//! Offline stand-in for `bytes`, vendored so the workspace builds without
//! registry access.  Covers the one type this workspace uses: [`Bytes`], the
//! reference-counted immutable buffer the zero-copy data plane is built on.
//!
//! Like the real crate, [`Bytes`] clones and slices in O(1) by sharing one
//! `Arc`'d allocation.  Unlike the real crate, every operation that *does*
//! deep-copy buffer contents (`to_vec`, `copy_from_slice`, `gather`) bumps a
//! process-wide counter readable through [`deep_copy_count`], so tests can
//! assert that a data path performed zero byte-buffer copies.

#![forbid(unsafe_code)]

use std::ops::{Bound, RangeBounds};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide count of deep byte-buffer copies performed through [`Bytes`].
static DEEP_COPIES: AtomicU64 = AtomicU64::new(0);

/// Number of deep byte-buffer copies [`Bytes`] has performed process-wide
/// (via [`Bytes::to_vec`], [`Bytes::copy_from_slice`] or [`Bytes::gather`]).
/// Zero-copy operations — `clone`, `slice`, `try_join`, `From<Vec<u8>>` —
/// never bump it.
pub fn deep_copy_count() -> u64 {
    DEEP_COPIES.load(Ordering::Relaxed)
}

fn count_deep_copy() {
    DEEP_COPIES.fetch_add(1, Ordering::Relaxed);
}

/// A cheaply cloneable, sliceable, immutable byte buffer.
///
/// Backed by an `Arc<Vec<u8>>` plus an offset/length window, so clones and
/// subslices share the allocation instead of copying it.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    offset: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap an existing allocation without copying.
    pub fn from_vec(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            data: Arc::new(v),
            offset: 0,
            len,
        }
    }

    /// Share an existing `Arc`'d allocation without copying (the whole thing).
    pub fn from_arc(data: Arc<Vec<u8>>) -> Self {
        let len = data.len();
        Bytes { data, offset: 0, len }
    }

    /// Deep-copy a slice into a fresh buffer (counted).
    pub fn copy_from_slice(src: &[u8]) -> Self {
        count_deep_copy();
        Self::from_vec(src.to_vec())
    }

    /// Concatenate parts into one contiguous buffer.  This is the data
    /// plane's single assembly copy (counted once), used when a read spans
    /// multiple blocks; single-part gathers return the part unchanged and
    /// count nothing.
    pub fn gather(parts: &[Bytes]) -> Self {
        match parts {
            [] => Bytes::new(),
            [one] => one.clone(),
            many => {
                count_deep_copy();
                let total = many.iter().map(|p| p.len).sum();
                let mut out = Vec::with_capacity(total);
                for p in many {
                    out.extend_from_slice(p);
                }
                Self::from_vec(out)
            }
        }
    }

    /// Length of the window in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// O(1) subslice sharing the same allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of bounds for Bytes of {} bytes",
            self.len
        );
        Bytes {
            data: Arc::clone(&self.data),
            offset: self.offset + start,
            len: end - start,
        }
    }

    /// Deep-copy the window out as an owned `Vec` (counted).
    pub fn to_vec(&self) -> Vec<u8> {
        count_deep_copy();
        self.as_slice().to_vec()
    }

    /// The window as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.offset..self.offset + self.len]
    }

    /// True when both handles view the same allocation at the same window —
    /// the test for "this buffer moved here without being copied".
    pub fn ptr_eq(&self, other: &Bytes) -> bool {
        Arc::ptr_eq(&self.data, &other.data) && self.offset == other.offset && self.len == other.len
    }

    /// If `next` is the window immediately following this one in the same
    /// allocation, return the combined window — an O(1) rejoin with no copy.
    /// This is what lets a chunked transport slice one buffer into pieces and
    /// reassemble them on the far side without ever touching the bytes.
    pub fn try_join(&self, next: &Bytes) -> Option<Bytes> {
        if Arc::ptr_eq(&self.data, &next.data) && self.offset + self.len == next.offset {
            Some(Bytes {
                data: Arc::clone(&self.data),
                offset: self.offset,
                len: self.len + next.len,
            })
        } else {
            None
        }
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from_vec(v)
    }
}

impl From<Arc<Vec<u8>>> for Bytes {
    fn from(v: Arc<Vec<u8>>) -> Bytes {
        Bytes::from_arc(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let head: Vec<u8> = self.as_slice().iter().take(8).copied().collect();
        write!(f, "Bytes({} bytes, {head:?}…)", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `deep_copy_count` is process-global and these tests run on parallel
    /// threads: the ones that diff it take turns.
    static COUNTER: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn counter_turn() -> std::sync::MutexGuard<'static, ()> {
        COUNTER.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn bytes_clone_and_slice_share_the_allocation() {
        let _turn = counter_turn();
        let base = Bytes::from(vec![1u8, 2, 3, 4, 5, 6, 7, 8]);
        let before = deep_copy_count();
        let clone = base.clone();
        let slice = base.slice(2..6);
        assert!(clone.ptr_eq(&base));
        assert!(!slice.ptr_eq(&base));
        assert_eq!(&slice[..], &[3, 4, 5, 6]);
        assert_eq!(slice.slice(1..3), [4u8, 5][..]);
        assert_eq!(deep_copy_count(), before, "clone/slice must not deep-copy");
    }

    #[test]
    fn bytes_deep_copies_are_counted() {
        let _turn = counter_turn();
        let base = Bytes::from(vec![9u8; 32]);
        let before = deep_copy_count();
        let _ = base.to_vec();
        let copied = Bytes::copy_from_slice(&base);
        assert_eq!(copied, base);
        assert!(!copied.ptr_eq(&base));
        let gathered = Bytes::gather(&[base.slice(..16), base.slice(16..)]);
        assert_eq!(gathered.len(), 32);
        assert_eq!(deep_copy_count(), before + 3);
        // Single-part gather is a no-op clone.
        assert!(Bytes::gather(std::slice::from_ref(&base)).ptr_eq(&base));
        assert_eq!(deep_copy_count(), before + 3);
    }

    #[test]
    fn try_join_rejoins_contiguous_slices_without_copying() {
        let _turn = counter_turn();
        let base = Bytes::from((0u8..64).collect::<Vec<u8>>());
        let before = deep_copy_count();
        let a = base.slice(..20);
        let b = base.slice(20..48);
        let c = base.slice(48..);
        let ab = a.try_join(&b).expect("adjacent slices join");
        let abc = ab.try_join(&c).expect("joined window keeps joining");
        assert!(abc.ptr_eq(&base), "full rejoin is the original window");
        assert_eq!(deep_copy_count(), before, "joins must not copy");
        // Non-adjacent or foreign windows refuse to join.
        assert!(a.try_join(&c).is_none());
        assert!(a.try_join(&Bytes::from(vec![1, 2, 3])).is_none());
        assert!(b.try_join(&a).is_none(), "joins are ordered");
    }
}
