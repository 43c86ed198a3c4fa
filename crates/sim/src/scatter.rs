//! Scatter byte buffers: iovec-style views over shared page ropes.
//!
//! The checkpoint data path produces images whose bulk is rope pages
//! ([`Page`]) shared with the live [`crate::memory::AddressSpace`] (the
//! copy-on-write snapshot). [`ScatterBuf`] lets those bytes travel from
//! the encoder through every storage tier *without ever being flattened
//! into a contiguous `Vec<u8>`*: a buffer is an ordered list of segments,
//! each either a small owned metadata run or a shared rope page. A clean
//! page therefore crosses the whole store seam as one handle clone — zero
//! memcpys between address space and store tier — and carries its
//! memoized digest ([`Page::digest`]) with it.
//!
//! Flattening still exists for consumers that genuinely need contiguous
//! bytes (the restart decode path); every byte copied *out of a shared
//! segment* by such a flatten is tallied in a per-thread counter so
//! benchmarks can assert the hot put path performs none. A second counter
//! tallies the shared-page bytes hashed, so a test can count that a put,
//! and a read of what it stored, hash only the pages that are new.
//!
//! **Chunk digests read the memo.** [`ScatterBuf::chunk_digests`], which
//! journal validation folds, takes a chunk that is exactly one whole
//! segment from [`Segment::digest`] — a shared page's memo — and streams
//! only a chunk that is cut across or inside segments. That gives the
//! same digests as hashing every chunk from its bytes, because a page's
//! bytes never change and its memo is only ever filled from them: a page
//! with other bytes is another page, with a memo of its own. Everything
//! here runs on the calling thread.

use crate::checksum::{checksum_bytes, Checksum};
use crate::page::Page;
use std::cell::Cell;

/// One segment of a [`ScatterBuf`].
#[derive(Clone)]
pub enum Segment {
    /// Small owned bytes (image metadata, framing headers).
    Owned(Vec<u8>),
    /// A shared rope page — typically a chunk of a
    /// [`crate::memory::DenseSnap`], alive without copying.
    Shared(Page),
}

impl Segment {
    /// The segment's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Segment::Owned(v) => v,
            Segment::Shared(p) => p,
        }
    }

    /// The shared page handle behind this segment, when it is shared —
    /// how scatter-aware decoders recover pages without copying.
    pub fn shared_handle(&self) -> Option<&Page> {
        match self {
            Segment::Shared(p) => Some(p),
            Segment::Owned(_) => None,
        }
    }

    /// The segment's [`checksum_bytes`] digest: a shared page's memo
    /// ([`Page::digest`]), or an owned run hashed now.
    pub fn digest(&self) -> u64 {
        match self {
            Segment::Owned(v) => checksum_bytes(v),
            Segment::Shared(p) => p.digest(),
        }
    }
}

thread_local! {
    /// Bytes copied out of *shared* segments by flattening on this OS
    /// thread. Every simulated thread runs on the OS thread that called
    /// `Sim::run`, so a put or get window bracketed on that thread sees
    /// every flatten inside it and none from concurrent tests.
    static SHARED_FLATTEN_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes of shared pages hashed by the seed-0 digest on this OS
    /// thread: page memo fills and streamed re-hashes of shared segments.
    static SHARED_HASHED_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Cumulative count of bytes memcpy'd out of shared (rope-page) segments
/// by [`ScatterBuf::to_vec`]/[`ScatterBuf::into_vec`] on the calling OS
/// thread since its last [`reset_shared_flatten_bytes`]. The zero-copy
/// put and restore paths must leave this untouched;
/// `tests/store_zero_flatten.rs` asserts exactly that.
pub fn shared_flatten_bytes() -> u64 {
    SHARED_FLATTEN_BYTES.get()
}

/// Reset the calling thread's shared-flatten counter (benchmark window
/// bracketing).
pub fn reset_shared_flatten_bytes() {
    SHARED_FLATTEN_BYTES.set(0);
}

/// Record `n` bytes copied out of shared segments by an external consumer
/// (a decode fallback that materializes page bytes by hand, say) so
/// [`shared_flatten_bytes`] stays an honest census of every shared-byte
/// copy, not just the ones [`ScatterBuf::to_vec`] performs.
pub fn tally_shared_flatten(n: u64) {
    if n > 0 {
        SHARED_FLATTEN_BYTES.set(SHARED_FLATTEN_BYTES.get() + n);
    }
}

/// Cumulative count of shared-page bytes hashed by the content digest on
/// the calling OS thread since its last [`reset_shared_hashed_bytes`]:
/// every [`Page::digest`] that fills its memo, and every shared byte
/// streamed by [`ScatterBuf::checksum`] or [`ScatterBuf::chunk_digests`].
/// A memo hit adds nothing, so a put through the journal adds exactly the
/// bytes of the pages that are new since the last snapshot, and a read of
/// an envelope whose pages were framed adds none.
pub fn shared_hashed_bytes() -> u64 {
    SHARED_HASHED_BYTES.get()
}

/// Reset the calling thread's shared-hash counter.
pub fn reset_shared_hashed_bytes() {
    SHARED_HASHED_BYTES.set(0);
}

pub(crate) fn tally_shared_hashed(n: u64) {
    SHARED_HASHED_BYTES.set(SHARED_HASHED_BYTES.get() + n);
}

/// An ordered scatter of byte segments whose concatenation is the
/// buffer's content. Cloning is cheap for shared segments (count bumps);
/// owned segments (small metadata) are copied.
#[derive(Clone, Default)]
pub struct ScatterBuf {
    segments: Vec<Segment>,
    len: usize,
}

impl ScatterBuf {
    /// Empty buffer.
    pub fn new() -> ScatterBuf {
        ScatterBuf::default()
    }

    /// A buffer holding `bytes` as one owned segment.
    pub fn from_vec(bytes: Vec<u8>) -> ScatterBuf {
        let mut b = ScatterBuf::new();
        b.push_owned(bytes);
        b
    }

    /// Append owned bytes (empty vectors are dropped).
    pub fn push_owned(&mut self, bytes: Vec<u8>) {
        if !bytes.is_empty() {
            self.len += bytes.len();
            self.segments.push(Segment::Owned(bytes));
        }
    }

    /// Append a shared page handle without copying it (empty pages are
    /// dropped).
    pub fn push_shared(&mut self, page: Page) {
        if !page.is_empty() {
            self.len += page.len();
            self.segments.push(Segment::Shared(page));
        }
    }

    /// Append every segment of `other` (shared segments stay shared).
    pub fn append(&mut self, other: ScatterBuf) {
        self.len += other.len;
        self.segments.extend(other.segments);
    }

    /// Content length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the content is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes held in shared segments (the zero-copy payload).
    pub fn shared_len(&self) -> usize {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Shared(p) => p.len(),
                Segment::Owned(_) => 0,
            })
            .sum()
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Iterate the segments' byte slices in order (concatenation =
    /// content).
    pub fn segments(&self) -> impl Iterator<Item = &[u8]> {
        self.segments.iter().map(Segment::as_bytes)
    }

    /// The segment list itself, ownership structure included — what a
    /// scatter-aware decoder walks to recover shared page handles.
    pub fn raw_segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Extract `[start, end)` as a new scatter. Segments fully inside the
    /// range are reused as-is — shared pages stay shared, zero page
    /// copies — while a segment straddling a range boundary contributes
    /// an owned copy of just its in-range part (shared bytes so copied
    /// are tallied in [`shared_flatten_bytes`]). This is the envelope
    /// unwrap seam: a framed payload comes back out with its page
    /// segments intact.
    pub fn slice(&self, start: usize, end: usize) -> ScatterBuf {
        let end = end.min(self.len);
        let start = start.min(end);
        let mut out = ScatterBuf::new();
        let mut off = 0usize;
        for seg in &self.segments {
            let n = seg.as_bytes().len();
            let (seg_start, seg_end) = (off, off + n);
            off = seg_end;
            if seg_end <= start {
                continue;
            }
            if seg_start >= end {
                break;
            }
            let (lo, hi) = (seg_start.max(start), seg_end.min(end));
            if (lo, hi) == (seg_start, seg_end) {
                out.len += n;
                out.segments.push(seg.clone());
            } else {
                if matches!(seg, Segment::Shared(_)) {
                    tally_shared_flatten((hi - lo) as u64);
                }
                out.push_owned(seg.as_bytes()[lo - seg_start..hi - seg_start].to_vec());
            }
        }
        debug_assert_eq!(out.len, end - start);
        out
    }

    /// The segment holding byte `at` and `at`'s offset in it, or the
    /// segment count when `at` is the end. The lengths are read from
    /// whichever end of the buffer is nearer `at`; each length of a shared
    /// segment is a read of that page.
    fn locate(&self, at: usize) -> (usize, usize) {
        if at >= self.len {
            return (self.segments.len(), 0);
        }
        if at <= self.len / 2 {
            let mut start = 0;
            for (i, seg) in self.segments.iter().enumerate() {
                let end = start + seg.as_bytes().len();
                if at < end {
                    return (i, at - start);
                }
                start = end;
            }
        } else {
            let mut end = self.len;
            for (i, seg) in self.segments.iter().enumerate().rev() {
                let start = end - seg.as_bytes().len();
                if at >= start {
                    return (i, at - start);
                }
                end = start;
            }
        }
        unreachable!("segment lengths sum to len")
    }

    /// Split the content at byte `at`: `self` keeps `[0, at)` and the rest
    /// is returned. Whole segments move without a copy or a reference
    /// count touch, and only the segments between `at` and the nearer end
    /// are read, so cutting a small header or trailer off a large envelope
    /// costs nothing per page. A segment straddling `at` becomes two owned
    /// runs: an owned one is split in place, a shared one is copied (and
    /// tallied in [`shared_flatten_bytes`]).
    pub fn split_off(&mut self, at: usize) -> ScatterBuf {
        let at = at.min(self.len);
        let (i, within) = self.locate(at);
        let mut tail = ScatterBuf {
            segments: self.segments.split_off(i),
            len: self.len - at,
        };
        self.len = at;
        if within > 0 {
            let head = match &mut tail.segments[0] {
                Segment::Owned(v) => {
                    let rest = v.split_off(within);
                    std::mem::replace(v, rest)
                }
                seg @ Segment::Shared(_) => {
                    let (head, rest) = seg.as_bytes().split_at(within);
                    tally_shared_flatten(seg.as_bytes().len() as u64);
                    let head = head.to_vec();
                    *seg = Segment::Owned(rest.to_vec());
                    head
                }
            };
            self.segments.push(Segment::Owned(head));
        }
        tail
    }

    /// Flatten into a contiguous vector (copies; shared bytes copied are
    /// tallied in [`shared_flatten_bytes`]).
    pub fn to_vec(&self) -> Vec<u8> {
        tally_shared_flatten(self.shared_len() as u64);
        let mut v = Vec::with_capacity(self.len);
        for s in self.segments() {
            v.extend_from_slice(s);
        }
        v
    }

    /// Flatten, consuming the buffer. A buffer that is a single owned
    /// segment moves its vector out without copying; anything else
    /// behaves like [`ScatterBuf::to_vec`].
    pub fn into_vec(self) -> Vec<u8> {
        match &self.segments[..] {
            [Segment::Owned(_)] => match self.segments.into_iter().next() {
                Some(Segment::Owned(v)) => v,
                _ => unreachable!("single owned segment just matched"),
            },
            _ => self.to_vec(),
        }
    }

    /// Cut the content down to its first `keep` bytes (no-op if `keep >=
    /// len`). A shared segment straddling the cut is copied to an owned
    /// prefix — at most one page. This is the torn-write seam: a crashed
    /// `put` leaves a strict prefix of the envelope.
    pub fn truncate(&mut self, keep: usize) {
        if keep >= self.len {
            return;
        }
        let mut done = 0usize;
        let mut cut = self.segments.len();
        for (i, seg) in self.segments.iter_mut().enumerate() {
            let n = seg.as_bytes().len();
            if done + n <= keep {
                done += n;
                continue;
            }
            let within = keep - done;
            if within > 0 {
                *seg = Segment::Owned(seg.as_bytes()[..within].to_vec());
                cut = i + 1;
            } else {
                cut = i;
            }
            break;
        }
        self.segments.truncate(cut);
        self.len = keep;
    }

    /// Checksum of the content, streamed segment-by-segment — equal to
    /// [`checksum_bytes`] of the flattened content, with no flatten.
    pub fn checksum(&self) -> u64 {
        let mut c = Checksum::new();
        for seg in &self.segments {
            c.update(seg.as_bytes());
            if let Segment::Shared(p) = seg {
                tally_shared_hashed(p.len() as u64);
            }
        }
        c.digest()
    }

    /// Digest the content cut into consecutive chunks of `lens` bytes,
    /// passing each chunk's [`checksum_bytes`] digest to `each` in order.
    /// A chunk that is exactly one whole segment is that segment's
    /// [`Segment::digest`] (a shared page's memo); any other chunk — one
    /// that spans segments or ends inside one — is streamed across them
    /// with no flatten. A chunk reaching past the end of the content is
    /// digested as far as the content goes.
    pub fn chunk_digests(&self, lens: impl IntoIterator<Item = usize>, mut each: impl FnMut(u64)) {
        let mut segments = self.segments.iter().peekable();
        let mut rest: &[u8] = &[];
        let mut shared = false;
        let mut hashed = 0;
        for len in lens {
            if rest.is_empty() {
                if let Some(seg) = segments.next_if(|seg| seg.as_bytes().len() == len) {
                    each(seg.digest());
                    continue;
                }
            }
            let mut c = Checksum::new();
            let mut want = len;
            while want > 0 {
                if rest.is_empty() {
                    let Some(seg) = segments.next() else { break };
                    rest = seg.as_bytes();
                    shared = matches!(seg, Segment::Shared(_));
                }
                let (head, tail) = rest.split_at(want.min(rest.len()));
                c.update(head);
                if shared {
                    hashed += head.len() as u64;
                }
                rest = tail;
                want -= head.len();
            }
            each(c.digest());
        }
        tally_shared_hashed(hashed);
    }
}

impl From<Vec<u8>> for ScatterBuf {
    fn from(bytes: Vec<u8>) -> ScatterBuf {
        ScatterBuf::from_vec(bytes)
    }
}

impl PartialEq for ScatterBuf {
    /// Content equality regardless of segmentation (no flattening).
    fn eq(&self, other: &ScatterBuf) -> bool {
        if self.len != other.len {
            return false;
        }
        let mut a = self.segments().flatten();
        let mut b = other.segments().flatten();
        loop {
            match (a.next(), b.next()) {
                (None, None) => return true,
                (x, y) if x == y => {}
                _ => return false,
            }
        }
    }
}

impl Eq for ScatterBuf {}

impl std::fmt::Debug for ScatterBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ScatterBuf({} bytes, {} segments, {} shared)",
            self.len,
            self.segments.len(),
            self.shared_len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(bytes: &[u8]) -> Page {
        Page::from(bytes)
    }

    #[test]
    fn concatenation_is_content() {
        let mut b = ScatterBuf::new();
        b.push_owned(vec![1, 2]);
        b.push_shared(shared(&[3, 4, 5]));
        b.push_owned(vec![6]);
        assert_eq!(b.len(), 6);
        assert_eq!(b.shared_len(), 3);
        assert_eq!(b.to_vec(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn flatten_counter_counts_only_shared_bytes() {
        reset_shared_flatten_bytes();
        let mut b = ScatterBuf::new();
        b.push_owned(vec![0; 100]);
        b.push_shared(shared(&[7; 40]));
        let _ = b.to_vec();
        assert_eq!(shared_flatten_bytes(), 40);
        let _ = ScatterBuf::from_vec(vec![1, 2, 3]).to_vec();
        assert_eq!(shared_flatten_bytes(), 40, "owned flattens are free");
        reset_shared_flatten_bytes();
        assert_eq!(shared_flatten_bytes(), 0);
    }

    #[test]
    fn into_vec_moves_single_owned_segment() {
        reset_shared_flatten_bytes();
        let v = ScatterBuf::from_vec(vec![9; 1000]).into_vec();
        assert_eq!(v, vec![9; 1000]);
        assert_eq!(shared_flatten_bytes(), 0);
    }

    #[test]
    fn truncate_cuts_mid_segment() {
        let mut b = ScatterBuf::new();
        b.push_owned(vec![1, 2, 3]);
        b.push_shared(shared(&[4, 5, 6, 7]));
        b.truncate(5);
        assert_eq!(b.len(), 5);
        assert_eq!(b.to_vec(), vec![1, 2, 3, 4, 5]);
        b.truncate(3);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        b.truncate(100); // no-op past the end
        assert_eq!(b.len(), 3);
        b.truncate(0);
        assert!(b.is_empty());
        assert_eq!(b.segment_count(), 0);
    }

    #[test]
    fn streaming_checksum_matches_flat() {
        let mut b = ScatterBuf::new();
        b.push_owned(vec![1, 2, 3]);
        b.push_shared(shared(&[4; 4096]));
        b.push_owned(vec![5, 6]);
        assert_eq!(b.checksum(), checksum_bytes(&b.to_vec()));
    }

    /// Owned and shared segments, interleaved.
    fn mixed() -> ScatterBuf {
        let mut b = ScatterBuf::new();
        b.push_owned(vec![1, 2, 3]);
        b.push_shared(shared(&[4; 4096]));
        b.push_owned(vec![5; 77]);
        b.push_shared(shared(&[6; 13]));
        b
    }

    #[test]
    fn rehashed_chunks_equal_the_flat_digests_however_they_are_cut() {
        let b = mixed();
        let flat = b.to_vec();
        assert_eq!(b.checksum(), checksum_bytes(&flat));
        // Segment-aligned, straddling, ending mid-segment, and past the end.
        for lens in [
            vec![3, 4096, 77, 13],
            vec![1, 4100, 88],
            vec![b.len()],
            vec![2000],
            vec![4189, 50],
            vec![3, 0, 4096, 0, 77, 13],
            vec![1, 2, 4096, 90],
        ] {
            let mut got = Vec::new();
            b.chunk_digests(lens.iter().copied(), |d| got.push(d));
            let mut want = Vec::new();
            let mut at = 0;
            for len in lens {
                let end = (at + len).min(flat.len());
                want.push(checksum_bytes(&flat[at..end]));
                at = end;
            }
            assert_eq!(got, want);
        }
    }

    #[test]
    fn hash_counter_counts_shared_bytes_hashed_and_not_memo_hits() {
        let b = mixed();
        reset_shared_hashed_bytes();
        b.checksum();
        assert_eq!(
            shared_hashed_bytes(),
            4096 + 13,
            "owned bytes are not counted"
        );
        let digests: Vec<u64> = b.raw_segments().iter().map(Segment::digest).collect();
        assert_eq!(
            shared_hashed_bytes(),
            2 * (4096 + 13),
            "first digests fill the memos"
        );
        let again: Vec<u64> = b.raw_segments().iter().map(Segment::digest).collect();
        assert_eq!(again, digests);
        assert_eq!(
            shared_hashed_bytes(),
            2 * (4096 + 13),
            "memo hits hash nothing"
        );
        b.chunk_digests([3, 4096, 77, 13], |_| {});
        assert_eq!(
            shared_hashed_bytes(),
            2 * (4096 + 13),
            "a whole-page chunk is a memo hit"
        );
        // Re-cut: the first chunk ends inside the page, the second spans
        // the rest of it, the owned run and the short page.
        b.chunk_digests([1000, b.len() - 1000], |_| {});
        assert_eq!(
            shared_hashed_bytes(),
            3 * (4096 + 13),
            "a re-cut chunk is hashed in full"
        );
        // A fresh page with its memo empty is hashed once, then remembered.
        let mut fresh = ScatterBuf::new();
        fresh.push_shared(shared(&[8; 100]));
        reset_shared_hashed_bytes();
        fresh.chunk_digests([100], |_| {});
        fresh.chunk_digests([100], |_| {});
        assert_eq!(shared_hashed_bytes(), 100, "memo filled once");
    }

    #[test]
    fn split_off_moves_whole_segments_and_copies_only_a_straddled_one() {
        let b = mixed();
        let flat = b.to_vec();
        // Segment boundaries from either end, cuts inside the owned runs
        // and the pages, and past the end.
        for (at, copied) in [
            (0, 0),
            (2, 0),
            (3, 0),
            (1000, 4096),
            (3 + 4096, 0),
            (4150, 0),
            (4176, 0),
            (4180, 13),
            (4189, 0),
            (9999, 0),
        ] {
            let mut head = b.clone();
            reset_shared_flatten_bytes();
            let tail = head.split_off(at);
            assert_eq!(shared_flatten_bytes(), copied, "cut at {at}");
            let at = at.min(flat.len());
            assert_eq!((head.len(), tail.len()), (at, flat.len() - at));
            assert_eq!(
                head.shared_len() + tail.shared_len() + copied as usize,
                b.shared_len()
            );
            assert_eq!(head.to_vec(), &flat[..at]);
            assert_eq!(tail.to_vec(), &flat[at..]);
        }
    }

    #[test]
    fn slice_keeps_interior_segments_shared() {
        let page = shared(&[7; 4096]);
        let mut b = ScatterBuf::new();
        b.push_owned(vec![1; 20]); // "header"
        b.push_shared(page.clone());
        b.push_owned(vec![2; 16]); // "trailer"

        // Exact payload bounds: the page segment passes through shared.
        let payload = b.slice(20, 20 + 4096);
        assert_eq!(payload.len(), 4096);
        assert_eq!(payload.shared_len(), 4096);
        match payload.raw_segments() {
            [Segment::Shared(p)] => assert!(Page::ptr_eq(p, &page)),
            other => panic!("expected one shared segment, got {}", other.len()),
        }

        // A boundary inside the page copies only the straddled part.
        let cut = b.slice(20 + 100, 20 + 4096);
        assert_eq!(cut.len(), 4096 - 100);
        assert_eq!(cut.shared_len(), 0);
        assert_eq!(cut.to_vec(), vec![7; 4096 - 100]);

        // Degenerate ranges.
        assert!(b.slice(5, 5).is_empty());
        assert_eq!(b.slice(0, usize::MAX).len(), b.len());
        assert_eq!(b.slice(0, b.len()), b);
    }

    #[test]
    fn shared_handles_are_recoverable_from_segments() {
        let page = shared(&[9; 64]);
        let mut b = ScatterBuf::new();
        b.push_owned(vec![1, 2]);
        b.push_shared(page.clone());
        let segs = b.raw_segments();
        assert!(segs[0].shared_handle().is_none());
        assert!(Page::ptr_eq(segs[1].shared_handle().unwrap(), &page));
    }

    #[test]
    fn equality_ignores_segmentation() {
        let mut a = ScatterBuf::new();
        a.push_owned(vec![1, 2]);
        a.push_shared(shared(&[3, 4]));
        let b = ScatterBuf::from_vec(vec![1, 2, 3, 4]);
        assert_eq!(a, b);
        let c = ScatterBuf::from_vec(vec![1, 2, 3, 5]);
        assert_ne!(a, c);
        assert_ne!(a, ScatterBuf::from_vec(vec![1, 2, 3]));
    }
}
