//! Scatter byte buffers: iovec-style views over shared page ropes.
//!
//! The checkpoint data path produces images whose bulk is rope pages
//! ([`Page`]) shared with the live [`crate::memory::AddressSpace`] (the
//! copy-on-write snapshot). [`ScatterBuf`] lets those bytes travel from
//! the encoder through every storage tier *without ever being flattened
//! into a contiguous `Vec<u8>`*: a buffer is an ordered list of segments,
//! each a small owned metadata run, one shared rope page, or a whole
//! dense rope ([`DenseSnap`]) held by its one shared page list. Cloning a
//! buffer copies its owned runs and bumps one reference count per shared
//! segment — one per rope, however many pages it holds — so a dense
//! region crosses the whole store seam as one handle clone: zero memcpys
//! and O(regions) count bumps between address space and store tier, each
//! page carrying its memoized digest ([`Page::digest`]).
//!
//! **Readers see pages.** Every reader that walks the content piece by
//! piece — [`ScatterBuf::pieces`], [`ScatterBuf::segments`],
//! [`ScatterBuf::chunk_digests`], [`ScatterBuf::checksum`], the cuts
//! ([`ScatterBuf::slice`], [`ScatterBuf::split_off`],
//! [`ScatterBuf::truncate`]) and the two tallies — sees a rope as its
//! pages, in order. A buffer holding a rope therefore reads, frames,
//! digests and tallies exactly like one holding the same pages as
//! separate segments. A cut inside a rope splits it at the cut: its pages
//! become separate shared segments, and only a page the cut straddles is
//! copied. Only a scatter-aware decoder walks [`ScatterBuf::raw_segments`]
//! and takes a rope back whole.
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
//! piece from [`Piece::digest`] — a shared page's memo — and streams
//! only a chunk that is cut across or inside pieces. A run of whole-page
//! chunks over a rope whose page digests are listed
//! ([`DenseSnap::page_digests`]; [`ScatterBuf::piece_digests`] lists them
//! when a journal frames the rope) reads that list and visits no page.
//! That gives the same digests as hashing every chunk from its bytes,
//! because a page's bytes never change and its memo is only ever filled
//! from them: a page with other bytes is another page, with a memo of its
//! own. A rope's page list never changes either, and its digest list is
//! filled only from those memos. Everything here runs on the calling
//! thread.

use crate::checksum::{checksum_bytes, Checksum};
use crate::memory::{DenseSnap, PAGE};
use crate::page::Page;
use std::cell::Cell;

/// One segment of a [`ScatterBuf`], as stored.
#[derive(Clone)]
pub enum Segment {
    /// Small owned bytes (image metadata, framing headers).
    Owned(Vec<u8>),
    /// One shared rope page, alive without copying.
    Shared(Page),
    /// A whole dense rope, its pages in order behind one shared page
    /// list: a clone is one count bump ([`ScatterBuf::push_rope`]).
    Rope(DenseSnap),
}

impl Segment {
    /// Content length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Segment::Owned(v) => v.len(),
            Segment::Shared(p) => p.len(),
            Segment::Rope(r) => r.len(),
        }
    }

    /// True if the segment holds no bytes (a buffer never keeps one).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if the bytes are shared pages, not owned.
    pub fn is_shared(&self) -> bool {
        !matches!(self, Segment::Owned(_))
    }

    /// The contiguous bytes from offset `at` to the end of the piece
    /// holding it: the rest of an owned run or a page, or of the rope page
    /// `at` falls in. `at` must be inside the segment.
    pub fn bytes_from(&self, at: usize) -> &[u8] {
        match self {
            Segment::Owned(v) => &v[at..],
            Segment::Shared(p) => &p[at..],
            Segment::Rope(r) => {
                let page = at / PAGE as usize;
                &r.page(page)[at - page * PAGE as usize..]
            }
        }
    }

    /// The segment's pieces in order: itself, or a rope's pages.
    fn pieces(&self) -> impl Iterator<Item = Piece<'_>> {
        let (owned, pages): (Option<&[u8]>, &[Page]) = match self {
            Segment::Owned(v) => (Some(v), &[]),
            Segment::Shared(p) => (None, std::slice::from_ref(p)),
            Segment::Rope(r) => (None, r.page_handles()),
        };
        owned
            .map(Piece::Owned)
            .into_iter()
            .chain(pages.iter().map(Piece::Shared))
    }
}

/// One page-granular piece of a [`ScatterBuf`]: an owned run, or one
/// shared page — a rope segment is seen as its pages.
#[derive(Clone, Copy)]
pub enum Piece<'a> {
    /// An owned run's bytes.
    Owned(&'a [u8]),
    /// A shared page, on its own or inside a rope.
    Shared(&'a Page),
}

impl<'a> Piece<'a> {
    /// The piece's bytes.
    pub fn as_bytes(self) -> &'a [u8] {
        match self {
            Piece::Owned(v) => v,
            Piece::Shared(p) => p,
        }
    }

    /// The shared page handle behind this piece, when it is shared.
    pub fn shared_handle(self) -> Option<&'a Page> {
        match self {
            Piece::Shared(p) => Some(p),
            Piece::Owned(_) => None,
        }
    }

    /// The piece's [`checksum_bytes`] digest: a shared page's memo
    /// ([`Page::digest`]), or an owned run hashed now.
    pub fn digest(self) -> u64 {
        match self {
            Piece::Owned(v) => checksum_bytes(v),
            Piece::Shared(p) => p.digest(),
        }
    }

    /// The piece as a segment of its own: an owned run is copied, a page
    /// is one count bump.
    fn to_segment(self) -> Segment {
        match self {
            Piece::Owned(v) => Segment::Owned(v.to_vec()),
            Piece::Shared(p) => Segment::Shared(p.clone()),
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
/// buffer's content. A clone copies the owned segments (small metadata)
/// and bumps one count per shared segment: per page pushed on its own,
/// per rope however many pages it holds.
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

    /// Append a segment (empty ones are dropped).
    fn push(&mut self, seg: Segment) {
        if !seg.is_empty() {
            self.len += seg.len();
            self.segments.push(seg);
        }
    }

    /// Append owned bytes (empty vectors are dropped).
    pub fn push_owned(&mut self, bytes: Vec<u8>) {
        self.push(Segment::Owned(bytes));
    }

    /// Append a shared page handle without copying it (empty pages are
    /// dropped).
    pub fn push_shared(&mut self, page: Page) {
        self.push(Segment::Shared(page));
    }

    /// Append a whole dense rope as one segment, without copying a byte
    /// or touching a page's count (empty ropes are dropped). Readers see
    /// its pages as separate pieces.
    pub fn push_rope(&mut self, rope: DenseSnap) {
        self.push(Segment::Rope(rope));
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
            .filter(|s| s.is_shared())
            .map(Segment::len)
            .sum()
    }

    /// Number of segments as stored (a rope counts once).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The content's pieces in order: each owned run, and each shared
    /// page — a rope's pages one by one.
    pub fn pieces(&self) -> impl Iterator<Item = Piece<'_>> {
        self.segments.iter().flat_map(Segment::pieces)
    }

    /// Iterate the pieces' byte slices in order (concatenation =
    /// content).
    pub fn segments(&self) -> impl Iterator<Item = &[u8]> {
        self.pieces().map(Piece::as_bytes)
    }

    /// The segment list as stored, ropes whole — what a scatter-aware
    /// decoder walks to take a rope back as one handle.
    pub fn raw_segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Extract `[start, end)` as a new scatter. Segments fully inside the
    /// range are reused as-is — shared pages and ropes stay shared, zero
    /// page copies — and a rope the range cuts contributes its in-range
    /// pages as separate shared segments. A piece straddling a range
    /// boundary contributes an owned copy of just its in-range part
    /// (shared bytes so copied are tallied in [`shared_flatten_bytes`]).
    /// This is the envelope unwrap seam: a framed payload comes back out
    /// with its page segments intact.
    pub fn slice(&self, start: usize, end: usize) -> ScatterBuf {
        let end = end.min(self.len);
        let start = start.min(end);
        let mut out = ScatterBuf::new();
        let mut off = 0usize;
        for seg in &self.segments {
            let (seg_start, seg_end) = (off, off + seg.len());
            off = seg_end;
            if seg_end <= start {
                continue;
            }
            if seg_start >= end {
                break;
            }
            if start <= seg_start && seg_end <= end {
                out.push(seg.clone());
                continue;
            }
            let mut at = seg_start;
            for piece in seg.pieces() {
                let bytes = piece.as_bytes();
                let (p_start, p_end) = (at, at + bytes.len());
                at = p_end;
                let (lo, hi) = (p_start.max(start), p_end.min(end));
                if lo >= hi {
                    continue;
                }
                if (lo, hi) == (p_start, p_end) {
                    out.push(piece.to_segment());
                } else {
                    if piece.shared_handle().is_some() {
                        tally_shared_flatten((hi - lo) as u64);
                    }
                    out.push_owned(bytes[lo - p_start..hi - p_start].to_vec());
                }
            }
        }
        debug_assert_eq!(out.len, end - start);
        out
    }

    /// The segment holding byte `at` and `at`'s offset in it, or the
    /// segment count when `at` is the end. The lengths are read from
    /// whichever end of the buffer is nearer `at`; each length of a shared
    /// segment is a read of that page or rope.
    fn locate(&self, at: usize) -> (usize, usize) {
        if at >= self.len {
            return (self.segments.len(), 0);
        }
        if at <= self.len / 2 {
            let mut start = 0;
            for (i, seg) in self.segments.iter().enumerate() {
                let end = start + seg.len();
                if at < end {
                    return (i, at - start);
                }
                start = end;
            }
        } else {
            let mut end = self.len;
            for (i, seg) in self.segments.iter().enumerate().rev() {
                let start = end - seg.len();
                if at >= start {
                    return (i, at - start);
                }
                end = start;
            }
        }
        unreachable!("segment lengths sum to len")
    }

    /// [`ScatterBuf::locate`] `at`, first splitting a rope the cut falls
    /// inside into its pages, so the result names a page or an owned run.
    fn locate_cut(&mut self, at: usize) -> (usize, usize) {
        let (i, within) = self.locate(at);
        match self.segments.get(i) {
            Some(Segment::Rope(rope)) if within > 0 => {
                let pages: Vec<Segment> = rope
                    .page_handles()
                    .iter()
                    .map(|p| Segment::Shared(p.clone()))
                    .collect();
                self.segments.splice(i..=i, pages);
                let page = within / PAGE as usize;
                (i + page, within - page * PAGE as usize)
            }
            _ => (i, within),
        }
    }

    /// Split the content at byte `at`: `self` keeps `[0, at)` and the rest
    /// is returned. Whole segments move without a copy or a reference
    /// count touch, and only the segments between `at` and the nearer end
    /// are read, so cutting a small header or trailer off a large envelope
    /// costs nothing per page. A rope the cut falls inside is split into
    /// its pages; a piece straddling `at` becomes two owned runs: an owned
    /// one is split in place, a shared one is copied (and tallied in
    /// [`shared_flatten_bytes`]).
    pub fn split_off(&mut self, at: usize) -> ScatterBuf {
        let at = at.min(self.len);
        let (i, within) = self.locate_cut(at);
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
                seg => {
                    let (head, rest) = seg.bytes_from(0).split_at(within);
                    tally_shared_flatten(seg.len() as u64);
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
    /// len`). A rope the cut falls inside is split into its pages, and a
    /// piece straddling the cut is copied to an owned prefix — at most
    /// one page. This is the torn-write seam: a crashed `put` leaves a
    /// strict prefix of the envelope.
    pub fn truncate(&mut self, keep: usize) {
        if keep >= self.len {
            return;
        }
        let (i, within) = self.locate_cut(keep);
        self.segments.truncate(i + usize::from(within > 0));
        if within > 0 {
            let seg = &mut self.segments[i];
            *seg = Segment::Owned(seg.bytes_from(0)[..within].to_vec());
        }
        self.len = keep;
    }

    /// Checksum of the content, streamed piece by piece — equal to
    /// [`checksum_bytes`] of the flattened content, with no flatten.
    pub fn checksum(&self) -> u64 {
        let mut c = Checksum::new();
        for piece in self.pieces() {
            c.update(piece.as_bytes());
            if let Piece::Shared(p) = piece {
                tally_shared_hashed(p.len() as u64);
            }
        }
        c.digest()
    }

    /// Pass every piece's [`Piece::digest`] to `each`, in order: what a
    /// framing layer folds. A rope's come from its page digest list
    /// ([`DenseSnap::page_digests`]), listed now if nothing has, so a later
    /// [`ScatterBuf::chunk_digests`] of the same rope reads the list and no
    /// page.
    pub fn piece_digests(&self, mut each: impl FnMut(u64)) {
        for seg in &self.segments {
            match seg {
                Segment::Rope(rope) => rope.page_digests().iter().for_each(|&d| each(d)),
                seg => seg.pieces().for_each(|piece| each(piece.digest())),
            }
        }
    }

    /// Digest the content cut into consecutive chunks of `lens` bytes,
    /// passing each chunk's [`checksum_bytes`] digest to `each` in order.
    /// A chunk that is exactly one whole piece is that piece's
    /// [`Piece::digest`] (a shared page's memo), read from its rope's page
    /// digest list when one is listed; any other chunk — one that spans
    /// pieces or ends inside one — is streamed across them with no
    /// flatten. A chunk reaching past the end of the content is digested
    /// as far as the content goes.
    pub fn chunk_digests(&self, lens: impl IntoIterator<Item = usize>, mut each: impl FnMut(u64)) {
        let mut lens = lens.into_iter().peekable();
        // The chunk being streamed, and how many bytes it still wants.
        let mut open: Option<(Checksum, usize)> = None;
        let mut hashed = 0;
        'segments: for seg in &self.segments {
            let mut listed = 0;
            if let (Segment::Rope(rope), None) = (seg, &open) {
                if let Some(digests) = rope.listed_page_digests() {
                    let page = PAGE as usize;
                    while listed < digests.len()
                        && lens
                            .next_if_eq(&(rope.len() - listed * page).min(page))
                            .is_some()
                    {
                        each(digests[listed]);
                        listed += 1;
                    }
                }
            }
            for piece in seg.pieces().skip(listed) {
                let whole = piece.as_bytes();
                let mut rest = whole;
                while !rest.is_empty() {
                    let (c, want) = match &mut open {
                        Some(chunk) => chunk,
                        None => {
                            let Some(len) = lens.next() else {
                                break 'segments;
                            };
                            if len == whole.len() && rest.len() == whole.len() {
                                each(piece.digest());
                                break;
                            }
                            open.insert((Checksum::new(), len))
                        }
                    };
                    let (head, tail) = rest.split_at((*want).min(rest.len()));
                    c.update(head);
                    if piece.shared_handle().is_some() {
                        hashed += head.len() as u64;
                    }
                    *want -= head.len();
                    rest = tail;
                    if *want == 0 {
                        each(c.digest());
                        open = None;
                    }
                }
            }
        }
        // Chunks past the end: the one being streamed, then empty ones.
        if let Some((c, _)) = open {
            each(c.digest());
        }
        for _ in lens {
            each(Checksum::new().digest());
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
    /// Content equality regardless of segmentation (no flattening): the
    /// two piece lists are walked side by side and each overlapping run
    /// is compared as one slice.
    fn eq(&self, other: &ScatterBuf) -> bool {
        if self.len != other.len {
            return false;
        }
        let (mut a, mut b) = (self.segments(), other.segments());
        let (mut x, mut y): (&[u8], &[u8]) = (&[], &[]);
        loop {
            if x.is_empty() {
                // Equal lengths: when one side is spent, so is the other.
                match a.next() {
                    Some(next) => x = next,
                    None => return true,
                }
            }
            if y.is_empty() {
                match b.next() {
                    Some(next) => y = next,
                    None => return false,
                }
            }
            let n = x.len().min(y.len());
            if x[..n] != y[..n] {
                return false;
            }
            (x, y) = (&x[n..], &y[n..]);
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
        let digests: Vec<u64> = b.pieces().map(Piece::digest).collect();
        assert_eq!(
            shared_hashed_bytes(),
            2 * (4096 + 13),
            "first digests fill the memos"
        );
        let again: Vec<u64> = b.pieces().map(Piece::digest).collect();
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
        let pieces: Vec<Piece<'_>> = b.pieces().collect();
        assert!(pieces[0].shared_handle().is_none());
        assert!(Page::ptr_eq(pieces[1].shared_handle().unwrap(), &page));
    }

    /// `mixed()`'s shape with two multi-page ropes, and the same content
    /// with each rope's pages pushed one by one.
    fn roped() -> (ScatterBuf, ScatterBuf) {
        let a = DenseSnap::from_vec((0..3 * PAGE as usize + 100).map(|i| i as u8).collect());
        let b = DenseSnap::from_vec(vec![6; 2 * PAGE as usize]);
        let (mut rope, mut pages) = (ScatterBuf::new(), ScatterBuf::new());
        for buf in [&mut rope, &mut pages] {
            buf.push_owned(vec![1, 2, 3]);
        }
        rope.push_rope(a.clone());
        rope.push_owned(vec![5; 77]);
        rope.push_rope(b.clone());
        for p in a.page_handles() {
            pages.push_shared(p.clone());
        }
        pages.push_owned(vec![5; 77]);
        for p in b.page_handles() {
            pages.push_shared(p.clone());
        }
        (rope, pages)
    }

    /// Each piece's length and page identity (`None` for an owned run).
    fn outline(b: &ScatterBuf) -> Vec<(usize, Option<*const u8>)> {
        b.pieces()
            .map(|p| (p.as_bytes().len(), p.shared_handle().map(|h| h.as_ptr())))
            .collect()
    }

    #[test]
    fn a_rope_reads_like_its_pages_pushed_one_by_one() {
        let (rope, pages) = roped();
        assert_eq!(rope.segment_count(), 4, "each rope is one segment");
        assert_eq!(outline(&rope), outline(&pages));
        assert_eq!(rope.shared_len(), pages.shared_len());
        assert_eq!(rope, pages);
        let lens: Vec<usize> = pages.segments().map(<[u8]>::len).collect();
        // Digests as framed, as validated and re-cut, the streamed
        // checksum, the flat bytes, and what each reader hashed and copied.
        let census = |buf: &ScatterBuf| {
            reset_shared_hashed_bytes();
            reset_shared_flatten_bytes();
            let mut digests = Vec::new();
            buf.piece_digests(|d| digests.push(d));
            buf.chunk_digests(lens.iter().copied(), |d| digests.push(d));
            buf.chunk_digests([1000, 0, 9000, buf.len(), 5], |d| digests.push(d));
            digests.push(buf.checksum());
            let flat = buf.to_vec();
            (digests, flat, shared_hashed_bytes(), shared_flatten_bytes())
        };
        // Fresh pages on both sides, then the rope's digests listed.
        let (_, fresh) = roped();
        assert_eq!(census(&rope), census(&fresh));
        assert_eq!(census(&rope), census(&pages));
        let (Segment::Rope(a), Segment::Rope(b)) =
            (&rope.raw_segments()[1], &rope.raw_segments()[3])
        else {
            panic!("ropes at 1 and 3");
        };
        assert_eq!(a.listed_page_digests().map(<[u64]>::len), Some(4));
        assert_eq!(b.listed_page_digests().map(<[u64]>::len), Some(2));
    }

    #[test]
    fn a_cut_inside_a_rope_splits_it_at_the_cut() {
        let (rope, pages) = roped();
        let (len, p) = (rope.len(), PAGE as usize);
        // What a cut leaves in the buffer and returns, and what it copied.
        type Cut = dyn Fn(&mut ScatterBuf) -> ScatterBuf;
        let cut = |buf: &ScatterBuf, op: &Cut| {
            let mut kept = buf.clone();
            reset_shared_flatten_bytes();
            let out = op(&mut kept);
            let copied = shared_flatten_bytes();
            let (kept_outline, out_outline) = (outline(&kept), outline(&out));
            (
                kept_outline,
                kept.to_vec(),
                out_outline,
                out.to_vec(),
                copied,
            )
        };
        // Rope edges, page boundaries and page interiors, from either end.
        for at in [
            0,
            3,
            4,
            3 + p,
            4 + p,
            53 + 3 * p,
            103 + 3 * p,
            len - p,
            len - 1,
            len,
        ] {
            let ops: [Box<Cut>; 5] = [
                Box::new(move |b| b.slice(0, at)),
                Box::new(move |b| b.slice(at, len)),
                Box::new(move |b| b.slice(at / 2, at)),
                Box::new(move |b| b.split_off(at)),
                Box::new(move |b| {
                    b.truncate(at);
                    ScatterBuf::new()
                }),
            ];
            for (k, op) in ops.iter().enumerate() {
                assert_eq!(cut(&rope, op), cut(&pages, op), "cut {k} at {at}");
            }
        }
        // A whole rope inside the range is one handle, not its pages.
        let whole = rope.slice(3, 3 + 3 * p + 100);
        match whole.raw_segments() {
            [Segment::Rope(r)] => assert_eq!(r.page_count(), 4),
            other => panic!("expected one rope segment, got {}", other.len()),
        }
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

        // A rope against the same bytes as pages and as one owned buffer.
        let (rope, pages) = roped();
        let flat = rope.to_vec();
        let owned = ScatterBuf::from_vec(flat.clone());
        // The same bytes cut into runs that straddle every page boundary.
        let runs = |bytes: &[u8]| {
            let mut b = ScatterBuf::new();
            for run in bytes.chunks(1000) {
                b.push_owned(run.to_vec());
            }
            b
        };
        let shapes = [&rope, &pages, &owned, &runs(&flat)];
        for x in shapes {
            for y in shapes {
                assert_eq!(x, y);
            }
        }
        // One byte off at the first and last byte and on either side of
        // every piece boundary.
        let mut at = vec![0, flat.len() - 1];
        let mut end = 0;
        for piece in pages.segments() {
            end += piece.len();
            at.extend([end - 1, end.min(flat.len() - 1)]);
        }
        for i in at {
            let mut off = flat.clone();
            off[i] ^= 0x80;
            for y in [ScatterBuf::from_vec(off.clone()), runs(&off)] {
                for x in shapes {
                    assert_ne!(*x, y, "byte {i}");
                    assert_ne!(y, *x, "byte {i}");
                }
            }
        }
        // A prefix is not equal, however it is cut.
        let prefix = ScatterBuf::from_vec(flat[..flat.len() - 1].to_vec());
        for x in shapes {
            assert_ne!(*x, prefix);
            assert_ne!(prefix, *x);
        }
        assert_eq!(rope.slice(0, flat.len() - 1), prefix);
    }
}
