//! Scatter byte buffers: iovec-style views over shared page ropes.
//!
//! The checkpoint data path produces images whose bulk is `Arc`-per-page
//! rope chunks shared with the live [`crate::memory::AddressSpace`] (the
//! copy-on-write snapshot). [`ScatterBuf`] lets those bytes travel from
//! the encoder through every storage tier *without ever being flattened
//! into a contiguous `Vec<u8>`*: a buffer is an ordered list of segments,
//! each either a small owned metadata run or a shared rope page. A clean
//! page therefore crosses the whole store seam as one `Arc` clone — zero
//! memcpys between address space and store tier.
//!
//! Flattening still exists for consumers that genuinely need contiguous
//! bytes (the restart decode path, journal envelope validation); every
//! byte copied *out of a shared segment* by such a flatten is tallied in
//! a per-thread counter so benchmarks can assert the hot put path
//! performs none.

use crate::checksum::Checksum;
use std::cell::Cell;
use std::sync::Arc;

/// One segment of a [`ScatterBuf`].
#[derive(Clone)]
pub enum Segment {
    /// Small owned bytes (image metadata, framing headers).
    Owned(Vec<u8>),
    /// A shared rope page — typically an `Arc` chunk of a
    /// [`crate::memory::DenseSnap`], alive without copying.
    Shared(Arc<[u8]>),
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
    /// how scatter-aware decoders recover `Arc` pages without copying.
    pub fn shared_handle(&self) -> Option<&Arc<[u8]>> {
        match self {
            Segment::Shared(p) => Some(p),
            Segment::Owned(_) => None,
        }
    }
}

thread_local! {
    /// Bytes copied out of *shared* segments by flattening on this OS
    /// thread. Every simulated thread runs on the OS thread that called
    /// `Sim::run`, so a put or get window bracketed on that thread sees
    /// every flatten inside it and none from concurrent tests.
    static SHARED_FLATTEN_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Cumulative count of bytes memcpy'd out of shared (rope-page) segments
/// by [`ScatterBuf::to_vec`]/[`ScatterBuf::into_vec`] on the calling OS
/// thread since its last [`reset_shared_flatten_bytes`]. The zero-copy
/// put path must leave this untouched; the `fig_ckpt_path` smoke asserts
/// exactly that.
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

/// An ordered scatter of byte segments whose concatenation is the
/// buffer's content. Cloning is cheap for shared segments (`Arc` bumps);
/// owned segments (small metadata) are copied.
#[derive(Clone, Default)]
pub struct ScatterBuf {
    segments: Vec<Segment>,
    len: usize,
    /// The content's [`ScatterBuf::checksum`], when [`ScatterBuf::framed`]
    /// computed it while building the buffer. Every mutator clears it, so
    /// it is never stale; clones keep it and equality ignores it.
    digest: Option<u64>,
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

    /// Frame `payload` as `header ‖ payload ‖ trailer(d)`, where `d` is
    /// the payload's [`ScatterBuf::checksum`] — the shape of a commit
    /// envelope. One pass over the payload computes `d` and the whole
    /// frame's digest together: each segment is streamed into both while it
    /// is still in cache, so a later [`ScatterBuf::checksum`] of the frame
    /// is a lookup, not a second pass. Payload segments move in untouched
    /// (shared pages stay shared).
    pub fn framed(
        header: Vec<u8>,
        payload: ScatterBuf,
        trailer: impl FnOnce(u64) -> Vec<u8>,
    ) -> ScatterBuf {
        let mut whole = Checksum::new();
        let mut inner = Checksum::new();
        whole.update(&header);
        for s in payload.segments() {
            inner.update(s);
            whole.update(s);
        }
        let trailer = trailer(inner.digest());
        whole.update(&trailer);
        let mut frame = ScatterBuf::new();
        frame.push_owned(header);
        frame.append(payload);
        frame.push_owned(trailer);
        frame.digest = Some(whole.digest());
        frame
    }

    /// Append owned bytes (empty vectors are dropped).
    pub fn push_owned(&mut self, bytes: Vec<u8>) {
        self.digest = None;
        if !bytes.is_empty() {
            self.len += bytes.len();
            self.segments.push(Segment::Owned(bytes));
        }
    }

    /// Append a shared page handle without copying it (empty pages are
    /// dropped).
    pub fn push_shared(&mut self, page: Arc<[u8]>) {
        self.digest = None;
        if !page.is_empty() {
            self.len += page.len();
            self.segments.push(Segment::Shared(page));
        }
    }

    /// Append every segment of `other` (shared segments stay shared).
    pub fn append(&mut self, other: ScatterBuf) {
        self.digest = None;
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
        self.digest = None;
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
    /// [`crate::checksum::checksum_bytes`] of the flattened content, with
    /// no flatten. A buffer built by [`ScatterBuf::framed`] (and not
    /// mutated since) returns the digest computed while framing; debug
    /// builds recompute it on every such hit and assert the two agree.
    pub fn checksum(&self) -> u64 {
        match self.digest {
            Some(digest) => {
                debug_assert_eq!(digest, self.streamed_checksum(), "stale framing digest");
                digest
            }
            None => self.streamed_checksum(),
        }
    }

    fn streamed_checksum(&self) -> u64 {
        let mut c = Checksum::new();
        for s in self.segments() {
            c.update(s);
        }
        c.digest()
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
    use crate::checksum::checksum_bytes;

    fn shared(bytes: &[u8]) -> Arc<[u8]> {
        Arc::from(bytes)
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

    /// `header ‖ payload ‖ trailer` framed around `payload`, the trailer
    /// holding the payload's digest (a journal envelope's shape).
    fn frame(payload: ScatterBuf) -> ScatterBuf {
        ScatterBuf::framed(vec![0xAA; 20], payload, |d| {
            [d.to_le_bytes(), *b"COMMITED"].concat()
        })
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

    /// Payloads of every segment mix: owned, shared, both, and empty.
    fn payloads() -> Vec<ScatterBuf> {
        let mut pages = ScatterBuf::new();
        pages.push_shared(shared(&[7; 4096]));
        pages.push_shared(shared(&[8; 4096]));
        vec![
            ScatterBuf::from_vec((0..100u8).collect()),
            pages,
            mixed(),
            ScatterBuf::new(),
        ]
    }

    #[test]
    fn framing_digest_equals_the_flat_digest() {
        for payload in payloads() {
            let flat_payload = payload.to_vec();
            let framed = frame(payload);
            assert!(framed.digest.is_some(), "framing computes the digest");
            let flat = framed.to_vec();
            assert_eq!(framed.checksum(), checksum_bytes(&flat));
            // The content is exactly header ‖ payload ‖ trailer(digest).
            let mut want = vec![0xAA; 20];
            want.extend_from_slice(&flat_payload);
            want.extend_from_slice(&checksum_bytes(&flat_payload).to_le_bytes());
            want.extend_from_slice(b"COMMITED");
            assert_eq!(flat, want);
        }
    }

    #[test]
    fn every_mutator_clears_the_framing_digest() {
        let mutators: [fn(&mut ScatterBuf); 6] = [
            |b| b.push_owned(vec![9; 5]),
            |b| b.push_owned(Vec::new()),
            |b| b.push_shared(shared(&[9; 64])),
            |b| b.append(ScatterBuf::from_vec(vec![9; 40])),
            |b| b.truncate(b.len() / 2),
            |b| b.truncate(0),
        ];
        for mutate in mutators {
            let mut b = frame(mixed());
            mutate(&mut b);
            assert!(b.digest.is_none());
            assert_eq!(b.checksum(), checksum_bytes(&b.to_vec()));
        }
    }

    #[test]
    fn clones_keep_the_framing_digest_and_equality_ignores_it() {
        let framed = frame(mixed());
        let copy = framed.clone();
        assert_eq!(copy.digest, framed.digest);
        assert_eq!(copy.checksum(), checksum_bytes(&framed.to_vec()));
        let plain = ScatterBuf::from_vec(framed.to_vec());
        assert!(plain.digest.is_none());
        assert_eq!(plain, framed);
        assert_eq!(framed, plain);
    }

    #[test]
    fn slice_keeps_interior_segments_shared() {
        let page: Arc<[u8]> = shared(&[7; 4096]);
        let mut b = ScatterBuf::new();
        b.push_owned(vec![1; 20]); // "header"
        b.push_shared(page.clone());
        b.push_owned(vec![2; 16]); // "trailer"

        // Exact payload bounds: the page segment passes through shared.
        let payload = b.slice(20, 20 + 4096);
        assert_eq!(payload.len(), 4096);
        assert_eq!(payload.shared_len(), 4096);
        match payload.raw_segments() {
            [Segment::Shared(p)] => assert!(Arc::ptr_eq(p, &page)),
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
        let page: Arc<[u8]> = shared(&[9; 64]);
        let mut b = ScatterBuf::new();
        b.push_owned(vec![1, 2]);
        b.push_shared(page.clone());
        let segs = b.raw_segments();
        assert!(segs[0].shared_handle().is_none());
        assert!(Arc::ptr_eq(segs[1].shared_handle().unwrap(), &page));
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
