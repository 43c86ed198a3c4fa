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
//! tallies the shared-page bytes hashed, so a test can count that a put
//! hashes only the pages that are new.
//!
//! **Digest workers.** Re-hashing a large buffer chunk by chunk
//! ([`ScatterBuf::rehash_chunks`]) fans the chunks out over the CPUs the
//! process may use, one thread per 512 KiB at most: consecutive runs of
//! chunks go to scoped OS threads, the last run stays on the calling
//! thread, and the digests come back in chunk order. The workers only hash
//! immutable bytes — they allocate nothing, take no lock, never park and
//! never touch a `Sim` — and their hashed-byte tallies are credited to the
//! calling thread. Below 1 MiB, with one CPU allowed, or with chunks far
//! smaller than pages, the calling thread hashes alone; so it does a run
//! whose thread the OS refuses. These workers are the only OS threads the
//! simulator ever runs beside its own.

use crate::checksum::{checksum_bytes, Checksum};
use crate::page::Page;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::OnceLock;

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

/// Cumulative count of shared-page bytes hashed by the content digest on
/// the calling OS thread since its last [`reset_shared_hashed_bytes`]:
/// every [`Page::digest`] that fills its memo, and every shared segment
/// streamed by [`ScatterBuf::checksum`] or [`ScatterBuf::rehash_chunks`].
/// Bytes that digest workers hash for a call count on the thread that made
/// the call. A memo hit adds nothing, so a put through the journal adds
/// exactly the bytes of the pages that are new since the last snapshot.
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

/// The least digest work, in bytes, worth a thread of its own: starting a
/// scoped worker costs tens of microseconds, about what one CPU takes to
/// hash a few hundred KiB. A buffer of less than twice this is hashed on
/// the calling thread alone, and a larger one on at most one thread per
/// this many bytes.
const WORKER_MIN_BYTES: usize = 512 << 10;

/// Chunks averaging fewer bytes than this are hashed on the calling thread
/// alone. Handing chunks to workers keeps each chunk's length and digest
/// (16 bytes) until the fold, so this bounds that to 1/64 of the buffer
/// whatever a chunk table says; real tables cut pages of 4 KiB.
const WORKER_MIN_AVG_CHUNK: usize = 1024;

/// How many CPUs the process may run on (its affinity mask), read once.
fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Hash `segments` from byte `skip` on, cut into consecutive chunks of
/// `lens` bytes, passing each chunk's digest to `each` in order; returns
/// the shared bytes hashed. A chunk that spans segments is streamed across
/// them, and one reaching past the end is digested as far as the bytes go.
fn rehash_run(
    segments: &[Segment],
    mut skip: usize,
    lens: impl IntoIterator<Item = usize>,
    mut each: impl FnMut(u64),
) -> u64 {
    let mut segments = segments.iter();
    let mut rest: &[u8] = &[];
    let mut shared = false;
    let mut hashed = 0;
    for len in lens {
        let mut c = Checksum::new();
        let mut want = len;
        while want > 0 {
            if rest.is_empty() {
                let Some(seg) = segments.next() else { break };
                rest = seg.as_bytes();
                shared = matches!(seg, Segment::Shared(_));
                let skipped = skip.min(rest.len());
                (rest, skip) = (&rest[skipped..], skip - skipped);
                continue;
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
    hashed
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
        // One chunk is one stream: there is nothing to hand a worker.
        let mut digest = 0;
        tally_shared_hashed(rehash_run(&self.segments, 0, [self.len], |d| digest = d));
        digest
    }

    /// Re-hash the content cut into consecutive chunks of `lens` bytes,
    /// passing each chunk's [`checksum_bytes`] digest to `each` in order.
    /// Every chunk is hashed from the bytes — a page's memo is never read
    /// — and a chunk that spans segments, or ends inside one, is streamed
    /// across them with no flatten. A chunk reaching past the end of the
    /// content is digested as far as the content goes. A buffer of 1 MiB
    /// or more is hashed by digest workers on the CPUs the process may use
    /// (module docs); `each` still runs on the calling thread, in chunk
    /// order.
    pub fn rehash_chunks(&self, lens: impl IntoIterator<Item = usize>, each: impl FnMut(u64)) {
        let workers = cpus().min(self.len / WORKER_MIN_BYTES);
        self.rehash_chunks_on(workers, self.len / WORKER_MIN_AVG_CHUNK, lens, each);
    }

    /// [`ScatterBuf::rehash_chunks`] on up to `workers` threads, whatever
    /// the buffer's size, unless `lens` has more than `max_chunks` chunks.
    pub(crate) fn rehash_chunks_on(
        &self,
        workers: usize,
        max_chunks: usize,
        lens: impl IntoIterator<Item = usize>,
        mut each: impl FnMut(u64),
    ) {
        let mut lens = lens.into_iter();
        let head: Vec<usize> = if workers > 1 {
            lens.by_ref().take(max_chunks.saturating_add(1)).collect()
        } else {
            Vec::new()
        };
        if workers <= 1 || head.len() > max_chunks {
            let lens = head.into_iter().chain(lens);
            tally_shared_hashed(rehash_run(&self.segments, 0, lens, each));
            return;
        }
        let lens = head;
        // Cut the chunks into `parts` consecutive runs of about equal
        // bytes: each run's first chunk and the byte it starts at.
        let parts = workers.min(lens.len().max(1));
        let mut total = 0usize;
        for &len in &lens {
            total = total.saturating_add(len).min(self.len);
        }
        let mut starts = vec![(0, 0)];
        let mut at = 0usize;
        for (i, &len) in lens.iter().enumerate() {
            at = at.saturating_add(len).min(self.len);
            if starts.len() < parts && i + 1 < lens.len() && at >= total / parts * starts.len() {
                starts.push((i + 1, at));
            }
        }
        let digests: Vec<AtomicU64> = lens.iter().map(|_| AtomicU64::new(0)).collect();
        let fill = |run: usize| {
            let (first, skip) = starts[run];
            let end = starts.get(run + 1).map_or(lens.len(), |&(next, _)| next);
            let mut slots = digests[first..end].iter();
            rehash_run(
                &self.segments,
                skip,
                lens[first..end].iter().copied(),
                |d| {
                    slots.next().expect("one slot per chunk").store(d, Relaxed);
                },
            )
        };
        let hashed = std::thread::scope(|s| {
            let fill = &fill;
            let mut hashed = 0;
            let last = starts.len() - 1;
            let mut spawned = Vec::with_capacity(last);
            for run in 0..last {
                match std::thread::Builder::new().spawn_scoped(s, move || fill(run)) {
                    Ok(worker) => spawned.push(worker),
                    // A refused thread costs speed, not the digests.
                    Err(_) => hashed += fill(run),
                }
            }
            hashed += fill(last);
            for worker in spawned {
                hashed += worker
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e));
            }
            hashed
        });
        tally_shared_hashed(hashed);
        for digest in digests {
            each(digest.into_inner());
        }
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
        ] {
            let mut got = Vec::new();
            b.rehash_chunks(lens.iter().copied(), |d| got.push(d));
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
        b.rehash_chunks([3, 4096, 77, 13], |_| {});
        assert_eq!(
            shared_hashed_bytes(),
            3 * (4096 + 13),
            "a re-hash never reads a memo"
        );
    }

    /// Many segments of assorted kinds and lengths, fresh pages included.
    fn many() -> ScatterBuf {
        let mut b = ScatterBuf::new();
        for i in 0..40usize {
            let len = 1 + (i * 997) % 5000;
            let bytes: Vec<u8> = (0..len).map(|k| (k * 31 + i) as u8).collect();
            if i % 3 == 0 {
                b.push_owned(bytes);
            } else {
                b.push_shared(shared(&bytes));
            }
        }
        b
    }

    #[test]
    fn digest_workers_return_the_serial_digests_in_order() {
        let b = many();
        let flat = b.to_vec();
        let seg_lens: Vec<usize> = b.segments().map(<[u8]>::len).collect();
        // Segment-aligned; zero-length chunks among them; chunks spanning
        // segments; fewer chunks than workers; past the end.
        for lens in [
            seg_lens.clone(),
            seg_lens.iter().flat_map(|&l| [0, l, 0]).collect(),
            vec![333; flat.len() / 333 + 3],
            vec![7000, 0, 25_000, 1, 40_000, 9000],
            vec![flat.len()],
            vec![],
        ] {
            let mut want = Vec::new();
            let mut at = 0usize;
            for &len in &lens {
                let end = at.saturating_add(len).min(flat.len());
                want.push(checksum_bytes(&flat[at..end]));
                at = end;
            }
            reset_shared_hashed_bytes();
            let mut serial = Vec::new();
            b.rehash_chunks_on(1, usize::MAX, lens.iter().copied(), |d| serial.push(d));
            let serial_hashed = shared_hashed_bytes();
            assert_eq!(serial, want);
            // Workers, then a chunk cap the table meets (workers) or
            // exceeds (the calling thread alone, from the same iterator).
            let n = lens.len();
            for (workers, max_chunks) in [(2, n), (3, n), (8, n), (3, n.wrapping_sub(1)), (8, 0)] {
                reset_shared_hashed_bytes();
                let mut got = Vec::new();
                b.rehash_chunks_on(workers, max_chunks, lens.iter().copied(), |d| got.push(d));
                assert_eq!(got, want, "{workers} workers, {n} chunks, cap {max_chunks}");
                assert_eq!(
                    shared_hashed_bytes(),
                    serial_hashed,
                    "{workers} workers' tallies reach the caller"
                );
            }
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
