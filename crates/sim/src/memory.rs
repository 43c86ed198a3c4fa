//! Simulated per-rank address spaces with split-process region tagging.
//!
//! MANA's split-process mechanism needs exactly one thing from the memory
//! system: the ability to tag every mapped region as belonging to the
//! **upper half** (the MPI application — saved in checkpoint images) or the
//! **lower half** (the ephemeral MPI library, network driver and their
//! dependencies — discarded at checkpoint, rebuilt at restart). This module
//! provides that: a `BTreeMap` of non-overlapping regions with half/kind
//! tags, dense byte backing for data the workloads really compute with, and
//! *pattern* backing for bulk footprint that only matters for checkpoint
//! sizing/timing (a 93 MB per-rank image at 2048 ranks would need ~190 GB of
//! host RAM if materialized).
//!
//! The `brk`/`sbrk` emulation reproduces the paper's §2.1 "minor
//! inconvenience": the kernel has a single program break per process, so
//! after restart the break belongs to the (new) lower half and upper-half
//! `sbrk` growth must be redirected to `mmap` by MANA's interposition.

use crate::checksum::Checksum;
use crate::page::Page;
use crate::pod::{cast_slice, cast_slice_mut, Pod};
use crate::rng::splitmix64;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Which program within the split process a region belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Half {
    /// The MPI application: saved in checkpoint images.
    Upper,
    /// The ephemeral MPI library + network stack: discarded at checkpoint.
    Lower,
}

/// Broad classification of a mapped region (mirrors /proc/self/maps roles).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RegionKind {
    /// Executable code (library or application text).
    Text,
    /// Static data segments.
    Data,
    /// The program-break heap.
    Heap,
    /// Thread stacks.
    Stack,
    /// Anonymous mmap (MANA redirects upper-half heap growth here).
    Mmap,
    /// System V / driver shared memory (e.g. intra-node MPI channels).
    Shm,
    /// NIC driver pinned/registered memory.
    Pinned,
    /// Thread-local storage blocks (each half has its own, hence the
    /// FS-register dance).
    Tls,
}

/// Page size used for address arithmetic.
pub const PAGE: u64 = 4096;

const UPPER_TEXT_BASE: u64 = 0x0040_0000;
const BRK_BASE: u64 = 0x0200_0000;
const BRK_LIMIT: u64 = 0x1_0000_0000;
const LOWER_BASE: u64 = 0x2aaa_0000_0000;
const LOWER_LIMIT: u64 = 0x5555_0000_0000;
const UPPER_MMAP_TOP: u64 = 0x7f80_0000_0000;
const UPPER_MMAP_BOTTOM: u64 = 0x6000_0000_0000;

/// Errors from address-space operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemError {
    /// Mapping would overlap an existing region.
    Collision {
        /// Requested start address.
        at: u64,
        /// Name of the region already occupying the range.
        existing: String,
    },
    /// No region contains the requested address range.
    BadAddress(u64),
    /// Typed access into a pattern-backed (non-dense) region.
    NotDense(u64),
    /// Typed access with misaligned base address.
    Misaligned(u64),
    /// `sbrk` called by the half that does not own the program break.
    BrkOwnedByOtherHalf {
        /// Current owner of the break.
        owner: Half,
    },
    /// Arena exhausted (simulation limits, not a modelled condition).
    OutOfArena(RegionKind),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Collision { at, existing } => {
                write!(f, "mapping at {at:#x} collides with region '{existing}'")
            }
            MemError::BadAddress(a) => write!(f, "no region contains address {a:#x}"),
            MemError::NotDense(a) => write!(f, "region at {a:#x} has no dense backing"),
            MemError::Misaligned(a) => write!(f, "misaligned access at {a:#x}"),
            MemError::BrkOwnedByOtherHalf { owner } => {
                write!(f, "program break is owned by the {owner:?} half")
            }
            MemError::OutOfArena(k) => write!(f, "arena exhausted for {k:?} mapping"),
        }
    }
}

impl std::error::Error for MemError {}

/// 8-byte-aligned dense byte buffer.
pub struct DenseBuf {
    words: Vec<u64>,
    len: usize,
}

impl DenseBuf {
    /// Zero-filled buffer of `len` bytes.
    pub fn zeroed(len: usize) -> DenseBuf {
        DenseBuf {
            words: vec![0u64; len.div_ceil(8)],
            len,
        }
    }

    /// Buffer initialized from `bytes`.
    pub fn from_bytes(bytes: &[u8]) -> DenseBuf {
        let mut b = DenseBuf::zeroed(bytes.len());
        b.as_bytes_mut().copy_from_slice(bytes);
        b
    }

    /// Buffer holding `snap`'s content, built straight from its pages
    /// (no zero fill first).
    fn from_snap(snap: &DenseSnap) -> DenseBuf {
        let mut words = Vec::with_capacity(snap.len.div_ceil(8));
        for p in snap.pages() {
            // Every page but a short last one is a whole number of words.
            let mut chunks = p.chunks_exact(8);
            words.extend(
                chunks
                    .by_ref()
                    .map(|w| u64::from_ne_bytes(w.try_into().expect("8-byte chunk"))),
            );
            let tail = chunks.remainder();
            if !tail.is_empty() {
                let mut w = [0u8; 8];
                w[..tail.len()].copy_from_slice(tail);
                words.push(u64::from_ne_bytes(w));
            }
        }
        debug_assert_eq!(words.len(), snap.len.div_ceil(8));
        DenseBuf {
            words,
            len: snap.len,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Immutable byte view.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: u64 words reinterpreted as bytes; len <= words.len()*8.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast(), self.len) }
    }

    /// Mutable byte view.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `as_bytes`, plus exclusive access via &mut.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast(), self.len) }
    }

    /// Grow to `new_len` bytes (zero-filling the extension).
    pub fn grow(&mut self, new_len: usize) {
        assert!(new_len >= self.len);
        self.words.resize(new_len.div_ceil(8), 0);
        self.len = new_len;
    }
}

impl Clone for DenseBuf {
    fn clone(&self) -> Self {
        DenseBuf {
            words: self.words.clone(),
            len: self.len,
        }
    }
}

/// What backs a region's contents.
pub enum Backing {
    /// Real bytes: fully saved/restored in checkpoint images.
    Dense(DenseBuf),
    /// Content sitting in a checkpoint image's frozen rope, zero copies
    /// of its own. Two sources install it: restore maps the stored pages
    /// in directly, and [`AddressSpace::snapshot_half_freezing`] swaps a
    /// region's live buffer for the rope it has just snapshotted. Reads
    /// within one page are served straight from the rope; the first
    /// write (or multi-page read) thaws the region into a private
    /// [`DenseBuf`]. Snapshotting a still-frozen region shares every
    /// page.
    Frozen(DenseSnap),
    /// Synthetic bulk footprint: content is the deterministic function
    /// [`pattern_byte`] of (seed, offset); only the descriptor is stored.
    Pattern {
        /// Seed defining the synthetic content.
        seed: u64,
    },
}

/// Deterministic content function for pattern-backed regions.
#[inline]
pub fn pattern_byte(seed: u64, offset: u64) -> u8 {
    (splitmix64(seed ^ (offset / 8)) >> (8 * (offset % 8))) as u8
}

/// O(1) checksum of a pattern region (content is fully determined by
/// `(seed, len)`).
pub fn pattern_checksum(seed: u64, len: u64) -> u64 {
    splitmix64(seed ^ splitmix64(len) ^ 0x7061_7474_6572_6e00)
}

/// A mapped region.
pub struct Region {
    /// Start address (page aligned).
    pub start: u64,
    /// Logical length in bytes (dense backing length for dense regions).
    pub len: u64,
    /// Which split-process half owns this region.
    pub half: Half,
    /// Role of the region.
    pub kind: RegionKind,
    /// Human-readable name (library/file-style, for diagnostics).
    pub name: String,
    /// Contents.
    pub backing: Backing,
    /// Dirty-page tracking + snapshot epoch state (dense regions only).
    track: Track,
}

impl Region {
    /// Materialize frozen (zero-copy) content into a private dense
    /// buffer — the deferred copy, paid only on the first write or
    /// multi-page read. Content is unchanged, so no pages are marked
    /// dirty: the region still equals the rope it was frozen on, and the
    /// pages that rope holds ahead of the committed epoch (a freezing
    /// snapshot not yet committed) are in the staged dirty set.
    fn thaw(&mut self) {
        if let Backing::Frozen(rope) = &self.backing {
            self.backing = Backing::Dense(DenseBuf::from_snap(rope));
        }
    }
}

/// A snapshot taken but not yet committed by [`AddressSpace::clear_dirty`].
struct Staged {
    rope: DenseSnap,
    /// The dirty bits consumed by this snapshot; folded back into the
    /// live bitmap if the checkpoint aborts (a later snapshot arrives
    /// without an intervening commit).
    dirty_at_snap: Vec<u64>,
    seq: u64,
}

/// Per-region dirty/epoch state. Every mutation path sets bits in
/// `dirty`; `snapshot_half_tracked` copies exactly the dirty pages
/// against `committed` and stages the result; `clear_dirty` promotes the
/// staged rope to the new committed epoch.
#[derive(Default)]
struct Track {
    /// Pages written since the last snapshot (bit per [`PAGE`] page).
    dirty: Vec<u64>,
    staged: Option<Staged>,
    /// Frozen content of the last *committed* snapshot epoch.
    committed: Option<DenseSnap>,
    committed_seq: u64,
}

impl Track {
    fn mark(&mut self, region_start: u64, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = ((addr - region_start) / PAGE) as usize;
        let last = ((addr + len - 1 - region_start) / PAGE) as usize;
        for p in first..=last {
            bit_set(&mut self.dirty, p);
        }
    }
}

/// Region metadata without contents (cheap to copy around).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionMeta {
    /// Start address.
    pub start: u64,
    /// Logical length in bytes.
    pub len: u64,
    /// Owning half.
    pub half: Half,
    /// Role.
    pub kind: RegionKind,
    /// Name.
    pub name: String,
    /// Whether the region has dense (real byte) backing.
    pub dense: bool,
}

/// A self-contained copy of a region, as stored in checkpoint images. A
/// clone copies the name and bumps the dense content's rope count once,
/// whatever the region's size.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionSnapshot {
    /// Start address.
    pub start: u64,
    /// Logical length.
    pub len: u64,
    /// Owning half at snapshot time.
    pub half: Half,
    /// Role.
    pub kind: RegionKind,
    /// Name.
    pub name: String,
    /// Contents (dense bytes or pattern descriptor).
    pub content: SnapshotContent,
}

/// Contents of a [`RegionSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum SnapshotContent {
    /// Full byte image (frozen, [`Page`]-backed; a clone is one count
    /// bump on the shared page list, see [`DenseSnap`]).
    Dense(DenseSnap),
    /// Pattern descriptor (seed); content defined by [`pattern_byte`].
    Pattern {
        /// Seed defining the synthetic content.
        seed: u64,
    },
}

/// Number of [`PAGE`]-sized chunks covering `len` bytes.
pub fn pages_of_len(len: usize) -> usize {
    len.div_ceil(PAGE as usize)
}

const BITS: usize = 64;

fn bitmap_words(npages: usize) -> usize {
    npages.div_ceil(BITS)
}

fn bit_get(bits: &[u64], i: usize) -> bool {
    bits.get(i / BITS)
        .is_some_and(|w| w & (1 << (i % BITS)) != 0)
}

fn bit_set(bits: &mut Vec<u64>, i: usize) {
    let w = i / BITS;
    if bits.len() <= w {
        bits.resize(w + 1, 0);
    }
    bits[w] |= 1 << (i % BITS);
}

fn bits_or_into(dst: &mut Vec<u64>, src: &[u64]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= *s;
    }
}

/// Frozen dense snapshot content: a rope of [`PAGE`]-sized [`Page`]
/// chunks (the last chunk may be shorter). Chunks are *shared* — with the
/// region's committed snapshot epoch inside the [`AddressSpace`] and with
/// every other snapshot of the same epoch — so taking a snapshot of a
/// clean region copies zero bytes, and a dirty region copies only its
/// dirty pages. The chunking is a deterministic function of `len`, so two
/// `DenseSnap`s of equal content always have pairwise-comparable pages.
///
/// Pages are immutable: [`DenseSnap::patched`] and a frozen region's thaw
/// copy, never write in place. A page's memoized digest
/// ([`Page::digest`]) is therefore computed at most once however many
/// snapshots, images and store tiers share the page: a clean page is
/// hashed once in its lifetime, a dirty one when it is new.
///
/// The page list itself is one shared value: cloning a snapshot is one
/// reference-count bump however many pages it holds, so a rope crosses
/// the encoder, every store tier, the decoder and
/// [`AddressSpace::restore_region`] as one handle. Only building a new
/// rope (a tracked snapshot, a patch, a CAS put that rebuilds a twin
/// region on its pool's pages) touches each page's count. The list also keeps its pages' digests side by side once
/// something asks for them all ([`DenseSnap::page_digests`]), so a reader
/// that wants every page's digest again reads one contiguous list instead
/// of visiting each page.
#[derive(Clone)]
pub struct DenseSnap {
    len: usize,
    rope: Arc<Rope>,
}

/// What every clone of a [`DenseSnap`] shares.
struct Rope {
    pages: Box<[Page]>,
    /// Every page's [`Page::digest`], in order, once listed. The pages
    /// never change, so neither does the list.
    digests: OnceLock<Box<[u64]>>,
}

impl DenseSnap {
    /// A snapshot over `pages`, already in the canonical chunking of `len`.
    fn new(len: usize, pages: Vec<Page>) -> DenseSnap {
        DenseSnap {
            len,
            rope: Arc::new(Rope {
                pages: pages.into(),
                digests: OnceLock::new(),
            }),
        }
    }

    /// Freeze an owned byte vector (copies into page chunks).
    pub fn from_vec(bytes: Vec<u8>) -> DenseSnap {
        DenseSnap::from_bytes(&bytes)
    }

    /// Freeze a byte slice (copies into page chunks).
    pub fn from_bytes(bytes: &[u8]) -> DenseSnap {
        DenseSnap::new(
            bytes.len(),
            bytes.chunks(PAGE as usize).map(Page::from).collect(),
        )
    }

    /// Rebuild a snapshot from already-frozen page handles — zero-copy:
    /// the pages stay shared with whoever else holds them (a
    /// content-addressed store's put rebuilds a twin image's region on its
    /// pool's pages this way). Returns `None` unless the handles follow the
    /// canonical chunking of `len`: every page [`PAGE`] bytes except a
    /// shorter final page.
    pub fn from_pages(len: usize, pages: Vec<Page>) -> Option<DenseSnap> {
        if pages.len() != pages_of_len(len) {
            return None;
        }
        let mut total = 0usize;
        for (i, p) in pages.iter().enumerate() {
            let want = if i + 1 < pages.len() {
                PAGE as usize
            } else {
                len - i * PAGE as usize
            };
            if p.len() != want {
                return None;
            }
            total += p.len();
        }
        debug_assert_eq!(total, len);
        Some(DenseSnap::new(len, pages))
    }

    /// Content length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the content is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of page chunks.
    pub fn page_count(&self) -> usize {
        self.rope.pages.len()
    }

    /// One page chunk as a byte slice.
    pub fn page(&self, i: usize) -> &[u8] {
        &self.rope.pages[i]
    }

    /// Iterate the page chunks in order (concatenation = content).
    pub fn pages(&self) -> impl Iterator<Item = &[u8]> {
        self.rope.pages.iter().map(|p| &p[..])
    }

    /// Materialize the full contiguous content (copies).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.len);
        for p in self.rope.pages.iter() {
            v.extend_from_slice(p);
        }
        v
    }

    /// A new snapshot with byte `patches` (offset, bytes) applied:
    /// untouched pages stay shared with `self`, touched pages are copied
    /// once — O(patched pages), not O(region). Returns `None` if any
    /// patch reaches past the end of the content (corrupt input).
    pub fn patched(&self, patches: &[(u64, Vec<u8>)]) -> Option<DenseSnap> {
        let mut pages = self.rope.pages.to_vec();
        for (off, bytes) in patches {
            let off = *off as usize;
            if off + bytes.len() > self.len {
                return None;
            }
            let mut done = 0;
            while done < bytes.len() {
                let abs = off + done;
                let p = abs / PAGE as usize;
                let in_page = abs - p * PAGE as usize;
                let n = (pages[p].len() - in_page).min(bytes.len() - done);
                // Copy-on-write at page granularity: materialize just the
                // pages a patch touches.
                let mut v = pages[p].to_vec();
                v[in_page..in_page + n].copy_from_slice(&bytes[done..done + n]);
                pages[p] = Page::from(&v[..]);
                done += n;
            }
        }
        Some(DenseSnap::new(self.len, pages))
    }

    /// Whether page `i` is the same allocation in both snapshots (shared,
    /// not merely equal) — used by tests and copy-traffic accounting.
    pub fn shares_page(&self, other: &DenseSnap, i: usize) -> bool {
        match (self.rope.pages.get(i), other.rope.pages.get(i)) {
            (Some(a), Some(b)) => Page::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Clone the shared handle of page `i` — lets storage backends keep a
    /// page alive (and deduplicate it, or read its memoized digest)
    /// without copying its bytes.
    pub fn page_handle(&self, i: usize) -> Page {
        self.rope.pages[i].clone()
    }

    /// Borrow every page handle in order — how a store reads the pages'
    /// memoized digests without cloning a handle per page.
    pub fn page_handles(&self) -> &[Page] {
        &self.rope.pages
    }

    /// Every page's [`Page::digest`], in order, listed on the shared page
    /// list the first time something asks: that call reads (and fills) each
    /// page's memo, and every later call through any clone reads the list.
    pub fn page_digests(&self) -> &[u64] {
        self.rope
            .digests
            .get_or_init(|| self.rope.pages.iter().map(Page::digest).collect());
        self.listed_page_digests().expect("just listed")
    }

    /// The page digests, if something has listed them
    /// ([`DenseSnap::page_digests`]); `None` reads no page. Debug builds
    /// check the list against the pages' memos (which they re-derive) on
    /// every read, as they check a memo on every hit.
    pub fn listed_page_digests(&self) -> Option<&[u64]> {
        let digests = self.rope.digests.get()?;
        debug_assert!(
            digests
                .iter()
                .zip(self.page_handles())
                .all(|(&d, p)| d == p.digest()),
            "stale rope digest list"
        );
        Some(digests)
    }

    /// Whether two snapshots share one page list (the same rope, not
    /// merely equal pages): what a clone, or a store that handed the rope
    /// back whole, yields.
    pub fn ptr_eq(a: &DenseSnap, b: &DenseSnap) -> bool {
        Arc::ptr_eq(&a.rope, &b.rope)
    }
}

impl PartialEq for DenseSnap {
    fn eq(&self, other: &DenseSnap) -> bool {
        self.len == other.len
            && self
                .page_handles()
                .iter()
                .zip(other.page_handles())
                .all(|(a, b)| Page::ptr_eq(a, b) || a[..] == b[..])
    }
}

impl fmt::Debug for DenseSnap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DenseSnap({} bytes, {} pages)",
            self.len,
            self.rope.pages.len()
        )
    }
}

/// Per-region dirty-page summary emitted alongside a tracked snapshot:
/// which [`PAGE`]-granular pages were copied (dirty since the committed
/// base epoch) vs shared. Advisory metadata: a consumer may price work by
/// it (`CompressingStore` charges compress CPU for dirty pages only) but
/// must not take content from it — a clean claim is not checked against
/// the bytes. Clean pages are shared with the base snapshot, so their
/// memoized digests are already known.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionDirty {
    /// Start address of the region this summary describes.
    pub start: u64,
    /// Identity of the address-space incarnation that produced the
    /// snapshot (stable across deterministic re-runs, distinct across
    /// restart incarnations).
    pub lineage: u64,
    /// Epoch stamp of this snapshot.
    pub seq: u64,
    /// Epoch stamp of the committed base the dirty bits diff against;
    /// `None` means no base existed (every page was copied).
    pub base_seq: Option<u64>,
    /// Total [`PAGE`]-sized pages in the region.
    pub page_count: u64,
    /// Dirty bitmap, one bit per page (set = copied). May be shorter than
    /// `page_count / 64` words; missing words read as clean.
    pub pages: Vec<u64>,
}

impl RegionDirty {
    /// Whether page `i` was dirty (copied) in this snapshot.
    pub fn is_dirty(&self, i: usize) -> bool {
        self.base_seq.is_none() || bit_get(&self.pages, i)
    }

    /// Number of dirty pages.
    pub fn dirty_pages(&self) -> u64 {
        if self.base_seq.is_none() {
            self.page_count
        } else {
            self.pages.iter().map(|w| w.count_ones() as u64).sum()
        }
    }
}

/// Copy-traffic accounting for one [`AddressSpace::snapshot_half_tracked`]
/// call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Bytes memcpy'd out of live buffers into frozen snapshot pages.
    pub bytes_copied: u64,
    /// Pages copied (dirty since the committed base epoch, or without a
    /// base).
    pub dirty_pages: u64,
    /// Pages shared with the committed base epoch (zero bytes moved).
    pub clean_pages_shared: u64,
}

/// A tracked snapshot of one half: the region snapshots, their dirty
/// summaries (dense regions only), and the copy-traffic stats.
#[derive(Clone, Debug, Default)]
pub struct HalfSnapshot {
    /// Region snapshots, ordered by address.
    pub regions: Vec<RegionSnapshot>,
    /// Dirty summaries for the dense regions, same order.
    pub dirty: Vec<RegionDirty>,
    /// Copy accounting for this call.
    pub stats: SnapshotStats,
}

struct BrkState {
    owner: Half,
    cur: u64,
}

struct Inner {
    regions: BTreeMap<u64, Region>,
    lower_cursor: u64,
    upper_mmap_cursor: u64,
    brk: Option<BrkState>,
    /// Monotone snapshot-epoch counter (one tick per tracked snapshot).
    snap_seq: u64,
    /// Incarnation identity stamped into dirty summaries (set by the
    /// runner/restart engine; 0 for bare address spaces).
    lineage: u64,
}

/// A simulated process address space, shared between the rank's main thread
/// and its checkpoint helper thread.
pub struct AddressSpace {
    inner: Mutex<Inner>,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

fn page_up(v: u64) -> u64 {
    v.div_ceil(PAGE) * PAGE
}

impl AddressSpace {
    /// Fresh, empty address space.
    pub fn new() -> AddressSpace {
        AddressSpace {
            inner: Mutex::new(Inner {
                regions: BTreeMap::new(),
                lower_cursor: LOWER_BASE,
                upper_mmap_cursor: UPPER_MMAP_TOP,
                brk: None,
                snap_seq: 0,
                lineage: 0,
            }),
        }
    }

    /// Base address used for the application text segment.
    pub fn upper_text_base() -> u64 {
        UPPER_TEXT_BASE
    }

    /// Map a region at an allocator-chosen address. Lower-half regions come
    /// from the low arena (mimicking a secondary program load), upper-half
    /// regions from the high mmap arena growing downwards.
    pub fn map(
        &self,
        half: Half,
        kind: RegionKind,
        name: &str,
        len: u64,
        backing: Backing,
    ) -> Result<u64, MemError> {
        let alen = page_up(len.max(1));
        let mut inner = self.inner.lock();
        let start = match half {
            Half::Lower => {
                let s = inner.lower_cursor;
                if s + alen > LOWER_LIMIT {
                    return Err(MemError::OutOfArena(kind));
                }
                inner.lower_cursor = s + alen + PAGE; // guard page
                s
            }
            Half::Upper => {
                let s = inner
                    .upper_mmap_cursor
                    .checked_sub(alen + PAGE)
                    .ok_or(MemError::OutOfArena(kind))?;
                if s < UPPER_MMAP_BOTTOM {
                    return Err(MemError::OutOfArena(kind));
                }
                inner.upper_mmap_cursor = s;
                s
            }
        };
        Self::insert(&mut inner, start, len, half, kind, name, backing)?;
        Ok(start)
    }

    /// Map a region at a fixed address (used by restore and by the brk
    /// heap). Fails on overlap.
    pub fn map_fixed(
        &self,
        start: u64,
        half: Half,
        kind: RegionKind,
        name: &str,
        len: u64,
        backing: Backing,
    ) -> Result<(), MemError> {
        let mut inner = self.inner.lock();
        Self::insert(&mut inner, start, len, half, kind, name, backing)?;
        Ok(())
    }

    fn insert(
        inner: &mut Inner,
        start: u64,
        len: u64,
        half: Half,
        kind: RegionKind,
        name: &str,
        backing: Backing,
    ) -> Result<(), MemError> {
        match &backing {
            Backing::Dense(b) => {
                assert_eq!(b.len() as u64, len, "dense backing must match length")
            }
            Backing::Frozen(rope) => {
                assert_eq!(rope.len() as u64, len, "frozen backing must match length")
            }
            Backing::Pattern { .. } => {}
        }
        let end = start + len.max(1);
        // Overlap check against predecessor and successors.
        if let Some((_, r)) = inner.regions.range(..start + 1).next_back() {
            if r.start + r.len > start {
                return Err(MemError::Collision {
                    at: start,
                    existing: r.name.clone(),
                });
            }
        }
        if let Some((_, r)) = inner.regions.range(start..).next() {
            if r.start < end {
                return Err(MemError::Collision {
                    at: start,
                    existing: r.name.clone(),
                });
            }
        }
        inner.regions.insert(
            start,
            Region {
                start,
                len,
                half,
                kind,
                name: name.to_string(),
                backing,
                // Fresh regions have no committed epoch: the first
                // snapshot copies every page.
                track: Track::default(),
            },
        );
        Ok(())
    }

    /// Discard every region belonging to `half`. Returns (regions, logical
    /// bytes) removed. This is the checkpoint-time "drop the ephemeral MPI
    /// library" operation and the restart-time "clear the stale upper half"
    /// operation.
    pub fn discard_half(&self, half: Half) -> (usize, u64) {
        let mut inner = self.inner.lock();
        let doomed: Vec<u64> = inner
            .regions
            .values()
            .filter(|r| r.half == half)
            .map(|r| r.start)
            .collect();
        let mut bytes = 0;
        for s in &doomed {
            if let Some(r) = inner.regions.remove(s) {
                bytes += r.len;
            }
        }
        if inner.brk.as_ref().is_some_and(|b| b.owner == half) {
            inner.brk = None;
        }
        if half == Half::Lower {
            inner.lower_cursor = LOWER_BASE;
        }
        (doomed.len(), bytes)
    }

    /// Declare the owner of the program break (the kernel concept: whichever
    /// program image the kernel loaded owns `brk`). Called once per process
    /// incarnation.
    pub fn set_brk_owner(&self, half: Half) {
        let mut inner = self.inner.lock();
        assert!(inner.brk.is_none(), "brk owner already set");
        inner.brk = Some(BrkState {
            owner: half,
            cur: BRK_BASE,
        });
    }

    /// Grow the program break by `delta` bytes on behalf of `half`.
    ///
    /// Returns the previous break (the base of the new allocation). Fails if
    /// `half` does not own the break — the situation MANA's `sbrk`
    /// interposition exists to avoid (paper §2.1).
    pub fn sbrk(&self, half: Half, delta: u64) -> Result<u64, MemError> {
        let mut inner = self.inner.lock();
        let brk = inner.brk.as_mut().ok_or(MemError::BadAddress(BRK_BASE))?;
        if brk.owner != half {
            return Err(MemError::BrkOwnedByOtherHalf { owner: brk.owner });
        }
        let old = brk.cur;
        let new = old + delta;
        if new > BRK_LIMIT {
            return Err(MemError::OutOfArena(RegionKind::Heap));
        }
        brk.cur = new;
        let owner = brk.owner;
        // Grow (or create) the heap region.
        if let Some(r) = inner.regions.get_mut(&BRK_BASE) {
            let old_len = r.len;
            r.len = new - BRK_BASE;
            // A restored-but-untouched heap must materialize before it
            // can grow.
            r.thaw();
            if let Backing::Dense(b) = &mut r.backing {
                b.grow((new - BRK_BASE) as usize);
                // The extension pages are new content (the length change
                // also invalidates the committed epoch at snapshot time).
                r.track.mark(r.start, r.start + old_len, r.len - old_len);
            }
            Ok(old)
        } else {
            Self::insert(
                &mut inner,
                BRK_BASE,
                new - BRK_BASE,
                owner,
                RegionKind::Heap,
                "[heap]",
                Backing::Dense(DenseBuf::zeroed((new - BRK_BASE) as usize)),
            )?;
            Ok(old)
        }
    }

    /// Run `f` over an immutable typed view of `count` elements at `addr`.
    pub fn with_slice<T: Pod, R>(
        &self,
        addr: u64,
        count: usize,
        f: impl FnOnce(&[T]) -> R,
    ) -> Result<R, MemError> {
        let mut inner = self.inner.lock();
        let bytes = Self::dense_window(
            &mut inner,
            addr,
            (count * std::mem::size_of::<T>()) as u64,
            std::mem::align_of::<T>() as u64,
        )?;
        Ok(f(cast_slice(bytes)))
    }

    /// Run `f` over a mutable typed view of `count` elements at `addr`.
    pub fn with_slice_mut<T: Pod, R>(
        &self,
        addr: u64,
        count: usize,
        f: impl FnOnce(&mut [T]) -> R,
    ) -> Result<R, MemError> {
        let mut inner = self.inner.lock();
        let bytes = Self::dense_window_mut(
            &mut inner,
            addr,
            (count * std::mem::size_of::<T>()) as u64,
            std::mem::align_of::<T>() as u64,
        )?;
        Ok(f(cast_slice_mut(bytes)))
    }

    fn locate(inner: &Inner, addr: u64, len: u64) -> Result<u64, MemError> {
        let (start, r) = inner
            .regions
            .range(..=addr)
            .next_back()
            .ok_or(MemError::BadAddress(addr))?;
        if addr + len > r.start + r.len {
            return Err(MemError::BadAddress(addr));
        }
        Ok(*start)
    }

    fn dense_window(inner: &mut Inner, addr: u64, len: u64, align: u64) -> Result<&[u8], MemError> {
        let start = Self::locate(inner, addr, len)?;
        let r = inner.regions.get_mut(&start).expect("located region");
        let off = (addr - r.start) as usize;
        if !(off as u64).is_multiple_of(align) {
            return Err(MemError::Misaligned(addr));
        }
        let n = len as usize;
        // A frozen region serves a within-one-page window straight from
        // its rope page; a page-straddling read thaws it.
        if matches!(r.backing, Backing::Frozen(_))
            && n > 0
            && (off + n - 1) / PAGE as usize != off / PAGE as usize
        {
            r.thaw();
        }
        match &r.backing {
            Backing::Dense(b) => Ok(&b.as_bytes()[off..off + n]),
            Backing::Frozen(rope) => {
                if n == 0 {
                    return Ok(&[]);
                }
                let p = off / PAGE as usize;
                let in_page = off - p * PAGE as usize;
                Ok(&rope.page(p)[in_page..in_page + n])
            }
            Backing::Pattern { .. } => Err(MemError::NotDense(addr)),
        }
    }

    fn dense_window_mut(
        inner: &mut Inner,
        addr: u64,
        len: u64,
        align: u64,
    ) -> Result<&mut [u8], MemError> {
        let start = Self::locate(inner, addr, len)?;
        let r = inner.regions.get_mut(&start).expect("located region");
        // A write is the end of a frozen region's zero-copy life.
        r.thaw();
        match &mut r.backing {
            Backing::Dense(b) => {
                let off = (addr - r.start) as usize;
                if !(off as u64).is_multiple_of(align) {
                    return Err(MemError::Misaligned(addr));
                }
                // Every mutable window funnels through here
                // (`with_slice_mut`, `with2_mut`/`with3_mut`,
                // `write_bytes`): mark the covered pages dirty.
                r.track.mark(r.start, addr, len);
                Ok(&mut b.as_bytes_mut()[off..off + len as usize])
            }
            Backing::Frozen(_) => unreachable!("thawed above"),
            Backing::Pattern { .. } => Err(MemError::NotDense(addr)),
        }
    }

    /// Run `f` over two disjoint mutable typed windows (e.g. `y += a*x`
    /// kernels). Panics if the windows share a region.
    pub fn with2_mut<A: Pod, B: Pod, R>(
        &self,
        a: (u64, usize),
        b: (u64, usize),
        f: impl FnOnce(&mut [A], &mut [B]) -> R,
    ) -> Result<R, MemError> {
        let mut inner = self.inner.lock();
        let ra = Self::locate(&inner, a.0, (a.1 * std::mem::size_of::<A>()) as u64)?;
        let rb = Self::locate(&inner, b.0, (b.1 * std::mem::size_of::<B>()) as u64)?;
        assert_ne!(ra, rb, "with2_mut windows must be in distinct regions");
        // SAFETY: the two windows live in distinct regions (asserted), both
        // borrowed mutably under the single address-space lock, so the raw
        // pointers cannot alias.
        let pa: *mut [u8] = Self::dense_window_mut(
            &mut inner,
            a.0,
            (a.1 * std::mem::size_of::<A>()) as u64,
            std::mem::align_of::<A>() as u64,
        )?;
        let pb: *mut [u8] = Self::dense_window_mut(
            &mut inner,
            b.0,
            (b.1 * std::mem::size_of::<B>()) as u64,
            std::mem::align_of::<B>() as u64,
        )?;
        let (sa, sb) = unsafe { (&mut *pa, &mut *pb) };
        Ok(f(cast_slice_mut(sa), cast_slice_mut(sb)))
    }

    /// Run `f` over three disjoint mutable typed windows.
    pub fn with3_mut<A: Pod, B: Pod, C: Pod, R>(
        &self,
        a: (u64, usize),
        b: (u64, usize),
        c: (u64, usize),
        f: impl FnOnce(&mut [A], &mut [B], &mut [C]) -> R,
    ) -> Result<R, MemError> {
        let mut inner = self.inner.lock();
        let ra = Self::locate(&inner, a.0, (a.1 * std::mem::size_of::<A>()) as u64)?;
        let rb = Self::locate(&inner, b.0, (b.1 * std::mem::size_of::<B>()) as u64)?;
        let rc = Self::locate(&inner, c.0, (c.1 * std::mem::size_of::<C>()) as u64)?;
        assert!(
            ra != rb && rb != rc && ra != rc,
            "with3_mut windows must be in distinct regions"
        );
        // SAFETY: as in `with2_mut` — distinct regions, single lock.
        let pa: *mut [u8] = Self::dense_window_mut(
            &mut inner,
            a.0,
            (a.1 * std::mem::size_of::<A>()) as u64,
            std::mem::align_of::<A>() as u64,
        )?;
        let pb: *mut [u8] = Self::dense_window_mut(
            &mut inner,
            b.0,
            (b.1 * std::mem::size_of::<B>()) as u64,
            std::mem::align_of::<B>() as u64,
        )?;
        let pc: *mut [u8] = Self::dense_window_mut(
            &mut inner,
            c.0,
            (c.1 * std::mem::size_of::<C>()) as u64,
            std::mem::align_of::<C>() as u64,
        )?;
        let (sa, sb, sc) = unsafe { (&mut *pa, &mut *pb, &mut *pc) };
        Ok(f(
            cast_slice_mut(sa),
            cast_slice_mut(sb),
            cast_slice_mut(sc),
        ))
    }

    /// Current upper mmap arena cursor (saved in checkpoint images so that
    /// post-restart allocations continue below the restored regions).
    pub fn upper_mmap_cursor(&self) -> u64 {
        self.inner.lock().upper_mmap_cursor
    }

    /// Restore the upper mmap arena cursor (restart path).
    pub fn set_upper_mmap_cursor(&self, v: u64) {
        self.inner.lock().upper_mmap_cursor = v;
    }

    /// Run `f` over a borrowed byte window of a dense region — the
    /// zero-allocation reading path. The address-space lock is held for
    /// the duration of `f`, so `f` must not block (no simulated waits, no
    /// re-entrant address-space calls); use [`read_bytes`] when the bytes
    /// must outlive the call (e.g. across a blocking MPI operation).
    ///
    /// [`read_bytes`]: AddressSpace::read_bytes
    pub fn with_bytes<R>(
        &self,
        addr: u64,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, MemError> {
        let mut inner = self.inner.lock();
        Ok(f(Self::dense_window(&mut inner, addr, len as u64, 1)?))
    }

    /// Copy bytes out of a dense region (allocates; prefer
    /// [`with_bytes`](AddressSpace::with_bytes) when a borrow suffices).
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemError> {
        self.with_bytes(addr, len, <[u8]>::to_vec)
    }

    /// Copy bytes into a dense region.
    pub fn write_bytes(&self, addr: u64, bytes: &[u8]) -> Result<(), MemError> {
        let mut inner = self.inner.lock();
        Self::dense_window_mut(&mut inner, addr, bytes.len() as u64, 1)?.copy_from_slice(bytes);
        Ok(())
    }

    /// Metadata for all regions, ordered by address.
    pub fn regions_meta(&self) -> Vec<RegionMeta> {
        let inner = self.inner.lock();
        inner
            .regions
            .values()
            .map(|r| RegionMeta {
                start: r.start,
                len: r.len,
                half: r.half,
                kind: r.kind,
                name: r.name.clone(),
                dense: matches!(r.backing, Backing::Dense(_) | Backing::Frozen(_)),
            })
            .collect()
    }

    /// Total logical bytes mapped for `half`.
    pub fn bytes_of_half(&self, half: Half) -> u64 {
        let inner = self.inner.lock();
        inner
            .regions
            .values()
            .filter(|r| r.half == half)
            .map(|r| r.len)
            .sum()
    }

    /// Total logical bytes for `half` restricted to `kind`.
    pub fn bytes_of_kind(&self, half: Half, kind: RegionKind) -> u64 {
        let inner = self.inner.lock();
        inner
            .regions
            .values()
            .filter(|r| r.half == half && r.kind == kind)
            .map(|r| r.len)
            .sum()
    }

    /// Snapshot every region of `half` (checkpoint path: `half == Upper`).
    /// Copy-on-write: equivalent to
    /// [`snapshot_half_tracked`](AddressSpace::snapshot_half_tracked) with
    /// the dirty summaries and stats discarded.
    pub fn snapshot_half(&self, half: Half) -> Vec<RegionSnapshot> {
        self.snapshot_half_tracked(half).regions
    }

    /// Snapshot every region of `half`, copying only pages dirtied since
    /// the last *committed* snapshot epoch and sharing the rest of the
    /// frozen content (shared [`Page`]s). The returned
    /// [`HalfSnapshot`] carries per-region dirty summaries and copy
    /// accounting. The snapshot is *staged*: call
    /// [`clear_dirty`](AddressSpace::clear_dirty) at checkpoint commit to
    /// make it the new base epoch. An uncommitted (aborted) snapshot is
    /// harmless — the next snapshot folds its dirty set back in and diffs
    /// against the still-committed base.
    pub fn snapshot_half_tracked(&self, half: Half) -> HalfSnapshot {
        self.snapshot_half_with(half, false)
    }

    /// [`snapshot_half_tracked`](AddressSpace::snapshot_half_tracked)
    /// for a checkpoint the process does not outlive: each dense region
    /// becomes [`Backing::Frozen`] over its own snapshot rope as soon as
    /// it is copied, and its live buffer is dropped before the next
    /// region is copied. The half then holds its content once, not twice,
    /// and peaks at one region's copy above it. The snapshot, dirty
    /// summaries and stats equal the unfreezing call's; a process that
    /// does run on after all (an aborted round) thaws each region on its
    /// first write.
    pub fn snapshot_half_freezing(&self, half: Half) -> HalfSnapshot {
        self.snapshot_half_with(half, true)
    }

    fn snapshot_half_with(&self, half: Half, freeze: bool) -> HalfSnapshot {
        let mut inner = self.inner.lock();
        inner.snap_seq += 1;
        let seq = inner.snap_seq;
        let lineage = inner.lineage;
        let mut out = HalfSnapshot {
            regions: Vec::new(),
            dirty: Vec::new(),
            stats: SnapshotStats::default(),
        };
        for r in inner.regions.values_mut().filter(|r| r.half == half) {
            // A snapshot that was never committed still holds pages newer
            // than the committed base: fold its dirty set back into the
            // live bitmap before diffing.
            if let Some(st) = r.track.staged.take() {
                bits_or_into(&mut r.track.dirty, &st.dirty_at_snap);
            }
            let content = match &r.backing {
                Backing::Pattern { seed } => SnapshotContent::Pattern { seed: *seed },
                Backing::Frozen(rope) => {
                    // Still frozen means never written since the rope was
                    // installed (a write thaws): the snapshot *is* the
                    // rope, every page shared, zero bytes copied. A rope
                    // from restore is the committed base itself, so its
                    // folded bits are empty. A rope from a freezing
                    // snapshot whose round never committed is ahead of
                    // the base by exactly the folded bits: report them.
                    let npages = rope.page_count();
                    let base_ok = r
                        .track
                        .committed
                        .as_ref()
                        .is_some_and(|c| c.len() == rope.len());
                    let mut pages = r.track.dirty.clone();
                    pages.resize(bitmap_words(npages), 0);
                    let summary = RegionDirty {
                        start: r.start,
                        lineage,
                        seq,
                        base_seq: base_ok.then_some(r.track.committed_seq),
                        page_count: npages as u64,
                        pages,
                    };
                    let dirty = summary.dirty_pages();
                    out.stats.dirty_pages += dirty;
                    out.stats.clean_pages_shared += npages as u64 - dirty;
                    out.dirty.push(summary);
                    let rope = rope.clone();
                    r.track.staged = Some(Staged {
                        rope: rope.clone(),
                        dirty_at_snap: std::mem::take(&mut r.track.dirty),
                        seq,
                    });
                    SnapshotContent::Dense(rope)
                }
                Backing::Dense(b) => {
                    let bytes = b.as_bytes();
                    let npages = pages_of_len(bytes.len());
                    // A committed epoch is only a usable base when the
                    // region length is unchanged (growth remaps pages).
                    let base = r
                        .track
                        .committed
                        .as_ref()
                        .filter(|c| c.len() == bytes.len())
                        .cloned();
                    let mut pages = Vec::with_capacity(npages);
                    let mut copied_bits = vec![0u64; bitmap_words(npages)];
                    for p in 0..npages {
                        let lo = p * PAGE as usize;
                        let hi = (lo + PAGE as usize).min(bytes.len());
                        match &base {
                            Some(c) if !bit_get(&r.track.dirty, p) => {
                                out.stats.clean_pages_shared += 1;
                                pages.push(c.page_handle(p));
                            }
                            _ => {
                                out.stats.bytes_copied += (hi - lo) as u64;
                                out.stats.dirty_pages += 1;
                                bit_set(&mut copied_bits, p);
                                pages.push(Page::from(&bytes[lo..hi]));
                            }
                        }
                    }
                    let rope = DenseSnap::new(bytes.len(), pages);
                    out.dirty.push(RegionDirty {
                        start: r.start,
                        lineage,
                        seq,
                        base_seq: base.as_ref().map(|_| r.track.committed_seq),
                        page_count: npages as u64,
                        pages: copied_bits,
                    });
                    r.track.staged = Some(Staged {
                        rope: rope.clone(),
                        dirty_at_snap: std::mem::take(&mut r.track.dirty),
                        seq,
                    });
                    if freeze {
                        // Drops the live buffer: the rope is the content now.
                        r.backing = Backing::Frozen(rope.clone());
                    }
                    SnapshotContent::Dense(rope)
                }
            };
            out.regions.push(RegionSnapshot {
                start: r.start,
                len: r.len,
                half: r.half,
                kind: r.kind,
                name: r.name.clone(),
                content,
            });
        }
        out
    }

    /// Reference full-copy snapshot: every dense byte copied, no sharing,
    /// no dirty-state side effects. Exists so tests can prove the tracked
    /// path observationally identical to a from-scratch copy.
    pub fn snapshot_half_full(&self, half: Half) -> Vec<RegionSnapshot> {
        let inner = self.inner.lock();
        inner
            .regions
            .values()
            .filter(|r| r.half == half)
            .map(|r| RegionSnapshot {
                start: r.start,
                len: r.len,
                half: r.half,
                kind: r.kind,
                name: r.name.clone(),
                content: match &r.backing {
                    Backing::Dense(b) => {
                        SnapshotContent::Dense(DenseSnap::from_bytes(b.as_bytes()))
                    }
                    Backing::Frozen(rope) => {
                        SnapshotContent::Dense(DenseSnap::from_vec(rope.to_vec()))
                    }
                    Backing::Pattern { seed } => SnapshotContent::Pattern { seed: *seed },
                },
            })
            .collect()
    }

    /// Commit the most recent tracked snapshot of `half` as the new base
    /// epoch: subsequent snapshots copy only pages dirtied after *that
    /// snapshot was taken*. Called at checkpoint commit (after the image
    /// write lands). Writes that raced in between snapshot and commit are
    /// preserved — they live in the post-snapshot dirty bitmap.
    pub fn clear_dirty(&self, half: Half) {
        let mut inner = self.inner.lock();
        for r in inner.regions.values_mut().filter(|r| r.half == half) {
            if let Some(st) = r.track.staged.take() {
                r.track.committed = Some(st.rope);
                r.track.committed_seq = st.seq;
            }
        }
    }

    /// Stamp the incarnation identity carried by dirty summaries (set by
    /// the runner at launch and by the restart engine per incarnation;
    /// defaults to 0 for bare address spaces).
    pub fn set_lineage(&self, lineage: u64) {
        self.inner.lock().lineage = lineage;
    }

    /// The incarnation identity stamped into dirty summaries.
    pub fn lineage(&self) -> u64 {
        self.inner.lock().lineage
    }

    /// Map a snapshot back in at its original address (restart path).
    /// The restored frozen content seeds the region's committed epoch, so
    /// the first post-restart checkpoint copies only pages the
    /// application touched since restart.
    pub fn restore_region(&self, snap: &RegionSnapshot) -> Result<(), MemError> {
        let (backing, committed) = match &snap.content {
            // Install the frozen rope directly — zero page copies, and
            // each clone is one count bump on the shared page list. The
            // region materializes lazily on its first write or
            // multi-page read.
            SnapshotContent::Dense(rope) => (Backing::Frozen(rope.clone()), Some(rope.clone())),
            SnapshotContent::Pattern { seed } => (Backing::Pattern { seed: *seed }, None),
        };
        let mut inner = self.inner.lock();
        Self::insert(
            &mut inner, snap.start, snap.len, snap.half, snap.kind, &snap.name, backing,
        )?;
        if let Some(rope) = committed {
            let r = inner.regions.get_mut(&snap.start).expect("just inserted");
            // Epoch 0 is reserved for restored content: never assigned by
            // `snapshot_half_tracked` (which starts at 1), so a restored
            // base can only match within this incarnation's lineage.
            r.track.committed = Some(rope);
            r.track.committed_seq = 0;
        }
        Ok(())
    }

    /// Order-sensitive checksum over all regions of `half` (dense content by
    /// bytes, pattern content by its O(1) descriptor checksum). Used to
    /// verify bit-fidelity across checkpoint/restart.
    pub fn checksum_half(&self, half: Half) -> u64 {
        let inner = self.inner.lock();
        let mut c = Checksum::new();
        for r in inner.regions.values().filter(|r| r.half == half) {
            c.update_u64(r.start);
            c.update_u64(r.len);
            match &r.backing {
                Backing::Dense(b) => c.update(b.as_bytes()),
                Backing::Frozen(rope) => {
                    // Streamed page-by-page: the checksum is chunk-split
                    // insensitive, so this equals the flat digest.
                    for p in rope.pages() {
                        c.update(p);
                    }
                }
                Backing::Pattern { seed } => c.update_u64(pattern_checksum(*seed, r.len)),
            }
        }
        c.digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(n: usize) -> Backing {
        Backing::Dense(DenseBuf::zeroed(n))
    }

    #[test]
    fn map_and_access() {
        let a = AddressSpace::new();
        let addr = a
            .map(Half::Upper, RegionKind::Mmap, "arr", 64, dense(64))
            .unwrap();
        a.with_slice_mut::<f64, _>(addr, 8, |s| {
            for (i, v) in s.iter_mut().enumerate() {
                *v = i as f64;
            }
        })
        .unwrap();
        let sum = a
            .with_slice::<f64, _>(addr, 8, |s| s.iter().sum::<f64>())
            .unwrap();
        assert_eq!(sum, 28.0);
    }

    #[test]
    fn halves_are_disjoint_and_discardable() {
        let a = AddressSpace::new();
        a.map(
            Half::Lower,
            RegionKind::Text,
            "libmpi.so",
            26 << 20,
            Backing::Pattern { seed: 1 },
        )
        .unwrap();
        a.map(
            Half::Lower,
            RegionKind::Shm,
            "xpmem",
            2 << 20,
            Backing::Pattern { seed: 2 },
        )
        .unwrap();
        let up = a
            .map(Half::Upper, RegionKind::Mmap, "state", 128, dense(128))
            .unwrap();
        assert_eq!(a.bytes_of_half(Half::Lower), (26 << 20) + (2 << 20));
        let (n, bytes) = a.discard_half(Half::Lower);
        assert_eq!(n, 2);
        assert_eq!(bytes, (26 << 20) + (2 << 20));
        assert_eq!(a.bytes_of_half(Half::Lower), 0);
        // Upper half untouched.
        a.with_slice::<u8, _>(up, 128, |s| assert_eq!(s.len(), 128))
            .unwrap();
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let a = AddressSpace::new();
        let addr = a
            .map(Half::Upper, RegionKind::Mmap, "data", 32, dense(32))
            .unwrap();
        a.write_bytes(addr, &[7u8; 32]).unwrap();
        a.map(
            Half::Upper,
            RegionKind::Mmap,
            "bulk",
            1 << 20,
            Backing::Pattern { seed: 9 },
        )
        .unwrap();
        let before = a.checksum_half(Half::Upper);
        let snaps = a.snapshot_half(Half::Upper);
        assert_eq!(snaps.len(), 2);

        let b = AddressSpace::new();
        for s in &snaps {
            b.restore_region(s).unwrap();
        }
        assert_eq!(b.checksum_half(Half::Upper), before);
        assert_eq!(b.read_bytes(addr, 32).unwrap(), vec![7u8; 32]);
    }

    #[test]
    fn overlap_rejected() {
        let a = AddressSpace::new();
        a.map_fixed(
            0x1000,
            Half::Upper,
            RegionKind::Data,
            "a",
            4096,
            dense(4096),
        )
        .unwrap();
        let err = a
            .map_fixed(0x1800, Half::Upper, RegionKind::Data, "b", 16, dense(16))
            .unwrap_err();
        assert!(matches!(err, MemError::Collision { .. }));
        // Also when the new region would swallow an existing one.
        let err = a
            .map_fixed(
                0x0800,
                Half::Upper,
                RegionKind::Data,
                "c",
                8192,
                dense(8192),
            )
            .unwrap_err();
        assert!(matches!(err, MemError::Collision { .. }));
    }

    #[test]
    fn sbrk_ownership() {
        let a = AddressSpace::new();
        a.set_brk_owner(Half::Upper);
        let base = a.sbrk(Half::Upper, 4096).unwrap();
        a.write_bytes(base, &[1u8; 16]).unwrap();
        // Lower half cannot move the break.
        let err = a.sbrk(Half::Lower, 4096).unwrap_err();
        assert_eq!(err, MemError::BrkOwnedByOtherHalf { owner: Half::Upper });
        // Growth preserves content.
        let b2 = a.sbrk(Half::Upper, 4096).unwrap();
        assert_eq!(b2, base + 4096);
        assert_eq!(a.read_bytes(base, 16).unwrap(), vec![1u8; 16]);
    }

    #[test]
    fn brk_owner_resets_on_discard() {
        let a = AddressSpace::new();
        a.set_brk_owner(Half::Lower);
        a.sbrk(Half::Lower, 4096).unwrap();
        a.discard_half(Half::Lower);
        // A fresh incarnation may claim the break again.
        a.set_brk_owner(Half::Lower);
        a.sbrk(Half::Lower, 64).unwrap();
    }

    #[test]
    fn pattern_regions_not_dense() {
        let a = AddressSpace::new();
        let addr = a
            .map(
                Half::Upper,
                RegionKind::Mmap,
                "bulk",
                4096,
                Backing::Pattern { seed: 3 },
            )
            .unwrap();
        assert_eq!(a.read_bytes(addr, 8).unwrap_err(), MemError::NotDense(addr));
    }

    #[test]
    fn pattern_functions_deterministic() {
        assert_eq!(pattern_byte(5, 123), pattern_byte(5, 123));
        assert_ne!(pattern_checksum(5, 100), pattern_checksum(5, 101));
        assert_ne!(pattern_checksum(5, 100), pattern_checksum(6, 100));
    }

    #[test]
    fn kind_accounting() {
        let a = AddressSpace::new();
        a.map(
            Half::Lower,
            RegionKind::Text,
            "t",
            100,
            Backing::Pattern { seed: 0 },
        )
        .unwrap();
        a.map(
            Half::Lower,
            RegionKind::Shm,
            "s",
            200,
            Backing::Pattern { seed: 0 },
        )
        .unwrap();
        assert_eq!(a.bytes_of_kind(Half::Lower, RegionKind::Text), 100);
        assert_eq!(a.bytes_of_kind(Half::Lower, RegionKind::Shm), 200);
        assert_eq!(a.bytes_of_kind(Half::Upper, RegionKind::Text), 0);
    }

    fn dense_of(s: &RegionSnapshot) -> &DenseSnap {
        match &s.content {
            SnapshotContent::Dense(d) => d,
            SnapshotContent::Pattern { .. } => panic!("expected dense content"),
        }
    }

    #[test]
    fn clean_epoch_shares_every_page() {
        let a = AddressSpace::new();
        let addr = a
            .map(
                Half::Upper,
                RegionKind::Mmap,
                "d",
                8 * PAGE,
                dense(8 * PAGE as usize),
            )
            .unwrap();
        a.write_bytes(addr, &[5u8; 64]).unwrap();
        let s1 = a.snapshot_half_tracked(Half::Upper);
        assert_eq!(s1.stats.dirty_pages, 8, "first snapshot copies everything");
        assert_eq!(s1.stats.bytes_copied, 8 * PAGE);
        a.clear_dirty(Half::Upper);

        let s2 = a.snapshot_half_tracked(Half::Upper);
        assert_eq!(s2.stats.bytes_copied, 0, "clean epoch copies nothing");
        assert_eq!(s2.stats.clean_pages_shared, 8);
        let (d1, d2) = (dense_of(&s1.regions[0]), dense_of(&s2.regions[0]));
        for p in 0..8 {
            assert!(d1.shares_page(d2, p), "page {p} not shared");
        }
        assert_eq!(d1, d2);
    }

    #[test]
    fn one_write_copies_one_page() {
        let a = AddressSpace::new();
        let addr = a
            .map(
                Half::Upper,
                RegionKind::Mmap,
                "d",
                8 * PAGE,
                dense(8 * PAGE as usize),
            )
            .unwrap();
        let s1 = a.snapshot_half_tracked(Half::Upper);
        a.clear_dirty(Half::Upper);
        a.write_bytes(addr + 3 * PAGE + 17, &[9u8; 4]).unwrap();
        let s2 = a.snapshot_half_tracked(Half::Upper);
        assert_eq!(s2.stats.dirty_pages, 1);
        assert_eq!(s2.stats.bytes_copied, PAGE);
        assert_eq!(s2.stats.clean_pages_shared, 7);
        let (d1, d2) = (dense_of(&s1.regions[0]), dense_of(&s2.regions[0]));
        assert!(!d1.shares_page(d2, 3));
        assert!(d1.shares_page(d2, 0) && d1.shares_page(d2, 7));
        // Summary reflects exactly the copied page.
        let summary = &s2.dirty[0];
        assert_eq!(summary.base_seq, Some(s1.dirty[0].seq));
        assert_eq!(summary.dirty_pages(), 1);
        assert!(summary.is_dirty(3) && !summary.is_dirty(0));
        // Content matches a from-scratch copy.
        assert_eq!(d2.to_vec(), a.read_bytes(addr, 8 * PAGE as usize).unwrap());
    }

    #[test]
    fn aborted_snapshot_folds_dirty_back() {
        let a = AddressSpace::new();
        let addr = a
            .map(
                Half::Upper,
                RegionKind::Mmap,
                "d",
                4 * PAGE,
                dense(4 * PAGE as usize),
            )
            .unwrap();
        a.snapshot_half_tracked(Half::Upper);
        a.clear_dirty(Half::Upper);
        a.write_bytes(addr + PAGE, &[1u8; 8]).unwrap();
        // Snapshot taken but never committed (aborted checkpoint).
        let aborted = a.snapshot_half_tracked(Half::Upper);
        assert_eq!(aborted.stats.dirty_pages, 1);
        a.write_bytes(addr + 2 * PAGE, &[2u8; 8]).unwrap();
        // The next snapshot must still see page 1 as dirty versus the
        // *committed* base (the aborted copy never became the base).
        let s = a.snapshot_half_tracked(Half::Upper);
        assert_eq!(s.stats.dirty_pages, 2, "aborted dirty set lost");
        assert_eq!(
            dense_of(&s.regions[0]).to_vec(),
            a.read_bytes(addr, 4 * PAGE as usize).unwrap()
        );
    }

    #[test]
    fn write_between_snapshot_and_commit_survives() {
        let a = AddressSpace::new();
        let addr = a
            .map(
                Half::Upper,
                RegionKind::Mmap,
                "d",
                2 * PAGE,
                dense(2 * PAGE as usize),
            )
            .unwrap();
        a.snapshot_half_tracked(Half::Upper);
        a.write_bytes(addr, &[7u8; 8]).unwrap(); // races the commit
        a.clear_dirty(Half::Upper);
        let s = a.snapshot_half_tracked(Half::Upper);
        assert_eq!(s.stats.dirty_pages, 1, "racing write lost at commit");
        assert_eq!(dense_of(&s.regions[0]).to_vec()[..8], [7u8; 8]);
    }

    #[test]
    fn snapshot_is_frozen_against_later_writes() {
        let a = AddressSpace::new();
        let addr = a
            .map(
                Half::Upper,
                RegionKind::Mmap,
                "d",
                2 * PAGE,
                dense(2 * PAGE as usize),
            )
            .unwrap();
        a.write_bytes(addr, &[3u8; 16]).unwrap();
        let s = a.snapshot_half_tracked(Half::Upper);
        a.clear_dirty(Half::Upper);
        a.write_bytes(addr, &[4u8; 16]).unwrap();
        // The frozen rope still holds the snapshot-time bytes even though
        // the live buffer moved on (and the committed epoch shares pages
        // with the returned snapshot).
        assert_eq!(dense_of(&s.regions[0]).to_vec()[..16], [3u8; 16]);
        let s2 = a.snapshot_half_tracked(Half::Upper);
        assert_eq!(dense_of(&s2.regions[0]).to_vec()[..16], [4u8; 16]);
    }

    #[test]
    fn growth_invalidates_the_committed_base() {
        let a = AddressSpace::new();
        a.set_brk_owner(Half::Upper);
        let base = a.sbrk(Half::Upper, PAGE).unwrap();
        a.write_bytes(base, &[1u8; 8]).unwrap();
        a.snapshot_half_tracked(Half::Upper);
        a.clear_dirty(Half::Upper);
        a.sbrk(Half::Upper, PAGE).unwrap();
        let s = a.snapshot_half_tracked(Half::Upper);
        // Length changed: the whole (grown) region is copied afresh.
        assert_eq!(s.stats.dirty_pages, 2);
        assert_eq!(s.dirty[0].base_seq, None);
        assert_eq!(dense_of(&s.regions[0]).len(), 2 * PAGE as usize);
    }

    #[test]
    fn restore_seeds_the_committed_epoch() {
        let a = AddressSpace::new();
        let addr = a
            .map(
                Half::Upper,
                RegionKind::Mmap,
                "d",
                4 * PAGE,
                dense(4 * PAGE as usize),
            )
            .unwrap();
        a.write_bytes(addr, &[6u8; 32]).unwrap();
        let snaps = a.snapshot_half(Half::Upper);

        let b = AddressSpace::new();
        for s in &snaps {
            b.restore_region(s).unwrap();
        }
        // First post-restart snapshot shares everything untouched.
        b.write_bytes(addr + PAGE, &[8u8; 8]).unwrap();
        let s = b.snapshot_half_tracked(Half::Upper);
        assert_eq!(s.stats.dirty_pages, 1);
        assert_eq!(s.stats.clean_pages_shared, 3);
        assert_eq!(s.dirty[0].base_seq, Some(0), "restored base is epoch 0");
        assert_eq!(b.checksum_half(Half::Upper), {
            a.write_bytes(addr + PAGE, &[8u8; 8]).unwrap();
            a.checksum_half(Half::Upper)
        });
    }

    #[test]
    fn restore_installs_frozen_pages_zero_copy() {
        let a = AddressSpace::new();
        let addr = a
            .map(
                Half::Upper,
                RegionKind::Mmap,
                "d",
                3 * PAGE,
                dense(3 * PAGE as usize),
            )
            .unwrap();
        a.write_bytes(addr, &[5u8; 3 * PAGE as usize]).unwrap();
        let snaps = a.snapshot_half(Half::Upper);
        let orig = match &snaps[0].content {
            SnapshotContent::Dense(r) => r.clone(),
            _ => unreachable!(),
        };

        let b = AddressSpace::new();
        b.restore_region(&snaps[0]).unwrap();

        // Single-page reads are served straight from the frozen rope and
        // do not thaw.
        assert_eq!(b.read_bytes(addr + 10, 100).unwrap(), vec![5u8; 100]);
        assert_eq!(
            b.read_bytes(addr + 2 * PAGE + 4000, 96).unwrap(),
            vec![5u8; 96]
        );

        // A checkpoint right after restore copies nothing: the emitted
        // rope pages ARE the stored pages.
        let s = b.snapshot_half_tracked(Half::Upper);
        assert_eq!(s.stats.bytes_copied, 0);
        assert_eq!(s.stats.dirty_pages, 0);
        assert_eq!(s.stats.clean_pages_shared, 3);
        assert_eq!(s.dirty[0].base_seq, Some(0));
        let rope = match &s.regions[0].content {
            SnapshotContent::Dense(r) => r,
            _ => unreachable!(),
        };
        for i in 0..orig.page_count() {
            assert!(rope.shares_page(&orig, i), "page {i} was copied");
        }

        // A page-straddling read thaws; content is bit-identical.
        let before = b.checksum_half(Half::Upper);
        assert_eq!(
            b.read_bytes(addr + PAGE - 8, 16).unwrap(),
            vec![5u8; 16],
            "straddling read"
        );
        assert_eq!(b.checksum_half(Half::Upper), before);
        assert_eq!(b.checksum_half(Half::Upper), a.checksum_half(Half::Upper));
    }

    #[test]
    fn with_bytes_borrows_without_copying() {
        let a = AddressSpace::new();
        let addr = a
            .map(Half::Upper, RegionKind::Mmap, "d", 64, dense(64))
            .unwrap();
        a.write_bytes(addr, &[1, 2, 3, 4]).unwrap();
        let sum = a
            .with_bytes(addr, 4, |b| b.iter().map(|&x| u32::from(x)).sum::<u32>())
            .unwrap();
        assert_eq!(sum, 10);
        assert_eq!(
            a.with_bytes(addr + 100, 4, |_| ()).unwrap_err(),
            MemError::BadAddress(addr + 100)
        );
        // Reads must not mark pages dirty.
        a.snapshot_half_tracked(Half::Upper);
        a.clear_dirty(Half::Upper);
        a.with_bytes(addr, 64, |_| ()).unwrap();
        let s = a.snapshot_half_tracked(Half::Upper);
        assert_eq!(s.stats.dirty_pages, 0);
    }

    #[test]
    fn tracked_equals_full_snapshot() {
        let a = AddressSpace::new();
        let addr = a
            .map(
                Half::Upper,
                RegionKind::Mmap,
                "d",
                3 * PAGE + 100,
                dense(3 * PAGE as usize + 100),
            )
            .unwrap();
        a.map(
            Half::Upper,
            RegionKind::Mmap,
            "bulk",
            1 << 20,
            Backing::Pattern { seed: 4 },
        )
        .unwrap();
        for epoch in 0..4u8 {
            a.write_bytes(addr + u64::from(epoch) * PAGE, &[epoch + 1; 32])
                .unwrap();
            let tracked = a.snapshot_half_tracked(Half::Upper);
            let full = a.snapshot_half_full(Half::Upper);
            assert_eq!(tracked.regions, full, "epoch {epoch}");
            a.clear_dirty(Half::Upper);
        }
    }

    #[test]
    fn freezing_snapshot_leaves_no_live_copy() {
        let a = AddressSpace::new();
        let addr = a
            .map(
                Half::Upper,
                RegionKind::Mmap,
                "d",
                3 * PAGE,
                dense(3 * PAGE as usize),
            )
            .unwrap();
        a.map(
            Half::Upper,
            RegionKind::Mmap,
            "tail",
            PAGE + 100,
            dense(PAGE as usize + 100),
        )
        .unwrap();
        a.map(
            Half::Upper,
            RegionKind::Mmap,
            "bulk",
            1 << 20,
            Backing::Pattern { seed: 2 },
        )
        .unwrap();
        a.write_bytes(addr + PAGE, &[4u8; 64]).unwrap();
        let before = a.checksum_half(Half::Upper);
        let s = a.snapshot_half_freezing(Half::Upper);
        assert_eq!(s.stats.bytes_copied, 4 * PAGE + 100);
        let inner = a.inner.lock();
        for (r, snap) in inner.regions.values().zip(&s.regions) {
            match (&r.backing, &snap.content) {
                (Backing::Frozen(rope), SnapshotContent::Dense(d)) => {
                    for i in 0..d.page_count() {
                        assert!(
                            Page::ptr_eq(&rope.page_handles()[i], &d.page_handles()[i]),
                            "page {i}"
                        );
                    }
                }
                (Backing::Pattern { .. }, SnapshotContent::Pattern { .. }) => {}
                (Backing::Dense(_), _) => panic!("region '{}' still dense", r.name),
                _ => panic!("region '{}' changed kind", r.name),
            }
        }
        drop(inner);
        assert_eq!(a.checksum_half(Half::Upper), before);
    }

    #[test]
    fn aborted_freeze_reports_the_pages_ahead_of_the_base() {
        let a = AddressSpace::new();
        let addr = a
            .map(
                Half::Upper,
                RegionKind::Mmap,
                "d",
                4 * PAGE,
                dense(4 * PAGE as usize),
            )
            .unwrap();
        let base = a.snapshot_half_tracked(Half::Upper);
        a.clear_dirty(Half::Upper);
        a.write_bytes(addr + PAGE, &[1u8; 8]).unwrap();
        a.write_bytes(addr + 3 * PAGE, &[3u8; 8]).unwrap();
        let frozen = a.snapshot_half_freezing(Half::Upper);
        assert_eq!(frozen.stats.dirty_pages, 2);
        // The round aborts: no `clear_dirty`. The region is still frozen,
        // and its rope holds two pages the committed base lacks.
        let s = a.snapshot_half_tracked(Half::Upper);
        let summary = &s.dirty[0];
        assert_eq!(summary.base_seq, Some(base.dirty[0].seq));
        assert_eq!(summary.dirty_pages(), 2);
        assert!(summary.is_dirty(1) && summary.is_dirty(3));
        assert!(!summary.is_dirty(0) && !summary.is_dirty(2));
        assert_eq!(s.stats.dirty_pages, 2);
        assert_eq!(s.stats.clean_pages_shared, 2);
        assert_eq!(s.stats.bytes_copied, 0, "a frozen region copies nothing");
        assert_eq!(s.regions, a.snapshot_half_full(Half::Upper));
        // The bits stay staged: committing this snapshot makes them the
        // base, and the next snapshot is clean.
        a.clear_dirty(Half::Upper);
        let next = a.snapshot_half_tracked(Half::Upper);
        assert_eq!(next.stats.dirty_pages, 0);
    }

    #[test]
    fn thaw_rebuilds_a_short_last_page() {
        let len = 2 * PAGE as usize + 13;
        let bytes: Vec<u8> = (0..len).map(|i| (i * 7 + 1) as u8).collect();
        let snap = DenseSnap::from_bytes(&bytes);
        assert_eq!(snap.page(2).len(), 13);
        let buf = DenseBuf::from_snap(&snap);
        assert_eq!(buf.len(), len);
        assert_eq!(buf.as_bytes(), &snap.to_vec()[..]);
        assert_eq!(DenseBuf::from_snap(&DenseSnap::from_bytes(&[])).len(), 0);
    }

    #[test]
    fn misaligned_typed_access_rejected() {
        let a = AddressSpace::new();
        let addr = a
            .map(Half::Upper, RegionKind::Mmap, "x", 64, dense(64))
            .unwrap();
        let err = a.with_slice::<u64, _>(addr + 4, 1, |_| ()).unwrap_err();
        assert_eq!(err, MemError::Misaligned(addr + 4));
    }
}
