//! Content-addressed checkpoint storage with store-wide page dedup.
//!
//! Most of a checkpoint's bytes are *the same bytes*: program text,
//! read-only tables and converged data are near-identical across the
//! ranks of one job and across its generations. [`CasStore`] exploits
//! that by content-addressing every 4 KiB page of every dense region:
//! rank images on their way in (any object whose path parses as
//! `dir/ckpt_<id>/rank_<r>.mana` and whose bytes decode as a
//! [`CheckpointImage`]) are decomposed into their [`PAGE`](mana_sim::memory::PAGE)-sized snapshot
//! pages, each page is addressed by its memoized digest, and only pages
//! never seen before are stored — once per store, no matter how many
//! ranks, generations or sessions present them. What reaches the inner
//! store at the image path is a small *manifest*: the image's metadata
//! plus, per dense region, the ordered pool-slot list of its pages.
//!
//! Pages are refcounted: overwriting or removing an image releases its
//! references, and a page is reclaimed exactly when its last referencing
//! image goes away — so removing one checkpoint can never corrupt
//! another that shares its pages ([`CheckpointStore::remove`] composes
//! safely with session GC).
//!
//! Cost model: `put` charges the inner store only for the manifest plus
//! the *newly unique* page bytes (dedup saves write bandwidth and
//! capacity), plus a digest-CPU term (hashing is not free, even when
//! everything dedups). `get` charges the manifest read plus page-pool
//! fetch time for the image's dense bytes. Reassembly is zero-copy:
//! regions are rebuilt from the pool's shared [`Page`]s via
//! [`DenseSnap::from_pages`].
//!
//! A page's pool slot starts at its memoized seed-0 digest
//! ([`Page::digest`]), the same value the journal folds: a page that
//! stays clean across checkpoints was hashed once, when it was new, and
//! every later put reads the memo. Dedup does not trust the hash. An
//! entry at the slot is a hit only when it is the presented handle itself
//! or holds equal bytes; a different page behind the same 64-bit digest
//! probes on to the next slot, and the manifest records the slot the
//! page landed in.
//!
//! The digest-CPU term is charged for every presented page that is not
//! the pool's own handle ([`CasStats::pages_hashed`]): at 1 % dirty,
//! ~1 % of them. A clean page shared from the snapshot an earlier
//! generation stored is free; equal bytes in a fresh allocation (another
//! job's twin image) are charged in full.
//!
//! Non-image objects pass through unmodified.

use mana_core::codec::{CodecError, ScatterDec, ScatterEnc};
use mana_core::config::parse_image_path;
use mana_core::error::StoreError;
use mana_core::image::{
    decode_embedded, decode_region, encode_region, CheckpointImage, ImageBytes,
};
use mana_core::store::CheckpointStore;
use mana_sim::fs::IoShape;
use mana_sim::memory::{DenseSnap, RegionSnapshot, SnapshotContent};
use mana_sim::page::Page;
use mana_sim::scatter::ScatterBuf;
use mana_sim::time::SimDuration;
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// "MANACAS1" little-endian.
pub const CAS_MAGIC: u64 = 0x3153_4143_414e_414d;
/// Current manifest-format version. Version 3 records one pool slot per
/// page (see `Slot`); a manifest only resolves against the in-process
/// pool that wrote it, so no older version has a reader.
pub const CAS_VERSION: u32 = 3;

/// Content-addressed-store parameters.
#[derive(Clone, Debug)]
pub struct CasConfig {
    /// Page-pool fetch bandwidth charged on `get`, bytes/s of
    /// reassembled dense data.
    pub read_bw: f64,
    /// Digest throughput charged on `put`, bytes/s of dense data — paid
    /// for every page not already a pool handle, deduplicated or not.
    pub digest_bw: f64,
}

impl Default for CasConfig {
    fn default() -> CasConfig {
        // xxh3-class hashing, NVMe-class pool reads.
        CasConfig {
            read_bw: 2.5e9,
            digest_bw: 5.0e9,
        }
    }
}

/// A page's place in the pool. It starts at the page's memoized seed-0
/// digest ([`Page::digest`]); a page whose bytes differ from the entry
/// already there (a 64-bit collision) probes on to the next free slot,
/// which is why manifests record slots rather than digests.
type Slot = u64;

/// Hasher for keys that are already uniform 64-bit words: it XORs what it
/// is given. A [`Slot`] is a digest of the page (or a few steps past one),
/// so hashing it again (SipHash, the `HashMap` default) only burns time —
/// it was about half of a put at 1 % dirty. The digests are of simulated
/// page content, which no adversary picks (see [`mana_sim::checksum`]);
/// and since every hit compares bytes, a crafted collision could only
/// lengthen a probe, never alias two pages.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("PassThrough only hashes pool slots")
    }

    fn write_u64(&mut self, word: u64) {
        self.0 ^= word;
    }
}

type Pool = HashMap<Slot, PoolEntry, BuildHasherDefault<PassThrough>>;

/// One pooled page: the shared bytes and how many stored images
/// reference it.
struct PoolEntry {
    data: Page,
    refs: u64,
}

/// Per-path bookkeeping for a CAS-encoded image: which pool pages it
/// references (in no particular order — release only).
struct CasObject {
    slots: Vec<Slot>,
}

/// Cumulative dedup counters. Monotone; sample before/after a window
/// (e.g. a checkpoint epoch) and subtract to get per-window ratios.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CasStats {
    /// Dense pages presented to `put`.
    pub pages_in: u64,
    /// Presented pages that were new to the pool (stored).
    pub pages_new: u64,
    /// Dense bytes presented to `put`.
    pub bytes_in: u64,
    /// Presented bytes that were new to the pool (stored).
    pub bytes_new: u64,
    /// Manifest bytes written to the inner store.
    pub manifest_bytes: u64,
    /// Pages reclaimed when their last reference was released.
    pub pages_freed: u64,
    /// Bytes reclaimed when their last reference was released.
    pub bytes_reclaimed: u64,
    /// Presented pages charged as hashed: every one that is not a pool
    /// entry's own handle. A clean page shared from an earlier snapshot is
    /// such a handle, so at 1 % dirty this is ~1 % of `pages_in`. The host
    /// itself reads each page's memoized digest, and hashes only a page
    /// whose memo nothing has filled yet.
    pub pages_hashed: u64,
}

impl CasStats {
    /// Stored fraction of the presented dense volume:
    /// `(bytes_new + manifest_bytes) / bytes_in`. 1.0 when nothing was
    /// presented; below 1.0 exactly when dedup saved bytes.
    pub fn stored_fraction(&self) -> f64 {
        if self.bytes_in == 0 {
            return 1.0;
        }
        (self.bytes_new + self.manifest_bytes) as f64 / self.bytes_in as f64
    }

    /// Counter-wise difference `self - earlier` (for per-epoch windows).
    pub fn since(&self, earlier: &CasStats) -> CasStats {
        CasStats {
            pages_in: self.pages_in - earlier.pages_in,
            pages_new: self.pages_new - earlier.pages_new,
            bytes_in: self.bytes_in - earlier.bytes_in,
            bytes_new: self.bytes_new - earlier.bytes_new,
            manifest_bytes: self.manifest_bytes - earlier.manifest_bytes,
            pages_freed: self.pages_freed - earlier.pages_freed,
            bytes_reclaimed: self.bytes_reclaimed - earlier.bytes_reclaimed,
            pages_hashed: self.pages_hashed - earlier.pages_hashed,
        }
    }
}

#[derive(Default)]
struct CasState {
    pool: Pool,
    objects: HashMap<String, CasObject>,
    stats: CasStats,
}

/// How a presented page met the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pooled {
    /// Its slot's entry is this very handle.
    Handle,
    /// Its slot's entry holds equal bytes in another allocation.
    Equal,
    /// It took a free slot.
    New,
}

impl CasState {
    /// Take one reference on `page` in the pool, from slot `digest` (the
    /// page's [`Page::digest`]) on: probe `digest + 1, digest + 2, …` past
    /// entries whose bytes differ, up to the first entry that is `page` or
    /// equals it, or the first free slot. A probe stops at a free slot, so
    /// after a reclaim ahead of a collided page equal bytes may be pooled
    /// twice: a second copy, never a wrong one.
    fn pool_page(&mut self, digest: u64, page: &Page) -> (Slot, Pooled) {
        let mut slot = digest;
        loop {
            match self.pool.entry(slot) {
                Entry::Vacant(e) => {
                    e.insert(PoolEntry {
                        data: page.clone(),
                        refs: 1,
                    });
                    return (slot, Pooled::New);
                }
                Entry::Occupied(mut e) => {
                    let entry = e.get_mut();
                    let pooled = if Page::ptr_eq(&entry.data, page) {
                        Pooled::Handle
                    } else if entry.data[..] == page[..] {
                        Pooled::Equal
                    } else {
                        slot = slot.wrapping_add(1);
                        continue;
                    };
                    entry.refs += 1;
                    return (slot, pooled);
                }
            }
        }
    }

    /// Release one object's page references, reclaiming pages whose last
    /// reference this was.
    fn release(&mut self, path: &str) {
        let Some(obj) = self.objects.remove(path) else {
            return;
        };
        for slot in obj.slots {
            let entry = self.pool.get_mut(&slot).expect("referenced page pooled");
            entry.refs -= 1;
            if entry.refs == 0 {
                let len = entry.data.len() as u64;
                self.pool.remove(&slot);
                self.stats.pages_freed += 1;
                self.stats.bytes_reclaimed += len;
            }
        }
    }
}

/// The decoded form of a manifest: the image's metadata plus per-region
/// content references.
struct Manifest {
    meta: CheckpointImage,
    regions: Vec<ManifestRegion>,
}

enum ManifestRegion {
    /// Region stored verbatim in the manifest (pattern regions are just
    /// a seed — there is nothing to deduplicate).
    Inline(RegionSnapshot),
    /// Dense region stored as an ordered pool-slot list; `header` is the
    /// region's identity with placeholder content.
    Paged {
        header: RegionSnapshot,
        dense_len: u64,
        slots: Vec<Slot>,
    },
}

fn encode_manifest(m: &Manifest) -> ScatterBuf {
    let mut e = ScatterEnc::new();
    e.u64(CAS_MAGIC);
    e.u32(CAS_VERSION);
    e.bytes(&m.meta.encode().into_vec());
    e.seq(m.regions.len());
    for r in &m.regions {
        match r {
            ManifestRegion::Inline(region) => {
                e.u32(0);
                encode_region(&mut e, region);
            }
            ManifestRegion::Paged {
                header,
                dense_len,
                slots,
            } => {
                e.u32(1);
                encode_region(&mut e, header);
                e.u64(*dense_len);
                e.seq(slots.len());
                for slot in slots {
                    e.u64(*slot);
                }
            }
        }
    }
    e.finish()
}

fn decode_manifest(data: &ImageBytes) -> Result<Manifest, CodecError> {
    let mut d = ScatterDec::new(data.scatter());
    let magic = d.u64("cas magic")?;
    if magic != CAS_MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let version = d.u32("cas version")?;
    if version != CAS_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let meta = decode_embedded(&mut d, "cas meta image")?;
    let mut regions = Vec::new();
    for _ in 0..d.seq("cas regions")? {
        regions.push(match d.u32("cas region tag")? {
            0 => ManifestRegion::Inline(decode_region(&mut d)?),
            1 => {
                let header = decode_region(&mut d)?;
                let dense_len = d.u64("cas dense len")?;
                let mut slots = Vec::new();
                for _ in 0..d.seq("cas page slots")? {
                    slots.push(d.u64("cas page slot")?);
                }
                ManifestRegion::Paged {
                    header,
                    dense_len,
                    slots,
                }
            }
            tag => return Err(CodecError::BadTag { what: "cas", tag }),
        });
    }
    Ok(Manifest { meta, regions })
}

/// Is this blob a CAS manifest (vs a full image or foreign bytes)? Peeks
/// the leading magic without flattening the scatter.
fn is_manifest(data: &ImageBytes) -> bool {
    data.len() >= 8 && data.scatter().slice(0, 8).to_vec() == CAS_MAGIC.to_le_bytes()
}

/// Content-addressed, page-deduplicating storage over an inner store `S`.
/// A put reads each presented page's memoized digest and confirms every
/// dedup hit byte for byte; see the module docs.
///
/// For a CAS-encoded image its `logical_len` reports the post-dedup
/// charge (manifest plus newly-unique page bytes at put time) — what the
/// inner tier sees.
pub struct CasStore<S> {
    cfg: CasConfig,
    inner: S,
    state: Mutex<CasState>,
}

impl<S: CheckpointStore> CasStore<S> {
    /// Content-address rank images on their way into `inner`.
    pub fn new(cfg: CasConfig, inner: S) -> CasStore<S> {
        CasStore {
            cfg,
            inner,
            state: Mutex::new(CasState::default()),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Cumulative dedup counters (see [`CasStats`]).
    pub fn stats(&self) -> CasStats {
        self.state.lock().stats
    }

    /// Pages currently resident in the pool.
    pub fn pool_pages(&self) -> u64 {
        self.state.lock().pool.len() as u64
    }

    /// Bytes currently resident in the pool (the deduplicated footprint
    /// of every live image's dense data).
    pub fn pool_bytes(&self) -> u64 {
        self.state
            .lock()
            .pool
            .values()
            .map(|e| e.data.len() as u64)
            .sum()
    }
}

impl<S: CheckpointStore> CheckpointStore for CasStore<S> {
    fn put(
        &self,
        path: &str,
        data: ImageBytes,
        logical_len: u64,
        rank: u64,
        shape: IoShape,
    ) -> SimDuration {
        // Only a rank image at a rank-image path is decomposed; anything
        // else (other paths, foreign bytes) passes through.
        let Some(img) = parse_image_path(path).and_then(|_| data.rank_image()) else {
            self.state.lock().release(path);
            return self.inner.put(path, data, logical_len, rank, shape);
        };
        let mut guard = self.state.lock();
        let st = &mut *guard;
        // Overwrite: the old object's references go before the new ones
        // land.
        st.release(path);
        let mut slots = Vec::new();
        let mut regions = Vec::with_capacity(img.regions.len());
        let mut hashed_bytes = 0u64;
        let mut new_bytes = 0u64;
        for r in &img.regions {
            match &r.content {
                SnapshotContent::Pattern { .. } => {
                    regions.push(ManifestRegion::Inline(r.clone()));
                }
                SnapshotContent::Dense(snap) => {
                    let mut region_slots = Vec::with_capacity(snap.page_count());
                    for page in snap.page_handles() {
                        let len = page.len() as u64;
                        let (slot, pooled) = st.pool_page(page.digest(), page);
                        st.stats.pages_in += 1;
                        st.stats.bytes_in += len;
                        if pooled != Pooled::Handle {
                            st.stats.pages_hashed += 1;
                            hashed_bytes += len;
                        }
                        if pooled == Pooled::New {
                            st.stats.pages_new += 1;
                            new_bytes += len;
                        }
                        region_slots.push(slot);
                    }
                    slots.extend_from_slice(&region_slots);
                    regions.push(ManifestRegion::Paged {
                        header: RegionSnapshot {
                            start: r.start,
                            len: r.len,
                            half: r.half,
                            kind: r.kind,
                            name: r.name.clone(),
                            content: SnapshotContent::Pattern { seed: 0 },
                        },
                        dense_len: snap.len() as u64,
                        slots: region_slots,
                    });
                }
            }
        }
        let mut meta = Arc::unwrap_or_clone(img);
        meta.regions = Vec::new();
        let manifest = encode_manifest(&Manifest { meta, regions });
        let manifest_len = manifest.len() as u64;
        st.stats.bytes_new += new_bytes;
        st.stats.manifest_bytes += manifest_len;
        st.objects.insert(path.to_string(), CasObject { slots });
        drop(guard);
        // The inner tier is charged for what actually lands on it: the
        // manifest plus the newly unique page bytes. Digest CPU covers
        // every page that is not a pool handle.
        let cpu = SimDuration::secs_f64(hashed_bytes as f64 / self.cfg.digest_bw);
        let io = self
            .inner
            .put(path, manifest.into(), manifest_len + new_bytes, rank, shape);
        cpu + io
    }

    fn get(
        &self,
        path: &str,
        rank: u64,
        shape: IoShape,
    ) -> Result<(ImageBytes, SimDuration), StoreError> {
        let (data, dur) = self.inner.get(path, rank, shape)?;
        if !is_manifest(&data) {
            return Ok((data, dur));
        }
        let m = decode_manifest(&data).map_err(|e| StoreError::Corrupt {
            path: path.to_string(),
            why: e.to_string(),
        })?;
        let st = self.state.lock();
        let mut dense_bytes = 0u64;
        let mut regions = Vec::with_capacity(m.regions.len());
        for r in m.regions {
            regions.push(match r {
                ManifestRegion::Inline(region) => region,
                ManifestRegion::Paged {
                    header,
                    dense_len,
                    slots,
                } => {
                    let mut pages = Vec::with_capacity(slots.len());
                    for slot in &slots {
                        let entry = st.pool.get(slot).ok_or_else(|| StoreError::Corrupt {
                            path: path.to_string(),
                            why: format!("page slot {slot:#x} missing from pool"),
                        })?;
                        pages.push(entry.data.clone());
                    }
                    dense_bytes += dense_len;
                    let snap =
                        DenseSnap::from_pages(dense_len as usize, pages).ok_or_else(|| {
                            StoreError::Corrupt {
                                path: path.to_string(),
                                why: "pooled pages disagree with manifest dense length".into(),
                            }
                        })?;
                    RegionSnapshot {
                        content: SnapshotContent::Dense(snap),
                        ..header
                    }
                }
            });
        }
        drop(st);
        let mut img = m.meta;
        img.regions = regions;
        let fetch = SimDuration::secs_f64(dense_bytes as f64 / self.cfg.read_bw);
        // Reassembly stays zero-copy on the way out too: the wire scatter
        // shares the pool's pages and the decoded image rides along,
        // so decode_shared callers skip the wire decode entirely.
        Ok((CheckpointImage::encode_shared(&Arc::new(img)), dur + fetch))
    }

    fn below(&self) -> Option<&dyn CheckpointStore> {
        Some(&self.inner)
    }

    /// Refcounted GC safety: the image's references are released only
    /// once the object is gone below. A layer there may refuse the
    /// removal, and the manifest it keeps must still resolve. Pages shared
    /// with other images stay pooled for them; pages this was the last
    /// reference to are reclaimed.
    fn remove(&self, path: &str) -> bool {
        let removed = self.inner.remove(path);
        if removed || !self.inner.exists(path) {
            self.state.lock().release(path);
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{exercise_store, StoreChecks};
    use mana_core::store::InMemStore;
    use mana_sim::memory::{Half, RegionKind, PAGE};

    const SHAPE: IoShape = IoShape {
        writers_on_node: 1,
        total_writers: 1,
    };

    fn region(start: u64, bytes: Vec<u8>) -> RegionSnapshot {
        RegionSnapshot {
            start,
            len: bytes.len() as u64,
            half: Half::Upper,
            kind: RegionKind::Mmap,
            name: format!("r{start:#x}"),
            content: SnapshotContent::Dense(DenseSnap::from_vec(bytes)),
        }
    }

    fn pattern(start: u64, len: u64, seed: u64) -> RegionSnapshot {
        RegionSnapshot {
            start,
            len,
            half: Half::Upper,
            kind: RegionKind::Mmap,
            name: format!("p{start:#x}"),
            content: SnapshotContent::Pattern { seed },
        }
    }

    fn image(rank: u32, ckpt_id: u64, regions: Vec<RegionSnapshot>) -> CheckpointImage {
        CheckpointImage {
            rank,
            nranks: 2,
            ckpt_id,
            app_name: "t".to_string(),
            seed: 1,
            regions,
            ops_done: ckpt_id,
            ..CheckpointImage::default()
        }
    }

    fn path(tenant: &str, id: u64, rank: u32) -> String {
        format!("{tenant}/ckpt_{id}/rank_{rank}.mana")
    }

    fn store() -> CasStore<InMemStore> {
        CasStore::new(CasConfig::default(), InMemStore::new())
    }

    /// `n` bytes varying with absolute offset, so no two pages are
    /// accidentally identical (constant fills would self-dedup).
    fn buf(n: usize, salt: u64) -> Vec<u8> {
        (0..n)
            .map(|i| mana_sim::rng::splitmix64(i as u64 ^ (salt << 32)) as u8)
            .collect()
    }

    #[test]
    fn conformance() {
        // The suite's payloads are not rank images, so they pass through
        // with exact lengths and the inner store's (zero) timing.
        exercise_store(&store(), StoreChecks::untimed());
    }

    #[test]
    fn images_round_trip_bit_exactly() {
        let s = store();
        let img = image(
            0,
            1,
            vec![
                region(0x1000, (0..70_000u32).map(|i| i as u8).collect()),
                pattern(0x9000_0000, 1 << 20, 42),
                region(0xa000_0000, vec![7; 100]),
            ],
        );
        let p = path("a", 1, 0);
        s.put(&p, img.encode(), img.logical_bytes(), 0, SHAPE);
        let (bytes, _) = s.get(&p, 0, SHAPE).unwrap();
        assert_eq!(
            bytes.to_vec(),
            img.encode().to_vec(),
            "reassembly must be bit-exact"
        );
        assert_eq!(CheckpointImage::decode_shared(&bytes).unwrap().0, img);
    }

    #[test]
    fn identical_images_store_their_pages_once() {
        let s = store();
        let payload = buf(256 << 10, 1);
        let a = image(0, 1, vec![region(0x1000, payload.clone())]);
        let b = image(1, 1, vec![region(0x1000, payload)]);
        s.put(&path("a", 1, 0), a.encode(), a.logical_bytes(), 0, SHAPE);
        let after_first = s.stats();
        assert_eq!(after_first.pages_new, 64, "256 KiB = 64 distinct pages");
        s.put(&path("a", 1, 1), b.encode(), b.logical_bytes(), 1, SHAPE);
        let st = s.stats();
        assert_eq!(
            st.pages_new, after_first.pages_new,
            "second rank's identical pages must all dedup"
        );
        assert_eq!(st.pages_in, 2 * after_first.pages_in);
        // The inner store was charged only the manifest for the second put.
        let second = s.logical_len(&path("a", 1, 1)).unwrap();
        assert!(
            second < 8 << 10,
            "deduped image should charge only its manifest, got {second}"
        );
        assert!(st.stored_fraction() < 0.6, "{:?}", st);
    }

    #[test]
    fn put_charges_digest_cpu_and_new_bytes_only() {
        let s = store(); // zero-latency inner: all time is CPU
        let payload = buf(1 << 20, 4);
        let a = image(0, 1, vec![region(0x1000, payload.clone())]);
        let d1 = s.put(&path("a", 1, 0), a.encode(), a.logical_bytes(), 0, SHAPE);
        let b = image(1, 1, vec![region(0x1000, payload)]);
        let d2 = s.put(&path("a", 1, 1), b.encode(), b.logical_bytes(), 1, SHAPE);
        // Digest CPU is paid both times (1 MiB at 5 GB/s each): b's pages
        // are the same bytes in a fresh allocation, so they are hashed.
        assert!(d1 > SimDuration::ZERO && d2 > SimDuration::ZERO);
        let floor = SimDuration::secs_f64((1u64 << 20) as f64 / 5.0e9);
        assert!(d2 >= floor, "digesting is never free: {d2} < {floor}");
    }

    #[test]
    fn refcounted_gc_keeps_shared_pages_alive() {
        let s = store();
        let shared = buf(128 << 10, 2);
        let only_a = buf(64 << 10, 3);
        let a = image(
            0,
            1,
            vec![region(0x1000, shared.clone()), region(0x500_0000, only_a)],
        );
        let b = image(0, 2, vec![region(0x1000, shared)]);
        let pa = path("tenant-a", 1, 0);
        let pb = path("tenant-b", 2, 0);
        s.put(&pa, a.encode(), a.logical_bytes(), 0, SHAPE);
        s.put(&pb, b.encode(), b.logical_bytes(), 0, SHAPE);
        let pool_before = s.pool_bytes();

        // Tenant A's GC removes its image: the shared 128 KiB survives
        // for tenant B, only A-exclusive pages are reclaimed.
        assert!(s.remove(&pa));
        let st = s.stats();
        assert_eq!(st.bytes_reclaimed, 64 << 10, "only A's private pages go");
        assert_eq!(s.pool_bytes(), pool_before - (64 << 10));
        let (bytes, _) = s.get(&pb, 0, SHAPE).unwrap();
        assert_eq!(
            CheckpointImage::decode_shared(&bytes).unwrap().0,
            b,
            "B must survive A's GC intact"
        );

        // Last reference: removing B reclaims everything.
        assert!(s.remove(&pb));
        assert_eq!(s.pool_pages(), 0);
        assert_eq!(s.pool_bytes(), 0);
        let st = s.stats();
        assert_eq!(st.bytes_reclaimed, st.bytes_new, "all stored bytes back");
    }

    #[test]
    fn a_refused_remove_keeps_the_pages() {
        /// Refuses every removal, as a delta store does for the base of a
        /// dependent it cannot promote.
        struct Refusing(InMemStore);
        impl CheckpointStore for Refusing {
            fn put(&self, p: &str, d: ImageBytes, l: u64, r: u64, s: IoShape) -> SimDuration {
                self.0.put(p, d, l, r, s)
            }
            fn get(
                &self,
                p: &str,
                r: u64,
                s: IoShape,
            ) -> Result<(ImageBytes, SimDuration), StoreError> {
                self.0.get(p, r, s)
            }
            fn below(&self) -> Option<&dyn CheckpointStore> {
                Some(&self.0)
            }
            fn remove(&self, _: &str) -> bool {
                false
            }
        }
        let s = CasStore::new(CasConfig::default(), Refusing(InMemStore::new()));
        let img = image(0, 1, vec![region(0x1000, buf(64 << 10, 14))]);
        let p = path("a", 1, 0);
        s.put(&p, img.encode(), img.logical_bytes(), 0, SHAPE);
        assert!(!s.remove(&p), "the layer below kept the object");
        assert!(s.exists(&p));
        let (bytes, _) = s.get(&p, 0, SHAPE).expect("a kept manifest resolves");
        assert_eq!(CheckpointImage::decode_shared(&bytes).unwrap().0, img);
        assert_eq!(s.pool_pages(), 16);
        assert!(
            s.state.lock().objects.contains_key(&p),
            "its references are kept"
        );
    }

    #[test]
    fn a_digest_collision_takes_the_next_slot_and_keeps_both_pages() {
        // Two different pages under one digest, as a 64-bit collision
        // would present them.
        const DIGEST: u64 = 0x5eed;
        let mut st = CasState::default();
        let a = Page::from(&buf(PAGE as usize, 15)[..]);
        let b = Page::from(&buf(PAGE as usize, 16)[..]);
        assert_eq!(st.pool_page(DIGEST, &a), (DIGEST, Pooled::New));
        assert_eq!(st.pool_page(DIGEST, &b), (DIGEST + 1, Pooled::New));
        assert_eq!(&st.pool[&DIGEST].data[..], &a[..]);
        assert_eq!(&st.pool[&(DIGEST + 1)].data[..], &b[..]);
        // Both are found again: `a` as the pool's own handle, `b`'s bytes
        // in a fresh allocation by comparison, past `a`.
        assert_eq!(st.pool_page(DIGEST, &a), (DIGEST, Pooled::Handle));
        let twin = Page::from(&b[..]);
        assert_eq!(st.pool_page(DIGEST, &twin), (DIGEST + 1, Pooled::Equal));
        assert_eq!((st.pool[&DIGEST].refs, st.pool[&(DIGEST + 1)].refs), (2, 2));
    }

    #[test]
    fn overwrite_releases_the_old_references() {
        let s = store();
        let a = image(0, 1, vec![region(0x1000, buf(64 << 10, 5))]);
        let b = image(0, 1, vec![region(0x1000, buf(64 << 10, 6))]);
        let p = path("a", 1, 0);
        s.put(&p, a.encode(), a.logical_bytes(), 0, SHAPE);
        s.put(&p, b.encode(), b.logical_bytes(), 0, SHAPE);
        // Only b's pages remain referenced.
        assert_eq!(s.pool_bytes(), 64 << 10);
        let (bytes, _) = s.get(&p, 0, SHAPE).unwrap();
        assert_eq!(CheckpointImage::decode_shared(&bytes).unwrap().0, b);
        // Overwriting with a non-image releases the CAS object too.
        s.put(&p, vec![1, 2, 3].into(), 3, 0, SHAPE);
        assert_eq!(s.pool_bytes(), 0);
        let (bytes, _) = s.get(&p, 0, SHAPE).unwrap();
        assert_eq!(bytes.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn pattern_regions_cost_only_their_manifest_entry() {
        let s = store();
        let img = image(0, 1, vec![pattern(0x1000, 1 << 30, 7)]);
        let p = path("a", 1, 0);
        s.put(&p, img.encode(), img.logical_bytes(), 0, SHAPE);
        let charged = s.logical_len(&p).unwrap();
        assert!(
            charged < 8 << 10,
            "a 1 GiB pattern is a seed, got {charged}"
        );
        let (bytes, _) = s.get(&p, 0, SHAPE).unwrap();
        assert_eq!(CheckpointImage::decode_shared(&bytes).unwrap().0, img);
    }

    mod pages_hashed {
        use super::*;
        use crate::journal::JournaledStore;
        use mana_sim::scatter::{reset_shared_hashed_bytes, shared_hashed_bytes};

        /// A 64-page snapshot of distinct pages.
        fn snap(salt: u64) -> DenseSnap {
            DenseSnap::from_vec(buf(64 << 12, salt))
        }

        /// A one-region image of `snap`, decoded form shared.
        fn image_of(snap: &DenseSnap) -> Arc<CheckpointImage> {
            let mut r = region(0x1000, Vec::new());
            r.len = snap.len() as u64;
            r.content = SnapshotContent::Dense(snap.clone());
            Arc::new(image(0, 1, vec![r]))
        }

        /// Page bytes the host hashes putting `snap` at `p` and reading it
        /// back.
        fn host_hashed(s: &CasStore<InMemStore>, p: &str, snap: &DenseSnap) -> u64 {
            reset_shared_hashed_bytes();
            put(s, p, snap);
            shared_hashed_bytes()
        }

        /// Put a one-region image of `snap` at `p` the way the checkpoint
        /// path does (decoded image attached); the counters of that put.
        fn put(s: &CasStore<InMemStore>, p: &str, snap: &DenseSnap) -> CasStats {
            put_timed(s, p, snap).0
        }

        /// [`put`], also returning the put's duration (all digest CPU: the
        /// inner store charges nothing).
        fn put_timed(
            s: &CasStore<InMemStore>,
            p: &str,
            snap: &DenseSnap,
        ) -> (CasStats, SimDuration) {
            let before = s.stats();
            let img = image_of(snap);
            let dur = s.put(
                p,
                CheckpointImage::encode_shared(&img),
                img.logical_bytes(),
                0,
                SHAPE,
            );
            let (bytes, _) = s.get(p, 0, SHAPE).unwrap();
            assert_eq!(CheckpointImage::decode_shared(&bytes).unwrap().0, *img);
            (s.stats().since(&before), dur)
        }

        #[test]
        fn digest_cpu_tracks_the_pages_hashed() {
            let s = store();
            let first = DenseSnap::from_vec(buf(100 << 12, 11));
            let (_, d_first) = put_timed(&s, &path("a", 1, 0), &first);
            // One page of 100 dirty: the other 99 are pool handles.
            let second = first.patched(&[(17 << 12, vec![4; 8])]).unwrap();
            let (st, d_second) = put_timed(&s, &path("a", 2, 0), &second);
            assert_eq!((st.pages_in, st.pages_hashed), (100, 1));
            let ratio = d_second.as_secs_f64() / d_first.as_secs_f64();
            assert!(
                (0.009..=0.011).contains(&ratio),
                "1 %-dirty digest CPU is {ratio} of the first generation's"
            );
        }

        #[test]
        fn shared_clean_handles_are_not_hashed_again() {
            let s = store();
            let first = snap(7);
            assert_eq!(put(&s, &path("a", 1, 0), &first).pages_hashed, 64);
            // Two dirty pages; the other 62 are the first generation's
            // handles.
            let second = first
                .patched(&[(3 << 12, vec![1; 8]), (40 << 12, vec![2; 8])])
                .unwrap();
            let st = put(&s, &path("a", 2, 0), &second);
            assert_eq!((st.pages_in, st.pages_hashed, st.pages_new), (64, 2, 2));
        }

        #[test]
        fn equal_bytes_in_another_allocation_are_hashed_and_dedup() {
            // A twin tenant: the same bytes in fresh allocations.
            let s = store();
            let (_, d_a) = put_timed(&s, &path("a", 1, 0), &snap(8));
            let (st, d_b) = put_timed(&s, &path("b", 1, 0), &snap(8));
            assert_eq!((st.pages_hashed, st.pages_new), (64, 0));
            assert_eq!(s.pool_pages(), 64);
            assert_eq!(d_b, d_a, "hashed, so charged, in full");
        }

        #[test]
        fn a_reclaimed_page_is_hashed_when_it_comes_back() {
            let s = store();
            let pages = snap(9);
            put(&s, &path("a", 1, 0), &pages);
            assert!(s.remove(&path("a", 1, 0)));
            assert_eq!(s.pool_pages(), 0);
            let st = put(&s, &path("a", 2, 0), &pages);
            assert_eq!((st.pages_hashed, st.pages_new), (64, 64));
        }

        #[test]
        fn overwriting_a_path_keeps_the_index_consistent() {
            let s = store();
            let first = snap(10);
            let p = path("a", 1, 0);
            put(&s, &p, &first);
            // The old references go first, so every page of the old image
            // is reclaimed and the shared ones are pooled (and hashed)
            // anew.
            let second = first.patched(&[(5 << 12, vec![3; 8])]).unwrap();
            let st = put(&s, &p, &second);
            assert_eq!(
                (st.pages_hashed, st.pages_new, st.pages_freed),
                (64, 64, 64)
            );
            assert_eq!(s.pool_pages(), 64);
            // The re-pooled handles are indexed: another image of them
            // hashes nothing.
            let st = put(&s, &path("a", 2, 0), &second);
            assert_eq!((st.pages_hashed, st.pages_new), (0, 0));
        }

        #[test]
        fn the_host_hashes_a_page_once_in_its_lifetime() {
            let s = store();
            let first = snap(12);
            assert_eq!(host_hashed(&s, &path("a", 1, 0), &first), 64 * PAGE);
            let second = first
                .patched(&[(3 << 12, vec![1; 8]), (40 << 12, vec![2; 8])])
                .unwrap();
            assert_eq!(host_hashed(&s, &path("a", 2, 0), &second), 2 * PAGE);
        }

        #[test]
        fn a_snapshot_the_journal_framed_is_not_hashed_again() {
            let fresh = snap(13);
            let img = image_of(&fresh);
            let journal = JournaledStore::new(InMemStore::new());
            journal.put(
                &path("j", 1, 0),
                CheckpointImage::encode_shared(&img),
                img.logical_bytes(),
                0,
                SHAPE,
            );
            assert_eq!(host_hashed(&store(), &path("a", 1, 0), &fresh), 0);
        }
    }
}
