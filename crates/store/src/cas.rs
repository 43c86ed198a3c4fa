//! Content-addressed checkpoint storage with fleet-wide page dedup.
//!
//! In a production deployment hundreds of jobs checkpoint against one
//! filesystem, and most of the bytes are *the same bytes*: program text,
//! read-only tables and converged data are near-identical across ranks of
//! one job and across jobs running the same code. [`CasStore`] exploits
//! that by content-addressing every 4 KiB page of every dense region:
//! rank images on their way in (any object whose path parses as
//! `dir/ckpt_<id>/rank_<r>.mana` and whose bytes decode as a
//! [`CheckpointImage`]) are decomposed into their [`PAGE`](mana_sim::memory::PAGE)-sized snapshot
//! pages, each page is digested, and only pages never seen before are
//! stored — once, fleet-wide, no matter how many tenants, ranks or
//! generations present them. What reaches the inner store at the image
//! path is a small *manifest*: the image's metadata plus, per dense
//! region, the ordered digest list of its pages.
//!
//! Pages are refcounted: overwriting or removing an image releases its
//! references, and a page is reclaimed exactly when its last referencing
//! image goes away — so one tenant's GC can never corrupt another
//! tenant's checkpoints ([`CheckpointStore::remove`] composes safely with
//! session GC and fleet quota enforcement).
//!
//! Cost model: `put` charges the inner store only for the manifest plus
//! the *newly unique* page bytes (dedup saves write bandwidth and
//! capacity), plus a digest-CPU term over the dense bytes it hashes
//! (hashing is not free, even when everything dedups). `get` charges the
//! manifest read plus page-pool fetch time for the image's dense bytes.
//! Reassembly is zero-copy: regions are rebuilt from the pool's shared
//! `Arc` pages via [`DenseSnap::from_pages`].
//!
//! A presented page whose `Arc` handle is the very one a pool entry holds
//! (a clean page shared from the snapshot an earlier generation stored)
//! reuses that entry's key instead of being digested again, so a put
//! hashes only the pages that are new to the pool as allocations — at
//! 1 % dirty, ~1 % of them ([`CasStats::pages_hashed`]). The digest-CPU
//! term covers exactly those pages, so the host work and the simulated
//! charge agree. Equal bytes in a fresh allocation (another tenant's twin
//! image) are hashed, and charged, in full.
//!
//! Non-image objects pass through unmodified.

use mana_core::codec::{CodecError, ScatterDec, ScatterEnc};
use mana_core::config::parse_image_path;
use mana_core::error::StoreError;
use mana_core::image::{
    decode_embedded, decode_region, encode_region, CheckpointImage, ImageBytes,
};
use mana_core::store::CheckpointStore;
use mana_sim::checksum::checksum_bytes_seeded;
use mana_sim::fs::IoShape;
use mana_sim::memory::{DenseSnap, RegionSnapshot, SnapshotContent};
use mana_sim::scatter::ScatterBuf;
use mana_sim::time::SimDuration;
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// "MANACAS1" little-endian.
pub const CAS_MAGIC: u64 = 0x3153_4143_414e_414d;
/// Current manifest-format version. Version 2 changed what a page key
/// holds (two seeded digests, see `PageKey`); a manifest only resolves
/// against the in-process pool that wrote it, so no older version has a
/// reader.
pub const CAS_VERSION: u32 = 2;

/// Content-addressed-store parameters.
#[derive(Clone, Debug)]
pub struct CasConfig {
    /// Page-pool fetch bandwidth charged on `get`, bytes/s of
    /// reassembled dense data.
    pub read_bw: f64,
    /// Digest throughput charged on `put`, bytes/s of the dense data it
    /// hashes — paid for every page not already a pool handle,
    /// deduplicated or not.
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

/// 128-bit content address of one page: its digest under two fixed,
/// distinct seeds of [`mana_sim::checksum`] — two independent 64-bit
/// hashes of the same bytes. A collision requires *both* to collide,
/// which at fleet scales (billions of pages) is out of reach for the
/// simulator's lifetime.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
struct PageKey {
    digest_a: u64,
    digest_b: u64,
}

/// `"CASPAGEA"` / `"CASPAGEB"`: the two digest seeds of a [`PageKey`].
const SEED_A: u64 = u64::from_le_bytes(*b"CASPAGEA");
const SEED_B: u64 = u64::from_le_bytes(*b"CASPAGEB");

fn page_key(page: &[u8]) -> PageKey {
    PageKey {
        digest_a: checksum_bytes_seeded(SEED_A, page),
        digest_b: checksum_bytes_seeded(SEED_B, page),
    }
}

/// Where a page's bytes live: the address and length of the slice.
#[derive(Clone, Copy, PartialEq, Eq)]
struct PageAddr {
    ptr: usize,
    len: usize,
}

impl PageAddr {
    fn of(page: &[u8]) -> PageAddr {
        PageAddr {
            ptr: page.as_ptr() as usize,
            len: page.len(),
        }
    }
}

impl Hash for PageAddr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Allocation addresses share their high bits and step by the
        // allocation size in their low ones: spread them (Fibonacci
        // hashing, high half folded down) before `PassThrough` sees them.
        let h = (self.ptr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        state.write_u64(h ^ (h >> 32));
    }
}

/// Hasher for keys that are already uniform 64-bit words: it XORs what it
/// is given. A [`PageKey`] is two independent digests of the page, so
/// hashing it again (SipHash, the `HashMap` default) only burns time — it
/// was about half of a put at 1 % dirty. The digests are of simulated
/// page content, which no adversary picks (see [`mana_sim::checksum`]).
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("PassThrough only hashes PageKey and PageAddr")
    }

    fn write_u64(&mut self, word: u64) {
        self.0 ^= word;
    }
}

type PassThroughMap<K, V> = HashMap<K, V, BuildHasherDefault<PassThrough>>;

/// One pooled page: the shared bytes and how many stored images
/// reference it.
struct PoolEntry {
    data: Arc<[u8]>,
    refs: u64,
}

/// Per-path bookkeeping for a CAS-encoded image: which pool pages it
/// references (in no particular order — release only) and its logical
/// pre-dedup size.
struct CasObject {
    keys: Vec<PageKey>,
    original_len: u64,
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
    /// Presented pages that were digested. A page whose handle is one the
    /// pool already holds (a clean page shared from an earlier snapshot)
    /// reuses that entry's key instead, so at 1 % dirty this is ~1 % of
    /// `pages_in`.
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
    pool: PassThroughMap<PageKey, PoolEntry>,
    /// The key of every pool entry, by the address of the entry's *own*
    /// handle. A presented page found here is that very allocation, so its
    /// key is known without hashing it: the entry holds the `Arc`, so the
    /// address cannot be reused while it is indexed, and only pool handles
    /// are indexed, so no page lives longer than the pool keeps it.
    pooled_at: PassThroughMap<PageAddr, PageKey>,
    objects: HashMap<String, CasObject>,
    stats: CasStats,
}

impl CasState {
    /// The key of `page`, hashing it only when it is not a pool handle;
    /// the bytes hashed are added to `hashed`.
    fn key_of(&mut self, page: &[u8], hashed: &mut u64) -> PageKey {
        match self.pooled_at.get(&PageAddr::of(page)) {
            Some(key) => *key,
            None => {
                self.stats.pages_hashed += 1;
                *hashed += page.len() as u64;
                page_key(page)
            }
        }
    }

    /// Release one object's page references, reclaiming pages whose last
    /// reference this was.
    fn release(&mut self, path: &str) {
        let Some(obj) = self.objects.remove(path) else {
            return;
        };
        for key in obj.keys {
            let entry = self.pool.get_mut(&key).expect("referenced page pooled");
            entry.refs -= 1;
            if entry.refs == 0 {
                let len = entry.data.len() as u64;
                self.pooled_at.remove(&PageAddr::of(&entry.data));
                self.pool.remove(&key);
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
    /// Dense region stored as an ordered page-digest list; `header` is
    /// the region's identity with placeholder content.
    Paged {
        header: RegionSnapshot,
        dense_len: u64,
        keys: Vec<PageKey>,
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
                keys,
            } => {
                e.u32(1);
                encode_region(&mut e, header);
                e.u64(*dense_len);
                e.seq(keys.len());
                for k in keys {
                    e.u64(k.digest_a);
                    e.u64(k.digest_b);
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
                let mut keys = Vec::new();
                for _ in 0..d.seq("cas page keys")? {
                    keys.push(PageKey {
                        digest_a: d.u64("cas page digest a")?,
                        digest_b: d.u64("cas page digest b")?,
                    });
                }
                ManifestRegion::Paged {
                    header,
                    dense_len,
                    keys,
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
/// A put digests (under both key seeds) only the presented pages that are
/// not already pool handles; see the module docs.
///
/// For a CAS-encoded image its `logical_len` reports the post-dedup
/// charge (manifest plus newly-unique page bytes at put time) — what the
/// inner tier sees. Use [`CasStore::original_len`] for the logical
/// pre-dedup size.
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

    /// Logical pre-dedup size of the image at `path`, if this store
    /// CAS-encoded it — what the object would have charged a plain
    /// backend. [`CheckpointStore::logical_len`] reports the much
    /// smaller post-dedup charge.
    pub fn original_len(&self, path: &str) -> Option<u64> {
        self.state.lock().objects.get(path).map(|o| o.original_len)
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
        let mut keys = Vec::new();
        let mut regions = Vec::with_capacity(img.regions.len());
        let mut hashed_bytes = 0u64;
        let mut new_bytes = 0u64;
        let mut new_pages = 0u64;
        for r in &img.regions {
            match &r.content {
                SnapshotContent::Pattern { .. } => {
                    regions.push(ManifestRegion::Inline(r.clone()));
                }
                SnapshotContent::Dense(snap) => {
                    let mut region_keys = Vec::with_capacity(snap.page_count());
                    for i in 0..snap.page_count() {
                        let page = snap.page(i);
                        let key = st.key_of(page, &mut hashed_bytes);
                        st.stats.pages_in += 1;
                        st.stats.bytes_in += page.len() as u64;
                        let entry = match st.pool.entry(key) {
                            Entry::Occupied(e) => e.into_mut(),
                            Entry::Vacant(e) => {
                                new_bytes += page.len() as u64;
                                new_pages += 1;
                                let data = snap.page_handle(i);
                                st.pooled_at.insert(PageAddr::of(&data), key);
                                e.insert(PoolEntry { data, refs: 0 })
                            }
                        };
                        entry.refs += 1;
                        region_keys.push(key);
                    }
                    keys.extend_from_slice(&region_keys);
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
                        keys: region_keys,
                    });
                }
            }
        }
        st.stats.pages_new += new_pages;
        let mut meta = Arc::unwrap_or_clone(img);
        meta.regions = Vec::new();
        let manifest = encode_manifest(&Manifest { meta, regions });
        let manifest_len = manifest.len() as u64;
        st.stats.bytes_new += new_bytes;
        st.stats.manifest_bytes += manifest_len;
        st.objects.insert(
            path.to_string(),
            CasObject {
                keys,
                original_len: logical_len,
            },
        );
        drop(guard);
        // The inner tier is charged for what actually lands on it: the
        // manifest plus the newly unique page bytes. Digest CPU covers the
        // pages actually hashed.
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
                    keys,
                } => {
                    let mut pages = Vec::with_capacity(keys.len());
                    for key in &keys {
                        let entry = st.pool.get(key).ok_or_else(|| StoreError::Corrupt {
                            path: path.to_string(),
                            why: format!(
                                "page {:#x}:{:#x} missing from pool",
                                key.digest_a, key.digest_b
                            ),
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
        // shares the pool's `Arc` pages and the decoded image rides along,
        // so decode_shared callers skip the wire decode entirely.
        Ok((CheckpointImage::encode_shared(&Arc::new(img)), dur + fetch))
    }

    fn below(&self) -> Option<&dyn CheckpointStore> {
        Some(&self.inner)
    }

    fn remove(&self, path: &str) -> bool {
        // Refcounted GC safety: this image's references are released;
        // pages shared with other images stay pooled for them, pages
        // this was the last reference to are reclaimed.
        self.state.lock().release(path);
        self.inner.remove(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{exercise_store, StoreChecks};
    use mana_core::store::InMemStore;
    use mana_sim::memory::{Half, RegionKind};

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
            upper_cursor: 0,
            comms: Vec::new(),
            groups: Vec::new(),
            dtypes: Vec::new(),
            log: Vec::new(),
            counters: Default::default(),
            buffered: Vec::new(),
            pending: Vec::new(),
            ops_done: ckpt_id,
            allocs: Vec::new(),
            slots: Vec::new(),
            slot_seq: 0,
            slot_seq_at_step: 0,
            world_virt: 0,
            rebind: Vec::new(),
            step_created: Vec::new(),
            dirty: Vec::new(),
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
        assert_eq!(s.original_len(&p), Some(img.logical_bytes()));
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

        /// A 64-page snapshot of distinct pages.
        fn snap(salt: u64) -> DenseSnap {
            DenseSnap::from_vec(buf(64 << 12, salt))
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
            let mut r = region(0x1000, Vec::new());
            r.len = snap.len() as u64;
            r.content = SnapshotContent::Dense(snap.clone());
            let img = Arc::new(image(0, 1, vec![r]));
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
    }
}
