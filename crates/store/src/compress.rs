//! Compressing checkpoint storage.
//!
//! Checkpoint images compress well (large zeroed or structured regions),
//! and at NERSC scale the write *volume* is the dominant storage cost.
//! [`CompressingStore`] models that trade: the inner store is charged a
//! `logical_len` shrunk by a content-seeded ratio — so the I/O timing and
//! stored volume drop — while compress/decompress CPU time is added to
//! the durations `put`/`get` return. Contents pass through unchanged
//! (compression is modeled, not performed), so images decode exactly as
//! written.
//!
//! The put path is *dirty-aware*: when the object is a rank image
//! carrying dirty summaries, compress CPU is charged only for the pages
//! the summaries mark dirty (plus everything not covered by a summary) —
//! modeling an incremental compressor that reuses the previous
//! generation's compressed form for unchanged pages. Each clean page is
//! credited its real length, so a region's short final page saves only
//! the bytes it holds. The charged write volume is unchanged (every page
//! is still stored).
//!
//! Under a `JournaledStore` the object is a commit envelope, which is not
//! a rank image; the summaries are read from the image it wraps
//! ([`ImageBytes::framed`]), so compress CPU is the same with or without
//! the journal above. A torn envelope wraps no image, and neither does a
//! foreign blob: both are charged in full. The ratio draw is seeded from
//! the envelope's commit fold ([`ImageBytes::record_digest`]), which the
//! journal computed from page memos; only an object without one is hashed
//! here.

use mana_core::error::StoreError;
use mana_core::image::ImageBytes;
use mana_core::store::CheckpointStore;
use mana_sim::fs::IoShape;
use mana_sim::memory::{RegionDirty, RegionSnapshot, PAGE};
use mana_sim::rng::splitmix64;
use mana_sim::time::SimDuration;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Compression model parameters.
#[derive(Clone, Debug)]
pub struct CompressionConfig {
    /// Mean compressed/original size ratio (e.g. 0.35 for lz4-class
    /// compression on checkpoint images).
    pub ratio: f64,
    /// Content-seeded jitter: the per-object ratio lands in
    /// `ratio * (1 ± jitter)` (clamped to `(0, 1]`).
    pub jitter: f64,
    /// Compression throughput, bytes/s of *original* data.
    pub compress_bw: f64,
    /// Decompression throughput, bytes/s of *original* data.
    pub decompress_bw: f64,
    /// Seed decorrelating this store's ratio draws from other stores.
    pub seed: u64,
}

impl Default for CompressionConfig {
    fn default() -> CompressionConfig {
        // lz4-class: ~1.5 GB/s compress, ~3 GB/s decompress, ~2.9x.
        CompressionConfig {
            ratio: 0.35,
            jitter: 0.10,
            compress_bw: 1.5e9,
            decompress_bw: 3.0e9,
            seed: 0x436f_6d70,
        }
    }
}

/// Wrapper shrinking the inner store's charged `logical_len` by a
/// deterministic, content-seeded compression ratio.
///
/// Its `logical_len` reports the *compressed* length — that is what
/// occupies the inner tier and what its timing model charges. Use
/// [`CompressingStore::original_len`] for the uncompressed size.
pub struct CompressingStore<S> {
    cfg: CompressionConfig,
    inner: S,
    /// Original (uncompressed) logical lengths, for decompress costing
    /// and reporting.
    originals: Mutex<HashMap<String, u64>>,
}

impl<S: CheckpointStore> CompressingStore<S> {
    /// Compress objects on their way into `inner`.
    pub fn new(cfg: CompressionConfig, inner: S) -> CompressingStore<S> {
        CompressingStore {
            cfg,
            inner,
            originals: Mutex::new(HashMap::new()),
        }
    }

    /// Original (uncompressed) logical length of `path`, if this store
    /// wrote it.
    pub fn original_len(&self, path: &str) -> Option<u64> {
        self.originals.lock().get(path).copied()
    }

    /// Deterministic per-object ratio: seeded by the store seed, a digest
    /// of the object and its logical length. Under a `JournaledStore` the
    /// object is an envelope, and the digest is the commit fold its
    /// framing produced ([`ImageBytes::record_digest`]), so this hashes
    /// nothing. Anything else — a torn envelope, which was truncated after
    /// framing, or a foreign blob — is hashed here in full, streamed over
    /// the scatter segments with no flatten.
    fn ratio_for(&self, data: &ImageBytes, logical_len: u64) -> f64 {
        let h = data
            .record_digest()
            .unwrap_or_else(|| data.scatter().checksum());
        let u = splitmix64(self.cfg.seed ^ h ^ splitmix64(logical_len));
        let x = (u >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let r = self.cfg.ratio * (1.0 + self.cfg.jitter * (2.0 * x - 1.0));
        r.clamp(f64::MIN_POSITIVE, 1.0)
    }
}

/// Bytes the compressor actually has to chew through for this object:
/// `logical_len`, minus the clean pages a rank image's dirty summaries
/// prove (their compressed form is reused from the previous generation).
/// The image is the one the bytes encode or, for a journal envelope, the
/// one it wraps. Everything else, and an image without summaries, charges
/// in full.
fn compressible_bytes(data: &ImageBytes, logical_len: u64) -> u64 {
    let img = data.framed().cloned().or_else(|| data.rank_image());
    let Some(img) = img.filter(|img| !img.dirty.is_empty()) else {
        return logical_len;
    };
    let clean: u64 = img.dirty.iter().map(|d| clean_bytes(d, &img.regions)).sum();
    logical_len.saturating_sub(clean).max(1)
}

/// Bytes of the pages `summary` proves clean, each at its real length: a
/// region's final page holds only the region's tail. A summary whose
/// region is not in the image proves nothing.
fn clean_bytes(summary: &RegionDirty, regions: &[RegionSnapshot]) -> u64 {
    let Some(region) = regions.iter().find(|r| r.start == summary.start) else {
        return 0;
    };
    let clean_pages = summary.page_count - summary.dirty_pages();
    let last_clean = clean_pages > 0 && !summary.is_dirty(summary.page_count as usize - 1);
    let short_tail = if last_clean {
        (summary.page_count * PAGE).saturating_sub(region.len)
    } else {
        0
    };
    (clean_pages * PAGE).saturating_sub(short_tail)
}

impl<S: CheckpointStore> CheckpointStore for CompressingStore<S> {
    fn put(
        &self,
        path: &str,
        data: ImageBytes,
        logical_len: u64,
        rank: u64,
        shape: IoShape,
    ) -> SimDuration {
        let ratio = self.ratio_for(&data, logical_len);
        let compressed = if logical_len == 0 {
            0
        } else {
            ((logical_len as f64 * ratio).round() as u64).max(1)
        };
        let chew = compressible_bytes(&data, logical_len);
        let cpu = SimDuration::secs_f64(chew as f64 / self.cfg.compress_bw);
        let io = self.inner.put(path, data, compressed, rank, shape);
        self.originals.lock().insert(path.to_string(), logical_len);
        cpu + io
    }

    fn get(
        &self,
        path: &str,
        rank: u64,
        shape: IoShape,
    ) -> Result<(ImageBytes, SimDuration), StoreError> {
        let (data, io) = self.inner.get(path, rank, shape)?;
        let original = self
            .originals
            .lock()
            .get(path)
            .copied()
            .or_else(|| self.inner.logical_len(path).ok())
            .unwrap_or(0);
        let cpu = SimDuration::secs_f64(original as f64 / self.cfg.decompress_bw);
        Ok((data, io + cpu))
    }

    fn below(&self) -> Option<&dyn CheckpointStore> {
        Some(&self.inner)
    }

    /// The original length is forgotten only once the object is gone
    /// below: a layer there may refuse the removal (a delta store that
    /// cannot promote the dependent of a base), and the object it keeps
    /// must still be charged decompress CPU on its original length.
    fn remove(&self, path: &str) -> bool {
        let removed = self.inner.remove(path);
        if removed {
            self.originals.lock().remove(path);
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{DeltaConfig, DeltaStore};
    use crate::replicated::{ReplicaConfig, ReplicatedStore};
    use mana_core::store::InMemStore;
    use std::sync::Arc;

    const SHAPE: IoShape = IoShape {
        writers_on_node: 1,
        total_writers: 1,
    };

    fn store() -> CompressingStore<InMemStore> {
        CompressingStore::new(CompressionConfig::default(), InMemStore::new())
    }

    #[test]
    fn logical_len_shrinks_within_the_configured_band() {
        let s = store();
        s.put("x", vec![1, 2, 3].into(), 1 << 20, 0, SHAPE);
        let comp = s.logical_len("x").unwrap();
        let lo = ((1u64 << 20) as f64 * 0.35 * 0.9) as u64;
        let hi = ((1u64 << 20) as f64 * 0.35 * 1.1) as u64 + 1;
        assert!((lo..=hi).contains(&comp), "{comp} outside [{lo}, {hi}]");
        assert_eq!(s.original_len("x"), Some(1 << 20));
    }

    #[test]
    fn ratio_is_deterministic_and_content_seeded() {
        let a = store();
        let b = store();
        a.put("x", vec![1, 2, 3].into(), 1 << 20, 0, SHAPE);
        b.put("x", vec![1, 2, 3].into(), 1 << 20, 0, SHAPE);
        assert_eq!(a.logical_len("x").unwrap(), b.logical_len("x").unwrap());
        // Different content draws a different ratio.
        b.put("y", vec![9, 9, 9].into(), 1 << 20, 0, SHAPE);
        assert_ne!(b.logical_len("x").unwrap(), b.logical_len("y").unwrap());
    }

    #[test]
    fn cpu_time_is_charged_both_ways() {
        let s = store(); // zero-latency inner: all time is CPU
        let wd = s.put("x", vec![5; 100].into(), 3 << 30, 0, SHAPE);
        assert!(wd.as_secs_f64() > 1.9, "3 GB at 1.5 GB/s ≈ 2s, got {wd}");
        let (data, rd) = s.get("x", 0, SHAPE).unwrap();
        assert_eq!(data.to_vec(), vec![5; 100]);
        assert!(rd.as_secs_f64() > 0.9, "3 GB at 3 GB/s ≈ 1s, got {rd}");
    }

    #[test]
    fn empty_objects_stay_empty() {
        let s = store();
        s.put("e", Vec::new().into(), 0, 0, SHAPE);
        assert_eq!(s.logical_len("e").unwrap(), 0);
    }

    #[test]
    fn a_refused_remove_keeps_the_original_length() {
        // A delta depends on the base, and its only replica is dark: the
        // delta store cannot promote the dependent, so it refuses to
        // remove the base. The base is still there and still decompresses
        // at its original length.
        let replicated = Arc::new(ReplicatedStore::with_replicas(
            ReplicaConfig {
                write_quorum: 1,
                ..ReplicaConfig::default()
            },
            1,
            |_| InMemStore::new(),
        ));
        let s = CompressingStore::new(
            CompressionConfig::default(),
            DeltaStore::new(DeltaConfig::default(), replicated.clone()),
        );
        let img = dirty_aware::image_of(64 * PAGE, u64::MAX);
        for generation in 1..=2 {
            let path = format!("d/ckpt_{generation}/rank_0.mana");
            s.put(&path, img.encode(), img.logical_bytes(), 0, SHAPE);
        }
        let base = "d/ckpt_1/rank_0.mana";
        let (_, before) = s.get(base, 0, SHAPE).unwrap();
        replicated.kill_replica(0);
        assert!(!s.remove(base), "the base of a dark delta must stay");
        replicated.revive(0);
        let (_, after) = s.get(base, 0, SHAPE).unwrap();
        assert_eq!(after, before, "decompress CPU moved after a refused remove");
        assert_eq!(s.original_len(base), Some(img.logical_bytes()));
    }

    mod dirty_aware {
        use super::*;
        use mana_core::image::CheckpointImage;
        use mana_sim::memory::{
            DenseSnap, Half, RegionDirty, RegionKind, RegionSnapshot, SnapshotContent, PAGE,
        };

        use crate::journal::JournaledStore;
        use mana_core::chaos::{ChaosHandle, FaultInjector};

        /// Arms nothing itself: tests tear a write through `arm_torn`.
        struct NoFaults;
        impl FaultInjector for NoFaults {}

        /// A one-region, 64-page rank image whose dirty summary marks the
        /// first `dirty_count` pages dirty against a committed base.
        fn image(dirty_count: u64) -> CheckpointImage {
            image_of(64 * PAGE, u64::MAX >> (64 - dirty_count))
        }

        /// A one-region rank image of `len` bytes (at most 64 pages) whose
        /// dirty summary marks the pages set in `bitmap` dirty.
        pub(super) fn image_of(len: u64, bitmap: u64) -> CheckpointImage {
            let bytes = vec![7u8; len as usize];
            CheckpointImage {
                rank: 0,
                nranks: 1,
                ckpt_id: 1,
                app_name: "t".to_string(),
                seed: 1,
                regions: vec![RegionSnapshot {
                    start: 0x1000,
                    len: bytes.len() as u64,
                    half: Half::Upper,
                    kind: RegionKind::Mmap,
                    name: "r".to_string(),
                    content: SnapshotContent::Dense(DenseSnap::from_vec(bytes)),
                }],
                dirty: vec![RegionDirty {
                    start: 0x1000,
                    lineage: 1,
                    seq: 2,
                    base_seq: Some(1),
                    page_count: len.div_ceil(PAGE),
                    pages: vec![bitmap],
                }],
                ..CheckpointImage::default()
            }
        }

        /// The charge for compressing `bytes` at the default bandwidth.
        fn cpu(bytes: u64) -> SimDuration {
            SimDuration::secs_f64(bytes as f64 / CompressionConfig::default().compress_bw)
        }

        #[test]
        fn compress_cpu_scales_with_dirty_fraction() {
            // Zero-latency inner: every returned duration is compress CPU.
            let s = store();
            let all = image(64);
            let quarter = image(16);
            let one = image(1);
            let logical = all.logical_bytes();
            let d_all = s.put("d/ckpt_1/rank_0.mana", all.encode(), logical, 0, SHAPE);
            let d_quarter = s.put("d/ckpt_2/rank_0.mana", quarter.encode(), logical, 0, SHAPE);
            let d_one = s.put("d/ckpt_3/rank_0.mana", one.encode(), logical, 0, SHAPE);
            let r_quarter = d_all.as_secs_f64() / d_quarter.as_secs_f64();
            let r_one = d_all.as_secs_f64() / d_one.as_secs_f64();
            // 64 dirty pages vs 16 vs 1 (plus the uncovered metadata
            // page): CPU must track the dirty fraction, not image size.
            assert!(
                (3.0..5.0).contains(&r_quarter),
                "quarter-dirty CPU ratio {r_quarter}"
            );
            assert!(r_one > 10.0, "one-page-dirty CPU ratio {r_one}");
            // The charged *volume* is unaffected by dirtiness — only CPU.
            let v1 = s.logical_len("d/ckpt_1/rank_0.mana").unwrap();
            let v3 = s.logical_len("d/ckpt_3/rank_0.mana").unwrap();
            assert!(v3 > v1 / 2, "volume model must not shrink with dirtiness");
        }

        #[test]
        fn a_short_final_page_is_credited_only_its_bytes() {
            // 100 bytes short of 64 pages, plus the metadata page.
            let len = 64 * PAGE - 100;
            let s = store();
            let charge = |bitmap| {
                let img = image_of(len, bitmap);
                s.put(
                    "d/ckpt_1/rank_0.mana",
                    img.encode(),
                    img.logical_bytes(),
                    0,
                    SHAPE,
                )
            };
            // Page 0 dirty: 62 full clean pages and the clean 3996-byte
            // tail leave one dirty page and the metadata page to chew.
            assert_eq!(charge(1), cpu(2 * PAGE));
            // The tail page dirty: 63 full pages are clean.
            assert_eq!(charge(1 << 63), cpu(2 * PAGE - 100));
        }

        #[test]
        fn a_journal_above_or_below_charges_the_same() {
            let bare = store();
            let journal_above = JournaledStore::new(store());
            let journal_below = CompressingStore::new(
                CompressionConfig::default(),
                JournaledStore::new(InMemStore::new()),
            );
            let stacks: [&dyn CheckpointStore; 3] = [&bare, &journal_above, &journal_below];
            let mut charges = Vec::new();
            for (generation, dirty) in [(1, 64), (2, 16), (3, 1)] {
                let img = Arc::new(image(dirty));
                let path = format!("d/ckpt_{generation}/rank_0.mana");
                let durs = stacks.map(|s| {
                    let bytes = CheckpointImage::encode_shared(&img);
                    s.put(&path, bytes, img.logical_bytes(), 0, SHAPE)
                });
                assert!(
                    durs.iter().all(|d| *d == durs[0]),
                    "{dirty} dirty: {durs:?}"
                );
                charges.push(durs[0]);
            }
            // Each generation pays for its dirty pages and the metadata page.
            assert_eq!(charges, vec![cpu(65 * PAGE), cpu(17 * PAGE), cpu(2 * PAGE)]);
        }

        #[test]
        fn torn_envelopes_and_foreign_blobs_are_charged_in_full() {
            let chaos = ChaosHandle::new(NoFaults);
            let j = JournaledStore::new(store()).with_chaos(chaos.clone());
            let img = Arc::new(image(1));
            let logical = img.logical_bytes();
            let put = |path: &str, bytes: ImageBytes| j.put(path, bytes, logical, 0, SHAPE);
            chaos.arm_torn("d/ckpt_1/rank_0.mana", 0.5);
            let torn = put("d/ckpt_1/rank_0.mana", CheckpointImage::encode_shared(&img));
            let foreign = put("d/blob", vec![3; 100].into());
            let whole = put("d/ckpt_2/rank_0.mana", CheckpointImage::encode_shared(&img));
            assert_eq!((torn, foreign), (cpu(logical), cpu(logical)));
            assert_eq!(whole, cpu(2 * PAGE));
        }
    }
}
