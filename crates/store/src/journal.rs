//! Crash-consistent publish: [`JournaledStore`].
//!
//! A checkpoint is only worth taking if a crash *during* the checkpoint
//! cannot leave the store holding something that looks like a checkpoint
//! but isn't. `JournaledStore` wraps any [`CheckpointStore`] and makes
//! every `put` atomic-or-absent by framing the object in a commit
//! envelope:
//!
//! ```text
//! | magic (8)  | version (4) | payload_len (8) | runs (4) | runs × (count (4), len (8)) |
//! | "MANAJNL1" | 3           |                 |          | the chunk table              |
//!
//! | payload (one chunk per piece as framed)   | fold (8) | commit (8)  |
//! |                                           |          | "COMMITED"  |
//! ```
//!
//! All integers are little-endian. The chunk table is run-length encoded:
//! each run is `count` consecutive chunks of `len` bytes, and the chunks
//! cover the payload exactly. The commit digest `fold` is an XXH64
//! ([`mana_sim::checksum`], seed 0) stream over the header and table
//! bytes, then over each chunk's own seed-0 digest in order. The commit
//! word is written last, so a writer that dies mid-`put` leaves a prefix
//! that fails validation — [`StoreError::Torn`] — and `exists()` reports
//! the object *absent*. That is the memento-style discipline of detectable
//! recoverability: a checkpoint is either fully durable or detectably not
//! there, never silently half there. Bit rot in a fully-written envelope
//! is caught by the fold and surfaces as [`StoreError::Corrupt`].
//!
//! **Put and validation both read the memo.** The framing cuts one chunk
//! per payload piece ([`ScatterBuf::pieces`]: an owned run, or one shared
//! page — a rope segment, which holds a whole dense region behind one
//! handle, is read as its pages), so a chunk that is a shared rope page
//! contributes its memoized digest ([`Page::digest`]): a page that stayed
//! clean since an earlier snapshot was hashed then, and a put hashes only
//! the pages that are new plus the small owned metadata runs. Validation
//! (get, `exists` and `maintain`) follows the recorded table over the
//! *stored* pieces ([`ScatterBuf::chunk_digests`]): a chunk that is still
//! exactly one stored piece contributes that piece's digest — the memo of
//! the stored page, or a hash of an owned run — and a chunk that now spans
//! or cuts pieces (a flattened or re-cut envelope) is streamed across them
//! with no flatten. So a page is hashed once in its lifetime, on puts and
//! on reads alike; a read still visits every page's memo, but it clones
//! no page handle.
//!
//! This verifies as much as hashing every chunk from its bytes. A page's
//! bytes never change after it is built, and its memo is only filled by
//! hashing those bytes (debug builds re-derive it on every hit). Damage
//! below the journal cannot reach a stored page in place: rot, a tear or
//! a swap leaves owned bytes or a different page, and a different page's
//! memo comes from its own bytes. The digest is taken from the page the
//! store holds, never from the page that was framed.
//!
//! Version 3 made the commit digest a fold over per-chunk digests (version
//! 2 hashed the payload bytes as one stream). There is no reader for an
//! older version: envelopes live in simulated stores that do not outlast
//! the process that framed them, so any other version number is
//! [`StoreError::Corrupt`].
//!
//! [`maintain`](CheckpointStore::maintain) is the crash-recovery scan:
//! every object that fails validation is moved under the `.quarantine/`
//! prefix (preserved for forensics, out of the way of restart path
//! probing) and reported, then the layers below are maintained. Committed
//! objects are never touched.
//!
//! Composition: the journal parses nothing *inside* the payload, so it
//! belongs nearest the backend media — wrap the innermost store
//! (`Journaled(Fs)`, then layer `Tiered`/`Replicated`/`Delta`/`Cas` on
//! top), or wrap a whole replicated stack to model end-to-end envelope
//! integrity. Content-parsing layers (`Delta`, `Cas`) must sit *above*
//! it: under it they see an opaque envelope and store it whole.
//! `Compressing` may sit on either side. The envelope keeps the image it
//! wraps ([`ImageBytes::framed`]), so compress CPU is priced from the
//! same dirty summaries either way; a torn envelope wraps no image and is
//! charged in full.
//!
//! [`Page::digest`]: mana_sim::page::Page::digest

use mana_core::chaos::ChaosHandle;
use mana_core::error::StoreError;
use mana_core::image::ImageBytes;
use mana_core::store::{CheckpointStore, Maintenance, QuarantinedObject};
use mana_sim::checksum::Checksum;
use mana_sim::fs::IoShape;
use mana_sim::scatter::ScatterBuf;
use mana_sim::time::SimDuration;

/// `"MANAJNL1"` as a little-endian u64.
const MAGIC: u64 = u64::from_le_bytes(*b"MANAJNL1");
/// `"COMMITED"` — the commit record, written (and validated) last.
const COMMIT: u64 = u64::from_le_bytes(*b"COMMITED");
const VERSION: u32 = 3;
/// Magic, version, payload length and run count: the header before the
/// chunk table.
const FIXED: usize = 8 + 4 + 8 + 4;
/// One chunk-table run: a chunk count and a chunk length.
const RUN: usize = 4 + 8;
const TRAILER: usize = 8 + 8;

/// Prefix under which a [`JournaledStore`]'s maintenance parks invalid
/// objects.
pub const QUARANTINE_PREFIX: &str = ".quarantine/";

const NEUTRAL_SHAPE: IoShape = IoShape {
    writers_on_node: 1,
    total_writers: 1,
};

/// Crash-consistent wrapper: atomic publish, torn-write detection, and a
/// quarantine scan at maintenance over any inner [`CheckpointStore`].
pub struct JournaledStore {
    inner: Box<dyn CheckpointStore>,
    /// Chaos seam: consulted at `put` time for armed torn writes, and
    /// told of every write this store tears.
    chaos: ChaosHandle,
}

/// The header and chunk table framing `payload`: one chunk per piece,
/// consecutive equal lengths folded into one run.
fn header_for(payload: &ScatterBuf) -> Vec<u8> {
    let mut runs: Vec<(u32, u64)> = Vec::new();
    for seg in payload.segments() {
        let len = seg.len() as u64;
        match runs.last_mut() {
            Some((count, run_len)) if *run_len == len && *count < u32::MAX => *count += 1,
            _ => runs.push((1, len)),
        }
    }
    let mut header = Vec::with_capacity(FIXED + runs.len() * RUN);
    header.extend_from_slice(&MAGIC.to_le_bytes());
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let count = u32::try_from(runs.len()).expect("fewer than 2^32 runs: a run per segment");
    header.extend_from_slice(&count.to_le_bytes());
    for (count, len) in runs {
        header.extend_from_slice(&count.to_le_bytes());
        header.extend_from_slice(&len.to_le_bytes());
    }
    header
}

/// The `(count, len)` runs of the chunk table in `header`.
fn table(header: &[u8]) -> impl Iterator<Item = (u32, u64)> + '_ {
    header[FIXED..]
        .chunks_exact(RUN)
        .map(|run| (u32_at(run, 0), u64_at(run, 4)))
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte field"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte field"))
}

impl JournaledStore {
    /// Journal every publish into `inner`.
    pub fn new(inner: impl CheckpointStore + 'static) -> JournaledStore {
        JournaledStore {
            inner: Box::new(inner),
            chaos: ChaosHandle::default(),
        }
    }

    /// Attach a chaos handle: faults armed through it (a crashing writer
    /// mid-`put`) tear the matching envelope write.
    pub fn with_chaos(mut self, chaos: ChaosHandle) -> JournaledStore {
        self.chaos = chaos;
        self
    }

    /// Wrap `payload` in the commit envelope without flattening it: the
    /// header, table and trailer are small owned segments, and the payload
    /// segments (shared pages and whole ropes included) pass through
    /// untouched. The
    /// fold reads each shared page's memoized digest and hashes only the
    /// owned runs. It rides on the envelope as its
    /// [`ImageBytes::record_digest`], which `CompressingStore` seeds its
    /// ratio from. The envelope keeps the payload's attached image
    /// ([`ImageBytes::framed`]), so `CompressingStore` prices the dirty
    /// pages as it would without the journal.
    fn frame(payload: ImageBytes) -> ImageBytes {
        payload.frame_with(|payload| {
            let header = header_for(&payload);
            let mut fold = Checksum::new();
            fold.update(&header);
            payload.piece_digests(|digest| fold.update_u64(digest));
            let digest = fold.digest();
            let mut env = ScatterBuf::from_vec(header);
            env.append(payload);
            env.push_owned([digest.to_le_bytes(), COMMIT.to_le_bytes()].concat());
            (env, digest)
        })
    }

    /// Validate `env` and return the payload scatter on success. Only the
    /// header, table and trailer are materialized (they are owned segments
    /// as framed) and split off the envelope, so the payload's shared rope
    /// pages move out unflattened and unread. Every chunk the table
    /// records is digested from the stored pieces: a stored page's memo
    /// when the chunk is that whole page, its bytes otherwise. Lengths
    /// read from the envelope are checked before any arithmetic or
    /// allocation uses them.
    fn validate(path: &str, mut env: ScatterBuf) -> Result<ScatterBuf, StoreError> {
        let torn = |why: &str| StoreError::Torn {
            path: path.to_string(),
            why: why.to_string(),
        };
        let corrupt = |why: String| StoreError::Corrupt {
            path: path.to_string(),
            why,
        };
        if env.is_empty() {
            return Err(torn("zero-length object"));
        }
        if env.len() < FIXED {
            return Err(torn("envelope header incomplete"));
        }
        let fixed = env.slice(0, FIXED).to_vec();
        let magic = u64_at(&fixed, 0);
        if magic != MAGIC {
            return Err(corrupt(format!("bad journal magic {magic:#018x}")));
        }
        let version = u32_at(&fixed, 8);
        if version != VERSION {
            return Err(corrupt(format!(
                "journal version {version}, expected {VERSION}"
            )));
        }
        let payload_len = u64_at(&fixed, 12);
        let runs = u32_at(&fixed, 20) as usize;
        let header_len = runs
            .checked_mul(RUN)
            .and_then(|table| table.checked_add(FIXED))
            .ok_or_else(|| corrupt(format!("{runs} chunk-table runs overflow")))?;
        if env.len() < header_len {
            return Err(torn("chunk table incomplete"));
        }
        let header = env.slice(0, header_len).to_vec();
        let mut covered = 0u64;
        for (count, len) in table(&header) {
            if len == 0 {
                return Err(corrupt("zero-length chunk in the chunk table".into()));
            }
            covered = len
                .checked_mul(u64::from(count))
                .and_then(|bytes| covered.checked_add(bytes))
                .ok_or_else(|| corrupt("chunk table overflows".into()))?;
        }
        if covered != payload_len {
            return Err(corrupt(format!(
                "chunk table covers {covered} bytes, payload_len is {payload_len}"
            )));
        }
        let total = usize::try_from(payload_len)
            .ok()
            .and_then(|len| len.checked_add(header_len + TRAILER))
            .ok_or_else(|| corrupt(format!("payload_len {payload_len} overflows")))?;
        if env.len() < total {
            return Err(torn("payload or commit trailer incomplete"));
        }
        if env.len() > total {
            return Err(corrupt(format!(
                "{} trailing bytes after commit record",
                env.len() - total
            )));
        }
        let trailer = env.split_off(total - TRAILER).to_vec();
        if u64_at(&trailer, 8) != COMMIT {
            return Err(torn("commit record never written"));
        }
        let payload = env.split_off(header_len);
        let mut fold = Checksum::new();
        fold.update(&header);
        // Every length fits: the chunks cover the payload, which is in memory.
        let lens = table(&header)
            .flat_map(|(count, len)| std::iter::repeat_n(len as usize, count as usize));
        payload.chunk_digests(lens, |digest| fold.update_u64(digest));
        let (got, want) = (fold.digest(), u64_at(&trailer, 0));
        if got != want {
            return Err(corrupt(format!(
                "commit fold {got:#018x} != recorded {want:#018x}"
            )));
        }
        Ok(payload)
    }

    /// Is the object at `path` present and committed?
    fn validated_get(&self, path: &str) -> Result<(), StoreError> {
        let (env, _) = self.inner.get(path, 0, NEUTRAL_SHAPE)?;
        JournaledStore::validate(path, env.into_scatter()).map(|_| ())
    }
}

impl CheckpointStore for JournaledStore {
    fn put(
        &self,
        path: &str,
        data: ImageBytes,
        logical_len: u64,
        rank: u64,
        shape: IoShape,
    ) -> SimDuration {
        let mut env = JournaledStore::frame(data);
        if let Some(keep_frac) = self.chaos.take_torn(path) {
            // The writer dies mid-write: only a strict prefix of the
            // envelope lands. The commit trailer is written last, so any
            // prefix fails validation. The prefix wraps no image.
            let mut prefix = env.into_scatter();
            let keep = ((prefix.len() as f64 * keep_frac.clamp(0.0, 1.0)) as usize)
                .min(prefix.len().saturating_sub(1));
            prefix.truncate(keep);
            env = prefix.into();
        }
        self.inner.put(path, env, logical_len, rank, shape)
    }

    fn get(
        &self,
        path: &str,
        rank: u64,
        shape: IoShape,
    ) -> Result<(ImageBytes, SimDuration), StoreError> {
        let (env, dur) = self.inner.get(path, rank, shape)?;
        let payload = JournaledStore::validate(path, env.into_scatter())?;
        Ok((ImageBytes::from(payload), dur))
    }

    fn below(&self) -> Option<&dyn CheckpointStore> {
        Some(&*self.inner)
    }

    /// A torn or corrupt object is detectably *absent*: only committed
    /// envelopes exist. This is what makes survivor computation honest —
    /// a checkpoint whose images include a torn write is not a survivor.
    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path) && self.validated_get(path).is_ok()
    }

    /// Quarantine every object below that fails envelope validation — a
    /// checkpoint is either fully durable or, after this scan, visibly
    /// gone — then maintain the layers below. Committed objects are never
    /// moved.
    fn maintain(&self, report: &mut Maintenance) {
        for path in self.inner.list() {
            if path.starts_with(QUARANTINE_PREFIX) {
                continue;
            }
            report.scanned += 1;
            let why = match self.validated_get(&path) {
                Ok(()) => continue,
                Err(e) => e.to_string(),
            };
            let raw = match self.inner.get(&path, 0, NEUTRAL_SHAPE) {
                Ok((d, _)) => d.into_scatter(),
                Err(_) => ScatterBuf::new(),
            };
            let quarantine_path = format!("{QUARANTINE_PREFIX}{path}");
            let len = raw.len() as u64;
            self.inner
                .put(&quarantine_path, raw.into(), len, 0, NEUTRAL_SHAPE);
            self.inner.remove(&path);
            report.quarantined.push(QuarantinedObject {
                path,
                quarantine_path,
                why,
            });
        }
        self.inner.maintain(report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{exercise_store, StoreChecks};
    use mana_core::chaos::FaultInjector;
    use mana_core::store::{FsStore, InMemStore};
    use mana_sim::fs::FsConfig;
    use std::sync::Arc;

    const SHAPE: IoShape = NEUTRAL_SHAPE;

    /// Arms nothing itself: tests tear a write through `arm_torn`.
    struct NoFaults;
    impl FaultInjector for NoFaults {}
    /// Where the payload starts when it was framed as one segment.
    const ONE_RUN: usize = FIXED + RUN;

    #[test]
    fn conformance_over_fs_and_mem() {
        exercise_store(
            &JournaledStore::new(FsStore::with_config(FsConfig::default())),
            StoreChecks::timed(),
        );
        exercise_store(
            &JournaledStore::new(InMemStore::new()),
            StoreChecks::untimed(),
        );
    }

    #[test]
    fn torn_put_is_detectably_absent_and_typed() {
        let chaos = ChaosHandle::new(NoFaults);
        let j = JournaledStore::new(InMemStore::new()).with_chaos(chaos.clone());
        j.put("d/full", vec![1; 100].into(), 100, 0, SHAPE);
        chaos.arm_torn("d/torn", 0.5);
        j.put("d/torn", vec![2; 100].into(), 100, 0, SHAPE);
        assert_eq!(chaos.log().torn_writes, vec!["d/torn".to_string()]);

        assert!(j.exists("d/full"));
        assert!(!j.exists("d/torn"), "torn object must read as absent");
        assert!(matches!(
            j.get("d/torn", 0, SHAPE),
            Err(StoreError::Torn { .. })
        ));
        let (data, _) = j.get("d/full", 0, SHAPE).unwrap();
        assert_eq!(data.to_vec(), vec![1; 100]);
    }

    #[test]
    fn every_tear_point_fails_validation() {
        // A writer can die after any byte: every strict prefix of the
        // envelope must be detectably invalid (never a silent success,
        // never a panic).
        let env = JournaledStore::frame(vec![7u8; 33].into()).to_vec();
        for keep in 0..env.len() {
            let inner = Arc::new(InMemStore::new());
            let j = JournaledStore::new(inner.clone());
            inner.put("p", env[..keep].to_vec().into(), keep as u64, 0, SHAPE);
            let err = j.get("p", 0, SHAPE).expect_err("prefix must not validate");
            assert!(
                matches!(err, StoreError::Torn { .. }),
                "prefix of {keep} bytes: {err}"
            );
            assert!(!j.exists("p"));
        }
    }

    #[test]
    fn bit_flips_surface_as_corrupt() {
        let inner = Arc::new(InMemStore::new());
        let j = JournaledStore::new(inner.clone());
        j.put("p", vec![9u8; 64].into(), 64, 0, SHAPE);
        let (env, _) = inner.get("p", 0, SHAPE).unwrap();
        // Flip one payload bit; header/trailer lengths stay plausible.
        let mut bad = env.to_vec();
        bad[ONE_RUN + 10] ^= 0x40;
        inner.put("p", bad.into(), 64, 0, SHAPE);
        assert!(matches!(
            j.get("p", 0, SHAPE),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(!j.exists("p"));
    }

    /// Store `env` raw under the journal and read it back through it.
    fn get_raw(env: Vec<u8>) -> Result<Vec<u8>, StoreError> {
        let inner = Arc::new(InMemStore::new());
        let len = env.len() as u64;
        inner.put("p", env.into(), len, 0, SHAPE);
        JournaledStore::new(inner)
            .get("p", 0, SHAPE)
            .map(|(data, _)| data.to_vec())
    }

    #[test]
    fn flips_anywhere_in_a_striped_payload_are_corrupt() {
        // Two whole 32-byte stripes plus a 13-byte ragged tail (8 + 4 + 1):
        // a flip must be caught whether the byte went through a lane, the
        // carry buffer's 8-, 4- or 1-byte fold, or sits last in the payload.
        let payload: Vec<u8> = (0..77u8).collect();
        let env = JournaledStore::frame(payload.clone().into()).to_vec();
        assert_eq!(get_raw(env.clone()).unwrap(), payload);
        for at in [0, 31, 32, 63, 64, 71, 72, 75, payload.len() - 1] {
            let mut bad = env.clone();
            bad[ONE_RUN + at] ^= 0x01;
            assert!(
                matches!(get_raw(bad), Err(StoreError::Corrupt { .. })),
                "flip in payload byte {at} went unnoticed"
            );
        }
    }

    #[test]
    fn a_version_1_envelope_is_corrupt_not_a_panic() {
        for version in [1u32, 2] {
            let mut env = JournaledStore::frame(vec![3u8; 40].into()).to_vec();
            env[8..12].copy_from_slice(&version.to_le_bytes());
            match get_raw(env) {
                Err(StoreError::Corrupt { why, .. }) => {
                    assert!(why.contains(&format!("version {version}")), "{why}")
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_length_near_u64_max_is_corrupt_not_a_panic() {
        // A valid magic and version, then a payload length near u64::MAX,
        // then one chunk-table run covering it (or overflowing): adding the
        // header and trailer lengths must not overflow.
        let near_max = u64::MAX - 7;
        for (count, len) in [(1u32, near_max), (u32::MAX, u64::MAX / 2)] {
            let mut env = Vec::new();
            env.extend_from_slice(&MAGIC.to_le_bytes());
            env.extend_from_slice(&VERSION.to_le_bytes());
            env.extend_from_slice(&near_max.to_le_bytes());
            env.extend_from_slice(&1u32.to_le_bytes());
            env.extend_from_slice(&count.to_le_bytes());
            env.extend_from_slice(&len.to_le_bytes());
            env.extend_from_slice(&[0; 64]);
            match get_raw(env) {
                Err(StoreError::Corrupt { why, .. }) => assert!(why.contains("overflow"), "{why}"),
                other => panic!("run ({count}, {len}): expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn the_table_records_one_chunk_per_segment_in_runs() {
        let mut payload = ScatterBuf::from_vec(vec![1; 10]);
        for fill in [2, 3, 4] {
            payload.push_shared(mana_sim::page::Page::from(&[fill; 4096][..]));
        }
        payload.push_owned(vec![5; 7]);
        let env = JournaledStore::frame(payload.clone().into());
        let header = header_for(&payload);
        assert_eq!(header.len(), FIXED + 3 * RUN);
        let runs: Vec<(u32, u64)> = table(&header).collect();
        assert_eq!(runs, vec![(1, 10), (3, 4096), (1, 7)]);
        // The fold is over the header, then each segment's own digest; it
        // is the trailer's digest word and the envelope's record digest.
        let mut fold = Checksum::new();
        fold.update(&header);
        for seg in payload.segments() {
            fold.update_u64(mana_sim::checksum::checksum_bytes(seg));
        }
        let flat = env.to_vec();
        let trailer = &flat[flat.len() - TRAILER..];
        assert_eq!(u64_at(trailer, 0), fold.digest());
        assert_eq!(env.record_digest(), Some(fold.digest()));
        assert_eq!(get_raw(flat).unwrap(), payload.to_vec());
    }

    #[test]
    fn a_rope_validates_from_its_listed_digests_and_a_flipped_twin_is_corrupt() {
        use mana_sim::memory::{DenseSnap, PAGE};
        use mana_sim::scatter::Segment;
        let bytes: Vec<u8> = (0..5 * PAGE as usize + 9).map(|i| (i * 7) as u8).collect();
        let rope = DenseSnap::from_bytes(&bytes);
        let mut payload = ScatterBuf::from_vec(vec![1; 10]);
        payload.push_rope(rope.clone());
        payload.push_owned(vec![2; 3]);
        let inner = Arc::new(InMemStore::new());
        let j = JournaledStore::new(inner.clone());
        j.put("p", payload.clone().into(), 0, 0, SHAPE);
        assert!(rope.listed_page_digests().is_some(), "framing lists them");
        assert_eq!(j.get("p", 0, SHAPE).unwrap().0.scatter(), &payload);
        // The stored envelope with its rope replaced by `twin`.
        let (env, _) = inner.get("p", 0, SHAPE).unwrap();
        let swap = |twin: DenseSnap| {
            let mut out = ScatterBuf::new();
            for seg in env.scatter().raw_segments() {
                match seg {
                    Segment::Rope(_) => out.push_rope(twin.clone()),
                    Segment::Owned(v) => out.push_owned(v.clone()),
                    Segment::Shared(p) => out.push_shared(p.clone()),
                }
            }
            inner.put("p", out.into(), 0, 0, SHAPE);
            j.get("p", 0, SHAPE).map(|(data, _)| data.to_vec())
        };
        for at in [0, PAGE as usize + 17, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x10;
            let twin = DenseSnap::from_bytes(&flipped);
            twin.page_digests();
            match swap(twin) {
                Err(StoreError::Corrupt { .. }) => {}
                other => panic!("a twin flipped at {at} gave {other:?}"),
            }
        }
        let equal = DenseSnap::from_bytes(&bytes);
        assert_eq!(swap(equal.clone()).unwrap(), payload.to_vec());
        assert!(
            equal.listed_page_digests().is_none(),
            "a read lists nothing"
        );
    }

    #[test]
    fn a_put_hashes_only_pages_new_since_the_last_snapshot_and_a_get_none() {
        use mana_sim::memory::{
            AddressSpace, Backing, DenseBuf, Half, RegionKind, SnapshotContent, PAGE,
        };
        use mana_sim::scatter::{reset_shared_hashed_bytes, shared_hashed_bytes};
        const PAGES: u64 = 32;
        let mem = AddressSpace::new();
        let start = mem
            .map(
                Half::Upper,
                RegionKind::Mmap,
                "state",
                PAGES * PAGE,
                Backing::Dense(DenseBuf::zeroed((PAGES * PAGE) as usize)),
            )
            .unwrap();
        let j = JournaledStore::new(InMemStore::new());
        // Each generation frames the snapshot's pages behind a small owned
        // run, as an encoded image does.
        let put = |generation: u64| {
            let mut payload = ScatterBuf::from_vec(generation.to_le_bytes().to_vec());
            for region in mem.snapshot_half_tracked(Half::Upper).regions {
                let SnapshotContent::Dense(rope) = region.content else {
                    continue;
                };
                for i in 0..rope.page_count() {
                    payload.push_shared(rope.page_handle(i));
                }
            }
            reset_shared_hashed_bytes();
            let path = format!("h/ckpt_{generation}/rank_0.mana");
            j.put(&path, payload.into(), 0, 0, SHAPE);
            mem.clear_dirty(Half::Upper);
            shared_hashed_bytes()
        };
        assert_eq!(put(1), PAGES * PAGE, "a first put hashes every page");
        mem.write_bytes(start + 5 * PAGE + 8, &[7; 8]).unwrap();
        assert_eq!(put(2), PAGE, "one dirty page: exactly that page");
        assert_eq!(put(3), 0, "nothing dirty: nothing hashed");
        reset_shared_hashed_bytes();
        j.get("h/ckpt_2/rank_0.mana", 0, SHAPE).unwrap();
        assert_eq!(
            shared_hashed_bytes(),
            0,
            "a get reads the stored pages' memos"
        );
        reset_shared_hashed_bytes();
        assert!(j.exists("h/ckpt_3/rank_0.mana"));
        assert_eq!(shared_hashed_bytes(), 0, "so does exists");
    }

    #[test]
    fn a_maintenance_walk_hashes_no_committed_page() {
        use crate::{ReplicaConfig, ReplicatedStore, TierConfig, TieredStore};
        use mana_sim::page::Page;
        use mana_sim::scatter::{reset_shared_hashed_bytes, shared_hashed_bytes};
        // The chaos driver's stack: Tiered(Journaled(Replicated(InMem × 2))).
        let replicated = ReplicatedStore::with_replicas(
            ReplicaConfig {
                write_quorum: 2,
                ..ReplicaConfig::default()
            },
            2,
            |_| InMemStore::new(),
        );
        let chaos = ChaosHandle::new(NoFaults);
        let tiered = TieredStore::new(
            TierConfig::burst_buffer(),
            JournaledStore::new(replicated).with_chaos(chaos.clone()),
        );
        let path = |generation: u8| format!("m/ckpt_{generation}/rank_0.mana");
        for generation in 1..=3u8 {
            let mut payload = ScatterBuf::from_vec(vec![generation; 24]);
            for p in 0..16u8 {
                payload.push_shared(Page::from(&[generation ^ p; 4096][..]));
            }
            if generation == 3 {
                chaos.arm_torn(&path(generation), 0.5);
            }
            tiered.put(&path(generation), payload.into(), 0, 0, SHAPE);
            // Drains frame the envelope into the journal: its put hashes
            // the new pages.
            tiered.begin_epoch();
        }
        assert_eq!(chaos.log().torn_writes, vec![path(3)]);
        assert!(tiered.drain_ledger().is_empty());

        reset_shared_hashed_bytes();
        let mut report = Maintenance::default();
        tiered.maintain(&mut report);
        assert!(tiered.exists(&path(1)) && tiered.exists(&path(2)));
        assert_eq!(shared_hashed_bytes(), 0, "memo hits only");
        assert_eq!(report.scanned, 3);
        let quarantined: Vec<(&str, &str)> = report
            .quarantined
            .iter()
            .map(|q| (q.path.as_str(), q.why.as_str()))
            .collect();
        assert_eq!(
            quarantined,
            vec![(
                "m/ckpt_3/rank_0.mana",
                "checkpoint object at 'm/ckpt_3/rank_0.mana' torn mid-write: \
                 payload or commit trailer incomplete"
            )]
        );
        assert!(!tiered.exists(&path(3)));
    }

    #[test]
    fn recover_quarantines_torn_never_committed() {
        let inner = Arc::new(InMemStore::new());
        let chaos = ChaosHandle::new(NoFaults);
        let j = JournaledStore::new(inner.clone()).with_chaos(chaos.clone());
        for r in 0..3 {
            j.put(
                &format!("ck/ckpt_1/rank_{r}.mana"),
                vec![r as u8; 50].into(),
                50,
                0,
                SHAPE,
            );
        }
        chaos.arm_torn("ck/ckpt_2/rank_0.mana", 0.7);
        j.put("ck/ckpt_2/rank_0.mana", vec![5; 50].into(), 50, 0, SHAPE);
        inner.put("ck/stray", vec![1, 2, 3].into(), 3, 0, SHAPE); // unframed garbage

        let mut report = Maintenance::default();
        j.maintain(&mut report);
        assert_eq!(report.scanned, 5);
        let paths: Vec<&str> = report.quarantined.iter().map(|q| q.path.as_str()).collect();
        assert_eq!(paths, vec!["ck/ckpt_2/rank_0.mana", "ck/stray"]);
        // Quarantined objects are out of the way but preserved...
        assert!(!inner.exists("ck/ckpt_2/rank_0.mana"));
        assert!(inner.exists(".quarantine/ck/ckpt_2/rank_0.mana"));
        // ...and committed ones untouched.
        for r in 0..3 {
            assert!(j.exists(&format!("ck/ckpt_1/rank_{r}.mana")));
        }
        // A second scan finds nothing new (quarantine is skipped).
        let mut again = Maintenance::default();
        j.maintain(&mut again);
        assert_eq!(again.scanned, 3);
        assert!(again.quarantined.is_empty());
    }
}
