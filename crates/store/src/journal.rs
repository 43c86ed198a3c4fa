//! Crash-consistent publish: [`JournaledStore`].
//!
//! A checkpoint is only worth taking if a crash *during* the checkpoint
//! cannot leave the store holding something that looks like a checkpoint
//! but isn't. `JournaledStore` wraps any [`CheckpointStore`] and makes
//! every `put` atomic-or-absent by framing the object in a commit
//! envelope:
//!
//! ```text
//! | magic (8)  | version (4) | payload_len (8) | payload | digest (8) | commit (8)  |
//! | "MANAJNL1" | 2           |                 |         | of payload | "COMMITED" |
//! ```
//!
//! All integers are little-endian; the digest is
//! [`ScatterBuf::checksum`] of the payload bytes ([`mana_sim::checksum`],
//! seed 0). The commit word is written last, so a
//! writer that dies mid-`put` leaves a prefix that fails validation —
//! [`StoreError::Torn`] — and `exists()` reports the object *absent*. That
//! is the memento-style discipline of detectable recoverability: a
//! checkpoint is either fully durable or detectably not there, never
//! silently half there. Bit rot in a fully-written envelope is caught by
//! the digest and surfaces as [`StoreError::Corrupt`].
//!
//! Version 2 changed what the digest word holds (the 4-lane streaming
//! digest of [`mana_sim::checksum`] instead of byte-serial FNV-1a). There
//! is no version-1 reader: envelopes live in simulated stores that do not
//! outlast the process that framed them, so any other version number is
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

use mana_core::chaos::ChaosHandle;
use mana_core::error::StoreError;
use mana_core::image::ImageBytes;
use mana_core::store::{CheckpointStore, Maintenance, QuarantinedObject};
use mana_sim::fs::IoShape;
use mana_sim::scatter::ScatterBuf;
use mana_sim::time::SimDuration;
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// `"MANAJNL1"` as a little-endian u64.
const MAGIC: u64 = u64::from_le_bytes(*b"MANAJNL1");
/// `"COMMITED"` — the commit record, written (and validated) last.
const COMMIT: u64 = u64::from_le_bytes(*b"COMMITED");
const VERSION: u32 = 2;
const HEADER: usize = 8 + 4 + 8;
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
    /// Chaos seam: consulted at `put` time for armed torn writes.
    chaos: ChaosHandle,
    /// Locally-armed torn writes (tests and direct drivers), by path.
    armed_torn: Mutex<BTreeMap<String, f64>>,
    /// Paths this store actually tore.
    torn_written: Mutex<Vec<String>>,
}

impl JournaledStore {
    /// Journal every publish into `inner`.
    pub fn new(inner: impl CheckpointStore + 'static) -> JournaledStore {
        JournaledStore {
            inner: Box::new(inner),
            chaos: ChaosHandle::default(),
            armed_torn: Mutex::new(BTreeMap::new()),
            torn_written: Mutex::new(Vec::new()),
        }
    }

    /// Attach a chaos handle: faults armed through it (a crashing writer
    /// mid-`put`) tear the matching envelope write.
    pub fn with_chaos(mut self, chaos: ChaosHandle) -> JournaledStore {
        self.chaos = chaos;
        self
    }

    /// Arm the next `put` at `path` to be torn: only the first
    /// `keep_frac` of the framed envelope reaches the inner store,
    /// simulating a writer that died mid-write. One-shot.
    pub fn arm_torn_put(&self, path: &str, keep_frac: f64) {
        self.armed_torn.lock().insert(path.to_string(), keep_frac);
    }

    /// Paths whose writes this store tore (in write order).
    pub fn torn_writes(&self) -> Vec<String> {
        self.torn_written.lock().clone()
    }

    /// Wrap `payload` in the commit envelope without flattening it: the
    /// header and trailer are small owned segments, the payload segments
    /// (shared rope pages included) pass through untouched, and the
    /// checksum streams over the scatter. The same pass yields the whole
    /// envelope's digest ([`ScatterBuf::framed`]), so a layer below that
    /// digests the envelope (`CompressingStore`'s ratio seed) looks it up
    /// instead of hashing the payload a second time. The envelope keeps
    /// the payload's attached image ([`ImageBytes::framed`]), so
    /// `CompressingStore` prices the dirty pages as it would without the
    /// journal.
    fn frame(payload: ImageBytes) -> ImageBytes {
        payload.frame_with(|payload| {
            let mut header = Vec::with_capacity(HEADER);
            header.extend_from_slice(&MAGIC.to_le_bytes());
            header.extend_from_slice(&VERSION.to_le_bytes());
            header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            ScatterBuf::framed(header, payload, |digest| {
                let mut trailer = Vec::with_capacity(TRAILER);
                trailer.extend_from_slice(&digest.to_le_bytes());
                trailer.extend_from_slice(&COMMIT.to_le_bytes());
                trailer
            })
        })
    }

    /// Validate `env` and return the payload scatter on success. Only the
    /// fixed-size header and trailer are materialized (they are single
    /// owned segments as framed); the payload stays a scatter — its
    /// shared rope pages pass through unflattened and the checksum
    /// streams segment-by-segment. It is always a full pass: the payload
    /// is a fresh slice that carries no framing digest, because a check
    /// that trusted a digest remembered at put time would verify nothing.
    fn validate(path: &str, env: &ScatterBuf) -> Result<ScatterBuf, StoreError> {
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
        if env.len() < HEADER {
            return Err(torn("envelope header incomplete"));
        }
        let header = env.slice(0, HEADER).to_vec();
        let magic = u64::from_le_bytes(header[0..8].try_into().unwrap());
        if magic != MAGIC {
            return Err(corrupt(format!("bad journal magic {magic:#018x}")));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(corrupt(format!(
                "journal version {version}, expected {VERSION}"
            )));
        }
        let payload_len = u64::from_le_bytes(header[12..20].try_into().unwrap()) as usize;
        let total = HEADER + payload_len + TRAILER;
        if env.len() < total {
            return Err(torn("payload or commit trailer incomplete"));
        }
        if env.len() > total {
            return Err(corrupt(format!(
                "{} trailing bytes after commit record",
                env.len() - total
            )));
        }
        let trailer = env.slice(total - TRAILER, total).to_vec();
        let commit = u64::from_le_bytes(trailer[8..16].try_into().unwrap());
        if commit != COMMIT {
            return Err(torn("commit record never written"));
        }
        let payload = env.slice(HEADER, HEADER + payload_len);
        let want = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
        let got = payload.checksum();
        if got != want {
            return Err(corrupt(format!(
                "payload checksum {got:#018x} != recorded {want:#018x}"
            )));
        }
        Ok(payload)
    }

    /// Is the object at `path` present and committed?
    fn validated_get(&self, path: &str) -> Result<(), StoreError> {
        let (env, _) = self.inner.get(path, 0, NEUTRAL_SHAPE)?;
        JournaledStore::validate(path, env.scatter()).map(|_| ())
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
        let armed = self
            .armed_torn
            .lock()
            .remove(path)
            .or_else(|| self.chaos.take_torn(path));
        if let Some(keep_frac) = armed {
            // The writer dies mid-write: only a strict prefix of the
            // envelope lands. The commit trailer is written last, so any
            // prefix fails validation. The prefix wraps no image.
            let mut prefix = env.into_scatter();
            let keep = ((prefix.len() as f64 * keep_frac.clamp(0.0, 1.0)) as usize)
                .min(prefix.len().saturating_sub(1));
            prefix.truncate(keep);
            env = prefix.into();
            self.torn_written.lock().push(path.to_string());
            self.chaos.note_torn_write(path);
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
        let payload = JournaledStore::validate(path, env.scatter())?;
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
    use mana_core::store::{FsStore, InMemStore};
    use mana_sim::fs::FsConfig;
    use std::sync::Arc;

    const SHAPE: IoShape = NEUTRAL_SHAPE;

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
        let j = JournaledStore::new(InMemStore::new());
        j.put("d/full", vec![1; 100].into(), 100, 0, SHAPE);
        j.arm_torn_put("d/torn", 0.5);
        j.put("d/torn", vec![2; 100].into(), 100, 0, SHAPE);
        assert_eq!(j.torn_writes(), vec!["d/torn".to_string()]);

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
        bad[HEADER + 10] ^= 0x40;
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
            bad[HEADER + at] ^= 0x01;
            assert!(
                matches!(get_raw(bad), Err(StoreError::Corrupt { .. })),
                "flip in payload byte {at} went unnoticed"
            );
        }
    }

    #[test]
    fn a_version_1_envelope_is_corrupt_not_a_panic() {
        let mut env = JournaledStore::frame(vec![3u8; 40].into()).to_vec();
        env[8..12].copy_from_slice(&1u32.to_le_bytes());
        match get_raw(env) {
            Err(StoreError::Corrupt { why, .. }) => assert!(why.contains("version 1"), "{why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn recover_quarantines_torn_never_committed() {
        let inner = Arc::new(InMemStore::new());
        let j = JournaledStore::new(inner.clone());
        for r in 0..3 {
            j.put(
                &format!("ck/ckpt_1/rank_{r}.mana"),
                vec![r as u8; 50].into(),
                50,
                0,
                SHAPE,
            );
        }
        j.arm_torn_put("ck/ckpt_2/rank_0.mana", 0.7);
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
