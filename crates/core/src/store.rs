//! Pluggable checkpoint storage.
//!
//! MANA's promise is that a checkpoint outlives clusters and MPI
//! implementations — which makes *where images live* a first-class axis of
//! the design. [`CheckpointStore`] abstracts it: the helper threads write
//! images through it, the restart engine reads them back, and the
//! coordinator signals checkpoint-epoch boundaries to it.
//!
//! Two implementations ship in-tree:
//!
//! * [`FsStore`] — the production-shaped default, backed by the simulated
//!   parallel filesystem ([`ParallelFs`], Lustre-like bandwidth contention
//!   and straggler tails);
//! * [`InMemStore`] — a zero-latency in-memory map for fast tests and for
//!   workflows where images never need to survive the process.

use crate::error::StoreError;
use crate::image::ImageBytes;
use mana_sim::fs::{FsConfig, IoShape, ParallelFs};
use mana_sim::time::SimDuration;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Where checkpoint images live.
///
/// Implementations model both the *contents* and the *cost*: `put`/`get`
/// return the virtual duration the calling rank's clock advances by, so a
/// store choice shapes checkpoint/restart timing exactly the way a real
/// storage tier would.
///
/// **Required and provided.** A store must write `put` and `get`. The rest
/// is provided on top of [`below`](CheckpointStore::below), the one store
/// a layer wraps: `begin_epoch`, `exists`, `logical_len`, `remove`, `list`
/// and [`maintain`](CheckpointStore::maintain) delegate to it. A store with
/// nothing below holds nothing — `exists` is `false`, `logical_len` is
/// `NotFound`, `list` is empty, `remove` and `begin_epoch` do nothing — so
/// the leaves ([`FsStore`], [`InMemStore`]) override the methods that see
/// what they hold. A wrapping layer names what it wraps in `below` and
/// **overrides only what it changes**: a journal validates in `exists`, a
/// delta store promotes a dependent in `remove`, and the rest passes
/// through untouched.
///
/// **No method parks.** A store *returns* its cost; the caller advances
/// its clock. No implementation may call a blocking scheduler operation
/// (`SimThread::advance`, `block`, ...): every simulated thread shares one
/// OS thread, so per-OS-thread state that is open across a store call —
/// the benchmark's thread-local span stack (`ledger/src/span.rs`) is one —
/// would otherwise be interleaved with another simulated thread's.
pub trait CheckpointStore: Send + Sync {
    /// Store `data` at `path` with the given logical length, returning the
    /// virtual write+fsync duration for a rank with I/O shape `shape`.
    ///
    /// `data` is a scatter of wire bytes ([`ImageBytes`]): clean snapshot
    /// pages arrive as shared rope handles and implementations must not
    /// flatten them on the hot path — backends that need contiguity for
    /// *their own* framing (journal envelopes, compression probes) flatten
    /// only their own segments.
    fn put(
        &self,
        path: &str,
        data: ImageBytes,
        logical_len: u64,
        rank: u64,
        shape: IoShape,
    ) -> SimDuration;

    /// Fetch the object at `path` plus the virtual read duration.
    ///
    /// The result is a scatter ([`ImageBytes`]): backends that stored a
    /// scatter hand it back with its shared rope pages intact (the
    /// zero-copy restart read path), and image-aware tiers (delta replay,
    /// CAS reassembly) attach the decoded image so
    /// [`crate::image::CheckpointImage::decode_shared`] skips the wire
    /// decode entirely. Callers that need contiguous bytes flatten with
    /// [`ImageBytes::to_vec`], paying (and tallying) the copy.
    fn get(
        &self,
        path: &str,
        rank: u64,
        shape: IoShape,
    ) -> Result<(ImageBytes, SimDuration), StoreError>;

    /// The store this layer wraps, if it wraps exactly one. Every provided
    /// method delegates through it. `None` (the default) for a leaf, and
    /// for a layer that fans out over several stores.
    fn below(&self) -> Option<&dyn CheckpointStore> {
        None
    }

    /// Called by the coordinator at the start of each checkpoint round
    /// (stores may use it to decorrelate per-epoch cost draws).
    fn begin_epoch(&self) {
        if let Some(below) = self.below() {
            below.begin_epoch();
        }
    }

    /// Whether `path` holds an object.
    fn exists(&self, path: &str) -> bool {
        self.below().is_some_and(|below| below.exists(path))
    }

    /// Logical length of the object at `path`.
    fn logical_len(&self, path: &str) -> Result<u64, StoreError> {
        match self.below() {
            Some(below) => below.logical_len(path),
            None => Err(StoreError::NotFound(path.to_string())),
        }
    }

    /// Delete the object at `path` (old-checkpoint garbage collection).
    /// Returns whether it existed.
    fn remove(&self, path: &str) -> bool {
        self.below().is_some_and(|below| below.remove(path))
    }

    /// All stored paths, sorted (deterministic iteration).
    fn list(&self) -> Vec<String> {
        self.below().map(|below| below.list()).unwrap_or_default()
    }

    /// Crash recovery: bring this layer and every layer below it back to
    /// a consistent state, adding what was found and done to `report`.
    /// Run it after a crash, before any restart probes the store. The walk
    /// is top-down: a layer that keeps state of its own (a drain ledger,
    /// journal envelopes, replicas) settles it first, then maintains what
    /// it wraps. Committed objects are never lost.
    fn maintain(&self, report: &mut Maintenance) {
        if let Some(below) = self.below() {
            below.maintain(report);
        }
    }
}

/// One object a journal's maintenance found invalid and moved aside.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedObject {
    /// The path the invalid object was found at.
    pub path: String,
    /// Where its bytes were parked (under the journal's quarantine
    /// prefix).
    pub quarantine_path: String,
    /// The validation failure that condemned it.
    pub why: String,
}

/// What one anti-entropy pass copied onto a replica.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealReport {
    /// Paths copied from a peer (sorted — the scan is deterministic).
    pub copied: Vec<String>,
    /// Physical bytes moved.
    pub bytes: u64,
    /// Paths present on some peer but not cleanly servable by any.
    pub unservable: Vec<String>,
}

/// What a [`CheckpointStore::maintain`] walk found and did, summed over
/// every layer it visited. A walk over a consistent stack adds nothing
/// but `scanned`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Maintenance {
    /// Objects a journal validated (its quarantine excluded).
    pub scanned: usize,
    /// Objects that failed validation and were moved out of the way.
    pub quarantined: Vec<QuarantinedObject>,
    /// Interrupted drains resumed from intact burst-tier copies (now
    /// durable on the slow tier).
    pub drains_resumed: Vec<String>,
    /// Drain-ledger entries whose fast data was gone: the object cannot
    /// be recovered and was quarantined out of the ledger (and removed
    /// from the slow tier if a partial write landed there).
    pub drains_quarantined: Vec<String>,
    /// Anti-entropy passes that copied something or found something no
    /// replica could serve: `(replica, what)`.
    pub heals: Vec<(usize, HealReport)>,
}

/// Shared handles are stores too: wrapping layers can take `Arc<S>` so a
/// caller (a test harness, the chaos driver) keeps a handle to a store
/// inside the stack — to kill and `revive` replicas, say — while the
/// wrapped stack serves the session. Recovery needs no handle: it is one
/// [`CheckpointStore::maintain`] walk from the top.
impl<S: CheckpointStore + ?Sized> CheckpointStore for Arc<S> {
    fn put(
        &self,
        path: &str,
        data: ImageBytes,
        logical_len: u64,
        rank: u64,
        shape: IoShape,
    ) -> SimDuration {
        (**self).put(path, data, logical_len, rank, shape)
    }

    fn get(
        &self,
        path: &str,
        rank: u64,
        shape: IoShape,
    ) -> Result<(ImageBytes, SimDuration), StoreError> {
        (**self).get(path, rank, shape)
    }

    fn below(&self) -> Option<&dyn CheckpointStore> {
        (**self).below()
    }

    fn begin_epoch(&self) {
        (**self).begin_epoch()
    }

    fn exists(&self, path: &str) -> bool {
        (**self).exists(path)
    }

    fn logical_len(&self, path: &str) -> Result<u64, StoreError> {
        (**self).logical_len(path)
    }

    fn remove(&self, path: &str) -> bool {
        (**self).remove(path)
    }

    fn list(&self) -> Vec<String> {
        (**self).list()
    }

    fn maintain(&self, report: &mut Maintenance) {
        (**self).maintain(report)
    }
}

/// Checkpoint garbage-collection policy, enforced by the session after
/// every successful checkpoint via [`CheckpointStore::remove`].
///
/// Production checkpointing keeps a small rolling window of images — the
/// NERSC deployment of MANA found image lifecycle management to be a
/// first-order storage cost at scale. `KeepLast(n)` deletes the oldest
/// checkpoint's images once more than `n` checkpoints exist in the
/// session's chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GcPolicy {
    /// Never delete images (the historical behaviour; the default).
    #[default]
    KeepAll,
    /// Keep only the newest `n` checkpoints' images.
    KeepLast(usize),
}

/// Checkpoint storage on the simulated parallel filesystem — the default,
/// matching the paper's Lustre deployment.
pub struct FsStore {
    fs: Arc<ParallelFs>,
}

impl FsStore {
    /// Store images on `fs`.
    pub fn new(fs: Arc<ParallelFs>) -> FsStore {
        FsStore { fs }
    }

    /// Store images on a fresh filesystem with the given parameters.
    pub fn with_config(cfg: FsConfig) -> FsStore {
        FsStore {
            fs: ParallelFs::new(cfg),
        }
    }

    /// The underlying filesystem.
    pub fn fs(&self) -> &Arc<ParallelFs> {
        &self.fs
    }
}

impl CheckpointStore for FsStore {
    fn put(
        &self,
        path: &str,
        data: ImageBytes,
        logical_len: u64,
        rank: u64,
        shape: IoShape,
    ) -> SimDuration {
        self.fs
            .write_file(path, data.into_scatter(), logical_len, rank, shape)
    }

    fn get(
        &self,
        path: &str,
        rank: u64,
        shape: IoShape,
    ) -> Result<(ImageBytes, SimDuration), StoreError> {
        self.fs
            .read_file(path, rank, shape)
            .map(|(data, dur)| (ImageBytes::from(data), dur))
            .map_err(StoreError::from)
    }

    fn begin_epoch(&self) {
        self.fs.bump_epoch();
    }

    fn exists(&self, path: &str) -> bool {
        self.fs.exists(path)
    }

    fn logical_len(&self, path: &str) -> Result<u64, StoreError> {
        self.fs.logical_len(path).map_err(StoreError::from)
    }

    fn remove(&self, path: &str) -> bool {
        self.fs.remove(path)
    }

    fn list(&self) -> Vec<String> {
        self.fs.list()
    }
}

struct InMemObject {
    /// Stored content: the scatter as written — rope pages stay shared in
    /// both directions, so neither `put` nor `get` copies a page.
    data: mana_sim::scatter::ScatterBuf,
    logical_len: u64,
}

/// Zero-latency in-memory checkpoint storage for fast tests.
///
/// I/O costs nothing and there is no contention model, so checkpoint and
/// restart timing collapse to the protocol costs alone — useful both for
/// speed and for isolating protocol overhead in measurements.
#[derive(Default)]
pub struct InMemStore {
    objects: Mutex<HashMap<String, InMemObject>>,
}

impl InMemStore {
    /// Fresh empty store.
    pub fn new() -> InMemStore {
        InMemStore::default()
    }
}

impl CheckpointStore for InMemStore {
    fn put(
        &self,
        path: &str,
        data: ImageBytes,
        logical_len: u64,
        _rank: u64,
        _shape: IoShape,
    ) -> SimDuration {
        self.objects.lock().insert(
            path.to_string(),
            InMemObject {
                data: data.into_scatter(),
                logical_len,
            },
        );
        SimDuration::ZERO
    }

    fn get(
        &self,
        path: &str,
        _rank: u64,
        _shape: IoShape,
    ) -> Result<(ImageBytes, SimDuration), StoreError> {
        self.objects
            .lock()
            .get(path)
            .map(|o| (ImageBytes::from(o.data.clone()), SimDuration::ZERO))
            .ok_or_else(|| StoreError::NotFound(path.to_string()))
    }

    fn exists(&self, path: &str) -> bool {
        self.objects.lock().contains_key(path)
    }

    fn logical_len(&self, path: &str) -> Result<u64, StoreError> {
        self.objects
            .lock()
            .get(path)
            .map(|o| o.logical_len)
            .ok_or_else(|| StoreError::NotFound(path.to_string()))
    }

    fn remove(&self, path: &str) -> bool {
        self.objects.lock().remove(path).is_some()
    }

    fn list(&self) -> Vec<String> {
        let mut v: Vec<String> = self.objects.lock().keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: IoShape = IoShape {
        writers_on_node: 1,
        total_writers: 1,
    };

    fn exercise(store: &dyn CheckpointStore, timed: bool) {
        let d = store.put("a/x", vec![1, 2, 3].into(), 1 << 20, 0, SHAPE);
        assert_eq!(d > SimDuration::ZERO, timed);
        assert!(store.exists("a/x"));
        assert_eq!(store.logical_len("a/x").unwrap(), 1 << 20);
        let (data, rd) = store.get("a/x", 0, SHAPE).unwrap();
        assert_eq!(data.to_vec(), vec![1, 2, 3]);
        assert_eq!(rd > SimDuration::ZERO, timed);
        // logical_len is consistent across the put/get round-trip (a get
        // must not disturb it)...
        assert_eq!(store.logical_len("a/x").unwrap(), 1 << 20);
        // ...and tracks overwrites.
        store.put("a/x", vec![4, 5].into(), 2048, 0, SHAPE);
        assert_eq!(store.logical_len("a/x").unwrap(), 2048);
        let (data, _) = store.get("a/x", 0, SHAPE).unwrap();
        assert_eq!(data.to_vec(), vec![4, 5]);
        // A scatter put comes back out with its shared pages intact.
        let mut sb = mana_sim::scatter::ScatterBuf::new();
        sb.push_owned(vec![8; 16]);
        sb.push_shared(mana_sim::page::Page::from(&[3u8; 4096][..]));
        store.put("a/s", sb.into(), 4112, 0, SHAPE);
        let (back, _) = store.get("a/s", 0, SHAPE).unwrap();
        assert_eq!(back.scatter().shared_len(), 4096, "page sharing survived");
        assert!(store.remove("a/s"));
        assert!(matches!(
            store.get("a/missing", 0, SHAPE),
            Err(StoreError::NotFound(_))
        ));
        store.put("a/y", Vec::new().into(), 0, 0, SHAPE);
        assert_eq!(store.list(), vec!["a/x".to_string(), "a/y".to_string()]);
        assert!(store.remove("a/y"));
        assert!(!store.remove("a/y"));
        store.begin_epoch();
    }

    #[test]
    fn in_mem_store_semantics() {
        exercise(&InMemStore::new(), false);
    }

    #[test]
    fn fs_store_semantics() {
        exercise(&FsStore::with_config(FsConfig::default()), true);
    }
}
