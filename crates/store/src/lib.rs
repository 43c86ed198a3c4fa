//! # mana-store — composable checkpoint-storage backends
//!
//! MANA's promise is that a checkpoint outlives clusters and MPI
//! implementations, which makes *where and how images are stored* a
//! first-class axis of the system: the NERSC production deployment found
//! storage behavior — burst buffers vs. Lustre, write volume, image
//! lifecycle — to dominate checkpoint cost at scale. This crate grows the
//! two in-tree backends of `mana_core::store` into a composable subsystem
//! behind the same [`CheckpointStore`] seam:
//!
//! * [`TieredStore`] — a bounded-capacity burst-buffer tier over a slow
//!   global tier: `put` commits to the burst tier and charges only the
//!   fast-tier write, and the drain completes on a modeled background
//!   clock (forked-checkpoint semantics: a later `get`
//!   or capacity pressure pays the remaining drain time);
//! * [`CompressingStore`] — shrinks stored `logical_len` by a
//!   content-seeded ratio and charges compress/decompress CPU time;
//! * [`ReplicatedStore`] — N replicas, each up until a caller (the chaos
//!   driver, a test) kills it; `put` charges the slowest-of-quorum write,
//!   `get` fails over past dead, torn or corrupt replicas;
//! * [`DeltaStore`] — incremental checkpoints that diff each rank's
//!   region payloads against the previous generation by page digest and
//!   write only changed pages plus a base reference, reconstructing full
//!   images on `get` by replaying the delta chain;
//! * [`JournaledStore`] — crash-consistent publish: every object is
//!   framed in a checksummed commit envelope written commit-word-last, so
//!   a writer that dies mid-`put` leaves a *detectably absent* object
//!   (typed [`mana_core::StoreError::Torn`]), and its
//!   [`maintain`](CheckpointStore::maintain) scan after a crash
//!   quarantines every partial image;
//! * [`CasStore`] — content-addressed storage that keys every 4 KiB
//!   page of every rank image by its digest and stores identical pages
//!   once per store, with refcounted GC;
//! * [`conformance::exercise_store`] — the shared semantics suite every
//!   backend passes.
//!
//! Every backend is deterministic under a seed, so simulations that
//! choose a storage stack stay bit-reproducible.
//!
//! # Writing a layer
//!
//! A layer is a [`CheckpointStore`] that wraps one other store. Write
//! `put` and `get`, name the wrapped store in
//! [`below`](CheckpointStore::below), and override only what the layer
//! changes: everything else — `begin_epoch`, `exists`, `logical_len`,
//! `remove`, `list` — passes through `below()` untouched. A layer with
//! state of its own to repair after a crash overrides
//! [`maintain`](CheckpointStore::maintain): it settles that state, adds
//! what it did to the [`Maintenance`] report, then maintains the store
//! below. Recovery of a whole stack is then one `maintain` call on its
//! top: [`TieredStore`] resumes its drain ledger, [`JournaledStore`]
//! quarantines torn envelopes, [`ReplicatedStore`] heals its replicas —
//! top-down, in that order.
//!
//! # Example: an async-drain burst buffer over compressed Lustre
//!
//! ```
//! use mana_core::{CheckpointStore, FsStore};
//! use mana_sim::fs::{FsConfig, IoShape};
//! use mana_store::{CompressingStore, CompressionConfig, TierConfig, TieredStore};
//!
//! let lustre = FsStore::with_config(FsConfig::default());
//! let compressed = CompressingStore::new(CompressionConfig::default(), lustre);
//! let store = TieredStore::new(TierConfig::burst_buffer(), compressed);
//!
//! let shape = IoShape { writers_on_node: 1, total_writers: 1 };
//! // The checkpoint-visible cost is the burst-buffer write alone; the
//! // compressed Lustre write drains in the background.
//! let visible = store.put("ckpt/ckpt_1/rank_0.mana", vec![7; 64].into(), 1 << 30, 0, shape);
//! // A read before the drain finished pays the remaining drain time.
//! let (_data, read) = store.get("ckpt/ckpt_1/rank_0.mana", 0, shape).unwrap();
//! assert!(read > visible);
//! ```

#![warn(missing_docs)]

pub mod cas;
pub mod compress;
pub mod conformance;
pub mod delta;
pub mod journal;
pub mod replicated;
pub mod tiered;

pub use cas::{CasConfig, CasStats, CasStore};
pub use compress::{CompressingStore, CompressionConfig};
pub use conformance::{exercise_store, StoreChecks};
pub use delta::{DeltaConfig, DeltaStore};
pub use journal::{JournaledStore, QUARANTINE_PREFIX};
pub use mana_core::store::{CheckpointStore, HealReport, Maintenance, QuarantinedObject};
pub use replicated::{ReplicaConfig, ReplicatedStore};
pub use tiered::{DrainEntry, DrainState, TierConfig, TieredStore};
