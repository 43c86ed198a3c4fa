//! # mana-core — MPI-Agnostic Network-Agnostic transparent checkpointing
//!
//! The paper's contribution (Garg, Price, Cooperman — HPDC'19), built on
//! the `mana-sim` / `mana-net` / `mana-mpi` substrates:
//!
//! * **split process** ([`split`]): upper-half application image vs the
//!   ephemeral lower-half MPI library; `sbrk` interposition;
//! * **handle virtualization & record-replay** ([`virtid`], [`record`]):
//!   communicators, groups, datatypes and requests survive library
//!   replacement;
//! * **point-to-point drain** ([`buffer`], [`helper`]): bookmark exchange
//!   plus network flush into checkpointable buffers;
//! * **two-phase collectives** ([`cell`], [`wrapper`], [`coordinator`]):
//!   Algorithm 1/2 with the trivial barrier, intent/extra-iteration/
//!   do-ckpt protocol and a coordinator-side safety rule;
//! * **coordinator topologies** ([`topology`]): one driver loop runs the
//!   pure [`coordinator::Coordinator`] of each role on its sim thread —
//!   the DMTCP-style flat star's root, or a per-node tree's root and
//!   sub-coordinators with in-tree aggregation (the §3.4 scaling fix);
//! * **checkpoint images** ([`image`], [`codec`]): one binary format, one
//!   scatter encoder and one decoder, holding everything a restart needs;
//! * **checkpoint storage** ([`store`]): pluggable [`CheckpointStore`]
//!   backends (parallel filesystem, in-memory);
//! * **fault injection** ([`chaos`]): a config-embedded chaos seam polled
//!   at protocol-phase-aware points, so seeded fault plans can gang-crash
//!   the job mid-agreement/bookmark/drain/encode/publish and kill
//!   sub-coordinators mid-round;
//! * **the restart subsystem** ([`restart`]): a staged, verified pipeline
//!   — fresh lower half, restored upper half, *compacted* opaque-object
//!   log replayed against an explicit rebind map — on any
//!   cluster/implementation/network, with every failure typed;
//! * **the session API** ([`session`]): [`ManaSession`] + [`JobBuilder`] +
//!   [`Incarnation`], the lifecycle surface for chains of incarnations;
//! * **supervised recovery** ([`supervisor`]): a deadline- and
//!   budget-bounded retry loop with exponential backoff and
//!   fault-class-aware policy — transient faults retry the same image,
//!   image damage falls back to the next-oldest survivor, spec-level
//!   errors abort; every skip, retry and degraded mode lands in a typed
//!   [`supervisor::RecoveryReport`];
//! * **typed errors** ([`error`]) replacing panics on the restart path;
//! * **instrumentation** ([`stats`]) feeding the paper's figures.

#![warn(missing_docs)]

pub mod buffer;
pub mod cell;
pub mod chaos;
pub mod codec;
pub mod config;
pub mod coordinator;
pub mod ctrl;
pub mod env;
pub mod error;
pub mod helper;
pub mod image;
pub mod record;
pub mod restart;
pub mod runner;
pub mod session;
pub mod shared;
pub mod split;
pub mod stats;
pub mod store;
pub mod supervisor;
pub mod topology;
pub mod virtid;
pub mod wrapper;

pub use cell::{CkptCell, CollInstance, JobKilled, Park, Phase, RankProtocol};
pub use chaos::{
    ChaosHandle, ChaosLog, CrashRecord, DrainFault, FailoverRecord, FaultInjector, InjectPoint,
    RankFault, RestartCrashRecord, RestartPoint,
};
pub use config::{
    parse_image_path, AfterCkpt, CkptSchedule, ImagePathParts, ManaConfig, TopologyKind,
};
pub use ctrl::{ProtocolPhase, ProtocolViolation, StateAgg};
pub use env::{AppEnv, Arr, MemView, SlotId, Workload};
pub use error::{SessionError, SkipReason, SkippedCheckpoint, StoreError};
pub use image::CheckpointImage;
pub use restart::{
    BindSource, CompactedLog, CompactionStats, LiveSet, LogCompactor, RebindEntry, RestartError,
};
pub use runner::{ManaJobSpec, RunOutcome};
pub use session::{
    CkptEvent, CkptImages, Incarnation, JobBuilder, ManaSession, RestartEvent, SessionBuilder,
};
pub use stats::{CkptReport, RestartReport, RestartStage};
pub use store::{CheckpointStore, FsStore, GcPolicy, InMemStore};
pub use supervisor::{
    classify, DegradedMode, FaultClass, RecoveryReport, RestartSupervisor, RetryPolicy,
};
pub use topology::{assert_topologies_agree, run_checkpoint_chain, TopologyRunReport};
pub use wrapper::ManaMpi;
