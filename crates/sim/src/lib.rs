//! # mana-sim — deterministic cluster-simulation substrate
//!
//! This crate is the foundation of the MANA (HPDC'19) reproduction: a
//! discrete-event simulator providing everything the checkpointing system
//! sits on top of in the real world —
//!
//! * a **virtual clock** and a deterministic baton-passing scheduler on
//!   which simulated threads (MPI ranks, checkpoint helper threads, the
//!   coordinator) run as ordinary imperative Rust ([`sched`]),
//! * **per-rank address spaces** whose regions are tagged with the
//!   split-process half that owns them ([`memory`]),
//! * a **kernel cost model** capturing the FS-register overhead that
//!   dominates MANA's runtime cost ([`kernel`]),
//! * a **Lustre-like parallel filesystem** shared across simulations, so a
//!   checkpoint written by one cluster can be restarted on another
//!   ([`fs`]),
//! * **cluster presets** for the paper's two machines ([`cluster`]), and
//! * deterministic randomness and checksum helpers ([`rng`], [`checksum`]).
//!
//! Everything above this crate (network, MPI, MANA itself, the workloads)
//! is built from these parts; nothing here knows what MPI is.

#![warn(missing_docs)]

pub mod checksum;
pub mod cluster;
mod coro;
pub mod fs;
pub mod kernel;
pub mod memory;
pub mod pod;
pub mod rng;
pub mod scatter;
pub mod sched;
pub mod time;

pub use cluster::{ClusterSpec, InterconnectKind, Placement};
pub use fs::{FsConfig, FsError, IoShape, ParallelFs};
pub use kernel::KernelModel;
pub use memory::{
    AddressSpace, Backing, DenseBuf, DenseSnap, Half, HalfSnapshot, MemError, Region, RegionDirty,
    RegionKind, RegionMeta, RegionSnapshot, SnapshotContent, SnapshotStats,
};
pub use scatter::{ScatterBuf, Segment};
pub use sched::{SchedStats, Sim, SimConfig, SimThread, SimThreadId};
pub use time::{SimDuration, SimTime};
