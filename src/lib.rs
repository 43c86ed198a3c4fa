//! # MANA for MPI — a Rust reproduction
//!
//! MPI-Agnostic Network-Agnostic transparent checkpointing (Garg, Price,
//! Cooperman — HPDC 2019), reproduced as a full system on a deterministic
//! cluster simulator. This facade crate re-exports the workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`sim`] | discrete-event substrate: scheduler, address spaces, kernel & filesystem models |
//! | [`net`] | interconnect models (SHM/TCP/InfiniBand/Aries) and transport |
//! | [`mpi`] | the simulated MPI libraries ("Cray MPICH", "Open MPI", "MPICH") |
//! | [`core`] | MANA itself: split process, virtualization, record-replay, drain, two-phase collectives, coordinator, images, sessions, restart |
//! | [`store`] | composable checkpoint-storage backends: tiered/burst-buffer (async drain), compressing, replicated, incremental-delta |
//! | [`apps`] | GROMACS/miniFE/HPCG/CLAMR/LULESH-like workloads + OSU microbenchmarks |
//! | [`chaos`] | seeded fault injection: kill ranks/nodes/sub-coordinators mid-protocol, tear image writes, darken replicas — and verify every chain heals |
//! | [`model_check`] | explicit-state verification of the checkpoint protocol (§2.6) |
//!
//! ## Quickstart
//!
//! The lifecycle API is session-centric: a [`ManaSession`] owns checkpoint
//! storage and statistics across a whole chain of incarnations, a
//! [`JobBuilder`] describes one incarnation, and each completed
//! [`core::Incarnation`] can be restarted elsewhere with `restart_on`.
//!
//! ```
//! use mana::core::{JobBuilder, ManaSession};
//! use mana::mpi::MpiProfile;
//! use mana::sim::cluster::ClusterSpec;
//! use mana::sim::time::SimTime;
//!
//! let session = ManaSession::new(); // Lustre-like FsStore by default
//! let app = mana::apps::make_app_small(mana::apps::AppKind::Gromacs, 6);
//!
//! // Run GROMACS under MANA on a Cori-like cluster, checkpoint once
//! // mid-run, kill the job (simulating preemption)...
//! let killed = session
//!     .run(
//!         JobBuilder::new()
//!             .cluster(ClusterSpec::cori(2))
//!             .ranks(8)
//!             .profile(MpiProfile::cray_mpich())
//!             .seed(1)
//!             .checkpoint_at(SimTime(180_300_000))
//!             .then_kill(),
//!         app.clone(),
//!     )
//!     .unwrap();
//! assert!(killed.killed());
//! assert_eq!(killed.ckpts().len(), 1);
//!
//! // ...then restart it under a different MPI implementation on a
//! // different cluster, and it completes as if never interrupted.
//! let resumed = killed
//!     .restart_on(
//!         JobBuilder::new()
//!             .cluster(ClusterSpec::local_cluster(2))
//!             .profile(MpiProfile::open_mpi()),
//!     )
//!     .unwrap();
//! assert!(!resumed.killed());
//! ```

#![warn(missing_docs)]

pub use mana_apps as apps;
pub use mana_chaos as chaos;
pub use mana_core as core;
pub use mana_model_check as model_check;
pub use mana_mpi as mpi;
pub use mana_net as net;
pub use mana_sim as sim;
pub use mana_store as store;

pub use mana_core::{JobBuilder, ManaSession};
