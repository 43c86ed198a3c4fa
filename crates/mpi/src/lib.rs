//! # mana-mpi — simulated MPI substrate
//!
//! A handle-based MPI API ([`api::Mpi`]) with three behaviourally distinct
//! implementations ("Cray MPICH", "Open MPI", "MPICH" — see
//! [`profile::MpiProfile`]), a point-to-point engine with eager and
//! rendezvous protocols, a synchronizing collective engine with
//! per-implementation algorithm cost models, communicators/groups/derived
//! datatypes/Cartesian topologies, and a job launcher.
//!
//! This crate knows nothing about checkpointing. MANA (in `mana-core`)
//! wraps the [`api::Mpi`] trait from the outside — which is the paper's
//! whole point: the checkpointer lives *above* the MPI library and treats
//! it as an ephemeral black box.

#![warn(missing_docs)]

pub mod api;
pub mod coll;
pub mod comm;
pub mod dtype;
pub mod job;
pub mod p2p;
pub mod profile;
pub mod rank;
pub mod types;
pub mod wire;

pub use api::Mpi;
pub use comm::{dims_create, CartTopo, CommInfo, WORLD_CTX};
pub use dtype::{BaseType, DtypeDef};
pub use job::{launch_native, run_native, MpiJob, RankBody};
pub use p2p::MpiAborted;
pub use profile::MpiProfile;
pub use rank::COMM_NULL;
pub use types::{
    CommHandle, DtypeHandle, GroupHandle, Msg, Rank, ReduceOp, ReqHandle, SrcSpec, Status, Tag,
    TagSpec,
};
