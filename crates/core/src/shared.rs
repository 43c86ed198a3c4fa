//! Per-rank MANA state shared between the rank's main thread, its wrapper,
//! and its checkpoint helper thread. Everything in here (except the lower
//! half reference and the cell) is what a checkpoint image captures.
//!
//! Each virtual handle is stored once: its class's [`HandleTable`] maps
//! the id to one entry holding the real handle and the wrapper's state
//! for it — [`CommMeta`] for communicators, [`GroupMeta`] for groups, the
//! bare real handle for datatypes and [`WReq`] for requests.

use crate::buffer::{DrainBuffer, PairCounters};
use crate::cell::CkptCell;
use crate::record::LoggedCall;
use crate::virtid::{HandleClass, HandleTable};
use mana_mpi::{Mpi, ReqHandle};
use mana_sim::memory::AddressSpace;
use mana_sim::sched::Sim;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Wrapper-side metadata for one virtual communicator.
#[derive(Clone, Debug)]
pub struct CommMeta {
    /// Current lower-half real handle (0 for a null/burned id).
    pub real: u64,
    /// Members as global job ranks, comm-rank order. Shared, like the
    /// Cartesian lists: every [`RankShared::comm_meta`] lookup clones the
    /// handles, not the lists.
    pub members: Arc<[u32]>,
    /// Cartesian dims if a topology is attached.
    pub cart_dims: Arc<[u32]>,
    /// Cartesian periodicity.
    pub cart_periodic: Arc<[bool]>,
    /// Wrapper-collective sequence counter on this communicator (instance
    /// ids for the coordinator's safety rule; aligned across ranks).
    pub wseq: u64,
}

impl CommMeta {
    /// Comm-local rank of `global`, if a member.
    pub fn local_of(&self, global: u32) -> Option<u32> {
        self.members
            .iter()
            .position(|m| *m == global)
            .map(|i| i as u32)
    }
}

/// Wrapper-side state of one virtual group.
#[derive(Debug)]
pub struct GroupMeta {
    /// Current lower-half real handle.
    pub real: u64,
    /// Members as global job ranks, group-rank order.
    pub members: Vec<u32>,
}

/// Wrapper-level request state behind a virtual request id.
#[derive(Clone, Copy)]
pub enum WReq {
    /// A lower-half send request (eager already done or rendezvous).
    LowerSend(ReqHandle),
    /// An outstanding two-phase `MPI_Ibarrier` (§4.2). It survives
    /// checkpoints as an image's pending collective.
    TwoPhase {
        /// Virtual communicator.
        comm_virt: u64,
        /// Lower-half phase-1 (ibarrier) request — `None` right after
        /// restart, in which case completion re-issues phase 1 from
        /// scratch.
        lower_phase1: Option<ReqHandle>,
    },
}

/// Environment-level nonblocking-request slot. Slots are part of the
/// checkpointable application state: a posted receive that was skipped
/// during resume is re-issued from its slot descriptor; an issued send is
/// never re-sent (its payload was drained with the network).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SlotState {
    /// No outstanding operation.
    Empty,
    /// A posted receive (re-issuable).
    RecvPosted {
        /// Virtual communicator.
        comm_virt: u64,
        /// Source spec (comm-local; `u32::MAX` encodes ANY in the image).
        src: mana_mpi::SrcSpec,
        /// Tag spec.
        tag: mana_mpi::TagSpec,
        /// Destination managed-array address.
        arr_addr: u64,
        /// Byte offset within the array.
        offset: u64,
    },
    /// A send whose payload has left this rank. `vreq` is the runtime
    /// wrapper request for rendezvous completion; it does not survive a
    /// checkpoint (after restart the drain guarantees delivery, so the
    /// wait is a no-op).
    SendIssued {
        /// Runtime wrapper request, if any.
        vreq: Option<u64>,
    },
    /// A two-phase nonblocking collective; `vreq` is persistent (the
    /// wrapper's request entry is serialized under the same id).
    CollPending {
        /// Persistent wrapper request id.
        vreq: u64,
    },
}

/// Application progress cursor: the simulator-level stand-in for MANA's
/// saved stack and registers. `ops_done` counts completed application
/// operations in the current step; on restart the environment fast-forwards
/// (skips) exactly that many operations of the re-entered step.
#[derive(Debug, Default)]
pub struct Progress {
    /// Operations completed in the current application step.
    pub ops_done: u64,
    /// Operations to skip while resuming (from the image).
    pub resume_skip: u64,
    /// True until the first `begin_step` after a restore.
    pub resuming: bool,
    /// Managed allocations in creation order (address, byte length).
    pub allocs: Vec<(u64, u64)>,
    /// Allocation-rebind cursor used while resuming.
    pub alloc_cursor: usize,
    /// Nonblocking-request slots (checkpointable).
    pub slots: Vec<SlotState>,
    /// Monotone slot-id allocator (advances on skipped ops too, keeping
    /// ids deterministic across resume).
    pub slot_seq: u64,
    /// `slot_seq` as of the current step's `begin_step`. Restore rewinds
    /// the allocator to this value so the re-executed (skipped) operations
    /// of the partial step re-derive exactly the ids they allocated before
    /// the checkpoint.
    pub slot_seq_at_step: u64,
    /// Virtual handles created by completed operations of the *current*
    /// step, in creation order (checkpointable). On resume, skipped
    /// communicator/group/datatype creations re-derive their handles from
    /// this ledger — the handle analogue of `allocs`.
    pub step_created: Vec<u64>,
    /// Ledger cursor used while resuming (skipped creations consume
    /// entries in order; real creations append and advance it).
    pub created_cursor: usize,
}

/// All MANA state for one rank incarnation.
pub struct RankShared {
    /// Global rank id.
    pub rank: u32,
    /// World size.
    pub nranks: u32,
    /// Application name (goes into images).
    pub app_name: String,
    /// Root seed of the original run.
    pub seed: u64,
    /// Checkpoint state machine (rank ↔ helper).
    pub cell: CkptCell,
    /// Record-replay log (paper §2.2), in call order.
    pub log: Mutex<Vec<LoggedCall>>,
    /// Point-to-point bookmark counters.
    pub counters: Mutex<PairCounters>,
    /// Drained-message buffer.
    pub buffer: Mutex<DrainBuffer>,
    /// Application progress cursor.
    pub progress: Mutex<Progress>,
    /// Virtual communicators.
    pub comms: Mutex<HandleTable<CommMeta>>,
    /// Virtual groups.
    pub groups: Mutex<HandleTable<GroupMeta>>,
    /// Virtual datatypes and their real handles (definitions live in the
    /// lower half and are reconstructed by replay).
    pub dtypes: Mutex<HandleTable<u64>>,
    /// Cached per-base predefined datatype virtual ids.
    pub dtype_base_cache: Mutex<HashMap<mana_mpi::BaseType, u64>>,
    /// Virtual requests.
    pub reqs: Mutex<HandleTable<WReq>>,
    /// The rank's address space.
    pub aspace: Arc<AddressSpace>,
    /// The current lower half (set per incarnation; used by the helper's
    /// drain).
    pub lower: Mutex<Option<Arc<dyn Mpi>>>,
    /// Virtual id of the world communicator — explicit (set by
    /// `ManaMpi::fresh` on first run, by the restart engine from the
    /// image's `world_virt` on restore) instead of the historical
    /// smallest-live-comm-id coincidence.
    pub world_virt: Mutex<u64>,
}

impl RankShared {
    /// Fresh state for a first-run incarnation.
    pub fn new(
        sim: &Sim,
        rank: u32,
        nranks: u32,
        app_name: &str,
        seed: u64,
        aspace: Arc<AddressSpace>,
    ) -> Arc<RankShared> {
        Arc::new(RankShared {
            rank,
            nranks,
            app_name: app_name.to_string(),
            seed,
            cell: CkptCell::new(sim),
            log: Mutex::new(Vec::new()),
            counters: Mutex::new(PairCounters::default()),
            buffer: Mutex::new(DrainBuffer::new()),
            progress: Mutex::new(Progress::default()),
            comms: Mutex::new(HandleTable::new(HandleClass::Comm)),
            groups: Mutex::new(HandleTable::new(HandleClass::Group)),
            dtypes: Mutex::new(HandleTable::new(HandleClass::Dtype)),
            dtype_base_cache: Mutex::new(HashMap::new()),
            reqs: Mutex::new(HandleTable::new(HandleClass::Req)),
            aspace,
            lower: Mutex::new(None),
            world_virt: Mutex::new(0),
        })
    }

    /// Metadata for a virtual communicator.
    pub fn comm_meta(&self, comm_virt: u64) -> CommMeta {
        self.comms.lock().get(comm_virt).clone()
    }

    /// Live (non-null) virtual communicators in id order — the drain
    /// iterates these.
    pub fn live_comm_virts(&self) -> Vec<u64> {
        self.comms
            .lock()
            .iter()
            .filter(|(_, m)| m.real != 0)
            .map(|(v, _)| v)
            .collect()
    }
}
