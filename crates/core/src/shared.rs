//! Per-rank MANA state shared between the rank's main thread, its wrapper,
//! and its checkpoint helper thread: the rank's identity, its checkpoint
//! cell and address space, and [`RankState`] — the upper half's MANA
//! state, behind one lock.
//!
//! Each virtual handle is stored once: its class's [`HandleTable`] maps
//! the id to one entry holding the real handle and the wrapper's state
//! for it — [`CommMeta`] for communicators, [`GroupMeta`] for groups, the
//! bare real handle for datatypes and [`WReq`] for requests.

use crate::buffer::{DrainBuffer, PairCounters};
use crate::cell::{CkptCell, CollInstance};
use crate::image::{CheckpointImage, PendingColl, VirtCommEntry};
use crate::record::LoggedCall;
use crate::virtid::{HandleClass, HandleTable, UNBOUND_REAL};
use mana_mpi::{BaseType, MpiJob, ReqHandle};
use mana_sim::memory::AddressSpace;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Wrapper-side metadata for one virtual communicator.
#[derive(Clone, Debug)]
pub struct CommMeta {
    /// Current lower-half real handle (0 for a null/burned id).
    pub real: u64,
    /// Members as global job ranks, comm-rank order. Shared, like the
    /// Cartesian lists: cloning a `CommMeta` clones the handles, not the
    /// lists.
    pub members: Arc<[u32]>,
    /// Cartesian dims if a topology is attached.
    pub cart_dims: Arc<[u32]>,
    /// Cartesian periodicity.
    pub cart_periodic: Arc<[bool]>,
    /// Wrapper-collective sequence counter on this communicator (instance
    /// ids for the coordinator's safety rule; aligned across ranks).
    pub wseq: u64,
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
/// operations from the start of the workload's `run`: the prologue's
/// (everything before the first `begin_step`) plus the current step's. On
/// restart the environment fast-forwards (skips) exactly that many
/// operations: the whole prologue, then the re-entered step's completed
/// ones.
#[derive(Debug, Default)]
pub struct Progress {
    /// Operations completed in the prologue plus the current step.
    pub ops_done: u64,
    /// Operations to skip while resuming (from the image).
    pub resume_skip: u64,
    /// The operations and handle creations the prologue completed, set by
    /// the first `begin_step`; each later one rewinds the cursors to it.
    pub prologue: Option<(u64, usize)>,
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
    /// Virtual handles created by completed operations of the prologue
    /// and the *current* step, in creation order (checkpointable). On
    /// resume, skipped communicator/group/datatype creations re-derive
    /// their handles from this ledger — the handle analogue of `allocs`.
    pub step_created: Vec<u64>,
    /// Ledger cursor used while resuming (skipped creations consume
    /// entries in order; real creations append and advance it).
    pub created_cursor: usize,
}

/// A rank's upper-half MANA state (paper §2.2–2.3) behind one lock,
/// [`RankShared::state`]: the virtual-id tables, the record-replay log,
/// the drain's counters and buffer, and the application's progress cursor.
///
/// An image carries (`RankState::capture`) the tables' live ids (with
/// each communicator's members and topology), the log, the counters, the
/// buffer, the two-phase requests as pending collectives, `world_virt`,
/// and the progress fields `ops_done`, `allocs`, `slots`, `slot_seq`,
/// `slot_seq_at_step` and `step_created`. Restart rebuilds the rest
/// (`RankState::restored`): real handles and group members by replay
/// and rebind, `dtype_base_cache` by replay, `wseq` from the pending
/// collectives; lower-half send requests do not survive. `alloc_cursor`,
/// `created_cursor`, `resume_skip` and `prologue` are runtime cursors:
/// the resumed run's prologue re-derives `prologue` as it is skipped.
pub struct RankState {
    /// Record-replay log (paper §2.2), in call order.
    pub log: Vec<LoggedCall>,
    /// Point-to-point bookmark counters.
    pub counters: PairCounters,
    /// Drained-message buffer.
    pub buffer: DrainBuffer,
    /// Application progress cursor.
    pub progress: Progress,
    /// Virtual communicators.
    pub comms: HandleTable<CommMeta>,
    /// Virtual groups.
    pub groups: HandleTable<GroupMeta>,
    /// Virtual datatypes and their real handles (definitions live in the
    /// lower half and are reconstructed by replay).
    pub dtypes: HandleTable<u64>,
    /// Cached per-base predefined datatype virtual ids.
    pub dtype_base_cache: HashMap<BaseType, u64>,
    /// Virtual requests.
    pub reqs: HandleTable<WReq>,
    /// Virtual id of the world communicator (set by `ManaMpi::fresh` on
    /// first run, from the image on restore).
    pub world_virt: u64,
}

impl RankState {
    fn new() -> RankState {
        RankState {
            log: Vec::new(),
            counters: PairCounters::default(),
            buffer: DrainBuffer::new(),
            progress: Progress::default(),
            comms: HandleTable::new(HandleClass::Comm),
            groups: HandleTable::new(HandleClass::Group),
            dtypes: HandleTable::new(HandleClass::Dtype),
            dtype_base_cache: HashMap::new(),
            reqs: HandleTable::new(HandleClass::Req),
            world_virt: 0,
        }
    }

    /// The state an image restores to, except the drained-message buffer
    /// (its own restart stage). Every restored handle entry is unbound
    /// until restart replay binds it. Returns the pending collectives'
    /// instances, which the rank re-enters in phase 1: the instance number
    /// is re-derived identically on every member (all-or-none: phase-2
    /// completion is collective, so either every member's image carries
    /// the pending descriptor or none does).
    pub(crate) fn restored(img: &CheckpointImage) -> (RankState, Vec<CollInstance>) {
        let mut st = RankState::new();
        st.world_virt = img.world_virt;
        st.counters = img.counters.clone();
        st.log = img.log.clone();
        st.progress = Progress {
            resume_skip: img.ops_done,
            allocs: img.allocs.clone(),
            slots: img.slots.clone(),
            // Rewind the slot allocator to the interrupted step's start:
            // the fast-forwarded (skipped) operations re-derive their
            // original ids.
            slot_seq: img.slot_seq_at_step,
            slot_seq_at_step: img.slot_seq_at_step,
            step_created: img.step_created.clone(),
            ..Progress::default()
        };
        for c in &img.comms {
            st.comms.restore(
                c.virt,
                CommMeta {
                    real: UNBOUND_REAL,
                    members: c.members.as_slice().into(),
                    cart_dims: c.cart_dims.as_slice().into(),
                    cart_periodic: c.cart_periodic.as_slice().into(),
                    wseq: 0,
                },
            );
        }
        for g in &img.groups {
            st.groups.restore(
                *g,
                GroupMeta {
                    real: UNBOUND_REAL,
                    members: Vec::new(),
                },
            );
        }
        for d in &img.dtypes {
            st.dtypes.restore(*d, UNBOUND_REAL);
        }
        let mut engaged = Vec::new();
        for &PendingColl { vreq, comm_virt } in &img.pending {
            st.reqs.restore(
                vreq,
                WReq::TwoPhase {
                    comm_virt,
                    lower_phase1: None,
                },
            );
            let meta = st.comms.get_mut(comm_virt);
            meta.wseq += 1;
            engaged.push(CollInstance {
                comm_virt,
                wseq: meta.wseq,
                size: meta.members.len() as u32,
            });
        }
        (st, engaged)
    }

    /// The image fields this state carries, and the log's length before
    /// compaction; identity and memory fields are left at their defaults.
    /// With `compact` set, the [`LogCompactor`] elides freed objects and
    /// dead derivation subtrees from the log; either way the image carries
    /// the explicit virtual-id rebind map verified at replay.
    ///
    /// [`LogCompactor`]: crate::restart::compact::LogCompactor
    pub(crate) fn capture(&self, compact: bool) -> (CheckpointImage, u64) {
        use crate::restart::compact::{LiveSet, LogCompactor};
        let comms: Vec<VirtCommEntry> = self
            .comms
            .iter()
            .map(|(virt, m)| VirtCommEntry {
                virt,
                members: m.members.to_vec(),
                cart_dims: m.cart_dims.to_vec(),
                cart_periodic: m.cart_periodic.to_vec(),
            })
            .collect();
        let groups: Vec<u64> = self.groups.iter().map(|(v, _)| v).collect();
        let dtypes: Vec<u64> = self.dtypes.iter().map(|(v, _)| v).collect();
        let compacted = if compact {
            let live = LiveSet::new(
                comms.iter().map(|c| c.virt),
                groups.iter().copied(),
                dtypes.iter().copied(),
            );
            LogCompactor::compact(self.world_virt, &self.log, &live)
        } else {
            LogCompactor::passthrough(self.world_virt, &self.log)
        };
        let pending = self
            .reqs
            .iter()
            .filter_map(|(vreq, r)| match *r {
                WReq::TwoPhase { comm_virt, .. } => Some(PendingColl { vreq, comm_virt }),
                WReq::LowerSend(_) => None,
            })
            .collect();
        let p = &self.progress;
        let img = CheckpointImage {
            comms,
            groups,
            dtypes,
            log: compacted.entries,
            counters: self.counters.clone(),
            buffered: self.buffer.snapshot(),
            pending,
            ops_done: p.ops_done,
            allocs: p.allocs.clone(),
            slots: p.slots.clone(),
            slot_seq: p.slot_seq,
            slot_seq_at_step: p.slot_seq_at_step,
            world_virt: self.world_virt,
            rebind: compacted.rebind,
            step_created: p.step_created.clone(),
            ..CheckpointImage::default()
        };
        (img, self.log.len() as u64)
    }
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
    /// The rank's address space.
    pub aspace: Arc<AddressSpace>,
    /// The rank's MANA state. No guard may be live across a park: drop it
    /// before any time charge, cell wait or lower-half call that can park.
    pub state: Mutex<RankState>,
}

impl RankShared {
    /// Fresh state for a first-run incarnation of `rank` in `job`.
    pub fn new(
        job: &Arc<MpiJob>,
        rank: u32,
        app_name: &str,
        seed: u64,
        aspace: Arc<AddressSpace>,
    ) -> Arc<RankShared> {
        Arc::new(RankShared {
            rank,
            nranks: job.nranks(),
            app_name: app_name.to_string(),
            seed,
            cell: CkptCell::new(job.sim(), Some(job.clone())),
            aspace,
            state: Mutex::new(RankState::new()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_image_restores_and_captures_back_to_itself() {
        let img = crate::image::tests::sample();
        let (mut st, engaged) = RankState::restored(&img);
        // Restart stage 4 loads the drained messages.
        st.buffer.load(img.buffered.clone());
        // Restore rewinds two fields on purpose: the resumed step skips the
        // operations it had completed, and re-derives its slot ids from
        // the step's first one.
        let p = &st.progress;
        let rewound = (p.ops_done, p.resume_skip, p.slot_seq);
        assert_eq!(rewound, (0, img.ops_done, img.slot_seq_at_step));
        // The pending ibarrier re-enters phase 1 as its communicator's
        // first wrapped collective.
        let inst = CollInstance {
            comm_virt: 0x1000_0000,
            wseq: 1,
            size: 8,
        };
        assert_eq!(engaged, [inst]);

        let (back, recorded) = st.capture(false);
        assert_eq!(recorded, img.log.len() as u64);
        // Every other field the state carries round-trips; the rank's
        // identity and memory are the caller's.
        let none = CheckpointImage::default();
        let expected = CheckpointImage {
            rank: none.rank,
            nranks: none.nranks,
            ckpt_id: none.ckpt_id,
            app_name: none.app_name,
            seed: none.seed,
            regions: none.regions,
            upper_cursor: none.upper_cursor,
            dirty: none.dirty,
            ops_done: 0,
            slot_seq: img.slot_seq_at_step,
            ..img
        };
        assert_eq!(back, expected);
    }
}
