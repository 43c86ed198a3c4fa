//! Record-replay of state-mutating MPI calls (paper §2.2).
//!
//! MPI calls with persistent effects — communicator, group, topology and
//! datatype creation — are recorded at runtime in terms of *virtual*
//! handles. On restart, MANA replays the log against the brand-new lower
//! half, rebinding each virtual handle to whatever real handle the new
//! library issues. Replay of collective creation calls is itself
//! collective: every rank replays the same sequence, so the calls
//! synchronize through the new library exactly as the originals did.
//!
//! One variant per state-mutating call on the `Mpi` seam, and no more:
//! dup, split, Cartesian create and free of communicators; group from a
//! communicator, inclusion subset and free; base, contiguous and free of
//! datatypes. A call joins the seam — and this log — with its first
//! product caller. The image codec numbers the variants; numbers of
//! calls that left the seam are retired, never reused (see `image.rs`).
//!
//! The log also powers the restart engine's [`LogCompactor`]: every
//! creation entry is tagged (in memory, not on the wire) with its index in
//! the log, so a later `*Free` can cancel it in O(1) and whole dead
//! derivation subtrees can be elided from the image. See
//! [`crate::restart::compact`] for the elision rules and the
//! cross-rank-consistency argument.
//!
//! [`LogCompactor`]: crate::restart::compact::LogCompactor

use mana_mpi::BaseType;
use std::collections::HashMap;

/// One recorded state-mutating call. All handles are virtual ids.
#[derive(Clone, Debug, PartialEq)]
pub enum LoggedCall {
    /// `MPI_Comm_dup(parent) -> result`
    CommDup {
        /// Parent communicator (virtual).
        parent: u64,
        /// Resulting communicator (virtual).
        result: u64,
    },
    /// `MPI_Comm_split(parent, color, key) -> result` (`result` is a
    /// burned virtual id bound to `MPI_COMM_NULL` for negative color).
    CommSplit {
        /// Parent communicator (virtual).
        parent: u64,
        /// Split color.
        color: i32,
        /// Split key.
        key: i32,
        /// Resulting communicator (virtual; bound to null for negative
        /// color).
        result: u64,
    },
    /// `MPI_Comm_free(comm)`.
    CommFree {
        /// Freed communicator (virtual).
        comm: u64,
    },
    /// `MPI_Cart_create(parent, dims, periodic) -> result`.
    CartCreate {
        /// Parent communicator (virtual).
        parent: u64,
        /// Grid dims.
        dims: Vec<u32>,
        /// Periodicity flags.
        periodic: Vec<bool>,
        /// Resulting communicator (virtual).
        result: u64,
    },
    /// `MPI_Comm_group(comm) -> result`.
    ///
    /// `members` snapshots the group contents (global job ranks) at record
    /// time so replay can rebuild the group *locally* — from the world
    /// group — without needing `comm` to still be bound. This is what lets
    /// the compactor elide a dead communicator whose group outlived it
    /// without breaking cross-rank replay consistency.
    CommGroup {
        /// Source communicator (virtual).
        comm: u64,
        /// Group contents as global job ranks.
        members: Vec<u32>,
        /// Resulting group (virtual).
        result: u64,
    },
    /// `MPI_Group_incl(group, ranks) -> result`.
    GroupIncl {
        /// Source group (virtual).
        group: u64,
        /// Included comm-local ranks.
        ranks: Vec<u32>,
        /// Resulting group (virtual).
        result: u64,
    },
    /// `MPI_Group_free(group)`.
    GroupFree {
        /// Freed group (virtual).
        group: u64,
    },
    /// Predefined datatype handle materialization.
    TypeBase {
        /// Base type.
        base: BaseType,
        /// Resulting datatype (virtual).
        result: u64,
    },
    /// `MPI_Type_contiguous(count, inner) -> result`.
    TypeContiguous {
        /// Repeat count.
        count: u32,
        /// Inner datatype (virtual).
        inner: u64,
        /// Resulting datatype (virtual).
        result: u64,
    },
    /// `MPI_Type_free(dtype)`.
    TypeFree {
        /// Freed datatype (virtual).
        dtype: u64,
    },
}

impl LoggedCall {
    /// Virtual id this entry creates, if any.
    pub fn created_virt(&self) -> Option<u64> {
        match self {
            LoggedCall::CommDup { result, .. }
            | LoggedCall::CommSplit { result, .. }
            | LoggedCall::CartCreate { result, .. }
            | LoggedCall::CommGroup { result, .. }
            | LoggedCall::GroupIncl { result, .. }
            | LoggedCall::TypeBase { result, .. }
            | LoggedCall::TypeContiguous { result, .. } => Some(*result),
            LoggedCall::CommFree { .. }
            | LoggedCall::GroupFree { .. }
            | LoggedCall::TypeFree { .. } => None,
        }
    }

    /// Virtual id this entry frees, if it is a `*Free`.
    pub fn freed_virt(&self) -> Option<u64> {
        match self {
            LoggedCall::CommFree { comm } => Some(*comm),
            LoggedCall::GroupFree { group } => Some(*group),
            LoggedCall::TypeFree { dtype } => Some(*dtype),
            _ => None,
        }
    }
}

#[derive(Default)]
struct LogInner {
    entries: Vec<LoggedCall>,
    /// virt id -> index of its creation entry (virtual ids are never
    /// reused, so the creator is unique). Lets a `*Free` cancel its
    /// creation in O(1) during compaction.
    created_at: HashMap<u64, usize>,
}

/// Append-only log of state-mutating calls for one rank.
#[derive(Default)]
pub struct ReplayLog {
    inner: parking_lot::Mutex<LogInner>,
}

impl ReplayLog {
    /// Empty log.
    pub fn new() -> ReplayLog {
        ReplayLog::default()
    }

    /// Record a call, returning its index. Creation entries tag their
    /// result handle with this index so frees can cancel them.
    pub fn push(&self, c: LoggedCall) -> usize {
        let mut inner = self.inner.lock();
        let idx = inner.entries.len();
        if let Some(v) = c.created_virt() {
            inner.created_at.insert(v, idx);
        }
        inner.entries.push(c);
        idx
    }

    /// Index of the entry that created `virt`, if it is in the log.
    pub fn creation_index_of(&self, virt: u64) -> Option<usize> {
        self.inner.lock().created_at.get(&virt).copied()
    }

    /// Snapshot of all entries (image serialization / replay).
    pub fn entries(&self) -> Vec<LoggedCall> {
        self.inner.lock().entries.clone()
    }

    /// Restore from an image, rebuilding the creation-index tags.
    pub fn load(&self, entries: Vec<LoggedCall>) {
        let mut inner = self.inner.lock();
        inner.created_at.clear();
        for (idx, c) in entries.iter().enumerate() {
            if let Some(v) = c.created_virt() {
                inner.created_at.insert(v, idx);
            }
        }
        inner.entries = entries;
    }

    /// Number of recorded calls.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_roundtrip() {
        let log = ReplayLog::new();
        log.push(LoggedCall::CommDup {
            parent: 0x1000_0000,
            result: 0x1000_0001,
        });
        log.push(LoggedCall::TypeBase {
            base: BaseType::Double,
            result: 0x3000_0000,
        });
        assert_eq!(log.len(), 2);
        let snap = log.entries();
        let log2 = ReplayLog::new();
        log2.load(snap.clone());
        assert_eq!(log2.entries(), snap);
    }

    #[test]
    fn creation_indices_tag_results() {
        let log = ReplayLog::new();
        let i0 = log.push(LoggedCall::CommDup {
            parent: 0x1000_0000,
            result: 0x1000_0001,
        });
        let i1 = log.push(LoggedCall::CommGroup {
            comm: 0x1000_0001,
            members: vec![0, 1],
            result: 0x2000_0000,
        });
        log.push(LoggedCall::CommFree { comm: 0x1000_0001 });
        assert_eq!((i0, i1), (0, 1));
        assert_eq!(log.creation_index_of(0x1000_0001), Some(0));
        assert_eq!(log.creation_index_of(0x2000_0000), Some(1));
        assert_eq!(log.creation_index_of(0xdead), None);

        // Reload rebuilds the tags.
        let log2 = ReplayLog::new();
        log2.load(log.entries());
        assert_eq!(log2.creation_index_of(0x2000_0000), Some(1));
    }

    #[test]
    fn created_and_freed_virts() {
        let split = LoggedCall::CommSplit {
            parent: 1,
            color: -1,
            key: 0,
            result: 2,
        };
        assert_eq!(split.created_virt(), Some(2));
        let free = LoggedCall::GroupFree { group: 7 };
        assert_eq!(free.freed_virt(), Some(7));
        assert_eq!(free.created_virt(), None);
    }
}
