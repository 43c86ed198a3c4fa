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
//! A rank's log is a plain `Vec<LoggedCall>` in call order
//! ([`crate::shared::RankState::log`]). On its way into an image the
//! [`LogCompactor`] maps each virtual id to the entry that created it
//! ([`LoggedCall::created_virt`]) and to the `*Free` that freed it, so it
//! can cancel the pair and elide whole dead derivation subtrees. See
//! [`crate::restart::compact`] for the elision rules and the
//! cross-rank-consistency argument.
//!
//! [`LogCompactor`]: crate::restart::compact::LogCompactor

use mana_mpi::BaseType;

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

#[cfg(test)]
mod tests {
    use super::*;

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
