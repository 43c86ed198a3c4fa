//! Typed errors for the restart pipeline.
//!
//! Every failure the restart path can hit — storage lookups, image
//! decoding, validation, and replay of the record log against the fresh
//! lower half — surfaces as a [`RestartError`] variant instead of a
//! panic. Replay failures in particular used to abort the process; they
//! now carry the rank, the log index, and the expected/got shapes so a
//! corrupt or foreign image is diagnosable.

use crate::chaos::RestartPoint;
use crate::codec::CodecError;
use crate::error::StoreError;
use crate::virtid::HandleClass;
use std::fmt;

/// Errors from the restart engine.
#[derive(Clone, Debug, PartialEq)]
pub enum RestartError {
    /// A rank's checkpoint image could not be fetched from the store.
    MissingImage {
        /// Rank whose image is missing.
        rank: u32,
        /// Checkpoint id requested.
        ckpt_id: u64,
        /// Store path that was probed.
        path: String,
        /// Underlying store error.
        source: StoreError,
    },
    /// A fetched image failed to decode (corrupt or foreign bytes).
    CorruptImage {
        /// Rank whose image is corrupt.
        rank: u32,
        /// Store path that was read.
        path: String,
        /// Underlying codec error.
        source: CodecError,
    },
    /// The restart presented a different world size than the images carry
    /// (MANA pins world size across incarnations; see paper §2.1).
    WorldSizeMismatch {
        /// World size recorded in the image.
        image: u32,
        /// World size the restart spec requested.
        requested: u32,
    },
    /// An image carries no world communicator — it cannot have been
    /// produced by a MANA checkpoint.
    NoWorldComm {
        /// Rank whose image is malformed.
        rank: u32,
        /// Store path that was read.
        path: String,
    },
    /// An image decoded but its contents are internally inconsistent —
    /// e.g. a pending collective referencing a communicator the image
    /// does not carry, or memory regions that cannot be re-mapped.
    MalformedImage {
        /// Rank whose image is inconsistent.
        rank: u32,
        /// What was inconsistent.
        why: String,
    },
    /// Replaying the record log against the fresh lower half diverged
    /// from what the log (and its rebind map) promised: the library
    /// returned a different shape of result, an entry referenced a
    /// virtual id that is neither live nor created earlier in the log, or
    /// a replayed creation landed on a virtual id the rebind map assigns
    /// elsewhere.
    ReplayDivergence {
        /// Rank whose replay diverged.
        rank: u32,
        /// Index of the offending entry in the replayed (compacted) log.
        call_index: usize,
        /// What the log/rebind map expected at this index.
        expected: String,
        /// What the fresh library (or the rebind map) actually produced.
        got: String,
    },
    /// A rank died mid-restart — injected by the chaos seam at a
    /// [`RestartPoint`] — before the pipeline completed. The store and
    /// address space are untouched (restart stages never write), so the
    /// same image restarts cleanly on the next attempt: this failure is
    /// *transient* by construction.
    Interrupted {
        /// Rank that was killed mid-restart.
        rank: u32,
        /// The restart-pipeline stage it died at.
        point: RestartPoint,
    },
    /// After replay, a live virtual id was still unbound — the log (even
    /// uncompacted) does not recreate an object the image claims is live.
    UnboundVirtual {
        /// Rank whose verification failed.
        rank: u32,
        /// Handle class of the unbound id.
        class: HandleClass,
        /// The unbound virtual id.
        virt: u64,
    },
}

impl fmt::Display for RestartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestartError::MissingImage {
                rank,
                ckpt_id,
                path,
                source,
            } => write!(
                f,
                "restart rank {rank}: no image for checkpoint {ckpt_id} at '{path}': {source}"
            ),
            RestartError::CorruptImage { rank, path, source } => {
                write!(
                    f,
                    "restart rank {rank}: corrupt image at '{path}': {source}"
                )
            }
            RestartError::WorldSizeMismatch { image, requested } => write!(
                f,
                "restart must present the original world size: image has {image} ranks, \
                 restart requested {requested}"
            ),
            RestartError::NoWorldComm { rank, path } => write!(
                f,
                "restart rank {rank}: image at '{path}' carries no world communicator"
            ),
            RestartError::MalformedImage { rank, why } => {
                write!(f, "restart rank {rank}: inconsistent image: {why}")
            }
            RestartError::ReplayDivergence {
                rank,
                call_index,
                expected,
                got,
            } => write!(
                f,
                "restart rank {rank}: replay diverged at log entry {call_index}: \
                 expected {expected}, got {got}"
            ),
            RestartError::Interrupted { rank, point } => write!(
                f,
                "restart rank {rank}: killed by injected fault at the {point} stage"
            ),
            RestartError::UnboundVirtual { rank, class, virt } => write!(
                f,
                "restart rank {rank}: live virtual {class:?} handle {virt:#x} \
                 left unbound after replay"
            ),
        }
    }
}

impl std::error::Error for RestartError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RestartError::MissingImage { source, .. } => Some(source),
            RestartError::CorruptImage { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = RestartError::ReplayDivergence {
            rank: 3,
            call_index: 17,
            expected: "rebind map entry for created id 0x10000004".to_string(),
            got: "no rebind entry".to_string(),
        };
        let s = e.to_string();
        assert!(
            s.contains("rank 3") && s.contains("entry 17") && s.contains("0x10000004"),
            "{s}"
        );

        let s = RestartError::UnboundVirtual {
            rank: 1,
            class: HandleClass::Group,
            virt: 0x2000_0003,
        }
        .to_string();
        assert!(s.contains("0x20000003") && s.contains("Group"), "{s}");

        let s = RestartError::Interrupted {
            rank: 2,
            point: RestartPoint::Rebind,
        }
        .to_string();
        assert!(s.contains("rank 2") && s.contains("rebind"), "{s}");
    }

    #[test]
    fn sources_chain() {
        use std::error::Error;
        let e = RestartError::CorruptImage {
            rank: 0,
            path: "p".into(),
            source: CodecError::BadMagic(7),
        };
        assert!(e.source().is_some());
    }
}
