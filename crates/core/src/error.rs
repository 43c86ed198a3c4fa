//! Typed errors for the job-lifecycle API.
//!
//! Every failure a caller can act on is a typed error: [`StoreError`] for
//! checkpoint-storage lookups, [`RestartError`] for the restart pipeline
//! (image fetch/decode/validation and verified replay — see
//! [`crate::restart`]), and [`SessionError`] for session-level
//! orchestration.
//!
//! [`RestartError`]: crate::restart::RestartError

use crate::restart::RestartError;
use std::fmt;

/// Errors from a [`crate::store::CheckpointStore`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// No object stored at the given path.
    NotFound(String),
    /// The stored object is unreadable — e.g. a delta image whose base
    /// link or encoding no longer makes sense.
    Corrupt {
        /// Path of the unreadable object.
        path: String,
        /// What went wrong.
        why: String,
    },
    /// The stored object is an incomplete write — the writer crashed
    /// mid-`put` and the object's commit trailer never landed. Unlike
    /// [`StoreError::Corrupt`] (the bytes are all there but wrong), a torn
    /// object is detectably *absent*: recovery treats the checkpoint as if
    /// it was never published.
    Torn {
        /// Path of the partially-written object.
        path: String,
        /// What part of the envelope is missing.
        why: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound(p) => write!(f, "checkpoint object not found: {p}"),
            StoreError::Corrupt { path, why } => {
                write!(f, "checkpoint object at '{path}' unreadable: {why}")
            }
            StoreError::Torn { path, why } => {
                write!(f, "checkpoint object at '{path}' torn mid-write: {why}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<mana_sim::fs::FsError> for StoreError {
    fn from(e: mana_sim::fs::FsError) -> StoreError {
        match e {
            mana_sim::fs::FsError::NotFound(p) => StoreError::NotFound(p),
        }
    }
}

/// Why a recovery loop passed over one registered checkpoint on its way
/// to an older survivor (or to giving up). Carried by
/// [`SessionError::NoUsableCheckpoint`] and by the supervisor's
/// [`crate::supervisor::RecoveryReport`], so a fully-corrupt store
/// reports *every* skip, not just the last error.
#[derive(Clone, Debug, PartialEq)]
pub enum SkipReason {
    /// An image of the checkpoint was absent from the store before any
    /// restart was attempted — garbage-collected, quarantined by
    /// journal/drain recovery, or lost with its burst tier.
    ImageGone {
        /// First rank whose image is missing.
        rank: u32,
        /// Store path that was probed.
        path: String,
    },
    /// A restart attempt on the checkpoint failed with image damage.
    Damaged(Box<RestartError>),
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::ImageGone { rank, path } => {
                write!(f, "rank {rank}'s image gone from the store at '{path}'")
            }
            SkipReason::Damaged(e) => write!(f, "{e}"),
        }
    }
}

/// One checkpoint a recovery loop skipped, and why.
#[derive(Clone, Debug, PartialEq)]
pub struct SkippedCheckpoint {
    /// The skipped checkpoint's chain-unique id.
    pub ckpt_id: u64,
    /// Why it was passed over.
    pub reason: SkipReason,
}

impl fmt::Display for SkippedCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ckpt {}: {}", self.ckpt_id, self.reason)
    }
}

/// Errors from session-level orchestration ([`crate::session::ManaSession`]).
#[derive(Clone, Debug, PartialEq)]
pub enum SessionError {
    /// The restart pipeline failed (missing/corrupt image, validation, or
    /// replay divergence).
    Restart(RestartError),
    /// `restart_on` was called on an incarnation that completed no
    /// checkpoint, so there is nothing to restart from.
    NoCheckpoint {
        /// Index of the incarnation in the session's chain.
        incarnation: u64,
    },
    /// A restart referenced a checkpoint whose images are gone from the
    /// session store — typically removed by the session's
    /// [`crate::store::GcPolicy`]. Carries the ids of the checkpoints
    /// whose images all still exist, so the caller can pick a survivor.
    CheckpointGone {
        /// The checkpoint id the restart asked for.
        ckpt_id: u64,
        /// Session checkpoints whose images are all still in the store.
        surviving: Vec<u64>,
        /// The underlying engine error (boxed to keep the common
        /// `Result` paths small — clippy's `result_large_err`).
        source: Box<RestartError>,
    },
    /// Recovery walked *every* registered checkpoint newest-to-oldest and
    /// none restarted: each survivor was either gone from the store or
    /// damaged. Unlike the single-error variants, this carries the typed
    /// per-image skip reason for the whole walk.
    NoUsableCheckpoint {
        /// Index of the incarnation recovery started from.
        incarnation: u64,
        /// Every checkpoint considered, newest first, with why it was
        /// skipped.
        skipped: Vec<SkippedCheckpoint>,
    },
    /// The recovery loop's retry budget or deadline ran out while faults
    /// were still firing — the supervisor absorbed what it could and
    /// gave up with the last restart error in hand.
    RecoveryExhausted {
        /// Restart attempts the supervisor made before giving up.
        attempts: u32,
        /// The error the final attempt failed with.
        source: Box<RestartError>,
    },
    /// A [`crate::session::JobBuilder`] described an unrunnable job.
    InvalidSpec(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Restart(e) => write!(f, "{e}"),
            SessionError::NoCheckpoint { incarnation } => write!(
                f,
                "incarnation {incarnation} completed no checkpoint; nothing to restart from"
            ),
            SessionError::CheckpointGone {
                ckpt_id,
                surviving,
                source,
            } => write!(
                f,
                "checkpoint {ckpt_id} is no longer in the store (garbage-collected?); \
                 surviving checkpoints: {surviving:?}: {source}"
            ),
            SessionError::NoUsableCheckpoint {
                incarnation,
                skipped,
            } => {
                write!(
                    f,
                    "incarnation {incarnation}: no usable checkpoint \
                     ({} skipped:",
                    skipped.len()
                )?;
                for s in skipped {
                    write!(f, " [{s}]")?;
                }
                write!(f, ")")
            }
            SessionError::RecoveryExhausted { attempts, source } => write!(
                f,
                "recovery exhausted after {attempts} restart attempts; last error: {source}"
            ),
            SessionError::InvalidSpec(why) => write!(f, "invalid job description: {why}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Restart(e) => Some(e),
            SessionError::CheckpointGone { source, .. } => Some(source),
            SessionError::RecoveryExhausted { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<RestartError> for SessionError {
    fn from(e: RestartError) -> SessionError {
        SessionError::Restart(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CodecError;

    #[test]
    fn display_carries_context() {
        let e = RestartError::MissingImage {
            rank: 3,
            ckpt_id: 2,
            path: "ckpt/ckpt_2/rank_3.mana".into(),
            source: StoreError::NotFound("ckpt/ckpt_2/rank_3.mana".into()),
        };
        let s = e.to_string();
        assert!(s.contains("rank 3") && s.contains("checkpoint 2"), "{s}");

        let s = SessionError::from(RestartError::WorldSizeMismatch {
            image: 8,
            requested: 4,
        })
        .to_string();
        assert!(s.contains('8') && s.contains('4'), "{s}");

        let s = SessionError::CheckpointGone {
            ckpt_id: 1,
            surviving: vec![3, 4],
            source: Box::new(RestartError::MissingImage {
                rank: 0,
                ckpt_id: 1,
                path: "ckpt/ckpt_1/rank_0.mana".into(),
                source: StoreError::NotFound("ckpt/ckpt_1/rank_0.mana".into()),
            }),
        }
        .to_string();
        assert!(
            s.contains("checkpoint 1") && s.contains("[3, 4]"),
            "gone-checkpoint message must list survivors: {s}"
        );

        let s = StoreError::Corrupt {
            path: "d/x".into(),
            why: "delta base vanished".into(),
        }
        .to_string();
        assert!(s.contains("d/x") && s.contains("delta base"), "{s}");
    }

    #[test]
    fn skip_reasons_surface_every_survivor() {
        let e = SessionError::NoUsableCheckpoint {
            incarnation: 1,
            skipped: vec![
                SkippedCheckpoint {
                    ckpt_id: 4,
                    reason: SkipReason::ImageGone {
                        rank: 2,
                        path: "ckpt/ckpt_4/rank_2.mana".into(),
                    },
                },
                SkippedCheckpoint {
                    ckpt_id: 3,
                    reason: SkipReason::Damaged(Box::new(RestartError::CorruptImage {
                        rank: 1,
                        path: "ckpt/ckpt_3/rank_1.mana".into(),
                        source: crate::codec::CodecError::BadMagic(9),
                    })),
                },
            ],
        };
        let s = e.to_string();
        assert!(
            s.contains("ckpt 4") && s.contains("ckpt 3") && s.contains("rank 2"),
            "every skipped survivor is named with its reason: {s}"
        );

        let s = SessionError::RecoveryExhausted {
            attempts: 7,
            source: Box::new(RestartError::Interrupted {
                rank: 0,
                point: crate::chaos::RestartPoint::Resync,
            }),
        }
        .to_string();
        assert!(
            s.contains("7 restart attempts") && s.contains("resync"),
            "{s}"
        );
    }

    #[test]
    fn error_sources_chain() {
        use std::error::Error;
        let e = SessionError::Restart(RestartError::CorruptImage {
            rank: 0,
            path: "p".into(),
            source: CodecError::BadMagic(7),
        });
        let restart = e.source().expect("restart source");
        assert!(restart.source().is_some(), "codec source");
    }
}
