//! The restart subsystem: a staged, verified restart pipeline with
//! record-log compaction.
//!
//! MANA's restart path (paper §2.2) boots a brand-new lower half and
//! re-executes the log of state-mutating MPI calls against it. A restart
//! boots through the same boot as a fresh launch ([`crate::runner`]);
//! this module makes what differs a first-class, inspectable pipeline:
//!
//! * [`engine`] fetches and validates every rank's image before the
//!   simulation boots, then runs typed, individually-timed stages on each
//!   restarted rank — image read, memory restore, state restore,
//!   drain-buffer reload, lower-half boot, log replay, virtual-id
//!   rebind/verify, world resync — and reports each stage through
//!   [`crate::stats::RestartReport`], the way `CkptReport` breaks down
//!   checkpoint cost. State restore puts every live virtual id back in
//!   its class's [`crate::virtid::HandleTable`], unbound; replay collects
//!   the real handles the fresh library issues; rebind installs them and
//!   rejects any live id left unbound.
//! * [`compact::LogCompactor`] prunes the record log before it is written
//!   into the image: `CommFree`/`GroupFree`/`TypeFree` cancel their
//!   creation entries and dead derivation subtrees are elided, so restart
//!   time tracks the *live* opaque-object population instead of the
//!   job-lifetime churn. The compacted log replays in recorded order with
//!   an explicit virtual-id [rebind map](compact::RebindEntry) carried by
//!   the (versioned) image format.
//! * Replay is *verified*: every replayed creation is checked against the
//!   rebind map, and divergence surfaces as a typed
//!   [`error::RestartError::ReplayDivergence`] (rank, call index,
//!   expected/got) instead of a panic — as do all other restart-path
//!   failures.
//!
//! `tests/restart_compaction.rs` shows compaction cutting replay at least
//! 5× at a high communicator-churn rate, and proves compacted-log replay
//! observationally identical to full-log replay over random churn
//! sequences.

pub mod compact;
pub mod engine;
pub mod error;

pub use compact::{BindSource, CompactedLog, CompactionStats, LiveSet, LogCompactor, RebindEntry};
pub use error::RestartError;
