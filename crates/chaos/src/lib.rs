//! # mana-chaos — inject any failure, heal every time
//!
//! The preceding crates make checkpoints *fast*; this crate makes them
//! *trustworthy*. It drives whole MANA job chains through seeded fault
//! schedules — kill a rank mid-drain, power off a node mid-bookmark,
//! kill a sub-coordinator mid-agreement, tear an image write in half,
//! take a store replica dark — and verifies the memento property after
//! each: **from any crash point, the chain restarts from some committed
//! checkpoint and ends in exactly the fault-free final state.**
//!
//! Three layers cooperate:
//!
//! * the **engine seam** ([`mana_core::chaos`]): a [`ChaosHandle`]
//!   embedded in the job configuration, polled by every rank's helper at
//!   protocol-phase-aware points and by every sub-coordinator during
//!   agreement — gang-crash semantics, attempt-keyed faults;
//! * **crash-consistent durability** ([`mana_store::JournaledStore`]):
//!   checksummed, commit-marked image envelopes, so a torn write is
//!   *detectably absent* rather than silently wrong, and its
//!   maintenance quarantines partial images;
//! * **self-healing** (this crate, plus replica anti-entropy
//!   ([`mana_store::ReplicatedStore::heal`]) and the promoted
//!   sub-coordinator failover in `mana-core`): the [`ChaosHarness`]
//!   heals the storage tier after every crash — it revives dark replicas,
//!   then runs one [`maintain`](mana_core::CheckpointStore::maintain)
//!   walk down the store stack — and hands recovery to a
//!   [`mana_core::supervisor::RestartSupervisor`] — restart-phase kills
//!   are retried with exponential backoff, damaged images fall back to
//!   older survivors, all under one chain-wide retry budget.
//!
//! Beyond checkpoint-phase faults, plans can schedule **restart-phase
//! kills** (a rank dies mid image-read, replay, rebind or resync — the
//! restart itself crashes and must be retried) and **drain faults** (an
//! async burst-buffer drain is torn mid-copy or the fast tier loses an
//! undrained image — the [`mana_store::TieredStore`]'s maintenance
//! resumes or quarantines them off the persistent drain ledger).
//!
//! ```
//! use mana_chaos::ChaosHarness;
//!
//! let report = ChaosHarness::new(7, 2).run();
//! assert!(report.healed(), "{report}");
//! ```
//!
//! [`ChaosHandle`]: mana_core::chaos::ChaosHandle

#![warn(missing_docs)]

pub mod driver;
pub mod plan;

pub use driver::{ChaosHarness, ChaosReport};
pub use plan::{
    ChaosPlan, FaultKind, PlanInjector, PlannedDrainFault, PlannedFault, PlannedRestartFault,
    WorldShape,
};
