//! # mana-model-check — explicit-state verification of the two-phase
//! checkpoint protocol
//!
//! The paper (§2.6) verified Algorithm 2 with a TLA+/PlusCal model checked
//! by TLC: "PlusCal was used to verify the algorithm invariants of
//! deadlock-free execution and consistent state when multiple concurrent
//! MPI processes are executing. The PlusCal model checker did not report
//! any deadlocks or broken invariants."
//!
//! This crate is the equivalent artifact for this reproduction: a small
//! explicit-state breadth-first model checker over the protocol code
//! that runs in `mana-core`. The rank side is not modelled: each rank
//! holds a `mana_core::RankProtocol` — the pre-wrapper gate,
//! commit-through phases, the ready/in-phase-1/exit-phase-2 replies —
//! and every rank step and message delivery calls the method the running
//! `CkptCell` calls. Nor are the coordinators: each is core's
//! `mana_core::coordinator::Coordinator`, the pure value the simulator's
//! driver runs on the root's and each sub-coordinator's thread, and every
//! coordinator transition calls its `step`, so each agreement round ends
//! in `coordinator::decide_round` over `coordinator::checkpoint_safe` as
//! it does in a running job. A [`Spec`] with `nodes` puts a tree root and
//! one sub-coordinator per node in the model, and any one of them may
//! fail over once per run, right after it fans out an agreement round,
//! through the `Coordinator::promote` the driver calls. What the crate
//! adds is the rank programs, the helpers' replies and the FIFO
//! channels. So its explored graph is pinned by its counts (`manasim
//! verify`, the reproduction card, this crate's tests): a moved count
//! means a moved protocol.
//!
//! Checked properties, over every interleaving of rank steps, barrier
//! exits, collective exits and message deliveries (per-pair FIFO channels,
//! matching TCP):
//!
//! * **Safety (Theorem 1)** — no rank is inside the real collective
//!   (phase 2) when its do-ckpt message is delivered;
//! * **Deadlock freedom (Theorem 2)** — every non-terminal state has an
//!   enabled transition;
//! * **Completion** — in every terminal state all ranks finished their
//!   programs and the checkpoint, once initiated, completed.
//!
//! [`check_under`] takes the rule as a parameter, so tests can *weaken*
//! it and watch the checker catch the resulting violation — evidence the
//! checker has teeth, and that the rule's refinement (refuse while a
//! phase-1 trivial barrier is fully assembled or already passed) is
//! load-bearing.

#![warn(missing_docs)]

pub mod explore;
pub mod spec;
mod state;

pub use explore::{check, check_under, CheckOutcome, Violation};
pub use spec::Spec;
