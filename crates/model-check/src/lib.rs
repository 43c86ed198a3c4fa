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
//! explicit-state breadth-first model checker over the protocol as
//! *implemented* in `mana-core` — the pre-wrapper gate, commit-through
//! phase semantics, ready/in-phase-1/exit-phase-2 replies, and the
//! coordinator's do-ckpt safety rule. The rule is not modelled: each
//! complete round's replies are folded into a `mana_core::StateAgg` with
//! `StateAgg::absorb` and decided by `mana_core::coordinator::checkpoint_safe`,
//! the function the running coordinator calls.
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
pub mod state;

pub use explore::{check, check_under, CheckOutcome, Violation};
pub use spec::Spec;
pub use state::State;
