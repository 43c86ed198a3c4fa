//! The checkpoint coordinator (paper §2.5 Algorithm 2, coordinator side;
//! §2.7) — the topology-generic *protocol driver*.
//!
//! A stateless daemon modelled on the DMTCP coordinator drives the
//! two-phase agreement:
//!
//! ```text
//! send intend-to-ckpt to all ranks
//! receive responses from each rank
//! while unsafe (some exit-phase-2, or a phase-1 instance fully assembled):
//!     send extra-iteration to all ranks; receive responses
//! send do-ckpt; mediate the bookmark exchange; collect ckpt-done
//! send resume (or kill)
//! ```
//!
//! *How* those messages reach the ranks is behind the
//! [`CoordTopology`] seam (`crate::topology`): the flat star speaks one
//! frame per rank; the tree speaks one aggregated frame per node. The
//! agreement, the do-ckpt safety rule ([`checkpoint_safe`]), the bookmark
//! mediation and the resume are all topology-agnostic — every topology
//! reduces the same rank replies to the same [`StateAgg`], so from the
//! same rank states every topology makes identical safety decisions.
//! The rank states themselves agree only while the whole agreement fits
//! inside one compute op (see `crate::topology`).
//!
//! The "fully assembled phase-1 instance" condition is the safety
//! refinement discussed in the `cell` module: an in-phase-1 rank is only a
//! safe checkpoint state while its trivial barrier still misses a member
//! (who is gated and will stay gated), because then nobody can slip into
//! the real collective during the checkpoint.

use crate::config::{CkptSchedule, ManaConfig};
use crate::ctrl::{CtrlMsg, StateAgg};
use crate::stats::CkptReport;
use crate::store::CheckpointStore;
use crate::topology::CoordTopology;
use mana_sim::sched::{SimThread, SimThreadId};
use mana_sim::time::SimTime;
use std::sync::Arc;

/// Everything the coordinator daemon needs.
pub struct CoordCtx {
    /// Delivery/reduction seam to the ranks (flat star or per-node tree).
    pub topo: Arc<dyn CoordTopology>,
    /// Configuration (checkpoint schedule, costs).
    pub cfg: ManaConfig,
    /// Checkpoint storage (epoch signalling for straggler decorrelation).
    pub store: Arc<dyn CheckpointStore>,
}

/// Coordinator daemon: sleeps until each scheduled checkpoint begins, runs
/// the protocol and hands each completed round's report to `report`, then
/// returns after the last checkpoint. An interval schedule first sleeps
/// until the application starts: `app_start(me)` returns that instant
/// once it is known, and until then has the rank that opens the
/// application window wake thread `me`.
pub fn run_coordinator(
    t: SimThread,
    cx: CoordCtx,
    mut app_start: impl FnMut(SimThreadId) -> Option<SimTime>,
    mut report: impl FnMut(CkptReport),
) {
    cx.topo.attach_root(t.id());
    let schedule = &cx.cfg.ckpt_schedule;
    let mut anchor = SimTime::ZERO;
    if matches!(schedule, CkptSchedule::Every { .. }) && !schedule.is_empty() {
        anchor = t.block_until(|| app_start(t.id()));
    }
    for i in 0..schedule.len() {
        let at = schedule.begin(i, anchor);
        let now = t.now();
        if at > now {
            t.advance(at - now);
        }
        let ckpt_id = cx.cfg.first_ckpt_id + i;
        let round = run_checkpoint(&t, &cx, ckpt_id, cx.cfg.ends_after(ckpt_id));
        anchor = round.t_end;
        report(round);
    }
}

/// One full checkpoint round; returns its report. Public so tests and the
/// runner can trigger checkpoints outside the scheduled list.
pub fn run_checkpoint(t: &SimThread, cx: &CoordCtx, ckpt_id: u64, kill: bool) -> CkptReport {
    let nranks = cx.topo.nranks();
    let t_begin = t.now();
    cx.store.begin_epoch();

    cx.topo.fanout(t, &|| CtrlMsg::IntendCkpt { ckpt_id });
    let mut extra_iterations = 0u32;
    loop {
        // One State reply per rank, already reduced by the topology.
        // Phase-2 ranks reply only after finishing their collective
        // (Algorithm 2, lines 21–27).
        let agg = cx.topo.gather_states(t, ckpt_id);
        assert!(
            agg.replies <= nranks,
            "ckpt {ckpt_id}: state aggregate covers {} of {nranks} ranks",
            agg.replies
        );
        // A short aggregate means a sub-coordinator died mid-round and
        // its promoted replacement reported in with `SubPromoted` instead
        // of the node's reduction (topology failover). The round's
        // partial fold is void; re-enter agreement so every rank —
        // including the failed node's, now served by the replacement —
        // reports fresh state.
        if agg.replies == nranks && checkpoint_safe(&agg) {
            break;
        }
        extra_iterations += 1;
        cx.topo.fanout(t, &|| CtrlMsg::ExtraIteration { ckpt_id });
    }
    let t_do_ckpt = t.now();
    cx.topo.fanout(t, &|| CtrlMsg::DoCkpt { ckpt_id });

    // Mediate the bookmark exchange: gather the destination-keyed sent-to
    // directory, then tell each rank what to expect from every peer.
    let mut directory = cx.topo.gather_bookmarks(t, ckpt_id);
    let per_rank: Vec<Vec<(u32, u64)>> = (0..nranks)
        .map(|r| {
            let mut from = directory.remove(&r).unwrap_or_default();
            from.sort_unstable();
            from
        })
        .collect();
    cx.topo.scatter_expected(t, ckpt_id, per_rank);
    let t_expected_in = t.now();

    // Collect completions.
    let mut stats = cx.topo.gather_done(t, ckpt_id);
    assert_eq!(
        stats.len(),
        nranks as usize,
        "ckpt {ckpt_id}: completion stats cover {} of {nranks} ranks",
        stats.len()
    );
    stats.sort_by_key(|s| s.rank);
    let t_end = t.now();
    cx.topo.fanout(t, &|| CtrlMsg::Resume { ckpt_id, kill });

    CkptReport {
        ckpt_id,
        t_begin,
        t_do_ckpt,
        t_expected_in,
        t_end,
        extra_iterations,
        ranks: stats,
    }
}

/// The do-ckpt safety rule (see module docs), over the round's reduced
/// [`StateAgg`].
///
/// An in-phase-1 instance `(c, w, size)` is safe only if at least one
/// member provably has not entered its trivial barrier. Members split
/// into in-barrier reporters (`k`), ranks whose completed count on `c`
/// reaches `w` (already past the instance — so its barrier completed),
/// and blockers (completed < w, not in this barrier — gated or will gate
/// on arrival, so the barrier cannot complete during the checkpoint).
/// Safe ⟺ `k + passed < size`. Without the `passed` term a *stale*
/// in-phase-1 report whose peers already exited the collective would be
/// trusted, and the reporter could slip into phase 2 mid-checkpoint — a
/// race our model checker found (Challenge I; Lemma 1's bookkeeping).
pub fn checkpoint_safe(agg: &StateAgg) -> bool {
    if agg.exit_phase2 > 0 {
        return false;
    }
    agg.phase1.iter().all(|((comm, wseq), (k, size))| {
        let passed: u32 = agg
            .progress
            .get(comm)
            .map(|hist| hist.range(*wseq..).map(|(_, n)| *n).sum())
            .unwrap_or(0);
        k + passed < *size
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CollInstance;
    use crate::ctrl::RankReply;

    /// One rank's reply as the topologies see it before reduction.
    type Reply = (RankReply, Option<CollInstance>, Vec<(u64, u64)>);

    fn agg(replies: &[Reply]) -> StateAgg {
        let mut agg = StateAgg::default();
        for (reply, inst, progress) in replies {
            agg.absorb(*reply, *inst, progress);
        }
        agg
    }

    fn safe(replies: &[Reply]) -> bool {
        checkpoint_safe(&agg(replies))
    }

    fn inst(comm: u64, wseq: u64, size: u32) -> Option<CollInstance> {
        Some(CollInstance {
            comm_virt: comm,
            wseq,
            size,
        })
    }

    fn ready(progress: Vec<(u64, u64)>) -> Reply {
        (RankReply::Ready, None, progress)
    }

    fn in_phase1(comm: u64, wseq: u64, size: u32) -> Reply {
        // An in-barrier member's own completed count on the comm is wseq-1.
        (
            RankReply::InPhase1,
            inst(comm, wseq, size),
            vec![(comm, wseq - 1)],
        )
    }

    #[test]
    fn all_ready_is_safe() {
        let replies = vec![ready(vec![]); 4];
        assert!(safe(&replies));
    }

    #[test]
    fn exit_phase2_forces_iteration() {
        let replies = vec![ready(vec![]), (RankReply::ExitPhase2, None, vec![(1, 5)])];
        assert!(!safe(&replies));
    }

    #[test]
    fn partial_phase1_instance_is_safe() {
        // 3 of 4 members in phase 1, one member gated before the instance
        // (progress 4 < wseq 5): barrier cannot complete; safe.
        let replies = vec![
            in_phase1(1, 5, 4),
            in_phase1(1, 5, 4),
            in_phase1(1, 5, 4),
            ready(vec![(1, 4)]),
        ];
        assert!(safe(&replies));
    }

    #[test]
    fn full_phase1_instance_is_unsafe() {
        let replies = vec![in_phase1(1, 5, 2), in_phase1(1, 5, 2)];
        assert!(!safe(&replies));
    }

    #[test]
    fn stale_phase1_with_passed_member_is_unsafe() {
        // The model-checker counterexample: one member reports in-phase-1
        // but the other already *passed* the instance (completed count ==
        // wseq). The barrier completed; the reporter can slip into phase 2.
        let replies = vec![in_phase1(1, 5, 2), ready(vec![(1, 5)])];
        assert!(!safe(&replies));
    }

    #[test]
    fn self_passed_phase1_reporter_counts_itself() {
        // A *stale* in-phase-1 reply whose own progress already reaches
        // wseq: the reporter itself is a passed member (its barrier
        // completed), so with k=1 and passed=1 on a size-2 instance the
        // checkpoint is unsafe — even though no other member mentions the
        // comm at all.
        let replies = vec![
            (RankReply::InPhase1, inst(1, 5, 2), vec![(1, 5)]),
            ready(vec![]),
        ];
        assert!(!safe(&replies));

        // With size 3 the same self-passed reporter still leaves one
        // provably absent member: safe.
        let replies = vec![
            (RankReply::InPhase1, inst(1, 5, 3), vec![(1, 5)]),
            ready(vec![]),
            ready(vec![(1, 4)]),
        ];
        assert!(safe(&replies));
    }

    #[test]
    fn distinct_instances_judged_separately() {
        // Challenge III: two concurrent collectives on different comms.
        let replies = vec![
            in_phase1(1, 5, 2),
            in_phase1(2, 9, 2),
            ready(vec![(1, 4), (2, 8)]),
            ready(vec![(1, 4), (2, 8)]),
        ];
        assert!(safe(&replies));
        let replies = vec![
            in_phase1(1, 5, 2),
            in_phase1(1, 5, 2),
            in_phase1(2, 9, 2),
            ready(vec![(2, 8)]),
        ];
        assert!(!safe(&replies));
    }

    #[test]
    fn mixed_instances_across_three_comms() {
        // >2 communicators with a mix of safe and unsafe instances: comms
        // 1 and 3 still miss a member, but comm 2's barrier is fully
        // assembled — one bad instance poisons the whole round.
        let unsafe_mix = vec![
            in_phase1(1, 5, 3),
            in_phase1(1, 5, 3),
            in_phase1(2, 9, 2),
            in_phase1(2, 9, 2),
            in_phase1(3, 2, 2),
            ready(vec![(1, 4), (3, 1)]),
        ];
        assert!(!safe(&unsafe_mix));

        // Same shape with comm 2's second member still gated: every
        // instance misses a member; safe.
        let safe_mix = vec![
            in_phase1(1, 5, 3),
            in_phase1(1, 5, 3),
            in_phase1(2, 9, 2),
            in_phase1(3, 2, 2),
            ready(vec![(1, 4), (2, 8), (3, 1)]),
            ready(vec![(2, 8)]),
        ];
        assert!(safe(&safe_mix));
    }

    #[test]
    fn split_reductions_match_flat_decision() {
        // The conformance property at the unit level: however the replies
        // are partitioned across nodes, merging the per-node partials
        // yields the flat aggregate and hence the same decision.
        let scenarios: Vec<Vec<Reply>> = vec![
            vec![ready(vec![]); 5],
            vec![in_phase1(1, 5, 2), ready(vec![(1, 5)]), ready(vec![])],
            vec![
                in_phase1(1, 5, 2),
                in_phase1(2, 9, 2),
                ready(vec![(1, 4), (2, 8)]),
                (RankReply::ExitPhase2, None, vec![(1, 5)]),
            ],
        ];
        for replies in &scenarios {
            let flat = agg(replies);
            for split in 1..replies.len() {
                let (a, b) = replies.split_at(split);
                let mut merged = agg(a);
                merged.merge(&agg(b));
                assert_eq!(merged, flat);
                assert_eq!(checkpoint_safe(&merged), checkpoint_safe(&flat));
            }
        }
    }
}
