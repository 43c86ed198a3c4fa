//! The checkpoint coordinator (paper §2.5 Algorithm 2, coordinator side;
//! §2.7) — the topology-generic *protocol driver* and the pure fold every
//! coordinator role gathers with.
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
//! frame per rank; the tree speaks one aggregated frame per node. Every
//! upward gather, at the root or a sub-coordinator, is one pure
//! [`Gather`] built for its [`Role`], and every agreement round ends in
//! [`decide_round`]; `mana-model-check` drives the same two. So every
//! topology reduces the same rank replies to the same [`StateAgg`] and,
//! from the same rank states, makes identical safety decisions. The rank
//! states themselves agree only while the whole agreement fits inside
//! one compute op (see `crate::topology`).
//!
//! The "fully assembled phase-1 instance" condition is the safety
//! refinement discussed in the `cell` module: an in-phase-1 rank is only a
//! safe checkpoint state while its trivial barrier still misses a member
//! (who is gated and will stay gated), because then nobody can slip into
//! the real collective during the checkpoint.

use crate::cell::CollInstance;
use crate::config::{CkptSchedule, ManaConfig};
use crate::ctrl::{CtrlMsg, ProtocolPhase, ProtocolViolation, RankReply, StateAgg};
use crate::stats::{CkptReport, RankCkptStats};
use crate::store::CheckpointStore;
use crate::topology::CoordTopology;
use mana_sim::sched::{SimThread, SimThreadId};
use mana_sim::time::SimTime;
use std::collections::BTreeMap;
use std::fmt;
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
        let agg = cx.topo.gather(t, ckpt_id, Stage::Agreement).agg;
        if decide_round(&agg, nranks, checkpoint_safe) {
            break;
        }
        extra_iterations += 1;
        cx.topo.fanout(t, &|| CtrlMsg::ExtraIteration { ckpt_id });
    }
    let t_do_ckpt = t.now();
    cx.topo.fanout(t, &|| CtrlMsg::DoCkpt { ckpt_id });

    // Mediate the bookmark exchange: gather the destination-keyed sent-to
    // directory, then tell each rank what to expect from every peer.
    let mut directory = cx.topo.gather(t, ckpt_id, Stage::Bookmarks).directory;
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
    let mut stats = cx.topo.gather(t, ckpt_id, Stage::Completion).completions;
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

/// Algorithm 2's round decision: do-ckpt exactly when the aggregate holds
/// all `nranks` replies and `rule` accepts it, else an extra iteration. A
/// short aggregate (a promoted sub-coordinator answered
/// [`CtrlMsg::SubPromoted`]) is void however safe it looks: the next
/// round lets every rank report fresh state. The model checker passes a
/// weakened `rule` to show it is load-bearing.
pub fn decide_round(agg: &StateAgg, nranks: u32, rule: fn(&StateAgg) -> bool) -> bool {
    assert!(
        agg.replies <= nranks,
        "state aggregate covers {} of {nranks} ranks",
        agg.replies
    );
    agg.replies == nranks && rule(agg)
}

/// Who gathers, and so how many frames each stage takes and which kind.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Role {
    /// The flat star's root: one per-rank frame from every rank.
    FlatRoot {
        /// World size.
        nranks: u32,
    },
    /// The tree's root: one aggregated frame from every sub-coordinator.
    TreeRoot {
        /// Sub-coordinators (one per node).
        nodes: u32,
        /// World size, which the aggregates must cover.
        nranks: u32,
    },
    /// A node's sub-coordinator: one per-rank frame from every local rank.
    Sub {
        /// The node it serves.
        node: u32,
        /// Ranks on the node.
        ranks: u32,
    },
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Role::FlatRoot { .. } => f.write_str("coordinator"),
            Role::TreeRoot { .. } => f.write_str("root coordinator"),
            Role::Sub { node, .. } => write!(f, "sub-coordinator node {node}"),
        }
    }
}

/// The protocol stage an upward gather serves.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Stage {
    /// Two-phase agreement: every rank's `State`, folded into a
    /// [`StateAgg`].
    Agreement,
    /// After do-ckpt: every rank's bookmark, merged into a
    /// destination-keyed directory.
    Bookmarks,
    /// Every rank's checkpoint-done stats.
    Completion,
    /// A promoted sub-coordinator discarding the `State` replies its dead
    /// predecessor left queued (their round is void).
    StaleDrain,
}

/// One rank's `State` reply: its reply, the instance behind an in-phase-1
/// one, and its per-communicator completed-collective counts.
type Reply = (RankReply, Option<CollInstance>, Vec<(u64, u64)>);

/// One upward gather as a pure fold: built for a [`Role`] and a
/// [`Stage`], it absorbs one frame at a time until [`Gather::done`], and
/// refuses every frame the role does not take at that stage with the
/// [`ProtocolViolation`] a driver raises. It owns no thread and no
/// network, so the topologies' drivers and the model checker run the
/// same code.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Gather {
    role: Role,
    stage: Stage,
    ckpt_id: u64,
    /// Frames still expected.
    left: u32,
    /// Per-rank agreement: each rank's `State` by rank, held until the
    /// last is in and then folded into `agg`. The fold is
    /// order-independent, so this changes no aggregate; it keeps the fold
    /// one-to-one with the replies received, which is what the model
    /// checker's states are keyed on.
    replies: Vec<(u32, Reply)>,
    /// Ranks the aggregated frames cover so far (tree root).
    covered: u32,
    /// Agreement: the round's safety aggregate.
    pub agg: StateAgg,
    /// Bookmarks: `dest rank -> [(sender, cumulative count)]`.
    pub directory: BTreeMap<u32, Vec<(u32, u64)>>,
    /// Completion: every rank's checkpoint-done stats, in arrival order.
    pub completions: Vec<RankCkptStats>,
}

impl Gather {
    /// An empty fold of checkpoint `ckpt_id`'s `stage` as `role` sees it.
    pub fn new(role: Role, stage: Stage, ckpt_id: u64) -> Gather {
        let left = match role {
            Role::FlatRoot { nranks } => nranks,
            Role::TreeRoot { nodes, .. } => nodes,
            Role::Sub { ranks, .. } => ranks,
        };
        Gather {
            role,
            stage,
            ckpt_id,
            left,
            replies: Vec::new(),
            covered: 0,
            agg: StateAgg::default(),
            directory: BTreeMap::new(),
            completions: Vec::new(),
        }
    }

    /// The stage this fold gathers.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// Every expected frame is in.
    pub fn done(&self) -> bool {
        self.left == 0
    }

    /// Fold one frame in, or refuse it: a frame of the wrong kind, a
    /// second `State` from one rank, aggregates whose last frame leaves
    /// them short of (or over) the world size, or any frame after the
    /// last.
    pub fn absorb(&mut self, msg: CtrlMsg) -> Result<(), Box<ProtocolViolation>> {
        let tree = matches!(self.role, Role::TreeRoot { .. });
        let last = self.left == 1;
        match (self.stage, msg) {
            (_, got) if self.done() => return Err(self.refuse("no frame (gather complete)", got)),
            (
                Stage::Agreement,
                CtrlMsg::State {
                    rank,
                    reply,
                    instance,
                    progress,
                },
            ) if !tree => {
                let Err(at) = self.replies.binary_search_by_key(&rank, |(r, _)| *r) else {
                    let got = CtrlMsg::State {
                        rank,
                        reply,
                        instance,
                        progress,
                    };
                    return Err(self.refuse("one State per rank (duplicate reply)", got));
                };
                self.replies.insert(at, (rank, (reply, instance, progress)));
                if last {
                    for (_, (reply, instance, progress)) in std::mem::take(&mut self.replies) {
                        self.agg.absorb(reply, instance, &progress);
                    }
                }
            }
            (Stage::Agreement, CtrlMsg::StateAggMsg { agg }) if tree => self.agg.merge(&agg),
            // The node's sub-coordinator failed over: it contributes
            // nothing this round, so the aggregate comes back short and
            // `decide_round` re-enters agreement.
            (Stage::Agreement, CtrlMsg::SubPromoted { .. }) if tree => {}
            (Stage::Bookmarks, CtrlMsg::Bookmark { rank, sent_to }) if !tree => {
                for (peer, cnt) in sent_to {
                    self.directory.entry(peer).or_default().push((rank, cnt));
                }
            }
            (Stage::Bookmarks, CtrlMsg::BookmarkAgg { replies, expected }) if tree => {
                self.covered += replies;
                if last && !self.covers_world() {
                    let got = CtrlMsg::BookmarkAgg { replies, expected };
                    return Err(self.refuse("BookmarkAggs covering every rank", got));
                }
                for (dest, senders) in expected {
                    self.directory.entry(dest).or_default().extend(senders);
                }
            }
            (Stage::Completion, CtrlMsg::CkptDone { stats, .. }) if !tree => {
                self.completions.push(stats)
            }
            (Stage::Completion, CtrlMsg::CkptDoneAgg { stats }) if tree => {
                self.covered += stats.len() as u32;
                if last && !self.covers_world() {
                    let got = CtrlMsg::CkptDoneAgg { stats };
                    return Err(self.refuse("CkptDoneAggs covering every rank", got));
                }
                self.completions.extend(stats);
            }
            (Stage::StaleDrain, CtrlMsg::State { .. }) if !tree => {}
            (stage, got) => {
                let expected = match (stage, tree) {
                    (Stage::Agreement, false) => "State",
                    (Stage::Agreement, true) => "StateAgg",
                    (Stage::Bookmarks, false) => "Bookmark",
                    (Stage::Bookmarks, true) => "BookmarkAgg",
                    (Stage::Completion, false) => "CkptDone",
                    (Stage::Completion, true) => "CkptDoneAgg",
                    (Stage::StaleDrain, _) => "State (stale, pre-promotion)",
                };
                return Err(self.refuse(expected, got));
            }
        }
        self.left -= 1;
        Ok(())
    }

    fn covers_world(&self) -> bool {
        matches!(self.role, Role::TreeRoot { nranks, .. } if self.covered == nranks)
    }

    fn refuse(&self, expected: &'static str, got: CtrlMsg) -> Box<ProtocolViolation> {
        let role = match self.stage {
            Stage::StaleDrain => format!("{} (promoted)", self.role),
            _ => self.role.to_string(),
        };
        let phase = match self.stage {
            Stage::Agreement | Stage::StaleDrain => ProtocolPhase::Agreement,
            Stage::Bookmarks => ProtocolPhase::BookmarkGather,
            Stage::Completion => ProtocolPhase::Completion,
        };
        Box::new(ProtocolViolation {
            role,
            ckpt_id: Some(self.ckpt_id),
            phase,
            expected,
            got,
        })
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

    fn ready_state(rank: u32) -> CtrlMsg {
        CtrlMsg::State {
            rank,
            reply: RankReply::Ready,
            instance: None,
            progress: vec![],
        }
    }

    #[test]
    fn each_role_refuses_what_it_does_not_take() {
        use ProtocolPhase::{Agreement as Ag, BookmarkGather as Bg, Completion as Co};
        let flat = Role::FlatRoot { nranks: 2 };
        let tree = Role::TreeRoot {
            nodes: 2,
            nranks: 4,
        };
        let sub = Role::Sub { node: 3, ranks: 2 };
        let promoted = || CtrlMsg::SubPromoted {
            node: 1,
            ckpt_id: 7,
        };
        let st = ready_state;
        let bms = |replies| CtrlMsg::BookmarkAgg {
            replies,
            expected: vec![(0, vec![(1, 4)])],
        };
        let done = |rank| CtrlMsg::CkptDone {
            rank,
            stats: RankCkptStats::default(),
        };
        let dones = |n| CtrlMsg::CkptDoneAgg {
            stats: vec![RankCkptStats::default(); n],
        };
        let dup = "one State per rank (duplicate reply)";
        let (root, subc) = ("coordinator", "sub-coordinator node 3");
        // (role, stage, frames, refusing role, phase, expected)
        #[rustfmt::skip]
        let cases = [
            (flat, Stage::Agreement, vec![st(1), st(1)], root, Ag, dup),
            (sub, Stage::Agreement, vec![st(6), st(6)], subc, Ag, dup),
            (flat, Stage::Agreement, vec![promoted()], root, Ag, "State"),
            (tree, Stage::Agreement, vec![st(0)], "root coordinator", Ag, "StateAgg"),
            (flat, Stage::Bookmarks, vec![st(0)], root, Bg, "Bookmark"),
            (tree, Stage::Bookmarks, vec![bms(2), bms(1)], "root coordinator", Bg, "BookmarkAggs covering every rank"),
            (tree, Stage::Completion, vec![dones(2), dones(3)], "root coordinator", Co, "CkptDoneAggs covering every rank"),
            (tree, Stage::Completion, vec![done(0)], "root coordinator", Co, "CkptDoneAgg"),
            (sub, Stage::Completion, vec![promoted()], subc, Co, "CkptDone"),
            (sub, Stage::StaleDrain, vec![st(6), done(7)], "sub-coordinator node 3 (promoted)", Ag, "State (stale, pre-promotion)"),
            (flat, Stage::Completion, vec![done(0), done(1), done(0)], root, Co, "no frame (gather complete)"),
        ];
        for (role, stage, frames, name, phase, expected) in cases {
            let mut fold = Gather::new(role, stage, 7);
            let v = frames
                .into_iter()
                .find_map(|msg| fold.absorb(msg).err())
                .unwrap_or_else(|| panic!("{role} took every frame at {stage:?}"));
            assert_eq!(
                (v.role.as_str(), v.phase, v.expected, v.ckpt_id),
                (name, phase, expected, Some(7)),
                "{role} at {stage:?}"
            );
        }
    }

    #[test]
    fn a_short_agreement_is_never_accepted() {
        // One node folded two ready ranks, which alone is safe; the other
        // node's sub-coordinator failed over and answered `SubPromoted`.
        let mut node = Gather::new(Role::Sub { node: 0, ranks: 2 }, Stage::Agreement, 7);
        for rank in [1, 0] {
            node.absorb(ready_state(rank)).unwrap();
        }
        let tree = Role::TreeRoot {
            nodes: 2,
            nranks: 4,
        };
        let partial = || CtrlMsg::StateAggMsg {
            agg: node.agg.clone(),
        };
        let mut short = Gather::new(tree, Stage::Agreement, 7);
        short.absorb(partial()).unwrap();
        let promoted = CtrlMsg::SubPromoted {
            node: 1,
            ckpt_id: 7,
        };
        short.absorb(promoted).unwrap();
        assert!(short.done() && short.agg.replies == 2 && checkpoint_safe(&short.agg));
        assert!(!decide_round(&short.agg, 4, checkpoint_safe));

        // The same round with both nodes' folds in is accepted.
        let mut full = Gather::new(tree, Stage::Agreement, 7);
        for _ in 0..2 {
            full.absorb(partial()).unwrap();
        }
        assert!(decide_round(&full.agg, 4, checkpoint_safe));
    }
}
