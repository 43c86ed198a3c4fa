//! The checkpoint coordinator (paper §2.5 Algorithm 2, coordinator side;
//! §2.7) as one pure value for every role, and the pure fold every role
//! gathers with.
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
//! A [`Coordinator`] is that sequence for one [`Role`]: the flat star's
//! root speaks one frame per rank, the tree's root one aggregated frame
//! per node, and a node's sub-coordinator relays between the two. It owns
//! no thread and no network: [`Coordinator::step`] takes one frame and
//! returns what to send ([`Out`]). Every role handles a frame from above
//! the same way (fan it out, open a [`Gather`]); roles differ only when
//! the gather completes, where a root ends each agreement round in
//! [`decide_round`] and a sub-coordinator ships its node's fold upward.
//! `crate::topology` runs the value on the root's and each
//! sub-coordinator's sim thread, and `mana-model-check` runs the same
//! value for a flat root and for a tree root with its subs. So every
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
use crate::ctrl::{CtrlMsg, ProtocolPhase, ProtocolViolation, RankReply, StateAgg};
use crate::stats::RankCkptStats;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A do-ckpt rule over a round's [`StateAgg`]: [`checkpoint_safe`], or
/// a weakened one the model checker shows is caught.
pub type Rule = fn(&StateAgg) -> bool;

/// What one [`Coordinator::step`] asks its driver to do, in order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Out {
    /// Send a frame to the child at this index: a rank, or one of the
    /// tree root's sub-coordinators.
    Down(usize, CtrlMsg),
    /// Send a frame to the parent: a sub-coordinator's root.
    Up(CtrlMsg),
    /// A root's agreement round came back unsafe: one more extra
    /// iteration.
    Extra,
    /// A root decided do-ckpt: the report's `t_do_ckpt`.
    DoCkpt,
    /// A root handed out every expected-in list: `t_expected_in`.
    ExpectedIn,
    /// A root has every completion (`t_end`): the ranks' stats, by rank.
    End(Vec<RankCkptStats>),
    /// A sub-coordinator fanned out an agreement round: where it may die
    /// and a surviving rank take over ([`Coordinator::promote`]).
    Fanned {
        /// The round's checkpoint.
        ckpt_id: u64,
        /// The sub-coordinator's node.
        node: u32,
    },
}

/// What a coordinator awaits next.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Wait {
    /// The next round's first frame from above (a root's, from its
    /// schedule).
    Down,
    /// Its children's replies to a stage.
    Gather(Gather),
    /// A sub-coordinator's expected-in batch.
    Batch(u64),
    /// A sub-coordinator's resume.
    Resume(u64),
}

/// One coordinator of any [`Role`] as a pure value: it takes one frame
/// per [`Coordinator::step`] and returns what to send, owning no thread
/// and no network, so the simulator's driver and the model checker run
/// the same protocol code.
// Every coordinator of one job or one check copies one `rule`, so
// comparing and hashing its address is sound.
#[allow(unpredictable_function_pointer_comparisons)]
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Coordinator {
    role: Role,
    /// `(rank, child index)` for every rank behind this coordinator,
    /// each child's ranks ascending: a flat root's child is the rank, a
    /// tree root's is the node's sub-coordinator.
    child_of: Arc<[(u32, u32)]>,
    /// The checkpoint after which a root kills the job, if any.
    kill_at: Option<u64>,
    /// A root's do-ckpt rule.
    rule: Rule,
    wait: Wait,
}

impl Coordinator {
    fn new(role: Role, child_of: Vec<(u32, u32)>, kill_at: Option<u64>, rule: Rule) -> Self {
        let (child_of, wait) = (child_of.into(), Wait::Down);
        Coordinator {
            role,
            child_of,
            kill_at,
            rule,
            wait,
        }
    }

    /// The flat star's root over `nranks` ranks, killing the job after
    /// checkpoint `kill_at` if one is given.
    pub fn flat(nranks: u32, kill_at: Option<u64>, rule: Rule) -> Coordinator {
        let child_of = (0..nranks).map(|r| (r, r)).collect();
        Coordinator::new(Role::FlatRoot { nranks }, child_of, kill_at, rule)
    }

    /// The tree's root over one sub-coordinator per node, and those
    /// sub-coordinators: `nodes` lists each node's id and its ranks,
    /// ascending.
    pub fn tree(nodes: &[(u32, Vec<u32>)], kill_at: Option<u64>, rule: Rule) -> (Self, Vec<Self>) {
        let (mut child_of, mut subs) = (Vec::new(), Vec::new());
        for (&(node, ref ranks), c) in nodes.iter().zip(0..) {
            child_of.extend(ranks.iter().map(|r| (*r, c)));
            let (local, ranks) = (ranks.iter().copied().zip(0..).collect(), ranks.len() as u32);
            subs.push(Coordinator::new(
                Role::Sub { node, ranks },
                local,
                None,
                rule,
            ));
        }
        let (nodes, nranks) = (subs.len() as u32, child_of.len() as u32);
        (
            Coordinator::new(Role::TreeRoot { nodes, nranks }, child_of, kill_at, rule),
            subs,
        )
    }

    /// Awaiting the next round's first frame from above.
    pub fn idle(&self) -> bool {
        self.wait == Wait::Down
    }

    /// A sub-coordinator gathering its own node's ranks (the frames it
    /// awaits are same-node).
    pub fn gathers_node(&self) -> bool {
        matches!(self.role, Role::Sub { .. }) && matches!(self.wait, Wait::Gather(_))
    }

    /// The sub-coordinator died right after fanning out an agreement
    /// round ([`Out::Fanned`]) and a surviving rank on the node took its
    /// place. The replacement inherits the endpoint, drains the `State`
    /// replies the round left queued (the round is void) and then answers
    /// [`CtrlMsg::SubPromoted`], so the root re-enters agreement instead
    /// of waiting on the node's aggregate.
    pub fn promote(&mut self) {
        let (Role::Sub { .. }, Wait::Gather(fold)) = (self.role, &self.wait) else {
            panic!("{} promoted outside a sub-coordinator's gather", self.role)
        };
        self.wait = Wait::Gather(Gather::new(self.role, Stage::StaleDrain, fold.ckpt_id));
    }

    /// Take one frame: from above when idle (a root's from its
    /// schedule), else what the open stage awaits. Refuses any other
    /// frame with the [`ProtocolViolation`] a driver raises.
    pub fn step(&mut self, msg: CtrlMsg) -> Result<Vec<Out>, Box<ProtocolViolation>> {
        use ProtocolPhase::{ExpectedWait, Idle, ResumeWait};
        let (ckpt_id, phase, expected) = match (&mut self.wait, &msg) {
            (Wait::Gather(fold), _) => {
                fold.absorb(msg)?;
                return Ok(if fold.done() { self.close() } else { vec![] });
            }
            (
                Wait::Down,
                CtrlMsg::IntendCkpt { .. }
                | CtrlMsg::ExtraIteration { .. }
                | CtrlMsg::DoCkpt { .. },
            )
            | (Wait::Resume(_), CtrlMsg::Resume { .. }) => return Ok(self.fan_out(msg)),
            (Wait::Batch(id), CtrlMsg::ExpectedInBatch { per_rank }) => {
                // Route the node's expected-in lists to its ranks, in
                // batch order, then gather their completions.
                let child = |rank| self.child_of.iter().position(|(r, _)| *r == rank);
                let routes: Option<Vec<_>> = (per_rank.iter())
                    .map(|(rank, from)| {
                        let from = from.clone();
                        Some(Out::Down(child(*rank)?, CtrlMsg::ExpectedIn { from }))
                    })
                    .collect();
                let id = *id;
                if let Some(routes) = routes {
                    self.wait = Wait::Gather(Gather::new(self.role, Stage::Completion, id));
                    return Ok(routes);
                }
                (
                    Some(id),
                    ExpectedWait,
                    "ExpectedInBatch naming only this node's ranks",
                )
            }
            (Wait::Batch(id), _) => (Some(*id), ExpectedWait, "ExpectedInBatch"),
            (Wait::Resume(id), _) => (Some(*id), ResumeWait, "Resume"),
            (Wait::Down, _) => (None, Idle, "IntendCkpt/ExtraIteration/DoCkpt"),
        };
        Err(Box::new(ProtocolViolation {
            role: self.role.to_string(),
            ckpt_id,
            phase,
            expected,
            got: msg,
        }))
    }

    /// Send `msg` to every child and await what it asks for: the ranks'
    /// states after an intent or extra iteration, their bookmarks after
    /// do-ckpt, the next round after resume.
    fn fan_out(&mut self, msg: CtrlMsg) -> Vec<Out> {
        let mut out: Vec<Out> = (0..self.role.children() as usize)
            .map(|c| Out::Down(c, msg.clone()))
            .collect();
        self.wait = match msg {
            CtrlMsg::IntendCkpt { ckpt_id } | CtrlMsg::ExtraIteration { ckpt_id } => {
                if let Role::Sub { node, .. } = self.role {
                    out.push(Out::Fanned { ckpt_id, node });
                }
                Wait::Gather(Gather::new(self.role, Stage::Agreement, ckpt_id))
            }
            CtrlMsg::DoCkpt { ckpt_id } => {
                Wait::Gather(Gather::new(self.role, Stage::Bookmarks, ckpt_id))
            }
            _ => Wait::Down,
        };
        out
    }

    /// The open gather is complete: a sub-coordinator ships its node's
    /// fold upward; a root decides the round, hands out the expected-in
    /// lists, or resumes the ranks.
    fn close(&mut self) -> Vec<Out> {
        let Wait::Gather(fold) = std::mem::replace(&mut self.wait, Wait::Down) else {
            unreachable!("only a gather closes")
        };
        let ckpt_id = fold.ckpt_id;
        if let Role::Sub { node, ranks } = self.role {
            let up = match fold.stage {
                Stage::Agreement => CtrlMsg::StateAggMsg { agg: fold.agg },
                Stage::StaleDrain => CtrlMsg::SubPromoted { node, ckpt_id },
                Stage::Bookmarks => {
                    self.wait = Wait::Batch(ckpt_id);
                    let (replies, expected) = (ranks, fold.directory.into_iter().collect());
                    CtrlMsg::BookmarkAgg { replies, expected }
                }
                Stage::Completion => {
                    self.wait = Wait::Resume(ckpt_id);
                    let stats = fold.completions;
                    CtrlMsg::CkptDoneAgg { stats }
                }
            };
            return vec![Out::Up(up)];
        }
        let nranks = self.child_of.len() as u32;
        let (mark, next) = match fold.stage {
            Stage::Agreement if decide_round(&fold.agg, nranks, self.rule) => {
                (Out::DoCkpt, CtrlMsg::DoCkpt { ckpt_id })
            }
            Stage::Agreement => (Out::Extra, CtrlMsg::ExtraIteration { ckpt_id }),
            Stage::Bookmarks => {
                // Tell each rank what to expect from every peer: one
                // frame per rank from a flat root, one batch per node
                // from a tree root.
                let mut directory = fold.directory;
                let mut batches = vec![Vec::new(); self.role.children() as usize];
                for &(rank, c) in self.child_of.iter() {
                    let mut from = directory.remove(&rank).unwrap_or_default();
                    from.sort_unstable();
                    batches[c as usize].push((rank, from));
                }
                let mut out: Vec<Out> = (batches.into_iter().enumerate())
                    .map(|(c, mut per_rank)| match self.role {
                        Role::FlatRoot { .. } => {
                            let (_, from) = per_rank.pop().expect("a flat root's child is a rank");
                            Out::Down(c, CtrlMsg::ExpectedIn { from })
                        }
                        _ => Out::Down(c, CtrlMsg::ExpectedInBatch { per_rank }),
                    })
                    .collect();
                out.push(Out::ExpectedIn);
                self.wait = Wait::Gather(Gather::new(self.role, Stage::Completion, ckpt_id));
                return out;
            }
            Stage::Completion => {
                let mut stats = fold.completions;
                stats.sort_by_key(|s| s.rank);
                let kill = self.kill_at == Some(ckpt_id);
                (Out::End(stats), CtrlMsg::Resume { ckpt_id, kill })
            }
            Stage::StaleDrain => unreachable!("only a sub-coordinator is promoted"),
        };
        [vec![mark], self.fan_out(next)].concat()
    }
}

/// Algorithm 2's round decision: do-ckpt exactly when the aggregate holds
/// all `nranks` replies and `rule` accepts it, else an extra iteration. A
/// short aggregate (a promoted sub-coordinator answered
/// [`CtrlMsg::SubPromoted`]) is void however safe it looks: the next
/// round lets every rank report fresh state. The model checker passes a
/// weakened `rule` to show it is load-bearing.
pub fn decide_round(agg: &StateAgg, nranks: u32, rule: Rule) -> bool {
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

impl Role {
    /// Frames each stage takes: one per child.
    fn children(self) -> u32 {
        match self {
            Role::FlatRoot { nranks } => nranks,
            Role::TreeRoot { nodes, .. } => nodes,
            Role::Sub { ranks, .. } => ranks,
        }
    }
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
        Gather {
            role,
            stage,
            ckpt_id,
            left: role.children(),
            replies: Vec::new(),
            covered: 0,
            agg: StateAgg::default(),
            directory: BTreeMap::new(),
            completions: Vec::new(),
        }
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

    /// A flat root over 2 ranks, a tree root over nodes 1 and 3 (ranks
    /// 0–1 and 2–3), and node 3's sub-coordinator.
    fn roles() -> (Coordinator, Coordinator, Coordinator) {
        let flat = Coordinator::flat(2, None, checkpoint_safe);
        let nodes = [(1, vec![0, 1]), (3, vec![2, 3])];
        let (tree, mut subs) = Coordinator::tree(&nodes, None, checkpoint_safe);
        (flat, tree, subs.pop().unwrap())
    }

    /// `coord` after it took every frame of `frames`.
    fn after(mut coord: Coordinator, frames: Vec<CtrlMsg>) -> Coordinator {
        for msg in frames {
            coord.step(msg).unwrap();
        }
        coord
    }

    #[test]
    fn each_role_refuses_what_it_does_not_take() {
        use ProtocolPhase::{
            Agreement as Ag, BookmarkGather as Bg, Completion as Co, Idle, ResumeWait as Rw,
        };
        let (flat, tree, sub) = roles();
        let intend = || CtrlMsg::IntendCkpt { ckpt_id: 7 };
        let do_ckpt = || CtrlMsg::DoCkpt { ckpt_id: 7 };
        let promoted = || CtrlMsg::SubPromoted {
            node: 1,
            ckpt_id: 7,
        };
        let st = ready_state;
        let aggs = || {
            let mut agg = StateAgg::default();
            (0..2).for_each(|_| agg.absorb(RankReply::Ready, None, &[]));
            vec![CtrlMsg::StateAggMsg { agg }; 2]
        };
        let bm = |rank| CtrlMsg::Bookmark {
            rank,
            sent_to: vec![],
        };
        let bms = |replies| CtrlMsg::BookmarkAgg {
            replies,
            expected: vec![(0, vec![(1, 4)])],
        };
        let batch = |ranks: &[u32]| CtrlMsg::ExpectedInBatch {
            per_rank: ranks.iter().map(|r| (*r, vec![])).collect(),
        };
        let done = |rank| CtrlMsg::CkptDone {
            rank,
            stats: RankCkptStats::default(),
        };
        let dones = |n| CtrlMsg::CkptDoneAgg {
            stats: vec![RankCkptStats::default(); n],
        };
        // Each role's states, reached through `step`.
        let flat_at_bookmarks = after(flat.clone(), vec![intend(), st(0), st(1)]);
        let tree_at_bookmarks = after(tree.clone(), [vec![intend()], aggs()].concat());
        let tree_at_completion = after(tree_at_bookmarks.clone(), vec![bms(2), bms(2)]);
        let sub_at_batch = after(sub.clone(), vec![do_ckpt(), bm(2), bm(3)]);
        let sub_at_completion = after(sub_at_batch, vec![batch(&[2, 3])]);
        let sub_at_resume = after(sub_at_completion.clone(), vec![done(2), done(3)]);
        let mut promoted_sub = after(sub.clone(), vec![intend()]);
        promoted_sub.promote();
        let dup = "one State per rank (duplicate reply)";
        let idle = "IntendCkpt/ExtraIteration/DoCkpt";
        let (root, troot, subc) = ("coordinator", "root coordinator", "sub-coordinator node 3");
        // (coordinator, frames, refusing role, phase, expected, ckpt id)
        #[rustfmt::skip]
        let cases = [
            (flat.clone(), vec![intend(), st(1), st(1)], root, Ag, dup, Some(7)),
            (sub.clone(), vec![intend(), st(2), st(2)], subc, Ag, dup, Some(7)),
            (flat.clone(), vec![intend(), promoted()], root, Ag, "State", Some(7)),
            (tree.clone(), vec![intend(), st(0)], troot, Ag, "StateAgg", Some(7)),
            (flat_at_bookmarks, vec![st(0)], root, Bg, "Bookmark", Some(7)),
            (tree_at_bookmarks, vec![bms(2), bms(1)], troot, Bg, "BookmarkAggs covering every rank", Some(7)),
            (tree_at_completion.clone(), vec![dones(2), dones(3)], troot, Co, "CkptDoneAggs covering every rank", Some(7)),
            (tree_at_completion, vec![done(0)], troot, Co, "CkptDoneAgg", Some(7)),
            (sub_at_completion, vec![promoted()], subc, Co, "CkptDone", Some(7)),
            (promoted_sub, vec![st(2), done(3)], "sub-coordinator node 3 (promoted)", Ag, "State (stale, pre-promotion)", Some(7)),
            (flat, vec![intend(), st(0), st(1), bm(0), bm(1), done(0), done(1), done(0)], root, Idle, idle, None),
            (sub.clone(), vec![st(2)], subc, Idle, idle, None),
            (sub_at_resume, vec![intend()], subc, Rw, "Resume", Some(7)),
        ];
        for (mut coord, frames, name, phase, expected, ckpt_id) in cases {
            let role = coord.role;
            let v = frames
                .into_iter()
                .find_map(|msg| coord.step(msg).err())
                .unwrap_or_else(|| panic!("{role} took every frame"));
            assert_eq!(
                (v.role.as_str(), v.phase, v.expected, v.ckpt_id),
                (name, phase, expected, ckpt_id),
                "{role} expecting {expected}"
            );
        }
        // A complete gather takes no further frame.
        let mut fold = Gather::new(Role::FlatRoot { nranks: 1 }, Stage::Completion, 7);
        fold.absorb(done(0)).unwrap();
        let v = fold.absorb(done(0)).unwrap_err();
        assert_eq!(v.expected, "no frame (gather complete)");
    }

    #[test]
    fn a_promoted_sub_coordinator_drains_the_round_and_answers_sub_promoted() {
        let (_, _, mut sub) = roles();
        let fanned = sub.step(CtrlMsg::IntendCkpt { ckpt_id: 7 }).unwrap();
        assert_eq!(
            fanned.last(),
            Some(&Out::Fanned {
                ckpt_id: 7,
                node: 3
            })
        );
        sub.promote();
        assert_eq!(sub.step(ready_state(3)).unwrap(), vec![]);
        let up = CtrlMsg::SubPromoted {
            node: 3,
            ckpt_id: 7,
        };
        assert_eq!(sub.step(ready_state(2)).unwrap(), vec![Out::Up(up)]);
        assert!(sub.idle());
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
