//! Control-plane protocol between the checkpoint coordinator and the
//! per-rank helper threads.
//!
//! This is the DMTCP-style coordinator channel: plain TCP, entirely
//! separate from the MPI data plane (the coordinator works no matter which
//! fabric MPI uses — part of the network-agnostic story). Message names
//! follow Algorithm 2 of the paper.
//!
//! Two families of messages travel on this plane:
//!
//! * **per-rank messages** (`IntendCkpt`, `State`, `Bookmark`, ...):
//!   what every helper speaks, regardless of topology;
//! * **aggregated messages** (`StateAgg`, `BookmarkAgg`,
//!   `ExpectedInBatch`, `CkptDoneAgg`): what a tree topology's node-level
//!   sub-coordinator exchanges with the root, so the root handles
//!   O(nodes) messages instead of O(ranks) — the §3.4/Figure 8 scaling
//!   fix. The aggregate payloads are designed to be *mergeable*: the root
//!   combines per-node partials with [`StateAgg::merge`] and the combined
//!   value is exactly what a flat coordinator would have computed from the
//!   individual replies, so the safety decision is topology-invariant by
//!   construction.

use crate::stats::RankCkptStats;
use std::collections::BTreeMap;
use std::fmt;

/// Rank states reported to the coordinator (Algorithm 2, line 2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RankReply {
    /// Not inside a collective wrapper; will gate before entering one.
    Ready,
    /// Inside phase 1 (trivial barrier) or stopped right after it; will not
    /// enter the real collective.
    InPhase1,
    /// Was inside phase 2; has now finished the collective call. The
    /// coordinator must run an extra iteration.
    ExitPhase2,
}

/// Order-independent reduction of a round of `State` replies — everything
/// the do-ckpt safety rule needs, and nothing that identifies individual
/// ranks. A flat coordinator folds each incoming reply into one running
/// aggregate with [`StateAgg::absorb`]; a tree sub-coordinator folds its
/// node's replies the same way and ships the partial upward, where the
/// root combines partials with [`StateAgg::merge`]. Both orders produce
/// the same value, so from the same replies both topologies make
/// identical safety decisions.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct StateAgg {
    /// Number of rank replies folded in (the root checks this reaches the
    /// world size before deciding).
    pub replies: u32,
    /// Ranks that reported exit-phase-2 (any > 0 forces an extra
    /// iteration).
    pub exit_phase2: u32,
    /// In-phase-1 membership per reported collective instance:
    /// `(comm_virt, wseq) -> (members reporting in-barrier, comm size)`.
    pub phase1: BTreeMap<(u64, u64), (u32, u32)>,
    /// Per-communicator histogram of completed wrapped-collective counts:
    /// `comm_virt -> completed count -> ranks reporting it`. Lets the
    /// safety rule count, for any instance, the members that already
    /// *passed* it (completed ≥ wseq) without knowing at aggregation time
    /// which instances other nodes will report.
    pub progress: BTreeMap<u64, BTreeMap<u64, u32>>,
}

impl StateAgg {
    /// Fold one rank's `State` reply into the aggregate.
    pub fn absorb(
        &mut self,
        reply: RankReply,
        instance: Option<crate::cell::CollInstance>,
        progress: &[(u64, u64)],
    ) {
        self.replies += 1;
        match reply {
            RankReply::ExitPhase2 => self.exit_phase2 += 1,
            RankReply::InPhase1 => {
                let inst = instance.expect("in-phase-1 reply must carry its instance");
                let e = self
                    .phase1
                    .entry((inst.comm_virt, inst.wseq))
                    .or_insert((0, inst.size));
                e.0 += 1;
            }
            RankReply::Ready => {}
        }
        for (comm, completed) in progress {
            *self
                .progress
                .entry(*comm)
                .or_default()
                .entry(*completed)
                .or_insert(0) += 1;
        }
    }

    /// Combine another (per-node) partial aggregate into this one.
    pub fn merge(&mut self, other: &StateAgg) {
        self.replies += other.replies;
        self.exit_phase2 += other.exit_phase2;
        for (inst, (k, size)) in &other.phase1 {
            let e = self.phase1.entry(*inst).or_insert((0, *size));
            e.0 += k;
            debug_assert_eq!(e.1, *size, "instance size mismatch across nodes");
        }
        for (comm, hist) in &other.progress {
            let h = self.progress.entry(*comm).or_default();
            for (completed, n) in hist {
                *h.entry(*completed).or_insert(0) += n;
            }
        }
    }
}

/// Control-plane messages.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CtrlMsg {
    /// Coordinator → rank: a checkpoint is intended; report your state and
    /// stop before any new collective call.
    IntendCkpt {
        /// Checkpoint id.
        ckpt_id: u64,
    },
    /// Coordinator → rank: someone reported exit-phase-2; report again.
    ExtraIteration {
        /// Checkpoint id.
        ckpt_id: u64,
    },
    /// Rank → coordinator: state reply to intend/extra-iteration.
    State {
        /// Reporting rank.
        rank: u32,
        /// Its state.
        reply: RankReply,
        /// For in-phase-1 replies: the collective instance, so the
        /// coordinator can check whether the instance's trivial barrier
        /// could still complete (safety rule; see `cell` docs).
        instance: Option<crate::cell::CollInstance>,
        /// Per-communicator completed wrapped-collective counts at reply
        /// time: (virtual comm id, completed count). Lets the coordinator
        /// detect that a reported phase-1 instance has already been passed
        /// by another member (the model checker found the stale-in-phase-1
        /// race the paper's Challenge I describes; this is Lemma 1's
        /// bookkeeping made explicit).
        progress: Vec<(u64, u64)>,
    },
    /// Sub-coordinator → root: one node's `State` replies, pre-reduced.
    StateAggMsg {
        /// The node's partial safety aggregate.
        agg: StateAgg,
    },
    /// Coordinator → rank: all ranks are safe; checkpoint now.
    DoCkpt {
        /// Checkpoint id.
        ckpt_id: u64,
    },
    /// Rank → coordinator: bookmark — how many messages this rank has sent
    /// to each peer (global rank), cumulatively.
    Bookmark {
        /// Reporting rank.
        rank: u32,
        /// (peer, cumulative sent count) pairs.
        sent_to: Vec<(u32, u64)>,
    },
    /// Sub-coordinator → root: its node's bookmarks, merged into a
    /// destination-keyed directory — `(dest rank, [(sender, count)])`.
    BookmarkAgg {
        /// Ranks whose bookmarks are folded in.
        replies: u32,
        /// Destination-keyed sent-to directory.
        expected: Vec<(u32, Vec<(u32, u64)>)>,
    },
    /// Coordinator → rank: cumulative counts each peer has sent *to you*
    /// (the other half of the bookmark exchange).
    ExpectedIn {
        /// (peer, cumulative sent-to-you count) pairs.
        from: Vec<(u32, u64)>,
    },
    /// Root → sub-coordinator: expected-in lists for every rank on the
    /// node, fanned out locally as individual [`CtrlMsg::ExpectedIn`]s.
    ExpectedInBatch {
        /// `(rank, expected-in list)` per local rank.
        per_rank: Vec<(u32, Vec<(u32, u64)>)>,
    },
    /// Rank → coordinator: local checkpoint written.
    CkptDone {
        /// Reporting rank.
        rank: u32,
        /// Local measurements.
        stats: RankCkptStats,
    },
    /// Sub-coordinator → root: its node's per-rank checkpoint stats,
    /// rolled into one frame.
    CkptDoneAgg {
        /// Per-rank stats for the node's ranks.
        stats: Vec<RankCkptStats>,
    },
    /// Sub-coordinator → root: the node's sub-coordinator process died
    /// mid-gather and a surviving rank on the node was promoted in its
    /// place. The dying process took the round's local `State` replies
    /// with it, so the root must re-enter agreement (an extra iteration)
    /// to let the promoted sub-coordinator re-collect them.
    SubPromoted {
        /// The node whose sub-coordinator failed over.
        node: u32,
        /// The checkpoint round the failure interrupted.
        ckpt_id: u64,
    },
    /// Coordinator → rank: everyone finished; resume (or die, per config).
    Resume {
        /// Checkpoint id.
        ckpt_id: u64,
        /// If true the job terminates instead of resuming (migration
        /// workflows restart it elsewhere from the images).
        kill: bool,
    },
}

impl CtrlMsg {
    /// Short variant name for protocol-violation reports.
    pub fn variant(&self) -> &'static str {
        match self {
            CtrlMsg::IntendCkpt { .. } => "IntendCkpt",
            CtrlMsg::ExtraIteration { .. } => "ExtraIteration",
            CtrlMsg::State { .. } => "State",
            CtrlMsg::StateAggMsg { .. } => "StateAgg",
            CtrlMsg::DoCkpt { .. } => "DoCkpt",
            CtrlMsg::Bookmark { .. } => "Bookmark",
            CtrlMsg::BookmarkAgg { .. } => "BookmarkAgg",
            CtrlMsg::ExpectedIn { .. } => "ExpectedIn",
            CtrlMsg::ExpectedInBatch { .. } => "ExpectedInBatch",
            CtrlMsg::CkptDone { .. } => "CkptDone",
            CtrlMsg::CkptDoneAgg { .. } => "CkptDoneAgg",
            CtrlMsg::SubPromoted { .. } => "SubPromoted",
            CtrlMsg::Resume { .. } => "Resume",
        }
    }
}

/// Modelled wire size of a control message (small TCP frames; their
/// metadata cost is what makes the coordinator's communication overhead
/// grow with rank count — §3.4, Figure 8). Payload-carrying messages
/// scale with their payload; the aggregated tree messages are bigger per
/// frame but O(nodes) of them replace O(ranks) small frames.
pub fn ctrl_msg_bytes(m: &CtrlMsg) -> u64 {
    match m {
        CtrlMsg::State {
            instance, progress, ..
        } => 48 + if instance.is_some() { 20 } else { 0 } + 12 * progress.len() as u64,
        CtrlMsg::StateAggMsg { agg } => {
            32 + 24 * agg.phase1.len() as u64
                + agg
                    .progress
                    .values()
                    .map(|h| 12 + 12 * h.len() as u64)
                    .sum::<u64>()
        }
        CtrlMsg::Bookmark { sent_to, .. } => 24 + 12 * sent_to.len() as u64,
        CtrlMsg::BookmarkAgg { expected, .. } => {
            24 + expected
                .iter()
                .map(|(_, senders)| 8 + 12 * senders.len() as u64)
                .sum::<u64>()
        }
        CtrlMsg::ExpectedIn { from } => 24 + 12 * from.len() as u64,
        CtrlMsg::ExpectedInBatch { per_rank } => {
            24 + per_rank
                .iter()
                .map(|(_, from)| 8 + 12 * from.len() as u64)
                .sum::<u64>()
        }
        CtrlMsg::CkptDone { .. } => 96,
        CtrlMsg::CkptDoneAgg { stats } => 16 + 88 * stats.len() as u64,
        _ => 48,
    }
}

/// Phase of the checkpoint protocol an endpoint is in when it receives a
/// control message — reported by [`ProtocolViolation`] so a sim-thread
/// abort names where in Algorithm 2 the conversation derailed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtocolPhase {
    /// Waiting for the next downward message (no checkpoint in flight).
    Idle,
    /// Two-phase agreement: gathering `State` replies.
    Agreement,
    /// Gathering `Bookmark`s after do-ckpt.
    BookmarkGather,
    /// A rank/sub-coordinator waiting for its expected-in counts.
    ExpectedWait,
    /// Gathering `CkptDone` completions.
    Completion,
    /// A rank/sub-coordinator waiting for the final `Resume`.
    ResumeWait,
}

impl fmt::Display for ProtocolPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProtocolPhase::Idle => "idle",
            ProtocolPhase::Agreement => "two-phase agreement",
            ProtocolPhase::BookmarkGather => "bookmark gather",
            ProtocolPhase::ExpectedWait => "expected-in wait",
            ProtocolPhase::Completion => "completion gather",
            ProtocolPhase::ResumeWait => "resume wait",
        };
        f.write_str(s)
    }
}

/// A structured control-protocol violation: who was listening, during
/// which checkpoint and protocol phase, what they expected, and the
/// offending message. The single abort path for every "unexpected control
/// message" case, replacing ad-hoc `panic!` arms so sim-thread aborts are
/// diagnosable.
#[derive(Clone, Debug)]
pub struct ProtocolViolation {
    /// The violated endpoint ("coordinator", "sub-coordinator node 3",
    /// "helper rank 7").
    pub role: String,
    /// Checkpoint in flight, if one is (`None` for idle-loop violations).
    pub ckpt_id: Option<u64>,
    /// Protocol phase the endpoint was in.
    pub phase: ProtocolPhase,
    /// What the phase admits.
    pub expected: &'static str,
    /// The offending message.
    pub got: CtrlMsg,
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "control-protocol violation: {} ", self.role)?;
        match self.ckpt_id {
            Some(id) => write!(f, "in {} phase of ckpt {id}", self.phase)?,
            None => write!(f, "in {} phase", self.phase)?,
        }
        write!(
            f,
            " expected {}, got {}: {:?}",
            self.expected,
            self.got.variant(),
            self.got
        )
    }
}

impl ProtocolViolation {
    /// Abort the current sim thread with the violation report.
    pub fn raise(self) -> ! {
        panic!("{self}")
    }
}

/// Convenience constructor + abort for the common inline case.
pub fn protocol_violation(
    role: impl Into<String>,
    ckpt_id: impl Into<Option<u64>>,
    phase: ProtocolPhase,
    expected: &'static str,
    got: CtrlMsg,
) -> ! {
    ProtocolViolation {
        role: role.into(),
        ckpt_id: ckpt_id.into(),
        phase,
        expected,
        got,
    }
    .raise()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CollInstance;

    #[test]
    fn sizes_scale_with_payload() {
        let small = ctrl_msg_bytes(&CtrlMsg::IntendCkpt { ckpt_id: 1 });
        let book = ctrl_msg_bytes(&CtrlMsg::Bookmark {
            rank: 0,
            sent_to: vec![(1, 5); 100],
        });
        assert!(book > small);
        assert_eq!(small, 48);

        // A State reply's size grows with its progress payload (it used to
        // be a flat 48 bytes regardless), and an in-phase-1 reply carrying
        // its instance costs more than a bare ready.
        let bare = ctrl_msg_bytes(&CtrlMsg::State {
            rank: 0,
            reply: RankReply::Ready,
            instance: None,
            progress: vec![],
        });
        assert_eq!(bare, 48, "empty State matches the old flat frame");
        let with_progress = ctrl_msg_bytes(&CtrlMsg::State {
            rank: 0,
            reply: RankReply::Ready,
            instance: None,
            progress: vec![(1, 5); 40],
        });
        assert_eq!(with_progress, 48 + 12 * 40);
        let in_phase1 = ctrl_msg_bytes(&CtrlMsg::State {
            rank: 0,
            reply: RankReply::InPhase1,
            instance: Some(CollInstance {
                comm_virt: 1,
                wseq: 5,
                size: 4,
            }),
            progress: vec![(1, 4)],
        });
        assert!(in_phase1 > bare + 12);

        // Aggregated frames scale with their payloads too.
        let mut agg = StateAgg::default();
        let small_agg = ctrl_msg_bytes(&CtrlMsg::StateAggMsg { agg: agg.clone() });
        for r in 0..32u64 {
            agg.absorb(RankReply::Ready, None, &[(1, r), (2, r)]);
        }
        let big_agg = ctrl_msg_bytes(&CtrlMsg::StateAggMsg { agg });
        assert!(big_agg > small_agg);

        let batch = ctrl_msg_bytes(&CtrlMsg::ExpectedInBatch {
            per_rank: vec![(0, vec![(1, 5); 10]), (1, vec![(0, 3); 10])],
        });
        assert_eq!(batch, 24 + 2 * (8 + 12 * 10));

        let done1 = ctrl_msg_bytes(&CtrlMsg::CkptDoneAgg {
            stats: vec![RankCkptStats::default(); 1],
        });
        let done8 = ctrl_msg_bytes(&CtrlMsg::CkptDoneAgg {
            stats: vec![RankCkptStats::default(); 8],
        });
        assert_eq!(done8 - done1, 7 * 88);
    }

    #[test]
    fn state_agg_merge_equals_absorb() {
        // Folding replies one-by-one and merging per-node partials must
        // produce identical aggregates (the tree reduction is exactly the
        // flat fold, re-associated).
        let inst = |comm, wseq, size| {
            Some(CollInstance {
                comm_virt: comm,
                wseq,
                size,
            })
        };
        type Reply = (RankReply, Option<CollInstance>, Vec<(u64, u64)>);
        let replies: Vec<Reply> = vec![
            (RankReply::Ready, None, vec![(1, 4), (2, 9)]),
            (RankReply::InPhase1, inst(1, 5, 4), vec![(1, 4), (2, 9)]),
            (RankReply::InPhase1, inst(1, 5, 4), vec![(1, 4)]),
            (RankReply::ExitPhase2, None, vec![(1, 5), (2, 9)]),
            (RankReply::InPhase1, inst(2, 10, 2), vec![(2, 9)]),
            (RankReply::Ready, None, vec![]),
        ];
        let mut flat = StateAgg::default();
        for (r, i, p) in &replies {
            flat.absorb(*r, *i, p);
        }
        for split in 1..replies.len() {
            let (a, b) = replies.split_at(split);
            let mut left = StateAgg::default();
            for (r, i, p) in a {
                left.absorb(*r, *i, p);
            }
            let mut right = StateAgg::default();
            for (r, i, p) in b {
                right.absorb(*r, *i, p);
            }
            left.merge(&right);
            assert_eq!(left, flat, "split at {split} diverged");
        }
        assert_eq!(flat.replies, 6);
        assert_eq!(flat.exit_phase2, 1);
        assert_eq!(flat.phase1[&(1, 5)], (2, 4));
        assert_eq!(flat.phase1[&(2, 10)], (1, 2));
        assert_eq!(flat.progress[&1][&4], 3);
        assert_eq!(flat.progress[&1][&5], 1);
    }

    #[test]
    fn violation_report_names_phase_and_message() {
        let v = ProtocolViolation {
            role: "sub-coordinator node 3".to_string(),
            ckpt_id: Some(7),
            phase: ProtocolPhase::BookmarkGather,
            expected: "Bookmark",
            got: CtrlMsg::Resume {
                ckpt_id: 7,
                kill: false,
            },
        };
        let msg = v.to_string();
        assert!(msg.contains("sub-coordinator node 3"), "{msg}");
        assert!(msg.contains("ckpt 7"), "{msg}");
        assert!(msg.contains("bookmark gather"), "{msg}");
        assert!(msg.contains("expected Bookmark"), "{msg}");
        assert!(msg.contains("got Resume"), "{msg}");

        let idle = ProtocolViolation {
            role: "helper rank 2".to_string(),
            ckpt_id: None,
            phase: ProtocolPhase::Idle,
            expected: "IntendCkpt/ExtraIteration/DoCkpt",
            got: CtrlMsg::ExpectedIn { from: vec![] },
        };
        let msg = idle.to_string();
        assert!(msg.contains("idle phase"), "{msg}");
        assert!(!msg.contains("ckpt "), "{msg}");
    }
}
