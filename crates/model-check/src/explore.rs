//! Breadth-first exhaustive exploration of the protocol state space.

use crate::spec::Spec;
use crate::state::{CMsg, CPhase, RMsg, RPhase, ReplyKind, State};
use mana_core::coordinator::checkpoint_safe;
use mana_core::ctrl::RankReply;
use mana_core::{CollInstance, StateAgg};
use std::collections::{HashSet, VecDeque};

/// A property violation, with a human-readable description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// do-ckpt delivered to a rank inside the real collective (Theorem 1).
    CkptInsidePhase2 {
        /// Offending rank.
        rank: usize,
    },
    /// Checkpoint images straddle a collective: some members' images are
    /// before instance `(comm, seq)` and others after.
    InconsistentCut {
        /// Communicator id.
        comm: usize,
        /// Instance sequence number on that communicator.
        seq: usize,
    },
    /// A state with no enabled transition that is not fully terminal.
    Deadlock {
        /// Debug rendering of the stuck state.
        state: String,
    },
    /// Protocol-soundness breach (duplicate reply, unexpected message).
    ProtocolError {
        /// Description.
        what: String,
    },
}

/// Exploration result.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions taken.
    pub transitions: usize,
    /// First violation found, if any (exploration stops on it).
    pub violation: Option<Violation>,
}

impl CheckOutcome {
    /// True when no property was violated.
    pub fn ok(&self) -> bool {
        self.violation.is_none()
    }
}

/// Generate all successors of `s` under the do-ckpt `rule`. Any
/// violation encountered while firing a transition is returned instead.
/// Public for counterexample tooling.
pub fn successors(
    spec: &Spec,
    s: &State,
    rule: fn(&StateAgg) -> bool,
) -> Result<Vec<State>, Violation> {
    let n = spec.nranks();
    let mut out = Vec::new();

    for r in 0..n {
        let rk = &s.ranks[r];
        match rk.phase {
            RPhase::Computing => {
                // Finish program or arrive at the next collective wrapper.
                if rk.do_ckpt {
                    // Quiesced at an operation boundary; nothing to do
                    // until resume (already captured by ckpt_pc).
                } else if rk.pc == spec.programs[r].len() {
                    let mut t = s.clone();
                    t.ranks[r].phase = RPhase::Done;
                    out.push(t);
                } else if rk.intent {
                    let mut t = s.clone();
                    t.ranks[r].phase = RPhase::AtGate;
                    out.push(t);
                } else {
                    let mut t = s.clone();
                    t.ranks[r].phase = RPhase::InBarrier;
                    out.push(t);
                }
            }
            RPhase::AtGate => {
                if !rk.intent && !rk.do_ckpt {
                    let mut t = s.clone();
                    t.ranks[r].phase = RPhase::InBarrier;
                    out.push(t);
                }
            }
            RPhase::InBarrier => {
                if s.barrier_complete(spec, r) {
                    let mut t = s.clone();
                    t.ranks[r].phase = RPhase::InColl;
                    out.push(t);
                }
            }
            RPhase::InColl => {
                if s.coll_complete(spec, r) {
                    let mut t = s.clone();
                    t.ranks[r].phase = RPhase::Computing;
                    t.ranks[r].pc += 1;
                    if t.ranks[r].reply_owed {
                        t.ranks[r].reply_owed = false;
                        let progress = t.progress_of(spec, r);
                        t.to_coord[r].push_back(RMsg::State {
                            kind: ReplyKind::ExitPhase2,
                            progress,
                        });
                    }
                    out.push(t);
                }
            }
            RPhase::Done => {}
        }

        // Deliver the next coordinator→rank message.
        if let Some(msg) = s.to_rank[r].front().copied() {
            let mut t = s.clone();
            t.to_rank[r].pop_front();
            match msg {
                CMsg::Intend => {
                    t.ranks[r].intent = true;
                    let progress = t.progress_of(spec, r);
                    match t.ranks[r].phase {
                        RPhase::InColl => t.ranks[r].reply_owed = true,
                        RPhase::InBarrier => {
                            let (comm, seq) = spec.instance_of(r, t.ranks[r].pc);
                            let size = spec.comms[comm].len();
                            t.to_coord[r].push_back(RMsg::State {
                                kind: ReplyKind::InPhase1(comm, seq, size),
                                progress,
                            });
                        }
                        _ => t.to_coord[r].push_back(RMsg::State {
                            kind: ReplyKind::Ready,
                            progress,
                        }),
                    }
                }
                CMsg::DoCkpt => {
                    if t.ranks[r].phase == RPhase::InColl {
                        return Err(Violation::CkptInsidePhase2 { rank: r });
                    }
                    t.ranks[r].do_ckpt = true;
                    t.ranks[r].ckpt_pc = Some(t.ranks[r].pc);
                    t.to_coord[r].push_back(RMsg::CkptDone);
                }
                CMsg::Resume => {
                    t.ranks[r].intent = false;
                    t.ranks[r].do_ckpt = false;
                    t.ranks[r].ckpt_pc = None;
                }
            }
            out.push(t);
        }

        // Coordinator consumes the next rank→coordinator message.
        if let Some(msg) = s.to_coord[r].front().cloned() {
            let mut t = s.clone();
            t.to_coord[r].pop_front();
            match (&t.coord, msg) {
                (CPhase::Collecting, msg @ RMsg::State { .. }) => {
                    if t.replies[r].is_some() {
                        return Err(Violation::ProtocolError {
                            what: format!("duplicate reply from rank {r}"),
                        });
                    }
                    t.replies[r] = Some(msg);
                    if t.replies.iter().all(Option::is_some) {
                        // End of round: apply the do-ckpt rule.
                        let safe = rule(&round_agg(&t.replies));
                        for q in t.replies.iter_mut() {
                            *q = None;
                        }
                        if !safe {
                            for q in 0..n {
                                t.to_rank[q].push_back(CMsg::Intend);
                            }
                        } else {
                            for q in 0..n {
                                t.to_rank[q].push_back(CMsg::DoCkpt);
                            }
                            t.coord = CPhase::CollectingDones;
                        }
                    }
                }
                (CPhase::CollectingDones, RMsg::CkptDone) => {
                    t.dones += 1;
                    if t.dones == n {
                        // All images taken: check cut consistency before
                        // resuming.
                        if let Some(v) = cut_violation(spec, &t) {
                            return Err(v);
                        }
                        t.dones = 0;
                        for q in 0..n {
                            t.to_rank[q].push_back(CMsg::Resume);
                        }
                        t.coord = CPhase::Complete;
                    }
                }
                (phase, msg) => {
                    return Err(Violation::ProtocolError {
                        what: format!("coordinator in {phase:?} got {msg:?} from rank {r}"),
                    });
                }
            }
            out.push(t);
        }
    }

    // Checkpoint initiation (at any time — the adversarial schedule).
    if s.coord == CPhase::Idle {
        let mut t = s.clone();
        for q in 0..n {
            t.to_rank[q].push_back(CMsg::Intend);
        }
        t.coord = CPhase::Collecting;
        out.push(t);
    }

    Ok(out)
}

/// Fold a complete round's replies into the coordinator's [`StateAgg`],
/// exactly as a flat coordinator absorbs them. The model numbers a
/// communicator's collectives from 0 and the wrapper from 1, so the
/// model's instance `(comm, seq)` is core's `(comm, seq + 1)`; a progress
/// entry is a completed count in both.
fn round_agg(replies: &[Option<RMsg>]) -> StateAgg {
    let mut agg = StateAgg::default();
    for reply in replies {
        let Some(RMsg::State { kind, progress }) = reply else {
            unreachable!("round evaluated before completion")
        };
        let (reply, instance) = match *kind {
            ReplyKind::Ready => (RankReply::Ready, None),
            ReplyKind::ExitPhase2 => (RankReply::ExitPhase2, None),
            ReplyKind::InPhase1(comm, seq, size) => (
                RankReply::InPhase1,
                Some(CollInstance {
                    comm_virt: comm as u64,
                    wseq: seq as u64 + 1,
                    size: size as u32,
                }),
            ),
        };
        let progress: Vec<(u64, u64)> = progress
            .iter()
            .enumerate()
            .map(|(comm, done)| (comm as u64, *done as u64))
            .collect();
        agg.absorb(reply, instance, &progress);
    }
    agg
}

/// With every image taken, no collective instance may be straddled: for
/// each instance, either every member's image predates it or every
/// member's image postdates it.
fn cut_violation(spec: &Spec, s: &State) -> Option<Violation> {
    for (comm, members) in spec.comms.iter().enumerate() {
        let per_comm_total = members
            .iter()
            .map(|r| spec.programs[*r].iter().filter(|c| **c == comm).count())
            .max()
            .unwrap_or(0);
        for seq in 0..per_comm_total {
            let mut before = false;
            let mut after = false;
            for r in members {
                let pc = s.ranks[*r].ckpt_pc.expect("all ranks checkpointed");
                let done_on_comm = spec.programs[*r][..pc]
                    .iter()
                    .filter(|c| **c == comm)
                    .count();
                if done_on_comm > seq {
                    after = true;
                } else {
                    before = true;
                }
            }
            if before && after {
                return Some(Violation::InconsistentCut { comm, seq });
            }
        }
    }
    None
}

/// Exhaustively explore `spec`'s state space under the coordinator's own
/// do-ckpt rule, [`checkpoint_safe`].
pub fn check(spec: &Spec) -> CheckOutcome {
    check_under(spec, checkpoint_safe)
}

/// Exhaustively explore `spec`'s state space, sending do-ckpt after a
/// complete round exactly when `rule` holds for its aggregate. Tests pass
/// a weakened rule to show the checker catches what it lets through.
pub fn check_under(spec: &Spec, rule: fn(&StateAgg) -> bool) -> CheckOutcome {
    spec.validate();
    let init = State::init(spec);
    let mut seen: HashSet<State> = HashSet::new();
    let mut queue: VecDeque<State> = VecDeque::new();
    seen.insert(init.clone());
    queue.push_back(init);
    let mut transitions = 0usize;

    while let Some(s) = queue.pop_front() {
        let succs = match successors(spec, &s, rule) {
            Ok(v) => v,
            Err(violation) => {
                return CheckOutcome {
                    states: seen.len(),
                    transitions,
                    violation: Some(violation),
                };
            }
        };
        if succs.is_empty() && !s.terminal() {
            return CheckOutcome {
                states: seen.len(),
                transitions,
                violation: Some(Violation::Deadlock {
                    state: format!("{s:?}"),
                }),
            };
        }
        for t in succs {
            transitions += 1;
            if seen.insert(t.clone()) {
                queue.push_back(t);
            }
        }
    }
    CheckOutcome {
        states: seen.len(),
        transitions,
        violation: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_ranks_one_collective_safe() {
        let out = check(&Spec::uniform_world(2, 1));
        assert!(out.ok(), "{:?}", out.violation);
        assert!(out.states > 50);
    }

    #[test]
    fn three_ranks_two_collectives_safe() {
        let out = check(&Spec::uniform_world(3, 2));
        assert!(out.ok(), "{:?}", out.violation);
    }

    #[test]
    fn overlapping_communicators_safe() {
        // Challenge III: concurrent collectives on overlapping comms.
        let out = check(&Spec::overlapping_comms());
        assert!(out.ok(), "{:?}", out.violation);
        assert!(out.states > 1000);
    }

    #[test]
    fn weakened_coordinator_is_caught() {
        // Without the full-phase-1 refusal, all members can assemble in
        // the trivial barrier, slip into the real collective, and receive
        // do-ckpt inside it — the checker must find that.
        let out = check_under(&Spec::uniform_world(2, 1), |agg| agg.exit_phase2 == 0);
        assert!(
            matches!(
                out.violation,
                Some(Violation::CkptInsidePhase2 { .. }) | Some(Violation::InconsistentCut { .. })
            ),
            "weakened rule not caught: {:?}",
            out.violation
        );
    }

    #[test]
    fn done_ranks_still_answer_protocol() {
        // A checkpoint initiated after some ranks finished must still
        // complete (their helpers answer ready).
        let spec = Spec {
            comms: vec![vec![0, 1]],
            programs: vec![vec![0], vec![0]],
        };
        let out = check(&spec);
        assert!(out.ok(), "{:?}", out.violation);
    }
}
