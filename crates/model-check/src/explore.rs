//! Breadth-first exhaustive exploration of the protocol state space.

use crate::spec::Spec;
use crate::state::State;
use mana_core::coordinator::{checkpoint_safe, Out, Rule};
use mana_core::ctrl::{CtrlMsg, RankReply};
use mana_core::stats::RankCkptStats;
use mana_core::{CollInstance, Phase};
use std::collections::{HashSet, VecDeque};
use std::fmt;

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

/// `N states, M transitions: ` and the verdict: no violation, or the
/// violation itself.
impl fmt::Display for CheckOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states, {} transitions: ",
            self.states, self.transitions
        )?;
        match &self.violation {
            None => f.write_str("no deadlocks, no broken invariants"),
            Some(v) => write!(f, "VIOLATION {v:?}"),
        }
    }
}

/// The checkpoint every model run takes.
const CKPT_ID: u64 = 1;

/// Generate all successors of `s`. Any violation encountered while
/// firing a transition is returned instead. Every rank transition is a
/// [`RankProtocol`] method, the one the running `CkptCell` calls; every
/// coordinator transition is core's [`Coordinator::step`], the one the
/// simulator's driver calls.
///
/// [`RankProtocol`]: mana_core::RankProtocol
/// [`Coordinator::step`]: mana_core::coordinator::Coordinator::step
fn successors(spec: &Spec, s: &State) -> Result<Vec<State>, Violation> {
    let n = spec.nranks();
    let mut out = Vec::new();

    for r in 0..s.down.len() {
        if let Some(rk) = s.ranks.get(r) {
            let mut next = rk.clone();
            let mut owed = false;
            let stepped = match rk.proto.phase() {
                _ if rk.done => false,
                // Quiesced at an operation boundary (or gated) until
                // resume; ckpt_pc already holds its position.
                Phase::Outside if rk.proto.must_quiesce() => false,
                Phase::Outside if rk.pc == spec.programs[r].len() => {
                    next.done = true;
                    true
                }
                // Arrive at the next wrapper and pass its gate unless an
                // intent holds it; a gated rank passes once resumed.
                Phase::Outside => {
                    if !rk.proto.at_gate() {
                        next.proto.arrive(instance(spec, r, rk.pc));
                    }
                    if !next.proto.gate_closed() {
                        next.proto.pass_gate();
                    }
                    next.proto != rk.proto
                }
                Phase::Phase1 if s.all_reached(spec, r, Phase::Phase1) => {
                    next.proto.enter_phase2();
                    true
                }
                Phase::Phase2 if s.all_reached(spec, r, Phase::Phase2) => {
                    next.pc += 1;
                    owed = next.proto.exit_phase2();
                    true
                }
                Phase::Phase1 | Phase::Phase2 => false,
            };
            if stepped {
                let mut t = s.clone();
                t.ranks[r] = next;
                if owed {
                    let frame = t.state_frame(spec, r, RankReply::ExitPhase2, None);
                    t.up[r].push_back(frame);
                }
                out.push(t);
            }
        }

        // Deliver the next frame from above: to a rank, or to a
        // sub-coordinator.
        if let Some(msg) = s.down[r].front().cloned() {
            let mut t = s.clone();
            t.down[r].pop_front();
            if r < n {
                deliver(spec, &mut t, r, msg)?;
                out.push(t);
            } else {
                step(spec, t, r - n + 1, msg, &mut out)?;
            }
        }

        // The endpoint's parent coordinator takes its next frame.
        if let Some(msg) = s.up[r].front().cloned() {
            let mut t = s.clone();
            t.up[r].pop_front();
            step(spec, t, spec.parent(r), msg, &mut out)?;
        }
    }

    // Checkpoint initiation (at any time — the adversarial schedule).
    if !s.started {
        let (mut t, intend) = (s.clone(), CtrlMsg::IntendCkpt { ckpt_id: CKPT_ID });
        t.started = true;
        step(spec, t, 0, intend, &mut out)?;
    }

    Ok(out)
}

/// Rank `r`'s helper takes `msg` from its coordinator, as the running
/// helper does: a state reply to an intent, a bookmark after do-ckpt
/// (the model's programs send no point-to-point messages, so it is
/// empty), ckpt-done after the expected-in counts, and resume.
fn deliver(spec: &Spec, t: &mut State, r: usize, msg: CtrlMsg) -> Result<(), Violation> {
    let rank = r as u32;
    let reply = match msg {
        CtrlMsg::IntendCkpt { .. } | CtrlMsg::ExtraIteration { .. } => {
            let Some((reply, instance)) = t.ranks[r].proto.on_intent() else {
                return Ok(());
            };
            t.state_frame(spec, r, reply, instance)
        }
        CtrlMsg::DoCkpt { .. } => {
            if t.ranks[r].proto.phase() == Phase::Phase2 {
                return Err(Violation::CkptInsidePhase2 { rank: r });
            }
            t.ranks[r].proto.do_ckpt();
            t.ranks[r].ckpt_pc = Some(t.ranks[r].pc);
            CtrlMsg::Bookmark {
                rank,
                sent_to: vec![],
            }
        }
        CtrlMsg::ExpectedIn { .. } => CtrlMsg::CkptDone {
            rank,
            stats: RankCkptStats::default(),
        },
        CtrlMsg::Resume { .. } => {
            t.ranks[r].proto.resume();
            t.ranks[r].ckpt_pc = None;
            return Ok(());
        }
        other => {
            return Err(Violation::ProtocolError {
                what: format!("helper rank {r} got {other:?}"),
            })
        }
    };
    t.up[r].push_back(reply);
    Ok(())
}

/// Coordinator `k` (the root is 0) takes `msg` through core's
/// [`Coordinator::step`], and its sends go onto the channels. Once every
/// image is taken the cut is checked. Where a sub-coordinator may fail
/// over, and none has in this run, a second successor promotes it
/// through core's [`Coordinator::promote`].
///
/// [`Coordinator::step`]: mana_core::coordinator::Coordinator::step
/// [`Coordinator::promote`]: mana_core::coordinator::Coordinator::promote
fn step(
    spec: &Spec,
    mut t: State,
    k: usize,
    msg: CtrlMsg,
    out: &mut Vec<State>,
) -> Result<(), Violation> {
    let sent = t.coords[k]
        .step(msg)
        .map_err(|v| Violation::ProtocolError {
            what: v.to_string(),
        })?;
    for o in sent {
        match o {
            Out::Down(c, msg) => t.down[spec.child(k, c)].push_back(msg),
            Out::Up(msg) => t.up[spec.nranks() + k - 1].push_back(msg),
            Out::End(_) => {
                if let Some(v) = cut_violation(spec, &t) {
                    return Err(v);
                }
            }
            Out::Fanned { .. } if !t.promoted => {
                let mut promoted = t.clone();
                promoted.promoted = true;
                promoted.coords[k].promote();
                out.push(promoted);
            }
            _ => {}
        }
    }
    out.push(t);
    Ok(())
}

/// Rank `r`'s `pc`-th collective as core numbers it: the model counts a
/// communicator's collectives from 0, the wrapper from 1.
fn instance(spec: &Spec, r: usize, pc: usize) -> CollInstance {
    let (comm, seq) = spec.instance_of(r, pc);
    CollInstance {
        comm_virt: comm as u64,
        wseq: seq as u64 + 1,
        size: spec.comms[comm].len() as u32,
    }
}

/// With every image taken, no collective instance may be straddled: for
/// each instance, either every member's image predates it or every
/// member's image postdates it.
fn cut_violation(spec: &Spec, s: &State) -> Option<Violation> {
    for (comm, members) in spec.comms.iter().enumerate() {
        let per_comm_total = members
            .iter()
            .map(|&r| spec.done_on(r, spec.programs[r].len(), comm))
            .max()
            .unwrap_or(0);
        for seq in 0..per_comm_total {
            let mut before = false;
            let mut after = false;
            for r in members {
                let pc = s.ranks[*r].ckpt_pc.expect("all ranks checkpointed");
                if spec.done_on(*r, pc, comm) > seq {
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
pub fn check_under(spec: &Spec, rule: Rule) -> CheckOutcome {
    spec.validate();
    let init = State::init(spec, rule);
    let mut seen: HashSet<State> = HashSet::new();
    let mut queue: VecDeque<State> = VecDeque::new();
    seen.insert(init.clone());
    queue.push_back(init);
    let mut transitions = 0usize;

    while let Some(s) = queue.pop_front() {
        let succs = match successors(spec, &s) {
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
        // `manasim verify`'s default; the graph is pinned by its counts.
        let out = check(&Spec::uniform_world(3, 2));
        assert!(out.ok(), "{:?}", out.violation);
        assert_eq!((out.states, out.transitions), (24_246, 81_950));
    }

    #[test]
    fn overlapping_communicators_safe() {
        // Challenge III: concurrent collectives on overlapping comms.
        let out = check(&Spec::overlapping_comms());
        assert!(out.ok(), "{:?}", out.violation);
        assert_eq!((out.states, out.transitions), (31_134, 104_073));
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
        // The CLI's rendering names the violation itself.
        let shown = out.to_string();
        assert!(
            shown.contains("VIOLATION CkptInsidePhase2 { rank: 0 }"),
            "{shown}"
        );
        assert!(!shown.contains("Some("), "{shown}");
    }

    /// 3 ranks on 2 nodes, node 0 holding 2: the tree root and both
    /// sub-coordinators are core's, and either sub-coordinator may fail
    /// over once per run, right after it fans out an agreement round.
    fn tree() -> Spec {
        Spec::uniform_world(3, 1).on_nodes(vec![vec![0, 1], vec![2]])
    }

    #[test]
    fn a_tree_with_a_failover_is_safe() {
        let out = check(&tree());
        assert!(out.ok(), "{:?}", out.violation);
        assert_eq!((out.states, out.transitions), (56_879, 206_789));
    }

    #[test]
    fn a_weakened_rule_is_caught_in_the_tree() {
        let out = check_under(&tree(), |agg| agg.exit_phase2 == 0);
        assert_eq!(out.violation, Some(Violation::CkptInsidePhase2 { rank: 0 }));
    }

    #[test]
    fn done_ranks_still_answer_protocol() {
        // A checkpoint initiated after some ranks finished must still
        // complete (their helpers answer ready).
        let spec = Spec {
            comms: vec![vec![0, 1]],
            programs: vec![vec![0], vec![0]],
            nodes: vec![],
        };
        let out = check(&spec);
        assert!(out.ok(), "{:?}", out.violation);
    }
}
