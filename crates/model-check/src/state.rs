//! Protocol state and transition relation.

use crate::spec::Spec;
use mana_core::coordinator::{Coordinator, Rule};
use mana_core::ctrl::{CtrlMsg, RankReply};
use mana_core::{CollInstance, Phase, RankProtocol};
use std::collections::VecDeque;

/// One rank's model state: its program position and core's
/// [`RankProtocol`], the rank side that runs in every `CkptCell`.
#[derive(Clone, Default, PartialEq, Eq, Hash, Debug)]
pub struct RankSt {
    /// Next program entry.
    pub pc: usize,
    /// Program finished.
    pub done: bool,
    /// Algorithm 2's rank side.
    pub proto: RankProtocol,
    /// Program counter at the moment the local checkpoint was taken
    /// (`None` before do-ckpt / after resume). Used for the cross-rank
    /// image-consistency invariant.
    pub ckpt_pc: Option<usize>,
}

/// A global protocol state.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct State {
    /// Per-rank states.
    pub ranks: Vec<RankSt>,
    /// The coordinators, each core's own value: the root, then in a tree
    /// each node's sub-coordinator.
    pub coords: Vec<Coordinator>,
    /// The checkpoint was initiated (once per run).
    pub started: bool,
    /// A sub-coordinator failed over (at most once per run).
    pub promoted: bool,
    /// FIFO channel from its parent coordinator to each endpoint: the
    /// ranks, then the sub-coordinators.
    pub down: Vec<VecDeque<CtrlMsg>>,
    /// FIFO channel from each endpoint to its parent coordinator. A
    /// rank's `State` carries its per-communicator completed
    /// wrapped-collective counts, which let the coordinator detect that
    /// an in-phase-1 instance has already been passed by another member
    /// (Challenge I / Lemma 1's bookkeeping).
    pub up: Vec<VecDeque<CtrlMsg>>,
}

impl State {
    /// The `State` frame rank `r`'s helper sends now: `reply`, its
    /// instance, and `r`'s completed wrapped-collective count on every
    /// communicator.
    pub fn state_frame(
        &self,
        spec: &Spec,
        r: usize,
        reply: RankReply,
        instance: Option<CollInstance>,
    ) -> CtrlMsg {
        let pc = self.ranks[r].pc;
        let progress = (0..spec.comms.len())
            .map(|c| (c as u64, spec.done_on(r, pc, c) as u64))
            .collect();
        CtrlMsg::State {
            rank: r as u32,
            reply,
            instance,
            progress,
        }
    }

    /// Initial state: no checkpoint initiated, coordinators built as the
    /// simulator builds them, under the do-ckpt `rule`.
    pub fn init(spec: &Spec, rule: Rule) -> State {
        let n = spec.nranks();
        let coords = match spec.nodes.as_slice() {
            [] => vec![Coordinator::flat(n as u32, None, rule)],
            nodes => {
                let as_u32 = |ranks: &Vec<usize>| ranks.iter().map(|r| *r as u32).collect();
                let nodes: Vec<_> = (0..).zip(nodes).map(|(j, rs)| (j, as_u32(rs))).collect();
                let (root, subs) = Coordinator::tree(&nodes, None, rule);
                [vec![root], subs].concat()
            }
        };
        let endpoints = n + coords.len() - 1;
        State {
            ranks: vec![RankSt::default(); n],
            coords,
            started: false,
            promoted: false,
            down: vec![VecDeque::new(); endpoints],
            up: vec![VecDeque::new(); endpoints],
        }
    }

    /// Fully terminal: programs done, channels empty, every coordinator
    /// awaiting a next round.
    pub fn terminal(&self) -> bool {
        self.ranks.iter().all(|r| r.done)
            && self.down.iter().all(VecDeque::is_empty)
            && self.up.iter().all(VecDeque::is_empty)
            && self.coords.iter().all(Coordinator::idle)
    }

    /// Has every member of `r`'s current instance reached `phase` of it
    /// (phase 1 counts phase 2 too), or passed it? With
    /// [`Phase::Phase1`] the trivial barrier is complete; with
    /// [`Phase::Phase2`] the real collective is (our engine's collectives
    /// complete all-or-none).
    pub fn all_reached(&self, spec: &Spec, r: usize, phase: Phase) -> bool {
        let (comm, seq) = spec.instance_of(r, self.ranks[r].pc);
        spec.comms[comm].iter().all(|&m| {
            let rk = &self.ranks[m];
            let done = spec.done_on(m, rk.pc, comm);
            let here = rk.proto.phase();
            done > seq
                || (done == seq
                    && spec.programs[m].get(rk.pc) == Some(&comm)
                    && (here == phase || here == Phase::Phase2))
        })
    }
}
