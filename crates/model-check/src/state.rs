//! Protocol state and transition relation.

use crate::spec::Spec;
use mana_core::coordinator::Gather;
use mana_core::ctrl::{CtrlMsg, RankReply};
use mana_core::{CollInstance, Phase, RankProtocol};
use std::collections::VecDeque;

/// Coordinator → rank messages.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CMsg {
    /// intend-to-checkpoint / extra-iteration (identical rank-side effect).
    Intend,
    /// do-ckpt.
    DoCkpt,
    /// resume.
    Resume,
}

/// One rank's model state: its program position and core's
/// [`RankProtocol`], the rank side that runs in every `CkptCell`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
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
    /// The coordinator: core's fold of the open stage, as a flat root
    /// builds it (`None` until the checkpoint is initiated; a complete
    /// completion fold once it has finished).
    pub coord: Option<Gather>,
    /// FIFO channel coordinator → each rank.
    pub to_rank: Vec<VecDeque<CMsg>>,
    /// FIFO channel each rank → coordinator: the frames a helper sends.
    /// A `State` carries the rank's per-communicator completed
    /// wrapped-collective counts, which let the coordinator detect that an
    /// in-phase-1 instance has already been passed by another member
    /// (Challenge I / Lemma 1's bookkeeping).
    pub to_coord: Vec<VecDeque<CtrlMsg>>,
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

    /// Initial state.
    pub fn init(spec: &Spec) -> State {
        let n = spec.nranks();
        let rank = RankSt {
            pc: 0,
            done: false,
            proto: RankProtocol::default(),
            ckpt_pc: None,
        };
        State {
            ranks: vec![rank; n],
            coord: None,
            to_rank: vec![VecDeque::new(); n],
            to_coord: vec![VecDeque::new(); n],
        }
    }

    /// Fully terminal: programs done, channels empty, checkpoint (if
    /// started) complete.
    pub fn terminal(&self) -> bool {
        self.ranks.iter().all(|r| r.done)
            && self.to_rank.iter().all(VecDeque::is_empty)
            && self.to_coord.iter().all(VecDeque::is_empty)
            && self.coord.as_ref().is_none_or(Gather::done)
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
