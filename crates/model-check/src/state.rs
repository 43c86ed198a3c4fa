//! Protocol state and transition relation.

use crate::spec::Spec;
use mana_core::ctrl::RankReply;
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

/// Rank → coordinator replies.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum RMsg {
    /// A state reply, as a helper sends it: the reply, the instance
    /// behind an in-phase-1 one, and the rank's per-communicator completed
    /// wrapped-collective counts at reply time. The progress vector is
    /// what lets the coordinator detect that an in-phase-1 instance has
    /// already been passed by another member (Challenge I / Lemma 1's
    /// bookkeeping) — without it, a stale in-phase-1 report can coexist
    /// with a member that already exited the collective, the barrier is
    /// complete, and the reporter can slip into phase 2 mid-checkpoint.
    State {
        /// The rank's reply.
        reply: RankReply,
        /// The collective instance behind an in-phase-1 reply.
        instance: Option<CollInstance>,
        /// `(comm, completed wrapped collectives on it)` per communicator.
        progress: Vec<(u64, u64)>,
    },
    /// local checkpoint complete
    CkptDone,
}

/// Coordinator protocol position.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum CPhase {
    /// Checkpoint not yet initiated.
    Idle,
    /// Waiting for one reply per rank (intend or extra-iteration round).
    Collecting,
    /// do-ckpt sent; waiting for ckpt-done from every rank.
    CollectingDones,
    /// Resume sent: checkpoint complete.
    Complete,
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
    /// Coordinator position.
    pub coord: CPhase,
    /// Replies collected this round (`None` until received), in rank order.
    pub replies: Vec<Option<RMsg>>,
    /// Ckpt-done count.
    pub dones: usize,
    /// FIFO channel coordinator → each rank.
    pub to_rank: Vec<VecDeque<CMsg>>,
    /// FIFO channel each rank → coordinator.
    pub to_coord: Vec<VecDeque<RMsg>>,
}

impl State {
    /// Per-communicator completed wrapped-collective counts for `r` (the
    /// progress vector attached to replies).
    pub fn progress_of(&self, spec: &Spec, r: usize) -> Vec<(u64, u64)> {
        let pc = self.ranks[r].pc;
        (0..spec.comms.len())
            .map(|c| (c as u64, spec.done_on(r, pc, c) as u64))
            .collect()
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
            coord: CPhase::Idle,
            replies: vec![None; n],
            dones: 0,
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
            && matches!(self.coord, CPhase::Idle | CPhase::Complete)
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
