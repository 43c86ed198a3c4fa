//! Per-rank checkpoint state machine shared between the rank's main thread
//! and its checkpoint helper thread (paper §2.5, Algorithm 2 rank side).
//!
//! # Protocol position
//!
//! Every collective call is wrapped (Algorithm 1): a *pre-wrapper gate*,
//! then phase 1 (trivial barrier), then phase 2 (the real collective).
//! Once a rank passes the gate it flows through both phases without
//! stopping — a rank inside the trivial barrier is *committed* to the
//! collective. Safety ("no rank is inside phase 2 when do-ckpt arrives",
//! Theorem 1) is enforced by the coordinator's do-ckpt rule instead of a
//! local stop: the coordinator only fires when every reply is `ready` or
//! `in-phase-1` **and** every reported phase-1 collective instance still
//! misses at least one member (that member is gated/ready, so the trivial
//! barrier cannot complete and nobody can slip into phase 2 during the
//! checkpoint). A fully-assembled phase-1 instance or any `exit-phase-2`
//! reply triggers an extra iteration, exactly the paper's mechanism for
//! Challenges I–III. This closes a liveness gap in the literal reading of
//! Algorithm 2 (a rank stopped between the phases would deadlock a peer
//! already inside a synchronizing collective) while preserving its
//! invariant; [`crate::coordinator::checkpoint_safe`] states the rule.
//!
//! The rank side itself is [`RankProtocol`], a pure value whose
//! transitions [`CkptCell`] runs under its lock and `mana-model-check`
//! explores exhaustively, so the code that runs is the code that is
//! model-checked.
//!
//! # Quiescence
//!
//! At do-ckpt the rank must stop mutating state. Safe parked states:
//! explicitly quiesced at an operation boundary, gated before a wrapper,
//! or blocked inside a phase-1 trivial barrier. Ranks blocked in a receive
//! are woken and converted to quiesced; ranks blocked in a rendezvous send
//! are released by the drain itself (the receiving helper acknowledges
//! their payload) and then quiesce at the next boundary.

use crate::ctrl::RankReply;
use mana_mpi::job::MpiJob;
use mana_sim::sched::{Sim, SimThread, SimThreadId};
use parking_lot::Mutex;
use std::sync::Arc;

/// Panic payload for clean job termination (`MPI_Abort`-style); caught by
/// the MANA runner's rank-thread wrapper.
pub struct JobKilled;

/// Where the rank is in the collective wrapper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Phase {
    /// Not inside a collective wrapper.
    #[default]
    Outside,
    /// Inside phase 1 (the trivial barrier) of a wrapped collective.
    Phase1,
    /// Inside phase 2 (the real collective call).
    Phase2,
}

/// Rank-thread park state observable by the helper.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Park {
    /// Running (or parked in a compute advance — indistinguishable and
    /// irrelevant to the helper).
    #[default]
    Running,
    /// Stopped at the pre-wrapper gate.
    AtGate,
    /// Blocked in the interruptible receive loop.
    InRecvWait,
    /// Blocked inside the lower half completing a (rendezvous) send.
    InLowerSend,
    /// Blocked inside the phase-1 trivial barrier.
    InPhase1Barrier,
    /// Explicitly quiesced at an operation boundary.
    Quiesced,
}

/// Identity of one wrapped-collective instance, as reported to the
/// coordinator: (virtual communicator id, per-communicator wrapper
/// sequence number). Virtual ids are allocated in lockstep on every rank,
/// so instances are globally comparable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CollInstance {
    /// Virtual communicator id.
    pub comm_virt: u64,
    /// Wrapper-collective sequence number on that communicator.
    pub wseq: u64,
    /// Communicator size (lets the coordinator detect fully-assembled
    /// phase-1 barriers).
    pub size: u32,
}

/// Algorithm 2's rank side as a pure value: where the rank is in the
/// wrapper and what the coordinator has told it. Its transitions never
/// park or wake anyone; [`CkptCell`] runs them under its lock and does
/// the blocking, and `mana-model-check` explores every interleaving of
/// the same methods.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct RankProtocol {
    phase: Phase,
    /// Instance whose wrapper-sequence number has been allocated but whose
    /// trivial barrier has *not* been entered (rank is at/approaching the
    /// gate). Counts as "not yet entered" in progress reports.
    allocated: Option<CollInstance>,
    /// Instance whose trivial barrier has been entered (blocking wrapper
    /// in phase 1/2, or an outstanding §4.2 nonblocking collective).
    /// Reported as in-phase-1 to the coordinator.
    engaged: Option<CollInstance>,
    intent: bool,
    do_ckpt: bool,
    reply_owed: bool,
}

impl RankProtocol {
    /// Where the rank is in the collective wrapper.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Arrived at a wrapper's gate and not yet through it.
    pub fn at_gate(&self) -> bool {
        self.allocated.is_some()
    }

    /// do-ckpt received and not yet resumed: the rank stops at its next
    /// operation boundary.
    pub fn must_quiesce(&self) -> bool {
        self.do_ckpt
    }

    /// Arrive at the pre-wrapper gate of `inst`, its sequence number
    /// consumed.
    pub fn arrive(&mut self, inst: CollInstance) {
        assert!(
            self.engaged.is_none(),
            "collective wrapper entered while another collective is engaged \
             (only one outstanding nonblocking two-phase collective is supported)"
        );
        self.allocated = Some(inst);
    }

    /// The gate holds while a checkpoint is intended or being taken
    /// (Algorithm 2 line 28: "continue, but wait before next collective
    /// communication call").
    pub fn gate_closed(&self) -> bool {
        self.intent || self.do_ckpt
    }

    /// Pass the open gate into phase 1 of the arrived instance.
    pub fn pass_gate(&mut self) {
        debug_assert!(!self.gate_closed());
        self.phase = Phase::Phase1;
        self.engaged = self.allocated.take();
    }

    /// Phase 1 → phase 2 (no stop: committed).
    pub fn enter_phase2(&mut self) {
        debug_assert_eq!(self.phase, Phase::Phase1);
        self.phase = Phase::Phase2;
    }

    /// Leave phase 2. True when an intent arrived during the collective,
    /// so an exit-phase-2 reply is owed (Algorithm 2 lines 21–27).
    pub fn exit_phase2(&mut self) -> bool {
        debug_assert_eq!(self.phase, Phase::Phase2);
        self.phase = Phase::Outside;
        self.engaged = None;
        std::mem::take(&mut self.reply_owed)
    }

    /// An intend-to-checkpoint / extra-iteration message arrived. Returns
    /// the immediate reply with the instance behind an in-phase-1 one, or
    /// `None` in phase 2, where the reply waits for
    /// [`RankProtocol::exit_phase2`].
    pub fn on_intent(&mut self) -> Option<(RankReply, Option<CollInstance>)> {
        self.intent = true;
        match self.phase {
            // A rank that has entered a trivial barrier (blocking wrapper
            // or outstanding nonblocking collective) reports in-phase-1; a
            // rank merely gated (allocated, not entered) reports ready.
            Phase::Outside if self.engaged.is_none() => Some((RankReply::Ready, None)),
            Phase::Outside | Phase::Phase1 => Some((RankReply::InPhase1, self.engaged)),
            Phase::Phase2 => {
                self.reply_owed = true;
                None
            }
        }
    }

    /// do-ckpt arrived.
    pub fn do_ckpt(&mut self) {
        self.do_ckpt = true;
    }

    /// The checkpoint completed: clear intent and do-ckpt.
    pub fn resume(&mut self) {
        self.intent = false;
        self.do_ckpt = false;
    }
}

#[derive(Default)]
struct CellSt {
    proto: RankProtocol,
    park: Park,
    kill: bool,
    pending_exit_phase2: bool,
    rank_tid: Option<SimThreadId>,
    helper_tid: Option<SimThreadId>,
}

/// The shared cell.
pub struct CkptCell {
    sim: Sim,
    /// The MPI job, aborted on kill.
    job: Option<Arc<MpiJob>>,
    st: Mutex<CellSt>,
}

impl CkptCell {
    /// Fresh cell for one rank incarnation; a kill aborts `job`.
    pub fn new(sim: &Sim, job: Option<Arc<MpiJob>>) -> CkptCell {
        CkptCell {
            sim: sim.clone(),
            job,
            st: Mutex::new(CellSt::default()),
        }
    }

    /// Register the rank main thread.
    pub fn register_rank(&self, tid: SimThreadId) {
        self.st.lock().rank_tid = Some(tid);
    }

    /// Register the helper thread.
    pub fn register_helper(&self, tid: SimThreadId) {
        self.st.lock().helper_tid = Some(tid);
    }

    fn wake_helper_locked(&self, st: &CellSt) {
        if let Some(h) = st.helper_tid {
            self.sim.wake(h);
        }
    }

    fn die(&self) -> ! {
        std::panic::panic_any(JobKilled)
    }

    // ----- rank side --------------------------------------------------------

    /// Operation-boundary quiesce point. If a checkpoint is being taken,
    /// park as `Quiesced` until resumed. Called by the application
    /// environment between operations and by the wrapper's receive loop.
    pub fn quiesce_check(&self, t: &SimThread) {
        loop {
            let mut st = self.st.lock();
            if st.kill {
                drop(st);
                self.die();
            }
            if st.proto.must_quiesce() {
                st.park = Park::Quiesced;
                self.wake_helper_locked(&st);
                drop(st);
                t.block();
            } else {
                st.park = Park::Running;
                return;
            }
        }
    }

    /// The pre-wrapper gate: arrive at `instance`, park while the gate is
    /// closed, then enter phase 1.
    pub fn pre_collective_gate(&self, t: &SimThread, instance: CollInstance) {
        self.st.lock().proto.arrive(instance);
        loop {
            let mut st = self.st.lock();
            if st.kill {
                drop(st);
                self.die();
            }
            if st.proto.gate_closed() {
                st.park = Park::AtGate;
                self.wake_helper_locked(&st);
                drop(st);
                t.block();
            } else {
                st.proto.pass_gate();
                st.park = Park::Running;
                return;
            }
        }
    }

    /// Transition phase 1 → phase 2 (no stop: committed).
    pub fn enter_phase2(&self) {
        self.st.lock().proto.enter_phase2();
    }

    /// Issue-time bookkeeping for a two-phase nonblocking collective: the
    /// rank returns to computing but stays *engaged* (it has entered the
    /// nonblocking trivial barrier), so it keeps reporting in-phase-1.
    pub fn detach_engaged(&self) {
        let proto = &mut self.st.lock().proto;
        debug_assert_eq!(proto.phase, Phase::Phase1);
        debug_assert!(proto.engaged.is_some());
        proto.phase = Phase::Outside;
    }

    /// Restart-path re-engagement: a restored image carried an outstanding
    /// nonblocking collective, so this fresh incarnation is morally in
    /// phase 1 of `inst` from the start.
    pub fn restore_engaged(&self, inst: CollInstance) {
        let proto = &mut self.st.lock().proto;
        debug_assert!(proto.engaged.is_none());
        proto.engaged = Some(inst);
    }

    /// Completion-time re-entry into phase 1 for the outstanding
    /// nonblocking collective.
    pub fn reenter_pending_phase1(&self) -> CollInstance {
        let proto = &mut self.st.lock().proto;
        let inst = proto.engaged.expect("no engaged nonblocking collective");
        proto.phase = Phase::Phase1;
        inst
    }

    /// Leave phase 2, waking the helper if it owes the coordinator an
    /// exit-phase-2 reply.
    pub fn exit_phase2(&self) {
        let mut st = self.st.lock();
        if st.proto.exit_phase2() {
            st.pending_exit_phase2 = true;
            self.wake_helper_locked(&st);
        }
    }

    /// Run `f` with the park marker set to `park` (restored to `Running`
    /// afterwards). Used around blocking lower-half calls.
    pub fn with_park<R>(&self, park: Park, f: impl FnOnce() -> R) -> R {
        {
            let mut st = self.st.lock();
            st.park = park;
            // A checkpoint is intended or under way: the helper may be
            // waiting for this rank to park.
            if st.proto.gate_closed() {
                self.wake_helper_locked(&st);
            }
        }
        let r = f();
        let mut st = self.st.lock();
        st.park = Park::Running;
        if st.kill {
            drop(st);
            self.die();
        }
        r
    }

    /// Whether a do-ckpt or kill is waiting for this rank's next
    /// [`CkptCell::quiesce_check`]. Both flags wake the rank when set, but
    /// a wake that lands inside an `advance` is absorbed by it: a loop
    /// about to park *without* a `Park` marker must ask first.
    pub fn interrupt_pending(&self) -> bool {
        let st = self.st.lock();
        st.proto.must_quiesce() || st.kill
    }

    // ----- helper side ------------------------------------------------------

    /// Handle an intend-to-checkpoint / extra-iteration message
    /// ([`RankProtocol::on_intent`]). `None` means the rank is in phase 2
    /// and the reply waits for [`CkptCell::take_pending_exit_phase2`].
    pub fn on_intent(&self) -> Option<(RankReply, Option<CollInstance>)> {
        self.st.lock().proto.on_intent()
    }

    /// Instances whose wrapper sequence number this rank has consumed but
    /// not completed (gated-allocated and/or engaged). Subtracted from the
    /// per-communicator progress counts reported to the coordinator.
    pub fn initiated_incomplete(&self) -> Vec<CollInstance> {
        let proto = &self.st.lock().proto;
        proto
            .allocated
            .iter()
            .chain(&proto.engaged)
            .copied()
            .collect()
    }

    /// Consume a pending exit-phase-2 notification.
    pub fn take_pending_exit_phase2(&self) -> bool {
        let mut st = self.st.lock();
        std::mem::take(&mut st.pending_exit_phase2)
    }

    /// Mark do-ckpt received: wake the rank so interruptible waits convert
    /// to quiescence.
    pub fn set_do_ckpt(&self) {
        let mut st = self.st.lock();
        st.proto.do_ckpt();
        if let Some(r) = st.rank_tid {
            self.sim.wake(r);
        }
    }

    /// Rank can no longer initiate sends (its send counters are final).
    pub fn bookmark_safe(&self) -> bool {
        self.st.lock().park != Park::Running
    }

    /// Rank is parked at a state whose snapshot is consistent.
    pub fn snapshot_safe(&self) -> bool {
        matches!(
            self.st.lock().park,
            Park::Quiesced | Park::AtGate | Park::InPhase1Barrier
        )
    }

    /// Block the helper until `pred` holds (woken by rank transitions).
    pub fn helper_wait(&self, t: &SimThread, mut pred: impl FnMut(&CkptCell) -> bool) {
        loop {
            if pred(self) {
                return;
            }
            t.block();
        }
    }

    /// Resume after a completed checkpoint: clear intent/do-ckpt and wake
    /// the rank. With `kill`, the job aborts instead: blocked lower-half
    /// operations unwind via [`MpiJob::abort`] and gates/quiesce points
    /// raise [`JobKilled`].
    pub fn resume(&self, kill: bool) {
        let mut st = self.st.lock();
        st.proto.resume();
        if kill {
            st.kill = true;
            if let Some(job) = &self.job {
                job.abort();
            }
        }
        if let Some(r) = st.rank_tid {
            self.sim.wake(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mana_sim::sched::SimConfig;

    const INST: CollInstance = CollInstance {
        comm_virt: 0x1000_0000,
        wseq: 1,
        size: 2,
    };

    #[test]
    fn intent_replies_by_phase() {
        let mut p = RankProtocol::default();
        assert_eq!(p.on_intent(), Some((RankReply::Ready, None)));
        p.resume();
        p.arrive(INST);
        p.pass_gate();
        assert_eq!(p.on_intent(), Some((RankReply::InPhase1, Some(INST))));
        p.resume();
        // An intent inside phase 2 owes its reply until the exit, once.
        p.enter_phase2();
        assert_eq!(p.on_intent(), None);
        assert!(p.exit_phase2());
        assert_eq!(p.phase(), Phase::Outside);
        p.resume();
        let next = CollInstance { wseq: 2, ..INST };
        p.arrive(next);
        p.pass_gate();
        p.enter_phase2();
        assert!(!p.exit_phase2());
    }

    #[test]
    fn the_gate_holds_until_resume() {
        let mut p = RankProtocol::default();
        p.arrive(INST);
        assert!(p.at_gate() && !p.gate_closed());
        // Intent closes the gate; a rank stopped there replies ready.
        assert_eq!(p.on_intent(), Some((RankReply::Ready, None)));
        assert!(p.gate_closed());
        p.do_ckpt();
        assert!(p.gate_closed() && p.must_quiesce());
        p.resume();
        assert!(!p.gate_closed() && !p.must_quiesce());
        // do-ckpt alone holds it too.
        p.do_ckpt();
        assert!(p.gate_closed());
        p.resume();
        p.pass_gate();
        assert!(!p.at_gate());
        assert_eq!(p.phase(), Phase::Phase1);
    }

    #[test]
    fn gate_blocks_while_intent_pending() {
        let sim = Sim::new(SimConfig::default());
        let cell = Arc::new(CkptCell::new(&sim, None));
        let inst = CollInstance {
            comm_virt: 0x1000_0000,
            wseq: 0,
            size: 2,
        };
        let passed = Arc::new(Mutex::new(Vec::new()));
        {
            let (cell, passed) = (cell.clone(), passed.clone());
            sim.spawn("rank", false, move |t| {
                cell.register_rank(t.id());
                // Compute a little so the intent lands before the gate.
                t.advance(mana_sim::time::SimDuration::nanos(10));
                cell.pre_collective_gate(&t, inst);
                passed.lock().push(t.now().as_nanos());
            });
        }
        {
            let cell = cell.clone();
            sim.spawn("helper-sim", true, move |t| {
                // Intent at t=0 (rank still computing); resume at t=1000.
                assert_eq!(cell.on_intent(), Some((RankReply::Ready, None)));
                t.advance(mana_sim::time::SimDuration::nanos(1000));
                cell.resume(false);
                loop {
                    t.advance(mana_sim::time::SimDuration::secs(1));
                }
            });
        }
        sim.run();
        let passed = passed.lock().clone();
        assert_eq!(passed.len(), 1);
        assert!(passed[0] >= 1000, "gate released early at {}", passed[0]);
    }

    #[test]
    fn quiesce_parks_until_resume() {
        let sim = Sim::new(SimConfig::default());
        let cell = Arc::new(CkptCell::new(&sim, None));
        let log = Arc::new(Mutex::new(Vec::new()));
        {
            let (cell, log) = (cell.clone(), log.clone());
            sim.spawn("rank", false, move |t| {
                cell.register_rank(t.id());
                for _ in 0..3 {
                    t.advance(mana_sim::time::SimDuration::nanos(100));
                    cell.quiesce_check(&t);
                }
                log.lock().push(t.now().as_nanos());
            });
        }
        {
            let cell = cell.clone();
            sim.spawn("helper-sim", true, move |t| {
                cell.register_helper(t.id());
                t.advance(mana_sim::time::SimDuration::nanos(150));
                cell.set_do_ckpt();
                // Wait for the rank to be quiesced.
                cell.helper_wait(&t, |c| c.snapshot_safe());
                t.advance(mana_sim::time::SimDuration::nanos(5000));
                cell.resume(false);
                loop {
                    t.advance(mana_sim::time::SimDuration::secs(1));
                }
            });
        }
        sim.run();
        // Rank finished after the resume (150 < quiesce at 200; resumed
        // at ~5200; third advance ends ≥ 5300).
        assert!(log.lock()[0] >= 5200);
    }

    #[test]
    fn kill_unwinds_rank() {
        let sim = Sim::new(SimConfig::default());
        let cell = Arc::new(CkptCell::new(&sim, None));
        let died = Arc::new(Mutex::new(false));
        {
            let (cell, died) = (cell.clone(), died.clone());
            sim.spawn("rank", false, move |t| {
                cell.register_rank(t.id());
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
                    t.advance(mana_sim::time::SimDuration::nanos(50));
                    cell.quiesce_check(&t);
                }));
                assert!(r
                    .err()
                    .is_some_and(|p| p.downcast_ref::<JobKilled>().is_some()));
                *died.lock() = true;
            });
        }
        {
            let cell = cell.clone();
            sim.spawn("helper-sim", true, move |t| {
                t.advance(mana_sim::time::SimDuration::nanos(500));
                cell.resume(true);
                loop {
                    t.advance(mana_sim::time::SimDuration::secs(1));
                }
            });
        }
        sim.run();
        assert!(*died.lock());
    }
}
