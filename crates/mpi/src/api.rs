//! The MPI interface.
//!
//! [`Mpi`] is the handle-based API every simulated MPI implementation
//! exposes and — crucially — the exact surface MANA interposes on: the MANA
//! wrapper implements this same trait, virtualizing handles, recording
//! state-mutating calls for restart replay, counting point-to-point traffic
//! for drain bookkeeping, and wrapping every collective in the two-phase
//! algorithm. Applications written against `&dyn Mpi` run identically on a
//! bare implementation or under MANA, which is the paper's transparency
//! requirement.
//!
//! One instance of the trait object corresponds to one rank's view of the
//! library (as a linked `libmpi.so` does in a real process). Blocking
//! operations take the rank's [`SimThread`] so they can park on the
//! deterministic scheduler.
//!
//! The trait is kept as narrow as its callers. Every method is a call the
//! wrapper must interpose on — translate, record, replay on restart — and
//! every lower half must implement, so **a method joins the trait with its
//! first non-test caller** (an application, `AppEnv`, the runner, the
//! checkpoint helper or the restart engine), not before. `debug_log` is the
//! one exception: §3.5's debug-build call log, read by tests.

use crate::dtype::BaseType;
use crate::types::{
    CommHandle, DtypeHandle, GroupHandle, Msg, Rank, ReduceOp, ReqHandle, SrcSpec, Status, Tag,
    TagSpec,
};
use mana_sim::sched::SimThread;
use mana_sim::time::SimDuration;

/// A rank's view of an MPI library.
pub trait Mpi: Send + Sync {
    // ----- identity -------------------------------------------------------

    /// Handle of `MPI_COMM_WORLD`.
    fn comm_world(&self) -> CommHandle;
    /// This process's rank in `comm`.
    fn comm_rank(&self, comm: CommHandle) -> Rank;
    /// Size of `comm`.
    fn comm_size(&self, comm: CommHandle) -> u32;

    // ----- point-to-point -------------------------------------------------

    /// Blocking send. Eager below the implementation's threshold (returns
    /// once buffered), rendezvous above it (returns once the payload has
    /// been matched/acknowledged by the receiver side).
    fn send(&self, t: &SimThread, msg: Msg<'_>, dst: Rank, tag: Tag, comm: CommHandle);
    /// Blocking receive.
    fn recv(
        &self,
        t: &SimThread,
        src: SrcSpec,
        tag: TagSpec,
        comm: CommHandle,
    ) -> (Vec<u8>, Status);
    /// Nonblocking send.
    fn isend(
        &self,
        t: &SimThread,
        msg: Msg<'_>,
        dst: Rank,
        tag: Tag,
        comm: CommHandle,
    ) -> ReqHandle;
    /// Block until `req` (an `isend` or an `ibarrier`) completes.
    fn wait(&self, t: &SimThread, req: ReqHandle);
    /// Nonblocking probe for a matching deliverable message.
    fn iprobe(&self, t: &SimThread, src: SrcSpec, tag: TagSpec, comm: CommHandle)
        -> Option<Status>;
    /// Fast-forwarded polling: the result a caller re-running
    /// [`Mpi::iprobe`] every `period` (the whole cost of one iteration of
    /// its loop, this call's CPU included) would get at the first poll
    /// instant at which it could differ from a miss.
    ///
    /// Simulated polling is computed, not executed. This applies right
    /// after a probe missed while *other* unmatched messages sit in this
    /// rank's queue — the state in which [`Mpi::wait_any_message`] returns
    /// at once and a probe-then-wait loop would spin through the scheduler
    /// once per poll. The thread parks once; a delivery to this rank or any
    /// external wake at time `T` resumes it, it advances to the first poll
    /// instant `now + k·period ≥ T` (`k ≥ 1`) and probes there, uncharged
    /// (the skipped polls' cost *is* the elapsed time; a debug build still
    /// logs each of them). With nothing queued it returns `None` at once:
    /// sleeping is then `wait_any_message`'s job.
    ///
    /// The park is invisible to MANA: the wrapper does not announce it
    /// (its `Park` state stays `Running`), because the loop it stands for
    /// is a rank *running* through `MPI_Iprobe` calls — a checkpoint must
    /// wait for it to reach its next poll instant and quiesce there, which
    /// is where this returns.
    fn iprobe_every(
        &self,
        t: &SimThread,
        period: SimDuration,
        src: SrcSpec,
        tag: TagSpec,
        comm: CommHandle,
    ) -> Option<Status>;
    /// Park until message activity (data or acks) may have occurred for
    /// this rank; wakeups may be spurious. Returns immediately if
    /// unmatched data is already queued (use [`Mpi::iprobe_every`] to wait
    /// that state out). This is the progress-wait hook MANA's
    /// interruptible receive loop and drain protocol sleep on when the
    /// queue is empty (a real implementation exposes the same thing as the
    /// blocking path of its progress engine). The wrapper announces this
    /// park as `Park::InRecvWait`: a rank asleep here initiates nothing,
    /// so a checkpoint may bookmark it where it is.
    fn wait_any_message(&self, t: &SimThread);

    // ----- blocking collectives --------------------------------------------

    /// Barrier over `comm`.
    fn barrier(&self, t: &SimThread, comm: CommHandle);
    /// Broadcast `data` from `root`; every rank returns the root's bytes.
    fn bcast(&self, t: &SimThread, data: &[u8], root: Rank, comm: CommHandle) -> Vec<u8>;
    /// Reduce; only `root` receives `Some(result)`.
    fn reduce(
        &self,
        t: &SimThread,
        contrib: &[u8],
        base: BaseType,
        op: ReduceOp,
        root: Rank,
        comm: CommHandle,
    ) -> Option<Vec<u8>>;
    /// Allreduce; every rank receives the result.
    fn allreduce(
        &self,
        t: &SimThread,
        contrib: &[u8],
        base: BaseType,
        op: ReduceOp,
        comm: CommHandle,
    ) -> Vec<u8>;
    /// Gather; `root` receives per-rank contributions in rank order.
    fn gather(
        &self,
        t: &SimThread,
        contrib: &[u8],
        root: Rank,
        comm: CommHandle,
    ) -> Option<Vec<Vec<u8>>>;
    /// All-to-all personalized exchange; `parts[i]` goes to rank `i`.
    fn alltoall(&self, t: &SimThread, parts: Vec<Vec<u8>>, comm: CommHandle) -> Vec<Vec<u8>>;

    // ----- nonblocking collectives (MPI-3; paper §4.2 future work) ---------

    /// Nonblocking barrier.
    fn ibarrier(&self, t: &SimThread, comm: CommHandle) -> ReqHandle;

    // ----- communicator management (state-mutating; MANA records these) ----

    /// Duplicate `comm` (collective).
    fn comm_dup(&self, t: &SimThread, comm: CommHandle) -> CommHandle;
    /// Split `comm` by color/key (collective).
    fn comm_split(&self, t: &SimThread, comm: CommHandle, color: i32, key: i32) -> CommHandle;
    /// Free a communicator handle.
    fn comm_free(&self, t: &SimThread, comm: CommHandle);
    /// The group of `comm` (local).
    fn comm_group(&self, comm: CommHandle) -> GroupHandle;

    // ----- groups (local objects) -------------------------------------------

    /// Subset group by comm-local ranks.
    fn group_incl(&self, group: GroupHandle, ranks: &[Rank]) -> GroupHandle;
    /// Free a group handle.
    fn group_free(&self, group: GroupHandle);
    /// Members as global job ranks (extension used by MANA's replay log).
    fn group_members(&self, group: GroupHandle) -> Vec<Rank>;

    // ----- Cartesian topology ----------------------------------------------

    /// Create a Cartesian communicator (collective).
    fn cart_create(
        &self,
        t: &SimThread,
        comm: CommHandle,
        dims: &[u32],
        periodic: &[bool],
        reorder: bool,
    ) -> CommHandle;
    /// Source/destination neighbors for a shift along `dim` by `disp`
    /// (`None` = `MPI_PROC_NULL` at a non-periodic boundary).
    fn cart_shift(&self, comm: CommHandle, dim: u32, disp: i32) -> (Option<Rank>, Option<Rank>);

    // ----- datatypes (state-mutating; MANA records these) -------------------

    /// Handle for a predefined base type.
    fn type_base(&self, base: BaseType) -> DtypeHandle;
    /// `MPI_Type_contiguous`.
    fn type_contiguous(&self, count: u32, inner: DtypeHandle) -> DtypeHandle;
    /// Free a datatype handle.
    fn type_free(&self, dtype: DtypeHandle);

    // ----- misc -------------------------------------------------------------

    /// Finalize the library for this rank.
    fn finalize(&self, t: &SimThread);
    /// Captured call log (non-empty only in debug builds; §3.5).
    fn debug_log(&self) -> Vec<String>;
}
