//! The MANA interposition layer.
//!
//! `ManaMpi` implements the same [`Mpi`] trait the applications program
//! against, wrapping the current lower half. Per the paper:
//!
//! * every call into the lower half pays the FS-register round-trip
//!   (§3.3's dominant overhead source, [`KernelModel::fs_roundtrip`]);
//! * every opaque handle crossing the boundary is translated through its
//!   class's virtual-id table, whose entry holds the real handle and all
//!   the wrapper keeps for it (§2.2; costs [`ManaConfig::virt_cost`] per
//!   lookup);
//! * state-mutating calls are appended to the record-replay log (§2.2);
//! * point-to-point traffic is counted for the drain bookmarks (§2.3) and
//!   receives consult the drained-message buffer first;
//! * every collective is wrapped in the two-phase algorithm (§2.4–2.5):
//!   pre-wrapper gate, trivial barrier (phase 1), real call (phase 2);
//! * `MPI_Ibarrier` gets the §4.2 two-phase nonblocking variant.
//!
//! The tables, log, counters and buffer are the rank's [`RankState`],
//! behind one lock. A call takes the lock once for each run of state
//! accesses between two parks and drops it before every time charge,
//! cell wait and lower-half call.
//!
//! [`KernelModel::fs_roundtrip`]: mana_sim::kernel::KernelModel::fs_roundtrip

use crate::cell::{CollInstance, Park};
use crate::config::ManaConfig;
use crate::record::LoggedCall;
use crate::shared::{CommMeta, GroupMeta, RankShared, RankState, WReq};
use mana_mpi::{
    BaseType, CommHandle, DtypeHandle, GroupHandle, Mpi, Msg, Rank, ReduceOp, ReqHandle, SrcSpec,
    Status, Tag, TagSpec, COMM_NULL,
};
use mana_sim::sched::SimThread;
use mana_sim::time::SimDuration;
use std::sync::Arc;

/// Intern a communicator with fresh collective sequence numbering.
fn register_comm(
    st: &mut RankState,
    real: u64,
    members: Arc<[u32]>,
    cart_dims: Arc<[u32]>,
    cart_periodic: Arc<[bool]>,
) -> u64 {
    st.comms.intern(CommMeta {
        real,
        members,
        cart_dims,
        cart_periodic,
        wseq: 0,
    })
}

/// The MANA wrapper for one rank.
pub struct ManaMpi {
    sh: Arc<RankShared>,
    lower: Arc<dyn Mpi>,
    cfg: ManaConfig,
    world_virt: u64,
}

impl ManaMpi {
    /// Wrap a freshly initialized lower half for a first run: interns the
    /// world communicator.
    pub fn fresh(sh: Arc<RankShared>, lower: Arc<dyn Mpi>, cfg: ManaConfig) -> ManaMpi {
        let world = lower.comm_world();
        let members: Arc<[u32]> = (0..lower.comm_size(world)).collect();
        let mut st = sh.state.lock();
        let world_virt = register_comm(&mut st, world.0, members, Arc::default(), Arc::default());
        st.world_virt = world_virt;
        drop(st);
        ManaMpi {
            sh,
            lower,
            cfg,
            world_virt,
        }
    }

    /// Wrap a fresh lower half for a *restarted* incarnation: the shared
    /// state (handle tables, buffers) was already restored and rebound by
    /// the restart engine, which also recorded the world communicator's
    /// virtual id from the image.
    pub fn resumed(sh: Arc<RankShared>, lower: Arc<dyn Mpi>, cfg: ManaConfig) -> ManaMpi {
        let world_virt = sh.state.lock().world_virt;
        assert_ne!(
            world_virt, 0,
            "restored state must carry the world communicator id"
        );
        ManaMpi {
            sh,
            lower,
            cfg,
            world_virt,
        }
    }

    /// Shared state handle (used by the runner/helper/environment).
    pub fn shared(&self) -> &Arc<RankShared> {
        &self.sh
    }

    /// The wrapped lower half.
    pub fn lower(&self) -> &Arc<dyn Mpi> {
        &self.lower
    }

    /// Charge the FS-register round-trip for one upper→lower→upper
    /// crossing.
    #[inline]
    fn fs(&self, t: &SimThread) {
        t.advance(self.cfg.kernel.fs_roundtrip());
    }

    /// Charge one virtual-handle translation.
    #[inline]
    fn vcost(&self, t: &SimThread) {
        t.advance(self.cfg.virt_cost);
    }

    fn meta(&self, t: &SimThread, comm_virt: u64) -> CommMeta {
        self.vcost(t);
        self.meta_untimed(comm_virt)
    }

    fn meta_untimed(&self, comm_virt: u64) -> CommMeta {
        self.sh.state.lock().comms.get(comm_virt).clone()
    }

    /// Translate `comm_virt` and number the wrapped collective about to
    /// run on it.
    fn next_instance(&self, t: &SimThread, comm_virt: u64) -> (CommHandle, CollInstance) {
        self.vcost(t);
        let mut st = self.sh.state.lock();
        let m = st.comms.get_mut(comm_virt);
        assert_ne!(m.real, 0, "collective on MPI_COMM_NULL");
        m.wseq += 1;
        let inst = CollInstance {
            comm_virt,
            wseq: m.wseq,
            size: m.members.len() as u32,
        };
        (CommHandle(m.real), inst)
    }

    /// Translate `comm_virt` and count one message to its member `dst`.
    fn count_send(&self, t: &SimThread, comm_virt: u64, dst: Rank) -> CommHandle {
        self.vcost(t);
        let mut st = self.sh.state.lock();
        let m = st.comms.get(comm_virt);
        let (real, dst_global) = (CommHandle(m.real), m.members[dst as usize]);
        st.counters.on_send(dst_global);
        real
    }

    /// The two-phase wrapper (Algorithm 1): gate, trivial barrier, real
    /// collective.
    fn two_phase<R>(&self, t: &SimThread, comm_virt: u64, f: impl FnOnce(CommHandle) -> R) -> R {
        let (real, inst) = self.next_instance(t, comm_virt);
        self.sh.cell.pre_collective_gate(t, inst);
        // Phase 1: the trivial barrier.
        self.fs(t);
        self.sh
            .cell
            .with_park(Park::InPhase1Barrier, || self.lower.barrier(t, real));
        // Phase 2: the real collective (committed — see cell docs).
        self.sh.cell.enter_phase2();
        self.fs(t);
        let r = f(real);
        self.sh.cell.exit_phase2();
        r
    }

    /// Complete an outstanding two-phase `MPI_Ibarrier`. Implements the
    /// paper's §4.2 proposal: wait for the nonblocking trivial barrier,
    /// then run the converted-to-blocking real barrier.
    fn finish_pending(&self, t: &SimThread, comm_virt: u64, lower_phase1: Option<ReqHandle>) {
        let meta = self.meta(t, comm_virt);
        let real = CommHandle(meta.real);
        // Phase 1: wait for (or re-issue after restart) the ibarrier.
        let phase1 = match lower_phase1 {
            Some(r) => r,
            None => {
                self.fs(t);
                self.lower.ibarrier(t, real)
            }
        };
        self.sh.cell.reenter_pending_phase1();
        self.fs(t);
        self.sh
            .cell
            .with_park(Park::InPhase1Barrier, || self.lower.wait(t, phase1));
        // Phase 2: converted to the blocking barrier.
        self.sh.cell.enter_phase2();
        self.fs(t);
        self.lower.barrier(t, real);
        self.sh.cell.exit_phase2();
    }
}

impl Mpi for ManaMpi {
    fn comm_world(&self) -> CommHandle {
        CommHandle(self.world_virt)
    }

    fn comm_rank(&self, comm: CommHandle) -> Rank {
        let meta = self.meta_untimed(comm.0);
        let local = meta.members.iter().position(|m| *m == self.sh.rank);
        local.expect("caller not in communicator") as Rank
    }

    fn comm_size(&self, comm: CommHandle) -> u32 {
        self.meta_untimed(comm.0).members.len() as u32
    }

    fn send(&self, t: &SimThread, msg: Msg<'_>, dst: Rank, tag: Tag, comm: CommHandle) {
        let real = self.count_send(t, comm.0, dst);
        self.fs(t);
        self.sh.cell.with_park(Park::InLowerSend, || {
            self.lower.send(t, msg, dst, tag, real)
        });
    }

    /// The blocking receive: drained buffer first, then the lower half,
    /// interruptible for quiescence.
    ///
    /// This is real MANA's `MPI_Iprobe` receive loop: one iteration is a
    /// quiesce check, a drained-buffer check, the FS round-trip and a lower
    /// `iprobe`. With nothing queued the rank sleeps (`Park::InRecvWait`)
    /// until a delivery. With *unmatched* data queued the lower half cannot
    /// sleep and the loop polls back to back; those polls are
    /// fast-forwarded ([`Mpi::iprobe_every`]) rather than executed: nothing
    /// an iteration looks at — the rank's queue, do-ckpt, kill, abort —
    /// changes without waking this thread, and the drained buffer only
    /// changes while the rank is quiesced. The `Park` marker stays
    /// `Running` throughout, as it is for a rank inside `MPI_Iprobe`, so a
    /// checkpoint waits for the next poll instant and finds the rank in
    /// `quiesce_check` there.
    fn recv(
        &self,
        t: &SimThread,
        src: SrcSpec,
        tag: TagSpec,
        comm: CommHandle,
    ) -> (Vec<u8>, Status) {
        let meta = self.meta(t, comm.0);
        let real = CommHandle(meta.real);
        loop {
            self.sh.cell.quiesce_check(t);
            let drained = {
                let mut st = self.sh.state.lock();
                let m = st.buffer.take_match(comm.0, src, tag);
                if let Some(m) = &m {
                    st.counters.on_recv(m.src_global);
                }
                m
            };
            if let Some(m) = drained {
                let n = m.data.len() as u64;
                return (
                    m.data,
                    Status {
                        source: m.src_local,
                        tag: m.tag,
                        bytes: n,
                        modeled_bytes: m.modeled,
                    },
                );
            }
            let iteration_start = t.now();
            self.fs(t);
            let mut probe = self.lower.iprobe(t, src, tag, real);
            if probe.is_none() && !self.sh.cell.interrupt_pending() {
                let period = t.now().since(iteration_start);
                probe = self.lower.iprobe_every(t, period, src, tag, real);
            }
            if let Some(st) = probe {
                let (data, status) =
                    self.lower
                        .recv(t, SrcSpec::Rank(st.source), TagSpec::Tag(st.tag), real);
                let src_global = meta.members[status.source as usize];
                self.sh.state.lock().counters.on_recv(src_global);
                return (data, status);
            }
            self.sh
                .cell
                .with_park(Park::InRecvWait, || self.lower.wait_any_message(t));
        }
    }

    fn isend(
        &self,
        t: &SimThread,
        msg: Msg<'_>,
        dst: Rank,
        tag: Tag,
        comm: CommHandle,
    ) -> ReqHandle {
        let real = self.count_send(t, comm.0, dst);
        self.fs(t);
        let lreq = self.lower.isend(t, msg, dst, tag, real);
        ReqHandle(self.sh.state.lock().reqs.intern(WReq::LowerSend(lreq)))
    }

    fn wait(&self, t: &SimThread, req: ReqHandle) {
        self.vcost(t);
        // Consume the request only after completion: a checkpoint-kill
        // can land in the blocking part, and a pending collective must
        // still be in the image for the restarted wait to re-execute.
        let wreq = *self.sh.state.lock().reqs.get(req.0);
        match wreq {
            WReq::LowerSend(lreq) => {
                self.fs(t);
                self.sh
                    .cell
                    .with_park(Park::InLowerSend, || self.lower.wait(t, lreq));
            }
            WReq::TwoPhase {
                comm_virt,
                lower_phase1,
            } => self.finish_pending(t, comm_virt, lower_phase1),
        }
        self.sh.state.lock().reqs.remove(req.0);
    }

    fn iprobe(
        &self,
        t: &SimThread,
        src: SrcSpec,
        tag: TagSpec,
        comm: CommHandle,
    ) -> Option<Status> {
        self.vcost(t);
        let real = {
            let st = self.sh.state.lock();
            if let Some(m) = st.buffer.peek_match(comm.0, src, tag) {
                return Some(Status {
                    source: m.src_local,
                    tag: m.tag,
                    bytes: m.data.len() as u64,
                    modeled_bytes: m.modeled,
                });
            }
            CommHandle(st.comms.get(comm.0).real)
        };
        self.fs(t);
        self.lower.iprobe(t, src, tag, real)
    }

    fn barrier(&self, t: &SimThread, comm: CommHandle) {
        self.two_phase(t, comm.0, |real| self.lower.barrier(t, real));
    }

    fn bcast(&self, t: &SimThread, data: &[u8], root: Rank, comm: CommHandle) -> Vec<u8> {
        self.two_phase(t, comm.0, |real| self.lower.bcast(t, data, root, real))
    }

    fn reduce(
        &self,
        t: &SimThread,
        contrib: &[u8],
        base: BaseType,
        op: ReduceOp,
        root: Rank,
        comm: CommHandle,
    ) -> Option<Vec<u8>> {
        self.two_phase(t, comm.0, |real| {
            self.lower.reduce(t, contrib, base, op, root, real)
        })
    }

    fn allreduce(
        &self,
        t: &SimThread,
        contrib: &[u8],
        base: BaseType,
        op: ReduceOp,
        comm: CommHandle,
    ) -> Vec<u8> {
        self.two_phase(t, comm.0, |real| {
            self.lower.allreduce(t, contrib, base, op, real)
        })
    }

    fn gather(
        &self,
        t: &SimThread,
        contrib: &[u8],
        root: Rank,
        comm: CommHandle,
    ) -> Option<Vec<Vec<u8>>> {
        self.two_phase(t, comm.0, |real| self.lower.gather(t, contrib, root, real))
    }

    fn alltoall(&self, t: &SimThread, parts: Vec<Vec<u8>>, comm: CommHandle) -> Vec<Vec<u8>> {
        self.two_phase(t, comm.0, |real| self.lower.alltoall(t, parts, real))
    }

    fn ibarrier(&self, t: &SimThread, comm: CommHandle) -> ReqHandle {
        let (real, inst) = self.next_instance(t, comm.0);
        self.sh.cell.pre_collective_gate(t, inst);
        self.fs(t);
        let lreq = self.lower.ibarrier(t, real);
        self.sh.cell.detach_engaged();
        ReqHandle(self.sh.state.lock().reqs.intern(WReq::TwoPhase {
            comm_virt: comm.0,
            lower_phase1: Some(lreq),
        }))
    }

    fn comm_dup(&self, t: &SimThread, comm: CommHandle) -> CommHandle {
        let meta = self.meta(t, comm.0);
        let new_real = self.two_phase(t, comm.0, |real| self.lower.comm_dup(t, real));
        let mut st = self.sh.state.lock();
        let virt = register_comm(
            &mut st,
            new_real.0,
            meta.members,
            meta.cart_dims,
            meta.cart_periodic,
        );
        st.log.push(LoggedCall::CommDup {
            parent: comm.0,
            result: virt,
        });
        CommHandle(virt)
    }

    fn comm_split(&self, t: &SimThread, comm: CommHandle, color: i32, key: i32) -> CommHandle {
        let new_real = self.two_phase(t, comm.0, |real| self.lower.comm_split(t, real, color, key));
        let members: Arc<[u32]> = if new_real == COMM_NULL {
            // Burn a virtual id (real handle 0, no members) so allocation
            // stays aligned across ranks.
            Arc::from([])
        } else {
            self.fs(t);
            let g = self.lower.comm_group(new_real);
            let members = self.lower.group_members(g);
            self.lower.group_free(g);
            members.into()
        };
        let mut st = self.sh.state.lock();
        let virt = register_comm(&mut st, new_real.0, members, Arc::default(), Arc::default());
        st.log.push(LoggedCall::CommSplit {
            parent: comm.0,
            color,
            key,
            result: virt,
        });
        if new_real == COMM_NULL {
            COMM_NULL
        } else {
            CommHandle(virt)
        }
    }

    fn comm_free(&self, t: &SimThread, comm: CommHandle) {
        let meta = self.meta(t, comm.0);
        self.fs(t);
        if meta.real != 0 {
            self.lower.comm_free(t, CommHandle(meta.real));
        }
        let mut st = self.sh.state.lock();
        st.log.push(LoggedCall::CommFree { comm: comm.0 });
        st.comms.remove(comm.0);
    }

    fn comm_group(&self, comm: CommHandle) -> GroupHandle {
        let meta = self.meta_untimed(comm.0);
        let real_g = self.lower.comm_group(CommHandle(meta.real));
        let members = self.lower.group_members(real_g);
        let mut st = self.sh.state.lock();
        let virt = st.groups.intern(GroupMeta {
            real: real_g.0,
            members: members.clone(),
        });
        // Membership is recorded so restart replay can rebuild the group
        // locally — the compactor then need not keep a dead source
        // communicator alive just for its group.
        st.log.push(LoggedCall::CommGroup {
            comm: comm.0,
            members,
            result: virt,
        });
        GroupHandle(virt)
    }

    fn group_incl(&self, group: GroupHandle, ranks: &[Rank]) -> GroupHandle {
        let real_g = GroupHandle(self.sh.state.lock().groups.get(group.0).real);
        let new_real = self.lower.group_incl(real_g, ranks);
        let members = self.lower.group_members(new_real);
        let mut st = self.sh.state.lock();
        let virt = st.groups.intern(GroupMeta {
            real: new_real.0,
            members,
        });
        st.log.push(LoggedCall::GroupIncl {
            group: group.0,
            ranks: ranks.to_vec(),
            result: virt,
        });
        GroupHandle(virt)
    }

    fn group_free(&self, group: GroupHandle) {
        let real_g = GroupHandle(self.sh.state.lock().groups.remove(group.0).real);
        self.lower.group_free(real_g);
        self.sh
            .state
            .lock()
            .log
            .push(LoggedCall::GroupFree { group: group.0 });
    }

    fn group_members(&self, group: GroupHandle) -> Vec<Rank> {
        self.sh.state.lock().groups.get(group.0).members.clone()
    }

    fn cart_create(
        &self,
        t: &SimThread,
        comm: CommHandle,
        dims: &[u32],
        periodic: &[bool],
        reorder: bool,
    ) -> CommHandle {
        let meta = self.meta(t, comm.0);
        let new_real = self.two_phase(t, comm.0, |real| {
            self.lower.cart_create(t, real, dims, periodic, reorder)
        });
        let mut st = self.sh.state.lock();
        let virt = register_comm(
            &mut st,
            new_real.0,
            meta.members,
            dims.into(),
            periodic.into(),
        );
        st.log.push(LoggedCall::CartCreate {
            parent: comm.0,
            dims: dims.to_vec(),
            periodic: periodic.to_vec(),
            result: virt,
        });
        CommHandle(virt)
    }

    fn cart_shift(&self, comm: CommHandle, dim: u32, disp: i32) -> (Option<Rank>, Option<Rank>) {
        let meta = self.meta_untimed(comm.0);
        self.lower.cart_shift(CommHandle(meta.real), dim, disp)
    }

    fn type_base(&self, base: BaseType) -> DtypeHandle {
        if let Some(v) = self.sh.state.lock().dtype_base_cache.get(&base) {
            return DtypeHandle(*v);
        }
        let real = self.lower.type_base(base);
        let mut st = self.sh.state.lock();
        let virt = st.dtypes.intern(real.0);
        st.dtype_base_cache.insert(base, virt);
        st.log.push(LoggedCall::TypeBase { base, result: virt });
        DtypeHandle(virt)
    }

    fn type_contiguous(&self, count: u32, inner: DtypeHandle) -> DtypeHandle {
        let real_inner = DtypeHandle(*self.sh.state.lock().dtypes.get(inner.0));
        let real = self.lower.type_contiguous(count, real_inner);
        let mut st = self.sh.state.lock();
        let virt = st.dtypes.intern(real.0);
        st.log.push(LoggedCall::TypeContiguous {
            count,
            inner: inner.0,
            result: virt,
        });
        DtypeHandle(virt)
    }

    fn type_free(&self, dtype: DtypeHandle) {
        let real = DtypeHandle(self.sh.state.lock().dtypes.remove(dtype.0));
        self.lower.type_free(real);
        let mut st = self.sh.state.lock();
        st.log.push(LoggedCall::TypeFree { dtype: dtype.0 });
        st.dtype_base_cache.retain(|_, v| *v != dtype.0);
    }

    fn iprobe_every(
        &self,
        t: &SimThread,
        period: SimDuration,
        src: SrcSpec,
        tag: TagSpec,
        comm: CommHandle,
    ) -> Option<Status> {
        let real = CommHandle(self.meta_untimed(comm.0).real);
        self.lower.iprobe_every(t, period, src, tag, real)
    }

    fn wait_any_message(&self, t: &SimThread) {
        self.lower.wait_any_message(t);
    }

    fn finalize(&self, t: &SimThread) {
        self.fs(t);
        self.lower.finalize(t);
    }

    fn debug_log(&self) -> Vec<String> {
        self.lower.debug_log()
    }
}
