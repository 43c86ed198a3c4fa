//! Per-rank MPI library instance (the substrate's `libmpi.so`).
//!
//! `RankMpi` implements the [`Mpi`] trait directly over the job's shared
//! engines. Opaque handles issued here follow the implementation profile's
//! numbering scheme, so "Cray MPICH" and "Open MPI" hand out incompatible
//! values — the incompatibility MANA's virtualization layer (paper §2.2)
//! exists to hide.

use crate::api::Mpi;
use crate::coll::{CollKind, Contrib, Output};
use crate::comm::{CartTopo, CommInfo, DeriveKey};
use crate::dtype::{BaseType, DtypeDef};
use crate::job::MpiJob;
use crate::types::{
    CommHandle, DtypeHandle, GroupHandle, Msg, Rank, ReduceOp, ReqHandle, SrcSpec, Status, Tag,
    TagSpec,
};
use mana_sim::sched::SimThread;
use mana_sim::time::{SimDuration, SimTime};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Null communicator handle (`MPI_COMM_NULL`), returned by `comm_split`
/// with a negative (undefined) color.
pub const COMM_NULL: CommHandle = CommHandle(0);

const DEBUG_LOG_CAP: usize = 100_000;

enum ReqState {
    SendDone,
    SendRendezvous { token: u64 },
    Coll { ctx: u64, seq: u64 },
}

struct RankSt {
    next_handle: u64,
    comms: HashMap<u64, u64>,
    groups: HashMap<u64, Vec<Rank>>,
    dtypes: HashMap<u64, DtypeDef>,
    base_handles: HashMap<BaseType, u64>,
    reqs: HashMap<u64, ReqState>,
    coll_seq: HashMap<u64, u64>,
    world_handle: u64,
    finalized: bool,
    dlog: Vec<String>,
}

/// One rank's instance of the MPI library.
pub struct RankMpi {
    job: Arc<MpiJob>,
    rank: Rank,
    st: Mutex<RankSt>,
}

impl RankMpi {
    pub(crate) fn new(job: Arc<MpiJob>, rank: Rank) -> RankMpi {
        let base = job.profile().handle_base + u64::from(rank) * 0x1_0000;
        let stride = job.profile().handle_stride.max(1);
        let mut st = RankSt {
            next_handle: base,
            comms: HashMap::new(),
            groups: HashMap::new(),
            dtypes: HashMap::new(),
            base_handles: HashMap::new(),
            reqs: HashMap::new(),
            coll_seq: HashMap::new(),
            world_handle: 0,
            finalized: false,
            dlog: Vec::new(),
        };
        let wh = base;
        st.next_handle = base + stride;
        st.comms.insert(wh, crate::comm::WORLD_CTX);
        st.world_handle = wh;
        RankMpi {
            job,
            rank,
            st: Mutex::new(st),
        }
    }

    /// The synchronizing barrier inside `MPI_Init`.
    pub(crate) fn init_barrier(&self, t: &SimThread) {
        let info = self.job.registry().world();
        let seq = self.next_seq(info.ctx);
        let me = info.local_rank(self.rank).expect("rank in world");
        self.job.coll().arrive(
            info.ctx,
            seq,
            me,
            info.size(),
            CollKind::Barrier,
            Contrib::None,
            self.job.profile(),
        );
        self.job.coll().wait(t, info.ctx, seq);
    }

    fn new_handle(&self) -> u64 {
        let mut st = self.st.lock();
        let h = st.next_handle;
        st.next_handle += self.job.profile().handle_stride.max(1);
        h
    }

    fn next_seq(&self, ctx: u64) -> u64 {
        let mut st = self.st.lock();
        let c = st.coll_seq.entry(ctx).or_insert(0);
        let s = *c;
        *c += 1;
        s
    }

    fn enter(&self, t: &SimThread, name: &str) {
        {
            let mut st = self.st.lock();
            assert!(!st.finalized, "MPI call '{name}' after MPI_Finalize");
            if self.job.profile().debug_build {
                self.log_call(&mut st, t.now(), name);
            }
        }
        t.advance(self.job.profile().per_call_cpu);
    }

    /// Debug-build call log: one line per call entered at `at`.
    fn log_call(&self, st: &mut RankSt, at: SimTime, name: &str) {
        if st.dlog.len() < DEBUG_LOG_CAP {
            let line = format!("[{:.6}] rank {}: {name}", at.as_secs_f64(), self.rank);
            st.dlog.push(line);
        }
    }

    fn comm_info(&self, comm: CommHandle) -> Arc<CommInfo> {
        let ctx = {
            let st = self.st.lock();
            *st.comms
                .get(&comm.0)
                .unwrap_or_else(|| panic!("invalid communicator handle {:#x}", comm.0))
        };
        self.job.registry().get(ctx)
    }

    fn insert_comm(&self, ctx: u64) -> CommHandle {
        let h = self.new_handle();
        self.st.lock().comms.insert(h, ctx);
        CommHandle(h)
    }

    fn insert_group(&self, members: Vec<Rank>) -> GroupHandle {
        let h = self.new_handle();
        self.st.lock().groups.insert(h, members);
        GroupHandle(h)
    }

    fn group_of(&self, g: GroupHandle) -> Vec<Rank> {
        self.st
            .lock()
            .groups
            .get(&g.0)
            .unwrap_or_else(|| panic!("invalid group handle {:#x}", g.0))
            .clone()
    }

    fn dtype_of(&self, d: DtypeHandle) -> DtypeDef {
        self.st
            .lock()
            .dtypes
            .get(&d.0)
            .unwrap_or_else(|| panic!("invalid datatype handle {:#x}", d.0))
            .clone()
    }

    fn insert_req(&self, state: ReqState) -> ReqHandle {
        let h = self.new_handle();
        self.st.lock().reqs.insert(h, state);
        ReqHandle(h)
    }

    fn blocking_collective(
        &self,
        t: &SimThread,
        info: &CommInfo,
        kind: CollKind,
        contrib: Contrib,
    ) -> Arc<Output> {
        let me = self
            .comm_local(info)
            .unwrap_or_else(|| panic!("rank {} not in communicator ctx {}", self.rank, info.ctx));
        let seq = self.next_seq(info.ctx);
        self.job.coll().arrive(
            info.ctx,
            seq,
            me,
            info.size(),
            kind,
            contrib,
            self.job.profile(),
        );
        self.job.coll().wait(t, info.ctx, seq)
    }

    fn comm_local(&self, info: &CommInfo) -> Option<u32> {
        info.local_rank(self.rank)
    }

    fn translate_status(&self, info: &CommInfo, mut s: Status) -> Status {
        s.source = info
            .local_rank(s.source)
            .unwrap_or_else(|| panic!("message source {} not in communicator", s.source));
        s
    }
}

/// A communicator-local source spec as the global one the p2p engine
/// matches on.
fn global_src(info: &CommInfo, src: SrcSpec) -> SrcSpec {
    match src {
        SrcSpec::Any => SrcSpec::Any,
        SrcSpec::Rank(r) => SrcSpec::Rank(info.members[r as usize]),
    }
}

impl Mpi for RankMpi {
    fn comm_world(&self) -> CommHandle {
        CommHandle(self.st.lock().world_handle)
    }

    fn comm_rank(&self, comm: CommHandle) -> Rank {
        let info = self.comm_info(comm);
        self.comm_local(&info).expect("caller not in communicator")
    }

    fn comm_size(&self, comm: CommHandle) -> u32 {
        self.comm_info(comm).size()
    }

    fn send(&self, t: &SimThread, msg: Msg<'_>, dst: Rank, tag: Tag, comm: CommHandle) {
        self.enter(t, "MPI_Send");
        let info = self.comm_info(comm);
        let dst_g = info.members[dst as usize];
        self.job.p2p().send(
            t,
            self.rank,
            dst_g,
            tag,
            info.ctx,
            msg.data,
            msg.modeled,
            self.job.profile().eager_threshold,
        );
    }

    fn recv(
        &self,
        t: &SimThread,
        src: SrcSpec,
        tag: TagSpec,
        comm: CommHandle,
    ) -> (Vec<u8>, Status) {
        self.enter(t, "MPI_Recv");
        let info = self.comm_info(comm);
        let src_g = global_src(&info, src);
        let (data, status) = self.job.p2p().recv(t, self.rank, src_g, tag, info.ctx);
        (data, self.translate_status(&info, status))
    }

    fn isend(
        &self,
        t: &SimThread,
        msg: Msg<'_>,
        dst: Rank,
        tag: Tag,
        comm: CommHandle,
    ) -> ReqHandle {
        self.enter(t, "MPI_Isend");
        let info = self.comm_info(comm);
        let dst_g = info.members[dst as usize];
        let token = self.job.p2p().isend(
            t,
            self.rank,
            dst_g,
            tag,
            info.ctx,
            msg.data,
            msg.modeled,
            self.job.profile().eager_threshold,
        );
        match token {
            None => self.insert_req(ReqState::SendDone),
            Some(token) => self.insert_req(ReqState::SendRendezvous { token }),
        }
    }

    fn wait(&self, t: &SimThread, req: ReqHandle) {
        self.enter(t, "MPI_Wait");
        let state = self
            .st
            .lock()
            .reqs
            .remove(&req.0)
            .unwrap_or_else(|| panic!("invalid request handle {:#x}", req.0));
        match state {
            ReqState::SendDone => {}
            ReqState::SendRendezvous { token } => self.job.p2p().wait_ack(t, self.rank, token),
            ReqState::Coll { ctx, seq } => {
                self.job.coll().wait(t, ctx, seq);
            }
        }
    }

    fn iprobe(
        &self,
        t: &SimThread,
        src: SrcSpec,
        tag: TagSpec,
        comm: CommHandle,
    ) -> Option<Status> {
        self.enter(t, "MPI_Iprobe");
        let info = self.comm_info(comm);
        let src_g = global_src(&info, src);
        self.job
            .p2p()
            .iprobe(self.rank, src_g, tag, info.ctx)
            .map(|s| self.translate_status(&info, s))
    }

    fn iprobe_every(
        &self,
        t: &SimThread,
        period: SimDuration,
        src: SrcSpec,
        tag: TagSpec,
        comm: CommHandle,
    ) -> Option<Status> {
        let info = self.comm_info(comm);
        let src_g = global_src(&info, src);
        let start = t.now();
        let hit = self
            .job
            .p2p()
            .iprobe_every(t, self.rank, period, src_g, tag, info.ctx);
        if self.job.profile().debug_build {
            // Every poll the wait stood for entered `MPI_Iprobe` one call's
            // CPU before its poll instant; the log shows them all.
            let call_cpu = self.job.profile().per_call_cpu.as_nanos();
            let now = t.now();
            let mut st = self.st.lock();
            let mut poll_at = start + period;
            while poll_at <= now && st.dlog.len() < DEBUG_LOG_CAP {
                let entered = SimTime(poll_at.as_nanos().saturating_sub(call_cpu));
                self.log_call(&mut st, entered, "MPI_Iprobe");
                poll_at += period;
            }
        }
        hit.map(|s| self.translate_status(&info, s))
    }

    fn barrier(&self, t: &SimThread, comm: CommHandle) {
        self.enter(t, "MPI_Barrier");
        let info = self.comm_info(comm);
        self.blocking_collective(t, &info, CollKind::Barrier, Contrib::None);
    }

    fn bcast(&self, t: &SimThread, data: &[u8], root: Rank, comm: CommHandle) -> Vec<u8> {
        self.enter(t, "MPI_Bcast");
        let info = self.comm_info(comm);
        let me = self.comm_local(&info).expect("in comm");
        let contrib = if me == root {
            Contrib::One(data.to_vec())
        } else {
            Contrib::One(Vec::new())
        };
        match &*self.blocking_collective(t, &info, CollKind::Bcast { root }, contrib) {
            Output::Same(v) => v.clone(),
            other => panic!("bad bcast output {other:?}"),
        }
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
        self.enter(t, "MPI_Reduce");
        let info = self.comm_info(comm);
        let me = self.comm_local(&info).expect("in comm");
        let out = self.blocking_collective(
            t,
            &info,
            CollKind::Reduce { root, op, base },
            Contrib::One(contrib.to_vec()),
        );
        match (&*out, me == root) {
            (Output::Same(v), true) => Some(v.clone()),
            (Output::Same(_), false) => None,
            (other, _) => panic!("bad reduce output {other:?}"),
        }
    }

    fn allreduce(
        &self,
        t: &SimThread,
        contrib: &[u8],
        base: BaseType,
        op: ReduceOp,
        comm: CommHandle,
    ) -> Vec<u8> {
        self.enter(t, "MPI_Allreduce");
        let info = self.comm_info(comm);
        let out = self.blocking_collective(
            t,
            &info,
            CollKind::Allreduce { op, base },
            Contrib::One(contrib.to_vec()),
        );
        match &*out {
            Output::Same(v) => v.clone(),
            other => panic!("bad allreduce output {other:?}"),
        }
    }

    fn gather(
        &self,
        t: &SimThread,
        contrib: &[u8],
        root: Rank,
        comm: CommHandle,
    ) -> Option<Vec<Vec<u8>>> {
        self.enter(t, "MPI_Gather");
        let info = self.comm_info(comm);
        let me = self.comm_local(&info).expect("in comm");
        let out = self.blocking_collective(
            t,
            &info,
            CollKind::Gather { root },
            Contrib::One(contrib.to_vec()),
        );
        match (&*out, me == root) {
            (Output::AllParts(parts), true) => Some(parts.clone()),
            (Output::AllParts(_), false) => None,
            (other, _) => panic!("bad gather output {other:?}"),
        }
    }

    fn alltoall(&self, t: &SimThread, parts: Vec<Vec<u8>>, comm: CommHandle) -> Vec<Vec<u8>> {
        self.enter(t, "MPI_Alltoall");
        let info = self.comm_info(comm);
        let me = self.comm_local(&info).expect("in comm");
        assert_eq!(parts.len() as u32, info.size(), "alltoall parts != size");
        let out = self.blocking_collective(t, &info, CollKind::Alltoall, Contrib::Parts(parts));
        match &*out {
            Output::PerRankParts(all) => all[me as usize].clone(),
            other => panic!("bad alltoall output {other:?}"),
        }
    }

    fn ibarrier(&self, t: &SimThread, comm: CommHandle) -> ReqHandle {
        self.enter(t, "MPI_Ibarrier");
        let info = self.comm_info(comm);
        let me = self.comm_local(&info).expect("in comm");
        let seq = self.next_seq(info.ctx);
        self.job.coll().arrive(
            info.ctx,
            seq,
            me,
            info.size(),
            CollKind::Barrier,
            Contrib::None,
            self.job.profile(),
        );
        self.insert_req(ReqState::Coll { ctx: info.ctx, seq })
    }

    fn comm_dup(&self, t: &SimThread, comm: CommHandle) -> CommHandle {
        self.enter(t, "MPI_Comm_dup");
        let info = self.comm_info(comm);
        let me = self.comm_local(&info).expect("in comm");
        let seq = self.next_seq(info.ctx);
        self.job.coll().arrive(
            info.ctx,
            seq,
            me,
            info.size(),
            CollKind::Allgather,
            Contrib::One(Vec::new()),
            self.job.profile(),
        );
        self.job.coll().wait(t, info.ctx, seq);
        let new = self.job.registry().derive(
            DeriveKey::Dup {
                parent: info.ctx,
                seq,
            },
            info.members.clone(),
            info.cart.clone(),
        );
        self.insert_comm(new.ctx)
    }

    fn comm_split(&self, t: &SimThread, comm: CommHandle, color: i32, key: i32) -> CommHandle {
        self.enter(t, "MPI_Comm_split");
        let info = self.comm_info(comm);
        let me = self.comm_local(&info).expect("in comm");
        let seq = self.next_seq(info.ctx);
        let mut payload = Vec::with_capacity(8);
        payload.extend_from_slice(&color.to_le_bytes());
        payload.extend_from_slice(&key.to_le_bytes());
        self.job.coll().arrive(
            info.ctx,
            seq,
            me,
            info.size(),
            CollKind::Allgather,
            Contrib::One(payload),
            self.job.profile(),
        );
        let out = self.job.coll().wait(t, info.ctx, seq);
        let Output::AllParts(parts) = &*out else {
            panic!("bad comm_split gather");
        };
        if color < 0 {
            return COMM_NULL;
        }
        // Collect members of my color, ordered by (key, parent-local rank).
        let mut mine: Vec<(i32, u32)> = Vec::new();
        for (local, p) in parts.iter().enumerate() {
            let c = i32::from_le_bytes(p[0..4].try_into().expect("color"));
            let k = i32::from_le_bytes(p[4..8].try_into().expect("key"));
            if c == color {
                mine.push((k, local as u32));
            }
        }
        mine.sort_unstable();
        let members: Vec<Rank> = mine
            .iter()
            .map(|(_, local)| info.members[*local as usize])
            .collect();
        let new = self.job.registry().derive(
            DeriveKey::Split {
                parent: info.ctx,
                seq,
                color,
            },
            members,
            None,
        );
        self.insert_comm(new.ctx)
    }

    fn comm_free(&self, t: &SimThread, comm: CommHandle) {
        self.enter(t, "MPI_Comm_free");
        let removed = self.st.lock().comms.remove(&comm.0);
        assert!(removed.is_some(), "freeing invalid communicator handle");
    }

    fn comm_group(&self, comm: CommHandle) -> GroupHandle {
        let info = self.comm_info(comm);
        self.insert_group(info.members.clone())
    }

    fn group_incl(&self, group: GroupHandle, ranks: &[Rank]) -> GroupHandle {
        let members = self.group_of(group);
        let picked: Vec<Rank> = ranks.iter().map(|r| members[*r as usize]).collect();
        self.insert_group(picked)
    }

    fn group_free(&self, group: GroupHandle) {
        let removed = self.st.lock().groups.remove(&group.0);
        assert!(removed.is_some(), "freeing invalid group handle");
    }

    fn group_members(&self, group: GroupHandle) -> Vec<Rank> {
        self.group_of(group)
    }

    fn cart_create(
        &self,
        t: &SimThread,
        comm: CommHandle,
        dims: &[u32],
        periodic: &[bool],
        reorder: bool,
    ) -> CommHandle {
        self.enter(t, "MPI_Cart_create");
        let _ = reorder; // identity embedding; reorder is a permission, not a demand
        let info = self.comm_info(comm);
        let me = self.comm_local(&info).expect("in comm");
        assert_eq!(
            dims.iter().product::<u32>(),
            info.size(),
            "cart dims product must equal communicator size"
        );
        assert_eq!(dims.len(), periodic.len());
        let seq = self.next_seq(info.ctx);
        self.job.coll().arrive(
            info.ctx,
            seq,
            me,
            info.size(),
            CollKind::Allgather,
            Contrib::One(Vec::new()),
            self.job.profile(),
        );
        self.job.coll().wait(t, info.ctx, seq);
        let new = self.job.registry().derive(
            DeriveKey::Cart {
                parent: info.ctx,
                seq,
            },
            info.members.clone(),
            Some(CartTopo {
                dims: dims.to_vec(),
                periodic: periodic.to_vec(),
            }),
        );
        self.insert_comm(new.ctx)
    }

    fn cart_shift(&self, comm: CommHandle, dim: u32, disp: i32) -> (Option<Rank>, Option<Rank>) {
        let info = self.comm_info(comm);
        let topo = info.cart.as_ref().expect("communicator has no topology");
        let me = self.comm_local(&info).expect("in comm");
        topo.shift(me, dim as usize, disp)
    }

    fn type_base(&self, base: BaseType) -> DtypeHandle {
        {
            let st = self.st.lock();
            if let Some(h) = st.base_handles.get(&base) {
                return DtypeHandle(*h);
            }
        }
        let h = self.new_handle();
        let mut st = self.st.lock();
        st.base_handles.insert(base, h);
        st.dtypes.insert(h, DtypeDef::Base(base));
        DtypeHandle(h)
    }

    fn type_contiguous(&self, count: u32, inner: DtypeHandle) -> DtypeHandle {
        let def = DtypeDef::Contiguous {
            count,
            inner: Box::new(self.dtype_of(inner)),
        };
        let h = self.new_handle();
        self.st.lock().dtypes.insert(h, def);
        DtypeHandle(h)
    }

    fn type_free(&self, dtype: DtypeHandle) {
        let mut st = self.st.lock();
        let removed = st.dtypes.remove(&dtype.0);
        assert!(removed.is_some(), "freeing invalid datatype handle");
        st.base_handles.retain(|_, h| *h != dtype.0);
    }

    fn wait_any_message(&self, t: &SimThread) {
        self.job.p2p().wait_any(t, self.rank);
    }

    fn finalize(&self, t: &SimThread) {
        self.enter(t, "MPI_Finalize");
        self.st.lock().finalized = true;
    }

    fn debug_log(&self) -> Vec<String> {
        self.st.lock().dlog.clone()
    }
}
