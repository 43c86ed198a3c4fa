//! The application environment: managed upper-half memory, the operation
//! cursor, and the workload programming model.
//!
//! # The restore contract (substitute for stack/register restore)
//!
//! Real MANA restores the application's stack and registers, so execution
//! resumes mid-call. A simulator cannot serialize Rust control flow, so
//! workloads follow a contract that makes *re-entry + fast-forward*
//! equivalent:
//!
//! 1. All state carried across environment operations lives in managed
//!    upper-half arrays ([`AppEnv::alloc_f64`] etc.), never in Rust locals.
//! 2. The prologue's (everything `run` does before its first
//!    `begin_step`) *sequence* of environment operations is a pure
//!    function of (rank, nranks, config), and within one step (one
//!    `begin_step` to the next) it is a pure function of (rank, nranks,
//!    step config, the step number) — not of floating data. A workload
//!    that calls `begin_step` issues no nonblocking operation before the
//!    first one: a skipped one would advance the restored slot allocator.
//! 3. Each operation is atomic with respect to checkpoints; the cursor
//!    (`ops_done`) counts completed operations from the start of `run` —
//!    the prologue's plus the current step's — and on restart the
//!    environment skips exactly that many: the whole prologue, then the
//!    re-entered step's completed operations. A skipped receive's payload
//!    is already in the restored arrays; a skipped send's payload already
//!    left with the drained network.
//!
//! Under these rules a workload contains no checkpoint logic whatsoever —
//! the paper's transparency property — and a restarted run is
//! bit-identical to an uninterrupted one (the integration tests assert
//! exactly this via state checksums).

use crate::shared::{Progress, RankShared, SlotState};
use mana_mpi::{BaseType, CommHandle, Mpi, Msg, ReduceOp, ReqHandle, SrcSpec, Status, TagSpec};
use mana_sim::memory::{AddressSpace, Backing, DenseBuf, Half, RegionKind};
use mana_sim::pod::Pod;
use mana_sim::sched::SimThread;
use mana_sim::time::SimDuration;
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::sync::Arc;

/// Handle to a managed typed array in upper-half memory.
pub struct Arr<T: Pod> {
    /// Base address.
    pub addr: u64,
    /// Element count.
    pub len: usize,
    _pd: PhantomData<T>,
}

impl<T: Pod> Clone for Arr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for Arr<T> {}

impl<T: Pod> Arr<T> {
    fn byte_len(&self) -> usize {
        self.len * std::mem::size_of::<T>()
    }
}

/// Identifier of a nonblocking-request slot (deterministic across resume).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SlotId(pub u64);

/// Allocate the next slot id, growing the slot table to hold it.
fn next_slot(p: &mut Progress) -> SlotId {
    let id = p.slot_seq;
    p.slot_seq += 1;
    let idx = id as usize;
    if p.slots.len() <= idx {
        p.slots.resize(idx + 1, SlotState::Empty);
    }
    SlotId(id)
}

/// Read-only/mutable access to managed memory inside a `work` closure.
pub struct MemView<'a> {
    aspace: &'a AddressSpace,
}

impl MemView<'_> {
    /// Immutable typed view.
    pub fn with<T: Pod, R>(&self, arr: Arr<T>, f: impl FnOnce(&[T]) -> R) -> R {
        self.aspace
            .with_slice(arr.addr, arr.len, f)
            .expect("managed array access")
    }

    /// Mutable typed view.
    pub fn with_mut<T: Pod, R>(&self, arr: Arr<T>, f: impl FnOnce(&mut [T]) -> R) -> R {
        self.aspace
            .with_slice_mut(arr.addr, arr.len, f)
            .expect("managed array access")
    }

    /// Two disjoint mutable views.
    pub fn with2_mut<A: Pod, B: Pod, R>(
        &self,
        a: Arr<A>,
        b: Arr<B>,
        f: impl FnOnce(&mut [A], &mut [B]) -> R,
    ) -> R {
        self.aspace
            .with2_mut((a.addr, a.len), (b.addr, b.len), f)
            .expect("managed array access")
    }

    /// Three disjoint mutable views.
    pub fn with3_mut<A: Pod, B: Pod, C: Pod, R>(
        &self,
        a: Arr<A>,
        b: Arr<B>,
        c: Arr<C>,
        f: impl FnOnce(&mut [A], &mut [B], &mut [C]) -> R,
    ) -> R {
        self.aspace
            .with3_mut((a.addr, a.len), (b.addr, b.len), (c.addr, c.len), f)
            .expect("managed array access")
    }
}

/// A workload: an MPI application written against the environment.
/// Contains no checkpoint logic; the same `run` is used for fresh launches
/// and restarts.
pub trait Workload: Send + Sync {
    /// Short name (images, diagnostics).
    fn name(&self) -> &'static str;
    /// The application main.
    fn run(&self, env: &mut AppEnv);
}

/// Per-rank application environment.
pub struct AppEnv {
    t: SimThread,
    mpi: Arc<dyn Mpi>,
    /// The rank's MANA state (its progress cursor); `None` in native runs.
    sh: Option<Arc<RankShared>>,
    native_progress: Mutex<Progress>,
    aspace: Arc<AddressSpace>,
    rank: u32,
    nranks: u32,
    seed: u64,
}

impl AppEnv {
    /// Environment over a bare MPI library (native runs: the baseline for
    /// every overhead figure).
    pub fn native(
        t: SimThread,
        mpi: Arc<dyn Mpi>,
        aspace: Arc<AddressSpace>,
        rank: u32,
        nranks: u32,
        seed: u64,
    ) -> AppEnv {
        AppEnv {
            t,
            mpi,
            sh: None,
            native_progress: Mutex::default(),
            aspace,
            rank,
            nranks,
            seed,
        }
    }

    /// Environment over the MANA wrapper.
    pub fn mana(t: SimThread, mpi: Arc<dyn Mpi>, sh: Arc<RankShared>) -> AppEnv {
        AppEnv {
            t,
            rank: sh.rank,
            nranks: sh.nranks,
            seed: sh.seed,
            aspace: sh.aspace.clone(),
            native_progress: Mutex::default(),
            mpi,
            sh: Some(sh),
        }
    }

    /// This rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// World size.
    pub fn nranks(&self) -> u32 {
        self.nranks
    }

    /// Root seed (derive per-step randomness statelessly from this).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The simulated thread (for plain time queries).
    pub fn thread(&self) -> &SimThread {
        &self.t
    }

    /// Direct MPI access (advanced; bypasses the operation cursor, so only
    /// safe for local queries).
    pub fn mpi(&self) -> &Arc<dyn Mpi> {
        &self.mpi
    }

    /// World communicator.
    pub fn world(&self) -> CommHandle {
        self.mpi.comm_world()
    }

    fn with_progress<R>(&self, f: impl FnOnce(&mut Progress) -> R) -> R {
        match &self.sh {
            Some(sh) => f(&mut sh.state.lock().progress),
            None => f(&mut self.native_progress.lock()),
        }
    }

    /// Step boundary: quiesce point + cursor reset to the end of the
    /// prologue, which the first call marks. Call at the top of the outer
    /// iteration loop (which must iterate a managed counter).
    pub fn begin_step(&mut self) {
        self.with_progress(|p| {
            let (ops, created) = *p.prologue.get_or_insert((p.ops_done, p.created_cursor));
            // A resumed step still fast-forwarding keeps the image's skip
            // count and ledger.
            if p.ops_done >= p.resume_skip {
                p.resume_skip = 0;
                p.step_created.truncate(created);
            }
            p.ops_done = ops;
            p.created_cursor = created;
            p.slot_seq_at_step = p.slot_seq;
        });
        if let Some(sh) = &self.sh {
            sh.cell.quiesce_check(&self.t);
        }
    }

    /// Returns true if the current operation was already completed before
    /// the checkpoint and must be skipped.
    fn op_skip(&self) -> bool {
        let skip = self.with_progress(|p| {
            if p.ops_done < p.resume_skip {
                p.ops_done += 1;
                true
            } else {
                false
            }
        });
        if !skip {
            if let Some(sh) = &self.sh {
                sh.cell.quiesce_check(&self.t);
            }
        }
        skip
    }

    fn op_done(&self) {
        self.with_progress(|p| p.ops_done += 1);
    }

    // ----- managed memory ---------------------------------------------------

    /// Map a `bytes`-long upper-half region backed by `backing()`, or, on
    /// resume, rebind to the restored region in allocation order.
    fn alloc_region(&self, name: &str, bytes: u64, backing: impl FnOnce() -> Backing) -> u64 {
        let bound = self.with_progress(|p| {
            let &(addr, len) = p.allocs.get(p.alloc_cursor)?;
            assert_eq!(
                len, bytes,
                "allocation sequence diverged on resume (expected {len} bytes, got {bytes})"
            );
            p.alloc_cursor += 1;
            Some(addr)
        });
        if let Some(addr) = bound {
            return addr;
        }
        let addr = self
            .aspace
            .map(Half::Upper, RegionKind::Mmap, name, bytes, backing())
            .expect("managed allocation");
        self.with_progress(|p| {
            p.allocs.push((addr, bytes));
            p.alloc_cursor = p.allocs.len();
        });
        addr
    }

    fn alloc_arr<T: Pod>(&self, name: &str, len: usize) -> Arr<T> {
        let bytes = len * std::mem::size_of::<T>();
        let addr = self.alloc_region(name, bytes as u64, || {
            Backing::Dense(DenseBuf::zeroed(bytes))
        });
        Arr {
            addr,
            len,
            _pd: PhantomData,
        }
    }

    /// Allocate (or rebind on resume) a managed `f64` array.
    pub fn alloc_f64(&mut self, name: &str, len: usize) -> Arr<f64> {
        self.alloc_arr(name, len)
    }

    /// Allocate (or rebind on resume) a managed `u64` array.
    pub fn alloc_u64(&mut self, name: &str, len: usize) -> Arr<u64> {
        self.alloc_arr(name, len)
    }

    /// Allocate a large pattern-backed region modelling bulk application
    /// footprint (counted in image sizes and write times, but carrying no
    /// dense bytes). Returns its address.
    pub fn alloc_bulk(&mut self, name: &str, bytes: u64) -> u64 {
        let seed = mana_sim::rng::derive_seed_idx(self.seed, name, u64::from(self.rank));
        self.alloc_region(name, bytes, || Backing::Pattern { seed })
    }

    /// Read-only access outside `work` (e.g. building a send payload from
    /// state — deterministic by the contract).
    pub fn peek<T: Pod, R>(&self, arr: Arr<T>, f: impl FnOnce(&[T]) -> R) -> R {
        self.aspace
            .with_slice(arr.addr, arr.len, f)
            .expect("managed array access")
    }

    /// Order-sensitive checksum of all upper-half state (test oracle; not
    /// an operation).
    pub fn state_checksum(&self) -> u64 {
        self.aspace.checksum_half(Half::Upper)
    }

    // ----- compute ----------------------------------------------------------

    /// Advance virtual time by `dur` and apply `f` to managed state, as
    /// one atomic operation.
    pub fn work(&mut self, dur: SimDuration, f: impl FnOnce(&MemView<'_>)) {
        if self.op_skip() {
            return;
        }
        self.t.advance(dur);
        f(&MemView {
            aspace: &self.aspace,
        });
        self.op_done();
    }

    /// Pure compute time (no state change).
    pub fn compute(&mut self, dur: SimDuration) {
        if self.op_skip() {
            return;
        }
        self.t.advance(dur);
        self.op_done();
    }

    // ----- point-to-point -----------------------------------------------------

    /// Blocking send of `elems` from a managed array.
    pub fn send_arr(
        &mut self,
        comm: CommHandle,
        arr: Arr<f64>,
        range: std::ops::Range<usize>,
        dst: u32,
        tag: i32,
    ) {
        if self.op_skip() {
            return;
        }
        let bytes = self
            .aspace
            .read_bytes(
                arr.addr + (range.start * 8) as u64,
                (range.end - range.start) * 8,
            )
            .expect("send window");
        self.mpi.send(&self.t, Msg::real(&bytes), dst, tag, comm);
        self.op_done();
    }

    /// Blocking send of a small constructed payload (must be a
    /// deterministic function of managed state).
    pub fn send_small(&mut self, comm: CommHandle, payload: &[u8], dst: u32, tag: i32) {
        if self.op_skip() {
            return;
        }
        self.mpi.send(&self.t, Msg::real(payload), dst, tag, comm);
        self.op_done();
    }

    /// Blocking send with a synthetic modelled size (microbenchmarks).
    pub fn send_modeled(
        &mut self,
        comm: CommHandle,
        payload: &[u8],
        modeled: u64,
        dst: u32,
        tag: i32,
    ) {
        if self.op_skip() {
            return;
        }
        self.mpi
            .send(&self.t, Msg::modeled(payload, modeled), dst, tag, comm);
        self.op_done();
    }

    /// Blocking receive into a managed array at `offset` elements.
    pub fn recv_into(
        &mut self,
        comm: CommHandle,
        arr: Arr<f64>,
        offset: usize,
        src: SrcSpec,
        tag: TagSpec,
    ) -> Status {
        if self.op_skip() {
            return Status::default();
        }
        let (data, status) = self.mpi.recv(&self.t, src, tag, comm);
        assert!(
            offset * 8 + data.len() <= arr.byte_len(),
            "receive overflows managed array"
        );
        self.aspace
            .write_bytes(arr.addr + (offset * 8) as u64, &data)
            .expect("recv window");
        self.op_done();
        status
    }

    /// Blocking receive whose payload is discarded (microbenchmarks).
    pub fn recv_discard(&mut self, comm: CommHandle, src: SrcSpec, tag: TagSpec) -> Status {
        if self.op_skip() {
            return Status::default();
        }
        let (_, status) = self.mpi.recv(&self.t, src, tag, comm);
        self.op_done();
        status
    }

    /// Fill a fresh slot with `state` and complete the operation.
    fn new_slot_done(&self, state: SlotState) -> SlotId {
        self.with_progress(|p| {
            let slot = next_slot(p);
            p.slots[slot.0 as usize] = state;
            p.ops_done += 1;
            slot
        })
    }

    fn skip_slot(&self) -> SlotId {
        // The slot was created before the checkpoint; just re-derive its id.
        self.with_progress(next_slot)
    }

    /// Nonblocking send from a managed array.
    pub fn isend_arr(
        &mut self,
        comm: CommHandle,
        arr: Arr<f64>,
        range: std::ops::Range<usize>,
        dst: u32,
        tag: i32,
    ) -> SlotId {
        if self.op_skip() {
            return self.skip_slot();
        }
        let bytes = self
            .aspace
            .read_bytes(
                arr.addr + (range.start * 8) as u64,
                (range.end - range.start) * 8,
            )
            .expect("send window");
        let req = self.mpi.isend(&self.t, Msg::real(&bytes), dst, tag, comm);
        self.new_slot_done(SlotState::SendIssued { vreq: Some(req.0) })
    }

    /// Nonblocking receive into a managed array.
    pub fn irecv_into(
        &mut self,
        comm: CommHandle,
        arr: Arr<f64>,
        offset: usize,
        src: SrcSpec,
        tag: TagSpec,
    ) -> SlotId {
        if self.op_skip() {
            return self.skip_slot();
        }
        // Deferred-matching receive: record the descriptor; the wait
        // operation performs the matching (buffer-first under MANA).
        self.new_slot_done(SlotState::RecvPosted {
            comm_virt: comm.0,
            src,
            tag,
            arr_addr: arr.addr,
            offset: (offset * 8) as u64,
        })
    }

    /// Complete a nonblocking operation.
    ///
    /// The slot is consumed only *after* the operation completes: a
    /// checkpoint can interrupt the blocking part (a kill mid-receive is
    /// the Figure 7 restart path), and the re-executed wait must find the
    /// descriptor intact in the restored image.
    pub fn wait_slot(&mut self, slot: SlotId) {
        if self.op_skip() {
            return;
        }
        let state = self.with_progress(|p| p.slots[slot.0 as usize].clone());
        match state {
            SlotState::Empty => panic!("wait on empty slot {slot:?}"),
            SlotState::SendIssued { vreq } => {
                if let Some(v) = vreq {
                    self.mpi.wait(&self.t, ReqHandle(v));
                }
                // vreq == None: restored send; delivery guaranteed by the
                // drain.
            }
            SlotState::RecvPosted {
                comm_virt,
                src,
                tag,
                arr_addr,
                offset,
            } => {
                let (data, _status) = self.mpi.recv(&self.t, src, tag, CommHandle(comm_virt));
                self.aspace
                    .write_bytes(arr_addr + offset, &data)
                    .expect("recv window");
            }
            SlotState::CollPending { vreq } => self.mpi.wait(&self.t, ReqHandle(vreq)),
        }
        self.with_progress(|p| {
            p.slots[slot.0 as usize] = SlotState::Empty;
            p.ops_done += 1;
        });
    }

    // ----- collectives --------------------------------------------------------

    /// Barrier.
    pub fn barrier(&mut self, comm: CommHandle) {
        if self.op_skip() {
            return;
        }
        self.mpi.barrier(&self.t, comm);
        self.op_done();
    }

    /// In-place allreduce over a managed `f64` array.
    pub fn allreduce_arr(&mut self, comm: CommHandle, arr: Arr<f64>, op: ReduceOp) {
        if self.op_skip() {
            return;
        }
        let bytes = self
            .aspace
            .read_bytes(arr.addr, arr.byte_len())
            .expect("allreduce window");
        let out = self
            .mpi
            .allreduce(&self.t, &bytes, BaseType::Double, op, comm);
        self.aspace
            .write_bytes(arr.addr, &out)
            .expect("allreduce result");
        self.op_done();
    }

    /// Reduce a managed array to `root`, writing the result into `dst`
    /// (same shape) at the root only.
    pub fn reduce_into(
        &mut self,
        comm: CommHandle,
        src_arr: Arr<f64>,
        dst: Arr<f64>,
        op: ReduceOp,
        root: u32,
    ) {
        if self.op_skip() {
            return;
        }
        let bytes = self
            .aspace
            .read_bytes(src_arr.addr, src_arr.byte_len())
            .expect("reduce window");
        if let Some(out) = self
            .mpi
            .reduce(&self.t, &bytes, BaseType::Double, op, root, comm)
        {
            self.aspace
                .write_bytes(dst.addr, &out)
                .expect("reduce result");
        }
        self.op_done();
    }

    /// In-place broadcast of a managed array from `root`.
    pub fn bcast_arr(&mut self, comm: CommHandle, arr: Arr<f64>, root: u32) {
        if self.op_skip() {
            return;
        }
        let me = self.mpi.comm_rank(comm);
        let data = if me == root {
            self.aspace
                .read_bytes(arr.addr, arr.byte_len())
                .expect("bcast window")
        } else {
            Vec::new()
        };
        let out = self.mpi.bcast(&self.t, &data, root, comm);
        self.aspace
            .write_bytes(arr.addr, &out)
            .expect("bcast result");
        self.op_done();
    }

    /// Equal-chunk all-to-all: `send.len` must divide evenly by comm size;
    /// `recv` has the same shape.
    pub fn alltoall_arr(&mut self, comm: CommHandle, send: Arr<f64>, recv: Arr<f64>) {
        if self.op_skip() {
            return;
        }
        let size = self.mpi.comm_size(comm) as usize;
        assert_eq!(send.len % size, 0, "alltoall chunk mismatch");
        let chunk_bytes = send.byte_len() / size;
        // Chunk straight out of the borrowed window (one copy, not a
        // whole-array copy followed by a per-chunk copy). The borrow ends
        // before the blocking exchange below.
        let parts: Vec<Vec<u8>> = self
            .aspace
            .with_bytes(send.addr, send.byte_len(), |b| {
                b.chunks(chunk_bytes).map(<[u8]>::to_vec).collect()
            })
            .expect("alltoall window");
        let out = self.mpi.alltoall(&self.t, parts, comm);
        let mut off = 0u64;
        for p in out {
            self.aspace
                .write_bytes(recv.addr + off, &p)
                .expect("alltoall result");
            off += p.len() as u64;
        }
        self.op_done();
    }

    /// Two-phase nonblocking barrier (§4.2): returns a slot to wait on.
    pub fn ibarrier(&mut self, comm: CommHandle) -> SlotId {
        if self.op_skip() {
            return self.skip_slot();
        }
        let req = self.mpi.ibarrier(&self.t, comm);
        self.new_slot_done(SlotState::CollPending { vreq: req.0 })
    }

    // ----- opaque-object churn (state-mutating; MANA records these) ---------
    //
    // Creations are ordinary operations with one extra rule: the produced
    // virtual handle is appended to the *handle ledger*
    // (`Progress::step_created`: the prologue's creations, then the
    // current step's; checkpointed alongside the progress cursor), and a
    // creation skipped during resume re-derives its handle from the
    // ledger in order — the handle analogue of the allocation ledger.
    // Handles carried *across* steps must live in managed memory (store
    // the `CommHandle.0` in a `u64` array) or come from the prologue, per
    // the restore contract; virtual ids are stable across restarts, so
    // they reload correctly.

    /// Ledger-driven creation: skip path pops the restored ledger, real
    /// path runs `create` and appends its handle.
    fn handle_op(&mut self, what: &str, create: impl FnOnce(&Self) -> u64) -> u64 {
        if self.op_skip() {
            return self.with_progress(|p| {
                let v = *p
                    .step_created
                    .get(p.created_cursor)
                    .unwrap_or_else(|| panic!("handle ledger exhausted resuming {what}"));
                p.created_cursor += 1;
                v
            });
        }
        let v = create(self);
        self.with_progress(|p| {
            p.step_created.push(v);
            p.created_cursor = p.step_created.len();
            p.ops_done += 1;
        });
        v
    }

    /// `MPI_Comm_dup`.
    pub fn comm_dup(&mut self, comm: CommHandle) -> CommHandle {
        CommHandle(self.handle_op("comm_dup", |s| s.mpi.comm_dup(&s.t, comm).0))
    }

    /// `MPI_Comm_split`; `None` for a negative (undefined) color.
    pub fn comm_split(&mut self, comm: CommHandle, color: i32, key: i32) -> Option<CommHandle> {
        let v = self.handle_op("comm_split", |s| s.mpi.comm_split(&s.t, comm, color, key).0);
        (v != 0).then_some(CommHandle(v))
    }

    /// `MPI_Comm_free`. Skipped on resume (the object was already freed
    /// before the checkpoint, so the restored tables never contain it).
    pub fn comm_free(&mut self, comm: CommHandle) {
        if self.op_skip() {
            return;
        }
        self.mpi.comm_free(&self.t, comm);
        self.op_done();
    }

    /// `MPI_Comm_group`.
    pub fn comm_group(&mut self, comm: CommHandle) -> mana_mpi::GroupHandle {
        mana_mpi::GroupHandle(self.handle_op("comm_group", |s| s.mpi.comm_group(comm).0))
    }

    /// `MPI_Group_incl`.
    pub fn group_incl(
        &mut self,
        group: mana_mpi::GroupHandle,
        ranks: &[u32],
    ) -> mana_mpi::GroupHandle {
        mana_mpi::GroupHandle(self.handle_op("group_incl", |s| s.mpi.group_incl(group, ranks).0))
    }

    /// `MPI_Group_free`.
    pub fn group_free(&mut self, group: mana_mpi::GroupHandle) {
        if self.op_skip() {
            return;
        }
        self.mpi.group_free(group);
        self.op_done();
    }

    /// Handle for a predefined base type. Not an operation: the wrapper
    /// caches base handles (and restart replay repopulates the cache), so
    /// this is a local query safe to call on either side of a resume.
    pub fn type_base(&mut self, base: BaseType) -> mana_mpi::DtypeHandle {
        self.mpi.type_base(base)
    }

    /// `MPI_Type_contiguous`.
    pub fn type_contiguous(
        &mut self,
        count: u32,
        inner: mana_mpi::DtypeHandle,
    ) -> mana_mpi::DtypeHandle {
        mana_mpi::DtypeHandle(
            self.handle_op("type_contiguous", |s| s.mpi.type_contiguous(count, inner).0),
        )
    }

    /// `MPI_Type_free`.
    pub fn type_free(&mut self, dtype: mana_mpi::DtypeHandle) {
        if self.op_skip() {
            return;
        }
        self.mpi.type_free(dtype);
        self.op_done();
    }

    /// `MPI_Cart_create` (reordering allowed). A creation skipped in the
    /// prologue (LULESH builds its grid there) pops the ledger like any
    /// other.
    pub fn cart_create(&mut self, comm: CommHandle, dims: &[u32], periodic: &[bool]) -> CommHandle {
        CommHandle(self.handle_op("cart_create", |s| {
            s.mpi.cart_create(&s.t, comm, dims, periodic, true).0
        }))
    }
}
