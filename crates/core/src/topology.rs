//! Pluggable coordinator topologies (the control-plane *delivery* layer).
//!
//! The checkpoint protocol itself — two-phase agreement, the do-ckpt
//! safety rule, bookmark mediation, completion and resume — is
//! topology-agnostic and lives in [`crate::coordinator`]. This module
//! owns *how* the protocol's messages reach the ranks and how their
//! replies come back:
//!
//! * [`FlatTopology`] is the DMTCP star the paper measures: the root
//!   serializes one small TCP frame per rank, so both its send loop and
//!   its receive polling scale with the world size (§3.4, Figure 8's
//!   growing communication overhead).
//! * [`TreeTopology`] interposes one sub-coordinator per compute node
//!   (the NERSC production fix): the root exchanges one *aggregated*
//!   message per node, and the sub-coordinators fan out / reduce locally
//!   over the node's loopback in parallel with each other. Downward
//!   messages are replicated in-tree; upward `State` replies fold into a
//!   [`StateAgg`] partial reduction, bookmarks merge into a
//!   destination-keyed directory, and completions roll up per node — so
//!   the root handles O(nodes) frames instead of O(ranks).
//!
//! Every upward gather — at the flat root, the tree root and each
//! sub-coordinator — is one [`Gather`] fold fed by the same `recv_on`
//! loop; only the [`Role`] it is built for differs. The tree's reductions
//! are re-associations of the exact fold the flat coordinator performs
//! (see [`StateAgg::merge`]), so from the same rank states both
//! topologies feed identical aggregates to the safety rule.
//! The rank states themselves agree only while the whole agreement fits
//! inside one compute op: outside that regime arrival skew can stop the
//! ranks at other op boundaries, and the extra-iteration counts may
//! differ (LULESH on 8 nodes × 8 ranks takes 0 under the flat star and 1
//! under the tree). [`run_checkpoint_chain`] / [`assert_topologies_agree`]
//! are the conformance harness (in the spirit of `mana-store`'s
//! `exercise_store`) that enforces, in the one-op regime, identical
//! safety decisions, identical per-rank checkpoint stats and
//! byte-identical restart images.
//!
//! [`StateAgg`]: crate::ctrl::StateAgg
//! [`StateAgg::merge`]: crate::ctrl::StateAgg::merge

use crate::chaos::ChaosHandle;
use crate::config::{ManaConfig, TopologyKind};
use crate::coordinator::{Gather, Role, Stage};
use crate::ctrl::{ctrl_msg_bytes, protocol_violation, CtrlMsg, ProtocolPhase, ProtocolViolation};
use crate::env::Workload;
use crate::session::{JobBuilder, ManaSession};
use crate::stats::CkptReport;
use crate::store::InMemStore;
use mana_mpi::MpiProfile;
use mana_net::transport::{EndpointId, Network};
use mana_sim::cluster::{ClusterSpec, Placement};
use mana_sim::sched::{Sim, SimThread, SimThreadId};
use mana_sim::time::SimDuration;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Delivery/reduction seam between the topology-generic protocol driver
/// ([`crate::coordinator::run_checkpoint`]) and a concrete control-plane
/// shape. Implementations deliver downward messages to every rank and
/// gather upward replies, already reduced to what the protocol needs.
pub trait CoordTopology: Send + Sync {
    /// World size.
    fn nranks(&self) -> u32;

    /// Register the protocol-driver thread for message-arrival wakeups.
    fn attach_root(&self, tid: SimThreadId);

    /// Deliver one control message (per rank, from the factory) to every
    /// rank in the world.
    fn fanout(&self, t: &SimThread, mk: &dyn Fn() -> CtrlMsg);

    /// Gather `stage`'s replies from every rank through the root's
    /// [`Gather`] and return the complete fold: the agreement's
    /// [`crate::ctrl::StateAgg`], the destination-keyed bookmark
    /// directory or the (unsorted) completions.
    fn gather(&self, t: &SimThread, ckpt_id: u64, stage: Stage) -> Gather;

    /// Deliver each rank its expected-in list (`per_rank` is indexed by
    /// rank and already sorted).
    fn scatter_expected(&self, t: &SimThread, ckpt_id: u64, per_rank: Vec<Vec<(u32, u64)>>);
}

/// Control-plane CPU rates, split by locality: a frame to an endpoint on
/// the *same node* rides loopback/shm (no NIC, no cross-node TCP stack)
/// and is charged the cheaper intra rate — this is what makes a tree
/// sub-coordinator's local fan-out cheap. The wire itself is already
/// locality-aware (`mana_net::model::LinkModel::for_path`); these rates
/// model the sender/receiver CPU on top of it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CtrlCpu {
    /// Per-frame send CPU to another node (TCP socket + framing). The
    /// flat coordinator serializes this over all ranks, which is what
    /// makes the paper's "communication overhead" grow with rank count
    /// (Figure 8).
    pub send: SimDuration,
    /// Per-frame send CPU to the same node (loopback/UNIX socket).
    pub send_intra: SimDuration,
    /// Per-frame receive CPU for cross-node frames (socket polling over
    /// many descriptors, small-message metadata — §3.4).
    pub recv: SimDuration,
    /// Per-frame receive CPU for same-node frames (a sub-coordinator
    /// gathering its local helpers' replies).
    pub recv_intra: SimDuration,
}

/// The control plane's CPU rates.
pub(crate) const CTRL_CPU: CtrlCpu = CtrlCpu {
    send: SimDuration::micros(30),
    send_intra: SimDuration::micros(4),
    recv: SimDuration::micros(80),
    recv_intra: SimDuration::micros(9),
};

fn recv_on(
    t: &SimThread,
    ctrl: &Network<CtrlMsg>,
    ep: EndpointId,
    recv_cpu: SimDuration,
) -> CtrlMsg {
    loop {
        if let Some(m) = ctrl.poll(ep) {
            // Per-message socket-poll/metadata cost (§3.4): this is what
            // the tree topology takes off the root by sending it O(nodes)
            // aggregated frames.
            t.advance(recv_cpu);
            return m;
        }
        t.block();
    }
}

fn send_from(
    t: &SimThread,
    ctrl: &Network<CtrlMsg>,
    src: EndpointId,
    dst: EndpointId,
    msg: CtrlMsg,
) {
    // Per-destination socket cost: a star coordinator serializes this over
    // all ranks (Figure 8's growing communication overhead). Same-node
    // destinations are charged the cheaper loopback rate.
    if ctrl.node_of(src) == ctrl.node_of(dst) {
        t.advance(CTRL_CPU.send_intra);
    } else {
        t.advance(CTRL_CPU.send);
    }
    let bytes = ctrl_msg_bytes(&msg);
    ctrl.send(src, dst, bytes, msg);
}

/// Receive frames on `ep` into `fold` until it is done; the first frame
/// it refuses aborts the thread with that violation.
fn gather_on(
    t: &SimThread,
    ctrl: &Network<CtrlMsg>,
    ep: EndpointId,
    recv_cpu: SimDuration,
    mut fold: Gather,
) -> Gather {
    while !fold.done() {
        if let Err(v) = fold.absorb(recv_on(t, ctrl, ep, recv_cpu)) {
            v.raise()
        }
    }
    fold
}

// ---------------------------------------------------------------------------
// Flat star
// ---------------------------------------------------------------------------

/// The DMTCP-style star: the root speaks one TCP frame per rank, in
/// serial, and folds every reply itself.
pub struct FlatTopology {
    ctrl: Arc<Network<CtrlMsg>>,
    my_ep: EndpointId,
    rank_eps: Vec<EndpointId>,
}

impl FlatTopology {
    /// A star over `ctrl` rooted at `my_ep` speaking to `rank_eps`
    /// (indexed by rank).
    pub fn new(
        ctrl: Arc<Network<CtrlMsg>>,
        my_ep: EndpointId,
        rank_eps: Vec<EndpointId>,
    ) -> FlatTopology {
        FlatTopology {
            ctrl,
            my_ep,
            rank_eps,
        }
    }
}

impl CoordTopology for FlatTopology {
    fn nranks(&self) -> u32 {
        self.rank_eps.len() as u32
    }

    fn attach_root(&self, tid: SimThreadId) {
        self.ctrl.add_waiter(self.my_ep, tid);
    }

    fn fanout(&self, t: &SimThread, mk: &dyn Fn() -> CtrlMsg) {
        for ep in &self.rank_eps {
            send_from(t, &self.ctrl, self.my_ep, *ep, mk());
        }
    }

    fn gather(&self, t: &SimThread, ckpt_id: u64, stage: Stage) -> Gather {
        // The star root's inbox mixes frames from every node, so its
        // polling cost is charged at the cross-node rate.
        let role = Role::FlatRoot {
            nranks: self.nranks(),
        };
        let fold = Gather::new(role, stage, ckpt_id);
        gather_on(t, &self.ctrl, self.my_ep, CTRL_CPU.recv, fold)
    }

    fn scatter_expected(&self, t: &SimThread, _ckpt_id: u64, per_rank: Vec<Vec<(u32, u64)>>) {
        for (ep, from) in self.rank_eps.iter().zip(per_rank) {
            send_from(t, &self.ctrl, self.my_ep, *ep, CtrlMsg::ExpectedIn { from });
        }
    }
}

// ---------------------------------------------------------------------------
// Tree: per-node sub-coordinators
// ---------------------------------------------------------------------------

/// One node's expected-in batch: `(rank, expected-in list)` per local
/// rank — the payload of [`CtrlMsg::ExpectedInBatch`].
type ExpectedBatch = Vec<(u32, Vec<(u32, u64)>)>;

/// An expected-in batch routed to the node's helpers: `(helper endpoint,
/// expected-in list)` per rank.
type ExpectedRoutes = Vec<(EndpointId, Vec<(u32, u64)>)>;

/// Per-node tree fan-out: the root exchanges one aggregated frame per
/// node; sub-coordinators replicate downward messages and reduce upward
/// replies locally, in parallel across nodes.
pub struct TreeTopology {
    ctrl: Arc<Network<CtrlMsg>>,
    my_ep: EndpointId,
    /// Each node's sub-coordinator endpoint.
    children: Vec<EndpointId>,
    /// Index into `children` of the sub-coordinator serving each rank
    /// (rank-indexed).
    child_of_rank: Vec<u32>,
    nranks: u32,
}

impl CoordTopology for TreeTopology {
    fn nranks(&self) -> u32 {
        self.nranks
    }

    fn attach_root(&self, tid: SimThreadId) {
        self.ctrl.add_waiter(self.my_ep, tid);
    }

    fn fanout(&self, t: &SimThread, mk: &dyn Fn() -> CtrlMsg) {
        // One downward frame per node; the sub-coordinators replicate to
        // their local ranks concurrently with each other.
        for c in &self.children {
            send_from(t, &self.ctrl, self.my_ep, *c, mk());
        }
    }

    fn gather(&self, t: &SimThread, ckpt_id: u64, stage: Stage) -> Gather {
        let role = Role::TreeRoot {
            nodes: self.children.len() as u32,
            nranks: self.nranks,
        };
        let fold = Gather::new(role, stage, ckpt_id);
        gather_on(t, &self.ctrl, self.my_ep, CTRL_CPU.recv, fold)
    }

    fn scatter_expected(&self, t: &SimThread, _ckpt_id: u64, mut per_rank: Vec<Vec<(u32, u64)>>) {
        // Bucket the rank-indexed lists by owning child, preserving rank
        // labels, then one batched frame per node.
        let mut batches: Vec<ExpectedBatch> = self.children.iter().map(|_| Vec::new()).collect();
        for (rank, from) in per_rank.drain(..).enumerate() {
            batches[self.child_of_rank[rank] as usize].push((rank as u32, from));
        }
        for (c, per_rank) in self.children.iter().zip(batches) {
            send_from(
                t,
                &self.ctrl,
                self.my_ep,
                *c,
                CtrlMsg::ExpectedInBatch { per_rank },
            );
        }
    }
}

/// Everything one node-level sub-coordinator needs.
struct SubCoordCtx {
    ctrl: Arc<Network<CtrlMsg>>,
    my_ep: EndpointId,
    root_ep: EndpointId,
    node: u32,
    /// `(rank, helper endpoint)` for the node's ranks.
    local: Vec<(u32, EndpointId)>,
    /// Fault-injection seam: may order this sub-coordinator killed
    /// mid-agreement, exercising the promotion/failover path.
    chaos: ChaosHandle,
}

impl SubCoordCtx {
    fn role(&self) -> Role {
        Role::Sub {
            node: self.node,
            ranks: self.local.len() as u32,
        }
    }

    /// Receive a frame from the root (cross-node polling rate).
    fn recv(&self, t: &SimThread) -> CtrlMsg {
        recv_on(t, &self.ctrl, self.my_ep, CTRL_CPU.recv)
    }

    fn send_root(&self, t: &SimThread, msg: CtrlMsg) {
        send_from(t, &self.ctrl, self.my_ep, self.root_ep, msg);
    }

    fn fan_out(&self, t: &SimThread, msg: &CtrlMsg) {
        for (_, ep) in &self.local {
            send_from(t, &self.ctrl, self.my_ep, *ep, msg.clone());
        }
    }

    /// Fold `stage`'s replies from the node's own helpers: same-node
    /// loopback frames are charged the cheaper intra rate — the whole
    /// point of putting a sub-coordinator on every node.
    fn gather(&self, t: &SimThread, ckpt_id: u64, stage: Stage) -> Gather {
        let fold = Gather::new(self.role(), stage, ckpt_id);
        gather_on(t, &self.ctrl, self.my_ep, CTRL_CPU.recv_intra, fold)
    }

    /// Gather the node's `State` replies for one agreement round and ship
    /// the partial reduction to the root — unless the chaos seam kills
    /// the sub-coordinator after its fan-out, and a surviving rank on the
    /// node is promoted in its place.
    ///
    /// The promotion is modelled in place rather than by swapping sim
    /// threads: the replacement inherits the dead daemon's endpoint (it
    /// re-binds the node-local listen socket), pays the injected
    /// election/re-registration latency, drains the `State` replies the
    /// dead daemon left queued (their round is void — the replies carry
    /// seq numbers from before the promotion), and announces itself to
    /// the root with [`CtrlMsg::SubPromoted`] so the root re-enters
    /// agreement instead of waiting forever on the node's aggregate.
    fn relay_states(&self, t: &SimThread, ckpt_id: u64) {
        let up = match self.chaos.subcoord_point(ckpt_id, self.node) {
            None => CtrlMsg::StateAggMsg {
                agg: self.gather(t, ckpt_id, Stage::Agreement).agg,
            },
            Some(latency) => {
                t.advance(latency);
                self.gather(t, ckpt_id, Stage::StaleDrain);
                CtrlMsg::SubPromoted {
                    node: self.node,
                    ckpt_id,
                }
            }
        };
        self.send_root(t, up);
    }

    /// The do-ckpt half of the protocol: bookmarks up, expected-in down,
    /// completions up, resume down. Returns the kill flag.
    fn relay_checkpoint(&self, t: &SimThread, ckpt_id: u64) -> bool {
        // Bookmarks: merge the node's sent-to maps into a destination-keyed
        // directory before shipping one frame up.
        let expected = self.gather(t, ckpt_id, Stage::Bookmarks).directory;
        self.send_root(
            t,
            CtrlMsg::BookmarkAgg {
                replies: self.local.len() as u32,
                expected: expected.into_iter().collect(),
            },
        );

        // Expected-in counts come back as one batch; fan out locally.
        let routes = route_expected(self.role(), ckpt_id, &self.local, self.recv(t))
            .unwrap_or_else(|v| v.raise());
        for (ep, from) in routes {
            send_from(t, &self.ctrl, self.my_ep, ep, CtrlMsg::ExpectedIn { from });
        }

        // Roll up the node's completions into one frame.
        let stats = self.gather(t, ckpt_id, Stage::Completion).completions;
        self.send_root(t, CtrlMsg::CkptDoneAgg { stats });

        // Resume (or die).
        match self.recv(t) {
            msg @ CtrlMsg::Resume { kill, .. } => {
                self.fan_out(t, &msg);
                kill
            }
            other => protocol_violation(
                self.role().to_string(),
                ckpt_id,
                ProtocolPhase::ResumeWait,
                "Resume",
                other,
            ),
        }
    }
}

/// Route a node's expected-in batch to its helpers, in batch order.
/// Refuses any other frame, and a batch that names a rank not on the
/// node.
fn route_expected(
    role: Role,
    ckpt_id: u64,
    local: &[(u32, EndpointId)],
    msg: CtrlMsg,
) -> Result<ExpectedRoutes, Box<ProtocolViolation>> {
    let refuse = |expected, got| {
        Box::new(ProtocolViolation {
            role: role.to_string(),
            ckpt_id: Some(ckpt_id),
            phase: ProtocolPhase::ExpectedWait,
            expected,
            got,
        })
    };
    let CtrlMsg::ExpectedInBatch { per_rank } = msg else {
        return Err(refuse("ExpectedInBatch", msg));
    };
    let ep_of = |rank| local.iter().find(|(r, _)| *r == rank).map(|(_, ep)| *ep);
    if per_rank.iter().any(|(rank, _)| ep_of(*rank).is_none()) {
        let got = CtrlMsg::ExpectedInBatch { per_rank };
        return Err(refuse("ExpectedInBatch naming only this node's ranks", got));
    }
    Ok(per_rank
        .into_iter()
        .map(|(rank, from)| (ep_of(rank).expect("checked above"), from))
        .collect())
}

/// Sub-coordinator daemon loop: replicate downward control messages to the
/// node's helpers, reduce their replies, ship aggregates to the root.
/// Exits after relaying a kill-resume.
fn run_sub_coordinator(t: SimThread, sx: SubCoordCtx) {
    sx.ctrl.add_waiter(sx.my_ep, t.id());
    loop {
        match sx.recv(&t) {
            msg @ (CtrlMsg::IntendCkpt { ckpt_id } | CtrlMsg::ExtraIteration { ckpt_id }) => {
                sx.fan_out(&t, &msg);
                sx.relay_states(&t, ckpt_id);
            }
            msg @ CtrlMsg::DoCkpt { ckpt_id } => {
                sx.fan_out(&t, &msg);
                if sx.relay_checkpoint(&t, ckpt_id) {
                    return;
                }
            }
            other => protocol_violation(
                sx.role().to_string(),
                None,
                ProtocolPhase::Idle,
                "IntendCkpt/ExtraIteration/DoCkpt",
                other,
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Control-plane assembly
// ---------------------------------------------------------------------------

/// A fully wired control plane: the root's topology seam plus the
/// endpoints each helper binds and speaks to.
pub struct ControlPlane {
    /// The root protocol driver's delivery/reduction seam.
    pub topo: Arc<dyn CoordTopology>,
    /// Each helper's own endpoint (indexed by rank).
    pub helper_eps: Vec<EndpointId>,
    /// The endpoint each helper's protocol parent listens on — the root
    /// itself under [`TopologyKind::Flat`], the rank's node-local
    /// sub-coordinator under [`TopologyKind::Tree`] (indexed by rank).
    pub parent_eps: Vec<EndpointId>,
}

/// Wire the coordinator control plane for a job: root endpoint, per-rank
/// helper endpoints, and — under [`TopologyKind::Tree`] — one
/// sub-coordinator sim thread per compute node, each on its node so local
/// fan-out rides the intra-node fabric.
pub fn build_control_plane(
    sim: &Sim,
    ctrl: &Arc<Network<CtrlMsg>>,
    cluster: &ClusterSpec,
    nranks: u32,
    placement: Placement,
    cfg: &ManaConfig,
) -> ControlPlane {
    let my_ep = ctrl.add_endpoint(0);
    let node_of: Vec<u32> = (0..nranks)
        .map(|r| cluster.node_of_rank(r, nranks, placement))
        .collect();
    let helper_eps: Vec<EndpointId> = node_of.iter().map(|n| ctrl.add_endpoint(*n)).collect();
    match cfg.topology {
        TopologyKind::Flat => {
            let topo = Arc::new(FlatTopology::new(ctrl.clone(), my_ep, helper_eps.clone()));
            ControlPlane {
                topo,
                parent_eps: vec![my_ep; nranks as usize],
                helper_eps,
            }
        }
        TopologyKind::Tree => {
            let mut by_node: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            for (rank, node) in node_of.iter().enumerate() {
                by_node.entry(*node).or_default().push(rank as u32);
            }
            let mut children = Vec::with_capacity(by_node.len());
            let mut child_of_rank = vec![0u32; nranks as usize];
            let mut parent_eps = vec![my_ep; nranks as usize];
            for (child_idx, (node, ranks)) in by_node.into_iter().enumerate() {
                let sub_ep = ctrl.add_endpoint(node);
                for r in &ranks {
                    child_of_rank[*r as usize] = child_idx as u32;
                    parent_eps[*r as usize] = sub_ep;
                }
                let sx = SubCoordCtx {
                    ctrl: ctrl.clone(),
                    my_ep: sub_ep,
                    root_ep: my_ep,
                    node,
                    local: ranks
                        .iter()
                        .map(|r| (*r, helper_eps[*r as usize]))
                        .collect(),
                    chaos: cfg.chaos.clone(),
                };
                children.push(sub_ep);
                sim.spawn(&format!("subcoord{node}"), true, move |t| {
                    run_sub_coordinator(t, sx)
                });
            }
            let topo = Arc::new(TreeTopology {
                ctrl: ctrl.clone(),
                my_ep,
                children,
                child_of_rank,
                nranks,
            });
            ControlPlane {
                topo,
                parent_eps,
                helper_eps,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Conformance harness (in the spirit of `mana-store`'s `exercise_store`)
// ---------------------------------------------------------------------------

/// Everything one topology's checkpoint-and-restart chain exposes for
/// equivalence checking.
pub struct TopologyRunReport {
    /// Topology the chain ran under.
    pub kind: TopologyKind,
    /// The checkpoint's full report (timing differs across topologies).
    pub ckpt: CkptReport,
    /// Per-rank checksum of the *encoded image bytes* in the store,
    /// indexed by rank — byte-identity across topologies.
    pub image_checksums: Vec<u64>,
    /// Per-rank encoded image sizes, indexed by rank.
    pub image_lens: Vec<u64>,
    /// Final per-rank application-state checksums after restarting from
    /// the checkpoint.
    pub final_checksums: BTreeMap<u32, u64>,
}

/// Run `workload` under MANA with one mid-run checkpoint-and-kill, then
/// restart it from the images — all under `topology` — and report
/// everything the topology-invariance contract compares. Uses a fresh
/// in-memory store so runs are hermetic.
pub fn run_checkpoint_chain(
    workload: &Arc<dyn Workload>,
    cluster: &ClusterSpec,
    nranks: u32,
    profile: MpiProfile,
    seed: u64,
    ckpt_frac: f64,
    topology: TopologyKind,
) -> TopologyRunReport {
    let session = ManaSession::builder().store(InMemStore::new()).build();
    let job = || {
        JobBuilder::new()
            .cluster(cluster.clone())
            .ranks(nranks)
            .profile(profile.clone())
            .seed(seed)
            .topology(topology)
    };
    // Probe the run length so the checkpoint lands inside the application
    // window. A checkpoint-free run never exchanges control messages, so
    // the probe is topology-independent and both topologies derive the
    // same checkpoint time.
    let probe = session
        .run(job(), workload.clone())
        .expect("topology probe run");
    let wall = probe.outcome().wall.as_nanos();
    let app = probe.outcome().app_wall.as_nanos();
    let at = mana_sim::time::SimTime(wall - app + (app as f64 * ckpt_frac) as u64);
    let killed = session
        .run(job().checkpoint_at(at).then_kill(), workload.clone())
        .expect("topology checkpoint run");
    assert!(killed.killed(), "checkpoint-and-kill did not kill");
    let ckpt = killed.ckpts().pop().expect("one checkpoint report");

    let store = session.store();
    let spec = killed.spec();
    let mut image_checksums = Vec::with_capacity(nranks as usize);
    let mut image_lens = Vec::with_capacity(nranks as usize);
    for rank in 0..nranks {
        let path = spec.cfg.image_path(ckpt.ckpt_id, rank);
        let (bytes, _) = store
            .get(
                &path,
                u64::from(rank),
                mana_sim::fs::IoShape {
                    writers_on_node: 1,
                    total_writers: 1,
                },
            )
            .expect("image in store");
        // The scatter's streaming checksum equals the flat digest, so no
        // flatten is needed to fingerprint the image.
        image_checksums.push(bytes.scatter().checksum());
        image_lens.push(bytes.len() as u64);
    }

    let resumed = killed
        .restart_on(JobBuilder::new())
        .expect("topology restart");
    TopologyRunReport {
        kind: topology,
        ckpt,
        image_checksums,
        image_lens,
        final_checksums: resumed.checksums().clone(),
    }
}

/// The topology-invariance contract for a checkpoint whose whole
/// agreement fits inside one compute op: both topologies must have made
/// the same safety decisions (extra-iteration count), produced
/// byte-identical restart images, reported identical non-timing per-rank
/// checkpoint stats, and restarted to identical application state. Only
/// timing may differ. Outside that regime the ranks may stop at other op
/// boundaries and this assertion does not hold.
pub fn assert_topologies_agree(a: &TopologyRunReport, b: &TopologyRunReport) {
    let pair = format!("{:?} vs {:?}", a.kind, b.kind);
    assert_eq!(
        a.ckpt.extra_iterations, b.ckpt.extra_iterations,
        "{pair}: safety decisions diverged (extra iterations)"
    );
    assert_eq!(
        a.image_lens, b.image_lens,
        "{pair}: restart image sizes diverged"
    );
    assert_eq!(
        a.image_checksums, b.image_checksums,
        "{pair}: restart images not byte-identical"
    );
    assert_eq!(
        a.ckpt.ranks.len(),
        b.ckpt.ranks.len(),
        "{pair}: rank stats cardinality"
    );
    for (ra, rb) in a.ckpt.ranks.iter().zip(&b.ckpt.ranks) {
        assert_eq!(ra.rank, rb.rank, "{pair}: rank order");
        assert_eq!(
            ra.image_logical_bytes, rb.image_logical_bytes,
            "{pair}: rank {} logical image bytes",
            ra.rank
        );
        assert_eq!(
            ra.image_dense_bytes, rb.image_dense_bytes,
            "{pair}: rank {} dense image bytes",
            ra.rank
        );
        assert_eq!(
            ra.drained_msgs, rb.drained_msgs,
            "{pair}: rank {} drained messages",
            ra.rank
        );
    }
    assert_eq!(
        a.final_checksums, b.final_checksums,
        "{pair}: restarted application state diverged"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mana_sim::sched::SimConfig;

    /// Intra-node control frames (a tree sub-coordinator's local fan-out)
    /// are charged the cheaper loopback CPU rate; cross-node frames pay
    /// the full socket cost.
    #[test]
    fn intra_node_frames_charged_cheaper_send_rate() {
        let cpu = CTRL_CPU;
        assert!(
            cpu.send_intra < cpu.send && cpu.recv_intra < cpu.recv,
            "loopback must be cheaper than cross-node TCP: {cpu:?}"
        );

        let sim = Sim::new(SimConfig::default());
        let ctrl = Network::<CtrlMsg>::new(&sim, mana_sim::cluster::InterconnectKind::Tcp);
        let sub = ctrl.add_endpoint(0); // sub-coordinator on node 0
        let local = ctrl.add_endpoint(0); // helper on the same node
        let remote = ctrl.add_endpoint(1); // root on another node
        {
            let ctrl = ctrl.clone();
            sim.spawn("sender", false, move |t| {
                let t0 = t.now();
                send_from(&t, &ctrl, sub, local, CtrlMsg::IntendCkpt { ckpt_id: 1 });
                let intra = t.now().since(t0);
                assert_eq!(intra, cpu.send_intra, "same-node frame at loopback rate");

                let t1 = t.now();
                send_from(&t, &ctrl, sub, remote, CtrlMsg::IntendCkpt { ckpt_id: 1 });
                let inter = t.now().since(t1);
                assert_eq!(inter, cpu.send, "cross-node frame at socket rate");
                assert!(intra < inter);

                // Receive sides: the rate is chosen by the listener's
                // context (a sub gathering its own node's replies polls at
                // the intra rate).
                let t2 = t.now();
                let _ = recv_on(&t, &ctrl, local, cpu.recv_intra);
                assert_eq!(t.now().since(t2), cpu.recv_intra);
            });
        }
        sim.run();
    }

    #[test]
    fn an_expected_in_batch_must_name_only_the_nodes_ranks() {
        let local = [(4, EndpointId(10)), (5, EndpointId(11))];
        let role = Role::Sub { node: 1, ranks: 2 };
        let batch = |ranks: &[u32]| CtrlMsg::ExpectedInBatch {
            per_rank: ranks
                .iter()
                .map(|r| (*r, vec![(0, u64::from(*r))]))
                .collect(),
        };
        let routes = route_expected(role, 7, &local, batch(&[5, 4])).unwrap();
        assert_eq!(
            routes,
            vec![
                (EndpointId(11), vec![(0, 5)]),
                (EndpointId(10), vec![(0, 4)])
            ]
        );
        for (msg, expected) in [
            (
                batch(&[4, 9]),
                "ExpectedInBatch naming only this node's ranks",
            ),
            (CtrlMsg::ExpectedIn { from: vec![] }, "ExpectedInBatch"),
        ] {
            let v = route_expected(role, 7, &local, msg).unwrap_err();
            assert_eq!(
                (v.role.as_str(), v.phase, v.expected, v.ckpt_id),
                (
                    "sub-coordinator node 1",
                    ProtocolPhase::ExpectedWait,
                    expected,
                    Some(7)
                )
            );
        }
    }
}
