//! Coordinator topologies on the simulator (the control-plane *driver*).
//!
//! The checkpoint protocol itself — two-phase agreement, the do-ckpt
//! safety rule, bookmark mediation, completion and resume — is one pure
//! [`Coordinator`] value per role, in [`crate::coordinator`]. This module
//! wires the endpoints each role speaks from and runs the value on a sim
//! thread, one driver loop for every role:
//!
//! * the **flat** star is the DMTCP coordinator the paper measures: the
//!   root serializes one small TCP frame per rank, so both its send loop
//!   and its receive polling scale with the world size (§3.4, Figure 8's
//!   growing communication overhead);
//! * the **tree** interposes one sub-coordinator per compute node (the
//!   NERSC production fix): the root exchanges one *aggregated* message
//!   per node, and the sub-coordinators fan out / reduce locally over the
//!   node's loopback in parallel with each other. Downward messages are
//!   replicated in-tree; upward `State` replies fold into a [`StateAgg`]
//!   partial reduction, bookmarks merge into a destination-keyed
//!   directory, and completions roll up per node — so the root handles
//!   O(nodes) frames instead of O(ranks).
//!
//! The driver makes the sends and receives the value asks for, reads the
//! clock at the round's report points, and polls the chaos seam where a
//! sub-coordinator may fail over. The tree's reductions are
//! re-associations of the exact fold the flat coordinator performs (see
//! [`StateAgg::merge`]), so from the same rank states both topologies
//! feed identical aggregates to the safety rule.
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
use crate::config::{CkptSchedule, ManaConfig, TopologyKind};
use crate::coordinator::{checkpoint_safe, Coordinator, Out};
use crate::ctrl::{ctrl_msg_bytes, CtrlMsg};
use crate::env::Workload;
use crate::session::{JobBuilder, ManaSession};
use crate::stats::CkptReport;
use crate::store::{CheckpointStore, InMemStore};
use mana_mpi::MpiProfile;
use mana_net::transport::{EndpointId, Network};
use mana_sim::cluster::{ClusterSpec, Placement};
use mana_sim::sched::{Sim, SimThread, SimThreadId};
use mana_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

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

/// One coordinator as its sim thread runs it: the pure value and the
/// endpoints it speaks from and to.
pub struct Driver {
    coord: Coordinator,
    ctrl: Arc<Network<CtrlMsg>>,
    me: EndpointId,
    /// The root's endpoint (a sub-coordinator's parent).
    up: EndpointId,
    /// Each child's endpoint: a rank's helper, or the tree root's
    /// sub-coordinators.
    children: Vec<EndpointId>,
    /// Fault-injection seam: may kill a sub-coordinator right after it
    /// fans out an agreement round, exercising the promotion path.
    chaos: ChaosHandle,
}

impl Driver {
    /// Receive the next frame, charged by what the value awaits: a
    /// sub-coordinator gathering its own node's replies polls same-node
    /// loopback frames at the cheaper intra rate — the whole point of
    /// putting one on every node — and everything else polls at the
    /// cross-node rate.
    fn recv(&self, t: &SimThread) -> CtrlMsg {
        let rate = if self.coord.gathers_node() {
            CTRL_CPU.recv_intra
        } else {
            CTRL_CPU.recv
        };
        recv_on(t, &self.ctrl, self.me, rate)
    }

    /// Feed `msg` to the coordinator and run it until it awaits the next
    /// round's first frame: make its sends, read the clock into `round`
    /// at a root's report points, and poll the failover seam where a
    /// sub-coordinator may die. Returns whether it sent a kill. The first
    /// frame the value refuses aborts the thread with that violation.
    fn drive(&mut self, t: &SimThread, mut msg: CtrlMsg, round: &mut CkptReport) -> bool {
        let mut killed = false;
        loop {
            for out in self.coord.step(msg).unwrap_or_else(|v| v.raise()) {
                match out {
                    Out::Down(c, msg) => {
                        killed |= matches!(msg, CtrlMsg::Resume { kill: true, .. });
                        send_from(t, &self.ctrl, self.me, self.children[c], msg);
                    }
                    Out::Up(msg) => send_from(t, &self.ctrl, self.me, self.up, msg),
                    Out::Extra => round.extra_iterations += 1,
                    Out::DoCkpt => round.t_do_ckpt = t.now(),
                    Out::ExpectedIn => round.t_expected_in = t.now(),
                    Out::End(ranks) => (round.t_end, round.ranks) = (t.now(), ranks),
                    Out::Fanned { ckpt_id, node } => {
                        if let Some(latency) = self.chaos.subcoord_point(ckpt_id, node) {
                            t.advance(latency);
                            self.coord.promote();
                        }
                    }
                }
            }
            if self.coord.idle() {
                return killed;
            }
            msg = self.recv(t);
        }
    }
}

/// The root coordinator's daemon: sleeps until each scheduled checkpoint
/// begins, drives its round and hands the round's report to `report`,
/// then returns after the last checkpoint. An interval schedule first
/// sleeps until the application starts: `app_start(me)` returns that
/// instant once it is known, and until then has the rank that opens the
/// application window wake thread `me`.
pub fn run_coordinator(
    t: SimThread,
    mut root: Driver,
    cfg: &ManaConfig,
    store: &dyn CheckpointStore,
    mut app_start: impl FnMut(SimThreadId) -> Option<SimTime>,
    mut report: impl FnMut(CkptReport),
) {
    root.ctrl.add_waiter(root.me, t.id());
    let schedule = &cfg.ckpt_schedule;
    let mut anchor = SimTime::ZERO;
    if matches!(schedule, CkptSchedule::Every { .. }) && !schedule.is_empty() {
        anchor = t.block_until(|| app_start(t.id()));
    }
    for i in 0..schedule.len() {
        let at = schedule.begin(i, anchor);
        let now = t.now();
        if at > now {
            t.advance(at - now);
        }
        let ckpt_id = cfg.first_ckpt_id + i;
        let mut round = CkptReport::default();
        (round.ckpt_id, round.t_begin) = (ckpt_id, t.now());
        store.begin_epoch();
        root.drive(&t, CtrlMsg::IntendCkpt { ckpt_id }, &mut round);
        anchor = round.t_end;
        report(round);
    }
}

/// A sub-coordinator's daemon: relays every round between the root and
/// the node's ranks, and exits after relaying a kill.
fn run_sub_coordinator(t: SimThread, mut sub: Driver) {
    sub.ctrl.add_waiter(sub.me, t.id());
    while !sub.drive(&t, sub.recv(&t), &mut CkptReport::default()) {}
}

// ---------------------------------------------------------------------------
// Control-plane assembly
// ---------------------------------------------------------------------------

/// A fully wired control plane: the root's driver plus the endpoints
/// each helper binds and speaks to.
pub struct ControlPlane {
    /// The root coordinator, for [`run_coordinator`].
    pub root: Driver,
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
    let kill_at = (0..cfg.ckpt_schedule.len())
        .map(|i| cfg.first_ckpt_id + i)
        .find(|id| cfg.ends_after(*id));
    let driver = |coord, me, up, children| Driver {
        coord,
        ctrl: ctrl.clone(),
        me,
        up,
        children,
        chaos: cfg.chaos.clone(),
    };
    let (root, parent_eps) = match cfg.topology {
        TopologyKind::Flat => {
            let root = Coordinator::flat(nranks, kill_at, checkpoint_safe);
            let root = driver(root, my_ep, my_ep, helper_eps.clone());
            (root, vec![my_ep; nranks as usize])
        }
        TopologyKind::Tree => {
            let mut by_node: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            for (rank, node) in node_of.iter().enumerate() {
                by_node.entry(*node).or_default().push(rank as u32);
            }
            let nodes: Vec<(u32, Vec<u32>)> = by_node.into_iter().collect();
            let (root, subs) = Coordinator::tree(&nodes, kill_at, checkpoint_safe);
            let mut children = Vec::with_capacity(nodes.len());
            let mut parent_eps = vec![my_ep; nranks as usize];
            for (sub, (node, ranks)) in subs.into_iter().zip(nodes) {
                let sub_ep = ctrl.add_endpoint(node);
                ranks.iter().for_each(|r| parent_eps[*r as usize] = sub_ep);
                let local = ranks.iter().map(|r| helper_eps[*r as usize]).collect();
                let sub = driver(sub, sub_ep, my_ep, local);
                children.push(sub_ep);
                sim.spawn(&format!("subcoord{node}"), true, move |t| {
                    run_sub_coordinator(t, sub)
                });
            }
            (driver(root, my_ep, my_ep, children), parent_eps)
        }
    };
    ControlPlane {
        root,
        helper_eps,
        parent_eps,
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

    /// A sub-coordinator routes its node's expected-in batch to the
    /// ranks' endpoints in batch order, and refuses a batch naming a rank
    /// off the node or any other frame in its place.
    #[test]
    fn an_expected_in_batch_must_name_only_the_nodes_ranks() {
        use crate::ctrl::ProtocolPhase;
        let local = [EndpointId(10), EndpointId(11)];
        let (_, mut subs) = Coordinator::tree(&[(1, vec![4, 5])], None, checkpoint_safe);
        let mut at_batch = subs.pop().unwrap();
        at_batch.step(CtrlMsg::DoCkpt { ckpt_id: 7 }).unwrap();
        for rank in [4, 5] {
            let sent_to = vec![];
            at_batch.step(CtrlMsg::Bookmark { rank, sent_to }).unwrap();
        }
        let batch = |ranks: &[u32]| CtrlMsg::ExpectedInBatch {
            per_rank: ranks
                .iter()
                .map(|r| (*r, vec![(0, u64::from(*r))]))
                .collect(),
        };
        let routes: Vec<_> = (at_batch.clone().step(batch(&[5, 4])).unwrap())
            .into_iter()
            .map(|out| match out {
                Out::Down(c, CtrlMsg::ExpectedIn { from }) => (local[c], from),
                out => panic!("a batch routes only ExpectedIn frames down: {out:?}"),
            })
            .collect();
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
            let v = at_batch.clone().step(msg).unwrap_err();
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
