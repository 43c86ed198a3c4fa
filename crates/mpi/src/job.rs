//! Job-level state: one `MpiJob` per `mpirun` invocation.

use crate::coll::CollEngine;
use crate::comm::CommRegistry;
use crate::p2p::P2pEngine;
use crate::profile::MpiProfile;
use crate::rank::RankMpi;
use crate::wire::Wire;
use crate::Mpi;
use mana_net::model::{driver_shm_bytes, pinned_bytes};
use mana_net::transport::Network;
use mana_net::LinkModel;
use mana_sim::cluster::{ClusterSpec, Placement};
use mana_sim::memory::{AddressSpace, Backing, Half, RegionKind};
use mana_sim::rng::derive_seed_idx;
use mana_sim::sched::{Sim, SimThread};
use mana_sim::time::SimDuration;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One MPI job: an implementation profile bound to a cluster, a fabric
/// plane, and `nranks` ranks.
pub struct MpiJob {
    profile: MpiProfile,
    sim: Sim,
    cluster: ClusterSpec,
    nranks: u32,
    placement: Placement,
    net: Arc<Network<Wire>>,
    p2p: P2pEngine,
    coll: CollEngine,
    registry: CommRegistry,
    nodes_used: u32,
    abort: Arc<AtomicBool>,
}

impl MpiJob {
    /// Create the job-global state (endpoints, engines, registry).
    pub fn new(
        sim: &Sim,
        cluster: ClusterSpec,
        nranks: u32,
        placement: Placement,
        profile: MpiProfile,
    ) -> Arc<MpiJob> {
        assert!(nranks >= 1, "job needs at least one rank");
        let net = Network::<Wire>::new(sim, cluster.interconnect);
        let mut eps = Vec::with_capacity(nranks as usize);
        let mut nodes = BTreeSet::new();
        for r in 0..nranks {
            let node = cluster.node_of_rank(r, nranks, placement);
            nodes.insert(node);
            eps.push(net.add_endpoint(node));
        }
        let nodes_used = nodes.len() as u32;
        let link = LinkModel::for_path(cluster.interconnect, nodes_used <= 1);
        let abort = Arc::new(AtomicBool::new(false));
        let p2p = P2pEngine::new(net.clone(), eps, abort.clone());
        let coll = CollEngine::new(sim, link, abort.clone());
        Arc::new(MpiJob {
            profile,
            sim: sim.clone(),
            cluster,
            nranks,
            placement,
            net,
            p2p,
            coll,
            registry: CommRegistry::new(nranks),
            nodes_used,
            abort,
        })
    }

    /// Abort the job (`MPI_Abort` semantics): every blocking MPI operation
    /// unwinds with [`crate::p2p::MpiAborted`] at its next wakeup. The
    /// caller is responsible for waking blocked threads (MANA's kill path
    /// wakes each rank through its checkpoint cell).
    pub fn abort(&self) {
        self.abort.store(true, Ordering::SeqCst);
    }

    /// `MPI_Init` for one rank, called on the rank's own thread: maps the
    /// library's lower-half regions into the rank's address space, pays the
    /// startup cost, synchronizes with the other ranks, and returns the
    /// rank's library instance.
    ///
    /// This is exactly the operation MANA re-runs with a *fresh* library at
    /// restart time: everything mapped here is ephemeral.
    pub fn init_rank(
        self: &Arc<Self>,
        t: &SimThread,
        rank: u32,
        aspace: &Arc<AddressSpace>,
    ) -> Box<dyn Mpi> {
        self.map_lower_half(rank, aspace);
        t.advance(self.profile.init_cost);
        let rm = RankMpi::new(self.clone(), rank);
        rm.init_barrier(t);
        Box::new(rm)
    }

    fn map_lower_half(&self, rank: u32, aspace: &Arc<AddressSpace>) {
        let seed = derive_seed_idx(self.sim.seed(), "lower-half", u64::from(rank));
        let lib = self.profile.name.replace(' ', "_").to_lowercase();
        aspace
            .map(
                Half::Lower,
                RegionKind::Text,
                &format!("lib{lib}.so [text]"),
                self.profile.text_bytes,
                Backing::Pattern { seed },
            )
            .expect("map lower text");
        aspace
            .map(
                Half::Lower,
                RegionKind::Data,
                &format!("lib{lib}.so [data]"),
                self.profile.data_bytes,
                Backing::Pattern { seed: seed ^ 1 },
            )
            .expect("map lower data");
        aspace
            .map(
                Half::Lower,
                RegionKind::Tls,
                "lower-half TLS",
                64 * 1024,
                Backing::Pattern { seed: seed ^ 2 },
            )
            .expect("map lower tls");
        if self.nodes_used > 1 {
            aspace
                .map(
                    Half::Lower,
                    RegionKind::Shm,
                    "network driver shm",
                    driver_shm_bytes(self.nodes_used),
                    Backing::Pattern { seed: seed ^ 3 },
                )
                .expect("map driver shm");
            aspace
                .map(
                    Half::Lower,
                    RegionKind::Pinned,
                    "nic pinned buffers",
                    pinned_bytes(),
                    Backing::Pattern { seed: seed ^ 4 },
                )
                .expect("map pinned");
        } else {
            // Intra-node jobs still map SysV shared memory for the
            // on-node channel (what BLCR famously failed to support).
            aspace
                .map(
                    Half::Lower,
                    RegionKind::Shm,
                    "sysv shm channel",
                    2 << 20,
                    Backing::Pattern { seed: seed ^ 5 },
                )
                .expect("map sysv shm");
        }
    }

    /// Implementation profile.
    pub fn profile(&self) -> &MpiProfile {
        &self.profile
    }

    /// Simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Cluster this job runs on.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Total ranks.
    pub fn nranks(&self) -> u32 {
        self.nranks
    }

    /// Rank placement policy.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Distinct nodes hosting ranks.
    pub fn nodes_used(&self) -> u32 {
        self.nodes_used
    }

    /// Point-to-point engine (shared by ranks and by MANA's drain).
    pub fn p2p(&self) -> &P2pEngine {
        &self.p2p
    }

    /// Collective engine.
    pub fn coll(&self) -> &CollEngine {
        &self.coll
    }

    /// Communicator registry.
    pub fn registry(&self) -> &CommRegistry {
        &self.registry
    }

    /// Data-plane network (in-flight visibility for tests/diagnostics).
    pub fn net(&self) -> &Arc<Network<Wire>> {
        &self.net
    }
}

/// Per-rank body executed by [`launch_native`] / [`run_native`].
pub type RankBody = Arc<dyn Fn(&SimThread, &dyn Mpi, u32) + Send + Sync>;

/// Spawn `nranks` rank threads each running `body(thread, mpi, rank)` over
/// a freshly initialized library — the "mpirun" of the substrate. Returns
/// the job; the caller drives `sim.run()`.
pub fn launch_native(
    sim: &Sim,
    cluster: ClusterSpec,
    nranks: u32,
    placement: Placement,
    profile: MpiProfile,
    body: RankBody,
) -> Arc<MpiJob> {
    let job = MpiJob::new(sim, cluster, nranks, placement, profile);
    for rank in 0..nranks {
        let job = job.clone();
        let body = body.clone();
        sim.spawn(&format!("rank{rank}"), false, move |t| {
            let aspace = Arc::new(AddressSpace::new());
            let mpi = job.init_rank(&t, rank, &aspace);
            body(&t, mpi.as_ref(), rank);
            mpi.finalize(&t);
        });
    }
    job
}

/// Convenience: run a whole native job to completion on a fresh simulation
/// and return the virtual time consumed.
pub fn run_native(
    cluster: ClusterSpec,
    nranks: u32,
    placement: Placement,
    profile: MpiProfile,
    seed: u64,
    body: RankBody,
) -> SimDuration {
    let sim = Sim::new(mana_sim::sched::SimConfig { seed });
    launch_native(&sim, cluster, nranks, placement, profile, body);
    sim.run();
    sim.now() - mana_sim::time::SimTime::ZERO
}
