//! Job launch engines: running an application natively and launching it
//! under MANA on a fresh simulation. The restart path — booting a new
//! lower half from checkpoint images and replaying the opaque-object log
//! (§2.1/§2.2) — lives in the [`crate::restart`] subsystem; the session
//! API ([`crate::session`]) is the lifecycle surface over both.

use crate::cell::JobKilled;
use crate::config::ManaConfig;
use crate::coordinator::{run_coordinator, CoordCtx};
use crate::ctrl::CtrlMsg;
use crate::env::{AppEnv, Workload};
use crate::helper::{run_helper, HelperCtx};
use crate::shared::RankShared;
use crate::split::UpperProgram;
use crate::stats::StatsHub;
use crate::store::CheckpointStore;
use crate::topology::{build_control_plane, ControlPlane};
use crate::wrapper::ManaMpi;
use mana_mpi::{Mpi, MpiAborted, MpiJob, MpiProfile};
use mana_net::transport::Network;
use mana_sim::cluster::{ClusterSpec, InterconnectKind, Placement};
use mana_sim::fs::IoShape;
use mana_sim::memory::AddressSpace;
use mana_sim::sched::{SchedStats, Sim, SimConfig, SimThread};
use mana_sim::time::{SimDuration, SimTime};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Specification of one MANA job incarnation.
#[derive(Clone)]
pub struct ManaJobSpec {
    /// Target cluster.
    pub cluster: ClusterSpec,
    /// World size (invariant across restarts).
    pub nranks: u32,
    /// Rank placement.
    pub placement: Placement,
    /// MPI implementation for this incarnation.
    pub profile: MpiProfile,
    /// MANA configuration.
    pub cfg: ManaConfig,
    /// Root seed.
    pub seed: u64,
}

/// Result of running a workload to completion (or kill).
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Total virtual wall time of the run (including `MPI_Init`,
    /// image restore, etc.).
    pub wall: SimDuration,
    /// Application wall time: earliest workload entry to latest workload
    /// exit, excluding library startup. This is what the paper's
    /// runtime-overhead figures compare (their runs are minutes long, so
    /// startup is negligible; here it is measured out explicitly).
    pub app_wall: SimDuration,
    /// Per-rank upper-half state checksums at workload completion (empty
    /// entries for killed ranks).
    pub checksums: BTreeMap<u32, u64>,
    /// Whether the job was killed after a checkpoint (migration flows).
    pub killed: bool,
    /// Scheduler events the run dispatched: deterministic under the seed,
    /// so a host-independent measure of what the run costs to simulate.
    pub sched: SchedStats,
}

/// Shared (start, end) window collector for app_wall measurement.
pub(crate) type AppWindow = Arc<Mutex<(Option<SimTime>, Option<SimTime>)>>;

/// Shared per-rank checksum collector.
pub(crate) type Checksums = Arc<Mutex<BTreeMap<u32, u64>>>;

pub(crate) fn app_wall_of(w: &AppWindow) -> SimDuration {
    let g = w.lock();
    match (g.0, g.1) {
        (Some(s), Some(e)) => e.since(s),
        _ => SimDuration::ZERO,
    }
}

/// Install (once) a panic hook that silences the expected control-flow
/// unwinds (`JobKilled` at kill-resume, `MpiAborted` from aborted blocking
/// calls, the restart engine's `ReplayAbort`); real panics still reach the
/// previous hook.
pub(crate) fn install_quiet_kill_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<JobKilled>().is_none()
                && info.payload().downcast_ref::<MpiAborted>().is_none()
                && info
                    .payload()
                    .downcast_ref::<crate::restart::engine::ReplayAbort>()
                    .is_none()
            {
                prev(info);
            }
        }));
    });
}

pub(crate) fn io_shape(
    cluster: &ClusterSpec,
    rank: u32,
    nranks: u32,
    placement: Placement,
) -> IoShape {
    IoShape {
        writers_on_node: cluster.ranks_on_node_of(rank, nranks, placement),
        total_writers: nranks,
    }
}

pub(crate) fn rank_body_finish(
    t: &SimThread,
    env: &mut AppEnv,
    workload: &Arc<dyn Workload>,
    checksums: &Arc<Mutex<BTreeMap<u32, u64>>>,
    killed: &Arc<Mutex<bool>>,
    window: &AppWindow,
) {
    let rank = env.rank();
    {
        let mut w = window.lock();
        let now = t.now();
        w.0 = Some(w.0.map_or(now, |s| s.min(now)));
    }
    let result = catch_unwind(AssertUnwindSafe(|| workload.run(env)));
    {
        let mut w = window.lock();
        let now = t.now();
        w.1 = Some(w.1.map_or(now, |e| e.max(now)));
    }
    match result {
        Ok(()) => {
            checksums.lock().insert(rank, env.state_checksum());
            env.mpi().finalize(t);
        }
        Err(payload) => {
            if payload.downcast_ref::<JobKilled>().is_some()
                || payload.downcast_ref::<MpiAborted>().is_some()
            {
                *killed.lock() = true;
            } else {
                resume_unwind(payload);
            }
        }
    }
}

/// Deterministic dirty-tracking lineage stamp for one rank's address
/// space: a function of the job seed, the rank, and the incarnation (0
/// at launch; `restored ckpt_id + 1` after a restart), so re-runs of the
/// same configuration stamp identical summaries (byte-identical images)
/// and distinct incarnations stamp distinct ones. The image format
/// carries the stamp; no store reads it.
pub(crate) fn aspace_lineage(seed: u64, rank: u32, incarnation: u64) -> u64 {
    use mana_sim::rng::splitmix64;
    splitmix64(seed ^ (u64::from(rank) << 32) ^ splitmix64(incarnation))
}

/// Engine behind `ManaSession::run_native`: run a workload natively (no
/// MANA) to completion on a fresh simulation. The baseline for every
/// runtime-overhead figure.
pub(crate) fn native_engine(
    cluster: ClusterSpec,
    nranks: u32,
    placement: Placement,
    profile: MpiProfile,
    seed: u64,
    workload: Arc<dyn Workload>,
) -> RunOutcome {
    install_quiet_kill_hook();
    let sim = Sim::new(SimConfig { seed });
    let job = MpiJob::new(&sim, cluster, nranks, placement, profile.clone());
    let checksums = Arc::new(Mutex::new(BTreeMap::new()));
    let killed = Arc::new(Mutex::new(false));
    let window: AppWindow = Arc::new(Mutex::new((None, None)));
    for rank in 0..nranks {
        let (job, workload, checksums, killed, window) = (
            job.clone(),
            workload.clone(),
            checksums.clone(),
            killed.clone(),
            window.clone(),
        );
        let profile = profile.clone();
        sim.spawn(&format!("rank{rank}"), false, move |t| {
            let aspace = Arc::new(AddressSpace::new());
            UpperProgram::typical(&profile)
                .map_fresh(&aspace, workload.name(), rank, seed)
                .expect("upper program");
            let lower: Arc<dyn Mpi> = Arc::from(job.init_rank(&t, rank, &aspace));
            let mut env = AppEnv::native(t.clone(), lower, aspace, rank, nranks, seed);
            rank_body_finish(&t, &mut env, &workload, &checksums, &killed, &window);
        });
    }
    sim.run();
    let wall = sim.now().since(SimTime::ZERO);
    let checksums_out = checksums.lock().clone();
    let killed_out = *killed.lock();
    RunOutcome {
        wall,
        app_wall: app_wall_of(&window),
        checksums: checksums_out,
        killed: killed_out,
        sched: sim.sched_stats(),
    }
}

/// Engine behind the session API: launch a MANA job on `sim` writing
/// images through `store`. The caller drives `sim.run()` and then reads
/// the collectors.
#[allow(clippy::too_many_arguments)]
pub(crate) fn launch_engine(
    sim: &Sim,
    store: &Arc<dyn CheckpointStore>,
    spec: &ManaJobSpec,
    hub: &StatsHub,
    workload: Arc<dyn Workload>,
    checksums: Checksums,
    killed: Arc<Mutex<bool>>,
    window: AppWindow,
) -> Arc<MpiJob> {
    install_quiet_kill_hook();
    let job = MpiJob::new(
        sim,
        spec.cluster.clone(),
        spec.nranks,
        spec.placement,
        spec.profile.clone(),
    );
    // Control plane (DMTCP-style TCP, independent of the MPI fabric),
    // shaped by `spec.cfg.topology` — flat star or per-node tree.
    let ctrl = Network::<CtrlMsg>::new(sim, InterconnectKind::Tcp);
    let cp: ControlPlane = build_control_plane(
        sim,
        &ctrl,
        &spec.cluster,
        spec.nranks,
        spec.placement,
        &spec.cfg,
    );
    {
        let cx = CoordCtx {
            topo: cp.topo.clone(),
            cfg: spec.cfg.clone(),
            hub: hub.clone(),
            store: store.clone(),
        };
        sim.spawn("coordinator", true, move |t| run_coordinator(t, cx));
    }
    for rank in 0..spec.nranks {
        let (job, workload, checksums, killed, window) = (
            job.clone(),
            workload.clone(),
            checksums.clone(),
            killed.clone(),
            window.clone(),
        );
        let (spec, ctrl, store, hub) = (spec.clone(), ctrl.clone(), store.clone(), hub.clone());
        let my_ep = cp.helper_eps[rank as usize];
        let parent_ep = cp.parent_eps[rank as usize];
        let sim2 = sim.clone();
        let _ = hub;
        sim.spawn(&format!("rank{rank}"), false, move |t| {
            let aspace = Arc::new(AddressSpace::new());
            aspace.set_lineage(aspace_lineage(spec.seed, rank, 0));
            UpperProgram::typical(&spec.profile)
                .map_fresh(&aspace, workload.name(), rank, spec.seed)
                .expect("upper program");
            let sh = RankShared::new(
                &sim2,
                rank,
                spec.nranks,
                workload.name(),
                spec.seed,
                aspace.clone(),
            );
            sh.cell.register_rank(t.id());
            sh.cell.bind_job(job.clone());
            let lower: Arc<dyn Mpi> = Arc::from(job.init_rank(&t, rank, &aspace));
            let wrapper: Arc<dyn Mpi> =
                Arc::new(ManaMpi::fresh(sh.clone(), lower, spec.cfg.clone()));
            let hx = HelperCtx {
                sh: sh.clone(),
                ctrl,
                my_ep,
                parent_ep,
                cfg: spec.cfg.clone(),
                store,
                io_shape: io_shape(&spec.cluster, rank, spec.nranks, spec.placement),
            };
            sim2.spawn(&format!("helper{rank}"), true, move |ht| run_helper(ht, hx));
            let mut env = AppEnv::mana(t.clone(), wrapper, sh);
            rank_body_finish(&t, &mut env, &workload, &checksums, &killed, &window);
        });
    }
    job
}

/// Engine behind `ManaSession::run`: launch under MANA and run to
/// completion (or kill) on a fresh simulation.
pub(crate) fn mana_engine(
    store: &Arc<dyn CheckpointStore>,
    spec: &ManaJobSpec,
    workload: Arc<dyn Workload>,
) -> (RunOutcome, StatsHub) {
    let sim = Sim::new(SimConfig { seed: spec.seed });
    let hub = StatsHub::new();
    let checksums: Checksums = Arc::new(Mutex::new(BTreeMap::new()));
    let killed = Arc::new(Mutex::new(false));
    let window: AppWindow = Arc::new(Mutex::new((None, None)));
    // A fresh simulation is a fresh incarnation: clear any kill thunks a
    // previous life of this chain registered with the chaos seam.
    spec.cfg.chaos.begin_incarnation();
    launch_engine(
        &sim,
        store,
        spec,
        &hub,
        workload,
        checksums.clone(),
        killed.clone(),
        window.clone(),
    );
    sim.run();
    let checksums_out = checksums.lock().clone();
    let killed_out = *killed.lock();
    (
        RunOutcome {
            wall: sim.now().since(SimTime::ZERO),
            app_wall: app_wall_of(&window),
            checksums: checksums_out,
            killed: killed_out,
            sched: sim.sched_stats(),
        },
        hub,
    )
}
