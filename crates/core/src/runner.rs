//! The boot: every incarnation — a native baseline run, a fresh MANA
//! launch, a restart from checkpoint images — starts through one
//! crate-private `boot`. It builds the simulation, the MPI job and the
//! collectors once, spawns every rank with one body and collects one
//! [`RunOutcome`]. What differs is only how a rank comes up: a native
//! rank maps a fresh upper half over the bare library; a MANA rank gets
//! its helper, its wrapper and a control plane with a coordinator beside
//! it, and its upper half is either freshly mapped or restored by the
//! [`crate::restart`] pipeline from a pre-fetched image (§2.1: a restart
//! *is* a fresh launch of the bootstrap, into which the upper half is
//! restored). The session API ([`crate::session`]) is the lifecycle
//! surface over all three.

use crate::cell::JobKilled;
use crate::config::ManaConfig;
use crate::ctrl::CtrlMsg;
use crate::env::{AppEnv, Workload};
use crate::helper::{run_helper, HelperCtx};
use crate::restart::engine::{fetch_images, rank_restore, ReplayAbort};
use crate::restart::RestartError;
use crate::shared::RankShared;
use crate::split::UpperProgram;
use crate::stats::{CkptReport, RankRestartStats, RestartReport};
use crate::store::CheckpointStore;
use crate::topology::{build_control_plane, run_coordinator};
use crate::wrapper::ManaMpi;
use mana_mpi::{Mpi, MpiAborted, MpiJob, MpiProfile};
use mana_net::transport::Network;
use mana_sim::cluster::{ClusterSpec, InterconnectKind, Placement};
use mana_sim::fs::IoShape;
use mana_sim::memory::AddressSpace;
use mana_sim::sched::{SchedStats, Sim, SimConfig, SimThread, SimThreadId};
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

/// What a boot collects while its simulation runs: ranks push their
/// checksums, the kill flag, the application window, their restart stats
/// and the first bring-up error; the coordinator pushes its checkpoint
/// reports.
#[derive(Default)]
struct Collected {
    checksums: BTreeMap<u32, u64>,
    killed: bool,
    /// Earliest workload entry and latest workload exit (`app_wall`).
    window: (Option<SimTime>, Option<SimTime>),
    /// A thread asleep until the window opens (the coordinator of an
    /// interval schedule); the rank that opens it wakes the thread.
    app_waiter: Option<SimThreadId>,
    ckpts: Vec<CkptReport>,
    /// Each restored rank's restart stats and the time it resumed.
    restarts: Vec<(RankRestartStats, SimTime)>,
    error: Option<RestartError>,
}

/// The boot's one shared [`Collected`], cloned into every rank and the
/// coordinator.
type Collectors = Arc<Mutex<Collected>>;

/// One rank's bring-up, run on the rank's own thread: everything before
/// its workload starts. An error fails the whole boot.
type BringUp = Box<dyn FnOnce(&SimThread) -> Result<AppEnv, RestartError> + Send>;

/// Install (once) a panic hook that silences the expected control-flow
/// unwinds (`JobKilled` at kill-resume, `MpiAborted` from aborted blocking
/// calls, the boot's `ReplayAbort`); real panics still reach the previous
/// hook.
fn install_quiet_kill_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<JobKilled>().is_none()
                && info.payload().downcast_ref::<MpiAborted>().is_none()
                && info.payload().downcast_ref::<ReplayAbort>().is_none()
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

fn rank_body_finish(t: &SimThread, env: &mut AppEnv, workload: &Arc<dyn Workload>, c: &Collectors) {
    let rank = env.rank();
    let waiter = {
        let mut got = c.lock();
        let now = t.now();
        got.window.0 = Some(got.window.0.map_or(now, |s| s.min(now)));
        got.app_waiter.take()
    };
    if let Some(id) = waiter {
        t.sim().wake(id);
    }
    let result = catch_unwind(AssertUnwindSafe(|| workload.run(env)));
    {
        let w = &mut c.lock().window;
        let now = t.now();
        w.1 = Some(w.1.map_or(now, |e| e.max(now)));
    }
    match result {
        Ok(()) => {
            let sum = env.state_checksum();
            c.lock().checksums.insert(rank, sum);
            env.mpi().finalize(t);
        }
        Err(payload) => {
            if payload.downcast_ref::<JobKilled>().is_some()
                || payload.downcast_ref::<MpiAborted>().is_some()
            {
                c.lock().killed = true;
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

/// A fresh address space holding `rank`'s freshly mapped upper half.
fn map_upper(profile: &MpiProfile, app_name: &str, rank: u32, seed: u64) -> Arc<AddressSpace> {
    let aspace = Arc::new(AddressSpace::new());
    UpperProgram::typical(profile)
        .map_fresh(&aspace, app_name, rank, seed)
        .expect("upper program");
    aspace
}

/// Boot one incarnation of `spec` and run it to completion (or kill).
/// `wire` sets up whatever runs beside the ranks and returns each rank's
/// bring-up, in rank order. A rank whose bring-up fails records the first
/// error and aborts the simulation; the boot returns that error. Returns
/// the outcome and the rest of what the boot collected: the
/// coordinator's checkpoint reports and the restored ranks' stats.
fn boot(
    spec: &ManaJobSpec,
    workload: &Arc<dyn Workload>,
    wire: impl FnOnce(&Sim, &Arc<MpiJob>, &Collectors) -> Vec<BringUp>,
) -> Result<(RunOutcome, Collected), RestartError> {
    install_quiet_kill_hook();
    let sim = Sim::new(SimConfig { seed: spec.seed });
    let job = MpiJob::new(
        &sim,
        spec.cluster.clone(),
        spec.nranks,
        spec.placement,
        spec.profile.clone(),
    );
    let c = Collectors::default();
    for (rank, bring_up) in wire(&sim, &job, &c).into_iter().enumerate() {
        let (workload, c) = (workload.clone(), c.clone());
        sim.spawn(&format!("rank{rank}"), false, move |t| {
            let mut env = match bring_up(&t) {
                Ok(env) => env,
                Err(e) => {
                    c.lock().error.get_or_insert(e);
                    // Unwind this rank; the scheduler tears the simulation
                    // down, the quiet hook keeps it silent, and the boot
                    // returns the recorded error.
                    std::panic::panic_any(ReplayAbort);
                }
            };
            rank_body_finish(&t, &mut env, &workload, &c);
        });
    }
    let ran = catch_unwind(AssertUnwindSafe(|| sim.run()));
    let mut got = std::mem::take(&mut *c.lock());
    if let Some(e) = got.error.take() {
        return Err(e);
    }
    if let Err(payload) = ran {
        resume_unwind(payload);
    }
    let outcome = RunOutcome {
        wall: sim.now().since(SimTime::ZERO),
        app_wall: match got.window {
            (Some(s), Some(e)) => e.since(s),
            _ => SimDuration::ZERO,
        },
        checksums: std::mem::take(&mut got.checksums),
        killed: got.killed,
        sched: sim.sched_stats(),
    };
    Ok((outcome, got))
}

/// Run `workload` natively (no MANA) — the baseline for every
/// runtime-overhead figure.
pub(crate) fn boot_native(spec: &ManaJobSpec, workload: Arc<dyn Workload>) -> RunOutcome {
    let (seed, nranks) = (spec.seed, spec.nranks);
    let booted = boot(spec, &workload, |_, job, _| {
        (0..nranks)
            .map(|rank| {
                let (job, profile, name) = (job.clone(), spec.profile.clone(), workload.name());
                Box::new(move |t: &SimThread| {
                    let aspace = map_upper(&profile, name, rank, seed);
                    let lower: Arc<dyn Mpi> = Arc::from(job.init_rank(t, rank, &aspace));
                    Ok(AppEnv::native(t.clone(), lower, aspace, rank, nranks, seed))
                }) as BringUp
            })
            .collect()
    });
    booted.expect("native bring-ups cannot fail").0
}

/// Run `workload` under MANA writing images through `store`: a fresh
/// launch, or — with `restart_from` — a restart from that checkpoint's
/// images, which are fetched and validated before the simulation boots.
/// Returns the outcome, the checkpoint reports and the restart report.
pub(crate) fn boot_mana(
    store: &Arc<dyn CheckpointStore>,
    spec: &ManaJobSpec,
    workload: Arc<dyn Workload>,
    restart_from: Option<u64>,
) -> Result<(RunOutcome, Vec<CkptReport>, Option<RestartReport>), RestartError> {
    let images: Vec<_> = match restart_from {
        None => (0..spec.nranks).map(|_| None).collect(),
        Some(ckpt_id) => {
            // Restart faults are keyed by chain-wide restart attempt:
            // open one before any rank's image is fetched.
            spec.cfg.chaos.begin_restart();
            let fetched = fetch_images(store, ckpt_id, spec)?;
            fetched.into_iter().map(Some).collect()
        }
    };
    // A boot is a fresh incarnation of the chain: clear the chaos seam's
    // per-incarnation state (kill thunks, crash gate).
    spec.cfg.chaos.begin_incarnation();
    let (outcome, mut got) = boot(spec, &workload, |sim, job, c| {
        // Control plane (DMTCP-style TCP, independent of the MPI fabric),
        // shaped by `spec.cfg.topology` — flat star or per-node tree.
        let ctrl = Network::<CtrlMsg>::new(sim, InterconnectKind::Tcp);
        let cp = build_control_plane(
            sim,
            &ctrl,
            &spec.cluster,
            spec.nranks,
            spec.placement,
            &spec.cfg,
        );
        let (cfg, coord_store, root) = (spec.cfg.clone(), store.clone(), cp.root);
        let collect = c.clone();
        sim.spawn("coordinator", true, move |t| {
            let app_start = |me| {
                let mut got = collect.lock();
                if got.window.0.is_none() {
                    got.app_waiter = Some(me);
                }
                got.window.0
            };
            let report = |round| collect.lock().ckpts.push(round);
            run_coordinator(t, root, &cfg, coord_store.as_ref(), app_start, report)
        });
        images
            .into_iter()
            .zip(0..)
            .map(|(image, rank)| {
                let (sim, job, spec, c) = (sim.clone(), job.clone(), spec.clone(), c.clone());
                let (ctrl, store, name) = (ctrl.clone(), store.clone(), workload.name());
                let my_ep = cp.helper_eps[rank as usize];
                let parent_ep = cp.parent_eps[rank as usize];
                Box::new(move |t: &SimThread| {
                    let (sh, wrapper) = match image {
                        None => {
                            let aspace = map_upper(&spec.profile, name, rank, spec.seed);
                            aspace.set_lineage(aspace_lineage(spec.seed, rank, 0));
                            let sh = RankShared::new(&job, rank, name, spec.seed, aspace);
                            sh.cell.register_rank(t.id());
                            let lower = Arc::from(job.init_rank(t, rank, &sh.aspace));
                            let wrapper = ManaMpi::fresh(sh.clone(), lower, spec.cfg.clone());
                            (sh, wrapper)
                        }
                        Some(image) => {
                            let (sh, lower, stats) = rank_restore(t, &job, &spec, rank, image)?;
                            c.lock().restarts.push((stats, t.now()));
                            let wrapper = ManaMpi::resumed(sh.clone(), lower, spec.cfg.clone());
                            (sh, wrapper)
                        }
                    };
                    let hx = HelperCtx {
                        sh: sh.clone(),
                        lower: wrapper.lower().clone(),
                        ctrl,
                        my_ep,
                        parent_ep,
                        cfg: spec.cfg.clone(),
                        store,
                        io_shape: io_shape(&spec.cluster, rank, spec.nranks, spec.placement),
                    };
                    sim.spawn(&format!("helper{rank}"), true, move |ht| run_helper(ht, hx));
                    Ok(AppEnv::mana(t.clone(), Arc::new(wrapper), sh))
                }) as BringUp
            })
            .collect()
    })?;
    let restart_report = restart_from.map(|_| {
        let resumed = got.restarts.iter().map(|(_, at)| *at).max();
        got.restarts.sort_by_key(|(s, _)| s.rank);
        RestartReport {
            ranks: got.restarts.into_iter().map(|(s, _)| s).collect(),
            total: resumed.unwrap_or(SimTime::ZERO).since(SimTime::ZERO),
        }
    });
    Ok((outcome, got.ckpts, restart_report))
}
