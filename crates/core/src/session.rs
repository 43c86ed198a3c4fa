//! Session-centric job lifecycle: one [`ManaSession`] owns checkpoint
//! storage and statistics across a whole *chain* of job incarnations.
//!
//! The paper's headline property — a checkpoint outlives clusters, MPI
//! implementations and interconnects — makes the interesting unit of work
//! not a single run but a chain: run on cluster A, checkpoint, restart on
//! cluster B, checkpoint again, restart on cluster C. The session API
//! models exactly that. A [`JobBuilder`] describes one incarnation
//! (cluster / ranks / placement / MPI profile / checkpoint schedule, all
//! with sensible defaults); [`ManaSession::run`] executes it and hands
//! back an [`Incarnation`], whose [`Incarnation::restart_on`] boots the
//! next incarnation from the latest checkpoint — inheriting everything
//! the new builder leaves unspecified.
//!
//! # Example: checkpoint on one cluster, restart on another
//!
//! ```
//! use mana_core::{AppEnv, InMemStore, JobBuilder, ManaSession, Workload};
//! use mana_mpi::{MpiProfile, ReduceOp};
//! use mana_sim::cluster::ClusterSpec;
//! use mana_sim::time::{SimDuration, SimTime};
//! use std::sync::Arc;
//!
//! // An unmodified MPI application: no checkpoint logic anywhere.
//! struct Stencil;
//! impl Workload for Stencil {
//!     fn name(&self) -> &'static str {
//!         "stencil"
//!     }
//!     fn run(&self, env: &mut AppEnv) {
//!         let world = env.world();
//!         let scal = env.alloc_f64("scal", 2);
//!         loop {
//!             if env.peek(scal, |s| s[0]) as u64 >= 6 {
//!                 break;
//!             }
//!             env.begin_step();
//!             env.work(SimDuration::micros(300), |m| {
//!                 m.with_mut(scal, |s| s[1] += 0.5)
//!             });
//!             env.allreduce_arr(world, scal, ReduceOp::Sum);
//!             let n = f64::from(env.nranks());
//!             env.work(SimDuration::micros(1), |m| {
//!                 m.with_mut(scal, |s| {
//!                     s[0] = (s[0] / n).round() + 1.0;
//!                     s[1] /= n;
//!                 })
//!             });
//!         }
//!     }
//! }
//!
//! let session = ManaSession::builder().store(InMemStore::new()).build();
//! let app: Arc<dyn Workload> = Arc::new(Stencil);
//!
//! // Uninterrupted reference run on a Cori-like cluster.
//! let job = || {
//!     JobBuilder::new()
//!         .cluster(ClusterSpec::cori(2))
//!         .ranks(4)
//!         .profile(MpiProfile::cray_mpich())
//!         .seed(7)
//! };
//! let clean = session.run(job(), app.clone()).unwrap();
//!
//! // Same job, checkpointed at the halfway mark and killed...
//! let mid = SimTime(clean.outcome().wall.as_nanos() - clean.outcome().app_wall.as_nanos() / 2);
//! let killed = session
//!     .run(job().checkpoint_at(mid).then_kill(), app.clone())
//!     .unwrap();
//! assert!(killed.outcome().killed);
//!
//! // ...then restarted on a different cluster under a different MPI —
//! // everything not overridden is inherited from the killed incarnation.
//! let resumed = killed
//!     .restart_on(
//!         JobBuilder::new()
//!             .cluster(ClusterSpec::local_cluster(2))
//!             .profile(MpiProfile::open_mpi()),
//!     )
//!     .unwrap();
//! assert_eq!(clean.checksums(), resumed.checksums());
//! ```

use crate::chaos::ChaosHandle;
use crate::config::{AfterCkpt, CkptSchedule, ManaConfig, TopologyKind};
use crate::env::Workload;
use crate::error::SessionError;
use crate::restart::RestartError;
use crate::runner::{boot_mana, boot_native, ManaJobSpec, RunOutcome};
use crate::stats::{CkptReport, RestartReport};
use crate::store::{CheckpointStore, FsStore, GcPolicy};
use mana_mpi::MpiProfile;
use mana_sim::cluster::{ClusterSpec, Placement};
use mana_sim::fs::FsConfig;
use mana_sim::kernel::KernelModel;
use mana_sim::time::{SimDuration, SimTime};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Checkpoint lifecycle event delivered to `on_checkpoint` hooks.
pub struct CkptEvent<'a> {
    /// Index of the incarnation (0-based, in session order) that took the
    /// checkpoint.
    pub incarnation: u64,
    /// The completed checkpoint's measurements.
    pub report: &'a CkptReport,
}

/// Restart lifecycle event delivered to `on_restart` hooks.
pub struct RestartEvent<'a> {
    /// Index of the incarnation that booted from a checkpoint.
    pub incarnation: u64,
    /// The restart's measurements.
    pub report: &'a RestartReport,
}

type CkptHook = Box<dyn Fn(&CkptEvent<'_>) + Send + Sync>;
type RestartHook = Box<dyn Fn(&RestartEvent<'_>) + Send + Sync>;

struct SessionInner {
    store: Arc<dyn CheckpointStore>,
    gc: GcPolicy,
    on_checkpoint: Vec<CkptHook>,
    on_restart: Vec<RestartHook>,
    chain: Mutex<Chain>,
}

/// What the session accumulates across its chain of incarnations.
#[derive(Default)]
struct Chain {
    /// Every checkpoint report, in completion order.
    ckpts: Vec<CkptReport>,
    /// Every restart report, in completion order.
    restarts: Vec<RestartReport>,
    /// Image paths of every checkpoint the session completed, in
    /// completion order — the unit the GC policy operates on.
    registry: Vec<CkptImages>,
    next_incarnation: u64,
    next_ckpt_id: u64,
}

/// Owner of checkpoint storage, lifecycle hooks and statistics across a
/// chain of job incarnations. See the [module docs](self) for an example.
///
/// Cloning is cheap and shares the session (all clones see the same store
/// and stats).
#[derive(Clone)]
pub struct ManaSession {
    inner: Arc<SessionInner>,
}

/// Configures and builds a [`ManaSession`].
#[derive(Default)]
pub struct SessionBuilder {
    store: Option<Arc<dyn CheckpointStore>>,
    gc: GcPolicy,
    on_checkpoint: Vec<CkptHook>,
    on_restart: Vec<RestartHook>,
}

impl SessionBuilder {
    /// Use `store` for checkpoint images (default: a fresh [`FsStore`]
    /// with Cori-like Lustre parameters).
    pub fn store<S: CheckpointStore + 'static>(mut self, store: S) -> SessionBuilder {
        self.store = Some(Arc::new(store));
        self
    }

    /// Use an already-shared store (e.g. one filesystem shared by several
    /// sessions, as a real Lustre deployment is).
    pub fn shared_store(mut self, store: Arc<dyn CheckpointStore>) -> SessionBuilder {
        self.store = Some(store);
        self
    }

    /// Garbage-collection policy for old checkpoint images (default:
    /// [`GcPolicy::KeepAll`]). With `GcPolicy::KeepLast(n)`, the session
    /// deletes the oldest checkpoint's images from the store — via
    /// [`CheckpointStore::remove`] — as soon as more than `n` checkpoints
    /// exist across the whole chain.
    pub fn gc(mut self, policy: GcPolicy) -> SessionBuilder {
        self.gc = policy;
        self
    }

    /// Register a hook fired after every completed checkpoint.
    pub fn on_checkpoint<F>(mut self, f: F) -> SessionBuilder
    where
        F: Fn(&CkptEvent<'_>) + Send + Sync + 'static,
    {
        self.on_checkpoint.push(Box::new(f));
        self
    }

    /// Register a hook fired after every restart-from-checkpoint.
    pub fn on_restart<F>(mut self, f: F) -> SessionBuilder
    where
        F: Fn(&RestartEvent<'_>) + Send + Sync + 'static,
    {
        self.on_restart.push(Box::new(f));
        self
    }

    /// Build the session.
    pub fn build(self) -> ManaSession {
        ManaSession {
            inner: Arc::new(SessionInner {
                store: self
                    .store
                    .unwrap_or_else(|| Arc::new(FsStore::with_config(FsConfig::default()))),
                gc: self.gc,
                on_checkpoint: self.on_checkpoint,
                on_restart: self.on_restart,
                chain: Mutex::new(Chain {
                    next_ckpt_id: 1,
                    ..Chain::default()
                }),
            }),
        }
    }
}

impl Default for ManaSession {
    fn default() -> ManaSession {
        ManaSession::new()
    }
}

impl ManaSession {
    /// Session with default storage (a fresh Lustre-like [`FsStore`]).
    pub fn new() -> ManaSession {
        SessionBuilder::default().build()
    }

    /// Start configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The session's checkpoint store.
    pub fn store(&self) -> &Arc<dyn CheckpointStore> {
        &self.inner.store
    }

    /// All checkpoint reports across the whole chain, in completion order.
    pub fn checkpoints(&self) -> Vec<CkptReport> {
        self.inner.chain.lock().ckpts.clone()
    }

    /// All restart reports across the whole chain, in completion order.
    pub fn restarts(&self) -> Vec<RestartReport> {
        self.inner.chain.lock().restarts.clone()
    }

    /// Ids of the checkpoints whose images are all still in the store —
    /// i.e. the ones a restart can come from. Under
    /// [`GcPolicy::KeepLast`] this is the rolling window of the newest
    /// checkpoints; under [`GcPolicy::KeepAll`] it is every checkpoint
    /// (unless something else removed the images behind the session's
    /// back).
    pub fn surviving_checkpoints(&self) -> Vec<u64> {
        self.registered_checkpoints()
            .into_iter()
            .filter(|c| c.paths.iter().all(|p| self.inner.store.exists(p)))
            .map(|c| c.ckpt_id)
            .collect()
    }

    /// Snapshot of every registered checkpoint's image set, in completion
    /// order — the recovery loop's candidate list (the supervisor walks
    /// it newest-first and records why each entry is skipped).
    pub(crate) fn registered_checkpoints(&self) -> Vec<CkptImages> {
        self.inner.chain.lock().registry.clone()
    }

    /// Record a completed checkpoint's report and image set, and enforce
    /// the GC policy: with `KeepLast(n)`, delete the oldest checkpoints'
    /// images until at most `n` remain registered. The store is called
    /// with the session's lock released.
    fn register_and_gc(&self, report: &CkptReport, images: CkptImages) {
        let expired: Vec<CkptImages> = {
            let mut chain = self.inner.chain.lock();
            chain.ckpts.push(report.clone());
            chain.registry.push(images);
            let keep = match self.inner.gc {
                GcPolicy::KeepLast(n) => n,
                GcPolicy::KeepAll => usize::MAX,
            };
            let over = chain.registry.len().saturating_sub(keep);
            chain.registry.drain(..over).collect()
        };
        for path in expired.iter().flat_map(|c| &c.paths) {
            self.inner.store.remove(path);
        }
    }

    /// Run `workload` under MANA as described by `job`.
    pub fn run(
        &self,
        job: JobBuilder,
        workload: Arc<dyn Workload>,
    ) -> Result<Incarnation, SessionError> {
        let spec = job.build_spec(None)?;
        self.run_spec(spec, workload, None)
    }

    /// Run `workload` natively (no MANA, no checkpointing) — the baseline
    /// every runtime-overhead figure compares against. Checkpoint-schedule
    /// settings on `job` are rejected, since nothing would execute them.
    pub fn run_native(
        &self,
        job: JobBuilder,
        workload: Arc<dyn Workload>,
    ) -> Result<RunOutcome, SessionError> {
        let spec = job.build_spec(None)?;
        if !spec.cfg.ckpt_schedule.is_empty() {
            return Err(SessionError::InvalidSpec(
                "native runs cannot take checkpoints; drop the checkpoint schedule".into(),
            ));
        }
        Ok(boot_native(&spec, workload))
    }

    /// Restart `workload` from checkpoint `ckpt_id` in this session's
    /// store, as described by `job` (which must fully specify the job —
    /// prefer [`Incarnation::restart_on`], which inherits from the source
    /// incarnation).
    pub fn restart(
        &self,
        ckpt_id: u64,
        job: JobBuilder,
        workload: Arc<dyn Workload>,
    ) -> Result<Incarnation, SessionError> {
        let spec = job.build_spec(None)?;
        self.run_spec(spec, workload, Some(ckpt_id))
    }

    /// Distinguish "this checkpoint's images were garbage-collected" from
    /// other restart failures: a missing image whose checkpoint is no
    /// longer fully present surfaces as [`SessionError::CheckpointGone`]
    /// with the list of checkpoints a restart could still come from.
    fn classify_restart_error(&self, e: RestartError) -> SessionError {
        if let RestartError::MissingImage { ckpt_id, .. } = &e {
            let surviving = self.surviving_checkpoints();
            if !surviving.contains(ckpt_id) && !self.inner.chain.lock().registry.is_empty() {
                return SessionError::CheckpointGone {
                    ckpt_id: *ckpt_id,
                    surviving,
                    source: Box::new(e),
                };
            }
        }
        SessionError::Restart(e)
    }

    /// Shared entry: boot `spec` (fresh or restarted), collect stats, fire
    /// hooks, wrap the result in an [`Incarnation`].
    pub(crate) fn run_spec(
        &self,
        mut spec: ManaJobSpec,
        workload: Arc<dyn Workload>,
        restart_from: Option<u64>,
    ) -> Result<Incarnation, SessionError> {
        let reserved = spec.cfg.ckpt_schedule.len();
        let index = {
            let mut chain = self.inner.chain.lock();
            // Assign chain-unique checkpoint ids: incarnations share the
            // session store (and often a checkpoint directory), so a later
            // incarnation's images must never land on an earlier one's
            // paths.
            if reserved > 0 {
                spec.cfg.first_ckpt_id = chain.next_ckpt_id;
                chain.next_ckpt_id += reserved;
            }
            chain.next_incarnation += 1;
            chain.next_incarnation - 1
        };
        let (outcome, ckpts, restart_report) =
            boot_mana(&self.inner.store, &spec, workload.clone(), restart_from).map_err(|e| {
                // A boot fails only while its ranks come up, before any
                // checkpoint can complete: give its ids back (unless a
                // later incarnation reserved past them meanwhile).
                let mut chain = self.inner.chain.lock();
                if reserved > 0 && chain.next_ckpt_id == spec.cfg.first_ckpt_id + reserved {
                    chain.next_ckpt_id = spec.cfg.first_ckpt_id;
                }
                drop(chain);
                self.classify_restart_error(e)
            })?;
        if let Some(report) = &restart_report {
            let event = RestartEvent {
                incarnation: index,
                report,
            };
            for hook in &self.inner.on_restart {
                hook(&event);
            }
            self.inner.chain.lock().restarts.push(report.clone());
        }
        for report in &ckpts {
            let event = CkptEvent {
                incarnation: index,
                report,
            };
            for hook in &self.inner.on_checkpoint {
                hook(&event);
            }
            self.register_and_gc(report, ckpt_images(&spec, report.ckpt_id));
        }
        Ok(Incarnation {
            session: self.clone(),
            index,
            spec,
            workload,
            outcome,
            ckpts,
            restart_report,
        })
    }
}

/// Fluent description of one job incarnation.
///
/// Every field is optional: [`ManaSession::run`] fills unset fields with
/// defaults (2-node local cluster, 4 ranks, block placement, Open MPI,
/// the cluster's kernel model, no checkpoints, seed 0), while
/// [`Incarnation::restart_on`] fills them from the incarnation being
/// restarted — so a cross-cluster migration names only what *changes*.
#[derive(Clone, Default)]
pub struct JobBuilder {
    cluster: Option<ClusterSpec>,
    nranks: Option<u32>,
    placement: Option<Placement>,
    profile: Option<MpiProfile>,
    seed: Option<u64>,
    config: Option<ManaConfig>,
    kernel: Option<KernelModel>,
    ckpt_dir: Option<String>,
    ckpt_times: Vec<SimTime>,
    ckpt_every: Option<(SimDuration, u64)>,
    after_last_ckpt: Option<AfterCkpt>,
    topology: Option<TopologyKind>,
    compact_log: Option<bool>,
    chaos: Option<ChaosHandle>,
}

impl JobBuilder {
    /// Empty description (all defaults / all inherited).
    pub fn new() -> JobBuilder {
        JobBuilder::default()
    }

    /// Target cluster.
    pub fn cluster(mut self, cluster: ClusterSpec) -> JobBuilder {
        self.cluster = Some(cluster);
        self
    }

    /// World size. Pinned across restarts by the image format; a restart
    /// presenting a different world size fails with a typed error.
    pub fn ranks(mut self, nranks: u32) -> JobBuilder {
        self.nranks = Some(nranks);
        self
    }

    /// Rank-to-node placement.
    pub fn placement(mut self, placement: Placement) -> JobBuilder {
        self.placement = Some(placement);
        self
    }

    /// MPI implementation for this incarnation.
    pub fn profile(mut self, profile: MpiProfile) -> JobBuilder {
        self.profile = Some(profile);
        self
    }

    /// Root seed (workload determinism).
    pub fn seed(mut self, seed: u64) -> JobBuilder {
        self.seed = Some(seed);
        self
    }

    /// Full [`ManaConfig`] override. Schedule/kernel/dir settings made via
    /// the other builder methods are applied on top of it.
    pub fn config(mut self, cfg: ManaConfig) -> JobBuilder {
        self.config = Some(cfg);
        self
    }

    /// Kernel model of the nodes (defaults to the cluster's).
    pub fn kernel(mut self, kernel: KernelModel) -> JobBuilder {
        self.kernel = Some(kernel);
        self
    }

    /// Directory prefix for checkpoint images in the session store.
    pub fn ckpt_dir(mut self, dir: impl Into<String>) -> JobBuilder {
        self.ckpt_dir = Some(dir.into());
        self
    }

    /// Coordinator control-plane topology: the flat DMTCP-style star
    /// (default) or per-node tree fan-out with in-tree aggregation —
    /// [`TopologyKind::Tree`] flattens the coordinator's communication-
    /// overhead curve at large node counts (§3.4, Figure 8). Inherited
    /// across restarts like the rest of the configuration.
    pub fn topology(mut self, topology: TopologyKind) -> JobBuilder {
        self.topology = Some(topology);
        self
    }

    /// Whether checkpoint images carry a compacted record log (freed
    /// opaque objects and dead derivation subtrees elided — see
    /// [`crate::restart::compact`]). Defaults to on; switching it off
    /// preserves the full log in every image, which
    /// `tests/restart_compaction.rs` uses to measure full-log replay. Inherited
    /// across restarts like the rest of the configuration.
    pub fn compact_log(mut self, on: bool) -> JobBuilder {
        self.compact_log = Some(on);
        self
    }

    /// Arm deterministic fault injection: `handle`'s injector is polled at
    /// every protocol-phase-aware point of every checkpoint attempt (see
    /// [`crate::chaos`]). Inherited across restarts like the rest of the
    /// configuration, so one handle spans the whole job chain.
    pub fn chaos(mut self, handle: ChaosHandle) -> JobBuilder {
        self.chaos = Some(handle);
        self
    }

    /// Schedule a checkpoint at virtual time `at` (repeatable).
    pub fn checkpoint_at(mut self, at: SimTime) -> JobBuilder {
        self.ckpt_times.push(at);
        self
    }

    /// Schedule checkpoints at each of `times`.
    pub fn checkpoint_times(mut self, times: impl IntoIterator<Item = SimTime>) -> JobBuilder {
        self.ckpt_times.extend(times);
        self
    }

    /// Take `count` checkpoints at an interval: the coordinator sleeps
    /// until the application starts, begins the first checkpoint
    /// `interval` of simulated time later, and each later one `interval`
    /// after the previous one ended — so no checkpoint's cost or restart's
    /// boot time has to be known in advance. Because each interval starts
    /// after the previous checkpoint ends, a job can finish before all
    /// `count` are taken; [`Incarnation::unused_checkpoint_ids`] names the
    /// rest. Cannot be combined with [`JobBuilder::checkpoint_at`]; a
    /// restart does not inherit it.
    pub fn checkpoint_every(mut self, interval: SimDuration, count: u64) -> JobBuilder {
        self.ckpt_every = Some((interval, count));
        self
    }

    /// Kill the job after the last scheduled checkpoint (migration flows:
    /// the allocation expired, the job moves elsewhere).
    pub fn then_kill(mut self) -> JobBuilder {
        self.after_last_ckpt = Some(AfterCkpt::Kill);
        self
    }

    /// Validate this description as [`ManaSession::run`] would, without
    /// running anything: the same typed error a launch returns (a world
    /// that does not fit its cluster, `then_kill()` with no schedule, ...).
    pub fn check(&self) -> Result<(), SessionError> {
        self.build_spec(None).map(|_| ())
    }

    /// Resolve into a concrete spec, inheriting unset fields from
    /// `inherit` (an earlier incarnation) or defaults.
    pub(crate) fn build_spec(
        &self,
        inherit: Option<&ManaJobSpec>,
    ) -> Result<ManaJobSpec, SessionError> {
        let cluster = self
            .cluster
            .clone()
            .or_else(|| inherit.map(|s| s.cluster.clone()))
            .unwrap_or_else(|| ClusterSpec::local_cluster(2));
        let nranks = self.nranks.or(inherit.map(|s| s.nranks)).unwrap_or(4);
        if nranks == 0 {
            return Err(SessionError::InvalidSpec(
                "world size must be at least 1".into(),
            ));
        }
        if nranks > cluster.total_cores() {
            return Err(SessionError::InvalidSpec(format!(
                "{nranks} ranks do not fit on cluster '{}': {} node(s) x {} cores = {} cores",
                cluster.name,
                cluster.nodes,
                cluster.cores_per_node,
                cluster.total_cores()
            )));
        }
        let placement = self
            .placement
            .or(inherit.map(|s| s.placement))
            .unwrap_or(Placement::Block);
        let profile = self
            .profile
            .clone()
            .or_else(|| inherit.map(|s| s.profile.clone()))
            .unwrap_or_else(MpiProfile::open_mpi);
        let seed = self.seed.or(inherit.map(|s| s.seed)).unwrap_or(0);

        // Configuration: explicit override > inherited-and-cleared >
        // fresh default. An inherited schedule is deliberately dropped —
        // a restart re-checkpoints only if its builder asks to, and an
        // inherited kernel model is re-derived from a newly named cluster
        // (the kernel belongs to the machine, not the job).
        let mut cfg = match (&self.config, inherit) {
            (Some(cfg), _) => cfg.clone(),
            (None, Some(src)) => {
                let mut cfg = ManaConfig {
                    ckpt_schedule: CkptSchedule::default(),
                    after_last_ckpt: AfterCkpt::Continue,
                    ..src.cfg.clone()
                };
                if self.cluster.is_some() {
                    cfg.kernel = cluster.kernel.clone();
                }
                cfg
            }
            (None, None) => ManaConfig::no_checkpoints(cluster.kernel.clone()),
        };
        if let Some(kernel) = &self.kernel {
            cfg.kernel = kernel.clone();
        }
        if let Some(dir) = &self.ckpt_dir {
            cfg.ckpt_dir = dir.clone();
        }
        match (self.ckpt_times.is_empty(), self.ckpt_every) {
            (true, None) => {}
            (false, None) => cfg.ckpt_schedule = CkptSchedule::At(self.ckpt_times.clone()),
            (true, Some((interval, count))) => {
                cfg.ckpt_schedule = CkptSchedule::Every { interval, count }
            }
            (false, Some(_)) => {
                return Err(SessionError::InvalidSpec(
                    "checkpoint_every() and checkpoint_at() cannot share one schedule".into(),
                ))
            }
        }
        if let Some(after) = self.after_last_ckpt {
            cfg.after_last_ckpt = after;
        }
        if let Some(topology) = self.topology {
            cfg.topology = topology;
        }
        if let Some(compact) = self.compact_log {
            cfg.compact_log = compact;
        }
        if let Some(chaos) = &self.chaos {
            cfg.chaos = chaos.clone();
        }
        if cfg.ckpt_schedule.is_empty() && cfg.after_last_ckpt == AfterCkpt::Kill {
            return Err(SessionError::InvalidSpec(
                "then_kill() without a checkpoint schedule would never terminate the job".into(),
            ));
        }
        Ok(ManaJobSpec {
            cluster,
            nranks,
            placement,
            profile,
            cfg,
            seed,
        })
    }
}

/// The image paths of checkpoint `ckpt_id` under `spec`.
fn ckpt_images(spec: &ManaJobSpec, ckpt_id: u64) -> CkptImages {
    CkptImages {
        ckpt_id,
        paths: (0..spec.nranks)
            .map(|rank| spec.cfg.image_path(ckpt_id, rank))
            .collect(),
    }
}

/// Image paths of one completed checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CkptImages {
    /// Checkpoint id.
    pub ckpt_id: u64,
    /// Per-rank image paths in the session store, indexed by rank.
    pub paths: Vec<String>,
}

/// One completed run in a session's chain: its spec, outcome, statistics,
/// and the handle for restarting it elsewhere.
pub struct Incarnation {
    session: ManaSession,
    index: u64,
    spec: ManaJobSpec,
    workload: Arc<dyn Workload>,
    outcome: RunOutcome,
    ckpts: Vec<CkptReport>,
    restart_report: Option<RestartReport>,
}

impl Incarnation {
    /// Index of this incarnation in the session (0-based, run order).
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The session this incarnation belongs to.
    pub(crate) fn session(&self) -> &ManaSession {
        &self.session
    }

    /// The workload object this incarnation ran.
    pub(crate) fn workload(&self) -> Arc<dyn Workload> {
        self.workload.clone()
    }

    /// The resolved spec this incarnation ran under.
    pub fn spec(&self) -> &ManaJobSpec {
        &self.spec
    }

    /// The run's outcome (wall times, checksums, killed flag).
    pub fn outcome(&self) -> &RunOutcome {
        &self.outcome
    }

    /// Per-rank upper-half state checksums at completion.
    pub fn checksums(&self) -> &BTreeMap<u32, u64> {
        &self.outcome.checksums
    }

    /// Whether the job was killed after its last checkpoint.
    pub fn killed(&self) -> bool {
        self.outcome.killed
    }

    /// Checkpoints completed during this incarnation.
    pub fn ckpts(&self) -> Vec<CkptReport> {
        self.ckpts.clone()
    }

    /// Checkpoint ids this incarnation's schedule reserved that no
    /// completed checkpoint used, because the job finished first. Empty
    /// when the whole schedule ran.
    pub fn unused_checkpoint_ids(&self) -> std::ops::Range<u64> {
        let cfg = &self.spec.cfg;
        cfg.first_ckpt_id + self.ckpts.len() as u64..cfg.first_ckpt_id + cfg.ckpt_schedule.len()
    }

    /// Restart measurements, if this incarnation booted from a checkpoint.
    pub fn restart_report(&self) -> Option<&RestartReport> {
        self.restart_report.as_ref()
    }

    /// Image paths of every checkpoint this incarnation completed.
    pub fn checkpoint_images(&self) -> Vec<CkptImages> {
        self.ckpts
            .iter()
            .map(|r| ckpt_images(&self.spec, r.ckpt_id))
            .collect()
    }

    /// Id of the most recent checkpoint this incarnation completed.
    pub fn latest_checkpoint(&self) -> Option<u64> {
        self.ckpts.iter().map(|r| r.ckpt_id).max()
    }

    /// Id of the most recent checkpoint this incarnation completed whose
    /// images are all still in the session store. Under a
    /// [`GcPolicy::KeepLast`] session this is the newest survivor of the
    /// rolling window; it can differ from [`Incarnation::latest_checkpoint`]
    /// only if something removed images behind the session's back (GC
    /// always keeps the newest).
    pub fn latest_surviving_checkpoint(&self) -> Option<u64> {
        let store = self.session.store();
        let mut ids: Vec<u64> = self.ckpts.iter().map(|r| r.ckpt_id).collect();
        ids.sort_unstable();
        ids.into_iter().rev().find(|id| {
            (0..self.spec.nranks).all(|rank| store.exists(&self.spec.cfg.image_path(*id, rank)))
        })
    }

    /// Rolling-restart helper: boot the next incarnation from the newest
    /// checkpoint that still has all its images — the right entry point
    /// after a run that took several rolling checkpoints under a
    /// [`GcPolicy::KeepLast`] session.
    ///
    /// Damage-tolerant: candidates come from the whole session chain
    /// (newest first), and a candidate whose restart fails with
    /// image-level damage — a missing, torn, corrupt, malformed or
    /// replay-divergent image — is skipped in favour of the next-older
    /// survivor, so one bad checkpoint never strands a restartable job.
    /// Every skip is recorded with a typed reason: when no survivor
    /// restarts, the failure is
    /// [`SessionError::NoUsableCheckpoint`] naming *each* checkpoint
    /// considered and why it was passed over — a fully-corrupt store no
    /// longer reports only the last error. Job-level errors (world-size
    /// mismatch, invalid spec) abort immediately since an older
    /// checkpoint cannot fix them.
    ///
    /// This is a one-shot [`crate::supervisor::RestartSupervisor`] walk
    /// under [`crate::supervisor::RetryPolicy::no_retry`]; build a
    /// supervisor directly to add bounded retries with backoff for
    /// transient faults.
    pub fn restart_latest(&self, job: JobBuilder) -> Result<Incarnation, SessionError> {
        let mut sup =
            crate::supervisor::RestartSupervisor::new(crate::supervisor::RetryPolicy::no_retry());
        sup.recover(self, job)
    }

    /// Restart this incarnation's workload from its latest checkpoint,
    /// with `job` overriding only what changes (cluster, MPI profile,
    /// placement, a new checkpoint schedule, ...).
    pub fn restart_on(&self, job: JobBuilder) -> Result<Incarnation, SessionError> {
        self.restart_with(job, self.workload.clone())
    }

    /// Like [`Incarnation::restart_on`] but with an explicitly re-supplied
    /// workload object (the workload *logic* must match the original —
    /// MANA restores state, not code).
    pub fn restart_with(
        &self,
        job: JobBuilder,
        workload: Arc<dyn Workload>,
    ) -> Result<Incarnation, SessionError> {
        let ckpt_id = self.latest_checkpoint().ok_or(SessionError::NoCheckpoint {
            incarnation: self.index,
        })?;
        let spec = job.build_spec(Some(&self.spec))?;
        self.session.run_spec(spec, workload, Some(ckpt_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_overrides() {
        let spec = JobBuilder::new().build_spec(None).unwrap();
        assert_eq!(spec.nranks, 4);
        assert_eq!(spec.placement, Placement::Block);
        assert!(spec.cfg.ckpt_schedule.is_empty());

        let spec = JobBuilder::new()
            .ranks(8)
            .cluster(ClusterSpec::cori(2))
            .profile(MpiProfile::cray_mpich())
            .seed(9)
            .ckpt_dir("x")
            .checkpoint_at(SimTime(5))
            .then_kill()
            .build_spec(None)
            .unwrap();
        assert_eq!(spec.nranks, 8);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.cfg.ckpt_dir, "x");
        assert_eq!(spec.cfg.ckpt_schedule, CkptSchedule::At(vec![SimTime(5)]));
        assert_eq!(spec.cfg.after_last_ckpt, AfterCkpt::Kill);
    }

    #[test]
    fn restart_inherits_but_drops_schedule() {
        let src = JobBuilder::new()
            .ranks(6)
            .cluster(ClusterSpec::cori(2).with_patched_kernel())
            .profile(MpiProfile::cray_mpich())
            .seed(3)
            .ckpt_dir("chain")
            .checkpoint_at(SimTime(7))
            .then_kill()
            .build_spec(None)
            .unwrap();
        assert!(
            src.cfg.kernel.fsgsbase_patched,
            "kernel from source cluster"
        );
        let restart = JobBuilder::new()
            .cluster(ClusterSpec::local_cluster(2))
            .profile(MpiProfile::open_mpi())
            .build_spec(Some(&src))
            .unwrap();
        assert_eq!(restart.nranks, 6);
        assert_eq!(restart.seed, 3);
        assert_eq!(restart.cfg.ckpt_dir, "chain");
        assert!(
            restart.cfg.ckpt_schedule.is_empty(),
            "schedule must not carry over"
        );
        assert_eq!(restart.cfg.after_last_ckpt, AfterCkpt::Continue);
        assert_eq!(restart.cluster.name, "local");
        // The kernel model belongs to the machine: naming a new cluster
        // re-derives it rather than carrying the source cluster's.
        assert!(
            !restart.cfg.kernel.fsgsbase_patched,
            "kernel must come from the destination cluster"
        );

        // ...unless the destination builder pins one explicitly.
        let pinned = JobBuilder::new()
            .cluster(ClusterSpec::local_cluster(2))
            .kernel(KernelModel::patched())
            .build_spec(Some(&src))
            .unwrap();
        assert!(pinned.cfg.kernel.fsgsbase_patched);

        // No new cluster named → the source's kernel is kept.
        let same_cluster = JobBuilder::new()
            .profile(MpiProfile::open_mpi())
            .build_spec(Some(&src))
            .unwrap();
        assert!(same_cluster.cfg.kernel.fsgsbase_patched);
    }

    #[test]
    fn an_interval_is_a_schedule_of_its_own() {
        let every = JobBuilder::new().checkpoint_every(SimDuration::micros(3), 2);
        let spec = every.clone().build_spec(None).unwrap();
        let want = CkptSchedule::Every {
            interval: SimDuration::micros(3),
            count: 2,
        };
        assert_eq!(spec.cfg.ckpt_schedule, want);
        assert!(matches!(
            every.checkpoint_at(SimTime(5)).check(),
            Err(SessionError::InvalidSpec(_))
        ));
        // A count of zero is no schedule, so nothing would end the job.
        assert!(matches!(
            JobBuilder::new()
                .checkpoint_every(SimDuration::micros(3), 0)
                .then_kill()
                .check(),
            Err(SessionError::InvalidSpec(_))
        ));
    }

    #[test]
    fn topology_set_and_inherited() {
        let spec = JobBuilder::new().build_spec(None).unwrap();
        assert_eq!(spec.cfg.topology, TopologyKind::Flat, "flat by default");

        let src = JobBuilder::new()
            .topology(TopologyKind::Tree)
            .build_spec(None)
            .unwrap();
        assert_eq!(src.cfg.topology, TopologyKind::Tree);

        // A restart inherits the topology like the rest of the config...
        let restart = JobBuilder::new().build_spec(Some(&src)).unwrap();
        assert_eq!(restart.cfg.topology, TopologyKind::Tree);

        // ...unless the destination builder overrides it.
        let overridden = JobBuilder::new()
            .topology(TopologyKind::Flat)
            .build_spec(Some(&src))
            .unwrap();
        assert_eq!(overridden.cfg.topology, TopologyKind::Flat);
    }

    #[test]
    fn invalid_jobs_rejected() {
        assert!(matches!(
            JobBuilder::new().ranks(0).build_spec(None),
            Err(SessionError::InvalidSpec(_))
        ));
        assert!(matches!(
            JobBuilder::new().then_kill().build_spec(None),
            Err(SessionError::InvalidSpec(_))
        ));
    }

    #[test]
    fn oversubscribed_cluster_is_a_typed_error() {
        // `manasim run --ranks 256` on the default two Cori nodes.
        let job = JobBuilder::new().cluster(ClusterSpec::cori(2)).ranks(256);
        match job.build_spec(None) {
            Err(SessionError::InvalidSpec(why)) => {
                assert!(
                    why.contains("256 ranks") && why.contains("64 cores"),
                    "{why}"
                );
                assert!(!why.contains('\n'), "one line: {why}");
            }
            other => panic!("expected InvalidSpec, got {:?}", other.map(|s| s.nranks)),
        }
        // Exactly full is fine, and a restart that moves the job onto a
        // cluster too small for the inherited world size is rejected too.
        let src = JobBuilder::new()
            .cluster(ClusterSpec::cori(2))
            .ranks(64)
            .build_spec(None)
            .unwrap();
        assert!(matches!(
            JobBuilder::new()
                .cluster(ClusterSpec::local_cluster(2))
                .build_spec(Some(&src)),
            Err(SessionError::InvalidSpec(_))
        ));
    }
}
