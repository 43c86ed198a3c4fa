//! The chaos driver: run a job chain through a fault plan and heal it.
//!
//! [`ChaosHarness::run`] owns the whole loop the module docs of
//! [`crate`] describe:
//!
//! 1. a **reference run** (no faults) fixes the expected final per-rank
//!    checksums and the checkpoint interval: the plan's attempts spread
//!    evenly over the reference's application window;
//! 2. the **chaos chain** runs the same job against a crash-consistent,
//!    replicated store with a [`ChaosPlan`] armed — every incarnation
//!    checkpoints at that interval from its own application start (the
//!    coordinator waits for the start, so no run is needed to time a
//!    checkpoint or a restart) and either completes or is gang-crashed by
//!    a fault. When the plan
//!    schedules drain faults, a burst-buffer tier with a persistent
//!    drain ledger fronts the stack;
//! 3. after every crash the driver **heals the storage tier** — revives
//!    dark replicas, then runs one [`CheckpointStore::maintain`] walk down
//!    the stack (resume or quarantine interrupted drains, quarantine torn
//!    images, anti-entropy the replicas) — and hands recovery to a
//!    [`RestartSupervisor`]: restart-phase kills are retried with
//!    backoff, damaged images fall back to older survivors — all under
//!    one chain-wide retry budget;
//! 4. the chain ends when an incarnation survives to completion, and
//!    the [`ChaosReport`] records whether its final state matches the
//!    fault-free reference bit-for-bit.
//!
//! Everything — the plan, the sim, the store stack — is deterministic:
//! the same [`ChaosHarness`] produces the same report, byte for byte.

use crate::plan::{ChaosPlan, FaultKind, WorldShape};
use mana_apps::{make_app_small, AppKind};
use mana_core::chaos::{ChaosHandle, CrashRecord, DrainFault, FailoverRecord, RestartCrashRecord};
use mana_core::config::TopologyKind;
use mana_core::stats::CkptReport;
use mana_core::supervisor::{DegradedMode, RecoveryReport, RestartSupervisor, RetryPolicy};
use mana_core::{CheckpointStore, InMemStore, JobBuilder, ManaSession, Workload};
use mana_sim::cluster::{ClusterSpec, Placement};
use mana_sim::time::SimDuration;
use mana_store::{
    HealReport, JournaledStore, Maintenance, QuarantinedObject, ReplicaConfig, ReplicatedStore,
    TierConfig, TieredStore,
};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Everything a chaos run needs: the job, the world, and the fault plan
/// parameters. Build one with [`ChaosHarness::new`] and adjust fields
/// before calling [`ChaosHarness::run`].
#[derive(Clone, Debug)]
pub struct ChaosHarness {
    /// Seed for both the fault plan and the job.
    pub seed: u64,
    /// Number of checkpoint-phase faults to draw.
    pub faults: usize,
    /// Number of restart-phase kills to draw (they land at consecutive
    /// restart attempts, all inside the first supervised recovery).
    pub restart_faults: usize,
    /// Number of async-drain interruptions to draw. Any nonzero value
    /// puts a burst-buffer tier with a drain ledger in front of the
    /// store stack.
    pub drain_faults: usize,
    /// World size.
    pub nranks: u32,
    /// Compute nodes.
    pub nodes: u32,
    /// Coordinator control-plane topology.
    pub topology: TopologyKind,
    /// Store replicas behind the session (≥ 1).
    pub replicas: usize,
    /// Which application the job runs.
    pub app: AppKind,
    /// Application steps.
    pub steps: u64,
    /// Explicit fault schedule; when `None`, a plan is drawn from
    /// `seed`/`faults`/`restart_faults`/`drain_faults` against
    /// [`ChaosHarness::shape`].
    pub plan: Option<ChaosPlan>,
}

/// A chain's healing pass, shared by the driver and the supervisor's
/// between-attempt hook.
type Heal = dyn Fn() -> Vec<DegradedMode> + Send + Sync;

/// One healing pass over the chain's store: revive dark replicas — the
/// fault model lifting an outage, not store maintenance — then walk the
/// session's stack top-down with [`CheckpointStore::maintain`] (settle the
/// burst tier's drain ledger, quarantine torn envelopes, anti-entropy
/// each replica back in sync). What the walk did is appended to the
/// chain's `log`; returns the degraded modes the pass had to tolerate.
fn heal_pass(
    replicated: &ReplicatedStore,
    store: &dyn CheckpointStore,
    replicas: usize,
    log: &Mutex<Maintenance>,
) -> Vec<DegradedMode> {
    let mut modes = Vec::new();
    for i in 0..replicas {
        if !replicated.alive(i) {
            replicated.revive(i);
            modes.push(DegradedMode::ReplicaDark { replica: i });
        }
    }
    let mut pass = Maintenance::default();
    store.maintain(&mut pass);
    if !pass.drains_resumed.is_empty() {
        modes.push(DegradedMode::DrainResumed {
            resumed: pass.drains_resumed.len(),
        });
    }
    if !pass.drains_quarantined.is_empty() {
        modes.push(DegradedMode::FastTierLost {
            quarantined: pass.drains_quarantined.len(),
        });
    }
    if !pass.quarantined.is_empty() {
        modes.push(DegradedMode::TornQuarantined {
            quarantined: pass.quarantined.len(),
        });
    }
    let mut log = log.lock();
    log.scanned += pass.scanned;
    log.quarantined.extend(pass.quarantined);
    log.drains_resumed.extend(pass.drains_resumed);
    log.drains_quarantined.extend(pass.drains_quarantined);
    log.heals.extend(pass.heals);
    modes
}

impl ChaosHarness {
    /// A harness with a small tree-topology world: 4 ranks on 2 nodes,
    /// 2 store replicas, the application drawn from the seed.
    pub fn new(seed: u64, faults: usize) -> ChaosHarness {
        let kinds = AppKind::all();
        ChaosHarness {
            seed,
            faults,
            restart_faults: 0,
            drain_faults: 0,
            nranks: 4,
            nodes: 2,
            topology: TopologyKind::Tree,
            replicas: 2,
            app: kinds[(seed % kinds.len() as u64) as usize],
            steps: 5,
            plan: None,
        }
    }

    /// The world shape plans are drawn against. Its `nodes` counts only
    /// the nodes block placement puts a rank on: a node with no rank has
    /// no helper to kill and no sub-coordinator.
    pub fn shape(&self) -> WorldShape {
        let cluster = ClusterSpec::local_cluster(self.nodes);
        let filled: BTreeSet<u32> = (0..self.nranks)
            .map(|r| cluster.node_of_rank(r, self.nranks, Placement::Block))
            .collect();
        WorldShape {
            nranks: self.nranks,
            nodes: filled.len() as u32,
            replicas: self.replicas,
            tree: self.topology == TopologyKind::Tree,
        }
    }

    /// The job every incarnation of the chain starts from: the world,
    /// seed and topology, no schedule. [`JobBuilder::check`] on it is the
    /// typed error [`ChaosHarness::run`] would otherwise panic on (a world
    /// that does not fit its cluster).
    pub fn job(&self) -> JobBuilder {
        JobBuilder::new()
            .cluster(ClusterSpec::local_cluster(self.nodes))
            .ranks(self.nranks)
            .seed(self.seed)
            .topology(self.topology)
    }

    /// Run the whole chaos chain; see the module docs. Never panics on
    /// an injected fault — an unhealable chain surfaces in the report
    /// (`recovered: false` plus the error), not as an abort.
    pub fn run(&self) -> ChaosReport {
        let plan = self.plan.clone().unwrap_or_else(|| {
            ChaosPlan::generate_full(
                self.seed,
                self.faults,
                self.restart_faults,
                self.drain_faults,
                self.shape(),
            )
        });
        let app: Arc<dyn Workload> = make_app_small(self.app, self.steps);

        // Phase 1: the fault-free reference. Its application window also
        // spaces the chain's checkpoints: the plan's attempts at an
        // interval that would fit them all into one uninterrupted run.
        let reference = ManaSession::builder()
            .store(InMemStore::new())
            .build()
            .run(self.job(), app.clone())
            .expect("reference run is fault-free static configuration");
        let ref_sums = reference.checksums().clone();
        let total = plan.total_attempts();
        let interval = SimDuration::nanos(reference.outcome().app_wall.as_nanos() / (total + 1));

        // Phase 2: the chaos chain over a crash-consistent store stack.
        // The journal frames envelopes *above* replication, so a torn
        // write is torn identically on every replica — exactly what a
        // writer dying mid-put produces. When the plan interrupts async
        // drains, a burst-buffer tier with a persistent drain ledger
        // fronts the journal.
        let handle = ChaosHandle::new(plan.injector());
        let replicas = self.replicas.max(1);
        let replicated = Arc::new(ReplicatedStore::with_replicas(
            ReplicaConfig {
                write_quorum: replicas,
                ..ReplicaConfig::default()
            },
            replicas,
            |_| InMemStore::new(),
        ));
        let journal = Arc::new(JournaledStore::new(replicated.clone()).with_chaos(handle.clone()));
        let tiered = (!plan.drain_faults.is_empty()).then(|| {
            Arc::new(
                TieredStore::new(TierConfig::burst_buffer(), journal.clone())
                    .with_chaos(handle.clone()),
            )
        });
        let store: Arc<dyn CheckpointStore> = match tiered {
            Some(t) => t,
            None => journal,
        };
        let session = ManaSession::builder().shared_store(store.clone()).build();

        // One supervisor spans the whole chain: its retry budget, skip
        // list and degraded modes accumulate across every recovery. The
        // heal hook re-heals the stack after every failed attempt.
        let heal_log = Arc::new(Mutex::new(Maintenance::default()));
        let heal: Arc<Heal> = {
            let (replicated, log, replicas) = (replicated.clone(), heal_log.clone(), self.replicas);
            Arc::new(move || heal_pass(&replicated, &*store, replicas, &log))
        };
        let hook = heal.clone();
        let mut sup = RestartSupervisor::new(RetryPolicy::default()).on_retry(move |_err| hook());

        let mut report = ChaosReport {
            plan: plan.clone(),
            incarnations: 1,
            ..ChaosReport::default()
        };
        let mut outages = plan.replica_outages().into_iter();
        let mut apply_outage = |report: &mut ChaosReport| {
            if let Some(i) = outages.next() {
                replicated.kill_replica(i);
                report.outages_applied.push(i);
            }
        };

        // Phase 3: crash → heal → supervised restart, until an
        // incarnation survives. Each incarnation checkpoints at the
        // interval from its own application start, so a restart takes the
        // attempts the chain has not begun yet, wherever it resumes. Each
        // crashing incarnation consumes at least one attempt, so the chain
        // needs at most one incarnation per crash fault (the cap is a
        // safety net against driver bugs, not a tuning knob). The chain
        // ends in the survivor's final checksums, or in the failure that
        // stopped it.
        let cap = 2 * plan.faults.len() as u64 + 4;
        let chain = (|| -> Result<BTreeMap<u32, u64>, String> {
            apply_outage(&mut report);
            let mut current = session
                .run(
                    self.job()
                        .ckpt_dir("chaos")
                        .chaos(handle.clone())
                        .checkpoint_every(interval, total),
                    app.clone(),
                )
                .map_err(|e| format!("launch failed: {e}"))?;
            while current.killed() {
                if report.incarnations >= cap {
                    return Err(format!("chain did not converge within {cap} incarnations"));
                }
                sup.note_degraded(heal());
                apply_outage(&mut report);
                let remaining = total.saturating_sub(handle.attempts_seen());
                current = sup
                    .recover(
                        &current,
                        JobBuilder::new().checkpoint_every(interval, remaining),
                    )
                    .map_err(|e| format!("recovery restart failed: {e}"))?;
                report.recovery_restarts += 1;
                report.incarnations += 1;
            }
            report.recovered = true;
            report.checkpoints = session.checkpoints();
            Ok(current.checksums().clone())
        })();
        let final_sums = chain.map_err(|e| report.error = Some(e)).ok();

        heal();
        let log = std::mem::take(&mut *heal_log.lock());
        report.heals = log.heals;
        report.quarantined = log.quarantined;
        report.images_scanned = log.scanned;
        report.drains_resumed = log.drains_resumed;
        report.drains_quarantined = log.drains_quarantined;
        let chaos = handle.log();
        report.attempts = handle.attempts_seen();
        report.restart_attempts = chaos.restart_attempts;
        report.crashes = chaos.crashes;
        report.restart_crashes = chaos.restart_crashes;
        report.failovers = chaos.failovers;
        report.torn_writes = chaos.torn_writes;
        report.drain_faults_hit = chaos.drain_faults;
        report.supervisor = sup.report().clone();
        report.checksums_match = final_sums == Some(ref_sums);
        report
    }
}

/// What a chaos chain went through and how it ended.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// The fault plan that drove the chain.
    pub plan: ChaosPlan,
    /// Incarnations the chain ran (1 = no fault ever fired).
    pub incarnations: u64,
    /// Successful restarts performed during recovery, one per incarnation
    /// after the first; failed restart attempts live in
    /// [`ChaosReport::supervisor`].
    pub recovery_restarts: u64,
    /// Checkpoint attempts the chain started.
    pub attempts: u64,
    /// Restart attempts the chain started (including ones killed by
    /// restart-phase faults).
    pub restart_attempts: u64,
    /// The report of every checkpoint that committed, in commit order.
    pub checkpoints: Vec<CkptReport>,
    /// Every checkpoint-phase gang-crash injected, in order.
    pub crashes: Vec<CrashRecord>,
    /// Every restart-phase kill injected, in order.
    pub restart_crashes: Vec<RestartCrashRecord>,
    /// Every sub-coordinator failover injected and healed in-flight.
    pub failovers: Vec<FailoverRecord>,
    /// Image paths whose writes were torn mid-`put`.
    pub torn_writes: Vec<String>,
    /// Drain interruptions that actually fired: (attempt, path, fault).
    pub drain_faults_hit: Vec<(u64, String, DrainFault)>,
    /// Interrupted drains resumed from intact burst-tier copies.
    pub drains_resumed: Vec<String>,
    /// Drain-ledger entries whose fast data was lost — images gone for
    /// good, quarantined out of the ledger.
    pub drains_quarantined: Vec<String>,
    /// Replica outages applied (replica indices, in order).
    pub outages_applied: Vec<usize>,
    /// Anti-entropy repairs: `(replica, what was copied)`.
    pub heals: Vec<(usize, HealReport)>,
    /// Torn or uncommitted images quarantined during recovery scans.
    pub quarantined: Vec<QuarantinedObject>,
    /// Committed images examined by recovery scans (cumulative).
    pub images_scanned: usize,
    /// The chain-wide supervisor's account: attempts, faults absorbed,
    /// images skipped, backoff downtime, degraded modes.
    pub supervisor: RecoveryReport,
    /// Whether the chain reached a surviving incarnation.
    pub recovered: bool,
    /// Whether the surviving incarnation's final per-rank checksums
    /// matched the fault-free reference exactly.
    pub checksums_match: bool,
    /// The failure that ended the chain early, if recovery ever failed.
    pub error: Option<String>,
}

impl ChaosReport {
    /// The memento property: the chain survived everything the plan
    /// threw at it and ended in exactly the fault-free state.
    pub fn healed(&self) -> bool {
        self.recovered && self.checksums_match && self.error.is_none()
    }

    /// Checkpoint ids recovery fell back past (skipped for damage or
    /// loss) on its way to a survivor.
    pub fn image_fallbacks(&self) -> usize {
        self.supervisor.images_skipped.len()
    }

    /// The planned faults that never fired, each as the plan prints it. A
    /// checkpoint-phase, drain or restart-phase fault is unfired when the
    /// report holds no record of its class at its attempt. Outages are
    /// applied in plan order, so the planned ones past
    /// [`ChaosReport::outages_applied`] are unfired.
    pub fn unfired(&self) -> Vec<String> {
        let mut outages = 0;
        let mut unfired = Vec::new();
        for pf in &self.plan.faults {
            let fired = match pf.kind {
                FaultKind::KillSubCoord { .. } => {
                    self.failovers.iter().any(|f| f.attempt == pf.attempt)
                }
                FaultKind::ReplicaOutage { .. } => {
                    outages += 1;
                    outages <= self.outages_applied.len()
                }
                // Every other kind gang-crashes the job.
                _ => self.crashes.iter().any(|c| c.attempt == pf.attempt),
            };
            if !fired {
                unfired.push(format!("attempt {:>3}: {}", pf.attempt, pf.kind));
            }
        }
        for df in &self.plan.drain_faults {
            if !self.drain_faults_hit.iter().any(|(a, ..)| *a == df.attempt) {
                unfired.push(format!("attempt {:>3}: {df}", df.attempt));
            }
        }
        for rf in &self.plan.restart_faults {
            let key = rf.restart_attempt;
            if !self
                .restart_crashes
                .iter()
                .any(|r| r.restart_attempt == key)
            {
                unfired.push(format!("restart {key:>3}: {rf}"));
            }
        }
        unfired
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.plan)?;
        writeln!(
            f,
            "chain: {} incarnation(s), {} attempt(s), {} committed checkpoint(s), \
             {} recovery restart(s), {} restart attempt(s)",
            self.incarnations,
            self.attempts,
            self.checkpoints.len(),
            self.recovery_restarts,
            self.restart_attempts
        )?;
        for c in &self.crashes {
            writeln!(
                f,
                "  crash: attempt {} (ckpt {}) rank {} @ {}",
                c.attempt, c.ckpt_id, c.rank, c.point
            )?;
        }
        for rc in &self.restart_crashes {
            writeln!(
                f,
                "  restart crash: restart attempt {} rank {} @ {}",
                rc.restart_attempt, rc.rank, rc.point
            )?;
        }
        for fo in &self.failovers {
            writeln!(
                f,
                "  failover: attempt {} (ckpt {}) node {} sub-coordinator promoted",
                fo.attempt, fo.ckpt_id, fo.node
            )?;
        }
        for p in &self.torn_writes {
            writeln!(f, "  torn write: {p}")?;
        }
        for (attempt, path, fault) in &self.drain_faults_hit {
            writeln!(f, "  drain fault: attempt {attempt} {path} ({fault:?})")?;
        }
        for p in &self.drains_resumed {
            writeln!(f, "  drain resumed: {p}")?;
        }
        for p in &self.drains_quarantined {
            writeln!(f, "  drain lost: {p}")?;
        }
        for i in &self.outages_applied {
            writeln!(f, "  replica outage: {i}")?;
        }
        for (i, h) in &self.heals {
            writeln!(
                f,
                "  heal replica {i}: {} object(s), {} byte(s) copied",
                h.copied.len(),
                h.bytes
            )?;
        }
        for q in &self.quarantined {
            writeln!(f, "  quarantined: {} ({})", q.path, q.why)?;
        }
        for u in self.unfired() {
            writeln!(f, "  unfired: {u}")?;
        }
        write!(f, "{}", self.supervisor)?;
        if let Some(e) = &self.error {
            writeln!(f, "  ERROR: {e}")?;
        }
        writeln!(
            f,
            "outcome: recovered={} checksums_match={} -> {}",
            self.recovered,
            self.checksums_match,
            if self.healed() { "HEALED" } else { "FAILED" }
        )
    }
}
