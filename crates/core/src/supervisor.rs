//! Supervised recovery: a deadline- and budget-bounded retry loop around
//! the restart engine.
//!
//! PR 7's chaos engine proved the *write* side of the protocol survives
//! anything; this module closes the loop on the *read* side, where — as
//! the NERSC production experience goes — recovery itself fails and must
//! be retried. A [`RestartSupervisor`] drives restart attempts under a
//! [`RetryPolicy`] with fault-class-aware handling:
//!
//! * **transient** faults (a rank killed mid-restart by the chaos seam)
//!   retry the *same* image after an exponential backoff — restart
//!   stages never write the store or the address space, so the attempt
//!   is idempotent by construction;
//! * **image damage** (missing / torn / corrupt / malformed /
//!   replay-divergent images) falls back to the next-oldest survivor,
//!   recording a typed [`SkippedCheckpoint`] for every image passed
//!   over;
//! * **fatal** spec-level errors (world-size mismatch, invalid job)
//!   abort immediately — an older checkpoint cannot fix them.
//!
//! Degraded-mode recovery is allowed and *recorded*: an `on_retry` heal
//! hook runs between attempts (revive replicas, recover journals, resume
//! tiered-store drains) and reports what it had to tolerate as typed
//! [`DegradedMode`]s. Everything the supervisor did lands in a
//! [`RecoveryReport`]: attempts, faults absorbed, images skipped, total
//! backoff downtime, degraded modes.
//!
//! # Example: damaged newest checkpoint, supervised fallback
//!
//! ```
//! use mana_core::supervisor::{RestartSupervisor, RetryPolicy};
//! use mana_core::{AppEnv, InMemStore, JobBuilder, ManaSession, Workload};
//! use mana_sim::time::{SimDuration, SimTime};
//! use std::sync::Arc;
//!
//! struct Stencil;
//! impl Workload for Stencil {
//!     fn name(&self) -> &'static str {
//!         "stencil"
//!     }
//!     fn run(&self, env: &mut AppEnv) {
//!         let world = env.world();
//!         let n = f64::from(env.nranks());
//!         // The step counter lives in simulated state, so a restarted
//!         // incarnation resumes where the checkpoint left off.
//!         let scal = env.alloc_f64("scal", 2);
//!         while (env.peek(scal, |s| s[0]) as u64) < 6 {
//!             env.begin_step();
//!             env.work(SimDuration::micros(300), |m| {
//!                 m.with_mut(scal, |s| s[1] += 0.5)
//!             });
//!             env.allreduce_arr(world, scal, mana_mpi::ReduceOp::Sum);
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
//! let clean = session.run(JobBuilder::new().seed(1), app.clone()).unwrap();
//! let wall = clean.outcome().wall.as_nanos();
//! let aw = clean.outcome().app_wall.as_nanos();
//! let at = |frac: f64| SimTime(wall - aw + (aw as f64 * frac) as u64);
//!
//! // Two checkpoints, then the job dies; vandalize the newest one.
//! let killed = session
//!     .run(
//!         JobBuilder::new()
//!             .seed(1)
//!             .checkpoint_times([at(0.3), at(0.7)])
//!             .then_kill(),
//!         app,
//!     )
//!     .unwrap();
//! let newest = killed.latest_checkpoint().unwrap();
//! let path = killed.spec().cfg.image_path(newest, 0);
//! session.store().remove(&path);
//!
//! // The supervisor records the skip and recovers from the survivor.
//! let mut sup = RestartSupervisor::new(RetryPolicy::default());
//! let resumed = sup.recover(&killed, JobBuilder::new()).unwrap();
//! assert_eq!(clean.checksums(), resumed.checksums());
//! let report = sup.report();
//! assert_eq!(report.images_skipped.len(), 1);
//! assert_eq!(report.recovered_from, Some(newest - 1));
//! ```

use crate::error::{SessionError, SkipReason, SkippedCheckpoint};
use crate::restart::RestartError;
use crate::session::{Incarnation, JobBuilder};
use mana_sim::time::SimDuration;
use std::fmt;

/// How the supervisor should treat one restart failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// The fault is not tied to the image — retry the *same* checkpoint
    /// after a backoff. Today: a rank killed mid-restart by the chaos
    /// seam ([`RestartError::Interrupted`]).
    Transient,
    /// The checkpoint's images are damaged — fall back to the next-oldest
    /// survivor.
    ImageDamage,
    /// Spec-level: no older checkpoint can fix it — abort immediately.
    Fatal,
}

/// Classify a restart failure for the supervisor's policy. Mirrors (and
/// subsumes) the damage test `restart_latest` historically applied:
/// everything image-shaped is [`FaultClass::ImageDamage`], injected
/// mid-restart kills are [`FaultClass::Transient`], and spec-level
/// failures are [`FaultClass::Fatal`].
pub fn classify(e: &SessionError) -> FaultClass {
    match e {
        SessionError::Restart(RestartError::Interrupted { .. }) => FaultClass::Transient,
        SessionError::Restart(RestartError::WorldSizeMismatch { .. }) => FaultClass::Fatal,
        SessionError::Restart(_) | SessionError::CheckpointGone { .. } => FaultClass::ImageDamage,
        _ => FaultClass::Fatal,
    }
}

/// Bounds on the supervisor's retry loop.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total restart attempts (across all candidate images) one
    /// [`RestartSupervisor::recover`] call may spend.
    pub max_attempts: u32,
    /// Backoff before the first transient retry.
    pub initial_backoff: SimDuration,
    /// Multiplier applied to the backoff after every transient retry.
    pub backoff_factor: f64,
    /// Ceiling on a single backoff wait.
    pub max_backoff: SimDuration,
    /// Ceiling on *accumulated* backoff downtime per recover call; a
    /// retry that would exceed it gives up with
    /// [`SessionError::RecoveryExhausted`]. `None` = unbounded.
    pub deadline: Option<SimDuration>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 16,
            initial_backoff: SimDuration::millis(250),
            backoff_factor: 2.0,
            max_backoff: SimDuration::secs(8),
            deadline: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries transient faults (one attempt per
    /// candidate image, no backoff) but still walks the image-fallback
    /// chain — the historical `restart_latest` behaviour.
    pub fn no_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: u32::MAX,
            initial_backoff: SimDuration::ZERO,
            backoff_factor: 1.0,
            max_backoff: SimDuration::ZERO,
            deadline: Some(SimDuration::ZERO),
        }
    }
}

/// A degraded condition recovery tolerated (and healed around) on its way
/// back to a running job — reported, never silent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DegradedMode {
    /// A store replica was dark during recovery and was revived/healed
    /// by anti-entropy.
    ReplicaDark {
        /// Index of the replica that was down.
        replica: usize,
    },
    /// The burst tier lost data: drain-ledger entries had to be
    /// quarantined, their images gone for good.
    FastTierLost {
        /// Number of quarantined drain entries.
        quarantined: usize,
    },
    /// Interrupted async drains were resumed from the intact burst-tier
    /// copies.
    DrainResumed {
        /// Number of drains resumed to the slow tier.
        resumed: usize,
    },
    /// A journal quarantined torn objects while scanning the store.
    TornQuarantined {
        /// Number of torn objects moved aside.
        quarantined: usize,
    },
}

impl fmt::Display for DegradedMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradedMode::ReplicaDark { replica } => write!(f, "replica {replica} dark"),
            DegradedMode::FastTierLost { quarantined } => {
                write!(f, "fast tier lost {quarantined} drain(s)")
            }
            DegradedMode::DrainResumed { resumed } => write!(f, "{resumed} drain(s) resumed"),
            DegradedMode::TornQuarantined { quarantined } => {
                write!(f, "{quarantined} torn object(s) quarantined")
            }
        }
    }
}

/// Everything a supervisor did across its recover calls: the typed
/// account of how the job came back.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Restart attempts made (successful ones included).
    pub attempts: u32,
    /// Failed attempts absorbed without giving up (transient retries and
    /// image-damage fallbacks).
    pub faults_absorbed: u32,
    /// Every checkpoint passed over, newest first, with its typed reason.
    pub images_skipped: Vec<SkippedCheckpoint>,
    /// Accumulated backoff downtime (modeled wait between attempts).
    pub total_downtime: SimDuration,
    /// Degraded conditions healed around, in occurrence order.
    pub degraded: Vec<DegradedMode>,
    /// Checkpoint id the last successful recovery restarted from.
    pub recovered_from: Option<u64>,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "recovery: {} attempt(s), {} fault(s) absorbed, {} image(s) skipped, \
             backoff downtime {:?}",
            self.attempts,
            self.faults_absorbed,
            self.images_skipped.len(),
            self.total_downtime
        )?;
        for s in &self.images_skipped {
            writeln!(f, "  skipped {s}")?;
        }
        for d in &self.degraded {
            writeln!(f, "  degraded: {d}")?;
        }
        if let Some(id) = self.recovered_from {
            writeln!(f, "  recovered from ckpt {id}")?;
        }
        Ok(())
    }
}

/// Heal hook run after every failed attempt, before the next one: revive
/// replicas, maintain the store stack (resume drains, quarantine torn
/// images, heal replicas). Returns the degraded modes it observed, which
/// the supervisor records.
type HealHook = Box<dyn FnMut(&SessionError) -> Vec<DegradedMode> + Send>;

/// The recovery loop: walks a session's registered checkpoints newest
/// first, retries transient faults with exponential backoff, falls back
/// past damaged images, and accounts for everything in a
/// [`RecoveryReport`]. Stateful: one supervisor can span a whole chaos
/// chain, accumulating attempts and skips across multiple `recover`
/// calls. See the [module docs](self) for an example.
pub struct RestartSupervisor {
    policy: RetryPolicy,
    on_retry: Option<HealHook>,
    report: RecoveryReport,
}

impl RestartSupervisor {
    /// A supervisor enforcing `policy`.
    pub fn new(policy: RetryPolicy) -> RestartSupervisor {
        RestartSupervisor {
            policy,
            on_retry: None,
            report: RecoveryReport::default(),
        }
    }

    /// Install a heal hook run after every failed attempt (revive
    /// replicas, maintain the store stack); the degraded modes it returns
    /// are recorded in the report.
    pub fn on_retry<F>(mut self, hook: F) -> RestartSupervisor
    where
        F: FnMut(&SessionError) -> Vec<DegradedMode> + Send + 'static,
    {
        self.on_retry = Some(Box::new(hook));
        self
    }

    /// The accumulated account of everything this supervisor did.
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Record degraded modes observed outside the retry loop (e.g. a
    /// pre-recovery store heal) so the report stays complete.
    pub fn note_degraded(&mut self, modes: impl IntoIterator<Item = DegradedMode>) {
        self.report.degraded.extend(modes);
    }

    /// Supervised recovery of `from`'s job chain: boot the next
    /// incarnation from the newest restartable checkpoint, under the
    /// policy's attempt budget and downtime deadline.
    ///
    /// Candidates are *every* checkpoint registered in the session,
    /// newest first — an entry whose images are already gone from the
    /// store is skipped cheaply (recorded as
    /// [`SkipReason::ImageGone`]) without burning a restart attempt.
    pub fn recover(
        &mut self,
        from: &Incarnation,
        job: JobBuilder,
    ) -> Result<Incarnation, SessionError> {
        let session = from.session().clone();
        let workload = from.workload();
        let store = session.store().clone();
        let mut candidates = session.registered_checkpoints();
        if candidates.is_empty() {
            return Err(SessionError::NoCheckpoint {
                incarnation: from.index(),
            });
        }
        candidates.sort_by_key(|c| c.ckpt_id);

        let mut skipped_here: Vec<SkippedCheckpoint> = Vec::new();
        // Per-call backoff ladder and attempt budget.
        let mut backoff = self.policy.initial_backoff;
        let mut downtime_here = SimDuration::ZERO;
        let mut attempts_here: u32 = 0;
        let mut last_err: Option<RestartError> = None;

        for images in candidates.iter().rev() {
            // Cheap pre-filter: an image already gone (GC'd, quarantined,
            // lost with its tier) is a recorded skip, not an attempt.
            if let Some((rank, path)) = images
                .paths
                .iter()
                .enumerate()
                .find(|(_, p)| !store.exists(p))
                .map(|(rank, p)| (rank as u32, p.clone()))
            {
                let skip = SkippedCheckpoint {
                    ckpt_id: images.ckpt_id,
                    reason: SkipReason::ImageGone { rank, path },
                };
                skipped_here.push(skip.clone());
                self.report.images_skipped.push(skip);
                continue;
            }

            // Attempt loop on this candidate: transient faults retry the
            // same image until the budget or deadline runs out.
            loop {
                if attempts_here >= self.policy.max_attempts {
                    return Err(SessionError::RecoveryExhausted {
                        attempts: self.report.attempts,
                        source: Box::new(last_err.unwrap_or(RestartError::MalformedImage {
                            rank: 0,
                            why: "restart attempt budget is zero".into(),
                        })),
                    });
                }
                let spec = job.clone().build_spec(Some(from.spec()))?;
                attempts_here += 1;
                self.report.attempts += 1;
                let err = match session.run_spec(spec, workload.clone(), Some(images.ckpt_id)) {
                    Ok(inc) => {
                        self.report.recovered_from = Some(images.ckpt_id);
                        return Ok(inc);
                    }
                    Err(e) => e,
                };
                last_err = Some(restart_error_of(err.clone()));
                match classify(&err) {
                    FaultClass::Fatal => return Err(err),
                    FaultClass::ImageDamage => {
                        self.report.faults_absorbed += 1;
                        let skip = SkippedCheckpoint {
                            ckpt_id: images.ckpt_id,
                            reason: SkipReason::Damaged(Box::new(restart_error_of(err.clone()))),
                        };
                        skipped_here.push(skip.clone());
                        self.report.images_skipped.push(skip);
                        if let Some(hook) = &mut self.on_retry {
                            self.report.degraded.extend(hook(&err));
                        }
                        break; // next-older survivor
                    }
                    FaultClass::Transient => {
                        self.report.faults_absorbed += 1;
                        // A zero deadline forbids any retry wait at all —
                        // that is [`RetryPolicy::no_retry`]'s contract.
                        let over_deadline = self
                            .policy
                            .deadline
                            .is_some_and(|d| d == SimDuration::ZERO || downtime_here + backoff > d);
                        if attempts_here >= self.policy.max_attempts || over_deadline {
                            return Err(SessionError::RecoveryExhausted {
                                attempts: self.report.attempts,
                                source: Box::new(restart_error_of(err)),
                            });
                        }
                        downtime_here += backoff;
                        self.report.total_downtime += backoff;
                        if let Some(hook) = &mut self.on_retry {
                            self.report.degraded.extend(hook(&err));
                        }
                        backoff = scale_backoff(backoff, self.policy.backoff_factor)
                            .min(self.policy.max_backoff)
                            .max(self.policy.initial_backoff);
                    }
                }
            }
        }
        Err(SessionError::NoUsableCheckpoint {
            incarnation: from.index(),
            skipped: skipped_here,
        })
    }
}

/// Pull the underlying [`RestartError`] out of a session-level failure
/// for the typed skip reason.
fn restart_error_of(e: SessionError) -> RestartError {
    match e {
        SessionError::Restart(r) => r,
        SessionError::CheckpointGone { source, .. } => *source,
        other => RestartError::MalformedImage {
            rank: 0,
            why: other.to_string(),
        },
    }
}

fn scale_backoff(d: SimDuration, factor: f64) -> SimDuration {
    SimDuration::nanos((d.as_nanos() as f64 * factor) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StoreError;

    #[test]
    fn classification_is_policy_shaped() {
        use crate::chaos::RestartPoint;
        assert_eq!(
            classify(&SessionError::Restart(RestartError::Interrupted {
                rank: 1,
                point: RestartPoint::Replay,
            })),
            FaultClass::Transient
        );
        assert_eq!(
            classify(&SessionError::Restart(RestartError::MissingImage {
                rank: 0,
                ckpt_id: 3,
                path: "p".into(),
                source: StoreError::NotFound("p".into()),
            })),
            FaultClass::ImageDamage
        );
        assert_eq!(
            classify(&SessionError::CheckpointGone {
                ckpt_id: 3,
                surviving: vec![],
                source: Box::new(RestartError::MissingImage {
                    rank: 0,
                    ckpt_id: 3,
                    path: "p".into(),
                    source: StoreError::NotFound("p".into()),
                }),
            }),
            FaultClass::ImageDamage
        );
        assert_eq!(
            classify(&SessionError::Restart(RestartError::WorldSizeMismatch {
                image: 4,
                requested: 8,
            })),
            FaultClass::Fatal
        );
        assert_eq!(
            classify(&SessionError::InvalidSpec("x".into())),
            FaultClass::Fatal
        );
    }

    #[test]
    fn backoff_ladder_is_exponential_and_capped() {
        let p = RetryPolicy::default();
        let mut b = p.initial_backoff;
        let mut seen = Vec::new();
        for _ in 0..8 {
            seen.push(b);
            b = scale_backoff(b, p.backoff_factor)
                .min(p.max_backoff)
                .max(p.initial_backoff);
        }
        assert_eq!(seen[1], SimDuration::millis(500));
        assert_eq!(seen[2], SimDuration::secs(1));
        assert_eq!(*seen.last().unwrap(), p.max_backoff, "capped at the top");
    }

    #[test]
    fn report_display_names_everything() {
        let mut r = RecoveryReport {
            attempts: 3,
            faults_absorbed: 2,
            total_downtime: SimDuration::millis(750),
            recovered_from: Some(7),
            ..RecoveryReport::default()
        };
        r.images_skipped.push(SkippedCheckpoint {
            ckpt_id: 9,
            reason: crate::error::SkipReason::ImageGone {
                rank: 1,
                path: "d/r1".into(),
            },
        });
        r.degraded.push(DegradedMode::DrainResumed { resumed: 1 });
        r.degraded.push(DegradedMode::ReplicaDark { replica: 2 });
        let s = r.to_string();
        assert!(
            s.contains("3 attempt(s)")
                && s.contains("ckpt 9")
                && s.contains("drain(s) resumed")
                && s.contains("replica 2 dark")
                && s.contains("recovered from ckpt 7"),
            "{s}"
        );
    }
}
