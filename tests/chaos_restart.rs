//! Restart-phase chaos at the facade level.
//!
//! Checkpoint-phase faults kill a job that has a committed image to fall
//! back on; restart-phase faults kill the *recovery itself* — a rank
//! dies mid image-read, mid-replay, mid-rebind or mid-resync. These
//! tests pin the two properties that make that survivable:
//!
//! * **idempotence** — a crashed restart consumes nothing: the store and
//!   the image are untouched, so the identical restart can simply run
//!   again;
//! * **supervised convergence** — the [`RestartSupervisor`] retries
//!   through any schedule of restart kills with backoff, and the chain
//!   still ends bit-identical to the fault-free reference.
//!
//! [`RestartSupervisor`]: mana::core::supervisor::RestartSupervisor

use mana::apps::{make_app_small, AppKind};
use mana::chaos::{ChaosHarness, ChaosPlan, PlannedRestartFault, WorldShape};
use mana::core::chaos::{ChaosHandle, RestartPoint};
use mana::core::config::TopologyKind;
use mana::core::supervisor::{RestartSupervisor, RetryPolicy};
use mana::core::{JobBuilder, ManaSession, SessionError, Workload};
use mana::sim::cluster::ClusterSpec;
use mana::sim::time::SimTime;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The memento property under restart-phase fire: whatever the seed
    // draws (the application follows the seed; flat or tree control
    // plane; one or two store replicas; a burst-buffer tier with async
    // drains when drain faults are armed), a chain whose *restarts* are
    // killed at consecutive attempts still converges to the fault-free
    // final state — every kill absorbed by the supervisor's retry loop.
    #[test]
    fn crash_mid_restart_chains_converge(
        seed in 0u64..10_000,
        faults in 1usize..3,
        restart_faults in 1usize..5,
        drained in any::<bool>(),
        tree in any::<bool>(),
        replicas in 1usize..3,
    ) {
        let mut h = ChaosHarness::new(seed, faults);
        h.restart_faults = restart_faults;
        h.drain_faults = if drained { 2 } else { 0 };
        h.topology = if tree { TopologyKind::Tree } else { TopologyKind::Flat };
        h.replicas = replicas;
        let report = h.run();
        prop_assert!(
            report.healed(),
            "seed {} over {:?} did not heal:\n{}",
            seed,
            h.shape(),
            report
        );
        // A short application window can retire the schedule before any
        // crash fault fires (no crash → no recovery → no restart to
        // kill); but the moment one recovery runs, the consecutively
        // armed restart kills all strike it and the supervisor must
        // absorb every one.
        if !report.crashes.is_empty() {
            prop_assert_eq!(
                report.restart_crashes.len(),
                restart_faults,
                "every armed restart kill must fire:\n{}",
                report
            );
            prop_assert!(
                report.supervisor.faults_absorbed as usize >= restart_faults,
                "the supervisor must absorb each restart kill:\n{}",
                report
            );
        }
    }
}

fn job() -> JobBuilder {
    JobBuilder::new()
        .cluster(ClusterSpec::local_cluster(2))
        .ranks(4)
        .seed(3)
}

fn app() -> Arc<dyn Workload> {
    make_app_small(AppKind::Hpcg, 5)
}

/// A handle armed with restart-phase kills only: nothing fires during
/// the checkpointing run, so the job dies on its own `then_kill` with
/// committed images — and the armed kills strike the recovery.
fn restart_kill_handle(kills: &[(u64, u32, RestartPoint)]) -> ChaosHandle {
    let plan = ChaosPlan {
        seed: 0,
        shape: WorldShape {
            nranks: 4,
            nodes: 2,
            replicas: 1,
            tree: false,
        },
        faults: vec![],
        restart_faults: kills
            .iter()
            .map(|&(restart_attempt, rank, point)| PlannedRestartFault {
                restart_attempt,
                rank,
                point,
            })
            .collect(),
        drain_faults: vec![],
    };
    ChaosHandle::new(plan.injector())
}

/// Clean run plus a mid-window checkpoint-and-kill run with `handle`
/// armed on the job.
fn clean_and_killed(
    session: &ManaSession,
    handle: &ChaosHandle,
) -> (mana::core::Incarnation, mana::core::Incarnation) {
    let clean = session.run(job(), app()).unwrap();
    let wall = clean.outcome().wall.as_nanos();
    let aw = clean.outcome().app_wall.as_nanos();
    let killed = session
        .run(
            job()
                .chaos(handle.clone())
                .checkpoint_at(SimTime(wall - aw + aw / 2))
                .then_kill(),
            app(),
        )
        .unwrap();
    assert!(killed.killed());
    (clean, killed)
}

/// Idempotence, observed directly: the kill mid-replay crashes the
/// restart (`restart_latest` retries nothing on its own), yet the store
/// is byte-for-byte untouched — so the *identical* restart, re-issued,
/// succeeds and converges.
#[test]
fn crashed_restart_is_idempotent_and_retryable() {
    let handle = restart_kill_handle(&[(0, 2, RestartPoint::Replay)]);
    let session = ManaSession::new();
    let (clean, killed) = clean_and_killed(&session, &handle);

    let before: Vec<(String, u64)> = session
        .store()
        .list()
        .into_iter()
        .map(|p| {
            let len = session.store().logical_len(&p).unwrap();
            (p, len)
        })
        .collect();

    // First restart: the armed kill crashes replay. `restart_latest`
    // runs under a no-retry policy, so the transient surfaces as an
    // exhausted recovery naming the real fault.
    match killed.restart_latest(JobBuilder::new()) {
        Err(SessionError::RecoveryExhausted { attempts, source }) => {
            assert_eq!(attempts, 1);
            assert!(
                matches!(
                    *source,
                    mana::core::RestartError::Interrupted {
                        rank: 2,
                        point: RestartPoint::Replay
                    }
                ),
                "unexpected restart failure: {source:?}"
            );
        }
        other => panic!("expected RecoveryExhausted, got {:?}", other.map(|_| ())),
    }
    assert_eq!(
        handle.log().restart_crashes.len(),
        1,
        "the armed kill must have fired"
    );

    // The crashed restart consumed nothing: same objects, same sizes.
    let after: Vec<(String, u64)> = session
        .store()
        .list()
        .into_iter()
        .map(|p| {
            let len = session.store().logical_len(&p).unwrap();
            (p, len)
        })
        .collect();
    assert_eq!(before, after, "a crashed restart must not touch the store");

    // The identical restart, re-issued: no fault armed at attempt 1, so
    // it boots from the same image and converges.
    let resumed = killed
        .restart_latest(JobBuilder::new())
        .expect("the same image must restart cleanly after the crash");
    assert_eq!(clean.checksums(), resumed.checksums());
}

/// The supervisor absorbs a whole ladder of restart kills in one
/// `recover` call and accounts for every one of them.
#[test]
fn supervisor_absorbs_restart_kills_and_reports_them() {
    let handle = restart_kill_handle(&[
        (0, 1, RestartPoint::ImageRead),
        (1, 3, RestartPoint::Rebind),
        (2, 0, RestartPoint::Resync),
    ]);
    let session = ManaSession::new();
    let (clean, killed) = clean_and_killed(&session, &handle);

    let mut sup = RestartSupervisor::new(RetryPolicy::default());
    let resumed = sup
        .recover(&killed, JobBuilder::new())
        .expect("three transient kills sit well inside the default budget");
    assert_eq!(clean.checksums(), resumed.checksums());

    let report = sup.report();
    assert_eq!(report.attempts, 4, "three crashes plus the success");
    assert_eq!(report.faults_absorbed, 3);
    assert!(
        report.total_downtime >= mana::sim::time::SimDuration::millis(250 + 500 + 1000),
        "the backoff ladder must accrue: {}",
        report.total_downtime
    );
    assert!(report.images_skipped.is_empty(), "no image was damaged");
    assert_eq!(handle.log().restart_attempts, 4);
}
