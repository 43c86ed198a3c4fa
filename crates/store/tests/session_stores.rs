//! End-to-end tests of the storage subsystem driven through the session
//! API: real checkpoints of a running MPI job land in each backend, and
//! the backend's cost model shows up in the checkpoint/restart reports.

use mana_core::{
    AppEnv, CheckpointStore, FsStore, GcPolicy, InMemStore, JobBuilder, ManaSession, Workload,
};
use mana_mpi::{MpiProfile, ReduceOp};
use mana_sim::cluster::ClusterSpec;
use mana_sim::fs::FsConfig;
use mana_sim::time::{SimDuration, SimTime};
use mana_store::{
    CompressingStore, CompressionConfig, DeltaConfig, DeltaStore, ReplicaConfig, ReplicatedStore,
    TierConfig, TieredStore,
};
use std::sync::Arc;

/// Workload with a large write-once region and a small hot region — the
/// shape that makes incremental checkpoints pay (most regions unchanged
/// between generations).
struct BulkApp {
    steps: u64,
}

impl Workload for BulkApp {
    fn name(&self) -> &'static str {
        "bulkapp"
    }

    fn run(&self, env: &mut AppEnv) {
        let world = env.world();
        let n = f64::from(env.nranks());
        let me = f64::from(env.rank());
        let bulk = env.alloc_f64("bulk", 32 << 10); // 256 KiB, written once
        let scal = env.alloc_f64("scal", 2);
        env.work(SimDuration::micros(50), |m| {
            m.with_mut(bulk, |b| {
                for (i, v) in b.iter_mut().enumerate() {
                    *v = me * 1000.0 + i as f64;
                }
            })
        });
        loop {
            if env.peek(scal, |s| s[0]) as u64 >= self.steps {
                break;
            }
            env.begin_step();
            env.work(SimDuration::micros(250), |m| {
                m.with_mut(scal, |s| s[1] += 0.5)
            });
            env.allreduce_arr(world, scal, ReduceOp::Sum);
            env.work(SimDuration::micros(1), |m| {
                m.with_mut(scal, |s| {
                    s[0] = (s[0] / n).round() + 1.0;
                    s[1] /= n;
                })
            });
        }
    }
}

fn app() -> Arc<dyn Workload> {
    Arc::new(BulkApp { steps: 10 })
}

fn base_job() -> JobBuilder {
    JobBuilder::new()
        .cluster(ClusterSpec::cori(2))
        .ranks(4)
        .profile(MpiProfile::cray_mpich())
        .seed(21)
}

/// (wall, app_wall) probe of the uncheckpointed run, for placing
/// checkpoints inside the application window.
fn probe() -> (u64, u64, std::collections::BTreeMap<u32, u64>) {
    let session = ManaSession::builder().store(InMemStore::new()).build();
    let clean = session.run(base_job(), app()).expect("clean run");
    (
        clean.outcome().wall.as_nanos(),
        clean.outcome().app_wall.as_nanos(),
        clean.checksums().clone(),
    )
}

/// Virtual time `frac` of the way through the application window.
fn at(wall: u64, app_wall: u64, frac: f64) -> SimTime {
    SimTime(wall - app_wall + (app_wall as f64 * frac) as u64)
}

#[test]
fn tiered_async_drain_beats_synchronous_lustre() {
    let (wall, app_wall, _) = probe();
    let mid = at(wall, app_wall, 0.5);
    let fs_cfg = FsConfig::default();

    let run = |session: &ManaSession| {
        let killed = session
            .run(base_job().checkpoint_at(mid).then_kill(), app())
            .expect("checkpoint run");
        assert!(killed.killed());
        killed
    };

    let fs_session = ManaSession::builder()
        .store(FsStore::with_config(fs_cfg.clone()))
        .build();
    let fs_killed = run(&fs_session);
    let fs_report = &fs_killed.ckpts()[0];

    let tiered = Arc::new(TieredStore::new(
        TierConfig::burst_buffer(),
        FsStore::with_config(fs_cfg.clone()),
    ));
    let tiered_session = ManaSession::builder()
        .shared_store(tiered.clone() as Arc<dyn CheckpointStore>)
        .build();
    let tiered_killed = run(&tiered_session);
    let tiered_report = &tiered_killed.ckpts()[0];

    // The checkpoint-visible duration covers only the burst-buffer write;
    // the Lustre drain happens on the background clock.
    assert!(
        tiered_report.max_write() < fs_report.max_write(),
        "tiered write {} should be below Lustre write {}",
        tiered_report.max_write(),
        fs_report.max_write()
    );
    assert!(
        tiered_report.total() < fs_report.total(),
        "tiered checkpoint {} should be below Lustre checkpoint {}",
        tiered_report.total(),
        fs_report.total()
    );

    // The job died right after the checkpoint: the drain never finished,
    // so the restart read pays the remaining drain time.
    let some_image = &tiered_killed.checkpoint_images()[0].paths[0];
    assert!(tiered.has_pending_drain(some_image));
    let resumed = tiered_killed
        .restart_on(JobBuilder::new())
        .expect("restart through the tiered store");
    assert!(!resumed.killed());
    assert!(!tiered.has_pending_drain(some_image));
    let fs_resumed = fs_killed.restart_on(JobBuilder::new()).expect("fs restart");
    assert!(
        resumed.restart_report().unwrap().max_read()
            > fs_resumed.restart_report().unwrap().max_read(),
        "restart through an undrained tier must pay the deferred drain"
    );
    assert_eq!(resumed.checksums(), fs_resumed.checksums());
}

#[test]
fn delta_checkpoints_write_measurably_fewer_bytes() {
    let (wall, app_wall, clean_sums) = probe();
    let delta = Arc::new(DeltaStore::new(DeltaConfig::default(), InMemStore::new()));
    let session = ManaSession::builder()
        .shared_store(delta.clone() as Arc<dyn CheckpointStore>)
        .build();
    let killed = session
        .run(
            base_job()
                .checkpoint_at(at(wall, app_wall, 0.4))
                .checkpoint_at(at(wall, app_wall, 0.7))
                .then_kill(),
            app(),
        )
        .expect("two-checkpoint run");
    let images = killed.checkpoint_images();
    assert_eq!(images.len(), 2);

    let stored = |paths: &[String]| -> u64 {
        paths
            .iter()
            .map(|p| delta.logical_len(p).expect("image present"))
            .sum()
    };
    let full = stored(&images[0].paths);
    let incr = stored(&images[1].paths);
    // Between the two checkpoints only the small hot region and protocol
    // metadata changed — the 256 KiB bulk region rides as "unchanged".
    assert!(
        incr * 4 < full,
        "delta generation ({incr} B) should be far below the full one ({full} B)"
    );
    for p in &images[1].paths {
        assert!(delta.is_delta_object(p), "{p} should be a delta");
    }

    // Restarting replays the delta chain back into a working image.
    let resumed = killed.restart_on(JobBuilder::new()).expect("restart");
    assert_eq!(&clean_sums, resumed.checksums(), "delta restart diverged");
}

#[test]
fn gc_keeps_the_last_two_checkpoints_and_restart_succeeds() {
    let (wall, app_wall, clean_sums) = probe();
    let session = ManaSession::builder()
        .store(InMemStore::new())
        .gc(GcPolicy::KeepLast(2))
        .build();
    let inc = session
        .run(
            base_job().checkpoint_times((1..=4).map(|k| at(wall, app_wall, 0.15 * k as f64))),
            app(),
        )
        .expect("four-checkpoint run");
    assert_eq!(inc.ckpts().len(), 4);

    // Exactly two image sets survive: checkpoints 3 and 4.
    assert_eq!(session.surviving_checkpoints(), vec![3, 4]);
    assert_eq!(
        session.store().list().len(),
        2 * 4,
        "2 image sets x 4 ranks"
    );
    assert_eq!(inc.latest_surviving_checkpoint(), Some(4));

    // Restart from the newest survivor completes correctly. (The run
    // continued past its checkpoints, so the restart replays the tail.)
    let resumed = inc.restart_latest(JobBuilder::new()).expect("restart");
    assert!(!resumed.killed());
    assert_eq!(&clean_sums, resumed.checksums(), "restart diverged");
}

#[test]
fn restart_from_a_gcd_checkpoint_is_a_typed_error() {
    use mana_core::SessionError;
    let (wall, app_wall, _) = probe();
    let session = ManaSession::builder()
        .store(InMemStore::new())
        .gc(GcPolicy::KeepLast(2))
        .build();
    session
        .run(
            base_job().checkpoint_times((1..=4).map(|k| at(wall, app_wall, 0.15 * k as f64))),
            app(),
        )
        .expect("four-checkpoint run");

    match session.restart(1, base_job(), app()) {
        Err(SessionError::CheckpointGone {
            ckpt_id, surviving, ..
        }) => {
            assert_eq!(ckpt_id, 1);
            assert_eq!(surviving, vec![3, 4]);
        }
        other => panic!("expected CheckpointGone, got {:?}", other.map(|_| ())),
    }
    // The message names the survivors, so the operator can act on it.
    let msg = match session.restart(1, base_job(), app()) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("restart from a GC'd checkpoint must fail"),
    };
    assert!(msg.contains("[3, 4]"), "survivors missing from: {msg}");
}

#[test]
fn every_backend_round_trips_a_real_checkpoint() {
    let (wall, app_wall, clean_sums) = probe();
    let mid = at(wall, app_wall, 0.5);
    let fs = || FsStore::with_config(FsConfig::default());
    let stores: Vec<(&str, Arc<dyn CheckpointStore>)> = vec![
        (
            "tiered",
            Arc::new(TieredStore::new(TierConfig::burst_buffer(), fs())),
        ),
        (
            "compressing",
            Arc::new(CompressingStore::new(CompressionConfig::default(), fs())),
        ),
        (
            "replicated",
            Arc::new(ReplicatedStore::with_replicas(
                ReplicaConfig::default(),
                3,
                |_| fs(),
            )),
        ),
        (
            "delta",
            Arc::new(DeltaStore::new(DeltaConfig::default(), fs())),
        ),
        (
            "full-stack",
            Arc::new(TieredStore::new(
                TierConfig::burst_buffer(),
                CompressingStore::new(
                    CompressionConfig::default(),
                    DeltaStore::new(DeltaConfig::default(), fs()),
                ),
            )),
        ),
    ];
    for (name, store) in stores {
        let session = ManaSession::builder().shared_store(store).build();
        let killed = session
            .run(base_job().checkpoint_at(mid).then_kill(), app())
            .unwrap_or_else(|e| panic!("{name}: checkpoint run failed: {e}"));
        assert!(killed.killed(), "{name}: job should die after checkpoint");
        let resumed = killed
            .restart_on(JobBuilder::new())
            .unwrap_or_else(|e| panic!("{name}: restart failed: {e}"));
        assert_eq!(
            &clean_sums,
            resumed.checksums(),
            "{name}: checkpoint round-trip diverged"
        );
    }
}
