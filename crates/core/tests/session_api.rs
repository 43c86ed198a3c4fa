//! Session-API lifecycle tests: in-memory checkpoint round-trips (no
//! `ParallelFs` involved), lifecycle hooks, image addressing, and the
//! typed error surface of the restart path.

use mana_core::error::SessionError;
use mana_core::restart::RestartError;
use mana_core::{AppEnv, InMemStore, JobBuilder, ManaSession, Workload};
use mana_mpi::{MpiProfile, ReduceOp};
use mana_sim::cluster::ClusterSpec;
use mana_sim::fs::IoShape;
use mana_sim::time::{SimDuration, SimTime};
use parking_lot::Mutex;
use std::sync::Arc;

/// Small deterministic workload: managed state + collectives each step.
struct MiniApp {
    steps: u64,
}

impl Workload for MiniApp {
    fn name(&self) -> &'static str {
        "miniapp"
    }

    fn run(&self, env: &mut AppEnv) {
        let world = env.world();
        let n = env.nranks();
        let me = env.rank();
        let field = env.alloc_f64("field", 32);
        let scal = env.alloc_f64("scal", 2);
        env.work(SimDuration::micros(5), |m| {
            m.with_mut(field, |f| {
                for (i, v) in f.iter_mut().enumerate() {
                    *v = f64::from(me) * 10.0 + i as f64;
                }
            });
        });
        loop {
            if env.peek(scal, |s| s[0]) as u64 >= self.steps {
                break;
            }
            env.begin_step();
            env.work(SimDuration::micros(250), |m| {
                m.with_mut(field, |f| {
                    for v in f.iter_mut() {
                        *v = 0.75 * *v + 1.0;
                    }
                });
            });
            env.allreduce_arr(world, scal, ReduceOp::Sum);
            env.work(SimDuration::micros(1), |m| {
                m.with_mut(scal, |s| {
                    s[0] = (s[0] / f64::from(n)).round() + 1.0;
                });
            });
        }
    }
}

fn app() -> Arc<dyn Workload> {
    Arc::new(MiniApp { steps: 10 })
}

fn mem_session() -> ManaSession {
    ManaSession::builder().store(InMemStore::new()).build()
}

fn base_job() -> JobBuilder {
    JobBuilder::new()
        .cluster(ClusterSpec::cori(2))
        .ranks(4)
        .profile(MpiProfile::cray_mpich())
        .seed(12)
}

/// Probe the run and return a checkpoint time in the middle of the
/// application window.
fn midpoint(session: &ManaSession) -> SimTime {
    let probe = session.run(base_job(), app()).expect("probe run");
    SimTime(probe.outcome().wall.as_nanos() - probe.outcome().app_wall.as_nanos() / 2)
}

#[test]
fn in_mem_store_checkpoint_roundtrip() {
    // The full checkpoint→kill→restart chain against InMemStore: no
    // ParallelFs anywhere, and I/O costs nothing.
    let session = mem_session();
    let clean = session.run(base_job(), app()).expect("clean run");
    let mid = SimTime(clean.outcome().wall.as_nanos() - clean.outcome().app_wall.as_nanos() / 2);
    let killed = session
        .run(base_job().checkpoint_at(mid).then_kill(), app())
        .expect("checkpoint run");
    assert!(killed.killed());
    let report = &killed.ckpts()[0];
    // Zero-latency storage: the write contributes nothing to ckpt time.
    assert_eq!(report.max_write(), SimDuration::ZERO);

    let resumed = killed
        .restart_on(
            JobBuilder::new()
                .cluster(ClusterSpec::local_cluster(2))
                .profile(MpiProfile::open_mpi()),
        )
        .expect("restart");
    assert!(!resumed.killed());
    assert_eq!(
        clean.checksums(),
        resumed.checksums(),
        "round-trip diverged"
    );
    let report = resumed.restart_report().expect("restart stats");
    assert_eq!(report.max_read(), SimDuration::ZERO);

    // The images are addressable through the incarnation handle and live
    // in the in-memory store.
    let images = killed.checkpoint_images();
    assert_eq!(images.len(), 1);
    assert_eq!(images[0].paths.len(), 4);
    for p in &images[0].paths {
        assert!(session.store().exists(p), "missing image {p}");
    }
}

#[test]
fn hooks_fire_per_lifecycle_event() {
    let ckpts: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let restarts: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let (c2, r2) = (ckpts.clone(), restarts.clone());
    let session = ManaSession::builder()
        .store(InMemStore::new())
        .on_checkpoint(move |e| c2.lock().push((e.incarnation, e.report.ckpt_id)))
        .on_restart(move |e| {
            assert!(e.report.total >= SimDuration::ZERO);
            r2.lock().push(e.incarnation)
        })
        .build();

    let mid = midpoint(&session); // incarnation 0 (probe)
    let killed = session
        .run(base_job().checkpoint_at(mid).then_kill(), app()) // incarnation 1
        .expect("checkpoint run");
    assert_eq!(*ckpts.lock(), vec![(1, 1)]);
    assert!(restarts.lock().is_empty());

    let resumed = killed.restart_on(JobBuilder::new()).expect("restart"); // incarnation 2
    assert_eq!(*restarts.lock(), vec![2]);
    assert_eq!(resumed.index(), 2);

    // Session-wide stats aggregate the chain.
    assert_eq!(session.checkpoints().len(), 1);
    assert_eq!(session.restarts().len(), 1);
}

#[test]
fn restart_without_checkpoint_is_a_typed_error() {
    let session = mem_session();
    let clean = session.run(base_job(), app()).expect("clean run");
    assert!(clean.latest_checkpoint().is_none());
    match clean.restart_on(JobBuilder::new()) {
        Err(SessionError::NoCheckpoint { incarnation }) => assert_eq!(incarnation, 0),
        other => panic!("expected NoCheckpoint, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn missing_image_is_a_typed_error() {
    let session = mem_session();
    match session.restart(99, base_job(), app()) {
        Err(SessionError::Restart(RestartError::MissingImage {
            rank,
            ckpt_id,
            path,
            ..
        })) => {
            assert_eq!(rank, 0);
            assert_eq!(ckpt_id, 99);
            assert!(path.contains("ckpt_99"), "{path}");
        }
        other => panic!("expected MissingImage, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn world_size_mismatch_is_a_typed_error() {
    let session = mem_session();
    let mid = midpoint(&session);
    let killed = session
        .run(base_job().checkpoint_at(mid).then_kill(), app())
        .expect("checkpoint run");
    // Elastic *placement* is fine, but changing the world size is not:
    // MANA pins it in the image (paper §2.1).
    match session.restart(1, base_job().ranks(8), app()) {
        Err(SessionError::Restart(RestartError::WorldSizeMismatch { image, requested })) => {
            assert_eq!(image, 4);
            assert_eq!(requested, 8);
        }
        other => panic!("expected WorldSizeMismatch, got {:?}", other.map(|_| ())),
    }
    drop(killed);
}

#[test]
fn corrupt_image_is_a_typed_error() {
    let session = mem_session();
    let mid = midpoint(&session);
    let killed = session
        .run(base_job().checkpoint_at(mid).then_kill(), app())
        .expect("checkpoint run");
    // Vandalize rank 2's image in the store.
    let path = &killed.checkpoint_images()[0].paths[2];
    let shape = IoShape {
        writers_on_node: 1,
        total_writers: 1,
    };
    let (bytes, _) = session.store().get(path, 2, shape).expect("stored image");
    let mut bad = bytes.to_vec();
    bad[0] ^= 0xFF; // break the magic
    session.store().put(path, bad.into(), 1, 2, shape);

    match killed.restart_on(JobBuilder::new()) {
        Err(SessionError::Restart(RestartError::CorruptImage { rank, path: p, .. })) => {
            assert_eq!(rank, 2);
            assert_eq!(&p, path);
        }
        other => panic!("expected CorruptImage, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn checkpoint_ids_are_unique_across_the_chain() {
    // Two checkpointing incarnations sharing one directory: the session
    // assigns chain-unique ids, so the first incarnation's images are
    // still addressable after the second one checkpoints.
    let session = mem_session();
    let mid = midpoint(&session);
    let first = session
        .run(base_job().checkpoint_at(mid).then_kill(), app())
        .expect("first checkpoint run");
    // Probe the restarted run to land the second checkpoint mid-way
    // through the *resumed* half.
    let probe = first.restart_on(JobBuilder::new()).expect("restart probe");
    let mid2 = SimTime(probe.outcome().wall.as_nanos() - probe.outcome().app_wall.as_nanos() / 2);
    let second = first
        .restart_on(JobBuilder::new().checkpoint_at(mid2).then_kill())
        .expect("second checkpoint run");
    assert!(second.killed());

    let (id1, id2) = (
        first.latest_checkpoint().unwrap(),
        second.latest_checkpoint().unwrap(),
    );
    assert_ne!(id1, id2, "checkpoint ids collided across incarnations");
    // Both generations' images coexist in the store.
    for inc in [&first, &second] {
        for p in &inc.checkpoint_images()[0].paths {
            assert!(session.store().exists(p), "missing image {p}");
        }
    }
    // And the older generation is still restartable by id.
    let resumed = session
        .restart(id1, base_job(), app())
        .expect("restart from first generation");
    assert!(!resumed.killed());
}

#[test]
fn sessions_share_store_across_clones() {
    let session = mem_session();
    let clone = session.clone();
    let mid = midpoint(&session);
    let killed = session
        .run(base_job().checkpoint_at(mid).then_kill(), app())
        .expect("checkpoint run");
    // The clone sees the same store and stats.
    assert!(!clone.store().list().is_empty());
    assert_eq!(clone.checkpoints().len(), 1);
    drop(killed);
}

/// `MiniApp` that also records when the application window opens: the
/// earliest instant any rank of the current incarnation enters `run`.
struct Timed {
    opened: Mutex<Option<SimTime>>,
}

impl Workload for Timed {
    fn name(&self) -> &'static str {
        "miniapp"
    }

    fn run(&self, env: &mut AppEnv) {
        let now = env.thread().now();
        {
            let mut opened = self.opened.lock();
            *opened = Some(opened.map_or(now, |t| t.min(now)));
        }
        MiniApp { steps: 10 }.run(env)
    }
}

/// A timed app, and a reader that takes (and clears) its window start.
fn timed() -> (Arc<Timed>, impl Fn() -> SimTime) {
    let app = Arc::new(Timed {
        opened: Mutex::new(None),
    });
    let reader = app.clone();
    (app, move || {
        reader.opened.lock().take().expect("the app ran")
    })
}

/// Asserts `ckpts` begin `interval` after `opened`, then each `interval`
/// after the previous one's end, with consecutive ids from `first_id`.
fn assert_interval(
    ckpts: &[mana_core::CkptReport],
    opened: SimTime,
    interval: SimDuration,
    first_id: u64,
) {
    let mut anchor = opened;
    for (i, c) in ckpts.iter().enumerate() {
        assert_eq!(
            c.t_begin,
            anchor + interval,
            "checkpoint {i} begins an interval late"
        );
        assert_eq!(c.ckpt_id, first_id + i as u64);
        anchor = c.t_end;
    }
}

#[test]
fn an_interval_schedule_checkpoints_from_the_application_start() {
    let session = mem_session();
    let (app, opened) = timed();
    let clean = session.run(base_job(), app.clone()).expect("clean run");
    opened();
    let interval = SimDuration::nanos(clean.outcome().app_wall.as_nanos() / 5);

    let run = session
        .run(base_job().checkpoint_every(interval, 3), app.clone())
        .expect("interval run");
    assert!(!run.killed());
    assert_eq!(run.ckpts().len(), 3);
    assert_interval(&run.ckpts(), opened(), interval, 1);
    assert_eq!(run.checksums(), clean.checksums());

    // then_kill() ends the job after the last of the three.
    let killed = session
        .run(
            base_job().checkpoint_every(interval, 3).then_kill(),
            app.clone(),
        )
        .expect("interval run, killed");
    assert!(killed.killed());
    assert_eq!(killed.ckpts().len(), 3);
    assert_interval(&killed.ckpts(), opened(), interval, 4);

    // Nothing would run the schedule natively.
    assert!(matches!(
        session.run_native(base_job().checkpoint_every(interval, 3), app),
        Err(SessionError::InvalidSpec(_))
    ));
}

#[test]
fn a_schedule_that_outlasts_its_job_names_the_checkpoints_it_skipped() {
    let session = mem_session();
    let (app, opened) = timed();
    let clean = session.run(base_job(), app.clone()).expect("clean run");
    opened();
    let interval = SimDuration::nanos(clean.outcome().app_wall.as_nanos() / 5);

    // Twelve intervals cannot fit in a job five intervals long.
    let short = session
        .run(base_job().checkpoint_every(interval, 12), app.clone())
        .expect("interval run");
    let taken = short.ckpts().len() as u64;
    assert!((1..12).contains(&taken), "took {taken} of 12 checkpoints");
    assert_interval(&short.ckpts(), opened(), interval, 1);
    assert_eq!(short.unused_checkpoint_ids(), 1 + taken..13);
    assert_eq!(short.checksums(), clean.checksums());

    // A schedule that fits leaves none, after the twelve ids reserved.
    let fits = session
        .run(base_job().checkpoint_every(interval, 2), app)
        .expect("interval run");
    assert_eq!(fits.ckpts().len(), 2);
    assert!(fits.unused_checkpoint_ids().is_empty());
    assert_eq!(fits.unused_checkpoint_ids().start, 15);
}

#[test]
fn a_restart_takes_an_interval_only_when_asked() {
    let session = mem_session();
    let (app, opened) = timed();
    let clean = session.run(base_job(), app.clone()).expect("clean run");
    opened();
    let interval = SimDuration::nanos(clean.outcome().app_wall.as_nanos() / 5);
    let killed = session
        .run(
            base_job().checkpoint_every(interval, 2).then_kill(),
            app.clone(),
        )
        .expect("interval run, killed");
    opened();

    // restart_on and restart_with inherit everything but the schedule.
    let plain = killed.restart_on(JobBuilder::new()).expect("plain restart");
    assert!(
        plain.ckpts().is_empty(),
        "restart_on inherited the interval"
    );
    assert_eq!(plain.checksums(), clean.checksums());
    opened();
    let plain = killed
        .restart_with(JobBuilder::new(), app.clone())
        .expect("plain restart");
    assert!(
        plain.ckpts().is_empty(),
        "restart_with inherited the interval"
    );
    opened();

    // Given one, the resumed incarnation counts it from its own start.
    let resumed = killed
        .restart_on(JobBuilder::new().checkpoint_every(interval, 2))
        .expect("interval restart");
    assert_eq!(resumed.ckpts().len(), 2);
    assert_interval(&resumed.ckpts(), opened(), interval, 3);
    assert_eq!(resumed.checksums(), clean.checksums());
}

#[test]
fn a_restart_killed_before_its_application_starts_gives_its_ids_back() {
    use mana_core::chaos::{ChaosHandle, FaultInjector, RestartPoint};
    use mana_core::restart::RestartError;

    /// Kills rank 0 at resync in the chain's first restart attempt.
    struct FirstResync;
    impl FaultInjector for FirstResync {
        fn restart_fault(&self, restart_attempt: u64, rank: u32, point: RestartPoint) -> bool {
            restart_attempt == 0 && rank == 0 && point == RestartPoint::Resync
        }
    }

    let session = mem_session();
    let interval = SimDuration::micros(500);
    let killed = session
        .run(
            base_job()
                .chaos(ChaosHandle::new(FirstResync))
                .checkpoint_every(interval, 1)
                .then_kill(),
            app(),
        )
        .expect("interval run, killed");
    assert_eq!(killed.latest_checkpoint(), Some(1));

    let job = || JobBuilder::new().checkpoint_every(interval, 2);
    match killed.restart_on(job()) {
        Err(SessionError::Restart(RestartError::Interrupted { rank: 0, .. })) => {}
        other => panic!(
            "expected an interrupted restart, got {:?}",
            other.map(|_| ())
        ),
    }
    // The failed attempt reserved ids 2 and 3 and gave them back.
    let resumed = killed.restart_on(job()).expect("second restart");
    let ids: Vec<u64> = resumed.ckpts().iter().map(|c| c.ckpt_id).collect();
    assert_eq!(ids, [2, 3]);
}
