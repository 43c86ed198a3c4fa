//! End-to-end coverage of the staged restart pipeline: per-stage
//! reporting, record-log compaction on a churning app, typed replay
//! divergence (no panics), and backward decode of v1 images.

use mana::apps::CommChurn;
use mana::core::image::CheckpointImage;
use mana::core::{
    Incarnation, JobBuilder, ManaSession, RestartError, RestartStage, SessionError, Workload,
};
use mana::mpi::MpiProfile;
use mana::sim::cluster::ClusterSpec;
use mana::sim::fs::IoShape;
use mana::sim::time::SimTime;
use std::sync::Arc;

const SHAPE: IoShape = IoShape {
    writers_on_node: 1,
    total_writers: 1,
};

fn churn_app() -> Arc<dyn Workload> {
    Arc::new(CommChurn {
        steps: 5,
        churn: 8,
        ..CommChurn::default()
    })
}

fn job() -> JobBuilder {
    JobBuilder::new()
        .cluster(ClusterSpec::local_cluster(2))
        .ranks(4)
        .profile(MpiProfile::open_mpi())
        .seed(11)
}

/// Run the app clean, then checkpoint-and-kill mid-run at `frac` of the
/// application window.
fn clean_and_killed(
    session: &ManaSession,
    app: &Arc<dyn Workload>,
    frac: f64,
    compact: bool,
) -> (Incarnation, Incarnation) {
    let clean = session
        .run(job().compact_log(compact), app.clone())
        .unwrap();
    let wall = clean.outcome().wall.as_nanos();
    let aw = clean.outcome().app_wall.as_nanos();
    let at = SimTime(wall - aw + (aw as f64 * frac) as u64);
    let killed = session
        .run(
            job().compact_log(compact).checkpoint_at(at).then_kill(),
            app.clone(),
        )
        .unwrap();
    assert!(killed.killed());
    (clean, killed)
}

#[test]
fn staged_restart_reports_every_stage_and_compacts_the_log() {
    // Lustre-like FsStore so the image-read stage has a nonzero duration.
    let session = ManaSession::new();
    let app = churn_app();
    let (clean, killed) = clean_and_killed(&session, &app, 0.85, true);

    let ckpt = killed.ckpts().pop().expect("one checkpoint");
    for r in &ckpt.ranks {
        assert!(
            r.log_retained < r.log_recorded,
            "rank {}: churned log must compact ({} recorded, {} retained)",
            r.rank,
            r.log_recorded,
            r.log_retained
        );
        assert!(
            r.log_retained * 2 < r.log_recorded,
            "rank {}: compaction should elide most of the churn ({}/{})",
            r.rank,
            r.log_retained,
            r.log_recorded
        );
    }

    let resumed = killed.restart_on(JobBuilder::new()).unwrap();
    assert_eq!(
        clean.checksums(),
        resumed.checksums(),
        "restart from a compacted log diverged"
    );
    let report = resumed.restart_report().expect("restart report").clone();
    assert_eq!(report.ranks.len(), 4);
    for r in &report.ranks {
        // Every pipeline stage was executed and recorded, in order.
        let recorded: Vec<RestartStage> = r.stages.iter().map(|(s, _)| *s).collect();
        assert_eq!(recorded, RestartStage::ALL.to_vec(), "rank {}", r.rank);
        assert!(r.replayed_calls > 0, "rank {} replayed nothing", r.rank);
    }
    // The breakdown sums (per rank) to at most the restart total, and the
    // legacy accessors keep working.
    assert!(report.max_read() > mana::sim::time::SimDuration::ZERO);
    assert!(report.max_stage(RestartStage::Resync) > mana::sim::time::SimDuration::ZERO);
    let per_rank_sum: u64 = report.ranks[0]
        .stages
        .iter()
        .map(|(_, d)| d.as_nanos())
        .sum();
    assert!(per_rank_sum <= report.total.as_nanos());
    assert!(
        report.total_pages_shared() > 0,
        "restore installed no shared pages — the zero-copy path is dead"
    );
}

#[test]
fn restart_surfaces_the_lowest_failing_rank() {
    // Two damaged rank images: the restart must report the lowest
    // failing rank's error.
    let session = ManaSession::builder()
        .store(mana::core::InMemStore::new())
        .build();
    let app = churn_app();
    let (_, killed) = clean_and_killed(&session, &app, 0.6, true);
    let ckpt_id = killed.latest_checkpoint().expect("ckpt id");
    let spec = killed.spec();
    let store = session.store();
    for rank in [1u32, 3] {
        let path = spec.cfg.image_path(ckpt_id, rank);
        let (bytes, _) = store.get(&path, u64::from(rank), SHAPE).unwrap();
        let mut bad = bytes.to_vec();
        bad[0] ^= 0xFF; // break the magic
        let len = bad.len() as u64;
        store.remove(&path);
        store.put(&path, bad.into(), len, u64::from(rank), SHAPE);
    }
    match killed.restart_on(JobBuilder::new()) {
        Err(SessionError::Restart(RestartError::CorruptImage { rank, .. })) => {
            assert_eq!(rank, 1, "must surface the lowest failing rank");
        }
        other => panic!(
            "expected typed CorruptImage, got {:?}",
            other.map(|i| i.index())
        ),
    }
}

#[test]
fn replay_divergence_is_a_typed_error_not_a_panic() {
    let session = ManaSession::builder()
        .store(mana::core::InMemStore::new())
        .build();
    let app = churn_app();
    let (_, killed) = clean_and_killed(&session, &app, 0.6, true);
    let ckpt_id = killed.latest_checkpoint().expect("ckpt id");
    let spec = killed.spec();
    let store = session.store();

    // Tamper rank 0's image: append a free of a virtual id nothing ever
    // created. Replay must surface a typed divergence for rank 0 at that
    // entry — and tear the whole restart down cleanly.
    let path = spec.cfg.image_path(ckpt_id, 0);
    let (bytes, _) = store.get(&path, 0, SHAPE).unwrap();
    let mut img = CheckpointImage::decode_shared(&bytes).unwrap().0;
    let tampered_index = img.log.len();
    img.log
        .push(mana::core::record::LoggedCall::CommFree { comm: 0xDEAD_BEEF });
    let encoded = img.encode().into_vec();
    let logical = encoded.len() as u64;
    store.remove(&path);
    store.put(&path, encoded.into(), logical, 0, SHAPE);

    match killed.restart_on(JobBuilder::new()) {
        Err(SessionError::Restart(RestartError::ReplayDivergence {
            rank,
            call_index,
            expected,
            ..
        })) => {
            assert_eq!(rank, 0);
            assert_eq!(call_index, tampered_index);
            assert!(expected.contains("0xdeadbeef"), "{expected}");
        }
        other => panic!(
            "expected typed ReplayDivergence, got {:?}",
            other.map(|i| i.index())
        ),
    }
}

#[test]
fn unbound_live_virtual_is_detected() {
    let session = ManaSession::builder()
        .store(mana::core::InMemStore::new())
        .build();
    let app = churn_app();
    let (_, killed) = clean_and_killed(&session, &app, 0.6, true);
    let ckpt_id = killed.latest_checkpoint().expect("ckpt id");
    let spec = killed.spec();
    let store = session.store();

    // Claim a live datatype the (compacted) log never recreates: replay
    // finishes, but the rebind verification must flag the unbound id.
    let path = spec.cfg.image_path(ckpt_id, 0);
    let (bytes, _) = store.get(&path, 0, SHAPE).unwrap();
    let mut img = CheckpointImage::decode_shared(&bytes).unwrap().0;
    img.dtypes.push(0x3000_7777);
    let encoded = img.encode().into_vec();
    let logical = encoded.len() as u64;
    store.remove(&path);
    store.put(&path, encoded.into(), logical, 0, SHAPE);

    match killed.restart_on(JobBuilder::new()) {
        Err(SessionError::Restart(RestartError::UnboundVirtual { rank, virt, .. })) => {
            assert_eq!(rank, 0);
            assert_eq!(virt, 0x3000_7777);
        }
        other => panic!(
            "expected typed UnboundVirtual, got {:?}",
            other.map(|i| i.index())
        ),
    }
}

#[test]
fn inconsistent_image_contents_are_typed_errors() {
    // Decodable but internally inconsistent: a pending collective naming
    // a communicator the image does not carry must be a typed
    // MalformedImage, not an in-sim panic.
    let session = ManaSession::builder()
        .store(mana::core::InMemStore::new())
        .build();
    let app = churn_app();
    let (_, killed) = clean_and_killed(&session, &app, 0.6, true);
    let ckpt_id = killed.latest_checkpoint().expect("ckpt id");
    let spec = killed.spec();
    let store = session.store();

    let path = spec.cfg.image_path(ckpt_id, 1);
    let (bytes, _) = store.get(&path, 1, SHAPE).unwrap();
    let mut img = CheckpointImage::decode_shared(&bytes).unwrap().0;
    img.pending.push(mana::core::image::PendingColl {
        vreq: 0x4000_0099,
        comm_virt: 0x1000_9999,
        kind: mana::core::image::PendingKind::Ibarrier,
    });
    let encoded = img.encode().into_vec();
    let logical = encoded.len() as u64;
    store.remove(&path);
    store.put(&path, encoded.into(), logical, 1, SHAPE);

    match killed.restart_on(JobBuilder::new()) {
        Err(SessionError::Restart(RestartError::MalformedImage { rank, why })) => {
            assert_eq!(rank, 1);
            assert!(why.contains("0x10009999"), "{why}");
        }
        other => panic!(
            "expected typed MalformedImage, got {:?}",
            other.map(|i| i.index())
        ),
    }
}

#[test]
fn v1_images_restart_through_the_new_pipeline() {
    // A checkpoint written in the old format (full log, no rebind map, no
    // world id, no CommGroup membership) must still restart — the decoder
    // derives what v1 lacks. Use a mid-compute checkpoint so the
    // interrupted step has no mid-step creations (v1 cannot carry the
    // handle ledger).
    let session = ManaSession::builder()
        .store(mana::core::InMemStore::new())
        .build();
    let app: Arc<dyn Workload> = Arc::new(CommChurn {
        steps: 4,
        churn: 4,
        ..CommChurn::default()
    });
    // Land just inside a step's long compute op (frac chosen within the
    // first op of a step).
    let (clean, killed) = clean_and_killed(&session, &app, 0.52, false);
    let ckpt_id = killed.latest_checkpoint().expect("ckpt id");
    let spec = killed.spec();
    let store = session.store();
    for rank in 0..spec.nranks {
        let path = spec.cfg.image_path(ckpt_id, rank);
        let (bytes, _) = store.get(&path, u64::from(rank), SHAPE).unwrap();
        let img = CheckpointImage::decode_shared(&bytes).unwrap().0;
        assert!(
            img.step_created.is_empty(),
            "rank {rank}: pick a frac that lands mid-compute (ledger {:?})",
            img.step_created
        );
        let v1 = img.encode_with_version(1);
        store.remove(&path);
        let len = v1.len() as u64;
        store.put(&path, v1.into(), len, u64::from(rank), SHAPE);
    }
    let resumed = killed.restart_on(JobBuilder::new()).unwrap();
    assert_eq!(
        clean.checksums(),
        resumed.checksums(),
        "v1-image restart diverged"
    );
}
