//! End-to-end coverage of the staged restart pipeline: per-stage
//! reporting, record-log compaction on a churning app, typed replay
//! divergence (no panics), and typed refusal of images at another format
//! version.

use mana::apps::CommChurn;
use mana::core::codec::CodecError;
use mana::core::image::{CheckpointImage, ImageBytes};
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

/// Run the app clean, then checkpoint at each of `fracs` of the
/// application window and kill the job after the last one.
fn clean_and_killed(
    session: &ManaSession,
    app: &Arc<dyn Workload>,
    fracs: &[f64],
) -> (Incarnation, Incarnation) {
    let clean = session.run(job(), app.clone()).unwrap();
    let wall = clean.outcome().wall.as_nanos();
    let aw = clean.outcome().app_wall.as_nanos();
    let at = |frac: &f64| SimTime(wall - aw + (aw as f64 * frac) as u64);
    let killed = session
        .run(
            job().checkpoint_times(fracs.iter().map(at)).then_kill(),
            app.clone(),
        )
        .unwrap();
    assert!(killed.killed());
    (clean, killed)
}

/// Rewrite the wire bytes of `rank`'s image of checkpoint `ckpt_id`.
fn rewrite(
    session: &ManaSession,
    killed: &Incarnation,
    ckpt_id: u64,
    rank: u32,
    f: impl FnOnce(&mut Vec<u8>),
) {
    let store = session.store();
    let path = killed.spec().cfg.image_path(ckpt_id, rank);
    let (bytes, _) = store.get(&path, u64::from(rank), SHAPE).unwrap();
    let mut bytes = bytes.to_vec();
    f(&mut bytes);
    let len = bytes.len() as u64;
    store.remove(&path);
    store.put(&path, bytes.into(), len, u64::from(rank), SHAPE);
}

/// Edit `rank`'s image of the newest checkpoint, decoded.
fn tamper(
    session: &ManaSession,
    killed: &Incarnation,
    rank: u32,
    f: impl FnOnce(&mut CheckpointImage),
) {
    let newest = killed.latest_checkpoint().expect("ckpt id");
    rewrite(session, killed, newest, rank, |bytes| {
        let flat = ImageBytes::from_vec(std::mem::take(bytes));
        let mut img = CheckpointImage::decode_shared(&flat).unwrap().0;
        f(&mut img);
        *bytes = img.encode().into_vec();
    });
}

#[test]
fn staged_restart_reports_every_stage_and_compacts_the_log() {
    // Lustre-like FsStore so the image-read stage has a nonzero duration.
    let session = ManaSession::new();
    let app = churn_app();
    let (clean, killed) = clean_and_killed(&session, &app, &[0.85]);

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
    let (_, killed) = clean_and_killed(&session, &churn_app(), &[0.6]);
    let ckpt_id = killed.latest_checkpoint().expect("ckpt id");
    for rank in [1u32, 3] {
        rewrite(&session, &killed, ckpt_id, rank, |bad| bad[0] ^= 0xFF); // break the magic
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
    let (_, killed) = clean_and_killed(&session, &churn_app(), &[0.6]);

    // Tamper rank 0's image: append a free of a virtual id nothing ever
    // created. Replay must surface a typed divergence for rank 0 at that
    // entry — and tear the whole restart down cleanly.
    let mut tampered_index = 0;
    tamper(&session, &killed, 0, |img| {
        tampered_index = img.log.len();
        img.log
            .push(mana::core::record::LoggedCall::CommFree { comm: 0xDEAD_BEEF });
    });

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
    let (_, killed) = clean_and_killed(&session, &churn_app(), &[0.6]);

    // Claim a live datatype the (compacted) log never recreates: replay
    // finishes, but the rebind verification must flag the unbound id.
    tamper(&session, &killed, 0, |img| img.dtypes.push(0x3000_7777));

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
    let (_, killed) = clean_and_killed(&session, &churn_app(), &[0.6]);
    tamper(&session, &killed, 1, |img| {
        img.pending.push(mana::core::image::PendingColl {
            vreq: 0x4000_0099,
            comm_virt: 0x1000_9999,
        })
    });

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
fn old_format_images_fail_typed_and_fall_back() {
    // An image at an older format version has no reader: restarting from
    // it is a typed CorruptImage naming the version, and recovery falls
    // back to the older intact checkpoint.
    let session = ManaSession::builder()
        .store(mana::core::InMemStore::new())
        .build();
    let (clean, killed) = clean_and_killed(&session, &churn_app(), &[0.35, 0.7]);
    assert_eq!(killed.ckpts().len(), 2, "need an older intact checkpoint");
    let newest = killed.latest_checkpoint().expect("ckpt id");
    for rank in 0..killed.spec().nranks {
        // The version field sits right after the 8-byte magic.
        rewrite(&session, &killed, newest, rank, |old| {
            old[8..12].copy_from_slice(&2u32.to_le_bytes())
        });
    }
    match killed.restart_on(JobBuilder::new()) {
        Err(SessionError::Restart(RestartError::CorruptImage {
            source: CodecError::BadVersion(2),
            ..
        })) => {}
        other => panic!(
            "expected CorruptImage(BadVersion(2)), got {:?}",
            other.map(|i| i.index())
        ),
    }
    let resumed = killed
        .restart_latest(JobBuilder::new())
        .expect("restart must fall back to the intact older checkpoint");
    assert_eq!(
        clean.checksums(),
        resumed.checksums(),
        "recovery from the older checkpoint diverged"
    );
}
