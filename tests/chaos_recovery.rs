//! Chaos and crash-consistency at the facade level: the memento property
//! under random fault schedules, and typed (never panicking) handling of
//! torn or truncated images on a plain filesystem store — no journal to
//! catch the damage, so the restart pipeline itself must.

use mana::apps::{make_app_small, AppKind};
use mana::chaos::ChaosHarness;
use mana::core::config::TopologyKind;
use mana::core::{Incarnation, JobBuilder, ManaSession, RestartError, SessionError, Workload};
use mana::sim::cluster::ClusterSpec;
use mana::sim::fs::IoShape;
use mana::sim::time::SimTime;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The memento property, property-tested: whatever world shape the
    // strategy draws (application follows the seed; flat or tree
    // control plane; one or two nodes; one or two store replicas) and
    // whatever faults the plan derives from the seed, the chain ends
    // in exactly the fault-free final state.
    #[test]
    fn any_seeded_fault_schedule_heals(
        seed in 0u64..10_000,
        faults in 1usize..4,
        tree in any::<bool>(),
        nodes in 1u32..3,
        replicas in 1usize..3,
    ) {
        let mut h = ChaosHarness::new(seed, faults);
        h.topology = if tree { TopologyKind::Tree } else { TopologyKind::Flat };
        h.nodes = nodes;
        h.replicas = replicas;
        let report = h.run();
        prop_assert!(
            report.healed(),
            "seed {} over {:?} did not heal:\n{}",
            seed,
            h.shape(),
            report
        );
    }
}

const SHAPE: IoShape = IoShape {
    writers_on_node: 1,
    total_writers: 1,
};

fn job() -> JobBuilder {
    JobBuilder::new()
        .cluster(ClusterSpec::local_cluster(2))
        .ranks(4)
        .seed(3)
}

fn app() -> Arc<dyn Workload> {
    make_app_small(AppKind::Hpcg, 5)
}

/// Clean run plus a two-checkpoint killed run on `session`.
fn clean_and_killed(session: &ManaSession) -> (Incarnation, Incarnation) {
    let clean = session.run(job(), app()).unwrap();
    let wall = clean.outcome().wall.as_nanos();
    let aw = clean.outcome().app_wall.as_nanos();
    let at = |frac: f64| SimTime(wall - aw + (aw as f64 * frac) as u64);
    let killed = session
        .run(
            job().checkpoint_times([at(0.35), at(0.7)]).then_kill(),
            app(),
        )
        .unwrap();
    assert!(killed.killed());
    assert_eq!(killed.ckpts().len(), 2, "need two survivors to damage one");
    (clean, killed)
}

/// Truncate `rank`'s image of checkpoint `ckpt_id` to a prefix — what a
/// writer dying mid-`put` leaves on a store with no journal framing.
fn truncate_image(
    session: &ManaSession,
    killed: &Incarnation,
    ckpt_id: u64,
    rank: u32,
    keep: usize,
) {
    let store = session.store();
    let path = killed.spec().cfg.image_path(ckpt_id, rank);
    let (bytes, _) = store.get(&path, u64::from(rank), SHAPE).unwrap();
    let mut torn = bytes.to_vec();
    torn.truncate(keep);
    let len = torn.len() as u64;
    store.remove(&path);
    store.put(&path, torn.into(), len, u64::from(rank), SHAPE);
}

/// Satellite: a torn (truncated) image on a plain `FsStore` — the
/// newest checkpoint is damaged, so `restart_latest` must skip it and
/// recover from the previous survivor, reaching the clean checksums.
#[test]
fn truncated_image_on_fs_store_restart_skips_to_survivor() {
    let session = ManaSession::new(); // Lustre-like FsStore, no journal
    let (clean, killed) = clean_and_killed(&session);
    let newest = killed.latest_checkpoint().unwrap();

    truncate_image(&session, &killed, newest, 2, 40);
    // A second flavor of damage on another rank: a zero-length object.
    truncate_image(&session, &killed, newest, 1, 0);

    let resumed = killed
        .restart_latest(JobBuilder::new())
        .expect("restart must fall back to the intact older checkpoint");
    assert_eq!(
        clean.checksums(),
        resumed.checksums(),
        "recovery from the surviving checkpoint diverged"
    );
}

/// A torn *scatter* envelope behaves exactly like the flat-era tear: the
/// journal's scatter get surfaces a typed `Torn`, the object reads as
/// absent, and `restart_latest` falls back to the intact survivor.
#[test]
fn torn_scatter_envelope_is_typed_and_falls_back() {
    use mana::core::chaos::{ChaosHandle, FaultInjector};
    use mana::core::error::StoreError;
    use mana::core::store::CheckpointStore;
    use mana::store::JournaledStore;

    /// Arms nothing itself: the test tears a write through `arm_torn`.
    struct NoFaults;
    impl FaultInjector for NoFaults {}

    // The arming handle stays with the store; the job never sees it.
    let chaos = ChaosHandle::new(NoFaults);
    let store =
        Arc::new(JournaledStore::new(mana::core::InMemStore::new()).with_chaos(chaos.clone()));
    let session = ManaSession::builder().store(store.clone()).build();
    let (clean, killed) = clean_and_killed(&session);
    let newest = killed.latest_checkpoint().unwrap();
    let path = killed.spec().cfg.image_path(newest, 2);

    // Re-publish rank 2's newest image through an armed torn put: only a
    // strict prefix of the scatter envelope lands.
    let (bytes, _) = store.get(&path, 2, SHAPE).unwrap();
    let len = bytes.len() as u64;
    chaos.arm_torn(&path, 0.6);
    store.put(&path, bytes, len, 2, SHAPE);

    assert!(
        matches!(store.get(&path, 2, SHAPE), Err(StoreError::Torn { .. })),
        "torn scatter envelope must surface a typed Torn"
    );
    assert!(!store.exists(&path), "torn object must read as absent");

    let resumed = killed
        .restart_latest(JobBuilder::new())
        .expect("restart must fall back to the intact older checkpoint");
    assert_eq!(
        clean.checksums(),
        resumed.checksums(),
        "recovery from the surviving checkpoint diverged"
    );
}

/// Satellite: when *every* checkpoint is damaged, the failure is a typed
/// `NoUsableCheckpoint` that records each image recovery passed over and
/// why — a per-checkpoint skip ledger, never a decode panic.
#[test]
fn damaged_images_surface_typed_errors_not_panics() {
    use mana::core::error::SkipReason;

    let session = ManaSession::new();
    let (_, killed) = clean_and_killed(&session);
    let mut ids: Vec<u64> = killed.ckpts().iter().map(|c| c.ckpt_id).collect();
    for id in &ids {
        truncate_image(&session, &killed, *id, 2, 25);
    }

    match killed.restart_latest(JobBuilder::new()) {
        Err(SessionError::NoUsableCheckpoint {
            incarnation,
            skipped,
        }) => {
            assert_eq!(incarnation, killed.index());
            // Every damaged checkpoint shows up in the skip ledger,
            // newest first, each carrying the typed restart error that
            // names the damaged rank.
            ids.sort_unstable_by(|a, b| b.cmp(a));
            let skipped_ids: Vec<u64> = skipped.iter().map(|s| s.ckpt_id).collect();
            assert_eq!(skipped_ids, ids, "skip ledger must cover every checkpoint");
            for s in &skipped {
                match &s.reason {
                    SkipReason::Damaged(e) => {
                        assert!(
                            matches!(**e, RestartError::CorruptImage { rank: 2, .. }),
                            "ckpt {}: expected CorruptImage on rank 2, got {e:?}",
                            s.ckpt_id
                        );
                    }
                    other => panic!("ckpt {}: expected Damaged, got {other:?}", s.ckpt_id),
                }
            }
        }
        Err(other) => panic!("expected typed NoUsableCheckpoint, got {other:?}"),
        Ok(_) => panic!("restart from all-damaged checkpoints must fail"),
    }
}
