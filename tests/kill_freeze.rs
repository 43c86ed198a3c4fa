//! A checkpoint the incarnation does not outlive freezes each rank's dense
//! memory onto the image's pages instead of copying it beside the live
//! buffers. The freeze changes where the bytes live, never which bytes
//! are written: for every application and `CommChurn`, a
//! checkpoint-and-kill and a checkpoint-and-continue taken at the same
//! instant store byte-identical images, and the killed job restarted
//! under the other MPI ends on the native checksums. `CommChurn` keeps
//! its communicator handles in upper-half memory, and those are virtual
//! ids under MANA, so its oracle is the uninterrupted MANA run instead.

use mana::apps::{make_app_small, AppKind, CommChurn};
use mana::core::{CheckpointStore, InMemStore, Incarnation, JobBuilder, ManaSession, Workload};
use mana::mpi::MpiProfile;
use mana::sim::cluster::ClusterSpec;
use mana::sim::fs::IoShape;
use mana::sim::time::SimTime;
use std::sync::Arc;

const RANKS: u32 = 8;
const SHAPE: IoShape = IoShape {
    writers_on_node: 1,
    total_writers: 1,
};

fn job() -> JobBuilder {
    JobBuilder::new()
        .cluster(ClusterSpec::local_cluster(2))
        .ranks(RANKS)
        .profile(MpiProfile::cray_mpich())
        .seed(11)
}

/// Checkpoint at `at` in a session of its own (so both runs get the same
/// checkpoint id), then kill or continue. Returns the incarnation and
/// every rank's stored image.
fn checkpoint(app: &Arc<dyn Workload>, at: SimTime, kill: bool) -> (Incarnation, Vec<Vec<u8>>) {
    let session = ManaSession::builder().store(InMemStore::new()).build();
    let job = job().checkpoint_at(at);
    let job = if kill { job.then_kill() } else { job };
    let inc = session.run(job, app.clone()).expect("checkpoint run");
    assert_eq!(inc.killed(), kill);
    let ckpt = inc.ckpts().pop().expect("one checkpoint");
    let images = (0..RANKS)
        .map(|rank| {
            let path = inc.spec().cfg.image_path(ckpt.ckpt_id, rank);
            let (stored, _) = session
                .store()
                .get(&path, u64::from(rank), SHAPE)
                .expect("stored image");
            stored.to_vec()
        })
        .collect();
    (inc, images)
}

#[test]
fn kill_and_continue_write_the_same_images() {
    let apps = AppKind::all().map(|kind| (kind.name(), make_app_small(kind, 4), true));
    let churn: Arc<dyn Workload> = Arc::new(CommChurn::default());
    for (name, app, native_oracle) in apps.into_iter().chain([("comm-churn", churn, false)]) {
        let clean = ManaSession::new()
            .run(job(), app.clone())
            .expect("clean run");
        if native_oracle {
            let native = ManaSession::new()
                .run_native(job(), app.clone())
                .expect("native run");
            assert_eq!(&native.checksums, clean.checksums(), "{name}: clean run");
        }
        let oracle = clean.checksums();
        let (wall, aw) = (
            clean.outcome().wall.as_nanos(),
            clean.outcome().app_wall.as_nanos(),
        );
        let at = SimTime(wall - aw + aw / 2);

        let (kept, continued) = checkpoint(&app, at, false);
        let (killed, frozen) = checkpoint(&app, at, true);
        assert_eq!(kept.checksums(), oracle, "{name}: continued run");
        for (rank, (a, b)) in continued.iter().zip(&frozen).enumerate() {
            assert!(a == b, "{name}: rank {rank}'s image differs under kill");
        }
        // Freezing copies the same pages it would have kept beside.
        assert_eq!(
            killed.ckpts()[0].total_bytes_copied(),
            kept.ckpts()[0].total_bytes_copied(),
            "{name}: copy volume"
        );

        let resumed = killed
            .restart_on(JobBuilder::new().profile(MpiProfile::open_mpi()))
            .expect("restart under Open MPI");
        assert!(!resumed.killed());
        assert_eq!(
            resumed.checksums(),
            oracle,
            "{name}: restart under Open MPI"
        );
    }
}
