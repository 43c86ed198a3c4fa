//! Scheduler event counts as a host-independent performance guard.
//!
//! Host time is noisy; the number of baton hand-offs a run dispatches is a
//! pure function of the seed. A checkpoint-and-continue run used to
//! dispatch ~2.25x the hand-offs of the uninterrupted run: after `Resume`
//! the ranks are skewed, early neighbours' halos sit unmatched in late
//! ranks' queues, and the wrapper's receive loop executed every one of its
//! 320 ns polls through the scheduler. With the polls fast-forwarded the
//! checkpoint costs next to nothing in hand-offs.

use mana::apps::{make_app, AppKind};
use mana::core::{InMemStore, JobBuilder, ManaSession};
use mana::mpi::MpiProfile;
use mana::sim::cluster::ClusterSpec;
use mana::sim::time::SimTime;

#[test]
fn a_checkpoint_does_not_multiply_scheduler_handoffs() {
    let app = make_app(AppKind::Gromacs, 10, 4, false);
    let session = ManaSession::builder().store(InMemStore::new()).build();
    let job = || {
        JobBuilder::new()
            .cluster(ClusterSpec::cori(4))
            .ranks(32)
            .profile(MpiProfile::cray_mpich())
            .seed(1)
    };
    let plain = session.run(job(), app.clone()).expect("uninterrupted run");
    let out = plain.outcome();
    let mid = SimTime(out.wall.as_nanos() - out.app_wall.as_nanos() / 2);
    let checkpointed = |dir: &str| {
        let run = session
            .run(job().ckpt_dir(dir).checkpoint_at(mid), app.clone())
            .expect("checkpoint-and-continue run");
        assert_eq!(run.ckpts().len(), 1);
        assert_eq!(plain.checksums(), run.checksums());
        run.outcome().sched
    };
    let (first, second) = (checkpointed("a"), checkpointed("b"));
    assert_eq!(first, second, "counts must repeat for one seed");

    let plain = out.sched.handoffs;
    assert!(
        first.handoffs * 4 <= plain * 5,
        "checkpoint-and-continue dispatched {} hand-offs, the plain run {plain} (> 1.25x)",
        first.handoffs
    );
}
