//! Scheduler event counts as a host-independent performance guard.
//!
//! Host time is noisy; the number of baton hand-offs a run dispatches is a
//! pure function of the seed. A checkpoint-and-continue run used to
//! dispatch ~2.25x the hand-offs of the uninterrupted run: after `Resume`
//! the ranks are skewed, early neighbours' halos sit unmatched in late
//! ranks' queues, and the wrapper's receive loop executed every one of its
//! 320 ns polls through the scheduler. With the polls fast-forwarded the
//! checkpoint costs next to nothing in hand-offs.
//!
//! The same runs are the scheduler's determinism oracle: their exact
//! counts, simulated times and per-rank checksums are pinned below, so a
//! change to how a hand-off is *executed* (the back-end) must reproduce
//! them without re-blessing. Only a change to which events run may move
//! them, and then says so by editing these constants.

use mana::apps::{make_app, AppKind};
use mana::core::{InMemStore, JobBuilder, ManaSession};
use mana::mpi::MpiProfile;
use mana::sim::cluster::ClusterSpec;
use mana::sim::sched::SchedStats;
use mana::sim::time::SimTime;

/// The uninterrupted 32-rank run: counts, `wall` / `app_wall` in ns.
const PLAIN: (SchedStats, u64, u64) = (
    SchedStats {
        handoffs: 60_717,
        self_wakes: 0,
        calls: 5_120,
        stale_wakes: 0,
    },
    188_434_620,
    8_427_050,
);

/// The same job checkpointed once at mid-run and continued.
const CHECKPOINTED: (SchedStats, u64, u64) = (
    SchedStats {
        handoffs: 59_986,
        self_wakes: 2_295,
        calls: 5_344,
        stale_wakes: 0,
    },
    199_123_984,
    19_116_414,
);

/// Upper-half state checksum of ranks 0..32 at completion, both runs.
const CHECKSUMS: [u64; 32] = [
    9332751571946987865,
    5154203572918629654,
    5903895795031860925,
    10347022433786010741,
    2322220483462469364,
    12673699638926559312,
    10645442191393385677,
    4633813232974489114,
    15567226875958422297,
    17933425917891578246,
    13383621736453591327,
    1600779404342092375,
    8632385543753099456,
    7126489657268223017,
    11783974213616328637,
    18017486013538021901,
    1877760775506234409,
    3962205895747019416,
    13367222771206873342,
    5248547535121660560,
    7836227057843201047,
    16123449110700189615,
    17603114690312129649,
    18193619326193069150,
    18288790055501528114,
    11834915836004624243,
    798859172999555957,
    3777082511348195360,
    15160857748997369356,
    15339186734997432572,
    9403985072976415161,
    17759977924355460937,
];

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
    assert_eq!(
        (out.sched, out.wall.as_nanos(), out.app_wall.as_nanos()),
        PLAIN
    );
    let ranks: Vec<u32> = (0..32).collect();
    assert!(plain.checksums().keys().eq(&ranks));
    assert!(plain.checksums().values().eq(&CHECKSUMS));
    let mid = SimTime(out.wall.as_nanos() - out.app_wall.as_nanos() / 2);
    let checkpointed = |dir: &str| {
        let run = session
            .run(job().ckpt_dir(dir).checkpoint_at(mid), app.clone())
            .expect("checkpoint-and-continue run");
        assert_eq!(run.ckpts().len(), 1);
        assert_eq!(plain.checksums(), run.checksums());
        let out = run.outcome();
        assert_eq!(
            (out.sched, out.wall.as_nanos(), out.app_wall.as_nanos()),
            CHECKPOINTED
        );
        out.sched
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
