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
//!
//! HPCG and miniFE are pinned the same way (native run, and a MANA run
//! checkpointed mid-way and continued), so a rewrite of the CG kernels
//! that `run_cg` shares must reproduce every bit of every rank's state.
//!
//! A restart under another MPI on another cluster is pinned the same way
//! (flat and tree coordinator), so a change to how an incarnation boots
//! must reproduce its counts, stage times and checksums.
//!
//! So is a tree round in which a sub-coordinator fails over: its round
//! report, counts and checksums pin the promotion path.

use mana::apps::{make_app, make_app_small, AppKind, Hpcg};
use mana::core::{
    ChaosHandle, FaultInjector, InMemStore, JobBuilder, ManaSession, TopologyKind, Workload,
};
use mana::mpi::MpiProfile;
use mana::sim::cluster::ClusterSpec;
use mana::sim::sched::SchedStats;
use mana::sim::time::{SimDuration, SimTime};
use std::sync::Arc;

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

/// One CG proxy's pinned pair of runs on 16 ranks: the native run, and
/// the MANA run checkpointed once at the native run's mid-point and
/// continued. Both are `(SchedStats, wall ns, app_wall ns)`; `checksums`
/// are the per-rank upper-half checksums both runs must end with.
struct CgPin {
    native: (SchedStats, u64, u64),
    checkpointed: (SchedStats, u64, u64),
    checksums: [u64; CG_RANKS as usize],
}

const CG_RANKS: u32 = 16;

/// `make_app_small(AppKind::Hpcg, 8)`.
const HPCG: CgPin = CgPin {
    native: (
        SchedStats {
            handoffs: 5240,
            self_wakes: 0,
            calls: 768,
            stale_wakes: 0,
        },
        181774628,
        1768768,
    ),
    checkpointed: (
        SchedStats {
            handoffs: 11314,
            self_wakes: 620,
            calls: 880,
            stale_wakes: 0,
        },
        186746567,
        6740447,
    ),
    checksums: [
        383462088856604830,
        16713699922923303038,
        15517332437572061513,
        3391079403377767055,
        2665317525405465484,
        6820119902068354072,
        5878529403807441609,
        15864391327105712776,
        3696446607495893991,
        7832516776134227610,
        16805524427472910404,
        11058103816276441778,
        15131540925727664329,
        15192584472225800805,
        6352857213923141852,
        15459290798138785818,
    ],
};

/// `make_app_small(AppKind::MiniFe, 8)`.
const MINIFE: CgPin = CgPin {
    native: (
        SchedStats {
            handoffs: 2519,
            self_wakes: 1,
            calls: 256,
            stale_wakes: 0,
        },
        180664804,
        658944,
    ),
    checkpointed: (
        SchedStats {
            handoffs: 5121,
            self_wakes: 351,
            calls: 368,
            stale_wakes: 0,
        },
        185620275,
        5614155,
    ),
    checksums: [
        4114096478563464358,
        15224167597983981576,
        11224228279248522923,
        11470328864679486522,
        14746996938419686074,
        16709727681830297086,
        12014288924417776542,
        6191738909857955736,
        4793895014354794307,
        1487909271339391495,
        14291837322381698854,
        13274637075403089399,
        16944943819852053906,
        10349551719216275660,
        6014046661987211422,
        2772924305472768896,
    ],
};

/// HPCG, 8 iterations, one row per rank (boundary 1).
const HPCG_ROWS_1: CgPin = CgPin {
    native: (
        SchedStats {
            handoffs: 5284,
            self_wakes: 4,
            calls: 768,
            stale_wakes: 0,
        },
        180212972,
        207112,
    ),
    checkpointed: (
        SchedStats {
            handoffs: 11197,
            self_wakes: 711,
            calls: 880,
            stale_wakes: 0,
        },
        185235125,
        5229005,
    ),
    checksums: [
        8470335330811636732,
        10804981645699954316,
        5777570320063890940,
        11681797288877943087,
        4325647058357078740,
        6520251229514886900,
        13834997120114915634,
        7888410576508200242,
        373629305936913601,
        7005694187337516575,
        13036265278614577203,
        15095071563826331070,
        8541449965126942767,
        10587733141085668315,
        10462329219423812102,
        16012653840962549496,
    ],
};

/// HPCG, 8 iterations, two rows per rank (boundary 1).
const HPCG_ROWS_2: CgPin = CgPin {
    native: (
        SchedStats {
            handoffs: 5272,
            self_wakes: 0,
            calls: 768,
            stale_wakes: 0,
        },
        180213596,
        207736,
    ),
    checkpointed: (
        SchedStats {
            handoffs: 11185,
            self_wakes: 723,
            calls: 880,
            stale_wakes: 0,
        },
        185235992,
        5229872,
    ),
    checksums: [
        8430220002456848046,
        5822711620274308115,
        4825919056823628959,
        17712479229371590327,
        1756238547020468282,
        11529671963928187003,
        6159388342416635348,
        16216533392437822256,
        14216366898869181131,
        14727438187553493615,
        15855148912707468334,
        16026083046981332458,
        5823192036724938123,
        6589355939751308501,
        10296985602725353201,
        9836725626645500247,
    ],
};

fn cg_job() -> JobBuilder {
    JobBuilder::new()
        .cluster(ClusterSpec::cori(2))
        .ranks(CG_RANKS)
        .profile(MpiProfile::cray_mpich())
        .seed(7)
}

fn check_cg(app: Arc<dyn Workload>, pin: &CgPin) {
    let session = ManaSession::builder().store(InMemStore::new()).build();
    let native = session
        .run_native(cg_job(), app.clone())
        .expect("native run");
    assert_eq!(
        (
            native.sched,
            native.wall.as_nanos(),
            native.app_wall.as_nanos()
        ),
        pin.native
    );
    let ranks: Vec<u32> = (0..CG_RANKS).collect();
    assert!(native.checksums.keys().eq(&ranks));
    assert!(native.checksums.values().eq(&pin.checksums));

    let mid = SimTime(native.wall.as_nanos() - native.app_wall.as_nanos() / 2);
    let run = session
        .run(cg_job().ckpt_dir("cg").checkpoint_at(mid), app)
        .expect("checkpoint-and-continue run");
    assert_eq!(run.ckpts().len(), 1);
    assert_eq!(&native.checksums, run.checksums());
    let out = run.outcome();
    assert_eq!(
        (out.sched, out.wall.as_nanos(), out.app_wall.as_nanos()),
        pin.checkpointed
    );
}

#[test]
fn hpcg_native_and_checkpointed_runs_are_pinned() {
    check_cg(make_app_small(AppKind::Hpcg, 8), &HPCG);
}

#[test]
fn minife_native_and_checkpointed_runs_are_pinned() {
    check_cg(make_app_small(AppKind::MiniFe, 8), &MINIFE);
}

/// The stencil's two halo ends meet: one row takes both neighbours from
/// the halo, two rows have no interior.
#[test]
fn hpcg_with_one_and_two_rows_is_pinned() {
    for (rows, pin) in [(1, &HPCG_ROWS_1), (2, &HPCG_ROWS_2)] {
        let app = Hpcg {
            iters: 8,
            rows,
            boundary: 1,
            bulk_bytes: 0,
        };
        check_cg(Arc::new(app), pin);
    }
}

/// A restart boot, pinned: LULESH on 8 ranks under Cray MPICH on two
/// Cori nodes, checkpointed at mid-run into the default Lustre-like store
/// and killed, then restarted under Open MPI on a two-node local cluster
/// with each coordinator topology. `stages` is
/// `RestartReport::stage_breakdown()` in ns, in `RestartStage::ALL` order.
struct RestartPin {
    sched: SchedStats,
    wall: u64,
    app_wall: u64,
    stages: [u64; 8],
}

/// The source checkpoint's `(t_begin, t_do_ckpt, t_expected_in, t_end)`
/// in ns.
const RESTART_SOURCE_CKPT: (u64, u64, u64, u64) =
    (180_162_362, 181_714_362, 182_626_362, 476_663_738);

const RESTART_STAGES: [u64; 8] = [221_402_191, 0, 0, 0, 345_768_026, 12_675, 0, 10_875];

const RESTART_FLAT: RestartPin = RestartPin {
    sched: SchedStats {
        handoffs: 1_374,
        self_wakes: 33,
        calls: 72,
        stale_wakes: 0,
    },
    wall: 461_668_247,
    app_wall: 231_371,
    stages: RESTART_STAGES,
};

const RESTART_TREE: RestartPin = RestartPin {
    sched: SchedStats {
        handoffs: 1_376,
        self_wakes: 33,
        calls: 72,
        stale_wakes: 0,
    },
    wall: 461_668_247,
    app_wall: 231_371,
    stages: RESTART_STAGES,
};

/// Upper-half state checksum of ranks 0..8 after either restart.
const RESTART_CHECKSUMS: [u64; 8] = [
    14314151012996017673,
    15570789467940948517,
    802829236676512029,
    13807143381108002805,
    17756165137225732825,
    17340761121730171516,
    6188141084995437350,
    6119268802446270978,
];

#[test]
fn a_restart_under_another_mpi_is_pinned() {
    let app = make_app_small(AppKind::Lulesh, 6);
    let session = ManaSession::new();
    let job = || {
        JobBuilder::new()
            .cluster(ClusterSpec::cori(2))
            .ranks(8)
            .profile(MpiProfile::cray_mpich())
            .seed(3)
    };
    let plain = session.run(job(), app.clone()).expect("uninterrupted run");
    let out = plain.outcome();
    let mid = SimTime(out.wall.as_nanos() - out.app_wall.as_nanos() / 2);
    let killed = session
        .run(job().ckpt_dir("lulesh").checkpoint_at(mid).then_kill(), app)
        .expect("checkpoint-and-kill run");
    assert!(killed.killed());
    let ckpts = killed.ckpts();
    assert_eq!(ckpts.len(), 1);
    let c = &ckpts[0];
    assert_eq!(
        (
            c.t_begin.as_nanos(),
            c.t_do_ckpt.as_nanos(),
            c.t_expected_in.as_nanos(),
            c.t_end.as_nanos(),
        ),
        RESTART_SOURCE_CKPT
    );
    for (topology, pin) in [
        (TopologyKind::Flat, &RESTART_FLAT),
        (TopologyKind::Tree, &RESTART_TREE),
    ] {
        let resumed = killed
            .restart_on(
                JobBuilder::new()
                    .cluster(ClusterSpec::local_cluster(2))
                    .profile(MpiProfile::open_mpi())
                    .topology(topology),
            )
            .expect("restart");
        let out = resumed.outcome();
        assert_eq!(
            (out.sched, out.wall.as_nanos(), out.app_wall.as_nanos()),
            (pin.sched, pin.wall, pin.app_wall),
            "{topology:?}"
        );
        let ranks: Vec<u32> = (0..8).collect();
        assert!(resumed.checksums().keys().eq(&ranks));
        assert!(resumed.checksums().values().eq(&RESTART_CHECKSUMS));
        assert_eq!(plain.checksums(), resumed.checksums());
        let stages: Vec<u64> = resumed
            .restart_report()
            .expect("restart report")
            .stage_breakdown()
            .iter()
            .map(|(_, d)| d.as_nanos())
            .collect();
        assert_eq!(stages, pin.stages, "{topology:?}");
    }
}

/// Kills node 1's sub-coordinator once, right after it fans out the
/// first agreement round; the promotion takes 5 ms.
struct FailOverOnce;

impl FaultInjector for FailOverOnce {
    fn subcoord_fault(&self, attempt: u64, node: u32) -> Option<SimDuration> {
        (attempt == 0 && node == 1).then_some(SimDuration::millis(5))
    }
}

/// The failover round's `(t_begin, t_do_ckpt, t_expected_in, t_end,
/// extra_iterations)`, times in ns.
const FAILOVER_CKPT: (u64, u64, u64, u64, u32) =
    (180_890_244, 186_646_427, 187_058_740, 187_403_650, 1);

/// The failover run: counts, `wall` / `app_wall` in ns.
const FAILOVER: (SchedStats, u64, u64) = (
    SchedStats {
        handoffs: 11_919,
        self_wakes: 203,
        calls: 930,
        stale_wakes: 0,
    },
    188_270_960,
    8_264_840,
);

/// A tree round whose sub-coordinator fails over: HPCG's checkpointed run
/// under the tree coordinator, with node 1's sub-coordinator promoted in
/// the first agreement round. The round is void, so the checkpoint
/// commits one extra iteration later, and the job continues to the
/// native run's state.
#[test]
fn a_tree_round_with_a_failover_is_pinned() {
    let app = make_app_small(AppKind::Hpcg, 8);
    let session = ManaSession::builder().store(InMemStore::new()).build();
    let native = session
        .run_native(cg_job(), app.clone())
        .expect("native run");
    let mid = SimTime(native.wall.as_nanos() - native.app_wall.as_nanos() / 2);
    let chaos = ChaosHandle::new(FailOverOnce);
    let job = cg_job()
        .ckpt_dir("failover")
        .topology(TopologyKind::Tree)
        .chaos(chaos.clone())
        .checkpoint_at(mid);
    let run = session.run(job, app).expect("failover run");
    assert_eq!(chaos.log().failovers.len(), 1, "the failover fired once");
    let ckpts = run.ckpts();
    assert_eq!(ckpts.len(), 1);
    let c = &ckpts[0];
    assert_eq!(
        (
            c.t_begin.as_nanos(),
            c.t_do_ckpt.as_nanos(),
            c.t_expected_in.as_nanos(),
            c.t_end.as_nanos(),
            c.extra_iterations,
        ),
        FAILOVER_CKPT
    );
    let out = run.outcome();
    assert_eq!(
        (out.sched, out.wall.as_nanos(), out.app_wall.as_nanos()),
        FAILOVER
    );
    assert_eq!(&native.checksums, run.checksums());
    assert!(run.checksums().values().eq(&HPCG.checksums));
}
