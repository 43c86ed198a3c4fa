//! Property: over random communicator/group/datatype churn sequences,
//! restarting from a *compacted*-log checkpoint is observationally
//! identical to restarting from the full log — the restarted run reaches
//! the same final state as an uninterrupted one, the virtual↔real
//! bindings it rebuilds support identical further execution, and a
//! checkpoint taken *after* the restart produces byte-identical images
//! either way (compaction is confluent: `compact(compact(L) + N) ==
//! compact(L + N)`). Meanwhile the compacted first-generation log must be
//! strictly smaller wherever there is churn to elide.
//!
//! Each case drives two full chains (checkpoint → kill → restart →
//! second checkpoint → completion): one whose first checkpoint compacts,
//! one whose first checkpoint carries the full log. Second checkpoints
//! always compact, and their landing times are probed per chain so both
//! land at the same point of the application window despite the two
//! chains' different replay durations.

use mana::apps::CommChurn;
use mana::core::{Incarnation, JobBuilder, ManaSession, Workload};
use mana::mpi::MpiProfile;
use mana::sim::cluster::ClusterSpec;
use mana::sim::fs::IoShape;
use mana::sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const SHAPE: IoShape = IoShape {
    writers_on_node: 1,
    total_writers: 1,
};

struct ChainReport {
    /// Per-rank retained log length of the first checkpoint.
    ckpt1_log_retained: Vec<u64>,
    /// Per-rank recorded log length of the first checkpoint.
    ckpt1_log_recorded: Vec<u64>,
    /// Checksums of the second checkpoint's encoded images, by rank.
    ckpt2_image_checksums: Vec<u64>,
    /// Final per-rank application checksums after running to completion.
    final_checksums: BTreeMap<u32, u64>,
}

fn mid_app(frac: f64, wall: u64, app: u64) -> SimTime {
    SimTime(wall - app + (app as f64 * frac) as u64)
}

/// checkpoint(kill) → restart → checkpoint(continue) → completion, with
/// the first checkpoint's compactor switched by `compact1`.
#[allow(clippy::too_many_arguments)]
fn run_chain(
    workload: &Arc<dyn Workload>,
    cluster: &ClusterSpec,
    nranks: u32,
    profile: &MpiProfile,
    seed: u64,
    frac1: f64,
    frac2: f64,
    compact1: bool,
) -> ChainReport {
    let session = ManaSession::builder()
        .store(mana::core::InMemStore::new())
        .build();
    let job = || {
        JobBuilder::new()
            .cluster(cluster.clone())
            .ranks(nranks)
            .profile(profile.clone())
            .seed(seed)
    };
    let probe = session.run(job(), workload.clone()).expect("probe run");
    let at1 = mid_app(
        frac1,
        probe.outcome().wall.as_nanos(),
        probe.outcome().app_wall.as_nanos(),
    );
    let killed = session
        .run(
            job().compact_log(compact1).checkpoint_at(at1).then_kill(),
            workload.clone(),
        )
        .expect("checkpoint run");
    assert!(killed.killed());
    let ckpt1 = killed.ckpts().pop().expect("first checkpoint");

    // Probe the restarted incarnation so the second checkpoint lands at
    // the same fraction of the (remaining) application window in both
    // chains, despite their different replay durations.
    let rprobe = killed
        .restart_on(JobBuilder::new().compact_log(true))
        .expect("restart probe");
    let at2 = mid_app(
        frac2,
        rprobe.outcome().wall.as_nanos(),
        rprobe.outcome().app_wall.as_nanos(),
    );
    let resumed = killed
        .restart_on(JobBuilder::new().compact_log(true).checkpoint_at(at2))
        .expect("restart with second checkpoint");
    let ckpt2 = resumed.ckpts().pop().expect("second checkpoint");

    let image_checksum = |inc: &Incarnation, ckpt_id: u64, rank: u32| {
        let path = inc.spec().cfg.image_path(ckpt_id, rank);
        let (bytes, _) = session
            .store()
            .get(&path, u64::from(rank), SHAPE)
            .expect("image in store");
        bytes.scatter().checksum()
    };
    ChainReport {
        ckpt1_log_retained: ckpt1.ranks.iter().map(|r| r.log_retained).collect(),
        ckpt1_log_recorded: ckpt1.ranks.iter().map(|r| r.log_recorded).collect(),
        ckpt2_image_checksums: (0..nranks)
            .map(|r| image_checksum(&resumed, ckpt2.ckpt_id, r))
            .collect(),
        final_checksums: resumed.checksums().clone(),
    }
}

/// A late checkpoint of a churning job (16 communicators per step, 2
/// nodes × 2 ranks, 4 steps, seed 42) holds most of the job's churn in
/// its log: restarting from the compacted log replays at least 5× faster
/// than from the full one, and both restarts end in the probe's state.
#[test]
fn compaction_cuts_replay_at_least_5x_at_high_churn() {
    let workload: Arc<dyn Workload> = Arc::new(CommChurn {
        steps: 4,
        churn: 16,
        work: SimDuration::micros(3000),
        ..CommChurn::default()
    });
    let replay = |compact: bool| {
        let session = ManaSession::builder()
            .store(mana::core::InMemStore::new())
            .build();
        let job = || {
            JobBuilder::new()
                .cluster(ClusterSpec::local_cluster(2))
                .ranks(4)
                .profile(MpiProfile::cray_mpich())
                .seed(42)
                .compact_log(compact)
        };
        let probe = session.run(job(), workload.clone()).expect("probe run");
        let out = probe.outcome();
        let at = mid_app(0.9, out.wall.as_nanos(), out.app_wall.as_nanos());
        let killed = session
            .run(job().checkpoint_at(at).then_kill(), workload.clone())
            .expect("checkpoint run");
        assert!(killed.killed());
        let resumed = killed
            .restart_on(JobBuilder::new())
            .expect("restart from churned log");
        assert_eq!(
            probe.checksums(),
            resumed.checksums(),
            "compact {compact}: restart diverged"
        );
        resumed
            .restart_report()
            .expect("restart report")
            .max_replay()
    };
    let (full, compacted) = (replay(false), replay(true));
    let ratio = full.as_secs_f64() / compacted.as_secs_f64().max(1e-12);
    assert!(
        ratio >= 5.0,
        "compaction must cut replay at least 5x (full {full}, compacted {compacted}: {ratio:.2}x)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn compacted_replay_is_observationally_identical_to_full_replay(
        nodes in 1u32..3,
        extra_ranks in 1u32..4,
        steps in 3u64..6,
        churn in 2u64..14,
        work_us in 2500u64..5001,
        split_every in 0u64..3,
        undef_split in any::<bool>(),
        group_churn in any::<bool>(),
        dtype_churn in any::<bool>(),
        frac1 in 0.25f64..0.65,
        frac2 in 0.25f64..0.75,
        cray in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let nranks = nodes + extra_ranks + 1;
        let workload: Arc<dyn Workload> = Arc::new(CommChurn {
            steps,
            churn,
            work: SimDuration::micros(work_us),
            split_every,
            undef_split,
            group_churn,
            dtype_churn,
        });
        let cluster = ClusterSpec::local_cluster(nodes);
        let profile = if cray {
            MpiProfile::cray_mpich()
        } else {
            MpiProfile::open_mpi()
        };

        // Uninterrupted reference.
        let session = ManaSession::builder().store(mana::core::InMemStore::new()).build();
        let clean = session
            .run(
                JobBuilder::new()
                    .cluster(cluster.clone())
                    .ranks(nranks)
                    .profile(profile.clone())
                    .seed(seed),
                workload.clone(),
            )
            .expect("clean run");

        let compacted = run_chain(&workload, &cluster, nranks, &profile, seed, frac1, frac2, true);
        let full = run_chain(&workload, &cluster, nranks, &profile, seed, frac1, frac2, false);

        // Same recorded history, strictly smaller compacted images.
        prop_assert_eq!(&compacted.ckpt1_log_recorded, &full.ckpt1_log_recorded);
        prop_assert_eq!(
            &full.ckpt1_log_recorded, &full.ckpt1_log_retained,
            "compactor off must pass the log through"
        );
        for (rank, (c, f)) in compacted
            .ckpt1_log_retained
            .iter()
            .zip(&full.ckpt1_log_retained)
            .enumerate()
        {
            prop_assert!(
                c < f,
                "rank {}: churned log must compact ({} vs {})",
                rank, c, f
            );
        }

        // Observational identity: both chains finish in the clean run's
        // state, and the post-restart checkpoints are byte-identical —
        // same rebuilt bindings, same re-compacted log, same everything.
        prop_assert_eq!(&compacted.final_checksums, clean.checksums());
        prop_assert_eq!(&full.final_checksums, clean.checksums());
        prop_assert_eq!(
            &compacted.ckpt2_image_checksums,
            &full.ckpt2_image_checksums
        );
    }
}
