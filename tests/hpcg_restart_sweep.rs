//! HPCG, and a workload that creates a communicator in its prologue,
//! checkpointed at many instants: every cut restarts, or continues, to
//! the native run's per-rank checksums.
//!
//! HPCG's smoother runs three levels per CG iteration, each a halo
//! exchange followed by a charged SpMV op. Each sweep cuts at 48 instants
//! spread evenly over the application window and takes every cut twice:
//! once checkpoint-and-kill, restarted under Cray MPICH and Open MPI in
//! turn, and once checkpoint-and-continue.
//!
//! Where a cut lands depends on how long an iteration is against the
//! checkpoint agreement. The small test app's iterations (8 ranks) are
//! shorter, so every rank has reached the iteration's allreduce before
//! the checkpoint starts. With 40 000 rows per rank (4 ranks) a sweep op
//! outlasts the agreement, and ranks park between smoothing levels: the
//! second test reads each image's operation cursor and requires a
//! quarter of the cuts to land there. At 2 and 3 ranks some cuts leave a
//! rank at the top of an iteration (step cursor 0): the restart skips
//! the whole prologue and no operation of the step.
//!
//! An image's cursor counts operations from the start of the workload's
//! `run`, so it includes the prologue's.

use mana::apps::{make_app_small, AppKind, Hpcg};
use mana::core::image::CheckpointImage;
use mana::core::{AppEnv, InMemStore, JobBuilder, ManaSession, Workload};
use mana::mpi::{MpiProfile, ReduceOp};
use mana::sim::cluster::ClusterSpec;
use mana::sim::fs::IoShape;
use mana::sim::time::{SimDuration, SimTime};
use std::sync::Arc;

const CUTS: u64 = 48;

/// Operations one smoothing level runs on more than one rank: two
/// isends, two irecvs, four waits and the sweep.
const OPS_PER_LEVEL: u64 = 9;

/// Operations HPCG's prologue runs: the initial fill.
const PROLOGUE_OPS: u64 = 1;

const SHAPE: IoShape = IoShape {
    writers_on_node: 1,
    total_writers: 1,
};

fn job(ranks: u32) -> JobBuilder {
    JobBuilder::new()
        .cluster(ClusterSpec::cori(2))
        .ranks(ranks)
        .profile(MpiProfile::cray_mpich())
        .seed(29)
}

/// Run the sweep over `app` on `ranks` ranks; returns each cut's image
/// cursors, one per rank.
fn sweep(app: Arc<dyn Workload>, ranks: u32) -> Vec<Vec<u64>> {
    let session = ManaSession::builder().store(InMemStore::new()).build();
    let native = session
        .run_native(job(ranks), app.clone())
        .expect("native run");
    let app_start = native.wall.as_nanos() - native.app_wall.as_nanos();
    // The window's last few percent follow the final allreduce: the ranks
    // exit before a checkpoint requested there can quiesce them.
    let span = native.app_wall.as_nanos() / 20 * 19;
    let mut cursors = Vec::new();

    for k in 0..CUTS {
        let at = SimTime(app_start + span * k / CUTS);

        let killed = session
            .run(
                job(ranks)
                    .ckpt_dir(format!("kill-{k}"))
                    .checkpoint_at(at)
                    .then_kill(),
                app.clone(),
            )
            .expect("checkpoint-and-kill run");
        assert!(killed.killed(), "cut {k} did not kill");
        let ckpt_id = killed.latest_checkpoint().expect("checkpoint id");
        let cursor = |rank: u32| {
            let path = killed.spec().cfg.image_path(ckpt_id, rank);
            let (bytes, _) = session
                .store()
                .get(&path, u64::from(rank), SHAPE)
                .expect("image");
            CheckpointImage::decode_shared(&bytes)
                .expect("decode")
                .0
                .ops_done
        };
        cursors.push((0..ranks).map(cursor).collect());

        let profile = if k % 2 == 0 {
            MpiProfile::cray_mpich()
        } else {
            MpiProfile::open_mpi()
        };
        let name = profile.name;
        let resumed = killed
            .restart_on(
                JobBuilder::new()
                    .cluster(ClusterSpec::cori(2))
                    .profile(profile),
            )
            .expect("restart");
        assert!(!resumed.killed());
        assert_eq!(
            &native.checksums,
            resumed.checksums(),
            "cut {k} restarted under {name} diverged"
        );

        let continued = session
            .run(
                job(ranks).ckpt_dir(format!("cont-{k}")).checkpoint_at(at),
                app.clone(),
            )
            .expect("checkpoint-and-continue run");
        assert!(!continued.killed());
        assert_eq!(continued.ckpts().len(), 1, "cut {k}: checkpoint missing");
        assert_eq!(
            &native.checksums,
            continued.checksums(),
            "cut {k} checkpoint-and-continue diverged"
        );
    }
    cursors
}

#[test]
fn small_hpcg_restarts_to_native_checksums_from_every_cut() {
    sweep(make_app_small(AppKind::Hpcg, 6), 8);
}

/// HPCG with 40 000 rows per rank: a sweep op outlasts the agreement.
fn long_sweep_hpcg() -> Arc<dyn Workload> {
    Arc::new(Hpcg {
        iters: 2,
        rows: 40_000,
        boundary: 96,
        bulk_bytes: 0,
    })
}

#[test]
fn hpcg_cut_between_smoothing_levels_restarts_to_native_checksums() {
    // Some rank has level 0's sweep done and level 2's still to run.
    let between_levels = PROLOGUE_OPS + OPS_PER_LEVEL..PROLOGUE_OPS + 3 * OPS_PER_LEVEL;
    let between = sweep(long_sweep_hpcg(), 4)
        .iter()
        .filter(|cut| cut.iter().any(|c| between_levels.contains(c)))
        .count() as u64;
    assert!(
        between >= CUTS / 4,
        "only {between} of {CUTS} cuts landed between smoothing levels"
    );
}

fn hpcg_restarts_from_step_cursor_0(ranks: u32) {
    let cursors = sweep(long_sweep_hpcg(), ranks).concat();
    assert!(cursors.contains(&PROLOGUE_OPS), "no image at step cursor 0");
}

#[test]
fn two_rank_hpcg_restarts_to_native_checksums_from_every_cut() {
    hpcg_restarts_from_step_cursor_0(2);
}

#[test]
fn three_rank_hpcg_restarts_to_native_checksums_from_every_cut() {
    hpcg_restarts_from_step_cursor_0(3);
}

/// A communicator duplicated in the prologue and kept in a Rust local, as
/// LULESH keeps its Cartesian grid: each step duplicates it again, reduces
/// over the copy and frees it.
struct PrologueDup {
    steps: u64,
}

/// Operations `PrologueDup`'s prologue runs: the dup and the initial fill.
const DUP_PROLOGUE_OPS: u64 = 2;

impl Workload for PrologueDup {
    fn name(&self) -> &'static str {
        "prologue-dup"
    }

    fn run(&self, env: &mut AppEnv) {
        let me = env.rank();
        let state = env.alloc_f64("state", 4);
        let ctr = env.alloc_f64("step", 1);
        let dup = env.comm_dup(env.world());
        env.work(SimDuration::micros(50), |m| {
            m.with_mut(state, |s| {
                for (i, v) in s.iter_mut().enumerate() {
                    *v = f64::from(me) + i as f64;
                }
            })
        });
        while (env.peek(ctr, |c| c[0]) as u64) < self.steps {
            env.begin_step();
            env.work(SimDuration::micros(4000), |m| {
                m.with_mut(state, |s| s.iter_mut().for_each(|v| *v = 0.5 * *v + 1.0))
            });
            let c = env.comm_dup(dup);
            env.allreduce_arr(c, state, ReduceOp::Sum);
            env.comm_free(c);
            env.work(SimDuration::micros(2000), |m| {
                m.with_mut(ctr, |c| c[0] += 1.0)
            });
        }
    }
}

fn prologue_dup_restarts_from_every_cut(ranks: u32) {
    let cursors = sweep(Arc::new(PrologueDup { steps: 6 }), ranks).concat();
    assert!(
        cursors.contains(&DUP_PROLOGUE_OPS),
        "no image at step cursor 0"
    );
    assert!(
        cursors.iter().any(|&c| c > DUP_PROLOGUE_OPS),
        "no image past a step's first operation"
    );
}

#[test]
fn two_rank_prologue_dup_restarts_to_native_checksums_from_every_cut() {
    prologue_dup_restarts_from_every_cut(2);
}

#[test]
fn three_rank_prologue_dup_restarts_to_native_checksums_from_every_cut() {
    prologue_dup_restarts_from_every_cut(3);
}
