//! §4.2 extension coverage: checkpoint-and-kill cuts at many points of a
//! run whose every step overlaps two two-phase `ibarrier`s with compute,
//! each cut restarted under another implementation back to the clean
//! run's checksums; and whole-run determinism of that workload under a
//! mid-run checkpoint.

use mana::core::{AppEnv, JobBuilder, ManaSession, Workload};
use mana::mpi::{MpiProfile, ReduceOp};
use mana::sim::cluster::ClusterSpec;
use mana::sim::kernel::KernelModel;
use mana::sim::time::{SimDuration, SimTime};
use std::sync::Arc;

/// Every step issues two ibarriers, overlaps each with a long compute
/// phase, and only then completes it — maximizing the window in which a
/// checkpoint can catch the collective outstanding — then reduces with a
/// blocking allreduce.
struct OverlapApp {
    steps: u64,
}

impl Workload for OverlapApp {
    fn name(&self) -> &'static str {
        "overlap"
    }

    fn run(&self, env: &mut AppEnv) {
        let world = env.world();
        let n = env.nranks();
        let me = env.rank();
        let field = env.alloc_f64("field", 64);
        let scal = env.alloc_f64("scal", 4);

        env.work(SimDuration::micros(5), |m| {
            m.with_mut(field, |f| {
                for (i, v) in f.iter_mut().enumerate() {
                    *v = f64::from(me) + i as f64 * 0.25;
                }
            });
        });

        loop {
            let iter = env.peek(scal, |s| s[0]) as u64;
            if iter >= self.steps {
                break;
            }
            env.begin_step();

            // Issue the nonblocking barrier, then overlap compute.
            let b = env.ibarrier(world);
            env.work(SimDuration::millis(2), |m| {
                m.with_mut(field, |f| {
                    for v in f.iter_mut() {
                        *v = 0.99 * *v + 0.01;
                    }
                });
            });
            env.wait_slot(b);

            // Reduce field[0..4] via the wrapped blocking allreduce, then
            // a second overlapped window with more compute.
            let b2 = env.ibarrier(world);
            env.compute(SimDuration::millis(1));
            env.wait_slot(b2);
            env.allreduce_arr(world, scal, ReduceOp::Sum);
            env.work(SimDuration::micros(1), |m| {
                m.with_mut(scal, |s| {
                    s[0] = (s[0] / f64::from(n)).round() + 1.0;
                });
            });
        }
    }
}

#[test]
fn checkpoints_land_on_outstanding_nonblocking_collectives() {
    let session = ManaSession::new();
    let app: Arc<dyn Workload> = Arc::new(OverlapApp { steps: 8 });
    let base = || {
        JobBuilder::new()
            .cluster(ClusterSpec::cori(2))
            .ranks(6)
            .profile(MpiProfile::cray_mpich())
            .seed(88)
            .ckpt_dir("nb")
    };
    let clean = session.run(base(), app.clone()).expect("clean run");
    assert!(!clean.killed());
    let native = session.run_native(base(), app.clone()).expect("native run");
    assert_eq!(&native.checksums, clean.checksums());

    // Cut at many points: most land inside the overlap windows, where the
    // ibarrier is outstanding and its instance must be reported in-phase-1
    // and its descriptor must survive into the image.
    let (wall, app_wall) = (clean.outcome().wall, clean.outcome().app_wall);
    let app_start = wall.as_nanos() - app_wall.as_nanos();
    for (k, frac) in [0.11, 0.23, 0.37, 0.52, 0.61, 0.74, 0.88, 0.95]
        .into_iter()
        .enumerate()
    {
        let at = app_start + (app_wall.as_nanos() as f64 * frac) as u64;
        let killed = session
            .run(
                base()
                    .ckpt_dir(format!("nb-{k}"))
                    .checkpoint_at(SimTime(at))
                    .then_kill(),
                app.clone(),
            )
            .expect("checkpoint-and-kill run");
        assert!(killed.killed(), "cut {k} did not kill");
        assert_eq!(killed.ckpts().len(), 1);

        // Restart under a different implementation for good measure.
        let resumed = killed
            .restart_on(
                JobBuilder::new()
                    .cluster(ClusterSpec::local_cluster(2))
                    .profile(MpiProfile::mpich()),
            )
            .expect("restart");
        assert!(!resumed.killed());
        assert_eq!(
            clean.checksums(),
            resumed.checksums(),
            "cut {k} (fraction {frac}) diverged"
        );
    }
}

#[test]
fn whole_run_determinism_under_mana() {
    // Identical specs on identical filesystem state produce identical
    // virtual timings AND state, even with a mid-run checkpoint: the run
    // is a pure function of (seed, filesystem epoch). A *shared*
    // filesystem deliberately decorrelates straggler draws across
    // checkpoints via its epoch counter, so each run gets its own here.
    let app = || -> Arc<dyn Workload> { Arc::new(OverlapApp { steps: 6 }) };
    let job = |dir: &str| {
        JobBuilder::new()
            .cluster(ClusterSpec::cori(2))
            .ranks(6)
            .profile(MpiProfile::open_mpi())
            .kernel(KernelModel::patched())
            .seed(4242)
            .ckpt_dir(dir)
    };
    let probe = ManaSession::new()
        .run(job("det-probe"), app())
        .expect("probe run");
    let mid = SimTime(probe.outcome().wall.as_nanos() - probe.outcome().app_wall.as_nanos() / 2);
    let a = ManaSession::new()
        .run(job("det-a").checkpoint_at(mid), app())
        .expect("run a");
    let b = ManaSession::new()
        .run(job("det-b").checkpoint_at(mid), app())
        .expect("run b");
    assert_eq!(a.outcome().wall, b.outcome().wall);
    assert_eq!(a.outcome().app_wall, b.outcome().app_wall);
    assert_eq!(a.checksums(), b.checksums());
    let (ra, rb) = (&a.ckpts()[0], &b.ckpts()[0]);
    assert_eq!(ra.total(), rb.total());
    assert_eq!(ra.max_write(), rb.max_write());
    assert_eq!(ra.extra_iterations, rb.extra_iterations);
}
