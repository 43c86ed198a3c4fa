//! End-to-end checkpoint/restart tests: the headline properties of the
//! paper, asserted bit-for-bit.
//!
//! The reference workload exercises every interposition class: managed
//! memory, compute, blocking and nonblocking point-to-point (eager and
//! rendezvous sizes), wrapped collectives (barrier/allreduce/bcast),
//! communicator creation (dup + cart), derived datatypes, and the §4.2
//! nonblocking-collective extension.

use mana_core::{AppEnv, FsStore, JobBuilder, ManaSession, Workload};
use mana_mpi::{MpiProfile, ReduceOp, SrcSpec, TagSpec};
use mana_sim::cluster::ClusterSpec;
use mana_sim::fs::FsConfig;
use mana_sim::kernel::KernelModel;
use mana_sim::time::{SimDuration, SimTime};
use std::sync::Arc;

/// A deliberately gnarly reference workload.
struct RefWorkload {
    steps: u64,
    elems: usize,
}

impl Workload for RefWorkload {
    fn name(&self) -> &'static str {
        "refapp"
    }

    fn run(&self, env: &mut AppEnv) {
        let world = env.world();
        let n = env.nranks();
        let me = env.rank();
        let left = (me + n - 1) % n;
        let right = (me + 1) % n;

        // Managed state: field, halo, scalars (iteration counter at [0]).
        let field = env.alloc_f64("field", self.elems);
        let halo = env.alloc_f64("halo", 2 * self.elems);
        let scal = env.alloc_f64("scalars", 4);
        let big = env.alloc_f64("big", 4096); // rendezvous-sized payloads

        // One derived datatype + one dup'ed communicator, created up front
        // (exercises record-replay across restarts).
        let base = env.mpi().type_base(mana_mpi::BaseType::Double);
        env.mpi().type_contiguous(self.elems as u32, base);
        let dup = {
            // comm_dup through the cursor: use an env op wrapper via work?
            // comm creation is itself collective; run it as part of the
            // deterministic preamble (before step 0).
            env.mpi().comm_dup(env.thread(), world)
        };

        env.work(SimDuration::micros(10), |m| {
            m.with_mut(field, |f| {
                for (i, v) in f.iter_mut().enumerate() {
                    *v = (u64::from(me) * 1000 + i as u64) as f64;
                }
            });
        });

        loop {
            let iter = env.peek(scal, |s| s[0]) as u64;
            if iter >= self.steps {
                break;
            }
            env.begin_step();

            // Compute phase.
            env.work(SimDuration::micros(200), |m| {
                m.with2_mut(field, halo, |f, h| {
                    for i in 0..f.len() {
                        f[i] = 0.5 * f[i] + 0.25 * h[i] + 0.25 * h[f.len() + i];
                    }
                });
            });

            // Nonblocking halo exchange (slots survive checkpoints).
            let r1 = env.irecv_into(world, halo, 0, SrcSpec::Rank(left), TagSpec::Tag(1));
            let r2 = env.irecv_into(
                world,
                halo,
                self.elems,
                SrcSpec::Rank(right),
                TagSpec::Tag(1),
            );
            let s1 = env.isend_arr(world, field, 0..self.elems, right, 1);
            let s2 = env.isend_arr(world, field, 0..self.elems, left, 1);
            env.wait_slot(r1);
            env.wait_slot(r2);
            env.wait_slot(s1);
            env.wait_slot(s2);

            // A rendezvous-sized blocking exchange every 3rd step.
            if iter.is_multiple_of(3) {
                if me.is_multiple_of(2) {
                    env.send_arr(dup, big, 0..4096, right, 7);
                    env.recv_into(dup, big, 0, SrcSpec::Rank(left), TagSpec::Tag(7));
                } else {
                    env.recv_into(dup, big, 0, SrcSpec::Rank(left), TagSpec::Tag(7));
                    env.send_arr(dup, big, 0..4096, right, 7);
                }
            }

            // Wrapped collectives.
            env.allreduce_arr(world, scal, ReduceOp::Sum);
            env.work(SimDuration::micros(5), |m| {
                m.with_mut(scal, |s| {
                    s[1] = s[1] / f64::from(n) + 1.0;
                });
            });
            if iter % 4 == 1 {
                env.bcast_arr(dup, scal, (iter % u64::from(n)) as u32);
            }
            if iter % 5 == 2 {
                // §4.2 nonblocking barrier with overlapped compute.
                let b = env.ibarrier(world);
                env.compute(SimDuration::micros(50));
                env.wait_slot(b);
            }
            env.barrier(world);

            // Advance the managed iteration counter (last op of the step).
            env.work(SimDuration::micros(1), |m| {
                m.with_mut(scal, |s| s[0] += 1.0);
            });
        }
    }
}

fn small_session() -> ManaSession {
    ManaSession::builder()
        .store(FsStore::with_config(FsConfig {
            node_bw: 1e9,
            aggregate_bw: 50e9,
            op_latency: SimDuration::millis(2),
            write_straggler_max: 2.0,
            read_straggler_max: 1.5,
            seed: 11,
        }))
        .build()
}

fn workload() -> Arc<dyn Workload> {
    Arc::new(RefWorkload {
        steps: 30,
        elems: 64,
    })
}

fn job(cluster: ClusterSpec, profile: MpiProfile) -> JobBuilder {
    JobBuilder::new()
        .cluster(cluster)
        .ranks(8)
        .profile(profile)
        .kernel(KernelModel::unpatched())
        .seed(2024)
}

#[test]
fn mana_matches_native_results() {
    let session = small_session();
    let native = session
        .run_native(
            job(ClusterSpec::cori(2), MpiProfile::cray_mpich()),
            workload(),
        )
        .expect("native run");
    let mana = session
        .run(
            job(ClusterSpec::cori(2), MpiProfile::cray_mpich()),
            workload(),
        )
        .expect("mana run");
    assert!(!native.killed && !mana.killed());
    assert_eq!(native.checksums.len(), 8);
    assert_eq!(&native.checksums, mana.checksums(), "MANA changed results");
    // MANA costs time, but little (the paper's <2% claim is asserted
    // loosely here; the figures quantify it).
    assert!(mana.outcome().wall >= native.wall);
    let overhead = mana.outcome().wall.as_secs_f64() / native.wall.as_secs_f64() - 1.0;
    assert!(overhead < 0.10, "runtime overhead {overhead:.3} too high");
}

#[test]
fn checkpoint_and_continue_preserves_results() {
    let session = small_session();
    let clean = session
        .run(
            job(ClusterSpec::cori(2), MpiProfile::cray_mpich()),
            workload(),
        )
        .expect("clean run");

    // Same run, checkpointing twice in the middle and continuing.
    let ckpt_run = session
        .run(
            job(ClusterSpec::cori(2), MpiProfile::cray_mpich())
                .checkpoint_times([SimTime(2_000_000), SimTime(5_000_000)]),
            workload(),
        )
        .expect("checkpointed run");
    assert!(!ckpt_run.killed());
    assert_eq!(
        clean.checksums(),
        ckpt_run.checksums(),
        "checkpointing changed results"
    );
    let reports = ckpt_run.ckpts();
    assert_eq!(reports.len(), 2, "both checkpoints must complete");
    for r in &reports {
        assert_eq!(r.ranks.len(), 8);
        assert!(r.total() > SimDuration::ZERO);
    }
    // Checkpointing pauses the app, so the run takes longer.
    assert!(ckpt_run.outcome().wall > clean.outcome().wall);
    // The images of both checkpoints are addressable via the handle.
    let images = ckpt_run.checkpoint_images();
    assert_eq!(images.len(), 2);
    for set in &images {
        assert_eq!(set.paths.len(), 8);
        for p in &set.paths {
            assert!(session.store().exists(p), "missing image {p}");
        }
    }
}

#[test]
fn kill_and_restart_same_cluster_same_impl() {
    let session = small_session();
    let clean = session
        .run(
            job(ClusterSpec::cori(2), MpiProfile::cray_mpich()),
            workload(),
        )
        .expect("clean run");

    let killed = session
        .run(
            job(ClusterSpec::cori(2), MpiProfile::cray_mpich())
                .checkpoint_at(SimTime(3_000_000))
                .then_kill(),
            workload(),
        )
        .expect("checkpoint run");
    assert!(killed.killed(), "job should have been killed after ckpt");
    assert_eq!(killed.ckpts().len(), 1);

    let resumed = killed.restart_on(JobBuilder::new()).expect("restart");
    assert!(!resumed.killed());
    assert_eq!(
        clean.checksums(),
        resumed.checksums(),
        "restart changed results"
    );
    let report = resumed.restart_report().expect("restart stats");
    assert_eq!(report.ranks.len(), 8);
    assert!(report.max_read() > SimDuration::ZERO);
    // Replay is a small fraction of restart (paper: <10%).
    assert!(report.max_replay().as_secs_f64() < report.total.as_secs_f64());
}

#[test]
fn restart_under_different_impl_and_network() {
    let session = small_session();
    let clean = session
        .run(
            job(ClusterSpec::cori(2), MpiProfile::cray_mpich()),
            workload(),
        )
        .expect("clean run");

    let killed = session
        .run(
            job(ClusterSpec::cori(2), MpiProfile::cray_mpich())
                .checkpoint_at(SimTime(3_000_000))
                .then_kill(),
            workload(),
        )
        .expect("checkpoint run");

    // Restart on the local cluster: Open MPI over InfiniBand, different
    // node count and ranks-per-node — the paper's §3.6 scenario.
    let resumed = killed
        .restart_on(
            JobBuilder::new()
                .cluster(ClusterSpec::local_cluster(4))
                .profile(MpiProfile::open_mpi()),
        )
        .expect("migration restart");
    assert!(!resumed.killed());
    assert_eq!(
        clean.checksums(),
        resumed.checksums(),
        "cross-cluster migration changed results"
    );

    // And once more under debug MPICH over TCP (§3.5) — the same killed
    // incarnation fans out into a second restart.
    let resumed2 = killed
        .restart_on(
            JobBuilder::new()
                .cluster(
                    ClusterSpec::local_cluster(2)
                        .with_interconnect(mana_sim::cluster::InterconnectKind::Tcp),
                )
                .profile(MpiProfile::mpich_debug()),
        )
        .expect("debug restart");
    assert_eq!(
        clean.checksums(),
        resumed2.checksums(),
        "debug-MPICH restart changed results"
    );
}

#[test]
fn checkpoint_during_heavy_collective_traffic() {
    // Stress Challenge I/III: checkpoint times that land inside collective
    // windows must still produce consistent images.
    let session = small_session();
    let base = || job(ClusterSpec::cori(1), MpiProfile::mpich()).kernel(KernelModel::patched());
    let clean = session.run(base(), workload()).expect("clean run");
    for (i, at) in [1_500_000u64, 2_345_678, 3_999_999, 6_111_111]
        .into_iter()
        .enumerate()
    {
        let killed = session
            .run(
                base()
                    .ckpt_dir(format!("stress{i}"))
                    .checkpoint_at(SimTime(at))
                    .then_kill(),
                workload(),
            )
            .expect("checkpoint run");
        assert!(killed.killed(), "ckpt at {at} did not kill");
        assert_eq!(killed.ckpts().len(), 1, "ckpt at {at} did not complete");
        let resumed = killed.restart_on(JobBuilder::new()).expect("restart");
        assert_eq!(
            clean.checksums(),
            resumed.checksums(),
            "restart from ckpt@{at} diverged"
        );
    }
}
