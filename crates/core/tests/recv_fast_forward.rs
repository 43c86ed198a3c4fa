//! The wrapper's receive loop fast-forwards its back-to-back polls
//! (`Mpi::iprobe_every`) instead of executing them. A checkpoint or a kill
//! that lands while a rank is inside such a wait must take effect at the
//! instant the literal `MPI_Iprobe` loop would have noticed it — the next
//! poll instant — and a restart from an image taken there must reproduce
//! the uninterrupted run.
//!
//! The literal loop is not kept in the product; the reference below is
//! written against the public cell / lower-half API.

use mana_core::shared::RankShared;
use mana_core::{AppEnv, JobBuilder, JobKilled, ManaConfig, ManaMpi, ManaSession, Park, Workload};
use mana_mpi::{Mpi, MpiAborted, MpiJob, MpiProfile, Msg, ReduceOp, SrcSpec, Status, TagSpec};
use mana_sim::cluster::{ClusterSpec, Placement};
use mana_sim::kernel::KernelModel;
use mana_sim::memory::AddressSpace;
use mana_sim::sched::{Sim, SimConfig, SimThread};
use mana_sim::time::{SimDuration, SimTime};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

// ----- instant-level: one wrapped rank, a scripted helper ------------------

/// `ManaMpi::recv` as it was before the polls were fast-forwarded: quiesce
/// check, FS round-trip, lower `iprobe`, and — on a miss — the
/// `InRecvWait`-marked `wait_any_message`, which returns at once while
/// unmatched data is queued. (No drain runs in these scenarios, so the
/// drained-buffer check is left out.)
fn literal_recv(
    t: &SimThread,
    w: &ManaMpi,
    cfg: &ManaConfig,
    src: SrcSpec,
    tag: TagSpec,
) -> (Vec<u8>, Status) {
    let (cell, lower) = (&w.shared().cell, w.lower());
    let real = lower.comm_world();
    t.advance(cfg.virt_cost);
    loop {
        cell.quiesce_check(t);
        t.advance(cfg.kernel.fs_roundtrip());
        if let Some(st) = lower.iprobe(t, src, tag, real) {
            return lower.recv(t, SrcSpec::Rank(st.source), TagSpec::Tag(st.tag), real);
        }
        cell.with_park(Park::InRecvWait, || lower.wait_any_message(t));
    }
}

#[derive(Clone, Copy, Debug)]
enum Interrupt {
    /// do-ckpt, hold the rank quiesced for a while, resume.
    Checkpoint,
    /// do-ckpt, hold, resume-with-kill (the migration workflow).
    CheckpointKill,
    /// Kill with no checkpoint (a chaos gang-crash).
    Kill,
}

#[derive(Debug, PartialEq)]
struct Seen {
    /// When the helper saw the rank parked bookmark- and snapshot-safe.
    quiesced_at: Option<SimTime>,
    /// How and when the receive ended.
    ended: (&'static str, SimTime),
    /// Simulation end.
    end: SimTime,
}

/// Rank 0 receives rank 2's message (sent 40 us in) under MANA while rank
/// 1's unmatched message sits in its queue, i.e. it polls back to back;
/// `interrupt` fires `after` the end of `MPI_Init`.
fn wrapped_recv(literal: bool, interrupt: Interrupt, after: SimDuration) -> Seen {
    let sim = Sim::new(SimConfig::default());
    let profile = MpiProfile::cray_mpich();
    let cfg = ManaConfig::no_checkpoints(KernelModel::unpatched());
    let job = MpiJob::new(
        &sim,
        ClusterSpec::cori(1),
        3,
        Placement::Block,
        profile.clone(),
    );
    let shared: Arc<Mutex<Option<Arc<RankShared>>>> = Arc::new(Mutex::new(None));
    let ended = Arc::new(Mutex::new(("never", SimTime::ZERO)));
    let quiesced_at = Arc::new(Mutex::new(None));

    {
        let (job, cfg, shared, ended) = (job.clone(), cfg.clone(), shared.clone(), ended.clone());
        sim.spawn("rank0", false, move |t| {
            let aspace = Arc::new(AddressSpace::new());
            let sh = RankShared::new(&job, 0, "ff", 1, aspace.clone());
            sh.cell.register_rank(t.id());
            let lower: Arc<dyn Mpi> = Arc::from(job.init_rank(&t, 0, &aspace));
            let w = ManaMpi::fresh(sh.clone(), lower, cfg.clone());
            *shared.lock() = Some(sh);
            let (src, tag) = (SrcSpec::Rank(2), TagSpec::Any);
            let how = match catch_unwind(AssertUnwindSafe(|| {
                if literal {
                    literal_recv(&t, &w, &cfg, src, tag)
                } else {
                    w.recv(&t, src, tag, w.comm_world())
                }
            })) {
                Ok((data, st)) => {
                    assert_eq!((data, st.source, st.tag), (vec![2u8], 2, 6));
                    "received"
                }
                Err(p) if p.is::<JobKilled>() => "JobKilled",
                Err(p) if p.is::<MpiAborted>() => "MpiAborted",
                Err(p) => std::panic::resume_unwind(p),
            };
            *ended.lock() = (how, t.now());
        });
    }
    for rank in 1..3u32 {
        let job = job.clone();
        sim.spawn(&format!("rank{rank}"), false, move |t| {
            let lower = job.init_rank(&t, rank, &Arc::new(AddressSpace::new()));
            if rank == 2 {
                t.advance(SimDuration::micros(40));
            }
            let tag = 4 + rank as i32;
            lower.send(&t, Msg::real(&[rank as u8]), 0, tag, lower.comm_world());
        });
    }
    {
        let (shared, quiesced_at) = (shared.clone(), quiesced_at.clone());
        sim.spawn("helper0", false, move |t| {
            t.advance(profile.init_cost);
            t.advance(after);
            let sh = shared.lock().clone().expect("rank 0 is past MPI_Init");
            let cell = &sh.cell;
            cell.register_helper(t.id());
            if let Interrupt::Kill = interrupt {
                cell.resume(true);
                return;
            }
            cell.set_do_ckpt();
            cell.helper_wait(&t, |c| c.bookmark_safe());
            assert!(cell.snapshot_safe(), "a polling rank must stop Quiesced");
            *quiesced_at.lock() = Some(t.now());
            t.advance(SimDuration::micros(5));
            cell.resume(matches!(interrupt, Interrupt::CheckpointKill));
        });
    }
    sim.run();
    let seen = Seen {
        quiesced_at: *quiesced_at.lock(),
        ended: *ended.lock(),
        end: sim.now(),
    };
    seen
}

/// One poll of the receive loop under the unpatched kernel and Cray MPICH:
/// 260 ns FS round-trip + 60 ns `MPI_Iprobe`.
const PERIOD_NS: u64 = 320;

#[test]
fn interrupts_land_on_the_literal_loops_poll_instant() {
    // Every nanosecond offset across more than one poll period, so the
    // sweep includes interrupts exactly on a poll instant.
    for interrupt in [
        Interrupt::Checkpoint,
        Interrupt::CheckpointKill,
        Interrupt::Kill,
    ] {
        let mut instants = std::collections::BTreeSet::new();
        for offset in 0..PERIOD_NS + 10 {
            let after = SimDuration::nanos(10_000 + offset);
            let literal = wrapped_recv(true, interrupt, after);
            let fast = wrapped_recv(false, interrupt, after);
            assert_eq!(literal, fast, "{interrupt:?} at +{after}");
            match interrupt {
                Interrupt::Checkpoint => assert_eq!(fast.ended.0, "received"),
                // The literal loop left through whichever check it reached
                // first; what matters is that both leave the same way.
                _ => assert_ne!(fast.ended.0, "received"),
            }
            instants.insert(fast.quiesced_at.unwrap_or(fast.ended.1));
        }
        // The interrupt took effect only at poll instants: the sweep of
        // 330 offsets collapses onto two or three of them, one period apart.
        let instants: Vec<_> = instants.into_iter().collect();
        assert!((2..=3).contains(&instants.len()), "{instants:?}");
        for pair in instants.windows(2) {
            assert_eq!(pair[1].since(pair[0]).as_nanos(), PERIOD_NS);
        }
    }
}

// ----- end to end: checkpoint inside the wait, restart, same answer --------

/// Every step rank 0 waits for rank 2's *late* message while rank 1's
/// early one (a different tag, received afterwards) sits unmatched in its
/// queue: rank 0 spends most of each step in the fast-forwarded wait.
struct LateSender {
    steps: u64,
}

impl Workload for LateSender {
    fn name(&self) -> &'static str {
        "late-sender"
    }

    fn run(&self, env: &mut AppEnv) {
        let world = env.world();
        let me = env.rank();
        let data = env.alloc_f64("data", 8);
        let inbox = env.alloc_f64("inbox", 16);
        let scal = env.alloc_f64("scal", 1);
        loop {
            let iter = env.peek(scal, |s| s[0]) as u64;
            if iter >= self.steps {
                break;
            }
            env.begin_step();
            env.work(SimDuration::micros(2), |m| {
                m.with_mut(data, |d| {
                    for (i, v) in d.iter_mut().enumerate() {
                        *v = f64::from(me) * 10.0 + i as f64 + iter as f64;
                    }
                })
            });
            match me {
                0 => {
                    env.recv_into(world, inbox, 8, SrcSpec::Rank(2), TagSpec::Tag(2));
                    env.recv_into(world, inbox, 0, SrcSpec::Rank(1), TagSpec::Tag(1));
                }
                1 => env.send_arr(world, data, 0..8, 0, 1),
                _ => {
                    env.compute(SimDuration::millis(3));
                    env.send_arr(world, data, 0..8, 0, 2);
                }
            }
            env.allreduce_arr(world, scal, ReduceOp::Max);
            env.work(SimDuration::micros(1), |m| {
                m.with_mut(scal, |s| s[0] += 1.0)
            });
        }
    }
}

#[test]
fn checkpoint_inside_the_wait_restarts_to_the_clean_answer() {
    let app: Arc<dyn Workload> = Arc::new(LateSender { steps: 6 });
    let session = ManaSession::new();
    let base = || {
        JobBuilder::new()
            .cluster(ClusterSpec::cori(2))
            .ranks(3)
            .profile(MpiProfile::cray_mpich())
            .seed(5)
    };
    let clean = session.run(base(), app.clone()).expect("clean run");
    let (wall, app_wall) = (clean.outcome().wall, clean.outcome().app_wall);
    let app_start = wall.as_nanos() - app_wall.as_nanos();

    // Cuts in the middle of rank 2's 3 ms of compute in steps 1..=4 (the
    // agreement rounds before do-ckpt take a fraction of a millisecond).
    let step = app_wall.as_nanos() / 6;
    for k in 1..5u64 {
        let at = SimTime(app_start + k * step + step / 2);
        let dir = format!("late-{k}");

        let continued = session
            .run(base().ckpt_dir(&dir).checkpoint_at(at), app.clone())
            .expect("checkpoint-and-continue");
        let report = &continued.ckpts()[0];
        // Rank 1's message was unmatched in rank 0's queue at the cut: the
        // checkpoint really did land inside the fast-forwarded wait.
        let drained = report.ranks[0].drained_msgs;
        assert!(drained >= 1, "cut {k}: nothing drained at rank 0");
        assert_eq!(clean.checksums(), continued.checksums(), "cut {k}");

        let killed = session
            .run(
                base()
                    .ckpt_dir(format!("{dir}-kill"))
                    .checkpoint_at(at)
                    .then_kill(),
                app.clone(),
            )
            .expect("checkpoint-and-kill");
        assert!(killed.killed(), "cut {k} did not kill");
        let resumed = killed
            .restart_on(JobBuilder::new().profile(MpiProfile::open_mpi()))
            .expect("restart");
        assert_eq!(clean.checksums(), resumed.checksums(), "cut {k} restart");
    }
}
