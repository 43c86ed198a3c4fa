//! MPI-semantics tests for the substrate, run over all three
//! implementation profiles: the substrate must behave like MPI regardless
//! of which "vendor" library is active, or MANA's implementation-agnostic
//! claim would be vacuous.

mod common;

use mana_mpi::{
    dims_create, launch_native, BaseType, CartTopo, MpiProfile, Msg, ReduceOp, SrcSpec, TagSpec,
};
use mana_sim::cluster::{ClusterSpec, Placement};
use mana_sim::sched::{Sim, SimConfig};
use parking_lot::Mutex;
use std::sync::Arc;

fn profiles() -> Vec<MpiProfile> {
    vec![
        MpiProfile::cray_mpich(),
        MpiProfile::open_mpi(),
        MpiProfile::mpich(),
    ]
}

fn run_on_all_profiles(
    nranks: u32,
    nodes: u32,
    body: impl Fn(&mana_sim::sched::SimThread, &dyn mana_mpi::Mpi, u32) + Send + Sync + Clone + 'static,
) {
    for profile in profiles() {
        let sim = Sim::new(SimConfig::default());
        let cluster = ClusterSpec::cori(nodes);
        let b = body.clone();
        launch_native(
            &sim,
            cluster,
            nranks,
            Placement::Block,
            profile.clone(),
            Arc::new(move |t, mpi, r| b(t, mpi, r)),
        );
        sim.run();
    }
}

#[test]
fn ring_pass_blocking() {
    run_on_all_profiles(4, 1, |t, mpi, r| {
        let world = mpi.comm_world();
        let n = mpi.comm_size(world);
        assert_eq!(mpi.comm_rank(world), r);
        if r == 0 {
            mpi.send(t, Msg::real(&[1u8]), 1, 7, world);
            let (data, st) = mpi.recv(t, SrcSpec::Rank(n - 1), TagSpec::Tag(7), world);
            assert_eq!(data, vec![4u8]);
            assert_eq!(st.source, n - 1);
        } else {
            let (data, _) = mpi.recv(t, SrcSpec::Rank(r - 1), TagSpec::Tag(7), world);
            assert_eq!(data, vec![r as u8]);
            mpi.send(t, Msg::real(&[r as u8 + 1]), (r + 1) % n, 7, world);
        }
    });
}

#[test]
fn wildcard_receive_and_probe() {
    run_on_all_profiles(3, 1, |t, mpi, r| {
        let world = mpi.comm_world();
        if r == 0 {
            let mut seen = [false; 3];
            for _ in 0..2 {
                // Probe then wildcard-receive.
                let (data, st) = mpi.recv(t, SrcSpec::Any, TagSpec::Any, world);
                assert_eq!(data, vec![st.source as u8]);
                assert_eq!(st.tag, 10 + st.source as i32);
                seen[st.source as usize] = true;
            }
            assert!(seen[1] && seen[2]);
            assert!(mpi.iprobe(t, SrcSpec::Any, TagSpec::Any, world).is_none());
        } else {
            mpi.send(t, Msg::real(&[r as u8]), 0, 10 + r as i32, world);
        }
    });
}

#[test]
fn rendezvous_send_blocks_until_receiver() {
    run_on_all_profiles(2, 2, |t, mpi, r| {
        let world = mpi.comm_world();
        // 1 MB is far above every profile's eager threshold.
        let big = vec![7u8; 64];
        if r == 0 {
            let before = t.now();
            mpi.send(t, Msg::modeled(&big, 1 << 20), 1, 1, world);
            // Receiver posts after ~5 ms: the rendezvous must have blocked
            // at least until then.
            assert!(
                (t.now() - before).as_secs_f64() > 0.004,
                "rendezvous send returned too early"
            );
        } else {
            t.advance(mana_sim::time::SimDuration::millis(5));
            let (data, st) = mpi.recv(t, SrcSpec::Rank(0), TagSpec::Any, world);
            assert_eq!(data, vec![7u8; 64]);
            assert_eq!(st.modeled_bytes, 1 << 20);
        }
    });
}

#[test]
fn nonblocking_send_recv_wait_test() {
    run_on_all_profiles(2, 1, |t, mpi, r| {
        let world = mpi.comm_world();
        if r == 0 {
            let r1 = mpi.isend(t, Msg::real(b"alpha"), 1, 1, world);
            let r2 = mpi.isend(t, Msg::real(b"beta"), 1, 2, world);
            mpi.wait(t, r1);
            mpi.wait(t, r2);
        } else {
            // Receive in reverse tag order; matching is by spec, not send
            // order.
            let (d2, _) = mpi.recv(t, SrcSpec::Rank(0), TagSpec::Tag(2), world);
            let (d1, _) = mpi.recv(t, SrcSpec::Rank(0), TagSpec::Tag(1), world);
            assert_eq!(d1, b"alpha");
            assert_eq!(d2, b"beta");
        }
    });
}

#[test]
fn collectives_agree_across_profiles() {
    run_on_all_profiles(8, 2, |t, mpi, r| {
        let world = mpi.comm_world();
        // Allreduce sum of rank+1 as f64.
        let contrib = (f64::from(r) + 1.0).to_le_bytes();
        let out = mpi.allreduce(t, &contrib, BaseType::Double, ReduceOp::Sum, world);
        assert_eq!(f64::from_le_bytes(out.try_into().unwrap()), 36.0);
        // Bcast from rank 3.
        let data = if r == 3 { vec![1, 2, 3] } else { vec![] };
        assert_eq!(mpi.bcast(t, &data, 3, world), vec![1, 2, 3]);
        // Reduce max of 3*r as i64 to root 2.
        let out = mpi.reduce(
            t,
            &(3 * i64::from(r)).to_le_bytes(),
            BaseType::Int64,
            ReduceOp::Max,
            2,
            world,
        );
        if r == 2 {
            assert_eq!(i64::from_le_bytes(out.unwrap().try_into().unwrap()), 21);
        } else {
            assert!(out.is_none());
        }
        // Gather bytes to root 0.
        let g = mpi.gather(t, &[r as u8], 0, world);
        if r == 0 {
            assert_eq!(g.unwrap(), (0..8u8).map(|i| vec![i]).collect::<Vec<_>>());
        }
        // Alltoall.
        let parts: Vec<Vec<u8>> = (0..8u8).map(|to| vec![r as u8, to]).collect();
        let got = mpi.alltoall(t, parts, world);
        for (from, p) in got.iter().enumerate() {
            assert_eq!(p, &vec![from as u8, r as u8]);
        }
        mpi.barrier(t, world);
    });
}

#[test]
fn comm_split_even_odd() {
    run_on_all_profiles(6, 1, |t, mpi, r| {
        let world = mpi.comm_world();
        let sub = mpi.comm_split(t, world, (r % 2) as i32, r as i32);
        assert_eq!(mpi.comm_size(sub), 3);
        assert_eq!(mpi.comm_rank(sub), r / 2);
        // Sum ranks within each parity class.
        let out = mpi.allreduce(
            t,
            &i64::from(r).to_le_bytes(),
            BaseType::Int64,
            ReduceOp::Sum,
            sub,
        );
        let sum = i64::from_le_bytes(out.try_into().unwrap());
        assert_eq!(sum, if r % 2 == 0 { 6 } else { 9 });
        mpi.comm_free(t, sub);
    });
}

#[test]
fn comm_dup_and_create_group() {
    run_on_all_profiles(4, 1, |t, mpi, r| {
        let world = mpi.comm_world();
        let dup = mpi.comm_dup(t, world);
        assert_eq!(mpi.comm_size(dup), 4);
        // Group of first three ranks.
        let wg = mpi.comm_group(world);
        let g = mpi.group_incl(wg, &[0, 1, 2]);
        assert_eq!(mpi.group_members(g), vec![0, 1, 2]);
        // Tags on dup'ed communicator don't collide with world.
        if r == 0 {
            mpi.send(t, Msg::real(&[1]), 1, 5, dup);
            mpi.send(t, Msg::real(&[2]), 1, 5, world);
        } else if r == 1 {
            let (dw, _) = mpi.recv(t, SrcSpec::Rank(0), TagSpec::Tag(5), world);
            let (dd, _) = mpi.recv(t, SrcSpec::Rank(0), TagSpec::Tag(5), dup);
            assert_eq!(dw, vec![2]);
            assert_eq!(dd, vec![1]);
        }
        mpi.group_free(g);
    });
}

#[test]
fn cart_topology_neighbors() {
    run_on_all_profiles(6, 1, |t, mpi, r| {
        let world = mpi.comm_world();
        let dims = dims_create(6, 2);
        assert_eq!(dims, vec![3, 2]);
        let cart = mpi.cart_create(t, world, &dims, &[true, false], true);
        let topo = CartTopo {
            dims,
            periodic: vec![true, false],
        };
        let coords = topo.coords(r);
        assert_eq!(topo.rank(&coords), r);
        // Shift along periodic dim 0.
        let (src, dst) = mpi.cart_shift(cart, 0, 1);
        assert!(src.is_some() && dst.is_some());
        // Exchange with +1 neighbor: send my rank, receive neighbor's.
        mpi.send(t, Msg::real(&[r as u8]), dst.unwrap(), 9, cart);
        let (d, st) = mpi.recv(t, SrcSpec::Rank(src.unwrap()), TagSpec::Tag(9), cart);
        assert_eq!(d, vec![src.unwrap() as u8]);
        assert_eq!(st.source, src.unwrap());
        // Non-periodic dim 1 edges.
        let (up, down) = mpi.cart_shift(cart, 1, 1);
        if coords[1] == 0 {
            assert!(up.is_none());
        }
        if coords[1] == 1 {
            assert!(down.is_none());
        }
    });
}

#[test]
fn derived_datatypes() {
    run_on_all_profiles(2, 1, |t, mpi, r| {
        let base = mpi.type_base(BaseType::Double);
        let row = mpi.type_contiguous(10, base);
        // Exchange one row's worth of bytes.
        let world = mpi.comm_world();
        let n = 10 * 8;
        if r == 0 {
            mpi.send(t, Msg::real(&vec![1u8; n]), 1, 0, world);
        } else {
            let (d, _) = mpi.recv(t, SrcSpec::Rank(0), TagSpec::Tag(0), world);
            assert_eq!(d.len(), n);
        }
        mpi.type_free(row);
    });
}

#[test]
fn ibarrier_overlaps_work() {
    run_on_all_profiles(4, 1, |t, mpi, r| {
        let world = mpi.comm_world();
        let req = mpi.ibarrier(t, world);
        // Do some "work" while the barrier is outstanding. Every rank
        // arrived before working, so the slowest worker finds the barrier
        // long complete: its wait costs one call, not a barrier.
        t.advance(mana_sim::time::SimDuration::micros(10 * u64::from(r)));
        let done_working = t.now();
        mpi.wait(t, req);
        if r == 3 {
            assert!(t.now() - done_working < mana_sim::time::SimDuration::micros(1));
        }
    });
}

#[test]
fn debug_build_captures_calls() {
    let sim = Sim::new(SimConfig::default());
    let log = Arc::new(Mutex::new(Vec::new()));
    let log2 = log.clone();
    launch_native(
        &sim,
        ClusterSpec::local_cluster(1),
        2,
        Placement::Block,
        MpiProfile::mpich_debug(),
        Arc::new(move |t, mpi, r| {
            let world = mpi.comm_world();
            mpi.barrier(t, world);
            if r == 0 {
                mpi.send(t, Msg::real(&[1]), 1, 0, world);
            } else {
                mpi.recv(t, SrcSpec::Any, TagSpec::Any, world);
            }
            log2.lock().push(mpi.debug_log());
        }),
    );
    sim.run();
    let logs = log.lock().clone();
    assert_eq!(logs.len(), 2);
    for l in &logs {
        assert!(l.iter().any(|line| line.contains("MPI_Barrier")), "{l:?}");
    }
    assert!(logs.iter().flatten().any(|l| l.contains("MPI_Send")));
    assert!(logs.iter().flatten().any(|l| l.contains("MPI_Recv")));
}

#[test]
fn debug_build_logs_fast_forwarded_probes() {
    // Rank 0 polls for rank 2's message past an unmatched one from rank 1:
    // ~20 us of back-to-back `MPI_Iprobe`s. Fast-forwarded, the debug
    // build's call log must still show every one of them, at the instant
    // the literal loop entered it.
    fn receiver_log(poll: common::Poll) -> Vec<String> {
        let sim = Sim::new(SimConfig::default());
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = log.clone();
        launch_native(
            &sim,
            ClusterSpec::local_cluster(1),
            3,
            Placement::Block,
            MpiProfile::mpich_debug(),
            Arc::new(move |t, mpi, r| {
                let world = mpi.comm_world();
                match r {
                    0 => {
                        let gap = mana_sim::time::SimDuration::nanos(260);
                        let st = poll(
                            t,
                            mpi,
                            gap,
                            SrcSpec::Rank(2),
                            TagSpec::Any,
                            world,
                            &mut Vec::new(),
                        );
                        mpi.recv(t, SrcSpec::Rank(st.source), TagSpec::Tag(st.tag), world);
                        mpi.recv(t, SrcSpec::Rank(1), TagSpec::Any, world);
                        *log2.lock() = mpi.debug_log();
                    }
                    1 => mpi.send(t, Msg::real(&[1]), 0, 5, world),
                    _ => {
                        t.advance(mana_sim::time::SimDuration::micros(20));
                        mpi.send(t, Msg::real(&[2]), 0, 6, world);
                    }
                }
            }),
        );
        sim.run();
        let out = log.lock().clone();
        out
    }
    let literal = receiver_log(common::poll_literal);
    let fast = receiver_log(common::poll_fast_forward);
    let probes = literal.iter().filter(|l| l.contains("MPI_Iprobe")).count();
    assert!(probes > 20, "only {probes} probes logged: {literal:?}");
    assert_eq!(literal, fast);
}

#[test]
fn multi_node_job_maps_driver_memory() {
    let sim = Sim::new(SimConfig::default());
    let spaces: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let job = mana_mpi::MpiJob::new(
        &sim,
        ClusterSpec::cori(4),
        8,
        Placement::Block,
        MpiProfile::cray_mpich(),
    );
    for rank in 0..8 {
        let job = job.clone();
        let spaces = spaces.clone();
        sim.spawn(&format!("rank{rank}"), false, move |t| {
            let aspace = Arc::new(mana_sim::memory::AddressSpace::new());
            let mpi = job.init_rank(&t, rank, &aspace);
            mpi.barrier(&t, mpi.comm_world());
            spaces.lock().push((
                aspace.bytes_of_half(mana_sim::memory::Half::Lower),
                aspace.bytes_of_kind(
                    mana_sim::memory::Half::Lower,
                    mana_sim::memory::RegionKind::Shm,
                ),
            ));
            mpi.finalize(&t);
        });
    }
    sim.run();
    assert_eq!(job.nodes_used(), 4);
    let spaces = spaces.lock().clone();
    for (lower, shm) in &spaces {
        // Lower half includes the ~26 MB Cray text + data + driver regions.
        assert!(*lower > 30 << 20, "lower half too small: {lower}");
        // Driver shm grows with node count (§3.2.2): ~3.2 MB at 4 nodes.
        let mb = *shm as f64 / (1024.0 * 1024.0);
        assert!((2.0..8.0).contains(&mb), "driver shm {mb} MB");
    }
}

#[test]
fn deterministic_job_timing() {
    let run = || {
        mana_mpi::run_native(
            ClusterSpec::cori(2),
            8,
            Placement::Block,
            MpiProfile::cray_mpich(),
            42,
            Arc::new(|t, mpi, r| {
                let world = mpi.comm_world();
                for i in 0..5 {
                    let contrib = (f64::from(r) * 1.5 + f64::from(i)).to_le_bytes();
                    mpi.allreduce(t, &contrib, BaseType::Double, ReduceOp::Sum, world);
                    if r > 0 {
                        mpi.send(t, Msg::real(&[i as u8]), 0, i, world);
                    } else {
                        for _ in 1..8 {
                            mpi.recv(t, SrcSpec::Any, TagSpec::Tag(i), world);
                        }
                    }
                }
            }),
        )
    };
    assert_eq!(run(), run());
}
