//! Property-based checks of the collective engine against sequential
//! reference computations, across implementations and random inputs.

use mana_mpi::{launch_native, BaseType, MpiProfile, ReduceOp};
use mana_sim::cluster::{ClusterSpec, Placement};
use mana_sim::sched::{Sim, SimConfig};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

/// Run `body` on `n` ranks and collect each rank's returned bytes.
fn run_collect(
    n: u32,
    profile: MpiProfile,
    body: impl Fn(&mana_sim::sched::SimThread, &dyn mana_mpi::Mpi, u32) -> Vec<u8>
        + Send
        + Sync
        + 'static,
) -> Vec<Vec<u8>> {
    let sim = Sim::new(SimConfig::default());
    type RankOutputs = Arc<Mutex<Vec<(u32, Vec<u8>)>>>;
    let results: RankOutputs = Arc::new(Mutex::new(Vec::new()));
    let r2 = results.clone();
    launch_native(
        &sim,
        ClusterSpec::cori(2),
        n,
        Placement::Block,
        profile,
        Arc::new(move |t, mpi, r| {
            let out = body(t, mpi, r);
            r2.lock().push((r, out));
        }),
    );
    sim.run();
    let mut v = results.lock().clone();
    v.sort_by_key(|(r, _)| *r);
    v.into_iter().map(|(_, o)| o).collect()
}

fn le_f64s(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn allreduce_matches_sequential_fold(
        contribs in prop::collection::vec(
            prop::collection::vec(-1e6f64..1e6, 4), 2..7),
        op_idx in 0usize..3,
    ) {
        let n = contribs.len() as u32;
        let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min][op_idx];
        // Sequential reference: fold in rank order (the engine's order).
        let mut expect = contribs[0].clone();
        for c in &contribs[1..] {
            for (e, v) in expect.iter_mut().zip(c) {
                *e = match op {
                    ReduceOp::Sum => *e + v,
                    ReduceOp::Max => e.max(*v),
                    ReduceOp::Min => e.min(*v),
                    ReduceOp::Prod => *e * v,
                };
            }
        }
        for profile in [MpiProfile::cray_mpich(), MpiProfile::open_mpi()] {
            let contribs = contribs.clone();
            let got = run_collect(n, profile, move |t, mpi, r| {
                let bytes: Vec<u8> = contribs[r as usize]
                    .iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect();
                mpi.allreduce(t, &bytes, BaseType::Double, op, mpi.comm_world())
            });
            for out in got {
                prop_assert_eq!(&le_f64s(&out), &expect);
            }
        }
    }

    #[test]
    fn alltoall_is_a_transpose(n in 2u32..6, seed in any::<u64>()) {
        let got = run_collect(n, MpiProfile::mpich(), move |t, mpi, r| {
            let parts: Vec<Vec<u8>> = (0..n)
                .map(|to| {
                    vec![
                        (seed as u8).wrapping_add(r as u8),
                        to as u8,
                        r as u8,
                    ]
                })
                .collect();
            let out = mpi.alltoall(t, parts, mpi.comm_world());
            out.concat()
        });
        for (me, out) in got.iter().enumerate() {
            // Rank `me` receives, from each sender s, the part addressed to
            // `me`: [seed+s, me, s].
            for s in 0..n as usize {
                let chunk = &out[s * 3..s * 3 + 3];
                prop_assert_eq!(chunk[0], (seed as u8).wrapping_add(s as u8));
                prop_assert_eq!(chunk[1], me as u8);
                prop_assert_eq!(chunk[2], s as u8);
            }
        }
    }

    #[test]
    fn gather_collects_in_rank_order(n in 2u32..6, byte in any::<u8>()) {
        let got = run_collect(n, MpiProfile::open_mpi(), move |t, mpi, r| {
            let mine = vec![byte.wrapping_add(r as u8); 4];
            let all = mpi.gather(t, &mine, 0, mpi.comm_world());
            // Only the root receives the parts.
            assert_eq!(all.is_some(), r == 0);
            all.map_or(mine, |parts| parts.concat())
        });
        // Rank 0 sees every rank's part, in rank order.
        let expect: Vec<u8> = (0..n)
            .flat_map(|i| vec![byte.wrapping_add(i as u8); 4])
            .collect();
        prop_assert_eq!(&got[0], &expect);
        for (r, out) in got.iter().enumerate().skip(1) {
            prop_assert_eq!(out, &vec![byte.wrapping_add(r as u8); 4]);
        }
    }

    #[test]
    fn bcast_from_every_root(n in 2u32..6, root_sel in any::<u32>(), payload in prop::collection::vec(any::<u8>(), 1..32)) {
        let root = root_sel % n;
        let p2 = payload.clone();
        let got = run_collect(n, MpiProfile::cray_mpich(), move |t, mpi, r| {
            let data = if r == root { p2.clone() } else { vec![] };
            mpi.bcast(t, &data, root, mpi.comm_world())
        });
        for out in got {
            prop_assert_eq!(&out, &payload);
        }
    }
}
