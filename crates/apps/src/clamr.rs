//! CLAMR-like cell-based adaptive-mesh-refinement skeleton.
//!
//! Communication profile: per-step neighbor exchange whose message size
//! varies with the refinement level, a periodic all-to-all load rebalance,
//! and a conservation-check allreduce. Refinement is a deterministic
//! function of the step number (a travelling wave), which keeps the
//! operation schedule a pure function of (rank, step) as the environment's
//! restore contract requires — real CLAMR's data-dependent refinement
//! would need control-flow record-replay, which MANA gets for free from
//! stack restore (this reproduction substitutes the restore contract in
//! `mana_core::env`).

use mana_core::{AppEnv, Workload};
use mana_mpi::{ReduceOp, SrcSpec, TagSpec};
use mana_sim::time::SimDuration;

/// Workload configuration.
pub struct Clamr {
    /// AMR steps.
    pub steps: u64,
    /// Base cells per rank (refined cells scale off this).
    pub cells: usize,
    /// Rebalance (alltoall) period in steps.
    pub rebalance_every: u64,
    /// Bulk footprint bytes.
    pub bulk_bytes: u64,
}

impl Default for Clamr {
    fn default() -> Self {
        Clamr {
            steps: 35,
            cells: 30_000,
            rebalance_every: 10,
            bulk_bytes: 0,
        }
    }
}

/// Refinement factor at `step` for `rank`: a travelling wave in [1, 4].
fn refine_factor(step: u64, rank: u32, nranks: u32) -> u64 {
    let phase = (step + u64::from(rank) * 3) % u64::from(nranks.max(1) * 2);
    1 + phase % 4
}

impl Workload for Clamr {
    fn name(&self) -> &'static str {
        "clamr"
    }

    fn run(&self, env: &mut AppEnv) {
        let world = env.world();
        let n = env.nranks();
        let me = env.rank();
        let left = (me + n - 1) % n;
        let right = (me + 1) % n;
        // The largest interface chunk: 256 cells at the maximum refinement.
        let max_chunk = 256 * 4;
        assert!(
            n == 1 || self.cells >= max_chunk,
            "clamr: cells {} must be at least {max_chunk}, the largest chunk it exchanges, \
             on more than one rank",
            self.cells
        );

        let cells = env.alloc_f64("cells", self.cells);
        // Exchange buffers sized for the maximum refinement factor.
        let halo = env.alloc_f64("halo", 2 * max_chunk);
        // Rebalance buffers must split evenly over the ranks.
        let xlen = ((self.cells.min(4096) / n as usize).max(1)) * n as usize;
        let xfer = env.alloc_f64("rebalance", xlen);
        let xrecv = env.alloc_f64("rebalance-in", xlen);
        let scal = env.alloc_f64("scalars", 4);
        if self.bulk_bytes > 0 {
            env.alloc_bulk("amr-tree", self.bulk_bytes);
        }

        let seed = env.seed();
        env.work(SimDuration::micros(60), |m| {
            m.with_mut(cells, |c| {
                let mut s = mana_sim::rng::derive_seed_idx(seed, "clamr", u64::from(me));
                for v in c.iter_mut() {
                    s = mana_sim::rng::splitmix64(s);
                    *v = 1.0 + (s >> 40) as f64 * 1e-6;
                }
            });
        });

        loop {
            let iter = env.peek(scal, |s| s[0]) as u64;
            if iter >= self.steps {
                break;
            }
            env.begin_step();

            let refine = refine_factor(iter, me, n);
            // Compute scales with the current refinement.
            let sweep = SimDuration::nanos(12 * self.cells as u64 * refine);
            env.work(sweep, |m| {
                m.with2_mut(cells, halo, |c, h| {
                    let inflow = h.iter().sum::<f64>() / (h.len() as f64 + 1.0);
                    for v in c.iter_mut() {
                        *v = 0.999 * *v + 1e-7 * inflow;
                    }
                });
            });

            // Neighbor exchange: size depends deterministically on the
            // *minimum* of the two sides' refinement (interface cells).
            if n > 1 {
                let chunk = (256
                    * refine
                        .min(refine_factor(iter, right, n))
                        .min(refine_factor(iter, left, n))) as usize;
                let s1 = env.isend_arr(world, cells, 0..chunk, right, 31);
                let s2 = env.isend_arr(world, cells, 0..chunk, left, 31);
                let r1 = env.irecv_into(world, halo, 0, SrcSpec::Rank(left), TagSpec::Tag(31));
                let r2 = env.irecv_into(
                    world,
                    halo,
                    max_chunk,
                    SrcSpec::Rank(right),
                    TagSpec::Tag(31),
                );
                env.wait_slot(r1);
                env.wait_slot(r2);
                env.wait_slot(s1);
                env.wait_slot(s2);
            }

            // Periodic global rebalance: equal-chunk alltoall of cell data.
            if n > 1
                && self.rebalance_every > 0
                && iter % self.rebalance_every == self.rebalance_every - 1
            {
                env.alltoall_arr(world, xfer, xrecv);
                env.work(SimDuration::micros(100), |m| {
                    m.with2_mut(cells, xrecv, |c, x| {
                        let adj = x.iter().sum::<f64>() * 1e-9;
                        for v in c.iter_mut().take(64) {
                            *v += adj;
                        }
                    });
                });
            }

            // Conservation check.
            env.work(SimDuration::micros(20), |m| {
                m.with2_mut(cells, scal, |c, s| {
                    s[1] = c.iter().sum::<f64>();
                });
            });
            env.allreduce_arr(world, scal, ReduceOp::Sum);
            env.work(SimDuration::micros(1), |m| {
                m.with_mut(scal, |s| {
                    s[0] = (s[0] / f64::from(n)).round() + 1.0;
                    s[2] = s[1]; // global mass
                });
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refine_factor_deterministic_and_bounded() {
        for step in 0..100 {
            for rank in 0..16 {
                let f = refine_factor(step, rank, 16);
                assert!((1..=4).contains(&f));
                assert_eq!(f, refine_factor(step, rank, 16));
            }
        }
    }
}
