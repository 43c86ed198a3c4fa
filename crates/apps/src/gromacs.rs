//! GROMACS-like molecular-dynamics skeleton.
//!
//! Communication profile (what the figures depend on): every step does a
//! neighbor-list halo exchange of *small* messages with several peers,
//! twice (positions out, forces back), plus a scalar energy allreduce.
//! The high MPI-call rate with small payloads is exactly what makes the
//! real GROMACS the paper's worst case for MANA's per-call FS-register
//! overhead (2.1% unpatched → 0.6% patched, §3.3).

use mana_core::{AppEnv, Workload};
use mana_mpi::{ReduceOp, SrcSpec, TagSpec};
use mana_sim::time::SimDuration;

/// Workload configuration.
pub struct Gromacs {
    /// MD steps.
    pub steps: u64,
    /// Particles per rank (drives compute time).
    pub particles: usize,
    /// Neighbor pairs each side (capped by world size).
    pub neighbors: u32,
    /// Halo chunk elements per neighbor (small: eager path).
    pub chunk: usize,
    /// Bulk footprint bytes (checkpoint-size modelling; 0 for tests).
    pub bulk_bytes: u64,
}

impl Default for Gromacs {
    fn default() -> Self {
        Gromacs {
            steps: 40,
            particles: 4000,
            neighbors: 4,
            chunk: 192, // 1.5 KB — well under every eager threshold
            bulk_bytes: 0,
        }
    }
}

impl Workload for Gromacs {
    fn name(&self) -> &'static str {
        "gromacs"
    }

    fn run(&self, env: &mut AppEnv) {
        assert!(self.particles >= 1, "gromacs: particles must be at least 1");
        // A halo chunk is sent from the front of `pos` and `frc`.
        assert!(
            self.chunk <= 3 * self.particles,
            "gromacs: chunk {} must be at most 3 * particles ({})",
            self.chunk,
            3 * self.particles
        );
        let world = env.world();
        let n = env.nranks();
        let me = env.rank();
        let nbrs = self
            .neighbors
            .min(n.saturating_sub(1) / 2)
            .max(if n > 1 { 1 } else { 0 });

        let pos = env.alloc_f64("pos", 3 * self.particles);
        let frc = env.alloc_f64("frc", 3 * self.particles);
        // One inbound halo chunk per neighbor per direction.
        let halo = env.alloc_f64("halo", (2 * nbrs as usize).max(1) * self.chunk);
        let scal = env.alloc_f64("scalars", 4);
        if self.bulk_bytes > 0 {
            env.alloc_bulk("topology+trajectory", self.bulk_bytes);
        }

        // Deterministic initial conditions.
        let seed = env.seed();
        env.work(SimDuration::micros(50), |m| {
            m.with_mut(pos, |p| {
                let mut s = mana_sim::rng::derive_seed_idx(seed, "gromacs-init", u64::from(me));
                for v in p.iter_mut() {
                    s = mana_sim::rng::splitmix64(s);
                    *v = (s >> 11) as f64 / (1u64 << 53) as f64;
                }
            });
        });

        // ~60 ns of force work per particle per step: with the default
        // sizes a step is ~1 ms of compute against ~50 wrapper-visible MPI
        // calls, reproducing GROMACS's ~2% overhead sensitivity.
        let force_time = SimDuration::nanos(140 * self.particles as u64);
        let integrate_time = SimDuration::nanos(60 * self.particles as u64);

        loop {
            let iter = env.peek(scal, |s| s[0]) as u64;
            if iter >= self.steps {
                break;
            }
            env.begin_step();

            // Force computation from current positions + halos.
            env.work(force_time, |m| {
                m.with3_mut(pos, frc, halo, |p, f, h| {
                    let hsum: f64 = h.iter().sum::<f64>() / (h.len() as f64 + 1.0);
                    for i in 0..f.len() {
                        f[i] = -0.01 * p[i] + 1e-4 * hsum;
                    }
                });
            });

            // Two rounds of small-message halo exchange (positions, then
            // forces) with `nbrs` peers on each side.
            for round in 0..2u32 {
                let tag = 10 + round as i32;
                let src_arr = if round == 0 { pos } else { frc };
                let mut slots = Vec::new();
                for k in 0..nbrs {
                    let up = (me + k + 1) % n;
                    let down = (me + n - (k + 1)) % n;
                    let off = (2 * k as usize) * self.chunk;
                    slots.push(env.irecv_into(
                        world,
                        halo,
                        off,
                        SrcSpec::Rank(down),
                        TagSpec::Tag(tag),
                    ));
                    slots.push(env.irecv_into(
                        world,
                        halo,
                        off + self.chunk,
                        SrcSpec::Rank(up),
                        TagSpec::Tag(tag),
                    ));
                    slots.push(env.isend_arr(world, src_arr, 0..self.chunk, up, tag));
                    slots.push(env.isend_arr(world, src_arr, 0..self.chunk, down, tag));
                }
                for s in slots {
                    env.wait_slot(s);
                }
            }

            // Integrate.
            env.work(integrate_time, |m| {
                m.with2_mut(pos, frc, |p, f| {
                    let mut e = 0.0;
                    for i in 0..p.len() {
                        p[i] += 0.002 * f[i];
                        e += f[i] * f[i];
                    }
                    // Stash local energy for the reduction.
                    f[0] = e;
                });
            });
            env.work(SimDuration::micros(1), |m| {
                m.with2_mut(frc, scal, |f, s| s[1] = f[0]);
            });
            env.allreduce_arr(world, scal, ReduceOp::Sum);
            // allreduce summed the iteration counter across ranks too;
            // renormalize and advance.
            env.work(SimDuration::micros(1), |m| {
                m.with_mut(scal, |s| {
                    s[0] = (s[0] / f64::from(n)).round() + 1.0;
                    s[2] = s[1]; // running energy
                });
            });
        }
    }
}
