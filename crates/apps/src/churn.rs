//! Communicator-churn workload.
//!
//! Many production codes (and the libraries under them — PETSc, FFTW
//! plans, trilinos solvers) continually derive and free communicators,
//! groups and datatypes. MANA's record-replay log grows with every such
//! call, so restart time grows with job *lifetime* rather than live
//! state — exactly the pathology the restart subsystem's log compactor
//! targets. [`CommChurn`] makes the churn rate a dial:
//! `tests/restart_compaction.rs` turns it up and compares full-log vs
//! compacted-log replay.
//!
//! The workload follows the restore contract: bulk-synchronous steps
//! dominated by one long compute op (so checkpoints quantize to op
//! boundaries), all cross-step state — including communicator handles —
//! in managed upper-half memory.

use mana_core::{AppEnv, Workload};
use mana_mpi::{BaseType, CommHandle, ReduceOp};
use mana_sim::time::SimDuration;

/// Bulk-synchronous app whose every step churns `churn` dup/free cycles
/// (plus optional datatype, group and split churn) and then reduces over
/// a persistent dup'd communicator.
pub struct CommChurn {
    /// Outer steps.
    pub steps: u64,
    /// Dead `comm_dup` + `comm_free` cycles per step.
    pub churn: u64,
    /// Long compute op per step (the checkpoint-quantization anchor).
    pub work: SimDuration,
    /// Every `split_every` steps, split the world; color-0 members free
    /// immediately, color-1 members keep theirs until the next split
    /// (cross-step handle in managed memory). `0` disables splits.
    pub split_every: u64,
    /// The last rank passes a negative color into splits (undefined
    /// color → null communicator), exercising burned virtual ids.
    pub undef_split: bool,
    /// Even ranks run a local group-derivation cycle per step
    /// (rank-asymmetric local churn).
    pub group_churn: bool,
    /// Derive and free a contiguous datatype per step.
    pub dtype_churn: bool,
}

impl Default for CommChurn {
    fn default() -> CommChurn {
        CommChurn {
            steps: 6,
            churn: 16,
            work: SimDuration::micros(4000),
            split_every: 2,
            undef_split: true,
            group_churn: true,
            dtype_churn: true,
        }
    }
}

impl Workload for CommChurn {
    fn name(&self) -> &'static str {
        "comm-churn"
    }

    fn run(&self, env: &mut AppEnv) {
        let world = env.world();
        let n = env.nranks();
        let me = env.rank();
        let state = env.alloc_f64("state", 32);
        // handles[0] = persistent dup (created in step 0, used every
        // step); handles[1] = the split communicator a color-1 member
        // carries across steps.
        let handles = env.alloc_u64("handles", 2);
        let ctr = env.alloc_f64("step", 1);
        env.work(SimDuration::micros(5), |m| {
            m.with_mut(state, |s| {
                for (i, v) in s.iter_mut().enumerate() {
                    *v = (u64::from(me) * 100 + i as u64) as f64;
                }
            })
        });
        loop {
            let step = env.peek(ctr, |c| c[0]) as u64;
            if step >= self.steps {
                break;
            }
            env.begin_step();
            env.work(self.work, |m| {
                m.with_mut(state, |s| {
                    for v in s.iter_mut() {
                        *v = 0.75 * *v + 1.0;
                    }
                })
            });
            if step == 0 {
                let pc = env.comm_dup(world);
                env.work(SimDuration::micros(1), |m| {
                    m.with_mut(handles, |h| h[0] = pc.0)
                });
            }
            // Dead churn: derive, use once, free.
            for _ in 0..self.churn {
                let c = env.comm_dup(world);
                env.barrier(c);
                env.comm_free(c);
            }
            if self.dtype_churn {
                let base = env.type_base(BaseType::Double);
                let t = env.type_contiguous(4, base);
                env.type_free(t);
            }
            if self.group_churn && me.is_multiple_of(2) {
                let g = env.comm_group(world);
                let g2 = env.group_incl(g, &[0]);
                env.group_free(g2);
                env.group_free(g);
            }
            if self.split_every != 0 && n >= 2 && step.is_multiple_of(self.split_every) {
                // Free the split kept from the previous cadence point.
                // Whether one exists is derived from (rank, step, config)
                // alone — never from mutated state — so the operation
                // sequence is identical on re-entry after a restart, per
                // the restore contract. (Collective free discipline holds:
                // exactly the color-1 membership frees together.)
                let keeper = me % 2 == 1 && !(self.undef_split && me == n - 1);
                if keeper && step > 0 {
                    let prev = env.peek(handles, |h| h[1]);
                    env.comm_free(CommHandle(prev));
                    env.work(SimDuration::micros(1), |m| {
                        m.with_mut(handles, |h| h[1] = 0)
                    });
                }
                let color = if self.undef_split && me == n - 1 {
                    -1
                } else {
                    (me % 2) as i32
                };
                match env.comm_split(world, color, me as i32) {
                    Some(s) if color == 0 => env.comm_free(s),
                    Some(s) => {
                        env.work(SimDuration::micros(1), |m| {
                            m.with_mut(handles, |h| h[1] = s.0)
                        });
                    }
                    None => {}
                }
            }
            let pc = CommHandle(env.peek(handles, |h| h[0]));
            env.allreduce_arr(pc, state, ReduceOp::Sum);
            let inv = 1.0 / f64::from(n);
            env.work(SimDuration::micros(2), |m| {
                m.with_mut(state, |s| {
                    for v in s.iter_mut() {
                        *v *= inv;
                    }
                })
            });
            env.work(SimDuration::micros(1), |m| m.with_mut(ctr, |c| c[0] += 1.0));
        }
    }
}
