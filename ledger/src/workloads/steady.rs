//! `steady_hpcg_64` — the paper's Fig. 2/3 claim: an application that never
//! checkpoints runs under MANA at (almost) native speed.
//!
//! One rep is a native run and a MANA run of the same HPCG job. Scheduler,
//! MPI/network model and the MANA wrappers do all the work; coordinator,
//! image, store and restart layers are idle, which makes this the *bypass*
//! workload for every checkpoint-path change.

use super::{same_checksums, seeded, Rep, Trace, Workload};
use crate::{probes, span, stats};
use mana_apps::Hpcg;
use mana_core::{JobBuilder, ManaSession};
use mana_mpi::MpiProfile;
use mana_sim::cluster::ClusterSpec;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const RANKS: u32 = 64;
const NODES: u32 = 8;
const STEPS: u64 = 10;

/// Native and MANA runs ended on the same per-rank state, and the MANA run
/// ran to completion.
pub fn oracle(native: &BTreeMap<u32, u64>, mana: &BTreeMap<u32, u64>, killed: bool) -> bool {
    same_checksums(native, mana) && !killed
}

/// One rep, split between its native half and its MANA half.
struct Split {
    native_host_s: f64,
    mana_host_s: f64,
    native_app_sim_s: f64,
    mana_app_sim_s: f64,
}

/// See the module docs.
pub struct Steady {
    seed: u64,
    app: Arc<Hpcg>,
    session: ManaSession,
    /// One entry per rep since the last set-up, warm-up included.
    splits: Vec<Split>,
}

impl Steady {
    /// Inputs for `seed`.
    pub fn new(seed: u64) -> Steady {
        Steady {
            seed,
            // The seed fills the vectors (through `JobBuilder::seed`) and
            // jitters the problem size by < 0.5 %, so that no two seeds
            // solve the identical system.
            app: Arc::new(Hpcg {
                iters: STEPS,
                rows: 80_000 + seeded(seed, 1, 257) as usize,
                boundary: 768 + seeded(seed, 2, 9) as usize,
                bulk_bytes: 0,
            }),
            session: ManaSession::new(),
            splits: Vec::new(),
        }
    }

    fn job(&self) -> JobBuilder {
        JobBuilder::new()
            .cluster(ClusterSpec::cori(NODES))
            .ranks(RANKS)
            .profile(MpiProfile::cray_mpich())
            .seed(self.seed)
    }
}

impl Workload for Steady {
    fn pinned(&self) -> bool {
        true
    }

    fn set_up(&mut self) {
        *self = Steady::new(self.seed);
    }

    fn rep(&mut self) -> Rep {
        let t0 = Instant::now();
        let native = {
            let _s = span::open("mpi", "run_native");
            self.session.run_native(self.job(), self.app.clone())
        };
        let t1 = Instant::now();
        let mana = {
            let _s = span::open("core.wrapper", "run");
            self.session.run(self.job(), self.app.clone())
        };
        let t2 = Instant::now();
        let (Ok(native), Ok(mana)) = (native, mana) else {
            return Rep {
                wall_s: (t2 - t0).as_secs_f64(),
                sim_cost_s: 0.0,
                attempted: 1,
                failed: 1,
            };
        };
        let ok = oracle(&native.checksums, mana.checksums(), mana.killed());
        let (n_app, m_app) = (
            native.app_wall.as_secs_f64(),
            mana.outcome().app_wall.as_secs_f64(),
        );
        self.splits.push(Split {
            native_host_s: (t1 - t0).as_secs_f64(),
            mana_host_s: (t2 - t1).as_secs_f64(),
            native_app_sim_s: n_app,
            mana_app_sim_s: m_app,
        });
        Rep {
            wall_s: (t2 - t0).as_secs_f64(),
            // What MANA costs the job on the simulated clock.
            sim_cost_s: m_app - n_app,
            attempted: 1,
            failed: u64::from(!ok),
        }
    }

    fn layers(&mut self, trace: &Trace<'_>) -> Vec<(&'static str, f64)> {
        // The timed reps are the last `trace.reps.len()` entries; the
        // warm-up of the last set-up round precedes them.
        let timed = &self.splits[self.splits.len() - trace.reps.len()..];
        let col = |f: fn(&Split) -> f64| stats::median(&timed.iter().map(f).collect::<Vec<_>>());
        let (native_s, mana_s) = (col(|s| s.native_host_s), col(|s| s.mana_host_s));
        let (n_app, m_app) = (col(|s| s.native_app_sim_s), col(|s| s.mana_app_sim_s));
        let mut out = vec![
            ("mpi.native_wall_s", native_s),
            ("mpi.sim_native_app_s", n_app),
            ("core.wrapper.host_ratio", mana_s / native_s),
            ("core.wrapper.sim_app_s", m_app),
            (
                "core.wrapper.sim_overhead_pct",
                (m_app / n_app - 1.0) * 100.0,
            ),
            (
                "sim.sched.host_us_per_rank_step",
                native_s * 1e6 / (f64::from(RANKS) * STEPS as f64),
            ),
        ];
        out.extend(probes::sched(trace.affinity));
        out
    }
}
