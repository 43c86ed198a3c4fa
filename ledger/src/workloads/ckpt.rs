//! `ckpt_gromacs_64` — the fault-tolerance use and Fig. 6/8: a job takes one
//! checkpoint mid-run and *continues*.
//!
//! GROMACS with the paper's footprint (91 MB logical image per rank, about
//! 0.2 MB of it dense). Set-up runs the job once without a checkpoint (the
//! probe) to place the checkpoint mid-application; a rep is a fresh session
//! running the job to completion with that one checkpoint. This is where
//! the coordinator/helper protocol, the sparse-image snapshot/encode,
//! `FsStore::put` and the resume path do their work, and with two OS threads
//! per rank it is the RSS and thread-count workload. Dense digest paths do
//! almost nothing here.

use super::{by_rep, median_over_reps, same_checksums, seeded, Rep, Trace, Workload};
use crate::span::{self, SpanStore};
use crate::stats;
use mana_apps::{bulk_bytes_for, AppKind, Gromacs};
use mana_core::{CheckpointStore, CkptReport, FsStore, InMemStore, JobBuilder, ManaSession};
use mana_mpi::MpiProfile;
use mana_sim::cluster::ClusterSpec;
use mana_sim::fs::FsConfig;
use mana_sim::memory::PAGE;
use mana_sim::time::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const RANKS: u32 = 64;
const NODES: u32 = 8;
const STEPS: u64 = 10;

/// Which store a session writes to.
#[derive(Clone, Copy)]
enum Backing {
    /// The default Lustre-like `FsStore`.
    Fs,
    /// Zero-cost storage: what is left is protocol and resume.
    InMem,
}

/// The checkpointed run ended on the probe's per-rank state, took exactly
/// one checkpoint and was not killed by it.
pub fn oracle(
    probe: &BTreeMap<u32, u64>,
    run: &BTreeMap<u32, u64>,
    checkpoints: usize,
    killed: bool,
) -> bool {
    same_checksums(probe, run) && checkpoints == 1 && !killed
}

/// Outcome of one checkpoint-and-continue run.
struct Run {
    wall_s: f64,
    ok: bool,
    report: Option<CkptReport>,
    /// Bytes the store holds ÷ logical image bytes offered.
    stored_frac: f64,
}

/// One probed scenario: the job, where its checkpoint goes and what the
/// uninterrupted run produced.
struct Scenario {
    ranks: u32,
    app: Arc<Gromacs>,
    seed: u64,
    mid: SimTime,
    probe_sums: BTreeMap<u32, u64>,
    probe_wall_s: f64,
}

impl Scenario {
    fn job(&self) -> JobBuilder {
        JobBuilder::new()
            .cluster(ClusterSpec::cori(NODES))
            .ranks(self.ranks)
            .profile(MpiProfile::cray_mpich())
            .seed(self.seed)
    }

    fn probe(ranks: u32, seed: u64) -> Scenario {
        let mut sc = Scenario {
            ranks,
            // The seed fills the particle arrays and jitters the footprint
            // by up to 63 pages (0.3 %).
            app: Arc::new(Gromacs {
                steps: STEPS,
                bulk_bytes: bulk_bytes_for(AppKind::Gromacs, NODES) + seeded(seed, 3, 64) * PAGE,
                ..Gromacs::default()
            }),
            seed,
            mid: SimTime(0),
            probe_sums: BTreeMap::new(),
            probe_wall_s: 0.0,
        };
        let t0 = Instant::now();
        let probe = ManaSession::new()
            .run(sc.job(), sc.app.clone())
            .expect("probe run");
        sc.probe_wall_s = t0.elapsed().as_secs_f64();
        let out = probe.outcome();
        // Mid-application, for every seed: where a checkpoint lands decides
        // how much host work it is, and that must not vary with the seed.
        sc.mid = SimTime(out.wall.as_nanos() - out.app_wall.as_nanos() / 2);
        sc.probe_sums = out.checksums.clone();
        sc
    }

    /// One checkpoint-and-continue run in a fresh session.
    fn run(&self, backing: Backing) -> Run {
        let store: Arc<dyn CheckpointStore> = match backing {
            Backing::Fs if span::enabled() => Arc::new(SpanStore::new(
                "store.fs",
                FsStore::with_config(FsConfig::default()),
            )),
            Backing::Fs => Arc::new(FsStore::with_config(FsConfig::default())),
            Backing::InMem => Arc::new(InMemStore::new()),
        };
        let session = ManaSession::builder().shared_store(store.clone()).build();
        let t0 = Instant::now();
        let run = {
            let _s = span::open("core.coordinator", "session_run");
            session.run(self.job().checkpoint_at(self.mid), self.app.clone())
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let Ok(run) = run else {
            return Run {
                wall_s,
                ok: false,
                report: None,
                stored_frac: 0.0,
            };
        };
        let ckpts = run.ckpts();
        let stored: u64 = store
            .list()
            .iter()
            .map(|p| store.logical_len(p).unwrap_or(0))
            .sum();
        let offered: u64 = ckpts.iter().map(CkptReport::total_image_bytes).sum();
        Run {
            wall_s,
            ok: oracle(&self.probe_sums, run.checksums(), ckpts.len(), run.killed()),
            stored_frac: stored as f64 / offered.max(1) as f64,
            report: ckpts.into_iter().next(),
        }
    }
}

/// See the module docs.
pub struct Ckpt {
    seed: u64,
    scenario: Option<Scenario>,
    last: Option<Run>,
}

impl Ckpt {
    /// Inputs for `seed`.
    pub fn new(seed: u64) -> Ckpt {
        Ckpt {
            seed,
            scenario: None,
            last: None,
        }
    }
}

impl Workload for Ckpt {
    fn pinned(&self) -> bool {
        true
    }

    fn set_up(&mut self) {
        self.scenario = Some(Scenario::probe(RANKS, self.seed));
    }

    fn rep(&mut self) -> Rep {
        let run = self.scenario.as_ref().expect("set_up ran").run(Backing::Fs);
        let rep = Rep {
            wall_s: run.wall_s,
            sim_cost_s: run.report.as_ref().map_or(0.0, |r| r.total().as_secs_f64()),
            attempted: 1,
            failed: u64::from(!run.ok),
        };
        self.last = Some(run);
        rep
    }

    fn layers(&mut self, trace: &Trace<'_>) -> Vec<(&'static str, f64)> {
        let sc = self.scenario.as_ref().expect("set_up ran");
        let Some(Run {
            report: Some(r),
            stored_frac,
            ..
        }) = &self.last
        else {
            return Vec::new();
        };

        // The session's one SpanStore splits a rep's wall from outside:
        // run starts → begin_epoch → last put returns → run returns.
        let runs = by_rep(trace.spans, "core.coordinator", "session_run");
        let epochs = by_rep(trace.spans, "store.fs", "begin_epoch");
        let puts = by_rep(trace.spans, "store.fs", "put");
        let (mut wall, mut pre, mut window, mut post) = (vec![], vec![], vec![], vec![]);
        for (rep, run) in &runs {
            let (Some(e), Some(p)) = (epochs.get(rep), puts.get(rep)) else {
                continue;
            };
            let begin = e[0].start_ns;
            let last_put = p.iter().map(|s| s.end_ns).max().unwrap_or(begin);
            wall.push(run[0].host_ns() as f64 / 1e9);
            pre.push((begin - run[0].start_ns) as f64 / 1e9);
            window.push((last_put - begin) as f64 / 1e9);
            post.push((run[0].end_ns - last_put) as f64 / 1e9);
        }
        let wall_s = stats::median(&wall);
        let threads = epochs.values().map(|e| e[0].os_threads).max().unwrap_or(0);

        // Two one-off comparisons, each the mean of two runs (recording has
        // stopped, so no SpanStore is installed): the same job on zero-cost
        // storage, and the same scenario at a quarter of the ranks (linear
        // scaling would read 4.0).
        let twice = |sc: &Scenario, b| stats::median(&[sc.run(b).wall_s, sc.run(b).wall_s]);
        let inmem_s = twice(sc, Backing::InMem);
        let quarter_s = twice(&Scenario::probe(RANKS / 4, self.seed), Backing::Fs);

        vec![
            (
                "core.coordinator.sim_agreement_s",
                r.agreement_overhead().as_secs_f64(),
            ),
            (
                "core.coordinator.sim_bookmark_s",
                r.bookmark_overhead().as_secs_f64(),
            ),
            (
                "core.coordinator.sim_completion_s",
                r.completion_overhead().as_secs_f64(),
            ),
            ("core.coordinator.sim_drain_s", r.max_drain().as_secs_f64()),
            ("core.coordinator.sim_write_s", r.max_write().as_secs_f64()),
            (
                "core.coordinator.extra_iterations",
                f64::from(r.extra_iterations),
            ),
            (
                "core.coordinator.bytes_copied_mb",
                r.total_bytes_copied() as f64 / 1e6,
            ),
            ("core.coordinator.host_pre_ckpt_s", stats::median(&pre)),
            (
                "core.coordinator.host_ckpt_window_s",
                stats::median(&window),
            ),
            ("core.coordinator.host_post_ckpt_s", stats::median(&post)),
            (
                "core.coordinator.host_ckpt_cost_s",
                wall_s - sc.probe_wall_s,
            ),
            (
                "core.coordinator.host_ckpt_cost_inmem_s",
                inmem_s - sc.probe_wall_s,
            ),
            (
                "store.fs.session_put_ms",
                median_over_reps(&puts, |g| g.iter().map(|s| s.host_ns() as f64 / 1e6).sum()),
            ),
            (
                "store.fs.session_put_count",
                median_over_reps(&puts, |g| g.len() as f64),
            ),
            ("store.fs.session_stored_frac", *stored_frac),
            ("sim.sched.os_threads", threads as f64),
            ("sim.sched.wall_ratio_4x_ranks", wall_s / quarter_s),
        ]
    }
}
