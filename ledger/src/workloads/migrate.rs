//! `migrate_lulesh_125` — the abstract's headline and Fig. 7/9: a job
//! checkpointed under Cray MPICH on a Cori-like cluster resumes under Open
//! MPI on a local cluster.
//!
//! LULESH with the paper's footprint (113 MB logical per rank) on a 5×5×5
//! decomposition; it calls `cart_create`, so restart has something to
//! replay. Set-up is the uninterrupted probe plus a checkpoint-and-kill run;
//! a rep restarts the killed incarnation on the other cluster and runs it to
//! completion. `core.restart` (fetch, decode, install, replay, rebind,
//! resync) and a cross-implementation second half do the work; the
//! checkpoint write path is idle in the timed region.

use super::{by_rep, median_over_reps, same_checksums, seeded, Rep, Trace, Workload};
use crate::span::{self, SpanStore};
use mana_apps::{bulk_bytes_for, AppKind, Lulesh};
use mana_core::{FsStore, Incarnation, JobBuilder, ManaSession, RestartReport};
use mana_mpi::MpiProfile;
use mana_sim::cluster::ClusterSpec;
use mana_sim::fs::FsConfig;
use mana_sim::memory::PAGE;
use mana_sim::time::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const RANKS: u32 = 125;
const SOURCE_NODES: u32 = 8;
const DEST_NODES: u32 = 16;
const STEPS: u64 = 12;

/// The resumed incarnation ran to completion on the probe's per-rank state
/// and reported its restart.
pub fn oracle(
    probe: &BTreeMap<u32, u64>,
    resumed: &BTreeMap<u32, u64>,
    killed: bool,
    reported: bool,
) -> bool {
    same_checksums(probe, resumed) && !killed && reported
}

/// See the module docs.
pub struct Migrate {
    seed: u64,
    /// The killed source incarnation and the checksums to resume to.
    source: Option<(Incarnation, BTreeMap<u32, u64>)>,
    last: Option<RestartReport>,
}

impl Migrate {
    /// Inputs for `seed`.
    pub fn new(seed: u64) -> Migrate {
        Migrate {
            seed,
            source: None,
            last: None,
        }
    }
}

impl Workload for Migrate {
    fn pinned(&self) -> bool {
        true
    }

    fn set_up(&mut self) {
        // The seed fills the mesh and jitters the footprint by up to 63
        // pages (0.2 %).
        let app = Arc::new(Lulesh {
            steps: STEPS,
            bulk_bytes: bulk_bytes_for(AppKind::Lulesh, SOURCE_NODES)
                + seeded(self.seed, 5, 64) * PAGE,
            ..Lulesh::default()
        });
        let session = if span::enabled() {
            ManaSession::builder()
                .store(SpanStore::new(
                    "store.fs",
                    FsStore::with_config(FsConfig::default()),
                ))
                .build()
        } else {
            ManaSession::new()
        };
        let job = || {
            JobBuilder::new()
                .cluster(ClusterSpec::cori(SOURCE_NODES))
                .ranks(RANKS)
                .profile(MpiProfile::cray_mpich())
                .seed(self.seed)
        };
        let probe = session.run(job(), app.clone()).expect("probe run");
        let out = probe.outcome();
        // Mid-application, for every seed (see `ckpt.rs`).
        let at = SimTime(out.wall.as_nanos() - out.app_wall.as_nanos() / 2);
        let killed = session
            .run(job().checkpoint_at(at).then_kill(), app)
            .expect("checkpoint-and-kill run");
        assert!(killed.killed(), "source incarnation was not killed");
        self.source = Some((killed, out.checksums.clone()));
    }

    fn rep(&mut self) -> Rep {
        let (killed, reference) = self.source.as_ref().expect("set_up ran");
        let t0 = Instant::now();
        let resumed = {
            let _s = span::open("core.restart", "restart_on");
            killed.restart_on(
                JobBuilder::new()
                    .cluster(ClusterSpec::local_cluster(DEST_NODES))
                    .profile(MpiProfile::open_mpi()),
            )
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let report = resumed
            .as_ref()
            .ok()
            .and_then(|r| r.restart_report().cloned());
        let ok = resumed
            .as_ref()
            .is_ok_and(|r| oracle(reference, r.checksums(), r.killed(), report.is_some()));
        let rep = Rep {
            wall_s,
            sim_cost_s: report.as_ref().map_or(0.0, |r| r.total.as_secs_f64()),
            attempted: 1,
            failed: u64::from(!ok),
        };
        self.last = report;
        rep
    }

    fn layers(&mut self, trace: &Trace<'_>) -> Vec<(&'static str, f64)> {
        let Some(r) = &self.last else {
            return Vec::new();
        };
        let stage_names = [
            "core.restart.sim_image_read_s",
            "core.restart.sim_memory_restore_s",
            "core.restart.sim_state_restore_s",
            "core.restart.sim_drain_reload_s",
            "core.restart.sim_lower_boot_s",
            "core.restart.sim_replay_s",
            "core.restart.sim_rebind_s",
            "core.restart.sim_resync_s",
        ];
        let mut out: Vec<(&'static str, f64)> = stage_names
            .into_iter()
            .zip(r.stage_breakdown())
            .map(|(name, (_, d))| (name, d.as_secs_f64()))
            .collect();

        // restart_on entry → last get returns → restart_on returns.
        let restarts = by_rep(trace.spans, "core.restart", "restart_on");
        let gets = by_rep(trace.spans, "store.fs", "get");
        let (mut fetch, mut rest) = (vec![], vec![]);
        for (rep, run) in &restarts {
            let Some(g) = gets.get(rep) else { continue };
            let last_get = g.iter().map(|s| s.end_ns).max().unwrap_or(run[0].start_ns);
            fetch.push((last_get - run[0].start_ns) as f64 / 1e9);
            rest.push((run[0].end_ns - last_get) as f64 / 1e9);
        }
        out.extend([
            ("core.restart.replayed_calls", r.max_replayed_calls() as f64),
            ("core.restart.bytes_copied", r.total_bytes_copied() as f64),
            ("core.restart.pages_shared", r.total_pages_shared() as f64),
            (
                "core.restart.host_fetch_window_s",
                crate::stats::median(&fetch),
            ),
            ("core.restart.host_boot_run_s", crate::stats::median(&rest)),
            (
                "store.fs.session_get_ms",
                median_over_reps(&gets, |g| g.iter().map(|s| s.host_ns() as f64 / 1e6).sum()),
            ),
        ]);
        out
    }
}
