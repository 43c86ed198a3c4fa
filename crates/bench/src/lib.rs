//! # mana-bench — figure-regeneration harnesses
//!
//! One `cargo bench` target per figure of the paper's evaluation section
//! (`fig2_single_node` … `fig9_migration`, plus the §3.2.2 memory table,
//! the §3.5 implementation-switch demo and the §2.6 protocol check), and a
//! criterion suite (`micro`) measuring the real wall-clock cost of MANA's
//! hot structures.
//!
//! Scale: by default the sweeps run at a reduced scale (fewer nodes/ranks
//! and steps) so `cargo bench` finishes in minutes; set `MANA_BENCH_FULL=1`
//! to run the paper's full scale (64 nodes × 32 ranks/node = 2048 ranks).
//! Reduced scale preserves every *shape* the paper reports — who wins, by
//! roughly what factor, where the trends bend — which is the reproduction
//! target.

#![warn(missing_docs)]

use mana_apps::AppKind;
use mana_core::{CheckpointStore, Incarnation, JobBuilder, ManaSession, TopologyKind};
use mana_mpi::MpiProfile;
use mana_sim::cluster::ClusterSpec;
use mana_sim::time::{SimDuration, SimTime};
use std::sync::Arc;

/// Sweep scale, controlled by `MANA_BENCH_FULL`.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Full paper scale?
    pub full: bool,
}

impl Scale {
    /// Read from the environment.
    pub fn from_env() -> Scale {
        Scale {
            full: std::env::var("MANA_BENCH_FULL").is_ok_and(|v| v == "1"),
        }
    }

    /// Compute-node counts for the multi-node sweeps (paper: 2..64).
    pub fn node_counts(self) -> Vec<u32> {
        if self.full {
            vec![2, 4, 8, 16, 32, 64]
        } else {
            vec![2, 4, 8]
        }
    }

    /// Ranks per node (paper: 32).
    pub fn ranks_per_node(self) -> u32 {
        if self.full {
            32
        } else {
            8
        }
    }

    /// Single-node rank sweep (paper: 1..32; LULESH {1,8,27}).
    pub fn single_node_ranks(self, app: AppKind) -> Vec<u32> {
        match (app, self.full) {
            (AppKind::Lulesh, true) => vec![1, 8, 27],
            (AppKind::Lulesh, false) => vec![1, 8],
            (_, true) => vec![1, 2, 4, 8, 16, 32],
            (_, false) => vec![1, 2, 4, 8, 16],
        }
    }

    /// Application steps per run.
    pub fn steps(self) -> u64 {
        if self.full {
            20
        } else {
            10
        }
    }

    /// Banner line describing the mode.
    pub fn banner(self) -> String {
        if self.full {
            "scale: FULL (paper scale; set by MANA_BENCH_FULL=1)".to_string()
        } else {
            "scale: reduced (set MANA_BENCH_FULL=1 for the paper's 2048-rank sweeps)".to_string()
        }
    }
}

/// Session whose checkpoint store is a Cori-like Lustre filesystem (the
/// default `FsStore`).
pub fn lustre_session() -> ManaSession {
    ManaSession::new()
}

/// Session backed by an explicit checkpoint store — used by the
/// tiered-vs-Lustre rows of Figs. 6 and 7.
pub fn session_with(store: Arc<dyn CheckpointStore>) -> ManaSession {
    ManaSession::builder().shared_store(store).build()
}

/// LULESH needs rank counts that factor into a 3-D grid; clamp a generic
/// rank count to something cubic-ish.
pub fn lulesh_ranks(nominal: u32) -> u32 {
    // Largest cube ≤ nominal, at least 1.
    let mut edge = 1;
    while (edge + 1) * (edge + 1) * (edge + 1) <= nominal {
        edge += 1;
    }
    edge * edge * edge
}

/// Run one app natively and under MANA on `cluster` and return
/// (native wall, MANA wall, normalized performance %).
pub fn overhead_pair(
    app: AppKind,
    cluster: &ClusterSpec,
    nranks: u32,
    steps: u64,
    seed: u64,
) -> (SimDuration, SimDuration, f64) {
    let workload = mana_apps::make_app(app, steps, cluster.nodes, false);
    let session = lustre_session();
    let job = || {
        JobBuilder::new()
            .cluster(cluster.clone())
            .ranks(nranks)
            .profile(MpiProfile::cray_mpich())
            .seed(seed)
    };
    let native = session
        .run_native(job(), workload.clone())
        .expect("native run");
    let mana = session.run(job(), workload).expect("mana run");
    assert_eq!(
        &native.checksums,
        mana.checksums(),
        "{:?} diverged under MANA",
        app
    );
    // Compare application wall time (startup measured out), as the paper's
    // minutes-long runs effectively do.
    let mana_app_wall = mana.outcome().app_wall;
    let pct = native.app_wall.as_secs_f64() / mana_app_wall.as_secs_f64() * 100.0;
    (native.app_wall, mana_app_wall, pct)
}

/// Run one app under MANA with a single checkpoint-and-kill in `session`,
/// returning the killed incarnation (whose `ckpts()` holds the report and
/// whose `restart_on` boots the follow-up incarnation).
#[allow(clippy::too_many_arguments)]
pub fn checkpoint_run(
    app: AppKind,
    cluster: &ClusterSpec,
    nranks: u32,
    steps: u64,
    seed: u64,
    session: &ManaSession,
    ckpt_dir: &str,
    with_bulk: bool,
) -> Incarnation {
    checkpoint_run_topo(
        app,
        cluster,
        nranks,
        steps,
        seed,
        session,
        ckpt_dir,
        with_bulk,
        TopologyKind::Flat,
    )
}

/// [`checkpoint_run`] under an explicit coordinator topology (the fig8
/// flat-vs-tree comparison).
#[allow(clippy::too_many_arguments)]
pub fn checkpoint_run_topo(
    app: AppKind,
    cluster: &ClusterSpec,
    nranks: u32,
    steps: u64,
    seed: u64,
    session: &ManaSession,
    ckpt_dir: &str,
    with_bulk: bool,
    topology: TopologyKind,
) -> Incarnation {
    let workload = mana_apps::make_app(app, steps, cluster.nodes, with_bulk);
    let job = || {
        JobBuilder::new()
            .cluster(cluster.clone())
            .ranks(nranks)
            .profile(MpiProfile::cray_mpich())
            .seed(seed)
            .ckpt_dir(ckpt_dir)
            .topology(topology)
    };
    // Probe the run length with a dry run so the checkpoint lands mid-run.
    let probe = session.run(job(), workload.clone()).expect("probe run");
    // Land the checkpoint in the middle of the *application* window (the
    // probe's total wall time is dominated by MPI_Init at these run
    // lengths; the paper's minutes-long runs don't have that problem).
    let half = SimTime(probe.outcome().wall.as_nanos() - probe.outcome().app_wall.as_nanos() / 2);
    let killed = session
        .run(job().checkpoint_at(half).then_kill(), workload)
        .expect("checkpoint-and-kill run");
    assert!(killed.killed(), "{app:?}: checkpoint-and-kill did not kill");
    assert_eq!(killed.ckpts().len(), 1);
    killed
}

/// Markdown-ish table printer used by every figure target.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Print aligned.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:>width$}  ", c, width = widths[i]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w + 2))
                .collect::<String>()
        );
        for r in &self.rows {
            line(r);
        }
    }
}

/// Standard figure banner.
pub fn banner(fig: &str, title: &str, paper_claim: &str) {
    println!();
    println!("=== {fig}: {title}");
    println!("    paper: {paper_claim}");
    println!("    {}", Scale::from_env().banner());
    println!();
}
