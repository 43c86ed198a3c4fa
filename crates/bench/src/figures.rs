//! [`FIGURES`]: what the reproduction claims about each result of the
//! paper's evaluation, and the sweep of simulated jobs (for §2.6, of
//! model-checked protocol configurations) that measures it.
//!
//! Claims, bands and sources are the ones the repo recorded before this
//! table: the banners, footers, rows and assertions of the `cargo bench`
//! targets it replaced, `mana_apps::paper_image_mb` and
//! `FsConfig::default`'s comment. No target comes from outside the repo.

use crate::{about, Claim, Figure, Runs, Scale, Sweep, Target};
use mana_apps::{AppKind, CollBench, Gromacs, OsuBandwidth, OsuCollLatency, OsuLatency, Series};
use mana_core::{JobBuilder, ManaConfig, ManaSession, TopologyKind, Workload};
use mana_model_check::{check, check_under, CheckOutcome, Spec};
use mana_mpi::{MpiJob, MpiProfile};
use mana_sim::cluster::{ClusterSpec, InterconnectKind, Placement};
use mana_sim::kernel::KernelModel;
use mana_sim::memory::{AddressSpace, Half, RegionKind};
use mana_sim::sched::{Sim, SimConfig};
use mana_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Every result of the paper's evaluation the reproduction measures, in
/// the paper's order.
pub static FIGURES: &[Figure] = &[
    Figure {
        key: "2.6",
        name: "§2.6",
        runs: &Runs(protocol),
        claims: &[
            Claim {
                claim: "no deadlocks or broken invariants (the implemented rule)",
                source: "`protocol_check.rs` banner",
                unit: "violations",
                extract: |s| {
                    let mut v = s.col("violations");
                    v.retain(|(l, _)| !l.starts_with(WEAKENED));
                    v
                },
                target: Target::Band(0.0, 0.0),
            },
            Claim {
                claim: "the rule without its slip-prevention term is caught",
                source: "`protocol_check.rs` \"(expected!)\" row",
                unit: "violations",
                extract: |s| s.col_of(WEAKENED, "violations"),
                target: Target::Band(1.0, f64::INFINITY),
            },
        ],
    },
    Figure {
        key: "2",
        name: "Fig. 2 (§3.3)",
        runs: &Runs(fig2),
        claims: &[Claim {
            claim: "overhead typically < 2 %, worst 2.1 % (GROMACS @16 ranks)",
            source: "`fig2_single_node.rs` banner",
            unit: "% of native",
            extract: |s| s.col("normalized %"),
            target: Target::Band(97.9, 100.0),
        }],
    },
    Figure {
        key: "3",
        name: "Fig. 3 (§3.3)",
        runs: &CHECKPOINTS,
        claims: &[Claim {
            claim: "typically < 2 % overhead, worst 4.5 % (GROMACS @512 ranks)",
            source: "`fig3_multi_node.rs` banner",
            unit: "% of native",
            extract: |s| s.col("normalized %"),
            target: Target::Band(95.5, 100.0),
        }],
    },
    Figure {
        key: "4",
        name: "Fig. 4 (§3.2.3)",
        runs: &Runs(fig4),
        claims: &[Claim {
            claim: "MANA degrades < 1 MB bandwidth; the patched kernel recovers it",
            source: "`fig4_bandwidth.rs` banner",
            unit: "MB/s",
            extract: |s| {
                let mean = |col| {
                    let v: Vec<f64> = s
                        .col(col)
                        .into_iter()
                        .filter(|(l, _)| l.parse::<u64>().is_ok_and(|b| b < 1 << 20))
                        .map(|(_, v)| v)
                        .collect();
                    v.iter().sum::<f64>() / v.len() as f64
                };
                vec![
                    ("MANA unpatched".into(), mean("MANA unpatched MB/s").round()),
                    ("MANA patched".into(), mean("MANA patched MB/s").round()),
                    ("native".into(), mean("native MB/s").round()),
                ]
            },
            target: Target::Rising,
        }],
    },
    Figure {
        key: "5",
        name: "Fig. 5 (§3.2.3)",
        runs: &Runs(fig5),
        claims: &[Claim {
            claim: "latency under MANA closely follows native (1-byte messages)",
            source: "`fig5_osu_latency.rs` banner; band: `fig2_single_node.rs`",
            unit: "%",
            extract: |s| {
                let mut v = s.col("MANA − native %");
                v.retain(|(l, _)| l.ends_with(" 1 B"));
                v
            },
            target: Target::Band(f64::NEG_INFINITY, 2.0),
        }],
    },
    Figure {
        key: "6",
        name: "Fig. 6 (§3.4)",
        runs: &CHECKPOINTS,
        claims: &[
            Claim {
                claim: "per-rank images as the paper annotates them, 93 MB..2 GB",
                source: "`crates/apps/src/common.rs` `paper_image_mb`",
                unit: "% of paper",
                extract: |s| s.col("% of paper"),
                target: about(100.0),
            },
            Claim {
                claim: "checkpoint time 1..40 s",
                source: "`fig6_checkpoint.rs` footer",
                unit: "s",
                extract: |s| s.col("ckpt s"),
                target: Target::Band(1.0, 40.0),
            },
            Claim {
                claim: "time ∝ total memory (doc) or grows with image/rank (footer): HPCG",
                source: "`fig6_checkpoint.rs` module doc and footer",
                unit: "s",
                extract: |s| s.col_of("HPCG", "ckpt s"),
                target: Target::Unresolved("ROADMAP item 6"),
            },
            Claim {
                claim: "4 TB over 64 nodes in ~30–40 s (HPCG, 2048 ranks)",
                source: "`crates/sim/src/fs.rs` `FsConfig::default`",
                unit: "s",
                extract: |s| s.col_of("HPCG, 2048 ranks", "ckpt s"),
                target: Target::Band(30.0, 40.0),
            },
        ],
    },
    Figure {
        key: "7",
        name: "Fig. 7 (§3.4)",
        runs: &CHECKPOINTS,
        claims: &[
            Claim {
                claim: "restart < 10 s .. 68 s",
                source: "`fig7_restart.rs` banner",
                unit: "s",
                extract: |s| s.col("restart s"),
                target: Target::Band(0.0, 68.0),
            },
            Claim {
                claim: "read-dominated (slowest image read, share of restart)",
                source: "`fig7_restart.rs` banner",
                unit: "%",
                extract: |s| s.col("read %"),
                target: Target::Band(50.0, 100.0),
            },
            Claim {
                claim: "replay < 10 % of restart",
                source: "`fig7_restart.rs` banner",
                unit: "%",
                extract: |s| s.col("replay %"),
                target: Target::Band(0.0, 10.0),
            },
        ],
    },
    Figure {
        key: "8",
        name: "Fig. 8 (§3.4)",
        runs: &CHECKPOINTS,
        claims: &[
            Claim {
                claim: "write dominates (share of checkpoint time)",
                source: "`fig8_breakdown.rs` banner",
                unit: "%",
                extract: |s| s.col("write %"),
                target: Target::Band(50.0, 100.0),
            },
            Claim {
                claim: "drain < 0.7 s",
                source: "`fig8_breakdown.rs` banner",
                unit: "s",
                extract: |s| s.col("drain s"),
                target: Target::Band(0.0, 0.7),
            },
            Claim {
                claim: "coordinator comm < 1.6 s (flat star)",
                source: "`fig8_breakdown.rs` banner",
                unit: "s",
                extract: |s| s.col("flat comm s"),
                target: Target::Band(0.0, 1.6),
            },
            Claim {
                claim: "the flat star's comm grows with ranks (GROMACS)",
                source: "`fig8_breakdown.rs` banner",
                unit: "s",
                extract: |s| s.col_of("GROMACS", "flat comm s"),
                target: Target::Rising,
            },
            Claim {
                claim: "the tree cuts the root's comm ≥ 2× at the most nodes",
                source: "`fig8_breakdown.rs` assertion",
                unit: "×",
                extract: |s| s.col_at_max("nodes", "comm ×"),
                target: Target::Band(2.0, f64::INFINITY),
            },
            Claim {
                claim: "flat and tree checkpoint the same image volume",
                source: "`fig8_breakdown.rs` assertion",
                unit: "B",
                extract: |s| s.col("tree − flat image B"),
                target: Target::Band(0.0, 0.0),
            },
        ],
    },
    Figure {
        key: "9",
        name: "Fig. 9 (§3.6)",
        runs: &MIGRATIONS,
        claims: &[
            Claim {
                claim: "restarted runtime within 1.8 % of native, all 3 configs",
                source: "`fig9_migration.rs` banner",
                unit: "%",
                extract: |s| {
                    let mut v = s.col("degradation %");
                    v.retain(|(l, _)| !l.contains("debug"));
                    v
                },
                target: Target::Band(f64::NEG_INFINITY, 1.8),
            },
            Claim {
                claim: "results bit-identical to the uninterrupted source run",
                source: "`fig9_migration.rs` footer",
                unit: "ranks diverged",
                extract: |s| s.col("ranks diverged"),
                target: Target::Band(0.0, 0.0),
            },
        ],
    },
    Figure {
        key: "3.2.2",
        name: "§3.2.2",
        runs: &Runs(mem_overhead),
        claims: &[
            Claim {
                claim: "constant ~26 MB duplicate MPI text in the upper half",
                source: "`mem_overhead.rs` banner",
                unit: "MB",
                extract: |s| s.col("dup MPI text MB"),
                target: about(26.0),
            },
            Claim {
                claim: "driver shm ~2 MB @2 nodes",
                source: "`mem_overhead.rs` banner",
                unit: "MB",
                extract: |s| s.col_of("2 nodes", "driver shm MB"),
                target: about(2.0),
            },
            Claim {
                claim: "driver shm ~40 MB @64 nodes",
                source: "`mem_overhead.rs` banner",
                unit: "MB",
                extract: |s| s.col_of("64 nodes", "driver shm MB"),
                target: about(40.0),
            },
        ],
    },
    Figure {
        key: "3.3",
        name: "§3.3",
        runs: &Runs(ablation),
        claims: &[
            Claim {
                claim: "FS-register swaps cost more than virtualization",
                source: "`ablation_overhead.rs` banner",
                unit: "points",
                extract: |s| s.col_of("removed by", "overhead %"),
                target: Target::Rising,
            },
            Claim {
                claim: "the kernel patch cuts overhead (2.1 % → 0.6 %)",
                source: "`ablation_overhead.rs` banner",
                unit: "%",
                extract: |s| s.col_of("kernel:", "overhead %"),
                target: Target::Rising,
            },
        ],
    },
    Figure {
        key: "3.5",
        name: "§3.5",
        runs: &MIGRATIONS,
        claims: &[Claim {
            claim: "Cray MPICH checkpoint restarts under debug MPICH 3.3, same results",
            source: "`sec35_switch_mpi.rs` banner",
            unit: "ranks diverged",
            extract: |s| s.col_of("MPICH 3.3-debug", "ranks diverged"),
            target: Target::Band(0.0, 0.0),
        }],
    },
];

/// Figs. 3, 6, 7 and 8 read the same jobs: Fig. 3 runs them without a
/// checkpoint, Fig. 6 checkpoints them, Fig. 7 restarts the checkpoints
/// and Fig. 8 breaks them down and checkpoints again under the tree.
static CHECKPOINTS: Runs = Runs(checkpoints);

/// Fig. 9 and §3.5 restart the same checkpoint under other MPIs.
static MIGRATIONS: Runs = Runs(migrations);

impl Scale {
    /// Application steps per run: (single-node overhead runs, the
    /// multi-node runs Figs. 3 and 6–8 read). A checkpoint lands in the
    /// middle of its run's application window.
    fn steps(self) -> (u64, u64) {
        match self {
            Scale::Quick => (1, 1),
            Scale::Full => (20, 6),
        }
    }

    /// Compute-node counts of the multi-node sweeps (paper: 2..64) and
    /// ranks per node (paper: 32).
    fn nodes(self) -> (&'static [u32], u32) {
        match self {
            Scale::Quick => (&[2, 4], 8),
            Scale::Full => (&[2, 4, 8, 16, 32, 64], 32),
        }
    }

    /// Single-node rank counts (paper: 1..32).
    fn single_node_ranks(self) -> &'static [u32] {
        match self {
            Scale::Quick => &[2, 16],
            Scale::Full => &[1, 2, 4, 8, 16, 32],
        }
    }
}

fn secs(d: SimDuration) -> f64 {
    d.as_secs_f64()
}

/// The rank count `app` runs at for a nominal count: LULESH needs a
/// cube, so it takes the largest cube ≤ `nominal`.
fn ranks_for(app: AppKind, nominal: u32) -> u32 {
    if app != AppKind::Lulesh {
        return nominal;
    }
    let edge = (1..)
        .take_while(|e| e * e * e <= nominal)
        .last()
        .unwrap_or(1);
    edge * edge * edge
}

fn diverged(a: &BTreeMap<u32, u64>, b: &BTreeMap<u32, u64>) -> f64 {
    let differ = a.iter().filter(|(r, c)| b.get(r) != Some(c)).count();
    (differ + b.len().saturating_sub(a.len())) as f64
}

fn job(cluster: &ClusterSpec, nranks: u32, seed: u64) -> JobBuilder {
    JobBuilder::new()
        .cluster(cluster.clone())
        .ranks(nranks)
        .profile(MpiProfile::cray_mpich())
        .seed(seed)
}

/// Label prefix of §2.6's negative control.
const WEAKENED: &str = "weakened rule";

/// §2.6: the protocol's whole state space, explored under the
/// coordinator's own do-ckpt rule and, as a negative control, under the
/// rule without its slip-prevention term. A violation stops the search,
/// so a run finds at most one.
fn protocol(s: Scale) -> Sweep {
    let mut t = Sweep::new(
        "protocol verification (explicit-state model checking)",
        &[("states", 0), ("transitions", 0), ("violations", 0)],
    );
    let mut row = |label: String, out: CheckOutcome| {
        let found = if out.ok() { 0.0 } else { 1.0 };
        t.row(
            label,
            vec![out.states as f64, out.transitions as f64, found],
        );
    };
    let mut specs = vec![
        ("2 ranks, 1 collective", Spec::uniform_world(2, 1)),
        ("2 ranks, 3 collectives", Spec::uniform_world(2, 3)),
    ];
    if s == Scale::Full {
        specs.extend([
            ("3 ranks, 2 collectives", Spec::uniform_world(3, 2)),
            ("4 ranks, 1 collective", Spec::uniform_world(4, 1)),
            (
                "3 ranks, overlapping comms (Challenge III)",
                Spec::overlapping_comms(),
            ),
        ]);
    }
    for (label, spec) in specs {
        row(label.to_string(), check(&spec));
    }
    let out = check_under(&Spec::uniform_world(2, 1), |agg| agg.exit_phase2 == 0);
    let caught = out.violation.as_ref().map(|v| format!(": {v:?}"));
    let label = format!(
        "{WEAKENED}, 2 ranks, 1 collective{}",
        caught.unwrap_or_default()
    );
    row(label, out);
    t
}

/// Application wall time of every app natively and under MANA on one
/// node. Startup is measured out, as the paper's minutes-long runs
/// effectively do.
fn fig2(s: Scale) -> Sweep {
    let mut t = Sweep::new(
        "single-node runtime overhead, unpatched kernel",
        &[("native ms", 3), ("MANA ms", 3), ("normalized %", 2)],
    );
    let cluster = ClusterSpec::cori(1);
    for app in AppKind::all() {
        let mut ranks: Vec<u32> = s
            .single_node_ranks()
            .iter()
            .map(|&r| ranks_for(app, r))
            .collect();
        ranks.dedup();
        for nranks in ranks {
            let workload = mana_apps::make_app(app, s.steps().0, 1, false);
            let session = ManaSession::new();
            let native = session
                .run_native(job(&cluster, nranks, 42), workload.clone())
                .expect("native run");
            let mana = session
                .run(job(&cluster, nranks, 42), workload)
                .expect("mana run");
            assert_eq!(
                &native.checksums,
                mana.checksums(),
                "{app:?} diverged under MANA"
            );
            let (native, mana) = (secs(native.app_wall), secs(mana.outcome().app_wall));
            t.row(
                format!("{} @{nranks}", app.name()),
                vec![native * 1e3, mana * 1e3, native / mana * 100.0],
            );
        }
    }
    t
}

/// The series an OSU workload records with 2 ranks on one Cori node,
/// natively or under MANA.
fn osu(
    cluster: ClusterSpec,
    seed: u64,
    native: bool,
    make: impl Fn(Series) -> Arc<dyn Workload>,
) -> Vec<(u64, f64)> {
    let (session, sink) = (ManaSession::new(), mana_apps::series());
    let (job, workload) = (job(&cluster, 2, seed), make(sink.clone()));
    let run = if native {
        session.run_native(job, workload).map(drop)
    } else {
        session.run(job, workload).map(drop)
    };
    run.expect("OSU run");
    let series = sink.lock().clone();
    series
}

fn fig4(_: Scale) -> Sweep {
    let bw = |sink| -> Arc<dyn Workload> {
        let sizes = mana_apps::size_sweep(4 << 20);
        Arc::new(OsuBandwidth {
            sizes,
            window: 64,
            windows: 4,
            sink,
        })
    };
    let native = osu(ClusterSpec::cori(1), 9, true, bw);
    let unpatched = osu(ClusterSpec::cori(1), 9, false, bw);
    let patched = osu(ClusterSpec::cori(1).with_patched_kernel(), 9, false, bw);
    let mut t = Sweep::new(
        "point-to-point bandwidth, 2 ranks on 1 node",
        &[
            ("native MB/s", 0),
            ("MANA unpatched MB/s", 0),
            ("MANA patched MB/s", 0),
            ("unpatched %", 1),
            ("patched %", 1),
        ],
    );
    for ((bytes, n), ((_, u), (_, p))) in native.iter().zip(unpatched.iter().zip(&patched)) {
        let row = vec![*n, *u, *p, u / n * 100.0, p / n * 100.0];
        t.row(bytes.to_string(), row);
    }
    t
}

fn fig5(_: Scale) -> Sweep {
    let p2p = |sink| -> Arc<dyn Workload> {
        let sizes = mana_apps::size_sweep(4 << 20);
        Arc::new(OsuLatency {
            sizes,
            iters: 30,
            sink,
        })
    };
    let coll = |which| {
        move |sink| -> Arc<dyn Workload> {
            let sizes = mana_apps::size_sweep(1 << 20);
            Arc::new(OsuCollLatency {
                which,
                sizes,
                iters: 20,
                sink,
            })
        }
    };
    let pair = |make: &dyn Fn(Series) -> Arc<dyn Workload>| {
        let native = osu(ClusterSpec::cori(1), 5, true, make);
        native
            .into_iter()
            .zip(osu(ClusterSpec::cori(1), 5, false, make))
    };
    let mut t = Sweep::new(
        "OSU latency, 2 ranks on 1 node: (a) p2p, (b) gather, (c) allreduce",
        &[("native µs", 2), ("MANA µs", 2), ("MANA − native %", 2)],
    );
    for (name, rows) in [
        ("(a) p2p", pair(&p2p)),
        ("(b) gather", pair(&coll(CollBench::Gather))),
        ("(c) allreduce", pair(&coll(CollBench::Allreduce))),
    ] {
        for ((bytes, n), (_, m)) in rows {
            t.row(format!("{name} {bytes} B"), vec![n, m, (m - n) / n * 100.0]);
        }
    }
    t
}

fn checkpoints(s: Scale) -> Sweep {
    let mut t = Sweep::new(
        "runtime overhead, checkpoint, restart and checkpoint-time breakdown, flat vs tree",
        &[
            ("nodes", 0),
            ("native ms", 3),
            ("MANA ms", 3),
            ("normalized %", 2),
            ("ckpt s", 3),
            ("image MB/rank", 1),
            ("paper MB/rank", 0),
            ("% of paper", 1),
            ("total GB", 1),
            ("restart s", 3),
            ("read %", 1),
            ("replay %", 2),
            ("write %", 1),
            ("drain s", 3),
            ("flat comm s", 4),
            ("tree comm s", 4),
            ("comm ×", 1),
            ("flat extra iterations", 0),
            ("tree extra iterations", 0),
            ("tree − flat image B", 0),
        ],
    );
    let (node_counts, per_node) = s.nodes();
    let points: Vec<(AppKind, u32)> = AppKind::all()
        .into_iter()
        .flat_map(|app| node_counts.iter().map(move |&nodes| (app, nodes)))
        .collect();
    let rows = crate::each(s, &points, |&(app, nodes)| {
        let nranks = ranks_for(app, nodes * per_node);
        let cluster = ClusterSpec::cori(nodes);
        let workload = mana_apps::make_app(app, s.steps().1, nodes, true);
        let job = |topology| job(&cluster, nranks, 44).topology(topology);
        // The uninterrupted MANA run is Fig. 3's overhead run and finds
        // the application window. It sends no control message, so it
        // serves both topologies. A session per run frees its images
        // when the row is done.
        let native = ManaSession::new()
            .run_native(job(TopologyKind::Flat), workload.clone())
            .expect("native run");
        let probe = ManaSession::new()
            .run(job(TopologyKind::Flat), workload.clone())
            .expect("probe run");
        assert_eq!(
            &native.checksums,
            probe.checksums(),
            "{app:?} diverged under MANA"
        );
        let out = probe.outcome();
        let half = SimTime(out.wall.as_nanos() - out.app_wall.as_nanos() / 2);
        let checkpoint = |topology| {
            let killed = ManaSession::new()
                .run(
                    job(topology).checkpoint_at(half).then_kill(),
                    workload.clone(),
                )
                .expect("checkpoint-and-kill run");
            assert!(killed.killed() && killed.ckpts().len() == 1);
            killed
        };
        let flat = checkpoint(TopologyKind::Flat);
        // Restart on the same cluster, as the paper's Figure 7 does.
        let resumed = flat.restart_on(JobBuilder::new()).expect("restart");
        assert_eq!(
            probe.checksums(),
            resumed.checksums(),
            "{app:?} restart diverged"
        );
        let rs = resumed.restart_report().expect("restart report");
        let tree = checkpoint(TopologyKind::Tree);
        let (f, tr) = (&flat.ckpts()[0], &tree.ckpts()[0]);
        let paper_mb = mana_apps::paper_image_mb(app, nodes) as f64;
        let share = |d: SimDuration, of: SimDuration| secs(d) / secs(of) * 100.0;
        let (native, mana) = (secs(native.app_wall), secs(out.app_wall));
        (
            format!("{}, {nranks} ranks on {nodes} nodes", app.name()),
            vec![
                f64::from(nodes),
                native * 1e3,
                mana * 1e3,
                native / mana * 100.0,
                secs(f.total()),
                f.max_image_bytes() as f64 / f64::from(1 << 20),
                paper_mb,
                f.max_image_bytes() as f64 / f64::from(1 << 20) / paper_mb * 100.0,
                f.total_image_bytes() as f64 / 1e9,
                secs(rs.total),
                share(rs.max_read(), rs.total),
                share(rs.max_replay(), rs.total),
                share(f.max_write(), f.total()),
                secs(f.max_drain()),
                secs(f.comm_overhead()),
                secs(tr.comm_overhead()),
                secs(f.comm_overhead()) / secs(tr.comm_overhead()),
                // Shown, not checked: the topologies promise equal safety
                // decisions only while the whole agreement fits in one
                // compute op (`tests/topology_equivalence.rs`). Outside that
                // regime arrival skew can stop ranks at other op boundaries.
                f64::from(f.extra_iterations),
                f64::from(tr.extra_iterations),
                tr.total_image_bytes() as f64 - f.total_image_bytes() as f64,
            ],
        )
    });
    for (label, values) in rows {
        t.row(label, values);
    }
    t
}

fn migrations(_: Scale) -> Sweep {
    let session = ManaSession::new();
    let gromacs = || {
        let bulk_bytes = mana_apps::bulk_bytes_for(AppKind::Gromacs, 4);
        Arc::new(Gromacs {
            steps: 60,
            bulk_bytes,
            ..Gromacs::default()
        })
    };
    // Source: Cori, Cray MPICH over Aries, 8 ranks round-robin over 4
    // nodes (2 ranks per node, as in the paper), checkpointed halfway
    // through the application window of an uninterrupted probe run.
    let source = job(&ClusterSpec::cori(4), 8, 47).placement(Placement::RoundRobin);
    let probe = session.run(source.clone(), gromacs()).expect("probe run");
    let out = probe.outcome();
    let half = SimTime(out.wall.as_nanos() - out.app_wall.as_nanos() / 2);
    let killed = session
        .run(source.checkpoint_at(half).then_kill(), gromacs())
        .expect("checkpoint-and-kill run");
    let configs = [
        (
            "Open MPI/IB (2x4)",
            ClusterSpec::local_cluster(2),
            MpiProfile::open_mpi(),
        ),
        (
            "MPICH/TCP (2x4)",
            ClusterSpec::local_cluster(2).with_interconnect(InterconnectKind::Tcp),
            MpiProfile::mpich(),
        ),
        (
            "MPICH (8x1)",
            ClusterSpec::local_cluster(1),
            MpiProfile::mpich(),
        ),
        // §3.5: the same checkpoint under a debug build of MPICH.
        (
            "MPICH 3.3-debug (2x4)",
            ClusterSpec::local_cluster(2),
            MpiProfile::mpich_debug(),
        ),
    ];
    let mut t = Sweep::new(
        "GROMACS checkpointed on Cori (Cray MPICH, 8 ranks), restarted on the local cluster",
        &[
            ("restarted half s", 4),
            ("native half s", 4),
            ("degradation %", 2),
            ("ranks diverged", 0),
        ],
    );
    for (name, cluster, profile) in configs {
        // The destination's native run is a timing baseline only: it is
        // another link of the same objects, so its memory differs.
        let native = session
            .run_native(job(&cluster, 8, 47).profile(profile.clone()), gromacs())
            .expect("native baseline");
        let resumed = killed
            .restart_on(
                JobBuilder::new()
                    .cluster(cluster)
                    .placement(Placement::Block)
                    .profile(profile),
            )
            .expect("restart");
        // The restarted job runs the second half of the computation.
        let native_half = secs(native.app_wall) / 2.0;
        let restarted = secs(resumed.outcome().app_wall);
        t.row(
            name,
            vec![
                restarted,
                native_half,
                (restarted / native_half - 1.0) * 100.0,
                diverged(probe.checksums(), resumed.checksums()),
            ],
        );
    }
    t
}

fn mem_overhead(_: Scale) -> Sweep {
    let mut t = Sweep::new(
        "memory overhead of the split process (rank 0, one rank per node)",
        &[
            ("upper MB", 1),
            ("dup MPI text MB", 1),
            ("lower MB", 1),
            ("driver shm MB", 1),
        ],
    );
    for nodes in [2u32, 4, 8, 16, 32, 64] {
        let sim = Sim::new(SimConfig::default());
        let profile = MpiProfile::cray_mpich();
        let mpi_job = MpiJob::new(
            &sim,
            ClusterSpec::cori(nodes),
            nodes,
            Placement::Block,
            profile.clone(),
        );
        let report: Arc<Mutex<Vec<f64>>> = Arc::default();
        // One rank per node maps every node's driver region; rank 0
        // reports its map once every rank has initialised.
        for rank in 0..nodes {
            let (mpi_job, report, profile) = (mpi_job.clone(), report.clone(), profile.clone());
            sim.spawn(&format!("rank{rank}"), false, move |th| {
                let aspace = Arc::new(AddressSpace::new());
                mana_core::split::UpperProgram::typical(&profile)
                    .map_fresh(&aspace, "app", rank, 1)
                    .expect("upper program");
                let mpi = mpi_job.init_rank(&th, rank, &aspace);
                if rank == 0 {
                    let mb = |b: u64| b as f64 / f64::from(1 << 20);
                    let dup: u64 = aspace
                        .regions_meta()
                        .iter()
                        .filter(|r| r.name.contains("mpicc link"))
                        .map(|r| r.len)
                        .sum();
                    *report.lock().expect("report lock") = vec![
                        mb(aspace.bytes_of_half(Half::Upper)),
                        mb(dup),
                        mb(aspace.bytes_of_half(Half::Lower)),
                        mb(aspace.bytes_of_kind(Half::Lower, RegionKind::Shm)),
                    ];
                }
                mpi.barrier(&th, mpi.comm_world());
                mpi.finalize(&th);
            });
        }
        sim.run();
        let values = std::mem::take(&mut *report.lock().expect("report lock"));
        t.row(format!("{nodes} nodes"), values);
    }
    t
}

fn ablation(_: Scale) -> Sweep {
    let cluster = ClusterSpec::cori(1);
    let app = mana_apps::make_app(AppKind::Gromacs, 12, 1, false);
    let session = ManaSession::new();
    let native = session
        .run_native(job(&cluster, 16, 50), app.clone())
        .expect("native run");
    let overhead = |patched: bool, virt: bool| {
        let mut cfg = ManaConfig::no_checkpoints(cluster.kernel.clone());
        if patched {
            cfg.kernel = KernelModel::patched();
        }
        if !virt {
            cfg.virt_cost = SimDuration::ZERO;
        }
        let mana = session
            .run(job(&cluster, 16, 50).config(cfg), app.clone())
            .expect("mana run");
        assert_eq!(&native.checksums, mana.checksums());
        (secs(mana.outcome().app_wall) / secs(native.app_wall) - 1.0) * 100.0
    };
    let (deployed, patched) = (overhead(false, true), overhead(true, true));
    let no_virt = overhead(false, false);
    let mut t = Sweep::new(
        "sources of MANA's runtime overhead (GROMACS, 16 ranks, 1 node)",
        &[("overhead %", 3)],
    );
    t.row("kernel: FSGSBASE-patched", vec![patched]);
    t.row("kernel: unpatched (deployed)", vec![deployed]);
    t.row("virtualization free, unpatched kernel", vec![no_virt]);
    t.row(
        "virtualization free, patched kernel",
        vec![overhead(true, false)],
    );
    t.row("removed by free virtualization", vec![deployed - no_virt]);
    t.row("removed by the kernel patch", vec![deployed - patched]);
    t
}
