//! Figure 6: checkpoint time and per-rank image sizes, per application
//! and node count. The paper: checkpoint time is proportional to total
//! memory, dominated by the parallel write and bottlenecked by the
//! slowest (straggler) rank; per-rank images range from ~93 MB (GROMACS)
//! to 2 GB (HPCG).

use mana_apps::AppKind;
use mana_bench::{
    banner, checkpoint_run, lulesh_ranks, lustre_session, session_with, Scale, Table,
};
use mana_core::FsStore;
use mana_sim::cluster::ClusterSpec;
use mana_sim::fs::FsConfig;
use mana_store::{TierConfig, TieredStore};
use std::sync::Arc;

fn main() {
    let scale = Scale::from_env();
    banner(
        "Figure 6",
        "checkpoint time and per-rank image size",
        "write-dominated; 5.9 GB..4 TB total; per-rank sizes annotated (93 MB..2 GB)",
    );
    let rpn = scale.ranks_per_node();
    let mut table = Table::new(&[
        "app",
        "nodes",
        "ranks",
        "ckpt time",
        "img/rank (MB)",
        "paper img/rank (MB)",
        "total (GB)",
    ]);
    for app in AppKind::all() {
        for nodes in scale.node_counts() {
            let nominal = nodes * rpn;
            let nranks = if app == AppKind::Lulesh {
                lulesh_ranks(nominal)
            } else {
                nominal
            };
            let cluster = ClusterSpec::cori(nodes);
            let dir = format!("fig6-{}-{}", app.name(), nodes);
            // A session per row: its store frees the row's images when
            // the row is done, instead of holding every row's to exit.
            let session = lustre_session();
            let killed = checkpoint_run(app, &cluster, nranks, 6, 44, &session, &dir, true);
            let report = &killed.ckpts()[0];
            table.row(vec![
                app.name().to_string(),
                nodes.to_string(),
                nranks.to_string(),
                format!("{}", report.total()),
                format!("{}", report.max_image_bytes() >> 20),
                format!("{}", mana_apps::paper_image_mb(app, nodes)),
                format!("{:.1}", report.total_image_bytes() as f64 / 1e9),
            ]);
        }
    }
    table.print();
    println!("\npaper: 5.9 GB (64-rank GROMACS) .. 4 TB (2048-rank HPCG) total data;");
    println!("       checkpoint time 1..40 s, growing with per-rank image size");

    // Tiered vs fs: the same GROMACS checkpoints through an async-drain
    // burst buffer — the checkpoint-visible time drops to the fast-tier
    // write while the Lustre drain overlaps resumed execution.
    println!("\n--- tiered (async-drain burst buffer) vs plain Lustre, gromacs ---");
    let mut table = Table::new(&["nodes", "ranks", "fs ckpt", "tiered ckpt", "speedup"]);
    for nodes in scale.node_counts() {
        let nranks = nodes * rpn;
        let cluster = ClusterSpec::cori(nodes);
        let fs_session = session_with(Arc::new(FsStore::with_config(FsConfig::default())));
        let dir = format!("fig6t-fs-{nodes}");
        let fs_killed = checkpoint_run(
            AppKind::Gromacs,
            &cluster,
            nranks,
            6,
            44,
            &fs_session,
            &dir,
            true,
        );
        let tiered_session = session_with(Arc::new(TieredStore::new(
            TierConfig::burst_buffer(),
            FsStore::with_config(FsConfig::default()),
        )));
        let dir = format!("fig6t-bb-{nodes}");
        let bb_killed = checkpoint_run(
            AppKind::Gromacs,
            &cluster,
            nranks,
            6,
            44,
            &tiered_session,
            &dir,
            true,
        );
        let (fs_t, bb_t) = (fs_killed.ckpts()[0].total(), bb_killed.ckpts()[0].total());
        table.row(vec![
            nodes.to_string(),
            nranks.to_string(),
            format!("{fs_t}"),
            format!("{bb_t}"),
            format!("{:.1}x", fs_t.as_secs_f64() / bb_t.as_secs_f64().max(1e-12)),
        ]);
    }
    table.print();
}
