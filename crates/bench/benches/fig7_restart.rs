//! Figure 7: restart time per application and node count. The paper:
//! read-dominated, rising with total image data, up to 68 s for 2048-rank
//! HPCG; opaque-object replay is under 10% of restart time.

use mana_apps::AppKind;
use mana_bench::{
    banner, checkpoint_run, lulesh_ranks, lustre_session, session_with, Scale, Table,
};
use mana_core::{FsStore, JobBuilder};
use mana_sim::cluster::ClusterSpec;
use mana_sim::fs::FsConfig;
use mana_store::{TierConfig, TieredStore};
use std::sync::Arc;

fn main() {
    let scale = Scale::from_env();
    banner(
        "Figure 7",
        "restart time",
        "read-dominated; <10 s .. 68 s; replay <10% of restart",
    );
    let rpn = scale.ranks_per_node();
    let session = lustre_session();
    let mut table = Table::new(&[
        "app",
        "nodes",
        "ranks",
        "restart",
        "max read",
        "max replay",
        "replay %",
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
            let dir = format!("fig7-{}-{}", app.name(), nodes);
            let killed = checkpoint_run(app, &cluster, nranks, 6, 45, &session, &dir, true);
            // Restart on the same cluster (the paper's Figure 7 setup):
            // everything is inherited, the kill schedule is dropped.
            let resumed = killed.restart_on(JobBuilder::new()).expect("restart");
            assert!(!resumed.killed());
            let report = resumed.restart_report().expect("restart stats");
            let replay_pct =
                report.max_replay().as_secs_f64() / report.total.as_secs_f64().max(1e-12) * 100.0;
            table.row(vec![
                app.name().to_string(),
                nodes.to_string(),
                nranks.to_string(),
                format!("{}", report.total),
                format!("{}", report.max_read()),
                format!("{}", report.max_replay()),
                format!("{replay_pct:.1}"),
            ]);
        }
    }
    table.print();
    println!("\npaper: restart 10..68 s, dominated by reading images; replay <10%");

    // Tiered vs fs on the restart path: the job died right after its
    // checkpoint, so the async drain never finished — the tiered restart
    // pays the deferred Lustre write on the read path. Async drain trades
    // checkpoint-visible time for restart time when a kill races the
    // drain.
    println!("\n--- restart: tiered (undrained) vs plain Lustre, gromacs ---");
    let mut table = Table::new(&["nodes", "ranks", "fs restart", "tiered restart"]);
    for nodes in scale.node_counts() {
        let nranks = nodes * rpn;
        let cluster = ClusterSpec::cori(nodes);
        let restart_total = |session: &mana_core::ManaSession, dir: String| {
            let killed = checkpoint_run(
                AppKind::Gromacs,
                &cluster,
                nranks,
                6,
                45,
                session,
                &dir,
                true,
            );
            let resumed = killed.restart_on(JobBuilder::new()).expect("restart");
            resumed.restart_report().expect("restart stats").total
        };
        let fs_session = session_with(Arc::new(FsStore::with_config(FsConfig::default())));
        let fs_t = restart_total(&fs_session, format!("fig7t-fs-{nodes}"));
        let bb_session = session_with(Arc::new(TieredStore::new(
            TierConfig::burst_buffer(),
            FsStore::with_config(FsConfig::default()),
        )));
        let bb_t = restart_total(&bb_session, format!("fig7t-bb-{nodes}"));
        table.row(vec![
            nodes.to_string(),
            nranks.to_string(),
            format!("{fs_t}"),
            format!("{bb_t}"),
        ]);
    }
    table.print();
}
