//! fig_restart: restart-pipeline stage breakdown and record-log
//! compaction across communicator-churn rates.
//!
//! MANA's restart replays the log of state-mutating MPI calls, so for
//! communicator-churning apps the full log — and replay time — grows
//! linearly with job lifetime (paper §2.2 reports replay under 10% of
//! restart for *well-behaved* apps; churners break that). The restart
//! subsystem's `LogCompactor` elides freed objects and dead derivation
//! subtrees from the image, so replay tracks the *live* object population
//! instead: this target sweeps the churn rate and compares full-log vs
//! compacted-log replay, plus the per-stage restart breakdown the new
//! `RestartReport` exposes.
//!
//! Run with `--test` for the CI smoke configuration (tiny scale, same
//! shapes, same ≥5× assertion at the highest churn point).

use mana_apps::CommChurn;
use mana_bench::{banner, Table};
use mana_core::{JobBuilder, ManaSession, RestartReport, Workload};
use mana_mpi::MpiProfile;
use mana_sim::cluster::ClusterSpec;
use mana_sim::time::{SimDuration, SimTime};
use std::sync::Arc;

struct ChurnPoint {
    churn: u64,
    log_recorded: u64,
    log_retained_on: u64,
    replay_off: SimDuration,
    replay_on: SimDuration,
    report_on: RestartReport,
}

fn run_point(cluster: &ClusterSpec, nranks: u32, steps: u64, churn: u64, seed: u64) -> ChurnPoint {
    let workload: Arc<dyn Workload> = Arc::new(CommChurn {
        steps,
        churn,
        work: SimDuration::micros(3000),
        ..CommChurn::default()
    });
    let mut out: Option<ChurnPoint> = None;
    let mut replay_off = SimDuration::ZERO;
    for compact in [false, true] {
        let session = ManaSession::builder()
            .store(mana_core::store::InMemStore::new())
            .build();
        let job = || {
            JobBuilder::new()
                .cluster(cluster.clone())
                .ranks(nranks)
                .profile(MpiProfile::cray_mpich())
                .seed(seed)
                .compact_log(compact)
        };
        let probe = session.run(job(), workload.clone()).expect("probe run");
        // Late checkpoint: most of the job's churn is already in the log.
        let wall = probe.outcome().wall.as_nanos();
        let app = probe.outcome().app_wall.as_nanos();
        let at = SimTime(wall - app + (app as f64 * 0.9) as u64);
        let killed = session
            .run(job().checkpoint_at(at).then_kill(), workload.clone())
            .expect("checkpoint run");
        assert!(killed.killed());
        let ckpt = killed.ckpts().pop().expect("checkpoint report");
        let resumed = killed
            .restart_on(JobBuilder::new())
            .expect("restart from churned log");
        assert_eq!(
            probe.checksums(),
            resumed.checksums(),
            "churn {churn} compact {compact}: restart diverged"
        );
        let report = resumed.restart_report().expect("restart report").clone();
        if compact {
            out = Some(ChurnPoint {
                churn,
                log_recorded: ckpt.ranks.iter().map(|r| r.log_recorded).max().unwrap(),
                log_retained_on: ckpt.ranks.iter().map(|r| r.log_retained).max().unwrap(),
                replay_off,
                replay_on: report.max_replay(),
                report_on: report,
            });
        } else {
            replay_off = report.max_replay();
        }
    }
    out.expect("both variants ran")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    banner(
        "fig_restart",
        "restart replay time vs communicator churn, full log vs compacted",
        "full-log replay grows linearly with lifetime churn; compaction flattens it to the live set",
    );
    let (nodes, rpn, steps) = if smoke { (2, 2, 4) } else { (2, 4, 6) };
    let cluster = ClusterSpec::local_cluster(nodes);
    let nranks = nodes * rpn;
    let churns: &[u64] = if smoke { &[0, 4, 16] } else { &[0, 4, 16, 64] };

    let mut table = Table::new(&[
        "churn/step",
        "log entries",
        "retained",
        "replay (full)",
        "replay (compacted)",
        "replay x",
        "restart total",
    ]);
    let mut last: Option<ChurnPoint> = None;
    for churn in churns.iter().copied() {
        let p = run_point(&cluster, nranks, steps, churn, 42);
        let ratio = p.replay_off.as_secs_f64() / p.replay_on.as_secs_f64().max(1e-12);
        table.row(vec![
            p.churn.to_string(),
            p.log_recorded.to_string(),
            p.log_retained_on.to_string(),
            format!("{}", p.replay_off),
            format!("{}", p.replay_on),
            format!("{ratio:.1}"),
            format!("{}", p.report_on.total),
        ]);
        last = Some(p);
    }
    table.print();

    let top = last.expect("at least one churn point");
    println!(
        "\nstage breakdown at churn {}/step (slowest rank, compacted):",
        top.churn
    );
    for (stage, dur) in top.report_on.stage_breakdown() {
        println!("  {stage:>15}  {dur}");
    }
    let ratio = top.replay_off.as_secs_f64() / top.replay_on.as_secs_f64().max(1e-12);
    println!(
        "\ncompaction keeps {} of {} log entries and cuts replay {ratio:.1}x at the \
         highest churn point",
        top.log_retained_on, top.log_recorded
    );
    assert!(
        ratio >= 5.0,
        "compaction must cut replay time at least 5x at the highest churn point \
         (got {ratio:.2}x)"
    );
}
