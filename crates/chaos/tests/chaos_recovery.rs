//! Integration: seeded chaos chains always heal.
//!
//! These tests drive whole job chains through [`ChaosHarness`] — the
//! reference run, the fault-armed chain, the heal-and-restart loop — and
//! assert the memento property end to end: whatever the plan injects,
//! the chain ends in exactly the fault-free final state.

use mana_chaos::{
    ChaosHarness, ChaosPlan, ChaosReport, FaultKind, PlannedFault, PlannedRestartFault,
};
use mana_core::chaos::{DrainFault, InjectPoint, RestartPoint};
use mana_core::config::TopologyKind;

/// Sweep seeds and assert every chain heals, then check the sweep as a
/// whole exercised each fault class at least once — a single seed can
/// draw a bland plan, but sixteen cannot.
#[test]
fn every_seeded_chain_heals() {
    let (mut crashes, mut failovers, mut torn, mut outages) = (0, 0, 0, 0);
    for seed in 0..16 {
        let report = ChaosHarness::new(seed, 2 + (seed as usize % 2)).run();
        assert!(report.healed(), "seed {seed} did not heal:\n{report}");
        // Torn writes are quarantined one-for-one, and recovery scans
        // never condemn a committed image.
        assert_eq!(
            report.quarantined.len(),
            report.torn_writes.len(),
            "seed {seed}: quarantine must hold exactly the torn images:\n{report}"
        );
        for q in &report.quarantined {
            assert!(
                report.torn_writes.contains(&q.path),
                "seed {seed}: quarantined a non-torn image {} ({})",
                q.path,
                q.why
            );
        }
        crashes += report.crashes.len();
        failovers += report.failovers.len();
        torn += report.torn_writes.len();
        outages += report.outages_applied.len();
    }
    assert!(crashes > 0, "sweep never gang-crashed a job");
    assert!(failovers > 0, "sweep never killed a sub-coordinator");
    assert!(torn > 0, "sweep never tore an image write");
    assert!(outages > 0, "sweep never darkened a replica");
}

/// The mixed sweep: 32 seeds of 3 faults and 2 restart-phase kills
/// each, every even seed also interrupting 2 async drains (which puts
/// the burst-buffer tier in the stack). Every chain heals, and the sweep
/// as a whole crashes, fails over, tears, darkens a replica, kills at
/// least 8 restarts, resumes a drain and falls back past a destroyed
/// image.
#[test]
fn mixed_fault_chains_heal_and_reach_every_recovery_path() {
    let reports: Vec<ChaosReport> = (0..32)
        .map(|seed: u64| {
            let mut h = ChaosHarness::new(seed, 3);
            h.restart_faults = 2;
            h.drain_faults = if seed.is_multiple_of(2) { 2 } else { 0 };
            h.run()
        })
        .collect();
    for (seed, r) in reports.iter().enumerate() {
        assert!(r.healed(), "seed {seed} did not heal:\n{r}");
    }
    let sum = |f: fn(&ChaosReport) -> usize| reports.iter().map(f).sum::<usize>();
    assert!(
        sum(|r| r.crashes.len()) > 0,
        "sweep never gang-crashed a job"
    );
    assert!(sum(|r| r.failovers.len()) > 0, "sweep never failed over");
    assert!(sum(|r| r.torn_writes.len()) > 0, "sweep never tore a write");
    assert!(
        sum(|r| r.outages_applied.len()) > 0,
        "sweep never darkened a replica"
    );
    let restart_kills = sum(|r| r.restart_crashes.len());
    assert!(
        restart_kills >= 8,
        "{restart_kills} restart-phase kills, want ≥ 8"
    );
    assert!(
        sum(|r| r.drains_resumed.len()) >= 1,
        "no interrupted drain resumed"
    );
    assert!(
        sum(ChaosReport::image_fallbacks) >= 1,
        "no fallback past a destroyed image"
    );
}

/// A killed sub-coordinator no longer stalls its node: a surviving rank
/// is promoted mid-agreement, the root re-enters agreement, and the
/// checkpoint still commits — no crash, no restart, same final state.
#[test]
fn killed_subcoordinator_does_not_stall_its_node() {
    let mut h = ChaosHarness::new(11, 2);
    h.plan = Some(ChaosPlan {
        seed: 11,
        shape: h.shape(),
        faults: vec![
            PlannedFault {
                attempt: 1,
                kind: FaultKind::KillSubCoord { node: 0 },
            },
            PlannedFault {
                attempt: 3,
                kind: FaultKind::KillSubCoord { node: 1 },
            },
        ],
        restart_faults: vec![],
        drain_faults: vec![],
    });
    let report = h.run();
    assert!(report.healed(), "{report}");
    assert_eq!(
        report.incarnations, 1,
        "failovers heal in-flight — the job must never die:\n{report}"
    );
    assert!(report.crashes.is_empty(), "{report}");
    assert!(
        report
            .failovers
            .iter()
            .any(|f| f.attempt == 1 && f.node == 0),
        "the armed failover never fired:\n{report}"
    );
    assert!(
        report.checkpoints.len() >= report.failovers.len(),
        "every failover round must still commit its checkpoint:\n{report}"
    );
    // The round a sub-coordinator died in is void, however safe the
    // surviving nodes' replies look: the checkpoint commits only after
    // another round, in which the promoted node's ranks answered afresh.
    for f in &report.failovers {
        let Some(ckpt) = report.checkpoints.iter().find(|c| c.ckpt_id == f.ckpt_id) else {
            panic!(
                "checkpoint {} of the failover never committed:\n{report}",
                f.ckpt_id
            );
        };
        assert!(
            ckpt.extra_iterations >= 1,
            "checkpoint {} was decided on the round node {}'s sub-coordinator died in:\n{report}",
            f.ckpt_id,
            f.node
        );
    }
}

/// A writer crashing mid-`put` leaves a torn envelope; recovery must
/// quarantine exactly that image — never a committed one — and the chain
/// restarts from the previous committed checkpoint.
#[test]
fn torn_put_is_quarantined_and_chain_restarts_behind_it() {
    let mut h = ChaosHarness::new(5, 1);
    h.plan = Some(ChaosPlan {
        seed: 5,
        shape: h.shape(),
        faults: vec![PlannedFault {
            attempt: 1,
            kind: FaultKind::TornPut {
                rank: 2,
                keep_frac: 0.4,
            },
        }],
        restart_faults: vec![],
        drain_faults: vec![],
    });
    let report = h.run();
    assert!(report.healed(), "{report}");
    assert_eq!(report.torn_writes.len(), 1, "{report}");
    assert_eq!(report.quarantined.len(), 1, "{report}");
    assert_eq!(report.quarantined[0].path, report.torn_writes[0]);
    assert!(
        report.images_scanned > 0,
        "recovery scanned committed images without condemning them:\n{report}"
    );
    assert!(
        report.incarnations >= 2,
        "a torn put kills the writer:\n{report}"
    );
}

/// The flat (star) topology has no sub-coordinators, one store replica
/// leaves nothing to darken — the plan generator must respect the shape
/// and the chain must still heal.
#[test]
fn flat_topology_single_replica_chains_heal() {
    for seed in 0..6 {
        let mut h = ChaosHarness::new(seed, 2);
        h.topology = TopologyKind::Flat;
        h.replicas = 1;
        let report = h.run();
        assert!(report.healed(), "seed {seed} did not heal:\n{report}");
        assert!(
            report.failovers.is_empty(),
            "no sub-coordinators exist to kill"
        );
        assert!(
            report.outages_applied.is_empty(),
            "no spare replica to darken"
        );
    }
}

/// A replica dark for a whole incarnation: reads fail over to the
/// survivor, and after revival anti-entropy copies the missed images
/// back so the pair ends in sync.
#[test]
fn replica_outage_heals_by_anti_entropy() {
    let mut h = ChaosHarness::new(9, 2);
    h.plan = Some(ChaosPlan {
        seed: 9,
        shape: h.shape(),
        faults: vec![
            PlannedFault {
                attempt: 1,
                kind: FaultKind::KillNode {
                    node: 1,
                    point: InjectPoint::Drain,
                },
            },
            PlannedFault {
                attempt: 3,
                kind: FaultKind::ReplicaOutage { replica: 1 },
            },
        ],
        restart_faults: vec![],
        drain_faults: vec![],
    });
    let report = h.run();
    assert!(report.healed(), "{report}");
    assert_eq!(report.outages_applied, vec![1], "{report}");
    assert!(
        report
            .heals
            .iter()
            .any(|(i, h)| *i == 1 && !h.copied.is_empty()),
        "anti-entropy never repaired the revived replica:\n{report}"
    );
}

/// Restart-phase kills crash the restart itself; the supervisor absorbs
/// them with backoff and retries the *same* image until it boots, so the
/// chain still converges to the fault-free state.
#[test]
fn restart_phase_kills_are_retried_by_the_supervisor() {
    let mut h = ChaosHarness::new(13, 1);
    h.plan = Some(ChaosPlan {
        seed: 13,
        shape: h.shape(),
        faults: vec![PlannedFault {
            attempt: 1,
            kind: FaultKind::KillRank {
                rank: 1,
                point: InjectPoint::Encode,
            },
        }],
        restart_faults: vec![
            PlannedRestartFault {
                restart_attempt: 0,
                rank: 2,
                point: RestartPoint::ImageRead,
            },
            PlannedRestartFault {
                restart_attempt: 1,
                rank: 0,
                point: RestartPoint::Replay,
            },
        ],
        drain_faults: vec![],
    });
    let report = h.run();
    assert!(report.healed(), "{report}");
    assert_eq!(
        report.restart_crashes.len(),
        2,
        "both armed restart kills must fire:\n{report}"
    );
    assert!(
        report
            .restart_crashes
            .iter()
            .any(|c| c.point == RestartPoint::ImageRead)
            && report
                .restart_crashes
                .iter()
                .any(|c| c.point == RestartPoint::Replay),
        "{report}"
    );
    assert!(
        report.supervisor.faults_absorbed >= 2,
        "the supervisor must absorb the restart kills as transient:\n{report}"
    );
    assert!(
        report.restart_attempts > report.recovery_restarts,
        "crashed restart attempts must outnumber the successful ones:\n{report}"
    );
    assert!(
        report.supervisor.total_downtime > mana_sim::time::SimDuration::ZERO,
        "backoff must accrue downtime:\n{report}"
    );
    // Transient retries stay on the same image: nothing was skipped.
    assert!(report.supervisor.images_skipped.is_empty(), "{report}");
}

/// A crashed restart is idempotent: after a kill mid-replay the store and
/// the engine's view of the image are untouched, so re-running the
/// *identical* restart (same image, no fault) succeeds.
#[test]
fn crashed_restart_leaves_the_image_restartable() {
    let mut h = ChaosHarness::new(17, 1);
    h.plan = Some(ChaosPlan {
        seed: 17,
        shape: h.shape(),
        faults: vec![PlannedFault {
            attempt: 1,
            kind: FaultKind::KillNode {
                node: 0,
                point: InjectPoint::Publish,
            },
        }],
        restart_faults: (0..3)
            .map(|a| PlannedRestartFault {
                restart_attempt: a,
                rank: (a % 4) as u32,
                point: RestartPoint::ALL[(a % 4) as usize],
            })
            .collect(),
        drain_faults: vec![],
    });
    let report = h.run();
    assert!(report.healed(), "{report}");
    assert_eq!(report.restart_crashes.len(), 3, "{report}");
    // All three kills hit the same recovery; the fourth attempt of the
    // same image converged — no fallback to an older checkpoint.
    assert!(report.supervisor.images_skipped.is_empty(), "{report}");
    assert!(report.supervisor.recovered_from.is_some(), "{report}");
}

/// Interrupted async drains: a torn drain is resumed from the intact
/// burst-tier copy, a lost fast tier quarantines the entry and recovery
/// falls back past the destroyed image — and the chain still heals.
#[test]
fn drain_faults_resume_or_fall_back_and_the_chain_heals() {
    let mut h = ChaosHarness::new(23, 2);
    h.drain_faults = 2;
    let report = h.run();
    assert!(report.healed(), "{report}");
    assert_eq!(
        report.drain_faults_hit.len(),
        2,
        "both drain faults must fire:\n{report}"
    );
    assert!(
        report
            .drain_faults_hit
            .iter()
            .any(|(_, _, f)| matches!(f, DrainFault::Torn { .. })),
        "{report}"
    );
    assert!(
        report
            .drain_faults_hit
            .iter()
            .any(|(_, _, f)| matches!(f, DrainFault::LoseFast)),
        "{report}"
    );
    assert!(
        !report.drains_resumed.is_empty(),
        "the torn drain must be resumed from the burst tier:\n{report}"
    );
}

/// A report names the planned faults its chain never reached. Seed 1004
/// of the `chaos_mix_30` mix (3 faults, 2 restart kills, 2 drain faults)
/// begins 3 of its 9 planned attempts, so three checkpoint faults and
/// the burst-tier loss never fire — yet the chain heals. The seed is the
/// point of the test: a schedule fix changes this list, a re-seed must
/// not hide it.
#[test]
fn a_report_names_the_faults_its_chain_never_fired() {
    let mut h = ChaosHarness::new(1004, 3);
    h.restart_faults = 2;
    h.drain_faults = 2;
    let report = h.run();
    assert!(report.healed(), "{report}");
    assert_eq!(report.attempts, 3);
    assert_eq!(
        report.unfired(),
        [
            "attempt   3: kill-rank 1 @ bookmark",
            "attempt   5: kill-rank 0 @ agreement",
            "attempt   7: torn-put rank 2 (keep 0.27)",
            "attempt   5: drain-lost (burst tier dies)",
        ]
    );
    assert!(format!("{report}").contains("  unfired: attempt   5: drain-lost"));

    // With no application steps no checkpoint attempt begins: every
    // in-sim fault is unfired, and only a driver-side outage can apply.
    let mut idle = ChaosHarness::new(1004, 3);
    idle.steps = 0;
    let report = idle.run();
    assert_eq!(report.attempts, 0);
    assert_eq!(
        report.unfired().len() + report.outages_applied.len(),
        report.plan.faults.len()
    );
}

/// Plans draw node faults only against nodes that hold a rank: block
/// placement leaves the tail nodes of a small job empty, and a node with
/// no rank has no helper to kill and no sub-coordinator to fail over.
#[test]
fn plans_never_target_an_empty_node() {
    use mana_sim::cluster::{ClusterSpec, Placement};
    for (nranks, nodes, filled) in [(2, 4, 2), (5, 4, 3)] {
        let cluster = ClusterSpec::local_cluster(nodes);
        for seed in 0..32 {
            let mut h = ChaosHarness::new(seed, 8);
            h.nranks = nranks;
            h.nodes = nodes;
            let shape = h.shape();
            assert_eq!(shape.nodes, filled, "{nranks} ranks on {nodes} nodes");
            for r in 0..nranks {
                assert_eq!(
                    shape.node_of(r),
                    cluster.node_of_rank(r, nranks, Placement::Block),
                    "rank {r} of {nranks}"
                );
            }
            for f in ChaosPlan::generate(seed, 8, shape).faults {
                if let FaultKind::KillNode { node, .. } | FaultKind::KillSubCoord { node } = f.kind
                {
                    assert!(node < filled, "seed {seed}: {} on {nranks}/{nodes}", f.kind);
                }
            }
        }
    }
}
