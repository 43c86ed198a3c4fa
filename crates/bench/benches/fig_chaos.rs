//! Chaos engineering over the whole stack: drive seeded fault schedules
//! — rank/node gang-crashes at every protocol phase, sub-coordinator
//! kills mid-agreement, torn image writes, replica outages, restart-phase
//! kills (a rank dies mid image-read/replay/rebind/resync) and async
//! drain interruptions — through complete job chains and measure what
//! recovery costs: incarnations burned, restarts performed and retried,
//! backoff downtime accrued, drains resumed, images quarantined or
//! fallen back past — versus how many faults were injected.
//!
//! Run with `--test` for the CI smoke: asserts 100% recovery (every
//! chain heals back to the fault-free checksums) over 32 seeded
//! schedules mixing checkpoint-, restart- and drain-phase faults, with
//! ≥ 8 restart-phase kills, ≥ 1 resumed drain and ≥ 1 image fallback
//! exercised somewhere in the sweep.

use mana_bench::{banner, Table};
use mana_chaos::{ChaosHarness, ChaosReport};

/// One chain per (seed, fault mix): checkpoint faults always on; every
/// even seed also interrupts two async drains (which puts the burst-
/// buffer tier in the stack); every chain arms two restart-phase kills.
fn mixed_chain(seed: u64, faults: usize) -> ChaosReport {
    let mut h = ChaosHarness::new(seed, faults);
    h.restart_faults = 2;
    h.drain_faults = if seed.is_multiple_of(2) { 2 } else { 0 };
    h.run()
}

fn sweep() {
    let mut table = Table::new(&[
        "faults",
        "chains",
        "healed",
        "incarnations",
        "restarts",
        "crashes",
        "failovers",
        "torn",
        "quarantined",
        "ckpts",
    ]);
    for &faults in &[1usize, 2, 4, 6] {
        let reports: Vec<ChaosReport> =
            (0..8).map(|s| ChaosHarness::new(s, faults).run()).collect();
        let healed = reports.iter().filter(|r| r.healed()).count();
        assert_eq!(healed, reports.len(), "a chain failed to heal");
        let sum = |f: &dyn Fn(&ChaosReport) -> usize| reports.iter().map(f).sum::<usize>();
        table.row(vec![
            faults.to_string(),
            reports.len().to_string(),
            format!("{healed}/{}", reports.len()),
            sum(&|r| r.incarnations as usize).to_string(),
            sum(&|r| r.recovery_restarts as usize).to_string(),
            sum(&|r| r.crashes.len()).to_string(),
            sum(&|r| r.failovers.len()).to_string(),
            sum(&|r| r.torn_writes.len()).to_string(),
            sum(&|r| r.quarantined.len()).to_string(),
            sum(&|r| r.checkpoints).to_string(),
        ]);
    }
    table.print();
    println!(
        "\nrecovery cost scales with the crash count, never with the fault menu:\n\
         in-flight heals (failovers, outages) burn no incarnations at all.\n"
    );

    // Restart-phase kills: the recovery itself crashes and the
    // supervisor retries it with backoff — downtime grows with the kill
    // count, but every chain still converges.
    let mut table = Table::new(&[
        "restart-kills",
        "chains",
        "healed",
        "restart-attempts",
        "absorbed",
        "backoff-ms",
    ]);
    for &kills in &[0usize, 2, 4, 8] {
        let reports: Vec<ChaosReport> = (0..8)
            .map(|s| {
                let mut h = ChaosHarness::new(s, 2);
                h.restart_faults = kills;
                h.run()
            })
            .collect();
        let healed = reports.iter().filter(|r| r.healed()).count();
        assert_eq!(healed, reports.len(), "a restart-kill chain failed to heal");
        table.row(vec![
            kills.to_string(),
            reports.len().to_string(),
            format!("{healed}/{}", reports.len()),
            reports
                .iter()
                .map(|r| r.restart_attempts as usize)
                .sum::<usize>()
                .to_string(),
            reports
                .iter()
                .map(|r| r.supervisor.faults_absorbed as usize)
                .sum::<usize>()
                .to_string(),
            format!(
                "{:.1}",
                reports
                    .iter()
                    .map(|r| r.supervisor.total_downtime.as_secs_f64() * 1e3)
                    .sum::<f64>()
            ),
        ]);
    }
    table.print();
    println!(
        "\na crashed restart consumes nothing — the supervisor re-runs the same\n\
         image until it boots; only backoff downtime scales with the kill count.\n"
    );

    // Drain faults: interrupted burst-buffer drains are resumed off the
    // persistent ledger when the fast copy survives, quarantined (with
    // image fallback) when it does not.
    let mut table = Table::new(&[
        "drain-faults",
        "chains",
        "healed",
        "hit",
        "resumed",
        "lost",
        "fallbacks",
    ]);
    for &drains in &[0usize, 1, 2, 3] {
        let reports: Vec<ChaosReport> = (0..8)
            .map(|s| {
                let mut h = ChaosHarness::new(s, 2);
                h.drain_faults = drains;
                h.run()
            })
            .collect();
        let healed = reports.iter().filter(|r| r.healed()).count();
        assert_eq!(healed, reports.len(), "a drain-fault chain failed to heal");
        table.row(vec![
            drains.to_string(),
            reports.len().to_string(),
            format!("{healed}/{}", reports.len()),
            reports
                .iter()
                .map(|r| r.drain_faults_hit.len())
                .sum::<usize>()
                .to_string(),
            reports
                .iter()
                .map(|r| r.drains_resumed.len())
                .sum::<usize>()
                .to_string(),
            reports
                .iter()
                .map(|r| r.drains_quarantined.len())
                .sum::<usize>()
                .to_string(),
            reports
                .iter()
                .map(|r| r.image_fallbacks())
                .sum::<usize>()
                .to_string(),
        ]);
    }
    table.print();
    println!(
        "\na torn drain resumes from the intact burst-tier copy; a lost fast tier\n\
         quarantines the entry and recovery falls back to an older survivor —\n\
         a burst-tier-committed image is never silently lost.\n"
    );
}

/// CI smoke: 100% recovery over 32 seeded schedules mixing checkpoint-,
/// restart- and drain-phase faults.
fn smoke() {
    let reports: Vec<ChaosReport> = (0..32).map(|s| mixed_chain(s, 3)).collect();
    for (seed, r) in reports.iter().enumerate() {
        assert!(r.healed(), "seed {seed} did not heal:\n{r}");
    }
    let crashes: usize = reports.iter().map(|r| r.crashes.len()).sum();
    let failovers: usize = reports.iter().map(|r| r.failovers.len()).sum();
    let torn: usize = reports.iter().map(|r| r.torn_writes.len()).sum();
    let outages: usize = reports.iter().map(|r| r.outages_applied.len()).sum();
    let restart_kills: usize = reports.iter().map(|r| r.restart_crashes.len()).sum();
    let resumed: usize = reports.iter().map(|r| r.drains_resumed.len()).sum();
    let fallbacks: usize = reports.iter().map(|r| r.image_fallbacks()).sum();
    assert!(crashes > 0 && failovers > 0 && torn > 0 && outages > 0);
    assert!(
        restart_kills >= 8,
        "smoke must exercise at least 8 restart-phase kills, saw {restart_kills}"
    );
    assert!(
        resumed >= 1,
        "smoke must resume at least one interrupted drain"
    );
    assert!(
        fallbacks >= 1,
        "smoke must fall back past at least one destroyed image"
    );
    println!(
        "smoke: 32/32 chains healed ({crashes} gang-crashes, {failovers} failovers, \
         {torn} torn writes quarantined, {outages} replica outages, \
         {restart_kills} restart-phase kills absorbed, {resumed} drains resumed, \
         {fallbacks} image fallbacks) ✓"
    );
}

fn main() {
    let is_smoke = std::env::args().any(|a| a == "--test");
    banner(
        "Chaos recovery",
        "seeded fault injection across whole job chains — checkpoint, restart and drain phases",
        "from any crash point the chain restarts from a committed checkpoint and ends in the fault-free state",
    );
    if is_smoke {
        smoke();
    } else {
        sweep();
    }
}
