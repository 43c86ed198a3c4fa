//! Everything store maintenance reports across a chaos chain, pinned.
//!
//! Twelve seeded chains run with three checkpoint-phase faults and two
//! restart-phase kills each, plus two drain faults on even seeds (the
//! `chaos_mix_30` mix). After every crash, after every failed restart
//! attempt and once at the end, the driver walks the store stack: it
//! settles the burst tier's drain ledger, quarantines torn envelopes, then
//! anti-entropies every replica. For every chain the test pins what that
//! walk reported:
//!
//! * every heal as `replica: copied paths / bytes / unservable paths`;
//! * the quarantined paths;
//! * the drains resumed and the drains quarantined;
//! * the images scanned;
//! * the supervisor's degraded modes, in order.
//!
//! A change to *how* the stack is walked must reproduce these exactly. The
//! order matters: a replica healed before the journal scan re-imports a
//! torn envelope its peer still holds, and the copied paths move.
//!
//! The last re-pin moved heal byte counts only: journal envelope version
//! 3 carries a chunk table (4 bytes, plus 12 per run of equal chunk
//! lengths) in every envelope a heal copies. Paths, quarantines, drains
//! and degraded modes stayed as they were.
//!
//! Image paths are shortened from `chaos/ckpt_<id>/rank_<r>.mana` to
//! `<id>.<r>`; any other path is kept whole.

use mana_chaos::{ChaosHarness, ChaosReport};

const SEEDS: u64 = 12;

/// `chaos/ckpt_3/rank_1.mana` → `3.1`; a quarantine copy keeps its prefix.
fn short(path: &str) -> String {
    let (prefix, rest) = match path.strip_prefix(".quarantine/") {
        Some(rest) => (".q/", rest),
        None => ("", path),
    };
    let parsed = rest
        .strip_prefix("chaos/ckpt_")
        .and_then(|r| r.strip_suffix(".mana"))
        .and_then(|r| r.split_once("/rank_"));
    match parsed {
        Some((id, rank)) => format!("{prefix}{id}.{rank}"),
        None => path.to_string(),
    }
}

fn list<'a>(paths: impl IntoIterator<Item = &'a String>) -> String {
    let v: Vec<String> = paths.into_iter().map(|p| short(p)).collect();
    format!("[{}]", v.join(" "))
}

/// One line per reported item, in report order.
fn summary(r: &ChaosReport) -> Vec<String> {
    let mut out = vec![format!("scanned {}", r.images_scanned)];
    for (i, h) in &r.heals {
        out.push(format!(
            "heal {i}: {} / {} / {}",
            list(&h.copied),
            h.bytes,
            list(&h.unservable)
        ));
    }
    out.push(format!(
        "quarantined {}",
        list(r.quarantined.iter().map(|q| &q.path))
    ));
    out.push(format!(
        "drains resumed {} lost {}",
        list(&r.drains_resumed),
        list(&r.drains_quarantined)
    ));
    for d in &r.supervisor.degraded {
        out.push(format!("degraded {d}"));
    }
    out
}

fn run(seed: u64) -> ChaosReport {
    let mut h = ChaosHarness::new(seed, 3);
    h.restart_faults = 2;
    h.drain_faults = if seed.is_multiple_of(2) { 2 } else { 0 };
    h.run()
}

const EXPECTED: &[&[&str]] = &[
    &[
        "scanned 46",
        "heal 0: [1.0 1.1 1.2 1.3] / 66024 / []",
        "quarantined [2.2]",
        "drains resumed [2.0 2.1 2.2 2.3 10.0 10.1 10.2 10.3 11.0] lost []",
        "degraded replica 0 dark",
        "degraded 4 drain(s) resumed",
        "degraded 1 torn object(s) quarantined",
        "degraded 5 drain(s) resumed",
    ],
    &[
        "scanned 60",
        "heal 1: [1.0 1.1 1.2 1.3 2.0 2.1 2.2 2.3 3.0 3.1 3.2 3.3 4.0 4.1 4.2] / 1000149 / []",
        "quarantined []",
        "drains resumed [] lost []",
        "degraded replica 1 dark",
    ],
    &[
        "scanned 89",
        "heal 1: [1.0 1.1 1.2 1.3 2.0 2.1 2.2 2.3] / 665512 / []",
        "quarantined []",
        "drains resumed [3.0 3.1 3.2 3.3 4.0 4.1 4.2 10.1 10.2 10.3] lost [10.0]",
        "degraded replica 1 dark",
        "degraded 7 drain(s) resumed",
        "degraded replica 0 dark",
        "degraded 3 drain(s) resumed",
        "degraded fast tier lost 1 drain(s)",
    ],
    &["scanned 37", "quarantined []", "drains resumed [] lost []"],
    &[
        "scanned 28",
        "quarantined []",
        "drains resumed [2.0 2.1 10.0 10.1 10.2 10.3] lost []",
        "degraded 2 drain(s) resumed",
    ],
    &["scanned 50", "quarantined []", "drains resumed [] lost []"],
    &[
        "scanned 47",
        "quarantined [2.1]",
        "drains resumed [2.0 2.1 2.2 2.3 10.0 10.1 10.2 10.3 17.1 17.2 17.3] lost [17.0]",
        "degraded 4 drain(s) resumed",
        "degraded 1 torn object(s) quarantined",
        "degraded 4 drain(s) resumed",
    ],
    &["scanned 68", "quarantined []", "drains resumed [] lost []"],
    &[
        "scanned 51",
        "heal 1: [1.0 1.1 1.2 1.3 2.0 2.1 2.2 2.3] / 431016 / []",
        "quarantined []",
        "drains resumed [3.0 3.1 3.2 3.3 10.1 10.2 10.3] lost [10.0]",
        "degraded replica 1 dark",
        "degraded 4 drain(s) resumed",
    ],
    &["scanned 20", "quarantined []", "drains resumed [] lost []"],
    &[
        "scanned 48",
        "quarantined []",
        "drains resumed [3.0 3.1 3.2 3.3] lost []",
        "degraded 4 drain(s) resumed",
    ],
    &[
        "scanned 25",
        "heal 1: [1.0 1.1 1.2 1.3] / 266476 / []",
        "quarantined [2.0]",
        "drains resumed [] lost []",
        "degraded replica 1 dark",
        "degraded 1 torn object(s) quarantined",
    ],
];

#[test]
fn maintenance_reports_are_pinned() {
    let actual: Vec<Vec<String>> = (0..SEEDS)
        .map(|seed| {
            let r = run(seed);
            assert!(r.healed(), "seed {seed} did not heal:\n{r}");
            summary(&r)
        })
        .collect();
    let pasteable: String = actual
        .iter()
        .map(|lines| {
            let quoted: Vec<String> = lines.iter().map(|l| format!("        {l:?},\n")).collect();
            format!("    &[\n{}    ],\n", quoted.concat())
        })
        .collect();
    assert_eq!(
        actual.len(),
        EXPECTED.len(),
        "expected table has the wrong number of chains; actual:\n{pasteable}"
    );
    for (seed, (got, want)) in actual.iter().zip(EXPECTED).enumerate() {
        assert_eq!(got, want, "seed {seed}; actual table:\n{pasteable}");
    }
}
