//! `--self-test`: the ledger checking itself — summary arithmetic on fixed
//! vectors, the bound comparator just inside and just outside every bound,
//! self-time accounting on a hand-built span tree, the declarations against
//! the contract's limits, and every oracle fed a deliberately wrong answer,
//! to prove it turns into a counted failure and not a panic or a silent
//! pass.

use crate::report::RunResult;
use crate::schema::{self, Clock, Metric};
use crate::span::{self, Span};
use crate::stats::{self, Better};
use crate::workloads::{chaos, ckpt, migrate, steady, store, Rep};
use crate::{parent, tally};
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Checks {
    failed: Vec<String>,
    passed: usize,
}

impl Checks {
    fn that(&mut self, what: &str, holds: bool) {
        if holds {
            self.passed += 1;
        } else {
            self.failed.push(what.to_string());
        }
    }
}

fn arithmetic(c: &mut Checks) {
    let odd = stats::summarize(&[5.0, 1.0, 3.0]).expect("non-empty");
    c.that(
        "median of an odd sample",
        odd.median == 3.0 && odd.min == 1.0 && odd.max == 5.0,
    );
    c.that("no p90 below 100 samples", odd.p90.is_none());
    let even = stats::summarize(&[4.0, 1.0, 3.0, 2.0]).expect("non-empty");
    c.that(
        "median of an even sample",
        even.median == 2.5 && even.n == 4,
    );
    c.that(
        "spread is (max-min)/median",
        (even.spread() - 1.2).abs() < 1e-12,
    );
    let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let s = stats::summarize(&hundred).expect("non-empty");
    c.that(
        "nearest-rank p90 of 1..=100",
        s.p90 == Some(90.0) && s.median == 50.5,
    );
    c.that(
        "empty sample has no summary",
        stats::summarize(&[]).is_none(),
    );
}

fn comparator(c: &mut Checks) {
    for m in schema::END_TO_END.iter().filter(|m| m.clock == Clock::Host) {
        let inside = 100.0 * (1.0 + m.bound * 0.99);
        let outside = 100.0 * (1.0 + m.bound * 1.01);
        c.that(
            &format!("{}: just inside its bound passes", m.name),
            parent::disagreement(m, 100.0, inside).is_none(),
        );
        c.that(
            &format!("{}: just outside its bound fails", m.name),
            parent::disagreement(m, 100.0, outside).is_some(),
        );
        c.that(
            &format!("{}: an improvement passes", m.name),
            parent::disagreement(m, 100.0, 50.0).is_none(),
        );
    }
    let higher = Metric {
        name: "up",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        clock: Clock::Host,
    };
    c.that("higher-is-better: a drop past the bound fails", {
        parent::disagreement(&higher, 100.0, 89.0).is_some()
            && parent::disagreement(&higher, 100.0, 91.0).is_none()
    });
    let exact = schema::END_TO_END
        .iter()
        .find(|m| m.clock == Clock::Exact)
        .expect("a simulated end-to-end metric");
    c.that(
        "simulated metric: identical passes, one ulp apart fails",
        parent::disagreement(exact, 1.5, 1.5).is_none()
            && parent::disagreement(exact, 1.5, f64::from_bits(1.5f64.to_bits() + 1)).is_some(),
    );
}

fn span_at(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
    Span {
        id,
        parent,
        rep: 1,
        tag: 0,
        layer,
        op: "put",
        start_ns: start,
        end_ns: end,
        bytes_in: 0,
        bytes_out: 0,
        logical: 0,
        sim_ns: end - start,
        os_threads: 0,
    }
}

fn self_time(c: &mut Checks) {
    // journal 0..100 encloses compress 10..90, which encloses delta 20..50
    // and a second delta call 60..80; fs 25..45 sits inside the first.
    let tree = [
        span_at(0, None, "store.journal", 0, 100),
        span_at(1, Some(0), "store.compress", 10, 90),
        span_at(2, Some(1), "store.delta", 20, 50),
        span_at(3, Some(2), "store.fs", 25, 45),
        span_at(4, Some(1), "store.delta", 60, 80),
    ];
    let own = span::self_share(&tree, Span::host_ns);
    let expect: BTreeMap<u32, u64> = [(0, 20), (1, 30), (2, 10), (3, 20), (4, 20)].into();
    c.that("self time = span minus enclosed child spans", own == expect);
    c.that(
        "self times sum to the outermost span",
        own.values().sum::<u64>() == tree[0].host_ns(),
    );
    c.that(
        "the same accounting on the simulated clock",
        span::self_share(&tree, |s| s.sim_ns) == expect,
    );
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|ch: char| ch.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|ch| ch.is_ascii_alphanumeric() || "_.-".contains(ch))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|ch| ch.is_ascii_alphanumeric() || "_/%.-".contains(ch))
}

fn declarations(c: &mut Checks) {
    let mut names: Vec<&str> = schema::WORKLOADS.iter().map(|w| w.0).collect();
    names.extend(schema::END_TO_END.iter().map(|m| m.name));
    names.extend(schema::PER_LAYER.iter().map(|m| m.name));
    c.that(
        "every name fits the contract",
        names.iter().all(|n| name_ok(n)),
    );
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    c.that("every name is used once", unique.len() == names.len());
    c.that(
        "every unit fits the contract",
        schema::END_TO_END
            .iter()
            .chain(&schema::PER_LAYER)
            .all(|m| unit_ok(m.unit)),
    );
    c.that(
        "every why is one line of at most 200 characters",
        schema::WORKLOADS
            .iter()
            .all(|w| w.1.chars().count() <= 200 && !w.1.contains('\n')),
    );
    c.that(
        "bounds are at most 0.25 and setup_s has the largest",
        schema::END_TO_END.iter().all(|m| m.bound <= 0.25)
            && schema::END_TO_END
                .iter()
                .all(|m| m.bound <= schema::END_TO_END[0].bound)
            && schema::END_TO_END[0].name == "setup_s",
    );
    c.that(
        "at most 128 per-layer metrics",
        schema::PER_LAYER.len() <= 128,
    );
    c.that(
        "every workload can be built",
        schema::WORKLOADS
            .iter()
            .all(|w| crate::workloads::build(w.0, 1).is_some()),
    );
    // Only where the file is in reach (the repo root).
    if let Ok(on_disk) = std::fs::read_to_string("BENCHMARK.json") {
        c.that(
            "BENCHMARK.json is what --emit-benchmark-json prints",
            on_disk == schema::benchmark_json(),
        );
    }
}

fn result_line(c: &mut Checks) {
    let r = RunResult {
        correct: true,
        attempted: 12,
        failed: 0,
        metrics: vec![
            ("wall_s".into(), 1.203_456_789_012_3, "s".into()),
            ("sim.memory.copied_frac.d1".into(), 0.0, "ratio".into()),
        ],
    };
    c.that(
        "a result line reads back exactly",
        RunResult::from_json(&r.to_json()) == Some(r),
    );
}

fn oracles(c: &mut Checks) {
    let good: BTreeMap<u32, u64> = [(0, 11), (1, 22)].into();
    let mut bad = good.clone();
    bad.insert(1, 23);
    let empty = BTreeMap::new();

    c.that(
        "steady: equal checksums pass",
        steady::oracle(&good, &good, false),
    );
    c.that(
        "steady: one perturbed checksum fails",
        !steady::oracle(&good, &bad, false),
    );
    c.that(
        "steady: nothing to compare fails",
        !steady::oracle(&empty, &empty, false),
    );

    c.that(
        "ckpt: clean run passes",
        ckpt::oracle(&good, &good, 1, false),
    );
    c.that(
        "ckpt: one perturbed checksum fails",
        !ckpt::oracle(&good, &bad, 1, false),
    );
    c.that("ckpt: a missing or second checkpoint fails", {
        !ckpt::oracle(&good, &good, 0, false) && !ckpt::oracle(&good, &good, 2, false)
    });

    c.that(
        "migrate: clean resume passes",
        migrate::oracle(&good, &good, false, true),
    );
    c.that(
        "migrate: one perturbed checksum fails",
        !migrate::oracle(&good, &bad, false, true),
    );
    c.that(
        "migrate: a killed resume fails",
        !migrate::oracle(&good, &good, true, true),
    );

    c.that(
        "store_put: a faithful read-back passes",
        store::round_trips(7, Some(7)),
    );
    c.that(
        "store_put: a perturbed restore fails",
        !store::round_trips(7, Some(8)),
    );
    c.that(
        "store_get: an unreadable generation fails",
        !store::round_trips(7, None),
    );

    let mut report = mana_chaos::ChaosHarness::new(1, 1).run();
    c.that("chaos: a healed chain passes", chaos::healed(&report));
    report.checksums_match = false;
    c.that("chaos: an unhealed report fails", !chaos::healed(&report));

    // And a failed oracle becomes a counted failure.
    let rep = |failed, sim_cost_s| Rep {
        wall_s: 1.0,
        sim_cost_s,
        attempted: 1,
        failed,
    };
    c.that(
        "tally: clean reps are correct",
        tally(&[rep(0, 2.0), rep(0, 2.0)], 0) == (2, 0, true),
    );
    c.that(
        "tally: a failed oracle is counted",
        tally(&[rep(0, 2.0), rep(1, 2.0)], 0) == (2, 1, false),
    );
    c.that(
        "tally: a simulated clock that does not repeat is counted",
        tally(&[rep(0, 2.0), rep(0, 2.5)], 0) == (2, 1, false),
    );
    c.that(
        "tally: a failed warm-up is not correct",
        !tally(&[rep(0, 2.0)], 1).2,
    );
}

/// Run every check; print what failed.
pub fn run() -> ExitCode {
    let mut c = Checks {
        failed: Vec::new(),
        passed: 0,
    };
    arithmetic(&mut c);
    comparator(&mut c);
    self_time(&mut c);
    declarations(&mut c);
    result_line(&mut c);
    oracles(&mut c);
    for f in &c.failed {
        eprintln!("ledger --self-test: FAILED: {f}");
    }
    println!(
        "ledger --self-test: {} checks passed, {} failed",
        c.passed,
        c.failed.len()
    );
    if c.failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
