//! The parent side: re-execute this program once per workload (so that
//! `peak_rss_mb`, the thread count and the CPU affinity are per workload),
//! collect the result lines, and compare sets of runs.

use crate::report::RunResult;
use crate::schema::{self, Clock, Metric};
use crate::stats;
use std::process::{Command, ExitCode};

/// Run one workload in a child process; echo its report, return its result.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (last, report) = stdout
        .trim_end()
        .rsplit_once('\n')
        .map_or(("", stdout.trim_end()), |(report, last)| (last, report));
    if !out.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    println!("{report}");
    RunResult::from_json(last).ok_or(format!("{workload}: no result line"))
}

/// One pass over every workload.
fn pass(seed: u64, seconds: f64, traced: bool) -> Result<Vec<(&'static str, RunResult)>, String> {
    schema::WORKLOADS
        .iter()
        .map(|(name, _)| child(name, seed, seconds, traced).map(|r| (*name, r)))
        .collect()
}

/// Default invocation: the end-to-end pass, then the traced pass, then the
/// end-to-end table and what tracing cost.
pub fn all(seed: u64, seconds: f64) -> ExitCode {
    let run = || -> Result<bool, String> {
        println!("== end-to-end pass (no wrappers, hooks or spans installed)");
        let plain = pass(seed, seconds, false)?;
        println!("== traced pass");
        let traced = pass(seed, seconds, true)?;
        println!("== summary, seed {seed}");
        let mut point = Vec::new();
        for ((name, p), (_, t)) in plain.iter().zip(&traced) {
            let line: Vec<String> = p
                .metrics
                .iter()
                .map(|(n, v, u)| format!("{n} {v:.6} {u}"))
                .collect();
            let overhead = t.value("ledger.traced_wall_s").unwrap_or(0.0)
                / p.value("wall_s").unwrap_or(f64::NAN);
            println!(
                "{name}: {}; failed {}/{}; trace_overhead_ratio {overhead:.3}",
                line.join(", "),
                p.failed,
                p.attempted
            );
            let metrics = |r: &RunResult| -> String {
                let rows: Vec<String> = r
                    .metrics
                    .iter()
                    .filter(|m| m.1 != 0.0)
                    .map(|(n, v, u)| {
                        format!("        \"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
                    })
                    .collect();
                rows.join(",\n")
            };
            point.push(format!(
                "    \"{name}\": {{\n      \"attempted\": {}, \"failed\": {}, \
                 \"trace_overhead_ratio\": {overhead},\n      \"end_to_end\": {{\n{}\n      }},\n      \
                 \"per_layer\": {{\n{}\n      }}\n    }}",
                p.attempted,
                p.failed,
                metrics(p),
                metrics(t)
            ));
        }
        // One ledger point, next to the traces: what `baseline.json` is cut from.
        let path = crate::trace_dir().join("point.json");
        let doc = format!(
            "{{\n  \"seed\": {seed},\n  \"run_seconds\": {seconds},\n  \"host\": \"{}\",\n  \
             \"workloads\": {{\n{}\n  }}\n}}\n",
            crate::host::describe_cpu(),
            point.join(",\n")
        );
        match std::fs::write(&path, doc) {
            Ok(()) => println!("ledger point -> {}", path.display()),
            Err(e) => println!("ledger point not written ({}): {e}", path.display()),
        }
        Ok(plain.iter().chain(&traced).all(|(_, r)| r.correct))
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ledger: an oracle failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Why `second` disagrees with `first` on `m`, if it does: host-clock
/// metrics may differ by the bound (per-layer ones are not gated), exact
/// ones not at all.
pub fn disagreement(m: &Metric, first: f64, second: f64) -> Option<String> {
    match m.clock {
        Clock::Exact if first.to_bits() != second.to_bits() => Some(format!(
            "{} is seed-deterministic but read {first} then {second}",
            m.name
        )),
        Clock::Host if m.bound > 0.0 && !stats::within_bound(m.better, m.bound, first, second) => {
            Some(format!(
                "{} got worse by {:.1} % (bound {:.0} %): {first} -> {second} {}",
                m.name,
                stats::worse_by(m.better, first, second) * 100.0,
                m.bound * 100.0,
                m.unit
            ))
        }
        _ => None,
    }
}

fn compare(
    declared: &[Metric],
    first: &[(&'static str, RunResult)],
    second: &[(&'static str, RunResult)],
    complaints: &mut Vec<String>,
) {
    for ((workload, a), (_, b)) in first.iter().zip(second) {
        for m in declared {
            if let (Some(x), Some(y)) = (a.value(m.name), b.value(m.name)) {
                if let Some(why) = disagreement(m, x, y) {
                    complaints.push(format!("{workload}: {why}"));
                }
            }
        }
    }
}

/// `--check`: the self-test, then two full sets of runs of the same code
/// that must agree within the benchmark's own bounds, then one traced pass
/// on another seed, which must pass its oracles and must move something
/// seed-deterministic (the seed really reaches the inputs).
pub fn check(seed: u64, seconds: f64) -> ExitCode {
    if crate::selftest::run() != ExitCode::SUCCESS {
        return ExitCode::FAILURE;
    }
    let run = || -> Result<Vec<String>, String> {
        let mut complaints = Vec::new();
        let mut sets = Vec::new();
        for set in 1..=2 {
            println!("== set {set}: end-to-end pass, seed {seed}");
            let plain = pass(seed, seconds, false)?;
            println!("== set {set}: traced pass, seed {seed}");
            let traced = pass(seed, seconds, true)?;
            for (name, r) in plain.iter().chain(&traced) {
                if !r.correct {
                    complaints.push(format!("{name}: failed {} of {}", r.failed, r.attempted));
                }
            }
            sets.push((plain, traced));
        }
        compare(&schema::END_TO_END, &sets[0].0, &sets[1].0, &mut complaints);
        compare(&schema::PER_LAYER, &sets[0].1, &sets[1].1, &mut complaints);

        // The traced pass carries the deterministic per-layer counts, which
        // is where a seed shows even when a workload's simulated cost is a
        // constant of the recovery policy (chaos).
        let other = seed + 1;
        println!("== traced pass, seed {other}");
        for ((name, a), (_, b)) in sets[0].1.iter().zip(&pass(other, seconds, true)?) {
            if !b.correct {
                complaints.push(format!(
                    "{name}: seed {other} failed {} of {}",
                    b.failed, b.attempted
                ));
            }
            let moved = schema::PER_LAYER
                .iter()
                .filter(|m| m.clock == Clock::Exact)
                .any(|m| a.value(m.name).map(f64::to_bits) != b.value(m.name).map(f64::to_bits));
            if !moved {
                complaints.push(format!(
                    "{name}: no simulated metric or count differs between seeds {seed} and {other}; \
                     the seed does not reach the inputs"
                ));
            }
        }
        Ok(complaints)
    };
    match run() {
        Ok(complaints) if complaints.is_empty() => {
            println!("ledger --check: two sets agree within the bounds; every oracle held");
            ExitCode::SUCCESS
        }
        Ok(complaints) => {
            for c in &complaints {
                eprintln!("ledger --check: {c}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("ledger --check: {e}");
            ExitCode::FAILURE
        }
    }
}
