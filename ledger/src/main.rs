//! `ledger` — the repo's benchmark: six workloads, two clocks (host
//! wall-clock and simulated time), and a per-layer breakdown from a separate
//! traced pass. See `README.md` next to `Cargo.toml` for the workload and
//! metric tables and for how to read a result.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run; JSON result on the last line
//! ledger [--seed <n>] [--seconds <s>]                               every workload, untraced then traced
//! ledger --check [--seed <n>] [--seconds <s>]                       self-test, then two sets of runs that must agree
//! ledger --self-test                                                arithmetic, accounting and oracle checks
//! ledger --emit-benchmark-json                                      print BENCHMARK.json from the declarations
//! ```

mod host;
mod parent;
mod probes;
mod report;
mod schema;
mod selftest;
mod span;
mod stats;
mod workloads;

use report::RunResult;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Rep, Trace};

/// Set-up rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    self_test: bool,
    emit: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: schema::RUN_SECONDS as f64,
        trace: false,
        check: false,
        self_test: false,
        emit: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds: a positive number of seconds")?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: 0 or 1, not {other}")),
                }
            }
            "--check" => args.check = true,
            "--self-test" => args.self_test = true,
            "--emit-benchmark-json" => args.emit = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Totals over the timed repetitions: attempted, failed, and whether the
/// run counts as correct. A rep whose simulated cost differs from the first
/// rep's broke determinism and counts as failed.
fn tally(reps: &[Rep], warmups_failed: u64) -> (u64, u64, bool) {
    let first = reps.first().map(|r| r.sim_cost_s.to_bits());
    let attempted = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps
        .iter()
        .map(|r| {
            if Some(r.sim_cost_s.to_bits()) == first {
                r.failed
            } else {
                r.attempted
            }
        })
        .sum();
    (attempted, failed, failed == 0 && warmups_failed == 0)
}

fn print_metric(name: &str, unit: &str, samples: &[f64]) {
    if let Some(s) = stats::summarize(samples) {
        let p90 = s.p90.map_or(String::new(), |p| format!(", p90 {p:.6}"));
        println!(
            "  {name} = {:.6} {unit}  (min {:.6}, max {:.6}, n {}{p90})",
            s.median, s.min, s.max, s.n
        );
    }
}

/// One run of one workload: set-up rounds, timed reps for `seconds`, then
/// the result line. Returns `None` for an unknown workload.
fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Option<RunResult> {
    let mut w = workloads::build(name, seed)?;
    let affinity = host::Affinity::inherited();
    let pinned = w.pinned() && affinity.pin_one();
    println!(
        "ledger {name}: seed={seed} seconds={seconds} traced={traced} pinned={pinned} nproc={} cpu=[{}]",
        affinity.nproc(),
        host::describe_cpu()
    );
    if w.pinned() && !pinned {
        println!("  pinning refused: every host-clock metric of this run is UNRESOLVED");
    }
    if traced {
        span::enable();
    }

    // Set-up, several times over: inputs, probe or priming, one warm-up rep.
    let mut setup_s = Vec::new();
    let mut warmup = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let t0 = Instant::now();
        w.set_up();
        warmup.push(w.rep());
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    // Closed loop, one rep at a time, until the budget is used. A rep is
    // started only if more of it is expected to fit than to overshoot.
    let mut reps: Vec<Rep> = Vec::new();
    let t0 = Instant::now();
    loop {
        span::set_rep(reps.len() as u32 + 1);
        let rep = {
            let _s = span::open("ledger", "rep");
            w.rep()
        };
        reps.push(rep);
        let typical = stats::median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        if t0.elapsed().as_secs_f64() + typical / 2.0 >= seconds {
            break;
        }
    }
    span::set_rep(0);

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let wall = stats::summarize(&walls).expect("at least one rep");
    let warm_failed = warmup.iter().map(|r| r.failed).sum();
    let (attempted, failed, correct) = tally(&reps, warm_failed);
    let warm_last = warmup.last().expect("at least one set-up round");
    let sim_cost_s = reps[0].sim_cost_s;

    let metrics = if traced {
        let spans = span::take();
        let mut values = w.layers(&Trace {
            spans: &spans,
            reps: &reps,
            affinity: &affinity,
        });
        let setup = stats::summarize(&setup_s).expect("set-up rounds ran");
        values.extend([
            ("ledger.traced_wall_s", wall.median),
            ("ledger.sim_cost_s", sim_cost_s),
            ("ledger.rep_spread", wall.spread()),
            ("ledger.warmup_ratio", warm_last.wall_s / wall.median),
            ("ledger.reps", reps.len() as f64),
            ("ledger.setup_spread", setup.spread()),
            ("ledger.trace_spans", spans.len() as f64),
        ]);
        let path = trace_dir().join(format!("trace.{name}.jsonl"));
        match span::write_jsonl(&path, &spans) {
            Ok(()) => println!("  trace: {} spans -> {}", spans.len(), path.display()),
            Err(e) => println!("  trace not written ({}): {e}", path.display()),
        }
        per_layer_metrics(&values)
    } else {
        print_metric("setup_s", "s", &setup_s);
        print_metric("wall_s", "s", &walls);
        let each: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
        println!("    reps, in order: {}", each.join(" "));
        let rss = host::peak_rss_mb().unwrap_or(0.0);
        println!("  peak_rss_mb = {rss:.3} MB");
        println!("  sim_cost_s = {sim_cost_s:.9} sim_s");
        println!(
            "  failed_frac = {:.6}  ({failed} of {attempted}, correct: {correct}); rep_spread = {:.4}",
            failed as f64 / attempted.max(1) as f64,
            wall.spread()
        );
        schema::END_TO_END
            .iter()
            .zip([stats::median(&setup_s), wall.median, rss, sim_cost_s])
            .map(|(m, v)| (m.name.to_string(), v, m.unit.to_string()))
            .collect()
    };
    Some(RunResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Every declared per-layer metric, in declaration order: the value a
/// workload reported, or 0 where its layer was idle. Prints the non-zero
/// ones. Panics on a reported name that is not declared (a ledger bug).
fn per_layer_metrics(values: &[(&'static str, f64)]) -> Vec<(String, f64, String)> {
    for (name, _) in values {
        schema::layer_metric(name);
    }
    schema::PER_LAYER
        .iter()
        .map(|m| {
            let v = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |v| v.1);
            let v = if v.is_finite() { v } else { 0.0 };
            if v != 0.0 {
                println!("  {} = {v:.6} {}", m.name, m.unit);
            }
            (m.name.to_string(), v, m.unit.to_string())
        })
        .collect()
}

/// `<directory of the executable>/ledger-trace` — where traces and ledger
/// points go: always inside the build directory, which `.gitignore` names.
fn trace_dir() -> std::path::PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("ledger-trace")))
        .unwrap_or_else(|| "ledger-trace".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if args.emit {
        print!("{}", schema::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.self_test {
        return selftest::run();
    }
    if args.check {
        return parent::check(args.seed, args.seconds);
    }
    match &args.workload {
        Some(name) => match run_workload(name, args.seed, args.seconds, args.trace) {
            Some(result) => {
                println!("{}", result.to_json());
                ExitCode::SUCCESS
            }
            None => {
                let known: Vec<&str> = schema::WORKLOADS.iter().map(|w| w.0).collect();
                eprintln!(
                    "ledger: unknown workload {name}; one of {}",
                    known.join(", ")
                );
                ExitCode::from(2)
            }
        },
        None => parent::all(args.seed, args.seconds),
    }
}
