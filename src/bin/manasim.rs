//! `manasim` — command-line driver for the MANA reproduction.
//!
//! ```text
//! manasim run     --app hpcg --ranks 16 --nodes 2 --mpi cray --steps 10 [--ckpt-at-frac 0.5 [--kill]]
//! manasim migrate --app gromacs --ranks 8 --from cori:4 --to local:2 --from-mpi cray --to-mpi openmpi
//! manasim verify  [--ranks N] [--colls K]       # protocol model checking
//! manasim chaos   --seed 7 --faults 3 [--restart-faults N] [--drain-faults N]
//!                 [--topology tree] [--ranks N] [--nodes N]
//!                 [--replicas N] [--steps N] [--app <name>]
//! manasim reproduce [--fig N] [--full]           # the paper's results as a card
//! ```
//!
//! Because the simulated filesystem lives in process memory, `migrate`
//! performs the whole life cycle (run → checkpoint → kill → restart) in
//! one invocation.
//!
//! `run` prints the host seconds each run took on stderr, one line per
//! run: with `--ckpt-at-frac` that is the probe run, which finds the
//! application window, and then the checkpointed run.
//!
//! Bad input (a flag the subcommand does not take, a value out of range)
//! is one `error:` line or the usage text on stderr and exit code 2.

use mana::apps::AppKind;
use mana::core::{JobBuilder, ManaSession, RunOutcome, SessionError};
use mana::mpi::MpiProfile;
use mana::sim::cluster::ClusterSpec;
use mana::sim::time::SimTime;
use std::collections::HashMap;
use std::process::exit;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage:\n  manasim run --app <gromacs|minife|hpcg|clamr|lulesh> [--ranks N] [--nodes N]\n              [--mpi <cray|openmpi|mpich|mpich-debug>] [--steps N] [--seed N]\n              [--patched-kernel] [--ckpt-at-frac F [--kill]]\n  manasim migrate --app <name> [--ranks N] [--steps N] [--seed N]\n              [--from <cori|local>:<nodes>] [--to <cori|local>:<nodes>]\n              [--from-mpi <impl>] [--to-mpi <impl>]\n  manasim verify [--ranks N] [--colls K]\n  manasim chaos [--seed N] [--faults N] [--restart-faults N] [--drain-faults N]\n              [--topology <flat|tree>] [--ranks N]\n              [--nodes N] [--replicas N] [--steps N] [--app <name>]\n  manasim reproduce [--fig <2..9|2.6|3.2.2|3.3|3.5>] [--full]"
    );
    exit(2)
}

/// One `error:` line on stderr and exit code 2: the command line itself
/// is wrong.
fn bad_input(why: &str) -> ! {
    eprintln!("error: {why}");
    exit(2)
}

/// `--key value` pairs (a bare `--key` is `true`). `known` lists the
/// flags `cmd` reads, space-separated; any other flag is refused, so a
/// typo never runs the defaults silently.
fn parse_flags(cmd: &str, known: &str, args: &[String]) -> HashMap<String, String> {
    let mut m = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            if !known.split_whitespace().any(|k| k == key) {
                bad_input(&format!("manasim {cmd} has no flag --{key}"));
            }
            let val = if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                i += 1;
                args[i].clone()
            } else {
                "true".to_string()
            };
            m.insert(key.to_string(), val);
        } else {
            eprintln!("unexpected argument: {a}");
            usage();
        }
        i += 1;
    }
    m
}

fn app_kind(name: &str) -> AppKind {
    match name {
        "gromacs" => AppKind::Gromacs,
        "minife" => AppKind::MiniFe,
        "hpcg" => AppKind::Hpcg,
        "clamr" => AppKind::Clamr,
        "lulesh" => AppKind::Lulesh,
        other => {
            eprintln!("unknown app: {other}");
            usage()
        }
    }
}

fn profile(name: &str) -> MpiProfile {
    match name {
        "cray" => MpiProfile::cray_mpich(),
        "openmpi" => MpiProfile::open_mpi(),
        "mpich" => MpiProfile::mpich(),
        "mpich-debug" => MpiProfile::mpich_debug(),
        other => {
            eprintln!("unknown MPI implementation: {other}");
            usage()
        }
    }
}

fn cluster(spec: &str) -> ClusterSpec {
    let (name, nodes) = spec.split_once(':').unwrap_or((spec, "2"));
    let nodes: u32 = nodes.parse().unwrap_or_else(|_| usage());
    match name {
        "cori" => ClusterSpec::cori(nodes),
        "local" => ClusterSpec::local_cluster(nodes),
        other => {
            eprintln!("unknown cluster: {other}");
            usage()
        }
    }
}

fn get<'a>(f: &'a HashMap<String, String>, k: &str, default: &'a str) -> &'a str {
    f.get(k).map(String::as_str).unwrap_or(default)
}

/// `--k` parsed as a number (`default` when absent); the usage on junk.
fn num<T: std::str::FromStr>(f: &HashMap<String, String>, k: &str, default: &str) -> T {
    get(f, k, default).parse().unwrap_or_else(|_| usage())
}

/// `--k` as a count of ranks, nodes, replicas or steps: at least 1.
fn count<T: std::str::FromStr + From<u8> + PartialOrd>(
    f: &HashMap<String, String>,
    k: &str,
    default: &str,
) -> T {
    let n: T = num(f, k, default);
    if n < T::from(1) {
        bad_input(&format!("--{k} must be at least 1"));
    }
    n
}

fn cmd_run(args: &[String]) {
    let flags = parse_flags(
        "run",
        "app nodes ranks steps seed patched-kernel mpi ckpt-at-frac kill",
        args,
    );
    let kind = app_kind(get(&flags, "app", "hpcg"));
    let nodes: u32 = num(&flags, "nodes", "2");
    let ranks: u32 = num(&flags, "ranks", "8");
    let steps: u64 = count(&flags, "steps", "10");
    let seed: u64 = num(&flags, "seed", "1");
    // Outside (0, 1) the checkpoint falls before the application window
    // or after the job ends: only the open interval names a point in it.
    let frac = flags.contains_key("ckpt-at-frac").then(|| {
        let frac: f64 = num(&flags, "ckpt-at-frac", "");
        if !(frac > 0.0 && frac < 1.0) {
            bad_input(&format!("--ckpt-at-frac must be in (0, 1), got {frac}"));
        }
        frac
    });
    let mut c = ClusterSpec::cori(nodes);
    if flags.contains_key("patched-kernel") {
        c = c.with_patched_kernel();
    }
    let app = mana::apps::make_app(kind, steps, nodes, true);
    let session = ManaSession::new();

    let mpi = profile(get(&flags, "mpi", "cray"));
    let job = || {
        JobBuilder::new()
            .cluster(c.clone())
            .ranks(ranks)
            .profile(mpi.clone())
            .seed(seed)
    };
    println!(
        "running {} under MANA: {} ranks on {} node(s), {} {}",
        kind.name(),
        ranks,
        nodes,
        mpi.name,
        mpi.version
    );
    let started = Instant::now();
    let probe = session.run(job(), app.clone()).unwrap_or_else(|e| fail(&e));
    print_host(started, if frac.is_some() { "probe run" } else { "run" });
    let out = probe.outcome();
    println!("  total {}   application {}", out.wall, out.app_wall);
    print_sched(out);

    if let Some(frac) = frac {
        let at = out.wall.as_nanos() - (out.app_wall.as_nanos() as f64 * (1.0 - frac)) as u64;
        let mut job = job().checkpoint_at(SimTime(at));
        if flags.contains_key("kill") {
            job = job.then_kill();
        }
        let started = Instant::now();
        let run = session.run(job, app).unwrap_or_else(|e| fail(&e));
        print_host(started, "checkpointed run");
        for r in run.ckpts() {
            println!(
                "  checkpoint #{}: total {} (write {}, drain {}, comm {}), {} MB/rank, {} extra iterations",
                r.ckpt_id,
                r.total(),
                r.max_write(),
                r.max_drain(),
                r.comm_overhead(),
                r.max_image_bytes() >> 20,
                r.extra_iterations
            );
            let (dirty, clean) = (r.total_dirty_pages(), r.total_clean_pages_shared());
            println!(
                "    copy path: {:.1} MB copied ({dirty} dirty pages, {clean} clean pages shared — {:.0}% of pages moved)",
                r.total_bytes_copied() as f64 / 1e6,
                if dirty + clean == 0 {
                    100.0
                } else {
                    dirty as f64 / (dirty + clean) as f64 * 100.0
                },
            );
        }
        if run.killed() {
            println!(
                "  job killed after checkpoint; images: {} files",
                session.store().list().len()
            );
        } else {
            println!("  job continued and completed; run {}", run.outcome().wall);
        }
        print_sched(run.outcome());
    }
}

/// One line on stderr; exit code 2 (like a usage error) when the job
/// description itself is wrong, 1 when a well-formed job failed.
fn fail(e: &SessionError) -> ! {
    eprintln!("error: {e}");
    exit(if matches!(e, SessionError::InvalidSpec(_)) {
        2
    } else {
        1
    })
}

/// Host seconds since `started`, on stderr: stdout stays identical
/// between two runs of one seed. With `--ckpt-at-frac` the job runs twice
/// (a probe that finds the application window, then the checkpointed
/// run), so each run gets its own line.
fn print_host(started: Instant, what: &str) {
    eprintln!("  host: {:.2} s ({what})", started.elapsed().as_secs_f64());
}

/// The run's deterministic simulation cost (same seed, same counts).
fn print_sched(out: &RunOutcome) {
    let s = out.sched;
    println!(
        "  scheduler: {} hand-offs, {} self-wakes, {} calls, {} stale wakes",
        s.handoffs, s.self_wakes, s.calls, s.stale_wakes
    );
}

fn cmd_migrate(args: &[String]) {
    let flags = parse_flags(
        "migrate",
        "app ranks steps seed from to from-mpi to-mpi",
        args,
    );
    let kind = app_kind(get(&flags, "app", "gromacs"));
    let ranks: u32 = num(&flags, "ranks", "8");
    let steps: u64 = count(&flags, "steps", "12");
    let seed: u64 = num(&flags, "seed", "1");
    let from = cluster(get(&flags, "from", "cori:4"));
    let to = cluster(get(&flags, "to", "local:2"));
    let from_mpi = profile(get(&flags, "from-mpi", "cray"));
    let to_mpi = profile(get(&flags, "to-mpi", "openmpi"));
    let app = mana::apps::make_app(kind, steps, from.nodes, true);
    let session = ManaSession::new();

    println!(
        "source:      {} on {}:{} under {}",
        kind.name(),
        from.name,
        from.nodes,
        from_mpi.name
    );
    let source_job = || {
        JobBuilder::new()
            .cluster(from.clone())
            .ranks(ranks)
            .profile(from_mpi.clone())
            .seed(seed)
    };
    let probe = session
        .run(source_job(), app.clone())
        .unwrap_or_else(|e| fail(&e));
    println!("  uninterrupted reference: {}", probe.outcome().wall);

    let at = probe.outcome().wall.as_nanos() - probe.outcome().app_wall.as_nanos() / 2;
    let killed = session
        .run(source_job().checkpoint_at(SimTime(at)).then_kill(), app)
        .unwrap_or_else(|e| fail(&e));
    assert!(killed.killed());
    let r = &killed.ckpts()[0];
    println!(
        "  checkpointed at halfway: {} ({} MB/rank); job killed",
        r.total(),
        r.max_image_bytes() >> 20
    );

    println!(
        "destination: {}:{} under {}",
        to.name, to.nodes, to_mpi.name
    );
    let resumed = killed
        .restart_on(JobBuilder::new().cluster(to.clone()).profile(to_mpi))
        .unwrap_or_else(|e| fail(&e));
    assert!(!resumed.killed());
    let report = resumed.restart_report().expect("restart stats");
    println!(
        "  restart: read {}, replay {}, resume after {}",
        report.max_read(),
        report.max_replay(),
        report.total
    );
    println!(
        "  restore data path: {} pages installed as shared handles, {} bytes copied",
        report.total_pages_shared(),
        report.total_bytes_copied()
    );
    println!("  second half completed in {}", resumed.outcome().app_wall);
    if probe.checksums() == resumed.checksums() {
        println!("  results bit-identical to the uninterrupted source run ✓");
    } else {
        eprintln!("  RESULT DIVERGENCE — this is a bug");
        exit(1);
    }
}

fn cmd_verify(args: &[String]) {
    let flags = parse_flags("verify", "ranks colls", args);
    let ranks: usize = count(&flags, "ranks", "3");
    let colls: usize = num(&flags, "colls", "2");
    let spec = mana::model_check::Spec::uniform_world(ranks, colls);
    println!("model-checking the two-phase protocol: {ranks} ranks x {colls} collectives ...");
    let out = mana::model_check::check(&spec);
    println!("  {out}");
    if !out.ok() {
        exit(1);
    }
}

fn cmd_chaos(args: &[String]) {
    use mana::chaos::ChaosHarness;
    use mana::core::config::TopologyKind;
    let flags = parse_flags(
        "chaos",
        "seed faults topology ranks nodes replicas steps restart-faults drain-faults app",
        args,
    );
    let seed: u64 = num(&flags, "seed", "0");
    let faults: usize = num(&flags, "faults", "3");
    let mut h = ChaosHarness::new(seed, faults);
    h.topology = match get(&flags, "topology", "tree") {
        "flat" => TopologyKind::Flat,
        "tree" => TopologyKind::Tree,
        other => {
            eprintln!("unknown topology: {other}");
            usage()
        }
    };
    h.nranks = count(&flags, "ranks", "4");
    h.nodes = count(&flags, "nodes", "2");
    h.replicas = count(&flags, "replicas", "2");
    h.steps = count(&flags, "steps", "5");
    h.restart_faults = num(&flags, "restart-faults", "0");
    h.drain_faults = num(&flags, "drain-faults", "0");
    if let Some(app) = flags.get("app") {
        h.app = app_kind(app);
    }
    h.job().check().unwrap_or_else(|e| fail(&e));

    println!(
        "chaos: {} on {} rank(s) / {} node(s), {} replica(s), {} topology",
        h.app.name(),
        h.nranks,
        h.nodes,
        h.replicas,
        get(&flags, "topology", "tree"),
    );
    let report = h.run();
    print!("{report}");
    if !report.healed() {
        exit(1);
    }
}

/// The reproduction card (`REPRODUCTION.md` is the quick one) on stdout.
fn cmd_reproduce(args: &[String]) {
    use mana_bench::{card, Scale, FIGURES};
    let flags = parse_flags("reproduce", "fig full", args);
    let fig = flags.get("fig");
    let figs: Vec<_> = FIGURES
        .iter()
        .filter(|f| fig.is_none_or(|k| *k == f.key))
        .collect();
    if let (Some(key), true) = (fig, figs.is_empty()) {
        bad_input(&format!("manasim reproduce has no figure {key}"));
    }
    let scale = if flags.contains_key("full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    print!("{}", card(&figs, scale));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("migrate") => cmd_migrate(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("reproduce") => cmd_reproduce(&args[1..]),
        _ => usage(),
    }
}
