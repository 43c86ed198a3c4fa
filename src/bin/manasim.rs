//! `manasim` — command-line driver for the MANA reproduction.
//!
//! ```text
//! manasim run     --app hpcg --ranks 16 --nodes 2 --mpi cray --steps 10 [--ckpt-at-frac 0.5 [--kill]]
//! manasim migrate --app gromacs --ranks 8 --from cori:4 --to local:2 --from-mpi cray --to-mpi openmpi
//! manasim verify  [--ranks N] [--colls K]       # protocol model checking
//! manasim fleet   --tenants 64 [--ranks N] [--steps N] [--ckpts N]
//!                 [--admission bounded|unbounded] [--quota-kb N]
//! manasim chaos   --seed 7 --faults 3 [--restart-faults N] [--drain-faults N]
//!                 [--topology tree] [--ranks N] [--nodes N]
//!                 [--replicas N] [--app <name>]
//! ```
//!
//! Because the simulated filesystem lives in process memory, `migrate`
//! performs the whole life cycle (run → checkpoint → kill → restart) in
//! one invocation.

use mana::apps::AppKind;
use mana::core::{JobBuilder, ManaSession, RunOutcome, SessionError};
use mana::mpi::MpiProfile;
use mana::sim::cluster::ClusterSpec;
use mana::sim::time::SimTime;
use std::collections::HashMap;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  manasim run --app <gromacs|minife|hpcg|clamr|lulesh> [--ranks N] [--nodes N]\n              [--mpi <cray|openmpi|mpich|mpich-debug>] [--steps N] [--seed N]\n              [--patched-kernel] [--ckpt-at-frac F [--kill]]\n  manasim migrate --app <name> [--ranks N] [--steps N] [--seed N]\n              [--from <cori|local>:<nodes>] [--to <cori|local>:<nodes>]\n              [--from-mpi <impl>] [--to-mpi <impl>]\n  manasim verify [--ranks N] [--colls K]\n  manasim fleet [--tenants N] [--ranks N] [--steps N] [--ckpts N]\n              [--admission <bounded|unbounded>] [--quota-kb N] [--no-verify]\n  manasim chaos [--seed N] [--faults N] [--restart-faults N] [--drain-faults N]\n              [--topology <flat|tree>] [--ranks N]\n              [--nodes N] [--replicas N] [--steps N] [--app <name>]"
    );
    exit(2)
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut m = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
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

fn cmd_run(flags: HashMap<String, String>) {
    let kind = app_kind(get(&flags, "app", "hpcg"));
    let nodes: u32 = get(&flags, "nodes", "2")
        .parse()
        .unwrap_or_else(|_| usage());
    let ranks: u32 = get(&flags, "ranks", "8")
        .parse()
        .unwrap_or_else(|_| usage());
    let steps: u64 = get(&flags, "steps", "10")
        .parse()
        .unwrap_or_else(|_| usage());
    let seed: u64 = get(&flags, "seed", "1").parse().unwrap_or_else(|_| usage());
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
    let probe = session.run(job(), app.clone()).unwrap_or_else(|e| fail(&e));
    let out = probe.outcome();
    println!("  total {}   application {}", out.wall, out.app_wall);
    print_sched(out);

    if let Some(frac) = flags.get("ckpt-at-frac") {
        let frac: f64 = frac.parse().unwrap_or_else(|_| usage());
        let at = out.wall.as_nanos() - (out.app_wall.as_nanos() as f64 * (1.0 - frac)) as u64;
        let mut job = job().checkpoint_at(SimTime(at));
        if flags.contains_key("kill") {
            job = job.then_kill();
        }
        let run = session.run(job, app).unwrap_or_else(|e| fail(&e));
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

/// The run's deterministic simulation cost (same seed, same counts).
fn print_sched(out: &RunOutcome) {
    let s = out.sched;
    println!(
        "  scheduler: {} hand-offs, {} self-wakes, {} calls, {} stale wakes",
        s.handoffs, s.self_wakes, s.calls, s.stale_wakes
    );
}

fn cmd_migrate(flags: HashMap<String, String>) {
    let kind = app_kind(get(&flags, "app", "gromacs"));
    let ranks: u32 = get(&flags, "ranks", "8")
        .parse()
        .unwrap_or_else(|_| usage());
    let steps: u64 = get(&flags, "steps", "12")
        .parse()
        .unwrap_or_else(|_| usage());
    let seed: u64 = get(&flags, "seed", "1").parse().unwrap_or_else(|_| usage());
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

fn cmd_verify(flags: HashMap<String, String>) {
    let ranks: usize = get(&flags, "ranks", "3")
        .parse()
        .unwrap_or_else(|_| usage());
    let colls: usize = get(&flags, "colls", "2")
        .parse()
        .unwrap_or_else(|_| usage());
    let spec = mana::model_check::Spec::uniform_world(ranks, colls);
    println!("model-checking the two-phase protocol: {ranks} ranks x {colls} collectives ...");
    let out = mana::model_check::check(&spec);
    println!(
        "  {} states, {} transitions: {}",
        out.states,
        out.transitions,
        if out.ok() {
            "no deadlocks, no broken invariants".to_string()
        } else {
            format!("VIOLATION {:?}", out.violation)
        }
    );
    if !out.ok() {
        exit(1);
    }
}

fn cmd_fleet(flags: HashMap<String, String>) {
    use mana::fleet::{AdmissionPolicy, Backpressure, FleetConfig, FleetScheduler, TenantSpec};
    let tenants: usize = get(&flags, "tenants", "64")
        .parse()
        .unwrap_or_else(|_| usage());
    let ranks: u32 = get(&flags, "ranks", "2")
        .parse()
        .unwrap_or_else(|_| usage());
    let steps: u64 = get(&flags, "steps", "5")
        .parse()
        .unwrap_or_else(|_| usage());
    let ckpts: u32 = get(&flags, "ckpts", "2")
        .parse()
        .unwrap_or_else(|_| usage());
    let quota_kb: Option<u64> = flags
        .get("quota-kb")
        .map(|v| v.parse().unwrap_or_else(|_| usage()));
    let policy = match get(&flags, "admission", "bounded") {
        "bounded" => AdmissionPolicy::Bounded,
        "unbounded" => AdmissionPolicy::Unbounded,
        other => {
            eprintln!("unknown admission policy: {other}");
            usage()
        }
    };
    let mut cfg = FleetConfig::default();
    cfg.admission.policy = policy;
    cfg.verify_restarts = !flags.contains_key("no-verify");

    let specs: Vec<TenantSpec> = (0..tenants)
        .map(|i| TenantSpec {
            ranks,
            steps,
            ckpts,
            quota_bytes: quota_kb.map(|kb| kb * 1024),
            ..TenantSpec::nth(i)
        })
        .collect();
    println!(
        "fleet: {tenants} tenant job(s) x {ranks} rank(s), {ckpts} checkpoint(s) each, admission {}",
        match policy {
            AdmissionPolicy::Bounded => "bounded",
            AdmissionPolicy::Unbounded => "unbounded",
        }
    );
    let report = FleetScheduler::in_memory(cfg).run(&specs);

    println!(
        "  checkpoints: {} granted, {} shed; p50 visible {}, p99 visible {}, makespan {}",
        report.granted(),
        report.shed(),
        report.p50_visible,
        report.p99_visible,
        report.makespan
    );
    println!(
        "  shared plane: {:.2} MB offered, {:.2} MB stored ({:.1}% — {:.2}x dedup), pool {:.2} MB",
        report.stats.bytes_in as f64 / 1e6,
        (report.stats.bytes_new + report.stats.manifest_bytes) as f64 / 1e6,
        report.stored_fraction() * 100.0,
        1.0 / report.stored_fraction().max(f64::MIN_POSITIVE),
        report.pool_bytes as f64 / 1e6
    );
    for e in &report.epochs {
        println!(
            "    epoch {}: {:.2} MB in, {:.2} MB stored ({:.2}x dedup)",
            e.epoch,
            e.bytes_in as f64 / 1e6,
            e.bytes_stored as f64 / 1e6,
            e.dedup_ratio()
        );
    }
    let quota_hit: Vec<&mana::fleet::TenantReport> = report
        .tenants
        .iter()
        .filter(|t| !t.quota_events.is_empty())
        .collect();
    if !quota_hit.is_empty() {
        println!("  quota back-pressure:");
        for t in quota_hit {
            println!(
                "    {}: {} event(s), {} B still stored",
                t.name,
                t.quota_events.len(),
                t.stored_final
            );
        }
    }
    for r in &report.records {
        if let mana::fleet::Admission::Shed(Backpressure::QueueTimeout { waited, limit }) =
            r.decision
        {
            println!(
                "    shed: tenant {} ckpt {} (would wait {waited} > {limit})",
                report.tenants[r.tenant].name, r.ckpt_id
            );
        }
    }
    if cfg!(debug_assertions) && tenants > 16 {
        eprintln!("  (debug build: large fleets are faster with --release)");
    }
    if report.tenants.iter().any(|t| t.verified == Some(false)) {
        for t in report.tenants.iter().filter(|t| t.verified == Some(false)) {
            eprintln!("  tenant {} FAILED restart verification", t.name);
        }
        exit(1);
    }
    if report.tenants.iter().all(|t| t.verified == Some(true)) {
        println!(
            "  all {} tenants restarted from their latest surviving checkpoint ✓",
            report.tenants.len()
        );
    }
}

fn cmd_chaos(flags: HashMap<String, String>) {
    use mana::chaos::ChaosHarness;
    use mana::core::config::TopologyKind;
    let seed: u64 = get(&flags, "seed", "0").parse().unwrap_or_else(|_| usage());
    let faults: usize = get(&flags, "faults", "3")
        .parse()
        .unwrap_or_else(|_| usage());
    let mut h = ChaosHarness::new(seed, faults);
    h.topology = match get(&flags, "topology", "tree") {
        "flat" => TopologyKind::Flat,
        "tree" => TopologyKind::Tree,
        other => {
            eprintln!("unknown topology: {other}");
            usage()
        }
    };
    h.nranks = get(&flags, "ranks", "4")
        .parse()
        .unwrap_or_else(|_| usage());
    h.nodes = get(&flags, "nodes", "2")
        .parse()
        .unwrap_or_else(|_| usage());
    h.replicas = get(&flags, "replicas", "2")
        .parse()
        .unwrap_or_else(|_| usage());
    h.steps = get(&flags, "steps", "5")
        .parse()
        .unwrap_or_else(|_| usage());
    h.restart_faults = get(&flags, "restart-faults", "0")
        .parse()
        .unwrap_or_else(|_| usage());
    h.drain_faults = get(&flags, "drain-faults", "0")
        .parse()
        .unwrap_or_else(|_| usage());
    if let Some(app) = flags.get("app") {
        h.app = app_kind(app);
    }

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(parse_flags(&args[1..])),
        Some("migrate") => cmd_migrate(parse_flags(&args[1..])),
        Some("verify") => cmd_verify(parse_flags(&args[1..])),
        Some("fleet") => cmd_fleet(parse_flags(&args[1..])),
        Some("chaos") => cmd_chaos(parse_flags(&args[1..])),
        _ => usage(),
    }
}
