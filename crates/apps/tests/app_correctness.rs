//! Correctness properties of every workload: determinism, native-vs-MANA
//! result equality, and full checkpoint/kill/restart fidelity.

use mana_apps::{make_app_small, AppKind, Clamr, Gromacs, Hpcg, MiniFe};
use mana_core::{FsStore, JobBuilder, ManaSession};
use mana_mpi::MpiProfile;
use mana_sim::cluster::ClusterSpec;
use mana_sim::fs::FsConfig;
use mana_sim::time::{SimDuration, SimTime};
use std::sync::Arc;

fn session() -> ManaSession {
    ManaSession::builder()
        .store(FsStore::with_config(FsConfig {
            node_bw: 2e9,
            aggregate_bw: 100e9,
            op_latency: SimDuration::millis(1),
            write_straggler_max: 2.0,
            read_straggler_max: 1.5,
            seed: 3,
        }))
        .build()
}

fn nranks_for(kind: AppKind) -> u32 {
    match kind {
        AppKind::Lulesh => 8, // 2x2x2 grid
        _ => 6,
    }
}

fn job(kind: AppKind) -> JobBuilder {
    JobBuilder::new()
        .cluster(ClusterSpec::cori(2))
        .ranks(nranks_for(kind))
        .profile(MpiProfile::cray_mpich())
        .seed(7)
}

#[test]
fn apps_run_deterministically_native() {
    let session = session();
    for kind in AppKind::all() {
        let n = nranks_for(kind);
        let run = || {
            session
                .run_native(job(kind), make_app_small(kind, 8))
                .expect("native run")
        };
        let a = run();
        let b = run();
        assert_eq!(a.checksums.len(), n as usize, "{}", kind.name());
        assert_eq!(a.checksums, b.checksums, "{} nondeterministic", kind.name());
        assert_eq!(a.wall, b.wall, "{} timing nondeterministic", kind.name());
    }
}

#[test]
fn apps_match_native_under_mana() {
    let session = session();
    for kind in AppKind::all() {
        let native = session
            .run_native(job(kind), make_app_small(kind, 8))
            .expect("native run");
        let mana = session
            .run(
                job(kind).ckpt_dir(format!("mm-{}", kind.name())),
                make_app_small(kind, 8),
            )
            .expect("mana run");
        assert_eq!(
            &native.checksums,
            mana.checksums(),
            "{} diverged under MANA",
            kind.name()
        );
    }
}

#[test]
fn apps_survive_checkpoint_restart_with_impl_switch() {
    let session = session();
    for kind in AppKind::all() {
        let n = nranks_for(kind);
        let dir = format!("cr-{}", kind.name());
        // Uninterrupted reference run.
        let clean = session
            .run(job(kind).ckpt_dir(dir.clone()), make_app_small(kind, 8))
            .expect("clean run");
        assert!(!clean.killed(), "{}", kind.name());

        // Checkpoint mid-run, kill.
        let killed = session
            .run(
                job(kind)
                    .ckpt_dir(dir.clone())
                    .checkpoint_at(SimTime(clean.outcome().wall.as_nanos() / 2))
                    .then_kill(),
                make_app_small(kind, 8),
            )
            .expect("checkpoint run");
        assert!(killed.killed(), "{} not killed", kind.name());
        assert_eq!(killed.ckpts().len(), 1, "{} ckpt missing", kind.name());

        // Restart under Open MPI on the local cluster.
        let resumed = killed
            .restart_on(
                JobBuilder::new()
                    .cluster(ClusterSpec::local_cluster(2))
                    .profile(MpiProfile::open_mpi()),
            )
            .expect("restart");
        assert!(!resumed.killed(), "{}", kind.name());
        assert_eq!(
            clean.checksums(),
            resumed.checksums(),
            "{} diverged across restart",
            kind.name()
        );
        let report = resumed.restart_report().expect("restart stats");
        assert_eq!(report.ranks.len(), n as usize);
    }
}

fn run_native(app: impl mana_core::Workload + 'static) {
    session()
        .run_native(job(AppKind::Hpcg), Arc::new(app))
        .expect("native run");
}

#[test]
#[should_panic(expected = "hpcg: boundary 0 must be between 1 and rows (100)")]
fn a_zero_boundary_is_refused_by_name() {
    run_native(Hpcg {
        iters: 1,
        rows: 100,
        boundary: 0,
        bulk_bytes: 0,
    });
}

#[test]
#[should_panic(expected = "minife: boundary 65 must be between 1 and rows (64)")]
fn a_boundary_wider_than_the_rows_is_refused_by_name() {
    run_native(MiniFe {
        rows: 64,
        boundary: 65,
        ..MiniFe::default()
    });
}

#[test]
#[should_panic(expected = "gromacs: chunk 31 must be at most 3 * particles (30)")]
fn a_gromacs_chunk_longer_than_the_positions_is_refused_by_name() {
    run_native(Gromacs {
        particles: 10,
        chunk: 31,
        ..Gromacs::default()
    });
}

#[test]
#[should_panic(expected = "clamr: cells 300 must be at least 1024, the largest chunk it exchanges")]
fn clamr_cells_fewer_than_its_largest_chunk_are_refused_by_name() {
    run_native(Clamr {
        cells: 300,
        ..Clamr::default()
    });
}

#[test]
fn osu_latency_reports_sane_numbers() {
    let sink = mana_apps::series();
    let wl = Arc::new(mana_apps::OsuLatency {
        sizes: mana_apps::size_sweep(1 << 16),
        iters: 20,
        sink: sink.clone(),
    });
    session()
        .run_native(
            JobBuilder::new()
                .cluster(ClusterSpec::cori(1))
                .ranks(2)
                .profile(MpiProfile::cray_mpich())
                .seed(5),
            wl,
        )
        .expect("native run");
    let series = sink.lock().clone();
    assert_eq!(series.len(), 17);
    // Latency grows with size; small-message latency is sub-10µs on shm.
    assert!(series[0].1 < 10.0, "1B latency {}", series[0].1);
    assert!(series.last().unwrap().1 > series[0].1);
}

#[test]
fn osu_bandwidth_saturates() {
    let sink = mana_apps::series();
    let wl = Arc::new(mana_apps::OsuBandwidth {
        sizes: vec![1 << 10, 1 << 16, 1 << 22],
        window: 32,
        windows: 4,
        sink: sink.clone(),
    });
    session()
        .run_native(
            JobBuilder::new()
                .cluster(ClusterSpec::cori(1))
                .ranks(2)
                .profile(MpiProfile::cray_mpich())
                .seed(5),
            wl,
        )
        .expect("native run");
    let series = sink.lock().clone();
    assert_eq!(series.len(), 3);
    // Bandwidth increases with message size toward the shm rate.
    assert!(series[2].1 > series[0].1);
    assert!(series[2].1 > 5_000.0, "4MB bw {} MB/s", series[2].1);
}
