//! The benchmark's declarations: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` is generated
//! from these tables (`ledger --emit-benchmark-json`), so the file the
//! driver reads and the names the program prints cannot drift apart.

use crate::stats::Better;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// What produces a metric's value, which decides how `--check` compares two
/// runs of one commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock or host memory: noisy, compared within a bound.
    Host,
    /// Simulated time or a count: seed-deterministic, compared exactly.
    Exact,
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name, as printed and as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change counts as a regression (0 for per-layer
    /// metrics, which carry no bound).
    pub bound: f64,
    /// How two runs of one commit are compared.
    pub clock: Clock,
}

/// `(name, why)` of each workload; the names carry the size.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "steady_hpcg_64",
        "Fig. 2/3: native vs MANA run, no checkpoint; sched, mpi/net and wrappers busy, \
         every checkpoint-path layer idle (the bypass workload)",
    ),
    (
        "ckpt_gromacs_64",
        "Fig. 6/8: one mid-run checkpoint of sparse 91 MB images, then continue; coordinator, \
         snapshot/encode, FsStore::put and the resume path; most OS threads",
    ),
    (
        "migrate_lulesh_125",
        "Fig. 7/9: restart a killed Cray-MPICH job under Open MPI on another cluster; \
         fetch, decode, install, replay, rebind, resync; write path idle",
    ),
    (
        "store_put_32m",
        "dense 32 MiB image written at 1/10/50/100 % dirty through Journaled>Compressing>Delta>Fs \
         and Cas>InMem; where O(dirty) through a composed stack shows or does not",
    ),
    (
        "store_get_32m",
        "every generation of both stacks read back and restored; delta replay, CAS reassembly, \
         journal validation; catches put-side gains bought by deferring work to reads",
    ),
    (
        "chaos_mix_30",
        "30 seeded fault chains per rep (checkpoint, restart and drain faults); supervisor, \
         store maintenance paths, many tiny Sim boots; where failures can move",
    ),
];

const fn host(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound,
        clock: Clock::Host,
    }
}

/// End-to-end metrics; every workload reports every one of them.
pub const END_TO_END: [Metric; 4] = [
    // Host time of one set-up round (inputs, probe or priming, one warm-up
    // rep); the median of `SETUP_ROUNDS` rounds.
    host("setup_s", "s", 0.25),
    // Median host seconds per repetition. The bound is the contract's
    // ceiling because the reference box is a shared VM: medians of runs
    // minutes apart differ by 5-20 % (README, "How steady it is").
    host("wall_s", "s", 0.25),
    // `VmHWM` when the run ends. Steady to 0.1-3 % except on chaos, whose
    // 9 MB moves by 6 % with the allocator.
    host("peak_rss_mb", "MB", 0.20),
    // What the MANA machinery costs on the simulated clock in one rep —
    // steady: MANA app time − native app time; ckpt: `CkptReport::total`;
    // migrate: `RestartReport::total`; store_put / store_get: Σ modeled
    // put / get durations over both stacks; chaos: Σ supervisor downtime.
    Metric {
        name: "sim_cost_s",
        unit: "sim_s",
        better: Better::Lower,
        // Exact for a seed; moves up to 0.7 % between seeds (the store
        // workloads, through `CompressingStore`'s content-seeded ratio).
        bound: 0.03,
        clock: Clock::Exact,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        clock,
    }
}

const fn h(name: &'static str, unit: &'static str) -> Metric {
    layer(name, unit, Better::Lower, Clock::Host)
}

const fn x(name: &'static str, unit: &'static str) -> Metric {
    layer(name, unit, Better::Lower, Clock::Exact)
}

const fn x_up(name: &'static str, unit: &'static str) -> Metric {
    layer(name, unit, Better::Higher, Clock::Exact)
}

/// Per-layer metrics (traced pass). A layer is a module of this repo; a
/// metric reads 0 on a workload where its layer is idle or it is not
/// measured. `.dN` = the epoch with N % of the pages dirty.
pub const PER_LAYER: [Metric; 95] = [
    // sim.sched — probes and steady_hpcg_64; the last two on ckpt_gromacs_64.
    h("sim.sched.handoff_ns", "ns"),
    h("sim.sched.handoff_unpinned_ratio", "ratio"),
    h("sim.sched.call_event_ns", "ns"),
    h("sim.sched.spawn_us", "us"),
    h("sim.sched.host_us_per_rank_step", "us"),
    x("sim.sched.os_threads", "count"),
    h("sim.sched.wall_ratio_4x_ranks", "ratio"),
    // mpi (with net) and core.wrapper — steady_hpcg_64.
    h("mpi.native_wall_s", "s"),
    x("mpi.sim_native_app_s", "sim_s"),
    h("core.wrapper.host_ratio", "ratio"),
    x("core.wrapper.sim_app_s", "sim_s"),
    x("core.wrapper.sim_overhead_pct", "%"),
    // core.coordinator — ckpt_gromacs_64.
    x("core.coordinator.sim_agreement_s", "sim_s"),
    x("core.coordinator.sim_bookmark_s", "sim_s"),
    x("core.coordinator.sim_completion_s", "sim_s"),
    x("core.coordinator.sim_drain_s", "sim_s"),
    x("core.coordinator.sim_write_s", "sim_s"),
    x("core.coordinator.extra_iterations", "count"),
    x("core.coordinator.bytes_copied_mb", "MB"),
    h("core.coordinator.host_pre_ckpt_s", "s"),
    h("core.coordinator.host_ckpt_window_s", "s"),
    h("core.coordinator.host_post_ckpt_s", "s"),
    h("core.coordinator.host_ckpt_cost_s", "s"),
    h("core.coordinator.host_ckpt_cost_inmem_s", "s"),
    // store.fs inside sessions — ckpt_gromacs_64, migrate_lulesh_125.
    h("store.fs.session_put_ms", "ms"),
    x("store.fs.session_put_count", "count"),
    x("store.fs.session_stored_frac", "ratio"),
    h("store.fs.session_get_ms", "ms"),
    // sim.memory — store_put_32m; the last two store_get_32m.
    h("sim.memory.snapshot_ms.d1", "ms"),
    h("sim.memory.snapshot_ms.d10", "ms"),
    h("sim.memory.snapshot_ms.d50", "ms"),
    h("sim.memory.snapshot_ms.d100", "ms"),
    x("sim.memory.copied_frac.d1", "ratio"),
    h("sim.memory.install_ms", "ms"),
    x_up("sim.memory.pages_shared_frac", "ratio"),
    // core.image — store_put_32m / store_get_32m.
    h("core.image.encode_ms", "ms"),
    h("core.image.decode_ms", "ms"),
    x("core.image.flatten_bytes", "bytes"),
    x("core.image.decode_copied_bytes", "bytes"),
    // Stack A, outermost layer first — store_put_32m; get_self_ms on
    // store_get_32m.
    h("store.journal.put_self_ms.d1", "ms"),
    h("store.journal.put_self_ms.d100", "ms"),
    h("store.journal.get_self_ms", "ms"),
    x("store.journal.out_frac.d1", "ratio"),
    x("store.journal.sim_put_s", "sim_s"),
    h("store.compress.put_self_ms.d1", "ms"),
    h("store.compress.put_self_ms.d100", "ms"),
    h("store.compress.get_self_ms", "ms"),
    x("store.compress.out_frac.d1", "ratio"),
    x("store.compress.sim_put_s", "sim_s"),
    h("store.delta.put_self_ms.d1", "ms"),
    h("store.delta.put_self_ms.d100", "ms"),
    h("store.delta.get_self_ms", "ms"),
    x("store.delta.out_frac.d1", "ratio"),
    x("store.delta.sim_put_s", "sim_s"),
    x("store.delta.digested_frac.d1", "ratio"),
    h("store.fs.put_self_ms.d1", "ms"),
    h("store.fs.put_self_ms.d100", "ms"),
    h("store.fs.get_self_ms", "ms"),
    x("store.fs.sim_put_s", "sim_s"),
    x("store.fs.held_frac", "ratio"),
    // Stack B — store workloads.
    h("store.cas.put_ms.d1", "ms"),
    h("store.cas.put_ms.d100", "ms"),
    h("store.cas.get_ms", "ms"),
    x("store.cas.stored_frac", "ratio"),
    // core.restart — migrate_lulesh_125.
    x("core.restart.sim_image_read_s", "sim_s"),
    x("core.restart.sim_memory_restore_s", "sim_s"),
    x("core.restart.sim_state_restore_s", "sim_s"),
    x("core.restart.sim_drain_reload_s", "sim_s"),
    x("core.restart.sim_lower_boot_s", "sim_s"),
    x("core.restart.sim_replay_s", "sim_s"),
    x("core.restart.sim_rebind_s", "sim_s"),
    x("core.restart.sim_resync_s", "sim_s"),
    x("core.restart.replayed_calls", "count"),
    h("core.restart.host_fetch_window_s", "s"),
    h("core.restart.host_boot_run_s", "s"),
    x("core.restart.bytes_copied", "bytes"),
    x_up("core.restart.pages_shared", "count"),
    // chaos and core.supervisor — chaos_mix_30.
    h("chaos.host_ms_per_chain.p50", "ms"),
    h("chaos.host_ms_per_chain.p90", "ms"),
    x("chaos.crashes", "count"),
    x("chaos.restart_kills", "count"),
    x("chaos.failovers", "count"),
    x("chaos.torn_quarantined", "count"),
    x("chaos.drains_resumed", "count"),
    x("chaos.image_fallbacks", "count"),
    x("chaos.heal_bytes", "bytes"),
    x("core.supervisor.attempts", "count"),
    x("core.supervisor.faults_absorbed", "count"),
    // The ledger itself — every workload. They say whether a `wall_s`
    // difference is resolvable, and what tracing costs: `traced_wall_s`
    // over the untraced `wall_s` of the same workload is the overhead, and
    // `sim_cost_s` must read exactly what the end-to-end pass reads.
    h("ledger.traced_wall_s", "s"),
    x("ledger.sim_cost_s", "sim_s"),
    h("ledger.rep_spread", "ratio"),
    h("ledger.warmup_ratio", "ratio"),
    h("ledger.reps", "count"),
    h("ledger.setup_spread", "ratio"),
    h("ledger.trace_spans", "count"),
];

/// The declared `&'static` name of a per-layer metric. Panics on a name
/// that is not declared: that is a bug in the ledger, not in its input.
pub fn layer_metric(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("per-layer metric {name} is not declared in schema.rs"))
        .name
}

fn metric_json(m: &Metric, bounded: bool) -> String {
    let bound = if bounded {
        format!(", \"bound\": {}", m.bound)
    } else {
        String::new()
    };
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
        m.name,
        m.unit,
        m.better.word()
    )
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let join = |rows: Vec<String>| rows.join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"ledger/Cargo.toml\", \"--\"],\n  \"paths\": [\"ledger\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        join(
            WORKLOADS
                .iter()
                .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
                .collect()
        ),
        join(END_TO_END.iter().map(|m| metric_json(m, true)).collect()),
        join(PER_LAYER.iter().map(|m| metric_json(m, false)).collect()),
    )
}
