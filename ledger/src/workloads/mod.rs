//! The six workloads. Each one builds its inputs from the seed alone, runs
//! one repetition at a time (closed loop, one generator thread) and checks
//! its own oracle; the harness in `main.rs` owns the clock budget.

pub mod chaos;
pub mod ckpt;
pub mod migrate;
pub mod steady;
pub mod store;

use crate::host::Affinity;
use crate::span::Span;
use mana_sim::rng::splitmix64;
use std::collections::BTreeMap;

/// What one repetition reports back.
#[derive(Clone, Copy, Debug)]
pub struct Rep {
    /// Host seconds of the timed region (the oracle's own work excluded).
    pub wall_s: f64,
    /// The workload's figure on the simulated clock — see `sim_cost_s` in
    /// `schema.rs`. Deterministic: every rep of one run must agree.
    pub sim_cost_s: f64,
    /// Operations attempted (1, or the chain count for chaos).
    pub attempted: u64,
    /// Operations whose oracle failed.
    pub failed: u64,
}

/// What the traced pass hands a workload when it asks for layer metrics.
pub struct Trace<'a> {
    /// Every span of the run, in opening order.
    pub spans: &'a [Span],
    /// Timed (not warm-up) repetitions of the run.
    pub reps: &'a [Rep],
    /// The process's affinity, for probes that compare pinned to unpinned.
    pub affinity: &'a Affinity,
}

/// One benchmark workload.
pub trait Workload {
    /// Whether the process pins itself to one CPU (everything that boots a
    /// `Sim`); the store workloads have no simulated threads and keep every
    /// CPU they were given, so a parallel digest path can show a gain.
    fn pinned(&self) -> bool;

    /// Build the inputs from scratch: everything a first repetition needs.
    /// Called several times per run; each call discards the previous state.
    fn set_up(&mut self);

    /// Run one repetition and check its oracle.
    fn rep(&mut self) -> Rep;

    /// Per-layer metrics of this workload (traced pass only); metrics of
    /// layers that are idle here are left out and read 0.
    fn layers(&mut self, trace: &Trace<'_>) -> Vec<(&'static str, f64)>;
}

/// Instantiate a workload by name.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "steady_hpcg_64" => Box::new(steady::Steady::new(seed)),
        "ckpt_gromacs_64" => Box::new(ckpt::Ckpt::new(seed)),
        "migrate_lulesh_125" => Box::new(migrate::Migrate::new(seed)),
        "store_put_32m" => Box::new(store::Put::new(seed)),
        "store_get_32m" => Box::new(store::Get::new(seed)),
        "chaos_mix_30" => Box::new(chaos::Chaos::new(seed)),
        _ => return None,
    })
}

/// A seed-derived value in `0..modulo`, decorrelated per use by `salt`.
pub fn seeded(seed: u64, salt: u64, modulo: u64) -> u64 {
    splitmix64(seed ^ splitmix64(salt)) % modulo
}

/// Oracle shared by the three session workloads: the run under test ended
/// on exactly the reference's per-rank checksums (and there is something to
/// compare).
pub fn same_checksums(reference: &BTreeMap<u32, u64>, got: &BTreeMap<u32, u64>) -> bool {
    !reference.is_empty() && reference == got
}

/// Spans of one layer/op, grouped by repetition (warm-up and set-up, rep 0,
/// excluded).
pub fn by_rep<'a>(spans: &'a [Span], layer: &str, op: &str) -> BTreeMap<u32, Vec<&'a Span>> {
    let mut m: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if s.rep > 0 && s.layer == layer && s.op == op {
            m.entry(s.rep).or_default().push(s);
        }
    }
    m
}

/// Median over repetitions of a per-repetition figure.
pub fn median_over_reps<'a>(
    groups: &BTreeMap<u32, Vec<&'a Span>>,
    per_rep: impl Fn(&[&'a Span]) -> f64,
) -> f64 {
    let v: Vec<f64> = groups.values().map(|g| per_rep(g)).collect();
    crate::stats::median(&v)
}
