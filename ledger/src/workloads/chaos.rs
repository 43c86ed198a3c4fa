//! `chaos_mix_30` — recovery as users meet it: 30 seeded fault chains per
//! rep, each with 3 checkpoint-phase faults and 2 restart-phase kills, plus
//! 2 drain faults on even chain seeds (the `fig_chaos` smoke mix: 4 ranks on
//! 2 nodes, tree topology, 2 replicas, tiered → journal → replicated store).
//!
//! `core.supervisor`, `mana-chaos` and the maintenance paths of the tiered,
//! journaled and replicated stores do the work, over many tiny `Sim` boots —
//! spawn/teardown cost rather than steady hand-off. Thirty chains cover each
//! of the five applications and both drain settings three times, whatever
//! the seed. This is the workload on which `failed` can actually move.

use super::{Rep, Trace, Workload};
use crate::span;
use mana_chaos::{ChaosHarness, ChaosReport};
use std::time::Instant;

const CHAINS: u64 = 30;

/// The memento property, per chain.
pub fn healed(report: &ChaosReport) -> bool {
    report.healed()
}

/// See the module docs.
pub struct Chaos {
    seed: u64,
    /// Host ms of every chain of every timed rep.
    chain_ms: Vec<f64>,
    /// Reports of the most recent rep.
    last: Vec<ChaosReport>,
}

impl Chaos {
    /// Inputs for `seed`.
    pub fn new(seed: u64) -> Chaos {
        Chaos {
            seed,
            chain_ms: Vec::new(),
            last: Vec::new(),
        }
    }
}

impl Workload for Chaos {
    fn pinned(&self) -> bool {
        true
    }

    fn set_up(&mut self) {
        // Chains are self-contained; everything a rep needs is the seed.
        *self = Chaos::new(self.seed);
    }

    fn rep(&mut self) -> Rep {
        self.last.clear();
        let t0 = Instant::now();
        for i in 0..CHAINS {
            let chain_seed = self.seed * 1000 + i;
            let mut h = ChaosHarness::new(chain_seed, 3);
            h.restart_faults = 2;
            h.drain_faults = if chain_seed.is_multiple_of(2) { 2 } else { 0 };
            let t = Instant::now();
            let report = {
                let _s = span::open("chaos", "chain");
                h.run()
            };
            self.chain_ms.push(t.elapsed().as_secs_f64() * 1e3);
            self.last.push(report);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        // Backoff downtime per chain that needed recovery. Which chains
        // crash at all is the plan's draw, so the plain sum over chains
        // would mostly measure the seed.
        let downtime_s: f64 = self
            .last
            .iter()
            .map(|r| r.supervisor.total_downtime.as_secs_f64())
            .sum();
        let recovered = self
            .last
            .iter()
            .filter(|r| r.supervisor.attempts > 0)
            .count();
        Rep {
            wall_s,
            sim_cost_s: downtime_s / recovered.max(1) as f64,
            attempted: CHAINS,
            failed: self.last.iter().filter(|r| !healed(r)).count() as u64,
        }
    }

    fn layers(&mut self, trace: &Trace<'_>) -> Vec<(&'static str, f64)> {
        let timed = trace.reps.len() * CHAINS as usize;
        let chains = &self.chain_ms[self.chain_ms.len().saturating_sub(timed)..];
        let Some(ms) = crate::stats::summarize(chains) else {
            return Vec::new();
        };
        let sum = |f: &dyn Fn(&ChaosReport) -> usize| self.last.iter().map(f).sum::<usize>() as f64;
        vec![
            ("chaos.host_ms_per_chain.p50", ms.median),
            // Nearest-rank p90 once a run has 100 chains; the maximum before.
            ("chaos.host_ms_per_chain.p90", ms.p90.unwrap_or(ms.max)),
            ("chaos.crashes", sum(&|r| r.crashes.len())),
            ("chaos.restart_kills", sum(&|r| r.restart_crashes.len())),
            ("chaos.failovers", sum(&|r| r.failovers.len())),
            ("chaos.torn_quarantined", sum(&|r| r.quarantined.len())),
            ("chaos.drains_resumed", sum(&|r| r.drains_resumed.len())),
            ("chaos.image_fallbacks", sum(&|r| r.image_fallbacks())),
            (
                "chaos.heal_bytes",
                sum(&|r| r.heals.iter().map(|(_, h)| h.bytes as usize).sum()),
            ),
            (
                "core.supervisor.attempts",
                sum(&|r| r.supervisor.attempts as usize),
            ),
            (
                "core.supervisor.faults_absorbed",
                sum(&|r| r.supervisor.faults_absorbed as usize),
            ),
        ]
    }
}
