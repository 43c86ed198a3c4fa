//! Seeded fault plans: the *policy* half of chaos.
//!
//! A [`ChaosPlan`] is a deterministic schedule of typed faults drawn from
//! a seed: which checkpoint attempt each fault strikes, which rank/node/
//! replica it hits, and at which protocol phase. Plans are structured so
//! the chain always has somewhere to recover *to*: faults land only on
//! odd attempt numbers, so every fault is preceded by a clean, committed
//! checkpoint (attempt `2i` before fault `i` at attempt `2i + 1`).
//!
//! [`ChaosPlan::injector`] compiles the plan into a [`PlanInjector`] —
//! a pure-lookup [`FaultInjector`] the engine polls at every injection
//! point. The same seed and world shape always compile to the same
//! faults, so every chaos run replays bit-for-bit.

use mana_core::chaos::{DrainFault, FaultInjector, InjectPoint, RankFault, RestartPoint};
use mana_sim::rng::splitmix64;
use mana_sim::time::SimDuration;
use std::collections::BTreeMap;
use std::fmt;

/// The shape of the world a plan is drawn against: how many ranks and
/// nodes the job has, how many store replicas back it, and whether the
/// control plane is the per-node tree (the only topology with
/// sub-coordinators to kill).
#[derive(Clone, Copy, Debug, Default)]
pub struct WorldShape {
    /// World size.
    pub nranks: u32,
    /// Compute nodes (block placement: contiguous rank chunks per node).
    pub nodes: u32,
    /// Store replicas behind the session (≥ 1).
    pub replicas: usize,
    /// Whether the coordinator runs the per-node tree topology.
    pub tree: bool,
}

impl WorldShape {
    /// Node of `rank` under block placement.
    pub fn node_of(&self, rank: u32) -> u32 {
        let per = self.nranks.div_ceil(self.nodes.max(1));
        rank / per.max(1)
    }
}

/// One typed failure a plan can schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Gang-crash the job when `rank`'s helper reaches `point`.
    KillRank {
        /// The rank whose helper trips the fault.
        rank: u32,
        /// Protocol phase it fires at.
        point: InjectPoint,
    },
    /// Kill a whole compute node: the first of its ranks to reach
    /// `point` gang-crashes the job (MPI gang semantics make the node's
    /// other ranks die at the same instant anyway).
    KillNode {
        /// The node that loses power.
        node: u32,
        /// Protocol phase it fires at.
        point: InjectPoint,
    },
    /// Kill the node's sub-coordinator daemon mid-agreement. Unlike the
    /// rank faults this one *heals in-flight*: a surviving rank is
    /// promoted, re-registers with the root, and the protocol re-enters
    /// agreement — the checkpoint still commits. Only meaningful under
    /// the tree topology.
    KillSubCoord {
        /// The node whose sub-coordinator dies.
        node: u32,
    },
    /// Crash the writer mid-`put`: `rank`'s image write is torn (only a
    /// `keep_frac` prefix reaches the media) and the rank dies before
    /// reporting completion. Exercises torn-write detection and
    /// quarantine in the crash-consistent store.
    TornPut {
        /// The rank whose write is torn.
        rank: u32,
        /// Fraction of the framed envelope that survives, in `(0, 1)`.
        keep_frac: f64,
    },
    /// Take a store replica down for a whole incarnation, then revive it
    /// and anti-entropy it back in sync. Exercises replica failover on
    /// reads and [`mana_store::ReplicatedStore::heal`].
    ReplicaOutage {
        /// Index of the replica that goes dark.
        replica: usize,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::KillRank { rank, point } => write!(f, "kill-rank {rank} @ {point}"),
            FaultKind::KillNode { node, point } => write!(f, "kill-node {node} @ {point}"),
            FaultKind::KillSubCoord { node } => write!(f, "kill-subcoord node {node}"),
            FaultKind::TornPut { rank, keep_frac } => {
                write!(f, "torn-put rank {rank} (keep {keep_frac:.2})")
            }
            FaultKind::ReplicaOutage { replica } => write!(f, "replica-outage {replica}"),
        }
    }
}

/// One scheduled fault: strike during checkpoint attempt `attempt`.
#[derive(Clone, Copy, Debug)]
pub struct PlannedFault {
    /// Chain-wide checkpoint attempt the fault strikes (always odd).
    pub attempt: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// One scheduled restart-phase fault: kill `rank` at restart-pipeline
/// stage `point` during the chain's `restart_attempt`-th restart.
/// Restart faults are scheduled at *consecutive* attempts starting from
/// 0, so they all land inside the first supervised recovery — the
/// supervisor's retry budget, not luck, is what gets the chain through.
#[derive(Clone, Copy, Debug)]
pub struct PlannedRestartFault {
    /// Chain-wide restart attempt the fault strikes (0-based).
    pub restart_attempt: u64,
    /// The rank killed mid-restart.
    pub rank: u32,
    /// The restart-pipeline stage it dies at.
    pub point: RestartPoint,
}

impl fmt::Display for PlannedRestartFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kill-restart rank {} @ {} (restart attempt {})",
            self.rank, self.point, self.restart_attempt
        )
    }
}

/// One scheduled drain fault: interrupt the tiered store's oldest
/// outstanding async drain at the given checkpoint attempt's epoch
/// boundary. Always paired with a gang-crash at the same attempt, so the
/// interrupted drain is what recovery finds in the ledger.
#[derive(Clone, Copy, Debug)]
pub struct PlannedDrainFault {
    /// Chain-wide checkpoint attempt whose epoch boundary faults.
    pub attempt: u64,
    /// What happens to the oldest outstanding drain.
    pub fault: DrainFault,
}

impl fmt::Display for PlannedDrainFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.fault {
            DrainFault::Torn { keep_frac } => {
                write!(f, "drain-torn (keep {keep_frac:.2})")
            }
            DrainFault::LoseFast => write!(f, "drain-lost (burst tier dies)"),
        }
    }
}

/// A deterministic, seed-derived schedule of faults.
#[derive(Clone, Debug, Default)]
pub struct ChaosPlan {
    /// Seed the plan was drawn from.
    pub seed: u64,
    /// World shape the plan was drawn against.
    pub shape: WorldShape,
    /// The schedule, in attempt order.
    pub faults: Vec<PlannedFault>,
    /// Restart-phase kills, at consecutive restart attempts from 0.
    pub restart_faults: Vec<PlannedRestartFault>,
    /// Async-drain interruptions, each paired with a same-attempt crash
    /// in `faults`.
    pub drain_faults: Vec<PlannedDrainFault>,
}

const POINTS: [InjectPoint; 5] = [
    InjectPoint::Agreement,
    InjectPoint::Bookmark,
    InjectPoint::Drain,
    InjectPoint::Encode,
    InjectPoint::Publish,
];

impl ChaosPlan {
    /// Draw `n_faults` checkpoint-phase faults from `seed` against
    /// `shape` (no restart- or drain-phase faults). Fault `i` strikes
    /// attempt `2i + 1`, so attempt `0` — and every even attempt — is
    /// clean: the chain always has a committed checkpoint older than any
    /// fault.
    pub fn generate(seed: u64, n_faults: usize, shape: WorldShape) -> ChaosPlan {
        ChaosPlan::generate_full(seed, n_faults, 0, 0, shape)
    }

    /// Draw a full-surface plan: `n_faults` checkpoint-phase faults plus
    /// `n_restart` restart-phase kills and `n_drain` async-drain
    /// interruptions.
    ///
    /// Structural guarantees, on top of [`ChaosPlan::generate`]'s
    /// odd-attempt rule:
    ///
    /// * restart faults land at consecutive restart attempts `0..n` —
    ///   all inside the first supervised recovery, so they test the
    ///   retry budget, not scheduling luck. When any are requested the
    ///   plan is forced to contain at least one crash-class checkpoint
    ///   fault (otherwise no restart would ever run);
    /// * each drain fault occupies a fault slot of index ≥ 1 (its
    ///   attempt is ≥ 3, so a fully-drained committed checkpoint exists
    ///   below it) and the slot's checkpoint fault is forced to a
    ///   gang-crash, leaving the interrupted drain in the ledger for
    ///   recovery to find;
    /// * at most one fault is a [`DrainFault::LoseFast`] (it destroys an
    ///   image for good) and it sits at slot index ≥ 2 (attempt ≥ 5), so
    ///   at least two clean committed checkpoints predate the loss.
    pub fn generate_full(
        seed: u64,
        n_faults: usize,
        n_restart: usize,
        n_drain: usize,
        shape: WorldShape,
    ) -> ChaosPlan {
        // Drain faults need enough slots below them; grow the plan
        // rather than silently dropping requested faults.
        let n_faults = if n_drain > 0 {
            n_faults.max(n_drain + 2)
        } else {
            n_faults
        };
        let mut s = splitmix64(seed ^ 0xC4A0_5EED);
        let mut draw = |m: u64| {
            s = splitmix64(s);
            s % m.max(1)
        };
        let mut faults = Vec::with_capacity(n_faults);
        for i in 0..n_faults {
            // Candidate kinds depend on the world: sub-coordinators only
            // exist under the tree topology, replica outages need a
            // surviving replica.
            let mut kinds = 2; // KillRank, TornPut always possible
            if shape.nodes > 1 {
                kinds += 1; // KillNode
            }
            if shape.tree {
                kinds += 1; // KillSubCoord
            }
            if shape.replicas >= 2 {
                kinds += 1; // ReplicaOutage
            }
            let mut pick = draw(kinds);
            let kind = loop {
                match pick {
                    0 => {
                        break FaultKind::KillRank {
                            rank: draw(u64::from(shape.nranks)) as u32,
                            point: POINTS[draw(POINTS.len() as u64) as usize],
                        }
                    }
                    1 => {
                        break FaultKind::TornPut {
                            rank: draw(u64::from(shape.nranks)) as u32,
                            keep_frac: 0.1 + 0.8 * (draw(1000) as f64 / 1000.0),
                        }
                    }
                    2 if shape.nodes > 1 => {
                        break FaultKind::KillNode {
                            node: draw(u64::from(shape.nodes)) as u32,
                            point: POINTS[draw(POINTS.len() as u64) as usize],
                        }
                    }
                    _ if shape.tree && (pick == 2 || pick == 3) => {
                        break FaultKind::KillSubCoord {
                            node: draw(u64::from(shape.nodes)) as u32,
                        }
                    }
                    _ if shape.replicas >= 2 => {
                        break FaultKind::ReplicaOutage {
                            replica: draw(shape.replicas as u64) as usize,
                        }
                    }
                    _ => pick = 0,
                }
            };
            faults.push(PlannedFault {
                attempt: 2 * i as u64 + 1,
                kind,
            });
        }

        // Drain faults ride on slots 1, 2, …: force each host slot to a
        // gang-crash (so the interrupted drain is what recovery finds)
        // and emit the matching drain schedule. The last drain fault of
        // a ≥2 batch is the single allowed LoseFast; everything else is
        // a torn slow-tier write.
        let mut drain_faults = Vec::with_capacity(n_drain);
        for j in 0..n_drain {
            let slot = j + 1;
            let attempt = 2 * slot as u64 + 1;
            let fault = if n_drain >= 2 && j == n_drain - 1 {
                DrainFault::LoseFast
            } else {
                DrainFault::Torn {
                    keep_frac: 0.1 + 0.8 * (draw(1000) as f64 / 1000.0),
                }
            };
            drain_faults.push(PlannedDrainFault { attempt, fault });
            faults[slot] = PlannedFault {
                attempt,
                kind: FaultKind::KillRank {
                    rank: draw(u64::from(shape.nranks)) as u32,
                    point: POINTS[draw(POINTS.len() as u64) as usize],
                },
            };
        }

        // Restart faults land at consecutive restart attempts. They are
        // only reachable if something crashes the job first.
        let mut restart_faults = Vec::with_capacity(n_restart);
        for k in 0..n_restart {
            restart_faults.push(PlannedRestartFault {
                restart_attempt: k as u64,
                rank: draw(u64::from(shape.nranks)) as u32,
                point: RestartPoint::ALL[draw(RestartPoint::ALL.len() as u64) as usize],
            });
        }
        let mut plan = ChaosPlan {
            seed,
            shape,
            faults,
            restart_faults,
            drain_faults,
        };
        if (n_restart > 0 || n_drain > 0) && plan.crash_faults() == 0 {
            // Nothing would ever kill the job: force a crash so the
            // restart/drain machinery actually runs.
            let kind = FaultKind::KillRank {
                rank: draw(u64::from(shape.nranks)) as u32,
                point: POINTS[draw(POINTS.len() as u64) as usize],
            };
            match plan.faults.first_mut() {
                Some(f) => f.kind = kind,
                None => plan.faults.push(PlannedFault { attempt: 1, kind }),
            }
        }
        plan
    }

    /// Checkpoint attempts the chain should schedule so every fault has
    /// its odd attempt — plus one trailing clean attempt after the last
    /// fault, so the chain always ends on a committed checkpoint.
    pub fn total_attempts(&self) -> u64 {
        2 * self.faults.len() as u64 + 1
    }

    /// The replica outages in the plan, in schedule order. The driver
    /// applies these one per incarnation (kill before launch, revive and
    /// heal afterwards) — they model a storage target dark for a whole
    /// job lifetime, not an instant.
    pub fn replica_outages(&self) -> Vec<usize> {
        self.faults
            .iter()
            .filter_map(|f| match f.kind {
                FaultKind::ReplicaOutage { replica } => Some(replica),
                _ => None,
            })
            .collect()
    }

    /// Crash-class faults in the plan (those that kill the job and force
    /// a restart): everything except sub-coordinator failovers and
    /// replica outages, which heal without losing the job.
    pub fn crash_faults(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| {
                matches!(
                    f.kind,
                    FaultKind::KillRank { .. }
                        | FaultKind::KillNode { .. }
                        | FaultKind::TornPut { .. }
                )
            })
            .count()
    }

    /// Compile the plan into a pure-lookup injector for the engine.
    pub fn injector(&self) -> PlanInjector {
        let mut rank_faults = BTreeMap::new();
        let mut subcoords = BTreeMap::new();
        let mut s = splitmix64(self.seed ^ 0x1A7E_0C1E);
        for f in &self.faults {
            match f.kind {
                FaultKind::KillRank { rank, point } => {
                    rank_faults.insert(f.attempt, (Target::Rank(rank), point, RankFault::Crash));
                }
                FaultKind::KillNode { node, point } => {
                    rank_faults.insert(f.attempt, (Target::Node(node), point, RankFault::Crash));
                }
                FaultKind::TornPut { rank, keep_frac } => {
                    rank_faults.insert(
                        f.attempt,
                        (
                            Target::Rank(rank),
                            InjectPoint::Encode,
                            RankFault::TornWrite { keep_frac },
                        ),
                    );
                }
                FaultKind::KillSubCoord { node } => {
                    // Detection + election + re-registration latency.
                    s = splitmix64(s);
                    let ms = 10 + s % 90;
                    subcoords.insert(f.attempt, (node, SimDuration::millis(ms)));
                }
                FaultKind::ReplicaOutage { .. } => {} // driver-side, not in-sim
            }
        }
        PlanInjector {
            shape: self.shape,
            rank_faults,
            subcoords,
            restarts: self
                .restart_faults
                .iter()
                .map(|r| (r.restart_attempt, (r.rank, r.point)))
                .collect(),
            drains: self
                .drain_faults
                .iter()
                .map(|d| (d.attempt, d.fault))
                .collect(),
        }
    }
}

impl fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "plan seed {:#x}: {} faults over {} attempts",
            self.seed,
            self.faults.len(),
            self.total_attempts()
        )?;
        for pf in &self.faults {
            writeln!(f, "  attempt {:>3}: {}", pf.attempt, pf.kind)?;
        }
        for df in &self.drain_faults {
            writeln!(f, "  attempt {:>3}: {df}", df.attempt)?;
        }
        for rf in &self.restart_faults {
            writeln!(f, "  restart {:>3}: {rf}", rf.restart_attempt)?;
        }
        Ok(())
    }
}

#[derive(Clone, Copy, Debug)]
enum Target {
    Rank(u32),
    Node(u32),
}

/// A compiled [`ChaosPlan`]: pure lookups keyed by checkpoint attempt.
#[derive(Debug)]
pub struct PlanInjector {
    shape: WorldShape,
    /// attempt → (who, where, what).
    rank_faults: BTreeMap<u64, (Target, InjectPoint, RankFault)>,
    /// attempt → (node, promotion latency).
    subcoords: BTreeMap<u64, (u32, SimDuration)>,
    /// restart attempt → (rank, stage).
    restarts: BTreeMap<u64, (u32, RestartPoint)>,
    /// checkpoint attempt → drain fault at its epoch boundary.
    drains: BTreeMap<u64, DrainFault>,
}

impl FaultInjector for PlanInjector {
    fn rank_fault(&self, attempt: u64, rank: u32, point: InjectPoint) -> Option<RankFault> {
        let (target, at, fault) = self.rank_faults.get(&attempt)?;
        if *at != point {
            return None;
        }
        let hit = match *target {
            Target::Rank(r) => r == rank,
            Target::Node(n) => self.shape.node_of(rank) == n,
        };
        hit.then_some(*fault)
    }

    fn subcoord_fault(&self, attempt: u64, node: u32) -> Option<SimDuration> {
        let (n, latency) = self.subcoords.get(&attempt)?;
        (*n == node).then_some(*latency)
    }

    fn restart_fault(&self, restart_attempt: u64, rank: u32, point: RestartPoint) -> bool {
        self.restarts.get(&restart_attempt) == Some(&(rank, point))
    }

    fn drain_fault(&self, attempt: u64) -> Option<DrainFault> {
        self.drains.get(&attempt).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> WorldShape {
        WorldShape {
            nranks: 8,
            nodes: 2,
            replicas: 3,
            tree: true,
        }
    }

    #[test]
    fn plans_are_deterministic_and_odd_scheduled() {
        let a = ChaosPlan::generate(42, 6, shape());
        let b = ChaosPlan::generate(42, 6, shape());
        assert_eq!(format!("{a}"), format!("{b}"));
        for (i, f) in a.faults.iter().enumerate() {
            assert_eq!(f.attempt, 2 * i as u64 + 1, "faults strike odd attempts");
        }
        assert_eq!(a.total_attempts(), 13);
        // Different seeds disagree somewhere over a few draws.
        let c = ChaosPlan::generate(43, 6, shape());
        assert_ne!(format!("{a}"), format!("{c}"));
    }

    #[test]
    fn shapes_gate_fault_kinds() {
        // Flat topology, single replica, single node: only rank-level
        // faults can be drawn.
        let narrow = WorldShape {
            nranks: 4,
            nodes: 1,
            replicas: 1,
            tree: false,
        };
        for seed in 0..32 {
            let plan = ChaosPlan::generate(seed, 8, narrow);
            for f in &plan.faults {
                assert!(
                    matches!(
                        f.kind,
                        FaultKind::KillRank { .. } | FaultKind::TornPut { .. }
                    ),
                    "narrow world drew {}",
                    f.kind
                );
                match f.kind {
                    FaultKind::KillRank { rank, .. } | FaultKind::TornPut { rank, .. } => {
                        assert!(rank < 4)
                    }
                    _ => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn injector_matches_plan() {
        let plan = ChaosPlan {
            seed: 7,
            shape: shape(),
            faults: vec![
                PlannedFault {
                    attempt: 1,
                    kind: FaultKind::KillNode {
                        node: 1,
                        point: InjectPoint::Drain,
                    },
                },
                PlannedFault {
                    attempt: 3,
                    kind: FaultKind::KillSubCoord { node: 0 },
                },
            ],
            restart_faults: vec![],
            drain_faults: vec![],
        };
        let inj = plan.injector();
        // Node 1 holds ranks 4..8 under block placement.
        assert_eq!(inj.rank_fault(1, 3, InjectPoint::Drain), None);
        assert_eq!(
            inj.rank_fault(1, 5, InjectPoint::Drain),
            Some(RankFault::Crash)
        );
        assert_eq!(inj.rank_fault(1, 5, InjectPoint::Encode), None);
        assert_eq!(inj.rank_fault(2, 5, InjectPoint::Drain), None);
        assert!(inj.subcoord_fault(3, 0).is_some());
        assert!(inj.subcoord_fault(3, 1).is_none());
        assert!(inj.subcoord_fault(1, 0).is_none());
    }

    #[test]
    fn full_plans_obey_the_structural_guarantees() {
        for seed in 0..64 {
            let plan = ChaosPlan::generate_full(seed, 4, 3, 2, shape());
            // Restart faults at consecutive attempts 0..3.
            assert_eq!(plan.restart_faults.len(), 3);
            for (k, rf) in plan.restart_faults.iter().enumerate() {
                assert_eq!(rf.restart_attempt, k as u64);
                assert!(rf.rank < shape().nranks);
            }
            // Restart faults require at least one crash-class fault.
            assert!(plan.crash_faults() >= 1, "seed {seed}: nothing crashes");
            // Drain faults: slots 1 and 2 (attempts 3 and 5), host slot
            // forced to a gang-crash, exactly one LoseFast at the top.
            assert_eq!(plan.drain_faults.len(), 2);
            assert_eq!(plan.drain_faults[0].attempt, 3);
            assert_eq!(plan.drain_faults[1].attempt, 5);
            assert!(matches!(
                plan.drain_faults[0].fault,
                DrainFault::Torn { .. }
            ));
            assert!(matches!(plan.drain_faults[1].fault, DrainFault::LoseFast));
            for df in &plan.drain_faults {
                let host = plan
                    .faults
                    .iter()
                    .find(|f| f.attempt == df.attempt)
                    .expect("drain fault has a host slot");
                assert!(
                    matches!(host.kind, FaultKind::KillRank { .. }),
                    "seed {seed}: host slot must gang-crash, got {}",
                    host.kind
                );
            }
            // The compiled injector serves all three schedules.
            let inj = plan.injector();
            let rf = plan.restart_faults[0];
            assert!(inj.restart_fault(rf.restart_attempt, rf.rank, rf.point));
            assert!(!inj.restart_fault(17, rf.rank, rf.point));
            assert_eq!(inj.drain_fault(3), Some(plan.drain_faults[0].fault));
            assert_eq!(inj.drain_fault(4), None);
        }
        // Restart faults with zero checkpoint faults still get a crash.
        let plan = ChaosPlan::generate_full(9, 0, 2, 0, shape());
        assert_eq!(plan.crash_faults(), 1);
        // A plain generate is unchanged: no restart/drain schedules.
        let plain = ChaosPlan::generate(42, 6, shape());
        assert!(plain.restart_faults.is_empty() && plain.drain_faults.is_empty());
    }
}
