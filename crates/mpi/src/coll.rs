//! Collective engine: synchronization, data combination, and per-algorithm
//! cost models.
//!
//! Every collective here is *synchronizing*: a rank leaves only after all
//! communicator members have arrived and the modelled algorithm time has
//! elapsed. This is deliberately conservative and matches the property
//! MANA's correctness argument needs: a collective completes for all
//! members or for none, so after a checkpoint either every rank re-executes
//! the collective (nobody saw results) or none does (everybody did) —
//! mirroring Lemma 2 of the paper.
//!
//! The engine is keyed by `(context id, per-communicator sequence number)`;
//! MPI requires all members to issue collectives on a communicator in the
//! same order, so sequence numbers agree across ranks by construction.

use crate::dtype::{reduce_into, BaseType};
use crate::profile::{AllreduceAlgo, BarrierAlgo, BcastAlgo, GatherAlgo, MpiProfile};
use crate::types::ReduceOp;
use mana_net::LinkModel;
use mana_sim::sched::{Sim, SimThread};
use mana_sim::time::{SimDuration, SimTime};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Which collective a rank is arriving for (validated identical across
/// ranks of one slot).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollKind {
    /// Barrier (also used for nonblocking ibarrier arrivals).
    Barrier,
    /// Broadcast from `root` (communicator-local rank).
    Bcast {
        /// Root rank (comm-local).
        root: u32,
    },
    /// Reduce to `root`.
    Reduce {
        /// Root rank (comm-local).
        root: u32,
        /// Combining operation.
        op: ReduceOp,
        /// Element type.
        base: BaseType,
    },
    /// Allreduce.
    Allreduce {
        /// Combining operation.
        op: ReduceOp,
        /// Element type.
        base: BaseType,
    },
    /// Gather to `root`.
    Gather {
        /// Root rank (comm-local).
        root: u32,
    },
    /// Allgather.
    Allgather,
    /// All-to-all personalized exchange.
    Alltoall,
}

/// A rank's data contribution to a collective.
#[derive(Clone, Debug)]
pub enum Contrib {
    /// No data (barrier).
    None,
    /// One buffer (bcast root, reduce, gather, allgather).
    One(Vec<u8>),
    /// One buffer per destination rank (alltoall).
    Parts(Vec<Vec<u8>>),
}

impl Contrib {
    fn bytes(&self) -> u64 {
        match self {
            Contrib::None => 0,
            Contrib::One(v) => v.len() as u64,
            Contrib::Parts(ps) => ps.iter().map(|p| p.len() as u64).sum(),
        }
    }
}

/// The combined outcome of a collective, shared by all members.
#[derive(Clone, Debug, PartialEq)]
pub enum Output {
    /// Barrier: nothing.
    None,
    /// Same bytes for everyone (bcast, reduce, allreduce).
    Same(Vec<u8>),
    /// Full per-rank contribution list (gather, allgather).
    AllParts(Vec<Vec<u8>>),
    /// Element `i` is the list of parts destined for rank `i` (alltoall).
    PerRankParts(Vec<Vec<Vec<u8>>>),
}

struct Slot {
    kind: CollKind,
    size: u32,
    contribs: Vec<Option<Contrib>>,
    arrived: u32,
    taken: u32,
    outcome: Option<(SimTime, Arc<Output>)>,
    waiters: Vec<mana_sim::sched::SimThreadId>,
}

/// Shared collective engine for one job.
pub struct CollEngine {
    sim: Sim,
    link: LinkModel,
    slots: Mutex<HashMap<(u64, u64), Slot>>,
    abort: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl CollEngine {
    /// Build an engine. `link` is the dominant fabric for the job (inter-
    /// node model when the job spans nodes, shared memory otherwise).
    /// `abort` is the job-wide abort flag.
    pub fn new(
        sim: &Sim,
        link: LinkModel,
        abort: std::sync::Arc<std::sync::atomic::AtomicBool>,
    ) -> CollEngine {
        CollEngine {
            sim: sim.clone(),
            link,
            slots: Mutex::new(HashMap::new()),
            abort,
        }
    }

    /// Register `me`'s arrival at collective `(ctx, seq)` with `contrib`.
    /// Nonblocking: completion is observed via [`CollEngine::wait`].
    #[allow(clippy::too_many_arguments)]
    pub fn arrive(
        &self,
        ctx: u64,
        seq: u64,
        me: u32,
        size: u32,
        kind: CollKind,
        contrib: Contrib,
        profile: &MpiProfile,
    ) {
        let mut slots = self.slots.lock();
        let slot = slots.entry((ctx, seq)).or_insert_with(|| Slot {
            kind,
            size,
            contribs: vec![None; size as usize],
            arrived: 0,
            taken: 0,
            outcome: None,
            waiters: Vec::new(),
        });
        assert_eq!(
            slot.kind, kind,
            "mismatched collective at ctx={ctx} seq={seq}: {:?} vs {kind:?}",
            slot.kind
        );
        assert_eq!(slot.size, size, "mismatched communicator size");
        assert!(
            slot.contribs[me as usize].is_none(),
            "rank {me} arrived twice at ctx={ctx} seq={seq}"
        );
        slot.contribs[me as usize] = Some(contrib);
        slot.arrived += 1;
        if slot.arrived == slot.size {
            let max_bytes = slot
                .contribs
                .iter()
                .map(|c| c.as_ref().map_or(0, Contrib::bytes))
                .max()
                .unwrap_or(0);
            let cost = algo_cost(kind, slot.size, max_bytes, &self.link, profile);
            let contribs: Vec<Contrib> = slot
                .contribs
                .iter_mut()
                .map(|c| c.take().expect("full"))
                .collect();
            let out = combine(kind, contribs, slot.size);
            slot.outcome = Some((self.sim.now() + cost, Arc::new(out)));
            let waiters = std::mem::take(&mut slot.waiters);
            drop(slots);
            for w in waiters {
                self.sim.wake(w);
            }
        }
    }

    /// Block until `(ctx, seq)` completes, then return the shared outcome.
    /// Each member must wait exactly once: the last one to leave reclaims
    /// the slot.
    pub fn wait(&self, t: &SimThread, ctx: u64, seq: u64) -> Arc<Output> {
        // Wait for all arrivals.
        let release = loop {
            crate::p2p::abort_point(&self.abort);
            {
                let mut slots = self.slots.lock();
                let slot = slots
                    .get_mut(&(ctx, seq))
                    .expect("waiting on unknown collective");
                if let Some((release, _)) = &slot.outcome {
                    break *release;
                }
                let me = t.id();
                if !slot.waiters.contains(&me) {
                    slot.waiters.push(me);
                }
            }
            t.block();
        };
        // Model the algorithm's communication time.
        let now = t.now();
        if now < release {
            t.advance(release - now);
        }
        let mut slots = self.slots.lock();
        let slot = slots
            .get_mut(&(ctx, seq))
            .expect("taking unknown collective");
        let out = slot
            .outcome
            .as_ref()
            .expect("taking incomplete collective")
            .1
            .clone();
        slot.taken += 1;
        if slot.taken == slot.size {
            slots.remove(&(ctx, seq));
        }
        out
    }

    /// Number of live slots (diagnostics).
    pub fn live_slots(&self) -> usize {
        self.slots.lock().len()
    }
}

fn ceil_log2(p: u32) -> u64 {
    if p <= 1 {
        0
    } else {
        u64::from(32 - (p - 1).leading_zeros())
    }
}

/// Modelled wall time of the collective's communication pattern.
fn algo_cost(
    kind: CollKind,
    p: u32,
    n: u64,
    link: &LinkModel,
    profile: &MpiProfile,
) -> SimDuration {
    let alpha = link.base_latency + link.per_message_cpu;
    let beta = |bytes: u64| SimDuration::nanos((bytes as f64 * link.per_byte_ns).round() as u64);
    // Elementwise combine cost (reductions).
    let gamma = |bytes: u64| SimDuration::nanos((bytes as f64 * 0.25).round() as u64);
    let logp = ceil_log2(p);
    let pm1 = u64::from(p.saturating_sub(1));
    let rounds = |k: u64| SimDuration::nanos(k * alpha.as_nanos());
    match kind {
        CollKind::Barrier => match profile.barrier {
            BarrierAlgo::Dissemination => rounds(logp),
            BarrierAlgo::TreeUpDown => rounds(2 * logp),
        },
        CollKind::Bcast { .. } => match profile.bcast {
            BcastAlgo::Binomial => rounds(logp) + beta(n).mul_f64(logp as f64),
            BcastAlgo::ScatterAllgather => rounds(logp + pm1) + beta(2 * n),
        },
        CollKind::Reduce { .. } => {
            rounds(logp) + beta(n).mul_f64(logp as f64) + gamma(n).mul_f64(logp as f64)
        }
        CollKind::Allreduce { .. } => match profile.allreduce {
            AllreduceAlgo::RecursiveDoubling => {
                rounds(logp) + beta(n).mul_f64(logp as f64) + gamma(n).mul_f64(logp as f64)
            }
            AllreduceAlgo::Ring => {
                rounds(2 * pm1) + beta(2 * n * pm1 / u64::from(p.max(1))) + gamma(n)
            }
        },
        CollKind::Gather { .. } => match profile.gather {
            GatherAlgo::Binomial => rounds(logp) + beta(n * pm1),
            GatherAlgo::Linear => rounds(pm1) + beta(n * pm1),
        },
        CollKind::Allgather => rounds(pm1) + beta(n * pm1),
        CollKind::Alltoall => rounds(pm1) + beta(n * pm1),
    }
}

fn combine(kind: CollKind, contribs: Vec<Contrib>, size: u32) -> Output {
    let one = |c: Contrib| -> Vec<u8> {
        match c {
            Contrib::One(v) => v,
            _ => panic!("expected single-buffer contribution"),
        }
    };
    let parts = |c: Contrib| -> Vec<Vec<u8>> {
        match c {
            Contrib::Parts(p) => p,
            _ => panic!("expected per-rank contribution"),
        }
    };
    match kind {
        CollKind::Barrier => Output::None,
        CollKind::Bcast { root } => {
            let mut it = contribs.into_iter();
            let rootbuf = one(it.nth(root as usize).expect("root contribution"));
            Output::Same(rootbuf)
        }
        CollKind::Reduce { op, base, .. } | CollKind::Allreduce { op, base } => {
            let mut bufs = contribs.into_iter().map(one);
            let mut acc = bufs.next().expect("at least one rank");
            for b in bufs {
                reduce_into(&mut acc, &b, base, op);
            }
            Output::Same(acc)
        }
        CollKind::Gather { .. } | CollKind::Allgather => {
            Output::AllParts(contribs.into_iter().map(one).collect())
        }
        CollKind::Alltoall => {
            let all: Vec<Vec<Vec<u8>>> = contribs.into_iter().map(parts).collect();
            for p in &all {
                assert_eq!(p.len(), size as usize, "alltoall parts != comm size");
            }
            let out: Vec<Vec<Vec<u8>>> = (0..size as usize)
                .map(|i| all.iter().map(|from| from[i].clone()).collect())
                .collect();
            Output::PerRankParts(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mana_sim::sched::SimConfig;

    fn setup() -> (Sim, Arc<CollEngine>, MpiProfile) {
        let sim = Sim::new(SimConfig::default());
        let abort = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let eng = Arc::new(CollEngine::new(&sim, LinkModel::shared_mem(), abort));
        (sim, eng, MpiProfile::cray_mpich())
    }

    #[test]
    fn barrier_synchronizes() {
        let (sim, eng, prof) = setup();
        let exits = Arc::new(Mutex::new(Vec::new()));
        for r in 0..4u32 {
            let (eng, prof, exits) = (eng.clone(), prof.clone(), exits.clone());
            sim.spawn(&format!("r{r}"), false, move |t| {
                t.advance(SimDuration::nanos(u64::from(r) * 100));
                eng.arrive(1, 0, r, 4, CollKind::Barrier, Contrib::None, &prof);
                eng.wait(&t, 1, 0);
                exits.lock().push(t.now().as_nanos());
            });
        }
        sim.run();
        let exits = exits.lock().clone();
        // All exit at the same time, at or after the last arrival (300ns).
        assert!(exits.iter().all(|e| *e == exits[0]));
        assert!(exits[0] >= 300);
        assert_eq!(eng.live_slots(), 0);
    }

    #[test]
    fn allreduce_sums() {
        let (sim, eng, prof) = setup();
        let results = Arc::new(Mutex::new(Vec::new()));
        for r in 0..3u32 {
            let (eng, prof, results) = (eng.clone(), prof.clone(), results.clone());
            sim.spawn(&format!("r{r}"), false, move |t| {
                let contrib = (f64::from(r) + 1.0).to_le_bytes().to_vec();
                eng.arrive(
                    1,
                    0,
                    r,
                    3,
                    CollKind::Allreduce {
                        op: ReduceOp::Sum,
                        base: BaseType::Double,
                    },
                    Contrib::One(contrib),
                    &prof,
                );
                let out = eng.wait(&t, 1, 0);
                if let Output::Same(v) = &*out {
                    results
                        .lock()
                        .push(f64::from_le_bytes(v.as_slice().try_into().unwrap()));
                }
            });
        }
        sim.run();
        assert_eq!(results.lock().clone(), vec![6.0, 6.0, 6.0]);
    }

    #[test]
    fn alltoall_routes_parts() {
        let (sim, eng, prof) = setup();
        let results = Arc::new(Mutex::new(vec![Vec::new(), Vec::new()]));
        for r in 0..2u32 {
            let (eng, prof, results) = (eng.clone(), prof.clone(), results.clone());
            sim.spawn(&format!("r{r}"), false, move |t| {
                let parts = vec![vec![r as u8, 0], vec![r as u8, 1]];
                eng.arrive(7, 0, r, 2, CollKind::Alltoall, Contrib::Parts(parts), &prof);
                let out = eng.wait(&t, 7, 0);
                if let Output::PerRankParts(all) = &*out {
                    results.lock()[r as usize] = all[r as usize].clone();
                }
            });
        }
        sim.run();
        let results = results.lock().clone();
        // Rank 0 receives part 0 from each sender.
        assert_eq!(results[0], vec![vec![0u8, 0], vec![1, 0]]);
        assert_eq!(results[1], vec![vec![0u8, 1], vec![1, 1]]);
    }

    #[test]
    fn bcast_delivers_root_data() {
        let (sim, eng, prof) = setup();
        let results = Arc::new(Mutex::new(Vec::new()));
        for r in 0..3u32 {
            let (eng, prof, results) = (eng.clone(), prof.clone(), results.clone());
            sim.spawn(&format!("r{r}"), false, move |t| {
                let contrib = if r == 1 {
                    Contrib::One(vec![42, 43])
                } else {
                    Contrib::One(Vec::new())
                };
                eng.arrive(1, 5, r, 3, CollKind::Bcast { root: 1 }, contrib, &prof);
                let out = eng.wait(&t, 1, 5);
                if let Output::Same(v) = &*out {
                    results.lock().push(v.clone());
                }
            });
        }
        sim.run();
        assert_eq!(results.lock().clone(), vec![vec![42, 43]; 3]);
    }

    #[test]
    fn cost_scales_with_ranks_and_bytes() {
        let prof = MpiProfile::cray_mpich();
        let link = LinkModel::aries();
        let c2 = algo_cost(
            CollKind::Allreduce {
                op: ReduceOp::Sum,
                base: BaseType::Double,
            },
            2,
            1024,
            &link,
            &prof,
        );
        let c64 = algo_cost(
            CollKind::Allreduce {
                op: ReduceOp::Sum,
                base: BaseType::Double,
            },
            64,
            1024,
            &link,
            &prof,
        );
        assert!(c64 > c2);
        let big = algo_cost(
            CollKind::Allreduce {
                op: ReduceOp::Sum,
                base: BaseType::Double,
            },
            64,
            1 << 20,
            &link,
            &prof,
        );
        assert!(big.as_nanos() > 10 * c64.as_nanos());
    }

    #[test]
    fn single_rank_collectives_are_cheap() {
        let prof = MpiProfile::mpich();
        let link = LinkModel::shared_mem();
        assert_eq!(
            algo_cost(CollKind::Barrier, 1, 0, &link, &prof),
            SimDuration::ZERO
        );
        let c = algo_cost(CollKind::Allgather, 1, 1 << 20, &link, &prof);
        assert_eq!(c, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "mismatched collective")]
    fn kind_mismatch_detected() {
        let (sim, eng, prof) = setup();
        for r in 0..2u32 {
            let (eng, prof) = (eng.clone(), prof.clone());
            sim.spawn(&format!("r{r}"), false, move |t| {
                let kind = if r == 0 {
                    CollKind::Barrier
                } else {
                    CollKind::Allgather
                };
                let contrib = if r == 0 {
                    Contrib::None
                } else {
                    Contrib::One(vec![])
                };
                eng.arrive(1, 0, r, 2, kind, contrib, &prof);
                eng.wait(&t, 1, 0);
            });
        }
        sim.run();
    }
}
