//! Record-log compaction: prune dead derivation subtrees before the log
//! is written into a checkpoint image.
//!
//! MANA's restart replays every logged state-mutating call, so for
//! communicator-churning applications the log — and restart time — grows
//! without bound over the job's life. Most of that log is dead weight: a
//! `CommFree` cancels its creation entry, and whole dup/derive chains
//! whose every descendant has been freed contribute nothing to the state
//! a restart must rebuild. The [`LogCompactor`] elides them and emits an
//! explicit [rebind map](RebindEntry) naming, for every virtual id, which
//! retained entry (or the fresh world communicator) binds it at replay —
//! replacing the old reliance on issue-order coincidence and giving the
//! restart engine something to *verify* replay against.
//!
//! # Cross-rank consistency
//!
//! Replay of communicator creation is collective (every member of the
//! parent re-executes the call through the fresh library), so per-rank
//! compaction must make the **same elision decision on every
//! participating rank** or replay deadlocks. The rules below guarantee
//! this without any cross-rank communication:
//!
//! * **Group and datatype entries replay locally** — groups are rebuilt
//!   from recorded membership (against the world group), datatypes from
//!   recorded definitions — so they may be elided freely when dead.
//! * **`CommDup` / `CartCreate` results have exactly their parent's
//!   membership**, and MPI requires communicators to be freed
//!   collectively; every participant therefore sees the same liveness and
//!   the same retained dependents, and these entries are elided when
//!   their whole derivation subtree is dead.
//! * **`CommSplit` is retained unconditionally** (it is the one *anchor*
//!   of the derivation forest): its result has partial membership, so
//!   non-members — whose burned/null results are never freed — could not
//!   agree with members about elision. Its `CommFree`s are retained with
//!   it, so replay still converges to the live set.
//! * **Frees must be *settled*** before they can cancel a collective
//!   entry. `MPI_Comm_free` is a local call, so a checkpoint landing
//!   mid-step can catch rank A *after* its free and rank B *before* it —
//!   A's image must not elide a dup B's image retains. A free is settled
//!   once a *later* world-participant collective creation appears in the
//!   log: completing a wrapped collective proves (via the two-phase
//!   trivial barrier) that every rank entered it, hence completed every
//!   program-order-earlier operation, including its copy of the free.
//!   Unsettled tail frees — at most the entries since the last logged
//!   world collective — are retained along with their creations.
//!
//! Dependents keep their providers alive: a retained entry's parent
//! communicator, source group, or inner datatype creation is retained
//! too. Since a dup's dependents are visible to exactly the dup's
//! membership (which equals its parent's), retention decisions stay
//! uniform across every rank that would participate in the replayed
//! call.

use crate::record::LoggedCall;
use std::collections::{BTreeSet, HashMap};

/// Where a virtual id's real handle comes from at restart.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BindSource {
    /// Bound to the fresh lower half's world communicator.
    World,
    /// Bound by replaying the retained log entry at this index (an index
    /// into the *compacted* log).
    Created {
        /// Index of the creating entry in the compacted log.
        index: u32,
    },
}

/// One rebind-map entry: a virtual id and where its binding comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RebindEntry {
    /// The virtual id.
    pub virt: u64,
    /// Its binding source.
    pub source: BindSource,
}

/// What the compactor did to one log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Entries in the input log.
    pub recorded: usize,
    /// Entries surviving compaction.
    pub retained: usize,
}

impl CompactionStats {
    /// Entries elided.
    pub fn elided(&self) -> usize {
        self.recorded - self.retained
    }
}

/// A compacted log plus its rebind map.
#[derive(Clone, Debug, Default)]
pub struct CompactedLog {
    /// Retained entries, in recorded order.
    pub entries: Vec<LoggedCall>,
    /// Explicit virtual-id rebind map (world + every retained creation).
    pub rebind: Vec<RebindEntry>,
    /// What was elided.
    pub stats: CompactionStats,
}

/// The live virtual ids at checkpoint time (what the image carries in its
/// `comms`/`groups`/`dtypes` tables, including burned/null comm ids).
#[derive(Clone, Debug, Default)]
pub struct LiveSet {
    virts: BTreeSet<u64>,
}

impl LiveSet {
    /// Build from the three live-id tables.
    pub fn new(
        comms: impl IntoIterator<Item = u64>,
        groups: impl IntoIterator<Item = u64>,
        dtypes: impl IntoIterator<Item = u64>,
    ) -> LiveSet {
        let mut virts = BTreeSet::new();
        virts.extend(comms);
        virts.extend(groups);
        virts.extend(dtypes);
        LiveSet { virts }
    }

    /// Is `virt` live?
    pub fn contains(&self, virt: u64) -> bool {
        self.virts.contains(&virt)
    }
}

/// Virtual ids a replayed entry needs bound before it runs.
fn inputs(c: &LoggedCall) -> Vec<u64> {
    match c {
        LoggedCall::CommDup { parent, .. }
        | LoggedCall::CommSplit { parent, .. }
        | LoggedCall::CartCreate { parent, .. } => vec![*parent],
        LoggedCall::GroupIncl { group, .. } => vec![*group],
        LoggedCall::TypeContiguous { inner, .. } => vec![*inner],
        // Group contents were recorded, so replay rebuilds the group from
        // the world group — no dependency on the source communicator.
        LoggedCall::CommGroup { .. }
        | LoggedCall::TypeBase { .. }
        | LoggedCall::CommFree { .. }
        | LoggedCall::GroupFree { .. }
        | LoggedCall::TypeFree { .. } => Vec::new(),
    }
}

/// Entries that must survive compaction regardless of liveness because
/// their replay collectives have partial membership (see module docs).
fn is_anchor(c: &LoggedCall) -> bool {
    matches!(c, LoggedCall::CommSplit { .. })
}

/// Entries whose replay is a blocking collective over the parent's
/// members — the class whose elision needs cross-rank agreement.
fn is_collective_creation(c: &LoggedCall) -> bool {
    matches!(
        c,
        LoggedCall::CommDup { .. } | LoggedCall::CommSplit { .. } | LoggedCall::CartCreate { .. }
    )
}

/// Parent communicator of a collective creation entry.
fn collective_parent(c: &LoggedCall) -> Option<u64> {
    match c {
        LoggedCall::CommDup { parent, .. }
        | LoggedCall::CommSplit { parent, .. }
        | LoggedCall::CartCreate { parent, .. } => Some(*parent),
        _ => None,
    }
}

/// The record-log compactor (see module docs for the elision rules).
#[derive(Clone, Copy, Debug, Default)]
pub struct LogCompactor;

impl LogCompactor {
    /// Compact `entries`, keeping exactly what a restart needs to rebuild
    /// `live` (plus the collective anchors and the unsettled tail), and
    /// derive the rebind map.
    pub fn compact(world_virt: u64, entries: &[LoggedCall], live: &LiveSet) -> CompactedLog {
        let n = entries.len();
        // Creator of each virt (virtual ids are never reused), and where
        // each virt was freed.
        let mut creator: HashMap<u64, usize> = HashMap::new();
        let mut freed_at: HashMap<u64, usize> = HashMap::new();
        for (i, e) in entries.iter().enumerate() {
            if let Some(v) = e.created_virt() {
                creator.insert(v, i);
            }
            if let Some(v) = e.freed_virt() {
                freed_at.insert(v, i);
            }
        }
        // Settlement boundary: the last world-participant collective
        // creation. Frees before it are proven completed on every rank
        // (see module docs); frees after it might have raced a mid-step
        // checkpoint on other ranks, so the chains they kill must stay.
        let boundary = entries
            .iter()
            .rposition(|e| is_collective_creation(e) && collective_parent(e) == Some(world_virt));
        let free_settled = |v: u64| -> bool {
            match (freed_at.get(&v), boundary) {
                (Some(f), Some(b)) => *f < b,
                _ => false,
            }
        };
        // Reverse pass: retain creations whose result is live, whose free
        // is unsettled (collective creations only — local classes carry no
        // cross-rank replay constraint), or which a retained later entry
        // needs; plus every anchor. Frees are decided in a second pass
        // (they follow their creation's fate).
        let mut retained = vec![false; n];
        let mut needed: BTreeSet<u64> = BTreeSet::new();
        for (i, e) in entries.iter().enumerate().rev() {
            if e.freed_virt().is_some() {
                continue;
            }
            let keep = is_anchor(e)
                || e.created_virt().is_some_and(|v| {
                    live.contains(v)
                        || needed.contains(&v)
                        || (is_collective_creation(e) && !free_settled(v))
                });
            if keep {
                retained[i] = true;
                needed.extend(inputs(e));
            }
        }
        for (i, e) in entries.iter().enumerate() {
            if let Some(v) = e.freed_virt() {
                // A free survives iff its creation does: a replayed
                // retained-but-dead creation must be freed again, and an
                // elided creation leaves nothing to free. A free with no
                // in-log creation (impossible for well-formed logs) is
                // dropped — replay could only abort on it.
                retained[i] = creator.get(&v).is_some_and(|ci| retained[*ci]);
            }
        }
        let compacted: Vec<LoggedCall> = entries
            .iter()
            .zip(&retained)
            .filter(|(_, keep)| **keep)
            .map(|(e, _)| e.clone())
            .collect();
        let mut out = CompactedLog {
            rebind: derive_rebind(world_virt, &compacted),
            stats: CompactionStats {
                recorded: n,
                retained: compacted.len(),
            },
            entries: compacted,
        };
        // Deterministic map order (virt ids are unique).
        out.rebind.sort_by_key(|r| r.virt);
        out
    }

    /// The compactor-off path: the full log with its rebind map derived —
    /// same verified-replay contract, no elision.
    pub fn passthrough(world_virt: u64, entries: &[LoggedCall]) -> CompactedLog {
        let mut rebind = derive_rebind(world_virt, entries);
        rebind.sort_by_key(|r| r.virt);
        CompactedLog {
            entries: entries.to_vec(),
            rebind,
            stats: CompactionStats {
                recorded: entries.len(),
                retained: entries.len(),
            },
        }
    }
}

/// Derive the rebind map for a log as stored: world plus one entry per
/// created virtual id, pointing at its creating index.
pub fn derive_rebind(world_virt: u64, entries: &[LoggedCall]) -> Vec<RebindEntry> {
    let mut map: HashMap<u64, u32> = HashMap::new();
    for (i, e) in entries.iter().enumerate() {
        if let Some(v) = e.created_virt() {
            map.insert(v, i as u32);
        }
    }
    let mut out: Vec<RebindEntry> = map
        .into_iter()
        .map(|(virt, index)| RebindEntry {
            virt,
            source: BindSource::Created { index },
        })
        .collect();
    out.push(RebindEntry {
        virt: world_virt,
        source: BindSource::World,
    });
    out.sort_by_key(|r| r.virt);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mana_mpi::BaseType;

    const WORLD: u64 = 0x1000_0000;

    fn dup(parent: u64, result: u64) -> LoggedCall {
        LoggedCall::CommDup { parent, result }
    }
    fn free(comm: u64) -> LoggedCall {
        LoggedCall::CommFree { comm }
    }

    fn compact(entries: &[LoggedCall], live: &[u64]) -> CompactedLog {
        LogCompactor::compact(
            WORLD,
            entries,
            &LiveSet::new(
                live.iter().copied().chain([WORLD]),
                std::iter::empty(),
                std::iter::empty(),
            ),
        )
    }

    #[test]
    fn dead_dup_free_pair_elided_once_settled() {
        // A later world collective (the live dup) settles the free, so the
        // dead pair elides.
        let a = 0x1000_0001;
        let keep = 0x1000_0002;
        let log = vec![dup(WORLD, a), free(a), dup(WORLD, keep)];
        let c = compact(&log, &[keep]);
        assert_eq!(c.entries, vec![dup(WORLD, keep)]);
        assert_eq!(c.stats.elided(), 2);
        assert!(c.rebind.contains(&RebindEntry {
            virt: WORLD,
            source: BindSource::World
        }));
        assert!(c.rebind.contains(&RebindEntry {
            virt: keep,
            source: BindSource::Created { index: 0 }
        }));
    }

    #[test]
    fn unsettled_tail_free_keeps_its_creation() {
        // No world collective after the free: another rank's checkpoint
        // may have caught the (local) free incomplete, so the dup must be
        // retained on every rank — elision here would deadlock replay.
        let a = 0x1000_0001;
        let log = vec![dup(WORLD, a), free(a)];
        let c = compact(&log, &[]);
        assert_eq!(c.entries, log, "tail free is not settled");
    }

    #[test]
    fn dead_chain_elided_but_needed_parents_kept() {
        // world -> dup A -> dup B (live); A freed. A must survive because
        // B's replay needs it bound.
        let a = 0x1000_0001;
        let b = 0x1000_0002;
        let log = vec![dup(WORLD, a), dup(a, b), free(a)];
        let c = compact(&log, &[b]);
        assert_eq!(c.entries, log, "A is dead but needed by live B");

        // Once B dies too (and a later world collective settles both
        // frees), the whole subtree goes.
        let keep = 0x1000_0003;
        let log2 = vec![dup(WORLD, a), dup(a, b), free(a), free(b), dup(WORLD, keep)];
        let c2 = compact(&log2, &[keep]);
        assert_eq!(c2.entries, vec![dup(WORLD, keep)]);
    }

    #[test]
    fn splits_are_anchors() {
        let s = 0x1000_0001;
        let log = vec![
            LoggedCall::CommSplit {
                parent: WORLD,
                color: 0,
                key: 0,
                result: s,
            },
            free(s),
        ];
        let c = compact(&log, &[]);
        assert_eq!(c.entries, log, "dead split stays (partial membership)");
    }

    #[test]
    fn group_with_members_does_not_pin_its_comm() {
        // dup A, take its group (members recorded), free A (settled by a
        // later world dup): the group replays locally, so A's dup+free
        // elide while the group entry survives.
        let a = 0x1000_0001;
        let keep = 0x1000_0002;
        let g = 0x2000_0000;
        let cg = LoggedCall::CommGroup {
            comm: a,
            members: vec![0, 1, 2],
            result: g,
        };
        let log = vec![dup(WORLD, a), cg.clone(), free(a), dup(WORLD, keep)];
        let c = LogCompactor::compact(
            WORLD,
            &log,
            &LiveSet::new([WORLD, keep], [g], std::iter::empty()),
        );
        assert_eq!(c.entries, vec![cg, dup(WORLD, keep)]);
    }

    #[test]
    fn dead_dtype_chain_elided() {
        let tb = 0x3000_0000;
        let tc = 0x3000_0001;
        let log = vec![
            LoggedCall::TypeBase {
                base: BaseType::Double,
                result: tb,
            },
            LoggedCall::TypeContiguous {
                count: 4,
                inner: tb,
                result: tc,
            },
            LoggedCall::TypeFree { dtype: tc },
            LoggedCall::TypeFree { dtype: tb },
        ];
        let c = compact(&log, &[]);
        assert!(c.entries.is_empty());

        // Inner type live through the derived one.
        let live = LiveSet::new(std::iter::empty(), std::iter::empty(), [tc]);
        let c = LogCompactor::compact(WORLD, &log[..2], &live);
        assert_eq!(c.entries.len(), 2, "tc live keeps tb (its inner) too");
    }

    #[test]
    fn passthrough_preserves_everything_and_maps_it() {
        let log = vec![dup(WORLD, 0x1000_0001), free(0x1000_0001)];
        let c = LogCompactor::passthrough(WORLD, &log);
        assert_eq!(c.entries, log);
        assert_eq!(c.stats.elided(), 0);
        assert!(c
            .rebind
            .iter()
            .any(|r| r.virt == 0x1000_0001 && r.source == BindSource::Created { index: 0 }));
    }

    #[test]
    fn compaction_is_idempotent_under_append() {
        // compact(compact(L) + N) == compact(L + N): removal decisions are
        // monotone (appended entries cannot reference freed ids), which is
        // what makes post-restart re-compaction converge to the same log a
        // never-compacted run would produce.
        let a = 0x1000_0001;
        let b = 0x1000_0002;
        let g = 0x2000_0000;
        let keep = 0x1000_0003;
        let l: Vec<LoggedCall> = vec![
            dup(WORLD, a),
            LoggedCall::CommGroup {
                comm: WORLD,
                members: vec![0, 1],
                result: g,
            },
            dup(a, b),
            free(a),
        ];
        let n: Vec<LoggedCall> = vec![
            free(b),
            LoggedCall::GroupFree { group: g },
            dup(WORLD, keep),
        ];
        let live_mid = LiveSet::new([WORLD, b], [g], std::iter::empty());
        let live_end = LiveSet::new([WORLD, keep], std::iter::empty(), std::iter::empty());

        let once = {
            let mut all = l.clone();
            all.extend(n.clone());
            LogCompactor::compact(WORLD, &all, &live_end)
        };
        let twice = {
            let mid = LogCompactor::compact(WORLD, &l, &live_mid);
            let mut all = mid.entries;
            all.extend(n);
            LogCompactor::compact(WORLD, &all, &live_end)
        };
        assert_eq!(once.entries, twice.entries);
        assert_eq!(once.rebind, twice.rebind);
    }
}
