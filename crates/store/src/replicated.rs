//! Replicated checkpoint storage.
//!
//! A checkpoint that outlives clusters should also outlive a storage
//! target: [`ReplicatedStore`] keeps N replicas, acknowledges a `put`
//! when a write quorum has it (charging the slowest write *of the
//! quorum*, not of all replicas), and serves `get` by failing over past
//! dead, missing, torn or corrupt replicas, paying a probe timeout for
//! each. A replica is down exactly while [`ReplicatedStore::kill_replica`]
//! holds it down, until [`ReplicatedStore::revive`]: the fault model that
//! drives outages (`mana_chaos::ChaosPlan`) lives outside the store.
//! [`maintain`](CheckpointStore::maintain) maintains every replica's own
//! stack, then brings each replica back in sync by anti-entropy
//! ([`ReplicatedStore::heal`]).

use mana_core::error::StoreError;
use mana_core::image::ImageBytes;
use mana_core::store::{CheckpointStore, HealReport, Maintenance};
use mana_sim::fs::IoShape;
use mana_sim::time::SimDuration;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Replication parameters.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// Replicas that must acknowledge a write before `put` returns: 1 up
    /// to the replica count, which [`ReplicatedStore::new`] checks. While
    /// replicas are down a `put` waits for at most the live ones, since a
    /// put cannot fail yet.
    pub write_quorum: usize,
    /// Cost of probing one replica that cannot serve a read (connect
    /// timeout + retry against the next replica).
    pub failover_latency: SimDuration,
}

impl Default for ReplicaConfig {
    fn default() -> ReplicaConfig {
        ReplicaConfig {
            write_quorum: 2,
            failover_latency: SimDuration::millis(500),
        }
    }
}

/// N-way replicated store over heterogeneous (or identical) backends.
pub struct ReplicatedStore {
    cfg: ReplicaConfig,
    replicas: Vec<Arc<dyn CheckpointStore>>,
    /// Replicas held down by [`ReplicatedStore::kill_replica`].
    down: Mutex<BTreeSet<usize>>,
}

impl ReplicatedStore {
    /// Replicate across `replicas` (at least one), with a write quorum of
    /// 1 up to their number.
    pub fn new(cfg: ReplicaConfig, replicas: Vec<Arc<dyn CheckpointStore>>) -> ReplicatedStore {
        assert!(!replicas.is_empty(), "at least one replica required");
        assert!(
            (1..=replicas.len()).contains(&cfg.write_quorum),
            "write quorum {} outside 1..={} replicas",
            cfg.write_quorum,
            replicas.len()
        );
        ReplicatedStore {
            cfg,
            replicas,
            down: Mutex::new(BTreeSet::new()),
        }
    }

    /// Replicate across `n` stores built by `make` (e.g. `n` independent
    /// filesystems).
    pub fn with_replicas<S: CheckpointStore + 'static>(
        cfg: ReplicaConfig,
        n: usize,
        make: impl Fn(usize) -> S,
    ) -> ReplicatedStore {
        ReplicatedStore::new(
            cfg,
            (0..n)
                .map(|i| Arc::new(make(i)) as Arc<dyn CheckpointStore>)
                .collect(),
        )
    }

    /// Force replica `i` down (until [`ReplicatedStore::revive`]).
    pub fn kill_replica(&self, i: usize) {
        self.down.lock().insert(i);
    }

    /// Lift a forced failure on replica `i`.
    pub fn revive(&self, i: usize) {
        self.down.lock().remove(&i);
    }

    /// Whether replica `i` is up.
    pub fn alive(&self, i: usize) -> bool {
        !self.down.lock().contains(&i)
    }

    fn alive_indices(&self) -> Vec<usize> {
        let down = self.down.lock();
        (0..self.replicas.len())
            .filter(|i| !down.contains(i))
            .collect()
    }

    /// Anti-entropy: bring replica `i` back in sync by copying every
    /// object it misses (or holds torn/corrupt) from the first peer that
    /// can serve clean bytes. Run after reviving a replica that was down
    /// during writes; afterwards `i` serves reads for everything its
    /// peers hold. Objects no peer can serve cleanly are reported, not
    /// copied.
    pub fn heal(&self, i: usize) -> HealReport {
        assert!(i < self.replicas.len(), "no replica {i}");
        let mut report = HealReport::default();
        // The union of every peer's listing, not `self.list()`: the
        // catching-up replica must converge on what the *peers* hold,
        // whichever replicas are down at the moment.
        let mut paths: Vec<String> = Vec::new();
        for (j, r) in self.replicas.iter().enumerate() {
            if j != i {
                paths.extend(r.list());
            }
        }
        paths.sort();
        paths.dedup();
        for path in paths {
            if self.replicas[i].get(&path, 0, HEAL_SHAPE).is_ok() {
                continue; // already clean here
            }
            let mut copied = false;
            for (j, peer) in self.replicas.iter().enumerate() {
                if j == i {
                    continue;
                }
                if let Ok((data, _)) = peer.get(&path, 0, HEAL_SHAPE) {
                    let len = peer.logical_len(&path).unwrap_or(data.len() as u64);
                    report.bytes += data.len() as u64;
                    // The served scatter moves to the healed replica as-is:
                    // rope pages stay shared, no flatten on the copy path.
                    self.replicas[i].put(&path, data, len, 0, HEAL_SHAPE);
                    report.copied.push(path.clone());
                    copied = true;
                    break;
                }
            }
            if !copied {
                report.unservable.push(path);
            }
        }
        report
    }
}

const HEAL_SHAPE: IoShape = IoShape {
    writers_on_node: 1,
    total_writers: 1,
};

impl CheckpointStore for ReplicatedStore {
    fn put(
        &self,
        path: &str,
        data: ImageBytes,
        logical_len: u64,
        rank: u64,
        shape: IoShape,
    ) -> SimDuration {
        let mut alive = self.alive_indices();
        if alive.is_empty() {
            // Total outage: the writer retries until the targets recover —
            // model it as writing everywhere and waiting for the slowest.
            alive = (0..self.replicas.len()).collect();
        }
        // The last replica takes the buffer by move; the others get
        // clones — cheap for scatter images (one count bump per dense
        // rope plus the small owned metadata).
        let mut data = Some(data);
        let last = alive.len() - 1;
        let mut durs: Vec<SimDuration> = alive
            .iter()
            .enumerate()
            .map(|(k, i)| {
                let payload = if k == last {
                    data.take().expect("payload consumed only once")
                } else {
                    data.as_ref().expect("payload live until last").clone()
                };
                self.replicas[*i].put(path, payload, logical_len, rank, shape)
            })
            .collect();
        durs.sort_unstable();
        // Wait for the write quorum: the slowest of the `q` fastest acks,
        // and no more acks than there are live replicas.
        let q = self.cfg.write_quorum.min(durs.len());
        durs[q - 1]
    }

    fn get(
        &self,
        path: &str,
        rank: u64,
        shape: IoShape,
    ) -> Result<(ImageBytes, SimDuration), StoreError> {
        let mut failover = SimDuration::ZERO;
        let mut last_err: Option<StoreError> = None;
        let down = self.down.lock().clone();
        for i in 0..self.replicas.len() {
            if down.contains(&i) {
                failover += self.cfg.failover_latency;
                continue;
            }
            match self.replicas[i].get(path, rank, shape) {
                Ok((data, dur)) => return Ok((data, failover + dur)),
                // A replica that missed the write (it was down), tore it
                // (its writer died mid-put), or rotted it: probe on — one
                // bad replica must not fail a read a healthy peer can
                // serve. Remember the most telling error for the case
                // where every replica is bad.
                Err(e) => {
                    failover += self.cfg.failover_latency;
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| StoreError::NotFound(path.to_string())))
    }

    fn begin_epoch(&self) {
        for r in &self.replicas {
            r.begin_epoch();
        }
    }

    fn exists(&self, path: &str) -> bool {
        self.alive_indices()
            .into_iter()
            .any(|i| self.replicas[i].exists(path))
    }

    fn logical_len(&self, path: &str) -> Result<u64, StoreError> {
        self.alive_indices()
            .into_iter()
            .find_map(|i| self.replicas[i].logical_len(path).ok())
            .ok_or_else(|| StoreError::NotFound(path.to_string()))
    }

    fn remove(&self, path: &str) -> bool {
        // Deletion reaches every replica: a dead one would resurrect the
        // object at the next [`ReplicatedStore::heal`] pass otherwise.
        let mut any = false;
        for r in &self.replicas {
            any |= r.remove(path);
        }
        any
    }

    fn list(&self) -> Vec<String> {
        let mut all: Vec<String> = Vec::new();
        for i in self.alive_indices() {
            all.extend(self.replicas[i].list());
        }
        all.sort();
        all.dedup();
        all
    }

    /// Maintain each replica's own stack, then heal every replica by
    /// anti-entropy. A layer above that quarantines (a journal) has
    /// already run, so its moves are what gets replicated and no replica
    /// re-imports a torn envelope. Only heals that copied something or
    /// found something unservable are reported.
    fn maintain(&self, report: &mut Maintenance) {
        for r in &self.replicas {
            r.maintain(report);
        }
        for i in 0..self.replicas.len() {
            let heal = self.heal(i);
            if !heal.copied.is_empty() || !heal.unservable.is_empty() {
                report.heals.push((i, heal));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mana_core::store::InMemStore;

    const SHAPE: IoShape = IoShape {
        writers_on_node: 1,
        total_writers: 1,
    };

    /// Inner test store with fixed, distinct put/get durations.
    struct FixedLatency {
        inner: InMemStore,
        write: SimDuration,
        read: SimDuration,
    }

    impl FixedLatency {
        fn new(write_ms: u64, read_ms: u64) -> FixedLatency {
            FixedLatency {
                inner: InMemStore::new(),
                write: SimDuration::millis(write_ms),
                read: SimDuration::millis(read_ms),
            }
        }
    }

    impl CheckpointStore for FixedLatency {
        fn put(&self, p: &str, d: ImageBytes, l: u64, r: u64, s: IoShape) -> SimDuration {
            self.inner.put(p, d, l, r, s);
            self.write
        }
        fn get(
            &self,
            p: &str,
            r: u64,
            s: IoShape,
        ) -> Result<(ImageBytes, SimDuration), StoreError> {
            self.inner.get(p, r, s).map(|(d, _)| (d, self.read))
        }
        fn below(&self) -> Option<&dyn CheckpointStore> {
            Some(&self.inner)
        }
    }

    fn three_way(quorum: usize) -> ReplicatedStore {
        let cfg = ReplicaConfig {
            write_quorum: quorum,
            failover_latency: SimDuration::millis(100),
        };
        ReplicatedStore::new(
            cfg,
            vec![
                Arc::new(FixedLatency::new(10, 5)),
                Arc::new(FixedLatency::new(20, 6)),
                Arc::new(FixedLatency::new(30, 7)),
            ],
        )
    }

    #[test]
    #[should_panic(expected = "write quorum 0 outside 1..=3 replicas")]
    fn a_zero_write_quorum_is_refused() {
        three_way(0);
    }

    #[test]
    #[should_panic(expected = "write quorum 4 outside 1..=3 replicas")]
    fn a_write_quorum_above_the_replica_count_is_refused() {
        three_way(4);
    }

    #[test]
    fn put_charges_the_slowest_of_the_quorum() {
        let s = three_way(2);
        assert_eq!(
            s.put("x", vec![1].into(), 8, 0, SHAPE),
            SimDuration::millis(20)
        );
        let s = three_way(3);
        assert_eq!(
            s.put("x", vec![1].into(), 8, 0, SHAPE),
            SimDuration::millis(30)
        );
        let s = three_way(1);
        assert_eq!(
            s.put("x", vec![1].into(), 8, 0, SHAPE),
            SimDuration::millis(10)
        );
    }

    #[test]
    fn get_fails_over_past_dead_replicas() {
        let s = three_way(3);
        s.put("x", vec![7].into(), 8, 0, SHAPE);
        s.kill_replica(0);
        s.kill_replica(1);
        let (data, dur) = s.get("x", 0, SHAPE).unwrap();
        assert_eq!(data.to_vec(), vec![7]);
        // Two probe timeouts (100ms each) + replica 2's 7ms read.
        assert_eq!(dur, SimDuration::millis(207));
    }

    #[test]
    fn writes_skip_dead_replicas_and_reads_recover() {
        let s = three_way(2);
        s.kill_replica(2);
        s.put("x", vec![3].into(), 8, 0, SHAPE);
        s.revive(2);
        // Replica 2 never got the write: the read probes past its miss.
        s.kill_replica(0);
        s.kill_replica(1);
        assert!(matches!(s.get("x", 0, SHAPE), Err(StoreError::NotFound(_))));
        s.revive(1);
        let (data, _) = s.get("x", 0, SHAPE).unwrap();
        assert_eq!(data.to_vec(), vec![3]);
    }

    #[test]
    fn get_fails_over_past_corrupt_and_torn_replicas() {
        // Replica 0's copy rotted; replica 1's was torn mid-write; only
        // replica 2 holds clean bytes.
        struct Rotten;
        impl CheckpointStore for Rotten {
            fn put(&self, _: &str, _: ImageBytes, _: u64, _: u64, _: IoShape) -> SimDuration {
                SimDuration::ZERO
            }
            fn get(
                &self,
                p: &str,
                _: u64,
                _: IoShape,
            ) -> Result<(ImageBytes, SimDuration), StoreError> {
                Err(StoreError::Corrupt {
                    path: p.to_string(),
                    why: "bit rot".to_string(),
                })
            }
            fn exists(&self, _: &str) -> bool {
                true
            }
            fn logical_len(&self, _: &str) -> Result<u64, StoreError> {
                Ok(8)
            }
            fn remove(&self, _: &str) -> bool {
                false
            }
            fn list(&self) -> Vec<String> {
                vec!["x".to_string()]
            }
        }
        let cfg = ReplicaConfig {
            failover_latency: SimDuration::millis(100),
            ..ReplicaConfig::default()
        };
        let healthy = FixedLatency::new(10, 5);
        healthy.put("x", vec![7].into(), 8, 0, SHAPE);
        /// Every write dies half way: only a prefix lands, and no read
        /// ever validates.
        struct TornServe(InMemStore);
        impl CheckpointStore for TornServe {
            fn put(&self, p: &str, d: ImageBytes, l: u64, r: u64, s: IoShape) -> SimDuration {
                let mut prefix = d.into_scatter();
                prefix.truncate(prefix.len() / 2);
                self.0.put(p, prefix.into(), l, r, s)
            }
            fn get(
                &self,
                p: &str,
                _: u64,
                _: IoShape,
            ) -> Result<(ImageBytes, SimDuration), StoreError> {
                Err(StoreError::Torn {
                    path: p.to_string(),
                    why: "commit record never written".to_string(),
                })
            }
            fn below(&self) -> Option<&dyn CheckpointStore> {
                Some(&self.0)
            }
        }
        let torn = TornServe(InMemStore::new());
        torn.put("x", vec![1, 2].into(), 8, 0, SHAPE);
        let s = ReplicatedStore::new(
            cfg,
            vec![Arc::new(Rotten), Arc::new(torn), Arc::new(healthy)],
        );
        // One corrupt + one torn replica cost a probe each; the healthy
        // third serves the read.
        let (data, dur) = s.get("x", 0, SHAPE).unwrap();
        assert_eq!(data.to_vec(), vec![7]);
        assert_eq!(dur, SimDuration::millis(205));
        // If every replica is bad, the most recent data-level error
        // surfaces (not a bare NotFound).
        let s = ReplicatedStore::new(
            ReplicaConfig::default(),
            vec![Arc::new(Rotten), Arc::new(Rotten)],
        );
        assert!(matches!(
            s.get("x", 0, SHAPE),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn heal_brings_a_revived_replica_back_in_sync() {
        let s = three_way(2);
        s.put("a", vec![1; 10].into(), 10, 0, SHAPE);
        // Replica 2 dies; two more epochs of writes miss it.
        s.kill_replica(2);
        s.put("b", vec![2; 20].into(), 20, 0, SHAPE);
        s.put("c", vec![3; 30].into(), 30, 0, SHAPE);
        s.revive(2);
        // Before anti-entropy, replica 2 alone cannot serve b or c.
        s.kill_replica(0);
        s.kill_replica(1);
        assert!(s.get("b", 0, SHAPE).is_err());
        s.revive(0);
        s.revive(1);

        let report = s.heal(2);
        assert_eq!(report.copied, vec!["b".to_string(), "c".to_string()]);
        assert_eq!(report.bytes, 50);
        assert!(report.unservable.is_empty());

        // Now replica 2 serves everything on its own.
        s.kill_replica(0);
        s.kill_replica(1);
        for (p, v) in [("a", vec![1; 10]), ("b", vec![2; 20]), ("c", vec![3; 30])] {
            let (data, _) = s.get(p, 0, SHAPE).unwrap();
            assert_eq!(data.to_vec(), v, "path {p} after heal");
        }
        // A second pass is a no-op: anti-entropy converges.
        s.revive(0);
        s.revive(1);
        assert_eq!(s.heal(2), HealReport::default());
    }

    #[test]
    fn total_outage_still_writes_somewhere() {
        let s = three_way(2);
        for i in 0..3 {
            s.kill_replica(i);
        }
        s.put("x", vec![1].into(), 8, 0, SHAPE);
        s.revive(0);
        let (data, _) = s.get("x", 0, SHAPE).unwrap();
        assert_eq!(data.to_vec(), vec![1]);
    }
}
