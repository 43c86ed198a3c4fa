//! Two-tier checkpoint storage: a bounded fast tier (burst buffer /
//! node-local SSD) absorbing writes in front of a slow global tier.
//!
//! `put` commits the image to the fast tier only — the duration it
//! returns (what the checkpointing rank's clock advances by) covers just
//! the burst-buffer write — and the drain to the global tier happens later, exactly the
//! forked-checkpoint overlap DMTCP uses. Every deferred write is an
//! entry in a persistent **drain ledger**, so a crash
//! mid-drain is *detectable*: the store's
//! [`maintain`](CheckpointStore::maintain) resumes drains whose
//! burst-tier copy survived and quarantines the ones whose fast data is
//! gone, then maintains the slow tier. An image that was
//! burst-tier-committed is never lost to a torn slow-tier write — the
//! intact fast copy re-drains.
//!
//! The deferred cost does not vanish: a `get` before the drain finished
//! performs the drain as a read-through (a restart right after a kill
//! pays the slow write it raced past), capacity pressure drains the
//! victim at eviction, and by the next checkpoint epoch the background
//! clock has retired every outstanding entry.
//!
//! The chaos seam ([`TieredStore::with_chaos`]) injects drain faults at
//! epoch boundaries: a [`DrainFault::Torn`] tears the oldest pending
//! drain's slow-tier write mid-flight (the ledger entry stays in-flight,
//! the fast copy intact), a [`DrainFault::LoseFast`] kills the burst
//! buffer under it before the drain starts.

use mana_core::chaos::{ChaosHandle, DrainFault};
use mana_core::error::StoreError;
use mana_core::image::ImageBytes;
use mana_core::store::{CheckpointStore, Maintenance};
use mana_sim::fs::IoShape;
use mana_sim::time::SimDuration;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};

/// Parameters of the fast tier.
#[derive(Clone, Debug)]
pub struct TierConfig {
    /// Fast-tier bandwidth per node, bytes/s (shared by the node's
    /// concurrent writers).
    pub bw: f64,
    /// Fixed per-operation latency (open/close/fsync on the fast tier).
    pub op_latency: SimDuration,
    /// Fast-tier capacity in logical bytes; an object larger than this
    /// bypasses the fast tier entirely.
    pub capacity: u64,
}

impl TierConfig {
    /// A DataWarp-like burst buffer: ~5 GB/s per node, cheap metadata
    /// operations, 64 GiB of capacity.
    pub fn burst_buffer() -> TierConfig {
        TierConfig {
            bw: 5.0e9,
            op_latency: SimDuration::micros(200),
            capacity: 64 << 30,
        }
    }
}

/// Where one deferred drain stands in its fast→slow journey.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrainState {
    /// Burst-tier-committed; the slow-tier write has not started.
    Pending,
    /// The slow-tier write started and did not finish — a crash or torn
    /// write interrupted it. The fast copy (if it survived) is the
    /// authority; the slow object may be a partial envelope.
    InFlight,
}

/// One outstanding entry of the drain ledger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DrainEntry {
    /// Path of the burst-tier-committed object.
    pub path: String,
    /// Where its drain stands.
    pub state: DrainState,
}

struct FastObj {
    logical_len: u64,
    rank: u64,
    shape: IoShape,
    /// The burst-tier copy, held until the drain completes (`None` once
    /// drained — the slow tier is then the authority — or after a
    /// fast-tier loss).
    data: Option<ImageBytes>,
    /// Drain-ledger state; `None` for drained residents.
    drain: Option<DrainState>,
}

#[derive(Default)]
struct TierState {
    /// Fast-tier residents in insertion order (FIFO eviction; also the
    /// drain order of outstanding entries).
    order: VecDeque<String>,
    objects: HashMap<String, FastObj>,
    used: u64,
}

impl TierState {
    /// Drop `path`'s fast-tier residency, returning what it held.
    fn evict(&mut self, path: &str) -> Option<FastObj> {
        let obj = self.objects.remove(path)?;
        self.used -= obj.logical_len;
        self.order.retain(|p| p != path);
        Some(obj)
    }
}

/// Fast burst-buffer tier draining to a slow global tier `S`.
///
/// The slow tier is authoritative for drained contents; outstanding
/// async drains live in the fast tier under a persistent ledger (see
/// the [module docs](self)), and `exists`/`list`/`logical_len` account
/// for both.
pub struct TieredStore<S> {
    cfg: TierConfig,
    slow: S,
    state: Mutex<TierState>,
    chaos: ChaosHandle,
}

impl<S: CheckpointStore> TieredStore<S> {
    /// A tiered store draining to `slow`.
    pub fn new(cfg: TierConfig, slow: S) -> TieredStore<S> {
        TieredStore {
            cfg,
            slow,
            state: Mutex::new(TierState::default()),
            chaos: ChaosHandle::default(),
        }
    }

    /// Arm the chaos seam: at each epoch boundary the handle's injector
    /// is polled for a [`DrainFault`] over the outstanding drains.
    pub fn with_chaos(mut self, chaos: ChaosHandle) -> TieredStore<S> {
        self.chaos = chaos;
        self
    }

    /// The slow (global) tier.
    pub fn slow(&self) -> &S {
        &self.slow
    }

    /// Paths currently resident in the fast tier, oldest first.
    pub fn fast_residents(&self) -> Vec<String> {
        self.state.lock().order.iter().cloned().collect()
    }

    /// The drain ledger: outstanding fast→slow drains, oldest first.
    pub fn drain_ledger(&self) -> Vec<DrainEntry> {
        let st = self.state.lock();
        st.order
            .iter()
            .filter_map(|p| {
                st.objects.get(p).and_then(|o| {
                    o.drain.map(|state| DrainEntry {
                        path: p.clone(),
                        state,
                    })
                })
            })
            .collect()
    }

    /// Whether `path` still owes a drain to the slow tier.
    pub fn has_pending_drain(&self, path: &str) -> bool {
        self.state
            .lock()
            .objects
            .get(path)
            .is_some_and(|o| o.drain.is_some())
    }

    /// Drain one outstanding entry to the slow tier, returning the slow
    /// write's duration. Caller holds no lock.
    fn drain_now(&self, path: &str) -> SimDuration {
        let (data, logical_len, rank, shape) = {
            let st = self.state.lock();
            match st.objects.get(path) {
                Some(o) if o.drain.is_some() => (o.data.clone(), o.logical_len, o.rank, o.shape),
                _ => return SimDuration::ZERO,
            }
        };
        let Some(bytes) = data else {
            return SimDuration::ZERO;
        };
        let dur = self.slow.put(path, bytes, logical_len, rank, shape);
        let mut st = self.state.lock();
        if let Some(obj) = st.objects.get_mut(path) {
            obj.drain = None;
            obj.data = None;
        }
        dur
    }

    fn fast_xfer(&self, bytes: u64, shape: IoShape) -> SimDuration {
        let share = (self.cfg.bw / f64::from(shape.writers_on_node.max(1))).max(1.0);
        self.cfg.op_latency + SimDuration::secs_f64(bytes as f64 / share)
    }
}

impl<S: CheckpointStore> CheckpointStore for TieredStore<S> {
    fn put(
        &self,
        path: &str,
        data: ImageBytes,
        logical_len: u64,
        rank: u64,
        shape: IoShape,
    ) -> SimDuration {
        // Overwrite of an undrained object: its in-flight drain must
        // finish before the slot is reused (the old generation stays
        // recoverable until the new write commits).
        let paid_overwrite = if self.has_pending_drain(path) {
            self.drain_now(path)
        } else {
            SimDuration::ZERO
        };
        if logical_len > self.cfg.capacity {
            // Too big for the burst buffer: straight to the slow tier.
            self.state.lock().evict(path);
            return paid_overwrite + self.slow.put(path, data, logical_len, rank, shape);
        }

        // Make room: capacity pressure drains victims out of the ledger.
        let mut paid_evict = SimDuration::ZERO;
        loop {
            let victim = {
                let mut st = self.state.lock();
                st.evict(path);
                if st.used + logical_len <= self.cfg.capacity {
                    None
                } else {
                    Some(st.order.front().cloned().expect("resident to evict"))
                }
            };
            let Some(victim) = victim else { break };
            paid_evict += self.drain_now(&victim);
            self.state.lock().evict(&victim);
        }

        // Burst-tier commit: the bytes stay fast-side under a ledger entry
        // until a drain retires them.
        let mut st = self.state.lock();
        st.objects.insert(
            path.to_string(),
            FastObj {
                logical_len,
                rank,
                shape,
                data: Some(data),
                drain: Some(DrainState::Pending),
            },
        );
        st.order.push_back(path.to_string());
        st.used += logical_len;
        drop(st);
        paid_overwrite + paid_evict + self.fast_xfer(logical_len, shape)
    }

    fn get(
        &self,
        path: &str,
        rank: u64,
        shape: IoShape,
    ) -> Result<(ImageBytes, SimDuration), StoreError> {
        // Read-through an outstanding drain: the image is not safe to
        // consume mid-flight, so the reader completes the drain (paying
        // the slow write it raced past) and is served the fast copy.
        if self.has_pending_drain(path) {
            let fast_bytes = {
                let st = self.state.lock();
                st.objects.get(path).and_then(|o| o.data.clone())
            };
            if let Some(bytes) = fast_bytes {
                let drain = self.drain_now(path);
                let len = {
                    let st = self.state.lock();
                    st.objects.get(path).map(|o| o.logical_len).unwrap_or(0)
                };
                return Ok((bytes, self.fast_xfer(len, shape) + drain));
            }
            // Ledger entry with no fast data: the burst tier lost it and
            // nothing ever reached the slow tier whole.
            return Err(StoreError::NotFound(path.to_string()));
        }
        let (data, slow_read) = self.slow.get(path, rank, shape)?;
        let st = self.state.lock();
        match st.objects.get(path) {
            // Drained resident: read at fast-tier speed.
            Some(obj) => Ok((data, self.fast_xfer(obj.logical_len, shape))),
            None => Ok((data, slow_read)),
        }
    }

    fn begin_epoch(&self) {
        // A new checkpoint epoch means the application ran for a full
        // checkpoint interval: the background drain clock retires every
        // outstanding entry now (durations are the background node's,
        // not any rank's). The chaos seam can interrupt the oldest
        // drain here — mid-write (torn) or by killing the burst buffer
        // under it — in which case draining stops for this epoch,
        // exactly what a node death mid-drain leaves behind.
        let attempt = self.chaos.attempts_seen();
        let fault = self.chaos.take_drain_fault(attempt);
        let outstanding = self.drain_ledger();
        let mut fault = fault.filter(|_| !outstanding.is_empty());
        for DrainEntry { path, .. } in outstanding {
            if let Some(f) = fault.take() {
                // The fault hits the oldest outstanding drain and stops
                // this epoch's draining dead.
                match f {
                    DrainFault::Torn { keep_frac } => {
                        // Start the slow write, torn mid-flight: arm the
                        // crash-consistent layer below, leave the ledger
                        // entry in-flight with the fast copy intact.
                        self.chaos.arm_torn(&path, keep_frac);
                        let (data, logical_len, rank, shape) = {
                            let st = self.state.lock();
                            let o = st.objects.get(&path).expect("ledger object");
                            (o.data.clone(), o.logical_len, o.rank, o.shape)
                        };
                        if let Some(bytes) = data {
                            self.slow.put(&path, bytes, logical_len, rank, shape);
                        }
                        let mut st = self.state.lock();
                        if let Some(obj) = st.objects.get_mut(&path) {
                            obj.drain = Some(DrainState::InFlight);
                        }
                    }
                    DrainFault::LoseFast => {
                        // The burst-buffer node dies before the drain
                        // starts: the fast copy is gone; the ledger entry
                        // remains as the only evidence.
                        let mut st = self.state.lock();
                        if let Some(obj) = st.objects.get_mut(&path) {
                            obj.data = None;
                        }
                    }
                }
                self.chaos.note_drain_fault(attempt, &path, f);
                break;
            }
            self.drain_now(&path);
        }
        self.slow.begin_epoch();
    }

    fn below(&self) -> Option<&dyn CheckpointStore> {
        Some(&self.slow)
    }

    fn exists(&self, path: &str) -> bool {
        // An outstanding drain with an intact fast copy is committed
        // (burst-tier durability); one whose fast copy is lost is not.
        let st = self.state.lock();
        if let Some(obj) = st.objects.get(path) {
            if obj.drain.is_some() {
                return obj.data.is_some();
            }
        }
        drop(st);
        self.slow.exists(path)
    }

    fn logical_len(&self, path: &str) -> Result<u64, StoreError> {
        {
            let st = self.state.lock();
            if let Some(obj) = st.objects.get(path) {
                if obj.drain.is_some() {
                    return if obj.data.is_some() {
                        Ok(obj.logical_len)
                    } else {
                        Err(StoreError::NotFound(path.to_string()))
                    };
                }
            }
        }
        self.slow.logical_len(path)
    }

    fn remove(&self, path: &str) -> bool {
        let had_fast = self
            .state
            .lock()
            .evict(path)
            .is_some_and(|old| old.drain.is_some() && old.data.is_some());
        self.slow.remove(path) || had_fast
    }

    fn list(&self) -> Vec<String> {
        let mut out = self.slow.list();
        {
            let st = self.state.lock();
            for p in &st.order {
                if st
                    .objects
                    .get(p)
                    .is_some_and(|o| o.drain.is_some() && o.data.is_some())
                    && !out.contains(p)
                {
                    out.push(p.clone());
                }
            }
        }
        out.sort();
        out
    }
    /// Crash recovery over the drain ledger: resume every outstanding
    /// drain whose burst-tier copy survived (overwriting any partial
    /// slow-tier envelope a torn write left behind) and quarantine the
    /// entries whose fast data is gone, then maintain the slow tier.
    /// After this the ledger is empty and every image that was
    /// burst-tier-committed is slow-durable — the module's "never lose a
    /// committed image" contract.
    fn maintain(&self, report: &mut Maintenance) {
        for DrainEntry { path, .. } in self.drain_ledger() {
            let fast_copy = self
                .state
                .lock()
                .objects
                .get(&path)
                .is_some_and(|o| o.data.is_some());
            if fast_copy {
                self.drain_now(&path);
                report.drains_resumed.push(path);
            } else {
                // Fast copy lost before the drain: nothing to resume.
                // Drop any partial slow-tier write and the residency.
                self.slow.remove(&path);
                self.state.lock().evict(&path);
                report.drains_quarantined.push(path);
            }
        }
        self.slow.maintain(report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mana_core::chaos::{FaultInjector, InjectPoint};
    use mana_core::store::{FsStore, InMemStore};
    use mana_sim::fs::FsConfig;

    const SHAPE: IoShape = IoShape {
        writers_on_node: 1,
        total_writers: 1,
    };

    fn lustre() -> FsStore {
        // Straggler-free so durations are exactly predictable.
        FsStore::with_config(FsConfig {
            node_bw: 1e9,
            aggregate_bw: 10e9,
            op_latency: SimDuration::millis(1),
            write_straggler_max: 1.0,
            read_straggler_max: 1.0,
            seed: 1,
        })
    }

    /// One maintenance walk over `store`.
    fn maintain(store: &dyn CheckpointStore) -> Maintenance {
        let mut report = Maintenance::default();
        store.maintain(&mut report);
        report
    }

    fn cfg() -> TierConfig {
        TierConfig {
            bw: 10e9,
            op_latency: SimDuration::micros(100),
            capacity: 1 << 30,
        }
    }

    #[test]
    fn async_put_is_cheaper_than_sync_put() {
        let asyn = TieredStore::new(cfg(), lustre());
        let len = 100 << 20; // 100 MB: ~0.1s on Lustre, ~0.01s on the BB
        let ds = lustre().put("x", Vec::new().into(), len, 0, SHAPE);
        let da = asyn.put("x", Vec::new().into(), len, 0, SHAPE);
        assert!(
            da.as_nanos() * 5 < ds.as_nanos(),
            "async {da} should be far below a write-through {ds}"
        );
        // The deferred write is visible in the ledger.
        assert!(asyn.has_pending_drain("x"));
        assert_eq!(
            asyn.drain_ledger(),
            vec![DrainEntry {
                path: "x".into(),
                state: DrainState::Pending,
            }]
        );
        // Burst-tier commit: visible before the slow tier has it.
        assert!(asyn.exists("x"));
        assert!(!asyn.slow().exists("x"));
    }

    #[test]
    fn get_reads_through_the_outstanding_drain() {
        let store = TieredStore::new(cfg(), lustre());
        let fast_only = store.put("x", vec![1, 2].into(), 100 << 20, 0, SHAPE);
        assert!(store.has_pending_drain("x"));
        let (data, rd) = store.get("x", 0, SHAPE).unwrap();
        assert_eq!(data.to_vec(), vec![1, 2]);
        assert!(
            rd > fast_only,
            "read-through {rd} must pay the slow drain it raced past (fast put was {fast_only})"
        );
        // Drained by the read: slow-durable, second read is fast-tier.
        assert!(!store.has_pending_drain("x"));
        assert!(store.slow().exists("x"));
        let (_, rd2) = store.get("x", 0, SHAPE).unwrap();
        assert!(rd2 < rd);
    }

    #[test]
    fn background_clock_retires_the_ledger_by_the_next_epoch() {
        let store = TieredStore::new(cfg(), lustre());
        store.put("x", Vec::new().into(), 100 << 20, 0, SHAPE);
        assert!(store.has_pending_drain("x"));
        assert!(!store.slow().exists("x"));
        store.begin_epoch();
        assert!(!store.has_pending_drain("x"));
        assert!(store.drain_ledger().is_empty());
        assert!(store.slow().exists("x"), "epoch drain made it slow-durable");
    }

    #[test]
    fn capacity_pressure_drains_the_evicted_resident() {
        let mut c = cfg();
        c.capacity = 150 << 20;
        let store = TieredStore::new(c, lustre());
        let d_small = store.put("a", Vec::new().into(), 100 << 20, 0, SHAPE);
        assert!(store.has_pending_drain("a"));
        // The second object doesn't fit next to `a`: `a` is evicted and
        // its outstanding drain completes as part of this put.
        let d = store.put("b", Vec::new().into(), 100 << 20, 1, SHAPE);
        assert!(
            d > d_small,
            "eviction {d} must pay a's drain (plain fast put was {d_small})"
        );
        assert_eq!(store.fast_residents(), vec!["b".to_string()]);
        // Evicted object is durable in the slow tier, not lost.
        assert!(store.exists("a"));
        assert!(store.slow().exists("a"));
        store.get("a", 0, SHAPE).unwrap();
    }

    #[test]
    fn oversize_objects_bypass_the_fast_tier() {
        let mut c = cfg();
        c.capacity = 1 << 20;
        let store = TieredStore::new(c, lustre());
        let d = store.put("big", Vec::new().into(), 10 << 20, 0, SHAPE);
        // Charged the full slow write (no async hiding possible).
        assert!(
            d.as_secs_f64() > 0.009,
            "expected ~10ms slow write, got {d}"
        );
        assert!(store.fast_residents().is_empty());
        assert!(!store.has_pending_drain("big"));
        assert!(store.slow().exists("big"));
    }

    #[test]
    fn zero_latency_slow_tier_still_works() {
        let store = TieredStore::new(cfg(), InMemStore::new());
        store.put("x", vec![9].into(), 4096, 0, SHAPE);
        let (data, _) = store.get("x", 0, SHAPE).unwrap();
        assert_eq!(data.to_vec(), vec![9]);
        assert!(store.remove("x"));
        assert!(!store.exists("x"));
    }

    #[test]
    fn recover_resumes_pending_drains() {
        let store = TieredStore::new(cfg(), InMemStore::new());
        store.put("a", vec![1].into(), 4096, 0, SHAPE);
        store.put("b", vec![2].into(), 4096, 1, SHAPE);
        assert_eq!(store.drain_ledger().len(), 2);
        // Simulated node crash: the process dies with drains pending; on
        // reboot, recovery finds the ledger and finishes the job.
        let rec = maintain(&store);
        assert_eq!(rec.drains_resumed, vec!["a".to_string(), "b".to_string()]);
        assert!(rec.drains_quarantined.is_empty());
        assert!(store.drain_ledger().is_empty());
        assert!(store.slow().exists("a") && store.slow().exists("b"));
        assert_eq!(store.get("a", 0, SHAPE).unwrap().0.to_vec(), vec![1]);
    }

    struct TearOldestAt(u64);
    impl FaultInjector for TearOldestAt {
        fn drain_fault(&self, attempt: u64) -> Option<DrainFault> {
            (attempt == self.0).then_some(DrainFault::Torn { keep_frac: 0.5 })
        }
    }

    struct LoseOldestAt(u64);
    impl FaultInjector for LoseOldestAt {
        fn drain_fault(&self, attempt: u64) -> Option<DrainFault> {
            (attempt == self.0).then_some(DrainFault::LoseFast)
        }
    }

    #[test]
    fn torn_drain_is_detectable_and_recover_resumes_it() {
        use crate::journal::JournaledStore;
        let chaos = ChaosHandle::new(TearOldestAt(0));
        let store = TieredStore::new(
            cfg(),
            JournaledStore::new(InMemStore::new()).with_chaos(chaos.clone()),
        )
        .with_chaos(chaos.clone());
        store.put("a", vec![1; 64].into(), 4096, 0, SHAPE);
        store.put("b", vec![2; 64].into(), 4096, 1, SHAPE);

        // Epoch 0's drain is torn mid-flight on the oldest entry and the
        // node stops draining — exactly what a kill mid-drain leaves.
        store.begin_epoch();
        assert_eq!(
            store.drain_ledger(),
            vec![
                DrainEntry {
                    path: "a".into(),
                    state: DrainState::InFlight,
                },
                DrainEntry {
                    path: "b".into(),
                    state: DrainState::Pending,
                },
            ],
            "torn entry detectably in-flight, the rest still pending"
        );
        assert_eq!(chaos.log().torn_writes, vec!["a".to_string()]);
        assert!(
            !store.slow().exists("a"),
            "the torn slow object reads as absent"
        );
        assert!(store.exists("a"), "burst-tier commit still stands");

        // Recovery resumes both from the intact fast copies.
        let rec = maintain(&store);
        assert_eq!(rec.drains_resumed, vec!["a".to_string(), "b".to_string()]);
        assert!(rec.drains_quarantined.is_empty());
        assert!(store.slow().exists("a") && store.slow().exists("b"));
        assert_eq!(store.get("a", 0, SHAPE).unwrap().0.to_vec(), vec![1; 64]);
        assert_eq!(chaos.log().drain_faults.len(), 1);
    }

    #[test]
    fn lost_fast_tier_quarantines_the_entry() {
        let chaos = ChaosHandle::new(LoseOldestAt(0));
        let store = TieredStore::new(cfg(), InMemStore::new()).with_chaos(chaos.clone());
        store.put("a", vec![1].into(), 4096, 0, SHAPE);
        store.put("b", vec![2].into(), 4096, 1, SHAPE);

        store.begin_epoch();
        assert!(
            !store.exists("a"),
            "a burst-tier loss before the drain means the object is gone"
        );
        assert!(store.get("a", 0, SHAPE).is_err());

        let rec = maintain(&store);
        assert_eq!(rec.drains_quarantined, vec!["a".to_string()]);
        assert_eq!(rec.drains_resumed, vec!["b".to_string()]);
        assert!(!store.exists("a"), "quarantined object stays gone");
        assert!(store.slow().exists("b"), "the survivor drained fine");
    }

    #[test]
    fn drain_ledger_crash_recover_sweep() {
        // Crash/recover at every epoch boundary × both fault kinds: the
        // ledger never loses an image whose fast copy survived, and
        // always detects the one that did not.
        for kind in [0u8, 1u8] {
            for fault_epoch in 0..3u64 {
                let chaos = match kind {
                    0 => ChaosHandle::new(TearOldestAt(fault_epoch)),
                    _ => ChaosHandle::new(LoseOldestAt(fault_epoch)),
                };
                let store = TieredStore::new(
                    cfg(),
                    crate::journal::JournaledStore::new(InMemStore::new())
                        .with_chaos(chaos.clone()),
                )
                .with_chaos(chaos.clone());
                // Three epochs, one new object per epoch; the fault hits
                // the oldest outstanding drain at `fault_epoch`.
                let mut committed = Vec::new();
                for e in 0..3u64 {
                    let path = format!("img_{e}");
                    store.put(&path, vec![e as u8; 32].into(), 4096, e, SHAPE);
                    committed.push(path);
                    // begin_epoch polls the drain fault keyed by
                    // attempts_seen(), which the rank poll below advances
                    // — so epoch e sees attempt number e.
                    store.begin_epoch();
                    chaos.rank_point(e, 0, InjectPoint::Agreement, None);
                }
                let rec = maintain(&store);
                assert!(
                    store.drain_ledger().is_empty(),
                    "recovery must settle the ledger"
                );
                for path in &committed {
                    let lost = rec.drains_quarantined.contains(path);
                    assert_eq!(
                        store.exists(path),
                        !lost,
                        "kind {kind} epoch {fault_epoch}: {path} must be \
                         durable unless quarantined"
                    );
                    if !lost {
                        assert!(store.slow().exists(path));
                    }
                }
                match kind {
                    0 => assert!(
                        rec.drains_quarantined.is_empty(),
                        "a torn drain never loses the committed image"
                    ),
                    _ => assert_eq!(
                        rec.drains_quarantined,
                        vec![format!("img_{fault_epoch}")],
                        "losing the fast tier before the drain loses \
                         exactly that image"
                    ),
                }
            }
        }
    }
}
