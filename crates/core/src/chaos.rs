//! Deterministic fault injection: the chaos seam.
//!
//! Production checkpointing earns trust by surviving failures, not by
//! avoiding them. This module is the *mechanism* half of the chaos
//! subsystem: a [`ChaosHandle`] rides inside [`crate::config::ManaConfig`]
//! and is polled by the protocol at phase-aware points — mid-agreement,
//! mid-bookmark, mid-drain, mid-encode, mid-publish — so a seeded
//! [`FaultInjector`] (the *policy* half, provided by the `mana-chaos`
//! crate or by tests) can crash the job at any instant the protocol can
//! reach. The handle is inert by default: an unarmed handle compiles to a
//! `None` check on every poll and injects nothing.
//!
//! Crash semantics are **gang failure**, matching MPI reality: killing one
//! rank (or one node) aborts the whole job at that instant. The handle
//! holds one registered kill thunk per rank (each resumes that rank's
//! [`crate::cell::CkptCell`] with `kill = true`, which aborts the MPI job
//! and wakes the rank so blocked sends/receives/collectives unwind); a
//! firing fault invokes every thunk, the ranks unwind, and the engine
//! reports the incarnation as killed. The checkpoint in flight never
//! completes, so it is never registered — recovery restarts from an older
//! survivor.
//!
//! Faults are keyed by **checkpoint attempt** (0, 1, 2, … in the order the
//! chain attempts checkpoints), not by raw checkpoint id: sessions assign
//! chain-unique ids across restarts, and a fault plan written against
//! attempt numbers stays meaningful no matter how many incarnations the
//! chain takes to get there.

use mana_sim::time::SimDuration;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// A protocol-phase-aware injection point polled by every rank's helper
/// during a checkpoint attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InjectPoint {
    /// Mid-agreement: the helper is about to reply `State` to an
    /// `IntendCkpt`/`ExtraIteration` round.
    Agreement,
    /// Mid-bookmark: `DoCkpt` received and the rank quiesced, but the
    /// bookmark has not been sent yet.
    Bookmark,
    /// Mid-drain: bookmarks exchanged, expected-counts received, the rank
    /// is about to drain in-flight messages.
    Drain,
    /// Mid-encode: the image is built and encoded but not yet written.
    Encode,
    /// Mid-publish: the image bytes hit the store, but the rank has not
    /// reported `CkptDone` — the round can never commit.
    Publish,
}

impl fmt::Display for InjectPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InjectPoint::Agreement => "agreement",
            InjectPoint::Bookmark => "bookmark",
            InjectPoint::Drain => "drain",
            InjectPoint::Encode => "encode",
            InjectPoint::Publish => "publish",
        };
        write!(f, "{s}")
    }
}

/// A restart-pipeline injection point polled by the restart pipeline. The
/// checkpoint-side [`InjectPoint`]s cover the *write* path; these cover
/// the *read* path — the stages of [`crate::restart::engine`]
/// where a recovering job can die all over again.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RestartPoint {
    /// Mid image-read: the rank's fetch/decode/validate, before the
    /// destination sim boots.
    ImageRead,
    /// Mid record-log replay against the fresh lower half.
    Replay,
    /// Mid virtual-id rebind/verification.
    Rebind,
    /// Mid world resynchronization, just before the restart barrier.
    Resync,
}

impl RestartPoint {
    /// All restart injection points, in pipeline order.
    pub const ALL: [RestartPoint; 4] = [
        RestartPoint::ImageRead,
        RestartPoint::Replay,
        RestartPoint::Rebind,
        RestartPoint::Resync,
    ];
}

impl fmt::Display for RestartPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RestartPoint::ImageRead => "image-read",
            RestartPoint::Replay => "replay",
            RestartPoint::Rebind => "rebind",
            RestartPoint::Resync => "resync",
        };
        write!(f, "{s}")
    }
}

/// What a [`FaultInjector`] wants to do to a rank at an injection point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RankFault {
    /// Gang-crash the whole job right here.
    Crash,
    /// Tear the rank's upcoming image `put` — only a `keep_frac` prefix of
    /// the written envelope reaches the store — then crash the job at the
    /// following [`InjectPoint::Publish`] poll. Meaningful at
    /// [`InjectPoint::Encode`]; ignored elsewhere.
    TornWrite {
        /// Fraction of the framed envelope that survives, in `(0, 1)`.
        keep_frac: f64,
    },
}

/// The policy half of chaos: decides, deterministically, which faults fire
/// where. Implementations must be pure functions of their arguments (plus
/// their own seed) — the same plan must inject the same faults on every
/// run.
pub trait FaultInjector: Send + Sync {
    /// Fault (if any) for `rank` at `point` during checkpoint attempt
    /// `attempt`. Polled on every pass through the point, so the decision
    /// must be stable for a given `(attempt, rank, point)`.
    fn rank_fault(&self, attempt: u64, rank: u32, point: InjectPoint) -> Option<RankFault> {
        let _ = (attempt, rank, point);
        None
    }

    /// Kill the sub-coordinator of `node` during attempt `attempt`'s
    /// agreement round? `Some(latency)` models the detection + promotion
    /// delay before a surviving rank on the node takes over.
    fn subcoord_fault(&self, attempt: u64, node: u32) -> Option<SimDuration> {
        let _ = (attempt, node);
        None
    }

    /// Kill `rank` at restart-pipeline stage `point` during the chain's
    /// `restart_attempt`-th restart (0, 1, 2, … in the order the chain
    /// attempts restarts)? Polled once per (attempt, rank, point), so the
    /// decision must be stable for a given triple.
    fn restart_fault(&self, restart_attempt: u64, rank: u32, point: RestartPoint) -> bool {
        let _ = (restart_attempt, rank, point);
        false
    }

    /// Fault (if any) over the tiered store's async background drain at
    /// the start of checkpoint attempt `attempt` — polled by
    /// `TieredStore::begin_epoch` just before it retires the previous
    /// round's pending drains.
    fn drain_fault(&self, attempt: u64) -> Option<DrainFault> {
        let _ = attempt;
        None
    }
}

/// What a [`FaultInjector`] wants to do to the oldest pending async drain
/// at an epoch boundary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DrainFault {
    /// The drain's slow-tier write is torn mid-flight (only a `keep_frac`
    /// prefix lands) and draining stops for this epoch — the ledger entry
    /// stays in-flight with the burst-tier copy intact, so `recover()`
    /// can resume it.
    Torn {
        /// Fraction of the framed envelope that survives, in `(0, 1)`.
        keep_frac: f64,
    },
    /// The burst-buffer node dies before the drain starts: the fast-tier
    /// copy is lost and the slow tier never sees the object. `recover()`
    /// must quarantine the ledger entry; the image is gone.
    LoseFast,
}

/// A crash the engine injected: which attempt, which checkpoint id it had
/// been assigned, which rank tripped it, at which point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashRecord {
    /// Checkpoint attempt number (0-based, chain-wide).
    pub attempt: u64,
    /// The chain-unique checkpoint id of the doomed attempt.
    pub ckpt_id: u64,
    /// The rank whose helper tripped the fault.
    pub rank: u32,
    /// Where in the protocol it fired.
    pub point: InjectPoint,
}

/// A crash injected inside the restart pipeline: which restart attempt,
/// which rank, at which stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RestartCrashRecord {
    /// Restart attempt number (0-based, chain-wide).
    pub restart_attempt: u64,
    /// The rank whose restart stage tripped the fault.
    pub rank: u32,
    /// The restart-pipeline stage it fired at.
    pub point: RestartPoint,
}

/// A sub-coordinator failover the engine injected and healed in-flight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailoverRecord {
    /// Checkpoint attempt number (0-based, chain-wide).
    pub attempt: u64,
    /// The checkpoint id of the round the sub-coordinator died in.
    pub ckpt_id: u64,
    /// The node whose sub-coordinator was killed and replaced.
    pub node: u32,
}

/// What an armed handle injected across the whole chain, as
/// [`ChaosHandle::log`] returns it. Every list is in injection order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosLog {
    /// Restart attempts the chain has begun.
    pub restart_attempts: u64,
    /// Every checkpoint-phase gang-crash.
    pub crashes: Vec<CrashRecord>,
    /// Every restart-phase crash.
    pub restart_crashes: Vec<RestartCrashRecord>,
    /// Every sub-coordinator failover (healed in-flight).
    pub failovers: Vec<FailoverRecord>,
    /// Paths whose writes a store layer actually tore.
    pub torn_writes: Vec<String>,
    /// Drains a tiered store actually interrupted: `(checkpoint attempt,
    /// path, fault)`.
    pub drain_faults: Vec<(u64, String, DrainFault)>,
}

type Kill = Box<dyn Fn() + Send + Sync>;

/// Everything an armed handle tracks: the gates of the current
/// incarnation and restart attempt, and the chain-wide attempt numbering
/// and log.
#[derive(Default)]
struct Chain {
    /// ckpt_id → attempt number, assigned in first-poll order. Checkpoint
    /// ids are chain-monotonic, so first-poll order is id order.
    attempts: BTreeMap<u64, u64>,
    /// One kill thunk per registered rank of the *current* incarnation.
    kills: Vec<Kill>,
    /// Whether the current incarnation crashed. Gates further injection:
    /// a dead job cannot fault twice.
    crashed: bool,
    /// Torn-put follow-up: crash this `(ckpt_id, rank)` at Publish.
    pending_publish_crash: Option<(u64, u32)>,
    /// Paths whose next `put` should be torn, with the keep fraction.
    armed_torn: BTreeMap<String, f64>,
    /// (attempt, node) pairs that already failed over — a sub-coordinator
    /// is polled once per agreement iteration, but dies at most once per
    /// attempt.
    failed_over: BTreeSet<(u64, u32)>,
    /// Whether the current restart attempt crashed. Gates further restart
    /// injection until the next `begin_restart`.
    restart_crashed: bool,
    /// Checkpoint attempts whose drain fault already fired (one-shot).
    drain_fired: BTreeSet<u64>,
    log: ChaosLog,
}

impl Chain {
    fn attempt_of(&mut self, ckpt_id: u64) -> u64 {
        let next = self.attempts.len() as u64;
        *self.attempts.entry(ckpt_id).or_insert(next)
    }

    /// Close the crash gate and record `rec`. Returns the incarnation's
    /// kill thunks, which the caller fires once the lock is released.
    fn crash(&mut self, rec: CrashRecord) -> Vec<Kill> {
        self.crashed = true;
        self.log.crashes.push(rec);
        std::mem::take(&mut self.kills)
    }
}

struct ChaosState {
    /// Pure, so it is polled without the lock's help.
    injector: Box<dyn FaultInjector>,
    chain: Mutex<Chain>,
}

/// A cloneable, config-embeddable handle to a chaos run. Default (and
/// `Debug`-printed as unarmed) it injects nothing and costs a `None` check
/// per poll; armed with a [`FaultInjector`] it drives the whole job chain
/// through that injector's fault schedule.
#[derive(Clone, Default)]
pub struct ChaosHandle {
    inner: Option<Arc<ChaosState>>,
}

impl fmt::Debug for ChaosHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosHandle")
            .field("armed", &self.inner.is_some())
            .finish()
    }
}

impl ChaosHandle {
    /// An armed handle driving `injector`'s schedule.
    pub fn new(injector: impl FaultInjector + 'static) -> ChaosHandle {
        ChaosHandle {
            inner: Some(Arc::new(ChaosState {
                injector: Box::new(injector),
                chain: Mutex::default(),
            })),
        }
    }

    /// Reset per-incarnation state. Engines call this before booting a
    /// simulation so stale kill thunks (and a previous incarnation's crash
    /// gate) never leak into the next life of the chain. Attempt numbering
    /// and fault history persist — they are chain-wide.
    pub fn begin_incarnation(&self) {
        if let Some(st) = &self.inner {
            let mut chain = st.chain.lock();
            chain.kills.clear();
            chain.crashed = false;
            chain.pending_publish_crash = None;
            chain.armed_torn.clear();
        }
    }

    /// Register a rank's kill thunk for the current incarnation. The thunk
    /// must make that rank unwind: resume its checkpoint cell with
    /// `kill = true`, which aborts the MPI job and wakes the rank.
    pub fn register_kill(&self, kill: impl Fn() + Send + Sync + 'static) {
        if let Some(st) = &self.inner {
            st.chain.lock().kills.push(Box::new(kill));
        }
    }

    /// Poll an injection point from rank `rank`'s helper. Returns `true`
    /// if the job just gang-crashed — the caller must stop participating
    /// in the protocol (its own rank is already dying). `path` is the
    /// image path about to be written, supplied at [`InjectPoint::Encode`]
    /// so torn-write faults can arm the store layer.
    pub fn rank_point(
        &self,
        ckpt_id: u64,
        rank: u32,
        point: InjectPoint,
        path: Option<&str>,
    ) -> bool {
        let Some(st) = &self.inner else { return false };
        let mut chain = st.chain.lock();
        let attempt = chain.attempt_of(ckpt_id);
        if chain.crashed {
            return false;
        }
        let rec = CrashRecord {
            attempt,
            ckpt_id,
            rank,
            point,
        };
        let kills = match st.injector.rank_fault(attempt, rank, point) {
            Some(RankFault::Crash) => chain.crash(rec),
            Some(RankFault::TornWrite { keep_frac }) => {
                if let Some(p) = path {
                    chain.armed_torn.insert(p.to_string(), keep_frac);
                    chain.pending_publish_crash = Some((ckpt_id, rank));
                }
                return false;
            }
            // A torn put is a two-beat fault: the Encode poll armed the
            // tear, the put wrote a partial envelope, and now the writer
            // dies before it can report CkptDone.
            None if point == InjectPoint::Publish
                && chain.pending_publish_crash == Some((ckpt_id, rank)) =>
            {
                chain.crash(rec)
            }
            None => return false,
        };
        drop(chain);
        // Gang failure: every registered rank dies at this instant.
        for kill in kills {
            kill();
        }
        true
    }

    /// Poll for a sub-coordinator death on `node` during `ckpt_id`'s
    /// agreement round. Fires at most once per (attempt, node); returns
    /// the modeled detection + promotion latency when it does.
    pub fn subcoord_point(&self, ckpt_id: u64, node: u32) -> Option<SimDuration> {
        let st = self.inner.as_ref()?;
        let mut chain = st.chain.lock();
        let attempt = chain.attempt_of(ckpt_id);
        if chain.crashed {
            return None;
        }
        let latency = st.injector.subcoord_fault(attempt, node)?;
        if !chain.failed_over.insert((attempt, node)) {
            return None;
        }
        chain.log.failovers.push(FailoverRecord {
            attempt,
            ckpt_id,
            node,
        });
        Some(latency)
    }

    /// Consume a torn-write arming for `path`, if one is pending, and log
    /// the tear. Called by crash-consistent store wrappers at `put` time,
    /// which then tear the write; returns the keep fraction to apply.
    pub fn take_torn(&self, path: &str) -> Option<f64> {
        let mut chain = self.inner.as_ref()?.chain.lock();
        let keep_frac = chain.armed_torn.remove(path)?;
        chain.log.torn_writes.push(path.to_string());
        Some(keep_frac)
    }

    /// Number of distinct checkpoint attempts the chain has started.
    pub fn attempts_seen(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|st| st.chain.lock().attempts.len() as u64)
            .unwrap_or(0)
    }

    /// Begin a restart attempt: bump the chain-wide restart-attempt
    /// counter and reset the restart crash gate. A restarting boot calls
    /// this once, before any rank's image is fetched.
    /// Returns the 0-based attempt number just begun.
    pub fn begin_restart(&self) -> u64 {
        let Some(st) = &self.inner else { return 0 };
        let mut chain = st.chain.lock();
        chain.restart_crashed = false;
        chain.log.restart_attempts += 1;
        chain.log.restart_attempts - 1
    }

    /// Poll a restart-pipeline injection point for `rank`. Returns `true`
    /// if the injector kills the rank here — the restart pipeline must
    /// abort the attempt with a typed error (and must *not* have mutated
    /// the store or address space, so the same image restarts cleanly on
    /// the next attempt). At most one restart crash fires per attempt.
    pub fn restart_point(&self, rank: u32, point: RestartPoint) -> bool {
        let Some(st) = &self.inner else { return false };
        let mut chain = st.chain.lock();
        let restart_attempt = chain.log.restart_attempts.saturating_sub(1);
        if chain.restart_crashed || !st.injector.restart_fault(restart_attempt, rank, point) {
            return false;
        }
        chain.restart_crashed = true;
        chain.log.restart_crashes.push(RestartCrashRecord {
            restart_attempt,
            rank,
            point,
        });
        true
    }

    /// Poll for a drain fault at the start of checkpoint attempt
    /// `attempt`. Called by `TieredStore::begin_epoch` before retiring
    /// the previous round's pending drains; fires at most once per
    /// attempt.
    pub fn take_drain_fault(&self, attempt: u64) -> Option<DrainFault> {
        let st = self.inner.as_ref()?;
        let fault = st.injector.drain_fault(attempt)?;
        st.chain.lock().drain_fired.insert(attempt).then_some(fault)
    }

    /// Arm a torn write for `path` directly (no Encode poll involved):
    /// the next crash-consistent `put` of `path` keeps only a
    /// `keep_frac` prefix. Store layers use this to model a drain whose
    /// slow-tier write dies mid-flight.
    pub fn arm_torn(&self, path: &str, keep_frac: f64) {
        if let Some(st) = &self.inner {
            st.chain
                .lock()
                .armed_torn
                .insert(path.to_string(), keep_frac);
        }
    }

    /// Record that a tiered store actually interrupted a drain.
    pub fn note_drain_fault(&self, attempt: u64, path: &str, fault: DrainFault) {
        if let Some(st) = &self.inner {
            st.chain
                .lock()
                .log
                .drain_faults
                .push((attempt, path.to_string(), fault));
        }
    }

    /// The chain's history so far (empty for an unarmed handle). It
    /// survives [`ChaosHandle::begin_incarnation`] and
    /// [`ChaosHandle::begin_restart`], which reset only the gates.
    pub fn log(&self) -> ChaosLog {
        self.inner
            .as_ref()
            .map(|st| st.chain.lock().log.clone())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    struct CrashAt {
        attempt: u64,
        rank: u32,
        point: InjectPoint,
    }

    impl FaultInjector for CrashAt {
        fn rank_fault(&self, attempt: u64, rank: u32, point: InjectPoint) -> Option<RankFault> {
            (attempt == self.attempt && rank == self.rank && point == self.point)
                .then_some(RankFault::Crash)
        }
    }

    #[test]
    fn unarmed_handle_is_inert() {
        let h = ChaosHandle::default();
        assert_eq!(format!("{h:?}"), "ChaosHandle { armed: false }");
        assert!(!h.rank_point(0, 0, InjectPoint::Agreement, None));
        assert!(h.subcoord_point(0, 0).is_none());
        assert_eq!(h.attempts_seen(), 0);
        h.begin_incarnation(); // no-op, must not panic
        assert_eq!(h.log(), ChaosLog::default());
    }

    #[test]
    fn crash_fires_every_kill_and_gates_further_faults() {
        let h = ChaosHandle::new(CrashAt {
            attempt: 1,
            rank: 2,
            point: InjectPoint::Drain,
        });
        let killed = Arc::new(AtomicU32::new(0));
        for _ in 0..4 {
            let k = killed.clone();
            h.register_kill(move || {
                k.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Attempt 0 (ckpt id 10): no fault anywhere.
        assert!(!h.rank_point(10, 2, InjectPoint::Drain, None));
        // Attempt 1 (ckpt id 11): rank 2 trips it at Drain.
        assert!(!h.rank_point(11, 2, InjectPoint::Agreement, None));
        assert!(h.rank_point(11, 2, InjectPoint::Drain, None));
        assert_eq!(killed.load(Ordering::SeqCst), 4, "gang failure kills all");
        // The dead job cannot fault again...
        assert!(!h.rank_point(11, 2, InjectPoint::Drain, None));
        let rec = &h.log().crashes[0];
        assert_eq!((rec.attempt, rec.rank), (1, 2));
        // ...and the next incarnation clears the thunks.
        h.begin_incarnation();
        // Ckpt 12 is attempt 2 — past the injector's schedule, no fault.
        assert!(!h.rank_point(12, 2, InjectPoint::Drain, None));
        assert_eq!(
            killed.load(Ordering::SeqCst),
            4,
            "stale thunks were cleared"
        );
    }

    #[test]
    fn attempt_numbering_follows_first_poll_order() {
        let h = ChaosHandle::new(CrashAt {
            attempt: u64::MAX,
            rank: 0,
            point: InjectPoint::Agreement,
        });
        h.rank_point(100, 0, InjectPoint::Agreement, None);
        h.rank_point(100, 1, InjectPoint::Agreement, None);
        h.rank_point(107, 0, InjectPoint::Agreement, None);
        assert_eq!(h.attempts_seen(), 2);
    }

    struct TearAt;
    impl FaultInjector for TearAt {
        fn rank_fault(&self, attempt: u64, rank: u32, point: InjectPoint) -> Option<RankFault> {
            (attempt == 0 && rank == 1 && point == InjectPoint::Encode)
                .then_some(RankFault::TornWrite { keep_frac: 0.5 })
        }
    }

    #[test]
    fn torn_write_arms_then_crashes_at_publish() {
        let h = ChaosHandle::new(TearAt);
        assert!(!h.rank_point(5, 1, InjectPoint::Encode, Some("d/r1")));
        assert_eq!(h.take_torn("d/r1"), Some(0.5));
        assert_eq!(h.take_torn("d/r1"), None, "arming is one-shot");
        // Another rank publishing is untouched; the torn writer dies.
        assert!(!h.rank_point(5, 0, InjectPoint::Publish, None));
        assert!(h.rank_point(5, 1, InjectPoint::Publish, None));
        assert_eq!(h.log().crashes[0].point, InjectPoint::Publish);
    }

    struct RestartCrashAt {
        restart_attempt: u64,
        rank: u32,
        point: RestartPoint,
    }

    impl FaultInjector for RestartCrashAt {
        fn restart_fault(&self, restart_attempt: u64, rank: u32, point: RestartPoint) -> bool {
            restart_attempt == self.restart_attempt && rank == self.rank && point == self.point
        }
    }

    #[test]
    fn restart_faults_fire_once_per_attempt_and_key_by_restart_attempt() {
        let h = ChaosHandle::new(RestartCrashAt {
            restart_attempt: 1,
            rank: 2,
            point: RestartPoint::Replay,
        });
        // Restart attempt 0: no fault at any stage.
        assert_eq!(h.begin_restart(), 0);
        assert!(!h.restart_point(2, RestartPoint::Replay));
        assert!(h.log().restart_crashes.is_empty());
        // Restart attempt 1: rank 2 dies mid-replay, exactly once.
        assert_eq!(h.begin_restart(), 1);
        assert!(!h.restart_point(2, RestartPoint::ImageRead));
        assert!(!h.restart_point(0, RestartPoint::Replay));
        assert!(h.restart_point(2, RestartPoint::Replay));
        assert!(
            !h.restart_point(2, RestartPoint::Rebind),
            "a dead restart cannot fault twice"
        );
        let rec = &h.log().restart_crashes[0];
        assert_eq!(
            (rec.restart_attempt, rec.rank, rec.point),
            (1, 2, RestartPoint::Replay)
        );
        // Attempt 2 is past the schedule.
        assert_eq!(h.begin_restart(), 2);
        assert!(!h.restart_point(2, RestartPoint::Replay));
        assert_eq!(h.log().restart_crashes.len(), 1);
        assert_eq!(h.log().restart_attempts, 3);
    }

    #[test]
    fn unarmed_handle_restart_seam_is_inert() {
        let h = ChaosHandle::default();
        assert_eq!(h.begin_restart(), 0);
        assert!(!h.restart_point(0, RestartPoint::Resync));
        assert!(h.take_drain_fault(0).is_none());
        h.arm_torn("p", 0.5); // no-op, must not panic
        h.note_drain_fault(0, "p", DrainFault::LoseFast);
        assert_eq!(h.log(), ChaosLog::default());
    }

    struct DrainTearAt(u64);
    impl FaultInjector for DrainTearAt {
        fn drain_fault(&self, attempt: u64) -> Option<DrainFault> {
            (attempt == self.0).then_some(DrainFault::Torn { keep_frac: 0.4 })
        }
    }

    #[test]
    fn drain_faults_are_one_shot_per_attempt() {
        let h = ChaosHandle::new(DrainTearAt(3));
        assert!(h.take_drain_fault(2).is_none());
        assert_eq!(
            h.take_drain_fault(3),
            Some(DrainFault::Torn { keep_frac: 0.4 })
        );
        assert!(
            h.take_drain_fault(3).is_none(),
            "the same attempt cannot fault twice"
        );
        // Direct arming feeds the same consumable torn map the Encode
        // poll uses.
        h.arm_torn("slow/obj", 0.4);
        assert_eq!(h.take_torn("slow/obj"), Some(0.4));
        h.note_drain_fault(3, "slow/obj", DrainFault::Torn { keep_frac: 0.4 });
        assert_eq!(h.log().drain_faults.len(), 1);
    }

    /// Crashes rank 0 at every Agreement, fails node 0's sub-coordinator
    /// over in every attempt and kills rank 1 at every restart's Replay.
    struct Always;
    impl FaultInjector for Always {
        fn rank_fault(&self, _: u64, rank: u32, point: InjectPoint) -> Option<RankFault> {
            (rank == 0 && point == InjectPoint::Agreement).then_some(RankFault::Crash)
        }
        fn subcoord_fault(&self, _: u64, node: u32) -> Option<SimDuration> {
            (node == 0).then_some(SimDuration::millis(20))
        }
        fn restart_fault(&self, _: u64, rank: u32, point: RestartPoint) -> bool {
            rank == 1 && point == RestartPoint::Replay
        }
    }

    #[test]
    fn the_log_outlives_both_gates_and_the_gates_reset() {
        let h = ChaosHandle::new(Always);
        for round in 1..=2u64 {
            // Round 2 opens a new incarnation and a new restart attempt:
            // both gates reopen, and round 1's history stays.
            h.begin_incarnation();
            assert_eq!(h.begin_restart(), round - 1);
            assert!(h.subcoord_point(round, 0).is_some());
            assert!(h.rank_point(round, 0, InjectPoint::Agreement, None));
            assert!(!h.rank_point(round, 0, InjectPoint::Agreement, None));
            assert!(h.restart_point(1, RestartPoint::Replay));
            assert!(!h.restart_point(1, RestartPoint::Replay));
            h.arm_torn("t", 0.5);
            assert_eq!(h.take_torn("t"), Some(0.5));
            h.note_drain_fault(round, "t", DrainFault::LoseFast);
            let log = h.log();
            let n = round as usize;
            assert_eq!(
                (
                    log.crashes.len(),
                    log.restart_crashes.len(),
                    log.failovers.len(),
                    log.torn_writes.len(),
                    log.drain_faults.len(),
                    log.restart_attempts,
                ),
                (n, n, n, n, n, round),
                "round {round}"
            );
        }
    }
}
