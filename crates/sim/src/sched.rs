//! Deterministic baton-passing scheduler.
//!
//! Simulated threads (MPI rank main threads, MANA checkpoint helper threads,
//! the checkpoint coordinator, launchers) are stackful coroutines, all run
//! by the one OS thread that called [`Sim::run`]: each has a stack of its
//! own and ordinary blocking-style code on it, but exactly **one** of them
//! runs at any moment — it holds the "baton". A thread that blocks or
//! advances virtual time selects the earliest pending event — ordered by
//! `(virtual time, sequence number)`, a total order — and switches stacks
//! straight to the thread that event wakes: one acquisition of the state
//! lock, no reference counting, no kernel and no bounce through the driver
//! (about 40 ns with two threads and 85 ns with 64 on a 2-CPU x86-64 box;
//! the event heap is deeper and the stacks colder as threads are added).
//! This gives:
//!
//! * natural imperative code for rank programs (no hand-written state
//!   machines), and
//! * bit-for-bit deterministic execution for a given seed, which the
//!   correctness tests rely on (native vs MANA vs restarted runs must
//!   produce identical checksums).
//!
//! **No lock guard may be live across a park.** Simulated code must never
//! call a blocking scheduler operation (`advance`, `block`, ...) while
//! holding a lock: every simulated thread shares the one OS thread, so the
//! next baton holder to want that lock would wait for a holder that cannot
//! run until it gives up. The product starts no worker OS threads, so
//! nothing could ever break that wait. The rule is therefore enforced:
//! the `parking_lot` shim counts the guards live on the OS thread,
//! [`Sim::run`] records that count on entry, and a simulated thread that
//! parks above it fails the simulation with `parked holding N lock
//! guard(s)`, naming the thread. All blocking in higher layers is
//! loop-recheck style because wakeups may be spurious (two queued wakes
//! for one thread are legal).
//!
//! **Stacks.** Each simulated thread gets 512 KiB, mapped lazily, with an
//! inaccessible guard page below. Rank programs are shallow; code that
//! does run off the end dies with a plain SIGSEGV, not Rust's "thread has
//! overflowed its stack" message (std only knows the guard pages of stacks
//! it made). Thread-locals are per OS thread, so all simulated threads of
//! a `Sim` share them. A body's panic unwinds on its own stack to the
//! `catch_unwind` at its base; nothing unwinds across a switch.
//!
//! The stack switch and the stack mapping are the private `coro` module,
//! the scheduler's only unsafe code. It is written for x86-64 Linux — other
//! targets fail to compile with a message naming the two functions to
//! port.

use crate::coro::{self, Context, Coroutine};
use crate::time::{SimDuration, SimTime};
use parking_lot::Mutex;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as AtomicOrd};
use std::sync::Arc;

/// Identifier of a simulated thread. Thread 0 is the driver (the host test
/// or benchmark thread that called [`Sim::run`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SimThreadId(pub usize);

const DRIVER: SimThreadId = SimThreadId(0);

/// What a queued event does when its time comes.
enum Action {
    /// Make the target thread runnable.
    Wake(SimThreadId),
    /// Run a closure in the context of whichever thread dispatches the event.
    /// The closure must not block in the simulator; it may push new events
    /// and wake threads (used for message-delivery callbacks).
    Call(Box<dyn FnOnce(&Sim) + Send>),
}

struct Event {
    time: SimTime,
    seq: u64,
    action: Action,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ThreadState {
    /// Spawned, waiting for its initial wake.
    Created,
    /// Currently holds the baton.
    Running,
    /// Parked, waiting for a wake event (or, after a failure, for the
    /// teardown sweep).
    Blocked,
    /// Finished (normally or by shutdown).
    Done,
}

struct ThreadSlot {
    name: String,
    state: ThreadState,
    daemon: bool,
    /// Where the thread is suspended while it does not hold the baton.
    /// Owned here for the `Sim`'s whole life (slots are never removed),
    /// which is what lets a hand-off pass [`Context`]s instead of clones.
    co: Arc<Coroutine>,
}

/// Deterministic event counts of one simulation: a function of the seed
/// and the simulated program alone, so — unlike host time — they compare
/// exactly between two runs and between two machines.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SchedStats {
    /// Wake events that moved the baton to another simulated thread (one
    /// stack switch each — the scheduler's unit of host cost).
    pub handoffs: u64,
    /// Wake events that resumed the dispatching thread itself (no
    /// switch).
    pub self_wakes: u64,
    /// `Call` events (message deliveries, timers) run in place.
    pub calls: u64,
    /// Wake events dropped because their target had already finished.
    pub stale_wakes: u64,
}

struct SchedState {
    seq: u64,
    queue: BinaryHeap<Event>,
    stats: SchedStats,
    threads: Vec<ThreadSlot>,
    /// Non-daemon threads not yet Done.
    live: usize,
    /// Set when the simulation should unwind all parked threads.
    panic_msg: Option<String>,
    /// Set when the failing thread unwound with a [`QuietAbort`] payload:
    /// the teardown is expected control flow, so [`Sim::run`] re-raises
    /// `QuietAbort` (which quiet panic hooks can silence) instead of a
    /// printable message panic.
    panic_quiet: bool,
    /// [`Sim::run`] has been called (it may be called once).
    run_called: bool,
    driver_woken: bool,
}

impl SchedState {
    /// The next event in sequence order.
    fn event(&mut self, time: SimTime, action: Action) -> Event {
        let seq = self.seq;
        self.seq += 1;
        Event { time, seq, action }
    }

    fn push(&mut self, time: SimTime, action: Action) {
        let ev = self.event(time, action);
        self.queue.push(ev);
    }

    /// Queue a wake for `me` at `time` and take the earliest event, as a
    /// push followed by a pop would, with at most one sift: `me`'s own wake
    /// when it is the earliest (it never enters the heap), else the heap
    /// top, whose place `me`'s wake takes.
    fn push_wake_and_pop(&mut self, me: SimThreadId, time: SimTime) -> Event {
        let mine = self.event(time, Action::Wake(me));
        match self.queue.peek_mut() {
            // The top's seq is older, so it wins a tie.
            Some(mut top) if top.time <= time => std::mem::replace(&mut *top, mine),
            _ => mine,
        }
    }

    fn context(&self, id: SimThreadId) -> Context {
        Context::of(&self.threads[id.0].co)
    }
}

/// Panic payload used to unwind parked simulated threads at shutdown.
struct ShutdownToken;

/// Panic payload for *expected* whole-simulation teardowns: a simulated
/// thread that unwinds with `panic_any(QuietAbort)` still fails the
/// simulation (every other thread is torn down, [`Sim::run`] propagates
/// the failure), but the propagation re-raises `QuietAbort` rather than
/// a formatted panic — so callers that already captured a typed error
/// out-of-band can silence the unwind in their panic hook and report the
/// typed error instead.
pub struct QuietAbort;

/// Install (once per process) a panic hook that silences the internal
/// [`ShutdownToken`] unwinds used to tear down parked simulated threads.
/// All other panics go to the previously installed hook.
fn install_quiet_shutdown_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ShutdownToken>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Shared core of a simulation instance.
pub struct SimInner {
    state: Mutex<SchedState>,
    /// Current virtual time in ns, so reading the clock takes no lock.
    /// Written only by `dispatch`, under the state lock; `Relaxed`
    /// suffices because it publishes no other data and every simulated
    /// thread runs on the one OS thread that writes it.
    now: AtomicU64,
    shutdown: AtomicBool,
    /// Lock guards live on the OS thread when [`Sim::run`] was entered:
    /// the driver's (or an outer simulation's thread's), not any simulated
    /// thread's.
    guard_baseline: AtomicUsize,
    seed: u64,
}

/// A deterministic discrete-event simulation.
///
/// Cloning is cheap (it is an `Arc` handle); all clones refer to the same
/// simulation instance.
#[derive(Clone)]
pub struct Sim {
    inner: Arc<SimInner>,
}

/// Per-thread context handed to simulated thread bodies.
///
/// All blocking operations (`advance`, `block`) must be called from the
/// owning thread only.
#[derive(Clone)]
pub struct SimThread {
    sim: Sim,
    id: SimThreadId,
}

/// Configuration for [`Sim::new`].
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Root seed from which all simulation randomness is derived.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x4d41_4e41, // "MANA"
        }
    }
}

impl Sim {
    /// Create a new simulation.
    pub fn new(config: SimConfig) -> Sim {
        install_quiet_shutdown_hook();
        let driver_slot = ThreadSlot {
            name: "driver".to_string(),
            state: ThreadState::Blocked,
            daemon: true, // the driver never counts as live work
            co: Coroutine::host(),
        };
        Sim {
            inner: Arc::new(SimInner {
                state: Mutex::new(SchedState {
                    seq: 0,
                    queue: BinaryHeap::new(),
                    stats: SchedStats::default(),
                    threads: vec![driver_slot],
                    live: 0,
                    panic_msg: None,
                    panic_quiet: false,
                    run_called: false,
                    driver_woken: false,
                }),
                now: AtomicU64::new(SimTime::ZERO.as_nanos()),
                shutdown: AtomicBool::new(false),
                guard_baseline: AtomicUsize::new(0),
                seed: config.seed,
            }),
        }
    }

    /// The root seed of this simulation.
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime(self.inner.now.load(AtomicOrd::Relaxed))
    }

    /// Spawn a simulated thread. It becomes runnable at the current virtual
    /// time. Daemon threads (service loops such as the checkpoint
    /// coordinator) do not keep the simulation alive.
    ///
    /// Panics if no stack can be mapped for it.
    pub fn spawn(
        &self,
        name: &str,
        daemon: bool,
        body: impl FnOnce(SimThread) + Send + 'static,
    ) -> SimThreadId {
        let mut st = self.inner.state.lock();
        let id = SimThreadId(st.threads.len());
        // The entry holds the simulation weakly, so the slot table owns
        // the body with no cycle back to itself: a `Sim` that is never run
        // frees every body and stack with its last handle.
        let sim = Arc::downgrade(&self.inner);
        let co = Coroutine::new(move || {
            let inner = sim
                .upgrade()
                .expect("simulated threads run inside Sim::run");
            Sim { inner }.thread_main(id, body)
        });
        let co = match co {
            Ok(co) => co,
            Err(err) => {
                drop(st);
                panic!(
                    "cannot map a {} KiB stack for simulated thread '{name}' \
                     ({} stacks mapped; each is two mappings, see vm.max_map_count): {err}",
                    coro::STACK_SIZE / 1024,
                    coro::mapped_stacks(),
                );
            }
        };
        st.threads.push(ThreadSlot {
            name: name.to_string(),
            state: ThreadState::Created,
            daemon,
            co,
        });
        if !daemon {
            st.live += 1;
        }
        st.push(self.now(), Action::Wake(id));
        id
    }

    /// What a simulated thread's coroutine runs; returns the context to
    /// leave to. Everything this frame owns — the body, its `SimThread`,
    /// this `Sim` handle, a panic payload — is dropped by the time it
    /// returns, because the stack under it is recycled right after.
    fn thread_main(self, id: SimThreadId, body: impl FnOnce(SimThread)) -> Context {
        if self.inner.shutdown.load(AtomicOrd::SeqCst) {
            // First resumed by the teardown sweep: never ran, never will.
            drop(body);
            return self.mark_done_quietly(id);
        }
        let ctx = SimThread {
            sim: self.clone(),
            id,
        };
        match panic::catch_unwind(AssertUnwindSafe(|| body(ctx))) {
            Ok(()) => self.finish_thread(id, None),
            Err(payload) if payload.is::<ShutdownToken>() => self.mark_done_quietly(id),
            Err(payload) => {
                if payload.is::<QuietAbort>() {
                    self.inner.state.lock().panic_quiet = true;
                }
                self.finish_thread(id, Some(panic_message(payload.as_ref())))
            }
        }
    }

    /// Schedule `f` to run at absolute virtual time `time` (clamped to now).
    pub fn call_at(&self, time: SimTime, f: impl FnOnce(&Sim) + Send + 'static) {
        let time = time.max(self.now());
        self.inner
            .state
            .lock()
            .push(time, Action::Call(Box::new(f)));
    }

    /// Push a wake event for `tid` at the current virtual time.
    ///
    /// Wakes may be spurious by design; blocked threads must recheck their
    /// condition.
    pub fn wake(&self, tid: SimThreadId) {
        let now = self.now();
        self.inner.state.lock().push(now, Action::Wake(tid));
    }

    /// Run the simulation to completion: until every non-daemon thread has
    /// finished. Panics if a simulated thread panicked or if the simulation
    /// deadlocked (parked threads with an empty event queue).
    ///
    /// Every simulated thread runs on the calling OS thread, inside this
    /// call.
    pub fn run(&self) {
        self.inner
            .guard_baseline
            .store(parking_lot::live_guards(), AtomicOrd::Relaxed);
        {
            let mut st = self.inner.state.lock();
            assert!(!st.run_called, "Sim::run may only be called once");
            st.run_called = true;
            if st.live == 0 {
                // Nothing to do: a simulation with no non-daemon threads
                // completes immediately (pending Call events are dropped).
                drop(st);
                self.shutdown_all();
                return;
            }
        }
        // Hand the baton to the first event; park the driver.
        self.dispatch_and_park(DRIVER, None);
        // Resumed: simulation completed, deadlocked, or a thread panicked.
        let (msg, quiet) = {
            let mut st = self.inner.state.lock();
            (st.panic_msg.take(), st.panic_quiet)
        };
        self.shutdown_all();
        if let Some(msg) = msg {
            if quiet {
                std::panic::panic_any(QuietAbort);
            }
            panic!("simulation failed: {msg}");
        }
    }

    /// Events dispatched so far, by kind.
    pub fn sched_stats(&self) -> SchedStats {
        self.inner.state.lock().stats
    }

    /// Number of spawned simulated threads (including finished ones),
    /// excluding the driver.
    pub fn thread_count(&self) -> usize {
        self.inner.state.lock().threads.len() - 1
    }

    /// Teardown sweep, from the driver: resume every unfinished thread
    /// once. One that never started drops its body unrun; a parked one
    /// raises [`ShutdownToken`] where it parked and unwinds (destructors
    /// run) to the base of its own stack. Either way it switches straight
    /// back here.
    fn shutdown_all(&self) {
        self.inner.shutdown.store(true, AtomicOrd::SeqCst);
        let driver = self.inner.state.lock().context(DRIVER);
        let mut next = 1;
        loop {
            let co = {
                let mut st = self.inner.state.lock();
                let Some(slot) = st.threads.get_mut(next) else {
                    return;
                };
                next += 1;
                if slot.state == ThreadState::Done {
                    continue;
                }
                slot.state = ThreadState::Running;
                Context::of(&slot.co)
            };
            coro::switch(driver, co);
        }
    }

    /// A thread torn down by the sweep is done; the baton goes back to the
    /// driver.
    fn mark_done_quietly(&self, id: SimThreadId) -> Context {
        let mut st = self.inner.state.lock();
        st.threads[id.0].state = ThreadState::Done;
        st.context(DRIVER)
    }

    /// Called when a thread's body returns or panics; returns the context
    /// the baton goes to.
    fn finish_thread(&self, id: SimThreadId, panic_msg: Option<String>) -> Context {
        let fail = panic_msg.is_some();
        {
            let mut st = self.inner.state.lock();
            let daemon = st.threads[id.0].daemon;
            let name = st.threads[id.0].name.clone();
            st.threads[id.0].state = ThreadState::Done;
            if !daemon {
                st.live -= 1;
            }
            if let Some(m) = panic_msg {
                if st.panic_msg.is_none() {
                    st.panic_msg = Some(format!("thread '{name}': {m}"));
                }
            }
            if fail || (st.live == 0 && !st.driver_woken) {
                // Wake the driver: either to propagate the failure
                // immediately or because all real work is done.
                st.driver_woken = true;
                st.push(self.now(), Action::Wake(DRIVER));
            }
            if fail {
                // Fail fast: hand the baton straight to the driver.
                return st.context(DRIVER);
            }
        }
        let (_, next) = self
            .dispatch(id, /*park:*/ false, None)
            .expect("an exiting thread always passes the baton on");
        next
    }

    /// Core scheduling step. Pops events until one transfers the baton;
    /// with `wake_me_at`, first queues a wake for `me` at that time, under
    /// the same lock acquisition as the first pop. Returns `None` when the
    /// baton stays with `me` (only when `park` is true and the event wakes
    /// `me`, or the driver finds the queue empty); otherwise `me`'s own
    /// context and the one to switch to, with `me` marked parked (if
    /// `park`; else `me` is exiting).
    fn dispatch(
        &self,
        me: SimThreadId,
        park: bool,
        mut wake_me_at: Option<SimTime>,
    ) -> Option<(Context, Context)> {
        loop {
            let mut st = self.inner.state.lock();
            let next = match wake_me_at.take() {
                Some(time) => Some(st.push_wake_and_pop(me, time)),
                None => st.queue.pop(),
            };
            let ev = match next {
                Some(ev) => ev,
                None => {
                    // No events: completion is signalled through an explicit
                    // driver wake, so an empty queue here means deadlock.
                    let blocked: Vec<String> = st
                        .threads
                        .iter()
                        .filter(|t| {
                            matches!(t.state, ThreadState::Blocked | ThreadState::Created)
                                && !t.daemon
                        })
                        .map(|t| t.name.clone())
                        .collect();
                    if st.panic_msg.is_none() {
                        st.panic_msg = Some(format!(
                            "deadlock: event queue empty with blocked threads {blocked:?}"
                        ));
                    }
                    st.driver_woken = true;
                    if me == DRIVER {
                        return None;
                    }
                    if park {
                        st.threads[me.0].state = ThreadState::Blocked;
                    }
                    return Some((st.context(me), st.context(DRIVER)));
                }
            };
            let now = self.now();
            debug_assert!(ev.time >= now, "event time went backwards");
            self.inner
                .now
                .store(now.max(ev.time).as_nanos(), AtomicOrd::Relaxed);
            match ev.action {
                Action::Call(f) => {
                    st.stats.calls += 1;
                    drop(st);
                    f(self);
                    // Loop: keep dispatching.
                }
                Action::Wake(tid) => {
                    if tid == me {
                        if park {
                            // Continue running without a switch.
                            st.stats.self_wakes += 1;
                            st.threads[me.0].state = ThreadState::Running;
                            return None;
                        }
                        // `me` is exiting; a stale self-wake is dropped.
                        st.stats.stale_wakes += 1;
                        continue;
                    }
                    match st.threads[tid.0].state {
                        ThreadState::Done => st.stats.stale_wakes += 1,
                        ThreadState::Running => {
                            unreachable!("two threads running simultaneously")
                        }
                        ThreadState::Created | ThreadState::Blocked => {
                            st.stats.handoffs += 1;
                            st.threads[tid.0].state = ThreadState::Running;
                            if park {
                                st.threads[me.0].state = ThreadState::Blocked;
                            }
                            // Both contexts come out under the one lock
                            // acquisition this hand-off already needs,
                            // as handles: the slot table owns them.
                            return Some((st.context(me), st.context(tid)));
                        }
                    }
                }
            }
        }
    }

    /// Pass the baton on and park `me` until it comes back; with
    /// `wake_me_at`, queue `me`'s wake first (see [`Sim::dispatch`]).
    fn dispatch_and_park(&self, me: SimThreadId, wake_me_at: Option<SimTime>) {
        if me != DRIVER {
            let held =
                parking_lot::live_guards() - self.inner.guard_baseline.load(AtomicOrd::Relaxed);
            if held > 0 {
                // The unwind drops the guards, so no thread is left
                // waiting on them; `finish_thread` names this thread.
                let s = if held == 1 { "" } else { "s" };
                panic!("parked holding {held} lock guard{s}");
            }
        }
        if let Some((mine, to)) = self.dispatch(me, /*park:*/ true, wake_me_at) {
            // The state lock was released inside `dispatch`: no guard of
            // ours is live across the switch.
            coro::switch(mine, to);
            if me != DRIVER && self.inner.shutdown.load(AtomicOrd::SeqCst) {
                panic::panic_any(ShutdownToken);
            }
        }
    }
}

impl SimThread {
    /// This thread's id.
    pub fn id(&self) -> SimThreadId {
        self.id
    }

    /// The simulation this thread belongs to.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Advance virtual time by `d` (models compute or fixed-cost work).
    /// Other threads with earlier events run in between.
    pub fn advance(&self, d: SimDuration) {
        let target = self.sim.now() + d;
        self.sim.dispatch_and_park(self.id, Some(target));
        // Spurious wakes (another thread waking this one while it sleeps)
        // must not cut the advance short; re-park until the target wake.
        while self.sim.now() < target {
            self.sim.dispatch_and_park(self.id, None);
        }
    }

    /// Yield the baton, re-running after all currently queued events at the
    /// present instant.
    pub fn yield_now(&self) {
        self.advance(SimDuration::ZERO);
    }

    /// Park until some other thread (or scheduled event) wakes this thread.
    ///
    /// Wakeups may be spurious: callers must re-check their condition in a
    /// loop. Never call while holding a shared lock.
    pub fn block(&self) {
        self.sim.dispatch_and_park(self.id, None);
    }

    /// Convenience loop: park until `cond` yields a value.
    ///
    /// `cond` is evaluated with no scheduler locks held; the waker is
    /// responsible for pushing a wake event for this thread after making the
    /// condition true.
    pub fn block_until<T>(&self, mut cond: impl FnMut() -> Option<T>) -> T {
        loop {
            if let Some(v) = cond() {
                return v;
            }
            self.block();
        }
    }
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("Sim")
            .field("now", &self.now())
            .field("threads", &st.threads.len())
            .field("live", &st.live)
            .finish()
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if payload.downcast_ref::<QuietAbort>().is_some() {
        "quiet abort".to_string()
    } else {
        "unknown panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering as O};

    #[test]
    fn two_threads_interleave_by_time() {
        let sim = Sim::new(SimConfig::default());
        let log = Arc::new(Mutex::new(Vec::new()));
        for (name, step) in [("a", 10u64), ("b", 15u64)] {
            let log = log.clone();
            sim.spawn(name, false, move |t| {
                for _ in 0..3 {
                    t.advance(SimDuration::nanos(step));
                    log.lock().push((name, t.now().as_nanos()));
                }
            });
        }
        sim.run();
        let got = log.lock().clone();
        // At t=30 both have events; b's wake was queued first (at t=15 vs
        // t=20), so sequence order puts b first.
        assert_eq!(
            got,
            vec![
                ("a", 10),
                ("b", 15),
                ("a", 20),
                ("b", 30),
                ("a", 30),
                ("b", 45)
            ]
        );
    }

    #[test]
    fn block_and_wake() {
        let sim = Sim::new(SimConfig::default());
        let flag = Arc::new(AtomicU64::new(0));
        let waiter_id = Arc::new(Mutex::new(None));
        let (f2, w2) = (flag.clone(), waiter_id.clone());
        sim.spawn("waiter", false, move |t| {
            *w2.lock() = Some(t.id());
            t.block_until(|| (f2.load(O::SeqCst) == 7).then_some(()));
            assert_eq!(t.now().as_nanos(), 100);
        });
        let (f3, w3) = (flag, waiter_id);
        let simc = sim.clone();
        sim.spawn("setter", false, move |t| {
            t.advance(SimDuration::nanos(100));
            f3.store(7, O::SeqCst);
            let id = w3.lock().unwrap();
            simc.wake(id);
        });
        sim.run();
    }

    #[test]
    fn call_events_fire_in_order() {
        let sim = Sim::new(SimConfig::default());
        let log = Arc::new(Mutex::new(Vec::new()));
        let (l1, l2) = (log.clone(), log.clone());
        sim.call_at(SimTime(50), move |_| l1.lock().push(50));
        sim.call_at(SimTime(20), move |_| l2.lock().push(20));
        sim.spawn("t", false, move |t| {
            t.advance(SimDuration::nanos(100));
        });
        sim.run();
        assert_eq!(log.lock().clone(), vec![20, 50]);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_detected() {
        let sim = Sim::new(SimConfig::default());
        sim.spawn("stuck", false, move |t| {
            t.block(); // nobody will ever wake us
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn thread_panic_propagates() {
        let sim = Sim::new(SimConfig::default());
        sim.spawn("bad", false, move |t| {
            t.advance(SimDuration::nanos(5));
            panic!("boom");
        });
        sim.run();
    }

    #[test]
    fn daemon_does_not_block_completion() {
        let sim = Sim::new(SimConfig::default());
        sim.spawn("svc", true, move |t| loop {
            t.advance(SimDuration::secs(1)); // ticks forever
        });
        sim.spawn("work", false, move |t| {
            t.advance(SimDuration::millis(10));
        });
        sim.run();
        assert!(sim.now().as_nanos() >= 10_000_000);
    }

    #[test]
    fn spurious_wake_is_survivable() {
        let sim = Sim::new(SimConfig::default());
        let target = Arc::new(Mutex::new(None));
        let ready = Arc::new(AtomicU64::new(0));
        let (t2, r2) = (target.clone(), ready.clone());
        sim.spawn("w", false, move |t| {
            *t2.lock() = Some(t.id());
            t.block_until(|| (r2.load(O::SeqCst) == 1).then_some(()));
        });
        let simc = sim.clone();
        sim.spawn("noisy", false, move |t| {
            t.yield_now();
            let id = target.lock().unwrap();
            // Spurious wake (condition still false).
            simc.wake(id);
            t.advance(SimDuration::nanos(10));
            ready.store(1, O::SeqCst);
            simc.wake(id);
        });
        sim.run();
    }

    #[test]
    fn determinism_across_runs() {
        fn trace() -> Vec<(u64, u64)> {
            let sim = Sim::new(SimConfig::default());
            let log = Arc::new(Mutex::new(Vec::new()));
            for i in 0..8u64 {
                let log = log.clone();
                sim.spawn(&format!("t{i}"), false, move |t| {
                    for k in 0..4 {
                        t.advance(SimDuration::nanos(7 * i + k + 1));
                        log.lock().push((i, t.now().as_nanos()));
                    }
                });
            }
            sim.run();
            let v = log.lock().clone();
            v
        }
        assert_eq!(trace(), trace());
    }

    #[test]
    fn sched_stats_count_each_event_kind_once() {
        let sim = Sim::new(SimConfig::default());
        sim.call_at(SimTime(5), |_| {});
        // Alone at t=0..10: `a`'s advance pops its own wake (self-wake).
        sim.spawn("a", false, |t| t.advance(SimDuration::nanos(10)));
        sim.run();
        // Driver -> a (initial wake) and a -> driver (completion).
        assert_eq!(
            sim.sched_stats(),
            SchedStats {
                handoffs: 2,
                self_wakes: 1,
                calls: 1,
                stale_wakes: 0,
            }
        );
    }

    #[test]
    fn nested_spawn_during_run() {
        let sim = Sim::new(SimConfig::default());
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = hits.clone();
        let simc = sim.clone();
        sim.spawn("parent", false, move |t| {
            t.advance(SimDuration::nanos(10));
            let h3 = h2.clone();
            simc.spawn("child", false, move |t| {
                t.advance(SimDuration::nanos(5));
                h3.fetch_add(1, O::SeqCst);
            });
            t.advance(SimDuration::nanos(100));
            h2.fetch_add(1, O::SeqCst);
        });
        sim.run();
        assert_eq!(hits.load(O::SeqCst), 2);
    }

    /// A seeded schedule that exercises every path through dispatch: ties
    /// between equal advances, zero-duration advances, blocks released by
    /// other threads and by `Call` events, spurious wakes that land while
    /// the target is inside an advance (or blocked, or finished), `Call`
    /// events queued at instants that already hold wakes, and threads
    /// spawned mid-run. Every resume is logged as `(now, thread, step)`;
    /// the log's checksum and the dispatch counts are pinned, so any change
    /// to the `(time, seq)` order of events shows here.
    #[test]
    fn a_seeded_mixed_schedule_resumes_in_pinned_order() {
        use crate::checksum::Checksum;
        use crate::rng::splitmix64;

        const WORKERS: usize = 16;
        const STEPS: u64 = 48;
        const CHILDREN: u64 = 4;
        /// Step of a resume logged by a `Call` event rather than a thread.
        const CALL: u64 = u64::MAX;

        let sim = Sim::new(SimConfig { seed: 0x5eed_0de5 });
        let log = Arc::new(Mutex::new(Vec::<(u64, usize, u64)>::new()));
        // Blocked workers, in the order they blocked, and each one's
        // release flag.
        let waiting = Arc::new(Mutex::new(Vec::<SimThreadId>::new()));
        let released: Arc<Vec<AtomicBool>> =
            Arc::new((0..=WORKERS).map(|_| AtomicBool::new(false)).collect());
        let finished = Arc::new(AtomicU64::new(0));
        let children = Arc::new(AtomicU64::new(0));

        fn release_first(sim: &Sim, waiting: &Mutex<Vec<SimThreadId>>, released: &[AtomicBool]) {
            let first = {
                let mut w = waiting.lock();
                (!w.is_empty()).then(|| w.remove(0))
            };
            if let Some(id) = first {
                released[id.0].store(true, O::SeqCst);
                sim.wake(id);
            }
        }

        for w in 0..WORKERS {
            let (sim2, log, waiting, released, finished, children) = (
                sim.clone(),
                log.clone(),
                waiting.clone(),
                released.clone(),
                finished.clone(),
                children.clone(),
            );
            sim.spawn(&format!("w{w}"), false, move |t| {
                let me = t.id();
                let mut rng = splitmix64(sim2.seed() ^ w as u64);
                for step in 0..STEPS {
                    rng = splitmix64(rng);
                    let pick = rng % 16;
                    let arg = (rng >> 8) % 4;
                    match pick {
                        // Equal durations: many threads land on one instant.
                        0..=5 => t.advance(SimDuration::nanos(5 * arg)),
                        6 | 7 => t.yield_now(),
                        8 | 9 => {
                            waiting.lock().push(me);
                            t.block_until(|| released[me.0].swap(false, O::SeqCst).then_some(()));
                        }
                        10 | 11 => {
                            release_first(&sim2, &waiting, &released);
                            t.advance(SimDuration::nanos(arg));
                        }
                        12 => {
                            // Spurious: the target is advancing, blocked
                            // (its flag stays clear) or already done.
                            let target = 1 + ((rng >> 16) as usize % WORKERS);
                            sim2.wake(SimThreadId(target));
                            t.yield_now();
                        }
                        13 | 14 => {
                            // A call at an instant other threads' wakes
                            // already occupy; half of them release a waiter.
                            let (log, waiting, released) =
                                (log.clone(), waiting.clone(), released.clone());
                            let at = sim2.now() + SimDuration::nanos(5 * arg);
                            sim2.call_at(at, move |sim| {
                                log.lock().push((sim.now().as_nanos(), me.0, CALL));
                                if arg.is_multiple_of(2) {
                                    release_first(sim, &waiting, &released);
                                }
                            });
                            t.advance(SimDuration::nanos(5));
                        }
                        _ => {
                            if children.fetch_add(1, O::SeqCst) < CHILDREN {
                                let log = log.clone();
                                sim2.spawn(&format!("w{w}.child"), false, move |c| {
                                    for k in 0..6 {
                                        c.advance(SimDuration::nanos(5 * (k % 2)));
                                        log.lock().push((c.now().as_nanos(), c.id().0, k));
                                    }
                                });
                            }
                            t.yield_now();
                        }
                    }
                    log.lock().push((t.now().as_nanos(), me.0, step));
                }
                finished.fetch_add(1, O::SeqCst);
            });
        }
        // Releases whoever is still blocked until every worker is done.
        let (sim2, waiting2, released2) = (sim.clone(), waiting.clone(), released.clone());
        sim.spawn("releaser", false, move |t| {
            while finished.load(O::SeqCst) < WORKERS as u64 {
                t.advance(SimDuration::nanos(7));
                while !waiting2.lock().is_empty() {
                    release_first(&sim2, &waiting2, &released2);
                }
            }
        });
        sim.run();

        let log = log.lock().clone();
        assert_eq!(log.len(), 901, "resumes logged");
        let mut sum = Checksum::new();
        for (now, thread, step) in &log {
            sum.update_u64(*now);
            sum.update_u64(*thread as u64);
            sum.update_u64(*step);
        }
        assert_eq!(
            (sum.digest(), sim.now().as_nanos(), sim.thread_count()),
            (11052759633991801516, 231, 21),
            "resume order"
        );
        assert_eq!(
            sim.sched_stats(),
            SchedStats {
                handoffs: 775,
                self_wakes: 112,
                calls: 109,
                stale_wakes: 7,
            }
        );
    }

    // ---- what running on hand-made stacks has to get right ----

    /// Run `sim` and return what `run()` panicked with.
    fn run_failing(sim: &Sim) -> Box<dyn std::any::Any + Send> {
        panic::catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("run() must fail")
    }

    #[test]
    fn entry_frame_keeps_the_abi_stack_alignment() {
        #[repr(align(32))]
        struct Wide([f64; 4]);
        let sim = Sim::new(SimConfig::default());
        let out = Arc::new(Mutex::new(String::new()));
        let o2 = out.clone();
        sim.spawn("t", false, move |t| {
            // Off by 8 at the entry `call` and the aligned SSE spills in
            // float formatting (and this local) fault.
            let wide = std::hint::black_box(Wide([0.1, 0.2, 0.3, 0.4]));
            assert_eq!(std::ptr::from_ref(&wide) as usize % 32, 0);
            t.advance(SimDuration::nanos(1));
            *o2.lock() = format!("{:.3} {:e}", wide.0.iter().sum::<f64>(), wide.0[3]);
        });
        sim.run();
        assert_eq!(*out.lock(), "1.000 4e-1");
    }

    #[test]
    fn a_body_can_use_256_kib_of_stack() {
        /// Recurse until `want` bytes of stack lie between here and `base`.
        fn dive(base: usize, want: usize, t: &SimThread) -> u64 {
            let pad = std::hint::black_box([1u8; 1024]);
            if base - (pad.as_ptr() as usize) < want {
                return dive(base, want, t) + u64::from(pad[512]);
            }
            t.advance(SimDuration::nanos(1)); // park at the bottom
            0
        }
        let sim = Sim::new(SimConfig::default());
        let frames = Arc::new(AtomicU64::new(0));
        let f2 = frames.clone();
        sim.spawn("deep", false, move |t| {
            let base = 0u8;
            let depth = dive(std::ptr::from_ref(&base) as usize, 256 * 1024, &t);
            f2.store(depth, O::SeqCst);
        });
        sim.spawn("other", false, |t| t.advance(SimDuration::nanos(2)));
        sim.run();
        assert!(frames.load(O::SeqCst) >= 64);
    }

    #[test]
    fn a_panic_unwinds_every_parked_thread_exactly_once() {
        struct CountDrop(Arc<Vec<AtomicU64>>, usize);
        impl Drop for CountDrop {
            fn drop(&mut self) {
                self.0[self.1].fetch_add(1, O::SeqCst);
            }
        }
        let drops: Arc<Vec<AtomicU64>> = Arc::new((0..101).map(|_| AtomicU64::new(0)).collect());
        let sim = Sim::new(SimConfig::default());
        for i in 0..100 {
            let guard = CountDrop(drops.clone(), i);
            sim.spawn(&format!("parked{i}"), false, move |t| {
                let _held_across_the_park = guard;
                t.block();
                unreachable!("nobody wakes a parked thread");
            });
        }
        // Never started: its body (and what it captured) is dropped unrun.
        let unstarted = CountDrop(drops.clone(), 100);
        sim.call_at(SimTime(5), move |sim| {
            sim.spawn("late", false, move |_| {
                let _captured = unstarted;
                unreachable!("spawned at the instant of the failure, after it in sequence");
            });
        });
        sim.spawn("bad", false, |t| {
            t.advance(SimDuration::nanos(5));
            panic!("boom");
        });
        let payload = run_failing(&sim);
        let msg = payload.downcast_ref::<String>().expect("a message panic");
        assert_eq!(msg, "simulation failed: thread 'bad': boom");
        let counts: Vec<u64> = drops.iter().map(|d| d.load(O::SeqCst)).collect();
        assert_eq!(counts, vec![1; 101]);
    }

    #[test]
    fn quiet_abort_is_re_raised_as_quiet_abort() {
        let sim = Sim::new(SimConfig::default());
        sim.spawn("parked", false, |t| t.block());
        sim.spawn("quiet", false, |t| {
            t.advance(SimDuration::nanos(5));
            panic::panic_any(QuietAbort);
        });
        assert!(run_failing(&sim).is::<QuietAbort>());
    }

    #[test]
    fn a_sim_runs_inside_another_sims_thread() {
        let outer = Sim::new(SimConfig::default());
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = seen.clone();
        outer.spawn("host", false, move |t| {
            t.advance(SimDuration::nanos(10));
            let inner = Sim::new(SimConfig::default());
            for step in [3u64, 4] {
                inner.spawn("guest", false, move |t| {
                    for _ in 0..5 {
                        t.advance(SimDuration::nanos(step));
                    }
                });
            }
            inner.run();
            s2.store(inner.now().as_nanos(), O::SeqCst);
            t.advance(SimDuration::nanos(10));
        });
        outer.spawn("peer", false, |t| t.advance(SimDuration::nanos(15)));
        outer.run();
        assert_eq!(seen.load(O::SeqCst), 20);
        assert_eq!(outer.now().as_nanos(), 20);
    }

    #[test]
    fn parking_with_a_lock_guard_held_fails_naming_the_thread() {
        // The driver's own guard, live across `run`, is not the body's.
        let outside = Mutex::new(());
        let _driver_guard = outside.lock();
        let sim = Sim::new(SimConfig::default());
        let shared = Arc::new(Mutex::new(0u64));
        let s2 = shared.clone();
        sim.spawn("rank 17", false, move |t| {
            let mut g = s2.lock();
            *g += 1;
            t.advance(SimDuration::nanos(5));
        });
        sim.spawn("peer", false, move |t| {
            t.advance(SimDuration::nanos(1));
            *shared.lock() += 1;
        });
        let payload = run_failing(&sim);
        let msg = payload.downcast_ref::<String>().expect("a message panic");
        assert_eq!(
            msg,
            "simulation failed: thread 'rank 17': parked holding 1 lock guard"
        );
    }

    #[test]
    fn parking_on_behalf_of_another_thread_is_refused() {
        let sim = Sim::new(SimConfig::default());
        let handle = Arc::new(Mutex::new(None));
        let h2 = handle.clone();
        sim.spawn("owner", false, move |t| {
            *h2.lock() = Some(t.clone());
            t.block();
        });
        sim.spawn("thief", false, move |t| {
            t.yield_now();
            let owner = handle.lock().take().expect("owner ran first");
            owner.block(); // would save this stack as the owner's context
        });
        sim.spawn("bystander", false, |t| t.advance(SimDuration::nanos(100)));
        let payload = run_failing(&sim);
        let msg = payload.downcast_ref::<String>().expect("a message panic");
        assert!(msg.contains("thread 'thief'") && msg.contains("another thread's stack"));
    }
}
