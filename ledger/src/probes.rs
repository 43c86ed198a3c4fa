//! Micro-probes of `sim.sched`, the layer every session workload spends
//! most of its host time in but which offers no call boundary to put a span
//! around: the cost of one baton hand-off, one dispatched closure event and
//! one simulated-thread spawn, measured through the public `Sim` API.

use crate::host::Affinity;
use mana_sim::sched::{Sim, SimConfig};
use mana_sim::time::{SimDuration, SimTime};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const HANDOFFS: u64 = 50_000;
const EVENTS: u64 = 200_000;
const SPAWNS: u64 = 512;

/// Two simulated threads alternating `advance(1 ns)`: every advance parks
/// the caller and wakes the other. Host ns per hand-off.
fn handoff_ns() -> f64 {
    let sim = Sim::new(SimConfig::default());
    for name in ["ping", "pong"] {
        sim.spawn(name, false, |t| {
            for _ in 0..HANDOFFS / 2 {
                t.advance(SimDuration(1));
            }
        });
    }
    let t0 = Instant::now();
    sim.run();
    t0.elapsed().as_nanos() as f64 / HANDOFFS as f64
}

/// `EVENTS` closure events dispatched while one thread sleeps past them.
/// Host ns per event, scheduling included.
fn call_event_ns() -> f64 {
    let sim = Sim::new(SimConfig::default());
    let hits = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    for i in 0..EVENTS {
        let hits = hits.clone();
        sim.call_at(SimTime(i + 1), move |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
    }
    sim.spawn("sleeper", false, |t| t.advance(SimDuration(EVENTS + 1)));
    sim.run();
    let ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(black_box(hits.load(Ordering::Relaxed)), EVENTS);
    ns / EVENTS as f64
}

/// Spawn, run and tear down `SPAWNS` simulated threads that do nothing.
/// Host µs per thread.
fn spawn_us() -> f64 {
    let t0 = Instant::now();
    let sim = Sim::new(SimConfig::default());
    for _ in 0..SPAWNS {
        sim.spawn("noop", false, |_| {});
    }
    sim.run();
    drop(sim);
    t0.elapsed().as_secs_f64() * 1e6 / SPAWNS as f64
}

/// The `sim.sched` probe metrics. Must be called from the pinned main
/// thread; the unpinned comparison releases the affinity and restores it.
pub fn sched(affinity: &Affinity) -> Vec<(&'static str, f64)> {
    let pinned = handoff_ns();
    // Informational: the reason the harness pins. On one allowed CPU the
    // ratio is 1 by construction.
    let unpinned_ratio = if affinity.release() {
        let unpinned = handoff_ns();
        affinity.pin_one();
        unpinned / pinned
    } else {
        1.0
    };
    vec![
        ("sim.sched.handoff_ns", pinned),
        ("sim.sched.handoff_unpinned_ratio", unpinned_ratio),
        ("sim.sched.call_event_ns", call_event_ns()),
        ("sim.sched.spawn_us", spawn_us()),
    ]
}
