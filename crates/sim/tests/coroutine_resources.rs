//! What simulated threads cost the process, and that they give it back.
//!
//! Every check reads a process-wide counter (`/proc/self/status`,
//! `/proc/self/maps`), so they run one after another inside a single test:
//! the harness's own threads would otherwise move the numbers.

use mana_sim::sched::{Sim, SimConfig};
use mana_sim::time::{SimDuration, SimTime};
use std::fs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One numeric field of `/proc/self/status` (`VmRSS: 1234 kB`).
fn proc_status(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .expect("field present");
    let value = line.split_whitespace().next().expect("a number");
    value.parse().expect("a number")
}

/// Mappings of this process; every stack held is two of them.
fn mappings() -> usize {
    fs::read_to_string("/proc/self/maps")
        .expect("procfs")
        .lines()
        .count()
}

struct CountDrop(Arc<AtomicUsize>);
impl Drop for CountDrop {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// A `Sim` that is spawned into and never run used to leave every thread
/// parked on its gate for ever, holding the simulation alive.
fn an_unrun_sim_frees_bodies_and_stacks() {
    let os_threads = proc_status("Threads");
    let maps = mappings();
    let drops = Arc::new(AtomicUsize::new(0));
    for _ in 0..200 {
        let sim = Sim::new(SimConfig::default());
        for i in 0..8 {
            let token = CountDrop(drops.clone());
            sim.spawn(&format!("t{i}"), false, move |t| {
                let _captured = token;
                t.advance(SimDuration::nanos(1));
            });
        }
        assert_eq!(sim.thread_count(), 8);
    }
    assert_eq!(drops.load(Ordering::SeqCst), 1600);
    assert_eq!(proc_status("Threads"), os_threads);
    // 8 stacks at a time, reused: nowhere near the 3 200 mappings of 1 600.
    assert!(mappings() < maps + 64, "{} -> {}", maps, mappings());
}

/// A finished thread's stack is released by the next one to finish, not
/// kept until the `Sim` goes.
fn finished_threads_give_their_stacks_back() {
    let sim = Sim::new(SimConfig::default());
    let peak = Arc::new(AtomicUsize::new(0));
    let (p2, simc) = (peak.clone(), sim.clone());
    let maps = mappings();
    sim.spawn("parent", false, move |t| {
        for i in 0..10_000 {
            simc.spawn("child", false, |t| t.advance(SimDuration::nanos(1)));
            t.advance(SimDuration::nanos(2)); // the child runs and finishes
            if i % 1000 == 999 {
                p2.fetch_max(mappings(), Ordering::SeqCst);
            }
        }
    });
    sim.run();
    assert_eq!(sim.thread_count(), 10_001);
    let peak = peak.load(Ordering::SeqCst);
    assert!(peak < maps + 64, "{maps} -> {peak} mappings");
}

/// Booting, running and dropping simulations holds nothing afterwards: a
/// thread that left owning a `Sim` handle would keep the simulation (here,
/// its never-dispatched event) alive, one that kept its stack, the pages.
fn boot_run_drop_cycles_do_not_grow_the_process() {
    let freed = Arc::new(AtomicUsize::new(0));
    let cycle = || {
        let sim = Sim::new(SimConfig::default());
        let token = CountDrop(freed.clone());
        sim.call_at(SimTime(1 << 40), move |_| drop(token));
        for step in 1..=4u64 {
            sim.spawn("t", false, move |t| {
                for _ in 0..3 {
                    t.advance(SimDuration::nanos(step));
                }
            });
        }
        sim.spawn("svc", true, |t| loop {
            t.advance(SimDuration::nanos(5));
        });
        sim.run();
    };
    for _ in 0..20 {
        cycle(); // allocator and stack pool warm
    }
    let rss_kb = proc_status("VmRSS");
    for _ in 0..2000 {
        cycle();
    }
    let grown_kb = proc_status("VmRSS").saturating_sub(rss_kb);
    assert!(grown_kb < 8 * 1024, "VmRSS grew by {grown_kb} kB");
    assert_eq!(freed.load(Ordering::SeqCst), 2020);
}

#[test]
fn simulated_threads_give_back_what_they_take() {
    an_unrun_sim_frees_bodies_and_stacks();
    finished_threads_give_their_stacks_back();
    boot_run_drop_cycles_do_not_grow_the_process();
}
