//! `Mpi::iprobe_every` against the literal poll loop it replaces.
//!
//! No literal loop is kept in the product as a reference: the one in
//! `common` is written here, against the public `advance` / `iprobe` /
//! `wait_any_message` API. For any arrival schedule the two receivers must
//! match at the same simulated instant with the same `Status`, and leave
//! the rest of the job — every other rank's completion instants, their
//! order, the final `Sim::now()` — exactly as it was.

mod common;

use common::{poll_fast_forward, poll_literal, Poll};
use mana_mpi::{launch_native, MpiProfile, Msg, SrcSpec, Status, TagSpec};
use mana_net::LinkModel;
use mana_sim::cluster::{ClusterSpec, InterconnectKind, Placement};
use mana_sim::sched::{Sim, SimConfig, SimThreadId};
use mana_sim::time::{SimDuration, SimTime};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

const NOISE: u32 = 1; // shares the receiver's node: shared-memory latency
const HIT_A: u32 = 2; // other node: Aries latency
const HIT_TAG: i32 = 7;
const REPLY_TAG: i32 = 99;
const HIT_BYTES: usize = 24;

#[derive(Clone, Debug)]
struct Schedule {
    /// Caller-side cost before each probe (the wrapper's FS round-trip).
    gap: u64,
    /// Rank 1's sends: (pause before the send, tag). Never `HIT_TAG`.
    noise: Vec<(u64, i32)>,
    /// Pause before rank 2's `HIT_TAG` send.
    hit_a: u64,
    /// Pause before rank 3's `HIT_TAG` send (its node-mate): a second match under
    /// `SrcSpec::Any`, one more unmatched message under `SrcSpec::Rank(2)`.
    hit_b: u64,
    /// Pauses between wakes of the receiver that deliver nothing.
    wakes: Vec<u64>,
    any_source: bool,
}

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Observed {
    /// (rank, what, when[, status]) in execution order, all ranks.
    events: Vec<(u32, &'static str, SimTime, Option<Status>)>,
    end: SimTime,
}

struct Run {
    observed: Observed,
    /// Instants at which the receiver looked at its queue.
    polls: Vec<SimTime>,
    /// When rank 2's `HIT_TAG` message reached the receiver's inbox.
    hit_a_arrival: SimTime,
    /// Wake events the scheduler dispatched (a hand-off each whenever any
    /// other thread is runnable in between, as in a real job).
    wakes: u64,
}

fn run(s: &Schedule, profile: MpiProfile, poll: Poll) -> Run {
    let sim = Sim::new(SimConfig::default());
    let events = Arc::new(Mutex::new(Vec::new()));
    let polls = Arc::new(Mutex::new(Vec::new()));
    let arrival = Arc::new(Mutex::new(SimTime::ZERO));
    let rx_tid: Arc<Mutex<Option<SimThreadId>>> = Arc::new(Mutex::new(None));
    let init_done = profile.init_cost;

    {
        let (s, events, polls, arrival, rx_tid) = (
            s.clone(),
            events.clone(),
            polls.clone(),
            arrival.clone(),
            rx_tid.clone(),
        );
        launch_native(
            &sim,
            ClusterSpec::cori(2),
            4,
            Placement::Block,
            profile,
            Arc::new(move |t, mpi, r| {
                let world = mpi.comm_world();
                let note = |what, st| events.lock().push((r, what, t.now(), st));
                if r == 0 {
                    *rx_tid.lock() = Some(t.id());
                    let src = if s.any_source {
                        SrcSpec::Any
                    } else {
                        SrcSpec::Rank(HIT_A)
                    };
                    let mut looked = Vec::new();
                    let st = poll(
                        t,
                        mpi,
                        SimDuration::nanos(s.gap),
                        src,
                        TagSpec::Tag(HIT_TAG),
                        world,
                        &mut looked,
                    );
                    *polls.lock() = looked;
                    note("probe hit", Some(st));
                    let (data, st) =
                        mpi.recv(t, SrcSpec::Rank(st.source), TagSpec::Tag(st.tag), world);
                    assert_eq!(data.len(), HIT_BYTES);
                    note("received", Some(st));
                    for peer in 1..4 {
                        mpi.send(t, Msg::real(&[0]), peer, REPLY_TAG, world);
                    }
                } else {
                    let sends = match r {
                        NOISE => s.noise.clone(),
                        HIT_A => vec![(s.hit_a, HIT_TAG)],
                        _ => vec![(s.hit_b, HIT_TAG)],
                    };
                    for (pause, tag) in sends {
                        t.advance(SimDuration::nanos(pause));
                        mpi.send(t, Msg::real(&[r as u8; HIT_BYTES]), 0, tag, world);
                        note("sent", None);
                        if r == HIT_A {
                            // An eager send returns as the message leaves;
                            // nothing else queues on this sender's link.
                            let wire = LinkModel::for_path(InterconnectKind::Aries, false)
                                .wire_time(mana_mpi::wire::CTRL_FRAME_BYTES + HIT_BYTES as u64);
                            *arrival.lock() = t.now() + wire;
                        }
                    }
                    mpi.recv(t, SrcSpec::Rank(0), TagSpec::Tag(REPLY_TAG), world);
                    note("reply", None);
                }
            }),
        );
    }
    {
        let (wakes, sim2) = (s.wakes.clone(), sim.clone());
        sim.spawn("waker", false, move |t| {
            t.advance(init_done);
            for pause in wakes {
                t.advance(SimDuration::nanos(pause));
                if let Some(tid) = *rx_tid.lock() {
                    sim2.wake(tid);
                }
            }
        });
    }
    sim.run();
    let events = std::mem::take(&mut *events.lock());
    let polls = std::mem::take(&mut *polls.lock());
    let hit_a_arrival = *arrival.lock();
    Run {
        observed: Observed {
            events,
            end: sim.now(),
        },
        polls,
        hit_a_arrival,
        wakes: sim.sched_stats().handoffs + sim.sched_stats().self_wakes,
    }
}

/// Move rank 2's send so that its message arrives exactly on the poll
/// instant at which the literal receiver first saw it.
fn align_hit_a_to_a_poll(s: &mut Schedule, profile: &MpiProfile) {
    let probe = run(s, profile.clone(), poll_literal);
    if let Some(on) = probe.polls.iter().find(|p| **p >= probe.hit_a_arrival) {
        s.hit_a += on.since(probe.hit_a_arrival).as_nanos();
    }
}

#[test]
fn delivery_exactly_on_a_poll_instant() {
    let profile = MpiProfile::cray_mpich();
    let mut s = Schedule {
        gap: 260,
        noise: vec![(0, 1), (900, 2)],
        hit_a: 20_000,
        hit_b: 60_000,
        wakes: vec![],
        any_source: false,
    };
    align_hit_a_to_a_poll(&mut s, &profile);
    let literal = run(&s, profile.clone(), poll_literal);
    let fast = run(&s, profile, poll_fast_forward);

    // The schedule really does put the delivery on the literal grid, the
    // literal loop sees it at that very poll, and so does the primitive.
    assert!(literal.polls.contains(&literal.hit_a_arrival));
    assert_eq!(literal.polls.last(), Some(&literal.hit_a_arrival));
    assert_eq!(literal.observed, fast.observed);
    // ...with a handful of looks instead of one per 320 ns of waiting.
    assert!(literal.polls.len() > 50, "{} polls", literal.polls.len());
    assert!(fast.polls.len() < 10, "{:?}", fast.polls);
    assert!(
        fast.wakes + 100 < literal.wakes,
        "fast-forward saved nothing: {} vs {} wakes",
        fast.wakes,
        literal.wakes
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fast_forward_is_indistinguishable_from_the_literal_loop(
        gap in 100u64..600,
        noise in prop::collection::vec((0u64..4_000, 1i32..5), 0..4),
        hit_a in 0u64..30_000,
        hit_b in 0u64..30_000,
        wakes in prop::collection::vec(0u64..5_000, 0..6),
        any_source in any::<bool>(),
        align in any::<bool>(),
        profile_idx in 0usize..3,
    ) {
        let profile = [
            MpiProfile::cray_mpich(),
            MpiProfile::open_mpi(),
            MpiProfile::mpich(),
        ][profile_idx]
            .clone();
        let mut s = Schedule { gap, noise, hit_a, hit_b, wakes, any_source };
        if align {
            align_hit_a_to_a_poll(&mut s, &profile);
        }
        let literal = run(&s, profile.clone(), poll_literal);
        let fast = run(&s, profile, poll_fast_forward);
        prop_assert_eq!(&literal.observed, &fast.observed, "{:?}", s);
        // Every instant the primitive looked at is one the literal loop
        // looked at too.
        for p in &fast.polls {
            prop_assert!(literal.polls.contains(p), "{:?}: poll at {:?} off the grid", s, p);
        }
        prop_assert!(fast.wakes <= literal.wakes);
    }
}
