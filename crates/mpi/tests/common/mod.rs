//! The literal poll loop that [`Mpi::iprobe_every`] fast-forwards, and the
//! same loop written with the primitive — both against the public API
//! only. The literal loop exists nowhere in the product any more; it is
//! kept here as the reference the equivalence tests compare against.

use mana_mpi::{CommHandle, Mpi, SrcSpec, Status, TagSpec};
use mana_sim::sched::SimThread;
use mana_sim::time::{SimDuration, SimTime};

/// How a receiver waits for a matching message to become probe-able.
pub type Poll = fn(
    &SimThread,
    &dyn Mpi,
    SimDuration,
    SrcSpec,
    TagSpec,
    CommHandle,
    &mut Vec<SimTime>,
) -> Status;

/// Probe, and if that misses wait for message activity, forever: `gap` of
/// caller-side work (MANA's FS round-trip) precedes every probe. While
/// unmatched data is queued `wait_any_message` returns at once, so this
/// spins through the scheduler once per `gap + per_call_cpu`. Every poll
/// instant is appended to `polls`.
pub fn poll_literal(
    t: &SimThread,
    mpi: &dyn Mpi,
    gap: SimDuration,
    src: SrcSpec,
    tag: TagSpec,
    comm: CommHandle,
    polls: &mut Vec<SimTime>,
) -> Status {
    loop {
        t.advance(gap);
        let hit = mpi.iprobe(t, src, tag, comm);
        polls.push(t.now());
        if let Some(st) = hit {
            return st;
        }
        mpi.wait_any_message(t);
    }
}

/// The same wait with the back-to-back polls fast-forwarded. `polls`
/// records only the instants at which this loop actually looked.
pub fn poll_fast_forward(
    t: &SimThread,
    mpi: &dyn Mpi,
    gap: SimDuration,
    src: SrcSpec,
    tag: TagSpec,
    comm: CommHandle,
    polls: &mut Vec<SimTime>,
) -> Status {
    loop {
        let iteration_start = t.now();
        t.advance(gap);
        let mut hit = mpi.iprobe(t, src, tag, comm);
        polls.push(t.now());
        if hit.is_none() {
            let period = t.now().since(iteration_start);
            hit = mpi.iprobe_every(t, period, src, tag, comm);
            polls.push(t.now());
        }
        if let Some(st) = hit {
            return st;
        }
        mpi.wait_any_message(t);
    }
}
