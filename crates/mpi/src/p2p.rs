//! Point-to-point engine: matching, eager and rendezvous protocols.
//!
//! One engine instance is shared by all ranks of a job (it plays the role
//! of the implementation-internal progress engine). Matching follows MPI
//! semantics: `(source, tag, communicator)` with wildcards, non-overtaking
//! per (source, tag, communicator) because the transport is FIFO per pair
//! and the unexpected queue is scanned in arrival order.
//!
//! Protocols:
//!
//! * **eager** (`modeled ≤ threshold`): the send completes as soon as the
//!   payload is handed to the fabric;
//! * **rendezvous** (`modeled > threshold`): the send blocks until the
//!   receiver acknowledges the payload, so a large send cannot complete
//!   before the receiver has arrived. MANA's drain phase acknowledges
//!   pending rendezvous data from the helper thread, which is what
//!   guarantees senders always reach a checkpoint-safe point.
//!
//! The engine deliberately exposes wildcard "drain" receives
//! ([`P2pEngine::try_steal_any`]) that ordinary MPI code never uses: they
//! are the hook MANA's bookmark-exchange drain is built on.

use crate::types::{Rank, SrcSpec, Status, Tag, TagSpec};
use crate::wire::Wire;
use mana_net::transport::{EndpointId, Network};
use mana_net::LinkModel;
use mana_sim::cluster::InterconnectKind;
use mana_sim::sched::SimThread;
use mana_sim::time::SimDuration;
use parking_lot::Mutex;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Panic payload raised by blocking MPI operations when the job is aborted
/// (`MPI_Abort` semantics). MANA's runner catches it for clean teardown of
/// migrating jobs.
pub struct MpiAborted;

/// Check the job abort flag; unwind if set.
pub(crate) fn abort_point(flag: &AtomicBool) {
    if flag.load(Ordering::SeqCst) {
        std::panic::panic_any(MpiAborted);
    }
}

/// A message delivered to a rank but not yet matched by a receive.
#[derive(Clone, Debug)]
pub struct Arrived {
    /// Sender's global rank.
    pub src: Rank,
    /// Tag.
    pub tag: Tag,
    /// Communicator context id.
    pub ctx: u64,
    /// Payload.
    pub data: Vec<u8>,
    /// Modelled size.
    pub modeled: u64,
    /// Rendezvous token to acknowledge on match.
    pub ack_token: Option<u64>,
}

struct RankQ {
    unexpected: VecDeque<Arrived>,
    acks: HashSet<u64>,
}

/// Shared point-to-point engine for one job.
pub struct P2pEngine {
    net: Arc<Network<Wire>>,
    eps: Vec<EndpointId>,
    queues: Vec<Mutex<RankQ>>,
    next_token: AtomicU64,
    fabric: InterconnectKind,
    abort: Arc<AtomicBool>,
}

impl P2pEngine {
    /// Build an engine over `net` with one endpoint per global rank.
    /// `abort` is the job-wide abort flag: blocking operations unwind with
    /// [`MpiAborted`] once it is set.
    pub fn new(net: Arc<Network<Wire>>, eps: Vec<EndpointId>, abort: Arc<AtomicBool>) -> P2pEngine {
        let fabric = net.fabric();
        let queues = (0..eps.len())
            .map(|_| {
                Mutex::new(RankQ {
                    unexpected: VecDeque::new(),
                    acks: HashSet::new(),
                })
            })
            .collect();
        P2pEngine {
            net,
            eps,
            queues,
            next_token: AtomicU64::new(1),
            fabric,
            abort,
        }
    }

    /// The endpoint of `rank`.
    pub fn endpoint(&self, rank: Rank) -> EndpointId {
        self.eps[rank as usize]
    }

    fn link_for(&self, a: Rank, b: Rank) -> LinkModel {
        let intra =
            self.net.node_of(self.eps[a as usize]) == self.net.node_of(self.eps[b as usize]);
        LinkModel::for_path(self.fabric, intra)
    }

    /// Move everything the fabric has delivered for `me` into the matching
    /// structures. Returns true if anything new arrived.
    pub fn pump(&self, me: Rank) -> bool {
        let msgs = self.net.drain_inbox(self.eps[me as usize]);
        if msgs.is_empty() {
            return false;
        }
        let mut q = self.queues[me as usize].lock();
        for m in msgs {
            match m {
                Wire::Data {
                    src,
                    tag,
                    ctx,
                    payload,
                    modeled,
                    ack_token,
                } => q.unexpected.push_back(Arrived {
                    src,
                    tag,
                    ctx,
                    data: payload,
                    modeled,
                    ack_token,
                }),
                Wire::Ack { token } => {
                    q.acks.insert(token);
                }
            }
        }
        true
    }

    /// Blocking send from global rank `from` to global rank `to`.
    #[allow(clippy::too_many_arguments)]
    pub fn send(
        &self,
        t: &SimThread,
        from: Rank,
        to: Rank,
        tag: Tag,
        ctx: u64,
        data: &[u8],
        modeled: u64,
        eager_threshold: u64,
    ) {
        let link = self.link_for(from, to);
        t.advance(link.per_message_cpu);
        let eager = modeled <= eager_threshold;
        let ack_token = if eager {
            None
        } else {
            Some(self.next_token.fetch_add(1, Ordering::Relaxed))
        };
        let wire = Wire::Data {
            src: from,
            tag,
            ctx,
            payload: data.to_vec(),
            modeled,
            ack_token,
        };
        let bytes = wire.modeled_bytes();
        self.net
            .send(self.eps[from as usize], self.eps[to as usize], bytes, wire);
        if let Some(token) = ack_token {
            self.wait_ack(t, from, token);
        }
    }

    /// Nonblocking send; returns a rendezvous token to wait on, or `None`
    /// if the send completed eagerly.
    #[allow(clippy::too_many_arguments)]
    pub fn isend(
        &self,
        t: &SimThread,
        from: Rank,
        to: Rank,
        tag: Tag,
        ctx: u64,
        data: &[u8],
        modeled: u64,
        eager_threshold: u64,
    ) -> Option<u64> {
        let link = self.link_for(from, to);
        t.advance(link.per_message_cpu);
        let eager = modeled <= eager_threshold;
        let ack_token = if eager {
            None
        } else {
            Some(self.next_token.fetch_add(1, Ordering::Relaxed))
        };
        let wire = Wire::Data {
            src: from,
            tag,
            ctx,
            payload: data.to_vec(),
            modeled,
            ack_token,
        };
        let bytes = wire.modeled_bytes();
        self.net
            .send(self.eps[from as usize], self.eps[to as usize], bytes, wire);
        ack_token
    }

    /// Block until rendezvous `token` is acknowledged.
    pub fn wait_ack(&self, t: &SimThread, me: Rank, token: u64) {
        let _waiting = self.net.waiter(self.eps[me as usize], t.id());
        loop {
            abort_point(&self.abort);
            self.pump(me);
            if self.queues[me as usize].lock().acks.remove(&token) {
                break;
            }
            t.block();
        }
    }

    /// Blocking matched receive for `me`. Returns payload and status with a
    /// *global* source rank (callers translate to communicator-local).
    pub fn recv(
        &self,
        t: &SimThread,
        me: Rank,
        src: SrcSpec,
        tag: TagSpec,
        ctx: u64,
    ) -> (Vec<u8>, Status) {
        let msg = {
            let _waiting = self.net.waiter(self.eps[me as usize], t.id());
            loop {
                abort_point(&self.abort);
                self.pump(me);
                if let Some(m) = self.take_match(me, |a| {
                    src.matches(a.src) && tag.matches(a.tag) && a.ctx == ctx
                }) {
                    break m;
                }
                t.block();
            }
        };
        self.finish_match(t, me, &msg);
        let status = Status {
            source: msg.src,
            tag: msg.tag,
            bytes: msg.data.len() as u64,
            modeled_bytes: msg.modeled,
        };
        (msg.data, status)
    }

    /// Nonblocking probe (message left queued).
    pub fn iprobe(&self, me: Rank, src: SrcSpec, tag: TagSpec, ctx: u64) -> Option<Status> {
        self.pump(me);
        let q = self.queues[me as usize].lock();
        q.unexpected
            .iter()
            .find(|a| src.matches(a.src) && tag.matches(a.tag) && a.ctx == ctx)
            .map(|a| Status {
                source: a.src,
                tag: a.tag,
                bytes: a.data.len() as u64,
                modeled_bytes: a.modeled,
            })
    }

    /// Drain hook: steal the oldest queued message for `me` regardless of
    /// tag/source/communicator, acknowledging rendezvous data so blocked
    /// senders make progress. Used only by MANA's checkpoint drain.
    pub fn try_steal_any(&self, t: &SimThread, me: Rank) -> Option<Arrived> {
        self.pump(me);
        let msg = self.take_match(me, |_| true)?;
        self.finish_match(t, me, &msg);
        Some(msg)
    }

    /// Park until message activity may have occurred for `me` (returns
    /// immediately if anything is already queued). Spurious wakeups are
    /// possible; callers loop.
    pub fn wait_any(&self, t: &SimThread, me: Rank) {
        abort_point(&self.abort);
        self.pump(me);
        {
            // Only unmatched *data* short-circuits the wait: returning on a
            // lingering ack would make a receive loop spin (acks are only
            // consumed by send-completion waits).
            let q = self.queues[me as usize].lock();
            if !q.unexpected.is_empty() {
                return;
            }
        }
        self.park_for_delivery(t, me);
        abort_point(&self.abort);
        self.pump(me);
    }

    /// Engine side of [`crate::Mpi::iprobe_every`] (which says when it
    /// applies and why): the result of polling `iprobe` every `period`
    /// from now, reached with one park instead of one scheduler round-trip
    /// per poll.
    ///
    /// With nothing unmatched queued for `me` — the state in which
    /// [`P2pEngine::wait_any`] sleeps rather than returning at once — it
    /// returns `None` immediately. Otherwise the polls at `now + period`,
    /// `now + 2·period`, … miss until something wakes this thread (a
    /// delivery to its endpoint, any external wake): it parks, and on a
    /// wake at time `T` advances to the first poll instant `≥ T` (never
    /// fewer than one period), checks the abort flag and probes there.
    /// A wake exactly on a poll instant is visible to that poll — as a
    /// delivery is to the literal loop, whose probe is entered one call's
    /// CPU before the instant, later than any message arriving at it was
    /// sent.
    pub fn iprobe_every(
        &self,
        t: &SimThread,
        me: Rank,
        period: SimDuration,
        src: SrcSpec,
        tag: TagSpec,
        ctx: u64,
    ) -> Option<Status> {
        abort_point(&self.abort);
        self.pump(me);
        if self.queues[me as usize].lock().unexpected.is_empty() {
            return None;
        }
        assert!(period > SimDuration::ZERO, "polling needs a period");
        let start = t.now();
        self.park_for_delivery(t, me);
        let woken = t.now();
        let polls = woken
            .since(start)
            .as_nanos()
            .div_ceil(period.as_nanos())
            .max(1);
        let poll_at = start + SimDuration::nanos(polls * period.as_nanos());
        if poll_at > woken {
            t.advance(poll_at.since(woken));
        }
        abort_point(&self.abort);
        self.iprobe(me, src, tag, ctx)
    }

    /// One park on `me`'s endpoint waiter list. The registration goes with
    /// the guard, also when the park unwinds (job abort, teardown).
    fn park_for_delivery(&self, t: &SimThread, me: Rank) {
        let _waiting = self.net.waiter(self.eps[me as usize], t.id());
        t.block();
    }

    fn take_match(&self, me: Rank, pred: impl Fn(&Arrived) -> bool) -> Option<Arrived> {
        let mut q = self.queues[me as usize].lock();
        let idx = q.unexpected.iter().position(pred)?;
        q.unexpected.remove(idx)
    }

    /// On matching a rendezvous message, acknowledge it to the sender.
    fn finish_match(&self, t: &SimThread, me: Rank, msg: &Arrived) {
        if let Some(token) = msg.ack_token {
            let link = self.link_for(me, msg.src);
            t.advance(link.per_message_cpu);
            let wire = Wire::Ack { token };
            let bytes = wire.modeled_bytes();
            self.net.send(
                self.eps[me as usize],
                self.eps[msg.src as usize],
                bytes,
                wire,
            );
        }
    }
}
