//! Reliable, in-order message transport over a modelled fabric.
//!
//! One `Network<M>` instance is one *plane*: the MPI data plane carries MPI
//! wire messages, and a separate TCP control plane carries the
//! coordinator↔helper checkpoint protocol (exactly as DMTCP uses TCP
//! sockets regardless of the MPI fabric). Message payloads are opaque to
//! the transport; timing uses only the modelled byte size.
//!
//! Delivery is by scheduled simulation events, so everything stays
//! deterministic. Per-source serialization (a sender's link is busy while a
//! message streams out) gives FIFO ordering per (source, destination) pair,
//! which MPI's non-overtaking rule relies on.
//!
//! In-flight messages — sent but not yet delivered into an inbox, plus
//! delivered but not yet consumed — are first-class observable state: they
//! are precisely what MANA's bookmark-exchange drain protocol must flush
//! into checkpoint buffers before quiescing a job.

use crate::model::LinkModel;
use mana_sim::cluster::InterconnectKind;
use mana_sim::sched::{Sim, SimThreadId};
use mana_sim::time::SimTime;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Identifier of a transport endpoint (one per MPI rank per plane, plus one
/// for the coordinator).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EndpointId(pub u32);

struct Endpoint<M> {
    node: u32,
    inbox: VecDeque<M>,
    waiters: Vec<SimThreadId>,
    link_busy_until: SimTime,
}

struct NetInner<M> {
    endpoints: Vec<Endpoint<M>>,
    in_flight: u64,
    total_sent: u64,
    total_delivered: u64,
}

/// A message plane over one fabric.
pub struct Network<M> {
    sim: Sim,
    kind: InterconnectKind,
    inner: Arc<Mutex<NetInner<M>>>,
}

/// A scoped delivery-waiter registration; see [`Network::waiter`].
pub struct WaiterGuard<'a, M> {
    net: &'a Network<M>,
    ep: EndpointId,
    tid: SimThreadId,
}

impl<M> Drop for WaiterGuard<'_, M> {
    fn drop(&mut self) {
        let mut inner = self.net.inner.lock();
        inner.endpoints[self.ep.0 as usize]
            .waiters
            .retain(|w| *w != self.tid);
    }
}

impl<M: Send + 'static> Network<M> {
    /// Create a plane on `sim` over fabric `kind`.
    pub fn new(sim: &Sim, kind: InterconnectKind) -> Arc<Network<M>> {
        Arc::new(Network {
            sim: sim.clone(),
            kind,
            inner: Arc::new(Mutex::new(NetInner {
                endpoints: Vec::new(),
                in_flight: 0,
                total_sent: 0,
                total_delivered: 0,
            })),
        })
    }

    /// The fabric this plane runs over.
    pub fn fabric(&self) -> InterconnectKind {
        self.kind
    }

    /// Register an endpoint living on `node`.
    pub fn add_endpoint(&self, node: u32) -> EndpointId {
        let mut inner = self.inner.lock();
        let id = EndpointId(inner.endpoints.len() as u32);
        inner.endpoints.push(Endpoint {
            node,
            inbox: VecDeque::new(),
            waiters: Vec::new(),
            link_busy_until: SimTime::ZERO,
        });
        id
    }

    /// Node hosting `ep`.
    pub fn node_of(&self, ep: EndpointId) -> u32 {
        self.inner.lock().endpoints[ep.0 as usize].node
    }

    /// Send `msg` of modelled size `bytes` from `src` to `dst`.
    ///
    /// The caller is responsible for charging its own CPU injection cost to
    /// its virtual clock (the MPI layer does); the transport models wire
    /// latency, link-bandwidth serialization and sender-link occupancy.
    pub fn send(&self, src: EndpointId, dst: EndpointId, bytes: u64, msg: M) {
        let arrival = {
            let mut inner = self.inner.lock();
            let now = self.sim.now();
            let (src_node, dst_node) = (
                inner.endpoints[src.0 as usize].node,
                inner.endpoints[dst.0 as usize].node,
            );
            let model = LinkModel::for_path(self.kind, src_node == dst_node);
            let src_ep = &mut inner.endpoints[src.0 as usize];
            let depart = now.max(src_ep.link_busy_until);
            let serialize =
                mana_sim::time::SimDuration::nanos((bytes as f64 * model.per_byte_ns) as u64);
            src_ep.link_busy_until = depart + serialize;
            inner.in_flight += 1;
            inner.total_sent += 1;
            depart + model.wire_time(bytes)
        };
        let inner = self.inner.clone();
        let dsti = dst.0 as usize;
        self.sim.call_at(arrival, move |sim| {
            let mut inner = inner.lock();
            inner.endpoints[dsti].inbox.push_back(msg);
            inner.in_flight -= 1;
            inner.total_delivered += 1;
            for w in &inner.endpoints[dsti].waiters {
                sim.wake(*w);
            }
        });
    }

    /// Pop the oldest delivered message at `ep`, if any.
    pub fn poll(&self, ep: EndpointId) -> Option<M> {
        self.inner.lock().endpoints[ep.0 as usize].inbox.pop_front()
    }

    /// Pop every delivered message at `ep`.
    pub fn drain_inbox(&self, ep: EndpointId) -> Vec<M> {
        self.inner.lock().endpoints[ep.0 as usize]
            .inbox
            .drain(..)
            .collect()
    }

    /// Number of delivered-but-unconsumed messages at `ep`.
    pub fn inbox_len(&self, ep: EndpointId) -> usize {
        self.inner.lock().endpoints[ep.0 as usize].inbox.len()
    }

    /// Register `tid` to be woken whenever a message is delivered to `ep`.
    pub fn add_waiter(&self, ep: EndpointId, tid: SimThreadId) {
        let mut inner = self.inner.lock();
        let ws = &mut inner.endpoints[ep.0 as usize].waiters;
        if !ws.contains(&tid) {
            ws.push(tid);
        }
    }

    /// Register `tid` as a delivery waiter on `ep` for as long as the
    /// returned guard lives. The registration is removed when the guard
    /// drops — also when the waiting thread unwinds out of its park (job
    /// abort, simulation teardown), which a hand-written
    /// `add_waiter` … `remove_waiter` pair would skip.
    pub fn waiter(&self, ep: EndpointId, tid: SimThreadId) -> WaiterGuard<'_, M> {
        self.add_waiter(ep, tid);
        WaiterGuard { net: self, ep, tid }
    }

    /// Messages sent but not yet delivered anywhere on this plane.
    pub fn in_flight(&self) -> u64 {
        self.inner.lock().in_flight
    }

    /// (sent, delivered) counters for diagnostics.
    pub fn counters(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.total_sent, inner.total_delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mana_sim::sched::SimConfig;
    use mana_sim::time::SimDuration;
    use parking_lot::Mutex as PlMutex;

    fn sim() -> Sim {
        Sim::new(SimConfig::default())
    }

    #[test]
    fn message_latency_intra_vs_inter() {
        let s = sim();
        let net = Network::<u32>::new(&s, InterconnectKind::Tcp);
        let a = net.add_endpoint(0);
        let b = net.add_endpoint(0); // same node -> shm
        let c = net.add_endpoint(1); // other node -> tcp
        let times = Arc::new(PlMutex::new(Vec::new()));
        let (n2, t2) = (net.clone(), times.clone());
        s.spawn("recv", false, move |t| {
            for _ in 0..2 {
                t.block_until(|| n2.poll(b).or_else(|| n2.poll(c)));
                t2.lock().push(t.now().as_nanos());
            }
        });
        {
            let net = net.clone();
            s.spawn("send", false, move |t| {
                net.add_waiter(b, SimThreadId(1));
                net.add_waiter(c, SimThreadId(1));
                net.send(a, b, 8, 1);
                net.send(a, c, 8, 2);
                let _ = t;
            });
        }
        s.run();
        let times = times.lock().clone();
        assert_eq!(times.len(), 2);
        // shm delivery lands ~400ns, tcp ~25us.
        assert!(times[0] < 2_000, "shm arrival {}", times[0]);
        assert!(times[1] > 20_000, "tcp arrival {}", times[1]);
    }

    #[test]
    fn fifo_per_pair() {
        let s = sim();
        let net = Network::<u32>::new(&s, InterconnectKind::Infiniband);
        let a = net.add_endpoint(0);
        let b = net.add_endpoint(1);
        let got = Arc::new(PlMutex::new(Vec::new()));
        let (n2, g2) = (net.clone(), got.clone());
        let rid = s.spawn("recv", false, move |t| {
            for _ in 0..10 {
                let v = t.block_until(|| n2.poll(b));
                g2.lock().push(v);
            }
        });
        {
            let net = net.clone();
            s.spawn("send", false, move |t| {
                net.add_waiter(b, rid);
                for i in 0..10u32 {
                    // Varying sizes; FIFO must still hold per pair.
                    net.send(a, b, (10 - i as u64) * 10_000, i);
                    t.advance(SimDuration::nanos(50));
                }
            });
        }
        s.run();
        assert_eq!(got.lock().clone(), (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn in_flight_visible() {
        let s = sim();
        let net = Network::<u8>::new(&s, InterconnectKind::Aries);
        let a = net.add_endpoint(0);
        let b = net.add_endpoint(1);
        {
            let net = net.clone();
            s.spawn("x", false, move |t| {
                net.send(a, b, 1 << 20, 7);
                assert_eq!(net.in_flight(), 1);
                t.advance(SimDuration::millis(10));
                assert_eq!(net.in_flight(), 0);
                assert_eq!(net.inbox_len(b), 1);
                assert_eq!(net.drain_inbox(b), vec![7]);
                assert_eq!(net.counters(), (1, 1));
            });
        }
        s.run();
    }

    #[test]
    fn waiter_guard_deregisters_on_unwind() {
        let s = sim();
        let net = Network::<u8>::new(&s, InterconnectKind::Tcp);
        let ep = net.add_endpoint(0);
        let tid = SimThreadId(7);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _w = net.waiter(ep, tid);
            assert_eq!(net.inner.lock().endpoints[0].waiters, vec![tid]);
            std::panic::resume_unwind(Box::new(()));
        }));
        assert!(unwound.is_err());
        assert!(net.inner.lock().endpoints[0].waiters.is_empty());
    }

    #[test]
    fn sender_link_serializes() {
        let s = sim();
        let net = Network::<u8>::new(&s, InterconnectKind::Tcp);
        let a = net.add_endpoint(0);
        let b = net.add_endpoint(1);
        let arrival = Arc::new(PlMutex::new(Vec::new()));
        let (n2, a2) = (net.clone(), arrival.clone());
        let rid = s.spawn("recv", false, move |t| {
            for _ in 0..2 {
                t.block_until(|| n2.poll(b));
                a2.lock().push(t.now().as_secs_f64());
            }
        });
        {
            let net = net.clone();
            s.spawn("send", false, move |_t| {
                net.add_waiter(b, rid);
                // Two 10 MB messages back-to-back: second must wait for the
                // first to stream out (~9 ms at 1.1 GB/s each).
                net.send(a, b, 10_000_000, 1);
                net.send(a, b, 10_000_000, 2);
            });
        }
        s.run();
        let t = arrival.lock().clone();
        assert!((t[1] - t[0]) > 0.008, "no serialization gap: {t:?}");
    }
}
