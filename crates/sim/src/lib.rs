//! # netkit-sim — a deterministic discrete-event network simulator
//!
//! Substrate for the multi-node experiments of the NETKIT reproduction
//! (signaling latency, spawning time, end-to-end forwarding under load).
//! The paper's testbed was real PC routers on a LAN; per DESIGN.md §2 we
//! substitute a seeded, single-threaded discrete-event simulation — the
//! experiments compare software-architecture overheads, not wire rates,
//! so determinism and reproducibility matter more than realism.
//!
//! * [`node`] — nodes and [`NodeBehaviour`]s (router
//!   pipelines adapt behind this trait).
//! * [`pipeline`] — real sharded dataplanes as nodes: the threaded
//!   driver's `ShardedPipeline` with no drainers, shards run in index
//!   order on the simulator's thread.
//! * [`link`] — full-duplex links with latency, serialisation, and
//!   bounded drop-tail transmit queues.
//! * [`traffic`] — CBR, Poisson, diurnal, flash-crowd and elephant/mice
//!   generators, all seeded.
//! * [`topology`] — line, star, dumbbell, and random-connected builders
//!   plus all-pairs next-hop computation.
//! * [`stats`] — run counters and latency percentiles.
//!
//! ## Example: two hosts through a forwarder
//!
//! ```
//! use netkit_sim::link::LinkSpec;
//! use netkit_sim::node::{SinkBehaviour, StaticForwarder};
//! use netkit_sim::traffic::{udp_flow, CbrGen};
//! use netkit_sim::Simulator;
//!
//! let mut sim = Simulator::new(7);
//! let (sink, counters) = SinkBehaviour::new();
//! let src = sim.add_node(Box::new(StaticForwarder::new("10.0.0.1".parse().unwrap())));
//! let dst = sim.add_node(Box::new(sink));
//!
//! let link = sim.connect(src, dst, LinkSpec::lan());
//! let (src_end, _) = sim.link_ports(link);
//! sim.node_behaviour_mut::<StaticForwarder>(src)
//!     .expect("forwarder")
//!     .route("10.0.0.2".parse().unwrap(), src_end.1);
//!
//! sim.attach_source(src, Box::new(CbrGen::new(
//!     10_000, 100, udp_flow("10.0.0.1", "10.0.0.2", 5_000, 5_001, 256))));
//! let stats = sim.run_to_idle().clone();
//! assert_eq!(stats.delivered, 100);
//! assert_eq!(counters.received(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod link;
pub mod node;
pub mod pipeline;
pub mod scenario;
pub mod stats;
pub mod topology;
pub mod traffic;

use std::any::Any;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use netkit_kernel::time::SimTime;
use netkit_packet::packet::Packet;

use link::{LinkId, LinkSpec, LinkState, TxOutcome};
use node::{NodeBehaviour, NodeCtx, NodeId, LOCAL_PORT};
use stats::SimStats;
use traffic::TrafficGen;

enum EventKind {
    Arrival { node: usize, port: u16, pkt: Packet },
    Timer { node: usize, token: u64 },
    Inject { source: usize, pkt: Packet },
}

struct Event {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // BinaryHeap is a max-heap; invert for earliest-first. Sequence
        // numbers break time ties deterministically (FIFO).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct NodeSlot {
    behaviour: Box<dyn NodeBehaviour>,
    ports: Vec<LinkId>,
}

struct SourceSlot {
    node: usize,
    gen: Box<dyn TrafficGen>,
}

/// The discrete-event engine. See the crate docs for an example.
pub struct Simulator {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Event>,
    nodes: Vec<NodeSlot>,
    links: Vec<LinkState>,
    sources: Vec<SourceSlot>,
    stats: SimStats,
    rng: SmallRng,
}

impl Simulator {
    /// Creates an empty simulation; all randomness derives from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            now: SimTime::from_nanos(0),
            seq: 0,
            queue: BinaryHeap::new(),
            nodes: Vec::new(),
            links: Vec::new(),
            sources: Vec::new(),
            stats: SimStats::new(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Run counters.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Adds a node; ports are allocated as links are connected.
    pub fn add_node(&mut self, behaviour: Box<dyn NodeBehaviour>) -> NodeId {
        self.nodes.push(NodeSlot {
            behaviour,
            ports: Vec::new(),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Typed access to a node's behaviour (for route-table setup etc.).
    /// Returns `None` if the node id is stale or the type does not match.
    pub fn node_behaviour_mut<B: NodeBehaviour + 'static>(
        &mut self,
        node: NodeId,
    ) -> Option<&mut B> {
        let slot = self.nodes.get_mut(node.0)?;
        (slot.behaviour.as_mut() as &mut dyn Any).downcast_mut::<B>()
    }

    /// Connects two nodes with a fresh full-duplex link, allocating the
    /// next free port index on each.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range node ids or self-loops.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> LinkId {
        assert!(
            a.0 < self.nodes.len() && b.0 < self.nodes.len(),
            "unknown node"
        );
        assert_ne!(a, b, "self-loops are not supported");
        let id = LinkId(self.links.len());
        let port_a = self.nodes[a.0].ports.len() as u16;
        let port_b = self.nodes[b.0].ports.len() as u16;
        self.nodes[a.0].ports.push(id);
        self.nodes[b.0].ports.push(id);
        self.links
            .push(LinkState::new(spec, (a.0, port_a), (b.0, port_b)));
        id
    }

    /// The two `(node, port)` endpoints of `link`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown link id.
    pub fn link_ports(&self, link: LinkId) -> ((NodeId, u16), (NodeId, u16)) {
        let l = &self.links[link.0];
        (
            (NodeId(l.ends[0].0), l.ends[0].1),
            (NodeId(l.ends[1].0), l.ends[1].1),
        )
    }

    /// Link state (for drop counters and spec inspection).
    ///
    /// # Panics
    ///
    /// Panics on an unknown link id.
    pub fn link(&self, link: LinkId) -> &LinkState {
        &self.links[link.0]
    }

    /// Per-node adjacency: `(local port, peer node)` pairs in port order.
    pub fn adjacency(&self) -> Vec<Vec<(u16, NodeId)>> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(n, slot)| {
                slot.ports
                    .iter()
                    .enumerate()
                    .map(|(p, link_id)| {
                        let link = &self.links[link_id.0];
                        let dir = link.direction_from(n).expect("node is an endpoint");
                        (p as u16, NodeId(link.far_end(dir).0))
                    })
                    .collect()
            })
            .collect()
    }

    /// Attaches a traffic source to `node`; its packets enter the node's
    /// behaviour on [`LOCAL_PORT`].
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range node id.
    pub fn attach_source(&mut self, node: NodeId, gen: Box<dyn TrafficGen>) {
        assert!(node.0 < self.nodes.len(), "unknown node");
        self.sources.push(SourceSlot { node: node.0, gen });
        let source = self.sources.len() - 1;
        self.schedule_next_injection(source);
    }

    /// Schedules a one-shot injection of `pkt` into `node` after
    /// `delay_ns`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range node id.
    pub fn inject_after(&mut self, node: NodeId, delay_ns: u64, pkt: Packet) {
        assert!(node.0 < self.nodes.len(), "unknown node");
        self.sources.push(SourceSlot {
            node: node.0,
            gen: Box::new(Exhausted),
        });
        let source = self.sources.len() - 1;
        let at = SimTime::from_nanos(self.now.as_nanos() + delay_ns);
        self.push_event(at, EventKind::Inject { source, pkt });
    }

    fn schedule_next_injection(&mut self, source: usize) {
        if let Some((gap, pkt)) = self.sources[source].gen.next(&mut self.rng) {
            let at = SimTime::from_nanos(self.now.as_nanos() + gap);
            self.push_event(at, EventKind::Inject { source, pkt });
        }
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { at, seq, kind });
    }

    /// Runs until the event queue drains.
    pub fn run_to_idle(&mut self) -> &SimStats {
        while let Some(ev) = self.queue.pop() {
            self.now = ev.at;
            self.handle(ev.kind);
        }
        &self.stats
    }

    /// Runs events with `at <= deadline`; time stops at the deadline.
    pub fn run_until(&mut self, deadline: SimTime) -> &SimStats {
        while self.queue.peek().is_some_and(|ev| ev.at <= deadline) {
            let ev = self.queue.pop().expect("peeked");
            self.now = ev.at;
            self.handle(ev.kind);
        }
        if deadline > self.now {
            self.now = deadline;
        }
        &self.stats
    }

    /// Runs for `duration_ns` beyond the current time.
    pub fn run_for(&mut self, duration_ns: u64) -> &SimStats {
        self.run_until(SimTime::from_nanos(self.now.as_nanos() + duration_ns))
    }

    /// Pops every queued arrival that shares `at`/`node`/`port` with the
    /// arrival just popped, preserving order. This is the driver-loop
    /// batching point: a burst that lands on one port in the same
    /// instant is handed to the node as one `on_batch` call.
    fn coalesce_arrivals(
        &mut self,
        at: SimTime,
        node: usize,
        port: u16,
        first: Packet,
    ) -> Vec<Packet> {
        let mut batch = vec![first];
        while let Some(next) = self.queue.peek() {
            let same = next.at == at
                && matches!(
                    &next.kind,
                    EventKind::Arrival { node: n, port: p, .. } if *n == node && *p == port
                );
            if !same {
                break;
            }
            let ev = self.queue.pop().expect("peeked");
            match ev.kind {
                EventKind::Arrival { pkt, .. } => batch.push(pkt),
                _ => unreachable!("matched arrival above"),
            }
        }
        batch
    }

    fn handle(&mut self, kind: EventKind) {
        match kind {
            EventKind::Arrival { node, port, pkt } => {
                let batch = self.coalesce_arrivals(self.now, node, port, pkt);
                if batch.len() == 1 {
                    let pkt = batch.into_iter().next().expect("one packet");
                    self.dispatch(node, port, pkt);
                } else {
                    self.dispatch_batch(node, port, batch);
                }
            }
            EventKind::Timer { node, token } => {
                self.dispatch_timer(node, token);
            }
            EventKind::Inject { source, pkt } => {
                let node = self.sources[source].node;
                self.stats.injected += 1;
                let mut pkt = pkt;
                pkt.meta.timestamp_ns = self.now.as_nanos();
                self.dispatch(node, LOCAL_PORT, pkt);
                self.schedule_next_injection(source);
            }
        }
    }

    fn dispatch(&mut self, node: usize, ingress: u16, pkt: Packet) {
        let mut emissions = Vec::new();
        let mut timers = Vec::new();
        let mut deliveries = Vec::new();
        let mut drops = 0u64;
        {
            let mut ctx = NodeCtx {
                node: NodeId(node),
                now: self.now,
                emissions: &mut emissions,
                timers: &mut timers,
                deliveries: &mut deliveries,
                drops: &mut drops,
            };
            self.nodes[node].behaviour.on_packet(&mut ctx, ingress, pkt);
        }
        self.absorb(node, emissions, timers, deliveries, drops);
    }

    fn dispatch_batch(&mut self, node: usize, ingress: u16, pkts: Vec<Packet>) {
        let mut emissions = Vec::new();
        let mut timers = Vec::new();
        let mut deliveries = Vec::new();
        let mut drops = 0u64;
        {
            let mut ctx = NodeCtx {
                node: NodeId(node),
                now: self.now,
                emissions: &mut emissions,
                timers: &mut timers,
                deliveries: &mut deliveries,
                drops: &mut drops,
            };
            self.nodes[node].behaviour.on_batch(&mut ctx, ingress, pkts);
        }
        self.absorb(node, emissions, timers, deliveries, drops);
    }

    fn dispatch_timer(&mut self, node: usize, token: u64) {
        let mut emissions = Vec::new();
        let mut timers = Vec::new();
        let mut deliveries = Vec::new();
        let mut drops = 0u64;
        {
            let mut ctx = NodeCtx {
                node: NodeId(node),
                now: self.now,
                emissions: &mut emissions,
                timers: &mut timers,
                deliveries: &mut deliveries,
                drops: &mut drops,
            };
            self.nodes[node].behaviour.on_timer(&mut ctx, token);
        }
        self.absorb(node, emissions, timers, deliveries, drops);
    }

    fn absorb(
        &mut self,
        node: usize,
        emissions: Vec<(u16, Packet)>,
        timers: Vec<(u64, u64)>,
        deliveries: Vec<Packet>,
        drops: u64,
    ) {
        self.stats.node_drops += drops;
        for pkt in deliveries {
            let latency = self.now.as_nanos().saturating_sub(pkt.meta.timestamp_ns);
            self.stats.record_delivery(latency);
        }
        for (delay, token) in timers {
            let at = SimTime::from_nanos(self.now.as_nanos() + delay);
            self.push_event(at, EventKind::Timer { node, token });
        }
        for (port, pkt) in emissions {
            let Some(link_id) = self.nodes[node].ports.get(port as usize).copied() else {
                self.stats.node_drops += 1;
                continue;
            };
            let now = self.now;
            let bytes = pkt.len();
            let link = &mut self.links[link_id.0];
            let dir = link
                .direction_from(node)
                .expect("emitting node is an endpoint");
            match link.offer(dir, now, bytes) {
                TxOutcome::Arrives(at) => {
                    let (far_node, far_port) = link.far_end(dir);
                    self.stats.forwarded += 1;
                    self.push_event(
                        at,
                        EventKind::Arrival {
                            node: far_node,
                            port: far_port,
                            pkt,
                        },
                    );
                }
                TxOutcome::Dropped => {
                    self.stats.link_drops += 1;
                }
            }
        }
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Simulator({} nodes, {} links, {} queued events, t={}ns)",
            self.nodes.len(),
            self.links.len(),
            self.queue.len(),
            self.now.as_nanos()
        )
    }
}

/// A generator that never produces packets (used by one-shot injections).
struct Exhausted;

impl TrafficGen for Exhausted {
    fn next(&mut self, _rng: &mut SmallRng) -> Option<(u64, Packet)> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_packet::packet::PacketBuilder;
    use node::{FnBehaviour, SinkBehaviour, StaticForwarder};
    use traffic::{udp_flow, CbrGen, PoissonGen};

    fn forwarder(addr: &str) -> Box<StaticForwarder> {
        Box::new(StaticForwarder::new(addr.parse().unwrap()))
    }

    #[test]
    fn two_node_delivery_and_latency() {
        let mut sim = Simulator::new(1);
        let (sink, _) = SinkBehaviour::new();
        let a = sim.add_node(forwarder("10.0.0.1"));
        let b = sim.add_node(Box::new(sink));
        let link = sim.connect(
            a,
            b,
            LinkSpec {
                latency_ns: 1000,
                bandwidth_bps: 8_000_000_000,
                queue_pkts: 8,
            },
        );
        let (ea, _) = sim.link_ports(link);
        sim.node_behaviour_mut::<StaticForwarder>(a)
            .unwrap()
            .route("10.0.0.2".parse().unwrap(), ea.1);
        sim.attach_source(
            a,
            Box::new(CbrGen::new(
                10_000,
                10,
                udp_flow("10.0.0.1", "10.0.0.2", 1, 2, 100),
            )),
        );
        let stats = sim.run_to_idle();
        assert_eq!(stats.injected, 10);
        assert_eq!(stats.delivered, 10);
        // Latency >= propagation delay.
        assert!(stats.latency_samples().iter().all(|&l| l >= 1000));
    }

    #[test]
    fn three_hop_line_forwards_end_to_end() {
        let mut sim = Simulator::new(1);
        let (sink, counters) = SinkBehaviour::new();
        let a = sim.add_node(forwarder("10.0.0.1"));
        let r = sim.add_node(forwarder("10.0.0.254"));
        let b = sim.add_node(Box::new(sink));
        let l1 = sim.connect(a, r, LinkSpec::lan());
        let l2 = sim.connect(r, b, LinkSpec::lan());
        let (a_end, _) = sim.link_ports(l1);
        let (r_end, _) = sim.link_ports(l2);
        sim.node_behaviour_mut::<StaticForwarder>(a)
            .unwrap()
            .route("10.0.0.2".parse().unwrap(), a_end.1);
        sim.node_behaviour_mut::<StaticForwarder>(r)
            .unwrap()
            .route("10.0.0.2".parse().unwrap(), r_end.1);
        sim.attach_source(
            a,
            Box::new(CbrGen::new(
                5_000,
                50,
                udp_flow("10.0.0.1", "10.0.0.2", 1, 2, 64),
            )),
        );
        let stats = sim.run_to_idle();
        assert_eq!(stats.delivered, 50);
        assert_eq!(counters.received(), 50);
        assert_eq!(stats.forwarded, 100, "two link traversals per packet");
    }

    #[test]
    fn determinism_same_seed_same_stats() {
        let run = |seed| {
            let mut sim = Simulator::new(seed);
            let (sink, _) = SinkBehaviour::new();
            let a = sim.add_node(forwarder("10.0.0.1"));
            let b = sim.add_node(Box::new(sink));
            let link = sim.connect(
                a,
                b,
                LinkSpec {
                    latency_ns: 100,
                    bandwidth_bps: 1_000_000,
                    queue_pkts: 2,
                },
            );
            let (ea, _) = sim.link_ports(link);
            sim.node_behaviour_mut::<StaticForwarder>(a)
                .unwrap()
                .route("10.0.0.2".parse().unwrap(), ea.1);
            sim.attach_source(
                a,
                Box::new(PoissonGen::new(
                    2_000,
                    500,
                    udp_flow("10.0.0.1", "10.0.0.2", 1, 2, 200),
                )),
            );
            let s = sim.run_to_idle();
            (s.delivered, s.link_drops, s.latency_percentile_ns(99.0))
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn congested_link_drops_and_conserves_packets() {
        let mut sim = Simulator::new(3);
        let (sink, _) = SinkBehaviour::new();
        let a = sim.add_node(forwarder("10.0.0.1"));
        let b = sim.add_node(Box::new(sink));
        // Slow link, tiny queue; CBR offered faster than the wire drains.
        let link = sim.connect(
            a,
            b,
            LinkSpec {
                latency_ns: 0,
                bandwidth_bps: 1_000_000,
                queue_pkts: 4,
            },
        );
        let (ea, _) = sim.link_ports(link);
        sim.node_behaviour_mut::<StaticForwarder>(a)
            .unwrap()
            .route("10.0.0.2".parse().unwrap(), ea.1);
        sim.attach_source(
            a,
            Box::new(CbrGen::new(
                100_000,
                200,
                udp_flow("10.0.0.1", "10.0.0.2", 1, 2, 1000),
            )),
        );
        let stats = sim.run_to_idle().clone();
        assert!(stats.link_drops > 0, "offered load exceeds the wire");
        assert_eq!(stats.injected, 200);
        assert_eq!(stats.delivered + stats.link_drops + stats.node_drops, 200);
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = Simulator::new(1);
        let fired = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let fired2 = std::sync::Arc::clone(&fired);
        let n = sim.add_node(Box::new(FnBehaviour::with_timer(
            "timers",
            |ctx: &mut NodeCtx<'_>, _, _pkt| {
                ctx.set_timer(300, 3);
                ctx.set_timer(100, 1);
                ctx.set_timer(200, 2);
            },
            move |_ctx: &mut NodeCtx<'_>, token| fired2.lock().push(token),
        )));
        sim.inject_after(
            n,
            0,
            PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build(),
        );
        sim.run_to_idle();
        assert_eq!(*fired.lock(), [1, 2, 3]);
    }

    #[test]
    fn same_instant_arrivals_coalesce_into_one_batch() {
        use std::sync::Arc;

        struct BatchSink {
            sizes: Arc<parking_lot::Mutex<Vec<usize>>>,
        }
        impl NodeBehaviour for BatchSink {
            fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _ingress: u16, pkt: Packet) {
                self.sizes.lock().push(1);
                ctx.deliver_local(pkt);
            }
            fn on_batch(&mut self, ctx: &mut NodeCtx<'_>, _ingress: u16, pkts: Vec<Packet>) {
                self.sizes.lock().push(pkts.len());
                for pkt in pkts {
                    ctx.deliver_local(pkt);
                }
            }
        }

        let mut sim = Simulator::new(1);
        let burst = sim.add_node(Box::new(FnBehaviour::new(
            "burst",
            |ctx: &mut NodeCtx<'_>, _, pkt: Packet| {
                for _ in 0..3 {
                    ctx.emit(0, pkt.clone());
                }
            },
        )));
        let sizes = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink = sim.add_node(Box::new(BatchSink {
            sizes: Arc::clone(&sizes),
        }));
        // Effectively infinite bandwidth: zero serialisation delay, so
        // the three copies arrive in the same instant and coalesce.
        sim.connect(
            burst,
            sink,
            LinkSpec {
                latency_ns: 50,
                bandwidth_bps: u64::MAX,
                queue_pkts: 16,
            },
        );
        sim.inject_after(
            burst,
            0,
            PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build(),
        );
        let stats = sim.run_to_idle();
        assert_eq!(stats.delivered, 3);
        assert_eq!(*sizes.lock(), [3], "burst handed over as one batch");
    }

    #[test]
    fn emission_on_unconnected_port_counts_as_drop() {
        let mut sim = Simulator::new(1);
        let n = sim.add_node(Box::new(FnBehaviour::new(
            "blind",
            |ctx: &mut NodeCtx<'_>, _, pkt| {
                ctx.emit(9, pkt);
            },
        )));
        sim.inject_after(
            n,
            0,
            PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build(),
        );
        let stats = sim.run_to_idle();
        assert_eq!(stats.node_drops, 1);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulator::new(1);
        let (sink, _) = SinkBehaviour::new();
        let a = sim.add_node(forwarder("10.0.0.1"));
        let b = sim.add_node(Box::new(sink));
        let link = sim.connect(a, b, LinkSpec::lan());
        let (ea, _) = sim.link_ports(link);
        sim.node_behaviour_mut::<StaticForwarder>(a)
            .unwrap()
            .route("10.0.0.2".parse().unwrap(), ea.1);
        sim.attach_source(
            a,
            Box::new(CbrGen::new(
                1_000_000,
                100,
                udp_flow("10.0.0.1", "10.0.0.2", 1, 2, 64),
            )),
        );
        sim.run_until(SimTime::from_nanos(10_000_000));
        let mid = sim.stats().injected;
        assert!(mid > 0 && mid < 100, "partial progress, got {mid}");
        assert_eq!(sim.now().as_nanos(), 10_000_000);
        sim.run_to_idle();
        assert_eq!(sim.stats().injected, 100);
    }
}
