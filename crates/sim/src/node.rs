//! Nodes and their behaviours.
//!
//! A node is a slot in the simulator with numbered ports; its
//! [`NodeBehaviour`] decides what happens to each arriving packet. The
//! behaviour emits packets on ports, sets timers, delivers packets
//! locally, or drops them — all through the [`NodeCtx`] handed to each
//! callback, which keeps the behaviour decoupled from the event engine.
//!
//! Router nodes in the experiments adapt a Router-CF pipeline behind this
//! trait (see [`PipelineNode`](crate::pipeline::PipelineNode)); the
//! built-in [`StaticForwarder`] and [`SinkBehaviour`] cover hosts and
//! plain IP forwarding with no component graph at all.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netkit_kernel::time::SimTime;
use netkit_packet::packet::Packet;

/// Identifies a node within a simulator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// The pseudo-port on which locally originated (injected) traffic enters
/// a node.
pub const LOCAL_PORT: u16 = u16::MAX;

/// Actions a behaviour may take during a callback.
#[derive(Debug)]
pub struct NodeCtx<'a> {
    pub(crate) node: NodeId,
    pub(crate) now: SimTime,
    pub(crate) emissions: &'a mut Vec<(u16, Packet)>,
    pub(crate) timers: &'a mut Vec<(u64, u64)>,
    pub(crate) deliveries: &'a mut Vec<Packet>,
    pub(crate) drops: &'a mut u64,
}

impl NodeCtx<'_> {
    /// The node being called.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `pkt` out of `port`; it will traverse the attached link.
    /// Emitting on an unconnected port counts as a node drop.
    pub fn emit(&mut self, port: u16, pkt: Packet) {
        self.emissions.push((port, pkt));
    }

    /// Requests [`NodeBehaviour::on_timer`] with `token` after
    /// `delay_ns`.
    pub fn set_timer(&mut self, delay_ns: u64, token: u64) {
        self.timers.push((delay_ns, token));
    }

    /// Consumes `pkt` as having reached its final destination; records
    /// end-to-end latency against its injection timestamp.
    pub fn deliver_local(&mut self, pkt: Packet) {
        self.deliveries.push(pkt);
    }

    /// Explicitly drops a packet (TTL expiry, policy, no route).
    pub fn drop_packet(&mut self, _pkt: Packet) {
        *self.drops += 1;
    }

    /// Counts `n` packets consumed inside a hosted dataplane — graph
    /// or guard policy drops whose packets were swallowed by elements
    /// and never surface as a `Packet` to hand to
    /// [`Self::drop_packet`]. Keeps the simulator's conservation books
    /// (`injected == delivered + link_drops + node_drops`) exact for
    /// nodes hosting real element graphs.
    pub fn count_drops(&mut self, n: u64) {
        *self.drops += n;
    }
}

/// Per-node packet-handling logic.
///
/// The `Any` supertrait enables typed access to a node's behaviour after
/// it has been added to a simulator
/// ([`Simulator::node_behaviour_mut`](crate::Simulator::node_behaviour_mut)).
pub trait NodeBehaviour: Send + std::any::Any {
    /// Called when a packet arrives on `ingress` (or [`LOCAL_PORT`] for
    /// injected traffic).
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, ingress: u16, pkt: Packet);

    /// Called when a burst of packets arrives on `ingress` at the same
    /// instant (the simulator coalesces same-time same-port arrivals).
    /// The default loops over [`Self::on_packet`] in arrival order;
    /// router-pipeline behaviours override it to feed their dataplane's
    /// `push_batch` and pay component-boundary costs once per burst.
    fn on_batch(&mut self, ctx: &mut NodeCtx<'_>, ingress: u16, pkts: Vec<Packet>) {
        for pkt in pkts {
            self.on_packet(ctx, ingress, pkt);
        }
    }

    /// Called when a timer set via [`NodeCtx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        let _ = (ctx, token);
    }

    /// Display name for traces.
    fn name(&self) -> &str {
        "node"
    }
}

/// A behaviour assembled from closures; handy in tests and examples.
pub struct FnBehaviour<P, T> {
    name: String,
    on_packet: P,
    on_timer: T,
}

impl<P> FnBehaviour<P, fn(&mut NodeCtx<'_>, u64)>
where
    P: FnMut(&mut NodeCtx<'_>, u16, Packet) + Send + 'static,
{
    /// A behaviour with only a packet handler.
    pub fn new(name: impl Into<String>, on_packet: P) -> Self {
        Self {
            name: name.into(),
            on_packet,
            on_timer: |_, _| {},
        }
    }
}

impl<P, T> FnBehaviour<P, T>
where
    P: FnMut(&mut NodeCtx<'_>, u16, Packet) + Send + 'static,
    T: FnMut(&mut NodeCtx<'_>, u64) + Send + 'static,
{
    /// A behaviour with packet and timer handlers.
    pub fn with_timer(name: impl Into<String>, on_packet: P, on_timer: T) -> Self {
        Self {
            name: name.into(),
            on_packet,
            on_timer,
        }
    }
}

impl<P, T> NodeBehaviour for FnBehaviour<P, T>
where
    P: FnMut(&mut NodeCtx<'_>, u16, Packet) + Send + 'static,
    T: FnMut(&mut NodeCtx<'_>, u64) + Send + 'static,
{
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, ingress: u16, pkt: Packet) {
        (self.on_packet)(ctx, ingress, pkt)
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        (self.on_timer)(ctx, token)
    }
    fn name(&self) -> &str {
        &self.name
    }
}

impl<P, T> std::fmt::Debug for FnBehaviour<P, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FnBehaviour(`{}`)", self.name)
    }
}

/// Shared counters exposed by a [`SinkBehaviour`].
#[derive(Debug, Default)]
pub struct SinkCounters {
    received: AtomicU64,
    bytes: AtomicU64,
}

impl SinkCounters {
    /// Packets absorbed so far.
    pub fn received(&self) -> u64 {
        self.received.load(Ordering::Relaxed)
    }

    /// Bytes absorbed so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// A terminal host: absorbs every arriving packet as a local delivery.
#[derive(Debug)]
pub struct SinkBehaviour {
    counters: Arc<SinkCounters>,
}

impl SinkBehaviour {
    /// Creates the sink and a counter handle the test/benchmark keeps.
    pub fn new() -> (Self, Arc<SinkCounters>) {
        let counters = Arc::new(SinkCounters::default());
        (
            Self {
                counters: Arc::clone(&counters),
            },
            counters,
        )
    }
}

impl NodeBehaviour for SinkBehaviour {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _ingress: u16, pkt: Packet) {
        self.counters.received.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(pkt.len() as u64, Ordering::Relaxed);
        ctx.deliver_local(pkt);
    }
    fn name(&self) -> &str {
        "sink"
    }
}

/// A plain destination-keyed forwarder: looks the destination address up
/// in a host-route table, decrements the TTL, and emits on the mapped
/// port. Packets addressed to the node itself are delivered locally.
#[derive(Debug)]
pub struct StaticForwarder {
    local: IpAddr,
    routes: HashMap<IpAddr, u16>,
}

impl StaticForwarder {
    /// Creates a forwarder that owns address `local`.
    pub fn new(local: IpAddr) -> Self {
        Self {
            local,
            routes: HashMap::new(),
        }
    }

    /// Adds (or replaces) the egress port for destination `dst`.
    pub fn route(&mut self, dst: IpAddr, port: u16) -> &mut Self {
        self.routes.insert(dst, port);
        self
    }

    fn dst_of(pkt: &Packet) -> Option<IpAddr> {
        if let Ok(ip) = pkt.ipv4() {
            return Some(IpAddr::V4(ip.dst));
        }
        if let Ok(ip6) = pkt.ipv6() {
            return Some(IpAddr::V6(ip6.dst));
        }
        None
    }
}

impl NodeBehaviour for StaticForwarder {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _ingress: u16, mut pkt: Packet) {
        let Some(dst) = Self::dst_of(&pkt) else {
            ctx.drop_packet(pkt);
            return;
        };
        if dst == self.local {
            ctx.deliver_local(pkt);
            return;
        }
        let Some(&port) = self.routes.get(&dst) else {
            ctx.drop_packet(pkt);
            return;
        };
        if decrement_ttl(&mut pkt) {
            ctx.emit(port, pkt);
        } else {
            ctx.drop_packet(pkt);
        }
    }
    fn name(&self) -> &str {
        "static-forwarder"
    }
}

/// Decrements the packet's TTL/hop-limit in place; returns `false` when
/// the packet must be dropped (expired, or not IP).
pub fn decrement_ttl(pkt: &mut Packet) -> bool {
    use netkit_packet::headers::{Ipv4Header, Ipv6Header};
    if pkt.ipv4().is_ok() {
        return matches!(Ipv4Header::decrement_ttl_in_place(pkt.l3_mut()), Ok(ttl) if ttl > 0);
    }
    if pkt.ipv6().is_ok() {
        return matches!(
            Ipv6Header::decrement_hop_limit_in_place(pkt.l3_mut()),
            Ok(hops) if hops > 0
        );
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_packet::packet::PacketBuilder;

    #[allow(clippy::type_complexity)]
    fn ctx_parts() -> (Vec<(u16, Packet)>, Vec<(u64, u64)>, Vec<Packet>, u64) {
        (Vec::new(), Vec::new(), Vec::new(), 0)
    }

    #[allow(clippy::type_complexity)]
    fn run_on_packet(
        b: &mut dyn NodeBehaviour,
        ingress: u16,
        pkt: Packet,
    ) -> (Vec<(u16, Packet)>, Vec<Packet>, u64) {
        let (mut em, mut ti, mut de, mut dr) = ctx_parts();
        let mut ctx = NodeCtx {
            node: NodeId(0),
            now: SimTime::from_nanos(0),
            emissions: &mut em,
            timers: &mut ti,
            deliveries: &mut de,
            drops: &mut dr,
        };
        b.on_packet(&mut ctx, ingress, pkt);
        (em, de, dr)
    }

    #[test]
    fn sink_counts_and_delivers() {
        let (mut sink, counters) = SinkBehaviour::new();
        let pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2)
            .payload(b"xyz")
            .build();
        let len = pkt.len() as u64;
        let (_, delivered, _) = run_on_packet(&mut sink, 0, pkt);
        assert_eq!(delivered.len(), 1);
        assert_eq!(counters.received(), 1);
        assert_eq!(counters.bytes(), len);
    }

    #[test]
    fn forwarder_routes_by_destination() {
        let mut fwd = StaticForwarder::new("10.0.0.1".parse().unwrap());
        fwd.route("10.0.0.9".parse().unwrap(), 3);
        let pkt = PacketBuilder::udp_v4("10.0.0.5", "10.0.0.9", 1, 2).build();
        let (emitted, delivered, drops) = run_on_packet(&mut fwd, 0, pkt);
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].0, 3);
        assert!(delivered.is_empty());
        assert_eq!(drops, 0);
        // TTL was decremented in flight.
        assert_eq!(emitted[0].1.ipv4().unwrap().ttl, 63);
    }

    #[test]
    fn forwarder_delivers_own_address_and_drops_unknown() {
        let mut fwd = StaticForwarder::new("10.0.0.1".parse().unwrap());
        let local = PacketBuilder::udp_v4("10.0.0.5", "10.0.0.1", 1, 2).build();
        let (_, delivered, _) = run_on_packet(&mut fwd, 0, local);
        assert_eq!(delivered.len(), 1);

        let unroutable = PacketBuilder::udp_v4("10.0.0.5", "10.9.9.9", 1, 2).build();
        let (emitted, _, drops) = run_on_packet(&mut fwd, 0, unroutable);
        assert!(emitted.is_empty());
        assert_eq!(drops, 1);
    }

    #[test]
    fn forwarder_drops_expired_ttl() {
        let mut fwd = StaticForwarder::new("10.0.0.1".parse().unwrap());
        fwd.route("10.0.0.9".parse().unwrap(), 0);
        let pkt = PacketBuilder::udp_v4("10.0.0.5", "10.0.0.9", 1, 2)
            .ttl(1)
            .build();
        let (emitted, _, drops) = run_on_packet(&mut fwd, 0, pkt);
        assert!(emitted.is_empty());
        assert_eq!(drops, 1);
    }

    #[test]
    fn fn_behaviour_invokes_closures() {
        let mut echo = FnBehaviour::new("echo", |ctx: &mut NodeCtx<'_>, ingress, pkt| {
            ctx.emit(ingress, pkt);
        });
        let pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build();
        let (emitted, _, _) = run_on_packet(&mut echo, 7, pkt);
        assert_eq!(emitted[0].0, 7);
        assert_eq!(echo.name(), "echo");
    }
}
