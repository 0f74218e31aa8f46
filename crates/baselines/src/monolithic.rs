//! A hand-coded monolithic IPv4 forwarder: the performance *lower bound*
//! of the forwarding comparison.
//!
//! Everything a Fig-3 pipeline does — protocol recognition, header
//! validation, TTL, route lookup, queueing — in one straight-line
//! function with no component boundaries, no dynamic dispatch, and no
//! reconfiguration of any kind. The gap between this and the
//! component-based router *is* the architecture tax the paper's
//! optimisations (vtable bypass, partial evaluation) aim to claw back.

use std::collections::VecDeque;

use netkit_packet::headers::Ipv4Header;
use netkit_packet::packet::Packet;
use netkit_router::routing::RoutingTable;
use parking_lot::Mutex;

/// Why the forwarder dropped a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Not IPv4, truncated, or bad checksum.
    Malformed,
    /// TTL reached zero.
    TtlExpired,
    /// No route for the destination.
    NoRoute,
    /// The egress queue was full.
    QueueFull,
}

/// Counters kept by the forwarder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ForwarderStats {
    /// Packets queued for egress.
    pub forwarded: u64,
    /// Malformed drops.
    pub malformed: u64,
    /// TTL drops.
    pub ttl_expired: u64,
    /// No-route drops.
    pub no_route: u64,
    /// Queue-full drops.
    pub queue_full: u64,
}

/// The monolithic forwarder: one routing table, one bounded queue per
/// egress port, one function.
#[derive(Debug)]
pub struct MonolithicForwarder {
    routes: RoutingTable,
    queues: Vec<Mutex<VecDeque<Packet>>>,
    queue_cap: usize,
    stats: Mutex<ForwarderStats>,
}

impl MonolithicForwarder {
    /// Creates a forwarder with `ports` egress queues of depth
    /// `queue_cap`.
    ///
    /// # Panics
    ///
    /// Panics if `ports == 0` or `queue_cap == 0`.
    pub fn new(routes: RoutingTable, ports: u16, queue_cap: usize) -> Self {
        assert!(ports > 0, "need at least one port");
        assert!(queue_cap > 0, "queues must hold at least one packet");
        Self {
            routes,
            queues: (0..ports).map(|_| Mutex::new(VecDeque::new())).collect(),
            queue_cap,
            stats: Mutex::new(ForwarderStats::default()),
        }
    }

    /// The entire data path in one function.
    ///
    /// # Errors
    ///
    /// Returns the [`DropReason`] when the packet is not forwarded.
    pub fn forward(&self, mut pkt: Packet) -> Result<u16, DropReason> {
        // 1. Protocol recognition + validation (parse checks checksum).
        let header = match pkt.ipv4() {
            Ok(h) => h,
            Err(_) => {
                self.stats.lock().malformed += 1;
                return Err(DropReason::Malformed);
            }
        };
        let dst = header.dst;

        // 2. Route lookup (same LPM trie the component router uses, so
        // the comparison isolates *architecture*, not data structures).
        let Some(entry) = self.routes.lookup(dst.into()) else {
            self.stats.lock().no_route += 1;
            return Err(DropReason::NoRoute);
        };
        let egress = entry.egress;
        if egress as usize >= self.queues.len() {
            self.stats.lock().no_route += 1;
            return Err(DropReason::NoRoute);
        }

        // 3. TTL + incremental checksum update.
        let alive = matches!(
            Ipv4Header::decrement_ttl_in_place(pkt.l3_mut()),
            Ok(ttl) if ttl > 0
        );
        if !alive {
            self.stats.lock().ttl_expired += 1;
            return Err(DropReason::TtlExpired);
        }

        // 4. Enqueue for egress.
        let mut queue = self.queues[egress as usize].lock();
        if queue.len() >= self.queue_cap {
            self.stats.lock().queue_full += 1;
            return Err(DropReason::QueueFull);
        }
        queue.push_back(pkt);
        self.stats.lock().forwarded += 1;
        Ok(egress)
    }

    /// The data path over a burst: per-packet results identical to
    /// repeated [`Self::forward`] calls, with the stats lock taken once
    /// per burst instead of once per packet — the monolithic analogue of
    /// the component router's `push_batch`.
    pub fn forward_batch(
        &self,
        pkts: impl IntoIterator<Item = Packet>,
    ) -> Vec<Result<u16, DropReason>> {
        let mut results = Vec::new();
        let mut delta = ForwarderStats::default();
        for mut pkt in pkts {
            let outcome = (|| {
                let header = match pkt.ipv4() {
                    Ok(h) => h,
                    Err(_) => {
                        delta.malformed += 1;
                        return Err(DropReason::Malformed);
                    }
                };
                let Some(entry) = self.routes.lookup(header.dst.into()) else {
                    delta.no_route += 1;
                    return Err(DropReason::NoRoute);
                };
                let egress = entry.egress;
                if egress as usize >= self.queues.len() {
                    delta.no_route += 1;
                    return Err(DropReason::NoRoute);
                }
                let alive = matches!(
                    Ipv4Header::decrement_ttl_in_place(pkt.l3_mut()),
                    Ok(ttl) if ttl > 0
                );
                if !alive {
                    delta.ttl_expired += 1;
                    return Err(DropReason::TtlExpired);
                }
                let mut queue = self.queues[egress as usize].lock();
                if queue.len() >= self.queue_cap {
                    delta.queue_full += 1;
                    return Err(DropReason::QueueFull);
                }
                queue.push_back(pkt);
                delta.forwarded += 1;
                Ok(egress)
            })();
            results.push(outcome);
        }
        let mut stats = self.stats.lock();
        stats.forwarded += delta.forwarded;
        stats.malformed += delta.malformed;
        stats.ttl_expired += delta.ttl_expired;
        stats.no_route += delta.no_route;
        stats.queue_full += delta.queue_full;
        results
    }

    /// Drains one packet from an egress queue.
    pub fn drain(&self, port: u16) -> Option<Packet> {
        self.queues.get(port as usize)?.lock().pop_front()
    }

    /// Counters so far.
    pub fn stats(&self) -> ForwarderStats {
        *self.stats.lock()
    }

    /// The routing table (for sizing experiments).
    pub fn routes(&self) -> &RoutingTable {
        &self.routes
    }
}

/// Why the stateful edge dropped a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeDropReason {
    /// Not a parseable IPv4 UDP/TCP flow.
    NotAFlow,
    /// The flow's byte meter crossed the guard threshold.
    RateLimited,
    /// The connection table was full and the flow was new.
    TableFull,
    /// The NAT external-port pool had no free slot.
    Exhausted,
}

/// Counters kept by [`MonolithicStatefulEdge`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Packets translated and delivered.
    pub delivered: u64,
    /// Non-flow drops.
    pub not_a_flow: u64,
    /// Guard drops.
    pub rate_limited: u64,
    /// Connection-table drops.
    pub table_full: u64,
    /// NAT-pool drops.
    pub exhausted: u64,
}

/// The stateful edge — guard, connection tracking, source NAT — as one
/// straight-line function: the performance lower bound the
/// component-based edge (and its declarative-description build) is
/// benchmarked against.
///
/// Same simplifications as the Click baseline's stateful trio, and the
/// same defining limitation: plain hash maps, a sequential
/// **never-reclaimed** port pool, no teardown, no timers, no
/// reconfiguration. The NAT rewrite reuses
/// [`rewrite_ipv4_endpoint`](netkit_router::flow::rewrite_ipv4_endpoint)
/// so checksum arithmetic is identical across all three contenders.
#[derive(Debug)]
pub struct MonolithicStatefulEdge {
    byte_threshold: u64,
    conn_capacity: usize,
    external_ip: std::net::Ipv4Addr,
    port_base: u16,
    pool: usize,
    state: Mutex<EdgeState>,
}

#[derive(Debug, Default)]
struct EdgeState {
    meters: std::collections::HashMap<netkit_packet::flow::FlowKey, u64>,
    flows: std::collections::HashMap<netkit_packet::flow::FlowKey, u64>,
    bindings: std::collections::HashMap<netkit_packet::flow::FlowKey, u16>,
    next_port: usize,
    stats: EdgeStats,
}

impl MonolithicStatefulEdge {
    /// Creates an edge with the given guard threshold, connection-table
    /// bound, and NAT pool (`port_base .. port_base + pool`).
    ///
    /// # Panics
    ///
    /// Panics if the port pool does not fit in `u16`.
    pub fn new(
        byte_threshold: u64,
        conn_capacity: usize,
        external_ip: std::net::Ipv4Addr,
        port_base: u16,
        pool: usize,
    ) -> Self {
        assert!(
            port_base as usize + pool <= u16::MAX as usize + 1,
            "port pool must fit in u16"
        );
        Self {
            byte_threshold,
            conn_capacity,
            external_ip,
            port_base,
            pool,
            state: Mutex::new(EdgeState::default()),
        }
    }

    /// The entire stateful data path in one function: meter → track →
    /// translate. Returns the allocated external port on delivery (0
    /// for a fragment, which is delivered untranslated).
    ///
    /// # Errors
    ///
    /// Returns the [`EdgeDropReason`] when the packet is not delivered.
    pub fn process(&self, pkt: &mut Packet) -> Result<u16, EdgeDropReason> {
        use netkit_packet::flow::FlowKey;
        use netkit_packet::headers::proto;
        use netkit_router::flow::{rewrite_ipv4_endpoint, RewriteSide};

        let mut st = self.state.lock();
        // 1. Flow recognition.
        let key = match FlowKey::from_packet(pkt) {
            Some(k) if k.protocol == proto::UDP || k.protocol == proto::TCP => k.canonical(),
            _ => {
                st.stats.not_a_flow += 1;
                return Err(EdgeDropReason::NotAFlow);
            }
        };
        // 2. Guard: per-flow byte meter.
        let bytes = st.meters.entry(key).or_insert(0);
        *bytes += pkt.data().len() as u64;
        if *bytes > self.byte_threshold {
            st.stats.rate_limited += 1;
            return Err(EdgeDropReason::RateLimited);
        }
        // 3. Connection tracking (bounded; new flows past the bound drop).
        if let Some(pkts) = st.flows.get_mut(&key) {
            *pkts += 1;
        } else if st.flows.len() < self.conn_capacity {
            st.flows.insert(key, 1);
        } else {
            st.stats.table_full += 1;
            return Err(EdgeDropReason::TableFull);
        }
        // 4. Source NAT with a sequential pool. Port-less UDP/TCP is a
        // fragment: delivered untranslated, like the component NAT.
        if (key.src_port, key.dst_port) == (0, 0) {
            st.stats.delivered += 1;
            return Ok(0);
        }
        let ext_port = match st.bindings.get(&key) {
            Some(&p) => p,
            None => {
                if st.next_port >= self.pool {
                    st.stats.exhausted += 1;
                    return Err(EdgeDropReason::Exhausted);
                }
                let p = self.port_base + st.next_port as u16;
                st.next_port += 1;
                st.bindings.insert(key, p);
                p
            }
        };
        rewrite_ipv4_endpoint(pkt, RewriteSide::Src, self.external_ip, ext_port);
        st.stats.delivered += 1;
        Ok(ext_port)
    }

    /// Counters so far.
    pub fn stats(&self) -> EdgeStats {
        self.state.lock().stats
    }

    /// External ports allocated (never reclaimed).
    pub fn ports_in_use(&self) -> usize {
        self.state.lock().next_port
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_packet::packet::PacketBuilder;
    use netkit_router::routing::RouteEntry;

    fn forwarder() -> MonolithicForwarder {
        let mut routes = RoutingTable::new();
        routes.add(
            "10.1.0.0/16",
            RouteEntry {
                egress: 0,
                next_hop: None,
            },
        );
        routes.add(
            "10.2.0.0/16",
            RouteEntry {
                egress: 1,
                next_hop: None,
            },
        );
        routes.add(
            "10.2.3.0/24",
            RouteEntry {
                egress: 2,
                next_hop: None,
            },
        );
        MonolithicForwarder::new(routes, 3, 16)
    }

    #[test]
    fn forwards_by_longest_prefix() {
        let f = forwarder();
        assert_eq!(
            f.forward(PacketBuilder::udp_v4("10.0.0.1", "10.1.5.5", 1, 2).build()),
            Ok(0)
        );
        assert_eq!(
            f.forward(PacketBuilder::udp_v4("10.0.0.1", "10.2.9.9", 1, 2).build()),
            Ok(1)
        );
        assert_eq!(
            f.forward(PacketBuilder::udp_v4("10.0.0.1", "10.2.3.9", 1, 2).build()),
            Ok(2),
            "the /24 beats the /16"
        );
        assert_eq!(f.stats().forwarded, 3);
        assert!(f.drain(2).is_some());
    }

    #[test]
    fn drops_have_reasons() {
        let f = forwarder();
        assert_eq!(
            f.forward(PacketBuilder::udp_v4("10.0.0.1", "172.16.0.1", 1, 2).build()),
            Err(DropReason::NoRoute)
        );
        assert_eq!(
            f.forward(
                PacketBuilder::udp_v4("10.0.0.1", "10.1.0.1", 1, 2)
                    .ttl(1)
                    .build()
            ),
            Err(DropReason::TtlExpired)
        );
        let mut junk = Packet::from_slice(&[0u8; 10]);
        junk.data_mut()[0] = 0x45;
        assert_eq!(f.forward(junk), Err(DropReason::Malformed));
        let s = f.stats();
        assert_eq!((s.no_route, s.ttl_expired, s.malformed), (1, 1, 1));
    }

    #[test]
    fn queue_full_backpressure() {
        let mut routes = RoutingTable::new();
        routes.add(
            "10.0.0.0/8",
            RouteEntry {
                egress: 0,
                next_hop: None,
            },
        );
        let f = MonolithicForwarder::new(routes, 1, 2);
        let pkt = || PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build();
        assert!(f.forward(pkt()).is_ok());
        assert!(f.forward(pkt()).is_ok());
        assert_eq!(f.forward(pkt()), Err(DropReason::QueueFull));
        f.drain(0).unwrap();
        assert!(f.forward(pkt()).is_ok(), "drained capacity is reusable");
    }

    #[test]
    fn stateful_edge_straight_line_path() {
        let edge =
            MonolithicStatefulEdge::new(1 << 20, 64, "192.0.2.1".parse().unwrap(), 40_000, 2);
        let mut a = PacketBuilder::udp_v4("10.0.0.1", "203.0.113.9", 1001, 80).build();
        let mut b = PacketBuilder::udp_v4("10.0.0.2", "203.0.113.9", 1002, 80).build();
        let mut c = PacketBuilder::udp_v4("10.0.0.3", "203.0.113.9", 1003, 80).build();
        let pa = edge.process(&mut a).unwrap();
        assert!((40_000..40_002).contains(&pa));
        assert_eq!(
            a.ipv4().unwrap().src,
            "192.0.2.1".parse::<std::net::Ipv4Addr>().unwrap()
        );
        edge.process(&mut b).unwrap();
        assert_eq!(edge.process(&mut c), Err(EdgeDropReason::Exhausted));
        assert_eq!(edge.ports_in_use(), 2);
        let s = edge.stats();
        assert_eq!((s.delivered, s.exhausted), (2, 1));
        // Repeat traffic on a bound flow reuses its port.
        let mut a2 = PacketBuilder::udp_v4("10.0.0.1", "203.0.113.9", 1001, 80).build();
        assert_eq!(edge.process(&mut a2), Ok(pa));
    }

    #[test]
    fn ttl_decrement_is_visible_downstream() {
        let f = forwarder();
        f.forward(
            PacketBuilder::udp_v4("10.0.0.1", "10.1.0.1", 1, 2)
                .ttl(9)
                .build(),
        )
        .unwrap();
        let out = f.drain(0).unwrap();
        assert_eq!(out.ipv4().unwrap().ttl, 8);
    }
}
