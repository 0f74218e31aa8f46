//! The execution environment as a Router-CF plug-in.
//!
//! [`EeComponent`] wraps an [`ExecutionEnv`] in
//! the Fig-2 component shape: active capsules arrive on `IPacketPush`,
//! execute in the sandbox, and their emissions leave on labelled
//! `IPacketPush` receptacles (`port0`, `port1`, …) or the `local` output
//! for deliveries. Non-active traffic passes through untouched on
//! `bypass` — an EE sits *beside* the fast path, not in it (paper §3:
//! stratum 3 acts on *pre-selected* flows).

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netkit_packet::packet::{Packet, PacketBuilder};
use opencom::component::{Component, ComponentCore, ComponentDescriptor, Registrar};
use opencom::ident::Version;
use opencom::receptacle::Receptacle;
use parking_lot::RwLock;

use netkit_router::api::{IPacketPush, PushResult, IPACKET_PUSH};
use netkit_router::routing::RoutingTable;

use crate::ee::{capsule_payload, EeBudget, EmitTarget, ExecutionEnv, NodeInfo};

/// Output label for locally delivered capsules.
pub const LOCAL_OUTPUT: &str = "local";
/// Output label for non-active passthrough traffic.
pub const BYPASS_OUTPUT: &str = "bypass";

/// Builds the label for port `p` emissions.
fn port_output(p: u16) -> String {
    format!("port{p}")
}

/// Node identity and routing supplied by the hosting node.
#[derive(Debug)]
pub struct EeNode {
    /// The node's address; its `u32` form doubles as the node id.
    pub addr: Ipv4Addr,
    /// Virtual time source (nanoseconds).
    pub now_ns: Arc<AtomicU64>,
    /// LPM table consulted by `RouteLookup` and `Forward`.
    pub routes: Arc<RwLock<RoutingTable>>,
}

impl NodeInfo for EeNode {
    fn node_id(&self) -> u32 {
        u32::from(self.addr)
    }
    fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::Relaxed)
    }
    fn route_lookup(&self, dst: Ipv4Addr) -> Option<u16> {
        self.routes.read().lookup(dst.into()).map(|e| e.egress)
    }
}

/// Counters kept by an [`EeComponent`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EeComponentStats {
    /// Active capsules executed.
    pub capsules: u64,
    /// Capsules whose execution faulted (and were dropped).
    pub faults: u64,
    /// Non-active packets passed through.
    pub bypassed: u64,
    /// Emissions with no usable route/output (dropped).
    pub unroutable: u64,
}

/// The EE wrapped as an OpenCOM component (see module docs).
pub struct EeComponent {
    core: ComponentCore,
    env: ExecutionEnv,
    node: EeNode,
    outs: Receptacle<dyn IPacketPush>,
    stats: RwLock<EeComponentStats>,
}

impl EeComponent {
    /// Creates an EE component for the node described by `node`.
    pub fn new(budget: EeBudget, node: EeNode) -> Arc<Self> {
        Arc::new(Self {
            core: ComponentCore::new(ComponentDescriptor::new(
                "netkit.ExecutionEnv",
                Version::new(1, 0, 0),
            )),
            env: ExecutionEnv::new(budget),
            node,
            outs: Receptacle::multi("out", IPACKET_PUSH),
            stats: RwLock::new(EeComponentStats::default()),
        })
    }

    /// The wrapped execution environment (for pre-loading programs and
    /// reading VM statistics).
    pub fn env(&self) -> &ExecutionEnv {
        &self.env
    }

    /// Component-level counters.
    pub fn stats(&self) -> EeComponentStats {
        *self.stats.read()
    }

    /// Rebuilds a capsule payload into a forwardable UDP packet.
    fn repackage(&self, dst: Ipv4Addr, payload: &[u8]) -> Packet {
        PacketBuilder::udp_v4(&self.node.addr.to_string(), &dst.to_string(), 3322, 3322)
            .payload(payload)
            .build()
    }

    fn emit_on(&self, label: &str, pkt: Packet) -> PushResult {
        match self.outs.with_labelled(label, |next| next.push(pkt)) {
            Some(result) => result,
            None => {
                self.stats.write().unroutable += 1;
                Ok(()) // dropped by policy; counted
            }
        }
    }
}

impl IPacketPush for EeComponent {
    fn push(&self, pkt: Packet) -> PushResult {
        let Some(payload) = capsule_payload(&pkt) else {
            self.stats.write().bypassed += 1;
            return self.emit_on(BYPASS_OUTPUT, pkt);
        };
        let payload = payload.to_vec();
        match self.env.execute(&payload, &self.node) {
            Ok(outcome) => {
                self.stats.write().capsules += 1;
                if outcome.delivered {
                    self.emit_on(LOCAL_OUTPUT, pkt)?;
                }
                for (target, bytes) in outcome.emitted {
                    match target {
                        EmitTarget::Port(p) => {
                            let out = self.repackage(self.node.addr, &bytes);
                            self.emit_on(&port_output(p), out)?;
                        }
                        EmitTarget::Dst(dst) => match self.node.route_lookup(dst) {
                            Some(p) => {
                                let out = self.repackage(dst, &bytes);
                                self.emit_on(&port_output(p), out)?;
                            }
                            None => {
                                self.stats.write().unroutable += 1;
                            }
                        },
                    }
                }
                Ok(())
            }
            Err(e) => {
                // Faulty capsules hurt only themselves: drop, count, keep
                // the router up (stratum-3 containment).
                self.stats.write().faults += 1;
                let _ = e;
                Ok(())
            }
        }
    }
}

impl Component for EeComponent {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
        reg.receptacle(&self.outs);
    }
    fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.env.cached_programs() * 256
    }
}

impl std::fmt::Debug for EeComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EeComponent(node={}, {:?})", self.node.addr, self.env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ee::{Capsule, OpCode, Program};
    use crate::programs::{self, path_collector};
    use netkit_router::api::register_packet_interfaces;
    use netkit_router::cf::RouterCf;
    use netkit_router::elements::Discard;
    use netkit_router::routing::RouteEntry;
    use opencom::capsule::Capsule as OcCapsule;
    use opencom::cf::Principal;
    use opencom::runtime::Runtime;

    fn node(addr: &str) -> EeNode {
        let mut table = RoutingTable::new();
        table.add(
            "10.0.1.0/24",
            RouteEntry {
                egress: 0,
                next_hop: None,
            },
        );
        table.add(
            "10.0.2.0/24",
            RouteEntry {
                egress: 1,
                next_hop: None,
            },
        );
        EeNode {
            addr: addr.parse().unwrap(),
            now_ns: Arc::new(AtomicU64::new(77)),
            routes: Arc::new(RwLock::new(table)),
        }
    }

    struct Rig {
        ee: Arc<EeComponent>,
        local: Arc<Discard>,
        bypass: Arc<Discard>,
        port0: Arc<Discard>,
        port1: Arc<Discard>,
    }

    fn rig() -> Rig {
        let rt = Runtime::new();
        register_packet_interfaces(&rt);
        let capsule = OcCapsule::new("t", &rt);
        let ee = EeComponent::new(EeBudget::default(), node("10.0.0.1"));
        let id = capsule.adopt(ee.clone()).unwrap();
        let mut sinks = Vec::new();
        for label in [LOCAL_OUTPUT, BYPASS_OUTPUT, "port0", "port1"] {
            let sink = Discard::new();
            let sid = capsule.adopt(sink.clone()).unwrap();
            capsule.bind(id, "out", label, sid, IPACKET_PUSH).unwrap();
            sinks.push(sink);
        }
        let mut it = sinks.into_iter();
        Rig {
            ee,
            local: it.next().unwrap(),
            bypass: it.next().unwrap(),
            port0: it.next().unwrap(),
            port1: it.next().unwrap(),
        }
    }

    fn active_packet(program: &Program, args: Vec<i64>) -> Packet {
        let capsule = Capsule::with_code(program, args);
        PacketBuilder::udp_v4("10.0.9.9", "10.0.0.1", 3322, 3322)
            .payload(&capsule.encode())
            .build()
    }

    #[test]
    fn non_active_traffic_bypasses() {
        let r = rig();
        r.ee.push(
            PacketBuilder::udp_v4("10.0.0.9", "10.0.0.1", 1, 2)
                .payload(b"hi")
                .build(),
        )
        .unwrap();
        assert_eq!(r.bypass.count(), 1);
        assert_eq!(r.ee.stats().bypassed, 1);
    }

    #[test]
    fn delivering_capsule_surfaces_on_local() {
        let r = rig();
        let p = Program::new("deliver", vec![OpCode::DeliverLocal]);
        r.ee.push(active_packet(&p, vec![])).unwrap();
        assert_eq!(r.local.count(), 1);
        assert_eq!(r.ee.stats().capsules, 1);
    }

    #[test]
    fn forward_routes_via_lpm_table() {
        let r = rig();
        let to1 = u32::from(Ipv4Addr::new(10, 0, 1, 5)) as i64;
        let to2 = u32::from(Ipv4Addr::new(10, 0, 2, 5)) as i64;
        let p = Program::new(
            "fan",
            vec![
                OpCode::Push(to1),
                OpCode::Forward,
                OpCode::Push(to2),
                OpCode::Forward,
            ],
        );
        r.ee.push(active_packet(&p, vec![])).unwrap();
        assert_eq!(r.port0.count(), 1);
        assert_eq!(r.port1.count(), 1);
        // Re-emitted packet is addressed to the capsule's destination.
        assert_eq!(
            r.port0.last().unwrap().ipv4().unwrap().dst,
            Ipv4Addr::new(10, 0, 1, 5)
        );
    }

    #[test]
    fn unroutable_forward_is_counted_not_fatal() {
        let r = rig();
        let nowhere = u32::from(Ipv4Addr::new(192, 168, 1, 1)) as i64;
        let p = Program::new("lost", vec![OpCode::Push(nowhere), OpCode::Forward]);
        r.ee.push(active_packet(&p, vec![])).unwrap();
        assert_eq!(r.ee.stats().unroutable, 1);
        assert_eq!(r.port0.count() + r.port1.count(), 0);
    }

    #[test]
    fn faulting_capsule_is_contained() {
        let r = rig();
        let p = Program::new("boom", vec![OpCode::Push(1), OpCode::Push(0), OpCode::Div]);
        r.ee.push(active_packet(&p, vec![])).unwrap();
        assert_eq!(r.ee.stats().faults, 1);
        // The router keeps running.
        r.ee.push(PacketBuilder::udp_v4("10.0.0.9", "10.0.0.1", 1, 2).build())
            .unwrap();
        assert_eq!(r.bypass.count(), 1);
    }

    #[test]
    fn path_collector_stamps_this_node() {
        let r = rig();
        let p = path_collector();
        let me = u32::from(Ipv4Addr::new(10, 0, 0, 1)) as i64;
        r.ee.push(active_packet(&p, vec![me])).unwrap();
        // Destination == this node, so it delivers immediately with one
        // path entry.
        assert_eq!(r.local.count(), 1);
        let delivered = r.local.last().unwrap();
        let decoded = Capsule::decode(capsule_payload(&delivered).unwrap()).unwrap();
        // The delivered packet is the *incoming* capsule; its args were
        // stamped by the EE before delivery happens at the VM level, so we
        // only check it is still a well-formed capsule here.
        assert_eq!(decoded.args[0], me);
        let _ = programs::ping_capsule_args(
            "10.0.0.2".parse().unwrap(),
            "10.0.0.1".parse().unwrap(),
            0,
        );
    }

    #[test]
    fn ee_component_is_router_cf_conformant() {
        let rt = Runtime::new();
        register_packet_interfaces(&rt);
        let capsule = OcCapsule::new("t", &rt);
        let cf = RouterCf::new("router", Arc::clone(&capsule));
        let ee = EeComponent::new(EeBudget::default(), node("10.0.0.1"));
        let id = capsule.adopt(ee).unwrap();
        cf.plug(&Principal::system(), id).unwrap();
        assert!(cf.members().contains(&id));
    }
}
