//! The route-lookup element.
//!
//! Performs longest-prefix-match against a [`RoutingTable`], annotates
//! the packet with its egress port and next hop, and emits it on the
//! per-port labelled output (falling back to the `out` label when no
//! per-port output is bound). Its control surface is [`ITable`]: a
//! route entry names the row its prefix keys (family, length, masked
//! address); a del removes the row only if it exits where the entry
//! says.

use std::net::IpAddr;
use std::sync::Arc;

use netkit_packet::batch::PacketBatch;
use netkit_packet::headers::EtherType;
use netkit_packet::packet::Packet;
use opencom::component::{Component, ComponentCore, Registrar};
use opencom::counters;
use opencom::error::Result;
use opencom::receptacle::Receptacle;
use parking_lot::RwLock;

use crate::api::{
    emit, BatchResult, Exit, Exits, IPacketPush, ITable, Output, PushError, IPACKET_PUSH, ITABLE,
};
use crate::desc::schema::TableKind;
use crate::desc::TableEntry;
use crate::routing::{RouteEntry, RoutingTable};

use super::{element_core, first_met};

/// The row a route entry names, and the route it installs there.
fn route_of(entry: &TableEntry) -> Result<(IpAddr, u8, RouteEntry)> {
    let TableEntry::Route { prefix, egress } = entry else {
        return Err(entry.foreign_to(TableKind::Route));
    };
    let route = RouteEntry {
        egress: *egress,
        next_hop: None,
    };
    Ok((prefix.net, prefix.len, route))
}

counters! {
    /// What a [`RouteLookup`] counted.
    pub struct RouteStats {
        /// Packets with a route, annotated and sent on.
        routed,
        /// Packets with no route, dropped with `NoRoute`.
        unrouted,
    }
}

/// The route-lookup element.
pub struct RouteLookup {
    core: ComponentCore,
    table: RwLock<RoutingTable>,
    outs: Receptacle<dyn IPacketPush>,
}

impl RouteLookup {
    /// Creates an element with an empty routing table.
    pub fn new() -> Arc<Self> {
        Self::with_table(RoutingTable::new())
    }

    /// Creates an element with a prepopulated table.
    pub fn with_table(table: RoutingTable) -> Arc<Self> {
        Arc::new(Self {
            core: element_core("netkit.RouteLookup").counting::<RouteStats>(),
            table: RwLock::new(table),
            outs: Receptacle::multi("out", IPACKET_PUSH),
        })
    }

    /// Packet counts.
    pub fn stats(&self) -> RouteStats {
        self.core.counters().read()
    }

    fn destination(pkt: &Packet) -> Option<IpAddr> {
        match pkt.ethernet().ok()?.ethertype {
            EtherType::Ipv4 => pkt.ipv4().ok().map(|h| IpAddr::V4(h.dst)),
            EtherType::Ipv6 => pkt.ipv6().ok().map(|h| IpAddr::V6(h.dst)),
            _ => None,
        }
    }
}

impl IPacketPush for RouteLookup {
    fn push_batch(&self, mut batch: PacketBatch) -> BatchResult {
        // All LPM lookups under one table read lock. Each packet leaves
        // on its port's own output, else on `out`; one with no route
        // drops with `NoRoute`.
        let mut exits = Exits::new(0);
        let mut counts = RouteStats::default();
        // The output of each egress port this batch has met.
        let mut ports: Vec<(u16, usize)> = Vec::new();
        let mut labels: Vec<String> = Vec::new();
        {
            let table = self.table.read();
            for (idx, pkt) in batch.packets_mut().iter_mut().enumerate() {
                let Some((dst, entry)) =
                    Self::destination(pkt).and_then(|dst| Some((dst, table.lookup(dst)?)))
                else {
                    counts.unrouted += 1;
                    exits.set(idx, Exit::Drop(Err(PushError::NoRoute)));
                    continue;
                };
                pkt.meta.egress = Some(entry.egress);
                pkt.meta.next_hop = entry.next_hop.or(Some(dst));
                counts.routed += 1;
                let k = match ports.iter().find(|(port, _)| *port == entry.egress) {
                    Some(&(_, k)) => k,
                    None => {
                        let own = entry.egress.to_string();
                        let bound = self.outs.with_labelled(&own, |_| ()).is_some();
                        let k = first_met(&mut labels, if bound { &own } else { "out" });
                        ports.push((entry.egress, k));
                        k
                    }
                };
                exits.set(idx, Exit::Out(k));
            }
        }
        self.core.counters().flush(counts);
        let outputs: Vec<Output<'_>> = labels
            .iter()
            .map(|l| Output::new(&self.outs, Err(PushError::Unbound)).labelled(l))
            .collect();
        emit(batch, &exits, &outputs)
    }
}

impl ITable for RouteLookup {
    fn put(&self, entry: &TableEntry) -> Result<()> {
        let (net, len, route) = route_of(entry)?;
        self.table.write().insert(net, len, route);
        Ok(())
    }

    fn del(&self, entry: &TableEntry) -> Result<()> {
        let (net, len, route) = route_of(entry)?;
        let mut table = self.table.write();
        if table.get(net, len) != Some(route) {
            return Err(entry.absent());
        }
        table.remove(net, len);
        Ok(())
    }
}

impl Component for RouteLookup {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
        let table: Arc<dyn ITable> = self.clone();
        reg.expose(ITABLE, &table);
        reg.receptacle(&self.outs);
    }
    fn footprint_bytes(&self) -> usize {
        let (v4, v6) = self.table.read().len();
        std::mem::size_of::<Self>() + (v4 + v6) * 64 // trie node estimate
    }
}

impl std::fmt::Debug for RouteLookup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RouteLookup{:?}", self.core.counters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::misc::Discard;
    use crate::routing::Prefix;
    use netkit_packet::packet::PacketBuilder;
    use opencom::capsule::Capsule;
    use opencom::runtime::Runtime;

    fn rig_with(
        table: RoutingTable,
    ) -> (Arc<Capsule>, Arc<RouteLookup>, Arc<Discard>, Arc<Discard>) {
        let rt = Runtime::new();
        crate::api::register_packet_interfaces(&rt);
        let capsule = Capsule::new("t", &rt);
        let route = RouteLookup::with_table(table);
        let (p0, p1) = (Discard::new(), Discard::new());
        let rid = capsule.adopt(route.clone()).unwrap();
        let id0 = capsule.adopt(p0.clone()).unwrap();
        let id1 = capsule.adopt(p1.clone()).unwrap();
        capsule.bind(rid, "out", "0", id0, IPACKET_PUSH).unwrap();
        capsule.bind(rid, "out", "1", id1, IPACKET_PUSH).unwrap();
        (capsule, route, p0, p1)
    }

    fn rig() -> (Arc<Capsule>, Arc<RouteLookup>, Arc<Discard>, Arc<Discard>) {
        rig_with(RoutingTable::new())
    }

    fn entry(prefix: &str, egress: u16) -> TableEntry {
        TableEntry::Route {
            prefix: prefix.parse().unwrap(),
            egress,
        }
    }

    fn lookup(route: &RouteLookup, addr: &str) -> Option<RouteEntry> {
        route.table.read().lookup(addr.parse().unwrap())
    }

    #[test]
    fn routes_to_per_port_outputs() {
        // A next hop is static configuration: route entries name a port.
        let mut table = RoutingTable::new();
        table.add(
            "10.1.0.0/16",
            RouteEntry {
                egress: 1,
                next_hop: Some("10.1.0.254".parse().unwrap()),
            },
        );
        let (_c, route, p0, p1) = rig_with(table);
        route.put(&entry("10.0.0.0/8", 0)).unwrap();
        route
            .push(PacketBuilder::udp_v4("9.9.9.9", "10.2.3.4", 1, 2).build())
            .unwrap();
        route
            .push(PacketBuilder::udp_v4("9.9.9.9", "10.1.3.4", 1, 2).build())
            .unwrap();
        assert_eq!((p0.count(), p1.count()), (1, 1));
        let routed = p1.last().unwrap();
        assert_eq!(routed.meta.egress, Some(1));
        assert_eq!(routed.meta.next_hop, Some("10.1.0.254".parse().unwrap()));
        // Directly connected: next hop defaults to the destination.
        assert_eq!(
            p0.last().unwrap().meta.next_hop,
            Some("10.2.3.4".parse().unwrap())
        );
    }

    #[test]
    fn no_route_is_an_error() {
        let (_c, route, _p0, _p1) = rig();
        let res = route.push(PacketBuilder::udp_v4("9.9.9.9", "8.8.8.8", 1, 2).build());
        assert!(matches!(res, Err(PushError::NoRoute)));
        let s = route.stats();
        assert_eq!((s.routed, s.unrouted), (0, 1));
    }

    #[test]
    fn remove_route_takes_effect() {
        let (_c, route, _p0, _p1) = rig();
        route.put(&entry("10.0.0.0/8", 0)).unwrap();
        assert!(lookup(&route, "10.5.5.5").is_some());
        // The row is keyed by the masked prefix; one exiting elsewhere
        // is not the installed entry, and its del changes nothing.
        assert!(route.del(&entry("10.0.0.0/8", 1)).is_err());
        route.del(&entry("10.0.0.1/8", 0)).unwrap();
        assert!(lookup(&route, "10.5.5.5").is_none());
        assert!(route.del(&entry("10.0.0.0/8", 0)).is_err());
    }

    #[test]
    fn malformed_prefixes_rejected() {
        for prefix in [
            "10.0.0.0",
            "10.0.0.0/x",
            "banana/8",
            "10.0.0.0/33",
            "2001:db8::/129",
        ] {
            assert!(prefix.parse::<Prefix>().is_err(), "{prefix}");
        }
    }

    #[test]
    fn v6_routing_works() {
        let (_c, route, p0, _p1) = rig();
        route.put(&entry("2001:db8::/32", 0)).unwrap();
        route
            .push(PacketBuilder::udp_v6("2001:db8::1", "2001:db8::2", 1, 2).build())
            .unwrap();
        assert_eq!(p0.count(), 1);
    }

    #[test]
    fn control_interface_is_exported() {
        let rt = Runtime::new();
        crate::api::register_packet_interfaces(&rt);
        let capsule = Capsule::new("t", &rt);
        let route = RouteLookup::new();
        let rid = capsule.adopt(route.clone()).unwrap();
        let iref = capsule.query_interface(rid, ITABLE).unwrap();
        let table: Arc<dyn ITable> = iref.downcast().unwrap();
        table.put(&entry("10.0.0.0/8", 3)).unwrap();
        assert_eq!(lookup(&route, "10.1.1.1").unwrap().egress, 3);
    }
}
