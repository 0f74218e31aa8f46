//! L4 load balancing: rendezvous-hash backend pick, flow stickiness,
//! backend draining.
//!
//! Both control surfaces are in the interface meta-model: the backend
//! set is a table like any other ([`ITable`](crate::api::ITable), what
//! a description's `Backend` entries reach), and the element publishes
//! itself under [`IBALANCER`] for what only a balancer has (drain,
//! per-backend counters).

use std::fmt;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

use netkit_packet::batch::PacketBatch;
use netkit_packet::flow::{FlowKey, ParsedFlow};
use netkit_packet::packet::Packet;
use opencom::component::{Component, ComponentCore, Registrar};
use opencom::counters;
use opencom::error::{Error, Result};
use opencom::ident::InterfaceId;
use opencom::receptacle::Receptacle;
use parking_lot::Mutex;

use crate::api::{
    emit, BatchResult, Exit, Exits, IPacketPush, ITable, Output, PushError, IPACKET_PUSH, ITABLE,
};
use crate::desc::schema::TableKind;
use crate::desc::TableEntry;
use crate::elements::element_core;

use super::rewrite::{rewrite_ipv4_endpoint, RewriteSide};
use super::table::{FlowClock, FlowTable};

/// Interface id under which an [`L4LoadBalancer`] publishes itself:
/// query it on a capsule and downcast to `L4LoadBalancer`.
pub const IBALANCER: InterfaceId = InterfaceId::new("netkit.IBalancer");

/// murmur3's 64-bit finaliser (the same mix the RSS hash ends with).
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A backend's public description and counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackendStats {
    /// The backend's id (stable across drain; freed on removal).
    pub id: u32,
    /// Backend address.
    pub ip: Ipv4Addr,
    /// Backend port.
    pub port: u16,
    /// True once draining: existing flows continue, new flows skip it.
    pub draining: bool,
    /// Packets forwarded to this backend.
    pub packets: u64,
    /// Flows currently stuck to this backend.
    pub flows: u64,
}

struct BackendSlot {
    id: u32,
    ip: Ipv4Addr,
    port: u16,
    draining: bool,
    packets: u64,
    flows: u64,
}

counters! {
    /// Packet counts of an [`L4LoadBalancer`].
    pub struct LbStats {
        /// Client packets rewritten to a backend.
        balanced,
        /// Backend replies rewritten back to the VIP.
        returned,
        /// Packets passed through untouched.
        passthrough,
    }
}

struct LbInner {
    backends: Vec<BackendSlot>,
    /// Canonical client↔VIP (and client↔backend) flows → backend id.
    table: FlowTable<u32>,
    next_id: u32,
}

impl LbInner {
    fn backend_pos(&self, id: u32) -> Option<usize> {
        self.backends.iter().position(|b| b.id == id)
    }

    /// Rendezvous (highest-random-weight) pick over non-draining
    /// backends: deterministic for a given (flow, backend-set), and
    /// removing one backend only re-homes the flows that were on it.
    fn pick(&self, flow_hash: u64) -> Option<u32> {
        self.backends
            .iter()
            .filter(|b| !b.draining)
            .max_by_key(|b| {
                (
                    fmix64(flow_hash ^ fmix64(0x5851_f42d_4c95_7f2d ^ b.id as u64)),
                    b.id,
                )
            })
            .map(|b| b.id)
    }
}

/// A virtual-IP L4 load balancer element.
///
/// Traffic addressed to the VIP is DNAT-rewritten to a backend chosen
/// by rendezvous hashing over the flow's canonical RSS hash; the
/// choice is made **sticky** through a bounded [`FlowTable`], so a
/// flow keeps its backend even while backends are added. Reply
/// traffic from a backend is matched by the same table and rewritten
/// back to the VIP. Draining a backend keeps existing flows flowing
/// and steers new flows elsewhere; removing it re-homes its flows on
/// their next packet (deterministically, via the rendezvous re-pick).
///
/// Because the rendezvous pick is a pure function of
/// (flow hash, live backend set), a migrated flow whose table entry
/// was left on another shard re-establishes onto the *same* backend,
/// provided the backend set matches — see the [module docs](super)
/// on state across rebalances.
pub struct L4LoadBalancer {
    core: ComponentCore,
    out: Receptacle<dyn IPacketPush>,
    vip: Ipv4Addr,
    vport: u16,
    inner: Mutex<LbInner>,
    clock: FlowClock,
}

impl L4LoadBalancer {
    /// Creates a balancer for `vip:vport` with a flow table bounded to
    /// `capacity` entries and the given idle timeout (in
    /// [`FlowClock`] ticks).
    pub fn new(vip: Ipv4Addr, vport: u16, capacity: usize, idle_timeout: u64) -> Arc<Self> {
        Arc::new(Self {
            core: element_core("netkit.L4LoadBalancer").counting::<LbStats>(),
            out: Receptacle::single("out", IPACKET_PUSH),
            vip,
            vport,
            inner: Mutex::new(LbInner {
                backends: Vec::new(),
                table: FlowTable::new(capacity, idle_timeout),
                next_id: 0,
            }),
            clock: FlowClock::new(),
        })
    }

    /// Starts draining a backend: existing flows continue, new flows
    /// skip it. Returns false for an unknown id.
    pub fn drain_backend(&self, id: u32) -> bool {
        let mut inner = self.inner.lock();
        match inner.backend_pos(id) {
            Some(pos) => {
                inner.backends[pos].draining = true;
                true
            }
            None => false,
        }
    }

    /// Per-backend description and counters.
    pub fn backends(&self) -> Vec<BackendStats> {
        self.inner
            .lock()
            .backends
            .iter()
            .map(|b| BackendStats {
                id: b.id,
                ip: b.ip,
                port: b.port,
                draining: b.draining,
                packets: b.packets,
                flows: b.flows,
            })
            .collect()
    }

    /// Packet counts.
    pub fn counters(&self) -> LbStats {
        self.core.counters().read()
    }

    /// Balances one packet in place, tallying the outcome into
    /// `counts`. `Err` = dropped with that verdict.
    fn balance(
        &self,
        inner: &mut LbInner,
        pkt: &mut Packet,
        counts: &mut LbStats,
    ) -> Result<(), PushError> {
        // IPv4 with real ports only; fragments pass through like any
        // other port-less frame.
        let Some(flow) = ParsedFlow::of(pkt).filter(ParsedFlow::has_ports) else {
            counts.passthrough += 1;
            return Ok(());
        };
        let now = self.clock.advance(pkt.meta.timestamp_ns);
        let (key, hash) = (flow.key(), flow.hash());
        let ckey = key.canonical();
        if flow.dst() == self.vip && flow.dst_port() == self.vport {
            // Client → VIP: pick (or recall) a backend, DNAT to it.
            let sticky = inner.table.get_mut(hash, &ckey, now).copied();
            let valid = sticky.filter(|id| inner.backend_pos(*id).is_some());
            let id = match valid {
                Some(id) => id,
                None => {
                    let Some(id) = inner.pick(hash) else {
                        return Err(PushError::Veto("lb: no live backends".into()));
                    };
                    // Stick the client↔VIP flow…
                    let adm = inner.table.get_or_insert_with(hash, ckey, now, || id);
                    let was_new = adm.created;
                    *adm.value = id;
                    let evicted = adm.evicted;
                    if let Some((_, old)) = evicted {
                        if let Some(pos) = inner.backend_pos(old) {
                            inner.backends[pos].flows = inner.backends[pos].flows.saturating_sub(1);
                        }
                    }
                    let pos = inner.backend_pos(id).expect("picked live backend");
                    if was_new {
                        inner.backends[pos].flows += 1;
                    }
                    // …and the client↔backend flow, so replies match.
                    let (bip, bport) = (inner.backends[pos].ip, inner.backends[pos].port);
                    let reply_key = FlowKey {
                        src: key.src,
                        dst: IpAddr::V4(bip),
                        protocol: key.protocol,
                        src_port: key.src_port,
                        dst_port: bport,
                    }
                    .canonical();
                    let adm =
                        inner
                            .table
                            .get_or_insert_with(reply_key.rss_hash(), reply_key, now, || id);
                    *adm.value = id;
                    id
                }
            };
            let pos = inner.backend_pos(id).expect("validated");
            inner.backends[pos].packets += 1;
            let (bip, bport) = (inner.backends[pos].ip, inner.backends[pos].port);
            rewrite_ipv4_endpoint(pkt, RewriteSide::Dst, bip, bport);
            counts.balanced += 1;
            return Ok(());
        }
        // Backend → client reply: restore the VIP as the source.
        if let Some(id) = inner.table.get_mut(hash, &ckey, now).copied() {
            if let Some(pos) = inner.backend_pos(id) {
                if inner.backends[pos].ip == flow.src()
                    && inner.backends[pos].port == flow.src_port()
                {
                    rewrite_ipv4_endpoint(pkt, RewriteSide::Src, self.vip, self.vport);
                    counts.returned += 1;
                    return Ok(());
                }
            }
        }
        counts.passthrough += 1;
        Ok(())
    }
}

impl IPacketPush for L4LoadBalancer {
    fn push_batch(&self, mut batch: PacketBatch) -> BatchResult {
        let mut counts = LbStats::default();
        let mut exits = Exits::new(0);
        {
            // One lock for the whole burst.
            let mut inner = self.inner.lock();
            for (i, pkt) in batch.packets_mut().iter_mut().enumerate() {
                if let Err(e) = self.balance(&mut inner, pkt, &mut counts) {
                    exits.set(i, Exit::Drop(Err(e)));
                }
            }
        }
        self.core.counters().flush(counts);
        emit(batch, &exits, &[Output::new(&self.out, Ok(()))])
    }
}

/// The backend an entry names: `(ip, port)`.
fn named_backend(entry: &TableEntry) -> Result<(Ipv4Addr, u16)> {
    let TableEntry::Backend { ip, port } = entry else {
        return Err(entry.foreign_to(TableKind::Backend));
    };
    let ip = ip.parse().map_err(|_| Error::StaleReference {
        what: format!("backend address `{ip}`"),
    })?;
    Ok((ip, *port))
}

/// A backend is found again by `(ip, port)`; a draining one is still
/// installed. Removing one re-homes its flows on their next packet.
impl ITable for L4LoadBalancer {
    fn put(&self, entry: &TableEntry) -> Result<()> {
        let (ip, port) = named_backend(entry)?;
        let mut inner = self.inner.lock();
        if !inner.backends.iter().any(|b| (b.ip, b.port) == (ip, port)) {
            let id = inner.next_id;
            inner.next_id += 1;
            inner.backends.push(BackendSlot {
                id,
                ip,
                port,
                draining: false,
                packets: 0,
                flows: 0,
            });
        }
        Ok(())
    }

    fn del(&self, entry: &TableEntry) -> Result<()> {
        let (ip, port) = named_backend(entry)?;
        let mut inner = self.inner.lock();
        let pos = inner
            .backends
            .iter()
            .position(|b| (b.ip, b.port) == (ip, port));
        inner.backends.remove(pos.ok_or_else(|| entry.absent())?);
        Ok(())
    }
}

impl Component for L4LoadBalancer {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
        let table: Arc<dyn ITable> = self.clone();
        reg.expose(ITABLE, &table);
        reg.expose(IBALANCER, &self);
        reg.receptacle(&self.out);
    }
    fn footprint_bytes(&self) -> usize {
        let inner = self.inner.lock();
        std::mem::size_of::<Self>()
            + inner.table.footprint_bytes()
            + inner.backends.capacity() * std::mem::size_of::<BackendSlot>()
    }
}

impl fmt::Debug for L4LoadBalancer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "L4LoadBalancer(vip {}:{}, {} backends, {:?})",
            self.vip,
            self.vport,
            self.inner.lock().backends.len(),
            self.core.counters()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_packet::packet::PacketBuilder;

    const VIP: &str = "10.99.0.1";

    fn backend(ip: &str) -> TableEntry {
        TableEntry::Backend {
            ip: ip.into(),
            port: 8080,
        }
    }

    fn lb() -> Arc<L4LoadBalancer> {
        let lb = L4LoadBalancer::new(VIP.parse().unwrap(), 80, 256, u64::MAX);
        for ip in ["10.1.0.1", "10.1.0.2", "10.1.0.3"] {
            lb.put(&backend(ip)).unwrap();
        }
        lb
    }

    fn to_vip(client: u16) -> Packet {
        PacketBuilder::udp_v4("10.0.0.9", VIP, client, 80).build()
    }

    fn backend_of(lb: &L4LoadBalancer, client: u16) -> Ipv4Addr {
        let mut pkt = to_vip(client);
        let mut counts = LbStats::default();
        lb.balance(&mut lb.inner.lock(), &mut pkt, &mut counts)
            .unwrap();
        assert_eq!(counts.balanced, 1);
        match FlowKey::from_packet(&pkt).unwrap().dst {
            IpAddr::V4(ip) => ip,
            _ => unreachable!(),
        }
    }

    #[test]
    fn flows_spread_and_stick() {
        let lb = lb();
        let first: Vec<Ipv4Addr> = (0..32).map(|c| backend_of(&lb, 7000 + c)).collect();
        let unique: std::collections::HashSet<_> = first.iter().collect();
        assert!(unique.len() > 1, "32 flows spread over 3 backends");
        // Same flows again: identical (sticky) assignment.
        let second: Vec<Ipv4Addr> = (0..32).map(|c| backend_of(&lb, 7000 + c)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn reply_traffic_is_rewritten_back_to_the_vip() {
        let lb = lb();
        let backend = backend_of(&lb, 7001);
        let mut reply = PacketBuilder::udp_v4(&backend.to_string(), "10.0.0.9", 8080, 7001).build();
        let mut counts = LbStats::default();
        lb.balance(&mut lb.inner.lock(), &mut reply, &mut counts)
            .unwrap();
        assert_eq!(counts.returned, 1);
        let key = FlowKey::from_packet(&reply).unwrap();
        assert_eq!(key.src.to_string(), VIP);
        assert_eq!(key.src_port, 80);
    }

    #[test]
    fn drain_keeps_existing_flows_and_skips_new_ones() {
        let lb = lb();
        let victim_backend = backend_of(&lb, 7010);
        let victim_id = lb
            .backends()
            .iter()
            .find(|b| b.ip == victim_backend)
            .unwrap()
            .id;
        assert!(lb.drain_backend(victim_id));
        // The existing flow still lands on the draining backend…
        assert_eq!(backend_of(&lb, 7010), victim_backend);
        // …while new flows all avoid it.
        for c in 0..64u16 {
            assert_ne!(backend_of(&lb, 8000 + c), victim_backend, "client {c}");
        }
    }

    #[test]
    fn removal_rehomes_flows_deterministically() {
        let lb = lb();
        let before: Vec<Ipv4Addr> = (0..24).map(|c| backend_of(&lb, 7100 + c)).collect();
        let victim_ip = lb.backends()[0].ip;
        lb.del(&backend(&victim_ip.to_string())).unwrap();
        let after: Vec<Ipv4Addr> = (0..24).map(|c| backend_of(&lb, 7100 + c)).collect();
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            assert_ne!(*a, victim_ip, "client {i} re-homed off the dead backend");
            if *b != victim_ip {
                // Rendezvous property: unaffected flows keep their pick.
                assert_eq!(a, b, "client {i} must not move");
            }
        }
    }

    #[test]
    fn no_backends_is_a_verdict_not_a_panic() {
        let lb = L4LoadBalancer::new(VIP.parse().unwrap(), 80, 16, u64::MAX);
        let err = lb.push(to_vip(7000));
        assert!(matches!(err, Err(PushError::Veto(_))));
    }

    #[test]
    fn non_vip_traffic_passes_through() {
        let lb = lb();
        lb.push(PacketBuilder::udp_v4("10.0.0.9", "10.222.0.1", 1, 2).build())
            .unwrap();
        let s = lb.counters();
        assert_eq!((s.balanced, s.returned, s.passthrough), (0, 0, 1));
    }

    #[test]
    fn mixed_verdicts_forward_the_survivors_as_one_ordered_batch() {
        use crate::api::{IPacketPull, IPACKET_PUSH};
        use crate::elements::DropTailQueue;
        use opencom::capsule::Capsule;
        use opencom::runtime::Runtime;

        // No backends: VIP traffic is refused, everything else passes
        // through to a three-slot queue, which refuses the fourth.
        let rt = Runtime::new();
        crate::api::register_packet_interfaces(&rt);
        let capsule = Capsule::new("t", &rt);
        let lb = L4LoadBalancer::new(VIP.parse().unwrap(), 80, 16, u64::MAX);
        let queue = DropTailQueue::new(3);
        let lb_id = capsule.adopt(lb.clone()).unwrap();
        let q_id = capsule.adopt(queue.clone()).unwrap();
        capsule
            .bind_simple(lb_id, "out", q_id, IPACKET_PUSH)
            .unwrap();
        let other = |port: u16| PacketBuilder::udp_v4("10.0.0.9", "10.222.0.1", port, 2).build();
        let batch: PacketBatch = vec![
            other(1),
            to_vip(7000),
            other(2),
            other(3),
            to_vip(7001),
            other(4),
        ]
        .into();

        let result = lb.push_batch(batch);
        assert!(matches!(result.verdicts[1], Err(PushError::Veto(_))));
        assert!(matches!(result.verdicts[4], Err(PushError::Veto(_))));
        let rest: Vec<_> = [0, 2, 3, 5].map(|i| result.verdicts[i].clone()).into();
        assert_eq!(rest, [Ok(()), Ok(()), Ok(()), Err(PushError::QueueFull)]);
        let s = lb.counters();
        assert_eq!((s.balanced, s.returned, s.passthrough), (0, 0, 4));
        let delivered: Vec<u16> = queue
            .pull_batch(8)
            .iter()
            .map(|p| p.udp_v4().unwrap().src_port)
            .collect();
        assert_eq!(delivered, [1, 2, 3]);
    }
}
