//! Device adapter elements: the boundary between NICs and the component
//! graph.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netkit_kernel::nic::Nic;
use netkit_kernel::time::VirtualClock;
use netkit_packet::batch::PacketBatch;
use opencom::component::{Component, ComponentCore, Registrar};
use opencom::receptacle::Receptacle;

use crate::api::{
    emit, BatchResult, Exits, IPacketPull, IPacketPush, Output, PushError, IPACKET_PULL,
    IPACKET_PUSH,
};

use super::element_core;

/// Pulls frames from one of a NIC's rx rings and pushes them downstream.
///
/// Exposes both styles: `pump_batch()` actively pushes through the
/// `out` receptacle (poll mode), and the exported `IPacketPull`
/// lets a downstream scheduler pull directly. Either way frames come off the
/// ring through `Nic::rx_burst_batch`: the frame storage moves into the
/// packet (a pool-leased slab keeps its lease and recycles when the
/// packet drops) and `meta.flow` / `meta.rss_hash` arrive stamped from
/// the rx parse, so nothing downstream parses or copies.
pub struct FromDevice {
    core: ComponentCore,
    nic: Arc<Nic>,
    /// The rx queue this adapter polls (its shard's queue on a
    /// multi-queue NIC; 0 for the single-queue adapter).
    queue: usize,
    clock: Arc<VirtualClock>,
    out: Receptacle<dyn IPacketPush>,
    pumped: AtomicU64,
    push_drops: AtomicU64,
}

impl FromDevice {
    /// Creates an adapter over `nic`'s rx queue 0, timestamping arrivals
    /// from `clock`.
    pub fn new(nic: Arc<Nic>, clock: Arc<VirtualClock>) -> Arc<Self> {
        Self::with_queue(nic, 0, clock)
    }

    /// Creates an adapter polling rx queue `queue` — one per shard on a
    /// multi-queue NIC, so pollers share no rx ring.
    pub fn with_queue(nic: Arc<Nic>, queue: usize, clock: Arc<VirtualClock>) -> Arc<Self> {
        Arc::new(Self {
            core: element_core("netkit.FromDevice"),
            nic,
            queue,
            clock,
            out: Receptacle::single("out", IPACKET_PUSH),
            pumped: AtomicU64::new(0),
            push_drops: AtomicU64::new(0),
        })
    }

    /// The rx queue this adapter polls.
    pub fn queue(&self) -> usize {
        self.queue
    }

    /// Takes up to `max` frames off the ring in one burst and stamps
    /// where and when they arrived.
    fn burst(&self, max: usize) -> PacketBatch {
        let mut batch = PacketBatch::with_capacity(max.min(64));
        self.nic.rx_burst_batch(self.queue, max, &mut batch);
        let ingress = Some(self.nic.port().0);
        let now = self.clock.now().as_nanos();
        for pkt in batch.packets_mut() {
            pkt.meta.ingress = ingress;
            pkt.meta.timestamp_ns = now;
        }
        batch
    }

    /// Poll-mode receive loop: drains up to `budget` frames from the NIC
    /// in one ring-lock burst and pushes them downstream as one
    /// batch — one receptacle traversal (and one interceptor pass, one
    /// IPC call for isolated peers) per burst instead of per frame.
    /// Returns the number of frames accepted downstream.
    pub fn pump_batch(&self, budget: usize) -> usize {
        let batch = self.burst(budget);
        let n = batch.len();
        let out = Output::new(&self.out, Err(PushError::Unbound));
        let moved = emit(batch, &Exits::new(0), &[out]).accepted();
        self.pumped.fetch_add(moved as u64, Ordering::Relaxed);
        self.push_drops
            .fetch_add((n - moved) as u64, Ordering::Relaxed);
        moved
    }

    /// `(frames pumped, frames dropped because downstream refused)`.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.pumped.load(Ordering::Relaxed),
            self.push_drops.load(Ordering::Relaxed),
        )
    }
}

impl IPacketPull for FromDevice {
    fn pull_batch(&self, max: usize) -> PacketBatch {
        self.burst(max)
    }
}

impl Component for FromDevice {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let pull: Arc<dyn IPacketPull> = self.clone();
        reg.expose(IPACKET_PULL, &pull);
        reg.receptacle(&self.out);
    }
    fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// Pushes packets onto a NIC's tx ring, **moving** each packet's frame
/// storage (no copy — `Nic::tx_burst_packets`): a pool-leased rx slab
/// keeps its lease all the way onto the wire and recycles when the
/// wire side drops it (`Nic::drain_tx_frame`), so steady-state egress
/// allocates nothing per frame.
pub struct ToDevice {
    core: ComponentCore,
    nic: Arc<Nic>,
    /// The tx queue this adapter transmits on (its shard's queue under
    /// the sharded runtime; 0 for the single-queue adapter).
    queue: usize,
    sent: AtomicU64,
    drops: AtomicU64,
}

impl ToDevice {
    /// Creates an adapter transmitting on `nic`'s tx queue 0.
    pub fn new(nic: Arc<Nic>) -> Arc<Self> {
        Self::with_queue(nic, 0)
    }

    /// Creates an adapter transmitting on tx queue `queue` — one per
    /// shard under the sharded runtime, so workers share no tx ring.
    pub fn with_queue(nic: Arc<Nic>, queue: usize) -> Arc<Self> {
        Arc::new(Self {
            core: element_core("netkit.ToDevice"),
            nic,
            queue,
            sent: AtomicU64::new(0),
            drops: AtomicU64::new(0),
        })
    }

    /// The tx queue this adapter transmits on.
    pub fn queue(&self) -> usize {
        self.queue
    }

    /// `(frames sent, frames dropped at the tx ring)`.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.sent.load(Ordering::Relaxed),
            self.drops.load(Ordering::Relaxed),
        )
    }
}

impl IPacketPush for ToDevice {
    fn push_batch(&self, batch: PacketBatch) -> BatchResult {
        // One tx-ring pass per burst, frame storage moved rather than
        // cloned. The ring accepts in order until full, so the verdicts
        // are first-k-accepted then QueueFull.
        let n = batch.len();
        let accepted = self.nic.tx_burst_packets(self.queue, batch);
        self.sent.fetch_add(accepted as u64, Ordering::Relaxed);
        self.drops
            .fetch_add((n - accepted) as u64, Ordering::Relaxed);
        let mut result = BatchResult::with_capacity(n);
        for idx in 0..n {
            result.record(if idx < accepted {
                Ok(())
            } else {
                Err(PushError::QueueFull)
            });
        }
        result
    }
}

impl Component for ToDevice {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
    }
    fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_kernel::nic::PortId;
    use netkit_packet::packet::{Packet, PacketBuilder};
    use opencom::capsule::Capsule;
    use opencom::runtime::Runtime;

    fn nic() -> Arc<Nic> {
        Arc::new(Nic::new(PortId(3), 16, 16, 1_000_000_000))
    }

    #[test]
    fn from_device_stamps_ingress_and_time() {
        let n = nic();
        let clock = Arc::new(VirtualClock::new());
        clock.advance(500);
        let fd = FromDevice::new(Arc::clone(&n), clock);
        n.inject_rx_frame(b"\x00\x01");
        let pkt = fd.pull().unwrap();
        assert_eq!(pkt.meta.ingress, Some(3));
        assert_eq!(pkt.meta.timestamp_ns, 500);
    }

    #[test]
    fn pump_moves_frames_through_binding() {
        let rt = Runtime::new();
        crate::api::register_packet_interfaces(&rt);
        let capsule = Capsule::new("t", &rt);
        let n_in = nic();
        let n_out = nic();
        let clock = Arc::new(VirtualClock::new());
        let fd = FromDevice::new(Arc::clone(&n_in), clock);
        let td = ToDevice::new(Arc::clone(&n_out));
        let fd_id = capsule.adopt(fd.clone()).unwrap();
        let td_id = capsule.adopt(td).unwrap();
        capsule
            .bind_simple(fd_id, "out", td_id, IPACKET_PUSH)
            .unwrap();
        let frame = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build();
        for _ in 0..5 {
            n_in.inject_rx_frame(frame.data());
        }
        assert_eq!(fd.pump_batch(10), 5);
        assert_eq!(n_out.stats().tx_frames, 5);
        assert_eq!(fd.stats(), (5, 0));
    }

    #[test]
    fn pump_unbound_counts_drops() {
        let n = nic();
        let clock = Arc::new(VirtualClock::new());
        let fd = FromDevice::new(Arc::clone(&n), clock);
        n.inject_rx_frame(b"xx");
        assert_eq!(fd.pump_batch(10), 0);
        assert_eq!(fd.stats().1, 1);
    }

    /// Regression: `FromDevice` used to copy every frame out of the
    /// ring as plain bytes — the pool lease was detached (the pool never
    /// recycled behind it) and the rx parse was thrown away.
    #[test]
    fn from_device_keeps_the_pool_lease_and_the_rx_parse() {
        use crate::elements::Counter;
        use netkit_packet::flow::{FlowKey, ParsedFlow};
        use netkit_packet::pool::BufferPool;

        let pool = BufferPool::new(2048, 0, 16);
        let n = Arc::new(
            Nic::with_queues(PortId(3), 2, 8, 8, 1_000_000).with_buffer_pool(pool.clone()),
        );
        let clock = Arc::new(VirtualClock::new());
        clock.advance(500);
        let puller = FromDevice::with_queue(Arc::clone(&n), 0, Arc::clone(&clock));
        let pumper = FromDevice::with_queue(Arc::clone(&n), 1, clock);
        assert_eq!((puller.queue(), pumper.queue()), (0, 1));
        let rt = Runtime::new();
        crate::api::register_packet_interfaces(&rt);
        let capsule = Capsule::new("t", &rt);
        let sink = Counter::new();
        let pumper_id = capsule.adopt(pumper.clone()).unwrap();
        let sink_id = capsule.adopt(sink.clone()).unwrap();
        capsule
            .bind_simple(pumper_id, "out", sink_id, IPACKET_PUSH)
            .unwrap();

        // Four flows on each of the two queues.
        let mut wires: [Vec<Packet>; 2] = [Vec::new(), Vec::new()];
        for sport in 1u16.. {
            let wire = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", sport, 80).build();
            let queue = FlowKey::from_packet(&wire).unwrap().shard_for(2);
            if wires[queue].len() < 4 {
                wires[queue].push(wire);
            }
            if wires.iter().all(|w| w.len() == 4) {
                break;
            }
        }
        let stamped = |pkt: &Packet, wire: &Packet| {
            let flow = ParsedFlow::from_frame(wire.data()).unwrap();
            assert_eq!(pkt.meta.flow, Some(flow), "the rx parse rides along");
            assert_eq!(pkt.meta.rss_hash, Some(flow.hash()));
            assert_eq!(pkt.meta.ingress, Some(3));
            assert_eq!(pkt.meta.timestamp_ns, 500);
            assert_eq!(pkt.data(), wire.data());
        };

        for round in 0..2u64 {
            for wire in wires.iter().flatten() {
                assert!(n.inject_rx_frame(wire.data()));
            }
            // Pull side: queue 0's frames, stamped, zero-copy.
            let pulled = puller.pull_batch(8);
            assert_eq!(pulled.len(), 4);
            for (pkt, wire) in pulled.iter().zip(&wires[0]) {
                stamped(pkt, wire);
            }
            drop(pulled);
            assert_eq!(pool.stats().recycled, round * 8 + 4);
            // Pump side: queue 1's frames through the binding; the sink
            // drops the batch, which recycles its slabs.
            assert_eq!(pumper.pump_batch(8), 4);
            stamped(&sink.last().unwrap(), &wires[1][3]);
            assert_eq!(pool.stats().recycled, round * 8 + 8);
        }
        let s = pool.stats();
        assert_eq!(s.allocated, 8, "the second round allocated nothing");
        // Round 1 reused all eight; round 0 four, the spares of the
        // pool's doubling (1, 1, 2, 4 allocated).
        assert_eq!(s.reused, 4 + 8);
    }

    #[test]
    fn to_device_moves_pooled_frames_without_copying() {
        use netkit_packet::pool::BufferPool;
        let pool = BufferPool::new(2048, 0, 8);
        let n = Arc::new(
            Nic::with_queues(PortId(0), 2, 8, 8, 1_000_000).with_buffer_pool(pool.clone()),
        );
        let wire = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build();
        let queue = netkit_packet::flow::FlowKey::from_packet(&wire)
            .unwrap()
            .shard_for(2);
        let td = ToDevice::with_queue(Arc::clone(&n), queue);
        assert_eq!(td.queue(), queue);

        // rx leases a slab; the graph pushes the packet out via ToDevice.
        assert!(n.inject_rx_frame(wire.data()));
        let mut batch = PacketBatch::new();
        assert_eq!(n.rx_burst_batch(queue, 4, &mut batch), 1);
        assert!(td.push_batch(batch).all_ok());
        assert_eq!(pool.stats().allocated, 1);
        assert_eq!(pool.stats().recycled, 0, "slab rode through to tx");
        // Wire side serialises and drops: the slab recycles.
        let frame = n.drain_tx_frame(queue).unwrap();
        assert_eq!(&*frame, wire.data());
        drop(frame);
        assert_eq!(pool.stats().recycled, 1);
        assert_eq!(td.stats(), (1, 0));
    }

    #[test]
    fn to_device_reports_tx_ring_overflow() {
        let n = Arc::new(Nic::new(PortId(0), 2, 1, 1_000_000));
        let td = ToDevice::new(Arc::clone(&n));
        let pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build();
        assert!(td.push(pkt.clone()).is_ok());
        assert!(matches!(td.push(pkt), Err(PushError::QueueFull)));
        assert_eq!(td.stats(), (1, 1));
    }
}
