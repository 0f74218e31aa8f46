//! Simulated network interface cards.
//!
//! Stratum 1 wraps "access to network hardware" (paper §3). A [`Nic`] is
//! a set of bounded rx/tx ring pairs over raw frames plus drop counters —
//! the substrate the Router CF's device-adapter components sit on. The
//! simulator (or a test) injects frames into the rx rings and drains the
//! tx rings; the router polls rx and pushes tx, exactly like a
//! poll-mode driver.
//!
//! ## Multi-queue (RSS)
//!
//! A NIC built with [`Nic::with_queues`] exposes one rx ring and one tx
//! ring *per worker* — the simulated equivalent of hardware
//! receive-side scaling. The wire side steers each frame with
//! [`Nic::inject_rx_frame`] (hash → queue, the hash being what hardware
//! would compute from the flow tuple, see
//! `netkit_packet::flow::FlowKey::rss_hash`); each worker then drains
//! *its own* queue with [`Nic::rx_burst_batch`] and transmits on its
//! own ring with [`Nic::tx_burst_packets`], so the fast path shares
//! nothing between workers. Rings are SPSC channels (crossbeam shim);
//! the single-queue constructor [`Nic::new`] is the same NIC with one
//! ring pair, queue 0.
//!
//! ## The indirection table
//!
//! Hardware RSS does not map `hash % queues` directly: the hash
//! selects a **bucket** in a reprogrammable indirection table and the
//! table entry names the queue. This NIC models that exactly — frames
//! steer through an installed
//! [`BucketMap`]
//! ([`Nic::set_indirection`] / [`Nic::indirection`]), which boots as
//! the identity map (`bucket % queues`, indistinguishable from the
//! historical modulo steering). The reflective rebalancer rewrites the
//! table inside a dataplane quiesce to migrate whole buckets of flows
//! between queues; see `netkit_router::shard::rebalance` for the
//! protocol, including why concurrent wire-side injection during a
//! table swap is excluded (a simulated NIC cannot apply the swap
//! atomically against racing injectors the way silicon does).
//!
//! ## The zero-copy rx fast path
//!
//! A NIC built [`Nic::with_buffer_pool`] leases every rx frame buffer
//! from a [`BufferPool`] — the paper's buffer-management CF — instead
//! of allocating it: [`Nic::inject_rx_frame`] copies the wire bytes
//! into a pooled slab sized to the frame (the simulated DMA write; a
//! frame that fits takes one of the pool's 256-byte small slabs, so a
//! minimum-size frame no longer pins a full 2-KiB one — see
//! `netkit_packet::pool`), parses the flow tuple
//! *once* (what the hardware RSS engine does), steers the frame to its
//! queue through the indirection table, and remembers what the parse
//! found. The worker side drains with [`Nic::rx_burst_batch`], which
//! materialises each frame as a [`Packet`] **around the same pooled
//! slab** (no copy) with `meta.rss_hash` and the parse-once record
//! `meta.flow` pre-stamped. **The rx parse is the only parse**: the
//! steering layer reads the hash, the stateful elements read the
//! record (`netkit_packet::flow::ParsedFlow` — tuple, TCP flags,
//! fragment marker, table hash), and nothing downstream looks at the
//! headers again — a frame that carries no record is simply not
//! IPv4. When the packet is eventually dropped at the end of its
//! run-to-completion pass, the slab returns to the pool — so in steady
//! state the rx path allocates nothing per frame.
//!
//! ## The zero-copy tx fast path
//!
//! Transmit mirrors receive: [`Nic::send_tx_packet`] /
//! [`Nic::tx_burst_packets`] **move** a packet's frame storage into
//! the tx ring — a pool-leased rx slab keeps its lease all the way
//! from `inject_rx_frame` through the element graph onto the wire, and
//! a heap buffer moves as it is, never copied. The wire side drains
//! with [`Nic::drain_tx_frame`], whose [`TxFrame`] derefs to the bytes
//! and, on drop, returns pooled slabs to their [`BufferPool`].
//!
//! ## What costs a syscall
//!
//! Nothing here does. Every ring operation the NIC makes is the
//! non-blocking flavour (`try_send` / `try_recv`), so no thread ever
//! parks on an rx or tx ring, and the channel shim notifies only a
//! parked peer: an inject, a burst, a transmit and a drain are each one
//! short critical section on the ring's mutex and never enter the
//! kernel. (A `Condvar` notify is a futex syscall whether or not anyone
//! waits; before the shim counted its waiters, each of those four paid
//! one per frame.)

use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::BytesMut;
use crossbeam::channel::{bounded, Receiver, Sender};
use netkit_packet::batch::PacketBatch;
use netkit_packet::flow::{FlowKey, ParsedFlow};
use netkit_packet::packet::{Packet, PacketBuf};
use netkit_packet::pool::BufferPool;
use netkit_packet::steer::BucketMap;
use parking_lot::RwLock;

/// Identifies a port/NIC on a node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PortId(pub u16);

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "eth{}", self.0)
    }
}

/// Counters exposed by a NIC (aggregated over all queues, so reflection
/// keeps seeing one logical device).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Frames accepted into the rx rings.
    pub rx_frames: u64,
    /// Frames dropped because an rx ring was full.
    pub rx_dropped: u64,
    /// Frames accepted into the tx rings.
    pub tx_frames: u64,
    /// Frames dropped because a tx ring was full.
    pub tx_dropped: u64,
    /// Bytes accepted for transmit.
    pub tx_bytes: u64,
}

/// One bounded SPSC ring: the NIC keeps both endpoints so the channel
/// never disconnects.
struct Ring<T> {
    tx: Sender<T>,
    rx: Receiver<T>,
}

impl<T> Ring<T> {
    fn new(capacity: usize) -> Self {
        let (tx, rx) = bounded(capacity.max(1));
        Self { tx, rx }
    }
}

/// An rx frame in flight between the wire side and a worker: the bytes
/// (pool-leased when the NIC has a pool) plus what the "hardware"
/// parsed at injection — the RSS hash and, for IPv4, the flow record —
/// carried along so materialisation never parses.
struct RxFrame {
    buf: PacketBuf,
    rss: Option<u64>,
    flow: Option<ParsedFlow>,
}

impl RxFrame {
    /// Materialises the frame as a stamped packet; the storage moves in
    /// without copying.
    fn into_packet(self) -> Packet {
        let mut pkt = Packet::from_buf(self.buf);
        pkt.meta.flow = self.flow;
        pkt.meta.rss_hash = self.rss;
        pkt
    }
}

/// A transmit frame drained off a tx ring by the wire side
/// ([`Nic::drain_tx_frame`]). Derefs to the frame bytes; dropping it
/// returns a pool-leased slab to its [`BufferPool`], which is what
/// keeps the steady-state tx path allocation-free.
pub struct TxFrame {
    buf: PacketBuf,
}

impl Deref for TxFrame {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.buf.as_slice()
    }
}

impl fmt::Debug for TxFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pooled = matches!(self.buf, PacketBuf::Pooled(_));
        write!(
            f,
            "TxFrame({} bytes{})",
            self.buf.as_slice().len(),
            if pooled { ", pooled" } else { "" }
        )
    }
}

/// A simulated NIC with bounded, optionally multi-queue rx/tx rings.
///
/// # Examples
///
/// ```
/// use netkit_kernel::nic::{Nic, PortId};
/// use netkit_packet::batch::PacketBatch;
/// use netkit_packet::flow::FlowKey;
/// use netkit_packet::packet::PacketBuilder;
///
/// let wire = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1234, 80).build();
/// let nic = Nic::new(PortId(0), 4, 4, 1_000_000_000);
/// nic.inject_rx_frame(wire.data());
/// let mut batch = PacketBatch::new();
/// assert_eq!(nic.rx_burst_batch(0, 32, &mut batch), 1);
/// assert_eq!(batch.packets()[0].data(), wire.data());
/// assert_eq!(nic.rx_burst_batch(0, 32, &mut batch), 0);
///
/// // Multi-queue: RSS steering on inject, per-worker burst drain.
/// let mq = Nic::with_queues(PortId(1), 4, 16, 16, 1_000_000_000);
/// mq.inject_rx_frame(wire.data());
/// let queue = FlowKey::from_frame(wire.data()).unwrap().shard_for(4);
/// assert_eq!(mq.rx_burst_batch(queue, 32, &mut batch), 1);
/// ```
pub struct Nic {
    port: PortId,
    rx: Vec<Ring<RxFrame>>,
    tx: Vec<Ring<PacketBuf>>,
    /// Pool rx frame buffers lease from ([`Self::inject_rx_frame`]).
    pool: Option<BufferPool>,
    /// The RSS indirection table (bucket → queue); identity at boot.
    steering: RwLock<Arc<BucketMap>>,
    rx_capacity: usize,
    tx_capacity: usize,
    link_bps: u64,
    rx_frames: AtomicU64,
    rx_dropped: AtomicU64,
    tx_frames: AtomicU64,
    tx_dropped: AtomicU64,
    tx_bytes: AtomicU64,
}

impl Nic {
    /// Creates a single-queue NIC with the given ring capacities and
    /// link rate (bits per second).
    pub fn new(port: PortId, rx_capacity: usize, tx_capacity: usize, link_bps: u64) -> Self {
        Self::with_queues(port, 1, rx_capacity, tx_capacity, link_bps)
    }

    /// Creates a NIC with `queues` rx/tx ring pairs (one per dataplane
    /// worker); capacities are per ring.
    pub fn with_queues(
        port: PortId,
        queues: usize,
        rx_capacity: usize,
        tx_capacity: usize,
        link_bps: u64,
    ) -> Self {
        let queues = queues.max(1);
        Self {
            port,
            rx: (0..queues).map(|_| Ring::new(rx_capacity)).collect(),
            tx: (0..queues).map(|_| Ring::new(tx_capacity)).collect(),
            pool: None,
            steering: RwLock::new(Arc::new(BucketMap::identity(queues))),
            rx_capacity: rx_capacity.max(1),
            tx_capacity: tx_capacity.max(1),
            link_bps,
            rx_frames: AtomicU64::new(0),
            rx_dropped: AtomicU64::new(0),
            tx_frames: AtomicU64::new(0),
            tx_dropped: AtomicU64::new(0),
            tx_bytes: AtomicU64::new(0),
        }
    }

    /// Attaches a [`BufferPool`] that [`Self::inject_rx_frame`] leases
    /// rx frame buffers from (builder-style). Without one, that path
    /// falls back to plain heap buffers.
    pub fn with_buffer_pool(mut self, pool: BufferPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Installs a new RSS indirection table. Frames injected afterwards
    /// steer by it (entries reduce `% queues` defensively, so a table
    /// built for fewer shards than queues is still safe). Frames
    /// **already sitting in rx rings keep their old queue** — atomic
    /// migration of queued traffic is the dataplane's job
    /// (`ShardedPipeline::install_bucket_map` drains and re-steers them
    /// inside its quiesce), and wire-side injection must be quiescent
    /// across the swap; see the module docs.
    pub fn set_indirection(&self, map: BucketMap) {
        *self.steering.write() = Arc::new(map);
    }

    /// Snapshot of the installed indirection table.
    pub fn indirection(&self) -> BucketMap {
        BucketMap::clone(&self.steering.read())
    }

    /// The NIC's port id.
    pub fn port(&self) -> PortId {
        self.port
    }

    /// Number of rx/tx queue pairs.
    pub fn queues(&self) -> usize {
        self.rx.len()
    }

    /// Nanoseconds to serialise `bytes` onto the wire at the link rate.
    pub fn tx_nanos_for(&self, bytes: usize) -> u64 {
        if self.link_bps == 0 {
            return 0;
        }
        (bytes as u64 * 8).saturating_mul(1_000_000_000) / self.link_bps
    }

    fn inject_into(&self, queue: usize, frame: RxFrame) -> bool {
        match self.rx[queue % self.rx.len()].tx.try_send(frame) {
            Ok(()) => {
                self.rx_frames.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => {
                self.rx_dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// The full hardware rx path in one call: parses the flow tuple
    /// from the wire bytes (once — the RSS hash and the IPv4 flow
    /// record then travel with the frame), copies them into a buffer
    /// leased from the attached [`BufferPool`] for the frame's length
    /// ([`BufferPool::take_for`]: a small slab when it fits — the
    /// simulated DMA write; plain heap without a pool), and steers the
    /// frame through the indirection table (non-flow frames follow
    /// bucket 0, the same rule as `netkit_packet::steer::bucket_of_packet`
    /// — and a single-queue NIC behaves identically however many shards
    /// the host software runs). Returns `false` and counts a drop if
    /// the ring is full.
    pub fn inject_rx_frame(&self, frame: &[u8]) -> bool {
        let flow = ParsedFlow::from_frame(frame);
        let rss = match flow {
            Some(f) => Some(f.hash()),
            None => FlowKey::from_frame(frame).map(|k| k.rss_hash()),
        };
        let queue = {
            let map = self.steering.read();
            match rss {
                Some(h) => map.shard_of_hash(h) % self.rx.len(),
                None => map.shard_of_bucket(0) % self.rx.len(),
            }
        };
        let buf = match &self.pool {
            Some(pool) => {
                let mut slab = pool.take_for(frame.len());
                slab.extend_from_slice(frame);
                PacketBuf::Pooled(slab)
            }
            None => PacketBuf::Heap(BytesMut::from(frame)),
        };
        self.inject_into(queue, RxFrame { buf, rss, flow })
    }

    /// The zero-copy worker receive: takes up to `max` frames from rx
    /// queue `queue` and appends them to `batch` as rss-stamped
    /// [`Packet`]s. Frame buffers move into the packets without
    /// copying (pool-leased ones return to the pool when the packets
    /// drop). Every materialised packet carries `meta.rss_hash` and,
    /// for IPv4, the `meta.flow` record from the parse at injection —
    /// so no steering decision and no stateful element downstream
    /// re-parses headers.
    /// Returns the number of packets appended (0 for unknown queues).
    pub fn rx_burst_batch(&self, queue: usize, max: usize, batch: &mut PacketBatch) -> usize {
        let Some(ring) = self.rx.get(queue) else {
            return 0;
        };
        let mut taken = 0;
        while taken < max {
            match ring.rx.try_recv() {
                Ok(frame) => {
                    batch.push(frame.into_packet());
                    taken += 1;
                }
                Err(_) => break,
            }
        }
        taken
    }

    /// Frames currently waiting across all rx queues.
    fn rx_pending(&self) -> usize {
        self.rx.iter().map(|ring| ring.rx.len()).sum()
    }

    fn send_into(&self, queue: usize, frame: PacketBuf) -> bool {
        let len = frame.as_slice().len() as u64;
        match self.tx[queue % self.tx.len()].tx.try_send(frame) {
            Ok(()) => {
                self.tx_frames.fetch_add(1, Ordering::Relaxed);
                self.tx_bytes.fetch_add(len, Ordering::Relaxed);
                true
            }
            Err(_) => {
                self.tx_dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Queues a packet for transmission on tx queue `queue`, **moving**
    /// its frame storage (no copy: pool-leased slabs keep their lease,
    /// heap buffers move as they are) — the zero-copy egress the device
    /// adapter uses. Metadata does not cross onto the wire. Returns
    /// `false` and counts a drop if the ring is full or the queue is
    /// unknown.
    pub fn send_tx_packet(&self, queue: usize, pkt: Packet) -> bool {
        if queue >= self.tx.len() {
            self.tx_dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.send_into(queue, pkt.into_buf())
    }

    /// Queues a whole batch on tx queue `queue`, moving every packet's
    /// storage (see [`Self::send_tx_packet`]). Frames are accepted in
    /// batch order until the ring fills; the remainder are dropped and
    /// counted. Returns the number accepted — so verdicts are
    /// first-`k`-accepted then queue-full, exactly the scalar sequence.
    /// Unknown queues drop (and count) the whole batch.
    pub fn tx_burst_packets(&self, queue: usize, mut batch: PacketBatch) -> usize {
        if queue >= self.tx.len() {
            self.tx_dropped
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            return 0;
        }
        let ring = &self.tx[queue];
        let mut accepted = 0usize;
        let mut accepted_bytes = 0u64;
        let mut dropped = 0u64;
        // drain_all (not into_iter) keeps the batch container's backing
        // storage, so a pool-homed container recycles whole afterwards.
        for pkt in batch.drain_all() {
            let frame = pkt.into_buf();
            let len = frame.as_slice().len() as u64;
            match ring.tx.try_send(frame) {
                Ok(()) => {
                    accepted += 1;
                    accepted_bytes += len;
                }
                Err(_) => dropped += 1,
            }
        }
        self.tx_frames.fetch_add(accepted as u64, Ordering::Relaxed);
        self.tx_bytes.fetch_add(accepted_bytes, Ordering::Relaxed);
        self.tx_dropped.fetch_add(dropped, Ordering::Relaxed);
        accepted
    }

    /// The zero-copy wire-side drain: takes the next frame from tx
    /// queue `queue` as a [`TxFrame`]. Dropping the frame after
    /// serialising it returns a pool-leased slab to its pool, closing
    /// the allocation-free rx → graph → tx loop.
    pub fn drain_tx_frame(&self, queue: usize) -> Option<TxFrame> {
        Some(TxFrame {
            buf: self.tx.get(queue)?.rx.try_recv().ok()?,
        })
    }

    /// Frames currently waiting across all tx queues.
    fn tx_pending(&self) -> usize {
        self.tx.iter().map(|ring| ring.rx.len()).sum()
    }

    /// Snapshot of the NIC counters (aggregated over queues).
    pub fn stats(&self) -> NicStats {
        NicStats {
            rx_frames: self.rx_frames.load(Ordering::Relaxed),
            rx_dropped: self.rx_dropped.load(Ordering::Relaxed),
            tx_frames: self.tx_frames.load(Ordering::Relaxed),
            tx_dropped: self.tx_dropped.load(Ordering::Relaxed),
            tx_bytes: self.tx_bytes.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for Nic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Nic({}, {} queues, rx {}/{}, tx {}/{})",
            self.port,
            self.queues(),
            self.rx_pending(),
            self.rx_capacity * self.rx.len(),
            self.tx_pending(),
            self.tx_capacity * self.tx.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_packet::packet::PacketBuilder;

    /// A 64-byte non-IP frame tagged `n`: no flow identity, so it
    /// steers with bucket 0.
    fn raw(n: u8) -> Packet {
        Packet::from_slice(&[n; 64])
    }

    /// The first `n` UDP flows (by source port) that `queues`-way
    /// identity steering puts on `queue`.
    fn flows_on(queue: usize, queues: usize, n: usize) -> Vec<Packet> {
        (1u16..)
            .map(|sport| PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", sport, 80).build())
            .filter(|p| FlowKey::from_packet(p).unwrap().shard_for(queues) == queue)
            .take(n)
            .collect()
    }

    #[test]
    fn rx_ring_drops_when_full() {
        let nic = Nic::new(PortId(1), 2, 2, 1_000_000);
        assert!(nic.inject_rx_frame(raw(1).data()));
        assert!(nic.inject_rx_frame(raw(2).data()));
        assert!(!nic.inject_rx_frame(raw(3).data()));
        let s = nic.stats();
        assert_eq!((s.rx_frames, s.rx_dropped), (2, 1));
        let mut batch = PacketBatch::new();
        assert_eq!(nic.rx_burst_batch(0, 1, &mut batch), 1);
        assert_eq!(batch.packets()[0].data()[0], 1);
        assert!(
            nic.inject_rx_frame(raw(4).data()),
            "space reclaimed after burst"
        );
    }

    #[test]
    fn tx_ring_fifo_and_counters() {
        let nic = Nic::new(PortId(0), 2, 2, 1_000_000);
        assert!(nic.send_tx_packet(0, raw(1)));
        assert!(nic.send_tx_packet(0, raw(2)));
        assert!(!nic.send_tx_packet(0, raw(3)));
        assert_eq!(nic.drain_tx_frame(0).unwrap()[0], 1);
        assert_eq!(nic.drain_tx_frame(0).unwrap()[0], 2);
        assert!(nic.drain_tx_frame(0).is_none());
        let s = nic.stats();
        assert_eq!((s.tx_frames, s.tx_dropped, s.tx_bytes), (2, 1, 128));
    }

    #[test]
    fn serialisation_delay_matches_link_rate() {
        let nic = Nic::new(PortId(0), 1, 1, 1_000_000_000); // 1 Gbps
                                                            // 1500 bytes = 12000 bits = 12 us at 1 Gbps.
        assert_eq!(nic.tx_nanos_for(1500), 12_000);
        let slow = Nic::new(PortId(1), 1, 1, 10_000_000); // 10 Mbps
        assert_eq!(slow.tx_nanos_for(1500), 1_200_000);
    }

    #[test]
    fn port_display() {
        assert_eq!(PortId(3).to_string(), "eth3");
    }

    #[test]
    fn rss_steering_keeps_hash_on_its_queue() {
        let nic = Nic::with_queues(PortId(0), 4, 16, 16, 1_000_000);
        assert_eq!(nic.queues(), 4);
        for sport in 1000..1016u16 {
            let wire = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", sport, 80).build();
            assert!(nic.inject_rx_frame(wire.data()));
        }
        // Each queue holds exactly the frames whose hash maps to it.
        let mut seen = 0;
        for queue in 0..4usize {
            let mut batch = PacketBatch::new();
            seen += nic.rx_burst_batch(queue, 32, &mut batch);
            for pkt in batch.iter() {
                let key = FlowKey::from_packet(pkt).unwrap();
                assert_eq!(key.shard_for(4), queue);
                assert_eq!(pkt.meta.rss_hash, Some(key.rss_hash()));
            }
        }
        assert_eq!(seen, 16);
        assert_eq!(nic.rx_pending(), 0);
    }

    #[test]
    fn per_queue_rings_are_independently_bounded() {
        let nic = Nic::with_queues(PortId(0), 2, 2, 2, 1_000_000);
        let q0 = flows_on(0, 2, 3);
        let q1 = flows_on(1, 2, 1);
        // Fill queue 0; queue 1 still accepts.
        assert!(nic.inject_rx_frame(q0[0].data()));
        assert!(nic.inject_rx_frame(q0[1].data()));
        assert!(!nic.inject_rx_frame(q0[2].data()), "queue 0 full");
        assert!(nic.inject_rx_frame(q1[0].data()), "queue 1 unaffected");
        let s = nic.stats();
        assert_eq!((s.rx_frames, s.rx_dropped), (3, 1));
    }

    #[test]
    fn pooled_rx_frames_recycle_through_packets() {
        let pool = BufferPool::new(2048, 0, 8);
        let nic = Nic::with_queues(PortId(0), 2, 8, 8, 1_000_000).with_buffer_pool(pool.clone());
        let wire = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1234, 80).build();
        let key = FlowKey::from_packet(&wire).unwrap();
        let queue = (key.rss_hash() % 2) as usize;

        assert!(nic.inject_rx_frame(wire.data()));
        assert_eq!(pool.stats().allocated, 1);
        let mut batch = PacketBatch::new();
        assert_eq!(nic.rx_burst_batch(queue, 32, &mut batch), 1);
        assert_eq!(nic.rx_burst_batch(1 - queue, 32, &mut batch), 0);
        assert_eq!(nic.rx_burst_batch(9, 32, &mut batch), 0, "unknown queue");
        // Materialised zero-copy, stamped, bit-identical.
        let pkt = &batch.packets()[0];
        assert_eq!(pkt.data(), wire.data());
        assert_eq!(pkt.meta.rss_hash, Some(key.rss_hash()));
        // Dropping the packet returns the slab to the pool.
        drop(batch);
        assert_eq!(pool.stats().recycled, 1);
        assert!(nic.inject_rx_frame(wire.data()));
        assert_eq!(pool.stats().reused, 1);
        assert_eq!(pool.stats().allocated, 1, "steady state: no new slab");
    }

    #[test]
    fn rx_frames_lease_a_slab_sized_to_the_frame() {
        let pool = BufferPool::new(2048, 0, 8);
        let nic = Nic::new(PortId(0), 8, 8, 1_000_000).with_buffer_pool(pool.clone());
        let small = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1234, 80).build();
        let large = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1234, 80)
            .payload_len(1400)
            .build();
        assert!(nic.inject_rx_frame(small.data()));
        assert!(nic.inject_rx_frame(large.data()));
        let mut batch = PacketBatch::new();
        assert_eq!(nic.rx_burst_batch(0, 8, &mut batch), 2);
        assert_eq!(batch.packets()[0].data(), small.data());
        assert_eq!(batch.packets()[1].data(), large.data());
        let capacities: Vec<usize> = batch
            .drain_all()
            .map(|pkt| match pkt.into_buf() {
                PacketBuf::Pooled(buf) => buf.capacity(),
                PacketBuf::Heap(_) => panic!("rx frames lease from the pool"),
            })
            .collect();
        assert_eq!(capacities[0], netkit_packet::pool::SMALL_SLAB);
        assert!(capacities[1] >= 2048);
    }

    #[test]
    fn inject_rx_frame_without_pool_still_steers_and_stamps() {
        let nic = Nic::with_queues(PortId(0), 4, 8, 8, 1_000_000);
        let wire = PacketBuilder::udp_v4("10.0.0.9", "10.0.0.2", 7, 8).build();
        let key = FlowKey::from_packet(&wire).unwrap();
        assert!(nic.inject_rx_frame(wire.data()));
        let mut batch = PacketBatch::new();
        assert_eq!(
            nic.rx_burst_batch((key.rss_hash() % 4) as usize, 32, &mut batch),
            1
        );
        assert_eq!(batch.packets()[0].meta.rss_hash, Some(key.rss_hash()));
        // Non-flow frames park on queue 0.
        assert!(nic.inject_rx_frame(&[0u8; 14]));
        let mut batch0 = PacketBatch::new();
        assert_eq!(nic.rx_burst_batch(0, 32, &mut batch0), 1);
        assert_eq!(batch0.packets()[0].meta.rss_hash, None);
    }

    #[test]
    fn indirection_table_redirects_buckets() {
        let nic = Nic::with_queues(PortId(0), 4, 8, 8, 1_000_000);
        assert!(nic.indirection().is_identity());
        // Migrate one flow's bucket off its identity queue.
        let wire = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1234, 80).build();
        let key = FlowKey::from_packet(&wire).unwrap();
        let (old, new) = (key.shard_for(4), (key.shard_for(4) + 1) % 4);
        let mut map = nic.indirection();
        map.set(key.bucket(), new);
        nic.set_indirection(map);
        assert!(nic.inject_rx_frame(wire.data()));
        let mut batch = PacketBatch::new();
        assert_eq!(nic.rx_burst_batch(old, 4, &mut batch), 0, "old queue empty");
        assert_eq!(nic.rx_burst_batch(new, 4, &mut batch), 1, "followed table");
        assert_eq!(batch.packets()[0].meta.rss_hash, Some(key.rss_hash()));
        // Non-flow frames park on whichever queue bucket 0 names.
        let mut map = nic.indirection();
        map.set(0, 3);
        nic.set_indirection(map);
        assert!(nic.inject_rx_frame(raw(7).data()));
        let mut parked = PacketBatch::new();
        assert_eq!(nic.rx_burst_batch(3, 4, &mut parked), 1);
        assert_eq!(parked.packets()[0].meta.rss_hash, None);
    }

    #[test]
    fn tx_packets_keep_their_pool_lease_through_the_ring() {
        let pool = BufferPool::new(2048, 0, 8);
        let nic = Nic::with_queues(PortId(0), 2, 8, 8, 1_000_000).with_buffer_pool(pool.clone());
        let wire = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1234, 80).build();
        let queue = FlowKey::from_packet(&wire).unwrap().shard_for(2);

        // rx leg: slab leased, moved into the packet.
        assert!(nic.inject_rx_frame(wire.data()));
        let mut batch = PacketBatch::new();
        assert_eq!(nic.rx_burst_batch(queue, 4, &mut batch), 1);
        assert_eq!(pool.stats().allocated, 1);

        // tx leg: the SAME slab moves onto the tx ring, lease intact.
        assert_eq!(nic.tx_burst_packets(queue, batch), 1);
        assert_eq!(pool.stats().recycled, 0, "lease still outstanding");
        let drained = nic.drain_tx_frame(queue).expect("frame on the wire");
        assert_eq!(&*drained, wire.data());
        assert!(format!("{drained:?}").contains("pooled"));
        drop(drained);
        assert_eq!(pool.stats().recycled, 1, "slab recycled after serialise");
        assert_eq!(nic.stats().tx_frames, 1);

        // Heap-backed packets move without copying too.
        assert!(nic.send_tx_packet(0, wire.clone()));
        assert_eq!(nic.drain_tx_frame(0).unwrap().len(), wire.len());
        // Unknown queues drop and count.
        assert!(!nic.send_tx_packet(9, wire.clone()));
        let mut b2 = PacketBatch::new();
        b2.push(wire);
        assert_eq!(nic.tx_burst_packets(9, b2), 0);
        assert_eq!(nic.stats().tx_dropped, 2);
        assert!(nic.drain_tx_frame(9).is_none());
    }

    #[test]
    fn zero_queue_nic_equals_single_queue() {
        let nic = Nic::with_queues(PortId(0), 0, 4, 4, 1_000_000);
        assert_eq!(nic.queues(), 1);
        let wire = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1234, 80).build();
        assert!(nic.inject_rx_frame(wire.data()), "all hashes map to q0");
        assert_eq!(nic.rx_burst_batch(0, 4, &mut PacketBatch::new()), 1);
    }

    #[test]
    fn per_worker_tx_queues_count_into_one_stats_block() {
        let nic = Nic::with_queues(PortId(0), 2, 2, 1, 1_000_000);
        let burst = |tags: &[u8]| tags.iter().map(|&n| raw(n)).collect::<PacketBatch>();
        assert_eq!(nic.tx_burst_packets(0, burst(&[1, 2])), 1);
        assert_eq!(nic.tx_burst_packets(1, burst(&[3])), 1);
        assert_eq!(nic.tx_burst_packets(7, burst(&[4])), 0, "unknown queue");
        let s = nic.stats();
        assert_eq!((s.tx_frames, s.tx_dropped, s.tx_bytes), (2, 2, 128));
        assert_eq!(nic.drain_tx_frame(0).unwrap()[0], 1);
        assert_eq!(nic.drain_tx_frame(1).unwrap()[0], 3);
        assert!(nic.drain_tx_frame(9).is_none());
        assert_eq!(nic.rx_burst_batch(0, 4, &mut PacketBatch::new()), 0);
    }
}
