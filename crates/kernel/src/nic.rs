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
//! nothing between workers. Each ring is the NIC's own: a bounded
//! FIFO under one mutex, together with that queue's counters (see
//! "What costs a lock"). The single-queue constructor [`Nic::new`] is
//! the same NIC with one ring pair, queue 0.
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
//! historical modulo steering). Like the silicon's, the table is a
//! **register file**: one relaxed atomic entry per bucket plus the
//! shard count the table was built for. An inject reads its one entry
//! with one load; [`Nic::set_indirection`] writes the entries one by
//! one and [`Nic::indirection`] reads them back into a map. Entry-wise
//! writes are not atomic as a table, which is why the contract below
//! holds: the reflective rebalancer rewrites the table inside a
//! dataplane quiesce to migrate whole buckets of flows between queues,
//! and wire-side injection must be quiescent across the swap; see
//! `netkit_router::shard::rebalance` for the protocol (a simulated NIC
//! cannot apply the swap atomically against racing injectors the way
//! silicon does). A frame racing a swap anyway lands on its old or its
//! new queue — never out of range.
//!
//! ## The zero-copy rx fast path
//!
//! A NIC built [`Nic::with_buffer_pool`] leases every rx frame buffer
//! from a [`BufferPool`] — the paper's buffer-management CF — instead
//! of allocating it: [`Nic::inject_rx_frame`] copies the wire bytes
//! into a pooled slab sized to the frame (the simulated DMA write; a
//! frame that fits takes one of the pool's 128-byte small slabs, so a
//! minimum-size frame no longer pins a full 2-KiB one — see
//! `netkit_packet::pool`), parses the flow tuple
//! *once* (what the hardware RSS engine does), steers the frame to its
//! queue through the indirection table, and remembers what the parse
//! found. The worker side drains with [`Nic::rx_burst_batch`], which
//! takes up to a burst off the ring under one lock and materialises
//! each frame as a [`Packet`] **around the same pooled
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
//! a heap buffer moves as it is, never copied. A burst enters the ring
//! under one lock, first-`k`-accepted then full. The wire side drains
//! with [`Nic::drain_tx_frame`], whose [`TxFrame`] derefs to the bytes
//! and, on drop, returns pooled slabs to their [`BufferPool`].
//!
//! ## What costs a syscall, and what costs a lock
//!
//! No syscall: the NIC never blocks on a ring — a full ring drops and
//! counts, an empty one returns nothing — so nothing parks and nothing
//! needs waking. Locks: an inject, a transmit and a drain are each one
//! short critical section on their ring's mutex, and a burst
//! ([`Nic::rx_burst_batch`], [`Nic::tx_burst_packets`]) is one for the
//! whole burst, not one per frame. The queue's counters live under the
//! same lock, so counting costs nothing more; [`Nic::stats`] sums them.
//! Reading the indirection table costs no lock at all. (The pool a
//! frame leases from adds one lock of its own per lease and per
//! return; see `netkit_packet::pool`.)

use std::collections::VecDeque;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU16, AtomicU64, AtomicUsize, Ordering};

use bytes::BytesMut;
use netkit_packet::batch::PacketBatch;
use netkit_packet::flow::{FlowKey, ParsedFlow};
use netkit_packet::packet::{Packet, PacketBuf};
use netkit_packet::pool::BufferPool;
use netkit_packet::steer::{bucket_of, BucketMap, RSS_BUCKETS};
use parking_lot::{Mutex, MutexGuard};

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

/// One queue's frames and books, under its ring's one lock.
struct RingState<T> {
    queue: VecDeque<T>,
    /// Frames accepted onto the ring.
    accepted: u64,
    /// Frames refused because the ring was full.
    dropped: u64,
    /// Bytes of the accepted frames.
    bytes: u64,
    /// Acquisitions of this ring's lock — read by the lock-count tests.
    #[cfg(test)]
    locks: u64,
}

impl<T> RingState<T> {
    /// Restarts an emptied ring at its first slot (`VecDeque::clear`
    /// resets the head), so a ring drained every round reuses the same
    /// slots instead of walking its whole buffer: the memory it touches
    /// stays at its high-water occupancy.
    #[inline]
    fn rewind_if_empty(&mut self) {
        if self.queue.is_empty() {
            self.queue.clear();
        }
    }
}

/// One bounded ring of a queue. The NIC never waits on a ring — a
/// push to a full one drops, a pop of an empty one returns nothing —
/// so the ring is a fixed-capacity FIFO under one mutex and nothing
/// more: no endpoints, condvars, waiter counts or disconnection.
struct Ring<T> {
    state: Mutex<RingState<T>>,
    capacity: usize,
}

impl<T> Ring<T> {
    fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(RingState {
                queue: VecDeque::new(),
                accepted: 0,
                dropped: 0,
                bytes: 0,
                #[cfg(test)]
                locks: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    #[inline]
    fn lock(&self) -> MutexGuard<'_, RingState<T>> {
        #[allow(unused_mut)]
        let mut st = self.state.lock();
        #[cfg(test)]
        {
            st.locks += 1;
        }
        st
    }

    /// Queues `item` of `len` bytes if the ring has room, counting
    /// either outcome.
    #[inline]
    fn push(&self, item: T, len: usize) -> bool {
        let mut st = self.lock();
        if st.queue.len() >= self.capacity {
            st.dropped += 1;
            return false;
        }
        st.queue.push_back(item);
        st.accepted += 1;
        st.bytes += len as u64;
        true
    }

    #[inline]
    fn pop(&self) -> Option<T> {
        let mut st = self.lock();
        let item = st.queue.pop_front();
        st.rewind_if_empty();
        item
    }

    fn len(&self) -> usize {
        self.lock().queue.len()
    }
}

/// What the "hardware" parse at injection found, carried with the frame
/// so materialisation never parses.
enum Stamp {
    /// An IPv4 flow record; its hash is the RSS hash.
    Flow(ParsedFlow),
    /// An RSS hash with no record (IPv6).
    Hash(u64),
    /// No flow identity.
    Opaque,
}

impl Stamp {
    #[inline]
    fn of(frame: &[u8]) -> Self {
        match ParsedFlow::from_frame(frame) {
            Some(flow) => Stamp::Flow(flow),
            None => FlowKey::from_frame(frame).map_or(Stamp::Opaque, |k| Stamp::Hash(k.rss_hash())),
        }
    }

    #[inline]
    fn rss(&self) -> Option<u64> {
        match self {
            Stamp::Flow(flow) => Some(flow.hash()),
            Stamp::Hash(hash) => Some(*hash),
            Stamp::Opaque => None,
        }
    }
}

/// An rx frame in flight between the wire side and a worker — one rx
/// descriptor: the bytes (pool-leased when the NIC has a pool) and
/// their [`Stamp`]. One stamp, not a hash beside a record, keeps the
/// descriptor at 64 bytes; a ring holds one per frame in flight.
struct RxFrame {
    buf: PacketBuf,
    stamp: Stamp,
}

const _: () = assert!(std::mem::size_of::<RxFrame>() <= 64);

impl RxFrame {
    /// Materialises the frame as a stamped packet; the storage moves in
    /// without copying.
    #[inline]
    fn into_packet(self) -> Packet {
        let mut pkt = Packet::from_buf(self.buf);
        pkt.meta.rss_hash = self.stamp.rss();
        if let Stamp::Flow(flow) = self.stamp {
            pkt.meta.flow = Some(flow);
        }
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
    /// The RSS indirection table as a register file: bucket → queue,
    /// one entry per bucket; identity at boot. Relaxed: an entry
    /// publishes no other data, and a swap is ordered against the
    /// injectors by the quiesce it must run in (see
    /// [`Self::set_indirection`]).
    steering: [AtomicU16; RSS_BUCKETS],
    /// Shards the installed table was built for (what
    /// [`Self::indirection`] rebuilds it with).
    steering_shards: AtomicUsize,
    link_bps: u64,
    /// Frames sent to a tx queue the NIC does not have (every other
    /// drop is counted by its ring).
    tx_unknown_dropped: AtomicU64,
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
        let nic = Self {
            port,
            rx: (0..queues).map(|_| Ring::new(rx_capacity)).collect(),
            tx: (0..queues).map(|_| Ring::new(tx_capacity)).collect(),
            pool: None,
            steering: std::array::from_fn(|_| AtomicU16::new(0)),
            steering_shards: AtomicUsize::new(0),
            link_bps,
            tx_unknown_dropped: AtomicU64::new(0),
        };
        nic.set_indirection(BucketMap::identity(queues));
        nic
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
    /// built for more shards than queues still steers in range). Frames
    /// **already sitting in rx rings keep their old queue** — atomic
    /// migration of queued traffic is the dataplane's job
    /// (`ShardedPipeline::install_bucket_map` drains and re-steers them
    /// inside its quiesce), and wire-side injection must be quiescent
    /// across the swap: the table is written entry by entry; see the
    /// module docs.
    pub fn set_indirection(&self, map: BucketMap) {
        self.steering_shards.store(map.shards(), Ordering::Relaxed);
        for (bucket, entry) in self.steering.iter().enumerate() {
            entry.store(map.shard_of_bucket(bucket) as u16, Ordering::Relaxed);
        }
    }

    /// Snapshot of the installed indirection table, read back from the
    /// registers.
    pub fn indirection(&self) -> BucketMap {
        let mut map = BucketMap::identity(self.steering_shards.load(Ordering::Relaxed));
        for (bucket, entry) in self.steering.iter().enumerate() {
            map.set(bucket, usize::from(entry.load(Ordering::Relaxed)));
        }
        map
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
        let stamp = Stamp::of(frame);
        let bucket = stamp.rss().map_or(0, bucket_of);
        let queue = usize::from(self.steering[bucket].load(Ordering::Relaxed)) % self.rx.len();
        let buf = match &self.pool {
            Some(pool) => {
                let mut slab = pool.take_for(frame.len());
                slab.extend_from_slice(frame);
                PacketBuf::Pooled(slab)
            }
            None => PacketBuf::Heap(BytesMut::from(frame)),
        };
        self.rx[queue].push(RxFrame { buf, stamp }, frame.len())
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
        let mut st = ring.lock();
        let taken = max.min(st.queue.len());
        for frame in st.queue.drain(..taken) {
            batch.push(frame.into_packet());
        }
        st.rewind_if_empty();
        taken
    }

    /// Frames currently waiting across all rx queues.
    fn rx_pending(&self) -> usize {
        self.rx.iter().map(Ring::len).sum()
    }

    /// Queues a packet for transmission on tx queue `queue`, **moving**
    /// its frame storage (no copy: pool-leased slabs keep their lease,
    /// heap buffers move as they are) — the zero-copy egress the device
    /// adapter uses. Metadata does not cross onto the wire. Returns
    /// `false` and counts a drop if the ring is full or the queue is
    /// unknown.
    #[inline]
    pub fn send_tx_packet(&self, queue: usize, pkt: Packet) -> bool {
        let Some(ring) = self.tx.get(queue) else {
            self.tx_unknown_dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        let frame = pkt.into_buf();
        let len = frame.as_slice().len();
        ring.push(frame, len)
    }

    /// Queues a whole batch on tx queue `queue`, moving every packet's
    /// storage (see [`Self::send_tx_packet`]). Frames are accepted in
    /// batch order until the ring fills; the remainder are dropped and
    /// counted. Returns the number accepted — so verdicts are
    /// first-`k`-accepted then queue-full, exactly the scalar sequence.
    /// Unknown queues drop (and count) the whole batch.
    #[inline]
    pub fn tx_burst_packets(&self, queue: usize, mut batch: PacketBatch) -> usize {
        let total = batch.len();
        let Some(ring) = self.tx.get(queue) else {
            self.tx_unknown_dropped
                .fetch_add(total as u64, Ordering::Relaxed);
            return 0;
        };
        // drain_all (not into_iter) keeps the batch container's backing
        // storage, so a pool-homed container recycles whole afterwards.
        let mut frames = batch.drain_all();
        let mut st = ring.lock();
        let accepted = total.min(ring.capacity - st.queue.len());
        for pkt in frames.by_ref().take(accepted) {
            let frame = pkt.into_buf();
            st.bytes += frame.as_slice().len() as u64;
            st.queue.push_back(frame);
        }
        st.accepted += accepted as u64;
        st.dropped += (total - accepted) as u64;
        drop(st);
        // The refused tail drops with `frames`, outside the ring's lock.
        accepted
    }

    /// The zero-copy wire-side drain: takes the next frame from tx
    /// queue `queue` as a [`TxFrame`]. Dropping the frame after
    /// serialising it returns a pool-leased slab to its pool, closing
    /// the allocation-free rx → graph → tx loop.
    pub fn drain_tx_frame(&self, queue: usize) -> Option<TxFrame> {
        Some(TxFrame {
            buf: self.tx.get(queue)?.pop()?,
        })
    }

    /// Frames currently waiting across all tx queues.
    fn tx_pending(&self) -> usize {
        self.tx.iter().map(Ring::len).sum()
    }

    /// Snapshot of the NIC counters, summed over the queues' books.
    pub fn stats(&self) -> NicStats {
        let mut s = NicStats {
            tx_dropped: self.tx_unknown_dropped.load(Ordering::Relaxed),
            ..NicStats::default()
        };
        for ring in &self.rx {
            let st = ring.lock();
            s.rx_frames += st.accepted;
            s.rx_dropped += st.dropped;
        }
        for ring in &self.tx {
            let st = ring.lock();
            s.tx_frames += st.accepted;
            s.tx_dropped += st.dropped;
            s.tx_bytes += st.bytes;
        }
        s
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
            self.rx[0].capacity * self.rx.len(),
            self.tx_pending(),
            self.tx[0].capacity * self.tx.len()
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
        assert!(batch.packets()[0].meta.flow.is_some());
        // An IPv6 frame carries its hash and no IPv4 record.
        let v6 = PacketBuilder::udp_v6("2001:db8::1", "2001:db8::2", 7, 8).build();
        let key = FlowKey::from_packet(&v6).unwrap();
        assert!(nic.inject_rx_frame(v6.data()));
        let mut batch6 = PacketBatch::new();
        let queue = (key.rss_hash() % 4) as usize;
        assert_eq!(nic.rx_burst_batch(queue, 32, &mut batch6), 1);
        assert_eq!(batch6.packets()[0].meta.rss_hash, Some(key.rss_hash()));
        assert_eq!(batch6.packets()[0].meta.flow, None);
        // Non-flow frames park on queue 0.
        assert!(nic.inject_rx_frame(&[0u8; 14]));
        let mut batch0 = PacketBatch::new();
        assert_eq!(nic.rx_burst_batch(0, 32, &mut batch0), 1);
        assert_eq!(batch0.packets()[0].meta.rss_hash, None);
        assert_eq!(batch0.packets()[0].meta.flow, None);
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

    /// Lock acquisitions on every ring of `nic` so far (read without
    /// counting the read).
    fn ring_locks(nic: &Nic) -> u64 {
        let rx = nic.rx.iter().map(|r| r.state.lock().locks);
        let tx = nic.tx.iter().map(|r| r.state.lock().locks);
        rx.chain(tx).sum()
    }

    #[test]
    fn a_burst_costs_one_ring_lock() {
        let pool = BufferPool::new(2048, 0, 128);
        let nic = Nic::new(PortId(0), 64, 64, 1_000_000).with_buffer_pool(pool);
        for n in 0..32 {
            assert!(nic.inject_rx_frame(raw(n).data()));
        }
        let before = ring_locks(&nic);
        let mut batch = PacketBatch::with_capacity(32);
        assert_eq!(nic.rx_burst_batch(0, 32, &mut batch), 32);
        assert_eq!(
            ring_locks(&nic) - before,
            1,
            "one lock for a 32-frame rx burst"
        );

        let before = ring_locks(&nic);
        assert_eq!(nic.tx_burst_packets(0, batch), 32);
        assert_eq!(
            ring_locks(&nic) - before,
            1,
            "one lock for a 32-packet tx burst"
        );
        // A burst that overflows the ring is still one lock.
        let overflow: PacketBatch = (0..40).map(raw).collect();
        let before = ring_locks(&nic);
        assert_eq!(nic.tx_burst_packets(0, overflow), 32);
        assert_eq!(ring_locks(&nic) - before, 1);
        assert_eq!(nic.stats().tx_dropped, 8);
        // An empty burst is one lock too.
        let before = ring_locks(&nic);
        assert_eq!(nic.rx_burst_batch(0, 32, &mut PacketBatch::new()), 0);
        assert_eq!(ring_locks(&nic) - before, 1);
    }

    #[test]
    fn inject_transmit_and_drain_cost_one_ring_lock_each() {
        let pool = BufferPool::new(2048, 0, 128);
        let nic = Nic::with_queues(PortId(0), 4, 64, 64, 1_000_000).with_buffer_pool(pool);
        let frames = flows_on(2, 4, 16);
        // Steering reads the register file: an inject locks its ring
        // and nothing else on the NIC.
        for (n, frame) in frames.iter().enumerate() {
            let before = ring_locks(&nic);
            assert!(nic.inject_rx_frame(frame.data()));
            assert_eq!(ring_locks(&nic) - before, 1, "inject {n}");
        }
        assert_eq!(nic.rx[2].state.lock().queue.len(), 16);
        let before = ring_locks(&nic);
        assert!(nic.send_tx_packet(1, raw(1)));
        assert!(nic.drain_tx_frame(1).is_some());
        assert!(nic.drain_tx_frame(1).is_none());
        assert_eq!(ring_locks(&nic) - before, 3);
        // Unknown queues touch no ring.
        let before = ring_locks(&nic);
        assert!(!nic.send_tx_packet(9, raw(2)));
        assert!(nic.drain_tx_frame(9).is_none());
        assert_eq!(ring_locks(&nic) - before, 0);
    }

    #[test]
    fn the_indirection_registers_read_back_what_was_written() {
        for shards in 1..=4 {
            let nic = Nic::with_queues(PortId(0), shards, 8, 8, 1_000_000);
            assert_eq!(nic.indirection(), BucketMap::identity(shards), "boot");
            nic.set_indirection(BucketMap::identity(shards));
            assert_eq!(nic.indirection(), BucketMap::identity(shards));
            let migrated = BucketMap::identity(shards).with_pins(&[
                (0, shards - 1),
                (7, 0),
                (255, shards / 2),
            ]);
            nic.set_indirection(migrated.clone());
            assert_eq!(nic.indirection(), migrated);
        }
    }

    #[test]
    fn a_table_for_more_shards_than_queues_steers_in_range() {
        let nic = Nic::with_queues(PortId(0), 2, 64, 8, 1_000_000);
        let wide = BucketMap::identity(4).with_pins(&[(0, 3), (1, 3), (2, 3)]);
        nic.set_indirection(wide.clone());
        assert_eq!(nic.indirection(), wide, "the table keeps its own width");
        let frames = flows_on(0, 1, 48);
        for frame in &frames {
            assert!(nic.inject_rx_frame(frame.data()));
        }
        assert!(nic.inject_rx_frame(raw(0).data()), "bucket 0 names shard 3");
        let mut got = 0;
        for queue in 0..2 {
            let mut batch = PacketBatch::new();
            got += nic.rx_burst_batch(queue, 64, &mut batch);
            for pkt in batch.iter() {
                let shard = match pkt.meta.rss_hash {
                    Some(h) => wide.shard_of_hash(h),
                    None => wide.shard_of_bucket(0),
                };
                assert_eq!(shard % 2, queue, "shard {shard}");
            }
        }
        assert_eq!(got, frames.len() + 1);
        assert_eq!(nic.stats().rx_frames, 49);
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
