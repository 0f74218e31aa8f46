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
//! [`Nic::inject_rx_rss`] (hash → queue, the hash being what hardware
//! would compute from the flow tuple, see
//! `netkit_packet::flow::FlowKey::rss_hash`); each worker then drains
//! *its own* queue with [`Nic::rx_burst_queue`] and transmits on its own
//! ring with [`Nic::tx_burst_queue`], so the fast path shares nothing
//! between workers. Rings are SPSC channels (crossbeam shim); the
//! single-queue constructor [`Nic::new`] and the queue-less API
//! (`inject_rx`/`poll_rx`/`rx_burst`/`send_tx`/`tx_burst`/`drain_tx`)
//! keep their original single-ring semantics on queue 0 — except the
//! *consuming* sides (`poll_rx`, `rx_burst`, `drain_tx`), which scan
//! queues in index order so no frame is ever stranded for a
//! queue-oblivious caller.
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
//! into a pooled slab (the simulated DMA write), parses the flow tuple
//! *once* (what the hardware RSS engine does), steers the frame to its
//! queue through the indirection table, and remembers what the parse
//! found. The worker side drains with [`Nic::rx_burst_batch`], which
//! materialises each frame as a [`Packet`] **around the same pooled
//! slab** (no copy) with `meta.rss_hash` and the parse-once record
//! `meta.flow` pre-stamped. **The rx parse is the only parse**: the
//! steering layer reads the hash, the stateful elements read the
//! record (`netkit_packet::flow::ParsedFlow` — tuple, TCP flags,
//! fragment marker, table hash), and nothing downstream looks at the
//! headers again. Frames from the legacy `Bytes` injection paths
//! (`inject_rx`, `inject_rx_rss`) are parsed at materialisation
//! instead — still once. When the packet is eventually dropped at
//! the end of its run-to-completion pass, the slab returns to the pool
//! — so in steady state the rx path allocates nothing per frame.
//!
//! ## The zero-copy tx fast path
//!
//! Transmit mirrors receive: [`Nic::send_tx_packet`] /
//! [`Nic::tx_burst_packets`] **move** a packet's frame storage into
//! the tx ring — a pool-leased rx slab keeps its lease all the way
//! from `inject_rx_frame` through the element graph onto the wire, and
//! a heap buffer is frozen (refcount transfer), never copied. The wire
//! side drains with [`Nic::drain_tx_frame`], whose [`TxFrame`] derefs
//! to the bytes and, on drop, returns pooled slabs to their
//! [`BufferPool`]. The legacy `Bytes` APIs (`send_tx`, `tx_burst*`,
//! `drain_tx*`) remain; their consuming side detaches pooled slabs
//! (documented, off the fast path) exactly like the legacy rx API.
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

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{bounded, Receiver, Sender};
use netkit_packet::batch::PacketBatch;
use netkit_packet::flow::{steering_hash, FlowKey, ParsedFlow};
use netkit_packet::packet::Packet;
use netkit_packet::pool::{BufferPool, PooledBuf};
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

/// Frame storage in a NIC ring, either direction: shared bytes (legacy
/// injection / submit paths) or a slab still leased from a
/// [`BufferPool`] (the zero-copy paths — the lease survives the ring
/// and recycles wherever the frame is finally dropped).
enum FrameBuf {
    Shared(Bytes),
    Pooled(PooledBuf),
}

impl FrameBuf {
    fn as_slice(&self) -> &[u8] {
        match self {
            FrameBuf::Shared(b) => b,
            FrameBuf::Pooled(b) => b,
        }
    }

    fn into_bytes(self) -> Bytes {
        match self {
            FrameBuf::Shared(b) => b,
            // Detached from the pool: the legacy `Bytes` APIs trade
            // recycling for compatibility.
            FrameBuf::Pooled(b) => b.into_bytes().freeze(),
        }
    }
}

/// An rx frame in flight between the wire side and a worker: the bytes
/// (pool-leased on the fast path) plus what the "hardware" parsed at
/// injection — the RSS hash and, for IPv4, the flow record — carried
/// along so materialisation never re-parses.
struct RxFrame {
    buf: FrameBuf,
    rss: Option<u64>,
    flow: Option<ParsedFlow>,
}

impl RxFrame {
    fn into_bytes(self) -> Bytes {
        self.buf.into_bytes()
    }

    /// Materialises the frame as a stamped packet. Pooled buffers move
    /// in without copying. A frame that rode the ring without a record
    /// (legacy injection paths; IPv6 and non-IP frames, where the
    /// attempt is an ethertype compare) is parsed here — once, at
    /// materialisation. A caller-chosen steering hash
    /// ([`Nic::inject_rx_rss`]) is kept as `rss_hash`; the record's own
    /// hash is what flow tables use.
    fn into_packet(self) -> Packet {
        let mut pkt = match self.buf {
            FrameBuf::Shared(b) => Packet::new(BytesMut::from(&b[..])),
            FrameBuf::Pooled(b) => Packet::from_pooled(b),
        };
        pkt.meta.flow = self.flow;
        pkt.meta.rss_hash = self.rss;
        if self.flow.is_none() {
            stamp_unparsed(&mut pkt);
        }
        pkt
    }
}

/// The materialisation-time parse of a frame that carries no record.
#[cold]
fn stamp_unparsed(pkt: &mut Packet) {
    pkt.meta.flow = ParsedFlow::from_frame(pkt.data());
    pkt.meta.rss_hash = pkt.meta.rss_hash.or_else(|| steering_hash(pkt));
}

/// A transmit frame drained off a tx ring by the wire side
/// ([`Nic::drain_tx_frame`]). Derefs to the frame bytes; dropping it
/// returns a pool-leased slab to its [`BufferPool`], which is what
/// keeps the steady-state tx path allocation-free. Use
/// [`Self::into_bytes`] only when the bytes must outlive the lease
/// (it detaches pooled slabs).
pub struct TxFrame {
    buf: FrameBuf,
}

impl TxFrame {
    /// Detaches the frame into plain shared bytes (pooled slabs are
    /// not recycled afterwards — off the zero-copy path).
    pub fn into_bytes(self) -> Bytes {
        self.buf.into_bytes()
    }
}

impl Deref for TxFrame {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.buf.as_slice()
    }
}

impl fmt::Debug for TxFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pooled = matches!(self.buf, FrameBuf::Pooled(_));
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
/// use bytes::Bytes;
/// use netkit_kernel::nic::{Nic, PortId};
///
/// let nic = Nic::new(PortId(0), 4, 4, 1_000_000_000);
/// nic.inject_rx(Bytes::from_static(b"frame"));
/// assert_eq!(nic.poll_rx().as_deref(), Some(b"frame".as_ref()));
/// assert_eq!(nic.poll_rx(), None);
///
/// // Multi-queue: RSS steering on inject, per-worker burst drain.
/// let mq = Nic::with_queues(PortId(1), 4, 16, 16, 1_000_000_000);
/// mq.inject_rx_rss(7, Bytes::from_static(b"flow"));
/// assert_eq!(mq.rx_burst_queue(7 % 4, 32).len(), 1);
/// ```
pub struct Nic {
    port: PortId,
    rx: Vec<Ring<RxFrame>>,
    tx: Vec<Ring<FrameBuf>>,
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

    /// The attached rx buffer pool, if any.
    pub fn buffer_pool(&self) -> Option<&BufferPool> {
        self.pool.as_ref()
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

    /// The link rate in bits per second.
    pub fn link_bps(&self) -> u64 {
        self.link_bps
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

    /// Delivers a frame into rx queue 0 (called by the wire side).
    /// Returns `false` and counts a drop if the ring is full.
    pub fn inject_rx(&self, frame: Bytes) -> bool {
        self.inject_into(
            0,
            RxFrame {
                buf: FrameBuf::Shared(frame),
                rss: None,
                flow: None,
            },
        )
    }

    /// Delivers a frame into the rx queue selected by the RSS `hash`
    /// through the installed indirection table (identity table:
    /// `bucket % queues`) — the hardware steering step that keeps every
    /// flow on one worker. The hash travels with the frame and is
    /// stamped into `meta.rss_hash` at materialisation. Returns `false`
    /// and counts a drop if that ring is full.
    pub fn inject_rx_rss(&self, hash: u64, frame: Bytes) -> bool {
        let queue = self.steering.read().shard_of_hash(hash) % self.rx.len();
        self.inject_into(
            queue,
            RxFrame {
                buf: FrameBuf::Shared(frame),
                rss: Some(hash),
                flow: None,
            },
        )
    }

    /// The full hardware rx path in one call: parses the flow tuple
    /// from the wire bytes (once — the RSS hash and the IPv4 flow
    /// record then travel with the frame), copies them into a buffer
    /// leased from the attached [`BufferPool`] (the simulated DMA
    /// write; plain heap without a pool), and steers the frame through
    /// the indirection table (non-flow frames follow bucket 0, the
    /// same rule as `netkit_packet::steer::bucket_of_packet` — and a
    /// single-queue NIC behaves identically however many shards the
    /// host software runs). Returns `false` and counts a drop if the
    /// ring is full.
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
                let mut slab = pool.take();
                slab.extend_from_slice(frame);
                FrameBuf::Pooled(slab)
            }
            None => FrameBuf::Shared(Bytes::copy_from_slice(frame)),
        };
        self.inject_into(queue, RxFrame { buf, rss, flow })
    }

    /// Takes the next received frame, scanning queues in index order
    /// (queue-oblivious consumers never strand frames). Pool-leased
    /// frames are detached (not recycled) — use
    /// [`Self::rx_burst_batch`] on the fast path.
    pub fn poll_rx(&self) -> Option<Bytes> {
        self.rx
            .iter()
            .find_map(|ring| ring.rx.try_recv().ok())
            .map(RxFrame::into_bytes)
    }

    /// Takes the next frame from rx queue `queue` only (the per-worker
    /// poll path).
    pub fn poll_rx_queue(&self, queue: usize) -> Option<Bytes> {
        Some(self.rx.get(queue)?.rx.try_recv().ok()?.into_bytes())
    }

    /// Takes up to `max` received frames across all queues in index
    /// order — the poll-mode-driver burst receive for single-worker
    /// callers. Per-queue frame order matches repeated
    /// [`Self::poll_rx`] calls.
    pub fn rx_burst(&self, max: usize) -> Vec<Bytes> {
        let mut out = Vec::with_capacity(max.min(64));
        for ring in &self.rx {
            while out.len() < max {
                match ring.rx.try_recv() {
                    Ok(frame) => out.push(frame.into_bytes()),
                    Err(_) => break,
                }
            }
            if out.len() >= max {
                break;
            }
        }
        out
    }

    /// Takes up to `max` frames from rx queue `queue` only — each
    /// dataplane worker bursts from its own ring, sharing nothing.
    /// Returns an empty burst for unknown queues.
    pub fn rx_burst_queue(&self, queue: usize, max: usize) -> Vec<Bytes> {
        let Some(ring) = self.rx.get(queue) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(max.min(64));
        while out.len() < max {
            match ring.rx.try_recv() {
                Ok(frame) => out.push(frame.into_bytes()),
                Err(_) => break,
            }
        }
        out
    }

    /// The zero-copy worker receive: takes up to `max` frames from rx
    /// queue `queue` and appends them to `batch` as rss-stamped
    /// [`Packet`]s. Pool-leased frame buffers move into the packets
    /// without copying (and return to the pool when the packets drop);
    /// frames from the legacy `Bytes` injection paths are copied once.
    /// Every materialised packet carries `meta.rss_hash` and, for
    /// IPv4, the `meta.flow` record — from the parse at injection when
    /// available, else parsed here, exactly once — so no steering
    /// decision and no stateful element downstream re-parses headers.
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
    pub fn rx_pending(&self) -> usize {
        self.rx.iter().map(|ring| ring.rx.len()).sum()
    }

    fn send_into(&self, queue: usize, frame: FrameBuf) -> bool {
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

    /// Moves a packet's frame storage onto the ring: a pool-leased rx
    /// slab keeps its lease (zero copy, recycles after drain), a heap
    /// buffer is frozen (refcount transfer, still no copy).
    fn packet_frame(pkt: Packet) -> FrameBuf {
        match pkt.try_into_pooled() {
            Ok(slab) => FrameBuf::Pooled(slab),
            Err(pkt) => FrameBuf::Shared(pkt.into_data().freeze()),
        }
    }

    /// Queues a frame for transmission on tx queue 0 (called by the
    /// router side). Returns `false` and counts a drop if the ring is
    /// full.
    pub fn send_tx(&self, frame: Bytes) -> bool {
        self.send_into(0, FrameBuf::Shared(frame))
    }

    /// Queues a packet for transmission on tx queue `queue`, **moving**
    /// its frame storage (no copy: pool-leased slabs keep their lease,
    /// heap buffers are frozen) — the zero-copy egress the device
    /// adapter uses. Metadata does not cross onto the wire. Returns
    /// `false` and counts a drop if the ring is full or the queue is
    /// unknown.
    pub fn send_tx_packet(&self, queue: usize, pkt: Packet) -> bool {
        if queue >= self.tx.len() {
            self.tx_dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.send_into(queue, Self::packet_frame(pkt))
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
            let frame = Self::packet_frame(pkt);
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

    /// Queues a burst of frames on tx queue 0 under the single-queue
    /// semantics: frames are accepted in order until the ring fills, the
    /// remainder are dropped and counted. Returns the number accepted.
    pub fn tx_burst(&self, frames: impl IntoIterator<Item = Bytes>) -> usize {
        self.tx_burst_queue(0, frames)
    }

    /// Queues a burst of frames on tx queue `queue` — the per-worker
    /// transmit path. Unknown queues drop (and count) every frame.
    /// Returns the number of frames accepted.
    pub fn tx_burst_queue(&self, queue: usize, frames: impl IntoIterator<Item = Bytes>) -> usize {
        let Some(ring) = self.tx.get(queue) else {
            let dropped = frames.into_iter().count() as u64;
            self.tx_dropped.fetch_add(dropped, Ordering::Relaxed);
            return 0;
        };
        let mut accepted = 0usize;
        let mut accepted_bytes = 0u64;
        let mut dropped = 0u64;
        for frame in frames {
            let len = frame.len() as u64;
            match ring.tx.try_send(FrameBuf::Shared(frame)) {
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

    /// Takes the next frame to put on the wire, scanning tx queues in
    /// index order (called by the wire side). Pool-leased frames are
    /// detached (not recycled) — use [`Self::drain_tx_frame`] on the
    /// fast path.
    pub fn drain_tx(&self) -> Option<Bytes> {
        self.tx
            .iter()
            .find_map(|ring| ring.rx.try_recv().ok())
            .map(FrameBuf::into_bytes)
    }

    /// Takes the next frame from tx queue `queue` only (legacy `Bytes`
    /// form; pooled frames detach — see [`Self::drain_tx_frame`]).
    pub fn drain_tx_queue(&self, queue: usize) -> Option<Bytes> {
        Some(self.tx.get(queue)?.rx.try_recv().ok()?.into_bytes())
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
    pub fn tx_pending(&self) -> usize {
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

    fn frame(n: u8) -> Bytes {
        Bytes::from(vec![n; 64])
    }

    #[test]
    fn rx_ring_drops_when_full() {
        let nic = Nic::new(PortId(1), 2, 2, 1_000_000);
        assert!(nic.inject_rx(frame(1)));
        assert!(nic.inject_rx(frame(2)));
        assert!(!nic.inject_rx(frame(3)));
        let s = nic.stats();
        assert_eq!((s.rx_frames, s.rx_dropped), (2, 1));
        assert_eq!(nic.poll_rx().unwrap()[0], 1);
        assert!(nic.inject_rx(frame(4)), "space reclaimed after poll");
    }

    #[test]
    fn tx_ring_fifo_and_counters() {
        let nic = Nic::new(PortId(0), 2, 2, 1_000_000);
        assert!(nic.send_tx(frame(1)));
        assert!(nic.send_tx(frame(2)));
        assert!(!nic.send_tx(frame(3)));
        assert_eq!(nic.drain_tx().unwrap()[0], 1);
        assert_eq!(nic.drain_tx().unwrap()[0], 2);
        assert_eq!(nic.drain_tx(), None);
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
        let nic = Nic::with_queues(PortId(0), 4, 8, 8, 1_000_000);
        assert_eq!(nic.queues(), 4);
        for hash in 0..16u64 {
            assert!(nic.inject_rx_rss(hash, frame(hash as u8)));
        }
        // Each queue holds exactly the frames whose hash maps to it.
        for queue in 0..4usize {
            let burst = nic.rx_burst_queue(queue, 32);
            assert_eq!(burst.len(), 4);
            for f in burst {
                assert_eq!(f[0] as usize % 4, queue);
            }
        }
        assert_eq!(nic.rx_pending(), 0);
        assert_eq!(nic.rx_burst_queue(9, 4), Vec::<Bytes>::new());
    }

    #[test]
    fn per_queue_rings_are_independently_bounded() {
        let nic = Nic::with_queues(PortId(0), 2, 2, 2, 1_000_000);
        // Fill queue 0; queue 1 still accepts.
        assert!(nic.inject_rx_rss(0, frame(1)));
        assert!(nic.inject_rx_rss(2, frame(2)));
        assert!(!nic.inject_rx_rss(4, frame(3)), "queue 0 full");
        assert!(nic.inject_rx_rss(1, frame(4)), "queue 1 unaffected");
        let s = nic.stats();
        assert_eq!((s.rx_frames, s.rx_dropped), (3, 1));
    }

    #[test]
    fn queue_oblivious_consumers_see_all_queues() {
        let nic = Nic::with_queues(PortId(0), 2, 4, 4, 1_000_000);
        nic.inject_rx_rss(1, frame(11)); // queue 1
        assert_eq!(nic.poll_rx().unwrap()[0], 11, "poll_rx scans queues");
        nic.tx_burst_queue(1, [frame(9)]);
        assert_eq!(nic.drain_tx().unwrap()[0], 9, "drain_tx scans queues");
    }

    #[test]
    fn pooled_rx_frames_recycle_through_packets() {
        use netkit_packet::packet::PacketBuilder;
        let pool = BufferPool::new(2048, 0, 8);
        let nic = Nic::with_queues(PortId(0), 2, 8, 8, 1_000_000).with_buffer_pool(pool.clone());
        assert!(nic.buffer_pool().is_some());
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
    fn inject_rx_frame_without_pool_still_steers_and_stamps() {
        use netkit_packet::packet::PacketBuilder;
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
    fn legacy_rss_injection_hash_is_stamped_at_materialisation() {
        let nic = Nic::with_queues(PortId(0), 4, 8, 8, 1_000_000);
        nic.inject_rx_rss(9, frame(1));
        let mut batch = PacketBatch::new();
        assert_eq!(nic.rx_burst_batch(9 % 4, 32, &mut batch), 1);
        assert_eq!(batch.packets()[0].meta.rss_hash, Some(9));
        // And legacy Bytes consumers still see pooled frames.
        let pool = BufferPool::new(256, 0, 4);
        let pooled = Nic::new(PortId(1), 4, 4, 1_000_000).with_buffer_pool(pool.clone());
        assert!(pooled.inject_rx_frame(&[0u8; 14]));
        assert_eq!(pooled.poll_rx().unwrap().len(), 14);
        // Detached, not recycled — documented legacy behaviour.
        assert_eq!(pool.stats().recycled, 0);
    }

    #[test]
    fn indirection_table_redirects_buckets() {
        use netkit_packet::steer::bucket_of;
        let nic = Nic::with_queues(PortId(0), 4, 8, 8, 1_000_000);
        assert!(nic.indirection().is_identity());
        // Migrate hash 5's bucket from queue 1 to queue 3.
        let mut map = nic.indirection();
        map.set(bucket_of(5), 3);
        nic.set_indirection(map);
        assert!(nic.inject_rx_rss(5, frame(5)));
        assert_eq!(nic.rx_burst_queue(1, 4).len(), 0, "old queue empty");
        assert_eq!(nic.rx_burst_queue(3, 4).len(), 1, "bucket followed table");
        // inject_rx_frame steers through the same table.
        use netkit_packet::packet::PacketBuilder;
        let wire = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1234, 80).build();
        let key = FlowKey::from_packet(&wire).unwrap();
        let mut map = nic.indirection();
        map.set(key.bucket(), 2);
        nic.set_indirection(map);
        assert!(nic.inject_rx_frame(wire.data()));
        let mut batch = PacketBatch::new();
        assert_eq!(nic.rx_burst_batch(2, 4, &mut batch), 1);
        assert_eq!(batch.packets()[0].meta.rss_hash, Some(key.rss_hash()));
    }

    #[test]
    fn tx_packets_keep_their_pool_lease_through_the_ring() {
        use netkit_packet::packet::PacketBuilder;
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

        // Heap-backed packets move without copying too (frozen).
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
    fn legacy_drain_detaches_pooled_tx_frames() {
        use netkit_packet::packet::PacketBuilder;
        let pool = BufferPool::new(2048, 0, 8);
        let nic = Nic::new(PortId(0), 8, 8, 1_000_000).with_buffer_pool(pool.clone());
        let wire = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 7, 8).build();
        assert!(nic.inject_rx_frame(wire.data()));
        let mut batch = PacketBatch::new();
        nic.rx_burst_batch(0, 4, &mut batch);
        assert_eq!(nic.tx_burst_packets(0, batch), 1);
        // Legacy Bytes drain: correct bytes, but the slab detaches.
        assert_eq!(nic.drain_tx().as_deref(), Some(wire.data()));
        assert_eq!(pool.stats().recycled, 0, "documented legacy trade-off");
    }

    #[test]
    fn zero_queue_nic_equals_single_queue() {
        let nic = Nic::with_queues(PortId(0), 0, 4, 4, 1_000_000);
        assert_eq!(nic.queues(), 1);
        assert!(nic.inject_rx_rss(12345, frame(1)), "all hashes map to q0");
        assert_eq!(nic.rx_burst_queue(0, 4).len(), 1);
    }

    #[test]
    fn per_worker_tx_queues_count_into_one_stats_block() {
        let nic = Nic::with_queues(PortId(0), 2, 2, 1, 1_000_000);
        assert_eq!(nic.tx_burst_queue(0, [frame(1), frame(2)]), 1);
        assert_eq!(nic.tx_burst_queue(1, [frame(3)]), 1);
        assert_eq!(nic.tx_burst_queue(7, [frame(4)]), 0, "unknown queue");
        let s = nic.stats();
        assert_eq!((s.tx_frames, s.tx_dropped, s.tx_bytes), (2, 2, 128));
        assert_eq!(nic.drain_tx_queue(0).unwrap()[0], 1);
        assert_eq!(nic.drain_tx_queue(1).unwrap()[0], 3);
        assert_eq!(nic.drain_tx_queue(9), None);
        assert_eq!(nic.poll_rx_queue(0), None);
    }
}
