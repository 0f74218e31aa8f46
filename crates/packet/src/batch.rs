//! Packet batches — the unit of bulk transfer on the dataplane.
//!
//! Moving packets one at a time through component bindings puts a
//! dynamic-dispatch + interception + (for isolated components) IPC
//! round-trip cost on *every packet*. A [`PacketBatch`] amortizes all of
//! that: one binding traversal, one interceptor-chain pass, and one
//! marshalled IPC call move up to a whole burst of packets.
//!
//! A batch is an **ordered** sequence of packets and nothing else — one
//! `Vec<Packet>`, plus the [`BatchPool`] it returns to. Where each packet
//! leaves an element is the element's decision, handed to the router's
//! emit step (`netkit_router::api::emit`) beside the batch.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::packet::Packet;

/// An ordered batch of packets.
///
/// # Examples
///
/// ```
/// use netkit_packet::batch::PacketBatch;
/// use netkit_packet::packet::PacketBuilder;
///
/// let mut batch = PacketBatch::with_capacity(2);
/// batch.push(PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build());
/// batch.push(PacketBuilder::udp_v4("10.0.0.1", "10.0.0.3", 3, 4).build());
/// let ports: Vec<u16> = batch.iter().map(|p| p.udp_v4().unwrap().dst_port).collect();
/// assert_eq!(ports, [2, 4]); // batch order
/// ```
#[derive(Default)]
pub struct PacketBatch {
    packets: Vec<Packet>,
    /// The [`BatchPool`] this container leases from, if any; on drop the
    /// (cleared) backing vector returns there instead of being freed.
    home: Option<Weak<BatchPoolInner>>,
}

impl Drop for PacketBatch {
    fn drop(&mut self) {
        let Some(pool) = self.home.take().and_then(|w| w.upgrade()) else {
            return;
        };
        pool.recycle(std::mem::take(&mut self.packets));
    }
}

impl PacketBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with room for `capacity` packets.
    #[inline]
    pub fn with_capacity(capacity: usize) -> Self {
        Self::from_packets(Vec::with_capacity(capacity))
    }

    /// Wraps an existing packet vector.
    #[inline]
    pub fn from_packets(packets: Vec<Packet>) -> Self {
        Self {
            packets,
            home: None,
        }
    }

    /// Number of packets.
    #[inline]
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True when the batch holds no packets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Appends a packet.
    #[inline]
    pub fn push(&mut self, pkt: Packet) {
        self.packets.push(pkt);
    }

    /// Read access to the packets, in order.
    #[inline]
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// Mutable access to the packets, in order.
    #[inline]
    pub fn packets_mut(&mut self) -> &mut [Packet] {
        &mut self.packets
    }

    /// Iterates over the packets.
    #[inline]
    pub fn iter(&self) -> std::slice::Iter<'_, Packet> {
        self.packets.iter()
    }

    /// Removes and returns the last packet. Keeps the batch's
    /// allocation intact, so a pooled container still recycles whole.
    pub fn pop(&mut self) -> Option<Packet> {
        self.packets.pop()
    }

    /// Consumes the batch, returning the packets.
    #[inline]
    pub fn into_packets(mut self) -> Vec<Packet> {
        std::mem::take(&mut self.packets)
    }

    /// Removes and yields every packet in batch order, **keeping the
    /// backing storage** — unlike
    /// `into_iter`/[`Self::into_packets`], a pool-homed container
    /// drained this way still recycles whole with its capacity. This
    /// is what terminal consumers that unpack packets (e.g. the
    /// device adapter's tx burst) use on the zero-allocation path.
    #[inline]
    pub fn drain_all(&mut self) -> impl Iterator<Item = Packet> + '_ {
        self.packets.drain(..)
    }

    /// Removes all packets, keeping the allocation for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.packets.clear();
    }

    /// Stamps every packet's
    /// [`rss_hash`](crate::packet::PacketMeta::rss_hash) and parse-once
    /// [`flow`](crate::packet::PacketMeta::flow) record from its parsed
    /// flow tuple (see [`crate::flow::stamp_rss`]); already-stamped
    /// packets are untouched. Do this once at batch construction when
    /// frames did not come through an RSS-stamping NIC path — every
    /// steering decision afterwards is a modulo, never a header parse.
    pub fn stamp_rss(&mut self) {
        for pkt in &mut self.packets {
            crate::flow::stamp_rss(pkt);
        }
    }

    /// Steers the batch over the shards of a bucket → shard indirection
    /// table **in place** — the software analogue of a multi-queue NIC
    /// spreading flows over receive queues, and the table-driven path
    /// the reflective rebalancer installs
    /// (`netkit_router::shard::ShardedPipeline` dispatches through
    /// this). One counting-sort pass computes a permutation and
    /// per-shard offset table; no packet moves and no per-shard `Vec`
    /// materialises. The returned [`ShardSplit`] owns
    /// the batch; [`ShardSplit::into_shared`] hands each shard's slice
    /// to its worker.
    ///
    /// Steering follows [`crate::steer::BucketMap::shard_of_packet`]
    /// (stamped RSS hash → bucket → shard; with
    /// `BucketMap::identity(n)` that is `bucket % n`, see
    /// [`crate::flow::shard_of`]), with non-flow packets (ARP,
    /// malformed frames) following bucket 0. No packet is lost or
    /// duplicated, and relative order *within each shard* — and
    /// therefore within each flow, since a flow maps to exactly one
    /// shard — matches the input batch. Un-stamped packets are
    /// RSS-stamped as a side effect (one header parse, once per packet
    /// lifetime); a one-shard table skips even that.
    pub fn shard_split_with(mut self, map: &crate::steer::BucketMap) -> ShardSplit {
        let shards = map.shards();
        let n = self.packets.len();
        if shards == 1 {
            // Degenerate split: identity permutation, one shard.
            return ShardSplit {
                perm: (0..n as u32).collect(),
                offsets: vec![0, n as u32],
                batch: self,
            };
        }
        self.stamp_rss();
        let mut shard_of_pkt: Vec<u32> = Vec::with_capacity(n);
        let mut counts = vec![0u32; shards];
        for pkt in &self.packets {
            let s = map.shard_of_packet(pkt) as u32;
            shard_of_pkt.push(s);
            counts[s as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(shards + 1);
        let mut running = 0u32;
        offsets.push(0);
        for &c in &counts {
            running += c;
            offsets.push(running);
        }
        // Reuse `counts` as per-shard write cursors.
        let mut cursor = counts;
        cursor[..shards].copy_from_slice(&offsets[..shards]);
        let mut perm = vec![0u32; n];
        for (idx, &s) in shard_of_pkt.iter().enumerate() {
            perm[cursor[s as usize] as usize] = idx as u32;
            cursor[s as usize] += 1;
        }
        ShardSplit {
            batch: self,
            perm,
            offsets,
        }
    }
}

impl From<Vec<Packet>> for PacketBatch {
    fn from(packets: Vec<Packet>) -> Self {
        Self::from_packets(packets)
    }
}

impl FromIterator<Packet> for PacketBatch {
    fn from_iter<T: IntoIterator<Item = Packet>>(iter: T) -> Self {
        Self::from_packets(iter.into_iter().collect())
    }
}

impl IntoIterator for PacketBatch {
    type Item = Packet;
    type IntoIter = std::vec::IntoIter<Packet>;
    #[inline]
    fn into_iter(mut self) -> Self::IntoIter {
        std::mem::take(&mut self.packets).into_iter()
    }
}

impl<'a> IntoIterator for &'a PacketBatch {
    type Item = &'a Packet;
    type IntoIter = std::slice::Iter<'a, Packet>;
    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.packets.iter()
    }
}

impl fmt::Debug for PacketBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PacketBatch({} packets)", self.packets.len())
    }
}

/// An index-based shard steering of one batch (see
/// [`PacketBatch::shard_split_with`]).
///
/// Holds the steered batch **unmoved** plus a permutation (`perm`) and a
/// per-shard offset table: shard `s` owns the original packet indices
/// `perm[offsets[s]..offsets[s + 1]]`, in input order. Nothing is
/// copied or gathered until a consuming worker takes its
/// slice ([`Self::into_shared`]).
///
/// # Examples
///
/// ```
/// use netkit_packet::batch::PacketBatch;
/// use netkit_packet::packet::PacketBuilder;
/// use netkit_packet::steer::BucketMap;
///
/// let batch: PacketBatch = (0..8u16)
///     .map(|i| PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1000 + i, 80).build())
///     .collect();
/// let split = batch.shard_split_with(&BucketMap::identity(4));
/// assert_eq!(split.shards(), 4);
/// assert_eq!(split.len(), 8);
/// assert_eq!(split.batch().len(), 8); // still whole, original order
/// ```
pub struct ShardSplit {
    batch: PacketBatch,
    /// Original packet indices grouped by shard (stable within each
    /// shard).
    perm: Vec<u32>,
    /// `offsets[s]..offsets[s + 1]` slices `perm` for shard `s`;
    /// `offsets.len() == shards + 1`.
    offsets: Vec<u32>,
}

impl ShardSplit {
    /// Number of shards (always ≥ 1).
    pub fn shards(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of packets across all shards.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// True when the underlying batch holds no packets.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// The underlying batch (packets in their original order).
    pub fn batch(&self) -> &PacketBatch {
        &self.batch
    }

    /// Converts the split into a **shared** split: the parent batch
    /// stays whole behind one refcounted handle, and each shard's slice
    /// becomes a cheap [`SharedShardRange`] descriptor that can cross a
    /// thread boundary without moving a single packet. This is the
    /// move-free ring protocol's producer half: the per-shard gather is
    /// deferred to the consuming workers
    /// ([`SharedShardRange::take_into`]), which run it in parallel.
    /// The parent container — including a pool-homed one — recycles
    /// whole when the last range (or the [`SharedSplit`] handle) drops.
    #[inline]
    pub fn into_shared(self) -> SharedSplit {
        SharedSplit {
            inner: Arc::new(SharedSplitInner {
                parent: Mutex::new(self.batch),
                perm: self.perm,
                offsets: self.offsets,
            }),
        }
    }
}

impl fmt::Debug for ShardSplit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ShardSplit({} packets over {} shards)",
            self.len(),
            self.shards()
        )
    }
}

/// The refcounted interior of a [`SharedSplit`]: the steered parent
/// batch (original packet order, never moved) plus the counting-sort
/// view. Ranges lock the parent only for the brief moment they move
/// their own slots out; the slots of distinct shards are disjoint by
/// construction, so ranges never contend on data, only on the lock.
struct SharedSplitInner {
    parent: Mutex<PacketBatch>,
    /// Original packet indices grouped by shard (see [`ShardSplit`]).
    perm: Vec<u32>,
    /// `offsets[s]..offsets[s + 1]` slices `perm` for shard `s`.
    offsets: Vec<u32>,
}

impl SharedSplitInner {
    #[inline]
    fn bounds(&self, shard: usize) -> (usize, usize) {
        (
            self.offsets[shard] as usize,
            self.offsets[shard + 1] as usize,
        )
    }
}

/// A [`ShardSplit`] whose parent batch is shared behind a refcount, so
/// per-shard slices can be handed to shard queues as cheap
/// [`SharedShardRange`] descriptors instead of re-materialised owned
/// sub-batches (see [`ShardSplit::into_shared`]).
///
/// Lifecycle: the parent [`PacketBatch`] lives exactly as long as any
/// handle on it — this split or any range. Whoever drops the last
/// handle frees (or, for a pool-homed container, **recycles**) the
/// parent; packets a range never claimed (a rejected or dead-shard
/// range) are released with it, so no frame buffer leaks whatever the
/// consumers' fate.
///
/// # Examples
///
/// ```
/// use netkit_packet::batch::{BatchPool, PacketBatch};
/// use netkit_packet::packet::PacketBuilder;
/// use netkit_packet::steer::BucketMap;
///
/// let batch: PacketBatch = (0..8u16)
///     .map(|i| PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1000 + i, 80).build())
///     .collect();
/// let shared = batch.shard_split_with(&BucketMap::identity(2)).into_shared();
/// let (a, b) = (shared.range(0), shared.range(1));
/// drop(shared); // ranges keep the parent alive
/// let pool = BatchPool::new(8, 0);
/// let mut out = pool.take();
/// let taken = a.take_into(&mut out);
/// assert_eq!(taken + b.len(), 8);
/// ```
pub struct SharedSplit {
    inner: Arc<SharedSplitInner>,
}

impl SharedSplit {
    /// Number of shards (always ≥ 1).
    pub fn shards(&self) -> usize {
        self.inner.offsets.len() - 1
    }

    /// Total number of packets across all shards.
    pub fn len(&self) -> usize {
        self.inner.perm.len()
    }

    /// True when the parent batch holds no packets.
    pub fn is_empty(&self) -> bool {
        self.inner.perm.is_empty()
    }

    /// Number of packets steered to shard `s` (no lock taken — the
    /// view is immutable for the split's lifetime).
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.shards()`.
    #[inline]
    pub fn shard_len(&self, s: usize) -> usize {
        let (lo, hi) = self.inner.bounds(s);
        hi - lo
    }

    /// A refcounted descriptor of shard `s`'s slice — the unit the
    /// dispatch fan-out publishes to each shard's queue. Cloning cost is
    /// one `Arc` bump; no packet moves until the consumer calls
    /// [`SharedShardRange::take_into`].
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.shards()`.
    #[inline]
    pub fn range(&self, s: usize) -> SharedShardRange {
        assert!(s < self.shards(), "shard index out of range");
        SharedShardRange {
            inner: Arc::clone(&self.inner),
            shard: s,
        }
    }
}

impl fmt::Debug for SharedSplit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SharedSplit({} packets over {} shards)",
            self.len(),
            self.shards()
        )
    }
}

/// One shard's slice of a [`SharedSplit`]: a refcounted descriptor
/// naming the packets steered to this shard, safe to move across
/// threads without touching the packets themselves.
///
/// The consuming worker calls [`Self::take_into`] exactly once (the
/// call consumes the range) to move its slots out of the shared parent
/// into its own container. A range that is instead dropped — full ring,
/// dead worker — releases its claim: the packets stay in the parent and
/// are freed (pooled frame buffers recycled) when the parent's last
/// handle goes.
pub struct SharedShardRange {
    inner: Arc<SharedSplitInner>,
    shard: usize,
}

impl SharedShardRange {
    /// The shard index this range covers.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Number of packets in this range.
    #[inline]
    pub fn len(&self) -> usize {
        let (lo, hi) = self.inner.bounds(self.shard);
        hi - lo
    }

    /// True when no packet steered to this shard.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Moves this range's packets out of the shared parent onto the end
    /// of `out`, after whatever it already holds, preserving input
    /// order, and returns how many moved.
    /// This is the consumer half of the move-free ring protocol: the
    /// gather happens here, on the worker, in parallel with its
    /// siblings. The parent is locked only for the move itself; vacated
    /// slots are backfilled with empty placeholder packets
    /// (allocation-free), so the parent container still recycles whole
    /// once every handle is gone.
    #[inline]
    pub fn take_into(self, out: &mut PacketBatch) -> usize {
        let (lo, hi) = self.inner.bounds(self.shard);
        if lo == hi {
            return 0;
        }
        let mut parent = self.inner.parent.lock();
        let parent = &mut *parent;
        out.packets.reserve(hi - lo);
        for &idx in &self.inner.perm[lo..hi] {
            out.packets
                .push(std::mem::take(&mut parent.packets[idx as usize]));
        }
        hi - lo
    }
}

impl fmt::Debug for SharedShardRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SharedShardRange(shard {}, {} packets)",
            self.shard,
            self.len()
        )
    }
}

/// Pool counters for [`BatchPool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchPoolStats {
    /// Containers served from the free list.
    pub reused: u64,
    /// Containers freshly allocated because the free list was empty.
    pub allocated: u64,
    /// Containers returned to the free list on drop.
    pub recycled: u64,
    /// Containers discarded on drop (the backing storage had been moved
    /// out).
    pub discarded: u64,
}

struct BatchPoolInner {
    /// Packets to pre-reserve in a fresh container.
    capacity: usize,
    free: Mutex<Vec<Vec<Packet>>>,
    reused: AtomicU64,
    allocated: AtomicU64,
    recycled: AtomicU64,
    discarded: AtomicU64,
}

impl BatchPoolInner {
    fn recycle(&self, mut packets: Vec<Packet>) {
        // Dropping the packets here releases their (possibly pooled)
        // frame buffers before the container returns to the free list.
        packets.clear();
        // A container whose packet storage was moved out (e.g. by
        // `into_packets`) has nothing worth keeping; every other one is
        // kept.
        if packets.capacity() > 0 {
            self.free.lock().push(packets);
            self.recycled.fetch_add(1, Ordering::Relaxed);
        } else {
            self.discarded.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A free list of [`PacketBatch`] *containers* — the batch-granularity
/// companion to [`crate::pool::BufferPool`]'s frame slabs.
///
/// Batches taken from the pool return their backing vector here when
/// dropped (wherever that happens — typically at the far end of a
/// worker's run-to-completion pass), so a steady-state forwarding loop
/// performs no per-batch heap allocation: the same `Vec<Packet>`
/// shuttles rx → ring → graph → sink → rx again.
///
/// The pool keeps every container it allocated: its population is the
/// most containers ever in flight at once, so once a loop has met its
/// peak — for a software-dispatch round, every parent it publishes
/// before the workers drain them plus one gather per worker — it never
/// allocates again. (A cap on the free list below that peak re-allocated
/// the overflow on every round.)
///
/// # Examples
///
/// ```
/// use netkit_packet::batch::BatchPool;
/// use netkit_packet::packet::PacketBuilder;
///
/// let pool = BatchPool::new(32, 0);
/// let mut batch = pool.take();
/// batch.push(PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build());
/// drop(batch); // container recycled
/// let again = pool.take();
/// assert!(again.is_empty());
/// assert_eq!(pool.stats().reused, 1);
/// ```
#[derive(Clone)]
pub struct BatchPool {
    inner: Arc<BatchPoolInner>,
}

impl BatchPool {
    /// Creates a pool of batch containers pre-sized for `capacity`
    /// packets, preallocating `prealloc` containers.
    pub fn new(capacity: usize, prealloc: usize) -> Self {
        let free = (0..prealloc)
            .map(|_| Vec::with_capacity(capacity.max(1)))
            .collect();
        Self {
            inner: Arc::new(BatchPoolInner {
                capacity,
                free: Mutex::new(free),
                reused: AtomicU64::new(0),
                allocated: AtomicU64::new(0),
                recycled: AtomicU64::new(0),
                discarded: AtomicU64::new(0),
            }),
        }
    }

    /// Takes an empty batch container (recycled when available), homed
    /// to this pool.
    pub fn take(&self) -> PacketBatch {
        let recycled = self.inner.free.lock().pop();
        let mut packets = match recycled {
            Some(packets) => {
                self.inner.reused.fetch_add(1, Ordering::Relaxed);
                packets
            }
            None => {
                self.inner.allocated.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(self.inner.capacity)
            }
        };
        if packets.capacity() < self.inner.capacity {
            packets.reserve(self.inner.capacity);
        }
        PacketBatch {
            packets,
            home: Some(Arc::downgrade(&self.inner)),
        }
    }

    /// Containers currently on the free list.
    pub fn free_count(&self) -> usize {
        self.inner.free.lock().len()
    }

    /// Snapshot of pool counters.
    pub fn stats(&self) -> BatchPoolStats {
        BatchPoolStats {
            reused: self.inner.reused.load(Ordering::Relaxed),
            allocated: self.inner.allocated.load(Ordering::Relaxed),
            recycled: self.inner.recycled.load(Ordering::Relaxed),
            discarded: self.inner.discarded.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for BatchPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BatchPool(capacity {}, {} free, stats {:?})",
            self.inner.capacity,
            self.free_count(),
            self.stats()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;
    use crate::steer::BucketMap;

    fn pkt(sport: u16) -> Packet {
        PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", sport, 9).build()
    }

    fn ports(b: &PacketBatch) -> Vec<u16> {
        b.iter().map(|p| p.udp_v4().unwrap().src_port).collect()
    }

    /// Splits `b` over `shards` shards by the identity table.
    fn split(b: PacketBatch, shards: usize) -> ShardSplit {
        b.shard_split_with(&BucketMap::identity(shards))
    }

    /// Gathers every shard's range into its own batch, as the workers
    /// at the far end of the rings do.
    fn gather(split: ShardSplit) -> Vec<PacketBatch> {
        let shared = split.into_shared();
        (0..shared.shards())
            .map(|s| {
                let mut out = PacketBatch::new();
                shared.range(s).take_into(&mut out);
                out
            })
            .collect()
    }

    /// The re-materialising partition the split replaced, kept as the
    /// reference: per-packet `shard_of`, per-shard push.
    fn reference_partition(batch: PacketBatch, shards: usize) -> Vec<PacketBatch> {
        let mut out: Vec<PacketBatch> = (0..shards).map(|_| PacketBatch::new()).collect();
        for pkt in batch.into_packets() {
            out[crate::flow::shard_of(&pkt, shards)].push(pkt);
        }
        out
    }

    #[test]
    fn push_and_drain_preserve_order() {
        let mut b = PacketBatch::with_capacity(4);
        for p in [1u16, 2, 3] {
            b.push(pkt(p));
        }
        assert_eq!(b.len(), 3);
        let ports: Vec<u16> = b
            .into_packets()
            .iter()
            .map(|p| p.udp_v4().unwrap().src_port)
            .collect();
        assert_eq!(ports, [1, 2, 3]);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut b = PacketBatch::with_capacity(8);
        b.push(pkt(1));
        let cap = b.packets.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.packets.capacity(), cap);
    }

    #[test]
    fn shard_split_preserves_order() {
        use crate::flow::FlowKey;
        let mut b = PacketBatch::new();
        for p in 1u16..=8 {
            b.push(pkt(p));
        }
        let keys: Vec<FlowKey> = b.iter().map(|p| FlowKey::from_packet(p).unwrap()).collect();
        let parts = gather(split(b, 3));
        assert_eq!(parts.len(), 3);
        let mut seen = 0usize;
        for (shard, part) in parts.iter().enumerate() {
            let mut last_pos = 0usize;
            for p in part.iter() {
                let key = FlowKey::from_packet(p).unwrap();
                assert_eq!(key.shard_for(3), shard, "flow on its RSS shard");
                // Order within the shard matches the input batch order.
                let pos = keys.iter().position(|k| *k == key).unwrap();
                assert!(pos >= last_pos);
                last_pos = pos;
                seen += 1;
            }
        }
        assert_eq!(seen, 8, "no packet lost or duplicated");
    }

    #[test]
    fn partition_single_shard_is_identity() {
        let mut b = PacketBatch::new();
        b.push(pkt(1));
        b.push(pkt(2));
        let mut parts = gather(split(b, 1));
        assert_eq!(parts.len(), 1);
        let only = parts.pop().unwrap();
        assert_eq!(ports(&only), [1, 2]);
        assert_eq!(gather(split(PacketBatch::new(), 0)).len(), 1);
    }

    #[test]
    fn shard_split_with_identity_matches_plain_split() {
        // The identity table is static RSS: `hash % n`, flow by flow.
        use crate::flow::{shard_of, FlowKey};
        let parts = gather(split((1u16..=16).map(pkt).collect(), 4));
        assert_eq!(parts.iter().map(PacketBatch::len).sum::<usize>(), 16);
        for (s, part) in parts.iter().enumerate() {
            for p in part.iter() {
                assert_eq!(shard_of(p, 4), s);
                assert_eq!(FlowKey::from_packet(p).unwrap().shard_for(4), s);
            }
        }
    }

    #[test]
    fn shard_split_with_honours_moved_buckets() {
        use crate::flow::FlowKey;
        let mut b = PacketBatch::new();
        for p in 1u16..=16 {
            b.push(pkt(p));
        }
        // Migrate every bucket the batch's flows occupy onto shard 3.
        let mut map = BucketMap::identity(4);
        for p in b.iter() {
            map.set(FlowKey::from_packet(p).unwrap().bucket(), 3);
        }
        let shared = b.shard_split_with(&map).into_shared();
        assert_eq!(shared.shard_len(3), 16, "all flows follow their bucket");
        for s in 0..3 {
            assert!(shared.range(s).is_empty());
        }
        // Order within the shard matches input order.
        let mut out = PacketBatch::new();
        shared.range(3).take_into(&mut out);
        assert_eq!(ports(&out), (1..=16u16).collect::<Vec<_>>());
    }

    #[test]
    fn shard_split_stamps_rss_once() {
        use crate::flow::FlowKey;
        let mut b = PacketBatch::new();
        for p in 1u16..=4 {
            b.push(pkt(p));
        }
        assert!(b.packets()[0].meta.rss_hash.is_none());
        let split = split(b, 2);
        for p in split.batch().iter() {
            assert_eq!(
                p.meta.rss_hash,
                Some(FlowKey::from_packet(p).unwrap().rss_hash())
            );
        }
    }

    #[test]
    fn zero_and_one_shard_splits_are_equivalent() {
        for shards in [0usize, 1] {
            let mut b = PacketBatch::new();
            for p in 1u16..=3 {
                b.push(pkt(p));
            }
            let split = split(b, shards);
            assert_eq!(split.shards(), 1, "shards={shards}");
            assert_eq!(split.len(), 3);
            // Degenerate splits skip stamping: no parse on the 1-shard path.
            assert!(split.batch().packets()[0].meta.rss_hash.is_none());
            let batches = gather(split);
            assert_eq!(batches.len(), 1);
            assert_eq!(ports(&batches[0]), [1, 2, 3]);
        }
    }

    #[test]
    fn batch_pool_recycles_containers_wherever_dropped() {
        let pool = BatchPool::new(8, 0);
        let mut batch = pool.take();
        assert_eq!(pool.stats().allocated, 1);
        batch.push(pkt(1));
        // Simulate the cross-thread hand-off: container dropped elsewhere.
        let handle = std::thread::spawn(move || drop(batch));
        handle.join().unwrap();
        assert_eq!(pool.free_count(), 1);
        let again = pool.take();
        assert!(again.is_empty());
        let s = pool.stats();
        assert_eq!((s.reused, s.allocated, s.recycled), (1, 1, 1));
    }

    #[test]
    fn split_recycles_the_parent_container_too() {
        // Regression: a pool-homed batch that goes through a split and
        // comes back out must return its own backing vectors to the
        // pool (with capacity), not discard them — otherwise a
        // fill-split loop leaks one container per round.
        let pool = BatchPool::new(16, 0);
        for round in 0..3u64 {
            let mut parent = pool.take();
            for p in 1u16..=8 {
                parent.push(pkt(p));
            }
            let parent = split(parent, 2);
            assert_eq!(parent.batch().len(), 8);
            drop(parent);
            let s = pool.stats();
            assert_eq!(
                s.discarded, 0,
                "round {round}: parent must not be discarded"
            );
            assert_eq!(s.recycled, round + 1);
        }
        assert_eq!(pool.stats().allocated, 1, "steady state after round 0");
    }

    #[test]
    fn pool_gone_means_plain_drop() {
        let pool = BatchPool::new(4, 0);
        let batch = pool.take();
        drop(pool);
        drop(batch); // pool inner already gone; drop must not panic
    }

    #[test]
    fn drain_all_preserves_order_and_the_container() {
        let pool = BatchPool::new(8, 0);
        let mut batch = pool.take();
        for p in [1u16, 2, 3] {
            batch.push(pkt(p));
        }
        let ports: Vec<u16> = batch
            .drain_all()
            .map(|p| p.udp_v4().unwrap().src_port)
            .collect();
        assert_eq!(ports, [1, 2, 3]);
        assert!(batch.is_empty());
        drop(batch);
        let s = pool.stats();
        assert_eq!((s.recycled, s.discarded), (1, 0), "container kept whole");
    }

    #[test]
    fn moved_out_containers_are_discarded_not_recycled() {
        let pool = BatchPool::new(4, 0);
        let mut batch = pool.take();
        batch.push(pkt(1));
        let _pkts = batch.into_packets(); // storage moved out, container drops
        let s = pool.stats();
        assert_eq!((s.recycled, s.discarded), (0, 1));
        assert_eq!(pool.free_count(), 0);
    }

    #[test]
    fn pop_returns_last() {
        let mut b = PacketBatch::new();
        b.push(pkt(1));
        b.push(pkt(2));
        let last = b.pop().unwrap();
        assert_eq!(last.udp_v4().unwrap().src_port, 2);
        assert_eq!(b.len(), 1);
        b.push(pkt(3));
        assert_eq!(ports(&b), [1, 3]);
        assert!(PacketBatch::new().pop().is_none());
    }

    #[test]
    fn shared_ranges_agree_with_owned_partition() {
        let build = || -> PacketBatch { (1u16..=16).map(pkt).collect() };
        let owned = reference_partition(build(), 4);
        let shared = split(build(), 4).into_shared();
        assert_eq!(shared.shards(), 4);
        assert_eq!(shared.len(), 16);
        for (s, own) in owned.iter().enumerate() {
            let range = shared.range(s);
            assert_eq!(range.shard(), s);
            assert_eq!(range.len(), own.len());
            assert_eq!(shared.shard_len(s), own.len());
            let mut out = PacketBatch::new();
            assert_eq!(range.take_into(&mut out), own.len());
            for i in 0..out.len() {
                assert_eq!(out.packets()[i].data(), own.packets()[i].data());
            }
        }
    }

    #[test]
    fn shared_parent_recycles_when_last_range_drops() {
        let pool = BatchPool::new(16, 0);
        for round in 0..3u64 {
            let mut parent = pool.take();
            for p in 1u16..=8 {
                parent.push(pkt(p));
            }
            let shared = split(parent, 2).into_shared();
            let (a, b) = (shared.range(0), shared.range(1));
            drop(shared);
            // While any range lives, the parent container stays out.
            let mut out_a = pool.take();
            a.take_into(&mut out_a);
            drop(out_a);
            let before = pool.stats().recycled;
            let mut out_b = pool.take();
            b.take_into(&mut out_b);
            drop(out_b);
            let s = pool.stats();
            // Last range gone: parent + out_b both recycled, whole.
            assert_eq!(s.recycled, before + 2, "round {round}");
            assert_eq!(s.discarded, 0, "round {round}: nothing drops cold");
        }
        // Steady state: one parent + one gather container in flight at
        // a time (out_b reuses out_a's recycled container) — two
        // allocations ever, none after round 0.
        assert_eq!(pool.stats().allocated, 2);
    }

    #[test]
    fn dropped_range_releases_unclaimed_packets_with_the_parent() {
        let pool = BatchPool::new(16, 0);
        let mut parent = pool.take();
        for p in 1u16..=8 {
            parent.push(pkt(p));
        }
        let shared = split(parent, 2).into_shared();
        let taken_range = shared.range(0);
        let rejected = shared.range(1);
        let expect_left = rejected.len();
        drop(shared);
        let mut out = pool.take();
        let taken = taken_range.take_into(&mut out);
        assert_eq!(taken + expect_left, 8);
        // Shard 1's range is dropped un-taken (full ring / dead worker):
        // its packets die with the parent, the container still recycles.
        drop(rejected);
        let s = pool.stats();
        assert!(s.recycled >= 1, "{s:?}");
        assert_eq!(s.discarded, 0);
    }

    #[test]
    fn take_into_appends_after_what_the_container_holds() {
        let b: PacketBatch = [1, 3, 5].into_iter().map(pkt).collect();
        let shared = split(b, 1).into_shared();
        let mut out: PacketBatch = [8, 9].into_iter().map(pkt).collect();
        assert_eq!(shared.range(0).take_into(&mut out), 3);
        assert_eq!(ports(&out), [8, 9, 1, 3, 5]);
    }
}
