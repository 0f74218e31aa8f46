//! Bucketized RSS steering: the indirection table between flow hashes
//! and shards.
//!
//! Hardware multi-queue NICs do not map `hash % queues` directly —
//! they reduce the RSS hash to a small **bucket** index and look the
//! bucket up in a reprogrammable *indirection table* (128–512 entries
//! on real silicon). That one level of indirection is what makes
//! load-aware steering possible at run time: moving a bucket's table
//! entry re-homes every flow in the bucket **without touching per-flow
//! state and without breaking flow affinity** — all packets of a flow
//! still hash to the same bucket, and the bucket still maps to exactly
//! one shard.
//!
//! This module is that table in software, shared by every steering
//! layer of the stack:
//!
//! * [`crate::flow::shard_of`] / [`crate::flow::FlowKey::shard_for`]
//!   reduce `rss_hash → bucket → bucket % shards` (the *identity* map);
//! * [`crate::batch::PacketBatch::shard_split_with`] steers a whole
//!   batch by an explicit [`BucketMap`];
//! * `netkit_kernel::nic::Nic` steers injected frames by its installed
//!   indirection table;
//! * `netkit_router::shard::ShardedPipeline` dispatches by the same
//!   table and its `rebalance` subsystem rewrites it under an epoch
//!   quiesce when [`BucketLoad`] meters report skew.
//!
//! The bucket count is fixed at [`RSS_BUCKETS`] = 256. Because every
//! practical shard count here (1, 2, 4, 8, …) divides 256, the identity
//! map is indistinguishable from the historical `hash % shards`
//! steering for power-of-two shard counts, and remains a pure function
//! of the tuple for all others.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::packet::Packet;

/// Number of RSS hash buckets — the granularity of rebalancing. Fixed
/// so the table fits in cache and maps/meters can be plain arrays.
pub const RSS_BUCKETS: usize = 256;

/// Reduces an RSS hash to its bucket index (`hash % RSS_BUCKETS`).
/// The finalised hash (see `FlowKey::rss_hash`) disperses its low bits,
/// so the reduction spreads flows evenly over the buckets.
#[inline]
pub fn bucket_of(hash: u64) -> usize {
    (hash % RSS_BUCKETS as u64) as usize
}

/// The bucket a packet steers by: its stamped
/// [`rss_hash`](crate::packet::PacketMeta::rss_hash) when present, else
/// one header parse (not stamped back — callers on the hot path stamp
/// at materialisation, see [`crate::flow::stamp_rss`]). Packets with no
/// flow identity (ARP, malformed frames) deterministically use
/// bucket 0, so non-flow traffic migrates with bucket 0's assignment.
#[inline]
pub fn bucket_of_packet(pkt: &Packet) -> usize {
    match crate::flow::steering_hash(pkt) {
        Some(h) => bucket_of(h),
        None => 0,
    }
}

/// A bucket → shard indirection table over [`RSS_BUCKETS`] buckets.
///
/// The table *is* the steering policy: every layer that spreads flows
/// (batch split, NIC queues, pipeline dispatch, sim demux) consults one
/// of these, so installing a new map at all layers inside one quiesce
/// epoch changes placement atomically. The **identity** map
/// (`bucket % shards`) reproduces static RSS steering; a rebalancer
/// produces non-identity maps to migrate load.
///
/// # Examples
///
/// ```
/// use netkit_packet::steer::{bucket_of, BucketMap, RSS_BUCKETS};
///
/// let mut map = BucketMap::identity(4);
/// assert_eq!(map.shards(), 4);
/// assert_eq!(map.shard_of_bucket(6), 6 % 4);
/// assert!(map.is_identity());
///
/// // Migrate one bucket to shard 3.
/// map.set(6, 3);
/// assert_eq!(map.shard_of_bucket(6), 3);
/// assert_eq!(map.moved_buckets(&BucketMap::identity(4)), vec![6]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct BucketMap {
    shards: usize,
    map: Vec<u16>,
}

impl BucketMap {
    /// The static-RSS map for `shards` shards: bucket `b` → `b % shards`.
    /// `shards` is clamped to ≥ 1 (0 shards ≡ 1 shard, as everywhere in
    /// the stack).
    pub fn identity(shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards,
            map: (0..RSS_BUCKETS).map(|b| (b % shards) as u16).collect(),
        }
    }

    /// Number of shards the table targets.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard assigned to `bucket` (indices reduce mod
    /// [`RSS_BUCKETS`]).
    #[inline]
    pub fn shard_of_bucket(&self, bucket: usize) -> usize {
        self.map[bucket % RSS_BUCKETS] as usize
    }

    /// The shard an RSS hash steers to: `bucket_of(hash)` looked up in
    /// the table.
    pub fn shard_of_hash(&self, hash: u64) -> usize {
        self.shard_of_bucket(bucket_of(hash))
    }

    /// The shard a packet steers to (see [`bucket_of_packet`] for the
    /// bucket rule, including the non-flow → bucket 0 case).
    #[inline]
    pub fn shard_of_packet(&self, pkt: &Packet) -> usize {
        self.shard_of_bucket(bucket_of_packet(pkt))
    }

    /// Reassigns `bucket` to `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shards()` — a table must never steer to
    /// a worker that does not exist.
    pub fn set(&mut self, bucket: usize, shard: usize) {
        assert!(
            shard < self.shards,
            "shard {shard} out of range for {} shards",
            self.shards
        );
        self.map[bucket % RSS_BUCKETS] = shard as u16;
    }

    /// Applies sparse bucket → shard pins (builder-style) — the
    /// lowering of a pipeline description's steering section onto a
    /// base table.
    ///
    /// # Panics
    ///
    /// Panics if a pin names a shard `>= self.shards()` (see
    /// [`Self::set`]).
    pub fn with_pins(mut self, pins: &[(usize, usize)]) -> Self {
        for &(bucket, shard) in pins {
            self.set(bucket, shard);
        }
        self
    }

    /// True when the table equals [`Self::identity`] for its shard
    /// count.
    pub fn is_identity(&self) -> bool {
        self.map
            .iter()
            .enumerate()
            .all(|(b, &s)| s as usize == b % self.shards)
    }

    /// Buckets whose assignment differs from `other`, in bucket order —
    /// the migration set of a table swap.
    pub fn moved_buckets(&self, other: &BucketMap) -> Vec<usize> {
        self.map
            .iter()
            .zip(&other.map)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(bucket, _)| bucket)
            .collect()
    }

    /// Folds per-bucket loads into per-shard loads under this table —
    /// the projection a rebalance policy optimises.
    ///
    /// # Panics
    ///
    /// Panics if `per_bucket` does not hold [`RSS_BUCKETS`] entries.
    pub fn per_shard_load(&self, per_bucket: &[u64]) -> Vec<u64> {
        assert_eq!(per_bucket.len(), RSS_BUCKETS, "one load per bucket");
        let mut out = vec![0u64; self.shards];
        for (bucket, &load) in per_bucket.iter().enumerate() {
            out[self.map[bucket] as usize] += load;
        }
        out
    }
}

impl fmt::Debug for BucketMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BucketMap({} buckets -> {} shards{})",
            RSS_BUCKETS,
            self.shards,
            if self.is_identity() { ", identity" } else { "" }
        )
    }
}

/// Per-bucket packet counters — the load meter a rebalance policy reads.
///
/// One relaxed atomic per bucket; recording is wait-free and safe from
/// any worker thread. The window is **peek-then-commit**:
/// [`Self::snapshot`] to peek, [`Self::decay`] to age,
/// [`Self::retire`] to subtract a judged snapshot. Evidence a policy
/// *declines* to act on is never discarded, only exponentially faded,
/// so a persistent skew keeps accumulating across polls.
///
/// The window-closing operations (`decay`, `retire`) are
/// **single-consumer**: exactly one control-plane thread may call them
/// (concurrent [`Self::record_hash`]-side traffic is always safe —
/// increments landing mid-operation are preserved in full).
///
/// # Examples
///
/// ```
/// use netkit_packet::steer::{bucket_of, BucketLoad};
///
/// let load = BucketLoad::new();
/// load.record_hash(7);
/// load.record_hash(7);
/// assert_eq!(load.snapshot()[bucket_of(7)], 2);
/// assert_eq!(load.total(), 2);
///
/// // Peek, judge, age — nothing is discarded.
/// let peeked = load.snapshot();
/// load.decay(0.5); // a declined decision fades the evidence...
/// assert_eq!(load.total(), 1);
/// load.retire(&peeked); // ...an applied one subtracts what it judged
/// assert_eq!(load.total(), 0);
/// ```
pub struct BucketLoad {
    counts: Vec<AtomicU64>,
}

impl BucketLoad {
    /// A zeroed meter.
    pub fn new() -> Self {
        Self {
            counts: (0..RSS_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Counts one packet in `hash`'s bucket.
    #[inline]
    pub fn record_hash(&self, hash: u64) {
        self.counts[bucket_of(hash)].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one packet in its bucket (stamped hash preferred; see
    /// [`bucket_of_packet`]).
    #[inline]
    pub fn record_packet(&self, pkt: &Packet) {
        self.counts[bucket_of_packet(pkt)].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts every packet of a batch.
    #[inline]
    pub fn record_batch(&self, batch: &crate::batch::PacketBatch) {
        for pkt in batch {
            self.record_packet(pkt);
        }
    }

    /// Copies the current per-bucket counts.
    pub fn snapshot(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Applies one exponential decay step: every bucket keeps an
    /// `alpha` fraction (clamped to `[0, 1]`) of its current count,
    /// rounding down — so with `alpha < 1` untouched evidence fades to
    /// zero over successive steps instead of being destroyed at once.
    ///
    /// Only the *observed* amount is shed: packets recorded by workers
    /// while the decay pass runs survive in full. Single-consumer (see
    /// the type docs); call it from the control plane after each
    /// judged-but-declined decision.
    pub fn decay(&self, alpha: f64) {
        let alpha = alpha.clamp(0.0, 1.0);
        for c in &self.counts {
            let cur = c.load(Ordering::Relaxed);
            let shed = cur - (cur as f64 * alpha) as u64;
            if shed > 0 {
                // Subtract-what-was-seen keeps concurrent increments.
                c.fetch_sub(shed, Ordering::Relaxed);
            }
        }
    }

    /// Subtracts a previously [`Self::snapshot`]-ed window from the
    /// meter (saturating per bucket) — the commit half of
    /// peek-then-commit: an applied migration retires exactly the
    /// evidence it was planned on, while packets recorded after the
    /// snapshot stay for the next decision.
    ///
    /// # Panics
    ///
    /// Panics if `window` does not hold [`RSS_BUCKETS`] entries.
    pub fn retire(&self, window: &[u64]) {
        assert_eq!(window.len(), RSS_BUCKETS, "one load per bucket");
        for (c, &judged) in self.counts.iter().zip(window) {
            if judged == 0 {
                continue;
            }
            let mut cur = c.load(Ordering::Relaxed);
            loop {
                let next = cur.saturating_sub(judged);
                match c.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        }
    }

    /// Sum over all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

impl Default for BucketLoad {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for BucketLoad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snap = self.snapshot();
        let busy = snap.iter().filter(|&&n| n > 0).count();
        write!(
            f,
            "BucketLoad({} of {} buckets active, {} packets)",
            busy,
            RSS_BUCKETS,
            snap.iter().sum::<u64>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowKey;
    use crate::packet::PacketBuilder;

    #[test]
    fn identity_map_matches_static_modulo_for_divisors_of_256() {
        for shards in [1usize, 2, 4, 8, 16] {
            let map = BucketMap::identity(shards);
            for hash in [0u64, 1, 255, 256, 1_000_003, u64::MAX] {
                assert_eq!(map.shard_of_hash(hash), (hash % shards as u64) as usize);
            }
        }
    }

    #[test]
    fn identity_clamps_zero_shards() {
        let map = BucketMap::identity(0);
        assert_eq!(map.shards(), 1);
        assert_eq!(map.shard_of_hash(12345), 0);
        assert!(map.is_identity());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_rejects_out_of_range_shard() {
        BucketMap::identity(2).set(0, 2);
    }

    #[test]
    fn moved_buckets_diff_is_exact() {
        let base = BucketMap::identity(4);
        let mut map = base.clone();
        map.set(10, 3);
        map.set(200, 1);
        assert_eq!(map.moved_buckets(&base), vec![10, 200]);
        assert!(!map.is_identity());
        assert_eq!(base.moved_buckets(&base), Vec::<usize>::new());
    }

    #[test]
    fn per_shard_load_folds_by_assignment() {
        let mut map = BucketMap::identity(2);
        map.set(1, 0); // bucket 1 would be shard 1 under identity
        let mut loads = vec![0u64; RSS_BUCKETS];
        loads[0] = 5;
        loads[1] = 7;
        loads[3] = 2; // identity: shard 1
        assert_eq!(map.per_shard_load(&loads), vec![12, 2]);
    }

    #[test]
    fn packet_bucket_prefers_stamp_and_parks_non_flow_on_zero() {
        let mut pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 9, 9).build();
        let key = FlowKey::from_packet(&pkt).unwrap();
        assert_eq!(bucket_of_packet(&pkt), bucket_of(key.rss_hash()));
        pkt.meta.rss_hash = Some(300);
        assert_eq!(bucket_of_packet(&pkt), 300 % RSS_BUCKETS);
        let arp = Packet::from_slice(&[0u8; 14]);
        assert_eq!(bucket_of_packet(&arp), 0);
        assert_eq!(BucketMap::identity(4).shard_of_packet(&arp), 0);
    }

    #[test]
    fn decay_fades_evidence_without_destroying_it() {
        let load = BucketLoad::new();
        for _ in 0..8 {
            load.record_hash(3);
        }
        load.record_hash(9);
        load.decay(0.5);
        assert_eq!(load.snapshot()[bucket_of(3)], 4, "half kept");
        assert_eq!(load.snapshot()[bucket_of(9)], 0, "floor: 1 -> 0");
        // Repeated decay converges to zero rather than lingering.
        load.decay(0.5);
        load.decay(0.5);
        load.decay(0.5);
        assert_eq!(load.total(), 0);
        // Degenerate alphas clamp.
        load.record_hash(3);
        load.decay(2.0); // keep everything
        assert_eq!(load.total(), 1);
        load.decay(-1.0); // shed everything
        assert_eq!(load.total(), 0);
    }

    #[test]
    fn retire_subtracts_the_judged_snapshot_only() {
        let load = BucketLoad::new();
        for _ in 0..6 {
            load.record_hash(5);
        }
        let judged = load.snapshot();
        // Traffic that lands after the snapshot...
        for _ in 0..4 {
            load.record_hash(5);
        }
        load.record_hash(11);
        // ...survives the retire of the judged window.
        load.retire(&judged);
        assert_eq!(load.snapshot()[bucket_of(5)], 4);
        assert_eq!(load.snapshot()[bucket_of(11)], 1);
        // Retiring more than is present saturates at zero.
        load.retire(&load.snapshot());
        load.retire(&judged);
        assert_eq!(load.total(), 0);
    }

    #[test]
    #[should_panic(expected = "one load per bucket")]
    fn retire_rejects_short_windows() {
        BucketLoad::new().retire(&[0u64; 4]);
    }

    #[test]
    fn load_meter_records_batches_and_drains() {
        let load = BucketLoad::new();
        let batch: crate::batch::PacketBatch = (0..8u16)
            .map(|i| PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1000 + i, 80).build())
            .collect();
        load.record_batch(&batch);
        assert_eq!(load.total(), 8);
        let window = load.snapshot();
        assert_eq!(window.iter().sum::<u64>(), 8);
        load.retire(&window);
        assert_eq!(load.total(), 0);
        assert!(format!("{load:?}").contains("0 packets"));
    }
}
