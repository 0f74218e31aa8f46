//! The per-shard flow table: bounded capacity, O(1) LRU, slab-backed,
//! indexed by a hash the caller already has.
//!
//! The table is built for the single-writer per-shard deployment: all
//! methods take `&mut self`, eviction is O(1) via an intrusive LRU
//! list, and **no allocation happens after construction** — the slab,
//! free list, and index are all sized for `capacity` up front, which
//! is what lets a million distinct flows stream through a bounded
//! table with zero steady-state allocation growth.
//!
//! # The index
//!
//! Lookups take the flow's precomputed 64-bit hash
//! ([`ParsedFlow::hash`](netkit_packet::flow::ParsedFlow::hash) ≡
//! [`FlowKey::rss_hash`], computed once by the rx parse) next to the
//! key, so a probe hashes nothing. The index is one open-addressed
//! `Vec<u64>`, a power of two of at least `2 × capacity` buckets
//! (load ≤ ½), each bucket `(tag << 32) | (slot + 1)` (zero: empty):
//! the hash's low bits pick the home bucket, its high 32 bits are the
//! tag, `slot` names the slab entry. A probe walks linearly from home, compares tags,
//! and only on a tag hit compares the full key in the slab. Deletion
//! shifts the rest of the cluster back one bucket (slots remember
//! their hash, so each follower's home is known), so there are no
//! tombstones and nothing ever needs rehashing.
//!
//! The hash is not keyed: a sender who crafts tuples that collide in
//! the low bits can lengthen one cluster (bounded by the table's
//! capacity; the tag still spares the key compares). The table trades
//! that for not hashing 40 bytes twice per packet per element.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use netkit_packet::flow::FlowKey;

/// Sentinel for "no slot" in the intrusive LRU list.
const NIL: u32 = u32::MAX;

/// A monotone logical clock for flow-table ticks.
///
/// [`advance`](Self::advance) folds a packet's stamped
/// `timestamp_ns` into the clock: the result is
/// `max(previous + 1, stamp)`, so time follows simulated timestamps
/// when present and still strictly advances (one tick per packet)
/// when every frame says zero. Elements share one clock per instance;
/// it is atomic only so `&self` element entry points can use it — the
/// per-shard deployment is single-writer like the table itself.
#[derive(Debug, Default)]
pub struct FlowClock(AtomicU64);

impl FlowClock {
    /// Creates a clock at tick zero.
    pub fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Advances past `stamp_ns` (or by one tick, whichever is later)
    /// and returns the new now.
    pub fn advance(&self, stamp_ns: u64) -> u64 {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = stamp_ns.max(cur.saturating_add(1));
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return next,
                Err(actual) => cur = actual,
            }
        }
    }

    /// The current tick.
    pub fn now(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An empty index bucket. Zero, so the index is allocated zeroed: the
/// allocator hands out untouched pages and construction writes none of
/// them.
const EMPTY: u64 = 0;

/// The index bucket for `slot` under `hash`: the tag in the high half,
/// `slot + 1` in the low half (never [`EMPTY`]).
fn bucket(hash: u64, slot: u32) -> u64 {
    (hash & !(u32::MAX as u64)) | (slot as u64 + 1)
}

/// The slot an occupied index bucket names.
fn slot_of(bucket: u64) -> u32 {
    bucket as u32 - 1
}

struct Slot<T> {
    key: FlowKey,
    /// The hash the entry was inserted under (its home bucket and tag).
    hash: u64,
    value: T,
    last_seen: u64,
    generation: u64,
    prev: u32,
    next: u32,
}

/// Counters describing a table's lifetime behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowTableStats {
    /// Entries created.
    pub insertions: u64,
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing (or only an idle-expired entry).
    pub misses: u64,
    /// Entries evicted because the table was full.
    pub lru_evictions: u64,
    /// Entries dropped because they exceeded the idle timeout.
    pub idle_evictions: u64,
}

/// The outcome of [`FlowTable::get_or_insert_with`].
#[derive(Debug)]
pub struct Admission<'a, T> {
    /// The (possibly just-created) entry value.
    pub value: &'a mut T,
    /// True if the entry was created by this call.
    pub created: bool,
    /// The table generation stamped on the entry at creation.
    pub generation: u64,
    /// The entry evicted to make room (LRU victim, or the idle-expired
    /// previous incarnation of the same key). Callers owning linked
    /// state — e.g. NAT's paired reverse entries — unlink it here.
    pub evicted: Option<(FlowKey, T)>,
}

/// A bounded per-flow state table with O(1) insert, lookup, and LRU
/// eviction.
///
/// Keys are expected to be
/// [canonical](netkit_packet::flow::FlowKey::canonical) so both
/// directions of a connection share one entry; the table itself does
/// not canonicalise (elements do, because they also need the
/// direction). Every keyed method takes the key's hash as well: any
/// function of the key will do as long as one key always comes with
/// one hash — elements pass the flow's
/// [`rss_hash`](netkit_packet::flow::FlowKey::rss_hash), which is the
/// same for both orientations and already computed by the rx parse.
///
/// # Single-writer contract
///
/// Every method takes `&mut self`. The canonical-tuple RSS hash pins
/// both directions of a flow to one shard, so in the sharded
/// dataplane exactly one worker ever touches a given table; elements
/// wrap the table in a mutex only to satisfy `&self` component entry
/// points, and that mutex is uncontended by construction.
///
/// # Memory
///
/// All storage — slot slab, free list, hash index — is allocated at
/// construction for `capacity` entries and never grows or shrinks:
/// [`footprint_bytes`](Self::footprint_bytes) is the constant
///
/// ```text
/// size_of::<Self>() + capacity × (size_of::<Option<Slot<T>>>() + 4) + buckets × 8
/// ```
///
/// where `buckets` is the next power of two at or above
/// `2 × capacity` (the index: 8 bytes a bucket, so 16–32 bytes per
/// entry of capacity). When the table is full, inserting evicts the
/// least-recently-used entry.
pub struct FlowTable<T> {
    /// Open-addressed index: [`EMPTY`] or [`bucket`]`(hash, slot)`.
    index: Vec<u64>,
    /// `index.len() - 1` (the length is a power of two).
    mask: usize,
    len: usize,
    slots: Vec<Option<Slot<T>>>,
    free: Vec<u32>,
    /// Most-recently-used slot.
    head: u32,
    /// Least-recently-used slot (the eviction victim).
    tail: u32,
    idle_timeout: u64,
    generation: u64,
    stats: FlowTableStats,
}

/// The largest capacity a [`FlowTable`] holds (slots are `u32`-indexed,
/// one index value is the empty marker); a larger request is clamped.
pub const MAX_FLOW_CAPACITY: usize = (u32::MAX - 1) as usize;

impl<T> FlowTable<T> {
    /// Creates a table bounded to `capacity` entries (clamped to
    /// `1..=`[`MAX_FLOW_CAPACITY`]) whose entries expire `idle_timeout`
    /// ticks after their last touch. `idle_timeout == u64::MAX`
    /// disables idle expiry.
    pub fn new(capacity: usize, idle_timeout: u64) -> Self {
        let capacity = capacity.clamp(1, MAX_FLOW_CAPACITY);
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || None);
        // Load ≤ ½: probes stay short and always meet an empty bucket.
        let buckets = (capacity * 2).next_power_of_two();
        Self {
            index: vec![EMPTY; buckets],
            mask: buckets - 1,
            len: 0,
            slots,
            free: (0..capacity as u32).rev().collect(),
            head: NIL,
            tail: NIL,
            idle_timeout,
            generation: 0,
            stats: FlowTableStats::default(),
        }
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no flows are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum entry count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The current table generation (see
    /// [`bump_generation`](Self::bump_generation)).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Advances the generation stamp. New entries are stamped with the
    /// current generation, so after a reconfiguration (e.g. a bucket
    /// migration landed flows on this shard) callers can distinguish
    /// entries created before and after the event.
    pub fn bump_generation(&mut self) -> u64 {
        self.generation += 1;
        self.generation
    }

    /// Lifetime counters.
    pub fn stats(&self) -> FlowTableStats {
        self.stats
    }

    /// The constant memory footprint in bytes (formula: see
    /// [the type docs](Self#memory)). Computed from the live
    /// capacities, so a reallocation — which nothing here can cause —
    /// would show up as growth.
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.slots.capacity() * std::mem::size_of::<Option<Slot<T>>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
            + self.index.capacity() * std::mem::size_of::<u64>()
    }

    /// Probes for `key`: its index bucket and slot, if present.
    fn find(&self, hash: u64, key: &FlowKey) -> Option<(usize, u32)> {
        let tag = hash >> 32;
        let mut pos = hash as usize & self.mask;
        loop {
            let b = self.index[pos];
            if b == EMPTY {
                return None;
            }
            let slot = slot_of(b);
            if b >> 32 == tag && self.slot(slot).key == *key {
                return Some((pos, slot));
            }
            pos = (pos + 1) & self.mask;
        }
    }

    /// Files `slot` under `hash` in the first empty bucket from home.
    fn index_insert(&mut self, hash: u64, slot: u32) {
        let mut pos = hash as usize & self.mask;
        while self.index[pos] != EMPTY {
            pos = (pos + 1) & self.mask;
        }
        self.index[pos] = bucket(hash, slot);
        self.len += 1;
    }

    /// Empties bucket `pos` and closes the gap: each follower in the
    /// cluster moves back if that keeps it at or after its home
    /// (backward-shift deletion — no tombstone is left behind).
    fn index_remove(&mut self, mut pos: usize) {
        let mut next = (pos + 1) & self.mask;
        loop {
            let b = self.index[next];
            if b == EMPTY {
                break;
            }
            let home = self.slot(slot_of(b)).hash as usize & self.mask;
            // Cyclic distances from the follower's home: it may move
            // into the gap only if the gap is not before its home.
            if (next.wrapping_sub(home) & self.mask) >= (next.wrapping_sub(pos) & self.mask) {
                self.index[pos] = b;
                pos = next;
            }
            next = (next + 1) & self.mask;
        }
        self.index[pos] = EMPTY;
        self.len -= 1;
    }

    fn slot(&self, idx: u32) -> &Slot<T> {
        self.slots[idx as usize].as_ref().expect("live slot")
    }

    fn slot_mut(&mut self, idx: u32) -> &mut Slot<T> {
        self.slots[idx as usize].as_mut().expect("live slot")
    }

    /// Detaches `idx` from the LRU list.
    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let s = self.slot(idx);
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slot_mut(prev).next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slot_mut(next).prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Prepends `idx` as the most-recently-used slot.
    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let s = self.slot_mut(idx);
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slot_mut(old_head).prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    fn touch(&mut self, idx: u32, now: u64) {
        self.unlink(idx);
        self.push_front(idx);
        self.slot_mut(idx).last_seen = now;
    }

    fn is_idle(&self, idx: u32, now: u64) -> bool {
        let last = self.slot(idx).last_seen;
        self.idle_timeout != u64::MAX && now.saturating_sub(last) > self.idle_timeout
    }

    /// Removes slot `idx`, returning its key and value.
    fn evict_slot(&mut self, idx: u32) -> (FlowKey, T) {
        let mut pos = self.slot(idx).hash as usize & self.mask;
        while slot_of(self.index[pos]) != idx {
            pos = (pos + 1) & self.mask;
        }
        self.evict_at(pos, idx)
    }

    /// Removes slot `idx`, known to be filed in index bucket `pos`.
    fn evict_at(&mut self, pos: usize, idx: u32) -> (FlowKey, T) {
        self.index_remove(pos);
        self.unlink(idx);
        let slot = self.slots[idx as usize].take().expect("live slot");
        self.free.push(idx);
        (slot.key, slot.value)
    }

    /// Looks up a live entry, refreshing its recency. An idle-expired
    /// entry is treated as absent (it stays in place until reclaimed
    /// by [`expire_idle`](Self::expire_idle) or LRU pressure).
    pub fn get_mut(&mut self, hash: u64, key: &FlowKey, now: u64) -> Option<&mut T> {
        let (_, idx) = self.find(hash, key)?;
        if self.is_idle(idx, now) {
            self.stats.misses += 1;
            return None;
        }
        self.touch(idx, now);
        self.stats.hits += 1;
        Some(&mut self.slot_mut(idx).value)
    }

    /// Looks up without touching recency or honouring the idle
    /// timeout — pure inspection.
    pub fn peek(&self, hash: u64, key: &FlowKey) -> Option<&T> {
        self.find(hash, key).map(|(_, idx)| &self.slot(idx).value)
    }

    /// The generation stamped on an entry at its creation.
    pub fn entry_generation(&self, hash: u64, key: &FlowKey) -> Option<u64> {
        self.find(hash, key)
            .map(|(_, idx)| self.slot(idx).generation)
    }

    /// Fetches the entry for `key`, creating it with `init` on a miss
    /// (or when the previous incarnation sat idle past the timeout).
    /// Eviction — LRU victim or the expired previous incarnation — is
    /// surfaced on the returned [`Admission`] so callers can unlink
    /// dependent state.
    pub fn get_or_insert_with(
        &mut self,
        hash: u64,
        key: FlowKey,
        now: u64,
        init: impl FnOnce() -> T,
    ) -> Admission<'_, T> {
        self.get_or_insert_preferring(hash, key, now, init, 0, |_, _| false)
    }

    /// [`get_or_insert_with`](Self::get_or_insert_with) with a say in
    /// who makes room: when the insert finds the table full, the
    /// victim is picked as by
    /// [`evict_where_bounded`](Self::evict_where_bounded)`(scan, prefer)`
    /// and only failing that is it the LRU tail. One probe serves the
    /// hit, the miss and the decision whether room is needed at all.
    pub fn get_or_insert_preferring(
        &mut self,
        hash: u64,
        key: FlowKey,
        now: u64,
        init: impl FnOnce() -> T,
        scan: usize,
        prefer: impl FnMut(&T, u64) -> bool,
    ) -> Admission<'_, T> {
        let generation = self.generation;
        let mut evicted = None;
        if let Some((pos, idx)) = self.find(hash, &key) {
            if self.is_idle(idx, now) {
                // Same key, stale state: replace, surfacing the corpse.
                self.stats.idle_evictions += 1;
                evicted = Some(self.evict_at(pos, idx));
            } else {
                self.touch(idx, now);
                self.stats.hits += 1;
                let generation = self.slot(idx).generation;
                return Admission {
                    value: &mut self.slot_mut(idx).value,
                    created: false,
                    generation,
                    evicted: None,
                };
            }
        }
        self.stats.misses += 1;
        if self.free.is_empty() {
            evicted = self.evict_where_bounded(scan, prefer);
            if evicted.is_none() {
                let victim = self.tail;
                debug_assert_ne!(victim, NIL, "full table has an LRU tail");
                self.stats.lru_evictions += 1;
                evicted = Some(self.evict_slot(victim));
            }
        }
        let idx = self.free.pop().expect("capacity >= 1");
        self.slots[idx as usize] = Some(Slot {
            key,
            hash,
            value: init(),
            last_seen: now,
            generation,
            prev: NIL,
            next: NIL,
        });
        self.index_insert(hash, idx);
        self.push_front(idx);
        self.stats.insertions += 1;
        Admission {
            value: &mut self.slot_mut(idx).value,
            created: true,
            generation,
            evicted,
        }
    }

    /// Removes an entry, returning its value.
    pub fn remove(&mut self, hash: u64, key: &FlowKey) -> Option<T> {
        let (pos, idx) = self.find(hash, key)?;
        Some(self.evict_at(pos, idx).1)
    }

    /// Reclaims every idle-expired entry (walking from the LRU end, so
    /// the scan stops at the first live entry) and returns the
    /// corpses, oldest first.
    pub fn expire_idle(&mut self, now: u64) -> Vec<(FlowKey, T)> {
        let mut out = Vec::new();
        if self.idle_timeout == u64::MAX {
            return out;
        }
        while self.tail != NIL && self.is_idle(self.tail, now) {
            self.stats.idle_evictions += 1;
            out.push(self.evict_slot(self.tail));
        }
        out
    }

    /// Sweeps every live entry through `pred` (value, last-seen tick),
    /// evicting the matches and returning the corpses oldest-first —
    /// the hook for timeout policies richer than the single idle
    /// timeout (per-state teardown timers, half-open expiry). Unlike
    /// [`expire_idle`](Self::expire_idle) this cannot stop at the
    /// first live entry (different states expire on different clocks),
    /// so it walks the whole LRU list; run it on a control cadence,
    /// not per packet. Evictions count as idle evictions.
    pub fn expire_matching(&mut self, mut pred: impl FnMut(&T, u64) -> bool) -> Vec<(FlowKey, T)> {
        let mut out = Vec::new();
        let mut idx = self.tail;
        while idx != NIL {
            let s = self.slot(idx);
            let prev = s.prev;
            if pred(&s.value, s.last_seen) {
                self.stats.idle_evictions += 1;
                out.push(self.evict_slot(idx));
            }
            idx = prev;
        }
        out
    }

    /// Walks up to `scan` entries from the LRU end and evicts the
    /// first one `pred` matches — bounded *preferential* eviction for
    /// full-table pressure: a caller that would rather sacrifice, say,
    /// a half-open handshake than an established connection checks
    /// here before letting plain LRU pick the victim. Returns the
    /// corpse, or `None` when nothing in the scanned window matched
    /// (the caller falls back to ordinary LRU). The eviction counts as
    /// an LRU eviction.
    pub fn evict_where_bounded(
        &mut self,
        scan: usize,
        mut pred: impl FnMut(&T, u64) -> bool,
    ) -> Option<(FlowKey, T)> {
        let mut idx = self.tail;
        let mut remaining = scan;
        while idx != NIL && remaining > 0 {
            let s = self.slot(idx);
            if pred(&s.value, s.last_seen) {
                self.stats.lru_evictions += 1;
                return Some(self.evict_slot(idx));
            }
            idx = s.prev;
            remaining -= 1;
        }
        None
    }
}

impl<T> fmt::Debug for FlowTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FlowTable({} of {} entries, gen {}, {:?})",
            self.len(),
            self.capacity(),
            self.generation,
            self.stats
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_packet::headers::proto;

    fn key(n: u16) -> FlowKey {
        FlowKey {
            src: "10.0.0.1".parse().unwrap(),
            dst: "10.9.9.9".parse().unwrap(),
            protocol: proto::UDP,
            src_port: n,
            dst_port: 53,
        }
    }

    #[test]
    fn insert_lookup_remove() {
        let mut t: FlowTable<u32> = FlowTable::new(4, u64::MAX);
        let a = t.get_or_insert_with(key(1).rss_hash(), key(1), 10, || 7);
        assert!(a.created);
        assert_eq!(*a.value, 7);
        assert_eq!(t.get_mut(key(1).rss_hash(), &key(1), 11).copied(), Some(7));
        *t.get_mut(key(1).rss_hash(), &key(1), 12).unwrap() = 8;
        assert_eq!(t.peek(key(1).rss_hash(), &key(1)).copied(), Some(8));
        assert_eq!(t.remove(key(1).rss_hash(), &key(1)), Some(8));
        assert!(t.is_empty());
        assert_eq!(t.remove(key(1).rss_hash(), &key(1)), None);
    }

    #[test]
    fn lru_eviction_is_oldest_first_and_surfaced() {
        let mut t: FlowTable<u32> = FlowTable::new(2, u64::MAX);
        t.get_or_insert_with(key(1).rss_hash(), key(1), 10, || 1);
        t.get_or_insert_with(key(2).rss_hash(), key(2), 20, || 2);
        // Touch key(1): key(2) becomes the LRU victim.
        t.get_mut(key(1).rss_hash(), &key(1), 30);
        let a = t.get_or_insert_with(key(3).rss_hash(), key(3), 40, || 3);
        assert_eq!(a.evicted, Some((key(2), 2)));
        assert_eq!(t.len(), 2);
        assert!(t.peek(key(1).rss_hash(), &key(1)).is_some());
        assert!(t.peek(key(3).rss_hash(), &key(3)).is_some());
        assert_eq!(t.stats().lru_evictions, 1);
    }

    #[test]
    fn idle_expiry_hides_then_reclaims() {
        let mut t: FlowTable<u32> = FlowTable::new(4, 100);
        t.get_or_insert_with(key(1).rss_hash(), key(1), 0, || 1);
        t.get_or_insert_with(key(2).rss_hash(), key(2), 90, || 2);
        // key(1) is idle at t=150; lookups treat it as gone…
        assert_eq!(t.get_mut(key(1).rss_hash(), &key(1), 150), None);
        assert_eq!(t.get_mut(key(2).rss_hash(), &key(2), 150).copied(), Some(2));
        // …an insert over it surfaces the corpse…
        let a = t.get_or_insert_with(key(1).rss_hash(), key(1), 150, || 10);
        assert!(a.created);
        assert_eq!(a.evicted, Some((key(1), 1)));
        // …and expire_idle sweeps the rest once they age out.
        let dead = t.expire_idle(400);
        assert_eq!(dead.len(), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn generation_stamps_entries_at_creation() {
        let mut t: FlowTable<u32> = FlowTable::new(4, u64::MAX);
        t.get_or_insert_with(key(1).rss_hash(), key(1), 0, || 1);
        assert_eq!(t.entry_generation(key(1).rss_hash(), &key(1)), Some(0));
        t.bump_generation();
        t.get_or_insert_with(key(2).rss_hash(), key(2), 1, || 2);
        assert_eq!(t.entry_generation(key(2).rss_hash(), &key(2)), Some(1));
        // An existing entry keeps its birth generation.
        let a = t.get_or_insert_with(key(1).rss_hash(), key(1), 2, || 99);
        assert!(!a.created);
        assert_eq!(a.generation, 0);
    }

    #[test]
    fn footprint_is_constant_under_churn() {
        let mut t: FlowTable<u64> = FlowTable::new(64, u64::MAX);
        let before = t.footprint_bytes();
        for n in 0..10_000u16 {
            t.get_or_insert_with(key(n).rss_hash(), key(n), n as u64, || n as u64);
        }
        assert_eq!(t.len(), 64);
        assert_eq!(t.footprint_bytes(), before);
        assert_eq!(t.stats().insertions, 10_000);
        assert_eq!(t.stats().lru_evictions, 10_000 - 64);
    }

    #[test]
    fn flow_clock_is_monotone_and_follows_stamps() {
        let clock = FlowClock::new();
        assert_eq!(clock.advance(0), 1);
        assert_eq!(clock.advance(0), 2);
        assert_eq!(clock.advance(1_000), 1_000);
        assert_eq!(clock.advance(500), 1_001);
        assert_eq!(clock.now(), 1_001);
    }
}
