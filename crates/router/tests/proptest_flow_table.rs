//! Model-based test of the hash-indexed [`FlowTable`]: random operation
//! sequences against a `HashMap` + `VecDeque` LRU model must produce
//! identical results, evictees, LRU order and counters, with a
//! footprint that never moves — under hashes that **collide on
//! purpose**.
//!
//! The table trusts the caller's hash, so the test hands it adversarial
//! ones: a 24-key universe over a 16-bucket index (capacity 8) where
//! hashes are drawn from a handful of home buckets (mostly the last two
//! and the first two, so clusters wrap the end of the index) and a
//! handful of tags — distinct keys routinely share a home, a tag, or
//! the whole 64-bit hash, and every removal lands in the middle of
//! somebody's cluster.

use std::collections::{HashMap, VecDeque};

use netkit_packet::flow::FlowKey;
use netkit_router::flow::{FlowTable, FlowTableStats};
use proptest::prelude::*;

const CAPACITY: usize = 8;
const KEYS: usize = 24;
const IDLE: u64 = 40;

fn key(id: usize) -> FlowKey {
    FlowKey {
        src: "10.0.0.1".parse().unwrap(),
        dst: "10.9.9.9".parse().unwrap(),
        protocol: 17,
        src_port: 1000 + id as u16,
        dst_port: 53,
    }
}

#[derive(Clone, Debug)]
enum Op {
    GetMut(usize),
    Insert(usize),
    /// Insert preferring a victim whose value is a multiple of `.2`
    /// among the `.1` least recently used.
    InsertPreferring(usize, usize, u32),
    Remove(usize),
    ExpireIdle,
    /// Expire everything whose value is a multiple of the divisor.
    ExpireMatching(u32),
    EvictWhereBounded(usize, u32),
    BumpGeneration,
    /// Let time pass.
    Wait(u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..KEYS).prop_map(Op::GetMut),
        8 => (0..KEYS).prop_map(Op::Insert),
        4 => (0..KEYS, 0usize..6, 2u32..5).prop_map(|(k, scan, d)| Op::InsertPreferring(k, scan, d)),
        4 => (0..KEYS).prop_map(Op::Remove),
        1 => Just(Op::ExpireIdle),
        1 => (2u32..6).prop_map(Op::ExpireMatching),
        2 => (0usize..6, 2u32..5).prop_map(|(scan, d)| Op::EvictWhereBounded(scan, d)),
        1 => Just(Op::BumpGeneration),
        2 => (1u64..60).prop_map(Op::Wait),
    ]
}

/// One hash per key id: home bucket and tag each from a small pool.
fn hashes() -> impl Strategy<Value = Vec<u64>> {
    let home = prop_oneof![3 => Just(15u64), 3 => Just(14u64), 2 => Just(0u64), 2 => Just(1u64), 1 => 0u64..16];
    // Bits 4..32 do not take part in a 16-bucket index or in the tag:
    // vary them so "same home, same tag" is not always "same hash".
    let noise = prop_oneof![2 => Just(0u64), 1 => 0u64..4];
    let tag = prop_oneof![4 => Just(7u64), 2 => Just(8u64), 1 => any::<u32>().prop_map(u64::from)];
    proptest::collection::vec(
        (home, noise, tag).prop_map(|(home, noise, tag)| (tag << 32) | (noise << 4) | home),
        KEYS,
    )
}

struct ModelEntry {
    value: u32,
    last_seen: u64,
    generation: u64,
}

/// The reference: a map for the entries, a deque for recency (front =
/// most recent).
#[derive(Default)]
struct Model {
    entries: HashMap<usize, ModelEntry>,
    lru: VecDeque<usize>,
    generation: u64,
    stats: FlowTableStats,
}

impl Model {
    fn idle(&self, id: usize, now: u64) -> bool {
        now.saturating_sub(self.entries[&id].last_seen) > IDLE
    }

    fn take(&mut self, id: usize) -> (FlowKey, u32) {
        self.lru.retain(|&k| k != id);
        (key(id), self.entries.remove(&id).expect("present").value)
    }

    fn touch(&mut self, id: usize, now: u64) {
        self.lru.retain(|&k| k != id);
        self.lru.push_front(id);
        self.entries.get_mut(&id).expect("present").last_seen = now;
    }

    fn get_mut(&mut self, id: usize, now: u64) -> Option<u32> {
        if !self.entries.contains_key(&id) {
            return None;
        }
        if self.idle(id, now) {
            self.stats.misses += 1;
            return None;
        }
        self.touch(id, now);
        self.stats.hits += 1;
        Some(self.entries[&id].value)
    }

    fn evict_where_bounded(&mut self, scan: usize, divisor: u32) -> Option<(FlowKey, u32)> {
        let victim = self
            .lru
            .iter()
            .rev()
            .take(scan)
            .copied()
            .find(|id| self.entries[id].value.is_multiple_of(divisor))?;
        self.stats.lru_evictions += 1;
        Some(self.take(victim))
    }

    /// `(value, created, generation, evicted)`.
    fn insert(
        &mut self,
        id: usize,
        now: u64,
        init: u32,
        prefer: Option<(usize, u32)>,
    ) -> (u32, bool, u64, Option<(FlowKey, u32)>) {
        let mut evicted = None;
        if self.entries.contains_key(&id) {
            if self.idle(id, now) {
                self.stats.idle_evictions += 1;
                evicted = Some(self.take(id));
            } else {
                self.touch(id, now);
                self.stats.hits += 1;
                let e = &self.entries[&id];
                return (e.value, false, e.generation, None);
            }
        }
        self.stats.misses += 1;
        if self.entries.len() == CAPACITY {
            evicted = prefer.and_then(|(scan, d)| self.evict_where_bounded(scan, d));
            if evicted.is_none() {
                self.stats.lru_evictions += 1;
                let tail = *self.lru.back().expect("full table has a tail");
                evicted = Some(self.take(tail));
            }
        }
        self.entries.insert(
            id,
            ModelEntry {
                value: init,
                last_seen: now,
                generation: self.generation,
            },
        );
        self.lru.push_front(id);
        self.stats.insertions += 1;
        (init, true, self.generation, evicted)
    }

    fn expire_idle(&mut self, now: u64) -> Vec<(FlowKey, u32)> {
        let mut out = Vec::new();
        while let Some(&tail) = self.lru.back() {
            if !self.idle(tail, now) {
                break;
            }
            self.stats.idle_evictions += 1;
            out.push(self.take(tail));
        }
        out
    }

    fn expire_matching(&mut self, divisor: u32) -> Vec<(FlowKey, u32)> {
        let doomed: Vec<usize> = self
            .lru
            .iter()
            .rev()
            .copied()
            .filter(|id| self.entries[id].value.is_multiple_of(divisor))
            .collect();
        self.stats.idle_evictions += doomed.len() as u64;
        doomed.into_iter().map(|id| self.take(id)).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn table_matches_the_map_and_deque_model_under_colliding_hashes(
        hashes in hashes(),
        ops in proptest::collection::vec(op(), 1..200),
    ) {
        let mut table: FlowTable<u32> = FlowTable::new(CAPACITY, IDLE);
        let mut model = Model::default();
        let footprint = table.footprint_bytes();
        let mut now = 0u64;
        let mut next_value = 0u32;
        for op in ops {
            now += 1;
            match op {
                Op::GetMut(id) => {
                    let got = table.get_mut(hashes[id], &key(id), now).copied();
                    prop_assert_eq!(got, model.get_mut(id, now));
                }
                Op::Insert(id) | Op::InsertPreferring(id, _, _) => {
                    next_value += 1;
                    let init = next_value;
                    let prefer = match op {
                        Op::InsertPreferring(_, scan, d) => Some((scan, d)),
                        _ => None,
                    };
                    let adm = match prefer {
                        None => table.get_or_insert_with(hashes[id], key(id), now, || init),
                        Some((scan, d)) => table.get_or_insert_preferring(
                            hashes[id], key(id), now, || init, scan, |v, _| v.is_multiple_of(d),
                        ),
                    };
                    let got = (*adm.value, adm.created, adm.generation, adm.evicted);
                    prop_assert_eq!(got, model.insert(id, now, init, prefer));
                }
                Op::Remove(id) => {
                    let expect = model.entries.contains_key(&id).then(|| model.take(id).1);
                    prop_assert_eq!(table.remove(hashes[id], &key(id)), expect);
                }
                Op::ExpireIdle => {
                    prop_assert_eq!(table.expire_idle(now), model.expire_idle(now));
                }
                Op::ExpireMatching(d) => {
                    prop_assert_eq!(
                        table.expire_matching(|v, _| v.is_multiple_of(d)),
                        model.expire_matching(d)
                    );
                }
                Op::EvictWhereBounded(scan, d) => {
                    prop_assert_eq!(
                        table.evict_where_bounded(scan, |v, _| v.is_multiple_of(d)),
                        model.evict_where_bounded(scan, d)
                    );
                }
                Op::BumpGeneration => {
                    model.generation += 1;
                    prop_assert_eq!(table.bump_generation(), model.generation);
                }
                Op::Wait(ticks) => now += ticks,
            }
            // After every step: same population, same values, same
            // birth generations, same counters, same bytes.
            prop_assert_eq!(table.len(), model.entries.len());
            for (id, &hash) in hashes.iter().enumerate() {
                let e = model.entries.get(&id);
                prop_assert_eq!(table.peek(hash, &key(id)).copied(), e.map(|e| e.value));
                prop_assert_eq!(
                    table.entry_generation(hash, &key(id)),
                    e.map(|e| e.generation)
                );
            }
            prop_assert_eq!(table.stats(), model.stats);
            prop_assert_eq!(table.footprint_bytes(), footprint);
        }
        // The LRU order itself: drain both from the cold end.
        let mut order = Vec::new();
        while let Some((k, _)) = table.evict_where_bounded(1, |_, _| true) {
            order.push(k);
        }
        let expect: Vec<FlowKey> = model.lru.iter().rev().map(|&id| key(id)).collect();
        prop_assert_eq!(order, expect);
        prop_assert!(table.is_empty());
    }
}

#[test]
fn deleting_mid_cluster_keeps_a_wrapped_cluster_reachable() {
    // Five keys, one home — the index's last bucket — so the cluster
    // occupies buckets 15, 0, 1, 2, 3. Removing the second and then the
    // first must shift the rest back across the wrap; every survivor
    // stays findable and a re-insert reuses the freed buckets.
    let mut t: FlowTable<u32> = FlowTable::new(CAPACITY, u64::MAX);
    let hash = (7u64 << 32) | 15;
    for id in 0..5 {
        t.get_or_insert_with(hash, key(id), id as u64, || id as u32);
    }
    assert_eq!(t.remove(hash, &key(1)), Some(1));
    assert_eq!(t.remove(hash, &key(0)), Some(0));
    for id in 2..5 {
        assert_eq!(t.peek(hash, &key(id)).copied(), Some(id as u32));
    }
    assert_eq!(t.peek(hash, &key(0)), None);
    assert!(t.get_or_insert_with(hash, key(0), 9, || 10).created);
    assert_eq!(t.len(), 4);
    // A key that shares the home but has another tag is a different
    // probe outcome from one that shares both.
    assert_eq!(
        t.peek((8u64 << 32) | 15, &key(2)),
        None,
        "found by hash+key only"
    );
}
