//! Property tests for the flow sketches: the count-min `(ε, δ)`
//! estimate bound and Space-Saving's deterministic top-k guarantees,
//! checked against exact per-flow truth over arbitrary workloads.
//!
//! Count-min (Cormode & Muthukrishnan): estimates never under-count,
//! and with `width = ⌈e/ε⌉`, `depth = ⌈ln(1/δ)⌉` each query over-counts
//! by more than `ε·N` with probability at most `δ`. The second half is
//! probabilistic, so it is asserted as a *violation budget* over the
//! distinct keys (`max(1, ⌈2·δ·distinct⌉)` — twice the expectation)
//! rather than per query.
//!
//! Space-Saving (Metwally et al.) is deterministic, so its guarantees
//! are asserted exactly: for total weight `N` and capacity `k`, every
//! flow with true weight `> N/k` is monitored; every reported counter
//! satisfies `true ≤ weight ≤ true + error` with `error ≤ N/k`; and
//! the cross-shard merge is order-independent.
//!
//! The flat-array Space-Saving is also held to an oracle: the `HashMap`
//! algorithm it replaced (kept below as [`Reference`]) must agree on
//! `top()` and `total()` after every operation of any interleaving of
//! records, decays and retires, and `FlowSketch::record_batch` must
//! leave exactly the state per-packet recording leaves.

use std::collections::HashMap;

use proptest::prelude::*;

use netkit_packet::batch::PacketBatch;
use netkit_packet::flow::stamp_rss;
use netkit_packet::packet::{Packet, PacketBuilder};
use netkit_packet::sketch::{CountMinSketch, FlowSketch, HeavyHitter, SketchConfig, SpaceSaving};

/// `(key index, weight)` — indices into a small universe so flows
/// repeat, weights spread over three orders of magnitude.
fn ops_strategy(universe: usize, len: usize) -> impl Strategy<Value = Vec<(usize, u64)>> {
    proptest::collection::vec((0..universe, 1u64..=1000), 1..len)
}

/// Spread indices over the hash space — adjacent integers would share
/// high bits and understate collision behaviour.
fn key(i: usize) -> u64 {
    (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn truth(ops: &[(usize, u64)]) -> HashMap<u64, u64> {
    let mut t = HashMap::new();
    for &(i, w) in ops {
        *t.entry(key(i)).or_insert(0) += w;
    }
    t
}

/// The Space-Saving algorithm as it stood before the flat array: a
/// `HashMap` of `hash → (weight, error)`, the minimum found by
/// `min_by_key` over `(weight, hash)` and replaced by remove + insert.
struct Reference {
    capacity: usize,
    total: u64,
    map: HashMap<u64, (u64, u64)>,
}

impl Reference {
    fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            total: 0,
            map: HashMap::new(),
        }
    }

    fn record(&mut self, hash: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        self.total += weight;
        if let Some(c) = self.map.get_mut(&hash) {
            c.0 += weight;
            return;
        }
        if self.map.len() < self.capacity {
            self.map.insert(hash, (weight, 0));
            return;
        }
        let (&victim, &(min, _)) = self
            .map
            .iter()
            .min_by_key(|(k, c)| (c.0, **k))
            .expect("capacity >= 1");
        self.map.remove(&victim);
        self.map.insert(hash, (min + weight, min));
    }

    fn top(&self) -> Vec<HeavyHitter> {
        let mut out: Vec<HeavyHitter> = self
            .map
            .iter()
            .map(|(&hash, &(weight, error))| HeavyHitter {
                hash,
                error,
                weight,
            })
            .collect();
        out.sort_by_key(|h| (std::cmp::Reverse(h.weight), h.hash));
        out
    }

    fn decay(&mut self, alpha: f64) {
        self.map.retain(|_, c| {
            c.0 = (c.0 as f64 * alpha) as u64;
            c.1 = (c.1 as f64 * alpha) as u64;
            c.0 > 0
        });
        self.total = (self.total as f64 * alpha) as u64;
    }

    fn retire(&mut self, window: &[HeavyHitter]) {
        let mut retired = 0;
        for judged in window {
            if let Some(c) = self.map.get_mut(&judged.hash) {
                let sub = judged.weight.min(c.0);
                retired += sub;
                c.0 -= sub;
                c.1 = c.1.saturating_sub(judged.error);
                if c.0 == 0 {
                    self.map.remove(&judged.hash);
                }
            }
        }
        self.total = self.total.saturating_sub(retired);
    }
}

/// One step of an interleaving: record `(key index, weight)`, decay by
/// `alpha`, peek a window, or retire the last window peeked.
#[derive(Clone, Debug)]
enum Op {
    Record(usize, u64),
    Decay(f64),
    Peek,
    Retire,
}

/// Mostly records, with weights 1–4 so that equal counters — and with
/// them the takeover's tie-break — are common.
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        24 => (0usize..200, 1u64..=4).prop_map(|(i, w)| Op::Record(i, w)),
        1 => prop_oneof![Just(0.0), Just(0.5), Just(0.75), Just(1.0)].prop_map(Op::Decay),
        1 => Just(Op::Peek),
        1 => Just(Op::Retire),
    ]
}

/// A frame of flow `flow` with `payload` bytes, stamped at rx or not
/// (the sketch then parses), or — for `flow == 0` — no flow at all.
fn frame(flow: u16, payload: usize, stamped: bool) -> Packet {
    if flow == 0 {
        return Packet::from_slice(&[0u8; 14]);
    }
    let mut pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", flow, 80)
        .payload_len(payload)
        .build();
    if stamped {
        stamp_rss(&mut pkt);
    }
    pkt
}

proptest! {
    #[test]
    fn count_min_estimates_hold_the_epsilon_delta_bound(
        ops in ops_strategy(300, 400),
    ) {
        let sketch = CountMinSketch::with_error(0.01, 0.01);
        for &(i, w) in &ops {
            sketch.record(key(i), w);
        }
        let truth = truth(&ops);
        let n: u64 = truth.values().sum();
        prop_assert_eq!(sketch.total(), n, "total is exact, not estimated");

        // Hard half: never an under-count, for every key.
        for (&k, &t) in &truth {
            prop_assert!(
                sketch.estimate(k) >= t,
                "under-count: key {k} true {t} estimated {}",
                sketch.estimate(k)
            );
        }

        // Probabilistic half: over-counts past ε·N are δ-rare. Budget
        // twice the expected violation count, floor 1.
        let slack = (sketch.epsilon() * n as f64).ceil() as u64;
        let violations = truth
            .iter()
            .filter(|(&k, &t)| sketch.estimate(k) > t + slack)
            .count();
        let budget = ((2.0 * sketch.delta() * truth.len() as f64).ceil() as usize).max(1);
        prop_assert!(
            violations <= budget,
            "{violations} of {} keys exceed true + ε·N (budget {budget})",
            truth.len()
        );
    }

    #[test]
    fn space_saving_monitors_every_hitter_within_its_error_bound(
        ops in ops_strategy(64, 300),
        capacity in 4usize..=32,
    ) {
        let ss = SpaceSaving::new(capacity);
        for &(i, w) in &ops {
            ss.record(key(i), w);
        }
        let truth = truth(&ops);
        let n: u64 = truth.values().sum();
        prop_assert_eq!(ss.total(), n);

        let top = ss.top();
        prop_assert!(top.len() <= capacity);
        let reported: HashMap<u64, HeavyHitter> =
            top.iter().map(|h| (h.hash, *h)).collect();

        // Containment: every flow heavier than N/k is monitored.
        for (&k, &t) in &truth {
            if t > ss.threshold() {
                prop_assert!(
                    reported.contains_key(&k),
                    "flow {k} (true {t} > threshold {}) not monitored",
                    ss.threshold()
                );
            }
        }

        // Every reported counter brackets its truth:
        // true ≤ weight ≤ true + error, with error ≤ N/k.
        for h in &top {
            let t = truth.get(&h.hash).copied().unwrap_or(0);
            prop_assert!(h.weight >= t, "under-count on {}", h.hash);
            prop_assert!(
                h.weight <= t + h.error,
                "flow {}: weight {} exceeds true {t} + error {}",
                h.hash, h.weight, h.error
            );
            prop_assert!(h.error <= n / capacity as u64);
        }

        // Heaviest-first with deterministic tie-break.
        for pair in top.windows(2) {
            prop_assert!(
                (pair[0].weight, pair[1].hash) > (pair[1].weight, pair[0].hash)
                    || pair[0].weight > pair[1].weight
            );
        }
    }

    #[test]
    fn merge_is_order_independent(
        shards in proptest::collection::vec(ops_strategy(48, 120), 2..5),
        capacity in 4usize..=32,
    ) {
        let tops: Vec<Vec<HeavyHitter>> = shards
            .iter()
            .map(|ops| {
                let ss = SpaceSaving::new(capacity);
                for &(i, w) in ops {
                    ss.record(key(i), w);
                }
                ss.top()
            })
            .collect();
        let forward = SpaceSaving::merge(capacity, &tops);
        let reversed: Vec<Vec<HeavyHitter>> = tops.iter().rev().cloned().collect();
        prop_assert_eq!(
            &forward,
            &SpaceSaving::merge(capacity, &reversed),
            "merge must not depend on shard order"
        );
        prop_assert!(forward.len() <= capacity);
        // Per-hash weights add across shards.
        for h in &forward {
            let summed: u64 = tops
                .iter()
                .flatten()
                .filter(|e| e.hash == h.hash)
                .map(|e| e.weight)
                .sum();
            prop_assert_eq!(h.weight, summed);
        }
    }

    #[test]
    fn flat_space_saving_matches_the_hash_map_oracle(
        capacity in 1usize..=40,
        universe in 8usize..200,
        ops in proptest::collection::vec(op_strategy(), 1..600),
    ) {
        let ss = SpaceSaving::new(capacity);
        let mut oracle = Reference::new(capacity);
        let mut window = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Record(i, w) => {
                    ss.record(key(i % universe), w);
                    oracle.record(key(i % universe), w);
                }
                Op::Decay(alpha) => {
                    ss.decay(alpha);
                    oracle.decay(alpha);
                }
                Op::Peek => window = ss.top(),
                Op::Retire => {
                    ss.retire(&window);
                    oracle.retire(&window);
                }
            }
            prop_assert_eq!(ss.top(), oracle.top(), "step {}: {:?}", step, op);
            prop_assert_eq!(ss.total(), oracle.total, "step {}: {:?}", step, op);
        }
    }

    #[test]
    fn record_batch_equals_recording_each_packet(
        top_capacity in 1usize..=40,
        batches in proptest::collection::vec(
            proptest::collection::vec((0u16..48, 0usize..200, any::<bool>()), 0..64),
            1..12,
        ),
    ) {
        let config = SketchConfig { width: 64, depth: 2, top_capacity };
        let (batched, scalar) = (FlowSketch::new(config), FlowSketch::new(config));
        for frames in &batches {
            let batch: PacketBatch = frames
                .iter()
                .map(|&(flow, payload, stamped)| frame(flow, payload, stamped))
                .collect();
            batched.record_batch(&batch);
            for pkt in &batch {
                scalar.record_packet(pkt);
            }
            let (b, s) = (batched.snapshot(), scalar.snapshot());
            prop_assert_eq!(b.cells, s.cells);
            prop_assert_eq!(b.top, s.top);
            prop_assert_eq!(batched.total_bytes(), scalar.total_bytes());
        }
    }
}
