//! **E12 — the stateful flow subsystem** (ROADMAP "stateful flow
//! subsystem"): what per-flow state costs on the per-packet path, and
//! what the sketch-informed control loop costs per turn.
//!
//! Series:
//!
//! * `flow_table/*` — the shared substrate: canonical-key lookups on a
//!   warm table (`lookup_hit`, the steady-state cost every stateful
//!   element pays per packet — the hash comes precomputed, as it does
//!   from the packet's flow record) and inserts against a full table
//!   (`insert_evict`: LRU unlink + reuse, the churn worst case);
//! * `conntrack/*` — 32-packet batches through `ConnTracker`:
//!   `batch_established` (one warm flow, pure table hits) vs
//!   `batch_new_flows` (every batch all-miss: admission + eviction);
//! * `nat44/batch_outbound` — 32-packet batches through `Nat44` over
//!   established bindings: two header rewrites + incremental checksum
//!   patches per packet on top of the table hit;
//! * `lb/batch_sticky` — 32-packet batches through `L4LoadBalancer`
//!   with warm sticky entries (rendezvous hash only on first packet);
//! * `sketch/record_batch` — per-shard byte metering of a 32-packet
//!   stamped batch (4 count-min rows + top-k per packet, the
//!   worker-side cost of heavy-hitter evidence);
//! * `sketch/merge_4_shards` — control-plane merge of four shards'
//!   top-32 lists, the per-turn evidence roll-up;
//! * `control/turn_with_evidence` — a full judged control turn at 4
//!   workers with `heavy_blend` on: sketch snapshots, merge, blended
//!   judgment, decay (compare E11 `control_turn_hold` for the
//!   packet-only floor).
//!
//! Run with `NETKIT_BENCH_JSON=BENCH_flow.json cargo bench --bench
//! flow` to emit the machine-readable series report alongside the
//! printed lines (see `crates/bench/NOTES.md`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use netkit_bench::{netkit_sharded_chain, test_packet, test_packet_sized};
use netkit_kernel::shard::ShardSpec;
use netkit_packet::batch::PacketBatch;
use netkit_packet::flow::FlowKey;
use netkit_packet::packet::{Packet, PacketBuilder};
use netkit_packet::sketch::{FlowSketch, SketchConfig, SpaceSaving};
use netkit_router::api::IPacketPush;
use netkit_router::flow::{ConnTracker, FlowTable, L4LoadBalancer, Nat44, Nat44Config};
use netkit_router::shard::{RebalanceController, RebalancePolicy};

const BATCH: usize = 32;

fn flow_packet(src_port: u16, dst_port: u16) -> Packet {
    PacketBuilder::udp_v4("192.0.2.1", "10.0.7.9", src_port, dst_port)
        .payload_len(64)
        .build()
}

/// A batch of `BATCH` packets from one established flow.
fn one_flow_batch() -> PacketBatch {
    (0..BATCH).map(|_| test_packet()).collect()
}

/// A batch of `BATCH` packets, each a distinct flow drawn from `round`.
fn fresh_flows_batch(round: u16) -> PacketBatch {
    (0..BATCH as u16)
        .map(|i| flow_packet(1 + round, 1000 + i))
        .collect()
}

fn bench_flow_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_flow_table");
    group.throughput(Throughput::Elements(1));

    // Steady state: a warm 4096-entry table, hits only.
    let mut table: FlowTable<u64> = FlowTable::new(4096, u64::MAX);
    let keys: Vec<(u64, FlowKey)> = (0..4096u16)
        .map(|i| {
            let key = FlowKey::from_packet(&flow_packet(i / 256 + 1, i % 256 + 1))
                .unwrap()
                .canonical();
            (key.rss_hash(), key)
        })
        .collect();
    for (now, (hash, key)) in keys.iter().enumerate() {
        *table
            .get_or_insert_with(*hash, *key, now as u64, || 0)
            .value += 1;
    }
    let mut now = keys.len() as u64;
    let mut cursor = 0usize;
    let warmup_misses = table.stats().misses;
    group.bench_function("lookup_hit", |b| {
        b.iter(|| {
            cursor = (cursor + 1) % keys.len();
            now += 1;
            let (hash, key) = &keys[cursor];
            criterion::black_box(table.get_mut(*hash, key, now).is_some())
        })
    });
    assert_eq!(
        table.stats().misses,
        warmup_misses,
        "warm table must only hit"
    );

    // Churn worst case: every insert against a full table evicts the
    // LRU entry (distinct key per call, far outside the warm set).
    let mut salt = 0u32;
    group.bench_function("insert_evict", |b| {
        b.iter(|| {
            salt = salt.wrapping_add(1);
            now += 1;
            let key = FlowKey::from_packet(&flow_packet(
                (salt >> 16) as u16 | 0x4000,
                salt as u16 | 0x4000,
            ))
            .unwrap()
            .canonical();
            let admission = table.get_or_insert_with(key.rss_hash(), key, now, || 0);
            criterion::black_box(admission.evicted.is_some())
        })
    });
    assert_eq!(table.len(), table.capacity(), "stays full under churn");
    assert!(table.stats().lru_evictions > 0);

    group.finish();
}

fn bench_elements(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_stateful_elements");
    group.throughput(Throughput::Elements(BATCH as u64));

    // ConnTracker, steady state: one established flow, all hits.
    let tracker = ConnTracker::new();
    tracker.push_batch(one_flow_batch());
    group.bench_function("conntrack_batch_established", |b| {
        b.iter_batched(
            one_flow_batch,
            |batch| criterion::black_box(tracker.push_batch(batch)),
            BatchSize::SmallInput,
        )
    });
    assert_eq!(tracker.len(), 1, "one flow, however many batches");

    // ConnTracker, churn: every batch is 32 brand-new flows against a
    // deliberately small table, so each packet pays admission + LRU
    // eviction.
    let churn = ConnTracker::with_table(64, u64::MAX);
    churn.push_batch(fresh_flows_batch(60_000)); // fill to capacity...
    churn.push_batch(fresh_flows_batch(60_001)); // ...so every round evicts
    let mut round = 0u16;
    group.bench_function("conntrack_batch_new_flows", |b| {
        b.iter_batched(
            || {
                round = round.wrapping_add(1);
                fresh_flows_batch(round)
            },
            |batch| criterion::black_box(churn.push_batch(batch)),
            BatchSize::SmallInput,
        )
    });
    assert!(churn.table_stats().lru_evictions > 0);

    // Nat44, steady state: 32 established bindings, two rewrites +
    // checksum patches per packet.
    let nat = Nat44::new(Nat44Config::default());
    nat.push_batch(fresh_flows_batch(0));
    group.bench_function("nat44_batch_outbound", |b| {
        b.iter_batched(
            || fresh_flows_batch(0),
            |batch| criterion::black_box(nat.push_batch(batch)),
            BatchSize::SmallInput,
        )
    });
    assert_eq!(nat.stats().exhausted, 0);
    assert_eq!(nat.bindings(), BATCH);

    // L4 load balancer, steady state: warm sticky entries to 4
    // backends behind one VIP.
    let lb = L4LoadBalancer::new("10.0.7.9".parse().unwrap(), 5001, 4096, u64::MAX);
    for i in 0..4u8 {
        lb.add_backend(format!("10.1.0.{}", i + 1).parse().unwrap(), 8080);
    }
    let vip_batch = || -> PacketBatch {
        (0..BATCH as u16)
            .map(|i| flow_packet(1000 + i, 5001))
            .collect()
    };
    lb.push_batch(vip_batch());
    group.bench_function("lb_batch_sticky", |b| {
        b.iter_batched(
            vip_batch,
            |batch| criterion::black_box(lb.push_batch(batch)),
            BatchSize::SmallInput,
        )
    });
    assert!(
        lb.backends().iter().map(|s| s.flows).sum::<u64>() >= BATCH as u64,
        "every flow pinned to a backend"
    );

    group.finish();
}

fn bench_sketch(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_flow_sketch");

    // Worker-side metering: one stamped 32-packet batch, bytes per
    // flow into 4 count-min rows + the top-k monitor.
    let sketch = FlowSketch::new(SketchConfig::default());
    let stamped: PacketBatch = (0..BATCH as u64)
        .map(|i| {
            let mut p = test_packet_sized(if i % 8 == 0 { 1200 } else { 64 });
            p.meta.rss_hash = Some(i % 12);
            p
        })
        .collect();
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("record_batch", |b| {
        b.iter(|| sketch.record_batch(criterion::black_box(&stamped)))
    });
    assert!(sketch.total_bytes() > 0);

    // Control-plane roll-up: merge four shards' top-32 lists.
    let shard_tops: Vec<Vec<netkit_packet::sketch::HeavyHitter>> = (0..4)
        .map(|shard| {
            let s = FlowSketch::new(SketchConfig::default());
            for flow in 0..48u64 {
                s.record(flow * 4 + shard, 64 + flow * 91);
            }
            s.heavy_hitters()
        })
        .collect();
    group.throughput(Throughput::Elements(1));
    group.bench_function("merge_4_shards", |b| {
        b.iter(|| {
            criterion::black_box(SpaceSaving::merge(
                SketchConfig::default().top_capacity,
                &shard_tops,
            ))
        })
    });

    group.finish();
}

fn bench_control_with_evidence(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_heavy_control");

    // A judged control turn with heavy_blend on: per-shard sketch
    // snapshots, the merge, the blended plan, the decay. Balanced
    // traffic so every turn is a Hold (decay = 1.0 keeps the window
    // judged across calibration turns, as in E11).
    let workers = 4;
    let (pipe, _sinks) = netkit_sharded_chain(12, ShardSpec::new(workers)).expect("rig");
    let mut ctl = RebalanceController::new(
        RebalancePolicy {
            max_imbalance: 1.25,
            min_samples: 64,
            pressure_weight: 1.0,
            decay: 1.0,
            heavy_blend: 0.5,
        },
        0,
    );
    let balanced_burst = |n: u64| -> PacketBatch {
        (0..n)
            .map(|i| {
                let mut p = test_packet();
                p.meta.rss_hash = Some(i % workers as u64);
                p
            })
            .collect()
    };
    group.bench_function("turn_with_evidence", |b| {
        b.iter_batched(
            || {
                pipe.dispatch(balanced_burst(256));
                pipe.flush();
            },
            |()| criterion::black_box(pipe.control_turn(&mut ctl, &[])),
            BatchSize::SmallInput,
        )
    });
    assert_eq!(ctl.migrations(), 0, "balance must hold");
    assert!(ctl.holds() > 0);
    pipe.shutdown();

    group.finish();
}

criterion_group!(
    benches,
    bench_flow_table,
    bench_elements,
    bench_sketch,
    bench_control_with_evidence
);
criterion_main!(benches);
