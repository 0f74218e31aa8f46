//! **E15 — city-scale scenario engine throughput** (see
//! `crates/bench/NOTES.md`).
//!
//! Three series price the deterministic simulation stack from the
//! inside out:
//!
//! * `solo_hop` — the raw cost of one packet-hop through a
//!   [`ShardedPipeline`] on caller slots hosting the full
//!   stateful chain (conntrack → heavy-hitter guard → collector): RSS
//!   split, sketch metering, per-shard graph execution. This is
//!   the per-hop floor every simulated node pays; its inverse is the
//!   engine's ideal packet-hops/second on this host.
//! * `small_city` — one complete seeded dozen-node city
//!   ([`CityConfig::small`]): topology build, three traffic phases,
//!   autonomous per-node control loops, books closed. The end-to-end
//!   cost of the default test lane.
//! * `mid_city` — a 60-node city with the same phase structure, the
//!   shape between the default lane and the thousand-node CI soak.
//!   Wall-clock here extrapolates linearly in executed packet-hops to
//!   the full soak.
//!
//! Run with `NETKIT_BENCH_JSON=<abs path>/BENCH_city.json cargo bench
//! --bench city` for the machine-readable report. `meta/cpus` matters
//! more than usual: the whole engine is single-threaded by design
//! (determinism over parallelism), so these numbers do not improve
//! with cores — see the NOTES methodology for the 1-CPU caveats.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use netkit_kernel::shard::ShardSpec;
use netkit_packet::batch::PacketBatch;
use netkit_packet::packet::{Packet, PacketBuilder};
use netkit_router::api::{IPacketPush, IPACKET_PUSH};
use netkit_router::flow::{ConnTracker, Guard, GuardConfig};
use netkit_router::shard::{fresh_sketches, ShardGraph, ShardedPipeline};
use netkit_sim::pipeline::{EgressCollector, PipelineNode};
use netkit_sim::scenario::{run_city, CityConfig};
use opencom::meta::resources::ResourceManager;
use parking_lot::Mutex;

const BATCH: usize = 32;
const BATCHES_PER_ITER: usize = 64;

fn flow_packet(flow: u64) -> Packet {
    PacketBuilder::udp_v4("192.0.2.7", "10.0.3.1", 4000 + (flow % 512) as u16, 80)
        .payload_len(64)
        .build()
}

/// A two-shard caller-run pipeline with the city node's stateful chain.
fn solo_chain() -> (ShardedPipeline, Vec<Arc<EgressCollector>>) {
    let rm = Arc::new(ResourceManager::new());
    let spec = ShardSpec::inline(2);
    let sketches = fresh_sketches(spec);
    let egress = Arc::new(Mutex::new(Vec::new()));
    let pipe = {
        let egress = Arc::clone(&egress);
        let guard_sketches = sketches.clone();
        ShardedPipeline::build_with_sketches("e15-solo", spec, rm, sketches, move |shard| {
            let (capsule, _rt) = PipelineNode::shard_capsule();
            let tracker = ConnTracker::new();
            let guard = Guard::with_tracker(
                Arc::clone(&guard_sketches[shard]),
                tracker.clone(),
                GuardConfig::default(),
            );
            let collector = EgressCollector::new();
            let gid = capsule.adopt(guard.clone())?;
            let cid = capsule.adopt(collector.clone())?;
            capsule.bind_simple(gid, "out", cid, IPACKET_PUSH)?;
            egress.lock().push(collector);
            let entry: Arc<dyn IPacketPush> = guard;
            Ok(ShardGraph::new(capsule, entry))
        })
        .expect("inline pipeline builds")
    };
    let egress = egress.lock().clone();
    (pipe, egress)
}

fn bench_solo_hop(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_city");
    group.throughput(Throughput::Elements((BATCH * BATCHES_PER_ITER) as u64));
    group.measurement_time(std::time::Duration::from_secs(1));

    let (pipe, egress) = solo_chain();
    let bursts: Vec<Vec<Packet>> = (0..BATCHES_PER_ITER)
        .map(|b| {
            (0..BATCH)
                .map(|i| flow_packet((b * BATCH + i) as u64))
                .collect()
        })
        .collect();
    group.bench_function("solo_hop", |b| {
        b.iter_batched(
            || {
                for e in &egress {
                    e.drain();
                }
                bursts
                    .iter()
                    .map(|pkts| PacketBatch::from_packets(pkts.clone()))
                    .collect::<Vec<_>>()
            },
            |batches| {
                for batch in batches {
                    criterion::black_box(pipe.dispatch(batch));
                }
            },
            BatchSize::SmallInput,
        )
    });
    assert!(pipe.stats().packets > 0, "the chain really executed");
    group.finish();
}

fn bench_cities(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_city");
    group.measurement_time(std::time::Duration::from_secs(2));

    group.bench_function("small_city", |b| {
        b.iter(|| criterion::black_box(run_city(&CityConfig::small(0xE15))))
    });

    let mut mid = CityConfig::small(0xE15);
    mid.nodes = 60;
    mid.source_stride = 2;
    mid.mice_fan = 128;
    group.bench_function("mid_city", |b| {
        b.iter(|| criterion::black_box(run_city(&mid)))
    });
    group.finish();
}

criterion_group!(benches, bench_solo_hop, bench_cities);
criterion_main!(benches);
