//! **E6 — forwarding throughput vs architecture** (paper §6's
//! positioning against Click and §5's "validate its performance and
//! flexibility").
//!
//! Series: packets/second through an N-element pipeline, N ∈ {3, 6, 12},
//! for three architectures over identical element semantics:
//!
//! * `monolithic` — one hand-coded function (lower bound, N-independent);
//! * `click` — statically compiled element graph, index dispatch,
//!   configuration but no reconfiguration;
//! * `netkit` — Router-CF components, receptacle dispatch, full
//!   run-time reconfigurability;
//! * `netkit_fused` — NETKIT with the head binding snapshot taken once
//!   (the vtable-bypass optimisation).
//!
//! Expected shape: monolithic ≤ click ≤ netkit per-packet cost, with the
//! netkit / click gap bounded (the price of reconfigurability) and
//! `netkit_fused` recovering most of it.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

use netkit_baselines::click::ClickRouter;
use netkit_baselines::monolithic::MonolithicForwarder;
use netkit_bench::{click_chain_config, netkit_chain, routing_table, test_packet};
use netkit_packet::batch::PacketBatch;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_forwarding");
    group.throughput(Throughput::Elements(1));
    let pkt = test_packet();

    // Monolithic: N-independent floor.
    let mono = MonolithicForwarder::new(routing_table(256, 4), 4, 1024);
    group.bench_function("monolithic", |b| {
        b.iter_batched(
            || pkt.clone(),
            |p| {
                let port = mono.forward(p).unwrap();
                mono.drain(port);
            },
            BatchSize::SmallInput,
        )
    });

    for n in [3usize, 6, 12] {
        // Click chain.
        let click = ClickRouter::compile(&click_chain_config(n)).expect("compiles");
        group.bench_with_input(BenchmarkId::new("click", n), &n, |b, _| {
            b.iter_batched(
                || pkt.clone(),
                |p| click.push("c0", p),
                BatchSize::SmallInput,
            )
        });

        // NETKIT chain (reconfigurable path).
        let rig = netkit_chain(n).expect("rig");
        group.bench_with_input(BenchmarkId::new("netkit", n), &n, |b, _| {
            b.iter_batched(
                || pkt.clone(),
                |p| rig.entry.push(p).unwrap(),
                BatchSize::SmallInput,
            )
        });

        // NETKIT with the entry resolved once (fused head).
        let rig = netkit_chain(n).expect("rig");
        let fused = rig.entry.clone();
        group.bench_with_input(BenchmarkId::new("netkit_fused", n), &n, |b, _| {
            b.iter_batched(
                || pkt.clone(),
                |p| fused.push(p).unwrap(),
                BatchSize::SmallInput,
            )
        });
    }

    group.finish();
}

/// The batch-size series: per-packet cost of moving bursts of B packets
/// through a fixed 6-element pipeline for every architecture, B ∈
/// {1, 8, 32, 256}. Tracks the scalar-vs-batch gap the batch-first API
/// redesign exists to close — netkit pays one interceptor-chain
/// traversal and one receptacle lock per *batch*, so its per-packet cost
/// should fall towards the click/monolithic floor as B grows.
fn bench_batch(c: &mut Criterion) {
    const CHAIN: usize = 6;
    let mut group = c.benchmark_group("e6_forwarding_batch");
    let pkt = test_packet();

    for batch_size in [1usize, 8, 32, 256] {
        group.throughput(Throughput::Elements(batch_size as u64));
        let burst = || -> Vec<_> { vec![pkt.clone(); batch_size] };

        // Monolithic floor: forward_batch amortizes its stats lock.
        let mono = MonolithicForwarder::new(routing_table(256, 4), 4, usize::MAX >> 1);
        group.bench_with_input(
            BenchmarkId::new("monolithic", batch_size),
            &batch_size,
            |b, _| {
                b.iter_batched(
                    burst,
                    |pkts| {
                        for r in mono.forward_batch(pkts) {
                            mono.drain(r.unwrap());
                        }
                    },
                    BatchSize::SmallInput,
                )
            },
        );

        // Click: entry resolved once per burst, index dispatch inside.
        let click = ClickRouter::compile(&click_chain_config(CHAIN)).expect("compiles");
        group.bench_with_input(
            BenchmarkId::new("click", batch_size),
            &batch_size,
            |b, _| {
                b.iter_batched(
                    burst,
                    |pkts| click.push_batch("c0", pkts),
                    BatchSize::SmallInput,
                )
            },
        );

        // NETKIT scalar: one receptacle traversal per packet (the cost
        // the batch path amortizes; B repeated scalar pushes).
        let rig = netkit_chain(CHAIN).expect("rig");
        group.bench_with_input(
            BenchmarkId::new("netkit_scalar", batch_size),
            &batch_size,
            |b, _| {
                b.iter_batched(
                    burst,
                    |pkts| {
                        for p in pkts {
                            rig.entry.push(p).unwrap();
                        }
                    },
                    BatchSize::SmallInput,
                )
            },
        );

        // NETKIT batch: one traversal per burst.
        let rig = netkit_chain(CHAIN).expect("rig");
        group.bench_with_input(
            BenchmarkId::new("netkit", batch_size),
            &batch_size,
            |b, _| {
                b.iter_batched(
                    || PacketBatch::from_packets(burst()),
                    |batch| {
                        assert!(rig.entry.push_batch(batch).all_ok());
                    },
                    BatchSize::SmallInput,
                )
            },
        );

        // NETKIT batch through a fused (snapshot) head binding.
        let rig = netkit_chain(CHAIN).expect("rig");
        let fused = rig.entry.clone();
        group.bench_with_input(
            BenchmarkId::new("netkit_fused", batch_size),
            &batch_size,
            |b, _| {
                b.iter_batched(
                    || PacketBatch::from_packets(burst()),
                    |batch| {
                        assert!(fused.push_batch(batch).all_ok());
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench, bench_batch);
criterion_main!(benches);
