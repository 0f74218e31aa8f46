//! **E11 — autonomous control-loop turns** (`e11_autonomous_rebalance`)
//! prices what the reflective loop costs *per tick* when it runs with
//! no external caller, one series per decision outcome (each at 2/4/8
//! workers):
//!
//! * `control_turn_gathering` — idle dataplane, sub-min window: the
//!   floor every backed-off tick pays (snapshot + gate);
//! * `control_turn_hold` — judged-but-declined balanced window,
//!   including the weighted plan and the decay pass over all 256
//!   bucket meters (the steady-state no-op tick on a busy, balanced
//!   dataplane);
//! * `control_cycle_migrate` — the full detect+adapt cycle: re-seed a
//!   colocated 256-packet window, weighted decide, epoch-quiesced
//!   install, window retire. The bare install epoch is priced by the
//!   ledger (`migrate_us_p50` / `router.shard.migrate_us_p95`);
//!   subtract it and the dispatch floor for the decide-only share.
//!
//! What rebalancing *recovers* — the most-loaded shard's share of an
//! elephant-skewed stream — is a structural claim, asserted by
//! `tests/rebalance_elephant.rs`.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use netkit_bench::{netkit_sharded_chain, test_packet};
use netkit_kernel::shard::ShardSpec;
use netkit_packet::batch::PacketBatch;
use netkit_router::shard::{RebalanceController, RebalancePolicy};

const CHAIN: usize = 12;

fn controller(min_samples: u64, decay: f64) -> RebalanceController {
    RebalanceController::new(
        RebalancePolicy {
            max_imbalance: 1.25,
            min_samples,
            pressure_weight: 1.0,
            decay,
            heavy_blend: 0.0,
        },
        0,
    )
}

/// A burst fully colocated on shard 0 under the identity table at
/// `workers` shards: elephant bucket 0 (50%) plus six congruent mice.
fn colocated_burst(workers: usize, n: usize) -> PacketBatch {
    (0..n as u64)
        .map(|i| {
            let mut p = test_packet();
            p.meta.rss_hash = Some(if i % 2 == 0 {
                0
            } else {
                (workers as u64) * (1 + i % 6)
            });
            p
        })
        .collect()
}

/// A burst spread evenly: one bucket per shard, equal counts.
fn balanced_burst(workers: usize, n: usize) -> PacketBatch {
    (0..n as u64)
        .map(|i| {
            let mut p = test_packet();
            p.meta.rss_hash = Some(i % workers as u64);
            p
        })
        .collect()
}

fn bench_autonomous(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_autonomous_rebalance");

    for workers in [2usize, 4, 8] {
        let spec = ShardSpec::new(workers);

        // Gathering: the idle-dataplane tick floor (empty window).
        let (pipe, _sinks) = netkit_sharded_chain(CHAIN, spec).expect("rig");
        let mut ctl = controller(64, 0.75);
        group.bench_with_input(
            BenchmarkId::new("control_turn_gathering", workers),
            &workers,
            |b, _| {
                b.iter(|| criterion::black_box(pipe.control_turn(&mut ctl, &[])));
            },
        );
        assert_eq!(ctl.migrations(), 0, "an empty window must never act");
        pipe.shutdown();

        // Hold: judged balanced window, weighted plan + decay pass per
        // tick. decay = 1.0 keeps the window judged across however
        // many calibration turns the harness batches (the pass over
        // all 256 meters is still executed).
        let (pipe, _sinks) = netkit_sharded_chain(CHAIN, spec).expect("rig");
        let mut ctl = controller(64, 1.0);
        group.bench_with_input(
            BenchmarkId::new("control_turn_hold", workers),
            &workers,
            |b, _| {
                b.iter_batched(
                    || {
                        pipe.dispatch(balanced_burst(workers, 256));
                        pipe.flush();
                    },
                    |()| criterion::black_box(pipe.control_turn(&mut ctl, &[])),
                    BatchSize::SmallInput,
                )
            },
        );
        assert_eq!(ctl.migrations(), 0, "balance must hold, not migrate");
        assert!(ctl.holds() > 0);
        pipe.shutdown();

        // Migrate: the full adaptation cycle — re-skew the evidence
        // (identity install + one colocated 256-packet window) and
        // take the migrating turn. The row prices detect+adapt
        // end-to-end.
        let (pipe, _sinks) = netkit_sharded_chain(CHAIN, spec).expect("rig");
        let identity = pipe.bucket_map();
        let mut ctl = controller(64, 0.75);
        group.bench_with_input(
            BenchmarkId::new("control_cycle_migrate", workers),
            &workers,
            |b, _| {
                b.iter(|| {
                    pipe.install_bucket_map(identity.clone(), &[]);
                    pipe.dispatch(colocated_burst(workers, 256));
                    pipe.flush();
                    let out = pipe.control_turn(&mut ctl, &[]);
                    assert!(out.is_some(), "colocation must migrate every cycle");
                    criterion::black_box(out)
                })
            },
        );
        assert!(ctl.migrations() > 0);
        pipe.shutdown();
    }

    group.finish();
}

criterion_group!(benches, bench_autonomous);
criterion_main!(benches);
