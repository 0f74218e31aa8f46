//! The reflective loop, closed: a `ControlLoop` watches a sharded
//! pipeline and corrects a skewed placement **with no external
//! rebalance caller** — the example never steps `control_turn` itself.
//!
//! A 4-worker pipeline starts under the identity RSS table. The
//! offered load is pathological: one elephant flow plus seven mice
//! whose buckets all steer to shard 0, so statically one worker
//! carries 100% of the traffic. The spawned control loop ticks every
//! millisecond, peeks the decay-based observation window, weighs in
//! ring pressure, and — once the evidence clears the policy gates —
//! installs a better table through the epoch-quiesce migration. The
//! example just offers traffic and watches the per-shard spread flip.
//!
//! Run with: `cargo run --example autonomous_rebalance`

use std::sync::Arc;
use std::time::{Duration, Instant};

use netkit::kernel::shard::ShardSpec;
use netkit::kernel::task::PeriodicSpec;
use netkit::opencom::capsule::Capsule;
use netkit::opencom::meta::resources::{classes, ResourceManager};
use netkit::opencom::runtime::Runtime;
use netkit::packet::batch::PacketBatch;
use netkit::packet::packet::PacketBuilder;
use netkit::router::api::register_packet_interfaces;
use netkit::router::elements::{Counter, Discard};
use netkit::router::shard::{
    ControlLoop, RebalanceController, RebalancePolicy, ShardGraph, ShardedPipeline,
};
use netkit::router::IPACKET_PUSH;

const WORKERS: usize = 4;

fn main() -> Result<(), netkit::opencom::error::Error> {
    let rm = Arc::new(ResourceManager::new());
    let pipe = Arc::new(ShardedPipeline::build(
        "dataplane",
        ShardSpec::new(WORKERS),
        Arc::clone(&rm),
        |shard| {
            let rt = Runtime::new();
            register_packet_interfaces(&rt);
            let capsule = Capsule::new(format!("worker-{shard}"), &rt);
            let head = Counter::new();
            let sink = Discard::new();
            let hid = capsule.adopt(head.clone())?;
            let sid = capsule.adopt(sink)?;
            capsule.bind_simple(hid, "out", sid, IPACKET_PUSH)?;
            Ok(ShardGraph::new(Arc::clone(&capsule), head))
        },
    )?);

    // The autonomous control plane: tick every 1ms, back off to 16ms
    // while there is nothing to do, at most one migration per 4 ticks.
    let ctl = ControlLoop::spawn(
        "dataplane-control",
        Arc::clone(&pipe),
        Vec::new(),
        RebalanceController::new(
            RebalancePolicy {
                max_imbalance: 1.25,
                min_samples: 64,
                pressure_weight: 1.0,
                decay: 0.75,
                heavy_blend: 0.0,
            },
            4,
        ),
        PeriodicSpec::every(Duration::from_millis(1)).with_backoff(2.0, Duration::from_millis(16)),
        Arc::clone(&rm),
    )?;

    // The pathological offered load: an elephant (bucket 0, 50% of
    // packets) plus seven mice on buckets ≡ 0 (mod 4) — everything
    // steers to shard 0 under the identity table.
    let skewed_burst = || -> PacketBatch {
        (0..32u64)
            .map(|i| {
                let mut p = PacketBuilder::udp_v4("10.0.0.1", "10.9.9.9", 9, 9).build();
                p.meta.rss_hash = Some(if i % 2 == 0 { 0 } else { 4 * (1 + i % 7) });
                p
            })
            .collect()
    };

    let spread = |pipe: &ShardedPipeline| -> Vec<u64> {
        (0..WORKERS).map(|s| pipe.shard_stats(s).packets).collect()
    };

    // Offer load until the loop has acted (bounded: ~4s worst case).
    let deadline = Instant::now() + Duration::from_secs(4);
    let mut bursts = 0u64;
    while ctl.stats().migrations == 0 && Instant::now() < deadline {
        pipe.dispatch(skewed_burst());
        pipe.flush();
        bursts += 1;
        std::thread::sleep(Duration::from_micros(500));
    }
    let before = spread(&pipe);
    println!("skewed spread (before the loop acted) : {before:?}");

    // Same traffic again: the loop has rewritten the table by now.
    let base = spread(&pipe);
    for _ in 0..bursts.max(8) {
        pipe.dispatch(skewed_burst());
        pipe.flush();
    }
    let after: Vec<u64> = spread(&pipe)
        .iter()
        .zip(&base)
        .map(|(a, b)| a - b)
        .collect();
    println!("same offered load after adaptation    : {after:?}");

    let stats = ctl.stats();
    println!(
        "control loop: {} ticks, {} migrations, {} holds, next tick in {:?}",
        stats.ticks, stats.migrations, stats.holds, stats.current_interval
    );

    // The adaptation trail on the resources meta-model: the loop's own
    // task counts inspections, the pipeline's task counts migrations.
    let ctl_info = rm.task_info(ctl.task())?;
    let pipe_info = rm.task_info(pipe.task())?;
    println!(
        "reflection: task `{}` consumed {} {}, task `{}` consumed {} {}",
        ctl_info.name,
        ctl_info.usage[classes::TICKS],
        classes::TICKS,
        pipe_info.name,
        pipe_info.usage[classes::REBALANCES],
        classes::REBALANCES,
    );

    assert!(stats.migrations >= 1, "the loop alone must have acted");
    let busy = after.iter().filter(|&&n| n > 0).count();
    assert!(
        busy > 1,
        "adapted placement must spread the mice: {after:?}"
    );

    let final_ctl = ctl.stop();
    let final_stats = Arc::try_unwrap(pipe).expect("sole owner").shutdown();
    println!(
        "shutdown: {final_stats:?} after {} autonomous migrations",
        final_ctl.migrations
    );
    Ok(())
}
