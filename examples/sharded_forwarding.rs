//! Sharded multi-core forwarding with an atomic hot reconfiguration.
//!
//! Builds a 4-worker `ShardedPipeline` (each worker owning a replica of
//! a counter→sink graph), RSS-dispatches a few thousand packets across
//! 64 flows, hot-swaps every replica's head inside one epoch quiesce,
//! and shows the single logical reflection surface: one resources task
//! whose rolled-up usage covers all workers.
//!
//! Run with: `cargo run --example sharded_forwarding`

use std::sync::Arc;

use netkit::kernel::shard::ShardSpec;
use netkit::opencom::capsule::Capsule;
use netkit::opencom::meta::resources::{classes, ResourceManager};
use netkit::opencom::runtime::Runtime;
use netkit::packet::batch::PacketBatch;
use netkit::packet::packet::PacketBuilder;
use netkit::router::api::register_packet_interfaces;
use netkit::router::elements::{Counter, Discard};
use netkit::router::shard::{ShardGraph, ShardedPipeline};
use netkit::router::IPACKET_PUSH;

fn main() -> Result<(), netkit::opencom::error::Error> {
    let rm = Arc::new(ResourceManager::new());
    let spec = ShardSpec::new(4);

    // One graph replica per worker: Counter -> Discard, in its own
    // capsule, admitted to no shared state at all.
    let sinks = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let sinks_slot = Arc::clone(&sinks);
    let pipe = ShardedPipeline::build("example-dataplane", spec, Arc::clone(&rm), move |shard| {
        let rt = Runtime::new();
        register_packet_interfaces(&rt);
        let capsule = Capsule::new(format!("worker-{shard}"), &rt);
        let head = Counter::new();
        let sink = Discard::new();
        let hid = capsule.adopt(head.clone())?;
        let sid = capsule.adopt(sink.clone())?;
        capsule.bind_simple(hid, "out", sid, IPACKET_PUSH)?;
        sinks_slot.lock().push(sink);
        Ok(ShardGraph::new(Arc::clone(&capsule), head))
    })?;

    let burst = |round: u16| -> PacketBatch {
        (0..256u16)
            .map(|i| {
                PacketBuilder::udp_v4("10.0.0.1", "10.9.9.9", 4000 + (i % 64), 5000 + round).build()
            })
            .collect()
    };

    // Phase 1: forward under the original graphs.
    for round in 0..8 {
        pipe.dispatch(burst(round));
    }
    pipe.flush();
    println!("phase 1: {:?}", pipe.stats());

    // Atomic reconfiguration: retarget every worker's ingress to a
    // fresh head inside one epoch quiesce — no worker ever runs a
    // half-reconfigured dataplane, and queued traffic is preserved.
    let fresh_heads: Vec<Arc<Counter>> = (0..pipe.workers()).map(|_| Counter::new()).collect();
    pipe.quiesce(|| {
        for (shard, head) in fresh_heads.iter().enumerate() {
            pipe.set_entry(shard, head.clone());
        }
    });

    // Phase 2: forward under the swapped graphs.
    for round in 8..16 {
        pipe.dispatch(burst(round));
    }
    pipe.flush();

    let swapped: u64 = fresh_heads.iter().map(|c| c.count()).sum();
    println!(
        "phase 2: {:?} ({} via swapped heads)",
        pipe.stats(),
        swapped
    );

    // One logical component to reflection: a single task, usage rolled
    // up across all four workers.
    let info = rm.task_info(pipe.task())?;
    println!(
        "reflection sees task `{}` with {} packets over {} attached components",
        info.name,
        info.usage[classes::PACKETS],
        info.attached.len()
    );

    let per_shard: Vec<u64> = (0..pipe.workers())
        .map(|s| pipe.shard_stats(s).packets)
        .collect();
    println!("per-shard packet counts (flow-affine spread): {per_shard:?}");

    let stats = pipe.shutdown();
    assert_eq!(stats.packets, 16 * 256);
    assert_eq!(stats.dropped, 0);
    println!("shutdown: {stats:?}");
    Ok(())
}
