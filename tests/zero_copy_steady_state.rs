//! **Zero-copy hot-path acceptance** — the pooled NIC→worker→NIC
//! forwarding loop must stop allocating once warm.
//!
//! The rig is the architecture's real fast path end to end, now
//! including egress: wire frames enter through
//! [`Nic::inject_rx_frame`] (RSS hash computed once, bytes DMA'd into
//! a [`BufferPool`] slab), each shard drains its own queue through
//! [`ShardedPipeline::pump_nic`] (pooled batch container, pooled frame
//! buffers moved — not copied — into rss-stamped packets), the replica
//! graphs run each batch to completion into a per-shard `ToDevice`,
//! which **moves** each packet's slab onto its own tx queue
//! (`Nic::tx_burst_packets`), and the wire side drains with
//! [`Nic::drain_tx_frame`], returning each slab to the pool. The batch
//! containers recycle too: the tx burst drains packets in place
//! (`PacketBatch::drain_all`), so pool-homed containers go back whole.
//!
//! After a warm-up phase, neither pool's `allocated` counter may grow —
//! steady-state forwarding performs zero buffer-pool and zero
//! batch-container allocations per batch, **rx through tx**.

use std::sync::Arc;

use netkit::kernel::nic::{Nic, PortId};
use netkit::kernel::shard::ShardSpec;
use netkit::kernel::time::VirtualClock;
use netkit::opencom::capsule::Capsule;
use netkit::opencom::meta::resources::ResourceManager;
use netkit::opencom::runtime::Runtime;
use netkit::packet::flow::FlowKey;
use netkit::packet::packet::PacketBuilder;
use netkit::packet::pool::BufferPool;
use netkit::router::api::{register_packet_interfaces, IPACKET_PUSH};
use netkit::router::elements::{Counter, FromDevice, ToDevice};
use netkit::router::shard::{ShardGraph, ShardedPipeline};

const WORKERS: usize = 4;
const BURST: usize = 32;
const WARMUP_ROUNDS: usize = 8;
const MEASURED_ROUNDS: usize = 64;

/// `counter → todevice` per shard, the device on the shard's tx queue.
fn build_pipeline(rm: Arc<ResourceManager>, nic: &Arc<Nic>, workers: usize) -> ShardedPipeline {
    let nic = Arc::clone(nic);
    ShardedPipeline::build("zero-copy", ShardSpec::new(workers), rm, move |shard| {
        let rt = Runtime::new();
        register_packet_interfaces(&rt);
        let capsule = Capsule::new("shard", &rt);
        let counter = Counter::new();
        // Each shard transmits on its own tx queue: shared-nothing
        // egress, and the rx slab rides through to the wire.
        let egress = ToDevice::with_queue(Arc::clone(&nic), shard);
        let cid = capsule.adopt(counter.clone())?;
        let eid = capsule.adopt(egress)?;
        capsule.bind_simple(cid, "out", eid, IPACKET_PUSH)?;
        Ok(ShardGraph::new(Arc::clone(&capsule), counter))
    })
    .expect("pipeline builds")
}

/// One burst of wire frames: 32 distinct flows, so every shard sees
/// traffic.
fn burst_frames() -> Vec<Vec<u8>> {
    (0..BURST as u16)
        .map(|i| {
            PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 3000 + i, 80)
                .payload_len(64)
                .build()
                .data()
                .to_vec()
        })
        .collect()
}

/// Serialises everything off the tx queues; dropping each
/// [`netkit::kernel::nic::TxFrame`] returns its slab to the pool.
fn drain_wire(nic: &Nic) -> usize {
    let mut transmitted = 0;
    for queue in 0..WORKERS {
        while let Some(frame) = nic.drain_tx_frame(queue) {
            assert!(!frame.is_empty());
            transmitted += 1;
        }
    }
    transmitted
}

/// One full offered-load round: inject a burst per flow column, pump
/// every shard's queue, run to completion, then drain the wire.
fn round(nic: &Nic, pipe: &ShardedPipeline, frames: &[Vec<u8>]) -> (usize, usize) {
    for frame in frames {
        assert!(nic.inject_rx_frame(frame), "rx ring must absorb the burst");
    }
    let mut pumped = 0;
    for shard in 0..WORKERS {
        // Keep pumping until the queue is dry: RSS skew may put more
        // than one burst's worth on a shard.
        loop {
            let n = pipe.pump_nic(nic, shard, BURST);
            if n == 0 {
                break;
            }
            pumped += n;
        }
    }
    pipe.flush();
    (pumped, drain_wire(nic))
}

#[test]
fn pooled_worker_loop_stops_allocating_after_warmup() {
    let rm = Arc::new(ResourceManager::new());

    // Slab pool sized to the in-flight window (rings + last-packet
    // holds); the free list must absorb every outstanding buffer.
    let buffers = BufferPool::new(2048, 0, 4096);
    let nic = Arc::new(
        Nic::with_queues(PortId(0), WORKERS, 1024, 1024, 1_000_000_000)
            .with_buffer_pool(buffers.clone()),
    );
    let pipe = build_pipeline(rm, &nic, WORKERS);

    let frames = burst_frames();
    // Sanity: the flows really spread over several queues.
    let queues: std::collections::HashSet<usize> = frames
        .iter()
        .map(|f| FlowKey::from_frame(f).unwrap().shard_for(WORKERS))
        .collect();
    assert!(queues.len() > 1, "flows must spread over the rx queues");

    let mut delivered = 0;
    let mut transmitted = 0;
    for _ in 0..WARMUP_ROUNDS {
        let (p, t) = round(&nic, &pipe, &frames);
        delivered += p;
        transmitted += t;
    }
    let warm_buffers = buffers.stats();
    let warm_batches = pipe.batch_pool().stats();
    assert!(warm_buffers.allocated > 0, "warm-up fills the pools");

    for _ in 0..MEASURED_ROUNDS {
        let (p, t) = round(&nic, &pipe, &frames);
        delivered += p;
        transmitted += t;
    }
    let steady_buffers = buffers.stats();
    let steady_batches = pipe.batch_pool().stats();

    // The acceptance bar: zero steady-state allocation growth in the
    // frame-slab pool AND the batch-container pool — and the loop
    // measured includes the tx leg (packet → tx ring → wire), so an
    // egress that copied frames instead of moving them would fail this.
    assert_eq!(
        steady_buffers.allocated, warm_buffers.allocated,
        "frame slabs must recycle, not allocate: {steady_buffers:?}"
    );
    assert_eq!(
        steady_batches.allocated, warm_batches.allocated,
        "batch containers must recycle, not allocate: {steady_batches:?}"
    );
    // And the loop really ran on recycled storage, not around it.
    assert!(steady_buffers.reused > warm_buffers.reused);
    assert!(steady_batches.reused > warm_batches.reused);

    // Nothing was lost along the zero-copy path, rx through tx.
    let total = (WARMUP_ROUNDS + MEASURED_ROUNDS) * BURST;
    assert_eq!(delivered, total);
    assert_eq!(transmitted, total, "every frame reached the wire");
    assert_eq!(pipe.stats().packets, total as u64);
    let nic_stats = nic.stats();
    assert_eq!(nic_stats.rx_dropped, 0);
    assert_eq!(nic_stats.tx_frames, total as u64);
    assert_eq!(nic_stats.tx_dropped, 0);
    pipe.shutdown();
}

/// The same acceptance bar for the **software dispatch** path:
/// rx → [`ShardedPipeline::dispatch`] (shared split parent, refcounted
/// shard ranges fanned to the rings, workers gather into pooled
/// containers) → graph → tx. After warm-up the shared-parent lifecycle
/// must be fully pooled too: parents and gather containers recycle,
/// neither pool's `allocated` counter moves.
#[test]
fn shared_range_dispatch_stops_allocating_after_warmup() {
    let rm = Arc::new(ResourceManager::new());
    let buffers = BufferPool::new(2048, 0, 4096);
    let nic = Arc::new(
        Nic::with_queues(PortId(0), WORKERS, 1024, 1024, 1_000_000_000)
            .with_buffer_pool(buffers.clone()),
    );
    let pipe = build_pipeline(rm, &nic, WORKERS);

    let frames = burst_frames();

    // One round: inject the burst, drain the rx queues into pooled
    // parent batches, and software-dispatch each parent — the shared
    // split re-steers it onto the shard queues move-free.
    let round = |nic: &Nic, pipe: &ShardedPipeline| -> (usize, usize) {
        for frame in &frames {
            assert!(nic.inject_rx_frame(frame), "rx ring must absorb the burst");
        }
        let mut dispatched = 0;
        for queue in 0..WORKERS {
            loop {
                let mut batch = pipe.batch_pool().take();
                let n = nic.rx_burst_batch(queue, BURST, &mut batch);
                if n == 0 {
                    break; // empty container recycles on drop
                }
                dispatched += n;
                pipe.dispatch(batch);
            }
        }
        pipe.flush();
        (dispatched, drain_wire(nic))
    };

    let mut delivered = 0;
    let mut transmitted = 0;
    for _ in 0..WARMUP_ROUNDS {
        let (p, t) = round(&nic, &pipe);
        delivered += p;
        transmitted += t;
    }
    let warm_buffers = buffers.stats();
    let warm_batches = pipe.batch_pool().stats();

    for _ in 0..MEASURED_ROUNDS {
        let (p, t) = round(&nic, &pipe);
        delivered += p;
        transmitted += t;
    }
    let steady_buffers = buffers.stats();
    let steady_batches = pipe.batch_pool().stats();

    assert_eq!(
        steady_buffers.allocated, warm_buffers.allocated,
        "frame slabs must recycle through dispatch: {steady_buffers:?}"
    );
    assert_eq!(
        steady_batches.allocated, warm_batches.allocated,
        "split parents and gather containers must recycle: {steady_batches:?}"
    );
    assert!(steady_buffers.reused > warm_buffers.reused);
    assert!(steady_batches.reused > warm_batches.reused);

    let total = (WARMUP_ROUNDS + MEASURED_ROUNDS) * BURST;
    assert_eq!(delivered, total);
    assert_eq!(transmitted, total, "every frame reached the wire");
    assert_eq!(pipe.stats().packets, total as u64);
    assert_eq!(pipe.stats().dropped, 0);
    pipe.shutdown();
}

/// The same bar for the **component-graph** path with no sharded
/// runtime at all: one `FromDevice → ToDevice` pair per queue, bound
/// through a capsule. `FromDevice` polls through `rx_burst_batch`, so
/// the rx slab rides from the rx ring through the binding onto the tx
/// ring and back to the pool; after warm-up the `BufferPool`'s
/// `allocated` counter must not move.
#[test]
fn device_adapter_loop_stops_allocating_after_warmup() {
    let buffers = BufferPool::new(2048, 0, 4096);
    let nic = Arc::new(
        Nic::with_queues(PortId(0), WORKERS, 1024, 1024, 1_000_000_000)
            .with_buffer_pool(buffers.clone()),
    );
    let rt = Runtime::new();
    register_packet_interfaces(&rt);
    let capsule = Capsule::new("adapters", &rt);
    let clock = Arc::new(VirtualClock::new());
    let pollers: Vec<Arc<FromDevice>> = (0..WORKERS)
        .map(|queue| {
            let from = FromDevice::with_queue(Arc::clone(&nic), queue, Arc::clone(&clock));
            let to = ToDevice::with_queue(Arc::clone(&nic), queue);
            let fid = capsule.adopt(from.clone()).unwrap();
            let tid = capsule.adopt(to).unwrap();
            capsule.bind_simple(fid, "out", tid, IPACKET_PUSH).unwrap();
            from
        })
        .collect();

    let frames = burst_frames();

    let round = || -> (usize, usize) {
        for frame in &frames {
            assert!(nic.inject_rx_frame(frame), "rx ring must absorb the burst");
        }
        let mut pumped = 0;
        for poller in &pollers {
            loop {
                let n = poller.pump_batch(BURST);
                if n == 0 {
                    break;
                }
                pumped += n;
            }
        }
        (pumped, drain_wire(&nic))
    };

    let mut delivered = 0;
    let mut transmitted = 0;
    for _ in 0..WARMUP_ROUNDS {
        let (p, t) = round();
        delivered += p;
        transmitted += t;
    }
    let warm = buffers.stats();
    assert!(warm.allocated > 0, "warm-up fills the pool");
    for _ in 0..MEASURED_ROUNDS {
        let (p, t) = round();
        delivered += p;
        transmitted += t;
    }
    let steady = buffers.stats();
    assert_eq!(
        steady.allocated, warm.allocated,
        "frame slabs must recycle behind FromDevice: {steady:?}"
    );
    assert!(steady.reused > warm.reused);

    let total = (WARMUP_ROUNDS + MEASURED_ROUNDS) * BURST;
    assert_eq!(delivered, total);
    assert_eq!(transmitted, total, "every frame reached the wire");
    assert_eq!(nic.stats().tx_frames, total as u64);
}

/// The ledger's round shape (`benchmark/`'s `bare_dispatch`): two
/// threaded workers, 1 024 sixty-byte frames injected into one rx queue,
/// published as 32 software dispatches of 32, then one flush and a
/// drain of the wire. A round can have every one of its parents in
/// flight at once — the workers wake after the dispatch thread has
/// published them all — which a free list capped at 16 containers (two
/// workers' cap until PR 26) shed and re-allocated every round (ROADMAP
/// A7a). Kept whole, the batch pool stops allocating; the 60-byte
/// frames draw from the buffer pool's small class, which stops too.
#[test]
fn ledger_round_shape_stops_allocating_after_warmup() {
    const LEDGER_WORKERS: usize = 2;
    const ROUND: usize = 1024;
    let rm = Arc::new(ResourceManager::new());
    let buffers = BufferPool::new(2048, 0, 2 * 2048);
    let rx = Nic::new(PortId(0), 2048, 2048, 1_000_000_000).with_buffer_pool(buffers.clone());
    let tx = Arc::new(Nic::with_queues(
        PortId(1),
        LEDGER_WORKERS,
        2048,
        2048,
        1_000_000_000,
    ));
    let pipe = build_pipeline(rm, &tx, LEDGER_WORKERS);
    let frames: Vec<Vec<u8>> = (0..ROUND as u16)
        .map(|i| {
            PacketBuilder::udp_v4("10.0.0.1", "10.9.9.9", 5000 + i, 9)
                .payload_len(18)
                .build()
                .data()
                .to_vec()
        })
        .collect();
    assert_eq!(frames[0].len(), 60);

    let round = || {
        for frame in &frames {
            assert!(rx.inject_rx_frame(frame), "rx ring must absorb the round");
        }
        loop {
            let mut batch = pipe.batch_pool().take();
            if rx.rx_burst_batch(0, BURST, &mut batch) == 0 {
                break; // empty container recycles on drop
            }
            pipe.dispatch(batch);
        }
        pipe.flush();
        let mut transmitted = 0;
        for queue in 0..LEDGER_WORKERS {
            while tx.drain_tx_frame(queue).is_some() {
                transmitted += 1;
            }
        }
        assert_eq!(transmitted, ROUND, "every frame reached the wire");
    };

    for _ in 0..WARMUP_ROUNDS {
        round();
    }
    // Whether a warm-up round meets the shape's peak — 32 parents, the
    // last (empty) rx container and one gather per worker, all out at
    // once — is the scheduler's call; hold it once so the assertion
    // below does not depend on thread timing.
    let peak: Vec<_> = (0..ROUND / BURST + 1 + LEDGER_WORKERS)
        .map(|_| pipe.batch_pool().take())
        .collect();
    drop(peak);
    let warm_buffers = buffers.stats();
    let warm_batches = pipe.batch_pool().stats();

    for _ in 0..MEASURED_ROUNDS {
        round();
    }
    let steady_buffers = buffers.stats();
    let steady_batches = pipe.batch_pool().stats();
    assert_eq!(
        steady_buffers.allocated, warm_buffers.allocated,
        "frame slabs must recycle: {steady_buffers:?}"
    );
    assert_eq!(
        steady_batches.allocated, warm_batches.allocated,
        "parents and gather containers must recycle: {steady_batches:?}"
    );
    assert_eq!(steady_batches.discarded, 0);
    assert_eq!(
        pipe.stats().packets,
        ((WARMUP_ROUNDS + MEASURED_ROUNDS) * ROUND) as u64
    );
    assert_eq!(pipe.stats().dropped, 0);
    pipe.shutdown();
}
