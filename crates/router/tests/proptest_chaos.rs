//! Property tests for the self-healing dataplane under **randomly
//! seeded fault schedules**. Two families:
//!
//! * **Crash chaos** — a `FaultPlan` kills whichever worker processes
//!   its scheduled n-th packet, at any point of a randomly interleaved
//!   multi-flow stream. After a `health_turn` recovery the books must
//!   close exactly: every dispatched packet is delivered, cause-tagged
//!   in the pipeline's drop meters, or counted in the crash ledger the
//!   dying element wrote on its way down. No duplication, and per-flow
//!   order (strictly increasing sequence numbers, gaps allowed) holds
//!   across death and respawn — on worker threads and on
//!   caller-run shards, where a rerun of the seeds must also replay the
//!   same arrivals and drop books bit for bit.
//! * **Wire chaos** — `FaultPlan::inject_rx` applies a random seeded
//!   drop / corrupt / duplicate mix in front of a NIC; the pumped
//!   pipeline must deliver exactly the copies the plan let through —
//!   the plan's own stats are the oracle.
//!
//! Every failing case replays bit-for-bit from its seed tuple.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use netkit_kernel::fault::{FaultConfig, FaultPlan};
use netkit_kernel::nic::{Nic, PortId};
use netkit_kernel::shard::ShardSpec;
use netkit_packet::batch::PacketBatch;
use netkit_packet::packet::{Packet, PacketBuilder};
use netkit_router::api::{register_packet_interfaces, BatchResult, IPacketPush, PushResult};
use netkit_router::shard::{DropStats, ShardGraph, ShardedPipeline};
use opencom::capsule::Capsule;
use opencom::meta::resources::ResourceManager;
use opencom::runtime::Runtime;
use parking_lot::Mutex;

/// Serialised (flow, seq) arrival log shared by every replica.
struct GlobalRecorder {
    log: Arc<Mutex<Vec<(u16, u16)>>>,
}

impl IPacketPush for GlobalRecorder {
    fn push(&self, pkt: Packet) -> PushResult {
        let src_port = pkt.udp_v4().expect("test packets are UDP").src_port;
        let payload = pkt.udp_payload_v4().expect("payload carries the seq");
        let seq = u16::from_be_bytes([payload[0], payload[1]]);
        self.log.lock().push((src_port, seq));
        Ok(())
    }
}

/// Ingress that panics when the shared plan's crash fault fires —
/// counting the packets the panic takes down (the trigger plus the
/// undrained rest of the batch) so in-flight loss is ledgered, never
/// silent.
struct CrashInjector {
    plan: Arc<FaultPlan>,
    crash_lost: Arc<AtomicU64>,
    inner: GlobalRecorder,
}

impl IPacketPush for CrashInjector {
    fn push(&self, pkt: Packet) -> PushResult {
        if self.plan.should_panic() {
            self.crash_lost.fetch_add(1, Ordering::SeqCst);
            panic!("injected crash fault");
        }
        self.inner.push(pkt)
    }

    fn push_batch(&self, mut batch: PacketBatch) -> BatchResult {
        let pkts: Vec<Packet> = batch.drain_all().collect();
        let total = pkts.len();
        let mut result = BatchResult::with_capacity(total);
        for (i, pkt) in pkts.into_iter().enumerate() {
            if self.plan.should_panic() {
                self.crash_lost
                    .fetch_add((total - i) as u64, Ordering::SeqCst);
                panic!("injected crash fault");
            }
            result.record(self.inner.push(pkt));
        }
        result
    }
}

/// Parse-free terminal: corrupt frames count like pristine ones.
struct CountingSink(Arc<AtomicU64>);

impl IPacketPush for CountingSink {
    fn push(&self, _pkt: Packet) -> PushResult {
        self.0.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

fn flow_packet(flow: u16, seq: u16) -> Packet {
    PacketBuilder::udp_v4("10.0.0.1", "10.0.9.9", 2000 + flow, 443)
        .payload(&seq.to_be_bytes())
        .build()
}

/// One crash-chaos case on `spec`: the property's assertions, then
/// the arrival log and drop books, which a rerun of the same seeds on
/// caller-run shards must reproduce.
fn crash_chaos_case(
    spec: ShardSpec,
    n_flows: u16,
    per_flow: u16,
    panic_at: u64,
    order_seed: u64,
) -> (Vec<(u16, u16)>, DropStats) {
    let workers = spec.workers;
    let plan = Arc::new(FaultPlan::new(
        FaultConfig::new(order_seed).panic_on_nth(panic_at),
    ));
    let crash_lost = Arc::new(AtomicU64::new(0));
    let log = Arc::new(Mutex::new(Vec::new()));
    let rm = Arc::new(ResourceManager::new());
    let pipe = {
        let (plan, crash_lost, log) =
            (Arc::clone(&plan), Arc::clone(&crash_lost), Arc::clone(&log));
        ShardedPipeline::build("chaos-prop", spec, rm, move |_| {
            let rt = Runtime::new();
            register_packet_interfaces(&rt);
            let capsule = Capsule::new("shard", &rt);
            let entry: Arc<dyn IPacketPush> = Arc::new(CrashInjector {
                plan: Arc::clone(&plan),
                crash_lost: Arc::clone(&crash_lost),
                inner: GlobalRecorder {
                    log: Arc::clone(&log),
                },
            });
            Ok(ShardGraph::new(capsule, entry))
        })
        .expect("pipeline builds")
    };

    // Pseudo-shuffled interleaving of n_flows x per_flow packets.
    let total = (n_flows as usize) * (per_flow as usize);
    let mut next_seq = vec![0u16; n_flows as usize];
    let mut remaining: Vec<u16> = (0..n_flows)
        .flat_map(|f| std::iter::repeat_n(f, per_flow as usize))
        .collect();
    let mut state = order_seed;
    let mut batch = PacketBatch::new();
    let mut sent = 0usize;
    while !remaining.is_empty() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pick = (state >> 33) as usize % remaining.len();
        let flow = remaining.swap_remove(pick);
        let seq = next_seq[flow as usize];
        next_seq[flow as usize] += 1;
        batch.push(flow_packet(flow, seq));
        sent += 1;
        if batch.len() == 8 || sent == total {
            pipe.dispatch(std::mem::take(&mut batch));
        }
    }
    pipe.flush();

    // If the crash fired, wait for the kernel to publish the death:
    // flush can return while the victim thread is still unwinding
    // (its fatal batch already left the ring), a step ahead of the
    // dead bit the health probe reads.
    let crashed = plan.stats().panics_fired > 0;
    if crashed {
        while (0..workers).all(|s| pipe.worker_alive(s) != Some(false)) {
            std::thread::yield_now();
        }
    }

    // Recover whatever died (maybe nothing: panic_at can exceed the
    // victim's share of the stream). The recovery path itself is
    // part of the property: stranded descriptors must be ledgered.
    let recovery = pipe.health_turn().expect("recovery succeeds");
    prop_assert_eq!(recovery.is_some(), crashed, "recovery iff a worker died");
    for shard in 0..workers {
        prop_assert_eq!(pipe.worker_alive(shard), Some(true));
    }

    // Delivery works for every flow after recovery.
    let mut post = PacketBatch::new();
    for flow in 0..n_flows {
        post.push(flow_packet(flow, per_flow));
    }
    pipe.dispatch(post);
    pipe.flush();

    // The books: every dispatched packet is exactly one of
    // delivered / cause-dropped / crash-ledgered.
    let drops = pipe.drop_stats();
    prop_assert_eq!(drops.total(), pipe.stats().dropped);
    let delivered = log.lock().len() as u64;
    let dispatched = (total + n_flows as usize) as u64;
    prop_assert_eq!(
        delivered + drops.total() + crash_lost.load(Ordering::SeqCst),
        dispatched,
        "silent loss: {} delivered, {:?}, {} crash-lost of {}",
        delivered,
        drops,
        crash_lost.load(Ordering::SeqCst),
        dispatched
    );
    if crashed {
        prop_assert!(
            crash_lost.load(Ordering::SeqCst) > 0,
            "the trigger packet is ledgered"
        );
        prop_assert_eq!(pipe.recoveries(), 1);
    } else {
        prop_assert_eq!(drops.total() + crash_lost.load(Ordering::SeqCst), 0);
    }

    // No duplication; per-flow order strictly increases (gaps are
    // the ledgered losses).
    let log = log.lock();
    let unique: HashSet<&(u16, u16)> = log.iter().collect();
    prop_assert_eq!(unique.len(), log.len(), "no (flow, seq) twice");
    for flow in 0..n_flows {
        let seqs: Vec<u16> = log
            .iter()
            .filter(|(p, _)| *p == 2000 + flow)
            .map(|(_, s)| *s)
            .collect();
        prop_assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "flow {} reordered: {:?}",
            flow,
            seqs
        );
        prop_assert_eq!(
            *seqs.last().expect("post-recovery packet arrives"),
            per_flow,
            "flow {} must flow again after recovery",
            flow
        );
    }
    let arrivals = log.clone();
    drop(log);
    pipe.shutdown();
    (arrivals, drops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash anywhere, lose nothing silently: delivered + cause-tagged
    /// drops + crash ledger == dispatched, for any interleaving and
    /// any crash point — including schedules where the crash never
    /// fires at all.
    #[test]
    fn seeded_crash_chaos_closes_the_books(
        workers in 2usize..=3,
        n_flows in 2u16..=8,
        per_flow in 8u16..=24,
        panic_at in 1u64..=96,
        order_seed in any::<u64>(),
        caller_run in any::<bool>(),
    ) {
        // A crash scheduled past the stream, into the post-recovery
        // probe (one packet per flow), fires after the recovery the
        // property checks: the schedule "crash during the stream, or
        // never" excludes it, on either placement.
        let stream = u64::from(n_flows) * u64::from(per_flow);
        prop_assume!(panic_at <= stream || panic_at > stream + u64::from(n_flows));
        let spec = if caller_run {
            ShardSpec::inline(workers)
        } else {
            ShardSpec::new(workers)
        };
        let first = crash_chaos_case(spec, n_flows, per_flow, panic_at, order_seed);
        if caller_run {
            // A caller-run shard dies where it runs, so the seeds fix
            // the crash, the recovery and every arrival.
            let again = crash_chaos_case(spec, n_flows, per_flow, panic_at, order_seed);
            prop_assert_eq!(again, first, "a rerun of the seeds replays bit for bit");
        }
    }

    /// Wire chaos: the plan's own stats are the delivery oracle. Every
    /// frame the plan let through (once or twice) is delivered; every
    /// frame it ate is missing; nothing else changes the count.
    #[test]
    fn seeded_wire_chaos_delivers_exactly_the_surviving_copies(
        workers in 1usize..=3,
        frames in 16usize..=96,
        seed in any::<u64>(),
        drop_pct in 0u32..=40,
        corrupt_pct in 0u32..=20,
        dup_pct in 0u32..=30,
    ) {
        let plan = FaultPlan::new(
            FaultConfig::new(seed)
                .rx_drop(drop_pct as f64 / 100.0)
                .rx_corrupt(corrupt_pct as f64 / 100.0)
                .rx_duplicate(dup_pct as f64 / 100.0),
        );
        // Counting sink: corrupt frames may no longer parse as UDP, so
        // the oracle counts packets, not flows.
        let delivered = Arc::new(AtomicU64::new(0));
        let rm = Arc::new(ResourceManager::new());
        let pipe = {
            let delivered = Arc::clone(&delivered);
            ShardedPipeline::build("wire-prop", ShardSpec::new(workers), rm, move |_| {
                let rt = Runtime::new();
                register_packet_interfaces(&rt);
                let capsule = Capsule::new("shard", &rt);
                let entry: Arc<dyn IPacketPush> =
                    Arc::new(CountingSink(Arc::clone(&delivered)));
                Ok(ShardGraph::new(capsule, entry))
            })
            .expect("pipeline builds")
        };
        let nic = Nic::with_queues(PortId(0), workers, 256, 16, 1_000_000);

        let mut admitted = 0u64;
        for i in 0..frames {
            let wire = flow_packet((i % 13) as u16, i as u16);
            let (_action, copies) = plan.inject_rx(&nic, wire.data());
            admitted += copies as u64;
        }
        let stats = plan.stats();
        prop_assert_eq!(stats.rx_frames, frames as u64);
        prop_assert_eq!(
            admitted,
            frames as u64 - stats.rx_dropped + stats.rx_duplicated,
            "rings are big enough that only the plan eats frames"
        );
        for queue in 0..workers {
            while pipe.pump_nic(&nic, queue, 64) > 0 {}
        }
        pipe.flush();
        prop_assert_eq!(delivered.load(Ordering::Relaxed), admitted);
        prop_assert_eq!(pipe.stats().dropped, 0);
        pipe.shutdown();
    }
}
