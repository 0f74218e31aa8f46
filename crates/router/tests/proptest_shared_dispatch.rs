//! Differential test for the move-free shared-range ring protocol:
//! shared-batch dispatch ≡ single-threaded pipeline.
//!
//! `ShardedPipeline::dispatch` publishes refcounted shard ranges of one
//! shared split parent (workers gather their slices in parallel). It
//! must be observationally identical to a scalar reference replica
//! pushed packet-at-a-time: same per-packet verdict tallies, same
//! per-output *multisets*, and — what neither sharing nor parallel
//! gathering may break — the same per-flow *sequence* on every output.
//! (The property's name dates from when an owned sub-batch dispatch
//! was a third arm; the scalar replica is the reference that stays.)
//!
//! A steady-state rider: after warm-up, shared dispatch must stop
//! growing the batch pool (parents and gather containers recycle).

use std::sync::Arc;

use proptest::prelude::*;

use netkit_kernel::shard::ShardSpec;
use netkit_packet::batch::PacketBatch;
use netkit_packet::packet::{Packet, PacketBuilder};
use netkit_router::api::{
    register_packet_interfaces, FilterPattern, FilterSpec, IClassifier, IPacketPush, PushResult,
    IPACKET_PUSH,
};
use netkit_router::elements::{ClassifierEngine, Counter};
use netkit_router::shard::{ShardGraph, ShardedPipeline};
use opencom::capsule::Capsule;
use opencom::component::{Component, ComponentCore, ComponentDescriptor, Registrar};
use opencom::ident::Version;
use opencom::meta::resources::ResourceManager;
use opencom::runtime::Runtime;
use parking_lot::Mutex;

/// A sink recording every delivered frame, for multiset and per-flow
/// order comparison.
struct RecordingSink {
    core: ComponentCore,
    frames: Mutex<Vec<Vec<u8>>>,
}

impl RecordingSink {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            core: ComponentCore::new(ComponentDescriptor::new(
                "test.RecordingSink",
                Version::new(1, 0, 0),
            )),
            frames: Mutex::new(Vec::new()),
        })
    }

    fn frames(&self) -> Vec<Vec<u8>> {
        self.frames.lock().clone()
    }
}

impl IPacketPush for RecordingSink {
    fn push(&self, pkt: Packet) -> PushResult {
        self.frames.lock().push(pkt.data().to_vec());
        Ok(())
    }
}

impl Component for RecordingSink {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
    }
}

const OUTPUTS: [&str; 3] = ["voice", "bulk", "default"];

/// One replica of the test graph: Counter → classifier → {voice, bulk,
/// default} recording sinks.
struct Replica {
    _capsule: Arc<Capsule>,
    entry: Arc<dyn IPacketPush>,
    counter: Arc<Counter>,
    classifier: Arc<ClassifierEngine>,
    sinks: Vec<Arc<RecordingSink>>,
}

fn replica() -> Replica {
    let rt = Runtime::new();
    register_packet_interfaces(&rt);
    let capsule = Capsule::new("replica", &rt);
    let counter = Counter::new();
    let classifier = ClassifierEngine::new();
    let cid = capsule.adopt(counter.clone()).unwrap();
    let kid = capsule.adopt(classifier.clone()).unwrap();
    capsule.bind_simple(cid, "out", kid, IPACKET_PUSH).unwrap();
    let mut sinks = Vec::new();
    for output in OUTPUTS {
        let sink = RecordingSink::new();
        let sid = capsule.adopt(sink.clone()).unwrap();
        capsule.bind(kid, "out", output, sid, IPACKET_PUSH).unwrap();
        sinks.push(sink);
    }
    classifier
        .register_filter(FilterSpec::new(
            FilterPattern::any().protocol(17).dst_port_range(5000, 5999),
            "voice",
            10,
        ))
        .unwrap();
    classifier
        .register_filter(FilterSpec::new(FilterPattern::any().dscp(46), "bulk", 5))
        .unwrap();
    let entry: Arc<dyn IPacketPush> = capsule
        .query_interface(cid, IPACKET_PUSH)
        .unwrap()
        .downcast()
        .unwrap();
    Replica {
        _capsule: capsule,
        entry,
        counter,
        classifier,
        sinks,
    }
}

/// A sharded pipeline of `replica()` graphs plus handles to each
/// shard's recording sinks.
struct Rig {
    pipe: ShardedPipeline,
    replicas: Vec<Replica>,
}

fn rig(name: &str, workers: usize) -> Rig {
    let rm = Arc::new(ResourceManager::new());
    let replicas = Arc::new(Mutex::new(Vec::new()));
    let slot = Arc::clone(&replicas);
    let pipe = ShardedPipeline::build(name, ShardSpec::new(workers), rm, move |_shard| {
        let r = replica();
        let graph = ShardGraph::new(Arc::clone(&r._capsule), Arc::clone(&r.entry));
        slot.lock().push(r);
        Ok(graph)
    })
    .unwrap();
    let replicas = std::mem::take(&mut *replicas.lock());
    Rig { pipe, replicas }
}

impl Rig {
    /// Drives `packets` through the pipeline in `chunks`-sized bursts
    /// via `dispatch` (shared ranges), then flushes.
    fn drive(&self, packets: &[Packet], chunks: &[usize]) {
        let mut remaining = packets;
        let mut plan = chunks.iter().copied().cycle();
        while !remaining.is_empty() {
            let take = plan.next().unwrap().min(remaining.len());
            let (chunk, rest) = remaining.split_at(take);
            remaining = rest;
            let batch = PacketBatch::from_packets(chunk.to_vec());
            self.pipe.dispatch(batch);
        }
        self.pipe.flush();
    }

    /// All frames delivered on output `o`, across shards.
    fn frames(&self, o: usize) -> Vec<Vec<u8>> {
        self.replicas
            .iter()
            .flat_map(|r| r.sinks[o].frames())
            .collect()
    }

    fn counted(&self) -> u64 {
        self.replicas.iter().map(|r| r.counter.count()).sum()
    }

    fn classified(&self) -> (u64, u64) {
        self.replicas
            .iter()
            .map(|r| r.classifier.stats())
            .fold((0, 0), |(a, b), s| (a + s.matched, b + s.unmatched))
    }
}

#[derive(Clone, Debug)]
struct FlowSpec {
    src_port: u16,
    dst_port: u16,
    dscp: u8,
}

fn flow_strategy() -> impl Strategy<Value = FlowSpec> {
    (
        2000u16..2020,
        prop_oneof![Just(5004u16), Just(80u16), 1000u16..9000],
        prop_oneof![Just(0u8), Just(46u8)],
    )
        .prop_map(|(src_port, dst_port, dscp)| FlowSpec {
            src_port,
            dst_port,
            dscp,
        })
}

fn build(spec: &FlowSpec, seq: u32) -> Packet {
    PacketBuilder::udp_v4("192.0.2.7", "10.0.0.1", spec.src_port, spec.dst_port)
        .dscp(spec.dscp)
        .payload(&seq.to_be_bytes())
        .build()
}

/// Groups frames by flow id (UDP source port bytes at the fixed
/// 14 eth + 20 ip offset) preserving each flow's delivery order.
fn by_flow(frames: &[Vec<u8>]) -> std::collections::BTreeMap<Vec<u8>, Vec<Vec<u8>>> {
    let mut map: std::collections::BTreeMap<Vec<u8>, Vec<Vec<u8>>> = Default::default();
    for f in frames {
        let flow = f[34..36].to_vec();
        map.entry(flow).or_default().push(f.clone());
    }
    map
}

fn sorted(mut frames: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    frames.sort();
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn shared_range_dispatch_equals_owned(
        flows in proptest::collection::vec(flow_strategy(), 1..8),
        picks in proptest::collection::vec(0usize..8, 1..96),
        chunks in proptest::collection::vec(1usize..24, 1..6),
        workers in 2usize..=4,
    ) {
        let packets: Vec<Packet> = picks
            .iter()
            .enumerate()
            .map(|(i, idx)| build(&flows[idx % flows.len()], i as u32))
            .collect();

        // Arm 1 — scalar reference: one push per packet, this thread.
        let reference = replica();
        let mut ref_accepted = 0u64;
        for pkt in &packets {
            if reference.entry.push(pkt.clone()).is_ok() {
                ref_accepted += 1;
            }
        }

        // Arm 2 — shared-range dispatch.
        let shared = rig(&format!("shared-{workers}"), workers);
        shared.drive(&packets, &chunks);

        // Verdict tallies agree across both arms.
        let stats = shared.pipe.stats();
        prop_assert_eq!(stats.packets, packets.len() as u64);
        prop_assert_eq!(stats.accepted, ref_accepted);
        prop_assert_eq!(stats.dropped, 0);
        prop_assert_eq!(shared.counted(), reference.counter.count());
        let s = reference.classifier.stats();
        prop_assert_eq!(shared.classified(), (s.matched, s.unmatched));

        // Per-output multisets and per-flow sequences agree.
        for o in 0..OUTPUTS.len() {
            let ref_frames = reference.sinks[o].frames();
            let shared_frames = shared.frames(o);
            prop_assert_eq!(
                sorted(shared_frames.clone()),
                sorted(ref_frames.clone()),
                "shared multiset = reference"
            );
            prop_assert_eq!(by_flow(&shared_frames), by_flow(&ref_frames), "shared flow order");
        }

        shared.pipe.shutdown();
    }
}

/// Steady-state pool discipline: once warm, shared-range dispatch takes
/// every parent and every gather container from the freelist — the
/// batch pool's `allocated` counter goes flat while `reused` climbs.
/// (The graph is Counter → Discard, which preserves batch storage; a
/// graph that unpacks batches — e.g. a classifier fan-out — consumes
/// their containers by design and is exempt from this bar.)
#[test]
fn shared_dispatch_reaches_pool_steady_state() {
    let rm = Arc::new(ResourceManager::new());
    let pipe = ShardedPipeline::build("steady", ShardSpec::new(4), rm, |_shard| {
        let rt = Runtime::new();
        register_packet_interfaces(&rt);
        let capsule = Capsule::new("shard", &rt);
        let counter = Counter::new();
        let sink = netkit_router::elements::Discard::new();
        let cid = capsule.adopt(counter.clone()).unwrap();
        let sid = capsule.adopt(sink).unwrap();
        capsule.bind_simple(cid, "out", sid, IPACKET_PUSH).unwrap();
        Ok(ShardGraph::new(Arc::clone(&capsule), counter))
    })
    .unwrap();
    let traffic = || -> Vec<Packet> {
        (0..64u32)
            .map(|i| {
                build(
                    &FlowSpec {
                        src_port: 2000 + (i % 16) as u16,
                        dst_port: 80,
                        dscp: 0,
                    },
                    i,
                )
            })
            .collect()
    };
    let drive = || {
        // Parents lease from the pipeline pool: rx-style ingestion.
        let mut batch = pipe.batch_pool().take();
        for p in traffic() {
            batch.push(p);
        }
        pipe.dispatch(batch);
        pipe.flush();
    };
    for _ in 0..8 {
        drive();
    }
    let warm = pipe.batch_pool().stats();
    for _ in 0..32 {
        drive();
    }
    let steady = pipe.batch_pool().stats();
    assert_eq!(
        steady.allocated, warm.allocated,
        "warm dispatch must not grow the batch pool: {warm:?} -> {steady:?}"
    );
    assert!(
        steady.reused > warm.reused,
        "containers must cycle through the freelist: {warm:?} -> {steady:?}"
    );
    assert_eq!(steady.discarded, warm.discarded, "freelist never overflows");
    let expected = (8 + 32) * 64;
    assert_eq!(pipe.stats().packets, expected as u64);
    pipe.shutdown();
}
