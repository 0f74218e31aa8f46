//! Differential test: the sharded dataplane is observationally
//! identical to the single-threaded pipeline.
//!
//! The same packet stream is driven through (a) one scalar reference
//! replica pushed packet-at-a-time on the test thread and (b) a
//! `ShardedPipeline` with N = 1..4 workers fed through RSS dispatch in
//! arbitrary batch sizes. Parallel execution may interleave *across*
//! flows, so the comparison is: identical per-packet verdict tallies,
//! identical aggregate element counters, identical per-output
//! *multisets*, and — the part parallelism must not break — identical
//! per-flow *sequences* on every output.

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

/// A sink that records every delivered frame (for multiset and
/// per-flow-order comparison).
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

/// One replica of the test graph: classifier → {voice, bulk, default}
/// recording sinks, with a Counter in front so aggregate counters are
/// comparable.
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

/// Extracts (flow id = src port bytes, frame) for per-flow sequencing.
fn by_flow(frames: &[Vec<u8>]) -> std::collections::BTreeMap<Vec<u8>, Vec<Vec<u8>>> {
    let mut map: std::collections::BTreeMap<Vec<u8>, Vec<Vec<u8>>> = Default::default();
    for f in frames {
        // UDP source port lives at a fixed offset (14 eth + 20 ip).
        let flow = f[34..36].to_vec();
        map.entry(flow).or_default().push(f.clone());
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn sharded_pipeline_matches_single_threaded_reference(
        flows in proptest::collection::vec(flow_strategy(), 1..8),
        picks in proptest::collection::vec(0usize..8, 1..96),
        chunks in proptest::collection::vec(1usize..24, 1..6),
    ) {
        let packets: Vec<Packet> = picks
            .iter()
            .enumerate()
            .map(|(i, idx)| build(&flows[idx % flows.len()], i as u32))
            .collect();

        // Scalar reference: one push per packet on this thread.
        let reference = replica();
        let mut ref_accepted = 0u64;
        let mut ref_dropped = 0u64;
        for pkt in &packets {
            match reference.entry.push(pkt.clone()) {
                Ok(()) => ref_accepted += 1,
                Err(_) => ref_dropped += 1,
            }
        }

        for workers in 1usize..=4 {
            let rm = Arc::new(ResourceManager::new());
            let replicas = Arc::new(Mutex::new(Vec::new()));
            let slot = Arc::clone(&replicas);
            let pipe = ShardedPipeline::build(
                &format!("equiv-{workers}"),
                ShardSpec::new(workers),
                Arc::clone(&rm),
                move |_shard| {
                    let r = replica();
                    let graph =
                        ShardGraph::new(Arc::clone(&r._capsule), Arc::clone(&r.entry));
                    slot.lock().push(r);
                    Ok(graph)
                },
            )
            .unwrap();

            // Drive the identical stream, chunked by the random plan,
            // through RSS dispatch.
            let mut remaining = &packets[..];
            let mut plan = chunks.iter().copied().cycle();
            while !remaining.is_empty() {
                let take = plan.next().unwrap().min(remaining.len());
                let (chunk, rest) = remaining.split_at(take);
                remaining = rest;
                pipe.dispatch(PacketBatch::from_packets(chunk.to_vec()));
            }
            pipe.flush();

            // Aggregate verdict tallies match the scalar reference.
            let stats = pipe.stats();
            prop_assert_eq!(stats.packets, packets.len() as u64);
            prop_assert_eq!(stats.accepted, ref_accepted);
            prop_assert_eq!(stats.dropped, ref_dropped);
            // Rolled-up resource usage sees the same single figure.
            prop_assert_eq!(
                rm.task_info(pipe.task()).unwrap().usage
                    .get(opencom::meta::resources::classes::PACKETS)
                    .copied()
                    .unwrap_or(0),
                packets.len() as u64
            );

            let replicas = std::mem::take(&mut *replicas.lock());

            // Aggregate element counters match.
            let total_counted: u64 = replicas.iter().map(|r| r.counter.count()).sum();
            prop_assert_eq!(total_counted, reference.counter.count());
            let (matched, fell_through) = replicas
                .iter()
                .map(|r| r.classifier.stats())
                .fold((0, 0), |(a, b), s| (a + s.matched, b + s.unmatched));
            let s = reference.classifier.stats();
            prop_assert_eq!((matched, fell_through), (s.matched, s.unmatched));

            // Per-output multisets and per-flow sequences match.
            for (o, _name) in OUTPUTS.iter().enumerate() {
                let ref_frames = reference.sinks[o].frames();
                let sharded_frames: Vec<Vec<u8>> = replicas
                    .iter()
                    .flat_map(|r| r.sinks[o].frames())
                    .collect();
                let mut a = ref_frames.clone();
                let mut b = sharded_frames.clone();
                a.sort();
                b.sort();
                prop_assert_eq!(a, b, "per-output multiset");
                prop_assert_eq!(
                    by_flow(&ref_frames),
                    by_flow(&sharded_frames),
                    "per-flow order on every output"
                );
            }

            pipe.shutdown();
        }
    }
}

/// The N=1 sharded pipeline is not just multiset-equal but
/// sequence-equal to the reference: with one worker there is no
/// interleaving freedom at all.
#[test]
fn single_worker_is_sequence_identical() {
    let packets: Vec<Packet> = (0..40u32)
        .map(|i| {
            build(
                &FlowSpec {
                    src_port: 2000 + (i % 5) as u16,
                    dst_port: if i % 3 == 0 { 5004 } else { 80 },
                    dscp: if i % 7 == 0 { 46 } else { 0 },
                },
                i,
            )
        })
        .collect();

    let reference = replica();
    for pkt in &packets {
        reference.entry.push(pkt.clone()).unwrap();
    }

    let rm = Arc::new(ResourceManager::new());
    let replicas = Arc::new(Mutex::new(Vec::new()));
    let slot = Arc::clone(&replicas);
    let pipe = ShardedPipeline::build("equiv-seq", ShardSpec::single(), rm, move |_| {
        let r = replica();
        let graph = ShardGraph::new(Arc::clone(&r._capsule), Arc::clone(&r.entry));
        slot.lock().push(r);
        Ok(graph)
    })
    .unwrap();
    pipe.dispatch(PacketBatch::from_packets(packets));
    pipe.flush();
    let replicas = std::mem::take(&mut *replicas.lock());
    for (o, r) in replicas[0].sinks.iter().enumerate() {
        assert_eq!(r.frames(), reference.sinks[o].frames());
    }
    pipe.shutdown();
}
