//! Differential property test: the per-flow media filters are
//! batch-size invariant.
//!
//! `FrameDropFilter` (every level, bound and unbound) and
//! `QualityAdaptor` (with and without a DSCP remark) are driven twice
//! with the same frame sequence — one packet at a time, and in batches
//! of arbitrary size, empty and single-packet batches included. The
//! batch contract (`netkit_router::api`) requires identical per-packet
//! verdicts, identical sequences downstream and identical `(passed,
//! shed)` counters either way.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use netkit_packet::packet::{Packet, PacketBuilder};
use netkit_router::api::{
    register_packet_interfaces, IPacketPush, PushError, PushResult, IPACKET_PUSH,
};
use netkit_services::media::{DropLevel, FrameDropFilter, QualityAdaptor};
use opencom::capsule::Capsule;
use opencom::component::{Component, ComponentCore, ComponentDescriptor, Registrar};
use opencom::ident::Version;
use opencom::runtime::Runtime;

/// What reached a recording sink: frame bytes and the DSCP annotation.
type Seen = (Vec<u8>, Option<u8>);

/// A scalar-only sink recording what reaches it. It refuses every frame
/// whose length is a multiple of five, so the filter in front of it has
/// mixed downstream verdicts to put back on their packets.
struct Recorder {
    core: ComponentCore,
    seen: Mutex<Vec<Seen>>,
}

impl Recorder {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            core: ComponentCore::new(ComponentDescriptor::new(
                "test.Recorder",
                Version::new(1, 0, 0),
            )),
            seen: Mutex::new(Vec::new()),
        })
    }

    fn seen(&self) -> Vec<Seen> {
        self.seen.lock().unwrap().clone()
    }
}

impl IPacketPush for Recorder {
    fn push(&self, pkt: Packet) -> PushResult {
        let refused = pkt.len().is_multiple_of(5);
        self.seen
            .lock()
            .unwrap()
            .push((pkt.data().to_vec(), pkt.meta.dscp));
        if refused {
            Err(PushError::QueueFull)
        } else {
            Ok(())
        }
    }
}

impl Component for Recorder {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
    }
}

/// One frame: `frame_type` 0–2 is I/P/B, 3 an unknown value, 4 no
/// annotation at all; `v6` picks the family (the DSCP remark rewrites
/// IPv4 headers only).
#[derive(Clone, Debug)]
struct FrameSpec {
    frame_type: u8,
    v6: bool,
    sport: u16,
    payload_len: usize,
}

fn frame_strategy() -> impl Strategy<Value = FrameSpec> {
    (
        0u8..5,
        prop_oneof![Just(false), Just(false), Just(true)],
        1u16..64,
        0usize..96,
    )
        .prop_map(|(frame_type, v6, sport, payload_len)| FrameSpec {
            frame_type,
            v6,
            sport,
            payload_len,
        })
}

fn build_frame(spec: &FrameSpec) -> Packet {
    let builder = if spec.v6 {
        PacketBuilder::udp_v6("2001:db8::1", "2001:db8::2", spec.sport, 5004)
    } else {
        PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", spec.sport, 5004)
    };
    let mut pkt = builder.payload_len(spec.payload_len).build();
    if spec.frame_type < 4 {
        pkt.meta.annotate("frame_type", u64::from(spec.frame_type));
    }
    pkt
}

/// The filters under test, each bound to its own recorder through a
/// real capsule (interception wrappers on every edge) — bar one
/// frame-drop filter left unbound, whose survivors answer `Unbound`.
struct Lanes {
    _capsule: Arc<Capsule>,
    drops: Vec<Arc<FrameDropFilter>>,
    adaptors: Vec<Arc<QualityAdaptor>>,
    recorders: Vec<Arc<Recorder>>,
}

impl Lanes {
    fn new() -> Self {
        let rt = Runtime::new();
        register_packet_interfaces(&rt);
        let capsule = Capsule::new("media-equiv", &rt);
        let drops: Vec<Arc<FrameDropFilter>> = [
            DropLevel::None,
            DropLevel::DropB,
            DropLevel::DropBP,
            DropLevel::DropB,
        ]
        .into_iter()
        .map(FrameDropFilter::with_level)
        .collect();
        let adaptors = vec![
            QualityAdaptor::new(2, 3, Some(10)),
            QualityAdaptor::new(1, 4, None),
            QualityAdaptor::new(3, 3, Some(46)),
        ];
        let mut recorders = Vec::new();
        let bound: Vec<Arc<dyn Component>> = drops[..3]
            .iter()
            .map(|f| f.clone() as Arc<dyn Component>)
            .chain(adaptors.iter().map(|a| a.clone() as Arc<dyn Component>))
            .collect();
        for filter in bound {
            let recorder = Recorder::new();
            let fid = capsule.adopt(filter).unwrap();
            let rid = capsule.adopt(recorder.clone()).unwrap();
            capsule.bind_simple(fid, "out", rid, IPACKET_PUSH).unwrap();
            recorders.push(recorder);
        }
        capsule.adopt(drops[3].clone()).unwrap();
        Self {
            _capsule: capsule,
            drops,
            adaptors,
            recorders,
        }
    }

    fn entries(&self) -> Vec<Arc<dyn IPacketPush>> {
        self.drops
            .iter()
            .map(|f| Arc::clone(f) as Arc<dyn IPacketPush>)
            .chain(
                self.adaptors
                    .iter()
                    .map(|a| Arc::clone(a) as Arc<dyn IPacketPush>),
            )
            .collect()
    }

    fn counters(&self) -> Vec<(u64, u64)> {
        self.drops
            .iter()
            .map(|f| f.stats())
            .chain(self.adaptors.iter().map(|a| a.stats()))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn media_filters_agree_one_packet_at_a_time_and_batched(
        specs in proptest::collection::vec(frame_strategy(), 0..96),
        sizes in proptest::collection::vec(
            prop_oneof![Just(0usize), Just(1usize), 2usize..48],
            1..8,
        ),
    ) {
        let packets: Vec<Packet> = specs.iter().map(build_frame).collect();
        let mut sizes = sizes;
        sizes.push(7);
        let mut chunks: Vec<&[Packet]> = Vec::new();
        let mut remaining = &packets[..];
        let mut size_plan = sizes.iter().copied().cycle();
        while !remaining.is_empty() {
            let take = size_plan.next().expect("cycle is infinite").min(remaining.len());
            let (chunk, rest) = remaining.split_at(take);
            chunks.push(chunk);
            remaining = rest;
        }

        let single = Lanes::new();
        let batched = Lanes::new();
        let (single_entries, batched_entries) = (single.entries(), batched.entries());
        let lanes_n = single_entries.len();
        let mut single_verdicts: Vec<Vec<PushResult>> = vec![Vec::new(); lanes_n];
        let mut batch_verdicts: Vec<Vec<PushResult>> = vec![Vec::new(); lanes_n];
        for chunk in &chunks {
            for pkt in chunk.iter() {
                for (lane, entry) in single_entries.iter().enumerate() {
                    single_verdicts[lane].push(entry.push(pkt.clone()));
                }
            }
            for (lane, entry) in batched_entries.iter().enumerate() {
                let result = entry.push_batch(chunk.to_vec().into());
                prop_assert_eq!(result.len(), chunk.len(), "one verdict per packet");
                batch_verdicts[lane].extend(result.verdicts);
            }
        }

        // 1. Identical per-packet verdicts, filter by filter.
        for lane in 0..lanes_n {
            prop_assert_eq!(&single_verdicts[lane], &batch_verdicts[lane], "lane {}", lane);
        }
        // 2. Identical `(passed, shed)` counters.
        prop_assert_eq!(single.counters(), batched.counters());
        // 3. Identical sequences downstream.
        for (i, (s, b)) in single.recorders.iter().zip(&batched.recorders).enumerate() {
            prop_assert_eq!(s.seen(), b.seen(), "output {}", i);
        }
    }
}
