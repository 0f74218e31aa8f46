//! Differential property test: the batch dataplane path is
//! observationally identical to the scalar path.
//!
//! Two structurally identical element chains are driven with the same
//! packet sequence — one packet-at-a-time, one in arbitrarily sized
//! batches (including empty and size-1). The batch contract (see
//! `netkit_router::api` module docs) requires identical per-packet
//! verdicts, identical per-output packet sequences, and identical
//! counters; this test enforces all three over a chain that exercises
//! classification (labelled fan-out), IP processing (validate + TTL with
//! error diversion), metering, and bounded queueing (drop reasons).
//! A second property drives the library's other elements one packet at
//! a time and in batches the same way: route lookup, NAT44, the L4
//! balancer, conntrack, the guard, tee, the policer and the protocol
//! recogniser.

use std::sync::Arc;

use proptest::prelude::*;

use netkit_kernel::time::VirtualClock;
use netkit_packet::batch::PacketBatch;
use netkit_packet::headers::TcpFlags;
use netkit_packet::packet::{Packet, PacketBuilder};
use netkit_packet::sketch::{FlowSketch, SketchConfig};
use netkit_router::api::{
    register_packet_interfaces, FilterPattern, FilterSpec, IClassifier, IPacketPull, IPacketPush,
    ITable, PushError, PushResult, IPACKET_PULL, IPACKET_PUSH,
};
use netkit_router::desc::TableEntry;
use netkit_router::elements::{
    ClassifierEngine, Discard, DropTailQueue, Ipv4Processor, Meter, Policer, ProtocolRecogniser,
    RedConfig, RedQueue, RouteLookup, Tee,
};
use netkit_router::flow::{ConnTracker, Guard, GuardConfig, L4LoadBalancer, Nat44, Nat44Config};
use netkit_router::routing::{RouteEntry, RoutingTable};
use opencom::capsule::Capsule;
use opencom::component::{Component, ComponentCore, ComponentDescriptor, Registrar};
use opencom::ident::Version;
use opencom::runtime::Runtime;

/// One synthetic packet spec the strategies draw.
#[derive(Clone, Debug)]
struct PacketSpec {
    dst_last_octet: u8,
    dport: u16,
    ttl: u8,
    dscp: u8,
    payload_len: usize,
    corrupt_checksum: bool,
}

fn packet_strategy() -> impl Strategy<Value = PacketSpec> {
    (
        any::<u8>(),
        prop_oneof![Just(5004u16), Just(80u16), 1u16..=65535],
        prop_oneof![Just(0u8), Just(1u8), 2u8..=64],
        prop_oneof![Just(0u8), Just(46u8)],
        0usize..128,
        prop_oneof![Just(false), Just(false), Just(false), Just(true)],
    )
        .prop_map(
            |(dst_last_octet, dport, ttl, dscp, payload_len, corrupt_checksum)| PacketSpec {
                dst_last_octet,
                dport,
                ttl,
                dscp,
                payload_len,
                corrupt_checksum,
            },
        )
}

fn build_packet(spec: &PacketSpec) -> Packet {
    let mut pkt = PacketBuilder::udp_v4(
        "192.0.2.7",
        &format!("10.0.0.{}", spec.dst_last_octet),
        4000,
        spec.dport,
    )
    .ttl(spec.ttl)
    .dscp(spec.dscp)
    .payload_len(spec.payload_len)
    .build();
    if spec.corrupt_checksum {
        // Flip a checksum byte so Ipv4Processor sees a malformed header.
        pkt.l3_mut()[10] ^= 0xff;
    }
    pkt
}

/// A chain rig: classifier → {voice → RED queue, bulk → meter → drop-tail
/// queue, default → ipv4 processor → queue, err → discard}, all bound
/// through a real capsule so interception wrappers sit on every edge.
struct Rig {
    _capsule: Arc<Capsule>,
    entry: Arc<dyn IPacketPush>,
    classifier: Arc<ClassifierEngine>,
    proc4: Arc<Ipv4Processor>,
    voice_q: Arc<RedQueue>,
    bulk_q: Arc<DropTailQueue>,
    default_q: Arc<DropTailQueue>,
    err_sink: Arc<Discard>,
    voice_pull: Arc<dyn IPacketPull>,
    bulk_pull: Arc<dyn IPacketPull>,
    default_pull: Arc<dyn IPacketPull>,
}

fn rig() -> Rig {
    let rt = Runtime::new();
    register_packet_interfaces(&rt);
    let capsule = Capsule::new("diff", &rt);

    let classifier = ClassifierEngine::new();
    let proc4 = Ipv4Processor::new();
    let meter = Meter::new(1e9, 1e9, 1e9, Arc::new(VirtualClock::new()));
    let voice_q = RedQueue::new(RedConfig {
        capacity: 24,
        min_threshold: 4.0,
        max_threshold: 16.0,
        max_probability: 0.5,
        weight: 0.4,
        seed: 11,
    });
    let bulk_q = DropTailQueue::new(16);
    let default_q = DropTailQueue::new(8);
    let err_sink = Discard::new();

    let cid = capsule.adopt(classifier.clone()).unwrap();
    let pid = capsule.adopt(proc4.clone()).unwrap();
    let mid = capsule.adopt(meter.clone()).unwrap();
    let vq = capsule.adopt(voice_q.clone()).unwrap();
    let bq = capsule.adopt(bulk_q.clone()).unwrap();
    let dq = capsule.adopt(default_q.clone()).unwrap();
    let es = capsule.adopt(err_sink.clone()).unwrap();

    capsule.bind(cid, "out", "voice", vq, IPACKET_PUSH).unwrap();
    capsule.bind(cid, "out", "bulk", mid, IPACKET_PUSH).unwrap();
    capsule
        .bind(cid, "out", "default", pid, IPACKET_PUSH)
        .unwrap();
    capsule.bind_simple(mid, "out", bq, IPACKET_PUSH).unwrap();
    capsule.bind_simple(pid, "out", dq, IPACKET_PUSH).unwrap();
    capsule.bind_simple(pid, "err", es, IPACKET_PUSH).unwrap();

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

    // Enter through the capsule-resolved (interception-wrapped) surface
    // so the batch path crosses the same wrappers the scalar path does.
    let entry: Arc<dyn IPacketPush> = capsule
        .query_interface(cid, IPACKET_PUSH)
        .unwrap()
        .downcast()
        .unwrap();
    let voice_pull: Arc<dyn IPacketPull> = capsule
        .query_interface(vq, IPACKET_PULL)
        .unwrap()
        .downcast()
        .unwrap();
    let bulk_pull: Arc<dyn IPacketPull> = capsule
        .query_interface(bq, IPACKET_PULL)
        .unwrap()
        .downcast()
        .unwrap();
    let default_pull: Arc<dyn IPacketPull> = capsule
        .query_interface(dq, IPACKET_PULL)
        .unwrap()
        .downcast()
        .unwrap();

    Rig {
        _capsule: capsule,
        entry,
        classifier,
        proc4,
        voice_q,
        bulk_q,
        default_q,
        err_sink,
        voice_pull,
        bulk_pull,
        default_pull,
    }
}

fn fingerprint(pkt: &Packet) -> (Vec<u8>, Option<u8>, Option<netkit_packet::packet::Color>) {
    (pkt.data().to_vec(), pkt.meta.dscp, pkt.meta.color)
}

fn drain_scalar(pull: &Arc<dyn IPacketPull>) -> Vec<Packet> {
    let mut out = Vec::new();
    while let Some(pkt) = pull.pull() {
        out.push(pkt);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn batch_path_is_equivalent_to_scalar_path(
        specs in proptest::collection::vec(packet_strategy(), 0..96),
        // Batch sizing plan; consumed cyclically. Includes 0 and 1 so
        // empty and singleton batches are always exercised.
        sizes in proptest::collection::vec(
            prop_oneof![Just(0usize), Just(1usize), 2usize..48],
            1..8,
        ),
    ) {
        let scalar = rig();
        let batched = rig();
        let packets: Vec<Packet> = specs.iter().map(build_packet).collect();

        // Scalar reference: one push per packet.
        let scalar_verdicts: Vec<PushResult> =
            packets.iter().map(|p| scalar.entry.push(p.clone())).collect();

        // Batch run: same sequence, chunked by the size plan. A
        // trailing nonzero entry guarantees progress even when the
        // random plan is all zeros (zero-size entries still exercise
        // empty batches along the way).
        let mut sizes = sizes;
        sizes.push(7);
        let mut batch_verdicts: Vec<PushResult> = Vec::with_capacity(packets.len());
        let mut remaining = &packets[..];
        let mut size_plan = sizes.iter().copied().cycle();
        while !remaining.is_empty() {
            let take = size_plan.next().expect("cycle is infinite").min(remaining.len());
            let (chunk, rest) = remaining.split_at(take);
            remaining = rest;
            let batch: PacketBatch = chunk.to_vec().into();
            let chunk_len = chunk.len();
            let result = batched.entry.push_batch(batch);
            prop_assert_eq!(result.len(), chunk_len, "one verdict per packet");
            batch_verdicts.extend(result.verdicts);
        }

        // 1. Identical per-packet verdicts (drop reasons included).
        prop_assert_eq!(&scalar_verdicts, &batch_verdicts);

        // 2. Identical element counters.
        prop_assert_eq!(scalar.classifier.stats(), batched.classifier.stats());
        prop_assert_eq!(scalar.proc4.stats(), batched.proc4.stats());
        prop_assert_eq!(scalar.voice_q.stats(), batched.voice_q.stats());
        prop_assert_eq!(scalar.bulk_q.stats(), batched.bulk_q.stats());
        prop_assert_eq!(scalar.default_q.stats(), batched.default_q.stats());
        prop_assert_eq!(scalar.err_sink.count(), batched.err_sink.count());

        // 3. Identical per-output packet sequences (bytes + metadata),
        //    with the batch side drained via pull_batch and the scalar
        //    side via pull.
        for (s_pull, b_pull) in [
            (&scalar.voice_pull, &batched.voice_pull),
            (&scalar.bulk_pull, &batched.bulk_pull),
            (&scalar.default_pull, &batched.default_pull),
        ] {
            let s_seq: Vec<_> = drain_scalar(s_pull).iter().map(fingerprint).collect();
            let mut b_seq = Vec::new();
            loop {
                let burst = b_pull.pull_batch(7);
                if burst.is_empty() {
                    break;
                }
                b_seq.extend(burst.iter().map(fingerprint));
            }
            prop_assert_eq!(s_seq, b_seq);
        }
    }

    #[test]
    fn empty_and_singleton_batches_are_wellformed(spec in packet_strategy()) {
        let r = rig();
        let empty = r.entry.push_batch(PacketBatch::new());
        prop_assert!(empty.is_empty());

        let pkt = build_packet(&spec);
        let scalar_rig = rig();
        let scalar = scalar_rig.entry.push(pkt.clone());
        let single = r.entry.push_batch(PacketBatch::from_packets(vec![pkt]));
        prop_assert_eq!(single.len(), 1);
        prop_assert_eq!(&single.verdicts[0], &scalar);
    }
}

// ---- the library's splitting and stateful elements ----------------------
//
// The property above covers one chain. The one below drives every other
// library element that has a batch body of its own — route lookup, the
// flow elements, the duplicator, the policer and the protocol
// recogniser — one packet at a time and in arbitrary batch sizes, and
// requires the same verdicts, output sequences and counters either way.

/// What reached a recording sink: frame bytes plus the annotations the
/// elements under test write.
type Seen = (Vec<u8>, Option<u16>, Option<std::net::IpAddr>);

/// A scalar-only sink (it states `push` alone, as a Fig-2 component
/// would) that records what reaches it. With `refuse` set it answers
/// `QueueFull` to every frame whose length is a multiple of five, so
/// the element in front of it has mixed downstream verdicts to scatter.
struct Recorder {
    core: ComponentCore,
    refuse: bool,
    seen: std::sync::Mutex<Vec<Seen>>,
}

impl Recorder {
    fn new(refuse: bool) -> Arc<Self> {
        Arc::new(Self {
            core: ComponentCore::new(ComponentDescriptor::new(
                "test.Recorder",
                Version::new(1, 0, 0),
            )),
            refuse,
            seen: std::sync::Mutex::new(Vec::new()),
        })
    }

    fn seen(&self) -> Vec<Seen> {
        self.seen.lock().unwrap().clone()
    }
}

impl IPacketPush for Recorder {
    fn push(&self, pkt: Packet) -> PushResult {
        let refused = self.refuse && pkt.len().is_multiple_of(5);
        self.seen
            .lock()
            .unwrap()
            .push((pkt.data().to_vec(), pkt.meta.egress, pkt.meta.next_hop));
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

/// One frame the second property draws: `kind` picks the traffic class,
/// the rest vary it.
#[derive(Clone, Debug)]
struct FrameSpec {
    kind: u8,
    a: u8,
    b: u8,
    flags: u8,
    payload_len: usize,
}

fn frame_strategy() -> impl Strategy<Value = FrameSpec> {
    (0u8..10, any::<u8>(), any::<u8>(), 0u8..6, 0usize..96).prop_map(
        |(kind, a, b, flags, payload_len)| FrameSpec {
            kind,
            a,
            b,
            flags,
            payload_len,
        },
    )
}

const VIP: &str = "10.99.0.1";
const BACKENDS: [&str; 3] = ["10.1.0.1", "10.1.0.2", "10.1.0.3"];

fn tcp_flags(pick: u8) -> Option<TcpFlags> {
    match pick {
        0 => None, // UDP
        1 => Some(TcpFlags::SYN),
        2 => Some(TcpFlags::SYN | TcpFlags::ACK),
        3 => Some(TcpFlags::ACK),
        4 => Some(TcpFlags::RST | TcpFlags::ACK),
        _ => Some(TcpFlags::FIN | TcpFlags::ACK),
    }
}

fn l4_v4(src: &str, dst: &str, sport: u16, dport: u16, spec: &FrameSpec) -> Packet {
    match tcp_flags(spec.flags) {
        None => PacketBuilder::udp_v4(src, dst, sport, dport),
        Some(flags) => PacketBuilder::tcp_v4(src, dst, sport, dport).tcp_flags(flags),
    }
    .payload_len(spec.payload_len)
    .build()
}

fn build_frame(spec: &FrameSpec) -> Packet {
    let inside = format!("10.0.0.{}", spec.a % 8);
    let remote = format!("203.0.113.{}", spec.b % 4);
    let client = 7000 + u16::from(spec.a % 2);
    match spec.kind {
        // Outbound: inside hosts to four remotes, NAT translates them.
        0..=2 => l4_v4(&inside, &remote, 1000 + u16::from(spec.b % 6), 80, spec),
        // Inbound to the NAT's external address, bound or not.
        3 => l4_v4(
            &remote,
            "192.0.2.1",
            80,
            40_000 + u16::from(spec.a % 4),
            spec,
        ),
        // Clients to the balancer's VIP …
        4 => l4_v4("10.0.0.9", VIP, client, 80, spec),
        // … and backend replies to them.
        5 => l4_v4(
            BACKENDS[usize::from(spec.b % 3)],
            "10.0.0.9",
            8080,
            client,
            spec,
        ),
        6 => PacketBuilder::udp_v6("2001:db8::1", "2001:db8::2", client, 53)
            .payload_len(spec.payload_len)
            .build(),
        // ARP and an unknown EtherType: no flow, no route.
        7 | 8 => {
            let mut pkt = l4_v4(&inside, &remote, 1000, 80, spec);
            let ethertype: [u8; 2] = if spec.kind == 7 {
                [0x08, 0x06]
            } else {
                [0x88, 0xb5]
            };
            pkt.data_mut()[12..14].copy_from_slice(&ethertype);
            pkt
        }
        // A runt: no Ethernet header at all.
        _ => Packet::from_slice(&[spec.a; 10]),
    }
}

/// The elements under test, each fed the whole traffic mix through its
/// capsule-resolved (interception-wrapped) `IPacketPush`.
struct Lanes {
    _capsule: Arc<Capsule>,
    clock: Arc<VirtualClock>,
    sketch: Arc<FlowSketch>,
    entries: Vec<Arc<dyn IPacketPush>>,
    recorders: Vec<Arc<Recorder>>,
    route: Arc<RouteLookup>,
    route_bare: Arc<RouteLookup>,
    nat: Arc<Nat44>,
    lb: Arc<L4LoadBalancer>,
    lb_empty: Arc<L4LoadBalancer>,
    tracker: Arc<ConnTracker>,
    guard: Arc<Guard>,
    tee: Arc<Tee>,
    policer: Arc<Policer>,
    recog: Arc<ProtocolRecogniser>,
    recog_bare: Arc<ProtocolRecogniser>,
}

fn lanes() -> Lanes {
    let rt = Runtime::new();
    register_packet_interfaces(&rt);
    let capsule = Capsule::new("lanes", &rt);
    let clock = Arc::new(VirtualClock::new());
    let sketch = Arc::new(FlowSketch::new(SketchConfig::default()));

    // Egress 0 and 1 have outputs of their own, 2, 3 and 5 fall back to
    // `out`; 10.99/16 and everything IPv6 have no route.
    let table = || {
        let mut table = RoutingTable::new();
        for (prefix, egress) in [
            ("203.0.113.0/32", 0),
            ("203.0.113.1/32", 1),
            ("203.0.113.2/32", 2),
            ("203.0.113.3/32", 3),
            ("10.0.0.0/16", 1),
            ("10.1.0.0/16", 5),
            ("192.0.2.0/24", 2),
        ] {
            table.add(
                prefix,
                RouteEntry {
                    egress,
                    next_hop: None,
                },
            );
        }
        table
    };
    let route = RouteLookup::with_table(table());
    let route_bare = RouteLookup::with_table(table());
    let nat = Nat44::new(Nat44Config {
        external_ip: "192.0.2.1".parse().unwrap(),
        port_base: 40_000,
        blocks: 1,
        block_size: 4,
        table_capacity: 16,
        idle_timeout: u64::MAX,
    });
    let lb = L4LoadBalancer::new(VIP.parse().unwrap(), 80, 64, u64::MAX);
    for ip in BACKENDS {
        lb.put(&TableEntry::Backend {
            ip: ip.into(),
            port: 8080,
        })
        .unwrap();
    }
    let lb_empty = L4LoadBalancer::new(VIP.parse().unwrap(), 80, 8, u64::MAX);
    let tracker = ConnTracker::with_table(8, u64::MAX);
    let guard = Guard::new(
        Arc::clone(&sketch),
        GuardConfig {
            byte_threshold: 300,
            window_budget: 400,
            table_capacity: 4,
            ..GuardConfig::default()
        },
    );
    let tee = Tee::new();
    let tee_bare = Tee::new();
    let policer = Policer::new(1e6, 400.0, Arc::clone(&clock));
    let recog = ProtocolRecogniser::new();
    let recog_bare = ProtocolRecogniser::new();

    let mut entries = Vec::new();
    let mut recorders = Vec::new();
    let mut add = |component: Arc<dyn Component>, outs: &[(&str, bool)]| {
        let id = capsule.adopt(component).unwrap();
        for &(label, refuse) in outs {
            let sink = Recorder::new(refuse);
            let sid = capsule.adopt(sink.clone()).unwrap();
            capsule.bind(id, "out", label, sid, IPACKET_PUSH).unwrap();
            recorders.push(sink);
        }
        let entry: Arc<dyn IPacketPush> = capsule
            .query_interface(id, IPACKET_PUSH)
            .unwrap()
            .downcast()
            .unwrap();
        entries.push(entry);
    };
    add(route.clone(), &[("0", false), ("1", true), ("out", true)]);
    add(route_bare.clone(), &[("0", false)]);
    add(nat.clone(), &[("out", true)]);
    add(lb.clone(), &[("out", true)]);
    add(lb_empty.clone(), &[("out", false)]);
    add(tracker.clone(), &[("out", true)]);
    add(guard.clone(), &[("out", true)]);
    add(tee.clone(), &[("a", false), ("b", true)]);
    add(tee_bare, &[]);
    add(policer.clone(), &[("out", true)]);
    add(recog.clone(), &[("ipv4", true), ("other", false)]);
    add(recog_bare.clone(), &[("ipv4", false)]);

    Lanes {
        _capsule: capsule,
        clock,
        sketch,
        entries,
        recorders,
        route,
        route_bare,
        nat,
        lb,
        lb_empty,
        tracker,
        guard,
        tee,
        policer,
        recog,
        recog_bare,
    }
}

/// Every counter the elements under test expose, rendered comparable.
fn lane_counters(l: &Lanes) -> Vec<String> {
    vec![
        format!("{:?} {:?}", l.route.stats(), l.route_bare.stats()),
        format!(
            "{:?} {} {}",
            l.nat.stats(),
            l.nat.bindings(),
            l.nat.ports_in_use()
        ),
        format!("{:?} {:?}", l.lb.counters(), l.lb.backends()),
        format!("{:?} {:?}", l.lb_empty.counters(), l.lb_empty.backends()),
        format!(
            "{} {} {} {:?}",
            l.tracker.len(),
            l.tracker.untracked(),
            l.tracker.half_open(),
            l.tracker.table_stats()
        ),
        format!("{:?}", l.guard.stats()),
        format!("{}", l.tee.forwarded()),
        format!("{:?}", l.policer.stats()),
        format!("{} {}", l.recog.unroutable(), l.recog_bare.unroutable()),
    ]
}

/// One step of a run: the clock moves and the guard's sketch records
/// the chunk (as a shard worker does before its graph runs), then the
/// chunk goes to every element.
fn begin_chunk(l: &Lanes, chunk: &[Packet]) {
    l.clock.advance(50_000);
    for pkt in chunk {
        l.sketch.record_packet(pkt);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn library_elements_agree_one_packet_at_a_time_and_batched(
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

        let single = lanes();
        let batched = lanes();
        let lanes_n = single.entries.len();
        let mut single_verdicts: Vec<Vec<PushResult>> = vec![Vec::new(); lanes_n];
        let mut batch_verdicts: Vec<Vec<PushResult>> = vec![Vec::new(); lanes_n];
        for chunk in &chunks {
            begin_chunk(&single, chunk);
            for pkt in chunk.iter() {
                for (lane, entry) in single.entries.iter().enumerate() {
                    single_verdicts[lane].push(entry.push(pkt.clone()));
                }
            }
            begin_chunk(&batched, chunk);
            for (lane, entry) in batched.entries.iter().enumerate() {
                let result = entry.push_batch(chunk.to_vec().into());
                prop_assert_eq!(result.len(), chunk.len(), "one verdict per packet");
                batch_verdicts[lane].extend(result.verdicts);
            }
        }

        // 1. Identical per-packet verdicts, element by element.
        for lane in 0..lanes_n {
            prop_assert_eq!(&single_verdicts[lane], &batch_verdicts[lane], "lane {}", lane);
        }
        // 2. Identical counters.
        prop_assert_eq!(lane_counters(&single), lane_counters(&batched));
        // 3. Identical sequences on every output.
        for (i, (s, b)) in single.recorders.iter().zip(&batched.recorders).enumerate() {
            prop_assert_eq!(s.seen(), b.seen(), "output {}", i);
        }
    }
}
