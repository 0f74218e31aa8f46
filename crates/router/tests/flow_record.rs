//! The parse-once contract, end to end: frames enter through the NIC,
//! are parsed there once, and run guard → conntrack → nat44 → counter
//! without any element looking at the headers again; what the tables
//! hold never depends on the steering hash a driver chose; and IPv4
//! fragments — port-less, like RSS hardware treats them — stay on one
//! shard and cross the NAT untouched.

use std::sync::Arc;

use netkit_kernel::nic::{Nic, PortId};
use netkit_packet::batch::PacketBatch;
use netkit_packet::flow::{FlowKey, ParsedFlow};
use netkit_packet::headers::TcpFlags;
use netkit_packet::packet::{Packet, PacketBuilder};
use netkit_packet::pool::BufferPool;
use netkit_packet::sketch::{FlowSketch, SketchConfig};
use netkit_router::api::{register_packet_interfaces, IPacketPull, IPacketPush, IPACKET_PUSH};
use netkit_router::elements::{Counter, DropTailQueue};
use netkit_router::flow::{ConnTracker, Guard, GuardConfig, Nat44, Nat44Config};
use opencom::capsule::Capsule;
use opencom::runtime::Runtime;

/// guard → conntrack → nat44 → counter, bound through a real capsule.
struct Edge {
    _capsule: Arc<Capsule>,
    entry: Arc<dyn IPacketPush>,
    tracker: Arc<ConnTracker>,
    nat: Arc<Nat44>,
    egress: Arc<Counter>,
}

fn edge() -> Edge {
    let rt = Runtime::new();
    register_packet_interfaces(&rt);
    let capsule = Capsule::new("edge", &rt);
    let tracker = ConnTracker::with_table(64, u64::MAX);
    // The SYN arm is armed from the first half-open connection on, so
    // the guard asks every packet for its TCP flags too.
    let guard = Guard::with_tracker(
        Arc::new(FlowSketch::new(SketchConfig::default())),
        Arc::clone(&tracker),
        GuardConfig {
            syn_limit: 0,
            syn_budget: u64::MAX,
            ..GuardConfig::default()
        },
    );
    let nat = Nat44::new(Nat44Config {
        table_capacity: 64,
        ..Nat44Config::default()
    });
    let egress = Counter::new();
    let g = capsule.adopt(guard.clone()).unwrap();
    let t = capsule.adopt(tracker.clone()).unwrap();
    let n = capsule.adopt(nat.clone()).unwrap();
    let e = capsule.adopt(egress.clone()).unwrap();
    capsule.bind_simple(g, "out", t, IPACKET_PUSH).unwrap();
    capsule.bind_simple(t, "out", n, IPACKET_PUSH).unwrap();
    capsule.bind_simple(n, "out", e, IPACKET_PUSH).unwrap();
    Edge {
        _capsule: capsule,
        entry: guard,
        tracker,
        nat,
        egress,
    }
}

/// A small mixed trace: TCP handshakes and data, UDP both ways of a
/// flow, an RST, a fragmented datagram, IPv6, and a non-IP frame.
fn trace() -> Vec<Packet> {
    let tcp = |sport: u16, flags| {
        PacketBuilder::tcp_v4("10.0.0.5", "203.0.113.9", sport, 443)
            .tcp_flags(flags)
            .payload_len(32)
            .build()
    };
    let mut out = Vec::new();
    for sport in 5000..5008 {
        out.push(tcp(sport, TcpFlags::SYN));
        out.push(tcp(sport, TcpFlags::ACK));
        out.push(tcp(sport, TcpFlags::ACK));
    }
    out.push(tcp(5003, TcpFlags::RST));
    for sport in 6000..6004 {
        out.push(PacketBuilder::udp_v4("10.0.0.6", "203.0.113.7", sport, 53).build());
        out.push(PacketBuilder::udp_v4("203.0.113.7", "10.0.0.6", 53, sport).build());
    }
    out.extend(fragments());
    out.push(PacketBuilder::udp_v6("2001:db8::1", "2001:db8::2", 7, 8).build());
    out.push(Packet::from_slice(&[0u8; 14]));
    out
}

/// One UDP datagram in three fragments; the later two carry payload
/// bytes that, misread as a UDP header, name different "ports" each.
fn fragments() -> [Packet; 3] {
    let frag = |offset, more, fill: u8| {
        PacketBuilder::udp_v4("10.0.0.8", "203.0.113.9", 7000, 53)
            .fragment(offset, more)
            .payload(&[fill; 24])
            .build()
    };
    [
        frag(0, true, 0xa1),
        frag(4, true, 0xb2),
        frag(7, false, 0xc3),
    ]
}

fn pooled_nic(queues: usize) -> Nic {
    Nic::with_queues(PortId(0), queues, 256, 256, 1_000_000_000)
        .with_buffer_pool(BufferPool::new(2048, 0, 256))
}

fn burst(nic: &Nic, queue: usize) -> PacketBatch {
    let mut batch = PacketBatch::new();
    nic.rx_burst_batch(queue, 256, &mut batch);
    batch
}

#[cfg(debug_assertions)]
mod parse_count {
    use super::*;
    use netkit_packet::flow::parses_on_this_thread as parses;

    #[test]
    fn no_element_parses_a_frame_the_nic_parsed() {
        let nic = pooled_nic(1);
        let frames = trace();
        let at_wire = parses();
        for pkt in &frames {
            assert!(nic.inject_rx_frame(pkt.data()));
        }
        assert!(parses() > at_wire, "the rx parse is counted");
        let after_rx = parses();
        let batch = burst(&nic, 0);
        assert_eq!(batch.len(), frames.len());
        // IPv4 frames carry the record the NIC made; the two frames
        // with no record (IPv6, non-IP) are the only ones anyone may
        // still have to look at.
        let unrecorded = batch.iter().filter(|p| p.meta.flow.is_none()).count();
        assert_eq!(unrecorded, 2);
        let edge = edge();
        let result = edge.entry.push_batch(batch);
        assert!(result.all_ok(), "{:?}", result.verdicts);
        assert_eq!(edge.egress.count(), frames.len() as u64);
        assert!(edge.nat.stats().translated_out > 0 && !edge.tracker.is_empty());
        // Only the IPv6 frame is a flow without a record, and only
        // conntrack tracks IPv6: its general parse is the one parse
        // after rx (guard and NAT stop at the ethertype).
        assert_eq!(parses() - after_rx, 1);

        // The same trace without the two record-less frames: zero.
        let ipv4: Vec<Packet> = frames
            .into_iter()
            .filter(|p| ParsedFlow::from_frame(p.data()).is_some())
            .collect();
        for pkt in &ipv4 {
            assert!(nic.inject_rx_frame(pkt.data()));
        }
        let after_rx = parses();
        let edge = self::edge();
        assert!(edge.entry.push_batch(burst(&nic, 0)).all_ok());
        assert_eq!(parses(), after_rx, "0 parses after rx on the IPv4 path");
        assert_eq!(edge.egress.count(), ipv4.len() as u64);
    }
}

#[test]
fn table_contents_do_not_depend_on_the_rx_path_or_the_steering_hash() {
    let frames = trace();
    let run = |stamp: &dyn Fn(usize, &mut Packet)| {
        let nic = pooled_nic(1);
        for pkt in &frames {
            assert!(nic.inject_rx_frame(pkt.data()));
        }
        let edge = edge();
        // Bursts of 8, so batch boundaries fall mid-flow.
        let mut seen = 0;
        loop {
            let mut batch = PacketBatch::new();
            if nic.rx_burst_batch(0, 8, &mut batch) == 0 {
                break;
            }
            for pkt in batch.packets_mut() {
                stamp(seen, pkt);
                seen += 1;
            }
            assert!(edge.entry.push_batch(batch).all_ok());
        }
        edge
    };
    let hardware = run(&|_, _| {});
    // `rss_hash` is a public field software may stamp. Garbage hashes:
    // constant, colliding, and unrelated to the tuple.
    let garbage = run(&|i, pkt| {
        pkt.meta.rss_hash = Some([0, u64::MAX, 0xdead_beef, i as u64 % 3][i % 4]);
    });
    assert_eq!(hardware.tracker.len(), garbage.tracker.len());
    assert_eq!(
        hardware.tracker.table_stats(),
        garbage.tracker.table_stats()
    );
    assert_eq!(hardware.tracker.half_open(), garbage.tracker.half_open());
    assert_eq!(hardware.tracker.untracked(), garbage.tracker.untracked());
    assert_eq!(hardware.nat.stats(), garbage.nat.stats());
    assert_eq!(hardware.nat.bindings(), garbage.nat.bindings());
    assert_eq!(hardware.nat.ports_in_use(), garbage.nat.ports_in_use());
    let mut flows = 0;
    for key in frames.iter().filter_map(FlowKey::from_packet) {
        assert_eq!(
            hardware.tracker.info(&key),
            garbage.tracker.info(&key),
            "{key}"
        );
        assert_eq!(
            hardware.nat.binding(&key),
            garbage.nat.binding(&key),
            "{key}"
        );
        flows += usize::from(hardware.tracker.info(&key).is_some());
    }
    assert!(flows > 20, "the trace really populated the tables");
}

#[test]
fn fragments_of_one_datagram_stay_together_and_cross_the_nat_untouched() {
    // Same hash, same queue — per-flow order survives fragmentation.
    let nic = pooled_nic(4);
    let frags = fragments();
    for pkt in &frags {
        assert!(nic.inject_rx_frame(pkt.data()));
    }
    let queue = FlowKey::from_packet(&frags[0]).unwrap().shard_for(4);
    let batch = burst(&nic, queue);
    assert_eq!(batch.len(), 3, "all three fragments on queue {queue}");
    let hash = batch.packets()[0].meta.rss_hash;
    assert!(hash.is_some() && batch.iter().all(|p| p.meta.rss_hash == hash));

    // Across a NAT on its own, into a queue we can read back: what
    // comes out is what went in, byte for byte — no "port", no
    // "checksum" was written into payload bytes — and no binding or
    // port was spent on them.
    let rt = Runtime::new();
    register_packet_interfaces(&rt);
    let capsule = Capsule::new("nat", &rt);
    let nat = Nat44::new(Nat44Config::default());
    let out = DropTailQueue::new(8);
    let n = capsule.adopt(nat.clone()).unwrap();
    let q = capsule.adopt(out.clone()).unwrap();
    capsule.bind_simple(n, "out", q, IPACKET_PUSH).unwrap();
    assert!(nat.push_batch(batch).all_ok());
    let got: Vec<Vec<u8>> = std::iter::from_fn(|| out.pull())
        .map(|p| p.data().to_vec())
        .collect();
    let wire: Vec<Vec<u8>> = frags.iter().map(|p| p.data().to_vec()).collect();
    assert_eq!(got, wire);
    assert_eq!(nat.stats().passthrough, 3);
    assert_eq!((nat.bindings(), nat.ports_in_use()), (0, 0));

    // Through the whole edge: tracked as one port-less flow.
    let edge = edge();
    assert!(edge
        .entry
        .push_batch(frags.iter().cloned().collect())
        .all_ok());
    assert_eq!(edge.tracker.len(), 1, "one entry for the whole datagram");
    assert_eq!(edge.nat.stats().passthrough, 3);
    assert_eq!(edge.egress.count(), 3);
}
