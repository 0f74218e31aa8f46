//! **Flow-state survival across rebalancing** — migrating a bucket
//! mid-connection must not lose, duplicate, or reorder the flow's
//! packets, and must not knock the connection's tracked state back to
//! square one.
//!
//! Eight TCP connections, all colocated on shard 0 under the identity
//! table (colliding buckets, as in `rebalance_elephant.rs`), each run
//! a handshake plus data segments through a per-shard [`ConnTracker`].
//! Mid-connection, the profiled skew triggers a real
//! `install_bucket_map` migration; the connections keep sending.
//!
//! Asserted:
//!
//! 1. **No loss, no duplication, per-flow order** — the global arrival
//!    log shows every flow's full segment sequence exactly once, in
//!    order, across the migration epoch.
//! 2. **State is re-established deterministically, not migrated** —
//!    the design documented in `netkit_router::flow`: per-shard tables
//!    are single-writer, so a migrated flow's entry is *not* copied to
//!    the new shard. Instead the new shard's tracker re-admits the
//!    flow on its first post-migration segment, and because that
//!    segment is a mid-stream ACK (no SYN), the `ConnInfo` state
//!    machine promotes it to `Established` **immediately** — one
//!    packet, no window of degraded treatment. The old shard's entry
//!    simply idles out. Both sides of that contract are asserted here.

use std::net::Ipv4Addr;
use std::sync::Arc;

use netkit::kernel::shard::ShardSpec;
use netkit::opencom::capsule::Capsule;
use netkit::opencom::meta::resources::ResourceManager;
use netkit::opencom::runtime::Runtime;
use netkit::packet::batch::PacketBatch;
use netkit::packet::flow::FlowKey;
use netkit::packet::headers::{proto, EtherType, EthernetHeader, Ipv4Header, MacAddr, TcpHeader};
use netkit::packet::packet::Packet;
use netkit::router::api::{register_packet_interfaces, IPacketPush, PushResult};
use netkit::router::flow::{ConnState, ConnTracker};
use netkit::router::shard::{RebalanceController, RebalancePolicy, ShardGraph, ShardedPipeline};
use parking_lot::Mutex;

const WORKERS: usize = 4;
const FLOWS: u16 = 8;
const SEGMENTS_BEFORE: u32 = 8;
const SEGMENTS_AFTER: u32 = 8;

const SYN: u8 = 0x02;
const ACK: u8 = 0x10;

fn tcp_frame(src_port: u16, seq: u32, flags: u8) -> Packet {
    let mut buf = Vec::new();
    EthernetHeader {
        dst: MacAddr([2, 0, 0, 0, 0, 2]),
        src: MacAddr([2, 0, 0, 0, 0, 1]),
        ethertype: EtherType::Ipv4,
    }
    .write(&mut buf);
    Ipv4Header {
        dscp: 0,
        ecn: 0,
        total_len: (Ipv4Header::MIN_LEN + TcpHeader::MIN_LEN) as u16,
        identification: seq as u16,
        dont_fragment: true,
        more_fragments: false,
        fragment_offset: 0,
        ttl: 64,
        protocol: proto::TCP,
        checksum: 0,
        src: Ipv4Addr::new(10, 0, 0, 1),
        dst: Ipv4Addr::new(10, 0, 9, 9),
        header_len: Ipv4Header::MIN_LEN,
    }
    .write(&mut buf);
    // Option-less 20-byte TCP header; zero checksum (the parser does
    // not verify, and the rewrite layer skips zero checksum fields).
    buf.extend_from_slice(&src_port.to_be_bytes());
    buf.extend_from_slice(&443u16.to_be_bytes());
    buf.extend_from_slice(&seq.to_be_bytes());
    buf.extend_from_slice(&0u32.to_be_bytes()); // ack number
    buf.push(5 << 4); // data offset 5 words
    buf.push(flags);
    buf.extend_from_slice(&1024u16.to_be_bytes()); // window
    buf.extend_from_slice(&0u16.to_be_bytes()); // checksum
    buf.extend_from_slice(&0u16.to_be_bytes()); // urgent
    Packet::from_slice(&buf)
}

/// Tracks through the shard's ConnTracker (sink mode), then records
/// the arrival in the global log — the per-shard stateful stage plus
/// the observation point, in one entry element.
struct TrackAndRecord {
    tracker: Arc<ConnTracker>,
    log: Arc<Mutex<Vec<(u16, u32)>>>,
}

impl IPacketPush for TrackAndRecord {
    fn push(&self, pkt: Packet) -> PushResult {
        let tcp = TcpHeader::parse(&pkt.data()[EthernetHeader::LEN + Ipv4Header::MIN_LEN..])
            .expect("tcp frame");
        self.log.lock().push((tcp.src_port, tcp.seq));
        self.tracker.push(pkt)
    }
}

fn bucket_of_port(port: u16) -> usize {
    FlowKey::from_packet(&tcp_frame(port, 0, ACK))
        .unwrap()
        .bucket()
}

/// `FLOWS` source ports whose buckets are distinct but all congruent
/// to shard 0 under the identity table.
fn colliding_ports() -> Vec<u16> {
    let mut ports = Vec::new();
    let mut seen = Vec::new();
    let mut port = 20_000u16;
    while (ports.len() as u16) < FLOWS {
        let b = bucket_of_port(port);
        if b.is_multiple_of(WORKERS) && !seen.contains(&b) {
            ports.push(port);
            seen.push(b);
        }
        port += 1;
    }
    ports
}

#[test]
fn connections_survive_a_mid_stream_migration() {
    let log: Arc<Mutex<Vec<(u16, u32)>>> = Arc::new(Mutex::new(Vec::new()));
    let trackers: Arc<Mutex<Vec<Arc<ConnTracker>>>> = Arc::new(Mutex::new(Vec::new()));
    let rm = Arc::new(ResourceManager::new());
    let (log2, trackers2) = (Arc::clone(&log), Arc::clone(&trackers));
    let pipe = ShardedPipeline::build(
        "flow-survival",
        ShardSpec::new(WORKERS),
        Arc::clone(&rm),
        move |_| {
            let rt = Runtime::new();
            register_packet_interfaces(&rt);
            let capsule = Capsule::new("shard", &rt);
            let tracker = ConnTracker::new();
            trackers2.lock().push(Arc::clone(&tracker));
            let entry: Arc<dyn IPacketPush> = Arc::new(TrackAndRecord {
                tracker,
                log: Arc::clone(&log2),
            });
            Ok(ShardGraph::new(capsule, entry))
        },
    )
    .expect("pipeline builds");
    let trackers = std::mem::take(&mut *trackers.lock());
    let ports = colliding_ports();

    // --- phase 1: handshake + data, all colocated on shard 0 --------
    // seq 0 is the SYN; seqs 1..=SEGMENTS_BEFORE are mid-stream ACKs.
    let mut phase1 = PacketBatch::new();
    for &port in &ports {
        phase1.push(tcp_frame(port, 0, SYN));
    }
    pipe.dispatch(phase1);
    for seq in 1..=SEGMENTS_BEFORE {
        let batch: PacketBatch = ports.iter().map(|&p| tcp_frame(p, seq, ACK)).collect();
        pipe.dispatch(batch);
    }
    pipe.flush();
    for &port in &ports {
        let key = FlowKey::from_packet(&tcp_frame(port, 0, ACK)).unwrap();
        let info = trackers[0].info(&key).expect("colocated on shard 0");
        assert_eq!(info.state, ConnState::Established, "flow {port}");
        assert_eq!(info.packets(), 1 + SEGMENTS_BEFORE as u64);
    }

    // --- the migration: a real profiled plan, mid-connection --------
    let mut ctl = RebalanceController::new(
        RebalancePolicy {
            min_samples: 32,
            pressure_weight: 0.0,
            decay: 1.0,
            ..RebalancePolicy::default()
        },
        0,
    );
    let (plan, report) = pipe
        .control_turn(&mut ctl, &[])
        .expect("full colocation must trigger");
    assert!(!plan.moved.is_empty());
    assert_eq!(report.dropped, 0);
    let map = pipe.bucket_map();
    let migrated: Vec<u16> = ports
        .iter()
        .copied()
        .filter(|&p| map.shard_of_bucket(bucket_of_port(p)) != 0)
        .collect();
    assert!(!migrated.is_empty(), "some connections must have moved");

    // --- phase 2: the same connections keep talking ------------------
    for seq in 0..SEGMENTS_AFTER {
        let batch: PacketBatch = ports
            .iter()
            .map(|&p| tcp_frame(p, 1 + SEGMENTS_BEFORE + seq, ACK))
            .collect();
        pipe.dispatch(batch);
    }
    pipe.flush();

    // 1. No loss, no duplication, per-flow order across the epoch.
    let total = ports.len() * (1 + SEGMENTS_BEFORE as usize + SEGMENTS_AFTER as usize);
    let log = log.lock();
    assert_eq!(log.len(), total, "nothing lost, nothing duplicated");
    for &port in &ports {
        let seqs: Vec<u32> = log
            .iter()
            .filter(|(p, _)| *p == port)
            .map(|(_, s)| *s)
            .collect();
        let expect: Vec<u32> = (0..=(SEGMENTS_BEFORE + SEGMENTS_AFTER)).collect();
        assert_eq!(seqs, expect, "flow {port}: broken across the migration");
    }

    // 2. Deterministic re-establishment on the new shard: the first
    //    post-migration segment was a mid-stream ACK, so the new
    //    shard's tracker shows Established with exactly the phase-2
    //    packets — no SYN replay, no state regression window.
    for &port in &migrated {
        let shard = map.shard_of_bucket(bucket_of_port(port));
        let key = FlowKey::from_packet(&tcp_frame(port, 0, ACK)).unwrap();
        let info = trackers[shard]
            .info(&key)
            .expect("re-admitted on the new shard");
        assert_eq!(
            info.state,
            ConnState::Established,
            "flow {port}: one ACK must re-establish immediately"
        );
        assert_eq!(info.packets(), SEGMENTS_AFTER as u64);
        // The old shard's entry was not torn down by the migration —
        // it idles out under the table's eviction policy instead.
        let stale = trackers[0].info(&key).expect("old entry left to idle out");
        assert_eq!(stale.packets(), 1 + SEGMENTS_BEFORE as u64);
    }
    pipe.shutdown();
}
