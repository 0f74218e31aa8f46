//! Reservations under rebalance: an RSVP agent riding a
//! simulator-hosted [`PipelineNode`] as its control tap must keep its
//! soft state alive across a mid-run bucket-map migration of the
//! node's own dataplane — signaling and steering are independent
//! planes, and re-homing flows must never tear down a reservation.
//!
//! Also pins the expiry sweep's determinism: when several sessions
//! expire in one sweep tick, the `Expired` events surface in sorted
//! session order on every run (the state maps iterate in RandomState
//! order; the agent must sort before emitting).

use std::net::Ipv4Addr;
use std::sync::Arc;

use netkit_kernel::shard::ShardSpec;
use netkit_kernel::time::SimTime;
use netkit_packet::packet::{Packet, PacketBuilder};
use netkit_packet::steer::{BucketMap, RSS_BUCKETS};
use netkit_router::api::IPacketPush;
use netkit_router::flow::ConnTracker;
use netkit_router::shard::ShardGraph;
use netkit_signaling::{FlowSpec, RsvpAgent, RsvpConfig, RsvpEvent, SessionId, RSVP_PORT};
use netkit_sim::link::LinkSpec;
use netkit_sim::pipeline::{PipelineNode, RouteAction};
use netkit_sim::Simulator;

fn addr(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, last)
}

fn agent(last: u8, refresh_ns: u64) -> RsvpAgent {
    RsvpAgent::new(
        addr(last),
        RsvpConfig {
            refresh_ns,
            lifetime_mult: 3,
            sweep_ns: 200_000,
        },
    )
}

/// True for RSVP control packets — the tap predicate.
fn is_rsvp(pkt: &Packet) -> bool {
    pkt.udp_v4()
        .map(|u| u.dst_port == RSVP_PORT)
        .unwrap_or(false)
}

fn kick(sim: &mut Simulator, node: netkit_sim::node::NodeId) {
    let dummy = PacketBuilder::udp_v4("10.9.9.9", "10.9.9.8", 1, 1).build();
    sim.inject_after(node, 0, dummy);
}

/// The everything-flipped migration target: every bucket re-homed to
/// the other shard of a two-shard node.
fn flipped() -> BucketMap {
    let mut map = BucketMap::identity(2);
    for bucket in 0..RSS_BUCKETS {
        map.set(bucket, 1 - bucket % 2);
    }
    map
}

/// A ─ M ─ B, where M is a two-shard pipeline node whose control tap
/// is a full RSVP agent: data crosses M's conntrack dataplane, PATH
/// and RESV are diverted to the agent before the dataplane sees them.
#[test]
fn reservation_survives_midrun_migration() {
    let mut sim = Simulator::new(3);

    let sender = sim.add_node(Box::new({
        let mut a = agent(1, 1_000_000);
        a.route(addr(3), 0).budget(0, 10_000_000);
        a
    }));

    let mid = {
        let mut tap_agent = agent(2, 1_000_000);
        tap_agent
            .route(addr(1), 0)
            .route(addr(3), 1)
            .budget(0, 10_000_000)
            .budget(1, 10_000_000);
        let node = PipelineNode::build("mid", ShardSpec::new(2), |site| {
            let (capsule, _rt) = PipelineNode::shard_capsule();
            let tracker = ConnTracker::new();
            let tid = capsule.adopt(tracker.clone())?;
            let eid = capsule.adopt(site.egress.clone())?;
            capsule.bind_simple(tid, "out", eid, netkit_router::api::IPACKET_PUSH)?;
            let entry: Arc<dyn IPacketPush> = tracker;
            Ok(ShardGraph::new(capsule, entry))
        })
        .expect("mid node builds")
        .with_route(Box::new(|pkt| {
            match pkt.ipv4().map(|ip| ip.dst.octets()[3]) {
                Ok(1) => RouteAction::Forward(0),
                Ok(3) => RouteAction::Forward(1),
                _ => RouteAction::Drop,
            }
        }))
        .with_control_tap(Box::new(is_rsvp), Box::new(tap_agent));
        sim.add_node(Box::new(node))
    };

    let receiver = sim.add_node(Box::new({
        let mut b = agent(3, 1_000_000);
        b.route(addr(1), 0).budget(0, 10_000_000);
        b
    }));

    sim.connect(sender, mid, LinkSpec::lan());
    sim.connect(mid, receiver, LinkSpec::lan());

    // Open the session and let the PATH/RESV handshake complete.
    let session = SessionId(7);
    sim.node_behaviour_mut::<RsvpAgent>(sender)
        .expect("sender")
        .open_session(
            session,
            addr(3),
            FlowSpec {
                bandwidth_bps: 1_000_000,
            },
        );
    kick(&mut sim, sender);
    sim.run_for(5_000_000);

    {
        let s = sim.node_behaviour_mut::<RsvpAgent>(sender).expect("sender");
        assert!(
            s.take_events().contains(&RsvpEvent::Established(session)),
            "reservation must establish through the pipeline node's tap"
        );
        let m = sim
            .node_behaviour_mut::<PipelineNode>(mid)
            .expect("mid node")
            .tap_mut::<RsvpAgent>()
            .expect("tap agent");
        assert_eq!(m.reserved_sessions(), [session]);
        assert_eq!(m.allocated_on(1), 1_000_000);
    }

    // Data crosses the dataplane while refreshes keep the state warm.
    let data_packets = 40u64;
    for i in 0..data_packets {
        let pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.3", 5_000 + (i % 4) as u16, 443)
            .payload(&[0u8; 64])
            .build();
        // Delays are relative to now (5 ms): the stream spans
        // 5 ms..7 ms, straddling the 6 ms migration below.
        sim.inject_after(sender, i * 50_000, pkt);
    }

    // Halfway through the stream: flip every bucket to the other
    // shard — the heaviest possible migration of M's dataplane.
    sim.run_until(SimTime::from_nanos(6_000_000));
    {
        let m = sim
            .node_behaviour_mut::<PipelineNode>(mid)
            .expect("mid node");
        let report = m.pipeline().install_bucket_map(flipped(), &[]);
        assert_eq!(report.dropped, 0, "migration must not drop in-flight work");
        assert!(report.moved_buckets > 0);
    }
    sim.run_for(6_000_000);

    // The reservation outlived the migration; the data all executed.
    let m = sim
        .node_behaviour_mut::<PipelineNode>(mid)
        .expect("mid node");
    assert_eq!(m.pipeline().migrations(), 1);
    assert_eq!(
        m.pipeline().stats().packets,
        data_packets,
        "every data packet crosses the dataplane; control stays in the tap"
    );
    let tap = m.tap_mut::<RsvpAgent>().expect("tap agent");
    assert_eq!(
        tap.reserved_sessions(),
        [session],
        "soft state must survive the bucket-map migration"
    );
    assert_eq!(tap.allocated_on(1), 1_000_000);
    assert!(
        !tap.take_events().contains(&RsvpEvent::Expired(session)),
        "refreshes crossing the migration must keep the state alive"
    );
    let r = sim
        .node_behaviour_mut::<RsvpAgent>(receiver)
        .expect("receiver");
    assert!(r.take_events().contains(&RsvpEvent::PathArrived(session)));
}

/// Four sessions left to expire in the same sweep tick must surface
/// their `Expired` events in session order, run after run — the
/// regression pin for the sweep's sorted iteration.
#[test]
fn expiry_sweep_surfaces_sessions_in_order() {
    let run = || -> Vec<RsvpEvent> {
        let mut sim = Simulator::new(9);
        // Sender refreshes far too slowly for the middle node's
        // 3 ms lifetime: every session's soft state dies mid-run.
        let sender = sim.add_node(Box::new({
            let mut a = agent(1, 100_000_000);
            a.route(addr(3), 0).budget(0, 50_000_000);
            a
        }));
        let mid = sim.add_node(Box::new({
            let mut m = agent(2, 1_000_000);
            m.route(addr(1), 0).route(addr(3), 1);
            m.budget(0, 50_000_000).budget(1, 50_000_000);
            m
        }));
        let receiver = sim.add_node(Box::new({
            let mut b = agent(3, 1_000_000);
            b.route(addr(1), 0).budget(0, 50_000_000);
            b
        }));
        sim.connect(sender, mid, LinkSpec::lan());
        sim.connect(mid, receiver, LinkSpec::lan());

        // Deliberately out-of-order ids: insertion order must not be
        // what makes the output ordered.
        for id in [11, 3, 7, 5] {
            sim.node_behaviour_mut::<RsvpAgent>(sender)
                .expect("sender")
                .open_session(
                    SessionId(id),
                    addr(3),
                    FlowSpec {
                        bandwidth_bps: 1_000_000,
                    },
                );
        }
        kick(&mut sim, sender);
        sim.run_for(12_000_000);
        sim.node_behaviour_mut::<RsvpAgent>(mid)
            .expect("mid")
            .take_events()
    };

    let events = run();
    let expired: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            RsvpEvent::Expired(SessionId(id)) => Some(*id),
            _ => None,
        })
        .collect();
    assert_eq!(
        expired.len(),
        8,
        "path and resv state for all four sessions expire: {events:?}"
    );
    // Each sweep batch (path expiries, then resv expiries) comes out
    // sorted by session id.
    for half in expired.chunks(4) {
        assert_eq!(half, [3, 5, 7, 11], "sweep must emit in session order");
    }
    // And the whole event stream replays identically.
    assert_eq!(events, run(), "expiry sweep must be deterministic");
}
