//! End-to-end: **Router-CF nodes inside the simulated network** — the
//! "PC-based router" deployment of paper §5, with a classifier-steered
//! diffserv path per node, compared against the Click and monolithic
//! baselines doing the same job on the same topology shape.

use std::sync::Arc;

use netkit::baselines::click::ClickRouter;
use netkit::baselines::monolithic::MonolithicForwarder;
use netkit::opencom::capsule::Capsule;
use netkit::opencom::cf::Principal;
use netkit::opencom::runtime::Runtime;
use netkit::packet::packet::{Packet, PacketBuilder};
use netkit::router::api::{
    register_packet_interfaces, FilterPattern, FilterSpec, IClassifier, IPacketPull, IPacketPush,
    IPACKET_PULL, IPACKET_PUSH,
};
use netkit::router::cf::RouterCf;
use netkit::router::elements::{ClassifierEngine, DropTailQueue, PriorityScheduler};
use netkit::router::routing::{RouteEntry, RoutingTable};
use netkit::sim::link::LinkSpec;
use netkit::sim::node::{NodeBehaviour, NodeCtx, SinkBehaviour};
use netkit::sim::traffic::{udp_flow, CbrGen};
use netkit::sim::Simulator;

/// A sim node whose forwarding logic is a live Router-CF pipeline:
/// classifier → {voice, bulk} queues → priority scheduler → egress.
struct CfRouterNode {
    _capsule: Arc<Capsule>,
    classifier: Arc<ClassifierEngine>,
    ingress: Arc<dyn IPacketPush>,
    egress: Arc<dyn IPacketPull>,
    routes: RoutingTable,
}

impl CfRouterNode {
    fn new() -> Self {
        let rt = Runtime::new();
        register_packet_interfaces(&rt);
        let capsule = Capsule::new("sim-router", &rt);
        let cf = RouterCf::new("router", Arc::clone(&capsule));
        let sys = Principal::system();

        let classifier = ClassifierEngine::new();
        let voice = DropTailQueue::new(256);
        let bulk = DropTailQueue::new(1024);
        let sched = PriorityScheduler::new();
        let cls = capsule.adopt(classifier.clone()).unwrap();
        let vq = capsule.adopt(voice).unwrap();
        let bq = capsule.adopt(bulk).unwrap();
        let sc = capsule.adopt(sched.clone()).unwrap();
        for id in [cls, vq, bq, sc] {
            cf.plug(&sys, id).unwrap();
        }
        cf.bind(&sys, cls, "out", "voice", vq, IPACKET_PUSH)
            .unwrap();
        cf.bind(&sys, cls, "out", "bulk", bq, IPACKET_PUSH).unwrap();
        cf.bind(&sys, sc, "in", "voice", vq, IPACKET_PULL).unwrap();
        cf.bind(&sys, sc, "in", "bulk", bq, IPACKET_PULL).unwrap();
        classifier
            .register_filter(FilterSpec::new(
                FilterPattern::any().protocol(17).dst_port_range(5000, 5999),
                "voice",
                10,
            ))
            .unwrap();
        classifier
            .register_filter(FilterSpec::new(FilterPattern::any(), "bulk", 0))
            .unwrap();

        let ingress: Arc<dyn IPacketPush> = capsule
            .query_interface(cls, IPACKET_PUSH)
            .unwrap()
            .downcast()
            .unwrap();
        let egress: Arc<dyn IPacketPull> = capsule
            .query_interface(sc, IPACKET_PULL)
            .unwrap()
            .downcast()
            .unwrap();
        Self {
            _capsule: capsule,
            classifier,
            ingress,
            egress,
            routes: RoutingTable::new(),
        }
    }
}

impl NodeBehaviour for CfRouterNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _ingress_port: u16, pkt: Packet) {
        // Push into the component pipeline, then drain the scheduler and
        // emit on the routed port.
        if self.ingress.push(pkt).is_err() {
            return; // counted inside the pipeline
        }
        while let Some(out) = self.egress.pull() {
            let Ok(ip) = out.ipv4() else {
                ctx.drop_packet(out);
                continue;
            };
            match self.routes.lookup(ip.dst.into()) {
                Some(entry) => ctx.emit(entry.egress, out),
                None => ctx.deliver_local(out),
            }
        }
    }
    fn name(&self) -> &str {
        "cf-router"
    }
}

#[test]
fn cf_router_forwards_across_three_hop_topology() {
    let mut sim = Simulator::new(5);
    let (sink, received) = SinkBehaviour::new();

    let mut r1 = CfRouterNode::new();
    let mut r2 = CfRouterNode::new();
    r1.routes.add(
        "10.0.2.0/24",
        RouteEntry {
            egress: 0,
            next_hop: None,
        },
    );
    r2.routes.add(
        "10.0.2.0/24",
        RouteEntry {
            egress: 1,
            next_hop: None,
        },
    );

    let n1 = sim.add_node(Box::new(r1));
    let n2 = sim.add_node(Box::new(r2));
    let dst = sim.add_node(Box::new(sink));
    sim.connect(n1, n2, LinkSpec::lan());
    sim.connect(n2, dst, LinkSpec::lan());

    sim.attach_source(
        n1,
        Box::new(CbrGen::new(
            50_000,
            200,
            udp_flow("10.0.1.1", "10.0.2.9", 4_000, 5_500, 120),
        )),
    );
    sim.attach_source(
        n1,
        Box::new(CbrGen::new(
            50_000,
            200,
            udp_flow("10.0.1.1", "10.0.2.9", 4_001, 80, 120),
        )),
    );

    let stats = sim.run_to_idle().clone();
    assert_eq!(stats.injected, 400);
    assert_eq!(stats.delivered, 400, "all voice and bulk traffic arrives");
    assert_eq!(received.received(), 400);
}

#[test]
fn classifier_reprogramming_resteers_traffic_mid_run() {
    let mut sim = Simulator::new(9);
    let (sink, _) = SinkBehaviour::new();

    let router = CfRouterNode::new();
    let classifier = Arc::clone(&router.classifier);
    let mut router = router;
    router.routes.add(
        "10.0.2.0/24",
        RouteEntry {
            egress: 0,
            next_hop: None,
        },
    );
    let n1 = sim.add_node(Box::new(router));
    let dst = sim.add_node(Box::new(sink));
    sim.connect(n1, dst, LinkSpec::lan());

    sim.attach_source(
        n1,
        Box::new(CbrGen::new(
            100_000,
            100,
            udp_flow("10.0.1.1", "10.0.2.9", 4_000, 7_000, 64),
        )),
    );

    // First half: dport 7000 is bulk.
    sim.run_for(5_000_000);
    let matched_before = classifier.stats().matched;
    assert!(matched_before > 0);

    // Re-programme the classifier mid-run through IClassifier — stratum-4
    // style adaptation of a live stratum-2 node.
    classifier
        .register_filter(FilterSpec::new(
            FilterPattern::any().dst_port_range(7_000, 7_000),
            "voice",
            99,
        ))
        .unwrap();

    let stats = sim.run_to_idle().clone();
    assert_eq!(
        stats.delivered, 100,
        "no traffic lost across the re-programming"
    );
    assert!(classifier.filters().len() >= 3);
}

#[test]
fn three_architectures_agree_on_forwarding_semantics() {
    // The same 2-output classification job on all three architectures:
    // voice = udp dport 5000-5999, everything else bulk.
    let packets: Vec<Packet> = (0..100)
        .map(|i| {
            let dport = if i % 3 == 0 { 5_500 } else { 80 };
            PacketBuilder::udp_v4("10.0.1.1", "10.0.2.9", 4_000 + i, dport)
                .payload_len(64)
                .build()
        })
        .collect();
    let expected_voice = packets
        .iter()
        .filter(|p| p.udp_v4().unwrap().dst_port == 5_500)
        .count();

    // NETKIT.
    let node = CfRouterNode::new();
    for pkt in &packets {
        node.ingress.push(pkt.clone()).unwrap();
    }
    let mut netkit_voice = 0;
    let mut netkit_total = 0;
    while let Some(out) = node.egress.pull() {
        netkit_total += 1;
        if out.udp_v4().unwrap().dst_port == 5_500 {
            netkit_voice += 1;
        }
    }

    // Click.
    let click = ClickRouter::compile(
        "cls :: Classifier(udp 5000-5999 voice, any bulk);
         voice :: Queue(4096); bulk :: Queue(4096);
         cls [voice] -> voice; cls [bulk] -> bulk;",
    )
    .unwrap();
    for pkt in &packets {
        click.push("cls", pkt.clone());
    }

    // Monolithic (no classification, but the same forwarding decision).
    let mut table = RoutingTable::new();
    table.add(
        "10.0.2.0/24",
        RouteEntry {
            egress: 0,
            next_hop: None,
        },
    );
    let mono = MonolithicForwarder::new(table, 1, 4096);
    for pkt in &packets {
        mono.forward(pkt.clone()).unwrap();
    }

    assert_eq!(netkit_total, 100);
    assert_eq!(netkit_voice, expected_voice);
    assert_eq!(click.queue_len("voice"), Some(expected_voice));
    assert_eq!(click.queue_len("bulk"), Some(100 - expected_voice));
    assert_eq!(mono.stats().forwarded, 100);
}
