//! **F1 — vertical integration across all four strata** (paper Fig. 1
//! and §4: "applying OpenCOM-based CFs in all strata … should yield a
//! 'vertically integrated' programmable networking environment").
//!
//! One node, four strata, one component model:
//!   stratum 1: executor with a pluggable scheduler + memory accounting
//!   stratum 2: Router CF data path (classifier → queue → scheduler)
//!   stratum 3: execution environment plugged into the same CF
//!   stratum 4: a Genesis controller reconfiguring stratum 2
//!
//! Plus the paper's two cross-cutting claims: the node is analysable "as
//! a single composite" (architecture meta-model sees everything), and
//! "layer-violating" information flow is possible subject to access
//! control (stratum-3 code reading stratum-1 NIC state).

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use netkit::kernel::exec::{Executor, FifoPolicy, RoundRobinPolicy};
use netkit::kernel::mem::MemoryAccountant;
use netkit::kernel::nic::{Nic, PortId};
use netkit::opencom::capsule::Capsule;
use netkit::opencom::cf::Principal;
use netkit::opencom::component::{Component, LifecycleState};
use netkit::opencom::ident::{TaskId, Version};
use netkit::opencom::runtime::Runtime;
use netkit::packet::packet::PacketBuilder;
use netkit::router::api::{
    register_packet_interfaces, FilterPattern, FilterSpec, IClassifier, IPacketPull, IPacketPush,
    IPACKET_PULL, IPACKET_PUSH,
};
use netkit::router::cf::RouterCf;
use netkit::router::elements::{ClassifierEngine, DropTailQueue, PriorityScheduler};
use netkit::router::routing::{RouteEntry, RoutingTable};
use netkit::services::component::{EeComponent, EeNode, LOCAL_OUTPUT};
use netkit::services::ee::{Capsule as ActiveCapsule, EeBudget, OpCode};
use netkit::services::programs::Assembler;
use netkit::signaling::genesis::{Genesis, VirtnetDescriptor};
use parking_lot::RwLock;

#[test]
fn all_four_strata_compose_on_one_node() {
    // ---- stratum 1: OS substrate ------------------------------------
    let executor = Executor::new(Box::new(FifoPolicy));
    let memory = MemoryAccountant::new(1 << 20);
    let task = TaskId::next();
    memory.set_quota(task, 1 << 16);
    memory.allocate(task, 1024).expect("within quota");
    let nic = Arc::new(Nic::new(PortId(0), 64, 64, 1_000_000_000));

    // The executor's scheduler is itself pluggable (thread-management
    // CF): swap FIFO for round-robin at run time.
    let done = Arc::new(AtomicU64::new(0));
    let d2 = Arc::clone(&done);
    let housekeeping = executor.spawn(
        "housekeeping",
        0,
        1,
        Box::new(move || {
            d2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            (netkit::kernel::exec::TaskStatus::Done, 10)
        }),
    );
    assert_eq!(
        executor.task_name(housekeeping).as_deref(),
        Some("housekeeping")
    );
    let previous = executor.set_policy(Box::new(RoundRobinPolicy::default()));
    assert_eq!(previous, "fifo");
    assert_eq!(executor.policy_name(), "round-robin");
    executor.run_until_idle(100);
    assert_eq!(done.load(std::sync::atomic::Ordering::Relaxed), 1);

    // ---- stratum 2: the Router CF data path --------------------------
    let rt = Runtime::new();
    register_packet_interfaces(&rt);
    let capsule = Capsule::new("node", &rt);
    let cf = RouterCf::new("router", Arc::clone(&capsule));
    let sys = Principal::system();

    let classifier = ClassifierEngine::new();
    let queue = DropTailQueue::new(64);
    let sched = PriorityScheduler::new();
    let cls = capsule.adopt(classifier.clone()).unwrap();
    let q = capsule.adopt(queue).unwrap();
    let sc = capsule.adopt(sched.clone()).unwrap();

    // ---- stratum 3: the EE plugged into the *same* CF ----------------
    let routes = Arc::new(RwLock::new({
        let mut t = RoutingTable::new();
        t.add(
            "10.0.0.0/8",
            RouteEntry {
                egress: 0,
                next_hop: None,
            },
        );
        t
    }));
    let ee = EeComponent::new(
        EeBudget::default(),
        EeNode {
            addr: "10.0.0.1".parse().unwrap(),
            now_ns: Arc::new(AtomicU64::new(0)),
            routes,
        },
    );
    let ee_id = capsule.adopt(ee.clone()).unwrap();

    for id in [cls, q, sc, ee_id] {
        cf.plug(&sys, id)
            .expect("uniform admission for strata 2 and 3");
    }
    // Rule R2's behavioural half: a fresh instance of the classifier's
    // type, probed in a scratch capsule, routes every matching packet
    // to the named output and nowhere else.
    rt.registry().register(
        "netkit.Classifier",
        Version::new(1, 0, 0),
        Box::new(|| ClassifierEngine::new() as Arc<dyn Component>),
    );
    assert!(cf.probe_classifier(cls).unwrap().conformant());

    // classifier: active traffic to the EE, the rest to the queue.
    cf.bind(&sys, cls, "out", "active", ee_id, IPACKET_PUSH)
        .unwrap();
    cf.bind(&sys, cls, "out", "default", q, IPACKET_PUSH)
        .unwrap();
    cf.bind(&sys, sc, "in", "main", q, IPACKET_PULL).unwrap();
    // EE deliveries come back into the data-path queue.
    cf.bind(&sys, ee_id, "out", LOCAL_OUTPUT, q, IPACKET_PUSH)
        .unwrap();
    classifier
        .register_filter(FilterSpec::new(
            FilterPattern::any().protocol(17).dst_port_range(3322, 3322),
            "active",
            10,
        ))
        .unwrap();

    // ---- run mixed traffic -------------------------------------------
    let input: Arc<dyn IPacketPush> = capsule
        .query_interface(cls, IPACKET_PUSH)
        .unwrap()
        .downcast()
        .unwrap();

    // Plain packet → default queue.
    input
        .push(
            PacketBuilder::udp_v4("10.0.0.9", "10.0.0.1", 1, 80)
                .payload(b"web")
                .build(),
        )
        .unwrap();

    // Active packet → EE → local delivery → queue.
    // The capsule leaves soft state behind (key 7, value 42, 1 µs TTL)
    // and takes every kind of jump on its way to local delivery.
    let mut asm = Assembler::new("deliver");
    asm.ops(&[
        OpCode::Push(7),
        OpCode::Push(42),
        OpCode::Push(1_000),
        OpCode::CachePut,
    ]);
    asm.op(OpCode::Push(0)).jz("zero");
    asm.op(OpCode::Halt);
    asm.label("zero").op(OpCode::Push(1)).jnz("nonzero");
    asm.op(OpCode::Halt);
    asm.label("nonzero").jmp("deliver");
    asm.op(OpCode::Halt);
    asm.label("deliver").op(OpCode::DeliverLocal);
    let program = asm.assemble().unwrap();
    let active = ActiveCapsule::with_code(&program, vec![]);
    input
        .push(
            PacketBuilder::udp_v4("10.0.0.9", "10.0.0.1", 3322, 3322)
                .payload(&active.encode())
                .build(),
        )
        .unwrap();

    let out: Arc<dyn IPacketPull> = capsule
        .query_interface(sc, IPACKET_PULL)
        .unwrap()
        .downcast()
        .unwrap();
    let mut drained = 0;
    while out.pull().is_some() {
        drained += 1;
    }
    assert_eq!(drained, 2, "both flavours of traffic traverse the node");
    assert_eq!(ee.stats().capsules, 1);
    assert_eq!(
        ee.env().sweep_soft_state(2_000),
        1,
        "the capsule's soft state outlives it, until its TTL"
    );

    // ---- the node is analysable as a single composite ----------------
    let graph = capsule.to_dot();
    for ty in [
        "netkit.Classifier",
        "netkit.DropTailQueue",
        "netkit.ExecutionEnv",
    ] {
        assert!(graph.contains(ty), "architecture meta-model sees `{ty}`");
    }
    assert!(capsule.arch().component_count() >= 4);
    assert!(capsule.footprint_bytes() > 0);

    // ---- layer violation: stratum 3+ reading stratum-1 NIC state -----
    // (paper §4: "application or transport layer components can (subject
    // to access control) straightforwardly obtain 'layer-violating'
    // information from the link layer").
    nic.inject_rx_frame(
        netkit::packet::packet::PacketBuilder::udp_v4("10.0.0.2", "10.0.0.1", 5, 5)
            .build()
            .data(),
    );
    let stats = nic.stats();
    assert_eq!(
        stats.rx_frames, 1,
        "upper-layer code reads link-layer counters directly"
    );
    assert_eq!(
        nic.tx_nanos_for(1500),
        12_000,
        "and the link rate: 1500 bytes at 1 Gbit/s"
    );

    // ---- stratum 4: a Genesis controller re-programming stratum 2 ----
    let mut genesis = Genesis::new(vec![vec![(0, 1)], vec![(0, 0)]]);
    let (vnet, report) = genesis
        .spawn(
            VirtnetDescriptor::new("overlay", "10.99.0.0".parse().unwrap(), 24),
            &[0, 1],
        )
        .unwrap();
    assert_eq!(report.nodes, 2);
    // The spawned virtual routers are made of the same Router-CF parts.
    let vrouter = genesis.router(vnet, 0).unwrap();
    vrouter
        .push(PacketBuilder::udp_v4("10.99.0.1", "10.99.0.2", 7, 7).build())
        .unwrap();
    assert!(genesis.link_scheduler(0, 0).unwrap().pull().is_some());
    genesis.teardown(vnet).unwrap();
    assert!(genesis.virtnet_ids().is_empty());
}

#[test]
fn uniform_meta_interfaces_across_strata() {
    // Every component — stratum 2 element or stratum 3 EE — answers the
    // same introspection queries (paper §7: "can assume common support
    // such as … standard meta-models").
    let rt = Runtime::new();
    register_packet_interfaces(&rt);
    let capsule = Capsule::new("meta", &rt);

    let cls = capsule.adopt(ClassifierEngine::new()).unwrap();
    let ee = capsule
        .adopt(EeComponent::new(
            EeBudget::default(),
            EeNode {
                addr: "10.0.0.1".parse().unwrap(),
                now_ns: Arc::new(AtomicU64::new(0)),
                routes: Arc::new(RwLock::new(RoutingTable::new())),
            },
        ))
        .unwrap();

    for id in [cls, ee] {
        let comp = capsule.component(id).unwrap();
        // Interface meta-model: both export IPacketPush and answer
        // query_interface uniformly.
        assert!(comp.core().interfaces().contains(&IPACKET_PUSH));
        assert!(capsule.query_interface(id, IPACKET_PUSH).is_ok());
        // Architecture meta-model: both expose their receptacle tables.
        let receptacles = comp.core().receptacle_infos();
        assert!(
            receptacles.iter().any(|r| r.interface == IPACKET_PUSH),
            "downstream dependencies are declared, not hidden"
        );
        // Both carry a footprint estimate for the resources story.
        assert!(comp.footprint_bytes() > 0);
        // And both are driven through the one life cycle.
        capsule.activate(id).unwrap();
        assert_eq!(comp.core().state(), LifecycleState::Active);
        capsule.deactivate(id).unwrap();
        assert_eq!(comp.core().state(), LifecycleState::Suspended);
    }

    // The interface repository describes the shared interfaces once,
    // language-independently (method metadata as data).
    assert!(rt.interfaces().interface_ids().contains(&IPACKET_PUSH));
    let descriptor = rt.interfaces().describe(IPACKET_PUSH).unwrap();
    assert!(descriptor.find_method("push").is_some());
}
