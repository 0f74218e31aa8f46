//! **F3 — the Figure 3 composite, end to end** (paper §5): a composite
//! gateway with protocol recogniser, IPv4/IPv6 header processors,
//! queueing, forwarding, and link-scheduler stages; a controller
//! managing constraints through an ACL; recursive CF admission;
//! untrusted constituents hosted out-of-capsule with crash containment.

use std::sync::Arc;

use netkit::opencom::binding::TopologyRule;
use netkit::opencom::capsule::Capsule;
use netkit::opencom::cf::{CfOperation, Principal};
use netkit::opencom::component::Component;
use netkit::opencom::error::Error;
use netkit::opencom::runtime::Runtime;
use netkit::packet::packet::PacketBuilder;
use netkit::router::api::{
    register_packet_interfaces, IPacketPull, IPacketPush, PushSkeleton, IPACKET_PULL, IPACKET_PUSH,
};
use netkit::router::cf::RouterCf;
use netkit::router::composite::{Composite, CompositeBuilder};
use netkit::router::elements::{
    ClassifierEngine, Counter, Discard, DropTailQueue, Ipv4Processor, Ipv6Processor,
    ProtocolRecogniser, WfqScheduler,
};

fn runtime() -> Arc<Runtime> {
    let rt = Runtime::new();
    register_packet_interfaces(&rt);
    rt
}

/// Builds the Fig-3 gateway; returns (capsule, composite).
fn build_gateway(owner: &Principal) -> (Arc<Capsule>, Arc<Composite>) {
    let rt = runtime();
    let capsule = Capsule::new("gw", &rt);
    let composite = CompositeBuilder::new("netkit.Gateway", Arc::clone(&capsule))
        .owner(owner.clone())
        .add("recogniser", ProtocolRecogniser::new())
        .unwrap()
        .add("ipv4", Ipv4Processor::new())
        .unwrap()
        .add("ipv6", Ipv6Processor::new())
        .unwrap()
        .add("classifier", ClassifierEngine::new())
        .unwrap()
        .add("queueing", DropTailQueue::new(64))
        .unwrap()
        .add("forwarding", Counter::new())
        .unwrap()
        .add("link-sched", WfqScheduler::new(&[("main", 1.0)]))
        .unwrap()
        .wire("recogniser", "out", "ipv4", "ipv4", IPACKET_PUSH)
        .wire("recogniser", "out", "ipv6", "ipv6", IPACKET_PUSH)
        .wire("ipv4", "out", "", "classifier", IPACKET_PUSH)
        .wire("ipv6", "out", "", "classifier", IPACKET_PUSH)
        .wire("classifier", "out", "default", "queueing", IPACKET_PUSH)
        .wire("link-sched", "in", "main", "queueing", IPACKET_PULL)
        .ingress("recogniser")
        .egress("link-sched")
        .classifier("classifier")
        .build()
        .unwrap();
    (capsule, composite)
}

#[test]
fn figure3_structure_is_reproduced() {
    let admin = Principal::new("admin");
    let (_capsule, composite) = build_gateway(&admin);

    // The composite has the figure's constituents plus a controller.
    use netkit::router::composite::IComposite;
    let labels: Vec<String> = composite
        .constituent_components()
        .into_iter()
        .map(|(l, _)| l)
        .collect();
    assert_eq!(
        labels,
        [
            "classifier",
            "forwarding",
            "ipv4",
            "ipv6",
            "link-sched",
            "queueing",
            "recogniser"
        ]
    );
    assert!(
        composite.controller_id().is_some(),
        "R3: controller present"
    );
    assert!(composite.core().descriptor().composite);
}

#[test]
fn mixed_v4_v6_traffic_flows_and_r3_admission_holds() {
    let admin = Principal::new("admin");
    let (capsule, composite) = build_gateway(&admin);

    // Recursive admission into an outer Router CF (rule R3).
    let outer = RouterCf::new("outer", Arc::clone(&capsule));
    outer
        .plug(&Principal::system(), composite.core().id())
        .unwrap();

    for i in 0..4u16 {
        composite
            .push(PacketBuilder::udp_v4("192.0.2.1", "203.0.113.5", i, 80).build())
            .unwrap();
        composite
            .push(PacketBuilder::udp_v6("2001:db8::1", "2001:db8::2", i, 80).build())
            .unwrap();
    }
    let mut v4 = 0;
    let mut v6 = 0;
    while let Some(pkt) = composite.pull() {
        if pkt.ipv4().is_ok() {
            v4 += 1;
        } else {
            v6 += 1;
        }
    }
    assert_eq!(
        (v4, v6),
        (4, 4),
        "both protocol paths of Fig. 3 carry traffic"
    );
}

#[test]
fn controller_acl_polices_constraints_and_rewiring() {
    let admin = Principal::new("admin");
    let (_capsule, composite) = build_gateway(&admin);
    let ctl = composite.controller();

    // Nobody can touch the topology without grants.
    let eve = Principal::new("eve");
    assert!(matches!(
        ctl.add_constraint(
            &eve,
            TopologyRule::Forbid("a".into(), "b".into()).into_constraint()
        ),
        Err(Error::AccessDenied { .. })
    ));

    // The owner delegates; the delegate installs a constraint that then
    // vetoes an illegal rewire.
    let ops = Principal::new("ops");
    ctl.grant(&admin, ops.clone(), CfOperation::AddConstraint)
        .unwrap();
    ctl.grant(&admin, ops.clone(), CfOperation::Bind).unwrap();
    ctl.add_constraint(
        &ops,
        TopologyRule::Forbid(
            "netkit.ProtocolRecogniser".into(),
            "netkit.DropTailQueue".into(),
        )
        .into_constraint(),
    )
    .unwrap();
    let err = ctl
        .rewire(
            &ops,
            "recogniser",
            "out",
            "shortcut",
            "queueing",
            IPACKET_PUSH,
        )
        .unwrap_err();
    assert!(matches!(err, Error::ConstraintVeto { .. }));

    // Only the owner may delegate.
    assert!(matches!(
        ctl.grant(&eve, eve.clone(), CfOperation::Bind),
        Err(Error::AccessDenied { .. })
    ));
}

#[test]
fn controller_hot_swaps_the_queue_under_traffic() {
    let admin = Principal::new("admin");
    let (capsule, composite) = build_gateway(&admin);
    let ctl = composite.controller();
    ctl.grant(&admin, admin.clone(), CfOperation::Replace)
        .unwrap();

    // Traffic before, swap, traffic after; nothing wedges.
    composite
        .push(PacketBuilder::udp_v4("192.0.2.1", "203.0.113.5", 1, 2).build())
        .unwrap();
    let bigger = capsule.adopt(DropTailQueue::new(4096)).unwrap();
    ctl.replace(&admin, "queueing", bigger).unwrap();
    composite
        .push(PacketBuilder::udp_v4("192.0.2.1", "203.0.113.5", 3, 4).build())
        .unwrap();
    assert!(composite.pull().is_some(), "post-swap packet drains");
    assert_eq!(composite.constituent("queueing").unwrap(), bigger);
}

#[test]
fn untrusted_constituent_runs_isolated_with_crash_containment() {
    let rt = runtime();
    // A deliberately crashy component type, registered for isolation.
    rt.isolation().register_skeleton(
        "test.CrashySink",
        Box::new(|| {
            struct Bomb;
            impl IPacketPush for Bomb {
                fn push(
                    &self,
                    pkt: netkit::packet::packet::Packet,
                ) -> netkit::router::api::PushResult {
                    if pkt.udp_v4().is_ok_and(|u| u.dst_port == 6666) {
                        panic!("malicious constituent");
                    }
                    Ok(())
                }
            }
            PushSkeleton::new(Arc::new(Bomb))
        }),
    );

    let capsule = Capsule::new("iso-gw", &rt);
    let composite = CompositeBuilder::new("test.IsoGateway", Arc::clone(&capsule))
        .add("cls", ClassifierEngine::new())
        .unwrap()
        .add_isolated("untrusted", "test.CrashySink", &[IPACKET_PUSH])
        .unwrap()
        .add("safe", Discard::new())
        .unwrap()
        .wire("cls", "out", "default", "untrusted", IPACKET_PUSH)
        .ingress("cls")
        .build()
        .unwrap();

    // Benign traffic crosses the IPC boundary transparently.
    composite
        .push(PacketBuilder::udp_v4("192.0.2.1", "203.0.113.5", 1, 80).build())
        .unwrap();

    // The poison packet crashes *only* the isolated constituent.
    let err = composite
        .push(PacketBuilder::udp_v4("192.0.2.1", "203.0.113.5", 1, 6666).build())
        .unwrap_err();
    assert!(matches!(err, netkit::router::api::PushError::Crashed(_)));

    // The rest of the composite (and the capsule) is alive; the
    // supervisor can respawn the constituent.
    let untrusted = composite.constituent("untrusted").unwrap();
    let control = capsule.isolation_control(untrusted).expect("supervised");
    assert!(control.is_dead());
    control.respawn();
    composite
        .push(PacketBuilder::udp_v4("192.0.2.1", "203.0.113.5", 1, 80).build())
        .unwrap();
    assert_eq!(control.restart_count(), 1);
}

#[test]
fn composite_without_controller_fails_r3() {
    // A hand-rolled "composite" lacking IComposite must be rejected by
    // the Router CF.
    use netkit::opencom::component::{ComponentCore, ComponentDescriptor, Registrar};
    use netkit::opencom::ident::Version;

    struct FakeComposite {
        core: ComponentCore,
    }
    impl IPacketPush for FakeComposite {
        fn push(&self, _pkt: netkit::packet::packet::Packet) -> netkit::router::api::PushResult {
            Ok(())
        }
    }
    impl Component for FakeComposite {
        fn core(&self) -> &ComponentCore {
            &self.core
        }
        fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
            let p: Arc<dyn IPacketPush> = self.clone();
            reg.expose(IPACKET_PUSH, &p);
        }
    }

    let rt = runtime();
    let capsule = Capsule::new("fake", &rt);
    let id = capsule
        .adopt(Arc::new(FakeComposite {
            core: ComponentCore::new(
                ComponentDescriptor::new("test.Fake", Version::new(1, 0, 0)).composite(),
            ),
        }))
        .unwrap();
    let cf = RouterCf::new("outer", Arc::clone(&capsule));
    let err = cf.plug(&Principal::system(), id).unwrap_err();
    assert!(err.to_string().contains("R3"), "{err}");
}
