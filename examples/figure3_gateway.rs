//! Figure 3, in code: the composite component accepted by the Router CF.
//!
//! "protocol recogn → {IPv4 hdr processor, IPv6 hdr processor} →
//! Gw CF instance (queueing) → Gw CF instance (forwarding) → link
//! scheduler", managed by a **controller** that polices topology
//! constraints and IClassifier access through an ACL — then reconfigured
//! live, exactly the paper's §5 story.
//!
//! Run with: `cargo run --example figure3_gateway`

use std::sync::Arc;

use netkit::opencom::binding::TopologyRule;
use netkit::opencom::capsule::Capsule;
use netkit::opencom::cf::{CfOperation, Principal};
use netkit::opencom::component::Component;
use netkit::opencom::runtime::Runtime;
use netkit::packet::packet::PacketBuilder;
use netkit::router::api::{
    register_packet_interfaces, FilterPattern, FilterSpec, IPacketPull, IPacketPush, IPACKET_PULL,
    IPACKET_PUSH,
};
use netkit::router::cf::RouterCf;
use netkit::router::composite::CompositeBuilder;
use netkit::router::elements::{
    ClassifierEngine, Counter, DropTailQueue, Ipv4Processor, Ipv6Processor, ProtocolRecogniser,
    RedConfig, RedQueue, WfqScheduler,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rt = Runtime::new();
    register_packet_interfaces(&rt);
    let capsule = Capsule::new("gateway-node", &rt);
    let admin = Principal::new("admin");

    // ---- build the Fig-3 composite -----------------------------------
    let composite = CompositeBuilder::new("netkit.Gateway", Arc::clone(&capsule))
        .owner(admin.clone())
        .add("recogniser", ProtocolRecogniser::new())?
        .add("ipv4", Ipv4Processor::new())?
        .add("ipv6", Ipv6Processor::new())?
        .add("classifier", ClassifierEngine::new())?
        .add("queueing", DropTailQueue::new(128))?
        .add("forwarding", Counter::new())?
        .add("link-sched", WfqScheduler::new(&[("main", 1.0)]))?
        // protocol recogniser fans out by protocol (Fig. 3's left edge)
        .wire("recogniser", "out", "ipv4", "ipv4", IPACKET_PUSH)
        .wire("recogniser", "out", "ipv6", "ipv6", IPACKET_PUSH)
        // both header processors feed the classifier stage
        .wire("ipv4", "out", "", "classifier", IPACKET_PUSH)
        .wire("ipv6", "out", "", "classifier", IPACKET_PUSH)
        // classified traffic lands in the queueing stage
        .wire("classifier", "out", "default", "queueing", IPACKET_PUSH)
        // the link scheduler drains the queue
        .wire("link-sched", "in", "main", "queueing", IPACKET_PULL)
        .ingress("recogniser")
        .egress("link-sched")
        .classifier("classifier")
        .build()?;

    println!("built composite: {composite:?}");

    // ---- the composite satisfies the Router CF recursively (R3) ------
    let outer = RouterCf::new("node-router", Arc::clone(&capsule));
    outer.plug(&Principal::system(), composite.core().id())?;
    println!("outer Router CF admitted the composite (rule R3)");

    // ---- controller: constraints policed by an ACL --------------------
    let controller = composite.controller();
    controller.grant(&admin, admin.clone(), CfOperation::AddConstraint)?;
    controller.grant(&admin, admin.clone(), CfOperation::Bind)?;
    controller.grant(&admin, admin.clone(), CfOperation::Replace)?;
    controller.grant(&admin, admin.clone(), CfOperation::Intercept)?;

    // Forbid wiring the recogniser straight into the queue (must go
    // through a header processor).
    controller.add_constraint(
        &admin,
        TopologyRule::Forbid(
            "netkit.ProtocolRecogniser".into(),
            "netkit.DropTailQueue".into(),
        )
        .into_constraint(),
    )?;
    let veto = controller.rewire(
        &admin,
        "recogniser",
        "out",
        "shortcut",
        "queueing",
        IPACKET_PUSH,
    );
    println!("constraint vetoed the shortcut: {}", veto.unwrap_err());

    // ---- classifier access through the controller (Fig. 3 arrow) -----
    let classifier = controller.classifier(&admin, "classifier")?;
    classifier.register_filter(FilterSpec::new(
        FilterPattern::any().dscp(46),
        "default", // EF traffic would get its own queue in a real config
        100,
    ))?;
    println!(
        "installed {} filters via ACL-gated IClassifier",
        classifier.filters().len()
    );

    // ---- run traffic through the composite ----------------------------
    for i in 0..6u16 {
        composite.push(
            PacketBuilder::udp_v4("192.0.2.1", "203.0.113.9", 1_000 + i, 7_000)
                .dscp(if i % 2 == 0 { 46 } else { 0 })
                .build(),
        )?;
        composite
            .push(PacketBuilder::udp_v6("2001:db8::1", "2001:db8::2", 1_000 + i, 7_000).build())?;
    }
    let mut drained = 0;
    while composite.pull().is_some() {
        drained += 1;
    }
    println!("composite forwarded {drained} packets end to end");

    // ---- hot-replace the queueing stage under the controller ----------
    let red = capsule.adopt(RedQueue::new(RedConfig::default()))?;
    controller.replace(&admin, "queueing", red)?;
    println!("controller hot-replaced drop-tail with RED");

    composite.push(PacketBuilder::udp_v4("192.0.2.1", "203.0.113.9", 9, 9).build())?;
    assert!(composite.pull().is_some(), "data path alive after the swap");

    // ---- introspection -------------------------------------------------
    println!("\nconstituents:");
    for (label, id) in controller.constituents() {
        println!("  {label:>12} -> {id}");
    }
    println!("\ncapsule graph:\n{}", capsule.to_dot());
    Ok(())
}
