//! Quickstart: build a small diffserv router from Router-CF components,
//! push traffic through it, then use the reflective meta-models to
//! inspect and *reconfigure it live*.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use netkit::opencom::capsule::Capsule;
use netkit::opencom::cf::Principal;
use netkit::opencom::interception::FnHook;
use netkit::opencom::runtime::Runtime;
use netkit::packet::packet::PacketBuilder;
use netkit::router::api::{
    register_packet_interfaces, FilterPattern, FilterSpec, IClassifier, IPacketPull, IPacketPush,
    IPACKET_PULL, IPACKET_PUSH,
};
use netkit::router::cf::RouterCf;
use netkit::router::elements::{ClassifierEngine, DropTailQueue, PriorityScheduler};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A runtime carries the meta-models; a capsule is the
    //    address-space analogue hosting components.
    let rt = Runtime::new();
    register_packet_interfaces(&rt);
    let capsule = Capsule::new("quickstart", &rt);
    let cf = RouterCf::new("router", Arc::clone(&capsule));
    let sys = Principal::system();

    // 2. classifier -> {voice, bulk} queues -> priority scheduler.
    let classifier = ClassifierEngine::new();
    let voice_q = DropTailQueue::new(64);
    let bulk_q = DropTailQueue::new(256);
    let sched = PriorityScheduler::new();

    let cls = capsule.adopt(classifier.clone())?;
    let vq = capsule.adopt(voice_q)?;
    let bq = capsule.adopt(bulk_q)?;
    let sc = capsule.adopt(sched.clone())?;
    for id in [cls, vq, bq, sc] {
        cf.plug(&sys, id)?; // run-time admission: rules R1-R3
    }
    cf.bind(&sys, cls, "out", "voice", vq, IPACKET_PUSH)?;
    cf.bind(&sys, cls, "out", "bulk", bq, IPACKET_PUSH)?;
    cf.bind(&sys, sc, "in", "voice", vq, IPACKET_PULL)?;
    cf.bind(&sys, sc, "in", "bulk", bq, IPACKET_PULL)?;

    // 3. Install packet filters through IClassifier (Fig. 2).
    classifier.register_filter(FilterSpec::new(
        FilterPattern::any().protocol(17).dst_port_range(5000, 5999),
        "voice",
        10,
    ))?;
    classifier.register_filter(FilterSpec::new(FilterPattern::any(), "bulk", 0))?;

    // 4. Push traffic.
    let input: Arc<dyn IPacketPush> = capsule
        .query_interface(cls, IPACKET_PUSH)?
        .downcast()
        .unwrap();
    for i in 0..10 {
        let dport = if i % 2 == 0 { 5_500 } else { 80 };
        input.push(
            PacketBuilder::udp_v4("192.0.2.1", "198.51.100.7", 4_000 + i, dport)
                .payload(b"hello")
                .build(),
        )?;
    }

    // 5. Drain: strict priority serves the voice queue first.
    let out: Arc<dyn IPacketPull> = capsule
        .query_interface(sc, IPACKET_PULL)?
        .downcast()
        .unwrap();
    let mut order = Vec::new();
    while let Some(pkt) = out.pull() {
        order.push(pkt.udp_v4()?.dst_port);
    }
    println!("drain order (voice=5500 first): {order:?}");
    assert!(order.starts_with(&[5_500; 5]));

    // 6. Reflect: the architecture meta-model sees the whole graph.
    println!("\narchitecture meta-model:");
    println!("{}", capsule.to_dot());
    println!("footprint estimate: {} bytes", capsule.footprint_bytes());

    // 7. Intercept: count packets crossing the classifier->voice edge.
    let edge = capsule
        .arch()
        .binding_records()
        .into_iter()
        .find(|r| r.label == "voice" && r.interface == IPACKET_PUSH)
        .expect("voice edge exists");
    let chain = capsule.intercept(edge.id)?;
    let seen = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let seen2 = Arc::clone(&seen);
    chain.add(FnHook::new(
        "count-voice",
        move |_| {
            seen2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(())
        },
        |_| {},
    ));
    for i in 0..3 {
        input.push(PacketBuilder::udp_v4("192.0.2.1", "198.51.100.7", i, 5_100).build())?;
    }
    println!(
        "\ninterceptor saw {} voice packets",
        seen.load(std::sync::atomic::Ordering::Relaxed)
    );

    // 8. Reconfigure live: hot-swap the voice queue for a bigger one.
    let bigger = capsule.adopt(DropTailQueue::new(1024))?;
    cf.plug(&sys, bigger)?;
    capsule.replace(vq, bigger)?;
    cf.unplug(&sys, vq)?;
    println!(
        "hot-swapped the voice queue; graph now has {} components",
        capsule.arch().component_count()
    );

    // The data path still works end to end.
    input.push(PacketBuilder::udp_v4("192.0.2.1", "198.51.100.7", 1, 5_200).build())?;
    assert!(out.pull().is_some());
    println!("\nquickstart complete");
    Ok(())
}
