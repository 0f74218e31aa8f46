//! The declarative description layer, end to end: a pipeline written
//! as *data*, compiled to the threaded dataplane, then reconfigured
//! twice through the diff-to-patch compiler — once with a hot
//! param-only patch (zero quiesce epochs), once structurally (exactly
//! one quiesce epoch) — while the description stays the single source
//! of truth. The description's `control` section runs too: the
//! controller it compiles to is handed, as is, to the threaded
//! `ControlLoop`.
//!
//! Run with: `cargo run --example declarative_pipeline`

use std::sync::Arc;
use std::time::{Duration, Instant};

use netkit::kernel::shard::ShardSpec;
use netkit::kernel::task::PeriodicSpec;
use netkit::opencom::meta::resources::ResourceManager;
use netkit::packet::batch::PacketBatch;
use netkit::packet::packet::PacketBuilder;
use netkit::router::desc::{Compiler, PipelineDesc};
use netkit::router::shard::ControlLoop;

const WORKERS: usize = 2;

fn burst(flows: u16) -> PacketBatch {
    (0..flows)
        .map(|i| {
            PacketBuilder::udp_v4("10.0.0.5", "203.0.113.9", 20_000 + i, 443)
                .payload_len(64)
                .build()
        })
        .collect()
}

fn main() -> Result<(), netkit::opencom::error::Error> {
    // 1. The topology as data: guard -> conntrack -> NAT44 -> counter
    //    -> discard, plus a control section picking the EWMA decision
    //    core for the autonomous rebalance loop.
    let v1 = PipelineDesc::new("declarative-edge")
        .element_with("guard", "guard", &[("byte_threshold", (4u64 << 20).into())])
        .element_with("ct", "conntrack", &[("capacity", 4_096u64.into())])
        .element_with(
            "nat",
            "nat44",
            &[
                ("external_ip", "192.0.2.1".into()),
                ("port_base", 10_000u16.into()),
            ],
        )
        .element("egress", "counter")
        .element("sink", "discard")
        .ingress("guard")
        .edge("guard", "ct")
        .edge("ct", "nat")
        .edge("nat", "egress")
        .edge("egress", "sink")
        .control("ewma", &[("alpha", 0.3.into())]);
    println!("-- v1 --------------------------------------------------");
    print!("{}", v1.render());

    // 2. Compile it: every shard of the threaded pipeline replicates
    //    the described graph; the binding remembers what each name
    //    compiled to so later patches can address it.
    let rm = Arc::new(ResourceManager::new());
    let (pipe, mut binding) =
        Compiler::new().build_sharded(&v1, ShardSpec::new(WORKERS), Arc::clone(&rm))?;
    let pipe = Arc::new(pipe);
    let controller = binding.controller()?.expect("v1 has a control section");
    let control = ControlLoop::spawn(
        "declarative-edge-control",
        Arc::clone(&pipe),
        Vec::new(),
        controller,
        PeriodicSpec::every(Duration::from_millis(1)).with_backoff(2.0, Duration::from_millis(16)),
        rm,
    )?;

    for _ in 0..8 {
        pipe.dispatch(burst(64));
    }
    pipe.flush();
    println!("v1 carried {} packets", pipe.stats().accepted);

    // The described core judges that window on the loop's own thread
    // (bounded wait: ~2s worst case); 64 even flows make it a hold.
    let deadline = Instant::now() + Duration::from_secs(2);
    while control.stats().holds + control.stats().migrations == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        control.stats().holds + control.stats().migrations > 0,
        "the described controller must have judged the window"
    );

    // 3. A param-only reconfiguration: double the conntrack table.
    //    The diff is a hot swap — the patch has zero structural ops
    //    and (since it never touches the ingress element, whose push
    //    handle the workers hold) applies without a pipeline-wide
    //    quiesce, mid-traffic.
    let v2 = v1.clone().set_param("ct", "capacity", 8_192u64.into());
    let patch = binding.diff_to(&v2)?;
    println!(
        "-- diff v1 -> v2 (param-only: {}) ----------------------",
        patch.param_only()
    );
    print!("{}", patch.render());
    let report = binding.apply_sharded(&pipe, &patch)?;
    assert!(patch.param_only());
    assert_eq!((report.structural, report.epochs), (0, 0));
    println!(
        "applied hot: {} element swap(s) across {} shard(s), {} quiesce epoch(s)",
        report.replaced, report.shards_touched, report.epochs
    );

    // 4. A structural reconfiguration: retire the NAT stage entirely.
    //    The diff unbinds, removes, and rebinds around the gap — and
    //    the applier takes exactly one quiesce epoch to do it without
    //    losing a packet.
    let v3 = PipelineDesc::new("declarative-edge")
        .element_with("guard", "guard", &[("byte_threshold", (4u64 << 20).into())])
        .element_with("ct", "conntrack", &[("capacity", 8_192u64.into())])
        .element("egress", "counter")
        .element("sink", "discard")
        .ingress("guard")
        .edge("guard", "ct")
        .edge("ct", "egress")
        .edge("egress", "sink")
        .control("ewma", &[("alpha", 0.3.into())]);
    let patch = binding.diff_to(&v3)?;
    println!(
        "-- diff v2 -> v3 (structural ops: {}) ------------------",
        patch.structural_ops()
    );
    print!("{}", patch.render());
    let before = pipe.stats().accepted;
    let report = binding.apply_sharded(&pipe, &patch)?;
    assert!(!patch.param_only());
    assert_eq!(
        report.epochs, 1,
        "structural patches take exactly one quiesce epoch"
    );
    println!(
        "applied structurally: {} mutation(s), {} quiesce epoch(s)",
        report.structural, report.epochs
    );

    // 5. Traffic still flows through the narrowed graph, and the
    //    binding has converged on v3: re-diffing is a no-op.
    for _ in 0..8 {
        pipe.dispatch(burst(64));
    }
    pipe.flush();
    let stats = pipe.stats();
    assert_eq!(stats.accepted - before, 8 * 64, "no loss across the patch");
    assert!(binding.diff_to(&v3)?.is_empty());
    println!(
        "v3 carried {} more packets; description and dataplane agree",
        stats.accepted - before
    );

    println!("{control:?}");
    control.stop();
    Arc::try_unwrap(pipe).expect("sole owner").shutdown();
    Ok(())
}
