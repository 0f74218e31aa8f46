//! **Reconfiguration under load** — run-time reconfiguration must be
//! *safe*, not just fast: no packet loss across hot swaps, CF rules
//! re-checked after dynamic change, media filters adapting mid-flow, and
//! version evolution through the registry.

use std::sync::Arc;

use netkit::opencom::capsule::{Capsule, Quiescence};
use netkit::opencom::cf::Principal;
use netkit::opencom::component::Component;
use netkit::opencom::ident::Version;
use netkit::opencom::runtime::Runtime;
use netkit::packet::packet::PacketBuilder;
use netkit::router::api::{register_packet_interfaces, IPacketPush, IPACKET_PUSH};
use netkit::router::cf::RouterCf;
use netkit::router::elements::{Counter, Discard};
use netkit::services::media::{annotate_gop, DropLevel, FrameDropFilter};

fn setup() -> (Arc<Runtime>, Arc<Capsule>, RouterCf) {
    let rt = Runtime::new();
    register_packet_interfaces(&rt);
    let capsule = Capsule::new("reconf", &rt);
    let cf = RouterCf::new("router", Arc::clone(&capsule));
    (rt, capsule, cf)
}

#[test]
fn no_loss_across_a_thousand_swaps() {
    let (_rt, capsule, cf) = setup();
    let sys = Principal::system();

    // chain: c0 -> c1 -> c2 -> sink
    let mut stages = Vec::new();
    for _ in 0..3 {
        let id = capsule.adopt(Counter::new()).unwrap();
        cf.plug(&sys, id).unwrap();
        stages.push(id);
    }
    let sink = Discard::new();
    let sink_id = capsule.adopt(sink.clone()).unwrap();
    cf.plug(&sys, sink_id).unwrap();
    cf.bind(&sys, stages[0], "out", "", stages[1], IPACKET_PUSH)
        .unwrap();
    cf.bind(&sys, stages[1], "out", "", stages[2], IPACKET_PUSH)
        .unwrap();
    cf.bind(&sys, stages[2], "out", "", sink_id, IPACKET_PUSH)
        .unwrap();

    let entry: Arc<dyn IPacketPush> = capsule
        .query_interface(stages[0], IPACKET_PUSH)
        .unwrap()
        .downcast()
        .unwrap();

    let mut victim = stages[1];
    let mut sent = 0u64;
    for round in 0..1000u64 {
        // Swap the middle element every iteration, alternating modes.
        let mode = if round % 2 == 0 {
            Quiescence::PerEdge
        } else {
            Quiescence::FullGraph
        };
        let fresh = capsule.adopt(Counter::new()).unwrap();
        cf.plug(&sys, fresh).unwrap();
        capsule.replace(victim, fresh, mode).unwrap();
        cf.unplug(&sys, victim).unwrap();
        victim = fresh;

        for i in 0..4u16 {
            entry
                .push(PacketBuilder::udp_v4("192.0.2.1", "203.0.113.9", i, 80).build())
                .unwrap();
            sent += 1;
        }
    }
    assert_eq!(sink.count(), sent, "every packet survived 1000 hot swaps");
    // Graph size is stable (old components really are destroyed).
    assert_eq!(capsule.arch().component_count(), 4);
}

#[test]
fn sharded_hot_swap_scheduler_under_load() {
    use netkit::kernel::shard::ShardSpec;
    use netkit::opencom::ident::ComponentId;
    use netkit::opencom::meta::resources::{classes, ResourceManager};
    use netkit::packet::batch::PacketBatch;
    use netkit::router::api::IPacketPull;
    use netkit::router::elements::{DropTailQueue, DrrScheduler, PriorityScheduler};
    use netkit::router::shard::{ShardGraph, ShardedPipeline};
    use netkit::router::IPACKET_PULL;
    use parking_lot::{Mutex, RwLock};

    const WORKERS: usize = 4;
    const ROUNDS: u64 = 50;
    const PER_ROUND: u64 = 64;

    // Per-shard plumbing the swap needs after build: the capsule, the
    // live scheduler's component id, the drain hook's swappable pull
    // handle, and the terminal sink.
    struct Bits {
        capsule: Arc<netkit::opencom::capsule::Capsule>,
        sched_id: ComponentId,
        pull: Arc<RwLock<Arc<dyn IPacketPull>>>,
        sink: Arc<Discard>,
    }

    let rm = Arc::new(ResourceManager::new());
    let bits: Arc<Mutex<Vec<Bits>>> = Arc::new(Mutex::new(Vec::new()));
    let slot = Arc::clone(&bits);
    let pipe = ShardedPipeline::build(
        "sharded-reconf",
        ShardSpec::new(WORKERS),
        Arc::clone(&rm),
        move |_shard| {
            // Per-shard graph: drop-tail queue (push entry) feeding a
            // strict-priority scheduler; the worker's drain hook pulls
            // the scheduler dry into a Discard after every batch —
            // run-to-completion through the pull side too.
            let rt = Runtime::new();
            register_packet_interfaces(&rt);
            let capsule = Capsule::new("shard", &rt);
            let queue = DropTailQueue::new(4096);
            let sched = PriorityScheduler::new();
            let sink = Discard::new();
            let qid = capsule.adopt(queue.clone())?;
            let sid = capsule.adopt(sched)?;
            capsule.adopt(sink.clone())?;
            capsule.bind(sid, "in", "q0", qid, IPACKET_PULL)?;
            let pull: Arc<dyn IPacketPull> = capsule
                .query_interface(sid, IPACKET_PULL)?
                .downcast()
                .expect("scheduler exports IPacketPull");
            let pull = Arc::new(RwLock::new(pull));
            let drain_pull = Arc::clone(&pull);
            let drain_sink = sink.clone();
            slot.lock().push(Bits {
                capsule: Arc::clone(&capsule),
                sched_id: sid,
                pull: Arc::clone(&pull),
                sink: sink.clone(),
            });
            Ok(
                ShardGraph::new(Arc::clone(&capsule), queue).with_drain(Box::new(move || loop {
                    let out = drain_pull.read().clone().pull_batch(64);
                    if out.is_empty() {
                        break;
                    }
                    let _ = drain_sink.push_batch(out);
                })),
            )
        },
    )
    .unwrap();

    let mut sent = 0u64;
    for round in 0..ROUNDS {
        let mut batch = PacketBatch::with_capacity(PER_ROUND as usize);
        for i in 0..PER_ROUND {
            batch.push(
                PacketBuilder::udp_v4(
                    "192.0.2.1",
                    "203.0.113.9",
                    3000 + (i % 32) as u16, // 32 flows spread over shards
                    5000,
                )
                .build(),
            );
            sent += 1;
        }
        pipe.dispatch(batch);

        if round == ROUNDS / 2 {
            // Hot-swap every shard's scheduler (strict priority → DRR)
            // atomically across all four workers while traffic is in
            // flight. The epoch barrier guarantees no packet is
            // mid-pipeline anywhere during the swap.
            pipe.quiesce(|| {
                for b in bits.lock().iter_mut() {
                    let fresh = b.capsule.adopt(DrrScheduler::new(1500.0)).unwrap();
                    b.capsule
                        .replace(b.sched_id, fresh, Quiescence::FullGraph)
                        .unwrap();
                    *b.pull.write() = b
                        .capsule
                        .query_interface(fresh, IPACKET_PULL)
                        .unwrap()
                        .downcast()
                        .expect("scheduler exports IPacketPull");
                    b.sched_id = fresh;
                }
            });
            assert_eq!(pipe.epoch(), 1);
        }
    }
    pipe.flush();

    // Zero loss, zero duplication across the swap: every packet sent
    // before, during, and after the quiesce window surfaces exactly
    // once at a sink.
    let bits = std::mem::take(&mut *bits.lock());
    let delivered: u64 = bits.iter().map(|b| b.sink.count()).sum();
    assert_eq!(delivered, sent, "no packet lost or duplicated");
    let stats = pipe.stats();
    assert_eq!(stats.packets, sent);
    assert_eq!(stats.accepted, sent, "queue never tail-dropped");
    assert!(
        bits.iter().filter(|b| b.sink.count() > 0).count() > 1,
        "traffic really spread over multiple workers"
    );
    // Reflection still sees one logical pipeline: a single task whose
    // rolled-up usage equals the total.
    assert_eq!(
        rm.task_info(pipe.task()).unwrap().usage[classes::PACKETS],
        sent
    );
    pipe.shutdown();
}

/// Regression (PR 25): a hot-swapped balancer is filled through its
/// `ITable` before `Capsule::replace` points traffic at it, so no
/// packet in flight meets an empty backend table. (At `826015d` the
/// swap ran first and the plan re-put the backends later: hundreds to
/// thousands of "lb: no live backends" drops per 400 swaps.)
#[test]
fn described_balancer_keeps_its_backends_across_hot_swaps() {
    use std::sync::atomic::{AtomicBool, AtomicU16, Ordering};

    use netkit::kernel::shard::ShardSpec;
    use netkit::opencom::meta::resources::ResourceManager;
    use netkit::packet::batch::PacketBatch;
    use netkit::router::desc::{Compiler, PipelineDesc, TableEntry};

    const SWAPS: u64 = 400;
    let described = |capacity: u64| {
        PipelineDesc::new("hot-lb")
            .element("count", "counter")
            .element_with(
                "lb",
                "l4lb",
                &[
                    ("vip", "10.0.7.9".into()),
                    ("vport", 443u16.into()),
                    ("capacity", capacity.into()),
                ],
            )
            .element("sink", "discard")
            .ingress("count")
            .edge("count", "lb")
            .edge("lb", "sink")
            .table(
                "lb",
                TableEntry::Backend {
                    ip: "10.1.0.1".into(),
                    port: 8080,
                },
            )
            .table(
                "lb",
                TableEntry::Backend {
                    ip: "10.1.0.2".into(),
                    port: 8080,
                },
            )
    };
    let (pipe, mut binding) = Compiler::new()
        .build_sharded(
            &described(1_024),
            ShardSpec::new(2),
            Arc::new(ResourceManager::new()),
        )
        .unwrap();
    let (done, bursts) = (AtomicBool::new(false), AtomicU16::new(0));
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                let round = bursts.fetch_add(1, Ordering::Relaxed);
                let burst: PacketBatch = (0..64u16)
                    .map(|i| {
                        let sport = 10_000 + round.wrapping_mul(64).wrapping_add(i) % 4_096;
                        PacketBuilder::udp_v4("192.0.2.7", "10.0.7.9", sport, 443).build()
                    })
                    .collect();
                pipe.dispatch(burst);
            }
        });
        // The swaps start with traffic already in flight.
        while bursts.load(Ordering::Relaxed) < 4 {
            std::thread::yield_now();
        }
        for swap in 0..SWAPS {
            let capacity = if swap % 2 == 0 { 2_048 } else { 1_024 };
            let patch = binding.diff_to(&described(capacity)).unwrap();
            assert!(!patch.requires_quiesce(), "a param swap runs hot");
            let report = binding.apply_sharded(&pipe, &patch).unwrap();
            assert_eq!(report.epochs, 0, "swap {swap}: no quiesce epoch");
        }
        done.store(true, Ordering::Relaxed);
    });
    pipe.flush();
    let (stats, drops) = (pipe.stats(), pipe.drop_stats());
    assert_eq!(drops.graph, 0, "no packet met an empty backend table");
    assert_eq!(stats.accepted, stats.packets, "{drops:?}");
    pipe.shutdown();
}

#[test]
fn cf_rules_hold_across_dynamic_interface_changes() {
    let (_rt, capsule, cf) = setup();
    let sys = Principal::system();
    let sink = Discard::new();
    let id = capsule.adopt(sink.clone()).unwrap();
    cf.plug(&sys, id).unwrap();
    cf.recheck().unwrap();

    // Dynamically retracting the packet interface breaks rule R1 (a
    // Discard has no packet receptacles to fall back on); the CF's
    // re-check must catch it ("as long as the CF's rules remain
    // satisfied").
    sink.core().retract_interface(IPACKET_PUSH).unwrap();
    assert!(cf.recheck().is_err());
}

#[test]
fn media_filter_adapts_mid_flow_without_rewiring() {
    let (_rt, capsule, _cf) = setup();
    let filter = FrameDropFilter::new();
    let fid = capsule.adopt(filter.clone()).unwrap();
    let sink = Discard::new();
    let sid = capsule.adopt(sink.clone()).unwrap();
    capsule.bind(fid, "out", "", sid, IPACKET_PUSH).unwrap();

    let send = |range: std::ops::Range<u64>| {
        for seq in range {
            let mut pkt = PacketBuilder::udp_v4("192.0.2.1", "203.0.113.9", 5004, 5004)
                .payload_len(100)
                .build();
            annotate_gop(&mut pkt, seq, 9);
            filter.push(pkt).unwrap();
        }
    };

    // Full quality: 9/9 frames pass.
    send(0..9);
    assert_eq!(sink.count(), 9);
    // Congestion: adapt to B-drop (6 of 9 are B).
    filter.set_level(DropLevel::DropB);
    send(9..18);
    assert_eq!(sink.count(), 12);
    // Emergency: I-frames only.
    filter.set_level(DropLevel::DropBP);
    send(18..27);
    assert_eq!(sink.count(), 13);
    // Recovery.
    filter.set_level(DropLevel::None);
    send(27..36);
    assert_eq!(sink.count(), 22);
}

#[test]
fn registry_supports_side_by_side_versions_and_evolution() {
    let (rt, capsule, cf) = setup();
    let sys = Principal::system();

    // A pass-through stage whose descriptor carries an explicit version.
    use netkit::opencom::component::{ComponentCore, ComponentDescriptor, Registrar};
    use netkit::opencom::receptacle::Receptacle;
    struct Stage {
        core: ComponentCore,
        out: Receptacle<dyn IPacketPush>,
    }
    impl Stage {
        fn make(version: Version) -> Arc<dyn Component> {
            Arc::new(Self {
                core: ComponentCore::new(ComponentDescriptor::new("app.Stage", version)),
                out: Receptacle::single("out", IPACKET_PUSH),
            })
        }
    }
    impl IPacketPush for Stage {
        fn push(&self, pkt: netkit::packet::packet::Packet) -> netkit::router::api::PushResult {
            self.out
                .with_bound(|next| next.push(pkt))
                .unwrap_or(Err(netkit::router::api::PushError::Unbound))
        }
    }
    impl Component for Stage {
        fn core(&self) -> &ComponentCore {
            &self.core
        }
        fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
            let p: Arc<dyn IPacketPush> = self.clone();
            reg.expose(IPACKET_PUSH, &p);
            reg.receptacle(&self.out);
        }
    }

    // v1 and v2 of the same deployable type coexist in the registry
    // ("managed software evolution", paper §1).
    rt.registry().register(
        "app.Stage",
        Version::new(1, 0, 0),
        Box::new(|| Stage::make(Version::new(1, 0, 0))),
    );
    rt.registry().register(
        "app.Stage",
        Version::new(2, 0, 0),
        Box::new(|| Stage::make(Version::new(2, 0, 0))),
    );

    let v1 = capsule
        .instantiate_version("app.Stage", Version::new(1, 0, 0))
        .unwrap();
    cf.plug(&sys, v1).unwrap();
    let sink = capsule.adopt(Discard::new()).unwrap();
    cf.plug(&sys, sink).unwrap();
    cf.bind(&sys, v1, "out", "", sink, IPACKET_PUSH).unwrap();

    // Default instantiation resolves to the newest version.
    let v2 = capsule.instantiate("app.Stage").unwrap();
    cf.plug(&sys, v2).unwrap();
    assert_eq!(
        capsule.component(v2).unwrap().core().descriptor().version,
        Version::new(2, 0, 0)
    );

    // Evolve the live pipeline from v1 to v2. A major bump is not a
    // transparent upgrade by version; `replace` checks shape instead.
    let version_of = |id| capsule.component(id).unwrap().core().descriptor().version;
    assert!(!version_of(v2).compatible_upgrade_of(&version_of(v1)));
    capsule.replace(v1, v2, Quiescence::PerEdge).unwrap();
    let entry: Arc<dyn IPacketPush> = capsule
        .query_interface(v2, IPACKET_PUSH)
        .unwrap()
        .downcast()
        .unwrap();
    entry
        .push(PacketBuilder::udp_v4("192.0.2.1", "203.0.113.9", 1, 2).build())
        .unwrap();

    // Undeploying v1 afterwards leaves what runs untouched.
    rt.registry()
        .unregister("app.Stage", Version::new(1, 0, 0))
        .unwrap();
    assert!(capsule
        .instantiate_version("app.Stage", Version::new(1, 0, 0))
        .is_err());
}
