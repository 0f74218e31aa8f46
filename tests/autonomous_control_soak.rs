//! **Autonomous reflective control-loop acceptance** — the pipeline
//! must detect and correct a mid-run traffic shift **with no external
//! `control_turn` caller**: the spawned
//! [`ControlLoop`](netkit::router::shard::control::ControlLoop) is the
//! only control plane in these tests.
//!
//! Four layers of assurance:
//!
//! 1. **Mid-run skew recovery** — balanced traffic, then an elephant
//!    plus colocated mice appear on one shard. The loop alone (tick →
//!    peek window → weighted decide → quiesced install → retire)
//!    migrates until the bottleneck shard's share of fresh traffic
//!    recovers ≥ 1.5× versus the fully-colocated static placement.
//! 2. **Bounded soak across shifting elephants** — several phases,
//!    each re-colocating a fresh elephant herd onto a different shard
//!    of the *current* table, driving many autonomous install epochs.
//!    Asserted: nothing lost or duplicated, per-flow order holds
//!    across every epoch, `classes::REBALANCES` grows monotonically,
//!    and the batch-container pool stops allocating after warm-up
//!    (the `zero_copy_steady_state` bar, now with a live control
//!    loop quiescing the pipeline mid-traffic).
//! 3. **Deterministic sim drive** — the *same* pipeline and control
//!    turn run from the single-threaded simulator's event loop (a
//!    `PipelineNode` on the inline executor, its controller armed from
//!    sim time), and two identical runs produce identical migration
//!    histories — the autonomous loop is reproducible when its cadence
//!    is.
//! 4. **A described controller on the threaded loop** — the stateful
//!    edge's description selects the `hysteresis` core; the controller
//!    it compiles to is spawned as the loop and must migrate a
//!    colocated skew only after `arm` judged windows.
//!
//! The soak is budgeted (rounds per phase, wall-clock deadline) so CI
//! cannot hang on it; `NETKIT_SOAK_PHASES` scales the phase count.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netkit::kernel::shard::ShardSpec;
use netkit::kernel::task::PeriodicSpec;
use netkit::opencom::capsule::Capsule;
use netkit::opencom::meta::resources::{classes, ResourceManager};
use netkit::opencom::runtime::Runtime;
use netkit::packet::batch::PacketBatch;
use netkit::packet::flow::FlowKey;
use netkit::packet::packet::{Packet, PacketBuilder};
use netkit::packet::steer::BucketMap;
use netkit::router::api::{register_packet_interfaces, IPacketPush, IWindow, PushResult, IWINDOW};
use netkit::router::desc::{Compiler, DescBinding, PipelineDesc};
use netkit::router::shard::control::ControlLoop;
use netkit::router::shard::{RebalanceController, RebalancePolicy, ShardGraph, ShardedPipeline};
use netkit::services::edge::{stateful_edge_desc, EdgeProfile};
use parking_lot::Mutex;

const WORKERS: usize = 4;

// ---------------------------------------------------------------- rig

/// Terminal element logging (src_port, seq) arrivals into one global
/// mutex-serialised log — the per-flow order witness.
struct GlobalRecorder {
    log: Arc<Mutex<Vec<(u16, u16)>>>,
}

impl IPacketPush for GlobalRecorder {
    fn push(&self, pkt: Packet) -> PushResult {
        let src_port = pkt.udp_v4().expect("udp").src_port;
        let payload = pkt.udp_payload_v4().expect("seq payload");
        self.log
            .lock()
            .push((src_port, u16::from_be_bytes([payload[0], payload[1]])));
        Ok(())
    }

    /// Zero-alloc-path terminal: drain in place so pool-homed batch
    /// containers recycle whole (the soak asserts the pool freezes).
    fn push_batch(&self, mut batch: PacketBatch) -> netkit::router::api::BatchResult {
        let mut result = netkit::router::api::BatchResult::with_capacity(batch.len());
        for pkt in batch.drain_all() {
            result.record(self.push(pkt));
        }
        result
    }
}

fn recorder_pipeline(
    name: &str,
    log: &Arc<Mutex<Vec<(u16, u16)>>>,
) -> (Arc<ShardedPipeline>, Arc<ResourceManager>) {
    let rm = Arc::new(ResourceManager::new());
    let log = Arc::clone(log);
    let pipe = ShardedPipeline::build(name, ShardSpec::new(WORKERS), Arc::clone(&rm), move |_| {
        let rt = Runtime::new();
        register_packet_interfaces(&rt);
        let capsule = Capsule::new("shard", &rt);
        let entry: Arc<dyn IPacketPush> = Arc::new(GlobalRecorder {
            log: Arc::clone(&log),
        });
        Ok(ShardGraph::new(capsule, entry))
    })
    .expect("pipeline builds");
    (Arc::new(pipe), rm)
}

fn flow_packet(port: u16, seq: u16) -> Packet {
    PacketBuilder::udp_v4("10.0.0.1", "10.0.9.9", port, 443)
        .payload(&seq.to_be_bytes())
        .build()
}

fn bucket_of_port(port: u16) -> usize {
    FlowKey::from_packet(&flow_packet(port, 0))
        .unwrap()
        .bucket()
}

/// Finds `count` ports on distinct, previously unused buckets that the
/// given table steers to `target` — a guaranteed-colocated flow set
/// under the *current* (possibly already migrated) placement.
fn colocated_ports(
    map: &BucketMap,
    target: usize,
    count: usize,
    start_port: u16,
    used: &mut HashSet<usize>,
) -> Vec<u16> {
    let mut out = Vec::new();
    let mut port = start_port;
    while out.len() < count {
        let bucket = bucket_of_port(port);
        if map.shard_of_bucket(bucket) == target && !used.contains(&bucket) {
            used.insert(bucket);
            out.push(port);
        }
        port = port.checked_add(1).expect("port space suffices");
    }
    out
}

/// Windows the control turns have closed on `shard`'s described
/// `guard`, read through the interface it exports.
fn guard_windows(binding: &DescBinding, shard: usize) -> u64 {
    binding
        .with_shard(shard, |cs| {
            let guard = cs.id_of("guard").expect("a described guard");
            let iface = cs.capsule().query_interface(guard, IWINDOW).unwrap();
            iface.downcast::<dyn IWindow>().unwrap().windows()
        })
        .expect("shard is compiled")
}

fn per_shard_packets(pipe: &ShardedPipeline) -> Vec<u64> {
    (0..WORKERS).map(|s| pipe.shard_stats(s).packets).collect()
}

fn assert_per_flow_order(log: &[(u16, u16)], ports: &[u16]) {
    for &port in ports {
        let seqs: Vec<u16> = log
            .iter()
            .filter(|(p, _)| *p == port)
            .map(|(_, s)| *s)
            .collect();
        assert_eq!(
            seqs,
            (0..seqs.len() as u16).collect::<Vec<_>>(),
            "flow {port}: per-flow order broken across autonomous epochs"
        );
    }
}

// ------------------------------------------ 1. mid-run skew recovery

#[test]
fn autonomous_loop_recovers_mid_run_skew() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let (pipe, rm) = recorder_pipeline("auto-e2e", &log);
    let controller = RebalanceController::new(
        RebalancePolicy {
            max_imbalance: 1.25,
            min_samples: 64,
            pressure_weight: 1.0,
            decay: 0.75,
            heavy_blend: 0.0,
        },
        2,
    );
    let ctl = ControlLoop::spawn(
        "auto-e2e-control",
        Arc::clone(&pipe),
        Vec::new(),
        controller,
        PeriodicSpec::every(Duration::from_millis(1)).with_backoff(2.0, Duration::from_millis(8)),
        Arc::clone(&rm),
    )
    .expect("loop spawns");

    let mut used = HashSet::new();
    let identity = pipe.bucket_map();

    // --- phase 1: balanced traffic (4 flows per shard, equal rates) --
    let balanced: Vec<u16> = (0..WORKERS)
        .flat_map(|shard| colocated_ports(&identity, shard, 4, 1000, &mut used))
        .collect();
    let mut seq = vec![0u16; balanced.len()];
    for _ in 0..16 {
        let batch: PacketBatch = balanced
            .iter()
            .enumerate()
            .map(|(i, &port)| {
                let p = flow_packet(port, seq[i]);
                seq[i] += 1;
                p
            })
            .collect();
        pipe.dispatch(batch);
        pipe.flush();
        std::thread::sleep(Duration::from_micros(500));
    }
    let balanced_total = 16 * balanced.len();

    // --- phase 2: skew appears — elephant + 9 mice, all on one shard
    // of the table the loop currently runs ----------------------------
    let current = pipe.bucket_map();
    let elephant = colocated_ports(&current, 0, 1, 20_000, &mut used)[0];
    let mice = colocated_ports(&current, 0, 9, 30_000, &mut used);
    let mut eseq = 0u16;
    let mut mseq = vec![0u16; mice.len()];
    // Per round: 3 elephant packets + 1 per mouse = 12 (elephant 25%).
    let mut skew_round = |pipe: &ShardedPipeline| {
        let mut batch = PacketBatch::new();
        for _ in 0..3 {
            batch.push(flow_packet(elephant, eseq));
            eseq += 1;
        }
        for (i, &m) in mice.iter().enumerate() {
            batch.push(flow_packet(m, mseq[i]));
            mseq[i] += 1;
        }
        pipe.dispatch(batch);
        pipe.flush();
    };

    // Drive skew until the loop — and nobody else — has converged the
    // placement: fresh traffic's bottleneck share must recover >=1.5x
    // versus the static all-on-one-shard placement. The loop may need
    // more than one migration epoch (evidence sharpens as it acts);
    // that is the closed loop working, not a failure.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut recovered = None;
    let mut skew_rounds = 0usize;
    while Instant::now() < deadline {
        // Offer a block of skewed load, then measure the *next* block
        // against the placement the loop has produced so far.
        for _ in 0..16 {
            skew_round(&pipe);
            std::thread::sleep(Duration::from_micros(500));
        }
        skew_rounds += 16;
        if ctl.stats().migrations == 0 {
            continue;
        }
        let before = per_shard_packets(&pipe);
        for _ in 0..16 {
            skew_round(&pipe);
        }
        skew_rounds += 16;
        let after = per_shard_packets(&pipe);
        let deltas: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        let total: u64 = deltas.iter().sum();
        let max = *deltas.iter().max().unwrap();
        if total as f64 >= 1.5 * max as f64 {
            recovered = Some((deltas, ctl.stats()));
            break;
        }
    }
    let (deltas, stats) = recovered.expect("the loop alone must recover >=1.5x within the budget");
    assert!(stats.migrations >= 1, "recovery implies >=1 migration");

    // No external caller ever stepped control_turn; the adaptation
    // trail is on the meta-model: the loop task counts its inspection
    // ticks while it lives...
    let ctl_task = ctl.task();
    assert_eq!(rm.find_task("auto-e2e-control"), Some(ctl_task));
    let ctl_info = rm.task_info(ctl_task).unwrap();
    assert!(ctl_info.usage[classes::TICKS] >= stats.migrations);
    // ...and once the loop is joined (no further tick can land), the
    // pipeline task's REBALANCES equals the migrations it decided —
    // exactly, not approximately.
    let final_ctl = ctl.stop();
    assert!(final_ctl.migrations >= stats.migrations);
    assert!(final_ctl.ticks > 0);
    assert_eq!(final_ctl.panics, 0, "no supervised faults expected");
    let pipe_info = rm.task_info(pipe.task()).unwrap();
    assert_eq!(pipe_info.usage[classes::REBALANCES], final_ctl.migrations);
    assert!(
        rm.task_info(ctl_task).is_err(),
        "a stopped loop releases its resources task"
    );

    // Delivery stayed perfect across every autonomous epoch.
    let total = balanced_total + skew_rounds * 12;
    let final_stats = pipe.stats();
    assert_eq!(final_stats.packets, total as u64, "deltas={deltas:?}");
    assert_eq!(final_stats.dropped, 0);
    let log = log.lock();
    assert_eq!(log.len(), total, "no loss, no duplication");
    let mut all_ports = balanced.clone();
    all_ports.push(elephant);
    all_ports.extend(&mice);
    assert_per_flow_order(&log, &all_ports);
    drop(log);
    Arc::try_unwrap(pipe).expect("sole owner").shutdown();
}

// --------------------------------- 2. bounded soak, shifting elephants

#[test]
fn control_loop_soak_across_shifting_elephants() {
    let phases: usize = std::env::var("NETKIT_SOAK_PHASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let log = Arc::new(Mutex::new(Vec::new()));
    let (pipe, rm) = recorder_pipeline("auto-soak", &log);
    let controller = RebalanceController::new(
        RebalancePolicy {
            max_imbalance: 1.25,
            min_samples: 48,
            pressure_weight: 1.0,
            decay: 0.75,
            heavy_blend: 0.0,
        },
        1,
    );
    let ctl = ControlLoop::spawn(
        "auto-soak-control",
        Arc::clone(&pipe),
        Vec::new(),
        controller,
        PeriodicSpec::every(Duration::from_millis(1)).with_backoff(2.0, Duration::from_millis(4)),
        Arc::clone(&rm),
    )
    .expect("loop spawns");

    let mut used = HashSet::new();
    let mut all_ports: Vec<u16> = Vec::new();
    let mut dispatched = 0usize;
    let mut rebalances_seen = 0u64;
    let mut warm_allocated = None;
    let deadline = Instant::now() + Duration::from_secs(60);

    for phase in 0..phases {
        // A fresh elephant herd, fully colocated on one shard of the
        // table the loop is running *right now*.
        let target = phase % WORKERS;
        let current = pipe.bucket_map();
        let start = 2000 + (phase as u16) * 3000;
        let elephant = colocated_ports(&current, target, 1, start, &mut used)[0];
        let mice = colocated_ports(&current, target, 7, start + 1000, &mut used);
        all_ports.push(elephant);
        all_ports.extend(&mice);
        let mut eseq = 0u16;
        let mut mseq = vec![0u16; mice.len()];
        let migrations_at_entry = ctl.stats().migrations;

        // Bounded budget: drive this phase's skew until the loop has
        // installed at least one corrective epoch for it.
        let mut converged = false;
        for _round in 0..2000 {
            let mut batch = PacketBatch::new();
            for _ in 0..4 {
                batch.push(flow_packet(elephant, eseq));
                eseq += 1;
            }
            for (i, &m) in mice.iter().enumerate() {
                batch.push(flow_packet(m, mseq[i]));
                mseq[i] += 1;
            }
            dispatched += 11;
            pipe.dispatch(batch);
            pipe.flush();
            std::thread::sleep(Duration::from_micros(300));
            if ctl.stats().migrations > migrations_at_entry {
                converged = true;
                break;
            }
            assert!(
                Instant::now() < deadline,
                "soak wall-clock budget exhausted in phase {phase}"
            );
        }
        assert!(
            converged,
            "phase {phase}: the loop never reacted to the shift"
        );

        // Monotone adaptation trail on the pipeline's own task. (The
        // exact usage == migrations equality is asserted after the
        // loop is joined — mid-run, a turn can sit between the
        // controller-side decision and the install-side consume.)
        let usage = rm.task_info(pipe.task()).unwrap().usage[classes::REBALANCES];
        assert!(
            usage >= rebalances_seen && usage > 0,
            "REBALANCES must be monotone: {usage} after {rebalances_seen}"
        );
        rebalances_seen = usage;

        // Zero steady-state container growth once warm (phase 0 is the
        // warm-up; every later phase runs on recycled storage, control
        // quiesces included).
        let allocated = pipe.batch_pool().stats().allocated;
        match warm_allocated {
            None => warm_allocated = Some(allocated),
            Some(warm) => assert_eq!(
                allocated, warm,
                "batch containers must not grow in steady state (phase {phase})"
            ),
        }
    }

    // Nothing lost, nothing duplicated, per-flow order intact across
    // every autonomous install epoch.
    let stats = pipe.stats();
    assert_eq!(stats.packets, dispatched as u64);
    assert_eq!(stats.dropped, 0);
    let log = log.lock();
    assert_eq!(log.len(), dispatched);
    assert_per_flow_order(&log, &all_ports);
    drop(log);

    let final_ctl = ctl.stop();
    assert!(final_ctl.migrations >= phases as u64, "one epoch per phase");
    assert_eq!(final_ctl.panics, 0);
    // With the loop joined, the RM trail matches the decisions exactly.
    assert_eq!(
        rm.task_info(pipe.task()).unwrap().usage[classes::REBALANCES],
        final_ctl.migrations
    );
    Arc::try_unwrap(pipe).expect("sole owner").shutdown();
}

// ------------------------------------------- 3. deterministic sim run

/// What one scripted sim run observed: every migration as
/// `(step, moved buckets)`, per-shard delivery counts, and the final
/// table's per-shard bucket tally.
struct SimRunHistory {
    migrations: Vec<(usize, Vec<usize>)>,
    received: Vec<u64>,
    final_map: Vec<u64>,
}

/// Runs the identical scripted scenario — balanced prefix, skew
/// appears mid-run, the node's own controller takes a turn every 4th
/// event-loop step of simulated time — and returns its full
/// observable history.
fn sim_control_run() -> SimRunHistory {
    use netkit::sim::pipeline::PipelineNode;
    use netkit::sim::Simulator;

    /// One event-loop step of simulated time.
    const STEP_NS: u64 = 1_000;

    let mut sim = Simulator::new(42);
    let ctl = RebalanceController::new(
        RebalancePolicy {
            max_imbalance: 1.25,
            min_samples: 48,
            pressure_weight: 0.0, // the inline executor has no rings
            decay: 0.5,
            heavy_blend: 0.0,
        },
        1,
    );
    // The real pipeline, inline, compiled from a description: a guard
    // (threshold out of this traffic's reach) in front of the shard's
    // egress collector, so per-shard delivery is the pipeline's own
    // count and the node's turns have a window to close.
    let desc = PipelineDesc::new("auto-sim")
        .element_with("guard", "guard", &[("byte_threshold", (1u64 << 40).into())])
        .element("egress", "egress")
        .ingress("guard")
        .edge("guard", "egress");
    let (pipeline_node, binding) =
        PipelineNode::build_desc("auto-sim", &desc, ShardSpec::new(WORKERS)).expect("node builds");
    let node = sim.add_node(Box::new(pipeline_node.with_controller(ctl, 4 * STEP_NS)));

    let stamped = |bucket: u64| -> Packet {
        let mut p = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 9, 9).build();
        p.meta.rss_hash = Some(bucket);
        p
    };

    let mut migrations = Vec::new();
    let mut table = BucketMap::identity(WORKERS);
    for step in 0..48 {
        // Same-instant injections coalesce into one batch delivery.
        if step < 24 {
            // Balanced: 16 buckets, 4 per shard under identity.
            for bucket in 0..16u64 {
                for _ in 0..4 {
                    sim.inject_after(node, STEP_NS, stamped(bucket));
                }
            }
        } else {
            // Skew: elephant on bucket 0 plus six mice, all congruent
            // to shard 0 under the *initial* table.
            for _ in 0..32 {
                sim.inject_after(node, STEP_NS, stamped(0));
            }
            for mouse in [4u64, 8, 12, 16, 20, 24] {
                for _ in 0..5 {
                    sim.inject_after(node, STEP_NS, stamped(mouse));
                }
            }
        }
        // Every 4th step the node's control timer lapses and the loop
        // takes a turn — from the event loop, deterministically, the
        // same `control_turn` the threaded ControlLoop ticks.
        sim.run_for(STEP_NS);
        let current = sim
            .node_behaviour_mut::<PipelineNode>(node)
            .expect("pipeline node")
            .pipeline()
            .bucket_map();
        if current != table {
            migrations.push((step, current.moved_buckets(&table)));
            table = current;
        }
    }
    sim.run_to_idle();
    let behaviour = sim
        .node_behaviour_mut::<PipelineNode>(node)
        .expect("pipeline node");
    // The inline executor runs the same turn: one window per lapse.
    for shard in 0..WORKERS {
        assert_eq!(guard_windows(&binding, shard), behaviour.control_turns());
    }
    let pipe = behaviour.pipeline();
    assert_eq!(pipe.migrations(), migrations.len() as u64);
    let received: Vec<u64> = (0..WORKERS).map(|s| pipe.shard_stats(s).packets).collect();
    let final_map: Vec<u64> = (0..WORKERS)
        .map(|s| {
            (0..netkit::packet::steer::RSS_BUCKETS)
                .filter(|&b| table.shard_of_bucket(b) == s)
                .count() as u64
        })
        .collect();
    SimRunHistory {
        migrations,
        received,
        final_map,
    }
}

#[test]
fn sim_drives_the_same_control_loop_deterministically() {
    let SimRunHistory {
        migrations,
        received,
        final_map,
    } = sim_control_run();

    // The loop reacted to the mid-run shift, autonomously.
    assert!(
        !migrations.is_empty(),
        "the scripted skew must trigger the controller"
    );
    assert!(
        migrations.iter().all(|(step, _)| *step >= 24),
        "the balanced prefix must not migrate: {migrations:?}"
    );
    // Nothing was lost: 24 balanced steps x 64 + 24 skewed steps x 62.
    assert_eq!(received.iter().sum::<u64>(), 24 * 64 + 24 * 62);
    // The herd spread: after the migration the skewed suffix no longer
    // funnels into one shard.
    let busy = received.iter().filter(|&&n| n > 24 * 16).count();
    assert!(busy > 1, "skewed load must spread: {received:?}");

    // Bit-for-bit reproducibility: a second identical run yields the
    // identical migration history, delivery split, and final table.
    let rerun = sim_control_run();
    assert_eq!(rerun.migrations, migrations);
    assert_eq!(rerun.received, received);
    assert_eq!(rerun.final_map, final_map);
}

// ------------------------- 4. a described controller, threaded loop

#[test]
fn described_hysteresis_core_runs_on_the_threaded_loop() {
    // Regression: `ControlLoop::spawn` used to build its own weighted
    // controller, so a described core could only run in the simulator.
    const ARM: u64 = 2; // `stateful_edge_desc`'s band: enter 1.5, arm 2
    let rm = Arc::new(ResourceManager::new());
    let desc = stateful_edge_desc(&EdgeProfile::default());
    let (pipe, binding) = Compiler::new()
        .build_sharded(&desc, ShardSpec::new(2), Arc::clone(&rm))
        .expect("edge builds");
    let pipe = Arc::new(pipe);
    let controller = binding
        .controller()
        .expect("control section compiles")
        .expect("the edge has a control section");

    // Every flow on shard 0, offered before the loop exists: the
    // first tick already sees the skew; nothing arrives afterwards.
    let ports = colocated_ports(&pipe.bucket_map(), 0, 6, 1000, &mut HashSet::new());
    for seq in 0..96 {
        pipe.dispatch(ports.iter().map(|&port| flow_packet(port, seq)).collect());
    }
    pipe.flush();

    let ctl = ControlLoop::spawn(
        "edge-control",
        Arc::clone(&pipe),
        Vec::new(),
        controller,
        PeriodicSpec::every(Duration::from_millis(1)).with_backoff(2.0, Duration::from_millis(4)),
        rm,
    )
    .expect("loop spawns");
    assert!(format!("{ctl:?}").contains("hysteresis core"), "{ctl:?}");
    let deadline = Instant::now() + Duration::from_secs(10);
    while ctl.stats().migrations == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = ctl.stop();

    // A weighted core migrates on the first judged window (zero
    // holds); the band first sees the skew persist. Once migrated, the
    // window is retired and the loop only gathers.
    assert_eq!(stats.migrations, 1, "the described loop must act");
    assert_eq!(stats.holds, ARM - 1, "armed only by persistent skew");
    assert!(!pipe.bucket_map().is_identity(), "the herd was spread");
    // Regression: nothing on the threaded executor closed a described
    // guard's window, so its heavy flows starved forever. The loop's
    // own turns do now, found through the capsule.
    for shard in 0..2 {
        let windows = guard_windows(&binding, shard);
        assert!(windows >= ARM, "shard {shard}: {windows} windows");
    }
    Arc::try_unwrap(pipe).expect("sole owner").shutdown();
}
