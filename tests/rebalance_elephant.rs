//! **Elephant-flow rebalancing acceptance** — the reflective
//! rebalancer must recover the throughput a skewed RSS placement
//! forfeits, without changing what the dataplane *does*.
//!
//! Workload: one elephant flow carrying 50% of all packets plus six
//! mouse flows whose RSS buckets all collide with the elephant's shard
//! under the static identity table — the ROADMAP pathology ("one
//! elephant flow pins one worker at 100% while its siblings idle")
//! made concrete: statically, shard 0 carries **everything**.
//!
//! Two pipelines run the identical stream:
//!
//! * **static** — identity table throughout (PR 2/3 behaviour);
//! * **rebalanced** — after a profiling prefix (1/8 of the stream) the
//!   `RebalancePolicy` plans from the live [`BucketLoad`] window and
//!   installs a new table through the epoch-quiesce migration.
//!
//! Asserted:
//!
//! 1. **Differential equivalence** — both runs deliver identical
//!    per-flow sequences (complete, in order — checked against a
//!    global mutex-serialised arrival log), identical verdict tallies,
//!    and lose nothing. Rebalancing changes placement only.
//! 2. **Load recovery** — the most-loaded shard of the rebalanced run
//!    carries ≤ 1/1.5 of the static run's most-loaded shard (the
//!    makespan model of throughput on a multi-core host: wall-clock is
//!    bottleneck-shard service time). The elephant's own bucket is
//!    indivisible, so perfect 4-way balance is impossible — the bound
//!    asserts the *recoverable* half (the colocated mice) actually
//!    moved.

use std::sync::Arc;

use netkit::kernel::shard::ShardSpec;
use netkit::opencom::capsule::Capsule;
use netkit::opencom::meta::resources::{classes, ResourceManager};
use netkit::opencom::runtime::Runtime;
use netkit::packet::batch::PacketBatch;
use netkit::packet::flow::FlowKey;
use netkit::packet::packet::{Packet, PacketBuilder};
use netkit::router::api::{register_packet_interfaces, IPacketPush, PushResult};
use netkit::router::shard::{RebalanceController, RebalancePolicy, ShardGraph, ShardedPipeline};
use parking_lot::Mutex;

const WORKERS: usize = 4;
const MICE: u16 = 6;
const ROUNDS: usize = 64;
/// Per round: 6 elephant packets + 1 packet per mouse = 12, elephant
/// share exactly 50%.
const PER_ROUND: usize = 12;

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
}

fn pipeline(
    name: &str,
    log: &Arc<Mutex<Vec<(u16, u16)>>>,
) -> (ShardedPipeline, Arc<ResourceManager>) {
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
    (pipe, rm)
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

/// The elephant port plus `MICE` mouse ports whose buckets are all
/// distinct but congruent to the elephant's shard under the identity
/// table — the everything-on-one-shard workload.
fn colliding_ports() -> (u16, Vec<u16>) {
    let elephant = 2000u16;
    let residue = bucket_of_port(elephant) % WORKERS;
    let mut mice = Vec::new();
    let mut seen = vec![bucket_of_port(elephant)];
    let mut port = 3000u16;
    while (mice.len() as u16) < MICE {
        let b = bucket_of_port(port);
        if b % WORKERS == residue && !seen.contains(&b) {
            mice.push(port);
            seen.push(b);
        }
        port += 1;
    }
    (elephant, mice)
}

/// The full interleaved stream: per round, 6 elephant packets then one
/// packet of each mouse.
fn stream(elephant: u16, mice: &[u16]) -> Vec<Packet> {
    let mut out = Vec::with_capacity(ROUNDS * PER_ROUND);
    let mut eseq = 0u16;
    let mut mseq = vec![0u16; mice.len()];
    for _ in 0..ROUNDS {
        for _ in 0..6 {
            out.push(flow_packet(elephant, eseq));
            eseq += 1;
        }
        for (i, &m) in mice.iter().enumerate() {
            out.push(flow_packet(m, mseq[i]));
            mseq[i] += 1;
        }
    }
    out
}

fn dispatch_all(pipe: &ShardedPipeline, pkts: &[Packet]) {
    for chunk in pkts.chunks(PER_ROUND) {
        let batch: PacketBatch = chunk.iter().cloned().collect();
        pipe.dispatch(batch);
    }
}

fn per_flow(log: &[(u16, u16)], port: u16) -> Vec<u16> {
    log.iter()
        .filter(|(p, _)| *p == port)
        .map(|(_, s)| *s)
        .collect()
}

#[test]
fn rebalanced_pipeline_is_equivalent_and_recovers_load() {
    let (elephant, mice) = colliding_ports();
    let pkts = stream(elephant, &mice);
    let total = pkts.len();

    // --- static run: identity table throughout -----------------------
    let static_log = Arc::new(Mutex::new(Vec::new()));
    let (static_pipe, _) = pipeline("static", &static_log);
    dispatch_all(&static_pipe, &pkts);
    static_pipe.flush();
    let static_stats = static_pipe.stats();
    let static_max = (0..WORKERS)
        .map(|s| static_pipe.shard_stats(s).packets)
        .max()
        .unwrap();
    assert_eq!(
        static_max, total as u64,
        "the workload must be fully colocated statically"
    );
    static_pipe.shutdown();

    // --- rebalanced run: profile 1/8, then migrate -------------------
    let reb_log = Arc::new(Mutex::new(Vec::new()));
    let (reb_pipe, rm) = pipeline("rebalanced", &reb_log);
    let prefix = total / 8;
    dispatch_all(&reb_pipe, &pkts[..prefix]);
    reb_pipe.flush(); // close the profiling window

    let mut ctl = RebalanceController::new(
        RebalancePolicy {
            pressure_weight: 0.0,
            decay: 1.0,
            ..RebalancePolicy::default()
        },
        0,
    );
    let (plan, report) = reb_pipe
        .control_turn(&mut ctl, &[])
        .expect("total colocation must trigger the policy");
    assert!(plan.imbalance_before > 3.9, "statically ~4x the ideal");
    assert!(plan.imbalance_after < plan.imbalance_before);
    assert_eq!(report.moved_buckets, plan.moved.len());
    assert_eq!(report.dropped, 0);
    // The elephant's bucket is the heaviest; LPT anchors it while the
    // mice spread out.
    assert!(
        !plan.moved.contains(&bucket_of_port(elephant)),
        "the indivisible elephant bucket should stay put"
    );

    dispatch_all(&reb_pipe, &pkts[prefix..]);
    reb_pipe.flush();
    let reb_stats = reb_pipe.stats();
    let reb_max = (0..WORKERS)
        .map(|s| reb_pipe.shard_stats(s).packets)
        .max()
        .unwrap();
    let busy = (0..WORKERS)
        .filter(|&s| reb_pipe.shard_stats(s).packets > 0)
        .count();

    // 1. Differential equivalence: same verdicts, same per-flow
    //    sequences, nothing lost.
    assert_eq!(static_stats.packets, total as u64);
    assert_eq!(reb_stats.packets, total as u64);
    assert_eq!(static_stats.accepted, reb_stats.accepted);
    assert_eq!(static_stats.dropped, reb_stats.dropped);
    let static_log = static_log.lock();
    let reb_log = reb_log.lock();
    assert_eq!(static_log.len(), total);
    assert_eq!(reb_log.len(), total);
    for &port in std::iter::once(&elephant).chain(&mice) {
        let a = per_flow(&static_log, port);
        let b = per_flow(&reb_log, port);
        assert_eq!(a, b, "flow {port}: sequences diverge across rebalancing");
        assert_eq!(
            b,
            (0..a.len() as u16).collect::<Vec<_>>(),
            "flow {port}: order broken across the migration epoch"
        );
    }

    // 2. Load recovery: the makespan (most-loaded shard) must drop by
    //    the acceptance bar. Statically shard 0 carries 100%; after
    //    the migration it carries the profiling prefix plus the
    //    elephant's indivisible half.
    assert!(busy > 1, "rebalancing must actually spread the load");
    assert!(
        static_max as f64 >= 1.5 * reb_max as f64,
        "bottleneck-shard load must recover >=1.5x: static {static_max}, rebalanced {reb_max}"
    );

    // Reflection saw the adaptation on the pipeline's own task.
    let info = rm.task_info(reb_pipe.task()).unwrap();
    assert_eq!(info.usage[classes::REBALANCES], 1);
    reb_pipe.shutdown();
}
