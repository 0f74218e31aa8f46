//! **Self-healing chaos soak** — a worker is killed *mid-elephant* by a
//! seeded [`FaultPlan`](netkit::kernel::fault::FaultPlan) crash fault,
//! and the spawned [`ControlLoop`] is the **only** recovery actor: its
//! health turn must detect the dead shard and respawn it in place
//! through the pipeline's factory, moving no bucket — no test code
//! ever calls `health_turn` directly.
//!
//! The books must close to zero silent loss. Every dispatched packet is
//! provably in exactly one of:
//!
//! * the delivery log (the per-flow order witness),
//! * the pipeline's cause-tagged drop meters (dead-worker submits,
//!   stranded ring descriptors, ring-full), whose sum
//!   equals the aggregate `dropped` stat by construction, or
//! * the crash ledger: the in-flight batch a panicking worker takes
//!   down with it, counted *by the injected element itself* before it
//!   panics.
//!
//! On top of the accounting: no duplication (every `(flow, seq)` pair
//! is delivered at most once), per-flow order holds across crash and
//! respawn (sequence numbers stay strictly
//! increasing per flow — gaps are allowed, reordering is not), the
//! elephant flow demonstrably resumes after recovery, and the batch
//! pool stops allocating once the post-recovery steady state is warm.
//!
//! The dead window is **deterministic**: one more round is always
//! queued behind the batch the victim dies on, so the corpse always
//! strands a descriptor and `drops.dead_worker > 0` never depends on
//! whether the loop's 1-ms tick or the driver's next dispatch wins the
//! race to the dead shard. The crash runs in two lanes ([`Lane`]): on a
//! worker thread, whose doomed handler holds its last breath until the
//! driver has fed it (see [`CrashInjector::die`]), and in shard 0,
//! which [`ShardSpec::new`] runs on the dispatching thread — there the
//! crash fires inside the driver's own flush, which must survive it,
//! and the driver feeds the corpse before that flush.
//!
//! One seeded round per lane runs by default; `NETKIT_CHAOS_SOAK=1`
//! extends the soak to several rounds with distinct seeds (CI runs the
//! extended variant in release mode).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netkit::kernel::fault::{FaultConfig, FaultPlan};
use netkit::kernel::shard::ShardSpec;
use netkit::kernel::task::PeriodicSpec;
use netkit::opencom::capsule::Capsule;
use netkit::opencom::meta::resources::{classes, ResourceManager};
use netkit::opencom::runtime::Runtime;
use netkit::packet::batch::PacketBatch;
use netkit::packet::flow::FlowKey;
use netkit::packet::packet::{Packet, PacketBuilder};
use netkit::packet::steer::BucketMap;
use netkit::router::api::{register_packet_interfaces, BatchResult, IPacketPush, PushResult};
use netkit::router::shard::control::ControlLoop;
use netkit::router::shard::{RebalanceController, RebalancePolicy, ShardGraph, ShardedPipeline};
use parking_lot::Mutex;

const WORKERS: usize = 4;
/// The crash fires on the victim's `CRASH_AT`-th packet.
const CRASH_AT: u64 = 150;
/// Packets a traffic round steers to the victim: four of the elephant,
/// one per mouse, three mice per shard.
const VICTIM_PER_ROUND: u64 = 4 + 3;

/// Where the crash fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lane {
    /// On shard 1, a worker thread.
    Ring,
    /// On shard 0, a caller slot: inside the driver's flush.
    Caller,
}

impl Lane {
    fn victim(self) -> usize {
        match self {
            Lane::Ring => 1,
            Lane::Caller => 0,
        }
    }
}

// ---------------------------------------------------------------- rig

/// Terminal element logging `(src_port, seq)` arrivals — the witness
/// for loss, duplication, and per-flow order.
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

    fn push_batch(&self, mut batch: PacketBatch) -> BatchResult {
        let mut result = BatchResult::with_capacity(batch.len());
        for pkt in batch.drain_all() {
            result.record(self.push(pkt));
        }
        result
    }
}

/// The chaos ingress: consults the shared [`FaultPlan`] per packet and
/// panics when the crash fault fires — after writing the packets the
/// panic takes down (this one plus the undrained rest of the batch)
/// into the crash ledger, so even the in-flight batch of a dying
/// worker is cause-accounted, not silently lost.
struct CrashInjector {
    plan: Arc<FaultPlan>,
    crash_lost: Arc<AtomicU64>,
    inner: GlobalRecorder,
    window: Arc<DeadWindow>,
    lane: Lane,
}

/// The handshake that makes the dead window deterministic: the doomed
/// worker raises `dying` and waits for `fed`, which the driver raises
/// once it has queued one more round behind the doomed batch.
#[derive(Default)]
struct DeadWindow {
    dying: AtomicBool,
    fed: AtomicBool,
}

impl CrashInjector {
    /// Files the `lost` packets the panic takes down, then dies — but
    /// on a worker thread only once the driver has queued another round
    /// into this worker's ring. The worker is still alive while it
    /// waits, so that round is accepted and steered here, and the
    /// respawn must account its descriptor as a dead-worker drop: one
    /// dispatch always meets the corpse, however the control loop's
    /// tick falls. On the caller slot this runs inside the driver's
    /// flush, which the driver fed before it flushed.
    fn die(&self, lost: u64) -> ! {
        self.crash_lost.fetch_add(lost, Ordering::SeqCst);
        self.window.dying.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(60);
        while self.lane == Lane::Ring && !self.window.fed.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "driver never fed the corpse");
            std::thread::yield_now();
        }
        panic!("injected crash fault");
    }
}

impl IPacketPush for CrashInjector {
    fn push(&self, pkt: Packet) -> PushResult {
        if self.plan.should_panic() {
            self.die(1);
        }
        self.inner.push(pkt)
    }

    fn push_batch(&self, mut batch: PacketBatch) -> BatchResult {
        let pkts: Vec<Packet> = batch.drain_all().collect();
        let total = pkts.len();
        let mut result = BatchResult::with_capacity(total);
        for (i, pkt) in pkts.into_iter().enumerate() {
            if self.plan.should_panic() {
                self.die((total - i) as u64);
            }
            result.record(self.inner.push(pkt));
        }
        result
    }
}

fn flow_packet(port: u16, seq: u16) -> Packet {
    PacketBuilder::udp_v4("10.0.0.1", "10.0.9.9", port, 443)
        .payload(&seq.to_be_bytes())
        .build()
}

/// Finds `count` ports on distinct, previously unused buckets that the
/// given table steers to `target`.
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
        let bucket = FlowKey::from_packet(&flow_packet(port, 0))
            .unwrap()
            .bucket();
        if map.shard_of_bucket(bucket) == target && !used.contains(&bucket) {
            used.insert(bucket);
            out.push(port);
        }
        port = port.checked_add(1).expect("port space suffices");
    }
    out
}

/// Per-flow order under loss: sequence numbers must be strictly
/// increasing (gaps fine — those packets are in the drop ledgers), and
/// strict increase also rules out duplication within a flow.
fn assert_per_flow_monotone(log: &[(u16, u16)], ports: &[u16]) {
    for &port in ports {
        let seqs: Vec<u16> = log
            .iter()
            .filter(|(p, _)| *p == port)
            .map(|(_, s)| *s)
            .collect();
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "flow {port}: order broken across crash and respawn: {seqs:?}"
        );
    }
}

// ------------------------------------------------------- the scenario

/// One full crash-and-recover round under the given seed, the crash
/// firing in `lane`. Returns the packets dispatched, for the caller's
/// curiosity.
fn chaos_round(seed: u64, lane: Lane) -> u64 {
    let victim = lane.victim();
    let log: Arc<Mutex<Vec<(u16, u16)>>> = Arc::new(Mutex::new(Vec::new()));
    let crash_lost = Arc::new(AtomicU64::new(0));
    let window = Arc::new(DeadWindow::default());
    // The crash fires on the n-th packet *through the victim shard's
    // ingress* — mid-run, while the elephant is flowing. The respawned
    // replica is built from the same factory with the same plan; the
    // fault fires exactly once, so the rebuilt injector is benign.
    let plan = Arc::new(FaultPlan::new(
        FaultConfig::new(seed).panic_on_nth(CRASH_AT),
    ));
    let rm = Arc::new(ResourceManager::new());
    let pipe = {
        let (log, crash_lost, plan, window) = (
            Arc::clone(&log),
            Arc::clone(&crash_lost),
            Arc::clone(&plan),
            Arc::clone(&window),
        );
        ShardedPipeline::build(
            &format!("chaos-{seed}"),
            ShardSpec::new(WORKERS),
            Arc::clone(&rm),
            move |shard| {
                let rt = Runtime::new();
                register_packet_interfaces(&rt);
                let capsule = Capsule::new("shard", &rt);
                let recorder = GlobalRecorder {
                    log: Arc::clone(&log),
                };
                let entry: Arc<dyn IPacketPush> = if shard == victim {
                    Arc::new(CrashInjector {
                        plan: Arc::clone(&plan),
                        crash_lost: Arc::clone(&crash_lost),
                        inner: recorder,
                        window: Arc::clone(&window),
                        lane,
                    })
                } else {
                    Arc::new(recorder)
                };
                Ok(ShardGraph::new(capsule, entry))
            },
        )
        .expect("pipeline builds")
    };
    let pipe = Arc::new(pipe);
    let ctl = ControlLoop::spawn(
        &format!("chaos-{seed}-control"),
        Arc::clone(&pipe),
        Vec::new(),
        RebalanceController::new(
            RebalancePolicy {
                max_imbalance: 1.25,
                min_samples: 1 << 20, // effectively: health turns only
                pressure_weight: 0.0,
                decay: 0.5,
                heavy_blend: 0.0,
            },
            1,
        ),
        PeriodicSpec::every(Duration::from_millis(1)).with_backoff(2.0, Duration::from_millis(8)),
        Arc::clone(&rm),
    )
    .expect("loop spawns");

    // An elephant plus mice on the victim shard, mice everywhere else.
    let mut used = HashSet::new();
    let identity = pipe.bucket_map();
    let elephant = colocated_ports(&identity, victim, 1, 20_000, &mut used)[0];
    let mut ports: Vec<u16> = vec![elephant];
    for shard in 0..WORKERS {
        ports.extend(colocated_ports(&identity, shard, 3, 1_000, &mut used));
    }
    let mut seq: Vec<u16> = vec![0; ports.len()];
    let mut dispatched = 0u64;
    // One round: 4 elephant packets + 1 per mouse.
    let traffic_round = |seq: &mut Vec<u16>| -> PacketBatch {
        let mut batch = PacketBatch::new();
        for _ in 0..4 {
            batch.push(flow_packet(ports[0], seq[0]));
            seq[0] += 1;
        }
        for (i, &p) in ports.iter().enumerate().skip(1) {
            batch.push(flow_packet(p, seq[i]));
            seq[i] += 1;
        }
        batch
    };

    // Drive traffic until the crash has fired AND the loop alone has
    // recovered the shard. The dispatcher never stops — the kill lands
    // mid-elephant by construction.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut victim_sent = 0u64;
    while ctl.stats().recoveries == 0 {
        assert!(
            Instant::now() < deadline,
            "control loop never recovered the dead shard (seed {seed}, {lane:?})"
        );
        let batch = traffic_round(&mut seq);
        dispatched += batch.len() as u64;
        pipe.dispatch(batch);
        victim_sent += VICTIM_PER_ROUND;
        let feed = !window.fed.load(Ordering::SeqCst)
            && match lane {
                Lane::Ring => {
                    // A flush would wait on the doomed worker while it
                    // waits on us, so until the corpse is fed the
                    // victim's ring is awaited alone: run dry, or the
                    // crash ledger written and `dying` raised.
                    while !window.dying.load(Ordering::SeqCst)
                        && pipe.shard_loads()[victim].in_flight > 0
                    {
                        assert!(
                            Instant::now() < deadline,
                            "the victim's ring never ran dry (seed {seed})"
                        );
                        std::thread::yield_now();
                    }
                    window.dying.load(Ordering::SeqCst)
                }
                // The flush below runs the doomed packet on this
                // thread: queue the corpse's round before it.
                Lane::Caller => victim_sent >= CRASH_AT,
            };
        if feed {
            let batch = traffic_round(&mut seq);
            dispatched += batch.len() as u64;
            pipe.dispatch(batch);
            window.fed.store(true, Ordering::SeqCst);
        }
        pipe.flush();
        if feed && lane == Lane::Caller {
            assert_eq!(
                plan.stats().panics_fired,
                1,
                "the crash fired inside this thread's flush, which returned"
            );
        }
        std::thread::sleep(Duration::from_micros(300));
    }
    assert!(
        plan.stats().panics_fired >= 1,
        "recovery implies the crash fired"
    );
    assert_eq!(pipe.worker_alive(victim), Some(true), "victim respawned");

    // Delivery resumes through the recovered shard: the elephant keeps
    // going, with fresh sequence numbers landing in the log.
    let elephant_at_recovery = log.lock().iter().filter(|(p, _)| *p == elephant).count();
    for _ in 0..8 {
        let batch = traffic_round(&mut seq);
        dispatched += batch.len() as u64;
        pipe.dispatch(batch);
        pipe.flush();
    }
    let elephant_after = log.lock().iter().filter(|(p, _)| *p == elephant).count();
    assert!(
        elephant_after > elephant_at_recovery,
        "the elephant must flow again after recovery"
    );

    // Post-recovery steady state allocates nothing: the respawn paid
    // its one-off costs; traffic afterwards runs on recycled storage.
    let warm = pipe.batch_pool().stats().allocated;
    for _ in 0..16 {
        let batch = traffic_round(&mut seq);
        dispatched += batch.len() as u64;
        pipe.dispatch(batch);
        pipe.flush();
    }
    assert_eq!(
        pipe.batch_pool().stats().allocated,
        warm,
        "steady-state allocations must return to zero after recovery"
    );

    // Stop the loop, then close the books.
    let final_ctl = ctl.stop();
    assert!(final_ctl.recoveries >= 1);
    assert_eq!(final_ctl.panics, 0, "the loop thread itself never faults");
    assert!(pipe.recoveries() >= 1);
    pipe.flush();

    // Zero silent loss: delivered + cause-tagged drops + crash ledger
    // account for every dispatched packet.
    let drops = pipe.drop_stats();
    let delivered = log.lock().len() as u64;
    assert_eq!(
        drops.total(),
        pipe.stats().dropped,
        "every pipeline drop files under exactly one cause: {drops:?}"
    );
    assert_eq!(
        delivered + drops.total() + crash_lost.load(Ordering::SeqCst),
        dispatched,
        "books must close: {delivered} delivered, {drops:?}, {} crash-lost of {dispatched}",
        crash_lost.load(Ordering::SeqCst)
    );
    assert!(
        drops.dead_worker > 0,
        "the dead window must have filed dead-worker drops"
    );

    // No duplication anywhere, and per-flow order holds across the
    // crash and the respawn.
    let log = log.lock();
    let unique: HashSet<&(u16, u16)> = log.iter().collect();
    assert_eq!(unique.len(), log.len(), "no (flow, seq) delivered twice");
    assert_per_flow_monotone(&log, &ports);
    drop(log);

    // The recovery trail is on the meta-model: each respawn billed one
    // FAULTS unit on the pipeline's task.
    let usage = rm.task_info(pipe.task()).unwrap().usage[classes::FAULTS];
    assert_eq!(usage, pipe.recoveries(), "one FAULTS unit per respawn");

    Arc::try_unwrap(pipe).expect("sole owner").shutdown();
    dispatched
}

/// Runs the soak's rounds in `lane`: one by default, and with
/// `NETKIT_CHAOS_SOAK=1` more rounds with fresh seeds — each a full
/// build/kill/recover/verify cycle.
fn soak(lane: Lane) {
    let rounds: u64 = match std::env::var("NETKIT_CHAOS_SOAK") {
        Ok(v) if v != "0" => 4,
        _ => 1,
    };
    for round in 0..rounds {
        let dispatched = chaos_round(0xC0FFEE + round, lane);
        assert!(dispatched > 0);
    }
}

#[test]
fn control_loop_alone_recovers_a_mid_elephant_crash() {
    soak(Lane::Ring);
}

#[test]
fn control_loop_alone_recovers_a_crash_in_the_caller_run_shard() {
    soak(Lane::Caller);
}
