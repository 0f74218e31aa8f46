//! The adapter between the benchmark and the program under test — the
//! **only** file that names repository APIs (README.md lists the
//! surface, so a rename elsewhere costs an edit here and nowhere else).
//!
//! [`Rig`] is one wire-to-wire forwarding plane: an rx NIC with a
//! buffer pool, a description-compiled `ShardedPipeline`, and a tx NIC
//! with one queue per worker that the graph's `todevice` sink
//! transmits on. [`Lanes`], [`ElementLane`], [`FlowLanes`] and
//! [`Baseline`] run single layers in isolation on the driver thread for
//! the per-layer budget.

use std::sync::Arc;
use std::time::{Duration, Instant};

use netkit::baselines::{ClickRouter, MonolithicStatefulEdge};
use netkit::kernel::nic::{Nic, PortId};
use netkit::kernel::shard::{ShardSpec, WorkerPool};
use netkit::opencom::component::Component;
use netkit::opencom::meta::resources::ResourceManager;
use netkit::packet::batch::PacketBatch;
use netkit::packet::flow::FlowKey;
use netkit::packet::packet::PacketBuilder;
use netkit::packet::pool::BufferPool;
use netkit::packet::sketch::{FlowSketch, SketchConfig};
use netkit::packet::steer::BucketMap;
use netkit::router::api::IPacketPush;
use netkit::router::desc::{Compiler, DescBinding, ElementHandle, Patch, PipelineDesc};
use netkit::router::elements::{Counter, ToDevice};
use netkit::router::flow::{ConnTracker, Guard, GuardConfig, Nat44, Nat44Config};
use netkit::router::shard::ShardedPipeline;
use netkit::services::edge::{stateful_edge_desc, EdgeProfile};

use crate::gen::Arena;
use crate::workload::BURST;

/// Frames per NIC ring: a whole round fits in any one queue, so no
/// workload can tail-drop at the NIC whatever the flow skew.
const NIC_RING: usize = 2048;
const SLAB: usize = 2048;
const LINK_BPS: u64 = 10_000_000_000;
/// Buckets `migrate` moves to the next shard and back.
const MIGRATE_BUCKETS: usize = 32;

/// The edge under test: the canonical profile with the guard's byte
/// threshold out of reach (it stays on its count-min fast path
/// whichever sketch it reads) and a NAT port pool larger than the NAT
/// table's binding capacity, so LRU eviction frees a port before the
/// pool can run dry.
fn edge_profile() -> EdgeProfile {
    EdgeProfile {
        byte_threshold: u64::MAX / 2,
        nat_blocks: 128,
        ..EdgeProfile::default()
    }
}

/// The source address every frame leaves the edge with.
pub fn external_ip() -> [u8; 4] {
    edge_profile().external_ip.octets()
}

/// A well-formed frame of the given L4 protocol and payload size; the
/// generator patches source, flags and sequence number into copies.
pub fn frame_template(tcp: bool, payload: usize) -> Vec<u8> {
    let b = if tcp {
        PacketBuilder::tcp_v4("10.0.0.1", "203.0.113.9", 1, 443)
    } else {
        PacketBuilder::udp_v4("10.0.0.1", "10.9.9.9", 1, 9)
    };
    b.payload_len(payload).build().data().to_vec()
}

/// The RSS hash the NIC computes for `frame` (`None`: not a flow).
pub fn flow_hash(frame: &[u8]) -> Option<u64> {
    FlowKey::from_frame(frame).map(|k| k.rss_hash())
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Graph {
    /// `counter -> todevice`: nothing but per-packet fixed cost.
    Bare,
    /// `guard -> conntrack -> nat44 -> counter -> todevice`.
    Edge,
}

#[derive(Clone, Copy, Debug)]
pub struct RigSpec {
    pub graph: Graph,
    /// Hardware RSS (one rx queue per worker, `pump_nic`) instead of
    /// one rx queue and software `dispatch`.
    pub rss: bool,
    pub workers: usize,
}

/// A description the control actions patch towards.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Target {
    Base,
    /// One parameter of a non-ingress element changed (the edge's
    /// `conntrack.capacity`; the bare graph has no element parameters,
    /// so its one knob is the control section's `max_imbalance`).
    Param,
    /// A `counter` tap inserted on the edge into the egress element.
    Tapped,
}

/// A computed patch, opaque to the driver.
pub struct Plan(Patch);

/// Counters read off the program after a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub drop_ring_full: u64,
    pub drop_dead_worker: u64,
    pub drop_resteer: u64,
    pub drop_guard: u64,
    pub drop_graph: u64,
    pub rx_dropped: u64,
    pub tx_dropped: u64,
    pub buf_allocated: u64,
    pub buf_reused: u64,
    pub batch_allocated: u64,
    pub ring_high_water: u64,
}

impl Counters {
    /// Frames the program itself accounts as lost.
    pub fn lost(&self) -> u64 {
        self.drop_ring_full
            + self.drop_dead_worker
            + self.drop_resteer
            + self.drop_guard
            + self.drop_graph
            + self.rx_dropped
            + self.tx_dropped
    }
}

pub struct Rig {
    spec: RigSpec,
    rx: Arc<Nic>,
    tx: Arc<Nic>,
    bufs: BufferPool,
    pipe: ShardedPipeline,
    binding: DescBinding,
    base: PipelineDesc,
    param: PipelineDesc,
    tapped: PipelineDesc,
    /// Time `Compiler::build_sharded` took for this rig.
    pub compile: Duration,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `base` with a `counter` named `tap` spliced into the edge
/// `from -> to`.
fn tap_between(base: &PipelineDesc, from: &str, to: &str) -> PipelineDesc {
    let mut d = base.clone();
    d.edges.retain(|e| !(e.from == from && e.to == to));
    d.element("tap", "counter")
        .edge(from, "tap")
        .edge("tap", to)
}

impl Rig {
    /// Builds pools, NICs and the pipeline, and starts the workers.
    ///
    /// # Errors
    ///
    /// Propagates description-validation and compile failures.
    pub fn build(spec: RigSpec) -> Result<Rig, String> {
        // A round's frames are all in flight at once; the free list
        // holds two rounds' worth so steady state never allocates.
        let bufs = BufferPool::new(SLAB, 0, 2 * NIC_RING);
        let rx_queues = if spec.rss { spec.workers } else { 1 };
        let rx = Arc::new(
            Nic::with_queues(PortId(0), rx_queues, NIC_RING, NIC_RING, LINK_BPS)
                .with_buffer_pool(bufs.clone()),
        );
        let tx = Arc::new(Nic::with_queues(
            PortId(1),
            spec.workers,
            NIC_RING,
            NIC_RING,
            LINK_BPS,
        ));
        let (base, param, tapped) = match spec.graph {
            Graph::Bare => {
                let knob = |v: f64| {
                    PipelineDesc::new("bare")
                        .element("count", "counter")
                        .element("sink", "todevice")
                        .ingress("count")
                        .edge("count", "sink")
                        .control("weighted", &[("max_imbalance", v.into())])
                };
                (
                    knob(1.25),
                    knob(1.5),
                    tap_between(&knob(1.25), "count", "sink"),
                )
            }
            Graph::Edge => {
                let p = edge_profile();
                let base = stateful_edge_desc(&p).element("sink", "todevice");
                let param = base.clone().set_param(
                    "conntrack",
                    "capacity",
                    (p.conn_capacity + 1024).into(),
                );
                let tapped = tap_between(&base, "nat", "egress");
                (base, param, tapped)
            }
        };
        let nic = Arc::clone(&tx);
        let compiler = Compiler::new().external("todevice", move |shard| {
            let sink: Arc<dyn Component> = ToDevice::with_queue(Arc::clone(&nic), shard);
            (sink, ElementHandle::Plain)
        });
        let started = Instant::now();
        let (pipe, binding) = compiler
            .build_sharded(
                &base,
                ShardSpec::new(spec.workers),
                Arc::new(ResourceManager::new()),
            )
            .map_err(err)?;
        let compile = started.elapsed();
        Ok(Rig {
            spec,
            rx,
            tx,
            bufs,
            pipe,
            binding,
            base,
            param,
            tapped,
            compile,
        })
    }

    /// The wire delivers one frame to the rx NIC. `false`: ring full.
    pub fn inject(&self, frame: &[u8]) -> bool {
        self.rx.inject_rx_frame(frame)
    }

    /// Hands every frame waiting in the rx NIC to the workers, one
    /// burst at a time. Returns the frames published.
    pub fn publish(&self) -> usize {
        let mut total = 0;
        if self.spec.rss {
            loop {
                let mut got = 0;
                for shard in 0..self.spec.workers {
                    got += self.pipe.pump_nic(&self.rx, shard, BURST);
                }
                if got == 0 {
                    return total;
                }
                total += got;
            }
        }
        loop {
            let mut batch = self.pipe.batch_pool().take();
            let got = self.rx.rx_burst_batch(0, BURST, &mut batch);
            if got == 0 {
                return total;
            }
            total += got;
            self.pipe.dispatch(batch);
        }
    }

    /// Blocks until the workers have run everything published.
    pub fn flush(&self) {
        self.pipe.flush();
    }

    /// The wire takes every frame off the tx NIC.
    pub fn drain(&self, mut wire: impl FnMut(&[u8])) {
        for queue in 0..self.tx.queues() {
            while let Some(frame) = self.tx.drain_tx_frame(queue) {
                wire(&frame);
            }
        }
    }

    /// Diffs the live description against `target`.
    ///
    /// # Errors
    ///
    /// Propagates validation failures.
    pub fn plan(&self, target: Target) -> Result<Plan, String> {
        let next = match target {
            Target::Base => &self.base,
            Target::Param => &self.param,
            Target::Tapped => &self.tapped,
        };
        self.binding.diff_to(next).map(Plan).map_err(err)
    }

    /// Applies a plan to the running pipeline; returns the quiesce
    /// epochs it consumed.
    ///
    /// # Errors
    ///
    /// Propagates apply failures (the binding is stale afterwards).
    pub fn apply(&mut self, plan: Plan) -> Result<u64, String> {
        self.binding
            .apply_sharded(&self.pipe, &plan.0)
            .map(|report| report.epochs)
            .map_err(err)
    }

    /// Moves [`MIGRATE_BUCKETS`] buckets to the next shard (`forward`)
    /// or restores them, re-steering the rx NIC in the same epoch.
    /// Returns the buckets moved.
    pub fn migrate(&self, forward: bool) -> usize {
        let mut map = self.pipe.bucket_map();
        let shards = self.spec.workers;
        for bucket in 0..MIGRATE_BUCKETS {
            let home = bucket % shards;
            map.set(bucket, if forward { (home + 1) % shards } else { home });
        }
        self.pipe.install_bucket_map(map, &[&self.rx]).moved_buckets
    }

    /// One empty quiesce epoch on the running pipeline.
    pub fn quiesce(&self) {
        self.pipe.quiesce(|| {});
    }

    pub fn counters(&self) -> Counters {
        let d = self.pipe.drop_stats();
        let (rx, tx) = (self.rx.stats(), self.tx.stats());
        let bufs = self.bufs.stats();
        Counters {
            drop_ring_full: d.ring_full,
            drop_dead_worker: d.dead_worker,
            drop_resteer: d.resteer_shed,
            drop_guard: d.guard,
            drop_graph: d.graph,
            rx_dropped: rx.rx_dropped,
            tx_dropped: tx.tx_dropped,
            buf_allocated: bufs.allocated,
            buf_reused: bufs.reused,
            batch_allocated: self.pipe.batch_pool().stats().allocated,
            ring_high_water: self
                .pipe
                .shard_loads()
                .iter()
                .map(|l| l.ring_high_water as u64)
                .max()
                .unwrap_or(0),
        }
    }

    /// The whole graph inline: each shard's replica entered on the
    /// calling thread (use with the pipeline at rest); output is
    /// drained off the tx NIC untimed.
    pub fn graph_lane(&self) -> ElementLane {
        ElementLane {
            tx: Some(Arc::clone(&self.tx)),
            ..ElementLane::of((0..self.spec.workers).map(|s| self.pipe.entry(s)).collect())
        }
    }

    /// Stops the workers.
    pub fn shutdown(self) {
        self.pipe.shutdown();
    }
}

/// Sums the time `sink.push_batch` takes over `batches`.
fn time_pushes(sink: &dyn IPacketPush, batches: Vec<PacketBatch>) -> Duration {
    let mut busy = Duration::ZERO;
    for batch in batches {
        let t = Instant::now();
        std::hint::black_box(sink.push_batch(batch));
        busy += t.elapsed();
    }
    busy
}

/// Makes batches the way the real path makes them — frames injected
/// into a pooled NIC and taken back as rss-stamped packets, one rx
/// queue per shard — so a lane sees the packets it would see in the
/// pipeline. Also hosts the lanes that need no state of their own.
pub struct Lanes {
    nic: Nic,
    workers: usize,
}

impl Lanes {
    pub fn new(workers: usize) -> Self {
        let nic = Nic::with_queues(PortId(9), workers, NIC_RING, NIC_RING, LINK_BPS)
            .with_buffer_pool(BufferPool::new(SLAB, 0, 2 * NIC_RING));
        Self { nic, workers }
    }

    fn inject(&self, arena: &Arena) {
        for frame in arena.frames() {
            assert!(
                self.nic.inject_rx_frame(frame),
                "lane NIC ring holds a round"
            );
        }
    }

    /// One round's frames as per-shard bursts of pooled, stamped
    /// packets.
    pub fn batches(&self, arena: &Arena) -> Vec<Vec<PacketBatch>> {
        self.inject(arena);
        (0..self.workers)
            .map(|queue| {
                let mut out = Vec::new();
                loop {
                    let mut batch = PacketBatch::with_capacity(BURST);
                    if self.nic.rx_burst_batch(queue, BURST, &mut batch) == 0 {
                        return out;
                    }
                    out.push(batch);
                }
            })
            .collect()
    }

    /// `FlowKey::from_frame` + `rss_hash` over a round.
    pub fn parse(&self, arena: &Arena) -> Duration {
        let t = Instant::now();
        for frame in arena.frames() {
            std::hint::black_box(flow_hash(std::hint::black_box(frame)));
        }
        t.elapsed()
    }

    /// `Nic::rx_burst_batch` over a round (materialisation only; the
    /// packets drop untimed).
    pub fn rx_burst(&self, arena: &Arena) -> Duration {
        self.inject(arena);
        let mut busy = Duration::ZERO;
        let mut batch = PacketBatch::with_capacity(BURST);
        for queue in 0..self.workers {
            loop {
                let t = Instant::now();
                let got = self.nic.rx_burst_batch(queue, BURST, &mut batch);
                busy += t.elapsed();
                if got == 0 {
                    break;
                }
                batch.clear();
            }
        }
        busy
    }

    /// The software dispatch's two halves over a round: the
    /// counting-sort split, then sharing the parent and gathering each
    /// shard's range. Returns `(split, gather)`.
    pub fn split_gather(&self, arena: &Arena) -> (Duration, Duration) {
        let map = BucketMap::identity(self.workers);
        let (mut split, mut gather) = (Duration::ZERO, Duration::ZERO);
        let mut outs: Vec<PacketBatch> = (0..self.workers)
            .map(|_| PacketBatch::with_capacity(BURST))
            .collect();
        for batch in self.batches(arena).into_iter().flatten() {
            let t = Instant::now();
            let parts = batch.shard_split_with(&map);
            split += t.elapsed();
            let t = Instant::now();
            let shared = parts.into_shared();
            for (shard, out) in outs.iter_mut().enumerate() {
                shared.range(shard).take_into(out);
            }
            gather += t.elapsed();
            outs.iter_mut().for_each(PacketBatch::clear);
        }
        (split, gather)
    }

    /// Ring hand-off alone: `jobs` no-op jobs through a `WorkerPool`,
    /// each published and flushed on its own.
    pub fn handoff(&self, jobs: usize) -> Duration {
        let pool: WorkerPool<u64> =
            WorkerPool::start(ShardSpec::new(self.workers), |_| Box::new(|_job: u64| {}));
        let t = Instant::now();
        for job in 0..jobs {
            pool.submit(job % self.workers, job as u64)
                .expect("a no-op worker cannot die");
            pool.flush();
        }
        let busy = t.elapsed();
        pool.shutdown();
        busy
    }
}

/// Packet sinks driven inline on the driver thread: one per shard (fed
/// that shard's batches, so stateful tables see what they see in the
/// pipeline) or one for all.
pub struct ElementLane {
    sinks: Vec<Arc<dyn IPacketPush>>,
    /// Where a transmitting sink's frames pile up, drained untimed.
    tx: Option<Arc<Nic>>,
    /// Keeps a compiled chain's workers alive for the lane's lifetime.
    _pipe: Option<ShardedPipeline>,
}

impl ElementLane {
    fn of(sinks: Vec<Arc<dyn IPacketPush>>) -> Self {
        Self {
            sinks,
            tx: None,
            _pipe: None,
        }
    }

    /// One `Counter` in sink mode.
    pub fn counter() -> Self {
        Self::of(vec![Counter::new()])
    }

    /// One `ToDevice` onto a tx ring.
    pub fn todevice() -> Self {
        let tx = Arc::new(Nic::new(PortId(8), 1, NIC_RING, LINK_BPS));
        Self {
            tx: Some(Arc::clone(&tx)),
            ..Self::of(vec![ToDevice::new(tx)])
        }
    }

    /// A compiled chain of `counters` counters into a discard, entered
    /// through the pipeline's entry. Two chain lengths price one
    /// receptacle hop by difference.
    ///
    /// # Errors
    ///
    /// Propagates compile failures.
    pub fn chain(counters: usize) -> Result<Self, String> {
        let mut d = PipelineDesc::new("chain")
            .element("sink", "discard")
            .ingress("c0");
        for i in 0..counters {
            let next = if i + 1 == counters {
                "sink".to_owned()
            } else {
                format!("c{}", i + 1)
            };
            d = d
                .element(&format!("c{i}"), "counter")
                .edge(&format!("c{i}"), &next);
        }
        let (pipe, _binding) = Compiler::new()
            .build_sharded(&d, ShardSpec::single(), Arc::new(ResourceManager::new()))
            .map_err(err)?;
        Ok(Self {
            sinks: vec![pipe.entry(0)],
            tx: None,
            _pipe: Some(pipe),
        })
    }

    /// Pushes a round's batches; returns the time inside `push_batch`.
    pub fn feed(&self, by_shard: Vec<Vec<PacketBatch>>) -> Duration {
        let mut busy = Duration::ZERO;
        for (shard, batches) in by_shard.into_iter().enumerate() {
            busy += time_pushes(&*self.sinks[shard % self.sinks.len()], batches);
            if let Some(tx) = &self.tx {
                for queue in 0..tx.queues() {
                    while tx.drain_tx_frame(queue).is_some() {}
                }
            }
        }
        busy
    }
}

fn as_sinks<T: IPacketPush + 'static>(elements: &[Arc<T>]) -> Vec<Arc<dyn IPacketPush>> {
    elements
        .iter()
        .map(|e| Arc::clone(e) as Arc<dyn IPacketPush>)
        .collect()
}

/// What the stateful-element lanes read off their instances.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowLaneStats {
    pub conntrack_hits: u64,
    pub conntrack_misses: u64,
    pub evictions: u64,
    pub nat_exhausted: u64,
}

/// Each stateful edge element alone, in sink mode, one instance per
/// shard, configured from the same profile the edge is compiled from.
pub struct FlowLanes {
    pub guard: ElementLane,
    pub conntrack: ElementLane,
    pub nat44: ElementLane,
    trackers: Vec<Arc<ConnTracker>>,
    nats: Vec<Arc<Nat44>>,
}

impl FlowLanes {
    pub fn new(workers: usize) -> Self {
        let p = edge_profile();
        let guards = (0..workers).map(|_| -> Arc<dyn IPacketPush> {
            Guard::new(
                Arc::new(FlowSketch::new(SketchConfig::default())),
                GuardConfig {
                    byte_threshold: p.byte_threshold,
                    window_budget: p.window_budget,
                    ..GuardConfig::default()
                },
            )
        });
        let trackers: Vec<Arc<ConnTracker>> = (0..workers)
            .map(|_| ConnTracker::with_table(p.conn_capacity as usize, u64::MAX))
            .collect();
        let nats: Vec<Arc<Nat44>> = (0..workers)
            .map(|_| {
                Nat44::new(Nat44Config {
                    external_ip: p.external_ip,
                    port_base: p.port_base,
                    blocks: p.nat_blocks,
                    block_size: p.nat_block_size,
                    ..Nat44Config::default()
                })
            })
            .collect();
        Self {
            guard: ElementLane::of(guards.collect()),
            conntrack: ElementLane::of(as_sinks(&trackers)),
            nat44: ElementLane::of(as_sinks(&nats)),
            trackers,
            nats,
        }
    }

    pub fn stats(&self) -> FlowLaneStats {
        let mut stats = FlowLaneStats::default();
        for t in &self.trackers {
            let s = t.table_stats();
            stats.conntrack_hits += s.hits;
            stats.conntrack_misses += s.misses;
            stats.evictions += s.lru_evictions;
        }
        stats.nat_exhausted = self.nats.iter().map(|n| n.stats().exhausted).sum();
        stats
    }
}

/// Accepted / dropped counts of one contender over the same frames.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdicts {
    pub accepted: u64,
    pub dropped: u64,
}

enum Contender {
    Click(ClickRouter, &'static str),
    Monolithic(MonolithicStatefulEdge),
}

/// A baseline router fed the same frames inline: the host-speed
/// control, and the paper's "price of reconfigurability" ratio. Tables
/// and pools are sized so nothing is refused for lack of room over the
/// fixed prefix the baselines are fed (they never reclaim).
pub struct Baseline {
    contender: Contender,
    fed: u64,
    /// Frames the monolithic edge refused (Click counts its own).
    refused: u64,
}

impl Baseline {
    fn click(config: &str, entry: &'static str) -> Result<Self, String> {
        Ok(Self {
            contender: Contender::Click(ClickRouter::compile(config).map_err(err)?, entry),
            fed: 0,
            refused: 0,
        })
    }

    /// # Errors
    ///
    /// Propagates a config compile failure.
    pub fn click_edge() -> Result<Self, String> {
        Self::click(
            &format!(
                "guard :: Guard({}); ct :: ConnTracker(1048576);\n\
                 nat :: Nat44({}, 1024, 64000); sink :: Discard;\n\
                 guard -> ct -> nat -> sink;",
                u64::MAX / 2,
                edge_profile().external_ip
            ),
            "guard",
        )
    }

    /// # Errors
    ///
    /// Propagates a config compile failure.
    pub fn click_bare() -> Result<Self, String> {
        Self::click("c :: Counter; sink :: Discard; c -> sink;", "c")
    }

    pub fn monolithic_edge() -> Self {
        Self {
            contender: Contender::Monolithic(MonolithicStatefulEdge::new(
                u64::MAX / 2,
                1 << 20,
                edge_profile().external_ip,
                1024,
                64_000,
            )),
            fed: 0,
            refused: 0,
        }
    }

    /// Runs a round's batches through the contender; returns the time
    /// inside it.
    pub fn feed(&mut self, by_shard: Vec<Vec<PacketBatch>>) -> Duration {
        let mut busy = Duration::ZERO;
        for mut batch in by_shard.into_iter().flatten() {
            let n = batch.len() as u64;
            let t = Instant::now();
            match &self.contender {
                Contender::Click(click, entry) => click.push_batch(entry, batch),
                Contender::Monolithic(mono) => {
                    for pkt in batch.packets_mut() {
                        if mono.process(pkt).is_err() {
                            self.refused += 1;
                        }
                    }
                    drop(batch);
                }
            }
            busy += t.elapsed();
            self.fed += n;
        }
        busy
    }

    /// Frames delivered to the sink and frames refused so far.
    pub fn verdicts(&self) -> Verdicts {
        let accepted = match &self.contender {
            Contender::Click(click, _) => click.count("sink").unwrap_or(0),
            Contender::Monolithic(_) => self.fed - self.refused,
        };
        Verdicts {
            accepted,
            dropped: self.fed - accepted,
        }
    }
}
