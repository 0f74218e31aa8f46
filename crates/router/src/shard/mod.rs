//! Sharded pipeline execution: per-worker element-graph replicas behind
//! one logical reflective surface.
//!
//! The Router CF's element graphs are built from `Arc`'d components with
//! interior mutability, so a graph *could* be driven from many threads —
//! but then every counter, queue, and receptacle lock becomes a
//! cross-core contention point, which is exactly what run-to-completion
//! dataplanes avoid. [`ShardedPipeline`] instead **replicates** the
//! graph: a factory builds one independent replica (own capsule, own
//! elements) per worker of a [`ShardSpec`], and an RSS dispatcher
//! ([`PacketBatch::shard_split_with`] — a single counting-sort pass
//! over stamped RSS hashes, no sub-batch re-materialisation) keeps each
//! flow on one replica, preserving intra-flow order with zero sharing on
//! the fast path. The split parent is then *shared*, not moved:
//! [`ShardedPipeline::dispatch`] publishes one refcounted shard-range
//! descriptor per shard in a single batched fan-out
//! ([`WorkerPool::submit_fanout`]), each shard's drainer gathers its
//! slice into a pooled container in parallel, and the parent recycles
//! when the
//! last range drops. Batch containers come from a [`BatchPool`]
//! freelist and the NIC pump path ([`ShardedPipeline::pump_nic`])
//! moves pool-leased frame buffers straight into packets, so
//! steady-state forwarding is allocation- and move-free per batch on
//! the dispatch thread.
//!
//! Two things keep the replicas *one component* in the reflective
//! model's eyes:
//!
//! * **Resource rollup** — the pipeline owns a single task in
//!   [`ResourceManager`]; every worker's packet count rolls up into that
//!   task's `packets` usage (lazily, at [`ShardedPipeline::flush`] /
//!   [`ShardedPipeline::stats`] time, so the hot path never touches the
//!   manager's locks). Introspection sees one task, one usage figure.
//! * **Atomic reconfiguration** — [`ShardedPipeline::quiesce`] runs a
//!   closure holding every shard's handler lock
//!   ([`WorkerPool::quiesce`]): no replica is mid-batch anywhere, so an
//!   architecture-meta-model change (insert/remove
//!   element, `Capsule::replace` hot swap, classifier filter update)
//!   applied to each replica inside the closure is indivisible — no
//!   packet ever sees a half-reconfigured dataplane, and traffic
//!   submitted meanwhile queues rather than drops.
//!
//! ## One pipeline, one executor, two placements
//!
//! Everything above — and below: steering, meters, cause-tagged drop
//! accounting, control turns, crash recovery, patch application — is
//! written once, over one [`WorkerPool`]. What differs between the
//! threaded dataplane and the deterministic simulator is *which thread
//! drains a shard*, and the [`ShardSpec`] says it. A shard is a replica
//! behind a handler lock plus a bounded queue of ranges; a drainer is
//! a thread that takes the lock and runs the queue. A shard may have a
//! home drainer thread; one without is drained by whoever next waits
//! on the pipeline — [`ShardedPipeline::flush`], a quiesce, or a
//! dispatch that finds the queue full. [`ShardSpec::new`] gives every
//! shard but shard 0 a drainer thread ([`ShardedPipeline::build`]): a
//! driver dispatches a round, every drainer streams its share off one
//! wake, and the driver runs shard 0's share inside `flush` instead of
//! parking there, so a one-shard pipeline needs no thread at all.
//! [`ShardSpec::inline`] has no drainer threads: the caller runs every
//! shard, shard by shard in index order.
//! A discrete-event simulator hosts one such pipeline per node
//! (`netkit_sim::pipeline::PipelineNode`, which flushes after every
//! dispatch), each with its own [`RebalanceController`] driven from
//! simulated time, and replays a whole city of *real* stateful
//! dataplanes bit-for-bit from a seed.
//! `tests/sim_pipeline_differential.rs` pins the equivalence: for the
//! same trace both placements produce identical verdict counts,
//! per-shard multisets and per-flow order.
//!
//! Every shard keeps one set of books and dies one way, whichever
//! thread drains it: its queue counts in [`ShardLoad::in_flight`] and
//! [`ShardLoad::ring_high_water`], a re-steer bounced off a full queue
//! is a ring-full drop, a panic in its graph is caught by the drainer
//! that ran it, the shard is marked dead, later dispatches to it are
//! filed as dead-worker drops, and [`ShardedPipeline::health_turn`]
//! respawns it in place, filing the ranges still queued behind the
//! fatal one as stranded dead-worker drops — in simulated time,
//! reproducibly, when the caller drains every shard. A quiesce drains
//! every queue and holds every handler lock until its closure returns,
//! so migration and patch receipts read the same under every
//! placement.
//!
//! ## The steering table and its ownership
//!
//! All steering — software dispatch here, hardware-modelled RSS in the
//! NIC, the sim's demux — goes through one
//! [`BucketMap`]: 256 hash buckets,
//! each assigned to a shard. **The pipeline owns the authoritative
//! copy**; NICs hold mirrors installed by
//! [`ShardedPipeline::install_bucket_map`] inside the same quiesce
//! epoch, so no packet can observe the dispatch table and the NIC
//! table disagreeing.
//!
//! ## One control path
//!
//! The reflective inspect → decide → adapt loop over the running
//! dataplane is [`ShardedPipeline::control_turn`]: it gathers the load
//! meters into one [`Evidence`], lets a [`RebalanceController`] (the
//! staged [`DecisionCore`] under its `weighted`, `hysteresis` or `ewma`
//! preset, judging one [`RebalancePolicy`] — formulas in
//! [`rebalance`]) decide, and
//! installs, retires or decays. Only the caller varies:
//! [`ControlLoop::spawn`] ticks it from a supervised thread, the
//! simulator from simulated time, a test by hand — each with the same
//! controller object, which a description's `control` section
//! compiles to.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netkit_kernel::nic::Nic;
use netkit_kernel::shard::{ShardHandler, ShardJob, ShardSpec, SubmitRejection, WorkerPool};
use netkit_packet::batch::{BatchPool, PacketBatch};
use netkit_packet::sketch::{FlowSketch, HeavyHitter, SketchConfig, SpaceSaving};
use netkit_packet::steer::{BucketLoad, BucketMap};
use opencom::capsule::Capsule;
use opencom::error::Result;
use opencom::ident::{ComponentId, TaskId};
use opencom::meta::resources::{classes, ResourceManager};
use parking_lot::{Mutex, RwLock};

use crate::api::{IPacketPush, IWindow, PushError, IWINDOW};

pub mod control;
pub mod decision;
pub mod rebalance;

pub use control::{ControlDecision, ControlLoop, ControlStats, RebalanceController};
pub use decision::{core_by_name, DecisionCore, Evidence, PRESETS};
pub use rebalance::{MigrationReport, RebalancePlan, RebalancePolicy};

/// A swappable shard entry point: workers re-read it each batch, so a
/// quiesce closure can retarget a shard's ingress (e.g. after replacing
/// the head element) with [`ShardedPipeline::set_entry`].
type SharedEntry = Arc<RwLock<Arc<dyn IPacketPush>>>;

/// Packet capacity the pipeline's pooled batch containers are pre-sized
/// for: one 32-packet rx burst, the burst every hot loop in the tree
/// uses. A container that meets a larger burst grows once and keeps
/// that capacity; every container pre-sized larger than the burst is
/// resident slack.
const DISPATCH_BATCH_CAPACITY: usize = 32;

/// One shard's replica of the element graph, as produced by the factory
/// passed to [`ShardedPipeline::build`]. The capsule *is* the replica:
/// what attaches to the rolled-up resources task
/// ([`ShardedPipeline::sync_replicas`]) and whose windows a control
/// turn closes are read from its meta-models, not listed beside it.
pub struct ShardGraph {
    /// The capsule hosting this replica (kept alive by the pipeline).
    pub capsule: Arc<Capsule>,
    /// The replica's ingress push interface.
    pub entry: Arc<dyn IPacketPush>,
    /// Optional hook run on the worker after each batch — the place to
    /// drain pull-side stages (schedulers, shapers) into their sinks so
    /// the shard really runs to completion.
    pub drain: Option<Box<dyn FnMut() + Send>>,
}

impl ShardGraph {
    /// A replica with no drain hook.
    pub fn new(capsule: Arc<Capsule>, entry: Arc<dyn IPacketPush>) -> Self {
        Self {
            capsule,
            entry,
            drain: None,
        }
    }

    /// Sets the per-batch drain hook (builder-style).
    pub fn with_drain(mut self, drain: Box<dyn FnMut() + Send>) -> Self {
        self.drain = Some(drain);
        self
    }
}

impl fmt::Debug for ShardGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ShardGraph({})", self.capsule.name())
    }
}

/// Why a dropped packet was dropped — the cause tag every loss
/// accounting site in the pipeline files its drops under. See
/// [`DropStats`] for the public roll-up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DropCause {
    /// Bounced off a full ring on a non-blocking publish.
    RingFull,
    /// Publish refused (or work stranded) because the target shard's
    /// worker died.
    DeadWorker,
    /// Rate-limited by the inline heavy-hitter guard
    /// ([`crate::flow::Guard`] — verdict [`PushError::RateLimited`]).
    Guard,
    /// Dropped by graph policy (queue tail drop, TTL, no route, …) —
    /// any element verdict that is not the guard's.
    Graph,
}

/// Per-cause drop accounting — the breakdown of [`PipelineStats`]'s
/// aggregate `dropped` figure. Every packet the pipeline loses is
/// filed under exactly one cause, so [`Self::total`] always equals
/// the `dropped` sum: **zero silent loss** is an checkable invariant,
/// not an aspiration (the chaos soak asserts it after every fault
/// storm).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DropStats {
    /// Bounced off a full ring on a non-blocking publish (the
    /// migration re-steer path; blocking dispatch never tail-drops).
    pub ring_full: u64,
    /// Lost to a dead shard: failed publishes to a shard whose
    /// replica panicked, plus the stranded queue items drained
    /// (counted, recycled, never leaked) when the shard respawned.
    pub dead_worker: u64,
    /// Always 0: nothing writes it, since recovery respawns a dead
    /// shard in place and re-steers no frame. Kept only because the
    /// ledger's `drop_resteer` row reads it; ROADMAP A7b deletes both.
    pub resteer_shed: u64,
    /// Rate-limited inline by the heavy-hitter guard.
    pub guard: u64,
    /// Dropped by ordinary graph policy (queue tail drop, TTL expiry,
    /// no route, veto, …).
    pub graph: u64,
}

impl DropStats {
    /// Sum over all causes — by construction identical to the
    /// aggregate [`PipelineStats::dropped`] figure.
    pub fn total(&self) -> u64 {
        self.ring_full + self.dead_worker + self.guard + self.graph
    }
}

/// What one [`ShardedPipeline::health_turn`] did — the control loop's
/// record of a completed crash recovery.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultRecovery {
    /// Shards respawned in place, in shard order.
    pub respawned: Vec<usize>,
    /// Packets drained off dead shards' queues during the respawns
    /// (filed under the dead-worker drop cause — counted, recycled,
    /// never leaked).
    pub stranded: u64,
}

#[derive(Debug, Default)]
struct ShardCounters {
    batches: AtomicU64,
    packets: AtomicU64,
    accepted: AtomicU64,
    dropped: AtomicU64,
    /// Packets already rolled up into the resources task.
    reported: AtomicU64,
    drop_ring_full: AtomicU64,
    drop_dead_worker: AtomicU64,
    drop_guard: AtomicU64,
    drop_graph: AtomicU64,
}

impl ShardCounters {
    /// Files `n` drops under `cause`, keeping the aggregate `dropped`
    /// meter the exact sum of the cause meters.
    fn drop_cause(&self, cause: DropCause, n: u64) {
        if n == 0 {
            return;
        }
        self.dropped.fetch_add(n, Ordering::Relaxed);
        let cell = match cause {
            DropCause::RingFull => &self.drop_ring_full,
            DropCause::DeadWorker => &self.drop_dead_worker,
            DropCause::Guard => &self.drop_guard,
            DropCause::Graph => &self.drop_graph,
        };
        cell.fetch_add(n, Ordering::Relaxed);
    }

    fn drop_stats(&self) -> DropStats {
        DropStats {
            ring_full: self.drop_ring_full.load(Ordering::Relaxed),
            dead_worker: self.drop_dead_worker.load(Ordering::Relaxed),
            guard: self.drop_guard.load(Ordering::Relaxed),
            graph: self.drop_graph.load(Ordering::Relaxed),
            ..DropStats::default()
        }
    }
}

/// Aggregate dataplane counters — the single-logical-component view
/// over all shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Batches run to completion.
    pub batches: u64,
    /// Packets pushed through the replicas.
    pub packets: u64,
    /// Packets whose verdict was `Ok` (forwarded/accepted).
    pub accepted: u64,
    /// Packets whose verdict was an error (dropped).
    pub dropped: u64,
}

/// One shard's load meters (see [`ShardedPipeline::shard_loads`]):
/// cumulative work done plus instantaneous and high-water ring
/// pressure. `ring_high_water` near the ring capacity while sibling
/// shards idle is the signature of RSS skew the rebalancer corrects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// Shard index.
    pub shard: usize,
    /// Packets run to completion on this shard.
    pub packets: u64,
    /// Batches run to completion on this shard.
    pub batches: u64,
    /// Batches currently waiting on (or executing from) the ring.
    pub in_flight: usize,
    /// High-water mark of `in_flight` in the current observation
    /// window (reset when a rebalance is applied).
    pub ring_high_water: usize,
}

/// N per-worker replicas of an element graph behind one dispatch entry,
/// one stats surface, and one resources task. See the module docs.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use netkit_kernel::shard::ShardSpec;
/// use netkit_packet::batch::PacketBatch;
/// use netkit_packet::packet::PacketBuilder;
/// use netkit_router::api::register_packet_interfaces;
/// use netkit_router::elements::{Counter, Discard};
/// use netkit_router::shard::{ShardGraph, ShardedPipeline};
/// use opencom::capsule::Capsule;
/// use opencom::meta::resources::ResourceManager;
/// use opencom::runtime::Runtime;
///
/// let rm = Arc::new(ResourceManager::new());
/// let pipe = ShardedPipeline::build("doc-pipe", ShardSpec::new(2), Arc::clone(&rm), |_shard| {
///     let rt = Runtime::new();
///     register_packet_interfaces(&rt);
///     let capsule = Capsule::new("shard", &rt);
///     let counter = Counter::new();
///     let sink = Discard::new();
///     let cid = capsule.adopt(counter.clone())?;
///     let sid = capsule.adopt(sink)?;
///     capsule.bind_simple(cid, "out", sid, netkit_router::api::IPACKET_PUSH)?;
///     Ok(ShardGraph::new(Arc::clone(&capsule), counter))
/// })?;
///
/// let batch: PacketBatch = (0..64u16)
///     .map(|i| PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1000 + i, 80).build())
///     .collect();
/// pipe.dispatch(batch);
/// pipe.flush();
/// assert_eq!(pipe.stats().packets, 64);
/// // Reflection sees ONE task with the rolled-up usage.
/// assert_eq!(rm.task_info(pipe.task())?.usage["packets"], 64);
/// pipe.shutdown();
/// # Ok::<(), opencom::error::Error>(())
/// ```
pub struct ShardedPipeline {
    pool: WorkerPool<ShardJob>,
    /// Batch-container freelist for the steering fast path: NIC rx
    /// batches and the workers' shard-range gather containers lease
    /// here and return on drop at the end of each worker's
    /// run-to-completion pass (shared split parents recycle here too
    /// when their last range drops).
    batch_pool: BatchPool,
    /// The authoritative bucket → shard table. Readers
    /// ([`Self::dispatch`], [`Self::pump_nic`], [`Self::submit`]) hold
    /// the read lock across their ring hand-off; a migration holds the
    /// write lock across its whole quiesce, which is what serialises
    /// steering against table swaps (see [`rebalance`]).
    steering: RwLock<Arc<BucketMap>>,
    /// Per-bucket packet meters, fed on the worker side (one relaxed
    /// increment per packet), drained per rebalance window.
    bucket_load: Arc<BucketLoad>,
    /// Per-shard flow sketches (count-min + Space-Saving top-k), fed
    /// on the worker side in **bytes** per flow hash. Where
    /// `bucket_load` counts packets, these meter byte mass — the
    /// evidence that catches elephants hiding under uniform packet
    /// counts. One sketch per shard: each worker writes its own,
    /// [`Self::heavy_hitters`] merges on the control plane.
    sketches: Vec<Arc<FlowSketch>>,
    /// Migration epochs applied via [`Self::install_bucket_map`].
    migrations: AtomicU64,
    entries: Vec<SharedEntry>,
    /// Per-shard capsules, behind locks so [`Self::respawn_shard`] can
    /// swap in a fresh replica (safe: the shard's worker is dead while
    /// the swap happens, so nothing races the read side).
    capsules: Vec<RwLock<Arc<Capsule>>>,
    /// The replica factory, retained so [`Self::respawn_shard`] can
    /// rebuild a crashed shard's graph: a hand-written one repeats its
    /// recipe, a description's builds what is described by then.
    factory: Mutex<Box<dyn FnMut(usize) -> Result<ShardGraph> + Send>>,
    counters: Arc<Vec<ShardCounters>>,
    rm: Arc<ResourceManager>,
    task: TaskId,
    spec: ShardSpec,
}

/// One fresh, empty flow sketch per shard of `spec` — what
/// [`ShardedPipeline::build_with_sketches`] expects when the caller has
/// no sketches of its own to share.
pub fn fresh_sketches(spec: ShardSpec) -> Vec<Arc<FlowSketch>> {
    (0..spec.workers.max(1))
        .map(|_| Arc::new(FlowSketch::new(SketchConfig::default())))
        .collect()
}

impl ShardedPipeline {
    /// Builds `spec.workers` replicas via `factory(shard)` (called in
    /// shard order), registers the pipeline as one task named `name` in
    /// `rm`, and starts the worker pool with fresh per-shard sketches.
    /// A factory that wants its shard's sketch (to hand to a
    /// [`Guard`](crate::flow::Guard)) uses [`Self::build_with_sketches`].
    ///
    /// # Errors
    ///
    /// Propagates factory failures and a duplicate task `name`.
    pub fn build<F>(
        name: &str,
        spec: ShardSpec,
        rm: Arc<ResourceManager>,
        factory: F,
    ) -> Result<Self>
    where
        F: FnMut(usize) -> Result<ShardGraph> + Send + 'static,
    {
        Self::build_with_sketches(name, spec, rm, fresh_sketches(spec), factory)
    }

    /// The constructor every build goes through: builds `spec.workers`
    /// replicas via `factory(shard)` (called in shard order), registers
    /// the pipeline as one task named `name` in `rm`, and starts the
    /// worker pool over them, placed as `spec` says.
    ///
    /// The caller supplies the per-shard flow sketches, so it can clone
    /// each shard's `Arc` into the factory's
    /// [`Guard`](crate::flow::Guard) before passing the originals in:
    /// the guard then reads exactly the sketch the shard's handler
    /// meters into, which is the guard's "estimates already include the
    /// current batch" contract (the handler records before the graph
    /// runs). A respawned replica is handed the same sketch again.
    ///
    /// # Errors
    ///
    /// Propagates factory failures and a duplicate task `name`.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one sketch per shard is supplied.
    pub fn build_with_sketches<F>(
        name: &str,
        spec: ShardSpec,
        rm: Arc<ResourceManager>,
        sketches: Vec<Arc<FlowSketch>>,
        mut factory: F,
    ) -> Result<Self>
    where
        F: FnMut(usize) -> Result<ShardGraph> + Send + 'static,
    {
        // 0 ≡ 1 shard here as in the pool, the split and the NIC.
        let spec = ShardSpec {
            workers: spec.workers.max(1),
            ..spec
        };
        assert_eq!(
            sketches.len(),
            spec.workers,
            "{} sketches supplied for {} shards",
            sketches.len(),
            spec.workers
        );
        let task = rm.create_task(name)?;
        let mut entries: Vec<SharedEntry> = Vec::with_capacity(spec.workers);
        let mut capsules = Vec::with_capacity(spec.workers);
        let mut drains = Vec::with_capacity(spec.workers);
        for shard in 0..spec.workers {
            let graph = factory(shard)?;
            entries.push(Arc::new(RwLock::new(graph.entry)));
            capsules.push(RwLock::new(graph.capsule));
            drains.push(graph.drain);
        }
        let counters: Arc<Vec<ShardCounters>> = Arc::new(
            (0..spec.workers)
                .map(|_| ShardCounters::default())
                .collect(),
        );
        let bucket_load = Arc::new(BucketLoad::new());
        // Built before the executor starts: each handler clones a
        // handle so it can gather shared shard ranges into pooled
        // containers. With drainer threads, the shard queues hold a
        // round of parents and gathers at once (the pool
        // keeps as many as the busiest moment held, so a round of
        // dispatches stops allocating once it has met its peak). With
        // every shard on the caller, as the simulator drives it, a node
        // flushes after each dispatch, so one parent and one gather
        // exist at a time: nothing is provisioned up front and a
        // container grows to the batches it meets (a thousand-node
        // simulated city must not pay for ring depth, or burst sizes,
        // it does not have).
        let batch_pool = if spec.caller_shards >= spec.workers {
            BatchPool::new(0, 0)
        } else {
            BatchPool::new(DISPATCH_BATCH_CAPACITY, spec.workers.saturating_mul(4))
        };
        let pool = WorkerPool::start(spec, |shard| {
            Self::make_handler(
                shard,
                Arc::clone(&entries[shard]),
                Arc::clone(&counters),
                batch_pool.clone(),
                // A single-worker pipeline never rebalances (there is
                // nowhere to move a bucket), so only a sharded one
                // meters bucket load. The flow sketch is fed at every
                // shard count: the shard's guards read it.
                (spec.workers > 1).then(|| Arc::clone(&bucket_load)),
                Arc::clone(&sketches[shard]),
                drains[shard].take(),
            )
        });
        let pipe = Self {
            pool,
            batch_pool,
            steering: RwLock::new(Arc::new(BucketMap::identity(spec.workers))),
            bucket_load,
            sketches,
            migrations: AtomicU64::new(0),
            entries,
            capsules,
            factory: Mutex::new(Box::new(factory)),
            counters,
            rm,
            task,
            spec,
        };
        pipe.sync_replicas()?;
        Ok(pipe)
    }

    /// Makes the rolled-up task's attach list read what the replicas'
    /// capsules hold *now*. A build and a respawn end with it; whoever
    /// changes a replica's component set under the pipeline (the
    /// description applier, after an add, a remove or a hot swap) calls
    /// it when done.
    ///
    /// # Errors
    ///
    /// Fails only once the task has been released.
    pub fn sync_replicas(&self) -> Result<()> {
        let held: Vec<ComponentId> = self
            .capsules
            .iter()
            .flat_map(|capsule| capsule.read().arch().component_ids())
            .collect();
        for gone in self.rm.task_info(self.task)?.attached {
            if !held.contains(&gone) {
                self.rm.detach(self.task, gone)?;
            }
        }
        for id in held {
            self.rm.attach(self.task, id)?;
        }
        Ok(())
    }

    /// Builds one shard's run-to-completion handler — the closure a
    /// drainer runs per queued job. Shared between [`Self::build`]
    /// (pool start) and [`Self::respawn_shard`] (crash recovery), so a
    /// respawned shard runs *exactly* the same loop as an original
    /// one: gather, meter, push, cause-tagged accounting, drain.
    fn make_handler(
        shard: usize,
        entry: SharedEntry,
        counters: Arc<Vec<ShardCounters>>,
        gather_pool: BatchPool,
        bucket_load: Option<Arc<BucketLoad>>,
        sketch: Arc<FlowSketch>,
        mut drain: Option<Box<dyn FnMut() + Send>>,
    ) -> ShardHandler<ShardJob> {
        Box::new(move |job: ShardJob| {
            let batch = match job {
                // Pre-steered owned batch: runs as-is.
                ShardJob::Batch(batch) => batch,
                // Shared-range dispatch: gather this shard's slice
                // of the split parent into a pooled container. The
                // move happens *here*, when the shard runs — on its
                // drainer thread, or for shard 0 inside the driver's
                // flush, in parallel with the drainers — the dispatch
                // itself only wrote one descriptor per shard. When
                // the last sibling range is consumed the parent
                // container recycles.
                ShardJob::Range(range) => {
                    let mut out = gather_pool.take();
                    range.take_into(&mut out);
                    out
                }
            };
            let n = batch.len() as u64;
            // Meter per-bucket load on the worker (packets are
            // rss-stamped by the split / NIC by now, so this is a
            // modulo + relaxed increment each), keeping the
            // dispatch thread lean.
            if let Some(meter) = &bucket_load {
                meter.record_batch(&batch);
            }
            // The byte sketch, at every shard count: per-flow byte
            // mass keyed by the steering hash, read by the shard's
            // guards and, when sharded, by the control plane as
            // heavy-hitter evidence.
            sketch.record_batch(&batch);
            // Snapshot the entry once per batch: cheap, and the
            // quiesce closure can retarget it between batches.
            let target = Arc::clone(&entry.read());
            let result = target.push_batch(batch);
            let c = &counters[shard];
            c.batches.fetch_add(1, Ordering::Relaxed);
            c.packets.fetch_add(n, Ordering::Relaxed);
            c.accepted
                .fetch_add(result.accepted() as u64, Ordering::Relaxed);
            if result.dropped() > 0 {
                // Split graph verdicts by cause: the guard's
                // rate-limit verdict gets its own meter; everything
                // else is ordinary graph policy.
                let guard = result
                    .verdicts
                    .iter()
                    .filter(|v| matches!(v, Err(PushError::RateLimited)))
                    .count() as u64;
                let graph = result.dropped() as u64 - guard;
                c.drop_cause(DropCause::Guard, guard);
                c.drop_cause(DropCause::Graph, graph);
            }
            if let Some(drain) = drain.as_mut() {
                drain();
            }
        })
    }

    /// Number of shards (replicas), whether or not each has a drainer
    /// thread.
    pub fn workers(&self) -> usize {
        self.spec.workers
    }

    /// The configuring spec.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The pipeline's task in the resources meta-model — the single
    /// logical handle reflection sees for all replicas.
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// RSS-dispatches a batch, move-free: steers it by flow affinity
    /// through the installed bucket table with the index-based split
    /// ([`PacketBatch::shard_split_with`] — one counting-sort pass,
    /// RSS stamps reused or written once, no label re-interning), then
    /// shares the split parent ([`ShardSplit::into_shared`]) and
    /// publishes one [`ShardJob::Range`] descriptor per non-empty
    /// shard in a single batched fan-out
    /// ([`WorkerPool::submit_fanout`]: one queue push per shard,
    /// blocking on backpressure). No packet moves and no
    /// container leases in the dispatch — each shard gathers its slice
    /// into a pooled container when it runs (a shard with no drainer
    /// thread's when the pipeline is next flushed), and the parent
    /// batch recycles to the
    /// [`BatchPool`] when the last shard's range is consumed. A
    /// single-worker pipeline skips the split (0 ≡ 1 shard): the batch
    /// goes to shard 0 whole, RSS-stamped as the split would have
    /// stamped it, so the shard's sketch and flow elements read each
    /// frame's record instead of parsing it again. Returns the number
    /// of shard ranges enqueued.
    ///
    /// Packets whose publish fails (the shard died) are
    /// counted into that shard's `dropped` statistic and released with
    /// the parent — nothing leaks and the loss is visible.
    ///
    /// The steering-table read lock is held across the hand-off,
    /// so a dispatch never interleaves with a table migration — the
    /// serialisation per-flow ordering across a rebalance relies on
    /// (see [`rebalance`]).
    ///
    /// [`ShardSplit::into_shared`]: netkit_packet::batch::ShardSplit::into_shared
    pub fn dispatch(&self, mut batch: PacketBatch) -> usize {
        let map = self.steering.read();
        if self.spec.workers <= 1 {
            batch.stamp_rss();
            return self.submit_counting_drops(0, batch);
        }
        let shared = batch.shard_split_with(&map).into_shared();
        self.pool.submit_fanout(
            (0..self.spec.workers).filter(|&s| shared.shard_len(s) > 0),
            |shard| ShardJob::Range(shared.range(shard)),
            |shard, job| {
                if let Some(c) = self.counters.get(shard) {
                    // Fanout only skips a shard whose worker died —
                    // blocking publishes never tail-drop on pressure.
                    c.drop_cause(DropCause::DeadWorker, job.len() as u64);
                }
                // The rejected range drops here; its packets release
                // with the shared parent, whose pooled container (if
                // leased) recycles on the last sibling's drop.
            },
        )
    }

    /// Single-shard hand-off with loss accounting: empty batches are
    /// not published, and a failed publish (dead worker) lands in the
    /// shard's `dropped` stat instead of vanishing silently.
    fn submit_counting_drops(&self, shard: usize, batch: PacketBatch) -> usize {
        if batch.is_empty() {
            return 0;
        }
        let n = batch.len() as u64;
        match self.pool.submit(shard, ShardJob::Batch(batch)) {
            Ok(()) => 1,
            Err(_) => {
                if let Some(c) = self.counters.get(shard) {
                    c.drop_cause(DropCause::DeadWorker, n);
                }
                0
            }
        }
    }

    /// The pipeline's batch-container freelist. NIC pump loops should
    /// build their rx batches from it (as [`Self::pump_nic`] does) so
    /// the containers recycle instead of churning the allocator.
    pub fn batch_pool(&self) -> &BatchPool {
        &self.batch_pool
    }

    /// One iteration of a shard's zero-copy NIC rx loop: drains up to
    /// `max` frames from `nic`'s rx queue `shard` into a pooled batch
    /// ([`Nic::rx_burst_batch`] — pooled frame buffers move in without
    /// copying, rss pre-stamped) and runs it on that shard. With the
    /// NIC's RSS already steering at injection, there is no software
    /// partition here at all; together with [`Nic::with_buffer_pool`]
    /// and the batch freelist, steady-state forwarding allocates
    /// nothing per batch.
    ///
    /// Returns the number of packets handed to the shard (0 when the
    /// queue was empty, the shard is unknown, or its worker died).
    /// Frames already drained off the NIC when the hand-off fails (the
    /// worker died mid-pump) cannot be re-queued; they are counted into
    /// the shard's `dropped` statistic so the stack's zero-loss
    /// accounting stays truthful.
    pub fn pump_nic(&self, nic: &Nic, shard: usize, max: usize) -> usize {
        // Hold the steering read lock so a pump never interleaves with
        // a table migration (the migration itself drains these queues).
        let _map = self.steering.read();
        let mut batch = self.batch_pool.take();
        let taken = nic.rx_burst_batch(shard, max, &mut batch);
        if taken == 0 {
            return 0; // empty container recycles on drop
        }
        match self.pool.submit(shard, ShardJob::Batch(batch)) {
            Ok(()) => taken,
            Err(_) => {
                // The bounced batch drops here: frames counted lost,
                // pooled container recycles on drop.
                if let Some(c) = self.counters.get(shard) {
                    c.drop_cause(DropCause::DeadWorker, taken as u64);
                }
                0
            }
        }
    }

    /// Enqueues a pre-steered batch directly on `shard` (the multi-queue
    /// NIC path, where hardware already partitioned by RSS hash). The
    /// caller's steering decision must come from the same bucket table
    /// the pipeline holds ([`Self::bucket_map`]); the read lock held
    /// here keeps the hand-off from interleaving with a migration.
    ///
    /// # Errors
    ///
    /// Returns the batch if `shard` is out of range or its worker died.
    pub fn submit(&self, shard: usize, batch: PacketBatch) -> std::result::Result<(), PacketBatch> {
        let _map = self.steering.read();
        match self.pool.submit(shard, ShardJob::Batch(batch)) {
            Ok(()) => Ok(()),
            Err(ShardJob::Batch(batch)) => Err(batch),
            Err(ShardJob::Range(_)) => unreachable!("submitted a Batch"),
        }
    }

    /// Blocks until every dispatched batch has run to completion, then
    /// rolls per-shard counters up into the resources task.
    pub fn flush(&self) {
        self.pool.flush();
        self.sync_resources();
    }

    /// Runs `f` holding every shard's handler lock, each shard between
    /// two batches (the quiesce — see the module docs). Reconfigure the replicas
    /// inside `f` via [`Self::capsule`] / [`Self::set_entry`]; the
    /// change is atomic across all shards and drops no traffic.
    pub fn quiesce<R>(&self, f: impl FnOnce() -> R) -> R {
        self.pool.quiesce(f)
    }

    /// Completed quiesce epochs.
    pub fn epoch(&self) -> u64 {
        self.pool.epoch()
    }

    /// Snapshot of the authoritative bucket → shard steering table.
    pub fn bucket_map(&self) -> BucketMap {
        BucketMap::clone(&self.steering.read())
    }

    /// Migration epochs applied via [`Self::install_bucket_map`].
    pub fn migrations(&self) -> u64 {
        self.migrations.load(Ordering::Relaxed)
    }

    /// Snapshot (peek, non-destructive) of the per-bucket packet
    /// meters — what has accumulated since [`Self::control_turn`] last
    /// consumed the evidence (retired it on a migration, decayed it on
    /// a hold).
    pub fn bucket_loads(&self) -> Vec<u64> {
        self.bucket_load.snapshot()
    }

    /// Per-shard load meters: work done plus ring pressure — the
    /// evidence a [`RebalancePolicy`] (or a human at the reflective
    /// console) reads to spot a hot shard.
    pub fn shard_loads(&self) -> Vec<ShardLoad> {
        (0..self.spec.workers)
            .map(|shard| ShardLoad {
                shard,
                packets: self.counters[shard].packets.load(Ordering::Relaxed),
                batches: self.counters[shard].batches.load(Ordering::Relaxed),
                in_flight: self.pool.in_flight_on(shard).unwrap_or(0),
                ring_high_water: self.pool.ring_high_water(shard).unwrap_or(0),
            })
            .collect()
    }

    /// Installs a new bucket → shard table atomically — the adapt arm
    /// of the reflective rebalancing loop.
    ///
    /// Under the write half of the steering lock (so no `dispatch` /
    /// `submit` / `pump_nic` overlaps) and inside one epoch quiesce
    /// (so every previously enqueued batch has run to completion and
    /// every handler lock is held), this:
    ///
    /// 1. installs `map` as each `nic`'s RSS indirection table, then
    /// 2. drains every frame still waiting in the NICs' rx queues and
    ///    re-steers it by the new table onto its shard's queue (FIFO
    ///    per queue, so per-flow order survives — a flow sat in exactly
    ///    one old queue and lands on exactly one new shard), then
    /// 3. swaps the pipeline's own table.
    ///
    /// Traffic dispatched after this returns steers by the new table
    /// and lands *behind* the re-steered frames; nothing is lost,
    /// duplicated, or reordered within any flow. Wire-side injection
    /// must be quiescent across the call (see the NIC module docs —
    /// simulated hardware cannot apply the swap atomically against
    /// racing injectors). Frames that cannot be re-steered because a
    /// ring is full or a worker died are counted as dropped (the same
    /// accounting as [`Self::pump_nic`]).
    ///
    /// # Panics
    ///
    /// Panics if `map` targets a different shard count than the
    /// pipeline runs — a table must never steer to a worker that does
    /// not exist.
    pub fn install_bucket_map(&self, map: BucketMap, nics: &[&Nic]) -> MigrationReport {
        assert_eq!(
            map.shards(),
            self.spec.workers,
            "bucket map targets {} shards, pipeline runs {}",
            map.shards(),
            self.spec.workers
        );
        let mut steering = self.steering.write();
        let moved_buckets = map.moved_buckets(&steering).len();
        let mut report = MigrationReport {
            moved_buckets,
            ..MigrationReport::default()
        };
        self.pool.quiesce(|| {
            for nic in nics {
                nic.set_indirection(map.clone());
                for queue in 0..nic.queues() {
                    loop {
                        let mut batch = self.batch_pool.take();
                        if nic.rx_burst_batch(queue, DISPATCH_BATCH_CAPACITY, &mut batch) == 0 {
                            break; // empty container recycles on drop
                        }
                        let shared = batch.shard_split_with(&map).into_shared();
                        for shard in 0..self.spec.workers {
                            let n = shared.shard_len(shard);
                            if n == 0 {
                                continue;
                            }
                            // Per-range try_submit, NOT submit_fanout: a
                            // blocking publish inside the quiesce would
                            // deadlock against the parked workers if a
                            // ring were full.
                            match self
                                .pool
                                .try_submit_tagged(shard, ShardJob::Range(shared.range(shard)))
                            {
                                Ok(()) => report.resubmitted += n,
                                Err((_, rejection)) => {
                                    // The bounced range's packets free
                                    // with the shared parent, and the
                                    // parent's pooled container recycles
                                    // once the accepted siblings are
                                    // consumed — full-ring loss is
                                    // counted, never leaked.
                                    report.dropped += n;
                                    let cause = match rejection {
                                        SubmitRejection::RingFull => DropCause::RingFull,
                                        SubmitRejection::DeadWorker
                                        | SubmitRejection::OutOfRange => DropCause::DeadWorker,
                                    };
                                    if let Some(c) = self.counters.get(shard) {
                                        c.drop_cause(cause, n as u64);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            *steering = Arc::new(map);
            // The migration epoch is the boundary between ring-pressure
            // observation windows. Reset the high-water marks *inside*
            // the quiesce (workers parked, steering writers excluded),
            // where no enqueue can interleave with the boundary — a
            // reset outside the epoch races concurrent submissions and
            // can erase occupancy evidence that belongs to the new
            // window (see `WorkerPool::take_ring_high_water`).
            self.pool.reset_ring_high_water();
        });
        report.epoch = self.pool.epoch();
        self.migrations.fetch_add(1, Ordering::Relaxed);
        let _ = self.rm.consume(self.task, classes::REBALANCES, 1);
        report
    }

    /// `shard`'s flow sketch: per-flow **byte** meters (count-min +
    /// Space-Saving top-k) fed on the worker side alongside
    /// [`Self::bucket_loads`]'s packet counts, at every shard count: a
    /// [`crate::flow::Guard`] built on it reads its estimates, one
    /// shard or many. The worker records each batch before its graph
    /// runs with [`FlowSketch::record_batch`] — one top-k lock per batch
    /// and a scan of a 32-slot array per packet, where a hash-map probe
    /// and lock per packet used to be — and that cost sits outside every
    /// per-element ledger lane: it shows
    /// only in the round's `router.shard.wait_ns` (`crates/bench/NOTES.md`,
    /// "Metering at array cost").
    pub fn flow_sketch(&self, shard: usize) -> &Arc<FlowSketch> {
        &self.sketches[shard]
    }

    /// The merged heavy-hitter evidence across all shards: each
    /// shard's Space-Saving top-k, summed per flow hash and re-ranked
    /// (see [`SpaceSaving::merge`]). This is the byte-side
    /// [`Evidence::heavy`] that [`Self::control_turn`] gathers when the
    /// policy's `heavy_blend` is non-zero.
    pub fn heavy_hitters(&self) -> Vec<HeavyHitter> {
        let tops: Vec<Vec<HeavyHitter>> = self.sketches.iter().map(|s| s.heavy_hitters()).collect();
        SpaceSaving::merge(SketchConfig::default().top_capacity, &tops)
    }

    /// One inspect → decide → adapt turn of the reflective loop — the
    /// only code that consumes the observation windows. The turn *is*
    /// the window boundary: first every [`IWindow`] a replica's capsule
    /// holds (so added, swapped and respawned ones too) is closed,
    /// wherever the shards run. Then **peek** at
    /// the per-bucket packet window, the shard pressure meters and
    /// (when the policy blends them) the flow sketches, let `ctl`
    /// decide over that one [`Evidence`], and apply the outcome:
    ///
    /// * `Gathering` — nothing is touched, so a low-rate but
    ///   persistently skewed workload gathers evidence across turns;
    /// * `Hold` — the windows are **retained, not discarded**, aged by
    ///   the policy's `decay` (the same packet evidence can tip a
    ///   later turn once queueing pressure shifts);
    /// * `Migrate` — [`Self::install_bucket_map`], **then** retire
    ///   exactly the judged snapshots: gate, plan and retire read one
    ///   snapshot, and samples recorded mid-turn stay for the next.
    ///
    /// Returns the plan and migration report of an applied migration.
    /// Call it from the control plane, never from a worker (it
    /// quiesces the pipeline), and from one caller per pipeline: the
    /// [`ControlLoop`], the simulator's `PipelineNode`, or a test.
    pub fn control_turn(
        &self,
        ctl: &mut RebalanceController,
        nics: &[&Nic],
    ) -> Option<(RebalancePlan, MigrationReport)> {
        for capsule in &self.capsules {
            let capsule = Arc::clone(&capsule.read());
            for id in capsule.arch().component_ids() {
                let windowed = capsule.query_interface(id, IWINDOW).ok();
                if let Some(w) = windowed.and_then(|r| r.downcast::<dyn IWindow>()) {
                    w.close_window();
                }
            }
        }
        let window = self.bucket_load.snapshot();
        let loads = self.shard_loads();
        let current = self.bucket_map();
        // Sketch snapshots are only taken when the evidence can matter
        // (non-zero blend), keeping the zero-blend turn as cheap as it
        // is without sketches.
        let sketch_windows: Vec<_> = if ctl.policy().heavy_blend > 0.0 {
            self.sketches.iter().map(|s| s.snapshot()).collect()
        } else {
            Vec::new()
        };
        let tops: Vec<_> = sketch_windows.iter().map(|w| w.top.clone()).collect();
        let heavy = SpaceSaving::merge(SketchConfig::default().top_capacity, &tops);
        let decision = ctl.decide(&Evidence {
            window: &window,
            loads: &loads,
            heavy: &heavy,
            ring_capacity: self.spec.ring_capacity,
            current: &current,
        });
        match decision {
            ControlDecision::Gathering => None,
            ControlDecision::Hold => {
                let decay = ctl.policy().decay;
                self.bucket_load.decay(decay);
                for sketch in &self.sketches {
                    sketch.decay(decay);
                }
                None
            }
            ControlDecision::Migrate(plan) => {
                let report = self.install_bucket_map(plan.map.clone(), nics);
                self.bucket_load.retire(&window);
                for (sketch, w) in self.sketches.iter().zip(&sketch_windows) {
                    sketch.retire(w);
                }
                Some((plan, report))
            }
        }
    }

    /// Whether `shard` can still accept work (`Some(false)` once its
    /// replica panicked — the health signal
    /// [`Self::health_turn`] acts on). `None` for an out-of-range
    /// shard.
    pub fn worker_alive(&self, shard: usize) -> Option<bool> {
        self.pool.worker_alive(shard)
    }

    /// Fault recoveries applied: shards [`Self::health_turn`] has
    /// respawned over the pipeline's lifetime.
    pub fn recoveries(&self) -> u64 {
        self.pool.respawned()
    }

    /// Per-cause drop accounting aggregated over all shards. The sum
    /// ([`DropStats::total`]) always equals [`PipelineStats::dropped`]
    /// from [`Self::stats`] — every lost packet is filed under exactly
    /// one cause.
    pub fn drop_stats(&self) -> DropStats {
        let mut total = DropStats::default();
        for c in self.counters.iter() {
            let s = c.drop_stats();
            total.ring_full += s.ring_full;
            total.dead_worker += s.dead_worker;
            total.guard += s.guard;
            total.graph += s.graph;
        }
        total
    }

    /// Replaces `shard`'s dead replica with a fresh one, in place —
    /// [`Self::health_turn`]'s step per dead shard. No thread starts
    /// or stops, and no bucket moves.
    ///
    /// In order:
    ///
    /// 1. bails with `Ok(None)` unless the shard is actually dead
    ///    (only a dead shard's handler can be replaced);
    /// 2. rebuilds the shard's element graph with the **same factory**
    ///    that built it at [`Self::build`] time — a description's
    ///    materialises the description *in force*, patches included;
    /// 3. swaps the shard's entry and capsule — safe outside a quiesce
    ///    *only because the shard is dead*: nothing reads them, and
    ///    dispatchers merely clone the `Arc` behind the entry lock —
    ///    and re-reads the attach list ([`Self::sync_replicas`]);
    /// 4. respawns the kernel shard ([`WorkerPool::respawn`]): the
    ///    fresh handler goes back behind the shard's lock, the
    ///    descriptors still queued are handed over and their packets
    ///    filed under the dead-worker drop cause (counted, recycled,
    ///    never leaked), and the shard accepts traffic again; its
    ///    drainer thread, parked since the death, runs it as before.
    ///
    /// Returns `Ok(Some(stranded_packets))` on success. Bills one
    /// `FAULTS` unit on the resources task, so recovery work is
    /// visible to the same reflective accounting as everything else.
    /// Concurrent respawns of the same shard are serialised by the
    /// kernel pool, but the entry/capsule swap assumes no other
    /// control-plane writer.
    ///
    /// # Errors
    ///
    /// Propagates factory and resource-attach failures (the worker
    /// stays dead; a later turn can retry).
    fn respawn_shard(&self, shard: usize) -> Result<Option<u64>> {
        if self.pool.worker_alive(shard) != Some(false) {
            return Ok(None);
        }
        let graph = (self.factory.lock())(shard)?;
        *self.entries[shard].write() = graph.entry;
        *self.capsules[shard].write() = graph.capsule;
        self.sync_replicas()?;
        let handler = Self::make_handler(
            shard,
            Arc::clone(&self.entries[shard]),
            Arc::clone(&self.counters),
            self.batch_pool.clone(),
            (self.spec.workers > 1).then(|| Arc::clone(&self.bucket_load)),
            Arc::clone(&self.sketches[shard]),
            graph.drain,
        );
        let mut stranded_packets = 0u64;
        let respawned = self.pool.respawn(shard, handler, |job| {
            let n = job.len() as u64;
            stranded_packets += n;
            self.counters[shard].drop_cause(DropCause::DeadWorker, n);
        });
        if respawned.is_none() {
            // Lost a (theoretical) race with another respawner; the
            // replica swap above is idempotent-safe — the fresh graph
            // simply becomes the shard's current one.
            return Ok(None);
        }
        let _ = self.rm.consume(self.task, classes::FAULTS, 1);
        Ok(Some(stranded_packets))
    }

    /// One health turn of the self-healing loop: respawn every dead
    /// shard in place — the one way a crashed shard recovers. Returns
    /// `Ok(None)` when every shard is alive (the overwhelmingly common
    /// case — one liveness probe per shard and out).
    ///
    /// Each dead shard's graph is rebuilt by the pipeline's factory and
    /// swapped in behind the shard's own lock; whatever was still
    /// queued on it is filed as stranded dead-worker drops. The turn
    /// runs no quiesce and moves no bucket: the steering table and
    /// every NIC's indirection table stay as they are, so a flow stays
    /// on the shard that owns its state. Frames parked in a dead
    /// shard's NIC queue stay there and go to the respawned shard on
    /// the next [`Self::pump_nic`]; traffic dispatched or pumped to it
    /// while it was dead was filed as dead-worker drops.
    ///
    /// Single control-plane caller, like all window/steering
    /// operations — the [`ControlLoop`] runs this before each control
    /// turn when spawned, the simulator's `PipelineNode` on every
    /// control lapse. Each respawn bills one `FAULTS` unit and counts
    /// into [`Self::recoveries`].
    ///
    /// # Errors
    ///
    /// Returns the first rebuild failure after attempting every dead
    /// shard; a shard whose rebuild failed stays dead, and the next
    /// turn retries it.
    pub fn health_turn(&self) -> Result<Option<FaultRecovery>> {
        let dead: Vec<usize> = (0..self.spec.workers)
            .filter(|&s| self.pool.worker_alive(s) == Some(false))
            .collect();
        if dead.is_empty() {
            return Ok(None);
        }
        let mut recovery = FaultRecovery::default();
        let mut first_err = None;
        for shard in dead {
            match self.respawn_shard(shard) {
                Ok(Some(stranded)) => {
                    recovery.stranded += stranded;
                    recovery.respawned.push(shard);
                }
                Ok(None) => {}
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(Some(recovery)),
        }
    }

    /// The capsule hosting `shard`'s replica (the *current* one — a
    /// respawn swaps in a fresh capsule).
    pub fn capsule(&self, shard: usize) -> Arc<Capsule> {
        Arc::clone(&self.capsules[shard].read())
    }

    /// `shard`'s current ingress interface.
    pub fn entry(&self, shard: usize) -> Arc<dyn IPacketPush> {
        Arc::clone(&self.entries[shard].read())
    }

    /// Retargets `shard`'s ingress (call from within a
    /// [`Self::quiesce`] closure after replacing the head element).
    pub fn set_entry(&self, shard: usize, entry: Arc<dyn IPacketPush>) {
        *self.entries[shard].write() = entry;
    }

    /// Aggregate counters over all shards — the one-logical-component
    /// view. Also rolls usage up into the resources task.
    pub fn stats(&self) -> PipelineStats {
        self.sync_resources();
        let mut total = PipelineStats::default();
        for c in self.counters.iter() {
            total.batches += c.batches.load(Ordering::Relaxed);
            total.packets += c.packets.load(Ordering::Relaxed);
            total.accepted += c.accepted.load(Ordering::Relaxed);
            total.dropped += c.dropped.load(Ordering::Relaxed);
        }
        total
    }

    /// One shard's counters.
    pub fn shard_stats(&self, shard: usize) -> PipelineStats {
        let c = &self.counters[shard];
        PipelineStats {
            batches: c.batches.load(Ordering::Relaxed),
            packets: c.packets.load(Ordering::Relaxed),
            accepted: c.accepted.load(Ordering::Relaxed),
            dropped: c.dropped.load(Ordering::Relaxed),
        }
    }

    /// Pushes the per-shard deltas into the resources task. Called from
    /// `flush`/`stats` so the per-batch hot path never takes the
    /// manager's locks. `fetch_max` keeps `reported` monotone, so
    /// concurrent callers that loaded different `packets` snapshots
    /// claim disjoint deltas (the stale one claims zero) and nothing is
    /// ever double-counted.
    fn sync_resources(&self) {
        for c in self.counters.iter() {
            let seen = c.packets.load(Ordering::Relaxed);
            let reported = c.reported.fetch_max(seen, Ordering::Relaxed);
            let delta = seen.saturating_sub(reported);
            if delta > 0 {
                let _ = self.rm.consume(self.task, classes::PACKETS, delta);
            }
        }
    }

    /// Flushes outstanding work, rolls counters up, releases the
    /// resources task, stops the workers, and returns the final
    /// aggregate stats.
    pub fn shutdown(self) -> PipelineStats {
        self.pool.flush();
        let stats = self.stats();
        let _ = self.rm.release_task(self.task);
        self.pool.shutdown();
        stats
    }
}

impl fmt::Debug for ShardedPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ShardedPipeline({} shards, {:?})",
            self.spec.workers, self.pool
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{register_packet_interfaces, IPACKET_PUSH};
    use crate::elements::{Counter, Discard};
    use crate::shard::decision::fixtures::packets_only;
    use netkit_packet::packet::PacketBuilder;
    use opencom::runtime::Runtime;

    struct Rig {
        pipe: ShardedPipeline,
        sinks: Vec<Arc<Discard>>,
        rm: Arc<ResourceManager>,
    }

    fn rig(name: &str, workers: usize) -> Rig {
        rig_with(name, ShardSpec::new(workers))
    }

    fn rig_with(name: &str, spec: ShardSpec) -> Rig {
        let rm = Arc::new(ResourceManager::new());
        let sinks = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sinks2 = Arc::clone(&sinks);
        let pipe = ShardedPipeline::build(name, spec, Arc::clone(&rm), {
            move |_shard| {
                let rt = Runtime::new();
                register_packet_interfaces(&rt);
                let capsule = Capsule::new("shard", &rt);
                let counter = Counter::new();
                let sink = Discard::new();
                let cid = capsule.adopt(counter.clone())?;
                let sid = capsule.adopt(sink.clone())?;
                capsule.bind_simple(cid, "out", sid, IPACKET_PUSH)?;
                sinks2.lock().push(sink);
                Ok(ShardGraph::new(Arc::clone(&capsule), counter))
            }
        })
        .unwrap();
        let sinks = std::mem::take(&mut *sinks.lock());
        Rig { pipe, sinks, rm }
    }

    fn burst(flows: u16, per_flow: u16) -> PacketBatch {
        let mut batch = PacketBatch::new();
        for seq in 0..per_flow {
            for flow in 0..flows {
                batch.push(
                    PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 2000 + flow, 5000 + seq).build(),
                );
            }
        }
        batch
    }

    /// Stamps `n` packets of `payload` bytes onto the given buckets,
    /// round-robin.
    fn stamped_sized(buckets: &[u64], n: usize, payload: usize) -> PacketBatch {
        let mut batch = PacketBatch::new();
        for i in 0..n {
            let mut p = netkit_packet::packet::PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 9, 9)
                .payload_len(payload)
                .build();
            p.meta.rss_hash = Some(buckets[i % buckets.len()]);
            batch.push(p);
        }
        batch
    }

    fn stamped(buckets: &[u64], n: usize) -> PacketBatch {
        stamped_sized(buckets, n, 0)
    }

    /// A zero-cooldown controller that never fades a held window:
    /// `control_turn` with it is one manual peek → plan → install →
    /// retire step.
    fn steady(max_imbalance: f64, min_samples: u64, pressure_weight: f64) -> RebalanceController {
        let policy = RebalancePolicy {
            pressure_weight,
            decay: 1.0,
            ..packets_only(max_imbalance, min_samples)
        };
        RebalanceController::new(policy, 0)
    }

    #[test]
    fn dispatch_spreads_and_loses_nothing() {
        let r = rig("spread", 4);
        r.pipe.dispatch(burst(16, 8));
        r.pipe.flush();
        let stats = r.pipe.stats();
        assert_eq!(stats.packets, 128);
        assert_eq!(stats.accepted, 128);
        assert_eq!(stats.dropped, 0);
        let delivered: u64 = r.sinks.iter().map(|s| s.count()).sum();
        assert_eq!(delivered, 128);
        let busy = r.sinks.iter().filter(|s| s.count() > 0).count();
        assert!(busy > 1, "16 flows must spread over several shards");
        r.pipe.shutdown();
    }

    #[test]
    fn resources_roll_up_into_one_task() {
        let r = rig("rollup", 3);
        r.pipe.dispatch(burst(9, 4));
        r.pipe.flush();
        let info = r.rm.task_info(r.pipe.task()).unwrap();
        assert_eq!(info.usage[classes::PACKETS], 36);
        assert_eq!(info.attached.len(), 6, "all replica components attach");
        // Shutdown releases the logical task.
        let task = r.pipe.task();
        r.pipe.shutdown();
        assert!(r.rm.task_info(task).is_err());

        // The attach list is read from the capsules, so it follows a
        // described pipeline through an add and a remove: a -> b -> sink
        // becomes a -> c -> sink on both shards.
        use crate::desc::{Compiler, PipelineDesc};
        let chain = |mid: &str| {
            PipelineDesc::new("rollup-desc")
                .element("a", "counter")
                .element(mid, "counter")
                .element("sink", "discard")
                .ingress("a")
                .edge("a", mid)
                .edge(mid, "sink")
        };
        let (pipe, mut binding) = Compiler::new()
            .build_sharded(&chain("b"), ShardSpec::new(2), Arc::clone(&r.rm))
            .unwrap();
        let patch = binding.diff_to(&chain("c")).unwrap();
        assert_eq!(binding.apply_sharded(&pipe, &patch).unwrap().epochs, 1);
        let mut live: Vec<ComponentId> = (0..2)
            .flat_map(|shard| pipe.capsule(shard).arch().component_ids())
            .collect();
        live.sort();
        let mut attached = r.rm.task_info(pipe.task()).unwrap().attached;
        attached.sort();
        assert_eq!(attached, live, "exactly the live component set");
        assert_eq!(live.len(), 6);
        pipe.shutdown();
    }

    #[test]
    fn duplicate_pipeline_names_are_rejected() {
        let rm = Arc::new(ResourceManager::new());
        rm.create_task("taken").unwrap();
        let err = ShardedPipeline::build("taken", ShardSpec::single(), rm, |_| {
            unreachable!("factory must not run")
        });
        assert!(err.is_err());
    }

    #[test]
    fn quiesce_swaps_entries_atomically() {
        let r = rig("swap", 2);
        r.pipe.dispatch(burst(8, 2));
        // Retarget every shard's ingress to a fresh counter-sink pair.
        let replacements: Vec<Arc<Counter>> = (0..2).map(|_| Counter::new()).collect();
        r.pipe.quiesce(|| {
            for (shard, c) in replacements.iter().enumerate() {
                r.pipe.set_entry(shard, c.clone());
            }
        });
        assert_eq!(r.pipe.epoch(), 1);
        r.pipe.dispatch(burst(8, 2));
        r.pipe.flush();
        let replaced: u64 = replacements.iter().map(|c| c.count()).sum();
        assert_eq!(replaced, 16, "post-quiesce traffic hits the new graph");
        let original: u64 = r.sinks.iter().map(|s| s.count()).sum();
        assert_eq!(original, 16, "pre-quiesce traffic ran to completion");
        assert_eq!(r.pipe.stats().packets, 32);
        r.pipe.shutdown();
    }

    #[test]
    fn pump_nic_feeds_shards_from_their_queues_without_copying() {
        use netkit_kernel::nic::{Nic, PortId};
        use netkit_packet::flow::FlowKey;
        use netkit_packet::pool::BufferPool;

        let workers = 2usize;
        let r = rig("pump", workers);
        let buffers = BufferPool::new(2048, 0, 64);
        let nic = Nic::with_queues(PortId(0), workers, 64, 64, 1_000_000).with_buffer_pool(buffers);

        let mut expect = vec![0u64; workers];
        for i in 0..32u16 {
            let wire = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 2000 + i, 80).build();
            let shard = FlowKey::from_packet(&wire).unwrap().shard_for(workers);
            expect[shard] += 1;
            assert!(nic.inject_rx_frame(wire.data()));
        }
        let mut pumped = 0;
        for shard in 0..workers {
            pumped += r.pipe.pump_nic(&nic, shard, 64);
        }
        assert_eq!(pumped, 32);
        r.pipe.flush();
        for (shard, &count) in expect.iter().enumerate() {
            assert_eq!(r.pipe.shard_stats(shard).packets, count);
        }
        // Empty queue: nothing submitted, container recycled.
        assert_eq!(r.pipe.pump_nic(&nic, 0, 64), 0);
        assert_eq!(r.pipe.pump_nic(&nic, 99, 64), 0, "unknown queue");
        // Batch containers cycled through the pool, not the allocator.
        let stats = r.pipe.batch_pool().stats();
        assert!(stats.recycled >= workers as u64);
        r.pipe.shutdown();
    }

    #[test]
    fn dispatch_reuses_batch_containers_across_rounds() {
        let r = rig("reuse", 2);
        for _ in 0..4 {
            r.pipe.dispatch(burst(8, 2));
            r.pipe.flush();
        }
        let stats = r.pipe.batch_pool().stats();
        assert!(
            stats.reused > 0,
            "steady-state dispatch must reuse containers: {stats:?}"
        );
        r.pipe.shutdown();
    }

    #[test]
    fn zero_and_one_worker_pipelines_are_equivalent() {
        // ShardSpec::new clamps 0 → 1, and the whole stack (worker
        // pool, dispatch partition, NIC queue map) agrees.
        let r = rig("zero", 0);
        assert_eq!(r.pipe.workers(), 1);
        r.pipe.dispatch(burst(4, 2));
        r.pipe.flush();
        assert_eq!(r.pipe.stats().packets, 8);
        assert_eq!(r.pipe.shard_stats(0).packets, 8);
        r.pipe.shutdown();
    }

    #[test]
    fn dispatch_steers_by_the_installed_table() {
        use netkit_packet::flow::FlowKey;
        let r = rig("table", 4);
        assert!(r.pipe.bucket_map().is_identity());
        // Move every bucket the burst occupies onto shard 2 (each
        // (flow, seq) column of `burst` is a distinct 5-tuple, so
        // sample the same shape the dispatch below will see).
        let mut map = r.pipe.bucket_map();
        for p in burst(8, 4).iter() {
            map.set(FlowKey::from_packet(p).unwrap().bucket(), 2);
        }
        let report = r.pipe.install_bucket_map(map.clone(), &[]);
        assert!(report.moved_buckets > 0);
        assert_eq!(report.resubmitted, 0, "no NIC queues to drain");
        assert_eq!(r.pipe.migrations(), 1);
        assert_eq!(r.pipe.bucket_map(), map);

        r.pipe.dispatch(burst(8, 4));
        r.pipe.flush();
        assert_eq!(r.pipe.shard_stats(2).packets, 32, "all flows follow");
        for shard in [0usize, 1, 3] {
            assert_eq!(r.pipe.shard_stats(shard).packets, 0);
        }
        // The meters saw every packet, bucketwise.
        assert_eq!(r.pipe.bucket_loads().iter().sum::<u64>(), 32);
        r.pipe.shutdown();
    }

    #[test]
    fn install_drains_and_resteers_nic_queues() {
        use netkit_kernel::nic::{Nic, PortId};
        use netkit_packet::flow::FlowKey;
        use netkit_packet::packet::PacketBuilder;

        let workers = 2usize;
        let r = rig("drain", workers);
        let nic = Nic::with_queues(PortId(0), workers, 64, 64, 1_000_000);
        // Park 16 frames in the NIC queues under the identity table.
        let mut keys = Vec::new();
        for i in 0..16u16 {
            let wire = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 2000 + i, 80).build();
            keys.push(FlowKey::from_packet(&wire).unwrap());
            assert!(nic.inject_rx_frame(wire.data()));
        }
        // Migrate every occupied bucket to shard 1.
        let mut map = r.pipe.bucket_map();
        for k in &keys {
            map.set(k.bucket(), 1);
        }
        let report = r.pipe.install_bucket_map(map.clone(), &[&nic]);
        assert_eq!(report.resubmitted, 16, "queued frames migrated");
        assert_eq!(report.dropped, 0);
        assert_eq!(nic.indirection(), map, "NIC mirrors the table");
        r.pipe.flush();
        assert_eq!(r.pipe.shard_stats(1).packets, 16);
        assert_eq!(r.pipe.shard_stats(0).packets, 0);
        // Frames injected after the swap steer straight to the new
        // queue; pump_nic keeps its queue == shard contract.
        let wire = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 2000, 80).build();
        assert!(nic.inject_rx_frame(wire.data()));
        assert_eq!(r.pipe.pump_nic(&nic, 1, 64), 1);
        r.pipe.flush();
        assert_eq!(r.pipe.shard_stats(1).packets, 17);
        r.pipe.shutdown();
    }

    #[test]
    fn rebalance_spreads_a_skewed_window() {
        use netkit_packet::steer::bucket_of;
        let workers = 4usize;
        let r = rig("skew", workers);
        // An elephant column plus colocated mice: half the load on
        // bucket 0 (the elephant), the rest on buckets 4, 8, 12 — all
        // ≡ 0 (mod 4), so everything lands on shard 0 under the
        // identity table.
        let mix = [0, 0, 0, 0, 4, 4, 8, 12];
        r.pipe.dispatch(stamped(&mix, 64));
        r.pipe.flush();
        assert_eq!(r.pipe.shard_stats(0).packets, 64, "skew: one hot shard");
        let loads = r.pipe.shard_loads();
        assert_eq!(loads[0].packets, 64);
        assert!(loads[0].ring_high_water >= 1);

        let mut ctl = steady(1.25, 32, 0.0);
        let (plan, report) = r.pipe.control_turn(&mut ctl, &[]).expect("skew triggers");
        assert!(plan.imbalance_before > 3.0);
        assert!(plan.imbalance_after <= 2.0, "{}", plan.imbalance_after);
        assert_eq!(report.moved_buckets, plan.moved.len());
        // The elephant's bucket stays put; the mice moved off shard 0.
        assert_eq!(r.pipe.bucket_map().shard_of_bucket(bucket_of(0)), 0);
        assert!(plan.moved.iter().all(|b| [4usize, 8, 12].contains(b)));

        // Second window with the same mix is now spread over shards.
        r.pipe.dispatch(stamped(&mix, 64));
        r.pipe.flush();
        let hot = r.pipe.shard_stats(0).packets - 64;
        assert_eq!(hot, 32, "shard 0 now carries only the elephant");
        let elsewhere: u64 = (1..workers).map(|s| r.pipe.shard_stats(s).packets).sum();
        assert_eq!(elsewhere, 32, "mice ran elsewhere");
        // A balanced window does not trigger again.
        assert!(r.pipe.control_turn(&mut ctl, &[]).is_none());
        r.pipe.shutdown();
    }

    #[test]
    fn small_windows_accumulate_across_rebalance_polls() {
        // Regression: polling faster than min_samples worth of traffic
        // arrives must not throw the evidence away — a low-rate but
        // fully-skewed workload still triggers once enough has
        // accumulated.
        let r = rig("slow-skew", 4);
        let mut ctl = steady(1.25, 64, 0.0);
        for _ in 0..4 {
            // 24 packets per poll, all on shard 0's buckets.
            r.pipe.dispatch(stamped(&[0, 8, 0, 4, 0, 12], 24));
            r.pipe.flush();
            if r.pipe.control_turn(&mut ctl, &[]).is_some() {
                break;
            }
        }
        // 24 < 64 on the first two polls; by the third, 72 packets of
        // evidence have accumulated and the skew must have triggered.
        assert_eq!(r.pipe.migrations(), 1, "accumulated window triggered");
        r.pipe.shutdown();
    }

    #[test]
    fn declined_plan_windows_retain_their_evidence() {
        // Regression (drain-before-plan): a judged-but-declined window
        // must not be discarded. The evidence survives a declined
        // turn: the same packet skew that cannot trigger on packet
        // counts alone still converges later, once queueing pressure
        // tips the weighted decision — which only works if declined
        // windows are retained.
        let r = rig_with("retain", ShardSpec::new(2).with_ring_capacity(8));
        let mut unweighted = steady(1.25, 64, 0.0);
        // A sustained 1.2x skew: shard 0 carries 60 of every 100
        // packets (buckets 0 and 2), shard 1 carries 40 (bucket 1).
        let skew: Vec<u64> = std::iter::repeat_n([0u64, 2, 1, 0, 1, 2, 0, 1, 0, 1], 10)
            .flatten()
            .collect();
        r.pipe.dispatch(stamped(&skew, 100));
        r.pipe.flush();
        assert_eq!(r.pipe.bucket_loads().iter().sum::<u64>(), 100);

        // Judged and declined (1.2 < 1.25) — but NOT discarded.
        assert!(r.pipe.control_turn(&mut unweighted, &[]).is_none());
        assert_eq!(unweighted.holds(), 1);
        assert_eq!(
            r.pipe.bucket_loads().iter().sum::<u64>(),
            100,
            "a declined window is evidence, not waste"
        );

        // The retained window converges under the weighted policy as
        // soon as the hot shard's ring shows pressure: barely any new
        // packet evidence is needed.
        let mut weighted = steady(1.25, 64, 1.0);
        // Pile work onto shard 0's ring inside a quiesce (workers
        // parked, nothing retires) so its high-water mark rides 6/8 of
        // the ring capacity — deterministic queueing pressure.
        r.pipe.quiesce(|| {
            for _ in 0..6 {
                r.pipe.submit(0, stamped(&[0], 1)).unwrap();
            }
        });
        r.pipe.flush();
        let loads = r.pipe.shard_loads();
        assert!(loads[0].ring_high_water >= 6, "{loads:?}");
        let (plan, _) = r
            .pipe
            .control_turn(&mut weighted, &[])
            .expect("retained evidence + pressure must converge");
        assert_eq!(plan.moved, vec![2], "colocated bucket leaves shard 0");
        assert_eq!(r.pipe.migrations(), 1);
        r.pipe.shutdown();
    }

    #[test]
    fn rebalance_gates_plans_and_retires_one_snapshot() {
        // Regression (TOCTOU): one snapshot serves gate, plan, and
        // retire, so the judged window cannot differ from the gated
        // one: after a triggered turn the meter holds exactly what
        // arrived after the snapshot (here: nothing).
        let r = rig("snapshot", 4);
        let mut ctl = steady(1.25, 32, 0.0);
        r.pipe.dispatch(stamped(&[0, 4, 8, 12], 64)); // all -> shard 0
        r.pipe.flush();
        let before = r.pipe.bucket_loads();
        let (plan, _) = r.pipe.control_turn(&mut ctl, &[]).expect("skew triggers");
        assert!(!plan.moved.is_empty());
        assert_eq!(
            r.pipe.bucket_loads().iter().sum::<u64>(),
            0,
            "the judged snapshot {before:?} is retired exactly"
        );
        r.pipe.shutdown();
    }

    #[test]
    fn control_turn_closes_the_loop_on_the_pipeline() {
        let r = rig("turn", 4);
        let policy = RebalancePolicy {
            pressure_weight: 1.0,
            ..packets_only(1.25, 64) // decay 0.5
        };
        let mut ctl = RebalanceController::new(policy, 0);
        // A guard the capsule merely hosts: no list names it, the turn
        // finds it through the meta-models and closes its window.
        let guard = crate::flow::Guard::new(
            Arc::clone(r.pipe.flow_sketch(3)),
            crate::flow::GuardConfig::default(),
        );
        r.pipe.capsule(3).adopt(guard.clone()).unwrap();
        // Turn 1: gathering (window below min_samples) — untouched.
        r.pipe.dispatch(stamped(&[0, 4, 8, 12], 24));
        r.pipe.flush();
        assert!(r.pipe.control_turn(&mut ctl, &[]).is_none());
        assert_eq!(r.pipe.bucket_loads().iter().sum::<u64>(), 24);
        assert_eq!(guard.stats().windows, 1, "every turn is a window boundary");
        // Turn 2: enough evidence accumulated across turns — migrate,
        // and the judged window retires.
        r.pipe.dispatch(stamped(&[0, 4, 8, 12], 48));
        r.pipe.flush();
        let (plan, report) = r
            .pipe
            .control_turn(&mut ctl, &[])
            .expect("colocation must migrate");
        assert_eq!(report.moved_buckets, plan.moved.len());
        assert_eq!(r.pipe.bucket_loads().iter().sum::<u64>(), 0);
        assert_eq!(r.pipe.migrations(), 1);
        // Turn 3: balanced traffic under the new table — Hold decays
        // the judged window instead of draining it.
        r.pipe.dispatch(stamped(&[0, 4, 8, 12], 128));
        r.pipe.flush();
        assert!(r.pipe.control_turn(&mut ctl, &[]).is_none());
        let retained = r.pipe.bucket_loads().iter().sum::<u64>();
        assert_eq!(retained, 64, "hold keeps alpha=0.5 of the window");
        assert_eq!(ctl.ticks(), 3);
        assert_eq!(
            guard.stats().windows,
            3,
            "one window per turn, whatever it decided"
        );
        r.pipe.shutdown();
    }

    #[test]
    fn sketch_evidence_migrates_byte_elephants_the_packet_window_hides() {
        let r = rig("elephants", 2);
        let blended = RebalancePolicy {
            heavy_blend: 1.0,
            ..packets_only(1.25, 32)
        };
        let mut ctl = RebalanceController::new(blended, 0);
        // Uniform packet counts: 8 packets in each of buckets 0..8
        // (identity(2): evens -> shard 0, odds -> shard 1). But every
        // even-bucket flow is an elephant (1200-byte payloads) while
        // the odd-bucket mice send empty datagrams — shard 0 carries
        // almost all the bytes behind a perfectly balanced packet
        // window.
        r.pipe.dispatch(stamped_sized(&[0, 2, 4, 6], 32, 1200));
        r.pipe.dispatch(stamped(&[1, 3, 5, 7], 32));
        r.pipe.flush();
        let heavy = r.pipe.heavy_hitters();
        assert!(!heavy.is_empty(), "workers must feed the sketches");
        let elephant_bytes: u64 = heavy
            .iter()
            .filter(|h| h.hash % 2 == 0)
            .map(|h| h.weight)
            .sum();
        let mouse_bytes: u64 = heavy
            .iter()
            .filter(|h| h.hash % 2 == 1)
            .map(|h| h.weight)
            .sum();
        assert!(elephant_bytes > 10 * mouse_bytes.max(1), "byte skew");

        // A packet-only controller holds forever on this window...
        let mut packets_only = RebalanceController::new(packets_only(1.25, 32), 0);
        assert!(r.pipe.control_turn(&mut packets_only, &[]).is_none());
        assert_eq!(packets_only.holds(), 1, "judged and declined");
        // (the hold decayed the windows; re-feed to full strength)
        r.pipe.dispatch(stamped_sized(&[0, 2, 4, 6], 32, 1200));
        r.pipe.dispatch(stamped(&[1, 3, 5, 7], 32));
        r.pipe.flush();

        // ...while the sketch-informed controller migrates, and the
        // judged sketch windows retire with the packet window.
        let (plan, _) = r
            .pipe
            .control_turn(&mut ctl, &[])
            .expect("byte evidence must migrate");
        assert!(plan.imbalance_after < plan.imbalance_before);
        assert_eq!(r.pipe.bucket_loads().iter().sum::<u64>(), 0);
        let residual: u64 = (0..r.pipe.workers())
            .map(|s| r.pipe.flow_sketch(s).total_bytes())
            .sum();
        assert_eq!(residual, 0, "judged sketch windows retire exactly");
        r.pipe.shutdown();
    }

    #[test]
    #[should_panic(expected = "bucket map targets")]
    fn install_rejects_mismatched_shard_count() {
        let r = rig("mismatch", 2);
        r.pipe
            .install_bucket_map(netkit_packet::steer::BucketMap::identity(4), &[]);
    }

    #[test]
    fn submit_targets_one_shard() {
        let r = rig("direct", 2);
        r.pipe.submit(0, burst(4, 1)).unwrap();
        r.pipe.flush();
        assert_eq!(r.pipe.shard_stats(0).packets, 4);
        assert_eq!(r.pipe.shard_stats(1).packets, 0);
        assert!(r.pipe.submit(5, PacketBatch::new()).is_err());
        r.pipe.shutdown();
    }

    #[test]
    fn install_counts_full_ring_rejections_and_recycles_containers() {
        use netkit_kernel::nic::{Nic, PortId};
        use netkit_packet::flow::FlowKey;

        // Satellite regression: frames that bounce off a full ring
        // during the install re-steer must land in the shard's
        // `dropped` stat, and every pooled container — including the
        // shared parents of rejected ranges — must come back.
        let workers = 2usize;
        let r = rig_with(
            "install-full",
            ShardSpec::new(workers).with_ring_capacity(1),
        );
        let nic = Nic::with_queues(PortId(0), workers, 64, 64, 1_000_000);
        let mut per_queue = vec![0usize; workers];
        let mut map = r.pipe.bucket_map();
        for i in 0..16u16 {
            let wire = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 2000 + i, 80).build();
            let key = FlowKey::from_packet(&wire).unwrap();
            per_queue[key.shard_for(workers)] += 1;
            map.set(key.bucket(), 1); // everything migrates to shard 1
            assert!(nic.inject_rx_frame(wire.data()));
        }
        assert!(
            per_queue.iter().all(|&n| n > 0),
            "flows span both queues: {per_queue:?}"
        );
        let before = r.pipe.batch_pool().stats();
        let report = r.pipe.install_bucket_map(map, &[&nic]);
        // Queue 0 drains first and its shard-1 range fills the 1-slot
        // ring (workers are parked); queue 1's range then bounces.
        assert_eq!(report.resubmitted, per_queue[0]);
        assert_eq!(report.dropped, per_queue[1]);
        r.pipe.flush();
        assert_eq!(r.pipe.shard_stats(1).packets, per_queue[0] as u64);
        assert_eq!(r.pipe.shard_stats(1).dropped, per_queue[1] as u64);
        // Both drained parents (accepted and rejected) plus the empty
        // end-of-queue takes recycled; the freelist never overflowed.
        let after = r.pipe.batch_pool().stats();
        assert!(
            after.recycled >= before.recycled + 4,
            "{before:?} -> {after:?}"
        );
        assert_eq!(after.discarded, before.discarded);
        r.pipe.shutdown();
    }

    /// One shard with a drainer thread of its own (`k = 0`), for the
    /// tests of a dead shard.
    fn on_a_thread() -> ShardSpec {
        ShardSpec {
            caller_shards: 0,
            ..ShardSpec::single()
        }
    }

    /// An ingress that kills its worker on the first packet.
    struct Exploder;

    impl crate::api::IPacketPush for Exploder {
        fn push(&self, _pkt: netkit_packet::packet::Packet) -> crate::api::PushResult {
            panic!("injected fault");
        }
    }

    #[test]
    fn pump_nic_fails_fast_on_a_dead_worker_and_counts_the_loss() {
        use netkit_kernel::nic::{Nic, PortId};

        // Satellite regression: once the worker is marked dead,
        // pump_nic must return immediately (no ring-timeout block),
        // count the drained frames as dropped, and recycle its pooled
        // container.
        let rm = Arc::new(ResourceManager::new());
        let pipe = ShardedPipeline::build("dead-pump", on_a_thread(), rm, |_| {
            let rt = Runtime::new();
            register_packet_interfaces(&rt);
            let capsule = Capsule::new("shard", &rt);
            Ok(ShardGraph::new(Arc::clone(&capsule), Arc::new(Exploder)))
        })
        .unwrap();
        pipe.submit(0, burst(1, 1)).unwrap(); // poisons the worker
        while pipe.pool.worker_alive(0) == Some(true) {
            std::thread::yield_now();
        }
        let nic = Nic::with_queues(PortId(0), 1, 64, 64, 1_000_000);
        for i in 0..4u16 {
            let wire = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 2000 + i, 80).build();
            assert!(nic.inject_rx_frame(wire.data()));
        }
        let before = pipe.batch_pool().stats();
        assert_eq!(pipe.pump_nic(&nic, 0, 64), 0, "dead worker: fast fail");
        assert_eq!(pipe.shard_stats(0).dropped, 4, "the loss is counted");
        let after = pipe.batch_pool().stats();
        assert_eq!(after.recycled, before.recycled + 1, "container returns");
        pipe.flush(); // does not wedge on the dead shard
        assert_eq!(
            pipe.counters[0].drop_stats().dead_worker,
            4,
            "fast-fail loss files under the dead-worker cause"
        );
        assert_eq!(pipe.drop_stats().total(), pipe.stats().dropped);
        pipe.shutdown();
    }

    /// Factory whose first build of `poison_shard` is an [`Exploder`];
    /// every rebuild is a healthy Counter→Discard replica whose sink
    /// is pushed onto `sinks`.
    fn poisoned_factory(
        poison_shard: usize,
        sinks: Arc<parking_lot::Mutex<Vec<Arc<Discard>>>>,
    ) -> impl FnMut(usize) -> Result<ShardGraph> + Send + 'static {
        let poisoned = Arc::new(std::sync::atomic::AtomicBool::new(false));
        move |shard| {
            let rt = Runtime::new();
            register_packet_interfaces(&rt);
            let capsule = Capsule::new("shard", &rt);
            if shard == poison_shard && !poisoned.swap(true, std::sync::atomic::Ordering::Relaxed) {
                return Ok(ShardGraph::new(Arc::clone(&capsule), Arc::new(Exploder)));
            }
            let counter = Counter::new();
            let sink = Discard::new();
            let cid = capsule.adopt(counter.clone())?;
            let sid = capsule.adopt(sink.clone())?;
            capsule.bind_simple(cid, "out", sid, IPACKET_PUSH)?;
            sinks.lock().push(sink);
            Ok(ShardGraph::new(Arc::clone(&capsule), counter))
        }
    }

    #[test]
    fn respawn_rebuilds_the_replica_and_accounts_stranded_packets() {
        let rm = Arc::new(ResourceManager::new());
        let sinks = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let pipe = ShardedPipeline::build(
            "respawn",
            on_a_thread(),
            Arc::clone(&rm),
            poisoned_factory(0, Arc::clone(&sinks)),
        )
        .unwrap();
        // Park the worker and pile the poison plus three more batches
        // into its ring; on release the first packet kills the worker
        // mid-job, stranding the three untouched batches (12 packets).
        pipe.quiesce(|| {
            pipe.submit(0, burst(1, 1)).unwrap();
            for _ in 0..3 {
                pipe.submit(0, burst(2, 2)).unwrap();
            }
        });
        while pipe.worker_alive(0) == Some(true) {
            std::thread::yield_now();
        }
        let stranded = pipe
            .respawn_shard(0)
            .unwrap()
            .expect("a dead worker respawns");
        assert_eq!(stranded, 12, "every stranded ring packet is counted");
        assert_eq!(pipe.counters[0].drop_stats().dead_worker, 12);
        assert_eq!(pipe.recoveries(), 1);
        assert_eq!(pipe.worker_alive(0), Some(true));
        // Respawning a live worker is refused, not destructive.
        assert_eq!(pipe.respawn_shard(0).unwrap(), None);
        assert_eq!(pipe.recoveries(), 1);
        // The fresh replica delivers; the recovery billed FAULTS.
        pipe.dispatch(burst(4, 4));
        pipe.flush();
        let delivered: u64 = sinks.lock().iter().map(|s| s.count()).sum();
        assert_eq!(delivered, 16, "traffic flows through the new graph");
        let info = rm.task_info(pipe.task()).unwrap();
        assert_eq!(info.usage[classes::FAULTS], 1);
        assert_eq!(
            info.attached.len(),
            2,
            "dead replica's components detached, fresh ones attached"
        );
        assert_eq!(pipe.drop_stats().total(), pipe.stats().dropped);
        pipe.shutdown();
    }

    #[test]
    fn health_turn_respawns_in_place_and_moves_no_bucket() {
        use netkit_kernel::nic::{Nic, PortId};
        use netkit_packet::flow::FlowKey;

        let workers = 2usize;
        let rm = Arc::new(ResourceManager::new());
        let sinks = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let pipe = ShardedPipeline::build(
            "health",
            ShardSpec::new(workers),
            Arc::clone(&rm),
            poisoned_factory(1, Arc::clone(&sinks)),
        )
        .unwrap();
        // Kill shard 1 with one poisoned packet.
        pipe.submit(1, burst(1, 1)).unwrap();
        while pipe.worker_alive(1) == Some(true) {
            std::thread::yield_now();
        }
        // Park frames for the dead shard in its NIC queue.
        let nic = Nic::with_queues(PortId(0), workers, 64, 64, 1_000_000);
        let mut parked = 0u64;
        for i in 0..32u16 {
            let wire = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 2000 + i, 80).build();
            let key = FlowKey::from_packet(&wire).unwrap();
            if key.shard_for(workers) == 1 {
                assert!(nic.inject_rx_frame(wire.data()));
                parked += 1;
            }
        }
        assert!(parked > 0, "some flows must steer to the dead shard");
        let saved = pipe.bucket_map();
        let epoch_before = pipe.epoch();
        let migrations_before = pipe.migrations();

        let recovery = pipe
            .health_turn()
            .unwrap()
            .expect("a dead shard is detected");
        assert_eq!(recovery.respawned, vec![1]);
        assert_eq!(recovery.stranded, 0, "the poison job was consumed");
        // Respawned in place: no quiesce, no bucket moved, no migration.
        assert_eq!(pipe.bucket_map(), saved);
        assert_eq!(nic.indirection(), saved);
        assert_eq!(pipe.epoch(), epoch_before);
        assert_eq!(pipe.migrations(), migrations_before);
        // The parked frames waited in the dead shard's queue and go to
        // the respawned shard, the one that owns their flows.
        assert_eq!(pipe.pump_nic(&nic, 1, 64), parked as usize);
        pipe.flush();
        assert_eq!(pipe.shard_stats(0).packets, 0);
        assert_eq!(pipe.shard_stats(1).packets, parked);
        assert_eq!(pipe.worker_alive(1), Some(true));
        pipe.submit(1, burst(2, 2)).unwrap();
        pipe.flush();
        let delivered: u64 = sinks.lock().iter().map(|s| s.count()).sum();
        assert_eq!(delivered, parked + 4);
        // One respawn, one FAULTS unit.
        let info = rm.task_info(pipe.task()).unwrap();
        assert_eq!(info.usage[classes::FAULTS], 1);
        assert_eq!(pipe.recoveries(), 1);
        // A healthy pipeline's health turn is one probe and out.
        assert_eq!(pipe.health_turn().unwrap(), None);
        assert_eq!(pipe.drop_stats().total(), pipe.stats().dropped);
        pipe.shutdown();
    }

    #[test]
    fn a_failed_rebuild_leaves_the_shard_dead_and_the_next_turn_retries() {
        use netkit_kernel::nic::{Nic, PortId};

        let workers = 2usize;
        let rm = Arc::new(ResourceManager::new());
        let sinks = Arc::new(parking_lot::Mutex::new(Vec::new()));
        // Shard 1's first build explodes, its first rebuild fails, and
        // every later build is healthy.
        let mut healthy = poisoned_factory(1, Arc::clone(&sinks));
        let mut shard1_builds = 0u32;
        let factory = move |shard: usize| {
            if shard == 1 {
                shard1_builds += 1;
                if shard1_builds == 2 {
                    return Err(opencom::error::Error::UnknownComponentType {
                        type_name: "rebuild fails once".into(),
                    });
                }
            }
            healthy(shard)
        };
        let pipe = ShardedPipeline::build(
            "rebuild-fails",
            ShardSpec::new(workers),
            Arc::clone(&rm),
            factory,
        )
        .unwrap();
        pipe.submit(1, burst(1, 1)).unwrap();
        while pipe.worker_alive(1) == Some(true) {
            std::thread::yield_now();
        }
        let nic = Nic::with_queues(PortId(0), workers, 64, 64, 1_000_000);
        let saved = pipe.bucket_map();
        let nic_saved = nic.indirection();
        let epoch_before = pipe.epoch();

        assert!(pipe.health_turn().is_err(), "the rebuild failure surfaces");
        assert_eq!(pipe.worker_alive(1), Some(false), "the shard stays dead");
        assert_eq!(pipe.bucket_map(), saved);
        assert_eq!(pipe.epoch(), epoch_before);
        assert_eq!(nic.indirection(), nic_saved);
        assert_eq!(pipe.recoveries(), 0);
        // Its buckets still steer to it, and what lands there is filed
        // as dead-worker drops.
        pipe.dispatch(stamped(&[1], 8));
        pipe.flush();
        assert_eq!(pipe.drop_stats().dead_worker, 8);
        assert_eq!(pipe.drop_stats().total(), pipe.stats().dropped);

        let recovery = pipe
            .health_turn()
            .unwrap()
            .expect("the retry respawns the shard");
        assert_eq!(recovery.respawned, vec![1]);
        assert_eq!(pipe.worker_alive(1), Some(true));
        let info = rm.task_info(pipe.task()).unwrap();
        assert_eq!(info.usage[classes::FAULTS], 1);
        assert_eq!(pipe.recoveries(), 1);
        pipe.dispatch(stamped(&[1], 8));
        pipe.flush();
        let delivered: u64 = sinks.lock().iter().map(|s| s.count()).sum();
        assert_eq!(delivered, 8, "the rebuilt shard delivers");
        pipe.shutdown();
    }

    /// An ingress that rejects even packets as rate-limited (the
    /// guard's verdict) and odd packets as queue-full (graph policy).
    struct Alternator(AtomicU64);

    impl crate::api::IPacketPush for Alternator {
        fn push(&self, _pkt: netkit_packet::packet::Packet) -> crate::api::PushResult {
            if self.0.fetch_add(1, Ordering::Relaxed).is_multiple_of(2) {
                Err(crate::api::PushError::RateLimited)
            } else {
                Err(crate::api::PushError::QueueFull)
            }
        }
    }

    #[test]
    fn workers_split_graph_verdicts_into_guard_and_graph_causes() {
        let rm = Arc::new(ResourceManager::new());
        let pipe = ShardedPipeline::build("causes", ShardSpec::single(), rm, |_| {
            let rt = Runtime::new();
            register_packet_interfaces(&rt);
            let capsule = Capsule::new("shard", &rt);
            Ok(ShardGraph::new(
                Arc::clone(&capsule),
                Arc::new(Alternator(AtomicU64::new(0))),
            ))
        })
        .unwrap();
        pipe.submit(0, burst(4, 4)).unwrap();
        pipe.flush();
        let causes = pipe.counters[0].drop_stats();
        assert_eq!(causes.guard, 8, "rate-limit verdicts meter separately");
        assert_eq!(causes.graph, 8, "other graph verdicts stay graph policy");
        assert_eq!(causes.total(), pipe.stats().dropped, "the sum invariant");
        assert_eq!(pipe.stats().accepted, 0);
        pipe.shutdown();
    }

    /// The pipeline with one `entry(shard)` element per replica, placed
    /// as `spec` says (the callers ask for no drainer threads).
    pub(super) fn inline_pipe(
        name: &str,
        spec: ShardSpec,
        mut entry: impl FnMut(usize) -> Arc<dyn IPacketPush> + Send + 'static,
    ) -> ShardedPipeline {
        ShardedPipeline::build_with_sketches(
            name,
            spec,
            Arc::new(ResourceManager::new()),
            fresh_sketches(spec),
            move |shard| {
                let rt = Runtime::new();
                register_packet_interfaces(&rt);
                Ok(ShardGraph::new(Capsule::new("shard", &rt), entry(shard)))
            },
        )
        .expect("pipeline builds")
    }

    #[test]
    fn zero_worker_spec_behaves_as_one_shard() {
        // A literal spec bypasses ShardSpec::new's clamp; the pipeline
        // normalises it like the executors and the split do.
        let raw = ShardSpec {
            workers: 0,
            ring_capacity: 0,
            caller_shards: 1,
        };
        let pipe = inline_pipe("zero-raw", raw, |_| Counter::new());
        assert_eq!(pipe.workers(), 1);
        assert_eq!(pipe.dispatch(burst(4, 1)), 1);
        pipe.flush();
        assert_eq!(pipe.shard_stats(0).packets, 4);
    }
}

/// The pipeline with no drainer threads: one thread, shards in index
/// order — what the simulator drives. (The module path keeps the ids
/// these tests have carried since they pinned the single-threaded
/// drive.)
#[cfg(test)]
mod solo {
    mod tests {
        use super::super::tests::inline_pipe;
        use super::super::*;
        use crate::api::{BatchResult, PushResult};
        use crate::shard::decision::fixtures::packets_only;
        use netkit_packet::flow::FlowKey;
        use netkit_packet::packet::{Packet, PacketBuilder};

        /// Terminal element logging `(shard, src_port)` arrivals.
        struct Recorder {
            shard: usize,
            log: Arc<Mutex<Vec<(usize, u16)>>>,
        }

        impl IPacketPush for Recorder {
            fn push(&self, pkt: Packet) -> PushResult {
                self.log
                    .lock()
                    .push((self.shard, pkt.udp_v4().expect("udp").src_port));
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

        #[allow(clippy::type_complexity)]
        fn recorder_pipe(workers: usize) -> (ShardedPipeline, Arc<Mutex<Vec<(usize, u16)>>>) {
            let log: Arc<Mutex<Vec<(usize, u16)>>> = Arc::new(Mutex::new(Vec::new()));
            let log2 = Arc::clone(&log);
            let name = format!("solo-test-{workers}");
            let pipe = inline_pipe(&name, ShardSpec::inline(workers), move |shard| {
                Arc::new(Recorder {
                    shard,
                    log: Arc::clone(&log2),
                })
            });
            (pipe, log)
        }

        fn flow(port: u16) -> Packet {
            PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", port, 80).build()
        }

        #[test]
        fn dispatch_steers_by_flow_in_shard_order() {
            let (pipe, log) = recorder_pipe(4);
            let pkts: Vec<Packet> = (0..32u16).map(|i| flow(7000 + i)).collect();
            let expect_shard: Vec<usize> = pkts
                .iter()
                .map(|p| FlowKey::from_packet(p).unwrap().shard_for(4))
                .collect();
            pipe.dispatch(PacketBatch::from_packets(pkts));
            pipe.flush();
            let log = log.lock();
            assert_eq!(log.len(), 32);
            // Shard visit order is index order, and each packet landed on
            // its RSS shard.
            let mut last_shard = 0;
            for &(shard, port) in log.iter() {
                assert!(shard >= last_shard, "shards visited in index order");
                last_shard = shard;
                assert_eq!(shard, expect_shard[(port - 7000) as usize]);
            }
            assert_eq!(pipe.stats().packets, 32);
            assert_eq!(pipe.stats().accepted, 32);
            assert_eq!(pipe.stats().dropped, 0);
        }

        #[test]
        fn single_shard_skips_metering() {
            let (pipe, _log) = recorder_pipe(1);
            pipe.dispatch((0..8u16).map(|i| flow(9000 + i)).collect());
            pipe.flush();
            assert_eq!(pipe.bucket_loads().iter().sum::<u64>(), 0);
            assert_eq!(pipe.stats().packets, 8);
        }

        #[test]
        fn installed_map_redirects_and_counts_migration() {
            let (pipe, log) = recorder_pipe(2);
            let pkts: Vec<Packet> = (0..8u16).map(|i| flow(7000 + i)).collect();
            let mut map = pipe.bucket_map();
            for p in &pkts {
                map.set(FlowKey::from_packet(p).unwrap().bucket(), 1);
            }
            let report = pipe.install_bucket_map(map, &[]);
            assert!(report.moved_buckets > 0);
            assert_eq!(pipe.migrations(), 1);
            pipe.dispatch(PacketBatch::from_packets(pkts));
            pipe.flush();
            assert_eq!(log.lock().len(), 8);
            assert!(log.lock().iter().all(|&(shard, _)| shard == 1));
        }

        #[test]
        fn control_turn_migrates_a_colocated_window() {
            let (pipe, _log) = recorder_pipe(2);
            let mut ctl = RebalanceController::new(packets_only(1.25, 8), 0);
            // Flows all colocated on shard 0 under the identity table.
            let mut colocated = Vec::new();
            let mut port = 7000u16;
            while colocated.len() < 32 {
                let p = flow(port);
                if FlowKey::from_packet(&p).unwrap().shard_for(2) == 0 {
                    colocated.push(p);
                }
                port += 1;
            }
            pipe.dispatch(PacketBatch::from_packets(colocated));
            pipe.flush();
            let migrated = pipe.control_turn(&mut ctl, &[]);
            assert!(migrated.is_some(), "colocation must migrate");
            assert_eq!(pipe.migrations(), 1);
            // The judged window was retired.
            assert_eq!(pipe.bucket_loads().iter().sum::<u64>(), 0);
        }

        #[test]
        fn drop_causes_sum_to_aggregate() {
            // A graph that rejects every packet as rate-limited on shard 0
            // and as vetoed elsewhere.
            struct Reject(bool);
            impl IPacketPush for Reject {
                fn push(&self, _pkt: Packet) -> PushResult {
                    if self.0 {
                        Err(PushError::RateLimited)
                    } else {
                        Err(PushError::Veto("rejected".into()))
                    }
                }
            }
            let pipe = inline_pipe("solo-reject", ShardSpec::inline(2), |shard| {
                Arc::new(Reject(shard == 0))
            });
            pipe.dispatch((0..32u16).map(|i| flow(7000 + i)).collect());
            pipe.flush();
            let stats = pipe.stats();
            let drops = pipe.drop_stats();
            assert_eq!(stats.dropped, 32);
            assert_eq!(drops.total(), 32);
            assert!(drops.guard > 0, "shard 0 verdicts file under guard");
            assert!(drops.graph > 0, "shard 1 verdicts file under graph");
            assert_eq!(drops.ring_full + drops.dead_worker + drops.resteer_shed, 0);
        }
    }
}
