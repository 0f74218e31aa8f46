//! Sharded run-to-completion worker-pool runtime.
//!
//! The paper's stratum 1 exists to put packet handling "as close to the
//! hardware as possible" — on the IXP1200 that means six parallel
//! microengines, each running its packet pipeline to completion. This
//! module is the host-side analogue: a [`WorkerPool`] of N OS threads,
//! each owning one SPSC work ring (built on the crossbeam channel shim)
//! and one replica of the processing logic, fed by an RSS-style
//! dispatcher that keeps every flow on a single worker (see
//! `netkit_packet::flow::FlowKey::rss_hash`). Run-to-completion means a
//! worker finishes an entire work item (typically a packet batch,
//! through the whole element graph) before looking at its ring again —
//! no cross-thread hand-offs on the fast path, no locks shared between
//! shards.
//!
//! The pool is generic over its work item; the packet dataplane
//! instantiates it with [`ShardJob`], whose [`ShardJob::Range`] variant
//! carries a shard's slice of a *shared* split parent instead of an
//! owned sub-batch — see its docs for how the quiesce and per-flow
//! order invariants are preserved under the shared-parent lifecycle.
//! [`WorkerPool::submit_fanout`] is the matching batched publish: one
//! gate transaction per dispatch instead of one per sub-batch.
//!
//! ## Two kinds of shard slot, one executor
//!
//! A shard's slot is either a **ring** — the worker thread and SPSC
//! ring described above — or a **caller slot**: a ring with no thread.
//! A job submitted to a caller slot queues, bounded by the same
//! `ring_capacity`, and the thread that next *waits* on the pool runs
//! it, on itself, in FIFO order: [`WorkerPool::flush`] and
//! [`WorkerPool::quiesce`] drain every caller slot before they wait on
//! the rings, shutdown drains them before it joins the workers, and a
//! blocking submit that finds the queue full drains it to make room.
//! Shards `0..k` are caller slots and the rest rings
//! ([`ShardSpec::caller_shards`]): [`ShardSpec::new`] puts shard 0 on
//! the dispatching thread, so a dispatcher publishes a whole round to
//! the workers and then, inside `flush`, runs shard 0's share in
//! parallel with them instead of parking; [`ShardSpec::inline`] puts
//! every shard there, the deterministic placement the simulator
//! drives.
//!
//! Both kinds keep one set of books at the gate: a queued job counts
//! in flight and in the high-water mark, a completed one in
//! [`WorkerPool::completed`], and a full queue bounces
//! [`WorkerPool::try_submit`] as [`SubmitRejection::RingFull`]. A
//! caller slot's handler runs under `catch_unwind`, so a panic during
//! a drain marks the shard dead exactly as a worker's exit does: the
//! drainer survives, later submits bounce with
//! [`SubmitRejection::DeadWorker`], the jobs still queued are
//! stranded, and [`WorkerPool::respawn`] hands them to its
//! `on_stranded` and swaps in a fresh handler.
//!
//! ## The epoch quiesce protocol
//!
//! Reflective reconfiguration (the architecture meta-model's
//! insert/remove/replace) must apply **atomically across all shards**:
//! a packet must never traverse shard 0's new graph while shard 1 still
//! runs the old one. [`WorkerPool::quiesce`] implements an epoch
//! barrier:
//!
//! 1. the reconfigurer bumps the requested epoch and enqueues a sync
//!    marker on every worker ring — *behind* all previously submitted
//!    work, so in-flight items run to completion first;
//! 2. each worker, on reaching its marker, parks at the gate and
//!    reports arrival;
//! 3. once every worker is parked the reconfigurer runs its closure —
//!    it has exclusive access to all shard state, with zero items
//!    mid-pipeline anywhere;
//! 4. releasing the epoch wakes all workers, which resume draining
//!    their rings.
//!
//! Traffic submitted during the quiesce is *not* dropped: it queues in
//! the rings (backpressure via bounded capacity) and flows as soon as
//! the epoch is released. The window where forwarding pauses is exactly
//! the closure's run time plus one barrier round — the multi-core
//! generalisation of the paper's "brief interruption" during hot swap.
//!
//! ## Quiesce semantics, precisely
//!
//! What [`WorkerPool::quiesce`] guarantees (and what it does not):
//!
//! 1. **Happens-before, per ring.** Every item submitted to a ring
//!    *before* the quiescer enqueued that ring's sync marker runs to
//!    completion before the closure starts. Items submitted *after*
//!    the marker (including from inside the closure) run only after
//!    the epoch is released, in submission order. A caller slot's
//!    marker is the quiescer's drain of it, which runs first.
//! 2. **Exclusivity.** While the closure runs, every live worker is
//!    parked at a batch boundary and the quiescer holds every caller
//!    slot's handler lock, having drained it first; no handler code
//!    executes anywhere in the pool. Multi-step shared-state updates
//!    inside the closure are indivisible from the dataplane's point
//!    of view. A job the closure submits to a caller slot queues and
//!    runs at the next flush, as one submitted to a ring runs after
//!    the release.
//! 3. **No loss.** Nothing in the rings is discarded; the barrier
//!    reorders nothing within any ring (rings are FIFO throughout).
//! 4. **Liveness under faults.** Dead workers (handler panics) are
//!    accounted at the gate; a quiesce never wedges waiting for one,
//!    and `flush` is gated only by *live* shards' in-flight items.
//! 5. **What is NOT guaranteed:** ordering *between* rings. If a
//!    caller moves a traffic class from ring A to ring B (a steering
//!    migration), the caller must ensure A's items drained before B's
//!    start — which is exactly what running the re-steer inside the
//!    closure provides. The sharded router's
//!    `ShardedPipeline::install_bucket_map` composes this with a
//!    steering-table write lock to make bucket migrations loss-free
//!    and per-flow order-preserving; the bucket table itself is owned
//!    by the pipeline (this pool is payload-agnostic and holds no
//!    steering state — only per-shard load meters:
//!    [`WorkerPool::completed`], [`WorkerPool::in_flight_on`],
//!    [`WorkerPool::ring_high_water`]).
//!
//! ## What costs a syscall
//!
//! Parking, and waking a peer that is parked — nothing else. A worker
//! parks when its ring is empty, a producer when it is full, `flush`
//! while live work is in flight, `quiesce` while workers have yet to
//! reach the barrier, a worker at the barrier until release. The rings
//! (the crossbeam shim) and the gate both count their waiters under the
//! lock the waiter takes before it waits, and a notifier that reads
//! zero there skips its `Condvar` notify — on Linux an unconditional
//! `FUTEX_WAKE`. So `submit` to a busy worker, a `retire` with nobody
//! in `flush`, and every ring pop are an uncontended critical section
//! and no more; `submit` to an idle worker pays one wake, which is the
//! hand-off itself. A caller slot costs none: nobody parks on it,
//! since whoever waits runs its queue. Every notify is issued after the
//! notifier has let go of the lock: a thread woken under it can preempt
//! the notifier, run into the lock and park a second time, and whether
//! it does is the scheduler's choice — cost that varies from run to
//! run. A parked
//! flusher is woken whenever *a* shard's count reaches zero, not only
//! when the last one does: waking it for the last shard alone is one
//! more condition and measured no better (`crates/bench/NOTES.md`).
//!
//! The barrier-and-meters contract, runnable:
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//! use netkit_kernel::shard::{ShardSpec, WorkerPool};
//!
//! let sum = Arc::new(AtomicU64::new(0));
//! let pool = WorkerPool::start(ShardSpec::new(2), |_shard| {
//!     let sum = Arc::clone(&sum);
//!     Box::new(move |n: u64| {
//!         sum.fetch_add(n, Ordering::Relaxed);
//!     })
//! });
//! pool.submit(0, 1).unwrap();
//! pool.submit(1, 2).unwrap();
//! // Guarantee 1: pre-marker work is complete when the closure runs;
//! // work submitted inside it flows only after release.
//! let seen_at_quiesce = pool.quiesce(|| {
//!     pool.submit(0, 10).unwrap();
//!     sum.load(Ordering::Relaxed)
//! });
//! assert_eq!(seen_at_quiesce, 3);
//! pool.flush();
//! assert_eq!(sum.load(Ordering::Relaxed), 13); // guarantee 3: no loss
//! assert_eq!(pool.epoch(), 1);
//! // Load meters: per-shard completions and ring pressure.
//! assert_eq!(pool.completed(0), Some(2));
//! assert_eq!(pool.in_flight_on(0), Some(0));
//! assert!(pool.ring_high_water(0).unwrap() >= 1);
//! pool.shutdown();
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver, Sender};
use netkit_packet::batch::{PacketBatch, SharedShardRange};
use parking_lot::RwLock;

/// Configuration of a sharded dataplane: how many run-to-completion
/// shards, how deep each shard's queue is (in work items), and how
/// many of them run on the caller instead of a worker thread.
///
/// The same spec configures the NETKIT sharded pipeline, the sim
/// driver's RSS demux, and the click/monolithic baselines, so
/// multi-core benchmarks compare like-for-like.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of shards: worker threads and SPSC rings, or caller
    /// slots. Clamped to ≥ 1.
    pub workers: usize,
    /// Per-shard ring (or caller-slot queue) capacity, in work items;
    /// submission backpressures (blocking [`WorkerPool::submit`]) or
    /// fails ([`WorkerPool::try_submit`]) when it is full.
    pub ring_capacity: usize,
    /// `k`: shards `0..k` are caller slots, rings with no thread whose
    /// queued work runs on whichever thread next waits on the pool
    /// (see "Two kinds of shard slot" in the module docs); shards
    /// `k..workers` are worker threads. [`WorkerPool::start`] clamps it
    /// to `workers`. A spec with `k = 0`, every shard on a thread of
    /// its own, is a struct literal.
    pub caller_shards: usize,
}

impl ShardSpec {
    /// A spec with `workers` shards and default ring sizing: shard 0
    /// runs on the dispatching thread, the rest on worker threads, so
    /// one shard needs no thread at all.
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            ring_capacity: 1024,
            caller_shards: 1,
        }
    }

    /// A spec with `workers` caller slots: every shard's queue is run
    /// by whichever thread waits on the pool, shard by shard in index
    /// order, so a run replays bit for bit.
    ///
    /// A pool on caller slots: submitted work runs when the submitter
    /// flushes, and a panicking handler kills its shard, not the
    /// flusher.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use netkit_kernel::shard::{ShardSpec, SubmitRejection, WorkerPool};
    /// use parking_lot::Mutex;
    ///
    /// let log = Arc::new(Mutex::new(Vec::new()));
    /// let pool = WorkerPool::start(ShardSpec::inline(2), |shard| {
    ///     let log = Arc::clone(&log);
    ///     Box::new(move |n: u32| {
    ///         assert!(n != 0, "poison");
    ///         log.lock().push((shard, n));
    ///     })
    /// });
    /// pool.submit(1, 7).unwrap();
    /// pool.submit(0, 8).unwrap();
    /// assert!(log.lock().is_empty()); // queued, not yet run
    /// pool.flush();
    /// assert_eq!(*log.lock(), vec![(0, 8), (1, 7)]); // shard by shard
    /// pool.submit(0, 0).unwrap(); // poison...
    /// pool.submit(0, 9).unwrap(); // ...and a job queued behind it
    /// pool.flush(); // the handler panics on the flusher...
    /// assert_eq!(pool.worker_alive(0), Some(false)); // ...and shard 0 is dead
    /// assert_eq!(pool.try_submit_tagged(0, 5), Err((5, SubmitRejection::DeadWorker)));
    /// let log2 = Arc::clone(&log);
    /// let fresh = Box::new(move |n: u32| log2.lock().push((0, n)));
    /// let mut stranded = Vec::new();
    /// assert_eq!(pool.respawn(0, fresh, |n| stranded.push(n)), Some(1));
    /// assert_eq!(stranded, vec![9]); // the job behind the poison
    /// pool.submit(0, 6).unwrap();
    /// pool.flush();
    /// assert_eq!(log.lock().last(), Some(&(0, 6)));
    /// ```
    pub fn inline(workers: usize) -> Self {
        let spec = Self::new(workers);
        Self {
            caller_shards: spec.workers,
            ..spec
        }
    }

    /// The degenerate single-shard spec (scalar-equivalent execution,
    /// on the caller).
    pub fn single() -> Self {
        Self::new(1)
    }

    /// Sets the per-worker ring depth (builder-style).
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity.max(1);
        self
    }
}

impl Default for ShardSpec {
    fn default() -> Self {
        Self::single()
    }
}

/// One shard's work handler: consumes items to completion. Created per
/// worker by the factory passed to [`WorkerPool::start`], so each shard
/// owns its state outright (shared-nothing by construction).
pub type ShardHandler<T> = Box<dyn FnMut(T) + Send>;

/// The sharded dataplane's ring descriptor: what one slot of a worker
/// ring names. The [`WorkerPool`] itself stays payload-agnostic — this
/// is the concrete `T` the packet dataplane instantiates it with.
///
/// Two shapes, two hand-off disciplines:
///
/// * [`ShardJob::Batch`] moves an owned batch onto the ring — the
///   multi-queue NIC path, where hardware (or `pump_nic`) already
///   steered the batch to exactly one shard and there is nothing to
///   share.
/// * [`ShardJob::Range`] publishes one shard's slice of a **shared**
///   split parent ([`SharedShardRange`], an `Arc`'d descriptor):
///   the software-dispatch fast path. No packet moves at publish time;
///   the worker gathers its slice on its own core
///   ([`SharedShardRange::take_into`]) and the parent container
///   recycles to its pool when the last shard's refcount drops.
///
/// ### Quiesce and per-flow order, re-proven for shared ranges
///
/// The epoch protocol's guarantees carry over unchanged because a
/// range is one ring item like any other:
///
/// * **Happens-before** — sync markers are enqueued *behind* ranges,
///   so every pre-marker range has been consumed (its packets moved
///   out and run to completion) before the quiesce closure starts; by
///   then every pre-marker split parent has been dropped by its last
///   range and recycled. No shared parent is ever live across an
///   epoch boundary.
/// * **Per-flow order** — a flow maps to one bucket, a bucket to one
///   shard, so all of a flow's packets ride ranges on one ring, in
///   dispatch order (rings are FIFO). Sharing the parent adds no
///   cross-ring path a flow could race itself on.
/// * **Loss accounting** — a range that never reaches its worker
///   (ring full, worker dead) is dropped *as a descriptor*: its
///   packets stay in the shared parent and are freed — pooled frame
///   buffers recycled — when the parent's last handle goes. The
///   rejecting caller counts the range's packets as dropped; nothing
///   leaks and nothing double-frees.
#[derive(Debug)]
pub enum ShardJob {
    /// An owned, pre-steered batch (NIC multi-queue / direct submit).
    Batch(PacketBatch),
    /// One shard's slice of a shared split parent (dispatch fan-out).
    Range(SharedShardRange),
}

impl ShardJob {
    /// Number of packets this job carries.
    pub fn len(&self) -> usize {
        match self {
            ShardJob::Batch(b) => b.len(),
            ShardJob::Range(r) => r.len(),
        }
    }

    /// True when the job carries no packets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<PacketBatch> for ShardJob {
    fn from(batch: PacketBatch) -> Self {
        ShardJob::Batch(batch)
    }
}

impl From<SharedShardRange> for ShardJob {
    fn from(range: SharedShardRange) -> Self {
        ShardJob::Range(range)
    }
}

/// Why a submission bounced — the classification
/// [`WorkerPool::try_submit_tagged`] reports so callers can tell
/// backpressure (ring pressure, shed load) from faults (a dead worker,
/// whose traffic is a recovery concern) from caller error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitRejection {
    /// The target ring was full: backpressure evidence (tail drop).
    RingFull,
    /// The target worker is dead (handler panic): fault evidence.
    DeadWorker,
    /// The shard index does not exist in this pool.
    OutOfRange,
}

enum Job<T> {
    Work(T),
    Sync(u64),
}

struct GateState {
    /// Last epoch whose quiesce has been released.
    released: u64,
    /// Highest epoch a quiescer has requested.
    requested: u64,
    /// Workers currently parked at the barrier.
    parked: usize,
    /// Per-shard liveness: a dead worker (handler panic) can never park
    /// and will never run its queued items.
    dead: Vec<bool>,
    /// Per-shard work items submitted but not yet run to completion.
    /// Tracked per shard so a dead worker's stranded items cannot wedge
    /// `flush` — only *live* shards' counts gate it.
    in_flight: Vec<usize>,
    /// Per-shard high-water mark of `in_flight` — the ring-occupancy
    /// meter the rebalancer reads to spot a backed-up shard. Reset via
    /// [`WorkerPool::reset_ring_high_water`] to start a new observation
    /// window.
    ring_hwm: Vec<usize>,
    /// Threads inside [`WorkerPool::flush`]'s wait on `drained`.
    flushers: usize,
    /// Whether the quiescer is inside its wait on `arrived` (quiescers
    /// are serialised, so there is at most one).
    quiescer_waiting: bool,
    /// Notifies issued on `drained` / `arrived` — read by the
    /// wake-accounting tests.
    drained_wakes: u64,
    arrived_wakes: u64,
}

struct Gate {
    state: Mutex<GateState>,
    /// Workers wait here for the epoch release.
    resume: Condvar,
    /// The quiescer waits here for workers to park.
    arrived: Condvar,
    /// `flush` waits here for live shards to drain.
    drained: Condvar,
}

impl Gate {
    fn new(workers: usize) -> Self {
        Self {
            state: Mutex::new(GateState {
                released: 0,
                requested: 0,
                parked: 0,
                dead: vec![false; workers],
                in_flight: vec![0; workers],
                ring_hwm: vec![0; workers],
                flushers: 0,
                quiescer_waiting: false,
                drained_wakes: 0,
                arrived_wakes: 0,
            }),
            resume: Condvar::new(),
            arrived: Condvar::new(),
            drained: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Reserves one in-flight slot on `shard`. Returns `false` —
    /// reserving nothing — when the worker is already marked dead: a
    /// dead worker's ring never drains, so enqueuing would at best
    /// strand the item invisibly and at worst block the producer on a
    /// full ring no consumer will ever relieve.
    fn submit_one(&self, shard: usize) -> bool {
        let mut st = self.lock();
        if st.dead[shard] {
            return false;
        }
        st.in_flight[shard] += 1;
        if st.in_flight[shard] > st.ring_hwm[shard] {
            st.ring_hwm[shard] = st.in_flight[shard];
        }
        true
    }

    fn retire(&self, shard: usize, items: usize) {
        let mut st = self.lock();
        // Saturating: a respawn zeroes a shard's in-flight count while a
        // producer that lost the death race may still deliver (and thus
        // retire) one late item on the fresh ring — that retirement must
        // not underflow the new window's count.
        st.in_flight[shard] = st.in_flight[shard].saturating_sub(items);
        let wake = st.in_flight[shard] == 0 && st.flush_wake_due();
        drop(st);
        if wake {
            self.drained.notify_all();
        }
    }

    fn park(&self, target: u64) {
        let mut st = self.lock();
        st.parked += 1;
        if st.quiesce_wake_due() {
            drop(st);
            self.arrived.notify_all();
            st = self.lock();
        }
        while st.released < target {
            st = self.resume.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn mark_dead(&self, shard: usize) {
        let mut st = self.lock();
        st.dead[shard] = true;
        let (quiescer, flushers) = (st.quiesce_wake_due(), st.flush_wake_due());
        drop(st);
        if quiescer {
            self.arrived.notify_all();
        }
        if flushers {
            self.drained.notify_all();
        }
    }
}

impl GateState {
    /// True — and counted — when a `flush` caller is parked on
    /// `drained`: a `Condvar` notify is a futex syscall whether or not
    /// anyone waits, and a shard's count reaches zero on nearly every
    /// item of a lightly loaded pool. The caller notifies *after* it
    /// releases the state lock (see "What costs a syscall" above).
    fn flush_wake_due(&mut self) -> bool {
        let due = self.flushers > 0;
        self.drained_wakes += u64::from(due);
        due
    }

    /// Likewise for the quiescer parked on `arrived`.
    fn quiesce_wake_due(&mut self) -> bool {
        let due = self.quiescer_waiting;
        self.arrived_wakes += u64::from(due);
        due
    }

    /// Items still owed to shards `first..` by those that can actually
    /// deliver them.
    fn live_in_flight(&self, first: usize) -> usize {
        self.in_flight[first..]
            .iter()
            .zip(&self.dead[first..])
            .filter(|(_, dead)| !**dead)
            .map(|(n, _)| *n)
            .sum()
    }
}

/// Decrements the shard's `in_flight` even if the handler panics, so
/// `flush` cannot wedge on a poisoned item.
struct Retire<'a>(&'a Gate, usize);

impl Drop for Retire<'_> {
    fn drop(&mut self) {
        self.0.retire(self.1, 1);
    }
}

/// Marks the worker dead on thread exit (normal shutdown or panic) so a
/// pending quiesce is not left waiting for it and its stranded queue
/// items stop gating `flush`.
struct WorkerExit<'a>(&'a Gate, usize);

impl Drop for WorkerExit<'_> {
    fn drop(&mut self) {
        self.0.mark_dead(self.1);
    }
}

/// A pool of run-to-completion shards: worker threads with one SPSC
/// ring each, or caller slots whose queues run on the thread that
/// waits (see "Two kinds of shard slot, one executor" in the module
/// docs).
///
/// Generic over the work item `T` — the dataplane uses
/// `netkit_packet::batch::PacketBatch`, but the runtime itself is
/// payload-agnostic.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
/// use netkit_kernel::shard::{ShardSpec, WorkerPool};
///
/// let seen = Arc::new(AtomicU64::new(0));
/// let pool = WorkerPool::start(ShardSpec::new(2), |_shard| {
///     let seen = Arc::clone(&seen);
///     Box::new(move |n: u64| {
///         seen.fetch_add(n, Ordering::Relaxed);
///     })
/// });
/// pool.submit(0, 3).unwrap();
/// pool.submit(1, 4).unwrap();
/// pool.flush();
/// assert_eq!(seen.load(Ordering::Relaxed), 7);
/// pool.shutdown();
/// ```
pub struct WorkerPool<T: Send + 'static> {
    /// One slot per shard; its kind never changes, what it holds is
    /// replaced on respawn.
    slots: Vec<Slot<T>>,
    handles: parking_lot::Mutex<Vec<Option<JoinHandle<()>>>>,
    gate: Arc<Gate>,
    /// Serialises concurrent quiescers — and respawns, which must not
    /// interleave with an epoch barrier (a fresh worker never saw the
    /// in-flight sync marker and could wedge the quiescer).
    quiesce_serial: Mutex<()>,
    spec: ShardSpec,
    completed: Arc<Vec<AtomicU64>>,
    rejected: AtomicU64,
    respawned: AtomicU64,
}

enum Slot<T> {
    /// A worker thread's ring. The pool keeps **both** endpoints: the
    /// sender feeds the worker, and the receiver clone is what lets
    /// [`WorkerPool::respawn`] drain a dead worker's stranded items
    /// (the dead thread's own receiver died with it). Rings are swapped
    /// wholesale on respawn, hence the lock; the fast path only ever
    /// takes it shared.
    Ring(RwLock<Ring<T>>),
    /// A ring with no thread.
    Caller(Caller<T>),
}

/// A caller slot. Lock order: the pipeline's steering lock, then
/// `handler`, then `queue`; a drainer holds `handler` across the whole
/// drain, so a popped job has run before anyone else can take it.
struct Caller<T> {
    /// The shard's handler; `None` once it panicked, as a dead
    /// worker's handler went with its thread.
    handler: parking_lot::Mutex<Option<ShardHandler<T>>>,
    /// Jobs submitted and not yet run, bounded by `ring_capacity`.
    queue: parking_lot::Mutex<VecDeque<T>>,
}

struct Ring<T> {
    tx: Sender<Job<T>>,
    rx: Receiver<Job<T>>,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Sets up `spec.caller_shards` caller slots and spawns a worker
    /// thread for each shard after them. `factory(shard)` is called once
    /// per shard, in shard order, on the calling thread; the handler it
    /// returns moves onto that shard's thread (or into its slot) and
    /// owns the shard's state for the pool's lifetime.
    ///
    /// A hand-rolled spec with `workers == 0` (bypassing
    /// [`ShardSpec::new`]'s clamp) is normalised to one worker here, so
    /// "no sharding" and "one shard" are the same pool everywhere —
    /// mirroring `shard_of(_, 0)`, `BucketMap::identity(0)`, and the
    /// NIC's queue-count clamp.
    pub fn start<F>(spec: ShardSpec, mut factory: F) -> Self
    where
        F: FnMut(usize) -> ShardHandler<T>,
    {
        let workers = spec.workers.max(1);
        let spec = ShardSpec {
            workers,
            ring_capacity: spec.ring_capacity.max(1),
            caller_shards: spec.caller_shards.min(workers),
        };
        let gate = Arc::new(Gate::new(spec.workers));
        let completed = Arc::new(
            (0..spec.workers)
                .map(|_| AtomicU64::new(0))
                .collect::<Vec<_>>(),
        );
        let mut slots = Vec::with_capacity(spec.workers);
        let mut handles = Vec::with_capacity(spec.workers);
        for shard in 0..spec.workers {
            let handler = factory(shard);
            if shard < spec.caller_shards {
                handles.push(None);
                slots.push(Slot::Caller(Caller {
                    handler: parking_lot::Mutex::new(Some(handler)),
                    queue: parking_lot::Mutex::new(VecDeque::new()),
                }));
                continue;
            }
            let (tx, rx) = bounded::<Job<T>>(spec.ring_capacity);
            handles.push(Some(Self::spawn_worker(
                shard,
                handler,
                rx.clone(),
                Arc::clone(&gate),
                Arc::clone(&completed),
            )));
            slots.push(Slot::Ring(RwLock::new(Ring { tx, rx })));
        }
        Self {
            slots,
            handles: parking_lot::Mutex::new(handles),
            gate,
            quiesce_serial: Mutex::new(()),
            spec,
            completed,
            rejected: AtomicU64::new(0),
            respawned: AtomicU64::new(0),
        }
    }

    fn spawn_worker(
        shard: usize,
        mut handler: ShardHandler<T>,
        rx: Receiver<Job<T>>,
        gate: Arc<Gate>,
        completed: Arc<Vec<AtomicU64>>,
    ) -> JoinHandle<()> {
        std::thread::Builder::new()
            .name(format!("netkit-shard-{shard}"))
            .spawn(move || {
                let _exit = WorkerExit(&gate, shard);
                while let Ok(job) = rx.recv() {
                    match job {
                        Job::Work(item) => {
                            let _retire = Retire(&gate, shard);
                            handler(item);
                            completed[shard].fetch_add(1, Ordering::Relaxed);
                        }
                        Job::Sync(target) => gate.park(target),
                    }
                }
            })
            .expect("spawn worker thread")
    }

    /// Number of shards.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// The configuring spec.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Runs the jobs queued on a caller slot when the drain starts, on
    /// this thread, oldest first. `handler` is the slot's handler lock,
    /// held by the caller across the drain; jobs queued meanwhile wait
    /// for the next drain, so concurrent submitters cannot keep one
    /// going. A panic is caught here and kills the shard as a worker
    /// thread's exit would: the panicking job is consumed and what is
    /// still queued stays for [`Self::respawn`].
    fn drain(&self, shard: usize, caller: &Caller<T>, handler: &mut Option<ShardHandler<T>>) {
        let Some(run) = handler.as_mut() else {
            return; // dead: the queue waits for respawn
        };
        let queued = caller.queue.lock().len();
        let (mut ran, mut died) = (0, false);
        while ran < queued {
            let Some(item) = caller.queue.lock().pop_front() else {
                break;
            };
            ran += 1;
            if catch_unwind(AssertUnwindSafe(|| run(item))).is_err() {
                died = true;
                break;
            }
        }
        if ran == 0 {
            return;
        }
        self.completed[shard].fetch_add((ran - usize::from(died)) as u64, Ordering::Relaxed);
        self.gate.retire(shard, ran);
        if died {
            *handler = None;
            self.gate.mark_dead(shard);
        }
    }

    /// Drains every caller slot, in shard order.
    fn drain_callers(&self) {
        for (shard, caller) in self.callers() {
            self.drain(shard, caller, &mut caller.handler.lock());
        }
    }

    fn callers(&self) -> impl Iterator<Item = (usize, &Caller<T>)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(shard, slot)| match slot {
                Slot::Caller(caller) => Some((shard, caller)),
                Slot::Ring(_) => None,
            })
    }

    /// Queues `item` on a caller slot. A full queue is drained on this
    /// thread to make room — the caller slot's backpressure. Returns the
    /// item if the shard is dead and the queue full.
    fn push_caller(&self, shard: usize, caller: &Caller<T>, mut item: T) -> Result<(), T> {
        loop {
            item = match self.try_push(caller, item) {
                Ok(()) => return Ok(()),
                Err(item) => item,
            };
            let mut handler = caller.handler.lock();
            if handler.is_none() {
                return Err(item);
            }
            self.drain(shard, caller, &mut handler);
        }
    }

    /// Enqueues `item` on `shard`, blocking while its ring is full
    /// (backpressure); a full caller-slot queue is drained on this
    /// thread instead. A worker already marked dead fails fast — the
    /// item comes straight back rather than being stranded on a ring
    /// nothing will drain (or, worse, blocking this producer on a full
    /// ring no consumer will ever relieve).
    ///
    /// # Errors
    ///
    /// Returns the item if `shard` is out of range or the worker died.
    pub fn submit(&self, shard: usize, item: T) -> Result<(), T> {
        let Some(slot) = self.slots.get(shard) else {
            return Err(item);
        };
        if !self.gate.submit_one(shard) {
            return Err(item); // dead worker: fail fast, never block
        }
        self.send(shard, slot, item).inspect_err(|_| {
            self.gate.retire(shard, 1);
        })
    }

    /// Queues `item` on a caller slot unless its queue is full.
    fn try_push(&self, caller: &Caller<T>, item: T) -> Result<(), T> {
        let mut queue = caller.queue.lock();
        if queue.len() < self.spec.ring_capacity {
            queue.push_back(item);
            Ok(())
        } else {
            Err(item)
        }
    }

    /// Blocking publish of one job to either kind of slot.
    fn send(&self, shard: usize, slot: &Slot<T>, item: T) -> Result<(), T> {
        match slot {
            Slot::Ring(ring) => self.send_work(shard, &ring.read(), item),
            Slot::Caller(caller) => self.push_caller(shard, caller, item),
        }
    }

    /// Backpressure-aware ring write: retries a full ring until the
    /// item fits, yielding between attempts, but watches the dead bit
    /// so a producer never waits on a ring whose worker has died
    /// mid-wait (the pool holds a receiver clone for respawn, so
    /// channel disconnection can no longer signal worker death).
    ///
    /// Returns the item if the worker died before it could be queued.
    fn send_work(&self, shard: usize, ring: &Ring<T>, item: T) -> Result<(), T> {
        let mut msg = Job::Work(item);
        loop {
            match ring.tx.try_send(msg) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    let full = e.is_full();
                    let item = match e.into_inner() {
                        Job::Work(item) => item,
                        Job::Sync(_) => unreachable!("send_work only sends work"),
                    };
                    if !full || self.gate.lock().dead[shard] {
                        return Err(item);
                    }
                    msg = Job::Work(item);
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Enqueues `item` on `shard`'s ring without blocking; a full ring
    /// counts as a rejection (the multi-queue analogue of an rx-ring
    /// tail drop). A dead worker fails fast like [`Self::submit`],
    /// without counting toward [`Self::rejected`] — that meter is
    /// ring-pressure evidence, not a fault log.
    ///
    /// # Errors
    ///
    /// Returns the item when the ring is full, the shard is out of
    /// range, or the worker died.
    pub fn try_submit(&self, shard: usize, item: T) -> Result<(), T> {
        self.try_submit_tagged(shard, item)
            .map_err(|(item, _)| item)
    }

    /// [`Self::try_submit`] with the rejection *classified*: the caller
    /// learns whether a bounced item is backpressure evidence
    /// ([`SubmitRejection::RingFull`] — counted in [`Self::rejected`])
    /// or fault evidence ([`SubmitRejection::DeadWorker`] — not ring
    /// pressure, so not counted there). Cause-tagged drop accounting in
    /// the sharded router is built on this split.
    ///
    /// # Errors
    ///
    /// Returns the item and why it bounced.
    pub fn try_submit_tagged(&self, shard: usize, item: T) -> Result<(), (T, SubmitRejection)> {
        let Some(slot) = self.slots.get(shard) else {
            return Err((item, SubmitRejection::OutOfRange));
        };
        if !self.gate.submit_one(shard) {
            return Err((item, SubmitRejection::DeadWorker)); // fail fast
        }
        let sent = match slot {
            Slot::Ring(ring) => {
                ring.read()
                    .tx
                    .try_send(Job::Work(item))
                    .map_err(|e| match e.into_inner() {
                        Job::Work(item) => item,
                        Job::Sync(_) => unreachable!("try_submit only sends work"),
                    })
            }
            Slot::Caller(caller) => self.try_push(caller, item),
        };
        sent.map_err(|item| {
            self.gate.retire(shard, 1);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            (item, SubmitRejection::RingFull)
        })
    }

    /// Batched publish: enqueues one job on each shard yielded by
    /// `shards` with a **single gate transaction** reserving every
    /// live target's in-flight slot up front, then exactly one ring
    /// write per shard — the per-publish synchronisation the
    /// one-`submit`-per-sub-batch path pays N times collapses to one
    /// lock acquisition per dispatch, which is what makes the shared
    /// fan-out's producer cost independent of worker count.
    ///
    /// `shards` is iterated twice (reserve, then publish) and must
    /// yield strictly in-range indices without duplicates.
    /// `job_for(shard)` produces each ring's job — typically a cheap
    /// refcount bump (`ShardJob::Range`); it is only invoked during
    /// the publish pass, outside the gate lock. Jobs that cannot be
    /// delivered — the worker was dead at reservation time, or died
    /// racing the publish — are handed to `on_reject(shard, job)` so
    /// the caller can account their payload. Returns the number of
    /// jobs enqueued.
    ///
    /// Blocking semantics match [`Self::submit`]: a full live ring
    /// backpressures the publish, and a full caller-slot queue is
    /// drained on this thread. Do **not** call inside a quiesce
    /// closure (parked workers cannot relieve a full ring, and the
    /// quiescer holds the caller slots); re-steering paths there use
    /// [`Self::try_submit`] per item. A caller slot's job only queues
    /// here: it runs when this thread (or another) next waits on the
    /// pool, so one dispatcher can publish many fan-outs to the workers
    /// before it runs its own share.
    ///
    /// # Panics
    ///
    /// Panics if any yielded shard index is out of range.
    pub fn submit_fanout<I, F, R>(&self, shards: I, mut job_for: F, mut on_reject: R) -> usize
    where
        I: Iterator<Item = usize> + Clone,
        F: FnMut(usize) -> T,
        R: FnMut(usize, T),
    {
        // Phase 1: one gate transaction covers the whole fan-out.
        // Dead shards reserve nothing; they are remembered (the Vec
        // stays unallocated in the no-fault common case) so phase 2
        // neither publishes to them nor mis-retires their slots.
        let mut dead_skipped: Vec<usize> = Vec::new();
        {
            let mut st = self.gate.lock();
            for shard in shards.clone() {
                assert!(shard < self.slots.len(), "fanout shard out of range");
                if st.dead[shard] {
                    dead_skipped.push(shard);
                    continue;
                }
                st.in_flight[shard] += 1;
                if st.in_flight[shard] > st.ring_hwm[shard] {
                    st.ring_hwm[shard] = st.in_flight[shard];
                }
            }
        }
        // Phase 2: one ring write per shard, no further gate traffic
        // on the success path.
        let mut sent = 0;
        for shard in shards {
            if dead_skipped.contains(&shard) {
                on_reject(shard, job_for(shard));
                continue;
            }
            match self.send(shard, &self.slots[shard], job_for(shard)) {
                Ok(()) => sent += 1,
                Err(item) => {
                    // Worker died between reservation and publish.
                    self.gate.retire(shard, 1);
                    on_reject(shard, item);
                }
            }
        }
        sent
    }

    /// Blocks until every item submitted to a *live* worker has run to
    /// completion. Items stranded on a dead worker's ring (its handler
    /// panicked) will never run and do not gate the flush. (A barrier
    /// over *work*, not an epoch: reconfiguration wants
    /// [`Self::quiesce`].)
    ///
    /// The caller slots' queues run here, on this thread and before
    /// the wait, so they overlap with the workers draining their rings.
    pub fn flush(&self) {
        self.drain_callers();
        let mut st = self.gate.lock();
        while st.live_in_flight(self.spec.caller_shards) > 0 {
            st.flushers += 1;
            st = self
                .gate
                .drained
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
            st.flushers -= 1;
        }
    }

    /// Runs `f` with every worker parked at a batch boundary — the
    /// epoch quiesce protocol (see the module docs). Returns `f`'s
    /// result. Items already in the rings are processed before the
    /// barrier; items submitted during `f` wait in the rings and flow
    /// afterwards, so reconfiguration never drops traffic.
    ///
    /// Caller slots are drained first, on this thread, and their
    /// handler locks are then held until `f` returns, so no caller-slot
    /// handler runs anywhere while `f` does; a job `f` submits to one
    /// queues for the next flush.
    pub fn quiesce<R>(&self, f: impl FnOnce() -> R) -> R {
        let _serial = self
            .quiesce_serial
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let target = {
            let mut st = self.gate.lock();
            st.requested += 1;
            st.requested
        };
        let _callers: Vec<_> = self
            .callers()
            .map(|(shard, caller)| {
                let mut handler = caller.handler.lock();
                self.drain(shard, caller, &mut handler);
                handler
            })
            .collect();
        for (shard, slot) in self.slots.iter().enumerate() {
            let Slot::Ring(ring) = slot else { continue };
            // A dead worker cannot park; `dead` accounting covers it.
            // A full live ring backpressures the marker (the worker is
            // draining), re-checking the dead bit between attempts so a
            // death mid-wait cannot wedge the quiescer.
            let ring = ring.read();
            let mut msg = Job::Sync(target);
            loop {
                if self.gate.lock().dead[shard] {
                    break;
                }
                match ring.tx.try_send(msg) {
                    Ok(()) => break,
                    Err(e) if e.is_full() => {
                        msg = e.into_inner();
                        std::thread::yield_now();
                    }
                    Err(_) => break,
                }
            }
        }
        {
            let mut st = self.gate.lock();
            while st.parked < self.live_rings(&st) {
                st.quiescer_waiting = true;
                st = self
                    .gate
                    .arrived
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
                st.quiescer_waiting = false;
            }
        }
        let out = f();
        {
            let mut st = self.gate.lock();
            st.parked = 0;
            st.released = target;
        }
        self.gate.resume.notify_all();
        out
    }

    /// Workers a quiesce waits for: every ring whose worker is alive.
    fn live_rings(&self, st: &GateState) -> usize {
        st.dead[self.spec.caller_shards..]
            .iter()
            .filter(|dead| !**dead)
            .count()
    }

    /// Completed quiesce epochs since the pool started.
    pub fn epoch(&self) -> u64 {
        self.gate.lock().released
    }

    /// Work items run to completion on `shard`, if it exists.
    pub fn completed(&self, shard: usize) -> Option<u64> {
        self.completed.get(shard).map(|c| c.load(Ordering::Relaxed))
    }

    /// Total work items run to completion across all shards.
    pub fn total_completed(&self) -> u64 {
        self.completed
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Items bounced by [`Self::try_submit`] because a ring was full.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Work items submitted to live workers but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.gate.lock().live_in_flight(0)
    }

    /// Work items submitted to `shard` but not yet completed, if it
    /// exists.
    pub fn in_flight_on(&self, shard: usize) -> Option<usize> {
        self.gate.lock().in_flight.get(shard).copied()
    }

    /// Whether `shard`'s worker can still accept work (`Some(false)`
    /// once its thread exited — handler panic or shutdown — or its
    /// caller-run handler panicked, and the dead-worker fast-fail in
    /// [`Self::submit`] / [`Self::try_submit`] has engaged). `None` for
    /// an out-of-range shard.
    pub fn worker_alive(&self, shard: usize) -> Option<bool> {
        self.gate.lock().dead.get(shard).map(|dead| !dead)
    }

    /// Replaces a **dead** worker (handler panic) with a fresh thread
    /// and a fresh ring — the crash-recovery half of the self-healing
    /// dataplane.
    ///
    /// The dead ring's stranded work items are drained and handed to
    /// `on_stranded` (oldest first) so the caller can account and
    /// recycle their payloads — counted, never leaked. Stale sync
    /// markers from quiesces that ran while the worker was dead are
    /// discarded (those epochs already accounted the shard as dead at
    /// the gate). `handler` is the replacement shard state, typically
    /// rebuilt by the same factory that produced the original.
    ///
    /// Serialises against [`Self::quiesce`]: a respawn never
    /// interleaves with an epoch barrier, so the fresh worker cannot
    /// miss a sync marker and wedge a quiescer. The fresh ring starts
    /// empty with zeroed occupancy meters; [`Self::completed`] keeps
    /// accumulating across the generation change. A producer that lost
    /// the death race may deliver one late item onto the fresh ring —
    /// it is processed normally (the in-flight meter saturates rather
    /// than double-counts). A dead caller slot hands over what is still
    /// queued the same way and takes `handler`.
    ///
    /// Returns the number of stranded work items recovered, or `None`
    /// if `shard` is out of range or its worker is still alive (only
    /// dead workers respawn).
    pub fn respawn(
        &self,
        shard: usize,
        handler: ShardHandler<T>,
        on_stranded: impl FnMut(T),
    ) -> Option<usize> {
        let slot = self.slots.get(shard)?;
        let _serial = self
            .quiesce_serial
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if !self.gate.lock().dead[shard] {
            return None;
        }
        let stranded = match slot {
            Slot::Ring(ring) => self.respawn_ring(shard, ring, handler, on_stranded),
            Slot::Caller(caller) => {
                let stranded = {
                    let mut slot = caller.handler.lock();
                    *slot = Some(handler);
                    std::mem::take(&mut *caller.queue.lock())
                };
                let n = stranded.len();
                stranded.into_iter().for_each(on_stranded);
                n
            }
        };
        {
            // Only now does the shard accept traffic again: fresh ring
            // or handler, zeroed occupancy window, dead bit cleared
            // last.
            let mut st = self.gate.lock();
            st.in_flight[shard] = 0;
            st.ring_hwm[shard] = 0;
            st.dead[shard] = false;
        }
        self.respawned.fetch_add(1, Ordering::Relaxed);
        Some(stranded)
    }

    /// [`Self::respawn`]'s ring half: reaps the dead thread, drains the
    /// stranded items, and starts a fresh worker on a fresh ring.
    fn respawn_ring(
        &self,
        shard: usize,
        ring: &RwLock<Ring<T>>,
        handler: ShardHandler<T>,
        mut on_stranded: impl FnMut(T),
    ) -> usize {
        // Reap the dead thread first: after the join, nobody but this
        // call touches the old ring's receiving side.
        if let Some(handle) = self.handles.lock()[shard].take() {
            let _ = handle.join();
        }
        let mut stranded = 0usize;
        let mut drain = |rx: &Receiver<Job<T>>| {
            while let Ok(job) = rx.try_recv() {
                if let Job::Work(item) = job {
                    stranded += 1;
                    on_stranded(item);
                }
            }
        };
        // Pass 1 (shared lock): frees ring space so any producer that
        // lost the death race and is still waiting on a full ring can
        // finish — or notice the dead bit — and release its hold.
        drain(&ring.read().rx);
        {
            // Pass 2 (exclusive): no producer holds the ring, so a
            // racer's late landing is caught before the swap.
            let mut ring = ring.write();
            drain(&ring.rx);
            let (tx, rx) = bounded::<Job<T>>(self.spec.ring_capacity);
            *ring = Ring { tx, rx };
        }
        let rx = ring.read().rx.clone();
        let handle = Self::spawn_worker(
            shard,
            handler,
            rx,
            Arc::clone(&self.gate),
            Arc::clone(&self.completed),
        );
        self.handles.lock()[shard] = Some(handle);
        stranded
    }

    /// Workers respawned ([`Self::respawn`]) over the pool's lifetime.
    pub fn respawned(&self) -> u64 {
        self.respawned.load(Ordering::Relaxed)
    }

    /// High-water mark of `shard`'s ring occupancy since the pool
    /// started (or since the last [`Self::reset_ring_high_water`]) —
    /// the load meter that distinguishes a backed-up shard from a busy
    /// one: a shard whose high-water mark rides its ring capacity is
    /// receiving work faster than it retires it.
    pub fn ring_high_water(&self, shard: usize) -> Option<usize> {
        self.gate.lock().ring_hwm.get(shard).copied()
    }

    /// Resets every shard's ring-occupancy high-water mark to its
    /// current occupancy, starting a fresh observation window.
    ///
    /// Bare reset discards the closing window's marks; a sampler that
    /// wants them must use [`Self::take_ring_high_water`] — reading
    /// `ring_high_water` first and resetting afterwards is a
    /// read-then-reset race: a peak recorded between the two calls is
    /// folded into the *old* window's (already sampled) mark and then
    /// erased, so the new window under-reports a ring that was
    /// provably nonempty. Callers closing windows at migration epochs
    /// should reset from inside the quiesce (as
    /// `ShardedPipeline::install_bucket_map` does), where no
    /// submission can interleave with the boundary.
    pub fn reset_ring_high_water(&self) {
        let _ = self.take_ring_high_water();
    }

    /// Atomically closes the ring-occupancy observation window: in one
    /// lock acquisition, returns every shard's high-water mark and
    /// resets it to the shard's *current* occupancy. Because the
    /// sample and the reset are indivisible, a peak recorded
    /// concurrently lands in exactly one window — either it is part of
    /// the returned marks, or (arriving after) it raises the new
    /// window's mark from the live occupancy floor; it can never be
    /// sampled into the old window and then zeroed out of the new one.
    pub fn take_ring_high_water(&self) -> Vec<usize> {
        let mut st = self.gate.lock();
        let mut window = Vec::with_capacity(st.ring_hwm.len());
        for shard in 0..st.ring_hwm.len() {
            window.push(st.ring_hwm[shard]);
            st.ring_hwm[shard] = st.in_flight[shard];
        }
        window
    }

    /// Drains outstanding work, stops every worker, and joins the
    /// threads.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        // Caller slots finish their queued work here. Dropping the
        // slots (sender and drain-receiver both) disconnects the rings;
        // workers finish queued work, then exit.
        self.drain_callers();
        self.slots.clear();
        for handle in self.handles.lock().drain(..).flatten() {
            let _ = handle.join();
        }
    }
}

impl<T: Send + 'static> Drop for WorkerPool<T> {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

impl<T: Send + 'static> fmt::Debug for WorkerPool<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WorkerPool({} workers, {} completed, epoch {})",
            self.slots.len(),
            self.total_completed(),
            self.epoch()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// `k = 0`: every shard on a worker thread of its own — the spec the
    /// ring-mechanics tests need.
    fn rings(workers: usize) -> ShardSpec {
        ShardSpec {
            caller_shards: 0,
            ..ShardSpec::new(workers)
        }
    }

    #[test]
    fn work_lands_on_the_submitted_shard() {
        let hits: Arc<Vec<AtomicU64>> = Arc::new((0..3).map(|_| AtomicU64::new(0)).collect());
        let pool = WorkerPool::start(ShardSpec::new(3), |shard| {
            let hits = Arc::clone(&hits);
            Box::new(move |n: u64| {
                hits[shard].fetch_add(n, Ordering::Relaxed);
            })
        });
        for i in 0..30u64 {
            pool.submit((i % 3) as usize, 1).unwrap();
        }
        pool.flush();
        for h in hits.iter() {
            assert_eq!(h.load(Ordering::Relaxed), 10);
        }
        assert_eq!(pool.total_completed(), 30);
        assert_eq!(pool.completed(0), Some(10));
        assert_eq!(pool.completed(9), None);
        pool.shutdown();
    }

    #[test]
    fn per_shard_order_is_fifo() {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let pool = WorkerPool::start(ShardSpec::new(1), |_| {
            let log = Arc::clone(&log);
            Box::new(move |n: u32| log.lock().push(n))
        });
        for n in 0..100u32 {
            pool.submit(0, n).unwrap();
        }
        pool.flush();
        assert_eq!(*log.lock(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_range_shard_returns_item() {
        let pool = WorkerPool::start(ShardSpec::new(2), |_| Box::new(|_: u8| {}));
        assert_eq!(pool.submit(2, 7), Err(7));
        assert_eq!(pool.try_submit(9, 8), Err(8));
    }

    #[test]
    fn try_submit_bounces_on_full_ring() {
        // A handler that blocks until released, wedging the ring.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let spec = rings(1).with_ring_capacity(1);
        let pool = WorkerPool::start(spec, |_| {
            let gate = Arc::clone(&gate);
            Box::new(move |_: u8| {
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            })
        });
        pool.submit(0, 1).unwrap(); // picked up by the worker, blocks
                                    // This send only completes once the worker has dequeued item 1
                                    // (ring capacity is 1), so afterwards the ring holds exactly
                                    // item 2 while the worker is wedged inside item 1.
        pool.submit(0, 2).unwrap();
        let bounced = pool.try_submit(0, 3);
        assert_eq!(bounced, Err(3));
        assert_eq!(pool.rejected(), 1);
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        pool.flush();
        assert_eq!(pool.total_completed(), 2);
    }

    #[test]
    fn quiesce_runs_with_all_workers_parked() {
        // Each worker copies the shared config into its local view at
        // item time; quiesce swaps the config and must never be
        // observed torn.
        let config = Arc::new(AtomicU64::new(1));
        let torn = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::start(ShardSpec::new(4), |_| {
            let config = Arc::clone(&config);
            let torn = Arc::clone(&torn);
            Box::new(move |_: u8| {
                let a = config.load(Ordering::SeqCst);
                std::thread::yield_now();
                let b = config.load(Ordering::SeqCst);
                if a != b {
                    torn.fetch_add(1, Ordering::SeqCst);
                }
            })
        });
        for round in 0..20u64 {
            for shard in 0..4 {
                pool.submit(shard, 0).unwrap();
            }
            if round % 5 == 4 {
                pool.quiesce(|| {
                    // With every worker parked, a multi-step update is
                    // atomic from the dataplane's perspective.
                    config.store(round * 2, Ordering::SeqCst);
                    std::thread::yield_now();
                    config.store(round * 2 + 1, Ordering::SeqCst);
                });
            }
        }
        pool.flush();
        assert_eq!(torn.load(Ordering::SeqCst), 0, "no torn reconfiguration");
        assert_eq!(pool.epoch(), 4);
        assert_eq!(pool.total_completed(), 80);
        pool.shutdown();
    }

    #[test]
    fn quiesce_preserves_queued_traffic() {
        let done = Arc::new(AtomicU64::new(0));
        let pool = WorkerPool::start(ShardSpec::new(2), |_| {
            let done = Arc::clone(&done);
            Box::new(move |_: u8| {
                done.fetch_add(1, Ordering::Relaxed);
            })
        });
        for shard in 0..2 {
            for _ in 0..10 {
                pool.submit(shard, 0).unwrap();
            }
        }
        pool.quiesce(|| {
            // Items submitted mid-quiesce queue behind the barrier.
            pool.submit(0, 0).unwrap();
            pool.submit(1, 0).unwrap();
        });
        pool.flush();
        assert_eq!(done.load(Ordering::Relaxed), 22, "nothing dropped");
    }

    #[test]
    fn panicking_handler_does_not_wedge_the_pool() {
        for spec in [rings(2), ShardSpec::new(2)] {
            let pool = WorkerPool::start(spec, |shard| {
                Box::new(move |n: u8| {
                    if shard == 0 && n == 1 {
                        panic!("injected fault");
                    }
                })
            });
            pool.submit(0, 1).unwrap(); // kills shard 0
                                        // An item queued *behind* the fault is stranded on the dead
                                        // shard's queue; it must not gate flush (regression: this
                                        // previously deadlocked flush forever).
            let _ = pool.submit(0, 2);
            pool.submit(1, 0).unwrap();
            pool.flush();
            // Quiesce still completes: the dead worker is accounted for.
            pool.quiesce(|| {});
            assert_eq!(pool.completed(1), Some(1));
            pool.shutdown();
        }
    }

    #[test]
    fn ring_high_water_tracks_occupancy_windows() {
        // A handler that blocks until released, so submissions pile up.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let spec = ShardSpec::new(2).with_ring_capacity(8);
        let pool = WorkerPool::start(spec, |_| {
            let gate = Arc::clone(&gate);
            Box::new(move |_: u8| {
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            })
        });
        for _ in 0..4 {
            pool.submit(0, 0).unwrap();
        }
        assert_eq!(pool.ring_high_water(0), Some(4));
        assert_eq!(pool.ring_high_water(1), Some(0), "idle shard stays flat");
        assert_eq!(pool.ring_high_water(9), None);
        assert_eq!(pool.in_flight_on(0), Some(4));
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        pool.flush();
        // New window: the mark restarts from current occupancy (0).
        pool.reset_ring_high_water();
        assert_eq!(pool.ring_high_water(0), Some(0));
        pool.submit(1, 0).unwrap();
        pool.flush();
        assert_eq!(pool.ring_high_water(1), Some(1));
        pool.shutdown();
    }

    #[test]
    fn window_close_is_atomic_with_the_sample() {
        // Regression for the reset-vs-enqueue race: closing an
        // observation window by *reading* ring_high_water and then
        // *separately* resetting it erases any peak recorded between
        // the two calls — the next window reports high-water 0 for a
        // ring that was demonstrably nonempty. take_ring_high_water
        // closes the window in one indivisible step.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let pool = {
            let gate = Arc::clone(&gate);
            WorkerPool::start(ShardSpec::new(1).with_ring_capacity(16), move |_| {
                let gate = Arc::clone(&gate);
                Box::new(move |_: u8| {
                    let (lock, cv) = &*gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                })
            })
        };
        // Runs a burst that peaks at `n` in-flight items, then drains.
        let burst = |n: usize| {
            *gate.0.lock().unwrap() = false;
            for _ in 0..n {
                pool.submit(0, 0).unwrap();
            }
            assert_eq!(pool.in_flight_on(0), Some(n));
            {
                let (lock, cv) = &*gate;
                *lock.lock().unwrap() = true;
                cv.notify_all();
            }
            pool.flush();
        };

        // --- the racy two-step close loses evidence -----------------
        burst(3);
        let sampled = pool.ring_high_water(0).unwrap();
        assert_eq!(sampled, 3);
        // A burst lands and fully retires between the sample and the
        // reset (its peak of 2 cannot raise the mark past 3)...
        burst(2);
        pool.reset_ring_high_water();
        // ...so the new window starts blind: occupancy 2 is gone.
        assert_eq!(pool.ring_high_water(0), Some(0), "peak of 2 was erased");

        // --- the atomic close cannot ---------------------------------
        burst(3);
        let window = pool.take_ring_high_water();
        assert_eq!(window, vec![3], "closed window keeps its marks");
        // The same schedule now lands wholly inside the new window.
        burst(2);
        assert_eq!(pool.ring_high_water(0), Some(2), "peak survives");
        assert_eq!(pool.take_ring_high_water(), vec![2]);
        pool.shutdown();
    }

    #[test]
    fn submit_fanout_reaches_every_listed_shard_once() {
        let hits: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());
        let pool = WorkerPool::start(ShardSpec::new(4), |shard| {
            let hits = Arc::clone(&hits);
            Box::new(move |n: u64| {
                hits[shard].fetch_add(n, Ordering::Relaxed);
            })
        });
        // Fan out to shards {0, 2, 3}, skipping 1.
        let sent = pool.submit_fanout(
            (0..4).filter(|&s| s != 1),
            |shard| shard as u64 + 10,
            |_, _| panic!("no rejection expected"),
        );
        assert_eq!(sent, 3);
        pool.flush();
        let seen: Vec<u64> = hits.iter().map(|h| h.load(Ordering::Relaxed)).collect();
        assert_eq!(seen, [10, 0, 12, 13]);
        // The fan-out's single reservation still feeds the meters.
        assert!(pool.ring_high_water(0).unwrap() >= 1);
        assert_eq!(pool.completed(0), Some(1));
        pool.shutdown();
    }

    #[test]
    fn submit_fanout_preserves_per_ring_fifo_against_submits() {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let pool = WorkerPool::start(ShardSpec::new(2), |_| {
            let log = Arc::clone(&log);
            Box::new(move |n: u32| log.lock().push(n))
        });
        for round in 0..50u32 {
            pool.submit(0, round * 3).unwrap();
            pool.submit_fanout(0..1, |_| round * 3 + 1, |_, _| {});
            pool.submit(0, round * 3 + 2).unwrap();
        }
        pool.flush();
        assert_eq!(*log.lock(), (0..150).collect::<Vec<_>>());
        pool.shutdown();
    }

    /// Waits until `shard` is marked dead. A worker thread dies
    /// asynchronously; a caller slot has died by the time the flush
    /// that ran the fatal job returns, so there is nothing to wait for.
    fn await_death<T: Send + 'static>(pool: &WorkerPool<T>, shard: usize) {
        if shard < pool.spec().caller_shards {
            assert_eq!(pool.worker_alive(shard), Some(false), "died in the flush");
        }
        while pool.worker_alive(shard) == Some(true) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn fanout_rejects_jobs_for_dead_shards_without_wedging() {
        for spec in [rings(2), ShardSpec::new(2), ShardSpec::inline(2)] {
            let pool = WorkerPool::start(spec, |shard| {
                Box::new(move |n: u8| {
                    if shard == 0 && n == 1 {
                        panic!("injected fault");
                    }
                })
            });
            pool.submit(0, 1).unwrap(); // kills worker 0
            pool.flush();
            // Wait until the gate has registered the death so the
            // fan-out deterministically takes the dead-skip path.
            await_death(&pool, 0);
            let rejected = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let sent = pool.submit_fanout(
                0..2,
                |_| 0u8,
                |shard, item| rejected.lock().push((shard, item)),
            );
            assert_eq!(sent, 1, "live shard still served");
            assert_eq!(*rejected.lock(), vec![(0, 0u8)]);
            pool.flush();
            pool.quiesce(|| {}); // dead worker accounted at the gate
            pool.shutdown();
        }
    }

    #[test]
    fn submit_to_a_dead_worker_fails_fast_even_with_a_full_ring() {
        // Regression: a producer blocked in submit() on a full ring
        // whose worker has died must get its item back instead of
        // spinning until the ring disconnects. With the dead-flag
        // check the item never enqueues at all once death is marked.
        for spec in [rings(1), ShardSpec::new(1)] {
            let pool = WorkerPool::start(spec.with_ring_capacity(1), |_| {
                Box::new(move |n: u8| {
                    if n == 1 {
                        panic!("injected fault");
                    }
                })
            });
            pool.submit(0, 1).unwrap(); // the shard runs it and dies
            pool.flush();
            await_death(&pool, 0);
            // Marked dead: both flavours bounce immediately, item intact,
            // and nothing is stranded in accounting (flush returns).
            assert_eq!(pool.submit(0, 2), Err(2));
            assert_eq!(pool.try_submit(0, 3), Err(3));
            assert_eq!(pool.rejected(), 0, "a fault is not ring pressure");
            pool.flush();
            assert_eq!(pool.in_flight(), 0);
            pool.shutdown();
        }
    }

    #[test]
    fn respawn_revives_a_dead_worker_and_recovers_stranded_items() {
        // Handler: 254 parks until the gate opens (so items can queue
        // behind it deterministically), 255 is poison, anything else
        // is counted work.
        let make_handler =
            |open: &Arc<(Mutex<bool>, Condvar)>, done: &Arc<AtomicU64>| -> ShardHandler<u8> {
                let open = Arc::clone(open);
                let done = Arc::clone(done);
                Box::new(move |n: u8| match n {
                    254 => {
                        let (lock, cv) = &*open;
                        let mut o = lock.lock().unwrap();
                        while !*o {
                            o = cv.wait(o).unwrap();
                        }
                    }
                    255 => panic!("injected fault"),
                    _ => {
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                })
            };
        for spec in [rings(2), ShardSpec::new(2), ShardSpec::inline(2)] {
            let open = Arc::new((Mutex::new(false), Condvar::new()));
            let done = Arc::new(AtomicU64::new(0));
            let pool = WorkerPool::start(spec, |_| make_handler(&open, &done));
            pool.submit(0, 254).unwrap(); // a worker parks on this item
            pool.submit(0, 255).unwrap(); // poison, queued behind it
            pool.submit(0, 1).unwrap(); // will be stranded
            pool.submit(0, 2).unwrap(); // will be stranded
            {
                let (lock, cv) = &*open;
                *lock.lock().unwrap() = true;
                cv.notify_all();
            }
            pool.flush(); // a caller slot runs 254 and the poison here
            await_death(&pool, 0);
            let queued = vec![1u8, 2];

            // A live worker does not respawn; neither does a ghost shard.
            assert!(pool
                .respawn(1, make_handler(&open, &done), |_| {})
                .is_none());
            assert!(pool
                .respawn(9, make_handler(&open, &done), |_| {})
                .is_none());

            let mut stranded = Vec::new();
            let recovered = pool.respawn(0, make_handler(&open, &done), |item| stranded.push(item));
            assert_eq!(recovered, Some(queued.len()));
            assert_eq!(stranded, queued, "oldest first, nothing leaked");
            assert_eq!(pool.worker_alive(0), Some(true));
            assert_eq!(pool.respawned(), 1);
            assert_eq!(pool.in_flight_on(0), Some(0), "fresh ring starts empty");
            assert_eq!(pool.ring_high_water(0), Some(0));

            // The revived shard serves traffic and parks at epochs again.
            pool.submit(0, 3).unwrap();
            pool.flush();
            assert_eq!(done.load(Ordering::Relaxed), 1);
            pool.quiesce(|| {});
            assert_eq!(pool.epoch(), 1);
            // 254 completed before the fault; 3 completed after respawn.
            // (The poison item retired via the panic guard, uncounted.)
            assert_eq!(pool.completed(0), Some(2));
            pool.shutdown();
        }
    }

    #[test]
    fn try_submit_tagged_classifies_rejections() {
        // Shard 0's handler parks forever; shard capacity 1 makes the
        // ring trivially fillable.
        let open = Arc::new((Mutex::new(false), Condvar::new()));
        let pool = {
            let open = Arc::clone(&open);
            WorkerPool::start(rings(2).with_ring_capacity(1), move |shard| {
                let open = Arc::clone(&open);
                Box::new(move |n: u8| {
                    if shard == 0 {
                        let (lock, cv) = &*open;
                        let mut o = lock.lock().unwrap();
                        while !*o {
                            o = cv.wait(o).unwrap();
                        }
                    } else if n == 255 {
                        panic!("injected fault");
                    }
                })
            })
        };
        assert_eq!(
            pool.try_submit_tagged(7, 0).unwrap_err().1,
            SubmitRejection::OutOfRange
        );
        pool.submit(0, 0).unwrap(); // worker parks on it
        pool.submit(0, 1).unwrap(); // fills the 1-deep ring
        let (item, why) = pool.try_submit_tagged(0, 2).unwrap_err();
        assert_eq!((item, why), (2, SubmitRejection::RingFull));
        assert_eq!(pool.rejected(), 1, "ring pressure is counted");

        pool.submit(1, 255).unwrap(); // kills worker 1
        while pool.worker_alive(1) == Some(true) {
            std::thread::yield_now();
        }
        let (item, why) = pool.try_submit_tagged(1, 3).unwrap_err();
        assert_eq!((item, why), (3, SubmitRejection::DeadWorker));
        assert_eq!(pool.rejected(), 1, "a fault is not ring pressure");
        {
            let (lock, cv) = &*open;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        pool.flush();
        pool.shutdown();
    }

    /// What the wake-accounting tests' handlers block on until the test
    /// opens it, so a flusher or quiescer is parked for certain.
    type Latch = Arc<(Mutex<bool>, Condvar)>;

    fn await_open(latch: &Latch) {
        let (lock, cv) = &**latch;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
    }

    fn open(latch: &Latch) {
        let (lock, cv) = &**latch;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    /// One worker whose handler blocks on `latch`, then panics on 255.
    fn latched_pool(latch: &Latch) -> WorkerPool<u8> {
        let latch = Arc::clone(latch);
        WorkerPool::start(rings(1), move |_| {
            let latch = Arc::clone(&latch);
            Box::new(move |n: u8| {
                await_open(&latch);
                if n == 255 {
                    panic!("injected fault");
                }
            })
        })
    }

    fn spin_until(pool: &WorkerPool<u8>, cond: impl Fn(&GateState) -> bool) {
        while !cond(&pool.gate.lock()) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn retiring_with_nobody_parked_never_notifies() {
        let pool = WorkerPool::start(rings(2), |_| Box::new(|_: u8| {}));
        for n in 0..1000usize {
            pool.submit(n % 2, 0).unwrap();
        }
        // Not `flush`: parking there is what earns a notify.
        while pool.total_completed() < 1000 {
            std::thread::yield_now();
        }
        pool.flush(); // nothing in flight: returns without parking
        let st = pool.gate.lock();
        assert_eq!((st.drained_wakes, st.arrived_wakes), (0, 0));
    }

    #[test]
    fn a_parked_flush_is_woken_once_by_the_retire_that_drains_the_shard() {
        let latch = Latch::default();
        let pool = latched_pool(&latch);
        pool.submit(0, 0).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| pool.flush());
            spin_until(&pool, |st| st.flushers == 1);
            open(&latch);
        });
        let st = pool.gate.lock();
        assert_eq!((st.drained_wakes, st.flushers), (1, 0));
        assert_eq!(st.arrived_wakes, 0);
    }

    #[test]
    fn a_parked_quiesce_is_woken_once_by_the_worker_reaching_the_barrier() {
        let latch = Latch::default();
        let pool = latched_pool(&latch);
        pool.submit(0, 0).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| pool.quiesce(|| {}));
            spin_until(&pool, |st| st.quiescer_waiting);
            open(&latch);
        });
        let st = pool.gate.lock();
        assert_eq!((st.arrived_wakes, st.quiescer_waiting), (1, false));
        assert_eq!(st.drained_wakes, 0, "nobody was in flush");
    }

    #[test]
    fn a_dying_worker_releases_a_parked_flush_and_a_parked_quiesce() {
        let latch = Latch::default();
        let pool = latched_pool(&latch);
        pool.submit(0, 255).unwrap(); // poison, held at the latch
        pool.submit(0, 0).unwrap(); // stranded behind it: never retires
        std::thread::scope(|s| {
            s.spawn(|| pool.flush());
            s.spawn(|| pool.quiesce(|| {}));
            spin_until(&pool, |st| st.flushers == 1 && st.quiescer_waiting);
            open(&latch);
        });
        // The poison's retire leaves one item in flight and wakes
        // nobody; only the death can release either waiter.
        let st = pool.gate.lock();
        assert_eq!((st.drained_wakes, st.arrived_wakes), (1, 1));
        assert_eq!((st.flushers, st.quiescer_waiting), (0, false));
    }

    #[test]
    fn spec_clamps_and_builds() {
        let spec = ShardSpec::new(0).with_ring_capacity(0);
        assert_eq!(spec.workers, 1);
        assert_eq!(spec.ring_capacity, 1);
        assert_eq!(ShardSpec::default(), ShardSpec::single());
    }

    #[test]
    fn zero_worker_spec_runs_as_one_worker() {
        // A literal spec bypasses ShardSpec::new's clamp; the pool must
        // normalise it so 0 shards ≡ 1 shard.
        let raw = ShardSpec {
            workers: 0,
            ring_capacity: 0,
            caller_shards: 0,
        };
        let seen = Arc::new(AtomicU64::new(0));
        let pool = WorkerPool::start(raw, |_| {
            let seen = Arc::clone(&seen);
            Box::new(move |n: u64| {
                seen.fetch_add(n, Ordering::Relaxed);
            })
        });
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.spec().workers, 1);
        pool.submit(0, 5).unwrap();
        pool.flush();
        assert_eq!(seen.load(Ordering::Relaxed), 5);
        pool.shutdown();
    }

    /// A pool whose handlers log `(shard, item)` in run order.
    #[allow(clippy::type_complexity)]
    fn logging_pool(
        spec: ShardSpec,
    ) -> (WorkerPool<u32>, Arc<parking_lot::Mutex<Vec<(usize, u32)>>>) {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let pool = WorkerPool::start(spec, |shard| {
            let log = Arc::clone(&log);
            Box::new(move |n: u32| log.lock().push((shard, n)))
        });
        (pool, log)
    }

    #[test]
    fn inline_submit_runs_on_the_caller_in_call_order() {
        let (pool, log) = logging_pool(ShardSpec::inline(2));
        for n in 0..6u32 {
            pool.submit((n % 2) as usize, n).unwrap();
        }
        assert!(log.lock().is_empty(), "queued until somebody waits");
        pool.flush();
        assert_eq!(
            *log.lock(),
            vec![(0, 0), (0, 2), (0, 4), (1, 1), (1, 3), (1, 5)],
            "shard by shard, FIFO per shard"
        );
        assert_eq!(pool.submit(2, 9), Err(9), "unknown shard bounces");
        assert_eq!(
            pool.try_submit_tagged(2, 9),
            Err((9, SubmitRejection::OutOfRange))
        );
        pool.try_submit_tagged(1, 7).unwrap();
        pool.flush();
        assert_eq!(log.lock().last(), Some(&(1, 7)));
    }

    #[test]
    fn inline_fanout_visits_shards_in_index_order() {
        let (pool, log) = logging_pool(ShardSpec::inline(4));
        let sent = pool.submit_fanout(
            [0usize, 2, 3].into_iter(),
            |shard| shard as u32 * 10,
            |_, _| unreachable!("a live shard never rejects"),
        );
        assert_eq!(sent, 3, "returns the number of jobs queued");
        pool.flush();
        assert_eq!(*log.lock(), vec![(0, 0), (2, 20), (3, 30)]);
    }

    #[test]
    fn inline_quiesce_counts_epochs_and_meters_read_idle() {
        let (pool, log) = logging_pool(ShardSpec::inline(2));
        assert_eq!(pool.epoch(), 0);
        pool.submit(1, 0).unwrap();
        let seen = pool.quiesce(|| {
            pool.submit(0, 1).unwrap();
            log.lock().clone()
        });
        assert_eq!(seen, vec![(1, 0)], "drained first; the closure's job waits");
        assert_eq!(pool.in_flight_on(0), Some(1));
        pool.flush();
        assert_eq!(log.lock().last(), Some(&(0, 1)));
        pool.quiesce(|| {});
        assert_eq!(pool.epoch(), 2);
        pool.reset_ring_high_water();
        for shard in 0..2 {
            assert_eq!(pool.in_flight_on(shard), Some(0));
            assert_eq!(pool.ring_high_water(shard), Some(0));
            assert_eq!(pool.worker_alive(shard), Some(true));
        }
        assert_eq!(pool.worker_alive(2), None);
        assert_eq!(pool.ring_high_water(2), None);
        // A live shard does not respawn.
        assert_eq!(pool.respawn(0, Box::new(|_| {}), |_| {}), None);
        pool.submit(0, 2).unwrap();
        pool.flush();
        assert_eq!(log.lock().last(), Some(&(0, 2)), "the handler was kept");
        pool.shutdown();
    }

    #[test]
    fn a_full_caller_queue_bounces_try_submit_and_runs_for_submit() {
        let (pool, log) = logging_pool(ShardSpec::inline(1).with_ring_capacity(2));
        pool.submit(0, 1).unwrap();
        pool.submit(0, 2).unwrap();
        assert_eq!(
            pool.try_submit_tagged(0, 3),
            Err((3, SubmitRejection::RingFull))
        );
        assert_eq!(pool.rejected(), 1, "ring pressure is counted");
        assert!(log.lock().is_empty());
        // Full: the blocking submitter runs the queue to make room.
        pool.submit(0, 3).unwrap();
        assert_eq!(*log.lock(), vec![(0, 1), (0, 2)]);
        assert_eq!(pool.in_flight_on(0), Some(1));
        pool.shutdown(); // runs what is still queued
        assert_eq!(*log.lock(), vec![(0, 1), (0, 2), (0, 3)]);
    }

    #[test]
    fn a_caller_slot_runs_its_share_inside_flush_before_waiting_on_the_rings() {
        // k = 1: shard 0 on the caller, shard 1's worker latched shut.
        let latch = Latch::default();
        let ran = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let pool = WorkerPool::start(ShardSpec::new(2), |shard| {
            let (latch, ran) = (Arc::clone(&latch), Arc::clone(&ran));
            Box::new(move |_: u8| {
                if shard == 1 {
                    await_open(&latch);
                }
                ran.lock().push((shard, std::thread::current().id()));
            })
        });
        let sent = pool.submit_fanout(0..2, |_| 0, |_, _| unreachable!("both live"));
        let before_flush = ran.lock().clone();
        let (at_park, flusher) = std::thread::scope(|s| {
            let flusher = s.spawn(|| pool.flush());
            spin_until(&pool, |st| st.flushers == 1);
            let at_park = ran.lock().clone();
            // Opened before any assertion, so a failure cannot leave
            // shard 1 latched and the pool's drop joining it forever.
            open(&latch);
            (at_park, flusher.thread().id())
        });
        assert_eq!(sent, 2);
        assert!(before_flush.is_empty(), "shard 0's job waits for a flush");
        assert_eq!(
            at_park,
            vec![(0, flusher)],
            "run on the flusher, before it parked on shard 1"
        );
        assert_eq!(ran.lock().len(), 2);
        pool.shutdown();
    }
}
