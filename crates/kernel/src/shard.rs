//! Sharded run-to-completion worker-pool runtime.
//!
//! The paper's stratum 1 exists to put packet handling "as close to the
//! hardware as possible" — on the IXP1200 that means six parallel
//! microengines, each running its packet pipeline to completion. This
//! module is the host-side analogue: a [`WorkerPool`] of N **shards**,
//! each one replica of the processing logic (its handler) behind a lock
//! plus one bounded queue of work, fed by an RSS-style dispatcher that
//! keeps every flow on a single shard (see
//! `netkit_packet::flow::FlowKey::rss_hash`). Run-to-completion means
//! whoever holds a shard's handler lock finishes an entire work item
//! (typically a packet batch, through the whole element graph) before
//! taking the next — no hand-offs mid-item, no locks shared between
//! shards on the fast path.
//!
//! The pool is generic over its work item; the packet dataplane
//! instantiates it with [`ShardJob`], whose [`ShardJob::Range`] variant
//! carries a shard's slice of a *shared* split parent instead of an
//! owned sub-batch — see its docs for how the quiesce and per-flow
//! order invariants are preserved under the shared-parent lifecycle.
//! [`WorkerPool::submit_fanout`] is the matching batched publish: one
//! queue push per target shard.
//!
//! ## Shards and drainers
//!
//! A shard is a *task* in the resources meta-model's sense — a unit of
//! work orthogonal to the component architecture — and a **drainer** is
//! whatever thread runs it. Every thread drains a shard the same way: it
//! takes the shard's handler lock, runs the jobs queued when it started,
//! oldest first, and lets go. The lock admits one drainer at a time,
//! which is what keeps each shard FIFO, and so each flow in order,
//! whichever thread holds it.
//!
//! Shards `k..workers` ([`ShardSpec::caller_shards`] is `k`) each get a
//! *home drainer* at start: a thread that parks on its shard's queue
//! and, woken by a submit, drains it. Shards `0..k` have no home
//! drainer: [`WorkerPool::flush`] drains them on the calling thread
//! before it waits for the rest. So [`ShardSpec::new`] (`k = 1`) lets a
//! dispatcher publish a whole round and then, inside `flush`, run shard
//! 0's share in parallel with the drainer threads instead of parking;
//! [`ShardSpec::inline`] has no drainers at all, the deterministic
//! placement the simulator drives. Three other callers drain too: a
//! quiesce drains every queue before its closure runs, shutdown drains
//! what is left once the drainer threads have exited, and a blocking
//! submit that finds a queue full drains that shard to make room — the
//! one backpressure rule.
//!
//! Each shard keeps its own books under its queue lock, and nothing is
//! shared between shards: a push books its job in flight and in the
//! high-water mark in the critical section that queues it, and a drain
//! retires the jobs it ran, into [`WorkerPool::completed`], in one
//! critical section at the end of its pass. A full queue bounces
//! [`WorkerPool::try_submit`] as [`SubmitRejection::RingFull`]. A
//! handler runs under `catch_unwind`, so a panic kills its shard, not
//! the thread draining it: the handler is emptied and the retire books
//! the death, later submits bounce with [`SubmitRejection::DeadWorker`],
//! the jobs still queued are stranded, and the home drainer parks until
//! [`WorkerPool::respawn`] puts a handler back and hands the stranded
//! jobs to its `on_stranded`. No thread starts after
//! [`WorkerPool::start`], and none is joined before shutdown.
//!
//! Lock order: the pipeline's steering lock, then a shard's handler
//! lock, then its queue lock. A drainer holds the handler lock across
//! the whole drain, so a popped job has run before anyone else can
//! take the lock; the queue lock is only ever held for a few field
//! updates, never across a job.
//!
//! ## Quiesce: every handler lock at once
//!
//! Reflective reconfiguration (the architecture meta-model's
//! insert/remove/replace) must apply **atomically across all shards**:
//! a packet must never traverse shard 0's new graph while shard 1 still
//! runs the old one. [`WorkerPool::quiesce`] holds every shard's
//! handler lock while its closure runs; traffic submitted meanwhile
//! queues (bounded-queue backpressure) rather than drops. The pause is
//! the closure's run time plus the drains — the multi-core
//! generalisation of the paper's "brief interruption" during hot swap.
//!
//! ## Quiesce semantics, precisely
//!
//! What [`WorkerPool::quiesce`] guarantees (and what it does not), each
//! with the unit test that pins it:
//!
//! 1. **Happens-before, per shard.** Every job queued on a shard before
//!    the quiescer took its handler lock has run to completion before
//!    the closure starts: a drainer holding the lock finishes the jobs
//!    it took, and the quiescer runs the rest. Jobs submitted after (including
//!    from inside the closure) run only after release, in submission
//!    order (`a_quiesce_waits_for_a_drainer_mid_job_and_runs_the_rest`).
//! 2. **Exclusivity.** While the closure runs, the quiescer holds every
//!    handler lock: no handler code executes anywhere in the pool.
//!    Multi-step shared-state updates inside the closure are
//!    indivisible from the dataplane's point of view. A job the closure
//!    submits queues; a home drainer runs it once the locks go, a shard
//!    without one at the next flush
//!    (`quiesce_runs_with_all_workers_parked`).
//! 3. **No loss.** Nothing queued is discarded, and the quiesce
//!    reorders nothing within a shard (queues are FIFO throughout)
//!    (`quiesce_preserves_queued_traffic`).
//! 4. **Liveness under faults.** A dead shard (handler panic) holds an
//!    empty handler; a quiesce takes its lock, runs nothing, and never
//!    waits on it, and `flush` waits only on *live* shards
//!    (`panicking_handler_does_not_wedge_the_pool`).
//! 5. **What is NOT guaranteed:** ordering *between* shards. If a
//!    caller moves a traffic class from shard A to shard B (a steering
//!    migration), the caller must ensure A's items drained before B's
//!    start — which is exactly what running the re-steer inside the
//!    closure provides. The sharded router's
//!    `ShardedPipeline::install_bucket_map` composes this with a
//!    steering-table write lock to make bucket migrations loss-free
//!    and per-flow order-preserving (its `quiesce_swaps_entries_atomically`
//!    and `install_drains_and_resteers_nic_queues` tests); the bucket
//!    table itself is owned by the pipeline (this pool is
//!    payload-agnostic and holds no steering state — only per-shard
//!    load meters: [`WorkerPool::completed`],
//!    [`WorkerPool::in_flight_on`], [`WorkerPool::ring_high_water`]).
//!
//! ## What costs a syscall
//!
//! Parking, and waking a peer that is parked — nothing else. A home
//! drainer parks when its queue is empty or it is held off (a quiesce,
//! or a dead shard), `flush` on a shard with work in flight, and a
//! thread blocks on a handler lock another thread holds: a quiescer
//! behind a drainer's job, a full queue's submitter behind a drain. A
//! queue records both kinds of waiter under its own lock, and a
//! notifier that reads none there skips its `Condvar` notify — on Linux
//! an unconditional `FUTEX_WAKE`. The first push to a parked drainer
//! clears the mark as it notifies, so a burst that lands before the
//! drainer runs costs one wake. So `submit` to a busy drainer, a drain
//! pass's retire with nobody in `flush`, and every pop are an
//! uncontended critical section and no more; `submit` to an idle
//! drainer pays one wake, which is the hand-off itself. A shard with no
//! home drainer costs none: nobody parks on it. Every notify is issued
//! after the notifier has let go of the lock: a thread woken under it
//! can preempt the notifier, run into the lock and park a second time,
//! and whether it does is the scheduler's choice — cost that varies
//! from run to run. A flusher waits on one shard at a time, so it is
//! woken only by the retire that idles (or kills) the shard it waits
//! on (`a_flush_is_woken_only_by_the_shard_it_waits_on`).
//!
//! The quiesce-and-meters contract, runnable:
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
//! // Guarantee 1: work queued before the quiesce is complete when the
//! // closure runs; work submitted inside it flows only after release.
//! let seen_at_quiesce = pool.quiesce(|| {
//!     pool.submit(0, 10).unwrap();
//!     sum.load(Ordering::Relaxed)
//! });
//! assert_eq!(seen_at_quiesce, 3);
//! pool.flush();
//! assert_eq!(sum.load(Ordering::Relaxed), 13); // guarantee 3: no loss
//! assert_eq!(pool.epoch(), 1);
//! // Load meters: per-shard completions and queue pressure.
//! assert_eq!(pool.completed(0), Some(2));
//! assert_eq!(pool.in_flight_on(0), Some(0));
//! assert!(pool.ring_high_water(0).unwrap() >= 1);
//! pool.shutdown();
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use netkit_packet::batch::{PacketBatch, SharedShardRange};

/// Configuration of a sharded dataplane: how many run-to-completion
/// shards, how deep each shard's queue is (in work items), and how
/// many of them have no drainer thread of their own.
///
/// The sharded router pipeline takes its shape from it, whether
/// drainer threads run it or the simulator's `PipelineNode` does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of shards, each a handler and a bounded queue. Clamped to
    /// ≥ 1.
    pub workers: usize,
    /// Per-shard queue capacity, in work items; submission
    /// backpressures (blocking [`WorkerPool::submit`]) or fails
    /// ([`WorkerPool::try_submit`]) when it is full.
    pub ring_capacity: usize,
    /// `k`: shards `0..k` have no home drainer — their queued work runs
    /// on whichever thread next waits on the pool (see "Shards and
    /// drainers" in the module docs); shards `k..workers` each get a
    /// drainer thread. [`WorkerPool::start`] clamps it to `workers`. A
    /// spec with `k = 0`, a drainer thread for every shard, is a struct
    /// literal.
    pub caller_shards: usize,
}

impl ShardSpec {
    /// A spec with `workers` shards and default queue sizing: shard 0
    /// is drained by the dispatching thread, the rest by drainer
    /// threads, so one shard needs no thread at all.
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            ring_capacity: 1024,
            caller_shards: 1,
        }
    }

    /// A spec with `workers` shards and no drainer threads: every
    /// shard's queue is run by whichever thread waits on the pool,
    /// shard by shard in index order, so a run replays bit for bit.
    ///
    /// A pool with no drainers: submitted work runs when the submitter
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

    /// Sets the per-shard queue depth (builder-style).
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
/// shard by the factory passed to [`WorkerPool::start`], so each shard
/// owns its state outright (shared-nothing by construction).
pub type ShardHandler<T> = Box<dyn FnMut(T) + Send>;

/// The sharded dataplane's work item: what one slot of a shard's queue
/// names. The [`WorkerPool`] itself stays payload-agnostic — this is
/// the concrete `T` the packet dataplane instantiates it with.
///
/// Two shapes, two hand-off disciplines:
///
/// * [`ShardJob::Batch`] moves an owned batch onto the queue — the
///   multi-queue NIC path, where hardware (or `pump_nic`) already
///   steered the batch to exactly one shard and there is nothing to
///   share.
/// * [`ShardJob::Range`] publishes one shard's slice of a **shared**
///   split parent ([`SharedShardRange`], an `Arc`'d descriptor):
///   the software-dispatch fast path. No packet moves at publish time;
///   the shard's drainer gathers its slice on its own core
///   ([`SharedShardRange::take_into`]) and the parent container
///   recycles to its pool when the last shard's refcount drops.
///
/// ### Quiesce and per-flow order, for shared ranges
///
/// The quiesce guarantees carry over unchanged because a range is one
/// queued job like any other:
///
/// * **Happens-before** — the quiescer drains every queue before its
///   closure starts, so every range queued before the quiesce has been
///   consumed and its split parent dropped by its last range and
///   recycled: no shared parent is live across a quiesce.
/// * **Per-flow order** — a flow maps to one bucket, a bucket to one
///   shard, so all of a flow's packets ride ranges on one queue, in
///   dispatch order (queues are FIFO, and one drainer at a time holds
///   the handler). Sharing the parent adds no cross-shard path a flow
///   could race itself on.
/// * **Loss accounting** — a range that never reaches its handler
///   (queue full, shard dead) is dropped *as a descriptor*: its
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
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ShardJob::Batch(b) => b.len(),
            ShardJob::Range(r) => r.len(),
        }
    }

    /// True when the job carries no packets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<PacketBatch> for ShardJob {
    #[inline]
    fn from(batch: PacketBatch) -> Self {
        ShardJob::Batch(batch)
    }
}

impl From<SharedShardRange> for ShardJob {
    #[inline]
    fn from(range: SharedShardRange) -> Self {
        ShardJob::Range(range)
    }
}

/// Why a submission bounced — the classification
/// [`WorkerPool::try_submit_tagged`] reports so callers can tell
/// backpressure (queue pressure, shed load) from faults (a dead shard,
/// whose traffic is a recovery concern) from caller error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitRejection {
    /// The target shard's queue was full: backpressure evidence (tail
    /// drop).
    RingFull,
    /// The target shard is dead (handler panic): fault evidence.
    DeadWorker,
    /// The shard index does not exist in this pool.
    OutOfRange,
}

/// A shard's bounded queue and its books, with the park state of the
/// threads that wait on it.
struct Queue<T> {
    state: Mutex<QueueState<T>>,
    /// The home drainer waits here for work.
    ready: Condvar,
    /// `flush` waits here for the shard to go idle or die.
    idle: Condvar,
}

struct QueueState<T> {
    /// Jobs submitted and not yet taken by a drain, bounded by
    /// `ring_capacity`.
    jobs: VecDeque<T>,
    /// Jobs queued or taken by a running drain and not yet retired. A
    /// dead shard queues nothing, so its count is its stranded jobs.
    in_flight: usize,
    /// High-water mark of `in_flight` in the current observation window
    /// — the occupancy meter the rebalancer reads to spot a backed-up
    /// shard.
    high_water: usize,
    /// Jobs run to completion.
    completed: u64,
    /// The handler panicked: nothing queues until respawn.
    dead: bool,
    /// Threads inside [`WorkerPool::flush`]'s wait on `idle`.
    flushers: usize,
    /// The home drainer waits on `ready` and nobody has woken it yet.
    parked: bool,
    /// The home drainer must leave the handler alone: a quiescer holds
    /// it, or the shard is dead and waits for respawn.
    hold: bool,
    /// Shutdown: the home drainer exits.
    closed: bool,
    /// Notifies issued on `ready` and on `idle` — read by the
    /// wake-accounting tests.
    wakes: u64,
    idle_wakes: u64,
}

impl<T> Queue<T> {
    fn new() -> Self {
        Self {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                in_flight: 0,
                high_water: 0,
                completed: 0,
                dead: false,
                flushers: 0,
                parked: false,
                hold: false,
                closed: false,
                wakes: 0,
                idle_wakes: 0,
            }),
            ready: Condvar::new(),
            idle: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues `item` and books it in flight, unless the shard is dead
    /// or `capacity` jobs already wait; wakes the home drainer if it is
    /// parked and not held off.
    fn push(&self, item: T, capacity: usize) -> Result<(), (T, SubmitRejection)> {
        let mut q = self.lock();
        if q.dead {
            return Err((item, SubmitRejection::DeadWorker));
        }
        if q.jobs.len() >= capacity {
            return Err((item, SubmitRejection::RingFull));
        }
        q.jobs.push_back(item);
        q.in_flight += 1;
        q.high_water = q.high_water.max(q.in_flight);
        if !q.hold {
            self.wake(q);
        }
        Ok(())
    }

    /// Books a finished drain pass: `ran` jobs taken, the last of them
    /// fatal if `died`. Wakes the flushers parked on this shard once it
    /// is idle or dead.
    fn retire(&self, ran: usize, died: bool) {
        let mut q = self.lock();
        q.in_flight -= ran;
        q.completed += (ran - usize::from(died)) as u64;
        q.dead |= died;
        q.hold |= died;
        // A notify is a futex syscall whether or not anyone waits, and
        // a shard goes idle on nearly every pass of a lightly loaded
        // pool: skip it unless a flusher is parked here.
        let wake = q.flushers > 0 && (q.in_flight == 0 || q.dead);
        q.idle_wakes += u64::from(wake);
        drop(q);
        if wake {
            self.idle.notify_all();
        }
    }

    /// `flush`'s wait: parks until every job booked so far has retired,
    /// or the shard is dead.
    fn wait_idle(&self) {
        let mut q = self.lock();
        while q.in_flight > 0 && !q.dead {
            q.flushers += 1;
            q = self.idle.wait(q).unwrap_or_else(|e| e.into_inner());
            q.flushers -= 1;
        }
    }

    /// Lets a held-off home drainer take the handler again, waking it
    /// only for the jobs that queued meanwhile: an empty queue's next
    /// push wakes it anyway.
    fn resume(&self) {
        let mut q = self.lock();
        q.hold = false;
        if !q.jobs.is_empty() {
            self.wake(q);
        }
    }

    /// Shutdown: wakes the home drainer to exit.
    fn close(&self) {
        let mut q = self.lock();
        q.closed = true;
        self.wake(q);
    }

    /// The home drainer's wait: parks while the queue is empty or the
    /// drainer is held off. Returns `false` once the pool has closed.
    fn wait(&self) -> bool {
        let mut q = self.lock();
        while !q.closed && (q.jobs.is_empty() || q.hold) {
            q.parked = true;
            q = self.ready.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        q.parked = false;
        !q.closed
    }

    /// Wakes the home drainer if it is parked, after unlocking `q`. The
    /// wake clears `parked`, so a burst that lands before the drainer
    /// runs costs one notify.
    fn wake(&self, mut q: MutexGuard<'_, QueueState<T>>) {
        let wake = std::mem::take(&mut q.parked);
        q.wakes += u64::from(wake);
        drop(q);
        if wake {
            self.ready.notify_one();
        }
    }
}

/// One shard: a handler behind a lock, and a queue (lock order in the
/// module docs).
struct Shard<T> {
    /// The shard's handler; `None` once it panicked, until respawn.
    handler: parking_lot::Mutex<Option<ShardHandler<T>>>,
    queue: Queue<T>,
}

impl<T> Shard<T> {
    /// Runs the jobs queued when the drain starts, on this thread,
    /// oldest first. `handler` is the shard's handler lock, held by the
    /// caller across the drain; jobs queued meanwhile wait for the next
    /// drain, so concurrent submitters cannot keep one going. A panic is
    /// caught here and kills the shard, not this thread: the panicking
    /// job is consumed, what is still queued stays for
    /// [`WorkerPool::respawn`], and the home drainer is held off until
    /// then.
    fn drain(&self, handler: &mut Option<ShardHandler<T>>) {
        let Some(run) = handler.as_mut() else {
            return; // dead: the queue waits for respawn
        };
        let queued = self.queue.lock().jobs.len();
        let (mut ran, mut died) = (0, false);
        while ran < queued && !died {
            let Some(item) = self.queue.lock().jobs.pop_front() else {
                break;
            };
            ran += 1;
            died = catch_unwind(AssertUnwindSafe(|| run(item))).is_err();
        }
        if ran == 0 {
            return;
        }
        if died {
            *handler = None;
        }
        self.queue.retire(ran, died);
    }

    /// Takes the handler lock and drains.
    fn drain_now(&self) {
        self.drain(&mut self.handler.lock());
    }

    /// Queues `item`. A full queue is drained on this thread, under the
    /// handler lock, to make room — the one backpressure rule. Returns
    /// the item if the shard is dead.
    fn push(&self, mut item: T, capacity: usize) -> Result<(), T> {
        loop {
            match self.queue.push(item, capacity) {
                Err((back, SubmitRejection::RingFull)) => item = back,
                done => return done.map_err(|(item, _)| item),
            }
            self.drain_now();
        }
    }
}

/// A pool of run-to-completion shards, each a handler and a bounded
/// queue, drained by drainer threads or by the thread that waits (see
/// "Shards and drainers" in the module docs).
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
    shards: Arc<[Shard<T>]>,
    /// The home drainers of shards `caller_shards..`, joined at
    /// shutdown.
    drainers: Vec<JoinHandle<()>>,
    spec: ShardSpec,
    /// Completed quiesces.
    epoch: AtomicU64,
    rejected: AtomicU64,
    respawned: AtomicU64,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Builds one shard per `spec.workers` and starts a home drainer
    /// thread for each shard from `spec.caller_shards` on.
    /// `factory(shard)` is called once per shard, in shard order, on the
    /// calling thread; the handler it returns owns the shard's state for
    /// the pool's lifetime.
    ///
    /// A hand-rolled spec with `workers == 0` (bypassing
    /// [`ShardSpec::new`]'s clamp) is normalised to one shard here, so
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
        let shards: Arc<[Shard<T>]> = (0..workers)
            .map(|shard| Shard {
                handler: parking_lot::Mutex::new(Some(factory(shard))),
                queue: Queue::new(),
            })
            .collect();
        let drainers = (spec.caller_shards..workers)
            .map(|shard| {
                let shards = Arc::clone(&shards);
                std::thread::Builder::new()
                    .name(format!("netkit-shard-{shard}"))
                    .spawn(move || {
                        let home = &shards[shard];
                        while home.queue.wait() {
                            home.drain_now();
                        }
                    })
                    .expect("spawn drainer thread")
            })
            .collect();
        Self {
            shards,
            drainers,
            spec,
            epoch: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            respawned: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// The configuring spec.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Enqueues `item` on `shard`; a full queue is drained on this
    /// thread to make room (backpressure). A dead shard fails fast —
    /// the item comes straight back rather than being stranded on a
    /// queue nothing will drain.
    ///
    /// # Errors
    ///
    /// Returns the item if `shard` is out of range or dead.
    pub fn submit(&self, shard: usize, item: T) -> Result<(), T> {
        match self.shards.get(shard) {
            Some(home) => home.push(item, self.spec.ring_capacity),
            None => Err(item),
        }
    }

    /// Enqueues `item` on `shard`'s queue without blocking; a full
    /// queue counts as a rejection (the multi-queue analogue of an
    /// rx-ring tail drop). A dead shard fails fast like
    /// [`Self::submit`], without counting toward [`Self::rejected`] —
    /// that meter is queue-pressure evidence, not a fault log.
    ///
    /// # Errors
    ///
    /// Returns the item when the queue is full, the shard is out of
    /// range, or the shard is dead.
    pub fn try_submit(&self, shard: usize, item: T) -> Result<(), T> {
        self.try_submit_tagged(shard, item)
            .map_err(|(item, _)| item)
    }

    /// [`Self::try_submit`] with the rejection *classified*: the caller
    /// learns whether a bounced item is backpressure evidence
    /// ([`SubmitRejection::RingFull`] — counted in [`Self::rejected`])
    /// or fault evidence ([`SubmitRejection::DeadWorker`] — not queue
    /// pressure, so not counted there). Cause-tagged drop accounting in
    /// the sharded router is built on this split.
    ///
    /// # Errors
    ///
    /// Returns the item and why it bounced.
    pub fn try_submit_tagged(&self, shard: usize, item: T) -> Result<(), (T, SubmitRejection)> {
        let Some(home) = self.shards.get(shard) else {
            return Err((item, SubmitRejection::OutOfRange));
        };
        home.queue
            .push(item, self.spec.ring_capacity)
            .inspect_err(|(_, why)| {
                if *why == SubmitRejection::RingFull {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                }
            })
    }

    /// Batched publish: enqueues one job on each shard yielded by
    /// `shards`, one queue push per shard, each with [`Self::submit`]'s
    /// blocking semantics. `shards` must yield in-range indices without
    /// duplicates. `job_for(shard)` produces each shard's job —
    /// typically a cheap refcount bump (`ShardJob::Range`). A job for a
    /// dead shard is handed to `on_reject(shard, job)` so the caller
    /// can account its payload. Returns the number of jobs enqueued.
    ///
    /// Do **not** call inside a quiesce closure: the quiescer holds
    /// every handler lock, so draining a full queue would wait on
    /// itself; re-steering there uses [`Self::try_submit`]. A job for a
    /// shard with no home drainer only queues, so one dispatcher can
    /// publish many fan-outs before it runs its own share.
    ///
    /// # Panics
    ///
    /// Panics if any yielded shard index is out of range.
    pub fn submit_fanout<I, F, R>(&self, shards: I, mut job_for: F, mut on_reject: R) -> usize
    where
        I: Iterator<Item = usize>,
        F: FnMut(usize) -> T,
        R: FnMut(usize, T),
    {
        let mut sent = 0;
        for shard in shards {
            match self.shards[shard].push(job_for(shard), self.spec.ring_capacity) {
                Ok(()) => sent += 1,
                Err(job) => on_reject(shard, job),
            }
        }
        sent
    }

    /// Blocks until every item submitted to a *live* shard has run to
    /// completion. Items stranded on a dead shard (its handler
    /// panicked) will never run and do not hold the flush. (A barrier
    /// over *work*, not an epoch: reconfiguration wants
    /// [`Self::quiesce`].)
    ///
    /// The shards with no home drainer run here, on this thread and
    /// before the wait, so they overlap with the drainer threads; then
    /// the flush waits on each drained shard in turn until it is idle
    /// or dead.
    pub fn flush(&self) {
        let (caller, drained) = self.shards.split_at(self.spec.caller_shards);
        caller.iter().for_each(Shard::drain_now);
        drained.iter().for_each(|home| home.queue.wait_idle());
    }

    /// Runs `f` holding every shard's handler lock — the quiesce (see
    /// the module docs). Returns `f`'s result. Each shard's home
    /// drainer is held off, its lock taken (a drainer mid-job finishes
    /// the job first) and its queue drained on this thread, in shard
    /// order; jobs submitted during `f` queue and run once the locks
    /// go, so reconfiguration never drops traffic.
    pub fn quiesce<R>(&self, f: impl FnOnce() -> R) -> R {
        let held: Vec<_> = self
            .shards
            .iter()
            .map(|home| {
                home.queue.lock().hold = true;
                let mut handler = home.handler.lock();
                home.drain(&mut handler);
                handler
            })
            .collect();
        let out = f();
        self.epoch.fetch_add(1, Ordering::Relaxed);
        for (home, handler) in self.shards.iter().zip(held) {
            // A shard that is dead stays held off until its respawn.
            if handler.is_some() {
                drop(handler);
                home.queue.resume();
            }
        }
        out
    }

    /// Completed quiesce epochs since the pool started.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Reads one shard's books, if it exists.
    fn books<R>(&self, shard: usize, read: impl FnOnce(&QueueState<T>) -> R) -> Option<R> {
        self.shards.get(shard).map(|home| read(&home.queue.lock()))
    }

    /// Work items run to completion on `shard`, if it exists.
    pub fn completed(&self, shard: usize) -> Option<u64> {
        self.books(shard, |q| q.completed)
    }

    /// Total work items run to completion across all shards.
    pub fn total_completed(&self) -> u64 {
        (0..self.workers()).filter_map(|s| self.completed(s)).sum()
    }

    /// Items bounced by [`Self::try_submit`] because a queue was full.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Work items submitted to live shards but not yet completed.
    pub fn in_flight(&self) -> usize {
        (0..self.workers())
            .filter_map(|s| self.books(s, |q| if q.dead { 0 } else { q.in_flight }))
            .sum()
    }

    /// Work items submitted to `shard` but not yet completed, if it
    /// exists.
    pub fn in_flight_on(&self, shard: usize) -> Option<usize> {
        self.books(shard, |q| q.in_flight)
    }

    /// Whether `shard` can still accept work (`Some(false)` once its
    /// handler panicked and the dead-shard fast-fail in
    /// [`Self::submit`] / [`Self::try_submit`] has engaged). `None` for
    /// an out-of-range shard.
    pub fn worker_alive(&self, shard: usize) -> Option<bool> {
        self.books(shard, |q| !q.dead)
    }

    /// Revives a **dead** shard (handler panic) with `handler` — the
    /// crash-recovery half of the self-healing dataplane. `handler` is
    /// the replacement shard state, typically rebuilt by the same
    /// factory that produced the original. No thread starts or stops:
    /// the shard's home drainer, parked since the death, drains it
    /// again.
    ///
    /// The stranded work items still queued are handed to
    /// `on_stranded` (oldest first) so the caller can account and
    /// recycle their payloads — counted, never leaked. A dead shard
    /// queues nothing, so the stranded jobs are all it had in flight:
    /// the revived shard starts empty, with a fresh occupancy window,
    /// while [`Self::completed`] keeps accumulating across the change.
    ///
    /// Returns the number of stranded work items recovered, or `None`
    /// if `shard` is out of range or still alive (only dead shards
    /// respawn).
    pub fn respawn(
        &self,
        shard: usize,
        handler: ShardHandler<T>,
        on_stranded: impl FnMut(T),
    ) -> Option<usize> {
        let home = self.shards.get(shard)?;
        let stranded = {
            let mut slot = home.handler.lock();
            if slot.is_some() {
                return None;
            }
            *slot = Some(handler);
            let mut q = home.queue.lock();
            debug_assert_eq!(q.in_flight, q.jobs.len(), "a dead shard queues nothing");
            (q.in_flight, q.high_water, q.dead, q.hold) = (0, 0, false, false);
            std::mem::take(&mut q.jobs)
        };
        let n = stranded.len();
        stranded.into_iter().for_each(on_stranded);
        self.respawned.fetch_add(1, Ordering::Relaxed);
        Some(n)
    }

    /// Shards respawned ([`Self::respawn`]) over the pool's lifetime.
    pub fn respawned(&self) -> u64 {
        self.respawned.load(Ordering::Relaxed)
    }

    /// High-water mark of `shard`'s queue occupancy (in flight, queued
    /// or running) since the pool started (or since the last
    /// [`Self::reset_ring_high_water`]) — the load meter that
    /// distinguishes a backed-up shard from a busy one: a shard whose
    /// high-water mark rides its queue capacity is receiving work
    /// faster than it retires it.
    pub fn ring_high_water(&self, shard: usize) -> Option<usize> {
        self.books(shard, |q| q.high_water)
    }

    /// Resets every shard's occupancy high-water mark to its current
    /// occupancy, starting a fresh observation window.
    ///
    /// Bare reset discards the closing window's marks; a sampler that
    /// wants them must use [`Self::take_ring_high_water`] — reading
    /// `ring_high_water` first and resetting afterwards is a
    /// read-then-reset race: a peak recorded between the two calls is
    /// folded into the *old* window's (already sampled) mark and then
    /// erased, so the new window under-reports a queue that was
    /// provably nonempty. Callers closing windows at migration epochs
    /// should reset from inside the quiesce (as
    /// `ShardedPipeline::install_bucket_map` does), where no
    /// submission can interleave with the boundary.
    pub fn reset_ring_high_water(&self) {
        let _ = self.take_ring_high_water();
    }

    /// Closes the occupancy observation window: returns every shard's
    /// high-water mark and resets it to the shard's *current*
    /// occupancy, each shard in one critical section of its own queue
    /// lock. Because a shard's sample and reset are indivisible, a peak
    /// recorded concurrently lands in exactly one window — either it is
    /// part of the returned marks, or (arriving after) it raises the
    /// new window's mark from the live occupancy floor; it can never be
    /// sampled into the old window and then zeroed out of the new one.
    pub fn take_ring_high_water(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|home| {
                let q = &mut *home.queue.lock();
                std::mem::replace(&mut q.high_water, q.in_flight)
            })
            .collect()
    }

    /// Stops the drainer threads, joins them, and runs the work still
    /// queued on this thread.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        for home in self.shards.iter() {
            home.queue.close();
        }
        for drainer in self.drainers.drain(..) {
            let _ = drainer.join();
        }
        self.shards.iter().for_each(Shard::drain_now);
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
            self.workers(),
            self.total_completed(),
            self.epoch()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// `k = 0`: a home drainer thread for every shard — the spec the
    /// drainer-mechanics tests need.
    fn threaded(workers: usize) -> ShardSpec {
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
        let spec = threaded(1).with_ring_capacity(1);
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
        pool.submit(0, 1).unwrap(); // taken by the drainer, blocks
                                    // Once the drainer has taken item 1 the 1-deep queue holds
                                    // exactly item 2 while the drainer is wedged inside item 1.
        spin_until_queue(&pool, 0, |q| q.jobs.is_empty());
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
                    // With every handler lock held, a multi-step update
                    // is atomic from the dataplane's perspective.
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
        for spec in [threaded(2), ShardSpec::new(2)] {
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

    /// Waits until `shard` is marked dead. A shard with a home drainer
    /// dies on that thread, asynchronously; one without has died by the
    /// time the flush that ran the fatal job returns, so there is nothing
    /// to wait for.
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
        for spec in [threaded(2), ShardSpec::new(2), ShardSpec::inline(2)] {
            let pool = WorkerPool::start(spec, |shard| {
                Box::new(move |n: u8| {
                    if shard == 0 && n == 1 {
                        panic!("injected fault");
                    }
                })
            });
            pool.submit(0, 1).unwrap(); // kills worker 0
            pool.flush();
            // Wait until shard 0's queue has booked the death so the
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
            pool.quiesce(|| {}); // a dead shard does not hold the quiesce
            pool.shutdown();
        }
    }

    #[test]
    fn submit_to_a_dead_worker_fails_fast_even_with_a_full_ring() {
        // Regression: a producer blocked in submit() on a full ring
        // whose worker has died must get its item back instead of
        // spinning until the ring disconnects. With the dead-flag
        // check the item never enqueues at all once death is marked.
        for spec in [threaded(1), ShardSpec::new(1)] {
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
        // Handler: 254 blocks until the latch opens (so items can queue
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
        for spec in [threaded(2), ShardSpec::new(2), ShardSpec::inline(2)] {
            let open = Arc::new((Mutex::new(false), Condvar::new()));
            let done = Arc::new(AtomicU64::new(0));
            let pool = WorkerPool::start(spec, |_| make_handler(&open, &done));
            pool.submit(0, 254).unwrap(); // a drainer blocks on this item
            pool.submit(0, 255).unwrap(); // poison, queued behind it
            pool.submit(0, 1).unwrap(); // will be stranded
            pool.submit(0, 2).unwrap(); // will be stranded
            {
                let (lock, cv) = &*open;
                *lock.lock().unwrap() = true;
                cv.notify_all();
            }
            pool.flush(); // with no home drainer, 254 and the poison run here
            await_death(&pool, 0);
            let queued = vec![1u8, 2];

            // A live shard does not respawn; neither does a ghost shard.
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
            assert_eq!(pool.in_flight_on(0), Some(0), "revived shard starts empty");
            assert_eq!(pool.ring_high_water(0), Some(0));

            // The revived shard serves traffic and quiesces again.
            pool.submit(0, 3).unwrap();
            pool.flush();
            assert_eq!(done.load(Ordering::Relaxed), 1);
            pool.quiesce(|| {});
            assert_eq!(pool.epoch(), 1);
            // 254 completed before the fault; 3 completed after respawn.
            // (The poison item retired with the drain, uncounted.)
            assert_eq!(pool.completed(0), Some(2));
            pool.shutdown();
        }
    }

    #[test]
    fn try_submit_tagged_classifies_rejections() {
        // Shard 0's handler blocks until the latch opens; capacity 1
        // makes the queue trivially fillable.
        let open = Arc::new((Mutex::new(false), Condvar::new()));
        let pool = {
            let open = Arc::clone(&open);
            WorkerPool::start(threaded(2).with_ring_capacity(1), move |shard| {
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
        pool.submit(0, 0).unwrap(); // the drainer blocks on it
        spin_until_queue(&pool, 0, |q| q.jobs.is_empty());
        pool.submit(0, 1).unwrap(); // fills the 1-deep queue
        let (item, why) = pool.try_submit_tagged(0, 2).unwrap_err();
        assert_eq!((item, why), (2, SubmitRejection::RingFull));
        assert_eq!(pool.rejected(), 1, "ring pressure is counted");

        pool.submit(1, 255).unwrap(); // kills shard 1
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
    /// opens it, so a flusher or drainer is where the test wants it.
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

    /// One shard with a home drainer whose handler blocks on `latch`,
    /// then panics on 255.
    fn latched_pool(latch: &Latch) -> WorkerPool<u8> {
        let latch = Arc::clone(latch);
        WorkerPool::start(threaded(1), move |_| {
            let latch = Arc::clone(&latch);
            Box::new(move |n: u8| {
                await_open(&latch);
                if n == 255 {
                    panic!("injected fault");
                }
            })
        })
    }

    fn spin_until_queue<T: Send>(
        pool: &WorkerPool<T>,
        shard: usize,
        cond: impl Fn(&QueueState<T>) -> bool,
    ) {
        while !cond(&pool.shards[shard].queue.lock()) {
            std::thread::yield_now();
        }
    }

    fn wakes<T: Send>(pool: &WorkerPool<T>, shard: usize) -> u64 {
        pool.shards[shard].queue.lock().wakes
    }

    /// Notifies issued on every shard's `idle` condvar.
    fn idle_wakes<T: Send>(pool: &WorkerPool<T>) -> u64 {
        pool.shards.iter().map(|s| s.queue.lock().idle_wakes).sum()
    }

    #[test]
    fn retiring_with_nobody_parked_never_notifies() {
        let pool = WorkerPool::start(threaded(2), |_| Box::new(|_: u8| {}));
        for n in 0..1000usize {
            pool.submit(n % 2, 0).unwrap();
        }
        // Not `flush`: parking there is what earns a notify.
        while pool.total_completed() < 1000 {
            std::thread::yield_now();
        }
        pool.flush(); // nothing in flight: returns without parking
        assert_eq!(idle_wakes(&pool), 0);
    }

    #[test]
    fn a_parked_flush_is_woken_once_by_the_retire_that_drains_the_shard() {
        let latch = Latch::default();
        let pool = latched_pool(&latch);
        pool.submit(0, 0).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| pool.flush());
            spin_until_queue(&pool, 0, |q| q.flushers == 1);
            open(&latch);
        });
        let q = pool.shards[0].queue.lock();
        assert_eq!((q.idle_wakes, q.flushers), (1, 0));
    }

    #[test]
    fn a_dying_worker_releases_a_parked_flush() {
        let latch = Latch::default();
        let pool = latched_pool(&latch);
        pool.submit(0, 255).unwrap(); // poison, held at the latch
        pool.submit(0, 0).unwrap(); // stranded behind it: never retires
        std::thread::scope(|s| {
            s.spawn(|| pool.flush());
            spin_until_queue(&pool, 0, |q| q.flushers == 1);
            open(&latch);
        });
        // The poison's retire leaves one item in flight and wakes
        // nobody; only the death can release the waiter.
        let q = pool.shards[0].queue.lock();
        assert_eq!((q.idle_wakes, q.flushers), (1, 0));
    }

    #[test]
    fn a_flush_is_woken_only_by_the_shard_it_waits_on() {
        let latches = [Latch::default(), Latch::default()];
        let pool = WorkerPool::start(threaded(3), |shard| {
            let latch = latches.get(shard).map(Arc::clone);
            Box::new(move |_: u8| {
                if let Some(latch) = &latch {
                    await_open(latch);
                }
            })
        });
        pool.submit(0, 0).unwrap();
        pool.submit(1, 0).unwrap();
        let wakes_while_parked = std::thread::scope(|s| {
            s.spawn(|| pool.flush());
            spin_until_queue(&pool, 0, |q| q.flushers == 1);
            // Shard 1 goes idle while the flusher is parked on shard 0.
            open(&latches[1]);
            spin_until_queue(&pool, 1, |q| q.in_flight == 0);
            let wakes = idle_wakes(&pool);
            open(&latches[0]);
            wakes
        });
        assert_eq!(wakes_while_parked, 0, "nobody waits on shard 1");
        assert_eq!(idle_wakes(&pool), 1, "one wake, from shard 0");
        pool.shutdown();
    }

    #[test]
    fn submits_to_a_busy_or_awake_drainer_never_notify() {
        // Busy: the drainer is inside a latched job.
        let latch = Latch::default();
        let pool = latched_pool(&latch);
        spin_until_queue(&pool, 0, |q| q.parked);
        pool.submit(0, 0).unwrap(); // the one wake: the drainer was parked
        spin_until_queue(&pool, 0, |q| q.jobs.is_empty());
        for _ in 0..100 {
            pool.submit(0, 0).unwrap();
        }
        assert_eq!(wakes(&pool, 0), 1, "a busy drainer is not notified");
        open(&latch);
        pool.flush();
        // Awake: woken but not yet running. Pinned on a bare queue, where
        // nothing can run the drainer in between.
        let queue = Queue::new();
        queue.lock().parked = true;
        for n in 0..10u8 {
            queue.push(n, 16).unwrap();
        }
        assert_eq!(
            queue.lock().wakes,
            1,
            "the first push woke it; the rest find it awake"
        );
    }

    #[test]
    fn a_submit_to_a_parked_drainer_wakes_it_once() {
        let pool = WorkerPool::start(threaded(1), |_| Box::new(|_: u8| {}));
        for round in 1..=3u64 {
            spin_until_queue(&pool, 0, |q| q.parked);
            pool.submit(0, 0).unwrap();
            pool.flush();
            assert_eq!(wakes(&pool, 0), round, "one wake per park");
        }
    }

    /// A handler that logs `(item, running thread)`, blocks on `latch`
    /// at 254 and panics at 255.
    type RunLog = Arc<parking_lot::Mutex<Vec<(u8, std::thread::ThreadId)>>>;

    fn logging_handler(latch: &Latch, ran: &RunLog) -> ShardHandler<u8> {
        let (latch, ran) = (Arc::clone(latch), Arc::clone(ran));
        Box::new(move |n: u8| {
            if n == 254 {
                await_open(&latch);
            }
            assert!(n != 255, "injected fault");
            ran.lock().push((n, std::thread::current().id()));
        })
    }

    #[test]
    fn a_drainer_outlives_its_handler() {
        let (latch, ran) = (Latch::default(), RunLog::default());
        let pool = WorkerPool::start(ShardSpec::new(2), |_| logging_handler(&latch, &ran));
        pool.submit(1, 1).unwrap();
        pool.flush();
        pool.submit(1, 254).unwrap(); // the drainer blocks on it...
        pool.submit(1, 255).unwrap(); // ...with the poison...
        pool.submit(1, 2).unwrap(); // ...and two jobs queued behind
        pool.submit(1, 3).unwrap();
        open(&latch);
        while pool.worker_alive(1) == Some(true) {
            std::thread::yield_now();
        }
        // Dead with jobs stranded: the drainer parks rather than spins.
        spin_until_queue(&pool, 1, |q| q.parked && q.hold && q.jobs.len() == 2);
        let parked_wakes = wakes(&pool, 1);
        std::thread::sleep(std::time::Duration::from_millis(20));
        spin_until_queue(&pool, 1, |q| q.parked);
        assert_eq!(wakes(&pool, 1), parked_wakes, "nobody woke it meanwhile");
        let mut stranded = Vec::new();
        let revived = pool.respawn(1, logging_handler(&latch, &ran), |n| stranded.push(n));
        assert_eq!(revived, Some(2));
        assert_eq!(stranded, vec![2, 3], "stranded jobs come back in order");
        pool.submit(1, 4).unwrap();
        pool.flush();
        let ran = ran.lock().clone();
        let items: Vec<u8> = ran.iter().map(|(n, _)| *n).collect();
        assert_eq!(items, vec![1, 254, 4]);
        let drainer = ran[0].1;
        assert_ne!(drainer, std::thread::current().id());
        assert!(
            ran.iter().all(|(_, id)| *id == drainer),
            "one drainer thread before the panic and after the respawn"
        );
        pool.shutdown();
    }

    #[test]
    fn a_quiesce_waits_for_a_drainer_mid_job_and_runs_the_rest() {
        // Shard 1's drainer is inside job 254 when the quiesce arrives,
        // with jobs 1 and 2 queued behind it.
        let (latch, ran) = (Latch::default(), RunLog::default());
        let pool = WorkerPool::start(threaded(2), |_| logging_handler(&latch, &ran));
        pool.submit(1, 254).unwrap();
        spin_until_queue(&pool, 1, |q| q.jobs.is_empty());
        pool.submit(1, 1).unwrap();
        pool.submit(1, 2).unwrap();
        let (at_f, ran_during_f, quiescer) = std::thread::scope(|s| {
            let quiescer = s.spawn(|| {
                pool.quiesce(|| {
                    let at_f = ran.lock().clone();
                    pool.submit(1, 3).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    (at_f.clone(), ran.lock().len() - at_f.len())
                })
            });
            // The quiescer holds the drainer off before it takes the
            // lock; only then may job 254 finish.
            spin_until_queue(&pool, 1, |q| q.hold);
            let id = quiescer.thread().id();
            open(&latch);
            let (at_f, ran_during_f) = quiescer.join().unwrap();
            (at_f, ran_during_f, id)
        });
        pool.flush();
        let drainer = at_f[0].1;
        assert_ne!(drainer, quiescer);
        assert_eq!(
            at_f,
            vec![(254, drainer), (1, quiescer), (2, quiescer)],
            "the drainer finished its job; the quiescer ran the rest"
        );
        assert_eq!(ran_during_f, 0, "no handler ran during the closure");
        assert_eq!(
            ran.lock().last(),
            Some(&(3, drainer)),
            "the closure's job ran after release, on the drainer"
        );
        assert_eq!(pool.epoch(), 1);
        pool.shutdown();
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
        // k = 1: shard 0 has no home drainer, shard 1's is latched shut.
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
            spin_until_queue(&pool, 1, |q| q.flushers == 1);
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
