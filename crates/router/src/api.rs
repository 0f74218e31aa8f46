//! The Router CF's packet-passing interfaces (paper Figure 2),
//! redesigned batch-first.
//!
//! Components acceptable to the Router CF "must support appropriate
//! numbers and combinations of specific packet-passing interfaces/
//! receptacles (called `IPacketPush` and `IPacketPull` …)" and "may
//! (optionally) support an `IClassifier` interface which exports an
//! operation `register_filter()`" (paper §5). This module defines those
//! three interfaces, their introspection descriptors, the interception
//! wrappers that make them interceptable, and the IPC stub/skeleton pair
//! that lets untrusted packet components run out-of-capsule — and the
//! control-plane interfaces the meta-models find on any element:
//! [`IWindow`] (a window budget) and [`ITable`] (a match-action table).
//!
//! # The batch contract
//!
//! Both packet interfaces are **batch-first**: the unit of transfer is a
//! [`PacketBatch`], moved by [`IPacketPush::push_batch`] and
//! [`IPacketPull::pull_batch`]. An element states its semantics once.
//! The scalar methods are the batch of one: `push` defaults to
//! `push_batch` of a one-packet batch, `pull` to the one packet of
//! `pull_batch(1)`. Each batch method defaults, in turn, to a loop over
//! its scalar twin, so a component written against the original Fig-2
//! contract — a scalar `push` or `pull` alone — keeps working
//! unchanged; it just doesn't amortize. An impl must override **at
//! least one** method of each pair: overriding neither recurses
//! forever. Every element in [`crate::elements`] and [`crate::flow`]
//! overrides exactly the batch one.
//!
//! A scalar call pays for the batch it builds: a one-packet batch
//! container and a one-verdict [`BatchResult`], two small heap
//! allocations per call, neither taken from a `BatchPool`.
//!
//! The contract a batch implementation must honour:
//!
//! * **Ordering** — packets are processed in batch order. On any single
//!   downstream output the emitted sequence keeps batch order, and it
//!   does not depend on how the input was cut into batches. The rule
//!   has one home, [`emit`]: an element picks each packet's [`Exit`] —
//!   one of its [`Output`]s, fallbacks included, or a drop verdict —
//!   and `emit` crosses each output once, in batch order. Every library
//!   element that forwards leaves through it, bar `Tee` (it copies).
//! * **Partial failure** — a batch push never fails wholesale. The
//!   returned [`BatchResult`] carries one verdict *per packet, in batch
//!   order*: `Ok(())` for accepted/forwarded packets and a
//!   [`PushError`] for each packet dropped.
//! * **Batch-size invariance** — verdicts, counters, drop reasons and
//!   per-packet side effects (TTL decrement, metadata annotation, meter
//!   colouring) are the same whether a sequence arrives one packet at
//!   a time or in batches of any size. What batching may change is
//!   *amortization only*: one receptacle lock, one interceptor-chain
//!   traversal and one marshalled IPC call per batch instead of per
//!   packet. Counters get it from one place: an element tallies a
//!   batch into its named stats struct and flushes it to the counter
//!   set in its `ComponentCore` once ([`mod@opencom::counters`]).
//!   Differential property tests
//!   (`tests/proptest_batch_equiv.rs`) drive the classifier, IP
//!   processors, meter, queues, route lookup, NAT44, balancer,
//!   conntrack, guard, tee, policer and protocol recogniser one packet
//!   at a time and in batches of every size, as
//!   `crates/services/tests/proptest_media_equiv.rs` does the media
//!   filters. One known exception: the guard's SYN defence with a
//!   tracker attached (see [`crate::flow::Guard`]).
//! * **Interception** — interceptor hooks see `"push_batch"` /
//!   `"pull_batch"` for every transfer: a scalar call crosses the
//!   wrapper as a batch of one. Likewise an isolated component's proxy
//!   marshals every transfer as one `"push_batch"` IPC call.
//!
//! # Sharded execution
//!
//! Under the sharded runtime ([`crate::shard::ShardedPipeline`]) these
//! interfaces are driven concurrently by N run-to-completion workers,
//! each against its own replica of the element graph. The contract
//! refines as follows:
//!
//! * **Ordering becomes per-flow.** Steering pins every flow to one
//!   worker, so on any single output the sequence *within each flow*
//!   is exactly the single-threaded sequence; ordering **between**
//!   flows that landed on different workers is unspecified. Aggregate counters
//!   and per-output multisets remain identical to the single-threaded
//!   pipeline (enforced by `tests/sharded_equiv.rs` for N = 1..4,
//!   with 0 shards ≡ 1 shard at every layer).
//! * **Steering is index-based, parse-free — and move-free on the
//!   dispatcher.** `dispatch` runs `PacketBatch::shard_split_with` —
//!   one counting-sort pass over driver-stamped
//!   `PacketMeta::rss_hash` values (written once at NIC rx or batch
//!   construction, never re-parsed) — then wraps the parent once
//!   (`ShardSplit::into_shared`) and publishes one refcounted
//!   shard-range *descriptor* per target ring. Packets move exactly
//!   once, on the **worker** (`SharedShardRange::take_into` into a
//!   pool-recycled gather container). See "The dispatch contract"
//!   below for the parent's lifecycle.
//! * **Batches arrive pool-homed.** A batch a worker receives may
//!   lease its container (and its packets' frame buffers) from the
//!   pipeline's `BatchPool`/`BufferPool`; terminal elements should
//!   drop batches whole, `pop` what they keep (as `Discard` does), or
//!   drain in place (`PacketBatch::drain_all`, as the tx device
//!   adapter does) so the storage recycles. The consuming methods
//!   (`into_packets`, `into_iter`) detach moved storage from its pool
//!   — correct, but off the zero-allocation path.
//! * **Implementations need no extra locking.** A replica is only ever
//!   driven by its own worker; `Send + Sync` plus the existing interior
//!   mutability suffices. Do not share an element instance between
//!   replicas — replicate it and let the counters roll up: a walk over
//!   each replica's capsule reads them by name
//!   ([`opencom::counters::Counters::visit`]).
//! * **Reconfiguration is epoch-quiesced.** Architecture-meta-model
//!   changes apply inside [`crate::shard::ShardedPipeline::quiesce`],
//!   which parks every worker at a batch boundary: no `push_batch` is
//!   ever mid-flight anywhere while the graphs change, and traffic
//!   submitted meanwhile queues rather than drops.
//!
//! ## The steering contract, precisely
//!
//! Steering is governed by a 256-entry bucket → shard indirection
//! table (`netkit_packet::steer::BucketMap`): a packet's stamped RSS
//! hash reduces to a bucket, the table names the shard. The rules:
//!
//! * **Ownership.** The [`crate::shard::ShardedPipeline`] owns the
//!   authoritative table. NIC indirection tables and sim demux tables
//!   are *mirrors*, installed by
//!   [`crate::shard::ShardedPipeline::install_bucket_map`] inside the
//!   same quiesce epoch as the pipeline's own swap; elements never
//!   consult or mutate the table directly. The identity table
//!   reproduces classic `hash % shards` RSS steering.
//! * **Quiesce semantics of a migration.** `install_bucket_map` runs
//!   under the write half of the steering lock (every `dispatch` /
//!   `submit` / `pump_nic` holds the read half across its ring
//!   hand-off, so no steering decision interleaves with a swap) and
//!   inside one `WorkerPool::quiesce` epoch: all previously enqueued
//!   batches run to completion first; frames still parked in NIC rx
//!   queues are drained FIFO and re-steered by the *new* table onto
//!   their rings; then the table swaps. Wire-side injection must be
//!   quiescent across the swap (a simulated NIC cannot apply it
//!   atomically against racing injectors the way silicon does).
//! * **Per-flow ordering across a migration.** A flow maps to exactly
//!   one bucket, and a bucket to exactly one shard per epoch, so a
//!   migrated flow's packets partition into "before" (old shard,
//!   fully processed before the barrier) and "after" (new shard,
//!   processed after release) — the delivered per-flow sequence is
//!   identical to the unmigrated one. Nothing is lost or duplicated;
//!   *cross*-flow interleaving may change, exactly as between any two
//!   epochs. Enforced by `tests/rebalance_elephant.rs` (differential)
//!   and `crates/router/tests/proptest_rebalance.rs` (any remap,
//!   mid-stream).
//!
//! Runnable — a mid-stream remap is invisible to per-flow delivery:
//!
//! ```
//! use std::sync::Arc;
//! use netkit_kernel::shard::ShardSpec;
//! use netkit_packet::batch::PacketBatch;
//! use netkit_packet::flow::FlowKey;
//! use netkit_packet::packet::PacketBuilder;
//! use netkit_router::api::register_packet_interfaces;
//! use netkit_router::elements::Counter;
//! use netkit_router::shard::{ShardGraph, ShardedPipeline};
//! use opencom::capsule::Capsule;
//! use opencom::meta::resources::ResourceManager;
//! use opencom::runtime::Runtime;
//!
//! let rm = Arc::new(ResourceManager::new());
//! let pipe = ShardedPipeline::build("doc-steer", ShardSpec::new(2), rm, |_| {
//!     let rt = Runtime::new();
//!     register_packet_interfaces(&rt);
//!     let capsule = Capsule::new("shard", &rt);
//!     let counter = Counter::new(); // sink mode: counts and accepts
//!     Ok(ShardGraph::new(capsule, counter))
//! })?;
//!
//! // One flow (fixed 5-tuple); the sequence rides in the payload.
//! let mk = |seq: u16| {
//!     PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 7777, 443)
//!         .payload(&seq.to_be_bytes())
//!         .build()
//! };
//! let burst: PacketBatch = (0..8).map(mk).collect();
//! pipe.dispatch(burst);
//!
//! // Migrate the flow's bucket to the OTHER shard, mid-stream: the
//! // quiesce inside install_bucket_map drains the in-flight batch
//! // first, so "before" packets finish before "after" packets start.
//! let bucket = FlowKey::from_packet(&mk(0)).unwrap().bucket();
//! let mut map = pipe.bucket_map();
//! let (old, new) = (map.shard_of_bucket(bucket), 1 - map.shard_of_bucket(bucket));
//! map.set(bucket, new);
//! pipe.install_bucket_map(map, &[]);
//!
//! let burst: PacketBatch = (8..16).map(mk).collect();
//! pipe.dispatch(burst);
//! pipe.flush();
//!
//! // No loss, no duplication — and every post-migration packet of the
//! // flow ran on the new shard, after every pre-migration one.
//! let stats = pipe.stats();
//! assert_eq!((stats.packets, stats.dropped), (16, 0));
//! assert_eq!(pipe.shard_stats(old).packets, 8);
//! assert_eq!(pipe.shard_stats(new).packets, 8);
//! assert_eq!(pipe.migrations(), 1);
//! pipe.shutdown();
//! # Ok::<(), opencom::error::Error>(())
//! ```
//!
//! ## The dispatch contract, precisely
//!
//! Software dispatch ([`crate::shard::ShardedPipeline::dispatch`])
//! publishes **shared shard ranges**, not owned sub-batches. The
//! lifecycle rules:
//!
//! * **One publish per dispatch.** A dispatch is one counting-sort
//!   split, one shared wrap of the parent batch, and one queue push
//!   per non-empty target shard, each under that shard's own queue
//!   lock (nothing pool-wide) — a refcount bump, not a packet move.
//! * **The last range handle frees the parent.** The caller hands the
//!   parent batch to `dispatch` and never sees it again: each ring's
//!   descriptor holds one reference; a worker consuming its range
//!   moves its packets out (disjoint permutation slots, so workers
//!   never contend for a packet) and drops its handle. Whichever
//!   handle drops **last** — normally the last worker to run, but
//!   equally a descriptor rejected by a dead worker or dropped on a
//!   re-steer — returns the parent's container to the pipeline's
//!   [`crate::shard::ShardedPipeline::batch_pool`]. Neither the
//!   dispatcher nor any element ever frees a parent explicitly, and a
//!   pool-leased parent recycles whole (the doctest below proves it).
//! * **Rejected ranges are accounted, then freed like any range.** A
//!   descriptor that cannot be delivered (dead worker, or a full ring
//!   on the non-blocking re-steer path) has its packet count added to
//!   the target shard's `dropped` meter; dropping the descriptor
//!   releases its parent reference, so rejection never leaks the
//!   container or wedges siblings that did get their ranges.
//! * **Quiesce interaction.** `dispatch` publishes with a *blocking*
//!   ring write outside any epoch, and every descriptor enqueued
//!   before a quiesce is consumed before its worker parks (the sync
//!   marker queues behind it) — so a quiesce closure never observes a
//!   live shared parent, and reconfiguration cannot interleave with a
//!   half-consumed split. Inside the epoch the rules invert: parked
//!   workers can never relieve a full ring, so the NIC-drain re-steer
//!   in `install_bucket_map` publishes its ranges with per-shard
//!   non-blocking writes and counts full-ring rejections as drops
//!   rather than deadlocking.
//!
//! Runnable — the caller leases the parent, the last worker frees it:
//!
//! ```
//! use std::sync::Arc;
//! use netkit_kernel::shard::ShardSpec;
//! use netkit_packet::packet::PacketBuilder;
//! use netkit_router::api::register_packet_interfaces;
//! use netkit_router::elements::Counter;
//! use netkit_router::shard::{ShardGraph, ShardedPipeline};
//! use opencom::capsule::Capsule;
//! use opencom::meta::resources::ResourceManager;
//! use opencom::runtime::Runtime;
//!
//! let rm = Arc::new(ResourceManager::new());
//! let pipe = ShardedPipeline::build("doc-dispatch", ShardSpec::new(2), rm, |_| {
//!     let rt = Runtime::new();
//!     register_packet_interfaces(&rt);
//!     let capsule = Capsule::new("shard", &rt);
//!     Ok(ShardGraph::new(capsule, Counter::new())) // sink mode
//! })?;
//!
//! // Lease the parent from the pipeline's own pool and fill it with
//! // several flows, so the split fans out to both workers.
//! let mut parent = pipe.batch_pool().take();
//! for port in 0..16u16 {
//!     parent.push(
//!         PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 5000 + port, 443).build(),
//!     );
//! }
//! let before = pipe.batch_pool().stats();
//!
//! // One publish; ownership of `parent` is gone from this thread.
//! pipe.dispatch(parent);
//! pipe.flush();
//!
//! // Every packet ran, nothing dropped — and the parent's container
//! // came back to the pool, recycled by the LAST worker to consume
//! // its range, never by the dispatcher.
//! let stats = pipe.stats();
//! assert_eq!((stats.packets, stats.dropped), (16, 0));
//! let after = pipe.batch_pool().stats();
//! assert!(after.recycled > before.recycled, "parent recycled: {after:?}");
//! assert_eq!(after.discarded, before.discarded, "recycled whole, not shed");
//! pipe.shutdown();
//! # Ok::<(), opencom::error::Error>(())
//! ```
//!
//! ## The control-loop contract, precisely
//!
//! Rebalancing runs **autonomously**, along one path: one
//! [`Evidence`](crate::shard::Evidence) per turn, judged by one
//! [`RebalanceController`](crate::shard::RebalanceController) over one
//! [`RebalancePolicy`](crate::shard::RebalancePolicy), applied by
//! [`ShardedPipeline::control_turn`](crate::shard::ShardedPipeline::control_turn);
//! a spawned [`ControlLoop`](crate::shard::ControlLoop) takes the
//! turns with no external caller. The rules a steering surface and its
//! controller agree on:
//!
//! * **Windows are evidence, and evidence is only consumed by a
//!   decision.** The per-bucket observation window (and, with a
//!   non-zero `heavy_blend`, each shard's flow sketch) is *peeked*,
//!   never pre-drained. A window below the policy's `min_samples`
//!   accumulates untouched across turns (a low-rate skew eventually
//!   gathers a verdict's worth of evidence); a judged-but-declined
//!   window is *decayed* (each bucket keeps the policy's `decay`
//!   fraction) — retained, not discarded; an applied migration
//!   *retires* exactly the snapshot it was planned on, so packets
//!   recorded mid-decision carry over to the next turn in full. The
//!   gate, the plan, and the retire all judge the **same snapshot**.
//! * **Decisions weigh pressure and bytes, not just packet counts.**
//!   The judged window
//!   ([`crate::shard::RebalancePolicy::judged_window`]) inflates each
//!   bucket's count by its shard's ring occupancy (`pressure_weight`),
//!   so a skew just under the threshold converges once the hot
//!   shard's queue backs up, then blends in the heavy-hitter bytes
//!   (`heavy_blend`), which surfaces byte elephants a uniform packet
//!   window hides. Every decision core — `weighted`, `hysteresis`,
//!   `ewma` — judges that window; they differ only in *when* the
//!   threshold + LPT plan may fire. `min_samples` gates on raw counts,
//!   once, in the controller: weighting amplifies evidence, never
//!   conjures it.
//! * **A turn is the window boundary.** Before it decides, the turn
//!   closes the window of every component, in every replica's capsule,
//!   that exports [`IWindow`] (the heavy-hitter guard's per-flow byte
//!   budgets refill). The lookup goes through the capsule's
//!   meta-models each turn, so elements added by a patch, swapped hot
//!   or rebuilt by a respawn are on the cadence from their first turn;
//!   no host calls a guard, registers a hook or keeps a list.
//! * **Adaptation is rate-capped and backs off.** At most one
//!   migration per `cooldown_ticks + 1` turns (each migration costs a
//!   quiesce epoch), and the threaded loop's cadence is a
//!   `netkit_kernel::task::PeriodicSpec`: the tick interval multiplies
//!   after every no-op turn (up to `max_interval`, snapping back on a
//!   migration) — an idle control loop asymptotically costs nothing.
//! * **The loop is single-consumer and reflective.** One caller of
//!   `control_turn` owns a pipeline's windows (a spawned loop *is*
//!   that caller; don't step the same pipeline by hand beside it); it
//!   is an ordinary meta-object — its turns are accounted as
//!   `classes::TICKS` on its own `ResourceManager` task, each applied
//!   migration as `classes::REBALANCES` on the pipeline's, and the
//!   migrations it installs go through the identical write-locked
//!   quiesce epoch as any manual reconfiguration (every guarantee of
//!   the steering contract above holds across autonomous epochs too).
//! * **Determinism lives in the controller.** It is clockless and
//!   thread-free; the cadence (`PeriodicTask` wall-clock ticks) is the
//!   only nondeterministic layer. The same controller object —
//!   hand-built, or compiled from a description's `control` section —
//!   runs under [`crate::shard::ControlLoop::spawn`] and under the
//!   simulator's event loop, there bit-for-bit reproducibly.
//!
//! Runnable — the controller, one turn per outcome:
//!
//! ```
//! use netkit_packet::steer::{BucketMap, RSS_BUCKETS};
//! use netkit_router::shard::{ControlDecision, Evidence, RebalanceController, RebalancePolicy};
//!
//! let mut ctl = RebalanceController::new(
//!     RebalancePolicy {
//!         max_imbalance: 1.25,
//!         min_samples: 64,
//!         pressure_weight: 1.0,
//!         decay: 0.5,
//!         heavy_blend: 0.0,
//!     },
//!     0,
//! );
//! let map = BucketMap::identity(2);
//! // What `control_turn` gathers; here no ring pressure, no sketches.
//! fn observe<'a>(window: &'a [u64], map: &'a BucketMap) -> Evidence<'a> {
//!     Evidence { window, loads: &[], heavy: &[], ring_capacity: 1024, current: map }
//! }
//! let mut window = vec![0u64; RSS_BUCKETS];
//!
//! // Sub-min window: gathering — leave the meter untouched.
//! window[0] = 32;
//! assert!(matches!(ctl.decide(&observe(&window, &map)), ControlDecision::Gathering));
//!
//! // Balanced window: judged, declined — the caller decays by 0.5.
//! window[1] = 32;
//! assert!(matches!(ctl.decide(&observe(&window, &map)), ControlDecision::Hold));
//!
//! // Colocated skew: the adapt arm fires with an improving plan.
//! window[0] = 96;
//! window[2] = 64; // bucket 2 -> shard 0 under identity(2)
//! match ctl.decide(&observe(&window, &map)) {
//!     ControlDecision::Migrate(plan) => {
//!         assert_eq!(plan.moved, vec![2]);
//!         assert!(plan.imbalance_after < plan.imbalance_before);
//!     }
//!     other => panic!("skew must migrate, got {other:?}"),
//! }
//! assert_eq!((ctl.ticks(), ctl.migrations(), ctl.holds()), (3, 1, 1));
//! ```
//!
//! ## The flow-element contract, precisely
//!
//! Stateful elements ([`crate::flow`]: `ConnTracker`, `Nat44`,
//! `L4LoadBalancer`) are ordinary `IPacketPush` components — the batch
//! contract above applies unchanged — plus five rules of their own:
//!
//! * **Identity is canonical.** Per-flow state is keyed by
//!   [`FlowKey::canonical`](netkit_packet::flow::FlowKey::canonical),
//!   so both directions of a connection share one entry; and because
//!   the RSS hash is computed over the symmetric tuple, both
//!   directions land on the same shard. Under the sharded runtime
//!   each replica's table therefore has exactly one writer — elements
//!   need no cross-shard coherence, ever.
//! * **Read the flow, do not parse it.** The rx path parsed the frame
//!   once and stamped the result into `PacketMeta::flow`; a stateful
//!   element obtains tuple, TCP flags and table hash through
//!   [`FlowView::of`](netkit_packet::flow::FlowView::of) (or
//!   [`ParsedFlow::of`](netkit_packet::flow::ParsedFlow::of) when it
//!   only serves IPv4), and an element that rewrites the tuple goes
//!   through [`rewrite_ipv4_endpoint`](crate::flow::rewrite_ipv4_endpoint),
//!   which keeps the record true. Contract: `netkit_packet::flow`.
//! * **Pass-through with a sink mode.** An element tracks (or
//!   rewrites) and forwards on its `out` receptacle; with `out`
//!   unbound it accepts and drops — the tap deployment the doctest
//!   below uses. Frames without a flow identity (non-IP) pass
//!   through untracked and are counted, never dropped for
//!   statefulness' sake; IPv4 fragments are port-less — tracked by
//!   their 3-tuple, passed through by the elements that rewrite
//!   ports.
//! * **State is bounded, and eviction is observable.** Tables
//!   allocate at construction and never grow
//!   (`FlowTable::footprint_bytes` is a constant; `tests/flow_soak.rs`
//!   holds it byte-identical across a million flows). Admission into a
//!   full table evicts the LRU entry and returns it
//!   (`Admission::evicted`) so elements owning linked state — NAT's
//!   paired reverse bindings — unlink deterministically.
//! * **Migration re-establishes, it does not copy.** When a bucket
//!   moves shards, the flow's first packet on the new shard re-admits
//!   it and the state machines promote deterministically (a mid-stream
//!   ACK establishes immediately; an LB sticky entry re-selects by
//!   rendezvous hash, stable across shards). The old entry idles out.
//!   Normative text in [`crate::flow`]; enforced end-to-end by
//!   `tests/flow_state_rebalance.rs`.
//!
//! Runnable — canonical identity gives one bidirectional entry:
//!
//! ```
//! use netkit_packet::flow::FlowKey;
//! use netkit_packet::packet::PacketBuilder;
//! use netkit_router::api::IPacketPush;
//! use netkit_router::flow::{ConnState, ConnTracker};
//!
//! let tracker = ConnTracker::new(); // `out` unbound: tap / sink mode
//! let fwd = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 7777, 443).build();
//! let rev = PacketBuilder::udp_v4("10.0.0.2", "10.0.0.1", 443, 7777).build();
//!
//! // The two directions canonicalise to the same key — and to the
//! // same RSS bucket, which is what makes the table single-writer.
//! let (kf, kr) = (
//!     FlowKey::from_packet(&fwd).unwrap(),
//!     FlowKey::from_packet(&rev).unwrap(),
//! );
//! assert_eq!(kf.canonical(), kr.canonical());
//! assert_eq!(kf.bucket(), kr.bucket());
//!
//! tracker.push(fwd).unwrap();
//! assert_eq!(tracker.info(&kf).unwrap().state, ConnState::New);
//! tracker.push(rev).unwrap(); // reverse traffic seen: established
//! assert_eq!(tracker.len(), 1, "one entry for both directions");
//! assert_eq!(tracker.info(&kr).unwrap().state, ConnState::Established);
//! ```
//!
//! ## The failure contract, precisely
//!
//! The sharded runtime treats a replica crash and sustained overload
//! as *expected inputs*, not exceptional states. The rules:
//!
//! * **A crash is contained to its shard, and published.** A panic
//!   anywhere in a replica's `push`/`push_batch` kills exactly that
//!   shard, not the thread draining it; the kernel marks it dead
//!   ([`crate::shard::ShardedPipeline::worker_alive`] →
//!   `Some(false)`) and sibling shards keep forwarding untouched. A
//!   dead shard's queue accepts no new descriptors: dispatches aimed
//!   at it are rejected on the spot and filed under the dead-worker
//!   drop cause — never queued behind a handler that is gone.
//! * **Recovery is a control-plane act, and only a control-plane
//!   act.** No element, worker, or dispatcher self-heals. The
//!   [`crate::shard::control::ControlLoop`] runs one
//!   [`crate::shard::ShardedPipeline::health_turn`] before each
//!   control turn, which respawns every dead shard in place: the
//!   pipeline's factory produces a fresh replica — a described
//!   pipeline's materialises the description *in force*, patches
//!   included — that goes back behind the dead shard's handler lock,
//!   and the descriptors stranded in its queue are cause-accounted and
//!   recycled, counted, never leaked. No thread starts or stops, no
//!   quiesce runs and no bucket moves: a flow stays on the shard that
//!   owns its state, and frames parked in the dead shard's NIC queue
//!   wait there for the respawned shard. Each respawn bills one
//!   `FAULTS` unit on the resources task.
//! * **Every loss has exactly one cause.** The pipeline's drop
//!   accounting ([`crate::shard::DropStats`]) partitions `dropped`
//!   into ring-full, dead-worker, guard, and graph;
//!   `DropStats::total` equals `PipelineStats::dropped` at every
//!   instant. The only packets outside the meters are the in-flight
//!   batch a dying worker takes down with it — those are the fault
//!   injector's to account (the chaos harness keeps a crash ledger
//!   and proves `delivered + drops + crash-lost = dispatched`).
//! * **Overload is shed inline, before the graph.** A
//!   [`crate::flow::Guard`] at a replica's head consumes the shard's
//!   always-on byte sketch: flows under the threshold pay one
//!   early-exit counter read; heavy flows spend a per-flow byte
//!   budget and then rate-limit, each such verdict filed under the
//!   guard drop cause by the worker. Shedding at the head means an
//!   attack *reduces* per-packet work instead of adding any
//!   (the ledger's `router.flow.guard_ns` on `edge_mixed`).
//! * **Proof is deterministic.** `tests/chaos_soak.rs` kills a
//!   worker mid-elephant under a seeded fault plan and requires the
//!   control loop alone to restore delivery with the books closed
//!   and per-flow order intact; `tests/proptest_chaos.rs` (router)
//!   does the same for arbitrary seeded fault schedules.
//!
//! Runnable — crash, one health turn, delivery resumes:
//!
//! ```
//! use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
//! use std::sync::Arc;
//! use netkit_kernel::shard::ShardSpec;
//! use netkit_packet::batch::PacketBatch;
//! use netkit_packet::packet::{Packet, PacketBuilder};
//! use netkit_router::api::{register_packet_interfaces, IPacketPush, PushResult};
//! use netkit_router::shard::{ShardGraph, ShardedPipeline};
//! use opencom::capsule::Capsule;
//! use opencom::meta::resources::ResourceManager;
//! use opencom::runtime::Runtime;
//!
//! // A replica that counts deliveries — and kills its worker when armed.
//! struct CrashOnce {
//!     armed: Arc<AtomicBool>,
//!     delivered: Arc<AtomicU64>,
//! }
//! impl IPacketPush for CrashOnce {
//!     fn push(&self, _pkt: Packet) -> PushResult {
//!         if self.armed.swap(false, Ordering::SeqCst) {
//!             panic!("doc: injected worker crash");
//!         }
//!         self.delivered.fetch_add(1, Ordering::Relaxed);
//!         Ok(())
//!     }
//! }
//!
//! // Keep the injected panic's report out of the test output; every
//! // other panic still prints normally.
//! let hook = std::panic::take_hook();
//! std::panic::set_hook(Box::new(move |info| {
//!     let injected = info
//!         .payload()
//!         .downcast_ref::<&str>()
//!         .is_some_and(|m| m.contains("injected worker crash"));
//!     if !injected {
//!         hook(info);
//!     }
//! }));
//!
//! let armed = Arc::new(AtomicBool::new(false));
//! let delivered = Arc::new(AtomicU64::new(0));
//! let rm = Arc::new(ResourceManager::new());
//! let pipe = {
//!     let (armed, delivered) = (Arc::clone(&armed), Arc::clone(&delivered));
//!     ShardedPipeline::build("doc-respawn", ShardSpec::new(2), rm, move |_shard| {
//!         let rt = Runtime::new();
//!         register_packet_interfaces(&rt);
//!         let capsule = Capsule::new("shard", &rt);
//!         let entry: Arc<dyn IPacketPush> = Arc::new(CrashOnce {
//!             armed: Arc::clone(&armed),
//!             delivered: Arc::clone(&delivered),
//!         });
//!         Ok(ShardGraph::new(capsule, entry))
//!     })?
//! };
//!
//! // One flow, pinned to shard 0 by its stamped RSS hash.
//! let mk = || {
//!     let mut p = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 7777, 443).build();
//!     p.meta.rss_hash = Some(0);
//!     p
//! };
//! pipe.dispatch(PacketBatch::from_packets(vec![mk()]));
//! pipe.flush();
//! assert_eq!(delivered.load(Ordering::Relaxed), 1);
//!
//! // Crash shard 0 mid-packet. `ShardSpec::new` runs shard 0 on this
//! // thread, inside the flush, which survives the panic; the kernel
//! // has published the death by the time it returns.
//! armed.store(true, Ordering::SeqCst);
//! pipe.dispatch(PacketBatch::from_packets(vec![mk()]));
//! pipe.flush();
//! assert_eq!(pipe.worker_alive(0), Some(false));
//!
//! // One health turn heals it in place: the factory rebuilds the
//! // replica and the shard takes it back behind its own lock.
//! let recovery = pipe.health_turn()?.expect("a dead shard recovers");
//! assert_eq!(recovery.respawned, vec![0]);
//! assert_eq!(pipe.worker_alive(0), Some(true));
//! assert_eq!(pipe.recoveries(), 1);
//!
//! // Delivery resumes through the rebuilt replica — and the books
//! // close: every metered loss is filed under exactly one cause.
//! pipe.dispatch(PacketBatch::from_packets(vec![mk()]));
//! pipe.flush();
//! assert_eq!(delivered.load(Ordering::Relaxed), 2);
//! assert_eq!(pipe.drop_stats().total(), pipe.stats().dropped);
//! pipe.shutdown();
//! # Ok::<(), opencom::error::Error>(())
//! ```

use std::fmt;
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use opencom::error::{Error, Result};
use opencom::ident::{ComponentId, InterfaceId, Version};
use opencom::interception::InterceptorChain;
use opencom::interface::{InterfaceDescriptor, InterfaceRef};
use opencom::ipc::{wire, IpcClient, IpcDispatch};
use opencom::receptacle::Receptacle;
use opencom::runtime::Runtime;

use netkit_packet::batch::PacketBatch;
use netkit_packet::error::ParseError;
use netkit_packet::flow::FlowKey;
use netkit_packet::packet::Packet;

use crate::desc::TableEntry;

/// Interface id for [`IPacketPush`].
pub const IPACKET_PUSH: InterfaceId = InterfaceId::new("netkit.IPacketPush");
/// Interface id for [`IPacketPull`].
pub const IPACKET_PULL: InterfaceId = InterfaceId::new("netkit.IPacketPull");
/// Interface id for [`IClassifier`].
pub const ICLASSIFIER: InterfaceId = InterfaceId::new("netkit.IClassifier");
/// Interface id for [`IWindow`].
pub const IWINDOW: InterfaceId = InterfaceId::new("netkit.IWindow");
/// Interface id for [`ITable`].
pub const ITABLE: InterfaceId = InterfaceId::new("netkit.ITable");

/// Why a push was not completed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PushError {
    /// The component's downstream receptacle is unbound.
    Unbound,
    /// A queue refused the packet (tail drop / RED drop).
    QueueFull,
    /// The packet failed validation and was dropped.
    Malformed(ParseError),
    /// The TTL/hop-limit reached zero.
    TtlExpired,
    /// No route matched the destination.
    NoRoute,
    /// An interceptor or constraint vetoed the call.
    Veto(String),
    /// The (isolated) component crashed or its transport failed.
    Crashed(String),
    /// A finite resource pool (e.g. the NAT44 external-port pool) had
    /// no free slot for a new flow. Distinct from [`PushError::Veto`]:
    /// the packet was well-formed and admissible, the box simply ran
    /// out of the named pool — callers can shed load or retry after
    /// teardown reclaims capacity.
    Exhausted(&'static str),
    /// The inline heavy-hitter guard rate-limited the flow: its byte
    /// estimate crossed the guard's threshold and the flow's window
    /// budget was exhausted (see `netkit_router::flow::Guard`). The
    /// sharded pipeline files these under their own drop cause.
    RateLimited,
}

impl fmt::Display for PushError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::Unbound => write!(f, "downstream receptacle unbound"),
            PushError::QueueFull => write!(f, "queue full"),
            PushError::Malformed(e) => write!(f, "malformed packet: {e}"),
            PushError::TtlExpired => write!(f, "ttl expired"),
            PushError::NoRoute => write!(f, "no route to destination"),
            PushError::Veto(msg) => write!(f, "call vetoed: {msg}"),
            PushError::Crashed(msg) => write!(f, "component crashed: {msg}"),
            PushError::Exhausted(pool) => write!(f, "pool exhausted: {pool}"),
            PushError::RateLimited => write!(f, "rate-limited by heavy-hitter guard"),
        }
    }
}

impl std::error::Error for PushError {}

impl From<ParseError> for PushError {
    fn from(e: ParseError) -> Self {
        PushError::Malformed(e)
    }
}

impl From<Error> for PushError {
    fn from(e: Error) -> Self {
        match e {
            Error::ComponentCrashed { message, .. } => PushError::Crashed(message),
            Error::IpcFailure { detail } => PushError::Crashed(detail),
            other => PushError::Veto(other.to_string()),
        }
    }
}

/// Push result alias.
pub type PushResult = std::result::Result<(), PushError>;

/// Per-packet outcomes of a batch push, in batch order.
///
/// Batch pushes never fail wholesale: each packet gets a verdict of
/// its own.
#[derive(Debug, Default)]
pub struct BatchResult {
    /// One verdict per pushed packet, in batch order.
    pub verdicts: Vec<PushResult>,
}

impl BatchResult {
    /// An empty result with room for `capacity` verdicts.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            verdicts: Vec::with_capacity(capacity),
        }
    }

    /// A result of `n` accepted packets.
    pub fn ok(n: usize) -> Self {
        Self {
            verdicts: vec![Ok(()); n],
        }
    }

    /// A result of `n` packets all dropped for the same reason.
    pub fn err(n: usize, e: PushError) -> Self {
        Self {
            verdicts: vec![Err(e); n],
        }
    }

    /// Appends one verdict.
    pub fn record(&mut self, verdict: PushResult) {
        self.verdicts.push(verdict);
    }

    /// Number of verdicts (equals the size of the pushed batch).
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// True when no verdicts were recorded (empty batch).
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }

    /// Packets accepted/forwarded.
    pub fn accepted(&self) -> usize {
        self.verdicts.iter().filter(|v| v.is_ok()).count()
    }

    /// Packets dropped.
    pub fn dropped(&self) -> usize {
        self.verdicts.len() - self.accepted()
    }

    /// True when every packet was accepted.
    pub fn all_ok(&self) -> bool {
        self.verdicts.iter().all(|v| v.is_ok())
    }
}

impl From<Vec<PushResult>> for BatchResult {
    fn from(verdicts: Vec<PushResult>) -> Self {
        Self { verdicts }
    }
}

// ---- the emit step -------------------------------------------------------

/// Where one packet of a batch leaves an element (see [`emit`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Exit {
    /// On the caller's output at this index.
    Out(usize),
    /// On no output: the packet drops here, with this verdict.
    Drop(PushResult),
}

/// Where each packet of a batch leaves an element: on the output the
/// exits were made with, unless [`Self::set`] says otherwise. Nothing
/// is allocated until a packet leaves some other way.
#[derive(Debug)]
pub struct Exits {
    output: usize,
    /// The exits of the batch's first packets; the rest take `output`.
    each: Vec<Exit>,
}

impl Exits {
    /// Every packet leaving on `output`.
    #[inline]
    pub fn new(output: usize) -> Self {
        let each = Vec::new();
        Self { output, each }
    }

    /// Sends the packet at `idx` out by `exit` instead.
    #[inline]
    pub fn set(&mut self, idx: usize, exit: Exit) {
        if idx < self.each.len() {
            self.each[idx] = exit;
        } else if exit != Exit::Out(self.output) {
            self.each.resize(idx, Exit::Out(self.output));
            self.each.push(exit);
        }
    }

    /// The output the packet at `idx` leaves on, or `None` if it drops.
    pub(crate) fn output_of(&self, idx: usize) -> Option<usize> {
        match self.each.get(idx).unwrap_or(&Exit::Out(self.output)) {
            Exit::Out(k) => Some(*k),
            Exit::Drop(_) => None,
        }
    }
}

/// One output of an element, as [`emit`] crosses it: a receptacle's
/// first binding, or its binding under a label, and the verdict each
/// packet takes while nothing is bound there.
#[derive(Debug)]
pub struct Output<'a> {
    port: &'a Receptacle<dyn IPacketPush>,
    label: Option<&'a str>,
    unbound: PushResult,
}

impl<'a> Output<'a> {
    /// The first binding of `port`.
    #[inline]
    pub fn new(port: &'a Receptacle<dyn IPacketPush>, unbound: PushResult) -> Self {
        Self {
            port,
            label: None,
            unbound,
        }
    }

    /// The binding under `label` instead.
    pub(crate) fn labelled(self, label: &'a str) -> Self {
        Self {
            label: Some(label),
            ..self
        }
    }

    #[inline]
    fn cross(&self, batch: PacketBatch) -> BatchResult {
        let n = batch.len();
        let push = |next: &(dyn IPacketPush + 'static)| next.push_batch(batch);
        match self.label {
            None => self.port.with_bound(push),
            Some(label) => self.port.with_labelled(label, push),
        }
        .unwrap_or_else(|| BatchResult::from(vec![self.unbound.clone(); n]))
    }
}

/// The one way out of an element, and the one home of the batch
/// contract's ordering rule: sends each packet of `batch` where `exits`
/// says and returns one verdict per packet, in batch order.
///
/// Each output's packets cross its binding once, in batch order;
/// outputs are crossed in the order `outputs` lists them, and one no
/// packet takes is not crossed. Downstream verdicts land back on their
/// own packets. When every packet takes the output `exits` was made
/// with, the batch moves on whole and nothing is allocated here; an
/// empty batch goes nowhere.
///
/// # Panics
///
/// Panics if `exits` names a packet past the end of `batch` or an
/// output past the end of `outputs`.
pub fn emit(mut batch: PacketBatch, exits: &Exits, outputs: &[Output<'_>]) -> BatchResult {
    assert!(exits.each.len() <= batch.len(), "an exit past the batch");
    if batch.is_empty() {
        return BatchResult::default();
    } else if exits.each.is_empty() {
        return outputs[exits.output].cross(batch);
    }
    let rest = Exit::Out(exits.output);
    let each = || exits.each.iter().chain(std::iter::repeat(&rest));
    let mut result = BatchResult::ok(batch.len());
    let mut parts: Vec<PacketBatch> = outputs.iter().map(|_| PacketBatch::new()).collect();
    for ((pkt, exit), verdict) in batch.drain_all().zip(each()).zip(&mut result.verdicts) {
        match exit {
            Exit::Out(k) => parts[*k].push(pkt),
            Exit::Drop(drop) => *verdict = drop.clone(),
        }
    }
    // Each output's verdicts, in its batch order, land on the packets
    // that took it.
    for (k, (output, part)) in outputs.iter().zip(parts).enumerate() {
        if part.is_empty() {
            continue;
        }
        let mut sub = output.cross(part).verdicts.into_iter();
        for (verdict, exit) in result.verdicts.iter_mut().zip(each()) {
            if *exit == Exit::Out(k) {
                *verdict = sub.next().expect("one verdict per packet");
            }
        }
    }
    result
}

/// Push-oriented inter-component packet transfer (Fig. 2), batch-first.
///
/// Minimal complete definition: [`Self::push`] or
/// [`Self::push_batch`]. Each has a default written in terms of the
/// other, so an impl states its semantics once — the library's elements
/// as a batch, a Fig-2 component as a scalar `push` — and overriding
/// neither recurses forever.
pub trait IPacketPush: Send + Sync {
    /// Accepts a packet, consuming it: the batch of one.
    ///
    /// The default wraps the packet in a one-packet batch, calls
    /// [`Self::push_batch`] and returns its single verdict.
    ///
    /// # Errors
    ///
    /// Returns a [`PushError`] if the packet was dropped rather than
    /// forwarded; counters distinguish drop *policy* from failure.
    fn push(&self, pkt: Packet) -> PushResult {
        self.push_batch(PacketBatch::from_packets(vec![pkt]))
            .verdicts
            .pop()
            .expect("push_batch returns one verdict per packet")
    }

    /// Accepts a batch, consuming it; returns one verdict per packet in
    /// batch order (see the module docs for the full contract).
    ///
    /// The default loops over [`Self::push`], so scalar components
    /// interoperate with batch producers unchanged.
    fn push_batch(&self, batch: PacketBatch) -> BatchResult {
        let mut result = BatchResult::with_capacity(batch.len());
        for pkt in batch {
            result.record(self.push(pkt));
        }
        result
    }
}

/// Pull-oriented inter-component packet transfer (Fig. 2), batch-first.
///
/// Minimal complete definition: [`Self::pull`] or
/// [`Self::pull_batch`], as for [`IPacketPush`].
pub trait IPacketPull: Send + Sync {
    /// Yields the next packet, if one is ready: the one packet of
    /// [`Self::pull_batch`]`(1)`, which the default returns.
    fn pull(&self) -> Option<Packet> {
        self.pull_batch(1).pop()
    }

    /// Yields up to `max` ready packets, in the order [`Self::pull`]
    /// would have produced them. May return fewer (including an empty
    /// batch) when the source runs dry.
    ///
    /// The default loops over [`Self::pull`].
    fn pull_batch(&self, max: usize) -> PacketBatch {
        let mut batch = PacketBatch::with_capacity(max.min(64));
        while batch.len() < max {
            match self.pull() {
                Some(pkt) => batch.push(pkt),
                None => break,
            }
        }
        batch
    }
}

/// Identifies an installed filter.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FilterId(pub u64);

static FILTER_IDS: AtomicU64 = AtomicU64::new(1);

impl FilterId {
    /// Allocates the next filter id.
    pub fn next() -> Self {
        Self(FILTER_IDS.fetch_add(1, Ordering::Relaxed))
    }
}

/// The match half of a filter: every populated field must match.
/// Renders as `any` or its populated fields (`src=10.0.0.0/8
/// dport=0-999`).
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct FilterPattern {
    /// Source prefix `(address, prefix_len)`.
    pub src_prefix: Option<(IpAddr, u8)>,
    /// Destination prefix `(address, prefix_len)`.
    pub dst_prefix: Option<(IpAddr, u8)>,
    /// IP protocol number.
    pub protocol: Option<u8>,
    /// Inclusive source-port range.
    pub src_ports: Option<(u16, u16)>,
    /// Inclusive destination-port range.
    pub dst_ports: Option<(u16, u16)>,
    /// Exact DSCP.
    pub dscp: Option<u8>,
}

fn prefix_matches(addr: IpAddr, prefix: (IpAddr, u8)) -> bool {
    let (net, len) = prefix;
    match (addr, net) {
        (IpAddr::V4(a), IpAddr::V4(n)) => {
            let len = len.min(32);
            if len == 0 {
                return true;
            }
            let mask = if len == 32 {
                u32::MAX
            } else {
                !(u32::MAX >> len)
            };
            (u32::from(a) & mask) == (u32::from(n) & mask)
        }
        (IpAddr::V6(a), IpAddr::V6(n)) => {
            let len = len.min(128);
            if len == 0 {
                return true;
            }
            let mask = if len == 128 {
                u128::MAX
            } else {
                !(u128::MAX >> len)
            };
            (u128::from(a) & mask) == (u128::from(n) & mask)
        }
        _ => false,
    }
}

impl FilterPattern {
    /// A pattern that matches everything.
    pub fn any() -> Self {
        Self::default()
    }

    /// Requires the source address to fall in `prefix` (builder-style).
    ///
    /// # Panics
    ///
    /// Panics on a malformed address literal; for untrusted input,
    /// parse it with `IpAddr::from_str` and set
    /// [`Self::src_prefix`].
    pub fn src(mut self, prefix: &str, len: u8) -> Self {
        self.src_prefix = Some((prefix.parse().expect("valid address"), len));
        self
    }

    /// Requires the destination address to fall in `prefix`
    /// (builder-style).
    ///
    /// # Panics
    ///
    /// Panics on a malformed address literal; for untrusted input,
    /// parse it with `IpAddr::from_str` and set
    /// [`Self::dst_prefix`].
    pub fn dst(mut self, prefix: &str, len: u8) -> Self {
        self.dst_prefix = Some((prefix.parse().expect("valid address"), len));
        self
    }

    /// Requires the IP protocol (builder-style).
    pub fn protocol(mut self, proto: u8) -> Self {
        self.protocol = Some(proto);
        self
    }

    /// Requires the destination port to fall in `[lo, hi]` (builder-style).
    pub fn dst_port_range(mut self, lo: u16, hi: u16) -> Self {
        self.dst_ports = Some((lo, hi));
        self
    }

    /// Requires an exact DSCP (builder-style).
    pub fn dscp(mut self, dscp: u8) -> Self {
        self.dscp = Some(dscp);
        self
    }

    /// Evaluates the pattern against a flow tuple and DSCP.
    pub fn matches(&self, flow: &FlowKey, dscp: u8) -> bool {
        if let Some(p) = self.src_prefix {
            if !prefix_matches(flow.src, p) {
                return false;
            }
        }
        if let Some(p) = self.dst_prefix {
            if !prefix_matches(flow.dst, p) {
                return false;
            }
        }
        if let Some(proto) = self.protocol {
            if flow.protocol != proto {
                return false;
            }
        }
        if let Some((lo, hi)) = self.src_ports {
            if !(lo..=hi).contains(&flow.src_port) {
                return false;
            }
        }
        if let Some((lo, hi)) = self.dst_ports {
            if !(lo..=hi).contains(&flow.dst_port) {
                return false;
            }
        }
        if let Some(d) = self.dscp {
            if d != dscp {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for FilterPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if let Some((a, l)) = self.src_prefix {
            parts.push(format!("src={a}/{l}"));
        }
        if let Some((a, l)) = self.dst_prefix {
            parts.push(format!("dst={a}/{l}"));
        }
        if let Some(p) = self.protocol {
            parts.push(format!("proto={p}"));
        }
        if let Some((lo, hi)) = self.src_ports {
            parts.push(format!("sport={lo}-{hi}"));
        }
        if let Some((lo, hi)) = self.dst_ports {
            parts.push(format!("dport={lo}-{hi}"));
        }
        if let Some(d) = self.dscp {
            parts.push(format!("dscp={d}"));
        }
        if parts.is_empty() {
            f.write_str("any")
        } else {
            f.write_str(&parts.join(" "))
        }
    }
}

/// A complete filter: pattern, the named output to emit matches on, and
/// a priority (higher wins; ties broken by installation order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FilterSpec {
    /// What to match.
    pub pattern: FilterPattern,
    /// The labelled output (`IPacketPush` receptacle label) for matches.
    pub output: String,
    /// Priority; higher-priority filters are consulted first.
    pub priority: i32,
}

impl FilterSpec {
    /// Creates a filter emitting matches on `output`.
    pub fn new(pattern: FilterPattern, output: impl Into<String>, priority: i32) -> Self {
        Self {
            pattern,
            output: output.into(),
            priority,
        }
    }
}

/// The classifier control interface (Fig. 2): install/remove packet
/// filters at run time. Components exporting this must "honour the
/// semantics of installed filter specifications in terms of the
/// particular named outgoing … interface(s) on which each incoming packet
/// should be emitted" (paper §5) — behaviour the Router CF's tests
/// verify.
pub trait IClassifier: Send + Sync {
    /// Installs a filter; returns its id.
    ///
    /// # Errors
    ///
    /// Fails if the named output does not exist on the component.
    fn register_filter(&self, spec: FilterSpec) -> Result<FilterId>;

    /// Removes a filter.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::StaleReference`] for unknown ids.
    fn remove_filter(&self, id: FilterId) -> Result<()>;

    /// Lists installed filters, highest priority first.
    fn filters(&self) -> Vec<(FilterId, FilterSpec)>;
}

/// The observation-window interface: exported by a component that
/// keeps a per-window budget (the heavy-hitter
/// [`Guard`](crate::flow::Guard) is the one implementor). The control
/// plane owns the window boundary —
/// [`ShardedPipeline::control_turn`](crate::shard::ShardedPipeline::control_turn)
/// finds every exporter through the interface meta-model and closes
/// its window at the top of each turn, so a component placed in a
/// graph by a factory, a description, a patch or a respawn is kept on
/// the loop's cadence without its host registering anything.
pub trait IWindow: Send + Sync {
    /// Closes the current observation window: budgets spent in it
    /// refill.
    fn close_window(&self);

    /// Windows closed so far — how an observer holding only the
    /// interface checks the component is on the loop's cadence.
    fn windows(&self) -> u64;
}

/// The match-action table interface, exported by every element that
/// owns a table a description fills (classifier filters, route
/// prefixes, balancer backends). The element decides what an entry
/// means — which row it names — so the description applier keeps no
/// copy of that: it finds this interface in the interface meta-model.
pub trait ITable: Send + Sync {
    /// Installs `entry` or updates the row it names — an upsert:
    /// putting an installed entry is a no-op.
    ///
    /// # Errors
    ///
    /// Fails, changing nothing, on an entry of another table kind or
    /// one the element cannot read.
    fn put(&self, entry: &TableEntry) -> Result<()>;

    /// Removes an installed entry.
    ///
    /// # Errors
    ///
    /// Fails, changing nothing, on an entry that is not installed.
    fn del(&self, entry: &TableEntry) -> Result<()>;
}

// ---- interception wrappers --------------------------------------------

struct PushWrapper {
    target: Arc<dyn IPacketPush>,
    chain: Arc<InterceptorChain>,
}

impl IPacketPush for PushWrapper {
    fn push_batch(&self, batch: PacketBatch) -> BatchResult {
        // One interceptor-chain traversal per batch — a scalar `push`
        // is a batch of one and crosses it here too. A veto applies to
        // the batch as a unit: every packet gets the veto verdict.
        let n = batch.len();
        match self
            .chain
            .around("push_batch", || self.target.push_batch(batch))
        {
            Ok(inner) => inner,
            Err(veto) => BatchResult::err(n, PushError::Veto(veto.to_string())),
        }
    }
}

struct PullWrapper {
    target: Arc<dyn IPacketPull>,
    chain: Arc<InterceptorChain>,
}

impl IPacketPull for PullWrapper {
    fn pull_batch(&self, max: usize) -> PacketBatch {
        // One chain traversal per batch; a veto yields an empty batch
        // (a vetoed scalar `pull` therefore yields `None`).
        self.chain
            .around("pull_batch", || self.target.pull_batch(max))
            .unwrap_or_default()
    }
}

// ---- IPC stub/skeleton ---------------------------------------------------

/// Marshals a packet (frame bytes + the meta fields that matter across a
/// capsule boundary) into the IPC wire form.
fn encode_packet(pkt: &Packet) -> Vec<u8> {
    let mut out = Vec::with_capacity(pkt.len() + 32);
    wire::put_bytes(&mut out, pkt.data());
    wire::put_u64(
        &mut out,
        pkt.meta.ingress.map(|p| p as u64 + 1).unwrap_or(0),
    );
    wire::put_u64(&mut out, pkt.meta.timestamp_ns);
    wire::put_u64(&mut out, pkt.meta.dscp.map(|d| d as u64 + 1).unwrap_or(0));
    out
}

/// Reconstructs a packet from the IPC wire form.
fn decode_packet(buf: &[u8]) -> Option<Packet> {
    let mut pos = 0;
    let data = wire::get_bytes(buf, &mut pos)?;
    let ingress = wire::get_u64(buf, &mut pos)?;
    let timestamp = wire::get_u64(buf, &mut pos)?;
    let dscp = wire::get_u64(buf, &mut pos)?;
    let mut pkt = Packet::from_slice(&data);
    pkt.meta.ingress = ingress.checked_sub(1).map(|p| p as u16);
    pkt.meta.timestamp_ns = timestamp;
    pkt.meta.dscp = dscp.checked_sub(1).map(|d| d as u8);
    Some(pkt)
}

/// Marshals a whole batch into one IPC payload: a count followed by the
/// length-prefixed per-packet encodings.
fn encode_batch(batch: &PacketBatch) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + batch.iter().map(|p| p.len() + 40).sum::<usize>());
    wire::put_u64(&mut out, batch.len() as u64);
    for pkt in batch {
        wire::put_bytes(&mut out, &encode_packet(pkt));
    }
    out
}

/// Reconstructs a batch from the IPC wire form.
fn decode_batch(buf: &[u8]) -> Option<PacketBatch> {
    let mut pos = 0;
    let count = wire::get_u64(buf, &mut pos)? as usize;
    // Cap the pre-allocation against adversarial counts; the loop below
    // still decodes exactly `count` packets or fails.
    let mut batch = PacketBatch::with_capacity(count.min(4096));
    for _ in 0..count {
        let encoded = wire::get_bytes(buf, &mut pos)?;
        batch.push(decode_packet(&encoded)?);
    }
    Some(batch)
}

fn encode_batch_result(result: &BatchResult) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + result.len() * 9);
    wire::put_u64(&mut out, result.len() as u64);
    for verdict in &result.verdicts {
        match verdict {
            Ok(()) => wire::put_u64(&mut out, 0),
            Err(e) => {
                wire::put_u64(&mut out, 1);
                wire::put_str(&mut out, &e.to_string());
            }
        }
    }
    out
}

fn decode_batch_result(buf: &[u8]) -> Option<BatchResult> {
    let mut pos = 0;
    let count = wire::get_u64(buf, &mut pos)? as usize;
    let mut result = BatchResult::with_capacity(count.min(4096));
    for _ in 0..count {
        match wire::get_u64(buf, &mut pos)? {
            0 => result.record(Ok(())),
            _ => {
                let msg = wire::get_str(buf, &mut pos)?;
                result.record(Err(PushError::Veto(msg)));
            }
        }
    }
    Some(result)
}

/// Client-side proxy: an [`IPacketPush`] that marshals into an isolated
/// capsule.
struct PushProxy {
    client: Arc<IpcClient>,
}

impl PushProxy {
    /// Creates a proxy over an IPC client.
    fn new(client: Arc<IpcClient>) -> Self {
        Self { client }
    }
}

impl IPacketPush for PushProxy {
    fn push_batch(&self, batch: PacketBatch) -> BatchResult {
        // One marshalled round-trip for the whole batch — the isolated
        // component pays one capsule-boundary crossing per burst instead
        // of per packet.
        let n = batch.len();
        if n == 0 {
            return BatchResult::default();
        }
        let reply = match self
            .client
            .call(IPACKET_PUSH.name(), "push_batch", encode_batch(&batch))
        {
            Ok(reply) => reply,
            Err(e) => return BatchResult::err(n, PushError::from(e)),
        };
        match decode_batch_result(&reply) {
            Some(result) if result.len() == n => result,
            _ => BatchResult::err(n, PushError::Crashed("bad batch ipc reply".into())),
        }
    }
}

impl fmt::Debug for PushProxy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PushProxy({:?})", self.client)
    }
}

/// Host-side skeleton: exposes any [`IPacketPush`] over IPC.
pub struct PushSkeleton {
    target: Arc<dyn IPacketPush>,
}

impl PushSkeleton {
    /// Wraps a concrete push component for out-of-capsule hosting.
    pub fn new(target: Arc<dyn IPacketPush>) -> Arc<Self> {
        Arc::new(Self { target })
    }
}

impl IpcDispatch for PushSkeleton {
    fn dispatch(
        &self,
        _interface: &str,
        method: &str,
        payload: &[u8],
    ) -> std::result::Result<Vec<u8>, String> {
        match method {
            "push_batch" => {
                let batch = decode_batch(payload).ok_or("bad batch encoding")?;
                Ok(encode_batch_result(&self.target.push_batch(batch)))
            }
            other => Err(format!("no method `{other}`")),
        }
    }
}

impl fmt::Debug for PushSkeleton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PushSkeleton")
    }
}

// ---- runtime registration ----------------------------------------------

/// Registers everything the packet interfaces need with a runtime:
/// interface descriptors (introspection), interceptor wrapper factories
/// (interception meta-model), and the `IPacketPush` IPC proxy factory
/// (isolation).
pub fn register_packet_interfaces(rt: &Runtime) {
    rt.interfaces().register(
        InterfaceDescriptor::new(
            IPACKET_PUSH,
            Version::new(2, 0, 0),
            "push-oriented packet transfer (batch-first)",
        )
        .method(
            "push",
            &[("pkt", "Packet")],
            "PushResult",
            "accept a packet",
        )
        .method(
            "push_batch",
            &[("batch", "PacketBatch")],
            "BatchResult",
            "accept a batch; one verdict per packet in batch order",
        ),
    );
    rt.interfaces().register(
        InterfaceDescriptor::new(
            IWINDOW,
            Version::new(1, 0, 0),
            "per-window budget upkeep, driven by the control turn",
        )
        .method(
            "close_window",
            &[],
            "()",
            "close the observation window; budgets refill",
        )
        .method("windows", &[], "u64", "windows closed so far"),
    );
    rt.interfaces().register(
        InterfaceDescriptor::new(
            ITABLE,
            Version::new(1, 0, 0),
            "match-action table upkeep; the owning element reads the entries",
        )
        .method("put", &[("entry", "TableEntry")], "()", "install or update")
        .method("del", &[("entry", "TableEntry")], "()", "remove"),
    );
    rt.interfaces().register(
        InterfaceDescriptor::new(
            IPACKET_PULL,
            Version::new(2, 0, 0),
            "pull-oriented packet transfer (batch-first)",
        )
        .method("pull", &[], "Option<Packet>", "yield the next ready packet")
        .method(
            "pull_batch",
            &[("max", "usize")],
            "PacketBatch",
            "yield up to `max` ready packets in pull order",
        ),
    );
    rt.interfaces().register(
        InterfaceDescriptor::new(
            ICLASSIFIER,
            Version::new(1, 0, 0),
            "run-time packet filter management",
        )
        .method(
            "register_filter",
            &[("spec", "FilterSpec")],
            "FilterId",
            "install a filter",
        )
        .method(
            "remove_filter",
            &[("id", "FilterId")],
            "()",
            "remove a filter",
        )
        .method(
            "filters",
            &[],
            "Vec<(FilterId, FilterSpec)>",
            "list filters",
        ),
    );

    rt.interceptors().register(
        IPACKET_PUSH,
        Box::new(|target, chain| {
            let inner: Arc<dyn IPacketPush> = target.downcast().expect("IPacketPush");
            let provider = target.provider();
            let wrapped: Arc<dyn IPacketPush> = Arc::new(PushWrapper {
                target: inner,
                chain,
            });
            InterfaceRef::new(IPACKET_PUSH, provider, wrapped)
        }),
    );
    rt.interceptors().register(
        IPACKET_PULL,
        Box::new(|target, chain| {
            let inner: Arc<dyn IPacketPull> = target.downcast().expect("IPacketPull");
            let provider = target.provider();
            let wrapped: Arc<dyn IPacketPull> = Arc::new(PullWrapper {
                target: inner,
                chain,
            });
            InterfaceRef::new(IPACKET_PULL, provider, wrapped)
        }),
    );

    rt.isolation().register_proxy(
        IPACKET_PUSH,
        Box::new(|client, provider: ComponentId| {
            let proxy: Arc<dyn IPacketPush> = Arc::new(PushProxy::new(client));
            InterfaceRef::new(IPACKET_PUSH, provider, proxy)
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_packet::headers::proto;
    use netkit_packet::packet::PacketBuilder;

    fn flow(src: &str, dst: &str, sport: u16, dport: u16, protocol: u8) -> FlowKey {
        FlowKey {
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            protocol,
            src_port: sport,
            dst_port: dport,
        }
    }

    #[test]
    fn empty_pattern_matches_anything() {
        let p = FilterPattern::any();
        assert!(p.matches(&flow("10.0.0.1", "8.8.8.8", 1, 2, proto::UDP), 0));
        assert!(p.matches(&flow("2001:db8::1", "2001:db8::2", 0, 0, proto::TCP), 63));
    }

    #[test]
    fn prefix_matching_v4() {
        let p = FilterPattern::any().dst("10.1.0.0", 16);
        assert!(p.matches(&flow("1.1.1.1", "10.1.200.3", 0, 0, 0), 0));
        assert!(!p.matches(&flow("1.1.1.1", "10.2.0.1", 0, 0, 0), 0));
        let exact = FilterPattern::any().dst("10.1.2.3", 32);
        assert!(exact.matches(&flow("1.1.1.1", "10.1.2.3", 0, 0, 0), 0));
        assert!(!exact.matches(&flow("1.1.1.1", "10.1.2.4", 0, 0, 0), 0));
        let all = FilterPattern::any().dst("0.0.0.0", 0);
        assert!(all.matches(&flow("1.1.1.1", "255.255.255.255", 0, 0, 0), 0));
    }

    #[test]
    fn prefix_matching_v6_and_family_mismatch() {
        let p = FilterPattern::any().dst("2001:db8::", 32);
        assert!(p.matches(&flow("::1", "2001:db8::42", 0, 0, 0), 0));
        assert!(!p.matches(&flow("::1", "2001:db9::42", 0, 0, 0), 0));
        // v4 address never matches a v6 prefix.
        assert!(!p.matches(&flow("10.0.0.1", "10.0.0.2", 0, 0, 0), 0));
    }

    #[test]
    fn port_ranges_and_protocol() {
        let p = FilterPattern::any()
            .protocol(proto::UDP)
            .dst_port_range(5000, 5010);
        assert!(p.matches(&flow("1.1.1.1", "2.2.2.2", 9, 5005, proto::UDP), 0));
        assert!(!p.matches(&flow("1.1.1.1", "2.2.2.2", 9, 5011, proto::UDP), 0));
        assert!(!p.matches(&flow("1.1.1.1", "2.2.2.2", 9, 5005, proto::TCP), 0));
    }

    #[test]
    fn dscp_match() {
        let p = FilterPattern::any().dscp(46);
        assert!(p.matches(&flow("1.1.1.1", "2.2.2.2", 0, 0, 0), 46));
        assert!(!p.matches(&flow("1.1.1.1", "2.2.2.2", 0, 0, 0), 0));
    }

    #[test]
    fn packet_codec_roundtrip() {
        let mut pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.9", 5, 6)
            .payload(b"abc")
            .build();
        pkt.meta.ingress = Some(2);
        pkt.meta.timestamp_ns = 12345;
        pkt.meta.dscp = Some(46);
        let encoded = encode_packet(&pkt);
        let back = decode_packet(&encoded).unwrap();
        assert_eq!(back.data(), pkt.data());
        assert_eq!(back.meta.ingress, Some(2));
        assert_eq!(back.meta.timestamp_ns, 12345);
        assert_eq!(back.meta.dscp, Some(46));
        assert!(decode_packet(&encoded[..encoded.len() - 1]).is_none());
    }

    #[test]
    fn packet_codec_handles_absent_meta() {
        let pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.9", 5, 6).build();
        let back = decode_packet(&encode_packet(&pkt)).unwrap();
        assert_eq!(back.meta.ingress, None);
        assert_eq!(back.meta.dscp, None);
    }

    #[test]
    fn push_error_conversions() {
        let e: PushError = Error::ComponentCrashed {
            component: ComponentId::from_raw(1),
            message: "boom".into(),
        }
        .into();
        assert!(matches!(e, PushError::Crashed(_)));
        let e2: PushError = Error::ConstraintVeto {
            constraint: "x".into(),
            reason: "y".into(),
        }
        .into();
        assert!(matches!(e2, PushError::Veto(_)));
        let e3: PushError = ParseError::BadChecksum { header: "ipv4" }.into();
        assert!(matches!(e3, PushError::Malformed(_)));
    }

    /// The `ITable` contract, over every implementor, reached the way
    /// the description applier reaches it (the interface meta-model): a
    /// put is an upsert, a del of an absent entry is an error, and an
    /// entry of another kind is an error that installs nothing.
    #[test]
    fn every_table_keeps_the_itable_contract() {
        use crate::desc::TableEntry;
        use crate::elements::{ClassifierEngine, Discard, RouteLookup};
        use crate::flow::L4LoadBalancer;
        use opencom::capsule::Capsule;

        let rt = Runtime::new();
        register_packet_interfaces(&rt);
        let capsule = Capsule::new("t", &rt);
        let filter = TableEntry::Filter {
            pattern: FilterPattern::any().protocol(proto::TCP),
            output: "tcp".into(),
            priority: 1,
        };
        let route = TableEntry::Route {
            prefix: "10.0.0.0/8".parse().unwrap(),
            egress: 0,
        };
        let backend = TableEntry::Backend {
            ip: "10.1.0.1".parse().unwrap(),
            port: 8080,
        };
        let classifier = ClassifierEngine::new();
        let router = RouteLookup::new();
        let balancer = L4LoadBalancer::new("10.0.7.9".parse().unwrap(), 443, 16, u64::MAX);
        let cid = capsule.adopt(classifier.clone()).unwrap();
        let sink = capsule.adopt(Discard::new()).unwrap();
        capsule.bind(cid, "out", "tcp", sink, IPACKET_PUSH).unwrap();
        // The route element's rows, read the way traffic reads them.
        let routed = || {
            let probe = PacketBuilder::udp_v4("9.9.9.9", "10.1.2.3", 1, 2).build();
            usize::from(router.push(probe) != Err(PushError::NoRoute))
        };
        type Rows<'a> = Box<dyn Fn() -> usize + 'a>;
        let cases: [(ComponentId, &TableEntry, Rows<'_>); 3] = [
            (cid, &filter, Box::new(|| classifier.filters().len())),
            (
                capsule.adopt(router.clone()).unwrap(),
                &route,
                Box::new(routed),
            ),
            (
                capsule.adopt(balancer.clone()).unwrap(),
                &backend,
                Box::new(|| balancer.backends().len()),
            ),
        ];
        for (id, own, rows) in cases {
            let table: Arc<dyn ITable> = capsule
                .query_interface(id, ITABLE)
                .unwrap()
                .downcast()
                .unwrap();
            for foreign in [&filter, &route, &backend]
                .into_iter()
                .filter(|e| e != &own)
            {
                let err = table.put(foreign).unwrap_err();
                assert!(matches!(err, Error::CfViolation { .. }), "{err}");
                assert!(table.del(foreign).is_err(), "{own:?} / {foreign:?}");
                assert_eq!(rows(), 0, "{foreign:?} installed nothing");
            }
            table.put(own).unwrap();
            table.put(own).unwrap();
            assert_eq!(rows(), 1, "a put twice leaves one {own:?}");
            table.del(own).unwrap();
            assert_eq!(rows(), 0);
            let err = table.del(own).unwrap_err();
            assert!(matches!(err, Error::StaleReference { .. }), "{err}");
        }
    }

    #[test]
    fn registration_populates_runtime() {
        let rt = Runtime::new();
        register_packet_interfaces(&rt);
        assert!(rt.interfaces().contains(IPACKET_PUSH));
        assert!(rt.interfaces().contains(IPACKET_PULL));
        assert!(rt.interfaces().contains(ICLASSIFIER));
        assert!(rt.interfaces().contains(ITABLE));
        assert!(rt.interceptors().supports(IPACKET_PUSH));
        assert!(rt.interceptors().supports(IPACKET_PULL));
        assert!(rt.isolation().supports_interface(IPACKET_PUSH));
        let d = rt.interfaces().describe(ICLASSIFIER).unwrap();
        assert!(d.find_method("register_filter").is_some());
    }
}
