//! # NETKIT-RS — reflective middleware-based programmable networking
//!
//! A Rust reproduction of *"Reflective Middleware-based Programmable
//! Networking"* (Coulson, Blair, Gomes, Joolia, Lee, Ueyama, Ye —
//! Lancaster University; 2nd Intl. Workshop on Reflective and Adaptive
//! Middleware, Middleware 2003).
//!
//! The paper proposes building **every stratum** of a programmable
//! network node — OS support, in-band packet functions, active-network
//! services, and out-of-band signaling — from one reflective,
//! fine-grained component model (**OpenCOM**) structured by **component
//! frameworks** (CFs). This workspace rebuilds that stack:
//!
//! | Stratum (paper Fig. 1) | Crate | What's inside |
//! |---|---|---|
//! | — component model | [`opencom`] | components, receptacles, `bind`, capsules, CFs, four meta-models (architecture, interface, interception, resources), registry, isolation |
//! | 1 hardware abstraction | [`kernel`] | virtual time, pluggable-scheduler executor, memory accounting, simulated multi-queue NICs (RSS indirection table, pooled zero-copy rx `rx_burst_batch` **and** tx `send_tx_packet`/`tx_burst_packets`/`drain_tx_frame` — one frame path, one storage type), the sharded run-to-completion worker pool (`shard::WorkerPool` + epoch quiesce + ring load meters), IXP1200 placement model |
//! | 2 in-band functions | [`router`] | the **Router CF** (rules R1–R3), batch-first Fig-2 interfaces (`IPacketPush`/`IPacketPull` with `push_batch`/`pull_batch`, `IClassifier`), Fig-3 composites with controllers, the element library, LPM routing, the sharded dataplane (`shard::ShardedPipeline`: per-worker graph replicas, table-driven flow-affine dispatch, one logical reflection surface) and its reflective load balancer (`shard::rebalance`) |
//! | 3 application services | [`services`] | ANTS-like execution environment (capsules, code cache, budgets), demo programs, per-flow media filters (batch-aware) |
//! | 4 coordination | [`signaling`] | RSVP-style reservations, Genesis-style spawning networks |
//! | comparators | [`baselines`] | Click-like static router and monolithic forwarder, each with burst entry points (the ledger in `benchmark/` prices them beside the sharded pipeline) |
//! | substrate | [`sim`] | deterministic discrete-event network simulator; same-instant arrivals coalesce into `on_batch` deliveries; `pipeline::PipelineNode` hosts the threaded driver's own `ShardedPipeline` with no drainers, so a node runs the real dataplane deterministically |
//!
//! **Start with [`ARCHITECTURE.md`](../../../ARCHITECTURE.md) in the
//! repository root** — the top-level map of the 9 crates, the
//! batch-first API, the sharded execution model (rings, quiesce
//! epochs, RSS buckets), the zero-copy/pooling invariants, and where
//! the reflective meta-objects (interception, ResourceManager, the
//! rebalancer) hook in. Measured results: `benchmark/README.md` for
//! the wire-to-wire ledger, `crates/bench/NOTES.md` for the paper's
//! own criterion series and the ones the ledger superseded.
//!
//! ## The batch-first dataplane
//!
//! The packet interfaces move [`PacketBatch`](packet::batch::PacketBatch)es:
//! one receptacle traversal, one interceptor-chain pass, and one IPC
//! round-trip (for isolated components) carry a whole burst. Per-packet
//! semantics are unchanged — `push_batch` returns a
//! [`BatchResult`](router::api::BatchResult) with one verdict per packet
//! in batch order, and every element's batch path is differentially
//! tested against its scalar path. Scalar `push`/`pull` remain as the
//! batch of one, and default implementations keep scalar-only
//! third-party components working unchanged. See
//! [`router::api`] for the full ordering and partial-failure contract.
//!
//! ## The sharded runtime and the zero-copy hot path
//!
//! Above the batch API sits the multi-core execution model
//! ([`kernel::shard`] + [`router::shard`]): N run-to-completion worker
//! threads, each owning one SPSC ring and one *replica* of the element
//! graph, fed by RSS flow-affine dispatch so every flow stays on one
//! worker and intra-flow order is preserved with nothing shared on the
//! fast path. Steering is **zero-copy**: every packet's RSS hash is
//! stamped once at materialisation
//! ([`packet::packet::PacketMeta::rss_hash`], written by the NIC rx
//! path or [`packet::batch::PacketBatch::stamp_rss`]), and
//! [`packet::batch::PacketBatch::shard_split_with`] steers a whole
//! batch with one counting-sort pass into a
//! [`ShardSplit`](packet::batch::ShardSplit) that leaves the original
//! packets where they are — no re-parse, no re-intern, no per-shard
//! re-materialisation on the dispatching thread; each worker gathers
//! its own slice off a refcounted
//! [`SharedShardRange`](packet::batch::SharedShardRange). Buffers
//! recycle instead of churning the allocator:
//! [`kernel::nic::Nic::with_buffer_pool`] leases rx frame slabs from
//! the buffer-management CF ([`packet::pool::BufferPool`]) and
//! [`kernel::nic::Nic::rx_burst_batch`] moves them into packets without
//! copying, while batch containers cycle through a
//! [`packet::batch::BatchPool`] freelist
//! ([`router::shard::ShardedPipeline::pump_nic`] drives one shard's rx
//! loop) — `tests/zero_copy_steady_state.rs` asserts the warm loop
//! allocates nothing per batch. Reflection is undisturbed: per-shard
//! counters roll up into a single resources-meta-model task, and
//! reconfiguration applies atomically across all shards through an
//! epoch quiesce (`ShardedPipeline::quiesce`) that parks every worker
//! at a batch boundary without dropping queued traffic. A sharded
//! pipeline with one worker is differentially tested to be
//! observationally identical to the single-threaded dataplane (and
//! zero shards ≡ one shard at every layer); with N workers, aggregate
//! counters and per-output multisets are identical and per-flow
//! sequences are preserved (`tests/sharded_equiv.rs`).
//!
//! Steering itself is **adaptive and autonomous**: every layer
//! consults one 256-entry bucket → shard indirection table
//! ([`packet::steer::BucketMap`], the software form of a hardware RSS
//! indirection table), and one reflective control path watches it.
//! [`router::shard::ShardedPipeline::control_turn`] peeks the bucket
//! load meters, ring pressure and flow sketches, asks a
//! [`router::shard::RebalanceController`] (one
//! [`router::shard::RebalancePolicy`], judged by a `weighted`,
//! `hysteresis` or `ewma` core) about skew — the elephant-flow case
//! where static hashing pins one worker while siblings idle — and
//! installs a better table through the same epoch quiesce as any
//! other reconfiguration, migrating whole buckets without losing,
//! duplicating, or reordering any flow (`tests/rebalance_elephant.rs`,
//! `crates/router/tests/proptest_rebalance.rs`). A spawned
//! [`router::shard::ControlLoop`] takes that turn on every tick of a
//! supervised [`kernel::task::PeriodicTask`], backing off while the
//! dataplane is balanced and migrating — rate-capped — when it is
//! not; its controller is hand-built or compiled from a pipeline
//! description (`tests/autonomous_control_soak.rs`,
//! `examples/autonomous_rebalance.rs`,
//! `examples/declarative_pipeline.rs`). The zero-copy story
//! extends through egress: `ToDevice` moves each packet's frame
//! storage onto the NIC tx ring with its pool lease intact
//! ([`kernel::nic::Nic::tx_burst_packets`]), and the wire side's
//! [`kernel::nic::Nic::drain_tx_frame`] recycles the slab after
//! serialising — the same buffer travels wire → rx → graph → tx →
//! wire untouched.
//!
//! ```
//! use std::sync::Arc;
//! use netkit::kernel::shard::ShardSpec;
//! use netkit::opencom::capsule::Capsule;
//! use netkit::opencom::meta::resources::{classes, ResourceManager};
//! use netkit::opencom::runtime::Runtime;
//! use netkit::packet::batch::PacketBatch;
//! use netkit::packet::packet::PacketBuilder;
//! use netkit::router::api::register_packet_interfaces;
//! use netkit::router::elements::{Counter, Discard};
//! use netkit::router::shard::{ShardGraph, ShardedPipeline};
//!
//! let rm = Arc::new(ResourceManager::new());
//! let pipe = ShardedPipeline::build("dataplane", ShardSpec::new(2), Arc::clone(&rm), |_| {
//!     let rt = Runtime::new();
//!     register_packet_interfaces(&rt);
//!     let capsule = Capsule::new("worker", &rt);
//!     let head = Counter::new();
//!     let sink = Discard::new();
//!     let hid = capsule.adopt(head.clone())?;
//!     let sid = capsule.adopt(sink)?;
//!     capsule.bind_simple(hid, "out", sid, netkit::router::IPACKET_PUSH)?;
//!     Ok(ShardGraph::new(Arc::clone(&capsule), head))
//! })?;
//!
//! let burst: PacketBatch = (0..64u16)
//!     .map(|i| PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1000 + i, 80).build())
//!     .collect();
//! pipe.dispatch(burst);   // RSS partition + per-shard queues
//! pipe.flush();           // run-to-completion barrier
//! assert_eq!(pipe.stats().packets, 64);
//! assert_eq!(rm.task_info(pipe.task())?.usage[classes::PACKETS], 64);
//! pipe.shutdown();
//! # Ok::<(), netkit::opencom::error::Error>(())
//! ```
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use netkit::opencom::capsule::Capsule;
//! use netkit::opencom::cf::Principal;
//! use netkit::opencom::runtime::Runtime;
//! use netkit::packet::batch::PacketBatch;
//! use netkit::packet::packet::PacketBuilder;
//! use netkit::router::api::{register_packet_interfaces, IPacketPush, IPACKET_PUSH};
//! use netkit::router::cf::RouterCf;
//! use netkit::router::elements::{ClassifierEngine, Discard};
//!
//! let rt = Runtime::new();
//! register_packet_interfaces(&rt);
//! let capsule = Capsule::new("node", &rt);
//! let cf = RouterCf::new("router", Arc::clone(&capsule));
//! let sys = Principal::system();
//!
//! let cls = capsule.adopt(ClassifierEngine::new())?;
//! let sink = capsule.adopt(Discard::new())?;
//! cf.plug(&sys, cls)?;
//! cf.plug(&sys, sink)?;
//! cf.bind(&sys, cls, "out", "default", sink, IPACKET_PUSH)?;
//!
//! let input: Arc<dyn IPacketPush> =
//!     capsule.query_interface(cls, IPACKET_PUSH)?.downcast().unwrap();
//!
//! // Scalar: the batch of one.
//! input.push(PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 5, 7).build()).unwrap();
//!
//! // Batched: one binding traversal moves the whole burst; the result
//! // carries one verdict per packet in batch order.
//! let burst: PacketBatch = (0..32)
//!     .map(|i| PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 5, 7000 + i).build())
//!     .collect();
//! let result = input.push_batch(burst);
//! assert_eq!(result.len(), 32);
//! assert!(result.all_ok());
//! # Ok::<(), netkit::opencom::error::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use netkit_baselines as baselines;
pub use netkit_kernel as kernel;
pub use netkit_packet as packet;
pub use netkit_router as router;
pub use netkit_services as services;
pub use netkit_signaling as signaling;
pub use netkit_sim as sim;
pub use opencom;
