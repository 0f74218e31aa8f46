//! The stateful flow subsystem: per-shard flow tables and the
//! stateful elements built on them.
//!
//! Stratum 3 of the paper operates on "pre-selected packet flows in
//! application-specific ways"; this module supplies the per-flow
//! *state* those services need at dataplane rates:
//!
//! * [`FlowTable`] — a bounded, slab-backed, O(1)-LRU table keyed by
//!   the canonical bidirectional
//!   [`FlowKey`](netkit_packet::flow::FlowKey). **Single-writer by
//!   construction**: [`FlowKey::rss_hash`](netkit_packet::flow::FlowKey::rss_hash)
//!   hashes the canonical (sorted-endpoint) tuple, so both directions
//!   of a connection steer to one shard, and each shard's table is
//!   touched by exactly one worker — no per-lookup synchronisation is
//!   needed, the table is plain mutable state. Its index is probed
//!   with that same hash, handed in by the caller — no element hashes
//!   a key on the packet path (layout in the [`FlowTable`] docs).
//! * [`ConnTracker`] — new / established / closing connection state
//!   with per-direction packet and byte counters.
//! * [`Nat44`] — source NAT with deterministic port-block allocation
//!   and paired forward/reverse entries.
//! * [`L4LoadBalancer`] — virtual-IP load balancing with a
//!   rendezvous-hash backend pick, flow-table stickiness, and
//!   backend draining.
//! * [`Guard`] — inline heavy-hitter overload protection: one
//!   lock-free sketch read admits benign flows untouched, flows past
//!   the byte threshold spend a per-window budget, and a
//!   [`ConnTracker`]-fed SYN defence arms under half-open pressure.
//!
//! # Parse once, probe once
//!
//! No element here parses a frame it was handed by the rx path. The
//! NIC (or `stamp_rss` for software-built packets) parses each frame
//! once into a [`ParsedFlow`](netkit_packet::flow::ParsedFlow) record
//! — tuple as on the wire, TCP flags, fragment marker, and the
//! tuple's `rss_hash` — carried in `PacketMeta::flow`. Elements read
//! it through [`ParsedFlow::of`](netkit_packet::flow::ParsedFlow::of)
//! (NAT, load balancer: IPv4 only) or
//! [`FlowView::of`](netkit_packet::flow::FlowView::of) (guard,
//! conntrack, classifier: any family), which fall back to one parse
//! only for a packet nobody stamped. [`rewrite_ipv4_endpoint`] patches
//! the record when it rewrites the tuple, so the element after a NAT
//! reads the translated tuple, again without parsing. The table hash
//! is always the record's (or `FlowKey::rss_hash` of a key built
//! here), never `PacketMeta::rss_hash`: that one is a steering
//! decision and may be anything a driver chose.
//!
//! Each element then probes its table **once** per packet on the hit
//! path, and adds to its shared counters once per batch.
//!
//! IPv4 **fragments** are port-less (all fragments of a datagram share
//! one 3-tuple key, hash and shard): conntrack and the guard track
//! them as such, NAT and the load balancer pass them through.
//!
//! # State across rebalances
//!
//! When the control plane migrates a bucket
//! ([`ShardedPipeline::install_bucket_map`](crate::shard::ShardedPipeline::install_bucket_map)),
//! flow state is **not copied** between shards — each shard's table
//! is private to its worker, and quiescing a migration to copy state
//! would serialise the dataplane. Instead every element is designed
//! so state is **re-established deterministically** from the packet
//! stream on the new shard:
//!
//! * [`ConnTracker`] infers `Established` from any mid-connection TCP
//!   segment (ACK without SYN), so a migrated connection never
//!   regresses to `New`;
//! * [`Nat44`]'s port allocation is a pure function of the flow hash
//!   and the allocator's free set, so a re-created binding prefers
//!   the same external port;
//! * [`L4LoadBalancer`]'s rendezvous hash re-picks the same backend
//!   for the same flow whenever the backend set is unchanged.
//!
//! The old shard's entries age out via the idle timeout / LRU bound.
//!
//! # Time
//!
//! Tables are time-agnostic: every operation takes a `now` tick.
//! Elements derive ticks from [`FlowClock`], which folds the packet's
//! [`timestamp_ns`](netkit_packet::packet::PacketMeta::timestamp_ns)
//! into a monotone logical clock — deterministic in simulation
//! (stamped time) and still strictly advancing when frames carry no
//! timestamps (tick per packet).

mod conntrack;
mod guard;
mod lb;
mod nat;
mod rewrite;
mod table;

pub use conntrack::{ConnInfo, ConnState, ConnTracker};
pub use guard::{Guard, GuardConfig, GuardStats};
pub use lb::{BackendStats, L4LoadBalancer, LbStats, IBALANCER};
pub use nat::{Nat44, Nat44Config, Nat44Stats};
pub use rewrite::{rewrite_ipv4_endpoint, RewriteSide};
pub use table::{Admission, FlowClock, FlowTable, FlowTableStats, MAX_FLOW_CAPACITY};
