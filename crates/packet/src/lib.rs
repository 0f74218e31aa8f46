//! # netkit-packet — packets, headers, buffers, flows
//!
//! The data-plane vocabulary shared by every NETKIT stratum:
//!
//! * [`packet`] — the [`Packet`] type (frame bytes +
//!   out-of-band metadata) and a workload-oriented builder.
//! * [`batch`] — [`PacketBatch`], the bulk-transfer unit of the
//!   batch-first dataplane API: ordered packets in one pool-recycled
//!   `Vec`, with the zero-copy shard split the dispatcher runs.
//! * [`headers`] — Ethernet/IPv4/IPv6/UDP/TCP parse + emit, with in-place
//!   fast-path mutators (TTL decrement, DSCP rewrite).
//! * [`checksum`] — RFC 1071 Internet checksum and RFC 1624 incremental
//!   update.
//! * [`pool`] — the buffer-management CF engine (two-class slab pools —
//!   full slabs and 256-byte ones for small frames — with recycling and
//!   resources-meta-model accounting).
//! * [`flow`] — 5-tuple flow keys, the RSS hash, and the parse-once flow
//!   record ([`flow::ParsedFlow`]) the rx path stamps into every packet.
//! * [`steer`] — the bucketized RSS steering layer: the 256-entry
//!   bucket → shard indirection table ([`steer::BucketMap`]) every
//!   steering surface shares, and the per-bucket load meters
//!   ([`steer::BucketLoad`]) that feed the reflective rebalancer.
//! * [`sketch`] — bounded-memory traffic summaries (count-min,
//!   Space-Saving top-k) recording per-flow *byte* weight; the
//!   heavy-hitter evidence that lets the rebalancer see an elephant
//!   inside an otherwise uniform bucket.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod checksum;
pub mod error;
pub mod flow;
pub mod headers;
pub mod packet;
pub mod pool;
pub mod sketch;
pub mod steer;

pub use batch::PacketBatch;
pub use error::{ParseError, ParseResult};
pub use packet::{Packet, PacketBuilder, PacketMeta};
