//! # netkit-router — the stratum-2 Router component framework
//!
//! Rust reproduction of the **Router CF** from *"Reflective
//! Middleware-based Programmable Networking"* (Coulson et al., RM2003):
//! a component framework that "accepts, as plug-ins, OpenCOM components
//! that perform arbitrary user-defined packet-forwarding functions"
//! (paper §5).
//!
//! * [`api`] — the packet-passing interfaces of Figure 2:
//!   [`IPacketPush`], [`IPacketPull`],
//!   and [`IClassifier`] with its
//!   [`FilterSpec`] language, plus interception wrappers
//!   and IPC stubs/skeletons for isolated hosting.
//! * [`cf`] — the Router CF itself: run-time-checked admission rules
//!   R1–R3, behavioural classifier conformance probing, ACL-policed
//!   management, dynamic bind-time constraints.
//! * [`composite`] — Figure 3 composites: nested CF instances with a
//!   *controller* constituent, topology constraints, hot replacement, and
//!   out-of-capsule (isolated) constituents.
//! * [`elements`] — the standard in-band element library: device
//!   adapters, protocol recogniser, IPv4/IPv6 processors, classifier
//!   engine, queues (drop-tail, RED), schedulers (priority, DRR, WFQ),
//!   token-bucket shaper/policer/meter, counters and taps.
//! * [`flow`] — the stateful services layer: per-shard single-writer
//!   flow tables keyed by the canonical bidirectional flow key, and
//!   the stateful elements on top ([`flow::ConnTracker`],
//!   [`flow::Nat44`], [`flow::L4LoadBalancer`]).
//! * [`routing`] — longest-prefix-match tables (binary tries) for IPv4
//!   and IPv6.
//! * [`shard`] — the sharded dataplane: per-worker element-graph
//!   replicas ([`shard::ShardedPipeline`]) fed by RSS flow-affine
//!   dispatch, with per-shard counters rolled up into one resources
//!   task, epoch-quiesced atomic reconfiguration, and the autonomous
//!   reflective control loop ([`shard::control::ControlLoop`]) that
//!   rebalances a skewed placement with no external caller.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use opencom::capsule::Capsule;
//! use opencom::cf::Principal;
//! use opencom::runtime::Runtime;
//! use netkit_packet::packet::PacketBuilder;
//! use netkit_router::api::{register_packet_interfaces, IPacketPush, IPACKET_PUSH};
//! use netkit_router::cf::RouterCf;
//! use netkit_router::elements::{ClassifierEngine, Counter, Discard};
//!
//! // A capsule is the address-space analogue; the runtime carries the
//! // meta-models.
//! let rt = Runtime::new();
//! register_packet_interfaces(&rt);
//! let capsule = Capsule::new("node", &rt);
//! let cf = RouterCf::new("router", Arc::clone(&capsule));
//! let sys = Principal::system();
//!
//! // classifier -> counter -> discard
//! let cls = capsule.adopt(ClassifierEngine::new())?;
//! let cnt = capsule.adopt(Counter::new())?;
//! let sink = capsule.adopt(Discard::new())?;
//! for id in [cls, cnt, sink] { cf.plug(&sys, id)?; }
//! cf.bind(&sys, cls, "out", "default", cnt, IPACKET_PUSH)?;
//! cf.bind(&sys, cnt, "out", "", sink, IPACKET_PUSH)?;
//!
//! let input: Arc<dyn IPacketPush> =
//!     capsule.query_interface(cls, IPACKET_PUSH)?.downcast().unwrap();
//! input.push(PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 5, 7).build()).unwrap();
//! # Ok::<(), opencom::error::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cf;
pub mod composite;
pub mod desc;
pub mod elements;
pub mod flow;
pub mod routing;
pub mod shard;

pub use api::{
    register_packet_interfaces, FilterId, FilterPattern, FilterSpec, IClassifier, IPacketPull,
    IPacketPush, PushError, PushResult, ICLASSIFIER, IPACKET_PULL, IPACKET_PUSH,
};
pub use cf::{ProbeReport, RouterCf, RouterRules};
pub use composite::{
    Composite, CompositeBuilder, IComposite, IController, ICOMPOSITE, ICONTROLLER,
};
pub use flow::{ConnTracker, L4LoadBalancer, Nat44};
pub use routing::{PrefixParseError, RouteEntry, RoutingTable};
pub use shard::{ControlLoop, PipelineStats, ShardGraph, ShardedPipeline};
