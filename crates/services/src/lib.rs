//! # netkit-services — stratum-3 application services
//!
//! The paper's third stratum (paper §3): "coarser-grained 'programs' — in
//! the active networking execution-environment sense \[ANTS,02\] — that are
//! less performance critical and act on pre-selected packet flows in
//! application-specific ways (e.g. per-flow media filters). Here,
//! security is typically more of a concern than raw performance."
//!
//! * [`ee`] — a sandboxed stack-bytecode **execution environment** with
//!   capsule (active packet) encoding, per-node code caches, TTL'd
//!   soft-state, and instruction/stack/cache budgets.
//! * [`programs`] — an assembler plus the classic active-networking
//!   demos: active ping, path collector, multicast duplicator.
//! * [`media`] — per-flow media filters (frame-aware thinning, quality
//!   adaptation) as Router-CF-conformant components.
//! * [`component`] — the EE wrapped as a Router-CF plug-in, closing the
//!   loop with stratum 2.
//! * [`edge`] — the canonical stateful edge (Guard → conntrack →
//!   NAT44) stated as a declarative [`netkit_router::desc`]
//!   description and compiled through the diff-to-patch layer.
//!
//! ## Example: run a capsule
//!
//! ```
//! use netkit_services::ee::{Capsule, EeBudget, ExecutionEnv, NodeInfo, OpCode, Program};
//!
//! struct Node;
//! impl NodeInfo for Node {
//!     fn node_id(&self) -> u32 { 1 }
//!     fn now_ns(&self) -> u64 { 0 }
//!     fn route_lookup(&self, _dst: std::net::Ipv4Addr) -> Option<u16> { None }
//! }
//!
//! let env = ExecutionEnv::new(EeBudget::default());
//! let program = Program::new("answer", vec![
//!     OpCode::Push(6), OpCode::Push(7), OpCode::Mul, OpCode::AppendArg,
//! ]);
//! let capsule = Capsule::with_code(&program, vec![]);
//! let outcome = env.execute(&capsule.encode(), &Node)?;
//! assert_eq!(outcome.args, [42]);
//! # Ok::<(), netkit_services::ee::EeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod component;
pub mod edge;
pub mod ee;
pub mod media;
pub mod programs;

pub use component::{EeComponent, EeNode};
pub use edge::{build_stateful_edge, stateful_edge_desc, EdgeProfile};
pub use ee::{Capsule, EeBudget, EeError, ExecutionEnv, NodeInfo, OpCode, Program};
pub use media::{DropLevel, FrameDropFilter, FrameType, QualityAdaptor};
pub use programs::{active_ping, multicast_duplicator, path_collector, Assembler};
