//! # netkit-baselines — the paper's comparators
//!
//! Paper §6 positions the Router CF against two architectural extremes,
//! both reproduced here for the forwarding comparison (the ledger's
//! `baselines.*` rows):
//!
//! * [`click`] — a **Click-like statically-configured router**: a config
//!   language compiled once into an index-dispatched element graph.
//!   "Flexible support for the configuration (but not reconfiguration)"
//!   — fast, but frozen after compile.
//! * [`monolithic`] — a **hand-coded single-function forwarder**: the
//!   lower bound with no architecture at all.
//!
//! The NETKIT router (crate `netkit-router`) sits between the two:
//! component indirection buys run-time admission, introspection,
//! interception, and hot reconfiguration; the benches measure what that
//! costs relative to these baselines. (Multi-core comparisons are the
//! ledger's: `benchmark/` prices each baseline per packet beside the
//! sharded pipeline's `pps` and `scale.*` rows.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod click;
pub mod monolithic;

pub use click::{ClickError, ClickRouter};
pub use monolithic::{
    DropReason, EdgeDropReason, EdgeStats, ForwarderStats, MonolithicForwarder,
    MonolithicStatefulEdge,
};
