//! # netkit-kernel — stratum-1 substrate
//!
//! The paper's Figure 1 places a *hardware abstraction* stratum at the
//! bottom of every programmable-networking node: "minimal operating
//! system functionality (e.g. threads, memory allocation, and access to
//! network hardware)" whose character "largely determines the QoS
//! capabilities … of the higher strata".
//!
//! This crate is that stratum, simulated:
//!
//! * [`time`] — a deterministic virtual clock and timer queue.
//! * [`exec`] — a cooperative executor with **pluggable, hot-swappable
//!   schedulers** (the paper's thread-management CF).
//! * [`mem`] — quota-policed memory accounting for the resources
//!   meta-model and the footprint experiments.
//! * [`nic`] — simulated NICs with bounded multi-queue rx/tx rings
//!   (RSS steering in `inject_rx_frame`, per-worker
//!   `rx_burst_batch`/`tx_burst_packets`).
//! * [`shard`] — the sharded run-to-completion worker-pool runtime
//!   ([`shard::ShardSpec`], [`shard::WorkerPool`]) with the epoch-based
//!   quiesce protocol that keeps reflective reconfiguration atomic
//!   across workers.
//! * [`fault`] — seeded, replayable fault-injection plans
//!   ([`fault::FaultPlan`]: crash-on-nth-packet, wire drop/corrupt/
//!   duplicate) shared by the chaos tests.
//! * [`task`] — supervised periodic background tasks with idle backoff
//!   ([`task::PeriodicTask`]), the cadence primitive autonomous
//!   control loops run on.
//! * [`ixp`] — an analytic cycle model of the Intel IXP1200
//!   (StrongARM + 6 micro-engines + scratchpad/SRAM/SDRAM hierarchy)
//!   for the component-placement experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod exec;
pub mod fault;
pub mod ixp;
pub mod mem;
pub mod nic;
pub mod shard;
pub mod task;
pub mod time;
