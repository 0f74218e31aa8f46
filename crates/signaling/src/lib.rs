//! # netkit-signaling — stratum-4 coordination
//!
//! The paper's top stratum (paper §3): "out-of-band signaling protocols
//! that perform distributed coordination and (re)configuration of the
//! lower strata. Examples are RSVP, or protocols that coordinate resource
//! allocation on a set of routers participating in a dynamic private
//! virtual network, as employed by systems like Genesis."
//!
//! * [`rsvp`] — PATH/RESV two-pass reservation with per-hop admission
//!   control and soft state, running as a
//!   [`NodeBehaviour`](netkit_sim::node::NodeBehaviour) over the
//!   simulated network.
//! * [`genesis`] — spawning networks: dynamic private virtual networks
//!   with their own addressing, routing, and QoS share, each realised as
//!   per-node virtual routers built from real Router-CF components (the
//!   paper's Columbia collaboration, §7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod genesis;
pub mod rsvp;

pub use genesis::{Genesis, GenesisError, SpawnReport, VirtnetDescriptor, VirtnetId};
pub use rsvp::{FlowSpec, RsvpAgent, RsvpConfig, RsvpEvent, SessionId, RSVP_PORT};
