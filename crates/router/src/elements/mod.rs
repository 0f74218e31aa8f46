//! Standard in-band packet-processing components for the Router CF.
//!
//! These are the "'standard' components that interface to network cards
//! and wrap efficient kernel-user space communication mechanisms"
//! (paper §5) plus the in-band functions stratum's staple elements:
//! "packet filters, checksum validators, classifiers, diffserv
//! schedulers, shapers, etc." (paper §3).
//!
//! Every element is an OpenCOM component: it embeds a
//! [`ComponentCore`], exports
//! [`IPacketPush`](crate::api::IPacketPush) /
//! [`IPacketPull`](crate::api::IPacketPull) interfaces, declares its
//! downstream dependencies as receptacles, and is therefore fully visible
//! to the architecture meta-model (introspectable, rewireable,
//! hot-replaceable, interceptable).

mod classifier;
mod device;
mod ip;
mod misc;
mod queues;
mod route;
mod sched;
mod shaper;

pub use classifier::{ClassifierEngine, ClassifierStats, DEFAULT_OUTPUT};
pub use device::{FromDevice, FromDeviceStats, ToDevice, ToDeviceStats};
pub use ip::{Ipv4Processor, Ipv6Processor};
pub use misc::{Counter, Discard, ProtocolRecogniser, Tee};
pub use queues::{DropTailQueue, RedConfig, RedQueue};
pub use route::{RouteLookup, RouteStats};
pub use sched::{DrrScheduler, PriorityScheduler, Scheduler, WfqScheduler};
pub use shaper::{Meter, MeterStats, Policer, PolicerStats, TokenBucketShaper};

use opencom::component::{ComponentCore, ComponentDescriptor};
use opencom::ident::Version;

pub(crate) fn element_core(type_name: &str) -> ComponentCore {
    ComponentCore::new(ComponentDescriptor::new(type_name, Version::new(1, 0, 0)))
}

/// The index of output `label` in `labels`, appended if it is new: a
/// splitting element numbers its outputs in the order a batch first
/// meets them.
fn first_met(labels: &mut Vec<String>, label: &str) -> usize {
    labels.iter().position(|l| l == label).unwrap_or_else(|| {
        labels.push(label.to_owned());
        labels.len() - 1
    })
}
