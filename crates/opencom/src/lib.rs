//! # opencom — a reflective, fine-grained component model
//!
//! Rust reproduction of the **OpenCOM** component model underlying the
//! NETKIT programmable-networking framework of *"Reflective
//! Middleware-based Programmable Networking"* (Coulson et al.,
//! RM2003/Middleware 2003).
//!
//! The model is deliberately small and uniform:
//!
//! * **Components** ([`component::Component`]) export *interfaces* and
//!   declare dependencies through *receptacles*
//!   ([`receptacle::Receptacle`]).
//! * The **`bind` primitive** ([`capsule::Capsule::bind`]) connects a
//!   receptacle to an interface, subject to dynamically added
//!   **constraints** ([`binding::BindConstraint`]) — interceptors on
//!   `bind`, per the paper.
//! * Four **meta-models** make the system reflective:
//!   [architecture](meta::architecture) (introspect/adapt the component
//!   graph), [interface](meta::interface) (method-level introspection),
//!   [interception] (pre/post hooks at the dispatch level),
//!   and [resources](meta::resources) (tasks and fine-grained
//!   allocation).
//! * **Component frameworks** ([`cf::Cf`]) impose domain rules on plugged
//!   components, with ACL-policed management.
//! * **Capsules** ([`capsule::Capsule`]) are the address-space analogue;
//!   untrusted components can be hosted in an *isolated* capsule behind
//!   marshalling proxies with crash containment ([`ipc`]).
//! * The **registry** ([`registry::ComponentRegistry`]) holds named,
//!   versioned factories — the deployment/evolution substitute for DLL
//!   loading.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use opencom::prelude::*;
//!
//! // 1. Define an interface (a plain trait) and its id.
//! trait IGreet: Send + Sync { fn greet(&self) -> String; }
//! const IGREET: InterfaceId = InterfaceId::new("demo.IGreet");
//!
//! // 2. Define a component exporting it.
//! struct Greeter { core: ComponentCore }
//! impl IGreet for Greeter { fn greet(&self) -> String { "hello".into() } }
//! impl Component for Greeter {
//!     fn core(&self) -> &ComponentCore { &self.core }
//!     fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
//!         let me: Arc<dyn IGreet> = self.clone();
//!         reg.expose(IGREET, &me);
//!     }
//! }
//!
//! // 3. Host it in a capsule and call through query_interface.
//! let rt = Runtime::new();
//! let capsule = Capsule::new("demo", &rt);
//! let id = capsule.adopt(Arc::new(Greeter {
//!     core: ComponentCore::new(ComponentDescriptor::new("demo.Greeter",
//!         Version::new(1, 0, 0))),
//! }))?;
//! let greet: Arc<dyn IGreet> = capsule.query_interface(id, IGREET)?.downcast().unwrap();
//! assert_eq!(greet.greet(), "hello");
//! # Ok::<(), opencom::error::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod binding;
pub mod capsule;
pub mod cf;
pub mod component;
pub mod error;
pub mod ident;
pub mod interception;
pub mod interface;
pub mod ipc;
pub mod meta;
pub mod receptacle;
pub mod registry;
pub mod runtime;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::binding::{
        BindConstraint, BindRequest, ConstraintSet, FnConstraint, TopologyRule,
    };
    pub use crate::capsule::{Capsule, Quiescence};
    pub use crate::cf::{Acl, Cf, CfOperation, CfRules, PermissiveRules, Principal};
    pub use crate::component::{
        Component, ComponentCore, ComponentDescriptor, LifecycleState, Registrar,
    };
    pub use crate::error::{Error, Result};
    pub use crate::ident::{BindingId, CapsuleId, ComponentId, InterfaceId, TaskId, Version};
    pub use crate::interception::{
        CallContext, FnHook, Hook, InterceptorChain, InterceptorRegistry,
    };
    pub use crate::interface::{InterfaceDescriptor, InterfaceRef, MethodDescriptor};
    pub use crate::meta::architecture::{ArchitectureMetaModel, BindingRecord};
    pub use crate::meta::interface::InterfaceRepository;
    pub use crate::meta::resources::{classes, ResourceManager, TaskInfo};
    pub use crate::receptacle::{Cardinality, Receptacle, ReceptacleInfo};
    pub use crate::registry::ComponentRegistry;
    pub use crate::runtime::Runtime;
}
