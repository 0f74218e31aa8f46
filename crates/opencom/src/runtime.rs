//! The OpenCOM runtime — shared services behind every capsule.
//!
//! A [`Runtime`] bundles the process-wide facilities: the component
//! [`registry`](crate::registry::ComponentRegistry) (deployment units),
//! the [`InterfaceRepository`]
//! (introspection), the
//! [`InterceptorRegistry`]
//! (per-interface wrapper factories), and the [`IsolationRegistry`]
//! (stub/skeleton factories for out-of-capsule hosting).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{Error, Result};
use crate::ident::{ComponentId, InterfaceId};
use crate::interception::InterceptorRegistry;
use crate::interface::InterfaceRef;
use crate::ipc::{IpcClient, IpcDispatch};
use crate::meta::interface::InterfaceRepository;
use crate::registry::ComponentRegistry;

/// Builds the skeleton (host-side dispatcher) for an isolatable type.
pub type SkeletonFactory = Box<dyn Fn() -> Arc<dyn IpcDispatch> + Send + Sync>;

/// Builds a client-side proxy exporting `InterfaceId` over an IPC channel.
pub type ProxyFactory = Box<dyn Fn(Arc<IpcClient>, ComponentId) -> InterfaceRef + Send + Sync>;

/// Registry of stub/skeleton factories used when components are
/// instantiated in isolated capsules (paper §5's separate-address-space
/// deployment). Interface-defining crates register proxies; component
/// crates register skeletons.
#[derive(Default)]
pub struct IsolationRegistry {
    skeletons: RwLock<HashMap<String, SkeletonFactory>>,
    proxies: RwLock<HashMap<InterfaceId, ProxyFactory>>,
}

impl IsolationRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the skeleton factory for a component type.
    pub fn register_skeleton(&self, type_name: impl Into<String>, factory: SkeletonFactory) {
        self.skeletons.write().insert(type_name.into(), factory);
    }

    /// Registers the proxy factory for an interface type.
    pub fn register_proxy(&self, id: InterfaceId, factory: ProxyFactory) {
        self.proxies.write().insert(id, factory);
    }

    /// Builds a skeleton instance for `type_name`.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::UnknownComponentType`] if no skeleton factory
    /// is registered.
    fn make_skeleton(&self, type_name: &str) -> Result<Arc<dyn IpcDispatch>> {
        let skeletons = self.skeletons.read();
        let factory = skeletons
            .get(type_name)
            .ok_or_else(|| Error::UnknownComponentType {
                type_name: format!("{type_name} (no skeleton)"),
            })?;
        Ok(factory())
    }

    /// Clones the skeleton factory for supervision (respawn-after-crash).
    ///
    /// # Errors
    ///
    /// Fails with [`Error::UnknownComponentType`] if no skeleton factory
    /// is registered.
    pub fn skeleton_maker(
        self: &Arc<Self>,
        type_name: &str,
    ) -> Result<impl Fn() -> Arc<dyn IpcDispatch> + Send + Sync + 'static> {
        if !self.skeletons.read().contains_key(type_name) {
            return Err(Error::UnknownComponentType {
                type_name: format!("{type_name} (no skeleton)"),
            });
        }
        let me = Arc::clone(self);
        let name = type_name.to_owned();
        Ok(move || me.make_skeleton(&name).expect("checked at registration"))
    }

    /// Builds a proxy for `id` talking through `client`.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::InterfaceNotFound`] if no proxy factory is
    /// registered for the interface.
    pub fn make_proxy(
        &self,
        id: InterfaceId,
        client: Arc<IpcClient>,
        provider: ComponentId,
    ) -> Result<InterfaceRef> {
        let proxies = self.proxies.read();
        let factory = proxies.get(&id).ok_or(Error::InterfaceNotFound {
            component: provider,
            interface: id,
        })?;
        Ok(factory(client, provider))
    }

    /// True if a proxy factory exists for `id`.
    pub fn supports_interface(&self, id: InterfaceId) -> bool {
        self.proxies.read().contains_key(&id)
    }
}

impl fmt::Debug for IsolationRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IsolationRegistry({} skeletons, {} proxies)",
            self.skeletons.read().len(),
            self.proxies.read().len()
        )
    }
}

/// The shared OpenCOM runtime.
///
/// # Examples
///
/// ```
/// use opencom::runtime::Runtime;
/// use opencom::capsule::Capsule;
///
/// let rt = Runtime::new();
/// let capsule = Capsule::new("router-node", &rt);
/// assert_eq!(capsule.name(), "router-node");
/// ```
pub struct Runtime {
    registry: Arc<ComponentRegistry>,
    interfaces: Arc<InterfaceRepository>,
    interceptors: Arc<InterceptorRegistry>,
    isolation: Arc<IsolationRegistry>,
}

impl Runtime {
    /// Creates a fresh runtime with empty registries.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Arc<Runtime> {
        Arc::new(Runtime {
            registry: Arc::new(ComponentRegistry::new()),
            interfaces: Arc::new(InterfaceRepository::new()),
            interceptors: Arc::new(InterceptorRegistry::new()),
            isolation: Arc::new(IsolationRegistry::new()),
        })
    }

    /// The component factory registry.
    pub fn registry(&self) -> &Arc<ComponentRegistry> {
        &self.registry
    }

    /// The interface descriptor repository.
    pub fn interfaces(&self) -> &Arc<InterfaceRepository> {
        &self.interfaces
    }

    /// The interceptor wrapper registry.
    pub fn interceptors(&self) -> &Arc<InterceptorRegistry> {
        &self.interceptors
    }

    /// The isolation stub/skeleton registry.
    pub fn isolation(&self) -> &Arc<IsolationRegistry> {
        &self.isolation
    }
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Runtime(registry: {:?}, interfaces: {:?})",
            self.registry, self.interfaces
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl IpcDispatch for Nop {
        fn dispatch(
            &self,
            _interface: &str,
            _method: &str,
            _payload: &[u8],
        ) -> std::result::Result<Vec<u8>, String> {
            Ok(vec![])
        }
    }

    #[test]
    fn skeleton_registration_roundtrip() {
        let iso = IsolationRegistry::new();
        iso.register_skeleton("t.Nop", Box::new(|| Arc::new(Nop)));
        assert!(iso.make_skeleton("t.Nop").is_ok());
        assert!(iso.make_skeleton("t.Missing").is_err());
    }

    #[test]
    fn skeleton_maker_checks_eagerly() {
        let iso = Arc::new(IsolationRegistry::new());
        assert!(iso.skeleton_maker("t.Missing").is_err());
        iso.register_skeleton("t.Nop", Box::new(|| Arc::new(Nop)));
        let make = iso.skeleton_maker("t.Nop").unwrap();
        let _skel = make();
    }

    #[test]
    fn runtime_wires_shared_registries() {
        let rt = Runtime::new();
        assert_eq!(rt.registry().type_names().len(), 0);
        assert!(rt.interfaces().is_empty());
        assert!(!rt.isolation().supports_interface(InterfaceId::new("t.I")));
    }
}
