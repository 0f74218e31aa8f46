//! The component abstraction and its life-cycle.
//!
//! OpenCOM components are fine-grained units of deployment that export
//! *interfaces*, declare dependencies through *receptacles*, and carry the
//! standard meta-interfaces (architecture/interface/interception/resources)
//! through their hosting [`Capsule`](crate::capsule::Capsule).
//!
//! Concrete components embed a [`ComponentCore`] and implement the
//! [`Component`] trait; after construction the capsule calls
//! [`Component::publish`] once with a [`Registrar`] so the component can
//! announce its interfaces and receptacles.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::error::{Error, Result};
use crate::ident::{ComponentId, InterfaceId, Version};
use crate::interface::{InterfaceExport, InterfaceRef};
use crate::receptacle::{Receptacle, ReceptacleEntry, ReceptacleInfo};

/// Life-cycle states of a component instance, with legal transitions
/// enforced by [`ComponentCore::transition`]:
///
/// ```text
/// Created -> Connected -> Active <-> Suspended
///     \          \           \________ Destroyed
///      \          \_____________________^
///       \_______________________________^
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LifecycleState {
    /// Instantiated but not yet wired into a graph.
    Created,
    /// Receptacles bound; not yet processing.
    Connected,
    /// Processing work.
    Active,
    /// Temporarily quiesced (e.g. during reconfiguration).
    Suspended,
    /// Removed from the graph; terminal.
    Destroyed,
}

impl LifecycleState {
    /// Returns the state's display name.
    pub fn name(&self) -> &'static str {
        match self {
            LifecycleState::Created => "Created",
            LifecycleState::Connected => "Connected",
            LifecycleState::Active => "Active",
            LifecycleState::Suspended => "Suspended",
            LifecycleState::Destroyed => "Destroyed",
        }
    }

    /// True if the transition `self -> to` is legal.
    fn can_transition_to(&self, to: LifecycleState) -> bool {
        use LifecycleState::*;
        matches!(
            (*self, to),
            (Created, Connected)
                | (Connected, Active)
                | (Active, Suspended)
                | (Suspended, Active)
                | (Created, Destroyed)
                | (Connected, Destroyed)
                | (Active, Destroyed)
                | (Suspended, Destroyed)
        )
    }
}

/// Static metadata about a component instance.
#[derive(Clone, Debug)]
pub struct ComponentDescriptor {
    /// The deployable type name (registry key), e.g. `"netkit.Classifier"`.
    pub type_name: String,
    /// Version of the implementation.
    pub version: Version,
    /// True if the component is a composite (contains an inner graph).
    pub composite: bool,
    /// Trust level; untrusted components are candidates for isolation
    /// in a separate capsule (paper §5).
    pub trusted: bool,
}

impl ComponentDescriptor {
    /// Creates a descriptor for a trusted, non-composite component.
    pub fn new(type_name: impl Into<String>, version: Version) -> Self {
        Self {
            type_name: type_name.into(),
            version,
            composite: false,
            trusted: true,
        }
    }

    /// Marks the component as composite.
    pub fn composite(mut self) -> Self {
        self.composite = true;
        self
    }

    /// Marks the component as untrusted.
    pub fn untrusted(mut self) -> Self {
        self.trusted = false;
        self
    }
}

/// The per-instance state every component embeds.
///
/// `ComponentCore` owns the interface and receptacle tables, the life-cycle
/// state machine, and a footprint estimate used by the memory experiments.
pub struct ComponentCore {
    id: ComponentId,
    descriptor: ComponentDescriptor,
    state: Mutex<LifecycleState>,
    exports: RwLock<HashMap<InterfaceId, InterfaceExport>>,
    receptacles: RwLock<HashMap<String, ReceptacleEntry>>,
}

impl ComponentCore {
    /// Creates a core for a new instance, allocating a fresh
    /// [`ComponentId`].
    pub fn new(descriptor: ComponentDescriptor) -> Self {
        Self {
            id: ComponentId::next(),
            descriptor,
            state: Mutex::new(LifecycleState::Created),
            exports: RwLock::new(HashMap::new()),
            receptacles: RwLock::new(HashMap::new()),
        }
    }

    /// This instance's unique id.
    pub fn id(&self) -> ComponentId {
        self.id
    }

    /// Static metadata.
    pub fn descriptor(&self) -> &ComponentDescriptor {
        &self.descriptor
    }

    /// Current life-cycle state.
    pub fn state(&self) -> LifecycleState {
        *self.state.lock()
    }

    /// Performs a life-cycle transition.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IllegalTransition`] if the move is not permitted by
    /// the state machine.
    pub fn transition(&self, to: LifecycleState) -> Result<()> {
        let mut state = self.state.lock();
        if !state.can_transition_to(to) {
            return Err(Error::IllegalTransition {
                from: state.name(),
                to: to.name(),
            });
        }
        *state = to;
        Ok(())
    }

    /// Lists the interface ids this component exports.
    pub fn interfaces(&self) -> Vec<InterfaceId> {
        let mut ids: Vec<_> = self.exports.read().keys().copied().collect();
        ids.sort();
        ids
    }

    /// Produces a strong [`InterfaceRef`] for an exported interface.
    pub fn query_interface(&self, id: InterfaceId) -> Result<InterfaceRef> {
        self.exports
            .read()
            .get(&id)
            .and_then(|e| e.materialize())
            .ok_or(Error::InterfaceNotFound {
                component: self.id,
                interface: id,
            })
    }

    /// Lists receptacle metadata for the meta-model.
    pub fn receptacle_infos(&self) -> Vec<ReceptacleInfo> {
        let mut infos: Vec<_> = self.receptacles.read().values().map(|e| e.info()).collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// Binds `iref` into the named receptacle (type-erased path used by the
    /// capsule `bind` primitive).
    pub fn bind_receptacle(&self, name: &str, label: &str, iref: InterfaceRef) -> Result<()> {
        let recs = self.receptacles.read();
        let entry = recs.get(name).ok_or_else(|| Error::ReceptacleNotFound {
            component: self.id,
            name: name.to_owned(),
        })?;
        entry.bind(label, iref)
    }

    /// Unbinds the peer attached under `label` from the named receptacle.
    pub fn unbind_receptacle(&self, name: &str, peer: ComponentId, label: &str) -> Result<()> {
        let recs = self.receptacles.read();
        let entry = recs.get(name).ok_or_else(|| Error::ReceptacleNotFound {
            component: self.id,
            name: name.to_owned(),
        })?;
        entry.unbind(peer, label)
    }

    /// Atomically swaps the peer of an existing binding (hot-swap).
    pub fn rebind_receptacle(
        &self,
        name: &str,
        old_peer: ComponentId,
        label: &str,
        iref: InterfaceRef,
    ) -> Result<()> {
        let recs = self.receptacles.read();
        let entry = recs.get(name).ok_or_else(|| Error::ReceptacleNotFound {
            component: self.id,
            name: name.to_owned(),
        })?;
        entry.rebind(old_peer, label, iref)
    }

    /// Returns current `(receptacle, label, peer, iface)` tuples for every
    /// outgoing binding.
    pub fn outgoing_bindings(&self) -> Vec<(String, String, ComponentId, InterfaceRef)> {
        let recs = self.receptacles.read();
        let mut out = Vec::new();
        for (name, entry) in recs.iter() {
            for (label, peer, iref) in entry.bindings() {
                out.push((name.clone(), label, peer, iref));
            }
        }
        out.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        out
    }

    fn register_export(&self, export: InterfaceExport) {
        self.exports.write().insert(export.id, export);
    }

    fn register_receptacle(&self, entry: ReceptacleEntry) {
        self.receptacles.write().insert(entry.name.clone(), entry);
    }

    /// Removes an exported interface (dynamic remove, legal as long as the
    /// hosting CF's rules remain satisfied — the CF re-checks).
    pub fn retract_interface(&self, id: InterfaceId) -> Result<()> {
        if self.exports.write().remove(&id).is_none() {
            return Err(Error::InterfaceNotFound {
                component: self.id,
                interface: id,
            });
        }
        Ok(())
    }
}

impl fmt::Debug for ComponentCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ComponentCore({} `{}` v{} {:?})",
            self.id,
            self.descriptor.type_name,
            self.descriptor.version,
            self.state()
        )
    }
}

/// Handed to [`Component::publish`] so a freshly constructed component can
/// announce its interfaces and receptacles.
pub struct Registrar<'a> {
    core: &'a ComponentCore,
}

impl fmt::Debug for Registrar<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Registrar({})", self.core.descriptor().type_name)
    }
}

impl<'a> Registrar<'a> {
    pub(crate) fn new(core: &'a ComponentCore) -> Self {
        Self { core }
    }

    /// Exports `iface` under `id`. The registrar stores only a weak
    /// reference, so exporting does not leak the component.
    pub fn expose<I>(&self, id: InterfaceId, iface: &Arc<I>)
    where
        I: ?Sized + Send + Sync + 'static,
    {
        self.core
            .register_export(InterfaceExport::new(id, self.core.id(), iface));
    }

    /// Re-exports an interface obtained from elsewhere (used by composites
    /// that surface an inner component's interface at their boundary).
    pub fn expose_ref(&self, iref: InterfaceRef) {
        self.core.register_export(InterfaceExport::from_ref(iref));
    }

    /// Registers a typed receptacle with the component's table so the
    /// capsule `bind` primitive and the meta-model can reach it.
    pub fn receptacle<I: ?Sized + Send + Sync + 'static>(&self, rec: &Receptacle<I>) {
        self.core
            .register_receptacle(ReceptacleEntry::from_typed(rec));
    }
}

/// The trait all OpenCOM components implement.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use opencom::component::{Component, ComponentCore, ComponentDescriptor, Registrar};
/// use opencom::ident::{InterfaceId, Version};
///
/// trait IEcho: Send + Sync { fn echo(&self, s: &str) -> String; }
/// const IECHO: InterfaceId = InterfaceId::new("demo.IEcho");
///
/// struct Echo { core: ComponentCore }
/// impl Echo {
///     fn new() -> Arc<Self> {
///         Arc::new(Self { core: ComponentCore::new(
///             ComponentDescriptor::new("demo.Echo", Version::new(1, 0, 0))) })
///     }
/// }
/// impl IEcho for Echo { fn echo(&self, s: &str) -> String { s.to_owned() } }
/// impl Component for Echo {
///     fn core(&self) -> &ComponentCore { &self.core }
///     fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
///         let me: Arc<dyn IEcho> = self.clone();
///         reg.expose(IECHO, &me);
///     }
/// }
/// ```
pub trait Component: Send + Sync + 'static {
    /// Access to the embedded [`ComponentCore`].
    fn core(&self) -> &ComponentCore;

    /// Called exactly once after construction; the component exposes its
    /// interfaces and registers its receptacles here.
    fn publish(self: Arc<Self>, reg: &Registrar<'_>);

    /// Hook invoked when the component becomes [`LifecycleState::Active`].
    ///
    /// # Errors
    ///
    /// Implementations may fail to veto activation.
    fn on_activate(&self) -> Result<()> {
        Ok(())
    }

    /// Hook invoked when the component leaves the active state.
    ///
    /// # Errors
    ///
    /// Implementations may report (but cannot veto) deactivation problems.
    fn on_deactivate(&self) -> Result<()> {
        Ok(())
    }

    /// Approximate bytes of state held by this component, used by the
    /// footprint experiment (E3). Implementations should include owned
    /// buffers/tables; the default covers only the core tables.
    fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<ComponentCore>()
    }
}

/// Runs post-construction publication. Called by capsules and tests.
pub fn publish_component(comp: &Arc<dyn Component>) {
    let registrar = Registrar::new(comp.core());
    Arc::clone(comp).publish(&registrar);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receptacle::Cardinality;

    trait IEcho: Send + Sync {
        fn echo(&self, s: &str) -> String;
    }
    const IECHO: InterfaceId = InterfaceId::new("test.IEcho");

    struct Echo {
        core: ComponentCore,
        out: Receptacle<dyn IEcho>,
    }

    impl Echo {
        fn new() -> Arc<Self> {
            Arc::new(Self {
                core: ComponentCore::new(ComponentDescriptor::new(
                    "test.Echo",
                    Version::new(1, 0, 0),
                )),
                out: Receptacle::new("out", IECHO, Cardinality::Single),
            })
        }
    }

    impl IEcho for Echo {
        fn echo(&self, s: &str) -> String {
            // Forward through the receptacle when bound, else identity.
            self.out
                .with_bound(|next| next.echo(s))
                .unwrap_or_else(|| s.to_owned())
        }
    }

    impl Component for Echo {
        fn core(&self) -> &ComponentCore {
            &self.core
        }
        fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
            let me: Arc<dyn IEcho> = self.clone();
            reg.expose(IECHO, &me);
            reg.receptacle(&self.out);
        }
    }

    fn make() -> Arc<dyn Component> {
        let e = Echo::new();
        let comp: Arc<dyn Component> = e;
        publish_component(&comp);
        comp
    }

    #[test]
    fn query_interface_returns_working_handle() {
        let comp = make();
        let iref = comp.core().query_interface(IECHO).unwrap();
        let echo: Arc<dyn IEcho> = iref.downcast().unwrap();
        assert_eq!(echo.echo("hi"), "hi");
    }

    #[test]
    fn query_unknown_interface_fails() {
        let comp = make();
        let err = comp
            .core()
            .query_interface(InterfaceId::new("test.Nope"))
            .unwrap_err();
        assert!(matches!(err, Error::InterfaceNotFound { .. }));
    }

    #[test]
    fn bind_through_type_erased_path() {
        let a = make();
        let b = make();
        let iref = b.core().query_interface(IECHO).unwrap();
        a.core().bind_receptacle("out", "", iref).unwrap();
        let echo: Arc<dyn IEcho> = a.core().query_interface(IECHO).unwrap().downcast().unwrap();
        assert_eq!(echo.echo("via b"), "via b");
        let infos = a.core().receptacle_infos();
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].bound.len(), 1);
        assert_eq!(infos[0].bound[0].1, b.core().id());
    }

    #[test]
    fn unbind_unknown_receptacle_fails() {
        let a = make();
        let err = a
            .core()
            .unbind_receptacle("missing", ComponentId::from_raw(1), "")
            .unwrap_err();
        assert!(matches!(err, Error::ReceptacleNotFound { .. }));
    }

    #[test]
    fn lifecycle_happy_path() {
        let comp = make();
        let core = comp.core();
        assert_eq!(core.state(), LifecycleState::Created);
        core.transition(LifecycleState::Connected).unwrap();
        core.transition(LifecycleState::Active).unwrap();
        core.transition(LifecycleState::Suspended).unwrap();
        core.transition(LifecycleState::Active).unwrap();
        core.transition(LifecycleState::Destroyed).unwrap();
    }

    #[test]
    fn lifecycle_rejects_illegal_moves() {
        let comp = make();
        let core = comp.core();
        assert!(core.transition(LifecycleState::Active).is_err()); // Created -> Active
        core.transition(LifecycleState::Connected).unwrap();
        core.transition(LifecycleState::Destroyed).unwrap();
        assert!(core.transition(LifecycleState::Active).is_err()); // terminal
    }

    #[test]
    fn retract_interface_dynamic_remove() {
        let comp = make();
        comp.core().retract_interface(IECHO).unwrap();
        assert!(comp.core().query_interface(IECHO).is_err());
        assert!(comp.core().retract_interface(IECHO).is_err());
    }

    #[test]
    fn interfaces_listing_is_sorted_and_complete() {
        let comp = make();
        assert_eq!(comp.core().interfaces(), vec![IECHO]);
    }

    #[test]
    fn no_arc_cycle_from_publication() {
        let e = Echo::new();
        let weak = Arc::downgrade(&e);
        let comp: Arc<dyn Component> = e;
        publish_component(&comp);
        drop(comp);
        // If publication stored a strong self-reference the component
        // would leak and the weak count would still upgrade.
        assert!(weak.upgrade().is_none());
    }
}
