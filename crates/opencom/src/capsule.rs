//! Capsules — the address-space analogue hosting component graphs.
//!
//! A [`Capsule`] hosts components, executes the `bind` primitive (with
//! bind-time constraints), maintains the architecture meta-model, drives
//! component life-cycles, hot-replaces components, splices interceptors
//! into live bindings, and — for untrusted components — delegates hosting
//! to an isolated "address space" reached through marshalling proxies
//! (see [`crate::ipc`]).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::binding::{BindRequest, ConstraintSet};
use crate::component::{
    publish_component, Component, ComponentCore, ComponentDescriptor, LifecycleState, Registrar,
};
use crate::error::{Error, Result};
use crate::ident::{BindingId, CapsuleId, ComponentId, InterfaceId, Version};
use crate::interception::InterceptorChain;
use crate::interface::InterfaceRef;
use crate::ipc::{IpcClient, IsolatedHost};
use crate::meta::architecture::{ArchitectureMetaModel, BindingRecord};
use crate::meta::resources::ResourceManager;
use crate::runtime::{IsolationRegistry, Runtime};

/// Which quiescence strategy a structural adaptation uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Quiescence {
    /// Wait only for in-flight calls on the edges being rewired
    /// (receptacle write locks). Cheapest; the default.
    #[default]
    PerEdge,
    /// Additionally acquire the capsule-wide graph lock, excluding all
    /// cooperative data-path drivers for the duration of the change.
    FullGraph,
}

/// Supervision handle for a component hosted out-of-capsule.
pub struct IsolationControl {
    host: Arc<IsolatedHost>,
}

impl IsolationControl {
    /// True if the hosted component has crashed and awaits respawn.
    pub fn is_dead(&self) -> bool {
        self.host.is_dead()
    }

    /// Respawns the hosted component after a crash; existing bindings
    /// resume working transparently.
    pub fn respawn(&self) {
        self.host.respawn();
    }

    /// Number of respawns performed so far.
    pub fn restart_count(&self) -> u64 {
        self.host.restart_count()
    }

    /// The raw IPC client (diagnostics: call counts).
    pub fn client(&self) -> Arc<IpcClient> {
        self.host.client()
    }
}

impl fmt::Debug for IsolationControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IsolationControl({:?})", self.host)
    }
}

/// In-capsule stand-in for a component that actually lives in an isolated
/// host: exposes marshalling proxies for the interfaces the real
/// component implements.
struct IsolatedComponent {
    core: ComponentCore,
    client: Arc<IpcClient>,
    interfaces: Vec<InterfaceId>,
    isolation: Arc<IsolationRegistry>,
}

impl Component for IsolatedComponent {
    fn core(&self) -> &ComponentCore {
        &self.core
    }

    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        for id in &self.interfaces {
            // Presence of every proxy was verified before construction.
            if let Ok(iref) =
                self.isolation
                    .make_proxy(*id, Arc::clone(&self.client), self.core.id())
            {
                reg.expose_ref(iref);
            }
        }
    }

    fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.interfaces.len() * std::mem::size_of::<InterfaceId>()
    }
}

/// A capsule: hosts components and offers the management API.
///
/// # Examples
///
/// ```
/// use opencom::capsule::Capsule;
/// use opencom::runtime::Runtime;
///
/// let rt = Runtime::new();
/// let capsule = Capsule::new("node-0", &rt);
/// assert_eq!(capsule.arch().component_count(), 0);
/// ```
pub struct Capsule {
    id: CapsuleId,
    name: String,
    runtime: Arc<Runtime>,
    arch: ArchitectureMetaModel,
    resources: ResourceManager,
    constraints: ConstraintSet,
    hosts: RwLock<HashMap<ComponentId, Arc<IsolatedHost>>>,
}

impl Capsule {
    /// Creates an empty capsule attached to `runtime`.
    pub fn new(name: impl Into<String>, runtime: &Arc<Runtime>) -> Arc<Self> {
        Arc::new(Self {
            id: CapsuleId::next(),
            name: name.into(),
            runtime: Arc::clone(runtime),
            arch: ArchitectureMetaModel::new(),
            resources: ResourceManager::new(),
            constraints: ConstraintSet::new(),
            hosts: RwLock::new(HashMap::new()),
        })
    }

    /// The capsule's id.
    pub fn id(&self) -> CapsuleId {
        self.id
    }

    /// The capsule's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared runtime.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// The architecture meta-model (structural reflection).
    pub fn arch(&self) -> &ArchitectureMetaModel {
        &self.arch
    }

    /// The resources meta-model.
    pub fn resources(&self) -> &ResourceManager {
        &self.resources
    }

    /// Capsule-level bind constraints (checked on every bind).
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    // ---- hosting --------------------------------------------------------

    /// Hosts an externally constructed component: publishes its
    /// interfaces and inserts it into the meta-model.
    ///
    /// # Errors
    ///
    /// Currently infallible but returns `Result` for forward compatibility
    /// with admission checks.
    pub fn adopt(&self, comp: Arc<dyn Component>) -> Result<ComponentId> {
        publish_component(&comp);
        let id = comp.core().id();
        self.arch.insert_component(comp);
        Ok(id)
    }

    /// Instantiates the latest registered version of `type_name` from the
    /// runtime registry and hosts it.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::UnknownComponentType`] for unknown types.
    pub fn instantiate(&self, type_name: &str) -> Result<ComponentId> {
        let comp = self.runtime.registry().instantiate_latest(type_name)?;
        self.adopt(comp)
    }

    /// Instantiates a specific version of `type_name`.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::UnknownComponentType`] for unknown pairs.
    pub fn instantiate_version(&self, type_name: &str, version: Version) -> Result<ComponentId> {
        let comp = self.runtime.registry().instantiate(type_name, version)?;
        self.adopt(comp)
    }

    /// Instantiates `type_name` in a *separate* isolated capsule and hosts
    /// a proxy component in this one. `interfaces` lists the interface
    /// types the component exports; each must have a registered proxy
    /// factory and the type must have a registered skeleton factory.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownComponentType`] if no skeleton is registered.
    /// * [`Error::InterfaceNotFound`] if an interface lacks a proxy.
    pub fn instantiate_isolated(
        &self,
        type_name: &str,
        interfaces: &[InterfaceId],
    ) -> Result<ComponentId> {
        let isolation = Arc::clone(self.runtime.isolation());
        let maker = isolation.skeleton_maker(type_name)?;
        let core = ComponentCore::new(
            ComponentDescriptor::new(type_name, Version::new(0, 0, 0)).untrusted(),
        );
        let id = core.id();
        for iface in interfaces {
            if !isolation.supports_interface(*iface) {
                return Err(Error::InterfaceNotFound {
                    component: id,
                    interface: *iface,
                });
            }
        }
        let host = Arc::new(IsolatedHost::spawn(id, maker));
        let comp: Arc<dyn Component> = Arc::new(IsolatedComponent {
            core,
            client: host.client(),
            interfaces: interfaces.to_vec(),
            isolation,
        });
        publish_component(&comp);
        self.arch.insert_component(comp);
        self.hosts.write().insert(id, host);
        Ok(id)
    }

    /// Supervision handle for an isolated component.
    pub fn isolation_control(&self, id: ComponentId) -> Option<IsolationControl> {
        self.hosts.read().get(&id).map(|host| IsolationControl {
            host: Arc::clone(host),
        })
    }

    /// Looks up a hosted component.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::StaleReference`] for unknown ids.
    pub fn component(&self, id: ComponentId) -> Result<Arc<dyn Component>> {
        self.arch.component(id)
    }

    /// Queries an exported interface of a hosted component.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::InterfaceNotFound`] / [`Error::StaleReference`].
    pub fn query_interface(&self, id: ComponentId, iface: InterfaceId) -> Result<InterfaceRef> {
        self.component(id)?.core().query_interface(iface)
    }

    // ---- the bind primitive ---------------------------------------------

    /// Builds (but does not execute) the [`BindRequest`] describing a
    /// proposed bind — used by CFs to run their own checks first.
    ///
    /// # Errors
    ///
    /// Fails if either endpoint is unknown.
    pub fn bind_request(
        &self,
        src: ComponentId,
        receptacle: &str,
        label: &str,
        dst: ComponentId,
        interface: InterfaceId,
    ) -> Result<BindRequest> {
        let src_comp = self.component(src)?;
        let dst_comp = self.component(dst)?;
        Ok(BindRequest {
            src,
            src_type: src_comp.core().descriptor().type_name.clone(),
            receptacle: receptacle.to_owned(),
            label: label.to_owned(),
            dst,
            dst_type: dst_comp.core().descriptor().type_name.clone(),
            interface,
        })
    }

    /// Executes the `bind` primitive: connects `src`'s receptacle to the
    /// `interface` exported by `dst`, after evaluating the capsule's
    /// bind-time constraints.
    ///
    /// # Errors
    ///
    /// Propagates constraint vetoes, type mismatches, and cardinality
    /// violations.
    pub fn bind(
        &self,
        src: ComponentId,
        receptacle: &str,
        label: &str,
        dst: ComponentId,
        interface: InterfaceId,
    ) -> Result<BindingId> {
        let req = self.bind_request(src, receptacle, label, dst, interface)?;
        self.constraints.check(&req)?;
        let iref = self.component(dst)?.core().query_interface(interface)?;
        self.component(src)?
            .core()
            .bind_receptacle(receptacle, label, iref.clone())?;
        let id = BindingId::next();
        self.arch.insert_binding(BindingRecord {
            id,
            src,
            receptacle: receptacle.to_owned(),
            label: label.to_owned(),
            dst,
            interface,
            raw: iref,
            chain: None,
        });
        Ok(id)
    }

    /// Convenience: bind with an empty label.
    ///
    /// # Errors
    ///
    /// See [`Capsule::bind`].
    pub fn bind_simple(
        &self,
        src: ComponentId,
        receptacle: &str,
        dst: ComponentId,
        interface: InterfaceId,
    ) -> Result<BindingId> {
        self.bind(src, receptacle, "", dst, interface)
    }

    /// Removes a binding, waiting for in-flight calls on that edge.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::StaleReference`] for unknown binding ids.
    pub fn unbind(&self, binding: BindingId) -> Result<()> {
        let rec = self.arch.take_binding(binding)?;
        let src = self.component(rec.src)?;
        src.core()
            .unbind_receptacle(&rec.receptacle, rec.dst, &rec.label)
    }

    // ---- fusion -------------------------------------------------------

    /// Returns the *raw* target interface of a binding — no receptacle
    /// lookup, no interceptor chain — for callers that temporarily waive
    /// reconfigurability on a hot path (paper §5: "temporarily bypassing
    /// vtables, using partial evaluation techniques, to reduce the
    /// overhead of a cross-component call to that of a C function call").
    ///
    /// The returned handle keeps working even if the binding is later
    /// removed or intercepted: fusion trades adaptation visibility for
    /// speed, so callers must re-fuse after reconfiguring (the
    /// architecture meta-model tells them when).
    ///
    /// # Errors
    ///
    /// Fails with [`Error::StaleReference`] for unknown binding ids.
    pub fn fused_target(&self, binding: BindingId) -> Result<InterfaceRef> {
        Ok(self.arch.binding(binding)?.raw)
    }

    // ---- interception -----------------------------------------------------

    /// Splices an interceptor chain into a live binding, returning the
    /// chain for hook management. Idempotent: an already intercepted
    /// binding returns its existing chain.
    ///
    /// # Errors
    ///
    /// Fails if the interface has no registered wrapper factory.
    pub fn intercept(&self, binding: BindingId) -> Result<Arc<InterceptorChain>> {
        let rec = self.arch.binding(binding)?;
        if let Some(chain) = rec.chain {
            return Ok(chain);
        }
        let (wrapped, chain) = self.runtime.interceptors().wrap(rec.raw.clone())?;
        let src = self.component(rec.src)?;
        src.core()
            .rebind_receptacle(&rec.receptacle, rec.dst, &rec.label, wrapped)?;
        self.arch
            .update_binding(binding, |r| r.chain = Some(Arc::clone(&chain)))?;
        Ok(chain)
    }

    /// Removes interception from a binding, restoring the direct path.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::StaleReference`] for unknown ids; a
    /// non-intercepted binding is a no-op.
    pub fn unintercept(&self, binding: BindingId) -> Result<()> {
        let rec = self.arch.binding(binding)?;
        if rec.chain.is_none() {
            return Ok(());
        }
        let src = self.component(rec.src)?;
        src.core()
            .rebind_receptacle(&rec.receptacle, rec.dst, &rec.label, rec.raw.clone())?;
        self.arch.update_binding(binding, |r| r.chain = None)
    }

    // ---- adaptation -------------------------------------------------------

    /// Hot-replaces component `old` with (already hosted) component `new`:
    /// every incoming edge is rebound to `new`'s equivalent interface,
    /// every outgoing binding is re-created from `new`'s equally named
    /// receptacles, interceptor chains are preserved, and `old` is
    /// destroyed. If `old` was active, `new` is activated.
    ///
    /// The order is what makes [`Quiescence::PerEdge`] loss-free under
    /// concurrent calls: (1) bind `new`'s outgoing receptacles, (2)
    /// retarget the incoming edges to `new`, (3) unbind `old`'s outgoing
    /// receptacles. At every instant a call entering through an
    /// incoming edge lands in a component whose outputs are bound — an
    /// unbound pass-through component would swallow it and answer `Ok`.
    ///
    /// # Errors
    ///
    /// Fails if `new` lacks an interface or receptacle that the current
    /// topology requires; the graph is left unchanged in that case for
    /// incoming edges processed after the failure point (best-effort
    /// rollback is not attempted — callers should validate `new`'s shape
    /// via the CF first, which the Router CF does).
    pub fn replace(&self, old: ComponentId, new: ComponentId, mode: Quiescence) -> Result<()> {
        let _full_guard = match mode {
            Quiescence::FullGraph => Some(self.arch.quiesce()),
            Quiescence::PerEdge => None,
        };
        let old_comp = self.component(old)?;
        let new_comp = self.component(new)?;
        let was_active = old_comp.core().state() == LifecycleState::Active;
        if was_active {
            old_comp.core().transition(LifecycleState::Suspended)?;
            old_comp.on_deactivate()?;
        }

        // Validate fit before mutating anything.
        let records = self.arch.binding_records();
        for rec in records.iter().filter(|r| r.dst == old) {
            new_comp.core().query_interface(rec.interface)?;
        }

        let wrapped = |raw: &InterfaceRef, chain: &Option<Arc<InterceptorChain>>| match chain {
            Some(chain) => self
                .runtime
                .interceptors()
                .wrap_with(raw.clone(), Arc::clone(chain)),
            None => Ok(raw.clone()),
        };
        // Where an outgoing edge of `old` leads once it is `new`'s
        // (component and raw interface): a self-loop's far end is `new`
        // itself.
        let far_end = |rec: &BindingRecord| {
            if rec.dst == old {
                Ok((new, new_comp.core().query_interface(rec.interface)?))
            } else {
                Ok((rec.dst, rec.raw.clone()))
            }
        };

        // 1. Outgoing edges first: bind `new`'s receptacles while
        //    nothing can reach it yet.
        for rec in records.iter().filter(|r| r.src == old) {
            new_comp.core().bind_receptacle(
                &rec.receptacle,
                &rec.label,
                wrapped(&far_end(rec)?.1, &rec.chain)?,
            )?;
        }

        // 2. Incoming edges: point the sources at the fully wired
        //    `new`. Each rebind waits out the calls still on its edge,
        //    so when the loop ends nothing is inside `old`.
        for rec in records.iter().filter(|r| r.dst == old && r.src != old) {
            let raw_new = new_comp.core().query_interface(rec.interface)?;
            let src = self.component(rec.src)?;
            src.core().rebind_receptacle(
                &rec.receptacle,
                old,
                &rec.label,
                wrapped(&raw_new, &rec.chain)?,
            )?;
            self.arch.update_binding(rec.id, |r| {
                r.dst = new;
                r.raw = raw_new;
            })?;
        }

        // 3. Only now release `old`'s outgoing side.
        for rec in records.iter().filter(|r| r.src == old) {
            old_comp
                .core()
                .unbind_receptacle(&rec.receptacle, rec.dst, &rec.label)?;
            let (dst, raw) = far_end(rec)?;
            self.arch.update_binding(rec.id, |r| {
                r.src = new;
                r.dst = dst;
                r.raw = raw;
            })?;
        }

        // Life-cycle handover.
        if new_comp.core().state() == LifecycleState::Created {
            new_comp.core().transition(LifecycleState::Connected)?;
        }
        if was_active {
            new_comp.core().transition(LifecycleState::Active)?;
            new_comp.on_activate()?;
        }
        old_comp.core().transition(LifecycleState::Destroyed)?;
        self.arch.remove_component(old)?;
        self.hosts.write().remove(&old);
        Ok(())
    }

    /// Drives a component to the [`LifecycleState::Active`] state,
    /// passing through `Connected` if necessary.
    ///
    /// # Errors
    ///
    /// Propagates illegal transitions and `on_activate` failures.
    pub fn activate(&self, id: ComponentId) -> Result<()> {
        let comp = self.component(id)?;
        match comp.core().state() {
            LifecycleState::Created => {
                comp.core().transition(LifecycleState::Connected)?;
                comp.core().transition(LifecycleState::Active)?;
            }
            LifecycleState::Connected | LifecycleState::Suspended => {
                comp.core().transition(LifecycleState::Active)?;
            }
            LifecycleState::Active => return Ok(()),
            LifecycleState::Destroyed => {
                return Err(Error::IllegalTransition {
                    from: "Destroyed",
                    to: "Active",
                })
            }
        }
        comp.on_activate()
    }

    /// Suspends an active component.
    ///
    /// # Errors
    ///
    /// Propagates illegal transitions and `on_deactivate` failures.
    pub fn deactivate(&self, id: ComponentId) -> Result<()> {
        let comp = self.component(id)?;
        comp.core().transition(LifecycleState::Suspended)?;
        comp.on_deactivate()
    }

    /// Destroys a component: removes every binding that touches it,
    /// transitions it to `Destroyed`, and drops it from the capsule.
    ///
    /// # Errors
    ///
    /// Propagates unbind failures.
    pub fn destroy(&self, id: ComponentId) -> Result<()> {
        let comp = self.component(id)?;
        for rec in self.arch.bindings_of(id) {
            self.unbind(rec.id)?;
        }
        if comp.core().state() == LifecycleState::Active {
            comp.on_deactivate()?;
        }
        comp.core().transition(LifecycleState::Destroyed)?;
        self.arch.remove_component(id)?;
        self.hosts.write().remove(&id);
        Ok(())
    }

    // ---- reporting --------------------------------------------------------

    /// Graphviz rendering of the hosted graph.
    pub fn to_dot(&self) -> String {
        self.arch.to_dot(&self.name)
    }

    /// Footprint estimate of the hosted configuration in bytes.
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.arch.footprint_bytes()
    }
}

impl fmt::Debug for Capsule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Capsule(`{}` {}: {} components, {} bindings)",
            self.name,
            self.id,
            self.arch.component_count(),
            self.arch.binding_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::TopologyRule;
    use crate::interception::FnHook;
    use crate::ipc::{wire, IpcDispatch};
    use crate::receptacle::Receptacle;
    use std::sync::atomic::{AtomicU64, Ordering};

    // A tiny "number pipeline" component model used across capsule tests:
    // sources push u64s to sinks through the INumberSink interface.
    trait INumberSink: Send + Sync {
        fn accept(&self, n: u64) -> Result<u64>;
    }
    const ISINK: InterfaceId = InterfaceId::new("captest.INumberSink");

    struct Adder {
        core: ComponentCore,
        bias: u64,
        seen: AtomicU64,
        out: Receptacle<dyn INumberSink>,
    }

    impl Adder {
        fn make(bias: u64) -> Arc<Self> {
            Arc::new(Self {
                core: ComponentCore::new(ComponentDescriptor::new(
                    "captest.Adder",
                    Version::new(1, 0, 0),
                )),
                bias,
                seen: AtomicU64::new(0),
                out: Receptacle::single("out", ISINK),
            })
        }
    }

    impl INumberSink for Adder {
        fn accept(&self, n: u64) -> Result<u64> {
            self.seen.fetch_add(1, Ordering::Relaxed);
            let v = n + self.bias;
            match self.out.with_bound(|next| next.accept(v)) {
                Some(r) => r,
                None => Ok(v),
            }
        }
    }

    impl Component for Adder {
        fn core(&self) -> &ComponentCore {
            &self.core
        }
        fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
            let me: Arc<dyn INumberSink> = self.clone();
            reg.expose(ISINK, &me);
            reg.receptacle(&self.out);
        }
    }

    struct SinkWrapper {
        target: Arc<dyn INumberSink>,
        chain: Arc<InterceptorChain>,
    }
    impl INumberSink for SinkWrapper {
        fn accept(&self, n: u64) -> Result<u64> {
            self.chain.around("accept", || self.target.accept(n))?
        }
    }

    fn runtime_with_wrappers() -> Arc<Runtime> {
        let rt = Runtime::new();
        rt.interceptors().register(
            ISINK,
            Box::new(|target, chain| {
                let inner: Arc<dyn INumberSink> = target.downcast().expect("INumberSink");
                let provider = target.provider();
                let wrapped: Arc<dyn INumberSink> = Arc::new(SinkWrapper {
                    target: inner,
                    chain,
                });
                InterfaceRef::new(ISINK, provider, wrapped)
            }),
        );
        rt
    }

    fn pipeline(capsule: &Arc<Capsule>) -> (ComponentId, ComponentId, Arc<Adder>, Arc<Adder>) {
        let a = Adder::make(1);
        let b = Adder::make(10);
        let (ra, rb) = (Arc::clone(&a), Arc::clone(&b));
        let aid = capsule.adopt(a).unwrap();
        let bid = capsule.adopt(b).unwrap();
        capsule.bind_simple(aid, "out", bid, ISINK).unwrap();
        (aid, bid, ra, rb)
    }

    fn call(capsule: &Capsule, id: ComponentId, n: u64) -> Result<u64> {
        let sink: Arc<dyn INumberSink> = capsule
            .query_interface(id, ISINK)
            .unwrap()
            .downcast()
            .unwrap();
        sink.accept(n)
    }

    #[test]
    fn bind_and_call_through_pipeline() {
        let rt = runtime_with_wrappers();
        let capsule = Capsule::new("t", &rt);
        let (aid, _bid, _, _) = pipeline(&capsule);
        assert_eq!(call(&capsule, aid, 0).unwrap(), 11); // +1 then +10
        assert_eq!(capsule.arch().binding_count(), 1);
    }

    #[test]
    fn capsule_constraints_veto_bind() {
        let rt = runtime_with_wrappers();
        let capsule = Capsule::new("t", &rt);
        capsule.constraints().add(
            TopologyRule::Forbid("captest.Adder".into(), "captest.Adder".into()).into_constraint(),
        );
        let a = capsule.adopt(Adder::make(1)).unwrap();
        let b = capsule.adopt(Adder::make(2)).unwrap();
        assert!(matches!(
            capsule.bind_simple(a, "out", b, ISINK),
            Err(Error::ConstraintVeto { .. })
        ));
        assert_eq!(capsule.arch().binding_count(), 0);
    }

    #[test]
    fn unbind_removes_edge_and_stops_forwarding() {
        let rt = runtime_with_wrappers();
        let capsule = Capsule::new("t", &rt);
        let (aid, _bid, _, rb) = pipeline(&capsule);
        let binding = capsule.arch().binding_records()[0].id;
        capsule.unbind(binding).unwrap();
        assert_eq!(call(&capsule, aid, 0).unwrap(), 1); // only +1 now
        assert_eq!(rb.seen.load(Ordering::Relaxed), 0);
        assert!(capsule.unbind(binding).is_err());
    }

    #[test]
    fn intercept_counts_calls_and_unintercept_restores() {
        let rt = runtime_with_wrappers();
        let capsule = Capsule::new("t", &rt);
        let (aid, _bid, _, _) = pipeline(&capsule);
        let binding = capsule.arch().binding_records()[0].id;
        let chain = capsule.intercept(binding).unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        chain.add(FnHook::new(
            "count",
            move |_| {
                c.fetch_add(1, Ordering::Relaxed);
                Ok(())
            },
            |_| {},
        ));
        assert_eq!(call(&capsule, aid, 0).unwrap(), 11);
        assert_eq!(count.load(Ordering::Relaxed), 1);
        // Idempotent intercept returns the same chain.
        let chain2 = capsule.intercept(binding).unwrap();
        assert_eq!(chain2.len(), 1);
        capsule.unintercept(binding).unwrap();
        assert_eq!(call(&capsule, aid, 0).unwrap(), 11);
        assert_eq!(count.load(Ordering::Relaxed), 1, "hook no longer on path");
    }

    #[test]
    fn replace_rewires_incoming_and_outgoing_edges() {
        let rt = runtime_with_wrappers();
        let capsule = Capsule::new("t", &rt);
        // a -> b -> c; replace b with b2 (bias 100).
        let (aid, bid, _, _) = pipeline(&capsule);
        let c = Adder::make(1000);
        let cid = capsule.adopt(c).unwrap();
        capsule.bind_simple(bid, "out", cid, ISINK).unwrap();
        capsule.activate(aid).unwrap();
        capsule.activate(bid).unwrap();
        capsule.activate(cid).unwrap();
        assert_eq!(call(&capsule, aid, 0).unwrap(), 1011);

        let b2 = Adder::make(100);
        let b2id = capsule.adopt(b2).unwrap();
        capsule.replace(bid, b2id, Quiescence::PerEdge).unwrap();
        assert_eq!(call(&capsule, aid, 0).unwrap(), 1101); // +1 +100 +1000
        assert!(capsule.component(bid).is_err(), "old component removed");
        assert_eq!(
            capsule.component(b2id).unwrap().core().state(),
            LifecycleState::Active
        );
        assert_eq!(capsule.arch().binding_count(), 2);
    }

    #[test]
    fn per_edge_replace_under_concurrent_calls_loses_nothing() {
        // Regression: incoming edges were retargeted before `new`'s
        // outgoing receptacles were bound, so a concurrent call landed
        // in an unbound Adder — which answers `Ok` and forwards nothing.
        let rt = runtime_with_wrappers();
        let capsule = Capsule::new("t", &rt);
        let (aid, mut mid, _, _) = pipeline(&capsule);
        let sink = Adder::make(0);
        let sink_id = capsule.adopt(sink.clone()).unwrap();
        capsule.bind_simple(mid, "out", sink_id, ISINK).unwrap();
        for id in [aid, mid, sink_id] {
            capsule.activate(id).unwrap();
        }
        let swapping = std::sync::atomic::AtomicBool::new(true);
        let accepted = std::thread::scope(|s| {
            let pusher = s.spawn(|| {
                let mut accepted = 0u64;
                while swapping.load(Ordering::SeqCst) {
                    call(&capsule, aid, 0).unwrap();
                    accepted += 1;
                }
                accepted
            });
            for _ in 0..2000 {
                let next = capsule.adopt(Adder::make(10)).unwrap();
                capsule.replace(mid, next, Quiescence::PerEdge).unwrap();
                mid = next;
            }
            swapping.store(false, Ordering::SeqCst);
            pusher.join().unwrap()
        });
        assert_eq!(sink.seen.load(Ordering::Relaxed), accepted);
        assert_eq!(capsule.arch().binding_count(), 2);
    }

    #[test]
    fn replace_carries_a_self_loop_over_to_the_new_component() {
        struct Echo {
            core: ComponentCore,
            depth: AtomicU64,
            again: Receptacle<dyn INumberSink>,
        }
        impl INumberSink for Echo {
            // Calls itself once through `again`, then stops.
            fn accept(&self, n: u64) -> Result<u64> {
                if self.depth.fetch_add(1, Ordering::Relaxed) % 2 == 1 {
                    return Ok(n);
                }
                self.again
                    .with_bound(|me| me.accept(n + 1))
                    .unwrap_or(Ok(n))
            }
        }
        impl Component for Echo {
            fn core(&self) -> &ComponentCore {
                &self.core
            }
            fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
                let me: Arc<dyn INumberSink> = self.clone();
                reg.expose(ISINK, &me);
                reg.receptacle(&self.again);
            }
        }
        let echo = || {
            Arc::new(Echo {
                core: ComponentCore::new(ComponentDescriptor::new(
                    "captest.Echo",
                    Version::new(1, 0, 0),
                )),
                depth: AtomicU64::new(0),
                again: Receptacle::single("again", ISINK),
            })
        };
        let rt = runtime_with_wrappers();
        let capsule = Capsule::new("t", &rt);
        let old = capsule.adopt(echo()).unwrap();
        capsule.bind_simple(old, "again", old, ISINK).unwrap();
        assert_eq!(call(&capsule, old, 0).unwrap(), 1);

        let fresh = echo();
        let new = capsule.adopt(fresh.clone()).unwrap();
        capsule.replace(old, new, Quiescence::PerEdge).unwrap();
        assert_eq!(call(&capsule, new, 0).unwrap(), 1, "loops through itself");
        assert_eq!(fresh.depth.load(Ordering::Relaxed), 2, "not through `old`");
        let [rec] = &capsule.arch().binding_records()[..] else {
            panic!("one binding");
        };
        assert_eq!((rec.src, rec.dst), (new, new));
    }

    #[test]
    fn replace_preserves_interceptor_chains() {
        let rt = runtime_with_wrappers();
        let capsule = Capsule::new("t", &rt);
        let (aid, bid, _, _) = pipeline(&capsule);
        let binding = capsule.arch().binding_records()[0].id;
        let chain = capsule.intercept(binding).unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let cc = Arc::clone(&count);
        chain.add(FnHook::new(
            "count",
            move |_| {
                cc.fetch_add(1, Ordering::Relaxed);
                Ok(())
            },
            |_| {},
        ));
        let b2id = capsule.adopt(Adder::make(20)).unwrap();
        capsule.replace(bid, b2id, Quiescence::FullGraph).unwrap();
        assert_eq!(call(&capsule, aid, 0).unwrap(), 21);
        assert_eq!(count.load(Ordering::Relaxed), 1, "chain survived the swap");
    }

    #[test]
    fn replace_missing_interface_fails_before_mutation() {
        struct NoIface {
            core: ComponentCore,
        }
        impl Component for NoIface {
            fn core(&self) -> &ComponentCore {
                &self.core
            }
            fn publish(self: Arc<Self>, _reg: &Registrar<'_>) {}
        }
        let rt = runtime_with_wrappers();
        let capsule = Capsule::new("t", &rt);
        let (aid, bid, _, _) = pipeline(&capsule);
        let bad = capsule
            .adopt(Arc::new(NoIface {
                core: ComponentCore::new(ComponentDescriptor::new(
                    "captest.NoIface",
                    Version::new(1, 0, 0),
                )),
            }))
            .unwrap();
        assert!(capsule.replace(bid, bad, Quiescence::PerEdge).is_err());
        // Original pipeline still intact.
        assert_eq!(call(&capsule, aid, 5).unwrap(), 16);
    }

    #[test]
    fn destroy_removes_component_and_edges() {
        let rt = runtime_with_wrappers();
        let capsule = Capsule::new("t", &rt);
        let (aid, bid, _, _) = pipeline(&capsule);
        capsule.destroy(bid).unwrap();
        assert_eq!(capsule.arch().binding_count(), 0);
        assert_eq!(call(&capsule, aid, 0).unwrap(), 1);
        assert!(capsule.component(bid).is_err());
    }

    // ---- isolation --------------------------------------------------------

    struct IsolatedAdderSkeleton {
        bias: u64,
        crash_on: u64,
    }
    impl IpcDispatch for IsolatedAdderSkeleton {
        fn dispatch(
            &self,
            _interface: &str,
            method: &str,
            payload: &[u8],
        ) -> std::result::Result<Vec<u8>, String> {
            match method {
                "accept" => {
                    let mut pos = 0;
                    let n = wire::get_u64(payload, &mut pos).ok_or("bad payload")?;
                    assert!(n != self.crash_on, "injected crash on {n}");
                    let mut out = Vec::new();
                    wire::put_u64(&mut out, n + self.bias);
                    Ok(out)
                }
                other => Err(format!("no method `{other}`")),
            }
        }
    }

    struct SinkProxy {
        client: Arc<IpcClient>,
    }
    impl INumberSink for SinkProxy {
        fn accept(&self, n: u64) -> Result<u64> {
            let mut payload = Vec::new();
            wire::put_u64(&mut payload, n);
            let reply = self.client.call(ISINK.name(), "accept", payload)?;
            let mut pos = 0;
            wire::get_u64(&reply, &mut pos).ok_or(Error::IpcFailure {
                detail: "short reply".into(),
            })
        }
    }

    fn runtime_with_isolation() -> Arc<Runtime> {
        let rt = runtime_with_wrappers();
        rt.isolation().register_skeleton(
            "captest.IsolatedAdder",
            Box::new(|| {
                Arc::new(IsolatedAdderSkeleton {
                    bias: 7,
                    crash_on: 13,
                })
            }),
        );
        rt.isolation().register_proxy(
            ISINK,
            Box::new(|client, provider| {
                let proxy: Arc<dyn INumberSink> = Arc::new(SinkProxy { client });
                InterfaceRef::new(ISINK, provider, proxy)
            }),
        );
        rt
    }

    #[test]
    fn isolated_component_binds_transparently() {
        let rt = runtime_with_isolation();
        let capsule = Capsule::new("t", &rt);
        let a = capsule.adopt(Adder::make(1)).unwrap();
        let iso = capsule
            .instantiate_isolated("captest.IsolatedAdder", &[ISINK])
            .unwrap();
        capsule.bind_simple(a, "out", iso, ISINK).unwrap();
        // 0 +1 (in-proc) +7 (isolated) = 8, crossing the IPC boundary.
        assert_eq!(call(&capsule, a, 0).unwrap(), 8);
    }

    #[test]
    fn crash_is_contained_and_respawn_recovers() {
        let rt = runtime_with_isolation();
        let capsule = Capsule::new("t", &rt);
        let a = capsule.adopt(Adder::make(1)).unwrap();
        let iso = capsule
            .instantiate_isolated("captest.IsolatedAdder", &[ISINK])
            .unwrap();
        capsule.bind_simple(a, "out", iso, ISINK).unwrap();
        // 12 +1 = 13 triggers the injected crash inside the skeleton.
        let err = call(&capsule, a, 12).unwrap_err();
        assert!(matches!(err, Error::ComponentCrashed { .. }));
        let control = capsule.isolation_control(iso).unwrap();
        assert!(control.is_dead());
        control.respawn();
        assert_eq!(call(&capsule, a, 0).unwrap(), 8, "service restored");
        assert_eq!(control.restart_count(), 1);
    }

    #[test]
    fn isolated_without_proxy_is_rejected() {
        let rt = Runtime::new();
        rt.isolation().register_skeleton(
            "captest.IsolatedAdder",
            Box::new(|| {
                Arc::new(IsolatedAdderSkeleton {
                    bias: 7,
                    crash_on: u64::MAX,
                })
            }),
        );
        let capsule = Capsule::new("t", &rt);
        assert!(matches!(
            capsule.instantiate_isolated("captest.IsolatedAdder", &[ISINK]),
            Err(Error::InterfaceNotFound { .. })
        ));
    }

    #[test]
    fn registry_instantiation_via_capsule() {
        let rt = runtime_with_wrappers();
        rt.registry().register(
            "captest.Adder",
            Version::new(1, 0, 0),
            Box::new(|| Adder::make(5)),
        );
        let capsule = Capsule::new("t", &rt);
        let id = capsule.instantiate("captest.Adder").unwrap();
        assert_eq!(call(&capsule, id, 1).unwrap(), 6);
        assert!(capsule.instantiate("captest.Missing").is_err());
    }

    #[test]
    fn fused_target_bypasses_receptacle_and_interceptors() {
        let rt = runtime_with_wrappers();
        let capsule = Capsule::new("t", &rt);
        let a = capsule.adopt(Adder::make(1)).unwrap();
        let b = capsule.adopt(Adder::make(10)).unwrap();
        let binding = capsule.bind_simple(a, "out", b, ISINK).unwrap();

        let fused: Arc<dyn INumberSink> =
            capsule.fused_target(binding).unwrap().downcast().unwrap();
        // Calling the fused handle hits `b` directly: 0 + 10 (b's bias),
        // not 0 + 1 + 10 (the full a→b chain).
        assert_eq!(fused.accept(0).unwrap(), 10);

        // Interception splices into the *binding*; the fused handle keeps
        // the raw path.
        let chain = capsule.intercept(binding).unwrap();
        chain.add(crate::interception::FnHook::new(
            "veto",
            |_| {
                Err(Error::ConstraintVeto {
                    constraint: "x".into(),
                    reason: "no".into(),
                })
            },
            |_| {},
        ));
        assert_eq!(fused.accept(0).unwrap(), 10, "fused path skips the veto");
        // While the bound path now refuses.
        assert!(call(&capsule, a, 0).is_err());

        // Unknown ids are reported.
        capsule.unbind(binding).unwrap();
        assert!(capsule.fused_target(binding).is_err());
    }

    #[test]
    fn footprint_grows_with_configuration() {
        let rt = runtime_with_wrappers();
        let capsule = Capsule::new("t", &rt);
        let empty = capsule.footprint_bytes();
        pipeline(&capsule);
        assert!(capsule.footprint_bytes() > empty);
    }
}
