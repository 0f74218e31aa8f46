//! Composite components and their **controller** (paper Figure 3).
//!
//! Paper §5, rule R3: "compliant components may be composite, in which
//! case all their internal constituents must (recursively) conform to the
//! CF's rules; additionally, composite components should contain a
//! so-called *controller* component that manages and configures the other
//! internal constituents."
//!
//! A [`Composite`] here is an ordinary OpenCOM component whose internals
//! are a *nested CF instance* governing its constituents ("Gw CF
//! instance" in Fig. 3) — "CFs accept plug-in components and, furthermore,
//! are themselves built in terms of components; the whole structure is
//! uniformly component-based" (paper §2). The composite:
//!
//! * delegates its own `IPacketPush` input to a designated *ingress*
//!   constituent, and `IPacketPull` to a designated *egress* constituent;
//! * optionally re-exports a constituent's `IClassifier`;
//! * exposes [`IComposite`] so the Router CF can recursively admit the
//!   internal graph, and [`IController`] so managers can reconfigure it;
//! * polices constraint addition/removal through the nested CF's ACL,
//!   "managed by the composite's controller" (paper §5).
//!
//! Untrusted constituents can be hosted **out-of-capsule** (separate
//! simulated address space, bindings over marshalling IPC) via
//! [`CompositeBuilder::add_isolated`], mirroring paper §5's crash
//! containment.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use opencom::binding::BindConstraint;
use opencom::capsule::Capsule;
use opencom::cf::{CfOperation, Principal};
use opencom::component::{Component, ComponentCore, ComponentDescriptor, Registrar};
use opencom::error::{Error, Result};
use opencom::ident::{BindingId, ComponentId, InterfaceId, Version};

use netkit_packet::batch::PacketBatch;
use netkit_packet::packet::Packet;

use crate::api::{
    BatchResult, IClassifier, IPacketPull, IPacketPush, PushError, PushResult, ICLASSIFIER,
    IPACKET_PULL, IPACKET_PUSH,
};
use crate::cf::RouterCf;

/// Interface id for [`IComposite`].
pub const ICOMPOSITE: InterfaceId = InterfaceId::new("netkit.IComposite");
/// Interface id for [`IController`].
pub const ICONTROLLER: InterfaceId = InterfaceId::new("netkit.IController");

/// Structural introspection over a composite, used by the Router CF's
/// recursive admission check (rule R3).
pub trait IComposite: Send + Sync {
    /// `(label, component)` pairs for every constituent, controller
    /// excluded.
    fn constituent_components(&self) -> Vec<(String, Arc<dyn Component>)>;

    /// The controller's component id, if one is present (R3 requires it).
    fn controller_id(&self) -> Option<ComponentId>;

    /// Name of the nested CF instance governing the constituents.
    fn cf_name(&self) -> String;
}

/// Management interface of a composite's controller (Fig. 3).
///
/// All mutating operations are policed by the nested CF's ACL; the
/// controller's *owner* principal (set at build time) additionally holds
/// the exclusive right to delegate rights to others via [`grant`].
///
/// [`grant`]: IController::grant
pub trait IController: Send + Sync {
    /// `(label, id)` pairs for every constituent, controller excluded.
    fn constituents(&self) -> Vec<(String, ComponentId)>;

    /// Installs a constraint on the composite's internal topology
    /// (an interceptor on the nested CF's `bind`).
    ///
    /// # Errors
    ///
    /// [`Error::AccessDenied`] without an `AddConstraint` grant.
    fn add_constraint(&self, principal: &Principal, c: Arc<dyn BindConstraint>) -> Result<()>;

    /// Removes a constraint by name.
    ///
    /// # Errors
    ///
    /// [`Error::AccessDenied`] without a `RemoveConstraint` grant;
    /// [`Error::StaleReference`] for unknown names.
    fn remove_constraint(&self, principal: &Principal, name: &str) -> Result<()>;

    /// Names of the currently installed constraints.
    fn constraint_names(&self) -> Vec<String>;

    /// Delegates a management right. Only the owner (or `system`) may
    /// grant.
    ///
    /// # Errors
    ///
    /// [`Error::AccessDenied`] for non-owner granters.
    fn grant(&self, granter: &Principal, to: Principal, op: CfOperation) -> Result<()>;

    /// Creates an internal binding between constituents (checked against
    /// the CF rules and installed constraints).
    ///
    /// # Errors
    ///
    /// Propagates ACL, rule, constraint, and bind failures.
    fn rewire(
        &self,
        principal: &Principal,
        src_label: &str,
        receptacle: &str,
        bind_label: &str,
        dst_label: &str,
        interface: InterfaceId,
    ) -> Result<BindingId>;

    /// Removes an internal binding.
    ///
    /// # Errors
    ///
    /// Propagates ACL and unbind failures.
    fn unwire(&self, principal: &Principal, binding: BindingId) -> Result<()>;

    /// ACL-gated access to a constituent's `IClassifier` (the "Access to
    /// IClassifier interfaces" arrow in Fig. 3).
    ///
    /// # Errors
    ///
    /// [`Error::AccessDenied`] without an `Intercept` grant;
    /// [`Error::InterfaceNotFound`] if the constituent lacks a classifier.
    fn classifier(&self, principal: &Principal, label: &str) -> Result<Arc<dyn IClassifier>>;

    /// Hot-replaces the constituent at `label` with an already-hosted
    /// component, rewiring every edge one at a time (each edge waits
    /// only for its own in-flight calls).
    ///
    /// # Errors
    ///
    /// Propagates ACL, CF admission, and replacement failures.
    fn replace(&self, principal: &Principal, label: &str, new: ComponentId) -> Result<()>;
}

/// Shared mutable state between a [`Composite`] and its [`Controller`].
struct CompositeState {
    cf: RouterCf,
    labels: RwLock<HashMap<String, ComponentId>>,
    owner: Principal,
}

impl CompositeState {
    fn lookup(&self, label: &str) -> Result<ComponentId> {
        self.labels
            .read()
            .get(label)
            .copied()
            .ok_or_else(|| Error::StaleReference {
                what: format!("constituent `{label}`"),
            })
    }
}

/// The controller constituent (Fig. 3, bottom-left box).
struct Controller {
    core: ComponentCore,
    state: Arc<CompositeState>,
}

impl Controller {
    fn new(state: Arc<CompositeState>) -> Arc<Self> {
        Arc::new(Self {
            core: ComponentCore::new(ComponentDescriptor::new(
                "netkit.Controller",
                Version::new(1, 0, 0),
            )),
            state,
        })
    }
}

impl IController for Controller {
    fn constituents(&self) -> Vec<(String, ComponentId)> {
        let mut out: Vec<(String, ComponentId)> = self
            .state
            .labels
            .read()
            .iter()
            .map(|(l, id)| (l.clone(), *id))
            .collect();
        out.sort();
        out
    }

    fn add_constraint(&self, principal: &Principal, c: Arc<dyn BindConstraint>) -> Result<()> {
        self.state.cf.add_constraint(principal, c)
    }

    fn remove_constraint(&self, principal: &Principal, name: &str) -> Result<()> {
        self.state.cf.remove_constraint(principal, name)
    }

    fn constraint_names(&self) -> Vec<String> {
        self.state.cf.inner().constraint_names()
    }

    fn grant(&self, granter: &Principal, to: Principal, op: CfOperation) -> Result<()> {
        if granter != &self.state.owner && granter != &Principal::system() {
            return Err(Error::AccessDenied {
                principal: granter.0.clone(),
                operation: "Grant".into(),
            });
        }
        self.state.cf.acl().grant(to, op);
        Ok(())
    }

    fn rewire(
        &self,
        principal: &Principal,
        src_label: &str,
        receptacle: &str,
        bind_label: &str,
        dst_label: &str,
        interface: InterfaceId,
    ) -> Result<BindingId> {
        let src = self.state.lookup(src_label)?;
        let dst = self.state.lookup(dst_label)?;
        self.state
            .cf
            .bind(principal, src, receptacle, bind_label, dst, interface)
    }

    fn unwire(&self, principal: &Principal, binding: BindingId) -> Result<()> {
        self.state.cf.unbind(principal, binding)
    }

    fn classifier(&self, principal: &Principal, label: &str) -> Result<Arc<dyn IClassifier>> {
        let id = self.state.lookup(label)?;
        self.state.cf.classifier_access(principal, id)
    }

    fn replace(&self, principal: &Principal, label: &str, new: ComponentId) -> Result<()> {
        self.state.cf.acl().check(principal, CfOperation::Replace)?;
        let old = self.state.lookup(label)?;
        // Admit the replacement against the CF rules *before* touching the
        // graph (R1–R3 still hold afterwards).
        let new_comp = self.state.cf.capsule().component(new)?;
        opencom::cf::CfRules::admit(&crate::cf::RouterRules, &new_comp)?;
        self.state.cf.capsule().replace(old, new)?;
        // Keep the CF membership and label table coherent.
        self.state.cf.unplug(&Principal::system(), old)?;
        self.state.cf.plug(&Principal::system(), new)?;
        self.state.labels.write().insert(label.to_string(), new);
        Ok(())
    }
}

impl Component for Controller {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let me: Arc<dyn IController> = self.clone();
        reg.expose(ICONTROLLER, &me);
    }
}

impl fmt::Debug for Controller {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Controller({} constituents)",
            self.state.labels.read().len()
        )
    }
}

/// A composite component accepted by the Router CF (Fig. 3).
///
/// Build one with [`CompositeBuilder`]; see the crate examples for the
/// full Fig. 3 gateway.
pub struct Composite {
    core: ComponentCore,
    state: Arc<CompositeState>,
    controller: Arc<Controller>,
    controller_id: ComponentId,
    ingress: Option<Arc<dyn IPacketPush>>,
    egress: Option<Arc<dyn IPacketPull>>,
    classifier: Option<Arc<dyn IClassifier>>,
}

impl Composite {
    /// The controller's management interface.
    pub fn controller(&self) -> Arc<dyn IController> {
        self.controller.clone()
    }

    /// The nested CF governing the constituents.
    pub fn cf(&self) -> &RouterCf {
        &self.state.cf
    }

    /// Id of the constituent registered under `label`.
    ///
    /// # Errors
    ///
    /// [`Error::StaleReference`] for unknown labels.
    pub fn constituent(&self, label: &str) -> Result<ComponentId> {
        self.state.lookup(label)
    }
}

impl IComposite for Composite {
    fn constituent_components(&self) -> Vec<(String, Arc<dyn Component>)> {
        let labels = self.state.labels.read();
        let mut out = Vec::with_capacity(labels.len());
        for (label, id) in labels.iter() {
            if let Ok(c) = self.state.cf.capsule().component(*id) {
                out.push((label.clone(), c));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn controller_id(&self) -> Option<ComponentId> {
        Some(self.controller_id)
    }

    fn cf_name(&self) -> String {
        self.state.cf.name().to_string()
    }
}

impl IPacketPush for Composite {
    fn push(&self, pkt: Packet) -> PushResult {
        match &self.ingress {
            Some(input) => input.push(pkt),
            None => Err(PushError::Unbound),
        }
    }

    fn push_batch(&self, batch: PacketBatch) -> BatchResult {
        // Whole batches cross the composite boundary in one delegation,
        // so a Fig-3 gateway adds no per-packet indirection cost.
        match &self.ingress {
            Some(input) => input.push_batch(batch),
            None => BatchResult::err(batch.len(), PushError::Unbound),
        }
    }
}

impl IPacketPull for Composite {
    fn pull(&self) -> Option<Packet> {
        self.egress.as_ref().and_then(|e| e.pull())
    }

    fn pull_batch(&self, max: usize) -> PacketBatch {
        match &self.egress {
            Some(egress) => egress.pull_batch(max),
            None => PacketBatch::new(),
        }
    }
}

impl IClassifier for Composite {
    fn register_filter(&self, spec: crate::api::FilterSpec) -> Result<crate::api::FilterId> {
        match &self.classifier {
            Some(c) => c.register_filter(spec),
            None => Err(Error::InterfaceNotFound {
                component: self.core.id(),
                interface: ICLASSIFIER,
            }),
        }
    }
    fn remove_filter(&self, id: crate::api::FilterId) -> Result<()> {
        match &self.classifier {
            Some(c) => c.remove_filter(id),
            None => Err(Error::InterfaceNotFound {
                component: self.core.id(),
                interface: ICLASSIFIER,
            }),
        }
    }
    fn filters(&self) -> Vec<(crate::api::FilterId, crate::api::FilterSpec)> {
        self.classifier
            .as_ref()
            .map(|c| c.filters())
            .unwrap_or_default()
    }
}

impl Component for Composite {
    fn core(&self) -> &ComponentCore {
        &self.core
    }

    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let meta: Arc<dyn IComposite> = self.clone();
        reg.expose(ICOMPOSITE, &meta);
        let ctl: Arc<dyn IController> = self.controller.clone();
        reg.expose(ICONTROLLER, &ctl);
        if self.ingress.is_some() {
            let push: Arc<dyn IPacketPush> = self.clone();
            reg.expose(IPACKET_PUSH, &push);
        }
        if self.egress.is_some() {
            let pull: Arc<dyn IPacketPull> = self.clone();
            reg.expose(IPACKET_PULL, &pull);
        }
        if self.classifier.is_some() {
            let cls: Arc<dyn IClassifier> = self.clone();
            reg.expose(ICLASSIFIER, &cls);
        }
    }

    fn footprint_bytes(&self) -> usize {
        let mut total = std::mem::size_of::<Self>();
        for (_, c) in self.constituent_components() {
            total += c.footprint_bytes();
        }
        total
    }
}

impl fmt::Debug for Composite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Composite(`{}`, {} constituents)",
            self.core.descriptor().type_name,
            self.state.labels.read().len()
        )
    }
}

/// Pending internal bind recorded by the builder.
struct PendingBind {
    src: String,
    receptacle: String,
    bind_label: String,
    dst: String,
    interface: InterfaceId,
}

/// Builder for [`Composite`] components.
///
/// ```
/// use std::sync::Arc;
/// use opencom::capsule::Capsule;
/// use opencom::cf::Principal;
/// use opencom::runtime::Runtime;
/// use netkit_router::api::{register_packet_interfaces, IPACKET_PUSH};
/// use netkit_router::composite::CompositeBuilder;
/// use netkit_router::elements::{ClassifierEngine, Discard};
///
/// let rt = Runtime::new();
/// register_packet_interfaces(&rt);
/// let capsule = Capsule::new("node", &rt);
///
/// let composite = CompositeBuilder::new("demo.Gateway", Arc::clone(&capsule))
///     .owner(Principal::new("admin"))
///     .add("cls", ClassifierEngine::new())?
///     .add("sink", Discard::new())?
///     .wire("cls", "out", "default", "sink", IPACKET_PUSH)
///     .ingress("cls")
///     .classifier("cls")
///     .build()?;
/// assert!(composite.constituent("cls").is_ok());
/// # Ok::<(), opencom::error::Error>(())
/// ```
pub struct CompositeBuilder {
    type_name: String,
    capsule: Arc<Capsule>,
    owner: Principal,
    members: Vec<(String, ComponentId)>,
    binds: Vec<PendingBind>,
    ingress: Option<String>,
    egress: Option<String>,
    classifier: Option<String>,
}

impl CompositeBuilder {
    /// Starts a composite of deployable type `type_name` hosted in
    /// `capsule`.
    pub fn new(type_name: impl Into<String>, capsule: Arc<Capsule>) -> Self {
        Self {
            type_name: type_name.into(),
            capsule,
            owner: Principal::system(),
            members: Vec::new(),
            binds: Vec::new(),
            ingress: None,
            egress: None,
            classifier: None,
        }
    }

    /// Sets the owning principal (may later delegate rights via the
    /// controller). Defaults to `system`.
    pub fn owner(mut self, owner: Principal) -> Self {
        self.owner = owner;
        self
    }

    /// Adopts `component` into the capsule and registers it as the
    /// constituent `label`.
    ///
    /// # Errors
    ///
    /// Propagates adoption failures; duplicate labels are refused.
    pub fn add(mut self, label: impl Into<String>, component: Arc<dyn Component>) -> Result<Self> {
        let label = label.into();
        if self.members.iter().any(|(l, _)| *l == label) {
            return Err(Error::CfViolation {
                framework: self.type_name.clone(),
                rule: format!("duplicate constituent label `{label}`"),
            });
        }
        let id = self.capsule.adopt(component)?;
        self.members.push((label, id));
        Ok(self)
    }

    /// Instantiates an **untrusted** constituent in a separate (simulated)
    /// address space, bound transparently via IPC (paper §5 crash
    /// containment). `interfaces` lists the interfaces to proxy.
    ///
    /// # Errors
    ///
    /// Propagates registry and isolation failures.
    pub fn add_isolated(
        mut self,
        label: impl Into<String>,
        type_name: &str,
        interfaces: &[InterfaceId],
    ) -> Result<Self> {
        let label = label.into();
        if self.members.iter().any(|(l, _)| *l == label) {
            return Err(Error::CfViolation {
                framework: self.type_name.clone(),
                rule: format!("duplicate constituent label `{label}`"),
            });
        }
        let id = self.capsule.instantiate_isolated(type_name, interfaces)?;
        self.members.push((label, id));
        Ok(self)
    }

    /// Records an internal binding to be created at build time (checked
    /// against the nested CF's rules and constraints).
    pub fn wire(
        mut self,
        src: impl Into<String>,
        receptacle: impl Into<String>,
        bind_label: impl Into<String>,
        dst: impl Into<String>,
        interface: InterfaceId,
    ) -> Self {
        self.binds.push(PendingBind {
            src: src.into(),
            receptacle: receptacle.into(),
            bind_label: bind_label.into(),
            dst: dst.into(),
            interface,
        });
        self
    }

    /// Designates the constituent whose `IPacketPush` becomes the
    /// composite's input.
    pub fn ingress(mut self, label: impl Into<String>) -> Self {
        self.ingress = Some(label.into());
        self
    }

    /// Designates the constituent whose `IPacketPull` becomes the
    /// composite's output.
    pub fn egress(mut self, label: impl Into<String>) -> Self {
        self.egress = Some(label.into());
        self
    }

    /// Designates the constituent whose `IClassifier` the composite
    /// re-exports.
    pub fn classifier(mut self, label: impl Into<String>) -> Self {
        self.classifier = Some(label.into());
        self
    }

    /// Builds the composite: creates the nested CF, plugs every
    /// constituent (running rules R1–R3 on each), creates the internal
    /// bindings, instantiates the controller, and adopts the composite
    /// itself into the capsule.
    ///
    /// # Errors
    ///
    /// Any rule violation, failed bind, or missing designated label
    /// aborts the build.
    pub fn build(self) -> Result<Arc<Composite>> {
        let cf = RouterCf::new(format!("{}::cf", self.type_name), Arc::clone(&self.capsule));
        let sys = Principal::system();

        let mut labels = HashMap::new();
        for (label, id) in &self.members {
            cf.plug(&sys, *id)?;
            labels.insert(label.clone(), *id);
        }

        let state = Arc::new(CompositeState {
            cf,
            labels: RwLock::new(labels),
            owner: self.owner.clone(),
        });

        for b in &self.binds {
            let src = state.lookup(&b.src)?;
            let dst = state.lookup(&b.dst)?;
            state
                .cf
                .bind(&sys, src, &b.receptacle, &b.bind_label, dst, b.interface)?;
        }

        let resolve_iface = |label: &Option<String>,
                             iface: InterfaceId|
         -> Result<Option<opencom::interface::InterfaceRef>> {
            match label {
                Some(l) => {
                    let id = state.lookup(l)?;
                    Ok(Some(self.capsule.query_interface(id, iface)?))
                }
                None => Ok(None),
            }
        };

        let ingress: Option<Arc<dyn IPacketPush>> = resolve_iface(&self.ingress, IPACKET_PUSH)?
            .map(|r| {
                r.downcast().ok_or(Error::InterfaceNotFound {
                    component: state
                        .lookup(self.ingress.as_ref().expect("present"))
                        .expect("checked"),
                    interface: IPACKET_PUSH,
                })
            })
            .transpose()?;
        let egress: Option<Arc<dyn IPacketPull>> = resolve_iface(&self.egress, IPACKET_PULL)?
            .map(|r| {
                r.downcast().ok_or(Error::InterfaceNotFound {
                    component: state
                        .lookup(self.egress.as_ref().expect("present"))
                        .expect("checked"),
                    interface: IPACKET_PULL,
                })
            })
            .transpose()?;
        let classifier: Option<Arc<dyn IClassifier>> =
            resolve_iface(&self.classifier, ICLASSIFIER)?
                .map(|r| {
                    r.downcast().ok_or(Error::InterfaceNotFound {
                        component: state
                            .lookup(self.classifier.as_ref().expect("present"))
                            .expect("checked"),
                        interface: ICLASSIFIER,
                    })
                })
                .transpose()?;

        let controller = Controller::new(Arc::clone(&state));
        let controller_id = self.capsule.adopt(controller.clone())?;

        let composite = Arc::new(Composite {
            core: ComponentCore::new(
                ComponentDescriptor::new(self.type_name, Version::new(1, 0, 0)).composite(),
            ),
            state,
            controller,
            controller_id,
            ingress,
            egress,
            classifier,
        });
        self.capsule.adopt(composite.clone())?;
        Ok(composite)
    }
}

impl fmt::Debug for CompositeBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CompositeBuilder(`{}`, {} members, {} binds)",
            self.type_name,
            self.members.len(),
            self.binds.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{register_packet_interfaces, FilterPattern, FilterSpec};
    use crate::elements::{ClassifierEngine, Discard, DropTailQueue};
    use netkit_packet::packet::PacketBuilder;
    use opencom::binding::TopologyRule;
    use opencom::runtime::Runtime;

    fn setup() -> Arc<Capsule> {
        let rt = Runtime::new();
        register_packet_interfaces(&rt);
        Capsule::new("t", &rt)
    }

    fn demo_composite(capsule: &Arc<Capsule>) -> Arc<Composite> {
        CompositeBuilder::new("t.Gateway", Arc::clone(capsule))
            .owner(Principal::new("admin"))
            .add("cls", ClassifierEngine::new())
            .unwrap()
            .add("q", DropTailQueue::new(64))
            .unwrap()
            .add("sink", Discard::new())
            .unwrap()
            .wire("cls", "out", "default", "q", IPACKET_PUSH)
            .ingress("cls")
            .egress("q")
            .classifier("cls")
            .build()
            .unwrap()
    }

    #[test]
    fn composite_delegates_push_and_pull() {
        let capsule = setup();
        let composite = demo_composite(&capsule);
        composite
            .push(
                PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2)
                    .payload(b"x")
                    .build(),
            )
            .unwrap();
        let out = composite.pull().expect("queued packet");
        assert_eq!(out.meta.dscp, Some(0));
        assert!(composite.pull().is_none());
    }

    #[test]
    fn composite_reexports_classifier() {
        let capsule = setup();
        let composite = demo_composite(&capsule);
        // The "default" output exists, so a filter to it is accepted.
        composite
            .register_filter(FilterSpec::new(FilterPattern::any(), "default", 1))
            .unwrap();
        assert_eq!(composite.filters().len(), 1);
        let err = composite
            .register_filter(FilterSpec::new(FilterPattern::any(), "nowhere", 1))
            .unwrap_err();
        assert!(matches!(err, Error::CfViolation { .. }));
    }

    #[test]
    fn composite_satisfies_router_cf_r3() {
        let capsule = setup();
        let composite = demo_composite(&capsule);
        let cf = RouterCf::new("outer", Arc::clone(&capsule));
        let id = composite.core().id();
        cf.plug(&Principal::system(), id).unwrap();
        assert!(cf.members().contains(&id));
    }

    #[test]
    fn controller_lists_constituents_and_rewires() {
        let capsule = setup();
        let composite = demo_composite(&capsule);
        let ctl = composite.controller();
        let names: Vec<String> = ctl.constituents().into_iter().map(|(l, _)| l).collect();
        assert_eq!(names, ["cls", "q", "sink"]);

        // admin has no Bind grant yet.
        let admin = Principal::new("admin");
        let err = ctl
            .rewire(&admin, "cls", "out", "bulk", "sink", IPACKET_PUSH)
            .unwrap_err();
        assert!(matches!(err, Error::AccessDenied { .. }));

        ctl.grant(&admin, admin.clone(), CfOperation::Bind).unwrap();
        ctl.rewire(&admin, "cls", "out", "bulk", "sink", IPACKET_PUSH)
            .unwrap();
    }

    #[test]
    fn only_owner_may_grant() {
        let capsule = setup();
        let composite = demo_composite(&capsule);
        let ctl = composite.controller();
        let eve = Principal::new("eve");
        assert!(matches!(
            ctl.grant(&eve, eve.clone(), CfOperation::Bind),
            Err(Error::AccessDenied { .. })
        ));
        // system can always grant.
        ctl.grant(&Principal::system(), eve.clone(), CfOperation::Bind)
            .unwrap();
    }

    #[test]
    fn constraints_police_internal_topology() {
        let capsule = setup();
        let composite = demo_composite(&capsule);
        let ctl = composite.controller();
        let admin = Principal::new("admin");
        ctl.grant(&admin, admin.clone(), CfOperation::AddConstraint)
            .unwrap();
        ctl.grant(&admin, admin.clone(), CfOperation::Bind).unwrap();

        // Forbid classifier → sink edges, then try to create one.
        ctl.add_constraint(
            &admin,
            TopologyRule::Forbid("netkit.Classifier".into(), "netkit.Discard".into())
                .into_constraint(),
        )
        .unwrap();
        let err = ctl
            .rewire(&admin, "cls", "out", "bulk", "sink", IPACKET_PUSH)
            .unwrap_err();
        assert!(matches!(err, Error::ConstraintVeto { .. }));

        // Removal requires its own grant; then the edge becomes legal.
        let name = ctl.constraint_names()[0].clone();
        assert!(ctl.remove_constraint(&admin, &name).is_err());
        ctl.grant(&admin, admin.clone(), CfOperation::RemoveConstraint)
            .unwrap();
        ctl.remove_constraint(&admin, &name).unwrap();
        ctl.rewire(&admin, "cls", "out", "bulk", "sink", IPACKET_PUSH)
            .unwrap();
    }

    #[test]
    fn classifier_access_via_controller_is_acl_gated() {
        let capsule = setup();
        let composite = demo_composite(&capsule);
        let ctl = composite.controller();
        let ops = Principal::new("ops");
        assert!(matches!(
            ctl.classifier(&ops, "cls"),
            Err(Error::AccessDenied { .. })
        ));
        ctl.grant(&Principal::system(), ops.clone(), CfOperation::Intercept)
            .unwrap();
        let cls = ctl.classifier(&ops, "cls").unwrap();
        cls.register_filter(FilterSpec::new(FilterPattern::any(), "default", 7))
            .unwrap();
        assert_eq!(composite.filters().len(), 1);
    }

    #[test]
    fn controller_hot_replaces_constituent() {
        let capsule = setup();
        let composite = demo_composite(&capsule);
        let ctl = composite.controller();
        let sys = Principal::system();

        // Push one packet through the original queue.
        composite
            .push(PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build())
            .unwrap();

        // Replace the queue with a bigger one.
        let new_q = DropTailQueue::new(256);
        let new_id = capsule.adopt(new_q).unwrap();
        ctl.replace(&sys, "q", new_id).unwrap();

        // Data path still flows end-to-end after the swap. The in-flight
        // packet in the *old* queue is gone with the old component; the
        // composite's egress delegate still points at the old instance by
        // Arc, so re-resolve through the constituent id instead.
        assert_eq!(composite.constituent("q").unwrap(), new_id);
        composite
            .push(PacketBuilder::udp_v4("10.0.0.1", "10.0.0.3", 3, 4).build())
            .unwrap();
        let q: Arc<dyn IPacketPull> = capsule
            .query_interface(new_id, IPACKET_PULL)
            .unwrap()
            .downcast()
            .unwrap();
        assert!(q.pull().is_some());
    }

    #[test]
    fn replace_admits_against_rules_first() {
        let capsule = setup();
        let composite = demo_composite(&capsule);
        let ctl = composite.controller();

        struct NoSurface {
            core: ComponentCore,
        }
        impl Component for NoSurface {
            fn core(&self) -> &ComponentCore {
                &self.core
            }
            fn publish(self: Arc<Self>, _reg: &Registrar<'_>) {}
        }
        let bad = capsule
            .adopt(Arc::new(NoSurface {
                core: ComponentCore::new(ComponentDescriptor::new("t.Bad", Version::new(1, 0, 0))),
            }))
            .unwrap();
        let err = ctl.replace(&Principal::system(), "q", bad).unwrap_err();
        assert!(err.to_string().contains("R1"), "{err}");
        // Label table unchanged.
        assert_ne!(composite.constituent("q").unwrap(), bad);
    }

    #[test]
    fn builder_rejects_duplicate_labels_and_unknown_designates() {
        let capsule = setup();
        let dup = CompositeBuilder::new("t.G", Arc::clone(&capsule))
            .add("a", Discard::new())
            .unwrap()
            .add("a", Discard::new());
        assert!(dup.is_err());

        let missing = CompositeBuilder::new("t.G2", Arc::clone(&capsule))
            .add("a", Discard::new())
            .unwrap()
            .ingress("nope")
            .build();
        assert!(missing.is_err());
    }

    #[test]
    fn composite_without_ingress_rejects_push() {
        let capsule = setup();
        let composite = CompositeBuilder::new("t.G3", Arc::clone(&capsule))
            .add("sink", Discard::new())
            .unwrap()
            .build()
            .unwrap();
        let err = composite
            .push(PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build())
            .unwrap_err();
        assert_eq!(err, PushError::Unbound);
    }

    #[test]
    fn footprint_includes_constituents() {
        let capsule = setup();
        let composite = demo_composite(&capsule);
        let own = std::mem::size_of::<Composite>();
        assert!(composite.footprint_bytes() > own);
    }
}
