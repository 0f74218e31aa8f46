//! The stratum-2 **Router CF** (paper §5).
//!
//! The Router CF "accepts, as plug-ins, OpenCOM components that perform
//! arbitrary user-defined packet-forwarding functions" and enforces, *at
//! run time*, the three rules of paper §5:
//!
//! * **R1** — compliant components must support appropriate numbers and
//!   combinations of the packet-passing interfaces/receptacles
//!   [`IPacketPush`] /
//!   [`IPacketPull`](crate::api::IPacketPull); interfaces may be added and
//!   removed dynamically *as long as the rules remain satisfied* (enforced
//!   by [`RouterCf::recheck`]).
//! * **R2** — components may optionally export
//!   [`IClassifier`]; if they do, they must
//!   honour installed [`FilterSpec`]s by emitting
//!   each matching packet on the named outgoing interface. The CF verifies
//!   this *behaviourally* with a conformance probe
//!   ([`RouterCf::probe_classifier`]).
//! * **R3** — components may be composite, in which case all internal
//!   constituents must recursively conform and the composite must contain
//!   a *controller* component (see [`crate::composite`]).
//!
//! Per-component dynamic constraints (interceptors on OpenCOM's `bind`)
//! and their ACL policing are inherited from [`opencom::cf::Cf`].

use std::fmt;
use std::sync::Arc;

use opencom::binding::BindConstraint;
use opencom::capsule::Capsule;
use opencom::cf::{Acl, Cf, CfOperation, CfRules, Principal};
use opencom::component::Component;
use opencom::error::{Error, Result};
use opencom::ident::{BindingId, ComponentId, InterfaceId};

use netkit_packet::packet::PacketBuilder;

use crate::api::{
    FilterPattern, FilterSpec, IClassifier, IPacketPush, ICLASSIFIER, IPACKET_PULL, IPACKET_PUSH,
};
use crate::composite::{IComposite, ICOMPOSITE};

/// The rule set of the paper's Router CF (R1–R3 above).
#[derive(Debug, Default, Clone, Copy)]
pub struct RouterRules;

impl RouterRules {
    fn packet_surface(comp: &Arc<dyn Component>) -> (usize, usize) {
        let ifaces = comp.core().interfaces();
        let n_ifaces = ifaces
            .iter()
            .filter(|i| **i == IPACKET_PUSH || **i == IPACKET_PULL)
            .count();
        let n_receps = comp
            .core()
            .receptacle_infos()
            .iter()
            .filter(|r| r.interface == IPACKET_PUSH || r.interface == IPACKET_PULL)
            .count();
        (n_ifaces, n_receps)
    }

    fn violation(rule: impl Into<String>) -> Error {
        Error::CfViolation {
            framework: "router".into(),
            rule: rule.into(),
        }
    }
}

impl CfRules for RouterRules {
    fn name(&self) -> &str {
        "router"
    }

    fn admit(&self, comp: &Arc<dyn Component>) -> Result<()> {
        // R1: at least one packet-passing interface or receptacle.
        let (n_ifaces, n_receps) = Self::packet_surface(comp);
        if n_ifaces + n_receps == 0 {
            return Err(Self::violation(
                "R1: component exports no IPacketPush/IPacketPull interface or receptacle",
            ));
        }

        // R2 (structural half): a classifier must have somewhere to emit —
        // at least one outgoing packet receptacle for its named outputs.
        // Composites delegate to an internal classifier whose receptacles
        // are checked recursively under R3, so they are exempt here.
        let exports_classifier = comp.core().interfaces().contains(&ICLASSIFIER);
        if exports_classifier && n_receps == 0 && !comp.core().descriptor().composite {
            return Err(Self::violation(
                "R2: IClassifier exported but no outgoing packet receptacle to honour filters on",
            ));
        }

        // R3: composites must carry a controller and conforming constituents.
        if comp.core().descriptor().composite {
            let iref = comp.core().query_interface(ICOMPOSITE).map_err(|_| {
                Self::violation("R3: composite exports no IComposite meta-interface")
            })?;
            let inner: Arc<dyn IComposite> = iref
                .downcast()
                .ok_or_else(|| Self::violation("R3: IComposite has the wrong shape"))?;
            if inner.controller_id().is_none() {
                return Err(Self::violation("R3: composite has no controller component"));
            }
            for (label, constituent) in inner.constituent_components() {
                self.admit(&constituent).map_err(|e| {
                    Self::violation(format!("R3: constituent `{label}` does not conform: {e}"))
                })?;
            }
        }
        Ok(())
    }
}

/// Result of a behavioural classifier-conformance probe
/// ([`RouterCf::probe_classifier`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeReport {
    /// Packets the probe sent.
    pub sent: u64,
    /// Packets that arrived on the output named by the probe filter.
    pub on_expected_output: u64,
    /// Packets that leaked onto other outputs.
    pub misrouted: u64,
}

impl ProbeReport {
    /// True when every matching probe packet surfaced on the filter's
    /// named output and nowhere else.
    pub fn conformant(&self) -> bool {
        self.sent == self.on_expected_output && self.misrouted == 0
    }
}

/// Counting sink used by the conformance probe.
#[derive(Debug)]
struct ProbeSink {
    core: opencom::component::ComponentCore,
    hits: std::sync::atomic::AtomicU64,
}

impl ProbeSink {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            core: opencom::component::ComponentCore::new(
                opencom::component::ComponentDescriptor::new(
                    "netkit.ProbeSink",
                    opencom::ident::Version::new(1, 0, 0),
                ),
            ),
            hits: std::sync::atomic::AtomicU64::new(0),
        })
    }

    fn hits(&self) -> u64 {
        self.hits.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl IPacketPush for ProbeSink {
    fn push(&self, _pkt: netkit_packet::packet::Packet) -> crate::api::PushResult {
        self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }
}

impl Component for ProbeSink {
    fn core(&self) -> &opencom::component::ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &opencom::component::Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
    }
}

/// The Router component framework: an [`opencom::cf::Cf`] specialised with
/// [`RouterRules`] plus router-specific management operations.
///
/// ```
/// use std::sync::Arc;
/// use opencom::cf::Principal;
/// use opencom::runtime::Runtime;
/// use opencom::capsule::Capsule;
/// use netkit_router::api::register_packet_interfaces;
/// use netkit_router::cf::RouterCf;
/// use netkit_router::elements::{ClassifierEngine, Discard};
///
/// let rt = Runtime::new();
/// register_packet_interfaces(&rt);
/// let capsule = Capsule::new("node", &rt);
/// let cf = RouterCf::new("router", Arc::clone(&capsule));
/// let sys = Principal::system();
///
/// let classifier = ClassifierEngine::new();
/// let sink = Discard::new();
/// let c = capsule.adopt(classifier)?;
/// let s = capsule.adopt(sink)?;
/// cf.plug(&sys, c)?;
/// cf.plug(&sys, s)?;
/// cf.bind(&sys, c, "out", "default", s, netkit_router::api::IPACKET_PUSH)?;
/// # Ok::<(), opencom::error::Error>(())
/// ```
pub struct RouterCf {
    inner: Cf,
}

impl RouterCf {
    /// Creates a Router CF over `capsule`.
    pub fn new(name: impl Into<String>, capsule: Arc<Capsule>) -> Self {
        Self {
            inner: Cf::new(name, capsule, Arc::new(RouterRules)),
        }
    }

    /// The underlying generic CF (rules, members, constraints).
    pub fn inner(&self) -> &Cf {
        &self.inner
    }

    /// The CF's name.
    pub fn name(&self) -> &str {
        self.inner.name()
    }

    /// The governing capsule.
    pub fn capsule(&self) -> &Arc<Capsule> {
        self.inner.capsule()
    }

    /// The ACL policing management operations.
    pub fn acl(&self) -> &Acl {
        self.inner.acl()
    }

    /// Current members, in plug order.
    pub fn members(&self) -> Vec<ComponentId> {
        self.inner.members()
    }

    /// Admits a component into the CF (runs rules R1–R3).
    ///
    /// # Errors
    ///
    /// Propagates ACL and [`Error::CfViolation`] failures.
    pub fn plug(&self, principal: &Principal, id: ComponentId) -> Result<()> {
        self.inner.plug(principal, id)
    }

    /// Unplugs a member.
    ///
    /// # Errors
    ///
    /// Propagates ACL failures and unknown-member errors.
    pub fn unplug(&self, principal: &Principal, id: ComponentId) -> Result<()> {
        self.inner.unplug(principal, id)
    }

    /// Binds two members, running rule and constraint checks first.
    ///
    /// # Errors
    ///
    /// Propagates ACL, rule, constraint, and capsule bind errors.
    pub fn bind(
        &self,
        principal: &Principal,
        src: ComponentId,
        receptacle: &str,
        label: &str,
        dst: ComponentId,
        interface: InterfaceId,
    ) -> Result<BindingId> {
        self.inner
            .bind(principal, src, receptacle, label, dst, interface)
    }

    /// Removes a binding.
    ///
    /// # Errors
    ///
    /// Propagates ACL and capsule errors.
    pub fn unbind(&self, principal: &Principal, binding: BindingId) -> Result<()> {
        self.inner.unbind(principal, binding)
    }

    /// Installs a dynamic bind-time constraint (ACL-policed).
    ///
    /// # Errors
    ///
    /// Fails with [`Error::AccessDenied`] without an `AddConstraint` grant.
    pub fn add_constraint(
        &self,
        principal: &Principal,
        constraint: Arc<dyn BindConstraint>,
    ) -> Result<()> {
        self.inner.add_constraint(principal, constraint)
    }

    /// Removes a dynamic constraint by name (ACL-policed).
    ///
    /// # Errors
    ///
    /// Propagates ACL failures and unknown-name errors.
    pub fn remove_constraint(&self, principal: &Principal, name: &str) -> Result<()> {
        self.inner.remove_constraint(principal, name)
    }

    /// Re-checks every member against R1–R3; call after dynamic interface
    /// addition/removal ("as long as the CF's rules remain satisfied").
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn recheck(&self) -> Result<()> {
        self.inner.recheck()
    }

    /// ACL-gated access to a member's `IClassifier` (Fig. 3's "Access to
    /// IClassifier interfaces" arrow).
    ///
    /// # Errors
    ///
    /// * [`Error::AccessDenied`] without an `Intercept` grant.
    /// * [`Error::InterfaceNotFound`] if the member has no classifier.
    pub fn classifier_access(
        &self,
        principal: &Principal,
        id: ComponentId,
    ) -> Result<Arc<dyn IClassifier>> {
        self.acl().check(principal, CfOperation::Intercept)?;
        let iref = self.capsule().query_interface(id, ICLASSIFIER)?;
        iref.downcast().ok_or(Error::InterfaceNotFound {
            component: id,
            interface: ICLASSIFIER,
        })
    }

    /// Behavioural half of rule R2: instantiates a *fresh* instance of the
    /// member's type in a scratch capsule, binds two probe sinks, installs
    /// a filter targeting one of them, and verifies every matching packet
    /// surfaces on the named output (and only there).
    ///
    /// The member's type must be in the runtime's component registry so a
    /// fresh instance can be created; probing a live member would disturb
    /// its bindings.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownComponentType`] if the type is not registered.
    /// * [`Error::InterfaceNotFound`] if the fresh instance lacks
    ///   `IClassifier`.
    /// * [`Error::CfViolation`] if the probe finds non-conformant routing.
    pub fn probe_classifier(&self, id: ComponentId) -> Result<ProbeReport> {
        let member = self.capsule().component(id)?;
        let type_name = member.core().descriptor().type_name.clone();

        let scratch = Capsule::new("router-probe", self.capsule().runtime());
        let fresh = scratch.instantiate(&type_name)?;
        let probe_out = ProbeSink::new();
        let other_out = ProbeSink::new();
        let probe_id = scratch.adopt(probe_out.clone())?;
        let other_id = scratch.adopt(other_out.clone())?;

        // Use the component's declared packet receptacle for the probe taps.
        let recep = scratch
            .component(fresh)?
            .core()
            .receptacle_infos()
            .into_iter()
            .find(|r| r.interface == IPACKET_PUSH)
            .ok_or_else(|| RouterRules::violation("R2 probe: no IPacketPush receptacle"))?;
        scratch.bind(fresh, &recep.name, "__probe", probe_id, IPACKET_PUSH)?;
        scratch.bind(fresh, &recep.name, "__other", other_id, IPACKET_PUSH)?;

        let classifier: Arc<dyn IClassifier> = scratch
            .query_interface(fresh, ICLASSIFIER)?
            .downcast()
            .ok_or(Error::InterfaceNotFound {
                component: fresh,
                interface: ICLASSIFIER,
            })?;
        classifier.register_filter(FilterSpec::new(
            FilterPattern::any()
                .protocol(17)
                .dst_port_range(50_000, 50_000),
            "__probe",
            i32::MAX,
        ))?;

        let pusher: Arc<dyn IPacketPush> = scratch
            .query_interface(fresh, IPACKET_PUSH)?
            .downcast()
            .ok_or(Error::InterfaceNotFound {
                component: fresh,
                interface: IPACKET_PUSH,
            })?;

        // Probe both transfer styles: half the packets go one at a time
        // (each a batch of one), half as one batch — matching packets
        // must surface on the named output however they were delivered.
        const N: u64 = 8;
        let probe_pkt = |i: u64| {
            PacketBuilder::udp_v4("192.0.2.1", "198.51.100.1", 1000 + i as u16, 50_000)
                .payload(b"probe")
                .build()
        };
        for i in 0..N / 2 {
            // Drops are conformance failures, surfaced via the report below.
            let _ = pusher.push(probe_pkt(i));
        }
        let batch: netkit_packet::batch::PacketBatch = (N / 2..N).map(probe_pkt).collect();
        let _ = pusher.push_batch(batch);

        let report = ProbeReport {
            sent: N,
            on_expected_output: probe_out.hits(),
            misrouted: other_out.hits(),
        };
        if report.conformant() {
            Ok(report)
        } else {
            Err(RouterRules::violation(format!(
                "R2 probe: {}/{} packets reached the named output, {} misrouted",
                report.on_expected_output, report.sent, report.misrouted
            )))
        }
    }
}

impl fmt::Debug for RouterCf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RouterCf({:?})", self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::register_packet_interfaces;
    use crate::elements::{ClassifierEngine, Counter, Discard, DropTailQueue};
    use opencom::component::{ComponentCore, ComponentDescriptor, Registrar};
    use opencom::ident::Version;
    use opencom::runtime::Runtime;

    fn setup() -> (Arc<Runtime>, Arc<Capsule>, RouterCf) {
        let rt = Runtime::new();
        register_packet_interfaces(&rt);
        let capsule = Capsule::new("t", &rt);
        let cf = RouterCf::new("router", Arc::clone(&capsule));
        (rt, capsule, cf)
    }

    /// A component with no packet interfaces at all.
    struct NotAPacketComponent {
        core: ComponentCore,
    }
    impl Component for NotAPacketComponent {
        fn core(&self) -> &ComponentCore {
            &self.core
        }
        fn publish(self: Arc<Self>, _reg: &Registrar<'_>) {}
    }

    #[test]
    fn r1_rejects_components_without_packet_surface() {
        let (_rt, capsule, cf) = setup();
        let id = capsule
            .adopt(Arc::new(NotAPacketComponent {
                core: ComponentCore::new(ComponentDescriptor::new("t.None", Version::new(1, 0, 0))),
            }))
            .unwrap();
        let err = cf.plug(&Principal::system(), id).unwrap_err();
        assert!(err.to_string().contains("R1"), "{err}");
    }

    #[test]
    fn r1_admits_standard_elements() {
        let (_rt, capsule, cf) = setup();
        let sys = Principal::system();
        for comp in [
            capsule.adopt(ClassifierEngine::new()).unwrap(),
            capsule.adopt(Discard::new()).unwrap(),
            capsule.adopt(Counter::new()).unwrap(),
            capsule.adopt(DropTailQueue::new(16)).unwrap(),
        ] {
            cf.plug(&sys, comp).unwrap();
        }
        assert_eq!(cf.members().len(), 4);
        cf.recheck().unwrap();
    }

    /// Classifier that exports IClassifier but has no outgoing receptacle.
    struct BadClassifier {
        core: ComponentCore,
    }
    impl IPacketPush for BadClassifier {
        fn push(&self, _pkt: netkit_packet::packet::Packet) -> crate::api::PushResult {
            Ok(())
        }
    }
    impl IClassifier for BadClassifier {
        fn register_filter(&self, _spec: FilterSpec) -> Result<crate::api::FilterId> {
            Ok(crate::api::FilterId::next())
        }
        fn remove_filter(&self, _id: crate::api::FilterId) -> Result<()> {
            Ok(())
        }
        fn filters(&self) -> Vec<(crate::api::FilterId, FilterSpec)> {
            Vec::new()
        }
    }
    impl Component for BadClassifier {
        fn core(&self) -> &ComponentCore {
            &self.core
        }
        fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
            let push: Arc<dyn IPacketPush> = self.clone();
            reg.expose(IPACKET_PUSH, &push);
            let cls: Arc<dyn IClassifier> = self.clone();
            reg.expose(ICLASSIFIER, &cls);
        }
    }

    #[test]
    fn r2_structural_rejects_classifier_without_outputs() {
        let (_rt, capsule, cf) = setup();
        let id = capsule
            .adopt(Arc::new(BadClassifier {
                core: ComponentCore::new(ComponentDescriptor::new(
                    "t.BadCls",
                    Version::new(1, 0, 0),
                )),
            }))
            .unwrap();
        let err = cf.plug(&Principal::system(), id).unwrap_err();
        assert!(err.to_string().contains("R2"), "{err}");
    }

    #[test]
    fn r2_probe_passes_for_conformant_classifier() {
        let (rt, capsule, cf) = setup();
        rt.registry().register(
            "netkit.Classifier",
            Version::new(1, 0, 0),
            Box::new(|| ClassifierEngine::new() as Arc<dyn Component>),
        );
        let id = capsule.adopt(ClassifierEngine::new()).unwrap();
        cf.plug(&Principal::system(), id).unwrap();
        let report = cf.probe_classifier(id).unwrap();
        assert!(report.conformant());
        assert_eq!(report.sent, 8);
    }

    /// A classifier that accepts filters but ignores them, always emitting
    /// on whatever output happens to be bound first — non-conformant.
    struct LyingClassifier {
        core: ComponentCore,
        outs: opencom::receptacle::Receptacle<dyn IPacketPush>,
    }
    impl LyingClassifier {
        fn new() -> Arc<Self> {
            Arc::new(Self {
                core: ComponentCore::new(ComponentDescriptor::new(
                    "t.LyingCls",
                    Version::new(1, 0, 0),
                )),
                outs: opencom::receptacle::Receptacle::multi("out", IPACKET_PUSH),
            })
        }
    }
    impl IPacketPush for LyingClassifier {
        fn push(&self, pkt: netkit_packet::packet::Packet) -> crate::api::PushResult {
            // Deliberately ignores filter semantics.
            self.outs
                .with_labelled("__other", |n| n.push(pkt))
                .unwrap_or(Err(crate::api::PushError::Unbound))
        }
    }
    impl IClassifier for LyingClassifier {
        fn register_filter(&self, _spec: FilterSpec) -> Result<crate::api::FilterId> {
            Ok(crate::api::FilterId::next())
        }
        fn remove_filter(&self, _id: crate::api::FilterId) -> Result<()> {
            Ok(())
        }
        fn filters(&self) -> Vec<(crate::api::FilterId, FilterSpec)> {
            Vec::new()
        }
    }
    impl Component for LyingClassifier {
        fn core(&self) -> &ComponentCore {
            &self.core
        }
        fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
            let push: Arc<dyn IPacketPush> = self.clone();
            reg.expose(IPACKET_PUSH, &push);
            let cls: Arc<dyn IClassifier> = self.clone();
            reg.expose(ICLASSIFIER, &cls);
            reg.receptacle(&self.outs);
        }
    }

    #[test]
    fn r2_probe_catches_lying_classifier() {
        let (rt, capsule, cf) = setup();
        rt.registry().register(
            "t.LyingCls",
            Version::new(1, 0, 0),
            Box::new(|| LyingClassifier::new() as Arc<dyn Component>),
        );
        let id = capsule.adopt(LyingClassifier::new()).unwrap();
        cf.plug(&Principal::system(), id).unwrap();
        let err = cf.probe_classifier(id).unwrap_err();
        assert!(err.to_string().contains("R2 probe"), "{err}");
    }

    #[test]
    fn probe_requires_registered_type() {
        let (_rt, capsule, cf) = setup();
        let id = capsule.adopt(ClassifierEngine::new()).unwrap();
        cf.plug(&Principal::system(), id).unwrap();
        assert!(matches!(
            cf.probe_classifier(id),
            Err(Error::UnknownComponentType { .. })
        ));
    }

    #[test]
    fn classifier_access_is_acl_gated() {
        let (_rt, capsule, cf) = setup();
        let sys = Principal::system();
        let id = capsule.adopt(ClassifierEngine::new()).unwrap();
        cf.plug(&sys, id).unwrap();

        let eve = Principal::new("eve");
        assert!(matches!(
            cf.classifier_access(&eve, id),
            Err(Error::AccessDenied { .. })
        ));
        cf.acl().grant(eve.clone(), CfOperation::Intercept);
        let cls = cf.classifier_access(&eve, id).unwrap();
        assert!(cls.filters().is_empty());
    }

    #[test]
    fn bind_requires_membership_of_both_endpoints() {
        let (_rt, capsule, cf) = setup();
        let sys = Principal::system();
        let a = capsule.adopt(ClassifierEngine::new()).unwrap();
        let b = capsule.adopt(Discard::new()).unwrap();
        cf.plug(&sys, a).unwrap();
        // b not plugged.
        let err = cf
            .bind(&sys, a, "out", "default", b, IPACKET_PUSH)
            .unwrap_err();
        assert!(matches!(err, Error::CfViolation { .. }));
        cf.plug(&sys, b).unwrap();
        cf.bind(&sys, a, "out", "default", b, IPACKET_PUSH).unwrap();
    }

    #[test]
    fn dynamic_interface_retraction_is_caught_by_recheck() {
        let (_rt, capsule, cf) = setup();
        let sys = Principal::system();
        let comp = Discard::new();
        let id = capsule.adopt(comp.clone()).unwrap();
        cf.plug(&sys, id).unwrap();
        cf.recheck().unwrap();
        comp.core().retract_interface(IPACKET_PUSH).unwrap();
        let err = cf.recheck().unwrap_err();
        assert!(err.to_string().contains("R1"), "{err}");
    }
}
