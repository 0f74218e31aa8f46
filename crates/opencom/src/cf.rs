//! Component frameworks (CFs) and access control.
//!
//! Szyperski's definition, quoted by the paper: component frameworks are
//! "collections of rules and interfaces that govern the interaction of a
//! set of components 'plugged into' them". In OpenCOM, CFs provide
//! structure for domain-specific configurations and encapsulate the
//! domain rules, checked *at run time* both on admission and after every
//! dynamic change.
//!
//! A [`Cf`] instance attaches to a [`Capsule`]
//! and governs a subset of its components. Rule logic is supplied by a
//! [`CfRules`] implementation (the router crate supplies the paper's
//! Router CF rules). Constraint addition/removal is policed by an
//! [`Acl`], as required for composites in paper §5.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::binding::{BindConstraint, BindRequest, ConstraintSet};
use crate::capsule::Capsule;
use crate::component::Component;
use crate::error::{Error, Result};
use crate::ident::{BindingId, ComponentId, InterfaceId};

/// An authenticated caller of management operations.
///
/// NETKIT-RS does not model credentials; a principal is a name attached
/// to management requests, checked against per-CF ACLs.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Principal(pub String);

impl Principal {
    /// Creates a principal from a name.
    pub fn new(name: impl Into<String>) -> Self {
        Self(name.into())
    }

    /// The built-in all-powerful principal used by infrastructure code.
    pub fn system() -> Self {
        Self("system".into())
    }
}

impl fmt::Display for Principal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Management operations subject to access control.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CfOperation {
    /// Plug a component into the CF.
    AddComponent,
    /// Unplug a component.
    RemoveComponent,
    /// Create a binding between members.
    Bind,
    /// Remove a binding.
    Unbind,
    /// Install a bind-time constraint.
    AddConstraint,
    /// Remove a bind-time constraint.
    RemoveConstraint,
    /// Hot-replace a member.
    Replace,
    /// Splice an interceptor into a member binding.
    Intercept,
}

/// A per-CF access-control list.
///
/// The `system` principal is always allowed. Everyone else must hold an
/// explicit grant.
#[derive(Default)]
pub struct Acl {
    grants: RwLock<HashMap<Principal, HashSet<CfOperation>>>,
}

impl Acl {
    /// Creates an ACL where only `system` may act.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grants `op` to `principal`.
    pub fn grant(&self, principal: Principal, op: CfOperation) {
        self.grants.write().entry(principal).or_default().insert(op);
    }

    /// Revokes `op` from `principal`.
    pub fn revoke(&self, principal: &Principal, op: CfOperation) {
        if let Some(ops) = self.grants.write().get_mut(principal) {
            ops.remove(&op);
        }
    }

    /// Checks whether `principal` may perform `op`.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::AccessDenied`] if not.
    pub fn check(&self, principal: &Principal, op: CfOperation) -> Result<()> {
        if principal == &Principal::system() {
            return Ok(());
        }
        let allowed = self
            .grants
            .read()
            .get(principal)
            .map(|ops| ops.contains(&op))
            .unwrap_or(false);
        if allowed {
            Ok(())
        } else {
            Err(Error::AccessDenied {
                principal: principal.0.clone(),
                operation: format!("{op:?}"),
            })
        }
    }
}

impl fmt::Debug for Acl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Acl({} principals)", self.grants.read().len())
    }
}

/// Domain rules enforced by a component framework.
///
/// Implementations should be cheap: `admit` runs on every plug,
/// `check_bind` on every bind between members, and `recheck_member` after
/// every dynamic interface addition/removal (the paper's "as long as the
/// CF's rules remain satisfied").
pub trait CfRules: Send + Sync {
    /// Rule-set name for error messages.
    fn name(&self) -> &str;

    /// Validates a component at plug time.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CfViolation`] describing the broken rule.
    fn admit(&self, comp: &Arc<dyn Component>) -> Result<()>;

    /// Validates a proposed binding between members.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CfViolation`] (or a veto) to refuse the bind.
    fn check_bind(&self, req: &BindRequest) -> Result<()> {
        let _ = req;
        Ok(())
    }

    /// Re-validates a member after dynamic change.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CfViolation`] if the member no longer conforms.
    fn recheck_member(&self, comp: &Arc<dyn Component>) -> Result<()> {
        self.admit(comp)
    }
}

/// A rule set that admits everything (useful for tests and scaffolding).
#[derive(Debug, Default, Clone, Copy)]
pub struct PermissiveRules;

impl CfRules for PermissiveRules {
    fn name(&self) -> &str {
        "permissive"
    }
    fn admit(&self, _comp: &Arc<dyn Component>) -> Result<()> {
        Ok(())
    }
}

/// A component framework instance attached to a capsule.
pub struct Cf {
    name: String,
    rules: Arc<dyn CfRules>,
    capsule: Arc<Capsule>,
    members: RwLock<Vec<ComponentId>>,
    constraints: Arc<ConstraintSet>,
    acl: Acl,
}

impl Cf {
    /// Creates a CF named `name` over `capsule` with the given rules.
    pub fn new(name: impl Into<String>, capsule: Arc<Capsule>, rules: Arc<dyn CfRules>) -> Self {
        Self {
            name: name.into(),
            rules,
            capsule,
            members: RwLock::new(Vec::new()),
            constraints: Arc::new(ConstraintSet::new()),
            acl: Acl::new(),
        }
    }

    /// The CF's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The governing capsule.
    pub fn capsule(&self) -> &Arc<Capsule> {
        &self.capsule
    }

    /// The CF's ACL, for granting management rights.
    pub fn acl(&self) -> &Acl {
        &self.acl
    }

    /// Current member ids in plug order.
    pub fn members(&self) -> Vec<ComponentId> {
        self.members.read().clone()
    }

    /// True if `id` is plugged into this CF.
    fn is_member(&self, id: ComponentId) -> bool {
        self.members.read().contains(&id)
    }

    /// Plugs an already-hosted component into the CF after rule admission.
    ///
    /// # Errors
    ///
    /// * [`Error::AccessDenied`] if the principal lacks `AddComponent`.
    /// * [`Error::CfViolation`] if the rules refuse the component.
    pub fn plug(&self, principal: &Principal, id: ComponentId) -> Result<()> {
        self.acl.check(principal, CfOperation::AddComponent)?;
        let comp = self.capsule.component(id)?;
        self.rules.admit(&comp)?;
        let mut members = self.members.write();
        if !members.contains(&id) {
            members.push(id);
        }
        Ok(())
    }

    /// Unplugs a member (bindings must already be removed).
    ///
    /// # Errors
    ///
    /// * [`Error::AccessDenied`] if the principal lacks `RemoveComponent`.
    /// * [`Error::StaleReference`] if `id` is not a member.
    pub fn unplug(&self, principal: &Principal, id: ComponentId) -> Result<()> {
        self.acl.check(principal, CfOperation::RemoveComponent)?;
        let mut members = self.members.write();
        match members.iter().position(|m| *m == id) {
            Some(idx) => {
                members.remove(idx);
                Ok(())
            }
            None => Err(Error::StaleReference {
                what: format!("member {id}"),
            }),
        }
    }

    /// Binds two members through the capsule, first applying the CF's
    /// rule check and its dynamic constraint set.
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
        self.acl.check(principal, CfOperation::Bind)?;
        if !self.is_member(src) || !self.is_member(dst) {
            return Err(Error::CfViolation {
                framework: self.name.clone(),
                rule: "both endpoints must be plugged into the CF".into(),
            });
        }
        let req = self
            .capsule
            .bind_request(src, receptacle, label, dst, interface)?;
        self.rules.check_bind(&req)?;
        self.constraints.check(&req)?;
        self.capsule.bind(src, receptacle, label, dst, interface)
    }

    /// Removes a binding between members.
    ///
    /// # Errors
    ///
    /// Propagates ACL and capsule errors.
    pub fn unbind(&self, principal: &Principal, binding: BindingId) -> Result<()> {
        self.acl.check(principal, CfOperation::Unbind)?;
        self.capsule.unbind(binding)
    }

    /// Installs a dynamic constraint (paper §5: "dynamic addition/ removal
    /// of arbitrary constraints … policed by an ACL").
    ///
    /// # Errors
    ///
    /// Fails with [`Error::AccessDenied`] without an `AddConstraint` grant.
    pub fn add_constraint(
        &self,
        principal: &Principal,
        constraint: Arc<dyn BindConstraint>,
    ) -> Result<()> {
        self.acl.check(principal, CfOperation::AddConstraint)?;
        self.constraints.add(constraint);
        Ok(())
    }

    /// Removes a dynamic constraint by name.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::AccessDenied`] without a `RemoveConstraint`
    /// grant, or [`Error::StaleReference`] for unknown names.
    pub fn remove_constraint(&self, principal: &Principal, name: &str) -> Result<()> {
        self.acl.check(principal, CfOperation::RemoveConstraint)?;
        self.constraints.remove(name)
    }

    /// Names of the installed dynamic constraints.
    pub fn constraint_names(&self) -> Vec<String> {
        self.constraints.names()
    }

    /// Re-checks every member against the rules (run after dynamic
    /// interface addition/removal).
    ///
    /// # Errors
    ///
    /// Returns the first member violation found.
    pub fn recheck(&self) -> Result<()> {
        for id in self.members.read().iter() {
            let comp = self.capsule.component(*id)?;
            self.rules.recheck_member(&comp)?;
        }
        Ok(())
    }
}

impl fmt::Debug for Cf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cf(`{}` rules=`{}`, {} members)",
            self.name,
            self.rules.name(),
            self.members.read().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{ComponentCore, ComponentDescriptor, Registrar};
    use crate::ident::Version;
    use crate::runtime::Runtime;

    struct Plain {
        core: ComponentCore,
    }
    impl Plain {
        fn make(type_name: &str) -> Arc<dyn Component> {
            Arc::new(Self {
                core: ComponentCore::new(ComponentDescriptor::new(
                    type_name,
                    Version::new(1, 0, 0),
                )),
            })
        }
    }
    impl Component for Plain {
        fn core(&self) -> &ComponentCore {
            &self.core
        }
        fn publish(self: Arc<Self>, _reg: &Registrar<'_>) {}
    }

    struct OnlyWidgets;
    impl CfRules for OnlyWidgets {
        fn name(&self) -> &str {
            "only-widgets"
        }
        fn admit(&self, comp: &Arc<dyn Component>) -> Result<()> {
            if comp.core().descriptor().type_name.starts_with("Widget") {
                Ok(())
            } else {
                Err(Error::CfViolation {
                    framework: "only-widgets".into(),
                    rule: "type must start with Widget".into(),
                })
            }
        }
    }

    fn setup() -> (Arc<Capsule>, Cf) {
        let rt = Runtime::new();
        let capsule = Capsule::new("test", &rt);
        let cf = Cf::new("cf", Arc::clone(&capsule), Arc::new(OnlyWidgets));
        (capsule, cf)
    }

    #[test]
    fn admission_enforces_rules() {
        let (capsule, cf) = setup();
        let good = capsule.adopt(Plain::make("WidgetA")).unwrap();
        let bad = capsule.adopt(Plain::make("Gadget")).unwrap();
        let sys = Principal::system();
        cf.plug(&sys, good).unwrap();
        assert!(matches!(cf.plug(&sys, bad), Err(Error::CfViolation { .. })));
        assert!(cf.is_member(good));
        assert!(!cf.is_member(bad));
    }

    #[test]
    fn acl_polices_non_system_principals() {
        let (capsule, cf) = setup();
        let id = capsule.adopt(Plain::make("WidgetA")).unwrap();
        let alice = Principal::new("alice");
        assert!(matches!(
            cf.plug(&alice, id),
            Err(Error::AccessDenied { .. })
        ));
        cf.acl().grant(alice.clone(), CfOperation::AddComponent);
        cf.plug(&alice, id).unwrap();
        cf.acl().revoke(&alice, CfOperation::AddComponent);
        let id2 = capsule.adopt(Plain::make("WidgetB")).unwrap();
        assert!(cf.plug(&alice, id2).is_err());
    }

    #[test]
    fn constraint_management_requires_grants() {
        let (_capsule, cf) = setup();
        let bob = Principal::new("bob");
        let c = crate::binding::TopologyRule::Forbid("A".into(), "B".into()).into_constraint();
        assert!(cf.add_constraint(&bob, c.clone()).is_err());
        cf.acl().grant(bob.clone(), CfOperation::AddConstraint);
        cf.add_constraint(&bob, c).unwrap();
        assert_eq!(cf.constraint_names().len(), 1);
        // Removal is a separate right.
        let name = cf.constraint_names()[0].clone();
        assert!(cf.remove_constraint(&bob, &name).is_err());
        cf.acl().grant(bob.clone(), CfOperation::RemoveConstraint);
        cf.remove_constraint(&bob, &name).unwrap();
    }

    #[test]
    fn unplug_unknown_member_fails() {
        let (capsule, cf) = setup();
        let id = capsule.adopt(Plain::make("WidgetA")).unwrap();
        assert!(cf.unplug(&Principal::system(), id).is_err());
    }

    #[test]
    fn recheck_detects_later_violations() {
        // A rules impl that requires a specific interface; retracting the
        // interface makes recheck fail.
        struct NeedsIface;
        const IFACE: InterfaceId = InterfaceId::new("t.INeeded");
        impl CfRules for NeedsIface {
            fn name(&self) -> &str {
                "needs-iface"
            }
            fn admit(&self, comp: &Arc<dyn Component>) -> Result<()> {
                if comp.core().interfaces().contains(&IFACE) {
                    Ok(())
                } else {
                    Err(Error::CfViolation {
                        framework: "needs-iface".into(),
                        rule: "must export t.INeeded".into(),
                    })
                }
            }
        }

        trait INeeded: Send + Sync {}
        struct WithIface {
            core: ComponentCore,
        }
        impl INeeded for WithIface {}
        impl Component for WithIface {
            fn core(&self) -> &ComponentCore {
                &self.core
            }
            fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
                let me: Arc<dyn INeeded> = self.clone();
                reg.expose(IFACE, &me);
            }
        }

        let rt = Runtime::new();
        let capsule = Capsule::new("test", &rt);
        let cf = Cf::new("cf", Arc::clone(&capsule), Arc::new(NeedsIface));
        let comp: Arc<dyn Component> = Arc::new(WithIface {
            core: ComponentCore::new(ComponentDescriptor::new("t.W", Version::new(1, 0, 0))),
        });
        let id = capsule.adopt(comp.clone()).unwrap();
        cf.plug(&Principal::system(), id).unwrap();
        cf.recheck().unwrap();
        comp.core().retract_interface(IFACE).unwrap();
        assert!(matches!(cf.recheck(), Err(Error::CfViolation { .. })));
    }
}
