//! Interface references and introspection descriptors.
//!
//! In the paper's OpenCOM, interfaces are Microsoft-COM binary vtables and
//! introspection builds on Windows type libraries. The Rust analogue keeps
//! both halves:
//!
//! * [`InterfaceRef`] — a type-erased handle to an `Arc<dyn Trait>` that can
//!   be stored uniformly in meta-model data structures and recovered to the
//!   concrete trait object with [`InterfaceRef::downcast`]. Dispatch through
//!   a recovered handle is one fat-pointer indirect call — the same cost
//!   profile as a COM vtable call.
//! * [`InterfaceDescriptor`] — method-level metadata registered per
//!   interface type, standing in for the type library so that tooling can
//!   inspect interfaces without compile-time knowledge of the trait.

use std::any::Any;
use std::fmt;
use std::sync::{Arc, Weak};

use crate::ident::{ComponentId, InterfaceId, Version};

/// A type-erased, reference-counted handle to an exported interface.
///
/// `InterfaceRef` is what `query_interface` returns and what receptacles
/// accept. It remembers which component exported it so the architecture
/// meta-model can attribute bindings.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use opencom::ident::{ComponentId, InterfaceId};
/// use opencom::interface::InterfaceRef;
///
/// trait Greeter: Send + Sync { fn hello(&self) -> &'static str; }
/// struct En;
/// impl Greeter for En { fn hello(&self) -> &'static str { "hello" } }
///
/// const IGREET: InterfaceId = InterfaceId::new("demo.IGreeter");
/// let obj: Arc<dyn Greeter> = Arc::new(En);
/// let iref = InterfaceRef::new(IGREET, ComponentId::from_raw(1), obj);
/// let back: Arc<dyn Greeter> = iref.downcast().expect("same type");
/// assert_eq!(back.hello(), "hello");
/// ```
#[derive(Clone)]
pub struct InterfaceRef {
    id: InterfaceId,
    provider: ComponentId,
    any: Arc<dyn Any + Send + Sync>,
}

impl InterfaceRef {
    /// Wraps a concrete `Arc<I>` (typically `Arc<dyn SomeTrait>`) into a
    /// type-erased reference.
    pub fn new<I>(id: InterfaceId, provider: ComponentId, iface: Arc<I>) -> Self
    where
        I: ?Sized + Send + Sync + 'static,
    {
        Self {
            id,
            provider,
            any: Arc::new(iface),
        }
    }

    /// Recovers the concrete `Arc<I>` if `I` matches the wrapped type.
    ///
    /// Returns `None` on a type mismatch; callers that bound the interface
    /// id first will normally never see `None`.
    pub fn downcast<I>(&self) -> Option<Arc<I>>
    where
        I: ?Sized + 'static,
    {
        self.any.downcast_ref::<Arc<I>>().cloned()
    }

    /// The interface type this reference exports.
    pub fn id(&self) -> InterfaceId {
        self.id
    }

    /// The component instance that exported this interface.
    pub fn provider(&self) -> ComponentId {
        self.provider
    }
}

impl fmt::Debug for InterfaceRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "InterfaceRef({} from {})", self.id, self.provider)
    }
}

/// A lazily-upgradable interface export held inside a component's table.
///
/// Components store `Weak` references to themselves to avoid `Arc` cycles;
/// the export produces a strong [`InterfaceRef`] on demand.
pub(crate) struct InterfaceExport {
    pub(crate) id: InterfaceId,
    make: Box<dyn Fn() -> Option<InterfaceRef> + Send + Sync>,
}

impl InterfaceExport {
    pub(crate) fn new<I>(id: InterfaceId, provider: ComponentId, iface: &Arc<I>) -> Self
    where
        I: ?Sized + Send + Sync + 'static,
    {
        let weak: Weak<I> = Arc::downgrade(iface);
        Self {
            id,
            make: Box::new(move || {
                weak.upgrade()
                    .map(|strong| InterfaceRef::new(id, provider, strong))
            }),
        }
    }

    /// Builds an export from an already type-erased reference (used by
    /// composites re-exporting an inner component's interface).
    pub(crate) fn from_ref(iref: InterfaceRef) -> Self {
        Self {
            id: iref.id(),
            make: Box::new(move || Some(iref.clone())),
        }
    }

    pub(crate) fn materialize(&self) -> Option<InterfaceRef> {
        (self.make)()
    }
}

impl fmt::Debug for InterfaceExport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "InterfaceExport({})", self.id)
    }
}

/// Metadata describing one parameter of an interface method.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamDescriptor {
    /// Parameter name as written in the defining trait.
    pub name: &'static str,
    /// Human-readable type name (language-independent wire form).
    pub ty: &'static str,
}

/// Metadata describing one method of an interface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MethodDescriptor {
    /// Method name.
    pub name: &'static str,
    /// Parameters in declaration order (excluding the receiver).
    pub params: Vec<ParamDescriptor>,
    /// Human-readable return type name.
    pub returns: &'static str,
    /// One-line documentation string.
    pub doc: &'static str,
}

/// Introspection metadata for an interface type — the stand-in for the
/// Windows type libraries the paper's implementation relied on.
///
/// Descriptors are registered with the
/// [`InterfaceRepository`](crate::meta::interface::InterfaceRepository)
/// so that management tooling can enumerate an interface's methods at run
/// time even though Rust itself offers no reflection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterfaceDescriptor {
    /// The interface id this descriptor describes.
    pub id: InterfaceId,
    /// Interface contract version.
    pub version: Version,
    /// Methods in declaration order.
    pub methods: Vec<MethodDescriptor>,
    /// One-line documentation string.
    pub doc: &'static str,
}

impl InterfaceDescriptor {
    /// Creates a descriptor with no methods; add them with
    /// [`InterfaceDescriptor::method`].
    pub fn new(id: InterfaceId, version: Version, doc: &'static str) -> Self {
        Self {
            id,
            version,
            methods: Vec::new(),
            doc,
        }
    }

    /// Adds a method signature (builder-style).
    pub fn method(
        mut self,
        name: &'static str,
        params: &[(&'static str, &'static str)],
        returns: &'static str,
        doc: &'static str,
    ) -> Self {
        self.methods.push(MethodDescriptor {
            name,
            params: params
                .iter()
                .map(|(name, ty)| ParamDescriptor { name, ty })
                .collect(),
            returns,
            doc,
        });
        self
    }

    /// Looks up a method descriptor by name.
    pub fn find_method(&self, name: &str) -> Option<&MethodDescriptor> {
        self.methods.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    trait Counter: Send + Sync {
        fn add(&self, n: u64) -> u64;
    }

    struct C(std::sync::atomic::AtomicU64);
    impl Counter for C {
        fn add(&self, n: u64) -> u64 {
            self.0.fetch_add(n, std::sync::atomic::Ordering::Relaxed) + n
        }
    }

    const ICOUNT: InterfaceId = InterfaceId::new("test.ICounter");

    #[test]
    fn downcast_roundtrip() {
        let obj: Arc<dyn Counter> = Arc::new(C(0.into()));
        let iref = InterfaceRef::new(ICOUNT, ComponentId::from_raw(1), obj);
        let back: Arc<dyn Counter> = iref.downcast().unwrap();
        assert_eq!(back.add(3), 3);
        assert_eq!(back.add(4), 7);
    }

    #[test]
    fn downcast_to_wrong_type_fails() {
        trait Other: Send + Sync {}
        let obj: Arc<dyn Counter> = Arc::new(C(0.into()));
        let iref = InterfaceRef::new(ICOUNT, ComponentId::from_raw(1), obj);
        assert!(iref.downcast::<dyn Other>().is_none());
    }

    #[test]
    fn export_upgrades_while_alive_and_fails_after_drop() {
        let obj: Arc<dyn Counter> = Arc::new(C(0.into()));
        let export = InterfaceExport::new(ICOUNT, ComponentId::from_raw(9), &obj);
        assert!(export.materialize().is_some());
        drop(obj);
        assert!(export.materialize().is_none());
    }

    #[test]
    fn descriptor_builder_and_lookup() {
        let d = InterfaceDescriptor::new(ICOUNT, Version::new(1, 0, 0), "counting").method(
            "add",
            &[("n", "u64")],
            "u64",
            "adds n",
        );
        assert_eq!(d.methods.len(), 1);
        let m = d.find_method("add").unwrap();
        assert_eq!(m.params[0].ty, "u64");
        assert!(d.find_method("sub").is_none());
    }

    #[test]
    fn interface_ref_clones_share_object() {
        let obj: Arc<dyn Counter> = Arc::new(C(0.into()));
        let a = InterfaceRef::new(ICOUNT, ComponentId::from_raw(1), obj);
        let b = a.clone();
        let ca: Arc<dyn Counter> = a.downcast().unwrap();
        let cb: Arc<dyn Counter> = b.downcast().unwrap();
        ca.add(5);
        assert_eq!(cb.add(0), 5);
    }
}
