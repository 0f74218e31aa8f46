//! Receptacles — explicit "required" interfaces.
//!
//! A receptacle is the OpenCOM dependency primitive: a named, typed slot on
//! a component into which the `bind` primitive plugs another component's
//! interface. Making dependencies explicit is what lets the architecture
//! meta-model see — and safely rewire — the component graph at run time.
//!
//! [`Receptacle<I>`] is *typed*: the `InterfaceRef` is downcast once at
//! bind time, so the packet fast path pays only a `parking_lot` read lock
//! and one dynamic dispatch per traversal. The read lock is also the
//! quiescence mechanism: reconfiguration takes the corresponding write
//! lock and therefore waits for in-flight calls to drain (paper §4's
//! "safe" reconfiguration).

use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{Error, Result};
use crate::ident::{ComponentId, InterfaceId};
use crate::interface::InterfaceRef;

/// How many simultaneous bindings a receptacle accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cardinality {
    /// Exactly zero or one binding (a classic `required` interface).
    Single,
    /// Up to `max` bindings (`usize::MAX` for unlimited). Used by fan-out
    /// components such as classifiers and schedulers.
    Multi {
        /// Maximum number of simultaneous bindings.
        max: usize,
    },
}

impl Cardinality {
    fn limit(&self) -> usize {
        match self {
            Cardinality::Single => 1,
            Cardinality::Multi { max } => *max,
        }
    }
}

/// One bound peer inside a receptacle.
struct Slot<I: ?Sized> {
    peer: ComponentId,
    /// The label under which this binding was attached (classifier outputs
    /// are selected by label; single receptacles use `""`).
    label: String,
    iface: Arc<I>,
    /// The original type-erased reference, kept for meta-model inspection.
    iref: InterfaceRef,
}

struct Inner<I: ?Sized> {
    name: String,
    iface_id: InterfaceId,
    cardinality: Cardinality,
    slots: RwLock<Vec<Slot<I>>>,
}

/// A typed, named dependency slot.
///
/// Cloning a `Receptacle` yields another handle onto the same slot (the
/// component keeps one inside itself; the registrar keeps another for the
/// meta-model).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use opencom::ident::{ComponentId, InterfaceId};
/// use opencom::interface::InterfaceRef;
/// use opencom::receptacle::{Cardinality, Receptacle};
///
/// trait Sink: Send + Sync { fn accept(&self, v: u32); }
/// struct Null;
/// impl Sink for Null { fn accept(&self, _v: u32) {} }
///
/// const ISINK: InterfaceId = InterfaceId::new("demo.ISink");
/// let rec: Receptacle<dyn Sink> = Receptacle::new("out", ISINK, Cardinality::Single);
/// let sink: Arc<dyn Sink> = Arc::new(Null);
/// let iref = InterfaceRef::new(ISINK, ComponentId::from_raw(1), sink);
/// rec.bind(iref)?;
/// rec.with_bound(|s| s.accept(7)).expect("bound");
/// # Ok::<(), opencom::error::Error>(())
/// ```
pub struct Receptacle<I: ?Sized> {
    inner: Arc<Inner<I>>,
}

impl<I: ?Sized> Clone for Receptacle<I> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<I: ?Sized + 'static> Receptacle<I> {
    /// Creates an empty receptacle.
    pub fn new(name: impl Into<String>, iface_id: InterfaceId, cardinality: Cardinality) -> Self {
        Self {
            inner: Arc::new(Inner {
                name: name.into(),
                iface_id,
                cardinality,
                slots: RwLock::new(Vec::new()),
            }),
        }
    }

    /// Convenience constructor for the common single-cardinality case.
    pub fn single(name: impl Into<String>, iface_id: InterfaceId) -> Self {
        Self::new(name, iface_id, Cardinality::Single)
    }

    /// Convenience constructor for an unbounded multi-receptacle.
    pub fn multi(name: impl Into<String>, iface_id: InterfaceId) -> Self {
        Self::new(name, iface_id, Cardinality::Multi { max: usize::MAX })
    }

    /// The receptacle's name (unique within its component).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The interface type this receptacle requires.
    fn interface_id(&self) -> InterfaceId {
        self.inner.iface_id
    }

    /// The receptacle's cardinality rule.
    pub fn cardinality(&self) -> Cardinality {
        self.inner.cardinality
    }

    /// Binds an interface into this receptacle under the empty label.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::TypeMismatch`] if the reference exports a
    /// different interface id, with [`Error::CardinalityExceeded`] if the
    /// receptacle is full, and with [`Error::TypeMismatch`] if the
    /// underlying trait object is not an `Arc<I>`.
    pub fn bind(&self, iref: InterfaceRef) -> Result<()> {
        self.bind_labelled("", iref)
    }

    /// Binds an interface under a label (used by classifiers and
    /// schedulers that select outputs by name).
    fn bind_labelled(&self, label: impl Into<String>, iref: InterfaceRef) -> Result<()> {
        if iref.id() != self.inner.iface_id {
            return Err(Error::TypeMismatch {
                expected: self.inner.iface_id,
                found: iref.id(),
            });
        }
        let iface: Arc<I> = iref.downcast::<I>().ok_or(Error::TypeMismatch {
            expected: self.inner.iface_id,
            found: iref.id(),
        })?;
        let mut slots = self.inner.slots.write();
        let limit = self.inner.cardinality.limit();
        if slots.len() >= limit {
            return Err(Error::CardinalityExceeded {
                receptacle: self.inner.name.clone(),
                max: limit,
            });
        }
        slots.push(Slot {
            peer: iref.provider(),
            label: label.into(),
            iface,
            iref,
        });
        Ok(())
    }

    /// Removes the first binding to `peer`.
    ///
    /// Taking the write lock here waits for in-flight [`Self::with_bound`]
    /// calls to complete — this is the per-edge quiescence point.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::NotBound`] if no binding to `peer` exists.
    pub fn unbind(&self, peer: ComponentId) -> Result<()> {
        let mut slots = self.inner.slots.write();
        match slots.iter().position(|s| s.peer == peer) {
            Some(idx) => {
                slots.remove(idx);
                Ok(())
            }
            None => Err(Error::NotBound {
                receptacle: self.inner.name.clone(),
            }),
        }
    }

    /// Removes the binding to `peer` attached under exactly `label`.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::NotBound`] if no such binding exists.
    fn unbind_labelled(&self, peer: ComponentId, label: &str) -> Result<()> {
        let mut slots = self.inner.slots.write();
        match slots
            .iter()
            .position(|s| s.peer == peer && s.label == label)
        {
            Some(idx) => {
                slots.remove(idx);
                Ok(())
            }
            None => Err(Error::NotBound {
                receptacle: self.inner.name.clone(),
            }),
        }
    }

    /// Atomically replaces the binding to `old_peer` with `iref`,
    /// preserving the slot's label and position (so fan-out order is
    /// stable across hot-swaps).
    pub fn rebind(&self, old_peer: ComponentId, iref: InterfaceRef) -> Result<()> {
        self.rebind_inner(old_peer, None, iref)
    }

    /// Like [`Self::rebind`], but selects the slot by peer *and* label.
    fn rebind_labelled(
        &self,
        old_peer: ComponentId,
        label: &str,
        iref: InterfaceRef,
    ) -> Result<()> {
        self.rebind_inner(old_peer, Some(label), iref)
    }

    fn rebind_inner(
        &self,
        old_peer: ComponentId,
        label: Option<&str>,
        iref: InterfaceRef,
    ) -> Result<()> {
        if iref.id() != self.inner.iface_id {
            return Err(Error::TypeMismatch {
                expected: self.inner.iface_id,
                found: iref.id(),
            });
        }
        let iface: Arc<I> = iref.downcast::<I>().ok_or(Error::TypeMismatch {
            expected: self.inner.iface_id,
            found: iref.id(),
        })?;
        let mut slots = self.inner.slots.write();
        let slot = slots
            .iter_mut()
            .find(|s| s.peer == old_peer && label.is_none_or(|l| s.label == l))
            .ok_or(Error::NotBound {
                receptacle: self.inner.name.clone(),
            })?;
        slot.peer = iref.provider();
        slot.iface = iface;
        slot.iref = iref;
        Ok(())
    }

    /// Runs `f` against the first bound interface while holding the read
    /// lock (no `Arc` clone on the fast path).
    ///
    /// Returns `None` if the receptacle is unbound.
    #[inline]
    pub fn with_bound<R>(&self, f: impl FnOnce(&I) -> R) -> Option<R> {
        let slots = self.inner.slots.read();
        slots.first().map(|s| f(&s.iface))
    }

    /// Runs `f` against the interface bound under `label`.
    #[inline]
    pub fn with_labelled<R>(&self, label: &str, f: impl FnOnce(&I) -> R) -> Option<R> {
        let slots = self.inner.slots.read();
        slots.iter().find(|s| s.label == label).map(|s| f(&s.iface))
    }

    /// Runs `f` for every bound interface in bind order.
    pub fn for_each(&self, mut f: impl FnMut(&str, &I)) {
        let slots = self.inner.slots.read();
        for s in slots.iter() {
            f(&s.label, &s.iface);
        }
    }

    /// Clones out the first bound interface. This is the *fused-binding*
    /// escape hatch (paper §5's vtable bypass): callers that freeze
    /// reconfiguration may cache the returned `Arc` and call through it
    /// without touching the receptacle lock.
    pub fn snapshot(&self) -> Option<Arc<I>> {
        self.inner
            .slots
            .read()
            .first()
            .map(|s| Arc::clone(&s.iface))
    }

    /// Clones out the interface bound under `label`.
    pub fn snapshot_labelled(&self, label: &str) -> Option<Arc<I>> {
        self.inner
            .slots
            .read()
            .iter()
            .find(|s| s.label == label)
            .map(|s| Arc::clone(&s.iface))
    }

    /// Returns `(label, peer, interface ref)` for every binding — the
    /// meta-model's view.
    pub fn bindings(&self) -> Vec<(String, ComponentId, InterfaceRef)> {
        self.inner
            .slots
            .read()
            .iter()
            .map(|s| (s.label.clone(), s.peer, s.iref.clone()))
            .collect()
    }
}

impl<I: ?Sized> fmt::Debug for Receptacle<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Receptacle(`{}`: {}, {} bound)",
            self.inner.name,
            self.inner.iface_id,
            self.inner.slots.read().len()
        )
    }
}

/// Type-erased description of a receptacle, as seen by the meta-model.
#[derive(Clone, Debug)]
pub struct ReceptacleInfo {
    /// Receptacle name, unique within the component.
    pub name: String,
    /// Required interface type.
    pub interface: InterfaceId,
    /// Cardinality rule.
    pub cardinality: Cardinality,
    /// Current bindings as `(label, peer)` pairs.
    pub bound: Vec<(String, ComponentId)>,
}

/// Type-erased handle stored in a component's receptacle table; forwards
/// bind/unbind to the typed receptacle via captured closures.
#[allow(clippy::type_complexity)]
pub(crate) struct ReceptacleEntry {
    pub(crate) name: String,
    pub(crate) interface: InterfaceId,
    pub(crate) cardinality: Cardinality,
    bind: Box<dyn Fn(&str, InterfaceRef) -> Result<()> + Send + Sync>,
    unbind: Box<dyn Fn(ComponentId, &str) -> Result<()> + Send + Sync>,
    rebind: Box<dyn Fn(ComponentId, &str, InterfaceRef) -> Result<()> + Send + Sync>,
    list: Box<dyn Fn() -> Vec<(String, ComponentId, InterfaceRef)> + Send + Sync>,
}

impl ReceptacleEntry {
    pub(crate) fn from_typed<I: ?Sized + Send + Sync + 'static>(rec: &Receptacle<I>) -> Self {
        let (b, u, r, l) = (rec.clone(), rec.clone(), rec.clone(), rec.clone());
        Self {
            name: rec.name().to_owned(),
            interface: rec.interface_id(),
            cardinality: rec.cardinality(),
            bind: Box::new(move |label, iref| b.bind_labelled(label, iref)),
            unbind: Box::new(move |peer, label| u.unbind_labelled(peer, label)),
            rebind: Box::new(move |peer, label, iref| r.rebind_labelled(peer, label, iref)),
            list: Box::new(move || l.bindings()),
        }
    }

    pub(crate) fn bind(&self, label: &str, iref: InterfaceRef) -> Result<()> {
        (self.bind)(label, iref)
    }

    pub(crate) fn unbind(&self, peer: ComponentId, label: &str) -> Result<()> {
        (self.unbind)(peer, label)
    }

    pub(crate) fn rebind(&self, peer: ComponentId, label: &str, iref: InterfaceRef) -> Result<()> {
        (self.rebind)(peer, label, iref)
    }

    pub(crate) fn info(&self) -> ReceptacleInfo {
        ReceptacleInfo {
            name: self.name.clone(),
            interface: self.interface,
            cardinality: self.cardinality,
            bound: (self.list)()
                .into_iter()
                .map(|(label, peer, _)| (label, peer))
                .collect(),
        }
    }

    pub(crate) fn bindings(&self) -> Vec<(String, ComponentId, InterfaceRef)> {
        (self.list)()
    }
}

impl fmt::Debug for ReceptacleEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ReceptacleEntry(`{}`: {})", self.name, self.interface)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    trait Sink: Send + Sync {
        fn accept(&self, v: u32);
    }
    struct Rec(AtomicU32);
    impl Sink for Rec {
        fn accept(&self, v: u32) {
            self.0.fetch_add(v, Ordering::Relaxed);
        }
    }

    const ISINK: InterfaceId = InterfaceId::new("test.ISink");

    fn sink_ref(peer: u64) -> (Arc<Rec>, InterfaceRef) {
        let obj = Arc::new(Rec(AtomicU32::new(0)));
        let dyn_obj: Arc<dyn Sink> = obj.clone();
        (
            obj,
            InterfaceRef::new(ISINK, ComponentId::from_raw(peer), dyn_obj),
        )
    }

    #[test]
    fn single_receptacle_binds_once() {
        let rec: Receptacle<dyn Sink> = Receptacle::single("out", ISINK);
        let (_, a) = sink_ref(1);
        let (_, b) = sink_ref(2);
        rec.bind(a).unwrap();
        let err = rec.bind(b).unwrap_err();
        assert!(matches!(err, Error::CardinalityExceeded { .. }));
    }

    #[test]
    fn multi_receptacle_respects_max() {
        let rec: Receptacle<dyn Sink> =
            Receptacle::new("outs", ISINK, Cardinality::Multi { max: 2 });
        let (_, a) = sink_ref(1);
        let (_, b) = sink_ref(2);
        let (_, c) = sink_ref(3);
        rec.bind_labelled("a", a).unwrap();
        rec.bind_labelled("b", b).unwrap();
        assert!(rec.bind_labelled("c", c).is_err());
        assert_eq!(rec.bindings().len(), 2);
    }

    #[test]
    fn wrong_interface_id_is_rejected() {
        let rec: Receptacle<dyn Sink> = Receptacle::single("out", ISINK);
        let (_, mut iref) = sink_ref(1);
        iref = InterfaceRef::new(
            InterfaceId::new("test.Other"),
            iref.provider(),
            iref.downcast::<dyn Sink>().unwrap(),
        );
        assert!(matches!(rec.bind(iref), Err(Error::TypeMismatch { .. })));
    }

    #[test]
    fn calls_reach_bound_component() {
        let rec: Receptacle<dyn Sink> = Receptacle::single("out", ISINK);
        let (obj, iref) = sink_ref(1);
        rec.bind(iref).unwrap();
        rec.with_bound(|s| s.accept(41)).unwrap();
        rec.with_bound(|s| s.accept(1)).unwrap();
        assert_eq!(obj.0.load(Ordering::Relaxed), 42);
    }

    #[test]
    fn unbind_then_call_returns_none() {
        let rec: Receptacle<dyn Sink> = Receptacle::single("out", ISINK);
        let (_, iref) = sink_ref(5);
        rec.bind(iref).unwrap();
        rec.unbind(ComponentId::from_raw(5)).unwrap();
        assert!(rec.with_bound(|s| s.accept(1)).is_none());
        assert!(matches!(
            rec.unbind(ComponentId::from_raw(5)),
            Err(Error::NotBound { .. })
        ));
    }

    #[test]
    fn labelled_dispatch_selects_correct_peer() {
        let rec: Receptacle<dyn Sink> = Receptacle::multi("outs", ISINK);
        let (oa, a) = sink_ref(1);
        let (ob, b) = sink_ref(2);
        rec.bind_labelled("v4", a).unwrap();
        rec.bind_labelled("v6", b).unwrap();
        rec.with_labelled("v6", |s| s.accept(9)).unwrap();
        assert_eq!(oa.0.load(Ordering::Relaxed), 0);
        assert_eq!(ob.0.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn rebind_preserves_label_and_position() {
        let rec: Receptacle<dyn Sink> = Receptacle::multi("outs", ISINK);
        let (_, a) = sink_ref(1);
        let (nb, b) = sink_ref(2);
        rec.bind_labelled("first", a).unwrap();
        rec.rebind(ComponentId::from_raw(1), b).unwrap();
        let bindings = rec.bindings();
        assert_eq!(bindings.len(), 1);
        assert_eq!(bindings[0].0, "first");
        assert_eq!(bindings[0].1, ComponentId::from_raw(2));
        rec.with_labelled("first", |s| s.accept(3)).unwrap();
        assert_eq!(nb.0.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn snapshot_survives_unbind() {
        let rec: Receptacle<dyn Sink> = Receptacle::single("out", ISINK);
        let (obj, iref) = sink_ref(7);
        rec.bind(iref).unwrap();
        let fused = rec.snapshot().unwrap();
        rec.unbind(ComponentId::from_raw(7)).unwrap();
        // Fused path keeps working; reconfigurable path sees the unbind.
        fused.accept(11);
        assert!(rec.with_bound(|s| s.accept(1)).is_none());
        assert_eq!(obj.0.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn erased_entry_roundtrip() {
        let rec: Receptacle<dyn Sink> = Receptacle::single("out", ISINK);
        let entry = ReceptacleEntry::from_typed(&rec);
        let (obj, iref) = sink_ref(3);
        entry.bind("", iref).unwrap();
        assert_eq!(entry.info().bound.len(), 1);
        rec.with_bound(|s| s.accept(2)).unwrap();
        assert_eq!(obj.0.load(Ordering::Relaxed), 2);
        entry.unbind(ComponentId::from_raw(3), "").unwrap();
        assert_eq!(entry.info().bound.len(), 0);
    }
}
