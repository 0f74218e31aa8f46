//! Architecture meta-model — structural reflection over a capsule.
//!
//! This is OpenCOM's "architecture meta-model" (paper §2): a causally
//! connected, per-capsule representation of the component graph —
//! components as nodes, bindings as edges — that supports *introspection*
//! (enumerate, inspect, export to Graphviz) and *adaptation* (unbind,
//! rebind, hot-replace, splice interceptors) at run time.
//!
//! Reconfiguration quiesces one edge at a time (driven under load by
//! `tests/reconfiguration_under_load.rs`): every receptacle slot is
//! guarded by a `RwLock`, so an individual rebind waits only for
//! in-flight calls through that edge.

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::component::Component;
use crate::error::{Error, Result};
use crate::ident::{BindingId, ComponentId, InterfaceId};
use crate::interception::InterceptorChain;
use crate::interface::InterfaceRef;

/// One edge of the component graph.
#[derive(Clone)]
pub struct BindingRecord {
    /// The binding's id.
    pub id: BindingId,
    /// Component whose receptacle holds the binding.
    pub src: ComponentId,
    /// Receptacle name on `src`.
    pub receptacle: String,
    /// Label under which the edge is attached (classifier output name…).
    pub label: String,
    /// Component exporting the bound interface.
    pub dst: ComponentId,
    /// Interface type flowing across the edge.
    pub interface: InterfaceId,
    /// The unintercepted interface reference (kept so interceptors can be
    /// removed again).
    pub raw: InterfaceRef,
    /// Interceptor chain, if the edge is currently intercepted.
    pub chain: Option<Arc<InterceptorChain>>,
}

impl fmt::Debug for BindingRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Binding({}: {}.{}[{}] -> {} : {}{})",
            self.id,
            self.src,
            self.receptacle,
            self.label,
            self.dst,
            self.interface,
            if self.chain.is_some() {
                " [intercepted]"
            } else {
                ""
            }
        )
    }
}

/// The causally connected structural model of one capsule.
#[derive(Default)]
pub struct ArchitectureMetaModel {
    components: RwLock<HashMap<ComponentId, Arc<dyn Component>>>,
    bindings: RwLock<HashMap<BindingId, BindingRecord>>,
}

impl ArchitectureMetaModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- introspection -------------------------------------------------

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.components.read().len()
    }

    /// Number of recorded bindings.
    pub fn binding_count(&self) -> usize {
        self.bindings.read().len()
    }

    /// Ids of all components, sorted.
    pub fn component_ids(&self) -> Vec<ComponentId> {
        let mut ids: Vec<_> = self.components.read().keys().copied().collect();
        ids.sort();
        ids
    }

    /// Looks up a component by id.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::StaleReference`] for unknown ids.
    pub fn component(&self, id: ComponentId) -> Result<Arc<dyn Component>> {
        self.components
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::StaleReference {
                what: format!("component {id}"),
            })
    }

    /// Finds components whose deployable type name equals `type_name`.
    pub fn find_by_type(&self, type_name: &str) -> Vec<Arc<dyn Component>> {
        let comps = self.components.read();
        let mut found: Vec<_> = comps
            .values()
            .filter(|c| c.core().descriptor().type_name == type_name)
            .cloned()
            .collect();
        found.sort_by_key(|c| c.core().id());
        found
    }

    /// All binding records, sorted by id.
    pub fn binding_records(&self) -> Vec<BindingRecord> {
        let mut recs: Vec<_> = self.bindings.read().values().cloned().collect();
        recs.sort_by_key(|r| r.id);
        recs
    }

    /// Binding records with `id` as source or destination.
    pub fn bindings_of(&self, id: ComponentId) -> Vec<BindingRecord> {
        let mut recs: Vec<_> = self
            .bindings
            .read()
            .values()
            .filter(|r| r.src == id || r.dst == id)
            .cloned()
            .collect();
        recs.sort_by_key(|r| r.id);
        recs
    }

    /// Looks up one binding record.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::StaleReference`] for unknown ids.
    pub fn binding(&self, id: BindingId) -> Result<BindingRecord> {
        self.bindings
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::StaleReference {
                what: format!("binding {id}"),
            })
    }

    /// Renders the graph in Graphviz `dot` syntax — the "analyse software
    /// on a node as a single composite" affordance (paper §4).
    pub fn to_dot(&self, title: &str) -> String {
        let comps = self.components.read();
        let bindings = self.bindings.read();
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{title}\" {{");
        let mut ids: Vec<_> = comps.keys().copied().collect();
        ids.sort();
        for id in ids {
            let c = &comps[&id];
            let _ = writeln!(
                out,
                "  n{} [label=\"{}\\n{}\"];",
                id.as_raw(),
                c.core().descriptor().type_name,
                id
            );
        }
        let mut recs: Vec<_> = bindings.values().collect();
        recs.sort_by_key(|r| r.id);
        for r in recs {
            let style = if r.chain.is_some() {
                ",style=dashed"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  n{} -> n{} [label=\"{}{}\"{}];",
                r.src.as_raw(),
                r.dst.as_raw(),
                r.receptacle,
                if r.label.is_empty() {
                    String::new()
                } else {
                    format!(":{}", r.label)
                },
                style
            );
        }
        out.push_str("}\n");
        out
    }

    /// Total footprint estimate of the graph in bytes (experiment E3):
    /// the sum of every component's self-reported footprint plus the
    /// bookkeeping structures of the model itself.
    pub fn footprint_bytes(&self) -> usize {
        let comps = self.components.read();
        let body: usize = comps.values().map(|c| c.footprint_bytes()).sum();
        let records = self.bindings.read().len() * std::mem::size_of::<BindingRecord>();
        body + records + comps.len() * std::mem::size_of::<ComponentId>()
    }

    // ---- mutation (used by Capsule) ------------------------------------

    /// Registers a component.
    pub fn insert_component(&self, comp: Arc<dyn Component>) {
        self.components.write().insert(comp.core().id(), comp);
    }

    /// Removes a component.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::CfViolation`] if any binding still references
    /// the component — unbind first.
    pub fn remove_component(&self, id: ComponentId) -> Result<Arc<dyn Component>> {
        let dangling = self
            .bindings
            .read()
            .values()
            .any(|r| r.src == id || r.dst == id);
        if dangling {
            return Err(Error::CfViolation {
                framework: "architecture".into(),
                rule: format!("component {id} still has bindings"),
            });
        }
        self.components
            .write()
            .remove(&id)
            .ok_or_else(|| Error::StaleReference {
                what: format!("component {id}"),
            })
    }

    /// Records a new edge.
    pub fn insert_binding(&self, record: BindingRecord) {
        self.bindings.write().insert(record.id, record);
    }

    /// Deletes an edge record.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::StaleReference`] for unknown ids.
    pub fn take_binding(&self, id: BindingId) -> Result<BindingRecord> {
        self.bindings
            .write()
            .remove(&id)
            .ok_or_else(|| Error::StaleReference {
                what: format!("binding {id}"),
            })
    }

    /// Updates an edge record in place.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::StaleReference`] for unknown ids.
    pub fn update_binding(&self, id: BindingId, f: impl FnOnce(&mut BindingRecord)) -> Result<()> {
        let mut bindings = self.bindings.write();
        let rec = bindings.get_mut(&id).ok_or_else(|| Error::StaleReference {
            what: format!("binding {id}"),
        })?;
        f(rec);
        Ok(())
    }
}

impl fmt::Debug for ArchitectureMetaModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ArchitectureMetaModel({} components, {} bindings)",
            self.component_count(),
            self.binding_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{ComponentCore, ComponentDescriptor, Registrar};
    use crate::ident::Version;

    struct Dummy {
        core: ComponentCore,
    }
    impl Dummy {
        #[allow(clippy::new_ret_no_self)]
        fn new(type_name: &str) -> Arc<dyn Component> {
            Arc::new(Self {
                core: ComponentCore::new(ComponentDescriptor::new(
                    type_name,
                    Version::new(1, 0, 0),
                )),
            })
        }
    }
    impl Component for Dummy {
        fn core(&self) -> &ComponentCore {
            &self.core
        }
        fn publish(self: Arc<Self>, _reg: &Registrar<'_>) {}
    }

    fn record(src: ComponentId, dst: ComponentId) -> BindingRecord {
        let iref = InterfaceRef::new(
            InterfaceId::new("t.I"),
            dst,
            Arc::new(()) as Arc<dyn std::any::Any + Send + Sync>,
        );
        BindingRecord {
            id: BindingId::next(),
            src,
            receptacle: "out".into(),
            label: String::new(),
            dst,
            interface: InterfaceId::new("t.I"),
            raw: iref,
            chain: None,
        }
    }

    #[test]
    fn insert_and_enumerate() {
        let arch = ArchitectureMetaModel::new();
        let a = Dummy::new("A");
        let b = Dummy::new("B");
        arch.insert_component(a.clone());
        arch.insert_component(b.clone());
        assert_eq!(arch.component_count(), 2);
        assert_eq!(arch.find_by_type("A").len(), 1);
        assert_eq!(arch.find_by_type("C").len(), 0);
        assert!(arch.component(a.core().id()).is_ok());
    }

    #[test]
    fn remove_with_bindings_is_refused() {
        let arch = ArchitectureMetaModel::new();
        let a = Dummy::new("A");
        let b = Dummy::new("B");
        let (aid, bid) = (a.core().id(), b.core().id());
        arch.insert_component(a);
        arch.insert_component(b);
        let rec = record(aid, bid);
        let rid = rec.id;
        arch.insert_binding(rec);
        assert!(arch.remove_component(bid).is_err());
        arch.take_binding(rid).unwrap();
        assert!(arch.remove_component(bid).is_ok());
    }

    #[test]
    fn bindings_of_filters_by_endpoint() {
        let arch = ArchitectureMetaModel::new();
        let (a, b, c) = (Dummy::new("A"), Dummy::new("B"), Dummy::new("C"));
        let (aid, bid, cid) = (a.core().id(), b.core().id(), c.core().id());
        for x in [a, b, c] {
            arch.insert_component(x);
        }
        arch.insert_binding(record(aid, bid));
        arch.insert_binding(record(bid, cid));
        assert_eq!(arch.bindings_of(aid).len(), 1);
        assert_eq!(arch.bindings_of(bid).len(), 2);
        assert_eq!(arch.bindings_of(cid).len(), 1);
    }

    #[test]
    fn dot_export_contains_nodes_and_edges() {
        let arch = ArchitectureMetaModel::new();
        let a = Dummy::new("Classifier");
        let b = Dummy::new("Queue");
        let (aid, bid) = (a.core().id(), b.core().id());
        arch.insert_component(a);
        arch.insert_component(b);
        arch.insert_binding(record(aid, bid));
        let dot = arch.to_dot("router");
        assert!(dot.contains("digraph \"router\""));
        assert!(dot.contains("Classifier"));
        assert!(dot.contains("->"));
    }

    #[test]
    fn retarget_rewrites_edges() {
        let arch = ArchitectureMetaModel::new();
        let (a, b, b2) = (Dummy::new("A"), Dummy::new("B"), Dummy::new("B"));
        let (aid, bid, b2id) = (a.core().id(), b.core().id(), b2.core().id());
        for x in [a, b, b2] {
            arch.insert_component(x);
        }
        let rec = record(aid, bid);
        let edge = rec.id;
        arch.insert_binding(rec);
        arch.update_binding(edge, |r| r.dst = b2id).unwrap();
        assert_eq!(arch.bindings_of(b2id).len(), 1);
        assert_eq!(arch.bindings_of(bid).len(), 0);
    }

    #[test]
    fn footprint_counts_components_and_bindings() {
        let arch = ArchitectureMetaModel::new();
        let a = Dummy::new("A");
        let aid = a.core().id();
        arch.insert_component(a);
        let empty = arch.footprint_bytes();
        arch.insert_binding(record(aid, aid));
        assert!(arch.footprint_bytes() > empty);
    }
}
