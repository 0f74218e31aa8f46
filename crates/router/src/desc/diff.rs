//! `diff(old, new) -> Patch`: the incremental half of the declarative
//! layer.
//!
//! The diff is **minimal** — it emits one op per changed fact, never a
//! rebuild of an unchanged element — and **deterministic**: both
//! descriptions are canonicalised first, every op category is emitted
//! in sorted order, and the same pair of descriptions always produces
//! the same op sequence (the golden-file tests snapshot exactly this).
//!
//! Op ordering is chosen so a single forward pass is always legal:
//! adds first (so later binds can reference new elements), then kind
//! rebuilds and param replaces (edges survive `Capsule::replace`),
//! then unbinds before removes (an edge into a removed element is
//! dropped by `destroy`, so the diff never emits it), then binds, the
//! ingress swap, table deletes before puts, and finally the
//! pipeline-level control/steering updates.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use super::{EdgeDesc, PipelineDesc, TableEntry};

/// One mutation in a patch plan. Ops name description-level objects;
/// [`DescBinding`](super::DescBinding) resolves them to live ids at
/// apply time, once per shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PatchOp {
    /// Adopt a new element (structural).
    AddElement {
        /// Description name.
        name: String,
    },
    /// Swap an element for one of a *different kind* (structural).
    RebuildElement {
        /// Description name.
        name: String,
    },
    /// Swap an element for a re-parameterised instance of the same
    /// kind — a hot `Capsule::replace`, not structural.
    ReplaceElement {
        /// Description name.
        name: String,
    },
    /// Destroy an element (structural; its edges die with it).
    RemoveElement {
        /// Description name.
        name: String,
    },
    /// Remove an edge (structural).
    Unbind {
        /// The edge.
        edge: EdgeDesc,
    },
    /// Add an edge (structural).
    Bind {
        /// The edge.
        edge: EdgeDesc,
    },
    /// Re-point the pipeline's ingress at this element.
    SetEntry {
        /// Description name.
        name: String,
    },
    /// Remove a match-action table entry (never structural).
    TableDel {
        /// Owning element.
        node: String,
        /// The entry.
        entry: TableEntry,
    },
    /// Install a match-action table entry (never structural).
    TablePut {
        /// Owning element.
        node: String,
        /// The entry.
        entry: TableEntry,
    },
    /// The control section changed — hosts re-query
    /// [`DescBinding::controller`](super::DescBinding::controller).
    SetControl,
    /// The steering pins changed — applied through the zero-loss
    /// migration path.
    SetSteering,
}

impl PatchOp {
    /// Whether this op mutates graph structure (and therefore needs a
    /// pipeline-wide quiesce window on the threaded driver).
    pub fn structural(&self) -> bool {
        matches!(
            self,
            PatchOp::AddElement { .. }
                | PatchOp::RebuildElement { .. }
                | PatchOp::RemoveElement { .. }
                | PatchOp::Unbind { .. }
                | PatchOp::Bind { .. }
        )
    }

    fn render(&self) -> String {
        match self {
            PatchOp::AddElement { name } => format!("add {name}"),
            PatchOp::RebuildElement { name } => format!("rebuild {name}"),
            PatchOp::ReplaceElement { name } => format!("replace {name}"),
            PatchOp::RemoveElement { name } => format!("remove {name}"),
            PatchOp::Unbind { edge } => format!("unbind {}", edge.render()),
            PatchOp::Bind { edge } => format!("bind {}", edge.render()),
            PatchOp::SetEntry { name } => format!("set-entry {name}"),
            PatchOp::TableDel { node, entry } => format!("table-del {node}: {}", entry.render()),
            PatchOp::TablePut { node, entry } => format!("table-put {node}: {}", entry.render()),
            PatchOp::SetControl => "set-control".to_owned(),
            PatchOp::SetSteering => "set-steering".to_owned(),
        }
    }
}

/// A deterministic mutation plan between two descriptions. Produced by
/// [`diff`], consumed by
/// [`DescBinding::apply_sharded`](super::DescBinding::apply_sharded).
#[derive(Clone, Debug, PartialEq)]
pub struct Patch {
    from: PipelineDesc,
    to: PipelineDesc,
    ops: Vec<PatchOp>,
    quiesce: bool,
}

impl Patch {
    /// The ops, in apply order.
    pub fn ops(&self) -> &[PatchOp] {
        &self.ops
    }

    /// The canonical description this patch starts from.
    pub fn from_desc(&self) -> &PipelineDesc {
        &self.from
    }

    /// The canonical description this patch produces.
    pub fn to_desc(&self) -> &PipelineDesc {
        &self.to
    }

    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Structural mutations in the plan.
    pub fn structural_ops(&self) -> usize {
        self.ops.iter().filter(|op| op.structural()).count()
    }

    /// True when the plan touches **zero structure** — hot element
    /// swaps, table upserts, and pipeline-level updates only. This is
    /// the property the reconfiguration bench prices: param-only
    /// patches apply without a pipeline-wide quiesce.
    pub fn param_only(&self) -> bool {
        self.structural_ops() == 0
    }

    /// Whether the threaded applier must park the workers: any
    /// structural op, or a hot swap of the ingress element itself
    /// (workers hold its push handle, so the swap and the handle
    /// update must be atomic).
    pub fn requires_quiesce(&self) -> bool {
        self.quiesce
    }

    /// Whether the steering pins changed.
    pub fn steering_changed(&self) -> bool {
        self.ops.contains(&PatchOp::SetSteering)
    }

    /// A stable textual rendering of the plan — what the golden-file
    /// tests snapshot.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "patch {} -> {} ({}, {} ops, {} structural)",
            self.from.name,
            self.to.name,
            if self.param_only() {
                "param-only"
            } else {
                "structural"
            },
            self.ops.len(),
            self.structural_ops(),
        );
        for op in &self.ops {
            let _ = writeln!(out, "  {}", op.render());
        }
        out
    }
}

/// Computes the minimal deterministic patch taking `old` to `new`.
///
/// Both descriptions are canonicalised first; callers are expected to
/// have validated them (the appliers re-validate the target against
/// their own external-kind set). Element identity is the description
/// *name*: renaming an element diffs as remove + add, same as any
/// config-diff system.
pub fn diff(old: &PipelineDesc, new: &PipelineDesc) -> Patch {
    let old = old.canonical();
    let new = new.canonical();
    let mut ops = Vec::new();

    // Element sets, by name.
    let mut added = BTreeSet::new();
    let mut rebuilt = BTreeSet::new();
    let mut replaced = BTreeSet::new();
    let mut removed = BTreeSet::new();
    for name in new.elements.keys() {
        if !old.elements.contains_key(name) {
            added.insert(name.clone());
        }
    }
    for (name, old_el) in &old.elements {
        match new.elements.get(name) {
            None => {
                removed.insert(name.clone());
            }
            Some(new_el) if new_el.kind != old_el.kind => {
                rebuilt.insert(name.clone());
            }
            Some(new_el) if new_el.params != old_el.params => {
                replaced.insert(name.clone());
            }
            Some(_) => {}
        }
    }
    for name in &added {
        ops.push(PatchOp::AddElement { name: name.clone() });
    }
    for name in &rebuilt {
        ops.push(PatchOp::RebuildElement { name: name.clone() });
    }
    for name in &replaced {
        ops.push(PatchOp::ReplaceElement { name: name.clone() });
    }

    // Edges. `destroy` drops edges touching removed elements, so the
    // diff only unbinds edges both of whose endpoints survive.
    let old_edges: BTreeSet<_> = old.edges.iter().cloned().collect();
    let new_edges: BTreeSet<_> = new.edges.iter().cloned().collect();
    for edge in old_edges.difference(&new_edges) {
        if removed.contains(&edge.from) || removed.contains(&edge.to) {
            continue;
        }
        ops.push(PatchOp::Unbind { edge: edge.clone() });
    }
    for name in &removed {
        ops.push(PatchOp::RemoveElement { name: name.clone() });
    }
    for edge in new_edges.difference(&old_edges) {
        ops.push(PatchOp::Bind { edge: edge.clone() });
    }

    // Ingress: re-pointed, or re-materialised under the workers.
    let entry_swapped = new.entry != old.entry
        || added.contains(&new.entry)
        || rebuilt.contains(&new.entry)
        || replaced.contains(&new.entry);
    if entry_swapped {
        ops.push(PatchOp::SetEntry {
            name: new.entry.clone(),
        });
    }

    // Tables. A replaced/rebuilt element is a fresh instance: all it
    // should hold is put (upserts after a hot swap, which carried its
    // table), nothing deleted (the old instance died with its entries).
    let empty = Vec::new();
    let fresh: BTreeSet<_> = added.union(&rebuilt).chain(&replaced).cloned().collect();
    let nodes: BTreeSet<_> = old.tables.keys().chain(new.tables.keys()).collect();
    let mut dels = Vec::new();
    let mut puts = Vec::new();
    for node in nodes {
        if removed.contains(node) {
            continue;
        }
        let new_entries: BTreeSet<_> = new.tables.get(node).unwrap_or(&empty).iter().collect();
        if fresh.contains(node) {
            for entry in new_entries {
                puts.push(PatchOp::TablePut {
                    node: node.clone(),
                    entry: entry.clone(),
                });
            }
            continue;
        }
        let old_entries: BTreeSet<_> = old.tables.get(node).unwrap_or(&empty).iter().collect();
        for entry in old_entries.difference(&new_entries) {
            dels.push(PatchOp::TableDel {
                node: node.clone(),
                entry: (*entry).clone(),
            });
        }
        for entry in new_entries.difference(&old_entries) {
            puts.push(PatchOp::TablePut {
                node: node.clone(),
                entry: (*entry).clone(),
            });
        }
    }
    ops.extend(dels);
    ops.extend(puts);

    if old.control != new.control {
        ops.push(PatchOp::SetControl);
    }
    if old.pins != new.pins {
        ops.push(PatchOp::SetSteering);
    }

    let quiesce =
        ops.iter().any(PatchOp::structural) || (entry_swapped && replaced.contains(&new.entry));
    Patch {
        from: old,
        to: new,
        ops,
        quiesce,
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ParamValue, PatternDesc};
    use super::*;

    fn base() -> PipelineDesc {
        PipelineDesc::new("t")
            .element("cls", "classifier")
            .element_with("ct", "conntrack", &[("capacity", 1024u64.into())])
            .element("sink", "discard")
            .ingress("cls")
            .edge_labelled("cls", "default", "sink")
            .edge_labelled("cls", "tracked", "ct")
            .edge("ct", "sink")
            .table(
                "cls",
                TableEntry::Filter {
                    pattern: PatternDesc::any().protocol(6),
                    output: "tracked".into(),
                    priority: 5,
                },
            )
    }

    #[test]
    fn identical_descriptions_diff_to_an_empty_patch() {
        let patch = diff(&base(), &base());
        assert!(patch.is_empty());
        assert!(patch.param_only());
        assert!(!patch.requires_quiesce());
    }

    #[test]
    fn a_param_change_is_one_hot_replace_and_nothing_else() {
        let next = base().set_param("ct", "capacity", ParamValue::Int(4096));
        let patch = diff(&base(), &next);
        assert_eq!(
            patch.ops(),
            &[PatchOp::ReplaceElement { name: "ct".into() }]
        );
        assert!(patch.param_only());
        assert_eq!(patch.structural_ops(), 0);
        assert!(!patch.requires_quiesce());
    }

    #[test]
    fn a_param_change_on_the_entry_quiesces_but_stays_param_only() {
        let with_entry_params = PipelineDesc::new("t")
            .element_with("ct", "conntrack", &[("capacity", 64u64.into())])
            .element("sink", "discard")
            .ingress("ct")
            .edge("ct", "sink");
        let next = with_entry_params
            .clone()
            .set_param("ct", "capacity", ParamValue::Int(128));
        let patch = diff(&with_entry_params, &next);
        assert!(patch.param_only());
        assert!(patch.requires_quiesce(), "workers hold the ingress handle");
        assert!(patch
            .ops()
            .contains(&PatchOp::SetEntry { name: "ct".into() }));
    }

    #[test]
    fn table_upserts_touch_no_structure() {
        let next = base().table(
            "cls",
            TableEntry::Filter {
                pattern: PatternDesc::any().protocol(17),
                output: "tracked".into(),
                priority: 4,
            },
        );
        let patch = diff(&base(), &next);
        assert_eq!(patch.ops().len(), 1);
        assert!(matches!(patch.ops()[0], PatchOp::TablePut { .. }));
        assert!(patch.param_only());
        assert!(!patch.requires_quiesce());
    }

    #[test]
    fn a_kind_change_is_structural() {
        let mut next = base();
        next.elements.get_mut("ct").unwrap().kind = "counter".into();
        next.elements.get_mut("ct").unwrap().params.clear();
        let patch = diff(&base(), &next);
        assert!(patch
            .ops()
            .contains(&PatchOp::RebuildElement { name: "ct".into() }));
        assert!(!patch.param_only());
        assert!(patch.requires_quiesce());
    }

    #[test]
    fn removal_drops_edges_implicitly() {
        let next = PipelineDesc::new("t")
            .element("cls", "classifier")
            .element("sink", "discard")
            .ingress("cls")
            .edge_labelled("cls", "default", "sink");
        let patch = diff(&base(), &next);
        // `ct` dies; its edges (cls[tracked]->ct, ct->sink) die with
        // it — no Unbind ops for them, and the filter routing to
        // `tracked` is deleted.
        assert!(patch
            .ops()
            .iter()
            .all(|op| !matches!(op, PatchOp::Unbind { .. })));
        assert!(patch
            .ops()
            .contains(&PatchOp::RemoveElement { name: "ct".into() }));
        assert!(patch
            .ops()
            .iter()
            .any(|op| matches!(op, PatchOp::TableDel { .. })));
    }

    #[test]
    fn diffs_are_deterministic_regardless_of_build_order() {
        let a = diff(
            &base(),
            &base().pin(3, 0).set_param("ct", "capacity", 9u64.into()),
        );
        let b = diff(
            &base(),
            &base().set_param("ct", "capacity", 9u64.into()).pin(3, 0),
        );
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn control_and_steering_changes_are_pipeline_level_ops() {
        let next = base()
            .control("hysteresis", &[("enter", 1.5.into())])
            .pin(7, 0);
        let patch = diff(&base(), &next);
        assert!(patch.ops.contains(&PatchOp::SetControl));
        assert!(patch.steering_changed());
        assert!(patch.param_only());
    }
}
