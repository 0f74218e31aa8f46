//! Property-based tests over the component model: random sequences of
//! bind / unbind / replace operations must keep the architecture
//! meta-model consistent with the components' receptacle state, never
//! leak components, and never panic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use opencom::capsule::Capsule;
use opencom::component::{Component, ComponentCore, ComponentDescriptor, Registrar};
use opencom::ident::{ComponentId, InterfaceId, Version};
use opencom::receptacle::Receptacle;
use opencom::runtime::Runtime;

const ISINK: InterfaceId = InterfaceId::new("prop.ISink");

trait ISink: Send + Sync {
    fn accept(&self, n: u64);
}

/// A node exporting ISink and holding a multi-receptacle of ISinks.
struct Node {
    core: ComponentCore,
    outs: Receptacle<dyn ISink>,
    seen: AtomicU64,
}

impl Node {
    fn make() -> Arc<Self> {
        Arc::new(Self {
            core: ComponentCore::new(ComponentDescriptor::new("prop.Node", Version::new(1, 0, 0))),
            outs: Receptacle::multi("out", ISINK),
            seen: AtomicU64::new(0),
        })
    }
}

impl ISink for Node {
    fn accept(&self, n: u64) {
        self.seen.fetch_add(n, Ordering::Relaxed);
        // Do not forward: keeps arbitrary graphs cycle-safe.
    }
}

impl Component for Node {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let me: Arc<dyn ISink> = self.clone();
        reg.expose(ISINK, &me);
        reg.receptacle(&self.outs);
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Bind { src: usize, dst: usize, label: u8 },
    UnbindNth { idx: usize },
    Replace { victim: usize },
    Call { via: usize },
}

fn op_strategy(nodes: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..nodes, 0..nodes, any::<u8>()).prop_map(|(src, dst, label)| Op::Bind {
            src,
            dst,
            label
        }),
        (0..64usize).prop_map(|idx| Op::UnbindNth { idx }),
        (0..nodes).prop_map(|victim| Op::Replace { victim }),
        (0..nodes).prop_map(|via| Op::Call { via }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_reconfiguration_keeps_the_meta_model_consistent(
        n_nodes in 2usize..6,
        ops in proptest::collection::vec(op_strategy(5), 1..40),
    ) {
        let rt = Runtime::new();
        let capsule = Capsule::new("prop", &rt);
        let mut ids: Vec<ComponentId> = Vec::new();
        for _ in 0..n_nodes {
            ids.push(capsule.adopt(Node::make()).unwrap());
        }

        for op in ops {
            match op {
                Op::Bind { src, dst, label } => {
                    let (src, dst) = (ids[src % ids.len()], ids[dst % ids.len()]);
                    // Self-binds and duplicate labels may legitimately
                    // fail; the property is no-panic + consistency.
                    let _ = capsule.bind(src, "out", &format!("l{label}"), dst, ISINK);
                }
                Op::UnbindNth { idx } => {
                    let records = capsule.arch().binding_records();
                    if !records.is_empty() {
                        let _ = capsule.unbind(records[idx % records.len()].id);
                    }
                }
                Op::Replace { victim } => {
                    let old = ids[victim % ids.len()];
                    let fresh = capsule.adopt(Node::make()).unwrap();
                    match capsule.replace(old, fresh) {
                        Ok(()) => {
                            for id in ids.iter_mut() {
                                if *id == old {
                                    *id = fresh;
                                }
                            }
                        }
                        Err(_) => {
                            // Roll the unused replacement back out.
                            let _ = capsule.destroy(fresh);
                        }
                    }
                }
                Op::Call { via } => {
                    let id = ids[via % ids.len()];
                    if let Ok(iref) = capsule.query_interface(id, ISINK) {
                        if let Some(sink) = iref.downcast::<dyn ISink>() {
                            sink.accept(1);
                        }
                    }
                }
            }

            // Invariant 1: the meta-model's binding records agree with
            // the components' outgoing binding tables.
            let records = capsule.arch().binding_records();
            let mut from_components = 0usize;
            for &id in &ids {
                let comp = capsule.component(id).unwrap();
                from_components += comp.core().outgoing_bindings().len();
            }
            prop_assert_eq!(records.len(), from_components);

            // Invariant 2: every record's endpoints exist.
            for rec in &records {
                prop_assert!(capsule.component(rec.src).is_ok());
                prop_assert!(capsule.component(rec.dst).is_ok());
            }

            // Invariant 3: the live component set is exactly `ids`.
            let mut live = ids.clone();
            live.sort();
            prop_assert_eq!(capsule.arch().component_ids(), live);
        }

        // Every live component still answers query_interface.
        for &id in &ids {
            prop_assert!(capsule.query_interface(id, ISINK).is_ok());
        }
    }

    #[test]
    fn footprint_is_monotonic_in_graph_size(extra in 1usize..16) {
        let rt = Runtime::new();
        let capsule = Capsule::new("fp", &rt);
        let mut last = capsule.footprint_bytes();
        for _ in 0..extra {
            capsule.adopt(Node::make()).unwrap();
            let now = capsule.footprint_bytes();
            prop_assert!(now > last, "adding a component must grow the estimate");
            last = now;
        }
    }
}
