//! Lowering descriptions to live pipelines, and applying patches to
//! the result.
//!
//! [`Compiler`] drives one factory path whichever executor runs the
//! pipeline: for each shard it builds a fresh capsule, adopts one
//! element per description node (through the [`schema`](super::schema)
//! constructors, or a host-supplied *external* builder), binds the
//! described edges, installs the match-action tables, and hands the
//! [`ShardGraph`] recipe to [`ShardedPipeline::build_with_sketches`] —
//! with the shard's metered sketch, so a described
//! [`Guard`](crate::flow::Guard) reads the bytes its shard's handler
//! records. The per-shard object map it accumulates — name →
//! [`ComponentId`], table entry → live id — is returned as a
//! [`DescBinding`], which is what makes *incremental*
//! reconfiguration possible: a later [`Patch`](super::Patch) is a list
//! of named mutations, and the binding resolves each name to the live
//! object it addresses.
//!
//! The patch applier is where the zero-loss contract lives:
//!
//! * **Param-only patches** ([`Patch::param_only`]) mutate no
//!   structure. Element re-parameterisations run as hot
//!   [`Capsule::replace`] swaps under per-edge quiescence, and table
//!   upserts go through the elements' own lock-protected control
//!   interfaces. The pipeline-wide epoch counter does not move — the
//!   reconfiguration benchmark asserts exactly that.
//! * **Structural patches** (adds, removes, rewires) run inside one
//!   [`ShardedPipeline::quiesce`] window: every worker parks at a
//!   batch boundary, the graph mutates, one epoch is paid, and no
//!   packet observes a half-rewired graph. (On the inline executor the
//!   caller is already at a batch boundary; the window costs nothing
//!   and the epoch is still counted, so receipts read the same.)

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use opencom::capsule::{Capsule, Quiescence};
use opencom::component::Component;
use opencom::error::{Error, Result};
use opencom::ident::{BindingId, ComponentId};
use opencom::meta::resources::ResourceManager;
use opencom::runtime::Runtime;

use netkit_kernel::shard::{InlinePool, ShardExecutor, ShardJob, ShardSpec};
use netkit_packet::sketch::FlowSketch;

use crate::api::{
    register_packet_interfaces, FilterId, FilterSpec, IClassifier, IPacketPush, IPACKET_PUSH,
};
use crate::elements::IRouteControl;
use crate::flow::L4LoadBalancer;
use crate::routing::RouteEntry;
use crate::shard::{fresh_sketches, RebalanceController, ShardGraph, ShardedPipeline};

use super::schema;
use super::{EdgeDesc, Patch, PatchOp, PipelineDesc, TableEntry};

/// The live control surface of one compiled element — how the patch
/// applier addresses its match-action table.
#[derive(Clone)]
pub enum ElementHandle {
    /// No table surface.
    Plain,
    /// A classifier's filter table.
    Classifier(Arc<dyn IClassifier>),
    /// A routing element's prefix table.
    Route(Arc<dyn IRouteControl>),
    /// A load balancer's backend set.
    Lb(Arc<L4LoadBalancer>),
}

impl std::fmt::Debug for ElementHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ElementHandle::Plain => "Plain",
            ElementHandle::Classifier(_) => "Classifier",
            ElementHandle::Route(_) => "Route",
            ElementHandle::Lb(_) => "Lb",
        };
        write!(f, "ElementHandle::{name}")
    }
}

/// A host-supplied element builder for a kind the schema registry does
/// not know (e.g. the simulator's egress collector).
pub type ExternalBuild = dyn Fn(usize) -> (Arc<dyn Component>, ElementHandle) + Send + Sync;

/// One shard's compiled object graph: every description name resolved
/// to the live object it produced.
pub struct CompiledShard {
    capsule: Arc<Capsule>,
    ids: BTreeMap<String, ComponentId>,
    handles: BTreeMap<String, ElementHandle>,
    bindings: BTreeMap<EdgeDesc, BindingId>,
    filters: BTreeMap<(String, TableEntry), FilterId>,
    backends: BTreeMap<(String, TableEntry), u32>,
    sketch: Arc<FlowSketch>,
    _rt: Arc<Runtime>,
}

impl std::fmt::Debug for CompiledShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CompiledShard({} elements, {} edges)",
            self.ids.len(),
            self.bindings.len()
        )
    }
}

fn push_of(capsule: &Arc<Capsule>, id: ComponentId) -> Result<Arc<dyn IPacketPush>> {
    capsule
        .query_interface(id, IPACKET_PUSH)?
        .downcast::<dyn IPacketPush>()
        .ok_or_else(|| Error::StaleReference {
            what: "IPacketPush on a compiled element".to_owned(),
        })
}

fn stale(what: String) -> Error {
    Error::StaleReference { what }
}

impl CompiledShard {
    /// Builds one shard's graph from a canonical, validated
    /// description.
    fn build(
        desc: &PipelineDesc,
        shard: usize,
        sketch: Arc<FlowSketch>,
        externals: &BTreeMap<String, Arc<ExternalBuild>>,
    ) -> Result<(ShardGraph, CompiledShard)> {
        let rt = Runtime::new();
        register_packet_interfaces(&rt);
        let capsule = Capsule::new(format!("{}#{shard}", desc.name), &rt);

        let mut ids = BTreeMap::new();
        let mut handles = BTreeMap::new();
        for (name, el) in &desc.elements {
            let (comp, handle) = match externals.get(&el.kind) {
                Some(build) => build(shard),
                None => schema::construct(&el.kind, &el.params, &sketch)?,
            };
            let id = capsule.adopt(comp)?;
            ids.insert(name.clone(), id);
            handles.insert(name.clone(), handle);
        }

        let mut bindings = BTreeMap::new();
        for edge in &desc.edges {
            let bid = capsule.bind(
                ids[&edge.from],
                "out",
                &edge.label,
                ids[&edge.to],
                IPACKET_PUSH,
            )?;
            bindings.insert(edge.clone(), bid);
        }

        let mut compiled = CompiledShard {
            capsule: Arc::clone(&capsule),
            ids,
            handles,
            bindings,
            filters: BTreeMap::new(),
            backends: BTreeMap::new(),
            sketch,
            _rt: rt,
        };
        // Tables install after edges: a classifier validates that the
        // filter's output label is bound before accepting the filter.
        for (node, entries) in &desc.tables {
            for entry in entries {
                compiled.table_put(node, entry)?;
            }
        }

        let entry = push_of(&capsule, compiled.ids[&desc.entry])?;
        let graph = ShardGraph::new(capsule, entry)
            .with_components(compiled.ids.values().copied().collect());
        Ok((graph, compiled))
    }

    /// The shard's capsule (introspection / escape hatch).
    pub fn capsule(&self) -> &Arc<Capsule> {
        &self.capsule
    }

    /// The live control handle a description name compiled to — the
    /// same surface the patch applier drives table ops through, so a
    /// host can introspect (say) a balancer's backend counters
    /// without keeping its own element references.
    pub fn handle_of(&self, name: &str) -> Option<&ElementHandle> {
        self.handles.get(name)
    }

    fn table_put(&mut self, node: &str, entry: &TableEntry) -> Result<()> {
        let handle = self
            .handles
            .get(node)
            .ok_or_else(|| stale(format!("element `{node}`")))?
            .clone();
        match (handle, entry) {
            (
                ElementHandle::Classifier(cls),
                TableEntry::Filter {
                    pattern,
                    output,
                    priority,
                },
            ) => {
                let id =
                    cls.register_filter(FilterSpec::new(pattern.to_pattern()?, output, *priority))?;
                self.filters.insert((node.to_owned(), entry.clone()), id);
            }
            (ElementHandle::Route(routes), TableEntry::Route { prefix, egress }) => {
                routes.add_route(
                    prefix,
                    RouteEntry {
                        egress: *egress,
                        next_hop: None,
                    },
                )?;
            }
            (ElementHandle::Lb(lb), TableEntry::Backend { ip, port }) => {
                let addr = ip
                    .parse()
                    .map_err(|_| stale(format!("backend address `{ip}`")))?;
                let id = lb.add_backend(addr, *port);
                self.backends.insert((node.to_owned(), entry.clone()), id);
            }
            (_, entry) => {
                return Err(stale(format!(
                    "element `{node}` takes no {} entries",
                    entry.kind().name()
                )));
            }
        }
        Ok(())
    }

    fn table_del(&mut self, node: &str, entry: &TableEntry) -> Result<()> {
        let handle = self
            .handles
            .get(node)
            .ok_or_else(|| stale(format!("element `{node}`")))?
            .clone();
        match (handle, entry) {
            (ElementHandle::Classifier(cls), TableEntry::Filter { .. }) => {
                let key = (node.to_owned(), entry.clone());
                let id = self
                    .filters
                    .remove(&key)
                    .ok_or_else(|| stale(format!("filter on `{node}`")))?;
                cls.remove_filter(id)?;
            }
            (ElementHandle::Route(routes), TableEntry::Route { prefix, .. }) => {
                routes.remove_route(prefix)?;
            }
            (ElementHandle::Lb(lb), TableEntry::Backend { .. }) => {
                let key = (node.to_owned(), entry.clone());
                let id = self
                    .backends
                    .remove(&key)
                    .ok_or_else(|| stale(format!("backend on `{node}`")))?;
                lb.remove_backend(id);
            }
            (_, entry) => {
                return Err(stale(format!(
                    "element `{node}` takes no {} entries",
                    entry.kind().name()
                )));
            }
        }
        Ok(())
    }

    /// Drops the table bookkeeping for `node` — called when a replace
    /// produced a fresh instance whose tables start empty.
    fn purge_tables(&mut self, node: &str) {
        self.filters.retain(|(n, _), _| n != node);
        self.backends.retain(|(n, _), _| n != node);
    }
}

/// Builds pipelines from descriptions. Hosts with element kinds of
/// their own (the simulator's egress collector, a bench's instrumented
/// sink) register them with [`Compiler::external`] before building.
#[derive(Default)]
pub struct Compiler {
    externals: BTreeMap<String, Arc<ExternalBuild>>,
}

impl std::fmt::Debug for Compiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Compiler({} externals)", self.externals.len())
    }
}

impl Compiler {
    /// A compiler with only the built-in schema kinds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an external element kind (builder-style): `build`
    /// is called once per shard and returns the component plus its
    /// table handle (almost always [`ElementHandle::Plain`]).
    /// External kinds are treated as single-output, parameter-less
    /// sinks or passthroughs by the validator.
    pub fn external(
        mut self,
        kind: &str,
        build: impl Fn(usize) -> (Arc<dyn Component>, ElementHandle) + Send + Sync + 'static,
    ) -> Self {
        self.externals.insert(kind.to_owned(), Arc::new(build));
        self
    }

    fn external_kinds(&self) -> BTreeSet<String> {
        self.externals.keys().cloned().collect()
    }

    /// Compiles `desc` to a threaded [`ShardedPipeline`], returning
    /// the pipeline and the [`DescBinding`] that can patch it later.
    ///
    /// # Errors
    ///
    /// Propagates validation and graph-construction failures.
    pub fn build_sharded(
        &self,
        desc: &PipelineDesc,
        spec: ShardSpec,
        rm: Arc<ResourceManager>,
    ) -> Result<(ShardedPipeline, DescBinding)> {
        self.build_on(desc, spec, rm)
    }

    /// Compiles `desc` to the same pipeline on the deterministic
    /// inline executor (shards run on the caller, in index order) —
    /// what the simulator and single-threaded hosts drive.
    ///
    /// # Errors
    ///
    /// See [`Self::build_sharded`].
    pub fn build_inline(
        &self,
        desc: &PipelineDesc,
        spec: ShardSpec,
        rm: Arc<ResourceManager>,
    ) -> Result<(ShardedPipeline<InlinePool>, DescBinding)> {
        self.build_on(desc, spec, rm)
    }

    fn build_on<E: ShardExecutor<ShardJob>>(
        &self,
        desc: &PipelineDesc,
        spec: ShardSpec,
        rm: Arc<ResourceManager>,
    ) -> Result<(ShardedPipeline<E>, DescBinding)> {
        let desc = desc.canonical();
        desc.validate_with(&self.external_kinds())?;
        let workers = spec.workers.max(1);
        let shards: Arc<Mutex<Vec<Option<CompiledShard>>>> =
            Arc::new(Mutex::new((0..workers).map(|_| None).collect()));
        let slot = Arc::clone(&shards);
        let build_desc = desc.clone();
        let externals = self.externals.clone();
        let sketches = fresh_sketches(spec);
        let guard_sketches = sketches.clone();
        let pipe =
            ShardedPipeline::build_with_sketches(&desc.name, spec, rm, sketches, move |shard| {
                let sketch = Arc::clone(&guard_sketches[shard]);
                let (graph, compiled) =
                    CompiledShard::build(&build_desc, shard, sketch, &externals)?;
                slot.lock().expect("desc shard slot")[shard] = Some(compiled);
                Ok(graph)
            })?;
        let pins: Vec<(usize, usize)> = desc.pins.iter().map(|(&b, &s)| (b, s)).collect();
        if !pins.is_empty() {
            let map = pinned_map(pipe.bucket_map(), &pins, workers)?;
            pipe.install_bucket_map(map, &[]);
        }
        Ok((
            pipe,
            DescBinding {
                desc,
                externals: self.externals.clone(),
                shards,
            },
        ))
    }
}

fn pinned_map(
    base: netkit_packet::steer::BucketMap,
    pins: &[(usize, usize)],
    workers: usize,
) -> Result<netkit_packet::steer::BucketMap> {
    for &(bucket, shard) in pins {
        if shard >= workers {
            return Err(Error::CfViolation {
                framework: "desc".to_owned(),
                rule: format!("pin bucket {bucket} -> shard {shard}: only {workers} shards"),
            });
        }
    }
    Ok(base.with_pins(pins))
}

/// What applying a patch actually did — the receipts the benchmarks
/// and differential tests assert over.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApplyReport {
    /// Structural mutations executed per shard (adds, removes,
    /// rebinds, kind rebuilds).
    pub structural: usize,
    /// Hot param-only [`Capsule::replace`] swaps per shard.
    pub replaced: usize,
    /// Table upserts / deletions per shard.
    pub table_ops: usize,
    /// Ingress handle swaps across all shards.
    pub entry_swaps: usize,
    /// Buckets moved by a steering update.
    pub moved_buckets: usize,
    /// Pipeline-wide quiesce epochs consumed (0 for param-only
    /// patches that leave the ingress element alone; a steering change
    /// adds its migration's epoch).
    pub epochs: u64,
    /// Shards whose object graph was touched.
    pub shards_touched: usize,
}

/// The link between a description and the live pipeline it compiled
/// to: apply patches through it, or introspect what each name became.
pub struct DescBinding {
    desc: PipelineDesc,
    externals: BTreeMap<String, Arc<ExternalBuild>>,
    shards: Arc<Mutex<Vec<Option<CompiledShard>>>>,
}

impl std::fmt::Debug for DescBinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DescBinding({})", self.desc.name)
    }
}

impl DescBinding {
    /// The description the live pipeline currently implements
    /// (canonical form).
    pub fn desc(&self) -> &PipelineDesc {
        &self.desc
    }

    /// Computes the patch that would take this binding to `next` —
    /// convenience over [`diff`](super::diff()).
    ///
    /// # Errors
    ///
    /// Propagates validation failures on `next`.
    pub fn diff_to(&self, next: &PipelineDesc) -> Result<Patch> {
        next.validate_with(&self.externals.keys().cloned().collect())?;
        Ok(super::diff(&self.desc, next))
    }

    /// The controller the description's control section selects, if
    /// any. Hosts re-query this after applying a patch whose diff
    /// included a control change.
    ///
    /// # Errors
    ///
    /// Propagates unknown core names (pre-validated descriptions
    /// cannot hit this).
    pub fn controller(&self) -> Result<Option<RebalanceController>> {
        self.desc
            .control
            .as_ref()
            .map(schema::compile_control)
            .transpose()
    }

    /// Runs `f` over one compiled shard's object map (introspection
    /// for tests and tooling).
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&CompiledShard) -> R) -> Option<R> {
        let shards = self.shards.lock().expect("desc shard slot");
        shards.get(shard).and_then(Option::as_ref).map(f)
    }

    fn check_patch(&self, patch: &Patch) -> Result<()> {
        if patch.from_desc().render() != self.desc.render() {
            return Err(stale(
                "patch base does not match the binding's current description".to_owned(),
            ));
        }
        patch
            .to_desc()
            .validate_with(&self.externals.keys().cloned().collect())
    }

    /// Applies `patch` to the pipeline built from this binding, on
    /// either executor.
    ///
    /// Param-only patches run hot — no pipeline-wide quiesce, zero
    /// epochs. Structural patches (and param swaps of the ingress
    /// element, whose handle the workers hold) run inside exactly one
    /// quiesce window. Steering changes ride the existing zero-loss
    /// migration path and report their own epoch.
    ///
    /// # Errors
    ///
    /// Fails if the patch's base does not match this binding, or if a
    /// mutation fails mid-apply — in that case the binding is stale
    /// and the pipeline should be rebuilt from a fresh description.
    pub fn apply_sharded<E: ShardExecutor<ShardJob>>(
        &mut self,
        pipe: &ShardedPipeline<E>,
        patch: &Patch,
    ) -> Result<ApplyReport> {
        self.check_patch(patch)?;
        let epoch_before = pipe.epoch();
        let mut report = ApplyReport::default();
        if patch.requires_quiesce() {
            pipe.quiesce(|| -> Result<()> {
                let swaps = self.apply_ops(patch, &mut report)?;
                for (shard, entry) in swaps {
                    pipe.set_entry(shard, entry);
                    report.entry_swaps += 1;
                }
                Ok(())
            })?;
        } else {
            let swaps = self.apply_ops(patch, &mut report)?;
            for (shard, entry) in swaps {
                pipe.set_entry(shard, entry);
                report.entry_swaps += 1;
            }
        }
        if patch.steering_changed() {
            let workers = pipe.spec().workers.max(1);
            let pins: Vec<(usize, usize)> =
                patch.to_desc().pins.iter().map(|(&b, &s)| (b, s)).collect();
            let map = pinned_map(pipe.bucket_map(), &pins, workers)?;
            let migration = pipe.install_bucket_map(map, &[]);
            report.moved_buckets = migration.moved_buckets;
        }
        self.desc = patch.to_desc().clone();
        report.epochs = pipe.epoch() - epoch_before;
        Ok(report)
    }

    /// Executes the patch's element/table ops on every compiled shard
    /// and returns the pending ingress swaps.
    fn apply_ops(
        &mut self,
        patch: &Patch,
        report: &mut ApplyReport,
    ) -> Result<Vec<(usize, Arc<dyn IPacketPush>)>> {
        let to = patch.to_desc();
        let mut swaps = Vec::new();
        let mut shards = self.shards.lock().expect("desc shard slot");
        let mut touched = false;
        for (shard, compiled) in shards.iter_mut().enumerate() {
            let Some(cs) = compiled.as_mut() else {
                continue;
            };
            for op in patch.ops() {
                match op {
                    PatchOp::AddElement { name } => {
                        let el = &to.elements[name];
                        let (comp, handle) = match self.externals.get(&el.kind) {
                            Some(build) => build(shard),
                            None => schema::construct(&el.kind, &el.params, &cs.sketch)?,
                        };
                        let id = cs.capsule.adopt(comp)?;
                        cs.ids.insert(name.clone(), id);
                        cs.handles.insert(name.clone(), handle);
                        report.structural += 1;
                        touched = true;
                    }
                    PatchOp::ReplaceElement { name } | PatchOp::RebuildElement { name } => {
                        let el = &to.elements[name];
                        let (comp, handle) = match self.externals.get(&el.kind) {
                            Some(build) => build(shard),
                            None => schema::construct(&el.kind, &el.params, &cs.sketch)?,
                        };
                        let new_id = cs.capsule.adopt(comp)?;
                        let old_id = *cs
                            .ids
                            .get(name)
                            .ok_or_else(|| stale(format!("element `{name}`")))?;
                        // Per-edge quiescence: each edge drains its
                        // in-flight call and rewires; binding ids (and
                        // interceptor chains) survive the swap.
                        cs.capsule.replace(old_id, new_id, Quiescence::PerEdge)?;
                        cs.ids.insert(name.clone(), new_id);
                        cs.handles.insert(name.clone(), handle);
                        cs.purge_tables(name);
                        if matches!(op, PatchOp::ReplaceElement { .. }) {
                            report.replaced += 1;
                        } else {
                            report.structural += 1;
                        }
                        touched = true;
                    }
                    PatchOp::RemoveElement { name } => {
                        let id = cs
                            .ids
                            .remove(name)
                            .ok_or_else(|| stale(format!("element `{name}`")))?;
                        cs.capsule.destroy(id)?;
                        cs.handles.remove(name);
                        cs.bindings
                            .retain(|edge, _| edge.from != *name && edge.to != *name);
                        cs.purge_tables(name);
                        report.structural += 1;
                        touched = true;
                    }
                    PatchOp::Bind { edge } => {
                        let from = *cs
                            .ids
                            .get(&edge.from)
                            .ok_or_else(|| stale(format!("element `{}`", edge.from)))?;
                        let dst = *cs
                            .ids
                            .get(&edge.to)
                            .ok_or_else(|| stale(format!("element `{}`", edge.to)))?;
                        let bid = cs
                            .capsule
                            .bind(from, "out", &edge.label, dst, IPACKET_PUSH)?;
                        cs.bindings.insert(edge.clone(), bid);
                        report.structural += 1;
                        touched = true;
                    }
                    PatchOp::Unbind { edge } => {
                        let bid = cs
                            .bindings
                            .remove(edge)
                            .ok_or_else(|| stale(format!("edge `{} -> {}`", edge.from, edge.to)))?;
                        cs.capsule.unbind(bid)?;
                        report.structural += 1;
                        touched = true;
                    }
                    PatchOp::SetEntry { name } => {
                        let id = *cs
                            .ids
                            .get(name)
                            .ok_or_else(|| stale(format!("element `{name}`")))?;
                        swaps.push((shard, push_of(&cs.capsule, id)?));
                        touched = true;
                    }
                    PatchOp::TableDel { node, entry } => {
                        cs.table_del(node, entry)?;
                        report.table_ops += 1;
                        touched = true;
                    }
                    PatchOp::TablePut { node, entry } => {
                        cs.table_put(node, entry)?;
                        report.table_ops += 1;
                        touched = true;
                    }
                    // Pipeline-level ops: handled by `apply_sharded`.
                    PatchOp::SetControl | PatchOp::SetSteering => {}
                }
            }
            if touched {
                report.shards_touched += 1;
                touched = false;
            }
        }
        Ok(swaps)
    }
}
