//! Lowering descriptions to live pipelines, and applying patches to
//! the result — one materialiser for both.
//!
//! A [`Patch`](super::Patch) is a list of named mutations, and one
//! per-shard executor (`CompiledShard::apply`) runs it: it constructs
//! elements (through the [`schema`](super::schema) constructors, or a
//! host-supplied *external* builder), adopts, hot-swaps and destroys
//! them, binds and unbinds the described edges, and hands table
//! entries to each element's own [`ITable`], keeping only the object
//! map (name → [`ComponentId`]) the next patch addresses it by. **A
//! build is the patch from nothing**:
//! [`Compiler`] hands each shard an empty capsule and runs
//! `diff(∅, desc)` through that same executor, so a built pipeline and
//! a patched one cannot disagree about adoption order, bind order or
//! when tables install.
//!
//! The [`DescBinding`] a build returns owns the one **live
//! description**: the description in force and the per-shard object
//! maps sit behind one lock, shared with the replica factory the
//! [`ShardedPipeline`] keeps for crash recovery, and
//! [`DescBinding::apply_sharded`] is the only writer. A replica
//! respawned after any number of patches is therefore materialised
//! from the description those patches produced, with the shard's
//! metered sketch (a described [`Guard`](crate::flow::Guard) reads the
//! bytes its shard's handler records).
//!
//! The patch applier is where the zero-loss contract lives:
//!
//! * **Param-only patches** ([`Patch::param_only`]) mutate no
//!   structure. Element re-parameterisations run as hot
//!   [`Capsule::replace`] swaps under per-edge quiescence, and table
//!   upserts go through the elements' own lock-protected [`ITable`]s.
//!   A hot swap carries its table: the fresh instance is filled before
//!   `replace` points traffic at it (the plan's re-puts are upserts),
//!   so no packet meets an empty table. The pipeline-wide epoch counter
//!   does not move — the ledger's `edge_reconfig` workload asserts it.
//! * **Structural patches** (adds, removes, rewires) run inside one
//!   [`ShardedPipeline::quiesce`] window: every worker parks at a
//!   batch boundary, the graph mutates, one epoch is paid, and no
//!   packet observes a half-rewired graph. (On caller-run shards the
//!   caller is already at a batch boundary; the window costs nothing
//!   and the epoch is still counted, so receipts read the same.)
//!
//! Either kind that changed a shard's component set ends with
//! [`ShardedPipeline::sync_replicas`], so the resources task lists what
//! the capsules hold.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use opencom::capsule::{Capsule, Quiescence};
use opencom::component::Component;
use opencom::error::{Error, Result};
use opencom::ident::ComponentId;
use opencom::meta::resources::ResourceManager;
use opencom::runtime::Runtime;

use netkit_kernel::shard::ShardSpec;
use netkit_packet::sketch::FlowSketch;

use crate::api::{register_packet_interfaces, IPacketPush, ITable, IPACKET_PUSH, ITABLE};
use crate::shard::{fresh_sketches, RebalanceController, ShardGraph, ShardedPipeline};

use super::schema;
use super::{Patch, PatchOp, PipelineDesc};

/// What an external builder returns beside its component. Tables are
/// reached through the element's own [`ITable`], so this says nothing:
/// it stays only because the ledger's rig (`benchmark/src/rig.rs`)
/// names it, and goes with the rig change in ROADMAP A7b.
#[derive(Clone, Copy, Debug)]
pub enum ElementHandle {
    /// No table surface.
    Plain,
}

/// A host-supplied element builder for a kind the schema registry does
/// not know (e.g. the simulator's egress collector).
pub type ExternalBuild = dyn Fn(usize) -> (Arc<dyn Component>, ElementHandle) + Send + Sync;

/// One shard's compiled object graph: every description name resolved
/// to the live object it produced.
pub struct CompiledShard {
    shard: usize,
    capsule: Arc<Capsule>,
    elements: BTreeMap<String, ComponentId>,
    sketch: Arc<FlowSketch>,
    _rt: Arc<Runtime>,
}

impl std::fmt::Debug for CompiledShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CompiledShard({} elements, {} edges)",
            self.elements.len(),
            self.capsule.arch().binding_count()
        )
    }
}

fn stale(what: String) -> Error {
    Error::StaleReference { what }
}

impl CompiledShard {
    /// Builds one shard's graph from a canonical, validated
    /// description: an empty capsule, then the patch from nothing.
    fn build(
        desc: &PipelineDesc,
        shard: usize,
        sketch: Arc<FlowSketch>,
        externals: &BTreeMap<String, Arc<ExternalBuild>>,
    ) -> Result<(ShardGraph, CompiledShard)> {
        let rt = Runtime::new();
        register_packet_interfaces(&rt);
        let mut compiled = CompiledShard {
            shard,
            capsule: Capsule::new(format!("{}#{shard}", desc.name), &rt),
            elements: BTreeMap::new(),
            sketch,
            _rt: rt,
        };
        let plan = super::diff(&PipelineDesc::new(&desc.name), desc);
        let entry = compiled
            .apply(&plan, externals, &mut ApplyReport::default())?
            .ok_or_else(|| stale(format!("ingress of `{}`", desc.name)))?;
        Ok((
            ShardGraph::new(Arc::clone(&compiled.capsule), entry),
            compiled,
        ))
    }

    /// The shard's capsule (introspection / escape hatch).
    pub fn capsule(&self) -> &Arc<Capsule> {
        &self.capsule
    }

    /// The live component a description name compiled to — with
    /// [`Self::capsule`]'s meta-models, enough to read the whole object
    /// map back (kinds and edges from the architecture, tables and
    /// controls through the interfaces each element exports, e.g.
    /// `cs.capsule().query_interface(cs.id_of(name)?, ICLASSIFIER)`)
    /// without a second record.
    pub fn id_of(&self, name: &str) -> Option<ComponentId> {
        self.elements.get(name).copied()
    }

    /// Executes `patch`'s element, edge and table ops on this shard, in
    /// plan order (the diff orders them so one forward pass is legal),
    /// and returns the ingress handle if the plan (re)pointed it. The
    /// pipeline-level ops (`SetControl`, `SetSteering`) are
    /// [`DescBinding::apply_sharded`]'s.
    fn apply(
        &mut self,
        patch: &Patch,
        externals: &BTreeMap<String, Arc<ExternalBuild>>,
        report: &mut ApplyReport,
    ) -> Result<Option<Arc<dyn IPacketPush>>> {
        let mut entry = None;
        for op in patch.ops() {
            match op {
                PatchOp::AddElement { name }
                | PatchOp::ReplaceElement { name }
                | PatchOp::RebuildElement { name } => {
                    let old = match op {
                        PatchOp::AddElement { .. } => None,
                        _ => Some(self.resolve(name)?),
                    };
                    let el = &patch.to_desc().elements[name];
                    let comp = match externals.get(&el.kind) {
                        Some(build) => build(self.shard).0,
                        None => schema::construct(&el.kind, &el.params, &self.sketch)?,
                    };
                    let id = self.capsule.adopt(comp)?;
                    let hot = matches!(op, PatchOp::ReplaceElement { .. });
                    if hot {
                        // A hot swap carries its table: the fresh
                        // instance is filled before traffic can reach
                        // it. (Adds and rebuilds run inside the quiesce;
                        // their entries come later in the plan, after
                        // the edges a classifier's filters name.)
                        for entry in patch.to_desc().tables.get(name).into_iter().flatten() {
                            self.table(id)?.put(entry)?;
                        }
                    }
                    if let Some(old) = old {
                        // Per-edge quiescence: each edge drains its
                        // in-flight call and rewires; binding ids (and
                        // interceptor chains) survive the swap.
                        self.capsule.replace(old, id, Quiescence::PerEdge)?;
                    }
                    self.elements.insert(name.clone(), id);
                    if hot {
                        report.replaced += 1;
                    } else {
                        report.structural += 1;
                    }
                }
                PatchOp::RemoveElement { name } => {
                    self.capsule.destroy(self.resolve(name)?)?;
                    self.elements.remove(name);
                    report.structural += 1;
                }
                PatchOp::Bind { edge } => {
                    self.capsule.bind(
                        self.resolve(&edge.from)?,
                        "out",
                        &edge.label,
                        self.resolve(&edge.to)?,
                        IPACKET_PUSH,
                    )?;
                    report.structural += 1;
                }
                PatchOp::Unbind { edge } => {
                    // The capsule's own record of the edge names its id.
                    let (src, dst) = (self.resolve(&edge.from)?, self.resolve(&edge.to)?);
                    let mut bound = self.capsule.arch().bindings_of(src).into_iter();
                    let record = bound
                        .find(|b| b.src == src && b.dst == dst && b.label == edge.label)
                        .ok_or_else(|| stale(format!("edge `{} -> {}`", edge.from, edge.to)))?;
                    self.capsule.unbind(record.id)?;
                    report.structural += 1;
                }
                PatchOp::SetEntry { name } => {
                    let id = self.resolve(name)?;
                    let push = self.capsule.query_interface(id, IPACKET_PUSH)?.downcast();
                    entry = Some(push.ok_or_else(|| stale(format!("ingress `{name}`")))?);
                }
                PatchOp::TableDel { node, entry } => {
                    self.table(self.resolve(node)?)?.del(entry)?;
                    report.table_ops += 1;
                }
                PatchOp::TablePut { node, entry } => {
                    self.table(self.resolve(node)?)?.put(entry)?;
                    report.table_ops += 1;
                }
                PatchOp::SetControl | PatchOp::SetSteering => {}
            }
        }
        Ok(entry)
    }

    fn resolve(&self, name: &str) -> Result<ComponentId> {
        self.id_of(name)
            .ok_or_else(|| stale(format!("element `{name}`")))
    }

    /// The element's table, through the interface meta-model.
    fn table(&self, id: ComponentId) -> Result<Arc<dyn ITable>> {
        let table = self.capsule.query_interface(id, ITABLE)?.downcast();
        table.ok_or_else(|| stale(format!("the table of {id}")))
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
    /// is called once per shard and returns the component plus
    /// [`ElementHandle::Plain`].
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

    /// Compiles `desc` to a [`ShardedPipeline`] placed as `spec` says
    /// (worker threads, or caller slots for [`ShardSpec::inline`] —
    /// what the simulator and single-threaded hosts drive), returning
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
        let desc = desc.canonical();
        desc.validate_with(&self.external_kinds())?;
        let (name, pins) = (desc.name.clone(), desc.pins.clone());
        let live = Arc::new(Mutex::new(Live {
            desc,
            shards: (0..spec.workers.max(1)).map(|_| None).collect(),
        }));
        let state = Arc::clone(&live);
        let externals = self.externals.clone();
        let sketches = fresh_sketches(spec);
        let guard_sketches = sketches.clone();
        // The factory the pipeline keeps for respawns: whenever it
        // runs, it materialises the description in force *then*.
        let pipe = ShardedPipeline::build_with_sketches(&name, spec, rm, sketches, move |shard| {
            let mut live = state.lock().expect("live description");
            let sketch = Arc::clone(&guard_sketches[shard]);
            let (graph, compiled) = CompiledShard::build(&live.desc, shard, sketch, &externals)?;
            live.shards[shard] = Some(compiled);
            Ok(graph)
        })?;
        if !pins.is_empty() {
            install_pins(&pipe, &pins)?;
        }
        Ok((
            pipe,
            DescBinding {
                externals: self.externals.clone(),
                live,
            },
        ))
    }
}

/// Installs a description's steering pins over the pipeline's current
/// table (a migration: one epoch) and returns the buckets it moved.
fn install_pins(pipe: &ShardedPipeline, pins: &BTreeMap<usize, usize>) -> Result<usize> {
    let workers = pipe.workers();
    let pins: Vec<(usize, usize)> = pins.iter().map(|(&b, &s)| (b, s)).collect();
    for &(bucket, shard) in &pins {
        if shard >= workers {
            return Err(Error::CfViolation {
                framework: "desc".to_owned(),
                rule: format!("pin bucket {bucket} -> shard {shard}: only {workers} shards"),
            });
        }
    }
    let map = pipe.bucket_map().with_pins(&pins);
    Ok(pipe.install_bucket_map(map, &[]).moved_buckets)
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

/// What a pipeline *is*, in one place: the description in force and the
/// object graph each shard compiled it to. The [`DescBinding`] and the
/// pipeline's respawn factory share it behind one lock.
struct Live {
    desc: PipelineDesc,
    shards: Vec<Option<CompiledShard>>,
}

/// The link between a description and the live pipeline it compiled
/// to: apply patches through it, or introspect what each name became.
pub struct DescBinding {
    externals: BTreeMap<String, Arc<ExternalBuild>>,
    live: Arc<Mutex<Live>>,
}

impl std::fmt::Debug for DescBinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DescBinding({})", self.live().desc.name)
    }
}

impl DescBinding {
    fn live(&self) -> std::sync::MutexGuard<'_, Live> {
        self.live.lock().expect("live description")
    }

    /// The description the live pipeline currently implements
    /// (canonical form) — what the last successful
    /// [`Self::apply_sharded`] left in force, and what a respawned
    /// replica is built from.
    pub fn desc(&self) -> PipelineDesc {
        self.live().desc.clone()
    }

    /// Computes the patch that would take this binding to `next` —
    /// convenience over [`diff`](super::diff()).
    ///
    /// # Errors
    ///
    /// Propagates validation failures on `next`.
    pub fn diff_to(&self, next: &PipelineDesc) -> Result<Patch> {
        next.validate_with(&self.externals.keys().cloned().collect())?;
        Ok(super::diff(&self.live().desc, next))
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
        self.live()
            .desc
            .control
            .as_ref()
            .map(schema::compile_control)
            .transpose()
    }

    /// Runs `f` over one compiled shard's object map (introspection
    /// for tests and tooling).
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&CompiledShard) -> R) -> Option<R> {
        self.live()
            .shards
            .get(shard)
            .and_then(Option::as_ref)
            .map(f)
    }

    /// Applies `patch` to the pipeline built from this binding,
    /// wherever its shards run.
    ///
    /// Param-only patches run hot — no pipeline-wide quiesce, zero
    /// epochs. Structural patches (and param swaps of the ingress
    /// element, whose handle the workers hold) run inside exactly one
    /// quiesce window. Steering changes ride the existing zero-loss
    /// migration path and report their own epoch.
    ///
    /// The live description is held for the whole call, so a crash
    /// recovery racing the patch respawns its replica either wholly
    /// before it (and is patched with the rest) or wholly after (and is
    /// built from the patched description).
    ///
    /// # Errors
    ///
    /// Fails if the patch's base does not match this binding, or if a
    /// mutation fails mid-apply. Validation has already rejected every
    /// description whose elements, edges or table entries could fail to
    /// materialise, so the latter means the live graph was changed
    /// behind the binding's back: the description in force is left as
    /// it was, the shards may hold part of the patch, and the pipeline
    /// should be rebuilt from a fresh description.
    pub fn apply_sharded(&mut self, pipe: &ShardedPipeline, patch: &Patch) -> Result<ApplyReport> {
        let mut live = self.live();
        if patch.from_desc().render() != live.desc.render() {
            return Err(stale(
                "patch base does not match the binding's current description".to_owned(),
            ));
        }
        patch
            .to_desc()
            .validate_with(&self.externals.keys().cloned().collect())?;
        let epoch_before = pipe.epoch();
        let mut report = ApplyReport::default();
        let graph_ops = patch
            .ops()
            .iter()
            .any(|op| !matches!(op, PatchOp::SetControl | PatchOp::SetSteering));
        let mut run = || -> Result<()> {
            for cs in live.shards.iter_mut().flatten() {
                if let Some(entry) = cs.apply(patch, &self.externals, &mut report)? {
                    pipe.set_entry(cs.shard, entry);
                    report.entry_swaps += 1;
                }
                report.shards_touched += usize::from(graph_ops);
            }
            Ok(())
        };
        if patch.requires_quiesce() {
            pipe.quiesce(run)?;
        } else {
            run()?;
        }
        if report.structural + report.replaced > 0 {
            pipe.sync_replicas()?;
        }
        if patch.steering_changed() {
            report.moved_buckets = install_pins(pipe, &patch.to_desc().pins)?;
        }
        live.desc = patch.to_desc().clone();
        report.epochs = pipe.epoch() - epoch_before;
        Ok(report)
    }
}
