//! Declarative pipeline descriptions — topology as *data*, not code.
//!
//! The layer the P4 data-plane line of work argues for: a small typed
//! description model that **validates** against an element schema
//! registry and **compiles** to the real element graph through
//! [`ShardedPipeline`](crate::shard::ShardedPipeline)'s factory path,
//! wherever its [`ShardSpec`](netkit_kernel::shard::ShardSpec) places
//! the shards (worker threads, or the caller for the simulator) — and
//! the half that makes it a control plane rather than a config
//! file: [`diff`](diff()) computes a minimal deterministic [`Patch`]
//! between two descriptions, and [`DescBinding::apply_sharded`]
//! executes it under the existing zero-loss migration machinery. The
//! two halves are one mechanism: a build *is* the patch from the empty
//! description, run by the same executor.
//!
//! The model is deliberately small:
//!
//! * [`PipelineDesc`] — named [`ElementDesc`] nodes with typed
//!   [`Params`], port-wired [`EdgeDesc`] edges, per-node match-action
//!   [`TableEntry`] lists (classifier patterns, routes, VIP→backend
//!   sets), optional bucket→shard steering pins, and an optional
//!   [`ControlDesc`] naming the preset of the staged
//!   [`DecisionCore`](crate::shard::DecisionCore) that judges
//!   rebalances.
//! * [`PipelineDesc::validate`] — checks parameters (type, range,
//!   address format) against the [`schema`] registry, rejects unknown
//!   kinds, dangling edge endpoints, outputs on sink elements,
//!   duplicate single-output edges, table entries on elements without
//!   that table, that the element could not install, or that name a
//!   row another entry on the same element names, filter outputs
//!   with no matching edge, unreachable elements, and cycles. What it
//!   accepts, the constructors take as is: nothing a description says
//!   can fail or panic later, at build, apply or respawn.
//! * [`Compiler`] — builds a live pipeline from a description (plus
//!   host-supplied *external* element kinds, e.g. a simulator's egress
//!   collector) and returns a [`DescBinding`]: the one live description
//!   — what is in force now, and the object graph each shard compiled
//!   it to — which later patches address and respawns rebuild from.
//! * [`diff`](diff()) / [`Patch`] / [`DescBinding::apply_sharded`] —
//!   the incremental control plane, one applier for both placements. A
//!   param-only diff compiles to a patch with **zero structural
//!   mutations** (hot [`Capsule::replace`](opencom::capsule::Capsule)
//!   swaps and table upserts only) and applies without a pipeline-wide
//!   quiesce; structural patches take exactly one quiesce epoch. Table
//!   entries reach an element only through its own
//!   [`ITable`](crate::api::ITable), which decides what they mean.
//!
//! # Two descriptions, one diff
//!
//! ```
//! use std::sync::Arc;
//! use netkit_kernel::shard::ShardSpec;
//! use netkit_router::desc::{diff, Compiler, PipelineDesc};
//! use opencom::meta::resources::ResourceManager;
//!
//! let v1 = PipelineDesc::new("edge")
//!     .element_with("guard", "guard", &[("byte_threshold", (1u64 << 20).into())])
//!     .element("ct", "conntrack")
//!     .element("sink", "discard")
//!     .ingress("guard")
//!     .edge("guard", "ct")
//!     .edge("ct", "sink");
//!
//! // Grow the connection table: same topology, one knob changed.
//! let v2 = v1.clone().set_param("ct", "capacity", 8192u64.into());
//! let patch = diff(&v1, &v2);
//! assert!(patch.param_only());
//!
//! // Apply it to a live pipeline: one hot swap, zero quiesce epochs.
//! let (pipe, mut binding) =
//!     Compiler::new().build_sharded(&v1, ShardSpec::inline(1), Arc::new(ResourceManager::new()))?;
//! let report = binding.apply_sharded(&pipe, &patch)?;
//! assert_eq!((report.structural, report.replaced, report.epochs), (0, 1, 0));
//! # Ok::<(), opencom::error::Error>(())
//! ```
//!
//! See `ARCHITECTURE.md` §8 for the precise migration semantics and
//! `examples/declarative_pipeline.rs` for a guided tour.

mod compile;
mod diff;
pub mod schema;

pub use compile::{ApplyReport, CompiledShard, Compiler, DescBinding, ElementHandle};
pub use diff::{diff, Patch, PatchOp};

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use opencom::error::{Error, Result};

use crate::api::{FilterPattern, FilterSpec};
use netkit_packet::steer::RSS_BUCKETS;

use schema::{OutputKind, ParamType, TableKind};

/// A typed parameter value in a description. Parameters are checked
/// against the element's [`schema`] at validation time, so a compile
/// never sees a mistyped value.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamValue {
    /// Unsigned integer (counts, ports, capacities, timeouts).
    Int(u64),
    /// Floating point (control thresholds, blends).
    Float(f64),
    /// Boolean flag.
    Bool(bool),
    /// String (addresses, names).
    Str(String),
}

impl ParamValue {
    /// The value's schema type.
    pub fn param_type(&self) -> ParamType {
        match self {
            ParamValue::Int(_) => ParamType::Int,
            ParamValue::Float(_) => ParamType::Float,
            ParamValue::Bool(_) => ParamType::Bool,
            ParamValue::Str(_) => ParamType::Str,
        }
    }

    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            ParamValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            ParamValue::Float(v) => Some(*v),
            ParamValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            ParamValue::Str(v) => Some(v),
            _ => None,
        }
    }

    fn render(&self) -> String {
        match self {
            ParamValue::Int(v) => format!("{v}"),
            ParamValue::Float(v) => format!("{v:?}"),
            ParamValue::Bool(v) => format!("{v}"),
            ParamValue::Str(v) => format!("{v:?}"),
        }
    }
}

impl From<u64> for ParamValue {
    fn from(v: u64) -> Self {
        ParamValue::Int(v)
    }
}
impl From<u16> for ParamValue {
    fn from(v: u16) -> Self {
        ParamValue::Int(v.into())
    }
}
impl From<u32> for ParamValue {
    fn from(v: u32) -> Self {
        ParamValue::Int(v.into())
    }
}
impl From<usize> for ParamValue {
    fn from(v: usize) -> Self {
        ParamValue::Int(v as u64)
    }
}
impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::Float(v)
    }
}
impl From<bool> for ParamValue {
    fn from(v: bool) -> Self {
        ParamValue::Bool(v)
    }
}
impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Str(v.to_owned())
    }
}
impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Str(v)
    }
}

/// A typed parameter map (sorted, so descriptions render and diff
/// deterministically).
pub type Params = BTreeMap<String, ParamValue>;

/// One named element node: its schema kind plus parameters.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ElementDesc {
    /// Registry kind (`"counter"`, `"classifier"`, `"nat44"`, … or an
    /// external kind the compiling host declares).
    pub kind: String,
    /// Typed parameters, checked against the kind's schema.
    pub params: Params,
}

/// One port-wired edge: `from`'s `out` receptacle, under `label`, into
/// `to`'s packet-push interface. Single-output elements use the empty
/// label; labelled elements (classifier outputs, per-egress route
/// ports, tee taps) name their ports.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EdgeDesc {
    /// Source element name.
    pub from: String,
    /// Output label (empty for single-output elements).
    pub label: String,
    /// Destination element name.
    pub to: String,
}

impl EdgeDesc {
    fn render(&self) -> String {
        if self.label.is_empty() {
            format!("{} -> {}", self.from, self.to)
        } else {
            format!("{}[{}] -> {}", self.from, self.label, self.to)
        }
    }
}

/// A declarative classifier pattern — the data twin of
/// [`FilterPattern`], kept as plain fields so descriptions order,
/// compare, and render deterministically.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct PatternDesc {
    /// Source prefix as `(addr, len)`, e.g. `("10.0.0.0", 8)`.
    pub src: Option<(String, u8)>,
    /// Destination prefix as `(addr, len)`.
    pub dst: Option<(String, u8)>,
    /// IP protocol number.
    pub protocol: Option<u8>,
    /// Inclusive source-port range.
    pub src_port: Option<(u16, u16)>,
    /// Inclusive destination-port range.
    pub dst_port: Option<(u16, u16)>,
    /// DSCP codepoint.
    pub dscp: Option<u8>,
}

impl PatternDesc {
    /// The match-everything pattern.
    pub fn any() -> Self {
        Self::default()
    }

    /// Requires the IP protocol (builder-style).
    pub fn protocol(mut self, proto: u8) -> Self {
        self.protocol = Some(proto);
        self
    }

    /// Requires the destination port in `[lo, hi]` (builder-style).
    pub fn dst_port_range(mut self, lo: u16, hi: u16) -> Self {
        self.dst_port = Some((lo, hi));
        self
    }

    /// Requires the source port in `[lo, hi]` (builder-style).
    pub fn src_port_range(mut self, lo: u16, hi: u16) -> Self {
        self.src_port = Some((lo, hi));
        self
    }

    /// Requires the DSCP codepoint (builder-style).
    pub fn dscp(mut self, dscp: u8) -> Self {
        self.dscp = Some(dscp);
        self
    }

    /// Requires the source address in `prefix/len` (builder-style).
    pub fn src(mut self, prefix: &str, len: u8) -> Self {
        self.src = Some((prefix.to_owned(), len));
        self
    }

    /// Requires the destination address in `prefix/len` (builder-style).
    pub fn dst(mut self, prefix: &str, len: u8) -> Self {
        self.dst = Some((prefix.to_owned(), len));
        self
    }

    /// Lowers the description to a live [`FilterPattern`].
    ///
    /// # Errors
    ///
    /// Fails with [`Error::StaleReference`] on a malformed address
    /// literal.
    pub fn to_pattern(&self) -> Result<FilterPattern> {
        let mut p = FilterPattern::any();
        if let Some((addr, len)) = &self.src {
            p = p.try_src(addr, *len).map_err(|_| Error::StaleReference {
                what: format!("pattern src `{addr}/{len}`"),
            })?;
        }
        if let Some((addr, len)) = &self.dst {
            p = p.try_dst(addr, *len).map_err(|_| Error::StaleReference {
                what: format!("pattern dst `{addr}/{len}`"),
            })?;
        }
        if let Some(proto) = self.protocol {
            p = p.protocol(proto);
        }
        if let Some((lo, hi)) = self.src_port {
            p = p.src_port_range(lo, hi);
        }
        if let Some((lo, hi)) = self.dst_port {
            p = p.dst_port_range(lo, hi);
        }
        if let Some(dscp) = self.dscp {
            p = p.dscp(dscp);
        }
        Ok(p)
    }

    fn render(&self) -> String {
        let mut parts = Vec::new();
        if let Some((a, l)) = &self.src {
            parts.push(format!("src={a}/{l}"));
        }
        if let Some((a, l)) = &self.dst {
            parts.push(format!("dst={a}/{l}"));
        }
        if let Some(p) = self.protocol {
            parts.push(format!("proto={p}"));
        }
        if let Some((lo, hi)) = self.src_port {
            parts.push(format!("sport={lo}-{hi}"));
        }
        if let Some((lo, hi)) = self.dst_port {
            parts.push(format!("dport={lo}-{hi}"));
        }
        if let Some(d) = self.dscp {
            parts.push(format!("dscp={d}"));
        }
        if parts.is_empty() {
            "any".to_owned()
        } else {
            parts.join(" ")
        }
    }
}

/// One match-action table entry attached to a named element.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TableEntry {
    /// A classifier filter: packets matching `pattern` go to the edge
    /// labelled `output` (highest `priority` wins).
    Filter {
        /// The match pattern.
        pattern: PatternDesc,
        /// The output label the matching edge carries.
        output: String,
        /// Filter priority (higher wins).
        priority: i32,
    },
    /// A route: `prefix` (e.g. `"10.0.0.0/8"`) exits on egress port
    /// `egress` — the edge labelled `egress.to_string()`, falling back
    /// to the `out` label.
    Route {
        /// Textual prefix.
        prefix: String,
        /// Egress port index.
        egress: u16,
    },
    /// A load-balancer backend behind the element's VIP.
    Backend {
        /// Backend IPv4 address literal.
        ip: String,
        /// Backend port.
        port: u16,
    },
}

impl TableEntry {
    fn kind(&self) -> TableKind {
        match self {
            TableEntry::Filter { .. } => TableKind::Filter,
            TableEntry::Route { .. } => TableKind::Route,
            TableEntry::Backend { .. } => TableKind::Backend,
        }
    }

    fn render(&self) -> String {
        match self {
            TableEntry::Filter {
                pattern,
                output,
                priority,
            } => format!(
                "filter {{{}}} -> {output} prio {priority}",
                pattern.render()
            ),
            TableEntry::Route { prefix, egress } => format!("route {prefix} -> port {egress}"),
            TableEntry::Backend { ip, port } => format!("backend {ip}:{port}"),
        }
    }

    /// What an [`ITable`](crate::api::ITable) holding `held` entries
    /// answers for this one when it is of another kind.
    pub(crate) fn foreign_to(&self, held: TableKind) -> Error {
        let (held, kind) = (held.name(), self.kind().name());
        let rule = format!("a {held} table takes no {kind} entries");
        Error::CfViolation {
            framework: "router".to_owned(),
            rule,
        }
    }

    /// What an [`ITable`](crate::api::ITable) answers for a `del` of
    /// this entry when it is not installed.
    pub(crate) fn absent(&self) -> Error {
        Error::StaleReference {
            what: format!("table entry `{}`", self.render()),
        }
    }
}

/// The per-pipeline control section: which preset of the
/// [`DecisionCore`](crate::shard::DecisionCore) judges rebalances, and
/// its typed knobs (see [`schema::CONTROL_PARAMS`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ControlDesc {
    /// Preset name: `"weighted"`, `"hysteresis"`, `"ewma"` (see
    /// [`PRESETS`](crate::shard::PRESETS)).
    pub core: String,
    /// Typed knobs; unknown names, and stage knobs the preset does not
    /// read, are rejected at validation.
    pub params: Params,
}

/// A complete declarative pipeline: the unit [`Compiler`] builds and
/// [`diff`](diff()) compares.
///
/// # Examples
///
/// ```
/// use netkit_router::desc::{PipelineDesc, PatternDesc, TableEntry};
///
/// let d = PipelineDesc::new("edge")
///     .element("cls", "classifier")
///     .element("tcp", "counter")
///     .element("sink", "discard")
///     .ingress("cls")
///     .edge_labelled("cls", "tcp", "tcp")
///     .edge_labelled("cls", "default", "sink")
///     .edge("tcp", "sink")
///     .table(
///         "cls",
///         TableEntry::Filter {
///             pattern: PatternDesc::any().protocol(6),
///             output: "tcp".into(),
///             priority: 10,
///         },
///     );
/// d.validate().unwrap();
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct PipelineDesc {
    /// Pipeline (resource-task) name.
    pub name: String,
    /// The ingress element packets enter through.
    pub entry: String,
    /// Named element nodes.
    pub elements: BTreeMap<String, ElementDesc>,
    /// Port-wired edges.
    pub edges: Vec<EdgeDesc>,
    /// Per-element match-action tables.
    pub tables: BTreeMap<String, Vec<TableEntry>>,
    /// Explicit bucket → shard steering pins (sparse; unpinned buckets
    /// stay wherever the control loop put them).
    pub pins: BTreeMap<usize, usize>,
    /// Optional control-policy selection.
    pub control: Option<ControlDesc>,
}

impl PipelineDesc {
    /// An empty description named `name`.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            ..Self::default()
        }
    }

    /// Adds an element with no parameters (builder-style).
    pub fn element(mut self, name: &str, kind: &str) -> Self {
        self.elements.insert(
            name.to_owned(),
            ElementDesc {
                kind: kind.to_owned(),
                params: Params::new(),
            },
        );
        self
    }

    /// Adds an element with parameters (builder-style).
    pub fn element_with(mut self, name: &str, kind: &str, params: &[(&str, ParamValue)]) -> Self {
        self.elements.insert(
            name.to_owned(),
            ElementDesc {
                kind: kind.to_owned(),
                params: params
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), v.clone()))
                    .collect(),
            },
        );
        self
    }

    /// Overwrites one parameter on an existing element (builder-style)
    /// — the natural way to derive a param-only variant for a diff.
    ///
    /// # Panics
    ///
    /// Panics if the element does not exist.
    pub fn set_param(mut self, element: &str, key: &str, value: ParamValue) -> Self {
        self.elements
            .get_mut(element)
            .unwrap_or_else(|| panic!("set_param: no element `{element}`"))
            .params
            .insert(key.to_owned(), value);
        self
    }

    /// Names the ingress element (builder-style).
    pub fn ingress(mut self, name: &str) -> Self {
        self.entry = name.to_owned();
        self
    }

    /// Wires `from`'s single output to `to` (builder-style).
    pub fn edge(self, from: &str, to: &str) -> Self {
        self.edge_labelled(from, "", to)
    }

    /// Wires `from`'s output labelled `label` to `to` (builder-style).
    pub fn edge_labelled(mut self, from: &str, label: &str, to: &str) -> Self {
        self.edges.push(EdgeDesc {
            from: from.to_owned(),
            label: label.to_owned(),
            to: to.to_owned(),
        });
        self
    }

    /// Appends a table entry to `node`'s match-action table
    /// (builder-style).
    pub fn table(mut self, node: &str, entry: TableEntry) -> Self {
        self.tables.entry(node.to_owned()).or_default().push(entry);
        self
    }

    /// Pins `bucket` to `shard` in the steering table (builder-style).
    pub fn pin(mut self, bucket: usize, shard: usize) -> Self {
        self.pins.insert(bucket, shard);
        self
    }

    /// Selects the control core and its knobs (builder-style).
    pub fn control(mut self, core: &str, params: &[(&str, ParamValue)]) -> Self {
        self.control = Some(ControlDesc {
            core: core.to_owned(),
            params: params
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        });
        self
    }

    /// The canonical form: edges and table entries sorted. Diffs and
    /// golden renders operate on canonical descriptions so the same
    /// topology always produces the same plan, however it was built.
    pub fn canonical(&self) -> Self {
        let mut c = self.clone();
        c.edges.sort();
        c.edges.dedup();
        for entries in c.tables.values_mut() {
            entries.sort();
            entries.dedup();
        }
        c.tables.retain(|_, v| !v.is_empty());
        c
    }

    /// Validates against the built-in [`schema`] registry only.
    ///
    /// # Errors
    ///
    /// See [`Self::validate_with`].
    pub fn validate(&self) -> Result<()> {
        self.validate_with(&BTreeSet::new())
    }

    /// Validates the description: every kind known (to the registry or
    /// to `external_kinds`), parameters typed per schema, edges
    /// well-formed, tables supported, the graph acyclic and fully
    /// reachable from the entry.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::CfViolation`] naming the first violated
    /// rule.
    pub fn validate_with(&self, external_kinds: &BTreeSet<String>) -> Result<()> {
        let rule = |msg: String| Error::CfViolation {
            framework: "desc".to_owned(),
            rule: msg,
        };
        if self.name.is_empty() {
            return Err(rule("pipeline name must not be empty".into()));
        }
        if self.elements.is_empty() {
            return Err(rule("a pipeline needs at least one element".into()));
        }
        if !self.elements.contains_key(&self.entry) {
            return Err(rule(format!(
                "entry `{}` is not a declared element",
                self.entry
            )));
        }

        // Element kinds and parameter types.
        for (name, el) in &self.elements {
            if external_kinds.contains(&el.kind) {
                continue;
            }
            let Some(schema) = schema::schema_for(&el.kind) else {
                return Err(rule(format!(
                    "element `{name}`: unknown kind `{}` (known: {})",
                    el.kind,
                    schema::known_kinds().join(", ")
                )));
            };
            schema.check_params(name, &el.params)?;
        }

        // Edges: endpoints exist, output arity respected, labels unique.
        let mut seen_edges = BTreeSet::new();
        let mut single_out: BTreeMap<&str, usize> = BTreeMap::new();
        for edge in &self.edges {
            let Some(from) = self.elements.get(&edge.from) else {
                return Err(rule(format!(
                    "edge `{}`: source `{}` is not declared",
                    edge.render(),
                    edge.from
                )));
            };
            if !self.elements.contains_key(&edge.to) {
                return Err(rule(format!(
                    "edge `{}`: destination `{}` is not declared",
                    edge.render(),
                    edge.to
                )));
            }
            if !seen_edges.insert((edge.from.clone(), edge.label.clone())) {
                return Err(rule(format!(
                    "edge `{}`: duplicate output label on `{}`",
                    edge.render(),
                    edge.from
                )));
            }
            let out_kind = if external_kinds.contains(&from.kind) {
                OutputKind::Single
            } else {
                schema::schema_for(&from.kind)
                    .expect("kind checked above")
                    .output
            };
            match out_kind {
                OutputKind::None => {
                    return Err(rule(format!(
                        "edge `{}`: `{}` ({}) has no outputs",
                        edge.render(),
                        edge.from,
                        from.kind
                    )));
                }
                OutputKind::Single => {
                    if !edge.label.is_empty() {
                        return Err(rule(format!(
                            "edge `{}`: `{}` ({}) is single-output; use an unlabelled edge",
                            edge.render(),
                            edge.from,
                            from.kind
                        )));
                    }
                    let n = single_out.entry(edge.from.as_str()).or_insert(0);
                    *n += 1;
                    if *n > 1 {
                        return Err(rule(format!(
                            "`{}` ({}) is single-output but has {n} edges",
                            edge.from, from.kind
                        )));
                    }
                }
                OutputKind::Labelled => {}
            }
        }

        // Tables: node exists, table kind supported, entries well-formed.
        for (node, entries) in &self.tables {
            let Some(el) = self.elements.get(node) else {
                return Err(rule(format!("table on `{node}`: element not declared")));
            };
            if entries.is_empty() {
                continue;
            }
            let supported: &[TableKind] = if external_kinds.contains(&el.kind) {
                &[]
            } else {
                schema::schema_for(&el.kind).expect("kind checked").tables
            };
            let mut seen = BTreeSet::new();
            // Two entries naming one row (a route's masked prefix, a
            // filter's lowered spec) cannot both be installed.
            let mut routes = BTreeMap::new();
            let mut filters: Vec<(FilterSpec, &TableEntry)> = Vec::new();
            let same = |a: &TableEntry, b: &TableEntry| {
                let (a, b, kind) = (a.render(), b.render(), b.kind().name());
                let msg = format!("table on `{node}`: `{a}` and `{b}` name the same {kind}");
                rule(msg)
            };
            for entry in entries {
                if !supported.contains(&entry.kind()) {
                    return Err(rule(format!(
                        "table on `{node}` ({}): {} entries are not supported",
                        el.kind,
                        entry.kind().name()
                    )));
                }
                if !seen.insert(entry.clone()) {
                    return Err(rule(format!(
                        "table on `{node}`: duplicate entry `{}`",
                        entry.render()
                    )));
                }
                match entry {
                    TableEntry::Filter { output, .. } => {
                        let spec = crate::elements::filter_of(entry)?;
                        if let Some((_, other)) = filters.iter().find(|(s, _)| *s == spec) {
                            return Err(same(other, entry));
                        }
                        filters.push((spec, entry));
                        let bound = self
                            .edges
                            .iter()
                            .any(|e| e.from == *node && e.label == *output);
                        if !bound {
                            return Err(rule(format!(
                                "filter on `{node}` routes to output `{output}` but no edge \
                                 carries that label"
                            )));
                        }
                    }
                    TableEntry::Route { prefix, egress } => {
                        let Ok(route) = crate::routing::parse_prefix(prefix) else {
                            return Err(rule(format!(
                                "route on `{node}`: malformed prefix `{prefix}`"
                            )));
                        };
                        if let Some(other) = routes.insert(route, entry) {
                            return Err(same(other, entry));
                        }
                        let label = egress.to_string();
                        let bound = self
                            .edges
                            .iter()
                            .any(|e| e.from == *node && (e.label == label || e.label == "out"));
                        if !bound {
                            return Err(rule(format!(
                                "route on `{node}` exits port {egress} but no edge is labelled \
                                 `{label}` or `out`"
                            )));
                        }
                    }
                    TableEntry::Backend { ip, .. } => {
                        if ip.parse::<std::net::Ipv4Addr>().is_err() {
                            return Err(rule(format!(
                                "backend on `{node}`: malformed address `{ip}`"
                            )));
                        }
                    }
                }
            }
        }

        // Steering pins stay inside the bucket space.
        for (&bucket, &shard) in &self.pins {
            if bucket >= RSS_BUCKETS {
                return Err(rule(format!(
                    "pin: bucket {bucket} out of range (0..{RSS_BUCKETS})"
                )));
            }
            let _ = shard; // shard bound is spec-dependent; checked at apply.
        }

        // Control section: known preset, known + typed knobs it reads.
        if let Some(ctl) = &self.control {
            schema::check_control(ctl)?;
        }

        // Reachability + acyclicity from the entry.
        self.check_graph()?;
        Ok(())
    }

    fn check_graph(&self) -> Result<()> {
        let rule = |msg: String| Error::CfViolation {
            framework: "desc".to_owned(),
            rule: msg,
        };
        let mut adjacency: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for edge in &self.edges {
            adjacency
                .entry(edge.from.as_str())
                .or_default()
                .push(edge.to.as_str());
        }
        // Iterative DFS with colouring: 0 unseen, 1 on stack, 2 done.
        let mut colour: BTreeMap<&str, u8> = BTreeMap::new();
        let mut stack: Vec<(&str, usize)> = vec![(self.entry.as_str(), 0)];
        colour.insert(self.entry.as_str(), 1);
        while let Some((node, next)) = stack.pop() {
            let succs = adjacency.get(node).map(Vec::as_slice).unwrap_or(&[]);
            if next < succs.len() {
                stack.push((node, next + 1));
                let succ = succs[next];
                match colour.get(succ).copied().unwrap_or(0) {
                    0 => {
                        colour.insert(succ, 1);
                        stack.push((succ, 0));
                    }
                    1 => {
                        return Err(rule(format!(
                            "cycle through `{succ}` — element graphs must be acyclic"
                        )));
                    }
                    _ => {}
                }
            } else {
                colour.insert(node, 2);
            }
        }
        for name in self.elements.keys() {
            if colour.get(name.as_str()).copied().unwrap_or(0) != 2 {
                return Err(rule(format!(
                    "element `{name}` is unreachable from entry `{}`",
                    self.entry
                )));
            }
        }
        Ok(())
    }

    /// A stable textual rendering of the canonical description — what
    /// the golden-file tests snapshot.
    pub fn render(&self) -> String {
        let c = self.canonical();
        let mut out = String::new();
        let _ = writeln!(out, "pipeline {} (entry {})", c.name, c.entry);
        for (name, el) in &c.elements {
            let params = el
                .params
                .iter()
                .map(|(k, v)| format!("{k}={}", v.render()))
                .collect::<Vec<_>>()
                .join(" ");
            if params.is_empty() {
                let _ = writeln!(out, "  element {name}: {}", el.kind);
            } else {
                let _ = writeln!(out, "  element {name}: {} {{{params}}}", el.kind);
            }
        }
        for edge in &c.edges {
            let _ = writeln!(out, "  edge {}", edge.render());
        }
        for (node, entries) in &c.tables {
            for entry in entries {
                let _ = writeln!(out, "  table {node}: {}", entry.render());
            }
        }
        for (bucket, shard) in &c.pins {
            let _ = writeln!(out, "  pin bucket {bucket} -> shard {shard}");
        }
        if let Some(ctl) = &c.control {
            let params = ctl
                .params
                .iter()
                .map(|(k, v)| format!("{k}={}", v.render()))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(out, "  control {} {{{params}}}", ctl.core);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn chain() -> PipelineDesc {
        PipelineDesc::new("t")
            .element("a", "counter")
            .element("b", "counter")
            .element("sink", "discard")
            .ingress("a")
            .edge("a", "b")
            .edge("b", "sink")
    }

    #[test]
    fn a_valid_chain_validates() {
        chain().validate().unwrap();
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let d = PipelineDesc::new("t").element("a", "banana").ingress("a");
        let err = d.validate().unwrap_err().to_string();
        assert!(err.contains("unknown kind"), "{err}");
    }

    #[test]
    fn dangling_edge_is_rejected() {
        let d = PipelineDesc::new("t")
            .element("a", "counter")
            .ingress("a")
            .edge("a", "ghost");
        let err = d.validate().unwrap_err().to_string();
        assert!(err.contains("not declared"), "{err}");
    }

    #[test]
    fn sink_elements_cannot_have_outputs() {
        let d = PipelineDesc::new("t")
            .element("a", "discard")
            .element("b", "counter")
            .ingress("a")
            .edge("a", "b");
        let err = d.validate().unwrap_err().to_string();
        assert!(err.contains("no outputs"), "{err}");
    }

    #[test]
    fn single_output_elements_take_one_unlabelled_edge() {
        let d = chain().edge("a", "sink");
        let err = d.validate().unwrap_err().to_string();
        assert!(err.contains("duplicate output label"), "{err}");

        let d = PipelineDesc::new("t")
            .element("a", "counter")
            .element("b", "discard")
            .ingress("a")
            .edge_labelled("a", "tap", "b");
        let err = d.validate().unwrap_err().to_string();
        assert!(err.contains("unlabelled"), "{err}");
    }

    #[test]
    fn cycles_are_rejected() {
        let d = PipelineDesc::new("t")
            .element("a", "counter")
            .element("b", "counter")
            .ingress("a")
            .edge("a", "b")
            .edge("b", "a");
        let err = d.validate().unwrap_err().to_string();
        assert!(err.contains("cycle"), "{err}");
    }

    #[test]
    fn unreachable_elements_are_rejected() {
        let d = chain().element("orphan", "counter");
        let err = d.validate().unwrap_err().to_string();
        assert!(err.contains("unreachable"), "{err}");
    }

    /// `a` (of `kind`, with `params`) feeding a sink.
    fn one(kind: &str, params: &[(&str, ParamValue)]) -> PipelineDesc {
        PipelineDesc::new("t")
            .element_with("a", kind, params)
            .element("sink", "discard")
            .ingress("a")
            .edge("a", "sink")
    }

    /// Whatever validation accepts must materialise: on the caller at
    /// build, and so inside a quiesce at apply and on the control
    /// thread at respawn, which run the same constructor.
    fn builds(d: &PipelineDesc) {
        use netkit_kernel::shard::ShardSpec;
        use opencom::meta::resources::ResourceManager;
        Compiler::new()
            .build_sharded(d, ShardSpec::inline(1), Arc::new(ResourceManager::new()))
            .unwrap_or_else(|e| panic!("validated but did not build: {e}\n{}", d.render()));
    }

    #[test]
    fn mistyped_params_are_rejected() {
        let vip = ("vip", ParamValue::from("10.0.7.9"));
        /// Kind, params, and the rejection's wording (`None` builds).
        type Case<'a> = (&'a str, Vec<(&'a str, ParamValue)>, Option<&'a str>);
        let range = Some("expects int in");
        let cases: Vec<Case<'_>> = vec![
            (
                "conntrack",
                vec![("capacity", "lots".into())],
                Some("expects int"),
            ),
            ("conntrack", vec![("capacity", 0u64.into())], range),
            ("conntrack", vec![("capacity", 1u64.into())], None),
            (
                "guard",
                vec![("table_capacity", (1u64 << 32).into())],
                range,
            ),
            ("nat44", vec![("table_capacity", 0u64.into())], range),
            ("nat44", vec![("port_base", 70_000u64.into())], range),
            ("nat44", vec![("blocks", 65_536u64.into())], range),
            ("nat44", vec![("block_size", 65_536u64.into())], range),
            (
                "nat44",
                vec![("external_ip", "192.0.2".into())],
                Some("`external_ip` expects an IPv4 address"),
            ),
            (
                "nat44",
                vec![
                    ("port_base", 60_000u64.into()),
                    ("blocks", 128u64.into()),
                    ("block_size", 64u64.into()),
                ],
                Some("`port_base` + `blocks` x `block_size`"),
            ),
            // The defaults count: 64 x 64 ports from 62 000 overrun too.
            (
                "nat44",
                vec![("port_base", 62_000u64.into())],
                Some("past the last port"),
            ),
            (
                "nat44",
                vec![
                    ("port_base", 65_000u64.into()),
                    ("blocks", 8u64.into()),
                    ("block_size", 67u64.into()),
                ],
                None, // ends at exactly 65 536
            ),
            (
                "l4lb",
                vec![vip.clone(), ("vport", 65_536u64.into())],
                range,
            ),
            ("l4lb", vec![vip.clone(), ("vport", 65_535u64.into())], None),
            (
                "l4lb",
                vec![vip, ("vport", 443u64.into()), ("capacity", 0u64.into())],
                range,
            ),
            (
                "l4lb",
                vec![("vip", "ten.zero".into()), ("vport", 443u64.into())],
                Some("`vip` expects an IPv4 address"),
            ),
        ];
        for (kind, params, rejection) in cases {
            let d = one(kind, &params);
            match rejection {
                None => builds(&d),
                Some(wording) => {
                    let err = d.validate().expect_err(wording);
                    assert!(matches!(err, Error::CfViolation { .. }), "{err}");
                    let text = err.to_string();
                    let named = format!("element `a` ({kind})");
                    assert!(text.contains(wording) && text.contains(&named), "{text}");
                }
            }
        }
    }

    #[test]
    fn unknown_params_are_rejected() {
        // The SYN knobs configure a tracker-armed defence a
        // described guard (no tracker) never had: unknown, not ignored.
        for (kind, knob) in [
            ("counter", "speed"),
            ("guard", "syn_limit"),
            ("guard", "syn_budget"),
        ] {
            let err = one(kind, &[(knob, 9u64.into())])
                .validate()
                .unwrap_err()
                .to_string();
            assert!(
                err.contains("unknown parameter") && err.contains(knob),
                "{err}"
            );
        }
    }

    #[test]
    fn filter_output_must_have_a_matching_edge() {
        let d = PipelineDesc::new("t")
            .element("cls", "classifier")
            .element("sink", "discard")
            .ingress("cls")
            .edge_labelled("cls", "default", "sink")
            .table(
                "cls",
                TableEntry::Filter {
                    pattern: PatternDesc::any().protocol(6),
                    output: "tcp".into(),
                    priority: 1,
                },
            );
        let err = d.validate().unwrap_err().to_string();
        assert!(err.contains("no edge carries"), "{err}");
    }

    #[test]
    fn tables_only_attach_to_supporting_kinds() {
        let d = chain().table(
            "a",
            TableEntry::Backend {
                ip: "10.0.0.1".into(),
                port: 80,
            },
        );
        let err = d.validate().unwrap_err().to_string();
        assert!(err.contains("not supported"), "{err}");

        // A supported entry is read the way the element will read it:
        // a route prefix that validates also installs.
        let routed = |prefix: &str| {
            PipelineDesc::new("t")
                .element("r", "route")
                .element("sink", "discard")
                .ingress("r")
                .edge_labelled("r", "0", "sink")
                .table(
                    "r",
                    TableEntry::Route {
                        prefix: prefix.into(),
                        egress: 0,
                    },
                )
        };
        for prefix in ["10.0.0.0/8", "2001:db8::/32", "0.0.0.0/0", "10.0.0.5/32"] {
            builds(&routed(prefix));
        }
        for prefix in [
            "10.0.0.0",
            "/8",
            "10.0.0/8",
            "10.0.0.0/",
            "10.0.0.0/x",
            "banana/8",
            "10.0.0.0/33",
            "10.0.0.0/40",
            "2001:db8::/129",
        ] {
            let err = routed(prefix).validate().unwrap_err().to_string();
            assert!(
                err.contains("route on `r`: malformed prefix") && err.contains(prefix),
                "{err}"
            );
        }

        // The route table is keyed by family, length and masked
        // address: two entries that name one route cannot both be
        // installed, so the description would say more than the table.
        let route = |prefix: &str, egress: u16| TableEntry::Route {
            prefix: prefix.into(),
            egress,
        };
        let two = |a: &TableEntry, b: &TableEntry| {
            PipelineDesc::new("t")
                .element("r", "route")
                .element("sink", "discard")
                .ingress("r")
                .edge_labelled("r", "0", "sink")
                .edge_labelled("r", "1", "sink")
                .table("r", a.clone())
                .table("r", b.clone())
        };
        for (a, b) in [
            (route("10.0.0.0/8", 0), route("10.0.0.0/8", 1)),
            (route("10.0.0.0/8", 0), route("10.0.0.1/8", 0)),
            (route("2001:db8::/32", 0), route("2001:db8:0:1::/32", 1)),
        ] {
            let err = two(&a, &b).validate().unwrap_err();
            assert!(matches!(err, Error::CfViolation { .. }), "{err}");
            let text = err.to_string();
            assert!(
                text.contains("table on `r`")
                    && text.contains("name the same route")
                    && text.contains(&a.render())
                    && text.contains(&b.render()),
                "{text}"
            );
        }
        for (a, b) in [
            (route("10.0.0.0/8", 0), route("10.0.0.0/16", 1)),
            (route("0.0.0.0/0", 0), route("::/0", 0)),
        ] {
            builds(&two(&a, &b));
        }
        // Likewise a filter: two spellings of one address are one spec.
        let filter = |dst: &str| TableEntry::Filter {
            pattern: PatternDesc::any().dst(dst, 32),
            output: "v6".into(),
            priority: 0,
        };
        let err = PipelineDesc::new("t")
            .element("cls", "classifier")
            .element("sink", "discard")
            .ingress("cls")
            .edge_labelled("cls", "v6", "sink")
            .table("cls", filter("2001:db8::"))
            .table("cls", filter("2001:DB8:0::"))
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("name the same filter"), "{err}");
    }

    #[test]
    fn pins_stay_inside_the_bucket_space() {
        let d = chain().pin(RSS_BUCKETS, 0);
        let err = d.validate().unwrap_err().to_string();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn control_sections_are_checked() {
        let d = chain().control("banana", &[]);
        assert!(d.validate().is_err());
        let d = chain().control("weighted", &[("warp", 9.0.into())]);
        let err = d.validate().unwrap_err().to_string();
        assert!(err.contains("unknown control"), "{err}");
        chain()
            .control("hysteresis", &[("enter", 1.5.into()), ("arm", 2u64.into())])
            .validate()
            .unwrap();
    }

    #[test]
    fn canonical_render_is_stable() {
        let a = chain()
            .table(
                "a",
                TableEntry::Filter {
                    pattern: PatternDesc::any(),
                    output: "x".into(),
                    priority: 0,
                },
            )
            .render();
        // Built in a different order, same canonical text.
        let b = PipelineDesc::new("t")
            .element("sink", "discard")
            .element("b", "counter")
            .element("a", "counter")
            .ingress("a")
            .edge("b", "sink")
            .edge("a", "b")
            .table(
                "a",
                TableEntry::Filter {
                    pattern: PatternDesc::any(),
                    output: "x".into(),
                    priority: 0,
                },
            )
            .render();
        assert_eq!(a, b);
    }
}
