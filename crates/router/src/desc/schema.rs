//! The element schema registry: what a description may say about each
//! element kind, and how a validated description becomes live objects.
//!
//! Each built-in kind declares its typed parameters (with defaults),
//! its output arity (none / single / labelled), and which match-action
//! table kinds it accepts. [`PipelineDesc::validate`] checks against
//! these schemas; the crate-internal `construct` lowering then turns a
//! checked `(kind, params)` pair to a live element — nothing beside
//! it: the patch applier reaches an element's table through the
//! [`ITable`](crate::api::ITable) the element itself exports. Kinds the
//! registry does not know can be supplied by the compiling host as
//! *externals* (see [`Compiler::external`](super::Compiler::external))
//! — that is how the simulator injects its egress collector into
//! described pipelines.
//!
//! [`PipelineDesc::validate`]: super::PipelineDesc::validate

use std::net::Ipv4Addr;
use std::sync::Arc;

use opencom::component::Component;
use opencom::error::{Error, Result};

use netkit_packet::sketch::FlowSketch;

use crate::elements::{ClassifierEngine, Counter, Discard, RouteLookup, Tee};
use crate::flow::{
    ConnTracker, Guard, GuardConfig, L4LoadBalancer, Nat44, Nat44Config, MAX_FLOW_CAPACITY,
};
use crate::shard::{core_by_name, RebalanceController, RebalancePolicy, PRESETS};

use super::{ControlDesc, ParamValue, Params};

/// A parameter's schema type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamType {
    /// Unsigned integer.
    Int,
    /// Floating point (accepts int literals).
    Float,
    /// Boolean.
    Bool,
    /// String.
    Str,
    /// Unsigned integer that fits a `u16`: a port, or a count of ports.
    U16,
    /// Unsigned integer a flow table can be sized to: at least one, at
    /// most [`MAX_FLOW_CAPACITY`] (what the table itself clamps to).
    Capacity,
    /// String holding an IPv4 address literal.
    Ipv4,
}

impl ParamType {
    fn name(self) -> &'static str {
        match self {
            ParamType::Int => "int",
            ParamType::Float => "float",
            ParamType::Bool => "bool",
            ParamType::Str => "str",
            ParamType::U16 => "int in 0..=65535",
            ParamType::Capacity => "int in 1..=u32::MAX-1",
            ParamType::Ipv4 => "an IPv4 address",
        }
    }

    fn accepts(self, value: &ParamValue) -> bool {
        match self {
            // Float knobs accept integer literals (`1` for `1.0`).
            ParamType::Float => matches!(value, ParamValue::Float(_) | ParamValue::Int(_)),
            ParamType::U16 => value.as_u64().is_some_and(|v| v <= u16::MAX.into()),
            ParamType::Capacity => value
                .as_u64()
                .is_some_and(|v| (1..=MAX_FLOW_CAPACITY as u64).contains(&v)),
            ParamType::Ipv4 => value
                .as_str()
                .is_some_and(|s| s.parse::<Ipv4Addr>().is_ok()),
            other => value.param_type() == other,
        }
    }
}

/// How many outputs a kind exposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputKind {
    /// A sink: no outgoing edges allowed.
    None,
    /// Exactly one unlabelled outgoing edge.
    Single,
    /// Any number of labelled outgoing edges.
    Labelled,
}

/// Which match-action table a kind accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableKind {
    /// Classifier filter entries.
    Filter,
    /// Routing-table entries.
    Route,
    /// Load-balancer backend entries.
    Backend,
}

impl TableKind {
    pub(super) fn name(self) -> &'static str {
        match self {
            TableKind::Filter => "filter",
            TableKind::Route => "route",
            TableKind::Backend => "backend",
        }
    }
}

/// One typed parameter a kind accepts.
#[derive(Clone, Copy, Debug)]
pub struct ParamSpec {
    /// Parameter name.
    pub name: &'static str,
    /// Expected type.
    pub ty: ParamType,
    /// Whether a description must supply it.
    pub required: bool,
}

const fn opt(name: &'static str, ty: ParamType) -> ParamSpec {
    ParamSpec {
        name,
        ty,
        required: false,
    }
}

const fn req(name: &'static str, ty: ParamType) -> ParamSpec {
    ParamSpec {
        name,
        ty,
        required: true,
    }
}

/// One element kind's schema.
#[derive(Clone, Copy, Debug)]
pub struct ElementSchema {
    /// Registry kind name.
    pub kind: &'static str,
    /// Accepted parameters.
    pub params: &'static [ParamSpec],
    /// Output arity.
    pub output: OutputKind,
    /// Accepted table kinds.
    pub tables: &'static [TableKind],
}

impl ElementSchema {
    /// Type-checks `params` against this schema.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::CfViolation`] on an unknown or mistyped
    /// parameter, or a missing required one.
    pub fn check_params(&self, element: &str, params: &Params) -> Result<()> {
        let rule = |msg: String| Error::CfViolation {
            framework: "desc".to_owned(),
            rule: msg,
        };
        for (key, value) in params {
            let Some(spec) = self.params.iter().find(|s| s.name == key) else {
                return Err(rule(format!(
                    "element `{element}` ({}): unknown parameter `{key}`",
                    self.kind
                )));
            };
            if !spec.ty.accepts(value) {
                return Err(rule(format!(
                    "element `{element}` ({}): `{key}` expects {}",
                    self.kind,
                    spec.ty.name()
                )));
            }
        }
        for spec in self.params.iter().filter(|s| s.required) {
            if !params.contains_key(spec.name) {
                return Err(rule(format!(
                    "element `{element}` ({}): missing required parameter `{}`",
                    self.kind, spec.name
                )));
            }
        }
        // The one cross-knob rule: a NAT's port pool ends inside the
        // port space (`Nat44::new` asserts it).
        if self.kind == "nat44" {
            let defaults = Nat44Config::default();
            let end = get_u64(params, "port_base", defaults.port_base.into())
                + get_u64(params, "blocks", defaults.blocks.into())
                    * get_u64(params, "block_size", defaults.block_size.into());
            if end > 1 << 16 {
                return Err(rule(format!(
                    "element `{element}` (nat44): `port_base` + `blocks` x `block_size` \
                     ends at {end}, past the last port (65536)"
                )));
            }
        }
        Ok(())
    }
}

const SCHEMAS: &[ElementSchema] = &[
    ElementSchema {
        kind: "counter",
        params: &[],
        output: OutputKind::Single,
        tables: &[],
    },
    ElementSchema {
        kind: "discard",
        params: &[],
        output: OutputKind::None,
        tables: &[],
    },
    ElementSchema {
        kind: "tee",
        params: &[],
        output: OutputKind::Labelled,
        tables: &[],
    },
    ElementSchema {
        kind: "classifier",
        params: &[],
        output: OutputKind::Labelled,
        tables: &[TableKind::Filter],
    },
    ElementSchema {
        kind: "route",
        params: &[],
        output: OutputKind::Labelled,
        tables: &[TableKind::Route],
    },
    ElementSchema {
        kind: "conntrack",
        params: &[
            opt("capacity", ParamType::Capacity),
            opt("idle_timeout", ParamType::Int),
            opt("closing_timeout", ParamType::Int),
            opt("syn_timeout", ParamType::Int),
        ],
        output: OutputKind::Single,
        tables: &[],
    },
    ElementSchema {
        kind: "nat44",
        params: &[
            opt("external_ip", ParamType::Ipv4),
            opt("port_base", ParamType::U16),
            opt("blocks", ParamType::U16),
            opt("block_size", ParamType::U16),
            opt("table_capacity", ParamType::Capacity),
            opt("idle_timeout", ParamType::Int),
        ],
        output: OutputKind::Single,
        tables: &[],
    },
    ElementSchema {
        kind: "l4lb",
        params: &[
            req("vip", ParamType::Ipv4),
            req("vport", ParamType::U16),
            opt("capacity", ParamType::Capacity),
            opt("idle_timeout", ParamType::Int),
        ],
        output: OutputKind::Single,
        tables: &[TableKind::Backend],
    },
    ElementSchema {
        kind: "guard",
        params: &[
            opt("byte_threshold", ParamType::Int),
            opt("window_budget", ParamType::Int),
            opt("table_capacity", ParamType::Capacity),
        ],
        output: OutputKind::Single,
        tables: &[],
    },
];

/// Looks up a built-in kind's schema.
pub fn schema_for(kind: &str) -> Option<&'static ElementSchema> {
    SCHEMAS.iter().find(|s| s.kind == kind)
}

/// The registry's kind names, in declaration order.
pub fn known_kinds() -> Vec<&'static str> {
    SCHEMAS.iter().map(|s| s.kind).collect()
}

fn get_u64(params: &Params, key: &str, default: u64) -> u64 {
    params
        .get(key)
        .and_then(ParamValue::as_u64)
        .unwrap_or(default)
}

fn get_f64(params: &Params, key: &str, default: f64) -> f64 {
    params
        .get(key)
        .and_then(ParamValue::as_f64)
        .unwrap_or(default)
}

fn get_ip(params: &Params, key: &str, default: Ipv4Addr) -> Ipv4Addr {
    params
        .get(key)
        .and_then(ParamValue::as_str)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Lowers a checked `(kind, params)` pair to a live element. `sketch`
/// is the shard's byte sketch — the guard reads it, everything else
/// ignores it. Every value [`ElementSchema::check_params`] accepts fits
/// the constructor it reaches here: nothing below truncates, clamps,
/// re-parses or asserts on operator input.
///
/// # Errors
///
/// Fails with [`Error::StaleReference`] on an unknown kind only (the
/// validator rejects these earlier).
pub(super) fn construct(
    kind: &str,
    params: &Params,
    sketch: &Arc<FlowSketch>,
) -> Result<Arc<dyn Component>> {
    Ok(match kind {
        "counter" => Counter::new(),
        "discard" => Discard::new(),
        "tee" => Tee::new(),
        "classifier" => ClassifierEngine::new(),
        "route" => RouteLookup::new(),
        "conntrack" => ConnTracker::with_timeouts(
            get_u64(params, "capacity", 4096) as usize,
            get_u64(params, "idle_timeout", u64::MAX),
            get_u64(params, "closing_timeout", u64::MAX),
            get_u64(params, "syn_timeout", u64::MAX),
        ),
        "nat44" => {
            let defaults = Nat44Config::default();
            let cfg = Nat44Config {
                external_ip: get_ip(params, "external_ip", defaults.external_ip),
                port_base: get_u64(params, "port_base", defaults.port_base.into()) as u16,
                blocks: get_u64(params, "blocks", defaults.blocks.into()) as u16,
                block_size: get_u64(params, "block_size", defaults.block_size.into()) as u16,
                table_capacity: get_u64(params, "table_capacity", defaults.table_capacity as u64)
                    as usize,
                idle_timeout: get_u64(params, "idle_timeout", defaults.idle_timeout),
            };
            Nat44::new(cfg)
        }
        "l4lb" => {
            let vip = get_ip(params, "vip", Ipv4Addr::UNSPECIFIED);
            let vport = get_u64(params, "vport", 0) as u16;
            L4LoadBalancer::new(
                vip,
                vport,
                get_u64(params, "capacity", 4096) as usize,
                get_u64(params, "idle_timeout", u64::MAX),
            )
        }
        "guard" => {
            let defaults = GuardConfig::default();
            let cfg = GuardConfig {
                byte_threshold: get_u64(params, "byte_threshold", defaults.byte_threshold),
                window_budget: get_u64(params, "window_budget", defaults.window_budget),
                table_capacity: get_u64(params, "table_capacity", defaults.table_capacity as u64)
                    as usize,
                ..defaults
            };
            Guard::new(Arc::clone(sketch), cfg)
        }
        other => {
            return Err(Error::StaleReference {
                what: format!("element kind `{other}`"),
            });
        }
    })
}

/// The control section's accepted knobs — all optional; the policy
/// knobs default to [`RebalancePolicy::default`].
pub const CONTROL_PARAMS: &[ParamSpec] = &[
    opt("max_imbalance", ParamType::Float),
    opt("min_samples", ParamType::Int),
    opt("pressure_weight", ParamType::Float),
    opt("decay", ParamType::Float),
    opt("heavy_blend", ParamType::Float),
    opt("cooldown_ticks", ParamType::Int),
    opt("enter", ParamType::Float),
    opt("exit", ParamType::Float),
    opt("arm", ParamType::Int),
    opt("alpha", ParamType::Float),
];

/// Migration-rate cap of a description that names none: every judged
/// turn may migrate.
pub const DEFAULT_COOLDOWN_TICKS: u64 = 0;

/// Validates a control section: known preset name, known + typed +
/// finite knobs, no stage knob the preset does not read, fractions
/// inside `[0, 1]`, a well-ordered band.
///
/// # Errors
///
/// Fails with [`Error::CfViolation`] on unknown, unread, mistyped,
/// non-finite or out-of-range knobs, [`Error::StaleReference`] on an
/// unknown preset name.
pub fn check_control(ctl: &ControlDesc) -> Result<()> {
    // A stage knob (some preset reads it) the named preset does not
    // read; an unknown name is `compile_control`'s to report.
    let named = PRESETS.iter().find(|(preset, _)| *preset == ctl.core);
    let unread = |key: &str| {
        named.is_some_and(|(_, reads)| !reads.contains(&key))
            && PRESETS.iter().any(|(_, reads)| reads.contains(&key))
    };
    for (key, value) in &ctl.params {
        let spec = CONTROL_PARAMS.iter().find(|s| s.name == key);
        let fraction = ["decay", "heavy_blend", "alpha"].contains(&key.as_str());
        let rule = match (spec, value.as_f64()) {
            (None, _) => format!("unknown control parameter `{key}`"),
            _ if unread(key) => format!(
                "control parameter `{key}` is not read by the `{}` preset",
                ctl.core
            ),
            (Some(spec), _) if !spec.ty.accepts(value) => {
                format!("control parameter `{key}` expects {}", spec.ty.name())
            }
            (_, Some(f)) if !f.is_finite() => format!("control parameter `{key}` must be finite"),
            (_, Some(f)) if fraction && !(0.0..=1.0).contains(&f) => {
                format!("control parameter `{key}` must lie in [0, 1], got {f}")
            }
            _ => continue,
        };
        return Err(Error::CfViolation {
            framework: "desc".to_owned(),
            rule,
        });
    }
    // Resolve the name and the band once to fail fast on typos.
    compile_control(ctl).map(|_| ())
}

/// Builds the [`RebalanceController`] a control section selects: the
/// policy knobs fill one [`RebalancePolicy`], the `core` name picks
/// the preset [`core_by_name`] opens the stage knobs of, and
/// `cooldown_ticks` caps the migration rate around it.
///
/// # Errors
///
/// Fails with [`Error::StaleReference`] on an unknown preset name and
/// with [`Error::CfViolation`] when `exit` exceeds `enter`.
pub fn compile_control(ctl: &ControlDesc) -> Result<RebalanceController> {
    let p = &ctl.params;
    let defaults = RebalancePolicy::default();
    let policy = RebalancePolicy {
        max_imbalance: get_f64(p, "max_imbalance", defaults.max_imbalance),
        min_samples: get_u64(p, "min_samples", defaults.min_samples),
        pressure_weight: get_f64(p, "pressure_weight", defaults.pressure_weight),
        decay: get_f64(p, "decay", defaults.decay),
        heavy_blend: get_f64(p, "heavy_blend", defaults.heavy_blend),
    };
    let enter = get_f64(p, "enter", policy.max_imbalance);
    let exit = get_f64(p, "exit", (enter - 0.1).max(1.0).min(enter));
    if exit > enter {
        return Err(Error::CfViolation {
            framework: "desc".to_owned(),
            rule: format!("control band is inverted: `exit` {exit} exceeds `enter` {enter}"),
        });
    }
    let arm = get_u64(p, "arm", 2) as u32;
    let alpha = get_f64(p, "alpha", 0.3);
    let core = core_by_name(&ctl.core, policy, enter, exit, arm, alpha)?;
    let cooldown_ticks = get_u64(p, "cooldown_ticks", DEFAULT_COOLDOWN_TICKS);
    Ok(RebalanceController::with_core(core, cooldown_ticks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_packet::sketch::SketchConfig;

    fn sketch() -> Arc<FlowSketch> {
        Arc::new(FlowSketch::new(SketchConfig::default()))
    }

    #[test]
    fn every_schema_kind_constructs_with_defaults() {
        for schema in SCHEMAS {
            let mut params = Params::new();
            // Required parameters get a plausible value.
            for spec in schema.params.iter().filter(|s| s.required) {
                let v = match spec.ty {
                    ParamType::Int | ParamType::U16 | ParamType::Capacity => ParamValue::Int(443),
                    ParamType::Float => ParamValue::Float(1.0),
                    ParamType::Bool => ParamValue::Bool(true),
                    ParamType::Str | ParamType::Ipv4 => ParamValue::Str("10.0.0.1".into()),
                };
                params.insert(spec.name.to_owned(), v);
            }
            schema.check_params("x", &params).unwrap();
            construct(schema.kind, &params, &sketch())
                .unwrap_or_else(|e| panic!("{} failed: {e}", schema.kind));
        }
    }

    #[test]
    fn float_knobs_accept_int_literals() {
        assert!(ParamType::Float.accepts(&ParamValue::Int(1)));
        assert!(!ParamType::Int.accepts(&ParamValue::Float(1.0)));
    }

    #[test]
    fn control_compiles_each_core_by_name() {
        for core in ["weighted", "hysteresis", "ewma"] {
            let ctl = ControlDesc {
                core: core.into(),
                params: Params::new(),
            };
            let built = compile_control(&ctl).unwrap();
            assert_eq!(built.core_name(), core);
        }
        let bad = ControlDesc {
            core: "banana".into(),
            params: Params::new(),
        };
        assert!(compile_control(&bad).is_err());
    }

    #[test]
    fn control_defaults_come_from_the_policy_and_ranges_are_enforced() {
        let section = |core: &str, knobs: &[(&str, f64)]| ControlDesc {
            core: core.into(),
            params: knobs
                .iter()
                .map(|&(k, v)| (k.to_owned(), ParamValue::Float(v)))
                .collect(),
        };
        let built = compile_control(&section("hysteresis", &[])).unwrap();
        assert_eq!(*built.policy(), RebalancePolicy::default());

        /// Core, knobs, and the rejection's wording (`None` validates).
        type Case<'a> = (&'a str, &'a [(&'a str, f64)], Option<&'a str>);
        let unit = Some("must lie in [0, 1]");
        let cases: &[Case<'_>] = &[
            ("weighted", &[("decay", 1.0), ("heavy_blend", 0.0)], None),
            ("ewma", &[("alpha", 0.0)], None),
            ("hysteresis", &[("enter", 1.5), ("exit", 1.5)], None),
            ("hysteresis", &[("enter", 0.9)], None),
            ("weighted", &[("decay", 1.5)], unit),
            ("weighted", &[("decay", -0.1)], unit),
            ("hysteresis", &[("heavy_blend", 2.0)], unit),
            ("ewma", &[("alpha", 1.01)], unit),
            (
                "hysteresis",
                &[("enter", 1.2), ("exit", 1.5)],
                Some("band is inverted"),
            ),
            (
                "weighted",
                &[("max_imbalance", f64::NAN)],
                Some("must be finite"),
            ),
            (
                "weighted",
                &[("pressure_weight", f64::INFINITY)],
                Some("must be finite"),
            ),
            ("ewma", &[("alpha", f64::NAN)], Some("must be finite")),
            ("weighted", &[("alpha", 0.3)], Some("by the `weighted`")),
            ("hysteresis", &[("alpha", 0.3)], Some("by the `hysteresis`")),
            ("weighted", &[("enter", 1.5)], Some("by the `weighted`")),
            ("weighted", &[("exit", 1.1)], Some("by the `weighted`")),
            ("ewma", &[("arm", 2.0)], Some("by the `ewma`")),
            ("ewma", &[("enter", 1.5)], Some("by the `ewma`")),
        ];
        for &(core, knobs, rejection) in cases {
            let outcome = check_control(&section(core, knobs));
            match rejection {
                None => outcome.unwrap_or_else(|e| panic!("{core} {knobs:?}: {e}")),
                Some(wording) => {
                    let err = outcome.expect_err(wording);
                    assert!(matches!(err, Error::CfViolation { .. }), "{err}");
                    let text = err.to_string();
                    assert!(
                        text.contains(wording) && text.contains(knobs[0].0),
                        "{text}"
                    );
                }
            }
        }
    }
}
