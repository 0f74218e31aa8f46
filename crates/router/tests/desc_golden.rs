//! Golden-file tests for the description layer's stable textual
//! renders: [`PipelineDesc::render`] and [`Patch::render`].
//!
//! The renders are the layer's human-auditable surface — what a
//! operator diffs in review before a reconfiguration ships — so their
//! exact shape is pinned against committed `.golden` files in
//! `tests/testdata/`. After an intentional format change, regenerate
//! with:
//!
//! ```text
//! NETKIT_BLESS=1 cargo test -p netkit_router --test desc_golden
//! ```
//!
//! and commit the refreshed files.

use netkit_router::desc::{diff, PatternDesc, PipelineDesc, TableEntry};

/// Compares `actual` against `tests/testdata/<name>.golden`, or
/// rewrites the file when `NETKIT_BLESS=1` is set.
fn check(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/testdata")
        .join(format!("{name}.golden"));
    if std::env::var_os("NETKIT_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             NETKIT_BLESS=1 cargo test -p netkit_router --test desc_golden",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "render drifted from {}; if intentional, regenerate with \
         NETKIT_BLESS=1 cargo test -p netkit_router --test desc_golden",
        path.display()
    );
}

/// The canonical stateful edge: every description feature except
/// labelled fan-out — params, tables, pins, control.
fn edge_desc() -> PipelineDesc {
    PipelineDesc::new("golden-edge")
        .element_with(
            "guard",
            "guard",
            &[
                ("byte_threshold", (1u64 << 20).into()),
                ("window_budget", (256u64 * 1024).into()),
            ],
        )
        .element_with("ct", "conntrack", &[("capacity", 4_096u64.into())])
        .element_with(
            "nat",
            "nat44",
            &[
                ("external_ip", "192.0.2.1".into()),
                ("port_base", 10_000u16.into()),
            ],
        )
        .element_with(
            "lb",
            "l4lb",
            &[("vip", "10.0.7.9".into()), ("vport", 443u16.into())],
        )
        .element("sink", "discard")
        .ingress("guard")
        .edge("guard", "ct")
        .edge("ct", "nat")
        .edge("nat", "lb")
        .edge("lb", "sink")
        .table(
            "lb",
            TableEntry::Backend {
                ip: "10.1.0.1".to_owned(),
                port: 8080,
            },
        )
        .table(
            "lb",
            TableEntry::Backend {
                ip: "10.1.0.2".to_owned(),
                port: 8080,
            },
        )
        .pin(0, 1)
        .pin(7, 0)
        .control("hysteresis", &[("enter", 1.5.into()), ("exit", 1.2.into())])
}

/// Labelled fan-out through a classifier with a filter table.
fn classified_desc(split: u16) -> PipelineDesc {
    PipelineDesc::new("golden-split")
        .element("cls", "classifier")
        .element("fast", "counter")
        .element("slow", "counter")
        .element("sink", "discard")
        .ingress("cls")
        .edge_labelled("cls", "lo", "fast")
        .edge_labelled("cls", "hi", "slow")
        .edge("fast", "sink")
        .edge("slow", "sink")
        .table(
            "cls",
            TableEntry::Filter {
                pattern: PatternDesc::any().dst_port_range(0, split - 1),
                output: "lo".to_owned(),
                priority: 10,
            },
        )
        .table(
            "cls",
            TableEntry::Filter {
                pattern: PatternDesc::any(),
                output: "hi".to_owned(),
                priority: 0,
            },
        )
}

#[test]
fn pipeline_renders_are_stable() {
    check("desc_edge", &edge_desc().render());
    check("desc_classified", &classified_desc(1_000).render());
}

#[test]
fn canonicalisation_does_not_change_the_render() {
    // render() operates on the canonical form, so a description built
    // in any order renders identically.
    assert_eq!(edge_desc().canonical().render(), edge_desc().render());
}

#[test]
fn param_only_patch_render_is_stable() {
    let v1 = edge_desc();
    let v2 = v1
        .clone()
        .set_param("ct", "capacity", 8_192u64.into())
        .set_param("nat", "port_base", 20_000u16.into());
    check("patch_param_only", &diff(&v1, &v2).render());
}

#[test]
fn structural_patch_render_is_stable() {
    // Retire the NAT stage, rewire around it, re-split the classifier
    // world, and change the control section — every op family in one
    // plan.
    let v1 = edge_desc();
    let v2 = PipelineDesc::new("golden-edge")
        .element_with(
            "guard",
            "guard",
            &[
                ("byte_threshold", (1u64 << 20).into()),
                ("window_budget", (256u64 * 1024).into()),
            ],
        )
        .element_with("ct", "conntrack", &[("capacity", 4_096u64.into())])
        .element_with(
            "lb",
            "l4lb",
            &[("vip", "10.0.7.9".into()), ("vport", 443u16.into())],
        )
        .element("sink", "discard")
        .ingress("guard")
        .edge("guard", "ct")
        .edge("ct", "lb")
        .edge("lb", "sink")
        .table(
            "lb",
            TableEntry::Backend {
                ip: "10.1.0.1".to_owned(),
                port: 8080,
            },
        )
        .table(
            "lb",
            TableEntry::Backend {
                ip: "10.1.0.3".to_owned(),
                port: 8080,
            },
        )
        .pin(0, 1)
        .control("ewma", &[("alpha", 0.25.into())]);
    check("patch_structural", &diff(&v1, &v2).render());
}

#[test]
fn build_plan_render_is_stable() {
    // A build is the patch from nothing, so its plan is an artefact
    // like any other: what the compiler will do, in order, per shard.
    let nothing = PipelineDesc::new("golden-edge");
    check("patch_build", &diff(&nothing, &edge_desc()).render());
}

#[test]
fn table_only_patch_render_is_stable() {
    check(
        "patch_table_only",
        &diff(&classified_desc(1_000), &classified_desc(2_000)).render(),
    );
}
