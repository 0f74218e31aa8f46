//! Differential property test for the description layer: the
//! incremental-control-plane correctness contract.
//!
//! For random description pairs `(d1, d2)` drawn from a family of
//! classifier-split pipelines (a counter chain on one branch, an
//! optional guard → conntrack → NAT44 service chain on the other),
//! `apply(diff(d1, d2))` on a **live** pipeline — one that has already
//! carried traffic under `d1` — must be packet-equivalent to a fresh
//! build of `d2`: identical per-output packet *sequences* (which
//! subsumes per-output multisets and per-flow order), identical
//! accept/drop verdict counts, no loss, no duplication. A second
//! property pins the hot-path promise the reconfiguration bench
//! prices: a param-only pair produces a patch with **zero** structural
//! ops that applies without a quiesce epoch.
//!
//! Both properties run on **both executors** — the threaded worker
//! pool and the inline one the simulator drives — through the one
//! `apply_sharded`; the epoch receipts must read the same on each
//! (structural: exactly one, param-only: zero).
//!
//! The family is built so the contract is exact rather than merely
//! probable: guard thresholds sit far above what the probe traffic can
//! accumulate, conntrack capacity far above the flow count, and the
//! NAT pool far above the flow universe — so surviving state in
//! elements the patch does not touch (the whole point of incremental
//! apply) cannot diverge observably from a fresh instance, whose
//! deterministic allocator hands the same flows the same ports.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use netkit_kernel::shard::ShardSpec;
use netkit_packet::batch::PacketBatch;
use netkit_packet::packet::{Packet, PacketBuilder};
use netkit_router::api::{
    BatchResult, FilterPattern, IClassifier, IPacketPush, PushResult, ICLASSIFIER, IPACKET_PUSH,
};
use netkit_router::desc::{diff, Compiler, DescBinding, ElementHandle, PipelineDesc, TableEntry};
use netkit_router::shard::ShardedPipeline;
use opencom::component::{Component, ComponentCore, ComponentDescriptor, Registrar};
use opencom::ident::Version;
use opencom::meta::resources::ResourceManager;
use opencom::receptacle::Receptacle;
use parking_lot::Mutex;

// ---- recording sink (external element kind) ------------------------------

/// Terminal element that records every packet it receives, in arrival
/// order, so two pipelines' per-output sequences can be compared.
struct Collector {
    core: ComponentCore,
    inbox: Mutex<Vec<Packet>>,
}

impl Collector {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            core: ComponentCore::new(ComponentDescriptor::new(
                "netkit.test.DiffCollector",
                Version::new(1, 0, 0),
            )),
            inbox: Mutex::new(Vec::new()),
        })
    }

    fn drain(&self) -> Vec<Packet> {
        std::mem::take(&mut *self.inbox.lock())
    }
}

impl IPacketPush for Collector {
    fn push(&self, pkt: Packet) -> PushResult {
        self.inbox.lock().push(pkt);
        Ok(())
    }

    fn push_batch(&self, mut batch: PacketBatch) -> BatchResult {
        let n = batch.len();
        self.inbox.lock().extend(batch.drain_all());
        BatchResult::ok(n)
    }
}

impl Component for Collector {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
    }
    fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

// ---- the description family ----------------------------------------------

/// One point in the description family. Every field change is
/// expressible as a diff: `split` is a classifier-table delta,
/// `counters` adds/removes chain elements, the three service options
/// toggle structure, and their payloads are hot param swaps.
#[derive(Clone, Debug, PartialEq, Eq)]
struct DescSpec {
    /// Classifier split: dports below this go to the `lo` branch.
    split: u16,
    /// Pass-through counters on the `lo` branch (0..=2).
    counters: usize,
    /// Guard on the `hi` branch, with this byte threshold.
    guard: Option<u64>,
    /// Conntrack on the `hi` branch, with this capacity.
    conntrack: Option<u64>,
    /// NAT44 on the `hi` branch, with this external port base.
    nat: Option<u16>,
}

impl DescSpec {
    /// The structural skeleton — two specs with equal skeletons must
    /// diff to a param-only patch.
    fn skeleton(&self) -> (usize, bool, bool, bool) {
        (
            self.counters,
            self.guard.is_some(),
            self.conntrack.is_some(),
            self.nat.is_some(),
        )
    }
}

/// Renders a spec as a validated [`PipelineDesc`]: classifier ingress
/// splitting on dport, `lo` → counter chain → recording sink, `hi` →
/// optional guard/conntrack/NAT44 → recording sink.
fn describe(s: &DescSpec) -> PipelineDesc {
    let mut d = PipelineDesc::new("diffprop")
        .element("cls", "classifier")
        .element("sink_lo", "sink_lo")
        .element("sink_hi", "sink_hi")
        .ingress("cls")
        .table(
            "cls",
            TableEntry::Filter {
                pattern: FilterPattern::any().dst_port_range(0, s.split - 1),
                output: "lo".to_owned(),
                priority: 10,
            },
        )
        .table(
            "cls",
            TableEntry::Filter {
                pattern: FilterPattern::any(),
                output: "hi".to_owned(),
                priority: 0,
            },
        );

    // lo branch: cls/lo -> lo0 -> .. -> sink_lo
    let lo_chain: Vec<String> = (0..s.counters).map(|i| format!("lo{i}")).collect();
    for name in &lo_chain {
        d = d.element(name, "counter");
    }
    d = wire(d, "lo", &lo_chain, "sink_lo");

    // hi branch: cls/hi -> [guard] -> [ct] -> [nat] -> sink_hi
    let mut hi_chain: Vec<String> = Vec::new();
    if let Some(threshold) = s.guard {
        d = d.element_with(
            "guard",
            "guard",
            &[
                ("byte_threshold", threshold.into()),
                ("window_budget", threshold.into()),
            ],
        );
        hi_chain.push("guard".to_owned());
    }
    if let Some(capacity) = s.conntrack {
        d = d.element_with("ct", "conntrack", &[("capacity", capacity.into())]);
        hi_chain.push("ct".to_owned());
    }
    if let Some(port_base) = s.nat {
        d = d.element_with(
            "nat",
            "nat44",
            &[
                ("external_ip", "192.0.2.1".into()),
                ("port_base", port_base.into()),
            ],
        );
        hi_chain.push("nat".to_owned());
    }
    wire(d, "hi", &hi_chain, "sink_hi")
}

/// Wires `cls --label--> nodes[0] -> .. -> sink` (or straight to the
/// sink for an empty chain).
fn wire(mut d: PipelineDesc, label: &str, nodes: &[String], sink: &str) -> PipelineDesc {
    match nodes.first() {
        None => d.edge_labelled("cls", label, sink),
        Some(first) => {
            d = d.edge_labelled("cls", label, first);
            for w in nodes.windows(2) {
                d = d.edge(&w[0], &w[1]);
            }
            d.edge(&nodes[nodes.len() - 1], sink)
        }
    }
}

fn spec_strategy() -> impl Strategy<Value = DescSpec> {
    (
        prop_oneof![Just(1_000u16), Just(2_000u16)],
        0usize..=2,
        prop_oneof![Just(None), Just(Some(1u64 << 20)), Just(Some(2u64 << 20))],
        prop_oneof![Just(None), Just(Some(1_024u64)), Just(Some(4_096u64))],
        prop_oneof![Just(None), Just(Some(10_000u16)), Just(Some(20_000u16))],
    )
        .prop_map(|(split, counters, guard, conntrack, nat)| DescSpec {
            split,
            counters,
            guard,
            conntrack,
            nat,
        })
}

// ---- traffic --------------------------------------------------------------

/// A packet draw: one of six flows (distinct sports) headed to one of
/// three dports, chosen to land below/above/astride the two possible
/// classifier splits.
fn traffic_strategy() -> impl Strategy<Value = Vec<(u8, u8)>> {
    proptest::collection::vec((0u8..6, 0u8..3), 0..32)
}

fn packet(flow: u8, dport_sel: u8) -> Packet {
    let dport = [500u16, 1_500, 2_500][usize::from(dport_sel) % 3];
    PacketBuilder::udp_v4(
        "10.0.0.5",
        "203.0.113.9",
        5_000 + u16::from(flow % 6),
        dport,
    )
    .payload_len(32 + usize::from(flow % 6) * 8)
    .build()
}

fn batch_of(draws: &[(u8, u8)]) -> PacketBatch {
    draws.iter().map(|&(f, p)| packet(f, p)).collect()
}

/// Observable identity of an egressed packet: the full frame (NAT
/// rewrites change it, so allocation must agree too).
fn prints(pkts: Vec<Packet>) -> Vec<Vec<u8>> {
    pkts.into_iter().map(|p| p.data().to_vec()).collect()
}

// ---- rigs ------------------------------------------------------------------

/// `ShardSpec::new` or `ShardSpec::inline`: how a property names where
/// its shards run.
type Build = fn(usize) -> ShardSpec;

struct Rig {
    pipe: ShardedPipeline,
    binding: DescBinding,
    lo: Arc<Collector>,
    hi: Arc<Collector>,
}

impl Rig {
    /// Runs `draws` through the pipeline to completion.
    fn run(&self, draws: &[(u8, u8)]) {
        self.pipe.dispatch(batch_of(draws));
        self.pipe.flush();
    }
}

fn compile(build: Build, desc: &PipelineDesc) -> Rig {
    let lo = Collector::new();
    let hi = Collector::new();
    let lo_slot = Arc::clone(&lo);
    let hi_slot = Arc::clone(&hi);
    let compiler = Compiler::new()
        .external("sink_lo", move |_shard| {
            (
                Arc::clone(&lo_slot) as Arc<dyn Component>,
                ElementHandle::Plain,
            )
        })
        .external("sink_hi", move |_shard| {
            (
                Arc::clone(&hi_slot) as Arc<dyn Component>,
                ElementHandle::Plain,
            )
        });
    let (pipe, binding) = compiler
        .build_sharded(desc, build(1), Arc::new(ResourceManager::new()))
        .expect("family descriptions always compile");
    Rig {
        pipe,
        binding,
        lo,
        hi,
    }
}

// ---- properties ------------------------------------------------------------

/// `apply(diff(d1, d2))` on a live, warmed-up pipeline is
/// packet-equivalent to a fresh build of `d2` — on placement `build`.
fn check_patched_matches_fresh(
    build: Build,
    s1: &DescSpec,
    s2: &DescSpec,
    warmup: &[(u8, u8)],
    probe: &[(u8, u8)],
) {
    let d1 = describe(s1);
    let d2 = describe(s2);

    // Live pipeline: built from d1, carries warm-up traffic first
    // so element state (counters, conntrack entries, NAT bindings,
    // guard byte evidence) exists when the patch lands.
    let mut live = compile(build, &d1);
    live.run(warmup);
    let warm_lo = prints(live.lo.drain()).len();
    let warm_hi = prints(live.hi.drain()).len();
    let pre = live.pipe.stats();
    // No loss, no duplication during warm-up either.
    prop_assert_eq!(pre.accepted as usize, warm_lo + warm_hi);
    prop_assert_eq!(pre.packets as usize, warmup.len());

    let patch = live
        .binding
        .diff_to(&d2)
        .expect("family pairs are diffable");
    let report = live
        .binding
        .apply_sharded(&live.pipe, &patch)
        .expect("family patches apply");

    // Reference: a cold build of d2.
    let fresh = compile(build, &d2);

    live.run(probe);
    fresh.run(probe);

    // Identical per-output packet sequences (subsumes multiset and
    // per-flow-order equality) and identical verdict tallies.
    prop_assert_eq!(prints(live.lo.drain()), prints(fresh.lo.drain()));
    prop_assert_eq!(prints(live.hi.drain()), prints(fresh.hi.drain()));
    let post = live.pipe.stats();
    let refr = fresh.pipe.stats();
    prop_assert_eq!(post.accepted - pre.accepted, refr.accepted);
    prop_assert_eq!(post.dropped - pre.dropped, refr.dropped);

    // Same-skeleton pairs must have patched hot: no structure, no
    // quiesce epochs.
    if s1.skeleton() == s2.skeleton() {
        prop_assert!(
            patch.param_only(),
            "skeleton-equal pair produced structure:\n{}",
            patch.render()
        );
        prop_assert_eq!(report.structural, 0);
        prop_assert_eq!(report.epochs, 0);
    }
    // The epoch receipt reads the same on either executor: one window
    // for a patch that needs the workers parked, none otherwise.
    prop_assert_eq!(report.epochs, u64::from(patch.requires_quiesce()));

    // Convergence: the binding's view now *is* d2 — re-diffing is
    // a no-op.
    prop_assert!(diff(&live.binding.desc(), &d2).is_empty());
}

/// Param-only pairs — same skeleton, every knob flipped — produce a
/// patch with zero structural ops that applies without a quiesce and
/// swaps exactly the parameterised elements — on placement `build`.
fn check_param_only_is_hot(build: Build, s1: &DescSpec, traffic: &[(u8, u8)]) {
    let s2 = DescSpec {
        split: if s1.split == 1_000 { 2_000 } else { 1_000 },
        counters: s1.counters,
        guard: s1
            .guard
            .map(|t| if t == 1 << 20 { 2 << 20 } else { 1 << 20 }),
        conntrack: s1.conntrack.map(|c| if c == 1_024 { 4_096 } else { 1_024 }),
        nat: s1.nat.map(|p| if p == 10_000 { 20_000 } else { 10_000 }),
    };
    let d1 = describe(s1);
    let d2 = describe(&s2);

    let mut live = compile(build, &d1);
    live.run(traffic);

    let patch = live.binding.diff_to(&d2).expect("param tweaks diff");
    prop_assert!(patch.param_only());
    prop_assert_eq!(patch.structural_ops(), 0);
    // The ingress element is untouched, so not even the
    // entry-swap quiesce applies.
    prop_assert!(!patch.requires_quiesce());

    let report = live
        .binding
        .apply_sharded(&live.pipe, &patch)
        .expect("param-only patches apply");
    prop_assert_eq!(report.structural, 0);
    prop_assert_eq!(report.epochs, 0);
    prop_assert_eq!(report.entry_swaps, 0);
    // Exactly the parameterised service elements were hot-swapped
    // (one shard), and the split change is two table ops
    // (delete old filter, install new).
    let parameterised = usize::from(s1.guard.is_some())
        + usize::from(s1.conntrack.is_some())
        + usize::from(s1.nat.is_some());
    prop_assert_eq!(report.replaced, parameterised);
    prop_assert_eq!(report.table_ops, 2);

    // And the patched pipeline still forwards: a probe flow lands
    // in the branch the *new* split dictates.
    live.lo.drain();
    live.hi.drain();
    live.run(&[(0, 1)]); // dport 1500
    let lo_got = live.lo.drain().len();
    let hi_got = live.hi.drain().len();
    if s2.split == 2_000 {
        prop_assert_eq!((lo_got, hi_got), (1, 0));
    } else {
        prop_assert_eq!((lo_got, hi_got), (0, 1));
    }
}

/// One shard's object map read back from the live graph, in
/// description terms: element names with the component type each
/// compiled to, the bound edges, and each classifier's filter table.
/// Everything comes from the capsule's meta-models and the elements'
/// own control interfaces; the binding contributes only name → id.
fn object_map(binding: &DescBinding, desc: &PipelineDesc, shard: usize) -> Vec<String> {
    binding
        .with_shard(shard, |cs| {
            let arch = cs.capsule().arch();
            let mut name_of = std::collections::BTreeMap::new();
            let mut map = Vec::new();
            for name in desc.elements.keys() {
                let id = cs.id_of(name).expect("every described element is live");
                let kind = arch
                    .component(id)
                    .unwrap()
                    .core()
                    .descriptor()
                    .type_name
                    .clone();
                map.push(format!("element {name}: {kind}"));
                name_of.insert(id, name.clone());
                let classifier = cs.capsule().query_interface(id, ICLASSIFIER).ok();
                if let Some(cls) = classifier.and_then(|i| i.downcast::<dyn IClassifier>()) {
                    let mut filters: Vec<_> = cls
                        .filters()
                        .into_iter()
                        .map(|(_, f)| format!("filter {name}: {f:?}"))
                        .collect();
                    filters.sort();
                    map.extend(filters);
                }
            }
            assert_eq!(arch.component_count(), name_of.len(), "nothing undescribed");
            let mut edges: Vec<_> = arch
                .binding_records()
                .iter()
                .map(|b| {
                    format!(
                        "edge {}[{}] -> {}",
                        name_of[&b.src], b.label, name_of[&b.dst]
                    )
                })
                .collect();
            edges.sort();
            map.extend(edges);
            map
        })
        .expect("shard is compiled")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A build is the patch from nothing, and a patch is a build that
    /// started somewhere: `build(d0)` then `apply(diff(d0, d))` leaves
    /// every shard with the object map `build(d)` produces.
    #[test]
    fn patched_object_map_equals_the_fresh_builds(
        s0 in spec_strategy(),
        s in spec_strategy(),
    ) {
        let (d0, d) = (describe(&s0), describe(&s));
        let mut live = compile(ShardSpec::inline, &d0);
        let patch = live.binding.diff_to(&d).expect("family pairs are diffable");
        live.binding.apply_sharded(&live.pipe, &patch).expect("family patches apply");
        let fresh = compile(ShardSpec::inline, &d);
        prop_assert_eq!(live.binding.desc(), fresh.binding.desc());
        prop_assert_eq!(
            object_map(&live.binding, &d, 0),
            object_map(&fresh.binding, &d, 0)
        );
    }

    #[test]
    fn patched_live_pipeline_matches_fresh_build(
        s1 in spec_strategy(),
        s2 in spec_strategy(),
        warmup in traffic_strategy(),
        probe in traffic_strategy(),
    ) {
        check_patched_matches_fresh(ShardSpec::inline, &s1, &s2, &warmup, &probe);
        check_patched_matches_fresh(ShardSpec::new, &s1, &s2, &warmup, &probe);
    }

    #[test]
    fn param_only_pairs_never_touch_structure(
        s1 in spec_strategy(),
        traffic in traffic_strategy(),
    ) {
        check_param_only_is_hot(ShardSpec::inline, &s1, &traffic);
        check_param_only_is_hot(ShardSpec::new, &s1, &traffic);
    }
}

/// Regression: a description-compiled `Guard` reads the sketch its
/// shard's handler meters, on either executor. (The threaded compile
/// path used to hand every guard a private sketch nobody fed, so a
/// described guard on the real dataplane could never rate-limit.)
#[test]
fn described_guard_rate_limits_alike_on_both_executors() {
    const ELEPHANT: u16 = 7_000;
    const MICE: u16 = 8;
    const ROUNDS: u16 = 8;

    fn guard_drops(build: Build) -> u64 {
        let sinks: Vec<Arc<Collector>> = (0..2).map(|_| Collector::new()).collect();
        let slots = sinks.clone();
        let compiler = Compiler::new().external("sink", move |shard| {
            (
                Arc::clone(&slots[shard]) as Arc<dyn Component>,
                ElementHandle::Plain,
            )
        });
        let desc = PipelineDesc::new("guarded")
            .element_with(
                "guard",
                "guard",
                &[
                    ("byte_threshold", 4_096u64.into()),
                    ("window_budget", 4_096u64.into()),
                ],
            )
            .element("sink", "sink")
            .ingress("guard")
            .edge("guard", "sink");
        let (pipe, _binding) = compiler
            .build_sharded(&desc, build(2), Arc::new(ResourceManager::new()))
            .expect("guarded description compiles");

        // One elephant (8 × 1 000-byte payloads a round, far past the
        // threshold) among mice that stay two orders below it.
        let flow = |sport: u16, payload: usize| {
            PacketBuilder::udp_v4("10.0.0.5", "203.0.113.9", sport, 80)
                .payload_len(payload)
                .build()
        };
        for _ in 0..ROUNDS {
            let batch: PacketBatch = (0..8)
                .map(|_| flow(ELEPHANT, 1_000))
                .chain((0..MICE).map(|m| flow(5_000 + m, 32)))
                .collect();
            pipe.dispatch(batch);
            pipe.flush();
        }

        let (stats, drops) = (pipe.stats(), pipe.drop_stats());
        assert!(drops.guard > 0, "the metered elephant must be limited");
        assert_eq!(drops.total(), stats.dropped);
        assert_eq!(drops.guard, stats.dropped, "only the guard drops here");
        let delivered: Vec<Packet> = sinks.iter().flat_map(|s| s.drain()).collect();
        let mice = delivered
            .iter()
            .filter(|p| p.udp_v4().expect("udp").src_port != ELEPHANT)
            .count();
        assert_eq!(mice, usize::from(MICE * ROUNDS), "mice pass untouched");
        assert_eq!(delivered.len() as u64, stats.accepted);
        drops.guard
    }

    assert_eq!(
        guard_drops(ShardSpec::new),
        guard_drops(ShardSpec::inline),
        "byte-accurate admission does not depend on who runs the shard"
    );
}

/// A pass-through ingress that kills its worker once, when armed.
struct Tripwire {
    core: ComponentCore,
    out: Receptacle<dyn IPacketPush>,
    armed: Arc<AtomicBool>,
}

impl IPacketPush for Tripwire {
    fn push(&self, pkt: Packet) -> PushResult {
        if self.armed.swap(false, Ordering::SeqCst) {
            panic!("injected fault");
        }
        self.out.with_bound(|next| next.push(pkt)).unwrap_or(Ok(()))
    }
}

impl Component for Tripwire {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
        reg.receptacle(&self.out);
    }
}

/// Regression (crash x patch): a replica respawned after a patch is
/// the *patched* description, not the one the pipeline was built with
/// — so every shard still answers to the binding, and the next patch
/// applies on all of them. Threaded here; caller-run shards die and
/// respawn through the same `health_turn` (see `proptest_chaos.rs`).
#[test]
fn a_respawned_replica_is_the_description_in_force() {
    let armed = Arc::new(AtomicBool::new(false));
    let trip = Arc::clone(&armed);
    let compiler = Compiler::new().external("tripwire", move |_shard| {
        let ingress = Arc::new(Tripwire {
            core: ComponentCore::new(ComponentDescriptor::new(
                "netkit.test.Tripwire",
                Version::new(1, 0, 0),
            )),
            out: Receptacle::single("out", IPACKET_PUSH),
            armed: Arc::clone(&trip),
        });
        (ingress as Arc<dyn Component>, ElementHandle::Plain)
    });
    let built = PipelineDesc::new("crash-x-patch")
        .element("in", "tripwire")
        .element_with("ct", "conntrack", &[("capacity", 1_024u64.into())])
        .element("sink", "discard")
        .ingress("in")
        .edge("in", "ct")
        .edge("ct", "sink");
    // Splice a counter in behind the tracker, and resize the tracker.
    let patched = PipelineDesc::new("crash-x-patch")
        .element("in", "tripwire")
        .element_with("ct", "conntrack", &[("capacity", 4_096u64.into())])
        .element("extra", "counter")
        .element("sink", "discard")
        .ingress("in")
        .edge("in", "ct")
        .edge("ct", "extra")
        .edge("extra", "sink");
    let (pipe, mut binding) = compiler
        .build_sharded(&built, ShardSpec::new(2), Arc::new(ResourceManager::new()))
        .expect("description compiles");
    let patch = binding.diff_to(&patched).unwrap();
    assert_eq!(
        binding.apply_sharded(&pipe, &patch).unwrap().shards_touched,
        2
    );

    // Kill shard 1, and let one health turn bring it back.
    armed.store(true, Ordering::SeqCst);
    pipe.submit(1, batch_of(&[(0, 0)])).unwrap();
    while pipe.worker_alive(1) == Some(true) {
        std::thread::yield_now();
    }
    let recovery = pipe.health_turn().unwrap().expect("a dead shard");
    assert_eq!(recovery.respawned, vec![1]);

    for shard in 0..2 {
        let spliced = binding.with_shard(shard, |cs| cs.id_of("extra").is_some());
        assert_eq!(
            spliced,
            Some(true),
            "shard {shard} holds the spliced counter"
        );
    }
    assert_eq!(binding.desc(), patched.canonical());
    // The reverse patch finds what it names on every shard.
    let reverse = binding.diff_to(&built).unwrap();
    let report = binding
        .apply_sharded(&pipe, &reverse)
        .expect("applies cleanly");
    assert_eq!((report.shards_touched, report.epochs), (2, 1));
    assert_eq!(binding.desc(), built.canonical());
    pipe.dispatch(batch_of(&[(0, 0), (1, 1), (2, 2)]));
    pipe.flush();
    assert_eq!(pipe.stats().accepted, 3, "both shards forward again");
    pipe.shutdown();
}
