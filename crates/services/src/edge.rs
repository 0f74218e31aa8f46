//! The stratum-3 **stateful edge**, expressed as a declarative
//! pipeline description.
//!
//! The paper's third stratum acts on *pre-selected flows* — which
//! presupposes an edge that selects them: admission (heavy-hitter
//! [`Guard`](netkit_router::flow::Guard)), connection tracking
//! ([`ConnTracker`](netkit_router::flow::ConnTracker)), and address
//! translation ([`Nat44`](netkit_router::flow::Nat44)). Earlier PRs
//! hand-built that chain per test; this module states it **once** as a
//! [`PipelineDesc`] and compiles it through `netkit_router::desc`, so
//! the services stratum, the benches, and the baselines all run the
//! same edge from the same source of truth — and reconfigure it by
//! diffing descriptions instead of rebuilding graphs.
//!
//! ```
//! use netkit_services::edge::{stateful_edge_desc, EdgeProfile};
//!
//! let desc = stateful_edge_desc(&EdgeProfile::default());
//! desc.validate()?;
//! // A tightened guard is a *param-only* reconfiguration: the diff
//! // replaces one element in place and touches no structure.
//! let tight = stateful_edge_desc(&EdgeProfile {
//!     byte_threshold: 16 * 1024,
//!     ..EdgeProfile::default()
//! });
//! let patch = netkit_router::desc::diff(&desc, &tight);
//! assert!(patch.param_only());
//! # Ok::<(), opencom::error::Error>(())
//! ```

use std::net::Ipv4Addr;
use std::sync::Arc;

use opencom::error::Result;
use opencom::meta::resources::ResourceManager;

use netkit_kernel::shard::ShardSpec;
use netkit_router::desc::{Compiler, DescBinding, PipelineDesc};
use netkit_router::shard::ShardedPipeline;

/// Tuning knobs for the canonical stateful edge.
///
/// Every knob maps to one typed parameter in the description — a
/// changed profile diffs to a param-only patch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeProfile {
    /// Connection-table bound (flows per shard).
    pub conn_capacity: u64,
    /// Guard fast-path byte threshold: flows below it pass untouched.
    pub byte_threshold: u64,
    /// Bytes a heavy flow may push per observation window.
    pub window_budget: u64,
    /// The NAT's external (public) address.
    pub external_ip: Ipv4Addr,
    /// First external port of the NAT pool.
    pub port_base: u16,
    /// NAT port blocks × ports per block = pool size.
    pub nat_blocks: u16,
    /// Ports per NAT block.
    pub nat_block_size: u16,
}

impl Default for EdgeProfile {
    fn default() -> Self {
        Self {
            conn_capacity: 4_096,
            byte_threshold: 1 << 20,
            window_budget: 256 * 1024,
            external_ip: Ipv4Addr::new(192, 0, 2, 1),
            port_base: 10_000,
            nat_blocks: 64,
            nat_block_size: 64,
        }
    }
}

/// The canonical stateful-edge description:
/// `guard → conntrack → nat44 → egress counter → sink`, with a
/// hysteresis decision core driving shard rebalancing.
///
/// The description validates stand-alone (built-in element kinds
/// only), renders deterministically, and is the shared topology the
/// benches compare against the Click and monolithic baselines.
pub fn stateful_edge_desc(p: &EdgeProfile) -> PipelineDesc {
    PipelineDesc::new("stateful-edge")
        .element_with(
            "guard",
            "guard",
            &[
                ("byte_threshold", p.byte_threshold.into()),
                ("window_budget", p.window_budget.into()),
            ],
        )
        .element_with(
            "conntrack",
            "conntrack",
            &[("capacity", p.conn_capacity.into())],
        )
        .element_with(
            "nat",
            "nat44",
            &[
                ("external_ip", p.external_ip.to_string().into()),
                ("port_base", p.port_base.into()),
                ("blocks", p.nat_blocks.into()),
                ("block_size", p.nat_block_size.into()),
            ],
        )
        .element("egress", "counter")
        .element("sink", "discard")
        .ingress("guard")
        .edge("guard", "conntrack")
        .edge("conntrack", "nat")
        .edge("nat", "egress")
        .edge("egress", "sink")
        .control(
            "hysteresis",
            &[
                ("enter", 1.5.into()),
                ("exit", 1.2.into()),
                ("arm", 2u64.into()),
            ],
        )
}

/// Compiles the stateful edge to a [`ShardedPipeline`] of `workers`
/// caller-run replicas ([`ShardSpec::inline`]: the shards' queued jobs
/// run on the thread that flushes, deterministically), returning the pipeline plus
/// the [`DescBinding`] that patches it live.
///
/// # Errors
///
/// Propagates description-validation and capsule failures (none
/// expected for the canonical description).
pub fn build_stateful_edge(
    p: &EdgeProfile,
    workers: usize,
    rm: Arc<ResourceManager>,
) -> Result<(ShardedPipeline, DescBinding)> {
    let desc = stateful_edge_desc(p);
    Compiler::new().build_sharded(&desc, ShardSpec::inline(workers), rm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_packet::packet::{Packet, PacketBuilder};
    use netkit_router::api::PushError;
    use netkit_router::desc::diff;
    use netkit_router::flow::{GuardStats, Nat44Stats};
    use opencom::counters::Tally;
    use std::collections::BTreeMap;

    fn udp(sport: u16) -> Packet {
        PacketBuilder::udp_v4("10.0.0.5", "203.0.113.9", sport, 80)
            .payload_len(64)
            .build()
    }

    #[test]
    fn edge_compiles_and_translates() {
        let (pipe, binding) =
            build_stateful_edge(&EdgeProfile::default(), 1, Arc::new(ResourceManager::new()))
                .unwrap();
        let batch = (0..16).map(|s| udp(5_000 + s)).collect();
        pipe.dispatch(batch);
        pipe.flush();
        assert_eq!(pipe.stats().accepted, 16);
        assert_eq!(pipe.stats().dropped, 0);
        assert_eq!(
            binding.desc().render(),
            stateful_edge_desc(&EdgeProfile::default())
                .canonical()
                .render()
        );
    }

    /// A frame dispatched without an rx record is parsed once, by the
    /// dispatch, however many shards run: the sketch record, guard,
    /// conntrack and NAT44 behind it read the stamp.
    #[cfg(debug_assertions)]
    #[test]
    fn dispatch_parses_each_frame_once_at_every_shard_count() {
        use netkit_packet::flow::parses_on_this_thread as parses;
        for workers in [1, 2] {
            let rm = Arc::new(ResourceManager::new());
            let (pipe, _binding) =
                build_stateful_edge(&EdgeProfile::default(), workers, rm).unwrap();
            let batch = (0..64).map(|s| udp(5_000 + s)).collect();
            let before = parses();
            pipe.dispatch(batch);
            pipe.flush();
            assert_eq!(pipe.stats().accepted, 64);
            assert_eq!(parses() - before, 64, "{workers} shard(s)");
        }
    }

    #[test]
    fn the_guard_limits_a_heavy_flow_at_every_shard_count() {
        // One UDP flow of 200 × 1400-byte frames in ten batches, far
        // past a 16 KiB threshold and window budget: the shard's
        // sketch must see the flow's bytes and its guard must shed
        // most of it, one shard or two.
        let profile = EdgeProfile {
            byte_threshold: 16 * 1024,
            window_budget: 16 * 1024,
            ..EdgeProfile::default()
        };
        for workers in [1, 2] {
            let (pipe, _binding) =
                build_stateful_edge(&profile, workers, Arc::new(ResourceManager::new())).unwrap();
            for _ in 0..10 {
                let batch = (0..20)
                    .map(|_| {
                        PacketBuilder::udp_v4("10.0.0.5", "203.0.113.9", 4_000, 80)
                            .payload_len(1_400)
                            .build()
                    })
                    .collect();
                pipe.dispatch(batch);
                pipe.flush();
            }
            let sketched: u64 = (0..workers)
                .map(|s| pipe.flow_sketch(s).total_bytes())
                .sum();
            assert!(sketched > 0, "workers {workers}: the sketch saw nothing");
            let shed = pipe.drop_stats().guard;
            assert!(shed > 100, "workers {workers}: the guard shed only {shed}");
        }
    }

    #[test]
    fn exhausted_pool_surfaces_the_typed_verdict() {
        let (pipe, _binding) = build_stateful_edge(
            &EdgeProfile {
                nat_blocks: 1,
                nat_block_size: 2,
                ..EdgeProfile::default()
            },
            1,
            Arc::new(ResourceManager::new()),
        )
        .unwrap();
        let entry = pipe.entry(0);
        entry.push(udp(6_001)).unwrap();
        entry.push(udp(6_002)).unwrap();
        let err = entry.push(udp(6_003));
        assert!(matches!(err, Err(PushError::Exhausted(_))), "{err:?}");
    }

    #[test]
    fn profile_tweaks_are_param_only_patches() {
        let base = stateful_edge_desc(&EdgeProfile::default());
        let tight = stateful_edge_desc(&EdgeProfile {
            byte_threshold: 4 * 1024,
            window_budget: 8 * 1024,
            conn_capacity: 512,
            ..EdgeProfile::default()
        });
        let patch = diff(&base, &tight);
        assert!(patch.param_only());
        assert_eq!(patch.structural_ops(), 0);
        // And it applies live.
        let (pipe, mut binding) =
            build_stateful_edge(&EdgeProfile::default(), 2, Arc::new(ResourceManager::new()))
                .unwrap();
        let report = binding.apply_sharded(&pipe, &patch).unwrap();
        assert_eq!(report.structural, 0);
        assert_eq!(report.replaced, 2 * 2, "guard+conntrack on both shards");
    }

    /// Every replica's counters, found by one walk over its capsule's
    /// architecture meta-model with no per-kind code, summed over
    /// shards and keyed `(component type, counter name)`.
    fn walk_counters(pipe: &ShardedPipeline) -> BTreeMap<(String, String), u64> {
        let mut totals = BTreeMap::new();
        for shard in 0..pipe.workers() {
            let capsule = pipe.capsule(shard);
            for id in capsule.arch().component_ids() {
                let component = capsule.component(id).unwrap();
                let kind = &component.core().descriptor().type_name;
                component.core().counters().visit(&mut |name, value| {
                    *totals.entry((kind.clone(), name.to_owned())).or_default() += value;
                });
            }
        }
        totals
    }

    /// The sum over shards of every `kind` component's typed read of
    /// its counters — what that element's `stats()` returns.
    fn typed_sum<T: Tally>(pipe: &ShardedPipeline, kind: &str) -> T {
        let mut sum = T::default();
        for shard in 0..pipe.workers() {
            let capsule = pipe.capsule(shard);
            for id in capsule.arch().component_ids() {
                let component = capsule.component(id).unwrap();
                if component.core().descriptor().type_name == kind {
                    let one = named(component.core().counters().read::<T>());
                    sum.each(|i, v| *v += one[i].1);
                }
            }
        }
        sum
    }

    /// A tally's fields as `(name, value)`, in declaration order.
    fn named<T: Tally>(mut t: T) -> Vec<(&'static str, u64)> {
        let mut out = Vec::new();
        t.each(|i, v| out.push((T::NAMES[i], *v)));
        out
    }

    #[test]
    fn one_walk_finds_every_counter_of_a_sharded_edge() {
        // A pool of 8 ports, so new flows past it exhaust; a threshold
        // one heavy flow crosses; inbound frames with no binding;
        // frames with no flow identity.
        let profile = EdgeProfile {
            byte_threshold: 16 * 1024,
            window_budget: 16 * 1024,
            nat_blocks: 1,
            nat_block_size: 8,
            ..EdgeProfile::default()
        };
        let (pipe, binding) =
            build_stateful_edge(&profile, 2, Arc::new(ResourceManager::new())).unwrap();
        let mut ctl = binding.controller().unwrap().expect("control block set");
        for round in 0..6u16 {
            let mut batch: Vec<Packet> = (0..16).map(|s| udp(5_000 + round * 16 + s)).collect();
            batch.extend((0..12).map(|_| {
                PacketBuilder::udp_v4("10.0.0.5", "203.0.113.9", 4_000, 80)
                    .payload_len(1_400)
                    .build()
            }));
            batch.push(PacketBuilder::udp_v4("198.51.100.7", "192.0.2.1", 53, 10_999).build());
            batch.push(Packet::from_slice(&[0u8; 60]));
            pipe.dispatch(batch.into_iter().collect());
            pipe.flush();
            pipe.control_turn(&mut ctl, &[]);
        }
        let walked = walk_counters(&pipe);
        let at = |kind: &str, name: &str| walked[&(kind.to_owned(), name.to_owned())];

        // Every counting element of the edge is found, each counter by
        // name, and nothing else counts.
        let counting: [(&str, &[&str]); 5] = [
            ("netkit.ConnTracker", &["untracked"]),
            ("netkit.Counter", &["packets", "bytes"]),
            ("netkit.Discard", &["packets"]),
            ("netkit.Guard", GuardStats::NAMES),
            ("netkit.Nat44", Nat44Stats::NAMES),
        ];
        let mut want: Vec<(String, String)> = counting
            .iter()
            .flat_map(|(kind, names)| names.iter().map(|n| (kind.to_string(), n.to_string())))
            .collect();
        want.sort();
        assert_eq!(walked.keys().cloned().collect::<Vec<_>>(), want);

        // Each walked total is the sum over shards of the element's
        // named stats fields.
        let guard: GuardStats = typed_sum(&pipe, "netkit.Guard");
        let nat: Nat44Stats = typed_sum(&pipe, "netkit.Nat44");
        for (kind, fields) in [("netkit.Guard", named(guard)), ("netkit.Nat44", named(nat))] {
            for (name, value) in fields {
                assert_eq!(at(kind, name), value, "{kind} {name}");
            }
        }

        // And the totals agree with what the pipeline saw: 6 rounds of
        // 30 frames, one window closed per guard per turn.
        let accepted = pipe.stats().accepted;
        assert_eq!(at("netkit.Counter", "packets"), accepted);
        assert_eq!(at("netkit.Discard", "packets"), accepted);
        assert_eq!(
            guard.passed + guard.budgeted + guard.limited + guard.syn_dropped,
            6 * 30
        );
        assert_eq!(guard.limited + guard.syn_dropped, pipe.drop_stats().guard);
        assert!(guard.limited > 0 && guard.budgeted > 0);
        assert_eq!(guard.windows, 6 * 2);
        assert_eq!(at("netkit.ConnTracker", "untracked"), 6);
        assert_eq!((nat.passthrough, nat.unbound), (6, 6));
        assert!(nat.exhausted > 0 && nat.translated_out > 0);
        let nat_total =
            nat.translated_out + nat.translated_in + nat.passthrough + nat.exhausted + nat.unbound;
        assert_eq!(nat_total, guard.passed + guard.budgeted);
    }

    #[test]
    fn edge_selects_the_hysteresis_core() {
        let desc = stateful_edge_desc(&EdgeProfile::default());
        let (_, binding) = Compiler::new()
            .build_sharded(
                &desc,
                ShardSpec::inline(1),
                Arc::new(ResourceManager::new()),
            )
            .unwrap();
        let ctl = binding.controller().unwrap().expect("control block set");
        assert_eq!(ctl.core_name(), "hysteresis");
    }
}
