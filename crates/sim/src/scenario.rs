//! City-scale scenarios: seeded, reproducible runs of real dataplanes
//! over generated topologies.
//!
//! [`run_city`] composes everything this crate and the dataplane
//! crates provide into one seeded call: a
//! [`random_connected`] topology
//! whose every node is a [`PipelineNode`] hosting the full stateful
//! chain (conntrack → heavy-hitter guard → stratum-3 media filter),
//! next-hop routing over the generated graph, three seeded traffic
//! phases (diurnal base load, a flash crowd colocated onto one shard
//! of one hot node, an elephant/mice wave), and the autonomous
//! per-node [`RebalanceController`] loop running from simulated time.
//! The returned [`ScenarioReport`] carries exact conservation books,
//! the hot node's skew-recovery ratio across the flash phase, and a
//! fingerprint folding every counter, meter, and steering table in the
//! city — two runs with the same [`CityConfig`] produce the same
//! fingerprint bit for bit.
//!
//! Modelled vs executed: traffic, links, clocks, and routing are
//! *modelled* (seeded generators, the event heap); every packet's path
//! through a node is *executed* by the real element graphs — the same
//! components, verdicts, meters, and control decisions production
//! runs: the threaded driver's own
//! [`ShardedPipeline`](netkit_router::shard::ShardedPipeline), on
//! caller slots.
//!
//! # Examples
//!
//! A three-node flash crowd, recovered by the per-node control loop:
//!
//! ```
//! use netkit_sim::scenario::{run_city, CityConfig};
//!
//! let mut cfg = CityConfig::small(7);
//! cfg.nodes = 3;
//! cfg.source_stride = 1;
//! let report = run_city(&cfg);
//! // Exact conservation across every node, link, and element graph.
//! assert!(report.conserved());
//! assert_eq!(
//!     report.injected,
//!     report.delivered + report.link_drops + report.node_drops
//! );
//! // The hot node's controller migrated buckets on its own and the
//! // flash-phase shard imbalance recovered.
//! assert!(report.hot_migrations >= 1);
//! assert!(report.skew_recovery() > 1.0);
//! // Same seed, same city, bit for bit.
//! assert_eq!(report.fingerprint, run_city(&cfg).fingerprint);
//! ```

use std::net::Ipv4Addr;
use std::sync::Arc;

use netkit_kernel::shard::ShardSpec;
use netkit_packet::flow::FlowKey;
use netkit_packet::packet::{Packet, PacketBuilder};
use netkit_packet::steer::BucketMap;
use netkit_router::api::IPACKET_PUSH;
use netkit_router::flow::{ConnTracker, Guard, GuardConfig};
use netkit_router::shard::{RebalanceController, RebalancePolicy, ShardGraph};
use netkit_services::media::{annotate_gop, DropLevel, FrameDropFilter};
use parking_lot::Mutex;

use crate::pipeline::{PipelineNode, RouteAction};
use crate::topology::{next_hops, node_addr, random_connected};
use crate::traffic::{Delayed, DiurnalGen, ElephantMiceGen, FlashCrowdGen, PacketFactory};
use crate::{LinkSpec, Simulator};
use netkit_kernel::time::SimTime;

/// Everything one seeded city run needs. Start from
/// [`CityConfig::small`] (the default-lane shape) or
/// [`CityConfig::city`] (the thousand-node soak) and override fields.
#[derive(Clone, Debug)]
pub struct CityConfig {
    /// Master seed: topology, gap draws, and population mixes all
    /// derive from it.
    pub seed: u64,
    /// Topology size (`node_addr` addressing caps this at 65 536).
    pub nodes: usize,
    /// Shard replicas per node.
    pub shards_per_node: usize,
    /// Extra-edge probability for the random connected topology.
    pub extra_link_p: f64,
    /// Every `source_stride`-th node attaches the three-phase source
    /// stack (1 = every node).
    pub source_stride: usize,
    /// Ports the mice population fans over per source — the knob that
    /// sets the simulated-flow count.
    pub mice_fan: u16,
    /// Distinct colocated flash flows per source.
    pub flash_flows: usize,
    /// Packets per source in the diurnal phase.
    pub diurnal_packets: u64,
    /// Packets per source in the flash phase.
    pub flash_packets: u64,
    /// Packets per source in the elephant/mice phase.
    pub elephant_packets: u64,
    /// Base inter-packet gap for every generator.
    pub base_interval_ns: u64,
    /// Diurnal period.
    pub diurnal_period_ns: u64,
    /// Diurnal amplitude (0..0.95).
    pub diurnal_amplitude: f64,
    /// Flash-crowd onset, in emitted time.
    pub flash_onset_ns: u64,
    /// Flash-crowd window length.
    pub flash_duration_ns: u64,
    /// Rate multiplier inside the flash window.
    pub flash_spike: u64,
    /// Start of the elephant/mice wave.
    pub elephant_onset_ns: u64,
    /// Probability an elephant-phase emission is an elephant packet.
    pub elephant_p: f64,
    /// Per-node control-loop cadence (sim time).
    pub control_interval_ns: u64,
    /// Conntrack table slots per shard (bounded, LRU).
    pub conntrack_capacity: usize,
    /// Record `(node, packet id)` per delivery for duplication proofs.
    /// Costs memory linear in deliveries; off for the big city.
    pub collect_delivery_log: bool,
}

impl CityConfig {
    /// The default-lane shape: a dozen nodes, a few sources, seconds
    /// of wall clock in debug builds.
    pub fn small(seed: u64) -> Self {
        Self {
            seed,
            nodes: 12,
            shards_per_node: 2,
            extra_link_p: 0.15,
            source_stride: 3,
            mice_fan: 64,
            flash_flows: 8,
            diurnal_packets: 150,
            // Sized to fill the whole flash window at the spiked gap
            // (duration / (base / spike)), so the closing slice still
            // measures the storm — after the controller's answer.
            flash_packets: 640,
            elephant_packets: 120,
            base_interval_ns: 20_000,
            diurnal_period_ns: 1_000_000,
            diurnal_amplitude: 0.5,
            flash_onset_ns: 400_000,
            flash_duration_ns: 1_600_000,
            flash_spike: 8,
            elephant_onset_ns: 600_000,
            elephant_p: 0.2,
            control_interval_ns: 100_000,
            conntrack_capacity: 256,
            collect_delivery_log: false,
        }
    }

    /// The thousand-node, million-flow soak shape (release builds;
    /// gated behind `NETKIT_CITY_SOAK=1` in CI).
    pub fn city(seed: u64) -> Self {
        Self {
            seed,
            nodes: 1000,
            shards_per_node: 2,
            extra_link_p: 0.02,
            source_stride: 1,
            mice_fan: 512,
            flash_flows: 8,
            diurnal_packets: 600,
            // Fills the 20 ms window at gap 50 µs / 8.
            flash_packets: 3200,
            elephant_packets: 600,
            base_interval_ns: 50_000,
            diurnal_period_ns: 20_000_000,
            diurnal_amplitude: 0.5,
            flash_onset_ns: 5_000_000,
            flash_duration_ns: 20_000_000,
            flash_spike: 8,
            elephant_onset_ns: 10_000_000,
            elephant_p: 0.2,
            // One turn per measurement slice (duration / 8): the
            // controller reacts within 2.5 ms of a 20 ms storm, and
            // the peak slice still captures the pre-migration skew.
            control_interval_ns: 2_500_000,
            conntrack_capacity: 256,
            collect_delivery_log: false,
        }
    }

    /// Number of source stacks the config attaches.
    pub fn sources(&self) -> u64 {
        let stride = self.source_stride.max(1);
        self.nodes.div_ceil(stride) as u64
    }

    /// Distinct simulated flows the configuration models: per source,
    /// the diurnal mice fan + the elephant-phase mice fan (different
    /// destination, so different flows) + the colocated flash flows +
    /// one elephant.
    pub fn modelled_flows(&self) -> u64 {
        self.sources() * (u64::from(self.mice_fan) * 2 + self.flash_flows as u64 + 1)
    }
}

/// Per-node books the report keeps for every node in the city.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeBooks {
    /// Packets the node's pipeline processed.
    pub packets: u64,
    /// Verdict-accepted packets.
    pub accepted: u64,
    /// Verdict-dropped packets.
    pub dropped: u64,
    /// Drops the guard rate-limited (cause-tagged).
    pub guard_drops: u64,
    /// Drops by ordinary graph policy (cause-tagged).
    pub graph_drops: u64,
    /// Media frames the stratum-3 filter shed.
    pub media_shed: u64,
    /// Bucket migrations the node's own controller applied.
    pub migrations: u64,
    /// Completed control-loop lapses.
    pub control_turns: u64,
}

/// What one seeded city run produced.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Packets injected by every source.
    pub injected: u64,
    /// Packets delivered at their destination nodes.
    pub delivered: u64,
    /// Packets lost on links.
    pub link_drops: u64,
    /// Packets consumed at nodes (guard, graph policy, media shed,
    /// unroutable).
    pub node_drops: u64,
    /// Link traversals.
    pub forwarded: u64,
    /// Mean end-to-end delivery latency.
    pub mean_latency_ns: Option<f64>,
    /// Per-node books, indexed like the topology.
    pub per_node: Vec<NodeBooks>,
    /// Index of the flash crowd's target node.
    pub hot_node: usize,
    /// Migrations the hot node's controller applied.
    pub hot_migrations: u64,
    /// Hot-node shard imbalance (max/mean of per-shard packet deltas):
    /// the peak eighth-slice over the opening half of the flash
    /// window — the storm at its worst, wherever arrival latency and
    /// control cadence put that instant.
    pub skew_early: f64,
    /// The same imbalance over the final eighth-slice of the window —
    /// the load shape the node's controller settled on.
    pub skew_late: f64,
    /// Flows the configuration modelled.
    pub modelled_flows: u64,
    /// FNV-1a fold of every counter, cause book, meter, control
    /// decision count, and steering table in the city.
    pub fingerprint: u64,
    /// `(node, packet id)` per delivery, when collection was enabled.
    pub delivery_log: Option<Vec<(u16, u64)>>,
}

impl ScenarioReport {
    /// How much of the flash-phase shard skew the hot node's
    /// autonomous control loop recovered: early imbalance over late
    /// imbalance (≥ 1 means it improved).
    pub fn skew_recovery(&self) -> f64 {
        self.skew_early / self.skew_late.max(1.0)
    }

    /// The global conservation identity, plus the per-cause identity
    /// on every node's pipeline.
    pub fn conserved(&self) -> bool {
        self.injected == self.delivered + self.link_drops + self.node_drops
            && self
                .per_node
                .iter()
                .all(|b| b.guard_drops + b.graph_drops == b.dropped)
    }

    /// Sum of a per-node projection.
    pub fn total<F: Fn(&NodeBooks) -> u64>(&self, f: F) -> u64 {
        self.per_node.iter().map(f).sum()
    }
}

/// max/mean of per-shard deltas — 1.0 is perfectly balanced,
/// `shards` is everything-on-one-shard.
pub fn imbalance(deltas: &[u64]) -> f64 {
    if deltas.is_empty() {
        return 1.0;
    }
    let total: u64 = deltas.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / deltas.len() as f64;
    let max = *deltas.iter().max().expect("non-empty") as f64;
    max / mean
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(hash: u64, value: u64) -> u64 {
    let mut h = hash;
    for byte in value.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Source ports whose flows (src → dst:dport, UDP) all land on shard 0
/// of an identity bucket map with `shards` shards — the colocation
/// that turns a flash crowd into single-shard pressure.
fn colocated_sports(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    dport: u16,
    shards: usize,
    want: usize,
) -> Vec<u16> {
    let map = BucketMap::identity(shards);
    let src = src.to_string();
    let dst = dst.to_string();
    let mut out = Vec::with_capacity(want);
    let mut sport = 20_000u16;
    while out.len() < want && sport < 60_000 {
        let pkt = PacketBuilder::udp_v4(&src, &dst, sport, dport).build();
        if let Some(key) = FlowKey::from_packet(&pkt) {
            if map.shard_of_bucket(key.bucket()) == 0 {
                out.push(sport);
            }
        }
        sport += 1;
    }
    assert!(!out.is_empty(), "no colocatable source ports found");
    out
}

/// The factory for one phase's packets: unique 8-byte ids in the
/// payload (`id_base + seq`), source-port fan for population spread,
/// optional GOP annotation so the stratum-3 media filter has frames
/// to judge, and elephant-sized payloads when asked.
#[allow(clippy::too_many_arguments)]
fn phase_factory(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    dport: u16,
    sport_base: u16,
    sport_fan: u16,
    id_base: u64,
    payload_len: usize,
    annotate_media: bool,
) -> PacketFactory {
    let src = src.to_string();
    let dst = dst.to_string();
    Box::new(move |seq| {
        let sport = sport_base + (seq % u64::from(sport_fan.max(1))) as u16;
        let mut payload = vec![0u8; payload_len.max(8)];
        payload[..8].copy_from_slice(&(id_base + seq).to_be_bytes());
        let mut pkt = PacketBuilder::udp_v4(&src, &dst, sport, dport)
            .payload(&payload)
            .build();
        if annotate_media {
            annotate_gop(&mut pkt, seq, 9);
        }
        pkt
    })
}

/// Handles run_city keeps per node to read books back after the run.
struct NodeHandles {
    media: Vec<Arc<FrameDropFilter>>,
}

/// One standard city node: per shard, conntrack → guard → media
/// filter → egress, with the guard reading the shard's pipeline
/// sketch, and a per-node controller whose turns close the guards'
/// windows.
fn city_node(name: &str, cfg: &CityConfig, handles: &mut Vec<NodeHandles>) -> PipelineNode {
    let media: Arc<Mutex<Vec<Arc<FrameDropFilter>>>> = Arc::new(Mutex::new(Vec::new()));
    let node = {
        let media = Arc::clone(&media);
        let conntrack_capacity = cfg.conntrack_capacity;
        PipelineNode::build(name, ShardSpec::new(cfg.shards_per_node), move |site| {
            let (capsule, _rt) = PipelineNode::shard_capsule();
            let tracker = ConnTracker::with_table(conntrack_capacity, u64::MAX);
            let guard = Guard::with_tracker(
                Arc::clone(&site.sketch),
                Arc::clone(&tracker),
                GuardConfig::default(),
            );
            let filter = FrameDropFilter::with_level(DropLevel::DropB);
            let tid = capsule.adopt(tracker.clone())?;
            let gid = capsule.adopt(guard.clone())?;
            let fid = capsule.adopt(filter.clone())?;
            let eid = capsule.adopt(site.egress.clone())?;
            capsule.bind_simple(tid, "out", gid, IPACKET_PUSH)?;
            capsule.bind_simple(gid, "out", fid, IPACKET_PUSH)?;
            capsule.bind_simple(fid, "out", eid, IPACKET_PUSH)?;
            media.lock().push(filter);
            Ok(ShardGraph::new(capsule, tracker))
        })
        .expect("city node builds")
    };
    let controller = RebalanceController::new(
        RebalancePolicy {
            max_imbalance: 1.25,
            min_samples: 64,
            pressure_weight: 0.0,
            decay: 0.5,
            heavy_blend: 0.0,
        },
        1,
    );
    let node = node.with_controller(controller, cfg.control_interval_ns);
    handles.push(NodeHandles {
        media: media.lock().clone(),
    });
    node
}

/// Runs one seeded city: build the topology of pipeline nodes, install
/// next-hop routes, attach the three-phase source stacks, step through
/// the flash window taking deterministic skew snapshots at the hot
/// node, then run to idle and close the books.
pub fn run_city(cfg: &CityConfig) -> ScenarioReport {
    assert!(cfg.nodes >= 2, "a city needs at least two nodes");
    let mut sim = Simulator::new(cfg.seed);
    let mut handles: Vec<NodeHandles> = Vec::with_capacity(cfg.nodes);
    let topo = {
        let handles = &mut handles;
        let mut names = (0..cfg.nodes).map(|i| format!("city-{i}"));
        random_connected(
            &mut sim,
            cfg.nodes,
            cfg.extra_link_p,
            cfg.seed ^ 0x9e37_79b9_7f4a_7c15,
            LinkSpec::default(),
            &mut move |_i| {
                let name = names.next().expect("one name per node");
                Box::new(city_node(&name, cfg, handles))
            },
        )
    };
    let hops = next_hops(&sim);
    #[allow(clippy::type_complexity)]
    let delivery_log: Option<Arc<Mutex<Vec<(u16, u64)>>>> = cfg
        .collect_delivery_log
        .then(|| Arc::new(Mutex::new(Vec::new())));

    // Install next-hop routes: deliver at the destination (logging the
    // packet id when asked), forward along the topology otherwise,
    // drop the unroutable.
    for (i, node) in topo.nodes.iter().enumerate() {
        let row = hops[i].clone();
        let log = delivery_log.clone();
        let behaviour = sim
            .node_behaviour_mut::<PipelineNode>(*node)
            .expect("city node behaviour");
        behaviour.set_route(Box::new(move |pkt: &Packet| {
            let Ok(ip) = pkt.ipv4() else {
                return RouteAction::Drop;
            };
            let o = ip.dst.octets();
            if o[0] != 10 || o[3] != 1 {
                return RouteAction::Drop;
            }
            let dest = usize::from(o[1]) * 256 + usize::from(o[2]);
            if dest == i {
                if let Some(log) = log.as_ref() {
                    let id = pkt
                        .udp_payload_v4()
                        .ok()
                        .filter(|p| p.len() >= 8)
                        .map(|p| u64::from_be_bytes(p[..8].try_into().expect("8 bytes")));
                    if let Some(id) = id {
                        log.lock().push((i as u16, id));
                    }
                }
                return RouteAction::Deliver;
            }
            match row.get(dest).copied().flatten() {
                Some(port) => RouteAction::Forward(port),
                None => RouteAction::Drop,
            }
        }));
    }

    // The flash crowd's target: the last node (sources aim at it from
    // everywhere else).
    let hot = cfg.nodes - 1;
    let hot_addr = node_addr(hot);

    // Attach the three-phase source stack to every strided node.
    let stride = cfg.source_stride.max(1);
    let mut gen_serial: u64 = 0;
    for i in (0..cfg.nodes).step_by(stride) {
        let src_addr = node_addr(i);
        // Diurnal base load to a deterministic far destination.
        let d_dest = {
            let d = (i * 7 + 3) % cfg.nodes;
            if d == i {
                (d + 1) % cfg.nodes
            } else {
                d
            }
        };
        sim.attach_source(
            topo.nodes[i],
            Box::new(DiurnalGen::new(
                cfg.base_interval_ns,
                cfg.diurnal_period_ns,
                cfg.diurnal_amplitude,
                cfg.diurnal_packets,
                phase_factory(
                    src_addr,
                    node_addr(d_dest),
                    80,
                    10_000,
                    cfg.mice_fan,
                    gen_serial << 32,
                    64,
                    true,
                ),
            )),
        );
        gen_serial += 1;
        // Flash crowd onto the hot node, colocated on its shard 0.
        if i != hot {
            let sports = colocated_sports(
                src_addr,
                hot_addr,
                80,
                cfg.shards_per_node,
                cfg.flash_flows.max(1),
            );
            let src = src_addr.to_string();
            let dst = hot_addr.to_string();
            let id_base = gen_serial << 32;
            sim.attach_source(
                topo.nodes[i],
                Box::new(FlashCrowdGen::new(
                    cfg.base_interval_ns,
                    cfg.flash_onset_ns,
                    cfg.flash_duration_ns,
                    cfg.flash_spike,
                    cfg.flash_packets,
                    Box::new(move |seq| {
                        let sport = sports[(seq as usize) % sports.len()];
                        let mut payload = vec![0u8; 64];
                        payload[..8].copy_from_slice(&(id_base + seq).to_be_bytes());
                        PacketBuilder::udp_v4(&src, &dst, sport, 80)
                            .payload(&payload)
                            .build()
                    }),
                )),
            );
            gen_serial += 1;
        }
        // Elephant/mice wave to a different far destination, opening
        // mid-run.
        let e_dest = {
            let d = (i * 13 + 5) % cfg.nodes;
            if d == i {
                (d + 1) % cfg.nodes
            } else {
                d
            }
        };
        let elephant_ids = gen_serial << 32;
        gen_serial += 1;
        let mice_ids = gen_serial << 32;
        gen_serial += 1;
        sim.attach_source(
            topo.nodes[i],
            Box::new(Delayed::new(
                cfg.elephant_onset_ns,
                Box::new(ElephantMiceGen::new(
                    cfg.base_interval_ns,
                    cfg.elephant_p,
                    cfg.elephant_packets,
                    phase_factory(
                        src_addr,
                        node_addr(e_dest),
                        443,
                        7_000,
                        1,
                        elephant_ids,
                        1024,
                        false,
                    ),
                    phase_factory(
                        src_addr,
                        node_addr(e_dest),
                        80,
                        30_000,
                        cfg.mice_fan,
                        mice_ids,
                        64,
                        false,
                    ),
                )),
            )),
        );
    }

    // Step through the flash window taking deterministic skew
    // snapshots at the hot node: the opening slice shows the
    // colocated storm, the closing slice shows what the node's own
    // controller made of it.
    let hot_shards = |sim: &mut Simulator| -> Vec<u64> {
        sim.node_behaviour_mut::<PipelineNode>(topo.nodes[hot])
            .expect("hot node")
            .pipeline()
            .shard_loads()
            .iter()
            .map(|l| l.packets)
            .collect()
    };
    // Eighth-slices across the flash window. The storm's arrival at
    // the hot node lags its emission by the path's link latency, and
    // the controller's first migration lands within a control interval
    // of the evidence — both phase shifts the measurement must not be
    // sensitive to. Taking the *peak* slice of the opening half as the
    // storm's skew and the *final* slice as the settled state measures
    // "how bad did it get" against "where did the controller leave it"
    // wherever those instants fall inside the window.
    const SLICES: u64 = 8;
    let slice = (cfg.flash_duration_ns / SLICES).max(1);
    let mut snaps: Vec<Vec<u64>> = Vec::with_capacity(SLICES as usize + 1);
    for k in 0..=SLICES {
        sim.run_until(SimTime::from_nanos(cfg.flash_onset_ns + k * slice));
        snaps.push(hot_shards(&mut sim));
    }
    sim.run_to_idle();

    let delta = |a: &[u64], b: &[u64]| -> Vec<u64> {
        a.iter()
            .zip(b)
            .map(|(late, early)| late.saturating_sub(*early))
            .collect()
    };
    let slice_skew: Vec<f64> = snaps
        .windows(2)
        .map(|w| imbalance(&delta(&w[1], &w[0])))
        .collect();
    let skew_early = slice_skew[..SLICES as usize / 2]
        .iter()
        .copied()
        .fold(1.0f64, f64::max);
    let skew_late = *slice_skew.last().expect("at least one slice");

    // Close the books.
    let mut per_node = Vec::with_capacity(cfg.nodes);
    let mut fingerprint = FNV_OFFSET;
    for (i, node) in topo.nodes.iter().enumerate() {
        let media_shed: u64 = handles[i].media.iter().map(|m| m.stats().1).sum();
        let behaviour = sim
            .node_behaviour_mut::<PipelineNode>(*node)
            .expect("city node behaviour");
        let pipe = behaviour.pipeline();
        let stats = pipe.stats();
        let drops = pipe.drop_stats();
        let books = NodeBooks {
            packets: stats.packets,
            accepted: stats.accepted,
            dropped: stats.dropped,
            guard_drops: drops.guard,
            graph_drops: drops.graph,
            media_shed,
            migrations: pipe.migrations(),
            control_turns: behaviour.control_turns(),
        };
        for v in [
            books.packets,
            books.accepted,
            books.dropped,
            books.guard_drops,
            books.graph_drops,
            books.media_shed,
            books.migrations,
            books.control_turns,
        ] {
            fingerprint = fnv_fold(fingerprint, v);
        }
        let map = pipe.bucket_map();
        for bucket in 0..netkit_packet::steer::RSS_BUCKETS {
            fingerprint = fnv_fold(fingerprint, map.shard_of_bucket(bucket) as u64);
        }
        per_node.push(books);
    }
    let stats = sim.stats();
    for v in [
        stats.injected,
        stats.delivered,
        stats.link_drops,
        stats.node_drops,
        stats.forwarded,
        stats.latency_samples().len() as u64,
        stats.latency_samples().iter().sum::<u64>(),
    ] {
        fingerprint = fnv_fold(fingerprint, v);
    }

    let hot_migrations = per_node[hot].migrations;
    ScenarioReport {
        injected: stats.injected,
        delivered: stats.delivered,
        link_drops: stats.link_drops,
        node_drops: stats.node_drops,
        forwarded: stats.forwarded,
        mean_latency_ns: stats.mean_latency_ns(),
        per_node,
        hot_node: hot,
        hot_migrations,
        skew_early,
        skew_late,
        modelled_flows: cfg.modelled_flows(),
        fingerprint,
        delivery_log: delivery_log.map(|log| log.lock().clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_city_conserves_and_reproduces() {
        let cfg = CityConfig::small(11);
        let a = run_city(&cfg);
        assert!(a.conserved(), "books must close: {a:?}");
        assert!(a.injected > 0 && a.delivered > 0);
        assert!(a.total(|b| b.packets) >= a.injected, "every hop executes");
        let b = run_city(&cfg);
        assert_eq!(a.fingerprint, b.fingerprint, "same seed, same city");
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.delivered, b.delivered);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_city(&CityConfig::small(1));
        let b = run_city(&CityConfig::small(2));
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn flash_crowd_recovers_at_the_hot_node() {
        let report = run_city(&CityConfig::small(11));
        assert!(
            report.hot_migrations >= 1,
            "hot node controller must migrate: {report:?}"
        );
        assert!(
            report.skew_recovery() >= 1.5,
            "early {} late {} recovery {}",
            report.skew_early,
            report.skew_late,
            report.skew_recovery()
        );
    }

    #[test]
    fn delivery_log_has_no_duplicates() {
        let mut cfg = CityConfig::small(5);
        cfg.collect_delivery_log = true;
        let report = run_city(&cfg);
        let log = report.delivery_log.as_ref().expect("log enabled");
        assert_eq!(log.len() as u64, report.delivered);
        let mut seen = std::collections::HashSet::new();
        for entry in log {
            assert!(seen.insert(*entry), "duplicate delivery {entry:?}");
        }
    }

    #[test]
    fn media_filter_sheds_b_frames() {
        let report = run_city(&CityConfig::small(11));
        assert!(
            report.total(|b| b.media_shed) > 0,
            "diurnal GOP traffic must exercise the stratum-3 filter"
        );
    }
}
