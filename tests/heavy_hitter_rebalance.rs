//! **Heavy-hitter rebalancing acceptance** — sketch-based byte
//! evidence must recover a skew the packet-count window provably
//! cannot see.
//!
//! Workload: 8 buckets on 2 shards (identity table: evens → shard 0,
//! odds → shard 1), **8 packets per bucket per round** — the packet
//! window is perfectly uniform, imbalance exactly 1.0, so any
//! packet-count policy holds by construction, not by tuning. But each
//! even bucket carries a byte elephant (~2000 B/round) while odd
//! buckets carry mice (~500 B/round): shard 0 serves ~80% of the
//! bytes. On a byte-bound dataplane that is the ROADMAP pathology
//! again, one layer down — invisible to `BucketLoad`, visible to the
//! per-shard `FlowSketch`es.
//!
//! Asserted:
//!
//! 1. **The uniform policy provably holds** — same controller, blend
//!    off: the judged turn returns `Hold`, zero migrations, identity
//!    table intact. Not a threshold artefact: imbalance is exactly 1.0.
//! 2. **The sketch-informed policy migrates and recovers ≥ 1.5×** —
//!    with `heavy_blend` on, the merged heavy-hitter evidence drives a
//!    plan whose bottleneck **byte** share drops from ~0.8 to 0.5
//!    (recovery ratio 1.6), and the packets the sketch judged retire
//!    with the window.

use std::sync::Arc;

use netkit::kernel::shard::ShardSpec;
use netkit::opencom::capsule::Capsule;
use netkit::opencom::meta::resources::ResourceManager;
use netkit::opencom::runtime::Runtime;
use netkit::packet::batch::PacketBatch;
use netkit::packet::packet::PacketBuilder;
use netkit::packet::steer::RSS_BUCKETS;
use netkit::router::api::register_packet_interfaces;
use netkit::router::elements::Discard;
use netkit::router::shard::{RebalanceController, RebalancePolicy, ShardGraph, ShardedPipeline};

const WORKERS: usize = 2;
const BUCKETS: usize = 8;
const PER_BUCKET: usize = 8;
/// Payload sizes tuned so each even bucket totals 2000 B/round and
/// each odd bucket 496 B/round (8 packets of 42 B headers + payload).
const ELEPHANT_PAYLOAD: usize = 208;
const MOUSE_PAYLOAD: usize = 20;

fn pipeline(name: &str) -> ShardedPipeline {
    let rm = Arc::new(ResourceManager::new());
    ShardedPipeline::build(name, ShardSpec::new(WORKERS), rm, move |_| {
        let rt = Runtime::new();
        register_packet_interfaces(&rt);
        let capsule = Capsule::new("shard", &rt);
        Ok(ShardGraph::new(capsule, Discard::new()))
    })
    .expect("pipeline builds")
}

/// One round: 8 packets in each of buckets 0..8, uniform counts,
/// byte-skewed payloads. One flow per bucket (hash = bucket).
fn round() -> PacketBatch {
    let mut batch = PacketBatch::new();
    for _ in 0..PER_BUCKET {
        for bucket in 0..BUCKETS as u64 {
            let payload = if bucket % 2 == 0 {
                ELEPHANT_PAYLOAD
            } else {
                MOUSE_PAYLOAD
            };
            let mut p = PacketBuilder::udp_v4("10.0.0.1", "10.0.9.9", 7000, 443)
                .payload_len(payload)
                .build();
            p.meta.rss_hash = Some(bucket);
            batch.push(p);
        }
    }
    batch
}

/// The known per-bucket byte mass of one round, for judging plans.
fn bucket_bytes() -> Vec<u64> {
    let mut bytes = vec![0u64; RSS_BUCKETS];
    for pkt in &round() {
        let b = pkt.meta.rss_hash.unwrap() as usize;
        bytes[b] += pkt.len() as u64;
    }
    bytes
}

fn policy(heavy_blend: f64) -> RebalancePolicy {
    RebalancePolicy {
        max_imbalance: 1.25,
        min_samples: 64,
        pressure_weight: 0.0,
        decay: 0.5,
        heavy_blend,
    }
}

/// Bottleneck byte share of `map` over the known per-bucket bytes.
fn bottleneck_share(map: &netkit::packet::steer::BucketMap) -> f64 {
    let bytes = bucket_bytes();
    let per_shard = map.per_shard_load(&bytes);
    let total: u64 = per_shard.iter().sum();
    *per_shard.iter().max().unwrap() as f64 / total as f64
}

#[test]
fn sketch_evidence_recovers_byte_skew_the_packet_window_hides() {
    // --- 1. packet-only controller: provably nothing to act on ------
    let pipe = pipeline("hh-uniform");
    let mut packets_only = RebalanceController::new(policy(0.0), 0);
    pipe.dispatch(round());
    pipe.flush();
    let window = pipe.bucket_loads();
    assert_eq!(
        window.iter().sum::<u64>(),
        (BUCKETS * PER_BUCKET) as u64,
        "the full round was judged"
    );
    let imbalance = RebalancePolicy::imbalance(&window, &pipe.bucket_map());
    assert!(
        (imbalance - 1.0).abs() < 1e-9,
        "packet imbalance must be exactly 1.0, got {imbalance}"
    );
    assert!(
        pipe.control_turn(&mut packets_only, &[]).is_none(),
        "a perfectly uniform packet window gives the policy nothing"
    );
    assert_eq!(packets_only.migrations(), 0);
    assert!(
        pipe.bucket_map().is_identity(),
        "the uniform policy must hold the identity table"
    );
    let share_static = bottleneck_share(&pipe.bucket_map());
    assert!(share_static > 0.79, "byte skew present: {share_static}");
    pipe.shutdown();

    // --- 2. sketch-informed controller: migrates on byte evidence ---
    let pipe = pipeline("hh-blended");
    let mut blended = RebalanceController::new(policy(1.0), 0);
    pipe.dispatch(round());
    pipe.flush();
    let heavy = pipe.heavy_hitters();
    assert!(
        heavy.iter().any(|h| h.weight > 0),
        "workers must have fed the sketches"
    );
    let (plan, report) = pipe
        .control_turn(&mut blended, &[])
        .expect("byte evidence must drive a migration");
    assert_eq!(report.dropped, 0);
    assert!(plan.imbalance_after < plan.imbalance_before);
    assert_eq!(blended.migrations(), 1);

    // The acceptance bar: bottleneck byte share recovers >= 1.5x.
    let share_rebalanced = bottleneck_share(&pipe.bucket_map());
    assert!(
        share_static >= 1.5 * share_rebalanced,
        "bottleneck byte share must recover >=1.5x: \
         static {share_static:.3}, rebalanced {share_rebalanced:.3}"
    );

    // The judged windows retired together: packet meters and sketches
    // are both empty (nothing arrived after the snapshot).
    assert_eq!(pipe.bucket_loads().iter().sum::<u64>(), 0);
    let residual: u64 = (0..WORKERS)
        .map(|s| pipe.flow_sketch(s).total_bytes())
        .sum();
    assert_eq!(residual, 0, "judged sketch windows retire exactly");
    pipe.shutdown();
}
