//! Property tests for RSS flow→shard mapping and batch partitioning.
//!
//! The sharded dataplane's correctness rests on three properties proved
//! here: (1) the flow→shard map is a pure function of the 5-tuple and
//! the shard count — same flow, same shard, always; (2) the split is
//! permutation-free: nothing lost, nothing duplicated, per-flow order
//! intact, every packet on its flow's shard, under any steering table;
//! (3) the zero-copy steering path (`shard_split_with` → `into_shared`
//! → each shard's `take_into`, what dispatch and the workers run) is
//! observationally identical — packets and order — to the legacy
//! re-materialising partition, reimplemented verbatim below as the
//! reference.

use proptest::prelude::*;

use netkit_packet::batch::{PacketBatch, ShardSplit};
use netkit_packet::flow::{shard_of, FlowKey};
use netkit_packet::packet::{Packet, PacketBuilder};
use netkit_packet::steer::BucketMap;

#[derive(Clone, Debug)]
struct FlowSpec {
    src_octet: u8,
    dst_octet: u8,
    src_port: u16,
    dst_port: u16,
}

fn flow_strategy() -> impl Strategy<Value = FlowSpec> {
    (any::<u8>(), any::<u8>(), 1u16..=65535, 1u16..=65535).prop_map(
        |(src_octet, dst_octet, src_port, dst_port)| FlowSpec {
            src_octet,
            dst_octet,
            src_port,
            dst_port,
        },
    )
}

fn build(spec: &FlowSpec, seq: u16) -> Packet {
    PacketBuilder::udp_v4(
        &format!("10.0.0.{}", spec.src_octet),
        &format!("10.0.1.{}", spec.dst_octet),
        spec.src_port,
        spec.dst_port,
    )
    .payload(&seq.to_be_bytes())
    .build()
}

/// The PR 2 re-materialising partition, preserved verbatim as the
/// behavioural reference: per-packet `shard_of`, per-shard `push`.
fn reference_partition(batch: PacketBatch, shards: usize) -> Vec<PacketBatch> {
    let shards = shards.max(1);
    if shards == 1 {
        return vec![batch];
    }
    let mut out: Vec<PacketBatch> = (0..shards).map(|_| PacketBatch::new()).collect();
    for pkt in batch.into_packets() {
        let shard = shard_of(&pkt, shards);
        out[shard].push(pkt);
    }
    out
}

/// Gathers every shard's range of a split into its own batch, as the
/// workers at the far end of the rings do; checks on the way that the
/// split, its shared form and each range agree on the counts.
fn gather(split: ShardSplit) -> Vec<PacketBatch> {
    let total = split.len();
    let shared = split.into_shared();
    assert_eq!(shared.len(), total);
    let parts: Vec<PacketBatch> = (0..shared.shards())
        .map(|s| {
            let range = shared.range(s);
            assert_eq!((range.shard(), range.len()), (s, shared.shard_len(s)));
            let mut out = PacketBatch::new();
            assert_eq!(range.take_into(&mut out), out.len());
            assert_eq!(out.len(), shared.shard_len(s));
            out
        })
        .collect();
    assert_eq!(parts.iter().map(PacketBatch::len).sum::<usize>(), total);
    parts
}

/// Frame-byte fingerprints per shard — the observable content every
/// split variant must agree on.
fn fingerprint(parts: &[PacketBatch]) -> Vec<Vec<Vec<u8>>> {
    parts
        .iter()
        .map(|p| p.iter().map(|pkt| pkt.data().to_vec()).collect())
        .collect()
}

proptest! {
    #[test]
    fn zero_copy_split_equals_owned_equals_reference(
        flows in proptest::collection::vec(flow_strategy(), 1..10),
        picks in proptest::collection::vec((0usize..10, 0usize..4), 0..96),
        shards in 0usize..=6,
    ) {
        // Build two identical batches: reference and split. `picks`
        // interleaves flows; its second field once picked a per-packet
        // label and no longer matters.
        let mut batches: Vec<PacketBatch> = (0..2).map(|_| PacketBatch::new()).collect();
        for (i, (flow_idx, _)) in picks.iter().enumerate() {
            let spec = &flows[flow_idx % flows.len()];
            for b in &mut batches {
                b.push(build(spec, i as u16));
            }
        }
        let [for_reference, for_split]: [PacketBatch; 2] = batches.try_into().ok().unwrap();

        let reference = fingerprint(&reference_partition(for_reference, shards));

        // The split moves nothing: same count, original order, and the
        // parent still whole behind it.
        let split = for_split.shard_split_with(&BucketMap::identity(shards));
        prop_assert_eq!(split.shards(), shards.max(1));
        prop_assert_eq!(split.len(), picks.len());
        prop_assert_eq!(split.batch().len(), picks.len());

        // Gathered per shard at the consuming end: same shards, same
        // order. Per-flow order within each shard follows
        // (the reference proves itself against the input in
        // `partition_loses_and_duplicates_nothing_and_keeps_flow_order`).
        prop_assert_eq!(&fingerprint(&gather(split)), &reference, "shared ≡ reference");
    }

    #[test]
    fn flow_to_shard_mapping_is_stable(
        spec in flow_strategy(),
        shards in 1usize..=8,
    ) {
        let a = build(&spec, 0);
        let b = build(&spec, 1); // same flow, different payload
        let ka = FlowKey::from_packet(&a).unwrap();
        let kb = FlowKey::from_packet(&b).unwrap();
        prop_assert_eq!(ka, kb);
        prop_assert_eq!(ka.rss_hash(), kb.rss_hash());
        prop_assert_eq!(ka.shard_for(shards), kb.shard_for(shards));
        prop_assert!(ka.shard_for(shards) < shards);
        // Recomputing from a rebuilt key gives the same answer (no
        // hidden state).
        let rebuilt = FlowKey {
            src: ka.src,
            dst: ka.dst,
            protocol: ka.protocol,
            src_port: ka.src_port,
            dst_port: ka.dst_port,
        };
        prop_assert_eq!(rebuilt.shard_for(shards), ka.shard_for(shards));
    }

    #[test]
    fn partition_loses_and_duplicates_nothing_and_keeps_flow_order(
        flows in proptest::collection::vec(flow_strategy(), 1..12),
        picks in proptest::collection::vec(0usize..12, 0..128),
        shards in 1usize..=6,
    ) {
        // A packet stream interleaving the flows in arbitrary order;
        // the payload carries a global sequence number.
        let mut batch = PacketBatch::new();
        let mut input: Vec<(FlowKey, Vec<u8>)> = Vec::new();
        for (i, flow_idx) in picks.iter().enumerate() {
            let spec = &flows[flow_idx % flows.len()];
            let pkt = build(spec, i as u16);
            input.push((FlowKey::from_packet(&pkt).unwrap(), pkt.data().to_vec()));
            batch.push(pkt);
        }

        let parts = gather(batch.shard_split_with(&BucketMap::identity(shards)));
        prop_assert_eq!(parts.len(), shards.max(1));

        // 1. Multiset equality: concatenating the sub-batches yields a
        //    permutation of the input (sequence payloads are unique, so
        //    sorted fingerprints suffice).
        let mut got: Vec<Vec<u8>> = parts
            .iter()
            .flat_map(|p| p.iter().map(|pkt| pkt.data().to_vec()))
            .collect();
        let mut expect: Vec<Vec<u8>> = input.iter().map(|(_, d)| d.clone()).collect();
        got.sort();
        expect.sort();
        prop_assert_eq!(got, expect, "no packet lost or duplicated");

        // 2. Placement: every packet sits on its flow's shard.
        for (shard, part) in parts.iter().enumerate() {
            for pkt in part.iter() {
                let key = FlowKey::from_packet(pkt).unwrap();
                prop_assert_eq!(key.shard_for(shards), shard);
            }
        }

        // 3. Per-flow order: within each flow, the shard-local sequence
        //    equals the input sequence.
        for spec in &flows {
            let key = FlowKey::from_packet(&build(spec, 0)).unwrap();
            let expect_seq: Vec<Vec<u8>> = input
                .iter()
                .filter(|(k, _)| *k == key)
                .map(|(_, d)| d.clone())
                .collect();
            let shard = key.shard_for(shards);
            let got_seq: Vec<Vec<u8>> = parts[shard]
                .iter()
                .filter(|p| FlowKey::from_packet(p).unwrap() == key)
                .map(|p| p.data().to_vec())
                .collect();
            prop_assert_eq!(got_seq, expect_seq, "flow order preserved");
        }
    }

    /// Table-driven steering: for ANY bucket → shard table, the split
    /// follows the table exactly, loses/duplicates nothing, and keeps
    /// per-flow order — and the identity table reproduces the static
    /// split bit-for-bit.
    #[test]
    fn table_split_follows_any_map_without_loss(
        flows in proptest::collection::vec(flow_strategy(), 1..12),
        picks in proptest::collection::vec(0usize..12, 0..96),
        shards in 2usize..=6,
        assignments in proptest::collection::vec(0usize..6, 12),
    ) {
        // A random table: each flow's bucket re-homed by the seed
        // (other buckets keep identity).
        let mut map = BucketMap::identity(shards);
        for (i, spec) in flows.iter().enumerate() {
            let key = FlowKey::from_packet(&build(spec, 0)).unwrap();
            map.set(key.bucket(), assignments[i] % shards);
        }

        let mut batch = PacketBatch::new();
        let mut ident = PacketBatch::new();
        let mut input: Vec<(FlowKey, Vec<u8>)> = Vec::new();
        for (i, flow_idx) in picks.iter().enumerate() {
            let spec = &flows[flow_idx % flows.len()];
            let pkt = build(spec, i as u16);
            input.push((FlowKey::from_packet(&pkt).unwrap(), pkt.data().to_vec()));
            ident.push(build(spec, i as u16));
            batch.push(pkt);
        }

        let parts = gather(batch.shard_split_with(&map));
        prop_assert_eq!(parts.len(), shards);

        // Multiset equality.
        let mut got: Vec<Vec<u8>> = parts
            .iter()
            .flat_map(|p| p.iter().map(|pkt| pkt.data().to_vec()))
            .collect();
        let mut expect: Vec<Vec<u8>> = input.iter().map(|(_, d)| d.clone()).collect();
        got.sort();
        expect.sort();
        prop_assert_eq!(got, expect, "no packet lost or duplicated");

        // Placement follows the table; per-flow order survives.
        for (shard, part) in parts.iter().enumerate() {
            for pkt in part.iter() {
                let key = FlowKey::from_packet(pkt).unwrap();
                prop_assert_eq!(map.shard_of_bucket(key.bucket()), shard);
            }
        }
        for spec in &flows {
            let key = FlowKey::from_packet(&build(spec, 0)).unwrap();
            let expect_seq: Vec<Vec<u8>> = input
                .iter()
                .filter(|(k, _)| *k == key)
                .map(|(_, d)| d.clone())
                .collect();
            let got_seq: Vec<Vec<u8>> = parts[map.shard_of_bucket(key.bucket())]
                .iter()
                .filter(|p| FlowKey::from_packet(p).unwrap() == key)
                .map(|p| p.data().to_vec())
                .collect();
            prop_assert_eq!(got_seq, expect_seq, "flow order preserved under the table");
        }

        // Identity table ≡ static split (`hash % n`, the reference's
        // rule).
        let via_identity = gather(ident.shard_split_with(&BucketMap::identity(shards)));
        let mut statics = PacketBatch::new();
        for (i, flow_idx) in picks.iter().enumerate() {
            statics.push(build(&flows[flow_idx % flows.len()], i as u16));
        }
        prop_assert_eq!(
            fingerprint(&via_identity),
            fingerprint(&reference_partition(statics, shards)),
            "identity table ≡ hash % n"
        );
    }
}
