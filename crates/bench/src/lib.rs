//! Shared rigs for the criterion targets under `benches/` — the
//! paper's own series (call overhead, interception, isolation,
//! footprint, placement, scheduling, signaling, the city). The
//! wire-to-wire figures live in the ledger (`benchmark/`); NOTES.md
//! lists the series it superseded.
//!
//! Everything here builds *measurable* configurations: component
//! pipelines of parametric length and canned packets.

#![forbid(unsafe_code)]

use std::sync::Arc;

use opencom::capsule::Capsule;
use opencom::cf::Principal;
use opencom::error::Result;
use opencom::ident::ComponentId;
use opencom::runtime::Runtime;

use netkit_packet::packet::{Packet, PacketBuilder};
use netkit_router::api::{register_packet_interfaces, IPacketPush, IPACKET_PUSH};
use netkit_router::cf::RouterCf;
use netkit_router::elements::{Counter, Discard};

/// A ready-to-push component pipeline and the handles the benches need.
pub struct PipelineRig {
    /// The hosting capsule (keep alive; also the footprint probe).
    pub capsule: Arc<Capsule>,
    /// The CF governing the pipeline.
    pub cf: RouterCf,
    /// Push entry point (first element).
    pub entry: Arc<dyn IPacketPush>,
    /// Component id of the first element (for interception/replace).
    pub head: ComponentId,
    /// Component ids of every stage, in order.
    pub stages: Vec<ComponentId>,
    /// The terminal sink.
    pub sink: Arc<Discard>,
}

impl std::fmt::Debug for PipelineRig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PipelineRig({} stages)", self.stages.len())
    }
}

/// Builds a NETKIT pipeline of `n` pass-through stages (Counter
/// elements) ending in a Discard, all admitted and bound through the
/// Router CF.
///
/// # Errors
///
/// Propagates capsule/CF failures (none expected in a bench rig).
pub fn netkit_chain(n: usize) -> Result<PipelineRig> {
    let rt = Runtime::new();
    register_packet_interfaces(&rt);
    let capsule = Capsule::new("bench", &rt);
    let cf = RouterCf::new("bench-router", Arc::clone(&capsule));
    let sys = Principal::system();

    let mut stages = Vec::with_capacity(n);
    for _ in 0..n {
        let id = capsule.adopt(Counter::new())?;
        cf.plug(&sys, id)?;
        stages.push(id);
    }
    let sink = Discard::new();
    let sink_id = capsule.adopt(sink.clone())?;
    cf.plug(&sys, sink_id)?;

    for w in stages.windows(2) {
        cf.bind(&sys, w[0], "out", "", w[1], IPACKET_PUSH)?;
    }
    if let Some(&last) = stages.last() {
        cf.bind(&sys, last, "out", "", sink_id, IPACKET_PUSH)?;
    }

    let head = stages.first().copied().unwrap_or(sink_id);
    let entry: Arc<dyn IPacketPush> = capsule
        .query_interface(head, IPACKET_PUSH)?
        .downcast()
        .expect("counter exports IPacketPush");
    Ok(PipelineRig {
        capsule,
        cf,
        entry,
        head,
        stages,
        sink,
    })
}

/// A canned 64-byte-payload UDP packet.
pub fn test_packet() -> Packet {
    PacketBuilder::udp_v4("192.0.2.1", "10.0.7.9", 5000, 5001)
        .payload_len(64)
        .build()
}

/// A canned packet with parametric payload size.
pub fn test_packet_sized(payload: usize) -> Packet {
    PacketBuilder::udp_v4("192.0.2.1", "10.0.7.9", 5000, 5001)
        .payload_len(payload)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_baselines::click::ClickRouter;
    use opencom::meta::resources::ResourceManager;

    /// The shared stateful-edge topology (guard → conntrack → NAT44 →
    /// egress) compiled from the declarative description in
    /// [`netkit_services::edge`], with a NAT pool of `pool` ports. One
    /// worker, deterministic — the component contender.
    fn netkit_stateful_edge(
        pool: u16,
    ) -> Result<(
        netkit_router::shard::ShardedPipeline,
        netkit_router::desc::DescBinding,
    )> {
        let profile = netkit_services::edge::EdgeProfile {
            nat_blocks: 1,
            nat_block_size: pool,
            ..netkit_services::edge::EdgeProfile::default()
        };
        netkit_services::edge::build_stateful_edge(&profile, 1, Arc::new(ResourceManager::new()))
    }

    /// The equivalent Click configuration for the stateful edge: the same
    /// chain and knobs as [`netkit_stateful_edge`], in the baseline's
    /// config language (`ConnTracker`/`Guard`/`Nat44` classes).
    fn click_stateful_edge_config(pool: usize) -> String {
        format!(
            "guard :: Guard(1048576);\n\
             ct :: ConnTracker(4096);\n\
             nat :: Nat44(192.0.2.1, 10000, {pool});\n\
             sink :: Discard;\n\
             guard -> ct -> nat -> sink;\n"
        )
    }

    /// The monolithic stateful edge with the same knobs as
    /// [`netkit_stateful_edge`] — the straight-line lower bound.
    fn monolithic_stateful_edge(pool: usize) -> netkit_baselines::MonolithicStatefulEdge {
        netkit_baselines::MonolithicStatefulEdge::new(
            1 << 20,
            4_096,
            std::net::Ipv4Addr::new(192, 0, 2, 1),
            10_000,
            pool,
        )
    }

    /// A canned UDP packet for flow number `flow` headed through the
    /// stateful edge (distinct flows get distinct NAT bindings).
    fn edge_packet(flow: u16) -> Packet {
        PacketBuilder::udp_v4("10.0.0.5", "203.0.113.9", flow, 443)
            .payload_len(64)
            .build()
    }

    #[test]
    fn netkit_chain_counts_through_all_stages() {
        let rig = netkit_chain(4).unwrap();
        rig.entry.push(test_packet()).unwrap();
        assert_eq!(rig.sink.count(), 1);
    }

    #[test]
    fn stateful_edge_contenders_agree_on_exhaustion() {
        // Six distinct flows through a four-port NAT pool: every
        // contender must deliver four and drop two — the like-for-like
        // contract behind the ledger's `baselines.*.edge_ns` rows.
        let flows: Vec<u16> = (5_001..=5_006).collect();

        let (pipe, _binding) = netkit_stateful_edge(4).unwrap();
        pipe.dispatch(flows.iter().map(|&f| edge_packet(f)).collect());
        pipe.flush();
        assert_eq!((pipe.stats().accepted, pipe.stats().dropped), (4, 2));

        let click = ClickRouter::compile(&click_stateful_edge_config(4)).unwrap();
        for &f in &flows {
            click.push("guard", edge_packet(f));
        }
        assert_eq!(click.count("sink"), Some(4));
        assert_eq!(click.stateful_drops("nat"), Some(2));
        assert_eq!(click.tracked_flows("ct"), Some(6));
        assert_eq!(click.nat_ports_in_use("nat"), Some(4));

        let mono = monolithic_stateful_edge(4);
        let outcomes: Vec<bool> = flows
            .iter()
            .map(|&f| mono.process(&mut edge_packet(f)).is_ok())
            .collect();
        assert_eq!(outcomes.iter().filter(|ok| **ok).count(), 4);
        assert_eq!(mono.ports_in_use(), 4);
    }

    #[test]
    fn stateful_edge_contenders_agree_on_a_trace_with_fragments() {
        // Four whole datagrams, then one datagram in three fragments,
        // through a five-port pool. The contenders share the frame
        // parse, so all of them see the fragments as one port-less flow:
        // everything is delivered, the fragments cost no port (four in
        // use, not five or seven), and no payload byte is rewritten.
        let fragment = |offset, more, fill: u8| {
            PacketBuilder::udp_v4("10.0.0.5", "203.0.113.9", 6_000, 443)
                .fragment(offset, more)
                .payload(&[fill; 24])
                .build()
        };
        let trace = || -> Vec<Packet> {
            (5_001..=5_004)
                .map(edge_packet)
                .chain([
                    fragment(0, true, 0xa1),
                    fragment(4, true, 0xb2),
                    fragment(7, false, 0xc3),
                ])
                .collect()
        };

        let (pipe, _binding) = netkit_stateful_edge(5).unwrap();
        pipe.dispatch(trace().into_iter().collect());
        pipe.flush();
        assert_eq!((pipe.stats().accepted, pipe.stats().dropped), (7, 0));

        let click = ClickRouter::compile(&click_stateful_edge_config(5)).unwrap();
        for pkt in trace() {
            click.push("guard", pkt);
        }
        assert_eq!(click.count("sink"), Some(7));
        assert_eq!(click.stateful_drops("nat"), Some(0));

        let mono = monolithic_stateful_edge(5);
        for mut pkt in trace() {
            let wire = pkt.data().to_vec();
            let fragmented =
                pkt.ipv4().unwrap().more_fragments || pkt.ipv4().unwrap().fragment_offset != 0;
            mono.process(&mut pkt).unwrap();
            assert_eq!(
                pkt.data() == wire,
                fragmented,
                "only whole datagrams are rewritten"
            );
        }
        assert_eq!(mono.ports_in_use(), 4);

        // A sixth whole flow still finds the fifth port everywhere.
        pipe.dispatch(std::iter::once(edge_packet(5_005)).collect());
        pipe.flush();
        assert_eq!((pipe.stats().accepted, pipe.stats().dropped), (8, 0));
        click.push("guard", edge_packet(5_005));
        assert_eq!(click.count("sink"), Some(8));
        assert!(mono.process(&mut edge_packet(5_005)).is_ok());
    }
}
