//! The stateful services layer on the sharded dataplane — written as a
//! *description*, not as hand-built topology code.
//!
//! Earlier revisions of this example adopted and bound every element
//! by hand (capsule per shard, adopt conntrack, adopt balancer, bind
//! the edges, register the backends). All of that is now five lines of
//! data: a [`PipelineDesc`] with a conntrack → L4 load-balancer →
//! discard chain and a VIP backend table, compiled through the same
//! factory path. Every replica still runs its own chain with per-shard
//! single-writer flow tables — no shared state, no cross-shard locks,
//! because the canonical flow key pins both directions of a connection
//! to one shard.
//!
//! The description stays live after the build: the example grows the
//! backend set *mid-traffic* by diffing against an amended description
//! — a pure table patch, zero structural ops, no quiesce.
//!
//! Run with: `cargo run --example stateful_services`

use std::net::Ipv4Addr;
use std::sync::Arc;

use netkit::kernel::shard::ShardSpec;
use netkit::opencom::meta::resources::ResourceManager;
use netkit::packet::batch::PacketBatch;
use netkit::packet::packet::PacketBuilder;
use netkit::router::desc::{Compiler, DescBinding, PipelineDesc, TableEntry};
use netkit::router::flow::{L4LoadBalancer, IBALANCER};

const WORKERS: usize = 2;
const FLOWS: u16 = 64;
const PACKETS_PER_FLOW: usize = 8;

/// conntrack -> lb -> sink, with `backends` servers behind the VIP.
fn edge_desc(backends: u8) -> PipelineDesc {
    let mut d = PipelineDesc::new("stateful-edge")
        .element_with("ct", "conntrack", &[("capacity", 4_096u64.into())])
        .element_with(
            "lb",
            "l4lb",
            &[("vip", "10.0.7.9".into()), ("vport", 443u16.into())],
        )
        .element("sink", "discard")
        .ingress("ct")
        .edge("ct", "lb")
        .edge("lb", "sink");
    for backend in 1..=backends {
        d = d.table(
            "lb",
            TableEntry::Backend {
                ip: Ipv4Addr::new(10, 1, 0, backend),
                port: 8080,
            },
        );
    }
    d
}

/// Shard `shard`'s balancer: the binding names the component, the
/// capsule's interface meta-model hands out its control surface.
fn balancer(binding: &DescBinding, shard: usize) -> Arc<L4LoadBalancer> {
    binding
        .with_shard(shard, |cs| {
            let id = cs.id_of("lb")?;
            cs.capsule().query_interface(id, IBALANCER).ok()?.downcast()
        })
        .flatten()
        .expect("`lb` compiled to a balancer")
}

fn burst(sport_base: u16) -> PacketBatch {
    (0..FLOWS)
        .map(|i| {
            PacketBuilder::udp_v4("192.0.2.7", "10.0.7.9", sport_base + i, 443)
                .payload_len(64)
                .build()
        })
        .collect()
}

fn main() -> Result<(), netkit::opencom::error::Error> {
    // 64 client flows hit one VIP across a 2-worker pipeline; each
    // shard's balancer pins its flows to backends by rendezvous
    // hashing, which is stable across shards.
    let v1 = edge_desc(4);
    let (pipe, mut binding) = Compiler::new().build_sharded(
        &v1,
        ShardSpec::new(WORKERS),
        Arc::new(ResourceManager::new()),
    )?;

    for _ in 0..PACKETS_PER_FLOW {
        pipe.dispatch(burst(10_000));
    }
    pipe.flush();

    // The binding resolves description names to live components, and
    // each component publishes its controls, so introspection needs no
    // element references of its own.
    let mut balanced_flows = 0;
    for shard in 0..WORKERS {
        for b in balancer(&binding, shard).backends() {
            balanced_flows += b.flows;
            println!(
                "shard {shard}: backend {}:{} — {} flows, {} packets",
                b.ip, b.port, b.flows, b.packets
            );
        }
    }
    assert_eq!(
        balanced_flows,
        u64::from(FLOWS),
        "every flow balanced exactly once"
    );

    // Grow the backend set mid-traffic: amend the description, diff,
    // apply. A backend addition is a pure table op — no structure, no
    // quiesce.
    let v2 = edge_desc(5);
    let patch = binding.diff_to(&v2)?;
    assert!(patch.param_only());
    let report = binding.apply_sharded(&pipe, &patch)?;
    assert_eq!(
        (report.structural, report.epochs, report.table_ops),
        (0, 0, WORKERS),
        "one table upsert per shard, nothing else"
    );
    println!(
        "grew VIP pool to 5 backends: {} table ops ({WORKERS} shards), 0 quiesce epochs",
        report.table_ops
    );

    // Existing flows keep their affinity; a second wave of *new*
    // flows sees the widened pool, and rendezvous hashing hands the
    // newcomer its share.
    for _ in 0..PACKETS_PER_FLOW {
        pipe.dispatch(burst(20_000));
    }
    pipe.flush();

    // Flows on the new backend, summed over the shards' balancers;
    // `each` sees every balancer with the backend's id first.
    let new_backend_flows = |each: &dyn Fn(&L4LoadBalancer, u32)| {
        let mut flows = 0;
        for shard in 0..WORKERS {
            let lb = balancer(&binding, shard);
            for b in lb.backends().iter().filter(|b| b.ip.octets()[3] == 5) {
                each(&lb, b.id);
                flows += b.flows;
            }
        }
        flows
    };
    let on_new_backend = new_backend_flows(&|_, _| ());
    assert!(
        on_new_backend > 0,
        "the new backend takes a share of new flows"
    );
    println!("rendezvous hashing handed {on_new_backend} of the new flows to the new backend");

    // Drain it again, through the balancer's own control: its flows keep their
    // backend, a third wave of new flows goes elsewhere.
    new_backend_flows(&|lb, id| assert!(lb.drain_backend(id)));
    for _ in 0..PACKETS_PER_FLOW {
        pipe.dispatch(burst(20_000));
        pipe.dispatch(burst(30_000));
    }
    pipe.flush();
    assert_eq!(
        new_backend_flows(&|_, _| ()),
        on_new_backend,
        "a draining backend takes no new flow"
    );
    println!("drained the new backend: {on_new_backend} flows stay, the third wave avoids it");

    let stats = pipe.stats();
    assert_eq!(
        stats.accepted,
        4 * (PACKETS_PER_FLOW as u64) * u64::from(FLOWS),
        "no loss across the live patch"
    );
    println!(
        "total: {} packets balanced across {WORKERS} shards, description and dataplane agree",
        stats.accepted
    );
    pipe.shutdown();
    Ok(())
}
