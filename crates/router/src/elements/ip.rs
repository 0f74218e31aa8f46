//! IPv4/IPv6 header processor elements (the "hdr processor" boxes of
//! paper Figure 3): validate, decrement TTL/hop-limit with incremental
//! checksum, and forward — errors exit on the `err` receptacle when
//! bound, otherwise count as drops.

use std::sync::Arc;

use netkit_packet::batch::PacketBatch;
use netkit_packet::headers::{Ipv4Header, Ipv6Header};
use netkit_packet::packet::Packet;
use opencom::component::{Component, ComponentCore, Registrar};
use opencom::counters;
use opencom::receptacle::Receptacle;

use crate::api::{emit, BatchResult, Exit, Exits, IPacketPush, Output, PushError, IPACKET_PUSH};

use super::element_core;

counters! {
    /// Counters shared by both processors.
    pub struct IpStats {
        /// Packets validated and forwarded.
        forwarded,
        /// Packets dropped for malformed headers.
        malformed,
        /// Packets dropped (or diverted) for TTL expiry.
        ttl_expired,
    }
}

macro_rules! ip_processor {
    ($(#[$doc:meta])* $name:ident, $type_name:literal, $validate:expr, $decrement:expr) => {
        $(#[$doc])*
        pub struct $name {
            core: ComponentCore,
            out: Receptacle<dyn IPacketPush>,
            err: Receptacle<dyn IPacketPush>,
        }

        impl $name {
            /// Creates the processor.
            pub fn new() -> Arc<Self> {
                Arc::new(Self {
                    core: element_core($type_name).counting::<IpStats>(),
                    out: Receptacle::single("out", IPACKET_PUSH),
                    err: Receptacle::single("err", IPACKET_PUSH),
                })
            }

            /// Snapshot of the processor's counters.
            pub fn stats(&self) -> IpStats {
                self.core.counters().read()
            }
        }

        impl IPacketPush for $name {
            fn push_batch(&self, mut batch: PacketBatch) -> BatchResult {
                // Validate + decrement per packet; failures leave on
                // `err` (crossed first), survivors on `out`. With `err`
                // unbound each failure drops with its own reason.
                const ERR: usize = 0;
                const OUT: usize = 1;
                let mut exits = Exits::new(OUT);
                let mut counts = IpStats::default();
                let err_bound = self.err.with_bound(|_| ()).is_some();
                for (idx, pkt) in batch.packets_mut().iter_mut().enumerate() {
                    #[allow(clippy::redundant_closure_call)]
                    let reason = match ($validate)(&*pkt) {
                        Err(e) => {
                            counts.malformed += 1;
                            PushError::Malformed(e)
                        }
                        Ok(()) if ($decrement)(pkt).is_err() => {
                            counts.ttl_expired += 1;
                            PushError::TtlExpired
                        }
                        Ok(()) => continue,
                    };
                    exits.set(idx, if err_bound { Exit::Out(ERR) } else { Exit::Drop(Err(reason)) });
                }
                let outputs =
                    [&self.err, &self.out].map(|port| Output::new(port, Err(PushError::Unbound)));
                let result = emit(batch, &exits, &outputs);
                counts.forwarded = (result.verdicts.iter().enumerate())
                    .filter(|(idx, v)| v.is_ok() && exits.output_of(*idx) == Some(OUT))
                    .count() as u64;
                self.core.counters().flush(counts);
                result
            }
        }

        impl Component for $name {
            fn core(&self) -> &ComponentCore {
                &self.core
            }
            fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
                let push: Arc<dyn IPacketPush> = self.clone();
                reg.expose(IPACKET_PUSH, &push);
                reg.receptacle(&self.out);
                reg.receptacle(&self.err);
            }
            fn footprint_bytes(&self) -> usize {
                std::mem::size_of::<Self>()
            }
        }
    };
}

ip_processor!(
    /// IPv4 header processor: verifies the checksum-validated header,
    /// decrements the TTL with an RFC 1624 incremental checksum update,
    /// and forwards. Packets arriving with TTL ≤ 1 are expired (they
    /// must not be forwarded with TTL 0).
    Ipv4Processor,
    "netkit.Ipv4Processor",
    |pkt: &Packet| pkt.ipv4().map(|_| ()),
    |pkt: &mut Packet| {
        let l3 = pkt.l3_mut();
        if l3.len() > 8 && l3[8] <= 1 {
            return Err(());
        }
        Ipv4Header::decrement_ttl_in_place(l3).map(|_| ()).map_err(|_| ())
    }
);

ip_processor!(
    /// IPv6 header processor: validates the fixed header and decrements
    /// the hop limit. Packets arriving with hop limit ≤ 1 are expired.
    Ipv6Processor,
    "netkit.Ipv6Processor",
    |pkt: &Packet| pkt.ipv6().map(|_| ()),
    |pkt: &mut Packet| {
        let l3 = pkt.l3_mut();
        if l3.len() > 7 && l3[7] <= 1 {
            return Err(());
        }
        Ipv6Header::decrement_hop_limit_in_place(l3).map(|_| ()).map_err(|_| ())
    }
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::misc::{Counter, Discard};
    use netkit_packet::packet::PacketBuilder;
    use opencom::capsule::Capsule;
    use opencom::runtime::Runtime;

    fn setup() -> (
        Arc<opencom::capsule::Capsule>,
        Arc<Ipv4Processor>,
        Arc<Discard>,
        Arc<Discard>,
    ) {
        let rt = Runtime::new();
        crate::api::register_packet_interfaces(&rt);
        let capsule = Capsule::new("t", &rt);
        let proc4 = Ipv4Processor::new();
        let sink = Discard::new();
        let errsink = Discard::new();
        let pid = capsule.adopt(proc4.clone()).unwrap();
        let sid = capsule.adopt(sink.clone()).unwrap();
        let eid = capsule.adopt(errsink.clone()).unwrap();
        capsule.bind_simple(pid, "out", sid, IPACKET_PUSH).unwrap();
        capsule.bind_simple(pid, "err", eid, IPACKET_PUSH).unwrap();
        (capsule, proc4, sink, errsink)
    }

    #[test]
    fn valid_packet_is_ttl_decremented_and_forwarded() {
        let (_c, proc4, sink, err) = setup();
        let pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2)
            .ttl(9)
            .build();
        proc4.push(pkt).unwrap();
        assert_eq!(sink.count(), 1);
        assert_eq!(err.count(), 0);
        assert_eq!(proc4.stats().forwarded, 1);
        let got = sink.last().unwrap();
        assert_eq!(
            got.ipv4().unwrap().ttl,
            8,
            "ttl decremented, checksum valid"
        );
    }

    #[test]
    fn ttl_one_expires_to_err_port() {
        let (_c, proc4, sink, err) = setup();
        for ttl in [0, 1] {
            let pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2)
                .ttl(ttl)
                .build();
            let res = proc4.push(pkt);
            assert!(res.is_ok(), "diverted to err sink: {res:?}");
        }
        assert_eq!(err.count(), 2);
        assert_eq!(sink.count(), 0);
        assert_eq!(proc4.stats().ttl_expired, 2);
    }

    #[test]
    fn corrupt_checksum_goes_to_err() {
        let (_c, proc4, sink, err) = setup();
        let mut pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build();
        pkt.l3_mut()[9] ^= 0xff;
        proc4.push(pkt).unwrap();
        assert_eq!(err.count(), 1);
        assert_eq!(sink.count(), 0);
        assert_eq!(proc4.stats().malformed, 1);
    }

    #[test]
    fn error_without_err_binding_is_reported() {
        let rt = Runtime::new();
        crate::api::register_packet_interfaces(&rt);
        let capsule = Capsule::new("t", &rt);
        let proc4 = Ipv4Processor::new();
        let sink = Counter::new();
        let pid = capsule.adopt(proc4.clone()).unwrap();
        let sid = capsule.adopt(sink).unwrap();
        capsule.bind_simple(pid, "out", sid, IPACKET_PUSH).unwrap();
        let pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2)
            .ttl(0)
            .build();
        assert!(matches!(proc4.push(pkt), Err(PushError::TtlExpired)));
    }

    #[test]
    fn ipv6_processor_decrements_hop_limit() {
        let rt = Runtime::new();
        crate::api::register_packet_interfaces(&rt);
        let capsule = Capsule::new("t", &rt);
        let proc6 = Ipv6Processor::new();
        let sink = Discard::new();
        let pid = capsule.adopt(proc6.clone()).unwrap();
        let sid = capsule.adopt(sink.clone()).unwrap();
        capsule.bind_simple(pid, "out", sid, IPACKET_PUSH).unwrap();
        let pkt = PacketBuilder::udp_v6("2001:db8::1", "2001:db8::2", 1, 2)
            .ttl(4)
            .build();
        proc6.push(pkt).unwrap();
        assert_eq!(sink.last().unwrap().ipv6().unwrap().hop_limit, 3);
    }
}
