//! In-place IPv4/L4 endpoint rewriting with incremental checksums.
//!
//! NAT and the L4 load balancer rewrite one endpoint (address + port)
//! of a frame *in place* — no reallocation, no re-serialisation — and
//! patch the IPv4 header checksum and the TCP/UDP checksum with RFC
//! 1624 incremental updates, so a valid frame stays valid and an
//! unset UDP checksum (zero) stays unset. Zero means "unset" on UDP
//! only, and only as the sender wrote the field: on TCP it is a sum
//! like any other.
//!
//! The rewrite is also the one place that changes a stamped packet's
//! tuple, so it keeps the parse-once record
//! ([`PacketMeta::flow`](netkit_packet::packet::PacketMeta::flow))
//! true: the record is patched with the new endpoint (its hash is
//! recomputed by the next reader that wants it), so the next element
//! still reads instead of parsing.

use std::net::Ipv4Addr;

use netkit_packet::checksum::fold;
use netkit_packet::headers::proto;
use netkit_packet::packet::Packet;

/// Which endpoint of the frame to rewrite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RewriteSide {
    /// Source address + source port.
    Src,
    /// Destination address + destination port.
    Dst,
}

const ETH_LEN: usize = 14;

/// Reads a big-endian u16 at `off`.
fn rd16(b: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([b[off], b[off + 1]])
}

/// Writes a big-endian u16 at `off`.
fn wr16(b: &mut [u8], off: usize, v: u16) {
    b[off..off + 2].copy_from_slice(&v.to_be_bytes());
}

/// The checksum `cur` after every `(old, new)` word change, as one RFC
/// 1624 update: `HC' = ~(~HC + Σ(~m + m'))`. One fold over all the
/// words, so no intermediate value is ever read back as a field.
fn patched_checksum(cur: u16, words: &[(u16, u16)]) -> u16 {
    let sum = words.iter().fold(u32::from(!cur), |sum, &(old, new)| {
        sum + u32::from(!old) + u32::from(new)
    });
    !fold(sum)
}

/// Rewrites one endpoint (address and, for UDP/TCP, port) of an
/// Ethernet + IPv4 frame in place, patching the IPv4 and L4 checksums
/// incrementally. Clears the packet's stamped RSS hash — the tuple
/// changed, so any prior steering decision is stale — and patches the
/// stamped flow record, if any, to what a fresh parse would now find.
///
/// A non-first IPv4 fragment (fragment offset ≠ 0) has no L4 header:
/// only its address is rewritten, its payload bytes are never read as
/// a port or a checksum.
///
/// Returns `false` (frame untouched) if the frame is not IPv4 or is
/// too short for its own headers.
pub fn rewrite_ipv4_endpoint(
    pkt: &mut Packet,
    side: RewriteSide,
    new_ip: Ipv4Addr,
    new_port: u16,
) -> bool {
    let frame = pkt.data_mut();
    if frame.len() < ETH_LEN + 20 || rd16(frame, 12) != 0x0800 {
        return false;
    }
    let ihl = ((frame[ETH_LEN] & 0x0f) as usize) * 4;
    let l4 = ETH_LEN + ihl;
    if ihl < 20 || frame.len() < l4 {
        return false;
    }
    let protocol = frame[ETH_LEN + 9];
    let addr_off = match side {
        RewriteSide::Src => ETH_LEN + 12,
        RewriteSide::Dst => ETH_LEN + 16,
    };
    let old_hi = rd16(frame, addr_off);
    let old_lo = rd16(frame, addr_off + 2);
    let octets = new_ip.octets();
    let new_hi = u16::from_be_bytes([octets[0], octets[1]]);
    let new_lo = u16::from_be_bytes([octets[2], octets[3]]);
    frame[addr_off..addr_off + 4].copy_from_slice(&octets);
    // IPv4 header checksum: two address words changed.
    let ip_ck = ETH_LEN + 10;
    let addr_words = [(old_hi, new_hi), (old_lo, new_lo)];
    wr16(
        frame,
        ip_ck,
        patched_checksum(rd16(frame, ip_ck), &addr_words),
    );

    // L4: port + pseudo-header address words feed the L4 checksum —
    // where there is an L4 header, i.e. not past the first fragment.
    let first = rd16(frame, ETH_LEN + 6) & 0x1fff == 0;
    let l4_ck = match protocol {
        proto::UDP if first && frame.len() >= l4 + 8 => Some(l4 + 6),
        proto::TCP if first && frame.len() >= l4 + 20 => Some(l4 + 16),
        _ => None,
    };
    if let Some(ck) = l4_ck {
        let port_off = match side {
            RewriteSide::Src => l4,
            RewriteSide::Dst => l4 + 2,
        };
        let old_port = rd16(frame, port_off);
        wr16(frame, port_off, new_port);
        let udp = protocol == proto::UDP;
        let cur = rd16(frame, ck);
        // "In use" is decided once, on the field as it arrived.
        if !(udp && cur == 0) {
            let [hi, lo] = addr_words;
            let new = patched_checksum(cur, &[hi, lo, (old_port, new_port)]);
            // RFC 768: a UDP sum that comes out zero travels as all ones.
            wr16(frame, ck, if udp && new == 0 { 0xffff } else { new });
        }
    }
    pkt.meta.rss_hash = None;
    if let Some(flow) = pkt.meta.flow {
        pkt.meta.flow = Some(flow.with_endpoint(side == RewriteSide::Src, new_ip, new_port));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_packet::checksum::{sum_words, verify};
    use netkit_packet::flow::{FlowKey, ParsedFlow};
    use netkit_packet::headers::Ipv4Header;
    use netkit_packet::packet::PacketBuilder;

    #[test]
    fn rewrite_src_patches_tuple_and_ip_checksum() {
        let mut pkt = PacketBuilder::udp_v4("10.0.0.1", "10.9.9.9", 5000, 53).build();
        netkit_packet::flow::stamp_rss(&mut pkt);
        assert!(rewrite_ipv4_endpoint(
            &mut pkt,
            RewriteSide::Src,
            "192.0.2.1".parse().unwrap(),
            61_000,
        ));
        // Steering stamp cleared: the tuple changed.
        assert_eq!(pkt.meta.rss_hash, None);
        let key = FlowKey::from_packet(&pkt).expect("still parses (checksum valid)");
        // The flow record is patched, not dropped.
        let record = pkt.meta.flow.expect("record kept");
        assert_eq!((record.key(), record.hash()), (key, key.rss_hash()));
        assert_eq!(key.src.to_string(), "192.0.2.1");
        assert_eq!(key.src_port, 61_000);
        assert_eq!(key.dst.to_string(), "10.9.9.9");
        // The IPv4 header checksum verifies after the patch.
        let ip_bytes = &pkt.data()[ETH_LEN..ETH_LEN + 20];
        assert!(verify(ip_bytes));
        let ip = Ipv4Header::parse(&pkt.data()[ETH_LEN..]).unwrap();
        assert_eq!(ip.src.to_string(), "192.0.2.1");
    }

    #[test]
    fn rewrite_dst_roundtrips() {
        let mut pkt = PacketBuilder::udp_v4("10.0.0.1", "10.9.9.9", 5000, 53).build();
        let before = FlowKey::from_packet(&pkt).unwrap();
        assert!(rewrite_ipv4_endpoint(
            &mut pkt,
            RewriteSide::Dst,
            "172.16.0.9".parse().unwrap(),
            8080,
        ));
        assert!(rewrite_ipv4_endpoint(
            &mut pkt,
            RewriteSide::Dst,
            "10.9.9.9".parse().unwrap(),
            53,
        ));
        assert_eq!(FlowKey::from_packet(&pkt), Some(before));
    }

    const L4: usize = ETH_LEN + 20;

    fn l4_checksum_offset(frame: &[u8]) -> usize {
        match frame[ETH_LEN + 9] {
            proto::UDP => L4 + 6,
            _ => L4 + 16,
        }
    }

    /// The TCP/UDP checksum recomputed from scratch: pseudo-header plus
    /// segment, the field itself taken as zero.
    fn full_l4_checksum(frame: &[u8]) -> u16 {
        let protocol = frame[ETH_LEN + 9];
        let segment = &frame[L4..ETH_LEN + usize::from(rd16(frame, ETH_LEN + 2))];
        let sum = sum_words(&frame[ETH_LEN + 12..L4]) // both addresses
            + u32::from(protocol)
            + segment.len() as u32
            + sum_words(segment)
            - u32::from(rd16(frame, l4_checksum_offset(frame)));
        match !fold(sum) {
            0 if protocol == proto::UDP => 0xffff,
            ck => ck,
        }
    }

    /// A frame the way a real sender emits it: L4 checksum filled in
    /// (`PacketBuilder` leaves the field zero).
    fn checksummed(mut pkt: Packet) -> Packet {
        let ck = full_l4_checksum(pkt.data());
        let off = l4_checksum_offset(pkt.data());
        wr16(pkt.data_mut(), off, ck);
        pkt
    }

    #[test]
    fn tcp_checksum_survives_an_intermediate_sum_of_zero() {
        // Regression: the three changed words were patched one at a
        // time, re-reading the field before each and taking zero for
        // "no checksum". Craft the new address so that folding in its
        // first word alone brings the TCP checksum to exactly 0x0000;
        // the other two words then went unpatched.
        let mut pkt = checksummed(
            PacketBuilder::tcp_v4("10.0.0.1", "10.9.9.9", 40_000, 443)
                .payload(b"intermediate zero")
                .build(),
        );
        let frame = pkt.data();
        let hc = rd16(frame, l4_checksum_offset(frame));
        let old_hi = rd16(frame, ETH_LEN + 12);
        let new_hi = !fold(u32::from(!hc) + u32::from(!old_hi));
        assert_eq!(patched_checksum(hc, &[(old_hi, new_hi)]), 0);
        let [a, b] = new_hi.to_be_bytes();
        assert!(rewrite_ipv4_endpoint(
            &mut pkt,
            RewriteSide::Src,
            Ipv4Addr::new(a, b, 2, 1),
            61_000,
        ));
        let frame = pkt.data();
        assert_eq!(
            rd16(frame, l4_checksum_offset(frame)),
            full_l4_checksum(frame)
        );
    }

    #[test]
    fn unset_udp_checksum_stays_unset_and_a_zero_tcp_field_does_not() {
        let rewrite = |mut pkt: Packet| {
            assert!(rewrite_ipv4_endpoint(
                &mut pkt,
                RewriteSide::Dst,
                "192.0.2.7".parse().unwrap(),
                8080,
            ));
            rd16(pkt.data(), l4_checksum_offset(pkt.data()))
        };
        let udp = PacketBuilder::udp_v4("10.0.0.1", "10.9.9.9", 5000, 53).build();
        assert_eq!(rewrite(udp), 0);
        let tcp = PacketBuilder::tcp_v4("10.0.0.1", "10.9.9.9", 5000, 53).build();
        assert_ne!(rewrite(tcp), 0, "zero is a sum on TCP: patched like one");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Incremental ≡ full recomputation, both protocols, both
            /// sides, any tuple.
            #[test]
            fn incremental_l4_checksum_equals_full_recomputation(
                tcp in any::<bool>(),
                src_side in any::<bool>(),
                old in (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>()),
                new in (any::<u32>(), any::<u16>()),
                payload in proptest::collection::vec(any::<u8>(), 0..64),
            ) {
                let (src, dst, sport, dport) = old;
                let (src, dst) = (Ipv4Addr::from(src).to_string(), Ipv4Addr::from(dst).to_string());
                let builder = if tcp {
                    PacketBuilder::tcp_v4(&src, &dst, sport, dport)
                } else {
                    PacketBuilder::udp_v4(&src, &dst, sport, dport)
                };
                let mut pkt = checksummed(builder.payload(&payload).build());
                let side = if src_side { RewriteSide::Src } else { RewriteSide::Dst };
                prop_assert!(rewrite_ipv4_endpoint(&mut pkt, side, Ipv4Addr::from(new.0), new.1));
                let frame = pkt.data();
                prop_assert!(verify(&frame[ETH_LEN..L4]), "ipv4 header checksum");
                prop_assert_eq!(rd16(frame, l4_checksum_offset(frame)), full_l4_checksum(frame));
            }

            /// The carried record after a rewrite ≡ a fresh parse of
            /// the rewritten frame: any protocol, fragments included,
            /// either side, twice in a row (NAT then load balancer).
            #[test]
            fn the_record_follows_the_rewrite(
                protocol in prop_oneof![Just(proto::TCP), Just(proto::UDP), Just(1u8)],
                fragment in prop_oneof![3 => Just((0u16, false)), 1 => (0u16..32, any::<bool>())],
                old in (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>()),
                first in (any::<bool>(), any::<u32>(), any::<u16>()),
                second in (any::<bool>(), any::<u32>(), any::<u16>()),
            ) {
                let (src, dst, sport, dport) = old;
                let (src, dst) = (Ipv4Addr::from(src).to_string(), Ipv4Addr::from(dst).to_string());
                let builder = if protocol == proto::TCP {
                    PacketBuilder::tcp_v4(&src, &dst, sport, dport)
                } else {
                    PacketBuilder::udp_v4(&src, &dst, sport, dport)
                };
                let mut pkt = builder
                    .fragment(fragment.0, fragment.1)
                    .payload_len(24)
                    .build();
                if protocol == 1 {
                    // ICMP: same bytes, another protocol number.
                    let l3 = pkt.l3_mut();
                    l3[9] = 1;
                    l3[10..12].fill(0);
                    let ck = netkit_packet::checksum::internet_checksum(&l3[..20]);
                    l3[10..12].copy_from_slice(&ck.to_be_bytes());
                }
                netkit_packet::flow::stamp_rss(&mut pkt);
                prop_assert!(pkt.meta.flow.is_some());
                for (src_side, ip, port) in [first, second] {
                    let side = if src_side { RewriteSide::Src } else { RewriteSide::Dst };
                    prop_assert!(rewrite_ipv4_endpoint(&mut pkt, side, Ipv4Addr::from(ip), port));
                    let fresh = ParsedFlow::from_frame(pkt.data());
                    prop_assert!(fresh.is_some(), "a rewritten frame still parses");
                    prop_assert_eq!(pkt.meta.flow, fresh);
                    prop_assert_eq!(pkt.meta.flow.map(|f| f.hash()), fresh.map(|f| f.hash()));
                    prop_assert_eq!(pkt.meta.rss_hash, None);
                }
            }
        }
    }

    #[test]
    fn a_non_first_fragment_keeps_its_payload_bytes() {
        // Regression: the bytes after the IP header of a middle
        // fragment were read as a UDP header — "port" and "checksum"
        // overwritten in what is really payload.
        let mut frag = PacketBuilder::udp_v4("10.0.0.1", "10.9.9.9", 5000, 53)
            .fragment(4, true)
            .payload(&[0xb2; 24])
            .build();
        netkit_packet::flow::stamp_rss(&mut frag);
        let before = frag.data().to_vec();
        assert!(rewrite_ipv4_endpoint(
            &mut frag,
            RewriteSide::Src,
            "192.0.2.1".parse().unwrap(),
            61_000,
        ));
        let after = frag.data();
        assert_eq!(after[L4..], before[L4..], "payload untouched");
        assert_eq!(after[ETH_LEN + 12..ETH_LEN + 16], [192, 0, 2, 1]);
        assert!(verify(&after[ETH_LEN..L4]));
        // The record follows the address and stays port-less.
        assert_eq!(frag.meta.flow, ParsedFlow::from_frame(frag.data()));
        assert_eq!(frag.meta.flow.unwrap().src_port(), 0);
    }

    #[test]
    fn non_ipv4_frames_are_left_alone() {
        let mut arp = Packet::from_slice(&[0u8; 14]);
        assert!(!rewrite_ipv4_endpoint(
            &mut arp,
            RewriteSide::Src,
            "192.0.2.1".parse().unwrap(),
            1,
        ));
    }
}
