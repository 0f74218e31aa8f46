//! Byte fuzz for the two frame parsers behind flow identification —
//! [`FlowKey::from_frame`] and [`ParsedFlow::from_frame`] — against an
//! independent oracle: the header-by-header parse these functions used
//! to be, kept here verbatim, plus the fragment rule stated on its own.
//!
//! Frames are generated structured-then-damaged (valid Ethernet/IPv4
//! with options, every L4 protocol, fragments, truncation, then a few
//! flipped bytes), because uniformly random bytes almost never pass the
//! IPv4 checksum and would only ever exercise the first `return None`.

use proptest::prelude::*;

use netkit_packet::checksum::internet_checksum;
use netkit_packet::flow::{stamp_rss, FlowKey, FlowView, ParsedFlow};
use netkit_packet::headers::{
    proto, EtherType, EthernetHeader, Ipv4Header, Ipv6Header, TcpFlags, TcpHeader, UdpHeader,
};
use netkit_packet::packet::Packet;

/// The flow key as `FlowKey::from_frame` computed it before fragments
/// were special-cased and before the record existed.
fn old_flow_key(frame: &[u8]) -> Option<FlowKey> {
    let eth = EthernetHeader::parse(frame).ok()?;
    let l3 = frame.get(EthernetHeader::LEN..)?;
    match eth.ethertype {
        EtherType::Ipv4 => {
            let ip = Ipv4Header::parse(l3).ok()?;
            let l4 = l3.get(ip.header_len..)?;
            let (src_port, dst_port) = match ip.protocol {
                proto::UDP => {
                    let udp = UdpHeader::parse(l4).ok()?;
                    (udp.src_port, udp.dst_port)
                }
                proto::TCP => {
                    let tcp = TcpHeader::parse(l4).ok()?;
                    (tcp.src_port, tcp.dst_port)
                }
                _ => (0, 0),
            };
            Some(FlowKey {
                src: ip.src.into(),
                dst: ip.dst.into(),
                protocol: ip.protocol,
                src_port,
                dst_port,
            })
        }
        EtherType::Ipv6 => {
            let ip = Ipv6Header::parse(l3).ok()?;
            Some(FlowKey {
                src: ip.src.into(),
                dst: ip.dst.into(),
                protocol: ip.next_header,
                src_port: 0,
                dst_port: 0,
            })
        }
        _ => None,
    }
}

/// The TCP flags as the router's `conntrack::tcp_flags` parsed them.
fn old_tcp_flags(frame: &[u8]) -> Option<TcpFlags> {
    let eth = EthernetHeader::parse(frame).ok()?;
    if eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    let l3 = frame.get(EthernetHeader::LEN..)?;
    let ip = Ipv4Header::parse(l3).ok()?;
    if ip.protocol != proto::TCP {
        return None;
    }
    let tcp = TcpHeader::parse(l3.get(ip.header_len..)?).ok()?;
    Some(tcp.flags)
}

/// The IPv4 header of a frame that has a valid one.
fn ipv4_of(frame: &[u8]) -> Option<Ipv4Header> {
    let eth = EthernetHeader::parse(frame).ok()?;
    if eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    Ipv4Header::parse(frame.get(EthernetHeader::LEN..)?).ok()
}

/// What both parsers must say about `frame`: the key, the TCP flags
/// and the fragment marker.
fn oracle(frame: &[u8]) -> Option<(FlowKey, Option<TcpFlags>, bool)> {
    match ipv4_of(frame) {
        Some(ip) if ip.more_fragments || ip.fragment_offset != 0 => Some((
            FlowKey {
                src: ip.src.into(),
                dst: ip.dst.into(),
                protocol: ip.protocol,
                src_port: 0,
                dst_port: 0,
            },
            None,
            true,
        )),
        _ => old_flow_key(frame).map(|key| (key, old_tcp_flags(frame), false)),
    }
}

#[derive(Clone, Debug)]
struct FrameSpec {
    ethertype: u16,
    ihl: u8,
    protocol: u8,
    flags_frag: u16,
    addrs: (u32, u32),
    l4: Vec<u8>,
    keep: usize,
    damage: Vec<(usize, u8)>,
}

fn frame_spec() -> impl Strategy<Value = FrameSpec> {
    (
        prop_oneof![8 => Just(0x0800u16), 1 => Just(0x86ddu16), 1 => any::<u16>()],
        prop_oneof![6 => Just(5u8), 2 => 6u8..=15, 1 => 0u8..5],
        prop_oneof![4 => Just(proto::TCP), 4 => Just(proto::UDP), 1 => Just(1u8), 1 => any::<u8>()],
        // DF/MF/offset: mostly unfragmented, every fragment shape too.
        prop_oneof![
            5 => Just(0x4000u16),
            1 => Just(0x2000u16),
            1 => (1u16..0x1fff).prop_map(|off| 0x2000 | off),
            1 => 1u16..0x1fff,
            1 => any::<u16>(),
        ],
        (any::<u32>(), any::<u32>()),
        // L4 bytes: random, but three times in four long enough for a
        // TCP header and with a legal TCP data offset.
        (proptest::collection::vec(any::<u8>(), 0..64), 0u8..4).prop_map(|(mut l4, fix)| {
            if fix > 0 {
                l4.resize(l4.len().max(20), 0);
                l4[12] |= 0x50;
            }
            l4
        }),
        // How much of the frame survives truncation, in 1/256ths.
        prop_oneof![3 => Just(256usize), 1 => 0usize..=256],
        proptest::collection::vec((any::<usize>(), any::<u8>()), 0..3),
    )
        .prop_map(
            |(ethertype, ihl, protocol, flags_frag, addrs, l4, keep, damage)| FrameSpec {
                ethertype,
                ihl,
                protocol,
                flags_frag,
                addrs,
                l4,
                keep,
                // Two frames in three go undamaged.
                damage: if damage.len() == 2 {
                    damage
                } else {
                    Vec::new()
                },
            },
        )
}

impl FrameSpec {
    fn build(&self) -> Vec<u8> {
        let mut f = vec![2, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 1];
        f.extend_from_slice(&self.ethertype.to_be_bytes());
        let ip = f.len();
        let header_len = usize::from(self.ihl) * 4;
        f.push(0x40 | self.ihl);
        f.push(0);
        f.extend_from_slice(&((header_len.max(20) + self.l4.len()) as u16).to_be_bytes());
        f.extend_from_slice(&[0x12, 0x34]);
        f.extend_from_slice(&self.flags_frag.to_be_bytes());
        f.extend_from_slice(&[64, self.protocol, 0, 0]);
        f.extend_from_slice(&self.addrs.0.to_be_bytes());
        f.extend_from_slice(&self.addrs.1.to_be_bytes());
        f.resize(ip + header_len.max(20), 0x01); // options: NOPs
        let end = (ip + header_len).min(f.len()).max(ip + 12);
        let ck = internet_checksum(&f[ip..end]);
        f[ip + 10..ip + 12].copy_from_slice(&ck.to_be_bytes());
        f.extend_from_slice(&self.l4);
        f.truncate(f.len() * self.keep / 256);
        for &(at, xor) in &self.damage {
            if !f.is_empty() {
                let at = at % f.len();
                f[at] ^= xor;
            }
        }
        f
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Neither parser panics on anything, and both agree with the
    /// oracle on everything: presence, key, hash, flags, fragment.
    #[test]
    fn parsers_agree_with_the_header_by_header_oracle(spec in frame_spec()) {
        let frame = spec.build();
        let expect = oracle(&frame);
        prop_assert_eq!(FlowKey::from_frame(&frame), expect.map(|(key, _, _)| key));
        let record = ParsedFlow::from_frame(&frame);
        match expect.filter(|(key, _, _)| key.src.is_ipv4()) {
            None => prop_assert_eq!(record, None),
            Some((key, flags, fragment)) => {
                let record = record.expect("an IPv4 flow has a record");
                prop_assert_eq!(record.key(), key);
                prop_assert_eq!(record.hash(), key.rss_hash());
                prop_assert_eq!(record.tcp_flags(), flags);
                prop_assert_eq!(record.is_fragment(), fragment);
            }
        }
        // The packet-level readers say the same with and without the
        // stamp, and the stamp is the record.
        let mut pkt = Packet::from_slice(&frame);
        let view = FlowView::of(&pkt);
        prop_assert_eq!(
            view.map(|v| (v.key, v.tcp_flags)),
            expect.map(|(key, flags, _)| (key, flags))
        );
        prop_assert_eq!(view.map(|v| v.hash), expect.map(|(key, _, _)| key.rss_hash()));
        prop_assert_eq!(stamp_rss(&mut pkt), view.map(|v| v.hash));
        prop_assert_eq!(pkt.meta.flow, record);
        prop_assert_eq!(FlowView::of(&pkt), view);
    }

    /// Byte soup: never a panic, and never a record without a key.
    #[test]
    fn arbitrary_bytes_never_panic(frame in proptest::collection::vec(any::<u8>(), 0..96)) {
        let key = FlowKey::from_frame(&frame);
        let record = ParsedFlow::from_frame(&frame);
        prop_assert_eq!(record.map(|r| r.key()), key.filter(|k| k.src.is_ipv4()));
    }
}

#[test]
fn the_generator_reaches_every_branch_worth_reaching() {
    // Guards the fuzz against silently degenerating into all-`None`.
    let mut rng = proptest::test_runner::TestRng::deterministic("coverage");
    let (mut tcp, mut udp, mut frag, mut v6, mut none) = (0, 0, 0, 0, 0);
    for _ in 0..2048 {
        let frame = frame_spec().generate(&mut rng).build();
        match oracle(&frame) {
            None => none += 1,
            Some((_, _, true)) => frag += 1,
            Some((key, _, _)) if key.src.is_ipv6() => v6 += 1,
            Some((_, Some(_), _)) => tcp += 1,
            Some((key, _, _)) if key.protocol == proto::UDP => udp += 1,
            Some(_) => {}
        }
    }
    for (what, n) in [
        ("tcp", tcp),
        ("udp", udp),
        ("fragments", frag),
        ("none", none),
    ] {
        assert!(n >= 100, "{what}: only {n} of 2048 frames");
    }
    let _ = v6; // IPv6 needs 40 bytes of luck after the ethertype: rare, fine.
}
