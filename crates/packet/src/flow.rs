//! Flow identification: the 5-tuple key, the RSS hash, and the
//! parse-once flow record.
//!
//! Stratum 3 operates on "pre-selected packet flows in application-
//! specific ways" (paper §3). [`FlowKey`] is the classic 5-tuple;
//! [`ParsedFlow`] is the compact record of one IPv4 frame's tuple that
//! the rx path stamps into
//! [`PacketMeta::flow`](crate::packet::PacketMeta::flow) so that no
//! element downstream parses the frame again. (The bounded per-flow
//! state tables live with their users, in `netkit_router::flow`.)
//!
//! # The parse-once contract
//!
//! * **Who stamps.** Whoever materialises a packet: the NIC rx path
//!   (`Nic::inject_rx_frame` parses the wire bytes once; the record
//!   rides the rx ring into the [`Packet`]) and [`stamp_rss`] /
//!   `PacketBatch::stamp_rss` for packets built in software.
//! * **Who reads.** Anyone, through [`ParsedFlow::of`] (IPv4 only) or
//!   [`FlowView::of`] (any family): the stamped record, else one parse.
//! * **Who must keep it true.** Anyone who rewrites the tuple bytes of
//!   a stamped packet patches the record in the same breath
//!   ([`ParsedFlow::with_endpoint`]) or clears it — the router's
//!   `rewrite_ipv4_endpoint` is the one such writer today. TTL and
//!   DSCP edits leave the tuple alone and need do nothing.
//! * **What carries no record.** IPv6 and non-IP frames (the record is
//!   IPv4-only to stay within 24 bytes per packet): readers fall back
//!   to the general [`FlowKey::from_frame`] parse.
//!
//! A flow table's hash always comes from the record or the key
//! ([`ParsedFlow::hash`] ≡ [`FlowKey::rss_hash`]), never from
//! [`PacketMeta::rss_hash`](crate::packet::PacketMeta::rss_hash): that
//! field is a *steering* decision which a driver or test may have
//! stamped with any value.

use std::fmt;
use std::net::{IpAddr, Ipv4Addr};

use crate::headers::{
    proto, EtherType, EthernetHeader, Ipv4Header, Ipv6Header, TcpFlags, TcpHeader, UdpHeader,
};
use crate::packet::Packet;

#[cfg(debug_assertions)]
thread_local! {
    static PARSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Frame parses ([`FlowKey::from_frame`] / [`ParsedFlow::from_frame`]
/// calls) made on this thread so far. Debug builds only — the counter
/// exists so tests can pin "no element parses after rx"; release
/// builds carry nothing.
#[cfg(debug_assertions)]
#[doc(hidden)]
pub fn parses_on_this_thread() -> u64 {
    PARSES.with(std::cell::Cell::get)
}

#[inline]
fn note_parse() {
    #[cfg(debug_assertions)]
    PARSES.with(|c| c.set(c.get() + 1));
}

/// The shard a packet steers to under `shards` receive queues with the
/// **identity** bucket table: the driver-stamped
/// [`PacketMeta::rss_hash`](crate::packet::PacketMeta::rss_hash) when
/// present, else the parsed flow's [`FlowKey::rss_hash`] (computed and
/// **stamped back is the caller's job** — use [`stamp_rss`] at
/// materialisation time so this function never re-parses), reduced to a
/// bucket ([`crate::steer::bucket_of`]) and then to `bucket % shards`.
/// Packets with no flow identity (ARP, malformed frames)
/// deterministically land on bucket 0, hence shard 0 here.
///
/// Table-driven steering (the rebalancer's non-identity maps) goes
/// through [`crate::steer::BucketMap::shard_of_packet`]; this function
/// is exactly that lookup for `BucketMap::identity(shards)`, and
/// because every power-of-two shard count divides
/// [`crate::steer::RSS_BUCKETS`], it agrees bit-for-bit with the
/// historical `hash % shards` rule for those counts.
///
/// Shard-count edge case: `shards == 0` and `shards == 1` are
/// equivalent — both mean "no spreading", every packet lands on shard 0
/// (mirroring [`FlowKey::shard_for`], `ShardSpec`'s ≥ 1 clamp, and the
/// NIC's single-queue fallback).
pub fn shard_of(pkt: &Packet, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    match steering_hash(pkt) {
        Some(h) => crate::steer::bucket_of(h) % shards,
        None => 0,
    }
}

/// The hash a packet steers (and is sketch-metered) by: the stamped
/// [`PacketMeta::rss_hash`](crate::packet::PacketMeta::rss_hash) when
/// present, else the flow's own hash (from the record, or one parse —
/// not stamped back). `None` for frames with no flow identity.
#[inline]
pub fn steering_hash(pkt: &Packet) -> Option<u64> {
    pkt.meta
        .rss_hash
        .or_else(|| FlowView::of(pkt).map(|v| v.hash))
}

/// Stamps [`PacketMeta::rss_hash`](crate::packet::PacketMeta::rss_hash)
/// — and, for IPv4, the parse-once record
/// [`PacketMeta::flow`](crate::packet::PacketMeta::flow) — from the
/// packet's flow tuple, if not already stamped: the software analogue
/// of what a multi-queue NIC computes in hardware on rx. Returns the
/// hash. Call once at materialisation (NIC rx / batch construction);
/// every later [`shard_of`] is then a modulo and every stateful
/// element reads the record, not the frame.
#[inline]
pub fn stamp_rss(pkt: &mut Packet) -> Option<u64> {
    if pkt.meta.rss_hash.is_none() {
        if pkt.meta.flow.is_none() {
            pkt.meta.flow = ParsedFlow::from_frame(pkt.data());
        }
        pkt.meta.rss_hash = FlowView::of(pkt).map(|v| v.hash);
    }
    pkt.meta.rss_hash
}

/// Which direction of a bidirectional connection a packet belongs to,
/// relative to the flow's [canonical](FlowKey::canonical) orientation.
///
/// Returned by [`FlowKey::canonical_with_direction`] so stateful
/// elements (conntrack, NAT) can keep one table entry per connection
/// and still attribute packets and bytes per direction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FlowDirection {
    /// The packet's tuple already was in canonical orientation — by
    /// convention the connection's *initiator→responder* direction when
    /// the initiator's endpoint sorts first.
    Forward,
    /// The packet's tuple is the canonical key with endpoints swapped.
    Reverse,
}

impl FlowDirection {
    /// True for [`FlowDirection::Forward`].
    pub fn is_forward(self) -> bool {
        matches!(self, FlowDirection::Forward)
    }

    /// The opposite direction.
    pub fn flipped(self) -> FlowDirection {
        match self {
            FlowDirection::Forward => FlowDirection::Reverse,
            FlowDirection::Reverse => FlowDirection::Forward,
        }
    }
}

/// The classic 5-tuple flow identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FlowKey {
    /// Source address.
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// IP protocol number.
    pub protocol: u8,
    /// Source transport port (0 when the protocol has no ports).
    pub src_port: u16,
    /// Destination transport port (0 when the protocol has no ports).
    pub dst_port: u16,
}

impl FlowKey {
    /// Extracts the 5-tuple from a frame, if it is IPv4/IPv6 carrying
    /// UDP or TCP (other traffic yields ports of zero). Always a parse
    /// of the frame bytes — elements on the packet path read the
    /// stamped record through [`FlowView::of`] instead.
    #[inline]
    pub fn from_packet(pkt: &Packet) -> Option<FlowKey> {
        Self::from_frame(pkt.data())
    }

    /// Extracts the 5-tuple from raw frame bytes (Ethernet header
    /// first) — the parse a NIC's RSS engine performs on the wire side,
    /// before any [`Packet`] exists.
    ///
    /// An IPv4 **fragment** (more-fragments set or a non-zero offset)
    /// is port-less, as RSS hardware treats it: only the first fragment
    /// carries an L4 header at all, so keying any of them by "ports"
    /// would scatter one datagram over several flows. All fragments of
    /// a datagram share the 3-tuple key (ports zero).
    #[inline]
    pub fn from_frame(frame: &[u8]) -> Option<FlowKey> {
        let eth = EthernetHeader::parse(frame).ok()?;
        let l3 = frame.get(EthernetHeader::LEN..)?;
        match eth.ethertype {
            EtherType::Ipv4 => parse_ipv4(l3).map(|f| f.key()),
            EtherType::Ipv6 => {
                note_parse();
                let ip = Ipv6Header::parse(l3).ok()?;
                Some(FlowKey {
                    src: IpAddr::V6(ip.src),
                    dst: IpAddr::V6(ip.dst),
                    protocol: ip.next_header,
                    src_port: 0,
                    dst_port: 0,
                })
            }
            _ => None,
        }
    }

    /// The direction-normalized key: the endpoint pair is sorted so
    /// both directions of a connection produce the *same* key —
    /// `canonical(a→b) == canonical(b→a)`. Address and port swap
    /// together (they name one endpoint); the protocol is unchanged.
    ///
    /// Stateful elements key their per-flow tables by this, so a
    /// connection occupies one entry no matter which side sent the
    /// packet in hand. [`Self::rss_hash`] hashes the canonical
    /// orientation for the same reason: both directions must steer to
    /// the same shard or single-writer per-shard flow tables would see
    /// half a connection each.
    #[inline]
    pub fn canonical(&self) -> FlowKey {
        self.canonical_with_direction().0
    }

    /// [`Self::canonical`] plus which direction this tuple was:
    /// [`FlowDirection::Forward`] if it already was canonical,
    /// [`FlowDirection::Reverse`] if the endpoints were swapped.
    #[inline]
    pub fn canonical_with_direction(&self) -> (FlowKey, FlowDirection) {
        let swap = match (self.src, self.dst) {
            // Every packet of the IPv4 path asks: two integer compares,
            // the same order `IpAddr`'s octet-wise `Ord` gives.
            (IpAddr::V4(src), IpAddr::V4(dst)) => {
                (u32::from(dst), self.dst_port) < (u32::from(src), self.src_port)
            }
            _ => (self.dst, self.dst_port) < (self.src, self.src_port),
        };
        if swap {
            (
                FlowKey {
                    src: self.dst,
                    dst: self.src,
                    protocol: self.protocol,
                    src_port: self.dst_port,
                    dst_port: self.src_port,
                },
                FlowDirection::Reverse,
            )
        } else {
            (*self, FlowDirection::Forward)
        }
    }

    /// The RSS steering hash: FNV-1a over the **canonical** tuple
    /// encoding (sorted endpoints, see [`Self::canonical`]), finished
    /// with a murmur3-style avalanche so the *low* bits — the ones
    /// `% shards` keeps — disperse even when tuples differ only in
    /// their trailing bytes (plain FNV-1a leaves the low bits badly
    /// clustered for e.g. dst-port-only variation).
    ///
    /// Hashing the canonical orientation makes the hash — and therefore
    /// bucket and shard placement — *direction-symmetric*: request and
    /// reply of one connection always steer to the same worker, the
    /// invariant the per-shard single-writer flow tables rely on.
    ///
    /// It is stable across runs, processes, and platforms (no std
    /// hasher involved), so flow→queue placement decisions are
    /// reproducible — the property the sharded dataplane's
    /// differential tests rely on.
    #[inline]
    pub fn rss_hash(&self) -> u64 {
        #[inline]
        fn octets(ip: IpAddr) -> ([u8; 16], usize) {
            match ip {
                IpAddr::V4(a) => {
                    let mut buf = [0u8; 16];
                    buf[..4].copy_from_slice(&a.octets());
                    (buf, 4)
                }
                IpAddr::V6(a) => (a.octets(), 16),
            }
        }
        let c = self.canonical();
        let (src, src_len) = octets(c.src);
        let (dst, dst_len) = octets(c.dst);
        tuple_hash(
            &src[..src_len],
            &dst[..dst_len],
            c.protocol,
            (c.src_port, c.dst_port),
        )
    }

    /// The RSS bucket this flow hashes to (see
    /// [`crate::steer::bucket_of`]) — the granularity at which the
    /// rebalancer migrates load: moving a bucket moves every flow in
    /// it, and never splits a flow.
    pub fn bucket(&self) -> usize {
        crate::steer::bucket_of(self.rss_hash())
    }

    /// The shard (worker receive queue) this flow maps to under
    /// `shards` shards and the identity bucket table:
    /// `bucket() % shards`. Stable for a fixed shard count — every
    /// packet of a flow lands on the same worker, which is what
    /// preserves intra-flow ordering across the parallel dataplane.
    /// (A rebalanced dataplane steers by
    /// [`crate::steer::BucketMap`] instead; the flow → bucket half of
    /// the mapping is shared.)
    pub fn shard_for(&self, shards: usize) -> usize {
        if shards <= 1 {
            0
        } else {
            self.bucket() % shards
        }
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} proto {}",
            self.src, self.src_port, self.dst, self.dst_port, self.protocol
        )
    }
}

/// FNV-1a over an **already canonical** tuple encoding (source
/// endpoint sorted first), finished with murmur3's fmix64 — the one
/// hash behind [`FlowKey::rss_hash`] and [`ParsedFlow::hash`].
#[inline]
fn tuple_hash(src: &[u8], dst: &[u8], protocol: u8, (src_port, dst_port): (u16, u16)) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn eat(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        h
    }
    let mut h = eat(eat(OFFSET, src), dst);
    h = eat(h, &[protocol]);
    h = eat(h, &src_port.to_be_bytes());
    h = eat(h, &dst_port.to_be_bytes());
    // fmix64 finaliser (murmur3): full avalanche into the low bits.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The parse-once record: one IPv4 frame's flow tuple **as on the
/// wire**, its TCP flags, a fragment marker and the tuple's
/// [`FlowKey::rss_hash`] — everything the stateful elements ask of a
/// frame, produced by one [`Self::from_frame`] and carried in
/// [`PacketMeta::flow`](crate::packet::PacketMeta::flow). See the
/// [module docs](self) for who stamps, reads and maintains it.
///
/// IPv4 only, and 24 bytes: every [`Packet`] and every frame in a NIC
/// ring carries one, so its size is resident memory on workloads that
/// never look at it.
///
/// Two records are equal when they describe the same frame: tuple,
/// flags and fragment marker. The hash is a function of the tuple and
/// takes no part (a rewritten record may not have recomputed it yet).
#[derive(Clone, Copy, Debug)]
pub struct ParsedFlow {
    /// `key().rss_hash()`, valid while `hashed`.
    hash: u64,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    protocol: u8,
    /// The TCP flags byte; meaningful only for unfragmented TCP.
    tcp_flags: u8,
    fragment: bool,
    /// False after [`ParsedFlow::with_endpoint`] until someone asks
    /// for the hash: the element behind a NAT is usually a counter.
    hashed: bool,
}

impl PartialEq for ParsedFlow {
    fn eq(&self, other: &Self) -> bool {
        let parts = |f: &Self| {
            (
                f.src,
                f.dst,
                f.src_port,
                f.dst_port,
                f.protocol,
                f.tcp_flags,
                f.fragment,
            )
        };
        parts(self) == parts(other)
    }
}

impl Eq for ParsedFlow {}

const _: () = assert!(std::mem::size_of::<Option<ParsedFlow>>() <= 32);

/// Parses the IPv4 tuple out of the L3 bytes, hash not yet computed
/// ([`ParsedFlow::from_frame`] does that; [`FlowKey::from_frame`] does
/// not need it).
#[inline]
fn parse_ipv4(l3: &[u8]) -> Option<ParsedFlow> {
    note_parse();
    let ip = Ipv4Header::parse(l3).ok()?;
    let fragment = ip.more_fragments || ip.fragment_offset != 0;
    let (src_port, dst_port, tcp_flags) = match ip.protocol {
        _ if fragment => (0, 0, 0),
        proto::UDP => {
            let udp = UdpHeader::parse(l3.get(ip.header_len..)?).ok()?;
            (udp.src_port, udp.dst_port, 0)
        }
        proto::TCP => {
            let tcp = TcpHeader::parse(l3.get(ip.header_len..)?).ok()?;
            (tcp.src_port, tcp.dst_port, tcp.flags.0)
        }
        _ => (0, 0, 0),
    };
    Some(ParsedFlow {
        hash: 0,
        src: ip.src,
        dst: ip.dst,
        src_port,
        dst_port,
        protocol: ip.protocol,
        tcp_flags,
        fragment,
        hashed: false,
    })
}

impl ParsedFlow {
    /// Parses an Ethernet + IPv4 frame into its record — the one parse
    /// of a frame's life. `None` for anything else (IPv6, ARP, a frame
    /// whose headers do not verify).
    #[inline]
    pub fn from_frame(frame: &[u8]) -> Option<ParsedFlow> {
        let eth = EthernetHeader::parse(frame).ok()?;
        if eth.ethertype != EtherType::Ipv4 {
            return None;
        }
        parse_ipv4(frame.get(EthernetHeader::LEN..)?).map(ParsedFlow::rehashed)
    }

    /// The packet's record: the stamped one, else a parse.
    #[inline]
    pub fn of(pkt: &Packet) -> Option<ParsedFlow> {
        pkt.meta.flow.or_else(|| Self::from_frame(pkt.data()))
    }

    #[inline]
    fn rehashed(mut self) -> ParsedFlow {
        let src = (u32::from(self.src), self.src_port);
        let dst = (u32::from(self.dst), self.dst_port);
        // Same order as `FlowKey::canonical`.
        let (lo, hi) = if dst < src { (dst, src) } else { (src, dst) };
        self.hash = tuple_hash(
            &lo.0.to_be_bytes(),
            &hi.0.to_be_bytes(),
            self.protocol,
            (lo.1, hi.1),
        );
        self.hashed = true;
        self
    }

    /// The tuple as a [`FlowKey`] (wire orientation, not canonical).
    #[inline]
    pub fn key(&self) -> FlowKey {
        FlowKey {
            src: IpAddr::V4(self.src),
            dst: IpAddr::V4(self.dst),
            protocol: self.protocol,
            src_port: self.src_port,
            dst_port: self.dst_port,
        }
    }

    /// `self.key().rss_hash()` — computed by the parse, so reading it
    /// is free on every packet the rx path stamped and nobody rewrote.
    #[inline]
    pub fn hash(&self) -> u64 {
        if self.hashed {
            self.hash
        } else {
            self.rehashed().hash
        }
    }

    /// Source address.
    #[inline]
    pub fn src(&self) -> Ipv4Addr {
        self.src
    }

    /// Destination address.
    #[inline]
    pub fn dst(&self) -> Ipv4Addr {
        self.dst
    }

    /// Source port (0 when the protocol has none, or on a fragment).
    #[inline]
    pub fn src_port(&self) -> u16 {
        self.src_port
    }

    /// Destination port (0 when the protocol has none, or on a
    /// fragment).
    #[inline]
    pub fn dst_port(&self) -> u16 {
        self.dst_port
    }

    /// The TCP flags of an unfragmented TCP segment.
    #[inline]
    pub fn tcp_flags(&self) -> Option<TcpFlags> {
        (self.protocol == proto::TCP && !self.fragment).then_some(TcpFlags(self.tcp_flags))
    }

    /// True for any fragment of a fragmented datagram (more-fragments
    /// set, or a non-zero offset): port-less, and left alone by the
    /// elements that rewrite ports.
    pub fn is_fragment(&self) -> bool {
        self.fragment
    }

    /// True when the frame carries ports an L4 rewriter may touch:
    /// unfragmented UDP or TCP.
    #[inline]
    pub fn has_ports(&self) -> bool {
        !self.fragment && (self.protocol == proto::UDP || self.protocol == proto::TCP)
    }

    /// The record after one endpoint of the frame was rewritten to
    /// `ip:port` — what a fresh parse of the rewritten frame yields.
    /// The port applies only where the frame
    /// [has ports](Self::has_ports) to rewrite. The 13-byte tuple is
    /// rehashed by whoever next calls [`Self::hash`], not here.
    /// `source` picks the endpoint: the source one, else the
    /// destination.
    pub fn with_endpoint(mut self, source: bool, ip: Ipv4Addr, port: u16) -> ParsedFlow {
        let port = if self.has_ports() { Some(port) } else { None };
        if source {
            self.src = ip;
            self.src_port = port.unwrap_or(self.src_port);
        } else {
            self.dst = ip;
            self.dst_port = port.unwrap_or(self.dst_port);
        }
        self.hashed = false;
        self
    }

    fn view(&self) -> FlowView {
        FlowView {
            key: self.key(),
            hash: self.hash(),
            tcp_flags: self.tcp_flags(),
        }
    }
}

/// What a stateful element needs to know of a packet's flow, whatever
/// the address family: the tuple, its table hash, the TCP flags.
/// [`Self::of`] is the one way elements obtain it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlowView {
    /// The tuple as on the wire (not canonical).
    pub key: FlowKey,
    /// `key.rss_hash()` — the flow-table hash.
    pub hash: u64,
    /// TCP flags, for an unfragmented IPv4 TCP segment.
    pub tcp_flags: Option<TcpFlags>,
}

impl FlowView {
    /// The packet's flow: from the stamped [`ParsedFlow`] when there
    /// is one (no parse), else from one parse of the frame — the
    /// record parse for IPv4, the general [`FlowKey::from_frame`] for
    /// everything else. `None` for frames with no flow identity.
    pub fn of(pkt: &Packet) -> Option<FlowView> {
        match ParsedFlow::of(pkt) {
            Some(flow) => Some(flow.view()),
            None => FlowKey::from_frame(pkt.data()).map(|key| FlowView {
                key,
                hash: key.rss_hash(),
                tcp_flags: None,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;

    fn key(n: u8) -> FlowKey {
        FlowKey {
            src: format!("10.0.0.{n}").parse().unwrap(),
            dst: "10.9.9.9".parse().unwrap(),
            protocol: proto::UDP,
            src_port: 1000 + n as u16,
            dst_port: 53,
        }
    }

    #[test]
    fn extract_udp_v4_tuple() {
        let pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1234, 80).build();
        let k = FlowKey::from_packet(&pkt).unwrap();
        assert_eq!(k.src.to_string(), "10.0.0.1");
        assert_eq!(k.dst.to_string(), "10.0.0.2");
        assert_eq!((k.src_port, k.dst_port, k.protocol), (1234, 80, proto::UDP));
    }

    #[test]
    fn extract_v6_tuple_without_ports() {
        let pkt = PacketBuilder::udp_v6("2001:db8::1", "2001:db8::2", 1, 2).build();
        let k = FlowKey::from_packet(&pkt).unwrap();
        assert_eq!(k.protocol, proto::UDP);
        assert_eq!((k.src_port, k.dst_port), (0, 0));
    }

    #[test]
    fn hash_is_stable_per_key() {
        let a = key(1);
        assert_eq!(a.rss_hash(), key(1).rss_hash());
        assert_ne!(a.rss_hash(), key(2).rss_hash());
    }

    #[test]
    fn rss_hash_is_reproducible_and_spreads() {
        let k = key(1);
        assert_eq!(k.rss_hash(), key(1).rss_hash());
        let shards: std::collections::HashSet<usize> =
            (0..32u8).map(|n| key(n).shard_for(4)).collect();
        assert!(shards.len() > 1, "32 flows must spread over 4 shards");
        for n in 0..8u8 {
            assert!(key(n).shard_for(4) < 4);
            assert_eq!(key(n).shard_for(1), 0);
            assert_eq!(key(n).shard_for(0), 0);
        }
    }

    #[test]
    fn rss_low_bits_disperse_for_trailing_byte_variation() {
        // Regression guard for the un-finalised FNV-1a weakness: flows
        // differing only in dst_port (the LAST bytes hashed) must still
        // spread near-evenly — `% shards` keeps only the low bits.
        let flow = |dport: u16| FlowKey {
            src: "10.0.0.1".parse().unwrap(),
            dst: "10.0.9.9".parse().unwrap(),
            protocol: proto::UDP,
            src_port: 6000,
            dst_port: dport,
        };
        for shards in [2usize, 4, 8] {
            let mut counts = vec![0usize; shards];
            for dport in 5000..5128u16 {
                counts[flow(dport).shard_for(shards)] += 1;
            }
            let expect = 128 / shards;
            for (shard, &n) in counts.iter().enumerate() {
                assert!(
                    n >= expect / 2 && n <= expect * 2,
                    "shard {shard}/{shards} got {n} of 128 (expect ~{expect}): {counts:?}"
                );
            }
        }
    }

    #[test]
    fn canonical_is_direction_invariant() {
        let ab = FlowKey {
            src: "10.0.0.1".parse().unwrap(),
            dst: "10.9.9.9".parse().unwrap(),
            protocol: proto::TCP,
            src_port: 49152,
            dst_port: 443,
        };
        let ba = FlowKey {
            src: ab.dst,
            dst: ab.src,
            protocol: ab.protocol,
            src_port: ab.dst_port,
            dst_port: ab.src_port,
        };
        assert_eq!(ab.canonical(), ba.canonical());
        // Canonicalising twice is a no-op.
        assert_eq!(ab.canonical().canonical(), ab.canonical());
        // The two orientations report opposite directions…
        let (ck_ab, dir_ab) = ab.canonical_with_direction();
        let (ck_ba, dir_ba) = ba.canonical_with_direction();
        assert_eq!(ck_ab, ck_ba);
        assert_eq!(dir_ab, dir_ba.flipped());
        assert_ne!(dir_ab.is_forward(), dir_ba.is_forward());
        // …and address/port swap together: the canonical key is one of
        // the two original tuples, never a cross-pairing.
        assert!(ck_ab == ab || ck_ab == ba);
    }

    #[test]
    fn canonical_breaks_address_ties_by_port() {
        // Same address both sides (hairpin): the port pair decides.
        let lo = FlowKey {
            src: "10.0.0.1".parse().unwrap(),
            dst: "10.0.0.1".parse().unwrap(),
            protocol: proto::UDP,
            src_port: 9000,
            dst_port: 80,
        };
        let hi = FlowKey {
            src: lo.dst,
            dst: lo.src,
            protocol: lo.protocol,
            src_port: lo.dst_port,
            dst_port: lo.src_port,
        };
        assert_eq!(lo.canonical(), hi.canonical());
        assert_eq!(lo.canonical().src_port, 80);
    }

    #[test]
    fn rss_affinity_holds_for_both_directions() {
        // The load-bearing invariant for per-shard stateful services:
        // request and reply steer to the same bucket, hence the same
        // shard, under every shard count.
        for n in 0..64u8 {
            let fwd = key(n);
            let rev = FlowKey {
                src: fwd.dst,
                dst: fwd.src,
                protocol: fwd.protocol,
                src_port: fwd.dst_port,
                dst_port: fwd.src_port,
            };
            assert_eq!(fwd.rss_hash(), rev.rss_hash(), "flow {n}");
            assert_eq!(fwd.bucket(), rev.bucket(), "flow {n}");
            for shards in [1usize, 2, 3, 4, 8] {
                assert_eq!(fwd.shard_for(shards), rev.shard_for(shards), "flow {n}");
            }
        }
    }

    #[test]
    fn reply_frames_steer_to_the_request_shard() {
        // End to end through the frame parser: a reply built by
        // swapping endpoints lands on the same shard as the request.
        let req = PacketBuilder::udp_v4("10.0.0.7", "10.9.9.9", 5353, 53).build();
        let rsp = PacketBuilder::udp_v4("10.9.9.9", "10.0.0.7", 53, 5353).build();
        assert_eq!(shard_of(&req, 4), shard_of(&rsp, 4));
        let kq = FlowKey::from_packet(&req).unwrap();
        let kr = FlowKey::from_packet(&rsp).unwrap();
        assert_eq!(kq.canonical(), kr.canonical());
        assert_eq!(kq.rss_hash(), kr.rss_hash());
    }

    #[test]
    fn shard_of_prefers_driver_stamp() {
        let mut pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1234, 80).build();
        let key = FlowKey::from_packet(&pkt).unwrap();
        assert_eq!(shard_of(&pkt, 4), key.shard_for(4));
        pkt.meta.rss_hash = Some(key.rss_hash() + 1);
        assert_eq!(shard_of(&pkt, 4), ((key.rss_hash() + 1) % 4) as usize);
        // Non-flow traffic parks on shard 0.
        let arp = Packet::from_slice(&[0u8; 14]);
        assert_eq!(shard_of(&arp, 4), 0);
        // shards == 0 behaves exactly like shards == 1.
        assert_eq!(shard_of(&pkt, 0), shard_of(&pkt, 1));
        assert_eq!(shard_of(&pkt, 0), 0);
    }

    #[test]
    fn stamp_rss_writes_once_and_matches_flow_hash() {
        let mut pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1234, 80).build();
        let key = FlowKey::from_packet(&pkt).unwrap();
        assert_eq!(stamp_rss(&mut pkt), Some(key.rss_hash()));
        // A pre-existing stamp (e.g. written by the NIC) is preserved.
        pkt.meta.rss_hash = Some(7);
        assert_eq!(stamp_rss(&mut pkt), Some(7));
        // Non-flow frames stay unstamped.
        let mut arp = Packet::from_slice(&[0u8; 14]);
        assert_eq!(stamp_rss(&mut arp), None);
        assert_eq!(arp.meta.rss_hash, None);
    }

    #[test]
    fn from_frame_agrees_with_from_packet() {
        let pkt = PacketBuilder::udp_v4("10.1.2.3", "10.4.5.6", 1111, 2222).build();
        assert_eq!(FlowKey::from_frame(pkt.data()), FlowKey::from_packet(&pkt));
        let v6 = PacketBuilder::udp_v6("2001:db8::1", "2001:db8::2", 1, 2).build();
        assert_eq!(FlowKey::from_frame(v6.data()), FlowKey::from_packet(&v6));
        assert_eq!(FlowKey::from_frame(&[0u8; 14]), None);
        assert_eq!(FlowKey::from_frame(&[]), None);
    }

    /// One UDP datagram cut into three IPv4 fragments: the first
    /// carries the UDP header, the others only payload bytes (chosen so
    /// that, misread as ports, they differ per fragment).
    fn fragments() -> [Packet; 3] {
        let frag = |offset, more, fill: u8| {
            PacketBuilder::udp_v4("10.0.0.1", "203.0.113.9", 5000, 53)
                .fragment(offset, more)
                .payload(&[fill; 24])
                .build()
        };
        [
            frag(0, true, 0xa1),
            frag(4, true, 0xb2),
            frag(7, false, 0xc3),
        ]
    }

    #[test]
    fn fragments_of_one_datagram_are_port_less_and_share_hash_and_shard() {
        let frags = fragments();
        let keys: Vec<FlowKey> = frags
            .iter()
            .map(|p| FlowKey::from_packet(p).unwrap())
            .collect();
        for (pkt, key) in frags.iter().zip(&keys) {
            assert_eq!((key.src_port, key.dst_port), (0, 0), "{key}");
            assert_eq!(key.protocol, proto::UDP);
            let flow = ParsedFlow::from_frame(pkt.data()).unwrap();
            assert!(flow.is_fragment() && !flow.has_ports());
            assert_eq!(flow.key(), *key);
            assert_eq!(flow.hash(), key.rss_hash());
        }
        assert!(keys.iter().all(|k| *k == keys[0]));
        for shards in [2usize, 3, 4, 8] {
            let shard = shard_of(&frags[0], shards);
            assert!(frags.iter().all(|p| shard_of(p, shards) == shard));
        }
        // The unfragmented datagram of the same endpoints keeps its
        // ports: only fragments are port-less.
        let whole = PacketBuilder::udp_v4("10.0.0.1", "203.0.113.9", 5000, 53).build();
        let flow = ParsedFlow::from_frame(whole.data()).unwrap();
        assert!(!flow.is_fragment() && flow.has_ports());
        assert_eq!((flow.src_port(), flow.dst_port()), (5000, 53));
    }

    #[test]
    fn a_fragmented_tcp_segment_reports_no_flags() {
        use crate::headers::TcpFlags;
        let syn = PacketBuilder::tcp_v4("10.0.0.1", "10.9.9.9", 5000, 80).tcp_flags(TcpFlags::SYN);
        let whole = ParsedFlow::from_frame(syn.clone().build().data()).unwrap();
        assert_eq!(whole.tcp_flags(), Some(TcpFlags::SYN));
        // The same segment as a first fragment: header present, unread.
        let frag = ParsedFlow::from_frame(syn.fragment(0, true).build().data()).unwrap();
        assert!(frag.is_fragment());
        assert_eq!(frag.tcp_flags(), None);
        assert_eq!((frag.src_port(), frag.dst_port()), (0, 0));
    }

    #[test]
    fn the_record_is_the_key_the_hash_and_the_flags_in_one_parse() {
        use crate::headers::TcpFlags;
        let pkt = PacketBuilder::tcp_v4("10.9.9.9", "10.0.0.1", 443, 50_000)
            .tcp_flags(TcpFlags::SYN | TcpFlags::ACK)
            .build();
        let key = FlowKey::from_packet(&pkt).unwrap();
        let flow = ParsedFlow::from_frame(pkt.data()).unwrap();
        assert_eq!(flow.key(), key, "wire orientation, not canonical");
        assert_eq!(flow.hash(), key.rss_hash());
        assert_eq!(flow.tcp_flags(), Some(TcpFlags::SYN | TcpFlags::ACK));
        assert_eq!(
            flow.view(),
            FlowView {
                key,
                hash: key.rss_hash(),
                tcp_flags: flow.tcp_flags(),
            }
        );
        // UDP carries no flags; IPv6 and non-IP frames carry no record
        // but still have a view (or none at all).
        let udp = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build();
        assert_eq!(
            ParsedFlow::from_frame(udp.data()).unwrap().tcp_flags(),
            None
        );
        let v6 = PacketBuilder::udp_v6("2001:db8::1", "2001:db8::2", 1, 2).build();
        assert_eq!(ParsedFlow::of(&v6), None);
        let k6 = FlowKey::from_packet(&v6).unwrap();
        assert_eq!(
            FlowView::of(&v6).map(|v| (v.key, v.hash)),
            Some((k6, k6.rss_hash()))
        );
        assert_eq!(FlowView::of(&Packet::from_slice(&[0u8; 14])), None);
    }

    #[test]
    fn of_reads_the_stamp_and_with_endpoint_matches_a_fresh_parse() {
        let mut pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1234, 80).build();
        assert_eq!(pkt.meta.flow, None);
        stamp_rss(&mut pkt);
        let stamped = pkt.meta.flow.expect("stamp_rss stamps the record too");
        assert_eq!(Some(stamped), ParsedFlow::from_frame(pkt.data()));
        assert_eq!(pkt.meta.rss_hash, Some(stamped.hash()));
        // `of` trusts the stamp: it does not look at the bytes.
        let other = PacketBuilder::udp_v4("10.7.7.7", "10.0.0.2", 9, 80).build();
        pkt.meta.flow = ParsedFlow::from_frame(other.data());
        assert_eq!(ParsedFlow::of(&pkt), pkt.meta.flow);
        // Patching an endpoint equals parsing the frame that has it.
        let rewritten = PacketBuilder::udp_v4("192.0.2.1", "10.0.0.2", 61_000, 80).build();
        let patched = stamped.with_endpoint(true, "192.0.2.1".parse().unwrap(), 61_000);
        let fresh = ParsedFlow::from_frame(rewritten.data()).unwrap();
        assert_eq!((patched, patched.hash()), (fresh, fresh.hash()));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn the_parse_counter_counts_frame_parses_only() {
        let mut pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1234, 80).build();
        let before = parses_on_this_thread();
        stamp_rss(&mut pkt);
        assert_eq!(parses_on_this_thread(), before + 1);
        // Every read of a stamped packet is free.
        let _ = (ParsedFlow::of(&pkt), FlowView::of(&pkt), shard_of(&pkt, 4));
        stamp_rss(&mut pkt);
        assert_eq!(parses_on_this_thread(), before + 1);
        let _ = FlowKey::from_packet(&pkt);
        assert_eq!(parses_on_this_thread(), before + 2);
    }
}
