//! The packet type flowing through every stratum.
//!
//! A [`Packet`] couples a mutable byte buffer (the frame, starting at the
//! Ethernet header) with out-of-band [`PacketMeta`] annotations that
//! in-band components use to communicate (classification results, meter
//! colours, chosen egress). Annotations are how the paper's components
//! perform "layer-violating" information sharing without rewriting wire
//! bytes.

use std::fmt;
use std::net::IpAddr;

use bytes::BytesMut;

use crate::error::ParseResult;
use crate::flow::ParsedFlow;
use crate::headers::{
    proto, EtherType, EthernetHeader, Ipv4Header, Ipv6Header, MacAddr, TcpFlags, TcpHeader,
    UdpHeader,
};
use crate::pool::PooledBuf;

/// Metering colour (srTCM-style).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Color {
    /// Conforming traffic.
    Green,
    /// Excess within burst tolerance.
    Yellow,
    /// Out-of-profile traffic.
    Red,
}

/// Out-of-band metadata carried alongside a frame.
#[derive(Clone, Debug, Default)]
pub struct PacketMeta {
    /// Port the frame arrived on.
    pub ingress: Option<u16>,
    /// Arrival timestamp in simulated nanoseconds.
    pub timestamp_ns: u64,
    /// Cached DSCP (written by classifiers so queues need not re-parse).
    pub dscp: Option<u8>,
    /// Chosen egress port (written by route lookup).
    pub egress: Option<u16>,
    /// Chosen next hop (written by route lookup).
    pub next_hop: Option<IpAddr>,
    /// Meter colour (written by meters, read by droppers).
    pub color: Option<Color>,
    /// The RSS steering hash, stamped once when the frame is
    /// materialised (NIC rx or batch construction) so
    /// [`crate::flow::shard_of`] never re-parses headers. `None` means
    /// "not stamped yet", not "no flow".
    pub rss_hash: Option<u64>,
    /// The parse-once flow record of an IPv4 frame, stamped where
    /// [`Self::rss_hash`] is and read by every stateful element in
    /// place of a header parse (contract: [`crate::flow`] module
    /// docs). `None` means "no record" — IPv6, non-IP, or not stamped
    /// — and readers fall back to a parse.
    pub flow: Option<ParsedFlow>,
    /// Free-form numeric annotations, keyed by static names and kept
    /// sorted by key. Private so [`Self::annotate`]'s sorted invariant
    /// (binary-search lookups depend on it) cannot be bypassed; read
    /// through [`Self::annotation`] / [`Self::annotations`]. Boxed —
    /// one pointer in the common no-annotation case — to keep
    /// [`Packet`] within its size bound below.
    #[allow(clippy::box_collection)]
    annotations: Option<Box<Vec<(&'static str, u64)>>>,
}

// A `Packet` is moved by value at every hand-off (rx materialisation,
// batch push, element to element, tx), and up to 128 bytes the
// compiler does that with a few inline register moves. At 136 bytes —
// the flow record in, the annotation table still an inline `Vec` —
// every stage that handles packets measured slower: rx inject +20 ns,
// rx burst +10, conntrack +18, NAT +40 per packet.
const _: () = assert!(std::mem::size_of::<Packet>() <= 128);

impl PacketMeta {
    /// Sets (or overwrites) an annotation. The table stays sorted by
    /// key, so repeated writes cost one binary search each instead of a
    /// linear scan per call.
    pub fn annotate(&mut self, key: &'static str, value: u64) {
        let table = self.annotations.get_or_insert_with(Box::default);
        match table.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(pos) => table[pos].1 = value,
            Err(pos) => table.insert(pos, (key, value)),
        }
    }

    /// Reads an annotation.
    pub fn annotation(&self, key: &str) -> Option<u64> {
        let table = self.annotations();
        table
            .binary_search_by_key(&key, |(k, _)| *k)
            .ok()
            .map(|pos| table[pos].1)
    }

    /// All annotations, sorted by key.
    pub fn annotations(&self) -> &[(&'static str, u64)] {
        self.annotations.as_deref().map_or(&[], Vec::as_slice)
    }
}

/// Frame storage — the one type a frame lives in from the rx ring,
/// through a [`Packet`], onto the tx ring: either a plain heap buffer
/// or a slab leased from a [`crate::pool::BufferPool`], which returns
/// to its pool wherever the storage is finally dropped.
#[derive(Debug)]
pub enum PacketBuf {
    /// A plain heap buffer.
    Heap(BytesMut),
    /// A pool-leased slab, lease intact.
    Pooled(PooledBuf),
}

impl PacketBuf {
    /// The frame bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match self {
            PacketBuf::Heap(b) => b,
            PacketBuf::Pooled(b) => b,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [u8] {
        match self {
            PacketBuf::Heap(b) => b,
            PacketBuf::Pooled(b) => b,
        }
    }
}

/// A network packet: frame bytes plus metadata.
///
/// The buffer always begins at the Ethernet header. Parsing helpers give
/// typed views without copying; `data_mut` allows in-place mutation
/// (TTL decrement and similar fast-path edits). The frame storage may be
/// a pool-leased slab ([`Packet::from_buf`]): dropping the packet
/// then recycles the buffer instead of freeing it, which is what makes
/// the NIC→worker fast path allocation-free in steady state.
pub struct Packet {
    data: PacketBuf,
    /// Out-of-band metadata.
    pub meta: PacketMeta,
}

impl Default for Packet {
    fn default() -> Self {
        Self::new(BytesMut::new())
    }
}

impl Clone for Packet {
    /// Deep copy. A pooled buffer clones into a plain heap buffer: the
    /// pool lease is not shareable, and clones are off the fast path by
    /// definition.
    fn clone(&self) -> Self {
        Self {
            data: match &self.data {
                PacketBuf::Heap(b) => PacketBuf::Heap(b.clone()),
                PacketBuf::Pooled(b) => PacketBuf::Heap(BytesMut::from(&b[..])),
            },
            meta: self.meta.clone(),
        }
    }
}

impl Packet {
    /// Wraps an existing frame buffer.
    pub fn new(data: BytesMut) -> Self {
        Self::from_buf(PacketBuf::Heap(data))
    }

    /// Wraps frame storage without copying — what the NIC's rx burst
    /// does. A pool-leased slab keeps its lease and returns to its pool
    /// when the packet is dropped.
    #[inline]
    pub fn from_buf(data: PacketBuf) -> Self {
        Self {
            data,
            meta: PacketMeta::default(),
        }
    }

    /// Copies a byte slice into a new packet.
    pub fn from_slice(bytes: &[u8]) -> Self {
        Self::new(BytesMut::from(bytes))
    }

    /// Frame length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.as_slice().len()
    }

    /// True if the frame is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.as_slice().is_empty()
    }

    /// Read access to the frame bytes.
    #[inline]
    pub fn data(&self) -> &[u8] {
        self.data.as_slice()
    }

    /// Write access to the frame bytes.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [u8] {
        self.data.as_mut_slice()
    }

    /// Consumes the packet, returning its frame storage as it is — the
    /// zero-copy tx hand-off: a pool-leased slab keeps its lease, and
    /// recycles when the consumer drops it. Metadata is discarded.
    #[inline]
    pub fn into_buf(self) -> PacketBuf {
        self.data
    }

    // ---- typed views ------------------------------------------------------

    /// Parses the Ethernet header.
    ///
    /// # Errors
    ///
    /// Propagates truncation errors.
    #[inline]
    pub fn ethernet(&self) -> ParseResult<EthernetHeader> {
        EthernetHeader::parse(self.data())
    }

    /// The L3 bytes (IP header onward).
    #[inline]
    pub fn l3(&self) -> &[u8] {
        let data = self.data();
        &data[EthernetHeader::LEN.min(data.len())..]
    }

    /// Mutable L3 bytes.
    #[inline]
    pub fn l3_mut(&mut self) -> &mut [u8] {
        let off = EthernetHeader::LEN.min(self.len());
        &mut self.data_mut()[off..]
    }

    /// Parses the IPv4 header (validating its checksum).
    ///
    /// # Errors
    ///
    /// Propagates [`crate::error::ParseError`] from header validation.
    #[inline]
    pub fn ipv4(&self) -> ParseResult<Ipv4Header> {
        Ipv4Header::parse(self.l3())
    }

    /// Parses the IPv6 fixed header.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::error::ParseError`] from header validation.
    #[inline]
    pub fn ipv6(&self) -> ParseResult<Ipv6Header> {
        Ipv6Header::parse(self.l3())
    }

    /// Parses the UDP header of an IPv4 datagram.
    ///
    /// # Errors
    ///
    /// Propagates header parse failures at either layer.
    pub fn udp_v4(&self) -> ParseResult<UdpHeader> {
        let ip = self.ipv4()?;
        UdpHeader::parse(&self.l3()[ip.header_len..])
    }

    /// Parses the TCP header of an IPv4 datagram.
    ///
    /// # Errors
    ///
    /// Propagates header parse failures at either layer.
    pub fn tcp_v4(&self) -> ParseResult<TcpHeader> {
        let ip = self.ipv4()?;
        TcpHeader::parse(&self.l3()[ip.header_len..])
    }

    /// The L4 payload bytes of an IPv4/UDP datagram.
    ///
    /// # Errors
    ///
    /// Propagates header parse failures.
    pub fn udp_payload_v4(&self) -> ParseResult<&[u8]> {
        let ip = self.ipv4()?;
        let l4 = &self.l3()[ip.header_len..];
        UdpHeader::parse(l4)?;
        Ok(&l4[UdpHeader::LEN..])
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Packet({} bytes", self.len())?;
        if let Ok(eth) = self.ethernet() {
            write!(f, ", {:?}", eth.ethertype)?;
        }
        if let Some(dscp) = self.meta.dscp {
            write!(f, ", dscp={dscp}")?;
        }
        write!(f, ")")
    }
}

/// Builds well-formed test/workload packets.
///
/// # Examples
///
/// ```
/// use netkit_packet::packet::PacketBuilder;
/// let pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 5000, 53)
///     .dscp(46)
///     .ttl(64)
///     .payload(&[1, 2, 3])
///     .build();
/// assert_eq!(pkt.ipv4().unwrap().dscp, 46);
/// assert_eq!(pkt.udp_payload_v4().unwrap(), &[1, 2, 3]);
/// ```
#[derive(Clone, Debug)]
pub struct PacketBuilder {
    src: IpAddr,
    dst: IpAddr,
    src_port: u16,
    dst_port: u16,
    protocol: u8,
    dscp: u8,
    ttl: u8,
    tcp_flags: TcpFlags,
    /// IPv4 fragment offset (8-byte units) and more-fragments flag.
    fragment: (u16, bool),
    payload: Vec<u8>,
    src_mac: MacAddr,
    dst_mac: MacAddr,
}

impl PacketBuilder {
    /// Starts a UDP-over-IPv4 packet. Addresses must parse.
    ///
    /// # Panics
    ///
    /// Panics if the address literals are malformed (builder is intended
    /// for tests and workload generators).
    pub fn udp_v4(src: &str, dst: &str, src_port: u16, dst_port: u16) -> Self {
        Self {
            src: src.parse().expect("valid IPv4 source"),
            dst: dst.parse().expect("valid IPv4 destination"),
            src_port,
            dst_port,
            protocol: proto::UDP,
            dscp: 0,
            ttl: 64,
            tcp_flags: TcpFlags::default(),
            fragment: (0, false),
            payload: Vec::new(),
            src_mac: MacAddr([2, 0, 0, 0, 0, 1]),
            dst_mac: MacAddr([2, 0, 0, 0, 0, 2]),
        }
    }

    /// Starts a TCP-over-IPv4 packet (flags default to ACK — a
    /// mid-connection segment; see [`Self::tcp_flags`]).
    ///
    /// # Panics
    ///
    /// Panics if the address literals are malformed.
    pub fn tcp_v4(src: &str, dst: &str, src_port: u16, dst_port: u16) -> Self {
        let mut b = Self::udp_v4(src, dst, src_port, dst_port);
        b.protocol = proto::TCP;
        b.tcp_flags = TcpFlags::ACK;
        b
    }

    /// Sets the TCP flag bits (builder-style; only meaningful after
    /// [`Self::tcp_v4`]). Combine with `|`:
    /// `TcpFlags::SYN | TcpFlags::ACK`.
    pub fn tcp_flags(mut self, flags: TcpFlags) -> Self {
        self.tcp_flags = flags;
        self
    }

    /// Makes the packet one IPv4 fragment (builder-style): `offset` in
    /// 8-byte units, `more` the more-fragments flag. A non-first
    /// fragment (`offset > 0`) carries no L4 header — its bytes after
    /// the IP header are the payload alone, as on the wire. No effect
    /// on IPv6.
    pub fn fragment(mut self, offset: u16, more: bool) -> Self {
        self.fragment = (offset & 0x1fff, more);
        self
    }

    /// Starts a UDP-over-IPv6 packet.
    ///
    /// # Panics
    ///
    /// Panics if the address literals are malformed.
    pub fn udp_v6(src: &str, dst: &str, src_port: u16, dst_port: u16) -> Self {
        let mut b = Self::udp_v4("0.0.0.0", "0.0.0.0", src_port, dst_port);
        b.src = src.parse().expect("valid IPv6 source");
        b.dst = dst.parse().expect("valid IPv6 destination");
        b
    }

    /// Sets the DSCP (builder-style).
    pub fn dscp(mut self, dscp: u8) -> Self {
        self.dscp = dscp & 0x3f;
        self
    }

    /// Sets the TTL / hop limit (builder-style).
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the UDP payload (builder-style).
    pub fn payload(mut self, payload: &[u8]) -> Self {
        self.payload = payload.to_vec();
        self
    }

    /// Sets the payload to `len` zero bytes (builder-style).
    pub fn payload_len(mut self, len: usize) -> Self {
        self.payload = vec![0; len];
        self
    }

    /// Writes the L4 header (UDP or TCP by `self.protocol`).
    fn write_l4(&self, out: &mut Vec<u8>) {
        if self.protocol == proto::TCP {
            TcpHeader {
                src_port: self.src_port,
                dst_port: self.dst_port,
                seq: 0,
                ack: 0,
                header_len: TcpHeader::MIN_LEN,
                flags: self.tcp_flags,
                window: u16::MAX,
            }
            .write(out);
        } else {
            UdpHeader {
                src_port: self.src_port,
                dst_port: self.dst_port,
                length: (UdpHeader::LEN + self.payload.len()) as u16,
                checksum: 0,
            }
            .write(out);
        }
    }

    /// Assembles the frame.
    pub fn build(self) -> Packet {
        let mut out = Vec::with_capacity(64 + self.payload.len());
        let (fragment_offset, more_fragments) = self.fragment;
        let headless = fragment_offset > 0 && self.src.is_ipv4();
        let l4_header_len = if headless {
            0
        } else if self.protocol == proto::TCP {
            TcpHeader::MIN_LEN
        } else {
            UdpHeader::LEN
        };
        let l4_len = (l4_header_len + self.payload.len()) as u16;
        match (self.src, self.dst) {
            (IpAddr::V4(src), IpAddr::V4(dst)) => {
                EthernetHeader {
                    dst: self.dst_mac,
                    src: self.src_mac,
                    ethertype: EtherType::Ipv4,
                }
                .write(&mut out);
                Ipv4Header {
                    dscp: self.dscp,
                    ecn: 0,
                    total_len: Ipv4Header::MIN_LEN as u16 + l4_len,
                    identification: 0,
                    dont_fragment: !more_fragments && fragment_offset == 0,
                    more_fragments,
                    fragment_offset,
                    ttl: self.ttl,
                    protocol: self.protocol,
                    checksum: 0,
                    src,
                    dst,
                    header_len: Ipv4Header::MIN_LEN,
                }
                .write(&mut out);
                if !headless {
                    self.write_l4(&mut out);
                }
            }
            (IpAddr::V6(src), IpAddr::V6(dst)) => {
                EthernetHeader {
                    dst: self.dst_mac,
                    src: self.src_mac,
                    ethertype: EtherType::Ipv6,
                }
                .write(&mut out);
                Ipv6Header {
                    traffic_class: self.dscp << 2,
                    flow_label: 0,
                    payload_len: l4_len,
                    next_header: self.protocol,
                    hop_limit: self.ttl,
                    src,
                    dst,
                }
                .write(&mut out);
                self.write_l4(&mut out);
            }
            _ => unreachable!("builder never mixes address families"),
        }
        out.extend_from_slice(&self.payload);
        Packet::from_slice(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_parseable_ipv4_udp() {
        let pkt = PacketBuilder::udp_v4("10.1.0.1", "10.2.0.2", 1000, 2000)
            .dscp(34)
            .ttl(10)
            .payload(b"hello")
            .build();
        let eth = pkt.ethernet().unwrap();
        assert_eq!(eth.ethertype, EtherType::Ipv4);
        let ip = pkt.ipv4().unwrap();
        assert_eq!(ip.dscp, 34);
        assert_eq!(ip.ttl, 10);
        assert_eq!(ip.protocol, proto::UDP);
        let udp = pkt.udp_v4().unwrap();
        assert_eq!((udp.src_port, udp.dst_port), (1000, 2000));
        assert_eq!(pkt.udp_payload_v4().unwrap(), b"hello");
        assert_eq!(
            pkt.len(),
            EthernetHeader::LEN + Ipv4Header::MIN_LEN + UdpHeader::LEN + 5
        );
    }

    #[test]
    fn builder_produces_parseable_ipv6_udp() {
        let pkt = PacketBuilder::udp_v6("2001:db8::1", "2001:db8::2", 7, 8)
            .dscp(46)
            .payload_len(32)
            .build();
        let eth = pkt.ethernet().unwrap();
        assert_eq!(eth.ethertype, EtherType::Ipv6);
        let ip6 = pkt.ipv6().unwrap();
        assert_eq!(ip6.traffic_class >> 2, 46);
        assert_eq!(ip6.payload_len as usize, UdpHeader::LEN + 32);
    }

    #[test]
    fn annotations_overwrite_and_read_back() {
        let mut meta = PacketMeta::default();
        meta.annotate("queue", 3);
        meta.annotate("queue", 5);
        meta.annotate("hops", 2);
        assert_eq!(meta.annotation("queue"), Some(5));
        assert_eq!(meta.annotation("hops"), Some(2));
        assert_eq!(meta.annotation("missing"), None);
        assert_eq!(meta.annotations().len(), 2);
    }

    #[test]
    fn in_place_mutation_via_l3_mut() {
        let mut pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2)
            .ttl(5)
            .build();
        Ipv4Header::decrement_ttl_in_place(pkt.l3_mut()).unwrap();
        assert_eq!(pkt.ipv4().unwrap().ttl, 4);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build();
        let b = a.clone();
        a.data_mut()[0] = 0xff;
        assert_ne!(a.data()[0], b.data()[0]);
    }

    #[test]
    fn debug_output_mentions_size() {
        let pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build();
        assert!(format!("{pkt:?}").contains("bytes"));
    }
}
