//! Protocol headers: Ethernet, IPv4, IPv6, UDP, TCP.
//!
//! Parsers take byte slices and return typed headers; writers emit wire
//! form. The in-band fast path additionally gets in-place mutators
//! (TTL decrement, DSCP rewrite) that use the RFC 1624 incremental
//! checksum so per-packet work stays minimal.

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use crate::checksum::{incremental_update, internet_checksum, verify};
use crate::error::{ParseError, ParseResult};

/// IP protocol numbers used across the workspace.
pub mod proto {
    /// ICMP.
    pub const ICMP: u8 = 1;
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
}

/// A 48-bit MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct MacAddr(pub [u8; 6]);

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// EtherType values the router understands.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// IPv6 (0x86dd).
    Ipv6,
    /// ARP (0x0806).
    Arp,
    /// Anything else, carried verbatim.
    Other(u16),
}

impl EtherType {
    /// Raw wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Ipv6 => 0x86dd,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }

    /// Decodes a raw wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x86dd => EtherType::Ipv6,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

/// An Ethernet II header (14 bytes, no VLAN).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EthernetHeader {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
}

impl EthernetHeader {
    /// Wire length of the header.
    pub const LEN: usize = 14;

    /// Parses the header from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Fails with [`ParseError::Truncated`] when `buf` is too short.
    pub fn parse(buf: &[u8]) -> ParseResult<Self> {
        if buf.len() < Self::LEN {
            return Err(ParseError::Truncated {
                header: "ethernet",
                needed: Self::LEN,
                available: buf.len(),
            });
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&buf[0..6]);
        src.copy_from_slice(&buf[6..12]);
        Ok(Self {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: EtherType::from_u16(u16::from_be_bytes([buf[12], buf[13]])),
        })
    }

    /// Appends the wire form to `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.dst.0);
        out.extend_from_slice(&self.src.0);
        out.extend_from_slice(&self.ethertype.to_u16().to_be_bytes());
    }
}

/// An IPv4 header (options preserved as opaque length).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ipv4Header {
    /// Differentiated services code point (6 bits).
    pub dscp: u8,
    /// Explicit congestion notification (2 bits).
    pub ecn: u8,
    /// Total datagram length including header.
    pub total_len: u16,
    /// Identification field.
    pub identification: u16,
    /// Don't-fragment flag.
    pub dont_fragment: bool,
    /// More-fragments flag.
    pub more_fragments: bool,
    /// Fragment offset in 8-byte units.
    pub fragment_offset: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol (see [`proto`]).
    pub protocol: u8,
    /// Header checksum as found on the wire.
    pub checksum: u16,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Header length in bytes (IHL × 4).
    pub header_len: usize,
}

impl Ipv4Header {
    /// Minimum (option-less) header length.
    pub const MIN_LEN: usize = 20;

    /// Parses and validates the header at the front of `buf`.
    ///
    /// # Errors
    ///
    /// Fails on truncation, wrong version, inconsistent lengths, or a bad
    /// checksum.
    pub fn parse(buf: &[u8]) -> ParseResult<Self> {
        if buf.len() < Self::MIN_LEN {
            return Err(ParseError::Truncated {
                header: "ipv4",
                needed: Self::MIN_LEN,
                available: buf.len(),
            });
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(ParseError::BadVersion {
                header: "ipv4",
                found: version,
            });
        }
        let header_len = ((buf[0] & 0x0f) as usize) * 4;
        if header_len < Self::MIN_LEN {
            return Err(ParseError::BadLength {
                header: "ipv4",
                detail: "ihl below 5",
            });
        }
        if buf.len() < header_len {
            return Err(ParseError::Truncated {
                header: "ipv4",
                needed: header_len,
                available: buf.len(),
            });
        }
        if !verify(&buf[..header_len]) {
            return Err(ParseError::BadChecksum { header: "ipv4" });
        }
        let total_len = u16::from_be_bytes([buf[2], buf[3]]);
        if (total_len as usize) < header_len {
            return Err(ParseError::BadLength {
                header: "ipv4",
                detail: "total_len below ihl",
            });
        }
        let flags_frag = u16::from_be_bytes([buf[6], buf[7]]);
        Ok(Self {
            dscp: buf[1] >> 2,
            ecn: buf[1] & 0x03,
            total_len,
            identification: u16::from_be_bytes([buf[4], buf[5]]),
            dont_fragment: flags_frag & 0x4000 != 0,
            more_fragments: flags_frag & 0x2000 != 0,
            fragment_offset: flags_frag & 0x1fff,
            ttl: buf[8],
            protocol: buf[9],
            checksum: u16::from_be_bytes([buf[10], buf[11]]),
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
            header_len,
        })
    }

    /// Appends an option-less wire form with a freshly computed checksum.
    pub fn write(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.push(0x45);
        out.push((self.dscp << 2) | (self.ecn & 0x03));
        out.extend_from_slice(&self.total_len.to_be_bytes());
        out.extend_from_slice(&self.identification.to_be_bytes());
        let mut flags_frag = self.fragment_offset & 0x1fff;
        if self.dont_fragment {
            flags_frag |= 0x4000;
        }
        if self.more_fragments {
            flags_frag |= 0x2000;
        }
        out.extend_from_slice(&flags_frag.to_be_bytes());
        out.push(self.ttl);
        out.push(self.protocol);
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.dst.octets());
        let ck = internet_checksum(&out[start..start + Self::MIN_LEN]);
        out[start + 10..start + 12].copy_from_slice(&ck.to_be_bytes());
    }

    /// Decrements the TTL directly in a wire buffer, updating the
    /// checksum incrementally (RFC 1624). Returns the new TTL.
    ///
    /// # Errors
    ///
    /// Fails with [`ParseError::Truncated`] on short buffers and
    /// [`ParseError::BadLength`] when the TTL is already zero.
    pub fn decrement_ttl_in_place(buf: &mut [u8]) -> ParseResult<u8> {
        if buf.len() < Self::MIN_LEN {
            return Err(ParseError::Truncated {
                header: "ipv4",
                needed: Self::MIN_LEN,
                available: buf.len(),
            });
        }
        let ttl = buf[8];
        if ttl == 0 {
            return Err(ParseError::BadLength {
                header: "ipv4",
                detail: "ttl already zero",
            });
        }
        let old_word = u16::from_be_bytes([buf[8], buf[9]]);
        let new_ttl = ttl - 1;
        let new_word = u16::from_be_bytes([new_ttl, buf[9]]);
        let old_ck = u16::from_be_bytes([buf[10], buf[11]]);
        let new_ck = incremental_update(old_ck, old_word, new_word);
        buf[8] = new_ttl;
        buf[10..12].copy_from_slice(&new_ck.to_be_bytes());
        Ok(new_ttl)
    }

    /// Rewrites the DSCP directly in a wire buffer with an incremental
    /// checksum update (diffserv marking).
    ///
    /// # Errors
    ///
    /// Fails with [`ParseError::Truncated`] on short buffers.
    pub fn set_dscp_in_place(buf: &mut [u8], dscp: u8) -> ParseResult<()> {
        if buf.len() < Self::MIN_LEN {
            return Err(ParseError::Truncated {
                header: "ipv4",
                needed: Self::MIN_LEN,
                available: buf.len(),
            });
        }
        let old_word = u16::from_be_bytes([buf[0], buf[1]]);
        let new_tos = (dscp << 2) | (buf[1] & 0x03);
        let new_word = u16::from_be_bytes([buf[0], new_tos]);
        let old_ck = u16::from_be_bytes([buf[10], buf[11]]);
        let new_ck = incremental_update(old_ck, old_word, new_word);
        buf[1] = new_tos;
        buf[10..12].copy_from_slice(&new_ck.to_be_bytes());
        Ok(())
    }
}

/// An IPv6 fixed header (40 bytes; extension headers are treated as
/// payload).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ipv6Header {
    /// Traffic class (DSCP << 2 | ECN).
    pub traffic_class: u8,
    /// Flow label (20 bits).
    pub flow_label: u32,
    /// Payload length (excludes the fixed header).
    pub payload_len: u16,
    /// Next header (see [`proto`]).
    pub next_header: u8,
    /// Hop limit.
    pub hop_limit: u8,
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
}

impl Ipv6Header {
    /// Wire length of the fixed header.
    pub const LEN: usize = 40;

    /// Parses the fixed header at the front of `buf`.
    ///
    /// # Errors
    ///
    /// Fails on truncation or a non-6 version nibble.
    pub fn parse(buf: &[u8]) -> ParseResult<Self> {
        if buf.len() < Self::LEN {
            return Err(ParseError::Truncated {
                header: "ipv6",
                needed: Self::LEN,
                available: buf.len(),
            });
        }
        let version = buf[0] >> 4;
        if version != 6 {
            return Err(ParseError::BadVersion {
                header: "ipv6",
                found: version,
            });
        }
        let mut src = [0u8; 16];
        let mut dst = [0u8; 16];
        src.copy_from_slice(&buf[8..24]);
        dst.copy_from_slice(&buf[24..40]);
        Ok(Self {
            traffic_class: (buf[0] << 4) | (buf[1] >> 4),
            flow_label: (((buf[1] & 0x0f) as u32) << 16) | ((buf[2] as u32) << 8) | buf[3] as u32,
            payload_len: u16::from_be_bytes([buf[4], buf[5]]),
            next_header: buf[6],
            hop_limit: buf[7],
            src: Ipv6Addr::from(src),
            dst: Ipv6Addr::from(dst),
        })
    }

    /// Appends the wire form to `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.push(0x60 | (self.traffic_class >> 4));
        out.push((self.traffic_class << 4) | ((self.flow_label >> 16) as u8 & 0x0f));
        out.push((self.flow_label >> 8) as u8);
        out.push(self.flow_label as u8);
        out.extend_from_slice(&self.payload_len.to_be_bytes());
        out.push(self.next_header);
        out.push(self.hop_limit);
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.dst.octets());
    }

    /// Decrements the hop limit in a wire buffer (IPv6 has no header
    /// checksum, so this is a single byte write). Returns the new value.
    ///
    /// # Errors
    ///
    /// Fails with [`ParseError::Truncated`] on short buffers and
    /// [`ParseError::BadLength`] when the hop limit is already zero.
    pub fn decrement_hop_limit_in_place(buf: &mut [u8]) -> ParseResult<u8> {
        if buf.len() < Self::LEN {
            return Err(ParseError::Truncated {
                header: "ipv6",
                needed: Self::LEN,
                available: buf.len(),
            });
        }
        if buf[7] == 0 {
            return Err(ParseError::BadLength {
                header: "ipv6",
                detail: "hop limit zero",
            });
        }
        buf[7] -= 1;
        Ok(buf[7])
    }
}

/// A UDP header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length of header plus payload.
    pub length: u16,
    /// Checksum (0 = absent, legal over IPv4).
    pub checksum: u16,
}

impl UdpHeader {
    /// Wire length of the header.
    pub const LEN: usize = 8;

    /// Parses the header at the front of `buf`.
    ///
    /// # Errors
    ///
    /// Fails with [`ParseError::Truncated`] when `buf` is too short.
    pub fn parse(buf: &[u8]) -> ParseResult<Self> {
        if buf.len() < Self::LEN {
            return Err(ParseError::Truncated {
                header: "udp",
                needed: Self::LEN,
                available: buf.len(),
            });
        }
        Ok(Self {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            length: u16::from_be_bytes([buf[4], buf[5]]),
            checksum: u16::from_be_bytes([buf[6], buf[7]]),
        })
    }

    /// Appends the wire form to `out` (checksum written as-is).
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.length.to_be_bytes());
        out.extend_from_slice(&self.checksum.to_be_bytes());
    }
}

/// TCP flag bits.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// The FIN bit.
    pub const FIN: Self = Self(0x01);
    /// The SYN bit.
    pub const SYN: Self = Self(0x02);
    /// The RST bit.
    pub const RST: Self = Self(0x04);
    /// The ACK bit.
    pub const ACK: Self = Self(0x10);

    /// SYN bit set?
    pub fn syn(&self) -> bool {
        self.0 & 0x02 != 0
    }
    /// ACK bit set?
    pub fn ack(&self) -> bool {
        self.0 & 0x10 != 0
    }
    /// FIN bit set?
    pub fn fin(&self) -> bool {
        self.0 & 0x01 != 0
    }
    /// RST bit set?
    pub fn rst(&self) -> bool {
        self.0 & 0x04 != 0
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = Self;
    fn bitor(self, rhs: Self) -> Self {
        Self(self.0 | rhs.0)
    }
}

/// A TCP header (options treated as opaque).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Header length in bytes (data offset × 4).
    pub header_len: usize,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
}

impl TcpHeader {
    /// Minimum (option-less) header length.
    pub const MIN_LEN: usize = 20;

    /// Parses the header at the front of `buf`.
    ///
    /// # Errors
    ///
    /// Fails on truncation or a data offset below 5.
    pub fn parse(buf: &[u8]) -> ParseResult<Self> {
        if buf.len() < Self::MIN_LEN {
            return Err(ParseError::Truncated {
                header: "tcp",
                needed: Self::MIN_LEN,
                available: buf.len(),
            });
        }
        let header_len = ((buf[12] >> 4) as usize) * 4;
        if header_len < Self::MIN_LEN {
            return Err(ParseError::BadLength {
                header: "tcp",
                detail: "data offset below 5",
            });
        }
        Ok(Self {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            header_len,
            flags: TcpFlags(buf[13]),
            window: u16::from_be_bytes([buf[14], buf[15]]),
        })
    }

    /// Appends the wire form to `out` (option-less: the data offset is
    /// written as `header_len / 4`; checksum and urgent pointer as
    /// zero).
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push(((self.header_len / 4) as u8) << 4);
        out.push(self.flags.0);
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&0u16.to_be_bytes()); // checksum
        out.extend_from_slice(&0u16.to_be_bytes()); // urgent pointer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ipv4() -> Vec<u8> {
        let mut out = Vec::new();
        Ipv4Header {
            dscp: 46,
            ecn: 0,
            total_len: 28,
            identification: 0x1234,
            dont_fragment: true,
            more_fragments: false,
            fragment_offset: 0,
            ttl: 64,
            protocol: proto::UDP,
            checksum: 0,
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(192, 168, 1, 200),
            header_len: 20,
        }
        .write(&mut out);
        out
    }

    #[test]
    fn ipv4_roundtrip() {
        let wire = sample_ipv4();
        let h = Ipv4Header::parse(&wire).unwrap();
        assert_eq!(h.dscp, 46);
        assert_eq!(h.ttl, 64);
        assert_eq!(h.protocol, proto::UDP);
        assert_eq!(h.src, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(h.dst, Ipv4Addr::new(192, 168, 1, 200));
        assert!(h.dont_fragment);
        assert_eq!(h.header_len, 20);
    }

    #[test]
    fn ipv4_rejects_corruption() {
        let mut wire = sample_ipv4();
        wire[9] ^= 0xff; // flip protocol without fixing checksum
        assert_eq!(
            Ipv4Header::parse(&wire),
            Err(ParseError::BadChecksum { header: "ipv4" })
        );
        let short = &sample_ipv4()[..10];
        assert!(matches!(
            Ipv4Header::parse(short),
            Err(ParseError::Truncated { .. })
        ));
        let mut bad_version = sample_ipv4();
        bad_version[0] = 0x65;
        assert!(matches!(
            Ipv4Header::parse(&bad_version),
            Err(ParseError::BadVersion { found: 6, .. })
        ));
    }

    #[test]
    fn ttl_decrement_keeps_checksum_valid() {
        let mut wire = sample_ipv4();
        for expect in (0..64u8).rev() {
            let new_ttl = Ipv4Header::decrement_ttl_in_place(&mut wire).unwrap();
            assert_eq!(new_ttl, expect);
            let h = Ipv4Header::parse(&wire).expect("checksum must stay valid");
            assert_eq!(h.ttl, expect);
        }
        assert!(Ipv4Header::decrement_ttl_in_place(&mut wire).is_err());
    }

    #[test]
    fn dscp_rewrite_keeps_checksum_valid() {
        let mut wire = sample_ipv4();
        Ipv4Header::set_dscp_in_place(&mut wire, 10).unwrap();
        let h = Ipv4Header::parse(&wire).expect("checksum must stay valid");
        assert_eq!(h.dscp, 10);
        assert_eq!(h.ecn, 0);
    }

    #[test]
    fn ethernet_roundtrip() {
        let hdr = EthernetHeader {
            dst: MacAddr([1, 2, 3, 4, 5, 6]),
            src: MacAddr([7, 8, 9, 10, 11, 12]),
            ethertype: EtherType::Ipv4,
        };
        let mut out = Vec::new();
        hdr.write(&mut out);
        assert_eq!(out.len(), EthernetHeader::LEN);
        assert_eq!(EthernetHeader::parse(&out).unwrap(), hdr);
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(EtherType::from_u16(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from_u16(0x86dd), EtherType::Ipv6);
        assert_eq!(EtherType::from_u16(0x1234), EtherType::Other(0x1234));
        assert_eq!(EtherType::Other(0x1234).to_u16(), 0x1234);
    }

    #[test]
    fn ipv6_roundtrip_and_hop_limit() {
        let hdr = Ipv6Header {
            traffic_class: 0xb8,
            flow_label: 0xabcde,
            payload_len: 16,
            next_header: proto::UDP,
            hop_limit: 3,
            src: "2001:db8::1".parse().unwrap(),
            dst: "2001:db8::2".parse().unwrap(),
        };
        let mut out = Vec::new();
        hdr.write(&mut out);
        assert_eq!(out.len(), Ipv6Header::LEN);
        let parsed = Ipv6Header::parse(&out).unwrap();
        assert_eq!(parsed, hdr);
        assert_eq!(
            Ipv6Header::decrement_hop_limit_in_place(&mut out).unwrap(),
            2
        );
        assert_eq!(Ipv6Header::parse(&out).unwrap().hop_limit, 2);
    }

    #[test]
    fn udp_roundtrip() {
        let hdr = UdpHeader {
            src_port: 5004,
            dst_port: 53,
            length: 24,
            checksum: 0,
        };
        let mut out = Vec::new();
        hdr.write(&mut out);
        assert_eq!(UdpHeader::parse(&out).unwrap(), hdr);
        assert!(UdpHeader::parse(&out[..4]).is_err());
    }

    #[test]
    fn tcp_parse_flags() {
        let mut wire = vec![0u8; 20];
        wire[0..2].copy_from_slice(&443u16.to_be_bytes());
        wire[2..4].copy_from_slice(&80u16.to_be_bytes());
        wire[12] = 0x50; // data offset 5
        wire[13] = 0x12; // SYN|ACK
        let h = TcpHeader::parse(&wire).unwrap();
        assert_eq!(h.src_port, 443);
        assert!(h.flags.syn() && h.flags.ack());
        assert!(!h.flags.fin() && !h.flags.rst());
        let mut bad = wire.clone();
        bad[12] = 0x40; // offset 4 < 5
        assert!(TcpHeader::parse(&bad).is_err());
    }

    #[test]
    fn mac_display() {
        assert_eq!(
            MacAddr([0xde, 0xad, 0xbe, 0xef, 0, 1]).to_string(),
            "de:ad:be:ef:00:01"
        );
    }
}
