//! Seeded traffic. Everything the program under test receives is a
//! frame made here from `--seed` by splitmix64: the same seed gives the
//! same frames, byte for byte.
//!
//! Frames are stamped out of a few templates (one per frame size): the
//! generator patches source address, source port, TCP flags and a
//! 64-bit sequence number (the last 8 payload bytes) and fixes the IPv4
//! and TCP checksums incrementally, so a frame costs tens of
//! nanoseconds and the checksums the edge's NAT patches stay valid.

use crate::rig;

pub const IP_CSUM: usize = 24;
pub const IP_SRC: usize = 26;
pub const IP_DST: usize = 30;
pub const L4: usize = 34;
const TCP_FLAGS: usize = L4 + 13;
const TCP_CSUM: usize = L4 + 16;
pub const TCP_PAYLOAD: usize = L4 + 20;
const PROTO: usize = 23;
const PROTO_TCP: u8 = 6;

pub const TCP_SYN: u8 = 0x02;
pub const TCP_RST: u8 = 0x04;
pub const TCP_ACK: u8 = 0x10;

/// Flows in the bare workloads.
pub const BARE_FLOWS: usize = 1024;
/// The edge workloads' hot set: fits the edge's per-shard tables.
pub const HOT_FLOWS: usize = 4096;
/// Concurrently live churn flows: more than the edge's connection
/// tables hold, so LRU eviction and NAT port reclaim run.
pub const CHURN_LIVE: usize = 12_288;
/// Packets in one churn flow: SYN, six data segments, RST.
const CHURN_LEN: u8 = 8;

pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; bias below 2^-32 for the
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF.
pub struct Zipf {
    /// Cumulative probability of ranks `0..=i`, scaled to `u64::MAX`.
    cdf: Vec<u64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<u64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                (acc.min(1.0) * u64::MAX as f64) as u64
            })
            .collect();
        if let Some(last) = cdf.last_mut() {
            *last = u64::MAX;
        }
        Self { cdf }
    }

    /// The rank a uniform 64-bit draw selects.
    pub fn rank(&self, u: u64) -> usize {
        self.cdf.partition_point(|&c| c < u)
    }
}

fn sum_words(data: &[u8]) -> u32 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(*last) << 8;
    }
    sum
}

fn fold(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

fn sum_u32(v: u32) -> u32 {
    (v >> 16) + (v & 0xffff)
}

fn sum_u64(v: u64) -> u32 {
    sum_u32((v >> 32) as u32) + sum_u32(v as u32)
}

/// True when the IPv4 header checksum of an Ethernet+IPv4 frame holds.
pub fn ipv4_checksum_ok(frame: &[u8]) -> bool {
    frame.len() >= L4 && fold(sum_words(&frame[14..L4])) == 0xffff
}

/// True when the TCP checksum (pseudo-header included) of an
/// Ethernet+IPv4+TCP frame with a 20-byte IP header holds.
pub fn tcp_checksum_ok(frame: &[u8]) -> bool {
    if frame.len() < TCP_PAYLOAD || frame[PROTO] != PROTO_TCP {
        return false;
    }
    let seg = &frame[L4..];
    let pseudo = sum_words(&frame[IP_SRC..IP_SRC + 8]) + u32::from(PROTO_TCP) + seg.len() as u32;
    fold(pseudo + sum_words(seg)) == 0xffff
}

/// True when `got`'s TCP checksum is what per-word RFC 1624 patching of
/// `sent`'s source address and port yields **if a step that reads a 0
/// field is skipped**. The program's rewrite path treats 0 as "checksum
/// not in use" (right for UDP); on TCP an intermediate sum of 0 then
/// leaves the remaining words unpatched, about once in 22 000 rewrites.
/// The checker counts such frames apart instead of failing the run —
/// the defect is the program's, recorded in README.md for ROADMAP A5.
pub fn tcp_checksum_zero_skip(sent: &[u8], got: &[u8]) -> bool {
    let rd = |f: &[u8], at: usize| u16::from_be_bytes([f[at], f[at + 1]]);
    let mut ck = rd(sent, TCP_CSUM);
    let mut skipped = false;
    for at in [IP_SRC, IP_SRC + 2, L4] {
        if ck == 0 {
            skipped = true;
            continue;
        }
        ck = !fold(u32::from(!ck) + u32::from(!rd(sent, at)) + u32::from(rd(got, at)));
    }
    skipped && ck == rd(got, TCP_CSUM)
}

/// The sequence number a frame carries in its last 8 bytes.
pub fn seq_of(frame: &[u8]) -> Option<u64> {
    let tail = frame.len().checked_sub(8)?;
    Some(u64::from_be_bytes(frame[tail..].try_into().ok()?))
}

/// One frame size's template plus the partial checksums of everything
/// the generator does not patch.
pub struct Template {
    bytes: Vec<u8>,
    ip_base: u32,
    /// `None` for UDP (sent with checksum 0, "not computed", which the
    /// program's rewrite path leaves alone).
    tcp_base: Option<u32>,
}

impl Template {
    /// Adopts a well-formed Ethernet + IPv4 (20-byte header) + UDP/TCP
    /// frame as a template.
    ///
    /// # Panics
    ///
    /// Panics on a frame too short to carry the sequence number in its
    /// payload, or whose sequence field is not 16-bit aligned within
    /// the L4 segment — bugs in the caller's template sizes.
    pub fn new(mut bytes: Vec<u8>) -> Self {
        let tcp = bytes[PROTO] == PROTO_TCP;
        let payload = if tcp { TCP_PAYLOAD } else { L4 + 8 };
        assert!(bytes.len() >= payload + 8, "template has no room for seq");
        assert_eq!((bytes.len() - 8 - L4) % 2, 0, "seq must be word-aligned");
        let n = bytes.len();
        bytes[IP_CSUM..IP_CSUM + 2].fill(0);
        bytes[IP_SRC..IP_SRC + 4].fill(0);
        bytes[L4..L4 + 2].fill(0);
        bytes[n - 8..].fill(0);
        let tcp_base = tcp.then(|| {
            bytes[TCP_FLAGS] = 0;
            bytes[TCP_CSUM..TCP_CSUM + 2].fill(0);
            sum_words(&bytes[IP_DST..IP_DST + 4])
                + u32::from(PROTO_TCP)
                + (n - L4) as u32
                + sum_words(&bytes[L4..])
        });
        let ip_base = sum_words(&bytes[14..L4]);
        Self {
            bytes,
            ip_base,
            tcp_base,
        }
    }

    /// Appends one patched frame to `out`.
    fn emit(&self, out: &mut Vec<u8>, src_ip: u32, src_port: u16, flags: u8, seq: u64) {
        let start = out.len();
        out.extend_from_slice(&self.bytes);
        let f = &mut out[start..];
        let n = f.len();
        f[IP_SRC..IP_SRC + 4].copy_from_slice(&src_ip.to_be_bytes());
        f[L4..L4 + 2].copy_from_slice(&src_port.to_be_bytes());
        f[n - 8..].copy_from_slice(&seq.to_be_bytes());
        let ip = !fold(self.ip_base + sum_u32(src_ip));
        f[IP_CSUM..IP_CSUM + 2].copy_from_slice(&ip.to_be_bytes());
        if let Some(base) = self.tcp_base {
            f[TCP_FLAGS] = flags;
            let sum =
                base + sum_u32(src_ip) + u32::from(src_port) + u32::from(flags) + sum_u64(seq);
            // A computed 0 goes out as its one's-complement twin: the
            // program's rewrite path reads a 0 field as "checksum not
            // maintained" and would leave it unpatched.
            let ck = match !fold(sum) {
                0 => 0xffff,
                ck => ck,
            };
            f[TCP_CSUM..TCP_CSUM + 2].copy_from_slice(&ck.to_be_bytes());
        }
    }
}

/// One round's frames, back to back, with the flow each belongs to.
#[derive(Default)]
pub struct Arena {
    buf: Vec<u8>,
    ends: Vec<u32>,
    flows: Vec<u32>,
    /// Sequence number of frame 0; frame `i` carries `base_seq + i`.
    pub base_seq: u64,
}

impl Arena {
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn frame(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.buf[start..self.ends[i] as usize]
    }

    /// Index into the per-flow order table of frame `i`'s flow.
    pub fn flow(&self, i: usize) -> usize {
        self.flows[i] as usize
    }

    pub fn frames(&self) -> impl Iterator<Item = &[u8]> + '_ {
        (0..self.len()).map(|i| self.frame(i))
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.ends.clear();
        self.flows.clear();
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Traffic {
    /// One 60-byte UDP template, [`BARE_FLOWS`] uniform flows.
    Bare,
    /// TCP at IMIX sizes 64/576/1500 (7:4:1): 80 % Zipf(1) over
    /// [`HOT_FLOWS`], 20 % from [`CHURN_LIVE`] short-lived flows.
    Edge,
}

impl Traffic {
    /// `(tcp, payload bytes)` of each template, in template order.
    fn template_shapes(self) -> &'static [(bool, usize)] {
        match self {
            Traffic::Bare => &[(false, 60 - (L4 + 8))],
            Traffic::Edge => &[
                (true, 64 - TCP_PAYLOAD),
                (true, 576 - TCP_PAYLOAD),
                (true, 1500 - TCP_PAYLOAD),
            ],
        }
    }
}

#[derive(Clone, Copy)]
struct ChurnSlot {
    id: u32,
    step: u8,
    /// Flips each time the slot starts a new flow: successive flows of
    /// one slot use alternate order-table entries, so a new flow whose
    /// frames drain before the old flow's last ones (other shard, same
    /// round) is not mistaken for reordering.
    flip: bool,
}

pub struct Generator {
    traffic: Traffic,
    rng: SplitMix64,
    templates: Vec<Template>,
    zipf: Zipf,
    churn: Vec<ChurnSlot>,
    next_churn_id: u32,
    next_seq: u64,
}

impl Generator {
    pub fn new(traffic: Traffic, seed: u64) -> Self {
        let templates = traffic
            .template_shapes()
            .iter()
            .map(|&(tcp, payload)| Template::new(rig::frame_template(tcp, payload)));
        let edge = traffic == Traffic::Edge;
        Self {
            traffic,
            rng: SplitMix64::new(seed),
            templates: templates.collect(),
            zipf: Zipf::new(if edge { HOT_FLOWS } else { 1 }, 1.0),
            churn: (0..if edge { CHURN_LIVE } else { 0 })
                .map(|s| ChurnSlot {
                    id: s as u32,
                    step: 0,
                    flip: false,
                })
                .collect(),
            next_churn_id: CHURN_LIVE as u32,
            // Sequence numbers start at 1 so an order table of zeros
            // means "nothing seen yet".
            next_seq: 1,
        }
    }

    /// Entries the per-flow order table needs.
    pub fn flow_slots(&self) -> usize {
        match self.traffic {
            Traffic::Bare => BARE_FLOWS,
            Traffic::Edge => HOT_FLOWS + 2 * CHURN_LIVE,
        }
    }

    /// Replaces `arena`'s contents with the next `n` frames.
    pub fn fill(&mut self, n: usize, arena: &mut Arena) {
        arena.clear();
        arena.base_seq = self.next_seq;
        for _ in 0..n {
            let (tpl, src_ip, src_port, flags, flow) = match self.traffic {
                Traffic::Bare => {
                    let i = self.rng.below(BARE_FLOWS as u64) as u32;
                    (0, 0x0a00_0000 | i, 5_000 + i as u16, 0, i)
                }
                Traffic::Edge => self.next_edge(),
            };
            self.templates[tpl].emit(&mut arena.buf, src_ip, src_port, flags, self.next_seq);
            self.next_seq += 1;
            arena.ends.push(arena.buf.len() as u32);
            arena.flows.push(flow);
        }
    }

    fn imix(&mut self) -> usize {
        match self.rng.below(12) {
            0..=6 => 0,
            7..=10 => 1,
            _ => 2,
        }
    }

    fn next_edge(&mut self) -> (usize, u32, u16, u8, u32) {
        if self.rng.below(5) == 0 {
            let s = self.rng.below(CHURN_LIVE as u64) as usize;
            let ChurnSlot { id, step, flip } = self.churn[s];
            let (tpl, flags) = match step {
                0 => (0, TCP_SYN),
                s if s == CHURN_LEN - 1 => (0, TCP_RST),
                _ => (self.imix(), TCP_ACK),
            };
            self.churn[s] = if step == CHURN_LEN - 1 {
                self.next_churn_id += 1;
                ChurnSlot {
                    id: self.next_churn_id - 1,
                    step: 0,
                    flip: !flip,
                }
            } else {
                ChurnSlot {
                    id,
                    step: step + 1,
                    flip,
                }
            };
            // 10.64.0.0/10 holds 2^22 churn sources; the port carries
            // the bits above that.
            let src_ip = 0x0a40_0000 | (id & 0x003f_ffff);
            let src_port = 1_024 + ((id >> 22) % 60_000) as u16;
            (
                tpl,
                src_ip,
                src_port,
                flags,
                (HOT_FLOWS + 2 * s + usize::from(flip)) as u32,
            )
        } else {
            let i = self.zipf.rank(self.rng.next_u64()) as u32;
            (self.imix(), 0x0a01_0000 | i, 20_000 + i as u16, TCP_ACK, i)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(traffic: Traffic, seed: u64, n: usize) -> Vec<Vec<u8>> {
        let mut g = Generator::new(traffic, seed);
        let mut arena = Arena::default();
        let mut out = Vec::new();
        // Two fills: state (sequence numbers, churn slots) carries over.
        for _ in 0..2 {
            g.fill(n, &mut arena);
            assert_eq!(arena.len(), n);
            out.extend(arena.frames().map(<[u8]>::to_vec));
        }
        out
    }

    #[test]
    fn same_seed_same_frames_other_seed_other_frames() {
        for traffic in [Traffic::Bare, Traffic::Edge] {
            let a = frames(traffic, 7, 512);
            assert_eq!(a, frames(traffic, 7, 512));
            assert_ne!(a, frames(traffic, 8, 512));
        }
    }

    #[test]
    fn splitmix_matches_the_reference_vector() {
        // First outputs for seed 1234567 from the reference C code.
        let mut r = SplitMix64::new(1_234_567);
        assert_eq!(r.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(r.next_u64(), 3_203_168_211_198_807_973);
        let mut r = SplitMix64::new(9);
        assert!((0..10_000).all(|_| r.below(12) < 12));
    }

    #[test]
    fn bare_frames_are_60_byte_udp_with_consecutive_seqs() {
        let f = frames(Traffic::Bare, 1, 64);
        for (i, frame) in f.iter().enumerate() {
            assert_eq!(frame.len(), 60);
            assert_eq!(frame[PROTO], 17);
            assert_eq!(seq_of(frame), Some(i as u64 + 1));
            assert!(ipv4_checksum_ok(frame));
            let key = rig::flow_hash(frame);
            assert!(key.is_some(), "the program's parser accepts the frame");
        }
    }

    #[test]
    fn edge_frames_carry_valid_checksums_at_imix_sizes() {
        let f = frames(Traffic::Edge, 3, 4096);
        let mut sizes = [0usize; 3];
        let mut syn = 0;
        for frame in &f {
            assert!(ipv4_checksum_ok(frame), "ip checksum");
            assert!(tcp_checksum_ok(frame), "tcp checksum");
            assert!(rig::flow_hash(frame).is_some());
            match frame.len() {
                64 => sizes[0] += 1,
                576 => sizes[1] += 1,
                1500 => sizes[2] += 1,
                other => panic!("unexpected frame size {other}"),
            }
            if frame[TCP_FLAGS] == TCP_SYN {
                syn += 1;
                assert_eq!(frame.len(), 64);
            }
        }
        // 7:4:1 on data segments, plus 64-byte SYNs from the churn
        // stream: small frames dominate, large are rarest.
        assert!(sizes[0] > sizes[1] && sizes[1] > sizes[2] && sizes[2] > 0);
        // A fifth of packets are churn, nearly all SYNs this early.
        let share = syn as f64 / f.len() as f64;
        assert!((0.15..0.25).contains(&share), "churn share {share}");
        // A corrupted byte fails the checksum.
        let mut bad = f[0].clone();
        bad[TCP_PAYLOAD] ^= 0x55;
        assert!(!tcp_checksum_ok(&bad));
    }

    #[test]
    fn zero_skip_model_recognises_only_the_skipped_patch() {
        let f = frames(Traffic::Edge, 3, 8);
        let sent = &f[0];
        // A correct rewrite: patch all three words.
        let rewrite = |skip_from: usize| {
            let mut got = sent.clone();
            got[IP_SRC..IP_SRC + 4].copy_from_slice(&[192, 0, 2, 1]);
            got[L4..L4 + 2].copy_from_slice(&10_000u16.to_be_bytes());
            let rd = |f: &[u8], at: usize| u16::from_be_bytes([f[at], f[at + 1]]);
            let mut ck = rd(sent, TCP_CSUM);
            for (i, at) in [IP_SRC, IP_SRC + 2, L4].into_iter().enumerate() {
                if i < skip_from {
                    ck = !fold(u32::from(!ck) + u32::from(!rd(sent, at)) + u32::from(rd(&got, at)));
                }
            }
            got[TCP_CSUM..TCP_CSUM + 2].copy_from_slice(&ck.to_be_bytes());
            got
        };
        let good = rewrite(3);
        assert!(tcp_checksum_ok(&good));
        assert!(!tcp_checksum_zero_skip(sent, &good), "no step read 0");
        // A rewrite that dropped the port patch without having read a 0
        // is plain wrong, not the known defect.
        let bad = rewrite(2);
        assert!(!tcp_checksum_ok(&bad));
        assert!(!tcp_checksum_zero_skip(sent, &bad));
        // Force the defect: a sent checksum of 0 skips every step.
        let mut zero = sent.clone();
        zero[TCP_CSUM..TCP_CSUM + 2].fill(0);
        let mut got = zero.clone();
        got[IP_SRC..IP_SRC + 4].copy_from_slice(&[192, 0, 2, 1]);
        assert!(tcp_checksum_zero_skip(&zero, &got));
    }

    #[test]
    fn churn_flows_run_syn_data_rst_and_slots_recycle() {
        let mut g = Generator::new(Traffic::Edge, 5);
        let mut arena = Arena::default();
        // Per churn slot: flags seen in order.
        let mut seen: Vec<Vec<u8>> = vec![Vec::new(); CHURN_LIVE];
        let mut flows = std::collections::BTreeSet::new();
        for _ in 0..600 {
            g.fill(1024, &mut arena);
            for i in 0..arena.len() {
                if arena.flow(i) >= HOT_FLOWS {
                    seen[(arena.flow(i) - HOT_FLOWS) / 2].push(arena.frame(i)[TCP_FLAGS]);
                    flows.insert(arena.flow(i));
                }
            }
        }
        let mut finished = 0;
        for flags in &seen {
            for flow in flags.chunks(CHURN_LEN as usize) {
                assert_eq!(flow[0], TCP_SYN);
                if flow.len() == CHURN_LEN as usize {
                    assert!(flow[1..7].iter().all(|&f| f == TCP_ACK));
                    assert_eq!(flow[7], TCP_RST);
                    finished += 1;
                }
            }
        }
        assert!(finished > 1000, "slots recycled: {finished} flows finished");
        assert!(g.next_churn_id as usize > CHURN_LIVE);
        // Recycled slots alternate between their two order-table entries.
        assert!(flows.len() > CHURN_LIVE && flows.iter().all(|&f| f < g.flow_slots()));
    }

    #[test]
    fn zipf_is_heavy_headed_and_in_range() {
        let z = Zipf::new(HOT_FLOWS, 1.0);
        let mut r = SplitMix64::new(11);
        let mut top = 0;
        let n = 100_000;
        for _ in 0..n {
            let k = z.rank(r.next_u64());
            assert!(k < HOT_FLOWS);
            if k == 0 {
                top += 1;
            }
        }
        // P(rank 0) = 1/H(4096) = 0.112.
        let share = f64::from(top) / f64::from(n);
        assert!((0.10..0.125).contains(&share), "top share {share}");
        assert_eq!(z.rank(0), 0);
        assert_eq!(z.rank(u64::MAX), HOT_FLOWS - 1);
    }
}
