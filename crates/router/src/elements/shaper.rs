//! Traffic conditioning elements: token-bucket shaper, policer, and a
//! single-rate three-colour meter — the paper's "shapers" and meters in
//! the in-band functions stratum.

use std::sync::Arc;

use netkit_kernel::time::VirtualClock;
use netkit_packet::batch::PacketBatch;
use netkit_packet::packet::{Color, Packet};
use opencom::component::{Component, ComponentCore, Registrar};
use opencom::counters;
use opencom::receptacle::Receptacle;
use parking_lot::Mutex;

use crate::api::{
    emit, BatchResult, Exit, Exits, IPacketPull, IPacketPush, Output, PushError, IPACKET_PULL,
    IPACKET_PUSH,
};

use super::element_core;

/// A token bucket refilled against the virtual clock.
#[derive(Debug)]
struct Bucket {
    tokens: f64,
    capacity: f64,
    rate_bytes_per_sec: f64,
    last_refill_ns: u64,
}

impl Bucket {
    fn new(rate_bytes_per_sec: f64, capacity: f64) -> Self {
        Self {
            tokens: capacity,
            capacity,
            rate_bytes_per_sec,
            last_refill_ns: 0,
        }
    }

    fn refill(&mut self, now_ns: u64) {
        let elapsed = now_ns.saturating_sub(self.last_refill_ns) as f64 / 1e9;
        self.last_refill_ns = now_ns;
        self.tokens = (self.tokens + elapsed * self.rate_bytes_per_sec).min(self.capacity);
    }

    fn try_take(&mut self, bytes: f64, now_ns: u64) -> bool {
        self.refill(now_ns);
        if self.tokens >= bytes {
            self.tokens -= bytes;
            true
        } else {
            false
        }
    }
}

/// Pull-path token-bucket shaper: delays traffic to the configured rate.
/// Pulls from its `in` receptacle only when the head packet conforms;
/// non-conforming packets wait in the upstream queue (no loss).
pub struct TokenBucketShaper {
    core: ComponentCore,
    input: Receptacle<dyn IPacketPull>,
    clock: Arc<VirtualClock>,
    bucket: Mutex<Bucket>,
    head: Mutex<Option<Packet>>,
}

counters! { struct ShaperStats { released } }

impl TokenBucketShaper {
    /// Creates a shaper limiting output to `rate_bytes_per_sec` with
    /// `burst_bytes` of burst tolerance.
    pub fn new(rate_bytes_per_sec: f64, burst_bytes: f64, clock: Arc<VirtualClock>) -> Arc<Self> {
        Arc::new(Self {
            core: element_core("netkit.TokenBucketShaper").counting::<ShaperStats>(),
            input: Receptacle::single("in", IPACKET_PULL),
            clock,
            bucket: Mutex::new(Bucket::new(rate_bytes_per_sec, burst_bytes)),
            head: Mutex::new(None),
        })
    }

    /// Packets released so far.
    pub fn released(&self) -> u64 {
        self.core.counters().read::<ShaperStats>().released
    }
}

impl TokenBucketShaper {
    fn pull_conforming(&self, head: &mut Option<Packet>, bucket: &mut Bucket) -> Option<Packet> {
        if head.is_none() {
            *head = self.input.with_bound(|p| p.pull()).flatten();
        }
        let size = head.as_ref()?.len() as f64;
        let now = self.clock.now().as_nanos();
        if bucket.try_take(size, now) {
            head.take()
        } else {
            None
        }
    }
}

impl IPacketPull for TokenBucketShaper {
    fn pull_batch(&self, max: usize) -> PacketBatch {
        // Head/bucket locks taken once per burst; the conformance
        // decision stays per packet.
        let mut batch = PacketBatch::with_capacity(max.min(64));
        let mut head = self.head.lock();
        let mut bucket = self.bucket.lock();
        while batch.len() < max {
            match self.pull_conforming(&mut head, &mut bucket) {
                Some(pkt) => batch.push(pkt),
                None => break,
            }
        }
        let released = batch.len() as u64;
        self.core.counters().flush(ShaperStats { released });
        batch
    }
}

impl Component for TokenBucketShaper {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let pull: Arc<dyn IPacketPull> = self.clone();
        reg.expose(IPACKET_PULL, &pull);
        reg.receptacle(&self.input);
    }
    fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

impl std::fmt::Debug for TokenBucketShaper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TokenBucketShaper{:?}", self.core.counters())
    }
}

/// Push-path policer: drops non-conforming packets instead of delaying
/// them.
pub struct Policer {
    core: ComponentCore,
    out: Receptacle<dyn IPacketPush>,
    clock: Arc<VirtualClock>,
    bucket: Mutex<Bucket>,
}

counters! {
    /// What a [`Policer`] counted.
    pub struct PolicerStats {
        /// Conforming packets, sent on.
        passed,
        /// Non-conforming packets, dropped.
        dropped,
    }
}

impl Policer {
    /// Creates a policer at `rate_bytes_per_sec` with `burst_bytes`
    /// tolerance.
    pub fn new(rate_bytes_per_sec: f64, burst_bytes: f64, clock: Arc<VirtualClock>) -> Arc<Self> {
        Arc::new(Self {
            core: element_core("netkit.Policer").counting::<PolicerStats>(),
            out: Receptacle::single("out", IPACKET_PUSH),
            clock,
            bucket: Mutex::new(Bucket::new(rate_bytes_per_sec, burst_bytes)),
        })
    }

    /// Packet counts.
    pub fn stats(&self) -> PolicerStats {
        self.core.counters().read()
    }
}

impl IPacketPush for Policer {
    fn push_batch(&self, batch: PacketBatch) -> BatchResult {
        // One bucket lock for the burst; conformance is still judged
        // packet by packet, the clock re-read for each.
        let n = batch.len();
        let mut exits = Exits::new(0);
        let mut dropped = 0u64;
        {
            let mut bucket = self.bucket.lock();
            for (idx, pkt) in batch.iter().enumerate() {
                let now = self.clock.now().as_nanos();
                if !bucket.try_take(pkt.len() as f64, now) {
                    dropped += 1;
                    exits.set(idx, Exit::Drop(Err(PushError::QueueFull)));
                }
            }
        }
        self.core.counters().flush(PolicerStats {
            passed: n as u64 - dropped,
            dropped,
        });
        let out = Output::new(&self.out, Err(PushError::Unbound));
        emit(batch, &exits, &[out])
    }
}

impl Component for Policer {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
        reg.receptacle(&self.out);
    }
    fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

impl std::fmt::Debug for Policer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Policer{:?}", self.core.counters())
    }
}

/// Single-rate three-colour meter (srTCM, RFC 2697 colour-blind mode):
/// marks packets green/yellow/red in their metadata and always forwards.
/// Downstream droppers or queues act on the colour.
pub struct Meter {
    core: ComponentCore,
    out: Receptacle<dyn IPacketPush>,
    clock: Arc<VirtualClock>,
    committed: Mutex<Bucket>,
    excess: Mutex<Bucket>,
}

counters! {
    /// What a [`Meter`] counted: packets by the colour it marked.
    pub struct MeterStats {
        /// Within the committed burst.
        green,
        /// Within the excess burst.
        yellow,
        /// Past both.
        red,
    }
}

impl Meter {
    /// Creates a meter with committed rate `cir_bytes_per_sec`, committed
    /// burst `cbs`, and excess burst `ebs` (both in bytes).
    pub fn new(cir_bytes_per_sec: f64, cbs: f64, ebs: f64, clock: Arc<VirtualClock>) -> Arc<Self> {
        Arc::new(Self {
            core: element_core("netkit.Meter").counting::<MeterStats>(),
            out: Receptacle::single("out", IPACKET_PUSH),
            clock,
            committed: Mutex::new(Bucket::new(cir_bytes_per_sec, cbs)),
            excess: Mutex::new(Bucket::new(cir_bytes_per_sec, ebs)),
        })
    }

    /// Packet counts by colour.
    pub fn stats(&self) -> MeterStats {
        self.core.counters().read()
    }
}

impl IPacketPush for Meter {
    fn push_batch(&self, mut batch: PacketBatch) -> BatchResult {
        // Both bucket locks held once across the burst; colouring stays
        // per packet, and the whole coloured burst crosses the
        // downstream binding once.
        let mut counts = MeterStats::default();
        {
            let mut committed = self.committed.lock();
            let mut excess = self.excess.lock();
            for pkt in batch.packets_mut() {
                let now = self.clock.now().as_nanos();
                let size = pkt.len() as f64;
                let (color, tally) = if committed.try_take(size, now) {
                    (Color::Green, &mut counts.green)
                } else if excess.try_take(size, now) {
                    (Color::Yellow, &mut counts.yellow)
                } else {
                    (Color::Red, &mut counts.red)
                };
                *tally += 1;
                pkt.meta.color = Some(color);
            }
        }
        self.core.counters().flush(counts);
        let out = Output::new(&self.out, Err(PushError::Unbound));
        emit(batch, &Exits::new(0), &[out])
    }
}

impl Component for Meter {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
        reg.receptacle(&self.out);
    }
    fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

impl std::fmt::Debug for Meter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Meter{:?}", self.core.counters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::misc::Discard;
    use crate::elements::queues::DropTailQueue;
    use netkit_packet::packet::PacketBuilder;
    use opencom::capsule::Capsule;
    use opencom::runtime::Runtime;

    fn capsule() -> Arc<Capsule> {
        let rt = Runtime::new();
        crate::api::register_packet_interfaces(&rt);
        Capsule::new("t", &rt)
    }

    fn pkt100() -> Packet {
        // 100-byte frame: 42 bytes of headers + 58 payload.
        PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2)
            .payload_len(58)
            .build()
    }

    #[test]
    fn shaper_limits_rate_over_virtual_time() {
        let c = capsule();
        let clock = Arc::new(VirtualClock::new());
        // 1000 B/s, burst of exactly one 100-byte packet.
        let shaper = TokenBucketShaper::new(1000.0, 100.0, Arc::clone(&clock));
        let q = DropTailQueue::new(64);
        let shid = c.adopt(shaper.clone()).unwrap();
        let qid = c.adopt(q.clone()).unwrap();
        c.bind_simple(shid, "in", qid, IPACKET_PULL).unwrap();
        for _ in 0..10 {
            q.push(pkt100()).unwrap();
        }
        // Burst allows exactly one packet now.
        assert!(shaper.pull().is_some());
        assert!(shaper.pull().is_none(), "no tokens left");
        // 100 bytes accrue every 100 ms at 1000 B/s.
        clock.advance(100_000_000);
        assert!(shaper.pull().is_some());
        assert!(shaper.pull().is_none());
        // A long gap accrues at most the burst (100 bytes = 1 packet).
        clock.advance(10_000_000_000);
        assert!(shaper.pull().is_some());
        assert!(shaper.pull().is_none(), "burst caps accumulation");
    }

    #[test]
    fn shaper_head_packet_is_not_lost() {
        let c = capsule();
        let clock = Arc::new(VirtualClock::new());
        let shaper = TokenBucketShaper::new(1000.0, 50.0, Arc::clone(&clock));
        let q = DropTailQueue::new(4);
        let shid = c.adopt(shaper.clone()).unwrap();
        let qid = c.adopt(q.clone()).unwrap();
        c.bind_simple(shid, "in", qid, IPACKET_PULL).unwrap();
        q.push(pkt100()).unwrap();
        assert!(shaper.pull().is_none(), "burst (50B) below packet size");
        clock.advance(60_000_000); // 60 ms -> 60 bytes, total usable = 50 cap... bucket caps at 50
        assert!(shaper.pull().is_none(), "bucket capacity caps below size");
        // The packet is held, not dropped: enlarge time won't help with
        // a 50-byte bucket, so this documents the head-of-line property.
        assert_eq!(q.depth(), 0, "packet moved to the shaper head slot");
        assert_eq!(shaper.released(), 0);
    }

    #[test]
    fn policer_drops_excess() {
        let c = capsule();
        let clock = Arc::new(VirtualClock::new());
        let policer = Policer::new(1000.0, 200.0, Arc::clone(&clock));
        let sink = Discard::new();
        let pid = c.adopt(policer.clone()).unwrap();
        let sid = c.adopt(sink.clone()).unwrap();
        c.bind_simple(pid, "out", sid, IPACKET_PUSH).unwrap();
        // Burst of 200 bytes admits 2 packets; the rest drop.
        let mut ok = 0;
        for _ in 0..5 {
            if policer.push(pkt100()).is_ok() {
                ok += 1;
            }
        }
        assert_eq!(ok, 2);
        let s = policer.stats();
        assert_eq!((s.passed, s.dropped), (2, 3));
        assert_eq!(sink.count(), 2);
    }

    #[test]
    fn meter_colours_by_rate() {
        let c = capsule();
        let clock = Arc::new(VirtualClock::new());
        let meter = Meter::new(1000.0, 100.0, 100.0, Arc::clone(&clock));
        let sink = Discard::new();
        let mid = c.adopt(meter.clone()).unwrap();
        let sid = c.adopt(sink.clone()).unwrap();
        c.bind_simple(mid, "out", sid, IPACKET_PUSH).unwrap();
        // First packet green (CBS), second yellow (EBS), third red.
        meter.push(pkt100()).unwrap();
        meter.push(pkt100()).unwrap();
        meter.push(pkt100()).unwrap();
        let s = meter.stats();
        assert_eq!((s.green, s.yellow, s.red), (1, 1, 1));
        assert_eq!(sink.count(), 3, "meter never drops");
        assert_eq!(sink.last().unwrap().meta.color, Some(Color::Red));
    }
}
