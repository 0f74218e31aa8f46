//! Traffic conditioning elements: token-bucket shaper, policer, and a
//! single-rate three-colour meter — the paper's "shapers" and meters in
//! the in-band functions stratum.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netkit_kernel::time::VirtualClock;
use netkit_packet::batch::PacketBatch;
use netkit_packet::packet::{Color, Packet};
use opencom::component::{Component, ComponentCore, Registrar};
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
    released: AtomicU64,
}

impl TokenBucketShaper {
    /// Creates a shaper limiting output to `rate_bytes_per_sec` with
    /// `burst_bytes` of burst tolerance.
    pub fn new(rate_bytes_per_sec: f64, burst_bytes: f64, clock: Arc<VirtualClock>) -> Arc<Self> {
        Arc::new(Self {
            core: element_core("netkit.TokenBucketShaper"),
            input: Receptacle::single("in", IPACKET_PULL),
            clock,
            bucket: Mutex::new(Bucket::new(rate_bytes_per_sec, burst_bytes)),
            head: Mutex::new(None),
            released: AtomicU64::new(0),
        })
    }

    /// Packets released so far.
    pub fn released(&self) -> u64 {
        self.released.load(Ordering::Relaxed)
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
            self.released.fetch_add(1, Ordering::Relaxed);
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
        write!(f, "TokenBucketShaper({} released)", self.released())
    }
}

/// Push-path policer: drops non-conforming packets instead of delaying
/// them.
pub struct Policer {
    core: ComponentCore,
    out: Receptacle<dyn IPacketPush>,
    clock: Arc<VirtualClock>,
    bucket: Mutex<Bucket>,
    passed: AtomicU64,
    dropped: AtomicU64,
}

impl Policer {
    /// Creates a policer at `rate_bytes_per_sec` with `burst_bytes`
    /// tolerance.
    pub fn new(rate_bytes_per_sec: f64, burst_bytes: f64, clock: Arc<VirtualClock>) -> Arc<Self> {
        Arc::new(Self {
            core: element_core("netkit.Policer"),
            out: Receptacle::single("out", IPACKET_PUSH),
            clock,
            bucket: Mutex::new(Bucket::new(rate_bytes_per_sec, burst_bytes)),
            passed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// `(passed, dropped)` counts.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.passed.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
        )
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
        self.passed.fetch_add(n as u64 - dropped, Ordering::Relaxed);
        self.dropped.fetch_add(dropped, Ordering::Relaxed);
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
        let (p, d) = self.stats();
        write!(f, "Policer(passed {p}, dropped {d})")
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
    counts: [AtomicU64; 3],
}

impl Meter {
    /// Creates a meter with committed rate `cir_bytes_per_sec`, committed
    /// burst `cbs`, and excess burst `ebs` (both in bytes).
    pub fn new(cir_bytes_per_sec: f64, cbs: f64, ebs: f64, clock: Arc<VirtualClock>) -> Arc<Self> {
        Arc::new(Self {
            core: element_core("netkit.Meter"),
            out: Receptacle::single("out", IPACKET_PUSH),
            clock,
            committed: Mutex::new(Bucket::new(cir_bytes_per_sec, cbs)),
            excess: Mutex::new(Bucket::new(cir_bytes_per_sec, ebs)),
            counts: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        })
    }

    /// `(green, yellow, red)` packet counts.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.counts[0].load(Ordering::Relaxed),
            self.counts[1].load(Ordering::Relaxed),
            self.counts[2].load(Ordering::Relaxed),
        )
    }
}

impl IPacketPush for Meter {
    fn push_batch(&self, mut batch: PacketBatch) -> BatchResult {
        // Both bucket locks held once across the burst; colouring stays
        // per packet, and the whole coloured burst crosses the
        // downstream binding once.
        let mut tallies = [0u64; 3];
        {
            let mut committed = self.committed.lock();
            let mut excess = self.excess.lock();
            for pkt in batch.packets_mut() {
                let now = self.clock.now().as_nanos();
                let size = pkt.len() as f64;
                let color = if committed.try_take(size, now) {
                    Color::Green
                } else if excess.try_take(size, now) {
                    Color::Yellow
                } else {
                    Color::Red
                };
                let idx = match color {
                    Color::Green => 0,
                    Color::Yellow => 1,
                    Color::Red => 2,
                };
                tallies[idx] += 1;
                pkt.meta.color = Some(color);
            }
        }
        for (idx, tally) in tallies.iter().enumerate() {
            if *tally > 0 {
                self.counts[idx].fetch_add(*tally, Ordering::Relaxed);
            }
        }
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
        let (g, y, r) = self.stats();
        write!(f, "Meter(green {g}, yellow {y}, red {r})")
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
        assert_eq!(policer.stats(), (2, 3));
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
        assert_eq!(meter.stats(), (1, 1, 1));
        assert_eq!(sink.count(), 3, "meter never drops");
        assert_eq!(sink.last().unwrap().meta.color, Some(Color::Red));
    }
}
