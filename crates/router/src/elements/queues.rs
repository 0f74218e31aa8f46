//! Queue elements: drop-tail and RED.
//!
//! Queues are the push/pull boundary of the diffserv path (Fig. 3's
//! "queueing" stage): upstream pushes in, a scheduler pulls out.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netkit_packet::batch::PacketBatch;
use netkit_packet::packet::Packet;
use opencom::component::{Component, ComponentCore, Registrar};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::api::{
    BatchResult, IPacketPull, IPacketPush, PushError, PushResult, IPACKET_PULL, IPACKET_PUSH,
};

use super::element_core;

/// Queue counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Packets accepted.
    pub enqueued: u64,
    /// Packets handed to the puller.
    pub dequeued: u64,
    /// Packets dropped because the queue was full (forced drops).
    pub dropped: u64,
    /// Packets dropped early by RED (probabilistic drops).
    pub early_dropped: u64,
}

/// A bounded FIFO with tail-drop.
pub struct DropTailQueue {
    core: ComponentCore,
    queue: Mutex<VecDeque<Packet>>,
    capacity: usize,
    enqueued: AtomicU64,
    dequeued: AtomicU64,
    dropped: AtomicU64,
}

impl DropTailQueue {
    /// Creates a queue bounded to `capacity` packets.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            core: element_core("netkit.DropTailQueue"),
            queue: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            enqueued: AtomicU64::new(0),
            dequeued: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// Packets currently queued.
    pub fn depth(&self) -> usize {
        self.queue.lock().len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            dequeued: self.dequeued.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            early_dropped: 0,
        }
    }
}

impl IPacketPush for DropTailQueue {
    fn push_batch(&self, batch: PacketBatch) -> BatchResult {
        // One lock acquisition for the whole burst.
        let mut result = BatchResult::with_capacity(batch.len());
        let mut accepted = 0u64;
        let mut dropped = 0u64;
        let mut q = self.queue.lock();
        for pkt in batch {
            if q.len() >= self.capacity {
                dropped += 1;
                result.record(Err(PushError::QueueFull));
            } else {
                q.push_back(pkt);
                accepted += 1;
                result.record(Ok(()));
            }
        }
        drop(q);
        self.enqueued.fetch_add(accepted, Ordering::Relaxed);
        self.dropped.fetch_add(dropped, Ordering::Relaxed);
        result
    }
}

impl IPacketPull for DropTailQueue {
    fn pull_batch(&self, max: usize) -> PacketBatch {
        let mut q = self.queue.lock();
        let take = max.min(q.len());
        let mut batch = PacketBatch::with_capacity(take);
        for _ in 0..take {
            batch.push(q.pop_front().expect("length checked"));
        }
        drop(q);
        self.dequeued.fetch_add(take as u64, Ordering::Relaxed);
        batch
    }
}

impl Component for DropTailQueue {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
        let pull: Arc<dyn IPacketPull> = self.clone();
        reg.expose(IPACKET_PULL, &pull);
    }
    fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.queue.lock().iter().map(|p| p.len()).sum::<usize>()
    }
}

/// RED parameters.
#[derive(Clone, Copy, Debug)]
pub struct RedConfig {
    /// Physical capacity in packets.
    pub capacity: usize,
    /// Average-depth threshold below which nothing is dropped.
    pub min_threshold: f64,
    /// Average-depth threshold above which everything is dropped.
    pub max_threshold: f64,
    /// Drop probability at `max_threshold`.
    pub max_probability: f64,
    /// EWMA weight for the average queue depth.
    pub weight: f64,
    /// RNG seed (deterministic experiments).
    pub seed: u64,
}

impl Default for RedConfig {
    fn default() -> Self {
        Self {
            capacity: 128,
            min_threshold: 16.0,
            max_threshold: 64.0,
            max_probability: 0.1,
            weight: 0.2,
            seed: 1,
        }
    }
}

struct RedState {
    queue: VecDeque<Packet>,
    avg: f64,
    rng: SmallRng,
}

/// A Random-Early-Detection queue.
pub struct RedQueue {
    core: ComponentCore,
    state: Mutex<RedState>,
    config: RedConfig,
    enqueued: AtomicU64,
    dequeued: AtomicU64,
    dropped: AtomicU64,
    early_dropped: AtomicU64,
}

impl RedQueue {
    /// Creates a RED queue with the given parameters.
    pub fn new(config: RedConfig) -> Arc<Self> {
        Arc::new(Self {
            core: element_core("netkit.RedQueue"),
            state: Mutex::new(RedState {
                queue: VecDeque::with_capacity(config.capacity),
                avg: 0.0,
                rng: SmallRng::seed_from_u64(config.seed),
            }),
            config,
            enqueued: AtomicU64::new(0),
            dequeued: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            early_dropped: AtomicU64::new(0),
        })
    }

    /// Packets currently queued.
    pub fn depth(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            dequeued: self.dequeued.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            early_dropped: self.early_dropped.load(Ordering::Relaxed),
        }
    }
}

impl RedQueue {
    /// The RED admit decision for one packet: EWMA update, then tail,
    /// forced and probabilistic drops, in that order.
    fn admit(&self, s: &mut RedState, pkt: Packet) -> PushResult {
        s.avg = (1.0 - self.config.weight) * s.avg + self.config.weight * s.queue.len() as f64;
        if s.queue.len() >= self.config.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return Err(PushError::QueueFull);
        }
        if s.avg >= self.config.max_threshold {
            self.early_dropped.fetch_add(1, Ordering::Relaxed);
            return Err(PushError::QueueFull);
        }
        if s.avg > self.config.min_threshold {
            let p = self.config.max_probability * (s.avg - self.config.min_threshold)
                / (self.config.max_threshold - self.config.min_threshold);
            if s.rng.gen_bool(p.clamp(0.0, 1.0)) {
                self.early_dropped.fetch_add(1, Ordering::Relaxed);
                return Err(PushError::QueueFull);
            }
        }
        s.queue.push_back(pkt);
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl IPacketPush for RedQueue {
    fn push_batch(&self, batch: PacketBatch) -> BatchResult {
        // One lock for the burst; the EWMA update and RNG draw stay per
        // packet, in batch order.
        let mut result = BatchResult::with_capacity(batch.len());
        let mut s = self.state.lock();
        for pkt in batch {
            result.record(self.admit(&mut s, pkt));
        }
        result
    }
}

impl IPacketPull for RedQueue {
    fn pull_batch(&self, max: usize) -> PacketBatch {
        let mut s = self.state.lock();
        let take = max.min(s.queue.len());
        let mut batch = PacketBatch::with_capacity(take);
        for _ in 0..take {
            batch.push(s.queue.pop_front().expect("length checked"));
        }
        drop(s);
        self.dequeued.fetch_add(take as u64, Ordering::Relaxed);
        batch
    }
}

impl Component for RedQueue {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
        let pull: Arc<dyn IPacketPull> = self.clone();
        reg.expose(IPACKET_PULL, &pull);
    }
    fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .state
                .lock()
                .queue
                .iter()
                .map(|p| p.len())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_packet::packet::PacketBuilder;

    fn pkt() -> Packet {
        PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build()
    }

    #[test]
    fn drop_tail_fifo_order() {
        let q = DropTailQueue::new(4);
        for port in [1u16, 2, 3] {
            q.push(PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", port, 9).build())
                .unwrap();
        }
        assert_eq!(q.pull().unwrap().udp_v4().unwrap().src_port, 1);
        assert_eq!(q.pull().unwrap().udp_v4().unwrap().src_port, 2);
        assert_eq!(q.pull().unwrap().udp_v4().unwrap().src_port, 3);
        assert!(q.pull().is_none());
        let s = q.stats();
        assert_eq!((s.enqueued, s.dequeued, s.dropped), (3, 3, 0));
    }

    #[test]
    fn drop_tail_overflow() {
        let q = DropTailQueue::new(2);
        q.push(pkt()).unwrap();
        q.push(pkt()).unwrap();
        assert!(matches!(q.push(pkt()), Err(PushError::QueueFull)));
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn red_accepts_everything_when_shallow() {
        let q = RedQueue::new(RedConfig {
            capacity: 100,
            min_threshold: 50.0,
            ..RedConfig::default()
        });
        for _ in 0..20 {
            q.push(pkt()).unwrap();
        }
        assert_eq!(q.stats().early_dropped, 0);
    }

    #[test]
    fn red_drops_early_under_sustained_load() {
        let q = RedQueue::new(RedConfig {
            capacity: 1000,
            min_threshold: 8.0,
            max_threshold: 32.0,
            max_probability: 0.5,
            weight: 0.5,
            seed: 7,
        });
        let mut accepted = 0;
        for _ in 0..500 {
            if q.push(pkt()).is_ok() {
                accepted += 1;
            }
        }
        let s = q.stats();
        assert!(s.early_dropped > 0, "RED must drop early under load");
        assert!(accepted > 0, "RED must not drop everything");
        assert!(
            q.state.lock().avg <= 40.0,
            "average depth is controlled, got {}",
            q.state.lock().avg
        );
    }

    #[test]
    fn red_is_deterministic_per_seed() {
        let run = |seed| {
            let q = RedQueue::new(RedConfig {
                seed,
                ..RedConfig::default()
            });
            let mut drops = 0;
            for _ in 0..300 {
                if q.push(pkt()).is_err() {
                    drops += 1;
                }
            }
            drops
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn red_drains_and_recovers() {
        let q = RedQueue::new(RedConfig::default());
        for _ in 0..50 {
            let _ = q.push(pkt());
        }
        while q.pull().is_some() {}
        assert_eq!(q.depth(), 0);
        // After draining, the EWMA decays and new traffic is accepted.
        for _ in 0..200 {
            let _ = q.pull();
            let _ = q.push(pkt());
        }
        assert!(q.stats().enqueued > 50);
    }
}
