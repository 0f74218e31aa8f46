//! Point-to-point links: latency + serialisation + bounded queue.
//!
//! A link is full-duplex; each direction has an independent transmit
//! queue. The model is analytic: a frame offered at time `t` starts
//! serialising at `max(t, busy_until)`, occupies the wire for
//! `bytes × 8 / bandwidth`, and arrives `latency` later. If more than
//! `queue_pkts` frames are waiting to start, the frame is dropped
//! (drop-tail at the device queue).

use std::collections::VecDeque;

use netkit_kernel::time::SimTime;

/// Identifies a link within a simulator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// Static link parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// One-way propagation delay in nanoseconds.
    pub latency_ns: u64,
    /// Wire rate in bits per second.
    pub bandwidth_bps: u64,
    /// Transmit queue depth (frames) per direction.
    pub queue_pkts: usize,
}

impl LinkSpec {
    /// A fast LAN-ish default: 1 Gbit/s, 50 µs, 64-frame queues.
    pub fn lan() -> Self {
        Self {
            latency_ns: 50_000,
            bandwidth_bps: 1_000_000_000,
            queue_pkts: 64,
        }
    }

    /// Serialisation time of `bytes` on this link.
    pub fn ser_nanos(&self, bytes: usize) -> u64 {
        if self.bandwidth_bps == 0 {
            return 0;
        }
        (bytes as u128 * 8 * 1_000_000_000 / self.bandwidth_bps as u128) as u64
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        Self::lan()
    }
}

/// One direction's dynamic state.
#[derive(Debug, Default)]
struct Direction {
    /// Time the wire becomes free.
    busy_until: u64,
    /// Start times of frames accepted but not yet begun (pruned lazily).
    waiting_starts: VecDeque<u64>,
    /// Frames sent on this direction.
    sent: u64,
    /// Frames dropped on this direction.
    dropped: u64,
}

/// Per-direction counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames accepted and (eventually) delivered.
    pub sent: u64,
    /// Frames dropped at the transmit queue.
    pub dropped: u64,
}

/// Dynamic state of a full-duplex link.
#[derive(Debug)]
pub struct LinkState {
    spec: LinkSpec,
    /// Endpoints as `(node index, port index)` pairs.
    pub(crate) ends: [(usize, u16); 2],
    dirs: [Direction; 2],
}

/// Outcome of offering a frame to a link direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxOutcome {
    /// Accepted; the frame arrives at the far end at this time.
    Arrives(SimTime),
    /// The transmit queue was full; the frame is gone.
    Dropped,
}

impl LinkState {
    pub(crate) fn new(spec: LinkSpec, a: (usize, u16), b: (usize, u16)) -> Self {
        Self {
            spec,
            ends: [a, b],
            dirs: [Direction::default(), Direction::default()],
        }
    }

    /// The link's parameters.
    pub fn spec(&self) -> &LinkSpec {
        &self.spec
    }

    /// The direction index for traffic *leaving* `node`, if the node is an
    /// endpoint.
    pub(crate) fn direction_from(&self, node: usize) -> Option<usize> {
        if self.ends[0].0 == node {
            Some(0)
        } else if self.ends[1].0 == node {
            Some(1)
        } else {
            None
        }
    }

    /// The `(node, port)` at the far end of direction `dir`.
    pub(crate) fn far_end(&self, dir: usize) -> (usize, u16) {
        self.ends[1 - dir]
    }

    /// Offers a frame of `bytes` to direction `dir` at `now`.
    pub(crate) fn offer(&mut self, dir: usize, now: SimTime, bytes: usize) -> TxOutcome {
        let d = &mut self.dirs[dir];
        let now_ns = now.as_nanos();
        while d.waiting_starts.front().is_some_and(|s| *s <= now_ns) {
            d.waiting_starts.pop_front();
        }
        if d.waiting_starts.len() >= self.spec.queue_pkts {
            d.dropped += 1;
            return TxOutcome::Dropped;
        }
        let start = d.busy_until.max(now_ns);
        let done = start + self.spec.ser_nanos(bytes);
        d.busy_until = done;
        if start > now_ns {
            d.waiting_starts.push_back(start);
        }
        d.sent += 1;
        TxOutcome::Arrives(SimTime::from_nanos(done + self.spec.latency_ns))
    }

    /// Counters for direction `dir` (0 = from the first endpoint).
    pub fn stats(&self, dir: usize) -> LinkStats {
        LinkStats {
            sent: self.dirs[dir].sent,
            dropped: self.dirs[dir].dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn ser_nanos_scales_with_size_and_rate() {
        let spec = LinkSpec {
            latency_ns: 0,
            bandwidth_bps: 8_000_000_000,
            queue_pkts: 4,
        };
        assert_eq!(spec.ser_nanos(1000), 1000); // 8 Gbit/s => 1ns per byte
        let slow = LinkSpec {
            latency_ns: 0,
            bandwidth_bps: 8_000,
            queue_pkts: 4,
        };
        assert_eq!(slow.ser_nanos(1), 1_000_000);
    }

    #[test]
    fn arrival_includes_latency_and_serialisation() {
        let spec = LinkSpec {
            latency_ns: 100,
            bandwidth_bps: 8_000_000_000,
            queue_pkts: 4,
        };
        let mut link = LinkState::new(spec, (0, 0), (1, 0));
        match link.offer(0, t(0), 1000) {
            TxOutcome::Arrives(at) => assert_eq!(at.as_nanos(), 1000 + 100),
            TxOutcome::Dropped => panic!("unexpected drop"),
        }
    }

    #[test]
    fn back_to_back_frames_queue_behind_each_other() {
        let spec = LinkSpec {
            latency_ns: 0,
            bandwidth_bps: 8_000_000_000,
            queue_pkts: 16,
        };
        let mut link = LinkState::new(spec, (0, 0), (1, 0));
        let a1 = link.offer(0, t(0), 1000);
        let a2 = link.offer(0, t(0), 1000);
        assert_eq!(a1, TxOutcome::Arrives(t(1000)));
        assert_eq!(
            a2,
            TxOutcome::Arrives(t(2000)),
            "second frame waits for the first"
        );
    }

    #[test]
    fn queue_overflow_drops() {
        let spec = LinkSpec {
            latency_ns: 0,
            bandwidth_bps: 8_000_000,
            queue_pkts: 2,
        };
        let mut link = LinkState::new(spec, (0, 0), (1, 0));
        // Frame 1 starts immediately (not queued); frames 2 and 3 wait.
        assert!(matches!(link.offer(0, t(0), 1000), TxOutcome::Arrives(_)));
        assert!(matches!(link.offer(0, t(0), 1000), TxOutcome::Arrives(_)));
        assert!(matches!(link.offer(0, t(0), 1000), TxOutcome::Arrives(_)));
        // Queue (2 waiting) is now full.
        assert_eq!(link.offer(0, t(0), 1000), TxOutcome::Dropped);
        assert_eq!(link.stats(0).dropped, 1);
        assert_eq!(link.stats(0).sent, 3);
    }

    #[test]
    fn directions_are_independent() {
        let spec = LinkSpec {
            latency_ns: 10,
            bandwidth_bps: 8_000_000_000,
            queue_pkts: 1,
        };
        let mut link = LinkState::new(spec, (7, 0), (9, 1));
        assert_eq!(link.direction_from(7), Some(0));
        assert_eq!(link.direction_from(9), Some(1));
        assert_eq!(link.direction_from(3), None);
        assert_eq!(link.far_end(0), (9, 1));
        assert_eq!(link.far_end(1), (7, 0));
        let a = link.offer(0, t(0), 100);
        let b = link.offer(1, t(0), 100);
        assert_eq!(a, b, "directions do not contend");
    }

    #[test]
    fn waiting_queue_drains_with_time() {
        let spec = LinkSpec {
            latency_ns: 0,
            bandwidth_bps: 8_000_000,
            queue_pkts: 1,
        };
        let mut link = LinkState::new(spec, (0, 0), (1, 0));
        // 1000 bytes at 1 byte/µs => 1ms serialisation.
        assert!(matches!(link.offer(0, t(0), 1000), TxOutcome::Arrives(_)));
        assert!(matches!(link.offer(0, t(0), 1000), TxOutcome::Arrives(_)));
        assert_eq!(link.offer(0, t(0), 1000), TxOutcome::Dropped);
        // After the first two finished, capacity is back.
        assert!(matches!(
            link.offer(0, t(3_000_000), 1000),
            TxOutcome::Arrives(_)
        ));
    }
}
