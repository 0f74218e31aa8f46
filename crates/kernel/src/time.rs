//! Virtual time: the clock every stratum-1 service is driven by.
//!
//! NETKIT-RS runs on simulated time so that experiments are deterministic
//! and independent of host load. [`VirtualClock`] is a monotonically
//! advancing nanosecond counter; [`TimerQueue`] delivers ordered timer
//! expirations against it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// An instant on the simulated timeline, in nanoseconds since start.
///
/// # Examples
///
/// ```
/// use netkit_kernel::time::SimTime;
/// let t = SimTime::from_micros(3);
/// assert_eq!(t.as_nanos(), 3_000);
/// assert_eq!((t + 500).as_nanos(), 3_500);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        Self(nanos)
    }

    /// Builds an instant from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Self(micros * 1_000)
    }

    /// Builds an instant from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Self(millis * 1_000_000)
    }

    /// Builds an instant from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Self(secs * 1_000_000_000)
    }

    /// Raw nanoseconds since start.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Seconds since start, as a float (for reporting).
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Nanoseconds elapsed since `earlier` (saturating).
    pub fn since(&self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl std::ops::Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, nanos: u64) -> SimTime {
        SimTime(self.0.saturating_add(nanos))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({}ns)", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A monotonically advancing simulated clock, safely shared across
/// threads.
#[derive(Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current instant.
    pub fn now(&self) -> SimTime {
        SimTime(self.nanos.load(Ordering::Acquire))
    }

    /// Advances the clock by `nanos`, returning the new instant.
    pub fn advance(&self, nanos: u64) -> SimTime {
        SimTime(self.nanos.fetch_add(nanos, Ordering::AcqRel) + nanos)
    }
}

impl fmt::Debug for VirtualClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VirtualClock({})", self.now())
    }
}

/// Identifies a pending timer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TimerId(u64);

#[derive(PartialEq, Eq)]
struct PendingTimer {
    deadline: SimTime,
    seq: u64,
    id: TimerId,
}

impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// An ordered queue of timer deadlines against simulated time.
///
/// Ties are broken by arm order, making expiry fully deterministic.
#[derive(Default)]
pub struct TimerQueue {
    heap: Mutex<BinaryHeap<Reverse<PendingTimer>>>,
    next_seq: AtomicU64,
}

impl TimerQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms a timer to fire at `deadline`, returning its id.
    pub fn arm(&self, deadline: SimTime) -> TimerId {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let id = TimerId(seq);
        self.heap
            .lock()
            .push(Reverse(PendingTimer { deadline, seq, id }));
        id
    }

    /// Pops every timer whose deadline is `<= now`, in deadline order.
    pub fn expire(&self, now: SimTime) -> Vec<TimerId> {
        let mut heap = self.heap.lock();
        let mut fired = Vec::new();
        while let Some(Reverse(top)) = heap.peek() {
            if top.deadline > now {
                break;
            }
            fired.push(heap.pop().expect("peeked").0.id);
        }
        fired
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.heap.lock().len()
    }

    /// True if no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for TimerQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TimerQueue({} pending)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), SimTime::ZERO);
        clock.advance(100);
        assert_eq!(clock.now().as_nanos(), 100);
    }

    #[test]
    fn timers_fire_in_deadline_then_arm_order() {
        let q = TimerQueue::new();
        let late = q.arm(SimTime::from_nanos(200));
        let early_a = q.arm(SimTime::from_nanos(100));
        let early_b = q.arm(SimTime::from_nanos(100));
        assert_eq!(q.expire(SimTime::from_nanos(99)), vec![]);
        assert_eq!(q.expire(SimTime::from_nanos(150)), vec![early_a, early_b]);
        assert_eq!(q.expire(SimTime::from_nanos(500)), vec![late]);
        assert!(q.is_empty());
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimTime::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimTime::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn concurrent_advance_never_loses_ticks() {
        let clock = std::sync::Arc::new(VirtualClock::new());
        let mut joins = Vec::new();
        for _ in 0..4 {
            let c = std::sync::Arc::clone(&clock);
            joins.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.advance(1);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(clock.now().as_nanos(), 4000);
    }
}
