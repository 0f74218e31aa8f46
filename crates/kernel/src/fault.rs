//! Deterministic, replayable fault injection for the self-healing
//! dataplane.
//!
//! Robustness claims are only as good as the faults they were tested
//! against, and faults found by accident do not replay. A [`FaultPlan`]
//! makes the fault schedule an *input*: seeded, deterministic, and
//! shared by every lane of the router's chaos tests, so a failing seed
//! reproduces bit-for-bit.
//!
//! One plan bundles the two fault families the chaos suite needs:
//!
//! * **Crash** — [`FaultPlan::should_panic`] fires exactly once, on the
//!   configured n-th packet ([`FaultConfig::panic_on_nth`]). An element
//!   wrapper calls it per packet and panics when it returns true,
//!   killing that worker mid-run — the trigger for the in-place
//!   respawn recovery path.
//! * **Wire faults** — [`FaultPlan::inject_rx`] draws a deterministic
//!   [`RxFault`] per frame (drop / corrupt / duplicate / deliver) from
//!   the seeded RNG and applies it in front of a [`Nic`]'s rx path. Every injected fault is counted on the plan
//!   ([`FaultPlan::stats`]) so tests can close the loss-accounting
//!   books: frames the plan dropped or duplicated are *expected*
//!   deviations, anything else is a real bug.
//!
//! The plan is `Sync` and cheap to share (`Arc<FaultPlan>`); all
//! counters are atomics and the RNG sits behind a mutex that is only
//! touched on the rx-injection path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::nic::Nic;

/// What to do with one received frame — drawn deterministically from
/// the plan's seeded RNG by [`FaultPlan::inject_rx`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxFault {
    /// Deliver the frame unmodified (the overwhelmingly common case).
    Deliver,
    /// Lose the frame before the NIC sees it (wire loss).
    Drop,
    /// Flip one deterministic byte, then deliver (wire corruption).
    Corrupt,
    /// Deliver the frame twice (e.g. a retransmit race).
    Duplicate,
}

/// Configuration of a [`FaultPlan`]: the seed plus the fault mix.
///
/// Probabilities are per-frame and evaluated in a fixed order (drop,
/// corrupt, duplicate) so a given seed + config always yields the same
/// schedule.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Seed for the plan's deterministic RNG.
    pub seed: u64,
    /// Panic on exactly the n-th packet (1-based) observed via
    /// [`FaultPlan::should_panic`]; `None` disables the crash fault.
    pub panic_on_nth: Option<u64>,
    /// Per-frame probability of [`RxFault::Drop`].
    pub rx_drop: f64,
    /// Per-frame probability of [`RxFault::Corrupt`].
    pub rx_corrupt: f64,
    /// Per-frame probability of [`RxFault::Duplicate`].
    pub rx_duplicate: f64,
}

impl FaultConfig {
    /// A benign plan (no faults at all) with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            panic_on_nth: None,
            rx_drop: 0.0,
            rx_corrupt: 0.0,
            rx_duplicate: 0.0,
        }
    }

    /// Arms the crash fault: panic on the `n`-th observed packet
    /// (1-based, clamped to ≥ 1).
    pub fn panic_on_nth(mut self, n: u64) -> Self {
        self.panic_on_nth = Some(n.max(1));
        self
    }

    /// Sets the per-frame drop probability (clamped to `[0, 1]`).
    pub fn rx_drop(mut self, p: f64) -> Self {
        self.rx_drop = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-frame corruption probability (clamped to `[0, 1]`).
    pub fn rx_corrupt(mut self, p: f64) -> Self {
        self.rx_corrupt = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-frame duplication probability (clamped to
    /// `[0, 1]`).
    pub fn rx_duplicate(mut self, p: f64) -> Self {
        self.rx_duplicate = p.clamp(0.0, 1.0);
        self
    }
}

/// Everything a fault plan did, for closing the accounting books.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames offered to [`FaultPlan::inject_rx`].
    pub rx_frames: u64,
    /// Frames the plan dropped before the NIC ([`RxFault::Drop`]).
    pub rx_dropped: u64,
    /// Frames the plan corrupted ([`RxFault::Corrupt`]).
    pub rx_corrupted: u64,
    /// Frames the plan duplicated ([`RxFault::Duplicate`]) — each adds
    /// one *extra* delivery.
    pub rx_duplicated: u64,
    /// Crash faults fired ([`FaultPlan::should_panic`] returned true).
    pub panics_fired: u64,
}

/// A seeded, replayable fault schedule. See the module docs.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: Mutex<SmallRng>,
    packets_seen: AtomicU64,
    rx_frames: AtomicU64,
    rx_dropped: AtomicU64,
    rx_corrupted: AtomicU64,
    rx_duplicated: AtomicU64,
    panics_fired: AtomicU64,
}

impl FaultPlan {
    /// Builds the plan for `cfg`; the same config always produces the
    /// same schedule.
    pub fn new(cfg: FaultConfig) -> Self {
        Self {
            cfg,
            rng: Mutex::new(SmallRng::seed_from_u64(cfg.seed)),
            packets_seen: AtomicU64::new(0),
            rx_frames: AtomicU64::new(0),
            rx_dropped: AtomicU64::new(0),
            rx_corrupted: AtomicU64::new(0),
            rx_duplicated: AtomicU64::new(0),
            panics_fired: AtomicU64::new(0),
        }
    }

    /// A benign plan (no faults) — useful as the control arm of a
    /// chaos experiment.
    pub fn benign(seed: u64) -> Self {
        Self::new(FaultConfig::new(seed))
    }

    /// The configuration this plan was built from.
    pub fn config(&self) -> FaultConfig {
        self.cfg
    }

    /// Counts one observed packet and reports whether the crash fault
    /// fires on it. Fires **exactly once**: only the packet whose
    /// 1-based index equals [`FaultConfig::panic_on_nth`] returns true.
    /// The caller (an element wrapper, a worker handler) is the one
    /// that actually panics — the plan only keeps the deterministic
    /// count.
    pub fn should_panic(&self) -> bool {
        let n = self.packets_seen.fetch_add(1, Ordering::Relaxed) + 1;
        if self.cfg.panic_on_nth == Some(n) {
            self.panics_fired.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Draws the fault for the next rx frame from the seeded RNG and
    /// counts it. Deterministic: same seed, same call sequence, same
    /// schedule.
    fn rx_action(&self) -> RxFault {
        self.rx_frames.fetch_add(1, Ordering::Relaxed);
        let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
        // Fixed evaluation order keeps the schedule a pure function of
        // (seed, frame index) regardless of which probabilities are 0.
        let roll: f64 = rng.gen();
        if roll < self.cfg.rx_drop {
            self.rx_dropped.fetch_add(1, Ordering::Relaxed);
            return RxFault::Drop;
        }
        if roll < self.cfg.rx_drop + self.cfg.rx_corrupt {
            self.rx_corrupted.fetch_add(1, Ordering::Relaxed);
            return RxFault::Corrupt;
        }
        if roll < self.cfg.rx_drop + self.cfg.rx_corrupt + self.cfg.rx_duplicate {
            self.rx_duplicated.fetch_add(1, Ordering::Relaxed);
            return RxFault::Duplicate;
        }
        RxFault::Deliver
    }

    /// Applies this plan to one frame in front of `nic`'s rx path: the
    /// drop/corrupt/duplicate injector for wire-level chaos. Returns
    /// the action taken and how many copies actually entered the NIC
    /// (0 for a drop or a full rx ring, 2 for a duplicate that fit
    /// twice).
    ///
    /// Corruption flips one deterministically chosen byte, so a
    /// corrupted frame may fail header parsing downstream — which is
    /// the point: the dataplane must account it, not wedge on it.
    pub fn inject_rx(&self, nic: &Nic, frame: &[u8]) -> (RxFault, usize) {
        let action = self.rx_action();
        let delivered = match action {
            RxFault::Deliver => usize::from(nic.inject_rx_frame(frame)),
            RxFault::Drop => 0,
            RxFault::Corrupt => {
                let mut copy = frame.to_vec();
                if !copy.is_empty() {
                    let idx = {
                        let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
                        rng.gen_range(0..copy.len())
                    };
                    copy[idx] ^= 0xFF;
                }
                usize::from(nic.inject_rx_frame(&copy))
            }
            RxFault::Duplicate => {
                usize::from(nic.inject_rx_frame(frame)) + usize::from(nic.inject_rx_frame(frame))
            }
        };
        (action, delivered)
    }

    /// Snapshot of everything the plan has done so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            rx_frames: self.rx_frames.load(Ordering::Relaxed),
            rx_dropped: self.rx_dropped.load(Ordering::Relaxed),
            rx_corrupted: self.rx_corrupted.load(Ordering::Relaxed),
            rx_duplicated: self.rx_duplicated.load(Ordering::Relaxed),
            panics_fired: self.panics_fired.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(cfg: FaultConfig, frames: usize) -> Vec<RxFault> {
        let plan = FaultPlan::new(cfg);
        (0..frames).map(|_| plan.rx_action()).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig::new(42)
            .rx_drop(0.1)
            .rx_corrupt(0.1)
            .rx_duplicate(0.1);
        assert_eq!(schedule(cfg, 256), schedule(cfg, 256));
        let other = FaultConfig { seed: 43, ..cfg };
        assert_ne!(schedule(cfg, 256), schedule(other, 256));
    }

    #[test]
    fn benign_plan_never_faults() {
        let plan = FaultPlan::benign(7);
        for _ in 0..128 {
            assert_eq!(plan.rx_action(), RxFault::Deliver);
            assert!(!plan.should_panic());
        }
        let stats = plan.stats();
        assert_eq!(stats.rx_frames, 128);
        assert_eq!(
            stats.rx_dropped + stats.rx_corrupted + stats.rx_duplicated,
            0
        );
        assert_eq!(stats.panics_fired, 0);
    }

    #[test]
    fn panic_fires_exactly_once_on_the_nth_packet() {
        let plan = FaultPlan::new(FaultConfig::new(1).panic_on_nth(5));
        let fired: Vec<bool> = (0..10).map(|_| plan.should_panic()).collect();
        assert_eq!(
            fired,
            [false, false, false, false, true, false, false, false, false, false]
        );
        assert_eq!(plan.stats().panics_fired, 1);
        assert_eq!(plan.packets_seen.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn fault_mix_respects_probabilities_and_counts() {
        let plan = FaultPlan::new(FaultConfig::new(99).rx_drop(0.5).rx_duplicate(0.25));
        let mut seen = [0u64; 4];
        for _ in 0..4096 {
            match plan.rx_action() {
                RxFault::Deliver => seen[0] += 1,
                RxFault::Drop => seen[1] += 1,
                RxFault::Corrupt => seen[2] += 1,
                RxFault::Duplicate => seen[3] += 1,
            }
        }
        let stats = plan.stats();
        assert_eq!(stats.rx_frames, 4096);
        assert_eq!(stats.rx_dropped, seen[1]);
        assert_eq!(stats.rx_corrupted, seen[2]);
        assert_eq!(stats.rx_duplicated, seen[3]);
        assert_eq!(seen[2], 0, "corrupt probability is zero");
        // Coarse sanity on the mix (deterministic given the seed).
        assert!(seen[1] > 1600 && seen[1] < 2500, "drop ≈ 50%: {}", seen[1]);
        assert!(seen[3] > 700 && seen[3] < 1400, "dup ≈ 25%: {}", seen[3]);
    }
}
