//! Decision cores: the *decide* arm of the control loop as a plug-in.
//!
//! One judgment does not fit every workload: steady skew wants the
//! threshold + LPT plan as soon as the evidence is in, a flapping
//! elephant wants a *hysteresis band* that demands persistent evidence
//! before paying a quiesce epoch, a diurnal ramp wants an *EWMA* that
//! plans on the trend rather than the last window. [`DecisionCore`]
//! makes the judgment a plug-in, the way executor schedulers plug into
//! the kernel: the [`RebalanceController`](super::RebalanceController)
//! keeps the loop mechanics (the gathering gate, the migration-rate
//! cap) and delegates exactly the *plan* step to the core.
//!
//! All three built-in cores read the same [`Evidence`] through the
//! same [`RebalancePolicy::judged_window`] — pressure weighting and the
//! heavy-hitter byte blend are properties of the policy, not of a
//! core — and differ only in *when* they let [`RebalancePolicy::plan`]
//! fire. Cores are selected **by name** from a pipeline description's
//! control section (see [`crate::desc`]): `"weighted"` (the default),
//! `"hysteresis"`, `"ewma"` — or any external implementation handed to
//! [`RebalanceController::with_core`](super::RebalanceController::with_core).
//!
//! Every core must stay **deterministic**: same evidence sequence,
//! same plans. The deterministic simulator drives cores from its
//! event loop, and the differential tests replay them bit-for-bit.

use netkit_packet::sketch::HeavyHitter;
use netkit_packet::steer::{BucketMap, RSS_BUCKETS};

use super::rebalance::{RebalancePlan, RebalancePolicy};
use super::ShardLoad;

/// One observation the control loop presents to a core: everything the
/// dataplane can tell it about the judged window.
#[derive(Clone, Copy)]
pub struct Evidence<'a> {
    /// Peeked per-bucket packet window ([`RSS_BUCKETS`] entries).
    pub window: &'a [u64],
    /// Per-shard pressure meters (empty ⇒ no pressure, as the inline
    /// executor reports).
    pub loads: &'a [ShardLoad],
    /// Merged heavy-hitter byte evidence from the flow sketches
    /// (empty when the policy's `heavy_blend` is zero).
    pub heavy: &'a [HeavyHitter],
    /// Worker ring capacity (pressure normalisation).
    pub ring_capacity: usize,
    /// The live bucket → shard table.
    pub current: &'a BucketMap,
}

/// The pluggable *decide* arm of the reflective control loop: turns
/// one [`Evidence`] observation into a migration plan, or `None` to
/// hold. See the module docs for the built-in cores and the
/// determinism contract.
pub trait DecisionCore: Send {
    /// The core's registry name (`"weighted"`, `"hysteresis"`,
    /// `"ewma"`, …) — what a pipeline description selects it by.
    fn name(&self) -> &'static str;

    /// The policy the core judges with. The controller reads its
    /// `min_samples` (the gathering gate) and the pipeline its `decay`
    /// and `heavy_blend`.
    fn policy(&self) -> &RebalancePolicy;

    /// Judge one observation. Stateful cores (hysteresis streaks,
    /// EWMA accumulators) mutate themselves here; the controller
    /// guarantees one call per judged tick, in tick order.
    fn plan(&mut self, ev: &Evidence<'_>) -> Option<RebalancePlan>;
}

/// The stateless core: plan on every judged window that crosses the
/// policy's threshold. This is what
/// [`RebalanceController::new`](super::RebalanceController::new)
/// wraps.
#[derive(Clone, Copy, Debug)]
pub struct WeightedCore {
    /// The judging policy.
    pub policy: RebalancePolicy,
}

impl DecisionCore for WeightedCore {
    fn name(&self) -> &'static str {
        "weighted"
    }
    fn policy(&self) -> &RebalancePolicy {
        &self.policy
    }
    fn plan(&mut self, ev: &Evidence<'_>) -> Option<RebalancePlan> {
        self.policy.plan(&self.policy.judged_window(ev), ev.current)
    }
}

/// A banded core for flapping workloads: it demands the imbalance stay
/// above the **enter** threshold for `arm_ticks` *consecutive* judged
/// windows before planning at all, and a single window back under the
/// **exit** threshold disarms it. The underlying plan is the policy's;
/// what changes is *when* the core is willing to pay a quiesce epoch —
/// transient spikes (an elephant that dies within the band) never
/// trigger a migration, while persistent skew still converges, just
/// `arm_ticks` windows later.
#[derive(Clone, Copy, Debug)]
pub struct HysteresisCore {
    /// The judging policy once armed (its `max_imbalance` is ignored
    /// in favour of the band).
    pub policy: RebalancePolicy,
    /// Arm the core while judged imbalance exceeds this.
    pub enter: f64,
    /// Disarm (reset the streak) once imbalance falls below this.
    /// Must be ≤ `enter`; windows inside `[exit, enter]` keep the
    /// streak but do not extend it.
    pub exit: f64,
    /// Consecutive over-`enter` windows required before planning.
    pub arm_ticks: u32,
    streak: u32,
}

impl HysteresisCore {
    /// A banded core over `policy` with the `[exit, enter]` band,
    /// arming after `arm_ticks` consecutive over-threshold windows.
    pub fn new(policy: RebalancePolicy, enter: f64, exit: f64, arm_ticks: u32) -> Self {
        Self {
            policy,
            enter: enter.max(1.0),
            exit: exit.clamp(1.0, enter.max(1.0)),
            arm_ticks: arm_ticks.max(1),
            streak: 0,
        }
    }

    /// Consecutive over-`enter` windows seen so far (introspection).
    pub fn streak(&self) -> u32 {
        self.streak
    }
}

impl DecisionCore for HysteresisCore {
    fn name(&self) -> &'static str {
        "hysteresis"
    }
    fn policy(&self) -> &RebalancePolicy {
        &self.policy
    }
    fn plan(&mut self, ev: &Evidence<'_>) -> Option<RebalancePlan> {
        let judged = self.policy.judged_window(ev);
        let imbalance = RebalancePolicy::imbalance(&judged, ev.current);
        if imbalance > self.enter {
            self.streak = self.streak.saturating_add(1);
        } else if imbalance < self.exit {
            self.streak = 0;
        }
        if self.streak < self.arm_ticks {
            return None;
        }
        // Armed: judge with the banded threshold (`enter`), not the
        // policy's own, so the band is the single source of truth.
        let banded = RebalancePolicy {
            max_imbalance: self.enter,
            ..self.policy
        };
        let plan = banded.plan(&judged, ev.current);
        if plan.is_some() {
            self.streak = 0;
        }
        plan
    }
}

/// A predictive core for trending workloads: every judged window is
/// folded into a per-bucket exponentially-weighted moving average,
/// and the plan is made over the *smoothed* loads. A one-window blip
/// moves the EWMA by only `alpha`, so noise is damped; a sustained
/// ramp accumulates until the smoothed shape crosses the threshold —
/// the core then plans on the trend, which predicts the next window
/// better than the last sample does.
#[derive(Clone, Debug)]
pub struct EwmaCore {
    /// The judging policy, applied to the smoothed window.
    pub policy: RebalancePolicy,
    /// Weight of the newest window in `[0, 1]` (`1.0` ⇒ no smoothing,
    /// identical to [`WeightedCore`]).
    pub alpha: f64,
    smoothed: Vec<f64>,
}

impl EwmaCore {
    /// A smoothing core over `policy` with newest-window weight
    /// `alpha`.
    pub fn new(policy: RebalancePolicy, alpha: f64) -> Self {
        Self {
            policy,
            alpha: alpha.clamp(0.0, 1.0),
            smoothed: vec![0.0; RSS_BUCKETS],
        }
    }
}

impl DecisionCore for EwmaCore {
    fn name(&self) -> &'static str {
        "ewma"
    }
    fn policy(&self) -> &RebalancePolicy {
        &self.policy
    }
    fn plan(&mut self, ev: &Evidence<'_>) -> Option<RebalancePlan> {
        assert_eq!(ev.window.len(), RSS_BUCKETS, "one load per bucket");
        for (s, &w) in self.smoothed.iter_mut().zip(ev.window) {
            *s = self.alpha * w as f64 + (1.0 - self.alpha) * *s;
        }
        // Smooth the raw packet window, then weigh it like any other.
        let smoothed: Vec<u64> = self.smoothed.iter().map(|&s| s.round() as u64).collect();
        let judged = self.policy.judged_window(&Evidence {
            window: &smoothed,
            ..*ev
        });
        self.policy.plan(&judged, ev.current)
    }
}

/// Builds a core by registry name — the hook a pipeline description's
/// control section resolves through. Unknown names list the registry.
///
/// * `"weighted"` — [`WeightedCore`] (ignores `enter`/`exit`/`arm`/`alpha`).
/// * `"hysteresis"` — [`HysteresisCore::new`]`(policy, enter, exit, arm)`.
/// * `"ewma"` — [`EwmaCore::new`]`(policy, alpha)`.
///
/// # Errors
///
/// Fails with [`opencom::error::Error::StaleReference`] on an unknown
/// name.
pub fn core_by_name(
    name: &str,
    policy: RebalancePolicy,
    enter: f64,
    exit: f64,
    arm: u32,
    alpha: f64,
) -> opencom::error::Result<Box<dyn DecisionCore>> {
    match name {
        "weighted" => Ok(Box::new(WeightedCore { policy })),
        "hysteresis" => Ok(Box::new(HysteresisCore::new(policy, enter, exit, arm))),
        "ewma" => Ok(Box::new(EwmaCore::new(policy, alpha))),
        other => Err(opencom::error::Error::StaleReference {
            what: format!("decision core `{other}` (known: weighted, hysteresis, ewma)"),
        }),
    }
}

/// Evidence shapes shared by the unit tests of the three control-path
/// modules.
#[cfg(test)]
pub(super) mod fixtures {
    use super::*;

    /// A per-bucket window holding the given `(bucket, load)` entries.
    pub fn window(entries: &[(usize, u64)]) -> Vec<u64> {
        let mut w = vec![0u64; RSS_BUCKETS];
        for &(bucket, load) in entries {
            w[bucket] = load;
        }
        w
    }

    /// `window` under `current` with idle rings (capacity 1024) and no
    /// byte evidence; tests override fields with struct update.
    pub fn observe<'a>(window: &'a [u64], current: &'a BucketMap) -> Evidence<'a> {
        Evidence {
            window,
            loads: &[],
            heavy: &[],
            ring_capacity: 1024,
            current,
        }
    }

    /// Packet counts alone: no pressure weighting, no byte blend.
    pub fn packets_only(max_imbalance: f64, min_samples: u64) -> RebalancePolicy {
        RebalancePolicy {
            max_imbalance,
            min_samples,
            pressure_weight: 0.0,
            decay: 0.5,
            heavy_blend: 0.0,
        }
    }

    /// One heavy hitter hashing to `bucket`.
    pub fn hitter(bucket: usize, weight: u64) -> HeavyHitter {
        HeavyHitter {
            hash: bucket as u64, // bucket_of(hash) == hash % RSS_BUCKETS
            error: 0,
            weight,
        }
    }

    /// The skew packet counts provably hide: 8 packets in each of
    /// buckets 0..8 (32/32 under `identity(2)`, imbalance 1.0), but
    /// every even bucket carries a 2000-byte elephant and every odd
    /// one 500 bytes of mice — shard 0 owns 8000 of 10000 bytes.
    pub fn byte_skew() -> (Vec<u64>, Vec<HeavyHitter>) {
        let buckets = [0, 1, 2, 3, 4, 5, 6, 7];
        (
            window(&buckets.map(|b| (b, 8))),
            buckets
                .map(|b| hitter(b, if b % 2 == 0 { 2_000 } else { 500 }))
                .to_vec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{byte_skew, observe as ev, packets_only, window};
    use super::*;

    fn eager() -> RebalancePolicy {
        packets_only(1.25, 1)
    }

    #[test]
    fn weighted_core_matches_the_raw_policy() {
        let map = BucketMap::identity(2);
        let w = window(&[(0, 90), (2, 60), (1, 30)]);
        let mut core = WeightedCore { policy: eager() };
        let from_core = core.plan(&ev(&w, &map)).expect("skew plans");
        let direct = eager().plan(&w, &map).expect("skew plans");
        assert_eq!(from_core.map, direct.map);
        assert_eq!(from_core.moved, direct.moved);
    }

    #[test]
    fn hysteresis_demands_persistent_skew() {
        let map = BucketMap::identity(2);
        let skew = window(&[(0, 90), (2, 60), (1, 30)]);
        let balanced = window(&[(0, 50), (1, 50)]);
        let mut core = HysteresisCore::new(eager(), 1.25, 1.1, 3);

        // Two over-threshold windows: still armed-but-waiting.
        assert!(core.plan(&ev(&skew, &map)).is_none());
        assert!(core.plan(&ev(&skew, &map)).is_none());
        assert_eq!(core.streak(), 2);
        // A balanced window disarms the streak entirely...
        assert!(core.plan(&ev(&balanced, &map)).is_none());
        assert_eq!(core.streak(), 0);
        // ...so the skew must persist for three fresh windows.
        assert!(core.plan(&ev(&skew, &map)).is_none());
        assert!(core.plan(&ev(&skew, &map)).is_none());
        let plan = core.plan(&ev(&skew, &map)).expect("armed after 3");
        assert!(plan.imbalance_after < plan.imbalance_before);
        assert_eq!(core.streak(), 0, "an applied plan resets the streak");
    }

    #[test]
    fn ewma_damps_a_blip_but_follows_a_trend() {
        let map = BucketMap::identity(2);
        let skew = window(&[(0, 900), (2, 600), (1, 300)]);
        let quiet = window(&[(0, 1), (1, 1)]);
        let mut core = EwmaCore::new(eager(), 0.3);

        // One loud window into a cold average: the smoothed shape is
        // only 30% of the spike — scaled down but same *shape*, so
        // shape-based imbalance may trigger; what matters is that the
        // average tracks. Feed quiet windows after and the plan
        // disappears as the average decays.
        core.plan(&ev(&skew, &map));
        for _ in 0..20 {
            core.plan(&ev(&quiet, &map));
        }
        let after_quiet = core.plan(&ev(&quiet, &map));
        assert!(after_quiet.is_none(), "average decays toward quiet");
        // A sustained ramp converges to the skew and plans.
        let mut planned = false;
        for _ in 0..10 {
            if core.plan(&ev(&skew, &map)).is_some() {
                planned = true;
                break;
            }
        }
        assert!(planned, "persistent skew must eventually plan");
    }

    #[test]
    fn alpha_one_reproduces_the_weighted_core() {
        let map = BucketMap::identity(2);
        let w = window(&[(0, 90), (2, 60), (1, 30)]);
        let mut ewma = EwmaCore::new(eager(), 1.0);
        let mut weighted = WeightedCore { policy: eager() };
        let a = ewma.plan(&ev(&w, &map)).expect("plans");
        let b = weighted.plan(&ev(&w, &map)).expect("plans");
        assert_eq!(a.map, b.map);
    }

    #[test]
    fn every_core_weighs_the_byte_evidence() {
        // Regression: the hysteresis and EWMA cores used to plan on the
        // pressure-weighted packet window only, so `heavy_blend` on
        // either was validated, paid for (sketch snapshots and a merge
        // per turn) and then ignored. On the byte skew, packet counts
        // alone hold and the bytes migrate — for every core.
        let map = BucketMap::identity(2);
        let (w, bytes) = byte_skew();
        let evidence = Evidence {
            heavy: &bytes,
            ..ev(&w, &map)
        };
        for blend in [0.0, 1.0] {
            let policy = RebalancePolicy {
                heavy_blend: blend,
                ..eager()
            };
            let expected = WeightedCore { policy }.plan(&evidence).map(|p| p.map);
            assert_eq!(expected.is_some(), blend > 0.0);
            let mut armed = HysteresisCore::new(policy, 1.25, 1.1, 1);
            assert_eq!(armed.plan(&evidence).map(|p| p.map), expected, "hysteresis");
            let mut unsmoothed = EwmaCore::new(policy, 1.0);
            assert_eq!(unsmoothed.plan(&evidence).map(|p| p.map), expected, "ewma");
        }
    }

    #[test]
    fn registry_resolves_names_and_rejects_unknowns() {
        assert_eq!(
            core_by_name("weighted", eager(), 0.0, 0.0, 1, 0.5)
                .unwrap()
                .name(),
            "weighted"
        );
        assert_eq!(
            core_by_name("hysteresis", eager(), 1.5, 1.2, 2, 0.5)
                .unwrap()
                .name(),
            "hysteresis"
        );
        assert_eq!(
            core_by_name("ewma", eager(), 0.0, 0.0, 1, 0.3)
                .unwrap()
                .name(),
            "ewma"
        );
        assert!(core_by_name("banana", eager(), 0.0, 0.0, 1, 0.5).is_err());
    }
}
