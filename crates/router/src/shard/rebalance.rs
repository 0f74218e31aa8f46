//! Reflective load rebalancing: the policy that turns the dataplane's
//! load evidence into a new bucket → shard indirection table.
//!
//! Static RSS steering spreads **flows** evenly, not **load**: one
//! elephant flow pins its shard at 100% while siblings idle, and every
//! mouse flow whose bucket happens to share that shard queues behind
//! it. The rebalancer is the ResourceManager-side meta-object that
//! closes the loop the paper's reflective architecture promises —
//! *inspect* the running dataplane (one [`Evidence`]: per-bucket packet
//! counters, ring occupancy high-water marks, per-flow byte sketches),
//! *decide* (this module's [`RebalancePolicy`], driven by the
//! staged [`DecisionCore`](super::DecisionCore) inside a
//! [`RebalanceController`](super::RebalanceController)), and *adapt*
//! (`ShardedPipeline::control_turn` installs the planned [`BucketMap`]
//! atomically through the executor's epoch quiesce).
//!
//! ## What rebalancing can and cannot fix
//!
//! The migration unit is the **bucket**, never the flow: moving a
//! bucket re-homes every flow hashing into it, preserving flow → shard
//! affinity (hence per-flow ordering). Consequently:
//!
//! * load that *shares* an overloaded shard with an elephant can be
//!   moved off it — this is where the throughput recovery comes from;
//! * the elephant's own bucket is indivisible: a single flow carrying
//!   50% of all packets bounds the best achievable balance at 50% on
//!   one shard. The policy therefore optimises the *makespan* (the
//!   most-loaded shard) with a greedy longest-processing-time
//!   assignment, which never produces a plan worse than the current
//!   map.
//!
//! ## The judged window and the decision rule
//!
//! Packet counts alone say which buckets are busy, not which shard is
//! *drowning*, and they weigh a 60-byte mouse like a 1500-byte
//! elephant. [`RebalancePolicy::judged_window`] folds both signals in:
//!
//! ```text
//! effective[b] = count[b] × (1 + pressure_weight × hwm[shard(b)] / ring_capacity)
//! hh[b]        = Σ weight of heavy hitters whose hash buckets to b
//! judged[b]    = (1 − heavy_blend) × effective[b]
//!              + heavy_blend × hh[b] × (Σ effective / Σ hh)
//! ```
//!
//! Pressure is clamped to `[0, 1]` and reads `max(ring_high_water,
//! in_flight)`, so a freshly reset mark still sees live occupancy: a
//! packet skew sitting *just under* the threshold converges once the
//! hot shard's queue backs up. The byte evidence (merged top-k of the
//! per-shard [`FlowSketch`](netkit_packet::sketch::FlowSketch)es) is
//! normalised to the packet window's mass, so `heavy_blend`
//! interpolates between two unit-free load shapes — which catches byte
//! elephants that uniform packet counts provably hide.
//!
//! [`RebalancePolicy::plan`] fires only when the most-loaded shard of
//! the judged window exceeds the ideal `total / shards` share by more
//! than `max_imbalance` (every migration costs one quiesce epoch of
//! pipeline pause). `min_samples` is the controller's gathering gate:
//! it judges the **raw** window, so neither pressure nor sketches can
//! conjure evidence out of an idle dataplane.

use netkit_packet::steer::{bucket_of, BucketMap, RSS_BUCKETS};

use super::decision::Evidence;

/// When, on what evidence and how aggressively to rewrite the bucket
/// table — every knob of the *decide* arm in one place. See the module
/// docs for the formulas.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RebalancePolicy {
    /// Trigger threshold on `max_shard_load / ideal_shard_load` of the
    /// judged window. `1.0` is perfect balance; the default `1.25`
    /// tolerates 25% skew before paying a migration epoch.
    pub max_imbalance: f64,
    /// Minimum **raw** packets in the observation window before the
    /// controller judges at all — protects against reshuffling on
    /// statistical noise.
    pub min_samples: u64,
    /// How strongly ring pressure inflates a shard's buckets: a shard
    /// riding its full ring weighs `1 + pressure_weight` per packet.
    /// `0.0` judges packet counts alone.
    pub pressure_weight: f64,
    /// Fraction of a judged-but-declined window retained per decision
    /// (`1.0` = never fades). Applied by
    /// `ShardedPipeline::control_turn`, not by [`Self::plan`].
    pub decay: f64,
    /// Heavy-hitter byte-evidence blend, clamped to `[0, 1]`. `0.0`
    /// ignores the flow sketches (and `control_turn` then never
    /// snapshots them).
    pub heavy_blend: f64,
}

impl Default for RebalancePolicy {
    fn default() -> Self {
        Self {
            max_imbalance: 1.25,
            min_samples: 64,
            pressure_weight: 0.5,
            decay: 0.5,
            heavy_blend: 0.0,
        }
    }
}

/// A planned migration: the new table plus the evidence it was planned
/// on.
#[derive(Clone, Debug)]
pub struct RebalancePlan {
    /// The bucket table to install.
    pub map: BucketMap,
    /// Buckets whose assignment changes, in bucket order.
    pub moved: Vec<usize>,
    /// `max_shard_load / ideal` under the current map, in judged
    /// (weighted) units.
    pub imbalance_before: f64,
    /// `max_shard_load / ideal` predicted under [`Self::map`] (same
    /// window).
    pub imbalance_after: f64,
}

impl RebalancePolicy {
    /// Measures the imbalance of `per_bucket` loads under `map`:
    /// `max_shard_load / (total / shards)`. Returns `1.0` for an empty
    /// window (nothing to be imbalanced about).
    pub fn imbalance(per_bucket: &[u64], map: &BucketMap) -> f64 {
        let per_shard = map.per_shard_load(per_bucket);
        let total: u64 = per_shard.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let ideal = total as f64 / map.shards() as f64;
        per_shard.iter().copied().max().unwrap_or(0) as f64 / ideal
    }

    /// The window this policy judges: `ev.window` inflated by per-shard
    /// queueing pressure under `ev.current`, then blended with the
    /// mass-normalised heavy-hitter bytes (see the module docs).
    /// `ev.loads` entries are matched to shards by their `shard` field;
    /// missing shards (or an empty slice) contribute zero pressure,
    /// and with a zero blend, no heavy hitters or an empty packet
    /// window the byte step is the identity.
    ///
    /// # Panics
    ///
    /// Panics if `ev.window` does not hold [`RSS_BUCKETS`] entries
    /// (the meters and maps are all fixed-width).
    pub fn judged_window(&self, ev: &Evidence<'_>) -> Vec<u64> {
        assert_eq!(ev.window.len(), RSS_BUCKETS, "one load per bucket");
        let cap = ev.ring_capacity.max(1) as f64;
        let mut factor = vec![1.0f64; ev.current.shards()];
        if self.pressure_weight > 0.0 {
            for load in ev.loads {
                if let Some(f) = factor.get_mut(load.shard) {
                    let occupancy = load.ring_high_water.max(load.in_flight) as f64;
                    *f = 1.0 + self.pressure_weight * (occupancy / cap).min(1.0);
                }
            }
        }
        let effective: Vec<u64> = ev
            .window
            .iter()
            .enumerate()
            .map(|(bucket, &count)| {
                (count as f64 * factor[ev.current.shard_of_bucket(bucket)]).round() as u64
            })
            .collect();

        let blend = self.heavy_blend.clamp(0.0, 1.0);
        if blend == 0.0 || ev.heavy.is_empty() {
            return effective;
        }
        let mut hh = vec![0u64; RSS_BUCKETS];
        for h in ev.heavy {
            hh[bucket_of(h.hash)] += h.weight;
        }
        let hh_total: u64 = hh.iter().sum();
        let eff_total: u64 = effective.iter().sum();
        if hh_total == 0 || eff_total == 0 {
            return effective;
        }
        let scale = eff_total as f64 / hh_total as f64;
        effective
            .iter()
            .zip(&hh)
            .map(|(&eff, &bytes)| {
                ((1.0 - blend) * eff as f64 + blend * bytes as f64 * scale).round() as u64
            })
            .collect()
    }

    /// Plans a migration from one judged window of per-bucket loads,
    /// or `None` when rebalancing is not warranted (single shard,
    /// imbalance within `max_imbalance`, no bucket would actually
    /// move, or the makespan would not drop).
    ///
    /// The plan is a deterministic greedy longest-processing-time
    /// assignment: loaded buckets are placed heaviest-first onto the
    /// least-loaded shard (current assignment wins ties, minimising
    /// churn); zero-load buckets keep their current homes so cold
    /// flows are never moved on no evidence.
    ///
    /// # Panics
    ///
    /// Panics if `window` does not hold [`RSS_BUCKETS`] entries.
    pub fn plan(&self, window: &[u64], current: &BucketMap) -> Option<RebalancePlan> {
        assert_eq!(window.len(), RSS_BUCKETS, "one load per bucket");
        let shards = current.shards();
        if shards <= 1 {
            return None;
        }
        let imbalance_before = Self::imbalance(window, current);
        if imbalance_before <= self.max_imbalance {
            return None;
        }

        // Greedy LPT over the loaded buckets, heaviest first; ties in
        // load break towards the lower bucket index so plans are
        // reproducible run to run.
        let mut order: Vec<usize> = (0..RSS_BUCKETS).filter(|&b| window[b] > 0).collect();
        order.sort_by(|&a, &b| window[b].cmp(&window[a]).then(a.cmp(&b)));

        let mut map = current.clone();
        let mut load = vec![0u64; shards];
        for &bucket in &order {
            let mut best = 0;
            for shard in 1..shards {
                if load[shard] < load[best] {
                    best = shard;
                }
            }
            // Prefer the bucket's current home on equal load: fewer
            // moved buckets, same makespan.
            let home = current.shard_of_bucket(bucket);
            if load[home] == load[best] {
                best = home;
            }
            map.set(bucket, best);
            load[best] += window[bucket];
        }

        let moved = map.moved_buckets(current);
        if moved.is_empty() {
            return None;
        }
        let total: u64 = window.iter().sum();
        let ideal = total as f64 / shards as f64;
        let imbalance_after = load.iter().copied().max().unwrap_or(0) as f64 / ideal;
        // A migration that does not lower the makespan is all cost (a
        // quiesce epoch + re-homed flows) and no benefit — LPT can tie
        // the current placement while still shuffling buckets around.
        if imbalance_after >= imbalance_before {
            return None;
        }
        Some(RebalancePlan {
            map,
            moved,
            imbalance_before,
            imbalance_after,
        })
    }
}

/// What a completed migration did — returned by
/// `ShardedPipeline::install_bucket_map` and `control_turn`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Buckets whose assignment changed.
    pub moved_buckets: usize,
    /// Frames drained from NIC rx queues and re-steered by the new
    /// table inside the quiesce window.
    pub resubmitted: usize,
    /// Frames that could not be re-steered because a worker ring was
    /// full or its worker dead (counted into that shard's `dropped`
    /// statistic as well).
    pub dropped: usize,
    /// The quiesce epoch after which the new table is live.
    pub epoch: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::decision::fixtures::{
        byte_skew, hitter, observe, packets_only, window as loads,
    };
    use crate::shard::{ControlDecision, RebalanceController, ShardLoad};

    fn gathers(policy: RebalancePolicy, ev: &Evidence<'_>) -> bool {
        matches!(
            RebalanceController::new(policy, 0).decide(ev),
            ControlDecision::Gathering
        )
    }

    #[test]
    fn balanced_windows_produce_no_plan() {
        let policy = RebalancePolicy::default();
        let current = BucketMap::identity(4);
        // Four buckets, one per shard, equal load: imbalance 1.0.
        let w = loads(&[(0, 100), (1, 100), (2, 100), (3, 100)]);
        assert!(policy.plan(&w, &current).is_none());
        assert!((RebalancePolicy::imbalance(&w, &current) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn small_windows_and_single_shard_are_ignored() {
        let policy = RebalancePolicy::default();
        let current = BucketMap::identity(4);
        let skewed = loads(&[(0, 10), (4, 10)]); // both on shard 0, but tiny
        assert!(gathers(policy, &observe(&skewed, &current)));
        let big = loads(&[(0, 1000), (4, 1000)]);
        assert!(policy.plan(&big, &BucketMap::identity(1)).is_none());
        let empty = loads(&[]);
        assert_eq!(RebalancePolicy::imbalance(&empty, &current), 1.0);
    }

    #[test]
    fn colocated_load_moves_off_the_hot_shard() {
        let policy = RebalancePolicy::default();
        let current = BucketMap::identity(4);
        // Buckets 0, 4, 8, 12 all map to shard 0 under identity:
        // an elephant (bucket 0) plus three colocated mice. Shard 0
        // carries 100% of the traffic; ideal is 25%.
        let w = loads(&[(0, 500), (4, 180), (8, 170), (12, 150)]);
        let plan = policy.plan(&w, &current).expect("skew must trigger");
        assert!(plan.imbalance_before > 3.9, "{}", plan.imbalance_before);
        // The elephant's bucket is indivisible (2x ideal), but the mice
        // spread out: makespan drops from 1000 to 500.
        assert_eq!(plan.map.per_shard_load(&w).iter().max(), Some(&500));
        assert!(plan.imbalance_after < plan.imbalance_before);
        assert!(!plan.moved.is_empty());
        // Zero-load buckets never move.
        for (bucket, &load) in w.iter().enumerate() {
            if load == 0 {
                assert_eq!(
                    plan.map.shard_of_bucket(bucket),
                    current.shard_of_bucket(bucket),
                    "cold bucket {bucket} moved"
                );
            }
        }
    }

    #[test]
    fn plans_are_deterministic_and_never_worse() {
        let policy = packets_only(1.1, 1);
        let current = BucketMap::identity(2);
        let w = loads(&[(0, 70), (2, 40), (4, 30), (1, 10)]);
        let a = policy.plan(&w, &current).expect("imbalanced");
        let b = policy.plan(&w, &current).expect("imbalanced");
        assert_eq!(a.map, b.map, "same window, same plan");
        assert!(a.imbalance_after <= a.imbalance_before);
    }

    #[test]
    fn zero_improvement_plans_are_rejected() {
        // Regression: three equal buckets, current map [0, 0, 1] —
        // imbalance 4/3 triggers an eager policy, but LPT can only
        // reproduce the same makespan while shuffling bucket 1 to the
        // other shard. Such a plan is all cost, no benefit.
        let policy = packets_only(1.25, 1);
        let mut current = BucketMap::identity(2);
        current.set(0, 0);
        current.set(1, 0);
        current.set(2, 1);
        let w = loads(&[(0, 2), (1, 2), (2, 2)]);
        assert!(
            (RebalancePolicy::imbalance(&w, &current) - 4.0 / 3.0).abs() < 1e-9,
            "precondition: above threshold"
        );
        assert!(
            policy.plan(&w, &current).is_none(),
            "a makespan tie must not cost a migration epoch"
        );
    }

    fn shard_pressure(shard: usize, hwm: usize) -> ShardLoad {
        ShardLoad {
            shard,
            ring_high_water: hwm,
            ..ShardLoad::default()
        }
    }

    #[test]
    fn zero_pressure_weight_matches_the_base_policy() {
        let policy = packets_only(1.1, 1);
        let current = BucketMap::identity(2);
        let w = loads(&[(0, 70), (2, 40), (4, 30), (1, 10)]);
        // Even under heavy reported pressure the judged window is the
        // raw window.
        let pressure = [shard_pressure(0, 1024), shard_pressure(1, 0)];
        let ev = Evidence {
            loads: &pressure,
            ..observe(&w, &current)
        };
        assert_eq!(policy.judged_window(&ev), w);
    }

    #[test]
    fn queue_pressure_lifts_an_under_threshold_skew_over_the_line() {
        // Raw packet counts: shard 0 carries 60 (buckets 0 and 2),
        // shard 1 carries 40 — imbalance 1.2, under the 1.25
        // threshold, so packet counts alone hold forever.
        let current = BucketMap::identity(2);
        let w = loads(&[(0, 40), (2, 20), (1, 40)]);
        let base = packets_only(1.25, 32);
        assert!(base.plan(&w, &current).is_none(), "1.2 < 1.25: no plan");

        // But shard 0's ring rides its capacity while shard 1 idles:
        // per-packet, shard 0's buckets hurt twice as much. Judged
        // window [80, 40, 40] → imbalance 1.5 → the mice (bucket 2)
        // move off the drowning shard.
        let policy = RebalancePolicy {
            pressure_weight: 1.0,
            ..base
        };
        let pressure = [shard_pressure(0, 1024), shard_pressure(1, 2)];
        let judged = policy.judged_window(&Evidence {
            loads: &pressure,
            ..observe(&w, &current)
        });
        let plan = policy
            .plan(&judged, &current)
            .expect("pressure must tip the decision");
        assert!(plan.imbalance_before > 1.25, "{}", plan.imbalance_before);
        assert!(plan.imbalance_after < plan.imbalance_before);
        assert_eq!(plan.moved, vec![2], "the colocated bucket migrates");
        assert_eq!(plan.map.shard_of_bucket(2), 1);
    }

    #[test]
    fn pressure_never_conjures_evidence_from_an_idle_window() {
        // min_samples gates on RAW counts: a tiny window stays a tiny
        // window no matter how hard the rings are reported to back up.
        let policy = RebalancePolicy {
            pressure_weight: 1.0,
            ..RebalancePolicy::default() // min_samples 64
        };
        let current = BucketMap::identity(2);
        let w = loads(&[(0, 10), (2, 10)]);
        let pressure = [shard_pressure(0, 4096), shard_pressure(1, 0)];
        let backed_up = Evidence {
            loads: &pressure,
            ring_capacity: 64,
            ..observe(&w, &current)
        };
        assert!(gathers(policy, &backed_up));
        // Missing / short pressure slices degrade to factor 1.0.
        let big = loads(&[(0, 500), (2, 300), (1, 100)]);
        assert_eq!(policy.judged_window(&observe(&big, &current)), big);
    }

    #[test]
    fn zero_blend_reproduces_the_weighted_policy() {
        let policy = RebalancePolicy {
            pressure_weight: 1.0,
            ..packets_only(1.1, 1)
        };
        let current = BucketMap::identity(2);
        let w = loads(&[(0, 70), (2, 40), (4, 30), (1, 10)]);
        let pressure = [shard_pressure(0, 512), shard_pressure(1, 16)];
        let quiet = Evidence {
            loads: &pressure,
            ..observe(&w, &current)
        };
        // Even with loud byte evidence, blend 0 ignores it entirely.
        let loud = Evidence {
            heavy: &[hitter(1, 1_000_000)],
            ..quiet
        };
        assert_eq!(policy.judged_window(&loud), policy.judged_window(&quiet));
    }

    #[test]
    fn byte_evidence_migrates_a_packet_balanced_window() {
        let current = BucketMap::identity(2);
        let (w, bytes) = byte_skew();
        let base = packets_only(1.25, 32);
        assert!(
            base.plan(&w, &current).is_none(),
            "uniform packets: the packet-only policy must hold"
        );

        let hh = RebalancePolicy {
            heavy_blend: 1.0,
            ..base
        };
        let blended = hh.judged_window(&Evidence {
            heavy: &bytes,
            ..observe(&w, &current)
        });
        let shard_bytes = current.per_shard_load(&blended);
        assert!(
            shard_bytes[0] > 3 * shard_bytes[1],
            "blended window must surface the byte skew: {shard_bytes:?}"
        );
        let plan = hh
            .plan(&blended, &current)
            .expect("byte evidence must trigger a plan");
        assert!(plan.imbalance_after < plan.imbalance_before);
        // LPT pairs each elephant with mice: perfect 50/50 in bytes.
        let after = plan.map.per_shard_load(&blended);
        assert_eq!(after[0], after[1], "{after:?}");
    }

    #[test]
    fn empty_or_zero_evidence_degrades_to_the_base_window() {
        let hh = RebalancePolicy {
            heavy_blend: 0.8,
            ..RebalancePolicy::default()
        };
        let current = BucketMap::identity(2);
        let w = loads(&[(0, 500), (2, 300), (1, 100)]);
        assert_eq!(hh.judged_window(&observe(&w, &current)), w);
        let weightless = Evidence {
            heavy: &[hitter(3, 0)],
            ..observe(&w, &current)
        };
        assert_eq!(hh.judged_window(&weightless), w);
        // The min_samples gate still judges raw packets: byte evidence
        // cannot conjure a plan out of an idle dataplane.
        let idle = loads(&[(0, 10), (2, 10)]);
        let loud = Evidence {
            heavy: &[hitter(0, 1_000_000)],
            ..observe(&idle, &current)
        };
        assert!(gathers(hh, &loud));
    }

    #[test]
    fn hysteresis_respects_threshold() {
        // 60/40 over 2 shards: imbalance 1.2 — below a 1.25 threshold,
        // above a 1.1 one.
        let current = BucketMap::identity(2);
        let w = loads(&[(0, 60), (1, 40)]);
        assert!(RebalancePolicy::default().plan(&w, &current).is_none());
        // Triggered, but a single indivisible bucket per shard cannot
        // improve: LPT reproduces a 60/40 split and the 60-bucket's
        // home pins it (no move -> no plan).
        assert!(packets_only(1.1, 1).plan(&w, &current).is_none());
    }
}
