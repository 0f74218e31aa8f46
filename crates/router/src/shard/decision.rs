//! The decision core: the *decide* arm of the control loop as one
//! three-stage pipeline over the evidence.
//!
//! ```text
//! window ── smooth(alpha) ──▶ judged_window ── arm(enter, exit, arm_ticks) ──▶ plan(band = enter)
//! ```
//!
//! * **smooth** folds each raw packet window into a per-bucket
//!   exponentially-weighted moving average, so the judgment follows
//!   the trend and a one-window blip moves it by only `alpha`;
//! * [`RebalancePolicy::judged_window`] weighs what comes out by ring
//!   pressure and the heavy-hitter byte blend — properties of the
//!   policy, the same for every setting of the stages;
//! * **arm** demands `arm_ticks` consecutive windows above `enter`
//!   before anything is planned, and one window under `exit` disarms
//!   it, so a flapping elephant never costs a quiesce epoch;
//! * [`RebalancePolicy::plan`] then runs with `enter` as its
//!   threshold.
//!
//! Each stage has an identity setting — `alpha` 1, `arm_ticks` 1, a
//! zero-width band at the policy's `max_imbalance` — and with all three
//! at identity the core *is* `policy.plan(policy.judged_window(ev))`. A
//! pipeline description's control section (see [`crate::desc`]) selects
//! one of three named [`PRESETS`], each of which opens some stages to
//! its knobs and pins the rest at identity: `"weighted"` (the default)
//! opens none, `"hysteresis"` the band, `"ewma"` the smoothing.
//!
//! The [`RebalanceController`](super::RebalanceController) keeps the
//! loop mechanics around the core (the gathering gate, the
//! migration-rate cap) and guarantees one [`DecisionCore::plan`] call
//! per judged tick, in tick order. The core is **deterministic**: same
//! evidence sequence, same plans — the simulator drives it from its
//! event loop and the differential tests replay it bit-for-bit.

use netkit_packet::sketch::HeavyHitter;
use netkit_packet::steer::{BucketMap, RSS_BUCKETS};

use super::rebalance::{RebalancePlan, RebalancePolicy};
use super::ShardLoad;

/// One observation the control loop presents to the core: everything
/// the dataplane can tell it about the judged window.
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
    /// Shard queue capacity (pressure normalisation).
    pub ring_capacity: usize,
    /// The live bucket → shard table.
    pub current: &'a BucketMap,
}

/// The named presets a description's `control <name>` selects from,
/// each with the stage knobs it reads; a stage whose knobs a preset
/// does not read runs at identity.
pub const PRESETS: &[(&str, &[&str])] = &[
    ("weighted", &[]),
    ("hysteresis", &["enter", "exit", "arm"]),
    ("ewma", &["alpha"]),
];

/// The *decide* arm of the reflective control loop: turns one
/// [`Evidence`] observation into a migration plan, or `None` to hold.
/// See the module docs for the stages.
#[derive(Clone, Debug)]
pub struct DecisionCore {
    preset: &'static str,
    policy: RebalancePolicy,
    /// Weight of the newest window in the moving average, in `[0, 1]`.
    alpha: f64,
    /// Arm while judged imbalance exceeds this; the planning threshold
    /// once armed.
    enter: f64,
    /// Disarm once imbalance falls below this (≤ `enter`; windows
    /// inside `[exit, enter]` keep the streak but do not extend it).
    exit: f64,
    /// Consecutive over-`enter` windows required before planning.
    arm_ticks: u32,
    smoothed: Vec<f64>,
    streak: u32,
}

impl DecisionCore {
    /// The `"weighted"` preset: every stage at identity, so the core
    /// plans on each judged window that crosses `policy`'s threshold.
    pub fn weighted(policy: RebalancePolicy) -> Self {
        Self {
            preset: "weighted",
            policy,
            alpha: 1.0,
            enter: policy.max_imbalance,
            exit: policy.max_imbalance,
            arm_ticks: 1,
            smoothed: Vec::new(),
            streak: 0,
        }
    }

    /// The preset this core was built from.
    pub fn name(&self) -> &'static str {
        self.preset
    }

    /// The policy the core judges with. The controller reads its
    /// `min_samples` (the gathering gate) and the pipeline its `decay`
    /// and `heavy_blend`.
    pub fn policy(&self) -> &RebalancePolicy {
        &self.policy
    }

    /// Judges one observation through the three stages. The moving
    /// average and the arming streak advance here, so the caller makes
    /// one call per judged tick, in tick order.
    ///
    /// # Panics
    ///
    /// Panics if `ev.window` does not hold [`RSS_BUCKETS`] entries.
    pub fn plan(&mut self, ev: &Evidence<'_>) -> Option<RebalancePlan> {
        // Smooth the raw packet window, then weigh it like any other.
        // `alpha` 1 keeps the integers as they are.
        let judged = if self.alpha < 1.0 {
            assert_eq!(ev.window.len(), RSS_BUCKETS, "one load per bucket");
            self.smoothed.resize(RSS_BUCKETS, 0.0);
            for (s, &w) in self.smoothed.iter_mut().zip(ev.window) {
                *s = self.alpha * w as f64 + (1.0 - self.alpha) * *s;
            }
            let smoothed: Vec<u64> = self.smoothed.iter().map(|&s| s.round() as u64).collect();
            self.policy.judged_window(&Evidence {
                window: &smoothed,
                ..*ev
            })
        } else {
            self.policy.judged_window(ev)
        };

        let imbalance = RebalancePolicy::imbalance(&judged, ev.current);
        if imbalance > self.enter {
            self.streak = self.streak.saturating_add(1);
        } else if imbalance < self.exit {
            self.streak = 0;
        }
        if self.streak < self.arm_ticks {
            return None;
        }
        // Armed: the band's upper edge is the planning threshold, so
        // the band is the single source of truth.
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

/// Builds the core the preset `name` makes of `policy` — the hook a
/// pipeline description's control section resolves through. The stage
/// knobs [`PRESETS`] lists for the preset are taken from the arguments
/// (clamped into range); the other stages stay at identity whatever
/// was passed.
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
) -> opencom::error::Result<DecisionCore> {
    let Some(&(preset, reads)) = PRESETS.iter().find(|(known, _)| *known == name) else {
        let known: Vec<_> = PRESETS.iter().map(|(known, _)| *known).collect();
        return Err(opencom::error::Error::StaleReference {
            what: format!("decision core `{name}` (known: {})", known.join(", ")),
        });
    };
    let mut core = DecisionCore::weighted(policy);
    core.preset = preset;
    if reads.contains(&"alpha") {
        core.alpha = alpha.clamp(0.0, 1.0);
    }
    if reads.contains(&"enter") {
        core.enter = enter.max(1.0);
        core.exit = exit.clamp(1.0, core.enter);
        core.arm_ticks = arm.max(1);
    }
    Ok(core)
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
    use super::fixtures::{byte_skew, hitter, observe as ev, packets_only, window};
    use super::*;
    use crate::desc::schema::compile_control;
    use crate::desc::{ControlDesc, ParamValue};
    use crate::shard::{ControlDecision, RebalanceController};
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn eager() -> RebalancePolicy {
        packets_only(1.25, 1)
    }

    fn hysteresis(policy: RebalancePolicy, enter: f64, exit: f64, arm: u32) -> DecisionCore {
        core_by_name("hysteresis", policy, enter, exit, arm, 1.0).unwrap()
    }

    fn ewma(policy: RebalancePolicy, alpha: f64) -> DecisionCore {
        core_by_name("ewma", policy, policy.max_imbalance, 1.0, 1, alpha).unwrap()
    }

    #[test]
    fn weighted_core_matches_the_raw_policy() {
        let map = BucketMap::identity(2);
        let w = window(&[(0, 90), (2, 60), (1, 30)]);
        let mut core = DecisionCore::weighted(eager());
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
        let mut core = hysteresis(eager(), 1.25, 1.1, 3);

        // Two over-threshold windows: still armed-but-waiting.
        assert!(core.plan(&ev(&skew, &map)).is_none());
        assert!(core.plan(&ev(&skew, &map)).is_none());
        assert_eq!(core.streak, 2);
        // A balanced window disarms the streak entirely...
        assert!(core.plan(&ev(&balanced, &map)).is_none());
        assert_eq!(core.streak, 0);
        // ...so the skew must persist for three fresh windows.
        assert!(core.plan(&ev(&skew, &map)).is_none());
        assert!(core.plan(&ev(&skew, &map)).is_none());
        let plan = core.plan(&ev(&skew, &map)).expect("armed after 3");
        assert!(plan.imbalance_after < plan.imbalance_before);
        assert_eq!(core.streak, 0, "an applied plan resets the streak");
    }

    #[test]
    fn ewma_damps_a_blip_but_follows_a_trend() {
        let map = BucketMap::identity(2);
        let skew = window(&[(0, 900), (2, 600), (1, 300)]);
        let quiet = window(&[(0, 1), (1, 1)]);
        let mut core = ewma(eager(), 0.3);

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
        let mut unsmoothed = ewma(eager(), 1.0);
        let mut weighted = DecisionCore::weighted(eager());
        let a = unsmoothed.plan(&ev(&w, &map)).expect("plans");
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
            let expected = DecisionCore::weighted(policy)
                .plan(&evidence)
                .map(|p| p.map);
            assert_eq!(expected.is_some(), blend > 0.0);
            let mut armed = hysteresis(policy, 1.25, 1.1, 1);
            assert_eq!(armed.plan(&evidence).map(|p| p.map), expected, "hysteresis");
            let mut unsmoothed = ewma(policy, 1.0);
            assert_eq!(unsmoothed.plan(&evidence).map(|p| p.map), expected, "ewma");
        }
    }

    /// The controller a description's `control <core> {knobs}` section
    /// compiles to.
    fn compiled(core: &str, knobs: &[(&str, ParamValue)]) -> RebalanceController {
        compile_control(&ControlDesc {
            core: core.into(),
            params: (knobs.iter())
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        })
        .expect("the preset compiles")
    }

    /// Drives one compiled preset over one seeded 288-window
    /// closed-loop trace on four shards — 96 windows of steady skew
    /// with backed-up rings, 96 of an elephant that flaps on and off
    /// with byte evidence, 96 of a ramp — installing every plan it
    /// returns, and reports each migrating tick with a fingerprint of
    /// the planned table.
    fn preset_trace(core: &str, knobs: &[(&str, ParamValue)]) -> Vec<(usize, u64)> {
        let shared = [
            ("max_imbalance", ParamValue::Float(1.2)),
            ("pressure_weight", ParamValue::Float(0.5)),
            ("heavy_blend", ParamValue::Float(0.4)),
            ("cooldown_ticks", ParamValue::Int(1)),
        ];
        let mut ctl = compiled(core, &[&shared[..], knobs].concat());
        let mut seed = 0x5eed_2003_u64;
        let mut noise = move || {
            // SplitMix64.
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (seed ^ (seed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut map = BucketMap::identity(4);
        let mut migrations = Vec::new();
        for tick in 0..288 {
            let mut w: Vec<u64> = (0..RSS_BUCKETS)
                .map(|b| if b < 64 { 20 + noise() % 40 } else { 0 })
                .collect();
            let mut heavy = Vec::new();
            let mut loads = Vec::new();
            match tick / 96 {
                0 => {
                    // Steady skew: four hot buckets that start on shard 0.
                    for b in [0, 4, 8, 12] {
                        w[b] += 50;
                    }
                    loads = (map.per_shard_load(&w).iter().enumerate())
                        .map(|(shard, &load)| ShardLoad {
                            shard,
                            ring_high_water: load.saturating_sub(600).min(1024) as usize,
                            ..ShardLoad::default()
                        })
                        .collect();
                }
                1 => {
                    // A flapping elephant: two windows on, ten off,
                    // its bytes in the sketch while it is on.
                    if tick % 12 < 2 {
                        w[17] += 900;
                        heavy.push(hitter(17, 900 * 1_400));
                    }
                    heavy.extend((0..8).map(|b| hitter(b, 40 * 90 + noise() % 500)));
                }
                _ => {
                    // A ramp on three buckets of one shard.
                    for b in [1, 5, 9] {
                        w[b] += (tick as u64 - 192) * 6;
                    }
                }
            }
            let evidence = Evidence {
                window: &w,
                loads: &loads,
                heavy: &heavy,
                ring_capacity: 1024,
                current: &map,
            };
            if let ControlDecision::Migrate(plan) = ctl.decide(&evidence) {
                let fingerprint = (0..RSS_BUCKETS).fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                    (h ^ plan.map.shard_of_bucket(b) as u64).wrapping_mul(0x0100_0000_01b3)
                });
                migrations.push((tick, fingerprint));
                map = plan.map;
            }
        }
        migrations
    }

    #[test]
    fn preset_traces_are_pinned() {
        for (core, knobs, expected) in [
            ("weighted", &[][..], WEIGHTED_TRACE),
            (
                "hysteresis",
                &[
                    ("enter", ParamValue::Float(1.3)),
                    ("exit", ParamValue::Float(1.1)),
                    ("arm", ParamValue::Int(3)),
                ][..],
                HYSTERESIS_TRACE,
            ),
            ("ewma", &[("alpha", ParamValue::Float(0.3))][..], EWMA_TRACE),
        ] {
            assert_eq!(preset_trace(core, knobs), expected, "{core}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The reduction the presets rest on: with every stage at its
        /// identity (alpha 1, arm 1, a zero-width band at
        /// `max_imbalance`) each of them is the bare policy.
        #[test]
        fn identity_stages_reduce_every_preset_to_the_policy(
            shards in 2usize..=4,
            max_imbalance in 1.0f64..1.6,
            blend in 0u32..=2,
            windows in vec(vec((0usize..RSS_BUCKETS, 1u64..2_000), 1..24), 1..6),
            bytes in vec((0usize..RSS_BUCKETS, 1u64..100_000), 0..6),
        ) {
            let band = ParamValue::Float(max_imbalance);
            let preset = |core, stages: &[(&str, ParamValue)]| {
                let shared = [
                    ("max_imbalance", band.clone()),
                    ("min_samples", ParamValue::Int(1)),
                    ("heavy_blend", ParamValue::Float(f64::from(blend) / 2.0)),
                ];
                compiled(core, &[&shared[..], stages].concat())
            };
            let mut presets = [
                preset("weighted", &[]),
                preset("ewma", &[("alpha", ParamValue::Float(1.0))]),
                preset(
                    "hysteresis",
                    &[("enter", band.clone()), ("exit", band.clone()), ("arm", ParamValue::Int(1))],
                ),
            ];
            let policy = *presets[0].policy();
            let heavy: Vec<_> = bytes.iter().map(|&(b, weight)| hitter(b, weight)).collect();
            let loads = [ShardLoad {
                shard: 0,
                ring_high_water: 512,
                ..ShardLoad::default()
            }];
            let mut map = BucketMap::identity(shards);
            for entries in &windows {
                let w = window(entries);
                let evidence = Evidence {
                    loads: &loads,
                    heavy: &heavy,
                    ..ev(&w, &map)
                };
                let expected = policy.plan(&policy.judged_window(&evidence), &map).map(|p| p.map);
                for ctl in &mut presets {
                    let planned = match ctl.decide(&evidence) {
                        ControlDecision::Migrate(plan) => Some(plan.map),
                        _ => None,
                    };
                    prop_assert_eq!(&planned, &expected, "{}", ctl.core_name());
                }
                if let Some(next) = expected {
                    map = next;
                }
            }
        }
    }

    const WEIGHTED_TRACE: &[(usize, u64)] = &[
        (0, 0x89c3_6a10_8cbc_eaf1),
        (18, 0x6299_5068_e3f3_841d),
        (43, 0xb0a3_80a5_4e44_b54b),
        (96, 0xdf0e_e0d7_b76e_d24f),
        (98, 0x672e_c9c3_2cc5_a775),
        (108, 0xbda2_3f81_ffd8_f125),
        (110, 0x9003_0444_e1e6_5a45),
        (120, 0x7a50_3e32_d577_5805),
        (122, 0x3c6a_4c34_a18b_5b21),
        (132, 0x52c7_95c6_46ec_9f23),
        (134, 0x580f_6979_6194_779f),
        (144, 0xd2bf_3b5a_7218_2c5f),
        (146, 0xcc35_7e5a_df36_bdb5),
        (156, 0x4b88_2e73_f7fa_ad41),
        (158, 0x55f6_2853_d7a4_66c9),
        (168, 0x3cd9_6ba0_4ecc_8fc7),
        (170, 0x6c5d_2341_da11_d24d),
        (180, 0xcdbb_740b_510c_5a29),
        (182, 0x84a6_06b2_e458_38f5),
        (210, 0x5c4f_058d_1983_be17),
        (253, 0xb2f7_1966_8b4f_bcb4),
    ];
    const HYSTERESIS_TRACE: &[(usize, u64)] =
        &[(4, 0x7e0c_a96e_5b15_0487), (105, 0x6db3_ccca_030f_7c4f)];
    const EWMA_TRACE: &[(usize, u64)] = &[
        (0, 0x8010_7fa4_ab00_6907),
        (96, 0x3679_cd5d_9be4_e0ef),
        (98, 0xc31c_4cda_907f_1865),
        (108, 0xf0d5_7407_4687_3b4d),
        (110, 0xa4a1_8432_ca74_15e7),
        (120, 0x5e57_02c8_ead3_0d25),
        (122, 0xabf0_c216_89c4_c6d3),
        (132, 0x8e21_89df_2af5_d6ab),
        (134, 0xd247_a940_3536_fdd5),
        (144, 0x4954_c4a5_918b_ba8f),
        (146, 0x73fe_0540_d090_55f1),
        (156, 0x4193_e67c_3b9c_be7b),
        (158, 0xa004_e5bd_b06d_017f),
        (168, 0xeb1a_9c32_65d2_3f3d),
        (170, 0xf8b9_b129_c6d9_a1d5),
        (180, 0x6eb8_1da7_227b_97af),
        (182, 0x35e1_1c46_991a_9013),
        (268, 0xc9cb_05f9_5587_d26f),
    ];

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
