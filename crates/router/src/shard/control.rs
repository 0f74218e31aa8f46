//! The autonomous reflective control loop: inspect → decide → adapt
//! with **no external caller**.
//!
//! PR 4's rebalancing subsystem shipped the three arms of the paper's
//! reflective loop — meters to *inspect*, a policy to *decide*, a
//! quiesced migration to *adapt* — but left the loop open: something
//! outside the system had to call `ShardedPipeline::rebalance`. This
//! module closes it. Two layers, deliberately separated:
//!
//! * [`RebalanceController`] — the **deterministic decision core**: a
//!   pure state machine over (observation window, shard pressure,
//!   current table) that owns the control-loop *policy* concerns the
//!   rebalance policy itself does not: evidence retention across
//!   declined decisions (windows are peeked and decayed, never
//!   drained — see `BucketLoad`), and a hard cap on migration rate
//!   (`cooldown_ticks` between applied plans, so a pathological
//!   workload cannot thrash the dataplane through quiesce epochs). It
//!   has no threads and no clock — the deterministic simulator drives
//!   the *same* controller from its event loop (see
//!   `netkit_sim::pipeline::PipelineNode::with_controller`), which is
//!   what makes autonomous-rebalancing experiments reproducible.
//! * [`ControlLoop`] — the **threaded supervisor**: a
//!   `netkit_kernel::task::PeriodicTask` ticking
//!   [`ShardedPipeline::control_turn`] against a live pipeline, with
//!   tick-interval backoff after no-op turns (an idle control loop
//!   goes quiet) and instant re-arming on a migration. The loop is a
//!   first-class citizen of the resources meta-model: it runs as its
//!   own task on the pipeline's `ResourceManager`, consuming
//!   `classes::TICKS` per turn, while each applied migration counts
//!   into the pipeline task's `classes::REBALANCES` as before —
//!   introspection sees both how often the system looks and how often
//!   it acts.
//!
//! The decision core, runnable (this is the whole contract —
//! `Gathering` accumulates, `Hold` decays, `Migrate` commits):
//!
//! ```
//! use netkit_packet::steer::{BucketMap, RSS_BUCKETS};
//! use netkit_router::shard::control::{ControlDecision, RebalanceController};
//! use netkit_router::shard::{RebalancePolicy, WeightedRebalancePolicy};
//!
//! let policy = WeightedRebalancePolicy {
//!     base: RebalancePolicy { max_imbalance: 1.25, min_samples: 64 },
//!     pressure_weight: 0.0,
//!     decay: 0.5,
//! };
//! let mut ctl = RebalanceController::new(policy, 0);
//! let map = BucketMap::identity(2);
//!
//! // Not enough evidence yet: the window keeps accumulating.
//! let mut window = vec![0u64; RSS_BUCKETS];
//! window[0] = 10;
//! assert!(matches!(ctl.decide(&window, &[], 1024, &map), ControlDecision::Gathering));
//!
//! // A judged window with everything colocated on shard 0 migrates.
//! window[0] = 90;
//! window[2] = 60; // bucket 2 -> shard 0 under identity(2)
//! match ctl.decide(&window, &[], 1024, &map) {
//!     ControlDecision::Migrate(plan) => {
//!         assert_eq!(plan.moved, vec![2]);
//!         assert_eq!(plan.map.shard_of_bucket(2), 1);
//!     }
//!     other => panic!("colocation must migrate, got {other:?}"),
//! }
//! assert_eq!(ctl.migrations(), 1);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use netkit_kernel::nic::Nic;
use netkit_kernel::task::{PeriodicSpec, PeriodicTask, TickOutcome};
use netkit_packet::steer::BucketMap;
use opencom::error::Result;
use opencom::ident::TaskId;
use opencom::meta::resources::{classes, ResourceManager};
use parking_lot::Mutex;

use netkit_packet::sketch::HeavyHitter;

use super::decision::{DecisionCore, Evidence, WeightedCore};
use super::rebalance::{RebalancePlan, WeightedRebalancePolicy};
use super::{ShardLoad, ShardedPipeline};

/// What one control turn concluded about the observation window.
#[derive(Clone, Debug)]
pub enum ControlDecision {
    /// Below `min_samples`: no judgment was made. The caller must
    /// leave the window untouched so evidence keeps accumulating.
    Gathering,
    /// The window was judged and declined (balanced, no improving
    /// plan, or the migration-rate cap is in force). The caller should
    /// age the window with the policy's `decay` — retained, not
    /// discarded.
    Hold,
    /// Apply this plan, then retire the judged window.
    Migrate(RebalancePlan),
}

/// The deterministic decision core of the autonomous control loop. See
/// the module docs for where it sits and a runnable example.
pub struct RebalanceController {
    core: Box<dyn DecisionCore>,
    /// Minimum number of ticks between two applied migrations — the
    /// hard cap on migration rate (each migration costs a quiesce
    /// epoch; 0 = no cap).
    cooldown_ticks: u64,
    heavy_blend: f64,
    ticks: u64,
    migrations: u64,
    holds: u64,
    last_migration_tick: Option<u64>,
    noop_streak: u64,
}

impl RebalanceController {
    /// A controller judging with the default [`WeightedCore`] over
    /// `policy`, applying at most one migration per
    /// `cooldown_ticks + 1` ticks.
    pub fn new(policy: WeightedRebalancePolicy, cooldown_ticks: u64) -> Self {
        Self::with_core(Box::new(WeightedCore::new(policy)), cooldown_ticks)
    }

    /// A controller judging with an arbitrary plug-in
    /// [`DecisionCore`] — how descriptions select hysteresis/EWMA (or
    /// external) judgments by name; see
    /// [`core_by_name`](super::decision::core_by_name).
    pub fn with_core(core: Box<dyn DecisionCore>, cooldown_ticks: u64) -> Self {
        Self {
            core,
            cooldown_ticks,
            heavy_blend: 0.0,
            ticks: 0,
            migrations: 0,
            holds: 0,
            last_migration_tick: None,
            noop_streak: 0,
        }
    }

    /// Folds sketch-based heavy-hitter byte evidence into every
    /// judgment that receives it (see
    /// [`decide_with_evidence`](Self::decide_with_evidence) and
    /// `HeavyHitterPolicy`). `blend` is clamped to
    /// `[0, 1]`; `0.0` (the default) ignores the evidence entirely.
    pub fn with_heavy_hitters(mut self, blend: f64) -> Self {
        self.heavy_blend = blend.clamp(0.0, 1.0);
        self
    }

    /// The registry name of the judging core (`"weighted"` unless a
    /// plug-in was installed via [`with_core`](Self::with_core)).
    pub fn core_name(&self) -> &'static str {
        self.core.name()
    }

    /// The core's judged-window retention factor (the caller needs it
    /// to apply [`ControlDecision::Hold`]).
    pub fn decay(&self) -> f64 {
        self.core.decay()
    }

    /// The core's gathering gate: minimum raw packets in a window
    /// before any judgment is made.
    pub fn min_samples(&self) -> u64 {
        self.core.min_samples()
    }

    /// The heavy-hitter byte-evidence blend factor in `[0, 1]`.
    pub fn heavy_blend(&self) -> f64 {
        self.heavy_blend
    }

    /// One inspect → decide turn. `window` is a **peeked** (not
    /// drained) per-bucket snapshot; `loads` the per-shard pressure
    /// meters (empty ⇒ no pressure weighting, as the deterministic sim
    /// passes); `current` the live table. The caller owns the adapt
    /// arm: apply the returned decision to its steering surface (see
    /// [`ControlDecision`] for the window obligation each variant
    /// carries — `ShardedPipeline::control_turn` is the reference
    /// implementation).
    pub fn decide(
        &mut self,
        window: &[u64],
        loads: &[ShardLoad],
        ring_capacity: usize,
        current: &BucketMap,
    ) -> ControlDecision {
        self.decide_with_evidence(window, loads, &[], ring_capacity, current)
    }

    /// [`decide`](Self::decide), additionally weighing `heavy` —
    /// merged per-flow byte evidence from the dataplane's flow
    /// sketches (see `netkit_packet::sketch::SpaceSaving::merge`).
    /// With a zero [`heavy_blend`](Self::heavy_blend) or no evidence
    /// this is exactly `decide`; otherwise the judged window is the
    /// mass-normalised packet/byte blend of
    /// `HeavyHitterPolicy`, which catches **byte**
    /// elephants that uniform packet counts provably hide. The
    /// gathering gate and cooldown cap always judge raw packets.
    pub fn decide_with_evidence(
        &mut self,
        window: &[u64],
        loads: &[ShardLoad],
        heavy: &[HeavyHitter],
        ring_capacity: usize,
        current: &BucketMap,
    ) -> ControlDecision {
        self.ticks += 1;
        let raw_total: u64 = window.iter().sum();
        if raw_total < self.core.min_samples().max(1) {
            self.noop_streak += 1;
            return ControlDecision::Gathering;
        }
        if let Some(last) = self.last_migration_tick {
            if self.ticks.saturating_sub(last) <= self.cooldown_ticks {
                // Rate cap: judged but deliberately not acted on. The
                // window still decays — the cap exists to *shed*
                // pressure to re-migrate, not to queue it up.
                self.holds += 1;
                self.noop_streak += 1;
                return ControlDecision::Hold;
            }
        }
        let plan = self.core.plan(&Evidence {
            window,
            loads,
            heavy,
            heavy_blend: self.heavy_blend,
            ring_capacity,
            current,
        });
        match plan {
            Some(plan) => {
                self.migrations += 1;
                self.last_migration_tick = Some(self.ticks);
                self.noop_streak = 0;
                ControlDecision::Migrate(plan)
            }
            None => {
                self.holds += 1;
                self.noop_streak += 1;
                ControlDecision::Hold
            }
        }
    }

    /// Turns taken so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Migrations decided (== plans returned via
    /// [`ControlDecision::Migrate`]).
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Judged-but-declined turns (balanced windows, no-improvement
    /// plans, and rate-capped turns).
    pub fn holds(&self) -> u64 {
        self.holds
    }

    /// Consecutive turns since the last migration decision. Pure
    /// introspection: the threaded [`ControlLoop`] derives its backoff
    /// from per-tick outcomes (`PeriodicTask`), not from this counter;
    /// an embedder driving the controller on its own cadence (the sim,
    /// a custom executor task) can read it to implement the same
    /// go-quiet-while-idle behaviour.
    pub fn noop_streak(&self) -> u64 {
        self.noop_streak
    }
}

impl fmt::Debug for RebalanceController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RebalanceController({} core, {} ticks, {} migrations, {} holds)",
            self.core.name(),
            self.ticks,
            self.migrations,
            self.holds
        )
    }
}

/// Configuration of the threaded [`ControlLoop`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ControlConfig {
    /// The weighted decision policy (thresholds, pressure weighting,
    /// window decay).
    pub policy: WeightedRebalancePolicy,
    /// Base tick interval while the loop is making progress.
    pub tick: Duration,
    /// Cap the backed-off interval saturates at after no-op turns.
    pub max_tick: Duration,
    /// Interval multiplier per no-op turn (≥ 1.0; see
    /// `netkit_kernel::task::PeriodicSpec`).
    pub backoff: f64,
    /// Hard cap on migration rate: minimum ticks between two applied
    /// migrations.
    pub cooldown_ticks: u64,
    /// Heavy-hitter byte-evidence blend in `[0, 1]` (see
    /// [`RebalanceController::with_heavy_hitters`]). `0.0` — the
    /// default — judges on packet counts alone; `> 0.0` folds the
    /// pipeline's merged flow-sketch top-k into every judgment.
    pub heavy_blend: f64,
}

impl Default for ControlConfig {
    fn default() -> Self {
        Self {
            policy: WeightedRebalancePolicy::default(),
            tick: Duration::from_millis(10),
            max_tick: Duration::from_millis(200),
            backoff: 2.0,
            cooldown_ticks: 4,
            heavy_blend: 0.0,
        }
    }
}

/// Counters of a (running or stopped) [`ControlLoop`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// Loop ticks fired.
    pub ticks: u64,
    /// Migrations applied by the loop.
    pub migrations: u64,
    /// Judged-but-declined turns.
    pub holds: u64,
    /// Tick panics survived (supervision).
    pub panics: u64,
    /// Fault recoveries driven by the loop's health turn: dead-shard
    /// episodes it quarantined, respawned, and restored (see
    /// [`ShardedPipeline::health_turn`]).
    pub recoveries: u64,
    /// The interval the next tick will wait (backoff state).
    pub current_interval: Duration,
}

/// The supervised background task that runs the reflective loop
/// against a live [`ShardedPipeline`] — spawn it and the dataplane
/// adapts to traffic shifts on its own. See the module docs.
///
/// The loop assumes it is the pipeline's **only** window consumer: do
/// not mix it with manual `rebalance()` polling on the same pipeline.
pub struct ControlLoop {
    task: PeriodicTask,
    controller: Arc<Mutex<RebalanceController>>,
    recoveries: Arc<AtomicU64>,
    rm: Arc<ResourceManager>,
    rm_task: TaskId,
}

impl ControlLoop {
    /// Spawns the loop as resources task `name` on `rm` (one
    /// `classes::TICKS` unit is consumed per turn; migrations count
    /// into the pipeline task's `classes::REBALANCES` as always).
    /// `nics` are the NIC mirrors every applied migration must cover —
    /// the same slice a manual `rebalance()` caller would pass.
    ///
    /// # Errors
    ///
    /// Propagates a duplicate task `name`.
    pub fn spawn(
        name: &str,
        pipe: Arc<ShardedPipeline>,
        nics: Vec<Arc<Nic>>,
        cfg: ControlConfig,
        rm: Arc<ResourceManager>,
    ) -> Result<Self> {
        let rm_task = rm.create_task(name)?;
        let controller = Arc::new(Mutex::new(
            RebalanceController::new(cfg.policy, cfg.cooldown_ticks)
                .with_heavy_hitters(cfg.heavy_blend),
        ));
        let tick_ctl = Arc::clone(&controller);
        let tick_rm = Arc::clone(&rm);
        let recoveries = Arc::new(AtomicU64::new(0));
        let tick_recoveries = Arc::clone(&recoveries);
        let spec = PeriodicSpec::every(cfg.tick).with_backoff(cfg.backoff, cfg.max_tick);
        let task = PeriodicTask::spawn(name, spec, move || {
            let _ = tick_rm.consume(rm_task, classes::TICKS, 1);
            let nic_refs: Vec<&Nic> = nics.iter().map(Arc::as_ref).collect();
            // Health before balance: a dead shard makes every load
            // judgment moot (its buckets drain nowhere), so the turn
            // first quarantines/respawns/restores, then rebalances.
            let healed = match pipe.health_turn(&nic_refs) {
                Ok(Some(recovery)) => {
                    if !recovery.respawned.is_empty() {
                        tick_recoveries.fetch_add(1, Ordering::Relaxed);
                    }
                    true
                }
                Ok(None) => false,
                // Factory failure: the shard stays dead, quarantine
                // re-steering keeps traffic flowing, and the next turn
                // retries. Count it as progress so backoff resets and
                // the retry comes soon.
                Err(_) => true,
            };
            let mut ctl = tick_ctl.lock();
            match pipe.control_turn(&mut ctl, &nic_refs) {
                Some(_) => TickOutcome::Progress,
                None if healed => TickOutcome::Progress,
                None => TickOutcome::Idle,
            }
        });
        Ok(Self {
            task,
            controller,
            recoveries,
            rm,
            rm_task,
        })
    }

    /// The loop's task in the resources meta-model.
    pub fn task(&self) -> TaskId {
        self.rm_task
    }

    /// Live counters (loop-tick side from the periodic task,
    /// decision side from the controller).
    pub fn stats(&self) -> ControlStats {
        let ctl = self.controller.lock();
        ControlStats {
            ticks: self.task.ticks(),
            migrations: ctl.migrations(),
            holds: ctl.holds(),
            panics: self.task.panics(),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            current_interval: self.task.current_interval(),
        }
    }

    /// True until the loop has been stopped.
    pub fn is_running(&self) -> bool {
        self.task.is_running()
    }

    /// Stops the loop and returns the final counters: the ticking
    /// thread is joined **first** (no turn can land afterwards, so
    /// the returned stats are exact and every applied migration is
    /// included), then the counters are snapshot; the loop's
    /// resources task is released by `Drop`, after the join — a late
    /// tick can never consume against a released task.
    pub fn stop(mut self) -> ControlStats {
        self.task.halt();
        self.stats()
        // Drop runs here: the already-halted task joins as a no-op
        // and the rm task is released.
    }
}

impl Drop for ControlLoop {
    /// A dropped loop stops and unregisters cleanly even when
    /// [`Self::stop`] was never called (unwinds, error paths): join
    /// the ticking thread, then release the resources task — in that
    /// order, so no tick can fire against a released task and the
    /// loop's name becomes reusable.
    fn drop(&mut self) {
        self.task.halt();
        let _ = self.rm.release_task(self.rm_task);
    }
}

impl fmt::Debug for ControlLoop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        write!(
            f,
            "ControlLoop({} ticks, {} migrations, next in {:?})",
            stats.ticks, stats.migrations, stats.current_interval
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::rebalance::RebalancePolicy;
    use netkit_packet::steer::RSS_BUCKETS;

    fn window(entries: &[(usize, u64)]) -> Vec<u64> {
        let mut w = vec![0u64; RSS_BUCKETS];
        for &(bucket, load) in entries {
            w[bucket] = load;
        }
        w
    }

    fn eager_policy() -> WeightedRebalancePolicy {
        WeightedRebalancePolicy {
            base: RebalancePolicy {
                max_imbalance: 1.25,
                min_samples: 64,
            },
            pressure_weight: 0.0,
            decay: 0.5,
        }
    }

    #[test]
    fn controller_gathers_until_min_samples() {
        let mut ctl = RebalanceController::new(eager_policy(), 0);
        let map = BucketMap::identity(2);
        let small = window(&[(0, 10), (2, 10)]);
        for _ in 0..3 {
            assert!(matches!(
                ctl.decide(&small, &[], 1024, &map),
                ControlDecision::Gathering
            ));
        }
        assert_eq!(ctl.ticks(), 3);
        assert_eq!(ctl.holds(), 0, "gathering is not a judgment");
        assert_eq!(ctl.noop_streak(), 3);
    }

    #[test]
    fn controller_holds_on_balanced_and_migrates_on_skew() {
        let mut ctl = RebalanceController::new(eager_policy(), 0);
        let map = BucketMap::identity(2);
        let balanced = window(&[(0, 50), (1, 50)]);
        assert!(matches!(
            ctl.decide(&balanced, &[], 1024, &map),
            ControlDecision::Hold
        ));
        assert_eq!(ctl.holds(), 1);
        let skewed = window(&[(0, 90), (2, 60), (1, 30)]);
        match ctl.decide(&skewed, &[], 1024, &map) {
            ControlDecision::Migrate(plan) => {
                assert!(plan.imbalance_after < plan.imbalance_before)
            }
            other => panic!("skew must migrate, got {other:?}"),
        }
        assert_eq!(ctl.migrations(), 1);
        assert_eq!(ctl.noop_streak(), 0, "a migration resets the streak");
    }

    #[test]
    fn byte_evidence_flips_a_hold_into_a_migration() {
        // Uniform packets over buckets 0..8: the packet-only judgment
        // is a permanent Hold. The same controller with a heavy-hitter
        // blend sees the bytes and migrates.
        let map = BucketMap::identity(2);
        let uniform = window(&[
            (0, 8),
            (1, 8),
            (2, 8),
            (3, 8),
            (4, 8),
            (5, 8),
            (6, 8),
            (7, 8),
        ]);
        let evidence: Vec<HeavyHitter> = (0..8)
            .map(|b| HeavyHitter {
                hash: b as u64,
                error: 0,
                weight: if b % 2 == 0 { 2_000 } else { 500 },
            })
            .collect();
        let mut packets_only = RebalanceController::new(eager_policy(), 0);
        assert!(matches!(
            packets_only.decide_with_evidence(&uniform, &[], &evidence, 1024, &map),
            ControlDecision::Hold
        ));
        let mut blended = RebalanceController::new(eager_policy(), 0).with_heavy_hitters(1.0);
        assert_eq!(blended.heavy_blend(), 1.0);
        match blended.decide_with_evidence(&uniform, &[], &evidence, 1024, &map) {
            ControlDecision::Migrate(plan) => {
                assert!(plan.imbalance_after < plan.imbalance_before)
            }
            other => panic!("byte evidence must migrate, got {other:?}"),
        }
        // And with no evidence at hand the blended controller judges
        // exactly like the packet-only one.
        assert!(matches!(
            blended.decide(&uniform, &[], 1024, &map),
            ControlDecision::Hold
        ));
    }

    #[test]
    fn cooldown_caps_the_migration_rate() {
        let mut ctl = RebalanceController::new(eager_policy(), 2);
        let map = BucketMap::identity(2);
        let skewed = window(&[(0, 90), (2, 60), (1, 30)]);
        assert!(matches!(
            ctl.decide(&skewed, &[], 1024, &map),
            ControlDecision::Migrate(_)
        ));
        // The same skew re-presented is rate-capped for 2 ticks...
        for _ in 0..2 {
            assert!(matches!(
                ctl.decide(&skewed, &[], 1024, &map),
                ControlDecision::Hold
            ));
        }
        // ...and judged again afterwards.
        assert!(matches!(
            ctl.decide(&skewed, &[], 1024, &map),
            ControlDecision::Migrate(_)
        ));
        assert_eq!(ctl.migrations(), 2);
        assert_eq!(ctl.holds(), 2);
    }
}
