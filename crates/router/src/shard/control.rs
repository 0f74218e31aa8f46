//! The autonomous reflective control loop: inspect → decide → adapt
//! with **no external caller**.
//!
//! Two layers, deliberately separated:
//!
//! * [`RebalanceController`] — the **deterministic decide arm**: a pure
//!   state machine over one [`Evidence`] observation per turn. It owns
//!   what its [`DecisionCore`] does not: the gathering gate (`min_samples`
//!   on the raw window — the only place it is evaluated) and a hard cap
//!   on migration rate (`cooldown_ticks` between applied plans, so a
//!   pathological workload cannot thrash the dataplane through quiesce
//!   epochs). It has no threads and no clock, so the same object —
//!   hand-built or compiled from a description's `control` section —
//!   runs under the [`ControlLoop`] below and under the simulator's
//!   `PipelineNode::with_controller`; both hand it to
//!   [`ShardedPipeline::control_turn`].
//! * [`ControlLoop`] — the **threaded supervisor**: a
//!   `netkit_kernel::task::PeriodicTask` ticking
//!   [`ShardedPipeline::health_turn`] then `control_turn` on the
//!   cadence of a `PeriodicSpec` (tick-interval backoff after no-op
//!   turns — an idle control loop goes quiet — and instant re-arming on
//!   a migration). The loop is a first-class citizen of the resources
//!   meta-model: it runs as its own task, consuming `classes::TICKS`
//!   per turn, while each applied migration counts into the pipeline
//!   task's `classes::REBALANCES` — introspection sees both how often
//!   the system looks and how often it acts.
//!
//! The controller, runnable (this is the whole contract —
//! `Gathering` accumulates, `Hold` decays, `Migrate` commits):
//!
//! ```
//! use netkit_packet::steer::{BucketMap, RSS_BUCKETS};
//! use netkit_router::shard::{ControlDecision, Evidence, RebalanceController, RebalancePolicy};
//!
//! let policy = RebalancePolicy {
//!     max_imbalance: 1.25,
//!     min_samples: 64,
//!     pressure_weight: 0.0,
//!     ..RebalancePolicy::default()
//! };
//! let mut ctl = RebalanceController::new(policy, 0);
//! let map = BucketMap::identity(2);
//! fn observe<'a>(window: &'a [u64], map: &'a BucketMap) -> Evidence<'a> {
//!     Evidence { window, loads: &[], heavy: &[], ring_capacity: 1024, current: map }
//! }
//!
//! // Not enough evidence yet: the window keeps accumulating.
//! let mut window = vec![0u64; RSS_BUCKETS];
//! window[0] = 10;
//! assert!(matches!(ctl.decide(&observe(&window, &map)), ControlDecision::Gathering));
//!
//! // A judged window with everything colocated on shard 0 migrates.
//! window[0] = 90;
//! window[2] = 60; // bucket 2 -> shard 0 under identity(2)
//! match ctl.decide(&observe(&window, &map)) {
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
use opencom::error::Result;
use opencom::ident::TaskId;
use opencom::meta::resources::{classes, ResourceManager};
use parking_lot::Mutex;

use super::decision::{DecisionCore, Evidence};
use super::rebalance::{RebalancePlan, RebalancePolicy};
use super::ShardedPipeline;

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

/// The deterministic decide arm of the autonomous control loop. See
/// the module docs for where it sits and a runnable example.
pub struct RebalanceController {
    core: DecisionCore,
    /// Minimum number of ticks between two applied migrations — the
    /// hard cap on migration rate (each migration costs a quiesce
    /// epoch; 0 = no cap).
    cooldown_ticks: u64,
    ticks: u64,
    migrations: u64,
    holds: u64,
    last_migration_tick: Option<u64>,
}

impl RebalanceController {
    /// A controller judging with the `"weighted"` preset over
    /// `policy`, applying at most one migration per
    /// `cooldown_ticks + 1` ticks.
    pub fn new(policy: RebalancePolicy, cooldown_ticks: u64) -> Self {
        Self::with_core(DecisionCore::weighted(policy), cooldown_ticks)
    }

    /// A controller judging with `core` — how descriptions select the
    /// hysteresis and EWMA presets by name; see
    /// [`core_by_name`](super::decision::core_by_name).
    pub fn with_core(core: DecisionCore, cooldown_ticks: u64) -> Self {
        Self {
            core,
            cooldown_ticks,
            ticks: 0,
            migrations: 0,
            holds: 0,
            last_migration_tick: None,
        }
    }

    /// The preset name of the judging core (`"weighted"` unless another
    /// was installed via [`with_core`](Self::with_core)).
    pub fn core_name(&self) -> &'static str {
        self.core.name()
    }

    /// The core's policy: the gathering gate judged here, plus the
    /// `decay` and `heavy_blend` the caller needs to gather evidence
    /// and to apply [`ControlDecision::Hold`].
    pub fn policy(&self) -> &RebalancePolicy {
        self.core.policy()
    }

    /// One inspect → decide turn over `ev`: a **peeked** (not drained)
    /// per-bucket window, the per-shard pressure meters, the merged
    /// heavy-hitter bytes and the live table. The gathering gate and
    /// the cooldown cap judge raw packets; what crosses both goes to
    /// the core. The caller owns the adapt arm: apply the returned
    /// decision to its steering surface (see [`ControlDecision`] for
    /// the window obligation each variant carries —
    /// [`ShardedPipeline::control_turn`] is that caller).
    pub fn decide(&mut self, ev: &Evidence<'_>) -> ControlDecision {
        self.ticks += 1;
        let raw_total: u64 = ev.window.iter().sum();
        if raw_total < self.core.policy().min_samples.max(1) {
            return ControlDecision::Gathering;
        }
        if let Some(last) = self.last_migration_tick {
            if self.ticks.saturating_sub(last) <= self.cooldown_ticks {
                // Rate cap: judged but deliberately not acted on. The
                // window still decays — the cap exists to *shed*
                // pressure to re-migrate, not to queue it up.
                self.holds += 1;
                return ControlDecision::Hold;
            }
        }
        match self.core.plan(ev) {
            Some(plan) => {
                self.migrations += 1;
                self.last_migration_tick = Some(self.ticks);
                ControlDecision::Migrate(plan)
            }
            None => {
                self.holds += 1;
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
    /// episodes it respawned in place (see
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
/// not mix it with manual `control_turn` polling on the same pipeline.
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
    /// into the pipeline task's `classes::REBALANCES` as always),
    /// ticking `controller` — built by hand, or by a description's
    /// `DescBinding::controller` — at `cadence`. `nics` are the NIC
    /// mirrors every applied migration must cover.
    ///
    /// # Errors
    ///
    /// Propagates a duplicate task `name`.
    pub fn spawn(
        name: &str,
        pipe: Arc<ShardedPipeline>,
        nics: Vec<Arc<Nic>>,
        controller: RebalanceController,
        cadence: PeriodicSpec,
        rm: Arc<ResourceManager>,
    ) -> Result<Self> {
        let rm_task = rm.create_task(name)?;
        let controller = Arc::new(Mutex::new(controller));
        let tick_ctl = Arc::clone(&controller);
        let tick_rm = Arc::clone(&rm);
        let recoveries = Arc::new(AtomicU64::new(0));
        let tick_recoveries = Arc::clone(&recoveries);
        let task = PeriodicTask::spawn(name, cadence, move || {
            let _ = tick_rm.consume(rm_task, classes::TICKS, 1);
            let nic_refs: Vec<&Nic> = nics.iter().map(Arc::as_ref).collect();
            // Health before balance: a dead shard makes every load
            // judgment moot (its buckets drain nowhere), so the turn
            // first respawns dead shards in place, then rebalances.
            let healed = match pipe.health_turn() {
                Ok(Some(recovery)) => {
                    if !recovery.respawned.is_empty() {
                        tick_recoveries.fetch_add(1, Ordering::Relaxed);
                    }
                    true
                }
                Ok(None) => false,
                // Factory failure: the shard stays dead, traffic
                // steered to it is filed as dead-worker drops, and the
                // next turn retries. Count it as progress so backoff
                // resets and the retry comes soon.
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
            "ControlLoop({} core, {} ticks, {} migrations, next in {:?})",
            self.controller.lock().core_name(),
            stats.ticks,
            stats.migrations,
            stats.current_interval
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::decision::fixtures::{byte_skew, observe, packets_only, window};
    use netkit_packet::sketch::HeavyHitter;
    use netkit_packet::steer::BucketMap;

    fn eager_policy() -> RebalancePolicy {
        packets_only(1.25, 64)
    }

    fn ev<'a>(window: &'a [u64], heavy: &'a [HeavyHitter], map: &'a BucketMap) -> Evidence<'a> {
        Evidence {
            heavy,
            ..observe(window, map)
        }
    }

    #[test]
    fn controller_gathers_until_min_samples() {
        let mut ctl = RebalanceController::new(eager_policy(), 0);
        let map = BucketMap::identity(2);
        let small = window(&[(0, 10), (2, 10)]);
        for _ in 0..3 {
            assert!(matches!(
                ctl.decide(&ev(&small, &[], &map)),
                ControlDecision::Gathering
            ));
        }
        assert_eq!(ctl.ticks(), 3);
        assert_eq!(ctl.holds(), 0, "gathering is not a judgment");
    }

    #[test]
    fn controller_holds_on_balanced_and_migrates_on_skew() {
        let mut ctl = RebalanceController::new(eager_policy(), 0);
        let map = BucketMap::identity(2);
        let balanced = window(&[(0, 50), (1, 50)]);
        assert!(matches!(
            ctl.decide(&ev(&balanced, &[], &map)),
            ControlDecision::Hold
        ));
        assert_eq!(ctl.holds(), 1);
        let skewed = window(&[(0, 90), (2, 60), (1, 30)]);
        match ctl.decide(&ev(&skewed, &[], &map)) {
            ControlDecision::Migrate(plan) => {
                assert!(plan.imbalance_after < plan.imbalance_before)
            }
            other => panic!("skew must migrate, got {other:?}"),
        }
        assert_eq!(ctl.migrations(), 1);
    }

    #[test]
    fn byte_evidence_flips_a_hold_into_a_migration() {
        // Uniform packets over buckets 0..8: the packet-only judgment
        // is a permanent Hold. The same controller with a heavy-hitter
        // blend sees the bytes and migrates.
        let map = BucketMap::identity(2);
        let (uniform, bytes) = byte_skew();
        let mut packets_only = RebalanceController::new(eager_policy(), 0);
        assert!(matches!(
            packets_only.decide(&ev(&uniform, &bytes, &map)),
            ControlDecision::Hold
        ));
        let mut blended = RebalanceController::new(
            RebalancePolicy {
                heavy_blend: 1.0,
                ..eager_policy()
            },
            0,
        );
        assert_eq!(blended.policy().heavy_blend, 1.0);
        match blended.decide(&ev(&uniform, &bytes, &map)) {
            ControlDecision::Migrate(plan) => {
                assert!(plan.imbalance_after < plan.imbalance_before)
            }
            other => panic!("byte evidence must migrate, got {other:?}"),
        }
        // And with no evidence at hand the blended controller judges
        // exactly like the packet-only one.
        assert!(matches!(
            blended.decide(&ev(&uniform, &[], &map)),
            ControlDecision::Hold
        ));
    }

    #[test]
    fn cooldown_caps_the_migration_rate() {
        let mut ctl = RebalanceController::new(eager_policy(), 2);
        let map = BucketMap::identity(2);
        let skewed = window(&[(0, 90), (2, 60), (1, 30)]);
        assert!(matches!(
            ctl.decide(&ev(&skewed, &[], &map)),
            ControlDecision::Migrate(_)
        ));
        // The same skew re-presented is rate-capped for 2 ticks...
        for _ in 0..2 {
            assert!(matches!(
                ctl.decide(&ev(&skewed, &[], &map)),
                ControlDecision::Hold
            ));
        }
        // ...and judged again afterwards.
        assert!(matches!(
            ctl.decide(&ev(&skewed, &[], &map)),
            ControlDecision::Migrate(_)
        ));
        assert_eq!(ctl.migrations(), 2);
        assert_eq!(ctl.holds(), 2);
    }
}
