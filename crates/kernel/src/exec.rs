//! Cooperative executor with pluggable schedulers.
//!
//! The paper's OpenCOM ships a thread-management CF "offering pluggable
//! schedulers" (§2), and its stratum 1 provides the minimal concurrency
//! support programmable routers need. [`Executor`] reproduces that: tasks
//! are cooperative work functions; the scheduling *policy* is a plug-in
//! ([`SchedulePolicy`]) that can be **hot-swapped at run time** — the
//! executor-level analogue of component reconfiguration.
//!
//! Tasks are identified by the same [`TaskId`]s used by the resources
//! meta-model, so CPU accounting flows straight into
//! [`opencom::meta::resources::ResourceManager`].

use std::collections::HashMap;
use std::fmt;

use opencom::ident::TaskId;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a task reports after one scheduling quantum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskStatus {
    /// More work immediately available.
    Ready,
    /// Nothing to do right now; stay runnable but deprioritise.
    Idle,
    /// Finished; remove from the executor.
    Done,
}

/// One run quantum: the work function returns its status and the number
/// of abstract CPU cycles it consumed.
pub type WorkFn = Box<dyn FnMut() -> (TaskStatus, u64) + Send>;

/// Scheduler-visible view of a task.
#[derive(Clone, Copy, Debug)]
pub struct TaskView {
    /// The task's id.
    pub id: TaskId,
    /// Static priority (higher runs first under strict priority).
    pub priority: u8,
    /// Proportional-share weight (used by weighted-fair policies).
    pub weight: u32,
    /// Total cycles consumed so far.
    pub cycles_used: u64,
    /// Virtual runtime (cycles divided by weight) for fairness policies.
    pub vruntime: f64,
}

/// A pluggable scheduling policy.
///
/// Implementations select the next task id from the runnable set. They
/// may keep internal state (round-robin cursors, deficit counters…).
pub trait SchedulePolicy: Send {
    /// Policy name for reporting.
    fn name(&self) -> &'static str;

    /// Picks the next task to run, or `None` to idle.
    fn select(&mut self, runnable: &[TaskView]) -> Option<TaskId>;
}

/// First-in-first-out: always run the oldest-registered runnable task.
#[derive(Debug, Default)]
pub struct FifoPolicy;

impl SchedulePolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "fifo"
    }
    fn select(&mut self, runnable: &[TaskView]) -> Option<TaskId> {
        runnable.first().map(|t| t.id)
    }
}

/// Round-robin with a rotating cursor.
#[derive(Debug, Default)]
pub struct RoundRobinPolicy {
    cursor: usize,
}

impl SchedulePolicy for RoundRobinPolicy {
    fn name(&self) -> &'static str {
        "round-robin"
    }
    fn select(&mut self, runnable: &[TaskView]) -> Option<TaskId> {
        if runnable.is_empty() {
            return None;
        }
        let pick = runnable[self.cursor % runnable.len()].id;
        self.cursor = self.cursor.wrapping_add(1);
        Some(pick)
    }
}

/// Strict priority: highest priority first, FIFO within a level.
#[derive(Debug, Default)]
pub struct StrictPriorityPolicy;

impl SchedulePolicy for StrictPriorityPolicy {
    fn name(&self) -> &'static str {
        "strict-priority"
    }
    fn select(&mut self, runnable: &[TaskView]) -> Option<TaskId> {
        runnable.iter().max_by_key(|t| t.priority).map(|t| t.id)
    }
}

/// Proportional-share lottery scheduling (deterministically seeded).
#[derive(Debug)]
pub struct LotteryPolicy {
    rng: StdRng,
}

impl LotteryPolicy {
    /// Creates a lottery scheduler with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl SchedulePolicy for LotteryPolicy {
    fn name(&self) -> &'static str {
        "lottery"
    }
    fn select(&mut self, runnable: &[TaskView]) -> Option<TaskId> {
        let total: u64 = runnable.iter().map(|t| t.weight as u64).sum();
        if total == 0 {
            return None;
        }
        let mut ticket = self.rng.gen_range(0..total);
        for t in runnable {
            let w = t.weight as u64;
            if ticket < w {
                return Some(t.id);
            }
            ticket -= w;
        }
        None
    }
}

/// Weighted-fair: run the task with the smallest virtual runtime
/// (cycles consumed divided by weight), CFS-style.
#[derive(Debug, Default)]
pub struct WeightedFairPolicy;

impl SchedulePolicy for WeightedFairPolicy {
    fn name(&self) -> &'static str {
        "weighted-fair"
    }
    fn select(&mut self, runnable: &[TaskView]) -> Option<TaskId> {
        runnable
            .iter()
            .min_by(|a, b| a.vruntime.partial_cmp(&b.vruntime).expect("finite"))
            .map(|t| t.id)
    }
}

struct TaskState {
    view: TaskView,
    name: String,
    idle: bool,
    work: WorkFn,
}

struct ExecutorInner {
    tasks: HashMap<TaskId, TaskState>,
    order: Vec<TaskId>,
    policy: Box<dyn SchedulePolicy>,
    slices: u64,
    total_cycles: u64,
}

/// The cooperative executor.
///
/// # Examples
///
/// ```
/// use netkit_kernel::exec::{Executor, RoundRobinPolicy, TaskStatus};
///
/// let exec = Executor::new(Box::new(RoundRobinPolicy::default()));
/// let mut left = 3u32;
/// exec.spawn("countdown", 0, 1, Box::new(move || {
///     left -= 1;
///     (if left == 0 { TaskStatus::Done } else { TaskStatus::Ready }, 10)
/// }));
/// let ran = exec.run_until_idle(100);
/// assert_eq!(ran, 3);
/// assert_eq!(exec.task_count(), 0);
/// ```
pub struct Executor {
    inner: Mutex<ExecutorInner>,
}

impl Executor {
    /// Creates an executor with the given scheduling policy.
    pub fn new(policy: Box<dyn SchedulePolicy>) -> Self {
        Self {
            inner: Mutex::new(ExecutorInner {
                tasks: HashMap::new(),
                order: Vec::new(),
                policy,
                slices: 0,
                total_cycles: 0,
            }),
        }
    }

    /// Registers a task; returns its id (shared with the resources
    /// meta-model's task namespace).
    pub fn spawn(
        &self,
        name: impl Into<String>,
        priority: u8,
        weight: u32,
        work: WorkFn,
    ) -> TaskId {
        let id = TaskId::next();
        let mut inner = self.inner.lock();
        inner.tasks.insert(
            id,
            TaskState {
                view: TaskView {
                    id,
                    priority,
                    weight: weight.max(1),
                    cycles_used: 0,
                    vruntime: 0.0,
                },
                name: name.into(),
                idle: false,
                work,
            },
        );
        inner.order.push(id);
        id
    }

    /// Removes a task before completion.
    pub fn kill(&self, id: TaskId) -> bool {
        let mut inner = self.inner.lock();
        inner.order.retain(|t| *t != id);
        inner.tasks.remove(&id).is_some()
    }

    /// Hot-swaps the scheduling policy; returns the old policy's name.
    pub fn set_policy(&self, policy: Box<dyn SchedulePolicy>) -> &'static str {
        let mut inner = self.inner.lock();
        let old = inner.policy.name();
        inner.policy = policy;
        old
    }

    /// The active policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.inner.lock().policy.name()
    }

    /// Runs one scheduling quantum. Returns the task that ran, or `None`
    /// if nothing was runnable.
    fn run_slice(&self) -> Option<TaskId> {
        let mut inner = self.inner.lock();
        // Prefer non-idle tasks; fall back to idle ones so they can poll.
        let runnable: Vec<TaskView> = inner
            .order
            .iter()
            .filter_map(|id| inner.tasks.get(id))
            .filter(|t| !t.idle)
            .map(|t| t.view)
            .collect();
        let pool: Vec<TaskView> = if runnable.is_empty() {
            inner
                .order
                .iter()
                .filter_map(|id| inner.tasks.get(id))
                .map(|t| t.view)
                .collect()
        } else {
            runnable
        };
        let picked = inner.policy.select(&pool)?;
        let state = inner.tasks.get_mut(&picked)?;
        let (status, cycles) = (state.work)();
        state.view.cycles_used += cycles;
        state.view.vruntime = state.view.cycles_used as f64 / state.view.weight as f64;
        state.idle = status == TaskStatus::Idle;
        if status == TaskStatus::Done {
            inner.tasks.remove(&picked);
            inner.order.retain(|t| *t != picked);
        }
        inner.slices += 1;
        inner.total_cycles += cycles;
        Some(picked)
    }

    /// Runs until every task reports [`TaskStatus::Idle`]/completes or
    /// `max_slices` quanta have elapsed. Returns the quanta executed.
    pub fn run_until_idle(&self, max_slices: u64) -> u64 {
        let mut ran = 0;
        while ran < max_slices {
            {
                let inner = self.inner.lock();
                if inner.tasks.is_empty() || inner.tasks.values().all(|t| t.idle) {
                    break;
                }
            }
            if self.run_slice().is_none() {
                break;
            }
            ran += 1;
        }
        ran
    }

    /// Number of live tasks.
    pub fn task_count(&self) -> usize {
        self.inner.lock().tasks.len()
    }

    /// Name of task `id`, if alive.
    pub fn task_name(&self, id: TaskId) -> Option<String> {
        self.inner.lock().tasks.get(&id).map(|t| t.name.clone())
    }

    /// `(quanta executed, total cycles consumed)` since creation.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.slices, inner.total_cycles)
    }
}

impl fmt::Debug for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        write!(
            f,
            "Executor(policy=`{}`, {} tasks, {} slices)",
            inner.policy.name(),
            inner.tasks.len(),
            inner.slices
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn counting_task(counter: Arc<AtomicU64>, cycles: u64) -> WorkFn {
        Box::new(move || {
            counter.fetch_add(1, Ordering::Relaxed);
            (TaskStatus::Ready, cycles)
        })
    }

    #[test]
    fn round_robin_alternates() {
        let exec = Executor::new(Box::new(RoundRobinPolicy::default()));
        let (a, b) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        exec.spawn("a", 0, 1, counting_task(Arc::clone(&a), 1));
        exec.spawn("b", 0, 1, counting_task(Arc::clone(&b), 1));
        for _ in 0..10 {
            exec.run_slice();
        }
        assert_eq!(a.load(Ordering::Relaxed), 5);
        assert_eq!(b.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn strict_priority_starves_low() {
        let exec = Executor::new(Box::new(StrictPriorityPolicy));
        let (hi, lo) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        exec.spawn("lo", 1, 1, counting_task(Arc::clone(&lo), 1));
        exec.spawn("hi", 9, 1, counting_task(Arc::clone(&hi), 1));
        for _ in 0..10 {
            exec.run_slice();
        }
        assert_eq!(hi.load(Ordering::Relaxed), 10);
        assert_eq!(lo.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn weighted_fair_splits_by_weight() {
        let exec = Executor::new(Box::new(WeightedFairPolicy));
        let (heavy, light) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        exec.spawn("heavy", 0, 3, counting_task(Arc::clone(&heavy), 100));
        exec.spawn("light", 0, 1, counting_task(Arc::clone(&light), 100));
        for _ in 0..400 {
            exec.run_slice();
        }
        let h = heavy.load(Ordering::Relaxed) as f64;
        let l = light.load(Ordering::Relaxed) as f64;
        let ratio = h / l;
        assert!((2.5..=3.5).contains(&ratio), "expected ~3:1, got {ratio}");
    }

    #[test]
    fn lottery_is_roughly_proportional_and_deterministic() {
        let run = || {
            let exec = Executor::new(Box::new(LotteryPolicy::new(42)));
            let (a, b) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
            exec.spawn("a", 0, 4, counting_task(Arc::clone(&a), 1));
            exec.spawn("b", 0, 1, counting_task(Arc::clone(&b), 1));
            for _ in 0..1000 {
                exec.run_slice();
            }
            (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed))
        };
        let (a1, b1) = run();
        let (a2, b2) = run();
        assert_eq!((a1, b1), (a2, b2), "seeded runs must be identical");
        let ratio = a1 as f64 / b1 as f64;
        assert!((3.0..=5.5).contains(&ratio), "expected ~4:1, got {ratio}");
    }

    #[test]
    fn done_tasks_are_reaped() {
        let exec = Executor::new(Box::new(FifoPolicy));
        let ran = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let ran2 = std::sync::Arc::clone(&ran);
        exec.spawn(
            "once",
            0,
            1,
            Box::new(move || {
                ran2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                (TaskStatus::Done, 5)
            }),
        );
        assert_eq!(exec.task_count(), 1);
        exec.run_slice();
        assert_eq!(ran.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(exec.task_count(), 0);
        assert_eq!(exec.run_slice(), None);
    }

    #[test]
    fn idle_tasks_do_not_block_run_until_idle() {
        let exec = Executor::new(Box::new(RoundRobinPolicy::default()));
        exec.spawn("poller", 0, 1, Box::new(|| (TaskStatus::Idle, 1)));
        let ran = exec.run_until_idle(100);
        assert_eq!(ran, 1, "one slice marks the task idle, then we stop");
        assert_eq!(exec.task_count(), 1, "idle tasks stay registered");
    }

    #[test]
    fn policy_hot_swap_takes_effect() {
        let exec = Executor::new(Box::new(StrictPriorityPolicy));
        let (hi, lo) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        exec.spawn("lo", 1, 1, counting_task(Arc::clone(&lo), 1));
        exec.spawn("hi", 9, 1, counting_task(Arc::clone(&hi), 1));
        for _ in 0..4 {
            exec.run_slice();
        }
        assert_eq!(lo.load(Ordering::Relaxed), 0);
        let old = exec.set_policy(Box::new(RoundRobinPolicy::default()));
        assert_eq!(old, "strict-priority");
        assert_eq!(exec.policy_name(), "round-robin");
        for _ in 0..4 {
            exec.run_slice();
        }
        assert_eq!(lo.load(Ordering::Relaxed), 2, "low-priority task now runs");
    }

    #[test]
    fn kill_removes_task() {
        let exec = Executor::new(Box::new(FifoPolicy));
        let id = exec.spawn("victim", 0, 1, Box::new(|| (TaskStatus::Ready, 1)));
        assert!(exec.kill(id));
        assert!(!exec.kill(id));
        assert_eq!(exec.run_slice(), None);
    }

    #[test]
    fn cycle_accounting_accumulates() {
        let exec = Executor::new(Box::new(FifoPolicy));
        let id = exec.spawn("worker", 0, 1, Box::new(|| (TaskStatus::Ready, 17)));
        exec.run_slice();
        exec.run_slice();
        let (slices, cycles) = exec.stats();
        assert_eq!((slices, cycles), (2, 34));
        assert_eq!(exec.task_name(id).as_deref(), Some("worker"));
    }
}
