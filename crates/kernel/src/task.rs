//! Supervised periodic background tasks — the stratum-1 primitive
//! reflective control loops are built on.
//!
//! The paper's reflective architecture promises loops that *inspect*,
//! *decide*, and *adapt* without an external operator. The dataplane
//! side of that loop already exists (meters, policies, quiesced
//! migrations); what stratum 1 owes the control plane is a way to
//! **run the loop** — a background task that ticks on a wall-clock
//! interval, survives a panicking tick (supervision), and backs its
//! tick rate off when consecutive ticks produce nothing, so an idle
//! control loop costs asymptotically nothing.
//!
//! [`PeriodicTask`] is that primitive. It is deliberately dumb: the
//! interesting state machine (what to inspect, when to adapt) lives in
//! the closure; the task owns only the cadence. Three knobs
//! ([`PeriodicSpec`]): the base interval, a backoff factor applied
//! after each [`TickOutcome::Idle`] tick, and a cap the backed-off
//! interval saturates at. A [`TickOutcome::Progress`] tick snaps the
//! interval back to base — the loop reacts quickly while there is work
//! and goes quiet when there is none.
//!
//! Supervision: a tick that panics is caught, counted
//! ([`PeriodicTask::panics`]), and treated as an idle tick; the loop
//! itself never dies to a faulty tick, mirroring how a dead dataplane
//! worker never wedges its pool.
//!
//! This is *real* time, not [`crate::time::SimTime`]: the periodic
//! task drives threaded runtimes (worker pools are OS threads). The
//! deterministic simulator does not use it — sim control loops tick
//! from the event loop instead, which is why the router's controller
//! separates its decision core from this cadence primitive.
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//! use std::time::Duration;
//! use netkit_kernel::task::{PeriodicSpec, PeriodicTask, TickOutcome};
//!
//! let hits = Arc::new(AtomicU64::new(0));
//! let seen = Arc::clone(&hits);
//! let task = PeriodicTask::spawn(
//!     "doc-loop",
//!     PeriodicSpec::every(Duration::from_millis(1)),
//!     move || {
//!         seen.fetch_add(1, Ordering::Relaxed);
//!         TickOutcome::Progress
//!     },
//! );
//! while task.ticks() == 0 {
//!     std::thread::yield_now();
//! }
//! task.stop();
//! assert!(hits.load(Ordering::Relaxed) >= 1);
//! ```

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// What one tick of a periodic task reports back to the cadence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TickOutcome {
    /// The tick did useful work: reset the interval to base.
    Progress,
    /// The tick found nothing to do: back the interval off.
    Idle,
    /// The task is finished: exit the loop.
    Stop,
}

/// Cadence of a [`PeriodicTask`]: base interval plus idle backoff.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PeriodicSpec {
    /// Interval between ticks while the task reports
    /// [`TickOutcome::Progress`]. Clamped to ≥ 1µs.
    pub interval: Duration,
    /// Cap the backed-off interval saturates at. Clamped to ≥
    /// `interval`.
    pub max_interval: Duration,
    /// Multiplier applied to the current interval after each
    /// [`TickOutcome::Idle`] tick. Clamped to ≥ 1.0 (1.0 = no
    /// backoff).
    pub backoff: f64,
}

impl PeriodicSpec {
    /// A fixed cadence: tick every `interval`, no backoff.
    pub fn every(interval: Duration) -> Self {
        Self {
            interval,
            max_interval: interval,
            backoff: 1.0,
        }
    }

    /// Enables idle backoff (builder-style): after each idle tick the
    /// interval multiplies by `factor`, saturating at `max`.
    pub fn with_backoff(mut self, factor: f64, max: Duration) -> Self {
        self.backoff = factor;
        self.max_interval = max;
        self
    }

    fn normalised(self) -> Self {
        let interval = self.interval.max(Duration::from_micros(1));
        Self {
            interval,
            max_interval: self.max_interval.max(interval),
            backoff: if self.backoff.is_finite() {
                self.backoff.max(1.0)
            } else {
                1.0
            },
        }
    }
}

struct TaskShared {
    /// Stop flag + wakeup so `stop()` interrupts a sleeping task
    /// promptly instead of waiting out a (possibly backed-off)
    /// interval.
    stop: Mutex<bool>,
    wake: Condvar,
    ticks: AtomicU64,
    panics: AtomicU64,
    interval_nanos: AtomicU64,
    running: AtomicBool,
}

/// A supervised background thread ticking a closure on an adaptive
/// interval. See the module docs for semantics and an example.
pub struct PeriodicTask {
    shared: Arc<TaskShared>,
    handle: Option<JoinHandle<()>>,
    name: String,
}

impl PeriodicTask {
    /// Spawns the task. The first tick fires one `spec.interval` after
    /// the spawn (not immediately); `tick` runs on the task's own
    /// thread, named `name`.
    pub fn spawn<F>(name: impl Into<String>, spec: PeriodicSpec, mut tick: F) -> Self
    where
        F: FnMut() -> TickOutcome + Send + 'static,
    {
        let name = name.into();
        let spec = spec.normalised();
        let shared = Arc::new(TaskShared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
            ticks: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            interval_nanos: AtomicU64::new(spec.interval.as_nanos() as u64),
            running: AtomicBool::new(true),
        });
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(format!("netkit-periodic-{name}"))
            .spawn(move || {
                let mut current = spec.interval;
                loop {
                    // Sleep out the interval, but wake immediately on
                    // stop.
                    {
                        let mut stopped = worker.stop.lock().unwrap_or_else(|e| e.into_inner());
                        let mut left = current;
                        while !*stopped && !left.is_zero() {
                            let before = std::time::Instant::now();
                            let (guard, timeout) = worker
                                .wake
                                .wait_timeout(stopped, left)
                                .unwrap_or_else(|e| e.into_inner());
                            stopped = guard;
                            if timeout.timed_out() {
                                break;
                            }
                            left = left.saturating_sub(before.elapsed());
                        }
                        if *stopped {
                            break;
                        }
                    }
                    worker.ticks.fetch_add(1, Ordering::Relaxed);
                    // Supervision: a panicking tick is counted and
                    // treated as idle; the loop survives.
                    let outcome = catch_unwind(AssertUnwindSafe(&mut tick)).unwrap_or_else(|_| {
                        worker.panics.fetch_add(1, Ordering::Relaxed);
                        TickOutcome::Idle
                    });
                    match outcome {
                        TickOutcome::Progress => {
                            current = spec.interval;
                        }
                        TickOutcome::Idle => {
                            current = Duration::from_secs_f64(
                                (current.as_secs_f64() * spec.backoff)
                                    .min(spec.max_interval.as_secs_f64()),
                            );
                        }
                        TickOutcome::Stop => break,
                    }
                    worker
                        .interval_nanos
                        .store(current.as_nanos() as u64, Ordering::Relaxed);
                }
                worker.running.store(false, Ordering::Release);
            })
            .expect("spawn periodic task thread");
        Self {
            shared,
            handle: Some(handle),
            name,
        }
    }

    /// The task's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ticks fired so far (including panicked ones).
    pub fn ticks(&self) -> u64 {
        self.shared.ticks.load(Ordering::Relaxed)
    }

    /// Ticks whose closure panicked (the task survived each).
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// The interval the *next* tick will wait — base after progress,
    /// multiplied towards the cap by idle ticks.
    pub fn current_interval(&self) -> Duration {
        Duration::from_nanos(self.shared.interval_nanos.load(Ordering::Relaxed))
    }

    /// False once the loop has exited (stopped, or the tick returned
    /// [`TickOutcome::Stop`]).
    fn is_running(&self) -> bool {
        self.shared.running.load(Ordering::Acquire)
    }

    /// Signals the task to stop and joins its thread. A sleeping task
    /// wakes immediately; a mid-tick task finishes the tick first.
    pub fn stop(mut self) {
        self.halt();
    }

    /// The borrowing form of [`Self::stop`]: signals and joins, but
    /// keeps the handle alive so the final counters can be read
    /// *after* the last tick has provably completed (nothing fires
    /// once this returns). Idempotent; `Drop` calls it too.
    pub fn halt(&mut self) {
        self.signal_and_join();
    }

    fn signal_and_join(&mut self) {
        {
            let mut stopped = self.shared.stop.lock().unwrap_or_else(|e| e.into_inner());
            *stopped = true;
            self.shared.wake.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for PeriodicTask {
    fn drop(&mut self) {
        self.signal_and_join();
    }
}

impl fmt::Debug for PeriodicTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PeriodicTask(`{}`, {} ticks, next in {:?}{})",
            self.name,
            self.ticks(),
            self.current_interval(),
            if self.is_running() { "" } else { ", stopped" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// Spins until `cond` holds or ~5s elapse (generous for CI).
    fn wait_for(mut cond: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        cond()
    }

    #[test]
    fn ticks_fire_and_stop_joins_promptly() {
        let count = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&count);
        let task = PeriodicTask::spawn(
            "fires",
            PeriodicSpec::every(Duration::from_millis(1)),
            move || {
                seen.fetch_add(1, Ordering::Relaxed);
                TickOutcome::Progress
            },
        );
        assert!(wait_for(|| task.ticks() >= 3), "task must tick");
        assert!(task.is_running());
        assert_eq!(task.panics(), 0);
        let before = Instant::now();
        task.stop();
        // A 1ms-interval task joins far inside this bound; the bound
        // exists to catch a stop that waits out backoff intervals.
        assert!(before.elapsed() < Duration::from_secs(2));
        assert!(count.load(Ordering::Relaxed) >= 3);
    }

    #[test]
    fn idle_ticks_back_off_and_progress_resets() {
        let progress = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&progress);
        let spec = PeriodicSpec::every(Duration::from_micros(100))
            .with_backoff(8.0, Duration::from_millis(50));
        let task = PeriodicTask::spawn("backoff", spec, move || {
            if flag.load(Ordering::Relaxed) {
                TickOutcome::Progress
            } else {
                TickOutcome::Idle
            }
        });
        assert!(
            wait_for(|| task.current_interval() >= Duration::from_millis(50)),
            "idle ticks must back the interval off to the cap"
        );
        progress.store(true, Ordering::Relaxed);
        assert!(
            wait_for(|| task.current_interval() == Duration::from_micros(100)),
            "a progress tick must snap the interval back to base"
        );
        task.stop();
    }

    #[test]
    fn stop_outcome_ends_the_loop() {
        let task = PeriodicTask::spawn(
            "oneshot",
            PeriodicSpec::every(Duration::from_micros(100)),
            || TickOutcome::Stop,
        );
        assert!(wait_for(|| !task.is_running()), "Stop must end the loop");
        assert_eq!(task.ticks(), 1);
        task.stop(); // idempotent on an already-exited loop
    }

    #[test]
    fn panicking_ticks_are_supervised() {
        let task = PeriodicTask::spawn(
            "faulty",
            PeriodicSpec::every(Duration::from_micros(200)),
            || -> TickOutcome { panic!("injected tick fault") },
        );
        assert!(
            wait_for(|| task.panics() >= 2),
            "the loop must survive a panicking tick and keep ticking"
        );
        assert!(task.is_running());
        task.stop();
    }

    #[test]
    fn spec_clamps_degenerate_values() {
        let spec = PeriodicSpec {
            interval: Duration::ZERO,
            max_interval: Duration::ZERO,
            backoff: f64::NAN,
        }
        .normalised();
        assert_eq!(spec.interval, Duration::from_micros(1));
        assert_eq!(spec.max_interval, Duration::from_micros(1));
        assert_eq!(spec.backoff, 1.0);
        // And a clamped spec still runs.
        let task = PeriodicTask::spawn("clamped", spec, || TickOutcome::Idle);
        assert!(wait_for(|| task.ticks() >= 1));
        assert!(format!("{task:?}").contains("clamped"));
        task.stop();
    }
}
