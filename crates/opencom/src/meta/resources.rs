//! Resources meta-model — tasks and fine-grained resource control.
//!
//! The paper (§2, citing \[Blair,99\]) describes a privileged per-capsule CF
//! in which *tasks* are "dynamically-delineable units of work", typically
//! orthogonal to the component architecture, and *resources* "subsume not
//! only traditional system-level resources like threads, memory and network
//! bandwidth, but also abstract, application-defined, units of allocation".
//!
//! [`ResourceManager`] implements exactly that: string-named resource
//! classes with capacities, tasks with per-class grants, admission control,
//! usage accounting, and a task → component attachment map so composites
//! can "control the resourcing of designated tasks and map these flexibly
//! to their constituents" (paper §5). The RSVP-style signaling crate reuses
//! the same manager for per-link bandwidth admission.

use std::collections::HashMap;
use std::fmt;

use parking_lot::RwLock;

use crate::error::{Error, Result};
use crate::ident::{ComponentId, TaskId};

/// Well-known resource class names. Classes are open-ended strings; these
/// constants just avoid typos for the common ones.
pub mod classes {
    /// CPU budget, in abstract cycles per second.
    pub const CPU: &str = "cpu";
    /// Memory quota, in bytes.
    pub const MEMORY: &str = "memory";
    /// Network bandwidth, in bytes per second.
    pub const BANDWIDTH: &str = "bandwidth";
    /// Packets processed — the class sharded dataplanes roll their
    /// per-worker counters up into, so a pipeline replicated across N
    /// shards still reads as **one** logical task to reflection.
    pub const PACKETS: &str = "packets";
    /// Shard-rebalance epochs applied — each bucket-table migration a
    /// reflective load balancer installs counts one, so introspection
    /// can see how often a dataplane's placement is being rewritten.
    pub const REBALANCES: &str = "rebalances";
    /// Autonomous control-loop turns — the reflective loop consumes
    /// one per inspect→decide tick on its own task, so introspection
    /// can see how often a dataplane is *looking* (ticks) versus
    /// *acting* (rebalances), including the backoff going idle.
    pub const TICKS: &str = "control-ticks";
    /// Fault-recovery actions — each shard respawn the self-healing
    /// control loop applies counts one, so introspection can tell a
    /// dataplane that is merely busy from one that is *surviving*:
    /// restarts are self-accounted the same way ticks and rebalances
    /// are.
    pub const FAULTS: &str = "fault-recoveries";
}

/// A pool for one resource class.
#[derive(Debug)]
struct Pool {
    capacity: u64,
    granted: u64,
}

/// A task: a named, dynamically-delineable unit of work to which resources
/// are granted and components attached.
#[derive(Debug, Clone)]
pub struct TaskInfo {
    /// The task's id.
    pub id: TaskId,
    /// Human-readable name, unique within the manager.
    pub name: String,
    /// Per-class grants (class → units granted).
    pub grants: HashMap<String, u64>,
    /// Per-class consumption recorded so far.
    pub usage: HashMap<String, u64>,
    /// Components currently attached to the task.
    pub attached: Vec<ComponentId>,
}

#[derive(Debug)]
struct TaskState {
    info: TaskInfo,
}

/// Admission-controlled resource pools plus task accounting.
///
/// # Examples
///
/// ```
/// use opencom::meta::resources::{classes, ResourceManager};
///
/// let rm = ResourceManager::new();
/// rm.define_class(classes::BANDWIDTH, 10_000_000); // 10 MB/s link
/// let task = rm.create_task("video-flow")?;
/// rm.grant(task, classes::BANDWIDTH, 2_000_000)?;  // admit 2 MB/s
/// assert_eq!(rm.available(classes::BANDWIDTH)?, 8_000_000);
/// rm.release_task(task)?;                           // tear down: capacity returns
/// assert_eq!(rm.available(classes::BANDWIDTH)?, 10_000_000);
/// # Ok::<(), opencom::error::Error>(())
/// ```
#[derive(Default)]
pub struct ResourceManager {
    pools: RwLock<HashMap<String, Pool>>,
    tasks: RwLock<HashMap<TaskId, TaskState>>,
}

impl ResourceManager {
    /// Creates a manager with no resource classes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Defines (or re-dimensions) a resource class with total `capacity`.
    ///
    /// Re-dimensioning below the currently granted amount is allowed; the
    /// pool is then over-committed until grants are released, which mirrors
    /// adaptive QoS renegotiation.
    pub fn define_class(&self, class: impl Into<String>, capacity: u64) {
        let class = class.into();
        let mut pools = self.pools.write();
        let granted = pools.get(&class).map_or(0, |p| p.granted);
        pools.insert(class, Pool { capacity, granted });
    }

    /// Units not yet granted in `class`.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::ResourceExhausted`] (available = 0) if the class
    /// does not exist.
    pub fn available(&self, class: &str) -> Result<u64> {
        let pools = self.pools.read();
        let pool = pools.get(class).ok_or_else(|| Error::ResourceExhausted {
            class: class.to_owned(),
            requested: 0,
            available: 0,
        })?;
        Ok(pool.capacity.saturating_sub(pool.granted))
    }

    /// Total capacity of `class`, if defined.
    pub fn capacity(&self, class: &str) -> Option<u64> {
        self.pools.read().get(class).map(|p| p.capacity)
    }

    /// Creates a new task.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::UnknownTask`] if a task with the same name
    /// already exists (names are the management handle, so they must be
    /// unambiguous).
    pub fn create_task(&self, name: impl Into<String>) -> Result<TaskId> {
        let name = name.into();
        let mut tasks = self.tasks.write();
        if tasks.values().any(|t| t.info.name == name) {
            return Err(Error::UnknownTask {
                name: format!("duplicate task name `{name}`"),
            });
        }
        let id = TaskId::next();
        tasks.insert(
            id,
            TaskState {
                info: TaskInfo {
                    id,
                    name,
                    grants: HashMap::new(),
                    usage: HashMap::new(),
                    attached: Vec::new(),
                },
            },
        );
        Ok(id)
    }

    /// Grants `units` of `class` to `task`, subject to admission control.
    ///
    /// # Errors
    ///
    /// * [`Error::ResourceExhausted`] if the pool cannot cover the request.
    /// * [`Error::UnknownTask`] if the task does not exist.
    pub fn grant(&self, task: TaskId, class: &str, units: u64) -> Result<()> {
        let mut pools = self.pools.write();
        let pool = pools
            .get_mut(class)
            .ok_or_else(|| Error::ResourceExhausted {
                class: class.to_owned(),
                requested: units,
                available: 0,
            })?;
        let available = pool.capacity.saturating_sub(pool.granted);
        if units > available {
            return Err(Error::ResourceExhausted {
                class: class.to_owned(),
                requested: units,
                available,
            });
        }
        let mut tasks = self.tasks.write();
        let state = tasks.get_mut(&task).ok_or_else(|| Error::UnknownTask {
            name: task.to_string(),
        })?;
        pool.granted += units;
        *state.info.grants.entry(class.to_owned()).or_insert(0) += units;
        Ok(())
    }

    /// Returns `units` of `class` from `task` to the pool.
    ///
    /// # Errors
    ///
    /// Fails if the task does not exist or holds less than `units`.
    pub fn revoke(&self, task: TaskId, class: &str, units: u64) -> Result<()> {
        let mut tasks = self.tasks.write();
        let state = tasks.get_mut(&task).ok_or_else(|| Error::UnknownTask {
            name: task.to_string(),
        })?;
        let held = state
            .info
            .grants
            .get_mut(class)
            .ok_or_else(|| Error::ResourceExhausted {
                class: class.to_owned(),
                requested: units,
                available: 0,
            })?;
        if *held < units {
            return Err(Error::ResourceExhausted {
                class: class.to_owned(),
                requested: units,
                available: *held,
            });
        }
        *held -= units;
        let mut pools = self.pools.write();
        if let Some(pool) = pools.get_mut(class) {
            pool.granted = pool.granted.saturating_sub(units);
        }
        Ok(())
    }

    /// Records consumption of `units` against the task's grant. Returns the
    /// task's remaining headroom in the class (grant − usage, saturating).
    ///
    /// Consumption beyond the grant is permitted but reported as zero
    /// headroom — policing is the caller's policy decision.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::UnknownTask`] if the task does not exist.
    pub fn consume(&self, task: TaskId, class: &str, units: u64) -> Result<u64> {
        let mut tasks = self.tasks.write();
        let state = tasks.get_mut(&task).ok_or_else(|| Error::UnknownTask {
            name: task.to_string(),
        })?;
        let used = state.info.usage.entry(class.to_owned()).or_insert(0);
        *used += units;
        let granted = state.info.grants.get(class).copied().unwrap_or(0);
        Ok(granted.saturating_sub(*used))
    }

    /// Attaches a component to a task ("map tasks flexibly to
    /// constituents", paper §5). A component may serve several tasks.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::UnknownTask`] if the task does not exist.
    pub fn attach(&self, task: TaskId, component: ComponentId) -> Result<()> {
        let mut tasks = self.tasks.write();
        let state = tasks.get_mut(&task).ok_or_else(|| Error::UnknownTask {
            name: task.to_string(),
        })?;
        if !state.info.attached.contains(&component) {
            state.info.attached.push(component);
        }
        Ok(())
    }

    /// Detaches a component from a task.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::UnknownTask`] if the task does not exist.
    pub fn detach(&self, task: TaskId, component: ComponentId) -> Result<()> {
        let mut tasks = self.tasks.write();
        let state = tasks.get_mut(&task).ok_or_else(|| Error::UnknownTask {
            name: task.to_string(),
        })?;
        state.info.attached.retain(|c| *c != component);
        Ok(())
    }

    /// Destroys the task, returning all its grants to their pools.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::UnknownTask`] if the task does not exist.
    pub fn release_task(&self, task: TaskId) -> Result<()> {
        let state = self
            .tasks
            .write()
            .remove(&task)
            .ok_or_else(|| Error::UnknownTask {
                name: task.to_string(),
            })?;
        let mut pools = self.pools.write();
        for (class, units) in state.info.grants {
            if let Some(pool) = pools.get_mut(&class) {
                pool.granted = pool.granted.saturating_sub(units);
            }
        }
        Ok(())
    }

    /// Snapshot of a task's state.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::UnknownTask`] if the task does not exist.
    pub fn task_info(&self, task: TaskId) -> Result<TaskInfo> {
        self.tasks
            .read()
            .get(&task)
            .map(|t| t.info.clone())
            .ok_or_else(|| Error::UnknownTask {
                name: task.to_string(),
            })
    }

    /// Looks up a task id by name.
    pub fn find_task(&self, name: &str) -> Option<TaskId> {
        self.tasks
            .read()
            .values()
            .find(|t| t.info.name == name)
            .map(|t| t.info.id)
    }

    /// Snapshot of every task, sorted by id.
    pub fn tasks(&self) -> Vec<TaskInfo> {
        let mut all: Vec<_> = self.tasks.read().values().map(|t| t.info.clone()).collect();
        all.sort_by_key(|t| t.id);
        all
    }
}

impl fmt::Debug for ResourceManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ResourceManager({} classes, {} tasks)",
            self.pools.read().len(),
            self.tasks.read().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_rejects_overcommit() {
        let rm = ResourceManager::new();
        rm.define_class(classes::CPU, 100);
        let t = rm.create_task("t").unwrap();
        rm.grant(t, classes::CPU, 60).unwrap();
        let err = rm.grant(t, classes::CPU, 60).unwrap_err();
        match err {
            Error::ResourceExhausted {
                requested,
                available,
                ..
            } => {
                assert_eq!(requested, 60);
                assert_eq!(available, 40);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn grants_accumulate_and_revoke_returns() {
        let rm = ResourceManager::new();
        rm.define_class(classes::MEMORY, 1000);
        let t = rm.create_task("t").unwrap();
        rm.grant(t, classes::MEMORY, 300).unwrap();
        rm.grant(t, classes::MEMORY, 200).unwrap();
        assert_eq!(rm.available(classes::MEMORY).unwrap(), 500);
        rm.revoke(t, classes::MEMORY, 400).unwrap();
        assert_eq!(rm.available(classes::MEMORY).unwrap(), 900);
        assert!(rm.revoke(t, classes::MEMORY, 400).is_err());
    }

    #[test]
    fn release_task_returns_all_grants() {
        let rm = ResourceManager::new();
        rm.define_class(classes::BANDWIDTH, 50);
        let a = rm.create_task("a").unwrap();
        let b = rm.create_task("b").unwrap();
        rm.grant(a, classes::BANDWIDTH, 20).unwrap();
        rm.grant(b, classes::BANDWIDTH, 20).unwrap();
        rm.release_task(a).unwrap();
        assert_eq!(rm.available(classes::BANDWIDTH).unwrap(), 30);
        assert!(rm.task_info(a).is_err());
        assert!(rm.task_info(b).is_ok());
    }

    #[test]
    fn consume_reports_headroom() {
        let rm = ResourceManager::new();
        rm.define_class(classes::CPU, 100);
        let t = rm.create_task("t").unwrap();
        rm.grant(t, classes::CPU, 50).unwrap();
        assert_eq!(rm.consume(t, classes::CPU, 10).unwrap(), 40);
        assert_eq!(rm.consume(t, classes::CPU, 45).unwrap(), 0); // over budget
        let info = rm.task_info(t).unwrap();
        assert_eq!(info.usage[classes::CPU], 55);
    }

    #[test]
    fn duplicate_task_names_rejected() {
        let rm = ResourceManager::new();
        rm.create_task("x").unwrap();
        assert!(rm.create_task("x").is_err());
    }

    #[test]
    fn attach_detach_components() {
        let rm = ResourceManager::new();
        let t = rm.create_task("t").unwrap();
        let c1 = ComponentId::from_raw(11);
        let c2 = ComponentId::from_raw(12);
        rm.attach(t, c1).unwrap();
        rm.attach(t, c2).unwrap();
        rm.attach(t, c1).unwrap(); // idempotent
        assert_eq!(rm.task_info(t).unwrap().attached.len(), 2);
        rm.detach(t, c1).unwrap();
        assert_eq!(rm.task_info(t).unwrap().attached, vec![c2]);
    }

    #[test]
    fn find_task_by_name() {
        let rm = ResourceManager::new();
        let t = rm.create_task("video").unwrap();
        assert_eq!(rm.find_task("video"), Some(t));
        assert_eq!(rm.find_task("audio"), None);
    }

    #[test]
    fn redimension_allows_overcommitted_state() {
        let rm = ResourceManager::new();
        rm.define_class(classes::CPU, 100);
        let t = rm.create_task("t").unwrap();
        rm.grant(t, classes::CPU, 80).unwrap();
        rm.define_class(classes::CPU, 50); // shrink below granted
        assert_eq!(rm.available(classes::CPU).unwrap(), 0);
        assert!(rm.grant(t, classes::CPU, 1).is_err());
        rm.revoke(t, classes::CPU, 40).unwrap();
        assert_eq!(rm.available(classes::CPU).unwrap(), 10);
    }
}
