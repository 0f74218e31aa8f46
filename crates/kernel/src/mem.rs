//! Accounted memory: quota-policed allocation tracking.
//!
//! Stratum 1 must offer "basic memory allocation" (paper §5) with the
//! fine-grained resource control of the resources meta-model. NETKIT-RS
//! does not replace the global allocator; instead, [`MemoryAccountant`]
//! tracks logical allocations per owner (a [`TaskId`]) against quotas, so
//! buffer pools and component tables can be policed and the footprint
//! experiment (E3) can report exact per-configuration numbers.

use std::collections::HashMap;
use std::fmt;

use opencom::error::{Error, Result};
use opencom::ident::TaskId;
use parking_lot::Mutex;

#[derive(Debug, Default, Clone, Copy)]
struct Account {
    quota: u64,
    used: u64,
    peak: u64,
}

/// Tracks logical memory use per owner against per-owner quotas.
///
/// # Examples
///
/// ```
/// use netkit_kernel::mem::MemoryAccountant;
/// use opencom::ident::TaskId;
///
/// let mem = MemoryAccountant::new(1024);
/// let task = TaskId::next();
/// mem.set_quota(task, 256);
/// mem.allocate(task, 200)?;
/// assert!(mem.allocate(task, 100).is_err()); // over task quota
/// mem.free(task, 200);
/// assert_eq!(mem.used(task), 0);
/// # Ok::<(), opencom::error::Error>(())
/// ```
pub struct MemoryAccountant {
    capacity: u64,
    total_used: Mutex<u64>,
    accounts: Mutex<HashMap<TaskId, Account>>,
}

impl MemoryAccountant {
    /// Creates an accountant with a global `capacity` in bytes.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            total_used: Mutex::new(0),
            accounts: Mutex::new(HashMap::new()),
        }
    }

    /// Sets (or updates) the quota for `owner`. A quota of `u64::MAX`
    /// means "bounded only by global capacity".
    pub fn set_quota(&self, owner: TaskId, quota: u64) {
        self.accounts.lock().entry(owner).or_default().quota = quota;
    }

    /// Records an allocation of `bytes` by `owner`.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::ResourceExhausted`] when the owner quota or the
    /// global capacity would be exceeded; nothing is recorded in that case.
    pub fn allocate(&self, owner: TaskId, bytes: u64) -> Result<()> {
        let mut total = self.total_used.lock();
        if *total + bytes > self.capacity {
            return Err(Error::ResourceExhausted {
                class: "memory".into(),
                requested: bytes,
                available: self.capacity - *total,
            });
        }
        let mut accounts = self.accounts.lock();
        let acct = accounts.entry(owner).or_insert(Account {
            quota: u64::MAX,
            used: 0,
            peak: 0,
        });
        if acct.quota != u64::MAX && acct.used + bytes > acct.quota {
            return Err(Error::ResourceExhausted {
                class: "memory".into(),
                requested: bytes,
                available: acct.quota - acct.used,
            });
        }
        acct.used += bytes;
        acct.peak = acct.peak.max(acct.used);
        *total += bytes;
        Ok(())
    }

    /// Records a free of `bytes` by `owner` (saturating).
    pub fn free(&self, owner: TaskId, bytes: u64) {
        let mut accounts = self.accounts.lock();
        if let Some(acct) = accounts.get_mut(&owner) {
            let freed = bytes.min(acct.used);
            acct.used -= freed;
            *self.total_used.lock() -= freed;
        }
    }

    /// Bytes currently attributed to `owner`.
    pub fn used(&self, owner: TaskId) -> u64 {
        self.accounts.lock().get(&owner).map_or(0, |a| a.used)
    }

    /// The owner's high-water mark.
    pub fn peak(&self, owner: TaskId) -> u64 {
        self.accounts.lock().get(&owner).map_or(0, |a| a.peak)
    }

    /// Bytes in use across all owners.
    fn total_used(&self) -> u64 {
        *self.total_used.lock()
    }

    /// Global capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

impl fmt::Debug for MemoryAccountant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MemoryAccountant({}/{} bytes, {} owners)",
            self.total_used(),
            self.capacity,
            self.accounts.lock().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_capacity_is_enforced() {
        let mem = MemoryAccountant::new(100);
        let a = TaskId::next();
        let b = TaskId::next();
        mem.allocate(a, 60).unwrap();
        let err = mem.allocate(b, 60).unwrap_err();
        assert!(matches!(
            err,
            Error::ResourceExhausted { available: 40, .. }
        ));
        assert_eq!(mem.total_used(), 60);
    }

    #[test]
    fn per_owner_quota_is_enforced() {
        let mem = MemoryAccountant::new(1_000_000);
        let t = TaskId::next();
        mem.set_quota(t, 128);
        mem.allocate(t, 100).unwrap();
        assert!(mem.allocate(t, 29).is_err());
        mem.allocate(t, 28).unwrap();
        assert_eq!(mem.used(t), 128);
    }

    #[test]
    fn failed_allocation_records_nothing() {
        let mem = MemoryAccountant::new(100);
        let t = TaskId::next();
        mem.set_quota(t, 10);
        assert!(mem.allocate(t, 11).is_err());
        assert_eq!(mem.used(t), 0);
        assert_eq!(mem.total_used(), 0);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mem = MemoryAccountant::new(1000);
        let t = TaskId::next();
        mem.allocate(t, 300).unwrap();
        mem.free(t, 200);
        mem.allocate(t, 100).unwrap();
        assert_eq!(mem.used(t), 200);
        assert_eq!(mem.peak(t), 300);
    }

    #[test]
    fn over_free_saturates() {
        let mem = MemoryAccountant::new(1000);
        let t = TaskId::next();
        mem.allocate(t, 50).unwrap();
        mem.free(t, 500);
        assert_eq!(mem.used(t), 0);
        assert_eq!(mem.total_used(), 0);
    }
}
