//! Buffer-management component framework.
//!
//! Paper §5: "Components can also take advantage of our existing buffer
//! management CF." This module is that CF's engine: fixed-slab buffer
//! pools with recycling, statistics, and optional per-task quota policing
//! through the resources meta-model.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use bytes::BytesMut;
use opencom::error::Result;
use opencom::ident::TaskId;
use opencom::meta::resources::{classes, ResourceManager};
use parking_lot::Mutex;

/// Pool counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers served from the free list.
    pub reused: u64,
    /// Buffers freshly allocated because the free list was empty.
    pub allocated: u64,
    /// Buffers returned to the free list on drop.
    pub recycled: u64,
    /// Buffers discarded on drop (free list full or buffer resized).
    pub discarded: u64,
}

struct PoolInner {
    slab_size: usize,
    max_free: usize,
    free: Mutex<Vec<BytesMut>>,
    reused: AtomicU64,
    allocated: AtomicU64,
    recycled: AtomicU64,
    discarded: AtomicU64,
}

/// A fixed-slab buffer pool.
///
/// # Examples
///
/// ```
/// use netkit_packet::pool::BufferPool;
///
/// let pool = BufferPool::new(2048, 0, 8);
/// let buf = pool.take();
/// assert!(buf.capacity() >= 2048);
/// drop(buf); // recycled
/// let _again = pool.take();
/// assert_eq!(pool.stats().reused, 1);
/// ```
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl BufferPool {
    /// Creates a pool of `slab_size`-byte buffers, preallocating
    /// `prealloc` and keeping at most `max_free` on the free list.
    pub fn new(slab_size: usize, prealloc: usize, max_free: usize) -> Self {
        let free = (0..prealloc)
            .map(|_| BytesMut::with_capacity(slab_size))
            .collect();
        Self {
            inner: Arc::new(PoolInner {
                slab_size,
                max_free,
                free: Mutex::new(free),
                reused: AtomicU64::new(0),
                allocated: AtomicU64::new(0),
                recycled: AtomicU64::new(0),
                discarded: AtomicU64::new(0),
            }),
        }
    }

    /// Takes a cleared buffer from the pool (allocating when empty).
    pub fn take(&self) -> PooledBuf {
        let recycled = self.inner.free.lock().pop();
        let buf = match recycled {
            Some(mut b) => {
                b.clear();
                self.inner.reused.fetch_add(1, Ordering::Relaxed);
                b
            }
            None => {
                self.inner.allocated.fetch_add(1, Ordering::Relaxed);
                BytesMut::with_capacity(self.inner.slab_size)
            }
        };
        PooledBuf {
            buf: Some(buf),
            pool: Arc::downgrade(&self.inner),
        }
    }

    /// Takes a buffer, charging `slab_size` bytes of the task's memory
    /// grant in the resources meta-model first.
    ///
    /// # Errors
    ///
    /// Fails with [`opencom::error::Error::UnknownTask`] for unknown
    /// tasks. (Exhausting the grant is reported by `consume` semantics:
    /// the returned headroom reaches zero but the take still succeeds —
    /// policing is the caller's decision, matching the meta-model.)
    pub fn take_accounted(&self, rm: &ResourceManager, task: TaskId) -> Result<(PooledBuf, u64)> {
        let headroom = rm.consume(task, classes::MEMORY, self.inner.slab_size as u64)?;
        Ok((self.take(), headroom))
    }

    /// Buffers currently on the free list.
    pub fn free_count(&self) -> usize {
        self.inner.free.lock().len()
    }

    /// Snapshot of pool counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            reused: self.inner.reused.load(Ordering::Relaxed),
            allocated: self.inner.allocated.load(Ordering::Relaxed),
            recycled: self.inner.recycled.load(Ordering::Relaxed),
            discarded: self.inner.discarded.load(Ordering::Relaxed),
        }
    }

    /// Approximate resident bytes (free list only; outstanding buffers
    /// are owned by their takers).
    pub fn footprint_bytes(&self) -> usize {
        self.free_count() * self.inner.slab_size + std::mem::size_of::<PoolInner>()
    }
}

impl fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BufferPool(slab {} bytes, {} free, stats {:?})",
            self.inner.slab_size,
            self.free_count(),
            self.stats()
        )
    }
}

/// A pooled buffer that returns to its pool on drop.
pub struct PooledBuf {
    buf: Option<BytesMut>,
    pool: Weak<PoolInner>,
}

impl PooledBuf {
    /// Detaches the buffer from the pool (it will not be recycled).
    pub fn into_bytes(mut self) -> BytesMut {
        self.buf.take().expect("buffer present until drop")
    }
}

impl Deref for PooledBuf {
    type Target = BytesMut;
    fn deref(&self) -> &BytesMut {
        self.buf.as_ref().expect("buffer present until drop")
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut BytesMut {
        self.buf.as_mut().expect("buffer present until drop")
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        let Some(buf) = self.buf.take() else { return };
        let Some(pool) = self.pool.upgrade() else {
            return;
        };
        let mut free = pool.free.lock();
        // Only recycle buffers that kept their slab capacity; grown or
        // split buffers would poison the pool's size invariant.
        if free.len() < pool.max_free && buf.capacity() >= pool.slab_size {
            free.push(buf);
            pool.recycled.fetch_add(1, Ordering::Relaxed);
        } else {
            pool.discarded.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.buf {
            Some(b) => write!(f, "PooledBuf({} bytes of {})", b.len(), b.capacity()),
            None => write!(f, "PooledBuf(detached)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycle_roundtrip() {
        let pool = BufferPool::new(1500, 0, 4);
        {
            let mut b = pool.take();
            b.extend_from_slice(b"payload");
            assert_eq!(b.len(), 7);
        }
        let s = pool.stats();
        assert_eq!((s.allocated, s.recycled), (1, 1));
        let b2 = pool.take();
        assert!(b2.is_empty(), "recycled buffer is cleared");
        assert_eq!(pool.stats().reused, 1);
    }

    #[test]
    fn free_list_is_bounded() {
        let pool = BufferPool::new(64, 0, 2);
        let bufs: Vec<_> = (0..5).map(|_| pool.take()).collect();
        drop(bufs);
        assert_eq!(pool.free_count(), 2);
        let s = pool.stats();
        assert_eq!((s.recycled, s.discarded), (2, 3));
    }

    #[test]
    fn detached_buffers_are_not_recycled() {
        let pool = BufferPool::new(64, 0, 4);
        let b = pool.take();
        let bytes = b.into_bytes();
        drop(bytes);
        assert_eq!(pool.free_count(), 0);
        assert_eq!(pool.stats().recycled, 0);
    }

    #[test]
    fn preallocated_buffers_serve_first() {
        let pool = BufferPool::new(128, 3, 8);
        assert_eq!(pool.free_count(), 3);
        let _b = pool.take();
        assert_eq!(pool.stats().reused, 1);
        assert_eq!(pool.stats().allocated, 0);
    }

    #[test]
    fn accounted_take_charges_task() {
        let rm = ResourceManager::new();
        rm.define_class(classes::MEMORY, 10_000);
        let task = rm.create_task("buffers").unwrap();
        rm.grant(task, classes::MEMORY, 4096).unwrap();
        let pool = BufferPool::new(2048, 0, 4);
        let (_b1, headroom1) = pool.take_accounted(&rm, task).unwrap();
        assert_eq!(headroom1, 2048);
        let (_b2, headroom2) = pool.take_accounted(&rm, task).unwrap();
        assert_eq!(headroom2, 0);
        let info = rm.task_info(task).unwrap();
        assert_eq!(info.usage[classes::MEMORY], 4096);
    }

    #[test]
    fn pool_survives_while_buffers_outstanding() {
        let pool = BufferPool::new(64, 0, 4);
        let b = pool.take();
        drop(pool);
        drop(b); // pool inner gone; drop must not panic
    }
}
