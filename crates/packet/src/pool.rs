//! Buffer-management component framework.
//!
//! Paper §5: "Components can also take advantage of our existing buffer
//! management CF." This module is that CF's engine: buffer pools with
//! recycling, statistics, and optional per-task quota policing through
//! the resources meta-model.
//!
//! A pool keeps two **slab classes**: full slabs of the pool's
//! `slab_size` (what [`BufferPool::take`] leases) and a fixed
//! [`SMALL_SLAB`]-byte class that [`BufferPool::take_for`] leases when
//! the bytes to hold fit. 128 bytes is two cache lines: a
//! minimum-size Ethernet frame (60–64 bytes) with as much again to
//! spare. No element in the tree grows a frame in place, and one that
//! did would be reclassed (below), so the spare room is slack, and
//! every byte of it is resident once per frame in flight. Without the
//! class, every 60-byte frame pinned a whole slab: one 1 024-frame
//! round of the ledger's bare workloads held 2 MiB of 2-KiB slabs for
//! 60 KiB of frames. A buffer returns to the class its capacity
//! qualifies for, so one an element grew past its class is reclassed,
//! and each class keeps at most `max_free` buffers on its free list.
//!
//! **One lock per lease and per return.** Each class keeps its free
//! list, its count of live buffers and its share of [`PoolStats`]
//! under one mutex, so a lease or a return that stays in its class is
//! one short critical section and nothing else — no counter atomics
//! beside it ([`BufferPool::stats`] sums the two classes). A
//! [`PooledBuf`] holds the pool by `Arc`, not `Weak`: returning costs
//! one lock and one refcount decrement, with no upgrade, and a buffer
//! that outlives every [`BufferPool`] handle still goes back to its
//! (now orphaned) free list, freed with the pool's last buffer. Only a
//! reclassed buffer touches both classes.
//!
//! A class that runs dry **doubles**: the miss allocates the buffer asked
//! for and puts as many more as the class already holds on its free list
//! (up to `max_free`). Under a mix of frame sizes each class's share of a
//! round is a random split of the round; grown one buffer at a time, a
//! class would allocate at every new high-water mark of that split for as
//! long as the traffic runs, where doubled it settles with headroom —
//! the steady state then allocates nothing (measured on the ledger's
//! IMIX workloads in `crates/bench/NOTES.md`, "Metering at array cost").

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use bytes::BytesMut;
use opencom::error::Result;
use opencom::ident::TaskId;
use opencom::meta::resources::{classes, ResourceManager};
use parking_lot::Mutex;

/// Bytes in a buffer of the small slab class (see the module docs).
pub const SMALL_SLAB: usize = 128;

/// Index of the small class in [`PoolInner::classes`].
const SMALL: usize = 0;
/// Index of the full-slab class.
const FULL: usize = 1;

/// Pool counters, summed over both slab classes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers served from a free list.
    pub reused: u64,
    /// Buffers freshly allocated because a class's free list was empty
    /// (the one asked for and the ones its doubling put aside).
    pub allocated: u64,
    /// Buffers returned to a free list on drop.
    pub recycled: u64,
    /// Buffers discarded on drop (their class's free list full, or too
    /// small for any class).
    pub discarded: u64,
}

/// What one class's lock guards.
struct ClassBooks {
    free: Vec<BytesMut>,
    /// Buffers of this class in existence: free or leased.
    live: usize,
    /// This class's share of the pool counters.
    stats: PoolStats,
}

/// One slab class: a free list of buffers of at least `size` bytes.
struct SlabClass {
    /// Capacity a fresh buffer of this class is allocated with.
    size: usize,
    books: Mutex<ClassBooks>,
}

impl SlabClass {
    fn new(size: usize, prealloc: usize) -> Self {
        Self {
            size,
            books: Mutex::new(ClassBooks {
                free: (0..prealloc)
                    .map(|_| BytesMut::with_capacity(size))
                    .collect(),
                live: prealloc,
                stats: PoolStats::default(),
            }),
        }
    }
}

struct PoolInner {
    slab_size: usize,
    max_free: usize,
    /// `[SMALL, FULL]`.
    classes: [SlabClass; 2],
}

impl PoolInner {
    /// The class a buffer of `capacity` bytes belongs to: the largest
    /// whose size it holds, none below the small class.
    #[inline]
    fn class_of(&self, capacity: usize) -> Option<usize> {
        if capacity >= self.slab_size {
            Some(FULL)
        } else if capacity >= SMALL_SLAB {
            Some(SMALL)
        } else {
            None
        }
    }

    /// A buffer of `class`: a recycled one, else a fresh one — and, on
    /// that miss, the class's doubling onto its free list.
    #[inline]
    fn lease(&self, class: usize) -> BytesMut {
        let slabs = &self.classes[class];
        let mut books = slabs.books.lock();
        if let Some(mut buf) = books.free.pop() {
            books.stats.reused += 1;
            drop(books);
            buf.clear();
            return buf;
        }
        let spare = (books.live.max(1) - 1).min(self.max_free);
        books
            .free
            .extend((0..spare).map(|_| BytesMut::with_capacity(slabs.size)));
        books.live += 1 + spare;
        books.stats.allocated += 1 + spare as u64;
        drop(books);
        BytesMut::with_capacity(slabs.size)
    }

    /// Takes back a buffer leased from class `leased`: onto the free
    /// list of the class its capacity qualifies for now, if that has
    /// room; otherwise it is discarded. A buffer that stays in its
    /// class — kept or discarded — costs that class's lock once.
    #[inline]
    fn give_back(&self, leased: usize, buf: BytesMut) {
        let home = self.class_of(buf.capacity());
        let target = home.unwrap_or(leased);
        let mut books = self.classes[target].books.lock();
        let discarded = if home.is_some() && books.free.len() < self.max_free {
            books.free.push(buf);
            books.stats.recycled += 1;
            books.live += 1;
            None
        } else {
            books.stats.discarded += 1;
            Some(buf)
        };
        // The leased class loses the buffer: net nothing for the
        // common case, kept where it came from.
        if target == leased {
            books.live -= 1;
            drop(books);
        } else {
            drop(books);
            self.classes[leased].books.lock().live -= 1;
        }
        // A discarded buffer is freed outside every lock.
        drop(discarded);
    }
}

/// A two-class buffer pool: full slabs plus [`SMALL_SLAB`]-byte ones.
///
/// # Examples
///
/// ```
/// use netkit_packet::pool::{BufferPool, SMALL_SLAB};
///
/// let pool = BufferPool::new(2048, 0, 8);
/// let buf = pool.take();
/// assert!(buf.capacity() >= 2048);
/// drop(buf); // recycled
/// let _again = pool.take();
/// assert_eq!(pool.stats().reused, 1);
/// // Bytes that fit the small class lease a small buffer.
/// assert_eq!(pool.take_for(60).capacity(), SMALL_SLAB);
/// ```
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl BufferPool {
    /// Creates a pool of `slab_size`-byte buffers (plus the small
    /// class), preallocating `prealloc` full slabs and keeping at most
    /// `max_free` buffers on each class's free list.
    pub fn new(slab_size: usize, prealloc: usize, max_free: usize) -> Self {
        Self {
            inner: Arc::new(PoolInner {
                slab_size,
                max_free,
                classes: [
                    SlabClass::new(SMALL_SLAB, 0),
                    SlabClass::new(slab_size, prealloc),
                ],
            }),
        }
    }

    #[inline]
    fn wrap(&self, class: usize) -> PooledBuf {
        PooledBuf {
            buf: Some(self.inner.lease(class)),
            class,
            pool: Arc::clone(&self.inner),
        }
    }

    /// Takes a cleared full slab from the pool (allocating when empty).
    #[inline]
    pub fn take(&self) -> PooledBuf {
        self.wrap(FULL)
    }

    /// Takes a cleared buffer for `len` bytes: a small one when `len`
    /// fits [`SMALL_SLAB`] (and that is smaller than a slab), else a
    /// full slab — how the NIC's rx path sizes a frame's buffer.
    #[inline]
    pub fn take_for(&self, len: usize) -> PooledBuf {
        if len <= SMALL_SLAB && SMALL_SLAB < self.inner.slab_size {
            self.wrap(SMALL)
        } else {
            self.take()
        }
    }

    /// Takes a full slab, charging `slab_size` bytes of the task's
    /// memory grant in the resources meta-model first.
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

    /// Buffers currently on the free lists, both classes.
    pub fn free_count(&self) -> usize {
        self.inner
            .classes
            .iter()
            .map(|c| c.books.lock().free.len())
            .sum()
    }

    /// Snapshot of pool counters, summed over the two classes.
    pub fn stats(&self) -> PoolStats {
        self.inner
            .classes
            .iter()
            .fold(PoolStats::default(), |sum, c| {
                let s = c.books.lock().stats;
                PoolStats {
                    reused: sum.reused + s.reused,
                    allocated: sum.allocated + s.allocated,
                    recycled: sum.recycled + s.recycled,
                    discarded: sum.discarded + s.discarded,
                }
            })
    }

    /// Approximate resident bytes (free lists only, each buffer at its
    /// class's size; outstanding buffers are owned by their takers).
    pub fn footprint_bytes(&self) -> usize {
        self.inner
            .classes
            .iter()
            .map(|c| c.books.lock().free.len() * c.size)
            .sum::<usize>()
            + std::mem::size_of::<PoolInner>()
    }
}

impl fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BufferPool(slabs {}/{} bytes, {} free, stats {:?})",
            SMALL_SLAB,
            self.inner.slab_size,
            self.free_count(),
            self.stats()
        )
    }
}

/// A pooled buffer that returns to its pool on drop.
pub struct PooledBuf {
    buf: Option<BytesMut>,
    /// The class it was leased from.
    class: usize,
    /// Held strongly, so a return never upgrades (see the module docs).
    pool: Arc<PoolInner>,
}

impl PooledBuf {
    /// Detaches the buffer from the pool (it will not be recycled).
    pub fn into_bytes(mut self) -> BytesMut {
        self.pool.classes[self.class].books.lock().live -= 1;
        self.buf.take().expect("buffer present until drop")
    }
}

impl Deref for PooledBuf {
    type Target = BytesMut;
    #[inline]
    fn deref(&self) -> &BytesMut {
        self.buf.as_ref().expect("buffer present until drop")
    }
}

impl DerefMut for PooledBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut BytesMut {
        self.buf.as_mut().expect("buffer present until drop")
    }
}

impl Drop for PooledBuf {
    #[inline]
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.give_back(self.class, buf);
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
        // Five takes: 1, 1, 2 (one spare) and, at the fifth, 4 — of
        // which only the two that fit the free list are put aside.
        assert_eq!(pool.stats().allocated, 7);
        assert_eq!(pool.free_count(), 2);
        drop(bufs);
        assert_eq!(pool.free_count(), 2);
        let s = pool.stats();
        assert_eq!((s.recycled, s.discarded), (0, 5));
    }

    #[test]
    fn detached_buffers_are_not_recycled() {
        let pool = BufferPool::new(64, 0, 4);
        let b = pool.take();
        let bytes = b.into_bytes();
        drop(bytes);
        assert_eq!(pool.free_count(), 0);
        assert_eq!(pool.stats().recycled, 0);
        // Detached, it no longer counts towards the class: the next
        // miss allocates one buffer, not two.
        let _again = pool.take();
        assert_eq!(pool.stats().allocated, 2);
        assert_eq!(pool.free_count(), 0);
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
        let (b1, headroom1) = pool.take_accounted(&rm, task).unwrap();
        assert_eq!(headroom1, 2048);
        // A full slab is charged, and a full slab is what is leased.
        assert!(b1.capacity() >= 2048);
        let (_b2, headroom2) = pool.take_accounted(&rm, task).unwrap();
        assert_eq!(headroom2, 0);
        let info = rm.task_info(task).unwrap();
        assert_eq!(info.usage[classes::MEMORY], 4096);
    }

    #[test]
    fn pool_survives_while_buffers_outstanding() {
        let pool = BufferPool::new(64, 0, 4);
        let (a, b) = (pool.take(), pool.take());
        let orphan = Arc::downgrade(&a.pool);
        drop(pool);
        // No handle is left; the buffer still goes back to the
        // orphaned free list, without panicking.
        drop(a);
        let inner = orphan
            .upgrade()
            .expect("an outstanding buffer holds the pool");
        {
            let books = inner.classes[FULL].books.lock();
            assert_eq!((books.free.len(), books.stats.recycled), (1, 1));
        }
        drop(inner);
        // The last buffer's return frees the pool and its free list.
        drop(b);
        assert!(orphan.upgrade().is_none());
    }

    /// `(free list length, live)` of each class.
    fn class_books(pool: &BufferPool) -> [(usize, usize); 2] {
        [SMALL, FULL].map(|c| {
            let books = pool.inner.classes[c].books.lock();
            (books.free.len(), books.live)
        })
    }

    #[test]
    fn books_close_with_leases_on_one_thread_and_returns_on_two() {
        const ROUND: usize = 512;
        const MAX_FREE: usize = 512;
        let pool = BufferPool::new(2048, 0, MAX_FREE);
        let mut state = 11u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize
        };
        // One round: `ROUND` leases at random lengths, 60 % small; one
        // in eight grown past its class's size — within the class
        // (`grow_within`), or a small one past a slab, to be reclassed.
        let mut round = |grow_within: bool| -> Vec<PooledBuf> {
            (0..ROUND)
                .map(|_| {
                    let len = if next() % 10 < 6 {
                        1 + next() % SMALL_SLAB
                    } else {
                        SMALL_SLAB + 1 + next() % (2048 - SMALL_SLAB)
                    };
                    let mut buf = pool.take_for(len);
                    buf.resize(len, 0);
                    if next() % 8 == 0 {
                        let small = buf.capacity() < 2048;
                        let grown = match (small, grow_within) {
                            (true, true) => 1000,
                            (true, false) => 3000,
                            (false, _) => 4096,
                        };
                        buf.resize(grown, 0);
                    }
                    buf
                })
                .collect()
        };
        let mut returns = 0u64;
        let mut phase = |mut left: Vec<PooledBuf>| {
            returns += left.len() as u64;
            let right = left.split_off(left.len() / 2);
            std::thread::scope(|s| {
                s.spawn(move || drop(left));
                s.spawn(move || drop(right));
            });
            let stats = pool.stats();
            assert_eq!(stats.recycled + stats.discarded, returns, "{stats:?}");
            for (free, _) in class_books(&pool) {
                assert!(free <= MAX_FREE);
            }
        };
        // Growth within a class: after warm-up nothing is allocated.
        for _ in 0..8 {
            phase(round(true));
        }
        let warm = pool.stats();
        for _ in 0..32 {
            phase(round(true));
        }
        let steady = pool.stats();
        assert_eq!(steady.allocated, warm.allocated, "{steady:?}");
        assert_eq!(steady.discarded, 0);
        // Small buffers grown past a slab are reclassed into the full
        // class (or discarded once its free list is full): the books
        // still close, and no free list passes `max_free`.
        for _ in 0..8 {
            phase(round(false));
        }
        let [(small_free, small_live), (full_free, full_live)] = class_books(&pool);
        assert_eq!(
            (small_free, full_free),
            (small_live, full_live),
            "all returned"
        );
    }

    #[test]
    fn frames_draw_from_their_class_and_recycle_to_it() {
        let pool = BufferPool::new(2048, 0, 8);
        let small = pool.take_for(60);
        let full = pool.take_for(1500);
        assert_eq!(small.capacity(), SMALL_SLAB);
        assert!(full.capacity() >= 2048);
        assert_eq!(pool.stats().allocated, 2, "one buffer of each class");
        drop((small, full));
        assert_eq!(pool.stats().recycled, 2);
        // Each comes back from its own class: nothing new allocated,
        // and neither class lent the other its buffer.
        let (small, full) = (pool.take_for(64), pool.take_for(1500));
        assert_eq!(small.capacity(), SMALL_SLAB);
        assert!(full.capacity() >= 2048);
        assert_eq!((pool.stats().reused, pool.stats().allocated), (2, 2));
        // `take` always leases a full slab, whatever the small class holds.
        drop(small);
        assert!(pool.take().capacity() >= 2048);
        // Below the small class's size there is no small class.
        let tiny = BufferPool::new(128, 0, 8);
        assert!(tiny.take_for(60).capacity() >= 128);
    }

    #[test]
    fn grown_buffers_are_reclassed_by_capacity_or_discarded() {
        let pool = BufferPool::new(2048, 0, 1);
        // A small buffer grown past a slab returns as a full slab.
        let mut grown = pool.take_for(60);
        grown.extend_from_slice(&[0u8; 3000]);
        drop(grown);
        let reclassed = pool.take();
        assert!(reclassed.capacity() >= 3000, "the grown buffer came back");
        assert_eq!(
            pool.stats().allocated,
            1,
            "the full class allocated nothing"
        );
        // A small buffer grown part-way still fits the small class.
        let mut part = pool.take_for(60);
        part.extend_from_slice(&[0u8; 600]);
        drop(part);
        assert!(pool.take_for(60).capacity() >= 600);
        // With its class's free list full, a returning buffer is
        // discarded.
        drop(reclassed);
        let mut second = pool.take_for(60);
        second.extend_from_slice(&[0u8; 3000]);
        drop(second);
        assert_eq!(pool.free_count(), 1, "max_free is per class");
        assert_eq!(pool.stats().discarded, 1);
    }

    #[test]
    fn a_steady_imix_mix_allocates_nothing() {
        // The ledger's edge round: 1 024 frames at IMIX sizes 64 / 576 /
        // 1 500 in 7 : 4 : 1, all leased at once, then all dropped. Each
        // class's share of a round is random; doubled, the classes
        // settle at 1 024 small and 512 full slabs, several standard
        // deviations above either share.
        let pool = BufferPool::new(2048, 0, 4096);
        let mut state = 7u64;
        let mut round = || -> Vec<PooledBuf> {
            (0..1024)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let len = match (state >> 33) % 12 {
                        0..=6 => 64,
                        7..=10 => 576,
                        _ => 1500,
                    };
                    let mut buf = pool.take_for(len);
                    buf.resize(len, 0);
                    buf
                })
                .collect()
        };
        for _ in 0..8 {
            drop(round());
        }
        let warm = pool.stats();
        for _ in 0..256 {
            drop(round());
        }
        let steady = pool.stats();
        assert_eq!(steady.allocated, warm.allocated, "{steady:?}");
        assert_eq!(steady.discarded, 0);
        assert_eq!(steady.reused - warm.reused, 256 * 1024);
    }
}
