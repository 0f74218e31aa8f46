//! Sketch-based traffic summaries: count-min and Space-Saving.
//!
//! [`crate::steer::BucketLoad`] counts *packets per RSS bucket* — 256
//! uniform cells that cannot tell one elephant flow from a thousand
//! mice sharing its bucket. The sketches here summarise *per-flow
//! byte weight* in bounded memory: [`CountMinSketch`] answers point
//! queries ("how many bytes did flow `h` carry this window?") with a
//! one-sided (ε, δ) error bound, and [`SpaceSaving`] maintains the
//! top-k heavy hitters with a deterministic containment guarantee.
//! [`FlowSketch`] combines both behind the same
//! record / peek ([`FlowSketch::snapshot`]) / [`FlowSketch::decay`] /
//! [`FlowSketch::retire`] window discipline `BucketLoad` uses, so the
//! control plane can treat byte evidence and packet evidence
//! identically: peek a window, judge it, then either retire exactly
//! what was judged (decision applied) or decay (decision declined).
//!
//! Concurrency contract (mirrors `BucketLoad`): the `record_*`
//! methods are safe from any thread at any time; the window-closing
//! operations (`decay`, `retire`) assume a single consumer — the
//! control plane — and only ever subtract amounts they observed, so
//! concurrent recording survives them without loss.
//!
//! Cost. Every sharded worker meters every packet here before its graph
//! runs. No isolated ledger lane prices it (the lanes enter the graph);
//! only the traced round's `router.shard.wait_ns` holds it. The
//! recording path is kept at array cost: count-min adds to `depth`
//! relaxed atomics per packet, and the Space-Saving side is a flat array
//! of `capacity` slots scanned linearly, locked once per batch by
//! [`FlowSketch::record_batch`], with the running total added once per
//! batch. In situ — timed around `record_batch` inside the sharded
//! worker's handler, default geometry, 2 shared vCPUs — that costs
//! 176–218 ns per packet on the ledger's `bare_dispatch` and
//! `edge_mixed`, more than the whole bare graph it meters (73–91 ns per
//! packet), and the shared [`crate::steer::BucketLoad`] beside it
//! another 22–26 (`crates/bench/NOTES.md`, "The per-packet path inlines
//! across crate boundaries"; ROADMAP E4).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::packet::Packet;

/// murmur3's 64-bit finaliser: a full-avalanche bijection, the same
/// mix [`crate::flow::FlowKey::rss_hash`] finishes with.
#[inline]
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Fixed per-row seeds: `fmix64` of odd constants, so every row hashes
/// the same key to an independent-looking column. Deterministic across
/// runs and platforms — sketch placement is reproducible, like RSS.
#[inline]
fn row_seed(row: usize) -> u64 {
    fmix64(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(2 * row as u64 + 1))
}

/// A count-min sketch over 64-bit flow hashes.
///
/// `depth` rows of `width` counters; recording adds the weight to one
/// counter per row, estimating takes the minimum over rows. The
/// classic guarantee: with `width = ⌈e/ε⌉` and `depth = ⌈ln(1/δ)⌉`
/// (see [`Self::with_error`]), a point query never under-counts and
/// over-counts by more than `ε · N` with probability at least `1 − δ`,
/// where `N` is the total recorded weight.
///
/// Counters are relaxed atomics; see the
/// [module docs](self) for the record/peek/decay/retire contract.
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    /// Row-major `depth × width` counter matrix.
    cells: Vec<AtomicU64>,
}

impl CountMinSketch {
    /// Creates a sketch with explicit dimensions (both clamped to ≥ 1).
    pub fn new(width: usize, depth: usize) -> Self {
        let width = width.max(1);
        let depth = depth.max(1);
        let mut cells = Vec::with_capacity(width * depth);
        cells.resize_with(width * depth, || AtomicU64::new(0));
        Self {
            width,
            depth,
            cells,
        }
    }

    /// Creates a sketch sized for the (ε, δ) guarantee:
    /// `width = ⌈e/ε⌉`, `depth = ⌈ln(1/δ)⌉`.
    pub fn with_error(epsilon: f64, delta: f64) -> Self {
        let epsilon = epsilon.clamp(1e-9, 1.0);
        let delta = delta.clamp(1e-9, 1.0 - 1e-9);
        let width = (std::f64::consts::E / epsilon).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil() as usize;
        Self::new(width, depth)
    }

    /// Number of counters per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The ε this geometry guarantees (`e / width`).
    pub fn epsilon(&self) -> f64 {
        std::f64::consts::E / self.width as f64
    }

    /// The δ this geometry guarantees (`e^-depth`).
    pub fn delta(&self) -> f64 {
        (-(self.depth as f64)).exp()
    }

    #[inline]
    fn column(&self, row: usize, hash: u64) -> usize {
        let mixed = fmix64(hash ^ row_seed(row));
        // The default geometries use power-of-two widths; masking
        // replaces the 64-bit division on the per-packet record and
        // admission-check paths.
        if self.width.is_power_of_two() {
            (mixed as usize) & (self.width - 1)
        } else {
            (mixed % self.width as u64) as usize
        }
    }

    /// Adds `weight` to the key's counter in every row. Any thread.
    #[inline]
    pub fn record(&self, hash: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        for row in 0..self.depth {
            let col = self.column(row, hash);
            self.cells[row * self.width + col].fetch_add(weight, Ordering::Relaxed);
        }
    }

    /// Point query: the minimum over rows — never an under-count.
    #[inline]
    pub fn estimate(&self, hash: u64) -> u64 {
        (0..self.depth)
            .map(|row| {
                let col = self.column(row, hash);
                self.cells[row * self.width + col].load(Ordering::Relaxed)
            })
            .min()
            .unwrap_or(0)
    }

    /// Whether the key's weight is provably below `threshold` — i.e.
    /// `estimate(hash) < threshold` — exiting at the first row that
    /// proves it. The estimate is the minimum over rows, so one row
    /// below the threshold settles the question; for the common case
    /// (a light key, every row small) this is a single counter read
    /// instead of `depth`.
    #[inline]
    pub fn below(&self, hash: u64, threshold: u64) -> bool {
        (0..self.depth).any(|row| {
            let col = self.column(row, hash);
            self.cells[row * self.width + col].load(Ordering::Relaxed) < threshold
        })
    }

    /// Total recorded weight: the minimum row sum (rows agree exactly
    /// in quiescence; under concurrent recording the minimum is the
    /// conservative choice).
    pub fn total(&self) -> u64 {
        (0..self.depth)
            .map(|row| {
                self.cells[row * self.width..(row + 1) * self.width]
                    .iter()
                    .map(|c| c.load(Ordering::Relaxed))
                    .sum::<u64>()
            })
            .min()
            .unwrap_or(0)
    }

    /// Copies the current counter matrix (row-major) — the peek half
    /// of peek-then-commit.
    pub fn snapshot(&self) -> Vec<u64> {
        self.cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Adds a previously [`Self::snapshot`]-ed matrix from a sketch of
    /// the **same geometry** into this one — how per-shard sketches
    /// merge into a global view (count-min is mergeable cell-wise).
    ///
    /// # Panics
    ///
    /// Panics if `cells` does not hold `depth × width` entries.
    pub fn absorb(&self, cells: &[u64]) {
        assert_eq!(
            cells.len(),
            self.cells.len(),
            "one cell per counter (same geometry)"
        );
        for (c, &w) in self.cells.iter().zip(cells) {
            if w > 0 {
                c.fetch_add(w, Ordering::Relaxed);
            }
        }
    }

    /// One exponential decay step: every counter keeps an `alpha`
    /// fraction (clamped to `[0, 1]`), rounding down. Only the
    /// *observed* amount is shed, so weight recorded concurrently
    /// survives in full. Single-consumer.
    pub fn decay(&self, alpha: f64) {
        let alpha = alpha.clamp(0.0, 1.0);
        for c in &self.cells {
            let cur = c.load(Ordering::Relaxed);
            let shed = cur - (cur as f64 * alpha) as u64;
            if shed > 0 {
                // Subtract-what-was-seen keeps concurrent increments.
                c.fetch_sub(shed, Ordering::Relaxed);
            }
        }
    }

    /// Subtracts a previously [`Self::snapshot`]-ed matrix (saturating
    /// per cell) — the commit half of peek-then-commit: an applied
    /// decision retires exactly the evidence it was planned on.
    ///
    /// # Panics
    ///
    /// Panics if `cells` does not hold `depth × width` entries.
    pub fn retire(&self, cells: &[u64]) {
        assert_eq!(
            cells.len(),
            self.cells.len(),
            "one cell per counter (same geometry)"
        );
        for (c, &judged) in self.cells.iter().zip(cells) {
            if judged == 0 {
                continue;
            }
            let mut cur = c.load(Ordering::Relaxed);
            loop {
                let next = cur.saturating_sub(judged);
                match c.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        }
    }

    /// Fixed memory footprint of the counter matrix in bytes.
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.cells.len() * std::mem::size_of::<AtomicU64>()
    }
}

impl fmt::Debug for CountMinSketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CountMinSketch({}x{}, {} total, eps {:.4}, delta {:.4})",
            self.depth,
            self.width,
            self.total(),
            self.epsilon(),
            self.delta()
        )
    }
}

/// One reported heavy hitter: a flow hash with its estimated weight.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HeavyHitter {
    /// The flow's RSS hash ([`crate::flow::FlowKey::rss_hash`]) —
    /// direction-symmetric, and reducible to the flow's steering
    /// bucket via [`crate::steer::bucket_of`].
    pub hash: u64,
    /// Maximum possible over-count baked into `weight` (the evicted
    /// counter's value at takeover, per Space-Saving).
    pub error: u64,
    /// Estimated weight (bytes, under [`FlowSketch`]'s discipline).
    /// Never an under-count: `true ≤ weight ≤ true + error`.
    pub weight: u64,
}

/// A Space-Saving counter: estimated weight plus over-count bound.
#[derive(Clone, Copy, Debug, Default)]
struct SsCounter {
    weight: u64,
    error: u64,
}

/// The Space-Saving top-k heavy-hitter summary (Metwally et al.).
///
/// At most `capacity` monitored flows. Recording a monitored flow adds
/// to its counter; an unmonitored flow takes over the minimum counter
/// (ties: the smaller hash), inheriting its weight as the new entry's
/// error bound. Deterministic guarantees, for total recorded weight `N`:
///
/// * every flow with true weight `> N / capacity` is monitored, and
/// * every reported weight satisfies `true ≤ weight ≤ true + N/capacity`.
///
/// The monitored set is a flat array of at most `capacity`
/// `(hash, counter)` slots in no particular order: a linear scan finds
/// the flow or, failing that, a second finds the minimum to take over.
/// At the default `capacity` of 32 that is 768 contiguous bytes, which
/// a scan walks faster than a hash map is probed — and a miss, the
/// common case when many flows share a shard, needed a full walk of the
/// map anyway.
/// In isolation, at k = 32 over 1 024 uniform flows, a record took
/// ≈ 90 ns where the `HashMap` it replaced took ≈ 400
/// (`crates/bench/NOTES.md`, "Metering at array cost"). In situ, with
/// count-min beside it, [`FlowSketch::record_batch`] costs 176–218 ns
/// per packet on a sharded worker (same file, "The per-packet path
/// inlines across crate boundaries").
///
/// The inner state sits behind a mutex, but the intended deployment is
/// **uncontended by construction**: one instance per shard, recorded
/// into only by that shard's worker (RSS affinity — the same
/// single-writer argument as the per-shard flow tables), peeked by the
/// single control-plane consumer. [`FlowSketch::record_batch`] takes
/// the lock once per batch.
pub struct SpaceSaving {
    capacity: usize,
    total: AtomicU64,
    inner: Mutex<Vec<(u64, SsCounter)>>,
}

impl SpaceSaving {
    /// Creates a summary monitoring at most `capacity` flows (≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            total: AtomicU64::new(0),
            inner: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    /// Maximum number of monitored flows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total recorded weight across all flows (monitored or not).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The containment threshold: any flow whose true weight exceeds
    /// `total() / capacity()` is guaranteed to be monitored.
    pub fn threshold(&self) -> u64 {
        self.total() / self.capacity as u64
    }

    /// Records `weight` for `hash`. Any thread (serialised internally;
    /// uncontended in the per-shard single-writer deployment).
    pub fn record(&self, hash: u64, weight: u64) {
        self.record_all([(hash, weight)]);
    }

    /// Records every `(hash, weight)` under one lock acquisition, and
    /// adds their sum to the running total once, inside it.
    #[inline]
    fn record_all(&self, items: impl IntoIterator<Item = (u64, u64)>) {
        let mut slots = self.inner.lock();
        let mut added = 0;
        for (hash, weight) in items {
            if weight > 0 {
                added += weight;
                self.bump(&mut slots, hash, weight);
            }
        }
        if added > 0 {
            self.total.fetch_add(added, Ordering::Relaxed);
        }
    }

    /// One Space-Saving step on the slot array: a monitored `hash` adds
    /// to its counter; otherwise, once the array is full, it takes over
    /// the slot with the minimum `(weight, hash)`, whose weight becomes
    /// the new entry's error.
    #[inline]
    fn bump(&self, slots: &mut Vec<(u64, SsCounter)>, hash: u64, weight: u64) {
        if let Some((_, c)) = slots.iter_mut().find(|(h, _)| *h == hash) {
            c.weight += weight;
            return;
        }
        if slots.len() < self.capacity {
            slots.push((hash, SsCounter { weight, error: 0 }));
            return;
        }
        // A second pass with `(weight, hash)` as one `u128` key: on a
        // uniform mix the comparisons are coin flips, and this form
        // scans in under half the time a fused find-and-track-minimum
        // loop took (NOTES.md, "Metering at array cost").
        let mut min = (u128::MAX, 0);
        for (i, (h, c)) in slots.iter().enumerate() {
            let key = u128::from(c.weight) << 64 | u128::from(*h);
            if key < min.0 {
                min = (key, i);
            }
        }
        let victim = min.1;
        let floor = slots[victim].1.weight;
        slots[victim] = (
            hash,
            SsCounter {
                weight: floor + weight,
                error: floor,
            },
        );
    }

    /// The monitored flows, heaviest first (ties by smaller hash, so
    /// the order is deterministic). This is the peek half of
    /// peek-then-commit for the top-k side.
    pub fn top(&self) -> Vec<HeavyHitter> {
        let inner = self.inner.lock();
        let mut out: Vec<HeavyHitter> = inner
            .iter()
            .map(|&(hash, c)| HeavyHitter {
                hash,
                weight: c.weight,
                error: c.error,
            })
            .collect();
        out.sort_by_key(|h| (std::cmp::Reverse(h.weight), h.hash));
        out
    }

    /// Merges per-shard [`Self::top`] lists into one deterministic
    /// global top list: weights and error bounds add per hash (each
    /// shard observed a disjoint share of the flow), sorted heaviest
    /// first and truncated to `capacity`.
    pub fn merge(capacity: usize, lists: &[Vec<HeavyHitter>]) -> Vec<HeavyHitter> {
        let mut combined: std::collections::HashMap<u64, SsCounter> =
            std::collections::HashMap::new();
        for list in lists {
            for h in list {
                let c = combined.entry(h.hash).or_default();
                c.weight += h.weight;
                c.error += h.error;
            }
        }
        let mut out: Vec<HeavyHitter> = combined
            .into_iter()
            .map(|(hash, c)| HeavyHitter {
                hash,
                weight: c.weight,
                error: c.error,
            })
            .collect();
        out.sort_by_key(|h| (std::cmp::Reverse(h.weight), h.hash));
        out.truncate(capacity.max(1));
        out
    }

    /// One exponential decay step: weights, error bounds, and the
    /// running total all keep an `alpha` fraction (rounding down);
    /// flows decayed to zero weight are dropped. Single-consumer.
    pub fn decay(&self, alpha: f64) {
        let alpha = alpha.clamp(0.0, 1.0);
        let mut inner = self.inner.lock();
        inner.retain_mut(|(_, c)| {
            c.weight = (c.weight as f64 * alpha) as u64;
            c.error = (c.error as f64 * alpha) as u64;
            c.weight > 0
        });
        let cur = self.total.load(Ordering::Relaxed);
        let shed = cur - (cur as f64 * alpha) as u64;
        if shed > 0 {
            self.total.fetch_sub(shed, Ordering::Relaxed);
        }
    }

    /// Subtracts a previously [`Self::top`]-ed window (saturating per
    /// flow; flows hitting zero are dropped) — the commit half of
    /// peek-then-commit. Weight recorded after the peek survives.
    pub fn retire(&self, window: &[HeavyHitter]) {
        let mut inner = self.inner.lock();
        let mut retired: u64 = 0;
        for judged in window {
            if let Some(i) = inner.iter().position(|&(h, _)| h == judged.hash) {
                let c = &mut inner[i].1;
                let sub = judged.weight.min(c.weight);
                retired += sub;
                c.weight -= sub;
                c.error = c.error.saturating_sub(judged.error);
                if c.weight == 0 {
                    inner.swap_remove(i);
                }
            }
        }
        drop(inner);
        if retired > 0 {
            let mut cur = self.total.load(Ordering::Relaxed);
            loop {
                let next = cur.saturating_sub(retired);
                match self.total.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        }
    }

    /// Fixed memory footprint in bytes (the slot array at capacity).
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.capacity * std::mem::size_of::<(u64, SsCounter)>()
    }
}

impl fmt::Debug for SpaceSaving {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SpaceSaving({} of {} monitored, {} total)",
            self.inner.lock().len(),
            self.capacity,
            self.total()
        )
    }
}

/// Geometry for a [`FlowSketch`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SketchConfig {
    /// Count-min counters per row.
    pub width: usize,
    /// Count-min rows.
    pub depth: usize,
    /// Space-Saving monitored-flow capacity.
    pub top_capacity: usize,
}

impl Default for SketchConfig {
    /// 4 × 1024 counters (ε ≈ 0.27%, δ ≈ 1.8%) plus a top-32 summary —
    /// ≈ 34 KiB per shard, fixed.
    fn default() -> Self {
        Self {
            width: 1024,
            depth: 4,
            top_capacity: 32,
        }
    }
}

/// A closed observation window peeked from a [`FlowSketch`]: the
/// count-min matrix and the top-k list as of the peek. Pass it back to
/// [`FlowSketch::retire`] once the decision planned on it is applied.
#[derive(Clone, Debug)]
pub struct FlowSketchWindow {
    /// Row-major count-min cells ([`CountMinSketch::snapshot`]).
    pub cells: Vec<u64>,
    /// Heavy hitters as of the peek ([`SpaceSaving::top`]).
    pub top: Vec<HeavyHitter>,
}

/// Per-shard flow-level byte accounting: a [`CountMinSketch`] for
/// point queries plus a [`SpaceSaving`] top-k, recorded together.
///
/// The recorded key is the packet's stamped RSS hash
/// ([`crate::packet::PacketMeta::rss_hash`], falling back to a parse —
/// the same preference order as [`crate::steer::bucket_of_packet`]),
/// and the recorded weight is the frame length in bytes. Byte weight
/// is what distinguishes an elephant from the mice sharing its bucket:
/// packet counts (what [`crate::steer::BucketLoad`] sees) can be
/// perfectly uniform while bytes are wildly skewed.
///
/// Window discipline and threading contract are exactly
/// `BucketLoad`'s; see the [module docs](self).
pub struct FlowSketch {
    cms: CountMinSketch,
    top: SpaceSaving,
}

impl FlowSketch {
    /// Creates a sketch with the given geometry.
    pub fn new(config: SketchConfig) -> Self {
        Self {
            cms: CountMinSketch::new(config.width, config.depth),
            top: SpaceSaving::new(config.top_capacity),
        }
    }

    /// Records `weight` bytes for flow `hash`. Any thread.
    #[inline]
    pub fn record(&self, hash: u64, weight: u64) {
        self.cms.record(hash, weight);
        self.top.record(hash, weight);
    }

    /// Records one packet: key = stamped RSS hash (or a parse when
    /// unstamped), weight = frame length. Non-flow frames (no hash)
    /// are not recorded.
    pub fn record_packet(&self, pkt: &Packet) {
        if let Some(h) = crate::flow::steering_hash(pkt) {
            self.record(h, pkt.len() as u64);
        }
    }

    /// Records every packet of a batch — the same state as
    /// [`Self::record_packet`] on each in turn, for one top-k lock and
    /// one update of the running total per batch (count-min cells are
    /// relaxed atomics and are added per packet either way).
    #[inline]
    pub fn record_batch(&self, batch: &crate::batch::PacketBatch) {
        self.top.record_all(batch.iter().filter_map(|pkt| {
            let hash = crate::flow::steering_hash(pkt)?;
            let weight = pkt.len() as u64;
            self.cms.record(hash, weight);
            Some((hash, weight))
        }));
    }

    /// Point query for a flow's byte weight this window (never an
    /// under-count).
    #[inline]
    pub fn estimate(&self, hash: u64) -> u64 {
        self.cms.estimate(hash)
    }

    /// Whether the flow's byte weight is provably below `threshold`
    /// (`estimate < threshold`), with the early-exit read of
    /// [`CountMinSketch::below`] — the per-packet admission check of
    /// an inline guard, priced at one counter read for light flows.
    #[inline]
    pub fn below(&self, hash: u64, threshold: u64) -> bool {
        self.cms.below(hash, threshold)
    }

    /// The monitored heavy hitters, heaviest first.
    pub fn heavy_hitters(&self) -> Vec<HeavyHitter> {
        self.top.top()
    }

    /// Total recorded byte weight.
    pub fn total_bytes(&self) -> u64 {
        self.top.total()
    }

    /// Peeks the current window (count-min matrix + top-k list).
    pub fn snapshot(&self) -> FlowSketchWindow {
        FlowSketchWindow {
            cells: self.cms.snapshot(),
            top: self.top.top(),
        }
    }

    /// One exponential decay step over both structures (declined
    /// decision). Single-consumer.
    pub fn decay(&self, alpha: f64) {
        self.cms.decay(alpha);
        self.top.decay(alpha);
    }

    /// Retires a previously peeked window from both structures
    /// (applied decision). Single-consumer.
    ///
    /// # Panics
    ///
    /// Panics if `window.cells` came from a different geometry.
    pub fn retire(&self, window: &FlowSketchWindow) {
        self.cms.retire(&window.cells);
        self.top.retire(&window.top);
    }

    /// Fixed memory footprint in bytes — does not grow with the number
    /// of distinct flows recorded.
    pub fn footprint_bytes(&self) -> usize {
        self.cms.footprint_bytes() + self.top.footprint_bytes()
    }
}

impl Default for FlowSketch {
    fn default() -> Self {
        Self::new(SketchConfig::default())
    }
}

impl fmt::Debug for FlowSketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FlowSketch({:?}, {:?})", self.cms, self.top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;

    #[test]
    fn cms_never_undercounts() {
        let cms = CountMinSketch::new(64, 4);
        for i in 0..100u64 {
            cms.record(fmix64(i), 1 + i % 7);
        }
        for i in 0..100u64 {
            assert!(cms.estimate(fmix64(i)) > i % 7);
        }
        // An absent key can over-count (collisions) but never exceeds
        // the total recorded weight.
        assert!(cms.estimate(fmix64(10_000)) <= cms.total());
    }

    #[test]
    fn cms_exact_when_sparse() {
        let cms = CountMinSketch::new(1024, 4);
        cms.record(1, 100);
        cms.record(2, 250);
        assert_eq!(cms.estimate(1), 100);
        assert_eq!(cms.estimate(2), 250);
        assert_eq!(cms.total(), 350);
    }

    #[test]
    fn cms_below_agrees_with_estimate() {
        let cms = CountMinSketch::new(64, 4);
        for i in 0..200u64 {
            cms.record(fmix64(i), 1 + i * 13 % 977);
        }
        for i in 0..220u64 {
            let hash = fmix64(i);
            for threshold in [0, 1, 100, 500, 10_000] {
                assert_eq!(
                    cms.below(hash, threshold),
                    cms.estimate(hash) < threshold,
                    "key {i}, threshold {threshold}"
                );
            }
        }
    }

    #[test]
    fn cms_with_error_geometry() {
        let cms = CountMinSketch::with_error(0.01, 0.01);
        assert!(cms.width() >= 272);
        assert!(cms.depth() >= 5);
        assert!(cms.epsilon() <= 0.01);
        assert!(cms.delta() <= 0.01);
    }

    #[test]
    fn cms_decay_and_retire_window_discipline() {
        let cms = CountMinSketch::new(64, 2);
        cms.record(7, 1000);
        let window = cms.snapshot();
        // Weight recorded after the peek survives a retire…
        cms.record(7, 11);
        cms.retire(&window);
        assert_eq!(cms.estimate(7), 11);
        // …and decay keeps the configured fraction, rounding down.
        cms.decay(0.5);
        assert_eq!(cms.estimate(7), 5);
        cms.decay(0.0);
        assert_eq!(cms.estimate(7), 0);
    }

    #[test]
    fn cms_absorb_merges_cellwise() {
        let a = CountMinSketch::new(64, 2);
        let b = CountMinSketch::new(64, 2);
        a.record(1, 10);
        b.record(1, 5);
        b.record(2, 3);
        a.absorb(&b.snapshot());
        assert_eq!(a.estimate(1), 15);
        assert_eq!(a.estimate(2), 3);
    }

    #[test]
    #[should_panic(expected = "same geometry")]
    fn cms_retire_rejects_wrong_geometry() {
        CountMinSketch::new(64, 2).retire(&[0u64; 3]);
    }

    #[test]
    fn space_saving_tracks_exact_below_capacity() {
        let ss = SpaceSaving::new(8);
        for (h, w) in [(1u64, 100u64), (2, 50), (3, 10)] {
            ss.record(h, w);
        }
        let top = ss.top();
        assert_eq!(top.len(), 3);
        assert_eq!((top[0].hash, top[0].weight, top[0].error), (1, 100, 0));
        assert_eq!(top[1].hash, 2);
        assert_eq!(ss.total(), 160);
    }

    #[test]
    fn space_saving_keeps_the_elephant_under_churn() {
        let ss = SpaceSaving::new(4);
        // One elephant plus many one-shot mice cycling through.
        for round in 0..64u64 {
            ss.record(999, 100);
            ss.record(10_000 + round, 1);
        }
        let top = ss.top();
        assert_eq!(top[0].hash, 999);
        assert!(top[0].weight >= 6400, "never under-counts");
        // The guaranteed containment threshold holds.
        assert!(6400 > ss.threshold());
    }

    #[test]
    fn space_saving_merge_is_deterministic() {
        let a = vec![
            HeavyHitter {
                hash: 1,
                weight: 10,
                error: 0,
            },
            HeavyHitter {
                hash: 2,
                weight: 5,
                error: 1,
            },
        ];
        let b = vec![
            HeavyHitter {
                hash: 2,
                weight: 7,
                error: 0,
            },
            HeavyHitter {
                hash: 3,
                weight: 12,
                error: 2,
            },
        ];
        let merged = SpaceSaving::merge(8, &[a, b]);
        assert_eq!(
            merged[0],
            HeavyHitter {
                hash: 2,
                weight: 12,
                error: 1
            }
        );
        assert_eq!(
            merged[1],
            HeavyHitter {
                hash: 3,
                weight: 12,
                error: 2
            }
        );
        assert_eq!(
            merged[2],
            HeavyHitter {
                hash: 1,
                weight: 10,
                error: 0
            }
        );
        // Truncation respects the requested capacity.
        assert_eq!(
            SpaceSaving::merge(1, std::slice::from_ref(&merged)).len(),
            1
        );
    }

    #[test]
    fn space_saving_decay_and_retire() {
        let ss = SpaceSaving::new(4);
        ss.record(1, 1000);
        ss.record(2, 10);
        let window = ss.top();
        ss.record(1, 7);
        ss.retire(&window);
        // Post-peek weight survives; fully retired flows drop out.
        let top = ss.top();
        assert_eq!(top.len(), 1);
        assert_eq!((top[0].hash, top[0].weight), (1, 7));
        assert_eq!(ss.total(), 7);
        ss.decay(0.5);
        assert_eq!(ss.top()[0].weight, 3);
        ss.decay(0.0);
        assert!(ss.top().is_empty());
        assert_eq!(ss.total(), 0);
    }

    #[test]
    fn flow_sketch_records_bytes_by_stamped_hash() {
        let sketch = FlowSketch::default();
        let mut pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1234, 80).build();
        let len = pkt.len() as u64;
        crate::flow::stamp_rss(&mut pkt);
        let hash = pkt.meta.rss_hash.unwrap();
        sketch.record_packet(&pkt);
        sketch.record_packet(&pkt);
        assert_eq!(sketch.estimate(hash), 2 * len);
        assert_eq!(sketch.total_bytes(), 2 * len);
        assert_eq!(sketch.heavy_hitters()[0].hash, hash);
        // Non-flow frames are not recorded.
        sketch.record_packet(&crate::packet::Packet::from_slice(&[0u8; 14]));
        assert_eq!(sketch.total_bytes(), 2 * len);
    }

    #[test]
    fn flow_sketch_window_roundtrip() {
        let sketch = FlowSketch::new(SketchConfig {
            width: 64,
            depth: 2,
            top_capacity: 4,
        });
        sketch.record(42, 500);
        let window = sketch.snapshot();
        assert_eq!(window.top[0].weight, 500);
        sketch.record(42, 20);
        sketch.retire(&window);
        assert_eq!(sketch.estimate(42), 20);
        assert_eq!(sketch.total_bytes(), 20);
        sketch.decay(0.5);
        assert_eq!(sketch.estimate(42), 10);
        // Footprint is geometry-fixed, independent of flows recorded.
        let before = sketch.footprint_bytes();
        for i in 0..10_000u64 {
            sketch.record(i, 1);
        }
        assert_eq!(sketch.footprint_bytes(), before);
    }

    /// The record-versus-retire contract of the module docs, run on two
    /// threads: one records a known batch over and over into a
    /// `FlowSketch` and a `BucketLoad`, the other peeks and retires
    /// windows meanwhile. Nothing recorded may be lost or retired twice:
    /// what is left plus every retired window is exactly what was
    /// recorded, cell by cell.
    #[test]
    fn concurrent_recording_survives_retire_exactly() {
        use crate::batch::PacketBatch;
        use crate::steer::BucketLoad;
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;

        const ROUNDS: u64 = 2_000;
        let config = SketchConfig::default();
        let mut batch = PacketBatch::with_capacity(64);
        for i in 0..48u16 {
            let pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.1.2", 1000 + i % 40, 53)
                .payload_len(18 + usize::from(i) * 29)
                .build();
            batch.push(pkt);
        }
        // One round's worth, recorded without a rival.
        let once = FlowSketch::new(config);
        once.record_batch(&batch);
        let once_cells = once.snapshot().cells;
        let once_load = BucketLoad::new();
        once_load.record_batch(&batch);
        let once_buckets = once_load.snapshot();
        let round_bytes: u64 = batch.iter().map(|p| p.len() as u64).sum();

        let sketch = FlowSketch::new(config);
        let load = BucketLoad::new();
        let done = AtomicBool::new(false);
        let start = Barrier::new(2);
        let (windows, buckets) = std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for _ in 0..ROUNDS {
                    sketch.record_batch(&batch);
                    load.record_batch(&batch);
                }
                done.store(true, Ordering::Release);
            });
            start.wait();
            let (mut windows, mut buckets) = (Vec::new(), Vec::new());
            while !done.load(Ordering::Acquire) {
                let window = sketch.snapshot();
                let peeked = load.snapshot();
                sketch.retire(&window);
                load.retire(&peeked);
                windows.push(window.cells);
                buckets.push(peeked);
                std::thread::yield_now();
            }
            (windows, buckets)
        });
        assert!(!windows.is_empty(), "the retirer closed no window");

        let left = sketch.snapshot().cells;
        let width = config.width;
        for row in 0..config.depth {
            let cells = row * width..(row + 1) * width;
            let retired: u64 = windows
                .iter()
                .map(|w| w[cells.clone()].iter().sum::<u64>())
                .sum();
            let kept: u64 = left[cells].iter().sum();
            assert_eq!(kept + retired, ROUNDS * round_bytes, "count-min row {row}");
        }
        for (i, &cell) in left.iter().enumerate() {
            let retired: u64 = windows.iter().map(|w| w[i]).sum();
            assert_eq!(cell + retired, ROUNDS * once_cells[i], "count-min cell {i}");
        }
        let left = load.snapshot();
        for (b, &count) in left.iter().enumerate() {
            let retired: u64 = buckets.iter().map(|w| w[b]).sum();
            assert_eq!(count + retired, ROUNDS * once_buckets[b], "bucket {b}");
        }
    }
}
