//! The inline heavy-hitter guard: sketch-fed overload protection.
//!
//! [`Guard`] is the dataplane's answer to a flow that the reflective
//! control loop cannot rebalance away: an elephant (or a SYN flood)
//! that would saturate whatever shard it lands on. It sits inline in a
//! shard's element graph and **consumes the evidence the pipeline
//! already gathers** — the per-shard
//! [`FlowSketch`](netkit_packet::sketch::FlowSketch) byte estimates
//! the worker records before each batch runs, and the
//! [`ConnTracker`]'s half-open gauge — to rate-limit exactly the flows
//! that cross its threshold, leaving everything else untouched.
//!
//! # The benign fast path
//!
//! A packet whose flow's byte estimate sits **below** the threshold
//! passes with one count-min read — no flow-table touch, no lock
//! contention (the sketch is the same lock-free one the control plane
//! reads). Count-min never *under*-estimates, so a flow below
//! threshold is genuinely benign: the guard cannot miss an elephant,
//! only (rarely, on hash collision) promote a mouse to the budgeted
//! path — where an honest mouse still fits comfortably inside the
//! window budget and passes anyway.
//!
//! # The window discipline
//!
//! Heavy flows are not dropped outright: each gets a per-observation-
//! window byte budget, spent from a per-flow entry in a bounded
//! [`FlowTable`]. The guard never closes a window itself, and no host
//! calls it to: it exports [`IWindow`], and **the control turn closes
//! it** — [`ShardedPipeline::control_turn`] finds every exporter in
//! every replica's capsule and closes its window at the top of the
//! turn, the same peek/decay/retire rhythm the rebalancing evidence
//! follows — which refills every budget. Between turns, a flow that
//! exceeds threshold + budget sees [`PushError::RateLimited`]
//! verdicts, which the sharded pipeline files under the dedicated
//! guard drop cause.
//!
//! [`ShardedPipeline::control_turn`]: crate::shard::ShardedPipeline::control_turn

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netkit_packet::batch::PacketBatch;
use netkit_packet::flow::{steering_hash, FlowView, ParsedFlow};
use netkit_packet::packet::Packet;
use netkit_packet::sketch::FlowSketch;
use opencom::component::{Component, ComponentCore, Registrar};
use opencom::receptacle::Receptacle;
use parking_lot::Mutex;

use crate::api::{
    emit, BatchResult, Exit, Exits, IPacketPush, IWindow, Output, PushError, PushResult,
    IPACKET_PUSH, IWINDOW,
};
use crate::elements::element_core;

use super::conntrack::ConnTracker;
use super::table::{FlowClock, FlowTable};

/// [`Guard`] policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct GuardConfig {
    /// A flow whose count-min byte estimate stays below this passes
    /// on the fast path, untouched and unbudgeted. Crossing it puts
    /// the flow on the budgeted path.
    pub byte_threshold: u64,
    /// Bytes a heavy flow may push per observation window before its
    /// packets are rate-limited. Refilled when the window closes
    /// ([`IWindow::close_window`]).
    pub window_budget: u64,
    /// Bound on the heavy-flow budget table (per shard). Only flows
    /// past the threshold occupy entries, so a small table suffices.
    pub table_capacity: usize,
    /// SYN defence arm-point: when the attached [`ConnTracker`]'s
    /// half-open gauge exceeds this, handshake-opening SYNs are
    /// budgeted too. `u64::MAX` (the default) disarms the SYN arm
    /// even when a tracker is attached.
    pub syn_limit: u64,
    /// Handshake-opening SYNs admitted per window while the SYN
    /// defence is armed.
    pub syn_budget: u64,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self {
            byte_threshold: 64 * 1024,
            window_budget: 64 * 1024,
            table_capacity: 1024,
            syn_limit: u64::MAX,
            syn_budget: 128,
        }
    }
}

/// Per-heavy-flow budget state, tagged with the window it was spent
/// in — a stale tag reads as a full budget, so closing a window never
/// walks the table.
struct GuardFlow {
    spent: u64,
    window: u64,
}

/// Local admission tallies, flushed to the shared atomics once per
/// batch — see [`Guard::flush_counts`].
#[derive(Default)]
struct AdmitCounts {
    passed: u64,
    budgeted: u64,
    limited: u64,
    syn_dropped: u64,
}

/// Lifetime counters of a [`Guard`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Packets passed on the benign fast path (estimate below
    /// threshold).
    pub passed: u64,
    /// Packets passed on the budgeted path (heavy flow, budget left).
    pub budgeted: u64,
    /// Packets rate-limited (heavy flow, budget exhausted).
    pub limited: u64,
    /// Handshake-opening SYNs dropped by the armed SYN defence.
    pub syn_dropped: u64,
    /// Observation windows closed ([`IWindow::close_window`]).
    pub windows: u64,
}

/// Inline heavy-hitter guard element — the overload half of the
/// self-healing dataplane (normative text in [`crate::flow`] and the
/// failure-contract section of [`crate::api`]).
///
/// Build one per shard with that shard's sketch
/// ([`ShardedPipeline::flow_sketch`](crate::shard::ShardedPipeline::flow_sketch)
/// from inside the replica factory) and place it early in the graph;
/// optionally attach the shard's [`ConnTracker`] to arm the SYN
/// defence. With no downstream binding it acts as a sink for admitted
/// packets, like the other pass-through elements.
///
/// The SYN defence is not batch-size invariant: it reads the tracker's
/// gauge as it stands when the guard admits a packet, and a tracker in
/// the same graph moves that gauge a whole batch at a time, so a burst
/// of SYNs meets a different gauge pushed as one batch than one packet
/// at a time.
pub struct Guard {
    core: ComponentCore,
    out: Receptacle<dyn IPacketPush>,
    sketch: Arc<FlowSketch>,
    tracker: Option<Arc<ConnTracker>>,
    cfg: GuardConfig,
    table: Mutex<FlowTable<GuardFlow>>,
    clock: FlowClock,
    /// The current observation window; bumped by
    /// [`IWindow::close_window`]. Entries stamped with an older window
    /// read as refilled.
    window: AtomicU64,
    /// SYNs admitted in the current window while the defence is armed.
    syn_spent: AtomicU64,
    passed: AtomicU64,
    budgeted: AtomicU64,
    limited: AtomicU64,
    syn_dropped: AtomicU64,
    windows: AtomicU64,
}

impl Guard {
    /// Creates a guard reading `sketch` (the shard's own, so estimates
    /// already include the current batch — the worker records before
    /// the graph runs) under `cfg`, with no SYN arm.
    pub fn new(sketch: Arc<FlowSketch>, cfg: GuardConfig) -> Arc<Self> {
        Self::build(sketch, None, cfg)
    }

    /// Creates a guard whose SYN defence reads `tracker`'s half-open
    /// gauge (armed once the gauge exceeds
    /// [`GuardConfig::syn_limit`]).
    pub fn with_tracker(
        sketch: Arc<FlowSketch>,
        tracker: Arc<ConnTracker>,
        cfg: GuardConfig,
    ) -> Arc<Self> {
        Self::build(sketch, Some(tracker), cfg)
    }

    fn build(
        sketch: Arc<FlowSketch>,
        tracker: Option<Arc<ConnTracker>>,
        cfg: GuardConfig,
    ) -> Arc<Self> {
        Arc::new(Self {
            core: element_core("netkit.Guard"),
            out: Receptacle::single("out", IPACKET_PUSH),
            sketch,
            tracker,
            table: Mutex::new(FlowTable::new(cfg.table_capacity, u64::MAX)),
            cfg,
            clock: FlowClock::new(),
            window: AtomicU64::new(0),
            syn_spent: AtomicU64::new(0),
            passed: AtomicU64::new(0),
            budgeted: AtomicU64::new(0),
            limited: AtomicU64::new(0),
            syn_dropped: AtomicU64::new(0),
            windows: AtomicU64::new(0),
        })
    }

    /// Lifetime counters.
    pub fn stats(&self) -> GuardStats {
        GuardStats {
            passed: self.passed.load(Ordering::Relaxed),
            budgeted: self.budgeted.load(Ordering::Relaxed),
            limited: self.limited.load(Ordering::Relaxed),
            syn_dropped: self.syn_dropped.load(Ordering::Relaxed),
            windows: self.windows.load(Ordering::Relaxed),
        }
    }

    /// True when the SYN defence is currently armed: a tracker is
    /// attached and its half-open gauge exceeds the configured limit.
    fn syn_armed(&self) -> bool {
        match &self.tracker {
            Some(t) => t.half_open() > self.cfg.syn_limit,
            None => false,
        }
    }

    /// The admission decision for one packet; `Ok(())` admits.
    /// Outcomes tally into `counts`, not the shared atomics, so the
    /// batch path can flush one atomic add per counter per *batch*
    /// ([`Self::flush_counts`]) instead of one per packet.
    fn admit(&self, pkt: &Packet, counts: &mut AdmitCounts) -> PushResult {
        // SYN defence: while the tracker's half-open gauge is past the
        // arm point, handshake-opening SYNs spend a per-window budget.
        // Established traffic (and SYN+ACK replies) is untouched —
        // the flood pays, the handshakes that complete do not.
        if self.syn_armed() {
            if let Some(flags) = ParsedFlow::of(pkt).and_then(|f| f.tcp_flags()) {
                if flags.syn() && !flags.ack() {
                    let spent = self.syn_spent.fetch_add(1, Ordering::Relaxed);
                    if spent >= self.cfg.syn_budget {
                        counts.syn_dropped += 1;
                        return Err(PushError::RateLimited);
                    }
                }
            }
        }
        let Some(hash) = steering_hash(pkt) else {
            // Non-flow frames (ARP, malformed) are not sketch-metered
            // and cannot be heavy: pass.
            counts.passed += 1;
            return Ok(());
        };
        // The benign fast path: a lock-free count-min read with the
        // early exit of `FlowSketch::below` — one counter for a light
        // flow. The estimate never under-counts, so staying below
        // threshold proves the flow benign for this window.
        if self.sketch.below(hash, self.cfg.byte_threshold) {
            counts.passed += 1;
            return Ok(());
        }
        // Heavy flow: spend its per-window byte budget, keyed by the
        // flow itself (the sketch key above is the *steering* hash,
        // which a driver may have chosen freely).
        let Some(flow) = FlowView::of(pkt) else {
            // Hash-stamped but unparseable: cannot key a budget; pass.
            counts.passed += 1;
            return Ok(());
        };
        let now = self.clock.advance(pkt.meta.timestamp_ns);
        let window = self.window.load(Ordering::Relaxed);
        let bytes = pkt.len() as u64;
        let mut table = self.table.lock();
        let admission = table.get_or_insert_with(flow.hash, flow.key.canonical(), now, || {
            GuardFlow { spent: 0, window }
        });
        let budget = admission.value;
        if budget.window != window {
            // Stale stamp = budget refilled at the last retire.
            budget.window = window;
            budget.spent = 0;
        }
        if budget.spent.saturating_add(bytes) <= self.cfg.window_budget {
            budget.spent += bytes;
            counts.budgeted += 1;
            Ok(())
        } else {
            counts.limited += 1;
            Err(PushError::RateLimited)
        }
    }

    /// Adds a call's local tallies to the lifetime counters — one
    /// atomic add per touched counter, however many packets tallied.
    fn flush_counts(&self, counts: AdmitCounts) {
        if counts.passed > 0 {
            self.passed.fetch_add(counts.passed, Ordering::Relaxed);
        }
        if counts.budgeted > 0 {
            self.budgeted.fetch_add(counts.budgeted, Ordering::Relaxed);
        }
        if counts.limited > 0 {
            self.limited.fetch_add(counts.limited, Ordering::Relaxed);
        }
        if counts.syn_dropped > 0 {
            self.syn_dropped
                .fetch_add(counts.syn_dropped, Ordering::Relaxed);
        }
    }
}

impl IPacketPush for Guard {
    /// Batch admission with one downstream hop per *batch*: admit every
    /// packet first, then forward the survivors together, so the
    /// receptacle acquisition — the dominant per-packet cost of an
    /// all-benign batch — amortises across the batch.
    fn push_batch(&self, batch: PacketBatch) -> BatchResult {
        let mut counts = AdmitCounts::default();
        let mut exits = Exits::new(0);
        for (i, pkt) in batch.iter().enumerate() {
            if let Err(e) = self.admit(pkt, &mut counts) {
                exits.set(i, Exit::Drop(Err(e)));
            }
        }
        self.flush_counts(counts);
        emit(batch, &exits, &[Output::new(&self.out, Ok(()))])
    }
}

impl IWindow for Guard {
    /// Every heavy flow's byte budget and the SYN budget refill. The
    /// budgets are per-window by definition, so a window that never
    /// closes starves heavy flows forever, and one that closes per
    /// packet never limits anything — which is why the boundary is the
    /// control turn's, on the cadence that retires the sketch windows.
    fn close_window(&self) {
        self.window.fetch_add(1, Ordering::Relaxed);
        self.syn_spent.store(0, Ordering::Relaxed);
        self.windows.fetch_add(1, Ordering::Relaxed);
    }

    fn windows(&self) -> u64 {
        self.windows.load(Ordering::Relaxed)
    }
}

impl Component for Guard {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
        let window: Arc<dyn IWindow> = self.clone();
        reg.expose(IWINDOW, &window);
        reg.receptacle(&self.out);
    }
    fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.table.lock().footprint_bytes()
    }
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "Guard({} passed, {} budgeted, {} limited, {} syn-dropped)",
            s.passed, s.budgeted, s.limited, s.syn_dropped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_packet::packet::PacketBuilder;
    use netkit_packet::sketch::SketchConfig;

    fn sketch() -> Arc<FlowSketch> {
        Arc::new(FlowSketch::new(SketchConfig::default()))
    }

    fn udp(sport: u16, payload: usize) -> Packet {
        PacketBuilder::udp_v4("10.0.0.1", "10.9.9.9", sport, 53)
            .payload(&vec![0u8; payload])
            .build()
    }

    fn cfg() -> GuardConfig {
        GuardConfig {
            byte_threshold: 4096,
            window_budget: 2048,
            table_capacity: 64,
            ..GuardConfig::default()
        }
    }

    /// Feeds `pkt` the way the sharded worker does: sketch first, then
    /// the guard.
    fn feed(guard: &Guard, sketch: &FlowSketch, pkt: Packet) -> PushResult {
        sketch.record_packet(&pkt);
        guard.push(pkt)
    }

    #[test]
    fn benign_flows_pass_without_budget_entries() {
        let sk = sketch();
        let guard = Guard::new(Arc::clone(&sk), cfg());
        // 16 mice, each well under the 4 KiB threshold in total.
        for flow in 0..16u16 {
            for _ in 0..4 {
                feed(&guard, &sk, udp(6000 + flow, 100)).unwrap();
            }
        }
        let s = guard.stats();
        assert_eq!(s.passed, 64);
        assert_eq!((s.budgeted, s.limited), (0, 0));
        assert!(guard.table.lock().is_empty(), "no budget entries for mice");
    }

    #[test]
    fn elephant_is_limited_after_threshold_plus_budget() {
        let sk = sketch();
        let guard = Guard::new(Arc::clone(&sk), cfg());
        let mut admitted_bytes = 0u64;
        let mut limited = 0u64;
        for _ in 0..40 {
            let pkt = udp(7000, 400);
            let len = pkt.len() as u64;
            match feed(&guard, &sk, pkt) {
                Ok(()) => admitted_bytes += len,
                Err(PushError::RateLimited) => limited += 1,
                Err(e) => panic!("unexpected verdict: {e}"),
            }
        }
        assert!(limited > 0, "elephant must hit the limiter");
        // Admitted mass is bounded by threshold (fast path) + budget.
        let cfg = cfg();
        assert!(
            admitted_bytes <= cfg.byte_threshold + cfg.window_budget + 500,
            "admitted {admitted_bytes} bytes"
        );
        assert_eq!(guard.stats().limited, limited);
    }

    #[test]
    fn retire_window_refills_the_budget() {
        let sk = sketch();
        let guard = Guard::new(Arc::clone(&sk), cfg());
        // Exhaust: drive the flow well past threshold + budget.
        let mut saw_limit = false;
        for _ in 0..40 {
            if feed(&guard, &sk, udp(7000, 400)).is_err() {
                saw_limit = true;
            }
        }
        assert!(saw_limit);
        // Close the window: the sketch evidence retires with it (the
        // control plane retires both on the same cadence), so the next
        // window starts clean.
        let w = sk.snapshot();
        sk.retire(&w);
        guard.close_window();
        assert!(
            feed(&guard, &sk, udp(7000, 400)).is_ok(),
            "budget must refill at the window boundary"
        );
        assert_eq!(guard.stats().windows, 1);
    }

    #[test]
    fn sketch_only_decay_also_rehabilitates() {
        // A flow that *stops* being heavy recovers via sketch decay
        // alone: once its estimate sinks below threshold it is back on
        // the fast path regardless of its spent budget.
        let sk = sketch();
        let guard = Guard::new(Arc::clone(&sk), cfg());
        for _ in 0..40 {
            let _ = feed(&guard, &sk, udp(7000, 400));
        }
        for _ in 0..8 {
            sk.decay(0.1);
        }
        assert!(feed(&guard, &sk, udp(7000, 100)).is_ok());
    }

    fn tcp_syn(sport: u16) -> Packet {
        PacketBuilder::tcp_v4("10.0.0.2", "10.9.9.9", sport, 80)
            .tcp_flags(netkit_packet::headers::TcpFlags::SYN)
            .build()
    }

    #[test]
    fn syn_defence_arms_on_half_open_pressure() {
        let tracker = ConnTracker::new();
        let sk = sketch();
        let guard = Guard::with_tracker(
            Arc::clone(&sk),
            Arc::clone(&tracker),
            GuardConfig {
                syn_limit: 8,
                syn_budget: 4,
                ..cfg()
            },
        );
        // Below the arm point: SYNs pass freely.
        for n in 0..8u16 {
            tracker.push(tcp_syn(9000 + n)).unwrap();
        }
        assert!(!guard.syn_armed());
        assert!(guard.push(tcp_syn(9100)).is_ok());
        // Flood past the arm point…
        for n in 0..16u16 {
            tracker.push(tcp_syn(9200 + n)).unwrap();
        }
        assert!(guard.syn_armed());
        // …and the per-window SYN budget engages.
        let mut dropped = 0;
        for n in 0..10u16 {
            if guard.push(tcp_syn(9300 + n)).is_err() {
                dropped += 1;
            }
        }
        assert_eq!(dropped, 10 - 4, "budget admits 4, drops the rest");
        assert_eq!(guard.stats().syn_dropped, 6);
        // The next window refills the SYN budget.
        guard.close_window();
        assert!(guard.push(tcp_syn(9400)).is_ok());
    }

    #[test]
    fn batch_path_matches_the_scalar_verdicts() {
        // Two guards over identically recorded sketches: one fed the
        // mixed elephant/mouse stream packet by packet (batches of
        // one), one in batches of 8. Both must produce the same verdict
        // sequence and the same counters.
        let traffic = || -> Vec<Packet> {
            (0..48)
                .map(|i| {
                    if i % 3 == 0 {
                        udp(6001, 100) // mouse
                    } else {
                        udp(7000, 400) // elephant: crosses threshold+budget
                    }
                })
                .collect()
        };

        let sk_scalar = sketch();
        let scalar = Guard::new(Arc::clone(&sk_scalar), cfg());
        let mut scalar_verdicts = Vec::new();
        for chunk in traffic().chunks(8) {
            // Record per batch, as the worker does, so both arms see
            // identical sketch state at every admit.
            let mut batch: PacketBatch = chunk.iter().cloned().collect();
            sk_scalar.record_batch(&batch);
            for pkt in batch.drain_all() {
                scalar_verdicts.push(scalar.push(pkt));
            }
        }

        let sk_batch = sketch();
        let batched = Guard::new(Arc::clone(&sk_batch), cfg());
        let mut batch_verdicts = Vec::new();
        for chunk in traffic().chunks(8) {
            let batch: PacketBatch = chunk.iter().cloned().collect();
            sk_batch.record_batch(&batch);
            batch_verdicts.extend(batched.push_batch(batch).verdicts);
        }

        assert_eq!(scalar_verdicts, batch_verdicts);
        assert_eq!(scalar.stats(), batched.stats());
        assert!(
            batched.stats().limited > 0,
            "the stream really mixed verdicts"
        );
    }

    #[test]
    fn guard_recovers_victim_goodput_under_sketch_visible_attack() {
        // A bottleneck admitting CAP packets per round, shared by a
        // victim mouse (10 x 100 B per round) and an attacker elephant
        // (90 x 1000 B per round), arrival-interleaved 9:1. Unguarded,
        // the attacker owns the bottleneck and the victim starves;
        // with the guard consuming the sketch the attacker saturates
        // its budget, the bottleneck never fills, and every victim
        // packet gets through — far past the >=1.5x acceptance bar.
        const CAP: usize = 20;
        const ROUNDS: usize = 5;
        let round_traffic = || -> Vec<(bool, Packet)> {
            (0..100)
                .map(|i| {
                    if i % 10 == 0 {
                        (true, udp(5000, 100)) // victim
                    } else {
                        (false, udp(6000, 1000)) // attacker
                    }
                })
                .collect()
        };

        // Control arm: no guard — first-come-first-served bottleneck.
        let mut unguarded_victim = 0usize;
        for _ in 0..ROUNDS {
            let mut used = 0usize;
            for (is_victim, _pkt) in round_traffic() {
                if used < CAP {
                    used += 1;
                    if is_victim {
                        unguarded_victim += 1;
                    }
                }
            }
        }

        // Guarded arm: same traffic, guard in front of the bottleneck,
        // windows retired on the per-round control cadence.
        let sk = sketch();
        let guard = Guard::new(Arc::clone(&sk), cfg());
        let mut guarded_victim = 0usize;
        for _ in 0..ROUNDS {
            let mut used = 0usize;
            for (is_victim, pkt) in round_traffic() {
                if feed(&guard, &sk, pkt).is_ok() && used < CAP {
                    used += 1;
                    if is_victim {
                        guarded_victim += 1;
                    }
                }
            }
            let w = sk.snapshot();
            sk.retire(&w);
            guard.close_window();
        }

        assert_eq!(unguarded_victim, 2 * ROUNDS, "the attacker owns the queue");
        assert_eq!(guarded_victim, 10 * ROUNDS, "every victim packet survives");
        assert!(
            guarded_victim as f64 >= 1.5 * unguarded_victim as f64,
            "acceptance: >=1.5x victim goodput ({unguarded_victim} -> {guarded_victim})"
        );
        assert!(guard.stats().limited > 0, "the attack is visibly limited");
    }
}
