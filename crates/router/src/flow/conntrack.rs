//! Connection tracking: per-flow state machine + direction counters.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netkit_packet::batch::PacketBatch;
use netkit_packet::flow::{FlowDirection, FlowKey, FlowView};
use netkit_packet::headers::TcpFlags;
use netkit_packet::packet::Packet;
use opencom::component::{Component, ComponentCore, Registrar};
use opencom::receptacle::Receptacle;
use parking_lot::Mutex;

use crate::api::{emit, BatchResult, Exits, IPacketPush, Output, IPACKET_PUSH};
use crate::elements::element_core;

use super::table::{FlowClock, FlowTable, FlowTableStats};

/// Where a tracked connection stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnState {
    /// Seen in one direction only (UDP) or mid-handshake (TCP SYN).
    New,
    /// Confirmed bidirectional (UDP) or past the handshake (TCP ACK).
    Established,
    /// A FIN or RST has been observed; the entry ages out.
    Closing,
}

/// Per-connection tracking state: the state machine plus per-direction
/// packet and byte counters. Directions are relative to the flow's
/// [canonical](netkit_packet::flow::FlowKey::canonical) orientation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnInfo {
    /// Connection state.
    pub state: ConnState,
    /// Packets seen in the canonical (forward) direction.
    pub fwd_packets: u64,
    /// Bytes seen in the canonical (forward) direction.
    pub fwd_bytes: u64,
    /// Packets seen in the reverse direction.
    pub rev_packets: u64,
    /// Bytes seen in the reverse direction.
    pub rev_bytes: u64,
    /// A TCP SYN has been observed on this flow. Together with
    /// [`ConnState::New`] this marks a **half-open** connection — a
    /// handshake started but never completed, the signature a SYN
    /// flood leaves in the table (see [`ConnTracker::half_open`]).
    pub syn_seen: bool,
}

impl Default for ConnInfo {
    fn default() -> Self {
        Self {
            state: ConnState::New,
            fwd_packets: 0,
            fwd_bytes: 0,
            rev_packets: 0,
            rev_bytes: 0,
            syn_seen: false,
        }
    }
}

impl ConnInfo {
    /// Total packets, both directions.
    pub fn packets(&self) -> u64 {
        self.fwd_packets + self.rev_packets
    }

    /// Total bytes, both directions.
    pub fn bytes(&self) -> u64 {
        self.fwd_bytes + self.rev_bytes
    }

    /// True while the connection is a half-open TCP handshake: a SYN
    /// has been seen but no handshake-completing ACK (and no
    /// FIN/RST). The population of these is the SYN-flood evidence
    /// the tracker exports as a gauge.
    fn is_half_open(&self) -> bool {
        self.state == ConnState::New && self.syn_seen
    }

    /// Folds one observed packet into the state machine. The same
    /// transition function runs for a freshly created entry and for an
    /// established one, which is what makes state **re-establish
    /// deterministically** after a shard migration: a mid-connection
    /// TCP segment carries ACK without SYN, so the very first packet
    /// the new shard sees promotes the fresh entry straight to
    /// [`ConnState::Established`] — tracked state never regresses to
    /// `New` for a live connection.
    fn observe(&mut self, dir: FlowDirection, bytes: u64, tcp: Option<TcpFlags>) {
        match dir {
            FlowDirection::Forward => {
                self.fwd_packets += 1;
                self.fwd_bytes += bytes;
            }
            FlowDirection::Reverse => {
                self.rev_packets += 1;
                self.rev_bytes += bytes;
            }
        }
        if let Some(f) = tcp {
            if f.syn() {
                self.syn_seen = true;
            }
        }
        match tcp {
            Some(f) if f.fin() || f.rst() => self.state = ConnState::Closing,
            Some(f) if f.ack() && !f.syn() => {
                if self.state == ConnState::New {
                    self.state = ConnState::Established;
                }
            }
            Some(_) => {} // SYN / SYN+ACK: still handshaking.
            None => {
                // UDP (and other port-less flows): confirmed once
                // traffic flows both ways.
                if self.state == ConnState::New && dir == FlowDirection::Reverse {
                    self.state = ConnState::Established;
                }
            }
        }
    }
}

/// Pass-through connection-tracking element.
///
/// Tracks every UDP/TCP flow through a bounded per-shard
/// [`FlowTable`], keyed canonically so both directions share one
/// entry. Frames with no flow identity (ARP, malformed) pass through
/// untracked. With no downstream binding it acts as a sink, like
/// [`Counter`](crate::elements::Counter).
///
/// The table sits behind a mutex only because component entry points
/// take `&self`; in the sharded dataplane the canonical RSS hash pins
/// a flow's packets to one worker, so the lock is uncontended by
/// construction (see the [module docs](super)).
///
/// Per packet the tracker reads the flow ([`FlowView::of`] — the
/// record the rx path stamped, no parse) and probes its table once.
pub struct ConnTracker {
    core: ComponentCore,
    out: Receptacle<dyn IPacketPush>,
    table: Mutex<FlowTable<ConnInfo>>,
    clock: FlowClock,
    untracked: AtomicU64,
    /// Live half-open connections (SYN seen, handshake never
    /// completed) — a gauge, maintained at every state transition and
    /// eviction. SYN-flood evidence for the heavy-hitter guard.
    half_open: AtomicU64,
    /// Teardown timer: a [`ConnState::Closing`] entry (FIN/RST seen)
    /// is reclaimed by [`Self::sweep`] this many ticks after its last
    /// packet. `u64::MAX` disables.
    closing_timeout: u64,
    /// Half-open timer: a SYN-without-ACK entry is reclaimed by
    /// [`Self::sweep`] this many ticks after its last packet.
    /// `u64::MAX` disables.
    syn_timeout: u64,
}

/// Per-call tallies, flushed once per push or per batch
/// ([`ConnTracker::flush_counts`]).
#[derive(Default)]
struct TrackCounts {
    untracked: u64,
    /// Net movement of the half-open gauge.
    half_open: i64,
}

/// How far [`ConnTracker`] scans from the LRU end for a half-open
/// victim before letting plain LRU eviction run, when the table is
/// full. Bounded so the worst-case per-insert cost stays O(1).
const HALF_OPEN_EVICT_SCAN: usize = 16;

impl ConnTracker {
    /// Default table bound: 64 Ki connections per shard.
    const DEFAULT_CAPACITY: usize = 65_536;

    /// Creates a tracker with the default capacity and no idle expiry.
    pub fn new() -> Arc<Self> {
        Self::with_table(Self::DEFAULT_CAPACITY, u64::MAX)
    }

    /// Creates a tracker with an explicit table bound and idle timeout
    /// (in [`FlowClock`] ticks — nanoseconds when frames carry
    /// timestamps). Teardown and half-open timers are disabled; use
    /// [`Self::with_timeouts`] to arm them.
    pub fn with_table(capacity: usize, idle_timeout: u64) -> Arc<Self> {
        Self::with_timeouts(capacity, idle_timeout, u64::MAX, u64::MAX)
    }

    /// Creates a tracker with the full timeout policy:
    ///
    /// * `idle_timeout` — any entry dies this long after its last
    ///   packet (the base LRU idle expiry);
    /// * `closing_timeout` — a FIN/RST-seen entry dies this much
    ///   sooner (teardown timer: closed connections should not squat
    ///   on table slots for the full idle window);
    /// * `syn_timeout` — a half-open entry (SYN, no completing ACK)
    ///   dies this much sooner (SYN-flood entries age out fast).
    ///
    /// All in [`FlowClock`] ticks; `u64::MAX` disables a timer. The
    /// state-specific timers are enforced by [`Self::sweep`], which a
    /// control-plane cadence must call.
    pub fn with_timeouts(
        capacity: usize,
        idle_timeout: u64,
        closing_timeout: u64,
        syn_timeout: u64,
    ) -> Arc<Self> {
        Arc::new(Self {
            core: element_core("netkit.ConnTracker"),
            out: Receptacle::single("out", IPACKET_PUSH),
            table: Mutex::new(FlowTable::new(capacity, idle_timeout)),
            clock: FlowClock::new(),
            untracked: AtomicU64::new(0),
            half_open: AtomicU64::new(0),
            closing_timeout,
            syn_timeout,
        })
    }

    /// Retires an evicted entry's contribution to the half-open gauge.
    fn retire_gauge(&self, corpse: &ConnInfo) {
        if corpse.is_half_open() {
            self.add_half_open(-1);
        }
    }

    /// Moves the half-open gauge by `delta`. Saturating: transitions
    /// and evictions all happen under the table lock, so the gauge
    /// never actually underflows.
    fn add_half_open(&self, delta: i64) {
        if delta != 0 {
            let _ = self
                .half_open
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    Some(v.saturating_add_signed(delta))
                });
        }
    }

    /// Adds a call's local tallies to the shared counters — one atomic
    /// per touched counter per push or per *batch*.
    fn flush_counts(&self, counts: TrackCounts) {
        if counts.untracked > 0 {
            self.untracked
                .fetch_add(counts.untracked, Ordering::Relaxed);
        }
        self.add_half_open(counts.half_open);
    }

    fn track(&self, table: &mut FlowTable<ConnInfo>, pkt: &Packet, counts: &mut TrackCounts) {
        let Some(flow) = FlowView::of(pkt) else {
            counts.untracked += 1;
            return;
        };
        let (ckey, dir) = flow.key.canonical_with_direction();
        let now = self.clock.advance(pkt.meta.timestamp_ns);
        let bytes = pkt.len() as u64;
        // One probe finds the entry or makes room for it. Eviction
        // pressure prefers half-open victims: when the table is full
        // and this packet inserts, a nearby half-open entry (bounded
        // tail scan) goes before LRU takes an established connection —
        // under a SYN flood the attack evicts itself, not the
        // legitimate traffic.
        let admission = table.get_or_insert_preferring(
            flow.hash,
            ckey,
            now,
            ConnInfo::default,
            HALF_OPEN_EVICT_SCAN,
            |info, _| info.is_half_open(),
        );
        let was_half_open = !admission.created && admission.value.is_half_open();
        admission.value.observe(dir, bytes, flow.tcp_flags);
        let is_half_open = admission.value.is_half_open();
        if let Some((_, corpse)) = &admission.evicted {
            counts.half_open -= i64::from(corpse.is_half_open());
        }
        counts.half_open += i64::from(is_half_open) - i64::from(was_half_open);
    }

    /// Tracked connection count.
    pub fn len(&self) -> usize {
        self.table.lock().len()
    }

    /// True if no connections are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A tracked connection's state, looked up by either direction's
    /// tuple.
    pub fn info(&self, key: &FlowKey) -> Option<ConnInfo> {
        self.table
            .lock()
            .peek(key.rss_hash(), &key.canonical())
            .copied()
    }

    /// Lifetime table counters (insertions, evictions, hits, misses).
    pub fn table_stats(&self) -> FlowTableStats {
        self.table.lock().stats()
    }

    /// Resident bytes of the backing flow table. Fixed once the slab
    /// and index reach capacity — the bound the soak test pins.
    pub fn footprint_bytes(&self) -> usize {
        self.table.lock().footprint_bytes()
    }

    /// Frames that carried no flow identity and passed through
    /// untracked.
    pub fn untracked(&self) -> u64 {
        self.untracked.load(Ordering::Relaxed)
    }

    /// Reclaims idle-expired entries now; returns how many died.
    pub fn expire_idle(&self) -> usize {
        let mut table = self.table.lock();
        let now = self.clock.now();
        let dead = table.expire_idle(now);
        for (_, corpse) in &dead {
            self.retire_gauge(corpse);
        }
        dead.len()
    }

    /// Live half-open connections: TCP flows where a SYN was seen but
    /// the handshake never completed. A normal workload keeps this
    /// near zero (handshakes complete in a round-trip); a climbing
    /// gauge is SYN-flood evidence, exported here so the inline
    /// [`Guard`](super::Guard) can arm its SYN defence on it.
    pub fn half_open(&self) -> u64 {
        self.half_open.load(Ordering::Relaxed)
    }

    /// Runs the state-specific timers now: reclaims
    /// [`ConnState::Closing`] entries older than the teardown timer
    /// and half-open entries older than the SYN timer (see
    /// [`Self::with_timeouts`]). Returns how many entries died.
    ///
    /// The sweep walks the whole table (per-state expiries are not
    /// LRU-ordered), so call it on a control-plane cadence — the
    /// reflective control loop's tick, a periodic task — not per
    /// packet.
    pub fn sweep(&self) -> usize {
        if self.closing_timeout == u64::MAX && self.syn_timeout == u64::MAX {
            return 0;
        }
        let now = self.clock.now();
        let closing = self.closing_timeout;
        let syn = self.syn_timeout;
        let mut table = self.table.lock();
        let dead = table.expire_matching(|info, last_seen| {
            let age = now.saturating_sub(last_seen);
            match info.state {
                ConnState::Closing => closing != u64::MAX && age > closing,
                ConnState::New if info.syn_seen => syn != u64::MAX && age > syn,
                _ => false,
            }
        });
        for (_, corpse) in &dead {
            self.retire_gauge(corpse);
        }
        dead.len()
    }
}

impl IPacketPush for ConnTracker {
    fn push_batch(&self, batch: PacketBatch) -> BatchResult {
        let mut counts = TrackCounts::default();
        {
            // One lock for the whole burst.
            let mut table = self.table.lock();
            for pkt in &batch {
                self.track(&mut table, pkt, &mut counts);
            }
        }
        self.flush_counts(counts);
        emit(batch, &Exits::new(0), &[Output::new(&self.out, Ok(()))])
    }
}

impl Component for ConnTracker {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
        reg.receptacle(&self.out);
    }
    fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.table.lock().footprint_bytes()
    }
}

impl fmt::Debug for ConnTracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ConnTracker({} tracked, {} untracked)",
            self.len(),
            self.untracked()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_packet::headers::proto;
    use netkit_packet::packet::PacketBuilder;

    fn udp(src: &str, dst: &str, sport: u16, dport: u16) -> Packet {
        PacketBuilder::udp_v4(src, dst, sport, dport).build()
    }

    #[test]
    fn udp_establishes_on_reverse_traffic() {
        let ct = ConnTracker::new();
        let req = udp("10.0.0.1", "10.9.9.9", 5000, 53);
        let key = FlowKey::from_packet(&req).unwrap();
        ct.push(req).unwrap();
        assert_eq!(ct.info(&key).unwrap().state, ConnState::New);
        // The reply — looked up by the reversed tuple — lands in the
        // same entry and confirms the connection.
        ct.push(udp("10.9.9.9", "10.0.0.1", 53, 5000)).unwrap();
        let info = ct.info(&key).unwrap();
        assert_eq!(info.state, ConnState::Established);
        assert_eq!(info.packets(), 2);
        assert_eq!(ct.len(), 1, "one entry for both directions");
    }

    #[test]
    fn per_direction_counters_are_canonical_relative() {
        let ct = ConnTracker::new();
        let a = udp("10.0.0.1", "10.9.9.9", 5000, 53);
        let b = udp("10.9.9.9", "10.0.0.1", 53, 5000);
        let (_, dir_a) = FlowKey::from_packet(&a).unwrap().canonical_with_direction();
        let la = a.len() as u64;
        let lb = b.len() as u64;
        ct.push(a).unwrap();
        ct.push(b).unwrap();
        let info = ct
            .info(&FlowKey::from_packet(&udp("10.0.0.1", "10.9.9.9", 5000, 53)).unwrap())
            .unwrap();
        // Whichever way the canonical orientation fell, one packet is
        // attributed to each direction.
        assert_eq!((info.fwd_packets, info.rev_packets), (1, 1));
        if dir_a.is_forward() {
            assert_eq!((info.fwd_bytes, info.rev_bytes), (la, lb));
        } else {
            assert_eq!((info.fwd_bytes, info.rev_bytes), (lb, la));
        }
    }

    #[test]
    fn non_flow_frames_pass_untracked() {
        let ct = ConnTracker::new();
        ct.push(Packet::from_slice(&[0u8; 14])).unwrap();
        assert_eq!((ct.len(), ct.untracked()), (0, 1));
    }

    #[test]
    fn bounded_capacity_evicts_lru() {
        let ct = ConnTracker::with_table(4, u64::MAX);
        for n in 0..10u16 {
            ct.push(udp("10.0.0.1", "10.9.9.9", 6000 + n, 53)).unwrap();
        }
        assert_eq!(ct.len(), 4);
        let stats = ct.table_stats();
        assert_eq!(stats.insertions, 10);
        assert_eq!(stats.lru_evictions, 6);
    }

    fn tcp(src: &str, dst: &str, sport: u16, dport: u16, flags: TcpFlags) -> Packet {
        PacketBuilder::tcp_v4(src, dst, sport, dport)
            .tcp_flags(flags)
            .build()
    }

    #[test]
    fn half_open_gauge_tracks_the_handshake() {
        let ct = ConnTracker::new();
        // SYN: half-open.
        ct.push(tcp("10.0.0.1", "10.9.9.9", 5000, 80, TcpFlags::SYN))
            .unwrap();
        assert_eq!(ct.half_open(), 1);
        // SYN+ACK reply: still handshaking, still half-open.
        ct.push(tcp(
            "10.9.9.9",
            "10.0.0.1",
            80,
            5000,
            TcpFlags::SYN | TcpFlags::ACK,
        ))
        .unwrap();
        assert_eq!(ct.half_open(), 1);
        // Final ACK completes the handshake: the gauge falls.
        ct.push(tcp("10.0.0.1", "10.9.9.9", 5000, 80, TcpFlags::ACK))
            .unwrap();
        assert_eq!(ct.half_open(), 0);
        let key = FlowKey {
            src: "10.0.0.1".parse().unwrap(),
            dst: "10.9.9.9".parse().unwrap(),
            protocol: proto::TCP,
            src_port: 5000,
            dst_port: 80,
        };
        assert_eq!(ct.info(&key).unwrap().state, ConnState::Established);
    }

    #[test]
    fn rst_moves_to_closing_and_sweep_reclaims_after_teardown_timer() {
        // idle=1000, closing=10, syn=50 ticks. Frames carry no stamps,
        // so the clock ticks once per packet.
        let ct = ConnTracker::with_timeouts(16, 1000, 10, 50);
        ct.push(tcp("10.0.0.1", "10.9.9.9", 5000, 80, TcpFlags::ACK))
            .unwrap();
        ct.push(tcp("10.0.0.1", "10.9.9.9", 5000, 80, TcpFlags::RST))
            .unwrap();
        let key =
            FlowKey::from_packet(&tcp("10.0.0.1", "10.9.9.9", 5000, 80, TcpFlags::ACK)).unwrap();
        assert_eq!(ct.info(&key).unwrap().state, ConnState::Closing);
        // Not yet past the teardown timer: survives the sweep.
        assert_eq!(ct.sweep(), 0);
        // Age the clock past closing_timeout with unrelated traffic.
        for n in 0..12u16 {
            ct.push(udp("10.0.0.2", "10.9.9.9", 7000 + n, 53)).unwrap();
        }
        assert_eq!(ct.sweep(), 1, "closing entry reclaimed");
        assert!(ct.info(&key).is_none());
    }

    #[test]
    fn sweep_reclaims_stale_half_opens_and_keeps_the_gauge_honest() {
        let ct = ConnTracker::with_timeouts(64, u64::MAX, u64::MAX, 5);
        for n in 0..4u16 {
            ct.push(tcp("10.0.0.1", "10.9.9.9", 5000 + n, 80, TcpFlags::SYN))
                .unwrap();
        }
        assert_eq!(ct.half_open(), 4);
        // Age past the SYN timer.
        for n in 0..8u16 {
            ct.push(udp("10.0.0.2", "10.9.9.9", 7000 + n, 53)).unwrap();
        }
        let dead = ct.sweep();
        assert!(dead >= 3, "stale half-opens reclaimed, got {dead}");
        assert_eq!(ct.half_open() as usize, 4 - dead);
    }

    #[test]
    fn full_table_prefers_half_open_victims() {
        let ct = ConnTracker::with_table(4, u64::MAX);
        // Two established UDP flows, two half-open handshakes.
        ct.push(udp("10.0.0.1", "10.9.9.9", 6000, 53)).unwrap();
        ct.push(udp("10.9.9.9", "10.0.0.1", 53, 6000)).unwrap();
        ct.push(udp("10.0.0.1", "10.9.9.9", 6001, 53)).unwrap();
        ct.push(udp("10.9.9.9", "10.0.0.1", 53, 6001)).unwrap();
        ct.push(tcp("10.0.0.3", "10.9.9.9", 5000, 80, TcpFlags::SYN))
            .unwrap();
        ct.push(tcp("10.0.0.3", "10.9.9.9", 5001, 80, TcpFlags::SYN))
            .unwrap();
        assert_eq!((ct.len(), ct.half_open()), (4, 2));
        // A new flow on the full table sacrifices a half-open entry —
        // NOT the (older) established ones.
        ct.push(udp("10.0.0.4", "10.9.9.9", 6002, 53)).unwrap();
        assert_eq!(ct.len(), 4);
        assert_eq!(ct.half_open(), 1, "a half-open entry was the victim");
        let established = FlowKey::from_packet(&udp("10.0.0.1", "10.9.9.9", 6000, 53)).unwrap();
        assert!(
            ct.info(&established).is_some(),
            "established flow must survive the pressure"
        );
    }

    #[test]
    fn batch_path_matches_scalar() {
        let ct = ConnTracker::new();
        let batch: PacketBatch = (0..8u16)
            .map(|n| udp("10.0.0.1", "10.9.9.9", 5000 + n % 4, 53))
            .collect();
        let result = ct.push_batch(batch);
        assert!(result.all_ok());
        assert_eq!(ct.len(), 4);
    }
}
