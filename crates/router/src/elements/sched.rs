//! Diffserv scheduler elements.
//!
//! Schedulers sit on the pull path (Fig. 3's "link scheduler" feeds from
//! the queueing stage): they hold a multi-receptacle of `IPacketPull`
//! inputs, bound under labels in priority order, and export a single
//! `IPacketPull` that the downstream link driver polls.
//!
//! Three disciplines are provided — strict priority, deficit round-robin
//! (DRR), and a start-time-based weighted-fair approximation — matching
//! the paper's "diffserv schedulers" in the in-band functions stratum.

use std::sync::Arc;

use netkit_packet::batch::PacketBatch;
use netkit_packet::packet::Packet;
use opencom::component::{Component, ComponentCore, Registrar};
use opencom::counters;
use opencom::receptacle::Receptacle;
use parking_lot::Mutex;

use crate::api::{IPacketPull, IPACKET_PULL};

use super::element_core;

/// Per-input scheduler state; `head` holds a packet pulled from the
/// input but not yet eligible to leave (DRR/WFQ need packet sizes before
/// committing).
struct InputState {
    label: String,
    head: Option<Packet>,
    deficit: f64,
    finish_tag: f64,
    weight: f64,
    served_packets: u64,
    served_bytes: u64,
}

struct SchedState {
    inputs: Vec<InputState>,
    cursor: usize,
    virtual_time: f64,
}

/// The scheduling discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Discipline {
    Strict,
    Drr,
    Wfq,
}

counters! { struct SchedulerStats { served } }

/// Common machinery for the three disciplines.
pub struct Scheduler {
    core: ComponentCore,
    inputs: Receptacle<dyn IPacketPull>,
    state: Mutex<SchedState>,
    discipline: Discipline,
    quantum: f64,
    weights: Mutex<Vec<(String, f64)>>,
}

impl Scheduler {
    fn make(
        discipline: Discipline,
        type_name: &str,
        quantum: f64,
        weights: &[(&str, f64)],
    ) -> Arc<Self> {
        Arc::new(Self {
            core: element_core(type_name).counting::<SchedulerStats>(),
            inputs: Receptacle::multi("in", IPACKET_PULL),
            state: Mutex::new(SchedState {
                inputs: Vec::new(),
                cursor: 0,
                virtual_time: 0.0,
            }),
            discipline,
            quantum,
            weights: Mutex::new(weights.iter().map(|(l, w)| (l.to_string(), *w)).collect()),
        })
    }

    /// Total packets dispatched.
    pub fn served(&self) -> u64 {
        self.core.counters().read::<SchedulerStats>().served
    }

    /// Sets (or adds) the weight for input `label`; live inputs adopt it
    /// on the next pull. Used by stratum-4 controllers to re-share a link
    /// between virtual networks at run time.
    pub fn set_weight(&self, label: &str, weight: f64) {
        assert!(weight > 0.0, "weights must be positive");
        {
            let mut weights = self.weights.lock();
            match weights.iter_mut().find(|(l, _)| l == label) {
                Some((_, w)) => *w = weight,
                None => weights.push((label.to_string(), weight)),
            }
        }
        let mut state = self.state.lock();
        if let Some(input) = state.inputs.iter_mut().find(|i| i.label == label) {
            input.weight = weight;
        }
    }

    /// Packets and bytes served per input label, in bind order.
    pub fn per_input_stats(&self) -> Vec<(String, u64, u64)> {
        let state = self.state.lock();
        state
            .inputs
            .iter()
            .map(|i| (i.label.clone(), i.served_packets, i.served_bytes))
            .collect()
    }

    /// Synchronises internal state with the receptacle's current
    /// bindings (new inputs appear, removed inputs vanish).
    fn sync_inputs(&self, state: &mut SchedState) {
        let bindings = self.inputs.bindings();
        let labels: Vec<String> = bindings.into_iter().map(|(label, _, _)| label).collect();
        let changed = state.inputs.len() != labels.len()
            || state.inputs.iter().zip(&labels).any(|(s, l)| &s.label != l);
        if !changed {
            return;
        }
        let old: Vec<InputState> = std::mem::take(&mut state.inputs);
        let mut old_by_label: Vec<Option<InputState>> = old.into_iter().map(Some).collect();
        state.inputs = labels
            .into_iter()
            .map(|label| {
                if let Some(slot) = old_by_label
                    .iter_mut()
                    .find(|s| s.as_ref().is_some_and(|i| i.label == label))
                {
                    slot.take().expect("checked above")
                } else {
                    let weight = self
                        .weights
                        .lock()
                        .iter()
                        .find(|(l, _)| *l == label)
                        .map(|(_, w)| *w)
                        .unwrap_or(1.0);
                    InputState {
                        label,
                        head: None,
                        deficit: 0.0,
                        finish_tag: 0.0,
                        weight,
                        served_packets: 0,
                        served_bytes: 0,
                    }
                }
            })
            .collect();
        state.cursor = 0;
    }

    /// Fills the head slot of input `idx` from its bound puller. A newly
    /// arrived head packet is stamped with its WFQ finish tag
    /// (self-clocked fair queueing: `max(flow finish, virtual time) +
    /// size/weight`); the stamp is unused by the other disciplines.
    fn refill_head(&self, state: &mut SchedState, idx: usize) {
        if state.inputs[idx].head.is_some() {
            return;
        }
        let label = state.inputs[idx].label.clone();
        let pulled = self.inputs.with_labelled(&label, |p| p.pull()).flatten();
        if let Some(pkt) = pulled {
            let virtual_time = state.virtual_time;
            let input = &mut state.inputs[idx];
            let start = input.finish_tag.max(virtual_time);
            input.finish_tag = start + pkt.len() as f64 / input.weight;
            input.head = Some(pkt);
        }
    }

    fn serve(&self, state: &mut SchedState, idx: usize) -> Packet {
        let pkt = state.inputs[idx].head.take().expect("head present");
        state.inputs[idx].served_packets += 1;
        state.inputs[idx].served_bytes += pkt.len() as u64;
        pkt
    }

    fn pull_strict(&self, state: &mut SchedState) -> Option<Packet> {
        for idx in 0..state.inputs.len() {
            self.refill_head(state, idx);
            if state.inputs[idx].head.is_some() {
                return Some(self.serve(state, idx));
            }
        }
        None
    }

    fn pull_drr(&self, state: &mut SchedState) -> Option<Packet> {
        let n = state.inputs.len();
        if n == 0 {
            return None;
        }
        // At most two full rounds: one to grant quanta, one to serve.
        for _ in 0..(2 * n) {
            let idx = state.cursor % n;
            self.refill_head(state, idx);
            match state.inputs[idx].head.as_ref().map(|p| p.len() as f64) {
                Some(size) => {
                    if state.inputs[idx].deficit >= size {
                        state.inputs[idx].deficit -= size;
                        return Some(self.serve(state, idx));
                    }
                    // Not enough credit: grant a quantum and move on.
                    state.inputs[idx].deficit += self.quantum;
                    state.cursor = (state.cursor + 1) % n;
                }
                None => {
                    // Idle inputs lose their deficit (standard DRR).
                    state.inputs[idx].deficit = 0.0;
                    state.cursor = (state.cursor + 1) % n;
                }
            }
        }
        // Everything idle, or quantum too small for any head packet:
        // serve the best-credited head to guarantee progress.
        let best = (0..n)
            .filter(|i| state.inputs[*i].head.is_some())
            .max_by(|a, b| {
                state.inputs[*a]
                    .deficit
                    .partial_cmp(&state.inputs[*b].deficit)
                    .expect("finite")
            })?;
        Some(self.serve(state, best))
    }

    fn pull_wfq(&self, state: &mut SchedState) -> Option<Packet> {
        let n = state.inputs.len();
        for idx in 0..n {
            self.refill_head(state, idx);
        }
        let candidate = (0..n)
            .filter(|i| state.inputs[*i].head.is_some())
            .min_by(|a, b| {
                state.inputs[*a]
                    .finish_tag
                    .partial_cmp(&state.inputs[*b].finish_tag)
                    .expect("finite")
            })?;
        // Self-clocked fair queueing: the system virtual time is the
        // finish tag of the packet in service.
        state.virtual_time = state.inputs[candidate].finish_tag;
        Some(self.serve(state, candidate))
    }
}

impl Scheduler {
    fn pull_one(&self, state: &mut SchedState) -> Option<Packet> {
        match self.discipline {
            Discipline::Strict => self.pull_strict(state),
            Discipline::Drr => self.pull_drr(state),
            Discipline::Wfq => self.pull_wfq(state),
        }
    }
}

impl IPacketPull for Scheduler {
    fn pull_batch(&self, max: usize) -> PacketBatch {
        // One state lock and one binding sync for the whole burst; the
        // discipline decision still runs per packet.
        let mut batch = PacketBatch::with_capacity(max.min(64));
        let mut state = self.state.lock();
        self.sync_inputs(&mut state);
        while batch.len() < max {
            match self.pull_one(&mut state) {
                Some(pkt) => batch.push(pkt),
                None => break,
            }
        }
        let served = batch.len() as u64;
        self.core.counters().flush(SchedulerStats { served });
        batch
    }
}

impl Component for Scheduler {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let pull: Arc<dyn IPacketPull> = self.clone();
        reg.expose(IPACKET_PULL, &pull);
        reg.receptacle(&self.inputs);
    }
    fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.state.lock().inputs.len() * std::mem::size_of::<InputState>()
    }
}

/// Strict-priority scheduler: inputs are served in bind order — the
/// first-bound label always wins when it has traffic.
#[derive(Debug)]
pub struct PriorityScheduler;

impl PriorityScheduler {
    /// Creates a strict-priority scheduler.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Arc<Scheduler> {
        Scheduler::make(Discipline::Strict, "netkit.PriorityScheduler", 0.0, &[])
    }
}

/// Deficit-round-robin scheduler with a byte quantum per round.
#[derive(Debug)]
pub struct DrrScheduler;

impl DrrScheduler {
    /// Creates a DRR scheduler granting `quantum` bytes per input per
    /// round.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(quantum: f64) -> Arc<Scheduler> {
        Scheduler::make(Discipline::Drr, "netkit.DrrScheduler", quantum, &[])
    }
}

/// Weighted-fair scheduler (start-time-fair approximation). Inputs not
/// named in `weights` default to weight 1.
#[derive(Debug)]
pub struct WfqScheduler;

impl WfqScheduler {
    /// Creates a WFQ scheduler with per-label weights.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(weights: &[(&str, f64)]) -> Arc<Scheduler> {
        Scheduler::make(Discipline::Wfq, "netkit.WfqScheduler", 0.0, weights)
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Scheduler({:?}, {} inputs, {} served)",
            self.discipline,
            self.state.lock().inputs.len(),
            self.served()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::IPacketPush;
    use crate::elements::queues::DropTailQueue;
    use netkit_packet::packet::PacketBuilder;
    use opencom::capsule::Capsule;
    use opencom::runtime::Runtime;

    fn rig(
        sched: Arc<Scheduler>,
        queues: &[(&str, usize)],
    ) -> (Arc<Capsule>, Vec<Arc<DropTailQueue>>) {
        let rt = Runtime::new();
        crate::api::register_packet_interfaces(&rt);
        let capsule = Capsule::new("t", &rt);
        let sid = capsule.adopt(sched).unwrap();
        let mut out = Vec::new();
        for (label, cap) in queues {
            let q = DropTailQueue::new(*cap);
            let qid = capsule.adopt(q.clone()).unwrap();
            capsule.bind(sid, "in", label, qid, IPACKET_PULL).unwrap();
            out.push(q);
        }
        (capsule, out)
    }

    fn pkt_sized(payload: usize, sport: u16) -> netkit_packet::packet::Packet {
        PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", sport, 9)
            .payload_len(payload)
            .build()
    }

    #[test]
    fn strict_priority_serves_first_bound_first() {
        let sched = PriorityScheduler::new();
        let (_c, queues) = rig(sched.clone(), &[("hi", 16), ("lo", 16)]);
        for _ in 0..3 {
            queues[0].push(pkt_sized(10, 1)).unwrap();
            queues[1].push(pkt_sized(10, 2)).unwrap();
        }
        let order: Vec<u16> = (0..6)
            .filter_map(|_| sched.pull())
            .map(|p| p.udp_v4().unwrap().src_port)
            .collect();
        assert_eq!(order, [1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn strict_priority_resumes_high_when_traffic_returns() {
        let sched = PriorityScheduler::new();
        let (_c, queues) = rig(sched.clone(), &[("hi", 16), ("lo", 16)]);
        queues[1].push(pkt_sized(10, 2)).unwrap();
        assert_eq!(sched.pull().unwrap().udp_v4().unwrap().src_port, 2);
        queues[0].push(pkt_sized(10, 1)).unwrap();
        queues[1].push(pkt_sized(10, 2)).unwrap();
        assert_eq!(sched.pull().unwrap().udp_v4().unwrap().src_port, 1);
    }

    #[test]
    fn drr_shares_bytes_evenly_with_equal_quanta() {
        let sched = DrrScheduler::new(500.0);
        let (_c, queues) = rig(sched.clone(), &[("a", 512), ("b", 512)]);
        // a sends small packets, b sends large; byte shares should even out.
        for _ in 0..200 {
            queues[0].push(pkt_sized(58, 1)).unwrap(); // 100-byte frames
            let _ = queues[1].push(pkt_sized(458, 2)); // 500-byte frames
        }
        for _ in 0..150 {
            sched.pull().unwrap();
        }
        let stats = sched.per_input_stats();
        let a_bytes = stats[0].2 as f64;
        let b_bytes = stats[1].2 as f64;
        let ratio = a_bytes / b_bytes;
        assert!(
            (0.7..=1.4).contains(&ratio),
            "DRR byte shares should be near 1:1, got {ratio} ({a_bytes} vs {b_bytes})"
        );
    }

    #[test]
    fn drr_serves_oversized_packets_eventually() {
        // Quantum far below packet size: progress guarantee must kick in.
        let sched = DrrScheduler::new(10.0);
        let (_c, queues) = rig(sched.clone(), &[("a", 8)]);
        queues[0].push(pkt_sized(500, 1)).unwrap();
        assert!(
            sched.pull().is_some(),
            "oversized head must still be served"
        );
    }

    #[test]
    fn wfq_respects_weights() {
        let sched = WfqScheduler::new(&[("gold", 3.0), ("bronze", 1.0)]);
        let (_c, queues) = rig(sched.clone(), &[("gold", 1024), ("bronze", 1024)]);
        for _ in 0..400 {
            queues[0].push(pkt_sized(100, 1)).unwrap();
            queues[1].push(pkt_sized(100, 2)).unwrap();
        }
        for _ in 0..200 {
            sched.pull().unwrap();
        }
        let stats = sched.per_input_stats();
        let gold = stats.iter().find(|s| s.0 == "gold").unwrap().1 as f64;
        let bronze = stats.iter().find(|s| s.0 == "bronze").unwrap().1 as f64;
        let ratio = gold / bronze;
        assert!((2.5..=3.5).contains(&ratio), "expected ~3:1, got {ratio}");
    }

    #[test]
    fn wfq_work_conserving_when_one_idle() {
        let sched = WfqScheduler::new(&[("gold", 3.0), ("bronze", 1.0)]);
        let (_c, queues) = rig(sched.clone(), &[("gold", 16), ("bronze", 16)]);
        for _ in 0..5 {
            queues[1].push(pkt_sized(100, 2)).unwrap();
        }
        let mut served = 0;
        while sched.pull().is_some() {
            served += 1;
        }
        assert_eq!(served, 5, "idle gold queue must not block bronze");
    }

    #[test]
    fn empty_scheduler_pulls_none() {
        let sched = DrrScheduler::new(100.0);
        let (_c, _queues) = rig(sched.clone(), &[]);
        assert!(sched.pull().is_none());
    }

    #[test]
    fn dynamic_input_addition_is_picked_up() {
        let sched = PriorityScheduler::new();
        let (capsule, queues) = rig(sched.clone(), &[("a", 16)]);
        queues[0].push(pkt_sized(10, 1)).unwrap();
        assert!(sched.pull().is_some());
        // Bind a second queue at run time.
        let q2 = DropTailQueue::new(16);
        let q2id = capsule.adopt(q2.clone()).unwrap();
        let sid = capsule.arch().find_by_type("netkit.PriorityScheduler")[0]
            .core()
            .id();
        capsule.bind(sid, "in", "b", q2id, IPACKET_PULL).unwrap();
        q2.push(pkt_sized(10, 2)).unwrap();
        assert_eq!(sched.pull().unwrap().udp_v4().unwrap().src_port, 2);
    }
}
