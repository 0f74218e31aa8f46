//! Utility elements: counters, duplicators, sinks, and the protocol
//! recogniser of paper Figure 3.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netkit_packet::batch::PacketBatch;
use netkit_packet::headers::EtherType;
use netkit_packet::packet::Packet;
use opencom::component::{Component, ComponentCore, Registrar};
use opencom::receptacle::Receptacle;
use parking_lot::Mutex;

use crate::api::{emit, BatchResult, Exit, Exits, IPacketPush, Output, PushError, IPACKET_PUSH};

use super::{element_core, first_met};

/// Pass-through element counting packets and bytes; keeps the last
/// packet for test inspection. With no downstream binding it acts as a
/// sink.
pub struct Counter {
    core: ComponentCore,
    out: Receptacle<dyn IPacketPush>,
    packets: AtomicU64,
    bytes: AtomicU64,
    last: Mutex<Option<Packet>>,
}

impl Counter {
    /// Creates a counter.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            core: element_core("netkit.Counter"),
            out: Receptacle::single("out", IPACKET_PUSH),
            packets: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            last: Mutex::new(None),
        })
    }

    /// Packets seen.
    pub fn count(&self) -> u64 {
        self.packets.load(Ordering::Relaxed)
    }

    /// Bytes seen.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// The most recent packet (cloned).
    pub fn last(&self) -> Option<Packet> {
        self.last.lock().clone()
    }
}

impl IPacketPush for Counter {
    fn push_batch(&self, batch: PacketBatch) -> BatchResult {
        // Two counter adds and one lock for the whole burst, one
        // receptacle traversal downstream.
        let n = batch.len();
        self.packets.fetch_add(n as u64, Ordering::Relaxed);
        self.bytes.fetch_add(
            batch.iter().map(|p| p.len() as u64).sum::<u64>(),
            Ordering::Relaxed,
        );
        if let Some(last) = batch.packets().last() {
            *self.last.lock() = Some(last.clone());
        }
        emit(batch, &Exits::new(0), &[Output::new(&self.out, Ok(()))])
    }
}

impl Component for Counter {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
        reg.receptacle(&self.out);
    }
    fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.last.lock().as_ref().map_or(0, |p| p.len())
    }
}

/// Terminal sink: accepts and drops everything, keeping counters and the
/// last packet for inspection.
pub struct Discard {
    core: ComponentCore,
    packets: AtomicU64,
    last: Mutex<Option<Packet>>,
}

impl Discard {
    /// Creates a sink.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            core: element_core("netkit.Discard"),
            packets: AtomicU64::new(0),
            last: Mutex::new(None),
        })
    }

    /// Packets swallowed.
    pub fn count(&self) -> u64 {
        self.packets.load(Ordering::Relaxed)
    }

    /// The most recent packet (cloned).
    pub fn last(&self) -> Option<Packet> {
        self.last.lock().clone()
    }
}

impl IPacketPush for Discard {
    fn push_batch(&self, mut batch: PacketBatch) -> BatchResult {
        let n = batch.len();
        self.packets.fetch_add(n as u64, Ordering::Relaxed);
        if let Some(last) = batch.pop() {
            *self.last.lock() = Some(last);
        }
        // `batch` drops whole here: a pool-leased container (and its
        // packets' pooled frame buffers) recycles instead of freeing.
        BatchResult::ok(n)
    }
}

impl Component for Discard {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
    }
    fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// Duplicates each packet to every bound output (multicast fan-out).
pub struct Tee {
    core: ComponentCore,
    outs: Receptacle<dyn IPacketPush>,
    forwarded: AtomicU64,
}

impl Tee {
    /// Creates a duplicator.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            core: element_core("netkit.Tee"),
            outs: Receptacle::multi("out", IPACKET_PUSH),
            forwarded: AtomicU64::new(0),
        })
    }

    /// Copies emitted (one per bound output per input packet).
    pub fn forwarded(&self) -> u64 {
        self.forwarded.load(Ordering::Relaxed)
    }
}

impl IPacketPush for Tee {
    fn push_batch(&self, batch: PacketBatch) -> BatchResult {
        // One cloned batch and one traversal per output. A packet's
        // verdict is `Ok` once any output exists, whatever the outputs
        // answer; `forwarded` counts the copies they accepted.
        let n = batch.len();
        let mut any = false;
        self.outs.for_each(|_, next| {
            let copy: PacketBatch = batch.packets().to_vec().into();
            let sub = next.push_batch(copy);
            self.forwarded
                .fetch_add(sub.accepted() as u64, Ordering::Relaxed);
            any = true;
        });
        if any {
            BatchResult::ok(n)
        } else {
            BatchResult::err(n, PushError::Unbound)
        }
    }
}

impl Component for Tee {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
        reg.receptacle(&self.outs);
    }
    fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// The "protocol recogn" element of paper Figure 3: demultiplexes frames
/// onto labelled outputs by EtherType (`ipv4`, `ipv6`, `arp`, `other`).
pub struct ProtocolRecogniser {
    core: ComponentCore,
    outs: Receptacle<dyn IPacketPush>,
    unroutable: AtomicU64,
}

impl ProtocolRecogniser {
    /// Creates a recogniser.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            core: element_core("netkit.ProtocolRecogniser"),
            outs: Receptacle::multi("out", IPACKET_PUSH),
            unroutable: AtomicU64::new(0),
        })
    }

    /// Frames dropped because no output matched their protocol.
    pub fn unroutable(&self) -> u64 {
        self.unroutable.load(Ordering::Relaxed)
    }
}

impl ProtocolRecogniser {
    fn label_for(pkt: &Packet) -> &'static str {
        match pkt.ethernet() {
            Ok(eth) => match eth.ethertype {
                EtherType::Ipv4 => "ipv4",
                EtherType::Ipv6 => "ipv6",
                EtherType::Arp => "arp",
                EtherType::Other(_) => "other",
            },
            Err(_) => "other",
        }
    }
}

impl IPacketPush for ProtocolRecogniser {
    fn push_batch(&self, batch: PacketBatch) -> BatchResult {
        // Each frame leaves on its protocol's own output, else on
        // `other`; with `other` unbound too it drops `Ok` (the drop
        // policy for unmatched protocols) and is counted.
        let mut exits = Exits::new(0);
        // Each protocol this batch has met and its exit; the outputs.
        let mut protocols: Vec<(&'static str, Exit)> = Vec::with_capacity(4);
        let mut labels: Vec<String> = Vec::with_capacity(4);
        let mut unroutable = 0u64;
        for (idx, pkt) in batch.iter().enumerate() {
            let protocol = Self::label_for(pkt);
            let exit = match protocols.iter().find(|(p, _)| *p == protocol) {
                Some((_, exit)) => exit.clone(),
                None => {
                    let bound = |l: &&str| self.outs.with_labelled(l, |_| ()).is_some();
                    let exit = match [protocol, "other"].into_iter().find(bound) {
                        Some(label) => Exit::Out(first_met(&mut labels, label)),
                        None => Exit::Drop(Ok(())),
                    };
                    protocols.push((protocol, exit.clone()));
                    exit
                }
            };
            unroutable += u64::from(exit == Exit::Drop(Ok(())));
            exits.set(idx, exit);
        }
        self.unroutable.fetch_add(unroutable, Ordering::Relaxed);
        let outputs: Vec<Output<'_>> = labels
            .iter()
            .map(|l| Output::new(&self.outs, Ok(())).labelled(l))
            .collect();
        emit(batch, &exits, &outputs)
    }
}

impl Component for ProtocolRecogniser {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
        reg.receptacle(&self.outs);
    }
    fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_packet::packet::PacketBuilder;
    use opencom::capsule::Capsule;
    use opencom::runtime::Runtime;

    fn capsule() -> Arc<Capsule> {
        let rt = Runtime::new();
        crate::api::register_packet_interfaces(&rt);
        Capsule::new("t", &rt)
    }

    fn v4_pkt() -> Packet {
        PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2)
            .payload(b"xy")
            .build()
    }

    #[test]
    fn counter_counts_and_passes_through() {
        let c = capsule();
        let counter = Counter::new();
        let sink = Discard::new();
        let cid = c.adopt(counter.clone()).unwrap();
        let sid = c.adopt(sink.clone()).unwrap();
        c.bind_simple(cid, "out", sid, IPACKET_PUSH).unwrap();
        counter.push(v4_pkt()).unwrap();
        counter.push(v4_pkt()).unwrap();
        assert_eq!(counter.count(), 2);
        assert_eq!(counter.bytes(), 2 * v4_pkt().len() as u64);
        assert_eq!(sink.count(), 2);
    }

    #[test]
    fn counter_without_downstream_is_a_sink() {
        let counter = Counter::new();
        assert!(counter.push(v4_pkt()).is_ok());
        assert_eq!(counter.count(), 1);
        assert!(counter.last().is_some());
    }

    #[test]
    fn tee_duplicates_to_all_outputs() {
        let c = capsule();
        let tee = Tee::new();
        let (a, b) = (Discard::new(), Discard::new());
        let tid = c.adopt(tee.clone()).unwrap();
        let aid = c.adopt(a.clone()).unwrap();
        let bid = c.adopt(b.clone()).unwrap();
        c.bind(tid, "out", "a", aid, IPACKET_PUSH).unwrap();
        c.bind(tid, "out", "b", bid, IPACKET_PUSH).unwrap();
        tee.push(v4_pkt()).unwrap();
        assert_eq!((a.count(), b.count()), (1, 1));
        assert_eq!(tee.forwarded(), 2);
    }

    #[test]
    fn tee_unbound_errors() {
        let tee = Tee::new();
        assert!(matches!(tee.push(v4_pkt()), Err(PushError::Unbound)));
    }

    #[test]
    fn recogniser_demuxes_by_ethertype() {
        let c = capsule();
        let recog = ProtocolRecogniser::new();
        let (v4, v6) = (Discard::new(), Discard::new());
        let rid = c.adopt(recog.clone()).unwrap();
        let v4id = c.adopt(v4.clone()).unwrap();
        let v6id = c.adopt(v6.clone()).unwrap();
        c.bind(rid, "out", "ipv4", v4id, IPACKET_PUSH).unwrap();
        c.bind(rid, "out", "ipv6", v6id, IPACKET_PUSH).unwrap();
        recog.push(v4_pkt()).unwrap();
        recog
            .push(PacketBuilder::udp_v6("2001:db8::1", "2001:db8::2", 1, 2).build())
            .unwrap();
        assert_eq!((v4.count(), v6.count()), (1, 1));
    }

    #[test]
    fn recogniser_falls_back_to_other_then_drops() {
        let c = capsule();
        let recog = ProtocolRecogniser::new();
        let other = Discard::new();
        let rid = c.adopt(recog.clone()).unwrap();
        let oid = c.adopt(other.clone()).unwrap();
        // v6 with no ipv6 output falls back to "other".
        c.bind(rid, "out", "other", oid, IPACKET_PUSH).unwrap();
        recog
            .push(PacketBuilder::udp_v6("2001:db8::1", "2001:db8::2", 1, 2).build())
            .unwrap();
        assert_eq!(other.count(), 1);
        // Unbind and verify the drop counter path.
        let binding = c.arch().binding_records()[0].id;
        c.unbind(binding).unwrap();
        recog.push(v4_pkt()).unwrap();
        assert_eq!(recog.unroutable(), 1);
    }
}
