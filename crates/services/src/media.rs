//! Per-flow media filters (paper §3: "e.g. per-flow media filters").
//!
//! Both filters are Router-CF-conformant components (IPacketPush in, an
//! `out` receptacle downstream), so they can be plugged into a stratum-2
//! data path, constrained, intercepted, and hot-swapped like any other
//! element — the vertical-integration story of paper §4.
//!
//! A media flow here is a UDP flow whose packets carry a `frame_type`
//! annotation (0 = I, 1 = P, 2 = B), the shape an RTP depacketiser would
//! produce. Synthetic media traffic is generated by
//! [`annotate_gop`]-style helpers.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use netkit_packet::batch::PacketBatch;
use netkit_packet::packet::Packet;
use opencom::component::{Component, ComponentCore, ComponentDescriptor, Registrar};
use opencom::counters;
use opencom::ident::Version;
use opencom::receptacle::Receptacle;

use netkit_router::api::{
    emit, BatchResult, Exit, Exits, IPacketPush, Output, PushError, IPACKET_PUSH,
};

/// The metadata key carrying the frame type.
const FRAME_TYPE_KEY: &str = "frame_type";

/// Video frame classes, least-droppable first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FrameType {
    /// Intra-coded: self-contained; dropping one breaks the whole GOP.
    I,
    /// Predicted: depends on the previous I/P frame.
    P,
    /// Bidirectional: nothing depends on it.
    B,
}

impl FrameType {
    /// Numeric encoding used in packet annotations.
    pub fn as_u64(self) -> u64 {
        match self {
            FrameType::I => 0,
            FrameType::P => 1,
            FrameType::B => 2,
        }
    }

    /// Decodes an annotation value.
    fn from_u64(v: u64) -> Option<Self> {
        match v {
            0 => Some(FrameType::I),
            1 => Some(FrameType::P),
            2 => Some(FrameType::B),
            _ => None,
        }
    }
}

/// Stamps a packet with the frame type position `seq` would have in a
/// standard `IBBPBBPBB…` group of pictures of length `gop`.
pub fn annotate_gop(pkt: &mut Packet, seq: u64, gop: u64) {
    let pos = seq % gop.max(1);
    let ft = if pos == 0 {
        FrameType::I
    } else if pos.is_multiple_of(3) {
        FrameType::P
    } else {
        FrameType::B
    };
    pkt.meta.annotate(FRAME_TYPE_KEY, ft.as_u64());
}

/// How aggressively a [`FrameDropFilter`] thins a flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropLevel {
    /// Pass everything.
    None,
    /// Drop B frames (≈ graceful degradation).
    DropB,
    /// Drop B and P frames (I-frame-only slideshow).
    DropBP,
}

impl DropLevel {
    fn drops(self, ft: FrameType) -> bool {
        match self {
            DropLevel::None => false,
            DropLevel::DropB => ft == FrameType::B,
            DropLevel::DropBP => ft != FrameType::I,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            DropLevel::None => 0,
            DropLevel::DropB => 1,
            DropLevel::DropBP => 2,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            1 => DropLevel::DropB,
            2 => DropLevel::DropBP,
            _ => DropLevel::None,
        }
    }
}

counters! {
    /// What a media filter counted.
    pub struct MediaStats {
        /// Packets sent on.
        passed,
        /// Packets shed by policy.
        shed,
    }
}

/// A media filter's core, counting [`MediaStats`].
fn media_core(type_name: &str) -> ComponentCore {
    ComponentCore::new(ComponentDescriptor::new(type_name, Version::new(1, 0, 0)))
        .counting::<MediaStats>()
}

/// A frame-aware thinning transcoder: under pressure, sheds the most
/// droppable frames first. The level can be adapted at run time (e.g. by
/// a controller reacting to congestion signals).
pub struct FrameDropFilter {
    core: ComponentCore,
    out: Receptacle<dyn IPacketPush>,
    level: AtomicU8,
}

impl FrameDropFilter {
    /// Creates a filter at [`DropLevel::None`].
    pub fn new() -> Arc<Self> {
        Self::with_level(DropLevel::None)
    }

    /// Creates a filter at a given level.
    pub fn with_level(level: DropLevel) -> Arc<Self> {
        Arc::new(Self {
            core: media_core("netkit.FrameDropFilter"),
            out: Receptacle::single("out", IPACKET_PUSH),
            level: AtomicU8::new(level.as_u8()),
        })
    }

    /// The current level.
    pub fn level(&self) -> DropLevel {
        DropLevel::from_u8(self.level.load(Ordering::Relaxed))
    }

    /// Adapts the level (lock-free; takes effect on the next packet).
    pub fn set_level(&self, level: DropLevel) {
        self.level.store(level.as_u8(), Ordering::Relaxed);
    }

    /// Packet counts.
    pub fn stats(&self) -> MediaStats {
        self.core.counters().read()
    }
}

impl IPacketPush for FrameDropFilter {
    fn push_batch(&self, batch: PacketBatch) -> BatchResult {
        // Shedding decisions per packet (the level is re-read for each),
        // survivors cross the binding as one batch.
        let n = batch.len();
        let mut exits = Exits::new(0);
        let mut shed = 0u64;
        for (idx, pkt) in batch.iter().enumerate() {
            let ft = pkt
                .meta
                .annotation(FRAME_TYPE_KEY)
                .and_then(FrameType::from_u64)
                .unwrap_or(FrameType::I); // unannotated traffic is precious
            if self.level().drops(ft) {
                shed += 1;
                exits.set(idx, Exit::Drop(Ok(()))); // shedding is policy, not failure
            }
        }
        let passed = n as u64 - shed;
        self.core.counters().flush(MediaStats { passed, shed });
        let out = Output::new(&self.out, Err(PushError::Unbound));
        emit(batch, &exits, &[out])
    }
}

impl Component for FrameDropFilter {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
        reg.receptacle(&self.out);
    }
}

impl std::fmt::Debug for FrameDropFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FrameDropFilter(level={:?})", self.level())
    }
}

/// A deterministic thinning adaptor: keeps `keep` out of every `out_of`
/// packets (seq-counted per filter, not per flow) and remarks survivors'
/// DSCP — the "quality adaptor" shape of per-flow adaptation where frame
/// structure is unknown.
pub struct QualityAdaptor {
    core: ComponentCore,
    out: Receptacle<dyn IPacketPush>,
    keep: u64,
    out_of: u64,
    remark_dscp: Option<u8>,
    seq: AtomicU64,
}

impl QualityAdaptor {
    /// Keeps `keep` of every `out_of` packets; optionally remarks
    /// survivors with `remark_dscp`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < keep <= out_of`.
    pub fn new(keep: u64, out_of: u64, remark_dscp: Option<u8>) -> Arc<Self> {
        assert!(keep > 0 && keep <= out_of, "keep ratio must be in (0, 1]");
        Arc::new(Self {
            core: media_core("netkit.QualityAdaptor"),
            out: Receptacle::single("out", IPACKET_PUSH),
            keep,
            out_of,
            remark_dscp,
            seq: AtomicU64::new(0),
        })
    }

    /// Packet counts.
    pub fn stats(&self) -> MediaStats {
        self.core.counters().read()
    }
}

impl IPacketPush for QualityAdaptor {
    fn push_batch(&self, mut batch: PacketBatch) -> BatchResult {
        // The sequence counter and keep/shed arithmetic run per packet;
        // survivors are remarked in place and forwarded as one batch.
        let n = batch.len();
        let mut exits = Exits::new(0);
        let mut shed = 0u64;
        for (idx, pkt) in batch.packets_mut().iter_mut().enumerate() {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            // Spread the kept packets evenly across the window.
            let pos = seq % self.out_of;
            let kept = pos * self.keep % self.out_of < self.keep;
            if !kept {
                shed += 1;
                exits.set(idx, Exit::Drop(Ok(()))); // shedding is policy, not failure
                continue;
            }
            if let Some(dscp) = self.remark_dscp {
                pkt.meta.dscp = Some(dscp);
                if pkt.ipv4().is_ok() {
                    let _ =
                        netkit_packet::headers::Ipv4Header::set_dscp_in_place(pkt.l3_mut(), dscp);
                }
            }
        }
        let passed = n as u64 - shed;
        self.core.counters().flush(MediaStats { passed, shed });
        let out = Output::new(&self.out, Err(PushError::Unbound));
        emit(batch, &exits, &[out])
    }
}

impl Component for QualityAdaptor {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
        reg.receptacle(&self.out);
    }
}

impl std::fmt::Debug for QualityAdaptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QualityAdaptor({}/{} kept)", self.keep, self.out_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_packet::packet::PacketBuilder;
    use netkit_router::api::register_packet_interfaces;
    use netkit_router::elements::Discard;
    use opencom::capsule::Capsule;
    use opencom::runtime::Runtime;

    fn rig(filter: Arc<dyn Component>) -> (Arc<Capsule>, Arc<Discard>) {
        let rt = Runtime::new();
        register_packet_interfaces(&rt);
        let capsule = Capsule::new("t", &rt);
        let fid = capsule.adopt(filter).unwrap();
        let sink = Discard::new();
        let sid = capsule.adopt(sink.clone()).unwrap();
        capsule.bind(fid, "out", "", sid, IPACKET_PUSH).unwrap();
        (capsule, sink)
    }

    fn media_pkt(seq: u64, gop: u64) -> Packet {
        let mut pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 5004, 5004)
            .payload_len(100)
            .build();
        annotate_gop(&mut pkt, seq, gop);
        pkt
    }

    #[test]
    fn gop_annotation_follows_ibbp_pattern() {
        let mut pkt = media_pkt(0, 9);
        assert_eq!(pkt.meta.annotation(FRAME_TYPE_KEY), Some(0)); // I
        pkt = media_pkt(3, 9);
        assert_eq!(pkt.meta.annotation(FRAME_TYPE_KEY), Some(1)); // P
        pkt = media_pkt(1, 9);
        assert_eq!(pkt.meta.annotation(FRAME_TYPE_KEY), Some(2)); // B
    }

    #[test]
    fn drop_none_passes_everything() {
        let filter = FrameDropFilter::new();
        let (_c, sink) = rig(filter.clone());
        for seq in 0..18 {
            filter.push(media_pkt(seq, 9)).unwrap();
        }
        assert_eq!(sink.count(), 18);
        let s = filter.stats();
        assert_eq!((s.passed, s.shed), (18, 0));
    }

    #[test]
    fn drop_b_sheds_only_b_frames() {
        let filter = FrameDropFilter::with_level(DropLevel::DropB);
        let (_c, sink) = rig(filter.clone());
        // GOP of 9: positions 0 (I), 3,6 (P) kept; 1,2,4,5,7,8 (B) shed.
        for seq in 0..9 {
            filter.push(media_pkt(seq, 9)).unwrap();
        }
        assert_eq!(sink.count(), 3);
        let s = filter.stats();
        assert_eq!((s.passed, s.shed), (3, 6));
    }

    #[test]
    fn drop_bp_keeps_only_i_frames_and_adapts_back() {
        let filter = FrameDropFilter::with_level(DropLevel::DropBP);
        let (_c, sink) = rig(filter.clone());
        for seq in 0..9 {
            filter.push(media_pkt(seq, 9)).unwrap();
        }
        assert_eq!(sink.count(), 1, "only the I frame survives");
        // Run-time adaptation back to pass-through.
        filter.set_level(DropLevel::None);
        for seq in 0..9 {
            filter.push(media_pkt(seq, 9)).unwrap();
        }
        assert_eq!(sink.count(), 10);
    }

    #[test]
    fn unannotated_packets_are_treated_as_precious() {
        let filter = FrameDropFilter::with_level(DropLevel::DropBP);
        let (_c, sink) = rig(filter.clone());
        filter
            .push(PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build())
            .unwrap();
        assert_eq!(sink.count(), 1);
    }

    #[test]
    fn quality_adaptor_keeps_exact_ratio() {
        let adaptor = QualityAdaptor::new(1, 4, None);
        let (_c, sink) = rig(adaptor.clone());
        for seq in 0..40 {
            adaptor.push(media_pkt(seq, 9)).unwrap();
        }
        assert_eq!(sink.count(), 10, "1 in 4 kept");
        let s = adaptor.stats();
        assert_eq!((s.passed, s.shed), (10, 30));
    }

    #[test]
    fn quality_adaptor_remarks_dscp() {
        let adaptor = QualityAdaptor::new(1, 1, Some(46));
        let (_c, sink) = rig(adaptor.clone());
        adaptor.push(media_pkt(0, 9)).unwrap();
        let out = sink.last().unwrap();
        assert_eq!(out.meta.dscp, Some(46));
        // `ipv4()` validates the checksum, so parsing succeeding proves
        // the in-place rewrite kept it correct.
        assert_eq!(out.ipv4().unwrap().dscp, 46, "header rewritten too");
    }

    #[test]
    #[should_panic(expected = "keep ratio")]
    fn quality_adaptor_rejects_zero_keep() {
        let _ = QualityAdaptor::new(0, 4, None);
    }
}
