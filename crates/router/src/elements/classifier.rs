//! The classifier engine — the paper's flagship Router-CF plug-in.
//!
//! Exports [`IClassifier`] (Fig. 2): `register_filter()` installs
//! [`FilterSpec`]s at run time, and the component "must honour the
//! semantics of installed filter specifications in terms of the
//! particular named outgoing `IPacketPush` … interface(s) on which each
//! incoming packet should be emitted" (paper §5). Its
//! [`ITable`](crate::api::ITable) is a thin layer over that interface:
//! a described filter entry is found again by its spec.

use std::sync::Arc;

use netkit_packet::batch::PacketBatch;
use netkit_packet::flow::FlowView;
use netkit_packet::packet::Packet;
use opencom::component::{Component, ComponentCore, Registrar};
use opencom::counters;
use opencom::error::{Error, Result};
use opencom::receptacle::Receptacle;
use parking_lot::RwLock;

use crate::api::{
    emit, BatchResult, Exit, Exits, FilterId, FilterSpec, IClassifier, IPacketPush, ITable, Output,
    PushError, ICLASSIFIER, IPACKET_PUSH, ITABLE,
};
use crate::desc::schema::TableKind;
use crate::desc::TableEntry;

use super::{element_core, first_met};

/// Label of the fallthrough output used when no filter matches.
pub const DEFAULT_OUTPUT: &str = "default";

counters! {
    /// What a [`ClassifierEngine`] counted.
    pub struct ClassifierStats {
        /// Packets sent on a filter's output or on `default`.
        matched,
        /// Packets that matched no filter, dropped (`default` unbound).
        unmatched,
    }
}

/// A run-time-programmable packet classifier.
///
/// Filters are consulted highest-priority first (ties broken by
/// installation order); the first match wins and the packet is emitted on
/// the filter's named output. Unmatched packets go to the
/// [`DEFAULT_OUTPUT`] if bound, else are counted and dropped.
pub struct ClassifierEngine {
    core: ComponentCore,
    outs: Receptacle<dyn IPacketPush>,
    filters: RwLock<Vec<(FilterId, FilterSpec)>>,
}

impl ClassifierEngine {
    /// Creates an empty classifier.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            core: element_core("netkit.Classifier").counting::<ClassifierStats>(),
            outs: Receptacle::multi("out", IPACKET_PUSH),
            filters: RwLock::new(Vec::new()),
        })
    }

    /// Packet counts.
    pub fn stats(&self) -> ClassifierStats {
        self.core.counters().read()
    }

    fn output_bound(&self, label: &str) -> bool {
        self.outs.snapshot_labelled(label).is_some()
    }

    fn dscp_of(pkt: &Packet) -> u8 {
        if let Some(d) = pkt.meta.dscp {
            return d;
        }
        if let Ok(ip) = pkt.ipv4() {
            return ip.dscp;
        }
        if let Ok(ip6) = pkt.ipv6() {
            return ip6.traffic_class >> 2;
        }
        0
    }
}

impl IPacketPush for ClassifierEngine {
    fn push_batch(&self, mut batch: PacketBatch) -> BatchResult {
        // One pass over the filter list under a single read lock picks
        // every packet's output, numbered as the batch first meets it.
        // An unmatched packet takes `default` when that is bound
        // (counted matched), else drops `Ok` (counted unmatched).
        let mut exits = Exits::new(0);
        let mut labels: Vec<String> = Vec::new();
        let default_bound = self.output_bound(DEFAULT_OUTPUT);
        let mut unmatched = 0u64;
        {
            let filters = self.filters.read();
            for (idx, pkt) in batch.packets_mut().iter_mut().enumerate() {
                let dscp = Self::dscp_of(pkt);
                pkt.meta.dscp = Some(dscp);
                let hit = FlowView::of(pkt).and_then(|flow| {
                    let mut specs = filters.iter();
                    specs.find(|(_, spec)| spec.pattern.matches(&flow.key, dscp))
                });
                let label = match hit {
                    Some((_, spec)) => spec.output.as_str(),
                    None if default_bound => DEFAULT_OUTPUT,
                    None => {
                        unmatched += 1;
                        exits.set(idx, Exit::Drop(Ok(()))); // drop policy for unmatched traffic
                        continue;
                    }
                };
                exits.set(idx, Exit::Out(first_met(&mut labels, label)));
            }
        }
        self.core.counters().flush(ClassifierStats {
            matched: batch.len() as u64 - unmatched,
            unmatched,
        });
        let outputs: Vec<Output<'_>> = labels
            .iter()
            .map(|l| Output::new(&self.outs, Err(PushError::Unbound)).labelled(l))
            .collect();
        emit(batch, &exits, &outputs)
    }
}

impl IClassifier for ClassifierEngine {
    fn register_filter(&self, spec: FilterSpec) -> Result<FilterId> {
        if !self.output_bound(&spec.output) {
            return Err(Error::CfViolation {
                framework: "router".into(),
                rule: format!("classifier output `{}` is not bound", spec.output),
            });
        }
        let id = FilterId::next();
        let mut filters = self.filters.write();
        // Insert keeping (priority desc, insertion order) stable.
        let pos = filters
            .iter()
            .position(|(_, existing)| existing.priority < spec.priority)
            .unwrap_or(filters.len());
        filters.insert(pos, (id, spec));
        Ok(id)
    }

    fn remove_filter(&self, id: FilterId) -> Result<()> {
        let mut filters = self.filters.write();
        match filters.iter().position(|(fid, _)| *fid == id) {
            Some(pos) => {
                filters.remove(pos);
                Ok(())
            }
            None => Err(Error::StaleReference {
                what: format!("filter {id:?}"),
            }),
        }
    }

    fn filters(&self) -> Vec<(FilterId, FilterSpec)> {
        self.filters.read().clone()
    }
}

/// The filter a table entry names — the one reading of a filter entry,
/// shared by the classifier's table and the description validator.
pub(crate) fn filter_of(entry: &TableEntry) -> Result<FilterSpec> {
    match entry {
        TableEntry::Filter {
            pattern,
            output,
            priority,
        } => Ok(FilterSpec::new(pattern.to_pattern()?, output, *priority)),
        other => Err(other.foreign_to(TableKind::Filter)),
    }
}

/// Entries are found by spec among the installed filters
/// ([`IClassifier::filters`]), so the table needs no id of its own.
impl ITable for ClassifierEngine {
    fn put(&self, entry: &TableEntry) -> Result<()> {
        let spec = filter_of(entry)?;
        if !self.filters().iter().any(|(_, s)| *s == spec) {
            self.register_filter(spec)?;
        }
        Ok(())
    }

    fn del(&self, entry: &TableEntry) -> Result<()> {
        let spec = filter_of(entry)?;
        let installed = self.filters().into_iter().find(|(_, s)| *s == spec);
        self.remove_filter(installed.ok_or_else(|| entry.absent())?.0)
    }
}

impl Component for ClassifierEngine {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
        let classify: Arc<dyn IClassifier> = self.clone();
        reg.expose(ICLASSIFIER, &classify);
        let table: Arc<dyn ITable> = self.clone();
        reg.expose(ITABLE, &table);
        reg.receptacle(&self.outs);
    }
    fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.filters.read().len() * std::mem::size_of::<(FilterId, FilterSpec)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::FilterPattern;
    use crate::elements::misc::Discard;
    use netkit_packet::headers::proto;
    use netkit_packet::packet::PacketBuilder;
    use opencom::capsule::Capsule;
    use opencom::ident::ComponentId;
    use opencom::runtime::Runtime;

    struct Rig {
        capsule: Arc<Capsule>,
        classifier: Arc<ClassifierEngine>,
        cid: ComponentId,
        sinks: Vec<(String, Arc<Discard>)>,
    }

    fn rig(outputs: &[&str]) -> Rig {
        let rt = Runtime::new();
        crate::api::register_packet_interfaces(&rt);
        let capsule = Capsule::new("t", &rt);
        let classifier = ClassifierEngine::new();
        let cid = capsule.adopt(classifier.clone()).unwrap();
        let mut sinks = Vec::new();
        for label in outputs {
            let sink = Discard::new();
            let sid = capsule.adopt(sink.clone()).unwrap();
            capsule.bind(cid, "out", label, sid, IPACKET_PUSH).unwrap();
            sinks.push((label.to_string(), sink));
        }
        Rig {
            capsule,
            classifier,
            cid,
            sinks,
        }
    }

    fn sink<'a>(r: &'a Rig, label: &str) -> &'a Arc<Discard> {
        &r.sinks.iter().find(|(l, _)| l == label).unwrap().1
    }

    #[test]
    fn first_matching_filter_routes_packet() {
        let r = rig(&["voice", "bulk", "default"]);
        r.classifier
            .register_filter(FilterSpec::new(
                FilterPattern::any()
                    .protocol(proto::UDP)
                    .dst_port_range(5000, 5999),
                "voice",
                10,
            ))
            .unwrap();
        r.classifier
            .register_filter(FilterSpec::new(FilterPattern::any(), "bulk", 0))
            .unwrap();
        r.classifier
            .push(PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 4000, 5004).build())
            .unwrap();
        r.classifier
            .push(PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 4000, 80).build())
            .unwrap();
        assert_eq!(sink(&r, "voice").count(), 1);
        assert_eq!(sink(&r, "bulk").count(), 1);
        assert_eq!(sink(&r, "default").count(), 0);
        let s = r.classifier.stats();
        assert_eq!((s.matched, s.unmatched), (2, 0));
    }

    #[test]
    fn priority_order_beats_insertion_order() {
        let r = rig(&["a", "b"]);
        r.classifier
            .register_filter(FilterSpec::new(FilterPattern::any(), "a", 1))
            .unwrap();
        r.classifier
            .register_filter(FilterSpec::new(FilterPattern::any(), "b", 5))
            .unwrap();
        r.classifier
            .push(PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build())
            .unwrap();
        assert_eq!(sink(&r, "b").count(), 1, "higher priority wins");
        let listed = r.classifier.filters();
        assert_eq!(listed[0].1.output, "b");
    }

    #[test]
    fn unmatched_goes_to_default_or_drops() {
        let r = rig(&["default"]);
        r.classifier
            .push(PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build())
            .unwrap();
        assert_eq!(sink(&r, "default").count(), 1);
        // Remove the default binding; now unmatched counts as dropped.
        let binding = r.capsule.arch().binding_records()[0].id;
        r.capsule.unbind(binding).unwrap();
        r.classifier
            .push(PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build())
            .unwrap();
        assert_eq!(r.classifier.stats().unmatched, 1);
    }

    #[test]
    fn register_filter_validates_output_exists() {
        let r = rig(&["a"]);
        let err = r
            .classifier
            .register_filter(FilterSpec::new(FilterPattern::any(), "missing", 0))
            .unwrap_err();
        assert!(matches!(err, Error::CfViolation { .. }));
        let _ = r.cid;
    }

    #[test]
    fn remove_filter_restores_fallthrough() {
        let r = rig(&["a", "default"]);
        let id = r
            .classifier
            .register_filter(FilterSpec::new(FilterPattern::any(), "a", 0))
            .unwrap();
        r.classifier
            .push(PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build())
            .unwrap();
        r.classifier.remove_filter(id).unwrap();
        r.classifier
            .push(PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build())
            .unwrap();
        assert_eq!(sink(&r, "a").count(), 1);
        assert_eq!(sink(&r, "default").count(), 1);
        assert!(r.classifier.remove_filter(id).is_err());
    }

    #[test]
    fn batch_keeps_weird_output_labels_distinct_from_unmatched() {
        use netkit_packet::batch::PacketBatch;
        // A user is free to name an output anything — including strings
        // that look like internal markers. Matched packets must reach
        // that output; unmatched ones must fall to `default`.
        let weird = "\0unmatched";
        let r = rig(&[weird, "default"]);
        r.classifier
            .register_filter(FilterSpec::new(
                FilterPattern::any()
                    .protocol(proto::UDP)
                    .dst_port_range(5000, 5999),
                weird,
                10,
            ))
            .unwrap();
        let batch: PacketBatch = (0..4u16)
            .map(|i| {
                let dport = if i < 2 { 5500 } else { 80 };
                PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", i, dport).build()
            })
            .collect();
        let result = r.classifier.push_batch(batch);
        assert!(result.all_ok());
        assert_eq!(
            sink(&r, weird).count(),
            2,
            "matched traffic on its own output"
        );
        assert_eq!(
            sink(&r, "default").count(),
            2,
            "unmatched traffic on default"
        );
    }

    #[test]
    fn dscp_filters_use_header_dscp() {
        let r = rig(&["ef", "default"]);
        r.classifier
            .register_filter(FilterSpec::new(FilterPattern::any().dscp(46), "ef", 0))
            .unwrap();
        r.classifier
            .push(
                PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2)
                    .dscp(46)
                    .build(),
            )
            .unwrap();
        r.classifier
            .push(PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build())
            .unwrap();
        assert_eq!(sink(&r, "ef").count(), 1);
        assert_eq!(sink(&r, "default").count(), 1);
        // The classifier caches the DSCP in metadata for downstream queues.
        assert_eq!(sink(&r, "ef").last().unwrap().meta.dscp, Some(46));
    }
}
