//! Real dataplanes as simulation nodes.
//!
//! [`PipelineNode`] hosts a [`ShardedPipeline`] with no drainers
//! ([`ShardSpec::inline`]) — the threaded dataplane's own code: same
//! replicas, steering, meters, health and control turns and patch
//! applier, with each shard's job queued by the node's dispatch and
//! run by the flush that follows it, on the simulator's thread in
//! shard-index order instead of on a drainer thread — behind the
//! [`NodeBehaviour`] interface, so a
//! discrete-event topology can be populated with *actual* stateful
//! dataplanes (conntrack/NAT44/L4-LB chains, the heavy-hitter guard,
//! stratum-3 media filters) instead of toy sinks and forwarders, and a
//! run is bit-for-bit reproducible for a seed.
//!
//! The moving parts:
//!
//! - [`EgressCollector`] — the terminal element a shard graph ends in.
//!   Packets that reach it leave the dataplane and re-enter the
//!   simulation, where the node's [`RouteAction`] function decides
//!   per packet whether to deliver locally, emit on a port, or drop.
//! - Conservation — packets a graph consumes (guard rate-limits,
//!   queue tail drops, media-filter policy, sink-mode terminations)
//!   never reappear; the node books `batch_in - egress_out` as node
//!   drops via [`NodeCtx::count_drops`], so the simulator's global
//!   identity `injected == delivered + link_drops + node_drops` stays
//!   exact with real elements in the loop. Cause tags stay available
//!   through [`PipelineNode::pipeline`]'s `drop_stats`.
//! - The autonomous control loop — [`PipelineNode::with_controller`]
//!   arms a per-node timer from sim time; each lapse runs one
//!   [`ShardedPipeline::control_turn`] with the node's
//!   [`RebalanceController`] — the threaded control loop's own turn,
//!   which closes the window of every guard the graphs hold and then
//!   judges the node's meters and migrates its bucket map. Before it,
//!   as on the threaded loop, one [`ShardedPipeline::health_turn`]:
//!   a replica that panicked died where it ran, and the turn
//!   respawns it in place, moving no bucket — in simulated time, so a
//!   crash replays with its seed. The node
//!   adds nothing to either turn and keeps no list of what to upkeep.
//!   The timer re-arms only while traffic flows, so `run_to_idle`
//!   terminates.
//! - The control tap — [`PipelineNode::with_control_tap`] diverts
//!   packets matching a predicate (e.g. RSVP's UDP port) to an inner
//!   [`NodeBehaviour`] *before* the dataplane, and routes unknown
//!   timer tokens to it, so signaling agents ride inside pipeline
//!   nodes with their own timer discipline intact.

use std::sync::Arc;

use netkit_kernel::shard::ShardSpec;
use netkit_packet::batch::PacketBatch;
use netkit_packet::packet::Packet;
use netkit_packet::sketch::FlowSketch;
use netkit_router::api::{BatchResult, IPacketPush, IPACKET_PUSH};
use netkit_router::desc::{Compiler, DescBinding, ElementHandle, PipelineDesc};
use netkit_router::shard::{fresh_sketches, RebalanceController, ShardGraph, ShardedPipeline};
use opencom::component::{Component, ComponentCore, ComponentDescriptor, Registrar};
use opencom::error::Result;
use opencom::ident::Version;
use opencom::meta::resources::ResourceManager;
use parking_lot::Mutex;

use crate::node::{NodeBehaviour, NodeCtx};

/// Timer token reserved for the node's own control loop; every other
/// token is routed to the control tap's inner behaviour.
const CONTROL_TOKEN: u64 = u64::MAX;

/// `spec` with every shard on the caller: a node runs on the
/// simulator's thread, whatever placement it was handed.
fn on_caller(spec: ShardSpec) -> ShardSpec {
    ShardSpec {
        caller_shards: spec.workers,
        ..spec
    }
}

/// Terminal element for sim-hosted shard graphs: packets pushed into
/// it have left the dataplane and wait for the simulator to route
/// them. Adoptable into a capsule (so mid-graph elements can bind
/// their `out` receptacle to it) or usable directly as a bare
/// [`IPacketPush`] entry.
pub struct EgressCollector {
    core: ComponentCore,
    inbox: Mutex<Vec<Packet>>,
}

impl EgressCollector {
    /// Creates an empty collector.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            core: ComponentCore::new(ComponentDescriptor::new(
                "netkit.sim.EgressCollector",
                Version::new(1, 0, 0),
            )),
            inbox: Mutex::new(Vec::new()),
        })
    }

    /// Takes everything collected so far, in arrival order.
    pub fn drain(&self) -> Vec<Packet> {
        std::mem::take(&mut *self.inbox.lock())
    }

    /// Packets currently waiting.
    pub fn len(&self) -> usize {
        self.inbox.lock().len()
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.inbox.lock().is_empty()
    }
}

impl Default for EgressCollector {
    fn default() -> Self {
        Self {
            core: ComponentCore::new(ComponentDescriptor::new(
                "netkit.sim.EgressCollector",
                Version::new(1, 0, 0),
            )),
            inbox: Mutex::new(Vec::new()),
        }
    }
}

impl IPacketPush for EgressCollector {
    fn push_batch(&self, mut batch: PacketBatch) -> BatchResult {
        let n = batch.len();
        self.inbox.lock().extend(batch.drain_all());
        BatchResult::ok(n)
    }
}

impl Component for EgressCollector {
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

/// What the simulator does with one packet that egressed a node's
/// dataplane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteAction {
    /// Terminate at this node (count a delivery, record latency).
    Deliver,
    /// Emit on the given sim port.
    Forward(u16),
    /// Drop at this node (counted as a node drop).
    Drop,
}

/// Per-egress-packet routing decision.
pub type RouteFn = Box<dyn FnMut(&Packet) -> RouteAction + Send>;

/// Everything a shard-graph factory gets for one shard: its index,
/// the terminal collector its chain must end in, and the flow sketch
/// the pipeline meters this shard's bytes into — clone it into a
/// [`Guard`](netkit_router::flow::Guard) and the guard reads exactly
/// the estimates the pipeline maintains, current batch included.
pub struct ShardSite {
    /// Shard index, `0..spec.workers`.
    pub shard: usize,
    /// The shard's terminal element; bind the chain's last `out` to it
    /// (or use it directly as the graph entry for a pass-through).
    pub egress: Arc<EgressCollector>,
    /// The shard's byte sketch, maintained by the pipeline.
    pub sketch: Arc<FlowSketch>,
}

/// A [`NodeBehaviour`] hosting one caller-run [`ShardedPipeline`] — a
/// real sharded element graph driven deterministically from simulated
/// time.
///
/// # Examples
///
/// A two-shard conntrack node delivering everything locally:
///
/// ```
/// use netkit_kernel::shard::ShardSpec;
/// use netkit_router::api::IPACKET_PUSH;
/// use netkit_router::flow::ConnTracker;
/// use netkit_router::shard::ShardGraph;
/// use netkit_sim::pipeline::PipelineNode;
/// use netkit_sim::Simulator;
/// use netkit_sim::traffic::{udp_flow, CbrGen};
///
/// let mut sim = Simulator::new(7);
/// let host = sim.add_node(
///     Box::new(PipelineNode::build("edge", ShardSpec::new(2), |site| {
///         let (capsule, _rt) = PipelineNode::shard_capsule();
///         let tracker = ConnTracker::new();
///         let tid = capsule.adopt(tracker.clone())?;
///         let eid = capsule.adopt(site.egress.clone())?;
///         capsule.bind_simple(tid, "out", eid, IPACKET_PUSH)?;
///         Ok(ShardGraph::new(capsule, tracker))
///     })
///     .expect("node builds")),
/// );
/// sim.attach_source(host, Box::new(CbrGen::new(
///     1_000,
///     32,
///     udp_flow("10.0.0.1", "10.0.0.2", 4000, 80, 16),
/// )));
/// sim.run_to_idle();
/// assert_eq!(sim.stats().delivered, 32);
/// ```
pub struct PipelineNode {
    pipe: ShardedPipeline,
    rm: Arc<ResourceManager>,
    collectors: Vec<Arc<EgressCollector>>,
    route: RouteFn,
    controller: Option<RebalanceController>,
    control_interval_ns: u64,
    #[allow(clippy::type_complexity)]
    tap: Option<(Box<dyn Fn(&Packet) -> bool + Send>, Box<dyn NodeBehaviour>)>,
    timer_armed: bool,
    packets_since_turn: u64,
    control_turns: u64,
    name: String,
}

impl PipelineNode {
    /// Builds a node with `spec.workers` shard replicas and no drainer
    /// threads, whatever `spec` places. The factory runs once per
    /// shard in index order (the pipeline keeps it, as with drainer
    /// threads, to rebuild a replica); its [`ShardSite`] carries the
    /// collector the chain must terminate in and the shard's sketch.
    /// Resource accounting uses a private per-node [`ResourceManager`]
    /// (reachable via [`resources`](Self::resources)).
    ///
    /// # Errors
    ///
    /// Propagates factory failures.
    pub fn build<F>(name: &str, spec: ShardSpec, mut factory: F) -> Result<Self>
    where
        F: FnMut(&ShardSite) -> Result<ShardGraph> + Send + 'static,
    {
        let spec = on_caller(spec);
        let collectors: Vec<Arc<EgressCollector>> = (0..spec.workers.max(1))
            .map(|_| EgressCollector::new())
            .collect();
        let sketches = fresh_sketches(spec);
        let rm = Arc::new(ResourceManager::new());
        let pipe = {
            let collectors = collectors.clone();
            let sites = sketches.clone();
            ShardedPipeline::build_with_sketches(
                name,
                spec,
                Arc::clone(&rm),
                sketches,
                move |shard| {
                    factory(&ShardSite {
                        shard,
                        egress: Arc::clone(&collectors[shard]),
                        sketch: Arc::clone(&sites[shard]),
                    })
                },
            )?
        };
        Ok(Self::host(name, pipe, rm, collectors))
    }

    /// A node around a built pipeline: delivers locally, no controller.
    fn host(
        name: &str,
        pipe: ShardedPipeline,
        rm: Arc<ResourceManager>,
        collectors: Vec<Arc<EgressCollector>>,
    ) -> Self {
        Self {
            pipe,
            rm,
            collectors,
            route: Box::new(|_| RouteAction::Deliver),
            controller: None,
            control_interval_ns: 0,
            tap: None,
            timer_armed: false,
            packets_since_turn: 0,
            control_turns: 0,
            name: name.to_string(),
        }
    }

    /// Builds a node whose shard graphs are **compiled from a
    /// declarative description** instead of a hand-written factory.
    ///
    /// The description may terminate chains in the external `egress`
    /// element kind; each shard's instance is that shard's
    /// [`EgressCollector`], so packets reaching it re-enter the
    /// simulation exactly as with [`build`](Self::build). Returns the
    /// node plus the [`DescBinding`] — diff the description against a
    /// successor and [`DescBinding::apply_sharded`] the patch on
    /// [`pipeline`](Self::pipeline) to reconfigure the live dataplane
    /// mid-run, which is how the scenario engine rewires cities from
    /// configs.
    ///
    /// Guards compiled from the description read the same per-shard
    /// sketches the pipeline meters, current batch included.
    ///
    /// # Errors
    ///
    /// Propagates description validation/compile failures.
    pub fn build_desc(
        name: &str,
        desc: &PipelineDesc,
        spec: ShardSpec,
    ) -> Result<(Self, DescBinding)> {
        let collectors: Vec<Arc<EgressCollector>> = (0..spec.workers.max(1))
            .map(|_| EgressCollector::new())
            .collect();
        let compiler = {
            let collectors = collectors.clone();
            Compiler::new().external("egress", move |shard| {
                (
                    collectors[shard].clone() as Arc<dyn Component>,
                    ElementHandle::Plain,
                )
            })
        };
        let rm = Arc::new(ResourceManager::new());
        let (pipe, binding) = compiler.build_sharded(desc, on_caller(spec), Arc::clone(&rm))?;
        Ok((Self::host(name, pipe, rm, collectors), binding))
    }

    /// A fresh capsule (plus the runtime keeping it alive) with the
    /// packet interfaces registered — the standard boilerplate at the
    /// top of every shard factory.
    pub fn shard_capsule() -> (
        Arc<opencom::capsule::Capsule>,
        Arc<opencom::runtime::Runtime>,
    ) {
        let rt = opencom::runtime::Runtime::new();
        netkit_router::api::register_packet_interfaces(&rt);
        let capsule = opencom::capsule::Capsule::new("shard", &rt);
        (capsule, rt)
    }

    /// Sets the per-egress-packet routing decision (default: deliver
    /// everything locally).
    pub fn with_route(mut self, route: RouteFn) -> Self {
        self.route = route;
        self
    }

    /// Replaces the routing decision on a built node — how a topology
    /// layer installs next-hop tables it can only compute after every
    /// node exists.
    pub fn set_route(&mut self, route: RouteFn) {
        self.route = route;
    }

    /// Attaches the autonomous control loop: every `interval_ns` of
    /// simulated time (while traffic flows), run one
    /// [`ShardedPipeline::health_turn`] and then one
    /// [`ShardedPipeline::control_turn`] with `ctl`.
    pub fn with_controller(mut self, ctl: RebalanceController, interval_ns: u64) -> Self {
        self.controller = Some(ctl);
        self.control_interval_ns = interval_ns.max(1);
        self
    }

    /// Diverts arriving packets matching `pred` to `inner` (a full
    /// [`NodeBehaviour`], e.g. a signaling agent) before the
    /// dataplane; timer tokens the pipeline does not own are routed to
    /// `inner` too.
    pub fn with_control_tap(
        mut self,
        pred: Box<dyn Fn(&Packet) -> bool + Send>,
        inner: Box<dyn NodeBehaviour>,
    ) -> Self {
        self.tap = Some((pred, inner));
        self
    }

    /// The hosted pipeline (install maps, apply patches, run manual
    /// turns — every operation takes `&self`, as on the threaded
    /// executor).
    pub fn pipeline(&self) -> &ShardedPipeline {
        &self.pipe
    }

    /// The per-node resource manager backing the pipeline's task.
    pub fn resources(&self) -> Arc<ResourceManager> {
        Arc::clone(&self.rm)
    }

    /// The node's controller, if attached.
    pub fn controller(&self) -> Option<&RebalanceController> {
        self.controller.as_ref()
    }

    /// Completed control-loop lapses.
    pub fn control_turns(&self) -> u64 {
        self.control_turns
    }

    /// Downcasts the control tap's inner behaviour.
    pub fn tap_mut<B: NodeBehaviour>(&mut self) -> Option<&mut B> {
        self.tap
            .as_mut()
            .and_then(|(_, inner)| (inner.as_mut() as &mut dyn std::any::Any).downcast_mut::<B>())
    }

    /// Runs the dataplane over `pkts` and routes the egress. The
    /// conservation book: every packet is delivered, emitted, or
    /// counted as a drop — graph-consumed packets via
    /// [`NodeCtx::count_drops`], routed drops via `drop_packet`.
    fn run_data(&mut self, ctx: &mut NodeCtx<'_>, pkts: Vec<Packet>) {
        if pkts.is_empty() {
            return;
        }
        let n_in = pkts.len() as u64;
        self.packets_since_turn += n_in;
        self.pipe.dispatch(PacketBatch::from_packets(pkts));
        self.pipe.flush();
        let mut n_out = 0u64;
        for collector in &self.collectors {
            if collector.is_empty() {
                continue;
            }
            for pkt in collector.drain() {
                n_out += 1;
                match (self.route)(&pkt) {
                    RouteAction::Deliver => ctx.deliver_local(pkt),
                    RouteAction::Forward(port) => ctx.emit(port, pkt),
                    RouteAction::Drop => ctx.drop_packet(pkt),
                }
            }
        }
        ctx.count_drops(n_in.saturating_sub(n_out));
        if self.controller.is_some() && !self.timer_armed {
            ctx.set_timer(self.control_interval_ns, CONTROL_TOKEN);
            self.timer_armed = true;
        }
    }
}

impl NodeBehaviour for PipelineNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: u16, pkt: Packet) {
        self.on_batch(ctx, port, vec![pkt]);
    }

    fn on_batch(&mut self, ctx: &mut NodeCtx<'_>, port: u16, pkts: Vec<Packet>) {
        let data = if let Some((pred, inner)) = self.tap.as_mut() {
            let mut data = Vec::with_capacity(pkts.len());
            let mut tapped = Vec::new();
            for pkt in pkts {
                if pred(&pkt) {
                    tapped.push(pkt);
                } else {
                    data.push(pkt);
                }
            }
            if !tapped.is_empty() {
                inner.on_batch(ctx, port, tapped);
            }
            data
        } else {
            pkts
        };
        self.run_data(ctx, data);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        if token != CONTROL_TOKEN {
            if let Some((_, inner)) = self.tap.as_mut() {
                inner.on_timer(ctx, token);
            }
            return;
        }
        if let Some(ctl) = self.controller.as_mut() {
            // Health before balance, as the threaded loop runs them. A
            // respawn that fails leaves the shard dead; the next lapse
            // retries.
            let _ = self.pipe.health_turn();
            self.pipe.control_turn(ctl, &[]);
            self.control_turns += 1;
        }
        // Lapse discipline: stay armed only while traffic flows, so
        // run_to_idle terminates once sources exhaust.
        if self.packets_since_turn > 0 {
            ctx.set_timer(self.control_interval_ns, CONTROL_TOKEN);
            self.packets_since_turn = 0;
        } else {
            self.timer_armed = false;
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::SinkBehaviour;
    use crate::traffic::{udp_flow, CbrGen};
    use crate::{LinkSpec, Simulator};
    use netkit_router::api::PushResult;
    use netkit_router::shard::RebalancePolicy;

    /// Pass-through node: every shard graph is just the collector.
    fn passthrough(name: &str, workers: usize) -> PipelineNode {
        PipelineNode::build(name, ShardSpec::new(workers), |site| {
            let (capsule, _rt) = PipelineNode::shard_capsule();
            let entry: Arc<dyn IPacketPush> = site.egress.clone();
            Ok(ShardGraph::new(capsule, entry))
        })
        .expect("node builds")
    }

    #[test]
    fn passthrough_node_delivers_and_conserves() {
        let mut sim = Simulator::new(1);
        let host = sim.add_node(Box::new(passthrough("edge", 2)));
        sim.attach_source(
            host,
            Box::new(CbrGen::new(
                500,
                64,
                udp_flow("10.0.0.1", "10.0.0.2", 4000, 80, 16),
            )),
        );
        sim.run_to_idle();
        let stats = sim.stats();
        assert_eq!(stats.injected, 64);
        assert_eq!(stats.delivered, 64);
        assert_eq!(stats.node_drops, 0);
        assert_eq!(
            stats.injected,
            stats.delivered + stats.link_drops + stats.node_drops
        );
    }

    #[test]
    fn graph_consumed_packets_book_as_node_drops() {
        // A graph whose entry rejects everything: the node must book
        // every packet as a node drop and conservation must close.
        use netkit_router::api::PushError;
        struct RejectAll;
        impl IPacketPush for RejectAll {
            fn push(&self, _pkt: Packet) -> PushResult {
                Err(PushError::QueueFull)
            }
        }
        let node = PipelineNode::build("reject", ShardSpec::single(), |_site| {
            let (capsule, _rt) = PipelineNode::shard_capsule();
            let entry: Arc<dyn IPacketPush> = Arc::new(RejectAll);
            Ok(ShardGraph::new(capsule, entry))
        })
        .expect("node builds");
        let mut sim = Simulator::new(1);
        let host = sim.add_node(Box::new(node));
        sim.attach_source(
            host,
            Box::new(CbrGen::new(
                500,
                32,
                udp_flow("10.0.0.1", "10.0.0.2", 4001, 80, 16),
            )),
        );
        sim.run_to_idle();
        let stats = sim.stats();
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.node_drops, 32);
        assert_eq!(
            stats.injected,
            stats.delivered + stats.link_drops + stats.node_drops
        );
        // The cause book survives the boundary.
        let behaviour = sim.node_behaviour_mut::<PipelineNode>(host).unwrap();
        assert_eq!(behaviour.pipeline().drop_stats().graph, 32);
    }

    #[test]
    fn control_loop_runs_and_lapses() {
        let ctl = RebalanceController::new(
            RebalancePolicy {
                max_imbalance: 1.25,
                min_samples: 8,
                pressure_weight: 0.0,
                ..RebalancePolicy::default()
            },
            0,
        );
        let node = passthrough("ctl", 2).with_controller(ctl, 10_000);
        let mut sim = Simulator::new(1);
        let host = sim.add_node(Box::new(node));
        sim.attach_source(
            host,
            Box::new(CbrGen::new(
                1_000,
                256,
                udp_flow("10.0.0.1", "10.0.0.2", 4002, 80, 16),
            )),
        );
        // run_to_idle terminating at all proves the lapse discipline.
        sim.run_to_idle();
        let behaviour = sim.node_behaviour_mut::<PipelineNode>(host).unwrap();
        assert!(behaviour.control_turns() > 0, "control loop must have run");
        assert_eq!(sim.stats().delivered, 256);
    }

    #[test]
    fn desc_built_node_runs_and_repatches_mid_run() {
        // The sim node compiled from a description, reconfigured
        // mid-run by diffing against a successor description — the
        // scenario engine's "cities rewire from configs" path.
        fn base_desc() -> PipelineDesc {
            PipelineDesc::new("sim-edge")
                .element("ct", "conntrack")
                .element("egress", "egress")
                .ingress("ct")
                .edge("ct", "egress")
        }
        let (node, mut binding) =
            PipelineNode::build_desc("edge", &base_desc(), ShardSpec::new(2)).unwrap();
        let mut sim = Simulator::new(3);
        let host = sim.add_node(Box::new(node));
        sim.attach_source(
            host,
            Box::new(CbrGen::new(
                500,
                32,
                udp_flow("10.0.0.1", "10.0.0.2", 4005, 80, 16),
            )),
        );
        sim.run_to_idle();
        assert_eq!(sim.stats().delivered, 32);

        // Structural patch: insert a guard upstream of the tracker.
        let next = PipelineDesc::new("sim-edge")
            .element("ct", "conntrack")
            .element_with("guard", "guard", &[("byte_threshold", (1u64 << 20).into())])
            .element("egress", "egress")
            .ingress("guard")
            .edge("guard", "ct")
            .edge("ct", "egress");
        let patch = binding.diff_to(&next).unwrap();
        assert!(!patch.param_only());
        let behaviour = sim.node_behaviour_mut::<PipelineNode>(host).unwrap();
        binding.apply_sharded(behaviour.pipeline(), &patch).unwrap();

        sim.attach_source(
            host,
            Box::new(CbrGen::new(
                500,
                16,
                udp_flow("10.0.0.3", "10.0.0.4", 4006, 80, 16),
            )),
        );
        sim.run_to_idle();
        let stats = sim.stats();
        assert_eq!(stats.delivered, 48, "patched dataplane keeps delivering");
        assert_eq!(
            stats.injected,
            stats.delivered + stats.link_drops + stats.node_drops
        );
    }

    #[test]
    fn a_replica_that_panics_is_healed_and_delivers_again() {
        use std::sync::atomic::{AtomicU64, Ordering};
        /// Forwards to the egress, and panics on the node's `nth`
        /// packet, ledgering the batch the panic takes down.
        struct Tripwire {
            seen: Arc<AtomicU64>,
            lost: Arc<AtomicU64>,
            nth: u64,
            out: Arc<EgressCollector>,
        }
        impl IPacketPush for Tripwire {
            fn push(&self, pkt: Packet) -> PushResult {
                self.out.push(pkt)
            }
            fn push_batch(&self, mut batch: PacketBatch) -> BatchResult {
                let pkts: Vec<Packet> = batch.drain_all().collect();
                let mut result = BatchResult::with_capacity(pkts.len());
                for (i, pkt) in pkts.iter().enumerate() {
                    if self.seen.fetch_add(1, Ordering::Relaxed) + 1 == self.nth {
                        self.lost
                            .fetch_add((pkts.len() - i) as u64, Ordering::Relaxed);
                        panic!("injected replica fault");
                    }
                    result.record(self.push(pkt.clone()));
                }
                result
            }
        }
        // One flow, one packet a microsecond: the 40th kills its shard,
        // the ones until the next lapse (every 50 µs) meet it dead.
        const SENT: u64 = 200;
        const NTH: u64 = 40;
        let (seen, lost) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let node = {
            let (seen, lost) = (Arc::clone(&seen), Arc::clone(&lost));
            PipelineNode::build("heal", ShardSpec::new(2), move |site| {
                let (capsule, _rt) = PipelineNode::shard_capsule();
                let entry: Arc<dyn IPacketPush> = Arc::new(Tripwire {
                    seen: Arc::clone(&seen),
                    lost: Arc::clone(&lost),
                    nth: NTH,
                    out: site.egress.clone(),
                });
                Ok(ShardGraph::new(capsule, entry))
            })
            .expect("node builds")
        };
        let ctl = RebalanceController::new(RebalancePolicy::default(), 0);
        let mut sim = Simulator::new(5);
        let host = sim.add_node(Box::new(node.with_controller(ctl, 50_000)));
        sim.attach_source(
            host,
            Box::new(CbrGen::new(
                1_000,
                SENT,
                udp_flow("10.0.0.1", "10.0.0.2", 4007, 80, 16),
            )),
        );
        sim.run_to_idle();
        let stats = sim.stats().clone();
        let behaviour = sim.node_behaviour_mut::<PipelineNode>(host).unwrap();
        let pipe = behaviour.pipeline();
        assert_eq!(pipe.recoveries(), 1, "the health turn respawned it");
        assert!((0..2).all(|s| pipe.worker_alive(s) == Some(true)));
        assert!(
            stats.delivered >= NTH,
            "delivers again after the crash: {stats:?}"
        );
        // The books: every packet is delivered, cause-dropped, or lost
        // with the panicking batch — and the simulator's own identity.
        let drops = pipe.drop_stats();
        assert!(drops.dead_worker > 0, "traffic met the dead shard");
        assert_eq!(drops.total(), pipe.stats().dropped);
        assert_eq!(
            stats.delivered + drops.total() + lost.load(Ordering::Relaxed),
            SENT
        );
        assert_eq!(
            stats.injected,
            stats.delivered + stats.link_drops + stats.node_drops
        );
    }

    #[test]
    fn forwarding_route_emits_on_port() {
        let node = passthrough("fwd", 1).with_route(Box::new(|_| RouteAction::Forward(0)));
        let mut sim = Simulator::new(1);
        let fwd = sim.add_node(Box::new(node));
        let (sink, counters) = SinkBehaviour::new();
        let dst = sim.add_node(Box::new(sink));
        sim.connect(fwd, dst, LinkSpec::default()); // fwd port 0 -> dst
        sim.attach_source(
            fwd,
            Box::new(CbrGen::new(
                500,
                16,
                udp_flow("10.0.0.1", "10.0.0.2", 4003, 80, 16),
            )),
        );
        sim.run_to_idle();
        assert_eq!(counters.received(), 16);
        assert_eq!(sim.stats().delivered, 16);
        assert!(sim.stats().forwarded >= 16);
    }
}
