//! Genesis-style **spawning networks** (paper §7: "This system supports
//! dynamic private virtual networks, each potentially with its own
//! semantics (addressing, routing, QoS, etc.) … particularly interesting
//! to us as an exemplar of a richly functioned stratum 4 system").
//!
//! [`Genesis`] spawns a *virtual network* over a subset of substrate
//! nodes. Spawning a virtnet builds, on every member node, a **virtual
//! router** out of real Router-CF components: an OpenCOM capsule hosting
//! a classifier (routing on the virtnet's own addressing) feeding
//! per-egress queues; the queues of all virtnets sharing a substrate port
//! are drained by one **WFQ link scheduler** whose weights realise each
//! virtnet's QoS share. Virtnets nest: a child is spawned over a subset
//! of its parent's nodes and receives a slice of the parent's share —
//! exactly the Genesis "spawning" hierarchy, here re-engineered on the
//! uniform component model (the paper's collaboration with Columbia).

use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

use opencom::capsule::Capsule;
use opencom::cf::Principal;
use opencom::error::Error as OcError;
use opencom::runtime::Runtime;

use netkit_packet::batch::PacketBatch;
use netkit_packet::packet::Packet;
use netkit_router::api::{
    FilterPattern, FilterSpec, IClassifier, IPacketPull, IPacketPush, IPACKET_PULL, IPACKET_PUSH,
};
use netkit_router::cf::RouterCf;
use netkit_router::elements::{ClassifierEngine, DropTailQueue, Scheduler, WfqScheduler};

/// Identifies a spawned virtual network.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct VirtnetId(pub u64);

/// What a virtual network should look like.
#[derive(Clone, Debug)]
pub struct VirtnetDescriptor {
    /// Human-readable name.
    pub name: String,
    /// The virtnet's private address prefix; member `k` (in member-list
    /// order) receives `base + k + 1` as its virtual address.
    pub prefix: (Ipv4Addr, u8),
    /// Fraction of the parent's link share this virtnet receives
    /// (fraction of the substrate for root virtnets). Must be in
    /// `(0, 1]`.
    pub qos_share: f64,
    /// Per-egress queue depth in the member routers.
    pub queue_depth: usize,
}

impl VirtnetDescriptor {
    /// A descriptor with sensible defaults (share 1.0, queue depth 64).
    pub fn new(name: impl Into<String>, prefix: Ipv4Addr, prefix_len: u8) -> Self {
        Self {
            name: name.into(),
            prefix: (prefix, prefix_len),
            qos_share: 1.0,
            queue_depth: 64,
        }
    }

    /// Sets the QoS share (builder-style).
    pub fn share(mut self, share: f64) -> Self {
        self.qos_share = share;
        self
    }
}

/// Why a spawn/teardown failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GenesisError {
    /// Referenced virtnet does not exist.
    UnknownVirtnet,
    /// A member index is outside the substrate.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
    },
    /// A child member is not a member of the parent.
    NotInParent {
        /// The offending node index.
        node: usize,
    },
    /// Sibling shares would exceed the parent's capacity.
    ShareExceeded {
        /// Sum of sibling shares after the new spawn.
        requested: f64,
    },
    /// The share is not in `(0, 1]`.
    BadShare,
    /// Member list is empty or not connected in the substrate.
    NotConnected,
    /// Teardown refused: children still exist.
    HasChildren,
    /// An underlying component operation failed.
    Component(String),
}

impl fmt::Display for GenesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenesisError::UnknownVirtnet => write!(f, "unknown virtual network"),
            GenesisError::NodeOutOfRange { node } => write!(f, "node {node} outside substrate"),
            GenesisError::NotInParent { node } => {
                write!(f, "node {node} is not a member of the parent virtnet")
            }
            GenesisError::ShareExceeded { requested } => {
                write!(f, "sibling shares sum to {requested} > 1")
            }
            GenesisError::BadShare => write!(f, "share must be in (0, 1]"),
            GenesisError::NotConnected => {
                write!(f, "members are empty or not connected in the substrate")
            }
            GenesisError::HasChildren => write!(f, "virtnet still has children"),
            GenesisError::Component(msg) => write!(f, "component operation failed: {msg}"),
        }
    }
}

impl std::error::Error for GenesisError {}

impl From<OcError> for GenesisError {
    fn from(e: OcError) -> Self {
        GenesisError::Component(e.to_string())
    }
}

/// A virtual router: the per-(virtnet, node) data path.
pub struct VirtualRouter {
    capsule: Arc<Capsule>,
    cf: RouterCf,
    classifier: Arc<ClassifierEngine>,
    /// `(substrate port, queue)` pairs in port order.
    queues: Vec<(u16, Arc<DropTailQueue>)>,
    /// This node's virtual address in the virtnet.
    pub vaddr: Ipv4Addr,
}

impl VirtualRouter {
    /// Pushes a packet into the virtual data path (classifier ingress).
    ///
    /// # Errors
    ///
    /// Propagates the classifier's [`PushError`](netkit_router::api::PushError).
    pub fn push(&self, pkt: Packet) -> netkit_router::api::PushResult {
        self.classifier.push(pkt)
    }

    /// Pushes a whole batch into the virtual data path in one call —
    /// the batched mirror of [`push`](Self::push), delegating to the
    /// classifier's native batch entry so per-packet dispatch overhead
    /// is paid once per burst.
    pub fn push_batch(&self, batch: PacketBatch) -> netkit_router::api::BatchResult {
        self.classifier.push_batch(batch)
    }

    /// The virtual router's classifier (for installing extra filters).
    pub fn classifier(&self) -> &Arc<ClassifierEngine> {
        &self.classifier
    }

    /// Number of components in this virtual router's capsule.
    pub fn component_count(&self) -> usize {
        self.capsule.arch().component_count()
    }

    /// Number of bindings in this virtual router's capsule.
    pub fn binding_count(&self) -> usize {
        self.capsule.arch().binding_count()
    }

    /// Approximate bytes held by the virtual router.
    pub fn footprint_bytes(&self) -> usize {
        self.capsule.footprint_bytes()
    }

    /// The Router CF governing this virtual router.
    pub fn cf(&self) -> &RouterCf {
        &self.cf
    }
}

impl fmt::Debug for VirtualRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "VirtualRouter(vaddr={}, {} queues)",
            self.vaddr,
            self.queues.len()
        )
    }
}

struct Virtnet {
    descriptor: VirtnetDescriptor,
    members: Vec<usize>,
    parent: Option<VirtnetId>,
    children: Vec<VirtnetId>,
    routers: HashMap<usize, VirtualRouter>,
    effective_share: f64,
}

/// Per-substrate-node shared state: one capsule for link schedulers, one
/// WFQ scheduler per substrate port.
struct SubstrateNode {
    capsule: Arc<Capsule>,
    /// Adjacency: `(local port, peer node)`.
    links: Vec<(u16, usize)>,
    port_scheds: HashMap<u16, Arc<Scheduler>>,
}

/// Statistics describing one spawn operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpawnReport {
    /// Member nodes configured.
    pub nodes: usize,
    /// Components instantiated across all members.
    pub components: usize,
    /// Bindings created across all members.
    pub bindings: usize,
    /// Classifier filters installed.
    pub filters: usize,
}

/// The spawning-networks controller over a substrate topology.
///
/// The substrate is an adjacency list (`links[n]` = `(port, peer)` pairs
/// for node `n`) — the same shape
/// [`netkit_sim::Simulator::adjacency`] produces.
pub struct Genesis {
    runtime: Arc<Runtime>,
    nodes: Vec<SubstrateNode>,
    virtnets: HashMap<VirtnetId, Virtnet>,
    next_id: u64,
}

impl Genesis {
    /// Creates a controller for a substrate with the given adjacency.
    pub fn new(adjacency: Vec<Vec<(u16, usize)>>) -> Self {
        let runtime = Runtime::new();
        netkit_router::api::register_packet_interfaces(&runtime);
        let nodes = adjacency
            .into_iter()
            .enumerate()
            .map(|(i, links)| SubstrateNode {
                capsule: Capsule::new(format!("substrate-node{i}"), &runtime),
                links,
                port_scheds: HashMap::new(),
            })
            .collect();
        Self {
            runtime,
            nodes,
            virtnets: HashMap::new(),
            next_id: 1,
        }
    }

    /// The shared OpenCOM runtime (meta-models, registry).
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// Ids of all live virtnets, in spawn order.
    pub fn virtnet_ids(&self) -> Vec<VirtnetId> {
        let mut ids: Vec<VirtnetId> = self.virtnets.keys().copied().collect();
        ids.sort();
        ids
    }

    /// The virtual router of `virtnet` at substrate node `node`.
    pub fn router(&self, virtnet: VirtnetId, node: usize) -> Option<&VirtualRouter> {
        self.virtnets.get(&virtnet)?.routers.get(&node)
    }

    /// The member list of `virtnet`.
    pub fn members(&self, virtnet: VirtnetId) -> Option<&[usize]> {
        self.virtnets.get(&virtnet).map(|v| v.members.as_slice())
    }

    /// The virtual address of `node` within `virtnet`.
    pub fn vaddr(&self, virtnet: VirtnetId, node: usize) -> Option<Ipv4Addr> {
        self.virtnets
            .get(&virtnet)?
            .routers
            .get(&node)
            .map(|r| r.vaddr)
    }

    /// The effective (absolute) link share of `virtnet`.
    pub fn effective_share(&self, virtnet: VirtnetId) -> Option<f64> {
        self.virtnets.get(&virtnet).map(|v| v.effective_share)
    }

    /// The shared link scheduler of substrate `node`'s `port`, if any
    /// virtnet uses that port.
    pub fn link_scheduler(&self, node: usize, port: u16) -> Option<&Arc<Scheduler>> {
        self.nodes.get(node)?.port_scheds.get(&port)
    }

    /// Spawns a root virtual network over `members`.
    ///
    /// # Errors
    ///
    /// See [`GenesisError`].
    pub fn spawn(
        &mut self,
        descriptor: VirtnetDescriptor,
        members: &[usize],
    ) -> Result<(VirtnetId, SpawnReport), GenesisError> {
        self.spawn_inner(descriptor, members, None)
    }

    /// Spawns a child virtnet inside `parent`; members must be parent
    /// members and sibling shares must fit.
    ///
    /// # Errors
    ///
    /// See [`GenesisError`].
    pub fn spawn_child(
        &mut self,
        parent: VirtnetId,
        descriptor: VirtnetDescriptor,
        members: &[usize],
    ) -> Result<(VirtnetId, SpawnReport), GenesisError> {
        self.spawn_inner(descriptor, members, Some(parent))
    }

    fn spawn_inner(
        &mut self,
        descriptor: VirtnetDescriptor,
        members: &[usize],
        parent: Option<VirtnetId>,
    ) -> Result<(VirtnetId, SpawnReport), GenesisError> {
        if !(descriptor.qos_share > 0.0 && descriptor.qos_share <= 1.0) {
            return Err(GenesisError::BadShare);
        }
        if members.is_empty() {
            return Err(GenesisError::NotConnected);
        }
        for &m in members {
            if m >= self.nodes.len() {
                return Err(GenesisError::NodeOutOfRange { node: m });
            }
        }
        let parent_share = match parent {
            Some(pid) => {
                let p = self
                    .virtnets
                    .get(&pid)
                    .ok_or(GenesisError::UnknownVirtnet)?;
                for &m in members {
                    if !p.members.contains(&m) {
                        return Err(GenesisError::NotInParent { node: m });
                    }
                }
                let sibling_sum: f64 = p
                    .children
                    .iter()
                    .filter_map(|c| self.virtnets.get(c))
                    .map(|c| c.descriptor.qos_share)
                    .sum();
                if sibling_sum + descriptor.qos_share > 1.0 + 1e-9 {
                    return Err(GenesisError::ShareExceeded {
                        requested: sibling_sum + descriptor.qos_share,
                    });
                }
                p.effective_share
            }
            None => 1.0,
        };

        // Induced-subgraph connectivity + next hops (BFS from each member
        // restricted to member nodes).
        let member_set: std::collections::HashSet<usize> = members.iter().copied().collect();
        let next_hops = self.member_next_hops(members, &member_set)?;

        let id = VirtnetId(self.next_id);
        self.next_id += 1;
        let effective_share = parent_share * descriptor.qos_share;

        // Virtual addressing: prefix base + (member order index + 1).
        let base = u32::from(descriptor.prefix.0);
        let vaddr_of = |k: usize| Ipv4Addr::from(base + k as u32 + 1);

        let mut report = SpawnReport {
            nodes: members.len(),
            ..SpawnReport::default()
        };
        let mut routers = HashMap::new();
        let sys = Principal::system();

        for (k, &n) in members.iter().enumerate() {
            let capsule = Capsule::new(format!("{}-node{n}", descriptor.name), &self.runtime);
            let cf = RouterCf::new(format!("{}::cf", descriptor.name), Arc::clone(&capsule));

            let classifier = ClassifierEngine::new();
            let cls_id = capsule.adopt(classifier.clone())?;
            cf.plug(&sys, cls_id)?;
            report.components += 1;

            // One queue per substrate port that leads to another member.
            let mut queues = Vec::new();
            let member_ports: Vec<u16> = self.nodes[n]
                .links
                .iter()
                .filter(|(_, peer)| member_set.contains(peer))
                .map(|(port, _)| *port)
                .collect();
            for port in member_ports {
                let queue = DropTailQueue::new(descriptor.queue_depth);
                let q_id = capsule.adopt(queue.clone())?;
                cf.plug(&sys, q_id)?;
                report.components += 1;
                cf.bind(
                    &sys,
                    cls_id,
                    "out",
                    &format!("port{port}"),
                    q_id,
                    IPACKET_PUSH,
                )?;
                report.bindings += 1;

                // Attach the queue to the node's shared per-port WFQ link
                // scheduler under this virtnet's label and share.
                let label = format!("vnet{}", id.0);
                let sched = self.ensure_port_scheduler(n, port)?;
                let sched_id = self.scheduler_component(n, port)?;
                let node_capsule = Arc::clone(&self.nodes[n].capsule);
                // The queue lives in the virtnet capsule, the scheduler in
                // the substrate capsule; bind across via direct receptacle
                // attach on the shared runtime.
                let q_sid = node_capsule.adopt(queue.clone())?;
                node_capsule.bind(sched_id, "in", &label, q_sid, IPACKET_PULL)?;
                sched.set_weight(&label, effective_share.max(1e-6));
                report.bindings += 1;
                queues.push((port, queue));
            }

            routers.insert(
                n,
                VirtualRouter {
                    capsule,
                    cf,
                    classifier,
                    queues,
                    vaddr: vaddr_of(k),
                },
            );
        }

        // Classifier filters: per destination member, route to the port
        // chosen by the induced-subgraph BFS.
        for (k, &n) in members.iter().enumerate() {
            let router = routers.get(&n).expect("just inserted");
            for (j, &dst) in members.iter().enumerate() {
                if j == k {
                    continue;
                }
                let Some(port) = next_hops[&n].get(&dst).copied() else {
                    continue;
                };
                // Only install if the corresponding queue exists.
                if router.queues.iter().any(|(p, _)| *p == port) {
                    let vdst = vaddr_of(j);
                    router
                        .classifier
                        .register_filter(FilterSpec::new(
                            FilterPattern {
                                dst_prefix: Some((vdst.into(), 32)),
                                ..FilterPattern::any()
                            },
                            format!("port{port}"),
                            0,
                        ))
                        .map_err(GenesisError::from)?;
                    report.filters += 1;
                }
            }
        }

        if let Some(pid) = parent {
            self.virtnets
                .get_mut(&pid)
                .expect("checked")
                .children
                .push(id);
        }
        self.virtnets.insert(
            id,
            Virtnet {
                descriptor,
                members: members.to_vec(),
                parent,
                children: Vec::new(),
                routers,
                effective_share,
            },
        );
        Ok((id, report))
    }

    /// Destroys a virtnet's routers and releases its share.
    ///
    /// # Errors
    ///
    /// Fails with [`GenesisError::HasChildren`] while children exist, or
    /// [`GenesisError::UnknownVirtnet`].
    pub fn teardown(&mut self, id: VirtnetId) -> Result<(), GenesisError> {
        let v = self.virtnets.get(&id).ok_or(GenesisError::UnknownVirtnet)?;
        if !v.children.is_empty() {
            return Err(GenesisError::HasChildren);
        }
        let v = self.virtnets.remove(&id).expect("present");
        if let Some(pid) = v.parent {
            if let Some(p) = self.virtnets.get_mut(&pid) {
                p.children.retain(|c| *c != id);
            }
        }
        // Unbind the virtnet's queues from the shared link schedulers.
        let label = format!("vnet{}", id.0);
        for (&n, router) in &v.routers {
            for (port, queue) in &router.queues {
                if let Ok(sched_id) = self.scheduler_component(n, *port) {
                    let node_capsule = &self.nodes[n].capsule;
                    // Find the binding record and remove it.
                    let records = node_capsule.arch().binding_records();
                    for rec in records {
                        if rec.src == sched_id && rec.label == label {
                            let _ = node_capsule.unbind(rec.id);
                        }
                    }
                    let _ = queue;
                }
            }
        }
        Ok(())
    }

    /// Forwards `pkt` one hop inside `virtnet` starting at `node`:
    /// pushes into the virtual router, then drains the appropriate link
    /// scheduler. Returns the `(egress port, packet)` if one emerged.
    ///
    /// This is the synchronous (non-simulated) data-path hook used by the
    /// benches; the examples drive the same routers from a `Simulator`.
    pub fn forward(&self, virtnet: VirtnetId, node: usize, pkt: Packet) -> Option<(u16, Packet)> {
        let router = self.router(virtnet, node)?;
        router.push(pkt).ok()?;
        for (port, _) in &router.queues {
            if let Some(sched) = self.nodes[node].port_scheds.get(port) {
                if let Some(out) = sched.pull() {
                    return Some((*port, out));
                }
            }
        }
        None
    }

    /// Forwards a whole burst one hop inside `virtnet` starting at
    /// `node`: pushes the batch through the virtual router's batched
    /// ingress, then drains every port scheduler dry. Returns the
    /// `(egress port, packet)` pairs in port order — the batched
    /// mirror of [`forward`](Self::forward), and the hook the
    /// simulator-hosted pipeline nodes use for signaling bursts.
    pub fn forward_batch(
        &self,
        virtnet: VirtnetId,
        node: usize,
        batch: PacketBatch,
    ) -> Vec<(u16, Packet)> {
        let Some(router) = self.router(virtnet, node) else {
            return Vec::new();
        };
        let _ = router.push_batch(batch);
        let mut out = Vec::new();
        for (port, _) in &router.queues {
            if let Some(sched) = self.nodes[node].port_scheds.get(port) {
                while let Some(pkt) = sched.pull() {
                    out.push((*port, pkt));
                }
            }
        }
        out
    }

    fn ensure_port_scheduler(
        &mut self,
        node: usize,
        port: u16,
    ) -> Result<Arc<Scheduler>, GenesisError> {
        if let Some(s) = self.nodes[node].port_scheds.get(&port) {
            return Ok(Arc::clone(s));
        }
        let sched = WfqScheduler::new(&[]);
        self.nodes[node].capsule.adopt(sched.clone())?;
        self.nodes[node]
            .port_scheds
            .insert(port, Arc::clone(&sched));
        Ok(sched)
    }

    fn scheduler_component(
        &self,
        node: usize,
        port: u16,
    ) -> Result<opencom::ident::ComponentId, GenesisError> {
        let sched = self.nodes[node]
            .port_scheds
            .get(&port)
            .ok_or(GenesisError::UnknownVirtnet)?;
        Ok(opencom::component::Component::core(sched.as_ref()).id())
    }

    /// BFS next hops restricted to the member-induced subgraph:
    /// `result[n][dst] = port`.
    fn member_next_hops(
        &self,
        members: &[usize],
        member_set: &std::collections::HashSet<usize>,
    ) -> Result<HashMap<usize, HashMap<usize, u16>>, GenesisError> {
        let mut all = HashMap::new();
        for &src in members {
            let mut first_port: HashMap<usize, u16> = HashMap::new();
            let mut seen = std::collections::HashSet::new();
            seen.insert(src);
            let mut queue = std::collections::VecDeque::new();
            for &(port, peer) in &self.nodes[src].links {
                if member_set.contains(&peer) && seen.insert(peer) {
                    first_port.insert(peer, port);
                    queue.push_back(peer);
                }
            }
            while let Some(at) = queue.pop_front() {
                for &(_, peer) in &self.nodes[at].links {
                    if member_set.contains(&peer) && seen.insert(peer) {
                        let via = first_port[&at];
                        first_port.insert(peer, via);
                        queue.push_back(peer);
                    }
                }
            }
            // Connectivity check: every other member reachable.
            if members.len() > 1 && first_port.len() + 1 < members.len() {
                return Err(GenesisError::NotConnected);
            }
            all.insert(src, first_port);
        }
        Ok(all)
    }
}

impl fmt::Debug for Genesis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Genesis({} substrate nodes, {} virtnets)",
            self.nodes.len(),
            self.virtnets.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_packet::packet::PacketBuilder;

    /// A 4-node line substrate: 0 — 1 — 2 — 3.
    fn line4() -> Vec<Vec<(u16, usize)>> {
        vec![
            vec![(0, 1)],
            vec![(0, 0), (1, 2)],
            vec![(0, 1), (1, 3)],
            vec![(0, 2)],
        ]
    }

    fn desc(name: &str) -> VirtnetDescriptor {
        VirtnetDescriptor::new(name, Ipv4Addr::new(10, 99, 0, 0), 24)
    }

    #[test]
    fn spawn_builds_routers_with_addresses_and_filters() {
        let mut g = Genesis::new(line4());
        let (id, report) = g.spawn(desc("blue"), &[0, 1, 2, 3]).unwrap();
        assert_eq!(report.nodes, 4);
        assert!(report.components >= 4 + 6, "classifier per node + queues");
        assert!(report.filters >= 6, "filters towards every other member");
        assert_eq!(g.vaddr(id, 0), Some(Ipv4Addr::new(10, 99, 0, 1)));
        assert_eq!(g.vaddr(id, 3), Some(Ipv4Addr::new(10, 99, 0, 4)));
        // Interior node has two member-facing queues.
        assert_eq!(g.router(id, 1).unwrap().queues.len(), 2);
        // Edge node has one.
        assert_eq!(g.router(id, 0).unwrap().queues.len(), 1);
    }

    #[test]
    fn virtual_data_path_forwards_by_virtual_address() {
        let mut g = Genesis::new(line4());
        let (id, _) = g.spawn(desc("blue"), &[0, 1, 2, 3]).unwrap();
        // A packet for node 3's vaddr, injected at node 0, leaves on the
        // port towards node 1.
        let pkt = PacketBuilder::udp_v4("10.99.0.1", "10.99.0.4", 5, 5).build();
        let (port, out) = g.forward(id, 0, pkt).expect("forwards");
        assert_eq!(port, 0);
        assert_eq!(out.ipv4().unwrap().dst, Ipv4Addr::new(10, 99, 0, 4));
    }

    #[test]
    fn disjoint_virtnets_have_independent_addressing() {
        let mut g = Genesis::new(line4());
        let (blue, _) = g.spawn(desc("blue"), &[0, 1]).unwrap();
        let (red, _) = g
            .spawn(
                VirtnetDescriptor::new("red", Ipv4Addr::new(10, 77, 0, 0), 24),
                &[2, 3],
            )
            .unwrap();
        assert_eq!(g.vaddr(blue, 0), Some(Ipv4Addr::new(10, 99, 0, 1)));
        assert_eq!(g.vaddr(red, 2), Some(Ipv4Addr::new(10, 77, 0, 1)));
        assert_eq!(g.members(blue).unwrap(), &[0, 1]);
        assert_eq!(g.members(red).unwrap(), &[2, 3]);
    }

    #[test]
    fn shared_port_gets_wfq_weights_per_virtnet() {
        let mut g = Genesis::new(line4());
        let (blue, _) = g.spawn(desc("blue").share(0.75), &[0, 1]).unwrap();
        let (red, _) = g
            .spawn(
                VirtnetDescriptor::new("red", Ipv4Addr::new(10, 77, 0, 0), 24).share(0.25),
                &[0, 1],
            )
            .unwrap();
        // Node 0 port 0 now schedules both virtnets' queues.
        let sched = g.link_scheduler(0, 0).expect("shared scheduler");
        // Push one packet into each virtnet and drain: both drain through
        // the same scheduler.
        let b = PacketBuilder::udp_v4("10.99.0.1", "10.99.0.2", 1, 1).build();
        let r = PacketBuilder::udp_v4("10.77.0.1", "10.77.0.2", 1, 1).build();
        g.router(blue, 0).unwrap().push(b).unwrap();
        g.router(red, 0).unwrap().push(r).unwrap();
        assert!(sched.pull().is_some());
        assert!(sched.pull().is_some());
        assert!(sched.pull().is_none());
        assert_eq!(g.effective_share(blue), Some(0.75));
        assert_eq!(g.effective_share(red), Some(0.25));
    }

    #[test]
    fn child_virtnets_nest_and_partition_share() {
        let mut g = Genesis::new(line4());
        let (parent, _) = g.spawn(desc("parent").share(0.8), &[0, 1, 2, 3]).unwrap();
        let (child, _) = g
            .spawn_child(
                parent,
                VirtnetDescriptor::new("child", Ipv4Addr::new(10, 88, 0, 0), 24).share(0.5),
                &[1, 2],
            )
            .unwrap();
        assert_eq!(g.effective_share(child), Some(0.4), "0.8 × 0.5");
        // Child members must be parent members.
        let err = g
            .spawn_child(
                parent,
                VirtnetDescriptor::new("bad", Ipv4Addr::new(10, 66, 0, 0), 24),
                &[99],
            )
            .unwrap_err();
        assert!(matches!(err, GenesisError::NodeOutOfRange { .. }));
        // Sibling shares capped at 1.
        let err = g
            .spawn_child(
                parent,
                VirtnetDescriptor::new("greedy", Ipv4Addr::new(10, 55, 0, 0), 24).share(0.6),
                &[0, 1],
            )
            .unwrap_err();
        assert!(matches!(err, GenesisError::ShareExceeded { .. }));
    }

    #[test]
    fn teardown_requires_children_gone_first() {
        let mut g = Genesis::new(line4());
        let (parent, _) = g.spawn(desc("p"), &[0, 1, 2]).unwrap();
        let (child, _) = g
            .spawn_child(
                parent,
                VirtnetDescriptor::new("c", Ipv4Addr::new(10, 88, 0, 0), 24).share(0.5),
                &[0, 1],
            )
            .unwrap();
        assert_eq!(g.teardown(parent), Err(GenesisError::HasChildren));
        g.teardown(child).unwrap();
        g.teardown(parent).unwrap();
        assert!(g.virtnet_ids().is_empty());
        assert_eq!(g.teardown(parent), Err(GenesisError::UnknownVirtnet));
    }

    #[test]
    fn disconnected_members_are_refused() {
        let mut g = Genesis::new(line4());
        // 0 and 3 are not adjacent and 1, 2 are excluded.
        let err = g.spawn(desc("gap"), &[0, 3]).unwrap_err();
        assert_eq!(err, GenesisError::NotConnected);
        let err = g.spawn(desc("empty"), &[]).unwrap_err();
        assert_eq!(err, GenesisError::NotConnected);
    }

    #[test]
    fn bad_shares_are_refused() {
        let mut g = Genesis::new(line4());
        assert_eq!(
            g.spawn(desc("zero").share(0.0), &[0, 1]).unwrap_err(),
            GenesisError::BadShare
        );
        assert_eq!(
            g.spawn(desc("big").share(1.5), &[0, 1]).unwrap_err(),
            GenesisError::BadShare
        );
    }

    #[test]
    fn spawn_report_scales_with_membership() {
        let mut g = Genesis::new(line4());
        let (_, small) = g.spawn(desc("s"), &[0, 1]).unwrap();
        let mut g2 = Genesis::new(line4());
        let (_, large) = g2.spawn(desc("l"), &[0, 1, 2, 3]).unwrap();
        assert!(large.components > small.components);
        assert!(large.filters > small.filters);
    }
}
