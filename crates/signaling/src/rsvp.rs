//! RSVP-style two-pass resource reservation (paper §3, stratum 4:
//! "out-of-band signaling protocols that perform distributed coordination
//! and (re)configuration of the lower strata. Examples are RSVP…").
//!
//! The protocol follows RSVP's shape without its full object model:
//!
//! * **PATH** messages travel sender → receiver through the routed
//!   topology, installing *path state* (the previous hop) at every node.
//! * **RESV** messages travel receiver → sender along the recorded
//!   reverse path; each hop runs **admission control** against the
//!   per-port bandwidth budget and installs *reservation state*.
//! * Both states are **soft**: they expire unless refreshed, and
//!   endpoints refresh on a timer (classic RSVP robustness).
//! * **PATH_TEAR** releases state early; **RESV_ERR** propagates
//!   admission failures back to the receiver.
//!
//! [`RsvpAgent`] is a [`NodeBehaviour`]:
//! it forwards ordinary data traffic like a router and interprets control
//! packets addressed to UDP port [`RSVP_PORT`].

use std::collections::HashMap;
use std::net::Ipv4Addr;

use netkit_packet::packet::{Packet, PacketBuilder};
use netkit_sim::node::{decrement_ttl, NodeBehaviour, NodeCtx};

/// UDP port carrying reservation signaling.
pub const RSVP_PORT: u16 = 3455;

/// Identifies a reservation session end-to-end.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// The reservation request: a single-rate flow spec.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlowSpec {
    /// Requested bandwidth in bits per second.
    pub bandwidth_bps: u64,
}

/// Control message kinds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MsgKind {
    Path,
    Resv,
    PathTear,
    ResvErr,
    ResvConf,
}

impl MsgKind {
    fn to_u8(self) -> u8 {
        match self {
            MsgKind::Path => 1,
            MsgKind::Resv => 2,
            MsgKind::PathTear => 3,
            MsgKind::ResvErr => 4,
            MsgKind::ResvConf => 5,
        }
    }
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => MsgKind::Path,
            2 => MsgKind::Resv,
            3 => MsgKind::PathTear,
            4 => MsgKind::ResvErr,
            5 => MsgKind::ResvConf,
            _ => return None,
        })
    }
}

/// A decoded control message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Msg {
    kind: MsgKind,
    session: SessionId,
    sender: Ipv4Addr,
    receiver: Ipv4Addr,
    bandwidth_bps: u64,
}

impl Msg {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + 8 + 4 + 4 + 8);
        out.push(self.kind.to_u8());
        out.extend_from_slice(&self.session.0.to_be_bytes());
        out.extend_from_slice(&self.sender.octets());
        out.extend_from_slice(&self.receiver.octets());
        out.extend_from_slice(&self.bandwidth_bps.to_be_bytes());
        out
    }

    fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < 25 {
            return None;
        }
        Some(Self {
            kind: MsgKind::from_u8(buf[0])?,
            session: SessionId(u64::from_be_bytes(buf[1..9].try_into().ok()?)),
            sender: Ipv4Addr::new(buf[9], buf[10], buf[11], buf[12]),
            receiver: Ipv4Addr::new(buf[13], buf[14], buf[15], buf[16]),
            bandwidth_bps: u64::from_be_bytes(buf[17..25].try_into().ok()?),
        })
    }

    fn into_packet(self, from: Ipv4Addr, to: Ipv4Addr) -> Packet {
        PacketBuilder::udp_v4(&from.to_string(), &to.to_string(), RSVP_PORT, RSVP_PORT)
            .payload(&self.encode())
            .build()
    }
}

/// Per-session path state at a node.
#[derive(Clone, Copy, Debug)]
struct PathState {
    /// Port back towards the sender (where PATH arrived).
    prev_hop: u16,
    /// Expiry (ns).
    expires: u64,
}

/// Per-session reservation at a node.
#[derive(Clone, Copy, Debug)]
struct ResvState {
    /// Port towards the receiver (the data-path egress being reserved).
    egress: u16,
    bandwidth_bps: u64,
    expires: u64,
}

/// Role this agent plays for a session it originated.
#[derive(Clone, Copy, Debug)]
struct LocalSession {
    spec: FlowSpec,
    peer: Ipv4Addr,
    refreshing: bool,
}

/// Events surfaced to the application (tests/examples poll these).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RsvpEvent {
    /// A PATH for `session` reached this (receiver) node.
    PathArrived(SessionId),
    /// The reservation completed end-to-end (sender side).
    Established(SessionId),
    /// Admission failed somewhere along the path (receiver side).
    Refused(SessionId),
    /// Soft state for `session` expired at this node.
    Expired(SessionId),
}

/// Timer tokens.
const TOKEN_SWEEP: u64 = 1;
const TOKEN_REFRESH: u64 = 2;

/// Knobs for the soft-state machinery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RsvpConfig {
    /// Endpoint refresh period (ns).
    pub refresh_ns: u64,
    /// State lifetime as a multiple of the refresh period.
    pub lifetime_mult: u64,
    /// Soft-state sweep period (ns).
    pub sweep_ns: u64,
}

impl Default for RsvpConfig {
    fn default() -> Self {
        Self {
            refresh_ns: 30_000_000,
            lifetime_mult: 3,
            sweep_ns: 10_000_000,
        }
    }
}

/// An RSVP-capable router/host node.
///
/// Construct with the node's address and per-port reservable budgets,
/// add destination routes ([`route`](RsvpAgent::route)), then drive it
/// inside a [`Simulator`](netkit_sim::Simulator).
#[derive(Debug)]
pub struct RsvpAgent {
    addr: Ipv4Addr,
    routes: HashMap<Ipv4Addr, u16>,
    /// Reservable capacity per egress port.
    budgets: HashMap<u16, u64>,
    /// Currently allocated per egress port.
    allocated: HashMap<u16, u64>,
    path_state: HashMap<SessionId, PathState>,
    resv_state: HashMap<SessionId, ResvState>,
    /// Sessions this node originated (as sender).
    sending: HashMap<SessionId, LocalSession>,
    /// Sessions this node terminates (as receiver).
    receiving: HashMap<SessionId, LocalSession>,
    /// Sessions whose end-to-end establishment was already reported.
    established: std::collections::HashSet<SessionId>,
    events: Vec<RsvpEvent>,
    config: RsvpConfig,
    sweep_armed: bool,
    refresh_armed: bool,
    /// Data packets forwarded on a reserved session's path.
    pub data_forwarded: u64,
}

impl RsvpAgent {
    /// Creates an agent for `addr`.
    pub fn new(addr: Ipv4Addr, config: RsvpConfig) -> Self {
        Self {
            addr,
            routes: HashMap::new(),
            budgets: HashMap::new(),
            allocated: HashMap::new(),
            path_state: HashMap::new(),
            resv_state: HashMap::new(),
            sending: HashMap::new(),
            receiving: HashMap::new(),
            established: std::collections::HashSet::new(),
            events: Vec::new(),
            config,
            sweep_armed: false,
            refresh_armed: false,
            data_forwarded: 0,
        }
    }

    /// Adds a host route.
    pub fn route(&mut self, dst: Ipv4Addr, port: u16) -> &mut Self {
        self.routes.insert(dst, port);
        self
    }

    /// Sets the reservable budget of `port` to `bps`.
    pub fn budget(&mut self, port: u16, bps: u64) -> &mut Self {
        self.budgets.insert(port, bps);
        self
    }

    /// Bits per second currently reserved on `port`.
    pub fn allocated_on(&self, port: u16) -> u64 {
        self.allocated.get(&port).copied().unwrap_or(0)
    }

    /// Sessions with live reservation state at this node.
    pub fn reserved_sessions(&self) -> Vec<SessionId> {
        let mut v: Vec<SessionId> = self.resv_state.keys().copied().collect();
        v.sort();
        v
    }

    /// Drains the surfaced events.
    pub fn take_events(&mut self) -> Vec<RsvpEvent> {
        std::mem::take(&mut self.events)
    }

    /// Starts a reservation towards `receiver` (this node is the sender):
    /// emits the first PATH immediately and refreshes until
    /// [`teardown`](RsvpAgent::teardown).
    ///
    /// Call before the simulation runs or from a behaviour callback.
    pub fn open_session(&mut self, session: SessionId, receiver: Ipv4Addr, spec: FlowSpec) {
        self.sending.insert(
            session,
            LocalSession {
                spec,
                peer: receiver,
                refreshing: true,
            },
        );
    }

    /// Stops refreshing and emits PATH_TEAR on the next timer tick.
    pub fn teardown(&mut self, session: SessionId) {
        if let Some(s) = self.sending.get_mut(&session) {
            s.refreshing = false;
        }
    }

    fn admit(&mut self, port: u16, bps: u64) -> bool {
        let cap = self.budgets.get(&port).copied().unwrap_or(u64::MAX);
        let used = self.allocated.entry(port).or_insert(0);
        if *used + bps <= cap {
            *used += bps;
            true
        } else {
            false
        }
    }

    fn release(&mut self, session: SessionId) {
        if let Some(r) = self.resv_state.remove(&session) {
            if let Some(used) = self.allocated.get_mut(&r.egress) {
                *used = used.saturating_sub(r.bandwidth_bps);
            }
        }
    }

    /// Arms the lapsed timers that current state requires. Timers lapse
    /// (rather than re-arm forever) once their state drains, so an idle
    /// agent schedules no events.
    fn arm_timers(&mut self, ctx: &mut NodeCtx<'_>) {
        if !self.sweep_armed && (!self.path_state.is_empty() || !self.resv_state.is_empty()) {
            self.sweep_armed = true;
            ctx.set_timer(self.config.sweep_ns, TOKEN_SWEEP);
        }
        if !self.refresh_armed && !self.sending.is_empty() {
            self.refresh_armed = true;
            ctx.set_timer(0, TOKEN_REFRESH);
        }
    }

    fn lifetime(&self) -> u64 {
        self.config.refresh_ns * self.config.lifetime_mult
    }

    fn emit_towards(&mut self, ctx: &mut NodeCtx<'_>, to: Ipv4Addr, msg: Msg) {
        if to == self.addr {
            return;
        }
        if let Some(&port) = self.routes.get(&to) {
            ctx.emit(port, msg.into_packet(self.addr, to));
        }
    }

    fn handle_control(&mut self, ctx: &mut NodeCtx<'_>, ingress: u16, msg: Msg) {
        let now = ctx.now().as_nanos();
        match msg.kind {
            MsgKind::Path => {
                self.path_state.insert(
                    msg.session,
                    PathState {
                        prev_hop: ingress,
                        expires: now + self.lifetime(),
                    },
                );
                if msg.receiver == self.addr {
                    // Receiver: answer (or re-answer) with RESV.
                    if !self.receiving.contains_key(&msg.session) {
                        self.events.push(RsvpEvent::PathArrived(msg.session));
                        self.receiving.insert(
                            msg.session,
                            LocalSession {
                                spec: FlowSpec {
                                    bandwidth_bps: msg.bandwidth_bps,
                                },
                                peer: msg.sender,
                                refreshing: true,
                            },
                        );
                    }
                    let resv = Msg {
                        kind: MsgKind::Resv,
                        ..msg
                    };
                    ctx.emit(ingress, resv.into_packet(self.addr, msg.sender));
                } else {
                    self.emit_towards(ctx, msg.receiver, msg);
                }
            }
            MsgKind::Resv => {
                if msg.sender == self.addr {
                    // Reservation completed end-to-end; refreshes after
                    // the first confirmation are silent.
                    if self.established.insert(msg.session) {
                        self.events.push(RsvpEvent::Established(msg.session));
                    }
                    let conf = Msg {
                        kind: MsgKind::ResvConf,
                        ..msg
                    };
                    self.emit_towards(ctx, msg.receiver, conf);
                    return;
                }
                // Transit node: reserve on the egress the data path uses
                // (the port RESV arrived on — data flows the other way).
                let egress = ingress;
                let already = self.resv_state.contains_key(&msg.session);
                if already {
                    // Refresh.
                    if let Some(r) = self.resv_state.get_mut(&msg.session) {
                        r.expires = now + self.config.refresh_ns * self.config.lifetime_mult;
                    }
                } else if !self.admit(egress, msg.bandwidth_bps) {
                    let err = Msg {
                        kind: MsgKind::ResvErr,
                        ..msg
                    };
                    ctx.emit(ingress, err.into_packet(self.addr, msg.receiver));
                    return;
                } else {
                    self.resv_state.insert(
                        msg.session,
                        ResvState {
                            egress,
                            bandwidth_bps: msg.bandwidth_bps,
                            expires: now + self.lifetime(),
                        },
                    );
                }
                // Continue towards the sender along stored path state.
                if let Some(ps) = self.path_state.get(&msg.session).copied() {
                    ctx.emit(ps.prev_hop, msg.into_packet(self.addr, msg.sender));
                }
            }
            MsgKind::PathTear => {
                self.path_state.remove(&msg.session);
                self.release(msg.session);
                if msg.receiver == self.addr {
                    self.receiving.remove(&msg.session);
                } else {
                    self.emit_towards(ctx, msg.receiver, msg);
                }
            }
            MsgKind::ResvErr => {
                if msg.receiver == self.addr {
                    self.events.push(RsvpEvent::Refused(msg.session));
                    self.receiving.remove(&msg.session);
                } else if let Some(&port) = self.routes.get(&msg.receiver) {
                    ctx.emit(port, msg.into_packet(self.addr, msg.receiver));
                }
            }
            MsgKind::ResvConf => {
                if msg.receiver != self.addr {
                    self.emit_towards(ctx, msg.receiver, msg);
                }
            }
        }
    }

    fn forward_data(&mut self, ctx: &mut NodeCtx<'_>, mut pkt: Packet) {
        let Ok(ip) = pkt.ipv4() else {
            ctx.drop_packet(pkt);
            return;
        };
        if ip.dst == self.addr {
            ctx.deliver_local(pkt);
            return;
        }
        let Some(&port) = self.routes.get(&ip.dst) else {
            ctx.drop_packet(pkt);
            return;
        };
        if decrement_ttl(&mut pkt) {
            self.data_forwarded += 1;
            ctx.emit(port, pkt);
        } else {
            ctx.drop_packet(pkt);
        }
    }
}

impl NodeBehaviour for RsvpAgent {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, ingress: u16, pkt: Packet) {
        self.arm_timers(ctx);
        let control = pkt
            .udp_v4()
            .ok()
            .filter(|u| u.dst_port == RSVP_PORT)
            .and_then(|_| pkt.udp_payload_v4().ok().and_then(Msg::decode));
        match control {
            Some(msg) => self.handle_control(ctx, ingress, msg),
            None => self.forward_data(ctx, pkt),
        }
        // Handling may have created state that needs sweeping/refreshing.
        self.arm_timers(ctx);
    }

    /// Native batch path: one timer arm around the whole batch instead
    /// of two per packet. Control and data packets keep their relative
    /// order — a RESV riding behind the data it reserves for is
    /// handled after it, exactly as on the per-packet path.
    fn on_batch(&mut self, ctx: &mut NodeCtx<'_>, ingress: u16, pkts: Vec<Packet>) {
        self.arm_timers(ctx);
        for pkt in pkts {
            let control = pkt
                .udp_v4()
                .ok()
                .filter(|u| u.dst_port == RSVP_PORT)
                .and_then(|_| pkt.udp_payload_v4().ok().and_then(Msg::decode));
            match control {
                Some(msg) => self.handle_control(ctx, ingress, msg),
                None => self.forward_data(ctx, pkt),
            }
        }
        self.arm_timers(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        let now = ctx.now().as_nanos();
        match token {
            TOKEN_SWEEP => {
                // The maps iterate in RandomState order; sort so the
                // expiry events (and anything downstream of them) come
                // out the same on every run — the simulator's
                // bit-for-bit replay contract covers signaling too.
                let mut expired_paths: Vec<SessionId> = self
                    .path_state
                    .iter()
                    .filter(|(_, s)| s.expires <= now)
                    .map(|(id, _)| *id)
                    .collect();
                expired_paths.sort_unstable();
                for id in expired_paths {
                    self.path_state.remove(&id);
                    self.events.push(RsvpEvent::Expired(id));
                }
                let mut expired_resv: Vec<SessionId> = self
                    .resv_state
                    .iter()
                    .filter(|(_, s)| s.expires <= now)
                    .map(|(id, _)| *id)
                    .collect();
                expired_resv.sort_unstable();
                for id in expired_resv {
                    self.release(id);
                    self.events.push(RsvpEvent::Expired(id));
                }
                if self.path_state.is_empty() && self.resv_state.is_empty() {
                    self.sweep_armed = false; // lapse until new state appears
                } else {
                    ctx.set_timer(self.config.sweep_ns, TOKEN_SWEEP);
                }
            }
            TOKEN_REFRESH => {
                // Sorted for the same reason as the sweep: refresh
                // PATHs must hit the wire in a reproducible order.
                let mut sessions: Vec<(SessionId, LocalSession)> =
                    self.sending.iter().map(|(id, s)| (*id, *s)).collect();
                sessions.sort_unstable_by_key(|(id, _)| *id);
                for (id, s) in sessions {
                    if s.refreshing {
                        let path = Msg {
                            kind: MsgKind::Path,
                            session: id,
                            sender: self.addr,
                            receiver: s.peer,
                            bandwidth_bps: s.spec.bandwidth_bps,
                        };
                        self.emit_towards(ctx, s.peer, path);
                    } else {
                        let tear = Msg {
                            kind: MsgKind::PathTear,
                            session: id,
                            sender: self.addr,
                            receiver: s.peer,
                            bandwidth_bps: s.spec.bandwidth_bps,
                        };
                        self.emit_towards(ctx, s.peer, tear);
                        self.sending.remove(&id);
                    }
                }
                if self.sending.is_empty() {
                    self.refresh_armed = false; // lapse until a new session opens
                } else {
                    ctx.set_timer(self.config.refresh_ns, TOKEN_REFRESH);
                }
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "rsvp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_sim::link::LinkSpec;
    use netkit_sim::Simulator;

    /// Builds a line of RSVP agents `10.0.0.1 … 10.0.0.n`, with routes
    /// and per-port budgets of `budget_bps`.
    fn rsvp_line(sim: &mut Simulator, n: usize, budget_bps: u64) -> Vec<netkit_sim::node::NodeId> {
        let addr = |i: usize| Ipv4Addr::new(10, 0, 0, (i + 1) as u8);
        let mut ids = Vec::new();
        for i in 0..n {
            let agent = RsvpAgent::new(
                addr(i),
                RsvpConfig {
                    refresh_ns: 1_000_000,
                    lifetime_mult: 3,
                    sweep_ns: 500_000,
                },
            );
            ids.push(sim.add_node(Box::new(agent)));
        }
        for w in ids.windows(2) {
            sim.connect(w[0], w[1], LinkSpec::lan());
        }
        // Routes: node i reaches lower addresses via port 0 (except node
        // 0), higher via its last port. On a line, interior nodes have
        // port 0 = left, port 1 = right; node 0 has only port 0 = right.
        for (i, &node) in ids.iter().enumerate() {
            let left = if i == 0 { None } else { Some(0u16) };
            let right = if i == n - 1 {
                None
            } else if i == 0 {
                Some(0u16)
            } else {
                Some(1u16)
            };
            let agent = sim.node_behaviour_mut::<RsvpAgent>(node).unwrap();
            for j in 0..n {
                if j < i {
                    if let Some(p) = left {
                        agent.route(addr(j), p);
                    }
                } else if j > i {
                    if let Some(p) = right {
                        agent.route(addr(j), p);
                    }
                }
            }
            for p in [left, right].into_iter().flatten() {
                agent.budget(p, budget_bps);
            }
        }
        ids
    }

    fn kick(sim: &mut Simulator, node: netkit_sim::node::NodeId) {
        // Agents arm their timers on first packet; poke each endpoint.
        let dummy = PacketBuilder::udp_v4("10.9.9.9", "10.9.9.8", 1, 1).build();
        sim.inject_after(node, 0, dummy);
    }

    #[test]
    fn reservation_establishes_over_four_hops() {
        let mut sim = Simulator::new(1);
        let ids = rsvp_line(&mut sim, 4, 10_000_000);
        let session = SessionId(42);
        sim.node_behaviour_mut::<RsvpAgent>(ids[0])
            .unwrap()
            .open_session(
                session,
                Ipv4Addr::new(10, 0, 0, 4),
                FlowSpec {
                    bandwidth_bps: 1_000_000,
                },
            );
        kick(&mut sim, ids[0]);
        sim.run_for(5_000_000);
        let sender = sim.node_behaviour_mut::<RsvpAgent>(ids[0]).unwrap();
        assert!(sender
            .take_events()
            .contains(&RsvpEvent::Established(session)));
        // Transit nodes hold reservation state on the receiver-facing port.
        for &mid in &ids[1..3] {
            let agent = sim.node_behaviour_mut::<RsvpAgent>(mid).unwrap();
            assert_eq!(agent.reserved_sessions(), [session]);
            assert_eq!(agent.allocated_on(1), 1_000_000);
        }
        // Receiver saw the PATH.
        let receiver = sim.node_behaviour_mut::<RsvpAgent>(ids[3]).unwrap();
        assert!(receiver
            .take_events()
            .contains(&RsvpEvent::PathArrived(session)));
    }

    #[test]
    fn admission_rejects_over_budget() {
        let mut sim = Simulator::new(1);
        let ids = rsvp_line(&mut sim, 3, 1_500_000);
        // First session takes 1 Mbit/s of the 1.5 Mbit/s budget.
        sim.node_behaviour_mut::<RsvpAgent>(ids[0])
            .unwrap()
            .open_session(
                SessionId(1),
                Ipv4Addr::new(10, 0, 0, 3),
                FlowSpec {
                    bandwidth_bps: 1_000_000,
                },
            );
        // Second wants another 1 Mbit/s: must be refused.
        sim.node_behaviour_mut::<RsvpAgent>(ids[0])
            .unwrap()
            .open_session(
                SessionId(2),
                Ipv4Addr::new(10, 0, 0, 3),
                FlowSpec {
                    bandwidth_bps: 1_000_000,
                },
            );
        kick(&mut sim, ids[0]);
        sim.run_for(5_000_000);
        let receiver = sim.node_behaviour_mut::<RsvpAgent>(ids[2]).unwrap();
        let events = receiver.take_events();
        assert!(
            events.contains(&RsvpEvent::Refused(SessionId(2)))
                || events.contains(&RsvpEvent::Refused(SessionId(1))),
            "one of the two competing sessions is refused: {events:?}"
        );
        let mid = sim.node_behaviour_mut::<RsvpAgent>(ids[1]).unwrap();
        assert_eq!(mid.reserved_sessions().len(), 1, "only one fits the budget");
        assert_eq!(mid.allocated_on(1), 1_000_000);
    }

    #[test]
    fn soft_state_expires_without_refresh() {
        let mut sim = Simulator::new(1);
        let ids = rsvp_line(&mut sim, 3, 10_000_000);
        let session = SessionId(9);
        sim.node_behaviour_mut::<RsvpAgent>(ids[0])
            .unwrap()
            .open_session(
                session,
                Ipv4Addr::new(10, 0, 0, 3),
                FlowSpec {
                    bandwidth_bps: 500_000,
                },
            );
        kick(&mut sim, ids[0]);
        sim.run_for(2_000_000);
        assert_eq!(
            sim.node_behaviour_mut::<RsvpAgent>(ids[1])
                .unwrap()
                .reserved_sessions(),
            [session]
        );
        // Stop refreshing (teardown also sends PATH_TEAR, so instead we
        // simulate sender death: drop its sending state outright).
        sim.node_behaviour_mut::<RsvpAgent>(ids[0])
            .unwrap()
            .sending
            .clear();
        // Lifetime is 3 × 1ms; run well past it.
        sim.run_for(10_000_000);
        let mid = sim.node_behaviour_mut::<RsvpAgent>(ids[1]).unwrap();
        assert!(mid.reserved_sessions().is_empty(), "state must expire");
        assert_eq!(mid.allocated_on(1), 0, "bandwidth returned");
    }

    #[test]
    fn teardown_releases_immediately() {
        let mut sim = Simulator::new(1);
        let ids = rsvp_line(&mut sim, 3, 10_000_000);
        let session = SessionId(5);
        sim.node_behaviour_mut::<RsvpAgent>(ids[0])
            .unwrap()
            .open_session(
                session,
                Ipv4Addr::new(10, 0, 0, 3),
                FlowSpec {
                    bandwidth_bps: 500_000,
                },
            );
        kick(&mut sim, ids[0]);
        sim.run_for(2_500_000);
        sim.node_behaviour_mut::<RsvpAgent>(ids[0])
            .unwrap()
            .teardown(session);
        sim.run_for(2_000_000);
        let mid = sim.node_behaviour_mut::<RsvpAgent>(ids[1]).unwrap();
        assert!(mid.reserved_sessions().is_empty());
        assert_eq!(mid.allocated_on(1), 0);
    }

    #[test]
    fn data_traffic_still_forwards() {
        let mut sim = Simulator::new(1);
        let ids = rsvp_line(&mut sim, 3, 10_000_000);
        let data = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.3", 7_000, 7_001)
            .payload(b"data")
            .build();
        sim.inject_after(ids[0], 0, data);
        let stats = sim.run_to_idle();
        assert_eq!(stats.delivered, 1);
    }

    #[test]
    fn message_codec_roundtrip_and_rejects_junk() {
        let msg = Msg {
            kind: MsgKind::Resv,
            session: SessionId(77),
            sender: Ipv4Addr::new(10, 0, 0, 1),
            receiver: Ipv4Addr::new(10, 0, 0, 9),
            bandwidth_bps: 123_456,
        };
        let decoded = Msg::decode(&msg.encode()).unwrap();
        assert_eq!(decoded, msg);
        assert!(Msg::decode(b"short").is_none());
        let mut bad = msg.encode();
        bad[0] = 99;
        assert!(Msg::decode(&bad).is_none());
    }
}
