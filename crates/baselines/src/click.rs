//! A Click-like statically-configured router (paper §6: "The Click
//! modular router employs a fine grained C++-based component model with
//! flexible support for the *configuration* (but not *reconfiguration*)
//! of packet scheduling, route lookup and queue drop modules").
//!
//! This baseline reproduces exactly that axis: a declarative config
//! language compiled **once** into a flat element graph dispatched by
//! index — no interface tables, no receptacles, no meta-models, and *no
//! way to change the graph after [`ClickRouter::compile`]*. It is the
//! "configuration but not reconfiguration" comparator the ledger
//! prices (`baselines.click.bare_ns`, `baselines.click.edge_ns`).
//!
//! ## Config language
//!
//! ```text
//! // declarations                 // connections
//! src :: Counter;                 src -> cls;
//! cls :: Classifier(udp 5000-5999 voice, any bulk);
//! voice :: Queue(64);             cls [voice] -> voice;
//! bulk :: Queue(256);             cls [bulk] -> bulk;
//! sink :: Discard;                voice -> sink; bulk -> sink;
//! ```
//!
//! Classes: `Counter`, `Discard`, `Queue(cap)`, `DecTtl`,
//! `Classifier(rule out, …)` (rules: `udp`, `tcp`, `dscp N`,
//! `dst A.B.C.D/L`, `dport LO-HI`, `any`), `Tee(n)`, and the stateful
//! edge trio mirroring `netkit_router::flow` —
//! `ConnTracker(capacity)` (bounded flow table, new flows beyond the
//! bound drop), `Guard(byte_threshold)` (per-flow byte meter, heavy
//! flows drop), `Nat44(ext_ip, port_base, pool)` (source NAT with a
//! sequential, **never-reclaimed** port pool: the baseline has no
//! teardown, which is exactly the reconfigurability gap the component
//! router's RST/sweep reclamation closes). The NAT rewrites with the
//! same incremental-checksum helper as the component element
//! ([`rewrite_ipv4_endpoint`]), so the stateful-edge benches compare
//! dispatch and bookkeeping — not checksum arithmetic.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;
use std::net::Ipv4Addr;

use netkit_packet::flow::FlowKey;
use netkit_packet::headers::{proto, Ipv4Header};
use netkit_packet::packet::Packet;
use netkit_router::flow::{rewrite_ipv4_endpoint, RewriteSide};
use parking_lot::Mutex;

/// A parse/compile failure with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClickError {
    /// 1-based line of the offending construct.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ClickError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ClickError {}

fn err(line: usize, message: impl Into<String>) -> ClickError {
    ClickError {
        line,
        message: message.into(),
    }
}

/// One classifier rule: pattern → named output.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Rule {
    protocol: Option<u8>,
    dscp: Option<u8>,
    dst: Option<(Ipv4Addr, u8)>,
    dport: Option<(u16, u16)>,
    output: String,
}

impl Rule {
    fn matches(&self, flow: &FlowKey, dscp: u8) -> bool {
        if let Some(p) = self.protocol {
            if flow.protocol != p {
                return false;
            }
        }
        if let Some(d) = self.dscp {
            if d != dscp {
                return false;
            }
        }
        if let Some((net, len)) = self.dst {
            let std::net::IpAddr::V4(v4) = flow.dst else {
                return false;
            };
            let mask = if len == 0 {
                0
            } else {
                !(u32::MAX >> len.min(32))
            };
            if (u32::from(v4) & mask) != (u32::from(net) & mask) {
                return false;
            }
        }
        if let Some((lo, hi)) = self.dport {
            if !(lo..=hi).contains(&flow.dst_port) {
                return false;
            }
        }
        true
    }
}

/// Element behaviours (static dispatch — the whole point of the
/// baseline).
#[derive(Debug)]
enum ElementKind {
    Counter {
        count: Mutex<u64>,
    },
    Discard {
        count: Mutex<u64>,
    },
    Queue {
        cap: usize,
        buf: Mutex<VecDeque<Packet>>,
        drops: Mutex<u64>,
    },
    DecTtl {
        expired: Mutex<u64>,
    },
    Classifier {
        rules: Vec<Rule>,
    },
    Tee {
        n: usize,
    },
    ConnTracker {
        capacity: usize,
        flows: Mutex<HashMap<FlowKey, u64>>,
        dropped: Mutex<u64>,
    },
    Guard {
        byte_threshold: u64,
        meters: Mutex<HashMap<FlowKey, u64>>,
        dropped: Mutex<u64>,
    },
    Nat44 {
        external_ip: Ipv4Addr,
        port_base: u16,
        pool: usize,
        bindings: Mutex<HashMap<FlowKey, u16>>,
        next: Mutex<usize>,
        dropped: Mutex<u64>,
    },
}

/// A compiled element.
#[derive(Debug)]
struct Element {
    name: String,
    kind: ElementKind,
    /// Outgoing edges: `(label, element index)`. The unlabeled edge is
    /// `""`.
    out: Vec<(String, usize)>,
}

impl Element {
    fn first_out(&self) -> Option<usize> {
        self.out.first().map(|(_, i)| *i)
    }

    fn labelled_out(&self, label: &str) -> Option<usize> {
        self.out.iter().find(|(l, _)| l == label).map(|(_, i)| *i)
    }
}

/// A compiled, immutable Click-style router.
///
/// ```
/// use netkit_baselines::click::ClickRouter;
/// use netkit_packet::packet::PacketBuilder;
///
/// let router = ClickRouter::compile(
///     "in :: DecTtl; q :: Queue(8); sink :: Discard;
///      in -> q; q -> sink;",
/// )?;
/// router.push("in", PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2).build());
/// assert_eq!(router.queue_len("q").unwrap(), 1);
/// # Ok::<(), netkit_baselines::click::ClickError>(())
/// ```
#[derive(Debug)]
pub struct ClickRouter {
    elements: Vec<Element>,
    by_name: HashMap<String, usize>,
}

impl ClickRouter {
    /// Parses and compiles a configuration. The graph is immutable
    /// afterwards — reconfiguration requires a full recompile (the
    /// baseline's defining limitation).
    ///
    /// # Errors
    ///
    /// Returns a [`ClickError`] naming the offending line for unknown
    /// classes, bad arguments, duplicate declarations, unknown element or
    /// output references, or dangling required outputs.
    pub fn compile(config: &str) -> Result<Self, ClickError> {
        let mut elements: Vec<Element> = Vec::new();
        let mut by_name: HashMap<String, usize> = HashMap::new();
        let mut connections: Vec<(usize, String, String, String)> = Vec::new(); // (line, src, label, dst)

        for (line_no, raw_line) in config.lines().enumerate() {
            let line_no = line_no + 1;
            let line = match raw_line.find("//") {
                Some(at) => &raw_line[..at],
                None => raw_line,
            };
            for stmt in line.split(';') {
                let stmt = stmt.trim();
                if stmt.is_empty() {
                    continue;
                }
                if let Some((name, decl)) = stmt.split_once("::") {
                    let name = name.trim();
                    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                        return Err(err(line_no, format!("bad element name `{name}`")));
                    }
                    if by_name.contains_key(name) {
                        return Err(err(line_no, format!("duplicate element `{name}`")));
                    }
                    let kind = Self::parse_class(line_no, decl.trim())?;
                    by_name.insert(name.to_string(), elements.len());
                    elements.push(Element {
                        name: name.to_string(),
                        kind,
                        out: Vec::new(),
                    });
                } else if stmt.contains("->") {
                    let parts: Vec<&str> = stmt.split("->").map(str::trim).collect();
                    if parts.len() < 2 {
                        return Err(err(line_no, format!("bad connection `{stmt}`")));
                    }
                    // Support chains: a -> b -> c.
                    for w in parts.windows(2) {
                        let (src, label) = match w[0].split_once('[') {
                            Some((s, rest)) => {
                                let label = rest
                                    .strip_suffix(']')
                                    .ok_or_else(|| err(line_no, "unterminated output label"))?;
                                (s.trim(), label.trim().to_string())
                            }
                            None => (w[0], String::new()),
                        };
                        // `cls [voice] -> q` puts the label on the source
                        // side; `w[0]` may itself be `cls [voice]`. The
                        // destination side must be a plain name (possibly
                        // with its own label for the *next* window, which
                        // we strip when it becomes a source).
                        let dst = match w[1].split_once('[') {
                            Some((d, _)) => d.trim(),
                            None => w[1],
                        };
                        connections.push((line_no, src.to_string(), label, dst.to_string()));
                    }
                } else {
                    return Err(err(line_no, format!("unparseable statement `{stmt}`")));
                }
            }
        }

        for (line_no, src, label, dst) in connections {
            let &src_idx = by_name
                .get(&src)
                .ok_or_else(|| err(line_no, format!("unknown element `{src}`")))?;
            let &dst_idx = by_name
                .get(&dst)
                .ok_or_else(|| err(line_no, format!("unknown element `{dst}`")))?;
            // Classifier outputs must name declared rules.
            if let ElementKind::Classifier { rules } = &elements[src_idx].kind {
                if !label.is_empty() && !rules.iter().any(|r| r.output == label) {
                    return Err(err(
                        line_no,
                        format!("classifier `{src}` has no output `{label}`"),
                    ));
                }
            }
            elements[src_idx].out.push((label, dst_idx));
        }

        // Static completeness check: classifiers must have every rule
        // output connected (Click refuses to start with dangling ports).
        for el in &elements {
            if let ElementKind::Classifier { rules } = &el.kind {
                for rule in rules {
                    if el.labelled_out(&rule.output).is_none() {
                        return Err(err(
                            0,
                            format!(
                                "classifier `{}` output `{}` is not connected",
                                el.name, rule.output
                            ),
                        ));
                    }
                }
            }
        }

        Ok(Self { elements, by_name })
    }

    fn parse_class(line: usize, decl: &str) -> Result<ElementKind, ClickError> {
        let (class, args) = match decl.find('(') {
            Some(at) => {
                let class = decl[..at].trim();
                let args = decl[at + 1..]
                    .strip_suffix(')')
                    .ok_or_else(|| err(line, "unterminated argument list"))?;
                (class, args.trim())
            }
            None => (decl.trim(), ""),
        };
        match class {
            "Counter" => Ok(ElementKind::Counter {
                count: Mutex::new(0),
            }),
            "Discard" => Ok(ElementKind::Discard {
                count: Mutex::new(0),
            }),
            "DecTtl" => Ok(ElementKind::DecTtl {
                expired: Mutex::new(0),
            }),
            "Queue" => {
                let cap: usize = if args.is_empty() {
                    64
                } else {
                    args.parse()
                        .map_err(|_| err(line, format!("bad queue size `{args}`")))?
                };
                if cap == 0 {
                    return Err(err(line, "queue capacity must be positive"));
                }
                Ok(ElementKind::Queue {
                    cap,
                    buf: Mutex::new(VecDeque::new()),
                    drops: Mutex::new(0),
                })
            }
            "Tee" => {
                let n: usize = if args.is_empty() {
                    2
                } else {
                    args.parse()
                        .map_err(|_| err(line, format!("bad tee count `{args}`")))?
                };
                Ok(ElementKind::Tee { n })
            }
            "Classifier" => {
                if args.is_empty() {
                    return Err(err(line, "classifier needs at least one rule"));
                }
                let mut rules = Vec::new();
                for rule_src in args.split(',') {
                    rules.push(Self::parse_rule(line, rule_src.trim())?);
                }
                Ok(ElementKind::Classifier { rules })
            }
            "ConnTracker" => {
                let capacity: usize = if args.is_empty() {
                    4_096
                } else {
                    args.parse()
                        .map_err(|_| err(line, format!("bad conntrack capacity `{args}`")))?
                };
                if capacity == 0 {
                    return Err(err(line, "conntrack capacity must be positive"));
                }
                Ok(ElementKind::ConnTracker {
                    capacity,
                    flows: Mutex::new(HashMap::new()),
                    dropped: Mutex::new(0),
                })
            }
            "Guard" => {
                let byte_threshold: u64 = if args.is_empty() {
                    1 << 20
                } else {
                    args.parse()
                        .map_err(|_| err(line, format!("bad guard threshold `{args}`")))?
                };
                Ok(ElementKind::Guard {
                    byte_threshold,
                    meters: Mutex::new(HashMap::new()),
                    dropped: Mutex::new(0),
                })
            }
            "Nat44" => {
                let parts: Vec<&str> = if args.is_empty() {
                    Vec::new()
                } else {
                    args.split(',').map(str::trim).collect()
                };
                if !parts.is_empty() && parts.len() != 3 {
                    return Err(err(
                        line,
                        "Nat44 takes (ext_ip, port_base, pool) or nothing",
                    ));
                }
                let external_ip: Ipv4Addr =
                    parts.first().map_or(Ok(Ipv4Addr::new(192, 0, 2, 1)), |s| {
                        s.parse()
                            .map_err(|_| err(line, format!("bad NAT external ip `{s}`")))
                    })?;
                let port_base: u16 = parts.get(1).map_or(Ok(10_000), |s| {
                    s.parse()
                        .map_err(|_| err(line, format!("bad NAT port base `{s}`")))
                })?;
                let pool: usize = parts.get(2).map_or(Ok(4_096), |s| {
                    s.parse()
                        .map_err(|_| err(line, format!("bad NAT pool size `{s}`")))
                })?;
                if port_base as usize + pool > u16::MAX as usize + 1 {
                    return Err(err(line, "NAT port pool must fit in u16"));
                }
                Ok(ElementKind::Nat44 {
                    external_ip,
                    port_base,
                    pool,
                    bindings: Mutex::new(HashMap::new()),
                    next: Mutex::new(0),
                    dropped: Mutex::new(0),
                })
            }
            other => Err(err(line, format!("unknown element class `{other}`"))),
        }
    }

    fn parse_rule(line: usize, src: &str) -> Result<Rule, ClickError> {
        let tokens: Vec<&str> = src.split_whitespace().collect();
        if tokens.len() < 2 && tokens != ["any"] {
            // last token is the output name
        }
        if tokens.is_empty() {
            return Err(err(line, "empty classifier rule"));
        }
        let output = (*tokens.last().expect("non-empty")).to_string();
        let mut rule = Rule {
            protocol: None,
            dscp: None,
            dst: None,
            dport: None,
            output,
        };
        let mut i = 0;
        while i + 1 < tokens.len() {
            match tokens[i] {
                "udp" => rule.protocol = Some(proto::UDP),
                "tcp" => rule.protocol = Some(proto::TCP),
                "any" => {}
                "dscp" => {
                    i += 1;
                    if i + 1 >= tokens.len() {
                        return Err(err(line, "dscp needs a value"));
                    }
                    rule.dscp = Some(
                        tokens[i]
                            .parse()
                            .map_err(|_| err(line, format!("bad dscp `{}`", tokens[i])))?,
                    );
                }
                "dst" => {
                    i += 1;
                    if i + 1 >= tokens.len() {
                        return Err(err(line, "dst needs a prefix"));
                    }
                    let (addr, len) = tokens[i]
                        .split_once('/')
                        .ok_or_else(|| err(line, "dst prefix must be A.B.C.D/L"))?;
                    rule.dst = Some((
                        addr.parse()
                            .map_err(|_| err(line, format!("bad address `{addr}`")))?,
                        len.parse()
                            .map_err(|_| err(line, format!("bad prefix len `{len}`")))?,
                    ));
                }
                tok if tok.contains('-') && tok != "-" => {
                    let (lo, hi) = tok.split_once('-').expect("checked");
                    rule.dport = Some((
                        lo.parse()
                            .map_err(|_| err(line, format!("bad port `{lo}`")))?,
                        hi.parse()
                            .map_err(|_| err(line, format!("bad port `{hi}`")))?,
                    ));
                }
                other => return Err(err(line, format!("unknown rule token `{other}`"))),
            }
            i += 1;
        }
        Ok(rule)
    }

    /// Number of compiled elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Pushes a packet into the named element and walks the static graph
    /// to completion (queues absorb; discard terminates).
    ///
    /// # Panics
    ///
    /// Panics on an unknown entry element (a config/test bug, not a
    /// run-time input).
    pub fn push(&self, entry: &str, pkt: Packet) {
        let idx = *self
            .by_name
            .get(entry)
            .unwrap_or_else(|| panic!("no element `{entry}`"));
        self.run(idx, pkt);
    }

    /// Pushes a burst of packets into the named element: the entry is
    /// resolved once and each packet then walks the static graph. This is
    /// the baseline's analogue of the component router's `push_batch`,
    /// keeping the ledger's per-burst comparison apples-to-apples.
    ///
    /// # Panics
    ///
    /// Panics on an unknown entry element.
    pub fn push_batch(&self, entry: &str, pkts: impl IntoIterator<Item = Packet>) {
        let idx = *self
            .by_name
            .get(entry)
            .unwrap_or_else(|| panic!("no element `{entry}`"));
        for pkt in pkts {
            self.run(idx, pkt);
        }
    }

    fn run(&self, mut idx: usize, mut pkt: Packet) {
        loop {
            let el = &self.elements[idx];
            match &el.kind {
                ElementKind::Counter { count } => {
                    *count.lock() += 1;
                    match el.first_out() {
                        Some(next) => idx = next,
                        None => return,
                    }
                }
                ElementKind::Discard { count } => {
                    *count.lock() += 1;
                    return;
                }
                ElementKind::Queue { cap, buf, drops } => {
                    let mut buf = buf.lock();
                    if buf.len() >= *cap {
                        *drops.lock() += 1;
                    } else {
                        buf.push_back(pkt);
                    }
                    return;
                }
                ElementKind::DecTtl { expired } => {
                    let alive = matches!(
                        Ipv4Header::decrement_ttl_in_place(pkt.l3_mut()),
                        Ok(ttl) if ttl > 0
                    );
                    if !alive {
                        *expired.lock() += 1;
                        return;
                    }
                    match el.first_out() {
                        Some(next) => idx = next,
                        None => return,
                    }
                }
                ElementKind::Classifier { rules } => {
                    let dscp = pkt.ipv4().map(|ip| ip.dscp).unwrap_or(0);
                    let Some(flow) = FlowKey::from_packet(&pkt) else {
                        return;
                    };
                    let Some(rule) = rules.iter().find(|r| r.matches(&flow, dscp)) else {
                        return; // unmatched: silently dropped (Click's default port absent)
                    };
                    match el.labelled_out(&rule.output) {
                        Some(next) => idx = next,
                        None => return,
                    }
                }
                ElementKind::Tee { n } => {
                    let copies = el.out.iter().take(*n);
                    let mut targets: Vec<usize> = copies.map(|(_, i)| *i).collect();
                    let Some(last) = targets.pop() else { return };
                    for t in targets {
                        self.run(t, pkt.clone());
                    }
                    idx = last;
                }
                ElementKind::ConnTracker {
                    capacity,
                    flows,
                    dropped,
                } => {
                    if let Some(key) = FlowKey::from_packet(&pkt) {
                        let mut flows = flows.lock();
                        let key = key.canonical();
                        if let Some(pkts) = flows.get_mut(&key) {
                            *pkts += 1;
                        } else if flows.len() < *capacity {
                            flows.insert(key, 1);
                        } else {
                            *dropped.lock() += 1;
                            return;
                        }
                    }
                    match el.first_out() {
                        Some(next) => idx = next,
                        None => return,
                    }
                }
                ElementKind::Guard {
                    byte_threshold,
                    meters,
                    dropped,
                } => {
                    if let Some(key) = FlowKey::from_packet(&pkt) {
                        let mut meters = meters.lock();
                        let bytes = meters.entry(key.canonical()).or_insert(0);
                        *bytes += pkt.data().len() as u64;
                        if *bytes > *byte_threshold {
                            *dropped.lock() += 1;
                            return;
                        }
                    }
                    match el.first_out() {
                        Some(next) => idx = next,
                        None => return,
                    }
                }
                ElementKind::Nat44 {
                    external_ip,
                    port_base,
                    pool,
                    bindings,
                    next,
                    dropped,
                } => {
                    // Port-less UDP/TCP is a fragment: passed through,
                    // like the component NAT does.
                    let translatable = FlowKey::from_packet(&pkt).filter(|k| {
                        matches!(k.dst, std::net::IpAddr::V4(d) if d != *external_ip)
                            && (k.protocol == proto::UDP || k.protocol == proto::TCP)
                            && (k.src_port, k.dst_port) != (0, 0)
                    });
                    if let Some(key) = translatable {
                        let mut bindings = bindings.lock();
                        let ext_port = match bindings.get(&key.canonical()) {
                            Some(&p) => p,
                            None => {
                                let mut cursor = next.lock();
                                if *cursor >= *pool {
                                    *dropped.lock() += 1;
                                    return;
                                }
                                let p = port_base + *cursor as u16;
                                *cursor += 1;
                                bindings.insert(key.canonical(), p);
                                p
                            }
                        };
                        rewrite_ipv4_endpoint(&mut pkt, RewriteSide::Src, *external_ip, ext_port);
                    }
                    match el.first_out() {
                        Some(next) => idx = next,
                        None => return,
                    }
                }
            }
        }
    }

    /// Pulls a packet from the named queue.
    pub fn pull(&self, queue: &str) -> Option<Packet> {
        let idx = self.by_name.get(queue)?;
        match &self.elements[*idx].kind {
            ElementKind::Queue { buf, .. } => buf.lock().pop_front(),
            _ => None,
        }
    }

    /// Packets counted by a `Counter` or `Discard` element.
    pub fn count(&self, name: &str) -> Option<u64> {
        let idx = self.by_name.get(name)?;
        match &self.elements[*idx].kind {
            ElementKind::Counter { count } => Some(*count.lock()),
            ElementKind::Discard { count } => Some(*count.lock()),
            _ => None,
        }
    }

    /// Current depth of a `Queue` element.
    pub fn queue_len(&self, name: &str) -> Option<usize> {
        let idx = self.by_name.get(name)?;
        match &self.elements[*idx].kind {
            ElementKind::Queue { buf, .. } => Some(buf.lock().len()),
            _ => None,
        }
    }

    /// Drops recorded by a `Queue` element.
    pub fn queue_drops(&self, name: &str) -> Option<u64> {
        let idx = self.by_name.get(name)?;
        match &self.elements[*idx].kind {
            ElementKind::Queue { drops, .. } => Some(*drops.lock()),
            _ => None,
        }
    }

    /// Packets dropped by a stateful element: table-full for
    /// `ConnTracker`, over-threshold for `Guard`, pool-exhausted for
    /// `Nat44`.
    pub fn stateful_drops(&self, name: &str) -> Option<u64> {
        let idx = self.by_name.get(name)?;
        match &self.elements[*idx].kind {
            ElementKind::ConnTracker { dropped, .. }
            | ElementKind::Guard { dropped, .. }
            | ElementKind::Nat44 { dropped, .. } => Some(*dropped.lock()),
            _ => None,
        }
    }

    /// Live flow count of a `ConnTracker` element.
    pub fn tracked_flows(&self, name: &str) -> Option<usize> {
        let idx = self.by_name.get(name)?;
        match &self.elements[*idx].kind {
            ElementKind::ConnTracker { flows, .. } => Some(flows.lock().len()),
            _ => None,
        }
    }

    /// External ports allocated by a `Nat44` element (never reclaimed —
    /// the baseline's defining limitation).
    pub fn nat_ports_in_use(&self, name: &str) -> Option<usize> {
        let idx = self.by_name.get(name)?;
        match &self.elements[*idx].kind {
            ElementKind::Nat44 { next, .. } => Some(*next.lock()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_packet::packet::PacketBuilder;

    fn udp(dport: u16) -> Packet {
        PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 4000, dport).build()
    }

    #[test]
    fn compile_and_run_a_diffserv_path() {
        let router = ClickRouter::compile(
            "in :: Counter;
             cls :: Classifier(udp 5000-5999 voice, any bulk);
             voice :: Queue(4); bulk :: Queue(4); sink :: Discard;
             in -> cls; cls [voice] -> voice; cls [bulk] -> bulk;",
        )
        .unwrap();
        router.push("in", udp(5500));
        router.push("in", udp(80));
        assert_eq!(router.count("in"), Some(2));
        assert_eq!(router.queue_len("voice"), Some(1));
        assert_eq!(router.queue_len("bulk"), Some(1));
        assert!(router.pull("voice").is_some());
        assert!(router.pull("voice").is_none());
    }

    #[test]
    fn chains_compile() {
        let router = ClickRouter::compile(
            "a :: Counter; b :: DecTtl; c :: Queue(8);
             a -> b -> c;",
        )
        .unwrap();
        router.push("a", udp(1));
        assert_eq!(router.queue_len("c"), Some(1));
    }

    #[test]
    fn stateful_edge_chain_translates_and_exhausts() {
        let router = ClickRouter::compile(
            "guard :: Guard(1000000);
             ct :: ConnTracker(64);
             nat :: Nat44(192.0.2.1, 40000, 2);
             sink :: Discard;
             guard -> ct -> nat -> sink;",
        )
        .unwrap();
        for dport in [81, 82, 83] {
            router.push("guard", udp(dport));
        }
        assert_eq!(router.tracked_flows("ct"), Some(3));
        assert_eq!(router.nat_ports_in_use("nat"), Some(2));
        assert_eq!(
            router.stateful_drops("nat"),
            Some(1),
            "pool of 2: third flow drops"
        );
        assert_eq!(router.count("sink"), Some(2));
    }

    #[test]
    fn guard_drops_heavy_flows() {
        let router = ClickRouter::compile("g :: Guard(100); sink :: Discard; g -> sink;").unwrap();
        for _ in 0..4 {
            router.push("g", udp(9)); // ~46-byte frames: the third crosses 100 bytes
        }
        assert!(router.stateful_drops("g").unwrap() >= 1);
        assert!(router.count("sink").unwrap() < 4);
    }

    #[test]
    fn queue_overflow_drops() {
        let router = ClickRouter::compile("q :: Queue(2);").unwrap();
        for _ in 0..3 {
            router.push("q", udp(1));
        }
        assert_eq!(router.queue_len("q"), Some(2));
        assert_eq!(router.queue_drops("q"), Some(1));
    }

    #[test]
    fn dec_ttl_drops_expired() {
        let router = ClickRouter::compile("t :: DecTtl; s :: Discard; t -> s;").unwrap();
        router.push(
            "t",
            PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2)
                .ttl(1)
                .build(),
        );
        router.push(
            "t",
            PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, 2)
                .ttl(64)
                .build(),
        );
        assert_eq!(router.count("s"), Some(1), "only the live packet survives");
    }

    #[test]
    fn tee_duplicates() {
        let router =
            ClickRouter::compile("t :: Tee(2); a :: Counter; b :: Counter; t -> a; t -> b;")
                .unwrap();
        router.push("t", udp(1));
        assert_eq!(router.count("a"), Some(1));
        assert_eq!(router.count("b"), Some(1));
    }

    #[test]
    fn dscp_and_dst_rules() {
        let router = ClickRouter::compile(
            "cls :: Classifier(dscp 46 ef, dst 10.1.0.0/16 net, any rest);
             ef :: Counter; net :: Counter; rest :: Discard;
             cls [ef] -> ef; cls [net] -> net; cls [rest] -> rest;",
        )
        .unwrap();
        router.push(
            "cls",
            PacketBuilder::udp_v4("10.0.0.1", "10.2.0.2", 1, 2)
                .dscp(46)
                .build(),
        );
        router.push(
            "cls",
            PacketBuilder::udp_v4("10.0.0.1", "10.1.9.9", 1, 2).build(),
        );
        router.push(
            "cls",
            PacketBuilder::udp_v4("10.0.0.1", "10.2.0.2", 1, 2).build(),
        );
        assert_eq!(router.count("ef"), Some(1));
        assert_eq!(router.count("net"), Some(1));
        assert_eq!(router.count("rest"), Some(1));
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let router = ClickRouter::compile(
            "// a comment line
             a :: Counter; // trailing comment
             b :: Discard;
             a -> b;",
        )
        .unwrap();
        assert_eq!(router.element_count(), 2);
    }

    #[test]
    fn error_unknown_class() {
        let e = ClickRouter::compile("x :: Wombat;").unwrap_err();
        assert!(e.message.contains("unknown element class"));
        assert_eq!(e.line, 1);
    }

    #[test]
    fn error_duplicate_and_unknown_references() {
        let e = ClickRouter::compile("a :: Counter; a :: Counter;").unwrap_err();
        assert!(e.message.contains("duplicate"));
        let e = ClickRouter::compile("a :: Counter; a -> ghost;").unwrap_err();
        assert!(e.message.contains("unknown element `ghost`"));
    }

    #[test]
    fn error_bad_args() {
        assert!(ClickRouter::compile("q :: Queue(zero);").is_err());
        assert!(ClickRouter::compile("q :: Queue(0);").is_err());
        assert!(ClickRouter::compile("c :: Classifier();").is_err());
        assert!(
            ClickRouter::compile("c :: Classifier(dscp x out); o :: Discard; c [out] -> o;")
                .is_err()
        );
    }

    #[test]
    fn error_dangling_classifier_output() {
        let e =
            ClickRouter::compile("cls :: Classifier(udp a, any b); qa :: Queue(1); cls [a] -> qa;")
                .unwrap_err();
        assert!(e.message.contains("output `b` is not connected"), "{e}");
    }

    #[test]
    fn error_unknown_classifier_output_in_connection() {
        let e = ClickRouter::compile("cls :: Classifier(any a); q :: Queue(1); cls [nope] -> q;")
            .unwrap_err();
        assert!(e.message.contains("no output `nope`"), "{e}");
    }

    #[test]
    fn no_reconfiguration_after_compile() {
        // The API simply offers no mutation: this test documents the
        // intended limitation by exercising the full public surface.
        let router = ClickRouter::compile("a :: Counter;").unwrap();
        assert_eq!(router.element_count(), 1);
        assert!(router.by_name.contains_key("a"));
        assert!(!router.by_name.contains_key("b"));
    }
}
