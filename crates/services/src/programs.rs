//! Assembled capsule programs: the application-level workloads the
//! paper's stratum 3 motivates (per-flow, application-specific packet
//! processing).
//!
//! The [`Assembler`] provides labels and jump fix-ups over
//! [`OpCode`]; the canned programs are the classic
//! active-networking demos: **active ping** (capsule bounces at the
//! destination), **path collector** (traceroute-in-one-packet), and a
//! **multicast duplicator** (one capsule fans out to many receivers).
//!
//! Convention used by every program here: a node's
//! [`NodeInfo::node_id`](crate::ee::NodeInfo::node_id) is the `u32` form
//! of its IPv4 address, so capsules can compare "where am I" against
//! address arguments.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use crate::ee::{EeError, OpCode, Program};

/// A two-pass assembler with named labels.
///
/// ```
/// use netkit_services::ee::OpCode;
/// use netkit_services::programs::Assembler;
///
/// let mut asm = Assembler::new("skip");
/// asm.op(OpCode::Push(1));
/// asm.jnz("end");
/// asm.op(OpCode::Push(99)); // skipped
/// asm.label("end");
/// asm.op(OpCode::Halt);
/// let program = asm.assemble()?;
/// assert_eq!(program.code().len(), 4);
/// # Ok::<(), netkit_services::ee::EeError>(())
/// ```
#[derive(Debug)]
pub struct Assembler {
    name: String,
    code: Vec<OpCode>,
    labels: HashMap<String, u32>,
    fixups: Vec<(usize, String, FixupKind)>,
}

#[derive(Debug, Clone, Copy)]
enum FixupKind {
    Jmp,
    Jz,
    Jnz,
}

impl Assembler {
    /// Starts a program named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            code: Vec::new(),
            labels: HashMap::new(),
            fixups: Vec::new(),
        }
    }

    /// Appends a literal instruction.
    pub fn op(&mut self, op: OpCode) -> &mut Self {
        self.code.push(op);
        self
    }

    /// Appends several literal instructions.
    pub fn ops(&mut self, ops: &[OpCode]) -> &mut Self {
        self.code.extend_from_slice(ops);
        self
    }

    /// Defines `label` at the current position.
    ///
    /// # Panics
    ///
    /// Panics on duplicate labels (an assembly bug, not an input error).
    pub fn label(&mut self, label: impl Into<String>) -> &mut Self {
        let label = label.into();
        let prev = self.labels.insert(label.clone(), self.code.len() as u32);
        assert!(prev.is_none(), "duplicate label `{label}`");
        self
    }

    /// Appends an unconditional jump to `label`.
    pub fn jmp(&mut self, label: impl Into<String>) -> &mut Self {
        self.fixups
            .push((self.code.len(), label.into(), FixupKind::Jmp));
        self.code.push(OpCode::Jmp(u32::MAX));
        self
    }

    /// Appends a jump-if-zero to `label`.
    pub fn jz(&mut self, label: impl Into<String>) -> &mut Self {
        self.fixups
            .push((self.code.len(), label.into(), FixupKind::Jz));
        self.code.push(OpCode::Jz(u32::MAX));
        self
    }

    /// Appends a jump-if-non-zero to `label`.
    pub fn jnz(&mut self, label: impl Into<String>) -> &mut Self {
        self.fixups
            .push((self.code.len(), label.into(), FixupKind::Jnz));
        self.code.push(OpCode::Jnz(u32::MAX));
        self
    }

    /// Resolves labels and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`EeError::BadJump`] if a jump references an undefined
    /// label.
    pub fn assemble(&self) -> Result<Program, EeError> {
        let mut code = self.code.clone();
        for (at, label, kind) in &self.fixups {
            let Some(&target) = self.labels.get(label) else {
                return Err(EeError::BadJump { target: *at as u32 });
            };
            code[*at] = match kind {
                FixupKind::Jmp => OpCode::Jmp(target),
                FixupKind::Jz => OpCode::Jz(target),
                FixupKind::Jnz => OpCode::Jnz(target),
            };
        }
        Ok(Program::new(self.name.clone(), code))
    }
}

/// Argument layout of [`active_ping`] capsules.
mod ping_args {
    /// Destination address (u32).
    pub(super) const DST: u8 = 0;
    /// Origin address (u32).
    pub(super) const ORIGIN: u8 = 1;
    /// 0 = outbound, 1 = returning.
    pub(super) const PHASE: u8 = 2;
    /// Departure timestamp (stamped by the origin's EE clock).
    pub(super) const SENT_AT: u8 = 3;
}

/// **Active ping**: the capsule travels to `DST`, flips its phase, comes
/// back to `ORIGIN`, appends the measured round-trip (now − `SENT_AT`),
/// and delivers locally. Its arguments are `[DST, ORIGIN, PHASE,
/// SENT_AT]`, as [`ping_capsule_args`] lays them out.
pub fn active_ping() -> Program {
    let mut asm = Assembler::new("active-ping");
    // if phase != 0 goto returning
    asm.op(OpCode::PushArg(ping_args::PHASE));
    asm.jnz("returning");
    // outbound: at destination?
    asm.op(OpCode::PushNodeId);
    asm.op(OpCode::PushArg(ping_args::DST));
    asm.op(OpCode::Eq);
    asm.jnz("bounce");
    // keep going towards DST
    asm.op(OpCode::PushArg(ping_args::DST));
    asm.op(OpCode::Forward);
    asm.op(OpCode::Halt);
    // bounce: phase <- 1, forward home
    asm.label("bounce");
    asm.op(OpCode::Push(1));
    asm.op(OpCode::SetArg(ping_args::PHASE));
    asm.op(OpCode::PushArg(ping_args::ORIGIN));
    asm.op(OpCode::Forward);
    asm.op(OpCode::Halt);
    // returning: home yet?
    asm.label("returning");
    asm.op(OpCode::PushNodeId);
    asm.op(OpCode::PushArg(ping_args::ORIGIN));
    asm.op(OpCode::Eq);
    asm.jnz("arrived");
    asm.op(OpCode::PushArg(ping_args::ORIGIN));
    asm.op(OpCode::Forward);
    asm.op(OpCode::Halt);
    // arrived: rtt = now - sent_at
    asm.label("arrived");
    asm.op(OpCode::PushNow);
    asm.op(OpCode::PushArg(ping_args::SENT_AT));
    asm.op(OpCode::Sub);
    asm.op(OpCode::AppendArg);
    asm.op(OpCode::DeliverLocal);
    asm.assemble().expect("static program assembles")
}

/// Builds the initial argument vector for [`active_ping`].
pub fn ping_capsule_args(dst: Ipv4Addr, origin: Ipv4Addr, sent_at_ns: u64) -> Vec<i64> {
    vec![
        u32::from(dst) as i64,
        u32::from(origin) as i64,
        0,
        sent_at_ns as i64,
    ]
}

/// Argument layout of [`path_collector`] capsules.
mod path_args {
    /// Destination address (u32); node ids are appended after it.
    pub(super) const DST: u8 = 0;
}

/// **Path collector**: every node appends its id; the capsule delivers
/// the accumulated path at the destination (a one-packet traceroute).
/// Its one argument is the destination address (u32); the path's node
/// ids follow it from index 1.
pub fn path_collector() -> Program {
    let mut asm = Assembler::new("path-collector");
    asm.op(OpCode::PushNodeId);
    asm.op(OpCode::AppendArg);
    asm.op(OpCode::PushNodeId);
    asm.op(OpCode::PushArg(path_args::DST));
    asm.op(OpCode::Eq);
    asm.jnz("deliver");
    asm.op(OpCode::PushArg(path_args::DST));
    asm.op(OpCode::Forward);
    asm.op(OpCode::Halt);
    asm.label("deliver");
    asm.op(OpCode::DeliverLocal);
    asm.assemble().expect("static program assembles")
}

/// Argument layout of [`multicast_duplicator`] capsules.
mod mcast_args {
    /// 0 at the fan-out point, 1 in per-receiver copies.
    pub(super) const PHASE: u8 = 0;
    /// In phase 1, the copy's own destination. In phase 0, receiver
    /// addresses run from this index onwards.
    pub(super) const TARGET: u8 = 1;
}

/// **Multicast duplicator**: at the injection node the capsule clones
/// itself once per receiver address in its argument list; each clone then
/// forwards hop-by-hop to its own receiver and delivers there.
///
/// This is the paper's "duplicating relay" scenario: the fan-out point
/// runs *in the network*, not at the sender.
pub fn multicast_duplicator() -> Program {
    let mut asm = Assembler::new("mcast-duplicator");
    asm.op(OpCode::PushArg(mcast_args::PHASE));
    asm.jnz("unicast");
    // Fan-out: loop over receivers (args[1..]).
    // local0 = index
    asm.op(OpCode::Push(1));
    asm.op(OpCode::Store(0));
    asm.label("loop");
    asm.op(OpCode::Load(0));
    asm.op(OpCode::ArgCount);
    asm.op(OpCode::Lt);
    asm.jz("done");
    // Rewrite args into the per-receiver shape *for the clone*:
    // phase=1, target = args[local0]. We set TARGET before Forward so the
    // clone carries it; then restore phase for the next iteration.
    asm.op(OpCode::Push(1));
    asm.op(OpCode::SetArg(mcast_args::PHASE));
    // fetch receiver address args[i] via a small indexed-read loop is not
    // supported; instead receivers are read positionally below.
    asm.op(OpCode::Load(0));
    asm.op(OpCode::Push(1));
    asm.op(OpCode::Eq);
    asm.jz("second");
    asm.op(OpCode::PushArg(1));
    asm.jmp("emit");
    asm.label("second");
    asm.op(OpCode::Load(0));
    asm.op(OpCode::Push(2));
    asm.op(OpCode::Eq);
    asm.jz("third");
    asm.op(OpCode::PushArg(2));
    asm.jmp("emit");
    asm.label("third");
    asm.op(OpCode::PushArg(3));
    asm.label("emit");
    asm.op(OpCode::Dup);
    asm.op(OpCode::SetArg(mcast_args::TARGET));
    asm.op(OpCode::Forward);
    // restore phase 0 and advance
    asm.op(OpCode::Push(0));
    asm.op(OpCode::SetArg(mcast_args::PHASE));
    asm.op(OpCode::Load(0));
    asm.op(OpCode::Push(1));
    asm.op(OpCode::Add);
    asm.op(OpCode::Store(0));
    asm.jmp("loop");
    asm.label("done");
    asm.op(OpCode::Halt);
    // Unicast phase: forward to TARGET, deliver on arrival.
    asm.label("unicast");
    asm.op(OpCode::PushNodeId);
    asm.op(OpCode::PushArg(mcast_args::TARGET));
    asm.op(OpCode::Eq);
    asm.jnz("arrived");
    asm.op(OpCode::PushArg(mcast_args::TARGET));
    asm.op(OpCode::Forward);
    asm.op(OpCode::Halt);
    asm.label("arrived");
    asm.op(OpCode::DeliverLocal);
    asm.assemble().expect("static program assembles")
}

/// Builds phase-0 arguments for [`multicast_duplicator`] (1–3 receivers).
///
/// # Panics
///
/// Panics if `receivers` is empty or has more than 3 entries (the
/// positional fan-out above unrolls at most three).
pub fn mcast_capsule_args(receivers: &[Ipv4Addr]) -> Vec<i64> {
    assert!(
        (1..=3).contains(&receivers.len()),
        "the unrolled duplicator supports 1–3 receivers"
    );
    let mut args = vec![0i64];
    args.extend(receivers.iter().map(|r| u32::from(*r) as i64));
    args
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ee::{Capsule, EeBudget, EmitTarget, ExecutionEnv, NodeInfo, Outcome};

    /// A line of nodes addressed 10.0.0.1 … 10.0.0.n; capsules emitted
    /// towards an address hop one node closer per execution.
    struct LineNet {
        n: u8,
        envs: Vec<ExecutionEnv>,
    }

    struct LineNode {
        addr: Ipv4Addr,
    }
    impl NodeInfo for LineNode {
        fn node_id(&self) -> u32 {
            u32::from(self.addr)
        }
        fn now_ns(&self) -> u64 {
            5_000
        }
        fn route_lookup(&self, _dst: Ipv4Addr) -> Option<u16> {
            Some(0)
        }
    }

    impl LineNet {
        fn new(n: u8) -> Self {
            Self {
                n,
                envs: (0..n)
                    .map(|_| ExecutionEnv::new(EeBudget::default()))
                    .collect(),
            }
        }

        fn addr(i: u8) -> Ipv4Addr {
            Ipv4Addr::new(10, 0, 0, i + 1)
        }

        fn index_of(addr: Ipv4Addr) -> u8 {
            addr.octets()[3] - 1
        }

        /// Runs a capsule injected at node `at`; returns deliveries as
        /// `(node index, final args)`.
        fn run(&self, at: u8, payload: Vec<u8>) -> Vec<(u8, Vec<i64>)> {
            let mut work = vec![(at, payload)];
            let mut delivered = Vec::new();
            let mut steps = 0;
            while let Some((here, payload)) = work.pop() {
                steps += 1;
                assert!(steps < 1000, "network walk did not converge");
                let node = LineNode {
                    addr: Self::addr(here),
                };
                let out: Outcome = self.envs[here as usize]
                    .execute(&payload, &node)
                    .unwrap_or_else(|e| panic!("node {here}: {e}"));
                if out.delivered {
                    delivered.push((here, out.args.clone()));
                }
                for (target, bytes) in out.emitted {
                    let EmitTarget::Dst(dst) = target else {
                        panic!("line net only routes by address")
                    };
                    let want = Self::index_of(dst);
                    assert!(want < self.n, "destination outside the line");
                    let next = match want.cmp(&here) {
                        std::cmp::Ordering::Greater => here + 1,
                        std::cmp::Ordering::Less => here - 1,
                        std::cmp::Ordering::Equal => here,
                    };
                    work.push((next, bytes));
                }
            }
            delivered.sort();
            delivered
        }

        /// Pre-loads `program` everywhere (out-of-band distribution).
        fn install_everywhere(&self, program: &Program) {
            for env in &self.envs {
                env.install(program.clone());
            }
        }
    }

    #[test]
    fn assembler_resolves_labels() {
        let mut asm = Assembler::new("t");
        asm.op(OpCode::Push(0));
        asm.jz("end");
        asm.op(OpCode::Push(42));
        asm.op(OpCode::AppendArg);
        asm.label("end");
        asm.op(OpCode::Halt);
        let p = asm.assemble().unwrap();
        assert_eq!(p.code()[1], OpCode::Jz(4));
    }

    #[test]
    fn assembler_rejects_unknown_labels() {
        let mut asm = Assembler::new("t");
        asm.jmp("nowhere");
        assert!(matches!(asm.assemble(), Err(EeError::BadJump { .. })));
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn assembler_rejects_duplicate_labels() {
        let mut asm = Assembler::new("t");
        asm.label("a");
        asm.label("a");
    }

    #[test]
    fn active_ping_round_trips_a_line() {
        let net = LineNet::new(4);
        let program = active_ping();
        net.install_everywhere(&program);
        let origin = LineNet::addr(0);
        let dst = LineNet::addr(3);
        let capsule = Capsule::by_hash(program.hash(), ping_capsule_args(dst, origin, 1_000));
        let delivered = net.run(0, capsule.encode());
        assert_eq!(delivered.len(), 1);
        let (node, args) = &delivered[0];
        assert_eq!(*node, 0, "ping returns to its origin");
        assert_eq!(args[ping_args::PHASE as usize], 1);
        // rtt appended: now (5000) - sent (1000)
        assert_eq!(*args.last().unwrap(), 4_000);
    }

    #[test]
    fn path_collector_records_every_hop() {
        let net = LineNet::new(5);
        let program = path_collector();
        net.install_everywhere(&program);
        let dst = LineNet::addr(4);
        let capsule = Capsule::by_hash(program.hash(), vec![u32::from(dst) as i64]);
        let delivered = net.run(0, capsule.encode());
        assert_eq!(delivered.len(), 1);
        let (_, args) = &delivered[0];
        let hops: Vec<u32> = args[1..].iter().map(|a| *a as u32).collect();
        let expected: Vec<u32> = (0..5).map(|i| u32::from(LineNet::addr(i))).collect();
        assert_eq!(
            hops, expected,
            "all five nodes stamped the capsule in order"
        );
    }

    #[test]
    fn multicast_duplicates_to_each_receiver() {
        let net = LineNet::new(6);
        let program = multicast_duplicator();
        net.install_everywhere(&program);
        let receivers = [LineNet::addr(2), LineNet::addr(4), LineNet::addr(5)];
        let capsule = Capsule::by_hash(program.hash(), mcast_capsule_args(&receivers));
        let delivered = net.run(0, capsule.encode());
        let mut nodes: Vec<u8> = delivered.iter().map(|(n, _)| *n).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, [2, 4, 5]);
        for (node, args) in &delivered {
            assert_eq!(args[mcast_args::PHASE as usize], 1);
            assert_eq!(
                args[mcast_args::TARGET as usize] as u32,
                u32::from(LineNet::addr(*node))
            );
        }
    }

    #[test]
    fn programs_fit_default_budget() {
        // The walk above already proves termination; sanity-check sizes.
        assert!(active_ping().code().len() < 40);
        assert!(path_collector().code().len() < 20);
        assert!(multicast_duplicator().code().len() < 60);
    }
}
