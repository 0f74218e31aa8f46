//! The active-networking **execution environment** (EE).
//!
//! Paper §3, stratum 3: "coarser-grained 'programs' — in the active
//! networking execution-environment sense \[ANTS,02\] — that are less
//! performance critical and act on pre-selected packet flows in
//! application-specific ways … Here, security is typically more of a
//! concern than raw performance."
//!
//! The ANTS toolkit itself is Java and long obsolete; per DESIGN.md §2 we
//! substitute a small **stack bytecode VM** with the properties that made
//! ANTS interesting as a stratum-3 workload:
//!
//! * **capsules** — packets carry (a hash of) their own forwarding
//!   program; code travels once and is then served from a per-node
//!   **code cache**;
//! * **sandboxing by construction** — programs can only touch the VM
//!   stack, their own capsule arguments, and the node API below;
//! * **budgets** — instruction and stack ceilings enforce termination
//!   (the security-over-performance trade of stratum 3);
//! * **node API** — route lookup, a TTL'd **soft-state cache**, node
//!   identity, virtual time, packet emission.

use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

use parking_lot::Mutex;

use netkit_packet::packet::Packet;

/// Magic number prefixing every active-packet payload.
const ACTIVE_MAGIC: u32 = 0x4e45_544b; // "NETK"

/// One VM instruction.
///
/// The operand stack holds `i64`s; addresses are encoded as the `u32`
/// value of the IPv4 address. Control flow is absolute (`Jmp`) or
/// conditional on the popped top-of-stack (`Jz`/`Jnz`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum OpCode {
    /// Push an immediate.
    Push(i64),
    /// Discard the top of stack.
    Pop,
    /// Duplicate the top of stack.
    Dup,
    /// Swap the top two entries.
    Swap,
    /// Pop `b`, `a`; push `a + b`.
    Add,
    /// Pop `b`, `a`; push `a - b`.
    Sub,
    /// Pop `b`, `a`; push `a * b`.
    Mul,
    /// Pop `b`, `a`; push `a / b`. Errors on division by zero.
    Div,
    /// Pop `b`, `a`; push `1` if `a == b` else `0`.
    Eq,
    /// Pop `b`, `a`; push `1` if `a < b` else `0`.
    Lt,
    /// Jump to an absolute instruction index.
    Jmp(u32),
    /// Pop; jump if zero.
    Jz(u32),
    /// Pop; jump if non-zero.
    Jnz(u32),
    /// Load local slot `i` (16 slots, zero-initialised).
    Load(u8),
    /// Pop into local slot `i`.
    Store(u8),
    /// Push capsule argument `i` (errors if absent).
    PushArg(u8),
    /// Pop into capsule argument `i`, extending the argument vector.
    SetArg(u8),
    /// Push the number of capsule arguments.
    ArgCount,
    /// Append the popped value to the capsule argument vector.
    AppendArg,
    /// Push this node's id.
    PushNodeId,
    /// Push the current virtual time in nanoseconds.
    PushNow,
    /// Pop an address; push the egress port for it, or `-1` if no route.
    RouteLookup,
    /// Pop `ttl_ns`, `value`, `key`: store in the node's soft-state cache.
    CachePut,
    /// Pop `key`: push the cached value and `1`, or `0` and `0` on miss.
    CacheGet,
    /// Pop a destination address; re-emit this capsule towards it.
    Forward,
    /// Pop a port number; re-emit this capsule on that port.
    ForwardPort,
    /// Deliver the capsule to the local node (end of the road).
    DeliverLocal,
    /// Stop without emitting anything.
    Halt,
}

impl OpCode {
    fn encode(&self, out: &mut Vec<u8>) {
        let (tag, operand): (u8, i64) = match *self {
            OpCode::Push(v) => (0, v),
            OpCode::Pop => (1, 0),
            OpCode::Dup => (2, 0),
            OpCode::Swap => (3, 0),
            OpCode::Add => (4, 0),
            OpCode::Sub => (5, 0),
            OpCode::Mul => (6, 0),
            OpCode::Div => (7, 0),
            OpCode::Eq => (8, 0),
            OpCode::Lt => (9, 0),
            OpCode::Jmp(t) => (10, t as i64),
            OpCode::Jz(t) => (11, t as i64),
            OpCode::Jnz(t) => (12, t as i64),
            OpCode::Load(i) => (13, i as i64),
            OpCode::Store(i) => (14, i as i64),
            OpCode::PushArg(i) => (15, i as i64),
            OpCode::SetArg(i) => (16, i as i64),
            OpCode::ArgCount => (17, 0),
            OpCode::AppendArg => (18, 0),
            OpCode::PushNodeId => (19, 0),
            OpCode::PushNow => (20, 0),
            OpCode::RouteLookup => (21, 0),
            OpCode::CachePut => (22, 0),
            OpCode::CacheGet => (23, 0),
            OpCode::Forward => (24, 0),
            OpCode::ForwardPort => (25, 0),
            OpCode::DeliverLocal => (26, 0),
            OpCode::Halt => (27, 0),
        };
        out.push(tag);
        out.extend_from_slice(&operand.to_be_bytes());
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<OpCode> {
        if buf.len() < *pos + 9 {
            return None;
        }
        let tag = buf[*pos];
        let operand = i64::from_be_bytes(buf[*pos + 1..*pos + 9].try_into().ok()?);
        *pos += 9;
        Some(match tag {
            0 => OpCode::Push(operand),
            1 => OpCode::Pop,
            2 => OpCode::Dup,
            3 => OpCode::Swap,
            4 => OpCode::Add,
            5 => OpCode::Sub,
            6 => OpCode::Mul,
            7 => OpCode::Div,
            8 => OpCode::Eq,
            9 => OpCode::Lt,
            10 => OpCode::Jmp(operand as u32),
            11 => OpCode::Jz(operand as u32),
            12 => OpCode::Jnz(operand as u32),
            13 => OpCode::Load(operand as u8),
            14 => OpCode::Store(operand as u8),
            15 => OpCode::PushArg(operand as u8),
            16 => OpCode::SetArg(operand as u8),
            17 => OpCode::ArgCount,
            18 => OpCode::AppendArg,
            19 => OpCode::PushNodeId,
            20 => OpCode::PushNow,
            21 => OpCode::RouteLookup,
            22 => OpCode::CachePut,
            23 => OpCode::CacheGet,
            24 => OpCode::Forward,
            25 => OpCode::ForwardPort,
            26 => OpCode::DeliverLocal,
            27 => OpCode::Halt,
            _ => return None,
        })
    }
}

/// An immutable, named program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    name: String,
    code: Vec<OpCode>,
}

impl Program {
    /// Creates a program.
    ///
    /// # Panics
    ///
    /// Panics on empty code (a capsule must do *something*).
    pub fn new(name: impl Into<String>, code: Vec<OpCode>) -> Self {
        assert!(!code.is_empty(), "empty program");
        Self {
            name: name.into(),
            code,
        }
    }

    /// The program's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction sequence.
    pub fn code(&self) -> &[OpCode] {
        &self.code
    }

    /// A stable content hash (FNV-1a over the encoded form), used as the
    /// code-cache key.
    pub fn hash(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.code.len() * 9);
        for op in &self.code {
            op.encode(&mut bytes);
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn encode_code(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.code.len() * 9);
        for op in &self.code {
            op.encode(&mut out);
        }
        out
    }

    fn decode_code(buf: &[u8]) -> Option<Vec<OpCode>> {
        let mut pos = 0;
        let mut code = Vec::new();
        while pos < buf.len() {
            code.push(OpCode::decode(buf, &mut pos)?);
        }
        if code.is_empty() {
            None
        } else {
            Some(code)
        }
    }
}

/// Why a capsule execution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EeError {
    /// The instruction budget was exhausted (non-terminating program).
    BudgetExceeded {
        /// The configured ceiling.
        limit: u64,
    },
    /// A stack operation under- or over-flowed.
    StackFault {
        /// What happened.
        detail: &'static str,
    },
    /// Division by zero.
    DivideByZero,
    /// A jump target fell outside the program.
    BadJump {
        /// The offending target.
        target: u32,
    },
    /// A capsule argument index was out of range.
    BadArgument {
        /// The offending index.
        index: u8,
    },
    /// The payload did not parse as an active packet.
    NotActive,
    /// The capsule named a program hash this node has never seen, and
    /// carried no code.
    CodeMiss {
        /// The unknown hash.
        hash: u64,
    },
    /// The soft-state cache is full.
    CacheFull,
}

impl fmt::Display for EeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EeError::BudgetExceeded { limit } => {
                write!(f, "instruction budget of {limit} exceeded")
            }
            EeError::StackFault { detail } => write!(f, "stack fault: {detail}"),
            EeError::DivideByZero => write!(f, "division by zero"),
            EeError::BadJump { target } => write!(f, "jump target {target} out of range"),
            EeError::BadArgument { index } => write!(f, "capsule argument {index} absent"),
            EeError::NotActive => write!(f, "payload is not an active capsule"),
            EeError::CodeMiss { hash } => write!(f, "unknown program hash {hash:#018x}"),
            EeError::CacheFull => write!(f, "soft-state cache full"),
        }
    }
}

impl std::error::Error for EeError {}

/// Resource ceilings for one capsule execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EeBudget {
    /// Maximum instructions per execution.
    pub max_instructions: u64,
    /// Maximum operand-stack depth.
    pub max_stack: usize,
    /// Maximum entries in the node's soft-state cache.
    pub max_cache_entries: usize,
}

impl Default for EeBudget {
    fn default() -> Self {
        Self {
            max_instructions: 10_000,
            max_stack: 256,
            max_cache_entries: 4_096,
        }
    }
}

/// Read-only node facilities exposed to capsules.
pub trait NodeInfo {
    /// This node's identity (pushed by [`OpCode::PushNodeId`]).
    fn node_id(&self) -> u32;
    /// Virtual time in nanoseconds (pushed by [`OpCode::PushNow`]).
    fn now_ns(&self) -> u64;
    /// The egress port towards `dst`, if the node has a route.
    fn route_lookup(&self, dst: Ipv4Addr) -> Option<u16>;
}

/// Where an emitted capsule should go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EmitTarget {
    /// Towards an address (the hosting node routes it).
    Dst(Ipv4Addr),
    /// Out of a specific port.
    Port(u16),
}

/// Everything a capsule execution produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Re-emissions of the capsule (target, rebuilt payload).
    pub emitted: Vec<(EmitTarget, Vec<u8>)>,
    /// `true` if the capsule delivered itself locally.
    pub delivered: bool,
    /// Final capsule arguments (mutated state travels with the packet).
    pub args: Vec<i64>,
    /// Instructions actually executed.
    pub instructions: u64,
}

/// A capsule as decoded from (or encoded into) a packet payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Capsule {
    /// Hash naming the program.
    pub code_hash: u64,
    /// Mutable per-capsule state.
    pub args: Vec<i64>,
    /// The program itself, when the capsule carries its code.
    pub code: Option<Program>,
}

impl Capsule {
    /// Creates a capsule carrying its code (first packet of a flow).
    pub fn with_code(program: &Program, args: Vec<i64>) -> Self {
        Self {
            code_hash: program.hash(),
            args,
            code: Some(program.clone()),
        }
    }

    /// Creates a code-less capsule naming an already-distributed program.
    pub fn by_hash(code_hash: u64, args: Vec<i64>) -> Self {
        Self {
            code_hash,
            args,
            code: None,
        }
    }

    /// Serialises to a UDP payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&ACTIVE_MAGIC.to_be_bytes());
        out.extend_from_slice(&self.code_hash.to_be_bytes());
        out.extend_from_slice(&(self.args.len() as u16).to_be_bytes());
        for a in &self.args {
            out.extend_from_slice(&a.to_be_bytes());
        }
        match &self.code {
            Some(p) => {
                let bytes = p.encode_code();
                out.push(1);
                let name = p.name().as_bytes();
                out.extend_from_slice(&(name.len() as u16).to_be_bytes());
                out.extend_from_slice(name);
                out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
                out.extend_from_slice(&bytes);
            }
            None => out.push(0),
        }
        out
    }

    /// Parses a UDP payload.
    ///
    /// # Errors
    ///
    /// Returns [`EeError::NotActive`] on anything that is not a
    /// well-formed capsule.
    pub fn decode(payload: &[u8]) -> Result<Self, EeError> {
        let take = |buf: &[u8], pos: &mut usize, n: usize| -> Result<Vec<u8>, EeError> {
            if buf.len() < *pos + n {
                return Err(EeError::NotActive);
            }
            let out = buf[*pos..*pos + n].to_vec();
            *pos += n;
            Ok(out)
        };
        let mut pos = 0;
        let magic = u32::from_be_bytes(take(payload, &mut pos, 4)?.try_into().expect("4 bytes"));
        if magic != ACTIVE_MAGIC {
            return Err(EeError::NotActive);
        }
        let code_hash =
            u64::from_be_bytes(take(payload, &mut pos, 8)?.try_into().expect("8 bytes"));
        let n_args =
            u16::from_be_bytes(take(payload, &mut pos, 2)?.try_into().expect("2 bytes")) as usize;
        let mut args = Vec::with_capacity(n_args);
        for _ in 0..n_args {
            args.push(i64::from_be_bytes(
                take(payload, &mut pos, 8)?.try_into().expect("8 bytes"),
            ));
        }
        let has_code = take(payload, &mut pos, 1)?[0];
        let code = if has_code == 1 {
            let name_len =
                u16::from_be_bytes(take(payload, &mut pos, 2)?.try_into().expect("2 bytes"))
                    as usize;
            let name = String::from_utf8(take(payload, &mut pos, name_len)?)
                .map_err(|_| EeError::NotActive)?;
            let code_len =
                u32::from_be_bytes(take(payload, &mut pos, 4)?.try_into().expect("4 bytes"))
                    as usize;
            let bytes = take(payload, &mut pos, code_len)?;
            let ops = Program::decode_code(&bytes).ok_or(EeError::NotActive)?;
            Some(Program::new(name, ops))
        } else {
            None
        };
        Ok(Self {
            code_hash,
            args,
            code,
        })
    }
}

/// Statistics kept by an [`ExecutionEnv`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EeStats {
    /// Capsules executed to completion.
    pub executed: u64,
    /// Executions aborted by an [`EeError`].
    pub faulted: u64,
    /// Code-cache hits.
    pub code_hits: u64,
    /// Code-cache inserts (capsules that carried code).
    pub code_loads: u64,
    /// Total instructions retired.
    pub instructions: u64,
}

/// A per-node execution environment: code cache + soft-state cache +
/// interpreter.
pub struct ExecutionEnv {
    budget: EeBudget,
    code_cache: Mutex<HashMap<u64, Program>>,
    soft_state: Mutex<HashMap<i64, (i64, u64)>>,
    stats: Mutex<EeStats>,
}

impl ExecutionEnv {
    /// Creates an EE with the given budgets.
    pub fn new(budget: EeBudget) -> Self {
        Self {
            budget,
            code_cache: Mutex::new(HashMap::new()),
            soft_state: Mutex::new(HashMap::new()),
            stats: Mutex::new(EeStats::default()),
        }
    }

    /// The configured budgets.
    pub fn budget(&self) -> EeBudget {
        self.budget
    }

    /// Counters so far.
    pub fn stats(&self) -> EeStats {
        *self.stats.lock()
    }

    /// Number of programs in the code cache.
    pub fn cached_programs(&self) -> usize {
        self.code_cache.lock().len()
    }

    /// Pre-loads a program (out-of-band code distribution).
    pub fn install(&self, program: Program) {
        self.code_cache.lock().insert(program.hash(), program);
    }

    /// Drops soft-state entries that expired before `now_ns`.
    pub fn sweep_soft_state(&self, now_ns: u64) -> usize {
        let mut cache = self.soft_state.lock();
        let before = cache.len();
        cache.retain(|_, (_, expiry)| *expiry > now_ns);
        before - cache.len()
    }

    /// Executes the capsule in `payload` against this node.
    ///
    /// # Errors
    ///
    /// Any [`EeError`]; the capsule is dropped in that case (active
    /// networking's containment property: a faulty capsule hurts only
    /// itself).
    pub fn execute(&self, payload: &[u8], node: &dyn NodeInfo) -> Result<Outcome, EeError> {
        let capsule = Capsule::decode(payload)?;
        let program = {
            let mut cache = self.code_cache.lock();
            match capsule.code {
                Some(ref p) => {
                    let entry = cache.entry(capsule.code_hash).or_insert_with(|| p.clone());
                    self.stats.lock().code_loads += 1;
                    entry.clone()
                }
                None => match cache.get(&capsule.code_hash) {
                    Some(p) => {
                        self.stats.lock().code_hits += 1;
                        p.clone()
                    }
                    None => {
                        self.stats.lock().faulted += 1;
                        return Err(EeError::CodeMiss {
                            hash: capsule.code_hash,
                        });
                    }
                },
            }
        };
        match self.run(&program, capsule.args, node) {
            Ok(outcome) => {
                let mut stats = self.stats.lock();
                stats.executed += 1;
                stats.instructions += outcome.instructions;
                Ok(outcome)
            }
            Err(e) => {
                self.stats.lock().faulted += 1;
                Err(e)
            }
        }
    }

    fn run(
        &self,
        program: &Program,
        mut args: Vec<i64>,
        node: &dyn NodeInfo,
    ) -> Result<Outcome, EeError> {
        let code = program.code();
        let mut stack: Vec<i64> = Vec::with_capacity(16);
        let mut locals = [0i64; 16];
        let mut outcome = Outcome::default();
        let mut pc: usize = 0;

        let pop = |stack: &mut Vec<i64>| -> Result<i64, EeError> {
            stack.pop().ok_or(EeError::StackFault {
                detail: "underflow",
            })
        };

        loop {
            if outcome.instructions >= self.budget.max_instructions {
                return Err(EeError::BudgetExceeded {
                    limit: self.budget.max_instructions,
                });
            }
            let Some(op) = code.get(pc) else {
                break; // running off the end halts
            };
            outcome.instructions += 1;
            pc += 1;
            match *op {
                OpCode::Push(v) => {
                    if stack.len() >= self.budget.max_stack {
                        return Err(EeError::StackFault { detail: "overflow" });
                    }
                    stack.push(v);
                }
                OpCode::Pop => {
                    pop(&mut stack)?;
                }
                OpCode::Dup => {
                    let v = *stack.last().ok_or(EeError::StackFault {
                        detail: "underflow",
                    })?;
                    if stack.len() >= self.budget.max_stack {
                        return Err(EeError::StackFault { detail: "overflow" });
                    }
                    stack.push(v);
                }
                OpCode::Swap => {
                    let n = stack.len();
                    if n < 2 {
                        return Err(EeError::StackFault {
                            detail: "underflow",
                        });
                    }
                    stack.swap(n - 1, n - 2);
                }
                OpCode::Add => {
                    let b = pop(&mut stack)?;
                    let a = pop(&mut stack)?;
                    stack.push(a.wrapping_add(b));
                }
                OpCode::Sub => {
                    let b = pop(&mut stack)?;
                    let a = pop(&mut stack)?;
                    stack.push(a.wrapping_sub(b));
                }
                OpCode::Mul => {
                    let b = pop(&mut stack)?;
                    let a = pop(&mut stack)?;
                    stack.push(a.wrapping_mul(b));
                }
                OpCode::Div => {
                    let b = pop(&mut stack)?;
                    let a = pop(&mut stack)?;
                    if b == 0 {
                        return Err(EeError::DivideByZero);
                    }
                    stack.push(a.wrapping_div(b));
                }
                OpCode::Eq => {
                    let b = pop(&mut stack)?;
                    let a = pop(&mut stack)?;
                    stack.push(i64::from(a == b));
                }
                OpCode::Lt => {
                    let b = pop(&mut stack)?;
                    let a = pop(&mut stack)?;
                    stack.push(i64::from(a < b));
                }
                OpCode::Jmp(t) => {
                    if t as usize > code.len() {
                        return Err(EeError::BadJump { target: t });
                    }
                    pc = t as usize;
                }
                OpCode::Jz(t) => {
                    if t as usize > code.len() {
                        return Err(EeError::BadJump { target: t });
                    }
                    if pop(&mut stack)? == 0 {
                        pc = t as usize;
                    }
                }
                OpCode::Jnz(t) => {
                    if t as usize > code.len() {
                        return Err(EeError::BadJump { target: t });
                    }
                    if pop(&mut stack)? != 0 {
                        pc = t as usize;
                    }
                }
                OpCode::Load(i) => {
                    let slot = locals.get(i as usize).ok_or(EeError::StackFault {
                        detail: "bad local slot",
                    })?;
                    stack.push(*slot);
                }
                OpCode::Store(i) => {
                    let v = pop(&mut stack)?;
                    let slot = locals.get_mut(i as usize).ok_or(EeError::StackFault {
                        detail: "bad local slot",
                    })?;
                    *slot = v;
                }
                OpCode::PushArg(i) => {
                    let v = args
                        .get(i as usize)
                        .ok_or(EeError::BadArgument { index: i })?;
                    stack.push(*v);
                }
                OpCode::SetArg(i) => {
                    let v = pop(&mut stack)?;
                    let idx = i as usize;
                    if idx >= args.len() {
                        args.resize(idx + 1, 0);
                    }
                    args[idx] = v;
                }
                OpCode::ArgCount => stack.push(args.len() as i64),
                OpCode::AppendArg => {
                    let v = pop(&mut stack)?;
                    args.push(v);
                }
                OpCode::PushNodeId => stack.push(node.node_id() as i64),
                OpCode::PushNow => stack.push(node.now_ns() as i64),
                OpCode::RouteLookup => {
                    let addr = pop(&mut stack)?;
                    let dst = Ipv4Addr::from(addr as u32);
                    stack.push(node.route_lookup(dst).map(|p| p as i64).unwrap_or(-1));
                }
                OpCode::CachePut => {
                    let ttl = pop(&mut stack)?;
                    let value = pop(&mut stack)?;
                    let key = pop(&mut stack)?;
                    let mut cache = self.soft_state.lock();
                    if cache.len() >= self.budget.max_cache_entries && !cache.contains_key(&key) {
                        return Err(EeError::CacheFull);
                    }
                    cache.insert(
                        key,
                        (value, node.now_ns().saturating_add(ttl.max(0) as u64)),
                    );
                }
                OpCode::CacheGet => {
                    let key = pop(&mut stack)?;
                    let cache = self.soft_state.lock();
                    match cache.get(&key) {
                        Some((value, expiry)) if *expiry > node.now_ns() => {
                            stack.push(*value);
                            stack.push(1);
                        }
                        _ => {
                            stack.push(0);
                            stack.push(0);
                        }
                    }
                }
                OpCode::Forward => {
                    let addr = pop(&mut stack)?;
                    let capsule = Capsule::by_hash(program.hash(), args.clone());
                    outcome.emitted.push((
                        EmitTarget::Dst(Ipv4Addr::from(addr as u32)),
                        capsule.encode(),
                    ));
                }
                OpCode::ForwardPort => {
                    let port = pop(&mut stack)?;
                    if !(0..=u16::MAX as i64).contains(&port) {
                        return Err(EeError::StackFault {
                            detail: "port out of range",
                        });
                    }
                    let capsule = Capsule::by_hash(program.hash(), args.clone());
                    outcome
                        .emitted
                        .push((EmitTarget::Port(port as u16), capsule.encode()));
                }
                OpCode::DeliverLocal => {
                    outcome.delivered = true;
                }
                OpCode::Halt => break,
            }
        }
        outcome.args = args;
        Ok(outcome)
    }
}

impl fmt::Debug for ExecutionEnv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ExecutionEnv({} cached programs, {} soft-state entries)",
            self.code_cache.lock().len(),
            self.soft_state.lock().len()
        )
    }
}

/// Extracts the active capsule payload from a UDP packet, if any.
pub fn capsule_payload(pkt: &Packet) -> Option<&[u8]> {
    let payload = pkt.udp_payload_v4().ok()?;
    if payload.len() >= 4 && payload[..4] == ACTIVE_MAGIC.to_be_bytes() {
        Some(payload)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeNode {
        id: u32,
        now: u64,
    }
    impl NodeInfo for FakeNode {
        fn node_id(&self) -> u32 {
            self.id
        }
        fn now_ns(&self) -> u64 {
            self.now
        }
        fn route_lookup(&self, dst: Ipv4Addr) -> Option<u16> {
            (dst.octets()[3] == 9).then_some(3)
        }
    }

    fn ee() -> ExecutionEnv {
        ExecutionEnv::new(EeBudget::default())
    }

    fn node() -> FakeNode {
        FakeNode { id: 7, now: 1_000 }
    }

    fn run_ops(ops: Vec<OpCode>, args: Vec<i64>) -> Result<Outcome, EeError> {
        let env = ee();
        let program = Program::new("t", ops);
        let capsule = Capsule::with_code(&program, args);
        env.execute(&capsule.encode(), &node())
    }

    #[test]
    fn arithmetic_and_halt() {
        let out = run_ops(
            vec![
                OpCode::Push(6),
                OpCode::Push(7),
                OpCode::Mul,
                OpCode::AppendArg,
                OpCode::Halt,
            ],
            vec![],
        )
        .unwrap();
        assert_eq!(out.args, [42]);
        assert_eq!(out.instructions, 5);
    }

    #[test]
    fn division_by_zero_faults() {
        let err = run_ops(vec![OpCode::Push(1), OpCode::Push(0), OpCode::Div], vec![]).unwrap_err();
        assert_eq!(err, EeError::DivideByZero);
    }

    #[test]
    fn budget_stops_infinite_loop() {
        let err = run_ops(vec![OpCode::Jmp(0)], vec![]).unwrap_err();
        assert!(matches!(err, EeError::BudgetExceeded { .. }));
    }

    #[test]
    fn stack_depth_is_bounded() {
        let env = ExecutionEnv::new(EeBudget {
            max_stack: 4,
            ..EeBudget::default()
        });
        let program = Program::new(
            "deep",
            vec![
                OpCode::Push(1),
                OpCode::Push(1),
                OpCode::Push(1),
                OpCode::Push(1),
                OpCode::Push(1),
            ],
        );
        let capsule = Capsule::with_code(&program, vec![]);
        let err = env.execute(&capsule.encode(), &node()).unwrap_err();
        assert!(matches!(err, EeError::StackFault { detail: "overflow" }));
    }

    #[test]
    fn loops_and_conditionals_work() {
        // Sum 1..=5 using a loop: local0 = counter, local1 = acc.
        let ops = vec![
            OpCode::Push(5),
            OpCode::Store(0),
            // loop:
            OpCode::Load(0), // 2
            OpCode::Jz(12),  // exit when counter == 0
            OpCode::Load(1),
            OpCode::Load(0),
            OpCode::Add,
            OpCode::Store(1),
            OpCode::Load(0),
            OpCode::Push(1),
            OpCode::Sub,
            OpCode::Store(0),
            OpCode::Jmp(2), // 11 -> loop  (index 11 jumps to 2)
        ];
        // Fix: Jz target should skip past the Jmp; re-assemble carefully.
        let ops = {
            let mut v = ops;
            v[3] = OpCode::Jz(13);
            v.push(OpCode::Load(1)); // 13
            v.push(OpCode::AppendArg); // 14
            v
        };
        let out = run_ops(ops, vec![]).unwrap();
        assert_eq!(out.args, [15]);
    }

    #[test]
    fn node_api_ops() {
        let out = run_ops(
            vec![
                OpCode::PushNodeId,
                OpCode::AppendArg,
                OpCode::PushNow,
                OpCode::AppendArg,
                OpCode::Push(u32::from(Ipv4Addr::new(10, 0, 0, 9)) as i64),
                OpCode::RouteLookup,
                OpCode::AppendArg,
                OpCode::Push(u32::from(Ipv4Addr::new(10, 0, 0, 8)) as i64),
                OpCode::RouteLookup,
                OpCode::AppendArg,
            ],
            vec![],
        )
        .unwrap();
        assert_eq!(out.args, [7, 1_000, 3, -1]);
    }

    #[test]
    fn soft_state_cache_respects_ttl() {
        let env = ee();
        let program = Program::new(
            "put",
            vec![
                OpCode::Push(99),  // key
                OpCode::Push(123), // value
                OpCode::Push(500), // ttl
                OpCode::CachePut,
            ],
        );
        let capsule = Capsule::with_code(&program, vec![]);
        env.execute(&capsule.encode(), &FakeNode { id: 1, now: 1_000 })
            .unwrap();

        let get = Program::new(
            "get",
            vec![
                OpCode::Push(99),
                OpCode::CacheGet,
                OpCode::AppendArg,
                OpCode::AppendArg,
            ],
        );
        // Within TTL (expiry 1500).
        let c2 = Capsule::with_code(&get, vec![]);
        let out = env
            .execute(&c2.encode(), &FakeNode { id: 1, now: 1_400 })
            .unwrap();
        assert_eq!(out.args, [1, 123], "found flag then value");
        // Beyond TTL.
        let out = env
            .execute(&c2.encode(), &FakeNode { id: 1, now: 1_600 })
            .unwrap();
        assert_eq!(out.args, [0, 0]);
        // Sweep removes it.
        assert_eq!(env.sweep_soft_state(2_000), 1);
    }

    #[test]
    fn code_cache_serves_hash_only_capsules() {
        let env = ee();
        let program = Program::new(
            "fwd",
            vec![OpCode::Push(1), OpCode::AppendArg, OpCode::Halt],
        );
        // Unknown hash without code: miss.
        let bare = Capsule::by_hash(program.hash(), vec![]);
        assert!(matches!(
            env.execute(&bare.encode(), &node()),
            Err(EeError::CodeMiss { .. })
        ));
        // First capsule carries code; second can go by hash.
        let with = Capsule::with_code(&program, vec![]);
        env.execute(&with.encode(), &node()).unwrap();
        env.execute(&bare.encode(), &node()).unwrap();
        let stats = env.stats();
        assert_eq!(stats.code_loads, 1);
        assert_eq!(stats.code_hits, 1);
        assert_eq!(env.cached_programs(), 1);
    }

    #[test]
    fn forward_emits_hash_only_capsule() {
        let dst = Ipv4Addr::new(10, 0, 0, 9);
        let out = run_ops(
            vec![OpCode::Push(u32::from(dst) as i64), OpCode::Forward],
            vec![5, 6],
        )
        .unwrap();
        assert_eq!(out.emitted.len(), 1);
        let (target, payload) = &out.emitted[0];
        assert_eq!(*target, EmitTarget::Dst(dst));
        let re = Capsule::decode(payload).unwrap();
        assert!(
            re.code.is_none(),
            "re-emission relies on downstream code caches"
        );
        assert_eq!(re.args, [5, 6]);
    }

    #[test]
    fn capsule_codec_roundtrip() {
        let program = Program::new(
            "roundtrip",
            vec![
                OpCode::Push(-5),
                OpCode::Jnz(3),
                OpCode::Halt,
                OpCode::DeliverLocal,
            ],
        );
        let capsule = Capsule::with_code(&program, vec![1, -2, 3]);
        let decoded = Capsule::decode(&capsule.encode()).unwrap();
        assert_eq!(decoded, capsule);
        assert_eq!(decoded.code.unwrap().name(), "roundtrip");

        assert!(matches!(Capsule::decode(b"junk"), Err(EeError::NotActive)));
        let mut truncated = Capsule::by_hash(7, vec![1]).encode();
        truncated.pop();
        assert!(Capsule::decode(&truncated).is_err());
    }

    #[test]
    fn program_hash_is_content_addressed() {
        let a = Program::new("a", vec![OpCode::Push(1), OpCode::Halt]);
        let b = Program::new("b", vec![OpCode::Push(1), OpCode::Halt]);
        let c = Program::new("c", vec![OpCode::Push(2), OpCode::Halt]);
        assert_eq!(a.hash(), b.hash(), "name does not affect identity");
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn cache_full_is_reported() {
        let env = ExecutionEnv::new(EeBudget {
            max_cache_entries: 1,
            ..EeBudget::default()
        });
        let put = |key: i64| {
            Program::new(
                "p",
                vec![
                    OpCode::Push(key),
                    OpCode::Push(0),
                    OpCode::Push(10_000),
                    OpCode::CachePut,
                ],
            )
        };
        let c1 = Capsule::with_code(&put(1), vec![]);
        env.execute(&c1.encode(), &node()).unwrap();
        let c2 = Capsule::with_code(&put(2), vec![]);
        assert!(matches!(
            env.execute(&c2.encode(), &node()),
            Err(EeError::CacheFull)
        ));
        // Overwriting the same key is allowed even at capacity.
        let c3 = Capsule::with_code(&put(1), vec![]);
        env.execute(&c3.encode(), &node()).unwrap();
    }
}
