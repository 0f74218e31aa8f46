//! The four workloads, the closed-loop round that drives them wire to
//! wire from one driver thread, and the output checks every run makes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::gen::{self, Arena, Generator, Traffic};
use crate::rig::{self, Graph, Rig, RigSpec, Target};
use crate::stats::{self, Samples};
use crate::trace::{Tracer, NO_PARENT};

/// Workers under test: a constant, not `nproc` — the smallest count
/// that exercises split, fan-out and gather.
pub const WORKERS: usize = 2;
/// Frames per `pump_nic` / `rx_burst_batch`.
pub const BURST: usize = 32;
/// Frames per throughput round: inject all, publish all, flush, drain.
pub const ROUND: usize = 1024;
/// Fresh set-ups (and measured passes) per run; values are medians
/// over passes.
pub const PASSES: usize = 5;
/// Unmeasured full-size rounds after every set-up. A fixed count, so
/// the warm-up lands in `setup_s`.
pub const WARMUP_ROUNDS: usize = 512;
/// On `edge_reconfig`, every this-many-th round carries one control
/// action between publish and flush.
pub const CONTROL_EVERY: u64 = 16;
/// Samples a pass's logs hold without reallocating (see
/// [`Samples::with_room`]): four times what the fastest workload takes.
const SAMPLE_ROOM: usize = 1 << 18;
/// One in this many edge tx frames gets the full checksum and payload
/// check (every frame gets the cheap ones).
const SAMPLE_EVERY: u64 = 64;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    BareDispatch,
    BareRr,
    EdgeMixed,
    EdgeReconfig,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BareDispatch,
        Workload::BareRr,
        Workload::EdgeMixed,
        Workload::EdgeReconfig,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BareDispatch => "bare_dispatch",
            Workload::BareRr => "bare_rr",
            Workload::EdgeMixed => "edge_mixed",
            Workload::EdgeReconfig => "edge_reconfig",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::BareDispatch => {
                "60-byte UDP, empty graph, software dispatch: only per-packet fixed cost, so ring, lock and always-on handling changes show undiluted"
            }
            Workload::BareRr => {
                "same frames, hardware RSS and pump_nic, one 32-frame burst per round: per-burst cost (publish, wake-up, flush barrier) dominates per-packet cost"
            }
            Workload::EdgeMixed => {
                "stateful edge on IMIX TCP, Zipf hot set plus churn past table capacity: graph work dominates and the split/gather path is bypassed"
            }
            Workload::EdgeReconfig => {
                "edge_mixed traffic with a patch or migration applied every 16th round while work is in flight: a writer beside the readers"
            }
        }
    }

    pub fn traffic(self) -> Traffic {
        match self {
            Workload::BareDispatch | Workload::BareRr => Traffic::Bare,
            Workload::EdgeMixed | Workload::EdgeReconfig => Traffic::Edge,
        }
    }

    /// True when the path runs the software split (`packet.batch.*`).
    pub fn software_dispatch(self) -> bool {
        self == Workload::BareDispatch
    }

    /// True when the workload's own rounds carry control actions, on
    /// work in flight. (The traced run applies them at rest, in a phase
    /// of their own, on the others.)
    pub fn control_in_flight(self) -> bool {
        self == Workload::EdgeReconfig
    }

    /// True when the workload's own rounds are single bursts.
    pub fn burst_rounds(self) -> bool {
        self == Workload::BareRr
    }

    fn spec(self, workers: usize) -> RigSpec {
        RigSpec {
            graph: match self.traffic() {
                Traffic::Bare => Graph::Bare,
                Traffic::Edge => Graph::Edge,
            },
            rss: !self.software_dispatch(),
            workers,
        }
    }
}

/// The control actions, in the order a workload cycles through them:
/// each forward action is followed by its inverse.
const CONTROL_CYCLE: [(ControlKind, bool); 6] = [
    (ControlKind::Param, true),
    (ControlKind::Param, false),
    (ControlKind::Struct, true),
    (ControlKind::Struct, false),
    (ControlKind::Migrate, true),
    (ControlKind::Migrate, false),
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ControlKind {
    /// Param-only patch: 0 quiesce epochs.
    Param,
    /// Structural patch: exactly 1 epoch.
    Struct,
    /// `install_bucket_map` with NIC re-steer.
    Migrate,
}

/// Timings of the control actions a session applied.
#[derive(Default)]
pub struct ControlSamples {
    /// `diff_to` + `apply_sharded`, param-only.
    pub param: Samples,
    /// `diff_to` + `apply_sharded`, structural (includes the epoch).
    pub structural: Samples,
    pub migrate: Samples,
    /// `diff_to` alone, both kinds.
    pub diff: Samples,
}

/// Checks every frame the wire takes off the tx NIC.
struct Checker {
    edge: bool,
    external_ip: [u8; 4],
    /// Highest sequence number seen per flow.
    last_seq: Vec<u64>,
    /// Frames of the current round already seen, and how many.
    seen: Vec<bool>,
    fresh: usize,
    drained: u64,
    /// Sampled edge frames whose TCP checksum shows the program's
    /// zero-skip patching defect (see `gen::tcp_checksum_zero_skip`).
    csum_zero_skips: u64,
    violations: Vec<String>,
}

impl Checker {
    fn violation(&mut self, what: String) {
        if self.violations.len() < 16 {
            self.violations.push(what);
        }
    }

    fn begin_round(&mut self, frames: usize) {
        self.seen.clear();
        self.seen.resize(frames, false);
        self.fresh = 0;
    }

    fn check(&mut self, sent: &Arena, frame: &[u8]) {
        self.drained += 1;
        let Some(seq) = gen::seq_of(frame) else {
            return self.violation(format!("tx frame of {} bytes has no seq", frame.len()));
        };
        let idx = seq.wrapping_sub(sent.base_seq) as usize;
        if idx >= sent.len() {
            return self.violation(format!("tx seq {seq} is not of this round"));
        }
        if std::mem::replace(&mut self.seen[idx], true) {
            return self.violation(format!("tx seq {seq} delivered twice"));
        }
        self.fresh += 1;
        let flow = sent.flow(idx);
        if seq <= self.last_seq[flow] {
            self.violation(format!(
                "flow {flow}: seq {seq} after {} (per-flow order)",
                self.last_seq[flow]
            ));
        }
        self.last_seq[flow] = seq;
        let want = sent.frame(idx);
        if !self.edge {
            if frame != want {
                self.violation(format!("seq {seq}: bare frame differs in and out"));
            }
            return;
        }
        // Edge: source rewritten to the external address, the rest of
        // the addressing and the length untouched.
        if frame.len() != want.len()
            || frame[gen::IP_SRC..gen::IP_SRC + 4] != self.external_ip
            || frame[gen::IP_DST..gen::L4] != want[gen::IP_DST..gen::L4]
        {
            return self.violation(format!(
                "seq {seq}: edge frame not NATed to the external ip"
            ));
        }
        if seq.is_multiple_of(SAMPLE_EVERY) {
            let mut tcp_bad = !gen::tcp_checksum_ok(frame);
            if tcp_bad && gen::tcp_checksum_zero_skip(want, frame) {
                self.csum_zero_skips += 1;
                tcp_bad = false;
            }
            let broken = [
                (!gen::ipv4_checksum_ok(frame), "ipv4 checksum"),
                (tcp_bad, "tcp checksum"),
                (
                    frame[gen::TCP_PAYLOAD..] != want[gen::TCP_PAYLOAD..],
                    "payload",
                ),
            ];
            for (_, what) in broken.iter().filter(|(bad, _)| *bad) {
                self.violation(format!("seq {seq}: edge frame {what} broken"));
            }
        }
    }
}

/// When a run of rounds ends.
#[derive(Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    Rounds(u64),
}

/// What a run of rounds moved and how long it took.
#[derive(Default, Clone)]
pub struct Phase {
    pub frames: u64,
    /// Time inside rounds (first inject to last drain, summed). The
    /// generator's time between rounds is the client's, not the
    /// system's, and is left out.
    pub busy: Duration,
    /// Wall time of each round.
    pub walls: Samples,
}

impl Phase {
    pub fn pps(&self) -> f64 {
        self.frames as f64 / self.busy.as_secs_f64()
    }

    /// The rate at reference-host speed: the median over stretches of
    /// each stretch's own rate divided by the host speed around it. A
    /// stretch a preemption hit, or whose speed reading one hit, is an
    /// outlier the median sets aside.
    pub fn pps_at_reference(&self, speeds: &[f64]) -> f64 {
        let per_round = self.frames as f64 / self.walls.len().max(1) as f64;
        let mut by_stretch: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
        for (ns, stretch) in self.walls.iter() {
            let (rounds, busy) = by_stretch.entry(stretch).or_default();
            *rounds += 1.0;
            *busy += ns;
        }
        let rates: Vec<f64> = by_stretch
            .iter()
            .map(|(&stretch, (rounds, busy))| rounds * per_round / (busy / 1e9) / speeds[stretch])
            .collect();
        stats::median(&rates)
    }

    pub fn absorb(&mut self, other: &Phase) {
        self.frames += other.frames;
        self.busy += other.busy;
        self.walls.extend(&other.walls);
    }
}

/// One set-up of a workload: rig, generator, checker and tallies.
pub struct Session {
    workload: Workload,
    pub rig: Rig,
    gen: Generator,
    arena: Arena,
    checker: Checker,
    round_id: u64,
    /// Measured full-size rounds so far (paces in-flight control).
    full_rounds: u64,
    control_cursor: usize,
    pub control: ControlSamples,
    /// Frames injected.
    injected: u64,
    /// Control actions attempted / returned `Err`.
    actions: u64,
    action_errors: u64,
    /// Host-speed readings: one before set-up, one after warm-up, then
    /// one after every stretch of the untraced measurement. Stretch
    /// `i` lies between readings `i` and `i + 1`; set-up is stretch 0.
    readings: Vec<f64>,
    /// Time from `started` to the end of warm-up.
    pub setup: Duration,
    /// Pool allocation counters when warm-up ended.
    warm: rig::Counters,
}

impl Session {
    /// Builds the rig and generator and runs the warm-up rounds.
    /// `started` is when set-up began: process start for a measured
    /// pass, so `setup` is everything before the first measured round.
    ///
    /// # Errors
    ///
    /// Propagates rig build failures.
    pub fn start(
        workload: Workload,
        workers: usize,
        seed: u64,
        warmup_rounds: usize,
        started: Instant,
    ) -> Result<Session, String> {
        let speed_before = host_speed();
        let traffic = workload.traffic();
        let gen = Generator::new(traffic, seed);
        let rig = Rig::build(workload.spec(workers))?;
        let mut s = Session {
            workload,
            checker: Checker {
                edge: traffic == Traffic::Edge,
                external_ip: rig::external_ip(),
                last_seq: vec![0; gen.flow_slots()],
                seen: Vec::new(),
                fresh: 0,
                drained: 0,
                csum_zero_skips: 0,
                violations: Vec::new(),
            },
            rig,
            gen,
            arena: Arena::default(),
            round_id: 0,
            full_rounds: 0,
            control_cursor: 0,
            control: ControlSamples {
                param: Samples::with_room(SAMPLE_ROOM),
                structural: Samples::with_room(SAMPLE_ROOM),
                migrate: Samples::with_room(SAMPLE_ROOM),
                diff: Samples::with_room(SAMPLE_ROOM),
            },
            injected: 0,
            actions: 0,
            action_errors: 0,
            readings: Vec::new(),
            setup: Duration::ZERO,
            warm: rig::Counters::default(),
        };
        let mut off = Tracer::off();
        for _ in 0..warmup_rounds {
            s.round(ROUND, false, &mut off);
        }
        s.warm = s.rig.counters();
        s.setup = started.elapsed();
        s.readings = vec![speed_before, host_speed()];
        Ok(s)
    }

    /// One closed-loop round of `frames` frames: the wire injects them
    /// all, the driver publishes them all, (optionally one control
    /// action lands on the work in flight,) the driver waits for the
    /// workers, and the wire drains every tx queue, checking each
    /// frame. Frames are generated before the round's clock starts;
    /// returns the time from first inject to last drain.
    pub fn round(&mut self, frames: usize, control: bool, tr: &mut Tracer) -> Duration {
        self.gen.fill(frames, &mut self.arena);
        self.checker.begin_round(frames);
        let id = self.round_id;
        self.round_id += 1;

        let t0 = Instant::now();
        let span = tr.open("round", NO_PARENT, id);
        let s = tr.start();
        for frame in self.arena.frames() {
            // A refused frame is never drained and so counts as failed;
            // the NIC's own rx_dropped explains it in the books.
            self.rig.inject(frame);
        }
        tr.leaf("kernel.nic.rx_inject", s, span, id);
        self.injected += frames as u64;

        let s = tr.start();
        self.rig.publish();
        tr.leaf("router.shard.publish", s, span, id);

        // A param-only patch is the one action that does not park the
        // workers, and the program's hot swap has a window in which it
        // swallows their packets (README.md, findings): it waits until
        // the round is drained. The others land on the work in flight.
        let in_flight = control && self.next_control().0 != ControlKind::Param;
        if in_flight {
            self.control_action(tr, span, id);
        }

        let s = tr.start();
        self.rig.flush();
        tr.leaf("router.shard.wait", s, span, id);

        let s = tr.start();
        let (checker, arena) = (&mut self.checker, &self.arena);
        self.rig.drain(|frame| checker.check(arena, frame));
        tr.leaf("kernel.nic.tx_drain", s, span, id);
        tr.close(span);
        let wall = t0.elapsed();
        let seen = self.checker.fresh;
        if seen != frames {
            // Say where: the books at the end of the run only say how many.
            self.checker.violation(format!(
                "round {id}: {} of {frames} frames never reached tx (control action in flight: {})",
                frames - seen,
                if in_flight { "yes" } else { "no" }
            ));
        }
        if control && !in_flight {
            self.control_action(tr, NO_PARENT, id);
        }
        wall
    }

    fn next_control(&self) -> (ControlKind, bool) {
        CONTROL_CYCLE[self.control_cursor % CONTROL_CYCLE.len()]
    }

    /// Applies the next control action of the cycle and keeps its
    /// timing. Failures and wrong epoch counts are tallied, not fatal.
    fn control_action(&mut self, tr: &mut Tracer, parent: u32, round: u64) {
        let (kind, forward) = self.next_control();
        self.control_cursor += 1;
        self.actions += 1;
        let span = tr.open("control.apply", parent, round);
        let t0 = Instant::now();
        let outcome = match kind {
            ControlKind::Migrate => {
                let s = tr.start();
                let moved = self.rig.migrate(forward);
                tr.leaf("router.shard.migrate", s, span, round);
                if moved == 0 {
                    Err("migration moved no bucket".to_owned())
                } else {
                    Ok(())
                }
            }
            ControlKind::Param | ControlKind::Struct => {
                let target = match (kind, forward) {
                    (_, false) => Target::Base,
                    (ControlKind::Param, true) => Target::Param,
                    _ => Target::Tapped,
                };
                let s = tr.start();
                let plan = self.rig.plan(target);
                tr.leaf("router.desc.diff", s, span, round);
                self.control
                    .diff
                    .push(t0.elapsed().as_nanos() as u64, self.stretch());
                let s = tr.start();
                let applied = plan.and_then(|p| self.rig.apply(p));
                tr.leaf("router.desc.apply", s, span, round);
                let want = u64::from(kind == ControlKind::Struct);
                match applied {
                    Ok(epochs) if epochs == want => Ok(()),
                    Ok(epochs) => Err(format!("{kind:?} patch took {epochs} epochs, not {want}")),
                    Err(e) => Err(e),
                }
            }
        };
        let ns = t0.elapsed().as_nanos() as u64;
        tr.close(span);
        let stretch = self.stretch();
        match outcome {
            Ok(()) => match kind {
                ControlKind::Param => self.control.param.push(ns, stretch),
                ControlKind::Struct => self.control.structural.push(ns, stretch),
                ControlKind::Migrate => self.control.migrate.push(ns, stretch),
            },
            Err(e) => {
                self.action_errors += 1;
                self.checker
                    .violation(format!("control action failed: {e}"));
            }
        }
    }

    /// Rounds of `frames` frames until `until` is reached. On a
    /// workload with control in flight, every [`CONTROL_EVERY`]-th
    /// full-size round carries one action.
    pub fn run_rounds(&mut self, frames: usize, until: Until, tr: &mut Tracer) -> Phase {
        let mut phase = Phase::default();
        let mut left = match until {
            Until::Rounds(n) => n,
            Until::Deadline(_) => u64::MAX,
        };
        while left > 0 && !matches!(until, Until::Deadline(d) if Instant::now() >= d) {
            left -= 1;
            let mut control = false;
            if frames == ROUND && self.workload.control_in_flight() {
                self.full_rounds += 1;
                control = self.full_rounds.is_multiple_of(CONTROL_EVERY);
            }
            let wall = self.round(frames, control, tr);
            phase.frames += frames as u64;
            phase.busy += wall;
            phase.walls.push(wall.as_nanos() as u64, self.stretch());
        }
        phase
    }

    /// Control actions at rest for `budget`, one burst round before
    /// each so the graph stays warm; ends on an inverse action, so back
    /// on the base description and identity steering.
    pub fn control_at_rest(&mut self, budget: Duration, tr: &mut Tracer) {
        let deadline = Instant::now() + budget;
        while Instant::now() < deadline || self.control_cursor % 2 == 1 {
            self.round(BURST, false, tr);
            self.control_action(tr, NO_PARENT, self.round_id);
        }
    }

    /// The stretch samples taken now belong to.
    fn stretch(&self) -> usize {
        self.readings.len().saturating_sub(1)
    }

    /// The untraced measurement of one pass: the workload's own rounds
    /// for `budget`, in stretches of at most [`STRETCH`] with the host
    /// speed read after each. The round-trip and action timings a
    /// workload's rounds give are in the returned walls and in
    /// `self.control`.
    pub fn measure(&mut self, budget: Duration) -> Phase {
        let frames = if self.workload.burst_rounds() {
            BURST
        } else {
            ROUND
        };
        let mut phase = Phase {
            walls: Samples::with_room(SAMPLE_ROOM),
            ..Phase::default()
        };
        let deadline = Instant::now() + budget;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let until = Until::Deadline(Instant::now() + left.min(STRETCH));
            phase.absorb(&self.run_rounds(frames, until, &mut Tracer::off()));
            self.readings.push(host_speed());
        }
        phase
    }

    /// The host speed of each stretch: the mean of the readings either
    /// side of it.
    pub fn stretch_speeds(&self) -> Vec<f64> {
        self.readings
            .windows(2)
            .map(|r| (r[0] + r[1]) / 2.0)
            .collect()
    }

    pub fn drained(&self) -> u64 {
        self.checker.drained
    }

    /// Sampled tx frames that showed the zero-skip checksum defect.
    pub fn csum_zero_skips(&self) -> u64 {
        self.checker.csum_zero_skips
    }

    /// The next `frames` frames of the workload's traffic, for the
    /// isolated lanes (not injected, not counted).
    pub fn next_round(&mut self, frames: usize) -> &Arena {
        self.gen.fill(frames, &mut self.arena);
        &self.arena
    }

    /// Buffer and batch-container allocations since warm-up ended.
    pub fn steady_allocs(&self) -> (u64, u64) {
        let now = self.rig.counters();
        (
            now.buf_allocated - self.warm.buf_allocated,
            now.batch_allocated - self.warm.batch_allocated,
        )
    }

    /// Closes the books: every injected frame is either drained or in
    /// one of the program's own drop counters, and the frame-buffer
    /// pool did not grow after warm-up. Stops the workers and returns
    /// the run's tallies and every violation found.
    pub fn finish(mut self) -> Outcome {
        let counters = self.rig.counters();
        let drained = self.checker.drained;
        if self.injected != drained + counters.lost() {
            self.checker.violation(format!(
                "books do not close: injected {} != drained {drained} + accounted drops {}",
                self.injected,
                counters.lost()
            ));
        }
        let (buf_allocs, _) = self.steady_allocs();
        // Without a warm-up (`check`) the first round fills the pool.
        if self.warm.buf_allocated != 0 && buf_allocs != 0 {
            self.checker.violation(format!(
                "frame-buffer pool grew by {buf_allocs} after warm-up"
            ));
        }
        self.rig.shutdown();
        Outcome {
            attempted: self.injected + self.actions,
            failed: self.injected - drained.min(self.injected) + self.action_errors,
            violations: self.checker.violations,
        }
    }
}

/// Operations attempted (frames injected plus control actions), failed
/// (frames not drained plus actions that returned `Err`), and output
/// checks that did not hold.
#[derive(Default, Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Outcome {
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
    }
}

/// Steps of the host-speed control loop: about 2 ms of register-only
/// arithmetic, the same on every commit.
const CONTROL_STEPS: u32 = 1_300_000;
/// What the control loop takes on the undisturbed development host;
/// gated timings are reported as if it always took this long.
const CONTROL_REF_NS: f64 = 2.0e6;
/// The longest a pass measures between two host-speed readings.
const STRETCH: Duration = Duration::from_millis(100);

/// The host-speed control: a fixed splitmix64 loop timed on the driver
/// thread; returns the host's speed relative to the reference (above 1
/// = faster). This shared 2-vCPU host slows by 10-25 % for seconds to
/// minutes at a stretch and every timing slows with it; dividing the
/// slow-down out of each stretch is what lets the end-to-end metrics
/// meet their bounds here (README.md has the numbers, raw beside
/// normalised). The loop runs between stretches of rounds, while the
/// program's workers are parked: `driver.parked_speed_ratio` in the
/// traced run watches that assumption.
pub fn host_speed() -> f64 {
    let t = Instant::now();
    let mut rng = gen::SplitMix64::new(1);
    let mut acc = 0u64;
    for _ in 0..CONTROL_STEPS {
        acc = acc.wrapping_add(rng.next_u64());
    }
    std::hint::black_box(acc);
    CONTROL_REF_NS / t.elapsed().as_nanos() as f64
}

/// VmHWM of this process in MiB (0 where `/proc` has no such line).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One end-to-end value of a pass.
pub struct Value {
    pub name: &'static str,
    /// As the wall clock saw it.
    pub raw: f64,
    /// At reference-host speed: a faster host shortens durations and
    /// raises rates, so every duration is multiplied by the host speed
    /// of the stretch it was measured in and every rate divided by it.
    pub at_reference: f64,
}

/// One untraced pass of a workload.
pub struct Pass {
    /// The end-to-end metrics the workload's rounds measure; on
    /// `bare_rr` also `burst_rtt_us_p99`, printed per pass, not gated.
    pub values: Vec<Value>,
    /// Median host speed over the pass's stretches.
    pub host_speed: f64,
    pub rounds: usize,
    pub control_samples: usize,
    pub outcome: Outcome,
}

/// One untraced pass of `workload`: set-up (timed from `started`), then
/// `seconds` of the workload's own rounds.
///
/// # Errors
///
/// Propagates rig build failures.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    seconds: f64,
    warmup_rounds: usize,
    started: Instant,
) -> Result<Pass, String> {
    let mut s = Session::start(workload, WORKERS, seed, warmup_rounds, started)?;
    let rounds = s.measure(Duration::from_secs_f64(seconds));
    // Read before the percentiles below sort copies of the logs.
    let rss = peak_rss_mib();
    let speeds = s.stretch_speeds();
    let setup = s.setup.as_secs_f64();
    let percentile = |name, samples: &Samples, p: f64| Value {
        name,
        raw: samples.us(p),
        at_reference: samples.us_at_reference(p, &speeds),
    };
    let mut values = vec![
        Value {
            name: "setup_s",
            raw: setup,
            at_reference: setup * speeds[0],
        },
        Value {
            name: "pps",
            raw: rounds.pps(),
            at_reference: rounds.pps_at_reference(&speeds),
        },
        Value {
            name: "peak_rss_mib",
            raw: rss,
            at_reference: rss,
        },
    ];
    if workload.burst_rounds() {
        values.push(percentile("burst_rtt_us_p50", &rounds.walls, 50.0));
        values.push(percentile("burst_rtt_us_p99", &rounds.walls, 99.0));
    }
    let c = &s.control;
    if workload.control_in_flight() {
        values.push(percentile("param_apply_us_p50", &c.param, 50.0));
        values.push(percentile("struct_apply_us_p50", &c.structural, 50.0));
        values.push(percentile("migrate_us_p50", &c.migrate, 50.0));
    }
    let control_samples = c.param.len() + c.structural.len() + c.migrate.len();
    Ok(Pass {
        values,
        host_speed: stats::median(&speeds),
        rounds: rounds.walls.len(),
        control_samples,
        outcome: s.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(traffic: Traffic, frames: usize) -> (Arena, usize) {
        let mut gen = Generator::new(traffic, 1);
        let mut a = Arena::default();
        gen.fill(frames, &mut a);
        (a, gen.flow_slots())
    }

    fn checker(edge: bool, slots: usize, frames: usize) -> Checker {
        let mut c = Checker {
            edge,
            external_ip: rig::external_ip(),
            last_seq: vec![0; slots],
            seen: Vec::new(),
            fresh: 0,
            drained: 0,
            csum_zero_skips: 0,
            violations: Vec::new(),
        };
        c.begin_round(frames);
        c
    }

    #[test]
    fn the_checker_passes_an_echoed_round_and_catches_each_fault() {
        let (a, slots) = arena(Traffic::Bare, 64);
        let mut c = checker(false, slots, 64);
        for f in a.frames() {
            c.check(&a, f);
        }
        assert_eq!((c.drained, c.violations.len()), (64, 0));

        // Delivered twice.
        c.check(&a, a.frame(3));
        assert!(c.violations.pop().unwrap().contains("twice"));
        // A flipped byte.
        let mut c = checker(false, slots, 64);
        let mut bad = a.frame(5).to_vec();
        bad[20] ^= 1;
        c.check(&a, &bad);
        assert!(c.violations.pop().unwrap().contains("differs"));
        // A sequence number of another round.
        let mut stray = a.frame(5).to_vec();
        let n = stray.len();
        stray[n - 8..].copy_from_slice(&9_999u64.to_be_bytes());
        c.check(&a, &stray);
        assert!(c.violations.pop().unwrap().contains("not of this round"));
        // Two frames of one flow out of order.
        let (i, j) = (0..64)
            .flat_map(|i| (i + 1..64).map(move |j| (i, j)))
            .find(|&(i, j)| a.flow(i) == a.flow(j))
            .expect("1024 flows, 64 frames: some flow repeats (seed 1)");
        let mut c = checker(false, slots, 64);
        c.check(&a, a.frame(j));
        c.check(&a, a.frame(i));
        assert!(c.violations.pop().unwrap().contains("per-flow order"));
    }

    #[test]
    fn the_edge_checker_wants_the_external_source_and_sound_checksums() {
        let (a, slots) = arena(Traffic::Edge, 128);
        let mut c = checker(true, slots, 128);
        // Untranslated frames are refused...
        c.check(&a, a.frame(0));
        assert!(c.violations.pop().unwrap().contains("not NATed"));
        // ...and a translated source with a stale checksum is caught on
        // the sampled frame (seq divisible by 64).
        let idx = (0..128)
            .find(|i| (a.base_seq + *i as u64).is_multiple_of(SAMPLE_EVERY))
            .unwrap();
        let mut nat = a.frame(idx).to_vec();
        nat[gen::IP_SRC..gen::IP_SRC + 4].copy_from_slice(&rig::external_ip());
        c.check(&a, &nat);
        let found = c.violations.join("; ");
        assert!(
            found.contains("ipv4 checksum") && found.contains("tcp checksum"),
            "{found}"
        );
    }

    #[test]
    fn the_rate_at_reference_is_the_median_stretch_rate_over_its_host_speed() {
        // Two 1000-frame rounds in each of three stretches: 1 ms rounds
        // on a reference-speed host, 2 ms rounds on a half-speed host,
        // and 10 ms rounds a preemption hit while the speed read 1.
        let mut phase = Phase::default();
        for (stretch, ns) in [(1, 1_000_000), (2, 2_000_000), (3, 10_000_000)] {
            for _ in 0..2 {
                phase.frames += 1000;
                phase.busy += Duration::from_nanos(ns);
                phase.walls.push(ns, stretch);
            }
        }
        let speeds = [1.0, 1.0, 0.5, 1.0];
        assert_eq!(phase.pps_at_reference(&speeds), 1e6);
        assert!((phase.pps() - 6000.0 / 0.026).abs() < 1e-6);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(CONTROL_CYCLE.len() % 2, 0, "every action has its inverse");
    }
}
