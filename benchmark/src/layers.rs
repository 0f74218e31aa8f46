//! The traced run: the per-layer budget under the end-to-end figures.
//!
//! Three sources, all on the driver thread: spans around the driver's
//! calls into each layer during the workload's own rounds (traced and
//! untraced blocks alternate, which also prices the tracing); single
//! layers called in isolation on the workload's own frames; and
//! counters the program keeps. A layer the workload's path does not
//! run reports 0 — that is the evidence for each workload's "why".

use std::time::{Duration, Instant};

use crate::gen::{Arena, Generator, Traffic};
use crate::rig::{Baseline, ElementLane, FlowLanes, Lanes, Verdicts};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workload::{
    host_speed, Outcome, Phase, Session, Until, Workload, BURST, ROUND, WORKERS,
};

/// Rounds per traced or untraced block: a whole control cycle (6
/// actions, one per 16 rounds) so both kinds of block carry the same
/// actions.
const BLOCK_ROUNDS: u64 = 96;
/// One-burst rounds per block where the burst is the workload's round.
const BLOCK_BURSTS: u64 = 2048;
/// Full-size rounds the fixed baseline / `check` prefix holds.
pub const PREFIX_ROUNDS: usize = 64;
/// Jobs for the ring hand-off lane, epochs for the quiesce lane.
const HANDOFF_JOBS: usize = 4_000;
const QUIESCE_EPOCHS: u32 = 400;

/// How a traced run divides `--seconds`.
const SHARE_TRACED: f64 = 0.40;
const SHARE_CONTROL: f64 = 0.10;
const SHARE_BURST: f64 = 0.05;
const SHARE_LANES: f64 = 0.20;
const SHARE_SCALE: f64 = 0.15;

pub struct TracedRun {
    /// `(metric name, value)` for every per-layer metric.
    pub layers: Vec<(&'static str, f64)>,
    pub outcome: Outcome,
    pub tracer: Tracer,
    /// Sample counts behind the percentiles, for the printed table.
    pub notes: Vec<String>,
}

/// Time inside each isolated lane, summed over the rounds fed to it.
#[derive(Default)]
struct LaneBusy {
    parse: Duration,
    rx_burst: Duration,
    split: Duration,
    gather: Duration,
    counter: Duration,
    todevice: Duration,
    chain2: Duration,
    chain12: Duration,
    guard: Duration,
    conntrack: Duration,
    nat44: Duration,
    graph: Duration,
}

fn ns_per(busy: Duration, packets: u64) -> f64 {
    if packets == 0 {
        0.0
    } else {
        busy.as_nanos() as f64 / packets as f64
    }
}

/// Runs the Click and monolithic stateful edges over the fixed
/// [`PREFIX_ROUNDS`]-round `edge_mixed` prefix of `seed`. Returns each
/// contender's busy time and verdict counts, and the frames fed.
///
/// # Errors
///
/// Propagates a Click config compile failure.
pub fn edge_baselines(seed: u64) -> Result<([(Duration, Verdicts); 2], u64), String> {
    let lanes = Lanes::new(WORKERS);
    let mut click = Baseline::click_edge()?;
    let mut mono = Baseline::monolithic_edge();
    let mut gen = Generator::new(Traffic::Edge, seed);
    let mut arena = Arena::default();
    let mut busy = [Duration::ZERO; 2];
    for _ in 0..PREFIX_ROUNDS {
        gen.fill(ROUND, &mut arena);
        busy[0] += click.feed(lanes.batches(&arena));
        busy[1] += mono.feed(lanes.batches(&arena));
    }
    Ok((
        [(busy[0], click.verdicts()), (busy[1], mono.verdicts())],
        (PREFIX_ROUNDS * ROUND) as u64,
    ))
}

/// `--check`: the fixed `edge_mixed` prefix through the program (wire
/// to wire, 2 workers) and through both baselines must give the same
/// accepted and dropped counts.
///
/// # Errors
///
/// Returns what differed, or a build failure.
pub fn check(seed: u64) -> Result<String, String> {
    let mut s = Session::start(Workload::EdgeMixed, WORKERS, seed, 0, Instant::now())?;
    s.run_rounds(
        ROUND,
        Until::Rounds(PREFIX_ROUNDS as u64),
        &mut Tracer::off(),
    );
    let drained = s.drained();
    let outcome = s.finish();
    if !outcome.violations.is_empty() {
        return Err(outcome.violations.join("; "));
    }
    let netkit = Verdicts {
        accepted: drained,
        dropped: outcome.failed,
    };
    let ([(_, click), (_, mono)], fed) = edge_baselines(seed)?;
    let line =
        format!("check: {fed} frames  netkit {netkit:?}  click {click:?}  monolithic {mono:?}");
    if netkit == click && netkit == mono {
        Ok(line)
    } else {
        Err(format!("contenders disagree — {line}"))
    }
}

/// One traced run of `workload` for `seconds` in total.
///
/// # Errors
///
/// Propagates rig build and lane compile failures.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    warmup_rounds: usize,
) -> Result<TracedRun, String> {
    let slice = |share: f64| Duration::from_secs_f64(seconds * share);
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    let mut notes = Vec::new();
    let mut put = |name: &'static str, value: f64| layers.push((name, value));

    // Per-layer values are raw wall-clock readings; `driver.host_speed`
    // says what host they were read on. The control loop is also read
    // with no thread of the program alive, here and after shutdown.
    let unthreaded = |n: usize| (0..n).map(|_| host_speed()).collect::<Vec<_>>();
    let mut alone = unthreaded(5);
    let mut s = Session::start(workload, WORKERS, seed, warmup_rounds, Instant::now())?;
    put(
        "services.edge.build_us",
        s.rig.compile.as_nanos() as f64 / 1e3,
    );

    // 1. The workload's own rounds, traced and untraced blocks in turn.
    let (frames, block) = if workload.burst_rounds() {
        (BURST, BLOCK_BURSTS)
    } else {
        (ROUND, BLOCK_ROUNDS)
    };
    let mut tr = Tracer::on();
    let (mut traced, mut untraced) = (Phase::default(), Phase::default());
    let deadline = Instant::now() + slice(SHARE_TRACED);
    // Traced, untraced, untraced, traced, ...: drift within a pair of
    // blocks lands on each side as often.
    let mut first = true;
    // Untraced over traced rate of each adjacent pair of blocks; the
    // median sets aside a pair the host disturbed halfway.
    let mut overheads = Vec::new();
    let mut parked = vec![host_speed()];
    while Instant::now() < deadline {
        let mut pair = [0.0; 2];
        for on in [first, !first] {
            tr.set(on);
            let phase = s.run_rounds(frames, Until::Rounds(block), &mut tr);
            pair[usize::from(on)] = phase.pps();
            (if on { &mut traced } else { &mut untraced }).absorb(&phase);
        }
        overheads.push(pair[0] / pair[1]);
        first = !first;
        parked.push(host_speed());
    }
    tr.set(false);
    // Read before the control phase: a migration starts a new
    // ring-occupancy window.
    let ring_high_water = s.rig.counters().ring_high_water;

    let totals = trace::totals(tr.spans());
    let per_packet = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / traced.frames as f64)
    };
    put(
        "kernel.nic.rx_inject_ns",
        per_packet("kernel.nic.rx_inject"),
    );
    put(
        "router.shard.publish_ns",
        per_packet("router.shard.publish"),
    );
    put("router.shard.wait_ns", per_packet("router.shard.wait"));
    put("kernel.nic.tx_drain_ns", per_packet("kernel.nic.tx_drain"));
    put(
        "trace.explained_share",
        trace::explained_share(tr.spans(), "round"),
    );
    put("trace.overhead_ratio", stats::median(&overheads));
    let mut walls = traced.walls.clone();
    walls.extend(&untraced.walls);
    put("driver.round_us_p50", walls.us(50.0));
    put("driver.round_us_p99", walls.us(99.0));
    notes.push(format!(
        "traced {} rounds, untraced {} rounds of {frames} frames; {} spans",
        traced.walls.len(),
        untraced.walls.len(),
        tr.spans().len()
    ));

    // 2. Control actions: in flight above where the workload has them,
    // at rest here otherwise.
    if !workload.control_in_flight() {
        s.control_at_rest(slice(SHARE_CONTROL), &mut tr);
    }
    put("router.desc.diff_us", s.control.diff.us(50.0));
    put("router.desc.apply_param_us_p95", s.control.param.us(95.0));
    put(
        "router.desc.apply_struct_us_p95",
        s.control.structural.us(95.0),
    );
    put("router.shard.migrate_us_p95", s.control.migrate.us(95.0));
    // The end-to-end metrics one workload's own rounds measure, read
    // here on every workload; and the tail of the burst round trip,
    // too host-dependent to gate anywhere (README.md).
    put("param_apply_us_p50", s.control.param.us(50.0));
    put("struct_apply_us_p50", s.control.structural.us(50.0));
    put("migrate_us_p50", s.control.migrate.us(50.0));
    let bursts = s.run_rounds(
        BURST,
        Until::Deadline(Instant::now() + slice(SHARE_BURST)),
        &mut tr,
    );
    put("burst_rtt_us_p50", bursts.walls.us(50.0));
    put("burst_rtt_us_p99", bursts.walls.us(99.0));
    notes.push(format!("burst round trips: {} samples", bursts.walls.len()));
    notes.push(format!(
        "control samples: {} param, {} structural, {} migrate",
        s.control.param.len(),
        s.control.structural.len(),
        s.control.migrate.len()
    ));

    // 3. Counters the program keeps (before the inline lanes touch it).
    let c = s.rig.counters();
    let (buf_allocs, batch_allocs) = s.steady_allocs();
    put("kernel.nic.rx_dropped", c.rx_dropped as f64);
    put("kernel.nic.tx_dropped", c.tx_dropped as f64);
    put("router.shard.drop.ring_full", c.drop_ring_full as f64);
    put("router.shard.drop.dead_worker", c.drop_dead_worker as f64);
    put("router.shard.drop.guard", c.drop_guard as f64);
    put("router.shard.drop.graph", c.drop_graph as f64);
    put("router.shard.drop.resteer", c.drop_resteer as f64);
    put(
        "packet.pool.buf_reuse_ratio",
        c.buf_reused as f64 / (c.buf_reused + c.buf_allocated).max(1) as f64,
    );
    put("packet.pool.buf_steady_allocs", buf_allocs as f64);
    put("packet.pool.batch_steady_allocs", batch_allocs as f64);
    put("kernel.shard.ring_high_water", ring_high_water as f64);
    put("router.flow.csum_zero_skips", s.csum_zero_skips() as f64);

    // 4. Single layers in isolation, on the workload's own frames.
    let lanes = Lanes::new(WORKERS);
    let edge = workload.traffic() == Traffic::Edge;
    let t = Instant::now();
    for _ in 0..QUIESCE_EPOCHS {
        s.rig.quiesce();
    }
    put(
        "kernel.shard.quiesce_us",
        t.elapsed().as_nanos() as f64 / 1e3 / f64::from(QUIESCE_EPOCHS),
    );
    put(
        "kernel.shard.handoff_ns",
        ns_per(lanes.handoff(HANDOFF_JOBS), HANDOFF_JOBS as u64),
    );
    let flow = edge.then(|| FlowLanes::new(WORKERS));
    let graph = edge.then(|| s.rig.graph_lane());
    let (counter, todevice) = (ElementLane::counter(), ElementLane::todevice());
    let (short, long) = (ElementLane::chain(2)?, ElementLane::chain(12)?);
    let mut busy = LaneBusy::default();
    let mut packets = 0u64;
    let deadline = Instant::now() + slice(SHARE_LANES);
    while Instant::now() < deadline {
        let arena = s.next_round(ROUND);
        packets += ROUND as u64;
        busy.parse += lanes.parse(arena);
        busy.rx_burst += lanes.rx_burst(arena);
        if workload.software_dispatch() {
            let (split, gather) = lanes.split_gather(arena);
            busy.split += split;
            busy.gather += gather;
        }
        busy.counter += counter.feed(lanes.batches(arena));
        busy.todevice += todevice.feed(lanes.batches(arena));
        busy.chain2 += short.feed(lanes.batches(arena));
        busy.chain12 += long.feed(lanes.batches(arena));
        if let (Some(flow), Some(graph)) = (&flow, &graph) {
            busy.guard += flow.guard.feed(lanes.batches(arena));
            busy.conntrack += flow.conntrack.feed(lanes.batches(arena));
            busy.nat44 += flow.nat44.feed(lanes.batches(arena));
            busy.graph += graph.feed(lanes.batches(arena));
        }
    }
    let lane = |busy: Duration| ns_per(busy, packets);
    put("packet.flow.parse_ns", lane(busy.parse));
    put("kernel.nic.rx_burst_ns", lane(busy.rx_burst));
    put("packet.batch.split_ns", lane(busy.split));
    put("packet.batch.gather_ns", lane(busy.gather));
    put("router.elements.counter_ns", lane(busy.counter));
    put("router.elements.todevice_ns", lane(busy.todevice));
    put(
        "opencom.hop_ns",
        (lane(busy.chain12) - lane(busy.chain2)) / 10.0,
    );
    put("router.flow.guard_ns", lane(busy.guard));
    put("router.flow.conntrack_ns", lane(busy.conntrack));
    put("router.flow.nat44_ns", lane(busy.nat44));
    put("router.flow.graph_ns", lane(busy.graph));
    let fs = flow.as_ref().map(FlowLanes::stats).unwrap_or_default();
    put(
        "router.flow.conntrack_hit_ratio",
        fs.conntrack_hits as f64 / (fs.conntrack_hits + fs.conntrack_misses).max(1) as f64,
    );
    put("router.flow.evictions", fs.evictions as f64);
    put("router.flow.nat_exhausted", fs.nat_exhausted as f64);
    notes.push(format!("isolated lanes: {packets} packets each"));
    drop(graph);
    let mut outcome = s.finish();
    alone.extend(unthreaded(5));
    let parked = stats::median(&parked);
    put("driver.host_speed", parked);
    // Near 1 while the program's idle workers leave the driver's CPU
    // alone; workers that busy-wait would slow the control loop between
    // rounds, and the end-to-end normalisation would under-charge them.
    put("driver.parked_speed_ratio", parked / stats::median(&alone));

    // 5. The same workload at one worker, where it has a throughput
    // phase of its own: what the second worker buys.
    let (mut pps_w1, mut speedup) = (0.0, 0.0);
    if matches!(workload, Workload::BareDispatch | Workload::EdgeMixed) {
        let mut solo = Session::start(workload, 1, seed, warmup_rounds / 4, Instant::now())?;
        let phase = solo.run_rounds(
            ROUND,
            Until::Deadline(Instant::now() + slice(SHARE_SCALE)),
            &mut Tracer::off(),
        );
        pps_w1 = phase.pps();
        speedup = untraced.pps() / pps_w1;
        outcome.absorb(solo.finish());
    }
    put("scale.pps_w1", pps_w1);
    put("scale.speedup_w2", speedup);

    // 6. The baselines on the same kind of frames, inline: the
    // host-speed control.
    let (mut click_edge, mut mono_edge, mut click_bare) = (0.0, 0.0, 0.0);
    if edge {
        let ([(click, cv), (mono, mv)], fed) = edge_baselines(seed)?;
        click_edge = ns_per(click, fed);
        mono_edge = ns_per(mono, fed);
        if cv.dropped + mv.dropped != 0 {
            outcome.violations.push(format!(
                "baselines refused frames: click {cv:?}, monolithic {mv:?}"
            ));
        }
    } else {
        let mut click = Baseline::click_bare()?;
        let mut gen = Generator::new(Traffic::Bare, seed);
        let mut arena = Arena::default();
        let mut busy = Duration::ZERO;
        for _ in 0..PREFIX_ROUNDS {
            gen.fill(ROUND, &mut arena);
            busy += click.feed(lanes.batches(&arena));
        }
        click_bare = ns_per(busy, (PREFIX_ROUNDS * ROUND) as u64);
    }
    put("baselines.click.edge_ns", click_edge);
    put("baselines.monolithic.edge_ns", mono_edge);
    put("baselines.click.bare_ns", click_bare);

    Ok(TracedRun {
        layers,
        outcome,
        tracer: tr,
        notes,
    })
}
