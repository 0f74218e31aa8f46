//! A cycle-cost model of the Intel IXP1200 network processor.
//!
//! Paper §5 plans to re-implement the Router CF on the IXP1200, whose
//! "exotic hardware architecture" comprises a StrongARM control processor,
//! six Intel 'micro-engine' processors with four hardware contexts each,
//! and a distributed/hierarchical memory array (on-chip scratchpad,
//! off-chip SRAM and SDRAM). The open question the paper raises is
//! *component placement*: which processor should each component run on,
//! managed transparently by the CF but overridable through a *placement
//! meta-model*.
//!
//! No IXP1200 hardware exists here, so [`IxpModel`] substitutes an
//! analytic cycle model (documented in `DESIGN.md`): each pipeline stage
//! declares per-packet compute cycles and memory references; processors
//! differ in clock rate and in memory-latency hiding (micro-engines
//! overlap stalls across hardware contexts, the StrongARM cannot); and
//! crossing processors costs a scratch-ring handoff. The *relative*
//! ranking of placements — which is what the placement experiment (E7)
//! needs — is preserved.

use std::collections::HashMap;
use std::fmt;

use opencom::error::{Error, Result};

/// The processors of an IXP1200.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Processor {
    /// The StrongARM control processor (runs the control plane; can also
    /// forward packets, slowly).
    StrongArm,
    /// One of the micro-engines (0-based index).
    Microengine(u8),
}

impl fmt::Display for Processor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Processor::StrongArm => write!(f, "sa"),
            Processor::Microengine(i) => write!(f, "ueng{i}"),
        }
    }
}

/// The memory hierarchy levels of the IXP1200.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemoryRegion {
    /// 4 KB on-chip scratchpad (~1 cycle).
    Scratchpad,
    /// 8 MB SRAM (~8 cycles).
    Sram,
    /// 256 MB SDRAM (~33 cycles).
    Sdram,
}

impl MemoryRegion {
    /// Access latency in processor cycles.
    const fn access_cycles(&self) -> u64 {
        match self {
            MemoryRegion::Scratchpad => 1,
            MemoryRegion::Sram => 8,
            MemoryRegion::Sdram => 33,
        }
    }

    /// Capacity in bytes.
    const fn capacity_bytes(&self) -> u64 {
        match self {
            MemoryRegion::Scratchpad => 4 * 1024,
            MemoryRegion::Sram => 8 * 1024 * 1024,
            MemoryRegion::Sdram => 256 * 1024 * 1024,
        }
    }
}

/// Hardware parameters (defaults follow the IXP1200 datasheet).
#[derive(Clone, Copy, Debug)]
struct IxpConfig {
    /// Number of micro-engines.
    microengines: u8,
    /// Hardware contexts per micro-engine (memory-latency hiding depth).
    contexts_per_me: u32,
    /// StrongARM clock in MHz.
    strongarm_mhz: u64,
    /// Micro-engine clock in MHz.
    microengine_mhz: u64,
    /// One-sided scratch-ring handoff cost in cycles when consecutive
    /// stages run on different processors.
    handoff_cycles: u64,
}

impl Default for IxpConfig {
    fn default() -> Self {
        Self {
            microengines: 6,
            contexts_per_me: 4,
            strongarm_mhz: 232,
            microengine_mhz: 200,
            handoff_cycles: 40,
        }
    }
}

/// Per-packet cost profile of one pipeline stage (one component).
#[derive(Clone, Debug)]
pub struct StageProfile {
    /// Stage name (component type).
    pub name: String,
    /// Pure compute cycles per packet.
    pub compute_cycles: u64,
    /// Memory references per packet: `(region, count)`.
    pub mem_refs: Vec<(MemoryRegion, u32)>,
    /// Resident state and where it must live.
    pub state: Option<(MemoryRegion, u64)>,
}

impl StageProfile {
    /// Creates a stage profile with no memory references or state.
    pub fn new(name: impl Into<String>, compute_cycles: u64) -> Self {
        Self {
            name: name.into(),
            compute_cycles,
            mem_refs: Vec::new(),
            state: None,
        }
    }

    /// Adds `count` references to `region` per packet (builder-style).
    pub fn mem(mut self, region: MemoryRegion, count: u32) -> Self {
        self.mem_refs.push((region, count));
        self
    }

    /// Declares resident state of `bytes` in `region` (builder-style).
    pub fn state(mut self, region: MemoryRegion, bytes: u64) -> Self {
        self.state = Some((region, bytes));
        self
    }

    /// Raw memory stall cycles per packet (before latency hiding).
    fn mem_stall_cycles(&self) -> u64 {
        self.mem_refs
            .iter()
            .map(|(region, count)| region.access_cycles() * *count as u64)
            .sum()
    }
}

/// An ordered packet pipeline to be placed onto the chip.
#[derive(Clone, Debug, Default)]
pub struct PipelineSpec {
    /// Stages in packet-flow order.
    pub stages: Vec<StageProfile>,
}

impl PipelineSpec {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a stage (builder-style).
    pub fn stage(mut self, stage: StageProfile) -> Self {
        self.stages.push(stage);
        self
    }
}

/// A complete assignment of pipeline stages to processors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    /// `assignment[i]` is where stage `i` runs.
    pub assignment: Vec<Processor>,
}

/// Built-in placement policies — the intelligence the paper wants the CF
/// to contain, with [`PlacementPolicy::Manual`] as the placement
/// meta-model's override hook.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Everything on the StrongARM (the naive port).
    AllStrongArm,
    /// Stage *i* on micro-engine *i mod N* (ignores stage weight).
    RoundRobinMicroengines,
    /// Greedy load balancing: each stage goes to the processor whose
    /// finishing time (including handoff penalties) stays smallest.
    LoadBalanced,
    /// An explicit user-provided placement (the meta-model override).
    Manual(Placement),
}

/// The outcome of evaluating one placement.
#[derive(Clone, Debug)]
pub struct PlacementReport {
    /// Time per packet on each processor, in nanoseconds (the pipeline is
    /// limited by the slowest).
    pub per_processor_ns: HashMap<Processor, f64>,
    /// The bottleneck processor.
    pub bottleneck: Processor,
    /// Sustained throughput in packets per second.
    pub throughput_pps: f64,
    /// Number of inter-processor handoffs along the pipeline.
    pub handoffs: u32,
}

/// The analytic IXP1200 model.
#[derive(Clone, Copy, Debug, Default)]
pub struct IxpModel {
    /// Hardware parameters.
    config: IxpConfig,
}

impl IxpModel {
    /// Creates a model with default (datasheet) parameters.
    pub fn new() -> Self {
        Self::default()
    }

    fn clock_hz(&self, p: Processor) -> f64 {
        match p {
            Processor::StrongArm => self.config.strongarm_mhz as f64 * 1e6,
            Processor::Microengine(_) => self.config.microengine_mhz as f64 * 1e6,
        }
    }

    /// Per-packet cycles stage `s` costs on processor `p`.
    ///
    /// Micro-engines hide memory stalls across their hardware contexts
    /// (divide by `contexts_per_me`); the StrongARM takes them in full.
    pub fn stage_cycles_on(&self, s: &StageProfile, p: Processor) -> f64 {
        let stalls = s.mem_stall_cycles() as f64;
        match p {
            Processor::StrongArm => s.compute_cycles as f64 + stalls,
            Processor::Microengine(_) => {
                s.compute_cycles as f64 + stalls / self.config.contexts_per_me as f64
            }
        }
    }

    /// Validates a placement's shape and memory-capacity fit.
    ///
    /// # Errors
    ///
    /// * [`Error::StaleReference`] if lengths mismatch or a micro-engine
    ///   index is out of range.
    /// * [`Error::ResourceExhausted`] if the resident state pinned to a
    ///   region exceeds its capacity.
    pub fn validate(&self, spec: &PipelineSpec, placement: &Placement) -> Result<()> {
        if placement.assignment.len() != spec.stages.len() {
            return Err(Error::StaleReference {
                what: format!(
                    "placement covers {} stages, pipeline has {}",
                    placement.assignment.len(),
                    spec.stages.len()
                ),
            });
        }
        for p in &placement.assignment {
            if let Processor::Microengine(i) = p {
                if *i >= self.config.microengines {
                    return Err(Error::StaleReference {
                        what: format!("microengine {i} out of range"),
                    });
                }
            }
        }
        let mut region_use: HashMap<MemoryRegion, u64> = HashMap::new();
        for stage in &spec.stages {
            if let Some((region, bytes)) = stage.state {
                *region_use.entry(region).or_insert(0) += bytes;
            }
        }
        for (region, used) in region_use {
            if used > region.capacity_bytes() {
                return Err(Error::ResourceExhausted {
                    class: format!("ixp-{region:?}"),
                    requested: used,
                    available: region.capacity_bytes(),
                });
            }
        }
        Ok(())
    }

    /// Computes a placement under `policy`.
    pub fn place(&self, spec: &PipelineSpec, policy: &PlacementPolicy) -> Placement {
        match policy {
            PlacementPolicy::AllStrongArm => Placement {
                assignment: vec![Processor::StrongArm; spec.stages.len()],
            },
            PlacementPolicy::RoundRobinMicroengines => Placement {
                assignment: (0..spec.stages.len())
                    .map(|i| Processor::Microengine((i % self.config.microengines as usize) as u8))
                    .collect(),
            },
            PlacementPolicy::LoadBalanced => self.place_load_balanced(spec),
            PlacementPolicy::Manual(p) => p.clone(),
        }
    }

    fn place_load_balanced(&self, spec: &PipelineSpec) -> Placement {
        let mut load_ns: HashMap<Processor, f64> = HashMap::new();
        let mut candidates: Vec<Processor> = (0..self.config.microengines)
            .map(Processor::Microengine)
            .collect();
        candidates.push(Processor::StrongArm);
        let mut assignment: Vec<Processor> = Vec::with_capacity(spec.stages.len());
        for (idx, stage) in spec.stages.iter().enumerate() {
            let mut best: Option<(Processor, f64)> = None;
            for p in &candidates {
                let mut cycles = self.stage_cycles_on(stage, *p);
                if idx > 0 && assignment[idx - 1] != *p {
                    cycles += self.config.handoff_cycles as f64;
                }
                let ns = cycles / self.clock_hz(*p) * 1e9;
                let total = load_ns.get(p).copied().unwrap_or(0.0) + ns;
                match best {
                    Some((_, best_total)) if total >= best_total => {}
                    _ => best = Some((*p, total)),
                }
            }
            let (chosen, total) = best.expect("candidates non-empty");
            load_ns.insert(chosen, total);
            assignment.push(chosen);
        }
        Placement { assignment }
    }

    /// Evaluates throughput for `spec` under `placement`.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::validate`] failures.
    pub fn evaluate(&self, spec: &PipelineSpec, placement: &Placement) -> Result<PlacementReport> {
        self.validate(spec, placement)?;
        let mut per_processor_cycles: HashMap<Processor, f64> = HashMap::new();
        let mut handoffs = 0u32;
        for (idx, stage) in spec.stages.iter().enumerate() {
            let p = placement.assignment[idx];
            let mut cycles = self.stage_cycles_on(stage, p);
            if idx > 0 && placement.assignment[idx - 1] != p {
                handoffs += 1;
                // Producer pays the enqueue, consumer pays the dequeue.
                let prev = placement.assignment[idx - 1];
                *per_processor_cycles.entry(prev).or_insert(0.0) +=
                    self.config.handoff_cycles as f64;
                cycles += self.config.handoff_cycles as f64;
            }
            *per_processor_cycles.entry(p).or_insert(0.0) += cycles;
        }
        let per_processor_ns: HashMap<Processor, f64> = per_processor_cycles
            .iter()
            .map(|(p, cycles)| (*p, cycles / self.clock_hz(*p) * 1e9))
            .collect();
        let (&bottleneck, &worst_ns) = per_processor_ns
            .iter()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("pipeline non-empty");
        Ok(PlacementReport {
            per_processor_ns: per_processor_ns.clone(),
            bottleneck,
            throughput_pps: 1e9 / worst_ns,
            handoffs,
        })
    }
}

/// A representative IPv4 forwarding pipeline with literature-flavoured
/// per-stage costs, used by tests, examples, and the placement bench.
pub fn reference_forwarding_pipeline() -> PipelineSpec {
    PipelineSpec::new()
        .stage(StageProfile::new("rx-dma", 30).mem(MemoryRegion::Sdram, 2))
        .stage(StageProfile::new("proto-recognise", 20).mem(MemoryRegion::Scratchpad, 2))
        .stage(
            StageProfile::new("ipv4-verify", 45)
                .mem(MemoryRegion::Sdram, 1)
                .mem(MemoryRegion::Scratchpad, 2),
        )
        .stage(
            StageProfile::new("route-lookup", 60)
                .mem(MemoryRegion::Sram, 4)
                .state(MemoryRegion::Sram, 512 * 1024),
        )
        .stage(StageProfile::new("ttl-checksum", 25).mem(MemoryRegion::Sdram, 1))
        .stage(
            StageProfile::new("queue", 20)
                .mem(MemoryRegion::Sram, 2)
                .state(MemoryRegion::Sram, 64 * 1024),
        )
        .stage(StageProfile::new("tx-schedule", 35).mem(MemoryRegion::Scratchpad, 2))
        .stage(StageProfile::new("tx-dma", 30).mem(MemoryRegion::Sdram, 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microengines_hide_memory_latency() {
        let model = IxpModel::new();
        let stage = StageProfile::new("s", 10).mem(MemoryRegion::Sdram, 4); // 132 stall cycles
        let on_sa = model.stage_cycles_on(&stage, Processor::StrongArm);
        let on_me = model.stage_cycles_on(&stage, Processor::Microengine(0));
        assert_eq!(on_sa, 10.0 + 132.0);
        assert_eq!(on_me, 10.0 + 33.0);
    }

    #[test]
    fn load_balanced_beats_all_strongarm() {
        let model = IxpModel::new();
        let spec = reference_forwarding_pipeline();
        let sa = model.place(&spec, &PlacementPolicy::AllStrongArm);
        let lb = model.place(&spec, &PlacementPolicy::LoadBalanced);
        let sa_report = model.evaluate(&spec, &sa).unwrap();
        let lb_report = model.evaluate(&spec, &lb).unwrap();
        assert!(
            lb_report.throughput_pps > 2.0 * sa_report.throughput_pps,
            "parallel placement should win clearly: {} vs {}",
            lb_report.throughput_pps,
            sa_report.throughput_pps
        );
    }

    #[test]
    fn load_balanced_not_worse_than_round_robin() {
        let model = IxpModel::new();
        let spec = reference_forwarding_pipeline();
        let rr = model.place(&spec, &PlacementPolicy::RoundRobinMicroengines);
        let lb = model.place(&spec, &PlacementPolicy::LoadBalanced);
        let rr_t = model.evaluate(&spec, &rr).unwrap().throughput_pps;
        let lb_t = model.evaluate(&spec, &lb).unwrap().throughput_pps;
        assert!(
            lb_t >= rr_t * 0.95,
            "greedy ({lb_t}) must not lose badly to rr ({rr_t})"
        );
    }

    #[test]
    fn all_strongarm_has_no_handoffs() {
        let model = IxpModel::new();
        let spec = reference_forwarding_pipeline();
        let sa = model.place(&spec, &PlacementPolicy::AllStrongArm);
        let report = model.evaluate(&spec, &sa).unwrap();
        assert_eq!(report.handoffs, 0);
        assert_eq!(report.bottleneck, Processor::StrongArm);
    }

    #[test]
    fn manual_placement_is_respected() {
        let model = IxpModel::new();
        let spec = PipelineSpec::new()
            .stage(StageProfile::new("a", 10))
            .stage(StageProfile::new("b", 10));
        let manual = Placement {
            assignment: vec![Processor::Microengine(2), Processor::Microengine(5)],
        };
        let placed = model.place(&spec, &PlacementPolicy::Manual(manual.clone()));
        assert_eq!(placed, manual);
        let report = model.evaluate(&spec, &placed).unwrap();
        assert_eq!(report.handoffs, 1);
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        let model = IxpModel::new();
        let spec = PipelineSpec::new().stage(StageProfile::new("a", 10));
        let short = Placement { assignment: vec![] };
        assert!(model.validate(&spec, &short).is_err());
        let bad_me = Placement {
            assignment: vec![Processor::Microengine(9)],
        };
        assert!(model.validate(&spec, &bad_me).is_err());
    }

    #[test]
    fn validate_rejects_oversized_state() {
        let model = IxpModel::new();
        let spec = PipelineSpec::new()
            .stage(StageProfile::new("fat", 1).state(MemoryRegion::Scratchpad, 64 * 1024));
        let p = model.place(&spec, &PlacementPolicy::AllStrongArm);
        let err = model.evaluate(&spec, &p).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted { .. }));
    }

    #[test]
    fn throughput_is_bottleneck_bound() {
        let model = IxpModel::new();
        // Two equal stages on different MEs: throughput set by one stage,
        // not the sum.
        let spec = PipelineSpec::new()
            .stage(StageProfile::new("a", 200))
            .stage(StageProfile::new("b", 200));
        let split = Placement {
            assignment: vec![Processor::Microengine(0), Processor::Microengine(1)],
        };
        let report = model.evaluate(&spec, &split).unwrap();
        let expected = 200e6 / 240.0; // 200 MHz / (200 compute + 40 handoff)
        let ratio = report.throughput_pps / expected;
        assert!(
            (0.99..=1.01).contains(&ratio),
            "got {}",
            report.throughput_pps
        );
    }
}
