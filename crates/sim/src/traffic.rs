//! Synthetic traffic generators.
//!
//! Sources substitute for the production traces the paper's testbed would
//! have offered (see DESIGN.md §2): what the experiments need is
//! *controlled, reproducible load*, so every generator draws from the
//! simulator's seeded RNG and is deterministic for a given seed.

use netkit_packet::packet::{Packet, PacketBuilder};
use rand::rngs::SmallRng;
use rand::Rng;

/// Builds the `seq`-th packet of a flow.
pub type PacketFactory = Box<dyn FnMut(u64) -> Packet + Send>;

/// A convenience factory for a fixed-size UDP flow between two addresses.
pub fn udp_flow(
    src: &str,
    dst: &str,
    src_port: u16,
    dst_port: u16,
    payload: usize,
) -> PacketFactory {
    let src = src.to_string();
    let dst = dst.to_string();
    Box::new(move |_seq| {
        PacketBuilder::udp_v4(&src, &dst, src_port, dst_port)
            .payload_len(payload)
            .build()
    })
}

/// A source of timed packet injections.
pub trait TrafficGen: Send {
    /// Returns `(delay from the previous injection, packet)`, or `None`
    /// when the flow is exhausted.
    fn next(&mut self, rng: &mut SmallRng) -> Option<(u64, Packet)>;
}

/// Constant-bit-rate: one packet every `interval_ns`.
pub struct CbrGen {
    interval_ns: u64,
    remaining: u64,
    seq: u64,
    factory: PacketFactory,
}

impl CbrGen {
    /// `count` packets, one every `interval_ns`.
    pub fn new(interval_ns: u64, count: u64, factory: PacketFactory) -> Self {
        Self {
            interval_ns,
            remaining: count,
            seq: 0,
            factory,
        }
    }
}

impl TrafficGen for CbrGen {
    fn next(&mut self, _rng: &mut SmallRng) -> Option<(u64, Packet)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let pkt = (self.factory)(self.seq);
        self.seq += 1;
        Some((self.interval_ns, pkt))
    }
}

impl std::fmt::Debug for CbrGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CbrGen(every {}ns, {} left)",
            self.interval_ns, self.remaining
        )
    }
}

/// Poisson arrivals: exponentially distributed inter-arrival times with
/// the given mean.
pub struct PoissonGen {
    mean_interval_ns: f64,
    remaining: u64,
    seq: u64,
    factory: PacketFactory,
}

impl PoissonGen {
    /// `count` packets with exponential gaps of mean `mean_interval_ns`.
    pub fn new(mean_interval_ns: u64, count: u64, factory: PacketFactory) -> Self {
        Self {
            mean_interval_ns: mean_interval_ns as f64,
            remaining: count,
            seq: 0,
            factory,
        }
    }
}

impl TrafficGen for PoissonGen {
    fn next(&mut self, rng: &mut SmallRng) -> Option<(u64, Packet)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let gap = (-u.ln() * self.mean_interval_ns).round() as u64;
        let pkt = (self.factory)(self.seq);
        self.seq += 1;
        Some((gap, pkt))
    }
}

impl std::fmt::Debug for PoissonGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PoissonGen(mean {}ns, {} left)",
            self.mean_interval_ns, self.remaining
        )
    }
}

/// Diurnal load: a CBR whose rate swings sinusoidally over a period —
/// the city's day/night cycle. The instantaneous gap is
/// `base_interval_ns / (1 + amplitude * sin(2π·t/period))`, so
/// `amplitude` 0.5 means peak hour runs 1.5× the base rate and the
/// small hours run 0.5×. Purely a clock shape: flow identity comes
/// from the supplied factory.
pub struct DiurnalGen {
    base_interval_ns: u64,
    period_ns: u64,
    amplitude: f64,
    elapsed_ns: u64,
    remaining: u64,
    seq: u64,
    factory: PacketFactory,
}

impl DiurnalGen {
    /// `count` packets at base gap `base_interval_ns`, rate modulated
    /// by `amplitude` (clamped to `[0, 0.95]`) over `period_ns`.
    pub fn new(
        base_interval_ns: u64,
        period_ns: u64,
        amplitude: f64,
        count: u64,
        factory: PacketFactory,
    ) -> Self {
        Self {
            base_interval_ns: base_interval_ns.max(1),
            period_ns: period_ns.max(1),
            amplitude: amplitude.clamp(0.0, 0.95),
            elapsed_ns: 0,
            remaining: count,
            seq: 0,
            factory,
        }
    }
}

impl TrafficGen for DiurnalGen {
    fn next(&mut self, _rng: &mut SmallRng) -> Option<(u64, Packet)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let phase = (self.elapsed_ns % self.period_ns) as f64 / self.period_ns as f64;
        let rate = 1.0 + self.amplitude * (2.0 * std::f64::consts::PI * phase).sin();
        let gap = ((self.base_interval_ns as f64 / rate).round() as u64).max(1);
        self.elapsed_ns += gap;
        let pkt = (self.factory)(self.seq);
        self.seq += 1;
        Some((gap, pkt))
    }
}

impl std::fmt::Debug for DiurnalGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DiurnalGen(base {}ns, period {}ns, {} left)",
            self.base_interval_ns, self.period_ns, self.remaining
        )
    }
}

/// Flash crowd: silence until `onset_ns` of emitted time, then a
/// `spike`-times-compressed storm for `spike_ns`, then the base rate —
/// the news-event shape that makes one destination (and, with
/// colocated flows, one shard) suddenly hot. The silence matters: the
/// crowd's flows must not exist before the onset, or the target's
/// controller would spread them before the storm ever forms.
pub struct FlashCrowdGen {
    base_interval_ns: u64,
    onset_ns: u64,
    spike_ns: u64,
    spike: u64,
    elapsed_ns: u64,
    remaining: u64,
    seq: u64,
    factory: PacketFactory,
}

impl FlashCrowdGen {
    /// `count` packets, silent until `onset_ns`, then emitted at gap
    /// `base_interval_ns` compressed by `spike`× (≥ 1) while inside
    /// the window `[onset_ns, onset_ns + spike_ns)` and at the base
    /// gap after it closes.
    pub fn new(
        base_interval_ns: u64,
        onset_ns: u64,
        spike_ns: u64,
        spike: u64,
        count: u64,
        factory: PacketFactory,
    ) -> Self {
        Self {
            base_interval_ns: base_interval_ns.max(1),
            onset_ns,
            spike_ns,
            spike: spike.max(1),
            elapsed_ns: 0,
            remaining: count,
            seq: 0,
            factory,
        }
    }

    /// True while `t` falls in the spike window.
    fn spiking(&self, t: u64) -> bool {
        t >= self.onset_ns && t < self.onset_ns.saturating_add(self.spike_ns)
    }
}

impl TrafficGen for FlashCrowdGen {
    fn next(&mut self, _rng: &mut SmallRng) -> Option<(u64, Packet)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // A crowd is a step change: silent until onset, then the first
        // packet lands exactly at the onset instant and the rest follow
        // at the compressed gap while the window lasts.
        let gap = if self.elapsed_ns < self.onset_ns {
            self.onset_ns - self.elapsed_ns
        } else if self.spiking(self.elapsed_ns) {
            (self.base_interval_ns / self.spike).max(1)
        } else {
            self.base_interval_ns
        };
        self.elapsed_ns += gap;
        let pkt = (self.factory)(self.seq);
        self.seq += 1;
        Some((gap, pkt))
    }
}

impl std::fmt::Debug for FlashCrowdGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FlashCrowdGen(spike {}x at {}ns, {} left)",
            self.spike, self.onset_ns, self.remaining
        )
    }
}

/// Elephants and mice: each emission is drawn from one of two packet
/// populations — with probability `elephant_p` the next packet comes
/// from the elephant factory (few flows, big payloads), otherwise from
/// the mice factory (many small flows). Gaps are exponential like
/// [`PoissonGen`]. Deterministic for a seed: both draws come from the
/// simulator's seeded RNG.
pub struct ElephantMiceGen {
    mean_interval_ns: f64,
    elephant_p: f64,
    remaining: u64,
    elephant_seq: u64,
    mice_seq: u64,
    elephants: PacketFactory,
    mice: PacketFactory,
}

impl ElephantMiceGen {
    /// `count` packets at mean gap `mean_interval_ns`; a fraction
    /// `elephant_p` (clamped to `[0, 1]`) of emissions come from
    /// `elephants`, the rest from `mice`. Each factory sees its own
    /// sequence numbers, so it can fan its population over flows.
    pub fn new(
        mean_interval_ns: u64,
        elephant_p: f64,
        count: u64,
        elephants: PacketFactory,
        mice: PacketFactory,
    ) -> Self {
        Self {
            mean_interval_ns: mean_interval_ns.max(1) as f64,
            elephant_p: elephant_p.clamp(0.0, 1.0),
            remaining: count,
            elephant_seq: 0,
            mice_seq: 0,
            elephants,
            mice,
        }
    }
}

impl TrafficGen for ElephantMiceGen {
    fn next(&mut self, rng: &mut SmallRng) -> Option<(u64, Packet)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let gap = (-u.ln() * self.mean_interval_ns).round() as u64;
        let pkt = if rng.gen::<f64>() < self.elephant_p {
            let pkt = (self.elephants)(self.elephant_seq);
            self.elephant_seq += 1;
            pkt
        } else {
            let pkt = (self.mice)(self.mice_seq);
            self.mice_seq += 1;
            pkt
        };
        Some((gap, pkt))
    }
}

impl std::fmt::Debug for ElephantMiceGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ElephantMiceGen(p {}, {} left)",
            self.elephant_p, self.remaining
        )
    }
}

/// Shifts another generator's start: the first emission gains
/// `delay_ns`, later gaps pass through — how a scenario schedules a
/// phase (e.g. an elephant wave) to open mid-run.
pub struct Delayed {
    delay_ns: Option<u64>,
    inner: Box<dyn TrafficGen>,
}

impl Delayed {
    /// Delays `inner`'s first packet by `delay_ns`.
    pub fn new(delay_ns: u64, inner: Box<dyn TrafficGen>) -> Self {
        Self {
            delay_ns: Some(delay_ns),
            inner,
        }
    }
}

impl TrafficGen for Delayed {
    fn next(&mut self, rng: &mut SmallRng) -> Option<(u64, Packet)> {
        let (gap, pkt) = self.inner.next(rng)?;
        let extra = self.delay_ns.take().unwrap_or(0);
        Some((gap.saturating_add(extra), pkt))
    }
}

impl std::fmt::Debug for Delayed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Delayed({:?}ns)", self.delay_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn cbr_emits_fixed_gaps_and_count() {
        let mut g = CbrGen::new(1000, 3, udp_flow("10.0.0.1", "10.0.0.2", 1, 2, 64));
        let mut r = rng();
        let mut gaps = Vec::new();
        while let Some((gap, pkt)) = g.next(&mut r) {
            gaps.push(gap);
            assert_eq!(pkt.udp_payload_v4().unwrap().len(), 64);
        }
        assert_eq!(gaps, [1000, 1000, 1000]);
    }

    #[test]
    fn poisson_mean_gap_is_close() {
        let mut g = PoissonGen::new(1000, 4000, udp_flow("10.0.0.1", "10.0.0.2", 1, 2, 8));
        let mut r = rng();
        let mut total = 0u64;
        let mut n = 0u64;
        while let Some((gap, _)) = g.next(&mut r) {
            total += gap;
            n += 1;
        }
        assert_eq!(n, 4000);
        let mean = total as f64 / n as f64;
        assert!((800.0..1200.0).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let run = || {
            let mut g = PoissonGen::new(500, 100, udp_flow("10.0.0.1", "10.0.0.2", 1, 2, 8));
            let mut r = rng();
            let mut gaps = Vec::new();
            while let Some((gap, _)) = g.next(&mut r) {
                gaps.push(gap);
            }
            gaps
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn factory_sequences() {
        let mut seqs = Vec::new();
        let mut g = CbrGen::new(
            1,
            3,
            Box::new(move |seq| {
                PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1, (seq + 1) as u16).build()
            }),
        );
        let mut r = rng();
        while let Some((_, pkt)) = g.next(&mut r) {
            seqs.push(pkt.udp_v4().unwrap().dst_port);
        }
        assert_eq!(seqs, [1, 2, 3]);
    }

    #[test]
    fn diurnal_swings_rate_over_the_period() {
        // Period long enough to see both halves of the sine.
        let mut g = DiurnalGen::new(
            1000,
            1_000_000,
            0.5,
            2000,
            udp_flow("10.0.0.1", "10.0.0.2", 1, 2, 8),
        );
        let mut r = rng();
        let mut gaps = Vec::new();
        while let Some((gap, _)) = g.next(&mut r) {
            gaps.push(gap);
        }
        assert_eq!(gaps.len(), 2000);
        let min = *gaps.iter().min().unwrap();
        let max = *gaps.iter().max().unwrap();
        assert!(min < 1000, "peak hour gap compressed, got {min}");
        assert!(max > 1000, "night gap stretched, got {max}");
        // Deterministic: no RNG involved, a rerun matches exactly.
        let mut g2 = DiurnalGen::new(
            1000,
            1_000_000,
            0.5,
            2000,
            udp_flow("10.0.0.1", "10.0.0.2", 1, 2, 8),
        );
        let mut r2 = rng();
        let gaps2: Vec<u64> = std::iter::from_fn(|| g2.next(&mut r2).map(|(g, _)| g)).collect();
        assert_eq!(gaps, gaps2);
    }

    #[test]
    fn flash_crowd_compresses_the_spike_window() {
        let mut g = FlashCrowdGen::new(
            1000,
            100_000,
            50_000,
            10,
            1000,
            udp_flow("10.0.0.1", "10.0.0.2", 1, 2, 8),
        );
        let mut r = rng();
        let mut t = 0u64;
        let mut in_spike = 0u64;
        let mut outside = 0u64;
        while let Some((gap, _)) = g.next(&mut r) {
            t += gap;
            if (100_000..150_000).contains(&t) {
                in_spike += 1;
            } else {
                outside += 1;
            }
        }
        assert_eq!(in_spike + outside, 1000);
        // 50k ns at gap 100 holds ~500 packets; the same window at the
        // base rate would hold ~50.
        assert!(in_spike > 300, "spike window must be dense, got {in_spike}");
    }

    #[test]
    fn elephant_mice_mixes_both_populations() {
        let mut g = ElephantMiceGen::new(
            1000,
            0.2,
            1000,
            udp_flow("10.0.0.1", "10.0.0.9", 7, 443, 1024),
            Box::new(|seq| {
                PacketBuilder::udp_v4("10.0.0.1", "10.0.0.9", 10_000 + (seq % 500) as u16, 80)
                    .payload_len(64)
                    .build()
            }),
        );
        let mut r = rng();
        let mut heavy = 0u64;
        let mut light = 0u64;
        while let Some((_, pkt)) = g.next(&mut r) {
            if pkt.udp_payload_v4().unwrap().len() == 1024 {
                heavy += 1;
            } else {
                light += 1;
            }
        }
        assert_eq!(heavy + light, 1000);
        assert!((100..350).contains(&heavy), "p=0.2 of 1000, got {heavy}");
        assert!(light > heavy);
    }
}
