//! Aggregate counters and latency records for a simulation run.

use std::fmt;

/// Maximum number of per-packet latency samples retained (reservoir cap;
/// beyond it new samples are dropped — fine for the experiments, which
/// run well below the cap).
const MAX_SAMPLES: usize = 1 << 20;

/// Counters accumulated by a [`Simulator`](crate::Simulator) run.
#[derive(Debug, Default, Clone)]
pub struct SimStats {
    /// Packets injected by traffic sources.
    pub injected: u64,
    /// Packets delivered to a final destination
    /// ([`NodeCtx::deliver_local`](crate::node::NodeCtx::deliver_local)).
    pub delivered: u64,
    /// Packets dropped on full link queues.
    pub link_drops: u64,
    /// Packets dropped inside nodes (TTL expiry, no route, queue policy).
    pub node_drops: u64,
    /// Packet emissions onto links (hop count contributions).
    pub forwarded: u64,
    latency_ns: Vec<u64>,
}

impl SimStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_delivery(&mut self, latency_ns: u64) {
        self.delivered += 1;
        if self.latency_ns.len() < MAX_SAMPLES {
            self.latency_ns.push(latency_ns);
        }
    }

    /// End-to-end latency samples (injection → delivery), in nanoseconds.
    pub fn latency_samples(&self) -> &[u64] {
        &self.latency_ns
    }

    /// Mean delivery latency, or `None` if nothing was delivered.
    pub fn mean_latency_ns(&self) -> Option<f64> {
        if self.latency_ns.is_empty() {
            return None;
        }
        Some(self.latency_ns.iter().map(|v| *v as f64).sum::<f64>() / self.latency_ns.len() as f64)
    }

    /// The `p`-th latency percentile (0.0–100.0), or `None` if no samples.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn latency_percentile_ns(&self, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.latency_ns.is_empty() {
            return None;
        }
        let mut sorted = self.latency_ns.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[rank])
    }

    /// Fraction of injected packets that were delivered.
    fn delivery_ratio(&self) -> f64 {
        if self.injected == 0 {
            return 0.0;
        }
        self.delivered as f64 / self.injected as f64
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected={} delivered={} ({:.1}%) link_drops={} node_drops={} forwarded={}",
            self.injected,
            self.delivered,
            self.delivery_ratio() * 100.0,
            self.link_drops,
            self.node_drops,
            self.forwarded
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_mean() {
        let mut s = SimStats::new();
        for v in [10, 20, 30, 40, 50] {
            s.record_delivery(v);
        }
        assert_eq!(s.delivered, 5);
        assert_eq!(s.mean_latency_ns(), Some(30.0));
        assert_eq!(s.latency_percentile_ns(0.0), Some(10));
        assert_eq!(s.latency_percentile_ns(50.0), Some(30));
        assert_eq!(s.latency_percentile_ns(100.0), Some(50));
    }

    #[test]
    fn empty_stats_have_no_latency() {
        let s = SimStats::new();
        assert!(s.mean_latency_ns().is_none());
        assert!(s.latency_percentile_ns(50.0).is_none());
        assert_eq!(s.delivery_ratio(), 0.0);
    }

    #[test]
    fn delivery_ratio_counts_injections() {
        let mut s = SimStats::new();
        s.injected = 4;
        s.record_delivery(5);
        assert_eq!(s.delivery_ratio(), 0.25);
    }
}
