//! Order statistics over timing samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it. `p` is
/// clamped to `[0, 100]`; an empty slice yields 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle samples for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The distance between the first and third quartile over the median —
/// the pass-to-pass spread `compare` judges against a metric's bound.
/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the benchmark driver's measure): interpolated between the
/// order statistics at ranks `(n + 1) / 4` and `3 (n + 1) / 4`. 0 when
/// fewer than two values or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    let n = values.len();
    if n < 2 || m == 0.0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / m.abs()
}

/// A bag of timing samples in nanoseconds, each tagged with the
/// stretch of the pass it was taken in (0 where nothing marks
/// stretches), so the pass can weigh it by the host speed of that
/// stretch afterwards.
#[derive(Default, Clone)]
pub struct Samples(Vec<(f64, u32)>);

impl Samples {
    /// A bag that holds `room` samples before it reallocates. A growing
    /// vector doubles — for a moment the old and the new copy both
    /// exist — so where the sample count of a pass straddles a power of
    /// two, `peak_rss_mib` would jump by the size of the log between
    /// one run and the next. Room reserved and not used is never
    /// touched, so it is not resident.
    pub fn with_room(room: usize) -> Self {
        Self(Vec::with_capacity(room))
    }

    pub fn push(&mut self, ns: u64, stretch: usize) {
        self.0.push((ns as f64, stretch as u32));
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// `(nanoseconds, stretch)` of every sample, in the order taken.
    pub fn iter(&self) -> impl Iterator<Item = (f64, usize)> + '_ {
        self.0.iter().map(|&(ns, stretch)| (ns, stretch as usize))
    }

    fn percentile_us(&self, p: f64, weigh: impl Fn(f64, usize) -> f64) -> f64 {
        let mut v: Vec<f64> = self
            .iter()
            .map(|(ns, stretch)| weigh(ns, stretch))
            .collect();
        v.sort_by(f64::total_cmp);
        percentile(&v, p) / 1e3
    }

    /// Percentile in microseconds, as the wall clock saw the samples.
    pub fn us(&self, p: f64) -> f64 {
        self.percentile_us(p, |ns, _| ns)
    }

    /// Percentile in microseconds with every sample multiplied by the
    /// host speed of its stretch (a faster host shortens durations).
    pub fn us_at_reference(&self, p: f64, speeds: &[f64]) -> f64 {
        self.percentile_us(p, |ns, stretch| ns * speeds[stretch])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Ten samples: p99 is the maximum, p50 the fifth.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_handles_even_odd_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        // Three values: the quartiles are the extremes.
        assert_eq!(spread(&[90.0, 100.0, 110.0]), 0.2);
        // Five: halfway into the outer pairs (Python: [85.0, 100.0, 125.0]).
        assert_eq!(spread(&[100.0, 80.0, 90.0, 120.0, 130.0]), 0.4);
        // Ten, as the driver takes them (Python: [2.75, 5.5, 8.25]).
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), 1.0);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn samples_report_microseconds() {
        let mut s = Samples::default();
        for (ns, stretch) in [(1_000, 0), (2_000, 0), (3_000, 1), (4_000, 1)] {
            s.push(ns, stretch);
        }
        assert_eq!(s.us(50.0), 2.0);
        assert_eq!(s.us(100.0), 4.0);
        // Stretch 1 ran on a host half as fast as the reference.
        assert_eq!(s.us_at_reference(100.0, &[1.0, 0.5]), 2.0);
        assert_eq!(s.us_at_reference(50.0, &[1.0, 0.5]), 1.5);
    }
}
