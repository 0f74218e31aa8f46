//! Offline stand-in for `criterion`.
//!
//! A miniature wall-clock benchmark harness with criterion's API shape:
//! `benchmark_group`, `bench_function` / `bench_with_input`, `Bencher`
//! with `iter` / `iter_batched`, `BenchmarkId`, `Throughput`, and the
//! `criterion_group!` / `criterion_main!` macros. It calibrates an
//! iteration count against a per-bench time budget and prints
//! `<group>/<name>  time: <mean> ns/iter` lines instead of criterion's
//! statistical report — enough to track the perf trajectory offline.
//!
//! Like real criterion, passing `--test` on the bench binary's command
//! line (`cargo bench -- --test`) switches to smoke mode: every
//! measured routine runs exactly once, so CI can execute bench *bodies*
//! (not just compile them) in seconds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Every reported series, `(name, ns_per_iter)`, collected for the
/// machine-readable report (see [`flush_json_report`]).
static RESULTS: Mutex<Vec<(String, f64)>> = Mutex::new(Vec::new());

/// Writes every series reported so far as a JSON object (series name →
/// mean ns/iter, keys sorted) to the path in `NETKIT_BENCH_JSON`, if
/// set; a no-op otherwise. `criterion_main!` calls this after the last
/// group, so bench runners get a machine-readable report alongside the
/// printed lines without touching bench code.
///
/// A `meta/cpus` key records the CPU count the run saw
/// (`std::thread::available_parallelism`), so a report from a 1-CPU
/// container — where multi-worker series measure coordination only,
/// not parallel speed-up — is machine-distinguishable from a real
/// multi-core run.
pub fn flush_json_report() {
    let Ok(path) = std::env::var("NETKIT_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let mut results = RESULTS.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    results.push(("meta/cpus".to_string(), cpus as f64));
    results.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::from("{\n");
    for (i, (name, ns)) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        // Series names are ASCII identifiers with `/` separators; the
        // only JSON-escaping they could ever need is the quote itself.
        let escaped = name.replace('\\', "\\\\").replace('"', "\\\"");
        out.push_str(&format!("  \"{escaped}\": {ns:.1}{sep}\n"));
    }
    out.push_str("}\n");
    if let Err(err) = std::fs::write(&path, out) {
        eprintln!("criterion shim: cannot write {path}: {err}");
    }
}

/// How `iter_batched` amortizes setup between measurements. The shim
/// times the routine per batch element either way; the variants exist
/// for API compatibility.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
}

/// Units for throughput reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
}

/// A benchmark identifier: function name plus a parameter rendering.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Creates an id like `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        Self {
            name: format!("{}/{}", name.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self {
            name: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self { name: s }
    }
}

/// Passed to benchmark closures; runs and times the measured routine.
pub struct Bencher {
    /// Mean nanoseconds per iteration, recorded by `iter*`.
    ns_per_iter: f64,
    budget: Duration,
    /// Smoke mode (`--test`): run the routine once, skip calibration.
    test_mode: bool,
}

impl Bencher {
    fn new(budget: Duration, test_mode: bool) -> Self {
        Self {
            ns_per_iter: f64::NAN,
            budget,
            test_mode,
        }
    }

    /// Times `routine` repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.test_mode {
            let start = Instant::now();
            black_box(routine());
            self.ns_per_iter = start.elapsed().as_nanos() as f64;
            return;
        }
        // Calibrate: double iterations until the batch is measurable.
        let mut iters: u64 = 1;
        let per_iter = loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(1) || iters >= 1 << 24 {
                break elapsed.as_nanos() as f64 / iters as f64;
            }
            iters *= 2;
        };
        // Measure: as many batches as fit the budget, keep the mean.
        let batches = (self.budget.as_nanos() as f64 / (per_iter * iters as f64 + 1.0))
            .clamp(1.0, 64.0) as u64;
        let mut total_ns = 0f64;
        let mut total_iters = 0u64;
        for _ in 0..batches {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            total_ns += start.elapsed().as_nanos() as f64;
            total_iters += iters;
        }
        self.ns_per_iter = total_ns / total_iters as f64;
    }

    /// Times `routine` over inputs produced by `setup`, excluding setup
    /// cost from the calibration target (setup is still executed).
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        if self.test_mode {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.ns_per_iter = start.elapsed().as_nanos() as f64;
            return;
        }
        let mut iters: u64 = 1;
        let per_iter = loop {
            let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(1) || iters >= 1 << 22 {
                break elapsed.as_nanos() as f64 / iters as f64;
            }
            iters *= 2;
        };
        let batches = (self.budget.as_nanos() as f64 / (per_iter * iters as f64 + 1.0))
            .clamp(1.0, 64.0) as u64;
        let mut total_ns = 0f64;
        let mut total_iters = 0u64;
        for _ in 0..batches {
            let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            total_ns += start.elapsed().as_nanos() as f64;
            total_iters += iters;
        }
        self.ns_per_iter = total_ns / total_iters as f64;
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declares the work performed per iteration (reported, not used in
    /// timing).
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Accepted for API compatibility; the shim keys everything off the
    /// per-bench time budget instead.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Sets the per-bench measurement budget.
    pub fn measurement_time(&mut self, budget: Duration) -> &mut Self {
        self.criterion.budget = budget;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher::new(self.criterion.budget, self.criterion.test_mode);
        f(&mut b);
        self.report(&id, &b);
        self
    }

    /// Runs one benchmark parameterised by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut b = Bencher::new(self.criterion.budget, self.criterion.test_mode);
        f(&mut b, input);
        self.report(&id, &b);
        self
    }

    fn report(&self, id: &BenchmarkId, b: &Bencher) {
        RESULTS
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((format!("{}/{}", self.name, id.name), b.ns_per_iter));
        let mut line = format!(
            "{}/{:<40} time: {:>12.1} ns/iter",
            self.name, id.name, b.ns_per_iter
        );
        if let Some(Throughput::Elements(count)) = self.throughput {
            if count > 0 && b.ns_per_iter.is_finite() && b.ns_per_iter > 0.0 {
                let rate = count as f64 * 1e9 / b.ns_per_iter;
                line.push_str(&format!("  ({rate:>14.0} elem/s)"));
            }
        }
        println!("{line}");
    }

    /// Ends the group.
    pub fn finish(&mut self) {}
}

/// The benchmark harness entry point.
pub struct Criterion {
    budget: Duration,
    /// Smoke mode: run every measured routine exactly once (set by a
    /// `--test` argument, as with real criterion's `cargo bench -- --test`).
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            budget: Duration::from_millis(200),
            test_mode: std::env::args().any(|a| a == "--test"),
        }
    }
}

impl Criterion {
    /// Opens a named group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            criterion: self,
            throughput: None,
        }
    }
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the benchmark binary's `main`. After the last group runs,
/// the collected series flush to `NETKIT_BENCH_JSON` (if set) via
/// [`flush_json_report`].
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::flush_json_report();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mode_runs_each_routine_exactly_once() {
        use std::cell::Cell;
        let mut c = Criterion {
            budget: Duration::from_millis(5),
            test_mode: true,
        };
        let iters = Cell::new(0u32);
        let batched = Cell::new(0u32);
        let mut group = c.benchmark_group("smoke");
        group.bench_function("iter", |b| b.iter(|| iters.set(iters.get() + 1)));
        group.bench_function("batched", |b| {
            b.iter_batched(
                || (),
                |()| batched.set(batched.get() + 1),
                BatchSize::SmallInput,
            )
        });
        group.finish();
        assert_eq!((iters.get(), batched.get()), (1, 1));
    }

    #[test]
    fn json_report_flushes_reported_series() {
        let path = std::env::temp_dir().join(format!("criterion-shim-{}.json", std::process::id()));
        std::env::set_var("NETKIT_BENCH_JSON", &path);
        let mut c = Criterion {
            budget: Duration::from_millis(5),
            test_mode: true,
        };
        let mut group = c.benchmark_group("json");
        group.bench_function("noop", |b| b.iter(|| black_box(1u64)));
        group.finish();
        flush_json_report();
        std::env::remove_var("NETKIT_BENCH_JSON");
        let body = std::fs::read_to_string(&path).expect("report written");
        let _ = std::fs::remove_file(&path);
        assert!(body.starts_with('{') && body.ends_with("}\n"), "{body}");
        assert!(body.contains("\"json/noop\": "), "{body}");
        assert!(body.contains("\"meta/cpus\": "), "{body}");
    }

    #[test]
    fn bench_runs_and_reports() {
        let mut c = Criterion {
            budget: Duration::from_millis(5),
            test_mode: false,
        };
        let mut group = c.benchmark_group("smoke");
        group.throughput(Throughput::Elements(1));
        group.bench_function("add", |b| b.iter(|| black_box(1u64) + black_box(2u64)));
        group.bench_with_input(BenchmarkId::new("mul", 3), &3u64, |b, &n| {
            b.iter_batched(|| n, |v| v * 2, BatchSize::SmallInput)
        });
        group.finish();
    }
}
