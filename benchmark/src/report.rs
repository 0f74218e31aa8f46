//! Metric definitions, the one result schema, the printed table, the
//! committed history, and `compare`.
//!
//! One schema for every result:
//! `{meta: {git_sha, nproc, rustc, profile, date, seed, workers},
//!   workloads: {<name>: {e2e, layers, ops: {attempted, failed}}}}`
//! where `e2e` and `layers` map a metric name to
//! `{value, unit[, passes]}`.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::process::Command;

use crate::gen::Traffic;
use crate::json::Json;
use crate::stats;
use crate::workload::{Workload, WORKERS};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the baseline's median by which the metric may worsen
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: f64,
    /// The one workload whose own rounds measure the metric; `None`
    /// where every workload's do (end-to-end metrics only).
    pub home: Option<Workload>,
}

impl Metric {
    /// True when an untraced pass of `workload` measures the metric.
    pub fn at(&self, workload: Workload) -> bool {
        self.home.is_none_or(|home| home == workload)
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    home: Option<Workload>,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        home,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    e2e(name, unit, better, 0.0, None)
}

/// The end-to-end metrics, measured with tracing off by the workload's
/// own rounds, with the names, bounds and workloads of the issue's
/// table. `BENCHMARK.json` lists the three every workload measures as
/// `end_to_end`; the driver's contract wants each of those from every
/// workload, so the four a single workload measures are in its
/// `per_layer` list (the traced run reads them on every workload) and
/// are gated here, by `compare`, at home. The issue's eighth,
/// `burst_rtt_us_p99`, cannot meet its 20 % bound on this host and is
/// per-layer only, as the issue prescribes for such a metric.
pub static E2E: [Metric; 7] = [
    e2e("setup_s", "s", "lower", 0.15, None),
    e2e("pps", "1/s", "higher", 0.10, None),
    e2e("peak_rss_mib", "MiB", "lower", 0.05, None),
    e2e(
        "burst_rtt_us_p50",
        "us",
        "lower",
        0.10,
        Some(Workload::BareRr),
    ),
    e2e(
        "param_apply_us_p50",
        "us",
        "lower",
        0.15,
        Some(Workload::EdgeReconfig),
    ),
    e2e(
        "struct_apply_us_p50",
        "us",
        "lower",
        0.15,
        Some(Workload::EdgeReconfig),
    ),
    e2e(
        "migrate_us_p50",
        "us",
        "lower",
        0.15,
        Some(Workload::EdgeReconfig),
    ),
];

/// The per-layer metrics of the traced run. No bounds: they explain
/// the end-to-end figures, they do not gate.
pub static LAYERS: [Metric; 53] = [
    layer("kernel.nic.rx_inject_ns", "ns", "lower"),
    layer("kernel.nic.tx_drain_ns", "ns", "lower"),
    layer("kernel.nic.rx_burst_ns", "ns", "lower"),
    layer("kernel.nic.rx_dropped", "count", "lower"),
    layer("kernel.nic.tx_dropped", "count", "lower"),
    layer("packet.flow.parse_ns", "ns", "lower"),
    layer("packet.batch.split_ns", "ns", "lower"),
    layer("packet.batch.gather_ns", "ns", "lower"),
    layer("packet.pool.buf_reuse_ratio", "ratio", "higher"),
    layer("packet.pool.buf_steady_allocs", "count", "lower"),
    layer("packet.pool.batch_steady_allocs", "count", "lower"),
    layer("kernel.shard.handoff_ns", "ns", "lower"),
    layer("kernel.shard.ring_high_water", "count", "lower"),
    layer("kernel.shard.quiesce_us", "us", "lower"),
    layer("router.shard.publish_ns", "ns", "lower"),
    layer("router.shard.wait_ns", "ns", "lower"),
    layer("router.shard.drop.ring_full", "count", "lower"),
    layer("router.shard.drop.dead_worker", "count", "lower"),
    layer("router.shard.drop.guard", "count", "lower"),
    layer("router.shard.drop.graph", "count", "lower"),
    layer("router.shard.drop.resteer", "count", "lower"),
    layer("opencom.hop_ns", "ns", "lower"),
    layer("router.elements.counter_ns", "ns", "lower"),
    layer("router.elements.todevice_ns", "ns", "lower"),
    layer("router.flow.guard_ns", "ns", "lower"),
    layer("router.flow.conntrack_ns", "ns", "lower"),
    layer("router.flow.nat44_ns", "ns", "lower"),
    layer("router.flow.graph_ns", "ns", "lower"),
    layer("router.flow.conntrack_hit_ratio", "ratio", "higher"),
    layer("router.flow.evictions", "count", "lower"),
    layer("router.flow.nat_exhausted", "count", "lower"),
    layer("router.flow.csum_zero_skips", "count", "lower"),
    layer("router.desc.diff_us", "us", "lower"),
    layer("router.desc.apply_param_us_p95", "us", "lower"),
    layer("router.desc.apply_struct_us_p95", "us", "lower"),
    layer("router.shard.migrate_us_p95", "us", "lower"),
    layer("services.edge.build_us", "us", "lower"),
    layer("driver.round_us_p50", "us", "lower"),
    layer("driver.round_us_p99", "us", "lower"),
    layer("burst_rtt_us_p50", "us", "lower"),
    layer("burst_rtt_us_p99", "us", "lower"),
    layer("param_apply_us_p50", "us", "lower"),
    layer("struct_apply_us_p50", "us", "lower"),
    layer("migrate_us_p50", "us", "lower"),
    layer("driver.host_speed", "ratio", "higher"),
    layer("driver.parked_speed_ratio", "ratio", "higher"),
    layer("scale.pps_w1", "1/s", "higher"),
    layer("scale.speedup_w2", "ratio", "higher"),
    layer("baselines.click.edge_ns", "ns", "lower"),
    layer("baselines.monolithic.edge_ns", "ns", "lower"),
    layer("baselines.click.bare_ns", "ns", "lower"),
    layer("trace.explained_share", "ratio", "higher"),
    layer("trace.overhead_ratio", "ratio", "lower"),
];

/// One end-to-end metric over a workload's passes.
struct Passes {
    metric: &'static Metric,
    /// At reference-host speed: what is reported and compared.
    values: Vec<f64>,
    /// As the wall clock saw it.
    raw: Vec<f64>,
}

/// One workload's results so far.
#[derive(Default)]
pub struct WorkloadResult {
    passes: Vec<Passes>,
    /// The host speed of each pass.
    pub host_speeds: Vec<f64>,
    pub layers: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

impl WorkloadResult {
    /// Adds one pass of `workload`: `(name, raw, at reference-host
    /// speed)` for every end-to-end metric its rounds measure (other
    /// names are ignored), and the pass's host speed.
    ///
    /// # Errors
    ///
    /// Names an end-to-end metric the pass did not report.
    pub fn add_pass(
        &mut self,
        workload: Workload,
        values: &[(&str, f64, f64)],
        speed: f64,
    ) -> Result<(), String> {
        if self.passes.is_empty() {
            self.passes = E2E
                .iter()
                .filter(|m| m.at(workload))
                .map(|m| Passes {
                    metric: m,
                    values: Vec::new(),
                    raw: Vec::new(),
                })
                .collect();
        }
        for p in &mut self.passes {
            let &(_, raw, at_reference) = values
                .iter()
                .find(|(n, ..)| *n == p.metric.name)
                .ok_or_else(|| format!("a pass reported no {}", p.metric.name))?;
            p.values.push(at_reference);
            p.raw.push(raw);
        }
        self.host_speeds.push(speed);
        Ok(())
    }

    fn passes(&self, name: &str) -> Option<&Passes> {
        self.passes.iter().find(|p| p.metric.name == name)
    }

    /// An end-to-end metric's value: the median over passes.
    pub fn e2e(&self, name: &str) -> f64 {
        self.passes(name).map_or(0.0, |p| stats::median(&p.values))
    }

    /// A per-layer metric's value (0 until the traced run has run).
    pub fn layer(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    fn metrics_json(&self, trace: bool) -> Json {
        let mut out = Json::obj();
        if trace {
            for m in &LAYERS {
                out = out.with(m.name, value_json(self.layer(m.name), m.unit));
            }
        } else {
            // What the driver's contract calls end to end: the metrics
            // every workload measures.
            for m in E2E.iter().filter(|m| m.home.is_none()) {
                out = out.with(m.name, value_json(self.e2e(m.name), m.unit));
            }
        }
        out
    }

    /// The result line the contract prescribes: `correct`, `attempted`,
    /// `failed`, and the end-to-end (`trace == false`) or per-layer
    /// metrics.
    pub fn contract_line(&self, correct: bool, trace: bool) -> String {
        Json::obj()
            .with("correct", correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", self.metrics_json(trace))
            .render()
    }

    fn record(&self) -> Json {
        let nums = |vs: &[f64]| vs.iter().map(|v| Json::Num(*v)).collect::<Vec<_>>();
        let mut e2e = Json::obj();
        for p in &self.passes {
            e2e = e2e.with(
                p.metric.name,
                value_json(stats::median(&p.values), p.metric.unit)
                    .with("passes", nums(&p.values))
                    .with("raw_passes", nums(&p.raw)),
            );
        }
        Json::obj()
            .with("host_speed", nums(&self.host_speeds))
            .with("e2e", e2e)
            .with("layers", self.metrics_json(true))
            .with(
                "ops",
                Json::obj()
                    .with("attempted", self.attempted)
                    .with("failed", self.failed),
            )
    }

    /// Prints every metric by name with its unit.
    pub fn print_table(&self, workload: Workload, trace: bool) {
        println!("workload {}  — {}", workload.name(), workload.why());
        if !trace {
            println!(
                "  host speed per pass {:?}; values at reference-host speed, `raw` as the wall clock saw them",
                self.host_speeds
            );
            for p in &self.passes {
                println!(
                    "  {:<24} {:>16} {:<5} raw {:>16}  passes {:?}",
                    p.metric.name,
                    fmt_value(stats::median(&p.values)),
                    p.metric.unit,
                    fmt_value(stats::median(&p.raw)),
                    p.values.iter().map(|v| fmt_value(*v)).collect::<Vec<_>>()
                );
            }
        } else {
            for m in &LAYERS {
                let v = self.layer(m.name);
                println!("  {:<34} {:>16} {}", m.name, fmt_value(v), m.unit);
            }
        }
        println!(
            "  operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
    }
}

fn value_json(value: f64, unit: &str) -> Json {
    Json::obj().with("value", value).with("unit", unit)
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 || v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// What a tool prints, trimmed; run in the package's directory, so
/// `git` names this repository's commit wherever the ledger was started.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// One full run's record in the result schema.
pub fn record(seed: u64, results: &[(Workload, WorkloadResult)]) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let meta = Json::obj()
        .with(
            "git_sha",
            tool_line("git", &["rev-parse", "--short", "HEAD"]),
        )
        .with("nproc", nproc)
        .with("rustc", tool_line("rustc", &["-V"]))
        .with(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .with("date", tool_line("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"]))
        .with("seed", seed)
        .with("workers", WORKERS);
    let mut workloads = Json::obj();
    for (w, r) in results {
        workloads = workloads.with(w.name(), r.record());
    }
    Json::obj().with("meta", meta).with("workloads", workloads)
}

/// What each workload's why rests on, read off a set's results: one
/// line per expectation, every share with its base, ending in whether
/// it holds.
pub fn whys(results: &[(Workload, WorkloadResult)]) -> Vec<String> {
    let of = |w: Workload| {
        &results
            .iter()
            .find(|(x, _)| *x == w)
            .expect("a set runs every workload")
            .1
    };
    let holds = |ok: bool| if ok { "holds" } else { "DOES NOT HOLD" };
    let mut lines = Vec::new();

    let off_path: Vec<f64> = Workload::ALL
        .iter()
        .flat_map(|&w| {
            let r = of(w);
            LAYERS
                .iter()
                .filter(move |m| {
                    (m.name.starts_with("packet.batch.") && !w.software_dispatch())
                        || (m.name.starts_with("router.flow.") && w.traffic() == Traffic::Bare)
                })
                .map(|m| r.layer(m.name))
        })
        .collect();
    lines.push(format!(
        "packet.batch.* off the software-dispatch path and router.flow.* on bare_*: {} metrics, sum {} - {} (0 expected)",
        off_path.len(),
        off_path.iter().sum::<f64>(),
        holds(off_path.iter().all(|v| *v == 0.0))
    ));

    let wait_share = |w: Workload| {
        let r = of(w);
        let wait = r.layer("router.shard.wait_ns");
        let round = wait
            + r.layer("kernel.nic.rx_inject_ns")
            + r.layer("router.shard.publish_ns")
            + r.layer("kernel.nic.tx_drain_ns");
        (
            wait / round,
            format!("{wait:.0} of {round:.0} ns per packet"),
        )
    };
    let (edge, edge_base) = wait_share(Workload::EdgeMixed);
    let (bare, bare_base) = wait_share(Workload::BareDispatch);
    lines.push(format!(
        "router.shard.wait_ns share of the round: edge_mixed {:.1} % ({edge_base}), bare_dispatch {:.1} % ({bare_base}), {:.2} times - {} (at least 2 expected)",
        edge * 100.0,
        bare * 100.0,
        edge / bare,
        holds(edge >= 2.0 * bare)
    ));

    let rr = of(Workload::BareRr);
    let (inject, drain) = (
        rr.layer("kernel.nic.rx_inject_ns"),
        rr.layer("kernel.nic.tx_drain_ns"),
    );
    let nic_us = 32.0 * (inject + drain) / 1e3;
    let rtt = rr.e2e("burst_rtt_us_p50");
    lines.push(format!(
        "bare_rr per-packet NIC time: 32 x ({inject:.0} + {drain:.0}) ns = {nic_us:.1} us, {:.1} % of burst_rtt_us_p50 {rtt:.1} us - {} (under 30 % expected)",
        nic_us / rtt * 100.0,
        holds(nic_us < 0.30 * rtt)
    ));
    lines
}

/// Appends `record` as one line to the history file.
///
/// # Errors
///
/// Propagates open and write failures.
pub fn append_history(path: &Path, record: &Json) -> std::io::Result<()> {
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", record.render())
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Judges one metric: `base` and `new` are the two medians, `spread`
/// the wider of the two pass-to-pass spreads.
pub fn judge(m: &Metric, base: f64, new: f64, spread: f64) -> (f64, Verdict) {
    // Worsening as a share of the base median, whichever way is worse.
    let worse = if base == 0.0 {
        0.0
    } else if m.better == "higher" {
        (base - new) / base
    } else {
        (new - base) / base
    };
    let verdict = if worse > m.bound {
        Verdict::Regressed
    } else if spread > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

fn passes_of(record: &Json, workload: &str, metric: &str) -> Option<(f64, Vec<f64>)> {
    let m = record
        .get("workloads")?
        .get(workload)?
        .get("e2e")?
        .get(metric)?;
    let passes = m
        .get("passes")
        .map(|p| p.items().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    Some((m.get("value")?.as_f64()?, passes))
}

fn failed_share(record: &Json, workload: &str) -> f64 {
    let ops = record
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("ops"));
    let num = |k: &str| {
        ops.and_then(|o| o.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    num("failed") / num("attempted").max(1.0)
}

/// `compare <a> <b>`: one row per workload × end-to-end metric with
/// both medians, the pass-to-pass spread, the ratio with its base, and
/// a verdict. Returns `false` on any `regressed` row, a metric missing
/// from either record, or a higher failed share.
///
/// # Errors
///
/// Returns unreadable files and records that do not parse. A history
/// file compares by its last line.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let last = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        Json::parse(last).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (base, new) = (load(a)?, load(b)?);
    let mut pass = true;
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>8} {:>22}  verdict",
        "workload", "metric", "base", "new", "spread", "new/base"
    );
    for w in Workload::ALL {
        for m in E2E.iter().filter(|m| m.at(w)) {
            let (Some((bv, bp)), Some((nv, np))) = (
                passes_of(&base, w.name(), m.name),
                passes_of(&new, w.name(), m.name),
            ) else {
                pass = false;
                println!("{:<14} {:<22} missing in one record", w.name(), m.name);
                continue;
            };
            let spread = stats::spread(&bp).max(stats::spread(&np));
            let (_, verdict) = judge(m, bv, nv, spread);
            pass &= verdict != Verdict::Regressed;
            println!(
                "{:<14} {:<22} {:>14} {:>14} {:>7.1}% {:>9.3} of {:>9}  {}",
                w.name(),
                m.name,
                fmt_value(bv),
                fmt_value(nv),
                spread * 100.0,
                if bv == 0.0 { 0.0 } else { nv / bv },
                fmt_value(bv),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let (fb, fnew) = (failed_share(&base, w.name()), failed_share(&new, w.name()));
        if fnew > fb {
            pass = false;
            println!(
                "{:<14} failed share rose: {fb:.6} -> {fnew:.6} of operations attempted",
                w.name()
            );
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_within_the_contract_limits() {
        // BENCHMARK.json uses a name once: the metrics every workload
        // measures end to end, and the per-layer list, which holds the
        // home-bound end-to-end metrics under their own names.
        let mut names: Vec<&str> = E2E
            .iter()
            .filter(|m| m.home.is_none())
            .chain(&LAYERS)
            .map(|m| m.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for m in E2E.iter().chain(&LAYERS) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in E2E.iter().filter(|m| m.home.is_some()) {
            assert!(
                LAYERS.iter().any(|l| l.name == m.name && l.unit == m.unit),
                "{} is read on every workload by the traced run",
                m.name
            );
        }
        assert!(E2E.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    /// BENCHMARK.json at the repository root restates the tables above
    /// for the driver; the two must not drift apart.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses");
        let rows = |key: &str, fields: &[&str]| -> Vec<Vec<Json>> {
            doc.get(key)
                .expect(key)
                .items()
                .iter()
                .map(|row| {
                    fields
                        .iter()
                        .map(|f| row.get(f).cloned().expect(f))
                        .collect()
                })
                .collect()
        };
        let want: Vec<Vec<Json>> = E2E
            .iter()
            .filter(|m| m.home.is_none())
            .map(|m| {
                vec![
                    m.name.into(),
                    m.unit.into(),
                    m.better.into(),
                    m.bound.into(),
                ]
            })
            .collect();
        assert_eq!(
            rows("end_to_end", &["name", "unit", "better", "bound"]),
            want
        );
        let want: Vec<Vec<Json>> = LAYERS
            .iter()
            .map(|m| vec![m.name.into(), m.unit.into(), m.better.into()])
            .collect();
        assert_eq!(rows("per_layer", &["name", "unit", "better"]), want);
        let want: Vec<Vec<Json>> = Workload::ALL
            .iter()
            .map(|w| vec![w.name().into(), w.why().into()])
            .collect();
        assert_eq!(rows("workloads", &["name", "why"]), want);
        assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200));
    }

    #[test]
    fn judge_respects_direction_bound_and_spread() {
        let pps = &e2e("pps", "1/s", "higher", 0.10, None);
        assert_eq!(judge(pps, 100.0, 95.0, 0.02).1, Verdict::Ok);
        assert_eq!(judge(pps, 100.0, 85.0, 0.02).1, Verdict::Regressed);
        assert_eq!(
            judge(pps, 100.0, 130.0, 0.02).1,
            Verdict::Ok,
            "faster is fine"
        );
        assert_eq!(judge(pps, 100.0, 95.0, 0.30).1, Verdict::Unresolved);
        let rtt = &e2e("rtt", "us", "lower", 0.10, None);
        assert_eq!(judge(rtt, 100.0, 115.0, 0.0).1, Verdict::Regressed);
        assert_eq!(judge(rtt, 100.0, 80.0, 0.0).1, Verdict::Ok);
    }

    #[test]
    fn a_record_round_trips_through_the_schema() {
        let mut r = WorkloadResult::default();
        // Raw 11, 33, 22 over three passes, 10, 30, 20 at reference speed.
        for v in [10.0, 30.0, 20.0] {
            let values: Vec<(&str, f64, f64)> = E2E.iter().map(|m| (m.name, v * 1.1, v)).collect();
            r.add_pass(Workload::BareRr, &values, 1.1).unwrap();
        }
        assert!(
            r.add_pass(Workload::BareRr, &[("pps", 1.0, 1.0)], 1.0)
                .is_err(),
            "a metric is missing"
        );
        r.attempted = 7;
        assert_eq!(r.e2e("pps"), 20.0);
        let rec = Json::obj().with("workloads", Json::obj().with("bare_rr", r.record()));
        let parsed = Json::parse(&rec.render()).unwrap();
        let (v, passes) = passes_of(&parsed, "bare_rr", "pps").unwrap();
        assert_eq!((v, passes), (20.0, vec![10.0, 30.0, 20.0]));
        // The record holds what bare_rr's rounds measure, no more.
        assert!(passes_of(&parsed, "bare_rr", "burst_rtt_us_p50").is_some());
        assert!(passes_of(&parsed, "bare_rr", "migrate_us_p50").is_none());
        assert_eq!(failed_share(&parsed, "bare_rr"), 0.0);
        let line = r.contract_line(true, false);
        let parsed = Json::parse(&line).unwrap();
        let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
            panic!("metrics is an object: {line}");
        };
        // The driver's line: the metrics every workload measures.
        assert_eq!(metrics.len(), 3);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {")
        );
    }
}
