//! `ledger` — the wire-to-wire benchmark ledger.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One workload. Untraced: PASSES passes, each a fresh set-up in a
//!     process of its own and then the workload's own rounds, the
//!     end-to-end metrics those measure as medians over passes. Traced:
//!     one set-up, the per-layer metrics, spans written to
//!     out/trace-<name>.jsonl at exit. The last line of stdout is the
//!     result as one JSON object: the end-to-end metrics every workload
//!     measures, or the per-layer ones.
//! ledger set [--seed <n>] [--seconds <s>] [--quick] [--no-history]
//!     All four workloads: the end-to-end set (passes interleaved over
//!     the workloads), then one traced run each; prints the table,
//!     writes out/last.json and appends the record to history.jsonl.
//! ledger compare <a.json> <b.json>
//! ledger check [--seed <n>]
//! ledger pass --workload <name> --seed <n> --seconds <s> --warmup <rounds>
//!     One pass in this process, printed as one JSON line; what the
//!     first two forms spawn.
//! ```

mod gen;
mod json;
mod layers;
mod report;
mod rig;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use report::WorkloadResult;
use workload::{Outcome, Workload, PASSES, WARMUP_ROUNDS};

/// Seconds one workload measures in `set` mode (and the
/// `run_seconds` BENCHMARK.json hands the single-workload mode).
const SET_SECONDS: f64 = 25.0;

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        match self.0.iter().position(|a| a == name) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.value(name)?
            .map(|v| v.parse().map_err(|_| format!("{name}: cannot read `{v}`")))
            .transpose()
    }

    fn done(self) -> Result<(), String> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(format!("unexpected arguments: {}", self.0.join(" ")))
        }
    }
}

fn report_violations(workload: Workload, outcome: &Outcome) {
    for v in &outcome.violations {
        eprintln!("{}: output check failed: {v}", workload.name());
    }
}

fn workload_arg(args: &mut Args) -> Result<Workload, String> {
    let name = args.value("--workload")?.ok_or("--workload is required")?;
    Workload::parse(&name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })
}

/// `ledger pass`: one pass in this process, its set-up timed from
/// `started`, printed as one JSON line.
fn pass(mut args: Args, started: Instant) -> Result<bool, String> {
    let workload = workload_arg(&mut args)?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = args.parsed("--seconds")?.ok_or("--seconds is required")?;
    let warmup: usize = args.parsed("--warmup")?.unwrap_or(WARMUP_ROUNDS);
    args.done()?;
    let pass = workload::run_pass(workload, seed, seconds, warmup, started)?;
    report_violations(workload, &pass.outcome);
    let (mut raw, mut at_reference) = (Json::obj(), Json::obj());
    for v in &pass.values {
        raw = raw.with(v.name, v.raw);
        at_reference = at_reference.with(v.name, v.at_reference);
    }
    let line = Json::obj()
        .with("raw", raw)
        .with("at_reference", at_reference)
        .with("host_speed", pass.host_speed)
        .with("rounds", pass.rounds)
        .with("control_samples", pass.control_samples)
        .with("attempted", pass.outcome.attempted)
        .with("failed", pass.outcome.failed);
    println!("{}", line.render());
    Ok(pass.outcome.violations.is_empty())
}

/// Runs one pass of `workload` in a process of its own — so `setup_s`
/// counts from process start and `peak_rss_mib` is that pass's alone —
/// and adds its end-to-end values and operation counts to `result`;
/// returns whether every output check held.
fn pass_into(
    workload: Workload,
    seed: u64,
    seconds: f64,
    warmup: usize,
    result: &mut WorkloadResult,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["pass", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--warmup", &warmup.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run a pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let doc = Json::parse(line)
        .map_err(|e| format!("{} pass ended with {}: {e}", workload.name(), out.status))?;
    let num = |doc: &Json, key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{} pass reported no {key}", workload.name()))
    };
    let (Some(Json::Obj(raw)), Some(at_reference)) = (doc.get("raw"), doc.get("at_reference"))
    else {
        return Err(format!("{} pass reported no values", workload.name()));
    };
    let values: Vec<(&str, f64, f64)> = raw
        .iter()
        .filter_map(|(name, v)| {
            Some((
                name.as_str(),
                v.as_f64()?,
                at_reference.get(name)?.as_f64()?,
            ))
        })
        .collect();
    let speed = num(&doc, "host_speed")?;
    result.add_pass(workload, &values, speed)?;
    result.attempted += num(&doc, "attempted")? as u64;
    result.failed += num(&doc, "failed")? as u64;
    let of = |name: &str| values.iter().find(|(n, ..)| *n == name).map(|v| v.1);
    let mut line = format!(
        "  {} pass: host speed {speed:.3}, raw pps {:.0}, {} rounds",
        workload.name(),
        of("pps").unwrap_or(0.0),
        num(&doc, "rounds")?
    );
    if let Some(p99) = of("burst_rtt_us_p99") {
        line += &format!(" (raw burst p99 {p99:.1} us)");
    }
    if workload.control_in_flight() {
        line += &format!(", {} control samples", num(&doc, "control_samples")?);
    }
    eprintln!("{line}");
    Ok(out.status.success())
}

/// Runs the traced run of `workload` into `result` and writes its
/// spans; returns whether every output check held. `gate_overhead` is
/// off for `--quick`, whose one or two pairs of blocks price nothing.
fn traced_into(
    workload: Workload,
    seed: u64,
    seconds: f64,
    warmup: usize,
    gate_overhead: bool,
    result: &mut WorkloadResult,
) -> Result<bool, String> {
    let run = layers::run_traced(workload, seed, seconds, warmup)?;
    for note in &run.notes {
        eprintln!("  {}: {note}", workload.name());
    }
    result.layers = run.layers;
    result.attempted += run.outcome.attempted;
    result.failed += run.outcome.failed;
    report_violations(workload, &run.outcome);
    let mut correct = run.outcome.violations.is_empty();
    // ROADMAP A1(b): no unexplained layer under the round.
    let explained = result.layer("trace.explained_share");
    if explained < 0.98 {
        eprintln!(
            "{}: child spans explain only {:.2}% of the round",
            workload.name(),
            explained * 100.0
        );
        correct = false;
    }
    let overhead = result.layer("trace.overhead_ratio");
    if gate_overhead && overhead > 1.05 {
        eprintln!(
            "{}: tracing slows the rounds by a factor of {overhead:.3}, more than 1.05",
            workload.name()
        );
        correct = false;
    }
    let path = out_dir().join(format!("trace-{}.jsonl", workload.name()));
    run.tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(correct)
}

/// Each pass draws its own traffic from the run's seed.
fn pass_seed(seed: u64, pass: usize) -> u64 {
    seed.wrapping_mul(PASSES as u64 + 1)
        .wrapping_add(pass as u64)
}

fn single(mut args: Args) -> Result<bool, String> {
    let workload = workload_arg(&mut args)?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(SET_SECONDS);
    let trace = match args.value("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    args.done()?;
    if seconds.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err("--seconds must be positive".into());
    }

    let mut result = WorkloadResult::default();
    let mut correct = true;
    if trace {
        correct &= traced_into(workload, seed, seconds, WARMUP_ROUNDS, true, &mut result)?;
    } else {
        for pass in 0..PASSES {
            correct &= pass_into(
                workload,
                pass_seed(seed, pass),
                seconds / PASSES as f64,
                WARMUP_ROUNDS,
                &mut result,
            )?;
        }
    }
    result.print_table(workload, trace);
    println!("{}", result.contract_line(correct, trace));
    Ok(correct)
}

fn set(mut args: Args) -> Result<bool, String> {
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let quick = args.flag("--quick");
    let no_history = args.flag("--no-history");
    let seconds: f64 = args
        .parsed("--seconds")?
        .unwrap_or(if quick { 1.0 } else { SET_SECONDS });
    args.done()?;
    let (passes, warmup) = if quick {
        (1, 32)
    } else {
        (PASSES, WARMUP_ROUNDS)
    };

    let mut results: Vec<(Workload, WorkloadResult)> = Workload::ALL
        .into_iter()
        .map(|w| (w, WorkloadResult::default()))
        .collect();
    let mut correct = true;
    // Passes interleave over the workloads, so minute-scale host drift
    // spreads over all of them instead of landing on one.
    for pass in 0..passes {
        for (w, r) in &mut results {
            correct &= pass_into(
                *w,
                pass_seed(seed, pass),
                seconds / passes as f64,
                warmup,
                r,
            )?;
        }
    }
    for (w, r) in &mut results {
        correct &= traced_into(*w, seed, seconds, warmup, !quick, r)?;
    }
    for (w, r) in &results {
        r.print_table(*w, false);
        r.print_table(*w, true);
    }
    for line in report::whys(&results) {
        println!("why: {line}");
    }
    match layers::check(seed) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("check failed: {e}");
            correct = false;
        }
    }
    let record = report::record(seed, &results);
    let last = out_dir().join("last.json");
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&last, record.render() + "\n").map_err(|e| e.to_string())?;
    println!("record written to {}", last.display());
    if !quick && !no_history && correct {
        let history = Path::new(env!("CARGO_MANIFEST_DIR")).join("history.jsonl");
        report::append_history(&history, &record).map_err(|e| e.to_string())?;
        println!("record appended to {}", history.display());
    }
    Ok(correct)
}

fn run(started: Instant) -> Result<bool, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = match argv.first().map(String::as_str) {
        Some("set" | "compare" | "check" | "pass") => argv.remove(0),
        _ => String::new(),
    };
    let mut args = Args(argv);
    match sub.as_str() {
        "set" => set(args),
        "pass" => pass(args, started),
        "check" => {
            let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
            args.done()?;
            println!("{}", layers::check(seed)?);
            Ok(true)
        }
        "compare" => match args.0.as_slice() {
            [a, b] => report::compare(Path::new(a), Path::new(b)),
            _ => Err("compare takes two record files".into()),
        },
        _ => single(args),
    }
}

fn main() -> ExitCode {
    match run(Instant::now()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
