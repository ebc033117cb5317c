//! `oblidb-bench`: command-line front end.
//!
//! ```text
//! oblidb-bench run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                  [--smoke] [--out FILE] [--append]
//! oblidb-bench check A.json B.json
//! ```
//!
//! `run` prints every metric by name with its unit, then — as the last
//! line of standard output — the acceptance driver's JSON result line.
//! It exits non-zero if any statement failed or returned a wrong result.

use std::path::PathBuf;
use std::process::ExitCode;

use crate::json::Json;
use crate::record::{
    append_line, benchmark_json_path, contract_line, history_path, read_records, record,
};
use crate::run::{run_end_to_end, RunResult};
use crate::trace::run_traced;
use crate::workload::{spec, Dataset, Scale, Spec, WORKLOADS};

/// The generator seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

/// `run_seconds` in `BENCHMARK.json`, which the acceptance driver passes
/// as `--seconds` on every run. Operation counts are fixed, not cut off
/// by the clock: `--seconds` only scales them (a workload's per-second
/// rate × seconds), so one value gives one set of counts on any machine.
pub const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage:
  oblidb-bench run [--workload bdb_scan|index_mix|serve_mixed|durable_writes] [--seed N]
                   [--seconds S] [--trace 0|1] [--smoke] [--out FILE] [--append]
  oblidb-bench check A.json B.json";

struct RunArgs {
    workloads: Vec<&'static Spec>,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    out: Option<PathBuf>,
    append: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: WORKLOADS.iter().collect(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        scale: Scale::FULL,
        out: None,
        append: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workloads =
                    vec![spec(name).ok_or_else(|| format!("unknown workload `{name}`"))?];
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds >= 1.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in [1, 60]".to_string());
                }
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => parsed.scale = Scale::SMOKE,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--append" => parsed.append = true,
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn print_report(spec: &Spec, traced: bool, seed: u64, result: &RunResult) {
    println!(
        "== {} ({}, seed {seed}): {} attempted, {} failed, measured {:.3} s",
        spec.name,
        if traced { "traced: per-layer metrics" } else { "end-to-end metrics" },
        result.attempted,
        result.failed,
        result.measured_s,
    );
    for (name, s) in &result.classes {
        let tails: String = s.tails.iter().map(|(p, v)| format!("  p{p} {v:.4}")).collect();
        println!(
            "   class {name:<10} n={:<6} ms: min {:.4}  p50 {:.4}{tails}  max {:.4}",
            s.n, s.min, s.p50, s.max
        );
    }
    for m in &result.metrics {
        let n = m.n.map_or_else(String::new, |n| format!("  n={n}"));
        let note = if m.note.is_empty() { String::new() } else { format!("  [{}]", m.note) };
        println!("   {:<40} {:>18.6} {}{n}{note}", m.name, m.value, m.unit);
    }
    if traced && spec.name == "bdb_scan" {
        // The Figure 7 shape line: flat ObliDB beside Opaque and plain.
        let value =
            |name: &str| result.metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
        for (q, (_, s)) in ["q1", "q2", "q3"].iter().zip(&result.classes) {
            println!(
                "   fig7 {q}: oblidb flat p50 {:.1} ms | opaque {:.1} ms | plain {:.1} ms",
                s.p50,
                value(&format!("baselines.opaque.{q}_ms")),
                value(&format!("baselines.plain.{q}_ms")),
            );
        }
    }
    for e in &result.errors {
        println!("   FAILED: {e}");
    }
}

/// Re-executes an end-to-end run under `taskset` on the last CPU; returns
/// only if that is not possible (the run then proceeds where it is) or not
/// needed (the process already has just one CPU — which is also how the
/// re-executed process knows to go on).
///
/// The reference box reports two CPUs but the share of a second core it
/// really gets changes from minute to minute: identical runs of two
/// concurrent clients differed by 60 %. On one CPU the clients are still
/// concurrent — two statements in flight, queueing on the engine's latches
/// and sharing commit epochs — and the result no longer depends on what
/// the hypervisor lends. `exec` replaces the process image: no child is
/// left to wait for.
#[cfg(unix)]
fn pin_to_one_cpu(args: &[String]) {
    use std::os::unix::process::CommandExt;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus == 1 {
        return;
    }
    let Ok(exe) = std::env::current_exe() else { return };
    let error = std::process::Command::new("taskset")
        .args(["-c", &(cpus - 1).to_string()])
        .arg(exe)
        .arg("run")
        .args(args)
        .exec();
    eprintln!("oblidb-bench: not pinned to one CPU (taskset: {error})");
}

#[cfg(not(unix))]
fn pin_to_one_cpu(_: &[String]) {}

fn run(raw_args: &[String]) -> Result<bool, String> {
    let args = parse_run(raw_args)?;
    // The traced run stays where it is: its span-draining thread must not
    // compete with the statements it observes for one CPU.
    if !args.traced {
        pin_to_one_cpu(raw_args);
    }
    if let Some(path) = &args.out {
        std::fs::write(path, "").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut all_correct = true;
    for spec in &args.workloads {
        let data = Dataset::generate(spec, args.scale, args.seed, args.seconds);
        let result = if args.traced { run_traced(&data)? } else { run_end_to_end(&data)? };
        all_correct &= result.failed == 0;
        print_report(spec, args.traced, args.seed, &result);
        if let Some(path) = &args.out {
            // One record per line; a single workload's also carries its spans.
            let line = record(&data, args.traced, &result, args.workloads.len() == 1);
            append_line(path, &line.to_line())?;
        }
        if args.append {
            let line = record(&data, args.traced, &result, false);
            append_line(&history_path(), &line.to_line())?;
        }
        println!("{}", contract_line(&result));
    }
    Ok(all_correct)
}

fn check(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else { return Err(USAGE.to_string()) };
    let benchmark_path = benchmark_json_path();
    let benchmark = std::fs::read_to_string(&benchmark_path)
        .map_err(|e| format!("{}: {e}", benchmark_path.display()))
        .and_then(|text| Json::parse(&text))?;
    let bounds = crate::check::bounds_of(&benchmark)?;
    let (a, b) = (read_records(a.as_ref())?, read_records(b.as_ref())?);
    let (report, regressed) = crate::check::check(&a, &b, &bounds)?;
    print!("{report}");
    Ok(!regressed)
}

/// Runs the command line; the process exit code.
pub fn main(args: &[String]) -> ExitCode {
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("check") => check(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("oblidb-bench: {message}");
            ExitCode::from(2)
        }
    }
}
