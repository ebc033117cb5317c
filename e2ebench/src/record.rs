//! The one record schema every run is written in.
//!
//! A record says what was run (workload, parameters, seed, scale), on
//! what (git revision, machine fingerprint), and what came out (every
//! metric with value, unit and sample count; per-class latency
//! summaries; the counters that repeat exactly). `--out` writes one
//! record to a file; `--append` adds it as one line to `history.jsonl`,
//! so the previous value of every metric sits next to the new one.

use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::run::RunResult;
use crate::workload::{package_dir, store_filesystem, Dataset};

/// Bumped when a field changes meaning.
pub const SCHEMA: u64 = 1;

/// The append-only trajectory file.
pub fn history_path() -> PathBuf {
    package_dir().join("history.jsonl")
}

/// The repository's `BENCHMARK.json` (the package sits one level below
/// the repository root).
pub fn benchmark_json_path() -> PathBuf {
    package_dir().join("..").join("BENCHMARK.json")
}

/// The checked-out commit, read from `.git` without spawning a process
/// (`unknown` outside a git checkout, e.g. in the acceptance driver's copy).
pub fn git_revision() -> String {
    let git = package_dir().join("..").join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(git.join("HEAD")) else { return "unknown".to_string() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|hash| hash.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine's CPUs, however many of them this process may run on (an
/// end-to-end run confines itself to one).
fn machine_cpus() -> usize {
    let listed = std::fs::read_to_string("/proc/cpuinfo")
        .map(|text| text.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    listed.max(std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// What a number depends on besides the code: cores, the SIMD backend
/// the crypto crate detected, the compiler, the store's file system.
/// `check` refuses to compare records whose fingerprints differ.
pub fn fingerprint() -> Json {
    Json::obj()
        .set("nproc", machine_cpus())
        .set("simd", oblidb_crypto::simd::detected().label())
        .set("rustc", env!("OBLIDB_BENCH_RUSTC"))
        .set("store_fs", store_filesystem())
}

/// Builds the record of one run. `with_spans` adds the traced run's
/// bench-side spans (large; left out of `history.jsonl`).
pub fn record(data: &Dataset, traced: bool, result: &RunResult, with_spans: bool) -> Json {
    let spec = data.spec;
    let tables: Vec<Json> = data
        .tables
        .iter()
        .map(|t| {
            Json::obj()
                .set("name", t.name)
                .set("rows", t.rows.len())
                .set("capacity", t.capacity)
                .set("row_bytes", t.schema.row_len())
                .set("storage", format!("{:?}", t.method))
        })
        .collect();
    let params = Json::obj()
        .set("substrate", spec.substrate)
        .set("connections", spec.connections)
        .set("tables", tables)
        .set("wal", data.db_config(false).wal.is_some())
        .set("epoch_ms", data.epoch().map_or(Json::Null, |e| e.duration_ms.into()))
        .set("epoch_statements", data.epoch().map_or(Json::Null, |e| e.max_statements.into()))
        .set("crossing_cost", "free")
        .set("cpus_allowed", std::thread::available_parallelism().map_or(1, |n| n.get()))
        .set("setup_repeats", spec.setup_repeats)
        .set("warmup_ops_per_client", data.warmup_ops())
        .set("ops_per_client", data.measured_ops())
        .set("traced_ops_per_client_per_phase", data.traced_ops());
    let metrics = Json::Obj(
        result
            .metrics
            .iter()
            .map(|m| {
                let mut entry = Json::obj().set("value", m.value).set("unit", m.unit);
                if let Some(n) = m.n {
                    entry = entry.set("n", n);
                }
                if !m.note.is_empty() {
                    entry = entry.set("note", m.note.as_str());
                }
                (m.name.clone(), entry)
            })
            .collect(),
    );
    let classes = Json::Obj(
        result
            .classes
            .iter()
            .map(|(name, s)| {
                let mut summary =
                    Json::obj().set("n", s.n).set("min_ms", s.min).set("p50_ms", s.p50);
                for (p, value) in &s.tails {
                    summary = summary.set(&format!("p{p}_ms"), *value);
                }
                (name.clone(), summary.set("max_ms", s.max).set("mean_ms", s.mean))
            })
            .collect(),
    );
    let counters =
        Json::Obj(result.counters.iter().map(|(k, v)| (k.clone(), Json::from(*v))).collect());
    let errors: Vec<Json> = result.errors.iter().map(|e| e.as_str().into()).collect();
    let mut record = Json::obj()
        .set("schema", SCHEMA)
        .set("workload", spec.name)
        .set("traced", traced)
        .set("smoke", data.scale.is_smoke())
        .set("seed", data.seed)
        .set("seconds", data.seconds)
        .set("git_revision", git_revision())
        .set("fingerprint", fingerprint())
        .set("params", params)
        .set("correct", result.failed == 0)
        .set("attempted", result.attempted)
        .set("failed", result.failed)
        .set("measured_s", result.measured_s)
        .set("metrics", metrics)
        .set("classes", classes)
        .set("counters", counters)
        .set("errors", errors);
    if with_spans {
        record = record.set("spans", result.spans.clone());
    }
    record
}

/// The acceptance driver's result line: exactly `correct`, `attempted`,
/// `failed`, and `metrics` as `{name: {value, unit}}`.
pub fn contract_line(result: &RunResult) -> String {
    let metrics = Json::Obj(
        result
            .metrics
            .iter()
            .map(|m| (m.name.clone(), Json::obj().set("value", m.value).set("unit", m.unit)))
            .collect(),
    );
    Json::obj()
        .set("correct", result.failed == 0)
        .set("attempted", result.attempted)
        .set("failed", result.failed)
        .set("metrics", metrics)
        .to_line()
}

/// Reads records from a file holding one JSON document or one per line.
pub fn read_records(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if let Ok(single) = Json::parse(&text) {
        return Ok(vec![single]);
    }
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| Json::parse(l).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1)))
        .collect()
}

/// Appends one line to a file, creating it if needed.
pub fn append_line(path: &Path, line: &str) -> Result<(), String> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}
