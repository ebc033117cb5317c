//! Result-table printing for the figure harness binaries.
//!
//! Each binary prints the rows/series its paper figure reports, with the
//! paper's numbers alongside for shape comparison (absolute values differ:
//! our substrate is a simulator, not the authors' SGX testbed — see
//! EXPERIMENTS.md).

use oblidb_enclave::StatsReport;

/// A printable results table.
pub struct Report {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts a report with a figure title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Report {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        println!("\n== {} ==", self.title);
        let header: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:<w$}", w = widths[i]))
            .collect();
        println!("{}", header.join("  "));
        println!("{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
        for row in &self.rows {
            let line: Vec<String> =
                row.iter().enumerate().map(|(i, c)| format!("{c:<w$}", w = widths[i])).collect();
            println!("{}", line.join("  "));
        }
    }

    /// Renders as a markdown table (for EXPERIMENTS.md snippets).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// One per-block vs. batched measurement for the perf trajectory.
#[derive(Debug, Clone)]
pub struct BatchComparison {
    /// Case label, e.g. `"read/4096B"`.
    pub name: String,
    /// Blocks moved per measured operation.
    pub blocks: usize,
    /// Mean seconds for the per-block loop.
    pub per_block_s: f64,
    /// Mean seconds for the batched call.
    pub batched_s: f64,
}

impl BatchComparison {
    /// Wall-clock speedup of the batched path.
    pub fn speedup(&self) -> f64 {
        self.per_block_s / self.batched_s.max(f64::MIN_POSITIVE)
    }
}

/// Writes `BENCH_<name>.json` (hand-rolled JSON — the workspace is
/// dependency-free) with a stable schema the perf trajectory can diff:
/// `{"bench": name, "results": [{name, blocks, per_block_s, batched_s,
/// speedup}, …]}`. Returns the path written.
pub fn write_batch_json(
    dir: &std::path::Path,
    name: &str,
    results: &[BatchComparison],
) -> std::io::Result<std::path::PathBuf> {
    let mut out = String::new();
    out.push_str(&format!("{{\n  \"bench\": {},\n  \"results\": [\n", json_str(name)));
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"blocks\": {}, \"per_block_s\": {:.9}, \"batched_s\": {:.9}, \"speedup\": {:.3}}}{}\n",
            json_str(&r.name),
            r.blocks,
            r.per_block_s,
            r.batched_s,
            r.speedup(),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, out)?;
    Ok(path)
}

/// One substrate × workload measurement for the substrate trajectory:
/// wall-clock plus the uniform [`StatsReport`] counters, and the backing
/// traffic when a cache layer absorbed part of it.
#[derive(Debug, Clone)]
pub struct SubstrateMeasurement {
    /// Workload label, e.g. `"scan"`.
    pub workload: String,
    /// The logical access counters, named by substrate
    /// ([`StatsReport::name`] is the substrate label).
    pub report: StatsReport,
    /// Mean seconds per workload iteration.
    pub seconds: f64,
    /// Inner-substrate crossings after cache absorption (`None` when the
    /// substrate has no cache layer).
    pub backing_crossings: Option<u64>,
}

/// One cell of the raw per-block cost table: what one block of one
/// access shape costs on one memory, with no engine above it.
#[derive(Debug, Clone)]
pub struct PerBlockCost {
    /// The memory under test, e.g. `"cached:disk resident"`.
    pub memory: String,
    /// Block size in bytes.
    pub block_bytes: usize,
    /// Access shape: `"seq_read"`, `"gather_read"` or `"seq_write"`.
    pub access: &'static str,
    /// Best-of-N nanoseconds per block.
    pub ns_per_block: f64,
}

/// Writes `BENCH_<name>.json` with one row per substrate × workload:
/// `{"bench": name, "results": [{substrate, workload, seconds, reads,
/// writes, bytes_read, bytes_written, crossings, stall_nanos,
/// backing_crossings?}, …], "per_block": [{memory, block_bytes, access,
/// ns_per_block}, …]}`. Returns the path written.
pub fn write_substrate_json(
    dir: &std::path::Path,
    name: &str,
    results: &[SubstrateMeasurement],
    per_block: &[PerBlockCost],
) -> std::io::Result<std::path::PathBuf> {
    let mut out = String::new();
    out.push_str(&format!("{{\n  \"bench\": {},\n  \"results\": [\n", json_str(name)));
    for (i, r) in results.iter().enumerate() {
        let s = r.report.stats;
        let backing = match r.backing_crossings {
            Some(b) => format!(", \"backing_crossings\": {b}"),
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{\"substrate\": {}, \"workload\": {}, \"seconds\": {:.9}, \"reads\": {}, \
             \"writes\": {}, \"bytes_read\": {}, \"bytes_written\": {}, \"crossings\": {}, \
             \"stall_nanos\": {}{}}}{}\n",
            json_str(&r.report.name),
            json_str(&r.workload),
            r.seconds,
            s.reads,
            s.writes,
            s.bytes_read,
            s.bytes_written,
            s.crossings,
            s.stall_nanos,
            backing,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"per_block\": [\n");
    for (i, c) in per_block.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"memory\": {}, \"block_bytes\": {}, \"access\": {}, \"ns_per_block\": {:.1}}}{}\n",
            json_str(&c.memory),
            c.block_bytes,
            json_str(c.access),
            c.ns_per_block,
            if i + 1 < per_block.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, out)?;
    Ok(path)
}

/// One worker-count measurement of the parallel scan-scaling bench.
#[derive(Debug, Clone)]
pub struct ParallelScaling {
    /// Worker threads driving the shards.
    pub workers: usize,
    /// Mean seconds per full scan of every shard.
    pub seconds: f64,
    /// Wall-clock speedup over the serial (workers = 1) row.
    pub speedup: f64,
    /// Total boundary crossings per scan, summed over shards (identical
    /// at every worker count — parallelism never changes the counters).
    pub crossings: u64,
}

/// The fixed experimental conditions behind a parallel-scaling run —
/// recorded in the artifact so a reader can judge the numbers: the
/// speedup comes from overlapping per-crossing *stalls* (the enclave
/// waiting on the untrusted host), which parallelize even when
/// `available_parallelism` is 1.
#[derive(Debug, Clone)]
pub struct ParallelMeta {
    /// Shard (and therefore maximum worker) count.
    pub shards: usize,
    /// Rows scanned per shard.
    pub rows_per_shard: u64,
    /// Configured per-crossing stall, nanoseconds.
    pub stall_nanos_nominal: u64,
    /// Measured mean stall (sleep granularity inflates the nominal
    /// value), nanoseconds.
    pub stall_nanos_measured: u64,
    /// `std::thread::available_parallelism()` on the machine that ran it.
    pub available_parallelism: usize,
}

/// Writes `BENCH_<name>.json` for the parallel scan-scaling bench:
/// `{"bench": name, <meta fields>, "results": [{workers, seconds,
/// speedup, crossings}, …]}`. Returns the path written.
pub fn write_parallel_json(
    dir: &std::path::Path,
    name: &str,
    meta: &ParallelMeta,
    results: &[ParallelScaling],
) -> std::io::Result<std::path::PathBuf> {
    let mut out = String::new();
    out.push_str(&format!("{{\n  \"bench\": {},\n", json_str(name)));
    out.push_str(&format!("  \"shards\": {},\n", meta.shards));
    out.push_str(&format!("  \"rows_per_shard\": {},\n", meta.rows_per_shard));
    out.push_str(&format!("  \"stall_nanos_nominal\": {},\n", meta.stall_nanos_nominal));
    out.push_str(&format!("  \"stall_nanos_measured\": {},\n", meta.stall_nanos_measured));
    out.push_str(&format!("  \"available_parallelism\": {},\n", meta.available_parallelism));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"seconds\": {:.9}, \"speedup\": {:.3}, \"crossings\": {}}}{}\n",
            r.workers,
            r.seconds,
            r.speedup,
            r.crossings,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, out)?;
    Ok(path)
}

/// One crypto hot-path measurement: an AEAD (or scan) op at one batch
/// geometry under one forced SIMD backend.
#[derive(Debug, Clone)]
pub struct CryptoThroughput {
    /// Operation label, e.g. `"seal"`, `"open"`, `"region_scan"`.
    pub op: String,
    /// Forced backend label (`"scalar"`, `"sse2"`, `"avx2"`).
    pub backend: String,
    /// Blocks per batched call.
    pub batch_blocks: usize,
    /// Payload bytes per block.
    pub block_bytes: usize,
    /// Measured throughput, MiB/s of payload.
    pub mib_s: f64,
    /// Throughput relative to the scalar backend at the same (op, batch,
    /// block size).
    pub speedup_vs_scalar: f64,
    /// The same row's throughput in the artifact the bench found in its
    /// working directory before overwriting it (the parent's numbers),
    /// when that artifact had such a row.
    pub parent_mib_s: Option<f64>,
}

impl CryptoThroughput {
    /// Nanoseconds per block at the measured throughput.
    pub fn ns_per_block(&self) -> f64 {
        ns_per_block(self.block_bytes, self.mib_s)
    }

    /// Throughput relative to the parent artifact's row, if it had one.
    pub fn vs_parent(&self) -> Option<f64> {
        self.parent_mib_s.map(|p| self.mib_s / p.max(f64::MIN_POSITIVE))
    }
}

fn ns_per_block(block_bytes: usize, mib_s: f64) -> f64 {
    block_bytes as f64 / (mib_s.max(f64::MIN_POSITIVE) * 1024.0 * 1024.0) * 1e9
}

/// Writes `BENCH_<name>.json` for the crypto hot-path bench:
/// `{"bench": name, "detected_backend": label, "results": [{op, backend,
/// batch_blocks, block_bytes, mib_s, ns_per_block, speedup_vs_scalar,
/// parent_ns_per_block, vs_parent}, …]}`, one row per line. The scalar
/// rows are always present so the artifact records the fallback numbers
/// alongside the SIMD ones; the two parent fields are `null` on a row the
/// parent artifact lacked. Returns the path written.
pub fn write_crypto_json(
    dir: &std::path::Path,
    name: &str,
    detected_backend: &str,
    results: &[CryptoThroughput],
) -> std::io::Result<std::path::PathBuf> {
    let mut out = String::new();
    out.push_str(&format!("{{\n  \"bench\": {},\n", json_str(name)));
    out.push_str(&format!("  \"detected_backend\": {},\n", json_str(detected_backend)));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"op\": {}, \"backend\": {}, \"batch_blocks\": {}, \"block_bytes\": {}, \
             \"mib_s\": {:.3}, \"ns_per_block\": {:.1}, \"speedup_vs_scalar\": {:.3}, \
             \"parent_ns_per_block\": {}, \"vs_parent\": {}}}{}\n",
            json_str(&r.op),
            json_str(&r.backend),
            r.batch_blocks,
            r.block_bytes,
            r.mib_s,
            r.ns_per_block(),
            r.speedup_vs_scalar,
            json_opt(r.parent_mib_s.map(|p| ns_per_block(r.block_bytes, p)), 1),
            json_opt(r.vs_parent(), 3),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, out)?;
    Ok(path)
}

fn json_opt(value: Option<f64>, decimals: usize) -> String {
    value.map_or_else(|| "null".into(), |v| format!("{v:.decimals$}"))
}

/// Reads back the rows of an artifact [`write_crypto_json`] wrote (one
/// row per line; a missing or foreign file reads as no rows). Only the
/// measured fields are recovered — `speedup_vs_scalar` and the parent
/// fields are the reading run's to fill.
pub fn read_crypto_json(path: &std::path::Path) -> Vec<CryptoThroughput> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let rest = line.split_once(&format!("\"{key}\": "))?.1;
        Some(rest.split([',', '}']).next()?.trim_matches('"'))
    }
    let Ok(body) = std::fs::read_to_string(path) else { return Vec::new() };
    body.lines()
        .filter_map(|line| {
            Some(CryptoThroughput {
                op: field(line, "op")?.into(),
                backend: field(line, "backend")?.into(),
                batch_blocks: field(line, "batch_blocks")?.parse().ok()?,
                block_bytes: field(line, "block_bytes")?.parse().ok()?,
                mib_s: field(line, "mib_s")?.parse().ok()?,
                speedup_vs_scalar: 1.0,
                parent_mib_s: None,
            })
        })
        .collect()
}

/// One telemetry-overhead measurement: the same workload with spans and
/// metrics off vs on.
#[derive(Debug, Clone)]
pub struct TelemetryOverhead {
    /// Workload label, e.g. `"select_scan"`, `"join"`.
    pub workload: String,
    /// Mean seconds per iteration, telemetry disabled.
    pub off_seconds: f64,
    /// Mean seconds per iteration, telemetry enabled.
    pub on_seconds: f64,
    /// `on_seconds / off_seconds - 1`, as a fraction (0.03 = 3%).
    pub overhead: f64,
    /// Spans the enabled run recorded per iteration.
    pub spans_per_iter: u64,
}

/// Writes `BENCH_<name>.json` for the telemetry-overhead bench:
/// `{"bench": name, "iters": n, "results": [{workload, off_seconds,
/// on_seconds, overhead, spans_per_iter}, …]}`. Returns the path written.
pub fn write_telemetry_json(
    dir: &std::path::Path,
    name: &str,
    iters: usize,
    results: &[TelemetryOverhead],
) -> std::io::Result<std::path::PathBuf> {
    let mut out = String::new();
    out.push_str(&format!("{{\n  \"bench\": {},\n", json_str(name)));
    out.push_str(&format!("  \"iters\": {iters},\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": {}, \"off_seconds\": {:.9}, \"on_seconds\": {:.9}, \
             \"overhead\": {:.4}, \"spans_per_iter\": {}}}{}\n",
            json_str(&r.workload),
            r.off_seconds,
            r.on_seconds,
            r.overhead,
            r.spans_per_iter,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, out)?;
    Ok(path)
}

/// One serving-throughput measurement: N concurrent client connections
/// (one session each) driving a read-heavy statement mix over TCP.
#[derive(Debug, Clone)]
pub struct ServerScaling {
    /// Concurrent client connections (= sessions = pool workers).
    pub sessions: usize,
    /// Wall seconds for every client to finish its statement budget.
    pub seconds: f64,
    /// Aggregate statements per second across all sessions.
    pub stmts_per_sec: f64,
    /// Throughput relative to the single-session row.
    pub speedup: f64,
}

/// Fixed experimental conditions behind a serving-scaling run.
#[derive(Debug, Clone)]
pub struct ServerMeta {
    /// Rows in the served table.
    pub rows: u64,
    /// Statements each client submits.
    pub statements_per_session: u64,
    /// Selects per insert in the statement mix.
    pub reads_per_write: u64,
    /// Configured per-crossing stall (paid at the shared-store layer,
    /// outside the store lock), nanoseconds.
    pub stall_nanos_nominal: u64,
    /// `std::thread::available_parallelism()` on the machine that ran it.
    pub available_parallelism: usize,
}

/// Writes `BENCH_<name>.json` for the serving-throughput bench:
/// `{"bench": name, <meta fields>, "results": [{sessions, seconds,
/// stmts_per_sec, speedup}, …]}`. Returns the path written.
pub fn write_server_json(
    dir: &std::path::Path,
    name: &str,
    meta: &ServerMeta,
    results: &[ServerScaling],
) -> std::io::Result<std::path::PathBuf> {
    let mut out = String::new();
    out.push_str(&format!("{{\n  \"bench\": {},\n", json_str(name)));
    out.push_str(&format!("  \"rows\": {},\n", meta.rows));
    out.push_str(&format!("  \"statements_per_session\": {},\n", meta.statements_per_session));
    out.push_str(&format!("  \"reads_per_write\": {},\n", meta.reads_per_write));
    out.push_str(&format!("  \"stall_nanos_nominal\": {},\n", meta.stall_nanos_nominal));
    out.push_str(&format!("  \"available_parallelism\": {},\n", meta.available_parallelism));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"sessions\": {}, \"seconds\": {:.9}, \"stmts_per_sec\": {:.3}, \"speedup\": {:.3}}}{}\n",
            r.sessions,
            r.seconds,
            r.stmts_per_sec,
            r.speedup,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, out)?;
    Ok(path)
}

/// One commit-discipline measurement of the group-commit bench: a
/// write-heavy statement stream on a disk store under one epoch size
/// (or the per-statement-fsync baseline).
#[derive(Debug, Clone)]
pub struct TxnThroughput {
    /// Discipline label: `"per-statement"` or `"epoch/<k>"`.
    pub mode: String,
    /// Statements per group fsync (1 for the per-statement baseline).
    pub epoch_statements: u64,
    /// Wall seconds for the whole statement stream.
    pub seconds: f64,
    /// Statements per second.
    pub stmts_per_sec: f64,
    /// Throughput relative to the per-statement baseline.
    pub speedup: f64,
}

/// Writes `BENCH_<name>.json` for the group-commit bench:
/// `{"bench": name, "statements": n, "results": [{mode,
/// epoch_statements, seconds, stmts_per_sec, speedup}, …]}`. Returns the
/// path written.
pub fn write_txn_json(
    dir: &std::path::Path,
    name: &str,
    statements: u64,
    results: &[TxnThroughput],
) -> std::io::Result<std::path::PathBuf> {
    let mut out = String::new();
    out.push_str(&format!("{{\n  \"bench\": {},\n", json_str(name)));
    out.push_str(&format!("  \"statements\": {statements},\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": {}, \"epoch_statements\": {}, \"seconds\": {:.9}, \
             \"stmts_per_sec\": {:.3}, \"speedup\": {:.3}}}{}\n",
            json_str(&r.mode),
            r.epoch_statements,
            r.seconds,
            r.stmts_per_sec,
            r.speedup,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, out)?;
    Ok(path)
}

/// JSON string quoting per RFC 8259: escape quotes, backslashes, and
/// control characters; everything else (including non-ASCII) passes
/// through unescaped, which valid JSON allows.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_json_schema_is_stable() {
        let dir = std::env::temp_dir();
        let rows = vec![
            BatchComparison {
                name: "read/64B".into(),
                blocks: 256,
                per_block_s: 2e-3,
                batched_s: 1e-3,
            },
            BatchComparison {
                name: "write/64B".into(),
                blocks: 256,
                per_block_s: 3e-3,
                batched_s: 1e-3,
            },
        ];
        let path = write_batch_json(&dir, "batch_io_test", &rows).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"bench\": \"batch_io_test\""));
        assert!(body.contains("\"per_block_s\": 0.002000000"));
        assert!(body.contains("\"speedup\": 2.000"));
        assert!(body.trim_end().ends_with('}'));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn telemetry_json_schema_is_stable() {
        let dir = std::env::temp_dir();
        let rows = vec![
            TelemetryOverhead {
                workload: "select_scan".into(),
                off_seconds: 0.010,
                on_seconds: 0.0102,
                overhead: 0.02,
                spans_per_iter: 12,
            },
            TelemetryOverhead {
                workload: "join".into(),
                off_seconds: 0.020,
                on_seconds: 0.0201,
                overhead: 0.005,
                spans_per_iter: 30,
            },
        ];
        let path = write_telemetry_json(&dir, "telemetry_test", 7, &rows).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"bench\": \"telemetry_test\""));
        assert!(body.contains("\"iters\": 7"));
        assert!(body.contains("\"workload\": \"select_scan\""));
        assert!(body.contains("\"off_seconds\": 0.010000000"));
        assert!(body.contains("\"overhead\": 0.0200"));
        assert!(body.contains("\"spans_per_iter\": 12"));
        assert!(body.trim_end().ends_with('}'));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn substrate_json_schema_is_stable() {
        let dir = std::env::temp_dir();
        let stats = oblidb_enclave::HostStats {
            reads: 5,
            writes: 2,
            bytes_read: 100,
            bytes_written: 40,
            crossings: 3,
            stall_nanos: 9,
        };
        let rows = vec![
            SubstrateMeasurement {
                workload: "scan".into(),
                report: stats.report("disk"),
                seconds: 0.5,
                backing_crossings: None,
            },
            SubstrateMeasurement {
                workload: "scan".into(),
                report: stats.report("cached-disk"),
                seconds: 0.25,
                backing_crossings: Some(1),
            },
        ];
        let cells = [PerBlockCost {
            memory: "cached:disk resident".into(),
            block_bytes: 53,
            access: "seq_read",
            ns_per_block: 12.34,
        }];
        let path = write_substrate_json(&dir, "substrates_test", &rows, &cells).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains(
            "{\"memory\": \"cached:disk resident\", \"block_bytes\": 53, \
             \"access\": \"seq_read\", \"ns_per_block\": 12.3}"
        ));
        assert!(body.contains("\"bench\": \"substrates_test\""));
        assert!(body.contains("\"substrate\": \"disk\""));
        assert!(body.contains("\"crossings\": 3"));
        assert!(body.contains("\"stall_nanos\": 9"));
        assert!(body.contains("\"backing_crossings\": 1"));
        assert!(!body.contains("\"backing_crossings\": null"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn parallel_json_schema_is_stable() {
        let dir = std::env::temp_dir();
        let meta = ParallelMeta {
            shards: 8,
            rows_per_shard: 512,
            stall_nanos_nominal: 1_000_000,
            stall_nanos_measured: 1_110_000,
            available_parallelism: 1,
        };
        let rows = vec![
            ParallelScaling { workers: 1, seconds: 0.016, speedup: 1.0, crossings: 16 },
            ParallelScaling { workers: 4, seconds: 0.004, speedup: 4.0, crossings: 16 },
        ];
        let path = write_parallel_json(&dir, "parallel_test", &meta, &rows).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"bench\": \"parallel_test\""));
        assert!(body.contains("\"stall_nanos_nominal\": 1000000"));
        assert!(body.contains("\"workers\": 4"));
        assert!(body.contains("\"speedup\": 4.000"));
        assert!(body.trim_end().ends_with('}'));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn crypto_json_schema_is_stable() {
        let dir = std::env::temp_dir();
        let rows = vec![
            CryptoThroughput {
                op: "seal".into(),
                backend: "scalar".into(),
                batch_blocks: 256,
                block_bytes: 1024,
                mib_s: 400.0,
                speedup_vs_scalar: 1.0,
                parent_mib_s: None,
            },
            CryptoThroughput {
                op: "seal".into(),
                backend: "avx2".into(),
                batch_blocks: 256,
                block_bytes: 1024,
                mib_s: 1200.0,
                speedup_vs_scalar: 3.0,
                parent_mib_s: Some(600.0),
            },
        ];
        let path = write_crypto_json(&dir, "crypto_test", "avx2", &rows).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"bench\": \"crypto_test\""));
        assert!(body.contains("\"detected_backend\": \"avx2\""));
        assert!(body.contains("\"backend\": \"scalar\""));
        assert!(body.contains("\"speedup_vs_scalar\": 3.000"));
        // 1024 B at 1200 MiB/s is 813.8 ns; the parent ran at half that.
        assert!(body.contains("\"ns_per_block\": 813.8"));
        assert!(body.contains("\"parent_ns_per_block\": 1627.6, \"vs_parent\": 2.000"));
        assert!(body.contains("\"parent_ns_per_block\": null, \"vs_parent\": null"));
        assert!(body.trim_end().ends_with('}'));
        // The artifact reads back as the next run's parent rows.
        let back = read_crypto_json(&path);
        assert_eq!(back.len(), 2);
        assert_eq!((back[1].op.as_str(), back[1].backend.as_str()), ("seal", "avx2"));
        assert_eq!((back[1].batch_blocks, back[1].block_bytes, back[1].mib_s), (256, 1024, 1200.0));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn txn_json_schema_is_stable() {
        let dir = std::env::temp_dir();
        let rows = vec![
            TxnThroughput {
                mode: "per-statement".into(),
                epoch_statements: 1,
                seconds: 0.8,
                stmts_per_sec: 320.0,
                speedup: 1.0,
            },
            TxnThroughput {
                mode: "epoch/32".into(),
                epoch_statements: 32,
                seconds: 0.1,
                stmts_per_sec: 2560.0,
                speedup: 8.0,
            },
        ];
        let path = write_txn_json(&dir, "txn_test", 256, &rows).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"bench\": \"txn_test\""));
        assert!(body.contains("\"statements\": 256"));
        assert!(body.contains("\"mode\": \"per-statement\""));
        assert!(body.contains("\"epoch_statements\": 32"));
        assert!(body.contains("\"speedup\": 8.000"));
        assert!(body.trim_end().ends_with('}'));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn builds_and_renders() {
        let mut r = Report::new("Fig X", &["a", "b"]);
        r.row(&["1".into(), "2".into()]);
        let md = r.to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        r.print();
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut r = Report::new("Fig X", &["a", "b"]);
        r.row(&["1".into()]);
    }
}
