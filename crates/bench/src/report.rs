//! Result tables and JSON artifacts for the recorded benchmark binaries.
//!
//! Each binary prints its rows as a table to stdout and writes them to
//! one `BENCH_<name>.json`, the artifact the perf trajectory compares.

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
/// writes, bytes_read, bytes_written, crossings, backing_crossings?}, …],
/// "per_block": [{memory, block_bytes, access, ns_per_block}, …]}`.
/// Returns the path written.
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
             \"writes\": {}, \"bytes_read\": {}, \"bytes_written\": {}, \"crossings\": {}{}}}{}\n",
            json_str(&r.report.name),
            json_str(&r.workload),
            r.seconds,
            s.reads,
            s.writes,
            s.bytes_read,
            s.bytes_written,
            s.crossings,
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
    fn substrate_json_schema_is_stable() {
        let dir = std::env::temp_dir();
        let stats = oblidb_enclave::HostStats {
            reads: 5,
            writes: 2,
            bytes_read: 100,
            bytes_written: 40,
            crossings: 3,
            ..Default::default()
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
        assert!(!body.contains("stall_nanos"));
        assert!(body.contains("\"backing_crossings\": 1"));
        assert!(!body.contains("\"backing_crossings\": null"));
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
    fn builds_and_renders() {
        let mut r = Report::new("Fig X", &["a", "b"]);
        r.row(&["1".into(), "2".into()]);
        r.print();
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut r = Report::new("Fig X", &["a", "b"]);
        r.row(&["1".into()]);
    }
}
