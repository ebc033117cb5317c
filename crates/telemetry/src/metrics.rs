//! A process-wide metrics registry: named counters and log₂ histograms.
//!
//! The registry is a fixed set of atomics — no allocation, no locks, no
//! host accesses on the recording path. [`counter_add`] and
//! [`histogram_record`] are gated on the same static enable flag as
//! spans, so disabled telemetry pays exactly one branch. [`snapshot`]
//! copies the atomics into an owned [`MetricsSnapshot`] that callers can
//! extend with substrate counters (`HostStats`, cache stats, plan-cache
//! stats) before exporting as text or JSON — export is a boundary-point
//! operation, per the crate-level leakage rationale.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::spans::enabled;

/// Buckets per histogram: one per power of two of the recorded value
/// (bucket 0 holds values 0 and 1).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Every named counter the engine maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Statements prepared (plan or cache hit).
    Prepares,
    /// Prepared-plan cache hits.
    PlanCacheHits,
    /// Prepared-plan cache misses (full planning runs).
    PlanCacheMisses,
    /// Statements executed through `run_plan`.
    StatementsRun,
    /// WAL records appended.
    WalAppends,
    /// WAL records decoded during crash recovery.
    WalRecoveredRecords,
    /// Region blocks sealed, one at a time or in a batch.
    BlocksSealed,
    /// Region blocks opened, one at a time or in a batch.
    BlocksOpened,
    /// Payload bytes of the region blocks sealed.
    BytesSealed,
    /// Payload bytes of the region blocks opened.
    BytesOpened,
    /// Path ORAM accesses (real + dummy).
    OramAccesses,
    /// Sessions the server's session limiter admitted and ran.
    PoolJobs,
    /// Statement traces checked by the oblivious-trace auditor.
    AuditChecks,
    /// Auditor divergences: same statement shape, different trace.
    AuditViolations,
    /// Statements the auditor skipped (caller already owned the trace).
    AuditSkips,
    /// Connections accepted by a serving front-end.
    ServerConnections,
    /// Statements received over the wire.
    ServerStatements,
    /// Request bytes read off the wire (frame headers + payloads).
    ServerBytesIn,
    /// Response bytes written to the wire (frame headers + payloads).
    ServerBytesOut,
    /// Statements that returned an error frame.
    ServerErrors,
    /// Multi-statement transactions committed (buffered batch applied).
    TxnCommits,
    /// Transactions aborted: explicit ROLLBACK, failed commit-time
    /// validation, or a session dropped mid-transaction.
    TxnAborts,
    /// Epoch-commit group fsyncs — one per closed epoch, however many
    /// statements it covered.
    EpochFsyncs,
}

/// Number of [`Counter`] variants (the registry's fixed size).
const COUNTER_COUNT: usize = Counter::EpochFsyncs as usize + 1;

const COUNTER_NAMES: [&str; COUNTER_COUNT] = [
    "prepares",
    "plan_cache_hits",
    "plan_cache_misses",
    "statements_run",
    "wal_appends",
    "wal_recovered_records",
    "blocks_sealed",
    "blocks_opened",
    "bytes_sealed",
    "bytes_opened",
    "oram_accesses",
    "pool_jobs",
    "audit_checks",
    "audit_violations",
    "audit_skips",
    "server_connections",
    "server_statements",
    "server_bytes_in",
    "server_bytes_out",
    "server_errors",
    "txn_commits",
    "txn_aborts",
    "epoch_fsyncs",
];

/// Every log₂ histogram the engine maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistogramId {
    /// Wall nanoseconds per executed statement.
    StatementNanos,
    /// Blocks per batch seal call.
    SealBatchBlocks,
    /// Blocks per batch open call.
    OpenBatchBlocks,
    /// Wall nanoseconds per Path ORAM access.
    OramPathNanos,
}

const HISTOGRAM_COUNT: usize = HistogramId::OramPathNanos as usize + 1;

const HISTOGRAM_NAMES: [&str; HISTOGRAM_COUNT] =
    ["statement_nanos", "seal_batch_blocks", "open_batch_blocks", "oram_path_nanos"];

static COUNTERS: [AtomicU64; COUNTER_COUNT] = [const { AtomicU64::new(0) }; COUNTER_COUNT];

static HISTOGRAMS: [[AtomicU64; HISTOGRAM_BUCKETS]; HISTOGRAM_COUNT] =
    [const { [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS] }; HISTOGRAM_COUNT];

impl Counter {
    /// Stable exporter label.
    pub fn name(self) -> &'static str {
        COUNTER_NAMES[self as usize]
    }
}

impl HistogramId {
    /// Stable exporter label.
    pub fn name(self) -> &'static str {
        HISTOGRAM_NAMES[self as usize]
    }
}

/// Adds `delta` to a counter. One branch when telemetry is disabled.
///
/// Safe under unsynchronized concurrency: each add is a relaxed atomic
/// RMW, so no increment is ever lost, and every counter read by
/// [`snapshot`] is individually exact at its own load point. Relaxed
/// ordering means a snapshot taken while threads are mid-operation may
/// straddle causally related counters (e.g. `server_statements` bumped
/// before the matching `statements_run` lands) — quiesce first when
/// exact cross-counter consistency matters.
#[inline]
pub fn counter_add(counter: Counter, delta: u64) {
    if enabled() {
        COUNTERS[counter as usize].fetch_add(delta, Ordering::Relaxed);
    }
}

/// The log₂ bucket a value lands in: `⌊log₂(max(value, 1))⌋`.
pub fn bucket_index(value: u64) -> usize {
    (63 - (value | 1).leading_zeros()) as usize
}

/// Records one observation. One branch when telemetry is disabled.
#[inline]
pub fn histogram_record(hist: HistogramId, value: u64) {
    if enabled() {
        HISTOGRAMS[hist as usize][bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Zeroes every counter and histogram (test/bench isolation).
pub fn reset_metrics() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for h in &HISTOGRAMS {
        for b in h {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// One histogram, copied out of the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Exporter label.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Non-empty buckets as `(lower_bound, count)`; `lower_bound` is the
    /// smallest value the bucket admits (0, then powers of two).
    pub buckets: Vec<(u64, u64)>,
}

/// A point-in-time copy of the registry, extensible with caller-side
/// counters before export.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` counter pairs, registry counters first.
    pub counters: Vec<(String, u64)>,
    /// Histograms with at least the registry's entries.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Copies the registry into a snapshot. Reading is always allowed (it is
/// the caller's export decision that gates leakage, not the flag).
pub fn snapshot() -> MetricsSnapshot {
    let counters = COUNTER_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| (name.to_string(), COUNTERS[i].load(Ordering::Relaxed)))
        .collect();
    let histograms = HISTOGRAM_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut count = 0;
            let mut buckets = Vec::new();
            for (b, cell) in HISTOGRAMS[i].iter().enumerate() {
                let v = cell.load(Ordering::Relaxed);
                if v > 0 {
                    count += v;
                    buckets.push((if b == 0 { 0 } else { 1u64 << b }, v));
                }
            }
            HistogramSnapshot { name: name.to_string(), count, buckets }
        })
        .collect();
    MetricsSnapshot { counters, histograms }
}

impl MetricsSnapshot {
    /// Appends a caller-side counter (e.g. a `HostStats` field or a cache
    /// hit count) so substrate numbers export alongside engine ones.
    pub fn push_counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.push((name.into(), value));
    }

    /// Plain-text export, one `name value` line per counter, then one
    /// line per histogram with its non-empty buckets.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("{name} {value}\n"));
        }
        for h in &self.histograms {
            out.push_str(&format!("{} count={}", h.name, h.count));
            for (lo, n) in &h.buckets {
                out.push_str(&format!(" ge{lo}={n}"));
            }
            out.push('\n');
        }
        out
    }

    /// JSON export (hand-rolled; the workspace is dependency-free):
    /// `{"counters": {name: value, …}, "histograms": [{name, count,
    /// buckets: [[lower_bound, count], …]}, …]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            out.push_str(&format!(
                "\n    {}: {}{}",
                json_str(name),
                value,
                if i + 1 < self.counters.len() { "," } else { "" }
            ));
        }
        out.push_str("\n  },\n  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            let buckets: Vec<String> =
                h.buckets.iter().map(|(lo, n)| format!("[{lo}, {n}]")).collect();
            out.push_str(&format!(
                "\n    {{\"name\": {}, \"count\": {}, \"buckets\": [{}]}}{}",
                json_str(&h.name),
                h.count,
                buckets.join(", "),
                if i + 1 < self.histograms.len() { "," } else { "" }
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// JSON string quoting per RFC 8259.
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
    use crate::spans::{set_enabled, test_gate};

    /// Metrics tests share the process-global registry and enable flag.
    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        let guard = test_gate();
        set_enabled(true);
        reset_metrics();
        guard
    }

    #[test]
    fn property_bucket_index_is_floor_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(u64::MAX), 63);
        // Every power of two opens its own bucket; its predecessor closes
        // the previous one.
        for shift in 1..64u32 {
            let v = 1u64 << shift;
            assert_eq!(bucket_index(v), shift as usize, "2^{shift}");
            assert_eq!(bucket_index(v - 1), shift as usize - 1, "2^{shift} - 1");
            assert_eq!(bucket_index(v + (v >> 1)), shift as usize, "1.5 * 2^{shift}");
        }
        // LCG sweep: bucket must always satisfy 2^b <= max(v,1) < 2^(b+1).
        let mut seed = 42u64;
        for _ in 0..10_000 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = seed;
            let b = bucket_index(v) as u32;
            assert!(1u64 << b <= v.max(1));
            assert!(b == 63 || v < 1u64 << (b + 1));
        }
    }

    #[test]
    fn counters_gate_on_enabled() {
        let _x = exclusive();
        set_enabled(false);
        counter_add(Counter::WalAppends, 3);
        set_enabled(true);
        counter_add(Counter::WalAppends, 2);
        let snap = snapshot();
        let (_, v) = snap.counters.iter().find(|(n, _)| n == "wal_appends").unwrap();
        assert_eq!(*v, 2, "only the enabled increment lands");
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let _x = exclusive();
        for v in [0, 1, 2, 3, 1024, 1500] {
            histogram_record(HistogramId::SealBatchBlocks, v);
        }
        let snap = snapshot();
        let h = snap.histograms.iter().find(|h| h.name == "seal_batch_blocks").unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.buckets, vec![(0, 2), (2, 2), (1024, 2)]);
    }

    #[test]
    fn exporters_render_counters_and_histograms() {
        let _x = exclusive();
        counter_add(Counter::OramAccesses, 7);
        histogram_record(HistogramId::StatementNanos, 900);
        let mut snap = snapshot();
        snap.push_counter("host.crossings", 11);
        let text = snap.to_text();
        assert!(text.contains("oram_accesses 7"));
        assert!(text.contains("host.crossings 11"));
        assert!(text.contains("statement_nanos count=1 ge512=1"));
        let json = snap.to_json();
        assert!(json.contains("\"oram_accesses\": 7"));
        assert!(json.contains("\"host.crossings\": 11"));
        assert!(
            json.contains("\"name\": \"statement_nanos\", \"count\": 1, \"buckets\": [[512, 1]]")
        );
    }
}
