//! The end-to-end (untraced) run of one workload.
//!
//! Telemetry stays disabled, the store is the bare substrate, and every
//! statement goes through the real entry point: SQL over loopback TCP to
//! an in-process `oblidb_server::serve`. The measured phase is a fixed
//! number of operations per client — closed loops, one thread per
//! connection — and every reply is checked against the generator's model.

use oblidb_substrates::AnySubstrate;

use crate::drive::{drive_clients, ClientLog, Executor, Outcome, SessionExec, WireExec};
use crate::gen::{OpStream, Verb};
use crate::stats::{median, summarize, Summary};
use crate::workload::{set_up, BenchStore, Dataset, Served};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, every digit of it.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind it, where that is meaningful.
    pub n: Option<usize>,
    /// What it means on this workload (e.g. which statement class).
    pub note: String,
}

impl Metric {
    /// A metric with no sample count.
    pub fn new(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
        Metric { name: name.to_string(), value, unit, n: None, note: note.into() }
    }

    /// Attaches the sample count.
    pub fn with_n(mut self, n: usize) -> Metric {
        self.n = Some(n);
        self
    }
}

/// The outcome of one run (end-to-end or traced).
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted, final checks included.
    pub attempted: u64,
    /// Operations that errored, were refused, or returned a wrong result.
    pub failed: u64,
    /// The first few failures.
    pub errors: Vec<String>,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Latency summary per statement class (milliseconds).
    pub classes: Vec<(String, Summary)>,
    /// Counters that repeat exactly for a seed on one-connection workloads.
    pub counters: Vec<(String, u64)>,
    /// Wall seconds of the measured phase(s).
    pub measured_s: f64,
    /// Bench-side spans of the traced run, one JSON object each.
    pub spans: Vec<crate::json::Json>,
}

impl RunResult {
    /// Folds a phase's client log into the totals.
    pub fn absorb(&mut self, log: &ClientLog) {
        self.attempted += log.attempted;
        self.failed += log.failed;
        for e in &log.errors {
            if self.errors.len() < 8 {
                self.errors.push(e.clone());
            }
        }
    }

    /// Records one extra check (a final count, say).
    pub fn verify(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.errors.push(format!("{what}: {why}"));
        }
    }
}

/// Connects one wire client per connection of the workload.
pub fn wire_clients<M: BenchStore>(
    data: &Dataset,
    served: &Served<M>,
) -> Result<Vec<WireExec>, String> {
    (0..data.spec.connections).map(|_| WireExec::connect(served.addr)).collect()
}

/// One stream per connection of the workload.
pub fn streams(data: &Dataset) -> Vec<Box<dyn OpStream>> {
    (0..data.spec.connections as u64).map(|c| data.stream(c)).collect()
}

/// Per-class latency summaries, in class order.
pub fn summarize_classes(data: &Dataset, log: &ClientLog) -> Vec<(String, Summary)> {
    data.spec
        .classes
        .iter()
        .enumerate()
        .map(|(class, name)| {
            let ms: Vec<f64> =
                log.samples.iter().filter(|s| s.class == class).map(|s| s.ms).collect();
            (name.to_string(), summarize(&ms))
        })
        .collect()
}

/// `SELECT COUNT(*)` of the workload's mutated table equals `want`.
pub fn verify_count(exec: &mut dyn Executor, table: &str, want: i64) -> Result<(), String> {
    match exec.run(&Verb::Sql(format!("SELECT COUNT(*) FROM {table}")))? {
        Outcome::Rows(rows) => match rows.first().and_then(|r| r[0].as_int()) {
            Some(got) if got == want => Ok(()),
            got => Err(format!("COUNT(*) = {got:?}, want {want}")),
        },
        other => Err(format!("COUNT(*) returned {other:?}")),
    }
}

/// Stops the server (which seals any open epoch) and re-counts the table
/// through a fresh in-process session. A workload with a write-ahead log
/// checkpoints first: its count must hold after the final checkpoint.
/// The others are not synced — on this file system an fsync of a large
/// store followed by its deletion leaves minutes of background discard
/// work that would slow whatever runs next — and need not be: region files
/// are sized when they are allocated, so the store's size is final.
pub fn shut_down_and_recount<M: BenchStore>(
    data: &Dataset,
    served: &mut Served<M>,
    want: i64,
    result: &mut RunResult,
) -> Option<oblidb_server::ServerStats> {
    let stats = served.server.take().map(|server| server.shutdown());
    if data.epoch().is_some() {
        let checkpoint =
            served.db.admin(|engine| engine.checkpoint()).map_err(|e| format!("checkpoint: {e}"));
        result.verify("final checkpoint", checkpoint);
    }
    let manager = oblidb_txn::TxnManager::new(served.db.clone(), None);
    let mut session = SessionExec::new(&manager);
    result.verify(
        "COUNT(*) after shutdown",
        verify_count(&mut session, data.counted_table().name, want),
    );
    stats
}

/// The slots whose class has no sample. Such a class has no median, and
/// the 0 ms it would report reads as an improvement: each is a failure.
fn untimed(slots: &[Metric]) -> Vec<String> {
    slots
        .iter()
        .filter(|m| m.n == Some(0))
        .map(|m| format!("{}: no successful operation to time ({})", m.name, m.note))
        .collect()
}

/// The end-to-end run: set up (several times, for a steady `setup_s`),
/// warm up, run the fixed operation counts, verify, tear down.
pub fn run_end_to_end(data: &Dataset) -> Result<RunResult, String> {
    let spec = data.spec;
    let mut result = RunResult::default();

    let mut setups = Vec::new();
    let mut served: Served<AnySubstrate> = set_up(data, false)?;
    setups.push(served.setup_s);
    for _ in 1..spec.setup_repeats {
        drop(served);
        served = set_up(data, false)?;
        setups.push(served.setup_s);
    }

    let mut clients = wire_clients(data, &served)?;
    let mut streams = streams(data);
    let (warm, _) = drive_clients(&mut clients, &mut streams, data.warmup_ops());
    result.absorb(&warm);

    let (log, wall_s) = drive_clients(&mut clients, &mut streams, data.measured_ops());
    result.absorb(&log);
    result.measured_s = wall_s;
    result.classes = summarize_classes(data, &log);

    // The server has one worker per measured client, so the checking
    // connection can only be served once those have disconnected.
    drop(clients);
    let rows_delta = warm.rows_delta + log.rows_delta;
    let want = data.counted_table().rows.len() as i64 + rows_delta;
    let mut checker = WireExec::connect(served.addr)?;
    result.verify("final COUNT(*)", verify_count(&mut checker, data.counted_table().name, want));
    drop(checker);
    shut_down_and_recount(data, &mut served, want, &mut result);
    let (stored_bytes, user_bytes) = (served.dir.bytes(), data.user_bytes(rows_delta));
    drop(served);

    // A slot is a percentile (usually the median) of a statement class.
    let slot = |metric: &str, i: usize| {
        let (class, wanted) = spec.slots[i];
        let (name, s) = &result.classes[class];
        let (p, value) = s.at(wanted);
        let note = format!("{name} p{p} (min {:.3}, max {:.3})", s.min, s.max);
        Metric::new(metric, value, "ms", note).with_n(s.n)
    };
    let slots = [slot("stmt_a_ms", 0), slot("stmt_b_ms", 1), slot("stmt_c_ms", 2)];
    let untimed = untimed(&slots);
    let mut metrics = vec![
        Metric::new(
            "setup_s",
            median(&setups),
            "s",
            format!("median of {} set-ups: empty store to listening server", setups.len()),
        )
        .with_n(setups.len()),
        Metric::new(
            "ops_per_s",
            log.statements as f64 / wall_s.max(f64::MIN_POSITIVE),
            "1/s",
            format!("{} statements acknowledged in {wall_s:.3} s", log.statements),
        )
        .with_n(log.statements as usize),
    ];
    metrics.extend(slots);
    metrics.push(Metric::new(
        "stored_bytes_per_user_byte",
        stored_bytes as f64 / user_bytes.max(1) as f64,
        "B/B",
        format!("{stored_bytes} store bytes at shutdown / {user_bytes} live user bytes"),
    ));
    result.metrics = metrics;
    result.failed += untimed.len() as u64;
    result.errors.extend(untimed);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slot_without_samples_is_a_failure_not_a_zero() {
        let timed = Metric::new("stmt_a_ms", 1.5, "ms", "q1 p50").with_n(9);
        let empty = Metric::new("stmt_c_ms", 0.0, "ms", "q3 p50").with_n(0);
        assert!(untimed(std::slice::from_ref(&timed)).is_empty());
        let errors = untimed(&[timed, empty]);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("stmt_c_ms") && errors[0].contains("q3"), "{errors:?}");
    }
}
