//! The traced run: per-layer metrics, measured from outside the program.
//!
//! Three sources, none of them a new span or counter inside the engine:
//!
//! * **(a) depth differences** — the same operation stream is driven at
//!   three depths, a phase each: over the wire (`Connection::execute`),
//!   through the in-process session (`TxnSession::execute`), and on the
//!   owner engine (`Database::prepare` + `PreparedStatement::run`). Wire
//!   minus session is the server layer's own time; session minus engine
//!   is the shared-database layer's (fork, latches, plan-cache fold).
//! * **(b) [`TimedMemory`]** around the substrate: calls, blocks, bytes
//!   and busy time per call kind, split by which layer owns the region.
//! * **(c) the program's existing exports**, read as they are: the
//!   telemetry counters and span ring, `HostStats`, `CacheStats`,
//!   `PlanCacheStats`, `ServerStats`, the audit report.
//!
//! Operation counts are fixed, as in the end-to-end run, so on
//! one-connection workloads every counter repeats exactly for a seed.
//! End-to-end metrics never come from this run; a short untraced pass over
//! the same operations gives `trace.overhead_pct`.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use oblidb_baselines::opaque::OpaqueEngine;
use oblidb_core::exec::AggFunc;
use oblidb_core::predicate::{CmpOp, Predicate};
use oblidb_core::Value;
use oblidb_crypto::{open_batch, seal_batch, AeadKey, Nonce, TAG_LEN};
use oblidb_enclave::HostStats;
use oblidb_substrates::AnySubstrate;
use oblidb_telemetry::{SpanKind, SpanRecord, RING_CAPACITY};
use oblidb_txn::TxnManager;
use oblidb_workloads::bdb;

use crate::drive::{
    drive_clients, ClientLog, EngineExec, EngineTimes, Executor, SessionExec, WireExec,
};
use crate::gen::{OpStream, Verb};
use crate::json::Json;
use crate::run::{
    shut_down_and_recount, streams, summarize_classes, verify_count, wire_clients, Metric,
    RunResult,
};
use crate::stats::median;
use crate::timed::{TimedMemory, TimedStats};
use crate::workload::{set_up, BenchStore, Dataset, Kind, Served};

/// What the repo's SGX crossing model charges per boundary transition:
/// its benches price one at 250 spins ≈ 8 k cycles ≈ 2.7 µs
/// (`crates/bench/src/bin/batch_io.rs`). Used only for the labelled
/// `enclave.model_priced_ms_per_stmt`; nothing is ever slept or spun.
const SGX_CROSSING_US: f64 = 2.7;

/// The three depths, in phase order.
const DEPTHS: [&str; 3] = ["wire", "session", "engine"];

/// Count and total time of one span kind.
#[derive(Debug, Clone, Copy, Default)]
struct KindTime {
    count: u64,
    total_ns: u64,
}

impl KindTime {
    fn mean_ms(&self) -> f64 {
        ratio(self.total_ns as f64 / 1e6, self.count as f64)
    }
}

/// Running totals over the engine's spans. Records are folded in as they
/// are drained and then dropped: a cold Q3 plan alone emits millions.
#[derive(Debug, Default)]
struct SpanTotals {
    kinds: HashMap<SpanKind, KindTime>,
    /// AEAD (seal/open) time inside each still-open span, by its id. A
    /// child is always recorded before its parent, so a subtree's total
    /// waits here until the parent's own record arrives and carries it up.
    aead_under: HashMap<u32, u64>,
    /// AEAD time inside `run` spans (the rest is the planner's dry runs,
    /// inside `prepare`), and inside `oram.path` / `wal.append` spans.
    aead_in_run_ns: u64,
    aead_in_oram_ns: u64,
    aead_in_wal_ns: u64,
    /// Records the ring overwrote before they could be drained.
    dropped: u64,
}

impl SpanTotals {
    fn fold(&mut self, span: &SpanRecord) {
        let kind = self.kinds.entry(span.kind).or_default();
        kind.count += 1;
        kind.total_ns += span.dur_ns;

        let own = matches!(span.kind, SpanKind::SealBatch | SpanKind::OpenBatch);
        let aead =
            self.aead_under.remove(&span.id).unwrap_or(0) + if own { span.dur_ns } else { 0 };
        match span.kind {
            // A statement's two phases are where the climb stops.
            SpanKind::Run => return self.aead_in_run_ns += aead,
            SpanKind::Prepare => return,
            SpanKind::OramPath => self.aead_in_oram_ns += aead,
            SpanKind::WalAppend => self.aead_in_wal_ns += aead,
            _ => {}
        }
        if aead > 0 && span.parent != 0 {
            *self.aead_under.entry(span.parent).or_default() += aead;
        }
    }

    fn kind(&self, kind: SpanKind) -> KindTime {
        self.kinds.get(&kind).copied().unwrap_or_default()
    }

    fn merge(&mut self, other: &SpanTotals) {
        for (kind, t) in &other.kinds {
            let mine = self.kinds.entry(*kind).or_default();
            mine.count += t.count;
            mine.total_ns += t.total_ns;
        }
        self.aead_in_run_ns += other.aead_in_run_ns;
        self.aead_in_oram_ns += other.aead_in_oram_ns;
        self.aead_in_wal_ns += other.aead_in_wal_ns;
        self.dropped += other.dropped;
    }
}

/// Drains the telemetry ring from a background thread so its 4 096
/// slots never wrap.
struct SpanCollector {
    totals: Arc<Mutex<SpanTotals>>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl SpanCollector {
    fn start() -> SpanCollector {
        let totals = Arc::new(Mutex::new(SpanTotals::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let (t, st) = (Arc::clone(&totals), Arc::clone(&stop));
        let thread = std::thread::Builder::new()
            .name("bench-span-drain".to_string())
            .spawn(move || {
                while !st.load(Ordering::Relaxed) {
                    // Keep draining while the ring fills fast; otherwise
                    // leave the cores to the system under test.
                    if Self::drain(&t) < RING_CAPACITY / 64 {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
            })
            .expect("spawn span drainer");
        SpanCollector { totals, stop, thread: Some(thread) }
    }

    fn drain(totals: &Mutex<SpanTotals>) -> usize {
        // `take_spans` resets the drop counter, so read it first.
        let dropped = oblidb_telemetry::dropped_spans();
        let taken = oblidb_telemetry::take_spans();
        if dropped > 0 || !taken.is_empty() {
            let mut totals = totals.lock().expect("span totals poisoned");
            totals.dropped += dropped;
            taken.iter().for_each(|span| totals.fold(span));
        }
        taken.len()
    }

    /// Totals since the last cut (callers cut while no statement is in
    /// flight, so no span tree is split).
    fn cut(&self) -> SpanTotals {
        Self::drain(&self.totals);
        std::mem::take(&mut *self.totals.lock().expect("span totals poisoned"))
    }
}

impl Drop for SpanCollector {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Every externally readable counter, read at one instant (or, after
/// [`Probe::since`], its growth over an interval). The telemetry registry,
/// `CacheStats`, `PlanCacheStats` and the backing store's crossings share
/// one name → value map (the last three under `cache.`, `plans.` and
/// `backing.` prefixes).
#[derive(Debug, Clone, Default)]
struct Probe {
    counters: BTreeMap<String, u64>,
    host: HostStats,
    timed: TimedStats,
    read_bytes_by_block: BTreeMap<usize, u64>,
}

/// `a ∘ b` key by key, a missing key counting as 0.
fn zip_maps<K: Ord + Clone>(
    a: &BTreeMap<K, u64>,
    b: &BTreeMap<K, u64>,
    op: impl Fn(u64, u64) -> u64,
) -> BTreeMap<K, u64> {
    let keys = a.keys().chain(b.keys()).cloned().collect::<std::collections::BTreeSet<K>>();
    let get = |m: &BTreeMap<K, u64>, k: &K| m.get(k).copied().unwrap_or(0);
    keys.into_iter().map(|k| (k.clone(), op(get(a, &k), get(b, &k)))).collect()
}

impl Probe {
    fn read<M: BenchStore>(served: &Served<M>) -> Probe {
        let (timed, read_bytes_by_block, cache, backing) = served.db.store().with_store(|m| {
            (
                m.timed_stats(),
                m.read_bytes_by_block(),
                m.substrate().cache_stats().unwrap_or_default(),
                m.substrate().backing_stats().unwrap_or_default(),
            )
        });
        let plans = served.db.plan_cache_stats();
        let mut counters: BTreeMap<String, u64> =
            oblidb_telemetry::snapshot().counters.into_iter().collect();
        counters.extend(
            [
                ("cache.hits", cache.hits),
                ("cache.misses", cache.misses),
                ("cache.evictions", cache.evictions),
                ("cache.writebacks", cache.writebacks),
                ("backing.crossings", backing.crossings),
                ("plans.hits", plans.hits),
                ("plans.misses", plans.misses),
            ]
            .map(|(name, value)| (name.to_string(), value)),
        );
        Probe { counters, host: served.db.store().store_stats(), timed, read_bytes_by_block }
    }

    /// Growth of every counter from `earlier` to `self`.
    fn since(&self, earlier: &Probe) -> Probe {
        Probe {
            counters: zip_maps(&self.counters, &earlier.counters, |now, then| now - then),
            host: self.host - earlier.host,
            timed: self.timed - earlier.timed,
            read_bytes_by_block: zip_maps(
                &self.read_bytes_by_block,
                &earlier.read_bytes_by_block,
                |now, then| now - then,
            ),
        }
    }

    /// Sums two intervals' growth.
    fn plus(&self, other: &Probe) -> Probe {
        Probe {
            counters: zip_maps(&self.counters, &other.counters, |a, b| a + b),
            host: self.host + other.host,
            timed: self.timed + other.timed,
            read_bytes_by_block: zip_maps(
                &self.read_bytes_by_block,
                &other.read_bytes_by_block,
                |a, b| a + b,
            ),
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// One depth's phase: what the clients saw and what the program recorded
/// while (and only while) it ran.
struct Phase {
    log: ClientLog,
    wall_s: f64,
    spans: SpanTotals,
    /// Counter growth over the phase.
    grew: Probe,
    /// Engine depth only: time inside `prepare` and `run`.
    engine: EngineTimes,
}

impl Phase {
    fn ops(&self) -> f64 {
        self.log.samples.len().max(1) as f64
    }

    fn class_ms(&self, class: usize) -> Vec<f64> {
        self.log.samples.iter().filter(|s| s.class == class).map(|s| s.ms).collect()
    }

    fn class_means(&self, classes: usize) -> Vec<Option<f64>> {
        (0..classes).map(|class| mean(&self.class_ms(class))).collect()
    }
}

fn mean(ms: &[f64]) -> Option<f64> {
    (!ms.is_empty()).then(|| ms.iter().sum::<f64>() / ms.len() as f64)
}

/// The median, unless the sample is too small to stand for anything.
fn usable_median(ms: Vec<f64>) -> Option<f64> {
    (ms.len() >= 3).then(|| median(&ms))
}

/// Mean per-operation difference `outer − inner`: each class's mean
/// difference, weighted by how often the class occurs in `outer` (the
/// phases' mixes differ slightly). Means, not medians: layer times must
/// add up to wall time, and time spent waiting on a latch sits in the
/// tail a median ignores.
fn depth_difference_ms(outer: &Phase, inner: &[Option<f64>], classes: usize) -> f64 {
    let outer_means = outer.class_means(classes);
    let (mut weighted, mut weight) = (0.0, 0.0);
    for class in 0..classes {
        if let (Some(o), Some(i)) = (outer_means[class], inner[class]) {
            let n = outer.class_ms(class).len() as f64;
            weighted += (o - i) * n;
            weight += n;
        }
    }
    ratio(weighted, weight)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn mib_per_s(bytes: u64, ns: u64) -> f64 {
    ratio(bytes as f64 / (1024.0 * 1024.0), ns as f64 / 1e9)
}

/// Raw `oblidb_crypto` batch AEAD throughput at `block_bytes` per block
/// (256-block batches, the sealed-storage layer's run size): the ceiling
/// `storage.open_mib_s` is compared against. Returns (seal, open) MiB/s.
fn raw_aead_mib_s(block_bytes: usize) -> (f64, f64) {
    const BATCH: usize = 256;
    // Enough rounds to move ~4 MiB at any block size, after one untimed
    // round that pays for cold caches and the SIMD dispatch.
    let rounds = (4 * 1024 * 1024 / (BATCH * block_bytes)).max(16);
    let key = AeadKey([0x42u8; 32]);
    let nonces: Vec<Nonce> = (0..BATCH).map(|i| Nonce::from_parts(7, i as u64)).collect();
    let aads: Vec<[u8; 16]> = (0..BATCH).map(|i| [(i & 0xff) as u8; 16]).collect();
    let aad_refs: Vec<&[u8]> = aads.iter().map(|a| a.as_slice()).collect();
    let mut data = vec![0xa5u8; BATCH * block_bytes];
    let mut tags = vec![[0u8; TAG_LEN]; BATCH];
    let plain = data.clone();

    let mut seal_ns = 0u64;
    let mut open_ns = 0u64;
    for round in 0..=rounds {
        data.copy_from_slice(&plain);
        let started = Instant::now();
        let mut blocks: Vec<&mut [u8]> = data.chunks_exact_mut(block_bytes).collect();
        seal_batch(&key, &nonces, &aad_refs, &mut blocks, &mut tags);
        let sealed = started.elapsed().as_nanos() as u64;
        let started = Instant::now();
        let mut blocks: Vec<&mut [u8]> = data.chunks_exact_mut(block_bytes).collect();
        open_batch(&key, &nonces, &aad_refs, &mut blocks, &tags).expect("tags were just sealed");
        let opened = started.elapsed().as_nanos() as u64;
        std::hint::black_box(&data);
        if round > 0 {
            seal_ns += sealed;
            open_ns += opened;
        }
    }
    let bytes = (rounds * BATCH * block_bytes) as u64;
    (mib_per_s(bytes, seal_ns), mib_per_s(bytes, open_ns))
}

/// Q1–Q3 once each on `baselines::opaque` (oblivious mode, its
/// evaluation's 72 MB of oblivious memory), in milliseconds: with
/// [`Dataset::plain_ms`], the Figure 7 shape check beside `bdb_scan`'s
/// medians.
fn opaque_baseline_ms(data: &Dataset) -> Result<[f64; 3], String> {
    let (rankings, visits) = (&data.tables[0].rows, &data.tables[1].rows);
    let e = |err: oblidb_core::DbError| format!("opaque baseline: {err}");
    let rank_gt = Predicate::cmp(
        &bdb::rankings_schema(),
        "pageRank",
        CmpOp::Gt,
        Value::Int(bdb::Q1_PAGERANK_CUTOFF),
    )
    .map_err(e)?;
    let date_lt = Predicate::cmp(
        &bdb::uservisits_schema(),
        "visitDate",
        CmpOp::Lt,
        Value::Int(bdb::Q3_DATE_CUTOFF),
    )
    .map_err(e)?;
    let ms = |started: Instant| started.elapsed().as_secs_f64() * 1e3;

    let mut opaque = OpaqueEngine::new(72 * 1024 * 1024, data.seed);
    let mut tr = opaque.load_table(bdb::rankings_schema(), rankings).map_err(e)?;
    let mut tv = opaque.load_table(bdb::uservisits_schema(), visits).map_err(e)?;
    let started = Instant::now();
    let out = opaque.select(&mut tr, &rank_gt).map_err(e)?;
    let q1 = ms(started);
    out.free(&mut opaque.host).map_err(e)?;
    let started = Instant::now();
    let out =
        opaque.group_aggregate(&mut tv, 1, AggFunc::Sum, Some(4), &Predicate::True).map_err(e)?;
    let q2 = ms(started);
    out.free(&mut opaque.host).map_err(e)?;
    let started = Instant::now();
    let mut filtered = opaque.select(&mut tv, &date_lt).map_err(e)?;
    let mut joined = opaque.join(&mut tr, 0, &mut filtered, 2).map_err(e)?;
    opaque.aggregate(&mut joined, AggFunc::Avg, Some(1), &Predicate::True).map_err(e)?;
    opaque.aggregate(&mut joined, AggFunc::Sum, Some(7), &Predicate::True).map_err(e)?;
    Ok([q1, q2, ms(started)])
}

/// Runs one depth's phase with telemetry on for exactly its duration, so
/// spans and counters cover the phase's statements and nothing else.
fn run_phase<M: BenchStore, E: Executor + Send>(
    served: &Served<M>,
    collector: &SpanCollector,
    execs: &mut [E],
    op_streams: &mut [Box<dyn OpStream>],
    ops: usize,
) -> Phase {
    collector.cut();
    let before = Probe::read(served);
    oblidb_telemetry::set_enabled(true);
    let (log, wall_s) = drive_clients(execs, op_streams, ops);
    oblidb_telemetry::set_enabled(false);
    let spans = collector.cut();
    let grew = Probe::read(served).since(&before);
    Phase { log, wall_s, spans, grew, engine: EngineTimes::default() }
}

/// What the untraced reference pass measured.
struct Reference {
    /// Statements per second (for `trace.overhead_pct`).
    ops_per_s: f64,
    /// `bdb_scan`: how much longer the cold cycle's Q3 took than the warm
    /// median (the planner's dry runs); 0 elsewhere.
    cold_q3_ms: f64,
    /// `stmt_a`'s class at the highest percentile the pass supports.
    stmt_a_tail_ms: f64,
}

/// The untraced reference: the first `ops` operations per client over
/// the wire on a bare store, telemetry off.
fn untraced_reference(data: &Dataset, ops: usize) -> Result<Reference, String> {
    let served: Served<AnySubstrate> = set_up(data, false)?;
    let mut clients = wire_clients(data, &served)?;
    let mut op_streams = streams(data);
    let (warm, _) = drive_clients(&mut clients, &mut op_streams, data.warmup_ops());
    let (log, wall_s) = drive_clients(&mut clients, &mut op_streams, ops);
    let q3 = |log: &ClientLog| log.samples.iter().filter(|s| s.class == 2).map(|s| s.ms).collect();
    let cold_q3_ms = match (data.spec.kind, usable_median(q3(&log))) {
        (Kind::BdbScan, Some(warm_q3)) => q3(&warm).first().map_or(0.0, |cold| cold - warm_q3),
        _ => 0.0,
    };
    let classes = summarize_classes(data, &log);
    let (_, stmt_a_tail_ms) = classes[data.spec.slots[0].0].1.at(99.0);
    Ok(Reference { ops_per_s: ratio(log.statements as f64, wall_s), cold_q3_ms, stmt_a_tail_ms })
}

/// Raw AEAD throughput over the block sizes a run actually read,
/// weighted by the bytes read at each size. Returns (seal, open) MiB/s.
fn raw_aead_for(read_bytes_by_block: &BTreeMap<usize, u64>) -> (f64, f64) {
    let overhead = oblidb_crypto::aead::NONCE_LEN + TAG_LEN;
    let (mut bytes, mut seal_s, mut open_s) = (0.0, 0.0, 0.0);
    for (&sealed_block, &read) in
        read_bytes_by_block.iter().filter(|(b, n)| **b > overhead && **n > 0)
    {
        let (seal, open) = raw_aead_mib_s(sealed_block - overhead);
        let mib = read as f64 / (1024.0 * 1024.0);
        bytes += mib;
        seal_s += ratio(mib, seal);
        open_s += ratio(mib, open);
    }
    (ratio(bytes, seal_s), ratio(bytes, open_s))
}

/// Everything the traced pass measured, before any metric is derived.
struct Measured {
    reference: Reference,
    /// Substrate traffic of the traced set-up (the bulk load).
    setup_host: HostStats,
    /// Median INSERT round trip with both clients running (the wire
    /// phase) minus with one alone (two-connection workloads; 0 elsewhere).
    write_wait_ms: f64,
    wire: Phase,
    session: Phase,
    engine: Phase,
    oram_per_point_read: f64,
    violations: usize,
    server: oblidb_server::ServerStats,
    store_bytes: u64,
    opaque_ms: [f64; 3],
}

/// The traced run of one workload. See the module docs.
pub fn run_traced(data: &Dataset) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let measured = measure(data, &mut result)?;
    derive(data, measured, &mut result);
    Ok(result)
}

/// Runs the untraced reference, then the three traced phases, checking
/// results into `result` as it goes.
fn measure(data: &Dataset, result: &mut RunResult) -> Result<Measured, String> {
    let spec = data.spec;
    let ops = data.traced_ops();

    let reference = untraced_reference(data, ops)?;

    oblidb_telemetry::reset_metrics();
    let collector = SpanCollector::start();
    let mut served: Served<TimedMemory<AnySubstrate>> = set_up(data, true)?;
    let setup_host = served.db.store().store_stats();

    let mut clients = wire_clients(data, &served)?;
    let mut op_streams = streams(data);
    let (warm, _) = drive_clients(&mut clients, &mut op_streams, data.warmup_ops());
    result.absorb(&warm);
    let mut rows_delta = warm.rows_delta;

    // One client alone first: what an INSERT costs with nobody to wait for.
    let median_write = |log: &ClientLog| {
        usable_median(
            log.samples.iter().filter(|s| s.class == spec.write_class).map(|s| s.ms).collect(),
        )
    };
    let mut write_alone_ms = None;
    if spec.connections > 1 {
        let (solo, _) = drive_clients(&mut clients[..1], &mut op_streams[..1], ops);
        write_alone_ms = median_write(&solo);
        result.absorb(&solo);
        rows_delta += solo.rows_delta;
    }

    let wire = run_phase(&served, &collector, &mut clients, &mut op_streams, ops);
    let write_wait_ms = match (write_alone_ms, median_write(&wire.log)) {
        (Some(alone), Some(beside)) => beside - alone,
        _ => 0.0,
    };

    let manager = TxnManager::new(served.db.clone(), data.epoch());
    let flusher = data.epoch().map(|_| manager.spawn_flusher());
    let mut sessions: Vec<SessionExec<_>> =
        (0..spec.connections).map(|_| SessionExec::new(&manager)).collect();
    let session = run_phase(&served, &collector, &mut sessions, &mut op_streams, ops);
    drop((sessions, flusher));
    manager.flush().map_err(|e| format!("epoch flush: {e}"))?;

    // The master engine plans through its own cache (forks share another),
    // so it gets its own warm-up before its phase.
    let mut engines: Vec<EngineExec<_>> =
        (0..spec.connections).map(|_| EngineExec::new(served.db.clone(), data.epoch())).collect();
    let (engine_warm, _) = drive_clients(&mut engines, &mut op_streams, data.warmup_ops());
    result.absorb(&engine_warm);
    rows_delta += engine_warm.rows_delta;
    engines.iter_mut().for_each(|e| e.times = Default::default());
    let mut engine = run_phase(&served, &collector, &mut engines, &mut op_streams, ops);
    for e in engines {
        engine.engine.prepare_ns += e.times.prepare_ns;
        engine.engine.run_ns += e.times.run_ns;
        engine.engine.per_op.extend(e.times.per_op);
    }

    // ORAM accesses behind one point read, from a read-only probe.
    let mut oram_per_point_read = 0.0;
    if spec.kind == Kind::IndexMix {
        const READS: u64 = 64;
        let before = Probe::read(&served);
        oblidb_telemetry::set_enabled(true);
        let mut exec = EngineExec::new(served.db.clone(), None);
        let n = data.tables[0].rows.len() as u64;
        for i in 0..READS {
            let sql = format!("SELECT * FROM t WHERE id = {}", (i * 7919) % n);
            result.verify("point-read probe", exec.run(&Verb::Sql(sql)).map(|_| ()));
        }
        oblidb_telemetry::set_enabled(false);
        let grew = Probe::read(&served).since(&before);
        oram_per_point_read = grew.counter("oram_accesses") as f64 / READS as f64;
    }

    for phase in [&wire, &session, &engine] {
        result.absorb(&phase.log);
        rows_delta += phase.log.rows_delta;
    }
    drop(clients);
    let want = data.counted_table().rows.len() as i64 + rows_delta;
    let mut checker = WireExec::connect(served.addr)?;
    result.verify("final COUNT(*)", verify_count(&mut checker, data.counted_table().name, want));
    drop(checker);
    let violations = served.db.audit_violations().len();
    let server = shut_down_and_recount(data, &mut served, want, result).unwrap_or_default();
    let store_bytes = served.dir.bytes();
    drop(collector);
    drop(served);

    let opaque_ms = if spec.kind == Kind::BdbScan { opaque_baseline_ms(data)? } else { [0.0; 3] };
    Ok(Measured {
        reference,
        setup_host,
        write_wait_ms,
        wire,
        session,
        engine,
        oram_per_point_read,
        violations,
        server,
        store_bytes,
        opaque_ms,
    })
}

/// Turns what was measured into the per-layer metrics, the repeatable
/// counters and the bench-side spans.
fn derive(data: &Dataset, measured: Measured, result: &mut RunResult) {
    let spec = data.spec;
    let classes = spec.classes.len();
    let Measured {
        reference,
        setup_host,
        write_wait_ms,
        wire,
        session,
        engine,
        oram_per_point_read,
        violations,
        server,
        store_bytes,
        opaque_ms,
    } = measured;
    let plain_ms = data.plain_ms;

    // ---- derive the metrics ----
    let phases = [&wire, &session, &engine];
    let mut pass = SpanTotals::default();
    phases.iter().for_each(|p| pass.merge(&p.spans));
    let kind = |k: SpanKind| pass.kind(k);
    let grew = wire.grew.plus(&session.grew).plus(&engine.grew);
    let (timed, host) = (grew.timed, grew.host);
    let delta = |name: &str| grew.counter(name);
    let statements: u64 = phases.iter().map(|p| p.log.statements).sum();
    let rows_returned: u64 = phases.iter().map(|p| p.log.rows_returned).sum();
    let measured_s: f64 = phases.iter().map(|p| p.wall_s).sum();

    // (a) depth differences, per operation.
    let engine_means: Vec<Option<f64>> = {
        // At engine depth an operation's time is prepare + run, measured
        // inside the admin latch (waiting for the latch is the shared
        // layer's time, not the engine's).
        let mut per_class: Vec<Vec<f64>> = vec![Vec::new(); classes];
        for (sample, (p, r)) in engine.log.samples.iter().zip(&engine.engine.per_op) {
            per_class[sample.class].push((p + r) as f64 / 1e6);
        }
        per_class.iter().map(|ms| mean(ms)).collect()
    };
    let wire_ms = depth_difference_ms(&wire, &session.class_means(classes), classes);
    let shared_ms = depth_difference_ms(&session, &engine_means, classes);
    let engine_ops = engine.ops();
    let prepare_ms = engine.engine.prepare_ns as f64 / 1e6 / engine_ops;
    let run_ms = engine.engine.run_ns as f64 / 1e6 / engine_ops;

    // The engine phase's `run` time, split by who was busy.
    let e_kind = |k: SpanKind| engine.spans.kind(k);
    let e_timed = engine.grew.timed;
    let e_oram_self_ns = e_kind(SpanKind::OramPath)
        .total_ns
        .saturating_sub(engine.spans.aead_in_oram_ns)
        .saturating_sub(e_timed.oram_io.busy_ns);
    let e_wal_self_ns = e_kind(SpanKind::WalAppend)
        .total_ns
        .saturating_sub(engine.spans.aead_in_wal_ns)
        .saturating_sub(e_timed.wal_io.busy_ns);
    let e_busy_ns =
        engine.spans.aead_in_run_ns + e_oram_self_ns + e_wal_self_ns + e_timed.busy_ns();
    let exec_self_ms = (engine.engine.run_ns.saturating_sub(e_busy_ns)) as f64 / 1e6 / engine_ops;

    // Cross-check of (a) against (c): over the wire phase, the round trips
    // minus the engine's own prepare/run spans is time spent outside the
    // engine (wire, latches, forks); the depth differences, taken from
    // the other two phases, estimate the same quantity.
    let wire_rt_ms: f64 = wire.log.samples.iter().map(|s| s.ms).sum();
    let wire_engine_ms = (wire.spans.kind(SpanKind::Prepare).total_ns
        + wire.spans.kind(SpanKind::Run).total_ns) as f64
        / 1e6;
    let outside_measured = wire_rt_ms - wire_engine_ms;
    let outside_estimated = (wire_ms + shared_ms) * wire.ops();
    let unattributed_pct = 100.0 * ratio((outside_measured - outside_estimated).abs(), wire_rt_ms);

    let traced_ops_per_s = ratio(wire.log.statements as f64, wire.wall_s);
    let overhead_pct = 100.0 * ratio(reference.ops_per_s - traced_ops_per_s, reference.ops_per_s);

    let epoch_fsyncs = delta("epoch_fsyncs");
    let block_bytes = data.counted_table().schema.row_len();
    let mutated_rows = phases.iter().map(|p| p.log.rows_delta.abs()).sum::<i64>().max(1);
    let oram_accesses = delta("oram_accesses");
    let seal_ns = kind(SpanKind::SealBatch).total_ns;
    let open_ns = kind(SpanKind::OpenBatch).total_ns;
    let storage_open_mib_s = mib_per_s(delta("bytes_opened"), open_ns);
    let (crypto_seal, crypto_open) = raw_aead_for(&grew.read_bytes_by_block);
    let ms = |ns: u64| ns as f64 / 1e6;
    let count = |n: u64| n as f64;

    let m = |name: &str, value: f64, unit: &'static str| Metric::new(name, value, unit, "");
    result.metrics = vec![
        m("server.wire_ms_per_stmt", wire_ms, "ms"),
        m("server.bytes_in", count(server.bytes_in), "B"),
        m("server.bytes_out", count(server.bytes_out), "B"),
        m("server.errors", count(server.errors), "count"),
        m("txn.commits", count(delta("txn_commits")), "count"),
        m("txn.aborts", count(delta("txn_aborts")), "count"),
        m("txn.commit_ms", kind(SpanKind::TxnCommit).mean_ms(), "ms"),
        m("txn.epoch_fsyncs", count(epoch_fsyncs), "count"),
        m("txn.stmts_per_epoch", ratio(count(delta("wal_appends")), count(epoch_fsyncs)), "count"),
        m("txn.epoch_close_ms", kind(SpanKind::Epoch).mean_ms(), "ms"),
        m("core.shared.overhead_ms_per_stmt", shared_ms, "ms"),
        m("core.shared.write_wait_ms", write_wait_ms, "ms"),
        m("core.plan.prepare_ms_per_stmt", prepare_ms, "ms"),
        m(
            "core.plan.cache_hit_ratio",
            ratio(count(delta("plans.hits")), count(delta("plans.hits") + delta("plans.misses"))),
            "ratio",
        ),
        m("core.plan.cold_q3_ms", reference.cold_q3_ms, "ms"),
        m("core.exec.run_ms_per_stmt", run_ms, "ms"),
        m("core.exec.self_ms_per_stmt", exec_self_ms, "ms"),
        m(
            "core.exec.select_ms",
            {
                let selects = [
                    SpanKind::SelectSmall,
                    SpanKind::SelectLarge,
                    SpanKind::SelectContinuous,
                    SpanKind::SelectHash,
                    SpanKind::SelectNaive,
                    SpanKind::SelectPadded,
                ]
                .map(kind);
                ratio(
                    ms(selects.iter().map(|k| k.total_ns).sum()),
                    count(selects.iter().map(|k| k.count).sum()),
                )
            },
            "ms",
        ),
        m("core.exec.group_by_ms", kind(SpanKind::GroupBy).mean_ms(), "ms"),
        m("core.exec.join_ms", kind(SpanKind::Join).mean_ms(), "ms"),
        m("core.exec.sort_ms", kind(SpanKind::Sort).mean_ms(), "ms"),
        m(
            "core.exec.blocks_opened_per_result_row",
            ratio(count(delta("blocks_opened")), count(rows_returned)),
            "count",
        ),
        m("core.wal.appends", count(delta("wal_appends")), "count"),
        m("core.wal.append_ms", kind(SpanKind::WalAppend).mean_ms(), "ms"),
        m(
            "core.wal.bytes_per_user_byte",
            ratio(count(timed.wal_io.bytes), (mutated_rows as usize * block_bytes) as f64),
            "B/B",
        ),
        m("storage.blocks_sealed", count(delta("blocks_sealed")), "count"),
        m("storage.blocks_opened", count(delta("blocks_opened")), "count"),
        m("storage.bytes_sealed", count(delta("bytes_sealed")), "B"),
        m("storage.bytes_opened", count(delta("bytes_opened")), "B"),
        m("storage.seal_ms", ms(seal_ns), "ms"),
        m("storage.open_ms", ms(open_ns), "ms"),
        m("storage.open_mib_s", storage_open_mib_s, "MiB/s"),
        m("crypto.open_mib_s", crypto_open, "MiB/s"),
        m("crypto.seal_mib_s", crypto_seal, "MiB/s"),
        m("storage.aead_efficiency", ratio(storage_open_mib_s, crypto_open), "ratio"),
        m("oram.accesses", count(oram_accesses), "count"),
        m("oram.path_ms_mean", kind(SpanKind::OramPath).mean_ms(), "ms"),
        m("oram.accesses_per_point_read", oram_per_point_read, "count"),
        m("oram.bytes_per_access", ratio(count(timed.oram_io.bytes), count(oram_accesses)), "B"),
        m(
            "oram.crossings_per_access",
            ratio(count(timed.oram_io.calls), count(oram_accesses)),
            "count",
        ),
        m("enclave.crossings", count(host.crossings), "count"),
        m("enclave.crossings_per_stmt", ratio(count(host.crossings), count(statements)), "count"),
        m("enclave.stall_ms", ms(host.stall_nanos), "ms"),
        m(
            "enclave.model_priced_ms_per_stmt",
            ratio(count(host.crossings) * SGX_CROSSING_US / 1e3, count(statements)),
            "ms",
        ),
        m("enclave.pool_jobs", count(delta("pool_jobs")), "count"),
        m("substrates.read_calls", count(timed.reads.calls), "count"),
        m("substrates.write_calls", count(timed.writes.calls), "count"),
        m("substrates.blocks_read", count(timed.reads.blocks), "count"),
        m("substrates.blocks_written", count(timed.writes.blocks), "count"),
        m("substrates.bytes_read", count(timed.reads.bytes), "B"),
        m("substrates.bytes_written", count(timed.writes.bytes), "B"),
        m("substrates.io_ms", ms(timed.io_ns()), "ms"),
        m("substrates.alloc_calls", count(timed.allocs.calls), "count"),
        m("substrates.alloc_ms", ms(timed.allocs.busy_ns), "ms"),
        m("substrates.sync_calls", count(timed.syncs.calls), "count"),
        m("substrates.sync_ms", ms(timed.syncs.busy_ns), "ms"),
        m("substrates.store_bytes", count(store_bytes), "B"),
        m(
            "substrates.cache_hit_ratio",
            ratio(count(delta("cache.hits")), count(delta("cache.hits") + delta("cache.misses"))),
            "ratio",
        ),
        m("substrates.cache_evictions", count(delta("cache.evictions")), "count"),
        m("substrates.cache_writebacks", count(delta("cache.writebacks")), "count"),
        m("substrates.backing_crossings", count(delta("backing.crossings")), "count"),
        m("baselines.plain.q1_ms", plain_ms[0], "ms"),
        m("baselines.plain.q2_ms", plain_ms[1], "ms"),
        m("baselines.plain.q3_ms", plain_ms[2], "ms"),
        m("baselines.opaque.q1_ms", opaque_ms[0], "ms"),
        m("baselines.opaque.q2_ms", opaque_ms[1], "ms"),
        m("baselines.opaque.q3_ms", opaque_ms[2], "ms"),
        m("core.audit.violations", violations as f64, "count"),
        m("trace.overhead_pct", overhead_pct, "%"),
        m("trace.spans_dropped", count(pass.dropped), "count"),
        m("trace.unattributed_pct", unattributed_pct, "%"),
        // An end-to-end number too unsteady on the reference box to carry
        // a bound, from the untraced reference pass.
        m("e2e.stmt_a_tail_ms", reference.stmt_a_tail_ms, "ms"),
    ];

    // Counters that repeat exactly for a seed on one-connection workloads
    // (block, byte, call and crossing counts — nothing timed).
    result.counters = [
        "storage.blocks_sealed",
        "storage.blocks_opened",
        "storage.bytes_sealed",
        "storage.bytes_opened",
        "substrates.read_calls",
        "substrates.write_calls",
        "substrates.blocks_read",
        "substrates.blocks_written",
        "substrates.bytes_read",
        "substrates.bytes_written",
        "substrates.alloc_calls",
        "enclave.crossings",
        "oram.accesses",
        "core.wal.appends",
        "server.bytes_in",
        "server.bytes_out",
    ]
    .iter()
    .filter_map(|name| {
        result.metrics.iter().find(|m| m.name == *name).map(|m| (name.to_string(), m.value as u64))
    })
    .collect();
    // Set-up traffic is a counter too: a cheaper bulk load shows here.
    result.counters.push(("setup.blocks_written".to_string(), setup_host.writes));
    result.counters.push(("setup.crossings".to_string(), setup_host.crossings));

    // Bench-side spans: one per operation, named after its depth, and at
    // engine depth its prepare/run children.
    let mut merged = ClientLog::default();
    for (depth, phase) in DEPTHS.into_iter().zip([wire, session, engine]) {
        for (i, sample) in phase.log.samples.iter().enumerate() {
            let id = result.spans.len() as u64;
            let end_us = sample.start_us + (sample.ms * 1e3) as u64;
            result.spans.push(
                Json::obj()
                    .set("id", id)
                    .set("name", depth)
                    .set("class", spec.classes[sample.class])
                    .set("start_us", sample.start_us)
                    .set("end_us", end_us)
                    .set("parent", Json::Null),
            );
            if let Some((prepare_ns, run_ns)) = phase.engine.per_op.get(i) {
                // Latch wait precedes prepare; place the children at the
                // end of the operation's interval.
                let run_start = end_us.saturating_sub(run_ns / 1000);
                let prepare_start = run_start.saturating_sub(prepare_ns / 1000);
                for (name, start, end) in
                    [("prepare", prepare_start, run_start), ("run", run_start, end_us)]
                {
                    result.spans.push(
                        Json::obj()
                            .set("id", result.spans.len() as u64)
                            .set("name", name)
                            .set("start_us", start)
                            .set("end_us", end)
                            .set("parent", id),
                    );
                }
            }
        }
        merged.merge(phase.log);
    }
    result.classes = summarize_classes(data, &merged);
    result.measured_s = measured_s;
}
