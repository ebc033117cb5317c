//! Substrate comparison: the same engine workloads over in-RAM, disk,
//! cached-disk, and sharded backends, recorded for the perf trajectory.
//!
//! Runs scan-, select-, and ORAM-shaped workloads through the full
//! engine over each [`SubstrateSpec`] and emits `BENCH_substrates.json`
//! (one row per substrate × workload: wall-clock + the uniform
//! [`oblidb_enclave::StatsReport`] counters + backing crossings for
//! cached substrates).
//! The logical counters are identical across substrates by construction —
//! that is the conformance property — so the interesting columns are
//! seconds and, for the cache, how much backing traffic was absorbed.
//!
//! A second table prices the memories alone, no engine above them: the
//! per-block cost of batched sequential reads, gathered reads and
//! sequential writes on `host`, `disk`, and `cached:disk` both fully
//! resident (every access a hit) and thrashing at 1/8 capacity (every
//! access a miss and an eviction). The full run asserts that a resident
//! cache hit stays within 8× of `host`'s copy.

use oblidb_bench::report::{write_substrate_json, PerBlockCost, Report, SubstrateMeasurement};
use oblidb_bench::timing::{fmt_duration, time_mean, time_once};
use oblidb_core::{Database, DbConfig, StorageMethod, Value};
use oblidb_enclave::EnclaveMemory;
use oblidb_substrates::{AnySubstrate, SubstrateSpec};
use std::time::Duration;

/// Same SGX-transition model as `batch_io`: ~8k cycles per crossing.
const SGX_CROSSING_SPINS: u32 = 250;

fn smoke() -> bool {
    oblidb_bench::smoke_mode()
}

fn rows() -> i64 {
    if smoke() {
        128
    } else {
        2048
    }
}

fn iters() -> usize {
    if smoke() {
        1
    } else {
        5
    }
}

fn specs() -> Vec<SubstrateSpec> {
    // Sized for the hot set (flat table + ORAM buckets): the cache's
    // intended operating point. The conformance suite covers the
    // larger-than-cache regime; the ROADMAP notes the follow-up that
    // would soften it here (coalescing batched misses).
    let cache = rows() as usize * 2;
    vec![
        SubstrateSpec::Host,
        SubstrateSpec::Disk { dir: None },
        SubstrateSpec::CachedDisk { dir: None, capacity_blocks: cache },
        SubstrateSpec::ShardedHost { shards: 4 },
        SubstrateSpec::ShardedDisk { dir: None, shards: 4 },
    ]
}

/// Builds the experiment database: a flat fact table and an ORAM-indexed
/// point-lookup table, bulk-loaded.
fn setup(substrate: AnySubstrate) -> Database<AnySubstrate> {
    let n = rows();
    let mut db = Database::with_memory(substrate, DbConfig::default());
    let schema = oblidb_core::Schema::new(vec![
        oblidb_core::Column::new("k", oblidb_core::DataType::Int),
        oblidb_core::Column::new("v", oblidb_core::DataType::Int),
    ]);
    let data: Vec<Vec<Value>> =
        (0..n).map(|i| vec![Value::Int(i), Value::Int((i * 7) % 1000)]).collect();
    db.create_table_with_rows("t", schema.clone(), StorageMethod::Flat, None, &data, n as u64)
        .unwrap();
    let idx_n = n / 8;
    let idx_data: Vec<Vec<Value>> =
        (0..idx_n).map(|i| vec![Value::Int(i), Value::Int(i * 3)]).collect();
    db.create_table_with_rows(
        "idx",
        schema,
        StorageMethod::Indexed,
        Some("k"),
        &idx_data,
        idx_n as u64,
    )
    .unwrap();
    db
}

/// One workload measurement: times `iters()` runs, then captures the
/// counters of exactly one further run, so the JSON row pairs
/// mean-per-iteration seconds with per-iteration counters whatever the
/// iteration count (smoke and full artifacts stay comparable).
fn measure(
    db: &mut Database<AnySubstrate>,
    workload: &str,
    mut f: impl FnMut(&mut Database<AnySubstrate>),
) -> SubstrateMeasurement {
    // Warm once (page cache, allocator, ORAM stash) outside the timing.
    f(db);
    let mean = time_mean(iters(), || f(db));
    db.host_mut().reset_stats();
    let backing_before = db.host_mut().backing_stats().map(|s| s.crossings);
    f(db);
    let m = db.host_mut();
    SubstrateMeasurement {
        workload: workload.to_string(),
        report: m.stats().report(m.label()),
        seconds: mean.as_secs_f64(),
        backing_crossings: m.backing_stats().map(|s| s.crossings - backing_before.unwrap_or(0)),
    }
}

/// Blocks per batched call of the per-block table — the size of the
/// operators' chunked scans.
const RAW_CHUNK: usize = 256;

/// Best-of-three nanoseconds per block of one pass over `blocks` blocks.
fn best_ns_per_block(blocks: usize, mut pass: impl FnMut()) -> f64 {
    pass(); // warm: page cache, cache residency, buffer capacities
    let best = (0..3).map(|_| time_once(&mut pass).1).min().expect("three samples");
    best.as_nanos() as f64 / blocks as f64
}

/// The raw per-block cost table (see the module docs).
fn per_block_costs() -> Vec<PerBlockCost> {
    let blocks = if smoke() { 2048 } else { 32768 };
    let half = blocks as u64 / 2;
    let memories = [
        ("host", SubstrateSpec::Host),
        ("disk", SubstrateSpec::Disk { dir: None }),
        ("cached:disk resident", SubstrateSpec::CachedDisk { dir: None, capacity_blocks: blocks }),
        (
            "cached:disk thrashing",
            SubstrateSpec::CachedDisk { dir: None, capacity_blocks: blocks / 8 },
        ),
    ];
    let mut cells = Vec::new();
    for block_bytes in [53, 300] {
        for (memory, spec) in &memories {
            let mut m = spec.build().expect("substrate builds");
            let r = m.alloc_region(blocks, block_bytes).expect("region allocates");
            let data = vec![0xA5u8; RAW_CHUNK * block_bytes];
            let mut out = Vec::new();
            let starts = || (0..blocks as u64).step_by(RAW_CHUNK);
            let seq_write = best_ns_per_block(blocks, || {
                for start in starts() {
                    m.write_blocks(r, start, &data).expect("write");
                }
            });
            let seq_read = best_ns_per_block(blocks, || {
                for start in starts() {
                    m.read_blocks(r, start, RAW_CHUNK, &mut out).expect("read");
                    std::hint::black_box(&out);
                }
            });
            // The bitonic-pair shape: each call gathers two runs half a
            // region apart.
            let run = RAW_CHUNK as u64 / 2;
            let mut indices = Vec::with_capacity(RAW_CHUNK);
            let gather_read = best_ns_per_block(blocks, || {
                for a in (0..half).step_by(run as usize) {
                    indices.clear();
                    indices.extend((a..a + run).chain(a + half..a + half + run));
                    m.read_blocks_at(r, &indices, &mut out).expect("gather");
                    std::hint::black_box(&out);
                }
            });
            for (access, ns_per_block) in
                [("seq_read", seq_read), ("gather_read", gather_read), ("seq_write", seq_write)]
            {
                cells.push(PerBlockCost {
                    memory: memory.to_string(),
                    block_bytes,
                    access,
                    ns_per_block,
                });
            }
        }
    }
    cells
}

fn main() {
    let n = rows();
    let mut results: Vec<SubstrateMeasurement> = Vec::new();
    let mut cache_notes: Vec<String> = Vec::new();

    for spec in specs() {
        let mut substrate = spec.build().expect("substrate builds");
        substrate.set_crossing_cost(SGX_CROSSING_SPINS);
        let label = substrate.label();
        let mut db = setup(substrate);

        results.push(measure(&mut db, "scan", |db| {
            let out = db.execute("SELECT COUNT(*), SUM(v) FROM t WHERE k >= 0").unwrap();
            std::hint::black_box(out.rows()[0][0].as_int());
        }));
        results.push(measure(&mut db, "select", |db| {
            let out = db.execute(&format!("SELECT * FROM t WHERE k < {}", n / 8)).unwrap();
            std::hint::black_box(out.len());
        }));
        results.push(measure(&mut db, "oram_point", |db| {
            for probe in [1i64, n / 16, n / 8 - 1] {
                let out = db.execute(&format!("SELECT * FROM idx WHERE k = {probe}")).unwrap();
                std::hint::black_box(out.len());
            }
        }));

        if let Some(cs) = db.host_mut().cache_stats() {
            cache_notes.push(format!(
                "{label}: cache hit rate {:.1}% ({} hits / {} misses, {} evictions)",
                cs.hit_rate() * 100.0,
                cs.hits,
                cs.misses,
                cs.evictions
            ));
        }
    }

    let mut report = Report::new(
        format!("Engine workloads across substrates ({n} rows, SGX-priced crossings)"),
        &["substrate", "workload", "mean", "crossings", "backing-crossings"],
    );
    for r in &results {
        report.row(&[
            r.report.name.clone(),
            r.workload.clone(),
            fmt_duration(Duration::from_secs_f64(r.seconds)),
            r.report.stats.crossings.to_string(),
            r.backing_crossings.map_or_else(|| "-".into(), |b| b.to_string()),
        ]);
    }
    report.print();
    for note in &cache_notes {
        println!("{note}");
    }

    let cells = per_block_costs();
    let mut table = Report::new(
        format!("Per-block cost of the memories alone ({RAW_CHUNK}-block calls, crossings free)"),
        &["memory", "block", "access", "ns/block"],
    );
    for c in &cells {
        table.row(&[
            c.memory.clone(),
            format!("{} B", c.block_bytes),
            c.access.to_string(),
            format!("{:.1}", c.ns_per_block),
        ]);
    }
    table.print();
    if !smoke() {
        let seq_read_53 = |memory: &str| {
            let hit = |c: &&PerBlockCost| {
                c.memory == memory && c.block_bytes == 53 && c.access == "seq_read"
            };
            cells.iter().find(hit).expect("cell measured").ns_per_block
        };
        let (hit, copy) = (seq_read_53("cached:disk resident"), seq_read_53("host"));
        assert!(
            hit <= 8.0 * copy,
            "a resident cache hit costs {hit:.1} ns/block, over 8x host's {copy:.1} ns/block"
        );
    }

    match write_substrate_json(std::path::Path::new("."), "substrates", &results, &cells) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_substrates.json: {e}"),
    }
}
