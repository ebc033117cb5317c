//! The `EnclaveMemory` seam: every engine layer is generic over its
//! untrusted block store. These tests drive the same oblivious workloads
//! over the payload-storing [`Host`] and the payload-free
//! [`CountingMemory`] and assert the adversary-visible cost — trace
//! length, access counts, byte counts — is identical, while the counting
//! substrate provably keeps no payload bytes.

use oblidb::core::predicate::{CmpOp, Predicate};
use oblidb::core::table::FlatTable;
use oblidb::core::types::{Column, DataType, Schema, Value};
use oblidb::core::SelectAlgo;
use oblidb::core::{exec, Database, DbConfig, DbError};
use oblidb::crypto::aead::AeadKey;
use oblidb::enclave::{
    CountingMemory, EnclaveMemory, EnclaveRng, Host, OmBudget, DEFAULT_OM_BYTES,
};
use oblidb::oram::{PathOram, PosMapKind};

fn schema() -> Schema {
    Schema::new(vec![Column::new("id", DataType::Int), Column::new("v", DataType::Int)])
}

fn build_flat<M: EnclaveMemory>(host: &mut M, n: i64) -> FlatTable {
    let s = schema();
    let encoded: Vec<Vec<u8>> =
        (0..n).map(|i| s.encode_row(&[Value::Int(i), Value::Int(i * 3)]).unwrap()).collect();
    FlatTable::from_encoded_rows(host, AeadKey([1u8; 32]), s, &encoded, n as u64).unwrap()
}

/// A flat-table scan costs the same over both substrates: identical trace
/// (not just length — the full event sequence), identical byte counters.
#[test]
fn flat_scan_counts_match_host() {
    let mut host = Host::new();
    let mut counting = CountingMemory::new();

    let mut t_host = build_flat(&mut host, 64);
    let mut t_cnt = build_flat(&mut counting, 64);

    host.reset_stats();
    counting.reset_stats();
    host.start_trace();
    counting.start_trace();
    for i in 0..t_host.capacity() {
        t_host.read_row(&mut host, i).unwrap();
        t_cnt.read_row(&mut counting, i).unwrap();
    }
    let trace_host = host.take_trace();
    let trace_cnt = counting.take_trace();

    assert_eq!(trace_host.len(), trace_cnt.len());
    assert_eq!(trace_host, trace_cnt, "scan event sequences must be identical");
    assert_eq!(host.stats(), counting.stats(), "byte/access counters must agree");
}

/// An oblivious SELECT over `CountingMemory` produces the same trace
/// length as over `Host` — the whole operator stack is payload-blind.
#[test]
fn oblivious_select_counts_match_host() {
    let pred = Predicate::Cmp { col: 0, op: CmpOp::Lt, value: Value::Int(10) };

    let mut host = Host::new();
    let mut t_host = build_flat(&mut host, 32);
    host.start_trace();
    let out = exec::select_large(&mut host, &mut t_host, &pred, AeadKey([2u8; 32])).unwrap();
    let trace_host = host.take_trace();
    drop(out);

    let mut counting = CountingMemory::new();
    let mut t_cnt = build_flat(&mut counting, 32);
    counting.start_trace();
    let out = exec::select_large(&mut counting, &mut t_cnt, &pred, AeadKey([2u8; 32])).unwrap();
    let trace_cnt = counting.take_trace();
    drop(out);

    assert_eq!(trace_host.len(), trace_cnt.len());
    assert_eq!(trace_host, trace_cnt, "oblivious select traces must be identical");
}

/// Path ORAM accesses cost the same on both substrates. With a direct
/// position map (kept in enclave memory) the traces are identical event
/// by event; stats agree exactly.
#[test]
fn path_oram_counts_match_host() {
    let mut host = Host::new();
    let mut counting = CountingMemory::new();

    let mut oram_host = PathOram::new(
        &mut host,
        AeadKey([9u8; 32]),
        64,
        16,
        PosMapKind::Direct,
        &OmBudget::new(DEFAULT_OM_BYTES),
        EnclaveRng::seed_from_u64(42),
    )
    .unwrap();
    let mut oram_cnt = PathOram::new(
        &mut counting,
        AeadKey([9u8; 32]),
        64,
        16,
        PosMapKind::Direct,
        &OmBudget::new(DEFAULT_OM_BYTES),
        EnclaveRng::seed_from_u64(42),
    )
    .unwrap();

    host.reset_stats();
    counting.reset_stats();
    host.start_trace();
    counting.start_trace();
    for i in 0..64u64 {
        oram_host.write(&mut host, i, &[i as u8; 16]).unwrap();
        oram_cnt.write(&mut counting, i, &[i as u8; 16]).unwrap();
    }
    for i in (0..64u64).rev() {
        oram_host.read(&mut host, i).unwrap();
        oram_cnt.read(&mut counting, i).unwrap();
    }
    oram_host.dummy_access(&mut host).unwrap();
    oram_cnt.dummy_access(&mut counting).unwrap();

    let trace_host = host.take_trace();
    let trace_cnt = counting.take_trace();
    assert_eq!(trace_host.len(), trace_cnt.len());
    assert_eq!(trace_host, trace_cnt, "direct-posmap ORAM traces must be identical");
    assert_eq!(host.stats(), counting.stats());
    assert_eq!(oram_host.stats().accesses, oram_cnt.stats().accesses);
}

/// With a recursive position map the leaf values live in (dropped)
/// payloads, so individual paths may differ — but the access *count* per
/// operation is a public constant and must still match exactly.
#[test]
fn recursive_oram_access_counts_match_host() {
    let kind = PosMapKind::Recursive { entries_per_block: 8 };
    let om = OmBudget::new(DEFAULT_OM_BYTES);

    let mut host = Host::new();
    let mut oram = PathOram::new(
        &mut host,
        AeadKey([3u8; 32]),
        64,
        16,
        kind,
        &om,
        EnclaveRng::seed_from_u64(7),
    )
    .unwrap();
    host.reset_stats();
    for i in 0..32u64 {
        oram.write(&mut host, i, &[1u8; 16]).unwrap();
        oram.read(&mut host, i).unwrap();
    }
    let host_accesses = host.stats().total_accesses();

    let om = OmBudget::new(DEFAULT_OM_BYTES);
    let mut counting = CountingMemory::new();
    let mut oram = PathOram::new(
        &mut counting,
        AeadKey([3u8; 32]),
        64,
        16,
        kind,
        &om,
        EnclaveRng::seed_from_u64(7),
    )
    .unwrap();
    counting.reset_stats();
    for i in 0..32u64 {
        oram.write(&mut counting, i, &[1u8; 16]).unwrap();
        oram.read(&mut counting, i).unwrap();
    }
    assert_eq!(host_accesses, counting.stats().total_accesses());
}

/// The full engine runs over `CountingMemory`: same SQL, same forced
/// plan, same trace length as the `Host`-backed engine — a fast cost
/// model for capacity planning without touching a byte of data.
#[test]
fn database_cost_model_matches_host() {
    fn run<M: EnclaveMemory>(mut db: Database<M>) -> usize {
        db.execute("CREATE TABLE t (id INT, v INT) CAPACITY 32").unwrap();
        for i in 0..20 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 2)).unwrap();
        }
        db.start_trace();
        db.execute("SELECT * FROM t WHERE id < 7").unwrap();
        db.take_trace().len()
    }

    let mut config = DbConfig::default();
    // Force one size-oblivious operator so the plan does not depend on the
    // (payload-derived) match count, which CountingMemory cannot see.
    config.planner.force_select = Some(SelectAlgo::Large);

    let host_len = run(Database::new(config.clone()));
    let counting_len = run(Database::with_memory(CountingMemory::new(), config));
    assert_eq!(host_len, counting_len);
}

/// Without a size-oblivious plan, a payload-free engine must refuse to
/// plan (scan statistics live in dropped payloads) rather than silently
/// produce a diverging trace.
#[test]
fn adaptive_planner_rejects_payload_free_memory() {
    let mut db = Database::with_memory(CountingMemory::new(), DbConfig::default());
    db.execute("CREATE TABLE t (id INT, v INT) CAPACITY 32").unwrap();
    db.execute("INSERT INTO t VALUES (1, 2)").unwrap();
    let err = db.execute("SELECT * FROM t WHERE id < 7").unwrap_err();
    assert!(matches!(err, DbError::Unsupported(_)), "got {err:?}");
}

/// Joins must refuse adaptive planning payload-free, and with a pinned
/// operator the full join pipeline (push-down select included) must
/// produce the identical trace on both substrates.
#[test]
fn forced_join_cost_model_matches_host() {
    use oblidb::core::JoinAlgo;

    fn run<M: EnclaveMemory>(mut db: Database<M>) -> (usize, Vec<u64>) {
        db.execute("CREATE TABLE a (k INT, x INT) CAPACITY 32").unwrap();
        db.execute("CREATE TABLE b (k INT, y INT) CAPACITY 64").unwrap();
        for i in 0..20 {
            db.execute(&format!("INSERT INTO a VALUES ({i}, {i})")).unwrap();
        }
        for i in 0..40 {
            db.execute(&format!("INSERT INTO b VALUES ({}, {i})", i % 20)).unwrap();
        }
        db.start_trace();
        let out = db.execute("SELECT * FROM a JOIN b ON a.k = b.k WHERE x >= 0").unwrap();
        let trace = db.take_trace();
        (trace.len(), out.plan.intermediate_rows.clone())
    }

    let mut config = DbConfig::default();
    config.planner.force_select = Some(SelectAlgo::Large);

    // Without a pinned join the payload-free engine must refuse.
    let mut db = Database::with_memory(CountingMemory::new(), config.clone());
    db.execute("CREATE TABLE a (k INT, x INT) CAPACITY 8").unwrap();
    db.execute("CREATE TABLE b (k INT, y INT) CAPACITY 8").unwrap();
    let err = db.execute("SELECT * FROM a JOIN b ON a.k = b.k").unwrap_err();
    assert!(matches!(err, DbError::Unsupported(_)), "got {err:?}");

    // With a pinned operator, traces match event-count for event-count.
    for algo in [JoinAlgo::Opaque, JoinAlgo::ZeroOm] {
        let mut config = config.clone();
        config.planner.force_join = Some(algo);
        let (host_len, _) = run(Database::new(config.clone()));
        let (cnt_len, _) = run(Database::with_memory(CountingMemory::new(), config));
        assert_eq!(host_len, cnt_len, "{algo:?} trace length diverged");
    }
}

/// Unpadded GROUP BY sizes output by a payload-derived group count, so
/// a payload-free engine must refuse it (padding mode stays allowed).
#[test]
fn group_by_rejects_payload_free_memory_without_padding() {
    let mut config = DbConfig::default();
    config.planner.force_select = Some(SelectAlgo::Large);
    let mut db = Database::with_memory(CountingMemory::new(), config);
    db.execute("CREATE TABLE t (grp INT, v INT) CAPACITY 16").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
    let err = db.execute("SELECT grp, SUM(v) FROM t GROUP BY grp").unwrap_err();
    assert!(matches!(err, DbError::Unsupported(_)), "got {err:?}");
}

/// Indexed storage cannot run payload-free (B+ tree routing state lives
/// in payloads) and must say so with a typed error, not a panic.
#[test]
fn indexed_storage_rejects_payload_free_memory() {
    let mut db = Database::with_memory(CountingMemory::new(), DbConfig::default());
    db.execute("CREATE TABLE flat_ok (id INT, v INT)").unwrap();
    let err = db
        .execute("CREATE TABLE t (id INT, v INT) STORAGE = INDEXED INDEX ON id CAPACITY 32")
        .unwrap_err();
    assert!(matches!(err, DbError::Unsupported(_)), "got {err:?}");
    let err = db
        .execute("CREATE TABLE u (id INT, v INT) STORAGE = BOTH INDEX ON id CAPACITY 32")
        .unwrap_err();
    assert!(matches!(err, DbError::Unsupported(_)), "got {err:?}");
}

/// WAL recovery reads statements out of payloads, so a payload-free
/// engine must refuse it (appends still count correctly).
#[test]
fn wal_recovery_rejects_payload_free_memory() {
    let config =
        DbConfig { wal: Some(oblidb::core::wal::WalConfig::default()), ..DbConfig::default() };
    let mut db = Database::with_memory(CountingMemory::new(), config);
    db.execute("CREATE TABLE t (k INT) CAPACITY 8").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    let err = db.wal_records().unwrap_err();
    assert!(matches!(err, DbError::Unsupported(_)), "got {err:?}");
}

/// `CountingMemory` really keeps no payloads: what you write is not what
/// you read back (reads are zeros), while `Host` round-trips bytes.
#[test]
fn counting_memory_drops_payloads() {
    let mut counting = CountingMemory::new();
    let region = counting.alloc_region(2, 4).unwrap();
    counting.write(region, 0, &[0xAB; 4]).unwrap();
    assert_eq!(counting.read(region, 0).unwrap(), &[0, 0, 0, 0]);

    let mut host = Host::new();
    let region = EnclaveMemory::alloc_region(&mut host, 2, 4).unwrap();
    EnclaveMemory::write(&mut host, region, 0, &[0xAB; 4]).unwrap();
    assert_eq!(EnclaveMemory::read(&mut host, region, 0).unwrap(), &[0xAB; 4]);
}

/// Planner calibration probes any substrate, the payload-free one too.
#[test]
fn calibration_runs_on_counting_memory() {
    let mut mem = CountingMemory::new();
    let p = oblidb::core::CostProfile::calibrate("counting", &mut mem).unwrap();
    assert_eq!(p.read_block, 1.0);
    assert!(p.crossing >= 1.0);
    assert!(p.write_block > 0.0);
}
