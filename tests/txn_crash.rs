//! Crash-mid-epoch injection: kill the engine after statements' WAL
//! records were appended into an open epoch but before the group fsync
//! sealed it, on every disk-backed substrate. Recovery must land exactly
//! on the previous epoch boundary — whole epochs or none, never a torn
//! suffix — and the recovered engine must behave identically to one that
//! never crashed (trace auditor silent).

use oblidb::core::{Database, DbConfig, EpochConfig, Row, SharedDatabase, Value, WalConfig};
use oblidb::substrates::{SubstrateSpec, TempDir};

/// A huge window and cap: the epoch only closes when the test says so.
fn epoch_config() -> DbConfig {
    DbConfig {
        wal: Some(WalConfig),
        epoch: Some(EpochConfig { duration_ms: 3_600_000, max_statements: 1 << 20 }),
        ..DbConfig::default()
    }
}

fn all_rows(db: &mut Database<impl oblidb::enclave::EnclaveMemory>) -> Vec<Row> {
    db.execute("SELECT * FROM t ORDER BY k").unwrap().rows().to_vec()
}

fn epoch1() -> Vec<String> {
    let mut stmts = vec!["CREATE TABLE t (k INT, v INT) CAPACITY 32".to_string()];
    for i in 0..5 {
        stmts.push(format!("INSERT INTO t VALUES ({i}, {})", i * 10));
    }
    stmts
}

fn epoch2() -> Vec<String> {
    vec![
        "INSERT INTO t VALUES (100, 1)".to_string(),
        "UPDATE t SET v = -1 WHERE k = 2".to_string(),
        "DELETE FROM t WHERE k = 0".to_string(),
    ]
}

/// Crash after epoch 2's WAL appends but before its group fsync:
/// recovery must surface exactly epoch 1's state.
fn crash_mid_epoch_lands_on_boundary(spec: &SubstrateSpec) {
    let label = spec.profile_name();
    let dir = spec.persist_dir().unwrap().to_path_buf();
    {
        let mut db = oblidb::database_on(spec, epoch_config()).unwrap();
        for stmt in epoch1() {
            db.execute(&stmt).unwrap();
        }
        // Group commit: one epoch marker, one fsync for all six records.
        assert_eq!(db.commit_epoch().unwrap(), epoch1().len() as u64);
        db.persist_to(&dir).unwrap();

        // Epoch 2 pools records into the next open epoch...
        for stmt in epoch2() {
            db.execute(&stmt).unwrap();
        }
        assert_eq!(db.epoch_pending(), epoch2().len() as u64);
        // ...and the crash lands here: records appended, no group fsync,
        // no epoch marker. Dropping without commit_epoch models it.
    }

    let expected_epoch1 = {
        let mut oracle = Database::new(DbConfig::default());
        for stmt in epoch1() {
            oracle.execute(&stmt).unwrap();
        }
        all_rows(&mut oracle)
    };
    let mut recovered = oblidb::database_open(spec, epoch_config()).unwrap();
    assert_eq!(
        all_rows(&mut recovered),
        expected_epoch1,
        "{label}: recovery must land on the epoch-1 boundary, dropping the open epoch whole"
    );
    assert_eq!(recovered.epoch_pending(), 0, "{label}: recovered log must not reopen an epoch");

    // The recovered engine serves like one that never crashed: shared
    // sessions run with the trace auditor silent.
    drop(recovered);
    let reopened = oblidb::database_open(spec, DbConfig { audit: true, ..epoch_config() }).unwrap();
    let shared = SharedDatabase::adopt(reopened);
    let mut session = shared.session();
    session.execute("INSERT INTO t VALUES (200, 2)").unwrap();
    for _ in 0..3 {
        session.execute("SELECT COUNT(*) FROM t").unwrap();
        session.execute("SELECT v FROM t WHERE k = 3").unwrap();
    }
    let report = shared.audit_report();
    assert_eq!(report.violations, 0, "{label}: {:?}", shared.audit_violations());
    shared.admin(|e| e.commit_epoch()).unwrap();
}

/// The same schedule with the group fsync landing before the crash:
/// recovery must include epoch 2 — the boundary moved.
fn crash_after_group_fsync_keeps_the_epoch(spec: &SubstrateSpec) {
    let label = spec.profile_name();
    let dir = spec.persist_dir().unwrap().to_path_buf();
    {
        let mut db = oblidb::database_on(spec, epoch_config()).unwrap();
        for stmt in epoch1() {
            db.execute(&stmt).unwrap();
        }
        db.commit_epoch().unwrap();
        db.persist_to(&dir).unwrap();
        for stmt in epoch2() {
            db.execute(&stmt).unwrap();
        }
        // The epoch seals — marker + one fsync — and THEN the crash hits.
        assert_eq!(db.commit_epoch().unwrap(), epoch2().len() as u64);
    }
    let expected = {
        let mut oracle = Database::new(DbConfig::default());
        for stmt in epoch1().into_iter().chain(epoch2()) {
            oracle.execute(&stmt).unwrap();
        }
        all_rows(&mut oracle)
    };
    let mut recovered = oblidb::database_open(spec, epoch_config()).unwrap();
    assert_eq!(
        all_rows(&mut recovered),
        expected,
        "{label}: a sealed epoch must survive the crash in full"
    );
}

#[test]
fn mid_epoch_crash_on_disk() {
    let guard = TempDir::new("oblidb-txncrash-disk").unwrap();
    let spec = SubstrateSpec::Disk { dir: Some(guard.path().join("db")) };
    crash_mid_epoch_lands_on_boundary(&spec);
}

#[test]
fn mid_epoch_crash_on_cached_disk() {
    let guard = TempDir::new("oblidb-txncrash-cached").unwrap();
    let spec = SubstrateSpec::CachedDisk { dir: Some(guard.path().join("db")), capacity_blocks: 8 };
    crash_mid_epoch_lands_on_boundary(&spec);
}

#[test]
fn sealed_epoch_survives_on_disk() {
    let guard = TempDir::new("oblidb-txncrash-sealed").unwrap();
    let spec = SubstrateSpec::Disk { dir: Some(guard.path().join("db")) };
    crash_after_group_fsync_keeps_the_epoch(&spec);
}

#[test]
fn sealed_epoch_survives_on_cached_disk() {
    let guard = TempDir::new("oblidb-txncrash-sealed-cached").unwrap();
    let spec = SubstrateSpec::CachedDisk { dir: Some(guard.path().join("db")), capacity_blocks: 8 };
    crash_after_group_fsync_keeps_the_epoch(&spec);
}

#[test]
fn committed_transaction_survives_crash_as_a_unit() {
    // A transaction committed into a sealed epoch recovers whole; one
    // buffered (never committed) at crash time leaves no trace at all.
    let guard = TempDir::new("oblidb-txncrash-txn").unwrap();
    let dir = guard.path().join("db");
    let spec = SubstrateSpec::Disk { dir: Some(dir.clone()) };
    {
        let db = oblidb::database_on(&spec, epoch_config()).unwrap();
        let shared = SharedDatabase::adopt(db);
        let mgr = oblidb::txn::TxnManager::new(shared.clone(), epoch_config().epoch);
        let mut s = mgr.session();
        s.execute("CREATE TABLE t (k INT, v INT) CAPACITY 32").unwrap();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        s.execute("INSERT INTO t VALUES (2, 20)").unwrap();
        s.execute("COMMIT").unwrap();
        mgr.flush().unwrap(); // epoch sealed: the transaction is durable
        shared.admin(|e| e.persist_to(&dir)).unwrap();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (3, 30)").unwrap();
        // Crash with the second transaction still buffered: it never
        // executed, so not even an open epoch records it.
    }
    let mut recovered = oblidb::database_open(&spec, epoch_config()).unwrap();
    assert_eq!(
        all_rows(&mut recovered),
        vec![vec![Value::Int(1), Value::Int(10)], vec![Value::Int(2), Value::Int(20)],],
        "the committed transaction survives whole; the buffered one vanishes"
    );
}
