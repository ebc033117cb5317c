//! WAL truncation at checkpoint: each `persist_to` retires the old log
//! region and seeds a fresh one with a compacted state dump, so the log
//! stays proportional to live state instead of statement history — while
//! the manifest's checkpoint LSN keeps counting every statement ever
//! logged.

use oblidb::core::{Database, DbConfig, Row, Value, WalConfig};
use oblidb::substrates::{SubstrateSpec, TempDir};

fn wal_config() -> DbConfig {
    DbConfig { wal: Some(WalConfig), ..DbConfig::default() }
}

fn all_rows(db: &mut Database<impl oblidb::enclave::EnclaveMemory>) -> Vec<Row> {
    db.execute("SELECT * FROM t ORDER BY k").unwrap().rows().to_vec()
}

#[test]
fn log_stays_bounded_across_checkpoint_cycles() {
    let guard = TempDir::new("oblidb-waltrunc-bounded").unwrap();
    let dir = guard.path().join("db");
    let spec = SubstrateSpec::Disk { dir: Some(dir.clone()) };
    let mut db = oblidb::database_on(&spec, wal_config()).unwrap();
    db.execute("CREATE TABLE t (k INT, v INT) CAPACITY 16").unwrap();

    // Steady state: each cycle updates the same single row many times,
    // then checkpoints. History grows without bound; live state doesn't.
    db.execute("INSERT INTO t VALUES (1, 0)").unwrap();
    let mut log_lens = Vec::new();
    let mut base_lsns = Vec::new();
    for cycle in 0..6 {
        for i in 0..20 {
            db.execute(&format!("UPDATE t SET v = {} WHERE k = 1", cycle * 100 + i)).unwrap();
        }
        db.persist_to(&dir).unwrap();
        log_lens.push(db.wal_len());
        base_lsns.push(db.wal_base_lsn().unwrap());
    }
    // The compacted log holds the state dump (1 CREATE + 1 INSERT), not
    // the 20-update history of each cycle — bounded, and identical every
    // cycle because live state is identical.
    assert!(
        log_lens.iter().all(|&l| l == log_lens[0]),
        "truncated log must not grow with history: {log_lens:?}"
    );
    assert!(log_lens[0] <= 4, "compacted dump should be a handful of records: {log_lens:?}");
    // The checkpoint LSN keeps counting the full history monotonically.
    assert!(
        base_lsns.windows(2).all(|w| w[0] < w[1]),
        "base LSN must advance with every checkpoint: {base_lsns:?}"
    );
}

#[test]
fn truncated_store_reopens_with_identical_state() {
    let guard = TempDir::new("oblidb-waltrunc-reopen").unwrap();
    let dir = guard.path().join("db");
    let spec = SubstrateSpec::Disk { dir: Some(dir.clone()) };
    let expected = {
        let mut db = oblidb::database_on(&spec, wal_config()).unwrap();
        db.execute("CREATE TABLE t (k INT, v INT, s CHAR(6)) CAPACITY 32").unwrap();
        for i in 0..8 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, {}, 'x{}')", i * 3, i)).unwrap();
        }
        db.persist_to(&dir).unwrap();
        // Mutate past the checkpoint too: these live only in the fresh
        // log until the next checkpoint.
        db.execute("UPDATE t SET v = -5 WHERE k >= 6").unwrap();
        db.execute("DELETE FROM t WHERE k = 0").unwrap();
        db.persist_to(&dir).unwrap();
        all_rows(&mut db)
    };
    let mut reopened = oblidb::database_open(&spec, wal_config()).unwrap();
    assert_eq!(all_rows(&mut reopened), expected);
    // And the reopened engine keeps truncating.
    reopened.execute("INSERT INTO t VALUES (50, 1, 'y')").unwrap();
    reopened.persist_to(&dir).unwrap();
    let len_after = reopened.wal_len();
    drop(reopened);
    let mut again = oblidb::database_open(&spec, wal_config()).unwrap();
    assert_eq!(again.wal_len(), len_after);
    assert_eq!(again.execute("SELECT * FROM t WHERE k = 50").unwrap().len(), 1);
}

#[test]
fn crash_after_truncating_checkpoint_recovers() {
    // Post-truncation crash: the fresh log holds dump + post-checkpoint
    // statements; recovery replays dump state, then the overhang.
    let guard = TempDir::new("oblidb-waltrunc-crash").unwrap();
    let dir = guard.path().join("db");
    let spec = SubstrateSpec::Disk { dir: Some(dir.clone()) };
    {
        let mut db = oblidb::database_on(&spec, wal_config()).unwrap();
        db.execute("CREATE TABLE t (k INT, v INT) CAPACITY 16").unwrap();
        for i in 0..5 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, {i})")).unwrap();
        }
        db.persist_to(&dir).unwrap(); // truncates: log = compacted dump
        db.execute("INSERT INTO t VALUES (100, 100)").unwrap();
        db.execute("DELETE FROM t WHERE k = 1").unwrap();
        // Crash before the next checkpoint.
    }
    let mut recovered = oblidb::database_open(&spec, wal_config()).unwrap();
    let rows = all_rows(&mut recovered);
    assert_eq!(rows.len(), 5, "4 surviving seeds + the post-checkpoint insert: {rows:?}");
    assert!(rows.contains(&vec![Value::Int(100), Value::Int(100)]));
    assert!(!rows.iter().any(|r| r[0] == Value::Int(1)), "deleted row resurrected");
}

/// Rows with every float as its bit pattern, so `-0.0` and `0.0` differ.
fn bit_exact(rows: &[Row]) -> Vec<Vec<String>> {
    let cell = |v: &Value| match v {
        Value::Float(f) => format!("float {:#018x}", f.to_bits()),
        v => format!("{v:?}"),
    };
    rows.iter().map(|r| r.iter().map(cell).collect()).collect()
}

#[test]
fn text_values_survive_dump_and_restore() {
    // The checkpoint's dump renders each row back to SQL, and recovery
    // replays it: quotes must escape, extreme and multi-byte values must
    // come back bit-equal, and no dumped statement may fail to re-parse.
    let guard = TempDir::new("oblidb-waltrunc-text").unwrap();
    let dir = guard.path().join("db");
    let spec = SubstrateSpec::Disk { dir: Some(dir.clone()) };
    let before = {
        let mut db = oblidb::database_on(&spec, wal_config()).unwrap();
        db.execute("CREATE TABLE t (k INT, f FLOAT, s CHAR(12)) CAPACITY 8").unwrap();
        for stmt in [
            "INSERT INTO t VALUES (1, 0.1, 'it''s here')",
            "INSERT INTO t VALUES (2, 1e-7, 'semi;colon')",
            "INSERT INTO t VALUES (3, -2.5e10, '')",
            // Twelve bytes of UTF-8 fill CHAR(12): 3 + 3 + 2 + 1 + 2 + 1.
            "INSERT INTO t VALUES (4, 1e400, '€€ünïx')",
            "INSERT INTO t VALUES (5, -1e400, '''quoted''')",
            "INSERT INTO t VALUES (-9223372036854775808, -0.0, 'min')",
        ] {
            db.execute(stmt).unwrap();
        }
        db.persist_to(&dir).unwrap(); // these rows now live only in the dump
        db.execute("INSERT INTO t VALUES (6, 2.5, 'after')").unwrap();
        all_rows(&mut db)
    }; // crash
    assert!(matches!(before[4][1], Value::Float(f) if f == f64::INFINITY), "{before:?}");
    assert!(matches!(before[5][1], Value::Float(f) if f == f64::NEG_INFINITY), "{before:?}");
    let (mut db, report) = oblidb::database_open_with_report(&spec, wal_config()).unwrap();
    let report = report.expect("the INSERT after the checkpoint must trigger recovery");
    assert!(report.skipped.is_empty(), "{:?}", report.skipped);
    assert_eq!(bit_exact(&all_rows(&mut db)), bit_exact(&before));
}
