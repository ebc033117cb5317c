//! Crash-consistency property tests: interrupt a workload between its
//! data writes (`write_blocks`) and the next checkpoint (`sync` +
//! manifest), "crash" by dropping the engine, reopen via
//! `database_open_with_report`, and assert that recovery — the log, which
//! every checkpoint starts from a dump of the live state, replayed into an
//! empty engine — converges to the pre-crash committed state, on every
//! disk-backed substrate spec.
//!
//! "Committed" means the statement's WAL record reached the durable
//! medium, which every append guarantees before the statement executes.
//! The oracle is an in-memory engine replaying the identical statement
//! stream; every statement succeeds there, so a statement recovery skips
//! is a lost write.

use oblidb::core::{Column, DataType, Database, DbConfig, Row, Schema, StorageMethod, Value};
use oblidb::enclave::EnclaveRng;
use oblidb::substrates::{SubstrateSpec, TempDir};

fn wal_config() -> DbConfig {
    DbConfig { wal: Some(Default::default()), ..DbConfig::default() }
}

/// Deterministic statement stream: weighted inserts/updates/deletes over
/// one table, parameterized by the property seed.
fn random_mutation(rng: &mut EnclaveRng, next_id: &mut i64) -> String {
    match rng.next_u64() % 10 {
        // Inserts dominate so the table keeps growing.
        0..=5 => {
            let id = *next_id;
            *next_id += 1;
            format!("INSERT INTO t VALUES ({id}, {})", rng.next_u64() % 1000)
        }
        6..=7 => {
            let pivot = rng.next_u64() % (*next_id).max(1) as u64;
            format!("UPDATE t SET v = {} WHERE k >= {pivot}", rng.next_u64() % 1000)
        }
        _ => {
            let victim = rng.next_u64() % (*next_id).max(1) as u64;
            format!("DELETE FROM t WHERE k = {victim}")
        }
    }
}

fn all_rows(db: &mut Database<impl oblidb::enclave::EnclaveMemory>) -> Vec<Row> {
    db.execute("SELECT * FROM t ORDER BY k").unwrap().rows().to_vec()
}

/// One crash-recovery scenario: a seeded statement stream runs with two
/// checkpoints at seeded points — so the second dumps a log that already
/// starts with a dump — and at least two statements after the last one,
/// with no sync before the "crash"; then the engine is dropped and
/// reopened.
fn crash_and_recover(spec: &SubstrateSpec, seed: u64) {
    let label = spec.profile_name();
    let mut rng = EnclaveRng::seed_from_u64(seed);
    let total = 16 + (rng.next_u64() % 12) as usize;
    let first = 2 + (rng.next_u64() % (total as u64 / 2)) as usize;
    let second = first + 1 + (rng.next_u64() % (total - first - 1) as u64) as usize;

    let mut statements = vec!["CREATE TABLE t (k INT, v INT) CAPACITY 16".to_string()];
    let mut next_id = 0i64;
    for _ in 0..total {
        statements.push(random_mutation(&mut rng, &mut next_id));
    }

    // Oracle: the same statements on a fresh in-memory engine.
    let expected = {
        let mut oracle = Database::new(DbConfig::default());
        for stmt in &statements {
            oracle.execute(stmt).unwrap();
        }
        all_rows(&mut oracle)
    };

    // System under test: checkpoint twice mid-stream, crash at the end.
    {
        let mut db = oblidb::database_on(spec, wal_config()).unwrap();
        for (i, stmt) in statements.iter().enumerate() {
            db.execute(stmt).unwrap();
            if i + 1 == first || i + 1 == second {
                db.persist_to(spec.persist_dir().unwrap()).unwrap();
            }
        }
        // Post-checkpoint statements performed their write_blocks; the
        // crash lands before any further sync. Dropping the engine models
        // it: a write-back cache loses its unflushed blocks, and no
        // manifest is written.
    }

    // Recovery: manifest (catalog/geometry/log identity) + WAL replay.
    let (mut recovered, report) = oblidb::database_open_with_report(spec, wal_config()).unwrap();
    let report = report.expect("statements after the last checkpoint must trigger recovery");
    assert!(
        report.skipped.is_empty(),
        "{label} seed {seed}: recovery skipped committed statements: {:?}",
        report.skipped
    );
    assert_eq!(
        all_rows(&mut recovered),
        expected,
        "{label} seed {seed}: recovery must converge to the pre-crash committed state \
         (checkpoints at {first} and {second} of {total})"
    );

    // Recovery re-persisted the store: a second open is clean and equal.
    drop(recovered);
    let mut again = oblidb::database_open(spec, wal_config()).unwrap();
    assert_eq!(all_rows(&mut again), expected, "{label} seed {seed}: second open diverged");
}

#[test]
fn crash_between_writes_and_sync_recovers_on_disk() {
    for seed in 0..4u64 {
        let guard = TempDir::new("oblidb-crash-disk").unwrap();
        let spec = SubstrateSpec::Disk { dir: Some(guard.path().join("db")) };
        crash_and_recover(&spec, seed);
    }
}

#[test]
fn crash_between_writes_and_sync_recovers_on_cached_disk() {
    for seed in 0..4u64 {
        let guard = TempDir::new("oblidb-crash-cached").unwrap();
        // A tiny cache: some post-checkpoint data blocks reach disk via
        // eviction (ahead of the manifest), others are lost with the
        // cache — the messiest crash state.
        let spec =
            SubstrateSpec::CachedDisk { dir: Some(guard.path().join("db")), capacity_blocks: 8 };
        crash_and_recover(&spec, seed);
    }
}

/// A row inserted through the typed `Database::insert` after a checkpoint
/// is written ahead like its SQL form, so a crash before the next
/// checkpoint recovers it: the reopen replays the log, skips nothing, and
/// finds no region the manifest does not describe.
#[test]
fn typed_insert_after_checkpoint_is_logged_and_recovered() {
    let guard = TempDir::new("oblidb-crash-typed").unwrap();
    let dir = guard.path().join("db");
    let spec = SubstrateSpec::Disk { dir: Some(dir.clone()) };
    {
        let mut db = oblidb::database_on(&spec, wal_config()).unwrap();
        db.execute("CREATE TABLE t (k INT, v INT) CAPACITY 16").unwrap();
        db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        db.persist_to(&dir).unwrap();
        db.insert("t", &[Value::Int(2), Value::Int(-20)]).unwrap();
    } // crash: no checkpoint after the typed insert

    let (mut recovered, report) = oblidb::database_open_with_report(&spec, wal_config()).unwrap();
    let report = report.expect("a logged insert after the checkpoint triggers recovery");
    assert!(report.skipped.is_empty(), "{:?}", report.skipped);
    assert_eq!(
        all_rows(&mut recovered),
        vec![vec![Value::Int(1), Value::Int(10)], vec![Value::Int(2), Value::Int(-20)]]
    );
}

#[test]
fn crash_during_recovery_itself_loses_nothing() {
    // The nastiest schedule: crash past a checkpoint, start recovery,
    // then crash again mid-rebuild — after the store was wiped but before
    // the replay finished. The recovery journal written at detection time
    // must still carry the full committed history.
    let guard = TempDir::new("oblidb-crash-double").unwrap();
    let dir = guard.path().join("db");
    let spec = SubstrateSpec::Disk { dir: Some(dir.clone()) };

    let statements = [
        "CREATE TABLE t (k INT, v INT) CAPACITY 16".to_string(),
        "INSERT INTO t VALUES (1, 10)".to_string(),
        "INSERT INTO t VALUES (2, 20)".to_string(),
        "INSERT INTO t VALUES (3, 30)".to_string(),
    ];
    {
        let mut db = oblidb::database_on(&spec, wal_config()).unwrap();
        for (i, stmt) in statements.iter().enumerate() {
            db.execute(stmt).unwrap();
            if i == 1 {
                db.persist_to(&dir).unwrap();
            }
        }
    } // first crash

    // First recovery attempt: detection journals the history...
    let host = spec.open().unwrap();
    match Database::open_with_memory(host, wal_config(), &dir).unwrap() {
        oblidb::core::Reopened::NeedsRecovery(plan) => {
            assert_eq!(plan.statements.len(), statements.len());
        }
        oblidb::core::Reopened::Clean(_) => panic!("the crash must be detected"),
    }
    // ...then the rebuild "crashes" at the worst moment: the store is
    // gone entirely, only manifest + journal survive.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name();
        let name = name.to_string_lossy().to_string();
        if name.ends_with(".blk") || name == oblidb::substrates::REGION_META_FILE {
            std::fs::remove_file(entry.path()).unwrap();
        }
    }
    assert!(dir.join(oblidb::core::RECOVERY_JOURNAL_FILE).exists());

    // Second open resumes from the journal and converges.
    let mut recovered = oblidb::database_open(&spec, wal_config()).unwrap();
    assert_eq!(
        all_rows(&mut recovered),
        vec![
            vec![oblidb::core::Value::Int(1), oblidb::core::Value::Int(10)],
            vec![oblidb::core::Value::Int(2), oblidb::core::Value::Int(20)],
            vec![oblidb::core::Value::Int(3), oblidb::core::Value::Int(30)],
        ]
    );
    // A completed recovery retires the journal.
    assert!(!dir.join(oblidb::core::RECOVERY_JOURNAL_FILE).exists());
}

#[test]
fn wal_growth_past_checkpoint_still_recovers() {
    // Appends double the log region in place; a crash after the log grew
    // past its checkpointed capacity must read as a legitimate overhang,
    // not as a swapped/resized file.
    let guard = TempDir::new("oblidb-crash-walgrow").unwrap();
    let dir = guard.path().join("db");
    let spec = SubstrateSpec::Disk { dir: Some(dir.clone()) };
    {
        let mut db = oblidb::database_on(&spec, wal_config()).unwrap();
        db.execute("CREATE TABLE t (k INT, v INT) CAPACITY 16").unwrap();
        // The checkpoint seeds a log of 8 slots with the 1-record dump.
        db.persist_to(&dir).unwrap();
        for i in 0..12 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, {i})")).unwrap();
        }
        // The log grew 8 → 16; crash.
    }
    let mut recovered = oblidb::database_open(&spec, wal_config()).unwrap();
    assert_eq!(all_rows(&mut recovered).len(), 12);
    // And a *clean* reopen after the grown log was checkpointed.
    recovered.persist_to(&dir).unwrap();
    drop(recovered);
    let mut clean = oblidb::database_open(&spec, wal_config()).unwrap();
    assert_eq!(all_rows(&mut clean).len(), 12);
}

#[test]
fn bulk_load_before_a_checkpoint_survives_a_crash() {
    // A bulk load writes no log records; the checkpoint after it puts the
    // loaded rows into the log, so a crash after one more INSERT brings
    // back all eleven rows.
    let guard = TempDir::new("oblidb-crash-bulk").unwrap();
    let dir = guard.path().join("db");
    let spec = SubstrateSpec::Disk { dir: Some(dir.clone()) };
    {
        let mut db = oblidb::database_on(&spec, wal_config()).unwrap();
        let schema =
            Schema::new(vec![Column::new("k", DataType::Int), Column::new("v", DataType::Int)]);
        let rows: Vec<Vec<Value>> = (0..10).map(|i| vec![Value::Int(i), Value::Int(i)]).collect();
        db.create_table_with_rows("t", schema, StorageMethod::Flat, None, &rows, 16).unwrap();
        db.persist_to(&dir).unwrap();
        db.execute("INSERT INTO t VALUES (10, 10)").unwrap();
    } // crash
    let (mut db, report) = oblidb::database_open_with_report(&spec, wal_config()).unwrap();
    let report = report.expect("the INSERT after the checkpoint must trigger recovery");
    assert!(report.skipped.is_empty(), "{:?}", report.skipped);
    let expected: Vec<Row> = (0..11).map(|i| vec![Value::Int(i), Value::Int(i)]).collect();
    assert_eq!(all_rows(&mut db), expected);
}

#[test]
fn walless_store_reopened_with_a_log_survives_a_crash() {
    // A reopen that adds a log checkpoints first, so the manifest names
    // the new log and a crash after the next INSERT replays it.
    let guard = TempDir::new("oblidb-crash-latewal").unwrap();
    let dir = guard.path().join("db");
    let spec = SubstrateSpec::Disk { dir: Some(dir.clone()) };
    {
        let mut db = oblidb::database_on(&spec, DbConfig::default()).unwrap();
        db.execute("CREATE TABLE t (k INT, v INT) CAPACITY 16").unwrap();
        db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        db.persist_to(&dir).unwrap();
    }
    {
        let mut db = oblidb::database_open(&spec, wal_config()).unwrap();
        db.execute("INSERT INTO t VALUES (2, 20)").unwrap();
    } // crash
    let (mut db, report) = oblidb::database_open_with_report(&spec, wal_config()).unwrap();
    assert_eq!(
        all_rows(&mut db),
        vec![vec![Value::Int(1), Value::Int(10)], vec![Value::Int(2), Value::Int(20)]]
    );
    let report = report.expect("the INSERT after the checkpoint must trigger recovery");
    assert!(report.skipped.is_empty(), "{:?}", report.skipped);
}

#[test]
fn indexed_create_after_checkpoint_does_not_wedge_recovery() {
    // An INDEXED table created after the last checkpoint replays fine but
    // cannot be re-persisted; recovery must hand back a working engine
    // (reporting the situation) instead of failing every future open.
    let guard = TempDir::new("oblidb-crash-indexed").unwrap();
    let dir = guard.path().join("db");
    let spec = SubstrateSpec::Disk { dir: Some(dir.clone()) };
    {
        let mut db = oblidb::database_on(&spec, wal_config()).unwrap();
        db.execute("CREATE TABLE t (k INT, v INT) CAPACITY 16").unwrap();
        db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        db.persist_to(&dir).unwrap();
        db.execute("CREATE TABLE idx (k INT) STORAGE = INDEXED INDEX ON k CAPACITY 16").unwrap();
        db.execute("INSERT INTO idx VALUES (5)").unwrap();
    } // crash
    let (mut db, report) = oblidb::database_open_with_report(&spec, wal_config()).unwrap();
    let report = report.expect("recovery ran");
    assert!(report.skipped.is_empty(), "{:?}", report.skipped);
    assert_eq!(all_rows(&mut db).len(), 1);
    assert_eq!(db.execute("SELECT * FROM idx WHERE k = 5").unwrap().len(), 1);
    // Mutations after the unpersistable rebuild land in its live WAL,
    // which the journal now points at — so they survive the next open.
    db.execute("INSERT INTO t VALUES (2, 20)").unwrap();
    drop(db);
    let mut again = oblidb::database_open(&spec, wal_config()).unwrap();
    assert_eq!(all_rows(&mut again).len(), 2, "post-rebuild mutations must not be lost");
    assert_eq!(again.execute("SELECT * FROM idx WHERE k = 5").unwrap().len(), 1);
}

#[test]
fn crash_before_any_checkpoint_recovers_from_wal_alone() {
    // The manifest may not exist at all (crash before the first
    // persist_to): nothing can be reopened, but the documented fallback —
    // replay into a fresh engine via wal_records — still applies when the
    // log region survives. Here we assert the *typed* failure mode: open
    // without a manifest is an error, not silent data loss.
    let guard = TempDir::new("oblidb-crash-early").unwrap();
    let spec = SubstrateSpec::Disk { dir: Some(guard.path().join("db")) };
    {
        let mut db = oblidb::database_on(&spec, wal_config()).unwrap();
        db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 2)").unwrap();
    }
    assert!(oblidb::database_open(&spec, wal_config()).is_err());
}
