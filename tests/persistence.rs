//! End-to-end persistence acceptance: a database created on a disk-backed
//! substrate, persisted, dropped, and reopened via `database_open` must
//! return byte-identical query results *and traces*; tampered or
//! rolled-back region files must be rejected with typed integrity errors;
//! and allocation failure must surface as a typed error through every
//! substrate and the `Database` API — never a panic.

use oblidb::core::{Database, DbConfig, DbError, Row, Schema};
use oblidb::enclave::{EnclaveMemory, HostError, IoOp, RegionId, Trace};
use oblidb::storage::StorageError;
use oblidb::substrates::{SubstrateSpec, TempDir, REGION_META_FILE};

fn wal_config() -> DbConfig {
    DbConfig { wal: Some(Default::default()), ..DbConfig::default() }
}

fn populate(db: &mut Database<oblidb::substrates::AnySubstrate>) {
    db.execute("CREATE TABLE people (id INT, age INT, name CHAR(12)) CAPACITY 64").unwrap();
    for i in 0..24i64 {
        db.execute(&format!("INSERT INTO people VALUES ({i}, {}, 'p{i}')", 20 + i)).unwrap();
    }
    db.execute("UPDATE people SET age = 99 WHERE id >= 20").unwrap();
    db.execute("DELETE FROM people WHERE id = 23").unwrap();
}

const QUERY: &str = "SELECT id, age FROM people WHERE age < 40 ORDER BY id";

fn run_traced(
    db: &mut Database<oblidb::substrates::AnySubstrate>,
    query: &str,
) -> (Schema, Vec<Row>, Trace) {
    db.start_trace();
    let out = db.execute(query).unwrap();
    let trace = db.take_trace();
    (out.schema.clone(), out.rows().to_vec(), trace)
}

/// Create → populate → persist → query (traced) → drop → reopen → same
/// query must be byte-identical in rows, schema, and adversary trace.
fn reopen_roundtrip(spec: SubstrateSpec) {
    let label = spec.profile_name();
    let (schema1, rows1, trace1) = {
        let mut db = oblidb::database_on(&spec, wal_config()).unwrap();
        populate(&mut db);
        db.persist_to(spec.persist_dir().unwrap()).unwrap();
        let traced = run_traced(&mut db, QUERY);
        assert_eq!(traced.1.len(), 20, "{label}");
        traced
    };
    let mut reopened = oblidb::database_open(&spec, wal_config()).unwrap();
    let (schema2, rows2, trace2) = run_traced(&mut reopened, QUERY);
    assert_eq!(rows1, rows2, "{label}: reopened rows must be byte-identical");
    assert_eq!(schema1, schema2, "{label}: schemas must match");
    assert_eq!(trace1, trace2, "{label}: reopened traces must be byte-identical");
    // The reopened engine is fully live: it can mutate and re-persist.
    reopened.execute("INSERT INTO people VALUES (100, 1, 'new')").unwrap();
    assert_eq!(reopened.table_rows("people").unwrap(), 24);
    reopened.persist_to(spec.persist_dir().unwrap()).unwrap();
}

#[test]
fn reopen_is_byte_identical_on_disk() {
    let guard = TempDir::new("oblidb-persist-disk").unwrap();
    reopen_roundtrip(SubstrateSpec::Disk { dir: Some(guard.path().join("db")) });
}

#[test]
fn reopen_is_byte_identical_on_cached_disk() {
    let guard = TempDir::new("oblidb-persist-cached").unwrap();
    reopen_roundtrip(SubstrateSpec::CachedDisk {
        dir: Some(guard.path().join("db")),
        capacity_blocks: 32, // smaller than the table: evictions happen
    });
}

#[test]
fn reopen_is_byte_identical_on_sharded_disk() {
    let guard = TempDir::new("oblidb-persist-sharded").unwrap();
    reopen_roundtrip(SubstrateSpec::ShardedDisk { dir: Some(guard.path().join("db")), shards: 3 });
}

#[test]
fn tampered_region_file_is_rejected_with_typed_error() {
    let guard = TempDir::new("oblidb-persist-tamper").unwrap();
    let dir = guard.path().join("db");
    let spec = SubstrateSpec::Disk { dir: Some(dir.clone()) };
    {
        let mut db = oblidb::database_on(&spec, wal_config()).unwrap();
        populate(&mut db);
        db.persist_to(&dir).unwrap();
    }
    // Region 0 is the WAL; region 1 is the table. Flip one ciphertext bit.
    let blk = dir.join("region-00000001.blk");
    let mut bytes = std::fs::read(&blk).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    std::fs::write(&blk, &bytes).unwrap();

    let mut db = oblidb::database_open(&spec, wal_config()).unwrap();
    let err = db.execute(QUERY).unwrap_err();
    assert!(
        matches!(err, DbError::Storage(StorageError::TamperDetected { region: RegionId(1), .. })),
        "tampering must surface as a typed integrity error, got {err:?}"
    );
}

#[test]
fn rolled_back_region_file_is_rejected_with_typed_error() {
    let guard = TempDir::new("oblidb-persist-rollback").unwrap();
    let dir = guard.path().join("db");
    let spec = SubstrateSpec::Disk { dir: Some(dir.clone()) };
    {
        let mut db = oblidb::database_on(&spec, wal_config()).unwrap();
        populate(&mut db);
        db.persist_to(&dir).unwrap();
        // Snapshot the (validly sealed) table file at this checkpoint...
        let stale = std::fs::read(dir.join("region-00000001.blk")).unwrap();
        // ...advance the database state and checkpoint again...
        db.execute("UPDATE people SET age = 0 WHERE id < 5").unwrap();
        db.persist_to(&dir).unwrap();
        drop(db);
        // ...then roll the region file back to the stale version.
        std::fs::write(dir.join("region-00000001.blk"), &stale).unwrap();
    }
    let mut db = oblidb::database_open(&spec, wal_config()).unwrap();
    let err = db.execute(QUERY).unwrap_err();
    assert!(
        matches!(err, DbError::Storage(StorageError::TamperDetected { .. })),
        "a rolled-back region file must not authenticate, got {err:?}"
    );
}

#[test]
fn tampered_or_foreign_manifest_is_rejected_at_open() {
    let guard = TempDir::new("oblidb-persist-manifest").unwrap();
    let dir = guard.path().join("db");
    let spec = SubstrateSpec::Disk { dir: Some(dir.clone()) };
    {
        let mut db = oblidb::database_on(&spec, wal_config()).unwrap();
        populate(&mut db);
        db.persist_to(&dir).unwrap();
    }
    // Wrong seed = wrong enclave identity: the sealing key differs.
    let wrong_seed = DbConfig { seed: 0xDEAD_BEEF, ..wal_config() };
    match oblidb::database_open(&spec, wrong_seed) {
        Err(oblidb::OpenError::Db(DbError::ManifestRejected(_))) => {}
        other => panic!("wrong seed must reject the manifest, got {other:?}", other = other.err()),
    }
    // A flipped byte in the manifest body fails authentication.
    let path = dir.join(oblidb::core::DB_MANIFEST_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    std::fs::write(&path, &bytes).unwrap();
    match oblidb::database_open(&spec, wal_config()) {
        Err(oblidb::OpenError::Db(DbError::ManifestRejected(_))) => {}
        other => {
            panic!("tampered manifest must be rejected, got {other:?}", other = other.err())
        }
    }
}

#[test]
fn swapped_region_file_fails_geometry_or_authentication() {
    // Replacing a region file with a *different* validly-sized file must
    // not be silently accepted either.
    let guard = TempDir::new("oblidb-persist-swap").unwrap();
    let dir = guard.path().join("db");
    let spec = SubstrateSpec::Disk { dir: Some(dir.clone()) };
    {
        let mut db = oblidb::database_on(&spec, wal_config()).unwrap();
        populate(&mut db);
        db.execute("CREATE TABLE other (id INT, age INT, name CHAR(12)) CAPACITY 64").unwrap();
        db.execute("INSERT INTO other VALUES (1, 2, 'x')").unwrap();
        db.persist_to(&dir).unwrap();
    }
    // Swap the two same-geometry table files (regions 1 and 2).
    let a = dir.join("region-00000001.blk");
    let b = dir.join("region-00000002.blk");
    let (ab, bb) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    std::fs::write(&a, &bb).unwrap();
    std::fs::write(&b, &ab).unwrap();
    let mut db = oblidb::database_open(&spec, wal_config()).unwrap();
    let err = db.execute(QUERY).unwrap_err();
    assert!(
        matches!(err, DbError::Storage(StorageError::TamperDetected { .. })),
        "regions use distinct keys; a transplanted file must fail, got {err:?}"
    );
}

#[test]
fn alloc_failure_surfaces_as_typed_error_never_a_panic() {
    // Squat a directory on the path of the next region file so creation
    // fails (effective even as root, unlike permission bits).
    let squat = |dir: &std::path::Path, id: u32| {
        std::fs::create_dir_all(dir.join(format!("region-{id:08}.blk"))).unwrap();
    };

    // Substrate level: every disk-backed substrate reports Io{op: Alloc}.
    let guard = TempDir::new("oblidb-allocfail").unwrap();
    for (name, spec) in [
        ("disk", SubstrateSpec::Disk { dir: Some(guard.path().join("disk")) }),
        (
            "cached-disk",
            SubstrateSpec::CachedDisk {
                dir: Some(guard.path().join("cached")),
                capacity_blocks: 8,
            },
        ),
        (
            "sharded-disk",
            SubstrateSpec::ShardedDisk { dir: Some(guard.path().join("sharded")), shards: 2 },
        ),
    ] {
        let mut m = spec.build().unwrap();
        let dir = spec.persist_dir().unwrap().to_path_buf();
        let dir = if name == "sharded-disk" { dir.join("shard-0") } else { dir };
        squat(&dir, 0);
        let err = m.alloc_region(4, 8).unwrap_err();
        assert!(matches!(err, HostError::Io { op: IoOp::Alloc, .. }), "{name}: {err:?}");
    }
    // In-memory substrates cannot fail allocation.
    let mut host = SubstrateSpec::Host.build().unwrap();
    host.alloc_region(4, 8).unwrap();

    // Database API level: CREATE TABLE over a full/broken store is an
    // Err, not a panic.
    let dbdir = guard.path().join("dbfail");
    let spec = SubstrateSpec::Disk { dir: Some(dbdir.clone()) };
    let mut db = oblidb::database_on(&spec, DbConfig::default()).unwrap();
    squat(&dbdir, 0);
    let err = db.execute("CREATE TABLE t (k INT)").unwrap_err();
    assert!(
        matches!(err, DbError::Storage(StorageError::Host(HostError::Io { op: IoOp::Alloc, .. }))),
        "allocation failure must reach the Database API typed, got {err:?}"
    );

    // And a WAL-enabled engine whose very first allocation fails:
    // try_with_memory surfaces it.
    let waldir = guard.path().join("walfail");
    let walspec = SubstrateSpec::Disk { dir: Some(waldir.clone()) };
    // Build the (empty) substrate first; only then break its next
    // allocation — `create` refuses a dir that already looks populated.
    let substrate = walspec.build().unwrap();
    squat(&waldir, 0);
    match Database::try_with_memory(substrate, wal_config()) {
        Err(DbError::Storage(StorageError::Host(HostError::Io { op: IoOp::Alloc, .. }))) => {}
        Err(other) => panic!("expected Io{{Alloc}}, got {other:?}"),
        Ok(_) => panic!("WAL allocation over a broken store must fail"),
    }
}

#[test]
fn manifest_nonces_never_repeat_across_reopens() {
    // The manifest's sealing nonce must not come from the seed-derived
    // RNG: a reopened engine replays that stream from the same state, so
    // a deterministic nonce would repeat under the same sealing key —
    // exactly the create → persist → reopen → persist cycle below.
    let manifest_nonce = |dir: &std::path::Path| -> Vec<u8> {
        let blob = std::fs::read(dir.join(oblidb::core::DB_MANIFEST_FILE)).unwrap();
        blob[12..24].to_vec() // magic(8) ‖ version(4) ‖ nonce(12)
    };
    let guard = TempDir::new("oblidb-persist-nonce").unwrap();
    let dir = guard.path().join("db");
    let spec = SubstrateSpec::Disk { dir: Some(dir.clone()) };
    {
        let mut db = oblidb::database_on(&spec, wal_config()).unwrap();
        db.execute("CREATE TABLE t (k INT)").unwrap();
        db.persist_to(&dir).unwrap();
    }
    let first = manifest_nonce(&dir);
    let mut db = oblidb::database_open(&spec, wal_config()).unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.persist_to(&dir).unwrap();
    let second = manifest_nonce(&dir);
    assert_ne!(first, second, "same key + repeated nonce would break the AEAD");
}

#[test]
fn reopening_a_walless_store_with_wal_config_enables_logging() {
    // A store persisted without a WAL, reopened by a caller who asks for
    // one: durability must be honored, not silently dropped.
    let guard = TempDir::new("oblidb-persist-latewal").unwrap();
    let dir = guard.path().join("db");
    let spec = SubstrateSpec::Disk { dir: Some(dir.clone()) };
    {
        let mut db = oblidb::database_on(&spec, DbConfig::default()).unwrap();
        db.execute("CREATE TABLE t (k INT)").unwrap();
        db.persist_to(&dir).unwrap();
    }
    let mut db = oblidb::database_open(&spec, wal_config()).unwrap();
    db.execute("INSERT INTO t VALUES (7)").unwrap();
    let log = db.wal_records().unwrap();
    assert_eq!(log, vec!["INSERT INTO t VALUES (7)".to_string()]);
}

#[test]
fn forged_region_table_is_a_typed_error_not_an_abort() {
    // regions.meta is untrusted input: implausible counts must fail as
    // InvalidData, never allocate hundreds of gigabytes or overflow.
    let guard = TempDir::new("oblidb-persist-forgedmeta").unwrap();
    let dir = guard.path().join("db");
    {
        let mut m = oblidb::substrates::DiskMemory::create(&dir).unwrap();
        let r = m.alloc_region(2, 8).unwrap();
        m.write(r, 0, &[0u8; 8]).unwrap();
        m.sync().unwrap();
    }
    let forge = |next_id: u32, live: u32, block_size: u64, blocks: u64| {
        let mut evil = Vec::new();
        evil.extend_from_slice(b"OBLIDBMT");
        evil.extend_from_slice(&1u32.to_le_bytes());
        evil.extend_from_slice(&next_id.to_le_bytes());
        evil.extend_from_slice(&live.to_le_bytes());
        if live > 0 {
            evil.extend_from_slice(&0u32.to_le_bytes());
            evil.extend_from_slice(&block_size.to_le_bytes());
            evil.extend_from_slice(&blocks.to_le_bytes());
        }
        std::fs::write(dir.join(REGION_META_FILE), &evil).unwrap();
    };
    // Huge id space; huge bitmap; overflowing geometry.
    for (next_id, live, block_size, blocks) in
        [(u32::MAX, 0, 0, 0), (1, 1, 8, u64::MAX), (1, 1, u64::MAX, u64::MAX / 2)]
    {
        forge(next_id, live, block_size, blocks);
        match oblidb::substrates::DiskMemory::open(&dir) {
            Ok(_) => panic!("forged region table must be rejected"),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
        }
    }
}

#[test]
fn indexed_tables_refuse_persistence_with_typed_error() {
    let guard = TempDir::new("oblidb-persist-indexed").unwrap();
    let dir = guard.path().join("db");
    let spec = SubstrateSpec::Disk { dir: Some(dir.clone()) };
    let mut db = oblidb::database_on(&spec, DbConfig::default()).unwrap();
    db.execute("CREATE TABLE t (k INT) STORAGE = INDEXED INDEX ON k CAPACITY 32").unwrap();
    assert!(matches!(db.persist_to(&dir), Err(DbError::Unsupported(_))));
}

#[test]
fn open_requires_a_persisted_store() {
    let guard = TempDir::new("oblidb-persist-missing").unwrap();
    let dir = guard.path().join("nothing");
    std::fs::create_dir_all(&dir).unwrap();
    // No region table, no manifest: substrate open fails cleanly.
    assert!(matches!(
        oblidb::database_open(&SubstrateSpec::Disk { dir: Some(dir.clone()) }, DbConfig::default()),
        Err(oblidb::OpenError::Io(_))
    ));
    // A synced store without a database manifest is also a typed error.
    {
        let mut m = oblidb::substrates::DiskMemory::create(dir.join("store")).unwrap();
        let r = m.alloc_region(1, 8).unwrap();
        m.write(r, 0, &[0u8; 8]).unwrap();
        m.sync().unwrap();
    }
    assert!(dir.join("store").join(REGION_META_FILE).exists());
    match oblidb::database_open(
        &SubstrateSpec::Disk { dir: Some(dir.join("store")) },
        DbConfig::default(),
    ) {
        Err(oblidb::OpenError::Db(DbError::ManifestRejected(_))) => {}
        other => panic!("missing manifest must be typed, got {other:?}", other = other.err()),
    }
    // Host specs have nothing to reopen.
    assert!(matches!(
        oblidb::database_open(&SubstrateSpec::Host, DbConfig::default()),
        Err(oblidb::OpenError::Io(_))
    ));
}

/// `database_on_calibrated` on a durable spec must write the
/// `oblidb.calibration` artifact next to the region files; a later
/// default-config `database_open` must reload exactly those weights
/// instead of re-deriving stock ones.
#[test]
fn calibration_artifact_survives_restart() {
    use oblidb::core::{CostProfile, CALIBRATION_FILE};

    let guard = TempDir::new("oblidb-persist-calibration").unwrap();
    let dir = guard.path().join("db");
    let spec = SubstrateSpec::Disk { dir: Some(dir.clone()) };
    {
        let mut db = oblidb::database_on_calibrated(&spec, wal_config()).unwrap();
        populate(&mut db);
        db.persist_to(&dir).unwrap();
    }
    assert!(dir.join(CALIBRATION_FILE).exists(), "calibrated open must persist the artifact");
    let saved = CostProfile::load_from(&dir).expect("persisted artifact must parse");
    assert_eq!(saved.name, spec.profile_name());

    // Reopen with an untouched default config: the persisted weights win.
    let mut reopened = oblidb::database_open(&spec, wal_config()).unwrap();
    assert_eq!(
        reopened.config_mut().planner.profile,
        saved,
        "database_open must reload the persisted calibration"
    );
    assert_eq!(reopened.execute(QUERY).unwrap().len(), 20);

    // A second calibrated open loads the artifact instead of re-probing:
    // the weights stay bit-identical across restarts.
    let mut again = oblidb::database_open_with_report(&spec, wal_config()).unwrap().0;
    assert_eq!(again.config_mut().planner.profile, saved);

    // An explicit profile in the caller's config is never overridden.
    let mut cfg = wal_config();
    cfg.planner.profile = CostProfile::uniform();
    let mut pinned = oblidb::database_open(&spec, cfg).unwrap();
    assert_eq!(pinned.config_mut().planner.profile, CostProfile::uniform());
}
