//! Substrate conformance: the full engine must behave identically — byte-
//! identical query results, event-identical adversary traces — over every
//! [`EnclaveMemory`] substrate: in-RAM [`Host`], disk-backed
//! [`DiskMemory`], and the write-back [`CachedMemory`] LRU. The
//! substrates only change *where* sealed blocks
//! live and what backing traffic costs; the trusted protocol, and
//! therefore the adversary's view, must not move by one event.

use oblidb::core::wal::WalConfig;
use oblidb::core::{Database, DbConfig, Row, SelectAlgo};
use oblidb::enclave::{EnclaveMemory, Host, Trace};
use oblidb::substrates::{AnySubstrate, CachedMemory, DiskMemory, SubstrateSpec, TempDir};

fn wal_db_config() -> DbConfig {
    DbConfig { wal: Some(WalConfig), ..DbConfig::default() }
}

/// The mixed workload of the acceptance criteria: bulk load, inserts,
/// every forced select algorithm, an adaptive select, a join, a group-by,
/// mutations, an indexed (ORAM + B+ tree) table, aggregate reads, WAL
/// inspection, and a checkpoint. Returns every decoded result set plus the
/// WAL transcript, all of which must be identical across substrates.
fn mixed_workload<M: EnclaveMemory>(db: &mut Database<M>, n: i64) -> (Vec<Vec<Row>>, Vec<String>) {
    let mut results: Vec<Vec<Row>> = Vec::new();
    let mut run = |db: &mut Database<M>, sql: &str| {
        let out = db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        results.push(out.rows().to_vec());
    };

    run(db, &format!("CREATE TABLE t (k INT, v INT, name CHAR(8)) CAPACITY {n}"));
    for i in 0..n {
        run(db, &format!("INSERT INTO t VALUES ({i}, {}, 'r{}')", i * 3, i % 10));
    }

    // Every select algorithm over the same predicate shape.
    for algo in [
        SelectAlgo::Small,
        SelectAlgo::Large,
        SelectAlgo::Hash,
        SelectAlgo::Naive,
        SelectAlgo::Continuous,
    ] {
        db.config_mut().planner.force_select = Some(algo);
        run(db, &format!("SELECT * FROM t WHERE k >= 3 AND k < {}", n / 2));
    }
    db.config_mut().planner.force_select = None;
    run(db, "SELECT name, v FROM t WHERE v < 30");

    // Aggregates and group-by.
    run(db, "SELECT COUNT(*), SUM(v), MIN(k), MAX(k), AVG(v) FROM t WHERE k < 40");
    run(db, "SELECT name, SUM(v) FROM t GROUP BY name");

    // Join against a second table, with a pushed-down filter.
    run(db, "CREATE TABLE d (g INT, label CHAR(8)) CAPACITY 16");
    for g in 0..8 {
        run(db, &format!("INSERT INTO d VALUES ({g}, 'g{g}')"));
    }
    run(db, "SELECT * FROM d JOIN t ON d.g = t.k WHERE v < 18");

    // Mutations.
    run(db, &format!("UPDATE t SET v = -5 WHERE k >= {}", n - 8));
    run(db, &format!("DELETE FROM t WHERE k >= {}", n - 4));
    run(db, "SELECT * FROM t WHERE v = -5");

    // Indexed storage: Path ORAM + oblivious B+ tree on this substrate.
    run(db, "CREATE TABLE idx (k INT, v INT) STORAGE = INDEXED INDEX ON k CAPACITY 64");
    for i in 0..32 {
        run(db, &format!("INSERT INTO idx VALUES ({i}, {})", i * 7));
    }
    run(db, "SELECT * FROM idx WHERE k = 17");
    run(db, "SELECT * FROM idx WHERE k >= 5 AND k < 9");
    run(db, "DELETE FROM idx WHERE k = 2");
    run(db, "SELECT COUNT(*) FROM idx WHERE k >= 0");

    // Durability: checkpoint, then read the log back.
    db.checkpoint().expect("checkpoint");
    let wal = db.wal_records().expect("wal records");
    (results, wal)
}

const N: i64 = 48;

fn host_reference() -> (Vec<Vec<Row>>, Vec<String>) {
    let mut db = Database::new(wal_db_config());
    mixed_workload(&mut db, N)
}

/// Engine equivalence: every substrate family returns byte-identical
/// results and identical WAL transcripts.
#[test]
fn engine_equivalence_across_substrates() {
    let (host_results, host_wal) = host_reference();
    assert!(!host_wal.is_empty());

    let specs = [
        SubstrateSpec::Disk { dir: None },
        SubstrateSpec::CachedDisk { dir: None, capacity_blocks: 32 },
    ];
    for spec in specs {
        let substrate = spec.build().unwrap();
        let label = substrate.label();
        let mut db = Database::with_memory(substrate, wal_db_config());
        let (results, wal) = mixed_workload(&mut db, N);
        assert_eq!(host_results, results, "{label}: query results must be byte-identical");
        assert_eq!(host_wal, wal, "{label}: WAL transcripts must match");
    }
}

/// WAL replay parity: a log produced on a disk-backed substrate redoes
/// into a fresh Host engine and reproduces the same state.
#[test]
fn wal_replay_from_disk_substrate() {
    let mut db =
        Database::with_memory(CachedMemory::new(DiskMemory::temp().unwrap(), 16), wal_db_config());
    db.execute("CREATE TABLE t (k INT, v INT) CAPACITY 32").unwrap();
    for i in 0..10 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * i)).unwrap();
    }
    db.execute("UPDATE t SET v = 0 WHERE k < 3").unwrap();
    db.execute("DELETE FROM t WHERE k = 9").unwrap();
    db.checkpoint().unwrap();
    let log = db.wal_records().unwrap();

    // The log includes the CREATE, so replay alone rebuilds the table.
    let mut recovered = Database::new(DbConfig::default());
    let report = recovered.restore(&log).unwrap();
    assert!(report.skipped.is_empty(), "{:?}", report.skipped);
    let a = db.execute("SELECT * FROM t ORDER BY k").unwrap();
    let b = recovered.execute("SELECT * FROM t ORDER BY k").unwrap();
    assert_eq!(a.rows(), b.rows());
}

fn traced_workload<M: EnclaveMemory>(db: &mut Database<M>) -> Trace {
    db.start_trace();
    // A slice of the mixed workload that exercises per-block and batched
    // paths, ORAM routing, and WAL appends under tracing.
    db.execute("CREATE TABLE t (k INT, v INT) CAPACITY 32").unwrap();
    for i in 0..20 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 2)).unwrap();
    }
    db.execute("SELECT * FROM t WHERE k >= 4 AND k < 12").unwrap();
    db.execute("SELECT COUNT(*), SUM(v) FROM t WHERE k < 10").unwrap();
    db.execute("UPDATE t SET v = 1 WHERE k = 3").unwrap();
    db.execute("CREATE TABLE idx (k INT, v INT) STORAGE = INDEXED INDEX ON k CAPACITY 32").unwrap();
    for i in 0..16 {
        db.execute(&format!("INSERT INTO idx VALUES ({i}, {i})")).unwrap();
    }
    db.execute("SELECT * FROM idx WHERE k = 11").unwrap();
    db.take_trace()
}

/// The cache must not change the adversary's view: the logical trace over
/// `CachedMemory<Host>` — even a tiny, constantly-evicting one — is
/// event-identical to the trace over a bare `Host`.
#[test]
fn cached_memory_trace_equals_host_trace() {
    let mut host_db = Database::new(wal_db_config());
    let host_trace = traced_workload(&mut host_db);
    assert!(!host_trace.is_empty());

    for capacity in [4, 64, 4096] {
        let mut cached_db =
            Database::with_memory(CachedMemory::new(Host::new(), capacity), wal_db_config());
        let cached_trace = traced_workload(&mut cached_db);
        assert_eq!(
            host_trace, cached_trace,
            "cache capacity {capacity}: logical trace must be identical to Host"
        );
    }
}

/// Moving blocks to disk must not change the adversary's view either:
/// the full engine trace over a bare `DiskMemory` (region files, batched
/// positioned I/O, no cache in front) is event-identical to `Host`'s.
#[test]
fn disk_memory_trace_equals_host_trace() {
    let mut host_db = Database::new(wal_db_config());
    let host_trace = traced_workload(&mut host_db);
    let mut disk_db = Database::with_memory(DiskMemory::temp().unwrap(), wal_db_config());
    let disk_trace = traced_workload(&mut disk_db);
    assert_eq!(host_trace, disk_trace);
}

/// The acceptance scenario: a dataset whose sealed blocks outnumber the
/// cache capacity runs the full engine-equivalence workload over
/// `CachedMemory<DiskMemory>` — larger-than-cache, disk-backed — with
/// byte-identical results, an identical WAL transcript, and an identical
/// per-block access trace; the cache provably thrashed (evictions,
/// backing traffic) while absorbing repeat accesses (hits).
#[test]
fn larger_than_cache_disk_run_matches_host() {
    let (host_results, host_wal) = host_reference();
    let mut host_db = Database::new(wal_db_config());
    let host_trace = traced_workload(&mut host_db);

    // N=48 rows (one sealed block each) + WAL + ORAM buckets ≫ 24 blocks.
    const CACHE_BLOCKS: usize = 24;
    let mut db = Database::with_memory(
        CachedMemory::new(DiskMemory::temp().unwrap(), CACHE_BLOCKS),
        wal_db_config(),
    );
    let (results, wal) = mixed_workload(&mut db, N);
    assert_eq!(host_results, results, "byte-identical results on cached disk");
    assert_eq!(host_wal, wal);

    let cache = db.host_mut();
    let cs = cache.cache_stats();
    assert!(cs.evictions > 0, "dataset must exceed the cache: {cs:?}");
    assert!(cs.hits > 0, "repeat accesses must hit: {cs:?}");
    assert!(cache.cached_blocks() <= CACHE_BLOCKS);
    assert!(
        cache.inner().stats().total_accesses() < cache.stats().total_accesses(),
        "the cache must absorb some backing traffic"
    );

    // Trace equality on the traced slice of the workload.
    let mut traced_db = Database::with_memory(
        CachedMemory::new(DiskMemory::temp().unwrap(), CACHE_BLOCKS),
        wal_db_config(),
    );
    let disk_trace = traced_workload(&mut traced_db);
    assert_eq!(host_trace, disk_trace, "per-block access traces must be identical");
}

/// `DiskMemory::temp` substrates leave nothing behind — the guard removes
/// the region files and the directory even after real engine traffic.
#[test]
fn disk_substrate_cleans_up_after_itself() {
    let dir = {
        let disk = DiskMemory::temp().unwrap();
        let dir = disk.dir().to_path_buf();
        let mut db = Database::with_memory(disk, DbConfig::default());
        db.execute("CREATE TABLE t (k INT) CAPACITY 16").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        assert!(dir.is_dir());
        assert!(std::fs::read_dir(&dir).unwrap().count() > 0, "region files exist while open");
        dir
    };
    assert!(!dir.exists(), "temp disk substrate must remove its directory on drop");
}

/// Explicitly-rooted disk substrates persist their region files (that is
/// the point of a durable substrate); the test keeps them inside its own
/// guard so the suite still cleans up.
#[test]
fn explicit_disk_dir_survives_engine_drop() {
    let guard = TempDir::new("oblidb-conformance").unwrap();
    let store = guard.path().join("db");
    {
        let disk = DiskMemory::create(&store).unwrap();
        let mut db = Database::with_memory(disk, wal_db_config());
        db.execute("CREATE TABLE t (k INT) CAPACITY 8").unwrap();
        db.execute("INSERT INTO t VALUES (42)").unwrap();
        db.checkpoint().unwrap();
    }
    assert!(
        std::fs::read_dir(&store).unwrap().count() > 0,
        "explicit-dir region files persist after the engine is dropped"
    );
}

/// Stats surface uniformly through `AnySubstrate` dispatch across the
/// substrate families.
#[test]
fn any_substrate_stats_surface_uniformly() {
    let specs = [
        SubstrateSpec::Host,
        SubstrateSpec::Disk { dir: None },
        SubstrateSpec::CachedDisk { dir: None, capacity_blocks: 64 },
    ];
    let mut reports = Vec::new();
    for spec in specs {
        let mut db = Database::with_memory(spec.build().unwrap(), DbConfig::default());
        db.execute("CREATE TABLE t (k INT) CAPACITY 16").unwrap();
        for i in 0..8 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        db.host_mut().reset_stats();
        db.execute("SELECT * FROM t WHERE k < 4").unwrap();
        let m: &mut AnySubstrate = db.host_mut();
        reports.push(m.stats().report(m.label()));
    }
    // Same workload, same logical counters — whatever the substrate.
    for r in &reports[1..] {
        assert_eq!(r.stats, reports[0].stats, "{} vs {}", r.name, reports[0].name);
    }
}
