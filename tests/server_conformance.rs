//! Serving conformance: the concurrent [`SharedDatabase`] front-end must
//! be indistinguishable from a single-owner [`Database`] for any serial
//! schedule — byte-identical results AND event-identical adversary
//! traces — on every substrate (in-RAM host, disk, and a cache over disk
//! small enough to evict under the served path), and
//! concurrent sessions must converge to the serial-equivalent state with
//! the engine's trace auditor silent. The top layer is exercised too: a
//! real TCP server over a disk store with interleaving clients.

use oblidb::core::audit::trace_hash;
use oblidb::core::{Database, DbConfig, SharedDatabase, Value};
use oblidb::enclave::{EnclaveMemory, Host};
use oblidb::server::client::{Connection, StatementResult};
use oblidb::server::server::{serve, ServerConfig};
use oblidb::substrates::{CachedMemory, DiskMemory};

/// The statement mix: DDL, a burst of inserts, point/range/aggregate
/// selects, an update and a delete, then re-reads that observe them.
fn workload() -> Vec<String> {
    let mut stmts =
        vec!["CREATE TABLE t (id INT, v INT, tag CHAR(8)) STORAGE = FLAT CAPACITY 128".to_string()];
    for i in 0..24 {
        stmts.push(format!("INSERT INTO t VALUES ({i}, {}, 'g{}')", i * 7, i % 4));
    }
    stmts.extend(
        [
            "SELECT v FROM t WHERE id = 11",
            "SELECT id, v FROM t WHERE v > 100",
            "SELECT COUNT(*), SUM(v) FROM t WHERE id < 16",
            "SELECT tag, COUNT(*) FROM t GROUP BY tag",
            "UPDATE t SET v = -1 WHERE id >= 20",
            "DELETE FROM t WHERE id = 3",
            "SELECT id FROM t WHERE v = -1",
            "SELECT COUNT(*) FROM t",
        ]
        .map(str::to_string),
    );
    stmts
}

/// Replays [`workload`] through a single-owner engine and through a
/// round-robin pair of sessions on an identically configured shared
/// engine, asserting statement-for-statement identical results and
/// identical canonical run traces.
fn assert_serial_equivalence<M: EnclaveMemory + Send>(solo_store: M, shared_store: M) {
    let config = DbConfig::default();
    let mut solo = Database::with_memory(solo_store, config.clone());
    let shared = SharedDatabase::new(shared_store, config).unwrap();
    let mut sessions = [shared.session(), shared.session()];
    for (i, stmt) in workload().iter().enumerate() {
        solo.host_mut().start_trace();
        let a = solo.execute(stmt).unwrap_or_else(|e| panic!("solo {stmt}: {e}"));
        let solo_trace = solo.host_mut().take_trace();
        let (b, session_trace) = sessions[i % 2].execute_traced(stmt);
        let b = b.unwrap_or_else(|e| panic!("session {stmt}: {e}"));
        assert_eq!(a.rows(), b.rows(), "rows diverged for {stmt}");
        assert_eq!(a.schema, b.schema, "schema diverged for {stmt}");
        assert_eq!(a.rows_affected, b.rows_affected, "effects diverged for {stmt}");
        assert_eq!(
            trace_hash(&solo_trace, &[]),
            trace_hash(&session_trace, &[]),
            "canonical trace diverged for {stmt}"
        );
    }
}

#[test]
fn serial_sessions_match_single_owner_on_host() {
    assert_serial_equivalence(Host::new(), Host::new());
}

#[test]
fn serial_sessions_match_single_owner_on_disk() {
    assert_serial_equivalence(DiskMemory::temp().unwrap(), DiskMemory::temp().unwrap());
}

/// Eight cached blocks: the served workload's table alone outgrows the
/// cache, so sessions run through evictions and write-backs.
fn small_cache_over_disk() -> CachedMemory<DiskMemory> {
    CachedMemory::new(DiskMemory::temp().unwrap(), 8)
}

#[test]
fn serial_sessions_match_single_owner_on_cached_disk() {
    assert_serial_equivalence(small_cache_over_disk(), small_cache_over_disk());
}

/// N threads interleaving inserts with reads must converge to the
/// serial-equivalent row count with the engine's auditor silent.
fn assert_concurrent_convergence<M: EnclaveMemory + Send + 'static>(store: M) {
    let config = DbConfig { audit: true, ..DbConfig::default() };
    let shared = SharedDatabase::new(store, config).unwrap();
    let mut setup = shared.session();
    setup.execute("CREATE TABLE t (id INT, v INT) STORAGE = FLAT CAPACITY 256").unwrap();
    for i in 0..10 {
        setup.execute(&format!("INSERT INTO t VALUES ({i}, {i})")).unwrap();
    }
    const WORKERS: u64 = 4;
    const PER_WORKER: u64 = 5;
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let mut session = shared.session();
            scope.spawn(move || {
                for i in 0..PER_WORKER {
                    let id = 1000 + w * PER_WORKER + i;
                    session.execute(&format!("INSERT INTO t VALUES ({id}, {id})")).unwrap();
                    // Reads interleave with other sessions' inserts.
                    let out = session.execute("SELECT COUNT(*) FROM t").unwrap();
                    assert_eq!(out.rows().len(), 1);
                    let out = session.execute(&format!("SELECT v FROM t WHERE id = {id}")).unwrap();
                    assert_eq!(out.rows(), &[vec![Value::Int(id as i64)]]);
                }
            });
        }
    });
    let out = shared.session().execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(out.rows(), &[vec![Value::Int((10 + WORKERS * PER_WORKER) as i64)]]);
    let report = shared.audit_report();
    assert_eq!(report.violations, 0, "{:?}", shared.audit_violations());
    assert!(report.shapes > 0, "auditor must have observed shapes");
}

#[test]
fn concurrent_sessions_converge_on_host() {
    assert_concurrent_convergence(Host::new());
}

#[test]
fn concurrent_sessions_converge_on_disk() {
    assert_concurrent_convergence(DiskMemory::temp().unwrap());
}

#[test]
fn concurrent_sessions_converge_on_cached_disk() {
    assert_concurrent_convergence(small_cache_over_disk());
}

/// Full stack over a durable substrate: a real TCP server on a disk
/// store, concurrent wire clients interleaving reads and writes, and the
/// merged metrics verb reporting both engine and server counters.
#[test]
fn served_disk_store_converges_over_tcp() {
    let db = SharedDatabase::new(DiskMemory::temp().unwrap(), DbConfig::default()).unwrap();
    let handle =
        serve(db, ServerConfig { addr: "127.0.0.1:0".to_string(), workers: 3, epoch: None })
            .unwrap();
    let addr = handle.addr().to_string();
    let mut setup = Connection::connect(&addr).unwrap();
    setup.execute("CREATE TABLE t (k INT, v INT) STORAGE = FLAT CAPACITY 128").unwrap();
    const CLIENTS: i64 = 3;
    const PER_CLIENT: i64 = 6;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut conn = Connection::connect(&addr).unwrap();
                for i in 0..PER_CLIENT {
                    let k = c * PER_CLIENT + i;
                    let r =
                        conn.execute(&format!("INSERT INTO t VALUES ({k}, {})", k * 2)).unwrap();
                    assert_eq!(r, StatementResult::RowsAffected(1));
                    match conn.execute(&format!("SELECT v FROM t WHERE k = {k}")).unwrap() {
                        StatementResult::Rows { rows, .. } => {
                            assert_eq!(rows, vec![vec![Value::Int(k * 2)]]);
                        }
                        other => panic!("expected rows, got {other:?}"),
                    }
                }
            });
        }
    });
    match setup.execute("SELECT COUNT(*) FROM t").unwrap() {
        StatementResult::Rows { rows, .. } => {
            assert_eq!(rows, vec![vec![Value::Int(CLIENTS * PER_CLIENT)]]);
        }
        other => panic!("expected count, got {other:?}"),
    }
    let json = setup.metrics().unwrap();
    for key in ["db_sessions", "server_lifetime_connections", "session_statements"] {
        assert!(json.contains(key), "metrics verb missing {key}: {json}");
    }
    let stats = handle.shutdown();
    assert_eq!(stats.connections, CLIENTS as u64 + 1);
}
