//! End-to-end serving tests: real TCP sockets, concurrent connections,
//! metrics/ping/shutdown verbs, and wire-level abuse.

use std::io::{Read, Write};
use std::net::TcpStream;

use oblidb_core::{DbConfig, EpochConfig, SharedDatabase, Value, WalConfig};
use oblidb_enclave::Host;
use oblidb_server::client::{ClientError, Connection, StatementResult};
use oblidb_server::server::{serve, ServerConfig};

fn start_server(workers: usize) -> (oblidb_server::server::ServerHandle, String) {
    let db = SharedDatabase::new(Host::new(), DbConfig::default()).unwrap();
    let config = ServerConfig { addr: "127.0.0.1:0".to_string(), workers, epoch: None };
    let handle = serve(db, config).unwrap();
    let addr = handle.addr().to_string();
    (handle, addr)
}

#[test]
fn statements_roundtrip_over_tcp() {
    let (handle, addr) = start_server(2);
    let mut conn = Connection::connect(&addr).unwrap();
    conn.ping().unwrap();
    // DDL is not a mutation statement: it comes back as an empty set.
    let r = conn.execute("CREATE TABLE t (k INT, v INT) STORAGE = FLAT CAPACITY 64").unwrap();
    assert!(matches!(r, StatementResult::Rows { ref rows, .. } if rows.is_empty()), "{r:?}");
    for i in 0..10 {
        let r = conn.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 3)).unwrap();
        assert_eq!(r, StatementResult::RowsAffected(1));
    }
    match conn.execute("SELECT v FROM t WHERE k = 4").unwrap() {
        StatementResult::Rows { schema, rows } => {
            assert_eq!(schema.columns.len(), 1);
            assert_eq!(rows, vec![vec![Value::Int(12)]]);
        }
        other => panic!("expected rows, got {other:?}"),
    }
    // EXPLAIN rides the same frame as any result set.
    match conn.execute("EXPLAIN SELECT v FROM t WHERE k = 4").unwrap() {
        StatementResult::Rows { rows, .. } => assert!(!rows.is_empty()),
        other => panic!("expected plan rows, got {other:?}"),
    }
    // Statement errors come back as error frames, connection stays up.
    match conn.execute("SELECT v FROM missing") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("missing"), "{msg}"),
        other => panic!("expected server error, got {other:?}"),
    }
    conn.ping().unwrap();
    let stats = handle.shutdown();
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.errors, 1);
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
}

#[test]
fn concurrent_connections_share_one_store() {
    let (handle, addr) = start_server(4);
    let mut setup = Connection::connect(&addr).unwrap();
    setup.execute("CREATE TABLE t (k INT, v INT) STORAGE = FLAT CAPACITY 256").unwrap();
    const CLIENTS: i64 = 4;
    const PER_CLIENT: i64 = 8;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut conn = Connection::connect(&addr).unwrap();
                for i in 0..PER_CLIENT {
                    let k = c * PER_CLIENT + i;
                    conn.execute(&format!("INSERT INTO t VALUES ({k}, {k})")).unwrap();
                    match conn.execute("SELECT COUNT(*) FROM t").unwrap() {
                        StatementResult::Rows { rows, .. } => assert_eq!(rows.len(), 1),
                        other => panic!("expected count, got {other:?}"),
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
    assert!(json.contains("db_sessions"), "metrics json missing serving counters: {json}");
    assert!(json.contains("session_statements"), "metrics json missing session fold: {json}");
    let stats = handle.shutdown();
    assert_eq!(stats.connections, CLIENTS as u64 + 1);
    assert_eq!(stats.statements, (CLIENTS * PER_CLIENT * 2 + 2) as u64);
}

#[test]
fn transactions_over_the_wire() {
    // Epoch-scheduled engine: commits pool into group fsyncs; clients
    // drive transactions with the dedicated wire verbs.
    let epoch = EpochConfig { duration_ms: 2, max_statements: 64 };
    let db = SharedDatabase::new(
        Host::new(),
        DbConfig { wal: Some(WalConfig), epoch: Some(epoch), ..DbConfig::default() },
    )
    .unwrap();
    let config = ServerConfig { addr: "127.0.0.1:0".to_string(), workers: 2, epoch: Some(epoch) };
    let handle = serve(db, config).unwrap();
    let addr = handle.addr().to_string();

    let mut a = Connection::connect(&addr).unwrap();
    let mut b = Connection::connect(&addr).unwrap();
    a.execute("CREATE TABLE t (k INT) STORAGE = FLAT CAPACITY 64").unwrap();

    // Buffered writes are invisible to other connections until commit.
    a.begin().unwrap();
    assert_eq!(a.execute("INSERT INTO t VALUES (1)").unwrap(), StatementResult::RowsAffected(0));
    a.execute("INSERT INTO t VALUES (2)").unwrap();
    match b.execute("SELECT COUNT(*) FROM t").unwrap() {
        StatementResult::Rows { rows, .. } => assert_eq!(rows, vec![vec![Value::Int(0)]]),
        other => panic!("expected count, got {other:?}"),
    }
    assert_eq!(a.commit().unwrap(), 2);
    match b.execute("SELECT COUNT(*) FROM t").unwrap() {
        StatementResult::Rows { rows, .. } => assert_eq!(rows, vec![vec![Value::Int(2)]]),
        other => panic!("expected count, got {other:?}"),
    }

    // SQL-spelled control verbs work identically over the wire.
    assert_eq!(a.execute("BEGIN").unwrap(), StatementResult::RowsAffected(0));
    a.execute("INSERT INTO t VALUES (3)").unwrap();
    assert_eq!(a.execute("ROLLBACK").unwrap(), StatementResult::RowsAffected(0));
    match a.execute("SELECT COUNT(*) FROM t").unwrap() {
        StatementResult::Rows { rows, .. } => assert_eq!(rows, vec![vec![Value::Int(2)]]),
        other => panic!("expected count, got {other:?}"),
    }

    // Control verbs without an open transaction are server errors, and
    // the connection survives them.
    assert!(matches!(a.commit(), Err(ClientError::Server(_))));
    assert!(matches!(a.rollback(), Err(ClientError::Server(_))));
    a.ping().unwrap();
    handle.shutdown();
}

#[test]
fn shutdown_verb_stops_the_server() {
    let (handle, addr) = start_server(2);
    let mut conn = Connection::connect(&addr).unwrap();
    conn.execute("CREATE TABLE t (k INT) STORAGE = FLAT CAPACITY 16").unwrap();
    conn.shutdown_server().unwrap();
    // The accept thread exits on its own; wait() must return promptly.
    let stats = handle.wait();
    assert_eq!(stats.connections, 1);
    // New connections are refused (or accepted-then-dropped, depending
    // on backlog timing) — either way no statement succeeds.
    if let Ok(mut c) = Connection::connect(&addr) {
        assert!(c.ping().is_err());
    }
}

#[test]
fn malformed_frames_get_an_error_and_a_disconnect() {
    let (handle, addr) = start_server(2);
    // Oversized announced length.
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    raw.flush().unwrap();
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).unwrap();
    // The server answered with an error frame before closing.
    assert!(buf.len() > 5, "expected an error frame, got {} bytes", buf.len());
    assert_eq!(buf[4], 0x83, "expected error tag");
    // Unknown tag.
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(&1u32.to_le_bytes()).unwrap();
    raw.write_all(&[0x7f]).unwrap();
    raw.flush().unwrap();
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).unwrap();
    assert!(buf.len() > 5 && buf[4] == 0x83);
    // The server survives the abuse.
    let mut conn = Connection::connect(&addr).unwrap();
    conn.ping().unwrap();
    let stats = handle.shutdown();
    assert_eq!(stats.errors, 2);
}
