//! Serving ObliDB over TCP: starts an in-process `oblidb-server` on an
//! ephemeral port, connects two wire clients, interleaves their
//! statements against the one shared store, and prints the merged
//! engine + server metrics that the `.metrics` verb reports.
//!
//! ```sh
//! cargo run --release --example server
//! ```

use oblidb::core::{DbConfig, SharedDatabase};
use oblidb::enclave::Host;
use oblidb::server::client::{Connection, StatementResult};
use oblidb::server::server::{serve, ServerConfig};
use oblidb::telemetry;

fn run(conn: &mut Connection, who: &str, sql: &str) {
    match conn.execute(sql).unwrap_or_else(|e| panic!("{who}: {sql}: {e}")) {
        StatementResult::Rows { schema, rows } => {
            let cols: Vec<&str> = schema.columns.iter().map(|c| c.name.as_str()).collect();
            println!("[{who}] {sql}");
            println!("         -> {} row(s), columns {cols:?}", rows.len());
            for row in rows.iter().take(3) {
                println!("            {row:?}");
            }
        }
        StatementResult::RowsAffected(n) => println!("[{who}] {sql}\n         -> {n} affected"),
    }
}

fn main() {
    telemetry::set_enabled(true);

    // One shared engine over an in-RAM host store; swap in
    // `oblidb::substrates::DiskMemory::create(dir)` for durability.
    let db = SharedDatabase::new(Host::new(), DbConfig::default()).unwrap();
    let handle =
        serve(db, ServerConfig { addr: "127.0.0.1:0".to_string(), workers: 2, epoch: None })
            .expect("start server");
    println!("serving on {}\n", handle.addr());

    // Two wire clients — each gets its own engine session on the server.
    let addr = handle.addr().to_string();
    let mut alice = Connection::connect(&addr).unwrap();
    let mut bob = Connection::connect(&addr).unwrap();

    run(&mut alice, "alice", "CREATE TABLE orders (id INT, total INT) STORAGE = FLAT CAPACITY 64");
    run(&mut alice, "alice", "INSERT INTO orders VALUES (1, 120)");
    run(&mut bob, "bob  ", "INSERT INTO orders VALUES (2, 75)");
    // Bob's read runs on the same engine and sees Alice's completed write.
    run(&mut bob, "bob  ", "SELECT id, total FROM orders WHERE total > 100");
    run(&mut alice, "alice", "UPDATE orders SET total = 80 WHERE id = 2");
    run(&mut bob, "bob  ", "SELECT COUNT(*), SUM(total) FROM orders");
    run(&mut alice, "alice", "EXPLAIN SELECT id FROM orders WHERE total > 50");

    // The metrics verb merges engine counters (db_sessions, plan cache,
    // oram/crypto) with server lifetime counters and this connection's
    // session statistics.
    let json = bob.metrics().unwrap();
    println!("\n.metrics ->\n{json}");

    let stats = handle.shutdown();
    println!(
        "\nserver lifetime: {} connections, {} statements, {} bytes in, {} bytes out",
        stats.connections, stats.statements, stats.bytes_in, stats.bytes_out
    );
}
