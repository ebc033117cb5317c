//! The `EnclaveMemory` seam in action: run the same queries over the
//! payload-storing `Host` and the payload-free `CountingMemory` and show
//! that the adversary-visible cost is identical — the counting substrate
//! is a fast cost model for capacity planning.
//!
//! ```sh
//! cargo run --release --example cost_model
//! ```

use oblidb::core::SelectAlgo;
use oblidb::core::{Database, DbConfig};
use oblidb::enclave::{CountingMemory, EnclaveMemory, Host};

fn drive<M: EnclaveMemory>(mut db: Database<M>) -> (u64, u64, u64) {
    db.execute("CREATE TABLE events (id INT, kind INT, size INT) CAPACITY 256").unwrap();
    for i in 0..200 {
        db.execute(&format!("INSERT INTO events VALUES ({i}, {}, {})", i % 5, i * 7)).unwrap();
    }
    db.host_mut().reset_stats();
    db.execute("SELECT * FROM events WHERE kind = 3").unwrap();
    db.execute("SELECT COUNT(*), SUM(size) FROM events WHERE id < 100").unwrap();
    let stats = db.host_mut().stats();
    (stats.reads, stats.writes, stats.bytes_read + stats.bytes_written)
}

fn main() {
    // Force a size-oblivious select so the plan cannot depend on payload
    // contents (which CountingMemory does not keep).
    let mut config = DbConfig::default();
    config.planner.force_select = Some(SelectAlgo::Large);

    let (r1, w1, b1) = drive(Database::with_memory(Host::new(), config.clone()));
    let (r2, w2, b2) = drive(Database::with_memory(CountingMemory::new(), config));

    println!("substrate        reads   writes        bytes");
    println!("Host            {r1:>6}   {w1:>6}   {b1:>10}");
    println!("CountingMemory  {r2:>6}   {w2:>6}   {b2:>10}");
    assert_eq!((r1, w1, b1), (r2, w2, b2), "cost model must match the real substrate");
    println!("\ncost model matches the real substrate exactly — no payload bytes stored.");
}
