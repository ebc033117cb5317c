//! The prepare/explain/execute lifecycle over a runtime-selected
//! substrate, with the planner priced by the stock profile paired with
//! it.
//!
//! ```sh
//! cargo run --release --example explain
//! OBLIDB_SUBSTRATE=disk:/tmp/oblidb cargo run --release --example explain
//! OBLIDB_SUBSTRATE=cached:512:disk cargo run --release --example explain
//! ```
//!
//! The same medium-selectivity query plans differently as the crossing
//! price climbs: with a tiny oblivious-memory budget, `Host` picks the
//! Hash select (fewest block accesses), while the disk profile picks
//! Small (fewest boundary crossings).

use oblidb::core::{CostProfile, DbConfig};
use oblidb::substrates::SubstrateSpec;

fn main() {
    let spec = match SubstrateSpec::from_env() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("OBLIDB_SUBSTRATE: {e}");
            std::process::exit(2);
        }
    };
    println!("substrate: {} (set OBLIDB_SUBSTRATE to change)", spec.profile_name());
    // Tiny OM budget so the planner has a real trade-off to weigh: the
    // Small select needs ~52 passes here, the Hash select ~2 crossings
    // per input row.
    let mut config = DbConfig { om_bytes: 128, ..DbConfig::default() };
    config.planner.profile = CostProfile::named(spec.profile_name());
    println!("profile:   {:?}\n", config.planner.profile);
    let mut db = oblidb::database_on(&spec, config).expect("substrate builds");

    db.execute("CREATE TABLE events (id INT, kind INT, size INT) CAPACITY 512").unwrap();
    for i in 0..512 {
        db.execute(&format!("INSERT INTO events VALUES ({i}, {}, {})", i % 2, i * 3)).unwrap();
    }

    let query = "SELECT * FROM events WHERE kind = 1";

    // Phase 1+2: prepare and explain — nothing has executed yet, and a
    // root select's filter waits for its first pass to count the matches.
    let mut stmt = db.prepare(query).unwrap();
    println!("--- {query}\n--- plan (filter deferred to run)\n{}", stmt.explain());

    // Phase 3: run, then explain again — the 256 matches overflow 128 bytes
    // of OM, so the first pass's count chose an operator; its estimate
    // and actual counted costs appear.
    let out = stmt.run().unwrap();
    println!("--- ran: {} rows\n--- plan (with actuals)\n{}", out.len(), stmt.explain());

    // EXPLAIN is also a statement: the result set is the rendering.
    let rendered = db.execute("EXPLAIN SELECT COUNT(*) FROM events WHERE kind = 1").unwrap();
    println!("--- EXPLAIN SELECT through SQL");
    for row in rendered.rows() {
        println!("{}", row[0].as_text().unwrap());
    }

    db.checkpoint().unwrap();
}
