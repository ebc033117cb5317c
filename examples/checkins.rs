//! The paper's running example (§4.1): a `Checkins` table logging when
//! employees enter or exit a building.
//!
//! A naive engine that "reads each record and writes out matches" leaks,
//! through the access pattern alone, *which* rows matched — i.e. when
//! employee 3172 entered the building. This example records the simulated
//! OS-level trace for two differently-parameterized queries and shows the
//! transcripts are identical, so the adversary learns nothing but sizes.
//! A third, more selective query returns fewer rows and still leaves the
//! same transcript: all three results fit oblivious memory, so each select
//! is one pass over the table that writes nothing.
//!
//! ```sh
//! cargo run --release --example checkins
//! ```

use oblidb::core::{Database, DbConfig};

fn build_db() -> Database {
    let mut db = Database::new(DbConfig::default());
    // Disable the Continuous algorithm: its choice leaks continuity, and
    // we want byte-identical transcripts even where matches overflow
    // oblivious memory and the planner chooses an operator.
    db.config_mut().planner.enable_continuous = false;
    db.execute("CREATE TABLE Checkins (uid INT, day INT, direction INT) CAPACITY 512").unwrap();
    // 400 check-in events for 200 employees over 2 days.
    for i in 0..400 {
        let uid = 3000 + (i % 200);
        let day = i / 200;
        db.execute(&format!("INSERT INTO Checkins VALUES ({uid}, {day}, {})", i % 2)).unwrap();
    }
    db
}

fn main() {
    // Query A: when did employee 3172 check in?
    let mut db = build_db();
    db.start_trace();
    let a = db.execute("SELECT * FROM Checkins WHERE uid = 3172").unwrap();
    let trace_a = db.take_trace();

    // Query B: a completely different employee.
    let mut db = build_db();
    db.start_trace();
    let b = db.execute("SELECT * FROM Checkins WHERE uid = 3007").unwrap();
    let trace_b = db.take_trace();

    println!("query A: {} rows via {:?}", a.len(), a.plan.select_algo.unwrap());
    println!("query B: {} rows via {:?}", b.len(), b.plan.select_algo.unwrap());
    println!("trace A: {} untrusted accesses", trace_a.len());
    println!("trace B: {} untrusted accesses", trace_b.len());
    assert_eq!(
        trace_a, trace_b,
        "the OS-level transcripts must be identical for equal-size results"
    );
    println!("transcripts identical: the adversary cannot tell the queries apart.");

    // A more selective query: fewer rows, same transcript. The output size
    // is leaked by design, but through the result, not the access pattern:
    // results that fit oblivious memory are never written out.
    let mut db = build_db();
    db.start_trace();
    let c = db.execute("SELECT * FROM Checkins WHERE uid = 3172 AND day > 5").unwrap();
    let trace_c = db.take_trace();
    assert_ne!(c.len(), a.len());
    assert_eq!(trace_c, trace_a, "results that fit oblivious memory leave one transcript");
    println!(
        "\na more selective query ({} rows vs {}) leaves the same transcript too: \
         {} accesses, one pass over the table.",
        c.len(),
        a.len(),
        trace_c.len()
    );
}
