//! `EXPLAIN ANALYZE` and the telemetry surface over a runtime-selected
//! substrate: run a query for real, render the plan with measured
//! per-node wall time / crossings / AEAD bytes next to the planner's
//! estimates, then dump one merged metrics snapshot.
//!
//! ```sh
//! cargo run --release --example analyze
//! OBLIDB_SUBSTRATE=disk:/tmp/oblidb cargo run --release --example analyze
//! OBLIDB_SUBSTRATE=cached:512:disk cargo run --release --example analyze
//! OBLIDB_AUDIT=1 cargo run --release --example analyze
//! ```

use oblidb::core::{CostProfile, DbConfig};
use oblidb::substrates::SubstrateSpec;
use oblidb::telemetry;

fn main() {
    let spec = match SubstrateSpec::from_env() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("OBLIDB_SUBSTRATE: {e}");
            std::process::exit(2);
        }
    };
    println!("substrate: {} (set OBLIDB_SUBSTRATE to change)", spec.profile_name());

    // Telemetry is off by default (and free when off); an explicit opt-in
    // turns on spans, counters, and histograms for this process.
    telemetry::set_enabled(true);

    let mut config = DbConfig { om_bytes: 4096, ..DbConfig::default() };
    config.planner.profile = CostProfile::named(spec.profile_name());
    println!("audit:     {}\n", config.audit);
    let mut db = oblidb::database_on(&spec, config).expect("substrate builds");

    db.execute("CREATE TABLE events (id INT, kind INT, size INT) CAPACITY 512").unwrap();
    for i in 0..512 {
        db.execute(&format!("INSERT INTO events VALUES ({i}, {}, {})", i % 8, i * 3)).unwrap();
    }
    db.execute("CREATE TABLE kinds (kind INT, label CHAR(8)) CAPACITY 8").unwrap();
    for g in 0..8 {
        db.execute(&format!("INSERT INTO kinds VALUES ({g}, 'k{g}')")).unwrap();
    }

    // EXPLAIN ANALYZE is a statement: it executes the select and the
    // result set is the annotated rendering, one line per row.
    for query in [
        "EXPLAIN ANALYZE SELECT * FROM events WHERE kind = 3",
        "EXPLAIN ANALYZE SELECT kind, COUNT(*) FROM events WHERE size < 768 GROUP BY kind",
        "EXPLAIN ANALYZE SELECT * FROM kinds JOIN events ON kinds.kind = events.kind \
         WHERE size < 96",
        // An aggregate over a join folds the joined rows in the join's
        // own loop: no join output table, no aggregate pass.
        "EXPLAIN ANALYZE SELECT COUNT(*), SUM(events.size) FROM kinds \
         JOIN events ON kinds.kind = events.kind",
    ] {
        println!("--- {query}");
        let out = db.execute(query).unwrap();
        for row in out.rows() {
            println!("{}", row[0].as_text().unwrap());
        }
        println!();
    }

    // One merged snapshot: registry counters + histograms, host traffic,
    // plan-cache counters, audit counters. Exporting it is an explicit
    // boundary decision — here, stdout at end of run.
    let snap = db.metrics_snapshot();
    println!("--- metrics snapshot (text)\n{}", snap.to_text());
    println!("--- metrics snapshot (json)\n{}", snap.to_json());

    let spans = telemetry::take_spans();
    println!("--- {} spans captured ({} dropped)", spans.len(), telemetry::dropped_spans());
    for s in spans.iter().rev().take(8) {
        println!("  {:<18} {:>10} ns (parent {})", s.kind.name(), s.dur_ns, s.parent);
    }
}
