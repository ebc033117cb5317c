//! Point queries over the oblivious B+ tree index (paper §7.1, Figure 11):
//! per-operation latencies for SELECT / INSERT / DELETE on an indexed
//! table, plus the fixed ORAM access budget each op consumes.
//!
//! ```sh
//! cargo run --release --example point_queries
//! ```

use oblidb::core::{Database, DbConfig, StorageMethod, Value};
use oblidb::workloads::synthetic;
use std::time::Instant;

const ROWS: usize = 50_000;

fn main() {
    println!("bulk-loading an indexed table of {ROWS} rows...");
    let rows = synthetic::table(ROWS, 8, 7);
    let mut db = Database::new(DbConfig::default());
    db.create_table_with_rows(
        "t",
        synthetic::schema(8),
        StorageMethod::Indexed,
        Some("id"),
        &rows,
        (ROWS + 1000) as u64,
    )
    .unwrap();

    // Point SELECTs: each is a padded root-to-leaf descent in the ORAM.
    let probes = [3i64, 499, 25_000, 49_999];
    let start = Instant::now();
    for &k in &probes {
        let out = db.execute(&format!("SELECT * FROM t WHERE id = {k}")).unwrap();
        assert_eq!(out.len(), 1);
    }
    println!(
        "point SELECT: {:?} avg over {} probes",
        start.elapsed() / probes.len() as u32,
        probes.len()
    );

    // Point INSERTs (padded to the worst-case split chain).
    let start = Instant::now();
    let n_ins = 20;
    for i in 0..n_ins {
        db.insert("t", &[Value::Int(ROWS as i64 + i), Value::Int(0), Value::Text("x".into())])
            .unwrap();
    }
    println!("point INSERT: {:?} avg over {n_ins}", start.elapsed() / n_ins as u32);

    // Point DELETEs (padded to the worst-case merge chain).
    let start = Instant::now();
    let n_del = 20;
    for i in 0..n_del {
        let out = db.execute(&format!("DELETE FROM t WHERE id = {}", ROWS as i64 + i)).unwrap();
        assert_eq!(out.plan.output_rows, 1);
    }
    println!("point DELETE: {:?} avg over {n_del}", start.elapsed() / n_del as u32);

    // Small range query: cost scales with the scanned segment, which is
    // leaked (paper §4.1) as part of the result size.
    let start = Instant::now();
    let out = db.execute("SELECT * FROM t WHERE id >= 1000 AND id < 1050").unwrap();
    println!(
        "range of {} rows: {:?} (used_index={})",
        out.len(),
        start.elapsed(),
        out.plan.used_index
    );
    // Under OBLIDB_AUDIT=1 every statement ran traced: same-shape
    // statements must have left one transcript.
    assert!(db.audit_violations().is_empty(), "{:?}", db.audit_report());
}
