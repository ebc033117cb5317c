//! Padding mode (paper §2.3, §7.2): hide even the result sizes by padding
//! every intermediate and final table to a fixed bound, at a measured
//! slowdown. Two queries of very different selectivity produce *identical*
//! untrusted-memory transcripts.
//!
//! ```sh
//! cargo run --release --example padding_mode
//! ```

use oblidb::core::padding::PaddingConfig;
use oblidb::core::{Database, DbConfig};
use oblidb::workloads::cfpb;
use std::time::Instant;

const ROWS: usize = 10_000; // scaled-down CFPB table (paper: 107k → 200k)
const PAD: u64 = 20_000;

fn run(padding: Option<PaddingConfig>, query: &str) -> (usize, std::time::Duration, usize) {
    let mut db = Database::new(DbConfig { padding, ..DbConfig::default() });
    let rows = cfpb::complaints(ROWS, 5);
    db.create_table_with_rows(
        "complaints",
        cfpb::schema(),
        oblidb::core::StorageMethod::Flat,
        None,
        &rows,
        ROWS as u64,
    )
    .unwrap();
    db.start_trace();
    let start = Instant::now();
    let out = db.execute(query).unwrap();
    let elapsed = start.elapsed();
    let trace = db.take_trace();
    (out.len(), elapsed, trace.len())
}

fn main() {
    let q_rare = "SELECT * FROM complaints WHERE year = 2015 AND disputed = 1";
    let q_common = "SELECT * FROM complaints WHERE year > 2013";

    println!("without padding (sizes leak, queries distinguishable):");
    for q in [q_rare, q_common] {
        let (rows, t, accesses) = run(None, q);
        println!("  {rows:>6} rows, {t:>10?}, {accesses} accesses");
    }

    println!("\nwith padding to {PAD} rows (identical transcripts):");
    let mut counts = Vec::new();
    for q in [q_rare, q_common] {
        let (rows, t, accesses) = run(Some(PaddingConfig { pad_rows: PAD }), q);
        println!("  {rows:>6} rows, {t:>10?}, {accesses} accesses");
        counts.push(accesses);
    }
    assert_eq!(counts[0], counts[1], "padded transcripts must match");
    println!(
        "\nslowdown is the price of hiding the result size (paper §7.2 \
              reports 2.4x for selects at ~2x padding)."
    );
}
