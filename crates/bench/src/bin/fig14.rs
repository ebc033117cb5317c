//! Figure 14: join-algorithm grid — foreign-key joins across table sizes
//! and oblivious-memory budgets, for the Hash, Opaque, and 0-OM joins.
//!
//! Paper shape: hash wins when T2 is small or OM is plentiful; the
//! sort-merge (Opaque) join takes over as T2 grows with OM scarce; the
//! 0-OM join always trails the Opaque join (same algorithm, no
//! oblivious-memory quicksort) but speeds up with plain enclave scratch.
//! The last two columns show the operator the engine's planner picks
//! for the cell (the `JoinChoice` of a prepared `SELECT … JOIN` under the
//! same budget) and the one the paper's closed-form §5 rule would.
//!
//! On the simulated substrate random and sequential block accesses cost
//! the same, so the hash→sort crossover needs a smaller OM than on the
//! paper's SGX testbed; the orderings within each column hold.

use oblidb_baselines::paper_rules;
use oblidb_bench::report::Report;
use oblidb_bench::setup::{scale, Scale};
use oblidb_bench::timing::fmt_duration;
use oblidb_core::exec::{hash_join, sort_merge_join, SortMergeVariant};
use oblidb_core::table::FlatTable;
use oblidb_core::{Database, DbConfig, JoinAlgo, PlanNode, StorageMethod, Value};
use oblidb_crypto::aead::AeadKey;
use oblidb_enclave::{Host, OmBudget};
use oblidb_workloads::synthetic;
use std::time::{Duration, Instant};

fn load(host: &mut Host, rows: &[Vec<Value>], seed: u8) -> FlatTable {
    let schema = synthetic::schema(8);
    let encoded: Vec<Vec<u8>> = rows.iter().map(|r| schema.encode_row(r).unwrap()).collect();
    FlatTable::from_encoded_rows(host, AeadKey([seed; 32]), schema, &encoded, rows.len() as u64)
        .unwrap()
}

fn run_cell(n1: usize, n2: usize, om_rows: usize, algo: JoinAlgo) -> Duration {
    let mut host = Host::new();
    let (p, f) = synthetic::fk_join_tables(n1, n2, 3);
    let mut t1 = load(&mut host, &p, 1);
    let mut t2 = load(&mut host, &f, 2);
    let row_len = t1.row_len();
    let om = OmBudget::new(om_rows * row_len);
    let key = AeadKey([9u8; 32]);
    let start = Instant::now();
    let out = match algo {
        JoinAlgo::Hash => hash_join(&mut host, &om, &mut t1, 0, &mut t2, 0, key).unwrap(),
        JoinAlgo::Opaque => {
            sort_merge_join(&mut host, &om, &mut t1, 0, &mut t2, 0, key, SortMergeVariant::Opaque)
                .unwrap()
        }
        JoinAlgo::ZeroOm => {
            // Same *bytes* of plain enclave scratch as the OM column, in
            // union-row units (paper: the 0-OM join speeds up with enclave
            // memory "regardless of whether the memory is oblivious").
            let scratch_rows = (om_rows * row_len / (18 + row_len)).max(1);
            sort_merge_join(
                &mut host,
                &om,
                &mut t1,
                0,
                &mut t2,
                0,
                key,
                SortMergeVariant::ZeroOm { scratch_rows },
            )
            .unwrap()
        }
    };
    let elapsed = start.elapsed();
    assert_eq!(out.num_rows(), n2 as u64, "FK join must match every foreign row");
    elapsed
}

/// The join operator the engine's planner picks for this cell: both
/// tables stored flat, so the choice is made (and costed) at prepare.
fn engine_pick(n1: usize, n2: usize, om_bytes: usize) -> JoinAlgo {
    let mut db = Database::new(DbConfig { om_bytes, ..DbConfig::default() });
    let (p, f) = synthetic::fk_join_tables(n1, n2, 3);
    for (name, rows) in [("p", &p), ("f", &f)] {
        let capacity = rows.len() as u64;
        db.create_table_with_rows(
            name,
            synthetic::schema(8),
            StorageMethod::Flat,
            None,
            rows,
            capacity,
        )
        .unwrap();
    }
    let stmt = db.prepare("SELECT * FROM p JOIN f ON p.id = f.id").unwrap();
    match stmt.plan().select_root() {
        Some(PlanNode::Join(j)) => j.choice.algo().expect("flat sides are decided at prepare"),
        other => panic!("expected a join root, got {other:?}"),
    }
}

fn main() {
    let (t1_sizes, t2_sizes, om_rows): (Vec<usize>, Vec<usize>, Vec<usize>) = match scale() {
        Scale::Small => (vec![2_000, 5_000], vec![100, 1_000, 5_000, 10_000], vec![50, 500, 7_500]),
        Scale::Paper => {
            (vec![5_000, 10_000], vec![100, 1_000, 5_000, 10_000, 25_000], vec![500, 7_500])
        }
    };

    for &om in &om_rows {
        let mut report = Report::new(
            format!("Figure 14 — FK joins, {om} rows of oblivious memory"),
            &["T1", "T2", "Hash", "Opaque", "0-OM", "fastest", "engine pick", "paper rule"],
        );
        for &n1 in &t1_sizes {
            for &n2 in &t2_sizes {
                let hash_t = run_cell(n1, n2, om, JoinAlgo::Hash);
                let opaque_t = run_cell(n1, n2, om, JoinAlgo::Opaque);
                let zero_t = run_cell(n1, n2, om, JoinAlgo::ZeroOm);
                let fastest = [("Hash", hash_t), ("Opaque", opaque_t), ("0-OM", zero_t)]
                    .into_iter()
                    .min_by_key(|(_, t)| *t)
                    .unwrap()
                    .0;
                let row_len = synthetic::schema(8).row_len();
                let pick = engine_pick(n1, n2, om * row_len);
                let rule = paper_rules::choose_join(
                    n1 as u64,
                    n2 as u64,
                    row_len,
                    18 + row_len,
                    om * row_len,
                );
                report.row(&[
                    n1.to_string(),
                    n2.to_string(),
                    fmt_duration(hash_t),
                    fmt_duration(opaque_t),
                    fmt_duration(zero_t),
                    fastest.to_string(),
                    format!("{pick:?}"),
                    format!("{rule:?}"),
                ]);
            }
        }
        report.print();
    }
    println!(
        "\nPaper shape: more OM speeds every algorithm; Opaque ≥ 0-OM always;\n\
         hash is fastest for small T2 and loses ground as T2/OM grows. The\n\
         engine's pick should match the fastest of Hash/Opaque per row."
    );
}
