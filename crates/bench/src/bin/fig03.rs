//! Figure 3: time complexity and oblivious-memory usage of every physical
//! operator. Validated empirically: untrusted accesses are counted at N
//! and 2N and compared with the claimed growth; OM usage is measured
//! against the claimed budget class.

use oblidb_bench::report::Report;
use oblidb_bench::setup::synthetic_db;
use oblidb_core::SelectAlgo;
use oblidb_core::StorageMethod;

/// Runs a 10%-selective select under a forced algorithm, returning
/// (untrusted accesses, peak OM bytes used during the query).
fn run_select(n: usize, algo: SelectAlgo, om_bytes: usize) -> (u64, usize) {
    let mut db = oblidb_core::Database::new(oblidb_core::DbConfig {
        om_bytes,
        ..oblidb_core::DbConfig::default()
    });
    let rows = oblidb_workloads::synthetic::table(n, 8, 5);
    db.create_table_with_rows(
        "t",
        oblidb_workloads::synthetic::schema(8),
        StorageMethod::Flat,
        None,
        &rows,
        n as u64,
    )
    .unwrap();
    db.config_mut().planner.force_select = Some(algo);
    db.host_mut().reset_stats();
    let k = n / 10;
    let out = db.execute(&format!("SELECT * FROM t WHERE id < {k}")).unwrap();
    assert_eq!(out.len(), k);
    (db.host_mut().stats().total_accesses(), db.om().used())
}

fn run_join(n: usize, algo: oblidb_core::JoinAlgo) -> u64 {
    use oblidb_core::JoinAlgo;
    let mut db = oblidb_core::Database::new(oblidb_core::DbConfig::default());
    let (p, f) = oblidb_workloads::synthetic::fk_join_tables(n, n, 5);
    let schema = oblidb_workloads::synthetic::schema(8);
    db.create_table_with_rows("p", schema.clone(), StorageMethod::Flat, None, &p, n as u64)
        .unwrap();
    db.create_table_with_rows("f", schema, StorageMethod::Flat, None, &f, n as u64).unwrap();
    db.config_mut().planner.force_join = Some(algo);
    if algo == JoinAlgo::ZeroOm {
        db.config_mut().zero_om_scratch_rows = 64;
    }
    db.host_mut().reset_stats();
    db.execute("SELECT * FROM p JOIN f ON p.id = f.id").unwrap();
    db.host_mut().stats().total_accesses()
}

fn main() {
    let n = 2048usize;
    let om = 64 * 1024; // deliberately small so multi-pass behavior shows

    let mut report = Report::new(
        "Figure 3 — operator complexities (empirical growth, N→2N, 10% selectivity)",
        &["operator", "N acc", "2N acc", "growth", "paper claim", "om used"],
    );

    for (name, algo, claim) in [
        ("Small select", SelectAlgo::Small, "O(N^2/S)"),
        ("Large select", SelectAlgo::Large, "O(N), 0 OM"),
        ("Continuous select", SelectAlgo::Continuous, "O(N), 0 OM"),
        ("Hash select", SelectAlgo::Hash, "O(N*C), 0 OM"),
        ("Naive select", SelectAlgo::Naive, "O(N log N), O(R) OM"),
    ] {
        let (a1, om1) = run_select(n, algo, om);
        let (a2, _) = run_select(2 * n, algo, om);
        report.row(&[
            name.to_string(),
            a1.to_string(),
            a2.to_string(),
            format!("{:.2}x", a2 as f64 / a1 as f64),
            claim.to_string(),
            format!("{om1}B"),
        ]);
    }

    // Aggregation (always one scan) and grouped aggregation.
    for (name, sql, claim) in [
        ("Aggregate", "SELECT SUM(val) FROM t", "O(N), 0 OM"),
        ("Gp. aggregate", "SELECT val, COUNT(*) FROM t GROUP BY val", "O(N), O(R) OM"),
    ] {
        let mut counts = Vec::new();
        for size in [n, 2 * n] {
            let mut db = synthetic_db(size, StorageMethod::Flat, 5);
            db.host_mut().reset_stats();
            db.execute(sql).unwrap();
            counts.push(db.host_mut().stats().total_accesses());
        }
        report.row(&[
            name.to_string(),
            counts[0].to_string(),
            counts[1].to_string(),
            format!("{:.2}x", counts[1] as f64 / counts[0] as f64),
            claim.to_string(),
            "-".to_string(),
        ]);
    }

    for (name, algo, claim) in [
        ("Hash join", oblidb_core::JoinAlgo::Hash, "O(N/S * M)"),
        ("Opaque join", oblidb_core::JoinAlgo::Opaque, "O((N+M) log^2((N+M)/S))"),
        ("0-OM join", oblidb_core::JoinAlgo::ZeroOm, "O((N+M) log^2(N+M)), 0 OM"),
    ] {
        let a1 = run_join(n / 4, algo);
        let a2 = run_join(n / 2, algo);
        report.row(&[
            name.to_string(),
            a1.to_string(),
            a2.to_string(),
            format!("{:.2}x", a2 as f64 / a1 as f64),
            claim.to_string(),
            "-".to_string(),
        ]);
    }

    report.print();
    println!(
        "\nLinear operators should grow ~2x; the naive/sort-based ones super-linearly;\n\
         Small select grows with N^2/S once R exceeds the enclave buffer."
    );
}
